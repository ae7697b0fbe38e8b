//! Semi-naïve fixpoint evaluation.
//!
//! The LogicBlox engine "evaluates rules using the semi-naïve algorithm until
//! a fixed-point is reached" (paper §2).  [`Evaluator`] implements that
//! algorithm stratum-by-stratum over a workspace's relations, with two
//! departures documented in DESIGN.md:
//!
//! * Aggregation rules are *recomputed from the full body relations* on every
//!   iteration of their stratum, replacing prior values for the same key.
//!   This supports the path-vector use case, whose `bestcost` aggregate is
//!   (syntactically) mutually recursive with the `says`-mediated import rules.
//! * Head-existential variables (allowed by DatalogLB rules such as the
//!   `pathvar` rule) mint one fresh entity per distinct body binding, memoized
//!   so re-derivations are idempotent.
//!
//! ## Round structure (DESIGN.md §10)
//!
//! Each round of a stratum runs in two phases.  **Phase A** evaluates every
//! `(rule, delta-literal)` combination against the round-start relations, in
//! combination order on the calling thread: a batch-eligible combination
//! runs the columnar id-space executor ([`super::batch`]), any other the
//! tuple-at-a-time join — both read-only — and a rule with head existentials
//! the serial minting step.  **Phase B** inserts the collected derivations
//! sequentially in combination order.  Because phase A never observes phase
//! B, the end state of a round is a pure function of its start state.

use super::aggregate::evaluate_agg_rule_exec;
use super::batch::{self, Exec, HeadRows};
use super::bindings::{eval_term, Bindings};
use super::join::{DeltaRestriction, JoinContext};
use super::plan::{PlanCache, PlanKey, RulePlan, StatsCell};
use super::runtime_pred_name;
use super::EvalConfig;
use crate::ast::{Literal, Rule, Term};
use crate::error::{DatalogError, Result};
use crate::intern::{FnvMap, FnvSet, Interner};
use crate::relation::{Relation, Relations};
use crate::schema::{PredicateKind, Schema};
use crate::strata::{Existentials, RuleSet, Stratum};
use crate::udf::UdfRegistry;
use crate::value::{Tuple, Value};
use std::collections::hash_map::Entry;
use std::sync::Arc;
use std::time::Duration;

/// Statistics of one fixpoint run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FixpointStats {
    /// Number of tuples newly derived (over all predicates).
    pub derived: usize,
    /// Total number of semi-naïve iterations across strata.
    pub iterations: usize,
}

/// Tuples per predicate: the shape of every delta a run or a commit reports.
pub type FactDelta = FnvMap<String, FnvSet<Tuple>>;

/// The existential memo: the entity minted per `(rule, memo-key binding +
/// existential offset)`.
pub type ExistentialMemo = FnvMap<(usize, Vec<Value>), u64>;

/// What one committed change did — the one value
/// [`Workspace::transaction`](crate::Workspace::transaction) and
/// [`Workspace::retract`](crate::Workspace::retract) both return.  The
/// counters say how the evaluator got there (a transaction leaves the
/// deletion counters at zero, a retraction the insertion ones); the four
/// deltas are the change itself, read off the commit's [`EvalJournal`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Commit {
    /// Base facts the transaction's batch named.
    pub inserted: usize,
    /// Tuples derived by the fixpoint computation.
    pub derived: usize,
    /// Semi-naïve iterations executed.
    pub iterations: usize,
    /// Wall-clock duration of the transaction (insert + fixpoint + constraint
    /// check), which the evaluation harness reports as "transaction duration".
    pub duration: Duration,
    /// Stored tuples the retraction's batch named.  A named tuple a rule
    /// still derives stays stored; this counts it all the same.
    pub base_deleted: usize,
    /// Tuples the batch did not name that the retraction removed.
    pub over_deleted: usize,
    /// Facts a retraction's proof search asked a derivation of.
    pub checked: usize,
    /// Tuples the fixpoint re-run after a retraction inserted; 0 when the
    /// retraction needed no re-run ([`super::dred`]).
    pub rederived: usize,
    /// The net change per predicate, base and derived tuples alike
    /// ([`EvalJournal::net_delta`]): `added` is stored now and was not
    /// before, `removed` was stored before and is gone now.  A tuple
    /// inserted then displaced, or removed then put back by a re-run, is in
    /// neither.  The distributed runtime reads its export candidates from
    /// here instead of rescanning relations.
    pub added: FactDelta,
    /// See [`added`](Self::added).
    pub removed: FactDelta,
    /// The *base* change, in commit order: facts that entered the explicitly
    /// asserted (extensional) set and facts that left it.  A batch fact
    /// already asserted, or a retracted fact never asserted, is in neither —
    /// so this is exactly what a write-ahead log has to hold to replay the
    /// commit.
    pub base_added: Vec<(String, Tuple)>,
    /// See [`base_added`](Self::base_added).
    pub base_removed: Vec<(String, Tuple)>,
}

/// Result of evaluating one `(rule, delta-literal)` combination in phase A.
/// Id-space derivations stay interned until insertion; only genuinely new
/// tuples are rehydrated (for the delta sets).
pub(super) enum Derivation {
    Values(Vec<(String, Tuple)>),
    Ids(HeadRows),
}

/// The undo log of one transaction or retraction: every mutation of the
/// relations, their asserted bits and the existential memo, recorded as it
/// happens.  It is how `Workspace` rolls a refused change back (reverse
/// replay instead of a pre-image of the database) and where the incremental
/// constraint check gets its delta.
///
/// Undoing replays each relation's ops in reverse — an `Added` op removes the
/// tuple again, a `Displaced` op re-inserts the value an aggregate
/// recomputation displaced (asserted bit included), a `Removed` op
/// re-inserts a tuple a retraction deleted — and then restores the asserted
/// bits the change set or cleared.  Interleaving matters: one run can
/// insert a tuple and later displace it (or delete it, then put it back in a
/// re-run), and only strict reverse-order replay restores the exact prior
/// contents.
#[derive(Debug, Default)]
pub struct EvalJournal {
    /// Relation mutations, per predicate, in execution order.  Mutations of
    /// different relations commute, so undo needs only each relation's own
    /// order — and recording pays one map probe, not a name allocation.
    ops: FnvMap<String, Vec<JournalOp>>,
    /// Relations created during the run, removed again on undo.
    created: Vec<String>,
    /// Existential-memo keys minted during the run.
    minted: Vec<(usize, Vec<Value>)>,
    /// Facts whose asserted bit the change set / cleared.
    edb_added: Vec<(String, Tuple)>,
    edb_removed: Vec<(String, Tuple)>,
}

#[derive(Debug)]
enum JournalOp {
    Added(Tuple),
    /// The displaced tuple and whether it was asserted.
    Displaced(Tuple, bool),
    Removed(Tuple),
}

impl EvalJournal {
    fn record(&mut self, pred: &str, op: JournalOp) {
        match self.ops.get_mut(pred) {
            Some(ops) => ops.push(op),
            None => {
                self.ops.insert(pred.to_string(), vec![op]);
            }
        }
    }

    pub(crate) fn record_added(&mut self, pred: &str, tuple: Tuple) {
        self.record(pred, JournalOp::Added(tuple));
    }

    pub(crate) fn record_displaced(&mut self, pred: &str, tuple: Tuple, asserted: bool) {
        self.record(pred, JournalOp::Displaced(tuple, asserted));
    }

    pub(crate) fn record_removed(&mut self, pred: &str, tuple: Tuple) {
        self.record(pred, JournalOp::Removed(tuple));
    }

    /// [`Self::record_removed`] for several tuples of one predicate.
    pub(crate) fn record_removals(&mut self, pred: &str, tuples: impl Iterator<Item = Tuple>) {
        let removals = tuples.map(JournalOp::Removed);
        match self.ops.get_mut(pred) {
            Some(ops) => ops.extend(removals),
            None => {
                self.ops.insert(pred.to_string(), removals.collect());
            }
        }
    }

    pub(crate) fn record_created(&mut self, pred: &str) {
        self.created.push(pred.to_string());
    }

    pub(crate) fn record_edb_added(&mut self, pred: &str, tuple: Tuple) {
        self.edb_added.push((pred.to_string(), tuple));
    }

    pub(crate) fn record_edb_removed(&mut self, pred: &str, tuple: Tuple) {
        self.edb_removed.push((pred.to_string(), tuple));
    }

    /// The run's net change per predicate, as `(added, removed)`, judged
    /// against the relations at commit.  A tuple's first op says whether it
    /// was stored before the run (`Added` journals only genuinely new rows,
    /// `Displaced`/`Removed` only stored ones) and the relation says whether
    /// it is stored now, so a tuple inserted and then displaced, or deleted
    /// and then put back by a re-run, is in neither set.  The pair selects
    /// the constraints a commit re-checks
    /// ([`check_constraints_for_delta`](crate::constraint::check_constraints_for_delta))
    /// and is what the commit hands downstream ([`Commit::added`],
    /// [`Commit::removed`]).
    pub fn net_delta(&self, relations: &Relations) -> (FactDelta, FactDelta) {
        let mut added = FactDelta::default();
        let mut removed = FactDelta::default();
        for (pred, ops) in &self.ops {
            let relation = relations.get(pred);
            // A tuple repeats only across a removal, so an insert-only
            // history (every plain transaction's) needs no first-op set.
            let repeats = ops.iter().any(|op| !matches!(op, JournalOp::Added(_)));
            let mut seen: FnvSet<&Tuple> = FnvSet::default();
            let mut now_stored: FnvSet<Tuple> = FnvSet::default();
            let mut now_gone: FnvSet<Tuple> = FnvSet::default();
            for op in ops {
                let (tuple, stored_before): (&Tuple, bool) = match op {
                    JournalOp::Added(tuple) => (tuple, false),
                    JournalOp::Displaced(tuple, _) | JournalOp::Removed(tuple) => (tuple, true),
                };
                if repeats && !seen.insert(tuple) {
                    continue;
                }
                let stored_now = relation.is_some_and(|r| r.contains(tuple));
                match (stored_before, stored_now) {
                    (false, true) => now_stored.insert(tuple.clone()),
                    (true, false) => now_gone.insert(tuple.clone()),
                    _ => continue,
                };
            }
            if !now_stored.is_empty() {
                added.insert(pred.clone(), now_stored);
            }
            if !now_gone.is_empty() {
                removed.insert(pred.clone(), now_gone);
            }
        }
        (added, removed)
    }

    /// Hand the committed change's base delta to its [`Commit`], each side in
    /// the order it was made.  Consumes the journal: a commit needs no undo.
    pub(crate) fn move_base_delta_into(self, commit: &mut Commit) {
        commit.base_added = self.edb_added;
        commit.base_removed = self.edb_removed;
    }

    /// Roll every journaled mutation back.  Restores the relations, their
    /// asserted bits and the existential memo to their exact pre-run
    /// contents; the caller restores the (plain-copy) entity counter itself.
    pub fn undo(self, relations: &mut Relations, existential_memo: &mut ExistentialMemo) {
        for (pred, ops) in self.ops {
            let Some(relation) = relations.get_mut(&pred) else {
                continue;
            };
            for op in ops.into_iter().rev() {
                match op {
                    JournalOp::Added(tuple) => {
                        relation.remove(&tuple);
                    }
                    // The displacing tuple was journaled as `Added` after
                    // this op, so reverse replay has already removed it;
                    // re-inserting the displaced value cannot conflict.
                    JournalOp::Displaced(tuple, asserted) => {
                        if let Ok((id, _)) = relation.insert_new(&tuple) {
                            relation.set_asserted(id, asserted);
                        }
                    }
                    // Everything added since the removal is already gone
                    // again, so the tuple goes back without conflict.
                    JournalOp::Removed(tuple) => {
                        let _ = relation.insert(tuple);
                    }
                }
            }
        }
        for pred in self.created {
            relations.remove(&pred);
        }
        for key in self.minted {
            existential_memo.remove(&key);
        }
        // The rows are back first: a fact this change both stored and
        // asserted left with its slot, and one it un-asserted and a
        // deletion then removed is stored again without its bit.
        let mut mark = |(pred, tuple): (String, Tuple), asserted: bool| {
            if let Some(relation) = relations.get_mut(&pred) {
                if let Some(id) = relation.find(&tuple) {
                    relation.set_asserted(id, asserted);
                }
            }
        };
        for fact in self.edb_added {
            mark(fact, false);
        }
        for fact in self.edb_removed {
            mark(fact, true);
        }
    }
}

/// Mutable evaluation state borrowed from a workspace.
pub struct Evaluator<'a> {
    pub relations: &'a mut Relations,
    pub schema: &'a Schema,
    pub udfs: &'a UdfRegistry,
    pub config: &'a EvalConfig,
    /// Counter used to mint fresh entities for head-existential variables.
    pub entity_counter: &'a mut u64,
    /// Memo of already-minted existential entities, keyed by rule index and
    /// the binding of the rule's body variables.
    pub existential_memo: &'a mut ExistentialMemo,
    /// Compiled rule plans, reused across iterations (and across ticks when
    /// the owning workspace lives that long).
    pub plan_cache: &'a mut PlanCache,
    /// Planner / index counters.
    pub plan_stats: &'a StatsCell,
    /// The workspace dictionary every relation this evaluator creates must
    /// share — batch execution requires one dictionary per workspace (see
    /// [`crate::intern`]).
    pub interner: &'a Arc<Interner>,
    /// Record of every mutation this evaluator performs, appended at each
    /// insertion and removal site; the owner undoes it to roll back.
    pub journal: &'a mut EvalJournal,
    /// The tuple path's substitution stack, kept by the owner from round to
    /// round and commit to commit, so its slots' name buffers are allocated
    /// once.
    pub bindings: &'a mut Bindings,
}

/// How a stratum's first round is driven.
enum FirstRound<'s> {
    /// Every rule against the full relations — needed whenever the database
    /// may not be at fixpoint.
    Naive,
    /// Only `(rule, literal)` combinations reading a predicate with new
    /// tuples since the last fixpoint; the map accumulates this run's
    /// deltas so later strata see earlier strata's additions as drivers.
    Seeded(&'s mut FactDelta),
}

impl<'a> Evaluator<'a> {
    /// Run all strata of `program` to fixpoint.
    pub fn run(&mut self, program: &RuleSet) -> Result<FixpointStats> {
        self.run_strata(program, None)
    }

    /// Run all strata to fixpoint from a **converged** database, driving the
    /// first round of each stratum off `seed` — the base tuples inserted
    /// since the last fixpoint — instead of naïvely re-evaluating every rule.
    ///
    /// From a converged state the naïve round is pure overhead: a rule
    /// binding that touches no new tuple can only re-derive a tuple that is
    /// already stored.  Restricting the first round to combinations with at
    /// least one new-tuple literal therefore produces the same final state,
    /// the same genuinely-new deltas, and the same verdicts as
    /// [`Evaluator::run`], at cost proportional to the seed's consequences
    /// rather than to the whole database.  Two preconditions, both checked
    /// by `Workspace::transaction` before it picks this entry point: the
    /// database is at fixpoint, and no rule negates a predicate that can
    /// *shrink* between fixpoints — aggregate heads are the only such
    /// predicates (displacement is the one non-monotone mutation a committed
    /// transaction performs).
    pub fn run_seeded(&mut self, program: &RuleSet, seed: FactDelta) -> Result<FixpointStats> {
        self.run_strata(program, Some(seed))
    }

    /// The strata in order; `accumulated` (a seeded run's drivers: the seed
    /// plus every delta derived so far) selects each stratum's first round.
    fn run_strata(
        &mut self,
        program: &RuleSet,
        mut accumulated: Option<FactDelta>,
    ) -> Result<FixpointStats> {
        let mut stats = FixpointStats::default();
        for stratum in program.strata() {
            let first = match &mut accumulated {
                Some(accumulated) => FirstRound::Seeded(accumulated),
                None => FirstRound::Naive,
            };
            let stratum_stats = self.run_stratum(program, stratum, first)?;
            stats.derived += stratum_stats.derived;
            stats.iterations += stratum_stats.iterations;
        }
        Ok(stats)
    }

    /// Run a single stratum (a set of mutually recursive rules) to fixpoint:
    /// the first round as `first` says, then semi-naïve rounds driven by the
    /// previous round's delta until it is empty.
    fn run_stratum(
        &mut self,
        program: &RuleSet,
        stratum: &Stratum,
        mut first: FirstRound<'_>,
    ) -> Result<FixpointStats> {
        let rules = program.rules();
        let mut stats = FixpointStats::default();
        let mut delta = FactDelta::default();
        let derivations = match &first {
            FirstRound::Naive => {
                let combos: Vec<(usize, Option<usize>)> =
                    stratum.normal.iter().map(|&index| (index, None)).collect();
                self.evaluate_round(program, &combos, &FactDelta::default())?
            }
            FirstRound::Seeded(accumulated) => {
                let combos = delta_combos(rules, &stratum.normal, accumulated)?;
                self.evaluate_round(program, &combos, accumulated)?
            }
        };
        for derivation in derivations {
            stats.derived += self.insert_derivation(derivation, &mut delta)?;
        }
        for &rule_index in &stratum.aggregates {
            // A seeded round skips aggregation rules whose bodies are
            // untouched: recomputation would reproduce the stored values
            // exactly (the previous fixpoint's final round recomputed them
            // against this same state).
            if let FirstRound::Seeded(accumulated) = &first {
                if !rule_touched(&rules[rule_index], accumulated) {
                    continue;
                }
            }
            let derived = self.recompute_aggregate(rules, rule_index)?;
            stats.derived += self.insert_replacing(derived, &mut delta)?;
        }
        stats.iterations += 1;

        loop {
            if let FirstRound::Seeded(accumulated) = &mut first {
                merge_delta(accumulated, &delta);
            }
            if delta.values().all(|d| d.is_empty()) {
                return Ok(stats);
            }
            if stats.iterations > self.config.max_iterations {
                return Err(DatalogError::FixpointBudget {
                    iterations: self.config.max_iterations,
                });
            }
            // `delta` only ever holds head predicates of this stratum, so
            // every combination it selects is a recursive one.
            let combos = delta_combos(rules, &stratum.normal, &delta)?;
            let mut next_delta = FactDelta::default();
            for derivation in self.evaluate_round(program, &combos, &delta)? {
                stats.derived += self.insert_derivation(derivation, &mut next_delta)?;
            }
            // Aggregates recompute every round once the stratum is in motion.
            for &rule_index in &stratum.aggregates {
                let derived = self.recompute_aggregate(rules, rule_index)?;
                stats.derived += self.insert_replacing(derived, &mut next_delta)?;
            }
            delta = next_delta;
            stats.iterations += 1;
        }
    }

    /// Phase A of one round: evaluate every `(rule, delta-literal)`
    /// combination against the round-start relations and return the
    /// derivations in combination order (phase B —
    /// [`Self::insert_derivation`] — is the caller's loop).
    ///
    /// A combination runs one of two read-only ways — a compiled batch job
    /// over id columns where the rule shape allows, the tuple-at-a-time join
    /// otherwise — or, for a rule with head existentials, the serial minting
    /// step.  All on the calling thread, so the first error in combination
    /// order wins.
    ///
    /// A deletion's forward step ([`super::dred`]) is the other caller: a
    /// combination pinned to the deleted-tuple frontier is evaluated exactly
    /// as one pinned to a semi-naïve delta.
    pub(super) fn evaluate_round(
        &mut self,
        program: &RuleSet,
        combos: &[(usize, Option<usize>)],
        delta_sets: &FactDelta,
    ) -> Result<Vec<Derivation>> {
        let mut derivations = Vec::with_capacity(combos.len());
        // One substitution stack: every join leaves it as it found it, so
        // its slots are reused from combination to combination (and, through
        // `self.bindings`, from round to round).  An error drops it.
        let mut bindings = std::mem::take(self.bindings);
        bindings.restore(0);
        for &(rule_index, literal) in combos {
            let rule = &program.rules()[rule_index];
            let delta = match literal {
                Some(literal_index) => {
                    let Literal::Pos(atom) = &rule.body[literal_index] else {
                        return Err(DatalogError::Eval(
                            "delta combination on a non-positive literal".into(),
                        ));
                    };
                    let pred = runtime_pred_name(&atom.pred)?;
                    let delta = delta_sets.get(&*pred).ok_or_else(|| {
                        DatalogError::Eval("delta combination without a delta set".into())
                    })?;
                    Some(DeltaRestriction {
                        literal_index,
                        delta,
                    })
                }
                None => None,
            };
            let plan = self.prepare_plan(program.rules(), rule_index, literal);
            let plan = plan.as_deref();

            // One observation per combination and one count by the way it
            // ran.  A rule job's first compile is the only place the batch
            // path interns (head constants), so dictionary ids follow
            // combination order.
            let _join_timer =
                secureblox_telemetry::histogram!("datalog_rule_batch_join_ns").start_timer();
            self.plan_stats.borrow_mut().serial_batches += 1;
            let existentials = program.existentials(rule_index);
            let derivation = if !existentials.head.is_empty() {
                self.plan_stats.borrow_mut().rule_exec_existential += 1;
                Derivation::Values(self.evaluate_existential(
                    rule_index,
                    rule,
                    existentials,
                    plan,
                    delta,
                    &mut bindings,
                )?)
            } else {
                let batch = match plan {
                    Some(plan) => {
                        let key = PlanKey::Rule {
                            rule: rule_index,
                            delta: literal,
                        };
                        let exec = Exec {
                            relations: self.relations,
                            udfs: self.udfs,
                            interner: self.interner,
                            stats: self.plan_stats,
                        };
                        match batch::rule_job(
                            self.plan_cache.job(key),
                            rule,
                            plan,
                            literal,
                            exec.relations,
                            self.udfs,
                            self.interner,
                            self.plan_stats,
                        ) {
                            Ok(job) => Some(batch::execute_batch(
                                job,
                                delta.map(|pinned| pinned.delta),
                                exec,
                            )?),
                            Err(miss) => Some(Err(miss)),
                        }
                    }
                    None => None,
                };
                match batch {
                    Some(Ok(rows)) => {
                        self.plan_stats.borrow_mut().rule_exec_batch += 1;
                        #[cfg(debug_assertions)]
                        debug_verify_batch(
                            rule,
                            plan,
                            delta,
                            self.relations,
                            self.udfs,
                            self.interner,
                            &rows,
                        )?;
                        Derivation::Ids(rows)
                    }
                    miss => {
                        if let Some(Err(miss)) = miss {
                            self.plan_stats.borrow_mut().batch_misses[miss as usize] += 1;
                        }
                        Derivation::Values(evaluate_tuple_combo(
                            rule,
                            plan,
                            delta,
                            self.relations,
                            self.udfs,
                            self.plan_stats,
                            &mut bindings,
                        )?)
                    }
                }
            };
            derivations.push(derivation);
        }
        *self.bindings = bindings;
        Ok(derivations)
    }

    /// Evaluate one head-existential rule, optionally restricting one body
    /// literal to a delta set, and return the derived `(predicate, tuple)`
    /// pairs without inserting them.  Not read-only: it mints (or recalls)
    /// entities, in solution order.
    fn evaluate_existential(
        &mut self,
        rule_index: usize,
        rule: &Rule,
        existentials: &Existentials,
        plan: Option<&RulePlan>,
        restriction: Option<DeltaRestriction<'_>>,
        bindings: &mut Bindings,
    ) -> Result<Vec<(String, Tuple)>> {
        let ctx = JoinContext::new(self.relations, self.udfs, self.plan_stats);
        let mut solutions: Vec<Bindings> = Vec::new();
        let mut collect = |b: &Bindings| {
            solutions.push(b.clone());
            Ok(())
        };
        match plan {
            Some(plan) => {
                ctx.join_planned(&rule.body, plan, restriction, bindings, &mut collect)?
            }
            None => ctx.join(&rule.body, restriction, bindings, &mut collect)?,
        }

        let mut derived: Vec<(String, Tuple)> = Vec::new();
        for mut solution in solutions {
            // Mint (or recall) entities for head-existential variables.
            let memo_key: Vec<Value> = existentials
                .memo_key
                .iter()
                .filter_map(|v| solution.get(v).cloned())
                .collect();
            for (offset, var) in existentials.head.iter().enumerate() {
                let mut key = memo_key.clone();
                key.push(Value::Int(offset as i64));
                let entity_id = match self.existential_memo.entry((rule_index, key)) {
                    Entry::Occupied(entry) => *entry.get(),
                    Entry::Vacant(entry) => {
                        *self.entity_counter += 1;
                        self.journal.minted.push(entry.key().clone());
                        *entry.insert(*self.entity_counter)
                    }
                };
                solution.bind(var, Value::Entity(entity_id));
            }
            // Same head projection the combination paths use — one
            // implementation, so the paths cannot drift.
            project_heads(rule, &solution, &mut derived)?;
        }
        Ok(derived)
    }

    /// Compile (or fetch) the plan for a rule, build the secondary indexes it
    /// probes, and return it.  `None` when planning is disabled.
    fn prepare_plan(
        &mut self,
        rules: &[Rule],
        rule_index: usize,
        delta_literal: Option<usize>,
    ) -> Option<Arc<RulePlan>> {
        let key = PlanKey::Rule {
            rule: rule_index,
            delta: delta_literal,
        };
        self.prepare_plan_for(key, &rules[rule_index].body, FnvSet::default)
    }

    /// [`Self::prepare_plan`] for any body under any [`PlanKey`]; `bound`
    /// is what the body starts from ([`PlanCache::plan_for`]).
    pub(super) fn prepare_plan_for(
        &mut self,
        key: PlanKey,
        body: &[Literal],
        bound: impl FnOnce() -> FnvSet<String>,
    ) -> Option<Arc<RulePlan>> {
        if !self.config.use_planner {
            return None;
        }
        let plan =
            self.plan_cache
                .plan_for(key, body, bound, self.relations, self.udfs, self.plan_stats);
        for spec in &plan.ensure {
            if let Some(relation) = self.relations.get_mut(&spec.pred) {
                if relation.ensure_index(spec.cols) {
                    self.plan_stats.borrow_mut().index_builds += 1;
                }
            }
        }
        Some(plan)
    }

    /// Recompute an aggregation rule from the full body relations.
    fn recompute_aggregate(
        &mut self,
        rules: &[Rule],
        rule_index: usize,
    ) -> Result<Vec<(String, Tuple)>> {
        let plan = self.prepare_plan(rules, rule_index, None);
        evaluate_agg_rule_exec(
            &rules[rule_index],
            self.relations,
            self.udfs,
            plan.as_deref(),
            self.plan_stats,
        )
    }

    /// Phase B: insert one combination's derivations with strict
    /// functional-dependency checking, adding new tuples to `delta`.
    /// Id-space derivations insert without rehydration; only genuinely new
    /// rows are resolved back to values (for the delta set).
    fn insert_derivation(
        &mut self,
        derivation: Derivation,
        delta: &mut FactDelta,
    ) -> Result<usize> {
        match derivation {
            Derivation::Values(derived) => self.insert_derived(derived, delta),
            Derivation::Ids(derived) => {
                let mut inserted = 0usize;
                for (pred, batch) in derived {
                    self.relation_entry(&pred);
                    let relation = self
                        .relations
                        .get_mut(&*pred)
                        .expect("relation just ensured");
                    let mut new_rows = Vec::new();
                    for row in batch.iter() {
                        if relation.insert_ids(row)?.1 {
                            let tuple = self.interner.resolve_row(row);
                            self.journal.record_added(&pred, tuple.clone());
                            new_rows.push(tuple);
                        }
                    }
                    inserted += new_rows.len();
                    if !new_rows.is_empty() {
                        delta.entry(pred.to_string()).or_default().extend(new_rows);
                    }
                }
                Ok(inserted)
            }
        }
    }

    /// Insert derived tuples with strict functional-dependency checking.
    /// Newly inserted tuples are added to `delta`.
    fn insert_derived(
        &mut self,
        derived: Vec<(String, Tuple)>,
        delta: &mut FactDelta,
    ) -> Result<usize> {
        let mut inserted = 0usize;
        for (pred, tuple) in derived {
            if self.relation_entry(&pred).insert_new(&tuple)?.1 {
                inserted += 1;
                self.journal.record_added(&pred, tuple.clone());
                delta.entry(pred).or_default().insert(tuple);
            }
        }
        Ok(inserted)
    }

    /// Insert derived tuples, replacing existing functional values (used for
    /// aggregate recomputation where new aggregates supersede old ones).
    fn insert_replacing(
        &mut self,
        derived: Vec<(String, Tuple)>,
        delta: &mut FactDelta,
    ) -> Result<usize> {
        let mut inserted = 0usize;
        for (pred, tuple) in derived {
            let relation = self.relation_entry(&pred);
            let (added, displaced) = relation.insert_or_replace_returning(&tuple)?;
            // Displacement is journaled before the insertion that caused it
            // — reverse replay then restores the displaced value after
            // removing its replacement.
            if let Some((old, asserted)) = displaced {
                self.journal.record_displaced(&pred, old, asserted);
            }
            if added {
                self.journal.record_added(&pred, tuple.clone());
                inserted += 1;
                delta.entry(pred).or_default().insert(tuple);
            }
        }
        Ok(inserted)
    }

    /// Get or create the relation for `pred`, using the schema to decide the
    /// storage kind.  New relations share the evaluator's dictionary.
    pub fn relation_entry(&mut self, pred: &str) -> &mut Relation {
        if !self.relations.contains_key(pred) {
            let key_arity = self.schema.get(pred).and_then(|decl| match decl.kind {
                PredicateKind::Functional { key_arity } => Some(key_arity),
                PredicateKind::Relation => None,
            });
            self.relations.insert(
                pred.to_string(),
                Relation::with_interner(pred, key_arity, Arc::clone(self.interner)),
            );
            self.journal.record_created(pred);
        }
        self.relations
            .get_mut(pred)
            .expect("relation just inserted")
    }
}

/// Every `(rule, positive body literal)` combination whose predicate has
/// driving tuples in `drivers`, in rule then literal order.
pub(super) fn delta_combos(
    rules: &[Rule],
    normal_rules: &[usize],
    drivers: &FactDelta,
) -> Result<Vec<(usize, Option<usize>)>> {
    let mut combos = Vec::new();
    for &rule_index in normal_rules {
        for (literal_index, literal) in rules[rule_index].body.iter().enumerate() {
            let Literal::Pos(atom) = literal else {
                continue;
            };
            let pred = runtime_pred_name(&atom.pred)?;
            if drivers.get(&*pred).is_some_and(|set| !set.is_empty()) {
                combos.push((rule_index, Some(literal_index)));
            }
        }
    }
    Ok(combos)
}

/// Fold one round's delta into the accumulated new-tuple map of a seeded
/// run (so later strata — and rules positioned after the producing round —
/// see it as a first-round driver).
fn merge_delta(accumulated: &mut FactDelta, delta: &FactDelta) {
    for (pred, set) in delta {
        if set.is_empty() {
            continue;
        }
        accumulated
            .entry(pred.clone())
            .or_default()
            .extend(set.iter().cloned());
    }
}

/// Does any body literal of `rule` — positive or negative — read a
/// predicate with accumulated new tuples?  Untouched aggregation rules skip
/// recomputation in a seeded first round: their stored values are exactly
/// what recomputation would produce.
fn rule_touched(rule: &Rule, accumulated: &FactDelta) -> bool {
    rule.body.iter().any(|literal| {
        let atom = match literal {
            Literal::Pos(atom) | Literal::Neg(atom) => atom,
            Literal::Cmp(..) => return false,
        };
        runtime_pred_name(&atom.pred)
            .is_ok_and(|pred| accumulated.get(&*pred).is_some_and(|set| !set.is_empty()))
    })
}

/// Evaluate one non-existential `(rule, delta)` combination read-only,
/// tuple at a time, on the caller's (empty) substitution stack.  Heads are
/// projected inside the enumeration callback — no per-solution `Bindings`
/// clone.
fn evaluate_tuple_combo(
    rule: &Rule,
    plan: Option<&RulePlan>,
    restriction: Option<DeltaRestriction<'_>>,
    relations: &Relations,
    udfs: &UdfRegistry,
    stats: &StatsCell,
    bindings: &mut Bindings,
) -> Result<Vec<(String, Tuple)>> {
    let ctx = JoinContext::new(relations, udfs, stats);
    let mut derived: Vec<(String, Tuple)> = Vec::new();
    let mut collect = |b: &Bindings| project_heads(rule, b, &mut derived);
    match plan {
        Some(plan) => ctx.join_planned(&rule.body, plan, restriction, bindings, &mut collect)?,
        None => ctx.join(&rule.body, restriction, bindings, &mut collect)?,
    }
    Ok(derived)
}

/// Instantiate the head atoms of a rule under one body solution (with any
/// head-existential variable already bound to its entity), appending them to
/// `derived`.
fn project_heads(
    rule: &Rule,
    solution: &Bindings,
    derived: &mut Vec<(String, Tuple)>,
) -> Result<()> {
    for atom in &rule.head {
        let pred = runtime_pred_name(&atom.pred)?;
        let mut tuple: Tuple = Vec::with_capacity(atom.terms.len());
        for term in &atom.terms {
            let value = match term {
                Term::Var(v) => solution.get(v).cloned(),
                other => eval_term(other, solution)?,
            };
            match value {
                Some(v) => tuple.push(v),
                None => {
                    return Err(DatalogError::Eval(format!(
                        "unsafe rule: head term {term} of {pred} is not bound by the body in \
                         rule `{rule}`"
                    )))
                }
            }
        }
        derived.push((pred.into_owned(), tuple));
    }
    Ok(())
}

/// Debug-build check of the batch executor: its rehydrated output must equal
/// the tuple-at-a-time enumeration of the same combination (both sorted and
/// deduplicated).  Counts into scratch stats so the workspace's counters
/// reflect only the real evaluation.
#[cfg(debug_assertions)]
fn debug_verify_batch(
    rule: &Rule,
    plan: Option<&RulePlan>,
    delta: Option<DeltaRestriction<'_>>,
    relations: &Relations,
    udfs: &UdfRegistry,
    interner: &Arc<Interner>,
    rows: &HeadRows,
) -> Result<()> {
    fn canonicalize(mut derived: Vec<(String, Tuple)>) -> Vec<(String, Tuple)> {
        derived.sort_by(|a, b| {
            a.0.cmp(&b.0)
                .then_with(|| crate::value::tuple_total_cmp(&a.1, &b.1))
        });
        derived.dedup();
        derived
    }
    let serial = evaluate_tuple_combo(
        rule,
        plan,
        delta,
        relations,
        udfs,
        &StatsCell::default(),
        &mut Bindings::new(),
    )?;
    let rehydrated: Vec<(String, Tuple)> = rows
        .iter()
        .flat_map(|(pred, batch)| {
            batch
                .iter()
                .map(|row| (pred.to_string(), interner.resolve_row(row)))
        })
        .collect();
    debug_assert_eq!(
        canonicalize(serial),
        canonicalize(rehydrated),
        "batch evaluation diverged from tuple-at-a-time for rule `{rule}`"
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;
    use crate::strata::stratify;
    use crate::udf::UdfRegistry;

    /// Build the pieces an Evaluator needs from a program plus EDB facts.
    /// Relations share one dictionary so the batch path is exercised.
    struct Fixture {
        program: RuleSet,
        schema: Schema,
        udfs: UdfRegistry,
        relations: Relations,
        interner: Arc<Interner>,
        entity_counter: u64,
        memo: ExistentialMemo,
        plan_cache: PlanCache,
        plan_stats: StatsCell,
    }

    impl Fixture {
        fn new(source: &str, facts: &[(&str, Vec<Value>)]) -> Self {
            let program = parse_program(source).unwrap();
            let mut schema = Schema::new();
            schema.absorb_program(&program).unwrap();
            let rules: Vec<Rule> = program.rules().cloned().collect();
            let udfs = UdfRegistry::new();
            let strata = stratify(&rules, &udfs).unwrap();
            let interner = Arc::new(Interner::new());
            let mut relations = Relations::default();
            for (pred, tuple) in facts {
                let key_arity = schema.get(pred).and_then(|d| match d.kind {
                    PredicateKind::Functional { key_arity } => Some(key_arity),
                    PredicateKind::Relation => None,
                });
                relations
                    .entry(pred.to_string())
                    .or_insert_with(|| {
                        Relation::with_interner(*pred, key_arity, Arc::clone(&interner))
                    })
                    .insert(tuple.clone())
                    .unwrap();
            }
            Fixture {
                program: RuleSet::new(rules, strata),
                schema,
                udfs,
                relations,
                interner,
                entity_counter: 0,
                memo: ExistentialMemo::default(),
                plan_cache: PlanCache::new(),
                plan_stats: StatsCell::default(),
            }
        }

        fn run(&mut self) -> FixpointStats {
            let config = EvalConfig::default();
            let mut evaluator = Evaluator {
                relations: &mut self.relations,
                schema: &self.schema,
                udfs: &self.udfs,
                config: &config,
                entity_counter: &mut self.entity_counter,
                existential_memo: &mut self.memo,
                plan_cache: &mut self.plan_cache,
                plan_stats: &self.plan_stats,
                interner: &self.interner,
                journal: &mut EvalJournal::default(),
                bindings: &mut Bindings::new(),
            };
            evaluator.run(&self.program).unwrap()
        }

        fn tuples(&self, pred: &str) -> Vec<Tuple> {
            self.relations
                .get(pred)
                .map(|r| r.sorted())
                .unwrap_or_default()
        }
    }

    fn s(v: &str) -> Value {
        Value::str(v)
    }

    #[test]
    fn transitive_closure() {
        let mut fixture = Fixture::new(
            "reachable(X, Y) <- link(X, Y).\n\
             reachable(X, Y) <- link(X, Z), reachable(Z, Y).",
            &[
                ("link", vec![s("a"), s("b")]),
                ("link", vec![s("b"), s("c")]),
                ("link", vec![s("c"), s("d")]),
            ],
        );
        let stats = fixture.run();
        let reachable = fixture.tuples("reachable");
        assert_eq!(reachable.len(), 6);
        assert!(reachable.contains(&vec![s("a"), s("d")]));
        assert!(stats.iterations >= 3, "needs several semi-naive rounds");
        // Idempotent: re-running derives nothing new.
        let stats2 = fixture.run();
        assert_eq!(stats2.derived, 0);
    }

    #[test]
    fn negation_in_higher_stratum() {
        let mut fixture = Fixture::new(
            "reachable(X, Y) <- link(X, Y).\n\
             reachable(X, Y) <- link(X, Z), reachable(Z, Y).\n\
             node(X) <- link(X, _).\n\
             node(Y) <- link(_, Y).\n\
             unreachable(X, Y) <- node(X), node(Y), !reachable(X, Y).",
            &[
                ("link", vec![s("a"), s("b")]),
                ("link", vec![s("c"), s("c")]),
            ],
        );
        fixture.run();
        let unreachable = fixture.tuples("unreachable");
        assert!(unreachable.contains(&vec![s("a"), s("a")]));
        assert!(unreachable.contains(&vec![s("b"), s("c")]));
        assert!(!unreachable.contains(&vec![s("a"), s("b")]));
        assert!(!unreachable.contains(&vec![s("c"), s("c")]));
    }

    #[test]
    fn aggregation_min_cost() {
        let mut fixture = Fixture::new(
            "cost[Src, Dst] = C -> node(Src), node(Dst), int[32](C).\n\
             bestcost[Src, Dst] = C <- agg<< C = min(Cx) >> cost3(Src, Dst, Cx).",
            &[
                ("cost3", vec![s("a"), s("b"), Value::Int(5)]),
                ("cost3", vec![s("a"), s("b"), Value::Int(3)]),
                ("cost3", vec![s("a"), s("c"), Value::Int(7)]),
            ],
        );
        fixture.run();
        let best = fixture.tuples("bestcost");
        assert_eq!(best.len(), 2);
        assert!(best.contains(&vec![s("a"), s("b"), Value::Int(3)]));
        assert!(best.contains(&vec![s("a"), s("c"), Value::Int(7)]));
    }

    #[test]
    fn head_existentials_mint_stable_entities() {
        let mut fixture = Fixture::new(
            "pathvar(P) -> .\n\
             pathvar(P), path(P, X, Y) <- link(X, Y).",
            &[
                ("link", vec![s("a"), s("b")]),
                ("link", vec![s("b"), s("c")]),
            ],
        );
        fixture.run();
        let paths = fixture.tuples("path");
        assert_eq!(paths.len(), 2);
        let pathvars = fixture.tuples("pathvar");
        assert_eq!(pathvars.len(), 2);
        // Entities are distinct per binding.
        assert_ne!(paths[0][0], paths[1][0]);
        // Re-running the fixpoint must not mint new entities.
        fixture.run();
        assert_eq!(fixture.tuples("pathvar").len(), 2);
    }

    #[test]
    fn arithmetic_in_heads() {
        let mut fixture = Fixture::new(
            "dist(X, Y, 1) <- link(X, Y).\n\
             dist(X, Y, C + 1) <- link(X, Z), dist(Z, Y, C), C < 10.",
            &[
                ("link", vec![s("a"), s("b")]),
                ("link", vec![s("b"), s("c")]),
                ("link", vec![s("c"), s("d")]),
            ],
        );
        fixture.run();
        let dist = fixture.tuples("dist");
        assert!(dist.contains(&vec![s("a"), s("d"), Value::Int(3)]));
    }

    #[test]
    fn batch_path_runs_for_eligible_rules() {
        let facts: Vec<(&str, Vec<Value>)> = (0..32)
            .flat_map(|i| {
                vec![
                    ("r", vec![Value::Int(i), Value::Int(i + 1)]),
                    ("s", vec![Value::Int(i + 1), Value::Int(i + 2)]),
                ]
            })
            .collect();
        let mut fixture = Fixture::new("out(X, Z) <- r(X, Y), s(Y, Z).", &facts);
        fixture.run();
        assert_eq!(fixture.tuples("out").len(), 32);
        // Derived relations share the fixture dictionary, so re-running
        // stays on the batch path and derives nothing new.
        let stats = fixture.run();
        assert_eq!(stats.derived, 0);
        assert!(Arc::ptr_eq(
            fixture.relations.get("out").unwrap().interner(),
            &fixture.interner
        ));
    }

    #[test]
    fn unsafe_rule_rejected() {
        let mut fixture = Fixture::new(
            "out(X, Y) <- link(X, _).",
            &[("link", vec![s("a"), s("b")])],
        );
        let config = EvalConfig::default();
        let mut evaluator = Evaluator {
            relations: &mut fixture.relations,
            schema: &fixture.schema,
            udfs: &fixture.udfs,
            config: &config,
            entity_counter: &mut fixture.entity_counter,
            existential_memo: &mut fixture.memo,
            plan_cache: &mut fixture.plan_cache,
            plan_stats: &fixture.plan_stats,
            interner: &fixture.interner,
            journal: &mut EvalJournal::default(),
            bindings: &mut Bindings::new(),
        };
        // Y is a head existential, so it actually mints an entity — that is
        // allowed.  A truly unsafe head reads a variable the body mentions
        // but never binds: `!blocked(Z)` only tests that no `blocked` row
        // exists, so the head expression `Z + 1` has no value.
        let program = parse_program("out(Z + 1) <- link(X, _), !blocked(Z).").unwrap();
        let rules: Vec<Rule> = program.rules().cloned().collect();
        let program = RuleSet::new(rules, vec![vec![0]]);
        let result = evaluator.evaluate_round(&program, &[(0, None)], &FactDelta::default());
        assert!(
            result.is_err_and(|error| matches!(
                &error,
                DatalogError::Eval(message) if message.contains("unsafe rule")
            )),
            "an unbound head expression is an unsafe rule"
        );
    }

    #[test]
    fn fixpoint_budget_enforced() {
        let mut fixture = Fixture::new(
            "count(X, C + 1) <- count(X, C).",
            &[("count", vec![s("a"), Value::Int(0)])],
        );
        let config = EvalConfig {
            max_iterations: 50,
            ..EvalConfig::default()
        };
        let mut evaluator = Evaluator {
            relations: &mut fixture.relations,
            schema: &fixture.schema,
            udfs: &fixture.udfs,
            config: &config,
            entity_counter: &mut fixture.entity_counter,
            existential_memo: &mut fixture.memo,
            plan_cache: &mut fixture.plan_cache,
            plan_stats: &fixture.plan_stats,
            interner: &fixture.interner,
            journal: &mut EvalJournal::default(),
            bindings: &mut Bindings::new(),
        };
        let err = evaluator.run(&fixture.program).unwrap_err();
        assert!(matches!(err, DatalogError::FixpointBudget { .. }));
    }
}
