//! The workspace: a database instance holding predicate definitions,
//! installed rules, constraints, and data, evaluated transactionally.
//!
//! This mirrors the LogicBlox workspace of the paper's Figure 1: programs are
//! compiled (parsed, type-checked) and installed; applications then add or
//! remove facts, and the installed rules are maintained to fixpoint while
//! runtime constraints are checked.  SecureBlox processes each batch of
//! incoming network facts "in a local ACID transaction that encapsulates a
//! fixpoint computation; if a derivation in the transaction violates a runtime
//! constraint, then the transaction (including the input tuples) is rolled
//! back" (§5.2) — [`Workspace::transaction`] implements exactly that.

use crate::ast::{singleton_var, Constraint, Literal, Program, Rule, Statement, Term};
use crate::constraint::{check_constraints_for_delta, check_constraints_planned};
use crate::error::{DatalogError, Result};
use crate::eval::seminaive::ExistentialMemo;
use crate::eval::{
    Bindings, Commit, EvalConfig, EvalJournal, Evaluator, FactDelta, PlanCache, PlanStats,
    StatsCell,
};
use crate::intern::{FnvSet, Interner};
use crate::parser::parse_program;
use crate::relation::{Relation, Relations};
use crate::schema::{PredicateKind, Schema};
use crate::strata::RuleSet;
use crate::typecheck::typecheck_program;
use crate::udf::UdfRegistry;
use crate::value::{Tuple, Value};
use std::sync::Arc;
use std::time::Instant;

/// A LogicBlox-style workspace.
#[derive(Clone)]
pub struct Workspace {
    schema: Schema,
    relations: Relations,
    /// The installed rules, stratified.
    program: RuleSet,
    constraints: Vec<Constraint>,
    udfs: UdfRegistry,
    config: EvalConfig,
    entity_counter: u64,
    existential_memo: ExistentialMemo,
    /// When true, static type checking failures abort installation.
    strict_typing: bool,
    /// When true, negation is permitted inside recursive components
    /// (locally-stratified programs such as the path-vector protocol).
    allow_recursive_negation: bool,
    /// Compiled rule plans, kept across transactions (and deployment ticks)
    /// so steady-state evaluation pays no planning cost.
    plan_cache: PlanCache,
    /// Every count this workspace keeps, bumped by the planner and both
    /// executors through `&`.
    plan_stats: StatsCell,
    /// The tuple path's substitution stack, lent to every evaluator.
    bindings: Bindings,
    /// The workspace-wide value dictionary.  Every relation of this workspace
    /// shares it, which is what makes the columnar batch executor eligible
    /// (see [`crate::intern`]).
    interner: Arc<Interner>,
    /// Whether the installed program is eligible for seeded (incremental)
    /// transactions: no negated body literal reads an aggregate-rule head.
    /// Aggregate heads are the one predicate class that can *shrink* during a
    /// fixpoint (value displacement), so negation over them could enable
    /// derivations a delta-seeded first round never drives.  Recomputed on
    /// every program install.
    seedable: bool,
    /// Whether the stored relations are known to be a fixpoint of the
    /// installed program: set when a transaction or retraction commits,
    /// cleared by every mutation that bypasses one (program install, direct
    /// fact assertion, relation clearing, UDF registration).  A rollback
    /// restores the pre-call contents and leaves the flag as it was.
    converged: bool,
}

impl std::fmt::Debug for Workspace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Workspace")
            .field("predicates", &self.relations.len())
            .field("rules", &self.program.rules().len())
            .field("constraints", &self.constraints.len())
            .field(
                "facts",
                &self.relations.values().map(|r| r.len()).sum::<usize>(),
            )
            .finish()
    }
}

impl Default for Workspace {
    fn default() -> Self {
        Self::new()
    }
}

impl Workspace {
    /// Create an empty workspace with default evaluation limits.
    pub fn new() -> Self {
        Workspace {
            schema: Schema::new(),
            relations: Relations::default(),
            program: RuleSet::default(),
            constraints: Vec::new(),
            udfs: UdfRegistry::new(),
            config: EvalConfig::default(),
            entity_counter: 0,
            existential_memo: ExistentialMemo::default(),
            strict_typing: true,
            allow_recursive_negation: false,
            plan_cache: PlanCache::new(),
            plan_stats: StatsCell::default(),
            bindings: Bindings::new(),
            interner: Arc::new(Interner::new()),
            seedable: true,
            converged: false,
        }
    }

    /// Create a workspace with a custom evaluation configuration.
    pub fn with_config(config: EvalConfig) -> Self {
        Workspace {
            config,
            ..Self::new()
        }
    }

    /// Disable static type checking (useful for exploratory programs whose
    /// schema is intentionally partial).
    pub fn set_strict_typing(&mut self, strict: bool) {
        self.strict_typing = strict;
    }

    /// Permit negation inside recursive components (locally-stratified
    /// programs).  Must be called before programs are installed.
    pub fn set_allow_recursive_negation(&mut self, allow: bool) {
        self.allow_recursive_negation = allow;
    }

    /// Reserve a distinct entity-id namespace for this workspace so entities
    /// minted on different simulated nodes never collide when tuples travel
    /// between them.
    pub fn set_entity_namespace(&mut self, namespace: u64) {
        self.entity_counter = self.entity_counter.max(namespace << 32);
    }

    /// Access the declared schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Installed rules.
    pub fn rules(&self) -> &[Rule] {
        self.program.rules()
    }

    /// Installed constraints.
    pub fn constraints(&self) -> &[Constraint] {
        &self.constraints
    }

    /// The UDF registry (mutable, for registering application functions).
    pub fn udfs_mut(&mut self) -> &mut UdfRegistry {
        self.converged = false;
        &mut self.udfs
    }

    /// Register a user-defined function.
    pub fn register_udf<F>(&mut self, name: impl Into<String>, f: F)
    where
        F: Fn(&[Option<Value>]) -> std::result::Result<Vec<Vec<Value>>, String>
            + Send
            + Sync
            + 'static,
    {
        self.udfs_mut().register(name, f);
    }

    /// Register a family of user-defined functions (`family$param`).
    pub fn register_udf_family<F>(&mut self, family: impl Into<String>, f: F)
    where
        F: Fn(&str, &[Option<Value>]) -> std::result::Result<Vec<Vec<Value>>, String>
            + Send
            + Sync
            + 'static,
    {
        self.udfs_mut().register_family(family, f);
    }

    /// Parse and install a program from source text.
    pub fn install_source(&mut self, source: &str) -> Result<()> {
        let program = parse_program(source)?;
        self.install_program(&program)
    }

    /// Install a parsed program: absorb its schema, type-check it, add its
    /// rules, constraints and facts, and re-stratify the rules — the one
    /// place the per-rule facts evaluation reads every round are computed
    /// ([`RuleSet`]).
    ///
    /// Rules and constraints enter with their singleton reads lifted into
    /// body literals ([`Rule::lift_singletons`],
    /// [`Constraint::lift_singletons`]), so the evaluator reads the database
    /// through literals only; a fact's `p[]` is resolved here, to the value
    /// the singleton has now.
    ///
    /// Programs containing BloxGenerics statements must be compiled with the
    /// meta-compiler first; installing them directly is an error.
    pub fn install_program(&mut self, program: &Program) -> Result<()> {
        if program.has_generics() {
            return Err(DatalogError::Generics(
                "program contains BloxGenerics statements; compile it with secureblox-generics \
                 before installing"
                    .into(),
            ));
        }
        self.converged = false;
        self.schema.absorb_program(program)?;
        if self.strict_typing {
            typecheck_program(program, &self.schema, &self.udfs)?;
        }
        let mut rules = self.program.rules().to_vec();
        for statement in &program.statements {
            match statement {
                Statement::Rule(rule) => rules.push(rule.clone().lift_singletons()),
                Statement::Constraint(constraint) => {
                    self.constraints.push(constraint.clone().lift_singletons())
                }
                Statement::Fact(fact) => {
                    let pred = crate::eval::runtime_pred_name(&fact.atom.pred)?;
                    let tuple = self.ground_terms(&fact.atom.terms)?;
                    self.insert_edb(&pred, tuple)?;
                }
                Statement::GenericRule(_) | Statement::GenericConstraint(_) => unreachable!(),
            }
        }
        self.program = RuleSet::stratified(rules, &self.udfs, self.allow_recursive_negation)?;
        self.seedable = Self::compute_seedable(self.program.rules());
        // The rule set changed: previously compiled plans are stale.
        self.plan_cache.clear();
        Ok(())
    }

    /// A program is seedable iff no negated body literal reads a predicate
    /// that an aggregate rule writes (see the `seedable` field).
    fn compute_seedable(rules: &[Rule]) -> bool {
        let mut agg_heads: FnvSet<String> = FnvSet::default();
        for rule in rules {
            if rule.agg.is_some() {
                for atom in &rule.head {
                    if let Ok(name) = crate::eval::runtime_pred_name(&atom.pred) {
                        agg_heads.insert(name.into_owned());
                    }
                }
            }
        }
        if agg_heads.is_empty() {
            return true;
        }
        for rule in rules {
            for literal in &rule.body {
                if let Literal::Neg(atom) = literal {
                    if let Ok(name) = crate::eval::runtime_pred_name(&atom.pred) {
                        if agg_heads.contains(&*name) {
                            return false;
                        }
                    }
                }
            }
        }
        true
    }

    /// A fact's argument terms as values, each singleton read lifted and
    /// bound to the singleton's value (an unset one leaves its term without
    /// a value).
    fn ground_terms(&self, terms: &[Term]) -> Result<Tuple> {
        let mut terms = terms.to_vec();
        let mut reads = Vec::new();
        for term in &mut terms {
            term.lift_singletons(&mut reads);
        }
        let mut bindings = Bindings::new();
        for pred in reads {
            if let Some(value) = self.singleton(&pred) {
                bindings.bind(&singleton_var(&pred), value);
            }
        }
        let mut tuple = Vec::with_capacity(terms.len());
        for term in &terms {
            match crate::eval::bindings::eval_term(term, &bindings)? {
                Some(v) => tuple.push(v),
                None => {
                    return Err(DatalogError::Eval(format!(
                        "fact argument {term} is not a ground value"
                    )))
                }
            }
        }
        Ok(tuple)
    }

    /// Assert a single extensional fact (no fixpoint is run).
    pub fn assert_fact(&mut self, pred: &str, tuple: Tuple) -> Result<()> {
        self.converged = false;
        self.insert_edb(pred, tuple)
    }

    /// Set the value of a zero-key functional (singleton) predicate, e.g.
    /// `self[] = "n3"`.  The value is asserted; the one it replaces leaves
    /// with its asserted bit.
    pub fn set_singleton(&mut self, pred: &str, value: Value) -> Result<()> {
        self.converged = false;
        let relation = self.relation_or_create(pred, Some(0));
        let tuple = [value];
        relation.insert_or_replace_returning(&tuple)?;
        let (id, _) = relation.insert_new(&tuple)?;
        relation.set_asserted(id, true);
        Ok(())
    }

    fn insert_edb(&mut self, pred: &str, tuple: Tuple) -> Result<()> {
        let key_arity = self.key_arity(pred);
        let relation = self.relation_or_create(pred, key_arity);
        let (id, _) = relation.insert_new(&tuple)?;
        relation.set_asserted(id, true);
        Ok(())
    }

    /// The relation of `pred`, created on first use — the name is copied
    /// only then.
    fn relation_or_create(&mut self, pred: &str, key_arity: Option<usize>) -> &mut Relation {
        if !self.relations.contains_key(pred) {
            let relation = Relation::with_interner(pred, key_arity, Arc::clone(&self.interner));
            self.relations.insert(pred.to_string(), relation);
        }
        self.relations.get_mut(pred).expect("relation just ensured")
    }

    /// All tuples of a predicate, in deterministic order.
    pub fn query(&self, pred: &str) -> Vec<Tuple> {
        self.relations
            .get(pred)
            .map(|r| r.sorted())
            .unwrap_or_default()
    }

    /// Number of tuples stored for a predicate.
    pub fn count(&self, pred: &str) -> usize {
        self.relations.get(pred).map_or(0, |r| r.len())
    }

    /// Membership test for a fully ground tuple.
    pub fn contains_fact(&self, pred: &str, tuple: &[Value]) -> bool {
        self.relations.get(pred).is_some_and(|r| r.contains(tuple))
    }

    /// The value of a singleton predicate, if set.
    pub fn singleton(&self, pred: &str) -> Option<Value> {
        self.relations.get(pred)?.functional_lookup(&[])
    }

    /// The asserted (extensional) tuples of a predicate, in deterministic
    /// order: the facts a retraction never deletes for lack of a
    /// derivation.
    pub fn asserted(&self, pred: &str) -> Vec<Tuple> {
        let Some(relation) = self.relations.get(pred) else {
            return Vec::new();
        };
        let mut out: Vec<Tuple> = relation
            .asserted_ids()
            .map(|id| relation.tuple(id))
            .collect();
        out.sort_by(|a, b| crate::value::tuple_total_cmp(a, b));
        out
    }

    /// Direct read access to a relation (used by the distributed runtime to
    /// drain export buffers).
    pub fn relation(&self, pred: &str) -> Option<&Relation> {
        self.relations.get(pred)
    }

    /// The workspace-wide value dictionary every relation shares: what a
    /// caller holding facts as id rows encodes and rehydrates them with.
    pub fn interner(&self) -> &Interner {
        &self.interner
    }

    /// Probe `pred` on a secondary index over the columns of `cols`, building
    /// the index on first use (it is maintained incrementally afterwards).
    /// `key` holds dictionary ids ([`Workspace::interner`]).  Yields every
    /// stored tuple whose projection onto `cols` equals `key`, read in place
    /// — the distributed runtime uses this to find the detached signature of
    /// an exported tuple without scanning the whole signature relation.
    pub fn probe_indexed<'w>(
        &'w mut self,
        pred: &str,
        cols: crate::relation::ColumnSet,
        key: &'w [u32],
    ) -> impl Iterator<Item = crate::relation::StoredRow<'w>> + 'w {
        let relation = self.relations.get_mut(pred).map(|relation| {
            relation.ensure_index(cols);
            &*relation
        });
        relation.into_iter().flat_map(move |relation| {
            let bucket = relation.probe_ids(cols, key).unwrap_or(&[]);
            bucket
                .iter()
                .filter(move |&&id| relation.projection_matches(id, cols, key))
                .map(move |&id| relation.row(id))
        })
    }

    /// Remove every tuple of a predicate without touching derived data (used
    /// for transient outbox predicates such as `export`).
    pub fn clear_relation(&mut self, pred: &str) {
        self.converged = false;
        if let Some(relation) = self.relations.get_mut(pred) {
            relation.clear();
        }
    }

    /// An empty transaction: run the installed rules to fixpoint and check
    /// the constraints over whatever that derives.  Rolls back on violation;
    /// on a converged workspace there is nothing to derive.
    pub fn fixpoint(&mut self) -> Result<Commit> {
        self.transaction(Vec::new())
    }

    /// Process a batch of incoming facts inside a local ACID transaction:
    /// insert the facts, run the installed rules to fixpoint, check every
    /// constraint, and either commit or roll the whole batch back.
    ///
    /// Every mutation is journaled, so a constraint violation or FD conflict
    /// rolls back by reverse-replaying the journal — no pre-image of the
    /// database is taken.  From a converged workspace running a seedable
    /// program the fixpoint's first round is driven by this batch's new base
    /// tuples alone (see [`Evaluator::run_seeded`]); otherwise it is naïve.
    /// Verdicts and the resulting database are the same either way.
    pub fn transaction(&mut self, batch: Vec<(String, Tuple)>) -> Result<Commit> {
        let start = Instant::now();
        let counter = self.entity_counter;
        let mut journal = EvalJournal::default();
        match self.transaction_body(batch, &mut journal) {
            Ok(mut report) => {
                self.converged = true;
                journal.move_base_delta_into(&mut report);
                report.duration = start.elapsed();
                secureblox_telemetry::histogram!("datalog_fixpoint_ns")
                    .record_duration(report.duration);
                secureblox_telemetry::gauge!("datalog_intern_table_size")
                    .set_max(self.interner.len() as i64);
                Ok(report)
            }
            Err(error) => {
                self.rollback(journal, counter);
                Err(error)
            }
        }
    }

    fn transaction_body(
        &mut self,
        batch: Vec<(String, Tuple)>,
        journal: &mut EvalJournal,
    ) -> Result<Commit> {
        let mut report = Commit::default();
        let mut seed = FactDelta::default();
        for (pred, tuple) in batch {
            if !self.relations.contains_key(&pred) {
                journal.record_created(&pred);
                let relation = Relation::with_interner(
                    &pred,
                    self.key_arity(&pred),
                    Arc::clone(&self.interner),
                );
                self.relations.insert(pred.clone(), relation);
            }
            let relation = self
                .relations
                .get_mut(&pred)
                .expect("relation just ensured");
            let (id, new) = relation.insert_new(&tuple)?;
            let newly_asserted = relation.set_asserted(id, true);
            report.inserted += 1;
            if new {
                journal.record_added(&pred, tuple.clone());
                if newly_asserted {
                    journal.record_edb_added(&pred, tuple.clone());
                }
                seed.entry(pred).or_default().insert(tuple);
            } else if newly_asserted {
                journal.record_edb_added(&pred, tuple);
            }
        }
        let seeded = self.seedable && self.converged;
        let stats = {
            let (mut evaluator, program) = self.evaluator(journal);
            if seeded {
                evaluator.run_seeded(program, seed)?
            } else {
                evaluator.run(program)?
            }
        };
        report.derived = stats.derived;
        report.iterations = stats.iterations;
        (report.added, report.removed) = journal.net_delta(&self.relations);
        self.check_constraints(&report.added, &report.removed)?;
        Ok(report)
    }

    /// The constraint check of a commit whose net change is `(added,
    /// removed)`.  From a converged workspace every constraint held before
    /// the commit and the journal saw every change since, so only what the
    /// delta can newly violate is checked (paper §2: constraints are checked
    /// for every new fact).  Otherwise facts entered unjournaled
    /// (`install_program`, `assert_fact`, `set_singleton`) and nothing has
    /// checked them yet: every constraint, over the whole database.
    fn check_constraints(&mut self, added: &FactDelta, removed: &FactDelta) -> Result<()> {
        if !self.converged {
            return check_constraints_planned(
                &self.constraints,
                &mut self.relations,
                &self.udfs,
                &mut self.plan_cache,
                &self.plan_stats,
            );
        }
        check_constraints_for_delta(
            &self.constraints,
            &mut self.relations,
            &self.udfs,
            &mut self.plan_cache,
            &self.plan_stats,
            &self.interner,
            added,
            removed,
        )
    }

    /// Undo a refused transaction or retraction: reverse-replay its journal
    /// and restore the entity counter.
    fn rollback(&mut self, journal: EvalJournal, counter: u64) {
        journal.undo(&mut self.relations, &mut self.existential_memo);
        self.entity_counter = counter;
    }

    fn key_arity(&self, pred: &str) -> Option<usize> {
        self.schema.get(pred).and_then(|decl| match decl.kind {
            PredicateKind::Functional { key_arity } => Some(key_arity),
            PredicateKind::Relation => None,
        })
    }

    /// The evaluator over this workspace's mutable state, journaling into
    /// `journal`, beside the stratified rules it reads but does not own.
    fn evaluator<'a>(&'a mut self, journal: &'a mut EvalJournal) -> (Evaluator<'a>, &'a RuleSet) {
        let evaluator = Evaluator {
            relations: &mut self.relations,
            schema: &self.schema,
            udfs: &self.udfs,
            config: &self.config,
            entity_counter: &mut self.entity_counter,
            existential_memo: &mut self.existential_memo,
            plan_cache: &mut self.plan_cache,
            plan_stats: &self.plan_stats,
            interner: &self.interner,
            journal,
            bindings: &mut self.bindings,
        };
        (evaluator, &self.program)
    }

    /// A copy of every count this workspace has kept since it was created.
    pub fn plan_stats(&self) -> PlanStats {
        *self.plan_stats.borrow()
    }

    /// Number of compiled rule plans currently cached.
    pub fn cached_plans(&self) -> usize {
        self.plan_cache.len()
    }

    /// Retract base facts and incrementally maintain derived relations: a
    /// derived fact the retraction reaches goes only when no derivation of it
    /// is left ([`Evaluator::delete`]).  A named fact a rule still derives
    /// leaves the asserted set and stays stored.  From an unconverged
    /// workspace the program then runs naïvely, so facts entered since the
    /// last commit get their consequences, as a transaction gives them.  The
    /// constraints its net change can violate are re-checked afterwards, by
    /// the same rule as a transaction's; a violation rolls the whole
    /// retraction back through the journal, exactly as a refused transaction
    /// does.
    pub fn retract(&mut self, batch: Vec<(String, Tuple)>) -> Result<Commit> {
        self.retract_with(batch, |evaluator, program, batch| {
            evaluator.delete(program, batch)
        })
    }

    /// [`Self::retract`] through the over-delete / re-derive pass this engine
    /// used before ([`Evaluator::delete_by_rederivation`]): the property
    /// tests' oracle, not part of the engine.
    #[doc(hidden)]
    pub fn retract_rederiving(&mut self, batch: Vec<(String, Tuple)>) -> Result<Commit> {
        self.retract_with(batch, |evaluator, program, batch| {
            evaluator.delete_by_rederivation(program, batch)
        })
    }

    fn retract_with(
        &mut self,
        batch: Vec<(String, Tuple)>,
        delete: impl FnOnce(&mut Evaluator<'_>, &RuleSet, &[(String, Tuple)]) -> Result<Commit>,
    ) -> Result<Commit> {
        let timer = secureblox_telemetry::histogram!("datalog_retract_ns").start_timer();
        let counter = self.entity_counter;
        let mut journal = EvalJournal::default();
        for (pred, tuple) in &batch {
            if let Some(relation) = self.relations.get_mut(pred) {
                if let Some(id) = relation.find(tuple) {
                    if relation.set_asserted(id, false) {
                        journal.record_edb_removed(pred, tuple.clone());
                    }
                }
            }
        }
        let converged = self.converged;
        let deleted = {
            let (mut evaluator, program) = self.evaluator(&mut journal);
            delete(&mut evaluator, program, &batch).and_then(|mut stats| {
                // The deletion maintains only what it reaches.  Facts
                // entered since the last commit (`assert_fact`,
                // `install_program`) have no consequences yet: from such a
                // state the retraction ends with the naïve run, in this
                // journal, as a transaction from it does.
                if !converged && stats.base_deleted > 0 {
                    stats.rederived += evaluator.run(program)?.derived;
                }
                Ok(stats)
            })
        };
        // A retraction that found nothing stored ran no fixpoint and changed
        // nothing: there is no delta to check or report.
        let checked = deleted.and_then(|mut stats| {
            if stats.base_deleted > 0 {
                (stats.added, stats.removed) = journal.net_delta(&self.relations);
                self.check_constraints(&stats.added, &stats.removed)?;
            }
            Ok(stats)
        });
        match checked {
            Ok(mut stats) => {
                self.converged |= stats.base_deleted > 0;
                journal.move_base_delta_into(&mut stats);
                Ok(stats)
            }
            Err(error) => {
                self.rollback(journal, counter);
                timer.cancel();
                Err(error)
            }
        }
    }

    /// Names of all predicates with stored tuples (sorted, for diagnostics).
    pub fn predicate_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.relations.keys().cloned().collect();
        names.sort();
        names
    }

    /// Total number of stored tuples across all predicates.
    pub fn total_facts(&self) -> usize {
        self.relations.values().map(|r| r.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(v: &str) -> Value {
        Value::str(v)
    }

    #[test]
    fn install_and_run_transitive_closure() {
        let mut ws = Workspace::new();
        ws.install_source(
            "reachable(X, Y) <- link(X, Y).\n\
             reachable(X, Y) <- link(X, Z), reachable(Z, Y).\n\
             link(n1, n2). link(n2, n3). link(n3, n4).",
        )
        .unwrap();
        let report = ws.fixpoint().unwrap();
        assert_eq!(ws.count("reachable"), 6);
        assert!(report.derived >= 6);
        assert!(ws.contains_fact("reachable", &[s("n1"), s("n4")]));
    }

    #[test]
    fn transaction_commits_new_batch() {
        let mut ws = Workspace::new();
        ws.install_source(
            "reachable(X, Y) <- link(X, Y).\n\
             reachable(X, Y) <- link(X, Z), reachable(Z, Y).",
        )
        .unwrap();
        ws.transaction(vec![("link".into(), vec![s("a"), s("b")])])
            .unwrap();
        let report = ws
            .transaction(vec![("link".into(), vec![s("b"), s("c")])])
            .unwrap();
        assert_eq!(report.inserted, 1);
        assert!(ws.contains_fact("reachable", &[s("a"), s("c")]));
        assert!(report.duration.as_nanos() > 0);
    }

    #[test]
    fn constraint_violation_rolls_back_batch() {
        let mut ws = Workspace::new();
        ws.install_source(
            "says_link(P, Q) -> principal(P), principal(Q).\n\
             link(X, Y) <- says_link(X, Y).\n\
             principal(alice).",
        )
        .unwrap();
        // alice -> bob: bob is not a principal, so the whole batch must roll back.
        let err = ws
            .transaction(vec![("says_link".into(), vec![s("alice"), s("bob")])])
            .unwrap_err();
        assert!(matches!(err, DatalogError::ConstraintViolation(_)));
        assert_eq!(ws.count("says_link"), 0);
        assert_eq!(ws.count("link"), 0);

        // Registering bob first makes the same batch commit.
        ws.assert_fact("principal", vec![s("bob")]).unwrap();
        ws.transaction(vec![("says_link".into(), vec![s("alice"), s("bob")])])
            .unwrap();
        assert_eq!(ws.count("link"), 1);
    }

    #[test]
    fn rollback_also_restores_derived_tuples() {
        let mut ws = Workspace::new();
        ws.install_source(
            "even(X) -> int[32](X).\n\
             twice(X, Y) <- pair(X, Y).\n\
             bad(X) -> audit(X, X).\n\
             bad(X) <- pair(X, _).",
        )
        .unwrap();
        let before = ws.total_facts();
        let err = ws
            .transaction(vec![("pair".into(), vec![Value::Int(1), Value::Int(2)])])
            .unwrap_err();
        assert!(matches!(err, DatalogError::ConstraintViolation(_)));
        assert_eq!(ws.total_facts(), before);
        assert_eq!(ws.count("twice"), 0);
    }

    #[test]
    fn functional_dependency_violation_rolls_back() {
        let mut ws = Workspace::new();
        ws.install_source("owner[X] = Y -> string(X), string(Y).\nowner[k] = v1.")
            .unwrap();
        ws.fixpoint().unwrap();
        let err = ws
            .transaction(vec![("owner".into(), vec![s("k"), s("v2")])])
            .unwrap_err();
        assert!(matches!(err, DatalogError::FunctionalDependency { .. }));
        assert_eq!(ws.query("owner"), vec![vec![s("k"), s("v1")]]);
    }

    #[test]
    fn seeded_rollback_restores_exact_state() {
        let mut ws = Workspace::new();
        ws.install_source(
            "says_link(P, Q) -> principal(P), principal(Q).\n\
             link(X, Y) <- says_link(X, Y).\n\
             reach(X, Y) <- link(X, Y).\n\
             reach(X, Y) <- link(X, Z), reach(Z, Y).\n\
             principal(alice). principal(bob).\n\
             says_link(alice, bob).",
        )
        .unwrap();
        ws.fixpoint().unwrap();
        let before_facts = ws.total_facts();
        let before_links = ws.query("link");
        let err = ws
            .transaction(vec![("says_link".into(), vec![s("bob"), s("mallory")])])
            .unwrap_err();
        assert!(matches!(err, DatalogError::ConstraintViolation(_)));
        assert_eq!(ws.total_facts(), before_facts);
        assert_eq!(ws.query("link"), before_links);
        assert_eq!(ws.count("says_link"), 1);
        // And the workspace is still fully usable afterwards.
        ws.transaction(vec![("principal".into(), vec![s("mallory")])])
            .unwrap();
        ws.transaction(vec![("says_link".into(), vec![s("bob"), s("mallory")])])
            .unwrap();
        assert!(ws.contains_fact("reach", &[s("alice"), s("mallory")]));
    }

    #[test]
    fn singleton_set_and_read() {
        let mut ws = Workspace::new();
        ws.set_singleton("self", s("n7")).unwrap();
        assert_eq!(ws.singleton("self"), Some(s("n7")));
        ws.set_singleton("self", s("n8")).unwrap();
        assert_eq!(ws.singleton("self"), Some(s("n8")));
        assert_eq!(ws.singleton("other"), None);
        // A fact statement reads the value the singleton has at install.
        ws.install_source("owner(self[], 1).").unwrap();
        assert_eq!(ws.query("owner"), vec![vec![s("n8"), Value::Int(1)]]);
        assert!(ws.install_source("owner(other[], 2).").is_err());
    }

    #[test]
    fn generic_program_rejected_without_metacompiler() {
        let mut ws = Workspace::new();
        let err = ws
            .install_source("'{ T(V*) <- says[T](P, self[], V*). } <-- predicate(T).")
            .unwrap_err();
        assert!(matches!(err, DatalogError::Generics(_)));
    }

    #[test]
    fn retract_maintains_derived_data() {
        let mut ws = Workspace::new();
        ws.install_source(
            "reachable(X, Y) <- link(X, Y).\n\
             reachable(X, Y) <- link(X, Z), reachable(Z, Y).\n\
             link(a, b). link(b, c).",
        )
        .unwrap();
        ws.fixpoint().unwrap();
        assert!(ws.contains_fact("reachable", &[s("a"), s("c")]));
        let stats = ws
            .retract(vec![("link".into(), vec![s("b"), s("c")])])
            .unwrap();
        assert_eq!(stats.base_deleted, 1);
        assert!(!ws.contains_fact("reachable", &[s("a"), s("c")]));
        assert!(ws.contains_fact("reachable", &[s("a"), s("b")]));
    }

    #[test]
    fn a_commit_reports_its_base_delta_not_its_batch() {
        let mut ws = Workspace::new();
        ws.install_source("reachable(X, Y) <- link(X, Y).").unwrap();
        let link = |x, y| ("link".to_string(), vec![s(x), s(y)]);
        let first = ws
            .transaction(vec![link("a", "b"), link("b", "c")])
            .unwrap();
        assert_eq!(first.base_added, vec![link("a", "b"), link("b", "c")]);
        // A held fact is no base change; asserting a tuple that was only
        // derived is one, though the relation does not grow.
        let derived = ("reachable".to_string(), vec![s("a"), s("b")]);
        let second = ws
            .transaction(vec![link("a", "b"), link("c", "d"), derived.clone()])
            .unwrap();
        assert_eq!(second.inserted, 3);
        assert_eq!(second.base_added, vec![link("c", "d"), derived]);
        assert!(second.base_removed.is_empty());
        // Of a stored and a never-stored fact, only the stored one leaves.
        let third = ws.retract(vec![link("x", "y"), link("b", "c")]).unwrap();
        assert_eq!(third.base_deleted, 1);
        assert_eq!(third.base_removed, vec![link("b", "c")]);
        assert!(third.base_added.is_empty());
    }

    #[test]
    fn entity_namespace_prevents_collisions() {
        let mut ws1 = Workspace::new();
        let mut ws2 = Workspace::new();
        ws2.set_entity_namespace(7);
        for ws in [&mut ws1, &mut ws2] {
            ws.install_source(
                "pathvar(P) -> .\n\
                 pathvar(P), path(P, X, Y) <- link(X, Y).\n\
                 link(a, b).",
            )
            .unwrap();
            ws.fixpoint().unwrap();
        }
        let e1 = &ws1.query("pathvar")[0][0];
        let e2 = &ws2.query("pathvar")[0][0];
        assert_ne!(e1, e2);
    }

    #[test]
    fn udf_usable_from_installed_rules() {
        let mut ws = Workspace::new();
        ws.register_udf("hash10", |args| {
            let v = crate::udf::require_bound(args, 0, "hash10")?;
            let text = v.as_str().ok_or("expected string")?;
            let h = text.bytes().map(|b| b as i64).sum::<i64>() % 10;
            Ok(vec![vec![v, Value::Int(h)]])
        });
        ws.install_source("bucket(X, H) <- item(X), hash10(X, H).\nitem(abc).")
            .unwrap();
        ws.fixpoint().unwrap();
        assert_eq!(ws.count("bucket"), 1);
        let tuple = &ws.query("bucket")[0];
        assert_eq!(
            tuple[1],
            Value::Int((b'a' as i64 + b'b' as i64 + b'c' as i64) % 10)
        );
    }

    #[test]
    fn query_and_predicate_listing() {
        let mut ws = Workspace::new();
        ws.install_source("p(1). p(2). q(x).").unwrap();
        assert_eq!(ws.count("p"), 2);
        assert_eq!(ws.predicate_names(), vec!["p".to_string(), "q".to_string()]);
        assert_eq!(ws.total_facts(), 3);
        assert!(ws.query("missing").is_empty());
    }

    #[test]
    fn strict_typing_toggle() {
        let mut ws = Workspace::new();
        let source = "reachable(X, Y) -> node(X), node(Y).\n\
                      reachable(X, Y) <- s(X), s(Y).";
        assert!(ws.install_source(source).is_err());
        let mut lenient = Workspace::new();
        lenient.set_strict_typing(false);
        lenient.install_source(source).unwrap();
    }

    #[test]
    fn planner_hoists_comparisons_across_producers() {
        // `C = K + 1` textually precedes the literal that binds K.  The old
        // textual-order evaluator errored on it ("unbound operands"); the
        // planner defers the assignment until K is bound.
        let source = "cost[X, Y] = C -> string(X), string(Y), int(C).\n\
                      cost[a, b] = 4.\n\
                      out(C) <- C = K + 1, cost[a, b] = K.";
        let mut ws = Workspace::new();
        ws.install_source(source).unwrap();
        ws.fixpoint().unwrap();
        assert_eq!(ws.query("out"), vec![vec![Value::Int(5)]]);
        // Lock in the contrast: the naive evaluator still rejects the rule,
        // so if the planner ever stops hoisting, this test catches it.
        let mut naive = Workspace::with_config(EvalConfig {
            use_planner: false,
            ..EvalConfig::default()
        });
        naive.install_source(source).unwrap();
        assert!(naive.fixpoint().is_err());
    }

    #[test]
    fn planner_hoists_selections_before_scans() {
        // `X = a, Y = b` after the functional literal: the planner schedules
        // the assignments first so the functional fast path applies; results
        // must match the naive scan.
        let source = "cost[X, Y] = C -> string(X), string(Y), int(C).\n\
                      cost[a, b] = 4. cost[a, c] = 9.\n\
                      out(C) <- cost[X, Y] = C, X = a, Y = b.";
        for use_planner in [true, false] {
            let mut ws = Workspace::with_config(EvalConfig {
                use_planner,
                ..EvalConfig::default()
            });
            ws.install_source(source).unwrap();
            ws.fixpoint().unwrap();
            assert_eq!(ws.query("out"), vec![vec![Value::Int(4)]]);
        }
    }

    #[test]
    fn frozen_negation_variable_keeps_textual_semantics() {
        // `!b(X, Z)` with Z textually unbound means "no b(X, _) at all"; the
        // later assignment `Z = 5` must not be hoisted ahead of it.  With
        // b(1, 7) present, both evaluators must derive nothing.
        let source = "a(1). b(1, 7).\n\
                      out(X) <- a(X), !b(X, Z), Z = 5.";
        for use_planner in [true, false] {
            let mut ws = Workspace::with_config(EvalConfig {
                use_planner,
                ..EvalConfig::default()
            });
            ws.install_source(source).unwrap();
            ws.fixpoint().unwrap();
            assert!(
                ws.query("out").is_empty(),
                "planner={use_planner} must not derive out"
            );
        }
    }

    #[test]
    fn retract_works_with_hoisted_comparison_rules() {
        // A deletion's joins must run the same planned order as fixpoint
        // evaluation: this rule is only evaluable with the comparison
        // hoisted, and retraction must not error on it.
        let source = "cost[X, Y] = C -> string(X), string(Y), int(C).\n\
                      cost[a, b] = 4. cost[a, c] = 9.\n\
                      out(C) <- C = K + 1, cost[a, b] = K.";
        let mut ws = Workspace::new();
        ws.install_source(source).unwrap();
        ws.fixpoint().unwrap();
        assert_eq!(ws.query("out"), vec![vec![Value::Int(5)]]);
        // Retracting an unrelated fact leaves the derivation alone…
        ws.retract(vec![("cost".into(), vec![s("a"), s("c"), Value::Int(9)])])
            .unwrap();
        assert_eq!(ws.query("out"), vec![vec![Value::Int(5)]]);
        // …and retracting the producing fact removes it.
        ws.retract(vec![("cost".into(), vec![s("a"), s("b"), Value::Int(4)])])
            .unwrap();
        assert!(ws.query("out").is_empty());
    }

    #[test]
    fn delta_pinning_respects_frozen_negation_vars() {
        // r is recursive with out, so semi-naïve passes restrict r(Z) to the
        // delta and the planner wants to pin it first — but Z is frozen for
        // `!b(X, Z)` (textually unbound: ∄ b(X, _)), so pinning must yield.
        // With b(1, 7) present, out(1) must never be derived.
        let source = "seed(1). a(1). a(2). b(1, 7).\n\
                      r(X) <- seed(X).\n\
                      r(X) <- out(X).\n\
                      out(X) <- a(X), !b(X, Z), r(Z).";
        let mut results = Vec::new();
        for use_planner in [true, false] {
            let mut ws = Workspace::with_config(EvalConfig {
                use_planner,
                ..EvalConfig::default()
            });
            ws.install_source(source).unwrap();
            ws.fixpoint().unwrap();
            results.push(ws.query("out"));
        }
        assert_eq!(results[0], results[1], "planned and naive out diverge");
        assert_eq!(results[0], vec![vec![Value::Int(2)]]);
    }

    #[test]
    fn plan_stats_report_probes_and_cache_hits() {
        let mut ws = Workspace::new();
        ws.install_source(
            "reachable(X, Y) <- link(X, Y).\n\
             reachable(X, Y) <- link(X, Z), reachable(Z, Y).",
        )
        .unwrap();
        for i in 0..30 {
            ws.assert_fact("link", vec![Value::Int(i), Value::Int(i + 1)])
                .unwrap();
        }
        ws.fixpoint().unwrap();
        let stats = ws.plan_stats();
        assert!(stats.plans_compiled > 0);
        assert!(stats.index_probes > 0, "recursive join should probe");
        assert!(ws.cached_plans() > 0);
        // A second transaction reuses the cached plans for the combinations
        // the first one already ran.
        ws.transaction(vec![("link".into(), vec![Value::Int(30), Value::Int(31)])])
            .unwrap();
        assert!(ws.plan_stats().plan_cache_hits > stats.plan_cache_hits);
        assert_eq!(ws.count("reachable"), 31 * 32 / 2);
    }

    #[test]
    fn constraint_checks_share_the_plan_cache() {
        let mut ws = Workspace::new();
        ws.install_source(
            "says_link(P, Q) -> principal(P), principal(Q).\n\
             principal(alice). principal(bob).",
        )
        .unwrap();
        assert_eq!(ws.cached_plans(), 0);
        // The install left the workspace non-converged, so the first commit
        // checks the constraint in full (lhs plan, no delta literal)...
        ws.transaction(vec![("says_link".into(), vec![s("alice"), s("bob")])])
            .unwrap();
        assert!(
            ws.cached_plans() > 0,
            "constraint check must compile and cache plans"
        );
        // ...the second from its delta: one more lhs plan, pinned to the
        // delta literal, and the rhs plan shared with the full check.
        let compiled = ws.plan_stats().plans_compiled;
        ws.transaction(vec![("says_link".into(), vec![s("bob"), s("alice")])])
            .unwrap();
        assert_eq!(ws.plan_stats().plans_compiled, compiled + 1);
        // From then on every constraint plan is a cache hit.
        let stats = ws.plan_stats();
        ws.transaction(vec![("says_link".into(), vec![s("bob"), s("bob")])])
            .unwrap();
        assert_eq!(ws.plan_stats().plans_compiled, stats.plans_compiled);
        assert!(ws.plan_stats().plan_cache_hits > stats.plan_cache_hits);
        // Verdicts are unchanged: an unknown principal still rolls back.
        let err = ws
            .transaction(vec![("says_link".into(), vec![s("mallory"), s("bob")])])
            .unwrap_err();
        assert!(matches!(err, DatalogError::ConstraintViolation(_)));
    }

    /// Relations and entity-visible state, for exact before/after checks.
    fn contents(ws: &Workspace) -> Vec<(String, Vec<Tuple>)> {
        ws.predicate_names()
            .into_iter()
            .map(|pred| (pred.clone(), ws.query(&pred)))
            .collect()
    }

    #[test]
    fn a_retraction_from_an_unconverged_workspace_derives_what_is_pending() {
        // `e(b, c)` enters outside a transaction, so nothing derived `reach`
        // from it yet; the retraction that follows must, as a transaction
        // would.
        let mut ws = Workspace::new();
        ws.install_source("reach(X, Y) <- e(X, Y).").unwrap();
        ws.transaction(vec![("e".into(), vec![s("a"), s("b")])])
            .unwrap();
        ws.assert_fact("e", vec![s("b"), s("c")]).unwrap();
        let commit = ws
            .retract(vec![("e".into(), vec![s("a"), s("b")])])
            .unwrap();
        assert_eq!(ws.query("reach"), vec![vec![s("b"), s("c")]]);
        assert_eq!(commit.rederived, 1);
        // Converged again: the next commit is seeded and derives from its
        // own facts only.
        ws.transaction(vec![("e".into(), vec![s("c"), s("d")])])
            .unwrap();
        assert_eq!(ws.count("reach"), 2);
    }

    #[test]
    fn a_non_converged_commit_checks_facts_no_transaction_saw() {
        // Facts entered outside a transaction are not journaled, so the
        // commit that follows must check every constraint, not its own delta.
        let refused = |ws: &mut Workspace| {
            let before = contents(ws);
            let error = ws.fixpoint().unwrap_err();
            assert!(
                matches!(error, DatalogError::ConstraintViolation(_)),
                "{error}"
            );
            assert_eq!(contents(ws), before);
            // Still not converged: asking again gives the same answer.
            assert!(ws.fixpoint().is_err());
        };

        let mut installed = Workspace::new();
        installed.install_source("p(X) -> r(X).\np(1).").unwrap();
        refused(&mut installed);
        // The same fact through a transaction was always refused.
        let mut transacted = Workspace::new();
        transacted.install_source("p(X) -> r(X).").unwrap();
        assert!(transacted
            .transaction(vec![("p".into(), vec![Value::Int(1)])])
            .is_err());

        let mut asserted = Workspace::new();
        asserted.install_source("p(X) -> r(X).").unwrap();
        asserted.fixpoint().unwrap();
        asserted.assert_fact("p", vec![Value::Int(1)]).unwrap();
        refused(&mut asserted);
        // Supplying the witness the same way makes the next commit pass,
        // and from there on commits are checked from their deltas again.
        asserted.assert_fact("r", vec![Value::Int(1)]).unwrap();
        asserted.fixpoint().unwrap();
        assert!(asserted
            .transaction(vec![("p".into(), vec![Value::Int(2)])])
            .is_err());

        let mut singleton = Workspace::new();
        singleton
            .install_source("me[] = X -> allowed(X).\nallowed(n1).")
            .unwrap();
        singleton.fixpoint().unwrap();
        singleton.set_singleton("me", s("n2")).unwrap();
        refused(&mut singleton);
        singleton.set_singleton("me", s("n1")).unwrap();
        singleton.fixpoint().unwrap();
    }

    #[test]
    fn an_added_tuple_a_negated_rhs_excludes_is_refused() {
        let mut ws = Workspace::new();
        ws.install_source("p(X) -> !q(X).\np(1).").unwrap();
        ws.fixpoint().unwrap();
        let before = contents(&ws);
        let error = ws
            .transaction(vec![("q".into(), vec![Value::Int(1)])])
            .unwrap_err();
        assert!(
            matches!(error, DatalogError::ConstraintViolation(_)),
            "{error}"
        );
        assert_eq!(contents(&ws), before);
        // A tuple the negation does not exclude for any held lhs commits.
        ws.transaction(vec![("q".into(), vec![Value::Int(2)])])
            .unwrap();
    }

    #[test]
    fn a_displaced_rhs_witness_is_refused() {
        let mut ws = Workspace::new();
        ws.install_source(
            "need(X) -> best[X] = 5.\n\
             best[X] = C <- agg<< C = min(V) >> cost(X, V).\n\
             cost(1, 5). need(1).",
        )
        .unwrap();
        ws.fixpoint().unwrap();
        let before = contents(&ws);
        // The new minimum displaces best[1] = 5, the witness need(1) has.
        let error = ws
            .transaction(vec![("cost".into(), vec![Value::Int(1), Value::Int(3)])])
            .unwrap_err();
        assert!(
            matches!(error, DatalogError::ConstraintViolation(_)),
            "{error}"
        );
        assert_eq!(contents(&ws), before);
        assert_eq!(ws.query("best"), vec![vec![Value::Int(1), Value::Int(5)]]);
        // A cost that leaves the minimum alone commits.
        ws.transaction(vec![("cost".into(), vec![Value::Int(1), Value::Int(7)])])
            .unwrap();
    }

    #[test]
    fn a_retraction_is_checked_by_what_it_removed() {
        let mut program =
            parse_program("p(X) -> r(X).\np(1). r(1). r(2). item(a). owner(a). other(z).").unwrap();
        // `item(X), !owner(X) -> spare(X).`: the surface syntax has no
        // negated lhs literal, the AST (and the generics compiler) does.
        let side = |body: &str| {
            crate::parser::parse_rule(&format!("x(X) <- {body}."))
                .unwrap()
                .body
        };
        program.statements.push(Statement::Constraint(Constraint {
            lhs: side("item(X), !owner(X)"),
            rhs: side("spare(X)"),
        }));
        let mut ws = Workspace::new();
        ws.install_program(&program).unwrap();
        ws.fixpoint().unwrap();
        let before = contents(&ws);
        // Removing an rhs witness, and removing what a negated lhs literal
        // excluded, are both refused and rolled back...
        for (pred, tuple) in [("r", vec![Value::Int(1)]), ("owner", vec![s("a")])] {
            let error = ws.retract(vec![(pred.into(), tuple)]).unwrap_err();
            assert!(
                matches!(error, DatalogError::ConstraintViolation(_)),
                "{error}"
            );
            assert_eq!(contents(&ws), before);
        }
        // ...a witness nothing needs goes, and a removal no constraint reads
        // re-checks none: its commit examines no stored row.
        ws.retract(vec![("r".into(), vec![Value::Int(2)])]).unwrap();
        let examined = ws.plan_stats().rows_examined;
        let probes = ws.plan_stats().index_probes;
        ws.retract(vec![("other".into(), vec![s("z")])]).unwrap();
        assert_eq!(ws.plan_stats().rows_examined, examined);
        assert_eq!(ws.plan_stats().index_probes, probes);
    }

    #[test]
    fn a_chord_withdrawal_runs_every_proof_join_in_id_space() {
        // The REACH application's rules and constraints over a ring of
        // eight with two chords, links local and remote.
        let mut ws = Workspace::new();
        ws.install_source(
            "link(N1, N2) -> node(N1), node(N2).\n\
             remote_link(N1, N2) -> node(N1), node(N2).\n\
             reach(N1, N2) -> node(N1), node(N2).\n\
             reach(X, Y) <- link(X, Y).\n\
             reach(X, Y) <- remote_link(X, Y).\n\
             reach(X, Z) <- reach(X, Y), reach(Y, Z).",
        )
        .unwrap();
        let node = |i: usize| s(&format!("n{i}"));
        let edge = |pred: &str, a: usize, b: usize| (pred.to_string(), vec![node(a), node(b)]);
        let pred = |a: usize| if a == 0 { "link" } else { "remote_link" };
        let mut batch: Vec<(String, Tuple)> = (0..8)
            .map(|i| ("node".to_string(), vec![node(i)]))
            .collect();
        for (a, b) in (0..8).map(|i| (i, (i + 1) % 8)).chain([(0, 4), (2, 6)]) {
            batch.push(edge(pred(a), a, b));
            batch.push(edge(pred(b), b, a));
        }
        ws.transaction(batch).unwrap();
        assert_eq!(ws.count("reach"), 64);
        let before = ws.plan_stats();
        let commit = ws
            .retract(vec![edge("link", 0, 4), edge("remote_link", 4, 0)])
            .unwrap();
        assert!(commit.checked > 0, "{commit:?}");
        assert_eq!(ws.count("reach"), 64);
        let after = ws.plan_stats();
        assert_eq!(after.constraint_full_checks, before.constraint_full_checks);
        assert_eq!(after.proof_joins_tuple, before.proof_joins_tuple);
        assert!(after.proof_joins_batch > before.proof_joins_batch);
    }

    #[test]
    fn commits_report_their_deltas_in_an_order_the_input_fixes() {
        // Two workspaces, one program, one sequence of batches: every map
        // behind a `Commit` hashes with the one fixed hasher, so the deltas
        // iterate alike — per predicate and within each predicate.
        fn in_order(delta: &FactDelta) -> Vec<(String, Vec<Tuple>)> {
            delta
                .iter()
                .map(|(pred, tuples)| (pred.clone(), tuples.iter().cloned().collect()))
                .collect()
        }
        let run = || {
            let mut ws = Workspace::new();
            ws.install_source(
                "reachable(X, Y) <- link(X, Y).\n\
                 reachable(X, Y) <- link(X, Z), reachable(Z, Y).\n\
                 hub(X) <- link(X, Y), link(X, Z), Y != Z.\n\
                 twin(X, Y) <- reachable(X, Y), reachable(Y, X).",
            )
            .unwrap();
            let link = |x: usize, y: usize| {
                (
                    "link".to_string(),
                    vec![s(&format!("n{x}")), s(&format!("n{y}"))],
                )
            };
            let mut seen = Vec::new();
            for chunk in (0..24).collect::<Vec<_>>().chunks(6) {
                let batch = chunk
                    .iter()
                    .flat_map(|&i| [link(i, i + 1), link(i + 1, i)])
                    .collect();
                let commit = ws.transaction(batch).unwrap();
                seen.push((in_order(&commit.added), in_order(&commit.removed)));
            }
            let commit = ws.retract(vec![link(12, 13), link(5, 6)]).unwrap();
            seen.push((in_order(&commit.added), in_order(&commit.removed)));
            seen
        };
        let (first, second) = (run(), run());
        assert!(first.iter().map(|(added, _)| added.len()).sum::<usize>() > 4);
        assert_eq!(first, second);
    }

    #[test]
    fn a_retraction_removes_in_an_order_the_input_fixes() {
        // Two workspaces, one retraction: the facts it removes come back in
        // the same order, and the rows left behind sit in the same order.
        let run = || {
            let mut ws = Workspace::new();
            ws.install_source(
                "reach(X, Y) <- link(X, Y).\n\
                 reach(X, Z) <- reach(X, Y), reach(Y, Z).\n\
                 hub(X) <- link(X, Y), link(X, Z), Y != Z.",
            )
            .unwrap();
            let link = |x: usize, y: usize| {
                (
                    "link".to_string(),
                    vec![s(&format!("n{x}")), s(&format!("n{y}"))],
                )
            };
            let ring = (0..8).flat_map(|i| [link(i, (i + 1) % 8), link((i + 1) % 8, i)]);
            let chords = [link(0, 4), link(4, 0), link(2, 6), link(6, 2)];
            ws.transaction(ring.chain(chords).collect()).unwrap();
            let commit = ws
                .retract(vec![link(0, 4), link(4, 0), link(3, 4), link(4, 3)])
                .unwrap();
            assert!(commit.over_deleted > 0 && commit.checked > 0);
            let removed: Vec<(String, Vec<Tuple>)> = commit
                .removed
                .iter()
                .map(|(pred, tuples)| (pred.clone(), tuples.iter().cloned().collect()))
                .collect();
            let rows: Vec<(String, Vec<Tuple>)> = ["link", "reach", "hub"]
                .into_iter()
                .map(|pred| (pred.into(), ws.relation(pred).unwrap().iter().collect()))
                .collect();
            (removed, rows)
        };
        assert_eq!(run(), run());
    }

    /// The non-empty relations of a workspace built from scratch: `source`
    /// installed, `facts` asserted, one fixpoint.
    fn from_scratch(source: &str, facts: &[(&str, Tuple)]) -> Vec<(String, Vec<Tuple>)> {
        let mut ws = Workspace::new();
        ws.set_strict_typing(false);
        ws.install_source(source).unwrap();
        for (pred, tuple) in facts {
            ws.assert_fact(pred, tuple.clone()).unwrap();
        }
        ws.fixpoint().unwrap();
        non_empty(&ws)
    }

    fn non_empty(ws: &Workspace) -> Vec<(String, Vec<Tuple>)> {
        let mut relations = contents(ws);
        relations.retain(|(_, tuples)| !tuples.is_empty());
        relations
    }

    #[test]
    fn a_singleton_read_in_an_atom_waits_for_the_rule_deriving_it() {
        // `cfg[]` is derived: its rule must run before the one reading it.
        let source = "cfg[] = V <- setting(V).\n\
                      out(Y) <- edge(cfg[], Y).";
        let edges = [
            ("edge", vec![s("a"), s("b")]),
            ("edge", vec![s("c"), s("d")]),
        ];
        let mut ws = Workspace::new();
        ws.install_source(source).unwrap();
        let mut batch: Vec<(String, Tuple)> = edges
            .iter()
            .map(|(pred, tuple)| (pred.to_string(), tuple.clone()))
            .collect();
        batch.push(("setting".into(), vec![s("a")]));
        ws.transaction(batch).unwrap();
        assert_eq!(ws.query("out"), vec![vec![s("b")]]);
        let mut facts = edges.to_vec();
        facts.push(("setting", vec![s("a")]));
        assert_eq!(non_empty(&ws), from_scratch(source, &facts));
        // A new setting, and the read follows it: the old value's `out` goes.
        ws.retract(vec![("setting".into(), vec![s("a")])]).unwrap();
        assert!(ws.query("out").is_empty());
        ws.transaction(vec![("setting".into(), vec![s("c")])])
            .unwrap();
        assert_eq!(ws.query("out"), vec![vec![s("d")]]);
        facts.pop();
        facts.push(("setting", vec![s("c")]));
        assert_eq!(non_empty(&ws), from_scratch(source, &facts));
    }

    #[test]
    fn a_singleton_read_in_a_comparison_is_a_bound_operand() {
        let source = "cfg[] = V <- setting(V).\n\
                      out(X) <- item(X), X = cfg[].";
        let items = [("item", vec![s("a")]), ("item", vec![s("b")])];
        let batch = |facts: &[(&str, Tuple)]| -> Vec<(String, Tuple)> {
            facts
                .iter()
                .map(|(pred, tuple)| (pred.to_string(), tuple.clone()))
                .collect()
        };
        // Unset, the comparison has nothing to compare: no match, no error.
        let mut ws = Workspace::new();
        ws.install_source(source).unwrap();
        ws.transaction(batch(&items)).unwrap();
        assert!(ws.query("out").is_empty());
        assert_eq!(non_empty(&ws), from_scratch(source, &items));
        // Derived in the same commit as what it filters.
        let mut facts = items.to_vec();
        facts.push(("setting", vec![s("b")]));
        let mut ws = Workspace::new();
        ws.install_source(source).unwrap();
        ws.transaction(batch(&facts)).unwrap();
        assert_eq!(ws.query("out"), vec![vec![s("b")]]);
        assert_eq!(non_empty(&ws), from_scratch(source, &facts));
    }

    #[test]
    fn a_singleton_only_the_rhs_reads_is_a_witness_the_check_follows() {
        // `me[]` is read on the right only: unset, no `p` fact has its
        // witness; set, the commit holds; withdrawn, the witness goes and
        // the retraction is refused like any other.
        let mut ws = Workspace::new();
        ws.install_source("p(X) -> q(X, me[]).\nq(1, n0).").unwrap();
        ws.fixpoint().unwrap();
        let p = || vec![("p".to_string(), vec![Value::Int(1)])];
        let refused = |result: Result<Commit>| {
            let error = result.unwrap_err();
            assert!(
                matches!(error, DatalogError::ConstraintViolation(_)),
                "{error}"
            );
        };
        refused(ws.transaction(p()));
        ws.set_singleton("me", s("n0")).unwrap();
        ws.transaction(p()).unwrap();
        let before = contents(&ws);
        refused(ws.retract(vec![("me".into(), vec![s("n0")])]));
        assert_eq!(contents(&ws), before);
    }

    #[test]
    fn an_unset_singleton_read_in_a_negation_or_only_in_the_head_matches_nothing() {
        // Lifted, both reads need `me`'s row: while it is unset the negated
        // read leaves no body solution — it is not a wildcard — and the
        // head-only read derives nothing, without an `unsafe rule` error.
        let mut ws = Workspace::new();
        ws.install_source(
            "free(Y) <- slot(Y), !b(me[], Y).\n\
             mine(me[], Y) <- slot(Y).\n\
             b(n1, 1).",
        )
        .unwrap();
        let slots = (1..=2).map(|i| ("slot".to_string(), vec![Value::Int(i)]));
        ws.transaction(slots.collect()).unwrap();
        assert!(ws.query("free").is_empty());
        assert!(ws.query("mine").is_empty());
        ws.set_singleton("me", s("n1")).unwrap();
        ws.fixpoint().unwrap();
        assert_eq!(ws.query("free"), vec![vec![Value::Int(2)]]);
        assert_eq!(
            ws.query("mine"),
            vec![vec![s("n1"), Value::Int(1)], vec![s("n1"), Value::Int(2)]]
        );
    }

    #[test]
    fn withdrawing_a_singleton_reaches_the_facts_read_through_it() {
        // ROADMAP item 15's repro: `near` reads `me[]`, and withdrawing
        // `me`'s fact — with `near(n3)` or alone — must leave what a
        // from-scratch evaluation of the remaining facts holds.
        let source = "cost[X, Y] = C -> node(X), node(Y), int(C).\n\
                      reach(X, Y) <- cost[X, Y] = _.\n\
                      reach(X, Y) <- cost[X, Z] = _, reach(Z, Y).\n\
                      best[X] = C <- agg<< C = min(Cx) >> cost[X, _] = Cx.\n\
                      near(X) <- reach(me[], X).";
        let nodes: Vec<(&str, Tuple)> = (0..4)
            .map(|i| ("node", vec![s(&format!("n{i}"))]))
            .collect();
        let cost = ("cost", vec![s("n0"), s("n3"), Value::Int(2)]);
        let near = ("near".to_string(), vec![s("n3")]);
        let me = ("me".to_string(), vec![s("n0")]);
        for withdrawn in [vec![me.clone(), near.clone()], vec![me.clone()]] {
            let mut ws = Workspace::new();
            ws.set_strict_typing(false);
            ws.install_source(source).unwrap();
            for (pred, tuple) in &nodes {
                ws.assert_fact(pred, tuple.clone()).unwrap();
            }
            ws.set_singleton("me", s("n0")).unwrap();
            ws.transaction(vec![(cost.0.into(), cost.1.clone()), near.clone()])
                .unwrap();
            assert_eq!(ws.query("near"), vec![vec![s("n3")]]);
            let oracle = {
                let mut oracle = ws.clone();
                oracle.retract_rederiving(withdrawn.clone()).unwrap();
                non_empty(&oracle)
            };
            ws.retract(withdrawn.clone()).unwrap();
            // `near(n3)` stays asserted when only `me` is withdrawn.
            let mut facts = nodes.clone();
            facts.push(cost.clone());
            if withdrawn.len() == 1 {
                facts.push(("near", vec![s("n3")]));
            }
            let expected = from_scratch(source, &facts);
            assert_eq!(non_empty(&ws), expected, "withdrawing {withdrawn:?}");
            assert_eq!(oracle, expected, "re-derived, withdrawing {withdrawn:?}");
        }
    }

    #[test]
    fn wildcard_in_a_rule_head_is_an_eval_error() {
        for use_planner in [true, false] {
            let mut ws = Workspace::with_config(EvalConfig {
                use_planner,
                ..EvalConfig::default()
            });
            ws.install_source("p(X, _) <- q(X).").unwrap();
            let err = ws
                .transaction(vec![("q".into(), vec![s("a")])])
                .unwrap_err();
            assert!(
                matches!(err, DatalogError::Eval(_)),
                "planner={use_planner}: {err:?}"
            );
            assert_eq!(ws.count("q"), 0, "planner={use_planner}: rolled back");
        }
    }

    #[test]
    fn clear_relation_empties_outbox() {
        let mut ws = Workspace::new();
        ws.install_source("export(n1, payload).").unwrap();
        assert_eq!(ws.count("export"), 1);
        ws.clear_relation("export");
        assert_eq!(ws.count("export"), 0);
    }
}
