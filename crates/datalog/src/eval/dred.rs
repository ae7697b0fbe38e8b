//! Incremental deletion: the backward/forward (B/F) algorithm.
//!
//! A retraction removes what its named facts no longer justify.  LogicBlox
//! keeps derived relations current under deletion with DRed (paper §2): it
//! deletes every tuple with *some* derivation through a deleted one, then
//! re-derives the survivors with a fixpoint run.  On a transitive closure
//! that is most of the closure, to remove a handful.  This module follows the
//! backward/forward algorithm of Motik, Nenov, Piro and Horrocks ("Incremental
//! Update of Datalog Materialisation", AAAI 2015) instead: a fact a deletion
//! reaches goes only when a proof search over the facts still stored finds
//! no derivation of it.  Nothing is removed and put back.
//!
//! * **Forward.**  The deleted frontier is the delta set of
//!   `Evaluator::evaluate_round`: every `(rule, positive literal)` over it,
//!   pinned to it, against the relations earlier frontiers have already
//!   left — the fixpoint's own evaluator, batch executor where the rule
//!   allows it.  Every stored head it derives is a candidate.  Then the
//!   frontier is removed, so a deleted fact never drives a later probe, join
//!   or UDF call.
//! * **Backward.**  A candidate is searched from its rules' heads down: each
//!   rule runs from the candidate ([`PlanKey::Proof`] plans the body under
//!   the head's variables), and the stored facts each solution used are
//!   searched in turn, depth first.  A proof join runs in the batch executor
//!   from the fact's ids (`ProofJob`: a one-row frame, a `TupleId` trail),
//!   or tuple at a time from its values for a rule with a UDF, a comparison
//!   or a functional lookup (a singleton read among them); ahead of either,
//!   the plan's first probe in id space (`FirstProbe`) skips a rule with
//!   no instance.  A fact is *proved* when it is
//!   asserted, or when every body fact of one of its rule instances is
//!   proved; instances wait with a count of unproved body facts, so a fact
//!   proved late proves what waited on it (B/F's saturation), recursion
//!   included.  A search ends when its root is proved or nothing is left to
//!   search; every fact it reached and left unproved then has no derivation
//!   from the remaining asserted facts, and goes when it is a candidate.
//! * **What the search cannot decide** keeps DRed's semantics inside the same
//!   pass.  A predicate derived by an aggregate, a head-existential or a
//!   negating rule, or by a rule reading such a predicate
//!   (`Upkeep::Rerun`), has its facts deleted without a check when a
//!   deletion reaches them.  The naive fixpoint re-run then puts back what
//!   still holds; it runs only when such a fact went or a predicate some rule
//!   negates lost a tuple.
//!
//! The over-delete / re-derive pass is kept below as
//! [`Evaluator::delete_by_rederivation`], the property tests' oracle for the
//! programs that need the re-run.

use super::batch::{compiled_proof, proof_job, Exec, Job, ProofJob};
use super::bindings::{eval_term, Bindings};
use super::join::{JoinContext, Trail};
use super::plan::{is_membership, PlanKey, RulePlan};
use super::runtime_pred_name;
use super::seminaive::{delta_combos, Commit, Derivation, Evaluator, FactDelta};
use crate::ast::{Atom, Literal, Rule, Term};
use crate::error::Result;
use crate::intern::{FnvMap, FnvSet, Interner};
use crate::relation::{ColumnSet, Relation, Relations, TupleId};
use crate::strata::{Deletion, RuleSet, Upkeep};
use crate::value::Tuple;
use std::sync::Arc;

/// Where a fact stands in one retraction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Status {
    /// Not asked about yet.
    Open,
    /// Searched and not proved.  Once the search that reached it has
    /// ended, that means it has no derivation.
    Searched,
    /// Asserted, or derived from proved facts.
    Proved,
    /// Decided to go: in the current frontier or already removed.
    Deleted,
}

/// A stored fact: predicate number and row.  Nothing is inserted while a
/// retraction runs and removal leaves the other rows' ids alone, so the pair
/// names the same fact throughout.
#[derive(Debug, Clone, Copy)]
struct Fact {
    pred: u32,
    id: TupleId,
    status: Status,
}

/// B/F's sets for one retraction, kept across its frontiers: every fact it
/// met with its status, the rule instances still waiting for body facts, and
/// the instances each fact is a body fact of.
struct Search<'p> {
    deletion: &'p Deletion,
    /// Predicates no rule mentions that the batch named, numbered after the
    /// rules' own.
    unmentioned: Vec<String>,
    facts: Vec<Fact>,
    at: FnvMap<u64, u32>,
    /// Per waiting instance: its head and how many body facts are unproved.
    waiting: Vec<(u32, u32)>,
    /// Per fact: the waiting instances it is a body fact of.
    uses: Vec<Vec<u32>>,
    /// Facts whose derivations were searched.
    searched: usize,
    /// Per prover ([`Deletion::prover`]), how to run it backwards, once
    /// a search needs it.
    provers: Vec<Option<Prover>>,
    /// Scratch: the searched fact's id row, the substitution and trail a
    /// proof join runs on, the facts each of its solutions used, back to
    /// back (`ends` splits them), and one instance's unproved facts.
    row: Vec<u32>,
    bindings: Bindings,
    trail: Trail,
    used: Vec<(u32, TupleId)>,
    ends: Vec<usize>,
    body: Vec<u32>,
}

/// A rule run backwards from one of its head atoms, for one retraction.
struct Prover {
    key: PlanKey,
    plan: Option<Arc<RulePlan>>,
    /// When the plan opens with a probe whose key is head values and
    /// constants: an empty bucket means no instance, and the join is
    /// skipped.  Most facts a deletion reaches on a chain fail there.
    first: Option<FirstProbe>,
    /// The batch job slot beside the plan, taken from the plan cache for the
    /// retraction and put back after it ([`Evaluator::delete`]).
    slot: Option<Job>,
    /// The predicate of each literal on the proof job's trail, when the
    /// batch executor runs the body.  `None` for a rule it declines (a
    /// negation, a comparison, a UDF that binds an output): the tuple path
    /// runs it.
    preds: Option<Vec<u32>>,
}

impl Prover {
    /// The body in id space beside its trail's predicates, when the batch
    /// executor runs it.
    fn job(&mut self) -> Option<(&mut ProofJob, &[u32])> {
        Some((compiled_proof(&mut self.slot)?, self.preds.as_deref()?))
    }
}

/// The first step of a proof plan as an id-space lookup keyed by the
/// searched fact's row.
struct FirstProbe {
    pred: String,
    cols: ColumnSet,
    /// Per key column: the head position that fills it, or the constant's
    /// id (`None`: a constant in no relation, so nothing can match).
    key: Vec<Option<KeyId>>,
    /// The key is the whole row: a membership test.
    member: bool,
}

#[derive(Clone, Copy)]
enum KeyId {
    Head(usize),
    Const(u32),
}

impl FirstProbe {
    fn of(rule: &Rule, head: &Atom, plan: &RulePlan, interner: &Interner) -> Option<FirstProbe> {
        let step = plan.order.first()?;
        let cols = step.probe?;
        let Literal::Pos(atom) = &rule.body[step.literal] else {
            return None;
        };
        let mut key = Vec::new();
        for (position, term) in atom.terms.iter().enumerate() {
            if position >= 64 || cols & (1 << position) == 0 {
                continue;
            }
            key.push(match term {
                Term::Var(var) => Some(KeyId::Head(
                    head.terms
                        .iter()
                        .position(|term| matches!(term, Term::Var(v) if v == var))?,
                )),
                Term::Const(value) => interner.try_id(value).map(KeyId::Const),
                _ => return None,
            });
        }
        Some(FirstProbe {
            pred: runtime_pred_name(&atom.pred).ok()?.into_owned(),
            cols,
            member: is_membership(atom.terms.len(), cols),
            key,
        })
    }

    /// Whether a stored tuple can match for the fact whose id row is `row`
    /// (a `true` may be a hash collision; the join decides).
    fn may_match(&self, row: &[u32], relations: &Relations) -> bool {
        const SHORT: usize = 8;
        let Some(relation) = relations.get(&self.pred) else {
            return false;
        };
        if self.key.len() > SHORT {
            return true;
        }
        let mut buffer = [0u32; SHORT];
        for (slot, source) in buffer.iter_mut().zip(&self.key) {
            *slot = match source {
                Some(KeyId::Head(position)) => match row.get(*position) {
                    Some(&id) => id,
                    None => return false,
                },
                Some(KeyId::Const(id)) => *id,
                None => return false,
            };
        }
        let key = &buffer[..self.key.len()];
        if self.member {
            return relation.find_row(key).is_some();
        }
        relation
            .probe_ids(self.cols, key)
            .is_none_or(|bucket| !bucket.is_empty())
    }
}

impl<'p> Search<'p> {
    fn new(deletion: &'p Deletion) -> Self {
        Search {
            deletion,
            unmentioned: Vec::new(),
            facts: Vec::new(),
            at: FnvMap::default(),
            waiting: Vec::new(),
            uses: Vec::new(),
            searched: 0,
            provers: (0..deletion.prover_count()).map(|_| None).collect(),
            row: Vec::new(),
            bindings: Bindings::new(),
            trail: Trail::default(),
            used: Vec::new(),
            ends: Vec::new(),
            body: Vec::new(),
        }
    }

    fn pred_id(&mut self, pred: &str) -> u32 {
        if let Some(id) = self.deletion.id(pred) {
            return id;
        }
        let offset = match self.unmentioned.iter().position(|name| name == pred) {
            Some(offset) => offset,
            None => {
                self.unmentioned.push(pred.to_string());
                self.unmentioned.len() - 1
            }
        };
        (self.deletion.len() + offset) as u32
    }

    fn name(&self, pred: u32) -> &str {
        match (pred as usize).checked_sub(self.deletion.len()) {
            Some(offset) => &self.unmentioned[offset],
            None => self.deletion.name(pred),
        }
    }

    /// `None` for a predicate no rule mentions, which is maintained like
    /// [`Upkeep::Base`].
    fn upkeep(&self, pred: u32) -> Option<&'p Upkeep> {
        let deletion = self.deletion;
        ((pred as usize) < deletion.len()).then(|| deletion.upkeep(pred))
    }

    fn negated(&self, pred: u32) -> bool {
        (pred as usize) < self.deletion.len() && self.deletion.negated(pred)
    }

    fn pred(&self, fact: u32) -> u32 {
        self.facts[fact as usize].pred
    }

    fn status(&self, fact: u32) -> Status {
        self.facts[fact as usize].status
    }

    /// The fact stored as row `id` of `pred`, met now or before; `true` when
    /// it is new.  An asserted fact is proved when first met.
    fn fact(&mut self, pred: u32, id: TupleId, relations: &Relations) -> (u32, bool) {
        let key = (u64::from(pred) << 32) | u64::from(id);
        if let Some(&fact) = self.at.get(&key) {
            return (fact, false);
        }
        let asserted = relations
            .get(self.name(pred))
            .is_some_and(|relation| relation.is_asserted(id));
        let fact = self.facts.len() as u32;
        self.facts.push(Fact {
            pred,
            id,
            status: if asserted {
                Status::Proved
            } else {
                Status::Open
            },
        });
        self.uses.push(Vec::new());
        self.at.insert(key, fact);
        (fact, true)
    }

    /// `fact` is proved, and so is every waiting head whose last unproved
    /// body fact that was.
    fn saturate(&mut self, fact: u32) {
        let mut queue = vec![fact];
        while let Some(fact) = queue.pop() {
            let status = &mut self.facts[fact as usize].status;
            if *status == Status::Proved {
                continue;
            }
            debug_assert_ne!(*status, Status::Deleted, "a deleted fact has no derivation");
            *status = Status::Proved;
            for instance in std::mem::take(&mut self.uses[fact as usize]) {
                let (head, missing) = &mut self.waiting[instance as usize];
                *missing -= 1;
                if *missing == 0 {
                    queue.push(*head);
                }
            }
        }
    }

    /// Record every instance of prover `prover` (run as `proof`) whose head
    /// is `fact`, stored as `stored` with id row `self.row`: the batch
    /// executor runs the body from the fact's ids where the rule allows it,
    /// the tuple path from its values otherwise, and either hands back the
    /// stored facts each instance used.
    fn instances(
        &mut self,
        program: &RuleSet,
        (prover, proof): (u32, &mut Prover),
        (fact, stored): (u32, Stored<'_>),
        join: JoinContext<'_>,
        exec: Exec<'_>,
        open: &mut Vec<u32>,
    ) -> Result<()> {
        let stats = exec.stats;
        let deletion = self.deletion;
        let (rule_index, head) = deletion.prover(prover);
        let rule = &program.rules()[rule_index];
        let relations = join.relations;
        let (mut used, mut ends) = (
            std::mem::take(&mut self.used),
            std::mem::take(&mut self.ends),
        );
        used.clear();
        ends.clear();
        match proof.job() {
            Some((job, preds)) => {
                stats.borrow_mut().proof_joins_batch += 1;
                let instances = job.run(&self.row, exec)?;
                for trail in instances.iter() {
                    used.extend(preds.iter().copied().zip(trail.iter().copied()));
                    ends.push(used.len());
                }
                #[cfg(debug_assertions)]
                self.debug_verify_proof(rule, head, proof, stored, join, exec)?;
            }
            None => {
                stats.borrow_mut().proof_joins_tuple += 1;
                let body_pred = |literal| {
                    let pred = deletion.body_pred(rule_index, literal);
                    pred.expect("a stored literal is a positive atom")
                };
                self.tuple_instances(rule, head, proof.plan.as_deref(), stored, join, |trail| {
                    used.extend(trail.iter().map(|&(literal, id)| (body_pred(literal), id)));
                    ends.push(used.len());
                })?;
            }
        }
        let mut start = 0;
        for &end in &ends {
            self.record(fact, &used[start..end], relations, open);
            start = end;
        }
        (self.used, self.ends) = (used, ends);
        Ok(())
    }

    /// The instances of head atom `head` of `rule` whose head is the stored
    /// fact `stored`, tuple at a time: the body runs from the head's values
    /// on `join`, and `each` gets the trail of every solution — `(body
    /// literal, TupleId)` per stored literal, in plan order.
    fn tuple_instances(
        &mut self,
        rule: &Rule,
        head: usize,
        plan: Option<&RulePlan>,
        stored: Stored<'_>,
        join: JoinContext<'_>,
        mut each: impl FnMut(&[(usize, TupleId)]),
    ) -> Result<()> {
        let atom = &rule.head[head];
        let bindings = &mut self.bindings;
        bindings.restore(0);
        let Some(check_after) = bind_head(atom, stored, bindings) else {
            return Ok(());
        };
        let trail = &self.trail;
        let mut collect = |solution: &Bindings| {
            if !check_after || head_matches(atom, solution, stored)? {
                each(&trail.borrow());
            }
            Ok(())
        };
        let join = join.with_trail(trail);
        match plan {
            Some(plan) => join.join_planned(&rule.body, plan, None, bindings, &mut collect),
            None => join.join(&rule.body, None, bindings, &mut collect),
        }
    }

    /// Debug-build check of a batch proof join: its instances, as
    /// `(literal, TupleId)` lists, are the tuple path's (both as sets).
    #[cfg(debug_assertions)]
    fn debug_verify_proof(
        &mut self,
        rule: &Rule,
        head: usize,
        proof: &mut Prover,
        stored: Stored<'_>,
        join: JoinContext<'_>,
        exec: Exec<'_>,
    ) -> Result<()> {
        let Some((job, _)) = proof.job() else {
            return Ok(());
        };
        let literals: Vec<usize> = job.literals().collect();
        let scratch = super::plan::StatsCell::default();
        let exec = Exec {
            stats: &scratch,
            ..exec
        };
        let mut batch: Vec<Vec<(usize, TupleId)>> = job
            .run(&self.row, exec)?
            .iter()
            .map(|trail| {
                literals
                    .iter()
                    .copied()
                    .zip(trail.iter().copied())
                    .collect()
            })
            .collect();
        let mut tuple_path = Vec::new();
        let join = JoinContext::new(join.relations, join.udfs, &scratch);
        self.tuple_instances(rule, head, proof.plan.as_deref(), stored, join, |trail| {
            tuple_path.push(trail.to_vec())
        })?;
        batch.sort_unstable();
        tuple_path.sort_unstable();
        debug_assert_eq!(
            batch, tuple_path,
            "batch proof join diverged from tuple-at-a-time for rule `{rule}`"
        );
        Ok(())
    }

    /// One rule instance of `head` whose body used `body`: proves `head` if
    /// every body fact is proved, waits otherwise.  Body facts never asked
    /// about go on `open`, for the search to descend into.
    fn record(
        &mut self,
        head: u32,
        body: &[(u32, TupleId)],
        relations: &Relations,
        open: &mut Vec<u32>,
    ) {
        let mut unproved = std::mem::take(&mut self.body);
        unproved.clear();
        for &(pred, id) in body {
            let (fact, _) = self.fact(pred, id, relations);
            match self.status(fact) {
                Status::Proved => {}
                // Never proved: the instance cannot complete.
                Status::Deleted => {
                    unproved.clear();
                    self.body = unproved;
                    return;
                }
                _ => unproved.push(fact),
            }
        }
        if unproved.is_empty() {
            self.saturate(head);
        } else {
            let instance = self.waiting.len() as u32;
            self.waiting.push((head, unproved.len() as u32));
            for &fact in &unproved {
                self.uses[fact as usize].push(instance);
                if self.facts[fact as usize].status == Status::Open {
                    open.push(fact);
                }
            }
        }
        self.body = unproved;
    }
}

impl<'a> Evaluator<'a> {
    /// Delete `base_deletions` and maintain every derived relation (module
    /// docs).  Fills the deletion counters of the returned [`Commit`]; its
    /// deltas are the caller's to read off the journal.
    ///
    /// The caller has cleared the named facts' asserted bits; a fact still
    /// asserted is proved, so it is never deleted.
    pub fn delete(
        &mut self,
        program: &RuleSet,
        base_deletions: &[(String, Tuple)],
    ) -> Result<Commit> {
        let mut stats = Commit::default();
        let mut search = Search::new(program.deletion());
        let mut candidates: Vec<u32> = Vec::new();
        for (pred, tuple) in base_deletions {
            let Some(id) = self.relations.get(pred).and_then(|r| r.find(tuple)) else {
                continue;
            };
            let pred = search.pred_id(pred);
            if let (fact, true) = search.fact(pred, id, self.relations) {
                candidates.push(fact);
            }
        }
        // The named facts are the first facts met.
        stats.base_deleted = candidates.len();
        if stats.base_deleted == 0 {
            return Ok(stats);
        }

        let mut rerun = false;
        while !candidates.is_empty() {
            let mut frontier: Vec<u32> = Vec::new();
            for fact in std::mem::take(&mut candidates) {
                if self.unprovable(program, &mut search, fact)? {
                    search.facts[fact as usize].status = Status::Deleted;
                    frontier.push(fact);
                }
            }
            if frontier.is_empty() {
                break;
            }
            let mut gone = FactDelta::default();
            for run in frontier.chunk_by(|&a, &b| search.pred(a) == search.pred(b)) {
                let name = search.name(search.pred(run[0]));
                let relation = &self.relations[name];
                let tuples = run
                    .iter()
                    .map(|&fact| relation.tuple(search.facts[fact as usize].id));
                gone.entry(name.to_string()).or_default().extend(tuples);
            }
            candidates = self.consequences(program, &mut search, &gone)?;
            stats.over_deleted += frontier
                .iter()
                .filter(|&&f| f as usize >= stats.base_deleted)
                .count();
            for run in frontier.chunk_by(|&a, &b| search.pred(a) == search.pred(b)) {
                let pred = search.pred(run[0]);
                rerun |= search.upkeep(pred) == Some(&Upkeep::Rerun) || search.negated(pred);
                let name = search.name(pred);
                let relation = self
                    .relations
                    .get_mut(name)
                    .expect("a deleted fact is stored");
                let removed = run
                    .iter()
                    .map(|&fact| relation.remove_id(search.facts[fact as usize].id));
                self.journal.record_removals(name, removed);
            }
        }
        stats.checked = search.searched;
        // The provers' jobs go back beside their plans for the next
        // retraction; an error above leaves them to be compiled again.
        for prover in search.provers.into_iter().flatten() {
            if let Some(plan) = &prover.plan {
                self.plan_cache.put_job(prover.key, plan, prover.slot);
            }
        }

        if rerun {
            let before: usize = self.relations.values().map(Relation::len).sum();
            self.run(program)?;
            let after: usize = self.relations.values().map(Relation::len).sum();
            stats.rederived = after.saturating_sub(before);
        }
        Ok(stats)
    }

    /// Whether candidate `fact` goes: it is not asserted and, where a search
    /// can decide it, has no derivation.
    fn unprovable(&mut self, program: &RuleSet, search: &mut Search, fact: u32) -> Result<bool> {
        Ok(match search.status(fact) {
            Status::Proved | Status::Deleted => false,
            Status::Searched => true,
            Status::Open => match search.upkeep(search.facts[fact as usize].pred) {
                Some(Upkeep::Proved(_)) => !self.prove(program, search, fact)?,
                _ => true,
            },
        })
    }

    /// B/F's check of `root`, depth first: each fact's rule instances are
    /// recorded before any of their body facts is searched, and a fact is
    /// left once it is proved or all its body facts have been asked about.
    fn prove(&mut self, program: &RuleSet, search: &mut Search, root: u32) -> Result<bool> {
        let mut stack: Vec<(u32, Vec<u32>, usize)> = match self.expand(program, search, root)? {
            Some(open) if !open.is_empty() => vec![(root, open, 0)],
            _ => return Ok(search.status(root) == Status::Proved),
        };
        while let Some((fact, open, next)) = stack.last_mut() {
            if search.status(*fact) == Status::Proved || *next == open.len() {
                stack.pop();
                continue;
            }
            let body = open[*next];
            *next += 1;
            if search.status(body) == Status::Open {
                if let Some(open) = self.expand(program, search, body)? {
                    stack.push((body, open, 0));
                }
            }
        }
        Ok(search.status(root) == Status::Proved)
    }

    /// Search `fact`'s derivations one level: record the instances of every
    /// rule that can prove it.  Returns the body facts to descend into, or
    /// `None` when it is proved already or has no rule.
    fn expand(
        &mut self,
        program: &RuleSet,
        search: &mut Search,
        fact: u32,
    ) -> Result<Option<Vec<u32>>> {
        search.facts[fact as usize].status = Status::Searched;
        search.searched += 1;
        let Fact { pred, id, .. } = search.facts[fact as usize];
        let provers = match search.upkeep(pred) {
            Some(Upkeep::Proved(provers)) => provers,
            // Proof-searched rules read only proof-searched and base
            // predicates (`Deletion::of`).
            upkeep => {
                debug_assert_ne!(upkeep, Some(&Upkeep::Rerun));
                return Ok(None);
            }
        };
        // Plans and their indexes once per retraction: removals change
        // neither what a plan means nor which indexes exist.
        for &prover in provers {
            if search.provers[prover as usize].is_none() {
                search.provers[prover as usize] = Some(self.prover(program, prover));
            }
        }
        let relations = &*self.relations;
        let relation = &relations[search.name(pred)];
        relation.row_ids(id, &mut search.row);
        let mut open = Vec::new();
        for &prover in provers {
            // The first probe runs ahead of either executor: most facts a
            // deletion reaches on a chain have no instance, and an empty
            // bucket says so for one lookup.
            let mut proof = search.provers[prover as usize]
                .take()
                .expect("prepared above");
            let joined = if proof
                .first
                .as_ref()
                .is_some_and(|first| !first.may_match(&search.row, relations))
            {
                Ok(())
            } else {
                let join = JoinContext::new(relations, self.udfs, self.plan_stats);
                let exec = Exec {
                    relations,
                    udfs: self.udfs,
                    interner: self.interner,
                    stats: self.plan_stats,
                };
                search.instances(
                    program,
                    (prover, &mut proof),
                    (fact, (relation, id)),
                    join,
                    exec,
                    &mut open,
                )
            };
            search.provers[prover as usize] = Some(proof);
            joined?;
            if search.status(fact) == Status::Proved {
                return Ok(None);
            }
        }
        Ok(Some(open))
    }

    /// Prover `prover` ([`Deletion::prover`]) as a search runs it: its plan,
    /// indexes built, the first step's probe in id space, and the batch job
    /// slot beside the plan, its job compiled on first use.
    fn prover(&mut self, program: &RuleSet, prover: u32) -> Prover {
        let deletion = program.deletion();
        let (rule_index, head) = deletion.prover(prover);
        let rule = &program.rules()[rule_index];
        let atom = &rule.head[head];
        let key = PlanKey::Proof {
            rule: rule_index,
            head,
        };
        let plan = self.prepare_plan_for(key, &rule.body, || head_vars(atom));
        let first = plan
            .as_deref()
            .and_then(|plan| FirstProbe::of(rule, atom, plan, self.interner));
        let mut slot = self.plan_cache.take_job(key);
        let preds = plan.as_deref().and_then(|plan| {
            let job = proof_job(
                &mut slot,
                rule,
                head,
                plan,
                self.relations,
                self.udfs,
                self.interner,
                self.plan_stats,
            )?;
            job.literals()
                .map(|literal| deletion.body_pred(rule_index, literal))
                .collect()
        });
        Prover {
            key,
            plan,
            first,
            slot,
            preds,
        }
    }

    /// The forward step: every stored fact a rule derives through `gone` —
    /// the frontier, still stored — is a candidate.  A deletion reaching an
    /// aggregate's body reaches every group of its head.
    fn consequences(
        &mut self,
        program: &RuleSet,
        search: &mut Search,
        gone: &FactDelta,
    ) -> Result<Vec<u32>> {
        let rules = program.rules();
        let combos = delta_combos(rules, &program.all().normal, gone)?;
        let derivations = self.evaluate_round(program, &combos, gone)?;
        let relations = &*self.relations;
        let mut candidates = Vec::new();
        let mut candidate = |pred: u32, id: TupleId, search: &mut Search| {
            let (fact, _) = search.fact(pred, id, relations);
            if matches!(search.status(fact), Status::Open | Status::Searched) {
                candidates.push(fact);
            }
        };
        for derivation in derivations {
            match derivation {
                Derivation::Values(derived) => {
                    for run in derived.chunk_by(|a, b| a.0 == b.0) {
                        let pred = &run[0].0;
                        let Some(relation) = relations.get(&**pred) else {
                            continue;
                        };
                        let pred = search.pred_id(pred);
                        for (_, tuple) in run {
                            if let Some(id) = relation.find(tuple) {
                                candidate(pred, id, search);
                            }
                        }
                    }
                }
                Derivation::Ids(derived) => {
                    for (pred, batch) in &derived {
                        let Some(relation) = relations.get(&**pred) else {
                            continue;
                        };
                        let pred = search.pred_id(pred);
                        for row in batch.iter() {
                            if let Some(id) = relation.find_row(row) {
                                candidate(pred, id, search);
                            }
                        }
                    }
                }
            }
        }
        for &rule_index in &program.all().aggregates {
            if delta_combos(rules, &[rule_index], gone)?.is_empty() {
                continue;
            }
            for atom in &rules[rule_index].head {
                let pred = runtime_pred_name(&atom.pred)?;
                if let Some(relation) = relations.get(&*pred) {
                    let pred = search.pred_id(&pred);
                    for id in relation.ids() {
                        candidate(pred, id, search);
                    }
                }
            }
        }
        Ok(candidates)
    }

    /// The deletion this engine ran before [`Self::delete`]: DRed's
    /// over-delete, remove, re-run.  It removes every tuple with a derivation
    /// through a deleted one (asserted tuples excepted) and runs the whole
    /// program naïvely over what is left.  Kept only as the oracle the
    /// property tests hold [`Self::delete`] to on programs that need the
    /// re-run; nothing in the engine calls it.
    #[doc(hidden)]
    pub fn delete_by_rederivation(
        &mut self,
        program: &RuleSet,
        base_deletions: &[(String, Tuple)],
    ) -> Result<Commit> {
        let rules = program.rules();
        let mut stats = Commit::default();
        let mut deleted = FactDelta::default();
        let mut removal_order: Vec<(String, Tuple)> = Vec::new();
        for (pred, tuple) in base_deletions {
            if self.relations.get(pred).is_some_and(|r| r.contains(tuple))
                && deleted
                    .entry(pred.clone())
                    .or_default()
                    .insert(tuple.clone())
            {
                stats.base_deleted += 1;
                removal_order.push((pred.clone(), tuple.clone()));
            }
        }
        if stats.base_deleted == 0 {
            return Ok(stats);
        }
        // Over-delete against the live relations — the pre-deletion
        // database until the closure is removed.
        let mut frontier = deleted.clone();
        while frontier.values().any(|set| !set.is_empty()) {
            let mut next = FactDelta::default();
            // Every tuple offered is stored; `asserted` is its bit.
            let mut over_delete = |pred: &str, tuple: &Tuple, asserted: bool| {
                if asserted
                    || !deleted
                        .entry(pred.to_string())
                        .or_default()
                        .insert(tuple.clone())
                {
                    return;
                }
                next.entry(pred.to_string())
                    .or_default()
                    .insert(tuple.clone());
                removal_order.push((pred.to_string(), tuple.clone()));
                stats.over_deleted += 1;
            };
            let combos = delta_combos(rules, &program.all().normal, &frontier)?;
            for derivation in self.evaluate_round(program, &combos, &frontier)? {
                let relations = &*self.relations;
                match derivation {
                    Derivation::Values(derived) => {
                        for (pred, tuple) in &derived {
                            let Some(relation) = relations.get(&**pred) else {
                                continue;
                            };
                            if let Some(id) = relation.find(tuple) {
                                over_delete(pred.as_str(), tuple, relation.is_asserted(id));
                            }
                        }
                    }
                    Derivation::Ids(derived) => {
                        for (pred, batch) in &derived {
                            let Some(relation) = relations.get(&**pred) else {
                                continue;
                            };
                            for row in batch.iter() {
                                if let Some(id) = relation.find_row(row) {
                                    let tuple = relation.tuple(id);
                                    over_delete(pred, &tuple, relation.is_asserted(id));
                                }
                            }
                        }
                    }
                }
            }
            for &rule_index in &program.all().aggregates {
                if delta_combos(rules, &[rule_index], &frontier)?.is_empty() {
                    continue;
                }
                for atom in &rules[rule_index].head {
                    let pred = runtime_pred_name(&atom.pred)?;
                    if let Some(relation) = self.relations.get(&*pred) {
                        for id in relation.ids() {
                            over_delete(&pred, &relation.tuple(id), relation.is_asserted(id));
                        }
                    }
                }
            }
            frontier = next;
        }
        for (pred, tuple) in removal_order {
            if let Some(relation) = self.relations.get_mut(&pred) {
                relation.remove(&tuple);
            }
            self.journal.record_removed(&pred, tuple);
        }
        let before: usize = self.relations.values().map(Relation::len).sum();
        self.run(program)?;
        let after: usize = self.relations.values().map(Relation::len).sum();
        stats.rederived = after.saturating_sub(before);
        Ok(stats)
    }
}

/// The variables of a head atom: what a proof search binds before the body
/// runs.
fn head_vars(atom: &Atom) -> FnvSet<String> {
    atom.terms
        .iter()
        .filter_map(|term| match term {
            Term::Var(var) => Some(var.clone()),
            _ => None,
        })
        .collect()
}

/// A stored fact read in place: its relation and row.
type Stored<'r> = (&'r Relation, TupleId);

/// Bind `atom`'s variables to the values of the stored fact.  `None` when no
/// instance can have this head (arity, a constant or a repeated variable
/// disagrees); otherwise whether some term is an expression, so each
/// solution's head must be checked against the fact.
fn bind_head(atom: &Atom, (relation, id): Stored<'_>, bindings: &mut Bindings) -> Option<bool> {
    let row = relation.row(id);
    if atom.terms.len() != row.arity() {
        return None;
    }
    let values = relation.interner().values();
    let mut check_after = false;
    for (col, term) in atom.terms.iter().enumerate() {
        let value = values.get(row.id(col));
        match term {
            Term::Var(var) => {
                if !bindings.bind(var, value.clone()) {
                    return None;
                }
            }
            Term::Const(constant) => {
                if constant != value {
                    return None;
                }
            }
            _ => check_after = true,
        }
    }
    Some(check_after)
}

/// Does `atom` under `solution` project to the stored fact?
fn head_matches(atom: &Atom, solution: &Bindings, (relation, id): Stored<'_>) -> Result<bool> {
    let row = relation.row(id);
    let values = relation.interner().values();
    for (col, term) in atom.terms.iter().enumerate() {
        if eval_term(term, solution)?.as_ref() != Some(values.get(row.id(col))) {
            return Ok(false);
        }
    }
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Rule;
    use crate::eval::plan::{PlanCache, StatsCell};
    use crate::eval::seminaive::ExistentialMemo;
    use crate::eval::{EvalConfig, EvalJournal};
    use crate::intern::Interner;
    use crate::parser::parse_program;
    use crate::schema::Schema;
    use crate::strata::stratify;
    use crate::udf::UdfRegistry;
    use crate::value::Value;
    use std::sync::Arc;

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
                let relation = relations
                    .entry(pred.to_string())
                    .or_insert_with(|| Relation::with_interner(*pred, None, Arc::clone(&interner)));
                let (id, _) = relation.insert_new(tuple).unwrap();
                relation.set_asserted(id, true);
            }
            let mut fixture = Fixture {
                program: RuleSet::new(rules, strata),
                schema,
                udfs,
                relations,
                interner,
                entity_counter: 0,
                memo: ExistentialMemo::default(),
                plan_cache: PlanCache::new(),
                plan_stats: StatsCell::default(),
            };
            fixture.run_fixpoint();
            fixture
        }

        fn run_fixpoint(&mut self) {
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
            evaluator.run(&self.program).unwrap();
        }

        /// Retract one fact; the commit's `removed` is filled from the
        /// journal, as `Workspace::retract` does.
        fn delete(&mut self, pred: &str, tuple: Vec<Value>) -> Commit {
            let config = EvalConfig::default();
            let mut journal = EvalJournal::default();
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
                journal: &mut journal,
                bindings: &mut Bindings::new(),
            };
            // The named fact is no longer asserted.
            if let Some(relation) = evaluator.relations.get_mut(pred) {
                if let Some(id) = relation.find(&tuple) {
                    relation.set_asserted(id, false);
                }
            }
            let mut commit = evaluator
                .delete(&self.program, &[(pred.to_string(), tuple)])
                .unwrap();
            (commit.added, commit.removed) = journal.net_delta(&self.relations);
            commit
        }

        fn contains(&self, pred: &str, tuple: &[Value]) -> bool {
            self.relations.get(pred).is_some_and(|r| r.contains(tuple))
        }
    }

    fn s(v: &str) -> Value {
        Value::str(v)
    }

    #[test]
    fn deleting_a_link_removes_dependent_paths() {
        let mut fixture = Fixture::new(
            "reachable(X, Y) <- link(X, Y).\n\
             reachable(X, Y) <- link(X, Z), reachable(Z, Y).",
            &[
                ("link", vec![s("a"), s("b")]),
                ("link", vec![s("b"), s("c")]),
            ],
        );
        assert!(fixture.contains("reachable", &[s("a"), s("c")]));
        let stats = fixture.delete("link", vec![s("b"), s("c")]);
        assert_eq!(stats.base_deleted, 1);
        assert!(
            stats.over_deleted >= 2,
            "a->c and b->c must be over-deleted"
        );
        assert!(!fixture.contains("reachable", &[s("a"), s("c")]));
        assert!(!fixture.contains("reachable", &[s("b"), s("c")]));
        assert!(fixture.contains("reachable", &[s("a"), s("b")]));
    }

    #[test]
    fn alternative_derivations_are_rederived() {
        // Two routes from a to c; deleting one keeps a->c reachable.
        let mut fixture = Fixture::new(
            "reachable(X, Y) <- link(X, Y).\n\
             reachable(X, Y) <- link(X, Z), reachable(Z, Y).",
            &[
                ("link", vec![s("a"), s("b")]),
                ("link", vec![s("b"), s("c")]),
                ("link", vec![s("a"), s("d")]),
                ("link", vec![s("d"), s("c")]),
            ],
        );
        assert!(fixture.contains("reachable", &[s("a"), s("c")]));
        let stats = fixture.delete("link", vec![s("b"), s("c")]);
        assert!(
            fixture.contains("reachable", &[s("a"), s("c")]),
            "alternative path via d survives"
        );
        assert!(!fixture.contains("reachable", &[s("b"), s("c")]));
        // a->c was never removed: the search proved it through d, and no
        // re-run put anything back.
        assert_eq!(stats.over_deleted, 1, "only b->c goes");
        assert_eq!(stats.rederived, 0);
        assert!(stats.checked >= 2);
        assert!(!stats.removed["reachable"].contains(&vec![s("a"), s("c")]));
    }

    #[test]
    fn explicitly_asserted_facts_survive_overdeletion() {
        // c is both derived and explicitly asserted.
        let mut fixture = Fixture::new(
            "c(X) <- a(X).\n",
            &[("a", vec![s("v")]), ("c", vec![s("v")])],
        );
        let stats = fixture.delete("a", vec![s("v")]);
        assert_eq!(stats.base_deleted, 1);
        assert!(
            fixture.contains("c", &[s("v")]),
            "explicit fact must survive"
        );
    }

    #[test]
    fn deleting_nonexistent_fact_is_a_noop() {
        let mut fixture = Fixture::new(
            "reachable(X, Y) <- link(X, Y).",
            &[("link", vec![s("a"), s("b")])],
        );
        let stats = fixture.delete("link", vec![s("x"), s("y")]);
        assert_eq!(stats, Commit::default());
        assert!(fixture.contains("reachable", &[s("a"), s("b")]));
    }

    #[test]
    fn retraction_recomputes_aggregates() {
        let mut fixture = Fixture::new(
            "total[X] = S <- agg<< S = sum(Y) >> e0(X, Y).",
            &[
                ("e0", vec![Value::Int(1), Value::Int(2)]),
                ("e0", vec![Value::Int(1), Value::Int(3)]),
                ("e0", vec![Value::Int(2), Value::Int(5)]),
            ],
        );
        assert!(fixture.contains("total", &[Value::Int(1), Value::Int(5)]));
        let stats = fixture.delete("e0", vec![Value::Int(1), Value::Int(3)]);
        assert_eq!(stats.base_deleted, 1);
        assert!(
            fixture.contains("total", &[Value::Int(1), Value::Int(2)]),
            "group 1 recomputed from the surviving facts"
        );
        assert!(
            fixture.contains("total", &[Value::Int(2), Value::Int(5)]),
            "untouched group re-derived"
        );
        assert!(!fixture.contains("total", &[Value::Int(1), Value::Int(5)]));
        // Deleting a group's last fact removes its aggregate entirely.
        fixture.delete("e0", vec![Value::Int(1), Value::Int(2)]);
        assert!(!fixture.contains("total", &[Value::Int(1), Value::Int(2)]));
        assert!(fixture.contains("total", &[Value::Int(2), Value::Int(5)]));
    }

    #[test]
    fn incremental_matches_recompute_from_scratch() {
        let edges = [
            ("a", "b"),
            ("b", "c"),
            ("c", "d"),
            ("a", "d"),
            ("d", "e"),
            ("b", "e"),
        ];
        let facts: Vec<(&str, Vec<Value>)> = edges
            .iter()
            .map(|(x, y)| ("link", vec![s(x), s(y)]))
            .collect();
        let mut incremental = Fixture::new(
            "reachable(X, Y) <- link(X, Y).\n\
             reachable(X, Y) <- link(X, Z), reachable(Z, Y).",
            &facts,
        );
        incremental.delete("link", vec![s("b"), s("c")]);

        let remaining: Vec<(&str, Vec<Value>)> = edges
            .iter()
            .filter(|(x, y)| !(*x == "b" && *y == "c"))
            .map(|(x, y)| ("link", vec![s(x), s(y)]))
            .collect();
        let fresh = Fixture::new(
            "reachable(X, Y) <- link(X, Y).\n\
             reachable(X, Y) <- link(X, Z), reachable(Z, Y).",
            &remaining,
        );
        let a: Vec<Tuple> = incremental.relations["reachable"].sorted();
        let b: Vec<Tuple> = fresh.relations["reachable"].sorted();
        assert_eq!(a, b);
    }
}
