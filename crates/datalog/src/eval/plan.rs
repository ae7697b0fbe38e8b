//! Per-rule compilation: cost-based literal ordering, probe signatures, and
//! cached plans.
//!
//! The evaluator historically executed rule bodies as a nested-loop join in
//! textual literal order, scanning every stored relation in full.  This
//! module turns evaluation into compile-then-execute:
//!
//! * [`compile_body_plan`] greedily orders a body's stored-relation
//!   literals by estimated selectivity (bound-column count × relation
//!   cardinality), pinning the delta-restricted literal first for semi-naïve
//!   passes (unless pinning it would pre-bind a variable a pending negation,
//!   UDF, or type check textually saw unbound, in which case the delta
//!   literal runs at the earliest semantics-preserving point instead).
//!   Comparisons are *hoisted* to the earliest point at which they
//!   are evaluable — so `Var = ground-term` assignments run before the
//!   literals they make selective, independent of textual position — while
//!   negations, UDF calls, and built-in type checks are scheduled exactly
//!   when the variables they textually consumed are bound (and no variable
//!   they textually saw unbound has been bound yet), preserving the original
//!   semantics.
//! * Each planned stored-relation literal carries the bound-column signature
//!   its probe will use; the plan lists the secondary indexes the executor
//!   must [`crate::relation::Relation::ensure_index`] before joining.  A
//!   literal whose every argument is ground is a membership test on the
//!   relation's primary map and needs no index.
//! * A body is planned under the variables already bound when it starts
//!   ([`bound_after`] of a constraint's left-hand side, for its right-hand
//!   side; a head atom's variables, for a retraction's proof search;
//!   nothing, for rule bodies), so probes use what the caller knows.
//! * [`PlanCache`] memoizes compiled plans per [`PlanKey`] — rule bodies and
//!   constraint sides share the cache — and
//!   recompiles only when the body relations' cardinalities drift past a
//!   threshold, so steady-state evaluation pays no planning cost.
//! * [`PlanStats`] counts compilations, cache hits, index builds, probes and
//!   scans; the runtime layer aggregates these per deployment for the bench
//!   harness.

use super::batch::Job;
use super::runtime_pred_name;
use crate::ast::{Atom, CmpOp, Literal, Term};
use crate::intern::{FnvMap, FnvSet};
use crate::relation::{column_set, ColumnSet, Relation, Relations};
use crate::schema::BUILTIN_TYPES;
use crate::udf::UdfRegistry;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Selectivity credited to each statically bound column when estimating the
/// cost of scheduling a stored-relation literal next.
const BOUND_COLUMN_SELECTIVITY: f64 = 0.2;

/// Cardinality drift factor beyond which a cached plan is recompiled.
const RECOMPILE_DRIFT_FACTOR: usize = 4;

/// Absolute slack added to both sides of the drift comparison so tiny
/// relations do not thrash the cache while they grow from 0 to a few tuples.
const RECOMPILE_DRIFT_SLACK: usize = 16;

/// One scheduled body literal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanStep {
    /// Index into the rule body.
    pub literal: usize,
    /// For stored-relation literals: the bound-column signature the executor
    /// should probe with (`None` → scan, delta restriction, or a literal kind
    /// that never probes).  The [`full_signature`] of the literal — every
    /// argument ground — is a membership test on the primary map, for which
    /// no secondary index is declared or built.
    pub probe: Option<ColumnSet>,
    /// A stored-relation literal over a functional predicate whose key is
    /// bound when it runs (never the delta literal): both executors look
    /// its one row up by the key, so it has no probe.  A lifted `self[]`
    /// read is one.
    pub functional: bool,
}

/// The signature binding every column of an `arity`-column literal, or
/// `None` when there is no column to bind or too many for a [`ColumnSet`].
pub fn full_signature(arity: usize) -> Option<ColumnSet> {
    (1..=64)
        .contains(&arity)
        .then(|| ColumnSet::MAX >> (64 - arity))
}

/// A secondary index the executor must ensure before running the plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IndexSpec {
    pub pred: String,
    pub cols: ColumnSet,
}

/// A compiled execution plan for one rule body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RulePlan {
    /// Body literals in execution order.
    pub order: Vec<PlanStep>,
    /// Indexes to build before executing.
    pub ensure: Vec<IndexSpec>,
    /// Cardinalities of the body's stored relations at compile time, for the
    /// recompile-on-drift policy.
    pub cardinalities: Vec<(String, usize)>,
}

impl RulePlan {
    /// The trivial textual-order plan (no probes).  Used for rules the
    /// planner cannot analyze (meta-level predicate references) and by the
    /// naive evaluation mode.
    pub fn textual(body_len: usize) -> RulePlan {
        RulePlan {
            order: (0..body_len)
                .map(|literal| PlanStep {
                    literal,
                    probe: None,
                    functional: false,
                })
                .collect(),
            ensure: Vec::new(),
            cardinalities: Vec::new(),
        }
    }
}

/// Why a rule execution or a constraint check ran on the tuple path: what
/// the body has and the batch executor lacks (`batch::compile_batch`).
/// What the body's syntax says is ranked in declaration order — a `says`
/// rule's `U != self[]` counts as a comparison — and only a body its syntax
/// admits is asked about its plan: a UDF call with an argument unbound when
/// it runs, a foreign dictionary, the delta literal's place.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum BatchMiss {
    /// An aggregate rule (recomputed in full, never delta-driven).
    Aggregate,
    /// A user-defined function that binds an output (the signing rules'
    /// `hmac_sign`, `rsa_sign`) or takes a wildcard; one called with every
    /// argument bound is a batch filter.
    Udf,
    /// A negated body atom.
    Negation,
    /// A comparison or assignment literal.
    Comparison,
    /// An arithmetic or variable-sequence term, a meta-level predicate the
    /// evaluator cannot name, or a head variable the body does not bind.
    Expression,
    /// A relation, or a delta tuple, on another dictionary than the
    /// workspace's.
    ForeignDictionary,
    /// The plan does not run the delta-pinned literal first.
    DeltaNotFirst,
    /// A rule with no body literal.
    EmptyBody,
}

impl BatchMiss {
    /// Every reason, in declaration order.
    pub const ALL: [BatchMiss; 8] = [
        BatchMiss::Aggregate,
        BatchMiss::Udf,
        BatchMiss::Negation,
        BatchMiss::Comparison,
        BatchMiss::Expression,
        BatchMiss::ForeignDictionary,
        BatchMiss::DeltaNotFirst,
        BatchMiss::EmptyBody,
    ];
}

/// Counters describing planner and index behaviour.  Shared immutably with
/// the join executor, hence the atomics (`Relaxed` throughout — these are
/// statistics, not synchronization).
#[derive(Debug, Default)]
pub struct PlanStats {
    pub plans_compiled: AtomicU64,
    pub plan_cache_hits: AtomicU64,
    pub plan_recompiles: AtomicU64,
    pub index_builds: AtomicU64,
    pub index_probes: AtomicU64,
    pub full_scans: AtomicU64,
    pub functional_hits: AtomicU64,
    /// Stored rows a probe bucket or a scan handed to the matcher, in both
    /// executors.  A probe on a column every row shares is one
    /// `index_probes` and the whole relation here.
    pub rows_examined: AtomicU64,
    /// Rule executions (one per `(rule, delta-literal)` combination of a
    /// round, a deletion's forward combinations included) plus aggregate
    /// recomputations.
    pub serial_batches: AtomicU64,
    /// Constraints checked over the whole database: only a commit from an
    /// unconverged workspace does that (`constraint` module docs).
    pub constraint_full_checks: AtomicU64,
    /// A retraction's proof joins — one rule run backwards from one fact —
    /// by executor: the batch executor in id space, or the tuple path for a
    /// rule it declines — a negation, a comparison, a UDF that binds an
    /// output (`eval::dred`).
    pub proof_joins_batch: AtomicU64,
    pub proof_joins_tuple: AtomicU64,
    /// Per [`BatchMiss`] (indexed by `reason as usize`), the tuple-path
    /// rule executions it caused (with the planner on; off, nothing is
    /// compiled and nothing counted).
    pub batch_misses: [AtomicU64; BatchMiss::ALL.len()],
    /// Constraint checks a commit's delta drove — one per (constraint,
    /// delta-pinned lhs literal) and one per (constraint, changed witness
    /// literal) — by executor: the batch executor in id space, or the tuple
    /// path.  A full check ([`Self::constraint_full_checks`]) is in neither.
    pub constraint_checks_batch: AtomicU64,
    pub constraint_checks_tuple: AtomicU64,
    /// Per [`BatchMiss`], the tuple-path constraint checks it caused (apart
    /// from the rule executions of [`Self::batch_misses`]).  A check whose
    /// id-space run met a UDF error re-runs on the tuple path, for the
    /// error the tuple path reports, under no reason.
    pub constraint_misses: [AtomicU64; BatchMiss::ALL.len()],
    /// Batch jobs compiled — rule, proof and constraint, declines included:
    /// one per plan key, again only when its plan or the dictionary moved
    /// on (`batch` module docs).
    pub batch_jobs_compiled: AtomicU64,
}

impl PlanStats {
    pub fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    pub fn add(counter: &AtomicU64, n: usize) {
        counter.fetch_add(n as u64, Ordering::Relaxed);
    }

    /// A plain-value copy of the counters.
    pub fn snapshot(&self) -> PlanStatsSnapshot {
        PlanStatsSnapshot {
            plans_compiled: self.plans_compiled.load(Ordering::Relaxed),
            plan_cache_hits: self.plan_cache_hits.load(Ordering::Relaxed),
            plan_recompiles: self.plan_recompiles.load(Ordering::Relaxed),
            index_builds: self.index_builds.load(Ordering::Relaxed),
            index_probes: self.index_probes.load(Ordering::Relaxed),
            full_scans: self.full_scans.load(Ordering::Relaxed),
            functional_hits: self.functional_hits.load(Ordering::Relaxed),
            rows_examined: self.rows_examined.load(Ordering::Relaxed),
            parallel_batches: 0,
            serial_batches: self.serial_batches.load(Ordering::Relaxed),
            constraint_full_checks: self.constraint_full_checks.load(Ordering::Relaxed),
            proof_joins_batch: self.proof_joins_batch.load(Ordering::Relaxed),
            proof_joins_tuple: self.proof_joins_tuple.load(Ordering::Relaxed),
            batch_misses: self
                .batch_misses
                .each_ref()
                .map(|count| count.load(Ordering::Relaxed)),
            constraint_checks_batch: self.constraint_checks_batch.load(Ordering::Relaxed),
            constraint_checks_tuple: self.constraint_checks_tuple.load(Ordering::Relaxed),
            constraint_misses: self
                .constraint_misses
                .each_ref()
                .map(|count| count.load(Ordering::Relaxed)),
            batch_jobs_compiled: self.batch_jobs_compiled.load(Ordering::Relaxed),
        }
    }
}

impl Clone for PlanStats {
    fn clone(&self) -> Self {
        let snapshot = self.snapshot();
        PlanStats {
            plans_compiled: AtomicU64::new(snapshot.plans_compiled),
            plan_cache_hits: AtomicU64::new(snapshot.plan_cache_hits),
            plan_recompiles: AtomicU64::new(snapshot.plan_recompiles),
            index_builds: AtomicU64::new(snapshot.index_builds),
            index_probes: AtomicU64::new(snapshot.index_probes),
            full_scans: AtomicU64::new(snapshot.full_scans),
            functional_hits: AtomicU64::new(snapshot.functional_hits),
            rows_examined: AtomicU64::new(snapshot.rows_examined),
            serial_batches: AtomicU64::new(snapshot.serial_batches),
            constraint_full_checks: AtomicU64::new(snapshot.constraint_full_checks),
            proof_joins_batch: AtomicU64::new(snapshot.proof_joins_batch),
            proof_joins_tuple: AtomicU64::new(snapshot.proof_joins_tuple),
            batch_misses: snapshot.batch_misses.map(AtomicU64::new),
            constraint_checks_batch: AtomicU64::new(snapshot.constraint_checks_batch),
            constraint_checks_tuple: AtomicU64::new(snapshot.constraint_checks_tuple),
            constraint_misses: snapshot.constraint_misses.map(AtomicU64::new),
            batch_jobs_compiled: AtomicU64::new(snapshot.batch_jobs_compiled),
        }
    }
}

/// Plain-value counters, summable across workspaces (one per deployment
/// node), in the same spirit as `secureblox-net`'s traffic stats.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanStatsSnapshot {
    pub plans_compiled: u64,
    pub plan_cache_hits: u64,
    pub plan_recompiles: u64,
    pub index_builds: u64,
    pub index_probes: u64,
    pub full_scans: u64,
    pub functional_hits: u64,
    pub rows_examined: u64,
    /// Always 0: there is no intra-node pool (DESIGN.md §8).  Kept only
    /// because `examples/benchmark/sut.rs` reads it; goes at the next
    /// benchmark re-base (ROADMAP item 4).
    pub parallel_batches: u64,
    pub serial_batches: u64,
    pub constraint_full_checks: u64,
    pub proof_joins_batch: u64,
    pub proof_joins_tuple: u64,
    pub batch_misses: [u64; BatchMiss::ALL.len()],
    pub constraint_checks_batch: u64,
    pub constraint_checks_tuple: u64,
    pub constraint_misses: [u64; BatchMiss::ALL.len()],
    pub batch_jobs_compiled: u64,
}

impl PlanStatsSnapshot {
    /// The tuple-path rule executions `reason` caused.
    pub fn batch_miss(&self, reason: BatchMiss) -> u64 {
        self.batch_misses[reason as usize]
    }

    /// The tuple-path constraint checks `reason` caused.
    pub fn constraint_miss(&self, reason: BatchMiss) -> u64 {
        self.constraint_misses[reason as usize]
    }
}

impl std::ops::Add for PlanStatsSnapshot {
    type Output = PlanStatsSnapshot;
    fn add(self, other: PlanStatsSnapshot) -> PlanStatsSnapshot {
        PlanStatsSnapshot {
            plans_compiled: self.plans_compiled + other.plans_compiled,
            plan_cache_hits: self.plan_cache_hits + other.plan_cache_hits,
            plan_recompiles: self.plan_recompiles + other.plan_recompiles,
            index_builds: self.index_builds + other.index_builds,
            index_probes: self.index_probes + other.index_probes,
            full_scans: self.full_scans + other.full_scans,
            functional_hits: self.functional_hits + other.functional_hits,
            rows_examined: self.rows_examined + other.rows_examined,
            parallel_batches: 0,
            serial_batches: self.serial_batches + other.serial_batches,
            constraint_full_checks: self.constraint_full_checks + other.constraint_full_checks,
            proof_joins_batch: self.proof_joins_batch + other.proof_joins_batch,
            proof_joins_tuple: self.proof_joins_tuple + other.proof_joins_tuple,
            batch_misses: std::array::from_fn(|i| self.batch_misses[i] + other.batch_misses[i]),
            constraint_checks_batch: self.constraint_checks_batch + other.constraint_checks_batch,
            constraint_checks_tuple: self.constraint_checks_tuple + other.constraint_checks_tuple,
            constraint_misses: std::array::from_fn(|i| {
                self.constraint_misses[i] + other.constraint_misses[i]
            }),
            batch_jobs_compiled: self.batch_jobs_compiled + other.batch_jobs_compiled,
        }
    }
}

impl std::ops::AddAssign for PlanStatsSnapshot {
    fn add_assign(&mut self, other: PlanStatsSnapshot) {
        *self = *self + other;
    }
}

/// Identity of a compiled plan in the cache.  Rule bodies and constraint
/// sides share one cache (and one recompile-on-drift policy): constraint
/// checking runs through the same cost-based planner as rule evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanKey {
    /// An installed rule's body, optionally with a delta-pinned literal.
    Rule { rule: usize, delta: Option<usize> },
    /// The left-hand side of an installed constraint, optionally with the
    /// delta-pinned literal of an incremental check.
    ConstraintLhs {
        constraint: usize,
        delta: Option<usize>,
    },
    /// The right-hand side of an installed constraint (always checked from
    /// the lhs bindings, hence planned under [`bound_after`] of the lhs — a
    /// function of the constraint, so it needs no place in the key; never
    /// delta-restricted).
    ConstraintRhs { constraint: usize },
    /// The left-hand side of an installed constraint run from the variables
    /// it shares with one changed literal — literal `literal` of `lhs` then
    /// `rhs`, counted across both — as the check of a removed or excluded
    /// witness does: planned under those variables (a function of the key),
    /// never delta-restricted.
    ConstraintLhsFrom { constraint: usize, literal: usize },
    /// An installed rule's body run backwards from one fact of its `head`-th
    /// head atom, as a retraction's proof search does: planned under that
    /// atom's variables (a function of the key), never delta-restricted.
    Proof { rule: usize, head: usize },
}

/// One word per key, hashed once: every rule execution and constraint
/// check looks its plan (and job) up.  Indexes past 2^28 share words, which
/// costs a probe, never a wrong plan (`Eq` compares the key).
impl std::hash::Hash for PlanKey {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        let (kind, a, b) = match *self {
            PlanKey::Rule { rule, delta } => (0, rule, delta.map_or(0, |d| d + 1)),
            PlanKey::ConstraintLhs { constraint, delta } => {
                (1, constraint, delta.map_or(0, |d| d + 1))
            }
            PlanKey::ConstraintRhs { constraint } => (2, constraint, 0),
            PlanKey::ConstraintLhsFrom {
                constraint,
                literal,
            } => (3, constraint, literal),
            PlanKey::Proof { rule, head } => (4, rule, head),
        };
        state.write_u64(kind | (a as u64) << 4 | (b as u64) << 36);
    }
}

impl PlanKey {
    fn delta_literal(self) -> Option<usize> {
        match self {
            PlanKey::Rule { delta, .. } | PlanKey::ConstraintLhs { delta, .. } => delta,
            PlanKey::ConstraintRhs { .. }
            | PlanKey::ConstraintLhsFrom { .. }
            | PlanKey::Proof { .. } => None,
        }
    }
}

/// Memoized plans per [`PlanKey`] with recompile-on-drift, each beside the
/// batch job compiled from it (`batch` module docs).  A plan is immutable
/// once compiled, so the cache and every caller share it; its job goes when
/// it is recompiled.
#[derive(Debug, Clone, Default)]
pub struct PlanCache {
    plans: FnvMap<PlanKey, (Arc<RulePlan>, Option<Job>)>,
}

impl PlanCache {
    pub fn new() -> Self {
        PlanCache::default()
    }

    /// Drop every cached plan (installed rules changed).
    pub fn clear(&mut self) {
        self.plans.clear();
    }

    /// Number of cached plans.
    pub fn len(&self) -> usize {
        self.plans.len()
    }

    /// True when no plan is cached.
    pub fn is_empty(&self) -> bool {
        self.plans.is_empty()
    }

    /// Fetch (or compile) the plan for `body` under `key`.  `bound` yields
    /// the variables bound before the body runs; it must be a function of
    /// `key`, and is only asked on a compile.  Returns a shared handle so
    /// the caller can mutate relations (index ensures) while holding it; a
    /// cache hit copies nothing.
    pub fn plan_for(
        &mut self,
        key: PlanKey,
        body: &[Literal],
        bound: impl FnOnce() -> FnvSet<String>,
        relations: &Relations,
        udfs: &UdfRegistry,
        stats: &PlanStats,
    ) -> Arc<RulePlan> {
        if let Some((plan, _)) = self.plans.get(&key) {
            if !cardinalities_drifted(&plan.cardinalities, relations) {
                PlanStats::bump(&stats.plan_cache_hits);
                return Arc::clone(plan);
            }
            PlanStats::bump(&stats.plan_recompiles);
        } else {
            PlanStats::bump(&stats.plans_compiled);
        }
        let timer = secureblox_telemetry::histogram!("datalog_plan_compile_ns").start_timer();
        let plan = Arc::new(compile_body_plan(
            body,
            key.delta_literal(),
            &bound(),
            relations,
            udfs,
        ));
        drop(timer);
        self.plans.insert(key, (Arc::clone(&plan), None));
        plan
    }

    /// The batch job slot beside `key`'s plan, which [`Self::plan_for`]
    /// cached.
    pub(crate) fn job(&mut self, key: PlanKey) -> &mut Option<Job> {
        &mut self
            .plans
            .get_mut(&key)
            .expect("the plan is cached before its job")
            .1
    }

    /// Take the job beside `key`'s plan, to run it while the cache is used
    /// for other keys; [`Self::put_job`] brings it back.
    pub(crate) fn take_job(&mut self, key: PlanKey) -> Option<Job> {
        self.plans.get_mut(&key)?.1.take()
    }

    /// Put `job`, compiled from `plan`, back beside `key`'s plan — unless
    /// that plan was recompiled meanwhile.
    pub(crate) fn put_job(&mut self, key: PlanKey, plan: &Arc<RulePlan>, job: Option<Job>) {
        if let Some((cached, slot)) = self.plans.get_mut(&key) {
            if Arc::ptr_eq(cached, plan) {
                *slot = job;
            }
        }
    }
}

fn cardinalities_drifted(snapshot: &[(String, usize)], relations: &Relations) -> bool {
    snapshot.iter().any(|(pred, then)| {
        let now = relations.get(pred).map_or(0, Relation::len);
        let (small, large) = if now < *then {
            (now, *then)
        } else {
            (*then, now)
        };
        large + RECOMPILE_DRIFT_SLACK > RECOMPILE_DRIFT_FACTOR * (small + RECOMPILE_DRIFT_SLACK)
    })
}

/// How the planner treats each body literal.
#[derive(Debug, Clone, PartialEq, Eq)]
enum LitKind {
    /// Positive atom over a stored relation: reorderable, probe-able.
    Stored { pred: String },
    /// Positive atom over a built-in type check (`int(X)`, …).
    TypeCheck,
    /// Positive atom over a user-defined function.
    Udf,
    /// Negated atom.
    Neg,
    /// Comparison (filter or assignment).
    Cmp,
}

/// Classify every literal of a body, or `None` when one names a meta-level
/// predicate the planner cannot analyze.
fn classify(body: &[Literal], udfs: &UdfRegistry) -> Option<Vec<LitKind>> {
    body.iter()
        .map(|literal| match literal {
            Literal::Cmp(..) => Some(LitKind::Cmp),
            Literal::Neg(_) => Some(LitKind::Neg),
            Literal::Pos(atom) => {
                let pred = runtime_pred_name(&atom.pred).ok()?;
                Some(
                    if BUILTIN_TYPES.contains(&&*pred) && atom.terms.len() == 1 {
                        LitKind::TypeCheck
                    } else if udfs.is_udf(&pred) {
                        LitKind::Udf
                    } else {
                        LitKind::Stored {
                            pred: pred.into_owned(),
                        }
                    },
                )
            }
        })
        .collect()
}

/// The variables every solution of `body` leaves bound, in whatever order
/// its literals ran: the closure of the planner's own `binds` analysis over
/// them (an assignment binds once its other side is ground, so it may need
/// a literal that follows it textually).  Empty for a body the planner cannot
/// analyze.  This is the set a constraint's right-hand side is planned
/// under.
pub fn bound_after(body: &[Literal], udfs: &UdfRegistry) -> FnvSet<String> {
    let mut bound = FnvSet::default();
    let Some(kinds) = classify(body, udfs) else {
        return bound;
    };
    loop {
        let before = bound.len();
        for (literal, kind) in body.iter().zip(&kinds) {
            bound.extend(binds(literal, kind, &bound));
        }
        if bound.len() == before {
            return bound;
        }
    }
}

/// Is `term` statically ground given the currently bound variables?
fn term_ground(term: &Term, bound: &FnvSet<String>) -> bool {
    match term {
        Term::Var(v) => bound.contains(v),
        Term::Const(_) => true,
        Term::Wildcard | Term::VarSeq(_) | Term::SingletonRef(_) => false,
        Term::BinOp(l, _, r) => term_ground(l, bound) && term_ground(r, bound),
    }
}

fn literal_vars(literal: &Literal) -> Vec<String> {
    let mut vars = Vec::new();
    literal.collect_vars(&mut vars);
    vars
}

/// The variables a literal makes bound once executed under textual
/// evaluation (approximation used for the readiness analysis).
fn binds(literal: &Literal, kind: &LitKind, bound: &FnvSet<String>) -> Vec<String> {
    match kind {
        LitKind::Stored { .. } | LitKind::Udf => literal_vars(literal),
        LitKind::TypeCheck | LitKind::Neg => Vec::new(),
        LitKind::Cmp => {
            let Literal::Cmp(lhs, op, rhs) = literal else {
                return Vec::new();
            };
            if *op != CmpOp::Eq {
                return Vec::new();
            }
            match (lhs, rhs) {
                (Term::Var(v), other) if !bound.contains(v) && term_ground(other, bound) => {
                    vec![v.clone()]
                }
                (other, Term::Var(v)) if !bound.contains(v) && term_ground(other, bound) => {
                    vec![v.clone()]
                }
                _ => Vec::new(),
            }
        }
    }
}

/// Is the comparison evaluable right now (fully ground filter, or an
/// assignment whose ground side is evaluable)?
fn cmp_ready(lhs: &Term, op: CmpOp, rhs: &Term, bound: &FnvSet<String>) -> bool {
    if term_ground(lhs, bound) && term_ground(rhs, bound) {
        return true;
    }
    if op != CmpOp::Eq {
        return false;
    }
    matches!((lhs, rhs),
        (Term::Var(v), other) if !bound.contains(v) && term_ground(other, bound))
        || matches!((lhs, rhs),
        (other, Term::Var(v)) if !bound.contains(v) && term_ground(other, bound))
}

/// The bound-column signature of `atom` given the bound variable set: bit `i`
/// is set when argument `i` is statically evaluable to a ground value.
fn probe_signature(atom: &Atom, bound: &FnvSet<String>) -> ColumnSet {
    if atom.terms.len() > 64 {
        return 0;
    }
    column_set(
        atom.terms
            .iter()
            .enumerate()
            .filter(|(_, term)| term_ground(term, bound))
            .map(|(i, _)| i),
    )
}

/// Does `cols` bind every argument of an `arity`-argument literal?  Such a
/// literal — positive or negated — is answered by the relation's primary
/// map: the planner declares no index for it and the executors test
/// membership.
pub(super) fn is_membership(arity: usize, cols: ColumnSet) -> bool {
    full_signature(arity) == Some(cols)
}

/// Estimated cost of scheduling a stored-relation literal next.
fn literal_cost(atom: &Atom, pred: &str, bound: &FnvSet<String>, relations: &Relations) -> f64 {
    let relation = relations.get(pred);
    let cardinality = relation.map_or(0, Relation::len);
    // Functional fast path: all key columns ground → at most one tuple.
    if let Some(key_arity) = relation.and_then(Relation::key_arity) {
        if atom.terms.len() == key_arity + 1
            && atom.terms[..key_arity]
                .iter()
                .all(|term| term_ground(term, bound))
        {
            return 0.5;
        }
    }
    let bound_cols = probe_signature(atom, bound).count_ones();
    scan_cost(cardinality, bound_cols as usize)
}

/// The planner's selectivity model: cost of scanning `cardinality` rows with
/// `bound_cols` columns already bound.  Exposed for the exchange planner
/// ([`super::shuffle`]), whose shuffle-vs-broadcast movement costs must use
/// the same units as local scheduling costs.
pub fn scan_cost(cardinality: usize, bound_cols: usize) -> f64 {
    (cardinality as f64) * BOUND_COLUMN_SELECTIVITY.powi(bound_cols as i32)
}

/// The textual forward pass from `initially_bound`: per literal, which of
/// its variables textual evaluation sees bound (`req`) and which unbound
/// (`frozen`).  The planner schedules a pinned-kind literal (negation, type
/// check, UDF) at exactly its `req` boundness, and binds none of its `frozen`
/// variables before it runs: that would change its meaning (`!p(X, Z)` with Z
/// textually unbound means "no p(X, _)").
fn textual_boundness(
    body: &[Literal],
    kinds: &[LitKind],
    initially_bound: &FnvSet<String>,
) -> (Vec<FnvSet<String>>, Vec<FnvSet<String>>) {
    let mut req = Vec::with_capacity(body.len());
    let mut frozen = Vec::with_capacity(body.len());
    let mut bound: FnvSet<String> = initially_bound.clone();
    for (literal, kind) in body.iter().zip(kinds) {
        let (seen, unseen) = literal_vars(literal)
            .into_iter()
            .partition(|v| bound.contains(v));
        req.push(seen);
        frozen.push(unseen);
        for var in binds(literal, kind, &bound) {
            bound.insert(var);
        }
    }
    (req, frozen)
}

/// The variables some negation, built-in type check or UDF call of `body`
/// textually sees unbound.  A caller that starts the body from bindings of
/// its own leaves these out of them, because binding one beforehand would
/// change what that literal means.  Empty for a body the planner cannot
/// analyze.
pub(crate) fn frozen_vars(body: &[Literal], udfs: &UdfRegistry) -> FnvSet<String> {
    let Some(kinds) = classify(body, udfs) else {
        return FnvSet::default();
    };
    let (_, frozen) = textual_boundness(body, &kinds, &FnvSet::default());
    kinds
        .iter()
        .zip(frozen)
        .filter(|(kind, _)| matches!(kind, LitKind::Neg | LitKind::TypeCheck | LitKind::Udf))
        .flat_map(|(_, frozen)| frozen)
        .collect()
}

/// Compile an execution plan for a literal sequence (a rule body, or one
/// side of a constraint).
///
/// `delta_literal` names the body literal restricted to a delta set in a
/// semi-naïve pass; it is pinned to run first among the stored-relation
/// literals (delta sets are small, so driving the join off them maximizes
/// selectivity).
///
/// `initially_bound` holds the variables the caller's bindings already
/// carry when the body starts (empty for a rule body or a constraint's
/// left-hand side).  Both passes below start from it, so a probe signature
/// covers those variables' columns and a negation, UDF or type check keeps
/// exactly the boundness textual evaluation from those bindings gives it.
/// Naming a variable that turns out unbound at run time costs a scan, never
/// a wrong answer: the executor re-evaluates every probe key.
pub fn compile_body_plan(
    body: &[Literal],
    delta_literal: Option<usize>,
    initially_bound: &FnvSet<String>,
    relations: &Relations,
    udfs: &UdfRegistry,
) -> RulePlan {
    let n = body.len();

    // Bail to textual order on meta-level predicates.
    let Some(kinds) = classify(body, udfs) else {
        return RulePlan::textual(n);
    };

    let (req, frozen) = textual_boundness(body, &kinds, initially_bound);

    let mut bound: FnvSet<String> = initially_bound.clone();
    let mut scheduled = vec![false; n];
    let mut order: Vec<PlanStep> = Vec::with_capacity(n);
    let mut ensure: Vec<IndexSpec> = Vec::new();

    let schedule = |index: usize,
                    bound: &mut FnvSet<String>,
                    scheduled: &mut Vec<bool>,
                    order: &mut Vec<PlanStep>,
                    ensure: &mut Vec<IndexSpec>| {
        let mut probe = None;
        let mut functional = false;
        if let LitKind::Stored { pred } = &kinds[index] {
            let Literal::Pos(atom) = &body[index] else {
                unreachable!("stored literal is positive");
            };
            if delta_literal != Some(index) {
                let cols = probe_signature(atom, bound);
                // Skip the probe when the functional fast path already covers
                // the lookup (all key columns ground).
                functional = relations
                    .get(pred)
                    .and_then(Relation::key_arity)
                    .is_some_and(|k| {
                        atom.terms.len() == k + 1
                            && atom.terms[..k].iter().all(|t| term_ground(t, bound))
                    });
                if cols != 0 && !functional {
                    probe = Some(cols);
                    let spec = IndexSpec {
                        pred: pred.clone(),
                        cols,
                    };
                    if !is_membership(atom.terms.len(), cols) && !ensure.contains(&spec) {
                        ensure.push(spec);
                    }
                }
            }
        }
        if let LitKind::Neg = &kinds[index] {
            // Pre-declare the index the negation's pattern will use so the
            // executor can probe instead of scanning.
            if let Literal::Neg(atom) = &body[index] {
                if let Ok(pred) = runtime_pred_name(&atom.pred) {
                    let cols = probe_signature(atom, bound);
                    let spec = IndexSpec {
                        pred: pred.into_owned(),
                        cols,
                    };
                    if cols != 0
                        && !is_membership(atom.terms.len(), cols)
                        && !ensure.contains(&spec)
                    {
                        ensure.push(spec);
                    }
                }
            }
        }
        for var in binds(&body[index], &kinds[index], bound) {
            bound.insert(var);
        }
        scheduled[index] = true;
        order.push(PlanStep {
            literal: index,
            probe,
            functional,
        });
    };

    // The single frozen-variable invariant, used by every scheduling path:
    // literal `index` must not be scheduled while it would newly bind a
    // variable that some *other* pending pinned literal textually saw
    // unbound — doing so would collapse ∄-over-unbound negation or turn an
    // enumerating UDF call into a membership check.
    let binds_frozen_of_pending =
        |index: usize, bound: &FnvSet<String>, scheduled: &[bool]| -> bool {
            binds(&body[index], &kinds[index], bound)
                .iter()
                .filter(|v| !bound.contains(*v))
                .any(|v| {
                    (0..n).any(|f| {
                        f != index
                            && !scheduled[f]
                            && matches!(kinds[f], LitKind::Neg | LitKind::TypeCheck | LitKind::Udf)
                            && frozen[f].contains(v)
                    })
                })
        };

    while order.len() < n {
        // 1. Eagerly schedule every ready floating literal, in textual order,
        //    repeating until quiescent (an assignment can ready another).
        loop {
            let mut progress = false;
            for index in 0..n {
                if scheduled[index] {
                    continue;
                }
                let ready = match &kinds[index] {
                    LitKind::Cmp => {
                        let Literal::Cmp(lhs, op, rhs) = &body[index] else {
                            unreachable!()
                        };
                        cmp_ready(lhs, *op, rhs, &bound)
                            && !binds_frozen_of_pending(index, &bound, &scheduled)
                    }
                    LitKind::Neg | LitKind::TypeCheck => {
                        req[index].iter().all(|v| bound.contains(v))
                    }
                    LitKind::Udf => {
                        req[index].iter().all(|v| bound.contains(v))
                            && !binds_frozen_of_pending(index, &bound, &scheduled)
                    }
                    LitKind::Stored { .. } => false,
                };
                if ready {
                    schedule(index, &mut bound, &mut scheduled, &mut order, &mut ensure);
                    progress = true;
                }
            }
            if !progress {
                break;
            }
        }
        if order.len() == n {
            break;
        }

        // 2. Pick the next stored-relation literal: the delta literal first
        //    (when pinning it would not pre-bind a frozen variable of a
        //    pending pinned literal), otherwise the cheapest unblocked
        //    candidate — with the delta literal preferred as soon as it
        //    unblocks.
        let blocked = |i: usize| binds_frozen_of_pending(i, &bound, &scheduled);
        let candidates: Vec<usize> = (0..n)
            .filter(|&i| !scheduled[i] && matches!(kinds[i], LitKind::Stored { .. }))
            .collect();
        let delta_candidate =
            delta_literal.filter(|&d| !scheduled[d] && matches!(kinds[d], LitKind::Stored { .. }));
        let choice = match delta_candidate {
            Some(d) if !blocked(d) => Some(d),
            _ => {
                let unblocked: Vec<usize> = candidates
                    .iter()
                    .copied()
                    .filter(|&i| !blocked(i))
                    .collect();
                let pool = if unblocked.is_empty() {
                    &candidates
                } else {
                    &unblocked
                };
                pool.iter().copied().min_by(|&a, &b| {
                    let (LitKind::Stored { pred: pa }, LitKind::Stored { pred: pb }) =
                        (&kinds[a], &kinds[b])
                    else {
                        unreachable!()
                    };
                    let (Literal::Pos(atom_a), Literal::Pos(atom_b)) = (&body[a], &body[b]) else {
                        unreachable!()
                    };
                    // Delta sets are the most selective input: prefer the
                    // delta literal the moment it is legal to schedule.
                    let cost = |i: usize, atom: &Atom, pred: &str| {
                        if delta_candidate == Some(i) {
                            -1.0
                        } else {
                            literal_cost(atom, pred, &bound, relations)
                        }
                    };
                    cost(a, atom_a, pa)
                        .total_cmp(&cost(b, atom_b, pb))
                        .then(a.cmp(&b))
                })
            }
        };
        match choice {
            Some(index) => schedule(index, &mut bound, &mut scheduled, &mut order, &mut ensure),
            None => {
                // No stored literal left and the remaining floating literals
                // never become ready (their variables are never bound):
                // schedule them in textual order so runtime behaviour (error
                // or empty branch) matches the naive evaluator.
                for index in 0..n {
                    if !scheduled[index] {
                        schedule(index, &mut bound, &mut scheduled, &mut order, &mut ensure);
                    }
                }
            }
        }
    }

    let mut cardinalities: Vec<(String, usize)> = Vec::new();
    for kind in &kinds {
        if let LitKind::Stored { pred } = kind {
            if !cardinalities.iter().any(|(p, _)| p == pred) {
                cardinalities.push((pred.clone(), relations.get(pred).map_or(0, Relation::len)));
            }
        }
    }

    RulePlan {
        order,
        ensure,
        cardinalities,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_rule;
    use crate::value::Value;

    fn relations_with(cards: &[(&str, usize)]) -> Relations {
        let mut relations = Relations::default();
        for (pred, n) in cards {
            let mut rel = Relation::new(*pred, None);
            for i in 0..*n {
                rel.insert(vec![Value::Int(i as i64), Value::Int(i as i64 + 1)])
                    .unwrap();
            }
            relations.insert(pred.to_string(), rel);
        }
        relations
    }

    fn order_of(plan: &RulePlan) -> Vec<usize> {
        plan.order.iter().map(|s| s.literal).collect()
    }

    #[test]
    fn smallest_relation_drives_the_join() {
        let relations = relations_with(&[("big", 1000), ("small", 3)]);
        let udfs = UdfRegistry::new();
        let rule = parse_rule("out(X, Z) <- big(X, Y), small(Y, Z).").unwrap();
        let plan = compile_body_plan(&rule.body, None, &FnvSet::default(), &relations, &udfs);
        assert_eq!(order_of(&plan), vec![1, 0]);
        // The second literal probes on its bound column (Y = column 1 of big).
        assert_eq!(plan.order[1].probe, Some(column_set([1])));
        assert!(plan.ensure.contains(&IndexSpec {
            pred: "big".into(),
            cols: column_set([1])
        }));
    }

    #[test]
    fn delta_literal_is_pinned_first() {
        let relations = relations_with(&[("big", 1000), ("small", 3)]);
        let udfs = UdfRegistry::new();
        let rule = parse_rule("out(X, Z) <- big(X, Y), small(Y, Z).").unwrap();
        let plan = compile_body_plan(&rule.body, Some(0), &FnvSet::default(), &relations, &udfs);
        assert_eq!(order_of(&plan), vec![0, 1]);
        assert_eq!(plan.order[0].probe, None, "delta literal scans the delta");
        assert_eq!(plan.order[1].probe, Some(column_set([0])));
    }

    #[test]
    fn assignments_are_hoisted_before_their_consumers() {
        let relations = relations_with(&[("edge", 100)]);
        let udfs = UdfRegistry::new();
        // Textual order would scan edge first; the plan assigns X = 7 first
        // and probes edge on column 0.
        let rule = parse_rule("out(Y) <- edge(X, Y), X = 7.").unwrap();
        let plan = compile_body_plan(&rule.body, None, &FnvSet::default(), &relations, &udfs);
        assert_eq!(order_of(&plan), vec![1, 0]);
        assert_eq!(plan.order[1].probe, Some(column_set([0])));
    }

    #[test]
    fn comparison_needing_later_binding_is_deferred() {
        let relations = relations_with(&[("edge", 10)]);
        let udfs = UdfRegistry::new();
        // C = Y + 1 precedes its producer textually; the plan defers it.
        let rule = parse_rule("out(C) <- C = Y + 1, edge(X, Y).").unwrap();
        let plan = compile_body_plan(&rule.body, None, &FnvSet::default(), &relations, &udfs);
        assert_eq!(order_of(&plan), vec![1, 0]);
    }

    #[test]
    fn negation_keeps_its_textual_boundness() {
        let relations = relations_with(&[("a", 10), ("b", 10), ("c", 10)]);
        let udfs = UdfRegistry::new();
        // !b(X, Z) textually sees X bound and Z unbound; c(Z, W) must not be
        // scheduled before the negation even if it were cheaper.
        let rule = parse_rule("out(X, W) <- a(X, Y), !b(X, Z), c(Z, W).").unwrap();
        let plan = compile_body_plan(&rule.body, None, &FnvSet::default(), &relations, &udfs);
        let order = order_of(&plan);
        let pos = |i: usize| order.iter().position(|&x| x == i).unwrap();
        assert!(pos(0) < pos(1), "a before !b");
        assert!(pos(1) < pos(2), "!b before c (Z is frozen)");
    }

    #[test]
    fn assignment_does_not_prebind_frozen_negation_var() {
        let relations = relations_with(&[("a", 10), ("b", 10)]);
        let udfs = UdfRegistry::new();
        // !b(X, Z) textually sees Z unbound (∄ b(X, _)); hoisting Z = 5 ahead
        // of it would collapse that into the membership check !b(X, 5).
        let rule = parse_rule("out(X) <- a(X), !b(X, Z), Z = 5.").unwrap();
        let plan = compile_body_plan(&rule.body, None, &FnvSet::default(), &relations, &udfs);
        let order = order_of(&plan);
        let pos = |i: usize| order.iter().position(|&x| x == i).unwrap();
        assert!(pos(1) < pos(2), "!b must run before Z = 5 is assigned");
    }

    fn bound(vars: &[&str]) -> FnvSet<String> {
        vars.iter().map(|v| v.to_string()).collect()
    }

    #[test]
    fn a_body_probes_on_what_its_caller_already_bound() {
        let relations = relations_with(&[("sig", 1000), ("secret", 10)]);
        let udfs = UdfRegistry::new();
        // The generated signature constraint's right-hand side: P, V bound
        // by the left-hand side, `me[]` shared by every row of `sig` and
        // bound by the literal its lift puts first.
        let rule = parse_rule("out(S) <- sig(P, me[], V, S), secret(P, K).")
            .unwrap()
            .lift_singletons();
        let from_nothing =
            compile_body_plan(&rule.body, None, &FnvSet::default(), &relations, &udfs);
        let sig_step = |plan: &RulePlan| plan.order.iter().find(|s| s.literal == 1).unwrap().probe;
        assert_ne!(sig_step(&from_nothing), Some(column_set([0, 1, 2])));
        let plan = compile_body_plan(&rule.body, None, &bound(&["P", "V"]), &relations, &udfs);
        assert_eq!(sig_step(&plan), Some(column_set([0, 1, 2])));
        assert!(plan.ensure.contains(&IndexSpec {
            pred: "sig".into(),
            cols: column_set([0, 1, 2])
        }));
    }

    #[test]
    fn a_fully_ground_literal_declares_no_index() {
        let relations = relations_with(&[("a", 10), ("b", 10)]);
        let udfs = UdfRegistry::new();
        // Positive and negated, ground from the caller and from the body.
        let rule = parse_rule("out(X) <- b(X, Y), a(X, Y), !b(Y, X), a(P, 3).").unwrap();
        let plan = compile_body_plan(&rule.body, None, &bound(&["P"]), &relations, &udfs);
        let probe_of = |literal: usize| {
            plan.order
                .iter()
                .find(|s| s.literal == literal)
                .unwrap()
                .probe
        };
        assert_eq!(probe_of(1), full_signature(2));
        assert_eq!(probe_of(3), full_signature(2));
        assert!(plan.ensure.is_empty(), "{:?}", plan.ensure);
        assert_eq!(full_signature(0), None);
        assert_eq!(full_signature(64), Some(u64::MAX));
        assert_eq!(full_signature(65), None);
    }

    #[test]
    fn bound_after_is_the_closure_of_what_the_literals_bind() {
        let udfs = UdfRegistry::new();
        let vars = |source: &str| {
            let rule = parse_rule(&format!("out(X) <- {source}."))
                .unwrap()
                .lift_singletons();
            let mut vars: Vec<String> = bound_after(&rule.body, &udfs).into_iter().collect();
            vars.sort();
            vars
        };
        assert_eq!(vars("a(X, Y), !c(Q), int(R)"), ["X", "Y"]);
        // An assignment binds whichever side a later literal makes ground,
        // and chains; a comparison that is not one binds nothing.
        assert_eq!(
            vars("C = B + 1, B = Y, a(X, Y), X < D"),
            ["B", "C", "X", "Y"]
        );
        assert_eq!(vars("a(X, me[]), Z = me[]"), ["X", "Z", "me[]"]);
        assert!(vars("says[T](P, X)").is_empty());
    }

    #[test]
    fn meta_predicates_fall_back_to_textual_order() {
        let relations = relations_with(&[]);
        let udfs = UdfRegistry::new();
        let rule = parse_rule("out(X) <- says[T](P, X), other(X).").unwrap();
        let plan = compile_body_plan(&rule.body, None, &FnvSet::default(), &relations, &udfs);
        assert_eq!(order_of(&plan), vec![0, 1]);
        assert!(plan.ensure.is_empty());
    }

    #[test]
    fn plan_cache_hits_and_recompiles_on_drift() {
        let mut relations = relations_with(&[("a", 4), ("b", 4)]);
        let udfs = UdfRegistry::new();
        let rule = parse_rule("out(X, Z) <- a(X, Y), b(Y, Z).").unwrap();
        let stats = PlanStats::default();
        let mut cache = PlanCache::new();
        let p1 = cache.plan_for(
            PlanKey::Rule {
                rule: 0,
                delta: None,
            },
            &rule.body,
            FnvSet::default,
            &relations,
            &udfs,
            &stats,
        );
        let p2 = cache.plan_for(
            PlanKey::Rule {
                rule: 0,
                delta: None,
            },
            &rule.body,
            FnvSet::default,
            &relations,
            &udfs,
            &stats,
        );
        assert_eq!(p1, p2);
        let snap = stats.snapshot();
        assert_eq!(snap.plans_compiled, 1);
        assert_eq!(snap.plan_cache_hits, 1);
        // Grow `a` far beyond the drift threshold → recompile.
        let rel = relations.get_mut("a").unwrap();
        for i in 0..500 {
            rel.insert(vec![Value::Int(1000 + i), Value::Int(2000 + i)])
                .unwrap();
        }
        cache.plan_for(
            PlanKey::Rule {
                rule: 0,
                delta: None,
            },
            &rule.body,
            FnvSet::default,
            &relations,
            &udfs,
            &stats,
        );
        assert_eq!(stats.snapshot().plan_recompiles, 1);
        cache.clear();
        assert!(cache.is_empty());
    }

    #[test]
    fn snapshot_sums() {
        let a = PlanStatsSnapshot {
            index_probes: 2,
            ..Default::default()
        };
        let b = PlanStatsSnapshot {
            index_probes: 3,
            full_scans: 1,
            ..Default::default()
        };
        let mut c = a + b;
        assert_eq!(c.index_probes, 5);
        assert_eq!(c.full_scans, 1);
        c += a;
        assert_eq!(c.index_probes, 7);
    }
}
