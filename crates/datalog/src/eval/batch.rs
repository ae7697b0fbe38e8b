//! Batch-at-a-time execution over interned id columns.
//!
//! The tuple-at-a-time join in [`super::join`] materializes a [`Bindings`]
//! map per solution and compares [`crate::value::Value`]s at every probe.
//! For most bodies none of that is necessary: every value is already a dense
//! `u32` dictionary id inside the relations' column groups, so the whole join
//! can run as integer-column operations and only *new* tuples are ever
//! rehydrated into `Value` rows (at insert, by
//! [`crate::relation::Relation::insert_ids`]).
//!
//! ## Steps
//!
//! A body compiles, along its plan, into one step per literal:
//!
//! * a stored-relation literal joins the frame against the relation — an
//!   index probe when the plan gives one, the driving delta rows for the
//!   delta literal, a scan otherwise;
//! * a functional literal the plan reaches with its key bound (a lifted
//!   `self[]` read among them) is a keyed lookup of its one row;
//! * a builtin type check (`int(X)`) keeps the rows whose value has the type;
//! * a user-defined function whose arguments are all bound (`hmac_verify`,
//!   `rsa_verify`) keeps the rows it answers, called at the value boundary.
//!
//! Negation, comparisons, expressions, a UDF that binds an output, and a
//! relation on another dictionary decline ([`BatchMiss`]); the tuple path
//! runs those.
//!
//! ## Jobs, compiled once per plan
//!
//! Three jobs run step pipelines: a rule's forward job ([`BatchJob`]), a
//! retraction's proof job ([`ProofJob`]) and a constraint check
//! ([`ConstraintJob`]).  Each is compiled from one plan key's plan and kept
//! beside that plan in the [`super::PlanCache`] ([`Job`]), decline included,
//! so a steady-state execution compiles nothing.  A job is recompiled when
//! its plan is (the cache drops it with the plan), when a constraint's rhs
//! plan changed, when the dictionary is another one, and — for a job compiled
//! while a body constant was in no relation — when the dictionary holds more
//! values than before that compile ([`Stamp`]).  Compiling is the one place the batch path interns
//! (head constants, at a rule job's first compile); the evaluator compiles
//! in combination order, which keeps dictionary id assignment a pure function
//! of the operation sequence ([`crate::intern`] module docs).  Executing is
//! read-only over the relations; the driving delta rows are encoded per
//! execution.
//!
//! ## Frames
//!
//! A step pipeline runs over one frame: a row of ids per partial solution,
//! packed row-major, each step appending the columns of the variables it
//! binds.  A forward job starts from one empty row and projects its heads
//! at the end.  A proof job runs a rule backwards from one stored fact, as a
//! retraction's proof search does: the fact's ids seed a one-row frame, each
//! stored step also appends the `TupleId` it matched, and the solutions'
//! trails are the job's output.  A constraint job runs the lhs, then the rhs
//! from a one-row frame per lhs row; an lhs row whose rhs frame ends empty
//! is a violation.  Every job keeps its buffers from execution to execution.
//!
//! ## Determinism
//!
//! A forward job's output is canonicalized — per head predicate, id rows are
//! sorted and deduplicated — so the result is independent of frame order
//! and cache hits, and so is the id-sorted insertion order downstream.  A
//! frame's rows come in the order the tuple path enumerates its solutions,
//! so a constraint job's first violation is the tuple path's.  Debug builds
//! additionally assert the rehydrated output equals the tuple-at-a-time
//! enumeration (`Evaluator::evaluate_round`), a proof job's trails the tuple
//! path's (`eval::dred`), and a constraint job's verdict the tuple path's
//! (`constraint`).

use super::plan::{is_membership, BatchMiss, PlanStats, RulePlan};
use super::runtime_pred_name;
use crate::ast::{Atom, Constraint, Literal, Rule, Term};
use crate::error::{DatalogError, Result};
use crate::eval::bindings::Bindings;
use crate::intern::{fnv_ids, FnvMap, FnvSet, Interner, PassMap};
use crate::relation::{Bucket, Relations, TupleId};
use crate::schema::BUILTIN_TYPES;
use crate::udf::UdfRegistry;
use crate::value::{Tuple, Value};
use std::sync::Arc;

/// One tuple as dictionary ids (scratch rows only; bulk data travels as
/// [`IdBatch`]).
pub(crate) type IdRow = Vec<u32>;

/// A forward job's output: id rows per head predicate.
pub(crate) type HeadRows = Vec<(Arc<str>, IdBatch)>;

/// Fixed-stride, densely packed id rows — the batch plane's unit of bulk
/// data.  `data` holds `rows * stride` ids row-major in one contiguous
/// buffer, so moving a batch between pipeline stages costs zero per-row
/// allocations and sorts compare adjacent memory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct IdBatch {
    stride: usize,
    rows: usize,
    data: Vec<u32>,
}

impl IdBatch {
    pub(crate) fn new(stride: usize) -> IdBatch {
        IdBatch {
            stride,
            rows: 0,
            data: Vec::new(),
        }
    }

    pub(crate) fn push_row(&mut self, row: &[u32]) {
        debug_assert_eq!(row.len(), self.stride);
        self.data.extend_from_slice(row);
        self.rows += 1;
    }

    pub(crate) fn row(&self, index: usize) -> &[u32] {
        &self.data[index * self.stride..(index + 1) * self.stride]
    }

    pub(crate) fn iter(&self) -> impl Iterator<Item = &[u32]> + '_ {
        (0..self.rows).map(move |index| self.row(index))
    }

    fn append(&mut self, other: &IdBatch) {
        debug_assert_eq!(self.stride, other.stride);
        self.data.extend_from_slice(&other.data);
        self.rows += other.rows;
    }

    /// Sort rows lexicographically and drop duplicates, in one pass over an
    /// index permutation (the row data itself moves once, into the rebuilt
    /// buffer).  Strides 1 and 2 sort packed integers instead — the
    /// lexicographic order of a `[u32]` row equals the numeric order of its
    /// big-endian packing.
    fn sort_dedup(&mut self) {
        if self.stride == 0 {
            self.rows = self.rows.min(1);
            return;
        }
        if self.stride == 1 {
            self.data.sort_unstable();
            self.data.dedup();
            self.rows = self.data.len();
            return;
        }
        if self.stride == 2 {
            let mut packed: Vec<u64> = self
                .data
                .chunks_exact(2)
                .map(|pair| (u64::from(pair[0]) << 32) | u64::from(pair[1]))
                .collect();
            packed.sort_unstable();
            packed.dedup();
            self.data.clear();
            for value in &packed {
                self.data.push((value >> 32) as u32);
                self.data.push(*value as u32);
            }
            self.rows = packed.len();
            return;
        }
        let stride = self.stride;
        let data = &self.data;
        let mut order: Vec<u32> = (0..self.rows as u32).collect();
        order.sort_unstable_by(|&a, &b| {
            data[a as usize * stride..][..stride].cmp(&data[b as usize * stride..][..stride])
        });
        let mut out: Vec<u32> = Vec::with_capacity(data.len());
        let mut kept = 0usize;
        for &index in &order {
            let row = &data[index as usize * stride..][..stride];
            if kept > 0 && &out[(kept - 1) * stride..][..stride] == row {
                continue;
            }
            out.extend_from_slice(row);
            kept += 1;
        }
        self.data = out;
        self.rows = kept;
    }
}

/// Encode the tuples of `tuples` of arity `arity` as driving rows (other
/// arities can never match the literal), through the scratch row `ids`;
/// `false` when one holds a value the dictionary lacks — the set is on
/// another dictionary.
fn encode_rows(
    tuples: &FnvSet<Tuple>,
    arity: usize,
    interner: &Interner,
    (out, ids): (&mut IdBatch, &mut IdRow),
) -> bool {
    out.stride = arity;
    out.rows = 0;
    out.data.clear();
    for tuple in tuples {
        if tuple.len() != arity {
            continue;
        }
        if !interner.try_row(tuple, ids) {
            return false;
        }
        out.push_row(ids);
    }
    true
}

/// What one literal position constrains or produces.
#[derive(Debug, Clone, Copy)]
enum PosSpec {
    /// Must equal this interned constant.
    Const(u32),
    /// Must equal the frame column (a variable bound by an earlier step).
    Bound(usize),
    /// First occurrence of a variable: binds a fresh frame column.
    Fresh,
    /// Repeated fresh variable within the same literal: must equal the
    /// candidate's own value at the first-occurrence position.
    Dup(usize),
    /// Wildcard: unconstrained.
    Free,
}

/// Where a probe-key / head-row component comes from.
#[derive(Debug, Clone, Copy)]
enum IdSrc {
    Frame(usize),
    Const(u32),
}

#[derive(Debug, Clone)]
struct ProbeExec {
    cols: u64,
    /// Key components in ascending bit order of `cols`.
    key: Vec<IdSrc>,
    /// True when `cols` covers every `Const`/`Bound` position, so matches
    /// depend only on the key and per-key caching is sound.
    cacheable: bool,
    /// True when `cols` covers every position: the key is the whole row, so
    /// the step is a membership test on the primary map (the plan declares
    /// no index for it).
    member: bool,
}

/// A builtin type check's argument.
#[derive(Debug, Clone)]
enum TypeArg {
    /// The value behind this frame column.
    Frame(usize),
    /// Decided at compile: a constant of that type or not, or an argument
    /// the tuple path sees unbound (which fails every row).
    Fixed(bool),
}

/// An argument of a UDF filter.
#[derive(Debug, Clone)]
enum UdfArg {
    Frame(usize),
    Value(Value),
}

/// What a step does to each frame row.
#[derive(Debug, Clone)]
enum StepKind {
    /// Join a stored relation: probe with this key, or (`None`) scan it or
    /// the driving rows.
    Join(Option<ProbeExec>),
    /// Look up the one row of a functional relation by its bound key.
    Keyed(Vec<IdSrc>),
    /// Keep the rows whose argument has the builtin type.
    Type { arg: TypeArg, ty: &'static str },
    /// Keep each row once per answer of the UDF called on its arguments.
    Udf { args: Vec<UdfArg> },
}

#[derive(Debug, Clone)]
struct StepExec {
    /// The relation a stored step reads, or the UDF a filter calls.
    pred: String,
    arity: usize,
    positions: Vec<PosSpec>,
    /// Literal positions that bind fresh frame columns, in order; position
    /// `fresh[i]` binds the `i`-th column the step appends to its input row.
    fresh: Vec<usize>,
    /// Append the matched tuple's [`TupleId`] after the fresh columns: a
    /// proof job's trail (stored steps only).
    trail: bool,
    kind: StepKind,
}

impl StepExec {
    /// The columns this step appends to a frame row.
    fn appends(&self) -> usize {
        self.fresh.len() + usize::from(self.trail)
    }
}

#[derive(Debug, Clone)]
struct HeadExec {
    pred: Arc<str>,
    srcs: Vec<IdSrc>,
}

/// A variable or a constant: what the batch shape admits in a head.
fn plain(term: &Term) -> bool {
    matches!(term, Term::Var(_) | Term::Const(_))
}

/// What the batch shape lacks for `term`, besides a variable, a constant or
/// a wildcard.
fn term_miss(term: &Term) -> Option<BatchMiss> {
    match term {
        Term::Var(_) | Term::Const(_) | Term::Wildcard => None,
        Term::SingletonRef(_) | Term::VarSeq(_) | Term::BinOp(..) => Some(BatchMiss::Expression),
    }
}

/// What the batch shape lacks for head term `term`: besides [`term_miss`],
/// a wildcard, which binds nothing to project (the tuple path refuses it).
fn head_term_miss(term: &Term) -> Option<BatchMiss> {
    match term {
        Term::Wildcard => Some(BatchMiss::Expression),
        term => term_miss(term),
    }
}

/// The earlier of two reasons in declaration order, either may be absent.
fn earlier(a: Option<BatchMiss>, b: Option<BatchMiss>) -> Option<BatchMiss> {
    match (a, b) {
        (Some(a), Some(b)) => Some(a.min(b)),
        (a, b) => a.or(b),
    }
}

/// The first [`BatchMiss`] `body`'s syntax shows (in declaration order), or
/// `None` when every literal is a positive atom with plain terms and
/// wildcards.  Most bodies the batch path declines say so here, before
/// anything is allocated; whether a UDF call has every argument bound is
/// the plan's to say ([`StepCompiler::steps`]).
fn body_miss(body: &[Literal]) -> Option<BatchMiss> {
    let mut first = None;
    let mut note = |miss| first = earlier(first, miss);
    for literal in body {
        match literal {
            Literal::Pos(atom) => {
                if runtime_pred_name(&atom.pred).is_err() {
                    note(Some(BatchMiss::Expression));
                }
                atom.terms.iter().for_each(|term| note(term_miss(term)));
            }
            Literal::Neg(atom) => {
                note(Some(BatchMiss::Negation));
                atom.terms.iter().for_each(|term| note(term_miss(term)));
            }
            Literal::Cmp(left, _, right) => {
                note(Some(BatchMiss::Comparison));
                note(term_miss(left));
                note(term_miss(right));
            }
        }
    }
    first
}

/// Compiles plan steps against the frame columns bound so far.
struct StepCompiler<'r, 'a> {
    relations: &'a Relations,
    udfs: &'a UdfRegistry,
    interner: &'a Arc<Interner>,
    /// The frame column of every variable bound so far.
    vars: FnvMap<&'r str, usize>,
    /// The frame's width so far.
    width: usize,
    /// A body constant is absent from the dictionary.
    impossible: bool,
}

impl<'r, 'a> StepCompiler<'r, 'a> {
    fn new(relations: &'a Relations, udfs: &'a UdfRegistry, interner: &'a Arc<Interner>) -> Self {
        StepCompiler {
            relations,
            udfs,
            interner,
            vars: FnvMap::default(),
            width: 0,
            impossible: false,
        }
    }

    /// Bind `var` to the next frame column (a seed the caller fills).
    fn seed(&mut self, var: &'r str) {
        self.vars.insert(var, self.width);
        self.width += 1;
    }

    /// The id of a body constant; one in no relation makes the body
    /// provably empty.
    fn constant(&mut self, value: &Value) -> Option<u32> {
        let id = self.interner.try_id(value);
        self.impossible |= id.is_none();
        id
    }

    /// One step per plan step of `body`, each appending a column per
    /// variable it binds first and, with `trail`, one for the `TupleId` a
    /// stored step matched.  `body` has no [`body_miss`]; what is left to
    /// decline is a UDF call with an unbound argument and a relation on a
    /// foreign dictionary.
    fn steps(
        &mut self,
        body: &'r [Literal],
        plan: &RulePlan,
        delta: Option<usize>,
        trail: bool,
    ) -> std::result::Result<Vec<StepExec>, BatchMiss> {
        let mut steps = Vec::with_capacity(plan.order.len());
        for step in &plan.order {
            let Literal::Pos(atom) = &body[step.literal] else {
                unreachable!("body_miss admits positive atoms only");
            };
            let pred = runtime_pred_name(&atom.pred).expect("body_miss admits runtime names only");
            if atom.terms.len() == 1 {
                if let Some(ty) = BUILTIN_TYPES.iter().copied().find(|ty| *ty == pred) {
                    steps.push(self.type_check(&atom.terms[0], ty));
                    continue;
                }
            }
            if self.udfs.is_udf(&pred) {
                steps.push(self.udf_filter(atom, pred.into_owned())?);
                continue;
            }
            if let Some(relation) = self.relations.get(&*pred) {
                if !Arc::ptr_eq(relation.interner(), self.interner) {
                    return Err(BatchMiss::ForeignDictionary);
                }
            }
            let mut positions = Vec::with_capacity(atom.terms.len());
            let mut fresh: Vec<usize> = Vec::new();
            let mut local: FnvMap<&str, usize> = FnvMap::default();
            for (pos, term) in atom.terms.iter().enumerate() {
                let spec = match term {
                    Term::Wildcard => PosSpec::Free,
                    Term::Const(value) => {
                        self.constant(value).map_or(PosSpec::Free, PosSpec::Const)
                    }
                    Term::Var(name) => {
                        if let Some(&col) = self.vars.get(name.as_str()) {
                            PosSpec::Bound(col)
                        } else if let Some(&first) = local.get(name.as_str()) {
                            PosSpec::Dup(first)
                        } else {
                            local.insert(name, pos);
                            fresh.push(pos);
                            PosSpec::Fresh
                        }
                    }
                    _ => unreachable!("body_miss admits plain terms only"),
                };
                positions.push(spec);
            }
            for (offset, &pos) in fresh.iter().enumerate() {
                if let Term::Var(name) = &atom.terms[pos] {
                    self.vars.insert(name, self.width + offset);
                }
            }
            self.width += fresh.len() + usize::from(trail);

            let is_delta = delta == Some(step.literal);
            let kind = match keyed(&positions, step.functional && !is_delta) {
                Some(key) => StepKind::Keyed(key),
                None => StepKind::Join(match step.probe {
                    Some(cols) if cols != 0 && !is_delta => probe_exec(&positions, cols),
                    _ => None,
                }),
            };
            steps.push(StepExec {
                pred: pred.into_owned(),
                arity: atom.terms.len(),
                positions,
                fresh,
                trail,
                kind,
            });
        }
        Ok(steps)
    }

    /// `ty(term)`: a bound variable's value is checked per row; a constant
    /// or an argument the tuple path sees unbound is decided here.
    fn type_check(&mut self, term: &Term, ty: &'static str) -> StepExec {
        let arg = match term {
            Term::Var(name) => match self.vars.get(name.as_str()) {
                Some(&col) => TypeArg::Frame(col),
                None => TypeArg::Fixed(false),
            },
            Term::Const(value) => TypeArg::Fixed(value.primitive_type() == ty),
            _ => TypeArg::Fixed(false),
        };
        StepExec {
            pred: ty.to_string(),
            arity: 1,
            positions: Vec::new(),
            fresh: Vec::new(),
            trail: false,
            kind: StepKind::Type { arg, ty },
        }
    }

    /// A UDF call whose every argument is bound; one that binds an output
    /// (or takes a wildcard) stays on the tuple path.
    fn udf_filter(
        &mut self,
        atom: &Atom,
        name: String,
    ) -> std::result::Result<StepExec, BatchMiss> {
        let args = atom
            .terms
            .iter()
            .map(|term| match term {
                Term::Var(var) => self.vars.get(var.as_str()).map(|&col| UdfArg::Frame(col)),
                Term::Const(value) => Some(UdfArg::Value(value.clone())),
                _ => None,
            })
            .collect::<Option<Vec<_>>>()
            .ok_or(BatchMiss::Udf)?;
        Ok(StepExec {
            pred: name,
            arity: args.len(),
            positions: Vec::new(),
            fresh: Vec::new(),
            trail: false,
            kind: StepKind::Udf { args },
        })
    }
}

/// The key of a functional literal the plan reaches with its key bound,
/// when every key position is a constant or a bound variable.
fn keyed(positions: &[PosSpec], functional: bool) -> Option<Vec<IdSrc>> {
    let (_, key) = positions.split_last().filter(|_| functional)?;
    key.iter()
        .map(|spec| match spec {
            PosSpec::Const(id) => Some(IdSrc::Const(*id)),
            PosSpec::Bound(col) => Some(IdSrc::Frame(*col)),
            _ => None,
        })
        .collect()
}

/// The probe of a step whose plan binds `cols`, or `None` when a probe bit
/// lands on a position the key cannot cover — an intra-literal duplicate,
/// or a constant missing from the dictionary — and the step scans instead.
fn probe_exec(positions: &[PosSpec], cols: u64) -> Option<ProbeExec> {
    let in_key = |pos: usize| pos < 64 && cols & (1u64 << pos) != 0;
    let mut key = Vec::new();
    for (pos, spec) in positions.iter().enumerate() {
        if !in_key(pos) {
            continue;
        }
        match spec {
            PosSpec::Const(id) => key.push(IdSrc::Const(*id)),
            PosSpec::Bound(col) => key.push(IdSrc::Frame(*col)),
            _ => return None,
        }
    }
    let cacheable = positions.iter().enumerate().all(|(pos, spec)| match spec {
        PosSpec::Const(_) | PosSpec::Bound(_) => in_key(pos),
        _ => true,
    });
    Some(ProbeExec {
        cols,
        key,
        cacheable,
        member: is_membership(positions.len(), cols),
    })
}

/// What a cached job was compiled against.  It serves an execution only on
/// the same dictionary, and one compiled while a body constant was in no
/// relation (`impossible`) only while the dictionary holds as many values
/// as before that compile: once the constant is interned — by the compile
/// itself, as a head constant, or later — the body may match.
#[derive(Debug, Clone)]
pub(crate) struct Stamp {
    interner: Arc<Interner>,
    impossible_at: Option<usize>,
    /// A constraint job's rhs plan: the job is stale once that recompiles.
    rhs: Option<Arc<RulePlan>>,
}

impl Stamp {
    /// The stamp of a job compiled from a dictionary of `len` values.
    fn new(
        interner: &Arc<Interner>,
        (len, impossible): (usize, bool),
        rhs: Option<&Arc<RulePlan>>,
    ) -> Stamp {
        Stamp {
            interner: Arc::clone(interner),
            impossible_at: impossible.then_some(len),
            rhs: rhs.cloned(),
        }
    }

    fn current(&self, interner: &Arc<Interner>, rhs: Option<&Arc<RulePlan>>) -> bool {
        Arc::ptr_eq(&self.interner, interner)
            && self.impossible_at.is_none_or(|len| len == interner.len())
            && match (&self.rhs, rhs) {
                (Some(then), Some(now)) => Arc::ptr_eq(then, now),
                (then, now) => then.is_none() && now.is_none(),
            }
    }
}

/// A compiled job, or why its body declined, as kept beside its plan.
#[derive(Debug, Clone)]
pub(crate) struct Compiled<J> {
    stamp: Stamp,
    job: std::result::Result<J, BatchMiss>,
}

/// The job kept beside one plan in the plan cache.
#[derive(Debug, Clone)]
pub(crate) enum Job {
    Rule(Box<Compiled<BatchJob>>),
    Proof(Box<Compiled<ProofJob>>),
    Constraint(Box<Compiled<ConstraintJob>>),
}

/// The job in `slot` when it is a current one of its kind, compiled (and
/// counted in `jobs_compiled`) otherwise.
fn cached<'s, J>(
    slot: &'s mut Option<Job>,
    stats: &PlanStats,
    current: impl Fn(&Stamp) -> bool,
    view: fn(&mut Job) -> Option<&mut Compiled<J>>,
    wrap: fn(Box<Compiled<J>>) -> Job,
    compile: impl FnOnce() -> Compiled<J>,
) -> std::result::Result<&'s mut J, BatchMiss> {
    let fresh = slot
        .as_mut()
        .and_then(view)
        .is_some_and(|compiled| current(&compiled.stamp));
    if !fresh {
        PlanStats::bump(&stats.batch_jobs_compiled);
        *slot = Some(wrap(Box::new(compile())));
    }
    let compiled = view(slot.as_mut().expect("just filled")).expect("of this kind");
    compiled.job.as_mut().map_err(|miss| *miss)
}

/// The batch job of `rule` under `plan`, its delta literal `delta`, from
/// `slot` or compiled into it.
#[allow(clippy::too_many_arguments)]
pub(crate) fn rule_job<'j>(
    slot: &'j mut Option<Job>,
    rule: &Rule,
    plan: &RulePlan,
    delta: Option<usize>,
    relations: &Relations,
    udfs: &UdfRegistry,
    interner: &Arc<Interner>,
    stats: &PlanStats,
) -> std::result::Result<&'j mut BatchJob, BatchMiss> {
    cached(
        slot,
        stats,
        |stamp| stamp.current(interner, None),
        |job| match job {
            Job::Rule(compiled) => Some(&mut **compiled),
            _ => None,
        },
        Job::Rule,
        || {
            let len = interner.len();
            let job = compile_batch(rule, plan, delta, relations, udfs, interner);
            let impossible = job.as_ref().is_ok_and(|job| job.impossible);
            Compiled {
                stamp: Stamp::new(interner, (len, impossible), None),
                job,
            }
        },
    )
}

/// A rule body compiled to id-space batch steps.
#[derive(Debug, Clone)]
pub(crate) struct BatchJob {
    steps: Vec<StepExec>,
    heads: Vec<HeadExec>,
    /// Step 0 is the delta literal: the driving rows replace its scan.
    delta: bool,
    /// A body constant is absent from the dictionary: no stored tuple can
    /// match, so the derivation is provably empty.
    impossible: bool,
    scratch: Scratch,
    driving: IdBatch,
}

/// Compile `rule` for batch execution, or say why it falls outside the
/// batch-executable shape ([`BatchMiss`]).  Head existentials never reach
/// here (`Evaluator::evaluate_round` runs them on their own path).  Head
/// constants are interned here.
pub(crate) fn compile_batch(
    rule: &Rule,
    plan: &RulePlan,
    delta: Option<usize>,
    relations: &Relations,
    udfs: &UdfRegistry,
    interner: &Arc<Interner>,
) -> std::result::Result<BatchJob, BatchMiss> {
    if rule.agg.is_some() {
        return Err(BatchMiss::Aggregate);
    }
    let head_miss = rule
        .head
        .iter()
        .flat_map(|atom| &atom.terms)
        .filter_map(head_term_miss)
        .min();
    if let Some(miss) = earlier(body_miss(&rule.body), head_miss) {
        return Err(miss);
    }
    if plan.order.is_empty() {
        return Err(BatchMiss::EmptyBody);
    }
    let mut compiler = StepCompiler::new(relations, udfs, interner);
    let steps = compiler.steps(&rule.body, plan, delta, false)?;
    if delta.is_some_and(|literal| plan.order[0].literal != literal) {
        return Err(BatchMiss::DeltaNotFirst);
    }

    let mut heads = Vec::with_capacity(rule.head.len());
    for atom in &rule.head {
        let pred = runtime_pred_name(&atom.pred).map_err(|_| BatchMiss::Expression)?;
        let mut srcs = Vec::with_capacity(atom.terms.len());
        for term in &atom.terms {
            srcs.push(match term {
                Term::Var(name) => match compiler.vars.get(name.as_str()) {
                    Some(&col) => IdSrc::Frame(col),
                    None => return Err(BatchMiss::Expression),
                },
                Term::Const(value) => IdSrc::Const(interner.intern(value)),
                _ => unreachable!("head_term_miss admits plain head terms only"),
            });
        }
        heads.push(HeadExec {
            pred: Arc::from(&*pred),
            srcs,
        });
    }

    Ok(BatchJob {
        steps,
        heads,
        delta: delta.is_some(),
        impossible: compiler.impossible,
        scratch: Scratch::default(),
        driving: IdBatch::new(0),
    })
}

/// What a step pipeline reads: the relations, the UDFs its filters call,
/// the dictionary they all share, and the counters it bumps.
#[derive(Clone, Copy)]
pub(crate) struct Exec<'a> {
    pub relations: &'a Relations,
    pub udfs: &'a UdfRegistry,
    pub interner: &'a Interner,
    pub stats: &'a PlanStats,
}

/// A binding frame: one row of `u32` ids per partial solution, `width` ids
/// per row (a column per bound variable, and in a proof job one per matched
/// tuple), packed row-major in one buffer so a step appends its output rows
/// without a per-column allocation.
#[derive(Debug, Clone, Default)]
struct Frame {
    width: usize,
    len: usize,
    data: Vec<u32>,
}

impl Frame {
    fn row(&self, index: usize) -> &[u32] {
        &self.data[index * self.width..][..self.width]
    }

    /// Empty the frame for rows of `width` ids, keeping its buffer.
    fn reset(&mut self, width: usize) {
        self.width = width;
        self.len = 0;
        self.data.clear();
    }

    /// The frame as one row of `row`.
    fn seed(&mut self, row: &[u32]) {
        self.reset(row.len());
        self.data.extend_from_slice(row);
        self.len = 1;
    }
}

/// A frame buffer larger than this many ids is freed after the execution
/// that grew it (a naive round's scan or a bootstrap batch's delta), so a
/// cached job holds a steady-state delta's worth of memory, not its largest
/// frame's.
const KEPT_FRAME_IDS: usize = 64;

/// Free `ids`' buffer when an execution grew it past [`KEPT_FRAME_IDS`].
fn trim_ids(ids: &mut Vec<u32>) {
    if ids.capacity() > KEPT_FRAME_IDS {
        *ids = Vec::new();
    }
}

/// The buffers a step pipeline reuses from step to step — the frame, the one
/// the next step fills, and a step's row-sized scratch — and a job from
/// execution to execution.
#[derive(Debug, Clone, Default)]
struct Scratch {
    frame: Frame,
    spare: Frame,
    row: IdRow,
    fresh: IdRow,
    key: IdRow,
    args: Vec<Option<Value>>,
}

impl Scratch {
    /// Free what a large execution left behind.
    fn trim(&mut self) {
        trim_ids(&mut self.frame.data);
        trim_ids(&mut self.spare.data);
        self.args.clear();
    }
}

/// Run `steps` on `scratch.frame`, leaving the result there.  The delta
/// rows, when given, override step 0's scan.
fn run_steps(
    steps: &[StepExec],
    driving: Option<&IdBatch>,
    exec: Exec<'_>,
    scratch: &mut Scratch,
) -> Result<()> {
    for (index, step) in steps.iter().enumerate() {
        if scratch.frame.len == 0 {
            break;
        }
        extend_frame(step, driving.filter(|_| index == 0), exec, scratch)?;
        std::mem::swap(&mut scratch.frame, &mut scratch.spare);
    }
    Ok(())
}

/// Execute a compiled batch job — the step pipeline, then the head
/// projection — and return canonicalized (sorted, deduplicated) id rows per
/// head predicate.  A delta job's driving rows are `delta`'s; `Err(miss)`
/// when one holds a value the dictionary lacks.  Read-only over the
/// relations.
pub(crate) fn execute_batch(
    job: &mut BatchJob,
    delta: Option<&FnvSet<Tuple>>,
    exec: Exec<'_>,
) -> Result<std::result::Result<HeadRows, BatchMiss>> {
    if let Some(tuples) = delta.filter(|_| job.delta) {
        let arity = job.steps[0].arity;
        let buffers = (&mut job.driving, &mut job.scratch.row);
        if !encode_rows(tuples, arity, exec.interner, buffers) {
            return Ok(Err(BatchMiss::ForeignDictionary));
        }
    }
    if job.impossible {
        return Ok(Ok(Vec::new()));
    }
    let scratch = &mut job.scratch;
    scratch.frame.seed(&[]);
    let driving = job.delta.then_some(&job.driving);
    run_steps(&job.steps, driving, exec, scratch)?;
    let frame = &scratch.frame;
    if frame.len == 0 {
        scratch.trim();
        trim_ids(&mut job.driving.data);
        return Ok(Ok(Vec::new()));
    }
    let mut out: HeadRows = Vec::with_capacity(job.heads.len());
    {
        for head in &job.heads {
            let mut batch = IdBatch::new(head.srcs.len());
            batch.data.reserve(frame.len * head.srcs.len());
            for i in 0..frame.len {
                let row = frame.row(i);
                for src in &head.srcs {
                    batch.data.push(match src {
                        IdSrc::Frame(col) => row[*col],
                        IdSrc::Const(id) => *id,
                    });
                }
            }
            batch.rows = frame.len;
            out.push((Arc::clone(&head.pred), batch));
        }
    }
    scratch.trim();
    trim_ids(&mut job.driving.data);
    Ok(Ok(canonicalize(out)))
}

/// The proof job of head atom `head` of `rule` under `plan`, from `slot` or
/// compiled into it.
#[allow(clippy::too_many_arguments)]
pub(crate) fn proof_job<'j>(
    slot: &'j mut Option<Job>,
    rule: &Rule,
    head: usize,
    plan: &RulePlan,
    relations: &Relations,
    udfs: &UdfRegistry,
    interner: &Arc<Interner>,
    stats: &PlanStats,
) -> Option<&'j mut ProofJob> {
    cached(
        slot,
        stats,
        |stamp| stamp.current(interner, None),
        |job| match job {
            Job::Proof(compiled) => Some(&mut **compiled),
            _ => None,
        },
        Job::Proof,
        || {
            let len = interner.len();
            let job = compile_proof(rule, head, plan, relations, udfs, interner);
            let impossible = job.as_ref().is_ok_and(|job| job.impossible);
            Compiled {
                stamp: Stamp::new(interner, (len, impossible), None),
                job,
            }
        },
    )
    .ok()
}

/// The proof job in `slot`, if one compiled there ([`proof_job`]).
pub(crate) fn compiled_proof(slot: &mut Option<Job>) -> Option<&mut ProofJob> {
    match slot {
        Some(Job::Proof(compiled)) => compiled.job.as_mut().ok(),
        _ => None,
    }
}

/// A rule body compiled to run backwards from one stored fact of one of its
/// head atoms, as a retraction's proof search does (`eval::dred`): the
/// fact's ids seed a one-row frame, every stored step appends the
/// [`TupleId`] it matched, and each solution's trail says which stored facts
/// that instance of the rule used.  It keeps its buffers from fact to fact.
#[derive(Debug, Clone)]
pub(crate) struct ProofJob {
    /// Per head position: a fresh frame column, a repeat of an earlier
    /// column, or a constant the fact must hold there.
    head: Vec<PosSpec>,
    steps: Vec<StepExec>,
    /// Per stored step, in plan order: the body literal it runs and the
    /// frame column its trail lands in.
    trail: Vec<(usize, usize)>,
    impossible: bool,
    scratch: Scratch,
    /// One row per instance of the last run: the trail's `TupleId`s.
    instances: IdBatch,
}

/// Compile head atom `head` of `rule` and its body, planned under that
/// atom's variables, into a [`ProofJob`]; a [`BatchMiss`] outside the batch
/// shape (what [`compile_batch`] declines, and an expression in the head).
/// Reads the dictionary without adding to it.
pub(crate) fn compile_proof(
    rule: &Rule,
    head: usize,
    plan: &RulePlan,
    relations: &Relations,
    udfs: &UdfRegistry,
    interner: &Arc<Interner>,
) -> std::result::Result<ProofJob, BatchMiss> {
    let atom = &rule.head[head];
    if rule.agg.is_some() {
        return Err(BatchMiss::Aggregate);
    }
    if plan.order.is_empty() {
        return Err(BatchMiss::EmptyBody);
    }
    if let Some(miss) = body_miss(&rule.body) {
        return Err(miss);
    }
    if !atom.terms.iter().all(plain) {
        return Err(BatchMiss::Expression);
    }
    let mut compiler = StepCompiler::new(relations, udfs, interner);
    let mut seed = Vec::with_capacity(atom.terms.len());
    for term in &atom.terms {
        seed.push(match term {
            Term::Var(name) => match compiler.vars.get(name.as_str()) {
                Some(&col) => PosSpec::Bound(col),
                None => {
                    compiler.seed(name);
                    PosSpec::Fresh
                }
            },
            Term::Const(value) => compiler
                .constant(value)
                .map_or(PosSpec::Free, PosSpec::Const),
            _ => unreachable!("plain head terms only"),
        });
    }
    let mut width = compiler.width;
    let steps = compiler.steps(&rule.body, plan, None, true)?;
    let mut trail = Vec::new();
    for (step, exec) in plan.order.iter().zip(&steps) {
        width += exec.appends();
        if exec.trail {
            trail.push((step.literal, width - 1));
        }
    }
    Ok(ProofJob {
        head: seed,
        instances: IdBatch::new(trail.len()),
        steps,
        trail,
        impossible: compiler.impossible,
        scratch: Scratch::default(),
    })
}

impl ProofJob {
    /// The body literal behind each column of [`Self::run`]'s rows.
    pub(crate) fn literals(&self) -> impl Iterator<Item = usize> + '_ {
        self.trail.iter().map(|&(literal, _)| literal)
    }

    /// Every instance of the rule whose head is the stored fact with id row
    /// `row`: one row per instance, the `TupleId` each stored body literal
    /// matched, in [`Self::literals`] order.  Read-only over the relations.
    pub(crate) fn run(&mut self, row: &[u32], exec: Exec<'_>) -> Result<&IdBatch> {
        self.instances.data.clear();
        self.instances.rows = 0;
        if self.impossible || row.len() != self.head.len() {
            return Ok(&self.instances);
        }
        let frame = &mut self.scratch.frame;
        frame.reset(0);
        for (&id, spec) in row.iter().zip(&self.head) {
            let holds = match spec {
                PosSpec::Fresh => {
                    frame.data.push(id);
                    true
                }
                PosSpec::Bound(col) => frame.data[*col] == id,
                PosSpec::Const(constant) => *constant == id,
                PosSpec::Dup(_) | PosSpec::Free => false,
            };
            if !holds {
                return Ok(&self.instances);
            }
        }
        frame.width = frame.data.len();
        frame.len = 1;
        run_steps(&self.steps, None, exec, &mut self.scratch)?;
        let frame = &self.scratch.frame;
        for i in 0..frame.len {
            let row = frame.row(i);
            self.instances
                .data
                .extend(self.trail.iter().map(|&(_, col)| row[col]));
        }
        self.instances.rows = frame.len;
        self.scratch.trim();
        Ok(&self.instances)
    }
}

/// How a constraint check is driven: the added tuples of the delta-pinned
/// lhs literal, or the changed tuples of a witness literal, each binding the
/// variables that literal shares with the lhs.
#[derive(Clone, Copy)]
pub(crate) enum Drive<'d> {
    Delta(&'d FnvSet<Tuple>),
    Witnesses(&'d FnvSet<Tuple>),
}

/// The changed literal of a witness-driven check, and what yields the
/// variables it shares with the lhs (computed only when a job compiles).
pub(crate) type Witness<'a> = (&'a Atom, &'a dyn Fn() -> Vec<String>);

/// What a constraint job decided.
#[derive(Debug, PartialEq)]
pub(crate) enum Verdict {
    /// Every lhs row has an rhs row.
    Holds,
    /// The first lhs row without one, rendered as the tuple path renders a
    /// violation's witness.
    Violated(String),
}

/// Where a witness-driven check's seeds come from: the changed literal's
/// shape, matched in id space.
#[derive(Debug, Clone)]
struct SeedSpec {
    arity: usize,
    /// Positions a matching tuple must hold a constant at (`None`: a
    /// constant in no relation, so no stored tuple matches).
    consts: Vec<(usize, Option<u32>)>,
    /// Pairs of positions a repeated variable makes equal.
    repeats: Vec<(usize, usize)>,
    /// The first position of each shared variable, in seed-column order.
    take: Vec<usize>,
}

/// A constraint `lhs -> rhs` compiled to run in id space from one lhs plan
/// key: the lhs pipeline, then the rhs as an existence check from each lhs
/// row.
#[derive(Debug, Clone)]
pub(crate) struct ConstraintJob {
    lhs: Vec<StepExec>,
    rhs: Vec<StepExec>,
    lhs_impossible: bool,
    rhs_impossible: bool,
    /// A witness check: the seed columns each changed tuple fills.
    seeds: Option<SeedSpec>,
    /// The variable behind each lhs frame column, for the witness.
    names: Vec<String>,
    scratch: Scratch,
    rhs_scratch: Scratch,
    driving: IdBatch,
}

/// The constraint job of `constraint` under the lhs plan `lhs` (whose key
/// pins `delta`, or starts from the variables `shared` of the changed
/// literal `witness`, literal `witness.0` of lhs then rhs) and the rhs plan
/// `rhs`, from `slot` or compiled into it.
#[allow(clippy::too_many_arguments)]
pub(crate) fn constraint_job<'j>(
    slot: &'j mut Option<Job>,
    constraint: &Constraint,
    (lhs, rhs): (&RulePlan, &Arc<RulePlan>),
    delta: Option<usize>,
    witness: Option<Witness<'_>>,
    relations: &Relations,
    udfs: &UdfRegistry,
    interner: &Arc<Interner>,
    stats: &PlanStats,
) -> std::result::Result<&'j mut ConstraintJob, BatchMiss> {
    cached(
        slot,
        stats,
        |stamp| stamp.current(interner, Some(rhs)),
        |job| match job {
            Job::Constraint(compiled) => Some(&mut **compiled),
            _ => None,
        },
        Job::Constraint,
        || {
            let len = interner.len();
            let job = compile_constraint(
                constraint,
                (lhs, rhs),
                delta,
                witness,
                relations,
                udfs,
                interner,
            );
            let impossible = job
                .as_ref()
                .is_ok_and(|job| job.lhs_impossible || job.rhs_impossible);
            Compiled {
                stamp: Stamp::new(interner, (len, impossible), Some(rhs)),
                job,
            }
        },
    )
}

fn compile_constraint(
    constraint: &Constraint,
    (lhs_plan, rhs_plan): (&RulePlan, &RulePlan),
    delta: Option<usize>,
    witness: Option<Witness<'_>>,
    relations: &Relations,
    udfs: &UdfRegistry,
    interner: &Arc<Interner>,
) -> std::result::Result<ConstraintJob, BatchMiss> {
    if let Some(miss) = earlier(body_miss(&constraint.lhs), body_miss(&constraint.rhs)) {
        return Err(miss);
    }
    let mut compiler = StepCompiler::new(relations, udfs, interner);
    let shared = witness.map(|(_, shared)| shared()).unwrap_or_default();
    for var in &shared {
        compiler.seed(var);
    }
    let seeds = witness.map(|(atom, _)| seed_spec(atom, &shared, &mut compiler));
    let lhs = compiler.steps(&constraint.lhs, lhs_plan, delta, false)?;
    if let Some(literal) = delta {
        if lhs_plan.order.first().map(|step| step.literal) != Some(literal) {
            return Err(BatchMiss::DeltaNotFirst);
        }
    }
    let lhs_impossible = std::mem::take(&mut compiler.impossible);
    let mut names = vec![String::new(); compiler.width];
    for (var, &col) in &compiler.vars {
        names[col] = var.to_string();
    }
    let rhs = compiler.steps(&constraint.rhs, rhs_plan, None, false)?;
    Ok(ConstraintJob {
        lhs,
        rhs,
        lhs_impossible,
        rhs_impossible: compiler.impossible,
        seeds,
        names,
        scratch: Scratch::default(),
        rhs_scratch: Scratch::default(),
        driving: IdBatch::new(0),
    })
}

/// How a changed tuple of `atom` seeds the `shared` columns.
fn seed_spec(atom: &Atom, shared: &[String], compiler: &mut StepCompiler<'_, '_>) -> SeedSpec {
    let mut consts = Vec::new();
    let mut repeats = Vec::new();
    let mut first: Vec<(&str, usize)> = Vec::new();
    for (pos, term) in atom.terms.iter().enumerate() {
        match term {
            Term::Const(value) => consts.push((pos, compiler.interner.try_id(value))),
            Term::Var(var) => match first.iter().find(|(name, _)| name == var) {
                Some(&(_, at)) => repeats.push((at, pos)),
                None => first.push((var, pos)),
            },
            _ => {}
        }
    }
    let take = shared
        .iter()
        .map(|var| {
            let first = first.iter().find(|(name, _)| name == var);
            first
                .expect("a shared variable is a variable of the atom")
                .1
        })
        .collect();
    SeedSpec {
        arity: atom.terms.len(),
        consts,
        repeats,
        take,
    }
}

impl ConstraintJob {
    /// Check the constraint as `drive` says.  `Err(miss)` when a driving
    /// tuple holds a value the dictionary lacks; the tuple path decides
    /// then.  Read-only over the relations.
    pub(crate) fn check(
        &mut self,
        drive: Drive<'_>,
        exec: Exec<'_>,
    ) -> Result<std::result::Result<Verdict, BatchMiss>> {
        match drive {
            Drive::Delta(tuples) => {
                let arity = self.lhs[0].arity;
                let buffers = (&mut self.driving, &mut self.scratch.row);
                if !encode_rows(tuples, arity, exec.interner, buffers) {
                    return Ok(Err(BatchMiss::ForeignDictionary));
                }
                if self.lhs_impossible {
                    return Ok(Ok(Verdict::Holds));
                }
                self.scratch.frame.seed(&[]);
                self.run_frame(true, exec).map(Ok)
            }
            Drive::Witnesses(tuples) => {
                let Some(seeds) = self.seeds(tuples, exec.interner) else {
                    return Ok(Err(BatchMiss::ForeignDictionary));
                };
                if !self.lhs_impossible {
                    for seed in &seeds {
                        self.scratch.frame.seed(seed);
                        let verdict = self.run_frame(false, exec)?;
                        if verdict != Verdict::Holds {
                            return Ok(Ok(verdict));
                        }
                    }
                }
                Ok(Ok(Verdict::Holds))
            }
        }
    }

    /// The distinct values the changed `tuples` give the shared variables,
    /// in the order the tuples first give them; a tuple that disagrees with
    /// a constant or a repeated variable of the literal matched it under no
    /// binding and gives none.  `None` when a tuple holds a value the
    /// dictionary lacks.
    fn seeds(&self, tuples: &FnvSet<Tuple>, interner: &Interner) -> Option<Vec<IdRow>> {
        let spec = self.seeds.as_ref().expect("a witness job has seeds");
        let mut seen: FnvSet<IdRow> = FnvSet::default();
        let mut seeds = Vec::new();
        let mut ids = Vec::new();
        for tuple in tuples {
            if tuple.len() != spec.arity {
                continue;
            }
            if !interner.try_row(tuple, &mut ids) {
                return None;
            }
            let matches = spec.consts.iter().all(|&(pos, id)| id == Some(ids[pos]))
                && spec.repeats.iter().all(|&(a, b)| ids[a] == ids[b]);
            if matches {
                let seed: IdRow = spec.take.iter().map(|&pos| ids[pos]).collect();
                if seen.insert(seed.clone()) {
                    seeds.push(seed);
                }
            }
        }
        Some(seeds)
    }

    /// Run the lhs on the seeded frame, then the rhs from each lhs row in
    /// order: the first row with no rhs row is the violation.
    fn run_frame(&mut self, delta: bool, exec: Exec<'_>) -> Result<Verdict> {
        let driving = delta.then_some(&self.driving);
        run_steps(&self.lhs, driving, exec, &mut self.scratch)?;
        let frame = &self.scratch.frame;
        let mut verdict = Verdict::Holds;
        for i in 0..frame.len {
            let row = frame.row(i);
            let held = !self.rhs_impossible && {
                self.rhs_scratch.frame.seed(row);
                run_steps(&self.rhs, None, exec, &mut self.rhs_scratch)?;
                self.rhs_scratch.frame.len > 0
            };
            if !held {
                let mut bindings = Bindings::new();
                let values = exec.interner.values();
                for (name, &id) in self.names.iter().zip(row) {
                    bindings.bind(name, values.get(id).clone());
                }
                verdict = Verdict::Violated(bindings.render());
                break;
            }
        }
        self.scratch.trim();
        self.rhs_scratch.trim();
        trim_ids(&mut self.driving.data);
        Ok(verdict)
    }
}

/// Join one step against `scratch.frame`, filling `scratch.spare` with the
/// extended (or filtered) frame.
fn extend_frame(
    step: &StepExec,
    driving: Option<&IdBatch>,
    exec: Exec<'_>,
    scratch: &mut Scratch,
) -> Result<()> {
    let Scratch {
        frame,
        spare: out,
        row: scratch,
        fresh: fresh_vals,
        key,
        args,
    } = scratch;
    let frame: &Frame = frame;
    out.reset(frame.width + step.appends());
    let mut emit = |frame_row: usize, fresh_vals: &[u32]| {
        out.data.extend_from_slice(frame.row(frame_row));
        out.data.extend_from_slice(fresh_vals);
        out.len += 1;
    };
    // The fresh columns of a match, then its `TupleId` when the step keeps a
    // trail.
    let matched = |fresh_vals: &mut IdRow, row: &[u32], id: Option<TupleId>| {
        fresh_vals.clear();
        fresh_vals.extend(step.fresh.iter().map(|&pos| row[pos]));
        fresh_vals.extend(id.filter(|_| step.trail));
    };
    let stats = exec.stats;

    let probe = match &step.kind {
        StepKind::Type { arg, ty } => {
            let values = exec.interner.values();
            for i in 0..frame.len {
                let holds = match arg {
                    TypeArg::Frame(col) => values.get(frame.row(i)[*col]).primitive_type() == *ty,
                    TypeArg::Fixed(holds) => *holds,
                };
                if holds {
                    emit(i, &[]);
                }
            }
            return Ok(());
        }
        StepKind::Udf { args: sources } => {
            for i in 0..frame.len {
                // Rehydrate under one guard and drop it before the call: a
                // UDF may take the dictionary's lock, and a read held across
                // it deadlocks behind a queued writer.
                let frame_row = frame.row(i);
                args.clear();
                let values = exec.interner.values();
                args.extend(sources.iter().map(|source| {
                    Some(match source {
                        UdfArg::Frame(col) => values.get(frame_row[*col]).clone(),
                        UdfArg::Value(value) => value.clone(),
                    })
                }));
                drop(values);
                let rows =
                    exec.udfs
                        .call(&step.pred, &args[..])
                        .map_err(|message| DatalogError::Udf {
                            function: step.pred.clone(),
                            message,
                        })?;
                // As the tuple path does: the row goes on once per answer
                // equal to its arguments.
                let answers = rows
                    .iter()
                    .filter(|answer| {
                        answer.len() == args.len()
                            && answer
                                .iter()
                                .zip(args.iter())
                                .all(|(v, a)| a.as_ref() == Some(v))
                    })
                    .count();
                for _ in 0..answers {
                    emit(i, &[]);
                }
            }
            return Ok(());
        }
        StepKind::Keyed(srcs) => {
            let Some(relation) = exec.relations.get(&step.pred) else {
                return Ok(());
            };
            let keyed = relation.key_arity() == Some(srcs.len());
            let scan = relation
                .group(step.arity)
                .map_or(&[][..], |g| g.tuple_ids());
            for i in 0..frame.len {
                let frame_row = frame.row(i);
                key.clear();
                key.extend(srcs.iter().map(|src| match src {
                    IdSrc::Frame(col) => frame_row[*col],
                    IdSrc::Const(id) => *id,
                }));
                let found;
                let candidates: &[TupleId] = if keyed {
                    found = relation.find_key(key);
                    if found.is_some() {
                        PlanStats::bump(&stats.functional_hits);
                    }
                    found.as_slice()
                } else {
                    PlanStats::bump(&stats.full_scans);
                    PlanStats::add(&stats.rows_examined, scan.len());
                    scan
                };
                for &id in candidates {
                    relation.row_ids(id, scratch);
                    if scratch.len() == step.arity
                        && verify(&step.positions, scratch, |col| frame_row[col])
                    {
                        matched(fresh_vals, scratch, Some(id));
                        emit(i, fresh_vals);
                    }
                }
            }
            return Ok(());
        }
        StepKind::Join(probe) => probe,
    };

    // The delta rows drive the step: each is checked against each frame row
    // in place.
    if let Some(batch) = driving {
        debug_assert!(!step.trail, "a proof job has no delta");
        debug_assert_eq!(batch.stride, step.arity);
        for i in 0..frame.len {
            let frame_row = frame.row(i);
            for row in batch.iter() {
                if verify(&step.positions, row, |col| frame_row[col]) {
                    matched(fresh_vals, row, None);
                    emit(i, fresh_vals);
                }
            }
        }
        return Ok(());
    }

    let relation = exec.relations.get(&step.pred);
    debug_assert!(
        relation.is_none_or(|r| std::ptr::eq(&**r.interner(), exec.interner)),
        "relation {} is on another dictionary than the job's",
        step.pred
    );

    if let Some(probe) = probe {
        let Some(relation) = relation else {
            return Ok(());
        };
        if probe.member {
            // The key is the whole row: nothing to bind, no candidates.
            for i in 0..frame.len {
                let frame_row = frame.row(i);
                key.clear();
                key.extend(probe.key.iter().map(|src| match src {
                    IdSrc::Frame(col) => frame_row[*col],
                    IdSrc::Const(id) => *id,
                }));
                PlanStats::bump(&stats.index_probes);
                if let Some(id) = relation.find_row(key) {
                    matched(fresh_vals, key, Some(id));
                    emit(i, fresh_vals);
                }
            }
            return Ok(());
        }
        // Per-distinct-key cache of verified matches (each match = the
        // values the step appends).  Keyed by the key's content hash; the
        // stored key guards against collisions (a mismatch bypasses the
        // cache).  Keys and matches live in two flat arenas so cache entries
        // are three integers — no per-entry allocation.
        let match_len = step.appends();
        let key_len = probe.key.len();
        let mut key_arena: Vec<u32> = Vec::new();
        let mut match_arena: Vec<u32> = Vec::new();
        // hash -> (key arena offset, match arena offset, match row count)
        let mut cache: PassMap<(u32, u32, u32)> = PassMap::default();
        // A cache over all-distinct keys pays an insert per frame row and
        // never hits — always so for a one-row frame; after a warm-up window
        // with almost no hits, stop maintaining it.  Purely a speed knob:
        // the emitted matches are identical either way.
        let mut caching = probe.cacheable && frame.len > 1;
        let mut lookups = 0usize;
        let mut hits = 0usize;
        // Resolve the index once per step; the plan ensured it, so a miss
        // means the relation was recreated since — fall back to scanning
        // the column group per key (candidates are verified regardless).
        let index = relation.index_map(probe.cols);
        let fallback: &[u32] = relation
            .group(step.arity)
            .map(|g| g.tuple_ids())
            .unwrap_or(&[]);
        for i in 0..frame.len {
            let frame_row = frame.row(i);
            key.clear();
            for src in &probe.key {
                key.push(match src {
                    IdSrc::Frame(col) => frame_row[*col],
                    IdSrc::Const(id) => *id,
                });
            }
            let hash = fnv_ids(probe.cols, key.iter().copied());
            if caching {
                lookups += 1;
                if let Some(&(key_at, match_at, match_rows)) = cache.get(&hash) {
                    if key_arena[key_at as usize..][..key_len] == key[..] {
                        hits += 1;
                        for m in 0..match_rows as usize {
                            let vals =
                                &match_arena[match_at as usize + m * match_len..][..match_len];
                            emit(i, vals);
                        }
                        continue;
                    }
                }
                if lookups == 512 && hits * 8 < lookups {
                    caching = false;
                }
            }
            PlanStats::bump(&stats.index_probes);
            let candidates: &[u32] = match index {
                Some(map) => map.get(&hash).map_or(&[], Bucket::as_slice),
                None => fallback,
            };
            PlanStats::add(&stats.rows_examined, candidates.len());
            let match_at = match_arena.len();
            let mut match_rows = 0u32;
            for &id in candidates {
                relation.row_ids(id, scratch);
                if scratch.len() != step.arity {
                    continue;
                }
                if !verify(&step.positions, scratch, |col| frame_row[col]) {
                    continue;
                }
                matched(fresh_vals, scratch, Some(id));
                emit(i, fresh_vals);
                if caching {
                    match_arena.extend_from_slice(fresh_vals);
                    match_rows += 1;
                }
            }
            if caching {
                let key_at = key_arena.len() as u32;
                key_arena.extend_from_slice(key);
                cache.insert(hash, (key_at, match_at as u32, match_rows));
            }
        }
        return Ok(());
    }

    // Scan step: pre-filter candidates on frame-independent constraints
    // (constants, intra-literal duplicates), then check the frame-dependent
    // `Bound` positions per frame row.  A trailing step keeps each
    // candidate's `TupleId` after its ids.
    let Some(relation) = relation else {
        return Ok(());
    };
    PlanStats::bump(&stats.full_scans);
    let mut candidates = IdBatch::new(step.arity + usize::from(step.trail));
    if let Some(group) = relation.group(step.arity) {
        PlanStats::add(&stats.rows_examined, group.rows());
        for (index, &id) in group.tuple_ids().iter().enumerate() {
            scratch.clear();
            scratch.extend((0..group.arity()).map(|col| group.col(col)[index]));
            if verify_static(&step.positions, scratch) {
                if step.trail {
                    scratch.push(id);
                }
                candidates.push_row(scratch);
            }
        }
    }
    for i in 0..frame.len {
        let frame_row = frame.row(i);
        for candidate in candidates.iter() {
            let bound_agree = step
                .positions
                .iter()
                .enumerate()
                .all(|(pos, spec)| match spec {
                    PosSpec::Bound(col) => candidate[pos] == frame_row[*col],
                    _ => true,
                });
            if bound_agree {
                matched(fresh_vals, candidate, candidate.get(step.arity).copied());
                emit(i, fresh_vals);
            }
        }
    }
    Ok(())
}

/// Check every constrained position of a candidate row (which subsumes
/// probe-hash collision filtering: all key positions are re-verified).
fn verify(positions: &[PosSpec], row: &[u32], frame_val: impl Fn(usize) -> u32) -> bool {
    positions.iter().enumerate().all(|(pos, spec)| match spec {
        PosSpec::Const(id) => row[pos] == *id,
        PosSpec::Bound(col) => row[pos] == frame_val(*col),
        PosSpec::Dup(first) => row[pos] == row[*first],
        PosSpec::Fresh | PosSpec::Free => true,
    })
}

/// The frame-independent part of [`verify`].
fn verify_static(positions: &[PosSpec], row: &[u32]) -> bool {
    positions.iter().enumerate().all(|(pos, spec)| match spec {
        PosSpec::Const(id) => row[pos] == *id,
        PosSpec::Dup(first) => row[pos] == row[*first],
        _ => true,
    })
}

/// Merge per-head buffers by predicate, then sort and deduplicate the rows —
/// the canonical form that makes the output independent of enumeration
/// order and caching.
fn canonicalize(mut buffers: HeadRows) -> HeadRows {
    if let [(_, batch)] = &mut buffers[..] {
        batch.sort_dedup();
        return buffers;
    }
    let mut out: HeadRows = Vec::new();
    for (pred, batch) in buffers {
        match out.iter_mut().find(|(existing, _)| *existing == pred) {
            Some((_, existing)) => existing.append(&batch),
            None => out.push((pred, batch)),
        }
    }
    out.sort_by(|a, b| a.0.cmp(&b.0));
    for (_, batch) in &mut out {
        batch.sort_dedup();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::plan::{compile_body_plan, PlanStats};
    use crate::parser::parse_rule;
    use crate::relation::Relation;
    use crate::value::Value;

    fn setup(facts: &[(&str, Vec<Value>)]) -> (Relations, Arc<Interner>) {
        let interner = Arc::new(Interner::new());
        let mut relations = Relations::default();
        for (pred, tuple) in facts {
            // `f` is functional on its first column.
            let key_arity = (*pred == "f").then_some(1);
            relations
                .entry(pred.to_string())
                .or_insert_with(|| Relation::with_interner(*pred, key_arity, Arc::clone(&interner)))
                .insert(tuple.clone())
                .unwrap();
        }
        (relations, interner)
    }

    type Derived = Vec<(String, Vec<Value>)>;

    fn rehydrate(interner: &Interner, batches: HeadRows) -> Derived {
        let mut out = Vec::new();
        for (pred, batch) in batches {
            for row in batch.iter() {
                out.push((pred.to_string(), interner.resolve_row(row)));
            }
        }
        out
    }

    fn run_with(
        source: &str,
        facts: &[(&str, Vec<Value>)],
        build_indexes: bool,
        udfs: &UdfRegistry,
    ) -> std::result::Result<(Derived, PlanStats), BatchMiss> {
        let (mut relations, interner) = setup(facts);
        let rule = parse_rule(source).unwrap();
        let plan = compile_body_plan(&rule.body, None, &FnvSet::default(), &relations, udfs);
        if build_indexes {
            for spec in &plan.ensure {
                if let Some(relation) = relations.get_mut(&spec.pred) {
                    relation.ensure_index(spec.cols);
                }
            }
        }
        let mut job = compile_batch(&rule, &plan, None, &relations, udfs, &interner)?;
        let stats = PlanStats::default();
        let exec = Exec {
            relations: &relations,
            udfs,
            interner: &interner,
            stats: &stats,
        };
        let rows = execute_batch(&mut job, None, exec).unwrap().unwrap();
        Ok((rehydrate(&interner, rows), stats))
    }

    fn run(
        source: &str,
        facts: &[(&str, Vec<Value>)],
        build_indexes: bool,
    ) -> Option<Vec<(String, Vec<Value>)>> {
        let udfs = UdfRegistry::new();
        run_with(source, facts, build_indexes, &udfs)
            .ok()
            .map(|(rows, _)| rows)
    }

    fn int(v: i64) -> Value {
        Value::Int(v)
    }

    #[test]
    fn triple_join_matches_expected() {
        let facts: Vec<(&str, Vec<Value>)> = (0..20)
            .flat_map(|i| {
                vec![
                    ("r", vec![int(i), int(i + 1)]),
                    ("s", vec![int(i + 1), int(i + 2)]),
                    ("t", vec![int(i + 2), int(i + 3)]),
                ]
            })
            .collect();
        let derived = run("out(X, W) <- r(X, Y), s(Y, Z), t(Z, W).", &facts, true).unwrap();
        assert_eq!(derived.len(), 20);
        assert!(derived.contains(&("out".to_string(), vec![int(0), int(3)])));
        // Without indexes the scan fallback must agree.
        let scanned = run("out(X, W) <- r(X, Y), s(Y, Z), t(Z, W).", &facts, false).unwrap();
        let mut a = derived.clone();
        let mut b = scanned;
        a.sort_by(|x, y| format!("{x:?}").cmp(&format!("{y:?}")));
        b.sort_by(|x, y| format!("{x:?}").cmp(&format!("{y:?}")));
        assert_eq!(a, b);
    }

    #[test]
    fn constants_duplicates_and_wildcards() {
        let facts = vec![
            ("e", vec![int(1), int(1), int(9)]),
            ("e", vec![int(1), int(2), int(9)]),
            ("e", vec![int(2), int(2), int(7)]),
        ];
        let derived = run("loop(X) <- e(X, X, _).", &facts, true).unwrap();
        assert_eq!(derived.len(), 2);
        // Two matching rows project to the same head tuple: canonicalization
        // deduplicates them.
        let derived = run("nine(X) <- e(X, _, 9).", &facts, true).unwrap();
        assert_eq!(derived, vec![("nine".to_string(), vec![int(1)])]);
    }

    #[test]
    fn unknown_body_constant_is_provably_empty() {
        let facts = vec![("e", vec![int(1), int(2)])];
        let derived = run("out(X) <- e(X, 42).", &facts, true).unwrap();
        assert!(derived.is_empty());
    }

    #[test]
    fn ineligible_shapes_fall_back() {
        let facts = vec![("e", vec![int(1), int(2)])];
        // Negation, comparisons, and expression heads are tuple-path only.
        assert!(run("out(X) <- e(X, Y), !e(Y, X).", &facts, true).is_none());
        assert!(run("out(X) <- e(X, Y), Y < 3.", &facts, true).is_none());
        assert!(run("out(X, Y + 1) <- e(X, Y).", &facts, true).is_none());
    }

    #[test]
    fn head_constants_are_interned_at_compile() {
        let facts = vec![("e", vec![int(1), int(2)])];
        let derived = run("tagged(X, marker) <- e(X, _).", &facts, true).unwrap();
        assert_eq!(
            derived,
            vec![("tagged".to_string(), vec![int(1), Value::str("marker")])]
        );
    }

    #[test]
    fn a_bound_key_functional_read_is_one_keyed_lookup() {
        let mut facts: Vec<(&str, Vec<Value>)> =
            (0..50).map(|i| ("f", vec![int(i), int(2 * i)])).collect();
        facts.extend([("item", vec![int(7)]), ("item", vec![int(99)])]);
        facts.push(("want", vec![int(3), int(6)]));
        facts.push(("want", vec![int(4), int(9)]));
        let udfs = UdfRegistry::new();
        let (rows, stats) = run_with("out(X, V) <- item(X), f[X] = V.", &facts, true, &udfs)
            .expect("a functional read runs in batch");
        assert_eq!(rows, vec![("out".to_string(), vec![int(7), int(14)])]);
        let stats = stats.snapshot();
        assert_eq!(stats.functional_hits, 1, "one key has a row");
        assert_eq!(
            stats.rows_examined, 2,
            "the two `item` rows, and no `f` row"
        );
        // A bound value compares: it does not bind.
        let (rows, _) = run_with("ok(X) <- want(X, V), f[X] = V.", &facts, true, &udfs).unwrap();
        assert_eq!(rows, vec![("ok".to_string(), vec![int(3)])]);
    }

    #[test]
    fn builtin_type_checks_filter_on_the_value_type() {
        let facts = vec![
            ("v", vec![int(3)]),
            ("v", vec![Value::str("x")]),
            ("v", vec![Value::Bool(true)]),
        ];
        let derived = run("out(X) <- v(X), int(X).", &facts, true).unwrap();
        assert_eq!(derived, vec![("out".to_string(), vec![int(3)])]);
        let derived = run("out(X) <- v(X), string(X).", &facts, true).unwrap();
        assert_eq!(derived, vec![("out".to_string(), vec![Value::str("x")])]);
        // A constant is decided at compile; an unbound argument fails.
        assert_eq!(
            run("out(X) <- v(X), int(4).", &facts, true).unwrap().len(),
            3
        );
        assert!(run("out(X) <- v(X), int(\"no\").", &facts, true)
            .unwrap()
            .is_empty());
        assert!(run("out(X) <- v(X), int(Y).", &facts, true).is_none_or(|rows| rows.is_empty()));
    }

    #[test]
    fn an_all_bound_udf_is_a_filter_and_a_binding_one_declines() {
        let calls = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let mut udfs = UdfRegistry::new();
        let counted = Arc::clone(&calls);
        udfs.register("below", move |args| {
            counted.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            let a = crate::udf::require_bound(args, 0, "below")?;
            let b = crate::udf::require_bound(args, 1, "below")?;
            Ok(if a.as_int() < b.as_int() {
                vec![vec![a, b]]
            } else {
                Vec::new()
            })
        });
        let facts = vec![
            ("e", vec![int(1), int(2)]),
            ("e", vec![int(5), int(2)]),
            ("e", vec![int(3), int(3)]),
        ];
        let (rows, _) = run_with("out(X) <- e(X, Y), below(X, Y).", &facts, true, &udfs)
            .expect("all arguments bound: a filter");
        assert_eq!(rows, vec![("out".to_string(), vec![int(1)])]);
        assert_eq!(
            calls.load(std::sync::atomic::Ordering::Relaxed),
            3,
            "once per row"
        );
        let (rows, _) = run_with("out(X) <- e(X, _), below(X, 4).", &facts, true, &udfs).unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(
            run_with("out(X) <- e(X, _), below(X, Z).", &facts, true, &udfs).err(),
            Some(BatchMiss::Udf),
            "an output to bind"
        );
        assert_eq!(
            run_with("out(X) <- e(X, _), below(X, _).", &facts, true, &udfs).err(),
            Some(BatchMiss::Udf),
            "a wildcard"
        );
    }

    #[test]
    fn a_head_constant_a_body_lacked_makes_the_job_compile_again() {
        let (mut relations, interner) = setup(&[("e", vec![int(1), int(2)])]);
        let udfs = UdfRegistry::new();
        let rule = parse_rule("out(X, 42) <- e(X, 42).").unwrap();
        let plan = compile_body_plan(&rule.body, None, &FnvSet::default(), &relations, &udfs);
        let stats = PlanStats::default();
        let mut slot = None;
        let job = rule_job(
            &mut slot, &rule, &plan, None, &relations, &udfs, &interner, &stats,
        );
        assert!(job.unwrap().impossible, "42 is in no relation");
        // The compile interned the head's 42, so storing `e(1, 42)` adds
        // nothing to the dictionary; the job must not stay provably empty.
        let len = interner.len();
        let e = relations.get_mut("e").unwrap();
        e.insert(vec![int(1), int(42)]).unwrap();
        assert_eq!(interner.len(), len);
        let job = rule_job(
            &mut slot, &rule, &plan, None, &relations, &udfs, &interner, &stats,
        );
        let job = job.unwrap();
        assert!(!job.impossible);
        let exec = Exec {
            relations: &relations,
            udfs: &udfs,
            interner: &interner,
            stats: &stats,
        };
        let rows = execute_batch(job, None, exec).unwrap().unwrap();
        assert_eq!(
            rehydrate(&interner, rows),
            vec![("out".to_string(), vec![int(1), int(42)])]
        );
    }

    #[test]
    fn a_job_is_compiled_once_per_plan_and_again_when_the_dictionary_can_match() {
        let (relations, interner) = setup(&[("e", vec![int(1), int(2)])]);
        let udfs = UdfRegistry::new();
        let rule = parse_rule("out(X) <- e(X, 42).").unwrap();
        let plan = compile_body_plan(&rule.body, None, &FnvSet::default(), &relations, &udfs);
        let stats = PlanStats::default();
        let mut slot = None;
        for _ in 0..3 {
            let job = rule_job(
                &mut slot, &rule, &plan, None, &relations, &udfs, &interner, &stats,
            );
            assert!(job.unwrap().impossible);
        }
        assert_eq!(stats.snapshot().batch_jobs_compiled, 1);
        // 42 enters the dictionary: the job may match now.
        interner.intern(&int(42));
        let job = rule_job(
            &mut slot, &rule, &plan, None, &relations, &udfs, &interner, &stats,
        );
        assert!(!job.unwrap().impossible);
        assert_eq!(stats.snapshot().batch_jobs_compiled, 2);
        // Another dictionary is another job.
        let other = Arc::new(Interner::new());
        let _ = rule_job(
            &mut slot, &rule, &plan, None, &relations, &udfs, &other, &stats,
        );
        assert_eq!(stats.snapshot().batch_jobs_compiled, 3);
    }
}
