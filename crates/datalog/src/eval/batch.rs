//! Batch-at-a-time rule execution over interned id columns.
//!
//! The tuple-at-a-time join in [`super::join`] materializes a [`Bindings`]
//! map per solution and compares [`crate::value::Value`]s at every probe.
//! For the common rule shape — positive stored-relation literals with
//! variable/constant terms and a head built from body variables — none of
//! that is necessary: every value is already a dense `u32` dictionary id
//! inside the relations' column groups, so the whole join can run as
//! integer-column operations and only *new* tuples are ever rehydrated into
//! `Value` rows (at insert, by [`crate::relation::Relation::insert_ids`]).
//!
//! ## Two phases
//!
//! [`compile_batch`] is the one place the batch path interns (head
//! constants); the evaluator calls it in combination order, which keeps
//! dictionary id assignment a pure function of the operation sequence
//! ([`crate::intern`] module docs).  [`execute_batch`] is read-only.
//!
//! ## Frames
//!
//! A step pipeline runs over one frame: a row of ids per partial solution,
//! packed row-major, each step appending the columns of the variables it
//! binds.  A forward job starts from one empty row and projects its heads
//! at the end.  A proof job ([`compile_proof`]) runs a rule backwards from
//! one stored fact, as a retraction's proof search does: the fact's ids
//! seed a one-row frame, each step also appends the `TupleId` it matched,
//! and the solutions' trails are the job's output.  A step's output rows go
//! into a buffer the pipeline keeps, and a proof job keeps its buffers from
//! fact to fact.
//!
//! ## Determinism
//!
//! The executor's output is canonicalized — per head predicate, id rows are
//! sorted and deduplicated — so the result is independent of frame order
//! and cache hits, and so is the id-sorted insertion order downstream.
//! Debug builds additionally assert the rehydrated output equals the
//! tuple-at-a-time enumeration (`Evaluator::evaluate_round`), and a proof
//! job's trails the tuple path's (`eval::dred`).

use super::join::DeltaRestriction;
use super::plan::{is_membership, BatchMiss, PlanStats, RulePlan};
use super::runtime_pred_name;
use crate::ast::{Literal, Rule, Term};
use crate::error::Result;
use crate::intern::{fnv_ids, FnvMap, Interner, PassMap};
use crate::relation::{Bucket, Relations, TupleId};
use crate::schema::BUILTIN_TYPES;
use crate::udf::UdfRegistry;
use std::sync::Arc;

/// One tuple as dictionary ids (scratch rows only; bulk data travels as
/// [`IdBatch`]).
pub(crate) type IdRow = Vec<u32>;

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

struct StepExec {
    pred: String,
    arity: usize,
    positions: Vec<PosSpec>,
    /// Literal positions that bind fresh frame columns, in order; position
    /// `fresh[i]` binds the `i`-th column the step appends to its input row.
    fresh: Vec<usize>,
    /// Append the matched tuple's [`TupleId`] after the fresh columns: a
    /// proof job's trail.
    trail: bool,
    probe: Option<ProbeExec>,
}

struct HeadExec {
    pred: String,
    srcs: Vec<IdSrc>,
}

/// A rule body compiled to id-space batch steps.
pub(crate) struct BatchJob {
    steps: Vec<StepExec>,
    heads: Vec<HeadExec>,
    /// Delta rows driving step 0, pre-encoded at compile and pre-filtered
    /// to step 0's arity.
    delta_rows: Option<IdBatch>,
    /// A body constant is absent from the dictionary: no stored tuple can
    /// match, so the derivation is provably empty.
    impossible: bool,
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

/// The first [`BatchMiss`] of `body` (in declaration order), or `None` when
/// every literal is a positive atom over a stored relation with plain terms
/// and wildcards.  Most rules the batch path declines say so in their
/// syntax: this is tested before anything is allocated.
fn body_miss(body: &[Literal], udfs: &UdfRegistry) -> Option<BatchMiss> {
    let mut first = None;
    let mut note = |miss| first = earlier(first, miss);
    for literal in body {
        match literal {
            Literal::Pos(atom) => {
                note(match runtime_pred_name(&atom.pred) {
                    Err(_) => Some(BatchMiss::Expression),
                    Ok(pred) if udfs.is_udf(&pred) => Some(BatchMiss::Udf),
                    Ok(pred) if BUILTIN_TYPES.contains(&&*pred) && atom.terms.len() == 1 => {
                        Some(BatchMiss::TypeCheck)
                    }
                    Ok(_) => None,
                });
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
    interner: &'a Arc<Interner>,
    /// The frame column of every variable bound so far.
    vars: FnvMap<&'r str, usize>,
    /// The frame's width so far.
    width: usize,
    /// A body constant is absent from the dictionary.
    impossible: bool,
}

impl<'r, 'a> StepCompiler<'r, 'a> {
    fn new(relations: &'a Relations, interner: &'a Arc<Interner>) -> Self {
        StepCompiler {
            relations,
            interner,
            vars: FnvMap::default(),
            width: 0,
            impossible: false,
        }
    }

    /// One step per plan step of `body`, each appending a column per
    /// variable it binds first and, with `trail`, one for the matched
    /// `TupleId`.  `body` has no [`body_miss`]; what is left to decline is
    /// a functional lookup and a relation on a foreign dictionary.
    fn steps(
        &mut self,
        body: &'r [Literal],
        plan: &RulePlan,
        delta: Option<DeltaRestriction<'_>>,
        trail: bool,
    ) -> std::result::Result<Vec<StepExec>, BatchMiss> {
        // The plan leaves a functional lookup to the tuple path's one-row
        // find; a step here would scan the relation.
        if plan.order.iter().any(|step| step.functional) {
            return Err(BatchMiss::Functional);
        }
        let mut steps = Vec::with_capacity(plan.order.len());
        for step in &plan.order {
            let Literal::Pos(atom) = &body[step.literal] else {
                unreachable!("body_miss admits positive atoms only");
            };
            let pred = runtime_pred_name(&atom.pred).expect("body_miss admits runtime names only");
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
                    Term::Const(value) => match self.interner.try_id(value) {
                        Some(id) => PosSpec::Const(id),
                        None => {
                            self.impossible = true;
                            PosSpec::Free
                        }
                    },
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

            let is_delta = delta.is_some_and(|pinned| pinned.literal_index == step.literal);
            let probe = match step.probe {
                Some(cols) if cols != 0 && !is_delta => probe_exec(&positions, cols),
                _ => None,
            };
            steps.push(StepExec {
                pred: pred.into_owned(),
                arity: atom.terms.len(),
                positions,
                fresh,
                trail,
                probe,
            });
        }
        Ok(steps)
    }
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

/// Compile `rule` for batch execution, or say why it falls outside the
/// batch-executable shape ([`BatchMiss`]).  Head existentials never reach
/// here (`Evaluator::evaluate_round` runs them on their own path).  Head
/// constants are interned here.
pub(crate) fn compile_batch(
    rule: &Rule,
    plan: &RulePlan,
    delta: Option<DeltaRestriction<'_>>,
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
    if let Some(miss) = earlier(body_miss(&rule.body, udfs), head_miss) {
        return Err(miss);
    }
    if plan.order.is_empty() {
        return Err(BatchMiss::EmptyBody);
    }
    let mut compiler = StepCompiler::new(relations, interner);
    let steps = compiler.steps(&rule.body, plan, delta, false)?;
    if delta.is_some_and(|pinned| plan.order[0].literal != pinned.literal_index) {
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
            pred: pred.into_owned(),
            srcs,
        });
    }

    // Encode the delta rows up front.  Delta tuples were inserted into
    // relations, so their values are already interned; a miss means the set
    // is on another dictionary and the tuple path must run instead.
    let delta_rows = match delta {
        Some(pinned) => {
            let arity = steps[0].arity;
            let mut batch = IdBatch::new(arity);
            let mut ids = Vec::new();
            for tuple in pinned.delta {
                if !interner.try_row(tuple, &mut ids) {
                    return Err(BatchMiss::ForeignDictionary);
                }
                // Rows of a different arity can never match step 0.
                if ids.len() == arity {
                    batch.push_row(&ids);
                }
            }
            Some(batch)
        }
        None => None,
    };

    Ok(BatchJob {
        steps,
        heads,
        delta_rows,
        impossible: compiler.impossible,
    })
}

/// A binding frame: one row of `u32` ids per partial solution, `width` ids
/// per row (a column per bound variable, and in a proof job one per matched
/// tuple), packed row-major in one buffer so a step appends its output rows
/// without a per-column allocation.
#[derive(Default)]
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
}

/// The buffers a step pipeline reuses from step to step — the frame, the one
/// the next step fills, and a step's row-sized scratch — and a proof job
/// from fact to fact.
#[derive(Default)]
struct Scratch {
    frame: Frame,
    spare: Frame,
    row: IdRow,
    fresh: IdRow,
    key: IdRow,
}

/// Run `steps` on `scratch.frame`, leaving the result there.  The delta
/// rows, when given, override step 0's scan.
fn run_steps(
    steps: &[StepExec],
    driving: Option<&IdBatch>,
    relations: &Relations,
    stats: &PlanStats,
    scratch: &mut Scratch,
) -> Result<()> {
    for (index, step) in steps.iter().enumerate() {
        extend_frame(
            step,
            driving.filter(|_| index == 0),
            relations,
            stats,
            scratch,
        )?;
        std::mem::swap(&mut scratch.frame, &mut scratch.spare);
        if scratch.frame.len == 0 {
            break;
        }
    }
    Ok(())
}

/// Execute a compiled batch job — the step pipeline, then the head
/// projection — and return canonicalized (sorted, deduplicated) id rows per
/// head predicate.  Read-only over `relations`.
pub(crate) fn execute_batch(
    job: &BatchJob,
    relations: &Relations,
    stats: &PlanStats,
) -> Result<Vec<(String, IdBatch)>> {
    if job.impossible {
        return Ok(Vec::new());
    }
    let mut scratch = Scratch::default();
    scratch.frame.len = 1;
    run_steps(
        &job.steps,
        job.delta_rows.as_ref(),
        relations,
        stats,
        &mut scratch,
    )?;
    let frame = &scratch.frame;
    if frame.len == 0 {
        return Ok(Vec::new());
    }

    let mut out: Vec<(String, IdBatch)> = Vec::with_capacity(job.heads.len());
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
        out.push((head.pred.clone(), batch));
    }
    Ok(canonicalize(out))
}

/// A rule body compiled to run backwards from one stored fact of one of its
/// head atoms, as a retraction's proof search does (`eval::dred`): the
/// fact's ids seed a one-row frame, every step appends the [`TupleId`] it
/// matched, and each solution's trail says which stored facts that instance
/// of the rule used.  It keeps its buffers from fact to fact.
pub(crate) struct ProofJob {
    /// Per head position: a fresh frame column, a repeat of an earlier
    /// column, or a constant the fact must hold there.
    head: Vec<PosSpec>,
    steps: Vec<StepExec>,
    /// Per step, in plan order: the body literal it runs and the frame
    /// column its trail lands in.
    trail: Vec<(usize, usize)>,
    impossible: bool,
    scratch: Scratch,
    /// One row per instance of the last run: the trail's `TupleId`s.
    instances: IdBatch,
}

/// Compile head atom `head` of `rule` and its body, planned under that
/// atom's variables, into a [`ProofJob`]; `None` outside the batch shape
/// (what [`compile_batch`] declines, and an expression in the head).  Reads
/// the dictionary without adding to it.
pub(crate) fn compile_proof(
    rule: &Rule,
    head: usize,
    plan: &RulePlan,
    relations: &Relations,
    udfs: &UdfRegistry,
    interner: &Arc<Interner>,
) -> Option<ProofJob> {
    let atom = &rule.head[head];
    if rule.agg.is_some()
        || plan.order.is_empty()
        || body_miss(&rule.body, udfs).is_some()
        || !atom.terms.iter().all(plain)
    {
        return None;
    }
    let mut compiler = StepCompiler::new(relations, interner);
    let mut seed = Vec::with_capacity(atom.terms.len());
    for term in &atom.terms {
        seed.push(match term {
            Term::Var(name) => match compiler.vars.get(name.as_str()) {
                Some(&col) => PosSpec::Bound(col),
                None => {
                    compiler.vars.insert(name, compiler.width);
                    compiler.width += 1;
                    PosSpec::Fresh
                }
            },
            Term::Const(value) => match interner.try_id(value) {
                Some(id) => PosSpec::Const(id),
                None => {
                    compiler.impossible = true;
                    PosSpec::Free
                }
            },
            _ => return None,
        });
    }
    let mut width = compiler.width;
    let steps = compiler.steps(&rule.body, plan, None, true).ok()?;
    let trail = plan
        .order
        .iter()
        .zip(&steps)
        .map(|(step, exec)| {
            width += exec.fresh.len() + 1;
            (step.literal, width - 1)
        })
        .collect();
    Some(ProofJob {
        head: seed,
        instances: IdBatch::new(steps.len()),
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
    /// `row`: one row per instance, the `TupleId` each body literal matched,
    /// in [`Self::literals`] order.  Read-only over `relations`.
    pub(crate) fn run(
        &mut self,
        row: &[u32],
        relations: &Relations,
        stats: &PlanStats,
    ) -> Result<&IdBatch> {
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
        run_steps(&self.steps, None, relations, stats, &mut self.scratch)?;
        let frame = &self.scratch.frame;
        for i in 0..frame.len {
            let row = frame.row(i);
            self.instances
                .data
                .extend(self.trail.iter().map(|&(_, col)| row[col]));
        }
        self.instances.rows = frame.len;
        Ok(&self.instances)
    }
}

/// Join one step against `scratch.frame`, filling `scratch.spare` with the
/// extended frame.
fn extend_frame(
    step: &StepExec,
    driving: Option<&IdBatch>,
    relations: &Relations,
    stats: &PlanStats,
    scratch: &mut Scratch,
) -> Result<()> {
    let Scratch {
        frame,
        spare: out,
        row: scratch,
        fresh: fresh_vals,
        key,
    } = scratch;
    let frame: &Frame = frame;
    out.reset(frame.width + step.fresh.len() + usize::from(step.trail));
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

    let relation = relations.get(&step.pred);

    if let Some(probe) = &step.probe {
        let Some(relation) = relation else {
            return Ok(());
        };
        // Per-distinct-key cache of verified matches (each match = the
        // values the step appends).  Keyed by the key's content hash; the
        // stored key guards against collisions (a mismatch bypasses the
        // cache).  Keys and matches live in two flat arenas so cache entries
        // are three integers — no per-entry allocation.
        let match_len = step.fresh.len() + usize::from(step.trail);
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
            if probe.member {
                // The key is the whole row: nothing to bind, no candidates.
                PlanStats::bump(&stats.index_probes);
                if let Some(id) = relation.find_row(key) {
                    matched(fresh_vals, key, Some(id));
                    emit(i, fresh_vals);
                }
                continue;
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
    let mut candidates = IdBatch::new(step.arity + usize::from(step.trail));
    match driving {
        Some(batch) => {
            debug_assert!(!step.trail, "a proof job has no delta");
            debug_assert_eq!(batch.stride, step.arity);
            for row in batch.iter() {
                if verify_static(&step.positions, row) {
                    candidates.push_row(row);
                }
            }
        }
        None => {
            PlanStats::bump(&stats.full_scans);
            if let Some(group) = relation.and_then(|r| r.group(step.arity)) {
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
        }
    }
    let bound: Vec<(usize, usize)> = step
        .positions
        .iter()
        .enumerate()
        .filter_map(|(pos, spec)| match spec {
            PosSpec::Bound(col) => Some((pos, *col)),
            _ => None,
        })
        .collect();
    for i in 0..frame.len {
        let frame_row = frame.row(i);
        for candidate in candidates.iter() {
            if bound
                .iter()
                .any(|&(pos, col)| candidate[pos] != frame_row[col])
            {
                continue;
            }
            matched(fresh_vals, candidate, candidate.get(step.arity).copied());
            emit(i, fresh_vals);
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
fn canonicalize(buffers: Vec<(String, IdBatch)>) -> Vec<(String, IdBatch)> {
    let mut out: Vec<(String, IdBatch)> = Vec::new();
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
    use crate::intern::FnvSet;
    use crate::parser::parse_rule;
    use crate::relation::Relation;
    use crate::value::Value;

    fn setup(facts: &[(&str, Vec<Value>)]) -> (Relations, Arc<Interner>) {
        let interner = Arc::new(Interner::new());
        let mut relations = Relations::default();
        for (pred, tuple) in facts {
            relations
                .entry(pred.to_string())
                .or_insert_with(|| Relation::with_interner(*pred, None, Arc::clone(&interner)))
                .insert(tuple.clone())
                .unwrap();
        }
        (relations, interner)
    }

    fn rehydrate(
        interner: &Interner,
        batches: Vec<(String, IdBatch)>,
    ) -> Vec<(String, Vec<Value>)> {
        let mut out = Vec::new();
        for (pred, batch) in batches {
            for row in batch.iter() {
                out.push((pred.clone(), interner.resolve_row(row)));
            }
        }
        out
    }

    fn run(
        source: &str,
        facts: &[(&str, Vec<Value>)],
        build_indexes: bool,
    ) -> Option<Vec<(String, Vec<Value>)>> {
        let (mut relations, interner) = setup(facts);
        let rule = parse_rule(source).unwrap();
        let udfs = UdfRegistry::new();
        let plan = compile_body_plan(&rule.body, None, &FnvSet::default(), &relations, &udfs);
        if build_indexes {
            for spec in &plan.ensure {
                if let Some(relation) = relations.get_mut(&spec.pred) {
                    relation.ensure_index(spec.cols);
                }
            }
        }
        let job = compile_batch(&rule, &plan, None, &relations, &udfs, &interner).ok()?;
        let stats = PlanStats::default();
        let rows = execute_batch(&job, &relations, &stats).unwrap();
        Some(rehydrate(&interner, rows))
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
}
