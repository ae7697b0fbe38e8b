//! Sharded parallel execution: a worker-pool layer under the fixpoint.
//!
//! The planner (DESIGN.md §7) made rule plans immutable and relation arenas
//! `Arc`-shared precisely so evaluation could fan out: this module
//! hash-partitions the driving tuple set of a rule execution — the semi-naïve
//! delta, DRed's deleted-tuple frontier, or (for the initial naïve round and
//! aggregate recomputation) the extension of the plan's first stored-relation
//! literal — across `W` workers.  A shard is a vector of *borrowed* tuple
//! references into the driving set, so partitioning costs pointer pushes, not
//! a per-execution deep copy into per-shard sets.  Each worker runs the
//! ordinary planned join
//! executor over its shard against *shared read-only* relation views (indexes
//! are built single-threaded before the workers spawn; workers only probe),
//! and the per-worker tuple buffers are merged deterministically by a sorted
//! dedup, so the merged output is independent of worker count and thread
//! scheduling.  The merge itself is single-writer: only the evaluator thread
//! inserts into relations.
//!
//! Determinism argument (DESIGN.md §8): the shard assignment is a pure
//! function of the tuple (FNV-1a over the tuple's `Hash`), shards partition
//! the driving set, every body solution is enumerated by exactly one worker,
//! and the merged head-tuple list is sorted under the total value order and
//! deduplicated.  Relations are sets, so the final fixpoint is bit-identical
//! to the serial evaluation at any `W` — a property the debug builds assert
//! on every parallel execution and `tests/props_parallel.rs` checks end to
//! end (relations, store Merkle roots, constraint verdicts, DRed sequences).
//!
//! Rules with head-existential variables always take the serial path: entity
//! minting is order-sensitive, and sharding it would change the minted ids.

use super::bindings::{eval_term, Bindings};
use super::plan::RulePlan;
use super::pool::WorkerPool;
use super::runtime_pred_name;
use crate::ast::{Literal, Rule, Term};
use crate::error::{DatalogError, Result};
use crate::relation::Relation;
use crate::schema::BUILTIN_TYPES;
use crate::udf::UdfRegistry;
use crate::value::{Tuple, Value};
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::OnceLock;

/// Default driving-set size below which sharding is skipped entirely (the
/// serial fast path): partitioning and thread spawn cost more than they save
/// on small deltas.
pub const DEFAULT_PARALLEL_THRESHOLD: usize = 64;

/// Worker-pool knobs for the evaluation stack.
///
/// The defaults honour the `SECUREBLOX_WORKERS` and
/// `SECUREBLOX_PARALLEL_THRESHOLD` environment variables so a whole test or
/// deployment run can be switched onto the parallel path without code
/// changes (the CI matrix uses this).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EvalOptions {
    /// Number of workers the delta is hash-partitioned across.  `0` and `1`
    /// both mean serial evaluation.
    pub workers: usize,
    /// Driving sets smaller than this skip partitioning and run serially.
    pub parallel_threshold: usize,
}

impl Default for EvalOptions {
    fn default() -> Self {
        EvalOptions {
            workers: env_workers(),
            parallel_threshold: env_threshold(),
        }
    }
}

impl EvalOptions {
    /// Explicitly serial evaluation, ignoring the environment knobs.
    pub fn serial() -> Self {
        EvalOptions {
            workers: 1,
            parallel_threshold: DEFAULT_PARALLEL_THRESHOLD,
        }
    }

    /// A pool of `workers` with the default threshold.
    pub fn with_workers(workers: usize) -> Self {
        EvalOptions {
            workers,
            parallel_threshold: DEFAULT_PARALLEL_THRESHOLD,
        }
    }

    /// True when the configuration can ever take the parallel path.
    pub fn parallel_enabled(&self) -> bool {
        self.workers > 1
    }
}

fn env_usize(name: &str, default: usize, min: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&v| v >= min)
        .unwrap_or(default)
}

fn env_workers() -> usize {
    static WORKERS: OnceLock<usize> = OnceLock::new();
    *WORKERS.get_or_init(|| env_usize("SECUREBLOX_WORKERS", 1, 1))
}

fn env_threshold() -> usize {
    // 0 is meaningful here — "always shard" — so only reject unparseable
    // values (workers, by contrast, needs at least 1).
    static THRESHOLD: OnceLock<usize> = OnceLock::new();
    *THRESHOLD.get_or_init(|| {
        env_usize(
            "SECUREBLOX_PARALLEL_THRESHOLD",
            DEFAULT_PARALLEL_THRESHOLD,
            0,
        )
    })
}

/// FNV-1a, used for shard assignment.  Deliberately *not* the std
/// `RandomState`: the shard of a tuple must be a pure function of its value
/// so runs are reproducible and the debug parallel-vs-serial assertion is
/// meaningful.
struct Fnv64(u64);

impl Fnv64 {
    fn new() -> Self {
        Fnv64(0xcbf29ce484222325)
    }
}

impl Hasher for Fnv64 {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 ^= byte as u64;
            self.0 = self.0.wrapping_mul(0x100000001b3);
        }
    }
}

/// The shard a tuple belongs to in a `workers`-way partition.
pub(crate) fn shard_of(tuple: &[Value], workers: usize) -> usize {
    let mut hasher = Fnv64::new();
    tuple.hash(&mut hasher);
    (hasher.finish() % workers as u64) as usize
}

/// Hash-partition `tuples` into `workers` disjoint shards of *borrowed*
/// tuple references.  The shards alias the driving set (a delta or a relation
/// arena) directly — no per-execution clone of the tuples into per-shard
/// `HashSet`s, which used to dominate the partitioning cost: a shard is just
/// a vector of pointers, and the worker enumerates it as a slice.
pub(crate) fn partition<'a>(
    tuples: impl IntoIterator<Item = &'a Tuple>,
    workers: usize,
) -> Vec<Vec<&'a Tuple>> {
    let mut shards: Vec<Vec<&'a Tuple>> = (0..workers).map(|_| Vec::new()).collect();
    for tuple in tuples {
        shards[shard_of(tuple, workers)].push(tuple);
    }
    shards
}

/// Run `worker` over every non-empty shard on the persistent pool and
/// collect the results in shard order.  Errors are reported from the lowest
/// shard index so failure is as deterministic as the partition itself.
/// Without a pool (serial configurations, unit tests) the shards run inline
/// on the calling thread — same results, no spawn.
pub(crate) fn run_shards<'a, T, F>(
    pool: Option<&WorkerPool>,
    shards: &[Vec<&'a Tuple>],
    worker: F,
) -> Result<Vec<T>>
where
    T: Send,
    F: Fn(&[&'a Tuple]) -> Result<T> + Sync,
{
    let occupied: Vec<&Vec<&'a Tuple>> = shards.iter().filter(|shard| !shard.is_empty()).collect();
    let results: Vec<Result<T>> = match pool {
        Some(pool) if occupied.len() > 1 => {
            let tasks: Vec<_> = occupied
                .iter()
                .map(|shard| {
                    let worker = &worker;
                    move || worker(shard)
                })
                .collect();
            pool.execute(tasks)
                .into_iter()
                .map(|result| match result {
                    Ok(result) => result,
                    Err(_) => Err(DatalogError::Eval("evaluation worker panicked".into())),
                })
                .collect()
        }
        _ => occupied.iter().map(|shard| worker(shard)).collect(),
    };
    results.into_iter().collect()
}

/// Sharded derivation with a **pipelined merge**: each worker sorts and
/// dedups its own buffer on its pool thread, and the evaluator thread folds
/// buffers into the accumulated result in *arrival* order — merging batch
/// `k` while workers are still joining batch `k+1`.  The sorted-merge fold
/// is commutative and associative, so the output equals
/// [`merge_derived`] of the per-shard buffers regardless of arrival order.
/// Errors are still reported from the lowest shard index.
pub(crate) fn run_shards_merged<'a, F>(
    pool: Option<&WorkerPool>,
    shards: &[Vec<&'a Tuple>],
    worker: F,
) -> Result<Vec<(String, Tuple)>>
where
    F: Fn(&[&'a Tuple]) -> Result<Vec<(String, Tuple)>> + Sync,
{
    let occupied: Vec<&Vec<&'a Tuple>> = shards.iter().filter(|shard| !shard.is_empty()).collect();
    let sorted_worker = |shard: &[&'a Tuple]| -> Result<Vec<(String, Tuple)>> {
        let mut buffer = worker(shard)?;
        buffer.sort_by(derived_cmp);
        buffer.dedup();
        Ok(buffer)
    };
    let Some(pool) = pool.filter(|_| occupied.len() > 1) else {
        return Ok(merge_derived(
            occupied
                .iter()
                .map(|shard| sorted_worker(shard))
                .collect::<Result<Vec<_>>>()?,
        ));
    };
    let tasks: Vec<_> = occupied
        .iter()
        .map(|shard| {
            let sorted_worker = &sorted_worker;
            move || sorted_worker(shard)
        })
        .collect();
    let mut merged: Vec<(String, Tuple)> = Vec::new();
    let mut first_error: Option<(usize, DatalogError)> = None;
    pool.execute_streaming(tasks, |index, result| {
        let outcome = match result {
            Ok(outcome) => outcome,
            Err(_) => Err(DatalogError::Eval("evaluation worker panicked".into())),
        };
        match outcome {
            Ok(buffer) => merged = merge_two_sorted(std::mem::take(&mut merged), buffer),
            Err(error) => {
                if first_error
                    .as_ref()
                    .is_none_or(|(lowest, _)| index < *lowest)
                {
                    first_error = Some((index, error));
                }
            }
        }
    });
    match first_error {
        Some((_, error)) => Err(error),
        None => Ok(merged),
    }
}

/// Merge two sorted, deduplicated derivation buffers into one.
fn merge_two_sorted(a: Vec<(String, Tuple)>, b: Vec<(String, Tuple)>) -> Vec<(String, Tuple)> {
    if a.is_empty() {
        return b;
    }
    if b.is_empty() {
        return a;
    }
    let mut merged = Vec::with_capacity(a.len() + b.len());
    let mut left = a.into_iter().peekable();
    let mut right = b.into_iter().peekable();
    loop {
        let pick_left = match (left.peek(), right.peek()) {
            (Some(l), Some(r)) => match derived_cmp(l, r) {
                std::cmp::Ordering::Less => true,
                std::cmp::Ordering::Greater => false,
                std::cmp::Ordering::Equal => {
                    right.next();
                    true
                }
            },
            (Some(_), None) => true,
            (None, Some(_)) => false,
            (None, None) => break,
        };
        let item = if pick_left { left.next() } else { right.next() };
        merged.push(item.expect("peeked"));
    }
    merged
}

/// Total order on derived `(predicate, tuple)` pairs: predicate name, then
/// the tuple under the shared total value order ([`crate::value::tuple_total_cmp`]).
fn derived_cmp(a: &(String, Tuple), b: &(String, Tuple)) -> std::cmp::Ordering {
    a.0.cmp(&b.0)
        .then_with(|| crate::value::tuple_total_cmp(&a.1, &b.1))
}

/// Merge per-worker derivation buffers deterministically: sort under the
/// total order and deduplicate.  The result is independent of both the
/// number of shards and the order workers finished in.
pub(crate) fn merge_derived(buffers: Vec<Vec<(String, Tuple)>>) -> Vec<(String, Tuple)> {
    let mut merged: Vec<(String, Tuple)> = buffers.into_iter().flatten().collect();
    merged.sort_by(derived_cmp);
    merged.dedup();
    merged
}

/// Sorted-dedup view of a derivation list, for the debug parallel-vs-serial
/// equivalence assertion.
#[cfg(debug_assertions)]
pub(crate) fn canonicalize_derived(mut derived: Vec<(String, Tuple)>) -> Vec<(String, Tuple)> {
    derived.sort_by(derived_cmp);
    derived.dedup();
    derived
}

/// Instantiate the head atoms of a (non-existential) rule under one body
/// solution.  Pure: workers call this concurrently against the shared
/// read-only relation views.
pub(crate) fn project_heads(
    rule: &Rule,
    solution: &Bindings,
    relations: &HashMap<String, Relation>,
) -> Result<Vec<(String, Tuple)>> {
    let mut derived = Vec::with_capacity(rule.head.len());
    for atom in &rule.head {
        let pred = runtime_pred_name(&atom.pred)?;
        let mut tuple: Tuple = Vec::with_capacity(atom.terms.len());
        for term in &atom.terms {
            let value = match term {
                Term::Var(v) => solution.get(v).cloned(),
                other => eval_term(other, solution, relations)?,
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
        derived.push((pred, tuple));
    }
    Ok(derived)
}

/// The single shard-or-stay-serial decision for executions with no delta
/// restriction (the initial naïve round and aggregate recomputation): pick
/// the driving literal and hash-partition its relation's extension, or
/// return `None` when the pool is disabled, the body has no stored literal,
/// or the relation is under the threshold.  Shared by rule and aggregate
/// execution so the two can never shard under different policies.  The
/// shards borrow straight out of the relation arena.
pub(crate) fn shard_driving_relation<'a>(
    body: &[Literal],
    plan: Option<&RulePlan>,
    relations: &'a HashMap<String, Relation>,
    udfs: &UdfRegistry,
    options: &EvalOptions,
) -> Option<(usize, Vec<Vec<&'a Tuple>>)> {
    if !options.parallel_enabled() {
        return None;
    }
    let drive = drive_literal(body, plan, udfs)?;
    let Literal::Pos(atom) = &body[drive] else {
        return None;
    };
    let pred = runtime_pred_name(&atom.pred).ok()?;
    let relation = relations.get(&pred)?;
    if relation.len() < options.parallel_threshold {
        return None;
    }
    Some((drive, partition(relation.iter(), options.workers)))
}

/// The literal whose enumeration should be sharded when no delta restriction
/// pins one: the first stored-relation literal in plan execution order (the
/// outermost loop of the join).  Returns `None` when the body has no stored
/// literal — such rules are cheap and stay serial.
fn drive_literal(body: &[Literal], plan: Option<&RulePlan>, udfs: &UdfRegistry) -> Option<usize> {
    let execution_order: Vec<usize> = match plan {
        Some(plan) => plan.order.iter().map(|step| step.literal).collect(),
        None => (0..body.len()).collect(),
    };
    execution_order
        .into_iter()
        .find(|&index| stored_relation_of(&body[index], udfs).is_some())
}

/// If `literal` is a positive atom over a stored relation (not a built-in
/// type check, not a UDF), return that relation's name.
pub(crate) fn stored_relation_of(literal: &Literal, udfs: &UdfRegistry) -> Option<String> {
    let Literal::Pos(atom) = literal else {
        return None;
    };
    let pred = runtime_pred_name(&atom.pred).ok()?;
    if BUILTIN_TYPES.contains(&pred.as_str()) && atom.terms.len() == 1 {
        return None;
    }
    if udfs.is_udf(&pred) {
        return None;
    }
    Some(pred)
}

// The worker pool shares relations, plans, bindings machinery, and the UDF
// registry across threads by reference; lock in the auto-traits that makes
// sound.  (Tuples are `Arc`-shared, UDFs are `Arc<dyn Fn + Send + Sync>`.)
const _: () = {
    const fn assert_sync_send<T: Sync + Send>() {}
    assert_sync_send::<Relation>();
    assert_sync_send::<Bindings>();
    assert_sync_send::<UdfRegistry>();
    assert_sync_send::<RulePlan>();
    assert_sync_send::<super::plan::PlanStats>();
    assert_sync_send::<Value>();
};

#[cfg(test)]
mod tests {
    use super::*;

    fn t(values: &[i64]) -> Tuple {
        values.iter().map(|v| Value::Int(*v)).collect()
    }

    #[test]
    fn partition_is_disjoint_and_complete() {
        let tuples: Vec<Tuple> = (0..100).map(|i| t(&[i, i + 1])).collect();
        for workers in [1, 2, 3, 7] {
            let shards = partition(tuples.iter(), workers);
            assert_eq!(shards.len(), workers);
            let total: usize = shards.iter().map(|s| s.len()).sum();
            assert_eq!(total, tuples.len(), "shards must partition the input");
            for tuple in &tuples {
                let holders = shards.iter().filter(|s| s.contains(&tuple)).count();
                assert_eq!(holders, 1, "each tuple lives in exactly one shard");
            }
            // Shards borrow the input: no tuple is cloned by partitioning.
            for shard in &shards {
                for &held in shard {
                    assert!(tuples.iter().any(|original| std::ptr::eq(original, held)));
                }
            }
        }
    }

    #[test]
    fn shard_assignment_is_deterministic() {
        let tuple = t(&[42, 7]);
        let first = shard_of(&tuple, 4);
        for _ in 0..10 {
            assert_eq!(shard_of(&tuple, 4), first);
        }
    }

    #[test]
    fn merge_sorts_and_dedups_across_buffers() {
        let a = vec![
            ("p".to_string(), t(&[2])),
            ("p".to_string(), t(&[1])),
            ("q".to_string(), t(&[1])),
        ];
        let b = vec![("p".to_string(), t(&[1])), ("a".to_string(), t(&[9]))];
        let merged = merge_derived(vec![a, b]);
        assert_eq!(
            merged,
            vec![
                ("a".to_string(), t(&[9])),
                ("p".to_string(), t(&[1])),
                ("p".to_string(), t(&[2])),
                ("q".to_string(), t(&[1])),
            ]
        );
    }

    #[test]
    fn run_shards_skips_empty_and_propagates_first_error() {
        let owned = [t(&[1]), t(&[2]), t(&[3])];
        let shards: Vec<Vec<&Tuple>> =
            vec![vec![&owned[0]], Vec::new(), vec![&owned[1], &owned[2]]];
        let pool = WorkerPool::new(2);
        for pool in [None, Some(&pool)] {
            let sizes = run_shards(pool, &shards, |shard| Ok(shard.len())).unwrap();
            assert_eq!(sizes, vec![1, 2], "empty shard ran no worker");

            let err = run_shards(pool, &shards, |shard| {
                if shard.len() == 2 {
                    Err(DatalogError::Eval("boom".into()))
                } else {
                    Ok(())
                }
            })
            .unwrap_err();
            assert!(matches!(err, DatalogError::Eval(m) if m == "boom"));
        }
    }

    #[test]
    fn merged_run_equals_sorted_dedup_merge() {
        let owned = [t(&[1]), t(&[2]), t(&[3]), t(&[4])];
        let shards: Vec<Vec<&Tuple>> =
            vec![vec![&owned[0], &owned[2]], vec![&owned[1]], vec![&owned[3]]];
        // Workers derive overlapping heads; the pipelined merge must agree
        // with the barrier merge exactly.
        let worker = |shard: &[&Tuple]| -> Result<Vec<(String, Tuple)>> {
            Ok(shard
                .iter()
                .flat_map(|tuple| {
                    vec![
                        ("p".to_string(), (*tuple).clone()),
                        ("shared".to_string(), t(&[0])),
                    ]
                })
                .collect())
        };
        let pool = WorkerPool::new(3);
        let expected = {
            let buffers: Vec<_> = shards
                .iter()
                .filter(|s| !s.is_empty())
                .map(|s| worker(s).unwrap())
                .collect();
            merge_derived(buffers)
        };
        for pool in [None, Some(&pool)] {
            let merged = run_shards_merged(pool, &shards, worker).unwrap();
            assert_eq!(merged, expected);
        }
    }

    #[test]
    fn options_default_and_overrides() {
        let serial = EvalOptions::serial();
        assert!(!serial.parallel_enabled());
        let pool = EvalOptions::with_workers(4);
        assert!(pool.parallel_enabled());
        assert_eq!(pool.parallel_threshold, DEFAULT_PARALLEL_THRESHOLD);
    }
}
