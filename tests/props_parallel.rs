//! Property: sharded parallel evaluation is observably identical to serial
//! evaluation at every worker count.
//!
//! Random programs (joins, recursion, comparisons, assignments, stratified
//! negation, aggregation, head existentials) over random edge relations are evaluated once per
//! worker count in `{1, 2, 4, 7}` with the shard threshold forced to 1 so
//! every execution takes the parallel path.  Every run must agree with the
//! single-worker baseline on:
//!
//! * the full fixpoint — every relation, byte for byte,
//! * the Merkle commitment of the database logged into a `secureblox-store`
//!   fact store,
//! * constraint verdicts (which probe batches commit vs roll back), and
//! * DRed retraction sequences — every relation after every single
//!   retraction, minted entity ids included (over-deletion runs through the
//!   same sharded round evaluator as derivation).
//!
//! Debug builds additionally assert parallel-vs-serial equivalence inside
//! every sharded rule execution (see `eval::exec`), so a shrunk failure here
//! pinpoints the diverging rule directly.

use proptest::prelude::*;
use secureblox_datalog::{EvalConfig, EvalOptions, Value, Workspace};
use secureblox_store::{derive_node_key, FactStore};
use std::path::PathBuf;

const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 7];

/// Verdict and every relation's contents observed after one retraction step.
type RetractionTrace = Vec<(bool, Vec<(String, Vec<Vec<Value>>)>)>;

fn arb_edges() -> impl Strategy<Value = Vec<(u8, u8)>> {
    proptest::collection::vec(
        (any::<u8>(), any::<u8>()).prop_map(|(a, b)| (a % 8, b % 8)),
        0..32,
    )
}

/// A random-but-always-textually-valid program, mirroring the planner
/// equivalence suite: comparisons appear after their binders so the serial
/// evaluator never errors and equivalence is meaningful.  A runtime
/// constraint (`probe` tuples must be `tc`-reachable pairs) exercises the
/// planned constraint checker under every worker count.
fn build_program(
    cmp_kind: u8,
    with_negation: bool,
    with_agg: bool,
    with_triple: bool,
    with_existential: bool,
) -> String {
    let mut program = String::from(
        "tc(X, Y) <- e0(X, Y).\n\
         tc(X, Z) <- e0(X, Y), tc(Y, Z).\n\
         probe(X, Y) -> tc(X, Y).\n",
    );
    let cmp_tail = match cmp_kind % 4 {
        0 => "",
        1 => ", X != Z",
        2 => ", X <= Z",
        _ => ", X < 6",
    };
    program.push_str(&format!("join1(X, Z) <- e0(X, Y), e1(Y, Z){cmp_tail}.\n"));
    program.push_str("shift(X, C) <- e0(X, Y), C = Y + 1.\n");
    if with_triple {
        program.push_str("join2(X, W) <- e0(X, Y), e1(Y, Z), e0(Z, W).\n");
    }
    if with_negation {
        program.push_str("filt(X, Y) <- join1(X, Y), !e1(X, Y).\n");
    }
    if with_agg {
        program.push_str("total[X] = S <- agg<< S = sum(Y) >> e0(X, Y).\n");
    }
    if with_existential {
        // One entity per closure pair that an e1 edge leaves: recursion
        // feeding a minting rule, which a retraction both over-deletes
        // (recalling memoized entities) and re-derives.
        program.push_str("hopvar(H) -> .\nhopvar(H), hop(H, X, Z) <- tc(X, Y), e1(Y, Z).\n");
    }
    program
}

/// One full scenario at a given worker count: install, load, fixpoint,
/// constraint probes, then a DRed retraction sequence.  Returns the
/// constraint verdicts and the sorted relations observed after each step.
fn run_scenario(
    program: &str,
    e0: &[(u8, u8)],
    e1: &[(u8, u8)],
    probes: &[(u8, u8)],
    retracts: &[(u8, u8)],
    workers: usize,
) -> (Workspace, Vec<bool>, RetractionTrace) {
    let mut ws = Workspace::with_config(EvalConfig {
        exec: EvalOptions {
            workers,
            parallel_threshold: 1,
        },
        ..EvalConfig::default()
    });
    ws.install_source(program).unwrap();
    for (pred, edges) in [("e0", e0), ("e1", e1)] {
        for (a, b) in edges {
            ws.assert_fact(pred, vec![Value::Int(*a as i64), Value::Int(*b as i64)])
                .unwrap();
        }
    }
    ws.fixpoint().unwrap();

    // Constraint verdicts: a probe batch commits iff the pair is reachable.
    let mut verdicts = Vec::with_capacity(probes.len());
    for (a, b) in probes {
        let outcome = ws.transaction(vec![(
            "probe".into(),
            vec![Value::Int(*a as i64), Value::Int(*b as i64)],
        )]);
        verdicts.push(outcome.is_ok());
    }

    // DRed retraction sequence: observe the verdict and every relation
    // after every step.  A retraction that breaks a committed `probe` fact's
    // constraint legitimately rolls back — that outcome must also be
    // identical at every worker count.
    let mut traces = Vec::with_capacity(retracts.len());
    for (a, b) in retracts {
        let outcome = ws.retract(vec![(
            "e0".into(),
            vec![Value::Int(*a as i64), Value::Int(*b as i64)],
        )]);
        let relations = ws
            .predicate_names()
            .into_iter()
            .map(|pred| (pred.clone(), ws.query(&pred)))
            .collect();
        traces.push((outcome.is_ok(), relations));
    }
    (ws, verdicts, traces)
}

/// Merkle-commit every relation of the workspace through the durable store's
/// commitment machinery and return the root.
fn merkle_root(ws: &Workspace, tag: &str) -> String {
    let dir: PathBuf =
        std::env::temp_dir().join(format!("sbx-props-parallel-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let key = derive_node_key(1, "props");
    let mut store = FactStore::open(&dir, &key).unwrap();
    for pred in ws.predicate_names() {
        let tuples = ws.query(&pred);
        store
            .log_inserts(tuples.iter().map(|t| (pred.as_str(), t)), 1)
            .unwrap();
    }
    let root = store.base_root_hex();
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
    root
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    #[test]
    fn parallel_fixpoint_equals_serial_at_any_worker_count(
        e0 in arb_edges(),
        e1 in arb_edges(),
        cmp_kind in any::<u8>(),
        with_negation in any::<bool>(),
        with_agg in any::<bool>(),
        with_triple in any::<bool>(),
        with_existential in any::<bool>(),
        probe_seed in any::<u8>(),
    ) {
        let program =
            build_program(cmp_kind, with_negation, with_agg, with_triple, with_existential);
        // Probe both a likely-reachable pair (an asserted edge) and an
        // arbitrary pair, so commits and rollbacks are both exercised.
        let mut probes: Vec<(u8, u8)> = Vec::new();
        if let Some(first) = e0.first() {
            probes.push(*first);
        }
        probes.push((probe_seed % 8, (probe_seed / 8) % 8));
        // Retract up to three distinct e0 edges, one at a time.
        let mut retracts: Vec<(u8, u8)> = e0.clone();
        retracts.sort();
        retracts.dedup();
        retracts.truncate(3);

        let (baseline_ws, baseline_verdicts, baseline_traces) =
            run_scenario(&program, &e0, &e1, &probes, &retracts, WORKER_COUNTS[0]);
        let baseline_root = merkle_root(&baseline_ws, "w1");

        for &workers in &WORKER_COUNTS[1..] {
            let (ws, verdicts, traces) =
                run_scenario(&program, &e0, &e1, &probes, &retracts, workers);
            prop_assert!(
                verdicts == baseline_verdicts,
                "constraint verdicts diverged at {} workers under program:\n{}",
                workers,
                program
            );
            prop_assert_eq!(baseline_ws.predicate_names(), ws.predicate_names());
            for pred in baseline_ws.predicate_names() {
                prop_assert!(
                    baseline_ws.query(&pred) == ws.query(&pred),
                    "relation {} diverged at {} workers under program:\n{}",
                    pred,
                    workers,
                    program
                );
            }
            prop_assert!(
                traces == baseline_traces,
                "DRed retraction trace diverged at {} workers under program:\n{}",
                workers,
                program
            );
            let root = merkle_root(&ws, &format!("w{workers}"));
            prop_assert!(
                root == baseline_root,
                "store Merkle root diverged at {} workers",
                workers
            );
        }
    }
}
