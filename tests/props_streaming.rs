//! The streaming scheduler is semantics-free: batched, annihilated,
//! credit-backpressured delivery must produce exactly the same relations,
//! the same constraint verdicts, and the same store Merkle roots as the
//! unbatched stream (`StreamingConfig::unbatched()`: one delta per envelope,
//! applied and flushed one at a time).  Batching changes *when* deltas travel and
//! how many envelopes carry them — never what the receivers end up knowing.
//!
//! Two comparison regimes, matching `props_telemetry.rs`:
//!
//! * the deterministic REACH app (no existentials, no FD races) is compared
//!   **bit-for-bit** — every relation, every verdict counter, every EDB
//!   Merkle root — across a spread of batch/credit-window knobs including
//!   a credit window of 1 (maximum backpressure: every delta stalls until
//!   the previous one is acked);
//! * random path-vector topologies are compared at **outcome** level
//!   (routes found, bestcost entries, rejected batches): virtual time
//!   advances by measured wall-clock compute, so message/transaction counts
//!   legitimately differ between any two runs of the same scenario.
//!
//! The durable REACH scenario also exercises recovery: a batched run's WAL
//! (one record group per delta transaction, exactly as on the unbatched
//! stream) must replay to the same state the live deployment held.

use proptest::prelude::*;
use secureblox::apps::pathvector;
use secureblox::policy::SecurityConfig;
use secureblox::runtime::{Deployment, DeploymentConfig, NodeSpec, StreamingConfig};
use secureblox::{AuthScheme, DurabilityConfig, EncScheme, Value};
use secureblox_datalog::codec::serialize_tuple;
use secureblox_datalog::value::Tuple;
use std::path::{Path, PathBuf};

// ---------------------------------------------------------------------------
// Deterministic REACH app (same shape as props_telemetry.rs): bit-identical
// ---------------------------------------------------------------------------

const REACH_APP: &str = r#"
    link(N1, N2) -> node(N1), node(N2).
    remote_link(N1, N2) -> node(N1), node(N2).
    reach(N1, N2) -> node(N1), node(N2).
    exportable(`remote_link).

    says[`remote_link](self[], U, X, Y) <- link(X, Y), principal(U), U != self[].
    reach(X, Y) <- link(X, Y).
    reach(X, Y) <- remote_link(X, Y).
    reach(X, Z) <- reach(X, Y), reach(Y, Z).
"#;

fn line_specs() -> Vec<NodeSpec> {
    vec![
        NodeSpec {
            principal: "n0".into(),
            base_facts: vec![("link".into(), vec![Value::str("n0"), Value::str("n1")])],
        },
        NodeSpec {
            principal: "n1".into(),
            base_facts: vec![("link".into(), vec![Value::str("n1"), Value::str("n2")])],
        },
        NodeSpec {
            principal: "n2".into(),
            base_facts: vec![],
        },
    ]
}

fn durable_config(dir: &Path, streaming: StreamingConfig) -> DeploymentConfig {
    DeploymentConfig {
        security: SecurityConfig::new(AuthScheme::HmacSha1, EncScheme::None),
        durability: Some(DurabilityConfig::new(dir)),
        streaming,
        ..DeploymentConfig::default()
    }
}

fn fresh_dir(label: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sbx-stream-{label}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn sorted(mut tuples: Vec<Tuple>) -> Vec<Tuple> {
    tuples.sort_by_key(|t| serialize_tuple(t));
    tuples
}

fn all_queries(deployment: &Deployment) -> Vec<(String, String, Vec<Tuple>)> {
    let mut out = Vec::new();
    for principal in ["n0", "n1", "n2"] {
        for pred in ["link", "remote_link", "reach", "says$remote_link"] {
            out.push((
                principal.to_string(),
                pred.to_string(),
                sorted(deployment.query(principal, pred)),
            ));
        }
    }
    out
}

type Snapshot = (
    Vec<(String, String, Vec<Tuple>)>,
    (usize, usize, usize),
    Vec<(String, String)>,
);

fn snapshot(deployment: &Deployment, verdicts: (usize, usize, usize)) -> Snapshot {
    (
        all_queries(deployment),
        verdicts,
        deployment.edb_roots().unwrap(),
    )
}

/// One full durable scenario: build, run to fixpoint, retract a link (so the
/// deletion/WAL retract path executes under batching), run to
/// re-convergence.
fn run_durable_scenario(dir: &Path, streaming: StreamingConfig) -> (Snapshot, Deployment) {
    let mut deployment =
        Deployment::build(REACH_APP, &line_specs(), durable_config(dir, streaming)).unwrap();
    let first = deployment.run().unwrap();
    deployment
        .retract(
            "n1",
            vec![("link".into(), vec![Value::str("n1"), Value::str("n2")])],
        )
        .unwrap();
    let second = deployment.run().unwrap();
    let verdicts = (
        first.rejected_batches + second.rejected_batches,
        first.conflicting_batches + second.conflicting_batches,
        first.retractions_applied + second.retractions_applied,
    );
    let snap = snapshot(&deployment, verdicts);
    (snap, deployment)
}

/// Batched/backpressured delivery is bit-identical to unbatched delivery
/// on a deterministic app: relations, verdicts, and Merkle roots all match
/// across batching knobs from "degenerate" (batch of 1, credit window 1 —
/// every delta individually acked) to "greedy" (the shipped defaults).
#[test]
fn streaming_durable_run_matches_unbatched_bit_for_bit() {
    let base_dir = fresh_dir("base");
    let (baseline, _) = run_durable_scenario(&base_dir, StreamingConfig::unbatched());
    let _ = std::fs::remove_dir_all(&base_dir);

    for (batch_max, high_water) in [(1usize, 1usize), (4, 8), (64, 256)] {
        let dir = fresh_dir(&format!("s{batch_max}-{high_water}"));
        let (streamed, _) =
            run_durable_scenario(&dir, StreamingConfig::with_knobs(batch_max, high_water));
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(
            streamed.0, baseline.0,
            "relations diverged (batch={batch_max}, window={high_water})"
        );
        assert_eq!(
            streamed.1, baseline.1,
            "constraint verdicts diverged (batch={batch_max}, window={high_water})"
        );
        assert_eq!(
            streamed.2, baseline.2,
            "store Merkle roots diverged (batch={batch_max}, window={high_water})"
        );
    }
}

/// A streaming-mode WAL replays faithfully: recovery re-applies the logged
/// record groups as the original per-delta transactions, landing on the same
/// relations and Merkle roots the live deployment held.
#[test]
fn recovery_replays_streaming_batch_wal_records_in_order() {
    let streaming = StreamingConfig::with_knobs(8, 32);
    let dir = fresh_dir("recover");
    let (live, deployment) = run_durable_scenario(&dir, streaming.clone());
    drop(deployment);

    let recovered = Deployment::recover(
        &dir,
        REACH_APP,
        &line_specs(),
        durable_config(&dir, streaming),
    )
    .unwrap();
    assert_eq!(
        all_queries(&recovered),
        live.0,
        "recovered relations diverged from the live streaming deployment"
    );
    assert_eq!(
        recovered.edb_roots().unwrap(),
        live.2,
        "recovered Merkle roots diverged from the live streaming deployment"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// Order-sensitive acceptance inside one coalesced envelope
// ---------------------------------------------------------------------------

/// An app whose import acceptance is ORDER-SENSITIVE: an imported `edge`
/// only satisfies its constraint once both endpoint `vertex` facts are
/// known, and the export scan (sorted by predicate name) ships `says$edge`
/// *before* `says$vertex` in the same flush.  The unbatched stream rejects
/// the edge delta permanently — its transaction runs before the vertices
/// arrive, and the sender's `sent` cursor never re-ships it.
const ORDER_APP: &str = r#"
    vertex(N) -> node(N).
    edge(N1, N2) -> node(N1), node(N2).
    edge(N1, N2) -> vertex(N1), vertex(N2).
    local_vertex(N) -> node(N).
    local_edge(N1, N2) -> node(N1), node(N2).
    exportable(`edge).
    exportable(`vertex).

    vertex(N) <- local_vertex(N).
    edge(X, Y) <- local_edge(X, Y).
    says[`edge](self[], U, X, Y) <- local_edge(X, Y), principal(U), U != self[].
    says[`vertex](self[], U, N) <- local_vertex(N), principal(U), U != self[].
"#;

fn run_order_scenario(streaming: StreamingConfig) -> (Vec<Tuple>, Vec<Tuple>, usize) {
    let specs = vec![
        NodeSpec {
            principal: "n0".into(),
            base_facts: vec![
                ("local_vertex".into(), vec![Value::str("n0")]),
                ("local_vertex".into(), vec![Value::str("n1")]),
                (
                    "local_edge".into(),
                    vec![Value::str("n0"), Value::str("n1")],
                ),
            ],
        },
        NodeSpec {
            principal: "n1".into(),
            base_facts: vec![],
        },
    ];
    let config = DeploymentConfig {
        security: SecurityConfig::new(AuthScheme::HmacSha1, EncScheme::None),
        streaming,
        ..DeploymentConfig::default()
    };
    let mut deployment = Deployment::build(ORDER_APP, &specs, config).unwrap();
    let report = deployment.run().unwrap();
    (
        sorted(deployment.query("n1", "edge")),
        sorted(deployment.query("n1", "vertex")),
        report.rejected_batches,
    )
}

/// The regression locked in by the review: a coalesced envelope carrying
/// [`says$edge(a,b)`, `says$vertex(a)`, `says$vertex(b)`] must NOT accept
/// the edge just because the vertices ride in the same batch.  Per-delta
/// verdicts are order-sensitive, and batching must reproduce the
/// unbatched stream's rejection exactly — a combined whole-batch
/// transaction would commit and silently widen policy acceptance.
#[test]
fn coalesced_envelope_keeps_per_delta_rejection_semantics() {
    let unbatched = run_order_scenario(StreamingConfig::unbatched());
    // The edge is rejected (its endpoints are unknown when it applies) and
    // never re-shipped; the vertices land.
    assert_eq!(unbatched.0, Vec::<Tuple>::new());
    assert_eq!(
        unbatched.1,
        vec![vec![Value::str("n0")], vec![Value::str("n1")]]
    );
    assert!(unbatched.2 >= 1, "edge delta must be rejected");

    for (batch_max, high_water) in [(4usize, 16usize), (64, 256)] {
        let streamed = run_order_scenario(StreamingConfig::with_knobs(batch_max, high_water));
        assert_eq!(
            streamed, unbatched,
            "streaming (batch={batch_max}, window={high_water}) diverged from unbatched"
        );
    }
}

// ---------------------------------------------------------------------------
// Path-vector protocol on random topologies: outcome-identical
// ---------------------------------------------------------------------------

/// `pathvector::run` with an explicit streaming config (the app's own entry
/// point builds its `DeploymentConfig` internally).
fn run_pathvector(
    num_nodes: usize,
    seed: u64,
    streaming: StreamingConfig,
) -> (usize, usize, usize) {
    let edges = pathvector::random_graph(num_nodes, 3, seed);
    let specs = pathvector::node_specs(num_nodes, &edges);
    let config = DeploymentConfig {
        security: SecurityConfig::new(AuthScheme::HmacSha1, EncScheme::None),
        seed,
        allow_recursive_negation: true,
        streaming,
        ..DeploymentConfig::default()
    };
    let mut deployment = Deployment::build(&pathvector::app_source(), &specs, config).unwrap();
    let report = deployment.run().unwrap();
    let mut best_cost_entries = 0usize;
    let mut nodes_with_route_to_zero = 0usize;
    for i in 0..num_nodes {
        let principal = pathvector::principal_name(i);
        let best = deployment.query(&principal, "bestcost");
        best_cost_entries += best.len();
        if i != 0
            && best.iter().any(|t| {
                t.get(1).and_then(|v| v.as_str()) == Some(pathvector::principal_name(0).as_str())
            })
        {
            nodes_with_route_to_zero += 1;
        }
    }
    (
        nodes_with_route_to_zero,
        best_cost_entries,
        report.rejected_batches,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// On any random topology the protocol *outcome* — routes found, join
    /// entries, policy verdicts — is identical whether deltas travel one
    /// per envelope or coalesced under credit-based backpressure.
    /// Scheduling counters (total transactions / messages) are deliberately
    /// not compared: virtual time advances by measured wall-clock compute,
    /// so duplicate-resend counts vary between any two runs of the same
    /// scenario, streaming or not.
    #[test]
    fn pathvector_outcome_is_independent_of_streaming(num_nodes in 4usize..7,
                                                      seed in 0u64..1000) {
        let unbatched = run_pathvector(num_nodes, seed, StreamingConfig::unbatched());
        let streamed = run_pathvector(num_nodes, seed, StreamingConfig::with_knobs(16, 64));
        prop_assert_eq!(streamed.0, unbatched.0);
        prop_assert_eq!(streamed.1, unbatched.1);
        prop_assert_eq!(streamed.2, unbatched.2);
    }
}
