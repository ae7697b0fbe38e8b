//! The reactor executor is outcome-equivalent to the virtual-time reference
//! loop: wall-clock-parallel node tasks woken by message arrival must leave
//! every deployment in exactly the state the deterministic reference
//! executor produces — the same relations, the same constraint verdicts,
//! the same store Merkle roots.  What the reactor changes is *scheduling*
//! (cross-link message interleavings, wall-clock parallelism); what it must
//! never change is what the receivers end up knowing.
//!
//! Two comparison regimes, matching `props_streaming.rs`:
//!
//! * the deterministic REACH app (no existentials, no FD races) is compared
//!   **bit-for-bit** — relations, verdict counters, EDB Merkle roots —
//!   across reactor threads {1, 4}, unbatched and batched streams, and the durable
//!   recovery path;
//! * random path-vector topologies are compared at **outcome** level
//!   (routes found, bestcost entries, rejected batches): virtual time
//!   advances by measured wall-clock compute, so message/transaction counts
//!   legitimately differ between any two runs of the same scenario.

use proptest::prelude::*;
use secureblox::apps::pathvector;
use secureblox::policy::SecurityConfig;
use secureblox::runtime::{Deployment, DeploymentConfig, NodeSpec, ReactorConfig, StreamingConfig};
use secureblox::{AuthScheme, DurabilityConfig, EncScheme, Value};
use secureblox_datalog::codec::serialize_tuple;
use secureblox_datalog::value::Tuple;
use std::path::{Path, PathBuf};

// ---------------------------------------------------------------------------
// Deterministic REACH app (same shape as props_streaming.rs): bit-identical
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

fn durable_config(
    dir: &Path,
    reactor: ReactorConfig,
    streaming: StreamingConfig,
) -> DeploymentConfig {
    DeploymentConfig {
        security: SecurityConfig::new(AuthScheme::HmacSha1, EncScheme::None),
        durability: Some(DurabilityConfig::new(dir)),
        reactor,
        streaming,
        ..DeploymentConfig::default()
    }
}

fn fresh_dir(label: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sbx-reactor-{label}-{}", std::process::id()));
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
/// deletion/WAL retract path executes under the reactor), run to
/// re-convergence.
fn run_durable_scenario(
    dir: &Path,
    reactor: ReactorConfig,
    streaming: StreamingConfig,
) -> (Snapshot, Deployment) {
    let mut deployment = Deployment::build(
        REACH_APP,
        &line_specs(),
        durable_config(dir, reactor, streaming),
    )
    .unwrap();
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

/// Reactor-mode delivery is bit-identical to the reference loop on a
/// deterministic app: relations, verdicts, and Merkle roots all match, for 1
/// and 4 reactor threads, and with the stream both unbatched (one delta per
/// envelope) and batched (coalescing + credit).
#[test]
fn reactor_durable_run_matches_reference_bit_for_bit() {
    for streaming in [
        StreamingConfig::unbatched(),
        StreamingConfig::with_knobs(4, 8),
    ] {
        let base_dir = fresh_dir(&format!("base-b{}", streaming.batch_max));
        let (baseline, _) =
            run_durable_scenario(&base_dir, ReactorConfig::disabled(), streaming.clone());
        let _ = std::fs::remove_dir_all(&base_dir);

        for threads in [1usize, 4] {
            let dir = fresh_dir(&format!("r{threads}-b{}", streaming.batch_max));
            let (reactor, _) = run_durable_scenario(
                &dir,
                ReactorConfig::with_threads(threads),
                streaming.clone(),
            );
            let _ = std::fs::remove_dir_all(&dir);
            assert_eq!(
                reactor.0, baseline.0,
                "relations diverged (threads={threads}, batch_max={})",
                streaming.batch_max
            );
            assert_eq!(
                reactor.1, baseline.1,
                "constraint verdicts diverged (threads={threads}, batch_max={})",
                streaming.batch_max
            );
            assert_eq!(
                reactor.2, baseline.2,
                "store Merkle roots diverged (threads={threads}, batch_max={})",
                streaming.batch_max
            );
        }
    }
}

/// A reactor-mode WAL replays faithfully: recovery re-applies the logged
/// record groups as the original transactions, landing on the same relations
/// and Merkle roots the live reactor-mode deployment held.
#[test]
fn recovery_replays_a_reactor_mode_wal() {
    let streaming = StreamingConfig::with_knobs(8, 32);
    let dir = fresh_dir("recover");
    let (live, deployment) =
        run_durable_scenario(&dir, ReactorConfig::with_threads(4), streaming.clone());
    drop(deployment);

    let recovered = Deployment::recover(
        &dir,
        REACH_APP,
        &line_specs(),
        durable_config(&dir, ReactorConfig::disabled(), streaming),
    )
    .unwrap();
    assert_eq!(
        all_queries(&recovered),
        live.0,
        "recovered relations diverged from the live reactor deployment"
    );
    assert_eq!(
        recovered.edb_roots().unwrap(),
        live.2,
        "recovered Merkle roots diverged from the live reactor deployment"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// Path-vector protocol on random topologies: outcome-identical
// ---------------------------------------------------------------------------

/// Build and run a path-vector deployment under an explicit executor and
/// streaming choice, reporting protocol outcome only.
fn run_pathvector(
    num_nodes: usize,
    seed: u64,
    reactor: ReactorConfig,
    streaming: StreamingConfig,
) -> (usize, usize, usize) {
    let edges = pathvector::random_graph(num_nodes, 3, seed);
    let specs = pathvector::node_specs(num_nodes, &edges);
    let config = DeploymentConfig {
        security: SecurityConfig::new(AuthScheme::HmacSha1, EncScheme::None),
        seed,
        allow_recursive_negation: true,
        reactor,
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
    /// entries, policy verdicts — is identical whether nodes take turns in
    /// the virtual-time loop or run wall-clock-parallel as reactor tasks,
    /// with the stream both unbatched and batched.  Scheduling counters
    /// (total transactions / messages) are deliberately not compared:
    /// virtual time advances by measured wall-clock compute, so duplicate
    /// re-send counts vary between any two runs of the same scenario.
    #[test]
    fn pathvector_outcome_is_independent_of_the_executor(num_nodes in 4usize..7,
                                                         seed in 0u64..1000) {
        for streaming in [StreamingConfig::unbatched(), StreamingConfig::with_knobs(16, 64)] {
            let reference = run_pathvector(
                num_nodes, seed, ReactorConfig::disabled(), streaming.clone());
            let reactor = run_pathvector(
                num_nodes, seed, ReactorConfig::with_threads(4), streaming);
            prop_assert_eq!(reactor.0, reference.0);
            prop_assert_eq!(reactor.1, reference.1);
            prop_assert_eq!(reactor.2, reference.2);
        }
    }
}
