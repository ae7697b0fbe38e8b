//! Telemetry is effect-free: running any scenario with the metric registry
//! and span tracing enabled must produce exactly the same relations, the
//! same constraint verdicts, and the same store Merkle roots as running it
//! with telemetry disabled.  Instrumentation observes the computation; it
//! must never participate in it.
//!
//! The global enabled/disabled flags are process-wide, so every test in this
//! binary serializes on one lock and restores the default state (metrics on,
//! tracing off) before releasing it.

use proptest::prelude::*;
use secureblox::apps::pathvector;
use secureblox::policy::SecurityConfig;
use secureblox::runtime::{Deployment, DeploymentConfig, NodeSpec};
use secureblox::{AuthScheme, DurabilityConfig, EncScheme, Value};
use secureblox_datalog::codec::serialize_tuple;
use secureblox_datalog::value::Tuple;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

static FLAG_LOCK: Mutex<()> = Mutex::new(());

/// Run `f` with telemetry fully on (metrics + ring tracing) or fully off,
/// then restore the shipped defaults.  The caller must hold [`FLAG_LOCK`].
fn with_telemetry<T>(enabled: bool, f: impl FnOnce() -> T) -> T {
    secureblox_telemetry::set_metrics_enabled(enabled);
    if enabled {
        secureblox_telemetry::enable_tracing_to_ring();
    } else {
        secureblox_telemetry::disable_tracing();
    }
    let out = f();
    secureblox_telemetry::set_metrics_enabled(true);
    secureblox_telemetry::disable_tracing();
    let _ = secureblox_telemetry::take_spans();
    out
}

// ---------------------------------------------------------------------------
// Path-vector protocol on random topologies
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// On any random topology the protocol *outcome* — routes found, join
    /// entries, policy verdicts — is identical whether telemetry observes the
    /// run or not.  Scheduling counters (total transactions / messages) are
    /// deliberately not compared: virtual time advances by *measured*
    /// wall-clock compute, so duplicate-resend counts vary between any two
    /// runs of the same scenario, telemetry or not.
    #[test]
    fn pathvector_outcome_is_independent_of_telemetry(num_nodes in 4usize..7,
                                                      seed in 0u64..1000) {
        let _lock = FLAG_LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let config = pathvector::PathVectorConfig {
            num_nodes,
            seed,
            security: SecurityConfig::new(AuthScheme::HmacSha1, EncScheme::None),
            ..Default::default()
        };
        let observed = with_telemetry(true, || pathvector::run(&config).unwrap());
        let unobserved = with_telemetry(false, || pathvector::run(&config).unwrap());
        prop_assert_eq!(observed.nodes_with_route_to_zero, unobserved.nodes_with_route_to_zero);
        prop_assert_eq!(observed.best_cost_entries, unobserved.best_cost_entries);
        prop_assert_eq!(observed.report.rejected_batches, unobserved.report.rejected_batches);
    }
}

// ---------------------------------------------------------------------------
// Durable deployment: relations and Merkle roots
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

fn durable_config(dir: &Path) -> DeploymentConfig {
    DeploymentConfig {
        security: SecurityConfig::new(AuthScheme::HmacSha1, EncScheme::None),
        durability: Some(DurabilityConfig::new(dir)),
        ..DeploymentConfig::default()
    }
}

fn fresh_dir(label: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sbx-telem-{label}-{}", std::process::id()));
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

/// One full durable scenario: build, run to fixpoint, retract a link (so the
/// deletion/WAL path executes), return queries + verdicts + Merkle roots.
#[allow(clippy::type_complexity)]
fn run_durable_scenario(
    dir: &Path,
) -> (
    Vec<(String, String, Vec<Tuple>)>,
    (usize, usize, usize),
    Vec<(String, String)>,
) {
    let mut deployment = Deployment::build(REACH_APP, &line_specs(), durable_config(dir)).unwrap();
    let report = deployment.run().unwrap();
    deployment
        .retract(
            "n1",
            vec![("link".into(), vec![Value::str("n1"), Value::str("n2")])],
        )
        .unwrap();
    let roots = deployment.edb_roots().unwrap();
    (
        all_queries(&deployment),
        (
            report.rejected_batches,
            report.conflicting_batches,
            report.retractions_applied,
        ),
        roots,
    )
}

#[test]
fn durable_run_is_bit_identical_with_and_without_telemetry() {
    let _lock = FLAG_LOCK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let on_dir = fresh_dir("on");
    let off_dir = fresh_dir("off");
    let observed = with_telemetry(true, || run_durable_scenario(&on_dir));
    let unobserved = with_telemetry(false, || run_durable_scenario(&off_dir));
    assert_eq!(observed.0, unobserved.0, "relations diverged");
    assert_eq!(observed.1, unobserved.1, "constraint verdicts diverged");
    assert_eq!(observed.2, unobserved.2, "store Merkle roots diverged");
    let _ = std::fs::remove_dir_all(&on_dir);
    let _ = std::fs::remove_dir_all(&off_dir);
}

/// The deployment report's telemetry section exposes latency distributions
/// for the three acceptance histograms: fixpoint evaluation, WAL appends,
/// and update-stream application.
#[test]
fn report_telemetry_exposes_fixpoint_wal_and_update_apply() {
    let _lock = FLAG_LOCK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    with_telemetry(true, || {
        let dir = fresh_dir("report");
        let mut deployment =
            Deployment::build(REACH_APP, &line_specs(), durable_config(&dir)).unwrap();
        let report = deployment.run().unwrap();
        for name in [
            "datalog_fixpoint_ns",
            "store_wal_append_ns",
            "engine_update_apply_ns",
        ] {
            let summary = report
                .telemetry
                .iter()
                .find(|s| s.name == name)
                .unwrap_or_else(|| panic!("{name} missing from report telemetry"));
            assert!(summary.count > 0, "{name} recorded nothing");
            assert!(summary.p50 <= summary.p99, "{name} quantiles out of order");
            assert!(summary.p99 <= summary.max, "{name} p99 above max");
        }
        let _ = std::fs::remove_dir_all(&dir);
    });
}

/// Every rule execution is counted once, by the way it ran, and observed
/// once: on one workspace the `datalog_rule_exec_*_total` counters add up to
/// `serial_batches`, and `datalog_rule_batch_join_ns` holds one observation
/// per combination — everything but the aggregate recomputations.
#[test]
fn rule_executions_are_counted_by_path_and_observed_once() {
    let _lock = FLAG_LOCK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let registry = secureblox_telemetry::registry();
    let read = || {
        let counter = |path: &str| {
            registry
                .counter(&format!("datalog_rule_exec_{path}_total"))
                .get()
        };
        (
            [
                counter("batch"),
                counter("tuple"),
                counter("existential"),
                counter("aggregate"),
            ],
            registry.histogram("datalog_rule_batch_join_ns").count(),
        )
    };
    with_telemetry(true, || {
        let (before, observed_before) = read();
        // A batch-eligible recursion, a comparison (tuple path), a head
        // existential and an aggregate, through a naive fixpoint, a seeded
        // transaction and a retraction.
        let mut ws = secureblox_datalog::Workspace::new();
        ws.install_source(
            "reach(X, Y) <- link(X, Y).\n\
             reach(X, Z) <- link(X, Y), reach(Y, Z).\n\
             up(X, Y) <- link(X, Y), X < Y.\n\
             hopvar(H) -> .\n\
             hopvar(H), hop(H, X, Y) <- link(X, Y).\n\
             fanout[X] = N <- agg<< N = count(Y) >> link(X, Y).\n\
             link(1, 2). link(2, 3). link(3, 1).",
        )
        .unwrap();
        ws.fixpoint().unwrap();
        let link = |x, y| vec![("link".to_string(), vec![Value::Int(x), Value::Int(y)])];
        ws.transaction(link(3, 4)).unwrap();
        ws.retract(link(2, 3)).unwrap();

        let (after, observed_after) = read();
        let [batch, tuple, existential, aggregate] =
            std::array::from_fn(|path| after[path] - before[path]);
        for (path, count) in [
            ("batch", batch),
            ("tuple", tuple),
            ("existential", existential),
            ("aggregate", aggregate),
        ] {
            assert!(count > 0, "no {path} execution counted");
        }
        let executions = ws.plan_stats().serial_batches;
        assert_eq!(batch + tuple + existential + aggregate, executions);
        assert_eq!(observed_after - observed_before, executions - aggregate);
    });
}

/// The observed run really was observed: with ring tracing on, engine spans
/// land in the buffer; with everything off, nothing is recorded — so the
/// equality above compares an instrumented run against a bare one.
#[test]
fn enabled_run_actually_records_telemetry() {
    let _lock = FLAG_LOCK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let config = pathvector::PathVectorConfig {
        num_nodes: 4,
        seed: 7,
        security: SecurityConfig::new(AuthScheme::HmacSha1, EncScheme::None),
        ..Default::default()
    };
    let spans = with_telemetry(true, || {
        let _ = secureblox_telemetry::take_spans();
        pathvector::run(&config).unwrap();
        secureblox_telemetry::take_spans()
    });
    assert!(
        spans
            .iter()
            .any(|s| s.target == "engine" && s.name == "update_apply"),
        "expected engine update_apply spans, got {} spans",
        spans.len()
    );
    let quiet = with_telemetry(false, || {
        pathvector::run(&config).unwrap();
        secureblox_telemetry::take_spans()
    });
    assert!(quiet.is_empty(), "disabled tracing must record nothing");
}
