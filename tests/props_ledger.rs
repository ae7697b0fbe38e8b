//! A node owns what it measures.  Every figure of a `DeploymentReport` is a
//! fold over the per-node ledgers (`Deployment::ledgers`), a node records
//! only what it did itself, and reporting reads — it never writes.  So, on
//! real deployments and under every executor:
//!
//! * at quiescence the ledgers balance: what the nodes sent is what the
//!   nodes received, a node's per-destination and per-kind rows each sum to
//!   what it sent, and the report's totals are the folds they claim to be;
//! * a run with nothing to do sends nothing and judges nothing;
//! * where the wire is schedule-independent (monotone REACH, one delta per
//!   envelope) the ledgers are *equal* across executors, not merely balanced;
//! * `report()` leaves the process-wide registry alone, and two deployments
//!   reporting in one process get the reports they would get alone.

use secureblox::apps::{hashjoin, pathvector};
use secureblox::policy::SecurityConfig;
use secureblox::runtime::{
    Deployment, DeploymentConfig, DeploymentReport, NodeSpec, ReactorConfig, ShardMap,
    StreamingConfig,
};
use secureblox::{AuthScheme, DurabilityConfig, EncScheme, Value};
use secureblox_net::{LinkTraffic, NodeLedger};

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

fn executors() -> [ReactorConfig; 3] {
    [
        ReactorConfig::disabled(),
        ReactorConfig::with_threads(1),
        ReactorConfig::with_threads(4),
    ]
}

fn hmac(reactor: ReactorConfig, streaming: StreamingConfig) -> DeploymentConfig {
    DeploymentConfig {
        security: SecurityConfig::new(AuthScheme::HmacSha1, EncScheme::None),
        seed: 17,
        reactor,
        streaming,
        ..DeploymentConfig::default()
    }
}

/// REACH on a ring of `n`: every node owns a link to each neighbour.
fn reach(n: usize, config: DeploymentConfig) -> Deployment {
    let name = |i: usize| Value::str(format!("n{i}"));
    let specs: Vec<NodeSpec> = (0..n)
        .map(|i| NodeSpec {
            principal: format!("n{i}"),
            base_facts: [(i + 1) % n, (i + n - 1) % n]
                .iter()
                .map(|&j| ("link".to_string(), vec![name(i), name(j)]))
                .collect(),
        })
        .collect();
    Deployment::build(REACH_APP, &specs, config).unwrap()
}

fn path_vector(config: DeploymentConfig) -> Deployment {
    let edges = pathvector::random_graph(6, 3, config.seed);
    let specs = pathvector::node_specs(6, &edges);
    let config = DeploymentConfig {
        allow_recursive_negation: true,
        ..config
    };
    Deployment::build(&pathvector::app_source(), &specs, config).unwrap()
}

/// The §7.2 join through the shard plane (`hashjoin::build_sharded_deployment`
/// with the executor and the durability directory open to the caller).
fn sharded_join(config: DeploymentConfig) -> Deployment {
    let join = hashjoin::HashJoinConfig {
        num_nodes: 4,
        table_a_rows: 90,
        table_b_rows: 80,
        distinct_join_values: 18,
        seed: config.seed,
        ..hashjoin::HashJoinConfig::default()
    };
    let (table_a, table_b) = hashjoin::generate_tables(&join);
    let principals: Vec<String> = (0..join.num_nodes).map(hashjoin::principal_name).collect();
    let specs: Vec<NodeSpec> = principals.iter().map(NodeSpec::new).collect();
    let rows = |pred: &str, table: &[(i64, i64)]| -> Vec<(String, Vec<Value>)> {
        table
            .iter()
            .map(|&(a, b)| (pred.to_string(), vec![Value::Int(a), Value::Int(b)]))
            .collect()
    };
    let config = DeploymentConfig {
        singletons: vec![("initiator".into(), Value::str(hashjoin::principal_name(0)))],
        shared_facts: [rows("tableA", &table_a), rows("tableB", &table_b)].concat(),
        sharding: Some(
            ShardMap::new(principals)
                .shard("tableA", 0)
                .shard("tableB", 0),
        ),
        ..config
    };
    Deployment::build(&hashjoin::sharded_app_source(), &specs, config).unwrap()
}

fn rows_total<K>(rows: &std::collections::HashMap<K, LinkTraffic>) -> (usize, usize) {
    rows.values().fold((0, 0), |(bytes, messages), row| {
        (bytes + row.bytes, messages + row.messages)
    })
}

/// The conservation laws of a quiescent deployment's ledgers.
fn assert_ledgers_balance(deployment: &Deployment, report: &DeploymentReport, what: &str) {
    let ledgers = deployment.ledgers();
    assert_eq!(ledgers.len(), report.num_nodes, "{what}");
    let sum = |count: fn(&NodeLedger) -> usize| -> usize { ledgers.iter().map(|l| count(l)).sum() };
    assert_eq!(
        sum(|l| l.traffic().bytes_sent),
        sum(|l| l.traffic().bytes_received),
        "{what}: every sent byte is received"
    );
    assert_eq!(
        sum(|l| l.traffic().messages_sent),
        sum(|l| l.traffic().messages_received),
        "{what}: every sent message is received"
    );
    assert!(sum(|l| l.traffic().messages_sent) > 0, "{what}: vacuous");
    for (node, ledger) in ledgers.iter().enumerate() {
        let sent = (ledger.traffic().bytes_sent, ledger.traffic().messages_sent);
        assert_eq!(rows_total(ledger.sent_to()), sent, "{what}: node {node}");
        assert_eq!(
            rows_total(ledger.sent_by_kind()),
            sent,
            "{what}: node {node}"
        );
        assert_eq!(
            ledger.transaction_durations().len(),
            ledger.completion_times().len(),
            "{what}: node {node}"
        );
    }
    let per_node_bytes: Vec<usize> = ledgers.iter().map(|l| l.traffic().bytes_sent).collect();
    assert_eq!(report.per_node_bytes, per_node_bytes, "{what}");
    assert_eq!(
        report.total_messages,
        sum(|l| l.traffic().messages_sent),
        "{what}"
    );
    assert_eq!(
        report.total_transactions,
        sum(|l| l.completion_times().len()),
        "{what}"
    );
    assert_eq!(
        report.rejected_batches,
        sum(NodeLedger::rejected_batches),
        "{what}"
    );
    assert_eq!(
        report.shard.as_ref().map_or(0, |s| s.exchange_bytes),
        sum(NodeLedger::exchange_bytes),
        "{what}"
    );
}

#[test]
fn ledgers_balance_at_quiescence_under_every_executor() {
    type Build = fn(DeploymentConfig) -> Deployment;
    let apps: [(&str, Build); 3] = [
        ("reach", |config| reach(5, config)),
        ("path-vector", path_vector),
        ("sharded hash join", sharded_join),
    ];
    for (app, build) in apps {
        for reactor in executors() {
            let what = format!("{app}, reactor {reactor:?}");
            let mut deployment = build(hmac(reactor, StreamingConfig::default()));
            let report = deployment.run().unwrap();
            assert_ledgers_balance(&deployment, &report, &what);

            // A run with nothing to do: nothing is sent, received or judged.
            // What it does add is one sample per node — `run()` commits each
            // node's (now empty) bootstrap batch as a transaction.
            let settled: Vec<NodeLedger> = deployment.ledgers().into_iter().cloned().collect();
            let again = deployment.run().unwrap();
            assert_ledgers_balance(&deployment, &again, &what);
            for (before, after) in settled.iter().zip(deployment.ledgers()) {
                assert_eq!(after.traffic(), before.traffic(), "{what}");
                assert_eq!(after.sent_to(), before.sent_to(), "{what}");
                assert_eq!(after.sent_by_kind(), before.sent_by_kind(), "{what}");
                assert_eq!(after.exchange_bytes(), before.exchange_bytes(), "{what}");
                assert_eq!(after.rejected_batches(), before.rejected_batches());
                assert_eq!(after.conflicting_batches(), before.conflicting_batches());
                assert_eq!(after.retractions_applied(), before.retractions_applied());
                assert_eq!(
                    after.completion_times().len(),
                    before.completion_times().len() + 1,
                    "{what}"
                );
            }
        }
    }
}

/// Envelope boundaries are the only schedule-dependent part of monotone
/// REACH's wire, and `batch_max = 1` removes them: every node sends the same
/// bytes in the same number of messages to the same peers, and reaches the
/// same verdicts, whichever executor drives it.
#[test]
fn unbatched_reach_ledgers_are_equal_across_executors() {
    let wire = |reactor: ReactorConfig| {
        let mut deployment = reach(5, hmac(reactor, StreamingConfig::unbatched()));
        deployment.run().unwrap();
        let per_node = |ledger: &NodeLedger| {
            let mut sent_to: Vec<_> = ledger.sent_to().iter().map(|(&to, &t)| (to, t)).collect();
            sent_to.sort_by_key(|&(to, _)| to);
            (
                ledger.traffic().clone(),
                sent_to,
                ledger.completion_times().len(),
                ledger.rejected_batches(),
                ledger.conflicting_batches(),
                ledger.retractions_applied(),
            )
        };
        deployment
            .ledgers()
            .into_iter()
            .map(per_node)
            .collect::<Vec<_>>()
    };
    let [reference, one, four] = executors().map(wire);
    assert_eq!(one, reference, "reactor x1 against the reference executor");
    assert_eq!(four, reference, "reactor x4 against the reference executor");
}

/// The schedule-independent part of a report (how many rounds a fixpoint
/// takes, and so the planner counters, depends on which deltas a commit finds
/// already there).
fn counters(report: &DeploymentReport) -> impl PartialEq + std::fmt::Debug {
    (
        report.per_node_bytes.clone(),
        report.total_messages,
        report.total_transactions,
        (
            report.rejected_batches,
            report.conflicting_batches,
            report.retractions_applied,
        ),
        report
            .shard
            .as_ref()
            .map(|s| (s.per_partition_tuples.clone(), s.exchange_bytes)),
    )
}

#[test]
fn report_reads_and_never_writes() {
    let dir = std::env::temp_dir().join(format!("sbx-ledger-report-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let plain = || hmac(ReactorConfig::disabled(), StreamingConfig::default());
    let durable = || DeploymentConfig {
        durability: Some(DurabilityConfig::new(&dir)),
        ..plain()
    };

    // A sharded durable run, reported twice: no gauge copy of a ledger, a
    // planner counter or a partition count appears in the registry.
    let mut sharded = sharded_join(durable());
    let join_alone = sharded.run().unwrap();
    assert_eq!(counters(&sharded.report()), counters(&join_alone));
    assert_eq!(counters(&sharded.report()), counters(&join_alone));
    let exported = secureblox_telemetry::registry().prometheus_text();
    for gauge in [
        "datalog_plan_stats_",
        "net_node_",
        "net_bytes_by_kind",
        "engine_shard_partition_tuples",
    ] {
        assert!(!exported.contains(gauge), "{gauge} written to the registry");
    }
    drop(sharded);
    let _ = std::fs::remove_dir_all(&dir);

    // Two deployments built, run and reported interleaved get the reports
    // they get alone.
    let mut lone_reach = reach(4, plain());
    let reach_alone = lone_reach.run().unwrap();
    let mut first = sharded_join(plain());
    let mut second = reach(4, plain());
    let join_report = first.run().unwrap();
    let reach_report = second.run().unwrap();
    assert_eq!(counters(&first.report()), counters(&join_alone));
    assert_eq!(counters(&second.report()), counters(&reach_alone));
    assert_eq!(counters(&first.report()), counters(&join_report));
    assert_eq!(counters(&reach_report), counters(&reach_alone));
}
