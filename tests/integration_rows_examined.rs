//! A committed delta examines O(1) stored rows: what a seeded round and its
//! constraint check look at is found by probing on what is already bound,
//! never by walking a relation that grows with the deployment.  The counter
//! is `PlanStatsSnapshot::rows_examined` — every stored row a probe bucket
//! or a scan handed to the matcher — beside `full_scans`; both are counts
//! of the program's own work and repeat exactly from run to run.
//!
//! Two shapes, each at two sizes: the gossip flood of
//! `integration_export_delta.rs` on 6- and 18-node rings (every relation is
//! nine times larger per node at 18), and a fan-in of signed facts from four
//! senders to one receiver, whose `says$item` / `sig$item` inbox holds 200
//! and then 2,000 rows.  The generated `says$T(..) -> sig$T(..), ..`
//! constraint once probed `sig$T` on the receiver column alone — one
//! `index_probes`, the whole inbox examined, per new fact.
//!
//! The same counters say why a rule execution ran on the tuple path
//! (`PlanStatsSnapshot::batch_misses`): on the gossip flood, every one has
//! exactly one reason, and it is the policy's.  A functional lookup whose
//! key is bound — a lifted `self[]` read among them — costs one functional
//! hit in the batch executor, never a walk of the relation.  And every
//! constraint check a delta drives after bootstrap — the type declarations'
//! membership probes, the signature check's `hmac_verify` — runs in id
//! space (`constraint_checks_batch`).

use secureblox::policy::SecurityConfig;
use secureblox::runtime::{Deployment, DeploymentConfig, NodeSpec};
use secureblox::{AuthScheme, EncScheme, Value};
use secureblox_datalog::{BatchMiss, PlanStatsSnapshot, Workspace};

const GOSSIP_APP: &str = r#"
    link(N1, N2) -> node(N1), node(N2).
    remote_link(N1, N2) -> node(N1), node(N2).
    exportable(`remote_link).

    says[`remote_link](self[], U, X, Y) <- link(X, Y), principal(U), U != self[].
    says[`remote_link](self[], U, X, Y) <- remote_link(X, Y), principal(U), U != self[].
"#;

const FANIN_APP: &str = r#"
    item(K, V) -> int(K), int(V).
    received(K, V) -> int(K), int(V).
    exportable(`received).

    says[`received](self[], sink, K, V) <- item(K, V), sink != self[].
"#;

fn principal(i: usize) -> String {
    format!("n{i}")
}

fn ring_specs(n: usize) -> Vec<NodeSpec> {
    (0..n)
        .map(|i| {
            let mut spec = NodeSpec::new(principal(i));
            for j in [(i + 1) % n, (i + n - 1) % n] {
                spec.base_facts.push((
                    "link".into(),
                    vec![Value::str(principal(i)), Value::str(principal(j))],
                ));
            }
            spec
        })
        .collect()
}

/// Four senders with `per_sender` items each, all told to `sink`.
fn fanin_specs(per_sender: usize) -> Vec<NodeSpec> {
    let mut specs = vec![NodeSpec::new("sink")];
    for sender in 0..4 {
        let mut spec = NodeSpec::new(principal(sender));
        for k in 0..per_sender {
            let key = (sender * per_sender + k) as i64;
            spec.base_facts
                .push(("item".into(), vec![Value::Int(key), Value::Int(key % 7)]));
        }
        specs.push(spec);
    }
    specs
}

/// Run to quiescence and return the planner counters summed over the nodes.
/// Serial evaluation: a worker shard counts its own probes, so the counts
/// below are those of one thread per node.
fn run(app: &str, specs: &[NodeSpec]) -> (PlanStatsSnapshot, Deployment) {
    let config = DeploymentConfig {
        security: SecurityConfig::new(AuthScheme::HmacSha1, EncScheme::None),
        parallelism: 1,
        ..DeploymentConfig::default()
    };
    let mut deployment = Deployment::build(app, specs, config).unwrap();
    let report = deployment.run().unwrap();
    assert_eq!(report.rejected_batches, 0);
    (report.plan, deployment)
}

/// Stored rows examined per delta a node received and committed may not
/// exceed this, at any size.  (Measured: 4.8 and 4.2 on the rings, 6.1 and
/// 6.0 on the fan-in.  Walking the inbox per fact would be ≈100 at 200 facts
/// and ≈1,000 at 2,000.)
const ROWS_PER_DELTA: f64 = 8.0;

#[test]
fn rows_examined_per_delta_do_not_grow_with_the_ring() {
    for n in [6usize, 18] {
        let (plan, deployment) = run(GOSSIP_APP, &ring_specs(n));
        // Every node hears each of the 2n links from each other principal;
        // `says$remote_link` holds what it was told and what it told.
        let told_and_heard: usize = (0..n)
            .map(|i| deployment.query(&principal(i), "says$remote_link").len())
            .sum();
        let deltas = told_and_heard / 2;
        assert_eq!(deltas, 2 * n * n * (n - 1), "the flood's size");
        // The one enumeration the app asks for — `principal(U)` with U free,
        // once per link a node learns (2n of them) — is a scan by design.
        // Everything else after a node's bootstrap transaction probes.
        let enumerations = (n * 2 * n) as u64;
        assert!(
            plan.full_scans <= enumerations + 8 * n as u64,
            "n={n}: {} full scans over {deltas} deltas",
            plan.full_scans
        );
        let per_delta = plan.rows_examined as f64 / deltas as f64;
        assert!(
            per_delta <= ROWS_PER_DELTA,
            "n={n}: {per_delta:.1} rows examined per delta"
        );
    }
}

#[test]
fn rows_examined_per_delta_do_not_grow_with_the_inbox() {
    let mut scans = Vec::new();
    for per_sender in [50usize, 500] {
        let (plan, deployment) = run(FANIN_APP, &fanin_specs(per_sender));
        let deltas = deployment.query("sink", "received").len();
        assert_eq!(deltas, 4 * per_sender);
        let per_delta = plan.rows_examined as f64 / deltas as f64;
        assert!(
            per_delta <= ROWS_PER_DELTA,
            "inbox {deltas}: {per_delta:.1} rows examined per delta"
        );
        scans.push(plan.full_scans);
    }
    // Ten times the facts, not one scan more: all of them are bootstrap's.
    assert_eq!(scans[0], scans[1], "full scans at 200 and at 2,000 facts");
}

/// Every rule execution the gossip flood sends down the tuple path is
/// counted under one reason, and the reasons are the policy's: the signing
/// rule's `hmac_sign` binds the signature (a UDF with an output), and an app
/// rule's `U != self[]` is a comparison.  The import rule's `self[]` read is
/// a keyed lookup in the batch executor.  Nothing else is counted.  (A
/// 6-ring reads `Udf` 366 and `Comparison` 84.)
#[test]
fn every_tuple_path_execution_of_the_gossip_flood_has_one_reason() {
    let (plan, _) = run(GOSSIP_APP, &ring_specs(6));
    assert!(plan.batch_misses.iter().sum::<u64>() > 0, "{plan:?}");
    for reason in BatchMiss::ALL {
        let counted = matches!(reason, BatchMiss::Udf | BatchMiss::Comparison);
        assert_eq!(plan.batch_miss(reason) > 0, counted, "{reason:?}: {plan:?}");
    }
}

/// A functional literal the plan reaches with its key bound is a one-row
/// lookup: the planner leaves it no probe, and the batch executor finds the
/// row by its key, so a one-fact transaction examines the same handful of
/// rows over 1,000 `f` facts as over none — and runs in batch.
#[test]
fn a_functional_lookup_under_a_bound_key_walks_no_relation() {
    let mut ws = Workspace::new();
    ws.install_source(
        "f[X] = V -> int(X), int(V).\n\
         out(X, V) <- item(X), f[X] = V.",
    )
    .unwrap();
    let facts = (0..1_000)
        .map(|i| ("f".to_string(), vec![Value::Int(i), Value::Int(2 * i)]))
        .collect();
    ws.transaction(facts).unwrap();
    let before = ws.plan_stats();
    ws.transaction(vec![("item".into(), vec![Value::Int(7)])])
        .unwrap();
    let after = ws.plan_stats();
    assert_eq!(ws.query("out"), vec![vec![Value::Int(7), Value::Int(14)]]);
    let examined = after.rows_examined - before.rows_examined;
    assert!(
        examined as f64 <= ROWS_PER_DELTA,
        "{examined} rows examined for one fact"
    );
    assert_eq!(after.full_scans, before.full_scans, "no full scan");
    assert_eq!(after.functional_hits - before.functional_hits, 1);
    assert_eq!(
        after.batch_misses, before.batch_misses,
        "the rule ran in batch"
    );
}

/// After a node's bootstrap transaction (a full check, in neither count),
/// every constraint check a delta or a withdrawn witness drives runs in id
/// space, on the ring and on the fan-in, and the rows it examines stay
/// inside the per-delta budget above.
#[test]
fn every_delta_driven_constraint_check_runs_in_id_space() {
    let flood = run(GOSSIP_APP, &ring_specs(6));
    let fanin = run(FANIN_APP, &fanin_specs(50));
    for ((plan, deployment), (deltas, what)) in [
        (flood, (2 * 6 * 6 * 5, "the 6-ring flood")),
        (fanin, (200, "the fan-in")),
    ] {
        assert!(plan.constraint_checks_batch > 0, "{what}: {plan:?}");
        assert_eq!(plan.constraint_checks_tuple, 0, "{what}: {plan:?}");
        assert_eq!(plan.constraint_misses, [0; BatchMiss::ALL.len()], "{what}");
        let per_delta = plan.rows_examined as f64 / deltas as f64;
        assert!(
            per_delta <= ROWS_PER_DELTA,
            "{what}: {per_delta:.1} rows examined per delta"
        );
        // Jobs compile once per plan key, not once per execution.
        let executions = plan.serial_batches + plan.constraint_checks_batch;
        assert!(
            plan.batch_jobs_compiled * 4 < executions,
            "{what}: {} jobs compiled for {executions} executions",
            plan.batch_jobs_compiled
        );
        drop(deployment);
    }
}
