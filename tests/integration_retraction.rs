//! End-to-end distributed retraction through the authenticated update
//! stream: retracting a fact on its origin node must converge every remote
//! fixpoint — and, with durability enabled, every store Merkle root — to the
//! state of a deployment where the fact was never asserted.  Exercised across
//! plain, encrypted, and durable channel configurations, including the
//! crash/recovery-replay variant and rejection of forged retractions.

use proptest::prelude::*;
use secureblox::policy::SecurityConfig;
use secureblox::runtime::{
    DeltaOp, Deployment, DeploymentConfig, NodeSpec, UpdateDelta, UpdateEnvelope,
};
use secureblox::{AuthScheme, DurabilityConfig, EncScheme, Value};
use secureblox_datalog::codec::serialize_tuple;
use secureblox_datalog::value::Tuple;
use std::path::PathBuf;

/// Gossip + transitive reachability: links are exported to every peer, so a
/// retraction at the origin must cascade through imported `remote_link`
/// facts and the recursively derived `reach` relation on every node.
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

const PRINCIPALS: [&str; 3] = ["n0", "n1", "n2"];

fn fresh_dir(label: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sbx-retract-{label}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn link(a: &str, b: &str) -> (String, Tuple) {
    ("link".into(), vec![Value::str(a), Value::str(b)])
}

/// Node specs for a set of directed edges (edge (i, j) lands on node i).
fn specs(edges: &[(usize, usize)]) -> Vec<NodeSpec> {
    let mut specs: Vec<NodeSpec> = PRINCIPALS.iter().map(|p| NodeSpec::new(*p)).collect();
    for &(a, b) in edges {
        specs[a].base_facts.push(link(PRINCIPALS[a], PRINCIPALS[b]));
    }
    specs
}

fn config(security: SecurityConfig, durable_dir: Option<&PathBuf>) -> DeploymentConfig {
    DeploymentConfig {
        security,
        durability: durable_dir.map(DurabilityConfig::new),
        ..DeploymentConfig::default()
    }
}

/// Every observable fact of the deployment, sorted for comparison.
fn observable_state(deployment: &Deployment) -> Vec<(String, String, Vec<Tuple>)> {
    let mut out = Vec::new();
    for principal in PRINCIPALS {
        for pred in [
            "link",
            "remote_link",
            "reach",
            "says$remote_link",
            "sig$remote_link",
        ] {
            let mut tuples = deployment.query(principal, pred);
            tuples.sort_by_key(|t| serialize_tuple(t));
            out.push((principal.to_string(), pred.to_string(), tuples));
        }
    }
    out
}

/// The core equivalence check: deploy with `edges` plus `poison`, run,
/// retract the poison edge at its origin, run again — the result must equal
/// a deployment where the poison edge never existed.  With durability, the
/// per-node Merkle roots must match too.
fn assert_retraction_equivalence(
    label: &str,
    security: SecurityConfig,
    edges: &[(usize, usize)],
    poison: (usize, usize),
    durable: bool,
) {
    let mut with_poison: Vec<(usize, usize)> = edges.to_vec();
    with_poison.push(poison);

    let dir_a = fresh_dir(&format!("{label}-a"));
    let dir_b = fresh_dir(&format!("{label}-b"));
    let (dur_a, dur_b) = if durable {
        (Some(&dir_a), Some(&dir_b))
    } else {
        (None, None)
    };

    let mut poisoned = Deployment::build(
        REACH_APP,
        &specs(&with_poison),
        config(security.clone(), dur_a),
    )
    .unwrap();
    poisoned.run().unwrap();
    let origin = PRINCIPALS[poison.0];
    poisoned
        .retract(
            origin,
            vec![link(PRINCIPALS[poison.0], PRINCIPALS[poison.1])],
        )
        .unwrap();
    let report = poisoned.run().unwrap();
    assert_eq!(report.rejected_batches, 0, "{label}: {report:?}");
    assert!(report.retractions_applied > 0, "{label}: {report:?}");

    let mut clean = Deployment::build(REACH_APP, &specs(edges), config(security, dur_b)).unwrap();
    clean.run().unwrap();

    assert_eq!(
        observable_state(&poisoned),
        observable_state(&clean),
        "{label}: retracted deployment differs from never-asserted deployment"
    );
    if durable {
        let roots_poisoned = poisoned.edb_roots().unwrap();
        let roots_clean = clean.edb_roots().unwrap();
        assert_eq!(
            roots_poisoned, roots_clean,
            "{label}: store Merkle roots differ from never-asserted run"
        );
    }
}

const TRIANGLE: [(usize, usize); 3] = [(0, 1), (1, 2), (2, 0)];
const POISON: (usize, usize) = (0, 2);

#[test]
fn retraction_converges_plain_channel() {
    assert_retraction_equivalence(
        "plain",
        SecurityConfig::new(AuthScheme::NoAuth, EncScheme::None),
        &TRIANGLE,
        POISON,
        false,
    );
}

#[test]
fn retraction_converges_signed_channel() {
    assert_retraction_equivalence(
        "hmac",
        SecurityConfig::new(AuthScheme::HmacSha1, EncScheme::None),
        &TRIANGLE,
        POISON,
        false,
    );
}

#[test]
fn retraction_converges_encrypted_channel() {
    assert_retraction_equivalence(
        "aes",
        SecurityConfig::new(AuthScheme::HmacSha1, EncScheme::Aes128),
        &TRIANGLE,
        POISON,
        false,
    );
}

#[test]
fn retraction_converges_durable_channel_with_matching_roots() {
    assert_retraction_equivalence(
        "durable",
        SecurityConfig::new(AuthScheme::HmacSha1, EncScheme::None),
        &TRIANGLE,
        POISON,
        true,
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The equivalence holds for random topologies, a random poisoned edge,
    /// and every channel configuration: plain, signed, encrypted, durable.
    #[test]
    fn retraction_equivalence_holds_on_random_topologies(
        edge_mask in 0u8..64,
        poison_index in 0usize..6,
        channel in 0usize..3,
    ) {
        // All six directed edges over three nodes.
        let all: Vec<(usize, usize)> = vec![(0, 1), (1, 0), (1, 2), (2, 1), (2, 0), (0, 2)];
        let poison = all[poison_index];
        let edges: Vec<(usize, usize)> = all
            .iter()
            .enumerate()
            .filter(|(i, e)| edge_mask & (1 << i) != 0 && **e != poison)
            .map(|(_, e)| *e)
            .collect();
        let (security, durable) = match channel {
            0 => (SecurityConfig::new(AuthScheme::NoAuth, EncScheme::None), false),
            1 => (SecurityConfig::new(AuthScheme::HmacSha1, EncScheme::Aes128), false),
            _ => (SecurityConfig::new(AuthScheme::HmacSha1, EncScheme::None), true),
        };
        let label = format!("prop-{edge_mask}-{poison_index}-{channel}");
        assert_retraction_equivalence(&label, security, &edges, poison, durable);
    }
}

#[test]
fn retraction_survives_crash_and_recovery_replay() {
    // Retract, crash, recover: the receivers' WALs logged the delivered
    // retractions, so replay must reproduce the retracted fixpoint and the
    // same Merkle roots — and a further run() must not resurrect the fact.
    let dir = fresh_dir("recovery");
    let security = SecurityConfig::new(AuthScheme::HmacSha1, EncScheme::None);
    let mut with_poison: Vec<(usize, usize)> = TRIANGLE.to_vec();
    with_poison.push(POISON);
    let node_specs = specs(&with_poison);

    let mut deployment =
        Deployment::build(REACH_APP, &node_specs, config(security.clone(), Some(&dir))).unwrap();
    deployment.run().unwrap();
    deployment
        .retract("n0", vec![link(PRINCIPALS[POISON.0], PRINCIPALS[POISON.1])])
        .unwrap();
    deployment.run().unwrap();
    let state = observable_state(&deployment);
    let roots = deployment.edb_roots().unwrap();
    drop(deployment);

    let mut recovered =
        Deployment::recover(&dir, REACH_APP, &node_specs, config(security, Some(&dir))).unwrap();
    assert_eq!(observable_state(&recovered), state);
    assert_eq!(recovered.edb_roots().unwrap(), roots);
    recovered.run().unwrap();
    assert_eq!(
        observable_state(&recovered),
        state,
        "re-running after recovery resurrected retracted state"
    );
}

#[test]
fn forged_retraction_is_rejected() {
    // A retract delta whose signature does not verify — or that names a
    // principal other than the message sender — must be rejected without
    // touching the receiver's state.
    let security = SecurityConfig::new(AuthScheme::HmacSha1, EncScheme::None);
    let mut deployment =
        Deployment::build(REACH_APP, &specs(&TRIANGLE), config(security, None)).unwrap();
    deployment.run().unwrap();
    let before = observable_state(&deployment);

    // n1 legitimately exported link(n1, n2) to n0; forge its withdrawal with
    // a bogus tag.
    let says_tuple = vec![
        Value::str("n1"),
        Value::str("n0"),
        Value::str("n1"),
        Value::str("n2"),
    ];
    let forged = UpdateEnvelope {
        seq: 1_000_000,
        deltas: vec![UpdateDelta {
            op: DeltaOp::Retract,
            pred: "remote_link".into(),
            tuple: says_tuple,
            signature: vec![0u8; 20],
        }],
    };
    deployment.inject_message(1, 0, forged.encode());
    let report = deployment.run().unwrap();
    assert!(report.rejected_batches >= 1, "{report:?}");
    assert_eq!(report.retractions_applied, 0, "{report:?}");
    assert_eq!(
        observable_state(&deployment),
        before,
        "forged retraction changed receiver state"
    );
}

/// The delta op is not authenticated: an Assert's signature covers only the
/// `says` payload, and a Retract is authorized by that same signature
/// (DESIGN.md §9.3).  So anyone holding n1's Assert — n0 stores its
/// signature in `sig$remote_link` — can withdraw n1's fact at n0 by
/// replaying it as a Retract.  The correct outcome is that the fact stays.
#[test]
#[ignore = "ROADMAP item 21: the delta op is unauthenticated"]
fn a_replayed_assert_signature_cannot_retract() {
    let security = SecurityConfig::new(AuthScheme::HmacSha1, EncScheme::None);
    let mut deployment =
        Deployment::build(REACH_APP, &specs(&TRIANGLE), config(security, None)).unwrap();
    deployment.run().unwrap();
    let before = observable_state(&deployment);
    let says_tuple = vec![
        Value::str("n1"),
        Value::str("n0"),
        Value::str("n1"),
        Value::str("n2"),
    ];
    let stored = deployment.query("n0", "sig$remote_link");
    let sig_row = stored
        .iter()
        .find(|row| row[..4] == says_tuple[..])
        .expect("n0 holds n1's signature over link(n1, n2)");
    let replayed = UpdateEnvelope {
        seq: 1_000_000,
        deltas: vec![UpdateDelta {
            op: DeltaOp::Retract,
            pred: "remote_link".into(),
            tuple: says_tuple,
            signature: sig_row[4].as_bytes().unwrap().to_vec(),
        }],
    };
    deployment.inject_message(1, 0, replayed.encode());
    let report = deployment.run().unwrap();
    assert_eq!(report.retractions_applied, 0, "{report:?}");
    assert_eq!(
        observable_state(&deployment),
        before,
        "a replayed Assert signature withdrew n1's link"
    );
}

#[test]
fn forged_sequence_number_cannot_mute_a_link() {
    // An envelope of forged deltas claiming a huge stream sequence must not
    // advance the receiver's duplicate-suppression watermark: the peer's
    // legitimate traffic (with small sequence numbers) must still arrive.
    let security = SecurityConfig::new(AuthScheme::HmacSha1, EncScheme::None);
    let mut deployment =
        Deployment::build(REACH_APP, &specs(&TRIANGLE), config(security, None)).unwrap();
    let forged = UpdateEnvelope {
        seq: u64::MAX,
        deltas: vec![UpdateDelta {
            op: DeltaOp::Assert,
            pred: "remote_link".into(),
            tuple: vec![
                Value::str("n1"),
                Value::str("n0"),
                Value::str("evil"),
                Value::str("evil2"),
            ],
            signature: vec![0u8; 20],
        }],
    };
    deployment.inject_message(1, 0, forged.encode());
    let report = deployment.run().unwrap();
    assert!(report.rejected_batches >= 1, "{report:?}");
    let remote = deployment.query("n0", "remote_link");
    assert!(
        remote.contains(&vec![Value::str("n1"), Value::str("n2")]),
        "n1's legitimate export was muted by the forged sequence: {remote:?}"
    );
    assert!(!remote.contains(&vec![Value::str("evil"), Value::str("evil2")]));
}

#[test]
fn a_retraction_before_the_first_run_leaves_the_shared_facts_derivable() {
    // Shared facts enter every workspace outside a transaction; a retraction
    // that comes first must still derive what the rest of them support.
    let app = "link(X, Y) -> node(X), node(Y).\nhop(X, Y) <- link(X, Y).";
    let specs: Vec<NodeSpec> = ["a", "b", "c"].into_iter().map(NodeSpec::new).collect();
    let config = DeploymentConfig {
        shared_facts: vec![link("a", "b"), link("b", "c")],
        ..DeploymentConfig::default()
    };
    let mut deployment = Deployment::build(app, &specs, config).unwrap();
    deployment.retract("a", vec![link("a", "b")]).unwrap();
    deployment.run().unwrap();
    assert_eq!(
        deployment.query("a", "hop"),
        vec![vec![Value::str("b"), Value::str("c")]]
    );
    assert_eq!(deployment.query("b", "hop").len(), 2);
}

/// `REACH_APP` without its `reach` rules: what the signed gossip alone
/// costs a retraction.
const GOSSIP_APP: &str = r#"
    link(N1, N2) -> node(N1), node(N2).
    remote_link(N1, N2) -> node(N1), node(N2).
    exportable(`remote_link).

    says[`remote_link](self[], U, X, Y) <- link(X, Y), principal(U), U != self[].
"#;

/// The planner counters a chord withdrawal adds on a converged six-node
/// ring under HMAC.
fn chord_withdrawal(app: &str) -> secureblox_datalog::PlanStatsSnapshot {
    let names: Vec<String> = (0..6).map(|i| format!("n{i}")).collect();
    let mut specs: Vec<NodeSpec> = names.iter().map(NodeSpec::new).collect();
    let mut edges: Vec<(usize, usize)> = (0..6).map(|i| (i, (i + 1) % 6)).collect();
    edges.push((0, 3));
    for (a, b) in edges {
        specs[a].base_facts.push(link(&names[a], &names[b]));
        specs[b].base_facts.push(link(&names[b], &names[a]));
    }
    let security = SecurityConfig::new(AuthScheme::HmacSha1, EncScheme::None);
    let mut deployment = Deployment::build(app, &specs, config(security, None)).unwrap();
    deployment.run().unwrap();
    let before = deployment.plan_stats();
    deployment.retract("n0", vec![link("n0", "n3")]).unwrap();
    deployment.retract("n3", vec![link("n3", "n0")]).unwrap();
    let report = deployment.run().unwrap();
    assert_eq!(report.rejected_batches, 0, "{report:?}");
    assert!(report.retractions_applied > 0, "{report:?}");
    let after = deployment.plan_stats();
    secureblox_datalog::PlanStatsSnapshot {
        constraint_full_checks: after.constraint_full_checks - before.constraint_full_checks,
        proof_joins_batch: after.proof_joins_batch - before.proof_joins_batch,
        proof_joins_tuple: after.proof_joins_tuple - before.proof_joins_tuple,
        ..Default::default()
    }
}

#[test]
fn a_converged_chord_withdrawal_checks_no_constraint_in_full_and_proves_reach_in_id_space() {
    let reach = chord_withdrawal(REACH_APP);
    let gossip = chord_withdrawal(GOSSIP_APP);
    // Every commit re-checks only what its removed witnesses supported.
    assert_eq!(reach.constraint_full_checks, 0, "{reach:?}");
    assert_eq!(gossip.constraint_full_checks, 0, "{gossip:?}");
    // The policy's export rules compare (`U != self[]`) and its signing
    // rule binds a UDF output, so their proof joins run tuple at a time; the
    // import rule's `self[]` read is a keyed lookup, so its proof joins run
    // in id space.  (That no `reach` rule runs tuple at a time is
    // `Workspace`'s `a_chord_withdrawal_runs_every_proof_join_in_id_space`.)
    assert!(gossip.proof_joins_tuple > 0, "{gossip:?}");
    assert!(gossip.proof_joins_batch > 0, "{gossip:?}");
    assert!(reach.proof_joins_batch > 0, "{reach:?}");
}
