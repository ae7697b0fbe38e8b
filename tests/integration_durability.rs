//! End-to-end durability: run a secured deployment to fixpoint, checkpoint,
//! drop it, recover from disk, and get the same query results and the same
//! per-node Merkle roots back; detect tampering as typed errors; serve
//! identical queries from a synced read replica.

use secureblox::policy::SecurityConfig;
use secureblox::runtime::{
    DeltaOp, Deployment, DeploymentConfig, DurabilityError, NodeSpec, UpdateDelta, UpdateEnvelope,
};
use secureblox::{AuthScheme, DurabilityConfig, EncScheme, StoreError, Value};
use secureblox_datalog::codec::serialize_tuple;
use secureblox_datalog::value::Tuple;
use secureblox_store::{derive_node_key, sync_deployment, FactStore, WalOp};
use std::path::{Path, PathBuf};

/// A three-node gossip + transitive-reachability app: every node exports its
/// links, imports remote ones, and derives `reach` recursively, so recovery
/// has both EDB (imported says facts) and genuinely derived IDB to rebuild.
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
    let dir = std::env::temp_dir().join(format!("sbx-e2e-{label}-{}", std::process::id()));
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

#[test]
fn checkpoint_recover_same_fixpoint_and_roots() {
    let dir = fresh_dir("roundtrip");
    let mut deployment = Deployment::build(REACH_APP, &line_specs(), durable_config(&dir)).unwrap();
    let report = deployment.run().unwrap();
    assert_eq!(report.rejected_batches, 0);
    // Reachability converged across all three nodes: n0 reaches n2.
    assert!(deployment
        .query("n0", "reach")
        .contains(&vec![Value::str("n0"), Value::str("n2")]));

    let queries = all_queries(&deployment);
    let checkpoints = deployment.checkpoint().unwrap();
    assert_eq!(checkpoints.len(), 3);
    drop(deployment);

    let recovered =
        Deployment::recover(&dir, REACH_APP, &line_specs(), durable_config(&dir)).unwrap();
    assert_eq!(
        all_queries(&recovered),
        queries,
        "recovered fixpoint differs"
    );
    let roots = recovered.edb_roots().unwrap();
    for (checkpoint, (principal, root)) in checkpoints.iter().zip(&roots) {
        assert_eq!(&checkpoint.principal, principal);
        assert_eq!(
            &checkpoint.root, root,
            "Merkle root differs for {principal}"
        );
    }
    // A fresh checkpoint of the recovered deployment commits to the same
    // roots — recovery is a fixpoint of itself.
    let mut recovered = recovered;
    let again = recovered.checkpoint().unwrap();
    for (a, b) in checkpoints.iter().zip(&again) {
        assert_eq!(a.root, b.root);
    }
}

/// Every file under `dir`, concatenated.
fn all_bytes_under(dir: &Path) -> Vec<u8> {
    let mut out = Vec::new();
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.is_dir() {
            out.extend(all_bytes_under(&path));
        } else {
            out.extend(std::fs::read(&path).unwrap());
        }
    }
    out
}

/// An RSA + AES deployment survives checkpoint → more work → crash →
/// recover → run with the same relations and roots.  Key material is
/// provisioned from the seed on both sides and never written (§5.1), so the
/// shape of the `private_key[]` encoding is invisible to the store: the
/// recovered node holds the same key bytes, and no file holds any of them.
#[test]
fn rsa_aes_deployment_recovers_and_persists_no_key_material() {
    let dir = fresh_dir("rsa-aes");
    let config = || DeploymentConfig {
        security: SecurityConfig::new(AuthScheme::Rsa, EncScheme::Aes128),
        ..durable_config(&dir)
    };
    let mut deployment = Deployment::build(REACH_APP, &line_specs(), config()).unwrap();
    let report = deployment.run().unwrap();
    assert_eq!(report.rejected_batches, 0);
    assert!(deployment
        .query("n0", "reach")
        .contains(&vec![Value::str("n0"), Value::str("n2")]));
    deployment.checkpoint().unwrap();

    // Work after the checkpoint, so recovery replays a WAL suffix of
    // RSA-signed imports and a signed retraction on top of the snapshot.
    deployment
        .retract(
            "n1",
            vec![("link".into(), vec![Value::str("n1"), Value::str("n2")])],
        )
        .unwrap();
    let report = deployment.run().unwrap();
    assert_eq!(report.rejected_batches, 0);
    assert!(!deployment
        .query("n0", "reach")
        .contains(&vec![Value::str("n0"), Value::str("n2")]));
    let queries = all_queries(&deployment);
    let roots = deployment.edb_roots().unwrap();
    let private_keys: Vec<Vec<Tuple>> = ["n0", "n1", "n2"]
        .iter()
        .map(|principal| deployment.query(principal, "private_key"))
        .collect();
    drop(deployment);

    let mut recovered = Deployment::recover(&dir, REACH_APP, &line_specs(), config()).unwrap();
    assert_eq!(all_queries(&recovered), queries);
    assert_eq!(recovered.edb_roots().unwrap(), roots);
    let report = recovered.run().unwrap();
    assert_eq!(report.rejected_batches, 0);
    assert_eq!(all_queries(&recovered), queries);
    assert_eq!(recovered.edb_roots().unwrap(), roots);

    let on_disk = all_bytes_under(&dir);
    assert!(!on_disk.is_empty());
    for (principal, before) in ["n0", "n1", "n2"].iter().zip(&private_keys) {
        assert_eq!(&recovered.query(principal, "private_key"), before);
        let key = before[0][0].as_bytes().expect("private_key[] holds bytes");
        // The encoding ends in dq and qinv; the public half (its first
        // fields) is allowed on disk, the private tail is not.
        let tail = &key[key.len() - 24..];
        assert!(
            !on_disk.windows(tail.len()).any(|window| window == tail),
            "private key material of {principal} found under the durability dir"
        );
    }
}

#[test]
fn wal_only_recovery_without_any_checkpoint() {
    let dir = fresh_dir("walonly");
    let mut deployment = Deployment::build(REACH_APP, &line_specs(), durable_config(&dir)).unwrap();
    deployment.run().unwrap();
    let queries = all_queries(&deployment);
    let roots = deployment.edb_roots().unwrap();
    drop(deployment);

    let recovered =
        Deployment::recover(&dir, REACH_APP, &line_specs(), durable_config(&dir)).unwrap();
    assert_eq!(all_queries(&recovered), queries);
    assert_eq!(recovered.edb_roots().unwrap(), roots);
}

#[test]
fn retraction_is_durable() {
    let dir = fresh_dir("retract");
    let mut deployment = Deployment::build(REACH_APP, &line_specs(), durable_config(&dir)).unwrap();
    deployment.run().unwrap();
    // n1 withdraws its link to n2 locally; the derived reach goes with it.
    deployment
        .retract(
            "n1",
            vec![("link".into(), vec![Value::str("n1"), Value::str("n2")])],
        )
        .unwrap();
    assert!(!deployment
        .query("n1", "reach")
        .contains(&vec![Value::str("n1"), Value::str("n2")]));
    let queries = all_queries(&deployment);
    drop(deployment);

    let mut recovered =
        Deployment::recover(&dir, REACH_APP, &line_specs(), durable_config(&dir)).unwrap();
    assert_eq!(all_queries(&recovered), queries);
    assert!(!recovered
        .query("n1", "reach")
        .contains(&vec![Value::str("n1"), Value::str("n2")]));

    // The recovered deployment keeps appending to the same WAL chain: a
    // further retraction survives a second crash/recover cycle.
    recovered
        .retract(
            "n0",
            vec![("link".into(), vec![Value::str("n0"), Value::str("n1")])],
        )
        .unwrap();
    let queries = all_queries(&recovered);
    drop(recovered);
    let again = Deployment::recover(&dir, REACH_APP, &line_specs(), durable_config(&dir)).unwrap();
    assert_eq!(all_queries(&again), queries);
    assert!(again.query("n0", "link").is_empty());
}

/// A retraction that withdraws two facts logs them as one group under one
/// watermark, and recovery replays the group as one retraction.  Replayed a
/// record at a time, the log would pass through `a(n0)` without `b(n0)`, a
/// state the constraint refuses, and the deployment it wrote would not
/// recover.
#[test]
fn a_retraction_group_replays_as_one_retraction() {
    let app = "a(X) -> node(X).\n\
               b(X) -> node(X).\n\
               a(X) -> b(X).";
    let fact = |pred: &str| (pred.to_string(), vec![Value::str("n0")]);
    let specs = vec![NodeSpec {
        principal: "n0".into(),
        base_facts: vec![fact("a"), fact("b")],
    }];
    let dir = fresh_dir("retract-group");
    let mut deployment = Deployment::build(app, &specs, durable_config(&dir)).unwrap();
    deployment.run().unwrap();
    deployment
        .retract("n0", vec![fact("b"), fact("a")])
        .unwrap();
    assert!(deployment.query("n0", "a").is_empty());
    assert!(deployment.query("n0", "b").is_empty());
    let roots = deployment.edb_roots().unwrap();
    drop(deployment);

    let recovered = Deployment::recover(&dir, app, &specs, durable_config(&dir)).unwrap();
    assert!(recovered.query("n0", "a").is_empty());
    assert!(recovered.query("n0", "b").is_empty());
    assert_eq!(recovered.edb_roots().unwrap(), roots);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn in_flight_retraction_withdrawal_is_resent_after_crash() {
    let dir = fresh_dir("inflightretract");
    let mut deployment = Deployment::build(REACH_APP, &line_specs(), durable_config(&dir)).unwrap();
    deployment.run().unwrap();
    assert!(deployment
        .query("n0", "remote_link")
        .contains(&vec![Value::str("n1"), Value::str("n2")]));
    drop(deployment);

    // Simulate a crash inside `retract`: n1's local retraction reached its
    // WAL, but the node died before the withdrawal messages were flushed to
    // its peers.  The export-cursor records from the earlier run are still
    // in the log, so recovery knows the exports are now orphaned.
    let key = derive_node_key(1, "n1");
    let mut store = FactStore::open(dir.join("n1"), &key).unwrap();
    let link = vec![Value::str("n1"), Value::str("n2")];
    let watermark = store.watermark() + 1;
    store.log_retracts([("link", &link)], watermark).unwrap();
    drop(store);

    let mut recovered =
        Deployment::recover(&dir, REACH_APP, &line_specs(), durable_config(&dir)).unwrap();
    // n1's own fixpoint already reflects the replayed retraction ...
    assert!(!recovered.query("n1", "link").contains(&link));
    // ... but the peers still hold the imported copy until the withdrawal
    // is re-sent.
    assert!(recovered
        .query("n0", "remote_link")
        .contains(&vec![Value::str("n1"), Value::str("n2")]));

    let report = recovered.run().unwrap();
    assert_eq!(report.rejected_batches, 0);
    for principal in ["n0", "n2"] {
        assert!(
            !recovered
                .query(principal, "remote_link")
                .contains(&vec![Value::str("n1"), Value::str("n2")]),
            "{principal} must drop the withdrawn remote link"
        );
    }
    assert!(!recovered
        .query("n0", "reach")
        .contains(&vec![Value::str("n0"), Value::str("n2")]));

    // The resend discharged the cursor entries: another crash/recover cycle
    // owes nothing and converges to the same answers.
    let queries = all_queries(&recovered);
    drop(recovered);
    let mut again =
        Deployment::recover(&dir, REACH_APP, &line_specs(), durable_config(&dir)).unwrap();
    again.run().unwrap();
    assert_eq!(all_queries(&again), queries);
}

#[test]
fn run_after_recovery_is_idempotent() {
    // Recovery leaves the outbox dedup set empty (at-least-once export), so
    // a run() after recovery re-ships and every receiver must absorb the
    // duplicates without changing its answers or rejecting batches.
    let dir = fresh_dir("rerun");
    let mut deployment = Deployment::build(REACH_APP, &line_specs(), durable_config(&dir)).unwrap();
    deployment.run().unwrap();
    let queries = all_queries(&deployment);
    let roots = deployment.edb_roots().unwrap();
    drop(deployment);

    let mut recovered =
        Deployment::recover(&dir, REACH_APP, &line_specs(), durable_config(&dir)).unwrap();
    let report = recovered.run().unwrap();
    assert_eq!(report.rejected_batches, 0);
    assert_eq!(all_queries(&recovered), queries);
    assert_eq!(recovered.edb_roots().unwrap(), roots);
}

#[test]
fn crash_before_first_run_keeps_bootstrap_facts() {
    // A deployment that died between build and run has empty stores; the
    // recovered deployment must still be able to run the protocol from its
    // bootstrap facts rather than silently converging to nothing.
    let dir = fresh_dir("prerun");
    let deployment = Deployment::build(REACH_APP, &line_specs(), durable_config(&dir)).unwrap();
    drop(deployment);

    let mut recovered =
        Deployment::recover(&dir, REACH_APP, &line_specs(), durable_config(&dir)).unwrap();
    recovered.run().unwrap();
    assert!(recovered
        .query("n0", "reach")
        .contains(&vec![Value::str("n0"), Value::str("n2")]));

    // And the state it built is durable in turn.
    let queries = all_queries(&recovered);
    drop(recovered);
    let again = Deployment::recover(&dir, REACH_APP, &line_specs(), durable_config(&dir)).unwrap();
    assert_eq!(all_queries(&again), queries);
}

#[test]
fn checkpoint_compacts_wal_and_recovery_is_equivalent() {
    // The WAL is truncated once a checkpoint has made its history redundant;
    // recovery from snapshot + (empty) suffix must still answer identically
    // and keep appending durably afterwards.
    let dir = fresh_dir("compactwal");
    let mut deployment = Deployment::build(REACH_APP, &line_specs(), durable_config(&dir)).unwrap();
    deployment.run().unwrap();
    let queries = all_queries(&deployment);
    let roots = deployment.edb_roots().unwrap();
    deployment.checkpoint().unwrap();
    drop(deployment);

    // Checkpointing drops every base-fact record (the snapshot supersedes
    // them); only re-logged export-cursor marks survive the compaction.
    for principal in ["n0", "n1", "n2"] {
        let store = FactStore::open(dir.join(principal), &derive_node_key(1, principal)).unwrap();
        assert!(
            store
                .recovered_suffix()
                .iter()
                .all(|record| record.op == WalOp::ExportMark),
            "{principal}'s compacted WAL must hold only export-cursor marks"
        );
    }

    let mut recovered =
        Deployment::recover(&dir, REACH_APP, &line_specs(), durable_config(&dir)).unwrap();
    assert_eq!(all_queries(&recovered), queries);
    assert_eq!(recovered.edb_roots().unwrap(), roots);

    // Post-compaction retractions land in the fresh WAL suffix and survive
    // another crash/recover cycle.
    recovered
        .retract(
            "n1",
            vec![("link".into(), vec![Value::str("n1"), Value::str("n2")])],
        )
        .unwrap();
    let queries = all_queries(&recovered);
    drop(recovered);
    let again = Deployment::recover(&dir, REACH_APP, &line_specs(), durable_config(&dir)).unwrap();
    assert_eq!(all_queries(&again), queries);
}

#[test]
fn forged_reassert_of_a_held_fact_never_reaches_the_edb() {
    // n0 already holds `says$remote_link(n1, n0, n1, n2)`.  Re-asserting it
    // adds no `says` tuple, so no generated constraint looks at the
    // signature riding along: the engine itself must verify it before any
    // transaction, or the junk `sig$remote_link` row would land in the EDB
    // and the WAL, move the Merkle root, and — with the envelope counted as
    // accepted — push the link's sequence watermark past n1's real traffic.
    for auth in [AuthScheme::HmacSha1, AuthScheme::Rsa] {
        let dir = fresh_dir(&format!("forgedreassert-{auth:?}"));
        let config = DeploymentConfig {
            security: SecurityConfig::new(auth, EncScheme::None),
            ..durable_config(&dir)
        };
        let mut deployment = Deployment::build(REACH_APP, &line_specs(), config).unwrap();
        let rejected = deployment.run().unwrap().rejected_batches;
        let held = vec![
            Value::str("n1"),
            Value::str("n0"),
            Value::str("n1"),
            Value::str("n2"),
        ];
        assert!(deployment.query("n0", "says$remote_link").contains(&held));
        let wal_len = |dir: &Path| std::fs::metadata(dir.join("n0/wal.log")).unwrap().len();
        let observe = |deployment: &Deployment| {
            (
                all_queries(deployment),
                sorted(deployment.query("n0", "sig$remote_link")),
                deployment.edb_roots().unwrap(),
                wal_len(&dir),
            )
        };
        let before = observe(&deployment);

        let forged = UpdateEnvelope {
            seq: 1 << 40,
            deltas: vec![UpdateDelta {
                op: DeltaOp::Assert,
                pred: "remote_link".into(),
                tuple: held.clone(),
                signature: vec![0xAB; 20],
            }],
        };
        deployment.inject_message(1, 0, forged.encode());
        let report = deployment.run().unwrap();
        assert_eq!(report.rejected_batches, rejected + 1, "{auth:?}");
        assert_eq!(observe(&deployment), before, "{auth:?}");

        // The link still listens: n1's next legitimate envelope (a signed
        // withdrawal, at a sequence number far below the forged one) applies.
        deployment
            .retract(
                "n1",
                vec![("link".into(), vec![Value::str("n1"), Value::str("n2")])],
            )
            .unwrap();
        deployment.run().unwrap();
        assert!(
            !deployment.query("n0", "says$remote_link").contains(&held),
            "{auth:?}: the forged envelope muted the link"
        );
        drop(deployment);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn hostile_tuple_length_is_a_rejected_batch_not_an_abort() {
    // 21 bytes any peer can send in the clear under NoAuth and HMAC: one
    // delta whose tuple claims four billion values.  A decoder that
    // allocates for them before reading one aborts the whole process.
    let mut payload = 1u64.to_be_bytes().to_vec(); // seq
    payload.extend_from_slice(&1u32.to_be_bytes()); // one delta
    payload.push(0); // assert
    payload.extend_from_slice(&0u32.to_be_bytes()); // empty predicate name
    payload.extend_from_slice(&[0xFF; 4]); // tuple length
    assert_eq!(payload.len(), 21);
    for auth in [AuthScheme::NoAuth, AuthScheme::HmacSha1] {
        let dir = fresh_dir(&format!("hostilelen-{auth:?}"));
        let config = DeploymentConfig {
            security: SecurityConfig::new(auth, EncScheme::None),
            ..durable_config(&dir)
        };
        let mut deployment = Deployment::build(REACH_APP, &line_specs(), config).unwrap();
        let rejected = deployment.run().unwrap().rejected_batches;
        let before = (all_queries(&deployment), deployment.edb_roots().unwrap());

        deployment.inject_message(1, 0, payload.clone());
        let report = deployment.run().unwrap();
        assert_eq!(report.rejected_batches, rejected + 1, "{auth:?}");
        let after = (all_queries(&deployment), deployment.edb_roots().unwrap());
        assert_eq!(after, before, "{auth:?}");
        drop(deployment);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn tampered_wal_record_is_a_typed_error() {
    // No checkpoint here: checkpointing compacts the log, so the un-snapshot
    // WAL is where tampering is meaningful.
    let dir = fresh_dir("tamperwal");
    let mut deployment = Deployment::build(REACH_APP, &line_specs(), durable_config(&dir)).unwrap();
    deployment.run().unwrap();
    drop(deployment);

    let wal_path = dir.join("n0").join("wal.log");
    let mut bytes = std::fs::read(&wal_path).unwrap();
    assert!(!bytes.is_empty());
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01;
    std::fs::write(&wal_path, &bytes).unwrap();

    match Deployment::recover(&dir, REACH_APP, &line_specs(), durable_config(&dir)) {
        Err(DurabilityError::Store(StoreError::TamperedRecord { .. })) => {}
        Err(other) => panic!("expected typed WAL tamper detection, got {other}"),
        Ok(_) => panic!("tampered WAL recovered successfully"),
    }
}

#[test]
fn tampered_snapshot_object_is_a_typed_error() {
    let dir = fresh_dir("tampersnap");
    let mut deployment = Deployment::build(REACH_APP, &line_specs(), durable_config(&dir)).unwrap();
    deployment.run().unwrap();
    deployment.checkpoint().unwrap();
    drop(deployment);
    // Snapshot recovery must not depend on the WAL: remove it so the flipped
    // object is what recovery actually reads.
    std::fs::remove_file(dir.join("n1").join("wal.log")).unwrap();

    let objects_dir = dir.join("n1").join("objects");
    let object = std::fs::read_dir(&objects_dir)
        .unwrap()
        .map(|entry| entry.unwrap().path())
        .max_by_key(|path| std::fs::metadata(path).unwrap().len())
        .unwrap();
    let mut bytes = std::fs::read(&object).unwrap();
    let last = bytes.len() - 1;
    bytes[last] ^= 0x80;
    std::fs::write(&object, &bytes).unwrap();

    match Deployment::recover(&dir, REACH_APP, &line_specs(), durable_config(&dir)) {
        Err(DurabilityError::Store(
            StoreError::ObjectMismatch { .. } | StoreError::RootMismatch { .. },
        )) => {}
        Err(other) => panic!("expected typed snapshot tamper detection, got {other}"),
        Ok(_) => panic!("tampered snapshot recovered successfully"),
    }
}

#[test]
fn synced_replica_answers_identical_queries() {
    let master_dir = fresh_dir("syncmaster");
    let replica_dir = fresh_dir("syncreplica");
    let mut master =
        Deployment::build(REACH_APP, &line_specs(), durable_config(&master_dir)).unwrap();
    master.run().unwrap();
    let checkpoints = master.checkpoint().unwrap();
    let queries = all_queries(&master);

    let stats = sync_deployment(&master_dir, &replica_dir, 1).unwrap();
    assert_eq!(stats.len(), 3);
    assert!(stats.iter().all(|(_, s)| s.copied > 0));

    let replica = Deployment::recover(
        &replica_dir,
        REACH_APP,
        &line_specs(),
        durable_config(&replica_dir),
    )
    .unwrap();
    assert_eq!(all_queries(&replica), queries);
    let roots = replica.edb_roots().unwrap();
    for (checkpoint, (principal, root)) in checkpoints.iter().zip(&roots) {
        assert_eq!(&checkpoint.principal, principal);
        assert_eq!(&checkpoint.root, root);
    }

    // Re-sync after nothing changed copies zero objects (content addressing
    // makes replication incremental for free).
    let again = sync_deployment(&master_dir, &replica_dir, 1).unwrap();
    assert!(again.iter().all(|(_, s)| s.copied == 0));
}

#[test]
fn multi_replica_fanout_ships_suffixes_with_independent_cursors() {
    // Two replicas registered at different times: the early one catches up
    // incrementally (WAL suffix only), the late one transfers everything,
    // and both recover to deployments answering the master's queries.
    let master_dir = fresh_dir("fanout-master");
    let r1_dir = fresh_dir("fanout-r1");
    let r2_dir = fresh_dir("fanout-r2");
    let mut master =
        Deployment::build(REACH_APP, &line_specs(), durable_config(&master_dir)).unwrap();
    master.run().unwrap();

    master.add_replica("r1", &r1_dir).unwrap();
    let first = master.sync_replicas().unwrap();
    assert_eq!(first.len(), 1);
    let r1_initial: usize = first[0].nodes.iter().map(|(_, s)| s.wal_records).sum();
    assert!(r1_initial > 0, "initial catch-up ships the WAL: {first:?}");

    // Cursors track each node's WAL head.
    let cursors = master.replica_cursors("r1").unwrap().clone();
    assert_eq!(cursors.len(), 3);
    assert!(cursors.values().all(|&seq| seq > 0));

    // Mutate the master (a distributed retraction reaches every node's WAL),
    // then register the second replica and fan out.
    master
        .retract(
            "n1",
            vec![("link".into(), vec![Value::str("n1"), Value::str("n2")])],
        )
        .unwrap();
    master.run().unwrap();
    master.add_replica("r2", &r2_dir).unwrap();
    let second = master.sync_replicas().unwrap();
    assert_eq!(second.len(), 2);
    let r1_suffix: usize = second[0].nodes.iter().map(|(_, s)| s.wal_records).sum();
    let r2_full: usize = second[1].nodes.iter().map(|(_, s)| s.wal_records).sum();
    assert!(r1_suffix > 0, "{second:?}");
    assert!(
        r2_full > r1_suffix,
        "late replica must transfer more than the early one's suffix: {second:?}"
    );

    // A third pass with an unchanged master touches no replica disk.
    let third = master.sync_replicas().unwrap();
    for report in &third {
        assert!(report.nodes.is_empty(), "{third:?}");
        assert_eq!(report.up_to_date, 3, "{third:?}");
    }

    // Both replicas recover to the master's exact answers.
    let queries = all_queries(&master);
    let roots = master.edb_roots().unwrap();
    for dir in [&r1_dir, &r2_dir] {
        let replica =
            Deployment::recover(dir, REACH_APP, &line_specs(), durable_config(dir)).unwrap();
        assert_eq!(all_queries(&replica), queries);
        assert_eq!(replica.edb_roots().unwrap(), roots);
    }
}

#[test]
fn replica_sync_without_durability_is_typed() {
    let config = DeploymentConfig {
        security: SecurityConfig::new(AuthScheme::HmacSha1, EncScheme::None),
        durability: None,
        ..DeploymentConfig::default()
    };
    let mut deployment = Deployment::build(REACH_APP, &line_specs(), config).unwrap();
    assert!(matches!(
        deployment.add_replica("r", fresh_dir("no-dur")),
        Err(DurabilityError::Disabled)
    ));
    assert!(matches!(
        deployment.sync_replicas(),
        Err(DurabilityError::Disabled)
    ));
}

#[test]
fn fresh_build_refuses_directory_with_existing_state() {
    let dir = fresh_dir("refuse");
    let mut deployment = Deployment::build(REACH_APP, &line_specs(), durable_config(&dir)).unwrap();
    deployment.run().unwrap();
    drop(deployment);
    let error = match Deployment::build(REACH_APP, &line_specs(), durable_config(&dir)) {
        Err(error) => error,
        Ok(_) => panic!("fresh build over existing durable state must fail"),
    };
    assert!(error.to_string().contains("recover"), "got: {error}");
}
