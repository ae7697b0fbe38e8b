//! Walkthrough: durable deployments — checkpoint, crash, recover, replicate.
//!
//! Runs a three-node secured gossip/reachability deployment with durability
//! enabled, checkpoints every node into Merkle-committed snapshots, drops the
//! deployment ("crash"), recovers it from disk, and verifies the recovered
//! fixpoint commits to the identical roots.  Then demonstrates tamper
//! detection (one flipped WAL byte) and read-replica sync.
//!
//! Run with: `cargo run --release --example checkpoint_recovery`

use secureblox::policy::SecurityConfig;
use secureblox::runtime::{Deployment, DeploymentConfig, NodeSpec};
use secureblox::{AuthScheme, DurabilityConfig, EncScheme, Value};
use secureblox_store::{derive_node_key, sync_deployment, FactStore, WalOp};

const APP: &str = r#"
    link(N1, N2) -> node(N1), node(N2).
    remote_link(N1, N2) -> node(N1), node(N2).
    reach(N1, N2) -> node(N1), node(N2).
    exportable(`remote_link).

    says[`remote_link](self[], U, X, Y) <- link(X, Y), principal(U), U != self[].
    reach(X, Y) <- link(X, Y).
    reach(X, Y) <- remote_link(X, Y).
    reach(X, Z) <- reach(X, Y), reach(Y, Z).
"#;

fn specs() -> Vec<NodeSpec> {
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

fn config(dir: &std::path::Path) -> DeploymentConfig {
    DeploymentConfig {
        security: SecurityConfig::new(AuthScheme::HmacSha1, EncScheme::None),
        durability: Some(DurabilityConfig::new(dir)),
        ..DeploymentConfig::default()
    }
}

fn main() {
    let base = std::env::temp_dir().join(format!("secureblox-example-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let master_dir = base.join("master");
    let replica_dir = base.join("replica");

    println!("== 1. run a durable deployment to fixpoint ==");
    let mut deployment = Deployment::build(APP, &specs(), config(&master_dir)).unwrap();
    let report = deployment.run().unwrap();
    println!(
        "   {} nodes converged in {:?} virtual time ({} transactions)",
        report.num_nodes, report.fixpoint_latency, report.total_transactions
    );
    println!(
        "   n0 reach: {:?} tuples",
        deployment.query("n0", "reach").len()
    );

    println!("\n== 2. checkpoint: Merkle-committed snapshots per node ==");
    let checkpoints = deployment.checkpoint().unwrap();
    for checkpoint in &checkpoints {
        println!(
            "   {}  root={}  watermark={}ns",
            checkpoint.principal, checkpoint.root, checkpoint.watermark
        );
    }
    // The snapshot supersedes the logged history, so the checkpoint drops
    // every base-fact record; only the re-logged per-peer export cursor
    // survives the compaction (DESIGN.md §9.3).
    let wal_len = std::fs::metadata(master_dir.join("n0").join("wal.log"))
        .unwrap()
        .len();
    println!("   n0 WAL after checkpoint: {wal_len} bytes (export cursor only)");

    println!("\n== 3. crash (drop the deployment), then recover from disk ==");
    let reach_before = deployment.query("n0", "reach").len();
    drop(deployment);
    let n0_store = FactStore::open(master_dir.join("n0"), &derive_node_key(1, "n0")).unwrap();
    let suffix = n0_store.recovered_suffix().to_vec();
    println!(
        "   n0 compacted WAL holds {} export-cursor marks, 0 base facts",
        suffix.len()
    );
    assert!(!suffix.is_empty());
    assert!(suffix.iter().all(|record| record.op == WalOp::ExportMark));
    drop(n0_store);
    let recovered = Deployment::recover(&master_dir, APP, &specs(), config(&master_dir)).unwrap();
    println!(
        "   n0 reach after recovery: {:?} tuples",
        recovered.query("n0", "reach").len()
    );
    assert_eq!(recovered.query("n0", "reach").len(), reach_before);
    let roots = recovered.edb_roots().unwrap();
    let matches = checkpoints
        .iter()
        .zip(&roots)
        .all(|(c, (_, r))| &c.root == r);
    println!("   Merkle roots identical to checkpoint: {matches}");
    assert!(matches);

    println!("\n== 4. replicate: copy missing objects, swap HEAD, recover replica ==");
    let nodes = specs();
    let principals = nodes.iter().map(|spec| spec.principal.as_str());
    let stats = sync_deployment(&master_dir, &replica_dir, principals, 1).unwrap();
    for (node, s) in &stats {
        println!(
            "   {node}: copied {} objects, {} already present, {} WAL records shipped",
            s.copied, s.skipped, s.wal_records
        );
    }
    let replica = Deployment::recover(&replica_dir, APP, &specs(), config(&replica_dir)).unwrap();
    assert_eq!(
        replica.query("n2", "reach").len(),
        recovered.query("n2", "reach").len()
    );
    println!("   replica answers identical queries: true");

    println!("\n== 5. tamper with one WAL byte: typed detection, no panic ==");
    // Post-checkpoint work lands in the fresh (compacted) log; retract a
    // link so n0's WAL has a suffix worth tampering with.
    let mut recovered = recovered;
    recovered
        .retract(
            "n0",
            vec![("link".into(), vec![Value::str("n0"), Value::str("n1")])],
        )
        .unwrap();
    drop(recovered);
    let wal_path = master_dir.join("n0").join("wal.log");
    let mut bytes = std::fs::read(&wal_path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01;
    std::fs::write(&wal_path, &bytes).unwrap();
    match Deployment::recover(&master_dir, APP, &specs(), config(&master_dir)) {
        Err(error) => println!("   recovery refused: {error}"),
        Ok(_) => panic!("tampered WAL must not recover"),
    }

    let _ = std::fs::remove_dir_all(&base);
    println!("\nDone.");
}
