//! Reactor-executor scaling: sustained update-stream deltas applied per
//! second, single-threaded virtual-time reference loop vs the event-driven
//! reactor executor, at 6 / 18 / 36 nodes.
//!
//! The workload is the `stream_throughput` gossip flood on a ring: every
//! node exports its own `link` facts *and everything it has heard* to every
//! other principal — `O(n²)` signed deltas riding many small cascading
//! transactions.  The streaming scheduler (coalescing + credit backpressure)
//! is ON in both modes, so the comparison isolates the *executor*: one
//! global virtual-time loop on one core vs per-node worker tasks woken by
//! message arrival.
//!
//! Every node runs durably, and the bench asserts the final EDB **Merkle
//! roots are bit-identical** between the two executors before reporting any
//! number — outcome equivalence is the precondition for the comparison to
//! mean anything.
//!
//! Writes `BENCH_reactor_scaling.json` (to `SECUREBLOX_BENCH_DIR` or the
//! working directory) with updates/sec per node count for both executors —
//! CI's regression gate compares the reactor updates/sec against the
//! committed artifact.  `CRITERION_QUICK=1` runs the 6-node point only and
//! tags the report so the gate skips it.  `SECUREBLOX_REACTOR_BENCH_NODES`
//! overrides the node-count sweep.

use secureblox::policy::SecurityConfig;
use secureblox::runtime::{Deployment, DeploymentConfig, NodeSpec, ReactorConfig, StreamingConfig};
use secureblox::{AuthScheme, DurabilityConfig, EncScheme, Value};
use std::path::PathBuf;
use std::time::{Duration, Instant};

const GOSSIP_APP: &str = r#"
    link(N1, N2) -> node(N1), node(N2).
    remote_link(N1, N2) -> node(N1), node(N2).
    exportable(`remote_link).

    says[`remote_link](self[], U, X, Y) <- link(X, Y), principal(U), U != self[].
    says[`remote_link](self[], U, X, Y) <- remote_link(X, Y), principal(U), U != self[].
"#;

fn principal(i: usize) -> String {
    format!("n{i}")
}

/// Ring specs: node i owns directed links to both neighbours.
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

struct ModeResult {
    wall: Duration,
    updates: usize,
    /// Per-principal EDB Merkle roots at the fixpoint.
    roots: Vec<(String, String)>,
}

fn fresh_dir(label: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("sbx-reactor-bench-{label}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn run_mode(n: usize, label: &str, reactor: ReactorConfig) -> ModeResult {
    eprintln!("reactor_scaling: n={n} {label} ...");
    let dir = fresh_dir(&format!("{label}-n{n}"));
    let config = DeploymentConfig {
        security: SecurityConfig::new(AuthScheme::HmacSha1, EncScheme::None),
        streaming: StreamingConfig::default(),
        durability: Some(DurabilityConfig::new(&dir)),
        reactor,
        ..DeploymentConfig::default()
    };
    let mut deployment =
        Deployment::build(GOSSIP_APP, &ring_specs(n), config).expect("build gossip deployment");
    let start = Instant::now();
    deployment.run().expect("gossip flood converges");
    let wall = start.elapsed();

    let mut updates = 0usize;
    for i in 0..n {
        updates += deployment.query(&principal(i), "says$remote_link").len();
    }
    let roots = deployment.edb_roots().expect("durable roots");
    drop(deployment);
    let _ = std::fs::remove_dir_all(&dir);
    let result = ModeResult {
        wall,
        updates,
        roots,
    };
    eprintln!(
        "reactor_scaling: n={n} {label} done in {:?} ({} updates)",
        result.wall, result.updates
    );
    result
}

fn rate(result: &ModeResult) -> f64 {
    result.updates as f64 / result.wall.as_secs_f64().max(1e-9)
}

fn mode_json(result: &ModeResult) -> String {
    format!(
        r#"{{"updates": {}, "wall_ns": {}, "updates_per_sec": {:.1}}}"#,
        result.updates,
        result.wall.as_nanos(),
        rate(result),
    )
}

fn main() {
    let quick = std::env::var_os("CRITERION_QUICK").is_some();
    let node_counts: Vec<usize> = match std::env::var("SECUREBLOX_REACTOR_BENCH_NODES") {
        Ok(spec) => spec
            .split(',')
            .filter_map(|s| s.trim().parse().ok())
            .collect(),
        Err(_) if quick => vec![6],
        Err(_) => vec![6, 18, 36],
    };
    let threads = std::thread::available_parallelism().map_or(1, |p| p.get());
    let mut entries = Vec::new();
    for &n in &node_counts {
        let reference = run_mode(n, "reference", ReactorConfig::disabled());
        let reactor = run_mode(n, "reactor", ReactorConfig::with_threads(threads));
        assert_eq!(
            reference.roots, reactor.roots,
            "final EDB Merkle roots diverged between executors at {n} nodes"
        );
        assert_eq!(
            reference.updates, reactor.updates,
            "update count diverged between executors at {n} nodes"
        );
        let speedup = rate(&reactor) / rate(&reference).max(1e-9);
        println!(
            "bench reactor_scaling/n{n:<3} reference {:>10.0}/s  reactor({threads}t) {:>10.0}/s  \
             speedup {speedup:>5.2}x  (roots identical)",
            rate(&reference),
            rate(&reactor),
        );
        entries.push(format!(
            r#"    {{"n": {n}, "reference": {}, "reactor": {}, "threads": {threads}, "speedup": {speedup:.2}, "merkle_roots_identical": true}}"#,
            mode_json(&reference),
            mode_json(&reactor),
        ));
    }
    let dir = std::env::var_os("SECUREBLOX_BENCH_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("."));
    let path = dir.join("BENCH_reactor_scaling.json");
    let json = format!(
        "{{\n  \"bench\": \"reactor_scaling\",\n  \"quick\": {quick},\n  \"host_threads\": {threads},\n  \"results\": [\n{}\n  ]\n}}\n",
        entries.join(",\n")
    );
    std::fs::write(&path, json).expect("write bench report");
    println!("bench report written to {}", path.display());
}
