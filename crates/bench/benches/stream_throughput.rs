//! Streaming-scheduler throughput: sustained update-stream deltas applied
//! per second, the unbatched baseline (`StreamingConfig::unbatched()`: one
//! delta per envelope) vs the default batching/backpressure knobs, at
//! 6 / 18 / 36 nodes.
//!
//! The workload is a gossip flood on a ring: every node exports its own
//! `link` facts *and everything it has heard* to every other principal, so
//! each of the `2n` directed link facts eventually crosses every one of the
//! `n·(n-1)` directed pairs exactly once — `O(n²)` signed deltas riding many
//! small cascading transactions, the exact shape the per-link outbox was
//! built to coalesce.  The app is deterministic (no existentials, no
//! functional dependencies), so both modes must converge to bit-identical
//! relations; the bench asserts that before reporting throughput.
//!
//! Writes `BENCH_stream_throughput.json` (to `SECUREBLOX_BENCH_DIR` or the
//! working directory) with updates/sec and p50/p99 update-apply latency per
//! node count for both modes — CI's regression gate compares the streaming
//! updates/sec against the committed artifact.  `CRITERION_QUICK=1` runs the
//! 6- and 18-node points (a per-flush cost that grows with the database is
//! invisible at 6 nodes, where the exported relation holds 60 tuples per
//! node) and tags the report as quick.

use secureblox::policy::SecurityConfig;
use secureblox::runtime::{Deployment, DeploymentConfig, NodeSpec, StreamingConfig};
use secureblox::{AuthScheme, EncScheme, Value};
use secureblox_datalog::codec::serialize_tuple;
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
    apply_p50: Duration,
    apply_p99: Duration,
    /// Sorted serialization of every node's final relations.
    state: Vec<Vec<u8>>,
}

fn run_mode(n: usize, label: &str, streaming: StreamingConfig) -> ModeResult {
    eprintln!("stream_throughput: n={n} {label} ...");
    let config = DeploymentConfig {
        security: SecurityConfig::new(AuthScheme::HmacSha1, EncScheme::None),
        streaming,
        ..DeploymentConfig::default()
    };
    let mut deployment =
        Deployment::build(GOSSIP_APP, &ring_specs(n), config).expect("build gossip deployment");
    let start = Instant::now();
    let report = deployment.run().expect("gossip flood converges");
    let wall = start.elapsed();

    let mut updates = 0usize;
    let mut state = Vec::new();
    for i in 0..n {
        let p = principal(i);
        updates += deployment.query(&p, "says$remote_link").len();
        for pred in ["link", "remote_link", "says$remote_link"] {
            let mut tuples: Vec<Vec<u8>> = deployment
                .query(&p, pred)
                .iter()
                .map(|t| serialize_tuple(t))
                .collect();
            tuples.sort();
            state.push(tuples.concat());
        }
    }
    let result = ModeResult {
        wall,
        updates,
        apply_p50: report.apply_latency_p50,
        apply_p99: report.apply_latency_p99,
        state,
    };
    eprintln!(
        "stream_throughput: n={n} {label} done in {:?} ({} updates)",
        result.wall, result.updates
    );
    result
}

fn rate(result: &ModeResult) -> f64 {
    result.updates as f64 / result.wall.as_secs_f64().max(1e-9)
}

fn mode_json(result: &ModeResult) -> String {
    format!(
        r#"{{"updates": {}, "wall_ns": {}, "updates_per_sec": {:.1}, "apply_p50_ns": {}, "apply_p99_ns": {}}}"#,
        result.updates,
        result.wall.as_nanos(),
        rate(result),
        result.apply_p50.as_nanos(),
        result.apply_p99.as_nanos(),
    )
}

fn main() {
    let quick = std::env::var_os("CRITERION_QUICK").is_some();
    let node_counts: Vec<usize> = match std::env::var("SECUREBLOX_STREAM_BENCH_NODES") {
        Ok(spec) => spec
            .split(',')
            .filter_map(|s| s.trim().parse().ok())
            .collect(),
        Err(_) if quick => vec![6, 18],
        Err(_) => vec![6, 18, 36],
    };
    let mut entries = Vec::new();
    for &n in &node_counts {
        let unbatched = run_mode(n, "unbatched", StreamingConfig::unbatched());
        let streamed = run_mode(n, "streaming", StreamingConfig::default());
        assert_eq!(
            unbatched.state, streamed.state,
            "final state diverged between modes at {n} nodes"
        );
        assert_eq!(
            unbatched.updates, streamed.updates,
            "update count diverged between modes at {n} nodes"
        );
        let speedup = rate(&streamed) / rate(&unbatched).max(1e-9);
        println!(
            "bench stream_throughput/n{n:<3} unbatched {:>10.0}/s  streaming {:>10.0}/s  \
             speedup {speedup:>5.2}x  (p99 apply {:?} -> {:?})",
            rate(&unbatched),
            rate(&streamed),
            unbatched.apply_p99,
            streamed.apply_p99,
        );
        entries.push(format!(
            r#"    {{"n": {n}, "unbatched": {}, "streaming": {}, "speedup": {speedup:.2}, "final_state_identical": true}}"#,
            mode_json(&unbatched),
            mode_json(&streamed),
        ));
    }
    let dir = std::env::var_os("SECUREBLOX_BENCH_DIR")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| std::path::PathBuf::from("."));
    let path = dir.join("BENCH_stream_throughput.json");
    let json = format!(
        "{{\n  \"bench\": \"stream_throughput\",\n  \"quick\": {quick},\n  \"results\": [\n{}\n  ]\n}}\n",
        entries.join(",\n")
    );
    std::fs::write(&path, json).expect("write bench report");
    println!("bench report written to {}", path.display());
}
