//! Telemetry-overhead series: the same planned triple join (the
//! `planner_triple_join_10k` workload from `engine_micro`) measured with the
//! metric registry enabled — the default — and disabled, proving the
//! instrumentation stays inside its ≤5% budget on the hottest evaluation
//! path.  The disabled run exercises the cheap path the telemetry crate
//! promises: histogram records early-return on one relaxed atomic load and
//! timers never read the clock.

use criterion::{criterion_group, criterion_main, Criterion};
use secureblox_datalog::{Value, Workspace};
use std::time::{Duration, Instant};

const TRIPLE_JOIN_TUPLES: usize = 10_000;

/// `out(X, W) <- r(X, Y), s(Y, Z), t(Z, W).` over three 10k-tuple chain
/// relations — the same shape as `engine_micro/planner_triple_join_10k`.
fn triple_join_workspace() -> Workspace {
    let mut ws = Workspace::new();
    ws.install_source("out(X, W) <- r(X, Y), s(Y, Z), t(Z, W).")
        .unwrap();
    for i in 0..TRIPLE_JOIN_TUPLES as i64 {
        ws.assert_fact("r", vec![Value::Int(i), Value::Int(i + 1)])
            .unwrap();
        ws.assert_fact("s", vec![Value::Int(i + 1), Value::Int(i + 2)])
            .unwrap();
        ws.assert_fact("t", vec![Value::Int(i + 2), Value::Int(i + 3)])
            .unwrap();
    }
    ws
}

/// Re-evaluate every rule over the full relations.  A converged workspace
/// answers `fixpoint()` with a seeded no-op, so re-assert a base fact it
/// already holds first: a direct assertion invalidates convergence and the
/// next fixpoint runs the naive first round (deriving only duplicates, so
/// the measured work is one complete planned evaluation).
fn reevaluate(ws: &mut Workspace) -> usize {
    ws.assert_fact("r", vec![Value::Int(0), Value::Int(1)])
        .unwrap();
    ws.fixpoint().unwrap().iterations
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("telemetry_overhead");
    group.sample_size(20);
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(2));

    // Registry enabled (the default shipped configuration).
    secureblox_telemetry::set_metrics_enabled(true);
    group.bench_function("triple_join_10k_enabled", |b| {
        let mut ws = triple_join_workspace();
        ws.fixpoint().unwrap();
        b.iter(|| reevaluate(&mut ws))
    });

    // Registry disabled: histograms early-return, timers skip the clock.
    // Counters/gauges stay live by design (their cost matches the plan-stats
    // counters the engine always paid), so this isolates the *gated* cost.
    secureblox_telemetry::set_metrics_enabled(false);
    group.bench_function("triple_join_10k_disabled", |b| {
        let mut ws = triple_join_workspace();
        ws.fixpoint().unwrap();
        b.iter(|| reevaluate(&mut ws))
    });
    secureblox_telemetry::set_metrics_enabled(true);
    group.finish();

    // Paired interleaved measurement for the overhead figure itself: the two
    // Criterion series above run minutes apart under different cache/thermal
    // conditions, so the committed percentage comes from alternating
    // enabled/disabled evaluations on the same pre-built workspace.
    if std::env::var_os("CRITERION_QUICK").is_some() {
        return;
    }
    let mut ws = triple_join_workspace();
    ws.fixpoint().unwrap();
    let rounds = 15usize;
    let mut enabled_total = Duration::ZERO;
    let mut disabled_total = Duration::ZERO;
    for _ in 0..rounds {
        secureblox_telemetry::set_metrics_enabled(true);
        let t0 = Instant::now();
        std::hint::black_box(reevaluate(&mut ws));
        enabled_total += t0.elapsed();
        secureblox_telemetry::set_metrics_enabled(false);
        let t0 = Instant::now();
        std::hint::black_box(reevaluate(&mut ws));
        disabled_total += t0.elapsed();
    }
    secureblox_telemetry::set_metrics_enabled(true);
    let enabled_mean = enabled_total / rounds as u32;
    let disabled_mean = disabled_total / rounds as u32;
    let overhead_pct =
        (enabled_mean.as_secs_f64() / disabled_mean.as_secs_f64().max(1e-9) - 1.0) * 100.0;
    println!(
        "bench telemetry_overhead/paired_overhead                 enabled {enabled_mean:>12?}  \
         disabled {disabled_mean:>12?}  overhead {overhead_pct:>+6.2}%  (budget +5.00%)"
    );
}

criterion_group!(benches, bench);
criterion_main!(benches);
