//! Metric definitions and the per-layer table.
//!
//! End-to-end metrics come from untraced repetitions.  Per-layer metrics come
//! from a separate traced pass and are never mixed into them: the program's
//! *existing* histograms and counters read around each timed phase, ablation
//! runs that switch a layer off through public configuration, and replay
//! probes that feed the run's own inventory to a layer's public functions.

use crate::sut;
use crate::trace::{timed, total_s};
use crate::workloads::{Observed, RepSpec, Variant, RUN_PHASES};
use std::collections::BTreeMap;

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
    /// Which clock the number was read from: `"wall"`, `"virtual"`, or
    /// `"none"` for bytes.
    pub clock: &'static str,
    pub meaning: &'static str,
}

pub const END_TO_END: [EndToEnd; 8] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
        clock: "wall",
        meaning: "input generation + Deployment::build (parse, generics/policy compile, key provisioning)",
    },
    EndToEnd {
        name: "updates_per_s",
        unit: "1/s",
        better: "higher",
        bound: 0.25,
        clock: "wall",
        meaning: "signed deltas shipped, verified and applied / wall of the run() phases",
    },
    EndToEnd {
        name: "scenario_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
        clock: "wall",
        meaning: "wall of every timed phase after set-up (run; under churn also checkpoint, withdrawals, recovery)",
    },
    EndToEnd {
        name: "virtual_fixpoint_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
        clock: "virtual",
        meaning: "report.fixpoint_latency (Fig. 4/5): modelled network + per-node compute on the critical path",
    },
    EndToEnd {
        name: "txn_apply_p50_us",
        unit: "us",
        better: "lower",
        bound: 0.25,
        clock: "wall",
        meaning: "report.apply_latency_p50 (Fig. 7): median committed-transaction duration",
    },
    EndToEnd {
        name: "wire_kb_per_node",
        unit: "KB",
        better: "lower",
        bound: 0.02,
        clock: "none",
        meaning: "report.per_node_kb (Fig. 6/12): bytes sent per node",
    },
    EndToEnd {
        name: "cpu_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
        clock: "wall",
        meaning: "process user+sys CPU over the timed phases (/proc/self/stat)",
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: "lower",
        bound: 0.10,
        clock: "none",
        meaning: "the repetition's own process VmHWM",
    },
];

pub fn end_to_end(o: &Observed) -> BTreeMap<&'static str, f64> {
    BTreeMap::from([
        ("setup_s", o.setup_s),
        ("updates_per_s", o.updates as f64 / o.run_s()),
        ("scenario_s", o.scenario_s()),
        ("virtual_fixpoint_s", o.report.virtual_fixpoint_s),
        ("txn_apply_p50_us", o.report.txn_apply_p50_us),
        ("wire_kb_per_node", o.report.wire_kb_per_node),
        ("cpu_s", o.cpu_s()),
        ("peak_rss_mb", o.peak_rss_mb),
    ])
}

pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn lower(name: &'static str, unit: &'static str) -> Layer {
    Layer {
        name,
        unit,
        better: "lower",
    }
}

const fn higher(name: &'static str, unit: &'static str) -> Layer {
    Layer {
        name,
        unit,
        better: "higher",
    }
}

/// Every per-layer metric, grouped by the crate or module it belongs to (the
/// prefix before the dot; `stream.*` is `core.runtime`'s scheduler and
/// `trace.*` the harness's own tracing).  Metrics that do not apply to a
/// workload read 0 there.
pub const PER_LAYER: [Layer; 89] = [
    // crypto: replay of every exported tuple with the workload's scheme.
    lower("crypto.sign_s", "s"),
    lower("crypto.verify_s", "s"),
    lower("crypto.cipher_s", "s"),
    lower("crypto.ops", "count"),
    lower("crypto.sig_checks", "count"),
    lower("crypto.share", "ratio"),
    // core.policy: NoAuth ablation and what is left after crypto.
    lower("policy.noauth_run_s", "s"),
    lower("policy.security_overhead_s", "s"),
    lower("policy.rule_overhead_s", "s"),
    lower("policy.wire_overhead_ratio", "ratio"),
    lower("policy.compile_s", "s"),
    lower("policy.rejected_batches", "count"),
    lower("policy.conflicting_batches", "count"),
    lower("policy.forged_reject_us", "us"),
    // generics
    lower("generics.compile_s", "s"),
    lower("generics.rules_out", "count"),
    // datalog
    lower("datalog.parse_s", "s"),
    lower("datalog.fixpoint_s", "s"),
    lower("datalog.fixpoint_count", "count"),
    lower("datalog.fixpoint_self_s", "s"),
    lower("datalog.batch_join_s", "s"),
    lower("datalog.batch_join_count", "count"),
    lower("datalog.dred_batch_join_s", "s"),
    lower("datalog.retract_s", "s"),
    lower("datalog.retract_count", "count"),
    lower("datalog.plan_compile_s", "s"),
    lower("datalog.plans_compiled", "count"),
    higher("datalog.plan_cache_hits", "count"),
    lower("datalog.index_probes", "count"),
    lower("datalog.full_scans", "count"),
    lower("datalog.full_scan_ratio", "ratio"),
    lower("datalog.serial_batches", "count"),
    lower("datalog.parallel_batches", "count"),
    lower("datalog.codec_s", "s"),
    lower("datalog.intern_size", "count"),
    lower("datalog.facts_total", "count"),
    lower("datalog.recover_fixpoint_s", "s"),
    // net
    lower("net.messages", "count"),
    lower("net.bytes", "B"),
    higher("net.deltas_per_message", "ratio"),
    lower("net.busiest_node_share", "ratio"),
    lower("net.sim_replay_s", "s"),
    // core.runtime
    lower("runtime.build_s", "s"),
    lower("runtime.run_s", "s"),
    lower("runtime.query_s", "s"),
    lower("runtime.update_apply_s", "s"),
    lower("runtime.update_apply_count", "count"),
    lower("runtime.update_verify_s", "s"),
    lower("runtime.txn_apply_s", "s"),
    lower("runtime.txn_apply_count", "count"),
    lower("runtime.bootstrap_txn_s", "s"),
    lower("runtime.self_s", "s"),
    lower("runtime.retraction_apply_s", "s"),
    lower("runtime.local_retract_s", "s"),
    lower("runtime.retraction_count", "count"),
    lower("runtime.retraction_cascades", "count"),
    lower("runtime.txn_apply_p99_us", "us"),
    lower("runtime.envelope_codec_s", "s"),
    higher("stream.batch_deltas_mean", "count"),
    higher("stream.annihilated", "count"),
    lower("stream.stall_s", "s"),
    lower("stream.credits", "count"),
    // core.reactor
    lower("reactor.threads", "count"),
    lower("reactor.parked_s", "s"),
    lower("reactor.wake_latency_p50_us", "us"),
    higher("reactor.speedup", "ratio"),
    lower("reactor.cpu_inflation", "ratio"),
    // core.shard
    lower("shard.exchange_bytes", "B"),
    lower("shard.exchanged_updates", "count"),
    lower("shard.partition_skew", "ratio"),
    lower("shard.shuffle_apply_s", "s"),
    lower("shard.handrouted_run_s", "s"),
    lower("shard.routing_overhead_s", "s"),
    // store
    lower("store.wal_append_s", "s"),
    lower("store.wal_records", "count"),
    lower("store.checkpoint_s", "s"),
    lower("store.open_verify_s", "s"),
    lower("store.recovery_replay_s", "s"),
    lower("store.disk_bytes", "B"),
    lower("store.bytes_per_record", "B"),
    lower("store.nodurable_run_s", "s"),
    lower("store.durability_overhead_s", "s"),
    lower("store.append_replay_s", "s"),
    // churn phases of reach_churn_durable (gated end to end through
    // scenario_s and cpu_s; broken out here)
    lower("churn.retract_converge_s", "s"),
    lower("churn.recover_s", "s"),
    lower("churn.disk_bytes_per_fact", "B/fact"),
    // the harness's own tracing
    lower("trace.overhead_ratio", "ratio"),
    higher("trace.coverage_ratio", "ratio"),
    lower("trace.spans", "count"),
];

/// How the program's timing histograms nest: `(histogram, parent, layer,
/// what its self time is)`.  A histogram's self time is its sum minus its
/// children's sums; the rows are the layer budget.
///
/// Three pieces run outside their declared parent, and [`local_layers`]
/// passes each as the child's *detached* part:
/// - every node's bootstrap transaction is an `engine_txn_apply_ns` sample
///   with no `engine_update_apply_ns` around it ([`sut::bootstrap_txn_s`]);
/// - a local `Deployment::retract` runs DRed (`datalog_retract_ns`) with no
///   `engine_retraction_apply_ns` around it;
/// - the batch join executor also runs while DRed re-derives, so its
///   histogram is split: `…/dred` is the part recorded in phases that
///   retract, up to the DRed time there.
///
/// `datalog_fixpoint_ns` records committed transactions only, so
/// `engine_txn_apply_ns`'s self time is mostly rolled-back transactions.
pub const NESTING: [(&str, Option<&str>, &str, &str); 10] = [
    (
        "engine_update_apply_ns",
        None,
        "core.runtime",
        "export scan, codec, outbox, credit",
    ),
    (
        "engine_txn_apply_ns",
        Some("engine_update_apply_ns"),
        "core.runtime",
        "rolled-back transactions, virtual-clock bookkeeping",
    ),
    (
        "engine_update_verify_ns",
        Some("engine_update_apply_ns"),
        "core.runtime",
        "retract-delta signature verification",
    ),
    (
        "engine_retraction_apply_ns",
        Some("engine_update_apply_ns"),
        "core.runtime",
        "retraction bookkeeping around DRed",
    ),
    (
        "store_wal_append_ns",
        Some("engine_update_apply_ns"),
        "store",
        "WAL append",
    ),
    (
        "datalog_fixpoint_ns",
        Some("engine_txn_apply_ns"),
        "datalog",
        "insert, tuple-at-a-time rules, constraints, UDF crypto",
    ),
    (
        "datalog_retract_ns",
        Some("engine_retraction_apply_ns"),
        "datalog",
        "DRed over-delete and re-derive, tuple at a time",
    ),
    (
        "datalog_rule_batch_join_ns",
        Some("datalog_fixpoint_ns"),
        "datalog",
        "batch join executor under a fixpoint",
    ),
    (
        "datalog_rule_batch_join_ns/dred",
        Some("datalog_retract_ns"),
        "datalog",
        "batch join executor under DRed",
    ),
    (
        "datalog_plan_compile_ns",
        Some("datalog_fixpoint_ns"),
        "datalog",
        "plan compile",
    ),
];

/// The budget row for run time no histogram covers.
pub const OUTSIDE: (&str, &str, &str) = (
    "outside",
    "core.runtime",
    "no histogram: scheduling, net sim, bootstrap and local-retract flush",
);

/// Self seconds per histogram of [`NESTING`], clamped at zero.
pub fn self_times(
    sums: &BTreeMap<&str, f64>,
    detached: &BTreeMap<&str, f64>,
) -> BTreeMap<&'static str, f64> {
    let sum_of = |name: &str| sums.get(name).copied().unwrap_or(0.0);
    NESTING
        .iter()
        .map(|&(name, ..)| {
            let children: f64 = NESTING
                .iter()
                .filter(|&&(_, parent, ..)| parent == Some(name))
                .map(|&(child, ..)| sum_of(child) - detached.get(child).copied().unwrap_or(0.0))
                .sum();
            (name, (sum_of(name) - children).max(0.0))
        })
        .collect()
}

fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

/// The layer metrics one traced repetition can compute by itself: registry
/// deltas, report counters, and the replay probes (which run here, after
/// the scenario, on its inventory).
///
/// Also fills `budget`: self seconds per [`NESTING`] row plus [`OUTSIDE`],
/// which add up to the run budget.
pub fn local_layers(
    o: &Observed,
    spec: &RepSpec,
    budget: &mut Values,
) -> Result<BTreeMap<&'static str, f64>, String> {
    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
    let run_hist = |name: &str| o.hist(&RUN_PHASES, name);
    let mut run_sums: BTreeMap<&str, f64> = NESTING
        .iter()
        .map(|&(name, ..)| (name, secs(run_hist(name).0)))
        .collect();
    // Split the batch join executor's time between its two callers, phase by
    // phase: where DRed ran, joins are charged to it first.
    let dred_joins: f64 = RUN_PHASES
        .iter()
        .map(|phase| {
            let joins = secs(o.hist(&[phase], "datalog_rule_batch_join_ns").0);
            joins.min(secs(o.hist(&[phase], "datalog_retract_ns").0))
        })
        .sum();
    run_sums.insert("datalog_rule_batch_join_ns/dred", dred_joins);
    *run_sums.entry("datalog_rule_batch_join_ns").or_default() -= dred_joins;
    let local_retract_s =
        (run_sums["datalog_retract_ns"] - run_sums["engine_retraction_apply_ns"]).max(0.0);
    let detached = BTreeMap::from([
        ("engine_txn_apply_ns", o.bootstrap_txn_s),
        ("datalog_retract_ns", local_retract_s),
    ]);
    let own = self_times(&run_sums, &detached);
    let run_s = o.run_s();
    // The time there is to attribute: wall on the reference executor; on the
    // reactor the histograms sum over parallel workers, so CPU seconds.
    let budget_s = run_s.max(o.run_cpu_s());
    let attributed: f64 = own.values().sum();
    let outside_s = (budget_s - attributed).max(0.0);
    for (name, seconds) in &own {
        budget.insert(name.to_string(), *seconds);
    }
    budget.insert(OUTSIDE.0.to_string(), outside_s);

    // core.runtime
    m.insert("runtime.build_s", o.setup_s);
    m.insert("runtime.query_s", total_s("query"));
    m.insert("runtime.run_s", run_s);
    m.insert("runtime.update_apply_s", run_sums["engine_update_apply_ns"]);
    m.insert(
        "runtime.update_apply_count",
        run_hist("engine_update_apply_ns").1 as f64,
    );
    m.insert(
        "runtime.update_verify_s",
        run_sums["engine_update_verify_ns"],
    );
    m.insert("runtime.txn_apply_s", run_sums["engine_txn_apply_ns"]);
    m.insert(
        "runtime.txn_apply_count",
        run_hist("engine_txn_apply_ns").1 as f64,
    );
    m.insert("runtime.bootstrap_txn_s", o.bootstrap_txn_s);
    // Run time not attributed to a child layer: the update path's own work
    // plus everything outside the histograms.
    m.insert("runtime.self_s", outside_s + own["engine_update_apply_ns"]);
    m.insert("runtime.local_retract_s", local_retract_s);
    m.insert(
        "runtime.retraction_apply_s",
        run_sums["engine_retraction_apply_ns"],
    );
    m.insert(
        "runtime.retraction_count",
        run_hist("engine_retraction_apply_ns").1 as f64,
    );
    m.insert(
        "runtime.retraction_cascades",
        o.counter("engine_retraction_cascades_total") as f64,
    );
    m.insert("runtime.txn_apply_p99_us", o.report.txn_apply_p99_us);
    let (batch_deltas, batches) = run_hist("engine_stream_batch_deltas");
    m.insert(
        "stream.batch_deltas_mean",
        batch_deltas as f64 / batches.max(1) as f64,
    );
    m.insert(
        "stream.annihilated",
        o.counter("engine_stream_annihilated_total") as f64,
    );
    m.insert("stream.stall_s", secs(run_hist("engine_stream_stall_ns").0));
    m.insert(
        "stream.credits",
        o.counter("engine_stream_credits_total") as f64,
    );
    m.insert("trace.coverage_ratio", attributed / budget_s);

    // datalog
    m.insert("datalog.fixpoint_s", run_sums["datalog_fixpoint_ns"]);
    m.insert(
        "datalog.fixpoint_count",
        run_hist("datalog_fixpoint_ns").1 as f64,
    );
    m.insert("datalog.fixpoint_self_s", own["datalog_fixpoint_ns"]);
    m.insert(
        "datalog.batch_join_s",
        run_sums["datalog_rule_batch_join_ns"] + dred_joins,
    );
    m.insert("datalog.dred_batch_join_s", dred_joins);
    m.insert(
        "datalog.batch_join_count",
        run_hist("datalog_rule_batch_join_ns").1 as f64,
    );
    m.insert("datalog.retract_s", run_sums["datalog_retract_ns"]);
    m.insert(
        "datalog.retract_count",
        run_hist("datalog_retract_ns").1 as f64,
    );
    m.insert(
        "datalog.plan_compile_s",
        run_sums["datalog_plan_compile_ns"],
    );
    m.insert("datalog.plans_compiled", o.report.plans_compiled as f64);
    m.insert("datalog.plan_cache_hits", o.report.plan_cache_hits as f64);
    m.insert("datalog.index_probes", o.report.index_probes as f64);
    m.insert("datalog.full_scans", o.report.full_scans as f64);
    m.insert(
        "datalog.full_scan_ratio",
        o.report.full_scans as f64 / (o.report.full_scans + o.report.index_probes).max(1) as f64,
    );
    m.insert("datalog.serial_batches", o.report.serial_batches as f64);
    m.insert("datalog.parallel_batches", o.report.parallel_batches as f64);
    m.insert(
        "datalog.intern_size",
        sut::gauge("datalog_intern_table_size") as f64,
    );
    m.insert("datalog.facts_total", o.facts_total as f64);
    m.insert(
        "datalog.recover_fixpoint_s",
        secs(o.hist(&["recover"], "datalog_fixpoint_ns").0),
    );

    // net
    let messages = o.report.messages.max(1);
    m.insert("net.messages", o.report.messages as f64);
    m.insert("net.bytes", o.report.wire_bytes as f64);
    m.insert("net.deltas_per_message", o.updates as f64 / messages as f64);
    m.insert(
        "net.busiest_node_share",
        o.report.busiest_node_bytes as f64 / o.report.wire_bytes.max(1) as f64,
    );

    // core.policy
    m.insert("policy.rejected_batches", o.report.rejected_batches as f64);
    m.insert(
        "policy.conflicting_batches",
        o.report.conflicting_batches as f64,
    );
    m.insert(
        "crypto.sig_checks",
        o.counter("engine_signature_checks_total") as f64,
    );

    // core.reactor
    let reactor = matches!(o.pinned.executor, sut::Executor::Reactor { .. });
    m.insert(
        "reactor.threads",
        if reactor {
            sut::gauge("reactor_threads") as f64
        } else {
            0.0
        },
    );
    m.insert("reactor.parked_s", secs(run_hist("reactor_parked_ns").0));
    m.insert(
        "reactor.wake_latency_p50_us",
        sut::histograms()
            .get("reactor_wake_latency_ns")
            .map_or(0.0, |h| h.p50 as f64 / 1e3),
    );

    // core.shard
    m.insert("shard.exchange_bytes", o.report.shard_exchange_bytes as f64);
    m.insert(
        "shard.exchanged_updates",
        o.exported
            .iter()
            .filter(|(pred, _)| pred.starts_with("shard_"))
            .map(|(_, tuples)| tuples.len())
            .sum::<usize>() as f64,
    );
    m.insert("shard.partition_skew", o.report.shard_skew);
    m.insert(
        "shard.shuffle_apply_s",
        secs(run_hist("engine_shard_shuffle_apply_ns").0),
    );

    // store
    m.insert("store.wal_append_s", run_sums["store_wal_append_ns"]);
    let wal_records = o.counter("store_wal_records_total");
    m.insert("store.wal_records", wal_records as f64);
    m.insert(
        "store.checkpoint_s",
        o.phases.get("checkpoint").map_or(0.0, |p| p.wall_s),
    );
    m.insert(
        "store.recovery_replay_s",
        secs(o.hist(&["recover"], "store_recovery_replay_ns").0),
    );
    let extra = |name: &str| o.extras.get(name).copied().unwrap_or(0.0);
    m.insert(
        "store.bytes_per_record",
        extra("store.disk_bytes") / wal_records.max(1) as f64,
    );
    for name in [
        "store.open_verify_s",
        "store.disk_bytes",
        "store.append_replay_s",
        "policy.forged_reject_us",
        "churn.retract_converge_s",
        "churn.recover_s",
        "churn.disk_bytes_per_fact",
    ] {
        m.insert(name, extra(name));
    }

    replay_probes(o, spec, &mut m)?;
    Ok(m)
}

/// Feed the run's own inventory to each layer's public functions.
fn replay_probes(
    o: &Observed,
    spec: &RepSpec,
    m: &mut BTreeMap<&'static str, f64>,
) -> Result<(), String> {
    let scheme = o.pinned.scheme;
    let (compiled, _) = timed("probe_compile", || sut::compile_probe(&o.app, scheme));
    let compiled = compiled?;
    m.insert("datalog.parse_s", compiled.parse_s);
    m.insert("generics.compile_s", compiled.generics_s);
    m.insert("generics.rules_out", compiled.rules_out as f64);
    m.insert("policy.compile_s", compiled.policy_compile_s);

    let all: Vec<sut::Tuple> = o
        .exported
        .iter()
        .flat_map(|(_, tuples)| tuples.iter().cloned())
        .collect();
    let envelopes: Vec<Vec<u8>> = o
        .exported
        .iter()
        .flat_map(|(pred, tuples)| sut::frame_envelopes(pred, tuples, sut::signature_len(scheme)))
        .collect();

    let (crypto, _) = timed("probe_crypto", || {
        sut::replay_crypto(scheme, spec.seed, &all, &envelopes)
    });
    let crypto = crypto?;
    m.insert("crypto.sign_s", crypto.sign_s);
    m.insert("crypto.verify_s", crypto.verify_s);
    m.insert("crypto.cipher_s", crypto.cipher_s);
    m.insert("crypto.ops", crypto.ops as f64);
    m.insert(
        "crypto.share",
        (crypto.sign_s + crypto.verify_s + crypto.cipher_s) / o.cpu_s().max(1e-9),
    );

    let (codec, _) = timed("probe_tuple_codec", || sut::replay_tuple_codec(&all));
    m.insert("datalog.codec_s", codec?);
    let (framing, _) = timed("probe_envelope_codec", || {
        sut::replay_envelope_codec(&envelopes)
    });
    m.insert("runtime.envelope_codec_s", framing?);

    let messages = o.report.messages as usize;
    let mean_wire = o.report.wire_bytes as usize / messages.max(1);
    let (sim, _) = timed("probe_sim_network", || {
        sut::replay_sim_network(
            o.nodes,
            messages,
            mean_wire.saturating_sub(sut::WIRE_HEADER),
        )
    });
    m.insert("net.sim_replay_s", sim);
    Ok(())
}

/// One child's numbers as the parent sees them.
pub type Values = BTreeMap<String, f64>;

/// The layer metrics that compare runs: the traced repetition against the
/// untraced median, and the base workload against each ablation.
pub fn cross_layers(
    traced: &Values,
    untraced_run_s: f64,
    untraced: &Values,
    ablations: &BTreeMap<Variant, Values>,
) -> BTreeMap<&'static str, f64> {
    let mut m = BTreeMap::new();
    let of = |values: &Values, name: &str| values.get(name).copied().unwrap_or(0.0);
    // Ablations run untraced, so they are compared with the untraced base.
    let base_run_s = untraced_run_s;
    m.insert(
        "trace.overhead_ratio",
        of(traced, "runtime.run_s") / untraced_run_s,
    );
    let ablated = |variant: Variant, name: &str| ablations.get(&variant).map(|v| of(v, name));
    let noauth_run_s = ablated(Variant::NoAuth, "run_s").unwrap_or(0.0);
    let security_overhead = ablations
        .get(&Variant::NoAuth)
        .map_or(0.0, |_| base_run_s - noauth_run_s);
    let crypto_replay =
        of(traced, "crypto.sign_s") + of(traced, "crypto.verify_s") + of(traced, "crypto.cipher_s");
    m.insert("policy.noauth_run_s", noauth_run_s);
    m.insert("policy.security_overhead_s", security_overhead);
    m.insert("policy.rule_overhead_s", security_overhead - crypto_replay);
    m.insert(
        "policy.wire_overhead_ratio",
        ablated(Variant::NoAuth, "wire_kb_per_node")
            .map_or(0.0, |noauth| of(untraced, "wire_kb_per_node") / noauth),
    );
    m.insert(
        "reactor.speedup",
        ablated(Variant::NoReactor, "run_s").map_or(0.0, |reference| reference / base_run_s),
    );
    m.insert(
        "reactor.cpu_inflation",
        ablated(Variant::NoReactor, "cpu_s")
            .map_or(0.0, |reference| of(untraced, "cpu_s") / reference),
    );
    let handrouted = ablated(Variant::HandRouted, "run_s");
    m.insert("shard.handrouted_run_s", handrouted.unwrap_or(0.0));
    m.insert(
        "shard.routing_overhead_s",
        handrouted.map_or(0.0, |h| base_run_s - h),
    );
    let nodurable = ablated(Variant::NoDurable, "run_s");
    m.insert("store.nodurable_run_s", nodurable.unwrap_or(0.0));
    m.insert(
        "store.durability_overhead_s",
        nodurable.map_or(0.0, |n| base_run_s - n),
    );
    m
}

/// The layer budget as `(layer, what, seconds)` rows, from the `self.*`
/// values of a traced repetition.
pub fn budget_rows(budget: &Values) -> Vec<(&'static str, &'static str, f64)> {
    let of = |name: &str| budget.get(name).copied().unwrap_or(0.0);
    std::iter::once((OUTSIDE.1, OUTSIDE.2, of(OUTSIDE.0)))
        .chain(
            NESTING
                .iter()
                .map(|&(name, _, layer, what)| (layer, what, of(name))),
        )
        .collect()
}

pub fn selftest() -> Result<(), String> {
    // update_apply 10 ⊃ txn_apply 6 (of which 1 detached) ⊃ fixpoint 4 ⊃ batch_join 1.
    let sums = BTreeMap::from([
        ("engine_update_apply_ns", 10.0),
        ("engine_txn_apply_ns", 6.0),
        ("engine_update_verify_ns", 0.5),
        ("datalog_fixpoint_ns", 4.0),
        ("datalog_rule_batch_join_ns", 1.0),
    ]);
    let detached = BTreeMap::from([("engine_txn_apply_ns", 1.0)]);
    let own = self_times(&sums, &detached);
    let want = [
        ("engine_update_apply_ns", 4.5),
        ("engine_txn_apply_ns", 2.0),
        ("engine_update_verify_ns", 0.5),
        ("datalog_fixpoint_ns", 3.0),
        ("datalog_rule_batch_join_ns", 1.0),
        ("datalog_retract_ns", 0.0),
    ];
    for (name, expected) in want {
        if (own[name] - expected).abs() > 1e-12 {
            return Err(format!(
                "self time of {name}: got {}, want {expected}",
                own[name]
            ));
        }
    }
    // Self times add up to the roots plus the detached part.
    let total: f64 = own.values().sum();
    if (total - 11.0).abs() > 1e-12 {
        return Err(format!("self times sum to {total}, want 11"));
    }
    // A child larger than its parent clamps instead of going negative.
    let odd = BTreeMap::from([("engine_txn_apply_ns", 1.0), ("datalog_fixpoint_ns", 2.0)]);
    if self_times(&odd, &BTreeMap::new())["engine_txn_apply_ns"] != 0.0 {
        return Err("self time went negative".into());
    }
    let mut names: Vec<&str> = PER_LAYER.iter().map(|l| l.name).collect();
    names.extend(END_TO_END.iter().map(|e| e.name));
    let count = names.len();
    names.sort_unstable();
    names.dedup();
    if names.len() != count {
        return Err("a metric name is used twice".into());
    }
    Ok(())
}
