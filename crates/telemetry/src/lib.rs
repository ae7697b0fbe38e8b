//! The SecureBlox telemetry plane.
//!
//! The paper's whole evaluation (§8.1) is measurement — per-node bandwidth,
//! transaction duration, fixpoint latency.  Every per-run count lives once,
//! as a plain integer, with its node (`PlanStats` in its workspace, a
//! `NodeLedger` in its runtime state; a report folds them).  This crate is
//! the other half: process-wide timing distributions, gauges, the counters
//! the benchmark reads by name, and the event stream, one shared,
//! zero-dependency observability substrate for every runtime crate:
//!
//! * **Metrics** ([`metrics`]): a process-wide registry of named monotonic
//!   [`Counter`]s, [`Gauge`]s, and fixed-bucket log₂-scale [`Histogram`]s
//!   with p50/p90/p99 readout.  Handles are `&'static` and every operation
//!   is a relaxed atomic — no locks on the hot path (the registry lock is
//!   taken once per call *site*, cached through the [`counter!`]/[`gauge!`]/
//!   [`histogram!`] macros).
//! * **Spans** ([`span`](mod@span)): RAII scopes carrying a target, an optional node
//!   id, and key/value fields.  Closed spans land in a bounded in-memory
//!   ring buffer, and stream as JSON-lines to the file named by the
//!   `SECUREBLOX_TRACE` environment variable when it is set.
//! * **Exporters**: [`prometheus_text`] renders the registry in Prometheus
//!   text exposition format; [`histogram_summaries`] returns the named
//!   quantile summaries embedded in `DeploymentReport`.
//!
//! ## Cost model
//!
//! The disabled paths are genuinely cheap, by construction:
//!
//! * Counters and gauges always count — a single relaxed atomic RMW (a
//!   node's own counts are plain integers, cheaper still).
//! * Histogram recording and timer starts check one relaxed atomic flag
//!   ([`metrics_enabled`]); disabled, a timer never even reads the clock.
//! * Span construction checks one relaxed atomic flag ([`tracing_enabled`]);
//!   disabled, [`span()`] returns an empty guard — no allocation, no
//!   formatting, no clock read.
//!
//! The `telemetry_overhead` bench series holds the ≤5% budget on the
//! `planner_triple_join_10k` baseline.
//!
//! Like the `compat` crates, this is a stand-in shaped by what the workspace
//! needs, not a rebuild of `metrics`/`tracing` — the container has no
//! network access, so it depends on `std` alone.

pub mod metrics;
pub mod span;

pub use metrics::{
    histogram_summaries, prometheus_text, registry, Counter, Gauge, Histogram, HistogramSummary,
    Registry, Timer,
};
pub use span::{
    disable_tracing, enable_tracing_to, enable_tracing_to_ring, span, take_spans, tracing_enabled,
    FieldValue, Span, SpanRecord,
};

use std::sync::atomic::{AtomicBool, Ordering};

/// Histogram recording (and timer clock reads) are gated on this flag so the
/// fully-disabled residue is atomic counters only.  Default **on**: the
/// quantile summaries in `DeploymentReport` should exist without opt-in.
static METRICS_ENABLED: AtomicBool = AtomicBool::new(true);

/// True when histograms record and timers read the clock.
#[inline]
pub fn metrics_enabled() -> bool {
    METRICS_ENABLED.load(Ordering::Relaxed)
}

/// Turn histogram recording on or off.  Counters and gauges are unaffected
/// (they are the cheap path).  Used by the effect-free property tests and
/// the `telemetry_overhead` bench to compare both sides of the gate.
pub fn set_metrics_enabled(on: bool) {
    METRICS_ENABLED.store(on, Ordering::Relaxed);
}

/// Serializes unit tests that read or toggle the global metrics flag (the
/// test harness runs tests on concurrent threads).
#[cfg(test)]
pub(crate) fn test_flag_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metrics_flag_round_trips() {
        let _guard = test_flag_lock();
        assert!(metrics_enabled(), "histograms record by default");
        set_metrics_enabled(false);
        assert!(!metrics_enabled());
        set_metrics_enabled(true);
        assert!(metrics_enabled());
    }
}
