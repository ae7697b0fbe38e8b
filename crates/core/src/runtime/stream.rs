//! The streaming scheduler: per-link outbox coalescing and credit-based
//! backpressure for the authenticated update stream.
//!
//! Every delta a node exports ships this way (DESIGN.md §12):
//!
//! * **Sender:** every exported delta is pushed into a per-link
//!   [`LinkOutbox`].  Consecutive deltas coalesce into one multi-delta
//!   [`UpdateEnvelope`] of up to [`StreamingConfig::batch_max`] deltas; an
//!   assert-then-retract pair for the same fact *annihilates* in the outbox
//!   before it ever hits the wire (the receiver would have inserted and then
//!   deleted it — net nothing).
//! * **Backpressure:** each outbox holds a credit window, initially
//!   [`StreamingConfig::queue_high_water`] deltas.  Shipping a delta consumes
//!   one credit; the receiver returns credit (a [`MessageKind::Credit`]
//!   message carrying the drained-delta count) after draining its per-link
//!   queue.  At zero credit the outbox *stalls* — deltas keep accumulating
//!   and re-coalescing, so hot links get **more** batching under load instead
//!   of unbounded receiver queues.
//!
//! The receiver-side drain and batch apply, and the sender-side flush that
//! feeds the outboxes, live in `runtime/node.rs` (`NodeCtx::drain_inbox`,
//! `NodeCtx::flush_updates`); this module owns the configuration and the
//! outbox data structure.
//!
//! [`UpdateEnvelope`]: crate::runtime::codec::UpdateEnvelope
//! [`MessageKind::Credit`]: secureblox_net::MessageKind::Credit

use crate::runtime::codec::{DeltaOp, UpdateDelta};
use secureblox_datalog::value::Tuple;
use secureblox_datalog::FnvMap;
use secureblox_net::VirtualTime;
use std::collections::VecDeque;

/// Default deltas per shipped envelope.
pub const DEFAULT_BATCH_MAX: usize = 64;

/// Default per-link credit window in deltas.
pub const DEFAULT_QUEUE_HIGH_WATER: usize = 256;

/// Streaming-scheduler knobs.  Nothing here reads the environment:
/// `DeploymentConfig::default()` is where `SECUREBLOX_BATCH_MAX` and
/// `SECUREBLOX_QUEUE_HIGH_WATER` enter (DESIGN.md §9.6).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamingConfig {
    /// Always true: the link outbox is the only delivery path, and
    /// `Deployment::build` / `Deployment::recover` refuse `false` with
    /// `DatalogError::Config`.  Kept only because
    /// `examples/benchmark/sut.rs` reads it; goes at the next benchmark
    /// re-base (ROADMAP item 3).
    pub enabled: bool,
    /// Maximum deltas per shipped envelope.
    pub batch_max: usize,
    /// Per-link credit window: the maximum number of shipped-but-undrained
    /// deltas before the sender's outbox stalls.  This is also the receiver
    /// queue's high-water mark — the receiver can never hold more queued
    /// deltas from one sender than the credit it has granted.
    pub queue_high_water: usize,
}

impl Default for StreamingConfig {
    fn default() -> Self {
        StreamingConfig::with_knobs(DEFAULT_BATCH_MAX, DEFAULT_QUEUE_HIGH_WATER)
    }
}

impl StreamingConfig {
    /// The scheduler with explicit knobs (each at least 1).
    pub fn with_knobs(batch_max: usize, queue_high_water: usize) -> Self {
        StreamingConfig {
            enabled: true,
            batch_max: batch_max.max(1),
            queue_high_water: queue_high_water.max(1),
        }
    }

    /// One delta per envelope: with `batch_max = 1` nothing coalesces, no
    /// residue can be held, and the receiver applies and flushes one delta
    /// at a time.  The baseline every equivalence test compares against.
    pub fn unbatched() -> Self {
        StreamingConfig::with_knobs(1, DEFAULT_QUEUE_HIGH_WATER)
    }
}

/// A queued delta slot.  `None` marks a tombstone left by annihilation; the
/// queue compacts lazily as batches are taken from the front.
type Slot = Option<UpdateDelta>;

/// The per-link sender-side state: an ordered delta queue with
/// assert-then-retract annihilation, a credit window, the envelope sequence
/// counter, and the link's FIFO floor.  Sender-owned, so reactor tasks never
/// share it.
#[derive(Debug)]
pub struct LinkOutbox {
    /// Queued deltas, front first.  `base` is the absolute index of the
    /// front slot, so [`LinkOutbox::pending_asserts`] positions stay valid as
    /// the front drains.
    deltas: VecDeque<Slot>,
    base: u64,
    /// Absolute slot index of the queued (unshipped) `Assert` per fact, for
    /// O(1) annihilation when the matching `Retract` arrives.
    pending_asserts: FnvMap<(String, Tuple), u64>,
    /// Queued deltas that are not tombstones.
    live: usize,
    /// Remaining send window in deltas.
    credit: usize,
    /// Credit ceiling — returned (or forged) credit never raises the window
    /// above the receiver's high-water mark.
    high_water: usize,
    /// Virtual time at which this outbox ran out of credit with deltas still
    /// queued, for the stall histogram.  Cleared when credit returns.
    stalled_since: Option<VirtualTime>,
    /// Sequence number of the last envelope shipped on this link.
    pub(crate) seq: u64,
    /// Delivery time of the last FIFO message sent on this link — update
    /// envelopes and onion cells alike.  The next one never arrives earlier.
    pub(crate) floor: VirtualTime,
}

impl LinkOutbox {
    /// An empty outbox with a full credit window of `high_water` deltas.
    pub fn new(high_water: usize) -> Self {
        LinkOutbox {
            deltas: VecDeque::new(),
            base: 0,
            pending_asserts: FnvMap::default(),
            live: 0,
            credit: high_water.max(1),
            high_water: high_water.max(1),
            stalled_since: None,
            seq: 0,
            floor: 0,
        }
    }

    /// Queue a delta.  A `Retract` that finds the matching `Assert` still
    /// queued annihilates the pair (neither ships); returns whether that
    /// happened.  Only the assert-then-retract direction annihilates — a
    /// retract followed by a re-assert must reach the receiver in order, or
    /// a previously shipped copy of the fact would survive.
    pub fn push(&mut self, delta: UpdateDelta) -> bool {
        let key = (delta.pred.clone(), delta.tuple.clone());
        match delta.op {
            DeltaOp::Retract => {
                if let Some(position) = self.pending_asserts.remove(&key) {
                    let slot = (position - self.base) as usize;
                    debug_assert!(matches!(
                        self.deltas.get(slot),
                        Some(Some(UpdateDelta {
                            op: DeltaOp::Assert,
                            ..
                        }))
                    ));
                    self.deltas[slot] = None;
                    self.live -= 1;
                    return true;
                }
            }
            DeltaOp::Assert => {
                self.pending_asserts
                    .insert(key, self.base + self.deltas.len() as u64);
            }
        }
        self.deltas.push_back(Some(delta));
        self.live += 1;
        false
    }

    /// Take up to `max` deltas from the front, in order, skipping tombstones.
    pub fn take_batch(&mut self, max: usize) -> Vec<UpdateDelta> {
        let mut batch = Vec::new();
        while batch.len() < max {
            let Some(slot) = self.deltas.pop_front() else {
                break;
            };
            let position = self.base;
            self.base += 1;
            if let Some(delta) = slot {
                if delta.op == DeltaOp::Assert {
                    let key = (delta.pred.clone(), delta.tuple.clone());
                    if self.pending_asserts.get(&key) == Some(&position) {
                        self.pending_asserts.remove(&key);
                    }
                }
                self.live -= 1;
                batch.push(delta);
            }
        }
        batch
    }

    /// Queued deltas that would actually ship (tombstones excluded).
    pub fn live(&self) -> usize {
        self.live
    }

    /// Remaining send window in deltas.
    pub fn credit(&self) -> usize {
        self.credit
    }

    /// Consume `n` credits for deltas being shipped.
    pub fn consume_credit(&mut self, n: usize) {
        self.credit = self.credit.saturating_sub(n);
    }

    /// Return credit granted by the receiver.  Capped at the high-water mark
    /// so a forged or replayed credit message can at most refill the window,
    /// never grow it.  Returns the stall duration ended by this grant, if the
    /// outbox was stalled.
    pub fn grant_credit(&mut self, granted: u64, now: VirtualTime) -> Option<VirtualTime> {
        self.credit = self
            .credit
            .saturating_add(granted.min(self.high_water as u64) as usize)
            .min(self.high_water);
        if self.credit > 0 {
            self.stalled_since
                .take()
                .map(|since| now.saturating_sub(since))
        } else {
            None
        }
    }

    /// Record that the outbox is out of credit with deltas still queued.
    pub fn mark_stalled(&mut self, now: VirtualTime) {
        if self.stalled_since.is_none() {
            self.stalled_since = Some(now);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use secureblox_datalog::value::Value;

    fn delta(op: DeltaOp, pred: &str, marker: &str) -> UpdateDelta {
        UpdateDelta {
            op,
            pred: pred.into(),
            tuple: vec![Value::str("a"), Value::str("b"), Value::str(marker)],
            signature: vec![1, 2, 3],
        }
    }

    #[test]
    fn outbox_preserves_order_and_batches() {
        let mut outbox = LinkOutbox::new(16);
        for marker in ["x", "y", "z"] {
            outbox.push(delta(DeltaOp::Assert, "p", marker));
        }
        assert_eq!(outbox.live(), 3);
        let first = outbox.take_batch(2);
        assert_eq!(first.len(), 2);
        assert_eq!(first[0].tuple[2], Value::str("x"));
        assert_eq!(first[1].tuple[2], Value::str("y"));
        let rest = outbox.take_batch(10);
        assert_eq!(rest.len(), 1);
        assert_eq!(rest[0].tuple[2], Value::str("z"));
        assert_eq!(outbox.live(), 0);
        assert!(outbox.take_batch(10).is_empty());
    }

    #[test]
    fn assert_then_retract_annihilates() {
        let mut outbox = LinkOutbox::new(16);
        outbox.push(delta(DeltaOp::Assert, "p", "x"));
        outbox.push(delta(DeltaOp::Assert, "p", "y"));
        assert!(outbox.push(delta(DeltaOp::Retract, "p", "x")));
        assert_eq!(outbox.live(), 1);
        let batch = outbox.take_batch(10);
        assert_eq!(batch.len(), 1);
        assert_eq!(batch[0].tuple[2], Value::str("y"));
    }

    #[test]
    fn retract_then_assert_does_not_annihilate() {
        let mut outbox = LinkOutbox::new(16);
        // The assert was already shipped; only the retract is queued.
        assert!(!outbox.push(delta(DeltaOp::Retract, "p", "x")));
        // A re-derivation re-asserts the same fact: both must ship, in order.
        assert!(!outbox.push(delta(DeltaOp::Assert, "p", "x")));
        let batch = outbox.take_batch(10);
        assert_eq!(batch.len(), 2);
        assert_eq!(batch[0].op, DeltaOp::Retract);
        assert_eq!(batch[1].op, DeltaOp::Assert);
    }

    #[test]
    fn annihilation_survives_partial_drain() {
        let mut outbox = LinkOutbox::new(16);
        outbox.push(delta(DeltaOp::Assert, "p", "x"));
        outbox.push(delta(DeltaOp::Assert, "p", "y"));
        // Ship "x"; its pending-assert entry must not dangle.
        let shipped = outbox.take_batch(1);
        assert_eq!(shipped[0].tuple[2], Value::str("x"));
        // Retracting the *shipped* "x" queues normally (no annihilation).
        assert!(!outbox.push(delta(DeltaOp::Retract, "p", "x")));
        // Retracting the still-queued "y" annihilates.
        assert!(outbox.push(delta(DeltaOp::Retract, "p", "y")));
        let rest = outbox.take_batch(10);
        assert_eq!(rest.len(), 1);
        assert_eq!(rest[0].op, DeltaOp::Retract);
        assert_eq!(rest[0].tuple[2], Value::str("x"));
    }

    #[test]
    fn credit_window_consume_grant_and_cap() {
        let mut outbox = LinkOutbox::new(4);
        assert_eq!(outbox.credit(), 4);
        outbox.consume_credit(4);
        assert_eq!(outbox.credit(), 0);
        outbox.push(delta(DeltaOp::Assert, "p", "x"));
        outbox.mark_stalled(1_000);
        outbox.mark_stalled(2_000); // second mark must not reset the clock
        let stall = outbox.grant_credit(2, 5_000);
        assert_eq!(stall, Some(4_000));
        assert_eq!(outbox.credit(), 2);
        // Forged over-grant refills to the cap, never beyond.
        let stall = outbox.grant_credit(u64::MAX, 6_000);
        assert_eq!(stall, None, "not stalled any more");
        assert_eq!(outbox.credit(), 4);
    }

    #[test]
    fn config_constructors_clamp() {
        let config = StreamingConfig::with_knobs(0, 0);
        assert!(config.enabled);
        assert_eq!(config.batch_max, 1);
        assert_eq!(config.queue_high_water, 1);
        let unbatched = StreamingConfig::unbatched();
        assert!(unbatched.enabled);
        assert_eq!(unbatched.batch_max, 1);
        assert_eq!(unbatched.queue_high_water, DEFAULT_QUEUE_HIGH_WATER);
    }
}
