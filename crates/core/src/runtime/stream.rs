//! The streaming scheduler: per-link outbox coalescing and credit-based
//! backpressure for the authenticated update stream.
//!
//! Every delta a node exports ships this way (DESIGN.md §12):
//!
//! * **Sender:** every exported delta is pushed into a per-link
//!   [`LinkOutbox`], in id space like the export cursor.  Consecutive deltas
//!   coalesce into one multi-delta [`UpdateEnvelope`] of up to
//!   [`StreamingConfig::batch_max`] deltas; an assert-then-retract pair for
//!   the same fact *annihilates* in the outbox before it ever hits the wire
//!   (the receiver would have inserted and then deleted it — net nothing).
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

use crate::runtime::codec::DeltaOp;
use crate::runtime::export::ExportKey;
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

/// One queued delta in id space: what ships, not yet as bytes.  Values are
/// rehydrated from the node's dictionary only when the envelope is encoded
/// (`NodeCtx::ship_envelope`).
#[derive(Debug, PartialEq, Eq)]
pub(crate) struct QueuedDelta {
    pub(crate) op: DeltaOp,
    /// The fact: exported predicate and id row, as the cursor keys it.
    pub(crate) key: ExportKey,
    /// Dictionary id of the detached signature, or `NO_SIGNATURE`.
    pub(crate) signature: u32,
}

/// A queued delta slot.  `None` marks a tombstone left by annihilation; the
/// queue compacts lazily as batches are taken from the front.
type Slot = Option<QueuedDelta>;

/// The per-link sender-side state: an ordered delta queue with
/// assert-then-retract annihilation, a credit window, the envelope sequence
/// counter, and the link's FIFO floor.  Sender-owned, so reactor tasks never
/// share it.
#[derive(Debug)]
pub struct LinkOutbox {
    /// Queued deltas, front first.  `base` is the absolute position of the
    /// front slot: [`LinkOutbox::push`] hands out absolute positions, which
    /// stay valid as the front drains, and one below `base` has shipped.
    deltas: VecDeque<Slot>,
    base: u64,
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
            live: 0,
            credit: high_water.max(1),
            high_water: high_water.max(1),
            stalled_since: None,
            seq: 0,
            floor: 0,
        }
    }

    /// Queue a delta at the back; returns its absolute position.
    pub(crate) fn push(&mut self, delta: QueuedDelta) -> u64 {
        self.deltas.push_back(Some(delta));
        self.live += 1;
        self.base + self.deltas.len() as u64 - 1
    }

    /// Annihilate the `Assert` queued at absolute `position` with the
    /// `Retract` that withdraws it: neither ships.  Returns whether the
    /// assert was still queued — a position below the front has shipped,
    /// and then the retract must be queued to follow it.  Only the
    /// assert-then-retract direction annihilates: a retract followed by a
    /// re-assert must reach the receiver in order, or a previously shipped
    /// copy of the fact would survive.  The export cursor holds the
    /// position (`Shipped::queued`) and forgets it when the fact is
    /// withdrawn, so a position names the assert it was handed out for.
    pub(crate) fn annihilate(&mut self, position: u64) -> bool {
        let Some(slot) = position
            .checked_sub(self.base)
            .and_then(|slot| self.deltas.get_mut(slot as usize))
        else {
            return false;
        };
        debug_assert!(matches!(
            slot,
            Some(QueuedDelta {
                op: DeltaOp::Assert,
                ..
            })
        ));
        *slot = None;
        self.live -= 1;
        true
    }

    /// Take up to `max` deltas from the front, in order, skipping tombstones.
    pub(crate) fn take_batch(&mut self, max: usize) -> Vec<QueuedDelta> {
        let mut batch = Vec::new();
        while batch.len() < max {
            let Some(slot) = self.deltas.pop_front() else {
                break;
            };
            self.base += 1;
            if let Some(delta) = slot {
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
    use crate::runtime::export::NOT_QUEUED;

    /// A delta of fact `marker` (predicate 0, id row `[1, 2, marker]`).
    fn delta(op: DeltaOp, marker: u32) -> QueuedDelta {
        QueuedDelta {
            op,
            key: vec![0, 1, 2, marker].into(),
            signature: 7,
        }
    }

    fn markers(batch: &[QueuedDelta]) -> Vec<(DeltaOp, u32)> {
        batch.iter().map(|d| (d.op, d.key[3])).collect()
    }

    #[test]
    fn outbox_preserves_order_and_batches() {
        let mut outbox = LinkOutbox::new(16);
        for marker in 0..3 {
            assert_eq!(outbox.push(delta(DeltaOp::Assert, marker)), marker as u64);
        }
        assert_eq!(outbox.live(), 3);
        let first = outbox.take_batch(2);
        assert_eq!(
            markers(&first),
            [(DeltaOp::Assert, 0), (DeltaOp::Assert, 1)]
        );
        let rest = outbox.take_batch(10);
        assert_eq!(markers(&rest), [(DeltaOp::Assert, 2)]);
        assert_eq!(outbox.live(), 0);
        assert!(outbox.take_batch(10).is_empty());
        // Positions keep counting across the drained front.
        assert_eq!(outbox.push(delta(DeltaOp::Assert, 3)), 3);
    }

    #[test]
    fn assert_then_retract_annihilates() {
        let mut outbox = LinkOutbox::new(16);
        let x = outbox.push(delta(DeltaOp::Assert, 0));
        outbox.push(delta(DeltaOp::Assert, 1));
        assert!(outbox.annihilate(x));
        assert_eq!(outbox.live(), 1);
        assert_eq!(markers(&outbox.take_batch(10)), [(DeltaOp::Assert, 1)]);
    }

    #[test]
    fn retract_then_assert_does_not_annihilate() {
        let mut outbox = LinkOutbox::new(16);
        // The assert was already shipped or never queued: the retract
        // queues, and a re-derivation's re-assert follows it, in order.
        assert!(!outbox.annihilate(NOT_QUEUED));
        outbox.push(delta(DeltaOp::Retract, 0));
        outbox.push(delta(DeltaOp::Assert, 0));
        assert_eq!(
            markers(&outbox.take_batch(10)),
            [(DeltaOp::Retract, 0), (DeltaOp::Assert, 0)]
        );
    }

    #[test]
    fn annihilation_survives_partial_drain() {
        let mut outbox = LinkOutbox::new(16);
        let x = outbox.push(delta(DeltaOp::Assert, 0));
        let y = outbox.push(delta(DeltaOp::Assert, 1));
        // Ship "x": its position falls below the front.
        assert_eq!(markers(&outbox.take_batch(1)), [(DeltaOp::Assert, 0)]);
        // Withdrawing the *shipped* "x" annihilates nothing; its retract
        // queues.
        assert!(!outbox.annihilate(x));
        outbox.push(delta(DeltaOp::Retract, 0));
        // Withdrawing the still-queued "y" annihilates.
        assert!(outbox.annihilate(y));
        assert_eq!(markers(&outbox.take_batch(10)), [(DeltaOp::Retract, 0)]);
    }

    #[test]
    fn credit_window_consume_grant_and_cap() {
        let mut outbox = LinkOutbox::new(4);
        assert_eq!(outbox.credit(), 4);
        outbox.consume_credit(4);
        assert_eq!(outbox.credit(), 0);
        outbox.push(delta(DeltaOp::Assert, 0));
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
