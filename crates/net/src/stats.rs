//! One node's own measurements, and the deployment-wide figures folded over
//! them.
//!
//! These are the raw measurements behind the paper's evaluation metrics
//! (§8.1): per-node communication overhead in KB, average transaction
//! duration, fixpoint latency, and the cumulative fraction of converged
//! nodes over time.  Every one of them is a *per-node* measurement, so each
//! node owns a [`NodeLedger`] and records into it only what it did itself;
//! a deployment-wide number is a fold over the nodes' ledgers (the functions
//! at the end of this module), never a table some node task is handed a
//! share of.

use crate::message::MessageKind;
use crate::node::NodeId;
use crate::sim::VirtualTime;
use std::collections::HashMap;
use std::time::Duration;

/// Traffic counters for one node.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NodeTraffic {
    pub bytes_sent: usize,
    pub bytes_received: usize,
    pub messages_sent: usize,
    pub messages_received: usize,
}

impl NodeTraffic {
    /// Total traffic attributable to this node, in bytes.
    ///
    /// **Sent bytes only — received bytes are intentionally excluded.**  The
    /// paper reports per-node overhead as the bandwidth a node *originates*;
    /// every received byte is some other node's sent byte, so summing both
    /// directions would double-count each message at the deployment level.
    /// Callers that want the receive direction read
    /// [`NodeTraffic::bytes_received`]; sent minus received over a deployment
    /// is what was still in flight (or dropped) when the run stopped.
    pub fn total_bytes(&self) -> usize {
        self.bytes_sent
    }

    /// Sent bytes expressed in kilobytes (the unit of Figures 6 and 12).
    pub fn kilobytes_sent(&self) -> f64 {
        self.bytes_sent as f64 / 1024.0
    }
}

/// Traffic counters for one directed link, or for one message kind.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkTraffic {
    pub messages: usize,
    pub bytes: usize,
}

impl LinkTraffic {
    fn add(&mut self, wire_size: usize) {
        self.messages += 1;
        self.bytes += wire_size;
    }
}

/// Everything one node measures about itself: what it committed and when,
/// what it refused, what it sent (in total, per destination, per message
/// kind) and what it received.  The node's task is the only writer, under
/// either executor, so nothing here is shared, sharded or merged.
#[derive(Debug, Clone, Default)]
pub struct NodeLedger {
    /// Wall-clock duration of every committed transaction, in commit order.
    transaction_durations: Vec<Duration>,
    /// Virtual times at which those transactions completed (the hash-join
    /// completion CDFs read the initiator's).
    completion_times: Vec<VirtualTime>,
    /// Virtual time at which this node last finished processing a batch,
    /// whatever the verdict.
    last_activity: VirtualTime,
    rejected_batches: usize,
    conflicting_batches: usize,
    retractions_applied: usize,
    traffic: NodeTraffic,
    /// Sent traffic per destination; the rows sum to the sent totals.
    sent_to: HashMap<NodeId, LinkTraffic>,
    /// Sent traffic per message kind; the rows sum to the sent totals.
    sent_by_kind: HashMap<MessageKind, LinkTraffic>,
    /// Bytes of exchange-relation deltas (`shard_xchg_*` / `shard_bcast_*`)
    /// shipped on the update stream — the wire cost of the shard plane,
    /// separated from ordinary `says` traffic.
    exchange_bytes: usize,
}

impl NodeLedger {
    /// Record one message this node sent.
    pub fn record_send(&mut self, to: NodeId, wire_size: usize, kind: MessageKind) {
        self.traffic.bytes_sent += wire_size;
        self.traffic.messages_sent += 1;
        self.sent_to.entry(to).or_default().add(wire_size);
        self.sent_by_kind.entry(kind).or_default().add(wire_size);
    }

    /// Record one message delivered to this node, whoever it claims to be
    /// from.
    pub fn record_receive(&mut self, wire_size: usize) {
        self.traffic.bytes_received += wire_size;
        self.traffic.messages_received += 1;
    }

    /// Record `bytes` of exchange-relation deltas shipped by this node.
    pub fn record_exchange(&mut self, bytes: usize) {
        self.exchange_bytes += bytes;
    }

    /// Record a committed transaction finishing at virtual time
    /// `finished_at` after running for `duration` of real compute time.
    pub fn record_transaction(&mut self, duration: Duration, finished_at: VirtualTime) {
        self.transaction_durations.push(duration);
        self.completion_times.push(finished_at);
        self.last_activity = self.last_activity.max(finished_at);
    }

    /// Record a batch rejected by a constraint violation (a security policy
    /// refusing the batch: unknown principal, bad signature, missing write
    /// access, forbidden delegation, undecryptable payload).
    pub fn record_rejection(&mut self, finished_at: VirtualTime) {
        self.rejected_batches += 1;
        self.last_activity = self.last_activity.max(finished_at);
    }

    /// Record a batch rolled back by a functional-dependency conflict — a
    /// data-level duplicate (e.g. the same path entity advertised along two
    /// different branches), not a security decision.
    pub fn record_conflict(&mut self, finished_at: VirtualTime) {
        self.conflicting_batches += 1;
        self.last_activity = self.last_activity.max(finished_at);
    }

    /// Record a retraction delta applied: the signature verified, the facts
    /// were deleted, and derived state was maintained.
    pub fn record_retraction(&mut self, finished_at: VirtualTime) {
        self.retractions_applied += 1;
        self.last_activity = self.last_activity.max(finished_at);
    }

    /// Durations of this node's committed transactions (Figure 7 samples).
    pub fn transaction_durations(&self) -> &[Duration] {
        &self.transaction_durations
    }

    /// Completion times of this node's committed transactions (Figures 10
    /// and 11 use the join initiator's).
    pub fn completion_times(&self) -> &[VirtualTime] {
        &self.completion_times
    }

    /// The virtual time this node last processed a batch (Figures 8 and 9).
    pub fn last_activity(&self) -> VirtualTime {
        self.last_activity
    }

    /// Batches a constraint refused at this node.
    pub fn rejected_batches(&self) -> usize {
        self.rejected_batches
    }

    /// Batches a functional dependency rolled back at this node.
    pub fn conflicting_batches(&self) -> usize {
        self.conflicting_batches
    }

    /// Retraction deltas applied at this node.
    pub fn retractions_applied(&self) -> usize {
        self.retractions_applied
    }

    /// Bytes and messages this node sent and received.
    pub fn traffic(&self) -> &NodeTraffic {
        &self.traffic
    }

    /// What this node sent, per destination.
    pub fn sent_to(&self) -> &HashMap<NodeId, LinkTraffic> {
        &self.sent_to
    }

    /// What this node sent, per message kind.  Backs the data-plane /
    /// control-plane split of the message-budget guard's regression test:
    /// credit grants are control traffic and must not spend the budget.
    pub fn sent_by_kind(&self) -> &HashMap<MessageKind, LinkTraffic> {
        &self.sent_by_kind
    }

    /// Bytes of exchange-relation deltas this node shipped.
    pub fn exchange_bytes(&self) -> usize {
        self.exchange_bytes
    }
}

// ---------------------------------------------------------------------
// Deployment-wide figures: folds over the nodes' ledgers, in node order.
// ---------------------------------------------------------------------

/// Average per-node overhead in kilobytes — the metric of Figures 6 & 12.
pub fn average_per_node_kb(ledgers: &[&NodeLedger]) -> f64 {
    if ledgers.is_empty() {
        return 0.0;
    }
    ledgers
        .iter()
        .map(|ledger| ledger.traffic.kilobytes_sent())
        .sum::<f64>()
        / ledgers.len() as f64
}

/// The `k` links that carried the most messages, busiest first (ties
/// broken by bytes, then by link id for determinism); `ledgers[i]` is node
/// `i`'s.  Used to name the hot spots when a run exceeds its message budget
/// without converging.
pub fn busiest_links(ledgers: &[&NodeLedger], k: usize) -> Vec<(NodeId, NodeId, LinkTraffic)> {
    let mut links: Vec<(NodeId, NodeId, LinkTraffic)> = ledgers
        .iter()
        .enumerate()
        .flat_map(|(from, ledger)| {
            let from = NodeId(from as u32);
            ledger
                .sent_to
                .iter()
                .map(move |(&to, &sent)| (from, to, sent))
        })
        .collect();
    links.sort_by(|a, b| {
        (b.2.messages, b.2.bytes)
            .cmp(&(a.2.messages, a.2.bytes))
            .then_with(|| (a.0, a.1).cmp(&(b.0, b.1)))
    });
    links.truncate(k);
    links
}

/// Average transaction duration across all nodes (Figure 7).
pub fn average_transaction_duration(ledgers: &[&NodeLedger]) -> Duration {
    let count: usize = ledgers.iter().map(|l| l.transaction_durations.len()).sum();
    if count == 0 {
        return Duration::ZERO;
    }
    let total: Duration = ledgers.iter().flat_map(|l| &l.transaction_durations).sum();
    total / count as u32
}

/// The `q`-th percentile (0.0..=1.0) of committed-transaction durations
/// across all nodes, by the nearest-rank method.  `Duration::ZERO` when
/// nothing committed.  Backs the p50/p99 apply-latency figures of the
/// streaming-throughput benchmark.
pub fn transaction_duration_percentile(ledgers: &[&NodeLedger], q: f64) -> Duration {
    let mut all: Vec<Duration> = ledgers
        .iter()
        .flat_map(|l| &l.transaction_durations)
        .copied()
        .collect();
    if all.is_empty() {
        return Duration::ZERO;
    }
    all.sort_unstable();
    let rank = ((q.clamp(0.0, 1.0) * all.len() as f64).ceil() as usize).max(1) - 1;
    all[rank.min(all.len() - 1)]
}

/// The virtual time at which the distributed fixpoint was reached (Figures
/// 4 and 5): the last activity of any node, rejections and retractions
/// included.
pub fn fixpoint_time(ledgers: &[&NodeLedger]) -> VirtualTime {
    ledgers
        .iter()
        .map(|ledger| ledger.last_activity)
        .max()
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn refs(ledgers: &[NodeLedger]) -> Vec<&NodeLedger> {
        ledgers.iter().collect()
    }

    /// Node 0 sends 1024 B to node 1, node 1 sends 2048 B back; each side
    /// records its own half, as `NodeCtx` does.
    fn exchange(first: usize, second: usize) -> Vec<NodeLedger> {
        let mut ledgers = vec![NodeLedger::default(); 2];
        ledgers[0].record_send(NodeId(1), first, MessageKind::Update);
        ledgers[1].record_receive(first);
        ledgers[1].record_send(NodeId(0), second, MessageKind::Update);
        ledgers[0].record_receive(second);
        ledgers
    }

    #[test]
    fn traffic_accounting() {
        let ledgers = exchange(1024, 2048);
        assert_eq!(ledgers[0].traffic().bytes_sent, 1024);
        assert_eq!(ledgers[0].traffic().bytes_received, 2048);
        assert_eq!(ledgers[0].traffic().messages_sent, 1);
        assert!((average_per_node_kb(&refs(&ledgers)) - 1.5).abs() < 1e-9);
        assert_eq!(ledgers[1].sent_by_kind()[&MessageKind::Update].bytes, 2048);
        assert!(!ledgers[1]
            .sent_by_kind()
            .contains_key(&MessageKind::AnonForward));
    }

    #[test]
    fn per_link_counters_and_busiest_links() {
        let mut ledgers = vec![NodeLedger::default(); 3];
        ledgers[0].record_send(NodeId(1), 100, MessageKind::Update);
        ledgers[0].record_send(NodeId(1), 200, MessageKind::Update);
        ledgers[1].record_send(NodeId(2), 50, MessageKind::Update);
        assert_eq!(
            ledgers[0].sent_to()[&NodeId(1)],
            LinkTraffic {
                messages: 2,
                bytes: 300
            }
        );
        // Directed: the reverse link is untouched.
        assert!(!ledgers[1].sent_to().contains_key(&NodeId(0)));
        let busiest = busiest_links(&refs(&ledgers), 1);
        assert_eq!(busiest.len(), 1);
        assert_eq!((busiest[0].0, busiest[0].1), (NodeId(0), NodeId(1)));
        assert_eq!(busiest[0].2.messages, 2);
        // Asking for more links than exist returns them all, busiest first.
        let all = busiest_links(&refs(&ledgers), 10);
        assert_eq!(all.len(), 2);
        assert!(all[0].2.messages >= all[1].2.messages);
    }

    #[test]
    fn transaction_duration_percentiles() {
        let mut ledgers = vec![NodeLedger::default(); 2];
        for ms in 1..=100u64 {
            ledgers[(ms % 2) as usize].record_transaction(Duration::from_millis(ms), ms);
        }
        let ledgers = refs(&ledgers);
        let percentile = |q| transaction_duration_percentile(&ledgers, q);
        assert_eq!(percentile(0.5), Duration::from_millis(50));
        assert_eq!(percentile(0.99), Duration::from_millis(99));
        assert_eq!(percentile(1.0), Duration::from_millis(100));
        assert_eq!(
            transaction_duration_percentile(&[&NodeLedger::default()], 0.5),
            Duration::ZERO
        );
    }

    #[test]
    fn total_bytes_counts_sent_only_by_design() {
        // The documented asymmetry: `total_bytes` is the *originated*
        // bandwidth.  Received bytes are some other node's sends — counting
        // them here would double-count every message when the per-node
        // values are summed (the deployment-level figure of the paper's §8).
        let ledgers = exchange(1000, 500);
        let node0 = ledgers[0].traffic();
        assert_eq!(node0.bytes_sent, 1000);
        assert_eq!(node0.bytes_received, 500);
        assert_eq!(node0.total_bytes(), node0.bytes_sent);
        assert_ne!(node0.total_bytes(), node0.bytes_sent + node0.bytes_received);
        // Summing per-node totals equals each message counted exactly once.
        let summed: usize = ledgers.iter().map(|l| l.traffic().total_bytes()).sum();
        assert_eq!(summed, 1500);
    }

    #[test]
    fn timing_summaries() {
        let mut ledgers = vec![NodeLedger::default(); 3];
        ledgers[0].record_transaction(Duration::from_millis(10), 1_000);
        ledgers[1].record_transaction(Duration::from_millis(30), 5_000);
        ledgers[1].record_transaction(Duration::from_millis(20), 9_000);
        ledgers[2].record_rejection(2_000);
        ledgers[0].record_conflict(500);
        ledgers[1].record_retraction(9_500);
        assert_eq!(ledgers[1].completion_times(), &[5_000, 9_000]);
        assert_eq!(ledgers[2].rejected_batches(), 1);
        assert_eq!(ledgers[0].conflicting_batches(), 1);
        assert_eq!(ledgers[1].retractions_applied(), 1);
        assert_eq!(
            average_transaction_duration(&refs(&ledgers)),
            Duration::from_millis(20)
        );
        // A retraction is activity: it moves the fixpoint, not the average.
        assert_eq!(fixpoint_time(&refs(&ledgers)), 9_500);
        let activity: Vec<VirtualTime> = ledgers.iter().map(NodeLedger::last_activity).collect();
        assert_eq!(activity, [1_000, 9_500, 2_000]);
    }

    #[test]
    fn empty_stats_are_safe() {
        assert_eq!(average_transaction_duration(&[]), Duration::ZERO);
        assert_eq!(fixpoint_time(&[]), 0);
        assert_eq!(average_per_node_kb(&[]), 0.0);
        assert!(busiest_links(&[], 3).is_empty());
    }
}
