//! Property-based tests for the simulated network substrate.
//!
//! The figure harness derives every communication-overhead and latency number
//! from this layer, so its accounting has to be exact: delivery order follows
//! virtual time, every sent byte is attributed to exactly one sender and one
//! receiver, and the folds over the per-node ledgers are the sums and means
//! they claim to be.

use proptest::prelude::*;
use secureblox_net::message::HEADER_OVERHEAD_BYTES;
use secureblox_net::stats::{average_per_node_kb, average_transaction_duration, fixpoint_time};
use secureblox_net::{LatencyModel, Message, MessageKind, NodeId, NodeLedger, SimNetwork};
use std::collections::BTreeMap;
use std::time::Duration;

const KINDS: [MessageKind; 4] = [
    MessageKind::Update,
    MessageKind::AnonForward,
    MessageKind::AnonBackward,
    MessageKind::Credit,
];

/// What the sends leave in the nodes' ledgers when each endpoint records its
/// own half, as the runtime's `NodeCtx` does (send side at the send, receive
/// side at the delivery).
fn ledgers_after(nodes: usize, sends: &[(u32, u32, usize, usize, u64)]) -> Vec<NodeLedger> {
    let mut ledgers = vec![NodeLedger::default(); nodes];
    for &(from, to, len, kind, _) in sends {
        let msg = Message::new(NodeId(from), NodeId(to), KINDS[kind], vec![0u8; len]);
        ledgers[from as usize].record_send(msg.to, msg.wire_size(), msg.kind);
        ledgers[to as usize].record_receive(msg.wire_size());
    }
    ledgers
}

fn arb_sends(
    nodes: u32,
    count: usize,
) -> impl Strategy<Value = Vec<(u32, u32, usize, usize, u64)>> {
    // (from, to, payload_len, kind_index, send_time)
    proptest::collection::vec(
        (
            0..nodes,
            0..nodes,
            0usize..4096,
            0usize..KINDS.len(),
            0u64..1_000_000,
        ),
        0..count,
    )
}

proptest! {
    /// Delay is monotone in wire size and never below the propagation floor.
    #[test]
    fn latency_is_monotone_in_size(prop_us in 0u64..10_000, bw in 1u64..2_000_000_000,
                                   a in 0usize..1_000_000, b in 0usize..1_000_000) {
        let model = LatencyModel {
            propagation: Duration::from_micros(prop_us),
            bandwidth_bytes_per_sec: bw,
        };
        let (small, large) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(model.delay(small) <= model.delay(large));
        prop_assert!(model.delay(small) >= Duration::from_micros(prop_us));
    }

    /// Every message sent is delivered exactly once, deliveries come out in
    /// non-decreasing virtual-time order, and no delivery happens before its
    /// send time plus the propagation floor.
    #[test]
    fn every_send_is_delivered_once_in_time_order(sends in arb_sends(8, 64)) {
        let mut network = SimNetwork::new(8, LatencyModel::default());
        let mut expected_payload_bytes: usize = 0;
        for &(from, to, len, kind, at) in &sends {
            let msg = Message::new(NodeId(from), NodeId(to), KINDS[kind], vec![0xAB; len]);
            let deliver_at = network.send(msg, at);
            prop_assert!(deliver_at >= at + LatencyModel::default().propagation.as_nanos() as u64);
            expected_payload_bytes += len;
        }
        prop_assert_eq!(network.in_flight(), sends.len());

        let mut last_time = 0u64;
        let mut delivered = 0usize;
        let mut delivered_payload = 0usize;
        while let Some((t, msg)) = network.next_delivery() {
            prop_assert!(t >= last_time);
            last_time = t;
            delivered += 1;
            delivered_payload += msg.payload.len();
        }
        prop_assert_eq!(delivered, sends.len());
        prop_assert_eq!(delivered_payload, expected_payload_bytes);
        prop_assert!(network.is_idle());
    }

    /// The per-node ledgers partition the total traffic: the sum over all
    /// nodes of bytes_sent equals the total wire bytes, the same holds for
    /// bytes_received, and each node's per-destination and per-kind rows each
    /// sum to what it sent.
    #[test]
    fn stats_partition_total_traffic(sends in arb_sends(6, 48)) {
        let mut by_sender: BTreeMap<u32, (usize, usize)> = BTreeMap::new();
        let mut total_wire = 0usize;
        for &(from, _, len, _, _) in &sends {
            let wire = len + HEADER_OVERHEAD_BYTES;
            total_wire += wire;
            let sent = by_sender.entry(from).or_default();
            sent.0 += wire;
            sent.1 += 1;
        }
        let ledgers = ledgers_after(6, &sends);
        let sent_sum: usize = ledgers.iter().map(|l| l.traffic().bytes_sent).sum();
        let recv_sum: usize = ledgers.iter().map(|l| l.traffic().bytes_received).sum();
        prop_assert_eq!(sent_sum, total_wire);
        prop_assert_eq!(recv_sum, total_wire);
        let received: usize = ledgers.iter().map(|l| l.traffic().messages_received).sum();
        prop_assert_eq!(received, sends.len());
        for (node, ledger) in ledgers.iter().enumerate() {
            let (bytes, messages) = by_sender.get(&(node as u32)).copied().unwrap_or_default();
            prop_assert_eq!(ledger.traffic().bytes_sent, bytes);
            prop_assert_eq!(ledger.traffic().messages_sent, messages);
            let by_link = ledger.sent_to().values();
            prop_assert_eq!(by_link.clone().map(|t| t.bytes).sum::<usize>(), bytes);
            prop_assert_eq!(by_link.map(|t| t.messages).sum::<usize>(), messages);
            let by_kind = ledger.sent_by_kind().values();
            prop_assert_eq!(by_kind.clone().map(|t| t.bytes).sum::<usize>(), bytes);
            prop_assert_eq!(by_kind.map(|t| t.messages).sum::<usize>(), messages);
        }
    }

    /// The average-per-node-KB figure reported for Figures 6 and 12 is the
    /// arithmetic mean of the per-node sent traffic.
    #[test]
    fn average_per_node_kb_is_the_mean(sends in arb_sends(5, 40)) {
        let ledgers = ledgers_after(5, &sends);
        let mean_kb = ledgers.iter().map(|l| l.traffic().kilobytes_sent()).sum::<f64>() / 5.0;
        let ledgers: Vec<&NodeLedger> = ledgers.iter().collect();
        prop_assert!((average_per_node_kb(&ledgers) - mean_kb).abs() < 1e-9);
    }
}

// ---------------------------------------------------------------------------
// Timing figures
// ---------------------------------------------------------------------------

proptest! {
    /// The average transaction duration equals the arithmetic mean of the
    /// recorded durations, and the fixpoint time is the maximum completion.
    #[test]
    fn timing_aggregates_match_reference(durations in proptest::collection::vec((0usize..8, 1u64..100_000), 1..64)) {
        let mut ledgers = vec![NodeLedger::default(); 8];
        let mut total = Duration::ZERO;
        let mut max_finish = 0u64;
        for (i, &(node, micros)) in durations.iter().enumerate() {
            let d = Duration::from_micros(micros);
            let finish = (i as u64 + 1) * 1_000 + micros;
            ledgers[node].record_transaction(d, finish);
            total += d;
            max_finish = max_finish.max(finish);
        }
        let mean = total / durations.len() as u32;
        let recorded: usize = ledgers.iter().map(|l| l.transaction_durations().len()).sum();
        let ledgers: Vec<&NodeLedger> = ledgers.iter().collect();
        let diff = average_transaction_duration(&ledgers).abs_diff(mean);
        prop_assert!(diff <= Duration::from_nanos(1000));
        prop_assert_eq!(recorded, durations.len());
        prop_assert_eq!(fixpoint_time(&ledgers), max_finish);
    }
}
