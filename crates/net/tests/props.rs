//! Property-based tests for the simulated network substrate.
//!
//! The figure harness derives every communication-overhead and latency number
//! from this layer, so its accounting has to be exact: delivery order follows
//! virtual time, every sent byte is attributed to exactly one sender and one
//! receiver, and the convergence CDF is a proper distribution function.

use proptest::prelude::*;
use secureblox_net::{LatencyModel, Message, MessageKind, NetworkStats, NodeId, SimNetwork};
use std::collections::BTreeMap;
use std::time::Duration;

const KINDS: [MessageKind; 4] = [
    MessageKind::Update,
    MessageKind::AnonForward,
    MessageKind::AnonBackward,
    MessageKind::Bootstrap,
];

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

    /// The per-node traffic statistics partition the total: the sum over all
    /// nodes of bytes_sent equals the total wire bytes, the same holds for
    /// bytes_received, and per-kind byte counts sum to the total.
    #[test]
    fn stats_partition_total_traffic(sends in arb_sends(6, 48)) {
        let mut network = SimNetwork::new(6, LatencyModel::default());
        let mut by_sender: BTreeMap<u32, usize> = BTreeMap::new();
        let mut total_wire = 0usize;
        for &(from, to, len, kind, at) in &sends {
            let msg = Message::new(NodeId(from), NodeId(to), KINDS[kind], vec![0u8; len]);
            total_wire += msg.wire_size();
            *by_sender.entry(from).or_default() += msg.wire_size();
            network.send(msg, at);
        }
        let stats = network.stats();
        let sent_sum: usize = stats.nodes().iter().map(|n| n.bytes_sent).sum();
        let recv_sum: usize = stats.nodes().iter().map(|n| n.bytes_received).sum();
        prop_assert_eq!(sent_sum, total_wire);
        prop_assert_eq!(recv_sum, total_wire);
        prop_assert_eq!(stats.total_bytes(), total_wire);
        for (node, bytes) in by_sender {
            prop_assert_eq!(stats.node(NodeId(node)).bytes_sent, bytes);
        }
        let kind_sum: usize = KINDS.iter().map(|&k| stats.bytes_for_kind(k)).sum();
        prop_assert_eq!(kind_sum, total_wire);
    }

    /// Untracked (bootstrap) scheduling never shows up in the overhead
    /// statistics but is still delivered.
    #[test]
    fn untracked_messages_are_invisible_to_stats(count in 0usize..32, len in 0usize..512) {
        let mut network = SimNetwork::new(4, LatencyModel::default());
        for i in 0..count {
            network.schedule_untracked(
                Message::new(NodeId(0), NodeId(1), MessageKind::Bootstrap, vec![0u8; len]),
                i as u64,
            );
        }
        prop_assert_eq!(network.stats().total_bytes(), 0);
        let mut delivered = 0;
        while network.next_delivery().is_some() {
            delivered += 1;
        }
        prop_assert_eq!(delivered, count);
    }

    /// The average-per-node-KB figure reported for Figures 6 and 12 is the
    /// arithmetic mean of the per-node sent traffic.
    #[test]
    fn average_per_node_kb_is_the_mean(sends in arb_sends(5, 40)) {
        let mut stats = NetworkStats::new(5);
        for &(from, to, len, kind, _) in &sends {
            stats.record_send(NodeId(from), NodeId(to), len, KINDS[kind]);
        }
        let mean_kb = stats.nodes().iter().map(|n| n.kilobytes_sent()).sum::<f64>() / 5.0;
        prop_assert!((stats.average_per_node_kb() - mean_kb).abs() < 1e-9);
    }
}

// ---------------------------------------------------------------------------
// Timing statistics / convergence CDF
// ---------------------------------------------------------------------------

use secureblox_net::TimingStats;

proptest! {
    /// The convergence CDF is monotone non-decreasing in both coordinates and
    /// ends at fraction 1.0 once every node has converged.
    #[test]
    fn convergence_cdf_is_monotone(times in proptest::collection::vec(0u64..1_000_000, 1..24),
                                   samples in 2usize..50) {
        let nodes = times.len();
        let mut timing = TimingStats::new(nodes);
        for (i, &t) in times.iter().enumerate() {
            timing.record_transaction(NodeId(i as u32), Duration::from_micros(10), t);
        }
        let cdf = timing.convergence_cdf(samples);
        prop_assert!(!cdf.is_empty());
        let mut last_t = 0u64;
        let mut last_f = 0.0f64;
        for &(t, f) in &cdf {
            prop_assert!(t >= last_t);
            prop_assert!(f >= last_f - 1e-12);
            prop_assert!((0.0..=1.0 + 1e-12).contains(&f));
            last_t = t;
            last_f = f;
        }
        let (_, final_fraction) = *cdf.last().unwrap();
        prop_assert!((final_fraction - 1.0).abs() < 1e-9);
    }

    /// The average transaction duration equals the arithmetic mean of the
    /// recorded durations, and the fixpoint time is the maximum completion.
    #[test]
    fn timing_aggregates_match_reference(durations in proptest::collection::vec((0u32..8, 1u64..100_000), 1..64)) {
        let mut timing = TimingStats::new(8);
        let mut total = Duration::ZERO;
        let mut max_finish = 0u64;
        for (i, &(node, micros)) in durations.iter().enumerate() {
            let d = Duration::from_micros(micros);
            let finish = (i as u64 + 1) * 1_000 + micros;
            timing.record_transaction(NodeId(node), d, finish);
            total += d;
            max_finish = max_finish.max(finish);
        }
        let mean = total / durations.len() as u32;
        let got = timing.average_transaction_duration();
        let diff = got.abs_diff(mean);
        prop_assert!(diff <= Duration::from_nanos(1000));
        prop_assert_eq!(timing.total_transactions(), durations.len());
        prop_assert_eq!(timing.fixpoint_time(), max_finish);
    }
}
