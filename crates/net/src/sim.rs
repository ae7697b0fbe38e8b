//! Discrete-event message delivery with a virtual clock.

use crate::message::{Message, MessageKind};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::sync::Mutex;
use std::time::Duration;

/// Virtual time in nanoseconds since the start of the experiment.
pub type VirtualTime = u64;

/// Converts message sizes into delivery delays.
///
/// Delay = `propagation` + `wire_size / bandwidth`.  The defaults approximate
/// the paper's Gigabit-Ethernet cluster: ~100 µs propagation (switch + kernel
/// + UDP stack) and 1 Gbit/s of per-link bandwidth.
#[derive(Debug, Clone)]
pub struct LatencyModel {
    pub propagation: Duration,
    pub bandwidth_bytes_per_sec: u64,
}

impl Default for LatencyModel {
    fn default() -> Self {
        LatencyModel {
            propagation: Duration::from_micros(100),
            bandwidth_bytes_per_sec: 125_000_000, // 1 Gbit/s
        }
    }
}

impl LatencyModel {
    /// The delivery delay for a message of `wire_size` bytes.
    pub fn delay(&self, wire_size: usize) -> Duration {
        let transmission_ns =
            (wire_size as u128 * 1_000_000_000u128) / self.bandwidth_bytes_per_sec.max(1) as u128;
        self.propagation + Duration::from_nanos(transmission_ns as u64)
    }
}

/// An in-flight message scheduled for delivery at a virtual time.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Scheduled {
    deliver_at: VirtualTime,
    sequence: u64,
    message: Message,
}

impl Ord for Scheduled {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.deliver_at, self.sequence).cmp(&(other.deliver_at, other.sequence))
    }
}

impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// The simulated network: a latency model, per-link FIFO floors and a
/// delivery queue ordered by virtual time.  It keeps no traffic table — a
/// node records what it sends and receives in its own
/// [`NodeLedger`](crate::stats::NodeLedger).
#[derive(Debug)]
pub struct SimNetwork {
    latency: LatencyModel,
    queue: BinaryHeap<Reverse<Scheduled>>,
    sequence: u64,
    /// Per-link delivery-time floors for [`SimNetwork::send_fifo`]: a stream
    /// message never arrives before its predecessor on the same (from, to)
    /// link, modelling a TCP-like ordered channel.
    link_floor: HashMap<(usize, usize), VirtualTime>,
}

/// Record one message's modelled send-to-delivery latency (virtual
/// nanoseconds, any FIFO floor wait included) into the per-kind telemetry
/// histogram.  The sender does this where it records the send; one static
/// handle per kind keeps that path free of name formatting and registry
/// lookups.
pub fn record_message_latency(kind: MessageKind, latency_ns: VirtualTime) {
    match kind {
        MessageKind::Update => {
            secureblox_telemetry::histogram!("net_message_latency_ns{kind=\"update\"}")
        }
        MessageKind::AnonForward => {
            secureblox_telemetry::histogram!("net_message_latency_ns{kind=\"anon_forward\"}")
        }
        MessageKind::AnonBackward => {
            secureblox_telemetry::histogram!("net_message_latency_ns{kind=\"anon_backward\"}")
        }
        MessageKind::Credit => {
            secureblox_telemetry::histogram!("net_message_latency_ns{kind=\"credit\"}")
        }
    }
    .record(latency_ns);
}

/// Concurrent per-link FIFO mailboxes for the reactor executor.
///
/// Where [`SimNetwork`] holds one global delivery queue ordered by virtual
/// time, `LinkLanes` holds a grid of independently locked queues — one per
/// directed link, plus one per receiver for messages whose `from` names no
/// node (a sender's identity is its own claim) — so sender tasks can enqueue
/// and receiver tasks can drain concurrently while each link stays FIFO in
/// *push* order.  Push order
/// is the sender's causal send order, which is exactly the guarantee
/// [`SimNetwork::send_fifo`] provides in the reference executor; the global
/// cross-link virtual-time interleaving is deliberately *not* reproduced
/// (outcome equivalence, not schedule equivalence — see DESIGN.md §13).
///
/// Each entry carries the virtual delivery time computed at send, so
/// receivers can still advance their per-node virtual clocks and the
/// `DeploymentReport` latency figures keep their meaning.
#[derive(Debug)]
pub struct LinkLanes {
    nodes: usize,
    lanes: Vec<Mutex<VecDeque<(VirtualTime, Message)>>>,
}

impl LinkLanes {
    /// Empty lanes for an `nodes` × `nodes` deployment.
    pub fn new(nodes: usize) -> Self {
        LinkLanes {
            nodes,
            lanes: (0..nodes * (nodes + 1))
                .map(|_| Mutex::new(VecDeque::new()))
                .collect(),
        }
    }

    /// The lane of link (from, to); every `from` past the last node shares
    /// receiver `to`'s stranger lane.
    fn lane(&self, from: usize, to: usize) -> &Mutex<VecDeque<(VirtualTime, Message)>> {
        &self.lanes[to * (self.nodes + 1) + from.min(self.nodes)]
    }

    /// Append a message to its (from, to) lane.  Lanes are FIFO, so a lane's
    /// drain order is always the sender's push order.
    pub fn push(&self, deliver_at: VirtualTime, message: Message) {
        self.lane(message.from.index(), message.to.index())
            .lock()
            .expect("link lane poisoned")
            .push_back((deliver_at, message));
    }

    /// Move every queued message addressed to node `to` into `sink`,
    /// scanning sender lanes in index order.  Per-link order is preserved;
    /// the interleaving *between* different senders is arbitrary.
    pub fn drain_to(&self, to: usize, sink: &mut Vec<(VirtualTime, Message)>) {
        for from in 0..=self.nodes {
            let mut lane = self.lane(from, to).lock().expect("link lane poisoned");
            while let Some(entry) = lane.pop_front() {
                sink.push(entry);
            }
        }
    }
}

impl SimNetwork {
    /// Create a network with the given latency model.  Nothing here is sized
    /// by the node count; the parameter stays for the callers that pass it.
    pub fn new(_nodes: usize, latency: LatencyModel) -> Self {
        SimNetwork {
            latency,
            queue: BinaryHeap::new(),
            sequence: 0,
            link_floor: HashMap::new(),
        }
    }

    /// Send a message at virtual time `now`; it will be delivered after the
    /// modelled latency.
    pub fn send(&mut self, message: Message, now: VirtualTime) -> VirtualTime {
        self.send_ordered(message, now, 0)
    }

    /// Send a message whose delivery must not precede `floor` — the FIFO
    /// guarantee of a stream-shaped channel.  The update-stream runtime keeps
    /// a per-link floor at the previous message's delivery time so an ordered
    /// delta stream can never be reordered by a smaller message overtaking a
    /// larger one (deliveries at equal times stay FIFO by send sequence).
    /// Returns the scheduled delivery time, which is the caller's next floor.
    pub fn send_ordered(
        &mut self,
        message: Message,
        now: VirtualTime,
        floor: VirtualTime,
    ) -> VirtualTime {
        let delay = self.latency.delay(message.wire_size()).as_nanos() as u64;
        let deliver_at = (now + delay).max(floor);
        self.sequence += 1;
        self.queue.push(Reverse(Scheduled {
            deliver_at,
            sequence: self.sequence,
            message,
        }));
        secureblox_telemetry::gauge!("net_in_flight").set(self.queue.len() as i64);
        deliver_at
    }

    /// Send a message on its link's FIFO stream: delivery never precedes the
    /// previous `send_fifo` message on the same (from, to) link.  The network
    /// keeps the per-link floors internally, so every caller shares one
    /// stream order per link.  Returns the scheduled delivery time.
    pub fn send_fifo(&mut self, message: Message, now: VirtualTime) -> VirtualTime {
        let link = (message.from.index(), message.to.index());
        let floor = self.link_floor.get(&link).copied().unwrap_or(0);
        let delivered = self.send_ordered(message, now, floor);
        self.link_floor.insert(link, delivered);
        delivered
    }

    /// Pop the next message in virtual-time order.
    pub fn next_delivery(&mut self) -> Option<(VirtualTime, Message)> {
        let delivery = self.queue.pop().map(|Reverse(s)| (s.deliver_at, s.message));
        if delivery.is_some() {
            secureblox_telemetry::gauge!("net_in_flight").set(self.queue.len() as i64);
        }
        delivery
    }

    /// Number of in-flight messages.
    pub fn in_flight(&self) -> usize {
        self.queue.len()
    }

    /// True if no messages are in flight — together with idle nodes this is
    /// the distributed-fixpoint condition.
    pub fn is_idle(&self) -> bool {
        self.queue.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::NodeId;

    #[test]
    fn latency_grows_with_size() {
        let model = LatencyModel::default();
        assert!(model.delay(100_000) > model.delay(100));
        assert!(model.delay(0) >= model.propagation);
    }

    #[test]
    fn deliveries_come_out_in_time_order() {
        let mut network = SimNetwork::new(3, LatencyModel::default());
        let a = Message::new(
            NodeId(0),
            NodeId(1),
            MessageKind::Update,
            vec![0u8; 10_000_000],
        );
        let b = Message::new(NodeId(1), NodeId(2), MessageKind::Update, vec![0u8; 10]);
        network.send(a.clone(), 0);
        network.send(b.clone(), 0);
        // The small message overtakes the large one despite being sent second.
        let (t1, first) = network.next_delivery().unwrap();
        let (t2, second) = network.next_delivery().unwrap();
        assert_eq!(first, b);
        assert_eq!(second, a);
        assert!(t1 <= t2);
        assert!(network.is_idle());
    }

    #[test]
    fn fifo_for_equal_times() {
        let mut network = SimNetwork::new(2, LatencyModel::default());
        for i in 0..5u8 {
            network.send(
                Message::new(NodeId(0), NodeId(1), MessageKind::Update, vec![i]),
                0,
            );
        }
        let mut order = Vec::new();
        while let Some((_, msg)) = network.next_delivery() {
            order.push(msg.payload[0]);
        }
        assert_eq!(order, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn ordered_send_respects_the_floor() {
        let mut network = SimNetwork::new(2, LatencyModel::default());
        // A huge message followed by a tiny one on the same link: with plain
        // send the tiny one would overtake; the floor keeps the stream FIFO.
        let big = Message::new(
            NodeId(0),
            NodeId(1),
            MessageKind::Update,
            vec![0u8; 10_000_000],
        );
        let small = Message::new(NodeId(0), NodeId(1), MessageKind::Update, vec![1u8]);
        let first_at = network.send_ordered(big.clone(), 0, 0);
        let second_at = network.send_ordered(small.clone(), 0, first_at);
        assert!(second_at >= first_at);
        let (_, first) = network.next_delivery().unwrap();
        let (_, second) = network.next_delivery().unwrap();
        assert_eq!(first, big, "stream order preserved");
        assert_eq!(second, small);
    }

    #[test]
    fn send_fifo_keeps_per_link_order_across_calls() {
        let mut network = SimNetwork::new(3, LatencyModel::default());
        let big = Message::new(
            NodeId(0),
            NodeId(1),
            MessageKind::Update,
            vec![0u8; 10_000_000],
        );
        let small = Message::new(NodeId(0), NodeId(1), MessageKind::Update, vec![1u8]);
        // A message on a *different* link is unaffected by 0→1's floor.
        let other_link = Message::new(NodeId(0), NodeId(2), MessageKind::Update, vec![2u8]);
        let first_at = network.send_fifo(big.clone(), 0);
        let second_at = network.send_fifo(small.clone(), 0);
        let other_at = network.send_fifo(other_link.clone(), 0);
        assert!(second_at >= first_at, "same-link FIFO preserved");
        assert!(other_at < first_at, "other links are independent streams");
        let (_, first) = network.next_delivery().unwrap();
        assert_eq!(first, other_link);
        let (_, second) = network.next_delivery().unwrap();
        assert_eq!(second, big);
    }

    #[test]
    fn link_lanes_preserve_per_link_fifo_and_drain_concurrently() {
        let lanes = LinkLanes::new(3);
        for i in 0..4u8 {
            lanes.push(
                u64::from(i),
                Message::new(NodeId(0), NodeId(2), MessageKind::Update, vec![i]),
            );
        }
        lanes.push(
            7,
            Message::new(NodeId(1), NodeId(2), MessageKind::Credit, vec![9]),
        );
        // A message for a different receiver stays in its own lane.
        lanes.push(
            8,
            Message::new(NodeId(0), NodeId(1), MessageKind::Update, vec![8]),
        );
        let mut inbox = Vec::new();
        lanes.drain_to(2, &mut inbox);
        let from0: Vec<u8> = inbox
            .iter()
            .filter(|(_, m)| m.from == NodeId(0))
            .map(|(_, m)| m.payload[0])
            .collect();
        assert_eq!(from0, vec![0, 1, 2, 3], "per-link FIFO is push order");
        assert_eq!(inbox.len(), 5);
        // Node 1's inbox is still queued, and a drain empties a lane.
        for (to, queued) in [(1, 1), (1, 0), (2, 0)] {
            let mut other = Vec::new();
            lanes.drain_to(to, &mut other);
            assert_eq!(other.len(), queued);
        }
    }

    /// A `from` that names no node is the sender's claim, not an index: the
    /// message queues in the receiver's stranger lane and is drained with the
    /// rest (the receiving node refuses it; see `NodeCtx::deliver`).
    #[test]
    fn link_lanes_take_a_sender_that_names_no_node() {
        let lanes = LinkLanes::new(2);
        for from in [2, 7, u32::MAX] {
            lanes.push(
                u64::from(from),
                Message::new(NodeId(from), NodeId(1), MessageKind::Update, vec![0]),
            );
        }
        let mut inbox = Vec::new();
        lanes.drain_to(0, &mut inbox);
        assert!(inbox.is_empty());
        lanes.drain_to(1, &mut inbox);
        let senders: Vec<u32> = inbox.iter().map(|(_, m)| m.from.0).collect();
        assert_eq!(senders, [2, 7, u32::MAX], "strangers stay in push order");
    }
}
