//! The event-driven reactor executor: every node is an independent worker
//! task woken by message arrival, instead of a turn in the reference
//! executor's global virtual-time loop.
//!
//! The reference loop ([`Deployment::run`] under [`ReactorConfig::disabled`])
//! replays the deployment as a discrete-event simulation: one thread pops
//! messages off a global heap in virtual-time order, so a 36-node deployment
//! uses one core no matter how many the host has.  The reactor keeps the
//! *virtual-time bookkeeping* (per-node clocks still advance by measured
//! compute plus modelled latency, so `DeploymentReport` latency figures keep
//! their meaning) but replaces the *scheduler*: nodes run wall-clock-parallel
//! on a small worker pool, woken when an envelope or credit grant lands in
//! one of their per-link mailboxes ([`secureblox_net::LinkLanes`]).
//!
//! Scheduling is a per-node wake state machine (`IDLE → QUEUED → RUNNING →
//! IDLE`, with `DIRTY` marking arrivals that raced a running service pass):
//! a node is enqueued at most once, never runs on two workers at once, and a
//! message pushed to its mailbox is never lost — the push happens before the
//! wake, and a service pass drains mailboxes after marking itself `RUNNING`.
//!
//! Quiescence — the distributed fixpoint — is detected by a global
//! in-flight counter instead of an empty delivery heap: every queued unit of
//! work (a seeded bootstrap batch, an in-mailbox message) holds one count,
//! workers release counts only *after* processing (so counts taken by a
//! message's children overlap with its own), and `outstanding == 0` therefore
//! means no work exists anywhere.  The coordinator then force-flushes any
//! outbox residues (the Nagle hold, exactly like the reference loop) and
//! shuts the pool down when nothing ships.
//!
//! What is deliberately *not* reproduced is the global cross-link
//! virtual-time interleaving: per-link FIFO order and the PR 8 credit-window
//! semantics are preserved, but messages on different links interleave
//! arbitrarily.  The executors are outcome-equivalent (same relations, same
//! verdicts, same store Merkle roots — see `tests/props_reactor.rs`), not
//! schedule-equivalent.  DESIGN.md §13 documents the argument.

use crate::runtime::engine::{
    is_data_plane, wedged_at_quiescence, Deployment, DeploymentConfig, DeploymentReport,
    EngineShared, NodeState,
};
use crate::runtime::node::{NetSink, NodeCtx};
use secureblox_datalog::error::{DatalogError, Result};
use secureblox_datalog::FnvMap;
use secureblox_net::{LinkLanes, Message, VirtualTime};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::Instant;

/// Reactor-executor knobs.  Nothing here reads the environment:
/// `DeploymentConfig::default()` is where `SECUREBLOX_REACTOR` and
/// `SECUREBLOX_REACTOR_THREADS` enter (DESIGN.md §9.6).
#[derive(Debug, Clone)]
pub struct ReactorConfig {
    /// Run [`Deployment::run`] on the event-driven executor.
    pub enabled: bool,
    /// Worker threads servicing woken nodes (clamped to `1..=nodes`).
    pub threads: usize,
}

impl Default for ReactorConfig {
    /// The deterministic virtual-time reference loop; should the reactor be
    /// switched on, one worker per hardware thread.
    fn default() -> Self {
        ReactorConfig {
            enabled: false,
            threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
        }
    }
}

impl ReactorConfig {
    /// The reference executor.
    pub fn disabled() -> Self {
        ReactorConfig {
            enabled: false,
            threads: 1,
        }
    }

    /// The reactor executor with an explicit worker-pool size.
    pub fn with_threads(threads: usize) -> Self {
        ReactorConfig {
            enabled: true,
            threads: threads.max(1),
        }
    }
}

// The per-node wake state machine.  Transitions:
//   IDLE    --wake-->  QUEUED   (pushed to the run queue, exactly once)
//   QUEUED  --pop--->  RUNNING  (a worker starts a service pass)
//   RUNNING --wake-->  DIRTY    (an arrival raced the pass; re-drain)
//   RUNNING --done-->  IDLE
//   DIRTY   --done-->  RUNNING  (the servicing worker loops, no re-enqueue)
const IDLE: u8 = 0;
const QUEUED: u8 = 1;
const RUNNING: u8 = 2;
const DIRTY: u8 = 3;

/// Everything one node's service pass mutates: the node state itself — its
/// ledger included, so what the node measures moves in and out of the reactor
/// with it — plus the sender-side floors.
struct NodeCell {
    node: NodeState,
    /// Sender-side per-destination FIFO floors (the reactor's replacement
    /// for `SimNetwork`'s internal `link_floor` map).  Sender-owned: only
    /// this node sends on its outgoing links, so no cross-task floor exists.
    /// Dropped at teardown — at quiescence no stream has in-flight messages,
    /// so the floors carry no obligation forward.
    floors: FnvMap<usize, VirtualTime>,
    /// The virtual-time-zero bootstrap batch has been processed.
    bootstrapped: bool,
}

struct NodeSlot {
    cell: Mutex<NodeCell>,
    sched: AtomicU8,
}

/// The shared event core: slots, mailboxes, the run queue, and the
/// quiescence/halt machinery.  Borrows the deployment's immutable shared
/// state; node state lives inside the slots for the reactor's lifetime.
struct Reactor<'d> {
    slots: Vec<NodeSlot>,
    lanes: LinkLanes,
    /// Woken nodes awaiting a worker, with their enqueue instant (wake
    /// latency telemetry).  At most one entry per node (see `wake`).
    runq: Mutex<VecDeque<(usize, Instant)>>,
    runq_cv: Condvar,
    /// Units of queued work anywhere in the system: seeded bootstrap batches
    /// plus in-mailbox messages.  Zero means quiescent — a unit's count is
    /// released only after processing, so counts taken by the children it
    /// spawned overlap with its own and the counter can never dip to zero
    /// while causally-pending work exists.
    outstanding: AtomicI64,
    quiet: Mutex<()>,
    quiet_cv: Condvar,
    /// Data-plane deliveries so far, against `config.message_budget`.
    budget_spent: AtomicUsize,
    budget_exceeded: AtomicBool,
    halted: AtomicBool,
    shutdown: AtomicBool,
    /// First worker error wins; composed into the run result at teardown.
    error: Mutex<Option<DatalogError>>,
    shared: &'d EngineShared,
    config: &'d DeploymentConfig,
}

/// The per-task [`NetSink`]: computes delivery times from the shared latency
/// model, enqueues into the concurrent mailboxes, and wakes the receiver.
struct ReactorSink<'r, 'd> {
    reactor: &'r Reactor<'d>,
    floors: &'r mut FnvMap<usize, VirtualTime>,
}

impl ReactorSink<'_, '_> {
    fn dispatch(&mut self, message: Message, now: VirtualTime, floor: VirtualTime) -> VirtualTime {
        let latency = &self.reactor.config.latency;
        let delay = latency.delay(message.wire_size()).as_nanos() as u64;
        let deliver_at = (now + delay).max(floor);
        let to = message.to.index();
        // Count the message before it becomes visible: a receiver must never
        // drain work the quiescence counter has not yet accounted for.
        self.reactor.outstanding.fetch_add(1, Ordering::SeqCst);
        self.reactor.lanes.push(deliver_at, message);
        self.reactor.wake(to);
        deliver_at
    }
}

impl NetSink for ReactorSink<'_, '_> {
    fn send(&mut self, message: Message, now: VirtualTime) -> VirtualTime {
        self.dispatch(message, now, 0)
    }

    fn send_fifo(&mut self, message: Message, now: VirtualTime) -> VirtualTime {
        let dest = message.to.index();
        let floor = self.floors.get(&dest).copied().unwrap_or(0);
        let delivered = self.dispatch(message, now, floor);
        self.floors.insert(dest, delivered);
        delivered
    }
}

impl<'d> Reactor<'d> {
    /// Wake node `index`: ensure a service pass will observe everything
    /// pushed to its mailboxes before this call.  Enqueues at most once.
    fn wake(&self, index: usize) {
        let slot = &self.slots[index];
        loop {
            match slot.sched.load(Ordering::SeqCst) {
                IDLE => {
                    if slot
                        .sched
                        .compare_exchange(IDLE, QUEUED, Ordering::SeqCst, Ordering::SeqCst)
                        .is_ok()
                    {
                        let mut queue = self.runq.lock().expect("run queue poisoned");
                        queue.push_back((index, Instant::now()));
                        secureblox_telemetry::gauge!("reactor_run_queue_depth")
                            .set(queue.len() as i64);
                        drop(queue);
                        self.runq_cv.notify_one();
                        return;
                    }
                }
                RUNNING => {
                    // The racing service pass may already be past its drain;
                    // DIRTY forces one more drain before it goes idle.
                    if slot
                        .sched
                        .compare_exchange(RUNNING, DIRTY, Ordering::SeqCst, Ordering::SeqCst)
                        .is_ok()
                    {
                        return;
                    }
                }
                // QUEUED / DIRTY: a future drain is already guaranteed.
                _ => return,
            }
        }
    }

    /// Release `count` units of queued work; signals the coordinator when
    /// the last unit anywhere drains.
    fn finish(&self, count: i64) {
        if self.outstanding.fetch_sub(count, Ordering::SeqCst) == count {
            let _guard = self.quiet.lock().expect("quiet lock poisoned");
            self.quiet_cv.notify_all();
        }
    }

    fn halted(&self) -> bool {
        self.halted.load(Ordering::SeqCst)
    }

    /// Stop the run: workers drain out, the coordinator stops waiting.
    fn halt(&self) {
        self.halted.store(true, Ordering::SeqCst);
        self.shutdown.store(true, Ordering::SeqCst);
        {
            let _queue = self.runq.lock().expect("run queue poisoned");
            self.runq_cv.notify_all();
        }
        let _guard = self.quiet.lock().expect("quiet lock poisoned");
        self.quiet_cv.notify_all();
    }

    /// Record the first error and halt.
    fn fail(&self, error: DatalogError) {
        {
            let mut slot = self.error.lock().expect("error slot poisoned");
            slot.get_or_insert(error);
        }
        self.halt();
    }

    /// Build a [`NodeCtx`] over one locked cell and run `body` against it —
    /// the reactor-side twin of [`Deployment::node_ctx`].
    fn with_ctx<R>(
        &self,
        index: usize,
        cell: &mut NodeCell,
        body: impl FnOnce(&mut NodeCtx<'_>) -> R,
    ) -> R {
        let mut sink = ReactorSink {
            reactor: self,
            floors: &mut cell.floors,
        };
        let mut ctx = NodeCtx {
            index,
            node: &mut cell.node,
            shared: self.shared,
            config: self.config,
            net: &mut sink,
        };
        body(&mut ctx)
    }

    /// Worker loop: pop woken nodes and service them until shutdown.
    fn worker(&self) {
        loop {
            let (index, woken_at) = {
                let mut queue = self.runq.lock().expect("run queue poisoned");
                loop {
                    if self.shutdown.load(Ordering::SeqCst) {
                        return;
                    }
                    if let Some(entry) = queue.pop_front() {
                        secureblox_telemetry::gauge!("reactor_run_queue_depth")
                            .set(queue.len() as i64);
                        break entry;
                    }
                    let parked = Instant::now();
                    queue = self.runq_cv.wait(queue).expect("run queue poisoned");
                    secureblox_telemetry::histogram!("reactor_parked_ns")
                        .record_duration(parked.elapsed());
                }
            };
            secureblox_telemetry::histogram!("reactor_wake_latency_ns")
                .record_duration(woken_at.elapsed());
            self.service(index);
        }
    }

    /// One service pass: mark `RUNNING`, drain this node's mailboxes, apply
    /// every message through the same [`NodeCtx`] handlers the reference
    /// executor uses, and go idle — unless an arrival raced us (`DIRTY`), in
    /// which case drain again.
    fn service(&self, index: usize) {
        let slot = &self.slots[index];
        slot.sched.store(RUNNING, Ordering::SeqCst);
        let mut cell = slot.cell.lock().expect("node cell poisoned");
        let mut inbox: Vec<(VirtualTime, Message)> = Vec::new();
        loop {
            if !cell.bootstrapped {
                cell.bootstrapped = true;
                let batch = std::mem::take(&mut cell.node.pending_bootstrap);
                if let Err(error) =
                    self.with_ctx(index, &mut cell, |ctx| ctx.process_batch(batch, 0))
                {
                    self.fail(error);
                }
                self.finish(1);
            }
            inbox.clear();
            self.lanes.drain_to(index, &mut inbox);
            let drained = inbox.len() as i64;
            for (arrival, message) in inbox.drain(..) {
                if self.halted() {
                    break;
                }
                if is_data_plane(message.kind) {
                    let spent = self.budget_spent.fetch_add(1, Ordering::SeqCst) + 1;
                    if spent > self.config.message_budget {
                        self.budget_exceeded.store(true, Ordering::SeqCst);
                        self.halt();
                        break;
                    }
                }
                if let Err(error) =
                    self.with_ctx(index, &mut cell, |ctx| ctx.deliver(message, arrival))
                {
                    self.fail(error);
                }
            }
            if drained > 0 {
                self.finish(drained);
            }
            if self.halted() {
                slot.sched.store(IDLE, Ordering::SeqCst);
                return;
            }
            match slot
                .sched
                .compare_exchange(RUNNING, IDLE, Ordering::SeqCst, Ordering::SeqCst)
            {
                Ok(_) => return,
                // An arrival raced this pass: reclaim RUNNING and re-drain.
                Err(_) => slot.sched.store(RUNNING, Ordering::SeqCst),
            }
        }
    }

    /// The main-thread coordinator: wait for quiescence, force-flush outbox
    /// residues (which creates new work and resumes the pool), and shut down
    /// when the system is genuinely drained.
    fn coordinate(&self) {
        loop {
            {
                let mut guard = self.quiet.lock().expect("quiet lock poisoned");
                while self.outstanding.load(Ordering::SeqCst) != 0 && !self.halted() {
                    guard = self.quiet_cv.wait(guard).expect("quiet lock poisoned");
                }
            }
            if self.halted() {
                break;
            }
            match self.flush_residues() {
                Ok(true) => continue,
                Ok(false) => break,
                Err(error) => {
                    self.fail(error);
                    break;
                }
            }
        }
        self.shutdown.store(true, Ordering::SeqCst);
        let _queue = self.runq.lock().expect("run queue poisoned");
        self.runq_cv.notify_all();
    }

    /// At quiescence, run [`NodeCtx::flush_residues`] on every node.  Runs on
    /// the coordinator with the pool parked (outstanding == 0), so locking
    /// cells one at a time is race-free; anything shipped re-wakes its
    /// receiver.
    fn flush_residues(&self) -> Result<bool> {
        let mut shipped = false;
        for (index, slot) in self.slots.iter().enumerate() {
            let mut cell = slot.cell.lock().expect("node cell poisoned");
            shipped |= self.with_ctx(index, &mut cell, |ctx| ctx.flush_residues())?;
        }
        let holds_residue = |slot: &NodeSlot| {
            let cell = slot.cell.lock().expect("node cell poisoned");
            cell.node.holds_residue()
        };
        if !shipped && self.slots.iter().any(holds_residue) {
            return Err(wedged_at_quiescence());
        }
        Ok(shipped)
    }
}

impl Deployment {
    /// Run to the distributed fixpoint on the event-driven executor: spawn a
    /// worker pool, seed it with the bootstrap batches and any pre-queued
    /// network traffic, coordinate quiescence, then move the nodes back into
    /// the deployment.  Each node's ledger travelled with it, so the report
    /// and subsequent ticks are those of a reference-mode run by construction.
    pub(crate) fn run_reactor(&mut self) -> Result<DeploymentReport> {
        let node_count = self.nodes.len();
        let lanes = LinkLanes::new(node_count);
        // Drain anything already scheduled on the reference network —
        // injected adversarial payloads, pre-run retract traffic — into the
        // mailboxes as seeded work.
        let mut seeded = 0i64;
        while let Some((deliver_at, message)) = self.network.next_delivery() {
            lanes.push(deliver_at, message);
            seeded += 1;
        }
        let slots: Vec<NodeSlot> = std::mem::take(&mut self.nodes)
            .into_iter()
            .map(|node| NodeSlot {
                cell: Mutex::new(NodeCell {
                    node,
                    floors: FnvMap::default(),
                    bootstrapped: false,
                }),
                sched: AtomicU8::new(QUEUED),
            })
            .collect();
        let now = Instant::now();
        let reactor = Reactor {
            slots,
            lanes,
            runq: Mutex::new((0..node_count).map(|index| (index, now)).collect()),
            runq_cv: Condvar::new(),
            // One unit per node for its bootstrap batch, plus the seeds.
            outstanding: AtomicI64::new(node_count as i64 + seeded),
            quiet: Mutex::new(()),
            quiet_cv: Condvar::new(),
            budget_spent: AtomicUsize::new(0),
            budget_exceeded: AtomicBool::new(false),
            halted: AtomicBool::new(false),
            shutdown: AtomicBool::new(false),
            error: Mutex::new(None),
            shared: &self.shared,
            config: &self.config,
        };
        let threads = self.config.reactor.threads.max(1).min(node_count.max(1));
        secureblox_telemetry::gauge!("reactor_threads").set(threads as i64);
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| reactor.worker());
            }
            reactor.coordinate();
        });
        // Teardown: the nodes come home.
        let Reactor {
            slots,
            budget_exceeded,
            error,
            ..
        } = reactor;
        for slot in slots {
            let cell = slot.cell.into_inner().expect("node cell poisoned");
            self.nodes.push(cell.node);
        }
        if let Some(error) = error.into_inner().expect("error slot poisoned") {
            return Err(error);
        }
        if budget_exceeded.into_inner() {
            return Err(self.budget_exceeded_error());
        }
        Ok(self.report())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_with_threads_clamps_to_one() {
        let config = ReactorConfig::with_threads(0);
        assert!(config.enabled);
        assert_eq!(config.threads, 1);
        assert!(!ReactorConfig::disabled().enabled);
    }
}
