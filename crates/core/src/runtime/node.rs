//! One node's engine context: the per-node half of the distributed query
//! processor.  [`NodeCtx`] holds exclusive access to one node's state and
//! every per-node operation — transactions, export flushes, delivery
//! handlers — so the virtual-time reference loop (`runtime::engine`) and the
//! reactor's worker tasks (`runtime::reactor`) drive identical logic.

use crate::runtime::codec::{serialize_tuple, DeltaOp, UpdateDelta, UpdateEnvelope};
use crate::runtime::engine::{Circuit, DeploymentConfig, EngineShared, NodeState};
use crate::runtime::export::{ExportCandidate, ExportChannel};
use crate::runtime::stream::LinkOutbox;
use secureblox_crypto::{
    aes128_ctr_decrypt, aes128_ctr_encrypt, hmac_sha1_verify, AuthScheme, EncScheme, RsaSignature,
};
use secureblox_datalog::codec::{DecodeError, Reader};
use secureblox_datalog::column_set;
use secureblox_datalog::error::{DatalogError, Result};
use secureblox_datalog::eval::shuffle::is_exchange_pred;
use secureblox_datalog::value::{Tuple, Value};
use secureblox_net::{
    record_message_latency, Message, MessageKind, NodeId, NodeLedger, SimNetwork, VirtualTime,
};
use secureblox_store::StoreError;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Where a node context's outbound messages go once [`NodeCtx::send`] has
/// recorded and stamped them: a sink only enqueues.  The reference executor
/// passes the [`SimNetwork`] itself; the reactor substitutes a per-task sink
/// that enqueues into the concurrent [`secureblox_net::LinkLanes`].
pub(crate) trait NetSink {
    /// Queue `message` for delivery at the time its sender stamped.
    fn enqueue(&mut self, deliver_at: VirtualTime, message: Message);
}

impl NetSink for SimNetwork {
    fn enqueue(&mut self, deliver_at: VirtualTime, message: Message) {
        self.push(deliver_at, message);
    }
}

/// What a commit does to the workspace and where it came from — which
/// decides the ledger and telemetry series it feeds and who hears of a
/// refusal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CommitOp {
    /// Insert a batch of base facts: bootstrap, a local batch, an inbound
    /// `Assert` delta, a replayed WAL insert group.
    Assert,
    /// An inbound `Retract` delta, from a peer stream or a circuit.  A
    /// refusal is recorded, as for an assert: the sender is not notified.
    Retract,
    /// [`Deployment::retract`](crate::runtime::Deployment::retract) and a
    /// replayed WAL `Retract` record: the caller is there to hear of a
    /// refusal, so it is handed back and not recorded.
    LocalRetract,
}

impl From<DeltaOp> for CommitOp {
    fn from(op: DeltaOp) -> Self {
        match op {
            DeltaOp::Assert => CommitOp::Assert,
            DeltaOp::Retract => CommitOp::Retract,
        }
    }
}

/// Whether a send waits for its link's FIFO floor.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Link {
    /// The link's FIFO stream: update envelopes and onion cells.  Delivery
    /// never precedes the previous FIFO message on the link.
    Fifo,
    /// A plain latency-modelled message that may overtake the stream: credit
    /// grants (cumulative counts, order-free) and injected payloads.  It
    /// neither waits for the floor nor moves it.
    Unordered,
}

/// How [`NodeCtx::commit`] ended.
#[derive(Debug)]
pub(crate) enum Verdict {
    /// Committed, logged and absorbed: the update streams need a flush.
    Changed,
    /// A retraction that found none of its facts stored (e.g. the assert had
    /// been rejected).  At-most-once means there is nothing to log, time or
    /// propagate.
    Unchanged,
    /// Refused by a constraint or a functional dependency and rolled back
    /// whole — the input tuples included (paper §5.2).
    Refused(DatalogError),
}

/// One node's engine context: exclusive access to that node's state — its
/// ledger included — plus the shared immutable deployment state and an
/// outbound [`NetSink`].  Every per-node operation — transactions, export flushes,
/// delivery handlers — lives here, so the virtual-time reference loop and the
/// reactor's worker tasks drive *identical* logic and differ only in how they
/// schedule nodes and route messages.
pub(crate) struct NodeCtx<'a> {
    pub(crate) index: usize,
    pub(crate) node: &'a mut NodeState,
    pub(crate) shared: &'a EngineShared,
    pub(crate) config: &'a DeploymentConfig,
    pub(crate) net: &'a mut dyn NetSink,
}

impl NodeCtx<'_> {
    // ------------------------------------------------------------------
    // Batch processing and export
    // ------------------------------------------------------------------

    /// Process one incoming batch as a local ACID transaction.  Returns
    /// whether the batch *committed* — callers use this as channel-level
    /// evidence that the peer's envelope was accepted by policy.
    pub(crate) fn process_batch(
        &mut self,
        batch: Vec<(String, Tuple)>,
        arrival: VirtualTime,
    ) -> Result<bool> {
        self.commit_and_flush(CommitOp::Assert, batch, arrival)
    }

    /// [`NodeCtx::commit`], then flush the update streams at once if it
    /// changed anything.  Returns whether it did.
    fn commit_and_flush(
        &mut self,
        op: CommitOp,
        batch: Vec<(String, Tuple)>,
        arrival: VirtualTime,
    ) -> Result<bool> {
        let changed = matches!(self.commit(op, batch, arrival)?, Verdict::Changed);
        if changed {
            let finish = self.node.available_at;
            self.flush_updates(finish)?;
        }
        Ok(changed)
    }

    /// The commit sink: the one place a change enters this node's workspace,
    /// whatever it is (`op`) and wherever it came from (DESIGN.md §9.3).
    /// Applies `batch` as one ACID transaction or one retraction, charges
    /// the measured time to the virtual clock and the op's histogram, appends
    /// the commit's *base* delta — what the journal says entered or left the
    /// asserted set, not what the batch named — to the WAL as one record
    /// group when a store is attached, absorbs the net delta into the export
    /// candidates, records the ledger sample (a transaction is a Fig. 7
    /// sample, a retraction is not) and turns a refusal into a [`Verdict`].
    /// Does NOT flush update streams — the caller decides when (per local
    /// batch, once per drained envelope for inbound deltas).
    pub(crate) fn commit(
        &mut self,
        op: CommitOp,
        batch: Vec<(String, Tuple)>,
        arrival: VirtualTime,
    ) -> Result<Verdict> {
        let start_virtual = arrival.max(self.node.available_at);
        let started = Instant::now();
        let outcome = match op {
            CommitOp::Assert => self.node.workspace.transaction(batch),
            CommitOp::Retract | CommitOp::LocalRetract => self.node.workspace.retract(batch),
        };
        let elapsed = started.elapsed();
        match op {
            CommitOp::Assert => {
                secureblox_telemetry::histogram!("engine_txn_apply_ns").record_duration(elapsed)
            }
            CommitOp::Retract => secureblox_telemetry::histogram!("engine_retraction_apply_ns")
                .record_duration(elapsed),
            CommitOp::LocalRetract => {}
        }
        let finish = self.charge(start_virtual, elapsed);
        let commit = match outcome {
            Ok(commit) => commit,
            Err(error) => {
                let record = match error {
                    // A policy refusing the batch.
                    DatalogError::ConstraintViolation(_) => NodeLedger::record_rejection,
                    // Same rollback, counted apart: a data-level duplicate
                    // (e.g. a second composition for an already-known path
                    // entity), not a security decision.
                    DatalogError::FunctionalDependency { .. } => NodeLedger::record_conflict,
                    _ => return Err(error),
                };
                if op != CommitOp::LocalRetract {
                    record(&mut self.node.ledger, finish);
                }
                return Ok(Verdict::Refused(error));
            }
        };
        if op != CommitOp::Assert && commit.base_deleted == 0 {
            return Ok(Verdict::Unchanged);
        }
        // Only a *committed* change is logged: rolled-back facts are not part
        // of the EDB and must not resurface at recovery.
        if let Some(store) = &mut self.node.store {
            if !commit.base_removed.is_empty() {
                store
                    .log_retracts(fact_refs(&commit.base_removed), finish)
                    .map_err(durability)?;
            }
            if !commit.base_added.is_empty() {
                store
                    .log_inserts(fact_refs(&commit.base_added), finish)
                    .map_err(durability)?;
            }
        }
        match op {
            CommitOp::Assert => self.node.ledger.record_transaction(elapsed, finish),
            CommitOp::Retract | CommitOp::LocalRetract => {
                self.node.ledger.record_retraction(finish)
            }
        }
        if op == CommitOp::Retract {
            // A cascade: the retraction removed stored facts and may now
            // propagate further withdrawals through this node's streams.
            secureblox_telemetry::counter!("engine_retraction_cascades_total").inc();
            secureblox_telemetry::histogram!("engine_retraction_deleted_facts")
                .record((commit.base_deleted + commit.over_deleted) as u64);
        }
        self.node
            .export_pending
            .absorb(commit.added, commit.removed);
        Ok(Verdict::Changed)
    }

    /// The one function that adds measured (`Instant::elapsed`) time to a
    /// virtual timestamp: work that began at `start_virtual` and took
    /// `elapsed` of this host's wall clock ends at the returned instant, and
    /// the node is busy until then.
    fn charge(&mut self, start_virtual: VirtualTime, elapsed: Duration) -> VirtualTime {
        let finish = start_virtual + elapsed.as_nanos() as u64;
        self.node.available_at = self.node.available_at.max(finish);
        finish
    }

    /// Flush this node's update streams from the export candidates its
    /// commits left since the last flush — O(delta), whatever the relations
    /// hold.  A removed candidate that was shipped (`sent`) and is not stored
    /// now goes out as a signed `Retract` delta; an added candidate that is
    /// stored now, this node's to ship, and not yet in `sent` goes out as an
    /// `Assert`.  Judging both against the workspace *now* is what lets one
    /// flush cover several commits: a tuple asserted then retracted (or
    /// retracted then re-asserted) between two flushes ships nothing.  The
    /// deltas go, in order, into each destination's [`LinkOutbox`], which
    /// ships them as [`UpdateEnvelope`]s over the FIFO link.
    pub(crate) fn flush_updates(&mut self, now: VirtualTime) -> Result<()> {
        let started = Instant::now();
        let (removed, added) = self.node.export_pending.take_sorted();
        secureblox_telemetry::counter!("engine_export_candidates_total")
            .add((added.len() + removed.len()) as u64);
        // Ordered deltas per destination node: retractions first (they refer
        // to the pre-flush state), then asserts, each in deterministic order.
        let mut per_dest: BTreeMap<usize, Vec<UpdateDelta>> = BTreeMap::new();
        let mut anon_outgoing: Vec<Message> = Vec::new();
        // Export-cursor mutations to WAL-log before anything ships: marks
        // for newly shipped tuples, clears for flushed withdrawals.
        let mut export_marks: Vec<(String, Tuple, Vec<u8>)> = Vec::new();
        let mut export_clears: Vec<(String, Tuple)> = Vec::new();

        // 1. Withdrawals.  A repeated candidate finds its `sent` entry gone.
        for candidate in removed {
            let (pred, tuple) = &candidate.fact;
            if self.node.workspace.contains_fact(pred, tuple) {
                continue;
            }
            let Some(signature) = self.node.sent.remove(&candidate.fact) else {
                continue;
            };
            export_clears.push(candidate.fact.clone());
            self.route(
                candidate,
                DeltaOp::Retract,
                signature,
                &mut per_dest,
                &mut anon_outgoing,
            )?;
        }

        // 2. Assertions.  A repeated candidate finds its `sent` entry there.
        for candidate in added {
            let (pred, tuple) = &candidate.fact;
            if !candidate
                .channel
                .originates_at(&self.node.info.principal, tuple)
                || self.node.sent.contains_key(&candidate.fact)
                || !self.node.workspace.contains_fact(pred, tuple)
            {
                continue;
            }
            let signature = match candidate.channel {
                ExportChannel::Says => self.lookup_signature(candidate.param(), tuple),
                // The onion layers authenticate circuit traffic.
                ExportChannel::AnonForward | ExportChannel::AnonBackward => Vec::new(),
            };
            export_marks.push((pred.clone(), tuple.clone(), signature.clone()));
            self.node
                .sent
                .insert(candidate.fact.clone(), signature.clone());
            self.route(
                candidate,
                DeltaOp::Assert,
                signature,
                &mut per_dest,
                &mut anon_outgoing,
            )?;
        }

        // Persist the export-cursor mutations before anything ships: a mark
        // must hit the WAL no later than its message leaves, or a crash in
        // between would lose the recovery obligation the message created.
        if !export_clears.is_empty() || !export_marks.is_empty() {
            if let Some(store) = &mut self.node.store {
                store
                    .log_export_clears(fact_refs(&export_clears), now)
                    .map_err(durability)?;
                store
                    .log_export_marks(
                        export_marks
                            .iter()
                            .map(|(p, t, s)| (p.as_str(), t, s.as_slice())),
                        now,
                    )
                    .map_err(durability)?;
            }
        }

        // 3. Export processing (serialization, signature lookup, encryption)
        //    costs real compute; charge it to the node's virtual clock, then
        //    ship through the per-link outboxes (coalescing, annihilation,
        //    credit).
        let overhead = started.elapsed();
        secureblox_telemetry::histogram!("engine_export_flush_ns").record_duration(overhead);
        let send_time = self.charge(now, overhead);
        for (dest, deltas) in per_dest {
            let outbox = self.outbox(dest);
            for delta in deltas {
                if outbox.push(delta) {
                    secureblox_telemetry::counter!("engine_stream_annihilated_total").add(2);
                }
            }
            self.drain_outbox(dest, send_time, false)?;
        }
        for message in anon_outgoing {
            self.send(message, send_time, Link::Fifo);
        }
        Ok(())
    }

    /// The one place a send is recorded and its delivery time decided, for
    /// both executors: every outbound message of this node — update
    /// envelopes, onion cells, relay forwards, credit grants, and what
    /// [`Deployment::inject_message`](crate::runtime::Deployment::inject_message)
    /// sends in its name — is charged to the node's ledger here, stamped with
    /// its delivery time (a [`Link::Fifo`] message at or after its link's
    /// floor, kept in the link's [`LinkOutbox`]), sampled for latency, and
    /// handed to the [`NetSink`].
    pub(crate) fn send(&mut self, message: Message, now: VirtualTime, link: Link) {
        let kind = message.kind;
        let wire_size = message.wire_size();
        self.node.ledger.record_send(message.to, wire_size, kind);
        let latency = &self.config.latency;
        let deliver_at = match link {
            Link::Fifo => {
                let outbox = self.outbox(message.to.index());
                outbox.floor = latency.deliver_at(now, wire_size, outbox.floor);
                outbox.floor
            }
            Link::Unordered => latency.deliver_at(now, wire_size, 0),
        };
        record_message_latency(kind, deliver_at - now);
        self.net.enqueue(deliver_at, message);
    }

    /// This node's sender state for the link to `dest`, created on first
    /// use with a full credit window.
    fn outbox(&mut self, dest: usize) -> &mut LinkOutbox {
        let high_water = self.config.streaming.queue_high_water;
        self.node
            .outboxes
            .entry(dest)
            .or_insert_with(|| LinkOutbox::new(high_water))
    }

    /// Put one delta on its channel: the addressee's envelope, or an onion
    /// cell of this node's circuit.  A tuple addressed to no known principal
    /// ships nowhere (its cursor entry is kept all the same).
    fn route(
        &self,
        candidate: ExportCandidate,
        op: DeltaOp,
        signature: Vec<u8>,
        per_dest: &mut BTreeMap<usize, Vec<UpdateDelta>>,
        anon_outgoing: &mut Vec<Message>,
    ) -> Result<()> {
        let pred = candidate.param().to_string();
        let tuple = candidate.fact.1;
        let addressee = tuple.get(1).and_then(|v| v.as_str());
        match candidate.channel {
            ExportChannel::Says => {
                if let Some(&dest) = addressee.and_then(|to| self.shared.principal_index.get(to)) {
                    per_dest.entry(dest).or_default().push(UpdateDelta {
                        op,
                        pred,
                        tuple,
                        signature,
                    });
                }
            }
            ExportChannel::AnonForward => {
                if let Some(to) = addressee {
                    anon_outgoing.push(self.onion_wrap_forward(&pred, to, &tuple, op)?);
                }
            }
            ExportChannel::AnonBackward => {
                anon_outgoing.extend(self.onion_wrap_backward(&pred, &tuple, op)?);
            }
        }
        Ok(())
    }

    /// Ship as much of this node's `dest` outbox as its credit window
    /// allows, in envelopes of up to `batch_max` deltas each.  Marks the
    /// outbox stalled when deltas remain with no credit left — the stall ends
    /// (and shipping resumes) when the receiver's credit grant arrives.
    ///
    /// Unless `force`d, a residue smaller than `batch_max` is *held* (Nagle
    /// style): while other traffic is still in flight, the next flushes keep
    /// topping the outbox up and whole-batch envelopes amortize the
    /// receiver's per-transaction cost.  Both executors force-flush every
    /// outbox at quiescence, so held deltas always ship before a run can
    /// converge.
    pub(crate) fn drain_outbox(
        &mut self,
        dest: usize,
        now: VirtualTime,
        force: bool,
    ) -> Result<()> {
        let batch_max = self.config.streaming.batch_max;
        loop {
            let Some(outbox) = self.node.outboxes.get_mut(&dest) else {
                return Ok(());
            };
            if outbox.live() == 0 || (!force && outbox.live() < batch_max) {
                return Ok(());
            }
            if outbox.credit() == 0 {
                outbox.mark_stalled(now);
                return Ok(());
            }
            let take = batch_max.min(outbox.credit());
            let deltas = outbox.take_batch(take);
            outbox.consume_credit(deltas.len());
            if deltas.is_empty() {
                return Ok(());
            }
            secureblox_telemetry::histogram!("engine_stream_batch_deltas")
                .record(deltas.len() as u64);
            outbox.seq += 1;
            let seq = outbox.seq;
            self.ship_envelope(dest, UpdateEnvelope { seq, deltas }, now)?;
        }
    }

    /// Force-flush every outbox of this node still holding deltas (see
    /// [`NodeCtx::drain_outbox`]'s Nagle hold) — the per-node body of both
    /// executors' quiescence step.  Returns whether anything shipped.
    pub(crate) fn flush_residues(&mut self) -> Result<bool> {
        let pending: Vec<(usize, usize)> = self
            .node
            .outboxes
            .iter()
            .filter(|(_, outbox)| outbox.live() > 0)
            .map(|(&dest, outbox)| (dest, outbox.live()))
            .collect();
        let now = self.node.available_at;
        let mut shipped = false;
        for (dest, before) in pending {
            self.drain_outbox(dest, now, true)?;
            shipped |= self.node.outboxes[&dest].live() < before;
        }
        Ok(shipped)
    }

    /// Encode (and, under AES, encrypt) one update-stream envelope and send
    /// it on the link's FIFO stream.
    fn ship_envelope(
        &mut self,
        dest: usize,
        envelope: UpdateEnvelope,
        send_time: VirtualTime,
    ) -> Result<()> {
        if self.config.sharding.is_some() {
            let bytes: usize = envelope
                .deltas
                .iter()
                .filter(|delta| is_exchange_pred(&delta.pred))
                .map(|delta| {
                    delta.pred.len() + serialize_tuple(&delta.tuple).len() + delta.signature.len()
                })
                .sum();
            if bytes > 0 {
                self.node.ledger.record_exchange(bytes);
                secureblox_telemetry::counter!("engine_shard_exchange_bytes_total")
                    .add(bytes as u64);
            }
        }
        let mut payload = envelope.encode();
        if self.config.security.enc == EncScheme::Aes128 {
            let from_principal = &self.node.info.principal;
            let to_principal = &self.shared.principals[dest];
            let secret = self
                .shared
                .keystore
                .shared_secret(from_principal, to_principal)
                .map_err(|e| DatalogError::Eval(e.to_string()))?;
            payload = aes128_ctr_encrypt(secret, &payload);
        }
        let envelope = Message::new(
            NodeId(self.index as u32),
            NodeId(dest as u32),
            MessageKind::Update,
            payload,
        );
        self.send(envelope, send_time, Link::Fifo);
        Ok(())
    }

    /// Find the detached signature for a `says$T` tuple in the corresponding
    /// `sig$T` relation (empty when the scheme carries no signatures), via a
    /// secondary index on the tuple prefix — built once, maintained
    /// incrementally — instead of a linear scan per exported tuple.
    fn lookup_signature(&mut self, param: &str, says_tuple: &[Value]) -> Vec<u8> {
        let sig_pred = format!("sig${param}");
        let cols = column_set(0..says_tuple.len());
        for tuple in self
            .node
            .workspace
            .probe_indexed(&sig_pred, cols, says_tuple)
        {
            if tuple.len() == says_tuple.len() + 1 {
                if let Some(bytes) = tuple[says_tuple.len()].as_bytes() {
                    return bytes.to_vec();
                }
            }
        }
        Vec::new()
    }

    // ------------------------------------------------------------------
    // Anonymity circuits
    // ------------------------------------------------------------------

    fn circuit_for(&self, endpoint: &str) -> Option<&Circuit> {
        let endpoint_index = *self.shared.principal_index.get(endpoint)?;
        self.shared
            .circuits
            .iter()
            .find(|c| c.initiator == self.index && c.endpoint == endpoint_index)
    }

    /// Wrap an `anon_says$T` delta in onion layers and address it to the
    /// first hop of this node's circuit to the destination.
    fn onion_wrap_forward(
        &self,
        param: &str,
        destination: &str,
        tuple: &[Value],
        op: DeltaOp,
    ) -> Result<Message> {
        let circuit = self.circuit_for(destination).ok_or_else(|| {
            DatalogError::Eval(format!(
                "no anonymity circuit from {} to {destination}; declare it in DeploymentConfig::circuits",
                self.node.info.principal
            ))
        })?;
        // The serialized payload omits the initiator: the endpoint can only
        // name the circuit (paper §6.2).  Circuit traffic rides the same
        // delta envelope as peer streams; the onion layers authenticate it in
        // place of a detached signature.
        let envelope = UpdateEnvelope {
            seq: 0,
            deltas: vec![UpdateDelta {
                op,
                pred: param.to_string(),
                tuple: tuple[2..].to_vec(),
                signature: Vec::new(),
            }],
        };
        let mut body = envelope.encode();
        for key in circuit.keys.iter().rev() {
            body = aes128_ctr_encrypt(key, &body);
        }
        let first_hop = circuit.relays.first().copied().unwrap_or(circuit.endpoint);
        let payload = encode_anon_cell(circuit.id, 0, &body);
        Ok(Message::new(
            NodeId(self.index as u32),
            NodeId(first_hop as u32),
            MessageKind::AnonForward,
            payload,
        ))
    }

    /// Wrap an `anon_says_id_out$T` reply delta for the backward direction.
    fn onion_wrap_backward(
        &self,
        param: &str,
        tuple: &[Value],
        op: DeltaOp,
    ) -> Result<Option<Message>> {
        let Some(circuit_id) = tuple[0].as_int() else {
            return Ok(None);
        };
        let Some(circuit) = self
            .shared
            .circuits
            .iter()
            .find(|c| c.id == circuit_id as u64 && c.endpoint == self.index)
        else {
            return Ok(None);
        };
        let envelope = UpdateEnvelope {
            seq: 0,
            deltas: vec![UpdateDelta {
                op,
                pred: param.to_string(),
                tuple: tuple[1..].to_vec(),
                signature: Vec::new(),
            }],
        };
        // The endpoint adds its own layer; each relay will add one more on
        // the way back and the initiator peels them all.
        let body = aes128_ctr_encrypt(
            circuit.keys.last().expect("endpoint key"),
            &envelope.encode(),
        );
        let (next, hop) = match circuit.relays.last() {
            Some(&relay) => (relay, circuit.relays.len() as u32 - 1),
            None => (circuit.initiator, u32::MAX),
        };
        let payload = encode_anon_cell(circuit.id, hop, &body);
        Ok(Some(Message::new(
            NodeId(self.index as u32),
            NodeId(next as u32),
            MessageKind::AnonBackward,
            payload,
        )))
    }

    // ------------------------------------------------------------------
    // Delivery
    // ------------------------------------------------------------------

    /// Take one delivered message: record the receive side in this node's
    /// ledger and dispatch on the kind.  `message.from` is the sender's claim;
    /// one that names no node of the deployment is refused here, whatever the
    /// kind, so nothing below indexes with it.
    pub(crate) fn deliver(&mut self, message: Message, arrival: VirtualTime) -> Result<()> {
        self.node.ledger.record_receive(message.wire_size());
        if message.from.index() >= self.shared.principals.len() {
            self.node.ledger.record_rejection(arrival);
            return Ok(());
        }
        match message.kind {
            MessageKind::Update => self.deliver_update(message, arrival),
            MessageKind::AnonForward => self.deliver_anon_forward(message, arrival),
            MessageKind::AnonBackward => self.deliver_anon_backward(message, arrival),
            MessageKind::Credit => self.deliver_credit(message, arrival),
        }
    }

    /// A credit grant travelling back to a sender: top up the link's outbox
    /// window (capped at the high-water mark, so forged or replayed grants
    /// can refill but never grow it) and resume a stalled stream.
    fn deliver_credit(&mut self, message: Message, arrival: VirtualTime) -> Result<()> {
        let Some(granted) = secureblox_net::message::decode_credit(&message.payload) else {
            // Malformed grant — drop it rather than trusting the count.
            self.node.ledger.record_rejection(arrival);
            return Ok(());
        };
        // The grant is addressed to the sender side of the data stream: this
        // node is the sender, `message.from` the receiver that granted.
        let dest = message.from.index();
        let Some(outbox) = self.node.outboxes.get_mut(&dest) else {
            // Credit for a link this node never sent on (forged): ignore.  A
            // link that carried only onion cells has an empty outbox with a
            // full window: the grant is capped and ships nothing.
            return Ok(());
        };
        if let Some(stalled_for) = outbox.grant_credit(granted, arrival) {
            secureblox_telemetry::histogram!("engine_stream_stall_ns").record(stalled_for);
        }
        self.drain_outbox(dest, arrival, false)
    }

    /// Apply one inbound update-stream envelope: decrypt, decode, drop stale
    /// duplicates, then apply every delta in order — each `Assert` as its own
    /// ACID transaction (paper semantics), each `Retract` as a verified
    /// incremental deletion.
    fn deliver_update(&mut self, message: Message, arrival: VirtualTime) -> Result<()> {
        let _apply_timer = secureblox_telemetry::histogram!("engine_update_apply_ns").start_timer();
        let mut update_span =
            secureblox_telemetry::span("engine", "update_apply").node(message.to.0 as u64);
        let from_principal = self.shared.principals[message.from.index()].clone();
        let mut payload = message.payload;
        if self.config.security.enc == EncScheme::Aes128 {
            let secret = self
                .shared
                .keystore
                .shared_secret(&self.node.info.principal, &from_principal)
                .map_err(|e| DatalogError::Eval(e.to_string()))?;
            match aes128_ctr_decrypt(secret, &payload) {
                Ok(plain) => payload = plain,
                Err(_) => {
                    self.node.ledger.record_rejection(arrival);
                    return Ok(());
                }
            }
        }
        let envelope = match UpdateEnvelope::decode(&payload) {
            Ok(envelope) => envelope,
            Err(_) => {
                self.node.ledger.record_rejection(arrival);
                return Ok(());
            }
        };
        // At-most-once per delta: links are FIFO, so a sequence number at or
        // below the highest *accepted* sequence from this sender is a
        // duplicate of an already applied envelope and is dropped whole.
        if let Some(&last) = self.node.last_update_seq_in.get(&message.from.0) {
            if envelope.seq <= last {
                return Ok(());
            }
        }
        // The watermark advances below only when some delta produces
        // policy-accepted evidence (a committed transaction or a
        // signature-verified retraction).  An envelope of forged deltas —
        // whatever sequence number it claims — must not be able to mute the
        // link for the peer's legitimate traffic.
        update_span.record_field("from", message.from.0 as u64);
        update_span.record_field("seq", envelope.seq);
        update_span.record_field("deltas", envelope.deltas.len() as u64);
        // Shuffle-apply latency: wall time to apply an envelope that carries
        // exchange deltas — the receive half of a shard exchange step.
        let _shuffle_timer = envelope
            .deltas
            .iter()
            .any(|delta| is_exchange_pred(&delta.pred))
            .then(|| {
                secureblox_telemetry::histogram!("engine_shard_shuffle_apply_ns").start_timer()
            });
        let accepted = self.drain_inbox(message.from, &envelope.deltas, arrival)?;
        if accepted {
            let last = self
                .node
                .last_update_seq_in
                .entry(message.from.0)
                .or_insert(0);
            *last = (*last).max(envelope.seq);
        }
        update_span.record_field("accepted", accepted as u64);
        Ok(())
    }

    /// Apply one inbound update-stream delta — the one place a peer's change
    /// enters this node.  Returns
    /// `(evidence, changed)`: whether the delta produced policy-accepted
    /// evidence (a committed transaction or an authorized retraction), and
    /// whether it changed the database so update streams need a flush.
    ///
    /// An `Assert` is its own ACID transaction (paper semantics): the
    /// receiver's constraints — signature verification, trust, write access
    /// — accept it or roll it back.  A `Retract` gets the channel-level
    /// mirror of those constraints (only the principal that said a fact, and
    /// whose signature still verifies over it, may retract it, and only at
    /// the addressee), then deletion.  So does a re-`Assert` of a `says$T` tuple
    /// already held whose `sig$T` row is not: no new `says$T` tuple means no
    /// constraint would look at the signature, and an unverified row must
    /// not reach the EDB, the WAL or the link's sequence watermark.
    fn apply_delta(
        &mut self,
        from_principal: &str,
        delta: &UpdateDelta,
        arrival: VirtualTime,
    ) -> Result<(bool, bool)> {
        let batch = delta_batch(delta);
        let unchecked_by_constraints = match delta.op {
            DeltaOp::Retract => true,
            DeltaOp::Assert => {
                let workspace = &self.node.workspace;
                workspace.contains_fact(&batch[0].0, &batch[0].1)
                    && !batch
                        .get(1)
                        .is_some_and(|(pred, tuple)| workspace.contains_fact(pred, tuple))
            }
        };
        if unchecked_by_constraints && !self.delta_authorized(from_principal, delta)? {
            self.node.ledger.record_rejection(arrival);
            return Ok((false, false));
        }
        let changed = matches!(
            self.commit(delta.op.into(), batch, arrival)?,
            Verdict::Changed
        );
        // An authorized retraction is evidence whatever it found stored.
        Ok((changed || delta.op == DeltaOp::Retract, changed))
    }

    /// The channel-level authorization of a delta the datalog constraints
    /// will not see: it names the sending principal and this node as its
    /// `says` principals, and its detached signature verifies under the
    /// deployment's authentication scheme — the same coverage the generated
    /// `sig$T` rules sign: the canonical encoding of the payload columns
    /// (after the two principal columns).
    fn delta_authorized(&self, from_principal: &str, delta: &UpdateDelta) -> Result<bool> {
        let to_principal = self.node.info.principal.as_str();
        if delta.tuple.len() < 2
            || delta.tuple[0].as_str() != Some(from_principal)
            || delta.tuple[1].as_str() != Some(to_principal)
        {
            return Ok(false);
        }
        secureblox_telemetry::counter!("engine_signature_checks_total").inc();
        let _verify_timer =
            secureblox_telemetry::histogram!("engine_update_verify_ns").start_timer();
        let payload = serialize_tuple(&delta.tuple[2..]);
        match self.config.security.auth {
            AuthScheme::NoAuth => Ok(true),
            AuthScheme::HmacSha1 => {
                let secret = self
                    .shared
                    .keystore
                    .shared_secret(to_principal, from_principal)
                    .map_err(|e| DatalogError::Eval(e.to_string()))?;
                Ok(hmac_sha1_verify(secret, &payload, &delta.signature))
            }
            AuthScheme::Rsa => {
                let public = self
                    .shared
                    .keystore
                    .public_key(from_principal)
                    .map_err(|e| DatalogError::Eval(e.to_string()))?;
                Ok(public.verify(&payload, &RsaSignature(delta.signature.clone())))
            }
        }
    }

    /// Apply one delivered envelope's deltas in order, each through
    /// [`NodeCtx::apply_delta`] with exactly the verdict it would get in an
    /// envelope of its own.  What the batch amortizes is *scheduling*, not
    /// semantics: one export flush per drained envelope instead of one per
    /// committed delta (the deltas' export candidates accumulate, and the
    /// flush judges them against the workspace and the `sent` cursor as they
    /// stand then, so a tuple the envelope both added and removed ships
    /// nothing), plus the sender-side coalescing and credit return below.
    /// Returns whether any delta produced policy-accepted evidence.
    fn drain_inbox(
        &mut self,
        from: NodeId,
        deltas: &[UpdateDelta],
        arrival: VirtualTime,
    ) -> Result<bool> {
        let to_id = NodeId(self.index as u32);
        secureblox_telemetry::histogram!("engine_stream_recv_batch_deltas")
            .record(deltas.len() as u64);
        if deltas.is_empty() {
            return Ok(false);
        }
        let from_principal = self.shared.principals[from.index()].clone();
        let mut accepted = false;
        let mut dirty = false;
        for delta in deltas {
            let (evidence, changed) = self.apply_delta(&from_principal, delta, arrival)?;
            accepted |= evidence;
            dirty |= changed;
        }
        if dirty {
            let now = self.node.available_at;
            self.flush_updates(now)?;
        }
        // Return the drained deltas' credit once the applies finish.  The
        // grant is unconditional — rejected deltas were still drained — so
        // every shipped delta eventually refills the sender's window and a
        // stalled outbox can never deadlock.  Credit rides a plain
        // (unordered) message: grants are cumulative counts, order-free.
        let send_at = arrival.max(self.node.available_at);
        secureblox_telemetry::counter!("engine_stream_credits_total").inc();
        let grant = Message::new(
            to_id,
            from,
            MessageKind::Credit,
            secureblox_net::message::encode_credit(deltas.len() as u64),
        );
        self.send(grant, send_at, Link::Unordered);
        Ok(accepted)
    }

    fn deliver_anon_forward(&mut self, message: Message, arrival: VirtualTime) -> Result<()> {
        let here = self.index;
        let Some((circuit, hop, body)) = open_anon_cell(self.shared, &message.payload) else {
            self.node.ledger.record_rejection(arrival);
            return Ok(());
        };
        // The hop index is the sender's claim.  One that names no key of this
        // circuit is refused here, so nothing below indexes with it.
        let hop = hop as usize;
        let Some(peeled) = circuit
            .keys
            .get(hop)
            .and_then(|key| aes128_ctr_decrypt(key, body).ok())
        else {
            self.node.ledger.record_rejection(arrival);
            return Ok(());
        };
        // One key per relay, then the endpoint's: the last hop is the endpoint.
        if hop == circuit.relays.len() {
            // Deliver into the endpoint's workspace keyed by the circuit.
            let Ok(envelope) = UpdateEnvelope::decode(&peeled) else {
                self.node.ledger.record_rejection(arrival);
                return Ok(());
            };
            for delta in envelope.deltas {
                let mut tuple = vec![Value::Int(circuit.id as i64)];
                tuple.extend(delta.tuple);
                let batch = vec![(format!("anon_says_id_in${}", delta.pred), tuple)];
                // The onion layers already authenticate circuit traffic; a
                // withdrawal needs no detached signature.
                self.commit_and_flush(delta.op.into(), batch, arrival)?;
            }
            return Ok(());
        }
        // Relay: forward the peeled cell to the next hop.
        let next_hop_index = hop + 1;
        let next = circuit
            .relays
            .get(next_hop_index)
            .copied()
            .unwrap_or(circuit.endpoint);
        let forward = Message::new(
            NodeId(here as u32),
            NodeId(next as u32),
            MessageKind::AnonForward,
            encode_anon_cell(circuit.id, next_hop_index as u32, &peeled),
        );
        let send_at = arrival.max(self.node.available_at);
        self.node.available_at = send_at;
        self.send(forward, send_at, Link::Fifo);
        Ok(())
    }

    fn deliver_anon_backward(&mut self, message: Message, arrival: VirtualTime) -> Result<()> {
        let here = self.index;
        let Some((circuit, hop, body)) = open_anon_cell(self.shared, &message.payload) else {
            self.node.ledger.record_rejection(arrival);
            return Ok(());
        };
        if hop == u32::MAX || here == circuit.initiator {
            // Initiator: peel every layer (relays in forward order, then the
            // endpoint's innermost layer).
            let mut plain = body.to_vec();
            for key in &circuit.keys {
                match aes128_ctr_decrypt(key, &plain) {
                    Ok(next) => plain = next,
                    Err(_) => {
                        self.node.ledger.record_rejection(arrival);
                        return Ok(());
                    }
                }
            }
            let Ok(envelope) = UpdateEnvelope::decode(&plain) else {
                self.node.ledger.record_rejection(arrival);
                return Ok(());
            };
            for delta in envelope.deltas {
                let batch = vec![(format!("anon_reply${}", delta.pred), delta.tuple)];
                self.commit_and_flush(delta.op.into(), batch, arrival)?;
            }
            return Ok(());
        }
        // Relay: add this hop's layer and forward towards the initiator.  A
        // hop that names no relay of this circuit (and so no relay key) is
        // refused, never indexed with.
        let hop = hop as usize;
        let (Some(_), Some(key)) = (circuit.relays.get(hop), circuit.keys.get(hop)) else {
            self.node.ledger.record_rejection(arrival);
            return Ok(());
        };
        let wrapped = aes128_ctr_encrypt(key, body);
        let (next, next_hop) = match hop.checked_sub(1).and_then(|prev| circuit.relays.get(prev)) {
            Some(&relay) => (relay, hop as u32 - 1),
            None => (circuit.initiator, u32::MAX),
        };
        let forward = Message::new(
            NodeId(here as u32),
            NodeId(next as u32),
            MessageKind::AnonBackward,
            encode_anon_cell(circuit.id, next_hop, &wrapped),
        );
        let send_at = arrival.max(self.node.available_at);
        self.node.available_at = send_at;
        self.send(forward, send_at, Link::Fifo);
        Ok(())
    }
}

/// Facts as the store's `log_*` groups take them.
fn fact_refs(facts: &[(String, Tuple)]) -> impl Iterator<Item = (&str, &Tuple)> {
    facts.iter().map(|(pred, tuple)| (pred.as_str(), tuple))
}

/// A store failure under a commit or a flush, as the engine reports it.
fn durability(error: StoreError) -> DatalogError {
    DatalogError::Eval(format!("durability: {error}"))
}

/// The receiver-side insertion batch for one update-stream delta: the
/// `says$T` tuple plus, when a detached signature rides along, the matching
/// `sig$T` row the generated verification constraints consume.
fn delta_batch(delta: &UpdateDelta) -> Vec<(String, Tuple)> {
    let mut batch: Vec<(String, Tuple)> =
        vec![(format!("says${}", delta.pred), delta.tuple.clone())];
    if !delta.signature.is_empty() {
        let mut sig_tuple = delta.tuple.clone();
        sig_tuple.push(Value::bytes(delta.signature.clone()));
        batch.push((format!("sig${}", delta.pred), sig_tuple));
    }
    batch
}

/// Encode an anonymity cell: circuit id, hop index, body.
fn encode_anon_cell(circuit_id: u64, hop: u32, body: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(12 + body.len());
    out.extend_from_slice(&circuit_id.to_be_bytes());
    out.extend_from_slice(&hop.to_be_bytes());
    out.extend_from_slice(body);
    out
}

/// An inbound anonymity cell's circuit, claimed hop and body; `None` when it
/// does not parse or names no circuit of this deployment.
fn open_anon_cell<'s, 'p>(
    shared: &'s EngineShared,
    payload: &'p [u8],
) -> Option<(&'s Circuit, u32, &'p [u8])> {
    let (circuit_id, hop, body) = decode_anon_cell(payload).ok()?;
    let circuit = shared.circuits.iter().find(|c| c.id == circuit_id)?;
    Some((circuit, hop, body))
}

/// Decode an anonymity cell written by [`encode_anon_cell`].
fn decode_anon_cell(payload: &[u8]) -> std::result::Result<(u64, u32, &[u8]), DecodeError> {
    let mut reader = Reader::new(payload);
    Ok((reader.u64()?, reader.u32()?, reader.rest()))
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::apps::anonjoin::{build_deployment, AnonJoinConfig};
    use proptest::prelude::*;
    use secureblox_net::LatencyModel;

    /// A sink that keeps what it is handed, in order.
    impl NetSink for Vec<(VirtualTime, Message)> {
        fn enqueue(&mut self, deliver_at: VirtualTime, message: Message) {
            self.push((deliver_at, message));
        }
    }

    /// `NodeCtx::send` decides every delivery time: a FIFO message waits for
    /// its link's floor, which update envelopes and onion cells share; an
    /// unordered one neither waits for the floor nor moves it; the latency
    /// sample is the stamped time minus the send time.  The latency model
    /// is slow enough (2^50 ns of propagation) that no other test's samples
    /// reach the histogram buckets checked here.
    #[test]
    fn send_stamps_the_link_floor_and_the_sink_only_enqueues() {
        let latency = LatencyModel {
            propagation: Duration::from_nanos(1 << 50),
            bandwidth_bytes_per_sec: 1_000_000,
        };
        let mut deployment = build_deployment(&AnonJoinConfig {
            latency: latency.clone(),
            ..AnonJoinConfig::default()
        })
        .unwrap();
        let mut sink = Vec::new();
        let mut ctx = NodeCtx {
            index: 0,
            node: &mut deployment.nodes[0],
            shared: &deployment.shared,
            config: &deployment.config,
            net: &mut sink,
        };
        let message = |to, kind, len| Message::new(NodeId(0), NodeId(to), kind, vec![0u8; len]);
        let now = 1_000;
        let later = now + (1 << 52);
        let sends = [
            (message(1, MessageKind::Update, 10_000), now, Link::Fifo),
            (message(1, MessageKind::Update, 10), now, Link::Fifo),
            (message(1, MessageKind::AnonForward, 10), now, Link::Fifo),
            (message(1, MessageKind::Credit, 8), now, Link::Unordered),
            (message(1, MessageKind::Credit, 8), later, Link::Unordered),
            (message(1, MessageKind::Update, 10), now, Link::Fifo),
            (message(2, MessageKind::AnonForward, 10), now, Link::Fifo),
        ];
        let sent_at: Vec<VirtualTime> = sends.iter().map(|(_, at, _)| *at).collect();
        for (message, at, link) in sends {
            ctx.send(message, at, link);
        }
        // The link to node 2 carries only onion cells, so its outbox is
        // empty with a full window: a forged credit on it is capped and
        // ships nothing.
        let credit = secureblox_net::message::encode_credit(u64::MAX);
        let forged = Message::new(NodeId(2), NodeId(0), MessageKind::Credit, credit);
        ctx.deliver(forged, now).unwrap();
        let onion_only = &deployment.nodes[0].outboxes[&2];
        assert_eq!(
            onion_only.credit(),
            deployment.config.streaming.queue_high_water
        );
        assert_eq!(sink.len(), sent_at.len());
        let stamped: Vec<VirtualTime> = sink.iter().map(|(at, _)| *at).collect();
        let unfloored = |i: usize| latency.deliver_at(sent_at[i], sink[i].1.wire_size(), 0);
        // The large envelope sets the floor; the small one behind it would
        // overtake without it, and waits.
        assert_eq!(stamped[0], unfloored(0));
        assert!(unfloored(1) < stamped[0]);
        assert_eq!(stamped[1], stamped[0]);
        // An onion cell on the same link waits for the same floor.
        assert_eq!(stamped[2], stamped[0]);
        // An unordered grant overtakes the stream, and a later one that
        // lands past the floor does not raise it.
        assert_eq!(stamped[3], unfloored(3));
        assert!(stamped[3] < stamped[0]);
        assert_eq!(stamped[4], unfloored(4));
        assert!(stamped[4] > stamped[0]);
        assert_eq!(stamped[5], stamped[0]);
        // Another link has a floor of its own.
        assert_eq!(stamped[6], unfloored(6));
        // One latency sample per send, each `stamped - sent_at`.
        for (kind, label) in [
            (MessageKind::Update, "update"),
            (MessageKind::AnonForward, "anon_forward"),
            (MessageKind::Credit, "credit"),
        ] {
            let samples: Vec<u64> = (0..sink.len())
                .filter(|&i| sink[i].1.kind == kind)
                .map(|i| stamped[i] - sent_at[i])
                .collect();
            let name = format!("net_message_latency_ns{{kind=\"{label}\"}}");
            let histogram = secureblox_telemetry::registry().histogram(&name);
            let buckets = histogram.nonzero_buckets().into_iter();
            let ours: u64 = buckets.filter(|b| b.0 > 50).map(|b| b.1).sum();
            assert_eq!(ours, samples.len() as u64, "{label}");
            assert_eq!(histogram.max(), *samples.iter().max().unwrap(), "{label}");
        }
    }

    #[test]
    fn anon_cell_roundtrip() {
        let cell = encode_anon_cell(7, 2, b"body bytes");
        let (id, hop, body) = decode_anon_cell(&cell).unwrap();
        assert_eq!((id, hop), (7, 2));
        assert_eq!(body, b"body bytes");
        let truncated = decode_anon_cell(&cell[..5]);
        assert_eq!(truncated, Err(DecodeError::Truncated { offset: 0 }));
    }

    /// Every mutant of `valid` the decoder properties feed a decoder: its
    /// truncations, bit flips, the `u32` at every offset overwritten with 0,
    /// `u32::MAX` and itself ± 1, splices with `other` (another valid
    /// encoding) and extensions.  `tests/props_decoders.rs` has the same
    /// set for the public decoders.
    pub(crate) fn mutants(valid: &[u8], other: &[u8], rng: &mut TestRng) -> Vec<Vec<u8>> {
        let mut out: Vec<Vec<u8>> = (0..valid.len()).map(|cut| valid[..cut].to_vec()).collect();
        for _ in 0..8 {
            let mut flipped = valid.to_vec();
            if !flipped.is_empty() {
                let at = rng.below(flipped.len());
                flipped[at] ^= 1 << rng.below(8);
            }
            out.push(flipped);
        }
        for at in 0..valid.len().saturating_sub(3) {
            let was = u32::from_be_bytes(valid[at..at + 4].try_into().unwrap());
            for value in [0, u32::MAX, was.wrapping_sub(1), was.wrapping_add(1)] {
                let mut overwritten = valid.to_vec();
                overwritten[at..at + 4].copy_from_slice(&value.to_be_bytes());
                out.push(overwritten);
            }
        }
        for _ in 0..4 {
            let (head, tail) = (rng.below(valid.len() + 1), rng.below(other.len() + 1));
            out.push([&valid[..head], &other[tail..]].concat());
        }
        let garbage: Vec<u8> = (0..1 + rng.below(8))
            .map(|_| rng.next_u64() as u8)
            .collect();
        out.push([valid, &garbage].concat());
        out.push([valid, other].concat());
        out
    }

    proptest! {
        /// The anonymity cell decoder on every mutant of a random cell: a
        /// typed error or a cell that re-encodes to exactly its bytes.
        #[test]
        fn anon_cell_decoder_accepts_exactly_what_it_encodes(
            cells in proptest::collection::vec(
                (any::<u64>(), any::<u32>(), proptest::collection::vec(any::<u8>(), 0..24)),
                2,
            ),
            seed in any::<u64>(),
        ) {
            let [a, b] = [0, 1].map(|i| encode_anon_cell(cells[i].0, cells[i].1, &cells[i].2));
            for mutant in mutants(&a, &b, &mut TestRng::seed_from_u64(seed)) {
                match decode_anon_cell(&mutant) {
                    Ok((id, hop, body)) => prop_assert_eq!(encode_anon_cell(id, hop, body), mutant),
                    Err(error) => prop_assert!(mutant.len() < 12, "{error}"),
                }
            }
        }
    }

    /// Regression (remote abort): a cell's hop index is the sender's claim.
    /// One that names no key or no relay of the circuit used to index
    /// `circuit.relays` out of bounds (and to "decrypt" under an empty default
    /// key on the way there).  Every node refuses it as a rejection, in both
    /// directions, on a relay-less and on a 2-relay circuit.
    #[test]
    fn an_out_of_range_hop_is_a_rejection_not_a_panic() {
        for relays in [0usize, 2] {
            let mut deployment = build_deployment(&AnonJoinConfig {
                num_relays: relays,
                public_rows: 6,
                interest_rows: 2,
                ..AnonJoinConfig::default()
            })
            .unwrap();
            deployment.run().unwrap();
            for hop in [relays as u32 + 1, 9, u32::MAX - 1] {
                for kind in [MessageKind::AnonForward, MessageKind::AnonBackward] {
                    for to in 0..deployment.node_count() {
                        let before = deployment.nodes[to].ledger.rejected_batches();
                        let from = NodeId(((to + 1) % deployment.node_count()) as u32);
                        let cell = encode_anon_cell(0, hop, &[0xAB; 32]);
                        let message = Message::new(from, NodeId(to as u32), kind, cell);
                        let outcome = deployment.node_ctx(to).deliver(message, 0);
                        let what = format!("{relays} relays, hop {hop}, {kind:?} at node {to}");
                        assert!(outcome.is_ok(), "{what}: {outcome:?}");
                        let after = deployment.nodes[to].ledger.rejected_batches();
                        assert_eq!(after, before + 1, "{what}");
                    }
                }
            }
        }
    }
}
