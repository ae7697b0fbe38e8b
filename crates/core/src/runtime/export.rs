//! Export candidates and the export cursor's keys: what a node's commits
//! hand its update streams, and how the streams remember what they shipped.
//!
//! A node ships the `says` tuples its transactions *derived* (paper §2, §6).
//! Every runtime commit — transaction, retraction, recovery replay — reports
//! its net delta from the evaluation journal (`Commit::added`,
//! `Commit::removed`); [`ExportCandidates::absorb`] keeps the
//! exportable part, classified once per generated predicate, and
//! `NodeCtx::flush_updates` reads nothing else.  A flush therefore costs
//! O(delta), whatever the relations hold.
//!
//! What a flush shipped it keeps in id space (DESIGN.md §9.3): the cursor
//! (`NodeState::sent`) and the link outboxes key a fact by an
//! [`ExportKey`], and a signature is its dictionary id.  The workspace's
//! dictionary never frees an id, so a key names its values for the
//! workspace's lifetime, after the stored fact is gone too — which is what
//! a later withdrawal needs.

use secureblox_datalog::value::{tuple_total_cmp, Tuple, Value};
use secureblox_datalog::{FactDelta, FnvMap};

/// Which export channel a generated predicate feeds.
#[derive(Debug, Clone, Copy)]
pub(super) enum ExportChannel {
    /// `says$T`: a signed delta on the peer's update stream.
    Says,
    /// `anon_says$T`: onion-wrapped towards a circuit's endpoint.
    AnonForward,
    /// `anon_says_id_out$T`: an endpoint's reply back down its circuit.
    AnonBackward,
}

impl ExportChannel {
    /// What the generated predicate names of this channel start with.
    fn prefix(self) -> &'static str {
        match self {
            ExportChannel::Says => "says$",
            ExportChannel::AnonForward => "anon_says$",
            ExportChannel::AnonBackward => "anon_says_id_out$",
        }
    }

    /// `None` for a predicate no channel reads.
    fn of(pred: &str) -> Option<ExportChannel> {
        use ExportChannel::*;
        [Says, AnonForward, AnonBackward]
            .into_iter()
            .find(|channel| pred.starts_with(channel.prefix()))
    }

    /// Whether `tuple` is this node's to ship: said by `principal` (and, on
    /// the peer stream, to somebody else).  Replies are keyed by circuit.
    pub(super) fn originates_at(self, principal: &str, tuple: &[Value]) -> bool {
        let column = |i: usize| tuple.get(i).and_then(|v| v.as_str());
        match self {
            ExportChannel::Says => {
                tuple.len() >= 2 && column(0) == Some(principal) && column(1) != Some(principal)
            }
            ExportChannel::AnonForward => tuple.len() >= 2 && column(0) == Some(principal),
            ExportChannel::AnonBackward => !tuple.is_empty(),
        }
    }
}

/// A generated predicate one of a node's export channels reads, numbered in
/// the order the node first saw it ([`ExportPreds`]).
pub(crate) type ExportPred = u32;

/// One shipped fact in id space: its [`ExportPred`], then the dictionary id
/// row of its tuple.  One slice, so the cursor is probed with a borrowed
/// `&[u32]` and never allocates to ask.
pub(crate) type ExportKey = Box<[u32]>;

/// The signature id of a fact shipped without one (NoAuth, circuit
/// traffic): no dictionary entry stands for the empty signature.
pub(crate) const NO_SIGNATURE: u32 = u32::MAX;

/// The queue position of a cursor entry whose `Assert` was never queued on
/// a link outbox (circuit traffic, an unknown addressee, a recovered entry).
pub(crate) const NOT_QUEUED: u64 = u64::MAX;

/// A cursor entry: what one shipped fact went out with.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Shipped {
    /// Dictionary id of the detached signature, or [`NO_SIGNATURE`].
    pub(crate) signature: u32,
    /// Absolute position of the fact's `Assert` in its link outbox, where a
    /// matching `Retract` annihilates it while it is still queued
    /// (`LinkOutbox::annihilate` checks it against the outbox's front).
    pub(crate) queued: u64,
}

/// What the export plane knows of one generated predicate.
#[derive(Debug)]
struct ExportPredicate {
    /// The generated name, e.g. `says$link`.
    name: String,
    channel: ExportChannel,
    /// `sig$T`, where a `says$T` fact's detached signature is stored.
    signatures: String,
}

/// A node's numbering of the generated predicates its channels read.  A
/// handful per program, so a number costs the cursor 4 bytes per fact
/// where the name cost a `String`.
#[derive(Debug, Default)]
pub(crate) struct ExportPreds {
    table: Vec<ExportPredicate>,
    numbers: FnvMap<String, ExportPred>,
}

impl ExportPreds {
    /// The number of generated predicate `name`, assigned on first sight;
    /// `None` for a predicate no channel reads.
    pub(crate) fn number(&mut self, name: &str) -> Option<ExportPred> {
        let channel = ExportChannel::of(name)?;
        if let Some(&number) = self.numbers.get(name) {
            return Some(number);
        }
        let number = self.table.len() as ExportPred;
        let param = &name[channel.prefix().len()..];
        self.table.push(ExportPredicate {
            name: name.to_string(),
            channel,
            signatures: format!("sig${param}"),
        });
        self.numbers.insert(name.to_string(), number);
        Some(number)
    }

    /// The generated predicate name.
    pub(crate) fn name(&self, pred: ExportPred) -> &str {
        &self.table[pred as usize].name
    }

    pub(super) fn channel(&self, pred: ExportPred) -> ExportChannel {
        self.table[pred as usize].channel
    }

    /// The exported predicate `T`, as it is named on the wire.
    pub(crate) fn param(&self, pred: ExportPred) -> &str {
        let predicate = &self.table[pred as usize];
        &predicate.name[predicate.channel.prefix().len()..]
    }

    /// The `sig$T` relation holding the detached signatures of `says$T`.
    pub(crate) fn signatures(&self, pred: ExportPred) -> &str {
        &self.table[pred as usize].signatures
    }
}

/// One exportable tuple a commit added or removed.
#[derive(Debug)]
pub(super) struct ExportCandidate {
    pub(super) pred: ExportPred,
    pub(super) tuple: Tuple,
}

/// A node's export candidates since its last flush, and the numbering of
/// the predicates they are of.
#[derive(Debug, Default)]
pub(crate) struct ExportCandidates {
    pub(crate) preds: ExportPreds,
    added: Vec<ExportCandidate>,
    removed: Vec<ExportCandidate>,
}

impl ExportCandidates {
    /// Absorb the exportable part of one commit's delta.
    pub(crate) fn absorb(&mut self, added: FactDelta, removed: FactDelta) {
        for (delta, into) in [(added, &mut self.added), (removed, &mut self.removed)] {
            for (pred, tuples) in delta {
                let Some(pred) = self.preds.number(&pred) else {
                    continue;
                };
                into.extend(
                    tuples
                        .into_iter()
                        .map(|tuple| ExportCandidate { pred, tuple }),
                );
            }
        }
    }

    /// Hand everything pending to a flush as `(removed, added)`, each in
    /// the flush order the update stream has always had — generated
    /// predicate name, then [`tuple_total_cmp`] — so every envelope lists
    /// its deltas deterministically.
    pub(super) fn take_sorted(&mut self) -> (Vec<ExportCandidate>, Vec<ExportCandidate>) {
        let mut removed = std::mem::take(&mut self.removed);
        let mut added = std::mem::take(&mut self.added);
        let preds = &self.preds;
        for candidates in [&mut removed, &mut added] {
            candidates.sort_by(|a, b| {
                preds
                    .name(a.pred)
                    .cmp(preds.name(b.pred))
                    .then_with(|| tuple_total_cmp(&a.tuple, &b.tuple))
            });
        }
        (removed, added)
    }
}

#[cfg(test)]
mod tests {
    //! Journal-fed export ≡ the rescan it replaced.  The deleted full scan of
    //! `flush_updates` lives on here as the oracle: whenever a deployment is
    //! quiescent, each node's export cursor must hold exactly the exportable
    //! tuples its workspace stores that are its own to ship, and no candidate
    //! may be left pending.

    use super::ExportCandidate;
    use crate::apps::pathvector;
    use crate::policy::SecurityConfig;
    use crate::runtime::codec::{serialize_tuple, DeltaOp, UpdateDelta, UpdateEnvelope};
    use crate::runtime::engine::{Deployment, DeploymentConfig, NodeSpec, NodeState};
    use crate::runtime::reactor::ReactorConfig;
    use crate::runtime::shard::ShardMap;
    use crate::runtime::stream::StreamingConfig;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use secureblox_crypto::{hmac_sha1, AuthScheme, EncScheme};
    use secureblox_datalog::value::{tuple_total_cmp, Tuple, Value};
    use secureblox_datalog::DatalogError;
    use secureblox_net::MessageKind;
    use secureblox_store::{derive_node_key, DurabilityConfig, FactStore, WalOp};
    use std::collections::HashSet;
    use std::path::PathBuf;

    /// The oracle: scan every `says$T` relation for tuples said by this node
    /// to another principal, whatever commit derived them.  (None of the
    /// scenarios below declares an anonymity circuit.)
    fn rescan(node: &NodeState) -> HashSet<(String, Tuple)> {
        let me = node.info.principal.as_str();
        let mut exportable = HashSet::new();
        for pred in node.workspace.predicate_names() {
            if !pred.starts_with("says$") {
                continue;
            }
            for tuple in node.workspace.query(&pred) {
                let (from, to) = (tuple[0].as_str(), tuple[1].as_str());
                if from == Some(me) && to != Some(me) {
                    exportable.insert((pred.clone(), tuple));
                }
            }
        }
        exportable
    }

    /// The export cursor's facts, rehydrated from its id-space keys.
    fn cursor(node: &NodeState) -> HashSet<(String, Tuple)> {
        let preds = &node.export_pending.preds;
        let interner = node.workspace.interner();
        node.sent
            .keys()
            .map(|key| {
                (
                    preds.name(key[0]).to_string(),
                    interner.resolve_row(&key[1..]),
                )
            })
            .collect()
    }

    /// The facts of pending candidates.
    fn facts(node: &NodeState, candidates: &[ExportCandidate]) -> HashSet<(String, Tuple)> {
        let preds = &node.export_pending.preds;
        candidates
            .iter()
            .map(|c| (preds.name(c.pred).to_string(), c.tuple.clone()))
            .collect()
    }

    /// After every flush — so after every `run`, `retract`, `ingest` and
    /// local batch — the cursor is the rescan and nothing is pending.
    fn assert_cursor_is_the_rescan(deployment: &Deployment, when: &str) {
        for node in &deployment.nodes {
            let who = &node.info.principal;
            assert_eq!(cursor(node), rescan(node), "{who}: cursor != rescan {when}");
            assert!(
                node.export_pending.added.is_empty() && node.export_pending.removed.is_empty(),
                "{who}: candidates left pending {when}"
            );
        }
    }

    /// After `recover`, before the first flush: vanished cursor entries are
    /// in `sent` awaiting re-retraction, everything still derived is out of
    /// it and pending re-shipment.
    fn assert_recovery_owes_the_rescan(deployment: &Deployment) {
        for node in &deployment.nodes {
            let who = &node.info.principal;
            let (derived, cursor) = (rescan(node), cursor(node));
            assert!(
                cursor.is_disjoint(&derived),
                "{who}: a still-derived tuple was restored into the cursor"
            );
            assert!(
                derived.is_subset(&facts(node, &node.export_pending.added)),
                "{who}: a derived export is not pending re-shipment"
            );
            assert!(
                cursor.is_subset(&facts(node, &node.export_pending.removed)),
                "{who}: a vanished cursor entry is not a removed candidate"
            );
        }
    }

    const REACH_APP: &str = r#"
        link(N1, N2) -> node(N1), node(N2).
        remote_link(N1, N2) -> node(N1), node(N2).
        reach(N1, N2) -> node(N1), node(N2).
        exportable(`remote_link).

        says[`remote_link](self[], U, X, Y) <- link(X, Y), principal(U), U != self[].
        reach(X, Y) <- link(X, Y).
        reach(X, Y) <- remote_link(X, Y).
        reach(X, Z) <- reach(X, Y), reach(Y, Z).
    "#;

    fn name(i: usize) -> String {
        format!("n{i}")
    }

    fn link(a: usize, b: usize) -> (String, Tuple) {
        (
            "link".into(),
            vec![Value::str(name(a)), Value::str(name(b))],
        )
    }

    fn executors() -> Vec<(StreamingConfig, ReactorConfig)> {
        let mut matrix = Vec::new();
        for streaming in [
            StreamingConfig::unbatched(),
            StreamingConfig::with_knobs(4, 8),
        ] {
            for reactor in [ReactorConfig::disabled(), ReactorConfig::with_threads(2)] {
                matrix.push((streaming.clone(), reactor));
            }
        }
        matrix
    }

    fn config(streaming: StreamingConfig, reactor: ReactorConfig) -> DeploymentConfig {
        DeploymentConfig {
            security: SecurityConfig::new(AuthScheme::HmacSha1, EncScheme::None),
            streaming,
            reactor,
            durability: None,
            ..DeploymentConfig::default()
        }
    }

    fn random_reach_specs(rng: &mut StdRng, nodes: usize) -> Vec<NodeSpec> {
        (0..nodes)
            .map(|a| {
                let mut spec = NodeSpec::new(name(a));
                for b in 0..nodes {
                    if a != b && rng.gen_range(0..3) == 0 {
                        spec.base_facts.push(link(a, b));
                    }
                }
                spec
            })
            .collect()
    }

    /// Random REACH churn on one executor: stored and never-stored links are
    /// retracted, fresh and already-held links are asserted, and the oracle
    /// holds after every step and every re-convergence.  With `crash_in`, the
    /// deployment is durable there and is dropped and recovered mid-sequence,
    /// so the replay's commits face the same oracle as the live ones.  The
    /// crash comes at quiescence: a withdrawal that was flushed (its cursor
    /// entry cleared) and is still in flight dies with the simulated network,
    /// which no recovery can pay back (ROADMAP item 2).  Returns every node's
    /// final relations.
    fn reach_churn(
        streaming: &StreamingConfig,
        reactor: &ReactorConfig,
        seed: u64,
        crash_in: Option<&PathBuf>,
    ) -> Vec<Vec<Tuple>> {
        let mut rng = StdRng::seed_from_u64(seed);
        let nodes = rng.gen_range(3..6);
        let specs = random_reach_specs(&mut rng, nodes);
        let config = || DeploymentConfig {
            durability: crash_in.map(DurabilityConfig::new),
            ..config(streaming.clone(), reactor.clone())
        };
        let mut deployment = Deployment::build(REACH_APP, &specs, config()).unwrap();
        deployment.run().unwrap();
        assert_cursor_is_the_rescan(&deployment, "after the first run");
        for step in 0..8 {
            if let (Some(dir), 4) = (crash_in, step) {
                deployment.run().unwrap();
                drop(deployment);
                deployment = Deployment::recover(dir, REACH_APP, &specs, config()).unwrap();
                assert_recovery_owes_the_rescan(&deployment);
                deployment.run().unwrap();
                assert_cursor_is_the_rescan(&deployment, &format!("after recovery (seed {seed})"));
            }
            let (a, b) = (rng.gen_range(0..nodes), rng.gen_range(0..nodes));
            if a == b {
                continue;
            }
            let when = format!("(seed {seed}, step {step}, {a}->{b})");
            if rng.gen_range(0..2) == 0 {
                deployment.retract(&name(a), vec![link(a, b)]).unwrap();
                assert_cursor_is_the_rescan(&deployment, &format!("after retract {when}"));
            } else {
                let now = deployment.nodes[a].available_at;
                deployment
                    .node_ctx(a)
                    .process_batch(vec![link(a, b)], now)
                    .unwrap();
                assert_cursor_is_the_rescan(&deployment, &format!("after assert {when}"));
            }
            if rng.gen_range(0..2) == 0 {
                deployment.run().unwrap();
                assert_cursor_is_the_rescan(&deployment, &format!("after run {when}"));
            }
        }
        deployment.run().unwrap();
        assert_cursor_is_the_rescan(&deployment, "after the last run");
        relations(&deployment)
    }

    /// [`reach_churn`] on every executor — and again durable with a crash
    /// and recovery in the middle, which must not change where it ends up.
    #[test]
    fn reach_churn_keeps_the_cursor_equal_to_the_rescan() {
        for (streaming, reactor) in executors() {
            for seed in 0..4u64 {
                let uninterrupted = reach_churn(&streaming, &reactor, seed, None);
                let dir = fresh_dir(&format!(
                    "churn-b{}-r{}-s{seed}",
                    streaming.batch_max, reactor.enabled
                ));
                let recovered = reach_churn(&streaming, &reactor, seed, Some(&dir));
                assert_eq!(
                    recovered, uninterrupted,
                    "crash and recovery changed the outcome (seed {seed})"
                );
                let _ = std::fs::remove_dir_all(&dir);
            }
        }
    }

    /// Path-vector on random graphs: rolled-back advertisements (FD
    /// conflicts), negation and `min` on the way in, link withdrawals
    /// cascading `Retract` deltas on the way out.
    #[test]
    fn pathvector_withdrawals_keep_the_cursor_equal_to_the_rescan() {
        for (streaming, reactor) in executors() {
            for seed in [3u64, 11] {
                let nodes = 4 + (seed as usize % 2);
                let edges = pathvector::random_graph(nodes, 3, seed);
                let specs = pathvector::node_specs(nodes, &edges);
                let mut deployment = Deployment::build(
                    &pathvector::app_source(),
                    &specs,
                    DeploymentConfig {
                        seed,
                        allow_recursive_negation: true,
                        ..config(streaming.clone(), reactor.clone())
                    },
                )
                .unwrap();
                deployment.run().unwrap();
                assert_cursor_is_the_rescan(&deployment, "after convergence");
                // A chord if the graph has one, else a ring edge.
                let &(a, b) = edges.last().unwrap();
                pathvector::withdraw_link(&mut deployment, a, b).unwrap();
                assert_cursor_is_the_rescan(&deployment, "after the withdrawal");
                deployment.run().unwrap();
                assert_cursor_is_the_rescan(&deployment, "after re-convergence");
            }
        }
    }

    fn fresh_dir(label: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("sbx-export-{label}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// Durable REACH with a crash between a local retraction's commit and
    /// its flush: the WAL holds the `Retract` record, the withdrawal never
    /// left.  Recovery must owe exactly the rescan, and the first run must
    /// pay it.
    #[test]
    fn recovery_after_a_crash_inside_retract_converges_to_the_rescan() {
        for streaming in [
            StreamingConfig::unbatched(),
            StreamingConfig::with_knobs(4, 8),
        ] {
            let dir = fresh_dir(&format!("crash-b{}", streaming.batch_max));
            let mut rng = StdRng::seed_from_u64(5);
            let mut specs = random_reach_specs(&mut rng, 4);
            specs[1].base_facts.push(link(1, 2));
            let durable = || DeploymentConfig {
                durability: Some(DurabilityConfig::new(&dir)),
                ..config(streaming.clone(), ReactorConfig::disabled())
            };
            let mut deployment = Deployment::build(REACH_APP, &specs, durable()).unwrap();
            deployment.run().unwrap();
            deployment.retract(&name(0), vec![link(0, 1)]).unwrap();
            deployment.run().unwrap();
            assert_cursor_is_the_rescan(&deployment, "before the crash");
            let seed = deployment.config.seed;
            drop(deployment);

            let mut store = FactStore::open(dir.join("n1"), &derive_node_key(seed, "n1")).unwrap();
            let (pred, tuple) = link(1, 2);
            let watermark = store.watermark() + 1;
            store
                .log_retracts([(pred.as_str(), &tuple)], watermark)
                .unwrap();
            drop(store);

            let mut recovered = Deployment::recover(&dir, REACH_APP, &specs, durable()).unwrap();
            assert_recovery_owes_the_rescan(&recovered);
            assert!(
                !recovered.nodes[1].sent.is_empty(),
                "n1's orphaned exports must be restored for re-retraction"
            );
            let report = recovered.run().unwrap();
            assert!(report.retractions_applied >= 1);
            assert_cursor_is_the_rescan(&recovered, "after the recovered run");
            for peer in [0, 2, 3] {
                assert!(
                    !recovered
                        .query(&name(peer), "remote_link")
                        .contains(&link(1, 2).1),
                    "n{peer} must drop the withdrawn link"
                );
            }
            drop(recovered);

            // The resend discharged the debt: a second recovery owes no
            // retraction, only the at-least-once re-assert.
            let mut again = Deployment::recover(&dir, REACH_APP, &specs, durable()).unwrap();
            assert_recovery_owes_the_rescan(&again);
            assert!(again.nodes.iter().all(|node| node.sent.is_empty()));
            again.run().unwrap();
            assert_cursor_is_the_rescan(&again, "after the second recovery");
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    /// One exported item per node; nothing else holds its value.
    const ITEM_APP: &str = r#"
        item(X) -> int[32](X).
        remote_item(X) -> int[32](X).
        exportable(`remote_item).

        says[`remote_item](self[], U, X) <- item(X), principal(U), U != self[].
    "#;

    /// The one path where the id-keyed cursor interns: a withdrawn export
    /// whose values the recovered workspace never saw.  n1 ships item 777,
    /// then crashes after the local retraction's commit and before its
    /// flush; a checkpoint taken at the crash leaves 777 out of the
    /// snapshot, so recovery replays no fact that holds it.  The first flush
    /// must still re-ship the `Retract` under the signature the cursor
    /// recorded, and the cursor must end equal to the rescan.
    #[test]
    fn recovery_re_ships_a_withdrawn_export_whose_values_it_never_stored() {
        let dir = fresh_dir("withdrawn-unseen");
        let item = |x: i64| ("item".to_string(), vec![Value::Int(x)]);
        let specs = vec![
            NodeSpec::new(name(0)),
            NodeSpec {
                principal: name(1),
                base_facts: vec![item(777)],
            },
        ];
        let durable = || DeploymentConfig {
            durability: Some(DurabilityConfig::new(&dir)),
            ..config(StreamingConfig::unbatched(), ReactorConfig::disabled())
        };
        let mut deployment = Deployment::build(ITEM_APP, &specs, durable()).unwrap();
        deployment.run().unwrap();
        assert_eq!(deployment.query(&name(0), "remote_item"), vec![item(777).1]);
        let seed = deployment.config.seed;
        drop(deployment);

        // The crash: the retraction is committed and logged, the flush
        // never ran, so the cursor still holds the export.
        let mut store =
            FactStore::open(dir.join(name(1)), &derive_node_key(seed, &name(1))).unwrap();
        let (pred, tuple) = item(777);
        let watermark = store.watermark() + 1;
        store
            .log_retracts([(pred.as_str(), &tuple)], watermark)
            .unwrap();
        store.checkpoint(watermark).unwrap();
        let exported = vec![Value::str(name(1)), Value::str(name(0)), Value::Int(777)];
        let recorded = store
            .export_cursor()
            .into_iter()
            .find(|(pred, tuple, _)| pred == "says$remote_item" && *tuple == exported)
            .map(|(_, _, signature)| signature)
            .expect("the export is in the recorded cursor");
        assert!(!recorded.is_empty());
        drop(store);

        let mut recovered = Deployment::recover(&dir, ITEM_APP, &specs, durable()).unwrap();
        let n1 = &recovered.nodes[1];
        for pred in n1.workspace.predicate_names() {
            for tuple in n1.workspace.query(&pred) {
                assert!(
                    !tuple.contains(&Value::Int(777))
                        && !tuple.contains(&Value::bytes(recorded.clone())),
                    "{pred} holds the withdrawn export's values after recovery"
                );
            }
        }
        assert_recovery_owes_the_rescan(&recovered);
        assert_eq!(
            cursor(n1),
            HashSet::from([("says$remote_item".to_string(), exported.clone())])
        );

        // The first flush ships the withdrawal, signed as recorded.
        let now = recovered.nodes[1].available_at;
        recovered.node_ctx(1).flush_updates(now).unwrap();
        let mut in_flight = Vec::new();
        while let Some(delivery) = recovered.network.next_delivery() {
            in_flight.push(delivery);
        }
        let shipped: Vec<UpdateDelta> = in_flight
            .iter()
            .filter(|(_, m)| m.kind == MessageKind::Update && m.from.index() == 1)
            .flat_map(|(_, m)| UpdateEnvelope::decode(&m.payload).unwrap().deltas)
            .collect();
        assert_eq!(
            shipped,
            vec![UpdateDelta {
                op: DeltaOp::Retract,
                pred: "remote_item".into(),
                tuple: exported,
                signature: recorded,
            }]
        );
        for (at, message) in in_flight {
            recovered.network.push(at, message);
        }
        let report = recovered.run().unwrap();
        assert_eq!(report.rejected_batches, 0);
        assert!(report.retractions_applied >= 1);
        assert!(recovered.query(&name(0), "remote_item").is_empty());
        assert_cursor_is_the_rescan(&recovered, "after the recovered run");
        drop(recovered);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Sharded ingest: exchange relations are `says$shard_xchg_*` exports
    /// like any other, fed by the owner's transaction.
    #[test]
    fn sharded_ingest_keeps_the_cursor_equal_to_the_rescan() {
        const APP: &str = r#"
            edge(X, Y) -> int[32](X), int[32](Y).
            hop2(X, Z) -> int[32](X), int[32](Z).
            hop2(X, Z) <- edge(X, Y), edge(Y, Z).
        "#;
        let edge = |a: i64, b: i64| ("edge".to_string(), vec![Value::Int(a), Value::Int(b)]);
        for streaming in [
            StreamingConfig::unbatched(),
            StreamingConfig::with_knobs(4, 8),
        ] {
            let mut rng = StdRng::seed_from_u64(9);
            let specs: Vec<NodeSpec> = (0..3).map(|i| NodeSpec::new(name(i))).collect();
            let mut deployment = Deployment::build(
                APP,
                &specs,
                DeploymentConfig {
                    shared_facts: (0..8).map(|a| edge(a, (a * 3 + 1) % 8)).collect(),
                    sharding: Some(ShardMap::new((0..3).map(name)).shard("edge", 0)),
                    ..config(streaming, ReactorConfig::disabled())
                },
            )
            .unwrap();
            deployment.run().unwrap();
            assert_cursor_is_the_rescan(&deployment, "after the sharded build");
            assert!(deployment.nodes.iter().any(|node| !node.sent.is_empty()));
            for step in 0..4 {
                let batch: Vec<(String, Tuple)> = (0..3)
                    .map(|_| edge(rng.gen_range(0..8), rng.gen_range(0..8)))
                    .collect();
                deployment.ingest(batch).unwrap();
                assert_cursor_is_the_rescan(&deployment, &format!("after ingest {step}"));
                deployment.run().unwrap();
                assert_cursor_is_the_rescan(&deployment, &format!("after run {step}"));
            }
        }
    }

    /// A relay chain n0 -> n1 -> n2: whatever n1 hears from n0 it says on to
    /// n2, and n0 is n1's only source.
    const RELAY_APP: &str = r#"
        link(N1, N2) -> node(N1), node(N2).
        next(N) -> node(N).
        remote_link(N1, N2) -> node(N1), node(N2).
        exportable(`remote_link).

        says[`remote_link](self[], U, X, Y) <- link(X, Y), next(U), principal(U).
        says[`remote_link](self[], U, X, Y) <- remote_link(X, Y), next(U), principal(U).
    "#;

    fn relay_chain() -> Deployment {
        let next = |i: usize| ("next".to_string(), vec![Value::str(name(i))]);
        let specs = vec![
            NodeSpec {
                principal: name(0),
                base_facts: vec![link(0, 1), next(1)],
            },
            NodeSpec {
                principal: name(1),
                base_facts: vec![next(2)],
            },
            NodeSpec::new(name(2)),
        ];
        let mut deployment = Deployment::build(
            RELAY_APP,
            &specs,
            config(
                StreamingConfig::with_knobs(8, 32),
                ReactorConfig::disabled(),
            ),
        )
        .unwrap();
        deployment.run().unwrap();
        assert_eq!(deployment.query("n2", "remote_link"), vec![link(0, 1).1]);
        deployment
    }

    /// Inject one correctly signed `from -> to` envelope of `remote_link`
    /// deltas, one per op, all over `payload`.
    fn inject_signed(
        deployment: &mut Deployment,
        (from, to): (usize, usize),
        ops: &[DeltaOp],
        payload: Tuple,
    ) {
        let mut tuple = vec![Value::str(name(from)), Value::str(name(to))];
        tuple.extend(payload);
        let secret = deployment
            .shared
            .keystore
            .shared_secret(&name(to), &name(from))
            .unwrap();
        let signature = hmac_sha1(secret, &serialize_tuple(&tuple[2..])).to_vec();
        let envelope = UpdateEnvelope {
            seq: 1_000,
            deltas: ops
                .iter()
                .map(|&op| UpdateDelta {
                    op,
                    pred: "remote_link".into(),
                    tuple: tuple.clone(),
                    signature: signature.clone(),
                })
                .collect(),
        };
        deployment.inject_message(from, to, envelope.encode());
    }

    /// Deliver one coalesced, correctly signed n0 -> n1 envelope and return
    /// how many update envelopes the run put on the wire besides it.
    fn onward_envelopes(deployment: &mut Deployment, ops: [DeltaOp; 2], payload: Tuple) -> usize {
        let updates = |d: &Deployment| d.messages_sent(MessageKind::Update);
        let before = updates(deployment);
        let earlier = deployment.report();
        inject_signed(deployment, (0, 1), &ops, payload);
        let report = deployment.run().unwrap();
        assert_eq!(
            report.retractions_applied,
            earlier.retractions_applied + 1,
            "the envelope's retraction must have been applied"
        );
        assert_eq!(report.rejected_batches, earlier.rejected_batches);
        assert_cursor_is_the_rescan(deployment, "after the coalesced envelope");
        updates(deployment) - before - 1
    }

    /// `Retract(x), Assert(x)` in one drained envelope: n1 deletes and
    /// re-derives its onward export between two flushes, and ships nothing.
    #[test]
    fn coalesced_retract_then_assert_causes_no_onward_delta() {
        let mut deployment = relay_chain();
        let onward = onward_envelopes(
            &mut deployment,
            [DeltaOp::Retract, DeltaOp::Assert],
            link(0, 1).1,
        );
        assert_eq!(onward, 0);
        assert_eq!(deployment.query("n2", "remote_link"), vec![link(0, 1).1]);
    }

    /// `Assert(y), Retract(y)` in one drained envelope: n1's onward export
    /// of `y` is derived and un-derived between two flushes, and never ships.
    #[test]
    fn coalesced_assert_then_retract_causes_no_onward_delta() {
        let mut deployment = relay_chain();
        let onward = onward_envelopes(
            &mut deployment,
            [DeltaOp::Assert, DeltaOp::Retract],
            link(0, 2).1,
        );
        assert_eq!(onward, 0);
        assert_eq!(deployment.query("n2", "remote_link"), vec![link(0, 1).1]);
        assert!(deployment.query("n1", "remote_link") == vec![link(0, 1).1]);
    }

    /// Regression: a local retract of a fact that is not stored used to
    /// append a `Retract` WAL record and a retraction timing sample anyway,
    /// where the inbound path returns early.
    #[test]
    fn a_no_op_local_retract_leaves_wal_roots_and_report_unchanged() {
        let dir = fresh_dir("noop-retract");
        let specs = vec![
            NodeSpec {
                principal: name(0),
                base_facts: vec![link(0, 1)],
            },
            NodeSpec::new(name(1)),
        ];
        let mut deployment = Deployment::build(
            REACH_APP,
            &specs,
            DeploymentConfig {
                durability: Some(DurabilityConfig::new(&dir)),
                ..config(StreamingConfig::unbatched(), ReactorConfig::disabled())
            },
        )
        .unwrap();
        let report = deployment.run().unwrap();
        let wal_seq = |d: &Deployment| d.nodes[0].store.as_ref().unwrap().wal_seq();
        let (seq, roots) = (wal_seq(&deployment), deployment.edb_roots().unwrap());
        deployment.retract("n0", vec![link(0, 7)]).unwrap();
        assert_eq!(wal_seq(&deployment), seq, "nothing to log");
        assert_eq!(deployment.edb_roots().unwrap(), roots);
        assert_eq!(
            deployment.report().retractions_applied,
            report.retractions_applied
        );
        // The stored fact still retracts, logs and counts.
        deployment.retract("n0", vec![link(0, 1)]).unwrap();
        assert!(wal_seq(&deployment) > seq);
        assert_eq!(
            deployment.report().retractions_applied,
            report.retractions_applied + 1
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn two_durable_nodes(app: &str, dir: &PathBuf) -> (Deployment, Vec<NodeSpec>) {
        let specs = vec![
            NodeSpec {
                principal: name(0),
                base_facts: vec![link(0, 1)],
            },
            NodeSpec {
                principal: name(1),
                base_facts: vec![link(1, 0)],
            },
        ];
        let mut deployment = Deployment::build(app, &specs, durable(dir)).unwrap();
        deployment.run().unwrap();
        (deployment, specs)
    }

    fn durable(dir: &PathBuf) -> DeploymentConfig {
        DeploymentConfig {
            durability: Some(DurabilityConfig::new(dir)),
            ..config(StreamingConfig::unbatched(), ReactorConfig::disabled())
        }
    }

    fn wal_seqs(deployment: &Deployment) -> Vec<u64> {
        let seq = |node: &NodeState| node.store.as_ref().unwrap().wal_seq();
        deployment.nodes.iter().map(seq).collect()
    }

    fn relations(deployment: &Deployment) -> Vec<Vec<Tuple>> {
        let mut out = Vec::new();
        for node in &deployment.nodes {
            for pred in ["link", "remote_link", "reach", "says$remote_link"] {
                let mut tuples = node.workspace.query(pred);
                tuples.sort_by(|a, b| tuple_total_cmp(a, b));
                out.push(tuples);
            }
        }
        out
    }

    type Landing = (Vec<Vec<Tuple>>, Vec<(String, String)>);

    /// Crash `deployment` at quiescence; returns where it was — relations
    /// and EDB roots.
    fn crash(mut deployment: Deployment) -> Landing {
        deployment.run().unwrap();
        (relations(&deployment), deployment.edb_roots().unwrap())
    }

    /// Recovery from `dir` must land where the crash was.
    fn assert_recovery_lands(dir: &PathBuf, specs: &[NodeSpec], landing: Landing) {
        let mut recovered = Deployment::recover(dir, REACH_APP, specs, durable(dir)).unwrap();
        recovered.run().unwrap();
        assert_eq!(
            (relations(&recovered), recovered.edb_roots().unwrap()),
            landing
        );
        let _ = std::fs::remove_dir_all(dir);
    }

    /// A fact both asserted and derived: retracting it takes it out of the
    /// EDB — a `Retract` record, a counted retraction, another root — and
    /// leaves it stored, because a rule still derives it.  Recovery lands on
    /// the same relations and roots.
    #[test]
    fn retracting_an_asserted_fact_a_rule_derives_logs_it_and_keeps_it() {
        let dir = fresh_dir("asserted-derived");
        let (mut deployment, specs) = two_durable_nodes(REACH_APP, &dir);
        let reach = ("reach".to_string(), link(0, 1).1);
        let now = deployment.nodes[0].available_at;
        assert!(deployment
            .node_ctx(0)
            .process_batch(vec![reach.clone()], now)
            .unwrap());
        deployment.run().unwrap();
        let seqs = wal_seqs(&deployment);
        let roots = deployment.edb_roots().unwrap();
        let applied = deployment.report().retractions_applied;
        deployment.retract("n0", vec![reach.clone()]).unwrap();
        assert!(wal_seqs(&deployment)[0] > seqs[0], "the Retract is logged");
        assert_eq!(deployment.report().retractions_applied, applied + 1);
        assert_ne!(deployment.edb_roots().unwrap()[0], roots[0]);
        assert!(deployment.nodes[0]
            .workspace
            .contains_fact("reach", &reach.1));
        let landing = crash(deployment);
        assert_recovery_lands(&dir, &specs, landing);
    }

    /// The WAL group is the commit's base delta, not the caller's batch: a
    /// re-assert of a held fact, local or inbound, appends nothing.
    #[test]
    fn a_reassert_of_a_held_fact_appends_nothing_to_the_wal() {
        let dir = fresh_dir("reassert");
        let (mut deployment, specs) = two_durable_nodes(REACH_APP, &dir);
        let seqs = wal_seqs(&deployment);
        let now = deployment.nodes[0].available_at;
        assert!(deployment
            .node_ctx(0)
            .process_batch(vec![link(0, 1)], now)
            .unwrap());
        inject_signed(&mut deployment, (0, 1), &[DeltaOp::Assert], link(0, 1).1);
        let report = deployment.run().unwrap();
        assert_eq!(report.rejected_batches, 0);
        assert_eq!(wal_seqs(&deployment), seqs, "a held fact is no base change");
        assert_recovery_lands(&dir, &specs, crash(deployment));
    }

    /// A retraction naming one stored and one never-stored fact appends one
    /// `Retract` record: only the stored fact left the EDB.
    #[test]
    fn a_mixed_retract_appends_only_the_stored_fact_to_the_wal() {
        let dir = fresh_dir("mixed-retract");
        let (mut deployment, specs) = two_durable_nodes(REACH_APP, &dir);
        deployment
            .retract("n0", vec![link(0, 1), link(0, 7)])
            .unwrap();
        let key = derive_node_key(deployment.config.seed, "n0");
        let landing = crash(deployment);
        let retracts: Vec<_> = FactStore::open(dir.join("n0"), &key)
            .unwrap()
            .recovered_suffix()
            .iter()
            .filter(|record| record.op == WalOp::Retract)
            .map(|record| (record.pred.clone(), record.tuple.clone()))
            .collect();
        assert_eq!(retracts, vec![link(0, 1)]);
        assert_recovery_lands(&dir, &specs, landing);
    }

    /// A refused commit leaves no trace but its verdict: nothing in the WAL,
    /// no export candidate, no committed-transaction sample — whether it was
    /// an inbound `Assert`, an inbound `Retract`, or a local retraction (whose
    /// refusal is returned, not recorded).
    #[test]
    fn a_refused_commit_leaves_wal_candidates_and_samples_untouched() {
        // `pinned` refuses the local retraction of its link, `held` the
        // inbound retraction of its import.
        let app = format!(
            "{REACH_APP}
            pinned(N1, N2) -> node(N1), node(N2).
            pinned(N1, N2) -> link(N1, N2).
            held(N1, N2) -> node(N1), node(N2).
            held(N1, N2) -> remote_link(N1, N2)."
        );
        let dir = fresh_dir("refused");
        let (mut deployment, _) = two_durable_nodes(&app, &dir);
        let fact = |pred: &str, (_, tuple): (String, Tuple)| (pred.to_string(), tuple);
        let now = deployment.nodes[0].available_at;
        assert!(deployment
            .node_ctx(0)
            .process_batch(
                vec![fact("pinned", link(0, 1)), fact("held", link(1, 0))],
                now
            )
            .unwrap());
        deployment.run().unwrap();

        // What a refusal must leave alone at n0.  Every `run()` opens with an
        // (empty) bootstrap transaction per node, so `runs` of those samples
        // are the runs' own.
        let state = |d: &Deployment, runs: usize| {
            let pending = &d.nodes[0].export_pending;
            assert!(pending.added.is_empty() && pending.removed.is_empty());
            let samples = d.completion_times("n0").len() - runs;
            (wal_seqs(d), samples, relations(d))
        };
        let before = state(&deployment, 0);
        let verdicts = |d: &Deployment| {
            let report = d.report();
            (report.rejected_batches, report.retractions_applied)
        };
        let (rejections, retractions) = verdicts(&deployment);

        // An inbound assert whose signature does not verify.
        let mut tuple = vec![Value::str("n1"), Value::str("n0")];
        tuple.extend(link(1, 1).1);
        let forged = UpdateEnvelope {
            seq: 2_000,
            deltas: vec![UpdateDelta {
                op: DeltaOp::Assert,
                pred: "remote_link".into(),
                tuple,
                signature: vec![0u8; 20],
            }],
        };
        deployment.inject_message(1, 0, forged.encode());
        deployment.run().unwrap();
        assert_eq!(verdicts(&deployment), (rejections + 1, retractions));
        assert_eq!(state(&deployment, 1), before);

        // An authorized inbound retraction a constraint refuses.
        inject_signed(&mut deployment, (1, 0), &[DeltaOp::Retract], link(1, 0).1);
        deployment.run().unwrap();
        assert_eq!(verdicts(&deployment), (rejections + 2, retractions));
        assert_eq!(state(&deployment, 2), before);

        // A local retraction a constraint refuses: the caller hears of it.
        let refused = deployment.retract("n0", vec![link(0, 1)]);
        assert!(
            matches!(refused, Err(DatalogError::ConstraintViolation(_))),
            "{refused:?}"
        );
        assert_eq!(verdicts(&deployment), (rejections + 2, retractions));
        assert_eq!(state(&deployment, 2), before);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
