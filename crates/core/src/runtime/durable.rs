//! Checkpointing and crash recovery for durable deployments.
//!
//! With [`DeploymentConfig::durability`] set, every node appends its
//! committed base facts to an HMAC-chained WAL as it runs.
//! [`Deployment::checkpoint`] then writes one Merkle-committed,
//! content-addressed snapshot per node, and [`Deployment::recover`] rebuilds
//! an equivalent deployment from disk alone:
//!
//! 1. re-provision the deterministic parts (compiled program, key material,
//!    principal universe, shared facts) by re-running the normal build with
//!    the same `app_source`/`specs`/`config`;
//! 2. per node, open the [`FactStore`] — which verifies every content
//!    address, the snapshot Merkle root, and the full WAL HMAC chain,
//!    surfacing tampering as typed [`StoreError`]s;
//! 3. replay the snapshot facts as one transaction, then the WAL suffix
//!    grouped by the original commit watermarks, re-running the seminaive
//!    fixpoint — derived state is rebuilt, never read from disk;
//! 4. resume each node's virtual clock at its watermark. Assert exports keep
//!    at-least-once semantics across a crash (messages in flight at the
//!    crash may never have arrived): the replayed commits leave every
//!    exportable tuple still derived among the node's export candidates and
//!    out of its cursor, so the first `run()` re-ships it and receivers
//!    absorb duplicates idempotently. Retract exports are recovered from the
//!    WAL's export-cursor records: a cursor entry whose tuple is *no longer*
//!    derived marks a withdrawal that may have been lost in flight, so it is
//!    restored into the cursor as a removed candidate and the first `run()`
//!    re-sends the retraction under the originally recorded signature.
//!
//! A recovered deployment answers the same queries and commits to the same
//! per-node Merkle roots as the one that was dropped.

use crate::runtime::engine::{Deployment, DeploymentConfig, NodeSpec};
use crate::runtime::export::{Shipped, NOT_QUEUED, NO_SIGNATURE};
use crate::runtime::node::{CommitOp, Verdict};
use secureblox_datalog::error::DatalogError;
use secureblox_datalog::value::{Tuple, Value};
use secureblox_datalog::FactDelta;
use secureblox_net::NodeLedger;
use secureblox_store::{derive_node_key, DurabilityConfig, FactStore, StoreError, WalOp};
use std::fmt;
use std::path::PathBuf;

/// Errors from the durability layer of a deployment.  Storage corruption and
/// engine replay failures stay distinguishable so callers (and tests) can
/// react to tampering specifically.
#[derive(Debug)]
pub enum DurabilityError {
    /// The deployment was built without [`DeploymentConfig::durability`].
    Disabled,
    /// A typed storage failure: I/O, tampered WAL record, content-address
    /// mismatch, corrupt snapshot, Merkle-root mismatch.
    Store(StoreError),
    /// The Datalog engine failed while replaying recovered facts.
    Engine(DatalogError),
}

impl fmt::Display for DurabilityError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DurabilityError::Disabled => {
                write!(f, "durability is not enabled on this deployment")
            }
            DurabilityError::Store(e) => write!(f, "store error: {e}"),
            DurabilityError::Engine(e) => write!(f, "replay error: {e}"),
        }
    }
}

impl std::error::Error for DurabilityError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DurabilityError::Disabled => None,
            DurabilityError::Store(e) => Some(e),
            DurabilityError::Engine(e) => Some(e),
        }
    }
}

impl From<StoreError> for DurabilityError {
    fn from(e: StoreError) -> Self {
        DurabilityError::Store(e)
    }
}

impl From<DatalogError> for DurabilityError {
    fn from(e: DatalogError) -> Self {
        DurabilityError::Engine(e)
    }
}

/// One node's checkpoint: the snapshot identity the test suite compares
/// across crash/recover boundaries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointInfo {
    pub principal: String,
    /// Merkle root (hex) committing the node's entire dynamic EDB.
    pub root: String,
    /// Virtual-time watermark (ns) the snapshot was taken at.
    pub watermark: u64,
    /// Content address of the snapshot manifest object.
    pub manifest_id: String,
}

impl Deployment {
    /// The durability configuration, if any.
    pub fn durability(&self) -> Option<&DurabilityConfig> {
        self.config.durability.as_ref()
    }

    /// Snapshot every node's base-fact state at its current virtual time.
    /// Returns one [`CheckpointInfo`] per node, in node order.
    pub fn checkpoint(&mut self) -> Result<Vec<CheckpointInfo>, DurabilityError> {
        let mut out = Vec::with_capacity(self.nodes.len());
        for node in &mut self.nodes {
            let store = node.store.as_mut().ok_or(DurabilityError::Disabled)?;
            let info = store.checkpoint(node.available_at)?;
            out.push(CheckpointInfo {
                principal: node.info.principal.clone(),
                root: info.root_hex(),
                watermark: info.watermark,
                manifest_id: info.manifest_id,
            });
        }
        Ok(out)
    }

    /// The Merkle root (hex) each node's current base-fact state commits to,
    /// computed in memory without writing a snapshot.
    pub fn edb_roots(&self) -> Result<Vec<(String, String)>, DurabilityError> {
        self.nodes
            .iter()
            .map(|node| {
                let store = node.store.as_ref().ok_or(DurabilityError::Disabled)?;
                Ok((node.info.principal.clone(), store.base_root_hex()))
            })
            .collect()
    }

    /// Rebuild a deployment from the durable stores under `dir`, verifying
    /// integrity and re-converging to the fixpoint the dropped deployment
    /// had.  `app_source`, `specs`, and `config` must match the original
    /// build — the deterministic provisioned state (compiled program, keys,
    /// principal universe) is a pure function of them and is reconstructed,
    /// not persisted.
    pub fn recover(
        dir: impl Into<PathBuf>,
        app_source: &str,
        specs: &[NodeSpec],
        config: DeploymentConfig,
    ) -> Result<Deployment, DurabilityError> {
        // The `dir` argument always names the stores being recovered from —
        // a config that happens to carry a different durability dir (e.g. a
        // restore-from-backup) must not silently win over it.  Other
        // durability settings (flush cadence) are kept from the config.
        let durability = match config.durability.clone() {
            Some(mut durability) => {
                durability.dir = dir.into();
                durability
            }
            None => DurabilityConfig::new(dir.into()),
        };
        // Build without durability so the fresh-build guard (which refuses
        // non-empty stores) does not trip; stores attach below, after replay.
        let mut stripped = config;
        stripped.durability = None;
        let mut deployment = Deployment::build(app_source, specs, stripped)?;
        deployment.config.durability = Some(durability.clone());

        for index in 0..deployment.nodes.len() {
            let principal = deployment.nodes[index].info.principal.clone();
            let key = derive_node_key(deployment.config.seed, &principal);
            let mut store = FactStore::open(durability.node_dir(&principal), &key)?;
            store.set_flush_each_batch(durability.flush_each_batch);

            let mut ctx = deployment.node_ctx(index);
            // Once a node's store holds any history, the WAL supersedes the
            // bootstrap facts (they were logged when the original deployment
            // committed them at virtual time zero).  An empty store means the
            // original crashed between build and run — keep the bootstrap so
            // a subsequent run() commits (and logs) it normally.
            if store.wal_seq() > 0 || store.snapshot().is_some() {
                ctx.node.pending_bootstrap.clear();
            }

            // Replay the snapshot as one transaction, then the WAL suffix
            // with the original commit boundaries (consecutive records of one
            // kind sharing a watermark committed together — an insert group
            // as one transaction, a retract group as one retraction),
            // through the same sink as a live commit.  The store is not attached yet, so nothing is logged;
            // every replayed commit feeds the node's export candidates like a
            // live one, and the first is evaluated naively from the freshly
            // built workspace, so together they cover the whole exportable
            // state.  A commit the log holds was accepted once: refused now,
            // it is a replay error.
            let mut replay =
                |op: CommitOp, batch: Vec<(String, Tuple)>| match ctx.commit(op, batch, 0)? {
                    Verdict::Refused(refusal) => Err(refusal),
                    Verdict::Changed | Verdict::Unchanged => Ok(()),
                };
            let snapshot_facts = store.recovered_snapshot_facts().to_vec();
            if !snapshot_facts.is_empty() {
                replay(CommitOp::Assert, snapshot_facts)?;
            }
            let mut pending: Vec<(String, Tuple)> = Vec::new();
            let mut group = (CommitOp::Assert, 0u64);
            for record in store.recovered_suffix().to_vec() {
                let op = match record.op {
                    WalOp::Insert => CommitOp::Assert,
                    WalOp::Retract => CommitOp::LocalRetract,
                    // Export-cursor records carry no base facts; the store
                    // already folded them into its cursor state at open.
                    WalOp::ExportMark | WalOp::ExportClear => continue,
                };
                if !pending.is_empty() && (op, record.watermark) != group {
                    replay(group.0, std::mem::take(&mut pending))?;
                }
                group = (op, record.watermark);
                pending.push((record.pred, record.tuple));
            }
            // Derive IDB state even when the store was empty (the provisioned
            // facts alone may drive rules): the last group, or an empty
            // transaction.
            if group.0 == CommitOp::LocalRetract {
                replay(group.0, std::mem::take(&mut pending))?;
            }
            replay(CommitOp::Assert, pending)?;

            // Rebuild the export cursor from the WAL's.  Entries whose tuple
            // is still derived stay OUT of `sent`: a crash may have dropped
            // the assert in flight, so — being among the replay's added
            // candidates — the first run() re-ships it and receivers absorb
            // the duplicate as an idempotent set insert (at-least-once
            // asserts).  Entries whose tuple is *gone* from the fixpoint are
            // the §9.3 gap: the local retraction committed but the
            // withdrawal message may never have left.  Restoring them into
            // `sent` (with the signature the export went out under) as
            // removed candidates makes the first flush re-send exactly those
            // Retract deltas.  The cursor is in id space, and the replay
            // may never have interned a vanished tuple's values or its
            // signature: they are interned here, the one place a cursor
            // entry adds to the dictionary.
            let node = ctx.node;
            let mut vanished = FactDelta::default();
            for (pred, tuple, signature) in store.export_cursor() {
                if node.workspace.contains_fact(&pred, &tuple) {
                    continue;
                }
                let Some(number) = node.export_pending.preds.number(&pred) else {
                    continue;
                };
                let interner = node.workspace.interner();
                let mut key = vec![number; 1 + tuple.len()];
                interner.intern_ids(&tuple, &mut key[1..]);
                let signature = if signature.is_empty() {
                    NO_SIGNATURE
                } else {
                    interner.intern(&Value::bytes(signature))
                };
                let shipped = Shipped {
                    signature,
                    queued: NOT_QUEUED,
                };
                node.sent.insert(key.into(), shipped);
                vanished.entry(pred).or_default().insert(tuple);
            }
            node.export_pending.absorb(FactDelta::default(), vanished);
            // The replay charged this host's time to the clock; the node
            // resumes where the log says it stopped.
            node.available_at = store.watermark();
            node.store = Some(store);
            // The replay is not part of the recovered deployment's run: its
            // ledger samples go.
            node.ledger = NodeLedger::default();
        }
        Ok(deployment)
    }
}
