//! Multi-replica fan-out: a deployment-level replica set with per-replica,
//! per-node cursors over the masters' WALs.
//!
//! PR 2 gave each deployment a single master → replica `sync_store` path at
//! snapshot granularity.  This module generalizes it along both axes:
//!
//! * **WAL-suffix catch-up** — [`secureblox_store::sync_store`] now ships the
//!   master's WAL records past the last common snapshot, so a replica tracks
//!   the master's *current* base state, not just its last checkpoint;
//! * **fan-out** — a deployment holds any number of registered replicas, each
//!   with an independent cursor per node recording the last *acked* WAL
//!   sequence (acked = the replica directory durably holds everything below
//!   it).  [`Deployment::sync_replicas`] ships each node's missing objects
//!   and WAL suffix to every replica and advances the cursors; nodes whose
//!   cursor already matches the master's WAL head are skipped without
//!   touching the replica's disk.
//!
//! A replica is a directory tree shaped exactly like the master's durability
//! root (one store per principal), so [`Deployment::recover`] pointed at a
//! replica directory yields a working deployment — now at WAL granularity.

use crate::runtime::engine::Deployment;
use crate::runtime::DurabilityError;
use secureblox_store::{derive_node_key, node_dir_name, sync_store, SyncStats};
use std::collections::HashMap;
use std::path::PathBuf;

/// One registered replica of a deployment's durable state.
#[derive(Debug, Clone)]
pub struct ReplicaState {
    /// Human-readable name (used in reports).
    pub name: String,
    /// Root directory of the replica (per-principal subdirectories).
    pub dir: PathBuf,
    /// Per-node cursor: principal → last acked master WAL sequence.
    ///
    /// Cursors count WAL *records*, not update-stream deltas, so they are
    /// oblivious to batching: a master logs a multi-fact
    /// batch as consecutive records sharing one watermark, and a cursor
    /// sitting anywhere inside that group simply ships the remaining records
    /// on the next sync — recovery's grouping by watermark restores the
    /// batch's atomicity regardless of where the cursor paused.
    pub cursors: HashMap<String, u64>,
}

/// What one `sync_replicas` pass did for one replica.
#[derive(Debug, Clone)]
pub struct ReplicaSyncReport {
    pub replica: String,
    /// Per-node sync outcomes, in node order, for nodes that needed work.
    pub nodes: Vec<(String, SyncStats)>,
    /// Nodes skipped because their cursor already matched the master's WAL
    /// head (and snapshot).
    pub up_to_date: usize,
}

impl Deployment {
    /// Register a replica rooted at `dir`.  Requires durability; the replica
    /// starts with empty cursors and catches up on the next
    /// [`Deployment::sync_replicas`].
    pub fn add_replica(
        &mut self,
        name: impl Into<String>,
        dir: impl Into<PathBuf>,
    ) -> Result<(), DurabilityError> {
        if self.config.durability.is_none() {
            return Err(DurabilityError::Disabled);
        }
        self.replicas.push(ReplicaState {
            name: name.into(),
            dir: dir.into(),
            cursors: HashMap::new(),
        });
        Ok(())
    }

    /// The per-node cursors of one replica (principal → last acked master
    /// WAL sequence).
    pub fn replica_cursors(&self, name: &str) -> Option<&HashMap<String, u64>> {
        self.replicas
            .iter()
            .find(|r| r.name == name)
            .map(|r| &r.cursors)
    }

    /// Fan out every node's durable state to every registered replica:
    /// missing snapshot objects plus the WAL suffix past each replica's
    /// cursor.  Cursors advance to the master's WAL head once the replica
    /// holds the records (ack-on-durable).
    pub fn sync_replicas(&mut self) -> Result<Vec<ReplicaSyncReport>, DurabilityError> {
        let durability = self
            .config
            .durability
            .clone()
            .ok_or(DurabilityError::Disabled)?;
        // Make sure everything the masters logged is visible on disk before
        // replicating it.
        let masters: Vec<(String, u64, bool)> = self
            .nodes
            .iter_mut()
            .map(|node| {
                let principal = node.info.principal.clone();
                let (seq, has_snapshot) = match node.store.as_mut() {
                    Some(store) => {
                        store.flush().map_err(DurabilityError::Store)?;
                        (store.wal_seq(), store.snapshot().is_some())
                    }
                    None => (0, false),
                };
                Ok::<_, DurabilityError>((principal, seq, has_snapshot))
            })
            .collect::<Result<_, _>>()?;

        let mut reports = Vec::with_capacity(self.replicas.len());
        for replica in &mut self.replicas {
            let mut report = ReplicaSyncReport {
                replica: replica.name.clone(),
                nodes: Vec::new(),
                up_to_date: 0,
            };
            for (principal, master_seq, has_snapshot) in &masters {
                let cursor = replica.cursors.get(principal).copied();
                // Cursor lag observed *before* this sync round catches the
                // replica up — how far behind the master's WAL head it was.
                let lag = master_seq.saturating_sub(cursor.unwrap_or(0));
                secureblox_telemetry::registry()
                    .gauge(&format!(
                        "engine_replica_cursor_lag{{replica=\"{}\",node=\"{}\"}}",
                        replica.name, principal
                    ))
                    .set(lag as i64);
                secureblox_telemetry::histogram!("engine_replica_cursor_lag_records").record(lag);
                // A cursor at the master's WAL head means the replica already
                // holds every record; skip without touching its disk.  (A
                // master with neither snapshot nor WAL records has nothing to
                // ship at all.)
                if cursor == Some(*master_seq) || (*master_seq == 0 && !has_snapshot) {
                    report.up_to_date += 1;
                    continue;
                }
                let key = derive_node_key(self.config.seed, principal);
                let stats = sync_store(
                    &durability.node_dir(principal),
                    &replica.dir.join(node_dir_name(principal)),
                    &key,
                )
                .map_err(DurabilityError::Store)?;
                replica.cursors.insert(principal.clone(), *master_seq);
                report.nodes.push((principal.clone(), stats));
            }
            reports.push(report);
        }
        Ok(reports)
    }
}
