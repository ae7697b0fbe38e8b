//! Master → replica store synchronization.
//!
//! Replication has two layers, mirroring the store's own two layers:
//!
//! * **Snapshots** are immutable content-addressed objects, so that part is
//!   rsync-shaped: read the master's `HEAD`, copy every object its manifest
//!   references that the replica lacks (each verified against its content
//!   address while copying), then atomically swap the replica's `HEAD`.  A
//!   reader of the replica either sees the old snapshot or the new one,
//!   never a mixture, and a corrupted master object is detected *before* the
//!   swap so a bad sync can never install a dangling or tampered snapshot.
//! * **The WAL suffix** past the last common snapshot is shipped
//!   record-by-record: the master's chain is verified with the node key,
//!   every record at or past the replica's append position is re-appended to
//!   the replica's own HMAC chain, and the replica's log is rebuilt from the
//!   snapshot watermark when the master's numbering has moved past it (the
//!   dropped records are superseded by the snapshot that was just copied).
//!
//! Together they make catch-up incremental at *WAL granularity*: a replica
//! synced after every batch tracks the master's current base state without a
//! single full snapshot transfer beyond the first, and recovery from a
//! replica answers with the master's latest facts, not just its latest
//! checkpoint.

use crate::error::{Result, StoreError};
use crate::object::ObjectStore;
use crate::snapshot::{read_head, write_head, SnapshotManifest};
use crate::store::{derive_node_key, node_dir_name};
use crate::wal::Wal;
use std::path::Path;

/// What a sync did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SyncStats {
    /// Objects copied into the replica.
    pub copied: usize,
    /// Referenced objects the replica already had.
    pub skipped: usize,
    /// WAL records shipped past the snapshot (the suffix).
    pub wal_records: usize,
    /// What the suffix added to the replica's log on disk: what this sync
    /// shipped at WAL granularity (0 when the replica was already caught
    /// up; a rebuilt replica log can shrink, and only growth counts).
    pub suffix_bytes: u64,
}

/// Synchronize one node's store from `master_dir` into `replica_dir`.
///
/// `key` is the node's WAL MAC key ([`derive_node_key`]): the master's chain
/// is verified with it before anything is believed, and the shipped suffix is
/// re-sealed under the replica's own chain with the same key.
///
/// A master that has never checkpointed replicates WAL-only; a master that
/// has checkpointed replicates the snapshot (incrementally, by content
/// address) plus whatever WAL suffix follows it.  A `master_dir` that does
/// not exist is an I/O error (`NotFound`): nothing is created in its place.
pub fn sync_store(master_dir: &Path, replica_dir: &Path, key: &[u8]) -> Result<SyncStats> {
    if !master_dir.is_dir() {
        let missing = std::io::Error::from(std::io::ErrorKind::NotFound);
        return Err(StoreError::io(master_dir, missing));
    }
    let _sync_timer = secureblox_telemetry::histogram!("store_sync_ns").start_timer();
    let mut sync_span = secureblox_telemetry::span("store", "sync");
    let mut stats = SyncStats::default();

    // 1. Snapshot objects and HEAD swap (when the master has a snapshot).
    let master_objects = ObjectStore::open(master_dir.join("objects"))?;
    let mut snapshot_seq = 0u64;
    if let Some(manifest_id) = read_head(&master_dir.join("HEAD"))? {
        let replica_objects = ObjectStore::open(replica_dir.join("objects"))?;
        let manifest_bytes = master_objects.get(&manifest_id)?;
        let manifest = SnapshotManifest::decode(&manifest_bytes)?;
        snapshot_seq = manifest.wal_seq;
        for entry in &manifest.relations {
            if replica_objects.contains(&entry.object) {
                stats.skipped += 1;
                continue;
            }
            replica_objects.put(&master_objects.get(&entry.object)?)?;
            stats.copied += 1;
        }
        if replica_objects.contains(&manifest_id) {
            stats.skipped += 1;
        } else {
            replica_objects.put(&manifest_bytes)?;
            stats.copied += 1;
        }
        write_head(&replica_dir.join("HEAD"), &manifest_id)?;
    }

    // 2. WAL suffix.  Verify the master's chain, then append every record the
    //    replica does not hold yet to the replica's own chain.
    let (_, master_records) = Wal::open(master_dir.join("wal.log"), key)?;
    let (mut replica_wal, replica_records) = Wal::open(replica_dir.join("wal.log"), key)?;
    let replica_wal_path = replica_dir.join("wal.log");
    let wal_bytes_before = std::fs::metadata(&replica_wal_path).map_or(0, |m| m.len());
    // Records below the snapshot watermark are superseded by the snapshot
    // copied above; recovery skips them, and appends continue past it.
    replica_wal.advance_seq_to(snapshot_seq);
    let disk_next = replica_records.last().map(|record| record.seq + 1);
    for record in master_records {
        if record.seq < replica_wal.next_seq() {
            // The replica already holds this position.  It must hold the
            // *master's* record there — a replica whose local appends
            // consumed sequence numbers the master later used cannot be
            // caught up by a suffix (shipping it would silently diverge),
            // so synchronization refuses with a typed error.
            if let Some(existing) = replica_records.iter().find(|r| r.seq == record.seq) {
                if *existing != record {
                    return Err(StoreError::ReplicaDiverged { seq: record.seq });
                }
            }
            continue;
        }
        // The master's numbering moved past the replica's on-disk tail (a
        // checkpoint truncated the span between them): the tail is
        // superseded, so rebuild the log from here to keep it contiguous.
        if disk_next.is_some_and(|next| record.seq > next) && stats.wal_records == 0 {
            replica_wal.truncate_all(record.seq)?;
        }
        replica_wal.append_signed(
            record.op,
            &record.pred,
            record.tuple.clone(),
            record.watermark,
            record.signature.clone(),
        )?;
        stats.wal_records += 1;
    }
    replica_wal.flush()?;
    let wal_bytes_after = std::fs::metadata(&replica_wal_path).map_or(0, |m| m.len());
    stats.suffix_bytes = wal_bytes_after.saturating_sub(wal_bytes_before);
    sync_span.record_field("copied", stats.copied);
    sync_span.record_field("wal_records", stats.wal_records);
    sync_span.record_field("suffix_bytes", stats.suffix_bytes);
    Ok(stats)
}

/// Synchronize the store of each of `principals` under `master_dir` (one
/// [`node_dir_name`] subdirectory per principal, as laid out by
/// `DurabilityConfig`) into `replica_dir`, in the order given.  `seed` is
/// the deployment seed the node keys derive from.
pub fn sync_deployment<'p>(
    master_dir: &Path,
    replica_dir: &Path,
    principals: impl IntoIterator<Item = &'p str>,
    seed: u64,
) -> Result<Vec<(String, SyncStats)>> {
    principals
        .into_iter()
        .map(|principal| {
            let dir = node_dir_name(principal);
            let key = derive_node_key(seed, principal);
            let stats = sync_store(&master_dir.join(&dir), &replica_dir.join(&dir), &key)?;
            Ok((principal.to_string(), stats))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::{derive_node_key, FactStore};
    use secureblox_datalog::value::{Tuple, Value};
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("sbx-sync-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn fact(i: i64) -> (String, Tuple) {
        ("link".to_string(), vec![Value::str("n0"), Value::Int(i)])
    }

    fn log(store: &mut FactStore, facts: &[(String, Tuple)], watermark: u64) {
        store
            .log_inserts(facts.iter().map(|(p, t)| (p.as_str(), t)), watermark)
            .unwrap();
    }

    #[test]
    fn replica_matches_master_snapshot() {
        let master_dir = tmp("master");
        let replica_dir = tmp("replica");
        let key = derive_node_key(1, "n0");
        let mut master = FactStore::open(&master_dir, &key).unwrap();
        let facts: Vec<(String, Tuple)> = (0..5).map(fact).collect();
        log(&mut master, &facts, 3);
        let info = master.checkpoint(3).unwrap();

        let stats = sync_store(&master_dir, &replica_dir, &key).unwrap();
        assert_eq!(stats.copied, 2); // one relation object + the manifest
        assert_eq!(stats.wal_records, 0, "checkpoint truncated the log");
        let replica = FactStore::open(&replica_dir, &key).unwrap();
        assert_eq!(replica.base_facts(), master.base_facts());
        assert_eq!(replica.base_root(), master.base_root());
        assert_eq!(replica.snapshot().unwrap().manifest_id, info.manifest_id);

        // Second sync with unchanged master copies nothing.
        let again = sync_store(&master_dir, &replica_dir, &key).unwrap();
        assert_eq!(
            again,
            SyncStats {
                copied: 0,
                skipped: 2,
                wal_records: 0,
                suffix_bytes: 0,
            }
        );
    }

    #[test]
    fn suffix_sync_matches_full_state_without_new_checkpoint() {
        // Snapshot, sync, keep appending (inserts AND a retraction), re-sync:
        // the second sync must ship only the WAL suffix, and the replica must
        // equal the master's *current* state — the acceptance property
        // "replica after suffix sync == replica after full transfer".
        let master_dir = tmp("suffix");
        let replica_dir = tmp("suffix-replica");
        let key = derive_node_key(1, "n0");
        let mut master = FactStore::open(&master_dir, &key).unwrap();
        let facts: Vec<(String, Tuple)> = (0..4).map(fact).collect();
        log(&mut master, &facts, 1);
        master.checkpoint(1).unwrap();
        sync_store(&master_dir, &replica_dir, &key).unwrap();

        let late: Vec<(String, Tuple)> = (10..13).map(fact).collect();
        log(&mut master, &late, 2);
        let gone = fact(0);
        master
            .log_retracts([(gone.0.as_str(), &gone.1)], 3)
            .unwrap();

        let stats = sync_store(&master_dir, &replica_dir, &key).unwrap();
        assert_eq!(stats.copied, 0, "no snapshot objects move");
        assert_eq!(stats.wal_records, 4, "three inserts + one retract");
        let replica = FactStore::open(&replica_dir, &key).unwrap();
        assert_eq!(replica.base_facts(), master.base_facts());
        assert_eq!(replica.base_root(), master.base_root());
        assert_eq!(replica.watermark(), master.watermark());

        // Idempotent: nothing ships twice.
        let again = sync_store(&master_dir, &replica_dir, &key).unwrap();
        assert_eq!((again.wal_records, again.suffix_bytes), (0, 0));
    }

    #[test]
    fn sync_without_checkpoint_ships_wal_only() {
        let master_dir = tmp("nosnap");
        let replica_dir = tmp("nosnap-replica");
        let key = derive_node_key(1, "n0");
        let mut master = FactStore::open(&master_dir, &key).unwrap();
        let facts: Vec<(String, Tuple)> = (0..3).map(fact).collect();
        log(&mut master, &facts, 7);

        let stats = sync_store(&master_dir, &replica_dir, &key).unwrap();
        assert_eq!(stats.copied, 0);
        assert_eq!(stats.wal_records, 3);
        let replica_log = std::fs::metadata(replica_dir.join("wal.log")).unwrap();
        assert_eq!(stats.suffix_bytes, replica_log.len());
        let replica = FactStore::open(&replica_dir, &key).unwrap();
        assert!(replica.snapshot().is_none());
        assert_eq!(replica.base_facts(), master.base_facts());
        assert_eq!(replica.base_root(), master.base_root());
    }

    #[test]
    fn checkpoint_between_syncs_rebuilds_the_replica_log() {
        // Sync at WAL granularity, then the master checkpoints (truncating
        // its log) and appends more: the replica's stale log tail is
        // superseded by the copied snapshot and must be rebuilt so the chain
        // stays contiguous.
        let master_dir = tmp("rebuild");
        let replica_dir = tmp("rebuild-replica");
        let key = derive_node_key(1, "n0");
        let mut master = FactStore::open(&master_dir, &key).unwrap();
        let facts: Vec<(String, Tuple)> = (0..3).map(fact).collect();
        log(&mut master, &facts, 1);
        sync_store(&master_dir, &replica_dir, &key).unwrap();

        // Records the replica never sees (the checkpoint swallows them),
        // leaving a numbering gap between the replica's tail and the
        // master's post-checkpoint suffix.
        let unseen: Vec<(String, Tuple)> = (10..12).map(fact).collect();
        log(&mut master, &unseen, 2);
        master.checkpoint(2).unwrap();
        let late: Vec<(String, Tuple)> = (20..22).map(fact).collect();
        log(&mut master, &late, 3);

        let stats = sync_store(&master_dir, &replica_dir, &key).unwrap();
        assert!(stats.copied > 0, "snapshot ships");
        assert_eq!(stats.wal_records, 2, "post-checkpoint suffix ships");
        let replica = FactStore::open(&replica_dir, &key).unwrap();
        assert_eq!(replica.base_facts(), master.base_facts());
        assert_eq!(replica.base_root(), master.base_root());

        // And the replica reopens cleanly again after yet another suffix.
        let more = fact(99);
        log(
            &mut master,
            std::slice::from_ref(&(more.0.clone(), more.1.clone())),
            4,
        );
        sync_store(&master_dir, &replica_dir, &key).unwrap();
        let replica = FactStore::open(&replica_dir, &key).unwrap();
        assert_eq!(replica.base_facts(), master.base_facts());
    }

    #[test]
    fn replica_local_appends_survive_reopen() {
        // A replica holds the master's snapshot (wal_seq = N) but no WAL
        // history; its own appends must continue the numbering past N, or
        // the `seq >= wal_seq` replay rule would silently drop them.
        let master_dir = tmp("seqmaster");
        let replica_dir = tmp("seqreplica");
        let key = derive_node_key(1, "n0");
        let mut master = FactStore::open(&master_dir, &key).unwrap();
        let facts: Vec<(String, Tuple)> = (0..4).map(fact).collect();
        log(&mut master, &facts, 1);
        let info = master.checkpoint(1).unwrap();
        assert_eq!(info.wal_seq, 4);
        sync_store(&master_dir, &replica_dir, &key).unwrap();

        let mut replica = FactStore::open(&replica_dir, &key).unwrap();
        assert_eq!(
            replica.wal_seq(),
            4,
            "numbering continues past the snapshot"
        );
        let extra = ("link".to_string(), vec![Value::str("n0"), Value::Int(99)]);
        replica
            .log_inserts([(extra.0.as_str(), &extra.1)], 5)
            .unwrap();
        let facts_after = replica.base_facts();
        let root_after = replica.base_root();
        drop(replica);

        let reopened = FactStore::open(&replica_dir, &key).unwrap();
        assert_eq!(reopened.base_fact_count(), 5);
        assert_eq!(reopened.base_facts(), facts_after);
        assert_eq!(reopened.base_root(), root_after);
        assert_eq!(reopened.recovered_suffix().len(), 1);
    }

    #[test]
    fn conflicting_replica_appends_are_a_typed_divergence() {
        // The replica writes its own record at a sequence number the master
        // later uses with different content: the suffix sync must refuse
        // with a typed error instead of silently skipping the master's
        // record and diverging.
        let master_dir = tmp("diverge");
        let replica_dir = tmp("diverge-replica");
        let key = derive_node_key(1, "n0");
        let mut master = FactStore::open(&master_dir, &key).unwrap();
        let facts: Vec<(String, Tuple)> = (0..2).map(fact).collect();
        log(&mut master, &facts, 1);
        sync_store(&master_dir, &replica_dir, &key).unwrap();

        let mut replica = FactStore::open(&replica_dir, &key).unwrap();
        let local = fact(500);
        log(&mut replica, std::slice::from_ref(&local), 2);
        drop(replica);
        let remote = fact(600);
        log(&mut master, std::slice::from_ref(&remote), 3);

        assert!(matches!(
            sync_store(&master_dir, &replica_dir, &key),
            Err(StoreError::ReplicaDiverged { seq: 2 })
        ));
    }

    #[test]
    fn sync_with_wrong_key_is_typed() {
        let master_dir = tmp("wrongkey");
        let key = derive_node_key(1, "n0");
        let mut master = FactStore::open(&master_dir, &key).unwrap();
        let f = fact(1);
        log(&mut master, std::slice::from_ref(&f), 1);
        assert!(matches!(
            sync_store(&master_dir, &tmp("wrongkey-replica"), b"not the key"),
            Err(StoreError::TamperedRecord { .. })
        ));
    }

    #[test]
    fn tampered_master_object_fails_before_head_swap() {
        let master_dir = tmp("tampermaster");
        let replica_dir = tmp("tamperreplica");
        let key = derive_node_key(1, "n0");
        let mut master = FactStore::open(&master_dir, &key).unwrap();
        let f = ("link".to_string(), vec![Value::str("a"), Value::str("b")]);
        master.log_inserts([(f.0.as_str(), &f.1)], 1).unwrap();
        let info = master.checkpoint(1).unwrap();
        let manifest =
            SnapshotManifest::decode(&master.objects().get(&info.manifest_id).unwrap()).unwrap();
        drop(master);
        let object_path = master_dir
            .join("objects")
            .join(&manifest.relations[0].object);
        let mut bytes = std::fs::read(&object_path).unwrap();
        bytes[10] ^= 1;
        std::fs::write(&object_path, &bytes).unwrap();

        assert!(matches!(
            sync_store(&master_dir, &replica_dir, &key),
            Err(StoreError::ObjectMismatch { .. })
        ));
        // The replica HEAD was never installed.
        assert_eq!(read_head(&replica_dir.join("HEAD")).unwrap(), None);
    }

    #[test]
    fn sync_deployment_keys_each_store_by_its_principal() {
        // `a/b` is no path component, so its store lives under a hashed
        // `p-…` directory; the sync still finds it and derives its key.
        let master_dir = tmp("deploy-master");
        let replica_dir = tmp("deploy-replica");
        let principals = ["plain", "a/b"];
        let mut masters = Vec::new();
        for principal in principals {
            let key = derive_node_key(9, principal);
            let mut store =
                FactStore::open(master_dir.join(node_dir_name(principal)), &key).unwrap();
            let facts: Vec<(String, Tuple)> = (0..3).map(fact).collect();
            log(&mut store, &facts, 1);
            store.flush().unwrap();
            masters.push(store);
        }

        let synced = sync_deployment(&master_dir, &replica_dir, principals, 9).unwrap();
        let names: Vec<&str> = synced.iter().map(|(name, _)| name.as_str()).collect();
        assert_eq!(names, principals);
        for ((principal, stats), master) in synced.iter().zip(&masters) {
            assert_eq!(stats.wal_records, 3, "{principal}");
            let key = derive_node_key(9, principal);
            let replica =
                FactStore::open(replica_dir.join(node_dir_name(principal)), &key).unwrap();
            assert_eq!(replica.base_root(), master.base_root(), "{principal}");
        }

        // A principal with no store is an error, and no store appears.
        assert!(matches!(
            sync_deployment(&master_dir, &replica_dir, ["nobody"], 9),
            Err(StoreError::Io { .. })
        ));
        assert!(!master_dir.join("nobody").exists());
        let _ = std::fs::remove_dir_all(&master_dir);
        let _ = std::fs::remove_dir_all(&replica_dir);
    }
}
