//! The durable fact store: one directory per node holding an HMAC-chained
//! WAL (`wal.log`), a content-addressed object store (`objects/`), and a
//! `HEAD` pointer at the latest snapshot manifest.
//!
//! The store persists only *base* facts — the dynamic extensional database a
//! node accumulated from bootstrap batches and accepted `says` imports.
//! Derived (intensional) state is never written: it is rebuildable by
//! construction, by re-running the seminaive fixpoint over the recovered EDB.
//! Likewise the facts a deployment provisions deterministically at build time
//! (principal universe, key material, shared facts) are a pure function of
//! the deployment configuration and are reconstructed, not persisted.
//!
//! Opening a store *is* crash recovery: load the `HEAD` snapshot (verifying
//! every content address and the Merkle root), then verify the WAL's HMAC
//! chain from genesis and replay the suffix past the snapshot's watermark.
//! All corruption outcomes are typed [`StoreError`]s.

use crate::error::{Result, StoreError};
use crate::merkle::HASH_LEN;
use crate::object::{ObjectId, ObjectStore};
use crate::snapshot::{
    decode_relation, encode_relation, read_head, write_head, RelationEntry, SnapshotManifest,
};
use crate::wal::{Wal, WalOp, WalRecord};
use secureblox_crypto::{hmac_sha1, sha1, to_hex};
use secureblox_datalog::codec::serialize_tuple;
use secureblox_datalog::value::Tuple;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Where (and whether) a deployment persists its nodes' base facts.
#[derive(Debug, Clone)]
pub struct DurabilityConfig {
    /// Root directory; each node gets a subdirectory named by
    /// [`node_dir_name`] of its principal.
    pub dir: PathBuf,
    /// Flush WAL appends to the OS after every committed batch (cheap; real
    /// fsync durability is out of scope for the simulation).
    pub flush_each_batch: bool,
}

impl DurabilityConfig {
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        DurabilityConfig {
            dir: dir.into(),
            flush_each_batch: true,
        }
    }

    /// The store directory for one node: [`node_dir_name`] under the root.
    pub fn node_dir(&self, principal: &str) -> PathBuf {
        self.dir.join(node_dir_name(principal))
    }
}

/// The longest principal kept verbatim as a directory name.
const PLAIN_NAME_MAX: usize = 64;

/// The directory name of a node's store under a deployment or replica root.
/// A principal is deployment input, so it is not trusted to be a path
/// component: one of at most 64 bytes of `[A-Za-z0-9_.-]`, not starting with
/// `.`, keeps its name; any other becomes `p-` and the hex SHA-1 of its
/// bytes, which is bounded and never leaves the root.
pub fn node_dir_name(principal: &str) -> String {
    let plain = !principal.is_empty()
        && principal.len() <= PLAIN_NAME_MAX
        && !principal.starts_with('.')
        && principal
            .bytes()
            .all(|byte| byte.is_ascii_alphanumeric() || matches!(byte, b'_' | b'.' | b'-'));
    if plain {
        principal.to_string()
    } else {
        format!("p-{}", to_hex(&sha1(principal.as_bytes())))
    }
}

/// Derive a node's WAL MAC key from the deployment seed.  Deterministic so
/// `Deployment::recover` with the same configuration re-derives it; domain
/// separated so it can never collide with protocol HMAC uses of the seed.
pub fn derive_node_key(seed: u64, principal: &str) -> Vec<u8> {
    let mut message = Vec::with_capacity(8 + principal.len());
    message.extend_from_slice(&seed.to_be_bytes());
    message.extend_from_slice(principal.as_bytes());
    hmac_sha1(b"secureblox-store/wal-key/v1", &message).to_vec()
}

/// Identity of one snapshot: the manifest object and what it commits.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotInfo {
    pub manifest_id: ObjectId,
    pub watermark: u64,
    pub wal_seq: u64,
    pub root: [u8; HASH_LEN],
}

impl SnapshotInfo {
    /// The Merkle root as lowercase hex.
    pub fn root_hex(&self) -> String {
        to_hex(&self.root)
    }
}

/// Export-cursor map: predicate + canonical tuple encoding → decoded tuple
/// and the detached signature the tuple shipped under.
type ExportCursor = BTreeMap<(String, Vec<u8>), (Tuple, Vec<u8>)>;

/// A node's durable fact store, open for appending.
pub struct FactStore {
    dir: PathBuf,
    wal: Wal,
    objects: ObjectStore,
    /// The current base-fact state: relation name → canonical tuple encoding
    /// → decoded tuple.  Keying by the canonical bytes both deduplicates and
    /// fixes the deterministic order every commitment is computed in.
    base: BTreeMap<String, BTreeMap<Vec<u8>, Tuple>>,
    /// Export cursor: the tuples this node has shipped to peers (keyed by
    /// predicate + canonical tuple encoding) with the detached signature each
    /// one went out under.  Rebuilt from `ExportMark`/`ExportClear` records
    /// at open; never part of the base facts or the Merkle commitment.
    export_cursor: ExportCursor,
    /// Latest snapshot (from `HEAD`), if any.
    snapshot: Option<SnapshotInfo>,
    /// Highest watermark applied (snapshot or WAL).
    watermark: u64,
    /// Recovery artifacts from open: the facts the snapshot contributed and
    /// the WAL records replayed after it, in order.
    recovered_snapshot_facts: Vec<(String, Tuple)>,
    recovered_suffix: Vec<WalRecord>,
    flush_each_batch: bool,
}

impl FactStore {
    /// Open a store directory, performing full verification and recovery.
    pub fn open(dir: impl Into<PathBuf>, key: &[u8]) -> Result<FactStore> {
        let _recovery_timer =
            secureblox_telemetry::histogram!("store_recovery_replay_ns").start_timer();
        let mut recover_span = secureblox_telemetry::span("store", "recover");
        let dir = dir.into();
        std::fs::create_dir_all(&dir).map_err(|e| StoreError::io(&dir, e))?;
        let objects = ObjectStore::open(dir.join("objects"))?;

        // Load the snapshot HEAD points at, verifying content addresses and
        // the Merkle root.
        let mut base: BTreeMap<String, BTreeMap<Vec<u8>, Tuple>> = BTreeMap::new();
        let mut recovered_snapshot_facts = Vec::new();
        let mut snapshot = None;
        if let Some(manifest_id) = read_head(&dir.join("HEAD"))? {
            let manifest = SnapshotManifest::decode(&objects.get(&manifest_id)?)?;
            for entry in &manifest.relations {
                let bytes = objects.get(&entry.object)?;
                let (name, tuples) = decode_relation(&bytes)?;
                if name != entry.name {
                    return Err(StoreError::CorruptSnapshot {
                        reason: format!(
                            "manifest lists {} but object {} holds relation {name}",
                            entry.name, entry.object
                        ),
                    });
                }
                let relation = base.entry(name.clone()).or_default();
                for tuple in tuples {
                    recovered_snapshot_facts.push((name.clone(), tuple.clone()));
                    relation.insert(serialize_tuple(&tuple), tuple);
                }
            }
            snapshot = Some(SnapshotInfo {
                manifest_id,
                watermark: manifest.watermark,
                wal_seq: manifest.wal_seq,
                root: manifest.root,
            });
        }

        // Verify the whole WAL chain, then replay the suffix the snapshot
        // does not already include.
        let (mut wal, records) = Wal::open(dir.join("wal.log"), key)?;
        let snapshot_seq = snapshot.as_ref().map_or(0, |s| s.wal_seq);
        // A synced replica has the snapshot but not the WAL history behind
        // it; continue the master's numbering so fresh appends land past the
        // snapshot's watermark instead of colliding with the replayed range.
        wal.advance_seq_to(snapshot_seq);
        let mut watermark = snapshot.as_ref().map_or(0, |s| s.watermark);
        let mut recovered_suffix = Vec::new();
        let mut export_cursor = BTreeMap::new();
        for record in records {
            if record.seq < snapshot_seq {
                continue;
            }
            watermark = watermark.max(record.watermark);
            apply(&mut base, &mut export_cursor, &record);
            recovered_suffix.push(record);
        }

        secureblox_telemetry::counter!("store_recovery_records_total")
            .add(recovered_suffix.len() as u64);
        recover_span.record_field("suffix_records", recovered_suffix.len());
        recover_span.record_field("snapshot_facts", recovered_snapshot_facts.len());
        Ok(FactStore {
            dir,
            wal,
            objects,
            base,
            export_cursor,
            snapshot,
            watermark,
            recovered_snapshot_facts,
            recovered_suffix,
            flush_each_batch: true,
        })
    }

    /// Set whether appends flush after every batch (see
    /// [`DurabilityConfig::flush_each_batch`]).
    pub fn set_flush_each_batch(&mut self, flush: bool) {
        self.flush_each_batch = flush;
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The content-addressed object store (for sync and audits).
    pub fn objects(&self) -> &ObjectStore {
        &self.objects
    }

    /// Latest snapshot identity, if a checkpoint exists.
    pub fn snapshot(&self) -> Option<&SnapshotInfo> {
        self.snapshot.as_ref()
    }

    /// Highest virtual-time watermark applied.
    pub fn watermark(&self) -> u64 {
        self.watermark
    }

    /// Number of WAL records written (next sequence number).
    pub fn wal_seq(&self) -> u64 {
        self.wal.next_seq()
    }

    /// Facts the `HEAD` snapshot contributed at open, in deterministic order.
    pub fn recovered_snapshot_facts(&self) -> &[(String, Tuple)] {
        &self.recovered_snapshot_facts
    }

    /// WAL records replayed past the snapshot at open, in log order.
    pub fn recovered_suffix(&self) -> &[WalRecord] {
        &self.recovered_suffix
    }

    /// The current base facts, ordered by (relation, canonical encoding).
    pub fn base_facts(&self) -> Vec<(String, Tuple)> {
        let mut out = Vec::new();
        for (name, relation) in &self.base {
            for tuple in relation.values() {
                out.push((name.clone(), tuple.clone()));
            }
        }
        out
    }

    /// Number of base facts currently stored.
    pub fn base_fact_count(&self) -> usize {
        self.base.values().map(|r| r.len()).sum()
    }

    /// Append one record group — the records of one commit or one flush —
    /// under a single `watermark`, folding each into the in-memory state, then
    /// flush once and account the group in the telemetry plane.  The one
    /// append body behind the four `log_*` names.
    fn append_group<'a>(
        &mut self,
        op: WalOp,
        entries: impl IntoIterator<Item = (&'a str, &'a Tuple, &'a [u8])>,
        watermark: u64,
    ) -> Result<()> {
        let timer = secureblox_telemetry::histogram!("store_wal_append_ns").start_timer();
        let mut appended = 0u64;
        for (pred, tuple, signature) in entries {
            let record =
                self.wal
                    .append_signed(op, pred, tuple.clone(), watermark, signature.to_vec())?;
            apply(&mut self.base, &mut self.export_cursor, &record);
            appended += 1;
        }
        self.watermark = self.watermark.max(watermark);
        if self.flush_each_batch {
            self.wal.flush()?;
        }
        drop(timer);
        secureblox_telemetry::histogram!("store_wal_batch_size").record(appended);
        secureblox_telemetry::counter!("store_wal_records_total").add(appended);
        Ok(())
    }

    /// Log a batch of inserted base facts committed at `watermark`.
    pub fn log_inserts<'a>(
        &mut self,
        facts: impl IntoIterator<Item = (&'a str, &'a Tuple)>,
        watermark: u64,
    ) -> Result<()> {
        self.append_group(WalOp::Insert, unsigned(facts), watermark)
    }

    /// Log a batch of retracted base facts committed at `watermark`.
    pub fn log_retracts<'a>(
        &mut self,
        facts: impl IntoIterator<Item = (&'a str, &'a Tuple)>,
        watermark: u64,
    ) -> Result<()> {
        self.append_group(WalOp::Retract, unsigned(facts), watermark)
    }

    /// Log export-cursor entries: each tuple was shipped to a peer under the
    /// given detached signature.  Cursor records never touch the base facts
    /// (or the Merkle commitment); they exist so recovery knows which exports
    /// a crashed node still owes withdrawal messages for.
    pub fn log_export_marks<'a>(
        &mut self,
        entries: impl IntoIterator<Item = (&'a str, &'a Tuple, &'a [u8])>,
        watermark: u64,
    ) -> Result<()> {
        self.append_group(WalOp::ExportMark, entries, watermark)
    }

    /// Log the withdrawal of export-cursor entries: the retraction for each
    /// tuple has been flushed to its peer, discharging the recovery
    /// obligation the matching [`WalOp::ExportMark`] created.
    pub fn log_export_clears<'a>(
        &mut self,
        entries: impl IntoIterator<Item = (&'a str, &'a Tuple)>,
        watermark: u64,
    ) -> Result<()> {
        self.append_group(WalOp::ExportClear, unsigned(entries), watermark)
    }

    /// The live export cursor in deterministic (predicate, canonical tuple)
    /// order: every tuple currently shipped to a peer with the signature it
    /// went out under.
    pub fn export_cursor(&self) -> Vec<(String, Tuple, Vec<u8>)> {
        self.export_cursor
            .iter()
            .map(|((pred, _), (tuple, signature))| (pred.clone(), tuple.clone(), signature.clone()))
            .collect()
    }

    /// Flush appended WAL records to the operating system (a no-op when
    /// every batch already flushes).  Replication reads the log file from
    /// disk, so it flushes before shipping a suffix.
    pub fn flush(&mut self) -> Result<()> {
        self.wal.flush()
    }

    /// The Merkle root committing the current base-fact state, computed
    /// without writing anything.
    pub fn base_root(&self) -> [u8; HASH_LEN] {
        let relations = self.relation_entries_dry();
        let leaves: Vec<[u8; HASH_LEN]> = relations
            .iter()
            .map(|(name, bytes)| {
                crate::merkle::leaf_hash(name, &crate::snapshot::relation_digest(bytes))
            })
            .collect();
        crate::merkle::merkle_root(&leaves)
    }

    /// The Merkle root as lowercase hex.
    pub fn base_root_hex(&self) -> String {
        to_hex(&self.base_root())
    }

    fn relation_entries_dry(&self) -> Vec<(String, Vec<u8>)> {
        self.base
            .iter()
            .filter(|(_, relation)| !relation.is_empty())
            .map(|(name, relation)| (name.clone(), encode_relation(name, relation.keys())))
            .collect()
    }

    /// Write a content-addressed snapshot of the current base facts, swap
    /// `HEAD` to it, and compact the WAL.  Old snapshots remain readable
    /// (objects are immutable); the log records the snapshot supersedes are
    /// dropped — recovery would skip them anyway (`seq < wal_seq`) — so the
    /// log stays proportional to the work since the last checkpoint rather
    /// than to the node's lifetime.
    pub fn checkpoint(&mut self, watermark: u64) -> Result<SnapshotInfo> {
        let _checkpoint_timer =
            secureblox_telemetry::histogram!("store_checkpoint_ns").start_timer();
        let mut checkpoint_span = secureblox_telemetry::span("store", "checkpoint");
        self.wal.flush()?;
        let snapshot_timer =
            secureblox_telemetry::histogram!("store_snapshot_write_ns").start_timer();
        let mut entries = Vec::new();
        for (name, bytes) in self.relation_entries_dry() {
            let object = self.objects.put(&bytes)?;
            entries.push(RelationEntry { name, object });
        }
        let root = SnapshotManifest::compute_root(&entries)?;
        let watermark = watermark.max(self.watermark);
        let manifest = SnapshotManifest {
            watermark,
            wal_seq: self.wal.next_seq(),
            relations: entries,
            root,
        };
        let manifest_id = self.objects.put(&manifest.encode())?;
        write_head(&self.dir.join("HEAD"), &manifest_id)?;
        drop(snapshot_timer);
        checkpoint_span.record_field("relations", manifest.relations.len());
        checkpoint_span.record_field("wal_seq", manifest.wal_seq);
        // The snapshot is durable: every logged base-fact record is now
        // redundant.  The export cursor is *not* in the snapshot (it is not
        // part of the fact state or its commitment), so re-log its live
        // entries after compaction; their sequence numbers land at or past
        // `wal_seq`, so recovery replays them as ordinary suffix records.
        self.wal.truncate_all(manifest.wal_seq)?;
        for ((pred, _), (tuple, signature)) in self.export_cursor.clone() {
            self.wal
                .append_signed(WalOp::ExportMark, &pred, tuple, watermark, signature)?;
        }
        self.wal.flush()?;
        let info = SnapshotInfo {
            manifest_id,
            watermark,
            wal_seq: manifest.wal_seq,
            root,
        };
        self.snapshot = Some(info.clone());
        self.watermark = watermark;
        Ok(info)
    }
}

/// Group entries that carry no detached signature (every op but
/// [`WalOp::ExportMark`]).
fn unsigned<'a>(
    facts: impl IntoIterator<Item = (&'a str, &'a Tuple)>,
) -> impl Iterator<Item = (&'a str, &'a Tuple, &'a [u8])> {
    facts
        .into_iter()
        .map(|(pred, tuple)| (pred, tuple, &[][..]))
}

fn apply(
    base: &mut BTreeMap<String, BTreeMap<Vec<u8>, Tuple>>,
    export_cursor: &mut ExportCursor,
    record: &WalRecord,
) {
    match record.op {
        WalOp::Insert => {
            base.entry(record.pred.clone())
                .or_default()
                .insert(serialize_tuple(&record.tuple), record.tuple.clone());
        }
        WalOp::Retract => {
            if let Some(relation) = base.get_mut(&record.pred) {
                relation.remove(&serialize_tuple(&record.tuple));
                if relation.is_empty() {
                    base.remove(&record.pred);
                }
            }
        }
        WalOp::ExportMark => {
            export_cursor.insert(
                (record.pred.clone(), serialize_tuple(&record.tuple)),
                (record.tuple.clone(), record.signature.clone()),
            );
        }
        WalOp::ExportClear => {
            export_cursor.remove(&(record.pred.clone(), serialize_tuple(&record.tuple)));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use secureblox_datalog::value::Value;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("sbx-store-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn fact(i: i64) -> (String, Tuple) {
        ("link".to_string(), vec![Value::str("n0"), Value::Int(i)])
    }

    #[test]
    fn wal_only_recovery() {
        let dir = tmp("walonly");
        let key = derive_node_key(1, "n0");
        let mut store = FactStore::open(&dir, &key).unwrap();
        let facts: Vec<(String, Tuple)> = (0..4).map(fact).collect();
        store
            .log_inserts(facts.iter().map(|(p, t)| (p.as_str(), t)), 10)
            .unwrap();
        let root = store.base_root();
        drop(store);

        let store = FactStore::open(&dir, &key).unwrap();
        assert_eq!(store.base_fact_count(), 4);
        assert_eq!(store.base_root(), root);
        assert_eq!(store.recovered_suffix().len(), 4);
        assert!(store.recovered_snapshot_facts().is_empty());
        assert_eq!(store.watermark(), 10);
    }

    #[test]
    fn a_node_directory_stays_under_the_root_and_bounded() {
        let config = DurabilityConfig::new("/base");
        // Plain principals keep their names, so existing stores stay put.
        for plain in ["n0", "sink", "node-7.a_b", &"x".repeat(64)] {
            assert_eq!(node_dir_name(plain), plain);
        }
        for hostile in ["../x", "a/b", "..", ".hidden", "", &"x".repeat(4_097), "ü"] {
            let name = node_dir_name(hostile);
            assert!(
                name.starts_with("p-") && name.len() == 42,
                "{hostile:?} -> {name}"
            );
            let dir = config.node_dir(hostile);
            assert_eq!(dir.parent(), Some(Path::new("/base")), "{hostile:?}");
            assert_eq!(dir.components().count(), 3, "{hostile:?}");
        }
        assert_ne!(node_dir_name("../x"), node_dir_name("a/b"));
    }

    #[test]
    fn snapshot_plus_suffix_recovery() {
        let dir = tmp("snapsuffix");
        let key = derive_node_key(1, "n0");
        let mut store = FactStore::open(&dir, &key).unwrap();
        let first: Vec<(String, Tuple)> = (0..3).map(fact).collect();
        store
            .log_inserts(first.iter().map(|(p, t)| (p.as_str(), t)), 5)
            .unwrap();
        let info = store.checkpoint(5).unwrap();
        assert_eq!(info.wal_seq, 3);
        let late = fact(99);
        store.log_inserts([(late.0.as_str(), &late.1)], 8).unwrap();
        let retracted = fact(0);
        store
            .log_retracts([(retracted.0.as_str(), &retracted.1)], 9)
            .unwrap();
        let root = store.base_root();
        let facts = store.base_facts();
        drop(store);

        let store = FactStore::open(&dir, &key).unwrap();
        assert_eq!(store.snapshot().unwrap().manifest_id, info.manifest_id);
        assert_eq!(store.recovered_snapshot_facts().len(), 3);
        assert_eq!(store.recovered_suffix().len(), 2);
        assert_eq!(store.base_facts(), facts);
        assert_eq!(store.base_root(), root);
        assert_eq!(store.watermark(), 9);
        assert_eq!(store.base_fact_count(), 3);
    }

    #[test]
    fn checkpoint_compacts_the_wal() {
        let dir = tmp("compact");
        let key = derive_node_key(1, "n0");
        let mut store = FactStore::open(&dir, &key).unwrap();
        let facts: Vec<(String, Tuple)> = (0..5).map(fact).collect();
        store
            .log_inserts(facts.iter().map(|(p, t)| (p.as_str(), t)), 3)
            .unwrap();
        let info = store.checkpoint(3).unwrap();
        assert_eq!(info.wal_seq, 5);
        // The log was truncated but the numbering continues past the
        // snapshot, so recovery replays exactly the post-checkpoint suffix.
        assert_eq!(std::fs::metadata(dir.join("wal.log")).unwrap().len(), 0);
        assert_eq!(store.wal_seq(), 5);
        let late = fact(50);
        store.log_inserts([(late.0.as_str(), &late.1)], 7).unwrap();
        let root = store.base_root();
        drop(store);

        let store = FactStore::open(&dir, &key).unwrap();
        assert_eq!(store.recovered_snapshot_facts().len(), 5);
        assert_eq!(store.recovered_suffix().len(), 1);
        assert_eq!(store.recovered_suffix()[0].seq, 5);
        assert_eq!(store.base_fact_count(), 6);
        assert_eq!(store.base_root(), root);
    }

    #[test]
    fn checkpoint_is_idempotent_on_content() {
        let dir = tmp("idem");
        let key = derive_node_key(1, "n0");
        let mut store = FactStore::open(&dir, &key).unwrap();
        let f = fact(1);
        store.log_inserts([(f.0.as_str(), &f.1)], 1).unwrap();
        let a = store.checkpoint(1).unwrap();
        let b = store.checkpoint(2).unwrap();
        // Same content → same relation objects and same root; only the
        // watermark/wal_seq header differs.
        assert_eq!(a.root, b.root);
        assert_eq!(a.root, store.base_root());
    }

    #[test]
    fn export_cursor_survives_reopen_and_checkpoint() {
        let dir = tmp("exportcursor");
        let key = derive_node_key(1, "n0");
        let mut store = FactStore::open(&dir, &key).unwrap();
        let f = fact(1);
        store.log_inserts([(f.0.as_str(), &f.1)], 1).unwrap();
        let root = store.base_root();
        let exported = vec![Value::str("n0"), Value::str("n1"), Value::Int(7)];
        let gone = vec![Value::str("n0"), Value::str("n1"), Value::Int(8)];
        store
            .log_export_marks(
                [
                    ("says$link", &exported, &[0xAB, 0xCD][..]),
                    ("says$link", &gone, &[][..]),
                ],
                2,
            )
            .unwrap();
        store.log_export_clears([("says$link", &gone)], 3).unwrap();
        // Cursor entries never move the Merkle commitment.
        assert_eq!(store.base_root(), root);
        assert_eq!(store.base_fact_count(), 1);
        drop(store);

        let mut store = FactStore::open(&dir, &key).unwrap();
        assert_eq!(
            store.export_cursor(),
            vec![("says$link".to_string(), exported.clone(), vec![0xAB, 0xCD])]
        );
        assert_eq!(store.base_root(), root);
        // Checkpoint compaction re-logs the live cursor past the snapshot's
        // replay boundary, so it survives the WAL truncation too.
        let info = store.checkpoint(4).unwrap();
        assert_eq!(info.root, root);
        drop(store);
        let store = FactStore::open(&dir, &key).unwrap();
        assert_eq!(
            store.export_cursor(),
            vec![("says$link".to_string(), exported, vec![0xAB, 0xCD])]
        );
        assert_eq!(store.base_root(), root);
        assert_eq!(store.base_fact_count(), 1);
    }

    #[test]
    fn tampered_snapshot_object_is_detected() {
        let dir = tmp("snaptamper");
        let key = derive_node_key(1, "n0");
        let mut store = FactStore::open(&dir, &key).unwrap();
        let f = fact(1);
        store.log_inserts([(f.0.as_str(), &f.1)], 1).unwrap();
        let info = store.checkpoint(1).unwrap();
        drop(store);
        // Flip one byte in the relation object (not the manifest).
        let manifest = SnapshotManifest::decode(
            &ObjectStore::open(dir.join("objects"))
                .unwrap()
                .get(&info.manifest_id)
                .unwrap(),
        )
        .unwrap();
        let object_path = dir.join("objects").join(&manifest.relations[0].object);
        let mut bytes = std::fs::read(&object_path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 1;
        std::fs::write(&object_path, &bytes).unwrap();
        assert!(matches!(
            FactStore::open(&dir, &key),
            Err(StoreError::ObjectMismatch { .. })
        ));
    }

    #[test]
    fn dangling_head_is_missing_object() {
        let dir = tmp("danglinghead");
        let key = derive_node_key(1, "n0");
        drop(FactStore::open(&dir, &key).unwrap());
        write_head(&dir.join("HEAD"), &crate::object::object_id(b"gone")).unwrap();
        assert!(matches!(
            FactStore::open(&dir, &key),
            Err(StoreError::MissingObject { .. })
        ));
    }
}
