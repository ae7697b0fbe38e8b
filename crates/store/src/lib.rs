//! # secureblox-store — durable fact store for SecureBlox deployments
//!
//! SecureBlox derives all distributed state from authenticated base facts,
//! which makes durability unusually clean: persist the *extensional*
//! database (the facts a node was told) and every derived fact is
//! rebuildable by re-running the seminaive fixpoint.  This crate provides
//! that persistence, with the same adversarial posture as the rest of the
//! reproduction — storage, like the network, is an untrusted substrate
//! (cf. SecureCloud / SecureStreams), so every byte read back is
//! authenticated before it is believed:
//!
//! * [`wal`] — an append-only log of base-fact insertions/retractions,
//!   each record framed with the canonical tuple codec and sealed by an
//!   HMAC-SHA1 *chain* tag, so splicing, reordering, or flipping a single
//!   byte is a typed [`StoreError::TamperedRecord`];
//! * [`object`] — a content-addressed object store (SHA-1 names), the
//!   git-style substrate for snapshots;
//! * [`merkle`] — the commitment scheme: one leaf per relation, one root
//!   per snapshot, with audit paths for single-relation proofs;
//! * [`snapshot`] — Merkle-committed manifests binding a node's entire
//!   EDB at a virtual-time watermark, plus the atomically swapped `HEAD`
//!   pointer;
//! * [`store`] — [`FactStore`]: open-is-recovery (load snapshot, verify
//!   and replay the WAL suffix), append, checkpoint;
//! * [`sync`] — master → replica replication by copying missing objects
//!   and swapping `HEAD`.
//!
//! The deployment-facing integration (logging committed batches,
//! `Deployment::checkpoint`, `Deployment::recover`) lives in the
//! `secureblox` core crate; see `DESIGN.md` for the full design.

pub mod error;
pub mod merkle;
pub mod object;
pub mod snapshot;
pub mod store;
pub mod sync;
pub mod wal;

pub use error::{Result, StoreError};
pub use merkle::{leaf_hash, merkle_proof, merkle_root, verify_proof, ProofStep, HASH_LEN};
pub use object::{object_id, ObjectId, ObjectStore};
pub use snapshot::{RelationEntry, SnapshotManifest};
pub use store::{derive_node_key, node_dir_name, DurabilityConfig, FactStore, SnapshotInfo};
pub use sync::{sync_deployment, sync_store, SyncStats};
pub use wal::{Wal, WalOp, WalRecord};
