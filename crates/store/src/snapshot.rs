//! Content-addressed snapshots of a node's extensional database.
//!
//! A snapshot is two kinds of objects in the [`crate::object::ObjectStore`]:
//!
//! * one **relation object** per non-empty relation — the relation name, the
//!   tuple count, and every tuple in canonical [`secureblox_datalog::codec`]
//!   encoding, sorted by encoded bytes so equal relations always produce the
//!   identical object (and therefore the identical object id);
//! * one **manifest object** naming the watermark, the WAL sequence number
//!   the snapshot includes, the sorted relation → object-id listing, and the
//!   Merkle root binding them all together.
//!
//! A small `HEAD` file (outside the object store, swapped atomically) points
//! at the current manifest.  Because objects are immutable and content
//! addressed, checkpointing never rewrites old state and replica sync is
//! "copy missing objects, then swap HEAD".

use crate::error::{Result, StoreError};
use crate::merkle::{leaf_hash, merkle_root, HASH_LEN};
use crate::object::{is_object_id, ObjectId};
use secureblox_crypto::sha1;
use secureblox_datalog::codec::{ensure, write_string, DecodeError, Reader};
use secureblox_datalog::value::Tuple;
use std::fs;
use std::path::Path;

const MANIFEST_MAGIC: &[u8; 8] = b"SBSNAP1\0";
const RELATION_MAGIC: &[u8; 8] = b"SBREL1\0\0";

/// One relation in a snapshot manifest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RelationEntry {
    pub name: String,
    /// Object id of the relation object (= SHA-1 of its encoding).
    pub object: ObjectId,
}

impl RelationEntry {
    /// The Merkle leaf committing this relation.
    pub fn leaf(&self) -> Result<[u8; HASH_LEN]> {
        let digest =
            decode_hex_digest(&self.object).ok_or_else(|| StoreError::CorruptSnapshot {
                reason: format!("bad object id {}", self.object),
            })?;
        Ok(leaf_hash(&self.name, &digest))
    }
}

/// The manifest committing a node's entire EDB at a watermark.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotManifest {
    /// Virtual time (ns) the snapshot was taken at.
    pub watermark: u64,
    /// Number of WAL records the snapshot state already includes; recovery
    /// replays only records with `seq >= wal_seq`.
    pub wal_seq: u64,
    /// Relations sorted by name.
    pub relations: Vec<RelationEntry>,
    /// Merkle root over the relation leaves in listed order.
    pub root: [u8; HASH_LEN],
}

impl SnapshotManifest {
    /// Recompute the Merkle root from the relation listing.
    pub fn compute_root(relations: &[RelationEntry]) -> Result<[u8; HASH_LEN]> {
        let leaves: Vec<[u8; HASH_LEN]> = relations
            .iter()
            .map(|entry| entry.leaf())
            .collect::<Result<_>>()?;
        Ok(merkle_root(&leaves))
    }

    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(MANIFEST_MAGIC);
        out.extend_from_slice(&self.watermark.to_be_bytes());
        out.extend_from_slice(&self.wal_seq.to_be_bytes());
        out.extend_from_slice(&(self.relations.len() as u32).to_be_bytes());
        for entry in &self.relations {
            write_string(&mut out, &entry.name);
            write_string(&mut out, &entry.object);
        }
        out.extend_from_slice(&self.root);
        out
    }

    pub fn decode(data: &[u8]) -> Result<SnapshotManifest> {
        let manifest = Self::read(&mut Reader::new(data)).map_err(corrupt)?;
        let recomputed = SnapshotManifest::compute_root(&manifest.relations)?;
        if recomputed != manifest.root {
            return Err(StoreError::RootMismatch {
                expected: secureblox_crypto::to_hex(&manifest.root),
                actual: secureblox_crypto::to_hex(&recomputed),
            });
        }
        Ok(manifest)
    }

    fn read(reader: &mut Reader) -> std::result::Result<SnapshotManifest, DecodeError> {
        ensure(reader.array()? == *MANIFEST_MAGIC, 0, "manifest magic")?;
        let (watermark, wal_seq) = (reader.u64()?, reader.u64()?);
        // An entry is two length-prefixed strings.
        let count = reader.count(8)?;
        let mut relations: Vec<RelationEntry> = Vec::with_capacity(count);
        for _ in 0..count {
            let offset = reader.offset();
            let (name, object) = (reader.str()?, reader.str()?);
            let sorted = relations.last().is_none_or(|l| l.name.as_str() < name);
            ensure(sorted, offset, "relation order")?;
            ensure(is_object_id(object), offset, "object id")?;
            let (name, object) = (name.to_owned(), object.to_owned());
            relations.push(RelationEntry { name, object });
        }
        let root = reader.array()?;
        reader.finish()?;
        Ok(SnapshotManifest {
            watermark,
            wal_seq,
            relations,
            root,
        })
    }
}

/// Encode a relation object from canonically encoded tuples (must already be
/// sorted by encoded bytes; the encoding asserts this in debug builds).
pub fn encode_relation<'a>(
    name: &str,
    encoded_tuples: impl ExactSizeIterator<Item = &'a Vec<u8>>,
) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(RELATION_MAGIC);
    write_string(&mut out, name);
    out.extend_from_slice(&(encoded_tuples.len() as u32).to_be_bytes());
    let mut previous: Option<&Vec<u8>> = None;
    for encoded in encoded_tuples {
        debug_assert!(
            previous.is_none_or(|p| p < encoded),
            "tuples must be sorted"
        );
        previous = Some(encoded);
        out.extend_from_slice(encoded);
    }
    out
}

/// Decode a relation object into its name and tuples.
pub fn decode_relation(data: &[u8]) -> Result<(String, Vec<Tuple>)> {
    read_relation(&mut Reader::new(data)).map_err(corrupt)
}

/// A relation object's tuples must be strictly ascending by encoded bytes,
/// as [`encode_relation`] writes them.
fn read_relation(reader: &mut Reader) -> std::result::Result<(String, Vec<Tuple>), DecodeError> {
    ensure(reader.array()? == *RELATION_MAGIC, 0, "relation magic")?;
    let name = reader.str()?.to_owned();
    // The shortest tuple is its own four-byte length.
    let count = reader.count(4)?;
    let mut tuples = Vec::with_capacity(count);
    let mut previous = None;
    for _ in 0..count {
        let offset = reader.offset();
        tuples.push(reader.tuple()?);
        let encoded = reader.since(offset);
        ensure(previous.is_none_or(|p| p < encoded), offset, "tuple order")?;
        previous = Some(encoded);
    }
    reader.finish()?;
    Ok((name, tuples))
}

/// A snapshot object that does not decode.
fn corrupt(error: DecodeError) -> StoreError {
    let reason = error.to_string();
    StoreError::CorruptSnapshot { reason }
}

/// The content digest of a relation object (its would-be object id, raw).
pub fn relation_digest(bytes: &[u8]) -> [u8; HASH_LEN] {
    sha1(bytes)
}

fn decode_hex_digest(hex: &str) -> Option<[u8; HASH_LEN]> {
    if hex.len() != 2 * HASH_LEN {
        return None;
    }
    let mut out = [0u8; HASH_LEN];
    for (i, chunk) in hex.as_bytes().chunks(2).enumerate() {
        let high = (chunk[0] as char).to_digit(16)?;
        let low = (chunk[1] as char).to_digit(16)?;
        out[i] = (high * 16 + low) as u8;
    }
    Some(out)
}

/// Read the `HEAD` pointer: the manifest's object id.
pub fn read_head(path: &Path) -> Result<Option<ObjectId>> {
    let text = match fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(StoreError::io(path, e)),
    };
    let id = text.trim();
    if !is_object_id(id) {
        return Err(StoreError::CorruptHead {
            reason: format!("not an object id: {id:?}"),
        });
    }
    Ok(Some(id.to_string()))
}

/// Atomically swap the `HEAD` pointer to a new manifest id.
pub fn write_head(path: &Path, id: &ObjectId) -> Result<()> {
    let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
    fs::write(&tmp, format!("{id}\n")).map_err(|e| StoreError::io(&tmp, e))?;
    fs::rename(&tmp, path).map_err(|e| StoreError::io(path, e))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::object::object_id;
    use secureblox_datalog::codec::serialize_tuple;
    use secureblox_datalog::value::Value;

    fn sample_relation() -> (Vec<u8>, Vec<Tuple>) {
        let mut tuples = vec![
            vec![Value::str("a"), Value::Int(1)],
            vec![Value::str("b"), Value::Int(2), Value::Bool(true)],
        ];
        tuples.sort_by_key(|x| serialize_tuple(x));
        let encoded: Vec<Vec<u8>> = tuples.iter().map(|t| serialize_tuple(t)).collect();
        (encode_relation("link", encoded.iter()), tuples)
    }

    #[test]
    fn relation_roundtrip() {
        let (bytes, tuples) = sample_relation();
        let (name, back) = decode_relation(&bytes).unwrap();
        assert_eq!(name, "link");
        assert_eq!(back, tuples);
        assert!(decode_relation(&bytes[..bytes.len() - 2]).is_err());
    }

    #[test]
    fn manifest_roundtrip_and_root_check() {
        let (bytes, _) = sample_relation();
        let relations = vec![RelationEntry {
            name: "link".into(),
            object: object_id(&bytes),
        }];
        let root = SnapshotManifest::compute_root(&relations).unwrap();
        let manifest = SnapshotManifest {
            watermark: 12345,
            wal_seq: 7,
            relations,
            root,
        };
        let encoded = manifest.encode();
        assert_eq!(SnapshotManifest::decode(&encoded).unwrap(), manifest);
        // A manifest whose root does not match its listing is rejected.
        let mut forged = manifest.clone();
        forged.root[0] ^= 1;
        assert!(matches!(
            SnapshotManifest::decode(&forged.encode()),
            Err(StoreError::RootMismatch { .. })
        ));
    }

    #[test]
    fn hostile_counts_are_corrupt_snapshots_not_allocations() {
        let (relation, _) = sample_relation();
        let count_at = 8 + 4 + "link".len();
        let mut hostile = relation[..count_at].to_vec();
        hostile.extend_from_slice(&[0xFF; 4]);
        assert!(matches!(
            decode_relation(&hostile),
            Err(StoreError::CorruptSnapshot { .. })
        ));
        let mut manifest = MANIFEST_MAGIC.to_vec();
        manifest.extend_from_slice(&[0; 16]);
        manifest.extend_from_slice(&[0xFF; 4]);
        assert!(matches!(
            SnapshotManifest::decode(&manifest),
            Err(StoreError::CorruptSnapshot { .. })
        ));
    }

    /// Regression: a relation object used to decode with its tuples in any
    /// order and with duplicates, which `encode_relation` never writes, so
    /// one relation had many object ids.
    #[test]
    fn unsorted_or_duplicate_tuples_are_corrupt() {
        let (_, tuples) = sample_relation();
        let encoded: Vec<Vec<u8>> = tuples.iter().map(|t| serialize_tuple(t)).collect();
        let frame = |order: &[usize]| {
            let mut out = RELATION_MAGIC.to_vec();
            write_string(&mut out, "link");
            out.extend_from_slice(&(order.len() as u32).to_be_bytes());
            order
                .iter()
                .for_each(|&i| out.extend_from_slice(&encoded[i]));
            out
        };
        assert_eq!(decode_relation(&frame(&[0, 1])).unwrap().1, tuples);
        for order in [[1, 0], [0, 0]] {
            match decode_relation(&frame(&order)) {
                Err(StoreError::CorruptSnapshot { reason }) => {
                    assert!(reason.contains("tuple order"), "{order:?}: {reason}")
                }
                other => panic!("{order:?}: expected CorruptSnapshot, got {other:?}"),
            }
        }
    }

    #[test]
    fn head_roundtrip_and_corruption() {
        let dir = std::env::temp_dir().join(format!("sbx-head-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let head = dir.join("HEAD");
        assert_eq!(read_head(&head).unwrap(), None);
        let id = object_id(b"manifest");
        write_head(&head, &id).unwrap();
        assert_eq!(read_head(&head).unwrap(), Some(id));
        std::fs::write(&head, "not-a-hash\n").unwrap();
        assert!(matches!(
            read_head(&head),
            Err(StoreError::CorruptHead { .. })
        ));
    }
}
