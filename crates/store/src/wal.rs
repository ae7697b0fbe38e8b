//! Append-only write-ahead log of base-fact insertions and retractions.
//!
//! Every record is framed as `len:u32 | body | tag:20` where the body is the
//! canonical [`secureblox_datalog::codec`] encoding of the record and the tag
//! is an HMAC-SHA1 *chain*: `tag_i = HMAC(key, tag_{i-1} || len_i || body_i)`
//! with an all-zero genesis tag.  Chaining means an attacker who can rewrite
//! the file cannot splice, reorder, drop, or alter records without the key —
//! any single flipped byte invalidates every tag from that record onward, and
//! verification reports the first failing sequence number as a typed
//! [`StoreError::TamperedRecord`], never a panic.
//!
//! Torn writes (a crash mid-append) leave a readable verified prefix followed
//! by a partial frame; [`Wal::open_tolerant`] recovers the prefix and reports
//! where the tail was cut, while [`Wal::open`] surfaces the typed
//! [`StoreError::TruncatedWal`] so callers can decide.

use crate::error::{Result, StoreError};
use secureblox_crypto::hmac_sha1;
use secureblox_datalog::codec::{serialize_tuple, write_string, DecodeError, Reader};
use secureblox_datalog::value::Tuple;
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};

/// Length of the HMAC-SHA1 chain tag.
pub const TAG_LEN: usize = 20;

/// The operations a WAL record can describe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WalOp {
    /// A base fact inserted by a committed transaction.
    Insert,
    /// A base fact retracted (incremental deletion).
    Retract,
    /// An export-cursor entry: this tuple was shipped to a peer with the
    /// recorded detached signature.  Never touches the base fact set.
    ExportMark,
    /// The matching cursor withdrawal: the retraction for this tuple has been
    /// flushed to the peer, so no recovery obligation remains.
    ExportClear,
}

/// One decoded WAL record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalRecord {
    /// Zero-based position in the log (also the chain index).
    pub seq: u64,
    /// Virtual-time watermark of the committing transaction, in nanoseconds.
    /// Records that committed together share a watermark, which lets recovery
    /// replay them with the original transaction boundaries.
    pub watermark: u64,
    pub op: WalOp,
    /// The predicate the fact belongs to.
    pub pred: String,
    pub tuple: Tuple,
    /// Detached signature shipped with the tuple; only encoded for the export
    /// ops, so [`WalOp::Insert`]/[`WalOp::Retract`] frames stay byte-identical
    /// to logs written before export tracking existed.
    pub signature: Vec<u8>,
}

impl WalRecord {
    fn encode_body(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(32 + self.pred.len());
        out.extend_from_slice(&self.seq.to_be_bytes());
        out.extend_from_slice(&self.watermark.to_be_bytes());
        out.push(match self.op {
            WalOp::Insert => 0,
            WalOp::Retract => 1,
            WalOp::ExportMark => 2,
            WalOp::ExportClear => 3,
        });
        write_string(&mut out, &self.pred);
        out.extend_from_slice(&serialize_tuple(&self.tuple));
        if matches!(self.op, WalOp::ExportMark | WalOp::ExportClear) {
            out.extend_from_slice(&(self.signature.len() as u32).to_be_bytes());
            out.extend_from_slice(&self.signature);
        }
        out
    }

    /// Decode a record body; sequence contiguity is the caller's check.
    fn decode_body(body: &[u8]) -> std::result::Result<WalRecord, DecodeError> {
        use WalOp::{ExportClear, ExportMark, Insert, Retract};
        let mut reader = Reader::new(body);
        let mut record = WalRecord {
            seq: reader.u64()?,
            watermark: reader.u64()?,
            op: [Insert, Retract, ExportMark, ExportClear][reader.tag(4, "WAL op")? as usize],
            pred: reader.str()?.to_owned(),
            tuple: reader.tuple()?,
            signature: Vec::new(),
        };
        if matches!(record.op, ExportMark | ExportClear) {
            record.signature = reader.bytes()?.to_vec();
        }
        reader.finish()?;
        Ok(record)
    }
}

/// Compute the chain tag for one frame.
fn chain_tag(key: &[u8], prev: &[u8; TAG_LEN], len_be: &[u8; 4], body: &[u8]) -> [u8; TAG_LEN] {
    hmac_sha1(key, &[prev, &len_be[..], body].concat())
}

/// The outcome of reading a WAL file from disk.
#[derive(Debug)]
pub struct WalReadout {
    pub records: Vec<WalRecord>,
    /// Chain tag of the last verified record (genesis tag when empty).
    pub last_tag: [u8; TAG_LEN],
    /// Byte offset where a torn tail begins, if the file ends mid-frame.
    pub torn_at: Option<u64>,
}

fn read_wal(path: &Path, key: &[u8]) -> Result<WalReadout> {
    let data = match std::fs::read(path) {
        Ok(data) => data,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(StoreError::io(path, e)),
    };
    let mut records = Vec::new();
    let mut tag = [0u8; TAG_LEN];
    let mut torn_at = None;
    let mut reader = Reader::new(&data);
    while reader.offset() < data.len() {
        let frame_start = reader.offset();
        let frame = reader.bytes().and_then(|body| Ok((body, reader.array()?)));
        let Ok((body, stored_tag)) = frame else {
            torn_at = Some(frame_start as u64);
            break;
        };
        let index = records.len() as u64;
        let expected = chain_tag(key, &tag, &(body.len() as u32).to_be_bytes(), body);
        if stored_tag != expected {
            return Err(StoreError::TamperedRecord { seq: index });
        }
        let corrupt = |reason| StoreError::CorruptRecord { seq: index, reason };
        let record = WalRecord::decode_body(body).map_err(|e| corrupt(e.to_string()))?;
        // A WAL may start at any sequence number: a store seeded from a
        // synced snapshot continues the master's numbering.
        let previous = records.last().map(|r: &WalRecord| r.seq);
        if previous.is_some_and(|previous| record.seq.checked_sub(1) != Some(previous)) {
            return Err(corrupt(format!("record claims sequence {}", record.seq)));
        }
        records.push(record);
        tag = expected;
    }
    Ok(WalReadout {
        records,
        last_tag: tag,
        torn_at,
    })
}

/// An open write-ahead log: verified records already on disk plus an append
/// handle that continues the HMAC chain.
#[derive(Debug)]
pub struct Wal {
    path: PathBuf,
    key: Vec<u8>,
    file: File,
    next_seq: u64,
    last_tag: [u8; TAG_LEN],
}

impl Wal {
    /// Open (creating if absent) and verify the full log.  A torn tail is an
    /// error here; use [`Wal::open_tolerant`] to salvage the verified prefix.
    pub fn open(path: impl Into<PathBuf>, key: &[u8]) -> Result<(Wal, Vec<WalRecord>)> {
        let (wal, readout) = Self::open_inner(path.into(), key)?;
        if let Some(offset) = readout.torn_at {
            return Err(StoreError::TruncatedWal { offset });
        }
        Ok((wal, readout.records))
    }

    /// Open the log, truncating a torn tail (crash mid-append) after the last
    /// fully verified record.  Returns the salvage offset when that happened.
    pub fn open_tolerant(
        path: impl Into<PathBuf>,
        key: &[u8],
    ) -> Result<(Wal, Vec<WalRecord>, Option<u64>)> {
        let path = path.into();
        let (wal, readout) = Self::open_inner(path.clone(), key)?;
        if let Some(offset) = readout.torn_at {
            let file = OpenOptions::new()
                .write(true)
                .open(&path)
                .map_err(|e| StoreError::io(&path, e))?;
            file.set_len(offset).map_err(|e| StoreError::io(&path, e))?;
        }
        Ok((wal, readout.records, readout.torn_at))
    }

    fn open_inner(path: PathBuf, key: &[u8]) -> Result<(Wal, WalReadout)> {
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent).map_err(|e| StoreError::io(parent, e))?;
        }
        let readout = read_wal(&path, key)?;
        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .map_err(|e| StoreError::io(&path, e))?;
        let wal = Wal {
            path,
            key: key.to_vec(),
            file,
            next_seq: readout
                .records
                .last()
                .map_or(0, |r| r.seq.saturating_add(1)),
            last_tag: readout.last_tag,
        };
        Ok((wal, readout))
    }

    /// Advance the next sequence number without writing anything.  Used when
    /// a store holds a snapshot but not the WAL history behind it (a synced
    /// replica): fresh appends continue the snapshot's numbering so the
    /// `seq >= wal_seq` replay rule keeps working.  Never moves backwards.
    pub fn advance_seq_to(&mut self, seq: u64) {
        self.next_seq = self.next_seq.max(seq);
    }

    /// Sequence number the next appended record will get (== records written).
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Append one record, extending the HMAC chain, and return it.
    pub fn append(
        &mut self,
        op: WalOp,
        pred: &str,
        tuple: Tuple,
        watermark: u64,
    ) -> Result<WalRecord> {
        self.append_signed(op, pred, tuple, watermark, Vec::new())
    }

    /// [`Wal::append`] with a detached signature payload; only the export ops
    /// encode it, base-fact records ignore it.
    pub fn append_signed(
        &mut self,
        op: WalOp,
        pred: &str,
        tuple: Tuple,
        watermark: u64,
        signature: Vec<u8>,
    ) -> Result<WalRecord> {
        let record = WalRecord {
            seq: self.next_seq,
            watermark,
            op,
            pred: pred.to_string(),
            tuple,
            signature,
        };
        let body = record.encode_body();
        let len_be = (body.len() as u32).to_be_bytes();
        let tag = chain_tag(&self.key, &self.last_tag, &len_be, &body);
        let mut frame = Vec::with_capacity(4 + body.len() + TAG_LEN);
        frame.extend_from_slice(&len_be);
        frame.extend_from_slice(&body);
        frame.extend_from_slice(&tag);
        self.file
            .write_all(&frame)
            .map_err(|e| StoreError::io(&self.path, e))?;
        self.last_tag = tag;
        self.next_seq += 1;
        Ok(record)
    }

    /// Flush appended records to the operating system.
    pub fn flush(&mut self) -> Result<()> {
        self.file.flush().map_err(|e| StoreError::io(&self.path, e))
    }

    /// Compact the log: drop every record on disk and restart the HMAC chain
    /// from the genesis tag, while continuing the sequence numbering at
    /// `next_seq` (never moving backwards).  Called after a snapshot has made
    /// the logged history redundant — recovery skips records below the
    /// snapshot's `wal_seq`, so a log whose first record starts there is
    /// equivalent to the full log.
    pub fn truncate_all(&mut self, next_seq: u64) -> Result<()> {
        self.file
            .flush()
            .map_err(|e| StoreError::io(&self.path, e))?;
        self.file
            .set_len(0)
            .map_err(|e| StoreError::io(&self.path, e))?;
        self.last_tag = [0u8; TAG_LEN];
        self.next_seq = self.next_seq.max(next_seq);
        Ok(())
    }

    /// Re-read and verify the log from disk without touching the append state.
    pub fn verify(&self) -> Result<Vec<WalRecord>> {
        let readout = read_wal(&self.path, &self.key)?;
        if let Some(offset) = readout.torn_at {
            return Err(StoreError::TruncatedWal { offset });
        }
        Ok(readout.records)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use secureblox_datalog::value::Value;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("sbx-wal-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("wal.log")
    }

    fn sample(i: i64) -> Tuple {
        vec![Value::str("n0"), Value::Int(i), Value::bytes(vec![7, 8, 9])]
    }

    #[test]
    fn append_reopen_roundtrip() {
        let path = tmp("roundtrip");
        let key = b"k";
        let (mut wal, records) = Wal::open(&path, key).unwrap();
        assert!(records.is_empty());
        for i in 0..5 {
            wal.append(WalOp::Insert, "link", sample(i), 100 + i as u64)
                .unwrap();
        }
        wal.append(WalOp::Retract, "link", sample(0), 200).unwrap();
        drop(wal);
        let (wal, records) = Wal::open(&path, key).unwrap();
        assert_eq!(records.len(), 6);
        assert_eq!(wal.next_seq(), 6);
        assert_eq!(records[2].tuple, sample(2));
        assert_eq!(records[5].op, WalOp::Retract);
        assert_eq!(records[5].watermark, 200);
    }

    #[test]
    fn export_ops_roundtrip_with_signature() {
        let path = tmp("export");
        let key = b"k";
        let (mut wal, _) = Wal::open(&path, key).unwrap();
        wal.append(WalOp::Insert, "link", sample(1), 10).unwrap();
        wal.append_signed(
            WalOp::ExportMark,
            "says$link",
            sample(2),
            11,
            vec![0xAA, 0xBB, 0xCC],
        )
        .unwrap();
        wal.append_signed(WalOp::ExportClear, "says$link", sample(2), 12, Vec::new())
            .unwrap();
        drop(wal);
        let (_, records) = Wal::open(&path, key).unwrap();
        assert_eq!(records.len(), 3);
        assert_eq!(records[0].signature, Vec::<u8>::new());
        assert_eq!(records[1].op, WalOp::ExportMark);
        assert_eq!(records[1].pred, "says$link");
        assert_eq!(records[1].signature, vec![0xAA, 0xBB, 0xCC]);
        assert_eq!(records[2].op, WalOp::ExportClear);
        assert!(records[2].signature.is_empty());
    }

    #[test]
    fn flipped_byte_is_typed_tamper_error() {
        let path = tmp("tamper");
        let key = b"k";
        let (mut wal, _) = Wal::open(&path, key).unwrap();
        for i in 0..3 {
            wal.append(WalOp::Insert, "link", sample(i), i as u64)
                .unwrap();
        }
        drop(wal);
        let clean = std::fs::read(&path).unwrap();
        for position in [4usize, clean.len() / 2, clean.len() - 1] {
            let mut bytes = clean.clone();
            bytes[position] ^= 0x40;
            std::fs::write(&path, &bytes).unwrap();
            match Wal::open(&path, key) {
                Err(StoreError::TamperedRecord { .. }) => {}
                other => panic!("flip at {position}: expected TamperedRecord, got {other:?}"),
            }
        }
    }

    #[test]
    fn wrong_key_rejects_first_record() {
        let path = tmp("wrongkey");
        let (mut wal, _) = Wal::open(&path, b"right").unwrap();
        wal.append(WalOp::Insert, "link", sample(1), 1).unwrap();
        drop(wal);
        match Wal::open(&path, b"wrong") {
            Err(StoreError::TamperedRecord { seq: 0 }) => {}
            other => panic!("expected TamperedRecord at 0, got {other:?}"),
        }
    }

    #[test]
    fn truncate_all_restarts_chain_and_keeps_numbering() {
        let path = tmp("truncate");
        let key = b"k";
        let (mut wal, _) = Wal::open(&path, key).unwrap();
        for i in 0..4 {
            wal.append(WalOp::Insert, "link", sample(i), i as u64)
                .unwrap();
        }
        wal.truncate_all(4).unwrap();
        assert_eq!(std::fs::metadata(&path).unwrap().len(), 0);
        assert_eq!(wal.next_seq(), 4);
        // Post-compaction appends verify from the genesis tag and keep the
        // sequence numbering.
        wal.append(WalOp::Insert, "link", sample(99), 9).unwrap();
        drop(wal);
        let (wal, records) = Wal::open(&path, key).unwrap();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].seq, 4);
        assert_eq!(wal.next_seq(), 5);
    }

    #[test]
    fn torn_tail_detected_and_salvaged() {
        let path = tmp("torn");
        let key = b"k";
        let (mut wal, _) = Wal::open(&path, key).unwrap();
        wal.append(WalOp::Insert, "link", sample(1), 1).unwrap();
        wal.append(WalOp::Insert, "link", sample(2), 2).unwrap();
        drop(wal);
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 7]).unwrap();
        match Wal::open(&path, key) {
            Err(StoreError::TruncatedWal { .. }) => {}
            other => panic!("expected TruncatedWal, got {other:?}"),
        }
        let (wal, records, torn) = Wal::open_tolerant(&path, key).unwrap();
        assert_eq!(records.len(), 1);
        assert!(torn.is_some());
        assert_eq!(wal.next_seq(), 1);
        // The salvaged log is clean again and appendable.
        drop(wal);
        let (mut wal, records) = Wal::open(&path, key).unwrap();
        assert_eq!(records.len(), 1);
        wal.append(WalOp::Insert, "link", sample(3), 3).unwrap();
        drop(wal);
        assert_eq!(Wal::open(&path, key).unwrap().1.len(), 2);
    }
}
