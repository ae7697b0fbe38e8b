//! Every decoder of bytes from outside the process, held to three rules over
//! mutated encodings of random valid values (DESIGN.md §9.7):
//!
//! 1. it returns `Ok` or its typed error, and never panics;
//! 2. it allocates at most a fixed multiple of its input's length;
//! 3. whatever it accepts re-encodes to exactly the input bytes.
//!
//! The mutations: truncation at every byte, bit flips, the `u32` at every
//! offset overwritten with 0, `u32::MAX` and itself ± 1 (which covers every
//! length and count prefix), two encodings spliced, and garbage appended.
//!
//! The decoders: the tuple codec, the update envelope, the WAL (through
//! `Wal::open` on a temp file, its frames re-tagged so mutated bodies reach
//! the record decoder), the snapshot manifest and relation objects, the
//! credit grant and the RSA public key.  The anonymity cell's decoder is
//! private to the runtime and has its own property in `runtime/node.rs`.
//!
//! The binary installs its own counting allocator.  Counts are per thread
//! (the harness's other threads never add to them).

use proptest::prelude::*;
use secureblox::runtime::{DeltaOp, UpdateDelta, UpdateEnvelope};
use secureblox_crypto::{hmac_sha1, sha1, to_hex, RsaPublicKey};
use secureblox_datalog::codec::{serialize_tuple, Reader};
use secureblox_datalog::value::{Tuple, Value};
use secureblox_net::message::{decode_credit, encode_credit};
use secureblox_store::snapshot::{decode_relation, encode_relation};
use secureblox_store::{RelationEntry, SnapshotManifest, StoreError, Wal, WalOp, WalRecord};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::path::{Path, PathBuf};

struct Counting;

thread_local! {
    static ALLOCATED: Cell<usize> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    // `try_with`: a thread being torn down has no counter left to move.
    let _ = ALLOCATED.try_with(|total| total.set(total.get() + bytes));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size.saturating_sub(layout.size()));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Run `f`, returning its result and the heap bytes it allocated.
fn allocated_by<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = ALLOCATED.with(Cell::get);
    let out = f();
    (out, ALLOCATED.with(Cell::get) - before)
}

/// Heap bytes a decoder may allocate: this multiple of its input's length
/// plus a fixed part (an error's message, `Wal::open`'s path and key).  The
/// worst case this binary measured at 2048 cases (x86-64 Linux) is 10.7
/// bytes per input byte above 64 bytes, an envelope of short values: each
/// delta is an 80-byte `UpdateDelta`, each value a 24-byte `Value`.
const BYTES_PER_INPUT_BYTE: usize = 16;
const FIXED_BYTES: usize = 128;

/// Every mutant of `valid`: its truncations, bit flips, `u32` overwrites,
/// splices with `other` (another valid encoding) and extensions.
fn mutants(valid: &[u8], other: &[u8], rng: &mut TestRng) -> Vec<Vec<u8>> {
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

/// Mutants of a WAL per case: each costs a file write and an open, so a
/// case takes a random sample and the cases between them cover the rest.
const WAL_MUTANTS: usize = 24;

fn sample(mut mutants: Vec<Vec<u8>>, rng: &mut TestRng) -> Vec<Vec<u8>> {
    for i in 0..WAL_MUTANTS.min(mutants.len()) {
        let pick = i + rng.below(mutants.len() - i);
        mutants.swap(i, pick);
    }
    mutants.truncate(WAL_MUTANTS);
    mutants
}

/// Hold `decode` to the three rules on every mutant: `valid` must decode,
/// each mutant must decode or be refused with an error `refusal` admits, in
/// bounded memory, and whatever decodes must `encode` to the mutant.
fn hold<T, E: std::fmt::Debug>(
    valid: &[u8],
    mutants: Vec<Vec<u8>>,
    decode: impl Fn(&[u8]) -> Result<T, E>,
    refusal: impl Fn(&E) -> bool,
    encode: impl Fn(T) -> Vec<u8>,
) -> Result<(), TestCaseError> {
    prop_assert!(decode(valid).is_ok(), "the valid encoding is refused");
    for mutant in mutants {
        let (outcome, allocated) = allocated_by(|| decode(&mutant));
        let bound = BYTES_PER_INPUT_BYTE * mutant.len() + FIXED_BYTES;
        prop_assert!(
            allocated <= bound,
            "{allocated} bytes allocated for {} input bytes",
            mutant.len()
        );
        match outcome {
            Ok(decoded) => prop_assert_eq!(encode(decoded), mutant),
            Err(error) => prop_assert!(refusal(&error), "refused as {error:?}"),
        }
    }
    Ok(())
}

fn text(rng: &mut TestRng) -> String {
    const ALPHABET: [char; 8] = ['a', 'z', '0', '_', '$', ' ', 'é', '✓'];
    (0..rng.below(6)).map(|_| ALPHABET[rng.below(8)]).collect()
}

fn blob(rng: &mut TestRng, max: usize) -> Vec<u8> {
    (0..rng.below(max + 1))
        .map(|_| rng.next_u64() as u8)
        .collect()
}

fn value(rng: &mut TestRng) -> Value {
    match rng.below(6) {
        0 => Value::Int(rng.next_u64() as i64),
        1 => Value::str(text(rng)),
        2 => Value::Bool(rng.gen_bool()),
        3 => Value::bytes(blob(rng, 12)),
        4 => Value::Entity(rng.next_u64()),
        _ => Value::pred(text(rng)),
    }
}

fn tuple(rng: &mut TestRng) -> Tuple {
    (0..rng.below(5)).map(|_| value(rng)).collect()
}

fn envelope(rng: &mut TestRng) -> UpdateEnvelope {
    let deltas = (0..rng.below(3))
        .map(|_| UpdateDelta {
            op: [DeltaOp::Assert, DeltaOp::Retract][rng.below(2)],
            pred: text(rng),
            tuple: tuple(rng),
            signature: blob(rng, 24),
        })
        .collect();
    UpdateEnvelope {
        seq: rng.next_u64(),
        deltas,
    }
}

/// A relation object: a name and distinct tuples in encoded-byte order.
fn relation(rng: &mut TestRng) -> Vec<u8> {
    let mut encoded: Vec<Vec<u8>> = (0..rng.below(4))
        .map(|_| serialize_tuple(&tuple(rng)))
        .collect();
    encoded.sort();
    encoded.dedup();
    encode_relation(&text(rng), encoded.iter())
}

fn manifest(rng: &mut TestRng) -> SnapshotManifest {
    let mut names: Vec<String> = (0..rng.below(4)).map(|_| text(rng)).collect();
    names.sort();
    names.dedup();
    let relations: Vec<RelationEntry> = names
        .into_iter()
        .map(|name| RelationEntry {
            name,
            object: to_hex(&sha1(&rng.next_u64().to_be_bytes())),
        })
        .collect();
    SnapshotManifest {
        watermark: rng.next_u64(),
        wal_seq: rng.next_u64(),
        root: SnapshotManifest::compute_root(&relations).unwrap(),
        relations,
    }
}

/// An RSA public-key encoding: an odd modulus of 31-64 bytes (wide enough
/// for the digest encoding; `from_bytes` checks shape, not primality) and
/// an odd exponent of at least 3.
fn public_key(rng: &mut TestRng) -> Vec<u8> {
    let len = 31 + rng.below(34);
    let mut n: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
    n[0] |= 0x80;
    *n.last_mut().unwrap() |= 1;
    let e: Vec<u8> = match rng.below(3) {
        0 => vec![3],
        1 => vec![1, 0, 1],
        _ => (rng.next_u64() | 0x8000_0000_0000_0001)
            .to_be_bytes()
            .to_vec(),
    };
    let mut out = Vec::new();
    for field in [&n, &e] {
        out.extend_from_slice(&(field.len() as u32).to_be_bytes());
        out.extend_from_slice(field);
    }
    out
}

/// The scratch directory of the WAL property (the only one that writes).
fn scratch_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sbx-props-decoders-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Write `records` through `Wal::append_signed`, numbering from the first
/// record's sequence number, and return the file's bytes.
fn write_wal(path: &Path, key: &[u8], records: &[WalRecord]) -> Vec<u8> {
    let _ = std::fs::remove_file(path);
    let (mut wal, _) = Wal::open(path, key).unwrap();
    if let Some(first) = records.first() {
        wal.advance_seq_to(first.seq);
    }
    for r in records {
        let (op, tuple, signature) = (r.op, r.tuple.clone(), r.signature.clone());
        wal.append_signed(op, &r.pred, tuple, r.watermark, signature)
            .unwrap();
    }
    wal.flush().unwrap();
    std::fs::read(path).unwrap()
}

/// Split a WAL file into its record bodies (the file is well formed).
fn bodies(mut file: &[u8]) -> Vec<Vec<u8>> {
    let mut out = Vec::new();
    while let Some((len, rest)) = file.split_first_chunk::<4>() {
        let len = u32::from_be_bytes(*len) as usize;
        out.push(rest[..len].to_vec());
        file = &rest[len + 20..];
    }
    out
}

/// Frame `bodies` as a WAL file with a valid HMAC chain, so the chain check
/// passes whatever the bodies hold and only the decoder judges them.
fn frame(key: &[u8], bodies: &[Vec<u8>]) -> Vec<u8> {
    let (mut out, mut tag) = (Vec::new(), [0u8; 20]);
    for body in bodies {
        let len = (body.len() as u32).to_be_bytes();
        tag = hmac_sha1(key, &[&tag[..], &len, body].concat());
        out.extend_from_slice(&[&len[..], body, &tag].concat());
    }
    out
}

fn wal_record(rng: &mut TestRng, seq: u64) -> WalRecord {
    let op = [
        WalOp::Insert,
        WalOp::Retract,
        WalOp::ExportMark,
        WalOp::ExportClear,
    ][rng.below(4)];
    let export = matches!(op, WalOp::ExportMark | WalOp::ExportClear);
    WalRecord {
        seq,
        watermark: rng.next_u64(),
        op,
        pred: text(rng),
        tuple: tuple(rng),
        signature: if export { blob(rng, 24) } else { Vec::new() },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn tuple_decoder(seed in any::<u64>()) {
        let mut rng = TestRng::seed_from_u64(seed);
        let (a, b) = (serialize_tuple(&tuple(&mut rng)), serialize_tuple(&tuple(&mut rng)));
        let decode = |bytes: &[u8]| {
            let mut reader = Reader::new(bytes);
            let tuple = reader.tuple()?;
            reader.finish().map(|()| tuple)
        };
        hold(&a, mutants(&a, &b, &mut rng), decode, |_| true, |t| serialize_tuple(&t))?;
    }

    #[test]
    fn envelope_decoder(seed in any::<u64>()) {
        let mut rng = TestRng::seed_from_u64(seed);
        let (a, b) = (envelope(&mut rng).encode(), envelope(&mut rng).encode());
        hold(&a, mutants(&a, &b, &mut rng), UpdateEnvelope::decode, |_| true, |e| e.encode())?;
    }

    #[test]
    fn relation_decoder(seed in any::<u64>()) {
        let mut rng = TestRng::seed_from_u64(seed);
        let (a, b) = (relation(&mut rng), relation(&mut rng));
        let refusal = |e: &StoreError| matches!(e, StoreError::CorruptSnapshot { .. });
        let encode = |(name, tuples): (String, Vec<Tuple>)| {
            let encoded: Vec<Vec<u8>> = tuples.iter().map(|t| serialize_tuple(t)).collect();
            encode_relation(&name, encoded.iter())
        };
        hold(&a, mutants(&a, &b, &mut rng), decode_relation, refusal, encode)?;
    }

    #[test]
    fn manifest_decoder(seed in any::<u64>()) {
        let mut rng = TestRng::seed_from_u64(seed);
        let (a, b) = (manifest(&mut rng).encode(), manifest(&mut rng).encode());
        let refusal = |e: &StoreError| {
            matches!(e, StoreError::CorruptSnapshot { .. } | StoreError::RootMismatch { .. })
        };
        hold(&a, mutants(&a, &b, &mut rng), SnapshotManifest::decode, refusal, |m| m.encode())?;
    }

    #[test]
    fn credit_decoder(seed in any::<u64>()) {
        let mut rng = TestRng::seed_from_u64(seed);
        let (a, b) = (encode_credit(rng.next_u64()), encode_credit(rng.next_u64()));
        let decode = |bytes: &[u8]| decode_credit(bytes).ok_or(());
        hold(&a, mutants(&a, &b, &mut rng), decode, |_| true, encode_credit)?;
    }

    #[test]
    fn rsa_public_key_decoder(seed in any::<u64>()) {
        let mut rng = TestRng::seed_from_u64(seed);
        let (a, b) = (public_key(&mut rng), public_key(&mut rng));
        hold(&a, mutants(&a, &b, &mut rng), RsaPublicKey::from_bytes, |_| true, |k| k.to_bytes())?;
    }

    /// The WAL twice over: mutants of a whole file (a cut frame is a torn
    /// tail, anything else a broken chain), and mutants of one record body
    /// re-framed under a valid chain, which only the record decoder can
    /// refuse.  An accepted file is written again through `Wal` and must
    /// come out byte for byte.
    #[test]
    fn wal_decoder(seed in any::<u64>()) {
        let mut rng = TestRng::seed_from_u64(seed);
        let key = b"wal key";
        let dir = scratch_dir();
        let (input, output) = (dir.join("input.log"), dir.join("output.log"));
        let first = [0, rng.next_u64() >> 1][rng.below(2)];
        let records: Vec<WalRecord> = (0..1 + rng.below(3))
            .map(|i| wal_record(&mut rng, first + i as u64))
            .collect();
        let file = write_wal(&input, key, &records);
        let spare_seq = rng.next_u64() >> 1;
        let other = write_wal(&input, key, &[wal_record(&mut rng, spare_seq)]);
        let decode = |bytes: &[u8]| {
            std::fs::write(&input, bytes).unwrap();
            Wal::open(&input, key).map(|(_, records)| records)
        };
        let encode = |records: Vec<WalRecord>| write_wal(&output, key, &records);
        let refusal = |e: &StoreError| {
            matches!(
                e,
                StoreError::CorruptRecord { .. }
                    | StoreError::TamperedRecord { .. }
                    | StoreError::TruncatedWal { .. }
            )
        };
        let whole = sample(mutants(&file, &other, &mut rng), &mut rng);
        hold(&file, whole, decode, refusal, encode)?;

        let mut framed = bodies(&file);
        let victim = rng.below(framed.len());
        let spare = bodies(&other).remove(0);
        let retagged = sample(mutants(&framed[victim].clone(), &spare, &mut rng), &mut rng)
            .into_iter()
            .map(|body| {
                framed[victim] = body;
                frame(key, &framed)
            })
            .collect();
        let corrupt = |e: &StoreError| matches!(e, StoreError::CorruptRecord { .. });
        hold(&file, retagged, decode, corrupt, encode)?;
        std::fs::remove_dir_all(dir).unwrap();
    }
}
