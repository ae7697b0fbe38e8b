//! Tuple serialization and the authenticated update-stream envelope.
//!
//! The canonical tuple byte encoding lives in
//! [`secureblox_datalog::codec`] — it is shared between this runtime (network
//! payloads, signature coverage, AES plaintexts) and the durable fact store
//! (WAL records, content-addressed snapshot objects).  This module re-exports
//! it and adds the network-level framing of the **update stream**: every
//! inter-node batch is an ordered sequence of signed assert/retract deltas,
//! so withdrawals travel through exactly the same channel — and under exactly
//! the same signatures and encryption — as new derivations.

pub use secureblox_datalog::codec::{deserialize_tuple, serialize_tuple};

use secureblox_datalog::codec::{DecodeError, Reader};
use secureblox_datalog::value::{Tuple, Value};

/// The two operations an update-stream delta can describe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeltaOp {
    /// A newly derived `says`/`anon_says` tuple the receiver should import.
    Assert,
    /// A previously asserted tuple the origin has withdrawn; the receiver
    /// verifies the same detached signature that authenticated the assert and
    /// maintains everything derived from the fact.
    Retract,
}

/// One signed delta of the update stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UpdateDelta {
    pub op: DeltaOp,
    /// The parameter predicate `T` of `says[T]` (not the mangled name).
    pub pred: String,
    /// The full `says$T` tuple, including the two principal columns (for
    /// anonymity-circuit traffic: the payload columns only).
    pub tuple: Tuple,
    /// Detached signature bytes (empty for NoAuth and circuit traffic).
    pub signature: Vec<u8>,
}

/// A serialized update-stream batch: a per-link sequence number and the
/// ordered deltas.  Streams are FIFO per link (the simulator's ordered send
/// models a TCP-like channel), and `seq` lets a receiver drop stale
/// duplicates so every delta is applied at most once.
///
/// The envelope is natively **multi-delta**: the per-link outbox coalesces
/// up to `StreamingConfig::batch_max` consecutive deltas (assert-then-retract
/// pairs for the same fact annihilate before shipping) into one envelope,
/// which the receiver drains delta by delta and flushes once.  The wire
/// format does not depend on the knobs — an unbatched stream (one delta per
/// envelope) decodes with the same [`UpdateEnvelope::decode`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UpdateEnvelope {
    /// Position of this envelope in the sender's per-link stream (1-based).
    pub seq: u64,
    /// The deltas, in the order the receiver must apply them.
    pub deltas: Vec<UpdateDelta>,
}

impl UpdateEnvelope {
    /// Serialize the envelope into message-payload bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = encode_header(self.seq, self.deltas.len());
        for delta in &self.deltas {
            encode_delta(
                &mut out,
                delta.op,
                &delta.pred,
                &delta.tuple,
                &delta.signature,
            );
        }
        out
    }

    /// Parse an envelope from message-payload bytes.
    pub fn decode(data: &[u8]) -> Result<Self, DecodeError> {
        let mut reader = Reader::new(data);
        let seq = reader.u64()?;
        // The shortest delta: op, empty predicate, empty tuple, no signature.
        let count = reader.count(13)?;
        let mut deltas = Vec::with_capacity(count);
        for _ in 0..count {
            deltas.push(UpdateDelta {
                op: [DeltaOp::Assert, DeltaOp::Retract][reader.tag(2, "delta op")? as usize],
                pred: reader.str()?.to_owned(),
                tuple: reader.tuple()?,
                signature: reader.bytes()?.to_vec(),
            });
        }
        reader.finish()?;
        Ok(UpdateEnvelope { seq, deltas })
    }
}

/// An envelope's first bytes: its sequence number and delta count.  The
/// deltas follow, each appended by [`encode_delta`].
pub(crate) fn encode_header(seq: u64, deltas: usize) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&seq.to_be_bytes());
    out.extend_from_slice(&(deltas as u32).to_be_bytes());
    out
}

/// Append one delta to an envelope being encoded.  Returns its content
/// bytes: the predicate name, the encoded tuple and the signature, without
/// the op tag and the two length prefixes.
pub(crate) fn encode_delta(
    out: &mut Vec<u8>,
    op: DeltaOp,
    pred: &str,
    tuple: &[Value],
    signature: &[u8],
) -> usize {
    let start = out.len();
    out.push(match op {
        DeltaOp::Assert => 0,
        DeltaOp::Retract => 1,
    });
    out.extend_from_slice(&(pred.len() as u32).to_be_bytes());
    out.extend_from_slice(pred.as_bytes());
    out.extend_from_slice(&serialize_tuple(tuple));
    out.extend_from_slice(&(signature.len() as u32).to_be_bytes());
    out.extend_from_slice(signature);
    out.len() - start - 9
}

#[cfg(test)]
mod tests {
    use super::*;
    use secureblox_datalog::value::Value;

    fn sample_tuple() -> Tuple {
        vec![
            Value::str("n1"),
            Value::Int(-42),
            Value::Bool(true),
            Value::bytes(vec![1, 2, 3]),
            Value::Entity(77),
            Value::pred("path"),
            Value::str("unicode ✓"),
        ]
    }

    fn sample_envelope() -> UpdateEnvelope {
        UpdateEnvelope {
            seq: 9,
            deltas: vec![
                UpdateDelta {
                    op: DeltaOp::Assert,
                    pred: "path".into(),
                    tuple: sample_tuple(),
                    signature: vec![9u8; 64],
                },
                UpdateDelta {
                    op: DeltaOp::Retract,
                    pred: "rehashA".into(),
                    tuple: vec![Value::Int(1)],
                    signature: Vec::new(),
                },
            ],
        }
    }

    #[test]
    fn envelope_roundtrip() {
        let envelope = sample_envelope();
        let back = UpdateEnvelope::decode(&envelope.encode()).unwrap();
        assert_eq!(back, envelope);
        assert_eq!(back.deltas[0].op, DeltaOp::Assert);
        assert_eq!(back.deltas[1].op, DeltaOp::Retract);
        assert!(back.deltas[1].signature.is_empty());
    }

    #[test]
    fn empty_envelope_roundtrip() {
        let envelope = UpdateEnvelope {
            seq: 1,
            deltas: Vec::new(),
        };
        let back = UpdateEnvelope::decode(&envelope.encode()).unwrap();
        assert_eq!(back, envelope);
    }

    #[test]
    fn decode_rejects_truncation_and_trailing_bytes() {
        let bytes = sample_envelope().encode();
        for cut in [0usize, 3, 7, 11, 13, bytes.len() - 1] {
            assert!(
                UpdateEnvelope::decode(&bytes[..cut]).is_err(),
                "cut at {cut}"
            );
        }
        let mut extended = bytes.clone();
        extended.push(0);
        assert!(UpdateEnvelope::decode(&extended).is_err(), "trailing byte");
    }

    #[test]
    fn decode_rejects_unknown_op() {
        let mut bytes = sample_envelope().encode();
        // First op byte sits right after seq (8) + count (4).
        bytes[12] = 7;
        assert!(UpdateEnvelope::decode(&bytes).is_err());
    }
}
