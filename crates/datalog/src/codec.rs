//! Canonical binary encoding of tuples, and the one reader of untrusted bytes.
//!
//! The paper's generated export rules call a `serialize[P]` user-defined
//! function before signing and shipping tuples; this module provides that
//! canonical byte encoding.  The same encoding is used (a) as the message
//! payload on the simulated network, (b) as the byte string that HMAC / RSA
//! signatures cover, (c) as the plaintext of AES-encrypted batches, and
//! (d) as the framing of the durable fact store's WAL records and snapshot
//! objects, so communication figures and on-disk sizes both count exactly
//! what the crypto operates on.
//!
//! The encoding is *canonical*: equal tuples encode to equal bytes.  That is
//! a correctness requirement for signature verification (which re-serializes
//! the received tuple) and for the content-addressed snapshot store (which
//! hashes relation encodings into Merkle leaves).
//!
//! Every decoder of bytes from outside the process — the network, the WAL,
//! snapshot objects — parses through one bounded [`Reader`] and fails with a
//! typed [`DecodeError`] that names the byte offset.  A decoder accepts
//! exactly what its encoder writes (DESIGN.md §9.7).

use crate::value::{Tuple, Value};
use std::fmt;

/// Why a [`Reader`] refused its input; `offset` is the byte where the
/// refused read starts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// The input ends inside a field.
    Truncated { offset: usize },
    /// An element count claims more elements than the bytes left can hold.
    TooLong { offset: usize, count: usize },
    /// A field holds a value its encoder never writes.
    Invalid { offset: usize, what: &'static str },
    /// Bytes are left after the last field.
    Trailing { offset: usize },
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Truncated { offset } => write!(f, "input truncated at byte {offset}"),
            DecodeError::TooLong { offset, count } => write!(
                f,
                "count {count} at byte {offset} exceeds the remaining input"
            ),
            DecodeError::Invalid { offset, what } => write!(f, "invalid {what} at byte {offset}"),
            DecodeError::Trailing { offset } => write!(f, "trailing bytes from byte {offset}"),
        }
    }
}

impl std::error::Error for DecodeError {}

impl From<DecodeError> for String {
    fn from(error: DecodeError) -> String {
        error.to_string()
    }
}

/// [`DecodeError::Invalid`] at `offset` unless `valid`.
pub fn ensure(valid: bool, offset: usize, what: &'static str) -> Result<(), DecodeError> {
    valid
        .then_some(())
        .ok_or(DecodeError::Invalid { offset, what })
}

/// A cursor over untrusted bytes.  Every read is bounds-checked and borrows
/// from the input; nothing is allocated on the input's say-so except through
/// [`Reader::count`], which caps a count by the bytes left.
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `data`.
    pub fn new(data: &'a [u8]) -> Self {
        Reader { data, pos: 0 }
    }

    /// The byte offset of the next read.
    pub fn offset(&self) -> usize {
        self.pos
    }

    /// The unread bytes (none when a caller started past the end).
    fn unread(&self) -> &'a [u8] {
        self.data.get(self.pos..).unwrap_or_default()
    }

    /// The bytes read since offset `start`.
    pub fn since(&self, start: usize) -> &'a [u8] {
        self.data.get(start..self.pos).unwrap_or_default()
    }

    /// The next `N` bytes.
    pub fn array<const N: usize>(&mut self) -> Result<[u8; N], DecodeError> {
        let truncated = DecodeError::Truncated { offset: self.pos };
        let (field, _) = self.unread().split_first_chunk().ok_or(truncated)?;
        self.pos += N;
        Ok(*field)
    }

    /// One byte.
    pub fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.array::<1>()?[0])
    }

    /// A big-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, DecodeError> {
        Ok(u32::from_be_bytes(self.array()?))
    }

    /// A big-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, DecodeError> {
        Ok(u64::from_be_bytes(self.array()?))
    }

    /// A tag byte below `limit`.
    pub fn tag(&mut self, limit: u8, what: &'static str) -> Result<u8, DecodeError> {
        let (offset, tag) = (self.pos, self.u8()?);
        ensure(tag < limit, offset, what).map(|()| tag)
    }

    /// A `u32`-length-prefixed byte string.
    pub fn bytes(&mut self) -> Result<&'a [u8], DecodeError> {
        let len = self.u32()? as usize;
        let truncated = DecodeError::Truncated { offset: self.pos };
        let (field, _) = self.unread().split_at_checked(len).ok_or(truncated)?;
        self.pos += len;
        Ok(field)
    }

    /// A `u32`-length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<&'a str, DecodeError> {
        let (offset, bytes, what) = (self.pos, self.bytes()?, "UTF-8 string");
        std::str::from_utf8(bytes).or(Err(DecodeError::Invalid { offset, what }))
    }

    /// A `u32` element count, refused when the bytes left cannot hold that
    /// many elements of at least `min_element_len` bytes each — so a caller
    /// can allocate for `count` elements without trusting the input.
    pub fn count(&mut self, min_element_len: usize) -> Result<usize, DecodeError> {
        let (offset, count) = (self.pos, self.u32()? as usize);
        let fits = count.saturating_mul(min_element_len) <= self.unread().len();
        fits.then_some(count)
            .ok_or(DecodeError::TooLong { offset, count })
    }

    /// Every unread byte.
    pub fn rest(&mut self) -> &'a [u8] {
        let rest = self.unread();
        self.pos += rest.len();
        rest
    }

    /// End of input: [`DecodeError::Trailing`] if bytes are left.
    pub fn finish(&self) -> Result<(), DecodeError> {
        let trailing = DecodeError::Trailing { offset: self.pos };
        self.unread().is_empty().then_some(()).ok_or(trailing)
    }

    /// A tuple written by [`serialize_tuple`].
    pub fn tuple(&mut self) -> Result<Tuple, DecodeError> {
        // The shortest value is a tag byte and a bool.
        let len = self.count(2)?;
        let mut tuple = Vec::with_capacity(len);
        for _ in 0..len {
            tuple.push(self.value()?);
        }
        Ok(tuple)
    }

    /// A value written by `write_value`.
    fn value(&mut self) -> Result<Value, DecodeError> {
        Ok(match self.tag(6, "value tag")? {
            0 => Value::Int(i64::from_be_bytes(self.array()?)),
            1 => Value::str(self.str()?),
            2 => Value::Bool(self.tag(2, "bool")? == 1),
            3 => Value::bytes(self.bytes()?),
            4 => Value::Entity(self.u64()?),
            _ => Value::pred(self.str()?),
        })
    }
}

/// Encode a single value.
fn write_value(out: &mut Vec<u8>, value: &Value) {
    match value {
        Value::Int(i) => {
            out.push(0);
            out.extend_from_slice(&i.to_be_bytes());
        }
        Value::Str(s) => {
            out.push(1);
            out.extend_from_slice(&(s.len() as u32).to_be_bytes());
            out.extend_from_slice(s.as_bytes());
        }
        Value::Bool(b) => {
            out.push(2);
            out.push(u8::from(*b));
        }
        Value::Bytes(b) => {
            out.push(3);
            out.extend_from_slice(&(b.len() as u32).to_be_bytes());
            out.extend_from_slice(b);
        }
        Value::Entity(e) => {
            out.push(4);
            out.extend_from_slice(&e.to_be_bytes());
        }
        Value::Pred(p) => {
            out.push(5);
            out.extend_from_slice(&(p.len() as u32).to_be_bytes());
            out.extend_from_slice(p.as_bytes());
        }
    }
}

/// Serialize a tuple of values (the byte string covered by signatures).
pub fn serialize_tuple(tuple: &[Value]) -> Vec<u8> {
    let mut out = Vec::with_capacity(tuple.len() * 12);
    out.extend_from_slice(&(tuple.len() as u32).to_be_bytes());
    for value in tuple {
        write_value(&mut out, value);
    }
    out
}

/// Deserialize a tuple serialized with [`serialize_tuple`] from byte `pos`
/// of `data`, advancing `pos` past it.
pub fn deserialize_tuple(data: &[u8], pos: &mut usize) -> Result<Tuple, DecodeError> {
    let mut reader = Reader { data, pos: *pos };
    let tuple = reader.tuple()?;
    *pos = reader.offset();
    Ok(tuple)
}

/// Append a length-prefixed string (used by WAL/snapshot framing).
pub fn write_string(out: &mut Vec<u8>, text: &str) {
    out.extend_from_slice(&(text.len() as u32).to_be_bytes());
    out.extend_from_slice(text.as_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn tuple_roundtrip() {
        let tuple = sample_tuple();
        let bytes = serialize_tuple(&tuple);
        let mut pos = 0;
        let back = deserialize_tuple(&bytes, &mut pos).unwrap();
        assert_eq!(back, tuple);
        assert_eq!(pos, bytes.len());
    }

    #[test]
    fn decode_rejects_truncation() {
        let bytes = serialize_tuple(&sample_tuple());
        for cut in [0usize, 3, 7, bytes.len() - 1] {
            assert!(
                deserialize_tuple(&bytes[..cut], &mut 0).is_err(),
                "cut at {cut}"
            );
        }
        assert!(deserialize_tuple(&[0, 0, 0, 5, 9], &mut 0).is_err());
    }

    #[test]
    fn decode_refuses_a_length_the_input_cannot_hold() {
        // Four bytes claiming four billion values: refused before anything
        // is allocated for them.
        let error = deserialize_tuple(&[0xFF; 4], &mut 0).unwrap_err();
        let count = u32::MAX as usize;
        assert_eq!(error, DecodeError::TooLong { offset: 0, count });
        assert!(String::from(error).contains("exceeds the remaining input"));
        // One byte short of the two bools claimed.
        assert!(deserialize_tuple(&[0, 0, 0, 2, 2, 1, 2], &mut 0).is_err());
        let mut pos = 0;
        let tuple = deserialize_tuple(&[0, 0, 0, 2, 2, 1, 2, 0], &mut pos).unwrap();
        assert_eq!(tuple, vec![Value::Bool(true), Value::Bool(false)]);
        assert_eq!(pos, 8);
        // The count is judged against what follows `pos`, not the whole input.
        let padded = [[0u8; 16].as_slice(), &[0, 0, 0, 9]].concat();
        assert!(deserialize_tuple(&padded, &mut 16).is_err());
    }

    #[test]
    fn serialization_is_canonical() {
        // Equal tuples encode to equal bytes (required for signature checks
        // and content addressing).
        assert_eq!(
            serialize_tuple(&sample_tuple()),
            serialize_tuple(&sample_tuple())
        );
        assert_ne!(
            serialize_tuple(&[Value::Int(1)]),
            serialize_tuple(&[Value::Int(2)])
        );
        // Str and Pred with the same text are distinguishable.
        assert_ne!(
            serialize_tuple(&[Value::str("path")]),
            serialize_tuple(&[Value::pred("path")])
        );
    }

    #[test]
    fn string_framing_roundtrip() {
        let mut out = Vec::new();
        write_string(&mut out, "bestcost");
        write_string(&mut out, "");
        let mut reader = Reader::new(&out);
        assert_eq!(reader.str(), Ok("bestcost"));
        assert_eq!(reader.str(), Ok(""));
        assert_eq!(reader.offset(), out.len());
        assert_eq!(reader.finish(), Ok(()));
        let truncated = Reader::new(&out[..3]).str();
        assert_eq!(truncated, Err(DecodeError::Truncated { offset: 0 }));
    }

    /// Regression: a bool byte other than 0 or 1 used to decode as `true`,
    /// so a tuple had two encodings and the second re-encoded to the first.
    #[test]
    fn a_bool_byte_other_than_0_or_1_is_invalid() {
        for byte in [2u8, 0x80, 0xFF] {
            let error = deserialize_tuple(&[0, 0, 0, 1, 2, byte], &mut 0).unwrap_err();
            let what = "bool";
            assert_eq!(error, DecodeError::Invalid { offset: 5, what }, "{byte}");
        }
        let mut pos = 0;
        let tuple = deserialize_tuple(&[0, 0, 0, 1, 2, 1], &mut pos).unwrap();
        assert_eq!((tuple, pos), (vec![Value::Bool(true)], 6));
    }

    #[test]
    fn errors_name_the_offset_of_the_refused_read() {
        let mut reader = Reader::new(&[0, 0, 0, 2, 0xC3, 0x28, 9]);
        let invalid_utf8 = DecodeError::Invalid {
            offset: 0,
            what: "UTF-8 string",
        };
        assert_eq!(reader.clone().str(), Err(invalid_utf8));
        assert_eq!(reader.bytes(), Ok(&[0xC3, 0x28][..]));
        assert_eq!(reader.finish(), Err(DecodeError::Trailing { offset: 6 }));
        assert_eq!(reader.u32(), Err(DecodeError::Truncated { offset: 6 }));
        let mut tag = Reader::new(&[7]);
        let value_tag = DecodeError::Invalid {
            offset: 0,
            what: "value tag",
        };
        assert_eq!(tag.tag(6, "value tag"), Err(value_tag));
    }
}
