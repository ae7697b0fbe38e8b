//! Canonical binary encoding of tuples.
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

use crate::value::{Tuple, Value};

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

fn read_value(data: &[u8], pos: &mut usize) -> Result<Value, String> {
    let tag = *data.get(*pos).ok_or("truncated value tag")?;
    *pos += 1;
    let take = |data: &[u8], pos: &mut usize, n: usize| -> Result<Vec<u8>, String> {
        let slice = data
            .get(*pos..*pos + n)
            .ok_or("truncated value body")?
            .to_vec();
        *pos += n;
        Ok(slice)
    };
    match tag {
        0 => {
            let bytes = take(data, pos, 8)?;
            Ok(Value::Int(i64::from_be_bytes(
                bytes.try_into().expect("8 bytes"),
            )))
        }
        1 | 5 => {
            let len_bytes = take(data, pos, 4)?;
            let len = u32::from_be_bytes(len_bytes.try_into().expect("4 bytes")) as usize;
            let body = take(data, pos, len)?;
            let text = String::from_utf8(body).map_err(|_| "invalid utf-8 in string value")?;
            Ok(if tag == 1 {
                Value::str(text)
            } else {
                Value::pred(text)
            })
        }
        2 => {
            let byte = take(data, pos, 1)?;
            Ok(Value::Bool(byte[0] != 0))
        }
        3 => {
            let len_bytes = take(data, pos, 4)?;
            let len = u32::from_be_bytes(len_bytes.try_into().expect("4 bytes")) as usize;
            Ok(Value::bytes(take(data, pos, len)?))
        }
        4 => {
            let bytes = take(data, pos, 8)?;
            Ok(Value::Entity(u64::from_be_bytes(
                bytes.try_into().expect("8 bytes"),
            )))
        }
        other => Err(format!("unknown value tag {other}")),
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

/// Read a `u32` element count and refuse one the rest of `data` cannot hold
/// (every element takes at least `min_element_len` bytes), so a decoder of
/// untrusted bytes can allocate for `count` elements without trusting it.
pub fn read_count(
    data: &[u8],
    pos: &mut usize,
    min_element_len: usize,
    what: &str,
) -> Result<usize, String> {
    let bytes = data
        .get(*pos..*pos + 4)
        .ok_or_else(|| format!("truncated {what}"))?;
    *pos += 4;
    let count = u32::from_be_bytes(bytes.try_into().expect("4 bytes")) as usize;
    if count > (data.len() - *pos) / min_element_len {
        return Err(format!("{what} {count} exceeds the remaining input"));
    }
    Ok(count)
}

/// Deserialize a tuple serialized with [`serialize_tuple`].
pub fn deserialize_tuple(data: &[u8], pos: &mut usize) -> Result<Tuple, String> {
    // The shortest value is a tag byte and a bool.
    let len = read_count(data, pos, 2, "tuple length")?;
    let mut tuple = Vec::with_capacity(len);
    for _ in 0..len {
        tuple.push(read_value(data, pos)?);
    }
    Ok(tuple)
}

/// Append a length-prefixed string (used by WAL/snapshot framing).
pub fn write_string(out: &mut Vec<u8>, text: &str) {
    out.extend_from_slice(&(text.len() as u32).to_be_bytes());
    out.extend_from_slice(text.as_bytes());
}

/// Read a string written with [`write_string`].
pub fn read_string(data: &[u8], pos: &mut usize) -> Result<String, String> {
    let len_bytes = data.get(*pos..*pos + 4).ok_or("truncated string length")?;
    *pos += 4;
    let len = u32::from_be_bytes(len_bytes.try_into().expect("4 bytes")) as usize;
    let body = data.get(*pos..*pos + len).ok_or("truncated string body")?;
    *pos += len;
    String::from_utf8(body.to_vec()).map_err(|_| "invalid utf-8 in string".into())
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
        assert!(error.contains("exceeds the remaining input"), "{error}");
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
        let mut pos = 0;
        assert_eq!(read_string(&out, &mut pos).unwrap(), "bestcost");
        assert_eq!(read_string(&out, &mut pos).unwrap(), "");
        assert_eq!(pos, out.len());
        assert!(read_string(&out[..3], &mut 0).is_err());
    }
}
