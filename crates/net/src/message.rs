//! Network messages.

use crate::node::NodeId;
use bytes::Bytes;

/// A message exchanged between simulated nodes.
///
/// The payload is opaque at this layer: the SecureBlox runtime serializes
/// (and optionally signs and encrypts) batches of tuples into it.  `kind`
/// distinguishes the logical channel (`says`, `anon_export`, …) purely for
/// statistics and debugging.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Message {
    /// The sender, as the message claims it.  Nothing at this layer proves
    /// it, so a receiver checks that it names a node before indexing with it.
    pub from: NodeId,
    pub to: NodeId,
    pub kind: MessageKind,
    pub payload: Bytes,
}

/// Logical channel of a message.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MessageKind {
    /// An authenticated (and possibly encrypted) ordered batch of
    /// assert/retract deltas — the unified update stream carrying both newly
    /// derived and withdrawn `says` tuples.
    Update,
    /// An onion-wrapped anonymity-circuit cell travelling forward.
    AnonForward,
    /// An onion-wrapped anonymity-circuit cell travelling backward.
    AnonBackward,
    /// A flow-control credit grant travelling from a receiver back to a
    /// sender: the payload is the number of update-stream deltas the receiver
    /// has drained from its per-link queue, returning that much send window
    /// to the sender's outbox (credit-based backpressure).
    Credit,
}

/// Encode a credit-grant payload: the number of drained deltas, big-endian.
pub fn encode_credit(deltas: u64) -> Vec<u8> {
    deltas.to_be_bytes().to_vec()
}

/// Decode a credit-grant payload.  `None` for malformed (non-8-byte)
/// payloads, which receivers drop rather than trusting.
pub fn decode_credit(payload: &[u8]) -> Option<u64> {
    Some(u64::from_be_bytes(payload.try_into().ok()?))
}

/// Fixed per-message header overhead, approximating the paper's UDP/IP
/// headers plus a small SecureBlox envelope (sender, receiver, predicate tag).
pub const HEADER_OVERHEAD_BYTES: usize = 48;

impl Message {
    /// Create a message.
    pub fn new(from: NodeId, to: NodeId, kind: MessageKind, payload: impl Into<Bytes>) -> Self {
        Message {
            from,
            to,
            kind,
            payload: payload.into(),
        }
    }

    /// Total on-the-wire size in bytes (payload plus header overhead).
    pub fn wire_size(&self) -> usize {
        self.payload.len() + HEADER_OVERHEAD_BYTES
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn credit_payload_roundtrip() {
        assert_eq!(decode_credit(&encode_credit(0)), Some(0));
        assert_eq!(decode_credit(&encode_credit(u64::MAX)), Some(u64::MAX));
        assert_eq!(decode_credit(&encode_credit(12345)), Some(12345));
        assert_eq!(decode_credit(b"short"), None);
        assert_eq!(decode_credit(b"nine bytes!"), None);
    }

    #[test]
    fn wire_size_includes_header() {
        let msg = Message::new(NodeId(0), NodeId(1), MessageKind::Update, vec![0u8; 100]);
        assert_eq!(msg.wire_size(), 100 + HEADER_OVERHEAD_BYTES);
        let empty = Message::new(NodeId(0), NodeId(1), MessageKind::Credit, Vec::new());
        assert_eq!(empty.wire_size(), HEADER_OVERHEAD_BYTES);
    }
}
