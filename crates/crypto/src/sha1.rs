//! SHA-1 (FIPS 180-1) implemented from scratch.
//!
//! The SecureBlox paper uses SHA-1 both directly (hash partitioning in the
//! parallel hash join, `sha1(X, Hx)` user-defined function) and as the digest
//! underlying HMAC and RSA signatures.  The implementation is a direct
//! transcription of the specification: 512-bit blocks, 80 rounds, five 32-bit
//! chaining words.

/// Length of a SHA-1 digest in bytes.
pub const DIGEST_LEN: usize = 20;

/// Length of a SHA-1 input block in bytes.
pub const BLOCK_LEN: usize = 64;

/// Incremental SHA-1 hasher.
#[derive(Debug, Clone)]
pub struct Sha1 {
    state: [u32; 5],
    /// Total message length in bytes processed so far (including buffered).
    length: u64,
    buffer: [u8; BLOCK_LEN],
    buffered: usize,
}

impl Default for Sha1 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha1 {
    /// Create a hasher in the initial state.
    pub fn new() -> Self {
        Sha1 {
            state: [
                0x6745_2301,
                0xEFCD_AB89,
                0x98BA_DCFE,
                0x1032_5476,
                0xC3D2_E1F0,
            ],
            length: 0,
            buffer: [0u8; BLOCK_LEN],
            buffered: 0,
        }
    }

    /// Absorb `data` into the hash state.
    pub fn update(&mut self, data: &[u8]) {
        self.length = self.length.wrapping_add(data.len() as u64);
        let mut input = data;

        // Fill a partially-buffered block first.
        if self.buffered > 0 {
            let take = (BLOCK_LEN - self.buffered).min(input.len());
            self.buffer[self.buffered..self.buffered + take].copy_from_slice(&input[..take]);
            self.buffered += take;
            input = &input[take..];
            if self.buffered == BLOCK_LEN {
                let block = self.buffer;
                self.process_block(&block);
                self.buffered = 0;
            }
        }

        // Process whole blocks directly from the input.
        while input.len() >= BLOCK_LEN {
            let mut block = [0u8; BLOCK_LEN];
            block.copy_from_slice(&input[..BLOCK_LEN]);
            self.process_block(&block);
            input = &input[BLOCK_LEN..];
        }

        // Stash the remainder.
        if !input.is_empty() {
            self.buffer[..input.len()].copy_from_slice(input);
            self.buffered = input.len();
        }
    }

    /// Finish the computation, producing the 20-byte digest.
    pub fn finalize(mut self) -> [u8; DIGEST_LEN] {
        let bit_len = self.length.wrapping_mul(8);

        // Padding: a single 0x80 byte, zeros, then the 64-bit big-endian
        // length in the last eight bytes — of this block if they are still
        // free, of one more block otherwise.
        self.buffer[self.buffered] = 0x80;
        self.buffer[self.buffered + 1..].fill(0);
        if self.buffered >= BLOCK_LEN - 8 {
            let block = self.buffer;
            self.process_block(&block);
            self.buffer = [0; BLOCK_LEN];
        }
        self.buffer[BLOCK_LEN - 8..].copy_from_slice(&bit_len.to_be_bytes());
        let block = self.buffer;
        self.process_block(&block);

        let mut digest = [0u8; DIGEST_LEN];
        for (i, word) in self.state.iter().enumerate() {
            digest[i * 4..(i + 1) * 4].copy_from_slice(&word.to_be_bytes());
        }
        digest
    }

    fn process_block(&mut self, block: &[u8; BLOCK_LEN]) {
        let mut w = [0u32; 80];
        for (i, chunk) in block.chunks_exact(4).enumerate() {
            w[i] = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        }
        for i in 16..80 {
            w[i] = (w[i - 3] ^ w[i - 8] ^ w[i - 14] ^ w[i - 16]).rotate_left(1);
        }

        let [mut a, mut b, mut c, mut d, mut e] = self.state;
        // One 20-round loop per round function, so no round picks its
        // function at run time.
        macro_rules! rounds {
            ($words:expr, $k:expr, $f:expr) => {
                for &word in $words {
                    let temp = a
                        .rotate_left(5)
                        .wrapping_add($f)
                        .wrapping_add(e)
                        .wrapping_add($k)
                        .wrapping_add(word);
                    e = d;
                    d = c;
                    c = b.rotate_left(30);
                    b = a;
                    a = temp;
                }
            };
        }
        rounds!(&w[..20], 0x5A82_7999, (b & c) | (!b & d));
        rounds!(&w[20..40], 0x6ED9_EBA1, b ^ c ^ d);
        rounds!(&w[40..60], 0x8F1B_BCDC, (b & c) | (b & d) | (c & d));
        rounds!(&w[60..], 0xCA62_C1D6, b ^ c ^ d);

        self.state[0] = self.state[0].wrapping_add(a);
        self.state[1] = self.state[1].wrapping_add(b);
        self.state[2] = self.state[2].wrapping_add(c);
        self.state[3] = self.state[3].wrapping_add(d);
        self.state[4] = self.state[4].wrapping_add(e);
    }
}

/// One-shot SHA-1 of `data`.
pub fn sha1(data: &[u8]) -> [u8; DIGEST_LEN] {
    let mut hasher = Sha1::new();
    hasher.update(data);
    hasher.finalize()
}

/// Render a digest as lowercase hex, handy for hash-partitioning keys.
pub fn to_hex(digest: &[u8]) -> String {
    let mut out = String::with_capacity(digest.len() * 2);
    for byte in digest {
        out.push_str(&format!("{byte:02x}"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(data: &[u8]) -> String {
        to_hex(&sha1(data))
    }

    #[test]
    fn known_answer_empty() {
        assert_eq!(hex(b""), "da39a3ee5e6b4b0d3255bfef95601890afd80709");
    }

    #[test]
    fn known_answer_abc() {
        assert_eq!(hex(b"abc"), "a9993e364706816aba3e25717850c26c9cd0d89d");
    }

    #[test]
    fn known_answer_448_bits() {
        assert_eq!(
            hex(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "84983e441c3bd26ebaae4aa1f95129e5e54670f1"
        );
    }

    #[test]
    fn known_answer_million_a() {
        let data = vec![b'a'; 1_000_000];
        assert_eq!(hex(&data), "34aa973cd4c4daa4f61eeb2bdbad27316534016f");
    }

    #[test]
    fn incremental_matches_oneshot() {
        let data: Vec<u8> = (0u8..=255).cycle().take(10_000).collect();
        let oneshot = sha1(&data);
        for chunk_size in [1usize, 3, 7, 63, 64, 65, 1000] {
            let mut hasher = Sha1::new();
            for chunk in data.chunks(chunk_size) {
                hasher.update(chunk);
            }
            assert_eq!(hasher.finalize(), oneshot, "chunk size {chunk_size}");
        }
    }

    #[test]
    fn to_hex_roundtrip_length() {
        let digest = sha1(b"hello");
        assert_eq!(to_hex(&digest).len(), 40);
    }
}
