//! RSA key generation, signing, and verification.
//!
//! The paper's strongest authentication scheme "signs a SHA-1 digest of the
//! data with the private key of the sender" using 1024-bit keys (§8.1).  The
//! construction here is textbook RSA with a minimal PKCS#1-v1.5-style
//! encoding of the SHA-1 digest: `0x00 0x01 0xFF…0xFF 0x00 <digest>`.
//!
//! Signature length equals the modulus length in bytes, which is exactly the
//! per-message size overhead the paper attributes to RSA in Figure 6.
//!
//! Every key carries the [`MontgomeryCtx`] of each modulus it exponentiates
//! under, built once when the key is generated or parsed.  A key pair keeps
//! its primes and signs by the Chinese remainder theorem — two half-width
//! exponentiations — and hands the result out only after it verifies under
//! the public exponent: a fault in either half would otherwise give away a
//! prime (`gcd(sᵉ − m, n)`), and at `e = 65537` the check is cheap.  The
//! encoding is deterministic, so the CRT path, the `m^d mod n` fallback and
//! any earlier version of this module all produce the same signature bytes.

use crate::bignum::{BigUint, MontgomeryCtx, MAX_MODULUS_BITS};
use crate::error::CryptoError;
use crate::sha1::{sha1, DIGEST_LEN};
use rand::Rng;
use std::cmp::Ordering;
use std::fmt;

/// Default public exponent.
const PUBLIC_EXPONENT: u64 = 65_537;

/// Miller–Rabin rounds used during key generation.
const MR_ROUNDS: usize = 16;

/// Bytes of `0x00 0x01 0xFF×8 0x00` around the digest: the shortest padding
/// the encoding allows, so the smallest modulus a key may have.
const MIN_PADDING: usize = 11;

/// An RSA public key (modulus and public exponent).
#[derive(Debug, Clone)]
pub struct RsaPublicKey {
    n: BigUint,
    e: BigUint,
    modulus_bytes: usize,
    ctx: MontgomeryCtx,
}

/// Equality is on the key itself; the context is a function of `n`.
impl PartialEq for RsaPublicKey {
    fn eq(&self, other: &Self) -> bool {
        self.n == other.n && self.e == other.e
    }
}

impl Eq for RsaPublicKey {}

/// One prime of a key pair with what CRT signing needs modulo it.
#[derive(Clone)]
struct CrtPrime {
    prime: BigUint,
    /// `d mod (prime − 1)`.
    exponent: BigUint,
    ctx: MontgomeryCtx,
}

/// An RSA key pair.
#[derive(Clone)]
pub struct RsaKeyPair {
    public: RsaPublicKey,
    d: BigUint,
    p: CrtPrime,
    q: CrtPrime,
    /// `q⁻¹ mod p`.
    qinv: BigUint,
}

/// Shows the public half only: a key pair ends up in `{:?}` of a key store
/// or a deployment, and that must not print private material.
impl fmt::Debug for RsaKeyPair {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RsaKeyPair")
            .field("modulus_bits", &self.public.modulus_bits())
            .field("n", &self.public.n)
            .field("e", &self.public.e)
            .finish_non_exhaustive()
    }
}

/// A detached RSA signature (big-endian, exactly modulus-length bytes).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RsaSignature(pub Vec<u8>);

/// Append `bytes` to `out` behind a big-endian `u32` length.
fn put_field(out: &mut Vec<u8>, bytes: &[u8]) {
    out.extend_from_slice(&(bytes.len() as u32).to_be_bytes());
    out.extend_from_slice(bytes);
}

/// Split one length-prefixed field off the front of `data`.
fn take_field<'a>(data: &mut &'a [u8]) -> Option<&'a [u8]> {
    let (len, rest) = data.split_first_chunk::<4>()?;
    let (field, rest) = rest.split_at_checked(u32::from_be_bytes(*len) as usize)?;
    *data = rest;
    Some(field)
}

impl RsaPublicKey {
    /// A public key that [`RsaPublicKey::verify`] can use without panicking:
    /// an odd modulus long enough for the digest encoding and narrow enough
    /// for the Montgomery kernel, and an odd public exponent of at least
    /// three.
    fn new(n: BigUint, e: BigUint) -> Result<Self, CryptoError> {
        let modulus_bytes = n.bits().div_ceil(8);
        if modulus_bytes < DIGEST_LEN + MIN_PADDING {
            return Err(CryptoError::InvalidKey(format!(
                "modulus of {modulus_bytes} bytes is too short to encode a SHA-1 digest"
            )));
        }
        if n.bits() > MAX_MODULUS_BITS {
            return Err(CryptoError::InvalidKey(format!(
                "modulus of {} bits is wider than {MAX_MODULUS_BITS}",
                n.bits()
            )));
        }
        if e.is_even() || e.bits() < 2 {
            return Err(CryptoError::InvalidKey(
                "public exponent must be odd and at least 3".into(),
            ));
        }
        let ctx =
            MontgomeryCtx::new(&n).ok_or_else(|| CryptoError::InvalidKey("even modulus".into()))?;
        Ok(RsaPublicKey {
            n,
            e,
            modulus_bytes,
            ctx,
        })
    }

    /// The modulus size in bytes (and hence the signature size).
    pub fn modulus_bytes(&self) -> usize {
        self.modulus_bytes
    }

    /// The modulus size in bits.
    pub fn modulus_bits(&self) -> usize {
        self.n.bits()
    }

    /// Serialize the public key as `len(n) || n || len(e) || e` for transport.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(8 + self.modulus_bytes + 4);
        put_field(&mut out, &self.n.to_bytes_be());
        put_field(&mut out, &self.e.to_bytes_be());
        out
    }

    /// Parse and validate a public key serialized by
    /// [`RsaPublicKey::to_bytes`].  Only that encoding parses: integers
    /// without a leading zero byte, and nothing after them.
    pub fn from_bytes(mut data: &[u8]) -> Result<Self, CryptoError> {
        let invalid = |what: &str| CryptoError::InvalidKey(format!("{what} in RSA public key"));
        let mut field = || match take_field(&mut data) {
            Some([0, ..]) => Err(invalid("leading zero byte")),
            Some(field) => Ok(BigUint::from_bytes_be(field)),
            None => Err(invalid("truncated field")),
        };
        let (n, e) = (field()?, field()?);
        if !data.is_empty() {
            return Err(invalid("trailing bytes"));
        }
        Self::new(n, e)
    }

    /// Verify an RSA signature over the SHA-1 digest of `message`.
    pub fn verify(&self, message: &[u8], signature: &RsaSignature) -> bool {
        if signature.0.len() != self.modulus_bytes {
            return false;
        }
        let sig_int = BigUint::from_bytes_be(&signature.0);
        if sig_int.cmp(&self.n) != Ordering::Less {
            return false;
        }
        self.ctx.pow(&sig_int, &self.e) == self.encoded(message)
    }

    /// The integer a signature over `message` is a root of: its encoded
    /// SHA-1 digest, which is below `n` because the encoding leads with a
    /// zero byte.
    fn encoded(&self, message: &[u8]) -> BigUint {
        BigUint::from_bytes_be(&encode_digest(&sha1(message), self.modulus_bytes))
    }
}

impl RsaKeyPair {
    /// Generate a fresh key pair with a modulus of roughly `bits` bits.
    ///
    /// `bits` must be at least 256 so the PKCS#1-style digest encoding
    /// fits, and at most [`MAX_MODULUS_BITS`] so the Montgomery kernel does.
    pub fn generate<R: Rng + ?Sized>(rng: &mut R, bits: usize) -> Result<Self, CryptoError> {
        if bits < 256 {
            return Err(CryptoError::KeyGeneration(format!(
                "modulus of {bits} bits is too small to encode a SHA-1 digest"
            )));
        }
        if bits > MAX_MODULUS_BITS {
            return Err(CryptoError::KeyGeneration(format!(
                "modulus of {bits} bits is wider than {MAX_MODULUS_BITS}"
            )));
        }
        let e = BigUint::from_u64(PUBLIC_EXPONENT);
        let one = BigUint::one();
        for _attempt in 0..64 {
            let p = BigUint::random_prime(rng, bits / 2, MR_ROUNDS);
            let q = BigUint::random_prime(rng, bits - bits / 2, MR_ROUNDS);
            if p.cmp(&q) == Ordering::Equal {
                continue;
            }
            let (p1, q1) = (p.sub(&one), q.sub(&one));
            let phi = p1.mul(&q1);
            if phi.gcd(&e).cmp(&one) != Ordering::Equal {
                continue;
            }
            let (Some(d), Some(qinv)) = (e.modinv(&phi), q.modinv(&p)) else {
                continue;
            };
            let (dp, dq) = (d.rem(&p1), d.rem(&q1));
            let public = RsaPublicKey::new(p.mul(&q), e)?;
            return Self::assemble(public, d, (p, dp), (q, dq), qinv);
        }
        Err(CryptoError::KeyGeneration(
            "failed to find suitable primes within the attempt budget".into(),
        ))
    }

    /// A key pair that [`RsaKeyPair::sign`] can use without panicking: the
    /// primes multiply to the public modulus.  The CRT exponents and `qinv`
    /// are taken as given — checking them costs the long divisions that
    /// keeping them avoids, and a wrong one is caught on every signature by
    /// the release check in `sign`.
    fn assemble(
        public: RsaPublicKey,
        d: BigUint,
        (p, dp): (BigUint, BigUint),
        (q, dq): (BigUint, BigUint),
        qinv: BigUint,
    ) -> Result<Self, CryptoError> {
        if d.is_zero() {
            return Err(CryptoError::InvalidKey("zero private exponent".into()));
        }
        if p.mul(&q) != public.n {
            return Err(CryptoError::InvalidKey(
                "primes do not multiply to the modulus".into(),
            ));
        }
        // p · q is odd, so both are; what is left to refuse is a factor of one.
        let crt_prime = |prime: BigUint, exponent| {
            let ctx = MontgomeryCtx::new(&prime)
                .ok_or_else(|| CryptoError::InvalidKey("trivial prime factor".into()))?;
            Ok(CrtPrime {
                prime,
                exponent,
                ctx,
            })
        };
        Ok(RsaKeyPair {
            p: crt_prime(p, dp)?,
            q: crt_prime(q, dq)?,
            public,
            d,
            qinv,
        })
    }

    /// The public half of the key pair.
    pub fn public_key(&self) -> &RsaPublicKey {
        &self.public
    }

    /// Serialize the full key pair — the public key, then `d`, `p`, `q`,
    /// `d mod (p−1)`, `d mod (q−1)` and `q⁻¹ mod p`, each behind its length —
    /// so it can be stored in the `private_key[]` singleton that the
    /// generated signing rules reference.  The CRT values ride along because
    /// `rsa_sign` parses the key on use, and recomputing them there would
    /// cost more than the signature.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(5 * self.public.modulus_bytes);
        put_field(&mut out, &self.public.to_bytes());
        for value in [
            &self.d,
            &self.p.prime,
            &self.q.prime,
            &self.p.exponent,
            &self.q.exponent,
            &self.qinv,
        ] {
            put_field(&mut out, &value.to_bytes_be());
        }
        out
    }

    /// Parse and validate a key pair serialized by [`RsaKeyPair::to_bytes`].
    pub fn from_bytes(mut data: &[u8]) -> Result<Self, CryptoError> {
        let truncated = || CryptoError::InvalidKey("truncated RSA key pair encoding".into());
        let public = RsaPublicKey::from_bytes(take_field(&mut data).ok_or_else(truncated)?)?;
        let mut field = || {
            take_field(&mut data)
                .map(BigUint::from_bytes_be)
                .ok_or_else(truncated)
        };
        let (d, p, q) = (field()?, field()?, field()?);
        let (dp, dq, qinv) = (field()?, field()?, field()?);
        Self::assemble(public, d, (p, dp), (q, dq), qinv)
    }

    /// Sign the SHA-1 digest of `message`.
    pub fn sign(&self, message: &[u8]) -> RsaSignature {
        let public = &self.public;
        let m = public.encoded(message);
        let mut s = self.sign_crt(&m);
        if public.ctx.pow(&s, &public.e) != m {
            s = self.sign_plain(&m);
        }
        RsaSignature(s.to_bytes_be_padded(public.modulus_bytes))
    }

    /// `m^d mod n` from its residues modulo `p` and `q` (Garner's
    /// recombination); below `n` whatever the CRT values hold.
    fn sign_crt(&self, m: &BigUint) -> BigUint {
        let (p, q) = (&self.p, &self.q);
        let m1 = p.ctx.pow(m, &p.exponent);
        let m2 = q.ctx.pow(m, &q.exponent);
        // h = qinv · (m1 − m2) mod p, as a difference of two products so that
        // neither a q above p nor an unreduced qinv needs a division.
        let (a, b) = (p.ctx.mulmod(&self.qinv, &m1), p.ctx.mulmod(&self.qinv, &m2));
        let h = if a.cmp(&b) == Ordering::Less {
            a.add(&p.prime).sub(&b)
        } else {
            a.sub(&b)
        };
        m2.add(&h.mul(&q.prime))
    }

    /// `m^d mod n` over the full modulus: what `sign` falls back to when the
    /// CRT result fails its check, and the oracle the tests hold it against.
    fn sign_plain(&self, m: &BigUint) -> BigUint {
        self.public.ctx.pow(m, &self.d)
    }
}

/// PKCS#1 v1.5-style encoding of a SHA-1 digest into `len` bytes:
/// `0x00 0x01 0xFF…0xFF 0x00 digest`.
fn encode_digest(digest: &[u8; DIGEST_LEN], len: usize) -> Vec<u8> {
    assert!(
        len >= DIGEST_LEN + MIN_PADDING,
        "modulus too small for digest encoding"
    );
    let mut out = Vec::with_capacity(len);
    out.push(0x00);
    out.push(0x01);
    out.resize(len - DIGEST_LEN - 1, 0xFF);
    out.push(0x00);
    out.extend_from_slice(digest);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sha1::to_hex;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn keypair(bits: usize) -> RsaKeyPair {
        let mut rng = StdRng::seed_from_u64(0x5ec0_b10c);
        RsaKeyPair::generate(&mut rng, bits).expect("keygen")
    }

    #[test]
    fn sign_verify_roundtrip() {
        let kp = keypair(512);
        let msg = b"says[reachable](n2, n1, n2, n5)";
        let sig = kp.sign(msg);
        assert_eq!(sig.0.len(), kp.public_key().modulus_bytes());
        assert!(kp.public_key().verify(msg, &sig));
    }

    #[test]
    fn verify_rejects_tampered_message() {
        let kp = keypair(512);
        let sig = kp.sign(b"path(p, n1, n3, 2)");
        assert!(!kp.public_key().verify(b"path(p, n1, n3, 3)", &sig));
    }

    #[test]
    fn verify_rejects_tampered_signature() {
        let kp = keypair(512);
        let mut sig = kp.sign(b"hello world");
        sig.0[0] ^= 0x01;
        assert!(!kp.public_key().verify(b"hello world", &sig));
        let truncated = RsaSignature(sig.0[..sig.0.len() - 1].to_vec());
        assert!(!kp.public_key().verify(b"hello world", &truncated));
    }

    #[test]
    fn verify_rejects_wrong_key() {
        let kp1 = keypair(512);
        let mut rng = StdRng::seed_from_u64(999);
        let kp2 = RsaKeyPair::generate(&mut rng, 512).unwrap();
        let sig = kp1.sign(b"msg");
        assert!(!kp2.public_key().verify(b"msg", &sig));
    }

    #[test]
    fn public_key_serialization_roundtrip() {
        let kp = keypair(512);
        let bytes = kp.public_key().to_bytes();
        let parsed = RsaPublicKey::from_bytes(&bytes).unwrap();
        assert_eq!(&parsed, kp.public_key());
        let sig = kp.sign(b"roundtrip");
        assert!(parsed.verify(b"roundtrip", &sig));
    }

    #[test]
    fn public_key_parse_rejects_garbage() {
        assert!(RsaPublicKey::from_bytes(&[]).is_err());
        assert!(RsaPublicKey::from_bytes(&[0, 0, 0, 200, 1, 2]).is_err());
    }

    /// Regression: a key with bytes after its exponent, or with a leading
    /// zero byte in an integer, used to parse to the same key as its
    /// `to_bytes` encoding, so one key had many encodings.
    #[test]
    fn public_key_parse_accepts_only_its_own_encoding() {
        let bytes = keypair(512).public_key().to_bytes();
        assert!(RsaPublicKey::from_bytes(&bytes).is_ok());
        assert!(RsaPublicKey::from_bytes(&[&bytes[..], &[0]].concat()).is_err());
        let (n_len, rest) = bytes.split_at(4);
        let n_len = u32::from_be_bytes(n_len.try_into().unwrap()) + 1;
        let padded = [&n_len.to_be_bytes()[..], &[0], rest].concat();
        assert!(RsaPublicKey::from_bytes(&padded).is_err());
    }

    #[test]
    fn keypair_serialization_roundtrip() {
        let kp = keypair(512);
        let bytes = kp.to_bytes();
        let parsed = RsaKeyPair::from_bytes(&bytes).unwrap();
        let sig = parsed.sign(b"serialized key still signs");
        assert!(kp.public_key().verify(b"serialized key still signs", &sig));
        assert!(RsaKeyPair::from_bytes(&bytes[..10]).is_err());
        assert!(RsaKeyPair::from_bytes(&[]).is_err());
    }

    /// Components of a key the parent commit's `generate` produced at `seed`,
    /// and the signature its bit-at-a-time `m.modpow(d, n)` gave `message`.
    struct Kat {
        seed: u64,
        bits: usize,
        message: &'static [u8],
        n: &'static str,
        d: &'static str,
        p: &'static str,
        q: &'static str,
        signature: &'static str,
    }

    const KATS: [Kat; 4] = [
        Kat {
            seed: 0x5ec0b10c,
            bits: 512,
            message: b"says[reachable](n2, n1, n2, n5)",
            n: concat!(
                "7760b0a1add33ebb682ae0031bc54c2e4ffe96701f3738d2b6a04eea39deca12",
                "5132e47cfff947659920185561a612a008583baaa46c8d1c85a5b32c2f247f71",
            ),
            d: concat!(
                "4912928c250ecdb3818bdd1b8a0037259229d0844957501d0b550d792a7b494d",
                "15d4225ecc06652318286f2b7fc65daea0baa106c7b98cf1faf76fb2f1312f91",
            ),
            p: "ea2f06d942f514ef7b37f83d5612315cd4cd54dfacbcd0b358e0f15321f279a3",
            q: "827fb0e63e66635c1272d67a3990457f257eca8046131ab4efc0a16a2938dbdb",
            signature: concat!(
                "309b724964fda20eae98663a9bfd248f8a640b9f03d2dfbe12d5bcbcab9445f3",
                "479830c74e4510a9e76071b0ffe627f0a81e3171778361f7f52f7eb362a02913",
            ),
        },
        Kat {
            seed: 0x16,
            bits: 512,
            message: b"",
            n: concat!(
                "99db6f9d6571b7fb697f2359cbad49a3fcbc84552bf10dbcccd7091bd47b8cee",
                "4ea2017567cea7c283f2313f38e03dd34d54ff6c191339aa3d44f516423e10af",
            ),
            d: concat!(
                "3160bc848e2f1df5e118bd96af08714ee0e8fbab7e0bc1f5eae3c4779b0cffe0",
                "674f93081d86be9dc1d0449a4ccb8b8d8b6042652a5c765983e533751ff8e119",
            ),
            p: "dda2b1042a2ff204223388fe94def4f0f48dd9526e9ed70fcb83857b296339bb",
            q: "b1b670b022ac9ebbd53090574f9f78b44dae173efc75219271de5ceb3a5feb9d",
            signature: concat!(
                "06f7ec29692e0d060ca0d48b1077533dd5832fb701c4732d8cbad3cd5fe86095",
                "fc598e0074491ff49bcccff3127700fae5716beeb9a6a8155e3ed3790564f2b9",
            ),
        },
        Kat {
            seed: 0x7,
            bits: 1024,
            message: b"path(p, n1, n3, 2)",
            n: concat!(
                "885b4436ab7d6c8acbbc97984ffd05f9a30f9b401f58b2cd630d1801e64f064a",
                "ebee8af5ba58a6587da7178f4ac99097478ca2e6d5e2e33c8d2438c768d7514c",
                "6634f1491112bedf31ad68c9b81eadf839aecffe8ede55cd42ee3f8de85c91d5",
                "25753635efc64b905865f019ba15658dbf0dcd4258dd2b4754512afd619cb8f9",
            ),
            d: concat!(
                "35d4da243f25a001579797bd90ee923a50aeab9af0052369c44dfa095df41ac6",
                "df47e8624474150fe0636400b504c86980dcbbbf27f78fc06af43eda32c0b69e",
                "3a25e8b0689ac280d769f821e71e9d9c347ff42953637e1857c3fb9f40055e1f",
                "b718e2dd8b0d10b75be4c73911ef78f0569df6ac2dd07e01ae469df5a9c1e0e5",
            ),
            p: concat!(
                "f8e6070601567389004d53896ebb4bbc00c45ceaa1c897f7349390a1ec3f6092",
                "6005f3b3ba7e15caaca1fd9b7c5659cd4ec1f63213ee2cc441e800b865cdc933",
            ),
            q: concat!(
                "8c3f395af6b0dffed0c477906149c5037f04448071812e5403a52a4628236cad",
                "278fe976c2d398907b68e31bd43ef401bf24750998774ff1201f21db3bf2ed23",
            ),
            signature: concat!(
                "040ece0f593f3e181aa40650007bea2c7ba29a9212b845b78cd119cdf16c5f90",
                "39fb7b4f754ad16665d60b94e819bcdc971fe74efe75b367739c5b3701fce700",
                "c091a9fb6ad39f5fb964fb01cae712d5a29bc047b5575de616fad54eb09557ff",
                "7196c978cd508fd5de3ac3e1b83e2c1db372e00c7663792c048ed0caddfd085d",
            ),
        },
        // Printed by the slice-kernel version of this module, the last
        // before the fixed-width kernel.
        Kat {
            seed: 0x31,
            bits: 1024,
            message: b"says[advertise](n4, n7, [n4, n2, n7])",
            n: concat!(
                "803e8af50948fc07547befa46838f985be821c819f560302a8bc32f36929ecd0",
                "39a7d1ddec29e5ee8e82c0d75d2efedaf4b985b7cd886d988cabce1cd2831d46",
                "17a4427543d4dec651384a44920c0c46addd3b88cb1bcb2eb5f0cb5cfa0b14e6",
                "dfdcc0055d1fde3beb195e5ec79adaeaa8666035ac16a1b76375b05fe0ecb7b3",
            ),
            d: concat!(
                "5e2b0ea82d603d48389e24f2e960e4c0738a60da41a0cbe718f5d0c7f1b1ca65",
                "7fe09df74221e5e7cd176ff8f440bcfd1474621efc3a3097b2bbb9466ac1c22d",
                "1a80ce16b64a66c5040774fa2f13d22b2bb426ec83811bc3a337b3c169970a6a",
                "48d9a6a9df27206153694904bca5cd60a7713e7cb728fd8de01a262833098369",
            ),
            p: concat!(
                "ae0bf9393b5021ad6760672dd2057e479d77a0c2d9450d33ef5c2dd031915c6f",
                "02079d9db4b9dd6dbdd4ff08335c56201ad0317943fafa2006da38bb3605fb07",
            ),
            q: concat!(
                "bca16d70096290882e703778cd73d760589ad48692f97fe6681b2c0f0e316d01",
                "ac07a4690aba52a99c3cf5b46b9ebf255b23f553720d574258173a94f3c036f5",
            ),
            signature: concat!(
                "4a3b9a6d4001ff83803f8ce098e866815ce3cc9a620e09347cb14288bbe1d9d3",
                "b719c6818e5989527ead31b99efb56be20be9cf9afff2d68c48f1b83fb67bb63",
                "27df1f56fa4b636c1bf60b04b9b6ae3f5d54980cbbf0f6933bc755682c0afa97",
                "3e2171d53039256782cf63348c489239ae4618d44036701c2f19f81cc8446722",
            ),
        },
    ];

    /// Key generation, the CRT path and the fallback all reproduce, byte for
    /// byte, what the code before the Montgomery context produced.
    #[test]
    fn known_answer_signatures_from_the_parent_commit() {
        let hex = |s: &str| BigUint::from_hex(s).expect("hex");
        let one = BigUint::one();
        for kat in &KATS {
            let (n, d, p, q) = (hex(kat.n), hex(kat.d), hex(kat.p), hex(kat.q));
            let (dp, dq) = (d.rem(&p.sub(&one)), d.rem(&q.sub(&one)));
            let qinv = q.modinv(&p).expect("distinct primes");
            let public = RsaPublicKey::new(n, BigUint::from_u64(PUBLIC_EXPONENT)).unwrap();
            let kp = RsaKeyPair::assemble(public, d, (p, dp), (q, dq), qinv).unwrap();

            let signature = kp.sign(kat.message);
            assert_eq!(to_hex(&signature.0), kat.signature, "seed {}", kat.seed);
            assert!(kp.public_key().verify(kat.message, &signature));
            let m = kp.public.encoded(kat.message);
            assert_eq!(kp.sign_crt(&m), kp.sign_plain(&m));
            assert_eq!(
                to_hex(
                    &kp.sign_plain(&m)
                        .to_bytes_be_padded(kp.public.modulus_bytes)
                ),
                kat.signature
            );

            let mut rng = StdRng::seed_from_u64(kat.seed);
            let generated = RsaKeyPair::generate(&mut rng, kat.bits).unwrap();
            assert_eq!(generated.to_bytes(), kp.to_bytes(), "seed {}", kat.seed);
        }
    }

    #[test]
    fn crt_signature_equals_plain_signature() {
        let mut rng = StdRng::seed_from_u64(0xc47);
        for (bits, keys) in [(512, 4), (1024, 1), (257, 2)] {
            for _ in 0..keys {
                let kp = RsaKeyPair::generate(&mut rng, bits).unwrap();
                for _ in 0..8 {
                    let message: Vec<u8> = (0..rng.gen::<u8>()).map(|_| rng.gen()).collect();
                    let m = kp.public.encoded(&message);
                    let plain = kp
                        .sign_plain(&m)
                        .to_bytes_be_padded(kp.public.modulus_bytes);
                    assert_eq!(kp.sign_crt(&m), kp.sign_plain(&m));
                    assert_eq!(kp.sign(&message).0, plain);
                }
            }
        }
    }

    /// A wrong CRT value never reaches the caller: the release check fails
    /// and the full-modulus exponentiation signs instead.
    #[test]
    fn faulty_crt_value_is_not_released() {
        let kp = keypair(512);
        let good = kp.sign(b"fault");
        let bump = |x: &BigUint| x.add(&BigUint::one());
        for fault in 0..3 {
            let mut faulty = kp.clone();
            match fault {
                0 => faulty.p.exponent = bump(&kp.p.exponent),
                1 => faulty.q.exponent = bump(&kp.q.exponent),
                _ => faulty.qinv = bump(&kp.qinv).mul(&kp.p.prime),
            }
            let m = kp.public.encoded(b"fault");
            assert_ne!(faulty.sign_crt(&m), kp.sign_crt(&m), "fault {fault}");
            assert_eq!(faulty.sign(b"fault"), good, "fault {fault}");
        }
    }

    #[test]
    fn debug_output_holds_no_private_material() {
        let kp = keypair(512);
        let shown = format!("{kp:?} {:?}", Some(std::sync::Arc::new(kp.clone())));
        assert!(shown.contains("RsaKeyPair"));
        assert!(shown.contains(&kp.public.n.to_hex()));
        for secret in [
            &kp.d,
            &kp.p.prime,
            &kp.q.prime,
            &kp.p.exponent,
            &kp.q.exponent,
            &kp.qinv,
        ] {
            let hex = secret.to_hex();
            for run in [&hex[..16], &hex[hex.len() - 16..]] {
                assert!(!shown.contains(run), "{run} of a private value is shown");
            }
        }
    }

    /// Eleven bytes that used to parse and then abort the process in
    /// `encode_digest`.
    #[test]
    fn short_modulus_is_refused_at_parse() {
        let tiny = [0, 0, 0, 2, 1, 1, 0, 0, 0, 1, 3];
        assert!(matches!(
            RsaPublicKey::from_bytes(&tiny),
            Err(CryptoError::InvalidKey(_))
        ));
        let mut pair = Vec::new();
        put_field(&mut pair, &tiny);
        for value in [[0xa9u8], [0x11], [0x0f], [1], [1], [1]] {
            put_field(&mut pair, &value);
        }
        assert!(matches!(
            RsaKeyPair::from_bytes(&pair),
            Err(CryptoError::InvalidKey(_))
        ));
    }

    #[test]
    fn parse_refuses_keys_the_kernel_cannot_use() {
        let kp = keypair(512);
        let encode = |n: &BigUint, e: &BigUint| {
            let mut out = Vec::new();
            put_field(&mut out, &n.to_bytes_be());
            put_field(&mut out, &e.to_bytes_be());
            out
        };
        let (n, e) = (&kp.public.n, &kp.public.e);
        assert!(RsaPublicKey::from_bytes(&encode(n, e)).is_ok());
        let refused = [
            encode(&n.add(&BigUint::one()), e),
            encode(n, &BigUint::one()),
            encode(n, &BigUint::from_u64(65_536)),
            encode(n, &BigUint::zero()),
            encode(&BigUint::zero(), e),
        ];
        for bytes in &refused {
            assert!(matches!(
                RsaPublicKey::from_bytes(bytes),
                Err(CryptoError::InvalidKey(_))
            ));
        }

        // A key pair whose primes are not the modulus's, and the encoding
        // from before the primes were kept (public key and `d` only).
        let other = RsaKeyPair::generate(&mut StdRng::seed_from_u64(3), 512).unwrap();
        let mut mixed = kp.clone();
        mixed.p = other.p.clone();
        assert!(matches!(
            RsaKeyPair::from_bytes(&mixed.to_bytes()),
            Err(CryptoError::InvalidKey(_))
        ));
        let mut old = Vec::new();
        put_field(&mut old, &kp.public.to_bytes());
        put_field(&mut old, &kp.d.to_bytes_be());
        assert!(matches!(
            RsaKeyPair::from_bytes(&old),
            Err(CryptoError::InvalidKey(_))
        ));
    }

    /// A modulus wider than the kernel's 4096 bits is a refusal at parse,
    /// not a panic; 4096 bits still parses.
    #[test]
    fn modulus_wider_than_4096_bits_is_refused_at_parse() {
        let mut rng = StdRng::seed_from_u64(0x1001);
        let mut odd = |bits| {
            let n = BigUint::random_bits(&mut rng, bits);
            if n.is_even() {
                n.add(&BigUint::one())
            } else {
                n
            }
        };
        let (n, wide) = (odd(MAX_MODULUS_BITS), odd(MAX_MODULUS_BITS + 1));
        let encode = |n: &BigUint| {
            let mut out = Vec::new();
            put_field(&mut out, &n.to_bytes_be());
            put_field(&mut out, &BigUint::from_u64(PUBLIC_EXPONENT).to_bytes_be());
            out
        };
        assert!(RsaPublicKey::from_bytes(&encode(&n)).is_ok());
        assert!(matches!(
            RsaPublicKey::from_bytes(&encode(&wide)),
            Err(CryptoError::InvalidKey(_))
        ));
        let mut pair = Vec::new();
        put_field(&mut pair, &encode(&wide));
        for value in [[0xa9u8], [0x11], [0x0f], [1], [1], [1]] {
            put_field(&mut pair, &value);
        }
        assert!(matches!(
            RsaKeyPair::from_bytes(&pair),
            Err(CryptoError::InvalidKey(_))
        ));
        assert!(matches!(
            RsaKeyPair::generate(&mut rng, MAX_MODULUS_BITS + 2),
            Err(CryptoError::KeyGeneration(_))
        ));
    }

    #[test]
    fn generate_rejects_tiny_modulus() {
        let mut rng = StdRng::seed_from_u64(1);
        assert!(RsaKeyPair::generate(&mut rng, 128).is_err());
    }

    #[test]
    fn modulus_size_matches_request_roughly() {
        let kp = keypair(512);
        let bits = kp.public_key().modulus_bits();
        assert!((500..=512).contains(&bits), "modulus bits {bits}");
    }
}
