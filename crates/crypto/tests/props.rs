//! Property-based tests for the cryptographic substrate.
//!
//! These complement the known-answer unit tests inside each module: the unit
//! tests pin the primitives to published test vectors, while the properties
//! here exercise algebraic invariants (roundtrips, verification laws, bignum
//! arithmetic identities) over randomly generated inputs.

use proptest::prelude::*;
use secureblox_crypto::bignum::MontgomeryCtx;
use secureblox_crypto::{
    aes128_ctr_decrypt, aes128_ctr_encrypt, hmac_sha1, hmac_sha1_verify, sha1, BigUint,
    CryptoError, RsaKeyPair, RsaPublicKey, RsaSignature, Sha1,
};
use std::ops::Range;
use std::sync::OnceLock;

// ---------------------------------------------------------------------------
// SHA-1
// ---------------------------------------------------------------------------

proptest! {
    /// Feeding the message in arbitrary chunk sizes produces the same digest
    /// as hashing it in one shot.
    #[test]
    fn sha1_incremental_matches_oneshot(data in proptest::collection::vec(any::<u8>(), 0..2048),
                                        chunk in 1usize..64) {
        let oneshot = sha1(&data);
        let mut hasher = Sha1::new();
        for piece in data.chunks(chunk) {
            hasher.update(piece);
        }
        prop_assert_eq!(hasher.finalize(), oneshot);
    }

    /// The digest is always 20 bytes and deterministic.
    #[test]
    fn sha1_deterministic(data in proptest::collection::vec(any::<u8>(), 0..512)) {
        let a = sha1(&data);
        let b = sha1(&data);
        prop_assert_eq!(a, b);
        prop_assert_eq!(a.len(), 20);
    }

    /// Appending a byte changes the digest (SHA-1 is not length-extension
    /// stable for our purposes of distinguishing messages).
    #[test]
    fn sha1_sensitive_to_appended_byte(data in proptest::collection::vec(any::<u8>(), 0..256),
                                       extra in any::<u8>()) {
        let mut extended = data.clone();
        extended.push(extra);
        prop_assert_ne!(sha1(&data), sha1(&extended));
    }
}

// ---------------------------------------------------------------------------
// HMAC-SHA1
// ---------------------------------------------------------------------------

proptest! {
    /// A tag produced by `hmac_sha1` always verifies under the same key and
    /// message.
    #[test]
    fn hmac_sign_then_verify(key in proptest::collection::vec(any::<u8>(), 1..64),
                             msg in proptest::collection::vec(any::<u8>(), 0..512)) {
        let tag = hmac_sha1(&key, &msg);
        prop_assert!(hmac_sha1_verify(&key, &msg, &tag));
    }

    /// Flipping any bit of the tag makes verification fail.
    #[test]
    fn hmac_rejects_tampered_tag(key in proptest::collection::vec(any::<u8>(), 1..64),
                                 msg in proptest::collection::vec(any::<u8>(), 0..256),
                                 byte in 0usize..20, bit in 0u8..8) {
        let mut tag = hmac_sha1(&key, &msg);
        tag[byte] ^= 1 << bit;
        prop_assert!(!hmac_sha1_verify(&key, &msg, &tag));
    }

    /// A tag computed under one key does not verify under a different key.
    #[test]
    fn hmac_rejects_wrong_key(key in proptest::collection::vec(any::<u8>(), 1..64),
                              msg in proptest::collection::vec(any::<u8>(), 0..256),
                              flip_index in 0usize..64) {
        let tag = hmac_sha1(&key, &msg);
        let mut other = key.clone();
        let idx = flip_index % other.len();
        other[idx] ^= 0xFF;
        prop_assert!(!hmac_sha1_verify(&other, &msg, &tag));
    }

    /// Verification rejects truncated or over-long tags outright.
    #[test]
    fn hmac_rejects_wrong_length_tag(key in proptest::collection::vec(any::<u8>(), 1..32),
                                     msg in proptest::collection::vec(any::<u8>(), 0..128),
                                     cut in 0usize..19) {
        let tag = hmac_sha1(&key, &msg);
        prop_assert!(!hmac_sha1_verify(&key, &msg, &tag[..cut]));
        let mut long = tag.to_vec();
        long.push(0);
        prop_assert!(!hmac_sha1_verify(&key, &msg, &long));
    }
}

// ---------------------------------------------------------------------------
// AES-128-CTR
// ---------------------------------------------------------------------------

proptest! {
    /// Decryption inverts encryption for any secret and plaintext.
    #[test]
    fn aes_ctr_roundtrip(secret in proptest::collection::vec(any::<u8>(), 1..48),
                         plaintext in proptest::collection::vec(any::<u8>(), 0..2048)) {
        let ciphertext = aes128_ctr_encrypt(&secret, &plaintext);
        let recovered = aes128_ctr_decrypt(&secret, &ciphertext).expect("well-formed ciphertext");
        prop_assert_eq!(recovered, plaintext);
    }

    /// The ciphertext carries a fixed-size overhead (nonce/IV), never less
    /// than the plaintext.
    #[test]
    fn aes_ctr_ciphertext_overhead_is_constant(secret in proptest::collection::vec(any::<u8>(), 1..32),
                                               a in proptest::collection::vec(any::<u8>(), 0..512),
                                               b in proptest::collection::vec(any::<u8>(), 0..512)) {
        let ca = aes128_ctr_encrypt(&secret, &a);
        let cb = aes128_ctr_encrypt(&secret, &b);
        prop_assert!(ca.len() >= a.len());
        prop_assert!(cb.len() >= b.len());
        prop_assert_eq!(ca.len() - a.len(), cb.len() - b.len());
    }

    /// Decrypting under the wrong secret never silently returns the original
    /// plaintext (for non-empty plaintexts).
    #[test]
    fn aes_ctr_wrong_key_garbles(secret in proptest::collection::vec(any::<u8>(), 1..32),
                                 plaintext in proptest::collection::vec(any::<u8>(), 16..256),
                                 flip in 0usize..32) {
        let ciphertext = aes128_ctr_encrypt(&secret, &plaintext);
        let mut wrong = secret.clone();
        let idx = flip % wrong.len();
        wrong[idx] ^= 0x5A;
        // Rejecting is also acceptable.
        if let Ok(garbled) = aes128_ctr_decrypt(&wrong, &ciphertext) {
            prop_assert_ne!(garbled, plaintext);
        }
    }

    /// Truncating the ciphertext below the header size is an error, not a
    /// panic.
    #[test]
    fn aes_ctr_truncated_input_is_error_or_shorter(secret in proptest::collection::vec(any::<u8>(), 1..32),
                                                   plaintext in proptest::collection::vec(any::<u8>(), 1..128),
                                                   keep in 0usize..8) {
        let ciphertext = aes128_ctr_encrypt(&secret, &plaintext);
        let keep = keep.min(ciphertext.len());
        if let Ok(out) = aes128_ctr_decrypt(&secret, &ciphertext[..keep]) {
            prop_assert!(out.len() < plaintext.len());
        }
    }
}

// ---------------------------------------------------------------------------
// BigUint arithmetic laws (cross-checked against native u128 arithmetic)
// ---------------------------------------------------------------------------

fn big(x: u64) -> BigUint {
    BigUint::from_u64(x)
}

proptest! {
    /// Addition agrees with u128 addition.
    #[test]
    fn bignum_add_matches_u128(a in any::<u64>(), b in any::<u64>()) {
        let sum = big(a).add(&big(b));
        let expected = BigUint::from_bytes_be(&(a as u128 + b as u128).to_be_bytes());
        prop_assert_eq!(sum.cmp(&expected), std::cmp::Ordering::Equal);
    }

    /// Subtraction undoes addition: (a + b) - b == a.
    #[test]
    fn bignum_add_sub_roundtrip(a in any::<u64>(), b in any::<u64>()) {
        let back = big(a).add(&big(b)).sub(&big(b));
        prop_assert_eq!(back.cmp(&big(a)), std::cmp::Ordering::Equal);
    }

    /// Multiplication agrees with u128 multiplication and is commutative.
    #[test]
    fn bignum_mul_matches_u128(a in any::<u64>(), b in any::<u64>()) {
        let prod = big(a).mul(&big(b));
        let expected = BigUint::from_bytes_be(&((a as u128) * (b as u128)).to_be_bytes());
        prop_assert_eq!(prod.cmp(&expected), std::cmp::Ordering::Equal);
        prop_assert_eq!(big(b).mul(&big(a)).cmp(&prod), std::cmp::Ordering::Equal);
    }

    /// Multiplication distributes over addition: a*(b+c) == a*b + a*c.
    #[test]
    fn bignum_mul_distributes(a in any::<u64>(), b in any::<u64>(), c in any::<u64>()) {
        let lhs = big(a).mul(&big(b).add(&big(c)));
        let rhs = big(a).mul(&big(b)).add(&big(a).mul(&big(c)));
        prop_assert_eq!(lhs.cmp(&rhs), std::cmp::Ordering::Equal);
    }

    /// Division invariant: for d != 0, n == q*d + r with r < d.
    #[test]
    fn bignum_div_rem_invariant(n_bytes in proptest::collection::vec(any::<u8>(), 1..24),
                                d in 1u64..) {
        let n = BigUint::from_bytes_be(&n_bytes);
        let d = big(d);
        let (q, r) = n.div_rem(&d);
        prop_assert_eq!(q.mul(&d).add(&r).cmp(&n), std::cmp::Ordering::Equal);
        prop_assert_eq!(r.cmp(&d), std::cmp::Ordering::Less);
    }

    /// Shifting left then right by the same amount is the identity.
    #[test]
    fn bignum_shl_shr_roundtrip(bytes in proptest::collection::vec(any::<u8>(), 1..24),
                                bits in 0usize..130) {
        let n = BigUint::from_bytes_be(&bytes);
        let back = n.shl(bits).shr(bits);
        prop_assert_eq!(back.cmp(&n), std::cmp::Ordering::Equal);
    }

    /// Byte-encoding roundtrips (modulo leading zeros, which from_bytes_be
    /// strips).
    #[test]
    fn bignum_bytes_roundtrip(bytes in proptest::collection::vec(any::<u8>(), 1..32)) {
        let n = BigUint::from_bytes_be(&bytes);
        let back = BigUint::from_bytes_be(&n.to_bytes_be());
        prop_assert_eq!(back.cmp(&n), std::cmp::Ordering::Equal);
    }

    /// Hex encoding roundtrips exactly.
    #[test]
    fn bignum_hex_roundtrip(bytes in proptest::collection::vec(any::<u8>(), 1..32)) {
        let n = BigUint::from_bytes_be(&bytes);
        let back = BigUint::from_hex(&n.to_hex()).expect("hex parses");
        prop_assert_eq!(back.cmp(&n), std::cmp::Ordering::Equal);
    }

    /// Comparison agrees with u128 comparison.
    #[test]
    fn bignum_cmp_matches_u128(a in any::<u64>(), b in any::<u64>()) {
        prop_assert_eq!(big(a).cmp(&big(b)), a.cmp(&b));
    }

    /// modpow agrees with a naive square-and-reduce computed via u128 for
    /// small operands.
    #[test]
    fn bignum_modpow_matches_naive(base in 0u64..1 << 20, exp in 0u32..64, modulus in 2u64..1 << 20) {
        let mut expected: u128 = 1;
        let m = modulus as u128;
        for _ in 0..exp {
            expected = (expected * (base as u128 % m)) % m;
        }
        let got = big(base).modpow(&big(exp as u64), &big(modulus));
        prop_assert_eq!(got.cmp(&big(expected as u64)), std::cmp::Ordering::Equal);
    }

    /// The Montgomery context agrees with a square-and-multiply loop over
    /// the long-division `mulmod`, for any odd modulus, base and exponent
    /// width (the base may be several times wider than the modulus).
    #[test]
    fn montgomery_ctx_matches_mulmod_loop(modulus in proptest::collection::vec(any::<u8>(), 1..40),
                                          base in proptest::collection::vec(any::<u8>(), 0..100),
                                          exponent in proptest::collection::vec(any::<u8>(), 0..24)) {
        let mut modulus = modulus;
        *modulus.last_mut().expect("non-empty") |= 1;
        let (n, base, exponent) = (
            BigUint::from_bytes_be(&modulus),
            BigUint::from_bytes_be(&base),
            BigUint::from_bytes_be(&exponent),
        );
        let Some(ctx) = MontgomeryCtx::new(&n) else {
            prop_assert!(n.bits() < 2);
            return Ok(());
        };
        let mut expected = BigUint::one();
        for i in (0..exponent.bits()).rev() {
            expected = expected.mulmod(&expected, &n);
            if exponent.bit(i) {
                expected = expected.mulmod(&base, &n);
            }
        }
        prop_assert_eq!(ctx.pow(&base, &exponent), expected.clone());
        prop_assert_eq!(base.modpow(&exponent, &n), expected);
        prop_assert_eq!(ctx.mulmod(&base, &exponent), base.mulmod(&exponent, &n));
    }

    /// gcd divides both operands and is commutative.
    #[test]
    fn bignum_gcd_divides(a in 1u64.., b in 1u64..) {
        let g = big(a).gcd(&big(b));
        prop_assert!(!g.is_zero());
        let (_, ra) = big(a).div_rem(&g);
        let (_, rb) = big(b).div_rem(&g);
        prop_assert!(ra.is_zero());
        prop_assert!(rb.is_zero());
        prop_assert_eq!(big(b).gcd(&big(a)).cmp(&g), std::cmp::Ordering::Equal);
    }

    /// When a modular inverse exists, a * a^{-1} ≡ 1 (mod m).
    #[test]
    fn bignum_modinv_is_inverse(a in 1u64.., m in 2u64..) {
        let a_big = big(a).rem(&big(m));
        if a_big.is_zero() {
            return Ok(());
        }
        match a_big.modinv(&big(m)) {
            Some(inv) => {
                let prod = a_big.mulmod(&inv, &big(m));
                prop_assert_eq!(prod.cmp(&BigUint::one()), std::cmp::Ordering::Equal);
            }
            None => {
                // No inverse ⇒ gcd(a, m) != 1.
                let g = a_big.gcd(&big(m));
                prop_assert_ne!(g.cmp(&BigUint::one()), std::cmp::Ordering::Equal);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// RSA sign / verify
// ---------------------------------------------------------------------------

/// A single small keypair shared across cases: keygen is the expensive part,
/// and the properties under test concern signing and verification.
fn test_keypair() -> &'static RsaKeyPair {
    static KEY: OnceLock<RsaKeyPair> = OnceLock::new();
    KEY.get_or_init(|| {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x5eed_1234);
        RsaKeyPair::generate(&mut rng, 512).expect("keygen")
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Every signature verifies under the matching public key.
    #[test]
    fn rsa_sign_then_verify(msg in proptest::collection::vec(any::<u8>(), 0..512)) {
        let kp = test_keypair();
        let sig = kp.sign(&msg);
        prop_assert!(kp.public_key().verify(&msg, &sig));
    }

    /// A signature over one message does not verify over a different message.
    #[test]
    fn rsa_rejects_different_message(msg in proptest::collection::vec(any::<u8>(), 1..256),
                                     extra in any::<u8>()) {
        let kp = test_keypair();
        let sig = kp.sign(&msg);
        let mut other = msg.clone();
        other.push(extra);
        prop_assert!(!kp.public_key().verify(&other, &sig));
    }

    /// Corrupting the signature bytes makes verification fail.
    #[test]
    fn rsa_rejects_corrupted_signature(msg in proptest::collection::vec(any::<u8>(), 0..256),
                                       byte in 0usize..64, mask in 1u8..) {
        let kp = test_keypair();
        let RsaSignature(mut bytes) = kp.sign(&msg);
        let idx = byte % bytes.len();
        bytes[idx] ^= mask;
        prop_assert!(!kp.public_key().verify(&msg, &RsaSignature(bytes)));
    }

    /// Public-key serialization roundtrips and the roundtripped key still
    /// verifies signatures from the original private key.
    #[test]
    fn rsa_public_key_roundtrip(msg in proptest::collection::vec(any::<u8>(), 0..128)) {
        let kp = test_keypair();
        let encoded = kp.public_key().to_bytes();
        let decoded = secureblox_crypto::RsaPublicKey::from_bytes(&encoded).expect("decodes");
        let sig = kp.sign(&msg);
        prop_assert!(decoded.verify(&msg, &sig));
    }
}

// ---------------------------------------------------------------------------
// Keypair serialization
// ---------------------------------------------------------------------------

#[test]
fn rsa_keypair_roundtrips_through_bytes() {
    let kp = test_keypair();
    let encoded = kp.to_bytes();
    let decoded = RsaKeyPair::from_bytes(&encoded).expect("keypair decodes");
    let msg = b"the quick brown fox";
    let sig = decoded.sign(msg);
    assert!(kp.public_key().verify(msg, &sig));
    assert_eq!(
        decoded.public_key().modulus_bytes(),
        kp.public_key().modulus_bytes()
    );
}

// ---------------------------------------------------------------------------
// Key encodings under corruption
// ---------------------------------------------------------------------------

/// The byte ranges of the length-prefixed fields laid end to end in `data`.
fn field_ranges(data: &[u8]) -> Vec<Range<usize>> {
    let mut ranges = Vec::new();
    let mut at = 0;
    while at < data.len() {
        let len = u32::from_be_bytes(data[at..at + 4].try_into().expect("length")) as usize;
        ranges.push(at + 4..at + 4 + len);
        at += 4 + len;
    }
    ranges
}

/// A wrong `dp`, `dq` or `qinv` is a CRT fault waiting to happen: the key
/// still parses (checking them costs the divisions keeping them saves), and
/// every signature is the one the intact key gives, because the faulty CRT
/// result fails its check and is never released.  A wrong `p`, `q` or `n` is
/// refused at parse.
#[test]
fn rsa_corrupted_crt_values_never_change_a_signature() {
    let kp = test_keypair();
    let encoded = kp.to_bytes();
    let fields = field_ranges(&encoded);
    let [public, _d, p, q, dp, dq, qinv] = fields.as_slice() else {
        panic!("a key pair is seven fields, found {}", fields.len());
    };
    let message = b"path(p, n1, n3, 2)";
    let intact = kp.sign(message);

    for index in dp.start..qinv.end {
        if !(dp.contains(&index) || dq.contains(&index) || qinv.contains(&index)) {
            continue; // a length prefix
        }
        for mask in [0x01, 0x80, 0xff] {
            let mut corrupt = encoded.clone();
            corrupt[index] ^= mask;
            let parsed = RsaKeyPair::from_bytes(&corrupt).expect("CRT values are not validated");
            assert_eq!(parsed.sign(message), intact, "byte {index} ^ {mask:#x}");
        }
    }

    let n = field_ranges(&encoded[public.clone()])[0].clone();
    let n = public.start + n.start..public.start + n.end;
    for region in [&n, p, q] {
        for index in region.clone() {
            let mut corrupt = encoded.clone();
            corrupt[index] ^= 0x04;
            assert!(
                matches!(
                    RsaKeyPair::from_bytes(&corrupt),
                    Err(CryptoError::InvalidKey(_))
                ),
                "byte {index}"
            );
        }
    }
}

/// No single corrupted byte of a key encoding, length prefixes included,
/// makes parsing, signing or verifying panic; and a public key that parses
/// to something else never accepts the original key's signature.
#[test]
fn rsa_key_encodings_survive_every_byte_flip() {
    let kp = test_keypair();
    let message = b"flip";
    let signature = kp.sign(message);

    let public = kp.public_key().to_bytes();
    for index in 0..public.len() {
        for mask in [0x01, 0xff] {
            let mut corrupt = public.clone();
            corrupt[index] ^= mask;
            if let Ok(parsed) = RsaPublicKey::from_bytes(&corrupt) {
                assert_ne!(&parsed, kp.public_key());
                assert!(!parsed.verify(message, &signature), "byte {index}");
            }
        }
    }

    let pair = kp.to_bytes();
    for index in 0..pair.len() {
        for mask in [0x01, 0xff] {
            let mut corrupt = pair.clone();
            corrupt[index] ^= mask;
            if let Ok(parsed) = RsaKeyPair::from_bytes(&corrupt) {
                let signed = parsed.sign(message);
                assert_eq!(signed.0.len(), parsed.public_key().modulus_bytes());
                let _ = parsed.public_key().verify(message, &signed);
            }
        }
    }
}
