//! # secureblox-crypto
//!
//! From-scratch cryptographic substrate used by the SecureBlox reproduction.
//!
//! The SecureBlox paper (SIGMOD 2010) evaluates three authentication schemes
//! (no authentication, HMAC-SHA1 over a pairwise shared secret, RSA signatures
//! over a SHA-1 digest) and optional AES symmetric encryption of serialized
//! tuple batches.  This crate provides exactly those primitives, implemented
//! without external cryptography dependencies so that the relative costs
//! (RSA ≫ HMAC ≫ none) and the on-the-wire size overheads (20-byte HMAC tag,
//! modulus-sized RSA signature) are real, measurable quantities in the
//! benchmark harness.
//!
//! ## Modules
//!
//! * [`sha1`](mod@sha1) — the SHA-1 hash function (FIPS 180-1).
//! * [`hmac`] — HMAC-SHA1 keyed message authentication (RFC 2104).
//! * [`aes`] — AES-128 block cipher plus a CTR-mode stream construction.
//! * [`bignum`] — arbitrary-precision unsigned integers (the little that RSA
//!   needs: add, sub, mul, div/rem, Miller–Rabin) and the per-modulus
//!   Montgomery context every odd-modulus exponentiation runs on.
//! * [`rsa`] — RSA key generation, CRT signing (checked before release) and
//!   verification of SHA-1 digests; keys are validated where they are parsed.
//! * [`keys`] — a small key store mapping principals to key material, used by
//!   the distributed runtime to look up `public_key`, `private_key`, and the
//!   pairwise `secret` relations referenced by the generated policies.
//!
//! ## Security disclaimer
//!
//! These implementations are intended for faithful *performance and behaviour
//! reproduction* of the paper's evaluation, not for protecting production
//! data: SHA-1 is cryptographically broken, the RSA padding is a minimal
//! PKCS#1-v1.5-like construction, and no attempt is made at constant-time
//! execution.

pub mod aes;
pub mod bignum;
pub mod error;
pub mod hmac;
pub mod keys;
pub mod rsa;
pub mod sha1;

pub use aes::{aes128_ctr_decrypt, aes128_ctr_encrypt, Aes128};
pub use bignum::BigUint;
pub use error::CryptoError;
pub use hmac::{hmac_sha1, hmac_sha1_verify};
pub use keys::{KeyStore, PrincipalKeys};
pub use rsa::{RsaKeyPair, RsaPublicKey, RsaSignature};
pub use sha1::{sha1, to_hex, Sha1};

/// Authentication schemes evaluated in the paper (§8).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum AuthScheme {
    /// No authentication: a cleartext principal header only.
    NoAuth,
    /// Keyed-hash message authentication code over a pairwise shared secret.
    HmacSha1,
    /// RSA signature over the SHA-1 digest of the message.
    Rsa,
}

impl AuthScheme {
    /// The number of signature bytes this scheme appends per signed payload.
    pub fn signature_overhead(&self, modulus_bytes: usize) -> usize {
        match self {
            AuthScheme::NoAuth => 0,
            AuthScheme::HmacSha1 => sha1::DIGEST_LEN,
            AuthScheme::Rsa => modulus_bytes,
        }
    }

    /// Human-readable label matching the paper's figures.
    pub fn label(&self) -> &'static str {
        match self {
            AuthScheme::NoAuth => "NoAuth",
            AuthScheme::HmacSha1 => "HMAC",
            AuthScheme::Rsa => "RSA",
        }
    }
}

/// Confidentiality schemes evaluated in the paper (§8).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum EncScheme {
    /// Plaintext transport.
    None,
    /// AES-128 in CTR mode with a pairwise shared secret.
    Aes128,
}

impl EncScheme {
    /// Human-readable label matching the paper's figures.
    pub fn label(&self) -> &'static str {
        match self {
            EncScheme::None => "",
            EncScheme::Aes128 => "AES",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scheme_labels_match_paper() {
        assert_eq!(AuthScheme::NoAuth.label(), "NoAuth");
        assert_eq!(AuthScheme::HmacSha1.label(), "HMAC");
        assert_eq!(AuthScheme::Rsa.label(), "RSA");
        assert_eq!(EncScheme::Aes128.label(), "AES");
    }

    #[test]
    fn signature_overheads() {
        assert_eq!(AuthScheme::NoAuth.signature_overhead(128), 0);
        assert_eq!(AuthScheme::HmacSha1.signature_overhead(128), 20);
        assert_eq!(AuthScheme::Rsa.signature_overhead(128), 128);
    }
}
