//! Cryptographic and hashing user-defined functions.
//!
//! The paper's policies call `rsa_sign`, `rsa_verify`, `hmac_sign`,
//! `hmac_verify`, `sha1`, `aesencrypt` and `serialize` as user-defined
//! functions hooked into rule and constraint execution (§3.2, §5.1).  This
//! module registers those functions into a workspace.  They operate on the
//! byte values stored in the `public_key` / `private_key` / `secret`
//! relations, so changing a node's policy never requires touching the
//! runtime — only different relations and different generated rules.

use crate::runtime::codec::serialize_tuple;
use secureblox_crypto::rsa::{RsaKeyPair, RsaPublicKey, RsaSignature};
use secureblox_crypto::{aes128_ctr_decrypt, aes128_ctr_encrypt, hmac_sha1, hmac_sha1_verify};
use secureblox_datalog::udf::require_bound;
use secureblox_datalog::value::Value;
use secureblox_datalog::Workspace;

/// Register every SecureBlox UDF into `workspace`.
pub fn register_crypto_udfs(workspace: &mut Workspace) {
    // sha1hash(X, H): positive 63-bit hash of the canonical encoding of X,
    // used for hash partitioning (paper §7.2 uses sha1 for rehashing).  The
    // one definition shared with Rust-side routing lives in
    // `runtime::shard::shard_hash`, so DatalogLB rules and the shard ring
    // always agree on owners.
    workspace.register_udf("sha1hash", |args| {
        let value = require_bound(args, 0, "sha1hash")?;
        let hash = crate::runtime::shard::shard_hash(&value);
        Ok(vec![vec![value, Value::Int(hash)]])
    });

    // sha1slot(X, B): the fixed hash slot of X — `shard_hash(X)` folded into
    // `[0, SHARD_SLOTS)`.  The generated shard routing rules join this slot
    // id against the replicated `shard_slot(B, Owner)` table, an indexed
    // equality join whose cost is independent of the group size.
    workspace.register_udf("sha1slot", |args| {
        let value = require_bound(args, 0, "sha1slot")?;
        let slot = crate::runtime::shard::slot_of(&value);
        Ok(vec![vec![value, Value::Int(slot)]])
    });

    // serialize(V..., T): canonical byte encoding of the argument values.
    workspace.register_udf_family("serialize", |_param, args| {
        let mut values = Vec::with_capacity(args.len().saturating_sub(1));
        for (i, arg) in args.iter().enumerate().take(args.len().saturating_sub(1)) {
            values.push(
                arg.clone()
                    .ok_or_else(|| format!("serialize: argument {i} must be bound"))?,
            );
        }
        let mut row = values.clone();
        row.push(Value::bytes(serialize_tuple(&values)));
        Ok(vec![row])
    });

    // rsa_sign(K, V..., S): sign the canonical encoding of V... with the key
    // pair stored (serialized) in K.  The key is parsed on every call: its
    // encoding carries the CRT values, so parsing is three Montgomery
    // contexts and one product — ≈3 µs at 512 bits against a ≈43 µs
    // signature.  A memo keyed by the key bytes would save that and cost
    // every closure a lock and a map; at under a tenth it is not kept.
    workspace.register_udf("rsa_sign", |args| {
        if args.len() < 2 {
            return Err("rsa_sign: expected key, values..., signature".into());
        }
        let key = require_bound(args, 0, "rsa_sign")?;
        let keypair = RsaKeyPair::from_bytes(key.as_bytes().ok_or("rsa_sign: key must be bytes")?)
            .map_err(|e| format!("rsa_sign: {e}"))?;
        let mut values = Vec::new();
        for (i, arg) in args.iter().enumerate().take(args.len() - 1).skip(1) {
            values.push(
                arg.clone()
                    .ok_or_else(|| format!("rsa_sign: argument {i} must be bound"))?,
            );
        }
        let signature = keypair.sign(&serialize_tuple(&values));
        let mut row = vec![key];
        row.extend(values);
        row.push(Value::bytes(signature.0));
        Ok(vec![row])
    });

    // rsa_verify(K, V..., S): filter — succeeds only if S is a valid
    // signature over V... under the public key K.
    workspace.register_udf("rsa_verify", |args| {
        if args.len() < 2 {
            return Err("rsa_verify: expected key, values..., signature".into());
        }
        let key = require_bound(args, 0, "rsa_verify")?;
        let public =
            RsaPublicKey::from_bytes(key.as_bytes().ok_or("rsa_verify: key must be bytes")?)
                .map_err(|e| format!("rsa_verify: {e}"))?;
        let signature = require_bound(args, args.len() - 1, "rsa_verify")?;
        // The answer row is the arguments; the signed values are its middle.
        let mut row = Vec::with_capacity(args.len());
        row.push(key);
        for (i, arg) in args.iter().enumerate().take(args.len() - 1).skip(1) {
            row.push(
                arg.clone()
                    .ok_or_else(|| format!("rsa_verify: argument {i} must be bound"))?,
            );
        }
        let valid = public.verify(
            &serialize_tuple(&row[1..]),
            &RsaSignature(signature.as_bytes().unwrap_or_default().to_vec()),
        );
        if valid {
            row.push(signature);
            Ok(vec![row])
        } else {
            Ok(vec![])
        }
    });

    // hmac_sign(K, V..., S) and hmac_verify(K, V..., S).
    workspace.register_udf("hmac_sign", |args| {
        if args.len() < 2 {
            return Err("hmac_sign: expected key, values..., tag".into());
        }
        let key = require_bound(args, 0, "hmac_sign")?;
        let mut values = Vec::new();
        for (i, arg) in args.iter().enumerate().take(args.len() - 1).skip(1) {
            values.push(
                arg.clone()
                    .ok_or_else(|| format!("hmac_sign: argument {i} must be bound"))?,
            );
        }
        let tag = hmac_sha1(
            key.as_bytes().ok_or("hmac_sign: key must be bytes")?,
            &serialize_tuple(&values),
        );
        let mut row = vec![key];
        row.extend(values);
        row.push(Value::bytes(tag.to_vec()));
        Ok(vec![row])
    });
    workspace.register_udf("hmac_verify", |args| {
        if args.len() < 2 {
            return Err("hmac_verify: expected key, values..., tag".into());
        }
        let key = require_bound(args, 0, "hmac_verify")?;
        let tag = require_bound(args, args.len() - 1, "hmac_verify")?;
        // The answer row is the arguments; the tagged values are its middle.
        let mut row = Vec::with_capacity(args.len());
        row.push(key);
        for (i, arg) in args.iter().enumerate().take(args.len() - 1).skip(1) {
            row.push(
                arg.clone()
                    .ok_or_else(|| format!("hmac_verify: argument {i} must be bound"))?,
            );
        }
        let valid = hmac_sha1_verify(
            row[0].as_bytes().ok_or("hmac_verify: key must be bytes")?,
            &serialize_tuple(&row[1..]),
            tag.as_bytes().unwrap_or_default(),
        );
        if valid {
            row.push(tag);
            Ok(vec![row])
        } else {
            Ok(vec![])
        }
    });

    // aesencrypt(PT, K, CT) and aesdecrypt(CT, K, PT) over byte values.
    workspace.register_udf("aesencrypt", |args| {
        let plaintext = require_bound(args, 0, "aesencrypt")?;
        let key = require_bound(args, 1, "aesencrypt")?;
        let ciphertext = aes128_ctr_encrypt(
            key.as_bytes().ok_or("aesencrypt: key must be bytes")?,
            plaintext
                .as_bytes()
                .ok_or("aesencrypt: plaintext must be bytes")?,
        );
        Ok(vec![vec![plaintext, key, Value::bytes(ciphertext)]])
    });
    workspace.register_udf("aesdecrypt", |args| {
        let ciphertext = require_bound(args, 0, "aesdecrypt")?;
        let key = require_bound(args, 1, "aesdecrypt")?;
        let plaintext = aes128_ctr_decrypt(
            key.as_bytes().ok_or("aesdecrypt: key must be bytes")?,
            ciphertext
                .as_bytes()
                .ok_or("aesdecrypt: ciphertext must be bytes")?,
        )
        .map_err(|e| format!("aesdecrypt: {e}"))?;
        Ok(vec![vec![ciphertext, key, Value::bytes(plaintext)]])
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn workspace_with_udfs() -> Workspace {
        let mut ws = Workspace::new();
        register_crypto_udfs(&mut ws);
        ws
    }

    #[test]
    fn sha1hash_is_deterministic_and_positive() {
        let ws = workspace_with_udfs();
        let ws2 = workspace_with_udfs();
        let source = "bucket(X, H) <- item(X), sha1hash(X, H).\nitem(alpha). item(beta).";
        let mut a = ws;
        a.install_source(source).unwrap();
        a.fixpoint().unwrap();
        let mut b = ws2;
        b.install_source(source).unwrap();
        b.fixpoint().unwrap();
        assert_eq!(a.query("bucket"), b.query("bucket"));
        for tuple in a.query("bucket") {
            assert!(tuple[1].as_int().unwrap() >= 0);
        }
    }

    #[test]
    fn rsa_sign_and_verify_through_rules() {
        let mut rng = StdRng::seed_from_u64(11);
        let keypair = secureblox_crypto::RsaKeyPair::generate(&mut rng, 512).unwrap();
        let mut ws = workspace_with_udfs();
        ws.install_source(
            "signed(M, S) <- msg(M), private_key[] = K, rsa_sign(K, M, S).\n\
             verified(M) <- signed(M, S), public_key(K), rsa_verify(K, M, S).",
        )
        .unwrap();
        ws.set_singleton("private_key", Value::bytes(keypair.to_bytes()))
            .unwrap();
        ws.assert_fact(
            "public_key",
            vec![Value::bytes(keypair.public_key().to_bytes())],
        )
        .unwrap();
        ws.assert_fact("msg", vec![Value::str("attack at dawn")])
            .unwrap();
        ws.fixpoint().unwrap();
        assert_eq!(ws.count("signed"), 1);
        assert_eq!(ws.count("verified"), 1);
        let sig = ws.query("signed")[0][1].clone();
        assert_eq!(
            sig.as_bytes().unwrap().len(),
            keypair.public_key().modulus_bytes()
        );
    }

    /// Key bytes that do not validate fail the rule; they used to parse and
    /// then abort the process inside `verify`.
    #[test]
    fn malformed_rsa_key_is_a_rule_error_not_a_panic() {
        let mut ws = workspace_with_udfs();
        ws.install_source("verified(M) <- signed(M, S), public_key(K), rsa_verify(K, M, S).")
            .unwrap();
        ws.assert_fact(
            "public_key",
            vec![Value::bytes(vec![0, 0, 0, 2, 1, 1, 0, 0, 0, 1, 3])],
        )
        .unwrap();
        ws.assert_fact("signed", vec![Value::str("m"), Value::bytes(vec![0, 5])])
            .unwrap();
        let error = ws.fixpoint().unwrap_err().to_string();
        assert!(error.contains("rsa_verify: invalid key"), "{error}");
    }

    #[test]
    fn hmac_verify_rejects_wrong_secret() {
        let mut ws = workspace_with_udfs();
        ws.install_source(
            "tagged(M, S) <- msg(M), secret_out(K), hmac_sign(K, M, S).\n\
             accepted(M) <- tagged(M, S), secret_in(K), hmac_verify(K, M, S).",
        )
        .unwrap();
        ws.assert_fact("secret_out", vec![Value::bytes(b"key-A".to_vec())])
            .unwrap();
        ws.assert_fact("secret_in", vec![Value::bytes(b"key-B".to_vec())])
            .unwrap();
        ws.assert_fact("msg", vec![Value::str("hello")]).unwrap();
        ws.fixpoint().unwrap();
        assert_eq!(ws.count("tagged"), 1);
        assert_eq!(ws.count("accepted"), 0);
    }

    #[test]
    fn aes_roundtrip_through_rules() {
        let mut ws = workspace_with_udfs();
        ws.install_source(
            "ct(C) <- pt(P), key(K), aesencrypt(P, K, C).\n\
             roundtrip(P2) <- ct(C), key(K), aesdecrypt(C, K, P2).",
        )
        .unwrap();
        ws.assert_fact("key", vec![Value::bytes(vec![7u8; 16])])
            .unwrap();
        ws.assert_fact("pt", vec![Value::bytes(b"plaintext tuple batch".to_vec())])
            .unwrap();
        ws.fixpoint().unwrap();
        assert_eq!(
            ws.query("roundtrip")[0][0],
            Value::bytes(b"plaintext tuple batch".to_vec())
        );
    }

    #[test]
    fn serialize_family_produces_bytes() {
        let mut ws = workspace_with_udfs();
        ws.install_source("wire(B) <- pair(X, Y), serialize(X, Y, B).\npair(a, 2).")
            .unwrap();
        ws.fixpoint().unwrap();
        let bytes = ws.query("wire")[0][0].clone();
        assert!(bytes.as_bytes().unwrap().len() > 4);
    }
}
