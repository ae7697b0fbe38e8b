//! Ablation A: micro-costs of the cryptographic primitives underlying the
//! authentication schemes (explains the orderings of Figures 4–7).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use rand::rngs::StdRng;
use rand::SeedableRng;
use secureblox_crypto::bignum::MontgomeryCtx;
use secureblox_crypto::{aes128_ctr_encrypt, hmac_sha1, sha1, BigUint, RsaKeyPair};

fn bench(c: &mut Criterion) {
    let payload = vec![0xabu8; 1024];
    let mut rng = StdRng::seed_from_u64(1);
    let keypair = RsaKeyPair::generate(&mut rng, 512).unwrap();
    let signature = keypair.sign(&payload);
    let keypair_1024 = RsaKeyPair::generate(&mut rng, 1024).unwrap();
    let signature_1024 = keypair_1024.sign(&payload);
    let keypair_bytes = keypair.to_bytes();
    let modulus = BigUint::random_prime(&mut rng, 512, 4);
    // One CRT half of a 512-bit signature: a 511-bit encoded digest raised
    // to a 256-bit exponent modulo a 256-bit prime.
    let prime_256 = BigUint::random_prime(&mut rng, 256, 4);
    let prime_ctx = MontgomeryCtx::new(&prime_256).unwrap();
    let (digest_511, exponent_256) = (
        BigUint::random_bits(&mut rng, 511),
        BigUint::random_bits(&mut rng, 256),
    );
    // What one HMAC tag or RSA digest of a shipped delta hashes.
    let message_64 = vec![0xabu8; 64];

    let mut group = c.benchmark_group("crypto_micro");
    group.throughput(Throughput::Bytes(payload.len() as u64));
    group.bench_function("sha1_1k", |b| b.iter(|| sha1(&payload)));
    group.bench_function("hmac_sha1_1k", |b| {
        b.iter(|| hmac_sha1(b"secret", &payload))
    });
    group.throughput(Throughput::Bytes(message_64.len() as u64));
    group.bench_function("sha1_64", |b| b.iter(|| sha1(&message_64)));
    group.bench_function("hmac_sha1_64", |b| {
        b.iter(|| hmac_sha1(b"secret", &message_64))
    });
    group.throughput(Throughput::Bytes(payload.len() as u64));
    group.bench_function("aes128_ctr_1k", |b| {
        b.iter(|| aes128_ctr_encrypt(b"secret", &payload))
    });
    group.sample_size(20);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    group.bench_function("rsa_sign_512", |b| b.iter(|| keypair.sign(&payload)));
    group.bench_function("rsa_verify_512", |b| {
        b.iter(|| assert!(keypair.public_key().verify(&payload, &signature)))
    });
    group.bench_function("rsa_sign_1024", |b| b.iter(|| keypair_1024.sign(&payload)));
    group.bench_function("rsa_verify_1024", |b| {
        b.iter(|| assert!(keypair_1024.public_key().verify(&payload, &signature_1024)))
    });
    // What the `rsa_sign` UDF pays per call before it can sign: parse and
    // validate the key pair and build its three contexts.
    group.bench_function("rsa_keypair_from_bytes_512", |b| {
        b.iter(|| RsaKeyPair::from_bytes(&keypair_bytes).unwrap())
    });
    group.bench_function("mont_pow_256", |b| {
        b.iter(|| prime_ctx.pow(&digest_511, &exponent_256))
    });
    group.bench_function("mont_ctx_new_512", |b| {
        b.iter(|| MontgomeryCtx::new(&modulus).unwrap())
    });
    group.bench_function("rsa_keygen_512", |b| {
        let mut seed = 0;
        b.iter(|| {
            seed += 1;
            RsaKeyPair::generate(&mut StdRng::seed_from_u64(seed), 512).unwrap()
        })
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
