//! The only module that names the system under test.  Everything the harness
//! does to the program — build, run, query, retract, checkpoint, recover,
//! inject, read the telemetry registry, call a layer's public functions for a
//! replay probe — goes through here, so the API surface a later change must
//! keep stable is this file and nothing else.
//!
//! Every `DeploymentConfig` field is set explicitly in [`Pinned::config`]:
//! `DeploymentConfig::default()` reads `SECUREBLOX_*` variables, and no number
//! this benchmark reports may depend on the caller's shell.

use secureblox::apps::{hashjoin, pathvector};
use secureblox::policy::{says_policy, SecurityConfig, TrustModel};
use secureblox::runtime::stream::{DEFAULT_BATCH_MAX, DEFAULT_QUEUE_HIGH_WATER};
use secureblox::runtime::{
    shard_hash, DeltaOp, DeploymentConfig, DeploymentReport, ReactorConfig, ShardMap,
    StreamingConfig, UpdateDelta, UpdateEnvelope,
};
use secureblox::{compile_secured_program, AuthScheme, DurabilityConfig, EncScheme, LatencyModel};
use secureblox_crypto::{
    aes128_ctr_decrypt, aes128_ctr_encrypt, hmac_sha1, hmac_sha1_verify, KeyStore,
};
use secureblox_datalog::codec::{deserialize_tuple, serialize_tuple};
use secureblox_datalog::parse_program;
use secureblox_generics::GenericsCompiler;
use secureblox_net::message::HEADER_OVERHEAD_BYTES;
use secureblox_net::{Message, MessageKind, NodeId, SimNetwork};
use secureblox_store::{derive_node_key, FactStore, WalOp};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::{Path, PathBuf};

pub use secureblox::runtime::{Deployment, NodeSpec};
pub use secureblox_datalog::value::{Tuple, Value};

pub fn text(s: &str) -> Value {
    Value::str(s)
}

pub fn int(i: i64) -> Value {
    Value::Int(i)
}

pub fn show(tuple: &[Value]) -> String {
    let cols: Vec<String> = tuple.iter().map(|v| v.to_string()).collect();
    format!("({})", cols.join(", "))
}

pub fn node_spec(principal: &str, base_facts: Vec<(String, Tuple)>) -> NodeSpec {
    NodeSpec {
        principal: principal.to_string(),
        base_facts,
    }
}

pub const BATCH_MAX: usize = DEFAULT_BATCH_MAX;
/// Per-message header bytes the simulator adds to every payload.
pub const WIRE_HEADER: usize = HEADER_OVERHEAD_BYTES;
const QUEUE_HIGH_WATER: usize = DEFAULT_QUEUE_HIGH_WATER;
const MESSAGE_BUDGET: usize = 10_000_000;
const RSA_BITS: usize = 512;
/// `KeyStore::provision` draws key pairs from a pool of this size, as
/// `Deployment::build` does.
const RSA_POOL: usize = 4;

/// The gossip flood of `crates/bench/benches/stream_throughput.rs`: every
/// node tells every other principal its links and everything it has heard.
pub const GOSSIP_APP: &str = r#"
    link(N1, N2) -> node(N1), node(N2).
    remote_link(N1, N2) -> node(N1), node(N2).
    exportable(`remote_link).

    says[`remote_link](self[], U, X, Y) <- link(X, Y), principal(U), U != self[].
    says[`remote_link](self[], U, X, Y) <- remote_link(X, Y), principal(U), U != self[].
"#;

/// The REACH app of `tests/integration_durability.rs`: one-hop link gossip
/// plus a locally derived transitive closure.
pub const REACH_APP: &str = r#"
    link(N1, N2) -> node(N1), node(N2).
    remote_link(N1, N2) -> node(N1), node(N2).
    reach(N1, N2) -> node(N1), node(N2).
    exportable(`remote_link).

    says[`remote_link](self[], U, X, Y) <- link(X, Y), principal(U), U != self[].
    reach(X, Y) <- link(X, Y).
    reach(X, Y) <- remote_link(X, Y).
    reach(X, Z) <- reach(X, Y), reach(Y, Z).
"#;

pub fn pathvector_app() -> String {
    pathvector::app_source()
}

pub fn hashjoin_sharded_app() -> String {
    hashjoin::sharded_app_source()
}

pub fn hashjoin_handrouted_app() -> String {
    hashjoin::app_source()
}

/// Paper §7.1's input: a ring plus seeded random chords, `degree` on average.
pub fn random_graph(nodes: usize, degree: usize, seed: u64) -> Vec<(usize, usize)> {
    pathvector::random_graph(nodes, degree, seed)
}

/// The hand-routed §7.2 placement `hashjoin::build_deployment` uses: rows
/// placed by a hash of their key, plus the `prin_minhash`/`prin_maxhash`
/// range table the app's rehash rules join against.
pub fn handrouted_placement(
    principals: &[String],
    table_a: &[(i64, i64)],
    table_b: &[(i64, i64)],
) -> (Vec<NodeSpec>, Vec<(String, Tuple)>) {
    let n = principals.len() as i64;
    let place = |key: i64| (shard_hash(&Value::Int(key)) % n) as usize;
    let mut specs: Vec<NodeSpec> = principals.iter().map(NodeSpec::new).collect();
    for &(key, join) in table_a {
        specs[place(key)]
            .base_facts
            .push(("tableA".into(), vec![Value::Int(key), Value::Int(join)]));
    }
    for &(key, join) in table_b {
        specs[place(key)]
            .base_facts
            .push(("tableB".into(), vec![Value::Int(key), Value::Int(join)]));
    }
    let slice = i64::MAX / n;
    let mut ranges = Vec::new();
    for (i, principal) in principals.iter().enumerate() {
        let lo = slice * i as i64;
        let hi = if i + 1 == principals.len() {
            i64::MAX
        } else {
            slice * (i as i64 + 1) - 1
        };
        ranges.push((
            "prin_minhash".to_string(),
            vec![Value::str(principal), Value::Int(lo)],
        ));
        ranges.push((
            "prin_maxhash".to_string(),
            vec![Value::str(principal), Value::Int(hi)],
        ));
    }
    (specs, ranges)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scheme {
    NoAuth,
    Hmac,
    RsaAes,
}

impl Scheme {
    pub fn label(self) -> &'static str {
        match self {
            Scheme::NoAuth => "NoAuth",
            Scheme::Hmac => "HMAC",
            Scheme::RsaAes => "RSA-AES",
        }
    }

    fn security(self) -> SecurityConfig {
        let (auth, enc) = match self {
            Scheme::NoAuth => (AuthScheme::NoAuth, EncScheme::None),
            Scheme::Hmac => (AuthScheme::HmacSha1, EncScheme::None),
            Scheme::RsaAes => (AuthScheme::Rsa, EncScheme::Aes128),
        };
        SecurityConfig {
            auth,
            enc,
            rsa_bits: RSA_BITS,
            trust: TrustModel::TrustAll,
            write_access: false,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Executor {
    Reference,
    Reactor { threads: usize },
}

/// One deployment's full configuration: the workload's choices plus the
/// knobs every workload pins.
#[derive(Debug, Clone)]
pub struct Pinned {
    pub scheme: Scheme,
    pub executor: Executor,
    pub durability_dir: Option<PathBuf>,
    pub seed: u64,
    pub recursive_negation: bool,
    pub singletons: Vec<(String, Value)>,
    pub shared_facts: Vec<(String, Tuple)>,
    /// `(relation, partition column)` pairs sharded across all principals.
    pub sharded: Vec<(String, usize)>,
}

impl Pinned {
    pub fn new(scheme: Scheme, seed: u64) -> Self {
        Pinned {
            scheme,
            executor: Executor::Reference,
            durability_dir: None,
            seed,
            recursive_negation: false,
            singletons: Vec::new(),
            shared_facts: Vec::new(),
            sharded: Vec::new(),
        }
    }

    fn config(&self, principals: &[String]) -> DeploymentConfig {
        DeploymentConfig {
            security: self.scheme.security(),
            latency: LatencyModel::default(),
            seed: self.seed,
            allow_recursive_negation: self.recursive_negation,
            strict_typing: true,
            singletons: self.singletons.clone(),
            shared_facts: self.shared_facts.clone(),
            circuits: Vec::new(),
            extra_policies: Vec::new(),
            grant_default_trust: true,
            grant_default_write_access: true,
            durability: self.durability_dir.as_ref().map(DurabilityConfig::new),
            parallelism: 1,
            streaming: StreamingConfig::with_knobs(BATCH_MAX, QUEUE_HIGH_WATER),
            message_budget: MESSAGE_BUDGET,
            reactor: match self.executor {
                Executor::Reference => ReactorConfig::disabled(),
                Executor::Reactor { threads } => ReactorConfig::with_threads(threads),
            },
            sharding: (!self.sharded.is_empty()).then(|| {
                self.sharded
                    .iter()
                    .fold(ShardMap::new(principals.to_vec()), |map, (rel, col)| {
                        map.shard(rel.clone(), *col)
                    })
            }),
        }
    }

    /// The knob set as it goes into every output record, read back from the
    /// configuration the deployments are built with.
    pub fn knobs(&self) -> Vec<(&'static str, String)> {
        let config = self.config(&[]);
        let text = |value: &dyn std::fmt::Debug| format!("{value:?}");
        vec![
            ("scheme", self.scheme.label().to_string()),
            ("rsa_bits", text(&config.security.rsa_bits)),
            ("trust", text(&config.security.trust)),
            ("write_access", text(&config.security.write_access)),
            ("reactor", text(&config.reactor.enabled)),
            ("reactor_threads", text(&config.reactor.threads)),
            ("streaming", text(&config.streaming.enabled)),
            ("batch_max", text(&config.streaming.batch_max)),
            ("queue_high_water", text(&config.streaming.queue_high_water)),
            ("parallelism", text(&config.parallelism)),
            ("durability", text(&config.durability.is_some())),
            (
                "flush_each_batch",
                text(&config.durability.as_ref().map(|d| d.flush_each_batch)),
            ),
            ("message_budget", text(&config.message_budget)),
            ("latency_propagation", text(&config.latency.propagation)),
            (
                "latency_bandwidth_bytes_per_s",
                text(&config.latency.bandwidth_bytes_per_sec),
            ),
            ("strict_typing", text(&config.strict_typing)),
            ("recursive_negation", text(&config.allow_recursive_negation)),
            ("grant_default_trust", text(&config.grant_default_trust)),
            (
                "grant_default_write_access",
                text(&config.grant_default_write_access),
            ),
            ("sharded_relations", text(&self.sharded)),
        ]
    }
}

fn principals_of(specs: &[NodeSpec]) -> Vec<String> {
    specs.iter().map(|s| s.principal.clone()).collect()
}

pub fn build(app: &str, specs: &[NodeSpec], pinned: &Pinned) -> Result<Deployment, String> {
    Deployment::build(app, specs, pinned.config(&principals_of(specs))).map_err(|e| e.to_string())
}

pub fn recover(
    dir: &Path,
    app: &str,
    specs: &[NodeSpec],
    pinned: &Pinned,
) -> Result<Deployment, String> {
    Deployment::recover(dir, app, specs, pinned.config(&principals_of(specs)))
        .map_err(|e| e.to_string())
}

/// The numbers of a `DeploymentReport` the harness reads, flattened so no
/// other module names the report's fields.  Cumulative over every `run()`
/// of the deployment.
#[derive(Debug, Clone, Default)]
pub struct RunReport {
    /// Fig. 4/5: modelled network plus per-node compute on the critical path.
    pub virtual_fixpoint_s: f64,
    /// Fig. 7.
    pub txn_apply_p50_us: f64,
    pub txn_apply_p99_us: f64,
    /// Fig. 6/12.
    pub wire_kb_per_node: f64,
    pub wire_bytes: u64,
    pub busiest_node_bytes: u64,
    pub messages: u64,
    pub rejected_batches: u64,
    pub conflicting_batches: u64,
    pub plans_compiled: u64,
    pub plan_cache_hits: u64,
    pub index_probes: u64,
    pub full_scans: u64,
    pub serial_batches: u64,
    pub parallel_batches: u64,
    pub shard_exchange_bytes: u64,
    pub shard_skew: f64,
}

fn flatten(report: &DeploymentReport) -> RunReport {
    RunReport {
        virtual_fixpoint_s: report.fixpoint_latency.as_secs_f64(),
        txn_apply_p50_us: report.apply_latency_p50.as_secs_f64() * 1e6,
        txn_apply_p99_us: report.apply_latency_p99.as_secs_f64() * 1e6,
        wire_kb_per_node: report.per_node_kb,
        wire_bytes: report.per_node_bytes.iter().map(|&b| b as u64).sum(),
        busiest_node_bytes: report.per_node_bytes.iter().copied().max().unwrap_or(0) as u64,
        messages: report.total_messages as u64,
        rejected_batches: report.rejected_batches as u64,
        conflicting_batches: report.conflicting_batches as u64,
        plans_compiled: report.plan.plans_compiled,
        plan_cache_hits: report.plan.plan_cache_hits,
        index_probes: report.plan.index_probes,
        full_scans: report.plan.full_scans,
        serial_batches: report.plan.serial_batches,
        parallel_batches: report.plan.parallel_batches,
        shard_exchange_bytes: report.shard.as_ref().map_or(0, |s| s.exchange_bytes as u64),
        shard_skew: report.shard.as_ref().map_or(0.0, |s| s.skew),
    }
}

/// Run to distributed quiescence.
pub fn run(deployment: &mut Deployment) -> Result<RunReport, String> {
    deployment
        .run()
        .map(|report| flatten(&report))
        .map_err(|e| e.to_string())
}

pub fn rejected_batches(deployment: &Deployment) -> u64 {
    deployment.report().rejected_batches as u64
}

pub fn query(deployment: &Deployment, principal: &str, pred: &str) -> Vec<Tuple> {
    deployment.query(principal, pred)
}

pub fn exportable(deployment: &Deployment) -> Vec<String> {
    deployment.exportable_predicates().to_vec()
}

/// Sender-side exported tuples of `principal`: the `says$pred` facts it
/// said (the same relation also holds what was said *to* it).
pub fn said_by(deployment: &Deployment, principal: &str, pred: &str) -> Vec<Tuple> {
    deployment
        .query(principal, &format!("says${pred}"))
        .into_iter()
        .filter(|t| t.first().and_then(|v| v.as_str()) == Some(principal))
        .collect()
}

pub fn retract(
    deployment: &mut Deployment,
    principal: &str,
    pred: &str,
    tuple: Tuple,
) -> Result<(), String> {
    deployment
        .retract(principal, vec![(pred.to_string(), tuple)])
        .map_err(|e| e.to_string())
}

pub fn checkpoint(deployment: &mut Deployment) -> Result<usize, String> {
    deployment
        .checkpoint()
        .map(|infos| infos.len())
        .map_err(|e| e.to_string())
}

pub fn edb_roots(deployment: &Deployment) -> Result<Vec<(String, String)>, String> {
    deployment.edb_roots().map_err(|e| e.to_string())
}

/// Bootstrap-transaction wall time summed over nodes.  The first committed
/// transaction at every node is its bootstrap batch, applied at virtual time
/// zero, so its virtual completion time *is* its measured duration — the one
/// piece of `engine_txn_apply_ns` that runs outside `engine_update_apply_ns`.
pub fn bootstrap_txn_s(deployment: &Deployment, principals: &[String]) -> f64 {
    principals
        .iter()
        .filter_map(|p| deployment.completion_times(p).first().copied())
        .map(|d| d.as_secs_f64())
        .sum()
}

pub fn canonical(tuple: &[Value]) -> Vec<u8> {
    serialize_tuple(tuple)
}

// ---------------------------------------------------------------------
// Telemetry registry (existing instrumentation only; nothing is added
// inside the program).
// ---------------------------------------------------------------------

pub fn set_histograms(on: bool) {
    secureblox_telemetry::set_metrics_enabled(on);
}

#[derive(Debug, Clone, Copy, Default)]
pub struct Hist {
    pub count: u64,
    /// In the histogram's own unit: nanoseconds for `*_ns`, else a count.
    pub sum: u64,
    pub p50: u64,
}

pub fn histograms() -> BTreeMap<String, Hist> {
    secureblox_telemetry::histogram_summaries()
        .into_iter()
        .map(|s| {
            (
                s.name,
                Hist {
                    count: s.count,
                    sum: s.sum,
                    p50: s.p50,
                },
            )
        })
        .collect()
}

pub fn counter(name: &str) -> u64 {
    secureblox_telemetry::registry().counter(name).get()
}

pub fn gauge(name: &str) -> i64 {
    secureblox_telemetry::registry().gauge(name).get()
}

// ---------------------------------------------------------------------
// Hostile input.
// ---------------------------------------------------------------------

/// The `nth` one-delta update-stream payload of an attacker, framed as a
/// peer would frame it.  Its sequence number exceeds anything the claimed
/// sender shipped (or the receiver would drop the envelope as a stale
/// duplicate before any policy looked at it) and grows with `nth`.
pub fn forged_envelope(
    nth: u64,
    retract: bool,
    pred: &str,
    tuple: Tuple,
    signature: Vec<u8>,
) -> Vec<u8> {
    UpdateEnvelope {
        seq: u64::MAX / 2 + nth,
        deltas: vec![UpdateDelta {
            op: if retract {
                DeltaOp::Retract
            } else {
                DeltaOp::Assert
            },
            pred: pred.to_string(),
            tuple,
            signature,
        }],
    }
    .encode()
}

pub fn inject(deployment: &mut Deployment, from: usize, to: usize, payload: Vec<u8>) {
    deployment.inject_message(from, to, payload);
}

// ---------------------------------------------------------------------
// Replay probes: a layer's public functions fed the run's own inventory.
// Each returns seconds of wall time; the caller wraps it in a span.
// ---------------------------------------------------------------------

/// Parse, generics-compile and policy-compile one node's program.
pub struct CompileProbe {
    pub parse_s: f64,
    pub generics_s: f64,
    pub policy_compile_s: f64,
    pub rules_out: usize,
}

pub fn compile_probe(app: &str, scheme: Scheme) -> Result<CompileProbe, String> {
    let security = scheme.security();
    let source = format!("{app}\n{}", says_policy(&security));
    let started = std::time::Instant::now();
    let program = parse_program(&source).map_err(|e| e.to_string())?;
    let parse_s = started.elapsed().as_secs_f64();
    let started = std::time::Instant::now();
    let compiled = GenericsCompiler::new()
        .compile(&program)
        .map_err(|e| e.to_string())?;
    let generics_s = started.elapsed().as_secs_f64();
    let rules_out = compiled.program.rules().count();
    let started = std::time::Instant::now();
    black_box(compile_secured_program(app, &security, &[]).map_err(|e| e.to_string())?);
    let policy_compile_s = started.elapsed().as_secs_f64();
    Ok(CompileProbe {
        parse_s,
        generics_s,
        policy_compile_s,
        rules_out,
    })
}

pub struct CryptoReplay {
    pub sign_s: f64,
    pub verify_s: f64,
    pub cipher_s: f64,
    pub ops: u64,
}

/// Sign and verify every exported tuple once, and (under AES) encrypt and
/// decrypt every envelope once, with the workload's scheme and key sizes.
pub fn replay_crypto(
    scheme: Scheme,
    seed: u64,
    exported: &[Tuple],
    envelopes: &[Vec<u8>],
) -> Result<CryptoReplay, String> {
    let mut replay = CryptoReplay {
        sign_s: 0.0,
        verify_s: 0.0,
        cipher_s: 0.0,
        ops: 0,
    };
    if scheme == Scheme::NoAuth {
        return Ok(replay);
    }
    // The signature covers the payload columns after the two principals.
    let payloads: Vec<Vec<u8>> = exported
        .iter()
        .map(|t| serialize_tuple(t.get(2..).unwrap_or_default()))
        .collect();
    let pair = ["replay-a".to_string(), "replay-b".to_string()];
    let keys = match scheme {
        Scheme::RsaAes => KeyStore::provision(&pair, RSA_BITS, RSA_POOL, seed),
        _ => KeyStore::provision_secrets_only(&pair, seed),
    }
    .map_err(|e| e.to_string())?;
    let secret = keys
        .shared_secret(&pair[0], &pair[1])
        .map_err(|e| e.to_string())?
        .to_vec();
    match scheme {
        Scheme::Hmac => {
            let started = std::time::Instant::now();
            let tags: Vec<_> = payloads.iter().map(|p| hmac_sha1(&secret, p)).collect();
            replay.sign_s = started.elapsed().as_secs_f64();
            let started = std::time::Instant::now();
            let valid = payloads
                .iter()
                .zip(&tags)
                .filter(|(p, tag)| hmac_sha1_verify(&secret, p, &tag[..]))
                .count();
            replay.verify_s = started.elapsed().as_secs_f64();
            if valid != payloads.len() {
                return Err("crypto replay: an HMAC tag failed to verify".into());
            }
        }
        _ => {
            let keypair = keys.keypair(&pair[0]).map_err(|e| e.to_string())?;
            let started = std::time::Instant::now();
            let signatures: Vec<_> = payloads.iter().map(|p| keypair.sign(p)).collect();
            replay.sign_s = started.elapsed().as_secs_f64();
            let public = keypair.public_key();
            let started = std::time::Instant::now();
            let valid = payloads
                .iter()
                .zip(&signatures)
                .filter(|(p, s)| public.verify(p, s))
                .count();
            replay.verify_s = started.elapsed().as_secs_f64();
            if valid != payloads.len() {
                return Err("crypto replay: an RSA signature failed to verify".into());
            }
        }
    }
    replay.ops = 2 * payloads.len() as u64;
    if scheme == Scheme::RsaAes {
        let started = std::time::Instant::now();
        for envelope in envelopes {
            let sealed = aes128_ctr_encrypt(&secret, envelope);
            let opened = aes128_ctr_decrypt(&secret, &sealed).map_err(|e| e.to_string())?;
            black_box(opened);
        }
        replay.cipher_s = started.elapsed().as_secs_f64();
        replay.ops += 2 * envelopes.len() as u64;
    }
    Ok(replay)
}

/// `serialize_tuple` + `deserialize_tuple` over every exported tuple.
pub fn replay_tuple_codec(exported: &[Tuple]) -> Result<f64, String> {
    let started = std::time::Instant::now();
    for tuple in exported {
        let bytes = serialize_tuple(tuple);
        let mut pos = 0;
        black_box(deserialize_tuple(&bytes, &mut pos)?);
    }
    Ok(started.elapsed().as_secs_f64())
}

/// Frame the exported tuples as the streaming scheduler would: assert deltas
/// in envelopes of `BATCH_MAX`, each carrying a signature of the scheme's
/// size.
pub fn frame_envelopes(pred: &str, exported: &[Tuple], signature_len: usize) -> Vec<Vec<u8>> {
    exported
        .chunks(BATCH_MAX)
        .enumerate()
        .map(|(i, chunk)| {
            UpdateEnvelope {
                seq: i as u64 + 1,
                deltas: chunk
                    .iter()
                    .map(|tuple| UpdateDelta {
                        op: DeltaOp::Assert,
                        pred: pred.to_string(),
                        tuple: tuple.clone(),
                        signature: vec![0xA5; signature_len],
                    })
                    .collect(),
            }
            .encode()
        })
        .collect()
}

pub fn signature_len(scheme: Scheme) -> usize {
    scheme.security().auth.signature_overhead(RSA_BITS / 8)
}

/// `UpdateEnvelope::decode` + `encode` over the framed inventory.
pub fn replay_envelope_codec(envelopes: &[Vec<u8>]) -> Result<f64, String> {
    let started = std::time::Instant::now();
    for bytes in envelopes {
        let envelope = UpdateEnvelope::decode(bytes)?;
        black_box(envelope.encode());
    }
    Ok(started.elapsed().as_secs_f64())
}

/// The run's message count at its mean size through a bare `SimNetwork`:
/// what the simulator itself costs with no engine attached.
pub fn replay_sim_network(nodes: usize, messages: usize, mean_payload: usize) -> f64 {
    let mut network = SimNetwork::new(nodes, LatencyModel::default());
    let payload = vec![0u8; mean_payload];
    let started = std::time::Instant::now();
    for i in 0..messages {
        let from = i % nodes;
        let to = (from + 1 + (i / nodes) % (nodes - 1)) % nodes;
        network.send_fifo(
            Message::new(
                NodeId(from as u32),
                NodeId(to as u32),
                MessageKind::Update,
                payload.clone(),
            ),
            i as u64,
        );
    }
    while let Some(delivery) = network.next_delivery() {
        black_box(delivery);
    }
    started.elapsed().as_secs_f64()
}

/// What `FactStore::open` found in one node's directory.
pub struct StoreProbe {
    pub base_facts: usize,
    /// The inserts recovery would replay, in their original commit groups
    /// (the snapshot as one group, then WAL records sharing a watermark).
    pub insert_groups: Vec<Vec<(String, Tuple)>>,
}

/// Open (and thereby fully verify) one node's store, alone.
pub fn open_store(dir: &Path, seed: u64, principal: &str) -> Result<StoreProbe, String> {
    let key = derive_node_key(seed, principal);
    let store = FactStore::open(dir.join(principal), &key).map_err(|e| e.to_string())?;
    let mut insert_groups: Vec<Vec<(String, Tuple)>> = Vec::new();
    if !store.recovered_snapshot_facts().is_empty() {
        insert_groups.push(store.recovered_snapshot_facts().to_vec());
    }
    let mut group_mark = None;
    for record in store.recovered_suffix() {
        if record.op != WalOp::Insert {
            group_mark = None;
            continue;
        }
        if group_mark != Some(record.watermark) {
            insert_groups.push(Vec::new());
            group_mark = Some(record.watermark);
        }
        if let Some(group) = insert_groups.last_mut() {
            group.push((record.pred.clone(), record.tuple.clone()));
        }
    }
    Ok(StoreProbe {
        base_facts: store.base_fact_count(),
        insert_groups,
    })
}

/// Append the recovered insert groups to a fresh store under `dir`, one
/// `log_inserts` call (and flush) per original commit group.
pub fn replay_wal_append(dir: &Path, groups: &[Vec<(String, Tuple)>]) -> Result<f64, String> {
    let mut store = FactStore::open(dir, b"replay-key").map_err(|e| e.to_string())?;
    let started = std::time::Instant::now();
    for (i, group) in groups.iter().enumerate() {
        store
            .log_inserts(group.iter().map(|(p, t)| (p.as_str(), t)), i as u64 + 1)
            .map_err(|e| e.to_string())?;
    }
    store.flush().map_err(|e| e.to_string())?;
    Ok(started.elapsed().as_secs_f64())
}
