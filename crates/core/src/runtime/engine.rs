//! The distributed query processor: simulated nodes, each running a
//! transactional DatalogLB workspace, exchanging authenticated (and
//! optionally encrypted) batches of `says` tuples over a discrete-event
//! network.
//!
//! Execution model (paper §5):
//!
//! * every node installs the same compiled program (queries + policies),
//! * a batch of incoming facts is processed in a local ACID transaction —
//!   insert, fixpoint, constraint check, commit or roll back,
//! * all inter-node state flow rides one **authenticated update stream**: an
//!   exported batch is an ordered sequence of signed `Assert`/`Retract`
//!   deltas ([`UpdateEnvelope`](crate::runtime::codec::UpdateEnvelope)),
//!   shipped FIFO per link.  `Assert` deltas carry newly derived `says$T`
//!   tuples (serialized, signed per the generated `sig$T` rules, optionally
//!   AES-encrypted); the receiver inserts the `says$T` and `sig$T` facts and
//!   its own constraints decide whether to accept them.  `Retract` deltas withdraw previously shipped tuples under
//!   the same detached signature; the receiver verifies it, maintains
//!   everything derived from the fact, logs the retraction to its WAL, and
//!   propagates any cascaded withdrawals onward through its own streams,
//! * anonymity-circuit traffic (`anon_says$T`) wraps the same delta envelope
//!   in onion layers and is relayed hop by hop.
//!
//! Virtual time: each node's transaction advances its own clock by the
//! *measured* wall-clock compute time, and the network adds latency per
//! message, so the latency / convergence figures reflect N nodes running in
//! parallel even though the simulation executes them in one process.

use crate::policy::{compile_secured_program, SecurityConfig};
use crate::runtime::env;
use crate::runtime::export::{ExportCandidates, ExportKey, Shipped};
use crate::runtime::node::{CommitOp, Link, NodeCtx, Verdict};
use crate::runtime::reactor::ReactorConfig;
use crate::runtime::replication::ReplicaState;
use crate::runtime::shard::{self, ShardMap, ShardReport};
use crate::runtime::stream::{LinkOutbox, StreamingConfig};
use crate::runtime::udfs::register_crypto_udfs;
use secureblox_crypto::KeyStore;
use secureblox_datalog::error::{DatalogError, Result};
use secureblox_datalog::eval::shuffle::ExchangeSummary;
use secureblox_datalog::value::{Tuple, Value};
use secureblox_datalog::{FnvMap, PlanStats, Workspace};
use secureblox_net::stats::{self, NodeLedger};
use secureblox_net::{
    LatencyModel, Message, MessageKind, NodeId, NodeInfo, SimNetwork, VirtualTime,
};
use secureblox_store::{derive_node_key, DurabilityConfig, FactStore};
use secureblox_telemetry::HistogramSummary;
use std::collections::{BTreeMap, HashMap};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Specification of one simulated node.
#[derive(Debug, Clone)]
pub struct NodeSpec {
    /// The principal hosted at this node (also used as its node name).
    pub principal: String,
    /// Facts delivered to the node at virtual time zero.
    pub base_facts: Vec<(String, Tuple)>,
}

impl NodeSpec {
    /// A node with no initial facts.
    pub fn new(principal: impl Into<String>) -> Self {
        NodeSpec {
            principal: principal.into(),
            base_facts: Vec::new(),
        }
    }
}

/// An anonymity circuit to pre-establish at deployment time.
#[derive(Debug, Clone)]
pub struct CircuitSpec {
    pub initiator: String,
    pub relays: Vec<String>,
    pub endpoint: String,
}

/// Deployment-wide configuration.
#[derive(Debug, Clone)]
pub struct DeploymentConfig {
    pub security: SecurityConfig,
    pub latency: LatencyModel,
    /// Seed for key provisioning (experiments vary it per trial).
    pub seed: u64,
    /// Permit recursive negation (needed by the path-vector protocol's
    /// "do not advertise to a node already on the path" guard).
    pub allow_recursive_negation: bool,
    /// Disable static type checking for programs with intentionally partial
    /// schemas.
    pub strict_typing: bool,
    /// Singletons set identically on every node (e.g. `initiator[]`).
    pub singletons: Vec<(String, Value)>,
    /// Additional facts asserted on every node (e.g. `node(X)` universe).
    pub shared_facts: Vec<(String, Tuple)>,
    /// Anonymity circuits to establish.
    pub circuits: Vec<CircuitSpec>,
    /// Extra policy sources appended to the generated `says` policy.
    pub extra_policies: Vec<String>,
    /// When true (the default), every node's `trustworthy` relation is
    /// pre-populated with every principal.  Set to false to provision trust
    /// explicitly through [`NodeSpec::base_facts`] or
    /// [`DeploymentConfig::shared_facts`] — required to exercise the
    /// `Trustworthy` / `PerPredicate` delegation models of paper §6.1.
    pub grant_default_trust: bool,
    /// When true (the default) and the policy enables `write_access`, every
    /// principal is granted `writeAccess[T]` for every exportable predicate.
    /// Set to false to grant write access explicitly per node.
    pub grant_default_write_access: bool,
    /// When set, every node persists its dynamic base facts to an HMAC-chained
    /// WAL under `durability.dir/<principal>`, enabling
    /// [`Deployment::checkpoint`] and [`Deployment::recover`].
    pub durability: Option<DurabilityConfig>,
    /// Always 1: a node evaluates on one thread (DESIGN.md §8), and
    /// [`Deployment::build`] / [`Deployment::recover`] refuse anything larger
    /// with [`DatalogError::Config`].  Kept only because
    /// `examples/benchmark/sut.rs` sets it; goes at the next benchmark
    /// re-base (ROADMAP item 3).
    pub parallelism: usize,
    /// Streaming-scheduler knobs: per-link delta batching, annihilation, and
    /// credit-based backpressure.  The default honours `SECUREBLOX_BATCH_MAX`
    /// and `SECUREBLOX_QUEUE_HIGH_WATER`.
    pub streaming: StreamingConfig,
    /// Maximum data-plane deliveries one [`Deployment::run`] will process
    /// before declaring the protocol non-convergent.  Defaults to ten
    /// million.
    pub message_budget: usize,
    /// Event-driven reactor executor: nodes run as wall-clock-parallel worker
    /// tasks woken by message arrival instead of turns in the virtual-time
    /// loop.  The default honours `SECUREBLOX_REACTOR` and
    /// `SECUREBLOX_REACTOR_THREADS`.
    pub reactor: ReactorConfig,
    /// Horizontal EDB sharding: when set (and active), base facts of the
    /// mapped relations are routed to their consistent-hash ring owner at
    /// build/ingest time, and cross-partition rule evaluation goes through
    /// planner-generated exchange dataflows over the signed update stream
    /// (see `runtime::shard`).
    pub sharding: Option<ShardMap>,
}

impl Default for DeploymentConfig {
    /// The one place the runtime reads its environment (DESIGN.md §9.6).
    fn default() -> Self {
        let env = env::read(|name| std::env::var_os(name));
        DeploymentConfig {
            security: SecurityConfig::default(),
            latency: LatencyModel::default(),
            seed: 1,
            allow_recursive_negation: false,
            strict_typing: true,
            singletons: Vec::new(),
            shared_facts: Vec::new(),
            circuits: Vec::new(),
            extra_policies: Vec::new(),
            grant_default_trust: true,
            grant_default_write_access: true,
            durability: env.durability_dir.map(fresh_durability),
            parallelism: 1,
            streaming: env.streaming,
            message_budget: 10_000_000,
            reactor: env.reactor,
            sharding: None,
        }
    }
}

/// Whether a message kind spends the non-convergence budget.  Control
/// traffic (credit grants) is caused by — and bounded by — data-plane
/// deliveries, so only the latter count.
pub(crate) fn is_data_plane(kind: MessageKind) -> bool {
    matches!(
        kind,
        MessageKind::Update | MessageKind::AnonForward | MessageKind::AnonBackward
    )
}

/// Durability default from the environment: when `SECUREBLOX_DURABILITY_DIR`
/// names `base`, every default-configured deployment persists its nodes
/// under a fresh subdirectory of it.  This lets the CI matrix run the whole
/// integration suite with durability on without code changes.  Each call
/// yields a distinct directory (process id plus a counter) because a fresh
/// build refuses a directory with state.
fn fresh_durability(base: PathBuf) -> DurabilityConfig {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let unique = COUNTER.fetch_add(1, Ordering::Relaxed);
    DurabilityConfig::new(base.join(format!("deploy-{}-{unique}", std::process::id())))
}

/// Summary of one deployment run — the quantities the paper's figures plot.
#[derive(Debug, Clone)]
pub struct DeploymentReport {
    /// Figure label, e.g. `RSA-AES`.
    pub label: String,
    pub num_nodes: usize,
    /// Virtual time until no node had any further work (Figures 4/5).
    pub fixpoint_latency: Duration,
    /// Average committed-transaction duration (Figure 7).
    pub average_transaction: Duration,
    /// Average per-node communication overhead in KB (Figures 6/12).
    pub per_node_kb: f64,
    pub total_transactions: usize,
    /// Batches refused by a security constraint (unknown principal, invalid
    /// signature, missing write access, forbidden delegation, undecryptable
    /// payload).
    pub rejected_batches: usize,
    /// Batches rolled back by a functional-dependency conflict — duplicate
    /// data rather than a security decision.  The path-vector protocol
    /// produces these when the same path entity is advertised to a node along
    /// two different branches (see `apps::pathvector`).
    pub conflicting_batches: usize,
    /// Retraction deltas verified and applied across all nodes (distributed
    /// retraction through the update stream).
    pub retractions_applied: usize,
    /// Per-node convergence times (Figures 8/9).
    pub convergence_times: Vec<Duration>,
    /// Per-node sent bytes.
    pub per_node_bytes: Vec<usize>,
    pub total_messages: usize,
    /// Planner, index and rule-execution counters summed over every node's
    /// workspace (plan cache hits, index probes, full scans, …).
    pub plan: PlanStats,
    /// Export candidates the nodes' flushes examined: what their commits
    /// added or removed, never the relations (DESIGN.md §9.3's O(delta)).
    pub export_candidates: usize,
    /// Median committed-transaction (apply) latency across all nodes — the
    /// p50 figure of the streaming-throughput benchmark.
    pub apply_latency_p50: Duration,
    /// 99th-percentile committed-transaction (apply) latency.
    pub apply_latency_p99: Duration,
    /// Named latency-histogram summaries (p50/p90/p99/max, nanoseconds) from
    /// the process-wide telemetry registry at report time: fixpoint latency
    /// (`datalog_fixpoint_ns`), WAL appends (`store_wal_append_ns`),
    /// update-stream applies (`engine_update_apply_ns`), and every other
    /// histogram the run touched.  Registry-wide and monotone across runs in
    /// one process, unlike the per-run fields above.
    pub telemetry: Vec<HistogramSummary>,
    /// Shard-plane view — partition population, exchange traffic, planner
    /// classification, skew — when the deployment runs with an active
    /// [`DeploymentConfig::sharding`] map.
    pub shard: Option<ShardReport>,
}

impl DeploymentReport {
    /// Cumulative fraction of nodes converged at `samples` evenly spaced
    /// points in time (the series of Figures 8 and 9).
    pub fn convergence_cdf(&self, samples: usize) -> Vec<(Duration, f64)> {
        let end = self
            .convergence_times
            .iter()
            .copied()
            .max()
            .unwrap_or(Duration::ZERO)
            .max(Duration::from_nanos(1));
        let n = self.convergence_times.len().max(1);
        (0..=samples)
            .map(|i| {
                let t = end.mul_f64(i as f64 / samples.max(1) as f64);
                let converged = self.convergence_times.iter().filter(|&&c| c <= t).count();
                (t, converged as f64 / n as f64)
            })
            .collect()
    }
}

/// A pre-established anonymity circuit.
#[derive(Debug, Clone)]
pub(crate) struct Circuit {
    pub(crate) id: u64,
    pub(crate) initiator: usize,
    /// Relay node indices in forward order.
    pub(crate) relays: Vec<usize>,
    pub(crate) endpoint: usize,
    /// Per-hop symmetric keys: one per relay, then the endpoint's key.
    pub(crate) keys: Vec<Vec<u8>>,
}

/// State of one simulated node.
pub(crate) struct NodeState {
    pub(crate) info: NodeInfo,
    pub(crate) workspace: Workspace,
    /// The export cursor: outgoing `says`/`anon` tuples already shipped, in
    /// id space — keyed by exported predicate and id row ([`ExportKey`]),
    /// mapped to the dictionary id of the detached signature they shipped
    /// with and the position of their queued `Assert`.  Only ever probed by
    /// key: membership deduplicates asserts, and a removed candidate found
    /// here is withdrawn through the same channel as a `Retract` delta
    /// carrying the recorded signature — its entry goes, so a re-derivation
    /// re-asserts it.
    pub(crate) sent: FnvMap<ExportKey, Shipped>,
    /// Exportable tuples this node's commits added or removed since its last
    /// flush — the only thing [`NodeCtx::flush_updates`] reads.  Every
    /// runtime commit (transaction, retraction, recovery replay) feeds its
    /// journal delta in; nothing rescans the workspace to find exports.
    pub(crate) export_pending: ExportCandidates,
    pub(crate) available_at: VirtualTime,
    pub(crate) pending_bootstrap: Vec<(String, Tuple)>,
    /// The node's durable fact store, when durability is configured.
    pub(crate) store: Option<FactStore>,
    /// Highest update-stream sequence number seen per sending node, used to
    /// drop stale duplicates (at-most-once application per delta).
    pub(crate) last_update_seq_in: FnvMap<u32, u64>,
    /// What this node measured about itself: commits, verdicts, traffic.
    /// Written only through this node's [`NodeCtx`]; every figure of the
    /// [`DeploymentReport`] is a fold over the nodes' ledgers.
    pub(crate) ledger: NodeLedger,
    /// This node's per-destination sender state: coalescing, credit, the
    /// envelope sequence counter and the link's FIFO floor, all in one
    /// [`LinkOutbox`].  A `BTreeMap` so the quiescence force-flush
    /// walks links in a deterministic order (the reference executor's
    /// bit-for-bit reproducibility depends on it).  Sender-owned: a credit
    /// grant is *addressed to* the data sender, so delivering it only ever
    /// touches the receiving node's own state.
    pub(crate) outboxes: BTreeMap<usize, LinkOutbox>,
}

/// Immutable cross-node state shared by every node task: the principal
/// universe, provisioned key material, and pre-established circuits.  Nothing
/// here is written after [`Deployment::build`], so reactor workers share it
/// by plain reference.
pub(crate) struct EngineShared {
    /// Principal name per node index — lets delivery paths name a *peer*
    /// without touching that peer's (possibly locked) node state.
    pub(crate) principals: Vec<String>,
    pub(crate) principal_index: FnvMap<String, usize>,
    pub(crate) keystore: KeyStore,
    pub(crate) circuits: Vec<Circuit>,
}

/// A complete simulated SecureBlox deployment.
pub struct Deployment {
    pub(crate) nodes: Vec<NodeState>,
    pub(crate) network: SimNetwork,
    pub(crate) config: DeploymentConfig,
    pub(crate) shared: EngineShared,
    exportable: Vec<String>,
    /// Registered read replicas with per-node WAL cursors (see
    /// `runtime::replication`).
    pub(crate) replicas: Vec<ReplicaState>,
    /// Exchange-planner classification counts from the post-compile rewrite,
    /// surfaced through [`DeploymentReport::shard`].
    pub(crate) shard_summary: Option<ExchangeSummary>,
}

impl Deployment {
    /// Build a deployment: provision keys, generate and compile the policies
    /// together with `app_source`, and install the result on every node.
    pub fn build(app_source: &str, specs: &[NodeSpec], config: DeploymentConfig) -> Result<Self> {
        // Sharding pre-pass: validate the map against the app, generate the
        // exchange declarations and routing rules (compiled with the app so
        // the `says` policy covers them), and route every sharded base fact
        // — spec-placed or shared — to its ring owner.  Everything here is a
        // deterministic function of (app_source, specs, config), which
        // durable recovery's rebuild-then-replay depends on.
        if config.parallelism > 1 {
            return Err(DatalogError::Config(format!(
                "DeploymentConfig::parallelism = {}: a node evaluates on one thread; scale by \
                 adding nodes (and ReactorConfig threads)",
                config.parallelism
            )));
        }
        if !config.streaming.enabled {
            return Err(DatalogError::Config(
                "StreamingConfig::enabled = false: the link outbox is the only delivery path; \
                 StreamingConfig::unbatched() ships one delta per envelope"
                    .into(),
            ));
        }
        let mut config = config;
        let mut effective_source = app_source.to_string();
        let mut routed_specs: Option<Vec<NodeSpec>> = None;
        let shard_artifacts = match config.sharding.clone().filter(|m| m.is_active()) {
            Some(map) => {
                let mut initial: Vec<(String, Tuple)> = specs
                    .iter()
                    .flat_map(|spec| spec.base_facts.iter().cloned())
                    .collect();
                initial.extend(config.shared_facts.iter().cloned());
                let artifacts = shard::analyze(app_source, &map, &initial, config.strict_typing)?;
                effective_source.push_str(&artifacts.generated_source);
                let mut routed = shard::route_specs(specs, &map)?;
                let ring = map.ring();
                let spec_index: HashMap<&str, usize> = specs
                    .iter()
                    .enumerate()
                    .map(|(i, spec)| (spec.principal.as_str(), i))
                    .collect();
                let mut replicated = Vec::new();
                for (pred, tuple) in config.shared_facts.drain(..) {
                    match shard::fact_owner(&map, &ring, &pred, &tuple)? {
                        Some(owner) => {
                            let &dest = spec_index.get(owner).ok_or_else(|| {
                                DatalogError::Eval(format!(
                                    "shard owner {owner} is not a deployment node"
                                ))
                            })?;
                            routed[dest].base_facts.push((pred, tuple));
                        }
                        None => replicated.push((pred, tuple)),
                    }
                }
                // Every node carries the ring's Datalog mirror.
                replicated.extend(map.exchange_facts());
                config.shared_facts = replicated;
                routed_specs = Some(routed);
                Some(artifacts)
            }
            None => None,
        };
        let specs: &[NodeSpec] = routed_specs.as_deref().unwrap_or(specs);
        let app_source: &str = &effective_source;

        let principals: Vec<String> = specs.iter().map(|s| s.principal.clone()).collect();
        let needs_secrets = config.security.needs_secrets() || !config.circuits.is_empty();
        let keystore = if config.security.needs_rsa() {
            KeyStore::provision(&principals, config.security.rsa_bits, 4, config.seed)
        } else if needs_secrets {
            KeyStore::provision_secrets_only(&principals, config.seed)
        } else {
            Ok(KeyStore::empty())
        }
        .map_err(|e| DatalogError::Eval(format!("key provisioning failed: {e}")))?;

        let mut compiled =
            compile_secured_program(app_source, &config.security, &config.extra_policies)?;
        // Post-compile: re-plan over the compiled rules (the same pure
        // classification as the pre-pass) and swap each shuffled/broadcast
        // sharded body atom for its exchanged copy.
        let shard_summary = match &shard_artifacts {
            Some(artifacts) => {
                Some(shard::rewrite_program(&mut compiled.program, artifacts)?.summary)
            }
            None => None,
        };
        let exportable: Vec<String> = compiled
            .mappings
            .iter()
            .filter(|((generic, _), _)| generic == "says")
            .map(|((_, param), _)| param.clone())
            .collect();

        let principal_index: FnvMap<String, usize> = principals
            .iter()
            .enumerate()
            .map(|(i, p)| (p.clone(), i))
            .collect();

        let mut nodes = Vec::with_capacity(specs.len());
        for (index, spec) in specs.iter().enumerate() {
            let mut workspace = Workspace::new();
            workspace.set_strict_typing(config.strict_typing);
            workspace.set_allow_recursive_negation(config.allow_recursive_negation);
            workspace.set_entity_namespace(index as u64 + 1);
            register_crypto_udfs(&mut workspace);
            workspace.install_program(&compiled.program)?;
            workspace.set_singleton("self", Value::str(&spec.principal))?;
            for (pred, value) in &config.singletons {
                workspace.set_singleton(pred, value.clone())?;
            }
            // Every node knows the universe of principals / nodes and the
            // principal → node mapping (1:1 in the simulation).
            for principal in &principals {
                workspace.assert_fact("principal", vec![Value::str(principal)])?;
                workspace.assert_fact("node", vec![Value::str(principal)])?;
                workspace.assert_fact(
                    "principal_node",
                    vec![Value::str(principal), Value::str(principal)],
                )?;
                if config.grant_default_trust {
                    workspace.assert_fact("trustworthy", vec![Value::str(principal)])?;
                }
            }
            for (pred, tuple) in &config.shared_facts {
                workspace.assert_fact(pred, tuple.clone())?;
            }
            // Key material relations referenced by the generated policies.
            if config.security.needs_rsa() {
                let own = keystore
                    .keypair(&spec.principal)
                    .map_err(|e| DatalogError::Eval(e.to_string()))?;
                workspace.set_singleton("private_key", Value::bytes(own.to_bytes()))?;
                for principal in &principals {
                    let public = keystore
                        .public_key(principal)
                        .map_err(|e| DatalogError::Eval(e.to_string()))?;
                    workspace.assert_fact(
                        "public_key",
                        vec![Value::str(principal), Value::bytes(public.to_bytes())],
                    )?;
                }
            }
            if needs_secrets {
                for principal in &principals {
                    let secret = if principal == &spec.principal {
                        // A principal's "secret with itself" only matters for
                        // locally-routed says tuples; derive it from the seed.
                        secureblox_crypto::hmac_sha1(
                            spec.principal.as_bytes(),
                            &config.seed.to_be_bytes(),
                        )
                        .to_vec()
                    } else {
                        keystore
                            .shared_secret(&spec.principal, principal)
                            .map_err(|e| DatalogError::Eval(e.to_string()))?
                            .to_vec()
                    };
                    workspace
                        .assert_fact("secret", vec![Value::str(principal), Value::bytes(secret)])?;
                }
            }
            if config.security.write_access && config.grant_default_write_access {
                for exported in &exportable {
                    for principal in &principals {
                        workspace.assert_fact(
                            &format!("writeAccess${exported}"),
                            vec![Value::str(principal)],
                        )?;
                    }
                }
            }
            nodes.push(NodeState {
                info: NodeInfo::new(index as u32, spec.principal.clone()),
                workspace,
                sent: FnvMap::default(),
                export_pending: ExportCandidates::default(),
                available_at: 0,
                pending_bootstrap: spec.base_facts.clone(),
                store: None,
                last_update_seq_in: FnvMap::default(),
                ledger: NodeLedger::default(),
                outboxes: BTreeMap::new(),
            });
        }

        // Pre-establish anonymity circuits.
        let mut circuits = Vec::new();
        for (id, spec) in config.circuits.iter().enumerate() {
            let lookup = |name: &str| -> Result<usize> {
                principal_index
                    .get(name)
                    .copied()
                    .ok_or_else(|| DatalogError::Eval(format!("unknown circuit principal {name}")))
            };
            let initiator = lookup(&spec.initiator)?;
            let endpoint = lookup(&spec.endpoint)?;
            let relays: Vec<usize> = spec
                .relays
                .iter()
                .map(|r| lookup(r))
                .collect::<Result<_>>()?;
            let mut keys = Vec::with_capacity(relays.len() + 1);
            for hop in spec.relays.iter().chain(std::iter::once(&spec.endpoint)) {
                keys.push(
                    keystore
                        .circuit_key(&spec.initiator, hop, id as u64)
                        .map_err(|e| DatalogError::Eval(e.to_string()))?,
                );
            }
            circuits.push(Circuit {
                id: id as u64,
                initiator,
                relays,
                endpoint,
                keys,
            });
        }

        let network = SimNetwork::new(specs.len(), config.latency.clone());
        let mut deployment = Deployment {
            nodes,
            network,
            config,
            shared: EngineShared {
                principals,
                principal_index,
                keystore,
                circuits,
            },
            exportable,
            replicas: Vec::new(),
            shard_summary,
        };
        if let Some(durability) = deployment.config.durability.clone() {
            for node in &mut deployment.nodes {
                let key = derive_node_key(deployment.config.seed, &node.info.principal);
                let mut store = FactStore::open(durability.node_dir(&node.info.principal), &key)
                    .map_err(|e| DatalogError::Eval(format!("durability: {e}")))?;
                if store.wal_seq() != 0 || store.snapshot().is_some() {
                    return Err(DatalogError::Eval(format!(
                        "durable store for {} already holds state; use Deployment::recover",
                        node.info.principal
                    )));
                }
                store.set_flush_each_batch(durability.flush_each_batch);
                node.store = Some(store);
            }
        }
        Ok(deployment)
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// The predicates covered by the `says` policy.
    pub fn exportable_predicates(&self) -> &[String] {
        &self.exportable
    }

    /// Query a predicate on the node hosting `principal`.
    pub fn query(&self, principal: &str, pred: &str) -> Vec<Tuple> {
        self.shared
            .principal_index
            .get(principal)
            .map(|&i| self.nodes[i].workspace.query(pred))
            .unwrap_or_default()
    }

    /// Completion times (virtual) of committed transactions at `principal`'s
    /// node — the series behind the hash-join CDFs.
    pub fn completion_times(&self, principal: &str) -> Vec<Duration> {
        self.shared
            .principal_index
            .get(principal)
            .map(|&i| self.nodes[i].ledger.completion_times())
            .unwrap_or_default()
            .iter()
            .map(|&t| Duration::from_nanos(t))
            .collect()
    }

    /// Every node's ledger, in node order: what each node committed, refused,
    /// sent and received.  The API of record for per-node measurements; the
    /// [`DeploymentReport`] is a fold over these.
    pub fn ledgers(&self) -> Vec<&NodeLedger> {
        self.nodes.iter().map(|node| &node.ledger).collect()
    }

    /// Retract base facts at `principal`'s node: incremental deletion
    /// in the workspace, logged to the node's durable store when durability
    /// is enabled so recovery replays the retraction in order.  Facts that
    /// are not stored there are a no-op: nothing is logged, timed or shipped.
    /// A retraction a constraint refuses rolls back and is returned as the
    /// error.
    ///
    /// Retraction is distributed: any previously exported `says$T` /
    /// `anon_says$T` tuple that the deletion un-derives is withdrawn through
    /// the same policy-mangled channel as a signed `Retract` delta, so
    /// running the deployment afterwards (`run`) converges every remote
    /// fixpoint — and every remote store Merkle root — to the state it would
    /// have had if the facts had never been asserted.
    pub fn retract(&mut self, principal: &str, batch: Vec<(String, Tuple)>) -> Result<()> {
        let &index = self
            .shared
            .principal_index
            .get(principal)
            .ok_or_else(|| DatalogError::Eval(format!("unknown principal {principal}")))?;
        let mut ctx = self.node_ctx(index);
        let now = ctx.node.available_at;
        match ctx.commit(CommitOp::LocalRetract, batch, now)? {
            Verdict::Changed => {
                let finish = ctx.node.available_at;
                ctx.flush_updates(finish)
            }
            Verdict::Unchanged => Ok(()),
            Verdict::Refused(refusal) => Err(refusal),
        }
    }

    /// Borrow one node's engine context against the deployment's shared state
    /// and network — the reference executor's way of driving [`NodeCtx`]
    /// operations (the reactor builds its contexts against per-task sinks).
    pub(crate) fn node_ctx(&mut self, index: usize) -> NodeCtx<'_> {
        NodeCtx {
            index,
            node: &mut self.nodes[index],
            shared: &self.shared,
            config: &self.config,
            net: &mut self.network,
        }
    }

    /// Inject a raw update-stream payload into the network as if node `from`
    /// had sent it to node `to` — an adversarial testing hook for forged
    /// envelopes and replayed streams.  The payload is delivered (and
    /// scrutinized) by the normal [`MessageKind::Update`] path on the next
    /// [`Deployment::run`].
    ///
    /// **Intentionally bypasses the per-link FIFO floor**: an unordered
    /// send at virtual time 0 lets the injected payload overtake every legitimate
    /// message queued on the same link — the reordering/replay position an
    /// on-path adversary gets on a real network.  The receiver's defenses
    /// (sequence watermark, signature constraints) must hold against it; see
    /// the `stale_seq_replay_is_rejected_even_out_of_order` regression test.
    ///
    /// The bytes are charged to node `from`'s ledger, as if it had sent them.
    /// A `from` that names no node has no ledger: its message is delivered
    /// (and refused) all the same and shows only on the receive side.  A `to`
    /// that names no node has no receiver, and nothing is sent.
    pub fn inject_message(&mut self, from: usize, to: usize, payload: Vec<u8>) {
        if to >= self.nodes.len() {
            return;
        }
        let message = Message::new(
            NodeId(from as u32),
            NodeId(to as u32),
            MessageKind::Update,
            payload,
        );
        if message.from.index() < self.nodes.len() {
            self.node_ctx(message.from.index())
                .send(message, 0, Link::Unordered);
        } else {
            let deliver_at = self.config.latency.deliver_at(0, message.wire_size(), 0);
            self.network.push(deliver_at, message);
        }
    }

    /// Run to the distributed fixpoint: no batches pending and no messages in
    /// flight.  Dispatches on [`DeploymentConfig::reactor`]: the event-driven
    /// executor (`runtime::reactor`) runs nodes wall-clock-parallel; the
    /// virtual-time reference loop below stays the deterministic baseline.
    pub fn run(&mut self) -> Result<DeploymentReport> {
        if self.config.reactor.enabled {
            self.run_reactor()
        } else {
            self.run_virtual()
        }
    }

    /// The deterministic reference executor: one global loop delivering
    /// messages in virtual-time order.
    fn run_virtual(&mut self) -> Result<DeploymentReport> {
        // Bootstrap batches at virtual time zero.
        for index in 0..self.nodes.len() {
            let batch = std::mem::take(&mut self.nodes[index].pending_bootstrap);
            self.node_ctx(index).process_batch(batch, 0)?;
        }
        // Message loop.  When the network goes quiet the outboxes may still
        // hold sub-batch residues (Nagle hold, see `drain_outbox`);
        // force-flushing them wakes the loop back up until delivery *and*
        // outboxes are both drained.
        let mut guard = 0usize;
        let message_budget = self.config.message_budget;
        loop {
            let Some((arrival, message)) = self.network.next_delivery() else {
                if self.flush_pending_outboxes()? {
                    continue;
                }
                break;
            };
            // Only data-plane traffic spends budget.  Control messages —
            // credit grants above all — are *caused* by data deliveries
            // (bounded by them one-to-one), and counting them once made
            // backpressure-heavy runs trip the non-convergence error at half
            // the configured budget.
            if is_data_plane(message.kind) {
                guard += 1;
                if guard > message_budget {
                    return Err(self.budget_exceeded_error());
                }
            }
            self.node_ctx(message.to.index())
                .deliver(message, arrival)?;
        }
        Ok(self.report())
    }

    /// The non-convergence diagnostic for an exhausted message budget, naming
    /// the busiest links.  Shared by both executors.
    pub(crate) fn budget_exceeded_error(&self) -> DatalogError {
        let message_budget = self.config.message_budget;
        let busiest: Vec<String> = stats::busiest_links(&self.ledgers(), 3)
            .into_iter()
            .map(|(from, to, traffic)| {
                format!(
                    "{}->{} ({} msgs, {} bytes)",
                    self.nodes[from.index()].info.principal,
                    self.nodes[to.index()].info.principal,
                    traffic.messages,
                    traffic.bytes
                )
            })
            .collect();
        DatalogError::Eval(format!(
            "distributed execution exceeded its message budget of {message_budget} \
             (DeploymentConfig::message_budget); the protocol is not converging; \
             busiest links: {}",
            busiest.join(", ")
        ))
    }

    /// Summarize the run: a pure fold over the nodes' ledgers and
    /// workspaces, plus a snapshot of every histogram the process-wide
    /// registry holds.  Reads, never writes — reporting twice, or reporting
    /// two deployments in one process, changes nothing.
    pub fn report(&self) -> DeploymentReport {
        let ledgers = self.ledgers();
        let sum = |count: fn(&NodeLedger) -> usize| ledgers.iter().map(|l| count(l)).sum();
        DeploymentReport {
            label: self.config.security.label(),
            num_nodes: self.nodes.len(),
            fixpoint_latency: Duration::from_nanos(stats::fixpoint_time(&ledgers)),
            average_transaction: stats::average_transaction_duration(&ledgers),
            per_node_kb: stats::average_per_node_kb(&ledgers),
            total_transactions: sum(|l| l.transaction_durations().len()),
            rejected_batches: sum(NodeLedger::rejected_batches),
            conflicting_batches: sum(NodeLedger::conflicting_batches),
            retractions_applied: sum(NodeLedger::retractions_applied),
            convergence_times: ledgers
                .iter()
                .map(|l| Duration::from_nanos(l.last_activity()))
                .collect(),
            per_node_bytes: ledgers.iter().map(|l| l.traffic().bytes_sent).collect(),
            total_messages: sum(|l| l.traffic().messages_sent),
            plan: self.plan_stats(),
            export_candidates: sum(NodeLedger::export_candidates),
            apply_latency_p50: stats::transaction_duration_percentile(&ledgers, 0.5),
            apply_latency_p99: stats::transaction_duration_percentile(&ledgers, 0.99),
            shard: self.shard_report(),
            telemetry: secureblox_telemetry::histogram_summaries(),
        }
    }

    /// Planner / index counters summed over every node's workspace.  Plan
    /// caches live in the workspaces, so they persist across deployment
    /// ticks: steady-state ticks should show cache hits, not compilations.
    pub fn plan_stats(&self) -> PlanStats {
        self.nodes
            .iter()
            .map(|node| node.workspace.plan_stats())
            .sum()
    }

    /// The reference loop's quiescence step: run
    /// [`NodeCtx::flush_residues`] on every node, in node order.  Returns
    /// whether anything shipped (so the message loop resumes).
    fn flush_pending_outboxes(&mut self) -> Result<bool> {
        let mut shipped = false;
        for index in 0..self.nodes.len() {
            shipped |= self.node_ctx(index).flush_residues()?;
        }
        if !shipped && self.nodes.iter().any(NodeState::holds_residue) {
            return Err(wedged_at_quiescence());
        }
        Ok(shipped)
    }
}

impl NodeState {
    /// Whether any of this node's outboxes still holds unshipped deltas.
    pub(crate) fn holds_residue(&self) -> bool {
        self.outboxes.values().any(|outbox| outbox.live() > 0)
    }
}

/// Credit is returned unconditionally per drained delta, so by quiescence
/// every window has refilled — a residue no executor's force-flush could
/// ship is a protocol bug, not a schedule, and fails loudly rather than
/// silently dropping deltas.
pub(crate) fn wedged_at_quiescence() -> DatalogError {
    DatalogError::Eval("outboxes wedged at quiescence: held deltas with no credit".into())
}

#[cfg(test)]
impl Deployment {
    /// Messages of one kind the nodes sent, summed over their ledgers.
    pub(crate) fn messages_sent(&self, kind: MessageKind) -> usize {
        let of_kind = |l: &&NodeLedger| l.sent_by_kind().get(&kind).map_or(0, |t| t.messages);
        self.ledgers().iter().map(of_kind).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{SecurityConfig, TrustModel};
    use crate::runtime::codec::{serialize_tuple, DeltaOp, UpdateDelta, UpdateEnvelope};
    use secureblox_crypto::{AuthScheme, EncScheme};

    /// A two-node "reachability gossip" application: each node says its links
    /// to the other node, which imports them into `remote_link`.
    const GOSSIP_APP: &str = r#"
        link(N1, N2) -> node(N1), node(N2).
        remote_link(N1, N2) -> node(N1), node(N2).
        exportable(`remote_link).

        says[`remote_link](self[], U, X, Y) <- link(X, Y), principal(U), U != self[].
    "#;

    fn two_node_specs() -> Vec<NodeSpec> {
        vec![
            NodeSpec {
                principal: "n0".into(),
                base_facts: vec![("link".into(), vec![Value::str("n0"), Value::str("n1")])],
            },
            NodeSpec {
                principal: "n1".into(),
                base_facts: vec![("link".into(), vec![Value::str("n1"), Value::str("n0")])],
            },
        ]
    }

    fn run_gossip(security: SecurityConfig) -> (Deployment, DeploymentReport) {
        let config = DeploymentConfig {
            security,
            ..DeploymentConfig::default()
        };
        let mut deployment = Deployment::build(GOSSIP_APP, &two_node_specs(), config).unwrap();
        let report = deployment.run().unwrap();
        (deployment, report)
    }

    #[test]
    fn noauth_gossip_exchanges_facts() {
        let (deployment, report) =
            run_gossip(SecurityConfig::new(AuthScheme::NoAuth, EncScheme::None));
        assert_eq!(
            deployment.query("n0", "remote_link"),
            vec![vec![Value::str("n1"), Value::str("n0")]]
        );
        assert_eq!(
            deployment.query("n1", "remote_link"),
            vec![vec![Value::str("n0"), Value::str("n1")]]
        );
        assert_eq!(report.rejected_batches, 0);
        assert!(report.total_messages >= 2);
        assert!(report.fixpoint_latency > Duration::ZERO);
        assert!(report.per_node_kb > 0.0);
    }

    #[test]
    fn hmac_and_rsa_gossip_verify_and_cost_more_bytes() {
        let (_, noauth) = run_gossip(SecurityConfig::new(AuthScheme::NoAuth, EncScheme::None));
        let (hmac_dep, hmac) =
            run_gossip(SecurityConfig::new(AuthScheme::HmacSha1, EncScheme::None));
        let (rsa_dep, rsa) = run_gossip(SecurityConfig::new(AuthScheme::Rsa, EncScheme::None));
        // Facts still arrive.
        assert_eq!(hmac_dep.query("n0", "remote_link").len(), 1);
        assert_eq!(rsa_dep.query("n0", "remote_link").len(), 1);
        assert_eq!(hmac.rejected_batches, 0);
        assert_eq!(rsa.rejected_batches, 0);
        // Signature overhead ordering matches Figure 6.
        assert!(noauth.per_node_kb < hmac.per_node_kb);
        assert!(hmac.per_node_kb < rsa.per_node_kb);
    }

    #[test]
    fn aes_encryption_still_delivers_and_adds_bytes() {
        let (deployment, plain) =
            run_gossip(SecurityConfig::new(AuthScheme::HmacSha1, EncScheme::None));
        let (enc_dep, enc) =
            run_gossip(SecurityConfig::new(AuthScheme::HmacSha1, EncScheme::Aes128));
        assert_eq!(
            deployment.query("n0", "remote_link"),
            enc_dep.query("n0", "remote_link")
        );
        assert!(enc.per_node_kb > plain.per_node_kb);
    }

    #[test]
    fn untrusted_principal_rejected_with_trustworthy_model() {
        // n1 is not trustworthy at n0, so n0 must not import its fact, but n1
        // (which trusts everyone it lists) still imports n0's fact.
        let security = SecurityConfig {
            auth: AuthScheme::NoAuth,
            trust: TrustModel::Trustworthy,
            ..SecurityConfig::default()
        };
        let config = DeploymentConfig {
            security,
            ..DeploymentConfig::default()
        };
        let mut deployment = Deployment::build(GOSSIP_APP, &two_node_specs(), config).unwrap();
        // Remove n1 from n0's trustworthy relation before running.
        deployment.nodes[0]
            .workspace
            .retract(vec![("trustworthy".into(), vec![Value::str("n1")])])
            .unwrap();
        deployment.run().unwrap();
        assert_eq!(deployment.query("n0", "remote_link").len(), 0);
        assert_eq!(deployment.query("n1", "remote_link").len(), 1);
        // The says fact from n1 itself was accepted (n1 is a known
        // principal); only the import into remote_link is withheld.  n0 also
        // stores its own outgoing says tuple, hence two rows.
        let incoming: Vec<_> = deployment
            .query("n0", "says$remote_link")
            .into_iter()
            .filter(|t| t[1].as_str() == Some("n0"))
            .collect();
        assert_eq!(incoming.len(), 1);
    }

    #[test]
    fn forged_signature_rolls_back_batch() {
        let security = SecurityConfig::new(AuthScheme::HmacSha1, EncScheme::None);
        let config = DeploymentConfig {
            security,
            ..DeploymentConfig::default()
        };
        let mut deployment = Deployment::build(GOSSIP_APP, &two_node_specs(), config).unwrap();
        // Forge a message from n1 to n0 with a bad tag by injecting it
        // directly into the network.
        let envelope = UpdateEnvelope {
            seq: 0,
            deltas: vec![UpdateDelta {
                op: DeltaOp::Assert,
                pred: "remote_link".into(),
                tuple: vec![
                    Value::str("n1"),
                    Value::str("n0"),
                    Value::str("evil"),
                    Value::str("evil2"),
                ],
                signature: vec![0u8; 20],
            }],
        };
        let forged = Message::new(NodeId(1), NodeId(0), MessageKind::Update, envelope.encode());
        let latency = &deployment.config.latency;
        let at = latency.deliver_at(0, forged.wire_size(), 0);
        deployment.network.push(at, forged);
        let report = deployment.run().unwrap();
        assert!(report.rejected_batches >= 1);
        assert!(!deployment
            .query("n0", "remote_link")
            .contains(&vec![Value::str("evil"), Value::str("evil2")]));
        // Legitimate traffic still arrived.
        assert_eq!(deployment.query("n0", "remote_link").len(), 1);
    }

    /// Regression (remote abort): `Message::from` is the sender's claim, and
    /// the delivery path used to index the principal table — and the reactor's
    /// seeding the link lanes — with it.  A `from` that names no node is one
    /// rejection at the receiver, whatever the kind and whichever executor;
    /// it has no ledger, so its bytes show on the receive side only.  A `to`
    /// that names no node has no receiver: nothing is sent.
    #[test]
    fn a_sender_that_names_no_node_is_a_rejection_not_a_panic() {
        for reactor in [ReactorConfig::disabled(), ReactorConfig::with_threads(2)] {
            let config = DeploymentConfig {
                security: SecurityConfig::new(AuthScheme::HmacSha1, EncScheme::None),
                reactor,
                ..DeploymentConfig::default()
            };
            let mut deployment = Deployment::build(GOSSIP_APP, &two_node_specs(), config).unwrap();
            deployment.run().unwrap();
            let relations = |d: &Deployment| {
                let preds = ["link", "remote_link", "says$remote_link", "sig$remote_link"];
                preds.map(|pred| (d.query("n0", pred), d.query("n1", pred)))
            };
            let before = relations(&deployment);
            let nodes = deployment.node_count();
            for from in [nodes, 7, u32::MAX as usize] {
                for kind in [
                    MessageKind::Update,
                    MessageKind::Credit,
                    MessageKind::AnonForward,
                    MessageKind::AnonBackward,
                ] {
                    let what = format!("from {from}, {kind:?}");
                    let earlier = deployment.report();
                    let received = deployment.nodes[0].ledger.traffic().messages_received;
                    match kind {
                        MessageKind::Update => deployment.inject_message(from, 0, vec![0; 32]),
                        _ => {
                            // A well-formed grant, so only its sender is wrong.
                            let payload = secureblox_net::message::encode_credit(1);
                            let forged =
                                Message::new(NodeId(from as u32), NodeId(0), kind, payload);
                            let latency = &deployment.config.latency;
                            let at = latency.deliver_at(0, forged.wire_size(), 0);
                            deployment.network.push(at, forged);
                        }
                    }
                    let report = deployment.run().expect(&what);
                    assert_eq!(
                        report.rejected_batches,
                        earlier.rejected_batches + 1,
                        "{what}"
                    );
                    assert_eq!(relations(&deployment), before, "{what}");
                    assert_eq!(report.per_node_bytes, earlier.per_node_bytes, "{what}");
                    assert_eq!(report.total_messages, earlier.total_messages, "{what}");
                    let traffic = deployment.nodes[0].ledger.traffic();
                    assert_eq!(traffic.messages_received, received + 1, "{what}");
                }
            }
            deployment.inject_message(0, nodes, vec![0; 32]);
            deployment.inject_message(7, u32::MAX as usize, vec![0; 32]);
            assert!(deployment.network.is_idle());
            assert_eq!(deployment.messages_sent(MessageKind::Update), 2);
        }
    }

    #[test]
    fn write_access_constraint_enforced() {
        let security = SecurityConfig {
            auth: AuthScheme::NoAuth,
            write_access: true,
            ..SecurityConfig::default()
        };
        let config = DeploymentConfig {
            security,
            ..DeploymentConfig::default()
        };
        let mut deployment = Deployment::build(GOSSIP_APP, &two_node_specs(), config).unwrap();
        // Revoke n1's write access to remote_link at n0.
        deployment.nodes[0]
            .workspace
            .retract(vec![(
                "writeAccess$remote_link".into(),
                vec![Value::str("n1")],
            )])
            .unwrap();
        let report = deployment.run().unwrap();
        assert!(report.rejected_batches >= 1);
        assert_eq!(deployment.query("n0", "remote_link").len(), 0);
        assert_eq!(deployment.query("n1", "remote_link").len(), 1);
    }

    #[test]
    fn parallelism_above_one_is_refused() {
        let config = DeploymentConfig {
            parallelism: 2,
            ..DeploymentConfig::default()
        };
        let refused = Deployment::build(GOSSIP_APP, &two_node_specs(), config.clone());
        assert!(
            matches!(&refused, Err(DatalogError::Config(message)) if message.contains("parallelism")),
            "{:?}",
            refused.err()
        );
        // Recovery rebuilds first, so it refuses before it opens a store.
        let dir = std::env::temp_dir().join("sbx-parallelism-refused-never-created");
        let refused = Deployment::recover(&dir, GOSSIP_APP, &two_node_specs(), config);
        assert!(matches!(
            refused,
            Err(crate::runtime::DurabilityError::Engine(
                DatalogError::Config(_)
            ))
        ));
        assert!(!dir.exists());
    }

    #[test]
    fn streaming_disabled_is_refused() {
        let config = DeploymentConfig {
            streaming: StreamingConfig {
                enabled: false,
                ..StreamingConfig::default()
            },
            ..DeploymentConfig::default()
        };
        let refused = Deployment::build(GOSSIP_APP, &two_node_specs(), config.clone());
        assert!(
            matches!(&refused, Err(DatalogError::Config(message)) if message.contains("enabled")),
            "{:?}",
            refused.err()
        );
        let dir = std::env::temp_dir().join("sbx-streaming-refused-never-created");
        let refused = Deployment::recover(&dir, GOSSIP_APP, &two_node_specs(), config);
        assert!(matches!(
            refused,
            Err(crate::runtime::DurabilityError::Engine(
                DatalogError::Config(_)
            ))
        ));
        assert!(!dir.exists());
    }

    #[test]
    fn stale_seq_replay_is_rejected_even_out_of_order() {
        // NoAuth, so nothing but the sequence watermark stands between an
        // injected replay and the workspace: the deltas would be accepted if
        // the envelope were fresh.
        let config = DeploymentConfig {
            security: SecurityConfig::new(AuthScheme::NoAuth, EncScheme::None),
            ..DeploymentConfig::default()
        };
        let mut deployment = Deployment::build(GOSSIP_APP, &two_node_specs(), config).unwrap();
        deployment.run().unwrap();
        // The legitimate n1→n0 stream used sequence 1; replay that sequence
        // with attacker-chosen contents.  `inject_message` sends at virtual
        // time 0, bypassing the per-link FIFO floor — the replay arrives
        // *before* anything else queued on the link, the strongest reordering
        // an on-path adversary can force.
        let replay = UpdateEnvelope {
            seq: 1,
            deltas: vec![UpdateDelta {
                op: DeltaOp::Assert,
                pred: "remote_link".into(),
                tuple: vec![
                    Value::str("n1"),
                    Value::str("n0"),
                    Value::str("evil"),
                    Value::str("evil2"),
                ],
                signature: Vec::new(),
            }],
        };
        deployment.inject_message(1, 0, replay.encode());
        deployment.run().unwrap();
        assert!(
            !deployment
                .query("n0", "remote_link")
                .contains(&vec![Value::str("evil"), Value::str("evil2")]),
            "stale-sequence replay must be dropped whole, not applied"
        );
        assert_eq!(deployment.query("n0", "remote_link").len(), 1);
    }

    #[test]
    fn exhausted_message_budget_names_busiest_links() {
        let config = DeploymentConfig {
            security: SecurityConfig::new(AuthScheme::NoAuth, EncScheme::None),
            message_budget: 1,
            ..DeploymentConfig::default()
        };
        let mut deployment = Deployment::build(GOSSIP_APP, &two_node_specs(), config).unwrap();
        let err = deployment.run().unwrap_err();
        let text = err.to_string();
        assert!(text.contains("message budget of 1"), "got: {text}");
        assert!(text.contains("busiest links:"), "got: {text}");
        assert!(text.contains("msgs"), "got: {text}");
    }

    #[test]
    fn streaming_gossip_matches_unbatched_path() {
        let baseline_config = DeploymentConfig {
            security: SecurityConfig::new(AuthScheme::HmacSha1, EncScheme::None),
            streaming: StreamingConfig::unbatched(),
            ..DeploymentConfig::default()
        };
        let mut baseline =
            Deployment::build(GOSSIP_APP, &two_node_specs(), baseline_config).unwrap();
        let baseline_report = baseline.run().unwrap();
        let streaming_config = DeploymentConfig {
            security: SecurityConfig::new(AuthScheme::HmacSha1, EncScheme::None),
            streaming: StreamingConfig::with_knobs(8, 32),
            ..DeploymentConfig::default()
        };
        let mut streaming =
            Deployment::build(GOSSIP_APP, &two_node_specs(), streaming_config).unwrap();
        let streaming_report = streaming.run().unwrap();
        for principal in ["n0", "n1"] {
            for pred in ["remote_link", "says$remote_link", "link"] {
                assert_eq!(
                    baseline.query(principal, pred),
                    streaming.query(principal, pred),
                    "{principal}/{pred} diverged under streaming"
                );
            }
        }
        assert_eq!(
            baseline_report.rejected_batches,
            streaming_report.rejected_batches
        );
        assert_eq!(
            baseline_report.retractions_applied,
            streaming_report.retractions_applied
        );
    }

    #[test]
    fn streaming_retraction_converges_and_annihilates_nothing_shipped() {
        // Assert, converge, retract at the source: the withdrawal must cross
        // the wire as a Retract delta and remove the remote copy, exactly as
        // on an unbatched stream.
        let config = DeploymentConfig {
            security: SecurityConfig::new(AuthScheme::HmacSha1, EncScheme::None),
            streaming: StreamingConfig::with_knobs(8, 32),
            ..DeploymentConfig::default()
        };
        let mut deployment = Deployment::build(GOSSIP_APP, &two_node_specs(), config).unwrap();
        deployment.run().unwrap();
        assert_eq!(deployment.query("n0", "remote_link").len(), 1);
        deployment
            .retract(
                "n1",
                vec![("link".into(), vec![Value::str("n1"), Value::str("n0")])],
            )
            .unwrap();
        let report = deployment.run().unwrap();
        assert_eq!(deployment.query("n0", "remote_link").len(), 0);
        assert!(report.retractions_applied >= 1);
    }

    /// A gossip exchange through the outboxes is exactly two Update
    /// envelopes plus two Credit grants, and the non-convergence guard
    /// counts only the data-plane half.
    fn assert_exchange_is_two_data_plane_deliveries(streaming: StreamingConfig) {
        let config = DeploymentConfig {
            security: SecurityConfig::new(AuthScheme::HmacSha1, EncScheme::None),
            streaming,
            message_budget: 2,
            ..DeploymentConfig::default()
        };
        let mut deployment = Deployment::build(GOSSIP_APP, &two_node_specs(), config).unwrap();
        deployment.run().expect(
            "a budget equal to the data-plane message count must suffice; \
             credit grants are control traffic",
        );
        assert_eq!(deployment.messages_sent(MessageKind::Update), 2);
        assert!(
            deployment.messages_sent(MessageKind::Credit) >= 2,
            "backpressure credits must actually have flowed for this test to bite"
        );
        assert_eq!(deployment.query("n0", "remote_link").len(), 1);
        assert_eq!(deployment.query("n1", "remote_link").len(), 1);
    }

    /// Regression (PR 9): with the old counting the credits spent half the
    /// budget and a budget of 2 tripped spuriously.
    #[test]
    fn credit_messages_do_not_spend_the_message_budget() {
        assert_exchange_is_two_data_plane_deliveries(StreamingConfig::with_knobs(8, 32));
    }

    /// The credits prove the default configuration's deltas left through a
    /// [`LinkOutbox`]: nothing else asks for them.
    #[test]
    fn default_config_ships_through_the_outbox() {
        assert_exchange_is_two_data_plane_deliveries(DeploymentConfig::default().streaming);
    }

    #[test]
    fn reactor_gossip_matches_reference() {
        let (reference, reference_report) =
            run_gossip(SecurityConfig::new(AuthScheme::HmacSha1, EncScheme::None));
        let config = DeploymentConfig {
            security: SecurityConfig::new(AuthScheme::HmacSha1, EncScheme::None),
            reactor: ReactorConfig::with_threads(2),
            ..DeploymentConfig::default()
        };
        let mut reactor = Deployment::build(GOSSIP_APP, &two_node_specs(), config).unwrap();
        let reactor_report = reactor.run().unwrap();
        for principal in ["n0", "n1"] {
            for pred in ["remote_link", "says$remote_link", "link"] {
                assert_eq!(
                    reference.query(principal, pred),
                    reactor.query(principal, pred),
                    "{principal}/{pred} diverged under the reactor executor"
                );
            }
        }
        assert_eq!(
            reference_report.rejected_batches,
            reactor_report.rejected_batches
        );
        assert_eq!(
            reference_report.total_messages, reactor_report.total_messages,
            "each node's ledger counts its own sends, whichever executor drives it"
        );
    }

    /// A link delivers in send order under both executors.  The first
    /// principal's name is long and sorts first, so every node's first flush
    /// ships, on each link, an envelope naming it just ahead of small ones at
    /// the same virtual time: the small ones would overtake it but for the
    /// link's FIFO floor, and the receiver would drop the overtaken envelope
    /// as a stale sequence number.
    #[test]
    fn every_link_delivers_in_send_order_on_both_executors() {
        let mut principals: Vec<String> = (1..6).map(|i| format!("n{i}")).collect();
        principals.insert(0, format!("a{}", "x".repeat(4096)));
        let specs: Vec<NodeSpec> = principals
            .iter()
            .map(|me| NodeSpec {
                principal: me.clone(),
                base_facts: principals
                    .iter()
                    .filter(|other| *other != me)
                    .map(|other| ("link".into(), vec![Value::str(me), Value::str(other)]))
                    .collect(),
            })
            .collect();
        let nodes = specs.len();
        for reactor in [
            ReactorConfig::disabled(),
            ReactorConfig::with_threads(1),
            ReactorConfig::with_threads(4),
        ] {
            for streaming in [
                StreamingConfig::unbatched(),
                StreamingConfig::with_knobs(2, 2),
            ] {
                let what = format!("{reactor:?}, {streaming:?}");
                let config = DeploymentConfig {
                    security: SecurityConfig::new(AuthScheme::HmacSha1, EncScheme::None),
                    reactor: reactor.clone(),
                    streaming,
                    ..DeploymentConfig::default()
                };
                let mut deployment = Deployment::build(GOSSIP_APP, &specs, config).unwrap();
                let report = deployment.run().expect(&what);
                assert_eq!(report.rejected_batches, 0, "{what}");
                for (receiver, principal) in principals.iter().enumerate() {
                    let held = deployment.query(principal, "remote_link").len();
                    assert_eq!(held, (nodes - 1) * (nodes - 1), "{what}: node {receiver}");
                    for sender in (0..nodes).filter(|&sender| sender != receiver) {
                        let shipped = deployment.nodes[sender].outboxes[&receiver].seq;
                        let accepted =
                            deployment.nodes[receiver].last_update_seq_in[&(sender as u32)];
                        assert_eq!(accepted, shipped, "{what}: link {sender}->{receiver}");
                    }
                }
            }
        }
    }

    #[test]
    fn reactor_budget_exhaustion_reports_like_the_reference() {
        let config = DeploymentConfig {
            security: SecurityConfig::new(AuthScheme::NoAuth, EncScheme::None),
            message_budget: 1,
            reactor: ReactorConfig::with_threads(2),
            ..DeploymentConfig::default()
        };
        let mut deployment = Deployment::build(GOSSIP_APP, &two_node_specs(), config).unwrap();
        let err = deployment.run().unwrap_err();
        let text = err.to_string();
        assert!(text.contains("message budget of 1"), "got: {text}");
        assert!(text.contains("busiest links:"), "got: {text}");
    }

    /// Gossip plus its transitive closure.
    const REACH_APP: &str = r#"
        link(N1, N2) -> node(N1), node(N2).
        remote_link(N1, N2) -> node(N1), node(N2).
        reach(N1, N2) -> node(N1), node(N2).
        exportable(`remote_link).

        says[`remote_link](self[], U, X, Y) <- link(X, Y), principal(U), U != self[].
        reach(X, Y) <- link(X, Y).
        reach(X, Y) <- remote_link(X, Y).
        reach(X, Z) <- reach(X, Y), reach(Y, Z).
    "#;

    /// [`Deployment::run_virtual`], keeping a copy of every update envelope
    /// it delivers.
    fn run_keeping_updates(deployment: &mut Deployment) -> Vec<Message> {
        for index in 0..deployment.nodes.len() {
            let batch = std::mem::take(&mut deployment.nodes[index].pending_bootstrap);
            deployment.node_ctx(index).process_batch(batch, 0).unwrap();
        }
        let mut kept = Vec::new();
        loop {
            let Some((arrival, message)) = deployment.network.next_delivery() else {
                if deployment.flush_pending_outboxes().unwrap() {
                    continue;
                }
                return kept;
            };
            if message.kind == MessageKind::Update {
                kept.push(message.clone());
            }
            let to = message.to.index();
            deployment.node_ctx(to).deliver(message, arrival).unwrap();
        }
    }

    /// Every relation of every node, as sorted tuple encodings.
    fn relations(deployment: &Deployment) -> BTreeMap<(usize, String), Vec<Vec<u8>>> {
        let mut out = BTreeMap::new();
        for (index, node) in deployment.nodes.iter().enumerate() {
            for pred in node.workspace.predicate_names() {
                let tuples = node.workspace.query(&pred);
                let mut encoded: Vec<Vec<u8>> = tuples.iter().map(|t| serialize_tuple(t)).collect();
                encoded.sort();
                out.insert((index, pred), encoded);
            }
        }
        out
    }

    /// Whether `to` refuses `payload` from `from` before reading any delta:
    /// it does not decrypt or does not decode.
    fn refused_at_decode(
        deployment: &Deployment,
        (from, to): (usize, usize),
        payload: &[u8],
    ) -> bool {
        let plain = match deployment.config.security.enc {
            EncScheme::None => payload.to_vec(),
            EncScheme::Aes128 => {
                let (us, them) = (
                    &deployment.nodes[to].info.principal,
                    &deployment.nodes[from].info.principal,
                );
                let secret = deployment.shared.keystore.shared_secret(us, them).unwrap();
                match secureblox_crypto::aes128_ctr_decrypt(secret, payload) {
                    Ok(plain) => plain,
                    Err(_) => return true,
                }
            }
        };
        UpdateEnvelope::decode(&plain).is_err()
    }

    /// Mutated copies of the update envelopes a run really sent, injected
    /// on REACH and on the sharded hash join under HMAC and HMAC+AES.
    /// `run` stays `Ok`; an envelope refused at decode costs exactly one
    /// rejection and changes no relation; and no mutant leaves a relation
    /// holding a tuple the unmutated run does not hold.  That a decodable
    /// mutant can *delete* a fact (a flipped op byte) is ROADMAP item 21.
    #[test]
    fn mutated_envelopes_cost_a_rejection_and_admit_nothing() {
        use crate::apps::hashjoin::{build_sharded_deployment, HashJoinConfig};
        use crate::runtime::node::tests::mutants;
        use proptest::prelude::TestRng;

        let mut specs: Vec<NodeSpec> = ["n0", "n1", "n2"].map(NodeSpec::new).to_vec();
        for (a, b) in [(0, 1), (1, 2), (2, 0)] {
            let link = vec![Value::str(format!("n{a}")), Value::str(format!("n{b}"))];
            specs[a].base_facts.push(("link".into(), link));
        }
        let rejected = |d: &Deployment| {
            d.ledgers()
                .iter()
                .map(|l| l.rejected_batches())
                .sum::<usize>()
        };
        let mut rng = TestRng::seed_from_u64(38);
        let mut refused = 0;
        for enc in [EncScheme::None, EncScheme::Aes128] {
            let security = SecurityConfig::new(AuthScheme::HmacSha1, enc);
            let reach = DeploymentConfig {
                security: security.clone(),
                ..DeploymentConfig::default()
            };
            let (sharded, _) = build_sharded_deployment(&HashJoinConfig {
                num_nodes: 4,
                table_a_rows: 40,
                table_b_rows: 30,
                distinct_join_values: 8,
                security,
                ..HashJoinConfig::default()
            })
            .unwrap();
            let reach = Deployment::build(REACH_APP, &specs, reach).unwrap();
            for (app, mut deployment) in [("REACH", reach), ("sharded hash join", sharded)] {
                let what = format!("{app} under {}", deployment.config.security.label());
                let envelopes = run_keeping_updates(&mut deployment);
                let converged = relations(&deployment);
                for case in 0..48 {
                    let what = format!("{what}, case {case}");
                    let [message, other] = [0, 1].map(|_| &envelopes[rng.below(envelopes.len())]);
                    let mut candidates = mutants(&message.payload, &other.payload, &mut rng);
                    let mutant = candidates.swap_remove(rng.below(candidates.len()));
                    let link = (message.from.index(), message.to.index());
                    let at_decode = refused_at_decode(&deployment, link, &mutant);
                    let (before, rejections) = (relations(&deployment), rejected(&deployment));
                    deployment.inject_message(link.0, link.1, mutant);
                    deployment.run().expect(&what);
                    let after = relations(&deployment);
                    if at_decode {
                        refused += 1;
                        assert_eq!(rejected(&deployment), rejections + 1, "{what}");
                        assert_eq!(after, before, "{what}");
                    }
                    for (relation, tuples) in &after {
                        let held = converged.get(relation).map_or(&[][..], Vec::as_slice);
                        let admitted = tuples.iter().all(|t| held.binary_search(t).is_ok());
                        assert!(admitted, "{what}: {relation:?} gained a tuple");
                    }
                }
            }
        }
        assert!(
            refused > 48,
            "only {refused} of 192 mutants were refused at decode"
        );
    }
}
