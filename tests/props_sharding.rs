//! Sharding is semantics-free: partitioning the EDB across a node group —
//! with the planner exchanging tuples over the signed update stream — must
//! produce exactly the same *global* results as an unsharded single-node
//! evaluation.  Partitioning changes where tuples live and what travels,
//! never what the deployment as a whole knows.
//!
//! Comparison regimes:
//!
//! * the union of every relation across the group (sorted, deduplicated) is
//!   compared against the unsharded reference across partitions {1, 2, 4} ×
//!   unbatched/batched streams, together with the constraint verdicts;
//! * at a fixed partitioning, the per-node EDB Merkle roots must be
//!   bit-identical unbatched and batched — delivery knobs must not
//!   change any partition's content;
//! * a membership change ([`Deployment::apply_shard_map`]) must move only a
//!   minority of tuples (consistent hashing), keep the global content
//!   digest unchanged, and leave every base tuple at exactly its new ring
//!   owner;
//! * a durable sharded deployment must recover from its WALs to the same
//!   unions and the same Merkle roots the live deployment held.

use proptest::prelude::*;
use secureblox::policy::SecurityConfig;
use secureblox::runtime::{Deployment, DeploymentConfig, NodeSpec, ShardMap, StreamingConfig};
use secureblox::{AuthScheme, DurabilityConfig, EncScheme, Value};
use secureblox_datalog::value::Tuple;
use std::path::PathBuf;

/// A deterministic app exercising all three exchange strategies: `hop2` is a
/// self-join on a non-partition column (shuffle), `heavy` joins two
/// relations sharded on the shared column (co-partitioned), and `boosted`
/// joins against a small replicated relation (local).
const SHARD_APP: &str = r#"
    edge(X, Y) -> int[32](X), int[32](Y).
    weight(X, W) -> int[32](X), int[32](W).
    boost(W) -> int[32](W).
    hop2(X, Z) -> int[32](X), int[32](Z).
    heavy(X, W) -> int[32](X), int[32](W).
    boosted(X, W) -> int[32](X), int[32](W).

    hop2(X, Z) <- edge(X, Y), edge(Y, Z).
    heavy(X, W) <- edge(X, _), weight(X, W).
    boosted(X, W) <- weight(X, W), boost(W).
"#;

const RELATIONS: &[&str] = &["edge", "weight", "boost", "hop2", "heavy", "boosted"];

fn principal_name(i: usize) -> String {
    format!("n{i}")
}

fn base_facts() -> Vec<(String, Tuple)> {
    let mut facts = Vec::new();
    for a in 0..12i64 {
        facts.push((
            "edge".to_string(),
            vec![Value::Int(a), Value::Int((a * 5 + 3) % 12)],
        ));
        facts.push((
            "edge".to_string(),
            vec![Value::Int(a), Value::Int((a * 3 + 7) % 12)],
        ));
        facts.push((
            "weight".to_string(),
            vec![Value::Int(a), Value::Int(a * 10)],
        ));
    }
    for w in [10i64, 30, 50] {
        facts.push(("boost".to_string(), vec![Value::Int(w)]));
    }
    facts
}

/// Distinct sharded base tuples in [`base_facts`] (the generator emits a
/// couple of duplicate edges; set semantics stores each once).
fn distinct_sharded_count() -> usize {
    let mut seen = std::collections::HashSet::new();
    base_facts()
        .into_iter()
        .filter(|(pred, _)| pred == "edge" || pred == "weight")
        .filter(|fact| seen.insert(format!("{fact:?}")))
        .count()
}

fn shard_map(partitions: usize) -> ShardMap {
    ShardMap::new((0..partitions).map(principal_name))
        .shard("edge", 0)
        .shard("weight", 0)
}

fn sharded_config(
    partitions: usize,
    streaming: StreamingConfig,
    facts: Vec<(String, Tuple)>,
) -> DeploymentConfig {
    DeploymentConfig {
        security: SecurityConfig::new(AuthScheme::HmacSha1, EncScheme::None),
        shared_facts: facts,
        sharding: Some(shard_map(partitions)),
        streaming,
        ..DeploymentConfig::default()
    }
}

fn build_sharded(
    partitions: usize,
    streaming: StreamingConfig,
    facts: Vec<(String, Tuple)>,
) -> Deployment {
    let specs: Vec<NodeSpec> = (0..partitions)
        .map(|i| NodeSpec::new(principal_name(i)))
        .collect();
    Deployment::build(
        SHARD_APP,
        &specs,
        sharded_config(partitions, streaming, facts),
    )
    .unwrap()
}

/// The unsharded reference: one node holding every fact, serial, no
/// streaming.
fn reference_unions(facts: Vec<(String, Tuple)>) -> Vec<(String, Vec<Tuple>)> {
    let mut spec = NodeSpec::new(principal_name(0));
    spec.base_facts = facts;
    let config = DeploymentConfig {
        security: SecurityConfig::new(AuthScheme::HmacSha1, EncScheme::None),
        ..DeploymentConfig::default()
    };
    let mut deployment = Deployment::build(SHARD_APP, &[spec], config).unwrap();
    let report = deployment.run().unwrap();
    assert_eq!(report.rejected_batches, 0);
    assert_eq!(report.conflicting_batches, 0);
    unions(&deployment)
}

fn unions(deployment: &Deployment) -> Vec<(String, Vec<Tuple>)> {
    RELATIONS
        .iter()
        .map(|pred| (pred.to_string(), deployment.query_union(pred)))
        .collect()
}

fn fresh_dir(label: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sbx-shard-{label}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The tentpole equality: across partitions × streaming, the union of every
/// relation matches the unsharded reference, the verdicts are clean, and —
/// at each fixed partitioning — the per-node Merkle roots are identical
/// unbatched and batched.  (The name predates the removal of the intra-node
/// worker pool, which used to be a third axis here.)
#[test]
fn sharded_unions_match_unsharded_across_partitions_workers_streaming() {
    let reference = reference_unions(base_facts());
    assert!(
        reference.iter().all(|(_, tuples)| !tuples.is_empty()),
        "every relation in the scenario must be non-empty: {reference:?}"
    );

    for partitions in [1usize, 2, 4] {
        let mut roots_by_knobs: Vec<Vec<(String, String)>> = Vec::new();
        for streaming in [
            StreamingConfig::unbatched(),
            StreamingConfig::with_knobs(16, 64),
        ] {
            let dir = fresh_dir(&format!("grid-p{partitions}"));
            let mut config = sharded_config(partitions, streaming.clone(), base_facts());
            config.durability = Some(DurabilityConfig::new(&dir));
            let specs: Vec<NodeSpec> = (0..partitions)
                .map(|i| NodeSpec::new(principal_name(i)))
                .collect();
            let mut deployment = Deployment::build(SHARD_APP, &specs, config).unwrap();
            let report = deployment.run().unwrap();
            assert_eq!(report.rejected_batches, 0, "p={partitions}");
            assert_eq!(report.conflicting_batches, 0, "p={partitions}");
            assert_eq!(
                unions(&deployment),
                reference,
                "unions diverged from the unsharded reference \
                 (partitions={partitions}, batch_max={})",
                streaming.batch_max
            );
            let shard_view = report.shard.expect("sharded run reports the shard plane");
            assert_eq!(shard_view.partitions, partitions);
            let placed: usize = shard_view
                .per_partition_tuples
                .iter()
                .map(|(_, n)| *n)
                .sum();
            assert_eq!(
                placed,
                distinct_sharded_count(),
                "every sharded base tuple is placed exactly once"
            );
            roots_by_knobs.push(deployment.edb_roots().unwrap());
            let _ = std::fs::remove_dir_all(&dir);
        }
        assert_eq!(
            roots_by_knobs[1], roots_by_knobs[0],
            "per-node Merkle roots diverged across streaming at partitions={partitions}"
        );
    }
}

/// Runtime `ingest` routes every fact to its ring owner, and the resulting
/// evaluation matches an unsharded reference that started with the extended
/// fact set.
#[test]
fn ingest_routes_to_ring_owners_and_preserves_equality() {
    let extra: Vec<(String, Tuple)> = vec![
        ("edge".to_string(), vec![Value::Int(100), Value::Int(0)]),
        ("edge".to_string(), vec![Value::Int(3), Value::Int(100)]),
        ("weight".to_string(), vec![Value::Int(100), Value::Int(30)]),
    ];
    let mut all_facts = base_facts();
    all_facts.extend(extra.clone());
    let reference = reference_unions(all_facts);

    let mut deployment = build_sharded(4, StreamingConfig::unbatched(), base_facts());
    deployment.run().unwrap();
    deployment.ingest(extra.clone()).unwrap();
    deployment.run().unwrap();
    assert_eq!(unions(&deployment), reference);

    // Each ingested fact lives at exactly its ring owner.
    let ring = shard_map(4).ring();
    for (pred, tuple) in &extra {
        let owner = ring.owner_of(&tuple[0]).to_string();
        for i in 0..4 {
            let principal = principal_name(i);
            let held = deployment.query(&principal, pred).contains(tuple);
            assert_eq!(
                held,
                principal == owner,
                "{pred} {tuple:?} should live exactly at {owner}"
            );
        }
    }

    // Non-sharded relations are not ingestible — placement is the caller's.
    assert!(deployment
        .ingest(vec![("boost".to_string(), vec![Value::Int(70)])])
        .is_err());
}

/// Membership change: growing the group from 3 to 4 members moves only a
/// minority of the base tuples (consistent hashing), keeps the global
/// content digest unchanged, and leaves every tuple at exactly its new ring
/// owner.
#[test]
fn membership_change_repartitions_minimally_and_preserves_content() {
    let specs: Vec<NodeSpec> = (0..4).map(|i| NodeSpec::new(principal_name(i))).collect();
    let config = DeploymentConfig {
        security: SecurityConfig::new(AuthScheme::HmacSha1, EncScheme::None),
        shared_facts: base_facts(),
        sharding: Some(
            ShardMap::new((0..3).map(principal_name))
                .shard("edge", 0)
                .shard("weight", 0),
        ),
        ..DeploymentConfig::default()
    };
    let mut deployment = Deployment::build(SHARD_APP, &specs, config).unwrap();
    deployment.run().unwrap();
    let unions_before = unions(&deployment);
    let digest_before = deployment.shard_union_digest().unwrap();

    let new_map = ShardMap::new((0..4).map(principal_name))
        .shard("edge", 0)
        .shard("weight", 0);
    let outcome = deployment.apply_shard_map(new_map.clone()).unwrap();

    let total = outcome.moved_tuples + outcome.retained_tuples;
    assert_eq!(
        total,
        distinct_sharded_count(),
        "every sharded base tuple is accounted for"
    );
    assert!(outcome.moved_tuples > 0, "the new member must receive keys");
    assert!(
        outcome.moved_tuples * 2 < total,
        "consistent hashing moves a minority ({} of {total})",
        outcome.moved_tuples
    );
    assert_eq!(outcome.digest, digest_before);
    assert_eq!(unions(&deployment), unions_before);

    // Every base tuple now lives at exactly its new ring owner.
    let ring = new_map.ring();
    for pred in ["edge", "weight"] {
        for tuple in deployment.query_union(pred) {
            let owner = ring.owner_of(&tuple[0]).to_string();
            for i in 0..4 {
                let principal = principal_name(i);
                let held = deployment.query(&principal, pred).contains(&tuple);
                assert_eq!(
                    held,
                    principal == owner,
                    "{pred} {tuple:?} should live exactly at {owner} after re-partitioning"
                );
            }
        }
    }
}

/// A durable sharded deployment — including post-build ingests that crossed
/// the exchange plane — recovers from its WALs to the same unions and the
/// same Merkle roots the live deployment held.
#[test]
fn sharded_wal_recovery_replays_to_identical_state() {
    let dir = fresh_dir("recover");
    let specs: Vec<NodeSpec> = (0..3).map(|i| NodeSpec::new(principal_name(i))).collect();
    let make_config = || DeploymentConfig {
        security: SecurityConfig::new(AuthScheme::HmacSha1, EncScheme::None),
        shared_facts: base_facts(),
        sharding: Some(
            ShardMap::new((0..3).map(principal_name))
                .shard("edge", 0)
                .shard("weight", 0),
        ),
        durability: Some(DurabilityConfig::new(&dir)),
        streaming: StreamingConfig::with_knobs(8, 32),
        ..DeploymentConfig::default()
    };
    let mut live = Deployment::build(SHARD_APP, &specs, make_config()).unwrap();
    live.run().unwrap();
    live.ingest(vec![
        ("edge".to_string(), vec![Value::Int(200), Value::Int(1)]),
        ("weight".to_string(), vec![Value::Int(200), Value::Int(50)]),
    ])
    .unwrap();
    live.run().unwrap();
    let live_unions = unions(&live);
    let live_roots = live.edb_roots().unwrap();
    drop(live);

    let recovered = Deployment::recover(&dir, SHARD_APP, &specs, make_config()).unwrap();
    assert_eq!(unions(&recovered), live_unions);
    assert_eq!(recovered.edb_roots().unwrap(), live_roots);
    let _ = std::fs::remove_dir_all(&dir);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// On random edge/weight sets, 2-way sharded evaluation is
    /// union-identical to the unsharded reference.
    #[test]
    fn random_fact_sets_shard_without_changing_results(
        edges in proptest::collection::vec((0i64..10, 0i64..10), 5..30),
        weights in proptest::collection::vec((0i64..10, 0i64..6), 3..12),
    ) {
        let mut facts: Vec<(String, Tuple)> = Vec::new();
        for (a, b) in &edges {
            facts.push(("edge".to_string(), vec![Value::Int(*a), Value::Int(*b)]));
        }
        for (v, w) in &weights {
            facts.push(("weight".to_string(), vec![Value::Int(*v), Value::Int(*w * 10)]));
        }
        facts.push(("boost".to_string(), vec![Value::Int(10)]));
        let reference = reference_unions(facts.clone());
        let mut deployment = build_sharded(2, StreamingConfig::unbatched(), facts);
        deployment.run().unwrap();
        prop_assert_eq!(unions(&deployment), reference);
    }
}
