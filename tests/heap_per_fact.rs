//! A stored fact costs its id row, its share of the hash buckets, and the
//! dictionary entries of the values it brought — nothing more.  A node's
//! memory is mostly its `says` facts and their `sig` rows (paper §3.2), so
//! this binary commits a few thousand of them, shaped as the generated
//! policy stores them (arity 4, and arity 5 with a 20-byte signature), and
//! holds the live heap per stored fact under a ceiling.  It also holds a
//! re-assertion of a stored fact at zero allocations, and the export side —
//! what a signed gossip deployment keeps per `says` fact it shipped — under
//! a ceiling of its own.
//!
//! The binary installs its own counting allocator.  Counts are per thread
//! (the harness's other threads never add to them).  The workspace figures
//! read no clock and repeat exactly from run to run; the deployment's
//! virtual clock advances by measured time, which can move its batching and
//! so its queues' capacities a little.

use secureblox::policy::SecurityConfig;
use secureblox::runtime::{Deployment, DeploymentConfig, NodeSpec, ReactorConfig, StreamingConfig};
use secureblox::{AuthScheme, EncScheme};
use secureblox_datalog::relation::Relation;
use secureblox_datalog::{Value, Workspace};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static LIVE_BYTES: Cell<isize> = const { Cell::new(0) };
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

fn count(bytes: isize, allocations: usize) {
    // `try_with`: a thread being torn down has no counters left to move.
    let _ = LIVE_BYTES.try_with(|live| live.set(live.get() + bytes));
    let _ = ALLOCATIONS.try_with(|total| total.set(total.get() + allocations));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size() as isize, 1);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(-(layout.size() as isize), 0);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size as isize - layout.size() as isize, 1);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn live_bytes() -> isize {
    LIVE_BYTES.with(Cell::get)
}

fn allocations() -> usize {
    ALLOCATIONS.with(Cell::get)
}

/// Facts committed: half `says_link`, half `sig_link`.
const FACTS: usize = 4_000;
/// Facts per transaction, as a node's inbox drains them.
const BATCH: usize = 40;
/// Live heap per stored fact after the commits, measured with this binary
/// on x86-64 Linux, debug and release alike.
const MEASURED_BYTES_PER_FACT: isize = 209;
/// Room above the measurement for allocator and hash-table growth steps on
/// another platform or toolchain.
const HEADROOM_BYTES: isize = 40;

const POLICY: &str = "remote_link(A, B) <- says_link(P, Q, A, B).\n\
                      says_link(P, Q, A, B) -> sig_link(P, Q, A, B, S).";

fn node(i: usize) -> Value {
    Value::str(format!("n{}", i % 20))
}

/// The `k`-th `says_link` fact: four node names, distinct over `k`.
fn says(k: usize) -> Vec<Value> {
    vec![node(k), node(k / 20), node(k / 400), node(k / 8000)]
}

/// The `k`-th `sig_link` fact: the `says` row and a 20-byte signature.
fn sig(k: usize) -> Vec<Value> {
    let mut tuple = says(k);
    let signature: Vec<u8> = (0..20u8)
        .map(|i| (k as u8).wrapping_mul(31).wrapping_add(i) ^ (k >> 8) as u8)
        .collect();
    tuple.push(Value::bytes(signature));
    tuple
}

fn policy_workspace() -> Workspace {
    let mut ws = Workspace::new();
    ws.set_strict_typing(false);
    ws.install_source(POLICY).unwrap();
    ws.fixpoint().unwrap();
    ws
}

#[test]
fn live_heap_per_stored_fact_stays_under_its_ceiling() {
    let mut ws = policy_workspace();
    let before = live_bytes();
    for start in (0..FACTS / 2).step_by(BATCH / 2) {
        let batch = (start..start + BATCH / 2)
            .flat_map(|k| {
                [
                    ("says_link".to_string(), says(k)),
                    ("sig_link".to_string(), sig(k)),
                ]
            })
            .collect();
        ws.transaction(batch).unwrap();
    }
    let stored = ws.total_facts();
    assert_eq!(ws.count("says_link") + ws.count("sig_link"), FACTS);
    let per_fact = (live_bytes() - before) / stored as isize;
    println!("{stored} stored facts, {per_fact} live heap bytes each");
    assert!(
        per_fact <= MEASURED_BYTES_PER_FACT + HEADROOM_BYTES,
        "{per_fact} B per stored fact, ceiling {} B",
        MEASURED_BYTES_PER_FACT + HEADROOM_BYTES
    );
}

#[test]
fn re_asserting_a_stored_fact_allocates_nothing() {
    let mut relation = Relation::new("sig_link", None);
    for k in 0..64 {
        relation.insert(sig(k)).unwrap();
    }
    let tuple = sig(7);
    let before = allocations();
    let (id, new) = relation.insert_new(&tuple).unwrap();
    let newly_asserted = relation.set_asserted(id, true);
    relation.set_asserted(id, true);
    assert_eq!(allocations() - before, 0, "a duplicate insert allocated");
    assert!(!new && newly_asserted);

    // Through the workspace: the relation exists, so neither the predicate
    // name nor the row is copied.
    let mut ws = policy_workspace();
    ws.assert_fact("says_link", says(3)).unwrap();
    ws.assert_fact("sig_link", sig(3)).unwrap();
    for (pred, tuple) in [("says_link", says(3)), ("sig_link", sig(3))] {
        let before = allocations();
        ws.assert_fact(pred, tuple).unwrap();
        assert_eq!(allocations() - before, 0, "re-asserting {pred} allocated");
    }
    assert_eq!(ws.asserted("sig_link"), vec![sig(3)]);
}

/// A receiver's signed import, as the generated policy checks it: the
/// `says` fact's type declaration (two principals and an int), its
/// signature (a `sig` row, the sender's secret, and a verifier UDF called
/// with every argument bound), and the import rule.  The fan-in inbox holds
/// `SIGNED_INBOX` pairs before the measured commits.
const SIGNED_POLICY: &str = "\
    says_item(P, Q, V) -> principal(P), principal(Q), int(V).\n\
    says_item(P, me[], V) -> sig_item(P, me[], V, S), secret(P, K), verifies(K, V, S).\n\
    item(V) <- says_item(P, me[], V).";
const SIGNED_INBOX: i64 = 1_000;
/// Heap allocations per signed import commit, averaged over the measured
/// commits, with this binary on x86-64 Linux: 72.0 when every constraint
/// check and the import rule ran tuple at a time, 42.0 in id space.  A
/// debug build also runs each id-space decision on the tuple path to
/// compare (80.0).
const MEASURED_ALLOCATIONS_PER_COMMIT: f64 = if cfg!(debug_assertions) { 80.0 } else { 42.0 };
/// Room above the measurement for a hash-table growth step landing inside
/// the window on another platform or toolchain.
const HEADROOM_ALLOCATIONS: f64 = 4.0;

/// The `says_item` / `sig_item` pair of value `v`, from sender `p{v % 4}`,
/// signed with that sender's secret.
fn signed_pair(v: i64) -> [(String, Vec<Value>); 2] {
    let sender = v % 4;
    let says = vec![
        Value::str(format!("p{sender}")),
        Value::str("sink"),
        Value::Int(v),
    ];
    let mut sig = says.clone();
    sig.push(Value::Int(v * 31 + sender));
    [
        ("says_item".to_string(), says),
        ("sig_item".to_string(), sig),
    ]
}

fn signed_receiver() -> Workspace {
    let mut ws = Workspace::new();
    ws.set_strict_typing(false);
    ws.register_udf("verifies", |args| {
        let bound = |i: usize| args[i].as_ref().and_then(Value::as_int);
        Ok(match (bound(0), bound(1), bound(2)) {
            (Some(k), Some(v), Some(s)) if s == v * 31 + k => {
                vec![args.iter().flatten().cloned().collect()]
            }
            _ => Vec::new(),
        })
    });
    ws.install_source(SIGNED_POLICY).unwrap();
    ws.set_singleton("me", Value::str("sink")).unwrap();
    for p in 0..4 {
        ws.assert_fact("principal", vec![Value::str(format!("p{p}"))])
            .unwrap();
        ws.assert_fact("secret", vec![Value::str(format!("p{p}")), Value::Int(p)])
            .unwrap();
    }
    ws.assert_fact("principal", vec![Value::str("sink")])
        .unwrap();
    ws.transaction((0..SIGNED_INBOX).flat_map(signed_pair).collect())
        .unwrap();
    ws
}

#[test]
fn a_signed_import_commit_stays_under_its_allocation_ceiling() {
    let mut ws = signed_receiver();
    // Warm up: plans, jobs and scratch buffers reach their steady state.
    let mut v = SIGNED_INBOX;
    for _ in 0..64 {
        ws.transaction(signed_pair(v).to_vec()).unwrap();
        v += 1;
    }
    const COMMITS: usize = 256;
    let mut counted = 0usize;
    for _ in 0..COMMITS {
        let batch = signed_pair(v).to_vec();
        let before = allocations();
        let commit = ws.transaction(batch).unwrap();
        counted += allocations() - before;
        assert_eq!(commit.added.get("item").map(|set| set.len()), Some(1));
        v += 1;
    }
    // A forged signature is still refused.
    let mut forged = signed_pair(v);
    forged[1].1[3] = Value::Int(0);
    assert!(ws.transaction(forged.to_vec()).is_err());
    let per_commit = counted as f64 / COMMITS as f64;
    println!("{per_commit:.1} allocations per signed import commit");
    assert!(
        per_commit <= MEASURED_ALLOCATIONS_PER_COMMIT + HEADROOM_ALLOCATIONS,
        "{per_commit:.1} allocations per commit, ceiling {}",
        MEASURED_ALLOCATIONS_PER_COMMIT + HEADROOM_ALLOCATIONS
    );
}

/// The gossip flood of the benchmark (every node says every link it knows
/// to every other principal, HMAC-signed) on a ring of `GOSSIP_NODES`.
const GOSSIP_APP: &str = "\
    link(N1, N2) -> node(N1), node(N2).\n\
    remote_link(N1, N2) -> node(N1), node(N2).\n\
    exportable(`remote_link).\n\
    says[`remote_link](self[], U, X, Y) <- link(X, Y), principal(U), U != self[].\n\
    says[`remote_link](self[], U, X, Y) <- remote_link(X, Y), principal(U), U != self[].";
const GOSSIP_NODES: usize = 12;
/// Live heap a run to quiescence leaves per shipped `says` fact, measured
/// with this binary on x86-64 Linux (release and debug): every node's
/// relations (the sender's `says` and `sig` rows, the receiver's copies and
/// `remote_link`), plus the export cursor and the link outboxes.  It read
/// 1,427 B while the cursor and the outboxes held predicate names, value
/// tuples and signature copies; in id space it reads 1,086 B.
const MEASURED_BYTES_PER_SHIPPED: isize = 1_086;
/// Room above the measurement for the outboxes' and the network queue's
/// capacities, which follow the run's batching, and for hash-table growth
/// steps on another platform or toolchain.  The ceiling stays well below
/// the value-keyed figure.
const HEADROOM_BYTES_PER_SHIPPED: isize = 120;

#[test]
fn live_heap_per_shipped_fact_stays_under_its_ceiling() {
    let name = |i: usize| format!("n{}", i % GOSSIP_NODES);
    let link = |a: usize, b: usize| {
        (
            "link".to_string(),
            vec![Value::str(name(a)), Value::str(name(b))],
        )
    };
    let specs: Vec<NodeSpec> = (0..GOSSIP_NODES)
        .map(|i| NodeSpec {
            principal: name(i),
            base_facts: vec![link(i, i + 1), link(i, i + GOSSIP_NODES - 1)],
        })
        .collect();
    let config = DeploymentConfig {
        security: SecurityConfig::new(AuthScheme::HmacSha1, EncScheme::None),
        shared_facts: (0..GOSSIP_NODES)
            .map(|i| ("node".to_string(), vec![Value::str(name(i))]))
            .collect(),
        streaming: StreamingConfig::default(),
        reactor: ReactorConfig::disabled(),
        durability: None,
        seed: 5,
        ..DeploymentConfig::default()
    };
    let mut deployment = Deployment::build(GOSSIP_APP, &specs, config).unwrap();
    let before = live_bytes();
    let report = deployment.run().unwrap();
    let grown = live_bytes() - before;
    assert_eq!(report.rejected_batches, 0);
    // Every node has heard every ring link and said each to every peer.
    let shipped: usize = (0..GOSSIP_NODES)
        .map(|i| {
            let said = deployment.query(&name(i), "says$remote_link");
            said.iter().filter(|t| t[0] == Value::str(name(i))).count()
        })
        .sum();
    assert_eq!(
        shipped,
        GOSSIP_NODES * 2 * GOSSIP_NODES * (GOSSIP_NODES - 1)
    );
    let per_shipped = grown / shipped as isize;
    println!("{shipped} shipped says facts, {per_shipped} live heap bytes each");
    assert!(
        per_shipped <= MEASURED_BYTES_PER_SHIPPED + HEADROOM_BYTES_PER_SHIPPED,
        "{per_shipped} B per shipped fact, ceiling {} B",
        MEASURED_BYTES_PER_SHIPPED + HEADROOM_BYTES_PER_SHIPPED
    );
}
