//! Properties of the interned columnar engine.
//!
//! * **Dictionary ids never leak** — tuples observed through `query` must
//!   serialize (via the canonical codec) byte-identically to freshly
//!   constructed [`Value`]s computed by an independent model of the program,
//!   and a store fed the reconstructed tuples must commit to the same Merkle
//!   root.  An interner id escaping into a `Value`, the codec, or a Merkle
//!   leaf changes those bytes.
//! * **Durability round-trip** — logging the fixpoint into a `FactStore`,
//!   checkpointing, and recovering reproduces the same root and fact count.
//!
//! (The property's name predates the removal of the intra-node worker pool:
//! it used to repeat the run at worker counts `{1, 2, 4, 7}` as well.)
//!
//! The generated program exercises the columnar strides the batch plane
//! special-cases (1, 2, and wide), mixed value types (ints, strings, bytes),
//! recursion, negation, and aggregation.

use proptest::prelude::*;
use secureblox_datalog::codec::serialize_tuple;
use secureblox_datalog::{Value, Workspace};
use secureblox_store::{derive_node_key, FactStore};
use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;

const PROGRAM: &str = "tc(X, Y) <- e0(X, Y).\n\
     tc(X, Z) <- e0(X, Y), tc(Y, Z).\n\
     labeled(X, Y, L) <- tc(X, Y), lab(Y, L).\n\
     wide(X, Y, Z, L) <- e0(X, Y), e1(Y, Z), lab(Z, L).\n\
     tagged(X, B) <- e1(X, Y), tag(Y, B).\n\
     filt(X, Y) <- tc(X, Y), !e1(X, Y).\n\
     cnt[X] = S <- agg<< S = sum(Y) >> e0(X, Y).\n";

fn arb_edges() -> impl Strategy<Value = Vec<(u8, u8)>> {
    proptest::collection::vec(
        (any::<u8>(), any::<u8>()).prop_map(|(a, b)| (a % 8, b % 8)),
        0..32,
    )
}

fn label(i: u8) -> Value {
    Value::str(format!("label-{i}"))
}

fn tag_bytes(i: u8) -> Value {
    Value::bytes(vec![i, 0xF0])
}

/// Install the program, load the edges plus the fixed `lab`/`tag` tables,
/// and converge.
fn run_fixpoint(e0: &[(u8, u8)], e1: &[(u8, u8)]) -> Workspace {
    let mut ws = Workspace::new();
    ws.install_source(PROGRAM).unwrap();
    for (pred, edges) in [("e0", e0), ("e1", e1)] {
        for (a, b) in edges {
            ws.assert_fact(pred, vec![Value::Int(*a as i64), Value::Int(*b as i64)])
                .unwrap();
        }
    }
    for i in 0..8u8 {
        ws.assert_fact("lab", vec![Value::Int(i as i64), label(i)])
            .unwrap();
        ws.assert_fact("tag", vec![Value::Int(i as i64), tag_bytes(i)])
            .unwrap();
    }
    ws.fixpoint().unwrap();
    ws
}

/// Independent model: transitive closure of `e0` by naive iteration.
fn reachability(e0: &[(u8, u8)]) -> BTreeSet<(u8, u8)> {
    let mut reach: BTreeSet<(u8, u8)> = e0.iter().copied().collect();
    loop {
        let mut next = reach.clone();
        for &(x, y) in &reach {
            for &(y2, z) in &reach {
                if y == y2 {
                    next.insert((x, z));
                }
            }
        }
        if next == reach {
            return reach;
        }
        reach = next;
    }
}

/// Sorted canonical encodings of a tuple set — the byte-level view both the
/// codec and the Merkle leaves are built from.
fn encodings<'a>(tuples: impl IntoIterator<Item = &'a Vec<Value>>) -> Vec<Vec<u8>> {
    let mut out: Vec<Vec<u8>> = tuples.into_iter().map(|t| serialize_tuple(t)).collect();
    out.sort();
    out
}

fn merkle_root(facts: &[(String, Vec<Value>)], tag: &str) -> String {
    let dir: PathBuf =
        std::env::temp_dir().join(format!("sbx-props-columnar-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let key = derive_node_key(1, "cols");
    let mut store = FactStore::open(&dir, &key).unwrap();
    store
        .log_inserts(facts.iter().map(|(p, t)| (p.as_str(), t)), 1)
        .unwrap();
    let root = store.base_root_hex();
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
    root
}

fn all_facts(ws: &Workspace) -> Vec<(String, Vec<Value>)> {
    let mut out = Vec::new();
    for pred in ws.predicate_names() {
        for tuple in ws.query(&pred) {
            out.push((pred.clone(), tuple));
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]
    #[test]
    fn columnar_fixpoint_is_worker_invariant_and_ids_never_leak(
        e0 in arb_edges(),
        e1 in arb_edges(),
    ) {
        let baseline = run_fixpoint(&e0, &e1);

        // ------------------------------------------------------------------
        // Dictionary ids never leak into codec bytes: every derived relation
        // must serialize identically to tuples rebuilt from an independent
        // model that never touched the interner.
        // ------------------------------------------------------------------
        let tc = reachability(&e0);
        let e1_set: BTreeSet<(u8, u8)> = e1.iter().copied().collect();
        let int = |v: u8| Value::Int(v as i64);

        let model_tc: Vec<Vec<Value>> =
            tc.iter().map(|&(x, y)| vec![int(x), int(y)]).collect();
        prop_assert!(
            encodings(&baseline.query("tc")) == encodings(&model_tc),
            "tc diverged from the model at the codec level"
        );

        let model_labeled: Vec<Vec<Value>> = tc
            .iter()
            .map(|&(x, y)| vec![int(x), int(y), label(y)])
            .collect();
        prop_assert!(
            encodings(&baseline.query("labeled")) == encodings(&model_labeled),
            "labeled (interned strings) diverged from the model"
        );

        let mut wide: BTreeSet<(u8, u8, u8)> = BTreeSet::new();
        for &(x, y) in &e0 {
            for &(y2, z) in &e1_set {
                if y == y2 {
                    wide.insert((x, y, z));
                }
            }
        }
        let model_wide: Vec<Vec<Value>> = wide
            .iter()
            .map(|&(x, y, z)| vec![int(x), int(y), int(z), label(z)])
            .collect();
        prop_assert!(
            encodings(&baseline.query("wide")) == encodings(&model_wide),
            "wide triple join diverged from the model"
        );

        let tagged: BTreeSet<(u8, u8)> = e1_set.iter().copied().collect();
        let model_tagged: Vec<Vec<Value>> = tagged
            .iter()
            .map(|&(x, y)| vec![int(x), tag_bytes(y)])
            .collect();
        prop_assert!(
            encodings(&baseline.query("tagged")) == encodings(&model_tagged),
            "tagged (interned bytes) diverged from the model"
        );

        let model_filt: Vec<Vec<Value>> = tc
            .iter()
            .filter(|pair| !e1_set.contains(pair))
            .map(|&(x, y)| vec![int(x), int(y)])
            .collect();
        prop_assert!(
            encodings(&baseline.query("filt")) == encodings(&model_filt),
            "negation diverged from the model"
        );

        let mut sums: BTreeMap<u8, i64> = BTreeMap::new();
        for &(x, y) in e0.iter().collect::<BTreeSet<_>>() {
            *sums.entry(x).or_insert(0) += y as i64;
        }
        let model_cnt: Vec<Vec<Value>> = sums
            .iter()
            .map(|(&x, &s)| vec![int(x), Value::Int(s)])
            .collect();
        prop_assert!(
            encodings(&baseline.query("cnt")) == encodings(&model_cnt),
            "aggregate diverged from the model"
        );

        // ------------------------------------------------------------------
        // Merkle leaves see values, not ids: a store fed the workspace's
        // tuples and a store fed the model's reconstructed tuples commit to
        // the same root.
        // ------------------------------------------------------------------
        let baseline_facts = all_facts(&baseline);
        let baseline_root = merkle_root(&baseline_facts, "ws");
        let mut model_facts: Vec<(String, Vec<Value>)> = Vec::new();
        for (pred, tuples) in [
            ("tc", &model_tc),
            ("labeled", &model_labeled),
            ("wide", &model_wide),
            ("tagged", &model_tagged),
            ("filt", &model_filt),
            ("cnt", &model_cnt),
        ] {
            for tuple in tuples {
                model_facts.push((pred.to_string(), tuple.clone()));
            }
        }
        for (pred, tuple) in &baseline_facts {
            if !matches!(
                pred.as_str(),
                "tc" | "labeled" | "wide" | "tagged" | "filt" | "cnt"
            ) {
                model_facts.push((pred.clone(), tuple.clone()));
            }
        }
        prop_assert!(
            merkle_root(&model_facts, "model") == baseline_root,
            "interner identity influenced a Merkle leaf"
        );

        // ------------------------------------------------------------------
        // Durability round-trip: checkpoint + recovery reproduce the root.
        // ------------------------------------------------------------------
        let dir: PathBuf = std::env::temp_dir()
            .join(format!("sbx-props-columnar-dur-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let key = derive_node_key(1, "cols");
        let mut store = FactStore::open(&dir, &key).unwrap();
        store
            .log_inserts(baseline_facts.iter().map(|(p, t)| (p.as_str(), t)), 1)
            .unwrap();
        let count = store.base_fact_count();
        store.checkpoint(1).unwrap();
        drop(store);
        let recovered = FactStore::open(&dir, &key).unwrap();
        prop_assert_eq!(recovered.base_root_hex(), baseline_root);
        prop_assert_eq!(recovered.base_fact_count(), count);
        drop(recovered);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
