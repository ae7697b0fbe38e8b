//! Property-based tests for the DatalogLB engine substrate.
//!
//! The invariants exercised here are the ones the SecureBlox policies lean
//! on: the value model has a total order, relations behave like sets with
//! functional-dependency enforcement, the semi-naïve evaluator computes the
//! same closure as an independent reference implementation, incremental
//! deletion is equivalent to recomputation from scratch (and, where it falls
//! back to a fixpoint re-run, to the over-delete / re-derive pass it
//! replaced), and the parser/pretty-printer pair reaches a fixpoint.

use proptest::prelude::*;
use secureblox_datalog::constraint::{
    check_constraints, check_constraints_for_delta, check_constraints_planned,
};
use secureblox_datalog::eval::join::JoinContext;
use secureblox_datalog::eval::plan::{bound_after, compile_body_plan, full_signature};
use secureblox_datalog::eval::{Bindings, PlanCache, StatsCell};
use secureblox_datalog::intern::Interner;
use secureblox_datalog::{
    parse_program, parse_rule, BatchMiss, Constraint, FactDelta, FnvMap, Literal, PlanStats,
    Relation, Relations, UdfRegistry, Value, Workspace,
};
use std::cmp::Ordering;
use std::collections::BTreeSet;
use std::sync::Arc;

// ---------------------------------------------------------------------------
// Value: total order
// ---------------------------------------------------------------------------

fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        any::<i64>().prop_map(Value::Int),
        "[a-z][a-z0-9_]{0,8}".prop_map(Value::str),
        any::<bool>().prop_map(Value::Bool),
        proptest::collection::vec(any::<u8>(), 0..16).prop_map(Value::bytes),
        any::<u64>().prop_map(Value::Entity),
        "[a-z][a-z0-9_]{0,8}".prop_map(Value::pred),
    ]
}

proptest! {
    /// `total_cmp` is reflexive and consistent with `Eq`.
    #[test]
    fn value_cmp_reflexive_and_consistent(v in arb_value(), w in arb_value()) {
        prop_assert_eq!(v.total_cmp(&v), Ordering::Equal);
        if v == w {
            prop_assert_eq!(v.total_cmp(&w), Ordering::Equal);
        }
        if v.total_cmp(&w) == Ordering::Equal && w.total_cmp(&v) == Ordering::Equal {
            // Equal under the order in both directions ⇒ structurally equal,
            // so sorted deduplication never conflates distinct values.
            prop_assert_eq!(v, w);
        }
    }

    /// Antisymmetry: cmp(a, b) is the reverse of cmp(b, a).
    #[test]
    fn value_cmp_antisymmetric(a in arb_value(), b in arb_value()) {
        prop_assert_eq!(a.total_cmp(&b), b.total_cmp(&a).reverse());
    }

    /// Transitivity over arbitrary triples.
    #[test]
    fn value_cmp_transitive(a in arb_value(), b in arb_value(), c in arb_value()) {
        let mut vals = [a, b, c];
        vals.sort_by(|x, y| x.total_cmp(y));
        prop_assert_ne!(vals[0].total_cmp(&vals[1]), Ordering::Greater);
        prop_assert_ne!(vals[1].total_cmp(&vals[2]), Ordering::Greater);
        prop_assert_ne!(vals[0].total_cmp(&vals[2]), Ordering::Greater);
    }
}

// ---------------------------------------------------------------------------
// Relation: set + functional-dependency semantics
// ---------------------------------------------------------------------------

proptest! {
    /// Plain relations behave like a set of tuples: membership, idempotent
    /// insertion, and length all agree with a reference BTreeSet.
    #[test]
    fn relation_matches_reference_set(tuples in proptest::collection::vec(
        (0i64..20, 0i64..20), 0..40)) {
        let mut relation = Relation::new("edge", None);
        let mut reference: BTreeSet<(i64, i64)> = BTreeSet::new();
        for &(a, b) in &tuples {
            let fresh = relation.insert(vec![Value::Int(a), Value::Int(b)]).unwrap();
            prop_assert_eq!(fresh, reference.insert((a, b)));
        }
        prop_assert_eq!(relation.len(), reference.len());
        for &(a, b) in &tuples {
            prop_assert!(relation.contains(&[Value::Int(a), Value::Int(b)]));
        }
        // Sorted iteration yields exactly the reference contents, in order.
        let sorted: Vec<(i64, i64)> = relation
            .sorted()
            .into_iter()
            .map(|t| (t[0].as_int().unwrap(), t[1].as_int().unwrap()))
            .collect();
        let expected: Vec<(i64, i64)> = reference.iter().copied().collect();
        prop_assert_eq!(sorted, expected);
    }

    /// Removal brings the relation back in sync with the reference set.
    #[test]
    fn relation_remove_tracks_reference(tuples in proptest::collection::vec((0i64..10, 0i64..10), 1..30),
                                        removals in proptest::collection::vec((0i64..10, 0i64..10), 0..30)) {
        let mut relation = Relation::new("edge", None);
        let mut reference: BTreeSet<(i64, i64)> = BTreeSet::new();
        for &(a, b) in &tuples {
            relation.insert(vec![Value::Int(a), Value::Int(b)]).unwrap();
            reference.insert((a, b));
        }
        for &(a, b) in &removals {
            let removed = relation.remove(&[Value::Int(a), Value::Int(b)]);
            prop_assert_eq!(removed, reference.remove(&(a, b)));
        }
        prop_assert_eq!(relation.len(), reference.len());
    }

    /// A functional relation (`p[k] = v`) keeps exactly one value per key
    /// under insert_or_replace, and functional_lookup returns the latest one.
    #[test]
    fn functional_relation_keeps_single_value_per_key(
        entries in proptest::collection::vec((0i64..8, 0i64..100), 1..40)
    ) {
        let mut relation = Relation::new("cost", Some(1));
        let mut reference: std::collections::BTreeMap<i64, i64> = Default::default();
        for &(k, v) in &entries {
            relation.insert_or_replace(vec![Value::Int(k), Value::Int(v)]).unwrap();
            reference.insert(k, v);
        }
        prop_assert_eq!(relation.len(), reference.len());
        for (&k, &v) in &reference {
            prop_assert_eq!(
                relation.functional_lookup(&[Value::Int(k)]),
                Some(Value::Int(v))
            );
        }
    }

    /// Inserting a conflicting value for an existing key with plain `insert`
    /// is a functional-dependency violation, and the stored value is
    /// unchanged by the failed insertion.
    #[test]
    fn functional_relation_rejects_conflicts(k in 0i64..10, v1 in 0i64..50, delta in 1i64..50) {
        let v2 = v1 + delta;
        let mut relation = Relation::new("cost", Some(1));
        relation.insert(vec![Value::Int(k), Value::Int(v1)]).unwrap();
        let err = relation.insert(vec![Value::Int(k), Value::Int(v2)]);
        prop_assert!(err.is_err());
        prop_assert_eq!(relation.functional_lookup(&[Value::Int(k)]), Some(Value::Int(v1)));
        prop_assert_eq!(relation.len(), 1);
    }

    /// `select` with a partially-bound pattern returns exactly the tuples a
    /// linear scan would.
    #[test]
    fn relation_select_matches_linear_scan(tuples in proptest::collection::vec((0i64..6, 0i64..6), 0..40),
                                           probe in 0i64..6) {
        let mut relation = Relation::new("edge", None);
        for &(a, b) in &tuples {
            let _ = relation.insert(vec![Value::Int(a), Value::Int(b)]);
        }
        let selected: BTreeSet<(i64, i64)> = relation
            .select(&[Some(Value::Int(probe)), None])
            .into_iter()
            .map(|t| (t[0].as_int().unwrap(), t[1].as_int().unwrap()))
            .collect();
        let expected: BTreeSet<(i64, i64)> =
            tuples.iter().copied().filter(|&(a, _)| a == probe).collect();
        prop_assert_eq!(&selected, &expected);
        prop_assert_eq!(relation.matches_any(&[Some(Value::Int(probe)), None]), !expected.is_empty());
    }
}

// ---------------------------------------------------------------------------
// Semi-naïve evaluation vs. an independent reference closure
// ---------------------------------------------------------------------------

/// Warshall-style reference transitive closure.
// Warshall's triple loop reads best with plain indices.
#[allow(clippy::needless_range_loop)]
fn reference_closure(n: usize, edges: &BTreeSet<(usize, usize)>) -> BTreeSet<(usize, usize)> {
    let mut reach = vec![vec![false; n]; n];
    for &(a, b) in edges {
        reach[a][b] = true;
    }
    for k in 0..n {
        for i in 0..n {
            if reach[i][k] {
                for j in 0..n {
                    if reach[k][j] {
                        reach[i][j] = true;
                    }
                }
            }
        }
    }
    let mut out = BTreeSet::new();
    for (i, row) in reach.iter().enumerate() {
        for (j, &r) in row.iter().enumerate() {
            if r {
                out.insert((i, j));
            }
        }
    }
    out
}

fn node_value(i: usize) -> Value {
    Value::str(format!("n{i}"))
}

fn install_tc_workspace(edges: &BTreeSet<(usize, usize)>) -> Workspace {
    let mut ws = Workspace::new();
    ws.install_source(
        "reachable(X, Y) <- link(X, Y).\n\
         reachable(X, Y) <- link(X, Z), reachable(Z, Y).",
    )
    .unwrap();
    for &(a, b) in edges {
        ws.assert_fact("link", vec![node_value(a), node_value(b)])
            .unwrap();
    }
    ws.fixpoint().unwrap();
    ws
}

fn reachable_pairs(ws: &Workspace, n: usize) -> BTreeSet<(usize, usize)> {
    let mut out = BTreeSet::new();
    for tuple in ws.query("reachable") {
        let a = tuple[0].as_str().unwrap()[1..].parse::<usize>().unwrap();
        let b = tuple[1].as_str().unwrap()[1..].parse::<usize>().unwrap();
        assert!(a < n && b < n);
        out.insert((a, b));
    }
    out
}

fn arb_edges(nodes: usize, max_edges: usize) -> impl Strategy<Value = BTreeSet<(usize, usize)>> {
    proptest::collection::btree_set((0..nodes, 0..nodes), 0..max_edges)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The engine's recursive transitive closure equals the Warshall
    /// reference on random graphs.
    #[test]
    fn seminaive_transitive_closure_matches_reference(edges in arb_edges(7, 24)) {
        let ws = install_tc_workspace(&edges);
        prop_assert_eq!(reachable_pairs(&ws, 7), reference_closure(7, &edges));
    }

    /// Feeding the same links in several separate transactions produces the
    /// same closure as one big fixpoint (incremental insertion is exact).
    #[test]
    fn incremental_insertion_matches_batch(edges in arb_edges(6, 18), split in 1usize..5) {
        // Batch workspace.
        let batch_ws = install_tc_workspace(&edges);

        // Incremental workspace: same rules, links arrive in `split` chunks.
        let mut inc_ws = Workspace::new();
        inc_ws
            .install_source(
                "reachable(X, Y) <- link(X, Y).\n\
                 reachable(X, Y) <- link(X, Z), reachable(Z, Y).",
            )
            .unwrap();
        let edge_list: Vec<_> = edges.iter().copied().collect();
        for chunk in edge_list.chunks(split.max(1)) {
            let batch = chunk
                .iter()
                .map(|&(a, b)| ("link".to_string(), vec![node_value(a), node_value(b)]))
                .collect();
            inc_ws.transaction(batch).unwrap();
        }
        prop_assert_eq!(reachable_pairs(&inc_ws, 6), reference_closure(6, &edges));
        prop_assert_eq!(reachable_pairs(&inc_ws, 6), reachable_pairs(&batch_ws, 6));
    }

    /// Incremental deletion leaves exactly the closure of the remaining
    /// edges — equivalent to recomputing from scratch.
    #[test]
    fn dred_deletion_matches_recomputation(edges in arb_edges(6, 18),
                                           delete_mask in proptest::collection::vec(any::<bool>(), 18)) {
        let mut ws = install_tc_workspace(&edges);
        let edge_list: Vec<_> = edges.iter().copied().collect();
        let deleted: BTreeSet<(usize, usize)> = edge_list
            .iter()
            .enumerate()
            .filter(|(i, _)| delete_mask.get(*i).copied().unwrap_or(false))
            .map(|(_, &e)| e)
            .collect();
        if !deleted.is_empty() {
            let batch = deleted
                .iter()
                .map(|&(a, b)| ("link".to_string(), vec![node_value(a), node_value(b)]))
                .collect();
            ws.retract(batch).unwrap();
        }
        let remaining: BTreeSet<(usize, usize)> =
            edges.difference(&deleted).copied().collect();
        prop_assert_eq!(reachable_pairs(&ws, 6), reference_closure(6, &remaining));
    }

    /// Aggregation: the `min` aggregate over per-pair path costs equals the
    /// reference minimum.
    #[test]
    fn min_aggregate_matches_reference(costs in proptest::collection::vec((0i64..5, 0i64..5, 1i64..100), 1..30)) {
        let mut ws = Workspace::new();
        ws.install_source("best(X, Y, C) <- agg<< C = min(Cx) >> cost(X, Y, Cx).").unwrap();
        let mut reference: std::collections::BTreeMap<(i64, i64), i64> = Default::default();
        for &(x, y, c) in &costs {
            ws.assert_fact("cost", vec![Value::Int(x), Value::Int(y), Value::Int(c)]).unwrap();
            reference
                .entry((x, y))
                .and_modify(|cur| *cur = (*cur).min(c))
                .or_insert(c);
        }
        ws.fixpoint().unwrap();
        let got: std::collections::BTreeMap<(i64, i64), i64> = ws
            .query("best")
            .into_iter()
            .map(|t| {
                ((t[0].as_int().unwrap(), t[1].as_int().unwrap()), t[2].as_int().unwrap())
            })
            .collect();
        prop_assert_eq!(got, reference);
    }
}

// ---------------------------------------------------------------------------
// Transactional constraint semantics
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A batch that violates a type constraint rolls back in full; a batch
    /// that satisfies it commits in full.  This is the §5.2 ACID property the
    /// security policies are built on.
    #[test]
    fn constraint_violation_rolls_back_whole_batch(
        links in proptest::collection::vec((0usize..5, 0usize..5), 1..10),
        include_bad in any::<bool>()
    ) {
        let mut ws = Workspace::new();
        ws.install_source(
            "link(X, Y) -> node(X), node(Y).\n\
             reachable(X, Y) <- link(X, Y).\n\
             reachable(X, Y) <- link(X, Z), reachable(Z, Y).",
        )
        .unwrap();
        for i in 0..5 {
            ws.assert_fact("node", vec![node_value(i)]).unwrap();
        }
        let mut batch: Vec<(String, Vec<Value>)> = links
            .iter()
            .map(|&(a, b)| ("link".to_string(), vec![node_value(a), node_value(b)]))
            .collect();
        if include_bad {
            // "n99" is not a declared node, so the constraint must fail.
            batch.push(("link".to_string(), vec![node_value(0), Value::str("n99")]));
        }
        let before = ws.total_facts();
        let result = ws.transaction(batch);
        if include_bad {
            prop_assert!(result.is_err());
            prop_assert_eq!(ws.total_facts(), before);
            prop_assert_eq!(ws.count("reachable"), 0);
        } else {
            result.unwrap();
            let expected_links: BTreeSet<(usize, usize)> = links.iter().copied().collect();
            prop_assert_eq!(ws.count("link"), expected_links.len());
            prop_assert!(ws.count("reachable") >= expected_links.len());
        }
    }
}

// ---------------------------------------------------------------------------
// Constraints planned under the lhs bindings ≡ the textual oracle
// ---------------------------------------------------------------------------

/// Left-hand sides over `a/2`, `b/2`, `c/1`, the functional `f[X] = Y`
/// and the singleton `me[]`.  Every one binds X and Y; one binds Z by an
/// assignment only, one by a literal after a negation that reads Z unbound
/// (so a removed `b` row, which re-checks the lhs from the variables
/// `!b(X, Z)` shares with it, must not bind Z).  The first `LHS_BATCH` are
/// shapes the batch executor runs — a keyed functional read comparing its
/// value, a type check, the verifier UDF — the rest decline.  (The surface
/// syntax admits only positive atoms on the left of `->`; the AST and the
/// planner take any literal, so sides are parsed as rule bodies.)
const LHS: [&str; 13] = [
    "a(X, Y)",
    "a(X, Y), a(Y, X)",
    "a(X, Y), b(Y, 1)",
    "a(X, Y), c(me[])",
    "a(X, Y), f[X] = Y",
    "a(X, Y), int(Y)",
    "a(X, Y), pairs(X, Y)",
    "a(X, Y), Z = Y + 1",
    "a(X, Y), !c(X)",
    "a(X, Y), X < 3",
    "a(X, me[]), Y = X",
    "a(X, Y), !b(Y, W)",
    "a(X, Y), !b(X, Z), c(Z)",
];
const LHS_BATCH: usize = 7;

/// Right-hand-side pieces, one to three of which make a right-hand side:
/// existential and repeated variables, constants, the singleton (read in an
/// atom, a negation and a comparison, so with a left-hand side that does not
/// read it, a constraint whose only `me[]` read is its right-hand side's),
/// fully ground atoms, negation with bound and unbound positions,
/// comparisons, an assignment feeding a probe, the UDF verifiers, builtin
/// type checks, functional reads that bind and compare — and Z, which is
/// bound or existential depending on the left-hand side.  The first
/// `RHS_BATCH` are batch shapes.
const RHS: [&str; 23] = [
    "b(X, W)",
    "b(X, Y)",
    "b(Y, W), c(W)",
    "b(W, W)",
    "b(X, 2)",
    "c(me[])",
    "b(X, me[])",
    "even(X)",
    "pairs(Y, X)",
    "int(X)",
    "string(Y)",
    "c(Z)",
    "a(Y, X)",
    "f[Y] = W, c(W)",
    "f[X] = Y",
    "!b(me[], Y)",
    "X != me[]",
    "!c(X)",
    "!b(X, V)",
    "!b(Y, X)",
    "Y < 3",
    "U = X + 1, c(U)",
    "!c(Z)",
];
const RHS_BATCH: usize = 15;

type Rows = Vec<(String, Vec<Value>)>;

/// Few `a` rows (they drive every left-hand side) among more `b`, `c` and
/// `f` rows over a small domain, so a constraint often holds non-vacuously.
fn arb_constraint_rows() -> impl Strategy<Value = Rows> {
    let pair = |pred: &'static str, max: usize| {
        proptest::collection::vec((0i64..3, 0i64..3), 0..max).prop_map(move |rows| {
            rows.into_iter()
                .map(|(x, y)| (pred.to_string(), vec![Value::Int(x), Value::Int(y)]))
                .collect::<Rows>()
        })
    };
    let unary = proptest::collection::vec(0i64..4, 0..4).prop_map(|rows| {
        rows.into_iter()
            .map(|x| ("c".to_string(), vec![Value::Int(x)]))
            .collect::<Rows>()
    });
    (pair("a", 4), pair("b", 9), unary, pair("f", 4)).prop_map(|(a, b, c, f)| [a, b, c, f].concat())
}

/// The relations `rows` and `me` give, on `interner` when one is given and
/// each on a private dictionary otherwise.  A later `f` row for a key
/// replaces an earlier one.
fn constraint_relations(
    rows: &Rows,
    me: Option<i64>,
    interner: Option<&Arc<Interner>>,
) -> Relations {
    let relation = |pred: &str, key_arity| match interner {
        Some(interner) => Relation::with_interner(pred, key_arity, Arc::clone(interner)),
        None => Relation::new(pred, key_arity),
    };
    let mut relations: Relations = [("a", None), ("b", None), ("c", None), ("f", Some(1))]
        .into_iter()
        .map(|(pred, key_arity)| (pred.to_string(), relation(pred, key_arity)))
        .collect();
    for (pred, tuple) in rows {
        relations
            .get_mut(pred)
            .unwrap()
            .insert_or_replace(tuple.clone())
            .unwrap();
    }
    if let Some(me) = me {
        let mut singleton = relation("me", Some(0));
        singleton.insert(vec![Value::Int(me)]).unwrap();
        relations.insert("me".to_string(), singleton);
    }
    relations
}

fn constraint_udfs() -> UdfRegistry {
    let mut udfs = UdfRegistry::new();
    udfs.register("even", |args| {
        let value = secureblox_datalog::udf::require_bound(args, 0, "even")?;
        Ok(match value.as_int() {
            Some(n) if n % 2 == 0 => vec![vec![value]],
            _ => Vec::new(),
        })
    });
    // A two-argument verifier, as `hmac_verify(K, V*, S)` is: it answers its
    // arguments back when they pass, nothing when they do not.
    udfs.register("pairs", |args| {
        let x = secureblox_datalog::udf::require_bound(args, 0, "pairs")?;
        let y = secureblox_datalog::udf::require_bound(args, 1, "pairs")?;
        Ok(match (x.as_int(), y.as_int()) {
            (Some(a), Some(b)) if (a + 2 * b) % 3 != 0 => vec![vec![x, y]],
            _ => Vec::new(),
        })
    });
    udfs
}

fn side(literals: &str) -> Vec<Literal> {
    parse_rule(&format!("x(X) <- {literals}.")).unwrap().body
}

/// The (possibly negated) atoms of a constraint side.
fn atoms(literals: &[Literal]) -> impl Iterator<Item = &secureblox_datalog::Atom> {
    literals.iter().filter_map(|literal| match literal {
        Literal::Pos(atom) | Literal::Neg(atom) => Some(atom),
        Literal::Cmp(..) => None,
    })
}

/// A pool index leaning to the first `batch` entries: three draws in four
/// pick among those.
fn arb_piece(pool: usize, batch: usize) -> impl Strategy<Value = usize> {
    (0u8..4, 0..pool).prop_map(move |(lean, index)| if lean == 0 { index } else { index % batch })
}

/// On random constraints and relations the planned full check, and the
/// delta-driven check of a random change to a state that satisfied the
/// constraint, reach the textual oracle's verdict; the set the rhs is
/// planned under is bound by every lhs solution; and no plan asks for an
/// index over all of a relation's columns.  The relations share one
/// dictionary, so a delta-driven check runs in id space wherever the batch
/// executor admits the constraint — over the run, most of them do — except
/// in one case in eight, whose relations are each on a dictionary of their
/// own and whose checks all take the tuple path.
#[test]
fn planned_constraint_checks_match_the_textual_oracle() {
    let config = ProptestConfig::with_cases(256);
    let strategy = (
        arb_piece(LHS.len(), LHS_BATCH),
        proptest::collection::vec(arb_piece(RHS.len(), RHS_BATCH), 1..4),
        arb_constraint_rows(),
        (any::<bool>(), 0i64..4).prop_map(|(set, me)| set.then_some(me)),
        (any::<bool>(), 0i64..4).prop_map(|(set, me)| set.then_some(me)),
        arb_constraint_rows(),
        (proptest::collection::vec(any::<bool>(), 17), 0u8..8),
    );
    let mut totals = PlanStats::default();
    proptest::test_runner::run_cases(
        config,
        "planned_constraint_checks_match_the_textual_oracle",
        |rng| {
            let (lhs, rhs, rows, me, me_after, change, (drop_mask, private)) =
                Strategy::generate(&strategy, rng);
            let case = ConstraintCase {
                lhs: LHS[lhs],
                rhs: rhs.iter().map(|&i| RHS[i]).collect(),
                rows,
                me,
                me_after,
                change,
                drop_mask,
                shared: (private != 0).then(|| Arc::new(Interner::new())),
            };
            totals += constraint_case(case)?;
            Ok(())
        },
    );
    let (batch, tuple) = (
        totals.constraint_checks_batch,
        totals.constraint_checks_tuple,
    );
    assert!(
        batch > tuple,
        "the id-space executor decided {batch} delta-driven checks, the tuple path {tuple}"
    );
    let foreign = totals.constraint_miss(BatchMiss::ForeignDictionary);
    assert!(foreign > 0, "no case ran on private dictionaries");
}

struct ConstraintCase {
    lhs: &'static str,
    rhs: Vec<&'static str>,
    rows: Rows,
    me: Option<i64>,
    me_after: Option<i64>,
    change: Rows,
    drop_mask: Vec<bool>,
    /// The dictionary every relation shares; `None`: each its own.
    shared: Option<Arc<Interner>>,
}

/// One case of the property above; its counters.
fn constraint_case(case: ConstraintCase) -> Result<PlanStats, TestCaseError> {
    let ConstraintCase {
        lhs,
        rhs,
        rows,
        me,
        me_after,
        change,
        drop_mask,
        shared,
    } = case;
    let constraint = Constraint {
        lhs: side(lhs),
        rhs: side(&rhs.join(", ")),
    }
    .lift_singletons();
    let constraints = [constraint.clone()];
    let udfs = constraint_udfs();
    let oracle =
        |relations: &Relations| verdict(&check_constraints(&constraints, relations, &udfs));
    // The dictionary the checks are handed: the shared one, or one no
    // relation uses.
    let interner = shared.clone().unwrap_or_default();
    let mut relations = constraint_relations(&rows, me, shared.as_ref());
    let held = oracle(&relations);
    let (mut cache, stats) = (PlanCache::new(), StatsCell::default());
    let planned =
        check_constraints_planned(&constraints, &mut relations, &udfs, &mut cache, &stats);
    prop_assert!(verdict(&planned) == held, "full check of {}", constraint);

    // What the rhs is planned under, every lhs solution binds.
    let bound = bound_after(&constraint.lhs, &udfs);
    let mut unbound = Vec::new();
    JoinContext::new(&relations, &udfs, &stats)
        .join(
            &constraint.lhs,
            None,
            &mut Bindings::new(),
            &mut |solution| {
                unbound.extend(bound.iter().filter(|v| !solution.is_bound(v)).cloned());
                Ok(())
            },
        )
        .unwrap();
    prop_assert!(
        unbound.is_empty(),
        "{:?} over-estimated for {}",
        unbound,
        constraint
    );

    // Changes to a state that satisfied the constraint: each stored row
    // removed alone, each row of `change` added alone, `me[]` set, changed
    // or unset alone, and all of it at once.  A singleton read is a
    // literal, so its fact drives the check as any other does.
    let without = |dropped: &dyn Fn(usize) -> bool| -> Rows {
        let kept = rows.iter().enumerate().filter(|(i, _)| !dropped(*i));
        kept.map(|(_, row)| row.clone()).collect()
    };
    let mut changes: Vec<(Rows, Option<i64>)> = (0..rows.len())
        .map(|gone| (without(&|i| i == gone), me))
        .collect();
    changes.extend(
        change
            .iter()
            .map(|row| ([rows.clone(), vec![row.clone()]].concat(), me)),
    );
    changes.push((rows.clone(), me_after));
    changes.push(([without(&|i| drop_mask[i]), change].concat(), me_after));
    let mut changed = relations.clone();
    for (after, me_after) in changes.iter().filter(|_| held.is_none()) {
        changed = constraint_relations(after, *me_after, shared.as_ref());
        let (mut added, mut removed) = (FactDelta::default(), FactDelta::default());
        for (from, to, delta) in [
            (&changed, &relations, &mut added),
            (&relations, &changed, &mut removed),
        ] {
            for (pred, relation) in from {
                let held = |t: &Vec<Value>| to.get(pred).is_some_and(|r| r.contains(t));
                for tuple in relation.iter().filter(|t| !held(t)) {
                    delta.entry(pred.clone()).or_default().insert(tuple.clone());
                }
            }
        }
        let expected = oracle(&changed);
        let incremental = check_constraints_for_delta(
            &constraints,
            &mut changed,
            &udfs,
            &mut cache,
            &stats,
            &interner,
            &added,
            &removed,
        );
        prop_assert!(
            verdict(&incremental) == expected,
            "{} after +{:?} -{:?}",
            constraint,
            added,
            removed
        );
    }

    // Fully ground literals are membership tests: neither the plans nor
    // the relations they ran on hold an all-columns index.
    for literals in [&constraint.lhs, &constraint.rhs] {
        let initially = if std::ptr::eq(literals, &constraint.rhs) {
            bound.clone()
        } else {
            Default::default()
        };
        let plan = compile_body_plan(literals, None, &initially, &relations, &udfs);
        for spec in &plan.ensure {
            for atom in atoms(literals).filter(|a| a.pred.as_named() == Some(&spec.pred)) {
                prop_assert_ne!(full_signature(atom.terms.len()), Some(spec.cols));
            }
        }
    }
    for relations in [&relations, &changed] {
        for (pred, arity) in [("a", 2), ("b", 2), ("c", 1)] {
            prop_assert!(!relations[pred].has_index(full_signature(arity).unwrap()));
        }
    }
    Ok(stats.into_inner())
}

// ---------------------------------------------------------------------------
// One transaction path: journaled rollback, seeded and naïve first rounds
// ---------------------------------------------------------------------------

/// Recursion (`reach`), head existentials (`pathvar`/`hop`), a `min`
/// aggregate (`best`), a functional dependency and a constraint (both on
/// `cost`: one value per key, both ends declared nodes).
const TXN_PROGRAM: &str = "\
    cost[X, Y] = C -> node(X), node(Y), int(C).\n\
    reach(X, Y) <- cost[X, Y] = _.\n\
    reach(X, Y) <- cost[X, Z] = _, reach(Z, Y).\n\
    pathvar(P) -> .\n\
    pathvar(P), hop(P, X, Y, C) <- cost[X, Y] = C.\n\
    best[X] = C <- agg<< C = min(Cx) >> hop(_, X, _, Cx).\n";

/// Negation over the aggregate head makes the program non-seedable: a new
/// minimum un-blocks `offbest` for tuples no new fact touches, which only a
/// naïve first round finds.  (Under insertions `offbest` only grows, so the
/// insert-only evaluator and a from-scratch run still agree.)
const NEGATED_AGGREGATE: &str = "offbest(X, Y) <- cost[X, Y] = C, !best[X] = C.\n";

type Fact = (String, Vec<Value>);
/// Relations by predicate name, tuples in `Workspace::query` order.
type Dump = Vec<(String, Vec<Vec<Value>>)>;

fn arb_fact() -> impl Strategy<Value = Fact> {
    prop_oneof![
        // Few sources, so minima get displaced often.
        (0usize..3, 0usize..5, 1i64..5).prop_map(|(x, y, c)| (
            "cost".to_string(),
            vec![node_value(x), node_value(y), Value::Int(c)]
        )),
        (0usize..5).prop_map(|x| ("node".to_string(), vec![node_value(x)])),
        (0usize..5, 0usize..5)
            .prop_map(|(x, y)| ("reach".to_string(), vec![node_value(x), node_value(y)])),
    ]
}

fn txn_workspace(source: &str) -> Workspace {
    let mut ws = Workspace::new();
    ws.set_strict_typing(false);
    ws.install_source(source).unwrap();
    ws
}

/// Every relation, exactly (entity ids and empty relations included).
fn dump(ws: &Workspace) -> Dump {
    ws.predicate_names()
        .into_iter()
        .map(|pred| {
            let tuples = ws.query(&pred);
            (pred, tuples)
        })
        .collect()
}

/// Every non-empty relation with entity ids masked: what two workspaces
/// with different minting histories can be expected to share.
fn dump_modulo_entities(ws: &Workspace) -> Dump {
    let mut out = Vec::new();
    for (pred, tuples) in dump(ws) {
        let mut masked: Vec<Vec<Value>> = tuples
            .into_iter()
            .map(|tuple| {
                tuple
                    .into_iter()
                    .map(|v| match v {
                        Value::Entity(_) => Value::Entity(0),
                        other => other,
                    })
                    .collect()
            })
            .collect();
        masked.sort_by(|a, b| secureblox_datalog::value::tuple_total_cmp(a, b));
        if !masked.is_empty() {
            out.push((pred, masked));
        }
    }
    out
}

fn verdict<T>(
    result: &Result<T, secureblox_datalog::DatalogError>,
) -> Option<std::mem::Discriminant<secureblox_datalog::DatalogError>> {
    result.as_ref().err().map(std::mem::discriminant)
}

/// What a copy of a workspace must agree on with the original, whatever
/// the row order inside their relations: every relation up to the naming of
/// entities, and the exact set of entity ids in use.
fn observable(ws: &Workspace) -> (Dump, Vec<Vec<Value>>) {
    (dump_modulo_entities(ws), ws.query("pathvar"))
}

/// Drive the state a workspace does not expose (EDB bookkeeping,
/// existential memo, entity counter) into view: run the same follow-up on
/// copies of both workspaces and require identical verdicts and
/// observations after every step.  The refused facts are made admissible
/// and re-submitted, a ring of `cost` edges makes every `reach` tuple
/// derivable (minting more entities), then every `cost` fact is withdrawn.
/// A counter that was not restored mints different ids; a memo entry that
/// was not unwound recalls an id the restored counter hands out again, so
/// two paths share one entity; a stale or missing EDB mark decides whether
/// a derivable `reach` tuple outlives the withdrawal.
fn assert_same_hidden_state(
    a: &Workspace,
    b: &Workspace,
    refused: &[Fact],
) -> Result<(), TestCaseError> {
    let (mut a, mut b) = (a.clone(), b.clone());
    let mut admissible: Vec<Fact> = (0..5)
        .map(|i| ("node".to_string(), vec![node_value(i)]))
        .collect();
    // `reach` facts stay out: re-submitting them would legitimately mark
    // them as base facts on both sides and hide a stale mark.
    admissible.extend(refused.iter().filter(|(pred, _)| pred != "reach").cloned());
    let mut batches = vec![admissible];
    for i in 0..5 {
        // An FD conflict here means the key already has an edge: still a ring.
        batches.push(vec![(
            "cost".to_string(),
            vec![node_value(i), node_value((i + 1) % 5), Value::Int(1)],
        )]);
    }
    for batch in batches {
        prop_assert_eq!(
            verdict(&a.transaction(batch.clone())),
            verdict(&b.transaction(batch))
        );
        prop_assert_eq!(observable(&a), observable(&b));
    }
    let costs: Vec<Fact> = a
        .query("cost")
        .into_iter()
        .map(|t| ("cost".to_string(), t))
        .collect();
    prop_assert_eq!(
        verdict(&a.retract(costs.clone())),
        verdict(&b.retract(costs))
    );
    prop_assert_eq!(observable(&a), observable(&b));
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random interleavings of `transaction`, `retract` and
    /// `assert_fact`-then-`transaction`, judged without reference to the
    /// journal.  A refused call leaves the workspace equal to a clone taken
    /// before it — visibly and in its hidden state.  A committed call leaves
    /// it equal to a fresh workspace that naïve-fixpoints the committed base
    /// facts.
    #[test]
    fn transactions_commit_to_the_fixpoint_and_roll_back_to_the_clone(
        negated in any::<bool>(),
        ops in proptest::collection::vec(
            (0u8..3, proptest::collection::vec(arb_fact(), 1..4), arb_fact(), 0usize..64), 1..14)
    ) {
        let source = if negated {
            format!("{TXN_PROGRAM}{NEGATED_AGGREGATE}")
        } else {
            TXN_PROGRAM.to_string()
        };
        let mut ws = txn_workspace(&source);
        // n4 stays undeclared, so a good share of `cost` batches is refused.
        let mut committed: Vec<Fact> = (0..4)
            .map(|i| ("node".to_string(), vec![node_value(i)]))
            .collect();
        for (pred, tuple) in &committed {
            ws.assert_fact(pred, tuple.clone()).unwrap();
        }
        // Whether the last thing that happened was a committed fixpoint run
        // (a retraction that finds nothing stored runs none).
        let mut settled = false;
        for (kind, mut batch, extra, pick) in ops {
            if kind == 2 && ws.assert_fact(&extra.0, extra.1.clone()).is_ok() {
                committed.push(extra);
                settled = false;
            }
            let before = ws.clone();
            let outcome = if kind == 1 {
                // Mostly withdraw facts that are there.
                if let Some(fact) = committed.get(pick % committed.len().max(1)) {
                    batch[0] = fact.clone();
                }
                if negated {
                    // A larger minimum would strand `offbest` tuples that
                    // deletion does not chase through negation.
                    batch.retain(|(pred, _)| pred != "cost");
                }
                ws.retract(batch.clone()).map(|stats| stats.base_deleted > 0)
            } else {
                ws.transaction(batch.clone()).map(|_| true)
            };
            match outcome {
                Err(_) => {
                    prop_assert_eq!(dump(&ws), dump(&before));
                    assert_same_hidden_state(&ws, &before, &batch)?;
                }
                Ok(ran_fixpoint) => {
                    if kind == 1 {
                        committed.retain(|fact| !batch.contains(fact));
                    } else {
                        committed.extend(batch);
                    }
                    settled |= ran_fixpoint;
                    if settled {
                        let mut oracle = txn_workspace(&source);
                        for (pred, tuple) in &committed {
                            oracle.assert_fact(pred, tuple.clone()).unwrap();
                        }
                        oracle.fixpoint().unwrap();
                        prop_assert_eq!(dump_modulo_entities(&ws), dump_modulo_entities(&oracle));
                    }
                }
            }
        }
    }
}

/// A retraction can mint entities before it is refused: withdrawing
/// `owner(a)` makes the negated body true, re-derivation mints the `orphan`
/// entity, and only then does the constraint fire.  The rollback must take
/// the mint back — relations, memo and counter — so the next entity minted
/// is the one a workspace that never attempted the retraction mints.
#[test]
fn refused_retraction_unwinds_minted_entities() {
    let mut ws = txn_workspace(
        "pathvar(P) -> .\n\
         pathvar(P), orphan(P, X) <- item(X), !owner(X).\n\
         orphan(P, X) -> allowed(X).\n\
         item(a). owner(a).",
    );
    ws.fixpoint().unwrap();
    let mut untouched = ws.clone();

    let owner_a = vec![("owner".to_string(), vec![Value::str("a")])];
    let refused = ws.retract(owner_a.clone());
    assert!(
        matches!(
            refused,
            Err(secureblox_datalog::DatalogError::ConstraintViolation(_))
        ),
        "{refused:?}"
    );
    assert_eq!(dump(&ws), dump(&untouched));

    // A different binding mints next: a leaked counter would skip an id.
    let item_b = vec![
        ("allowed".to_string(), vec![Value::str("b")]),
        ("item".to_string(), vec![Value::str("b")]),
    ];
    // Then the refused binding, now admissible: a leaked memo entry would be
    // recalled where the untouched workspace mints.
    let allow_a = vec![("allowed".to_string(), vec![Value::str("a")])];
    for w in [&mut ws, &mut untouched] {
        w.transaction(item_b.clone()).unwrap();
        w.transaction(allow_a.clone()).unwrap();
        w.retract(owner_a.clone()).unwrap();
    }
    assert_eq!(ws.count("orphan"), 2);
    assert_eq!(dump(&ws), dump(&untouched));
}

// ---------------------------------------------------------------------------
// Deletion: the proof search against a from-scratch evaluation, and the
// re-run fallback against the over-delete / re-derive it replaced
// ---------------------------------------------------------------------------

/// Rule groups the positive programs are drawn from: linear and non-linear
/// transitive closure, two mutually recursive predicates, and a
/// non-recursive fan-out with a comparison and a UDF shaped like the
/// generated `says$T` / `sig$T` rules (`me[]` in the head, `mac` computing
/// the signature).
const POSITIVE_GROUPS: [&str; 4] = [
    "lin(X, Y) <- e(X, Y).\n\
     lin(X, Y) <- e(X, Z), lin(Z, Y).\n",
    "tc(X, Y) <- e(X, Y).\n\
     tc(X, Y) <- f(X, Y).\n\
     tc(X, Z) <- tc(X, Y), tc(Y, Z).\n",
    "odd(X, Y) <- e(X, Y).\n\
     even(X, Z) <- odd(X, Y), f(Y, Z).\n\
     odd(X, Z) <- even(X, Y), e(Y, Z).\n",
    "says(me[], U, X, Y) <- e(X, Y), peer(U), U != me[].\n\
     sig(me[], U, X, Y, S) <- says(me[], U, X, Y), secret(U, K), mac(K, X, Y, S).\n",
];

/// Rule groups whose predicates a proof search cannot decide: an aggregate
/// over a recursive closure and a positive rule reading it, negation over a
/// closure and over a base predicate, and head existentials with a rule
/// reading what they mint.
const RERUN_GROUPS: [&str; 3] = [
    "r(X, Y) <- e(X, Y).\n\
     r(X, Z) <- r(X, Y), e(Y, Z).\n\
     fan[X] = N <- agg<< N = count(Y) >> r(X, Y).\n\
     wide(X) <- fan[X] = N, N > 2.\n",
    "s(X, Y) <- f(X, Y).\n\
     s(X, Z) <- s(X, Y), f(Y, Z).\n\
     oneway(X, Y) <- s(X, Y), !s(Y, X).\n\
     open(X) <- peer(X), !blocked(X).\n",
    "pathvar(P) -> .\n\
     pathvar(P), hop(P, X, Y) <- e(X, Y), f(Y, X).\n\
     via(X) <- hop(_, X, _).\n",
];

const DELETION_NODES: usize = 5;

/// Every base fact a deletion test can assert: `e` and `f` edges, peers,
/// their secrets, and blocks.
fn deletion_pool() -> Vec<Fact> {
    let node = |i: usize| node_value(i);
    let mut pool = Vec::new();
    for x in 0..DELETION_NODES {
        for y in 0..DELETION_NODES {
            pool.push(("e".to_string(), vec![node(x), node(y)]));
            pool.push(("f".to_string(), vec![node(x), node(y)]));
        }
    }
    for p in 0..3 {
        pool.push(("peer".to_string(), vec![node(p)]));
        pool.push((
            "secret".to_string(),
            vec![node(p), Value::Int(p as i64 + 7)],
        ));
        pool.push(("blocked".to_string(), vec![node(p)]));
    }
    pool
}

/// `mac(K, X, Y, S)`: a keyed digest of the pair.
fn mac(args: &[Option<Value>]) -> Result<Vec<Vec<Value>>, String> {
    let bound = |i: usize| secureblox_datalog::udf::require_bound(args, i, "mac");
    let (key, x, y) = (bound(0)?, bound(1)?, bound(2)?);
    let text = format!("{key}/{x}/{y}");
    let digest = text
        .bytes()
        .fold(17i64, |h, b| h.wrapping_mul(31).wrapping_add(i64::from(b)));
    Ok(vec![vec![key, x, y, Value::Int(digest)]])
}

fn deletion_workspace(source: &str, facts: &BTreeSet<usize>, pool: &[Fact]) -> Workspace {
    let mut ws = Workspace::new();
    ws.set_strict_typing(false);
    ws.register_udf("mac", mac);
    ws.install_source(source).unwrap();
    ws.set_singleton("me", node_value(0)).unwrap();
    for &i in facts {
        ws.assert_fact(&pool[i].0, pool[i].1.clone()).unwrap();
    }
    ws.fixpoint().unwrap();
    ws
}

/// The program of the groups `mask` picks (at least one).
fn program_of(groups: &[&str], mask: usize) -> String {
    let picked: Vec<&str> = groups
        .iter()
        .enumerate()
        .filter(|(i, _)| mask & (1 << i) != 0)
        .map(|(_, group)| *group)
        .collect();
    if picked.is_empty() {
        groups[0].to_string()
    } else {
        picked.concat()
    }
}

/// A delta per predicate, tuples sorted, entity ids masked when `mask`.
fn delta_dump(delta: &FactDelta, mask: bool) -> Dump {
    let mut out: Dump = delta
        .iter()
        .filter(|(_, tuples)| !tuples.is_empty())
        .map(|(pred, tuples)| {
            let mut tuples: Vec<Vec<Value>> = tuples
                .iter()
                .map(|tuple| {
                    tuple
                        .iter()
                        .map(|v| match v {
                            Value::Entity(_) if mask => Value::Entity(0),
                            other => other.clone(),
                        })
                        .collect()
                })
                .collect();
            tuples.sort_by(|a, b| secureblox_datalog::value::tuple_total_cmp(a, b));
            (pred.clone(), tuples)
        })
        .collect();
    out.sort_by(|a, b| a.0.cmp(&b.0));
    out
}

/// `after` minus `before`, per predicate, as a dump.
fn dump_minus(after: &Dump, before: &Dump) -> Dump {
    let mut out = Dump::new();
    for (pred, tuples) in after {
        let held = before.iter().find(|(p, _)| p == pred).map(|(_, t)| t);
        let fresh: Vec<Vec<Value>> = tuples
            .iter()
            .filter(|t| !held.is_some_and(|held| held.contains(t)))
            .cloned()
            .collect();
        if !fresh.is_empty() {
            out.push((pred.clone(), fresh));
        }
    }
    out.sort_by(|a, b| a.0.cmp(&b.0));
    out
}

/// One step of a deletion run: withdraw some base facts (mostly held ones)
/// or re-assert some, by pool index.
fn arb_deletion_ops() -> impl Strategy<Value = Vec<(bool, Vec<usize>)>> {
    proptest::collection::vec(
        (any::<bool>(), proptest::collection::vec(0usize..64, 1..4)),
        1..8,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Positive programs under random retract / re-assert sequences: after
    /// every commit the relations equal a from-scratch evaluation of the
    /// base facts left, and the commit's `added` / `removed` are exactly the
    /// difference it made.
    #[test]
    fn deletion_of_positive_programs_matches_a_from_scratch_evaluation(
        mask in 1usize..16,
        initial in proptest::collection::vec(any::<bool>(), 64),
        ops in arb_deletion_ops(),
    ) {
        let pool = deletion_pool();
        let source = program_of(&POSITIVE_GROUPS, mask);
        let mut held: BTreeSet<usize> =
            (0..pool.len()).filter(|&i| initial[i % initial.len()]).collect();
        let mut ws = deletion_workspace(&source, &held, &pool);
        for (retract, picks) in ops {
            let before = dump_modulo_entities(&ws);
            // Withdrawals mostly name held facts; a re-assert anything.
            let heldv: Vec<usize> = held.iter().copied().collect();
            let picks: Vec<usize> = picks
                .iter()
                .map(|&p| if retract && !heldv.is_empty() && p % 4 != 0 {
                    heldv[p % heldv.len()]
                } else {
                    p % pool.len()
                })
                .collect();
            let batch: Vec<Fact> = picks.iter().map(|&i| pool[i].clone()).collect();
            let commit = if retract {
                held.retain(|i| !picks.contains(i));
                ws.retract(batch).unwrap()
            } else {
                held.extend(picks.iter().copied());
                ws.transaction(batch).unwrap()
            };
            let after = dump_modulo_entities(&ws);
            let scratch = deletion_workspace(&source, &held, &pool);
            let expected = dump_modulo_entities(&scratch);
            prop_assert!(after == expected, "{source} after {picks:?}:\n{after:?}\n!=\n{expected:?}");
            prop_assert_eq!(delta_dump(&commit.added, false), dump_minus(&after, &before));
            prop_assert_eq!(delta_dump(&commit.removed, false), dump_minus(&before, &after));
            if retract {
                // A positive program never needs the re-run.
                prop_assert_eq!(commit.rederived, 0);
            }
        }
    }

    /// Programs with aggregates, negation and head existentials, from the
    /// same states: a retraction reaches the verdict, relations and deltas
    /// of the over-delete / re-derive pass it replaced (entity ids masked:
    /// the two re-runs may mint in different orders).
    #[test]
    fn deletion_with_a_rerun_matches_rederivation(
        mask in 1usize..8,
        positive in 0usize..16,
        initial in proptest::collection::vec(any::<bool>(), 64),
        ops in arb_deletion_ops(),
    ) {
        let pool = deletion_pool();
        let mut source = program_of(&RERUN_GROUPS, mask);
        if positive != 0 {
            source.push_str(&program_of(&POSITIVE_GROUPS, positive));
        }
        let mut held: BTreeSet<usize> =
            (0..pool.len()).filter(|&i| initial[i % initial.len()]).collect();
        let mut ws = deletion_workspace(&source, &held, &pool);
        for (retract, picks) in ops {
            let heldv: Vec<usize> = held.iter().copied().collect();
            let picks: Vec<usize> = picks
                .iter()
                .map(|&p| if retract && !heldv.is_empty() && p % 4 != 0 {
                    heldv[p % heldv.len()]
                } else {
                    p % pool.len()
                })
                .collect();
            let batch: Vec<Fact> = picks.iter().map(|&i| pool[i].clone()).collect();
            if !retract {
                held.extend(picks.iter().copied());
                ws.transaction(batch).unwrap();
                // A transaction adding a tuple some rule negates leaves what
                // that negation derived in place (maintenance under negation
                // is inflationary).  From such a state the passes differ by
                // design — the proof search drops a stale tuple the
                // over-delete pass never reaches — so both start from the
                // from-scratch state instead.
                let scratch = deletion_workspace(&source, &held, &pool);
                if dump_modulo_entities(&ws) != dump_modulo_entities(&scratch) {
                    ws = scratch;
                }
                continue;
            }
            held.retain(|i| !picks.contains(i));
            let mut oracle = ws.clone();
            let expected = oracle.retract_rederiving(batch.clone());
            let got = ws.retract(batch);
            prop_assert_eq!(verdict(&got), verdict(&expected));
            let (now, then) = (dump_modulo_entities(&ws), dump_modulo_entities(&oracle));
            prop_assert!(now == then, "{source} after withdrawing {picks:?}:\n{now:?}\n!=\n{then:?}");
            if let (Ok(got), Ok(expected)) = (got, expected) {
                prop_assert_eq!(delta_dump(&got.added, true), delta_dump(&expected.added, true));
                prop_assert_eq!(delta_dump(&got.removed, true), delta_dump(&expected.removed, true));
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Asserted bits: the flags a relation keeps per row ≡ the set of facts
// stated and not withdrawn
// ---------------------------------------------------------------------------

/// A functional predicate (FD conflicts), a constraint (refusals), closures
/// that derive facts which are also asserted, an aggregate whose asserted
/// values a recomputation displaces, and a rule reading a singleton.
const ASSERTED_PROGRAM: &str = "\
    cost[X, Y] = C -> node(X), node(Y), int(C).\n\
    reach(X, Y) <- cost[X, Y] = _.\n\
    reach(X, Y) <- cost[X, Z] = _, reach(Z, Y).\n\
    best[X] = C <- agg<< C = min(Cx) >> cost[X, _] = Cx.\n\
    near(X) <- reach(me[], X).\n";

fn arb_asserted_fact() -> impl Strategy<Value = Fact> {
    prop_oneof![
        (0usize..5, 0usize..5, 1i64..3).prop_map(|(x, y, c)| (
            "cost".to_string(),
            vec![node_value(x), node_value(y), Value::Int(c)]
        )),
        (0usize..5).prop_map(|x| ("node".to_string(), vec![node_value(x)])),
        (0usize..5, 0usize..5)
            .prop_map(|(x, y)| ("reach".to_string(), vec![node_value(x), node_value(y)])),
        (0usize..5).prop_map(|x| ("near".to_string(), vec![node_value(x)])),
        (0usize..3, 1i64..3)
            .prop_map(|(x, c)| ("best".to_string(), vec![node_value(x), Value::Int(c)])),
    ]
}

/// Every asserted fact of `ws`, after checking what the bits themselves
/// promise: only live rows carry one.
fn asserted_facts(ws: &Workspace) -> Result<secureblox_datalog::FnvSet<Fact>, TestCaseError> {
    let mut out = secureblox_datalog::FnvSet::default();
    for pred in ws.predicate_names() {
        let relation = ws.relation(&pred).unwrap();
        for id in relation.asserted_ids() {
            prop_assert!(
                relation.is_live(id),
                "{pred}: freed slot {id} keeps its bit"
            );
        }
        out.extend(ws.asserted(&pred).into_iter().map(|t| (pred.clone(), t)));
    }
    Ok(out)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random transactions (some refused by the constraint or an FD
    /// conflict), retractions, `assert_fact` and `set_singleton`: after
    /// every call the asserted bits equal a model set of the facts stated
    /// and not withdrawn, every one of them is stored, and no freed slot
    /// keeps a bit — so a recycled `TupleId` starts unasserted.  Each
    /// retraction also reaches the relations, verdict and bits of the
    /// over-delete / re-derive pass.
    #[test]
    fn asserted_bits_track_the_stated_facts(
        ops in proptest::collection::vec(
            (0u8..4, proptest::collection::vec(arb_asserted_fact(), 1..4), 0usize..64), 1..16)
    ) {
        let mut ws = txn_workspace(ASSERTED_PROGRAM);
        let mut model = secureblox_datalog::FnvSet::default();
        for i in 0..4 {
            let fact = ("node".to_string(), vec![node_value(i)]);
            ws.assert_fact(&fact.0, fact.1.clone()).unwrap();
            model.insert(fact);
        }
        ws.set_singleton("me", node_value(0)).unwrap();
        model.insert(("me".to_string(), vec![node_value(0)]));
        for (kind, mut batch, pick) in ops {
            match kind {
                0 => {
                    if ws.transaction(batch.clone()).is_ok() {
                        model.extend(batch);
                    }
                }
                1 => {
                    // Mostly withdraw facts that are asserted, the
                    // singleton `near` reads among them.
                    let mut stated: Vec<Fact> = model.iter().cloned().collect();
                    if pick % 4 != 0 && !stated.is_empty() {
                        stated.sort_by(|a, b| a.0.cmp(&b.0).then_with(|| {
                            secureblox_datalog::value::tuple_total_cmp(&a.1, &b.1)
                        }));
                        batch[0] = stated[pick % stated.len()].clone();
                    }
                    let mut oracle = ws.clone();
                    let expected = oracle.retract_rederiving(batch.clone());
                    let got = ws.retract(batch.clone());
                    prop_assert_eq!(verdict(&got), verdict(&expected));
                    prop_assert_eq!(dump(&ws), dump(&oracle));
                    prop_assert_eq!(asserted_facts(&ws)?, asserted_facts(&oracle)?);
                    if got.is_ok() {
                        for fact in &batch {
                            model.remove(fact);
                        }
                    }
                }
                2 => {
                    let (pred, tuple) = batch.swap_remove(0);
                    if ws.assert_fact(&pred, tuple.clone()).is_ok() {
                        model.insert((pred, tuple));
                    }
                }
                _ => {
                    let me = node_value(pick % 5);
                    ws.set_singleton("me", me.clone()).unwrap();
                    model.retain(|(pred, _)| pred != "me");
                    model.insert(("me".to_string(), vec![me]));
                }
            }
            // A recomputed minimum displaces an asserted `best` value, and
            // the value's bit goes with its row.
            model.retain(|(pred, tuple)| pred != "best" || ws.contains_fact(pred, tuple));
            let flags = asserted_facts(&ws)?;
            prop_assert_eq!(&flags, &model);
            for (pred, tuple) in &flags {
                prop_assert!(ws.contains_fact(pred, tuple), "{pred}{tuple:?} asserted, not stored");
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Bindings: the substitution stack ≡ a map with snapshots
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
enum BindingOp {
    Bind(usize, i64),
    Unbind(usize),
    Mark,
    Restore,
}

const BINDING_VARS: [&str; 5] = ["A", "B", "C", "Src", "Dst"];

fn arb_binding_op() -> impl Strategy<Value = BindingOp> {
    let bind =
        || (0..BINDING_VARS.len(), 0i64..3).prop_map(|(var, value)| BindingOp::Bind(var, value));
    // Binds twice as likely as each other operation, so stacks grow.
    prop_oneof![
        bind(),
        bind(),
        (0..BINDING_VARS.len()).prop_map(BindingOp::Unbind),
        Just(BindingOp::Mark),
        Just(BindingOp::Restore),
    ]
}

proptest! {
    /// Random bind / unbind / mark / restore sequences on `Bindings` agree
    /// with a map in which a mark is a snapshot and a restore returns to the
    /// latest one.  `unbind` keeps to its contract: it only removes a
    /// variable bound since the innermost outstanding mark.
    #[test]
    fn bindings_stack_matches_a_map_model(
        ops in proptest::collection::vec(arb_binding_op(), 0..64),
    ) {
        let mut bindings = Bindings::new();
        let mut model: FnvMap<String, Value> = FnvMap::default();
        let mut marks: Vec<(usize, FnvMap<String, Value>)> = Vec::new();
        for op in ops {
            match op {
                BindingOp::Bind(var, value) => {
                    let (var, value) = (BINDING_VARS[var], Value::Int(value));
                    let consistent = model.get(var).is_none_or(|held| *held == value);
                    prop_assert_eq!(bindings.bind(var, value.clone()), consistent);
                    model.entry(var.to_string()).or_insert(value);
                }
                BindingOp::Unbind(var) => {
                    let var = BINDING_VARS[var];
                    if marks.last().is_none_or(|(_, snapshot)| !snapshot.contains_key(var)) {
                        bindings.unbind(var);
                        model.remove(var);
                    }
                }
                BindingOp::Mark => marks.push((bindings.mark(), model.clone())),
                BindingOp::Restore => {
                    if let Some((mark, snapshot)) = marks.pop() {
                        bindings.restore(mark);
                        model = snapshot;
                    }
                }
            }
            prop_assert_eq!(bindings.len(), model.len());
            prop_assert_eq!(bindings.is_empty(), model.is_empty());
            for var in BINDING_VARS {
                prop_assert_eq!(bindings.get(var), model.get(var));
            }
            let mut items: Vec<(String, Value)> =
                model.iter().map(|(var, value)| (var.clone(), value.clone())).collect();
            items.sort_by(|a, b| a.0.cmp(&b.0));
            let rendered: Vec<String> =
                items.iter().map(|(var, value)| format!("{var} = {value}")).collect();
            prop_assert_eq!(bindings.sorted_items(), items);
            let rendered = if rendered.is_empty() { "{}".to_string() } else { rendered.join(", ") };
            prop_assert_eq!(bindings.render(), rendered);
        }
    }
}

// ---------------------------------------------------------------------------
// Parser / pretty-printer fixpoint
// ---------------------------------------------------------------------------

fn arb_ident() -> impl Strategy<Value = String> {
    "[a-z][a-z0-9_]{0,6}"
}

/// A small random—but always well-formed—program: type declarations, facts,
/// and range-restricted rules over binary predicates.  Generic-rule syntax is
/// excluded here (its `Display` form summarises templates); the structural
/// guarantees of generated code are covered by the `secureblox-generics`
/// property tests instead.
fn arb_program_text() -> impl Strategy<Value = String> {
    let decl = (arb_ident(), arb_ident(), arb_ident())
        .prop_map(|(p, t1, t2)| format!("{p}(X, Y) -> {t1}(X), {t2}(Y)."));
    let fact =
        (arb_ident(), arb_ident(), 0i64..10_000).prop_map(|(p, a, i)| format!("{p}({a}, {i})."));
    let rule = (arb_ident(), arb_ident(), arb_ident())
        .prop_map(|(h, b1, b2)| format!("{h}(X, Y) <- {b1}(X, Z), {b2}(Z, Y)."));
    let constraint =
        (arb_ident(), arb_ident()).prop_map(|(p, q)| format!("{p}(X, Y) -> {q}(X), {q}(Y)."));
    proptest::collection::vec(prop_oneof![decl, fact, rule, constraint], 1..12)
        .prop_map(|stmts| stmts.join("\n"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Pretty-printing a parsed program and re-parsing it reaches a fixpoint:
    /// the second print equals the first.  This is what makes the
    /// BloxGenerics "reify program from relational representation" step
    /// trustworthy.
    #[test]
    fn parse_display_parse_is_a_fixpoint(source in arb_program_text()) {
        let first = parse_program(&source).unwrap();
        let printed = first.to_string();
        let second = parse_program(&printed)
            .unwrap_or_else(|e| panic!("pretty-printed program failed to parse: {e}\n{printed}"));
        prop_assert_eq!(printed, second.to_string());
    }

    /// Statement count is preserved by the roundtrip.
    #[test]
    fn roundtrip_preserves_statement_count(source in arb_program_text()) {
        let first = parse_program(&source).unwrap();
        let second = parse_program(&first.to_string()).unwrap();
        prop_assert_eq!(first.statements.len(), second.statements.len());
    }
}
