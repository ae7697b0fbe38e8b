//! Integration tests that run the DatalogLB listings from the SecureBlox
//! paper, end to end, on a single workspace: the §2 background examples
//! (rules, integrity constraints, type declarations, functional
//! dependencies, singletons) and a single-node version of the §7.1
//! path-vector program (entities, aggregation, negation).

use secureblox_datalog::{DatalogError, Value, Workspace};

fn ws(source: &str) -> Workspace {
    let mut ws = Workspace::new();
    ws.install_source(source)
        .unwrap_or_else(|e| panic!("program failed to install: {e}"));
    ws
}

// ---------------------------------------------------------------------------
// §2 — rules, constraints, types
// ---------------------------------------------------------------------------

#[test]
fn section2_transitive_closure_of_link() {
    let mut ws = ws("reachable(X, Y) <- link(X, Y).\n\
                     reachable(X, Y) <- link(X, Z), reachable(Z, Y).");
    for (a, b) in [("a", "b"), ("b", "c"), ("c", "d")] {
        ws.assert_fact("link", vec![Value::str(a), Value::str(b)])
            .unwrap();
    }
    ws.fixpoint().unwrap();
    assert_eq!(
        ws.count("reachable"),
        6,
        "3 direct + 2 two-hop + 1 three-hop"
    );
    assert!(ws.contains_fact("reachable", &[Value::str("a"), Value::str("d")]));
    assert!(!ws.contains_fact("reachable", &[Value::str("d"), Value::str("a")]));
}

#[test]
fn section2_type_declaration_is_enforced_at_runtime() {
    // p(x1, x2) -> q1(x1), q2(x2).
    let mut ws = ws("p(X1, X2) -> q1(X1), q2(X2).");
    ws.assert_fact("q1", vec![Value::str("alpha")]).unwrap();
    ws.assert_fact("q2", vec![Value::str("beta")]).unwrap();
    ws.transaction(vec![(
        "p".into(),
        vec![Value::str("alpha"), Value::str("beta")],
    )])
    .unwrap();
    // A value outside q2 violates the constraint and rolls back.
    let err = ws
        .transaction(vec![(
            "p".into(),
            vec![Value::str("alpha"), Value::str("gamma")],
        )])
        .unwrap_err();
    assert!(matches!(err, DatalogError::ConstraintViolation(_)));
    assert_eq!(ws.count("p"), 1);
}

#[test]
fn section2_non_type_safe_rule_is_rejected_statically() {
    // "the following rule will be rejected as not being type-safe, because
    // the set of values in s is not guaranteed to be contained by the set qn"
    let mut strict = Workspace::new();
    let bad = "p(X1, X2) -> q1(X1), q2(X2).\n\
               p(X1, X2) <- q1(X1), s(X2).";
    assert!(strict.install_source(bad).is_err());

    // "One way to make the above rule type-safe is to declare that all
    // elements of s are guaranteed to be in qn: s(x) -> qn(x)."
    let mut fixed = Workspace::new();
    fixed
        .install_source(
            "p(X1, X2) -> q1(X1), q2(X2).\n\
             s(X) -> q2(X).\n\
             p(X1, X2) <- q1(X1), s(X2).",
        )
        .unwrap();
}

#[test]
fn section2_functional_dependency_and_singleton() {
    // p[x] = y declares a function; p[] = v declares a singleton.
    let mut ws = ws("cost[X] = C -> item(X), int[32](C).\n\
                     origin[] = V -> item(V).");
    ws.assert_fact("item", vec![Value::str("widget")]).unwrap();
    ws.assert_fact("item", vec![Value::str("gadget")]).unwrap();
    ws.assert_fact("cost", vec![Value::str("widget"), Value::Int(10)])
        .unwrap();
    ws.set_singleton("origin", Value::str("widget")).unwrap();
    ws.fixpoint().unwrap();
    assert_eq!(ws.singleton("origin"), Some(Value::str("widget")));

    // A conflicting assignment for the same key is a functional-dependency
    // violation and rolls back.
    let err = ws
        .transaction(vec![(
            "cost".into(),
            vec![Value::str("widget"), Value::Int(99)],
        )])
        .unwrap_err();
    assert!(
        matches!(
            err,
            DatalogError::FunctionalDependency { .. } | DatalogError::ConstraintViolation(_)
        ),
        "unexpected error {err}"
    );
    // The same assignment again is a no-op, not an error.
    ws.transaction(vec![(
        "cost".into(),
        vec![Value::str("widget"), Value::Int(10)],
    )])
    .unwrap();
    assert_eq!(ws.count("cost"), 1);
}

// ---------------------------------------------------------------------------
// §7.1 — the path-vector program on a single workspace
// ---------------------------------------------------------------------------

/// The §7.1 listing, restricted to one node (no says): paths are entities
/// related to their pathlink composition, bestcost is a min aggregate.
const LOCAL_PATH_VECTOR: &str = r#"
    pathvar(P) -> .
    link(N1, N2) -> node(N1), node(N2).
    path[P, Src, Dst] = C -> pathvar(P), node(Src), node(Dst), int[32](C).
    pathlink[P, H1] = H2 -> pathvar(P), node(H1), node(H2).
    bestcost[Src, Dst] = C -> node(Src), node(Dst), int[32](C).

    pathvar(P), path[P, Src, Dst] = 1, pathlink[P, Src] = Dst <- link(Src, Dst).
    bestcost[Src, Dst] = C <- agg<< C = min(Cx) >> path[P, Src, Dst] = Cx.
"#;

#[test]
fn section7_path_entities_and_min_aggregate() {
    let mut ws = ws(LOCAL_PATH_VECTOR);
    for n in ["a", "b", "c"] {
        ws.assert_fact("node", vec![Value::str(n)]).unwrap();
    }
    for (a, b) in [("a", "b"), ("b", "c"), ("a", "b")] {
        ws.assert_fact("link", vec![Value::str(a), Value::str(b)])
            .unwrap();
    }
    ws.fixpoint().unwrap();

    // One path entity per link; the duplicate link derives the same fact.
    assert_eq!(ws.count("path"), 2);
    assert_eq!(ws.count("pathvar"), 2);
    assert_eq!(ws.count("bestcost"), 2);
    let best: Vec<i64> = ws
        .query("bestcost")
        .iter()
        .filter_map(|t| t[2].as_int())
        .collect();
    assert_eq!(best, vec![1, 1]);
}

#[test]
fn section7_negation_guard_is_stratified() {
    // The advertisement rule's "!pathlink[P, N] = _" guard, in a simplified
    // form: advertise a destination only if it is not already a neighbour.
    let mut ws = Workspace::new();
    ws.install_source(
        "link(N1, N2) -> node(N1), node(N2).\n\
         twohop(X, Z) <- link(X, Y), link(Y, Z), X != Z, !link(X, Z).",
    )
    .unwrap();
    for n in ["a", "b", "c", "d"] {
        ws.assert_fact("node", vec![Value::str(n)]).unwrap();
    }
    for (a, b) in [("a", "b"), ("b", "c"), ("a", "c"), ("c", "d")] {
        ws.assert_fact("link", vec![Value::str(a), Value::str(b)])
            .unwrap();
    }
    ws.fixpoint().unwrap();
    // a→c exists directly, so only b→d and a→d are new two-hop routes.
    assert!(!ws.contains_fact("twohop", &[Value::str("a"), Value::str("c")]));
    assert!(ws.contains_fact("twohop", &[Value::str("b"), Value::str("d")]));
    assert!(ws.contains_fact("twohop", &[Value::str("a"), Value::str("d")]));
    assert_eq!(ws.count("twohop"), 2);
}

// ---------------------------------------------------------------------------
// Incremental maintenance across transactions (what §2 relies on:
// "installed rules are incrementally maintained")
// ---------------------------------------------------------------------------

#[test]
fn installed_rules_are_maintained_across_insertions_and_deletions() {
    let mut ws = ws("reachable(X, Y) <- link(X, Y).\n\
                     reachable(X, Y) <- link(X, Z), reachable(Z, Y).");
    ws.transaction(vec![
        ("link".into(), vec![Value::str("a"), Value::str("b")]),
        ("link".into(), vec![Value::str("b"), Value::str("c")]),
    ])
    .unwrap();
    assert_eq!(ws.count("reachable"), 3);

    // A later transaction extends the chain.
    ws.transaction(vec![(
        "link".into(),
        vec![Value::str("c"), Value::str("d")],
    )])
    .unwrap();
    assert_eq!(ws.count("reachable"), 6);

    // Deleting the middle link removes exactly the routes that depended on it.
    ws.retract(vec![(
        "link".into(),
        vec![Value::str("b"), Value::str("c")],
    )])
    .unwrap();
    assert_eq!(ws.count("reachable"), 2);
    assert!(ws.contains_fact("reachable", &[Value::str("a"), Value::str("b")]));
    assert!(ws.contains_fact("reachable", &[Value::str("c"), Value::str("d")]));

    // Re-adding it restores the full closure.
    ws.transaction(vec![(
        "link".into(),
        vec![Value::str("b"), Value::str("c")],
    )])
    .unwrap();
    assert_eq!(ws.count("reachable"), 6);
}

// ---------------------------------------------------------------------------
// User-defined functions in rule bodies (§2: "user-defined functions that can
// be integrated into query execution")
// ---------------------------------------------------------------------------

#[test]
fn user_defined_functions_join_into_rule_bodies() {
    let mut ws = Workspace::new();
    // A UDF that doubles its bound input: returns one full (input, output) row.
    ws.register_udf("double", |args: &[Option<secureblox_datalog::Value>]| {
        let x = args
            .first()
            .and_then(|v| v.as_ref())
            .and_then(|v| v.as_int())
            .ok_or_else(|| "double: first argument must be a bound integer".to_string())?;
        Ok(vec![vec![Value::Int(x), Value::Int(2 * x)]])
    });
    ws.install_source("twice(X, Y) <- base(X), double(X, Y).")
        .unwrap();
    for i in 1..=3 {
        ws.assert_fact("base", vec![Value::Int(i)]).unwrap();
    }
    ws.fixpoint().unwrap();
    assert_eq!(ws.count("twice"), 3);
    assert!(ws.contains_fact("twice", &[Value::Int(3), Value::Int(6)]));
}
