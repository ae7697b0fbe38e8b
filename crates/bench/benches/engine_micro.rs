//! Ablation B: DatalogLB engine micro-benchmarks — fixpoint evaluation,
//! transactional batches with constraint checking (a held fact re-asserted,
//! and a new one derived through a rule and checked), a signed fact
//! imported through a rule that reads `self[]`, incremental deletion
//! (build, first fixpoint and steady-state retraction timed apart on a chain
//! where everything reached goes; a chord withdrawn from a ring where almost
//! nothing does), the
//! signature-shaped constraint check against a growing inbox — of a new
//! signed fact, and of a withdrawn one — and the
//! planner-vs-naive join comparison (a 3-literal rule over 10k-tuple
//! relations, nested-loop scans vs selectivity-ordered index probes).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use secureblox_datalog::{EvalConfig, Tuple, Value, Workspace};
use std::cell::RefCell;
use std::time::Instant;

/// Join-heavy workload: `out(X, W) <- r(X, Y), s(Y, Z), t(Z, W).` over three
/// chain relations of `n` tuples each.  The naive evaluator executes this as
/// |r|·|s| (+ matches·|t|) scan work; the planner probes `s` and `t` on their
/// bound first column.
const TRIPLE_JOIN_TUPLES: usize = 10_000;

fn triple_join_workspace(n: usize, use_planner: bool) -> Workspace {
    let mut ws = Workspace::with_config(EvalConfig {
        use_planner,
        ..EvalConfig::default()
    });
    ws.install_source("out(X, W) <- r(X, Y), s(Y, Z), t(Z, W).")
        .unwrap();
    for i in 0..n as i64 {
        ws.assert_fact("r", vec![Value::Int(i), Value::Int(i + 1)])
            .unwrap();
        ws.assert_fact("s", vec![Value::Int(i + 1), Value::Int(i + 2)])
            .unwrap();
        ws.assert_fact("t", vec![Value::Int(i + 2), Value::Int(i + 3)])
            .unwrap();
    }
    ws
}

/// Re-evaluate every rule over the full relations.  A converged workspace
/// answers `fixpoint()` with a seeded no-op, so re-assert a base fact it
/// already holds first: a direct assertion invalidates convergence and the
/// next fixpoint runs the naive first round (deriving only duplicates, so
/// the measured work is one complete planned evaluation).
fn reevaluate(ws: &mut Workspace) -> usize {
    ws.assert_fact("r", vec![Value::Int(0), Value::Int(1)])
        .unwrap();
    ws.fixpoint().unwrap().iterations
}

fn chain_workspace(n: usize) -> Workspace {
    let mut ws = Workspace::new();
    ws.install_source(
        "reachable(X, Y) <- link(X, Y).\n\
         reachable(X, Y) <- link(X, Z), reachable(Z, Y).",
    )
    .unwrap();
    for i in 0..n {
        ws.assert_fact(
            "link",
            vec![
                Value::str(format!("n{i}")),
                Value::str(format!("n{}", i + 1)),
            ],
        )
        .unwrap();
    }
    ws
}

/// A non-linear closure over an `n`-node ring (both directions) with a chord
/// from every even node across the ring: the shape of the end-to-end
/// benchmark's churned reachability, where almost every tuple a withdrawn
/// chord touches keeps another derivation.
fn chord_workspace(n: usize) -> Workspace {
    let mut ws = Workspace::new();
    ws.install_source(
        "reach(X, Y) <- link(X, Y).\n\
         reach(X, Z) <- reach(X, Y), reach(Y, Z).",
    )
    .unwrap();
    let mut add = |a: usize, b: usize| {
        for (x, y) in [(a, b), (b, a)] {
            ws.assert_fact("link", chord_link(x, y)).unwrap();
        }
    };
    for i in 0..n {
        add(i, (i + 1) % n);
    }
    for i in (0..n / 2).step_by(2) {
        add(i, i + n / 2);
    }
    ws.fixpoint().unwrap();
    ws
}

fn chord_link(a: usize, b: usize) -> Tuple {
    vec![Value::str(format!("n{a}")), Value::str(format!("n{b}"))]
}

/// A receiver holding `inbox` signed facts from four principals under the
/// shape of the generated `says`/`sig` policy constraint: `me[]` is the one
/// column every held row shares, the left-hand side binds the rest.
fn fanin_workspace(inbox: usize) -> Workspace {
    let mut ws = Workspace::new();
    ws.install_source("says_item(P, me[], V) -> sig_item(P, me[], V, S), secret(P, K).")
        .unwrap();
    ws.set_singleton("me", Value::str("sink")).unwrap();
    for p in 0..4 {
        let secret = vec![Value::str(format!("p{p}")), Value::Int(p)];
        ws.assert_fact("secret", secret).unwrap();
    }
    for v in 0..inbox as i64 {
        let (says, sig) = fanin_fact(v);
        ws.assert_fact("sig_item", sig).unwrap();
        ws.assert_fact("says_item", says).unwrap();
    }
    ws.fixpoint().unwrap();
    ws
}

/// `says_item` and `sig_item` rows for value `v`.
fn fanin_fact(v: i64) -> (Tuple, Tuple) {
    let says = vec![
        Value::str(format!("p{}", v % 4)),
        Value::str("sink"),
        Value::Int(v),
    ];
    let mut sig = says.clone();
    sig.push(Value::Int(v * 31));
    (says, sig)
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_micro");
    group.sample_size(20);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    group.bench_function("transitive_closure_40", |b| {
        b.iter(|| {
            let mut ws = chain_workspace(40);
            ws.fixpoint().unwrap();
            ws.count("reachable")
        })
    });
    group.bench_function("transaction_with_constraints", |b| {
        let mut ws = Workspace::new();
        ws.install_source(
            "says_link(P, Q) -> principal(P), principal(Q).\n\
             link(X, Y) <- says_link(X, Y).\n\
             principal(alice). principal(bob).",
        )
        .unwrap();
        b.iter(|| {
            ws.transaction(vec![(
                "says_link".into(),
                vec![Value::str("alice"), Value::str("bob")],
            )])
            .unwrap()
        })
    });
    group.bench_function("commit_new_fact", |b| {
        // The transaction above re-asserts a fact already held, so it
        // derives and checks nothing.  Here the fact is new on every
        // iteration: one rule derives `link` from it and one constraint
        // checks both its ends.  It is withdrawn again off the clock.
        let ws = RefCell::new(Workspace::new());
        ws.borrow_mut()
            .install_source(
                "says_link(P, Q) -> principal(P), principal(Q).\n\
                 link(X, Y) <- says_link(X, Y).\n\
                 principal(alice). principal(bob).",
            )
            .unwrap();
        ws.borrow_mut().fixpoint().unwrap();
        let fact = || {
            vec![(
                "says_link".to_string(),
                vec![Value::str("alice"), Value::str("bob")],
            )]
        };
        b.iter_batched(
            || {
                ws.borrow_mut().retract(fact()).unwrap();
            },
            |()| ws.borrow_mut().transaction(fact()).unwrap(),
            BatchSize::PerIteration,
        )
    });
    group.bench_function("singleton_import_txn", |b| {
        // The generated import rule's shape: every fact a node receives
        // passes a rule that reads `self[]`, which the workspace lifts into
        // the body literal `self[] = self[]` — one functional lookup per
        // commit on top of the join.  A converged receiver holds 1k said
        // facts; the timed fact is new on every iteration (withdrawn again
        // off the clock), so each commit derives one `got` tuple through it.
        let ws = RefCell::new(Workspace::new());
        ws.borrow_mut()
            .install_source("got(X, Y) <- says(P, self[], X, Y).")
            .unwrap();
        ws.borrow_mut()
            .set_singleton("self", Value::str("sink"))
            .unwrap();
        let said = |v: i64| {
            (
                "says".to_string(),
                vec![
                    Value::str(format!("p{}", v % 4)),
                    Value::str("sink"),
                    Value::Int(v),
                    Value::Int(v + 1),
                ],
            )
        };
        ws.borrow_mut()
            .transaction((1..1_000).map(said).collect())
            .unwrap();
        b.iter_batched(
            || {
                ws.borrow_mut().retract(vec![said(0)]).unwrap();
            },
            |()| ws.borrow_mut().transaction(vec![said(0)]).unwrap(),
            BatchSize::PerIteration,
        )
    });
    // One link of a 20-link chain withdrawn: building the workspace, its
    // first fixpoint, and the retraction each on their own clock.
    group.bench_function("dred_build", |b| b.iter(|| chain_workspace(20)));
    group.bench_function("dred_fixpoint", |b| {
        b.iter_batched(
            || chain_workspace(20),
            |mut ws| ws.fixpoint().unwrap(),
            BatchSize::PerIteration,
        )
    });
    group.bench_function("dred_retract", |b| {
        // Steady state: plans cached, indexes built; the link goes back
        // (off the clock) before each retraction.
        let link = || {
            vec![(
                "link".to_string(),
                vec![Value::str("n10"), Value::str("n11")],
            )]
        };
        let ws = RefCell::new(chain_workspace(20));
        ws.borrow_mut().fixpoint().unwrap();
        b.iter_batched(
            || {
                ws.borrow_mut().transaction(link()).unwrap();
            },
            |()| ws.borrow_mut().retract(link()).unwrap(),
            BatchSize::PerIteration,
        )
    });
    group.bench_function("retract_chord", |b| {
        // One chord of a 14-node ring withdrawn, both directions in one
        // retraction; it goes back off the clock.  The chain above is the
        // opposite case: there every tuple the link reaches really goes.
        let chord = || {
            [(0, 7), (7, 0)]
                .map(|(a, b)| ("link".to_string(), chord_link(a, b)))
                .to_vec()
        };
        let ws = RefCell::new(chord_workspace(14));
        b.iter_batched(
            || {
                ws.borrow_mut().transaction(chord()).unwrap();
            },
            |()| ws.borrow_mut().retract(chord()).unwrap(),
            BatchSize::PerIteration,
        )
    });
    // One new signed fact checked against an inbox of 1k and of 10k held
    // signatures: the constraint's right-hand side probes `sig_item` on the
    // columns the new fact binds, so the two cost the same.
    for (label, inbox) in [("1k", 1_000usize), ("10k", 10_000)] {
        group.bench_function(format!("constraint_check_fanin_{label}"), |b| {
            let ws = RefCell::new(fanin_workspace(inbox));
            let says = || vec![("says_item".to_string(), fanin_fact(0).0)];
            b.iter_batched(
                || {
                    ws.borrow_mut().retract(says()).unwrap();
                },
                |()| ws.borrow_mut().transaction(says()).unwrap(),
                BatchSize::PerIteration,
            )
        });
    }
    // One signed fact and its signature withdrawn from the same inboxes: the
    // removed signature is a right-hand-side witness, and the check runs the
    // left-hand side from the columns it shares with it, so the two cost
    // the same.  The pair goes back off the clock.
    for (label, inbox) in [("1k", 1_000usize), ("10k", 10_000)] {
        group.bench_function(format!("retract_signed_{label}"), |b| {
            let ws = RefCell::new(fanin_workspace(inbox));
            let pair = || {
                let (says, sig) = fanin_fact(0);
                vec![
                    ("says_item".to_string(), says),
                    ("sig_item".to_string(), sig),
                ]
            };
            b.iter_batched(
                || {
                    ws.borrow_mut().transaction(pair()).unwrap();
                },
                |()| ws.borrow_mut().retract(pair()).unwrap(),
                BatchSize::PerIteration,
            )
        });
    }
    group.bench_function("planner_triple_join_10k", |b| {
        // Build once; every iteration re-evaluates the rule to fixpoint over
        // the full relations.
        let mut ws = triple_join_workspace(TRIPLE_JOIN_TUPLES, true);
        ws.fixpoint().unwrap();
        b.iter(|| reevaluate(&mut ws))
    });
    group.bench_function("intern_insert_10k", |b| {
        // Dictionary-encoding cost: 10k mixed-type base facts (fresh strings
        // intern, repeated ints hit the dictionary) into columnar relations.
        b.iter(|| {
            let mut ws = Workspace::new();
            ws.install_source("seen(K) <- kv(K, V).").unwrap();
            for i in 0..TRIPLE_JOIN_TUPLES as i64 {
                ws.assert_fact(
                    "kv",
                    vec![Value::str(format!("key-{i}")), Value::Int(i % 64)],
                )
                .unwrap();
            }
            ws.count("kv")
        })
    });
    group.bench_function("batch_join_10k", |b| {
        // The batch plane's hot loop in isolation: one planned two-literal
        // join over 10k-tuple relations, re-evaluated to fixpoint per
        // iteration on interned id frames.
        let mut ws = Workspace::with_config(EvalConfig {
            use_planner: true,
            ..EvalConfig::default()
        });
        ws.install_source("out(X, Z) <- r(X, Y), s(Y, Z).").unwrap();
        for i in 0..TRIPLE_JOIN_TUPLES as i64 {
            ws.assert_fact("r", vec![Value::Int(i), Value::Int(i + 1)])
                .unwrap();
            ws.assert_fact("s", vec![Value::Int(i + 1), Value::Int(i + 2)])
                .unwrap();
        }
        ws.fixpoint().unwrap();
        b.iter(|| reevaluate(&mut ws))
    });
    group.finish();

    // The planner-vs-naive comparison runs outside Criterion: one measured
    // full evaluation each.  A CLI filter that does not name it skips it (so
    // filtered bench runs do not pay for the multi-second naive evaluation).
    let filters: Vec<String> = std::env::args()
        .skip(1)
        .filter(|arg| !arg.starts_with('-'))
        .collect();
    let name = "planner_vs_naive_10k";
    if !filters.is_empty() && !filters.iter().any(|f| name.contains(f.as_str())) {
        return;
    }
    let mut planned = triple_join_workspace(TRIPLE_JOIN_TUPLES, true);
    let started = Instant::now();
    planned.fixpoint().unwrap();
    let planned_time = started.elapsed();
    let mut naive = triple_join_workspace(TRIPLE_JOIN_TUPLES, false);
    let started = Instant::now();
    naive.fixpoint().unwrap();
    let naive_time = started.elapsed();
    assert_eq!(
        planned.count("out"),
        naive.count("out"),
        "planned and naive evaluation disagree"
    );
    let speedup = naive_time.as_secs_f64() / planned_time.as_secs_f64().max(1e-9);
    println!(
        "bench engine_micro/planner_vs_naive_10k                  planned {planned_time:>12?}  \
         naive {naive_time:>12?}  speedup {speedup:>8.1}x"
    );
    let stats = planned.plan_stats();
    println!(
        "bench engine_micro/planner_counters                      plans {} hits {} probes {} \
         scans {} index_builds {}",
        stats.plans_compiled,
        stats.plan_cache_hits,
        stats.index_probes,
        stats.full_scans,
        stats.index_builds,
    );
}

criterion_group!(benches, bench);
criterion_main!(benches);
