//! Runtime integrity-constraint checking.
//!
//! A constraint `lhs -> rhs` holds when every binding satisfying the
//! left-hand side can be extended to satisfy the right-hand side.  Checking
//! happens inside the enclosing transaction after the fixpoint; a violation
//! aborts the transaction and rolls back the entire incoming batch (paper
//! §5.2).  This is the enforcement point for the generated security policies:
//! "only accept facts said by known principals", "require a verifying
//! signature", "the sayer must have write access", and so on.
//!
//! Constraint bodies run through the same cost-based planner and shared
//! [`PlanCache`] as rule evaluation: the workspace-level entry points
//! ([`check_constraints_planned`], [`check_constraints_for_delta`]) compile a
//! plan per constraint side — the right-hand side under the variables the
//! left-hand side leaves bound, so its probes use them — build the secondary
//! indexes the plans probe, and execute with index probes instead of the
//! textual nested-loop order.  The plain textual functions remain for
//! callers without a cache (the BloxGenerics compile-time checker) and as
//! the equivalence baseline.
//!
//! A commit from a converged workspace pays for what it changed
//! ([`check_constraints_for_delta`]): an added tuple drives the left-hand
//! side from the literal it matches, and a tuple that took a witness away —
//! removed under a positive right-hand literal, added under a negated one —
//! or removed what a negated left-hand literal excluded drives it from the
//! variables that literal shares with the left-hand side.  Only a commit
//! from an unconverged workspace checks every constraint in full
//! ([`check_constraints_planned`], counted in
//! `PlanStats::constraint_full_checks`).

use crate::ast::{Atom, Constraint, Literal, Term};
use crate::error::{ConstraintViolation, DatalogError, Result};
use crate::eval::batch::{self, Drive, Exec, Verdict, Witness};
use crate::eval::bindings::Bindings;
use crate::eval::join::{DeltaRestriction, JoinContext};
use crate::eval::plan::{bound_after, frozen_vars, PlanCache, PlanKey, RulePlan, StatsCell};
use crate::eval::{runtime_pred_name, FactDelta};
use crate::intern::{FnvSet, Interner};
use crate::relation::Relations;
use crate::udf::UdfRegistry;
use crate::value::{Tuple, Value};
use std::sync::Arc;

/// Check a single constraint against the current relations, optionally with
/// compiled plans for the two sides and a delta restriction on the lhs.  The
/// lhs starts from `bindings` (empty, or the variables a changed witness
/// binds) and leaves them as it found them.
fn check_constraint_with(
    constraint: &Constraint,
    relations: &Relations,
    udfs: &UdfRegistry,
    plans: Option<(&RulePlan, &RulePlan)>,
    restriction: Option<DeltaRestriction<'_>>,
    stats: &StatsCell,
    bindings: &mut Bindings,
) -> Result<()> {
    // An empty right-hand side (`p(X) -> .`) is a pure declaration.
    if constraint.rhs.is_empty() {
        return Ok(());
    }
    let ctx = JoinContext::new(relations, udfs, stats);
    let mut violation: Option<ConstraintViolation> = None;
    let mut rhs_bindings = Bindings::new();
    let mut on_lhs = |lhs_binding: &Bindings| {
        if violation.is_some() {
            return Ok(());
        }
        // Try to extend the binding to satisfy the right-hand side.
        let mut satisfied = false;
        rhs_bindings.clone_from(lhs_binding);
        let mut on_rhs = |_: &Bindings| {
            satisfied = true;
            Ok(())
        };
        match plans {
            Some((_, rhs_plan)) => ctx.join_planned(
                &constraint.rhs,
                rhs_plan,
                None,
                &mut rhs_bindings,
                &mut on_rhs,
            )?,
            None => ctx.join(&constraint.rhs, None, &mut rhs_bindings, &mut on_rhs)?,
        }
        if !satisfied {
            violation = Some(ConstraintViolation {
                constraint: constraint.to_string(),
                witness: lhs_binding.render(),
            });
        }
        Ok(())
    };
    match plans {
        Some((lhs_plan, _)) => ctx.join_planned(
            &constraint.lhs,
            lhs_plan,
            restriction,
            bindings,
            &mut on_lhs,
        )?,
        None => ctx.join(&constraint.lhs, restriction, bindings, &mut on_lhs)?,
    }
    match violation {
        Some(v) => Err(DatalogError::ConstraintViolation(v)),
        None => Ok(()),
    }
}

/// Check a single constraint against the current relations (textual order,
/// no plan cache — used by the BloxGenerics compile-time checker).
///
/// Returns `Ok(())` when the constraint holds, or a
/// [`DatalogError::ConstraintViolation`] describing the first violating
/// left-hand-side binding.
pub fn check_constraint(
    constraint: &Constraint,
    relations: &Relations,
    udfs: &UdfRegistry,
) -> Result<()> {
    check_constraint_with(
        constraint,
        relations,
        udfs,
        None,
        None,
        &StatsCell::default(),
        &mut Bindings::new(),
    )
}

/// Compile (or fetch) the plan for each side of a constraint — the lhs
/// under `lhs_key` and what `lhs_bound` yields, the rhs under the variables
/// the lhs leaves bound — and build every secondary index they probe.  Index
/// building happens here, before execution, so the checks themselves run
/// against immutable relations.
fn prepare_constraint_plans(
    index: usize,
    constraint: &Constraint,
    (lhs_key, lhs_bound): (PlanKey, impl FnOnce() -> FnvSet<String>),
    relations: &mut Relations,
    udfs: &UdfRegistry,
    cache: &mut PlanCache,
    stats: &StatsCell,
) -> (Arc<RulePlan>, Arc<RulePlan>) {
    let lhs = cache.plan_for(lhs_key, &constraint.lhs, lhs_bound, relations, udfs, stats);
    let rhs = cache.plan_for(
        PlanKey::ConstraintRhs { constraint: index },
        &constraint.rhs,
        || bound_after(&constraint.lhs, udfs),
        relations,
        udfs,
        stats,
    );
    for spec in lhs.ensure.iter().chain(rhs.ensure.iter()) {
        if let Some(relation) = relations.get_mut(&spec.pred) {
            if relation.ensure_index(spec.cols) {
                stats.borrow_mut().index_builds += 1;
            }
        }
    }
    (lhs, rhs)
}

/// Check one constraint over the whole database.
fn check_constraint_in_full(
    index: usize,
    constraint: &Constraint,
    relations: &mut Relations,
    udfs: &UdfRegistry,
    cache: &mut PlanCache,
    stats: &StatsCell,
) -> Result<()> {
    stats.borrow_mut().constraint_full_checks += 1;
    let lhs_key = PlanKey::ConstraintLhs {
        constraint: index,
        delta: None,
    };
    let (lhs_plan, rhs_plan) = prepare_constraint_plans(
        index,
        constraint,
        (lhs_key, FnvSet::default),
        relations,
        udfs,
        cache,
        stats,
    );
    check_constraint_with(
        constraint,
        relations,
        udfs,
        Some((&*lhs_plan, &*rhs_plan)),
        None,
        stats,
        &mut Bindings::new(),
    )
}

/// Check every constraint over the whole database through the cost-based
/// planner and the shared plan cache; the first violation wins.  This is the
/// check of a commit whose starting state was not known to satisfy the
/// constraints (facts entered outside a transaction), and the oracle the
/// delta-driven check is tested against.
pub fn check_constraints_planned(
    constraints: &[Constraint],
    relations: &mut Relations,
    udfs: &UdfRegistry,
    cache: &mut PlanCache,
    stats: &StatsCell,
) -> Result<()> {
    for (index, constraint) in constraints.iter().enumerate() {
        if !constraint.rhs.is_empty() {
            check_constraint_in_full(index, constraint, relations, udfs, cache, stats)?;
        }
    }
    Ok(())
}

/// The tuples of `delta` over `atom`'s predicate, if it has any.
fn changed<'d>(atom: &Atom, delta: &'d FactDelta) -> Option<&'d FnvSet<Tuple>> {
    let pred = runtime_pred_name(&atom.pred).ok()?;
    delta.get(&*pred).filter(|set| !set.is_empty())
}

/// Check the constraints a commit's net delta (`added`, `removed` — see
/// `EvalJournal::net_delta`) can newly violate, given that all of them held
/// before it.  `lhs -> rhs` is violated by an lhs binding with no rhs
/// witness, so a commit can only break it by
///
/// * creating an lhs binding through an added tuple: each positive lhs
///   literal over a predicate with additions is checked with that literal
///   pinned to them (paper §2: "for every new fact that is derived");
/// * taking a binding's witness away — removing a tuple a positive rhs
///   literal matched, adding one a negated rhs literal excludes — or
///   creating an lhs binding by removing what a negated lhs literal
///   excluded.  Either way the changed tuple matched that literal under the
///   binding, so the binding agrees with the tuple on the lhs variables the
///   literal shares with it: `check_from_witnesses` runs the lhs from
///   those values alone.
///
/// Each check costs in proportion to the tuples that drive it, and runs in
/// id space on the batch executor (`eval::batch::ConstraintJob`) unless the
/// constraint has a shape it declines; `interner` is the dictionary the
/// relations share.  A constraint none of this touches is skipped.
#[allow(clippy::too_many_arguments)]
pub fn check_constraints_for_delta(
    constraints: &[Constraint],
    relations: &mut Relations,
    udfs: &UdfRegistry,
    cache: &mut PlanCache,
    stats: &StatsCell,
    interner: &Arc<Interner>,
    added: &FactDelta,
    removed: &FactDelta,
) -> Result<()> {
    for (index, constraint) in constraints.iter().enumerate() {
        if constraint.rhs.is_empty() {
            continue;
        }
        for (literal_index, literal) in constraint.lhs.iter().enumerate() {
            let Some(pred_delta) = literal.as_pos().and_then(|atom| changed(atom, added)) else {
                continue;
            };
            let lhs_key = PlanKey::ConstraintLhs {
                constraint: index,
                delta: Some(literal_index),
            };
            let (lhs_plan, rhs_plan) = prepare_constraint_plans(
                index,
                constraint,
                (lhs_key, FnvSet::default),
                relations,
                udfs,
                cache,
                stats,
            );
            let restriction = DeltaRestriction {
                literal_index,
                delta: pred_delta,
            };
            let relations = &*relations;
            let exec = Exec {
                relations,
                udfs,
                interner,
                stats,
            };
            check_driven(
                (constraint, lhs_key, (&lhs_plan, &rhs_plan)),
                (Drive::Delta(pred_delta), None),
                (exec, interner),
                cache,
                |stats| {
                    check_constraint_with(
                        constraint,
                        relations,
                        udfs,
                        Some((&*lhs_plan, &*rhs_plan)),
                        Some(restriction),
                        stats,
                        &mut Bindings::new(),
                    )
                },
            )?;
        }
        let lhs_len = constraint.lhs.len();
        for (literal, side) in constraint.lhs.iter().chain(&constraint.rhs).enumerate() {
            let (atom, delta) = match side {
                Literal::Neg(atom) if literal < lhs_len => (atom, removed),
                Literal::Neg(atom) => (atom, added),
                Literal::Pos(atom) if literal >= lhs_len => (atom, removed),
                _ => continue,
            };
            if let Some(tuples) = changed(atom, delta) {
                check_from_witnesses(
                    (index, constraint),
                    (literal, atom),
                    tuples,
                    relations,
                    udfs,
                    cache,
                    (interner, stats),
                )?;
            }
        }
    }
    Ok(())
}

/// One delta- or witness-driven check of `constraint` under its lhs plan
/// key and plans: in id space when the batch executor runs its shape, on
/// the tuple path (`tuple`, given the counters to bump) when it declines,
/// when a driving tuple is on another dictionary, or when a UDF call in id
/// space failed — the tuple path then reports the error it reports.  Debug
/// builds hold every id-space verdict, violation text and witness
/// included, to the tuple path's.
fn check_driven(
    (constraint, lhs_key, (lhs_plan, rhs_plan)): (
        &Constraint,
        PlanKey,
        (&Arc<RulePlan>, &Arc<RulePlan>),
    ),
    (drive, witness): (Drive<'_>, Option<Witness<'_>>),
    (exec, interner): (Exec<'_>, &Arc<Interner>),
    cache: &mut PlanCache,
    tuple: impl Fn(&StatsCell) -> Result<()>,
) -> Result<()> {
    let stats = exec.stats;
    let delta = match lhs_key {
        PlanKey::ConstraintLhs { delta, .. } => delta,
        _ => None,
    };
    let job = batch::constraint_job(
        cache.job(lhs_key),
        constraint,
        (lhs_plan, rhs_plan),
        delta,
        witness,
        exec.relations,
        exec.udfs,
        interner,
        stats,
    );
    let verdict = match job {
        Ok(job) => match job.check(drive, exec) {
            Ok(Ok(verdict)) => Ok(verdict),
            Ok(Err(miss)) => Err(Some(miss)),
            // The tuple path reports a UDF error as it meets it.
            Err(_) => Err(None),
        },
        Err(miss) => Err(Some(miss)),
    };
    let verdict = match verdict {
        Ok(verdict) => verdict,
        Err(miss) => {
            if let Some(miss) = miss {
                stats.borrow_mut().constraint_misses[miss as usize] += 1;
            }
            stats.borrow_mut().constraint_checks_tuple += 1;
            return tuple(stats);
        }
    };
    stats.borrow_mut().constraint_checks_batch += 1;
    let result = match verdict {
        Verdict::Holds => Ok(()),
        Verdict::Violated(witness) => Err(DatalogError::ConstraintViolation(ConstraintViolation {
            constraint: constraint.to_string(),
            witness,
        })),
    };
    #[cfg(debug_assertions)]
    {
        let expected = tuple(&StatsCell::default());
        debug_assert_eq!(
            result, expected,
            "the id-space check of `{constraint}` diverged from the tuple path"
        );
    }
    result
}

/// Re-check the lhs bindings the changed `tuples` of `atom`, literal
/// `literal` of `lhs` then `rhs`, can have supported.  Each tuple binds the
/// variables the literal shares with the lhs — those every lhs solution
/// binds, less any a negation, type check or UDF of the lhs textually sees
/// unbound, which a binding made in advance would change the meaning of —
/// and the lhs runs from each distinct such binding, planned under those
/// variables ([`PlanKey::ConstraintLhsFrom`]).  A tuple that disagrees with
/// a constant or a repeated variable of the literal matched it under no
/// binding and is skipped.  With no shared variable this is the check in
/// full, once.
fn check_from_witnesses(
    (index, constraint): (usize, &Constraint),
    (literal, atom): (usize, &Atom),
    tuples: &FnvSet<Tuple>,
    relations: &mut Relations,
    udfs: &UdfRegistry,
    cache: &mut PlanCache,
    (interner, stats): (&Arc<Interner>, &StatsCell),
) -> Result<()> {
    // The shared variables, in the order the literal first names them;
    // asked only when a plan or a job compiles, or on the tuple path.
    let shared = || -> Vec<String> {
        let bound = bound_after(&constraint.lhs, udfs);
        let frozen = frozen_vars(&constraint.lhs, udfs);
        let mut shared: Vec<String> = Vec::new();
        for term in &atom.terms {
            if let Term::Var(var) = term {
                if bound.contains(var) && !frozen.contains(var) && !shared.contains(var) {
                    shared.push(var.clone());
                }
            }
        }
        shared
    };
    let lhs_key = PlanKey::ConstraintLhsFrom {
        constraint: index,
        literal,
    };
    let (lhs_plan, rhs_plan) = prepare_constraint_plans(
        index,
        constraint,
        (lhs_key, || shared().into_iter().collect()),
        relations,
        udfs,
        cache,
        stats,
    );
    let relations = &*relations;
    check_driven(
        (constraint, lhs_key, (&lhs_plan, &rhs_plan)),
        (Drive::Witnesses(tuples), Some((atom, &shared))),
        (
            Exec {
                relations,
                udfs,
                interner,
                stats,
            },
            interner,
        ),
        cache,
        |stats| {
            let shared = shared();
            let shared: Vec<&str> = shared.iter().map(String::as_str).collect();
            let mut seen: FnvSet<Vec<Value>> = FnvSet::default();
            let mut bindings = Bindings::new();
            for tuple in tuples {
                let Some(values) = shared_values(atom, tuple, &shared) else {
                    continue;
                };
                if seen.contains(&values) {
                    continue;
                }
                for (var, value) in shared.iter().zip(&values) {
                    bindings.bind(var, value.clone());
                }
                check_constraint_with(
                    constraint,
                    relations,
                    udfs,
                    Some((&*lhs_plan, &*rhs_plan)),
                    None,
                    stats,
                    &mut bindings,
                )?;
                bindings.restore(0);
                seen.insert(values);
            }
            Ok(())
        },
    )
}

/// The values `tuple` gives the `shared` variables when it matches `atom`,
/// or `None` when it matches under no binding (an arity, a constant or a
/// repeated variable disagrees).  Other terms are not followed.
fn shared_values(atom: &Atom, tuple: &[Value], shared: &[&str]) -> Option<Vec<Value>> {
    if atom.terms.len() != tuple.len() {
        return None;
    }
    let mut first: Vec<(&str, &Value)> = Vec::new();
    for (term, value) in atom.terms.iter().zip(tuple) {
        match term {
            Term::Const(constant) if constant != value => return None,
            Term::Var(var) => match first.iter().find(|(name, _)| name == var) {
                Some((_, earlier)) if *earlier != value => return None,
                Some(_) => {}
                None => first.push((var, value)),
            },
            _ => {}
        }
    }
    let value = |var: &&str| {
        let first = first.iter().find(|(name, _)| name == var);
        first
            .expect("a shared variable is a variable of the atom")
            .1
    };
    Some(shared.iter().map(|var| value(var).clone()).collect())
}

/// Check all constraints; the first violation wins.
pub fn check_constraints(
    constraints: &[Constraint],
    relations: &Relations,
    udfs: &UdfRegistry,
) -> Result<()> {
    for constraint in constraints {
        check_constraint(constraint, relations, udfs)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;
    use crate::relation::Relation;
    use crate::value::Value;

    fn relations_with(facts: &[(&str, Vec<Value>)]) -> Relations {
        let mut relations = Relations::default();
        for (pred, tuple) in facts {
            relations
                .entry(pred.to_string())
                .or_insert_with(|| Relation::new(*pred, None))
                .insert(tuple.clone())
                .unwrap();
        }
        relations
    }

    fn constraints_of(source: &str) -> Vec<Constraint> {
        parse_program(source)
            .unwrap()
            .constraints()
            .cloned()
            .collect()
    }

    fn s(v: &str) -> Value {
        Value::str(v)
    }

    #[test]
    fn satisfied_constraint_passes() {
        let constraints = constraints_of("says_link(P, Q) -> principal(P), principal(Q).");
        let relations = relations_with(&[
            ("says_link", vec![s("alice"), s("bob")]),
            ("principal", vec![s("alice")]),
            ("principal", vec![s("bob")]),
        ]);
        check_constraints(&constraints, &relations, &UdfRegistry::new()).unwrap();
    }

    #[test]
    fn violation_reports_witness() {
        let constraints = constraints_of("says_link(P, Q) -> principal(P).");
        let relations = relations_with(&[
            ("says_link", vec![s("mallory"), s("bob")]),
            ("principal", vec![s("bob")]),
        ]);
        let err = check_constraints(&constraints, &relations, &UdfRegistry::new()).unwrap_err();
        match err {
            DatalogError::ConstraintViolation(v) => {
                assert!(v.witness.contains("mallory"));
                assert!(v.constraint.contains("says_link"));
            }
            other => panic!("expected constraint violation, got {other}"),
        }
    }

    #[test]
    fn empty_rhs_never_fails() {
        let constraints = constraints_of("pathvar(P) -> .");
        let relations = relations_with(&[("pathvar", vec![Value::Entity(1)])]);
        check_constraints(&constraints, &relations, &UdfRegistry::new()).unwrap();
    }

    #[test]
    fn rhs_with_existential_variable() {
        // Every employee must have *some* manager.
        let constraints = constraints_of("employee(E) -> manager(E, M).");
        let good = relations_with(&[
            ("employee", vec![s("ann")]),
            ("manager", vec![s("ann"), s("bo")]),
        ]);
        check_constraints(&constraints, &good, &UdfRegistry::new()).unwrap();
        let bad = relations_with(&[("employee", vec![s("ann")])]);
        assert!(check_constraints(&constraints, &bad, &UdfRegistry::new()).is_err());
    }

    #[test]
    fn builtin_type_constraints_check_value_types() {
        let constraints = constraints_of("cost(X, C) -> string(X), int(C).");
        let good = relations_with(&[("cost", vec![s("a"), Value::Int(4)])]);
        check_constraints(&constraints, &good, &UdfRegistry::new()).unwrap();
        let bad = relations_with(&[("cost", vec![s("a"), s("oops")])]);
        assert!(check_constraints(&constraints, &bad, &UdfRegistry::new()).is_err());
    }

    #[test]
    fn udf_in_rhs_acts_as_verifier() {
        let mut udfs = UdfRegistry::new();
        // verify(X) succeeds only for the magic value.
        udfs.register("verify", |args| {
            let v = crate::udf::require_bound(args, 0, "verify")?;
            if v == Value::str("valid") {
                Ok(vec![vec![v]])
            } else {
                Ok(vec![])
            }
        });
        let constraints = constraints_of("msg(M) -> verify(M).");
        let good = relations_with(&[("msg", vec![s("valid")])]);
        check_constraints(&constraints, &good, &udfs).unwrap();
        let bad = relations_with(&[("msg", vec![s("forged")])]);
        assert!(check_constraints(&constraints, &bad, &udfs).is_err());
    }

    #[test]
    fn comparison_in_rhs() {
        let constraints = constraints_of("delegated(U) -> U = \"CA\".");
        let good = relations_with(&[("delegated", vec![s("CA")])]);
        check_constraints(&constraints, &good, &UdfRegistry::new()).unwrap();
        let bad = relations_with(&[("delegated", vec![s("EvilCorp")])]);
        assert!(check_constraints(&constraints, &bad, &UdfRegistry::new()).is_err());
    }

    #[test]
    fn no_lhs_matches_means_satisfied() {
        let constraints = constraints_of("says_link(P, Q) -> principal(P).");
        let relations = relations_with(&[]);
        check_constraints(&constraints, &relations, &UdfRegistry::new()).unwrap();
    }
}
