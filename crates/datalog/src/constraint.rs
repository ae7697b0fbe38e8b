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

use crate::ast::{Constraint, Literal};
use crate::error::{ConstraintViolation, DatalogError, Result};
use crate::eval::bindings::Bindings;
use crate::eval::join::{DeltaRestriction, JoinContext};
use crate::eval::plan::{bound_after, PlanCache, PlanKey, PlanStats, RulePlan};
use crate::eval::{runtime_pred_name, FactDelta};
use crate::intern::FnvSet;
use crate::relation::Relations;
use crate::udf::UdfRegistry;
use std::sync::Arc;

/// Check a single constraint against the current relations, optionally with
/// compiled plans for the two sides and a delta restriction on the lhs.
fn check_constraint_with(
    constraint: &Constraint,
    relations: &Relations,
    udfs: &UdfRegistry,
    plans: Option<(&RulePlan, &RulePlan)>,
    restriction: Option<DeltaRestriction<'_>>,
    stats: Option<&PlanStats>,
) -> Result<()> {
    // An empty right-hand side (`p(X) -> .`) is a pure declaration.
    if constraint.rhs.is_empty() {
        return Ok(());
    }
    let ctx = match stats {
        Some(stats) => JoinContext::with_stats(relations, udfs, stats),
        None => JoinContext::new(relations, udfs),
    };
    let mut violation: Option<ConstraintViolation> = None;
    let mut bindings = Bindings::new();
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
            &mut bindings,
            &mut on_lhs,
        )?,
        None => ctx.join(&constraint.lhs, restriction, &mut bindings, &mut on_lhs)?,
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
    check_constraint_with(constraint, relations, udfs, None, None, None)
}

/// Compile (or fetch) the plans for both sides of a constraint and build
/// every secondary index they probe.  Index building happens here, before
/// execution, so the checks themselves run against immutable relations.
fn prepare_constraint_plans(
    index: usize,
    constraint: &Constraint,
    delta_literal: Option<usize>,
    relations: &mut Relations,
    udfs: &UdfRegistry,
    cache: &mut PlanCache,
    stats: &PlanStats,
) -> (Arc<RulePlan>, Arc<RulePlan>) {
    let lhs = cache.plan_for(
        PlanKey::ConstraintLhs {
            constraint: index,
            delta: delta_literal,
        },
        &constraint.lhs,
        FnvSet::default,
        relations,
        udfs,
        stats,
    );
    // `check_constraint_with` starts the rhs from each lhs binding.
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
                PlanStats::bump(&stats.index_builds);
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
    stats: &PlanStats,
) -> Result<()> {
    let (lhs_plan, rhs_plan) =
        prepare_constraint_plans(index, constraint, None, relations, udfs, cache, stats);
    check_constraint_with(
        constraint,
        relations,
        udfs,
        Some((&*lhs_plan, &*rhs_plan)),
        None,
        Some(stats),
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
    stats: &PlanStats,
) -> Result<()> {
    for (index, constraint) in constraints.iter().enumerate() {
        if !constraint.rhs.is_empty() {
            check_constraint_in_full(index, constraint, relations, udfs, cache, stats)?;
        }
    }
    Ok(())
}

/// Does `literals` hold an atom of the given polarity over a predicate with
/// tuples in `delta`?
fn reads_changed(literals: &[Literal], negated: bool, delta: &FactDelta) -> bool {
    literals.iter().any(|literal| {
        let atom = match literal {
            Literal::Pos(atom) if !negated => atom,
            Literal::Neg(atom) if negated => atom,
            _ => return false,
        };
        runtime_pred_name(&atom.pred)
            .is_ok_and(|pred| delta.get(&*pred).is_some_and(|set| !set.is_empty()))
    })
}

/// Check the constraints a commit's net delta (`added`, `removed` — see
/// `EvalJournal::net_delta`) can newly violate, given that all of them held
/// before it.  `lhs -> rhs` is violated by an lhs binding
/// with no rhs witness, so a commit can only break it by
///
/// * creating an lhs binding through an added tuple: each positive lhs
///   literal over a predicate with additions is checked with that literal
///   pinned to them (paper §2: "for every new fact that is derived"), cost
///   proportional to the additions;
/// * creating an lhs binding by removing what a negated lhs literal
///   excluded, or taking a witness away — removing a tuple a positive rhs
///   literal matched, adding one a negated rhs literal excludes: no added
///   tuple drives those bindings, so the constraint is checked in full.
///
/// A constraint none of this touches is skipped.
pub fn check_constraints_for_delta(
    constraints: &[Constraint],
    relations: &mut Relations,
    udfs: &UdfRegistry,
    cache: &mut PlanCache,
    stats: &PlanStats,
    added: &FactDelta,
    removed: &FactDelta,
) -> Result<()> {
    for (index, constraint) in constraints.iter().enumerate() {
        if constraint.rhs.is_empty() {
            continue;
        }
        if reads_changed(&constraint.lhs, true, removed)
            || reads_changed(&constraint.rhs, false, removed)
            || reads_changed(&constraint.rhs, true, added)
        {
            check_constraint_in_full(index, constraint, relations, udfs, cache, stats)?;
            continue;
        }
        for (literal_index, literal) in constraint.lhs.iter().enumerate() {
            let Some(atom) = literal.as_pos() else {
                continue;
            };
            let Ok(pred) = runtime_pred_name(&atom.pred) else {
                continue;
            };
            let Some(pred_delta) = added.get(&*pred).filter(|set| !set.is_empty()) else {
                continue;
            };
            let (lhs_plan, rhs_plan) = prepare_constraint_plans(
                index,
                constraint,
                Some(literal_index),
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
                Some(DeltaRestriction {
                    literal_index,
                    delta: pred_delta,
                }),
                Some(stats),
            )?;
        }
    }
    Ok(())
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
