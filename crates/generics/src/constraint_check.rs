//! Compile-time verification of generic constraints.
//!
//! "One of the distinguishing features of BloxGenerics is that it allows
//! programmers to specify the necessary correctness criteria for generated
//! code using generic constraints.  The compiler guarantees that all possible
//! code generated from a template will obey the specified constraint before
//! the actual code generation" (paper §4.1.4).
//!
//! Because generic rules are evaluated to a fixpoint over the meta-database
//! before any code is emitted, verifying a generic constraint reduces to an
//! ordinary integrity-constraint check over the final meta-database: for
//! every binding satisfying the left-hand side there must exist an extension
//! satisfying the right-hand side.  A violation rejects the whole program at
//! compile time.

use crate::meta::MetaDatabase;
use secureblox_datalog::ast::{Constraint, GenericConstraint};
use secureblox_datalog::constraint::check_constraint;
use secureblox_datalog::error::{DatalogError, Result};
use secureblox_datalog::udf::UdfRegistry;

/// Check one generic constraint against the meta-database.
pub fn check_generic_constraint(constraint: &GenericConstraint, meta: &MetaDatabase) -> Result<()> {
    let as_constraint = Constraint {
        lhs: constraint.lhs.clone(),
        rhs: constraint.rhs.clone(),
    }
    .lift_singletons();
    let udfs = UdfRegistry::new();
    check_constraint(&as_constraint, meta.relations(), &udfs).map_err(|error| match error {
        DatalogError::ConstraintViolation(violation) => DatalogError::Generics(format!(
            "generic constraint violated at compile time: {} (witness {})",
            violation.constraint, violation.witness
        )),
        other => other,
    })
}

/// Check every generic constraint; the first violation rejects the program.
pub fn check_generic_constraints(
    constraints: &[GenericConstraint],
    meta: &MetaDatabase,
) -> Result<()> {
    for constraint in constraints {
        check_generic_constraint(constraint, meta)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use secureblox_datalog::parse_program;
    use secureblox_datalog::value::Value;

    fn generic_constraints(source: &str) -> Vec<GenericConstraint> {
        parse_program(source)
            .unwrap()
            .generic_constraints()
            .cloned()
            .collect()
    }

    #[test]
    fn satisfied_constraint_passes() {
        let mut meta = MetaDatabase::default();
        meta.insert("says", vec![Value::pred("path"), Value::pred("says$path")])
            .unwrap();
        meta.insert("exportable", vec![Value::pred("path")])
            .unwrap();
        let constraints = generic_constraints("says(P, SP) --> exportable(P).");
        check_generic_constraints(&constraints, &meta).unwrap();
    }

    #[test]
    fn violated_constraint_rejects_program() {
        let mut meta = MetaDatabase::default();
        meta.insert(
            "says",
            vec![
                Value::pred("secret_table"),
                Value::pred("says$secret_table"),
            ],
        )
        .unwrap();
        let constraints = generic_constraints("says(P, SP) --> exportable(P).");
        let err = check_generic_constraints(&constraints, &meta).unwrap_err();
        match err {
            DatalogError::Generics(message) => {
                assert!(message.contains("secret_table"), "{message}");
            }
            other => panic!("expected a generics error, got {other}"),
        }
    }

    #[test]
    fn empty_meta_database_is_vacuously_fine() {
        let meta = MetaDatabase::default();
        let constraints = generic_constraints("says(P, SP) --> exportable(P).");
        check_generic_constraints(&constraints, &meta).unwrap();
    }
}
