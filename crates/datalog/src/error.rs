//! Error types for the DatalogLB engine.

use crate::value::{format_tuple, Tuple};
use std::fmt;

/// Errors raised while parsing, checking, installing, or evaluating a
/// DatalogLB program.
#[derive(Debug, Clone, PartialEq)]
pub enum DatalogError {
    /// Lexical or syntactic error with position information.
    Parse {
        message: String,
        line: usize,
        column: usize,
    },
    /// A static type error detected at compile time.
    Type(String),
    /// A schema inconsistency (arity mismatch, redeclaration, unknown predicate).
    Schema(String),
    /// A program is not stratifiable (negation or aggregation through recursion).
    Stratification(String),
    /// A runtime integrity-constraint violation; the enclosing transaction is
    /// rolled back.
    ConstraintViolation(ConstraintViolation),
    /// A functional-dependency violation: the same key mapped to two values.
    FunctionalDependency {
        predicate: String,
        key: Tuple,
        existing: Tuple,
        attempted: Tuple,
    },
    /// A user-defined function failed or was called with unbound inputs.
    Udf { function: String, message: String },
    /// Fixpoint evaluation exceeded its iteration budget.
    FixpointBudget { iterations: usize },
    /// A generic (meta-level) error from the BloxGenerics compiler.
    Generics(String),
    /// A configuration value the engine or the runtime refuses.
    Config(String),
    /// Any other evaluation error.
    Eval(String),
}

/// Details of a violated integrity constraint.
#[derive(Debug, Clone, PartialEq)]
pub struct ConstraintViolation {
    /// Text of the violated constraint.
    pub constraint: String,
    /// The left-hand-side binding that could not be extended to satisfy the
    /// right-hand side, rendered for diagnostics.
    pub witness: String,
}

impl fmt::Display for DatalogError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DatalogError::Parse {
                message,
                line,
                column,
            } => {
                write!(f, "parse error at {line}:{column}: {message}")
            }
            DatalogError::Type(msg) => write!(f, "type error: {msg}"),
            DatalogError::Schema(msg) => write!(f, "schema error: {msg}"),
            DatalogError::Stratification(msg) => write!(f, "stratification error: {msg}"),
            DatalogError::ConstraintViolation(v) => {
                write!(
                    f,
                    "constraint violation: {} (witness {})",
                    v.constraint, v.witness
                )
            }
            DatalogError::FunctionalDependency {
                predicate,
                key,
                existing,
                attempted,
            } => write!(
                f,
                "functional dependency violation on {predicate}: key {} maps to both {} and {}",
                format_tuple(key),
                format_tuple(existing),
                format_tuple(attempted)
            ),
            DatalogError::Udf { function, message } => {
                write!(f, "user-defined function {function} failed: {message}")
            }
            DatalogError::FixpointBudget { iterations } => {
                write!(
                    f,
                    "fixpoint evaluation did not terminate within {iterations} iterations"
                )
            }
            DatalogError::Generics(msg) => write!(f, "BloxGenerics error: {msg}"),
            DatalogError::Config(msg) => write!(f, "configuration error: {msg}"),
            DatalogError::Eval(msg) => write!(f, "evaluation error: {msg}"),
        }
    }
}

impl std::error::Error for DatalogError {}

/// Convenient result alias.
pub type Result<T> = std::result::Result<T, DatalogError>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

    #[test]
    fn display_variants() {
        let err = DatalogError::Parse {
            message: "unexpected token".into(),
            line: 3,
            column: 7,
        };
        assert!(err.to_string().contains("3:7"));

        let err = DatalogError::FunctionalDependency {
            predicate: "bestcost".into(),
            key: vec![Value::str("n1"), Value::str("n2")],
            existing: vec![Value::Int(2)],
            attempted: vec![Value::Int(3)],
        };
        let text = err.to_string();
        assert!(text.contains("bestcost"));
        assert!(text.contains("(n1, n2)"));

        let err = DatalogError::ConstraintViolation(ConstraintViolation {
            constraint: "says_link(P, Q) -> principal(P).".into(),
            witness: "P = mallory".into(),
        });
        assert!(err.to_string().contains("mallory"));
    }
}
