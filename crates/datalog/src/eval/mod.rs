//! Rule evaluation: bindings, joins, per-rule planning, semi-naïve fixpoint,
//! aggregation, and incremental deletion (backward/forward).  One workspace
//! evaluates on one thread (DESIGN.md §8).

pub mod aggregate;
pub mod batch;
pub mod bindings;
pub mod dred;
pub mod join;
pub mod plan;
pub mod seminaive;
pub mod shuffle;

pub use bindings::Bindings;
pub use plan::{BatchMiss, PlanCache, PlanKey, PlanStats, PlanStatsSnapshot, RulePlan};
pub use seminaive::{Commit, EvalJournal, Evaluator, FactDelta, FixpointStats};

use crate::ast::PredRef;
use crate::error::{DatalogError, Result};
use std::borrow::Cow;

/// Evaluation limits and knobs.
#[derive(Debug, Clone)]
pub struct EvalConfig {
    /// Maximum number of semi-naïve iterations per stratum before evaluation
    /// is aborted with [`DatalogError::FixpointBudget`].
    pub max_iterations: usize,
    /// When true (the default), rules are compiled into selectivity-ordered,
    /// index-probing plans before execution; when false, bodies run as a
    /// nested-loop join in textual literal order over full scans (the
    /// pre-planner behaviour, kept for equivalence testing and as a bench
    /// baseline).
    pub use_planner: bool,
}

impl Default for EvalConfig {
    fn default() -> Self {
        EvalConfig {
            max_iterations: 10_000,
            use_planner: true,
        }
    }
}

/// Resolve the runtime (concrete) name of a predicate reference.
///
/// Parameterized references are mangled as `generic$param`, which is the
/// naming convention used throughout the BloxGenerics compiler and the
/// policy generators.  The compiler hands the evaluator named references
/// only, so the name the evaluator asks for on every literal visit is
/// borrowed from the AST; only a parameterized reference allocates.
pub fn runtime_pred_name(pred: &PredRef) -> Result<Cow<'_, str>> {
    match pred {
        PredRef::Named(n) => Ok(Cow::Borrowed(n)),
        PredRef::Parameterized { generic, param } => Ok(Cow::Owned(format!("{generic}${param}"))),
        PredRef::ParameterizedVar { generic, var } => Err(DatalogError::Eval(format!(
            "meta-level predicate {generic}[{var}] reached the evaluator; run the BloxGenerics \
             compiler first"
        ))),
        PredRef::Var(v) => Err(DatalogError::Eval(format!(
            "unresolved predicate variable {v} reached the evaluator; run the BloxGenerics \
             compiler first"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runtime_names() {
        assert_eq!(runtime_pred_name(&PredRef::named("link")).unwrap(), "link");
        assert_eq!(
            runtime_pred_name(&PredRef::Parameterized {
                generic: "says".into(),
                param: "path".into()
            })
            .unwrap(),
            "says$path"
        );
        assert!(runtime_pred_name(&PredRef::Var("T".into())).is_err());
        assert!(runtime_pred_name(&PredRef::ParameterizedVar {
            generic: "says".into(),
            var: "T".into()
        })
        .is_err());
    }

    #[test]
    fn default_config_budget() {
        assert!(EvalConfig::default().max_iterations >= 1000);
    }
}
