//! Aggregation rules (`agg<< C = min(Cx) >>`).
//!
//! An aggregation rule groups the solutions of its body by the non-aggregated
//! head variables and computes one aggregate value per group.  The paper uses
//! this for the path-vector protocol's `bestcost` relation (§7.1).

use super::bindings::{eval_term, Bindings};
use super::join::JoinContext;
use super::plan::{RulePlan, StatsCell};
use super::runtime_pred_name;
use crate::ast::{AggFunc, AggSpec, Rule, Term};
use crate::error::{DatalogError, Result};
use crate::intern::FnvMap;
use crate::relation::Relations;
use crate::udf::UdfRegistry;
use crate::value::{Tuple, Value};

/// Evaluate an aggregation rule against the full relations, returning the
/// derived `(predicate, tuple)` pairs.  The caller inserts them with
/// replace-on-key semantics so that improved aggregates supersede stale ones.
pub fn evaluate_agg_rule(
    rule: &Rule,
    relations: &Relations,
    udfs: &UdfRegistry,
) -> Result<Vec<(String, Tuple)>> {
    evaluate_agg_rule_exec(rule, relations, udfs, None, &StatsCell::default())
}

/// Like [`evaluate_agg_rule`] but executing the body with a compiled plan
/// when one is supplied, and counting the recomputation and its probes in
/// `stats`.
pub(crate) fn evaluate_agg_rule_exec(
    rule: &Rule,
    relations: &Relations,
    udfs: &UdfRegistry,
    plan: Option<&RulePlan>,
    stats: &StatsCell,
) -> Result<Vec<(String, Tuple)>> {
    let agg = rule.agg.as_ref().ok_or_else(|| {
        DatalogError::Eval("evaluate_agg_rule called on a non-aggregate rule".into())
    })?;

    // Group-by variables: every head variable except the aggregation result.
    let mut head_vars: Vec<String> = Vec::new();
    for atom in &rule.head {
        atom.collect_vars(&mut head_vars);
    }
    let group_vars: Vec<String> = head_vars
        .iter()
        .filter(|v| **v != agg.result_var)
        .cloned()
        .collect();

    {
        let mut stats = stats.borrow_mut();
        stats.serial_batches += 1;
        stats.rule_exec_aggregate += 1;
    }
    let groups = fold_groups(rule, agg, plan, relations, udfs, stats, &group_vars)?;

    // Instantiate the head once per group.
    let mut derived: Vec<(String, Tuple)> = Vec::new();
    for (key, accumulator) in groups {
        let mut solution = Bindings::new();
        for (var, value) in group_vars.iter().zip(key.iter()) {
            solution.bind(var, value.clone());
        }
        solution.bind(&agg.result_var, accumulator.finish()?);
        for atom in &rule.head {
            let pred = runtime_pred_name(&atom.pred)?;
            let mut tuple: Tuple = Vec::with_capacity(atom.terms.len());
            for term in &atom.terms {
                let value = match term {
                    Term::Var(v) => solution.get(v).cloned(),
                    other => eval_term(other, &solution)?,
                };
                match value {
                    Some(v) => tuple.push(v),
                    None => {
                        return Err(DatalogError::Eval(format!(
                            "aggregation head term {term} of {pred} is not bound"
                        )))
                    }
                }
            }
            derived.push((pred.into_owned(), tuple));
        }
    }
    Ok(derived)
}

/// Enumerate the body solutions and fold them into per-group accumulators.
fn fold_groups(
    rule: &Rule,
    agg: &AggSpec,
    plan: Option<&RulePlan>,
    relations: &Relations,
    udfs: &UdfRegistry,
    stats: &StatsCell,
    group_vars: &[String],
) -> Result<FnvMap<Vec<Value>, AggAccumulator>> {
    let ctx = JoinContext::new(relations, udfs, stats);
    let mut groups: FnvMap<Vec<Value>, AggAccumulator> = FnvMap::default();
    let mut bindings = Bindings::new();
    let mut fold = |b: &Bindings| {
        let mut key: Vec<Value> = Vec::with_capacity(group_vars.len());
        for var in group_vars {
            match b.get(var) {
                Some(v) => key.push(v.clone()),
                None => {
                    return Err(DatalogError::Eval(format!(
                        "aggregation group variable {var} is not bound by the rule body"
                    )))
                }
            }
        }
        let input = match agg.func {
            AggFunc::Count => Value::Int(1),
            _ => b.get(&agg.input_var).cloned().ok_or_else(|| {
                DatalogError::Eval(format!(
                    "aggregation input variable {} is not bound by the rule body",
                    agg.input_var
                ))
            })?,
        };
        groups
            .entry(key)
            .or_insert_with(|| AggAccumulator::new(agg.func))
            .add(&input)?;
        Ok(())
    };
    match plan {
        Some(plan) => ctx.join_planned(&rule.body, plan, None, &mut bindings, &mut fold)?,
        None => ctx.join(&rule.body, None, &mut bindings, &mut fold)?,
    }
    Ok(groups)
}

/// Accumulator for one aggregation group.
#[derive(Debug, Clone)]
struct AggAccumulator {
    func: AggFunc,
    current: Option<Value>,
    count: i64,
    sum: i64,
}

impl AggAccumulator {
    fn new(func: AggFunc) -> Self {
        AggAccumulator {
            func,
            current: None,
            count: 0,
            sum: 0,
        }
    }

    fn add(&mut self, value: &Value) -> Result<()> {
        self.count += 1;
        match self.func {
            AggFunc::Count => {}
            AggFunc::Sum => {
                let v = value.as_int().ok_or_else(|| {
                    DatalogError::Eval(format!("sum aggregation over non-integer value {value}"))
                })?;
                self.sum = self.sum.checked_add(v).ok_or_else(|| {
                    DatalogError::Eval("integer overflow in sum aggregation".into())
                })?;
            }
            AggFunc::Min => match &self.current {
                Some(existing) if existing.total_cmp(value).is_le() => {}
                _ => self.current = Some(value.clone()),
            },
            AggFunc::Max => match &self.current {
                Some(existing) if existing.total_cmp(value).is_ge() => {}
                _ => self.current = Some(value.clone()),
            },
        }
        Ok(())
    }

    fn finish(self) -> Result<Value> {
        match self.func {
            AggFunc::Count => Ok(Value::Int(self.count)),
            AggFunc::Sum => Ok(Value::Int(self.sum)),
            AggFunc::Min | AggFunc::Max => self.current.ok_or_else(|| {
                DatalogError::Eval("min/max aggregation over an empty group".into())
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_rule;
    use crate::relation::Relation;

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

    fn s(v: &str) -> Value {
        Value::str(v)
    }

    #[test]
    fn min_and_max() {
        let relations = relations_with(&[
            ("cost", vec![s("a"), s("b"), Value::Int(5)]),
            ("cost", vec![s("a"), s("b"), Value::Int(3)]),
            ("cost", vec![s("a"), s("c"), Value::Int(9)]),
        ]);
        let udfs = UdfRegistry::new();
        let rule = parse_rule("best(X, Y, C) <- agg<< C = min(Cx) >> cost(X, Y, Cx).").unwrap();
        let mut derived = evaluate_agg_rule(&rule, &relations, &udfs).unwrap();
        derived.sort_by(|a, b| format!("{a:?}").cmp(&format!("{b:?}")));
        assert_eq!(derived.len(), 2);
        assert!(derived.contains(&("best".to_string(), vec![s("a"), s("b"), Value::Int(3)])));
        assert!(derived.contains(&("best".to_string(), vec![s("a"), s("c"), Value::Int(9)])));

        let rule = parse_rule("worst(X, Y, C) <- agg<< C = max(Cx) >> cost(X, Y, Cx).").unwrap();
        let derived = evaluate_agg_rule(&rule, &relations, &udfs).unwrap();
        assert!(derived.contains(&("worst".to_string(), vec![s("a"), s("b"), Value::Int(5)])));
    }

    #[test]
    fn count_and_sum() {
        let relations = relations_with(&[
            ("sale", vec![s("store1"), Value::Int(10)]),
            ("sale", vec![s("store1"), Value::Int(20)]),
            ("sale", vec![s("store2"), Value::Int(7)]),
        ]);
        let udfs = UdfRegistry::new();
        let rule = parse_rule("total(S, T) <- agg<< T = sum(V) >> sale(S, V).").unwrap();
        let derived = evaluate_agg_rule(&rule, &relations, &udfs).unwrap();
        assert!(derived.contains(&("total".to_string(), vec![s("store1"), Value::Int(30)])));
        assert!(derived.contains(&("total".to_string(), vec![s("store2"), Value::Int(7)])));

        let rule = parse_rule("howmany(S, N) <- agg<< N = count(V) >> sale(S, V).").unwrap();
        let derived = evaluate_agg_rule(&rule, &relations, &udfs).unwrap();
        assert!(derived.contains(&("howmany".to_string(), vec![s("store1"), Value::Int(2)])));
    }

    #[test]
    fn functional_head_syntax() {
        let relations = relations_with(&[
            ("path3", vec![s("me"), s("n2"), Value::Int(4)]),
            ("path3", vec![s("me"), s("n2"), Value::Int(2)]),
        ]);
        let udfs = UdfRegistry::new();
        let rule =
            parse_rule("bestcost[Me, N] = C <- agg<< C = min(Cx) >> path3(Me, N, Cx).").unwrap();
        let derived = evaluate_agg_rule(&rule, &relations, &udfs).unwrap();
        assert_eq!(
            derived,
            vec![(
                "bestcost".to_string(),
                vec![s("me"), s("n2"), Value::Int(2)]
            )]
        );
    }

    #[test]
    fn empty_body_produces_nothing() {
        let relations = relations_with(&[]);
        let udfs = UdfRegistry::new();
        let rule = parse_rule("best(X, C) <- agg<< C = min(Cx) >> cost(X, Cx).").unwrap();
        let derived = evaluate_agg_rule(&rule, &relations, &udfs).unwrap();
        assert!(derived.is_empty());
    }

    #[test]
    fn sum_over_strings_is_error() {
        let relations = relations_with(&[("sale", vec![s("a"), s("oops")])]);
        let udfs = UdfRegistry::new();
        let rule = parse_rule("total(S, T) <- agg<< T = sum(V) >> sale(S, V).").unwrap();
        assert!(evaluate_agg_rule(&rule, &relations, &udfs).is_err());
    }

    #[test]
    fn non_agg_rule_rejected() {
        let relations = relations_with(&[]);
        let udfs = UdfRegistry::new();
        let rule = parse_rule("a(X) <- b(X).").unwrap();
        assert!(evaluate_agg_rule(&rule, &relations, &udfs).is_err());
    }
}
