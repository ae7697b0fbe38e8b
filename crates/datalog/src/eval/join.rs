//! Join execution over body literals with binding propagation.
//!
//! The join is the workhorse of both rule evaluation and constraint checking:
//! given a sequence of body literals and an initial substitution, it
//! enumerates every satisfying extension and invokes a callback per solution.
//!
//! Execution is driven by a [`RulePlan`]: an ordered list of steps, each
//! naming a body literal and (for stored-relation literals) the bound-column
//! signature to probe a secondary index with.  [`JoinContext::join`] runs the
//! trivial textual-order plan (used by the textual constraint oracle and the
//! naive evaluation mode); [`JoinContext::join_planned`] runs a compiled plan
//! with index probes.
//!
//! Literal kinds handled:
//!
//! * positive atoms over stored relations (optionally restricted to a delta
//!   set for semi-naïve evaluation), executed as an index probe when the
//!   plan provides a signature and the relation has that index — a
//!   membership test when the signature covers every argument — falling
//!   back to a full scan otherwise,
//! * positive atoms over built-in primitive types (`int(X)`, `string(X)`, …)
//!   which type-check an already-bound value,
//! * positive atoms over user-defined functions,
//! * negated atoms (stratified negation with a ∄ semantics over unbound
//!   positions), probing an index when one exists for the pattern,
//! * comparisons, where `Var = ground-term` doubles as an assignment.

use super::bindings::{eval_term, match_stored, match_tuple, Bindings};
use super::plan::{is_membership, PlanStats, PlanStep, RulePlan};
use super::runtime_pred_name;
use crate::ast::{Atom, CmpOp, Literal, Term};
use crate::error::{DatalogError, Result};
use crate::intern::FnvSet;
use crate::relation::{ColumnSet, Relations, TupleId};
use crate::schema::BUILTIN_TYPES;
use crate::udf::UdfRegistry;
use crate::value::{Tuple, Value};
use std::cell::RefCell;
use std::sync::atomic::AtomicU64;

/// A restriction of one body literal to a delta set (semi-naïve evaluation).
#[derive(Debug, Clone, Copy)]
pub struct DeltaRestriction<'a> {
    /// Index of the body literal that must match a delta tuple.
    pub literal_index: usize,
    /// The delta tuples of that literal's predicate (a semi-naïve delta, a
    /// deletion frontier, or a commit's additions under a constraint check).
    pub delta: &'a FnvSet<Tuple>,
}

/// The stored tuples a solution was built from: `(body literal, TupleId)`
/// per positive stored-relation literal, in plan order.
pub type Trail = RefCell<Vec<(usize, TupleId)>>;

/// Join context: the relations and UDFs visible to the evaluation.
pub struct JoinContext<'a> {
    pub relations: &'a Relations,
    pub udfs: &'a UdfRegistry,
    stats: Option<&'a PlanStats>,
    trail: Option<&'a Trail>,
}

impl<'a> JoinContext<'a> {
    /// Create a join context.
    pub fn new(relations: &'a Relations, udfs: &'a UdfRegistry) -> Self {
        JoinContext {
            relations,
            udfs,
            stats: None,
            trail: None,
        }
    }

    /// Create a join context that records probe/scan statistics.
    pub fn with_stats(
        relations: &'a Relations,
        udfs: &'a UdfRegistry,
        stats: &'a PlanStats,
    ) -> Self {
        JoinContext {
            relations,
            udfs,
            stats: Some(stats),
            trail: None,
        }
    }

    /// Keep `trail` holding the stored tuples the current partial solution
    /// matched, so a callback can read which facts a solution used (a
    /// retraction's proof search does; a pinned delta tuple is not stored
    /// and is not on the trail).
    pub fn with_trail(mut self, trail: &'a Trail) -> Self {
        self.trail = Some(trail);
        self
    }

    fn bump(&self, pick: impl Fn(&PlanStats) -> &AtomicU64) {
        if let Some(stats) = self.stats {
            PlanStats::bump(pick(stats));
        }
    }

    fn examined(&self, rows: usize) {
        if let Some(stats) = self.stats {
            PlanStats::add(&stats.rows_examined, rows);
        }
    }

    /// Enumerate all solutions of `literals` in textual order starting from
    /// `bindings`, invoking `callback` once per solution.
    pub fn join<F>(
        &self,
        literals: &[Literal],
        delta: Option<DeltaRestriction<'_>>,
        bindings: &mut Bindings,
        callback: &mut F,
    ) -> Result<()>
    where
        F: FnMut(&Bindings) -> Result<()>,
    {
        let steps = RulePlan::textual(literals.len()).order;
        self.join_steps(literals, &steps, 0, delta, bindings, callback)
    }

    /// Enumerate all solutions following a compiled plan.
    pub fn join_planned<F>(
        &self,
        literals: &[Literal],
        plan: &RulePlan,
        delta: Option<DeltaRestriction<'_>>,
        bindings: &mut Bindings,
        callback: &mut F,
    ) -> Result<()>
    where
        F: FnMut(&Bindings) -> Result<()>,
    {
        debug_assert_eq!(plan.order.len(), literals.len());
        self.join_steps(literals, &plan.order, 0, delta, bindings, callback)
    }

    fn join_steps<F>(
        &self,
        literals: &[Literal],
        steps: &[PlanStep],
        position: usize,
        delta: Option<DeltaRestriction<'_>>,
        bindings: &mut Bindings,
        callback: &mut F,
    ) -> Result<()>
    where
        F: FnMut(&Bindings) -> Result<()>,
    {
        if position == steps.len() {
            return callback(bindings);
        }
        let step = &steps[position];
        match &literals[step.literal] {
            Literal::Pos(atom) => self.join_positive(
                literals, steps, position, atom, step.probe, delta, bindings, callback,
            ),
            Literal::Neg(atom) => {
                if self.negation_holds(atom, bindings)? {
                    self.join_steps(literals, steps, position + 1, delta, bindings, callback)
                } else {
                    Ok(())
                }
            }
            Literal::Cmp(lhs, op, rhs) => self.join_comparison(
                literals, steps, position, lhs, *op, rhs, delta, bindings, callback,
            ),
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn join_positive<F>(
        &self,
        literals: &[Literal],
        steps: &[PlanStep],
        position: usize,
        atom: &Atom,
        probe: Option<ColumnSet>,
        delta: Option<DeltaRestriction<'_>>,
        bindings: &mut Bindings,
        callback: &mut F,
    ) -> Result<()>
    where
        F: FnMut(&Bindings) -> Result<()>,
    {
        let name = runtime_pred_name(&atom.pred)?;
        let name: &str = &name;
        // Every branch below backtracks to here.
        let mark = bindings.mark();

        // Built-in primitive type check, e.g. `int(C)` from a type declaration.
        if BUILTIN_TYPES.contains(&name) && atom.terms.len() == 1 {
            let value = eval_term(&atom.terms[0], bindings)?;
            return match value {
                Some(v) if v.primitive_type() == name => {
                    self.join_steps(literals, steps, position + 1, delta, bindings, callback)
                }
                // An unbound argument to a primitive type check cannot be
                // enumerated; treat as failure of this branch.
                _ => Ok(()),
            };
        }

        // User-defined function.
        if self.udfs.is_udf(name) {
            let mut pattern: Vec<Option<Value>> = Vec::with_capacity(atom.terms.len());
            for term in &atom.terms {
                pattern.push(match term {
                    Term::Var(v) => bindings.get(v).cloned(),
                    Term::Wildcard => None,
                    other => eval_term(other, bindings)?,
                });
            }
            let rows = self
                .udfs
                .call(name, &pattern)
                .map_err(|message| DatalogError::Udf {
                    function: name.to_string(),
                    message,
                })?;
            for row in rows {
                if match_tuple(&atom.terms, &row, bindings)? {
                    let result =
                        self.join_steps(literals, steps, position + 1, delta, bindings, callback);
                    bindings.restore(mark);
                    result?;
                }
            }
            return Ok(());
        }

        // Stored relation (possibly restricted to the delta set).
        if let Some(pinned) = delta.filter(|d| d.literal_index == steps[position].literal) {
            for tuple in pinned.delta {
                if match_tuple(&atom.terms, tuple, bindings)? {
                    let result =
                        self.join_steps(literals, steps, position + 1, delta, bindings, callback);
                    bindings.restore(mark);
                    result?;
                }
            }
            return Ok(());
        }

        let Some(relation) = self.relations.get(name) else {
            // Unknown / empty relation: no matches.
            return Ok(());
        };
        // Functional fast path: if every key term is ground, look the value up
        // directly instead of scanning.
        if let Some(key_arity) = relation.key_arity() {
            if atom.terms.len() == key_arity + 1 {
                let mut key: Vec<Value> = Vec::with_capacity(key_arity);
                let mut all_ground = true;
                for term in &atom.terms[..key_arity] {
                    match term {
                        Term::Var(v) => match bindings.get(v) {
                            Some(value) => key.push(value.clone()),
                            None => {
                                all_ground = false;
                                break;
                            }
                        },
                        Term::Wildcard => {
                            all_ground = false;
                            break;
                        }
                        other => match eval_term(other, bindings)? {
                            Some(value) => key.push(value),
                            None => {
                                all_ground = false;
                                break;
                            }
                        },
                    }
                }
                if all_ground {
                    if let Some(id) = relation.functional_find(&key) {
                        self.bump(|s| &s.functional_hits);
                        if match_stored(&atom.terms, relation, id, bindings)? {
                            let result = self
                                .descend(literals, steps, position, id, delta, bindings, callback);
                            bindings.restore(mark);
                            result?;
                        }
                    }
                    return Ok(());
                }
            }
        }

        // Index probe: evaluate the plan's bound columns and look the key up
        // in the relation's secondary index — or, when the plan bound every
        // column, in its primary map: the key is the tuple, there is nothing
        // left to bind and no candidate to match.  Falls back to a scan when
        // a key term is not ground at runtime or the index is missing.
        if let Some(cols) = probe {
            if let Some(key) = self.probe_key(atom, cols, bindings)? {
                if is_membership(atom.terms.len(), cols) {
                    self.bump(|s| &s.index_probes);
                    if let Some(id) = relation.find(&key) {
                        self.descend(literals, steps, position, id, delta, bindings, callback)?;
                    }
                    return Ok(());
                }
                if let Some(ids) = relation.probe(cols, &key) {
                    self.bump(|s| &s.index_probes);
                    self.examined(ids.len());
                    for id in ids {
                        if match_stored(&atom.terms, relation, id, bindings)? {
                            let result = self
                                .descend(literals, steps, position, id, delta, bindings, callback);
                            bindings.restore(mark);
                            result?;
                        }
                    }
                    return Ok(());
                }
            }
        }

        // General scan.  All borrows are shared, so the recursion can run
        // under the live iterator — no snapshot of the relation is taken.
        self.bump(|s| &s.full_scans);
        self.examined(relation.len());
        for id in relation.ids() {
            if match_stored(&atom.terms, relation, id, bindings)? {
                let result = self.descend(literals, steps, position, id, delta, bindings, callback);
                bindings.restore(mark);
                result?;
            }
        }
        Ok(())
    }

    /// Continue past the stored tuple `id` that the literal at `position`
    /// matched, keeping it on the trail while the rest of the plan runs.
    #[allow(clippy::too_many_arguments)]
    fn descend<F>(
        &self,
        literals: &[Literal],
        steps: &[PlanStep],
        position: usize,
        id: TupleId,
        delta: Option<DeltaRestriction<'_>>,
        bindings: &mut Bindings,
        callback: &mut F,
    ) -> Result<()>
    where
        F: FnMut(&Bindings) -> Result<()>,
    {
        let Some(trail) = self.trail else {
            return self.join_steps(literals, steps, position + 1, delta, bindings, callback);
        };
        trail.borrow_mut().push((steps[position].literal, id));
        let result = self.join_steps(literals, steps, position + 1, delta, bindings, callback);
        trail.borrow_mut().pop();
        result
    }

    /// Evaluate the probe key for `atom` on the columns of `cols`.  Returns
    /// `None` when some column's term is not ground under the current
    /// bindings (caller falls back to a scan).
    fn probe_key(
        &self,
        atom: &Atom,
        cols: ColumnSet,
        bindings: &Bindings,
    ) -> Result<Option<Tuple>> {
        let mut key = Vec::with_capacity(cols.count_ones() as usize);
        for (position, term) in atom.terms.iter().enumerate() {
            if position >= 64 || cols & (1 << position) == 0 {
                continue;
            }
            match eval_term(term, bindings)? {
                Some(value) => key.push(value),
                None => return Ok(None),
            }
        }
        Ok(Some(key))
    }

    /// `!p(args)` holds when no stored tuple matches the (partially ground)
    /// argument pattern.  Unbound variables and wildcards act as "any value".
    /// Uses a secondary index when one exists for the pattern's signature.
    fn negation_holds(&self, atom: &Atom, bindings: &Bindings) -> Result<bool> {
        let name = runtime_pred_name(&atom.pred)?;
        let name: &str = &name;
        if self.udfs.is_udf(name) {
            return Err(DatalogError::Eval(format!(
                "negation over user-defined function {name} is not supported"
            )));
        }
        let Some(relation) = self.relations.get(name) else {
            return Ok(true);
        };
        let mut pattern: Vec<Option<Value>> = Vec::with_capacity(atom.terms.len());
        for term in &atom.terms {
            pattern.push(match term {
                Term::Var(v) => bindings.get(v).cloned(),
                Term::Wildcard => None,
                other => eval_term(other, bindings)?,
            });
        }
        Ok(!relation.matches_any(&pattern))
    }

    #[allow(clippy::too_many_arguments)]
    fn join_comparison<F>(
        &self,
        literals: &[Literal],
        steps: &[PlanStep],
        position: usize,
        lhs: &Term,
        op: CmpOp,
        rhs: &Term,
        delta: Option<DeltaRestriction<'_>>,
        bindings: &mut Bindings,
        callback: &mut F,
    ) -> Result<()>
    where
        F: FnMut(&Bindings) -> Result<()>,
    {
        let lhs_value = eval_term(lhs, bindings)?;
        let rhs_value = eval_term(rhs, bindings)?;

        // Assignment form: `X = ground` or `ground = X` with X unbound.
        if op == CmpOp::Eq {
            let assignment = match (lhs, &lhs_value, rhs, &rhs_value) {
                (Term::Var(var), None, _, Some(value)) | (_, Some(value), Term::Var(var), None) => {
                    Some((var, value))
                }
                _ => None,
            };
            if let Some((var, value)) = assignment {
                let mark = bindings.mark();
                bindings.bind(var, value.clone());
                let result =
                    self.join_steps(literals, steps, position + 1, delta, bindings, callback);
                bindings.restore(mark);
                return result;
            }
        }

        let (Some(a), Some(b)) = (lhs_value, rhs_value) else {
            return Err(DatalogError::Eval(format!(
                "comparison {lhs} {op} {rhs} has unbound operands"
            )));
        };
        let ordering = a.total_cmp(&b);
        let holds = match op {
            CmpOp::Eq => ordering.is_eq(),
            CmpOp::Ne => !ordering.is_eq(),
            CmpOp::Lt => ordering.is_lt(),
            CmpOp::Le => ordering.is_le(),
            CmpOp::Gt => ordering.is_gt(),
            CmpOp::Ge => ordering.is_ge(),
        };
        if holds {
            self.join_steps(literals, steps, position + 1, delta, bindings, callback)
        } else {
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::plan::compile_body_plan;
    use crate::parser::parse_rule;
    use crate::relation::Relation;
    use crate::udf::standard_udfs;

    fn relations_with_edges(edges: &[(&str, &str)]) -> Relations {
        let mut relations = Relations::default();
        let mut rel = Relation::new("link", None);
        for (a, b) in edges {
            rel.insert(vec![Value::str(*a), Value::str(*b)]).unwrap();
        }
        relations.insert("link".to_string(), rel);
        relations
    }

    fn collect_solutions(
        relations: &Relations,
        udfs: &UdfRegistry,
        body_source: &str,
        vars: &[&str],
    ) -> Vec<Vec<Value>> {
        let rule = parse_rule(&format!("out(X) <- {body_source}.")).unwrap();
        let ctx = JoinContext::new(relations, udfs);
        let mut results = Vec::new();
        let mut bindings = Bindings::new();
        ctx.join(&rule.body, None, &mut bindings, &mut |b| {
            results.push(
                vars.iter()
                    .map(|v| b.get(v).cloned().unwrap_or(Value::Bool(false)))
                    .collect(),
            );
            Ok(())
        })
        .unwrap();
        results.sort_by(|a, b| format!("{a:?}").cmp(&format!("{b:?}")));
        results
    }

    #[test]
    fn simple_join_enumerates_paths() {
        let relations = relations_with_edges(&[("n1", "n2"), ("n2", "n3"), ("n2", "n4")]);
        let udfs = UdfRegistry::new();
        let solutions = collect_solutions(&relations, &udfs, "link(X, Z), link(Z, Y)", &["X", "Y"]);
        assert_eq!(solutions.len(), 2);
        assert!(solutions.contains(&vec![Value::str("n1"), Value::str("n3")]));
        assert!(solutions.contains(&vec![Value::str("n1"), Value::str("n4")]));
    }

    #[test]
    fn planned_join_with_indexes_matches_textual_join() {
        let mut relations = relations_with_edges(&[("n1", "n2"), ("n2", "n3"), ("n2", "n4")]);
        let udfs = UdfRegistry::new();
        let rule = parse_rule("out(X, Y) <- link(X, Z), link(Z, Y).").unwrap();
        let plan = compile_body_plan(&rule.body, None, &FnvSet::default(), &relations, &udfs);
        for spec in &plan.ensure {
            relations
                .get_mut(&spec.pred)
                .unwrap()
                .ensure_index(spec.cols);
        }
        let stats = PlanStats::default();
        let ctx = JoinContext::with_stats(&relations, &udfs, &stats);
        let mut results = Vec::new();
        let mut bindings = Bindings::new();
        ctx.join_planned(&rule.body, &plan, None, &mut bindings, &mut |b| {
            results.push(vec![
                b.get("X").cloned().unwrap(),
                b.get("Y").cloned().unwrap(),
            ]);
            Ok(())
        })
        .unwrap();
        results.sort_by(|a, b| format!("{a:?}").cmp(&format!("{b:?}")));
        let textual = collect_solutions(&relations, &udfs, "link(X, Z), link(Z, Y)", &["X", "Y"]);
        assert_eq!(results, textual);
        let snap = stats.snapshot();
        assert!(snap.index_probes > 0, "second literal should probe");
    }

    #[test]
    fn comparison_filters_and_assigns() {
        let relations = relations_with_edges(&[("n1", "n2"), ("n2", "n2")]);
        let udfs = UdfRegistry::new();
        let solutions = collect_solutions(&relations, &udfs, "link(X, Y), X != Y", &["X", "Y"]);
        assert_eq!(solutions.len(), 1);
        let solutions = collect_solutions(&relations, &udfs, "link(X, Y), Z = 42", &["Z"]);
        assert_eq!(solutions[0][0], Value::Int(42));
    }

    #[test]
    fn negation_checks_absence() {
        let relations = relations_with_edges(&[("n1", "n2"), ("n2", "n3")]);
        let udfs = UdfRegistry::new();
        let solutions =
            collect_solutions(&relations, &udfs, "link(X, Y), !link(Y, _)", &["X", "Y"]);
        // Only n2 -> n3 has no outgoing link from its target.
        assert_eq!(solutions, vec![vec![Value::str("n2"), Value::str("n3")]]);
    }

    #[test]
    fn udf_calls_bind_outputs() {
        let relations = relations_with_edges(&[("n1", "n2")]);
        let mut udfs = standard_udfs();
        udfs.register("length", |args| {
            let s = crate::udf::require_bound(args, 0, "length")?;
            let len = s.as_str().map(|s| s.len() as i64).ok_or("not a string")?;
            Ok(vec![vec![s, Value::Int(len)]])
        });
        let solutions =
            collect_solutions(&relations, &udfs, "link(X, _), length(X, N)", &["X", "N"]);
        assert_eq!(solutions, vec![vec![Value::str("n1"), Value::Int(2)]]);
    }

    #[test]
    fn builtin_type_check_in_body() {
        let mut relations = relations_with_edges(&[]);
        let mut values = Relation::new("v", None);
        values.insert(vec![Value::Int(3)]).unwrap();
        values.insert(vec![Value::str("x")]).unwrap();
        relations.insert("v".to_string(), values);
        let udfs = UdfRegistry::new();
        let solutions = collect_solutions(&relations, &udfs, "v(X), int(X)", &["X"]);
        assert_eq!(solutions, vec![vec![Value::Int(3)]]);
    }

    #[test]
    fn functional_lookup_fast_path() {
        let mut relations = Relations::default();
        let mut rel = Relation::new("bestcost", Some(2));
        rel.insert(vec![Value::str("a"), Value::str("b"), Value::Int(4)])
            .unwrap();
        relations.insert("bestcost".to_string(), rel);
        let udfs = UdfRegistry::new();
        let rule = parse_rule("out(C) <- bestcost[X, Y] = C, X = a, Y = b.").unwrap();
        // Reorder so the key is bound before the lookup: use explicit constants instead.
        let rule2 = parse_rule("out(C) <- bestcost[a, b] = C.").unwrap();
        let ctx = JoinContext::new(&relations, &udfs);
        let mut results = Vec::new();
        let mut bindings = Bindings::new();
        ctx.join(&rule2.body, None, &mut bindings, &mut |b| {
            results.push(b.get("C").cloned().unwrap());
            Ok(())
        })
        .unwrap();
        assert_eq!(results, vec![Value::Int(4)]);
        // The unbound-key form still works by scanning.
        let mut results = Vec::new();
        let mut bindings = Bindings::new();
        ctx.join(&rule.body, None, &mut bindings, &mut |b| {
            results.push(b.get("C").cloned().unwrap());
            Ok(())
        })
        .unwrap();
        assert_eq!(results, vec![Value::Int(4)]);
        // The planner hoists the assignments, so the planned execution takes
        // the functional fast path instead of scanning.
        let plan = compile_body_plan(&rule.body, None, &FnvSet::default(), &relations, &udfs);
        let stats = PlanStats::default();
        let ctx = JoinContext::with_stats(&relations, &udfs, &stats);
        let mut results = Vec::new();
        let mut bindings = Bindings::new();
        ctx.join_planned(&rule.body, &plan, None, &mut bindings, &mut |b| {
            results.push(b.get("C").cloned().unwrap());
            Ok(())
        })
        .unwrap();
        assert_eq!(results, vec![Value::Int(4)]);
        let snap = stats.snapshot();
        assert_eq!(snap.functional_hits, 1);
        assert_eq!(snap.full_scans, 0);
    }

    #[test]
    fn delta_restriction_limits_matches() {
        let relations = relations_with_edges(&[("n1", "n2"), ("n2", "n3")]);
        let udfs = UdfRegistry::new();
        let rule = parse_rule("out(X, Y) <- link(X, Y).").unwrap();
        let ctx = JoinContext::new(&relations, &udfs);
        let delta: FnvSet<Tuple> = [vec![Value::str("n2"), Value::str("n3")]]
            .into_iter()
            .collect();
        let mut results = Vec::new();
        let mut bindings = Bindings::new();
        ctx.join(
            &rule.body,
            Some(DeltaRestriction {
                literal_index: 0,
                delta: &delta,
            }),
            &mut bindings,
            &mut |b| {
                results.push(b.get("X").cloned().unwrap());
                Ok(())
            },
        )
        .unwrap();
        assert_eq!(results, vec![Value::str("n2")]);
    }

    #[test]
    fn unbound_comparison_is_error() {
        let relations = relations_with_edges(&[("n1", "n2")]);
        let udfs = UdfRegistry::new();
        let rule = parse_rule("out(X) <- link(X, _), X < Undefined.").unwrap();
        let ctx = JoinContext::new(&relations, &udfs);
        let mut bindings = Bindings::new();
        let result = ctx.join(&rule.body, None, &mut bindings, &mut |_| Ok(()));
        assert!(result.is_err());
        // The planner cannot make `Undefined` bindable either: the planned
        // execution reports the same error instead of silently dropping it.
        let plan = compile_body_plan(&rule.body, None, &FnvSet::default(), &relations, &udfs);
        let mut bindings = Bindings::new();
        let result = ctx.join_planned(&rule.body, &plan, None, &mut bindings, &mut |_| Ok(()));
        assert!(result.is_err());
    }
}
