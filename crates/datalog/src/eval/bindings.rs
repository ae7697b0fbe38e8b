//! Variable bindings and term evaluation.

use crate::ast::{ArithOp, Term};
use crate::error::{DatalogError, Result};
use crate::relation::Relation;
use crate::value::Value;
use std::collections::HashMap;

/// A substitution from variable names to values.
///
/// The join machinery binds and unbinds variables as it explores the search
/// space; [`Bindings::bind`] records nothing — callers track which variables
/// they introduced and remove them on backtrack.
///
/// `Bindings` is `Send + Sync` (values are `Arc`-shared), like everything
/// else a workspace owns: the reactor executor moves workspaces between its
/// threads.
#[derive(Debug, Clone, Default)]
pub struct Bindings {
    map: HashMap<String, Value>,
}

impl Bindings {
    /// An empty substitution.
    pub fn new() -> Self {
        Bindings {
            map: HashMap::new(),
        }
    }

    /// Look up a variable.
    pub fn get(&self, var: &str) -> Option<&Value> {
        self.map.get(var)
    }

    /// True if `var` is bound.
    pub fn is_bound(&self, var: &str) -> bool {
        self.map.contains_key(var)
    }

    /// Bind `var` to `value`.  Returns `false` (and leaves the binding
    /// unchanged) if `var` is already bound to a *different* value.
    pub fn bind(&mut self, var: &str, value: Value) -> bool {
        match self.map.get(var) {
            Some(existing) => *existing == value,
            None => {
                self.map.insert(var.to_string(), value);
                true
            }
        }
    }

    /// Remove a binding (used for backtracking).
    pub fn unbind(&mut self, var: &str) {
        self.map.remove(var);
    }

    /// Number of bound variables.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True if no variable is bound.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Iterate over the bound variables in sorted order (for deterministic
    /// diagnostics and existential-entity memo keys).
    pub fn sorted_items(&self) -> Vec<(String, Value)> {
        let mut items: Vec<(String, Value)> = self
            .map
            .iter()
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect();
        items.sort_by(|a, b| a.0.cmp(&b.0));
        items
    }

    /// Render the substitution for constraint-violation witnesses.
    pub fn render(&self) -> String {
        let items: Vec<String> = self
            .sorted_items()
            .into_iter()
            .map(|(k, v)| format!("{k} = {v}"))
            .collect();
        if items.is_empty() {
            "{}".to_string()
        } else {
            items.join(", ")
        }
    }
}

/// Evaluate a term under `bindings`.
///
/// Returns `Ok(None)` when the term cannot be evaluated to a ground value
/// (an unbound variable, a wildcard, an unset singleton, or arithmetic over
/// such) — callers treat that as a failed match rather than an error.
pub fn eval_term(
    term: &Term,
    bindings: &Bindings,
    relations: &HashMap<String, Relation>,
) -> Result<Option<Value>> {
    match term {
        Term::Var(v) => Ok(bindings.get(v).cloned()),
        Term::Wildcard => Ok(None),
        Term::Const(v) => Ok(Some(v.clone())),
        Term::SingletonRef(pred) => Ok(relations
            .get(pred)
            .and_then(|r| r.singleton_value())
            .cloned()),
        Term::VarSeq(v) => Err(DatalogError::Eval(format!(
            "variable sequence {v}* reached the evaluator; sequences are expanded by the \
             BloxGenerics compiler"
        ))),
        Term::BinOp(lhs, op, rhs) => {
            let lhs = eval_term(lhs, bindings, relations)?;
            let rhs = eval_term(rhs, bindings, relations)?;
            match (lhs, rhs) {
                (Some(Value::Int(a)), Some(Value::Int(b))) => {
                    let value = match op {
                        ArithOp::Add => a.checked_add(b),
                        ArithOp::Sub => a.checked_sub(b),
                        ArithOp::Mul => a.checked_mul(b),
                        ArithOp::Div => {
                            if b == 0 {
                                return Err(DatalogError::Eval("division by zero".into()));
                            }
                            a.checked_div(b)
                        }
                        ArithOp::Mod => {
                            if b == 0 {
                                return Err(DatalogError::Eval("modulo by zero".into()));
                            }
                            a.checked_rem(b)
                        }
                    };
                    value.map(|v| Some(Value::Int(v))).ok_or_else(|| {
                        DatalogError::Eval(format!("integer overflow in {a} {op} {b}"))
                    })
                }
                (Some(Value::Str(a)), Some(Value::Str(b))) if *op == ArithOp::Add => {
                    Ok(Some(Value::str(format!("{a}{b}"))))
                }
                (Some(a), Some(b)) => Err(DatalogError::Eval(format!(
                    "arithmetic {op} is not defined for {} and {}",
                    a.primitive_type(),
                    b.primitive_type()
                ))),
                _ => Ok(None),
            }
        }
    }
}

/// Match the argument terms of an atom against a stored tuple, extending
/// `bindings` in place.
///
/// On success returns the list of variables newly bound by this match (so the
/// caller can undo them when backtracking); on mismatch returns `None` with
/// `bindings` restored.
pub fn match_tuple(
    terms: &[Term],
    tuple: &[Value],
    bindings: &mut Bindings,
    relations: &HashMap<String, Relation>,
) -> Result<Option<Vec<String>>> {
    if terms.len() != tuple.len() {
        return Ok(None);
    }
    let mut newly_bound: Vec<String> = Vec::new();
    for (term, value) in terms.iter().zip(tuple.iter()) {
        let ok = match term {
            Term::Wildcard => true,
            Term::Var(v) => {
                if bindings.is_bound(v) {
                    bindings.get(v) == Some(value)
                } else {
                    bindings.bind(v, value.clone());
                    newly_bound.push(v.clone());
                    true
                }
            }
            other => match eval_term(other, bindings, relations)? {
                Some(evaluated) => evaluated == *value,
                None => false,
            },
        };
        if !ok {
            for var in &newly_bound {
                bindings.unbind(var);
            }
            return Ok(None);
        }
    }
    Ok(Some(newly_bound))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Term;

    fn no_relations() -> HashMap<String, Relation> {
        HashMap::new()
    }

    #[test]
    fn bindings_are_shareable_across_worker_threads() {
        fn assert_sync_send<T: Sync + Send>() {}
        assert_sync_send::<Bindings>();
    }

    #[test]
    fn bind_and_conflict() {
        let mut b = Bindings::new();
        assert!(b.bind("X", Value::Int(1)));
        assert!(b.bind("X", Value::Int(1)));
        assert!(!b.bind("X", Value::Int(2)));
        assert_eq!(b.get("X"), Some(&Value::Int(1)));
        b.unbind("X");
        assert!(!b.is_bound("X"));
    }

    #[test]
    fn eval_arithmetic() {
        let mut b = Bindings::new();
        b.bind("C", Value::Int(4));
        let term = Term::BinOp(
            Box::new(Term::var("C")),
            ArithOp::Add,
            Box::new(Term::Const(Value::Int(1))),
        );
        assert_eq!(
            eval_term(&term, &b, &no_relations()).unwrap(),
            Some(Value::Int(5))
        );
        // Unbound operand → not ground.
        let term = Term::BinOp(
            Box::new(Term::var("Z")),
            ArithOp::Mul,
            Box::new(Term::Const(Value::Int(2))),
        );
        assert_eq!(eval_term(&term, &b, &no_relations()).unwrap(), None);
        // Division by zero is an error.
        let term = Term::BinOp(
            Box::new(Term::Const(Value::Int(1))),
            ArithOp::Div,
            Box::new(Term::Const(Value::Int(0))),
        );
        assert!(eval_term(&term, &b, &no_relations()).is_err());
        // String concatenation with `+`.
        let term = Term::BinOp(
            Box::new(Term::Const(Value::str("says$"))),
            ArithOp::Add,
            Box::new(Term::Const(Value::str("path"))),
        );
        assert_eq!(
            eval_term(&term, &b, &no_relations()).unwrap(),
            Some(Value::str("says$path"))
        );
    }

    #[test]
    fn eval_singleton_ref() {
        let mut relations = HashMap::new();
        let mut rel = Relation::new("self", Some(0));
        rel.insert(vec![Value::str("n1")]).unwrap();
        relations.insert("self".to_string(), rel);
        let value = eval_term(
            &Term::SingletonRef("self".into()),
            &Bindings::new(),
            &relations,
        )
        .unwrap();
        assert_eq!(value, Some(Value::str("n1")));
        // Unset singleton is simply not ground.
        let value = eval_term(
            &Term::SingletonRef("missing".into()),
            &Bindings::new(),
            &relations,
        )
        .unwrap();
        assert_eq!(value, None);
    }

    #[test]
    fn varseq_at_runtime_is_error() {
        assert!(eval_term(&Term::VarSeq("V".into()), &Bindings::new(), &no_relations()).is_err());
    }

    #[test]
    fn match_binds_and_backtracks() {
        let relations = no_relations();
        let mut b = Bindings::new();
        let terms = vec![Term::var("X"), Term::var("Y"), Term::var("X")];
        // Matching tuple: X=1, Y=2, X=1 again.
        let bound = match_tuple(
            &terms,
            &[Value::Int(1), Value::Int(2), Value::Int(1)],
            &mut b,
            &relations,
        )
        .unwrap()
        .unwrap();
        assert_eq!(bound.len(), 2);
        assert_eq!(b.get("Y"), Some(&Value::Int(2)));
        for var in &bound {
            b.unbind(var);
        }
        // Mismatching tuple: X cannot be both 1 and 3; bindings must be restored.
        let result = match_tuple(
            &terms,
            &[Value::Int(1), Value::Int(2), Value::Int(3)],
            &mut b,
            &relations,
        )
        .unwrap();
        assert!(result.is_none());
        assert!(b.is_empty());
    }

    #[test]
    fn match_respects_constants_and_wildcards() {
        let relations = no_relations();
        let mut b = Bindings::new();
        let terms = vec![Term::Const(Value::str("n1")), Term::Wildcard];
        assert!(match_tuple(
            &terms,
            &[Value::str("n1"), Value::Int(9)],
            &mut b,
            &relations
        )
        .unwrap()
        .is_some());
        assert!(match_tuple(
            &terms,
            &[Value::str("n2"), Value::Int(9)],
            &mut b,
            &relations
        )
        .unwrap()
        .is_none());
        // Arity mismatch never matches.
        assert!(match_tuple(&terms, &[Value::str("n1")], &mut b, &relations)
            .unwrap()
            .is_none());
    }

    #[test]
    fn render_is_sorted_and_readable() {
        let mut b = Bindings::new();
        b.bind("Z", Value::Int(3));
        b.bind("A", Value::str("n1"));
        assert_eq!(b.render(), "A = n1, Z = 3");
        assert_eq!(Bindings::new().render(), "{}");
    }
}
