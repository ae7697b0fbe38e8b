//! Variable bindings and term evaluation.

use crate::ast::{ArithOp, Term};
use crate::error::{DatalogError, Result};
use crate::relation::{Relation, TupleId};
use crate::value::Value;

/// A substitution from variable names to values, kept as a stack.
///
/// The join machinery binds variables as it descends and backtracks by
/// restoring a [`mark`](Bindings::mark): everything bound since is dropped at
/// once.  A rule has a handful of variables, so a lookup is a short scan of
/// the stack, and a slot given up by [`restore`](Bindings::restore) keeps its
/// name buffer for the next bind — a join that reuses one `Bindings`
/// allocates nothing per solution once its variables have been seen.
///
/// `Bindings` is `Send + Sync` (values are `Arc`-shared), like everything
/// else a workspace owns: the reactor executor moves workspaces between its
/// threads.
#[derive(Debug, Default)]
pub struct Bindings {
    /// `slots[..len]` is the substitution, oldest binding first; the slots
    /// past `len` are retired and only lend their name buffers.
    slots: Vec<(String, Value)>,
    len: usize,
}

/// Copies the substitution, not the retired slots; `clone_from` reuses the
/// target's slots.
impl Clone for Bindings {
    fn clone(&self) -> Self {
        Bindings {
            slots: self.live().to_vec(),
            len: self.len,
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.len = 0;
        for (name, value) in source.live() {
            self.push(name, value.clone());
        }
    }
}

impl Bindings {
    /// An empty substitution.
    pub fn new() -> Self {
        Bindings::default()
    }

    fn live(&self) -> &[(String, Value)] {
        &self.slots[..self.len]
    }

    /// Look up a variable.
    pub fn get(&self, var: &str) -> Option<&Value> {
        self.live()
            .iter()
            .find(|(name, _)| name == var)
            .map(|(_, value)| value)
    }

    /// True if `var` is bound.
    pub fn is_bound(&self, var: &str) -> bool {
        self.get(var).is_some()
    }

    /// Bind `var` to `value`.  Returns `false` (and leaves the binding
    /// unchanged) if `var` is already bound to a *different* value.
    pub fn bind(&mut self, var: &str, value: Value) -> bool {
        match self.get(var) {
            Some(existing) => *existing == value,
            None => {
                self.push(var, value);
                true
            }
        }
    }

    /// Push a binding for a variable the caller knows to be unbound.
    fn push(&mut self, var: &str, value: Value) {
        match self.slots.get_mut(self.len) {
            Some((name, slot)) => {
                name.clear();
                name.push_str(var);
                *slot = value;
            }
            None => self.slots.push((var.to_string(), value)),
        }
        self.len += 1;
    }

    /// Remove one binding.  Bindings made before an outstanding
    /// [`mark`](Bindings::mark) must stay until it is restored.
    pub fn unbind(&mut self, var: &str) {
        if let Some(position) = self.live().iter().position(|(name, _)| name == var) {
            self.slots[position..self.len].rotate_left(1);
            self.len -= 1;
        }
    }

    /// The current depth of the stack, to [`restore`](Bindings::restore)
    /// when backtracking.
    pub fn mark(&self) -> usize {
        self.len
    }

    /// Drop every binding made since `mark` was taken.
    pub fn restore(&mut self, mark: usize) {
        self.len = self.len.min(mark);
    }

    /// Number of bound variables.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no variable is bound.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The bound variables in sorted order (for deterministic diagnostics
    /// and existential-entity memo keys).
    pub fn sorted_items(&self) -> Vec<(String, Value)> {
        let mut items = self.live().to_vec();
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

/// Evaluate a term under `bindings`: a pure function of the two, which reads
/// no relation.
///
/// Returns `Ok(None)` when the term cannot be evaluated to a ground value
/// (an unbound variable, a wildcard, or arithmetic over such) — callers
/// treat that as a failed match rather than an error.
pub fn eval_term(term: &Term, bindings: &Bindings) -> Result<Option<Value>> {
    match term {
        Term::Var(v) => Ok(bindings.get(v).cloned()),
        Term::Wildcard => Ok(None),
        Term::Const(v) => Ok(Some(v.clone())),
        Term::SingletonRef(pred) => Err(DatalogError::Eval(format!(
            "singleton read {pred}[] reached the evaluator; a workspace lifts it into a body \
             literal when it installs the rule (`Rule::lift_singletons`)"
        ))),
        Term::VarSeq(v) => Err(DatalogError::Eval(format!(
            "variable sequence {v}* reached the evaluator; sequences are expanded by the \
             BloxGenerics compiler"
        ))),
        Term::BinOp(lhs, op, rhs) => {
            let lhs = eval_term(lhs, bindings)?;
            let rhs = eval_term(rhs, bindings)?;
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
/// Returns whether the tuple matched.  On a match the new bindings sit above
/// the caller's [`Bindings::mark`], for it to restore when it backtracks; on
/// a mismatch — or an error — `bindings` is exactly as it was.
pub fn match_tuple(terms: &[Term], tuple: &[Value], bindings: &mut Bindings) -> Result<bool> {
    if terms.len() != tuple.len() {
        return Ok(false);
    }
    let mark = bindings.mark();
    for (term, value) in terms.iter().zip(tuple.iter()) {
        let ok = match term {
            Term::Wildcard => Ok(true),
            Term::Var(v) => match bindings.get(v) {
                Some(bound) => Ok(bound == value),
                None => {
                    bindings.push(v, value.clone());
                    Ok(true)
                }
            },
            other => eval_term(other, bindings).map(|evaluated| evaluated.as_ref() == Some(value)),
        };
        if !matches!(ok, Ok(true)) {
            bindings.restore(mark);
            return ok;
        }
    }
    Ok(true)
}

/// [`match_tuple`] against the stored tuple `id` of `relation`, read in
/// place: constants and bound variables compare against the dictionary's
/// values under one read guard, and a fresh variable binds a clone of its
/// value (a reference-count bump).  Nothing is rehydrated, so no candidate
/// allocates.
pub fn match_stored(
    terms: &[Term],
    relation: &Relation,
    id: TupleId,
    bindings: &mut Bindings,
) -> Result<bool> {
    let row = relation.row(id);
    if terms.len() != row.arity() {
        return Ok(false);
    }
    let values = relation.interner().values();
    let mark = bindings.mark();
    for (col, term) in terms.iter().enumerate() {
        let value = values.get(row.id(col));
        let ok = match term {
            Term::Wildcard => Ok(true),
            Term::Var(v) => match bindings.get(v) {
                Some(bound) => Ok(bound == value),
                None => {
                    bindings.push(v, value.clone());
                    Ok(true)
                }
            },
            Term::Const(constant) => Ok(constant == value),
            other => eval_term(other, bindings).map(|evaluated| evaluated.as_ref() == Some(value)),
        };
        if !matches!(ok, Ok(true)) {
            bindings.restore(mark);
            return ok;
        }
    }
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Term;

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
        assert_eq!(eval_term(&term, &b).unwrap(), Some(Value::Int(5)));
        // Unbound operand → not ground.
        let term = Term::BinOp(
            Box::new(Term::var("Z")),
            ArithOp::Mul,
            Box::new(Term::Const(Value::Int(2))),
        );
        assert_eq!(eval_term(&term, &b).unwrap(), None);
        // Division by zero is an error.
        let term = Term::BinOp(
            Box::new(Term::Const(Value::Int(1))),
            ArithOp::Div,
            Box::new(Term::Const(Value::Int(0))),
        );
        assert!(eval_term(&term, &b).is_err());
        // String concatenation with `+`.
        let term = Term::BinOp(
            Box::new(Term::Const(Value::str("says$"))),
            ArithOp::Add,
            Box::new(Term::Const(Value::str("path"))),
        );
        assert_eq!(eval_term(&term, &b).unwrap(), Some(Value::str("says$path")));
    }

    #[test]
    fn eval_singleton_ref() {
        // A singleton read is lifted into a body literal at install; one
        // that reaches the evaluator is refused, bare or inside arithmetic.
        let read = Term::SingletonRef("self".into());
        let error = eval_term(&read, &Bindings::new()).unwrap_err();
        assert!(matches!(error, DatalogError::Eval(_)), "{error}");
        let sum = Term::BinOp(
            Box::new(Term::Const(Value::Int(1))),
            ArithOp::Add,
            Box::new(read),
        );
        assert!(eval_term(&sum, &Bindings::new()).is_err());
        // The variable the lift binds evaluates like any other.
        let mut b = Bindings::new();
        b.bind(&crate::ast::singleton_var("self"), Value::str("n1"));
        let lifted = Term::var(crate::ast::singleton_var("self"));
        assert_eq!(eval_term(&lifted, &b).unwrap(), Some(Value::str("n1")));
    }

    #[test]
    fn varseq_at_runtime_is_error() {
        assert!(eval_term(&Term::VarSeq("V".into()), &Bindings::new()).is_err());
    }

    #[test]
    fn match_binds_and_backtracks() {
        let mut b = Bindings::new();
        let terms = vec![Term::var("X"), Term::var("Y"), Term::var("X")];
        // Matching tuple: X=1, Y=2, X=1 again.
        let mark = b.mark();
        assert!(match_tuple(
            &terms,
            &[Value::Int(1), Value::Int(2), Value::Int(1)],
            &mut b,
        )
        .unwrap());
        assert_eq!(b.len(), 2);
        assert_eq!(b.get("Y"), Some(&Value::Int(2)));
        b.restore(mark);
        // Mismatching tuple: X cannot be both 1 and 3; bindings must be restored.
        let matched = match_tuple(
            &terms,
            &[Value::Int(1), Value::Int(2), Value::Int(3)],
            &mut b,
        )
        .unwrap();
        assert!(!matched);
        assert!(b.is_empty());
    }

    #[test]
    fn match_respects_constants_and_wildcards() {
        let mut b = Bindings::new();
        let terms = vec![Term::Const(Value::str("n1")), Term::Wildcard];
        assert!(match_tuple(&terms, &[Value::str("n1"), Value::Int(9)], &mut b).unwrap());
        assert!(!match_tuple(&terms, &[Value::str("n2"), Value::Int(9)], &mut b).unwrap());
        // Arity mismatch never matches.
        assert!(!match_tuple(&terms, &[Value::str("n1")], &mut b).unwrap());
    }

    #[test]
    fn a_failed_match_leaves_the_bindings_as_it_found_them() {
        // X is bound before the match, Y and Z are bound by it; Y repeats,
        // and the last term reads Z.
        let terms = vec![
            Term::var("Y"),
            Term::var("X"),
            Term::Const(Value::Int(7)),
            Term::var("Z"),
            Term::var("Y"),
            Term::BinOp(
                Box::new(Term::var("Z")),
                ArithOp::Add,
                Box::new(Term::Const(Value::Int(1))),
            ),
        ];
        let good = [1, 0, 7, 2, 1, 3].map(Value::Int);
        let mut b = Bindings::new();
        b.bind("X", Value::Int(0));
        b.bind("W", Value::str("w"));
        let before = b.clone();
        // Spoil one position at a time: the match fails there, or where a
        // later term reads what it bound (at the last term, an arithmetic
        // error) — after binding Y, Z, or both.
        for position in 0..terms.len() {
            let mut tuple = good.to_vec();
            tuple[position] = Value::str("spoilt");
            let result = match_tuple(&terms, &tuple, &mut b);
            assert!(!matches!(result, Ok(true)), "position {position}");
            assert_eq!(b.live(), before.live(), "position {position}");
        }
        assert!(!match_tuple(&terms, &good[1..], &mut b).unwrap());
        assert_eq!(b.live(), before.live());
        // A match binds above the caller's mark, and restoring it undoes
        // exactly that.
        let mark = b.mark();
        assert!(match_tuple(&terms, &good, &mut b).unwrap());
        assert_eq!(b.len(), 4);
        assert_eq!(b.get("Z"), Some(&Value::Int(2)));
        b.restore(mark);
        assert_eq!(b.live(), before.live());
    }

    #[test]
    fn restored_slots_are_reused_and_never_read() {
        let mut b = Bindings::new();
        b.bind("A", Value::Int(1));
        let mark = b.mark();
        b.bind("B", Value::Int(2));
        b.bind("C", Value::Int(3));
        b.restore(mark);
        assert_eq!(b.len(), 1);
        assert!(!b.is_bound("B") && !b.is_bound("C"));
        assert_eq!(b.clone().slots.len(), 1, "a clone copies only live slots");
        b.bind("D", Value::Int(4));
        assert_eq!(b.get("D"), Some(&Value::Int(4)));
        assert!(!b.is_bound("B"));
        assert_eq!(b.render(), "A = 1, D = 4");
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
