//! Predicate schemas: arities, argument types, functional dependencies and
//! singletons.
//!
//! DatalogLB declares a predicate's types with a *type declaration*, which is
//! syntactically an integrity constraint whose left-hand side is a single
//! atom with distinct variable arguments and whose right-hand side consists
//! only of unary atoms over those variables:
//!
//! ```text
//! link(N1, N2) -> node(N1), node(N2).
//! path[P, Src, Dst] = C -> pathvar(P), node(Src), node(Dst), int[32](C).
//! pathvar(P) -> .
//! ```
//!
//! [`Schema::absorb_program`] recognises these declarations, records them,
//! and also infers arities for predicates that are only ever used in rules.

use crate::ast::{Atom, Constraint, Literal, PredRef, Program, Statement, Term};
use crate::error::{DatalogError, Result};
use std::collections::BTreeMap;

/// Built-in primitive type names that need no declaration.
pub const BUILTIN_TYPES: &[&str] = &["int", "string", "bool", "bytes", "entity", "pred"];

/// How a predicate stores its tuples.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PredicateKind {
    /// An ordinary relation.
    Relation,
    /// A functional predicate `p[k1..kn] = v`: the first `key_arity` columns
    /// functionally determine the last column.
    Functional { key_arity: usize },
}

/// Declaration of a single predicate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PredicateDecl {
    pub name: String,
    pub arity: usize,
    pub kind: PredicateKind,
    /// Declared type (a unary predicate name or a built-in type) per argument
    /// position, where known.
    pub arg_types: Vec<Option<String>>,
    /// True if this predicate is itself used as a type (appears on the
    /// right-hand side of a type declaration or is declared with `p(X) -> .`).
    pub is_type: bool,
    /// True if the arity was only inferred from usage rather than declared.
    pub inferred: bool,
    /// True if the predicate was observed with conflicting arities in body
    /// positions only (user-defined functions such as `rsa_sign` are called
    /// with one argument per payload column, so their arity varies per call
    /// site).  Variadic predicates are skipped by the static type checker.
    pub variadic: bool,
    /// True if the predicate has been observed in a rule head or fact.
    pub head_observed: bool,
}

impl PredicateDecl {
    /// A new declaration with unknown argument types.
    pub fn new(name: impl Into<String>, arity: usize, kind: PredicateKind) -> Self {
        PredicateDecl {
            name: name.into(),
            arity,
            kind,
            arg_types: vec![None; arity],
            is_type: false,
            inferred: true,
            variadic: false,
            head_observed: false,
        }
    }

    /// True if this is a zero-key functional predicate (`p[] = v`).
    pub fn is_singleton(&self) -> bool {
        matches!(self.kind, PredicateKind::Functional { key_arity: 0 })
    }

    /// The key arity for functional predicates, or the full arity otherwise.
    pub fn key_arity(&self) -> usize {
        match self.kind {
            PredicateKind::Relation => self.arity,
            PredicateKind::Functional { key_arity } => key_arity,
        }
    }
}

/// The set of predicate declarations known to a workspace.
#[derive(Debug, Clone, Default)]
pub struct Schema {
    decls: BTreeMap<String, PredicateDecl>,
}

impl Schema {
    /// An empty schema.
    pub fn new() -> Self {
        Schema {
            decls: BTreeMap::new(),
        }
    }

    /// Look up a predicate declaration.
    pub fn get(&self, name: &str) -> Option<&PredicateDecl> {
        self.decls.get(name)
    }

    /// Iterate over all declarations.
    pub fn decls(&self) -> impl Iterator<Item = &PredicateDecl> {
        self.decls.values()
    }

    /// Number of declared predicates.
    pub fn len(&self) -> usize {
        self.decls.len()
    }

    /// True if no predicates are declared.
    pub fn is_empty(&self) -> bool {
        self.decls.is_empty()
    }

    /// True if `name` is a built-in primitive type or a declared type predicate.
    pub fn is_type(&self, name: &str) -> bool {
        BUILTIN_TYPES.contains(&name) || self.decls.get(name).is_some_and(|d| d.is_type)
    }

    /// Declare (or refine) a predicate explicitly.
    ///
    /// Arity conflicts between two explicit declarations are errors; an
    /// inferred declaration is silently upgraded by an explicit one.
    pub fn declare(&mut self, decl: PredicateDecl) -> Result<()> {
        match self.decls.get_mut(&decl.name) {
            None => {
                self.decls.insert(decl.name.clone(), decl);
                Ok(())
            }
            Some(existing) => {
                if existing.arity != decl.arity {
                    return Err(DatalogError::Schema(format!(
                        "predicate {} declared with arity {} but previously seen with arity {}",
                        decl.name, decl.arity, existing.arity
                    )));
                }
                if existing.inferred && !decl.inferred {
                    let is_type = existing.is_type || decl.is_type;
                    *existing = decl;
                    existing.is_type = is_type;
                } else {
                    // Merge type information where the new declaration knows more.
                    if existing.kind == PredicateKind::Relation
                        && decl.kind != PredicateKind::Relation
                    {
                        existing.kind = decl.kind;
                    }
                    for (slot, ty) in existing.arg_types.iter_mut().zip(decl.arg_types.iter()) {
                        if slot.is_none() {
                            slot.clone_from(ty);
                        }
                    }
                    existing.is_type |= decl.is_type;
                }
                Ok(())
            }
        }
    }

    /// Record that `name` is used as a type predicate.
    pub fn mark_type(&mut self, name: &str) {
        if BUILTIN_TYPES.contains(&name) {
            return;
        }
        self.decls
            .entry(name.to_string())
            .or_insert_with(|| PredicateDecl::new(name, 1, PredicateKind::Relation))
            .is_type = true;
    }

    /// Infer (or check) a declaration from an atom occurrence, distinguishing
    /// head/fact positions (strict arity checking) from body positions
    /// (conflicts mark the predicate variadic — the convention for
    /// user-defined functions with per-call-site arity).
    pub fn observe_atom_at(&mut self, atom: &Atom, in_head: bool) -> Result<()> {
        let name = match &atom.pred {
            PredRef::Named(n) => n.clone(),
            PredRef::Parameterized { generic, param } => format!("{generic}${param}"),
            // Meta-level references are resolved by the BloxGenerics compiler
            // before a program reaches the schema.
            PredRef::ParameterizedVar { .. } | PredRef::Var(_) => return Ok(()),
        };
        let arity = atom.terms.len();
        let kind = if atom.functional {
            PredicateKind::Functional {
                key_arity: arity.saturating_sub(1),
            }
        } else {
            PredicateKind::Relation
        };
        match self.decls.get_mut(&name) {
            None => {
                let mut decl = PredicateDecl::new(name.clone(), arity, kind);
                decl.head_observed = in_head;
                self.decls.insert(name, decl);
                Ok(())
            }
            Some(existing) if existing.arity != arity => {
                if in_head || existing.head_observed || !existing.inferred {
                    Err(DatalogError::Schema(format!(
                        "predicate {name} used with arity {arity} but declared/used with arity {}",
                        existing.arity
                    )))
                } else {
                    existing.variadic = true;
                    Ok(())
                }
            }
            Some(existing) => {
                existing.head_observed |= in_head;
                Ok(())
            }
        }
    }

    /// Recognise type declarations and functional-dependency declarations in
    /// `program`, and infer arities for every other predicate that appears.
    pub fn absorb_program(&mut self, program: &Program) -> Result<()> {
        // First pass: explicit type declarations (constraints of the
        // recognised shape), so later arity inference agrees with them.
        for statement in &program.statements {
            if let Statement::Constraint(c) = statement {
                if let Some(decl) = Self::try_type_declaration(c) {
                    for lit in &c.rhs {
                        if let Literal::Pos(atom) = lit {
                            if let PredRef::Named(ty) = &atom.pred {
                                if !BUILTIN_TYPES.contains(&ty.as_str()) {
                                    self.mark_type(ty);
                                }
                            }
                        }
                    }
                    self.declare(decl)?;
                }
            }
        }
        // Second pass: observe every atom to infer arities and catch
        // inconsistent usage.
        for statement in &program.statements {
            match statement {
                Statement::Rule(rule) => {
                    for atom in &rule.head {
                        self.observe_atom_at(atom, true)?;
                    }
                    for lit in &rule.body {
                        if let Literal::Pos(a) | Literal::Neg(a) = lit {
                            self.observe_atom_at(a, false)?;
                        }
                    }
                }
                Statement::Constraint(c) => {
                    for lit in c.lhs.iter().chain(c.rhs.iter()) {
                        if let Literal::Pos(a) | Literal::Neg(a) = lit {
                            self.observe_atom_at(a, false)?;
                        }
                    }
                }
                Statement::Fact(fd) => self.observe_atom_at(&fd.atom, true)?,
                // Generic statements are handled by the BloxGenerics compiler.
                Statement::GenericRule(_) | Statement::GenericConstraint(_) => {}
            }
        }
        Ok(())
    }

    /// If `constraint` has the shape of a type declaration, build the
    /// corresponding [`PredicateDecl`].
    ///
    /// Recognised shapes:
    /// * `p(X1,…,Xn) -> t1(X1), …, tk(Xk).` — possibly with fewer `ti` than
    ///   arguments; unary `p(X) -> .` declares an entity/type predicate.
    /// * `p[X1,…,Xn] = Y -> t1(X1), …, t(Y).` — functional predicate.
    pub fn try_type_declaration(constraint: &Constraint) -> Option<PredicateDecl> {
        if constraint.lhs.len() != 1 {
            return None;
        }
        let atom = constraint.lhs[0].as_pos()?;
        let name = atom.pred.as_named()?;
        // All arguments must be distinct variables.
        let mut vars = Vec::new();
        for term in &atom.terms {
            match term {
                Term::Var(v) if !vars.contains(v) => vars.push(v.clone()),
                _ => return None,
            }
        }
        // The right-hand side must consist only of unary positive atoms over
        // those variables (or be empty).
        let mut arg_types = vec![None; atom.terms.len()];
        for lit in &constraint.rhs {
            let rhs_atom = match lit {
                Literal::Pos(a) => a,
                _ => return None,
            };
            let ty = rhs_atom.pred.as_named()?;
            if rhs_atom.terms.len() != 1 {
                return None;
            }
            let var = match &rhs_atom.terms[0] {
                Term::Var(v) => v,
                _ => return None,
            };
            let position = vars.iter().position(|v| v == var)?;
            arg_types[position] = Some(ty.to_string());
        }
        let kind = if atom.functional {
            PredicateKind::Functional {
                key_arity: atom.terms.len().saturating_sub(1),
            }
        } else {
            PredicateKind::Relation
        };
        let is_type = atom.terms.len() == 1 && constraint.rhs.is_empty();
        Some(PredicateDecl {
            name: name.to_string(),
            arity: atom.terms.len(),
            kind,
            arg_types,
            is_type,
            inferred: false,
            variadic: false,
            head_observed: true,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;

    #[test]
    fn recognises_type_declarations() {
        let program = parse_program(
            r#"
            link(N1, N2) -> node(N1), node(N2).
            pathvar(P) -> .
            path[P, Src, Dst] = C -> pathvar(P), node(Src), node(Dst), int[32](C).
            reachable(X, Y) <- link(X, Y).
            "#,
        )
        .unwrap();
        let mut schema = Schema::new();
        schema.absorb_program(&program).unwrap();

        let link = schema.get("link").unwrap();
        assert_eq!(link.arity, 2);
        assert_eq!(
            link.arg_types,
            vec![Some("node".into()), Some("node".into())]
        );
        assert!(!link.inferred);

        let path = schema.get("path").unwrap();
        assert_eq!(path.arity, 4);
        assert_eq!(path.kind, PredicateKind::Functional { key_arity: 3 });
        assert_eq!(path.arg_types[3], Some("int".into()));

        assert!(schema.get("pathvar").unwrap().is_type);
        assert!(schema.is_type("node"));
        assert!(schema.is_type("int"));
        assert!(!schema.is_type("link"));

        // reachable was only inferred from the rule.
        let reachable = schema.get("reachable").unwrap();
        assert_eq!(reachable.arity, 2);
        assert!(reachable.inferred);
    }

    #[test]
    fn arity_conflicts_rejected() {
        let program = parse_program("p(X) <- q(X).\np(X, Y) <- q(X), q(Y).").unwrap();
        let mut schema = Schema::new();
        let err = schema.absorb_program(&program).unwrap_err();
        assert!(matches!(err, DatalogError::Schema(_)));
    }

    #[test]
    fn explicit_declaration_conflict_rejected() {
        let mut schema = Schema::new();
        schema
            .declare(PredicateDecl::new("p", 2, PredicateKind::Relation))
            .unwrap();
        let mut other = PredicateDecl::new("p", 3, PredicateKind::Relation);
        other.inferred = false;
        assert!(schema.declare(other).is_err());
    }

    #[test]
    fn body_only_arity_conflicts_mark_variadic() {
        // rsa_sign is called with different arities from different rule
        // bodies (one argument per payload column) — tolerated as variadic.
        let program = parse_program(
            "sig_a(X, S) <- a(X), rsa_sign(K, X, S).\n\
             sig_b(X, Y, S) <- b(X, Y), rsa_sign(K, X, Y, S).",
        )
        .unwrap();
        let mut schema = Schema::new();
        schema.absorb_program(&program).unwrap();
        assert!(schema.get("rsa_sign").unwrap().variadic);
        // But a head-position conflict is still an error.
        let bad = parse_program("p(X) <- q(X).\np(X, Y) <- q(X), q(Y).").unwrap();
        let mut schema = Schema::new();
        assert!(schema.absorb_program(&bad).is_err());
    }

    #[test]
    fn singleton_detection() {
        let program = parse_program("self[] = me -> principal(me).").unwrap();
        // Not a valid type declaration (constant arg), but usage inference still works.
        let mut schema = Schema::new();
        schema.absorb_program(&program).unwrap();
        let decl = schema.get("self").unwrap();
        assert!(decl.is_singleton());
        assert_eq!(decl.key_arity(), 0);
    }

    #[test]
    fn merge_keeps_best_information() {
        let mut schema = Schema::new();
        schema
            .declare(PredicateDecl::new("p", 2, PredicateKind::Relation))
            .unwrap();
        let mut refined = PredicateDecl::new("p", 2, PredicateKind::Functional { key_arity: 1 });
        refined.arg_types = vec![Some("node".into()), Some("int".into())];
        refined.inferred = false;
        schema.declare(refined).unwrap();
        let decl = schema.get("p").unwrap();
        assert_eq!(decl.kind, PredicateKind::Functional { key_arity: 1 });
        assert_eq!(decl.arg_types[0], Some("node".into()));
    }
}
