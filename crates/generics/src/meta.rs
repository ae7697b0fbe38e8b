//! Relational representation of programs (the meta-database).
//!
//! "A BloxGenerics compiler pipeline stage converts input DatalogLB programs
//! into their relational representations and populates these generic
//! predicates" (paper §4.1.1).  The built-in generic predicates provided here
//! are:
//!
//! * `predicate(P)` — the set of concrete predicates,
//! * `pred_arity[P] = N` — each predicate's arity,
//! * `functional(P)` — predicates declared with functional (`p[..]=v`) syntax,
//! * `type_pred(P)` — predicates used as types.
//!
//! User-defined generic predicates (such as `exportable` or
//! `trustworthyPerPred`) are ordinary facts whose arguments are quoted
//! predicates; they are copied into the meta-database so that generic-rule
//! bodies can match them.

use secureblox_datalog::ast::{Literal, Program, Statement, Term};
use secureblox_datalog::error::Result;
use secureblox_datalog::relation::{Relation, Relations};
use secureblox_datalog::schema::{PredicateKind, Schema};
use secureblox_datalog::value::{Tuple, Value};

/// The meta-level database over which generic rules and constraints are
/// evaluated.
#[derive(Debug, Clone, Default)]
pub struct MetaDatabase {
    relations: Relations,
}

impl MetaDatabase {
    /// Build the meta-database for a program and its absorbed schema.
    pub fn from_program(program: &Program, schema: &Schema) -> Result<Self> {
        let mut db = MetaDatabase {
            relations: Relations::default(),
        };

        // Built-in generic predicates derived from the schema.
        for decl in schema.decls() {
            db.insert("predicate", vec![Value::pred(&decl.name)])?;
            db.insert(
                "pred_arity",
                vec![Value::pred(&decl.name), Value::Int(decl.arity as i64)],
            )?;
            if matches!(decl.kind, PredicateKind::Functional { .. }) {
                db.insert("functional", vec![Value::pred(&decl.name)])?;
            }
            if decl.is_type {
                db.insert("type_pred", vec![Value::pred(&decl.name)])?;
            }
        }

        // User meta-facts: ground facts that mention at least one quoted
        // predicate argument, e.g. `exportable(`path).` or
        // `trustworthyPerPred[`creditscore]("CA").`
        for fact in program.facts() {
            let mentions_pred = fact
                .atom
                .terms
                .iter()
                .any(|t| matches!(t, Term::Const(Value::Pred(_))))
                || !matches!(fact.atom.pred, secureblox_datalog::ast::PredRef::Named(_));
            if !mentions_pred {
                continue;
            }
            let name = secureblox_datalog::eval::runtime_pred_name(&fact.atom.pred)?;
            let mut tuple = Vec::with_capacity(fact.atom.terms.len());
            let mut ground = true;
            for term in &fact.atom.terms {
                match term {
                    Term::Const(v) => tuple.push(v.clone()),
                    _ => {
                        ground = false;
                        break;
                    }
                }
            }
            if ground {
                db.insert(&name, tuple)?;
            }
        }
        Ok(db)
    }

    /// Insert a meta-fact; returns whether it is new.
    pub fn insert(&mut self, pred: &str, tuple: Tuple) -> Result<bool> {
        let relation = self
            .relations
            .entry(pred.to_string())
            .or_insert_with(|| Relation::new(pred, None));
        relation.insert(tuple)
    }

    /// True if the meta-fact is present.
    pub fn contains(&self, pred: &str, tuple: &[Value]) -> bool {
        self.relations.get(pred).is_some_and(|r| r.contains(tuple))
    }

    /// All tuples of one meta-predicate.
    pub fn tuples(&self, pred: &str) -> Vec<Tuple> {
        self.relations
            .get(pred)
            .map(|r| r.sorted())
            .unwrap_or_default()
    }

    /// The arity recorded for a concrete predicate, if known.
    pub fn arity_of(&self, pred: &str) -> Option<usize> {
        self.relations.get("pred_arity").and_then(|rel| {
            rel.iter()
                .find(|t| t.first().and_then(|v| v.as_pred()) == Some(pred))
                .and_then(|t| t.get(1).and_then(Value::as_int))
                .map(|n| n as usize)
        })
    }

    /// Record a newly generated predicate so later generic rules can see it.
    pub fn add_generated_predicate(
        &mut self,
        name: &str,
        arity: usize,
        functional: bool,
    ) -> Result<()> {
        self.insert("predicate", vec![Value::pred(name)])?;
        self.insert(
            "pred_arity",
            vec![Value::pred(name), Value::Int(arity as i64)],
        )?;
        if functional {
            self.insert("functional", vec![Value::pred(name)])?;
        }
        Ok(())
    }

    /// Borrow the underlying relations (for joins and constraint checks).
    pub fn relations(&self) -> &Relations {
        &self.relations
    }

    /// Total number of meta-facts (used to detect fixpoint).
    pub fn total_facts(&self) -> usize {
        self.relations.values().map(|r| r.len()).sum()
    }
}

/// Collect the names of meta-predicates referenced by the bodies of generic
/// rules and constraints in a program — useful for diagnostics.
pub fn referenced_meta_predicates(program: &Program) -> Vec<String> {
    let mut names = Vec::new();
    let visit_literals = |literals: &[Literal], names: &mut Vec<String>| {
        for literal in literals {
            if let Literal::Pos(atom) | Literal::Neg(atom) = literal {
                if let Ok(name) = secureblox_datalog::eval::runtime_pred_name(&atom.pred) {
                    if !names.iter().any(|known| *known == name) {
                        names.push(name.into_owned());
                    }
                }
            }
        }
    };
    for statement in &program.statements {
        match statement {
            Statement::GenericRule(g) => visit_literals(&g.body, &mut names),
            Statement::GenericConstraint(g) => {
                visit_literals(&g.lhs, &mut names);
                visit_literals(&g.rhs, &mut names);
            }
            _ => {}
        }
    }
    names.sort();
    names
}

#[cfg(test)]
mod tests {
    use super::*;
    use secureblox_datalog::parse_program;

    fn build(source: &str) -> MetaDatabase {
        let program = parse_program(source).unwrap();
        let mut schema = Schema::new();
        schema.absorb_program(&program).unwrap();
        MetaDatabase::from_program(&program, &schema).unwrap()
    }

    #[test]
    fn predicates_and_arities_recorded() {
        let db = build(
            "link(N1, N2) -> node(N1), node(N2).\n\
             path[P, S, D] = C -> pathvar(P), node(S), node(D), int[32](C).\n\
             reachable(X, Y) <- link(X, Y).",
        );
        assert!(db.contains("predicate", &[Value::pred("link")]));
        assert!(db.contains("predicate", &[Value::pred("reachable")]));
        assert_eq!(db.arity_of("path"), Some(4));
        assert_eq!(db.arity_of("link"), Some(2));
        assert!(db.contains("functional", &[Value::pred("path")]));
        assert!(!db.contains("functional", &[Value::pred("link")]));
        assert!(db.contains("type_pred", &[Value::pred("node")]));
    }

    #[test]
    fn user_meta_facts_copied() {
        let db = build(
            "reachable(X, Y) <- link(X, Y).\n\
             exportable(`reachable).\n\
             trustworthyPerPred[`creditscore](\"CA\").\n\
             plain_fact(n1, n2).",
        );
        assert!(db.contains("exportable", &[Value::pred("reachable")]));
        assert_eq!(db.tuples("trustworthyPerPred$creditscore").len(), 1);
        // Plain ground facts with no predicate arguments are not meta-facts.
        assert!(db.tuples("plain_fact").is_empty());
    }

    #[test]
    fn generated_predicates_become_visible() {
        let mut db = build("reachable(X, Y) <- link(X, Y).");
        db.add_generated_predicate("says$reachable", 4, false)
            .unwrap();
        assert!(db.contains("predicate", &[Value::pred("says$reachable")]));
        assert_eq!(db.arity_of("says$reachable"), Some(4));
    }

    #[test]
    fn referenced_meta_predicates_listed() {
        let program = parse_program(
            "says(P, SP) --> exportable(P).\n\
             '{ T(V*) <- says[T](P, self[], V*). } <-- predicate(T), exportable(T).",
        )
        .unwrap();
        let names = referenced_meta_predicates(&program);
        assert!(names.contains(&"predicate".to_string()));
        assert!(names.contains(&"exportable".to_string()));
        assert!(names.contains(&"says".to_string()));
    }

    #[test]
    fn arity_of_unknown_is_none() {
        let db = build("a(X) <- b(X).");
        assert_eq!(db.arity_of("zzz"), None);
        assert!(db.total_facts() > 0);
    }
}
