//! The BloxGenerics compiler: fixpoint evaluation of generic rules, template
//! instantiation, generic-constraint checking, and reification of the final
//! DatalogLB program (paper Figure 3).

use crate::constraint_check::check_generic_constraints;
use crate::mangle;
use crate::meta::MetaDatabase;
use crate::template::InstantiationContext;
use secureblox_datalog::ast::{
    Atom, Constraint, FactDecl, GenericRule, Literal, PredRef, Program, Rule, Statement, Term,
};
use secureblox_datalog::error::{DatalogError, Result};
use secureblox_datalog::eval::join::JoinContext;
use secureblox_datalog::eval::{Bindings, StatsCell};
use secureblox_datalog::schema::Schema;
use secureblox_datalog::udf::UdfRegistry;
use secureblox_datalog::value::Value;
use std::collections::{HashMap, HashSet};

/// Compiler limits.
#[derive(Debug, Clone)]
pub struct GenericsConfig {
    /// Maximum number of fixpoint rounds over the generic rules.  Because
    /// head-existential variables can mint unboundedly many new predicates,
    /// exceeding the budget is reported as a compile-time error, matching the
    /// paper's behaviour ("the current BloxGenerics compiler throws a compiler
    /// error if no fixpoint is reached within a time limit", §4.1.1).
    pub max_rounds: usize,
}

impl Default for GenericsConfig {
    fn default() -> Self {
        GenericsConfig { max_rounds: 64 }
    }
}

/// The output of BloxGenerics compilation.
#[derive(Debug, Clone)]
pub struct CompiledProgram {
    /// The full concrete program: the input's concrete statements (with
    /// parameterized references resolved) followed by all generated
    /// statements.
    pub program: Program,
    /// Only the statements generated from templates, for inspection.
    pub generated: Vec<Statement>,
    /// Predicate mappings minted by generic rules, e.g.
    /// `("says", "path") → "says$path"`.
    pub mappings: HashMap<(String, String), String>,
}

impl CompiledProgram {
    /// Number of generated statements.
    pub fn generated_count(&self) -> usize {
        self.generated.len()
    }

    /// Look up the concrete predicate minted for `generic[param]`.
    pub fn mapping(&self, generic: &str, param: &str) -> Option<&str> {
        self.mappings
            .get(&(generic.to_string(), param.to_string()))
            .map(|s| s.as_str())
    }
}

/// The BloxGenerics compiler.
#[derive(Debug, Clone, Default)]
pub struct GenericsCompiler {
    config: GenericsConfig,
}

impl GenericsCompiler {
    /// A compiler with default limits.
    pub fn new() -> Self {
        GenericsCompiler {
            config: GenericsConfig::default(),
        }
    }

    /// A compiler with a custom configuration.
    pub fn with_config(config: GenericsConfig) -> Self {
        GenericsCompiler { config }
    }

    /// Compile `input` (queries plus security policies) into plain DatalogLB.
    pub fn compile(&self, input: &Program) -> Result<CompiledProgram> {
        // Split the input into concrete statements and meta-level statements.
        let mut concrete = Program::new();
        let mut generic_rules: Vec<GenericRule> = Vec::new();
        for statement in &input.statements {
            match statement {
                Statement::GenericRule(g) => generic_rules.push(g.clone()),
                Statement::GenericConstraint(_) => {}
                other => concrete.statements.push(other.clone()),
            }
        }
        let generic_constraints: Vec<_> = input.generic_constraints().cloned().collect();

        // Generic predicates that are *defined* as predicate-to-predicate
        // mappings by some generic rule head (e.g. `says[T] = ST`).  A
        // concrete reference `says[`p]` to one of these is only legal if a
        // mapping for `p` was actually generated — otherwise the reference
        // escaped the policy's scope (e.g. `p` is not exportable).
        let mut mapping_generics: HashSet<String> = HashSet::new();
        for rule in &generic_rules {
            for atom in &rule.head {
                if atom.functional && atom.terms.len() >= 2 {
                    if let (PredRef::Named(generic), Some(Term::Var(_))) =
                        (&atom.pred, atom.terms.last())
                    {
                        mapping_generics.insert(generic.clone());
                    }
                }
            }
        }

        // Schema of the concrete program (type declarations drive `types[T]`
        // expansion and sequence arities).
        let mut schema = Schema::new();
        schema.absorb_program(&concrete)?;

        // Relational representation of the program.
        let mut meta = MetaDatabase::from_program(input, &schema)?;

        // Fixpoint over the generic rules.  Its joins count into a table
        // of their own: compile time belongs to no workspace.
        let udfs = UdfRegistry::new();
        let stats = StatsCell::default();
        let mut generated: Vec<Statement> = Vec::new();
        let mut generated_seen: HashSet<String> = HashSet::new();
        let mut instantiated: HashSet<(usize, String)> = HashSet::new();
        let mut mappings: HashMap<(String, String), String> = HashMap::new();
        let mut rounds = 0usize;
        loop {
            rounds += 1;
            if rounds > self.config.max_rounds {
                return Err(DatalogError::Generics(format!(
                    "generic-rule evaluation did not reach a fixpoint within {} rounds; \
                     a generic rule is probably generating predicates for its own output \
                     (guard it with a condition such as exportable(T))",
                    self.config.max_rounds
                )));
            }
            let mut changed = false;
            for (rule_index, generic_rule) in generic_rules.iter().enumerate() {
                let solutions = {
                    let ctx = JoinContext::new(meta.relations(), &udfs, &stats);
                    let mut solutions: Vec<Bindings> = Vec::new();
                    let mut bindings = Bindings::new();
                    ctx.join(&generic_rule.body, None, &mut bindings, &mut |b| {
                        solutions.push(b.clone());
                        Ok(())
                    })?;
                    solutions
                };
                // Meta relations are hash-based; sort the bindings so code
                // generation (and therefore the output program) is
                // deterministic for a given input.
                let mut solutions = solutions;
                solutions.sort_by_key(|b| b.render());
                for solution in solutions {
                    let key = (rule_index, solution.render());
                    if instantiated.contains(&key) {
                        continue;
                    }
                    instantiated.insert(key);
                    changed = true;

                    let pred_var_names =
                        self.mint_head_predicates(generic_rule, &solution, &mut mappings)?;
                    self.record_head_meta_facts(
                        generic_rule,
                        &solution,
                        &pred_var_names,
                        &mut meta,
                    )?;

                    let seq_arity = self.sequence_arity(&solution, &meta);
                    let ictx = InstantiationContext {
                        bindings: &solution,
                        pred_var_names: &pred_var_names,
                        seq_arity,
                        schema: &schema,
                    };
                    let mut batch = Program::new();
                    for template in &generic_rule.templates {
                        for statement in ictx.instantiate_template(template)? {
                            let text = format!("{statement:?}");
                            if generated_seen.insert(text) {
                                batch.statements.push(statement.clone());
                                generated.push(statement);
                            }
                        }
                    }
                    // Make the generated code visible to later rounds: its
                    // schema (new predicates, their arities and types) feeds
                    // both `types[…]` expansion and the meta-database.
                    schema.absorb_program(&batch)?;
                    for statement in &batch.statements {
                        self.register_generated_predicates(statement, &mut meta)?;
                    }
                }
            }
            if !changed {
                break;
            }
        }

        // Compile-time verification of generic constraints over the final
        // meta-database.
        check_generic_constraints(&generic_constraints, &meta)?;

        // Resolve parameterized references in the concrete statements and
        // assemble the output program.
        let mut program = Program::new();
        for statement in &concrete.statements {
            program
                .statements
                .push(self.resolve_statement(statement, &meta, &mapping_generics)?);
        }
        program.statements.extend(generated.iter().cloned());
        Ok(CompiledProgram {
            program,
            generated,
            mappings,
        })
    }

    /// Mint concrete names for head-existential predicate variables.  A
    /// functional head atom `generic[T] = ST` (with `T` bound to a quoted
    /// predicate and `ST` unbound) names the new predicate `generic$param`.
    fn mint_head_predicates(
        &self,
        generic_rule: &GenericRule,
        solution: &Bindings,
        mappings: &mut HashMap<(String, String), String>,
    ) -> Result<HashMap<String, String>> {
        let mut names: HashMap<String, String> = HashMap::new();
        for atom in &generic_rule.head {
            if !atom.functional || atom.terms.len() < 2 {
                continue;
            }
            let PredRef::Named(generic) = &atom.pred else {
                continue;
            };
            let Term::Var(target) = &atom.terms[atom.terms.len() - 1] else {
                continue;
            };
            if solution.is_bound(target) {
                continue;
            }
            // Build the parameter string from the key terms.
            let mut params: Vec<String> = Vec::new();
            for term in &atom.terms[..atom.terms.len() - 1] {
                match term {
                    Term::Var(v) => match solution.get(v) {
                        Some(Value::Pred(p)) => params.push(p.to_string()),
                        Some(other) => params.push(other.to_string()),
                        None => {
                            return Err(DatalogError::Generics(format!(
                                "head mapping {generic}[…]={target}: key variable {v} is not bound \
                                 by the generic rule body"
                            )))
                        }
                    },
                    Term::Const(Value::Pred(p)) => params.push(p.to_string()),
                    Term::Const(other) => params.push(other.to_string()),
                    other => {
                        return Err(DatalogError::Generics(format!(
                            "unsupported key term {other} in generic head mapping {generic}"
                        )))
                    }
                }
            }
            let param = params.join("_");
            let name = mangle(generic, &param);
            names.insert(target.clone(), name.clone());
            mappings.insert((generic.clone(), param), name);
        }
        Ok(names)
    }

    /// Insert the generic rule's head atoms as meta-facts so that other
    /// generic rules (and generic constraints) can observe them.
    fn record_head_meta_facts(
        &self,
        generic_rule: &GenericRule,
        solution: &Bindings,
        pred_var_names: &HashMap<String, String>,
        meta: &mut MetaDatabase,
    ) -> Result<()> {
        for atom in &generic_rule.head {
            let name = match &atom.pred {
                PredRef::Named(n) => n.clone(),
                PredRef::Parameterized { generic, param } => mangle(generic, param),
                other => {
                    return Err(DatalogError::Generics(format!(
                        "unsupported head predicate reference {other} in a generic rule"
                    )))
                }
            };
            let mut tuple = Vec::with_capacity(atom.terms.len());
            for term in &atom.terms {
                let value = match term {
                    Term::Var(v) => {
                        if let Some(minted) = pred_var_names.get(v) {
                            Value::pred(minted)
                        } else if let Some(bound) = solution.get(v) {
                            bound.clone()
                        } else {
                            return Err(DatalogError::Generics(format!(
                                "meta variable {v} in the head of a generic rule is not bound"
                            )));
                        }
                    }
                    Term::Const(v) => v.clone(),
                    other => {
                        return Err(DatalogError::Generics(format!(
                            "unsupported term {other} in the head of a generic rule"
                        )))
                    }
                };
                tuple.push(value);
            }
            meta.insert(&name, tuple)?;
        }
        Ok(())
    }

    /// Decide the expansion length for `V*` sequences: the arity of the
    /// parameter predicate bound by the rule body.  When several predicate
    /// parameters are bound they must agree.
    fn sequence_arity(&self, solution: &Bindings, meta: &MetaDatabase) -> Option<usize> {
        let mut arities: Vec<usize> = Vec::new();
        for (_, value) in solution.sorted_items() {
            if let Value::Pred(p) = value {
                if let Some(arity) = meta.arity_of(&p) {
                    arities.push(arity);
                }
            }
        }
        arities.sort();
        arities.dedup();
        match arities.as_slice() {
            [single] => Some(*single),
            _ => None,
        }
    }

    /// Record every predicate that appears in a generated statement so later
    /// rounds (and diagnostics) can see it in the meta-database.
    fn register_generated_predicates(
        &self,
        statement: &Statement,
        meta: &mut MetaDatabase,
    ) -> Result<()> {
        let visit_atom = |atom: &Atom, meta: &mut MetaDatabase| -> Result<()> {
            if let PredRef::Named(name) = &atom.pred {
                if meta.arity_of(name).is_none() {
                    meta.add_generated_predicate(name, atom.terms.len(), atom.functional)?;
                }
            }
            Ok(())
        };
        match statement {
            Statement::Rule(rule) => {
                for atom in &rule.head {
                    visit_atom(atom, meta)?;
                }
                for literal in &rule.body {
                    if let Literal::Pos(a) | Literal::Neg(a) = literal {
                        visit_atom(a, meta)?;
                    }
                }
            }
            Statement::Constraint(constraint) => {
                for literal in constraint.lhs.iter().chain(constraint.rhs.iter()) {
                    if let Literal::Pos(a) | Literal::Neg(a) = literal {
                        visit_atom(a, meta)?;
                    }
                }
            }
            Statement::Fact(fact) => visit_atom(&fact.atom, meta)?,
            Statement::GenericRule(_) | Statement::GenericConstraint(_) => {}
        }
        Ok(())
    }

    /// Resolve parameterized references (``says[`path]``) in a concrete
    /// statement to their mangled names, validating that a mapping for the
    /// parameter was actually generated when the generic predicate has
    /// mappings at all.
    fn resolve_statement(
        &self,
        statement: &Statement,
        meta: &MetaDatabase,
        mapping_generics: &HashSet<String>,
    ) -> Result<Statement> {
        let resolve_pred = |pred: &PredRef| -> Result<PredRef> {
            match pred {
                PredRef::Parameterized { generic, param } => {
                    let defines_mappings =
                        mapping_generics.contains(generic) || !meta.tuples(generic).is_empty();
                    let mapped = meta
                        .tuples(generic)
                        .iter()
                        .any(|t| t.first().and_then(|v| v.as_pred()) == Some(param.as_str()));
                    if defines_mappings && !mapped {
                        return Err(DatalogError::Generics(format!(
                            "{generic}[`{param}] is used but no generic rule generated a {generic} \
                             mapping for {param}; is {param} missing from the policy's scope \
                             (e.g. not exportable)?"
                        )));
                    }
                    Ok(PredRef::Named(mangle(generic, param)))
                }
                other => Ok(other.clone()),
            }
        };
        let resolve_atom = |atom: &Atom| -> Result<Atom> {
            Ok(Atom {
                pred: resolve_pred(&atom.pred)?,
                terms: atom.terms.clone(),
                functional: atom.functional,
            })
        };
        let resolve_literal = |literal: &Literal| -> Result<Literal> {
            Ok(match literal {
                Literal::Pos(a) => Literal::Pos(resolve_atom(a)?),
                Literal::Neg(a) => Literal::Neg(resolve_atom(a)?),
                Literal::Cmp(l, op, r) => Literal::Cmp(l.clone(), *op, r.clone()),
            })
        };
        Ok(match statement {
            Statement::Rule(rule) => Statement::Rule(Rule {
                head: rule
                    .head
                    .iter()
                    .map(&resolve_atom)
                    .collect::<Result<Vec<_>>>()?,
                body: rule
                    .body
                    .iter()
                    .map(&resolve_literal)
                    .collect::<Result<Vec<_>>>()?,
                agg: rule.agg.clone(),
            }),
            Statement::Constraint(constraint) => Statement::Constraint(Constraint {
                lhs: constraint
                    .lhs
                    .iter()
                    .map(&resolve_literal)
                    .collect::<Result<Vec<_>>>()?,
                rhs: constraint
                    .rhs
                    .iter()
                    .map(&resolve_literal)
                    .collect::<Result<Vec<_>>>()?,
            }),
            Statement::Fact(fact) => Statement::Fact(FactDecl {
                atom: resolve_atom(&fact.atom)?,
            }),
            other => other.clone(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use secureblox_datalog::parse_program;
    use secureblox_datalog::Workspace;

    const SAYS_POLICY: &str = r#"
        says[T] = ST, predicate(ST),
        '{
          ST(P1, P2, V*) -> principal(P1), principal(P2), types[T](V*).
        }
        <-- predicate(T), exportable(T).
    "#;

    const IMPORT_POLICY: &str = r#"
        '{ T(V*) <- says[T](P, self[], V*), trustworthy(P). }
        <-- predicate(T), exportable(T).
    "#;

    fn reachable_app() -> String {
        r#"
        link(N1, N2) -> node(N1), node(N2).
        reachable(X, Y) -> node(X), node(Y).
        exportable(`reachable).

        reachable(X, Y) <- link(X, Y).
        reachable(X, Y) <- link(X, Z), says[`reachable](Z, self[], Z, Y).
        "#
        .to_string()
    }

    #[test]
    fn says_policy_generates_constraint_and_mapping() {
        let source = format!("{}\n{}", reachable_app(), SAYS_POLICY);
        let program = parse_program(&source).unwrap();
        let compiled = GenericsCompiler::new().compile(&program).unwrap();
        assert_eq!(
            compiled.mapping("says", "reachable"),
            Some("says$reachable")
        );
        let text = compiled.program.to_string();
        assert!(text.contains("says$reachable(P1, P2, V$0, V$1) -> principal(P1), principal(P2), node(V$0), node(V$1)."), "{text}");
        // The parameterized reference in the application rule is resolved.
        assert!(text.contains("says$reachable(Z, self[], Z, Y)"), "{text}");
        assert_eq!(compiled.generated_count(), 1);
    }

    #[test]
    fn import_policy_and_says_policy_compose() {
        let source = format!("{}\n{}\n{}", reachable_app(), SAYS_POLICY, IMPORT_POLICY);
        let program = parse_program(&source).unwrap();
        let compiled = GenericsCompiler::new().compile(&program).unwrap();
        let text = compiled.program.to_string();
        assert!(
            text.contains(
                "reachable(V$0, V$1) <- says$reachable(P, self[], V$0, V$1), trustworthy(P)."
            ),
            "{text}"
        );
    }

    #[test]
    fn compiled_program_is_installable_and_runs() {
        let source = format!("{}\n{}\n{}", reachable_app(), SAYS_POLICY, IMPORT_POLICY);
        let program = parse_program(&source).unwrap();
        let compiled = GenericsCompiler::new().compile(&program).unwrap();
        let mut ws = Workspace::new();
        ws.install_program(&compiled.program).unwrap();
        ws.set_singleton("self", Value::str("n1")).unwrap();
        for fact in [
            ("principal", "n1"),
            ("principal", "n2"),
            ("trustworthy", "n2"),
            ("node", "n1"),
            ("node", "n2"),
            ("node", "n3"),
        ] {
            ws.assert_fact(fact.0, vec![Value::str(fact.1)]).unwrap();
        }
        ws.assert_fact("link", vec![Value::str("n1"), Value::str("n2")])
            .unwrap();
        // n2 says reachable(n2, n3) to us (n1): accepted because n2 is
        // trustworthy and a known principal.
        ws.transaction(vec![(
            "says$reachable".into(),
            vec![
                Value::str("n2"),
                Value::str("n1"),
                Value::str("n2"),
                Value::str("n3"),
            ],
        )])
        .unwrap();
        assert!(ws.contains_fact("reachable", &[Value::str("n2"), Value::str("n3")]));

        // A fact said by an unknown principal violates the generated
        // constraint and the batch rolls back.
        let err = ws
            .transaction(vec![(
                "says$reachable".into(),
                vec![
                    Value::str("mallory"),
                    Value::str("n1"),
                    Value::str("n2"),
                    Value::str("n9"),
                ],
            )])
            .unwrap_err();
        assert!(matches!(err, DatalogError::ConstraintViolation(_)));
        assert!(!ws.contains_fact("reachable", &[Value::str("n2"), Value::str("n9")]));
    }

    #[test]
    fn generic_constraint_rejects_non_exportable_says() {
        // The says policy is NOT guarded by exportable, and a generic
        // constraint requires every said predicate to be exportable: the
        // compiler must reject the program (paper §4.1.4).
        let source = r#"
            reachable(X, Y) -> node(X), node(Y).
            secret(X) -> node(X).
            exportable(`reachable).

            says[T] = ST, predicate(ST),
            '{ ST(P1, P2, V*) -> principal(P1), principal(P2), types[T](V*). }
            <-- predicate(T).

            says(P, SP) --> exportable(P).
        "#;
        let program = parse_program(source).unwrap();
        let err = GenericsCompiler::new().compile(&program).unwrap_err();
        assert!(matches!(err, DatalogError::Generics(_)), "{err}");
    }

    #[test]
    fn guarding_with_exportable_satisfies_generic_constraint() {
        let source = r#"
            reachable(X, Y) -> node(X), node(Y).
            secret(X) -> node(X).
            exportable(`reachable).

            says[T] = ST, predicate(ST),
            '{ ST(P1, P2, V*) -> principal(P1), principal(P2), types[T](V*). }
            <-- predicate(T), exportable(T).

            says(P, SP) --> exportable(P).
        "#;
        let program = parse_program(source).unwrap();
        let compiled = GenericsCompiler::new().compile(&program).unwrap();
        // Only reachable got a says mapping; secret did not.
        assert_eq!(
            compiled.mapping("says", "reachable"),
            Some("says$reachable")
        );
        assert_eq!(compiled.mapping("says", "secret"), None);
    }

    #[test]
    fn unguarded_self_generating_rule_hits_round_budget() {
        // Without the exportable guard, says$X itself becomes a predicate and
        // the rule fires for it, generating says$says$X, and so on.
        let source = r#"
            reachable(X, Y) -> node(X), node(Y).
            says[T] = ST, predicate(ST),
            '{ ST(P1, P2, V*) -> principal(P1), principal(P2), types[T](V*). }
            <-- predicate(T).
        "#;
        let program = parse_program(source).unwrap();
        let compiler = GenericsCompiler::with_config(GenericsConfig { max_rounds: 8 });
        let err = compiler.compile(&program).unwrap_err();
        assert!(matches!(err, DatalogError::Generics(_)));
        assert!(err.to_string().contains("fixpoint"), "{err}");
    }

    #[test]
    fn unmapped_parameterized_reference_is_rejected() {
        // The application says a predicate that the policy never covered.
        let source = r#"
            reachable(X, Y) -> node(X), node(Y).
            secret(X) -> node(X).
            exportable(`reachable).

            says[T] = ST, predicate(ST),
            '{ ST(P1, P2, V*) -> principal(P1), principal(P2), types[T](V*). }
            <-- predicate(T), exportable(T).

            leak(X) <- says[`secret](P, self[], X).
        "#;
        let program = parse_program(source).unwrap();
        let err = GenericsCompiler::new().compile(&program).unwrap_err();
        assert!(err.to_string().contains("secret"), "{err}");
    }

    #[test]
    fn per_predicate_delegation_policy_compiles() {
        // trustworthyPerPred[T] from paper §6.1.
        let source = r#"
            creditscore(U, S) -> string(U), int[32](S).
            exportable(`creditscore).

            says[T] = ST, predicate(ST),
            '{ ST(P1, P2, V*) -> principal(P1), principal(P2), types[T](V*). }
            <-- predicate(T), exportable(T).

            '{ T(V*) <- says[T](P, self[], V*), trustworthyPerPred[T](P). }
            <-- predicate(T), exportable(T).

            trustworthyPerPred[`creditscore]("CA").
            trustworthyPerPred[`creditscore](U) -> U = "CA".
        "#;
        let program = parse_program(source).unwrap();
        let compiled = GenericsCompiler::new().compile(&program).unwrap();
        let text = compiled.program.to_string();
        assert!(text.contains("creditscore(V$0, V$1) <- says$creditscore(P, self[], V$0, V$1), trustworthyPerPred$creditscore(P)."), "{text}");
        // The concrete fact and constraint for the delegated agency survive.
        assert!(
            text.contains("trustworthyPerPred$creditscore(\"CA\")"),
            "{text}"
        );
    }

    #[test]
    fn multiple_exportable_predicates_each_get_mappings() {
        let source = r#"
            path(P, S, D, C) -> string(P), node(S), node(D), int[32](C).
            pathlink(P, H1, H2) -> string(P), node(H1), node(H2).
            exportable(`path).
            exportable(`pathlink).

            says[T] = ST, predicate(ST),
            '{ ST(P1, P2, V*) -> principal(P1), principal(P2), types[T](V*). }
            <-- predicate(T), exportable(T).
        "#;
        let program = parse_program(source).unwrap();
        let compiled = GenericsCompiler::new().compile(&program).unwrap();
        assert_eq!(compiled.mapping("says", "path"), Some("says$path"));
        assert_eq!(compiled.mapping("says", "pathlink"), Some("says$pathlink"));
        assert_eq!(compiled.generated_count(), 2);
    }
}
