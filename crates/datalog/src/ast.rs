//! Abstract syntax for DatalogLB programs, including the BloxGenerics
//! meta-programming extensions (generic rules `<--`, generic constraints
//! `-->`, code templates `` '{ … } ``, and variable-length argument
//! sequences `V*`).
//!
//! The same term / atom / literal structures are reused at the meta level, so
//! that a code template is simply a list of [`Statement`]s whose predicate
//! positions may be variables.

use crate::value::Value;
use std::fmt;

/// A reference to a predicate appearing in an atom position.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum PredRef {
    /// An ordinary concrete predicate name, e.g. `link`.
    Named(String),
    /// A generic predicate parameterized by a *quoted* concrete predicate,
    /// e.g. ``says[`reachable]``.  The BloxGenerics compiler resolves this to
    /// the mangled concrete name `says$reachable`.
    Parameterized { generic: String, param: String },
    /// A generic predicate parameterized by a predicate *variable*, e.g.
    /// `says[T]` inside a generic rule or template.
    ParameterizedVar { generic: String, var: String },
    /// A predicate variable itself, e.g. `ST` or `T` used directly as a
    /// predicate inside a template: `ST(P1, P2, V*)`.
    Var(String),
}

impl PredRef {
    /// Shorthand for a named predicate reference.
    pub fn named(name: impl Into<String>) -> Self {
        PredRef::Named(name.into())
    }

    /// The concrete name, if this reference is already resolved.
    pub fn as_named(&self) -> Option<&str> {
        match self {
            PredRef::Named(n) => Some(n),
            _ => None,
        }
    }

    /// True if this reference contains no meta-level variables.
    pub fn is_concrete(&self) -> bool {
        matches!(self, PredRef::Named(_) | PredRef::Parameterized { .. })
    }
}

impl fmt::Display for PredRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PredRef::Named(n) => write!(f, "{n}"),
            PredRef::Parameterized { generic, param } => write!(f, "{generic}[`{param}]"),
            PredRef::ParameterizedVar { generic, var } => write!(f, "{generic}[{var}]"),
            PredRef::Var(v) => write!(f, "{v}"),
        }
    }
}

/// Arithmetic operators usable in terms.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ArithOp {
    Add,
    Sub,
    Mul,
    Div,
    Mod,
}

impl fmt::Display for ArithOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ArithOp::Add => "+",
            ArithOp::Sub => "-",
            ArithOp::Mul => "*",
            ArithOp::Div => "/",
            ArithOp::Mod => "%",
        };
        write!(f, "{s}")
    }
}

/// Comparison operators usable in body literals.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "!=",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        };
        write!(f, "{s}")
    }
}

/// A term: an argument position of an atom, or an operand of a comparison.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Term {
    /// A logic variable (`X`, `Src`, …).
    Var(String),
    /// The anonymous variable `_`.
    Wildcard,
    /// A literal constant.
    Const(Value),
    /// Access to a zero-key functional predicate used inline as a term,
    /// e.g. `self[]` or `initiator[]`.  Surface syntax only: a workspace
    /// lifts every read into a body literal when it installs the rule or
    /// constraint ([`Rule::lift_singletons`]), and the evaluator refuses one.
    SingletonRef(String),
    /// A variable-length variable sequence `V*` (BloxGenerics templates only).
    VarSeq(String),
    /// Arithmetic over terms, e.g. `C + 1`.
    BinOp(Box<Term>, ArithOp, Box<Term>),
}

impl Term {
    /// Shorthand for a variable term.
    pub fn var(name: impl Into<String>) -> Self {
        Term::Var(name.into())
    }

    /// Collect the variables mentioned in this term into `out`.
    pub fn collect_vars(&self, out: &mut Vec<String>) {
        match self {
            Term::Var(v) if !out.contains(v) => out.push(v.clone()),
            Term::BinOp(l, _, r) => {
                l.collect_vars(out);
                r.collect_vars(out);
            }
            Term::VarSeq(v) if !out.contains(v) => out.push(v.clone()),
            _ => {}
        }
    }

    /// Replace every singleton read `p[]` in this term by the variable
    /// [`singleton_var`]`(p)`, noting each `p` in `reads` once.
    pub(crate) fn lift_singletons(&mut self, reads: &mut Vec<String>) {
        match self {
            Term::SingletonRef(pred) => {
                if !reads.contains(pred) {
                    reads.push(pred.clone());
                }
                *self = Term::Var(singleton_var(pred));
            }
            Term::BinOp(l, _, r) => {
                l.lift_singletons(reads);
                r.lift_singletons(reads);
            }
            _ => {}
        }
    }
}

/// The variable a lifted singleton read `p[]` becomes: `p[]` itself, a name
/// the parser cannot produce, so it never captures a variable of the rule.
pub(crate) fn singleton_var(pred: &str) -> String {
    format!("{pred}[]")
}

/// Lift the singleton reads of `literals`, noting each predicate in `reads`.
fn lift_literals(literals: &mut [Literal], reads: &mut Vec<String>) {
    for literal in literals {
        match literal {
            Literal::Pos(atom) | Literal::Neg(atom) => atom.lift_singletons(reads),
            Literal::Cmp(l, _, r) => {
                l.lift_singletons(reads);
                r.lift_singletons(reads);
            }
        }
    }
}

/// Put a literal `p[] = p[]` in front of `literals` for each `p` of
/// `reads`, in order: a lookup of the one row of the zero-key functional
/// predicate `p`, which binds the variable [`singleton_var`]`(p)` and has no
/// match while the singleton is unset.
fn bind_singletons(reads: &[String], literals: &mut Vec<Literal>) {
    let binders = reads
        .iter()
        .map(|pred| Literal::Pos(Atom::functional(pred, vec![Term::Var(singleton_var(pred))])));
    literals.splice(0..0, binders);
}

impl fmt::Display for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Term::Var(v) => write!(f, "{v}"),
            Term::Wildcard => write!(f, "_"),
            Term::Const(v) => write!(f, "{v}"),
            Term::SingletonRef(p) => write!(f, "{p}[]"),
            Term::VarSeq(v) => write!(f, "{v}*"),
            Term::BinOp(l, op, r) => write!(f, "{l} {op} {r}"),
        }
    }
}

/// An atom: a predicate applied to terms.
///
/// Functional-syntax atoms `p[k1,…,kn] = v` are represented positionally
/// (terms `k1,…,kn,v`) with `functional = true` and the predicate's key arity
/// recorded in the schema.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Atom {
    pub pred: PredRef,
    pub terms: Vec<Term>,
    /// True if the atom was written with functional (`p[..]=v`) syntax.
    pub functional: bool,
}

impl Atom {
    /// Construct a plain (non-functional) atom over a named predicate.
    pub fn new(pred: impl Into<String>, terms: Vec<Term>) -> Self {
        Atom {
            pred: PredRef::Named(pred.into()),
            terms,
            functional: false,
        }
    }

    /// Construct a functional-syntax atom (`p[keys…] = value`).
    pub fn functional(pred: impl Into<String>, terms: Vec<Term>) -> Self {
        Atom {
            pred: PredRef::Named(pred.into()),
            terms,
            functional: true,
        }
    }

    /// Collect all variables mentioned in the atom.
    pub fn collect_vars(&self, out: &mut Vec<String>) {
        for term in &self.terms {
            term.collect_vars(out);
        }
        if let PredRef::Var(v) | PredRef::ParameterizedVar { var: v, .. } = &self.pred {
            if !out.contains(v) {
                out.push(v.clone());
            }
        }
    }

    fn lift_singletons(&mut self, reads: &mut Vec<String>) {
        for term in &mut self.terms {
            term.lift_singletons(reads);
        }
    }
}

impl fmt::Display for Atom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let args: Vec<String> = self.terms.iter().map(|t| t.to_string()).collect();
        if self.functional && !args.is_empty() {
            let (keys, value) = args.split_at(args.len() - 1);
            write!(f, "{}[{}] = {}", self.pred, keys.join(", "), value[0])
        } else {
            write!(f, "{}({})", self.pred, args.join(", "))
        }
    }
}

/// A body literal.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Literal {
    /// A positive atom.
    Pos(Atom),
    /// A negated atom (`!p(..)`).
    Neg(Atom),
    /// A comparison between two terms.  `X = <ground term>` doubles as an
    /// assignment when `X` is unbound.
    Cmp(Term, CmpOp, Term),
}

impl Literal {
    /// Collect all variables mentioned in the literal.
    pub fn collect_vars(&self, out: &mut Vec<String>) {
        match self {
            Literal::Pos(a) | Literal::Neg(a) => a.collect_vars(out),
            Literal::Cmp(l, _, r) => {
                l.collect_vars(out);
                r.collect_vars(out);
            }
        }
    }

    /// The atom, if this is a positive literal.
    pub fn as_pos(&self) -> Option<&Atom> {
        match self {
            Literal::Pos(a) => Some(a),
            _ => None,
        }
    }
}

impl fmt::Display for Literal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Literal::Pos(a) => write!(f, "{a}"),
            Literal::Neg(a) => write!(f, "!{a}"),
            Literal::Cmp(l, op, r) => write!(f, "{l} {op} {r}"),
        }
    }
}

/// Aggregation functions supported in rule heads (LogicBlox `agg<<…>>`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggFunc {
    Min,
    Max,
    Count,
    Sum,
}

impl fmt::Display for AggFunc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AggFunc::Min => "min",
            AggFunc::Max => "max",
            AggFunc::Count => "count",
            AggFunc::Sum => "sum",
        };
        write!(f, "{s}")
    }
}

/// An aggregation specification: `agg<< Result = func(Input) >>`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct AggSpec {
    pub result_var: String,
    pub func: AggFunc,
    pub input_var: String,
}

impl fmt::Display for AggSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "agg<< {} = {}({}) >>",
            self.result_var, self.func, self.input_var
        )
    }
}

/// A derivation rule: `head1, …, headM <- body1, …, bodyN.`
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Rule {
    pub head: Vec<Atom>,
    pub body: Vec<Literal>,
    pub agg: Option<AggSpec>,
}

impl Rule {
    /// Construct a rule without aggregation.
    pub fn new(head: Vec<Atom>, body: Vec<Literal>) -> Self {
        Rule {
            head,
            body,
            agg: None,
        }
    }

    /// Variables that appear in the head but are never bound in the body —
    /// head-existential variables, for which a fresh entity is minted per
    /// distinct body binding.
    pub fn head_existentials(&self) -> Vec<String> {
        let mut body_vars = Vec::new();
        for lit in &self.body {
            lit.collect_vars(&mut body_vars);
        }
        if let Some(agg) = &self.agg {
            body_vars.push(agg.result_var.clone());
        }
        let mut head_vars = Vec::new();
        for atom in &self.head {
            atom.collect_vars(&mut head_vars);
        }
        head_vars
            .into_iter()
            .filter(|v| !body_vars.contains(v))
            .collect()
    }

    /// This rule with every singleton read `p[]` — in the head or the body —
    /// replaced by the variable `p[]`, a name the parser cannot produce,
    /// which a literal `p[] = p[]` put in front of the body binds.  A rule
    /// reading an unset singleton then has no body solution, and
    /// stratification, semi-naïve deltas and deletion follow the read as
    /// they follow any literal.
    pub fn lift_singletons(mut self) -> Rule {
        let mut reads = Vec::new();
        for atom in &mut self.head {
            atom.lift_singletons(&mut reads);
        }
        lift_literals(&mut self.body, &mut reads);
        bind_singletons(&reads, &mut self.body);
        self
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let head: Vec<String> = self.head.iter().map(|a| a.to_string()).collect();
        let body: Vec<String> = self.body.iter().map(|l| l.to_string()).collect();
        match &self.agg {
            Some(agg) => write!(f, "{} <- {} {}.", head.join(", "), agg, body.join(", ")),
            None => write!(f, "{} <- {}.", head.join(", "), body.join(", ")),
        }
    }
}

/// An integrity constraint: `lhs1, …, lhsM -> rhs1, …, rhsN.`
///
/// Semantics: for every binding satisfying the left-hand side, the right-hand
/// side must be satisfiable.  An empty right-hand side (written `-> .`) is a
/// pure declaration and never fails.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Constraint {
    pub lhs: Vec<Literal>,
    pub rhs: Vec<Literal>,
}

impl Constraint {
    /// This constraint with its singleton reads lifted as
    /// [`Rule::lift_singletons`] lifts a rule's.  The binding literal of a
    /// predicate some lhs term reads goes in front of the lhs, where an
    /// unset singleton leaves no binding to check; the one of a predicate
    /// only the rhs reads goes in front of the rhs, where an unset singleton
    /// leaves every lhs binding without a witness.
    pub fn lift_singletons(mut self) -> Constraint {
        let mut reads = Vec::new();
        lift_literals(&mut self.lhs, &mut reads);
        bind_singletons(&reads, &mut self.lhs);
        let lhs_reads = reads.len();
        lift_literals(&mut self.rhs, &mut reads);
        bind_singletons(&reads[lhs_reads..], &mut self.rhs);
        self
    }
}

impl fmt::Display for Constraint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let lhs: Vec<String> = self.lhs.iter().map(|l| l.to_string()).collect();
        let rhs: Vec<String> = self.rhs.iter().map(|l| l.to_string()).collect();
        write!(f, "{} -> {}.", lhs.join(", "), rhs.join(", "))
    }
}

/// A ground fact written directly in a program: `link(n1, n2).`
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct FactDecl {
    pub atom: Atom,
}

/// A generic (meta-programming) rule: `heads, templates <-- body.`
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GenericRule {
    /// Meta-level head atoms, e.g. `says[T] = ST`, `predicate(ST)`.
    pub head: Vec<Atom>,
    /// Code templates to instantiate for each satisfying binding.
    pub templates: Vec<Template>,
    /// Meta-level body literals, e.g. `predicate(T)`, `exportable(T)`.
    pub body: Vec<Literal>,
}

impl fmt::Display for GenericRule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let head: Vec<String> = self.head.iter().map(|a| a.to_string()).collect();
        let body: Vec<String> = self.body.iter().map(|l| l.to_string()).collect();
        let mut lhs = head;
        for t in &self.templates {
            lhs.push(format!("'{{ {} statements }}", t.statements.len()));
        }
        write!(f, "{} <-- {}.", lhs.join(", "), body.join(", "))
    }
}

/// A generic constraint: `lhs --> rhs.` checked over meta-level facts at
/// BloxGenerics compile time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GenericConstraint {
    pub lhs: Vec<Literal>,
    pub rhs: Vec<Literal>,
}

/// A quoted code template `` '{ … } `` containing DatalogLB statements whose
/// predicate positions and argument sequences may be meta-variables.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Template {
    pub statements: Vec<Statement>,
}

/// A top-level statement of a (possibly generic) DatalogLB program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Statement {
    Rule(Rule),
    Constraint(Constraint),
    Fact(FactDecl),
    GenericRule(GenericRule),
    GenericConstraint(GenericConstraint),
}

impl Statement {
    /// True if the statement is a meta-level (BloxGenerics) statement.
    pub fn is_generic(&self) -> bool {
        matches!(
            self,
            Statement::GenericRule(_) | Statement::GenericConstraint(_)
        )
    }
}

/// A parsed program: an ordered list of statements.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Program {
    pub statements: Vec<Statement>,
}

impl Program {
    /// An empty program.
    pub fn new() -> Self {
        Program {
            statements: Vec::new(),
        }
    }

    /// Append all statements of `other`.
    pub fn extend(&mut self, other: Program) {
        self.statements.extend(other.statements);
    }

    /// Iterate over the concrete (non-generic) rules.
    pub fn rules(&self) -> impl Iterator<Item = &Rule> {
        self.statements.iter().filter_map(|s| match s {
            Statement::Rule(r) => Some(r),
            _ => None,
        })
    }

    /// Iterate over the concrete constraints.
    pub fn constraints(&self) -> impl Iterator<Item = &Constraint> {
        self.statements.iter().filter_map(|s| match s {
            Statement::Constraint(c) => Some(c),
            _ => None,
        })
    }

    /// Iterate over ground facts.
    pub fn facts(&self) -> impl Iterator<Item = &FactDecl> {
        self.statements.iter().filter_map(|s| match s {
            Statement::Fact(fd) => Some(fd),
            _ => None,
        })
    }

    /// Iterate over generic rules.
    pub fn generic_rules(&self) -> impl Iterator<Item = &GenericRule> {
        self.statements.iter().filter_map(|s| match s {
            Statement::GenericRule(g) => Some(g),
            _ => None,
        })
    }

    /// Iterate over generic constraints.
    pub fn generic_constraints(&self) -> impl Iterator<Item = &GenericConstraint> {
        self.statements.iter().filter_map(|s| match s {
            Statement::GenericConstraint(g) => Some(g),
            _ => None,
        })
    }

    /// True if the program contains any BloxGenerics statements (and thus
    /// needs the meta-compiler before it can be installed in a workspace).
    pub fn has_generics(&self) -> bool {
        self.statements.iter().any(|s| s.is_generic())
            || self.statements.iter().any(|s| match s {
                Statement::Rule(r) => {
                    r.head.iter().any(|a| !a.pred.is_concrete())
                        || r.body.iter().any(|l| match l {
                            Literal::Pos(a) | Literal::Neg(a) => !a.pred.is_concrete(),
                            Literal::Cmp(..) => false,
                        })
                }
                Statement::Constraint(c) => c.lhs.iter().chain(c.rhs.iter()).any(|l| match l {
                    Literal::Pos(a) | Literal::Neg(a) => !a.pred.is_concrete(),
                    Literal::Cmp(..) => false,
                }),
                _ => false,
            })
    }
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for statement in &self.statements {
            match statement {
                Statement::Rule(r) => writeln!(f, "{r}")?,
                Statement::Constraint(c) => writeln!(f, "{c}")?,
                Statement::Fact(fd) => writeln!(f, "{}.", fd.atom)?,
                Statement::GenericRule(g) => writeln!(f, "{g}")?,
                Statement::GenericConstraint(g) => {
                    let lhs: Vec<String> = g.lhs.iter().map(|l| l.to_string()).collect();
                    let rhs: Vec<String> = g.rhs.iter().map(|l| l.to_string()).collect();
                    writeln!(f, "{} --> {}.", lhs.join(", "), rhs.join(", "))?;
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn atom(p: &str, vars: &[&str]) -> Atom {
        Atom::new(p, vars.iter().map(|v| Term::var(*v)).collect())
    }

    #[test]
    fn head_existentials_detected() {
        // pathvar(P), path[P, X, Y] = 1 <- link(X, Y).
        let rule = Rule::new(
            vec![
                atom("pathvar", &["P"]),
                Atom::functional(
                    "path",
                    vec![
                        Term::var("P"),
                        Term::var("X"),
                        Term::var("Y"),
                        Term::Const(Value::Int(1)),
                    ],
                ),
            ],
            vec![Literal::Pos(atom("link", &["X", "Y"]))],
        );
        assert_eq!(rule.head_existentials(), vec!["P".to_string()]);
    }

    #[test]
    fn no_existentials_when_bound() {
        let rule = Rule::new(
            vec![atom("reachable", &["X", "Y"])],
            vec![Literal::Pos(atom("link", &["X", "Y"]))],
        );
        assert!(rule.head_existentials().is_empty());
    }

    #[test]
    fn agg_result_not_existential() {
        let mut rule = Rule::new(
            vec![Atom::functional(
                "bestcost",
                vec![Term::var("X"), Term::var("Y"), Term::var("C")],
            )],
            vec![Literal::Pos(Atom::functional(
                "path",
                vec![
                    Term::var("X"),
                    Term::var("Y"),
                    Term::Wildcard,
                    Term::var("Cx"),
                ],
            ))],
        );
        rule.agg = Some(AggSpec {
            result_var: "C".into(),
            func: AggFunc::Min,
            input_var: "Cx".into(),
        });
        assert!(rule.head_existentials().is_empty());
    }

    #[test]
    fn display_roundtrips_shapes() {
        let rule = Rule::new(
            vec![atom("reachable", &["X", "Y"])],
            vec![
                Literal::Pos(atom("link", &["X", "Z"])),
                Literal::Pos(atom("reachable", &["Z", "Y"])),
            ],
        );
        assert_eq!(
            rule.to_string(),
            "reachable(X, Y) <- link(X, Z), reachable(Z, Y)."
        );

        let c = Constraint {
            lhs: vec![Literal::Pos(atom("says_link", &["P", "Q"]))],
            rhs: vec![Literal::Pos(atom("principal", &["P"]))],
        };
        assert_eq!(c.to_string(), "says_link(P, Q) -> principal(P).");

        let f = Atom::functional(
            "bestcost",
            vec![Term::var("X"), Term::var("Y"), Term::Const(Value::Int(3))],
        );
        assert_eq!(f.to_string(), "bestcost[X, Y] = 3");
    }

    #[test]
    fn predref_display_and_kind() {
        assert_eq!(PredRef::named("link").to_string(), "link");
        assert_eq!(
            PredRef::Parameterized {
                generic: "says".into(),
                param: "reachable".into()
            }
            .to_string(),
            "says[`reachable]"
        );
        assert_eq!(
            PredRef::ParameterizedVar {
                generic: "says".into(),
                var: "T".into()
            }
            .to_string(),
            "says[T]"
        );
        assert!(PredRef::named("x").is_concrete());
        assert!(!PredRef::Var("T".into()).is_concrete());
    }

    #[test]
    fn program_queries() {
        let mut program = Program::new();
        program.statements.push(Statement::Rule(Rule::new(
            vec![atom("a", &["X"])],
            vec![Literal::Pos(atom("b", &["X"]))],
        )));
        program.statements.push(Statement::Constraint(Constraint {
            lhs: vec![Literal::Pos(atom("a", &["X"]))],
            rhs: vec![Literal::Pos(atom("t", &["X"]))],
        }));
        program.statements.push(Statement::Fact(FactDecl {
            atom: Atom::new("b", vec![Term::Const(Value::Int(1))]),
        }));
        assert_eq!(program.rules().count(), 1);
        assert_eq!(program.constraints().count(), 1);
        assert_eq!(program.facts().count(), 1);
        assert!(!program.has_generics());
    }

    #[test]
    fn has_generics_detects_meta_predicates() {
        let mut program = Program::new();
        program.statements.push(Statement::Rule(Rule::new(
            vec![Atom {
                pred: PredRef::ParameterizedVar {
                    generic: "says".into(),
                    var: "T".into(),
                },
                terms: vec![Term::var("P")],
                functional: false,
            }],
            vec![],
        )));
        assert!(program.has_generics());
    }

    #[test]
    fn singleton_reads_lift_into_one_literal_each() {
        let rule = crate::parser::parse_rule(
            "says(self[], U, X) <- link(X, Y), principal(U), U != self[], Y = cfg[] + 1.",
        )
        .unwrap()
        .lift_singletons();
        assert_eq!(
            rule.to_string(),
            "says(self[], U, X) <- self[] = self[], cfg[] = cfg[], link(X, Y), principal(U), \
             U != self[], Y = cfg[] + 1."
        );
        let mut vars = Vec::new();
        rule.head[0].collect_vars(&mut vars);
        assert_eq!(vars, ["self[]", "U", "X"]);
        assert!(rule.head_existentials().is_empty());
        // Lifting twice changes nothing.
        assert_eq!(rule.clone().lift_singletons(), rule);

        // A constraint binds a singleton on the side that first needs it.
        let side = |source: &str| {
            crate::parser::parse_rule(&format!("x(X) <- {source}."))
                .unwrap()
                .body
        };
        let constraint = Constraint {
            lhs: side("a(X, me[])"),
            rhs: side("b(X, me[]), c(you[])"),
        }
        .lift_singletons();
        assert_eq!(
            constraint.to_string(),
            "me[] = me[], a(X, me[]) -> you[] = you[], b(X, me[]), c(you[])."
        );
    }

    #[test]
    fn term_var_collection_dedups() {
        let term = Term::BinOp(
            Box::new(Term::var("C")),
            ArithOp::Add,
            Box::new(Term::BinOp(
                Box::new(Term::var("C")),
                ArithOp::Mul,
                Box::new(Term::Const(Value::Int(2))),
            )),
        );
        let mut vars = Vec::new();
        term.collect_vars(&mut vars);
        assert_eq!(vars, vec!["C".to_string()]);
    }
}
