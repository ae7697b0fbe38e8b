//! # secureblox-datalog
//!
//! A DatalogLB-style engine: the substrate underneath the SecureBlox
//! reproduction (SIGMOD 2010).  It provides the LogicBlox features the paper
//! relies on:
//!
//! * **Rules** (`<-`) evaluated bottom-up with the semi-naïve algorithm,
//!   stratified negation, aggregation (`agg<< C = min(Cx) >>`), arithmetic,
//!   and head-existential variables that mint fresh entities.
//! * **Integrity constraints** (`->`) checked at runtime inside ACID
//!   transactions, plus compile-time *type declarations* (constraints of the
//!   recognised shape) enforced by a static type checker.
//! * **Functional dependencies** (`p[k…] = v`) and **singletons** (`p[] = v`).
//! * **User-defined functions** callable from rule and constraint bodies —
//!   the hook SecureBlox uses for cryptographic operators.
//! * **Incremental maintenance**: installed rules are maintained under fact
//!   retraction by the backward/forward algorithm — a derived fact a
//!   retraction reaches goes only when a proof search finds no derivation
//!   left — with a fixpoint re-run for aggregates, negation and head
//!   existentials.
//! * A **transactional workspace** ([`Workspace`]) with commit/rollback
//!   semantics matching the paper's §5.2 description.
//!
//! The surface syntax (parser in [`parser`]) also covers the BloxGenerics
//! meta-programming extensions (`<--`, `-->`, `` '{ … } `` templates, `V*`
//! sequences); evaluating those is the job of the `secureblox-generics`
//! crate, which compiles them down to the plain programs this crate executes.
//!
//! ## Quick example
//!
//! ```
//! use secureblox_datalog::Workspace;
//! use secureblox_datalog::value::Value;
//!
//! let mut ws = Workspace::new();
//! ws.install_source(
//!     "reachable(X, Y) <- link(X, Y).\n\
//!      reachable(X, Y) <- link(X, Z), reachable(Z, Y).\n\
//!      link(n1, n2). link(n2, n3).",
//! ).unwrap();
//! ws.fixpoint().unwrap();
//! assert!(ws.contains_fact("reachable", &[Value::str("n1"), Value::str("n3")]));
//! ```

pub mod ast;
pub mod codec;
pub mod constraint;
pub mod error;
pub mod eval;
pub mod intern;
pub mod parser;
pub mod relation;
pub mod schema;
pub mod strata;
pub mod typecheck;
pub mod udf;
pub mod value;
pub mod workspace;

pub use ast::{Atom, Constraint, Literal, PredRef, Program, Rule, Statement, Term};
pub use codec::{deserialize_tuple, serialize_tuple};
pub use error::{DatalogError, Result};
pub use eval::{BatchMiss, Commit, EvalConfig, FactDelta, PlanStatsSnapshot};
pub use intern::{FnvMap, FnvSet, Interner};
pub use parser::{parse_program, parse_rule};
pub use relation::{column_set, ColumnSet, Relation, Relations};
pub use schema::{PredicateDecl, PredicateKind, Schema};
pub use udf::{UdfRegistry, UdfRows};
pub use value::{Tuple, Value};
pub use workspace::Workspace;
