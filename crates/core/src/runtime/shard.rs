//! Horizontal EDB sharding: partition base relations by key hash across a
//! declared node group and make cross-partition evaluation a planner
//! concern, not an app concern.
//!
//! The paper's §7.2 hash-join app routes tuples by hand: a DatalogLB rule
//! per table rehashes on the join attribute and `says` each tuple to the
//! principal whose `prin_minhash`/`prin_maxhash` range contains the hash.
//! This module generalizes that pattern into the runtime:
//!
//! * a [`ShardMap`] (carried in `DeploymentConfig::sharding`) declares
//!   relation → partition column → consistent-hash ring over a group of
//!   members; [`Deployment::build`] routes every initial fact of a sharded
//!   relation to its ring owner, and [`Deployment::ingest`] does the same
//!   for runtime inserts;
//! * the exchange planner (`secureblox_datalog::eval::shuffle`) classifies
//!   each sharded body literal as co-partitioned, shuffle, or broadcast;
//!   this module turns the needed dataflows into *generated DatalogLB
//!   source* — typed declarations, `exportable` listings, and
//!   `says[\`shard_xchg_…]`/`says[\`shard_bcast_…]` routing rules over the
//!   engine-maintained `shard_slot`/`shard_member` facts — appended to the
//!   app before policy compilation, so exchange traffic ships as ordinary
//!   signed streaming envelopes and inherits verification, WAL logging, and
//!   recovery for free;
//! * after policy compilation, [`rewrite_program`] re-runs the (pure,
//!   deterministic) classification over the compiled rules and substitutes
//!   each shuffled or broadcast body atom with its exchanged copy;
//! * [`Deployment::apply_shard_map`] re-partitions on membership change:
//!   only the tuples whose hash slot moved are retracted at the old
//!   owner and re-asserted at the new one, and the updated
//!   `shard_slot`/`shard_member` facts drive the rest — stale exchange
//!   copies are withdrawn and fresh ones shipped by the same signed-delta
//!   plane that handles any other retraction.
//!
//! Trust model: a shard owner is trusted *for its partition*, exactly as
//! every SecureBlox node is trusted for the facts it `says`.  Signatures
//! make exchange tuples non-forgeable in transit (a member cannot inject
//! tuples in another member's name), and the Merkle-committed stores make
//! each partition auditable — but an owner can still drop or fabricate
//! tuples *of its own partition*.  See DESIGN.md §14 for the discussion.

use crate::runtime::codec::serialize_tuple;
use crate::runtime::engine::{Deployment, NodeSpec};
use secureblox_crypto::sha1;
use secureblox_datalog::ast::{Atom, Constraint, Literal, PredRef, Program, Rule, Statement, Term};
use secureblox_datalog::error::{DatalogError, Result};
use secureblox_datalog::eval::runtime_pred_name;
use secureblox_datalog::eval::shuffle::{
    self, ExchangeInput, ExchangeStrategy, ProgramExchangePlan,
};
use secureblox_datalog::parser::parse_program;
use secureblox_datalog::value::{tuple_total_cmp, Tuple, Value};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::time::Duration;

pub use secureblox_datalog::eval::shuffle::{
    broadcast_name, exchange_name, is_exchange_pred, MEMBER_RELATION, SHARD_SLOTS, SLOT_RELATION,
};

/// Relation names the engine provisions itself; sharding them would race the
/// universe bootstrap.
const RESERVED_RELATIONS: &[&str] = &[
    "principal",
    "node",
    "principal_node",
    "trustworthy",
    "secret",
    "public_key",
    "private_key",
];

/// The one partition-hash definition shared by the engine's `sha1hash` UDF,
/// the hashjoin app's bucket placement, and ring routing: the positive
/// 63-bit big-endian prefix of the SHA-1 of the value's canonical encoding.
/// Routing rules written in DatalogLB (`sha1slot(V, B)`, i.e. [`slot_of`])
/// and routing done in Rust (`ShardRing::owner_of`) therefore always agree
/// on the owner.
pub fn shard_hash(value: &Value) -> i64 {
    let digest = sha1(&serialize_tuple(std::slice::from_ref(value)));
    let mut raw = [0u8; 8];
    raw.copy_from_slice(&digest[..8]);
    i64::from_be_bytes(raw).unsigned_abs() as i64 & i64::MAX
}

/// The fixed hash slot of a partition-column value: `shard_hash(v)` folded
/// into `[0, SHARD_SLOTS)`.  Shared by the `sha1slot` UDF (routing rules)
/// and [`ShardRing::owner_of`] (Rust-side placement), so both sides route
/// through the identical slot table.
pub fn slot_of(value: &Value) -> i64 {
    shard_hash(value) % SHARD_SLOTS
}

/// The ring probe point of a slot: slots are evenly spaced across the
/// positive 63-bit hash space, so slot ownership inherits the ring's
/// minimal-movement property on membership change.
pub fn slot_position(slot: i64) -> i64 {
    slot * (i64::MAX / SHARD_SLOTS)
}

/// Declares which base relations are partitioned, on which column, across
/// which group members.  Carried in [`DeploymentConfig::sharding`].
#[derive(Debug, Clone)]
pub struct ShardMap {
    group: Vec<String>,
    relations: BTreeMap<String, usize>,
    vnodes: usize,
}

/// The always-broadcast cardinality threshold: a sharded relation of at most
/// this many rows is replicated to every member instead of shuffled.
const BROADCAST_MAX: usize = 64;

impl ShardMap {
    /// A shard map over `group` (deployment principals), with 16 virtual
    /// ring points per member.
    pub fn new<I, S>(group: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        ShardMap {
            group: group.into_iter().map(Into::into).collect(),
            relations: BTreeMap::new(),
            vnodes: 16,
        }
    }

    /// Partition `relation` by the hash of its `column`-th argument.
    pub fn shard(mut self, relation: impl Into<String>, column: usize) -> Self {
        self.relations.insert(relation.into(), column);
        self
    }

    /// Override the number of virtual ring points per member.
    #[cfg(test)]
    pub(crate) fn with_vnodes(mut self, vnodes: usize) -> Self {
        self.vnodes = vnodes.max(1);
        self
    }

    pub fn group(&self) -> &[String] {
        &self.group
    }

    pub fn relations(&self) -> &BTreeMap<String, usize> {
        &self.relations
    }

    pub fn partitions(&self) -> usize {
        self.group.len()
    }

    /// The partition column of `relation`, when it is sharded.
    pub fn partition_column(&self, relation: &str) -> Option<usize> {
        self.relations.get(relation).copied()
    }

    /// Whether the map actually shards anything.
    pub fn is_active(&self) -> bool {
        !self.group.is_empty() && !self.relations.is_empty()
    }

    /// Materialize the consistent-hash ring.
    pub fn ring(&self) -> ShardRing {
        ShardRing::build(&self.group, self.vnodes)
    }

    /// The `shard_slot(Slot, Owner)` and `shard_member(P)` facts every node
    /// carries — the Datalog mirror of the ring, quantized into
    /// [`SHARD_SLOTS`] fixed slots so the generated routing rules join on an
    /// indexed slot id (§7.2's `prin_minhash`/`prin_maxhash` range facts
    /// would make every routed tuple scan a segment list that grows with
    /// the group).
    pub fn exchange_facts(&self) -> Vec<(String, Tuple)> {
        let ring = self.ring();
        let mut facts: Vec<(String, Tuple)> =
            Vec::with_capacity(SHARD_SLOTS as usize + self.group.len());
        for slot in 0..SHARD_SLOTS {
            facts.push((
                SLOT_RELATION.to_string(),
                vec![
                    Value::Int(slot),
                    Value::str(ring.owner_of_hash(slot_position(slot))),
                ],
            ));
        }
        for member in &self.group {
            facts.push((MEMBER_RELATION.to_string(), vec![Value::str(member)]));
        }
        facts
    }
}

/// One contiguous hash-range of the ring and its owning member.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardSegment {
    pub owner: String,
    pub lo: i64,
    pub hi: i64,
}

/// The materialized consistent-hash ring: `vnodes` points per member over
/// the positive 63-bit hash space, sorted.  A key hashes to the owner of
/// the first point at or above it (wrapping), so adding or removing a
/// member moves only the segments adjacent to its points — the minimal
///-movement property [`Deployment::apply_shard_map`] relies on.
#[derive(Debug, Clone)]
pub struct ShardRing {
    points: Vec<(i64, String)>,
}

impl ShardRing {
    fn build(group: &[String], vnodes: usize) -> ShardRing {
        let mut points: Vec<(i64, String)> = Vec::with_capacity(group.len() * vnodes);
        for member in group {
            for vnode in 0..vnodes {
                points.push((
                    shard_hash(&Value::str(format!("{member}#vnode{vnode}"))),
                    member.clone(),
                ));
            }
        }
        // Sort by point; on the (astronomically unlikely) hash collision the
        // lexicographically smallest member wins deterministically.
        points.sort_by(|a, b| a.0.cmp(&b.0).then_with(|| a.1.cmp(&b.1)));
        points.dedup_by_key(|(point, _)| *point);
        ShardRing { points }
    }

    /// The member owning `hash`.
    pub fn owner_of_hash(&self, hash: i64) -> &str {
        assert!(!self.points.is_empty(), "shard ring over an empty group");
        let index = self.points.partition_point(|(point, _)| *point < hash);
        let (_, owner) = self.points.get(index).unwrap_or(&self.points[0]);
        owner
    }

    /// The member owning a partition-column value.  Routes through the
    /// fixed slot table ([`slot_of`]/[`slot_position`]) rather than the raw
    /// hash, so Rust-side placement and the generated `sha1slot`-based
    /// routing rules agree tuple-for-tuple.
    pub fn owner_of(&self, value: &Value) -> &str {
        self.owner_of_hash(slot_position(slot_of(value)))
    }

    /// The ring as contiguous inclusive segments covering `[0, i64::MAX]`.
    pub fn segments(&self) -> Vec<ShardSegment> {
        assert!(!self.points.is_empty(), "shard ring over an empty group");
        let mut segments = Vec::with_capacity(self.points.len() + 1);
        let mut lo = 0i64;
        for (point, owner) in &self.points {
            segments.push(ShardSegment {
                owner: owner.clone(),
                lo,
                hi: *point,
            });
            if *point == i64::MAX {
                return segments;
            }
            lo = *point + 1;
        }
        // Wrap-around: everything above the last point belongs to the first.
        segments.push(ShardSegment {
            owner: self.points[0].1.clone(),
            lo,
            hi: i64::MAX,
        });
        segments
    }
}

/// The owner of a fact of `pred`, when `pred` is sharded (with the column
/// bounds checked against the actual tuple).
pub(crate) fn fact_owner<'r>(
    map: &ShardMap,
    ring: &'r ShardRing,
    pred: &str,
    tuple: &[Value],
) -> Result<Option<&'r str>> {
    let Some(column) = map.partition_column(pred) else {
        return Ok(None);
    };
    let Some(value) = tuple.get(column) else {
        return Err(DatalogError::Eval(format!(
            "shard map partitions {pred} on column {column}, but a fact has arity {}",
            tuple.len()
        )));
    };
    Ok(Some(ring.owner_of(value)))
}

/// Everything [`Deployment::build`] carries from the pre-compile shard
/// analysis to the post-compile rewrite: the generated routing source, the
/// base-cardinality estimates both planner passes share, and the dataflow
/// sets the generated source covers.
#[derive(Debug, Clone)]
pub(crate) struct ShardArtifacts {
    pub(crate) relations: BTreeMap<String, usize>,
    pub(crate) partitions: usize,
    pub(crate) generated_source: String,
    pub(crate) estimates: BTreeMap<String, usize>,
    pub(crate) shuffles: BTreeSet<(String, usize)>,
    pub(crate) broadcasts: BTreeSet<String>,
}

/// Analyze the app against the shard map: validate the sharded relations,
/// plan every rule, and generate the exchange declarations and routing
/// rules the plan needs.  Pure — a function of the app source, the map, and
/// the initial facts — so the identical classification in
/// [`rewrite_program`] cannot drift.
pub(crate) fn analyze(
    app_source: &str,
    map: &ShardMap,
    initial_facts: &[(String, Tuple)],
    strict_typing: bool,
) -> Result<ShardArtifacts> {
    let program = parse_program(app_source)?;

    for relation in map.relations().keys() {
        if RESERVED_RELATIONS.contains(&relation.as_str()) {
            return Err(DatalogError::Eval(format!(
                "relation {relation} is provisioned by the engine and cannot be sharded"
            )));
        }
        if relation.starts_with("shard_") || relation.contains('$') {
            return Err(DatalogError::Eval(format!(
                "relation name {relation} is reserved for the shard runtime"
            )));
        }
        if let Some(decl) = find_declaration(&program, relation) {
            if declared_functional(decl) {
                return Err(DatalogError::Eval(format!(
                    "sharded relations must be plain (non-functional): {relation} is declared \
                     with functional syntax"
                )));
            }
        } else if strict_typing {
            return Err(DatalogError::Eval(format!(
                "sharded relation {relation} has no type declaration; the generated exchange \
                 relations copy its declared column types"
            )));
        }
    }
    for statement in &program.statements {
        if let Statement::Constraint(constraint) = statement {
            for literal in constraint.lhs.iter().chain(&constraint.rhs) {
                if let Literal::Pos(atom) | Literal::Neg(atom) = literal {
                    if let Some(name) = atom.pred.as_named() {
                        if name.starts_with("shard_") {
                            return Err(DatalogError::Eval(format!(
                                "predicate name {name} is reserved for the shard runtime"
                            )));
                        }
                    }
                }
            }
        }
    }

    let mut estimates: BTreeMap<String, usize> = BTreeMap::new();
    for (pred, _) in initial_facts {
        *estimates.entry(pred.clone()).or_default() += 1;
    }
    for fact in program.facts() {
        if let Some(name) = fact.atom.pred.as_named() {
            *estimates.entry(name.to_string()).or_default() += 1;
        }
    }

    let plan = plan_over(&program, map, &estimates)?;
    let generated_source = generate_source(&program, initial_facts, &plan)?;
    Ok(ShardArtifacts {
        relations: map.relations().clone(),
        partitions: map.partitions(),
        generated_source,
        estimates,
        shuffles: plan.shuffles,
        broadcasts: plan.broadcasts,
    })
}

/// Run the exchange planner over a program's rules, skipping generated
/// exchange machinery.
fn plan_over(
    program: &Program,
    map: &ShardMap,
    estimates: &BTreeMap<String, usize>,
) -> Result<ProgramExchangePlan> {
    let mut indexed: Vec<(usize, &Rule)> = Vec::new();
    for (index, statement) in program.statements.iter().enumerate() {
        if let Statement::Rule(rule) = statement {
            if rule_is_exchange_machinery(rule)? {
                continue;
            }
            indexed.push((index, rule));
        }
    }
    let estimate = |name: &str| estimates.get(name).copied().unwrap_or(0);
    shuffle::plan_rules(
        &indexed,
        &ExchangeInput {
            sharded: map.relations(),
            partitions: map.partitions(),
            broadcast_max: BROADCAST_MAX,
            estimate: &estimate,
        },
    )
}

/// Whether a rule belongs to the generated exchange machinery (routing
/// rules, and the policy-generated import/`sig$` rules over exchange
/// relations) and must never be replanned or rewritten.
fn rule_is_exchange_machinery(rule: &Rule) -> Result<bool> {
    for atom in &rule.head {
        if atom.pred.is_concrete()
            && shuffle::is_exchange_generated(&runtime_pred_name(&atom.pred)?)
        {
            return Ok(true);
        }
    }
    Ok(false)
}

/// Find a relation's type declaration: a constraint `rel(V…) -> types…`.
fn find_declaration<'p>(program: &'p Program, relation: &str) -> Option<&'p Constraint> {
    program.statements.iter().find_map(|statement| {
        let Statement::Constraint(constraint) = statement else {
            return None;
        };
        if constraint.lhs.len() != 1 || constraint.rhs.is_empty() {
            return None;
        }
        let Literal::Pos(atom) = &constraint.lhs[0] else {
            return None;
        };
        (atom.pred.as_named() == Some(relation)
            && atom
                .terms
                .iter()
                .all(|term| matches!(term, Term::Var(_) | Term::Wildcard)))
        .then_some(constraint)
    })
}

fn declared_functional(decl: &Constraint) -> bool {
    matches!(&decl.lhs[0], Literal::Pos(atom) if atom.functional)
}

/// The arity of a sharded relation: from its declaration, else from a body
/// literal, else from an initial fact.
fn relation_arity(
    program: &Program,
    relation: &str,
    initial_facts: &[(String, Tuple)],
) -> Result<usize> {
    if let Some(decl) = find_declaration(program, relation) {
        if let Literal::Pos(atom) = &decl.lhs[0] {
            return Ok(atom.terms.len());
        }
    }
    for statement in &program.statements {
        if let Statement::Rule(rule) = statement {
            for literal in &rule.body {
                if let Literal::Pos(atom) | Literal::Neg(atom) = literal {
                    if atom.pred.as_named() == Some(relation) {
                        return Ok(atom.terms.len());
                    }
                }
            }
        }
    }
    if let Some((_, tuple)) = initial_facts.iter().find(|(pred, _)| pred == relation) {
        return Ok(tuple.len());
    }
    Err(DatalogError::Eval(format!(
        "cannot determine the arity of sharded relation {relation}: it has no declaration, no \
         body occurrence, and no initial facts"
    )))
}

/// Rename the variables of a declaration's rhs literal to the generated
/// argument names.
fn rename_literal(literal: &Literal, renames: &BTreeMap<String, String>) -> Literal {
    fn rename_term(term: &Term, renames: &BTreeMap<String, String>) -> Term {
        match term {
            Term::Var(v) => Term::Var(renames.get(v).cloned().unwrap_or_else(|| v.clone())),
            Term::BinOp(l, op, r) => Term::BinOp(
                Box::new(rename_term(l, renames)),
                *op,
                Box::new(rename_term(r, renames)),
            ),
            other => other.clone(),
        }
    }
    let rename_atom = |atom: &Atom| Atom {
        pred: atom.pred.clone(),
        terms: atom.terms.iter().map(|t| rename_term(t, renames)).collect(),
        functional: atom.functional,
    };
    match literal {
        Literal::Pos(atom) => Literal::Pos(rename_atom(atom)),
        Literal::Neg(atom) => Literal::Neg(rename_atom(atom)),
        Literal::Cmp(l, op, r) => {
            Literal::Cmp(rename_term(l, renames), *op, rename_term(r, renames))
        }
    }
}

/// Generate the exchange source for a plan: typed declarations for every
/// exchange relation (copying the base relation's declared column types),
/// `exportable` listings so the `says` policy covers them, and the routing
/// rules — the engine-written generalization of the §7.2 rehash rules.
fn generate_source(
    program: &Program,
    initial_facts: &[(String, Tuple)],
    plan: &ProgramExchangePlan,
) -> Result<String> {
    let mut out = String::from("\n// --- generated by the shard runtime (do not hand-edit) ---\n");
    out.push_str(&format!(
        "{SLOT_RELATION}(SXB, SXP) -> int[32](SXB), principal(SXP).\n\
         {MEMBER_RELATION}(SXP) -> principal(SXP).\n"
    ));

    let args = |arity: usize| -> Vec<String> { (0..arity).map(|i| format!("SXV{i}")).collect() };
    let typed_decl = |relation: &str, exchange: &str, arity: usize| -> Option<String> {
        let decl = find_declaration(program, relation)?;
        let Literal::Pos(lhs) = &decl.lhs[0] else {
            return None;
        };
        let renames: BTreeMap<String, String> = lhs
            .terms
            .iter()
            .enumerate()
            .filter_map(|(i, term)| match term {
                Term::Var(v) => Some((v.clone(), format!("SXV{i}"))),
                _ => None,
            })
            .collect();
        let rhs: Vec<String> = decl
            .rhs
            .iter()
            .map(|literal| rename_literal(literal, &renames).to_string())
            .collect();
        Some(format!(
            "{exchange}({}) -> {}.\n",
            args(arity).join(", "),
            rhs.join(", ")
        ))
    };

    for (relation, column) in &plan.shuffles {
        let arity = relation_arity(program, relation, initial_facts)?;
        let exchange = exchange_name(relation, *column);
        if let Some(decl) = typed_decl(relation, &exchange, arity) {
            out.push_str(&decl);
        }
        out.push_str(&format!("exportable(`{exchange}).\n"));
        let vars = args(arity);
        out.push_str(&format!(
            "says[`{exchange}](self[], SXP, {vars}) <- {relation}({vars}), \
             sha1slot(SXV{column}, SXB), {SLOT_RELATION}(SXB, SXP).\n",
            vars = vars.join(", "),
        ));
    }
    for relation in &plan.broadcasts {
        let arity = relation_arity(program, relation, initial_facts)?;
        let exchange = broadcast_name(relation);
        if let Some(decl) = typed_decl(relation, &exchange, arity) {
            out.push_str(&decl);
        }
        out.push_str(&format!("exportable(`{exchange}).\n"));
        let vars = args(arity);
        out.push_str(&format!(
            "says[`{exchange}](self[], SXP, {vars}) <- {relation}({vars}), \
             {MEMBER_RELATION}(SXP).\n",
            vars = vars.join(", "),
        ));
    }
    Ok(out)
}

/// Rewrite the compiled program in place: re-run the deterministic
/// classification over every non-generated rule and substitute each
/// shuffled or broadcast sharded body atom with its exchanged copy.
/// Returns the program's exchange plan (summary surfaced in the report).
pub(crate) fn rewrite_program(
    program: &mut Program,
    artifacts: &ShardArtifacts,
) -> Result<ProgramExchangePlan> {
    let mut indexed: Vec<(usize, Rule)> = Vec::new();
    for (index, statement) in program.statements.iter().enumerate() {
        if let Statement::Rule(rule) = statement {
            if rule_is_exchange_machinery(rule)? {
                continue;
            }
            indexed.push((index, rule.clone()));
        }
    }
    let refs: Vec<(usize, &Rule)> = indexed.iter().map(|(i, r)| (*i, r)).collect();
    let estimate = |name: &str| artifacts.estimates.get(name).copied().unwrap_or(0);
    let plan = shuffle::plan_rules(
        &refs,
        &ExchangeInput {
            sharded: &artifacts.relations,
            partitions: artifacts.partitions,
            broadcast_max: BROADCAST_MAX,
            estimate: &estimate,
        },
    )?;

    // The pre-compile analysis generated routing for exactly the dataflows
    // it planned; if compilation introduced a rule that needs one it did not
    // plan, the exchanged copy would silently stay empty — fail loudly.
    for shuffle_flow in &plan.shuffles {
        if !artifacts.shuffles.contains(shuffle_flow) {
            return Err(DatalogError::Eval(format!(
                "exchange planner drift: compiled program needs shuffle dataflow {}/{} that the \
                 analysis pass did not generate",
                shuffle_flow.0, shuffle_flow.1
            )));
        }
    }
    for broadcast_flow in &plan.broadcasts {
        if !artifacts.broadcasts.contains(broadcast_flow) {
            return Err(DatalogError::Eval(format!(
                "exchange planner drift: compiled program needs broadcast dataflow {broadcast_flow} \
                 that the analysis pass did not generate"
            )));
        }
    }

    for (index, rule_plan) in &plan.rules {
        let Statement::Rule(rule) = &mut program.statements[*index] else {
            continue;
        };
        for exchange in &rule_plan.literals {
            let replacement = match exchange.strategy {
                ExchangeStrategy::CoPartitioned => continue,
                ExchangeStrategy::Shuffle { column } => exchange_name(&exchange.relation, column),
                ExchangeStrategy::Broadcast => broadcast_name(&exchange.relation),
            };
            match &mut rule.body[exchange.literal] {
                Literal::Pos(atom) | Literal::Neg(atom) => {
                    atom.pred = PredRef::Named(replacement);
                }
                Literal::Cmp(..) => unreachable!("exchange plans only cover atoms"),
            }
        }
    }
    Ok(plan)
}

/// Route node-spec base facts to their ring owners (non-sharded facts stay
/// where the spec put them).
pub(crate) fn route_specs(specs: &[NodeSpec], map: &ShardMap) -> Result<Vec<NodeSpec>> {
    let ring = map.ring();
    let index: HashMap<&str, usize> = specs
        .iter()
        .enumerate()
        .map(|(i, spec)| (spec.principal.as_str(), i))
        .collect();
    let mut routed: Vec<NodeSpec> = specs
        .iter()
        .map(|spec| NodeSpec::new(&spec.principal))
        .collect();
    for (origin, spec) in specs.iter().enumerate() {
        for (pred, tuple) in &spec.base_facts {
            let destination = match fact_owner(map, &ring, pred, tuple)? {
                Some(owner) => *index.get(owner).ok_or_else(|| {
                    DatalogError::Eval(format!("shard owner {owner} is not a deployment node"))
                })?,
                None => origin,
            };
            routed[destination]
                .base_facts
                .push((pred.clone(), tuple.clone()));
        }
    }
    Ok(routed)
}

/// Shard section of a [`DeploymentReport`](crate::runtime::engine::DeploymentReport):
/// partition population, exchange traffic, and the planner's classification
/// counts — partition skew is visible here without reading logs.
#[derive(Debug, Clone)]
pub struct ShardReport {
    /// Group size.
    pub partitions: usize,
    /// Sharded base tuples held per member.
    pub per_partition_tuples: Vec<(String, usize)>,
    /// Bytes of exchange deltas shipped on the wire.
    pub exchange_bytes: usize,
    pub co_partitioned_literals: usize,
    pub shuffle_literals: usize,
    pub broadcast_literals: usize,
    /// Max-over-mean of `per_partition_tuples` (1.0 = perfectly even).
    pub skew: f64,
}

/// Outcome of one [`Deployment::apply_shard_map`] re-partitioning.
#[derive(Debug, Clone)]
pub struct RepartitionReport {
    /// Base tuples that changed owner.
    pub moved_tuples: usize,
    /// Base tuples that stayed put.
    pub retained_tuples: usize,
    /// Ring segments before and after.
    pub segments_before: usize,
    pub segments_after: usize,
    /// The global sharded-content digest, verified unchanged by the move.
    pub digest: String,
    /// Per-node EDB Merkle roots after convergence (empty when the
    /// deployment is not durable).
    pub edb_roots: Vec<(String, String)>,
    /// Virtual time the re-partitioned deployment took to re-converge.
    pub convergence: Duration,
}

impl Deployment {
    /// Insert facts at runtime, routed through the shard map: each fact of a
    /// sharded relation is applied as a transaction at its ring owner (and
    /// flushed onto the update stream like any other insert).  Facts of
    /// non-sharded relations are rejected — their placement is the caller's
    /// decision, made through node specs or `process_batch`.
    pub fn ingest(&mut self, batch: Vec<(String, Tuple)>) -> Result<()> {
        let map = match &self.config.sharding {
            Some(map) if map.is_active() => map.clone(),
            _ => {
                return Err(DatalogError::Eval(
                    "Deployment::ingest requires an active shard map".into(),
                ))
            }
        };
        let ring = map.ring();
        let mut per_owner: BTreeMap<usize, Vec<(String, Tuple)>> = BTreeMap::new();
        for (pred, tuple) in batch {
            let Some(owner) = fact_owner(&map, &ring, &pred, &tuple)? else {
                return Err(DatalogError::Eval(format!(
                    "Deployment::ingest only routes sharded relations; {pred} is not in the \
                     shard map"
                )));
            };
            let &index = self.shared.principal_index.get(owner).ok_or_else(|| {
                DatalogError::Eval(format!("shard owner {owner} is not a deployment node"))
            })?;
            per_owner.entry(index).or_default().push((pred, tuple));
        }
        for (index, owner_batch) in per_owner {
            let now = self.nodes[index].available_at;
            self.node_ctx(index).process_batch(owner_batch, now)?;
        }
        Ok(())
    }

    /// The union of `pred` across every node, sorted and deduplicated — the
    /// complete extension of a sharded or partial relation.
    pub fn query_union(&self, pred: &str) -> Vec<Tuple> {
        let mut union: Vec<Tuple> = self
            .nodes
            .iter()
            .flat_map(|node| node.workspace.query(pred))
            .collect();
        union.sort_by(|a, b| tuple_total_cmp(a, b));
        union.dedup();
        union
    }

    /// A content digest of the union of the given relations across all
    /// nodes: SHA-1 over the sorted canonical encodings.  Placement-free by
    /// construction, so it is invariant under re-partitioning — the check
    /// [`Deployment::apply_shard_map`] enforces.
    pub fn union_digest(&self, preds: &[&str]) -> String {
        let mut hasher_input = Vec::new();
        for pred in preds {
            hasher_input.extend_from_slice(pred.as_bytes());
            for tuple in self.query_union(pred) {
                hasher_input.extend_from_slice(&serialize_tuple(&tuple));
            }
        }
        let digest = sha1(&hasher_input);
        digest.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// The global digest of every sharded relation's union.
    pub fn shard_union_digest(&self) -> Result<String> {
        let map = self
            .config
            .sharding
            .as_ref()
            .ok_or_else(|| DatalogError::Eval("deployment has no shard map".into()))?;
        let preds: Vec<&str> = map.relations().keys().map(String::as_str).collect();
        Ok(self.union_digest(&preds))
    }

    /// Re-partition on membership change: replace the shard map with
    /// `new_map` (same relations, possibly different group/vnodes), moving
    /// only the base tuples whose hash slot changed owner.
    ///
    /// The movement itself is driven by the signed delta plane: the updated
    /// `shard_slot`/`shard_member` facts are asserted/retracted on every
    /// node (deletion then withdraws every exchange tuple whose routing no
    /// longer holds, and derives the new routing), moved base tuples are
    /// retracted at the old owner and re-asserted at the new one (both
    /// WAL-logged), and one [`Deployment::run`] re-converges the group.
    /// The global sharded-content digest is verified unchanged, and the
    /// per-node Merkle roots are re-read after the move.
    pub fn apply_shard_map(&mut self, new_map: ShardMap) -> Result<RepartitionReport> {
        let old_map = match &self.config.sharding {
            Some(map) if map.is_active() => map.clone(),
            _ => {
                return Err(DatalogError::Eval(
                    "apply_shard_map requires an already-sharded deployment".into(),
                ))
            }
        };
        if !new_map.is_active() {
            return Err(DatalogError::Eval(
                "apply_shard_map requires a non-empty new shard map".into(),
            ));
        }
        if new_map.relations() != old_map.relations() {
            return Err(DatalogError::Eval(
                "apply_shard_map changes membership, not the sharded relations; rebuild the \
                 deployment to change what is sharded"
                    .into(),
            ));
        }
        for member in new_map.group() {
            if !self.shared.principal_index.contains_key(member) {
                return Err(DatalogError::Eval(format!(
                    "shard group member {member} is not a deployment node"
                )));
            }
        }

        let digest_before = self.shard_union_digest()?;
        let segments_before = old_map.ring().segments().len();
        let new_ring = new_map.ring();
        let segments_after = new_ring.segments().len();

        // 1. Update the ring's Datalog mirror on every node.  Deletion drops
        //    every exchange derivation the old slot table supported; the
        //    new facts derive the new routing.  Only the diff moves.
        let old_facts = old_map.exchange_facts();
        let new_facts = new_map.exchange_facts();
        let retracts: Vec<(String, Tuple)> = old_facts
            .iter()
            .filter(|fact| !new_facts.contains(fact))
            .cloned()
            .collect();
        let asserts: Vec<(String, Tuple)> = new_facts
            .iter()
            .filter(|fact| !old_facts.contains(fact))
            .cloned()
            .collect();
        for index in 0..self.nodes.len() {
            let principal = self.nodes[index].info.principal.clone();
            if !retracts.is_empty() {
                self.retract(&principal, retracts.clone())?;
            }
            if !asserts.is_empty() {
                let now = self.nodes[index].available_at;
                self.node_ctx(index).process_batch(asserts.clone(), now)?;
            }
        }

        // 2. Move the base tuples whose owner changed — and only those.
        let mut moved_tuples = 0usize;
        let mut retained_tuples = 0usize;
        let mut moves: BTreeMap<usize, Vec<(String, Tuple)>> = BTreeMap::new();
        for index in 0..self.nodes.len() {
            let principal = self.nodes[index].info.principal.clone();
            let mut outgoing: Vec<(String, Tuple)> = Vec::new();
            for relation in new_map.relations().keys() {
                for tuple in self.nodes[index].workspace.query(relation) {
                    let owner = fact_owner(&new_map, &new_ring, relation, &tuple)?
                        .expect("relation is sharded");
                    if owner == principal {
                        retained_tuples += 1;
                    } else {
                        let &dest = self
                            .shared
                            .principal_index
                            .get(owner)
                            .expect("validated above");
                        outgoing.push((relation.clone(), tuple.clone()));
                        moves
                            .entry(dest)
                            .or_default()
                            .push((relation.clone(), tuple));
                        moved_tuples += 1;
                    }
                }
            }
            if !outgoing.is_empty() {
                self.retract(&principal, outgoing)?;
            }
        }
        for (dest, batch) in moves {
            let now = self.nodes[dest].available_at;
            self.node_ctx(dest).process_batch(batch, now)?;
        }

        // 3. Converge under the new map and verify nothing was lost,
        //    duplicated, or fabricated by the move.
        self.config.sharding = Some(new_map);
        let report = self.run()?;
        let digest_after = self.shard_union_digest()?;
        if digest_after != digest_before {
            return Err(DatalogError::Eval(format!(
                "re-partitioning changed the global sharded content: digest {digest_before} -> \
                 {digest_after}"
            )));
        }
        let edb_roots = self.edb_roots().unwrap_or_default();
        Ok(RepartitionReport {
            moved_tuples,
            retained_tuples,
            segments_before,
            segments_after,
            digest: digest_after,
            edb_roots,
            convergence: report.fixpoint_latency,
        })
    }

    /// The shard section of the deployment report, computed from the nodes'
    /// workspaces and ledgers.
    pub(crate) fn shard_report(&self) -> Option<ShardReport> {
        let map = self.config.sharding.as_ref().filter(|m| m.is_active())?;
        let mut per_partition_tuples = Vec::with_capacity(map.partitions());
        for member in map.group() {
            let Some(&index) = self.shared.principal_index.get(member) else {
                continue;
            };
            let tuples: usize = map
                .relations()
                .keys()
                .map(|relation| self.nodes[index].workspace.count(relation))
                .sum();
            per_partition_tuples.push((member.clone(), tuples));
        }
        let exchange_bytes: usize = self
            .nodes
            .iter()
            .map(|node| node.ledger.exchange_bytes())
            .sum();
        let max = per_partition_tuples
            .iter()
            .map(|(_, n)| *n)
            .max()
            .unwrap_or(0);
        let total: usize = per_partition_tuples.iter().map(|(_, n)| *n).sum();
        let mean = total as f64 / per_partition_tuples.len().max(1) as f64;
        let summary = self.shard_summary.unwrap_or_default();
        Some(ShardReport {
            partitions: map.partitions(),
            per_partition_tuples,
            exchange_bytes,
            co_partitioned_literals: summary.co_partitioned,
            shuffle_literals: summary.shuffles,
            broadcast_literals: summary.broadcasts,
            skew: if mean > 0.0 { max as f64 / mean } else { 0.0 },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn members(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("n{i}")).collect()
    }

    #[test]
    fn shard_hash_matches_the_pinned_values() {
        // Regression pin: the single shared hash definition behind the
        // `sha1hash` UDF, the hashjoin bucket placement, and ring routing.
        // If these change, every committed partition layout changes.
        assert_eq!(shard_hash(&Value::Int(0)), 4709311589747188149);
        assert_eq!(shard_hash(&Value::Int(1)), 3610050322085435747);
        assert_eq!(shard_hash(&Value::Int(42)), 2517355720152244704);
        assert_eq!(shard_hash(&Value::str("n0")), 7950901485012294306);
        for hash in [
            shard_hash(&Value::Int(0)),
            shard_hash(&Value::Int(1)),
            shard_hash(&Value::str("n0")),
        ] {
            assert!(hash >= 0, "partition hashes live in [0, i64::MAX]");
        }
    }

    #[test]
    fn ring_lookup_agrees_with_segments() {
        let map = ShardMap::new(members(5)).shard("r", 0).with_vnodes(8);
        let ring = map.ring();
        let segments = ring.segments();
        assert_eq!(segments.first().unwrap().lo, 0);
        assert_eq!(segments.last().unwrap().hi, i64::MAX);
        for window in segments.windows(2) {
            assert_eq!(
                window[0].hi + 1,
                window[1].lo,
                "segments must be contiguous"
            );
        }
        for probe in 0..2000i64 {
            let hash = shard_hash(&Value::Int(probe * 7919));
            let by_lookup = ring.owner_of_hash(hash);
            let by_segment = segments
                .iter()
                .find(|s| s.lo <= hash && hash <= s.hi)
                .map(|s| s.owner.as_str())
                .expect("segments cover the space");
            assert_eq!(by_lookup, by_segment);
        }
    }

    #[test]
    fn adding_a_member_moves_a_minority_of_keys() {
        let old = ShardMap::new(members(4)).shard("r", 0);
        let new = ShardMap::new(members(5)).shard("r", 0);
        let (old_ring, new_ring) = (old.ring(), new.ring());
        let total = 5000;
        let moved = (0..total)
            .filter(|i| {
                let value = Value::Int(*i * 31 + 7);
                old_ring.owner_of(&value) != new_ring.owner_of(&value)
            })
            .count();
        // Consistent hashing: ~1/5 of keys move to the new member; far less
        // than the ~4/5 a modulo scheme would reshuffle.
        assert!(moved > 0, "the new member must take some keys");
        assert!(
            moved * 2 < total as usize,
            "only a minority of keys may move ({moved}/{total})"
        );
        for i in 0..total {
            let value = Value::Int(i * 31 + 7);
            if old_ring.owner_of(&value) != new_ring.owner_of(&value) {
                assert_eq!(
                    new_ring.owner_of(&value),
                    "n4",
                    "moved keys must move to the new member only"
                );
            }
        }
    }

    #[test]
    fn exchange_facts_mirror_the_ring() {
        let map = ShardMap::new(members(3)).shard("r", 0).with_vnodes(4);
        let ring = map.ring();
        let facts = map.exchange_facts();
        let slots: Vec<&Tuple> = facts
            .iter()
            .filter(|(p, _)| p == SLOT_RELATION)
            .map(|(_, t)| t)
            .collect();
        let members_count = facts.iter().filter(|(p, _)| p == MEMBER_RELATION).count();
        assert_eq!(slots.len(), SHARD_SLOTS as usize);
        assert_eq!(members_count, 3);
        for tuple in slots {
            let slot = tuple[0].as_int().unwrap();
            let owner = ring.owner_of_hash(slot_position(slot));
            assert_eq!(tuple[1], Value::str(owner));
        }
    }

    #[test]
    fn reserved_relations_cannot_be_sharded() {
        let map = ShardMap::new(members(2)).shard("principal", 0);
        let err = analyze("p(X) -> int[32](X).", &map, &[], true).unwrap_err();
        assert!(
            err.to_string().contains("provisioned by the engine"),
            "{err}"
        );
    }
}
