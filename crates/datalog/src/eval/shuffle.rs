//! Distributed exchange planning for horizontally sharded base relations.
//!
//! When a deployment declares a shard map (relation → partition column →
//! hash ring over a node group, see the core crate's `runtime::shard`), each
//! sharded base relation lives partitioned across the group and no single
//! node can evaluate a rule over it locally.  The planner here decides, per
//! rule and per sharded body literal, how the data has to move — the
//! decision a distributed query optimizer calls *exchange placement*:
//!
//! * [`ExchangeStrategy::CoPartitioned`] — the literal's partition column
//!   carries the rule's join variable, so matching tuples of every sharded
//!   literal in the rule are already co-located under the shared hash ring
//!   and the literal reads its local partition directly (no movement);
//! * [`ExchangeStrategy::Shuffle`] — the literal must be rehashed on the
//!   join variable: every member routes its partition's tuples to the hash
//!   owner of the join value (the paper §7.2 rehash pattern, generalized
//!   from the hand-written hashjoin policy into the engine), and the rule
//!   reads the exchanged copy relation instead;
//! * [`ExchangeStrategy::Broadcast`] — every member needs the complete
//!   relation: the literal has no usable join variable, the relation is
//!   small enough that full replication is cheaper than hashing
//!   (`broadcast_max`), the literal is negated, or the rule aggregates.
//!
//! The classification is pure and deterministic — a function of the rules,
//! the shard map, and the initial base-relation cardinalities — so the
//! pre-compile analysis (which decides which exchange dataflows to
//! generate) and the post-compile rewrite (which substitutes body atoms)
//! always agree.  Movement costs reuse the cost model of [`plan`]
//! (`scan_cost`): a shuffle ships one copy of a relation, a broadcast ships
//! `partitions − 1` copies.
//!
//! Rules whose sharded literals are not all broadcast derive *partial*
//! relations: each member holds only the derivations its local partitions
//! support, and the complete relation is the union across the group.
//! Partiality propagates — a rule reading a partial relation derives a
//! partial head — and constrains what can be planned soundly: negating or
//! aggregating a partial relation, or joining two distinct partial
//! relations on one node, would compute from an incomplete extension, so
//! those shapes are rejected here rather than silently answered wrong.

use crate::ast::{Atom, Literal, Rule, Term};
use crate::error::{DatalogError, Result};
use crate::eval::plan::scan_cost;
use crate::eval::runtime_pred_name;
use std::collections::{BTreeMap, BTreeSet};

/// Name prefix of shuffle-exchange relations (`shard_xchg_c<col>_<rel>`).
pub const XCHG_PREFIX: &str = "shard_xchg_";
/// Name prefix of broadcast-exchange relations (`shard_bcast_<rel>`).
pub const BCAST_PREFIX: &str = "shard_bcast_";
/// The slot-ownership relation every member carries: `shard_slot(Slot,
/// Owner)` — the ring quantized into [`SHARD_SLOTS`] fixed hash slots so
/// routing rules join on an indexed slot id instead of scanning the
/// per-member range facts (`prin_minhash`/`prin_maxhash`) of the hashjoin
/// app, whose count grows with the group.
pub const SLOT_RELATION: &str = "shard_slot";
/// Number of fixed hash slots the ring is quantized into.  Constant in the
/// group size, so the routing join stays O(1) per tuple at any scale and
/// the replicated slot table is the same 1024 facts on every member.
pub const SHARD_SLOTS: i64 = 1024;
/// The group-membership relation: `shard_member(P)`.
pub const MEMBER_RELATION: &str = "shard_member";

/// The exchanged-copy relation holding `relation` rehashed on `column`.
pub fn exchange_name(relation: &str, column: usize) -> String {
    format!("{XCHG_PREFIX}c{column}_{relation}")
}

/// The broadcast-copy relation holding the full `relation` on every member.
pub fn broadcast_name(relation: &str) -> String {
    format!("{BCAST_PREFIX}{relation}")
}

/// Whether `pred` names an exchange dataflow relation (used by the engine
/// to meter exchange bytes on the wire).
pub fn is_exchange_pred(pred: &str) -> bool {
    pred.starts_with(XCHG_PREFIX) || pred.starts_with(BCAST_PREFIX)
}

/// Whether a rule head belongs to the generated exchange machinery (routing
/// rules and the policy-generated `says$`/`sig$` rules over exchange
/// relations).  Such rules route sharded relations and must never
/// themselves be rewritten to read exchanged copies.
pub fn is_exchange_generated(head_pred: &str) -> bool {
    head_pred.contains(XCHG_PREFIX) || head_pred.contains(BCAST_PREFIX)
}

/// How one sharded body literal participates in distributed evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExchangeStrategy {
    /// Read the local partition directly — tuples are already co-located.
    CoPartitioned,
    /// Read the copy rehashed on body column `column`.
    Shuffle { column: usize },
    /// Read the fully replicated copy.
    Broadcast,
}

/// The classification of one sharded literal within a rule body.
#[derive(Debug, Clone)]
pub struct LiteralExchange {
    /// Index of the literal in the rule body.
    pub literal: usize,
    /// The sharded relation the literal reads.
    pub relation: String,
    pub strategy: ExchangeStrategy,
}

/// The exchange plan of one rule that touches sharded relations.
#[derive(Debug, Clone)]
pub struct RuleExchangePlan {
    pub literals: Vec<LiteralExchange>,
    /// Whether the rule's head is *partial*: derived per member, complete
    /// only as the union across the group.
    pub partial_head: bool,
}

/// Counts of literal classifications across a program — surfaced in the
/// deployment report so the chosen exchange shapes are visible.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExchangeSummary {
    pub co_partitioned: usize,
    pub shuffles: usize,
    pub broadcasts: usize,
}

/// The exchange plan of a whole program.
#[derive(Debug, Clone, Default)]
pub struct ProgramExchangePlan {
    /// Per-rule plans, keyed by the caller's rule id (only rules with
    /// sharded body literals appear).
    pub rules: BTreeMap<usize, RuleExchangePlan>,
    /// `(relation, column)` shuffle dataflows some rule needs.
    pub shuffles: BTreeSet<(String, usize)>,
    /// Relations some rule needs broadcast.
    pub broadcasts: BTreeSet<String>,
    /// Head predicates derived partially (per member).
    pub partial: BTreeSet<String>,
    pub summary: ExchangeSummary,
}

/// Shard-map facts and cost inputs the planner classifies against.
pub struct ExchangeInput<'a> {
    /// Sharded relation → partition column.
    pub sharded: &'a BTreeMap<String, usize>,
    /// Number of group members (broadcast cost multiplier).
    pub partitions: usize,
    /// Relations at or below this initial cardinality are always broadcast
    /// — replicating a tiny table beats hashing it.
    pub broadcast_max: usize,
    /// Initial cardinality of a base relation (0 for unknown names).
    pub estimate: &'a dyn Fn(&str) -> usize,
}

/// Plan every rule of a program against a shard map.
///
/// `rules` pairs each rule with a caller-chosen id (its statement index);
/// generated exchange machinery must be filtered out by the caller (see
/// [`is_exchange_generated`]).  Returns the per-rule exchange plans, the set
/// of exchange dataflows the program needs, and the partial-head set — or an
/// error for the shapes distributed evaluation cannot answer soundly.
pub fn plan_rules(rules: &[(usize, &Rule)], input: &ExchangeInput) -> Result<ProgramExchangePlan> {
    if input.partitions == 0 {
        return Err(DatalogError::Eval(
            "exchange planning requires a non-empty shard group".into(),
        ));
    }
    // Fixpoint over the partial-head set: a head is partial when its body
    // reads a partial relation or keeps any sharded literal un-broadcast.
    // Classification depends on the set (rules mixing partial and sharded
    // inputs force broadcasts), and the set grows monotonically, so iterate
    // to stability before the final validated pass.
    let mut partial: BTreeSet<String> = BTreeSet::new();
    loop {
        let mut changed = false;
        for (_, rule) in rules {
            if rule_head_partial(rule, input, &partial)? {
                for atom in &rule.head {
                    if partial.insert(runtime_pred_name(&atom.pred)?.into_owned()) {
                        changed = true;
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }

    let mut plan = ProgramExchangePlan {
        partial: partial.clone(),
        ..ProgramExchangePlan::default()
    };
    for &(id, rule) in rules {
        validate_rule(rule, input, &partial)?;
        let Some(literals) = classify_rule(rule, input, &partial)? else {
            continue;
        };
        for exchange in &literals {
            match exchange.strategy {
                ExchangeStrategy::CoPartitioned => plan.summary.co_partitioned += 1,
                ExchangeStrategy::Shuffle { column } => {
                    plan.summary.shuffles += 1;
                    plan.shuffles.insert((exchange.relation.clone(), column));
                }
                ExchangeStrategy::Broadcast => {
                    plan.summary.broadcasts += 1;
                    plan.broadcasts.insert(exchange.relation.clone());
                }
            }
        }
        let partial_head = rule_head_partial(rule, input, &partial)?;
        plan.rules.insert(
            id,
            RuleExchangePlan {
                literals,
                partial_head,
            },
        );
    }
    Ok(plan)
}

/// The sharded body literals of a rule: `(body index, atom, negated)`.
fn sharded_literals<'r>(
    rule: &'r Rule,
    input: &ExchangeInput,
) -> Result<Vec<(usize, &'r Atom, bool)>> {
    let mut out = Vec::new();
    for (index, literal) in rule.body.iter().enumerate() {
        let (atom, negated) = match literal {
            Literal::Pos(atom) => (atom, false),
            Literal::Neg(atom) => (atom, true),
            Literal::Cmp(..) => continue,
        };
        if atom.pred.is_concrete() && input.sharded.contains_key(&*runtime_pred_name(&atom.pred)?) {
            out.push((index, atom, negated));
        }
    }
    Ok(out)
}

/// Distinct partial relations a rule body reads (positively or negated).
fn body_partial_preds(rule: &Rule, partial: &BTreeSet<String>) -> Result<BTreeSet<String>> {
    let mut out = BTreeSet::new();
    for literal in &rule.body {
        if let Literal::Pos(atom) | Literal::Neg(atom) = literal {
            if atom.pred.is_concrete() {
                let name = runtime_pred_name(&atom.pred)?;
                if partial.contains(&*name) {
                    out.insert(name.into_owned());
                }
            }
        }
    }
    Ok(out)
}

/// Whether the rule derives a partial head under the current partial set.
fn rule_head_partial(
    rule: &Rule,
    input: &ExchangeInput,
    partial: &BTreeSet<String>,
) -> Result<bool> {
    if !body_partial_preds(rule, partial)?.is_empty() {
        return Ok(true);
    }
    Ok(
        classify_rule(rule, input, partial)?.is_some_and(|literals| {
            literals
                .iter()
                .any(|l| l.strategy != ExchangeStrategy::Broadcast)
        }),
    )
}

/// The first body column of `atom` carrying variable `var` directly.
fn var_column(atom: &Atom, var: &str) -> Option<usize> {
    atom.terms
        .iter()
        .position(|term| matches!(term, Term::Var(v) if v == var))
}

/// The variable at `atom`'s partition column, when it is a plain variable.
fn partition_var(atom: &Atom, column: usize) -> Option<&str> {
    match atom.terms.get(column) {
        Some(Term::Var(v)) => Some(v.as_str()),
        _ => None,
    }
}

/// Classify the sharded literals of one rule (`None` when it has none).
///
/// Candidate placements are enumerated and scored by rows moved:
/// anchor-on-a-partition-variable (others co-partition, shuffle to the
/// anchor's hash space, or broadcast), rehash-everything on a shared join
/// variable (the both-sides shuffle of the paper's hash join), and the
/// always-sound fallback of keeping the largest literal in place and
/// broadcasting the rest.  Negated literals, tiny relations, aggregate
/// rules, and rules mixing in partial inputs broadcast unconditionally.
fn classify_rule(
    rule: &Rule,
    input: &ExchangeInput,
    partial: &BTreeSet<String>,
) -> Result<Option<Vec<LiteralExchange>>> {
    let sharded = sharded_literals(rule, input)?;
    if sharded.is_empty() {
        return Ok(None);
    }
    let name_of = |atom: &Atom| runtime_pred_name(&atom.pred).map(|name| name.into_owned());
    let forced_broadcast = rule.agg.is_some() || !body_partial_preds(rule, partial)?.is_empty();

    let mut strategies: BTreeMap<usize, ExchangeStrategy> = BTreeMap::new();
    // Candidates: positive, non-tiny sharded literals still eligible for
    // co-partitioning or shuffling.
    let mut candidates: Vec<(usize, &Atom, String, usize)> = Vec::new();
    for &(index, atom, negated) in &sharded {
        let relation = name_of(atom)?;
        let rows = (input.estimate)(&relation);
        if forced_broadcast || negated || rows <= input.broadcast_max {
            strategies.insert(index, ExchangeStrategy::Broadcast);
        } else {
            candidates.push((index, atom, relation, rows));
        }
    }

    match candidates.len() {
        0 => {}
        1 => {
            // A lone un-broadcast literal evaluates where its partitions
            // live; every other sharded literal is fully replicated.
            strategies.insert(candidates[0].0, ExchangeStrategy::CoPartitioned);
        }
        _ => {
            for (index, strategy) in place_candidates(&candidates, input) {
                strategies.insert(index, strategy);
            }
        }
    }

    Ok(Some(
        sharded
            .iter()
            .map(|&(index, atom, _)| {
                Ok(LiteralExchange {
                    literal: index,
                    relation: name_of(atom)?,
                    strategy: strategies[&index],
                })
            })
            .collect::<Result<Vec<_>>>()?,
    ))
}

/// Score the joint placements of two or more exchange candidates and return
/// the cheapest assignment (rows moved, ties broken deterministically).
fn place_candidates(
    candidates: &[(usize, &Atom, String, usize)],
    input: &ExchangeInput,
) -> Vec<(usize, ExchangeStrategy)> {
    let copies = input.partitions.saturating_sub(1) as f64;
    let broadcast_cost = |rows: usize| scan_cost(rows, 0) * copies;
    let shuffle_cost = |rows: usize| scan_cost(rows, 0);

    // (cost, kind, key) — kind/key order anchor plans before rehash-all
    // before the broadcast fallback at equal cost, deterministically.
    type Scored = (f64, u8, usize, Vec<(usize, ExchangeStrategy)>);
    let mut best: Option<Scored> = None;
    let mut consider = |cost: f64, kind: u8, key: usize, assign: Vec<(usize, ExchangeStrategy)>| {
        let better = match &best {
            None => true,
            Some((c, k, y, _)) => match cost.total_cmp(c) {
                std::cmp::Ordering::Less => true,
                std::cmp::Ordering::Greater => false,
                std::cmp::Ordering::Equal => (kind, key) < (*k, *y),
            },
        };
        if better {
            best = Some((cost, kind, key, assign));
        }
    };

    // Plan A: anchor each candidate whose partition column is a plain
    // variable; the others co-partition on it, shuffle to it, or broadcast.
    for (slot, &(anchor_index, anchor_atom, ref anchor_rel, _)) in candidates.iter().enumerate() {
        let column = input.sharded[anchor_rel.as_str()];
        let Some(join_var) = partition_var(anchor_atom, column) else {
            continue;
        };
        let mut cost = 0.0;
        let mut assign = vec![(anchor_index, ExchangeStrategy::CoPartitioned)];
        for &(index, atom, ref relation, rows) in candidates {
            if index == anchor_index {
                continue;
            }
            let their_column = input.sharded[relation.as_str()];
            if partition_var(atom, their_column) == Some(join_var) {
                assign.push((index, ExchangeStrategy::CoPartitioned));
            } else if let Some(col) = var_column(atom, join_var) {
                cost += shuffle_cost(rows);
                assign.push((index, ExchangeStrategy::Shuffle { column: col }));
            } else {
                cost += broadcast_cost(rows);
                assign.push((index, ExchangeStrategy::Broadcast));
            }
        }
        consider(cost, 0, slot, assign);
    }

    // Plan B: rehash everything on a variable shared by at least two
    // candidates (the both-sides shuffle); candidates lacking it broadcast.
    let mut shared_vars: Vec<String> = Vec::new();
    {
        let mut counts: BTreeMap<String, usize> = BTreeMap::new();
        for &(_, atom, _, _) in candidates {
            let mut vars = Vec::new();
            atom.collect_vars(&mut vars);
            vars.retain(|v| var_column(atom, v).is_some());
            vars.sort();
            vars.dedup();
            for var in vars {
                *counts.entry(var).or_default() += 1;
            }
        }
        shared_vars.extend(counts.into_iter().filter(|(_, n)| *n >= 2).map(|(v, _)| v));
    }
    for (slot, var) in shared_vars.iter().enumerate() {
        let mut cost = 0.0;
        let mut assign = Vec::new();
        for &(index, atom, _, rows) in candidates {
            if let Some(col) = var_column(atom, var) {
                cost += shuffle_cost(rows);
                assign.push((index, ExchangeStrategy::Shuffle { column: col }));
            } else {
                cost += broadcast_cost(rows);
                assign.push((index, ExchangeStrategy::Broadcast));
            }
        }
        consider(cost, 1, slot, assign);
    }

    // Plan C (always applicable): the largest candidate stays put, the rest
    // are fully replicated.
    {
        let (largest_slot, &(largest_index, ..)) = candidates
            .iter()
            .enumerate()
            .max_by_key(|(slot, (_, _, _, rows))| (*rows, usize::MAX - *slot))
            .expect("place_candidates requires candidates");
        let mut cost = 0.0;
        let mut assign = vec![(largest_index, ExchangeStrategy::CoPartitioned)];
        for &(index, _, _, rows) in candidates {
            if index != largest_index {
                cost += broadcast_cost(rows);
                assign.push((index, ExchangeStrategy::Broadcast));
            }
        }
        consider(cost, 2, largest_slot, assign);
    }

    best.expect("at least plan C was considered").3
}

/// Reject the rule shapes distributed evaluation cannot answer soundly.
fn validate_rule(rule: &Rule, input: &ExchangeInput, partial: &BTreeSet<String>) -> Result<()> {
    for atom in &rule.head {
        if !atom.pred.is_concrete() {
            continue;
        }
        let name = runtime_pred_name(&atom.pred)?;
        if input.sharded.contains_key(&*name) {
            return Err(DatalogError::Eval(format!(
                "sharded relation {name} must stay EDB-only (fact routing owns its placement), \
                 but it is derived by a rule; remove it from the shard map, drop the rule, or \
                 drop its exportable declaration"
            )));
        }
        if name.starts_with("shard_") && !is_exchange_generated(&name) {
            return Err(DatalogError::Eval(format!(
                "predicate name {name} is reserved for the shard runtime"
            )));
        }
    }
    let sharded = sharded_literals(rule, input)?;
    for &(_, atom, _) in &sharded {
        let relation = runtime_pred_name(&atom.pred)?;
        let column = input.sharded[&*relation];
        if column >= atom.terms.len() {
            return Err(DatalogError::Eval(format!(
                "shard map partitions {relation} on column {column}, but it is used with \
                 arity {}",
                atom.terms.len()
            )));
        }
    }
    let body_partial = body_partial_preds(rule, partial)?;
    if sharded.is_empty() && body_partial.is_empty() {
        return Ok(());
    }
    if body_partial.len() > 1 {
        return Err(DatalogError::Eval(format!(
            "rule joins {} distributed partial relations ({}) on one node — no member holds \
             their complete extensions; restructure so at most one partial relation feeds a rule",
            body_partial.len(),
            body_partial.into_iter().collect::<Vec<_>>().join(", ")
        )));
    }
    for literal in &rule.body {
        if let Literal::Neg(atom) = literal {
            if atom.pred.is_concrete() && partial.contains(&*runtime_pred_name(&atom.pred)?) {
                return Err(DatalogError::Eval(format!(
                    "negation over the distributed partial relation {} would read an \
                     incomplete extension",
                    runtime_pred_name(&atom.pred)?
                )));
            }
        }
    }
    if rule.agg.is_some() && !body_partial.is_empty() {
        return Err(DatalogError::Eval(format!(
            "aggregation over the distributed partial relation {} would fold an incomplete \
             extension",
            body_partial.into_iter().next().unwrap_or_default()
        )));
    }
    if !rule.head_existentials().is_empty() {
        return Err(DatalogError::Eval(
            "head-existential rules cannot read sharded or partial relations: entity ids are \
             minted per node namespace and would diverge from unsharded evaluation"
                .into(),
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;

    fn rules_of(program: &crate::ast::Program) -> Vec<Rule> {
        program
            .statements
            .iter()
            .filter_map(|s| match s {
                crate::ast::Statement::Rule(r) => Some(r.clone()),
                _ => None,
            })
            .collect()
    }

    fn plan_source(
        source: &str,
        sharded: &[(&str, usize)],
        sizes: &[(&str, usize)],
        partitions: usize,
        broadcast_max: usize,
    ) -> Result<ProgramExchangePlan> {
        let program = parse_program(source).expect("test program parses");
        let rules = rules_of(&program);
        let indexed: Vec<(usize, &Rule)> = rules.iter().enumerate().collect();
        let sharded: BTreeMap<String, usize> =
            sharded.iter().map(|(r, c)| (r.to_string(), *c)).collect();
        let sizes: BTreeMap<String, usize> =
            sizes.iter().map(|(r, n)| (r.to_string(), *n)).collect();
        let estimate = move |name: &str| sizes.get(name).copied().unwrap_or(0);
        plan_rules(
            &indexed,
            &ExchangeInput {
                sharded: &sharded,
                partitions,
                broadcast_max,
                estimate: &estimate,
            },
        )
    }

    fn strategy_of(plan: &ProgramExchangePlan, rule: usize, literal: usize) -> ExchangeStrategy {
        plan.rules[&rule]
            .literals
            .iter()
            .find(|l| l.literal == literal)
            .expect("literal classified")
            .strategy
    }

    #[test]
    fn co_partitioned_join_moves_nothing() {
        let plan = plan_source(
            "joined(X, Y, Z) <- orders(X, Y), users(X, Z).",
            &[("orders", 0), ("users", 0)],
            &[("orders", 1000), ("users", 1000)],
            4,
            8,
        )
        .unwrap();
        assert_eq!(strategy_of(&plan, 0, 0), ExchangeStrategy::CoPartitioned);
        assert_eq!(strategy_of(&plan, 0, 1), ExchangeStrategy::CoPartitioned);
        assert!(plan.shuffles.is_empty() && plan.broadcasts.is_empty());
        assert!(plan.partial.contains("joined"));
    }

    #[test]
    fn smaller_side_shuffles_to_the_larger_anchor() {
        let plan = plan_source(
            "joined(X, Y, Z) <- big(X, Y), small(Z, X).",
            &[("big", 0), ("small", 0)],
            &[("big", 100_000), ("small", 500)],
            4,
            8,
        )
        .unwrap();
        // `big` is partitioned on the join variable X; `small` is
        // partitioned on Z, so it rehashes its X column (1) to big's space.
        assert_eq!(strategy_of(&plan, 0, 0), ExchangeStrategy::CoPartitioned);
        assert_eq!(
            strategy_of(&plan, 0, 1),
            ExchangeStrategy::Shuffle { column: 1 }
        );
        assert_eq!(
            plan.shuffles.iter().collect::<Vec<_>>(),
            vec![&("small".to_string(), 1)]
        );
    }

    #[test]
    fn both_sides_rehash_when_neither_is_partitioned_on_the_join_column() {
        // The paper §7.2 shape: both tables partitioned on their first
        // attribute, joined on the second.
        let plan = plan_source(
            "joinresult(E1, E2, E3) <- tableA(E1, E2), tableB(E3, E2).",
            &[("tableA", 0), ("tableB", 0)],
            &[("tableA", 900), ("tableB", 800)],
            6,
            8,
        )
        .unwrap();
        assert_eq!(
            strategy_of(&plan, 0, 0),
            ExchangeStrategy::Shuffle { column: 1 }
        );
        assert_eq!(
            strategy_of(&plan, 0, 1),
            ExchangeStrategy::Shuffle { column: 1 }
        );
        assert_eq!(plan.summary.shuffles, 2);
    }

    #[test]
    fn tiny_relations_broadcast_instead_of_shuffling() {
        let plan = plan_source(
            "labeled(X, N) <- orders(X, R), region(R, N).",
            &[("orders", 0), ("region", 0)],
            &[("orders", 10_000), ("region", 12)],
            4,
            64,
        )
        .unwrap();
        assert_eq!(strategy_of(&plan, 0, 0), ExchangeStrategy::CoPartitioned);
        assert_eq!(strategy_of(&plan, 0, 1), ExchangeStrategy::Broadcast);
        assert!(plan.broadcasts.contains("region"));
    }

    #[test]
    fn negated_and_aggregated_sharded_literals_broadcast() {
        let plan = plan_source(
            "lonely(X) <- candidates(X), !orders(X, X).\n\
             total[] = C <- agg<< C = count(X) >> orders(X, _).",
            &[("orders", 0)],
            &[("orders", 10_000)],
            4,
            8,
        )
        .unwrap();
        assert_eq!(strategy_of(&plan, 0, 1), ExchangeStrategy::Broadcast);
        assert_eq!(strategy_of(&plan, 1, 0), ExchangeStrategy::Broadcast);
        // Broadcast-only rules derive complete heads on every member.
        assert!(!plan.partial.contains("lonely"));
        assert!(!plan.partial.contains("total"));
    }

    #[test]
    fn partiality_propagates_and_forces_downstream_broadcasts() {
        let plan = plan_source(
            "enriched(X, Y) <- orders(X, Y), users(Y, X).\n\
             final(X, R) <- enriched(X, Y), lookup(Y, R).",
            &[("orders", 0), ("users", 0), ("lookup", 0)],
            &[("orders", 1000), ("users", 1000), ("lookup", 1000)],
            4,
            8,
        )
        .unwrap();
        assert!(plan.partial.contains("enriched"));
        assert!(plan.partial.contains("final"));
        // `lookup` joins a partial relation whose tuples live anywhere, so
        // it must be fully replicated despite its size.
        assert_eq!(strategy_of(&plan, 1, 1), ExchangeStrategy::Broadcast);
    }

    #[test]
    fn deriving_into_a_sharded_relation_is_rejected() {
        let err = plan_source(
            "orders(X, Y) <- staged(X, Y).",
            &[("orders", 0)],
            &[("orders", 100)],
            4,
            8,
        )
        .unwrap_err();
        assert!(err.to_string().contains("EDB-only"), "{err}");
    }

    #[test]
    fn joining_two_partial_relations_is_rejected() {
        let err = plan_source(
            "a(X, Y) <- orders(X, Y), users(Y, X).\n\
             b(X, Y) <- users(X, Y), orders(Y, X).\n\
             broken(X) <- a(X, _), b(X, _).",
            &[("orders", 0), ("users", 0)],
            &[("orders", 1000), ("users", 1000)],
            4,
            8,
        )
        .unwrap_err();
        assert!(err.to_string().contains("partial relations"), "{err}");
    }

    #[test]
    fn aggregating_a_partial_relation_is_rejected() {
        let err = plan_source(
            "a(X, Y) <- orders(X, Y), users(Y, X).\n\
             n[] = C <- agg<< C = count(X) >> a(X, _).",
            &[("orders", 0), ("users", 0)],
            &[("orders", 1000), ("users", 1000)],
            4,
            8,
        )
        .unwrap_err();
        assert!(err.to_string().contains("incomplete extension"), "{err}");
    }

    #[test]
    fn classification_is_deterministic() {
        let source = "j(X, Y, Z) <- a(X, Y), b(Y, Z), c(Z, X).";
        let sharded = [("a", 0), ("b", 0), ("c", 0)];
        let sizes = [("a", 5000), ("b", 4000), ("c", 3000)];
        let first = plan_source(source, &sharded, &sizes, 6, 8).unwrap();
        for _ in 0..5 {
            let again = plan_source(source, &sharded, &sizes, 6, 8).unwrap();
            assert_eq!(format!("{:?}", first.rules), format!("{:?}", again.rules));
        }
    }
}
