//! Stratification of rule sets.
//!
//! Rules are grouped into strata so that negation is never evaluated over a
//! predicate that is still being derived.  The predicate dependency graph has
//! an edge `body-pred → head-pred` for every rule; the edge is *negative*
//! when the body occurrence is negated.  A program is stratifiable when no
//! negative edge lies inside a strongly connected component.
//!
//! Aggregation edges are treated as positive: recursive aggregates are
//! evaluated by recomputation inside their stratum (see
//! [`crate::eval::seminaive`]), which is what the path-vector use case needs.

use crate::ast::{Literal, Rule};
use crate::error::{DatalogError, Result};
use crate::eval::runtime_pred_name;
use crate::intern::{FnvMap, FnvSet};
use crate::udf::UdfRegistry;

/// An installed program's rules beside what evaluation asks of them on every
/// round, worked out once when the program is installed: the strata, each
/// split into its aggregate and non-aggregate rules, each rule's head
/// existentials, and how a retraction maintains each predicate.
#[derive(Debug, Clone, Default)]
pub struct RuleSet {
    rules: Vec<Rule>,
    strata: Vec<Stratum>,
    /// Every rule, split the same way (a deletion's forward step walks them
    /// all).
    all: Stratum,
    existentials: Vec<Existentials>,
    deletion: Deletion,
}

/// How a retraction treats the facts of one predicate (`eval::dred`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Upkeep {
    /// No rule derives it: a fact stays exactly while it is asserted.
    Base,
    /// Every rule deriving it runs backwards from a fact: the provers
    /// ([`Deletion::prover`]) whose instances can re-prove one.
    Proved(Vec<u32>),
    /// Some rule deriving it aggregates, mints entities, negates, or reads a
    /// predicate of this kind: a proof search cannot decide its facts, so one
    /// a deletion reaches goes without a check and the fixpoint re-run puts
    /// back what still holds.
    Rerun,
}

/// The predicates the rules mention, numbered, with what a retraction needs
/// to know of each.
#[derive(Debug, Clone, Default)]
pub(crate) struct Deletion {
    preds: Vec<String>,
    ids: FnvMap<String, u32>,
    /// Per rule, per body literal: the predicate of a positive atom.
    body: Vec<Vec<Option<u32>>>,
    upkeep: Vec<Upkeep>,
    /// Whether some rule negates the predicate.
    negated: Vec<bool>,
    /// Every `(rule, head atom)` an [`Upkeep::Proved`] names.
    provers: Vec<(usize, usize)>,
}

impl Deletion {
    fn of(rules: &[Rule], existentials: &[Existentials]) -> Deletion {
        let mut deletion = Deletion::default();
        let number = |pred: &crate::ast::PredRef, deletion: &mut Deletion| {
            let name = runtime_pred_name(pred).ok()?;
            if let Some(&id) = deletion.ids.get(&*name) {
                return Some(id);
            }
            let id = deletion.preds.len() as u32;
            deletion.ids.insert(name.to_string(), id);
            deletion.preds.push(name.into_owned());
            deletion.negated.push(false);
            Some(id)
        };
        let mut heads: Vec<Vec<Option<u32>>> = Vec::with_capacity(rules.len());
        for rule in rules {
            heads.push(
                rule.head
                    .iter()
                    .map(|atom| number(&atom.pred, &mut deletion))
                    .collect(),
            );
            let mut body = Vec::with_capacity(rule.body.len());
            for literal in &rule.body {
                body.push(match literal {
                    Literal::Pos(atom) => number(&atom.pred, &mut deletion),
                    Literal::Neg(atom) => {
                        if let Some(id) = number(&atom.pred, &mut deletion) {
                            deletion.negated[id as usize] = true;
                        }
                        None
                    }
                    Literal::Cmp(..) => None,
                });
            }
            deletion.body.push(body);
        }
        // A rule runs backwards when it only joins, compares and calls
        // functions, and every predicate it reads is decided the same way:
        // the greatest such set, so a recursive component of proof-searched
        // rules stays proof-searched.
        let joins_only: Vec<bool> = rules
            .iter()
            .zip(existentials)
            .enumerate()
            .map(|(index, (rule, existentials))| {
                rule.agg.is_none()
                    && existentials.head.is_empty()
                    && heads[index].iter().all(Option::is_some)
                    && rule.body.iter().zip(&deletion.body[index]).all(|pair| {
                        matches!(pair, (Literal::Pos(_), Some(_)) | (Literal::Cmp(..), _))
                    })
            })
            .collect();
        let n = deletion.preds.len();
        let mut rerun = vec![false; n];
        loop {
            let mut changed = false;
            for (index, rule_heads) in heads.iter().enumerate() {
                let mut reads = deletion.body[index].iter().flatten();
                if joins_only[index] && reads.all(|&id| !rerun[id as usize]) {
                    continue;
                }
                for &id in rule_heads.iter().flatten() {
                    changed |= !std::mem::replace(&mut rerun[id as usize], true);
                }
            }
            if !changed {
                break;
            }
        }
        deletion.upkeep = vec![Upkeep::Base; n];
        for (index, rule_heads) in heads.iter().enumerate() {
            for (head, &id) in rule_heads.iter().enumerate() {
                let Some(id) = id else { continue };
                if rerun[id as usize] {
                    deletion.upkeep[id as usize] = Upkeep::Rerun;
                    continue;
                }
                let prover = deletion.provers.len() as u32;
                deletion.provers.push((index, head));
                match &mut deletion.upkeep[id as usize] {
                    Upkeep::Proved(provers) => provers.push(prover),
                    upkeep => *upkeep = Upkeep::Proved(vec![prover]),
                }
            }
        }
        deletion
    }

    /// The number of `pred`, if a rule mentions it.
    pub(crate) fn id(&self, pred: &str) -> Option<u32> {
        self.ids.get(pred).copied()
    }

    /// How many predicates are numbered.
    pub(crate) fn len(&self) -> usize {
        self.preds.len()
    }

    pub(crate) fn name(&self, id: u32) -> &str {
        &self.preds[id as usize]
    }

    /// The predicate of body literal `literal` of `rule`, if it is a
    /// positive atom.
    pub(crate) fn body_pred(&self, rule: usize, literal: usize) -> Option<u32> {
        self.body[rule][literal]
    }

    pub(crate) fn upkeep(&self, id: u32) -> &Upkeep {
        &self.upkeep[id as usize]
    }

    pub(crate) fn negated(&self, id: u32) -> bool {
        self.negated[id as usize]
    }

    /// The `(rule, head atom)` of prover `prover`.
    pub(crate) fn prover(&self, prover: u32) -> (usize, usize) {
        self.provers[prover as usize]
    }

    /// How many provers there are.
    pub(crate) fn prover_count(&self) -> usize {
        self.provers.len()
    }
}

/// The rules of one stratum, by how a round evaluates them.
#[derive(Debug, Clone, Default)]
pub(crate) struct Stratum {
    /// Rules without aggregation: driven by deltas, in index order.
    pub(crate) normal: Vec<usize>,
    /// Aggregation rules: recomputed from their full bodies.
    pub(crate) aggregates: Vec<usize>,
}

impl Stratum {
    fn split(rules: &[Rule], indices: impl IntoIterator<Item = usize>) -> Stratum {
        let (aggregates, normal) = indices
            .into_iter()
            .partition(|&index| rules[index].agg.is_some());
        Stratum { normal, aggregates }
    }
}

/// A rule's head-existential variables ([`Rule::head_existentials`]) and the
/// sorted body variables whose binding keys the entities it mints.  Both
/// empty for a rule without head existentials.
#[derive(Debug, Clone, Default)]
pub(crate) struct Existentials {
    pub(crate) head: Vec<String>,
    pub(crate) memo_key: Vec<String>,
}

impl Existentials {
    fn of(rule: &Rule) -> Existentials {
        let head = rule.head_existentials();
        if head.is_empty() {
            return Existentials::default();
        }
        let mut memo_key = Vec::new();
        for literal in &rule.body {
            literal.collect_vars(&mut memo_key);
        }
        memo_key.sort();
        Existentials { head, memo_key }
    }
}

impl RuleSet {
    /// `rules` grouped by `strata`, which [`stratify_with`] computed for
    /// them.
    pub fn new(rules: Vec<Rule>, strata: Vec<Vec<usize>>) -> RuleSet {
        let strata = strata
            .into_iter()
            .map(|stratum| Stratum::split(&rules, stratum))
            .collect();
        let existentials: Vec<Existentials> = rules.iter().map(Existentials::of).collect();
        RuleSet {
            all: Stratum::split(&rules, 0..rules.len()),
            deletion: Deletion::of(&rules, &existentials),
            existentials,
            strata,
            rules,
        }
    }

    /// Stratify `rules` ([`stratify_with`]) and keep the result.
    pub fn stratified(
        rules: Vec<Rule>,
        udfs: &UdfRegistry,
        allow_recursive_negation: bool,
    ) -> Result<RuleSet> {
        let strata = stratify_with(&rules, udfs, allow_recursive_negation)?;
        Ok(RuleSet::new(rules, strata))
    }

    /// The rules, in install order; every rule index refers to this slice.
    pub fn rules(&self) -> &[Rule] {
        &self.rules
    }

    /// The strata in evaluation order.
    pub(crate) fn strata(&self) -> &[Stratum] {
        &self.strata
    }

    /// Every rule, split like a stratum.
    pub(crate) fn all(&self) -> &Stratum {
        &self.all
    }

    /// What rule `index` mints entities for.
    pub(crate) fn existentials(&self, index: usize) -> &Existentials {
        &self.existentials[index]
    }

    /// The predicates the rules mention and how a retraction maintains each.
    pub(crate) fn deletion(&self) -> &Deletion {
        &self.deletion
    }
}

/// Compute evaluation strata for `rules`.
///
/// The result is a list of strata in evaluation order; each stratum is a list
/// of indices into `rules`.  Predicates never appearing in a rule head (pure
/// EDB predicates) impose no ordering.  UDF "predicates" are ignored — they
/// are functions, not relations.
pub fn stratify(rules: &[Rule], udfs: &UdfRegistry) -> Result<Vec<Vec<usize>>> {
    stratify_with(rules, udfs, false)
}

/// Like [`stratify`], but optionally permitting negative edges inside a
/// strongly connected component.
///
/// Some distributed protocols — notably the paper's path-vector use case,
/// whose advertisement rule negates `pathlink` while `pathlink` is itself fed
/// by the `says`-mediated import rule — are only *locally* stratified: the
/// negated tuples always concern a different node's data, so evaluating the
/// negation against the current state within the stratum fixpoint yields the
/// intended protocol behaviour.  With `allow_recursive_negation` such
/// programs are accepted; the default remains strict.
pub fn stratify_with(
    rules: &[Rule],
    udfs: &UdfRegistry,
    allow_recursive_negation: bool,
) -> Result<Vec<Vec<usize>>> {
    // 1. Collect the dependency graph over predicates derived by some rule.
    let mut head_preds: FnvSet<String> = FnvSet::default();
    for rule in rules {
        for atom in &rule.head {
            head_preds.insert(runtime_pred_name(&atom.pred)?.into_owned());
        }
    }

    // edges: (from, to, negative)
    let mut edges: Vec<(String, String, bool)> = Vec::new();
    for rule in rules {
        // Predicates derived together by a multi-head rule must share a
        // stratum (the rule fires once and populates all of them), so link
        // them with mutual positive edges.
        for first in &rule.head {
            for second in &rule.head {
                let a = runtime_pred_name(&first.pred)?;
                let b = runtime_pred_name(&second.pred)?;
                if a != b {
                    edges.push((a.into_owned(), b.into_owned(), false));
                }
            }
        }
        for head in &rule.head {
            let head_pred = runtime_pred_name(&head.pred)?;
            for literal in &rule.body {
                let (atom, negative) = match literal {
                    Literal::Pos(a) => (a, false),
                    Literal::Neg(a) => (a, true),
                    Literal::Cmp(..) => continue,
                };
                let body_pred = runtime_pred_name(&atom.pred)?;
                if udfs.is_udf(&body_pred) {
                    continue;
                }
                if !head_preds.contains(&*body_pred) {
                    // EDB-only predicate: no ordering needed, but a negated
                    // EDB predicate is always safe.
                    continue;
                }
                edges.push((body_pred.into_owned(), head_pred.to_string(), negative));
            }
        }
    }

    // 2. Strongly connected components via iterative Tarjan.
    let mut nodes: Vec<String> = head_preds.iter().cloned().collect();
    nodes.sort();
    let index_of: FnvMap<String, usize> = nodes
        .iter()
        .enumerate()
        .map(|(i, n)| (n.clone(), i))
        .collect();
    let mut adjacency: Vec<Vec<usize>> = vec![Vec::new(); nodes.len()];
    for (from, to, _) in &edges {
        adjacency[index_of[from]].push(index_of[to]);
    }
    let scc_of = tarjan_scc(&adjacency);
    let scc_count = scc_of.iter().copied().max().map_or(0, |m| m + 1);

    // 3. Negative edges inside an SCC make the program non-stratifiable
    //    (unless the caller opted into locally-stratified evaluation).
    if !allow_recursive_negation {
        for (from, to, negative) in &edges {
            if *negative && scc_of[index_of[from]] == scc_of[index_of[to]] {
                return Err(DatalogError::Stratification(format!(
                    "negation of {from} is recursive with {to}; the program is not stratifiable"
                )));
            }
        }
    }

    // 4. Assign each SCC a stratum level: longest path over the condensation,
    //    where negative edges force a strict increase.
    let mut level: Vec<usize> = vec![0; scc_count];
    // Iterate to fixpoint; the condensation is a DAG so |SCC| rounds suffice.
    for _ in 0..=scc_count {
        let mut changed = false;
        for (from, to, negative) in &edges {
            let from_scc = scc_of[index_of[from]];
            let to_scc = scc_of[index_of[to]];
            if from_scc == to_scc {
                continue;
            }
            let required = level[from_scc] + usize::from(*negative);
            if level[to_scc] < required {
                level[to_scc] = required;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    // 5. Order SCCs: primarily by stratum level, secondarily by topological
    //    order (approximated by longest-path level over *all* edges).
    let mut topo_level: Vec<usize> = vec![0; scc_count];
    for _ in 0..=scc_count {
        let mut changed = false;
        for (from, to, _) in &edges {
            let from_scc = scc_of[index_of[from]];
            let to_scc = scc_of[index_of[to]];
            if from_scc == to_scc {
                continue;
            }
            if topo_level[to_scc] < topo_level[from_scc] + 1 {
                topo_level[to_scc] = topo_level[from_scc] + 1;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    // 6. A rule belongs to the stratum of its head predicates (max, if it has
    //    several heads).
    let mut rule_keys: Vec<(usize, usize, usize)> = Vec::with_capacity(rules.len());
    for (rule_index, rule) in rules.iter().enumerate() {
        let mut key = (0usize, 0usize);
        for head in &rule.head {
            let pred = runtime_pred_name(&head.pred)?;
            let scc = scc_of[index_of[&*pred]];
            key = key.max((level[scc], topo_level[scc]));
        }
        rule_keys.push((key.0, key.1, rule_index));
    }

    // Group rules by (level, topo_level) in ascending order.
    let mut distinct_keys: Vec<(usize, usize)> =
        rule_keys.iter().map(|(a, b, _)| (*a, *b)).collect();
    distinct_keys.sort();
    distinct_keys.dedup();
    let mut strata: Vec<Vec<usize>> = Vec::with_capacity(distinct_keys.len());
    for key in distinct_keys {
        let mut group: Vec<usize> = rule_keys
            .iter()
            .filter(|(a, b, _)| (*a, *b) == key)
            .map(|(_, _, i)| *i)
            .collect();
        group.sort();
        strata.push(group);
    }
    Ok(strata)
}

/// Iterative Tarjan strongly-connected-components algorithm.
/// Returns the SCC id of each node; ids are assigned in reverse topological
/// completion order (which is irrelevant for callers — only equality matters).
fn tarjan_scc(adjacency: &[Vec<usize>]) -> Vec<usize> {
    #[derive(Clone)]
    struct NodeState {
        index: Option<usize>,
        lowlink: usize,
        on_stack: bool,
    }
    let n = adjacency.len();
    let mut state = vec![
        NodeState {
            index: None,
            lowlink: 0,
            on_stack: false
        };
        n
    ];
    let mut stack: Vec<usize> = Vec::new();
    let mut scc_of = vec![usize::MAX; n];
    let mut next_index = 0usize;
    let mut scc_count = 0usize;

    // Explicit DFS stack of (node, next child position).
    for start in 0..n {
        if state[start].index.is_some() {
            continue;
        }
        let mut dfs: Vec<(usize, usize)> = vec![(start, 0)];
        while let Some(&mut (v, ref mut child)) = dfs.last_mut() {
            if *child == 0 {
                state[v].index = Some(next_index);
                state[v].lowlink = next_index;
                next_index += 1;
                stack.push(v);
                state[v].on_stack = true;
            }
            if *child < adjacency[v].len() {
                let w = adjacency[v][*child];
                *child += 1;
                if state[w].index.is_none() {
                    dfs.push((w, 0));
                } else if state[w].on_stack {
                    state[v].lowlink = state[v].lowlink.min(state[w].index.expect("indexed"));
                }
            } else {
                // Finished v.
                if state[v].lowlink == state[v].index.expect("indexed") {
                    loop {
                        let w = stack.pop().expect("stack non-empty");
                        state[w].on_stack = false;
                        scc_of[w] = scc_count;
                        if w == v {
                            break;
                        }
                    }
                    scc_count += 1;
                }
                dfs.pop();
                if let Some(&mut (parent, _)) = dfs.last_mut() {
                    state[parent].lowlink = state[parent].lowlink.min(state[v].lowlink);
                }
            }
        }
    }
    scc_of
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;

    fn strata_of(source: &str) -> Result<Vec<Vec<usize>>> {
        let program = parse_program(source).unwrap();
        let rules: Vec<Rule> = program.rules().cloned().collect();
        stratify(&rules, &UdfRegistry::new())
    }

    #[test]
    fn single_stratum_for_recursive_rules() {
        let strata = strata_of(
            "reachable(X, Y) <- link(X, Y).\n\
             reachable(X, Y) <- link(X, Z), reachable(Z, Y).",
        )
        .unwrap();
        assert_eq!(strata, vec![vec![0, 1]]);
    }

    #[test]
    fn negation_forces_later_stratum() {
        let strata = strata_of(
            "reachable(X, Y) <- link(X, Y).\n\
             reachable(X, Y) <- link(X, Z), reachable(Z, Y).\n\
             unreachable(X, Y) <- node(X), node(Y), !reachable(X, Y).",
        )
        .unwrap();
        assert_eq!(strata.len(), 2);
        assert_eq!(strata[0], vec![0, 1]);
        assert_eq!(strata[1], vec![2]);
    }

    #[test]
    fn cyclic_negation_rejected() {
        let err = strata_of(
            "p(X) <- base(X), !q(X).\n\
             q(X) <- base(X), !p(X).",
        )
        .unwrap_err();
        assert!(matches!(err, DatalogError::Stratification(_)));
    }

    #[test]
    fn cyclic_negation_allowed_when_opted_in() {
        let program = parse_program(
            "p(X) <- base(X), !q(X).\n\
             q(X) <- imported(X), p(X).",
        )
        .unwrap();
        let rules: Vec<Rule> = program.rules().cloned().collect();
        assert!(stratify(&rules, &UdfRegistry::new()).is_err());
        let strata = stratify_with(&rules, &UdfRegistry::new(), true).unwrap();
        assert_eq!(strata.iter().map(|s| s.len()).sum::<usize>(), 2);
    }

    #[test]
    fn negation_over_edb_is_fine_in_same_stratum() {
        let strata = strata_of("p(X) <- base(X), !blocked(X).").unwrap();
        assert_eq!(strata, vec![vec![0]]);
    }

    #[test]
    fn derived_chain_orders_strata() {
        let strata = strata_of(
            "a(X) <- e(X).\n\
             b(X) <- a(X).\n\
             c(X) <- b(X), !a(X).",
        )
        .unwrap();
        // a before b before c; the negative edge only forces c after a, but
        // the positive chain orders all three.
        assert_eq!(strata.len(), 3);
        assert_eq!(strata[0], vec![0]);
        assert_eq!(strata[1], vec![1]);
        assert_eq!(strata[2], vec![2]);
    }

    #[test]
    fn aggregation_cycle_allowed() {
        // path depends on advert (import), advert depends on bestcost,
        // bestcost aggregates path: a cycle through an aggregate, which is
        // accepted and evaluated by recomputation.
        let strata = strata_of(
            "path(P, X, Y, C) <- advert(P, X, Y, C).\n\
             advert(P, X, Y, C) <- path(P, X, Y, C), bestcost(X, Y, C).\n\
             bestcost(X, Y, C) <- agg<< C = min(Cx) >> path(P, X, Y, Cx).",
        )
        .unwrap();
        assert_eq!(strata.len(), 1);
        assert_eq!(strata[0], vec![0, 1, 2]);
    }

    #[test]
    fn udf_predicates_ignored() {
        let mut udfs = UdfRegistry::new();
        udfs.register("sha1", |_| Ok(vec![]));
        let program = parse_program("h(X, D) <- item(X), sha1(X, D).").unwrap();
        let rules: Vec<Rule> = program.rules().cloned().collect();
        let strata = stratify(&rules, &udfs).unwrap();
        assert_eq!(strata, vec![vec![0]]);
    }

    #[test]
    fn tarjan_handles_self_loops_and_chains() {
        // 0 -> 1 -> 2, 2 -> 1 (cycle between 1 and 2), 3 isolated
        let adjacency = vec![vec![1], vec![2], vec![1], vec![]];
        let scc = tarjan_scc(&adjacency);
        assert_eq!(scc[1], scc[2]);
        assert_ne!(scc[0], scc[1]);
        assert_ne!(scc[3], scc[1]);
    }
}
