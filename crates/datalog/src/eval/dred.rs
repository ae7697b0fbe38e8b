//! Incremental deletion via over-delete / re-derive (DRed).
//!
//! LogicBlox maintains installed rules incrementally with the DRed algorithm
//! of Gupta, Mumick & Subrahmanian (paper §2).  When base facts are removed,
//! DRed first *over-deletes*: it removes every derived tuple that has at
//! least one derivation using a deleted tuple.  It then *re-derives*: any
//! over-deleted tuple with a surviving alternative derivation is put back by
//! running the normal fixpoint over the remaining facts.
//!
//! Both phases run through the fixpoint's own machinery (DESIGN.md §8):
//! each over-deletion `(rule, literal)` combination is handed to
//! `Evaluator::evaluate_round` with the deleted-tuple frontier as its delta
//! set — batch executor where the rule shape allows, tuple path otherwise —
//! and re-derivation is an ordinary fixpoint run.

use super::runtime_pred_name;
use super::seminaive::{delta_combos, Commit, Derivation, Evaluator, FactDelta};
use crate::error::Result;
use crate::strata::RuleSet;
use crate::value::Tuple;

impl<'a> Evaluator<'a> {
    /// Delete `base_deletions` and incrementally maintain all derived
    /// relations.  Fills the deletion counters of the returned [`Commit`];
    /// its deltas are the caller's to read off the journal.
    ///
    /// `edb_facts` is the set of explicitly-asserted facts per predicate;
    /// tuples in it are never over-deleted (they have a non-rule derivation).
    pub fn delete_with_dred(
        &mut self,
        program: &RuleSet,
        base_deletions: &[(String, Tuple)],
        edb_facts: &FactDelta,
    ) -> Result<Commit> {
        let rules = program.rules();
        let mut stats = Commit::default();

        // Over-deletion joins run against the pre-deletion database, as in
        // the standard formulation of DRed.  The live relations *are* that
        // database (with the indexes the plans probe already built), so the
        // whole deletion closure is computed first and removed afterwards.
        // `removal_order` keeps discovery order so the removals — and with
        // them the relations' row order — are deterministic.
        let mut deleted = FactDelta::default();
        let mut removal_order: Vec<(String, Tuple)> = Vec::new();

        // 1. The base facts actually stored.
        for (pred, tuple) in base_deletions {
            if self.relations.get(pred).is_some_and(|r| r.contains(tuple))
                && deleted
                    .entry(pred.clone())
                    .or_default()
                    .insert(tuple.clone())
            {
                stats.base_deleted += 1;
                removal_order.push((pred.clone(), tuple.clone()));
            }
        }
        if stats.base_deleted == 0 {
            return Ok(stats);
        }

        // 2. Over-delete: propagate deletions through every rule until no new
        //    candidate deletions appear.  A candidate is any head tuple with a
        //    derivation that uses a deleted tuple.
        let mut frontier = deleted.clone();
        while frontier.values().any(|set| !set.is_empty()) {
            let mut next_frontier = FactDelta::default();
            // Stored tuples of `head_pred` with a derivation through the
            // frontier join the closure, unless explicitly asserted (a
            // non-rule derivation) or in it already.  A tuple typically has
            // many such derivations: membership is tested before cloning.
            let mut over_delete = |head_pred: &str, stored: &mut dyn Iterator<Item = &Tuple>| {
                let asserted = edb_facts.get(head_pred);
                let gone = deleted.entry(head_pred.to_string()).or_default();
                let next = next_frontier.entry(head_pred.to_string()).or_default();
                for tuple in stored {
                    if asserted.is_some_and(|set| set.contains(tuple)) || gone.contains(tuple) {
                        continue;
                    }
                    gone.insert(tuple.clone());
                    next.insert(tuple.clone());
                    removal_order.push((head_pred.to_string(), tuple.clone()));
                    stats.over_deleted += 1;
                }
            };
            // Each rule with a positive literal over the frontier, that
            // literal pinned to the deleted tuples: its heads are the
            // candidates.  Existential heads recall their memoized entities,
            // exactly as in derivation.
            for combo in delta_combos(rules, &program.all().normal, &frontier)? {
                let derivation = self.evaluate_round(program, &[combo], &frontier)?.pop();
                let relations = &*self.relations;
                match derivation.expect("one derivation per combination") {
                    Derivation::Values(derived) => {
                        for run in derived.chunk_by(|a, b| a.0 == b.0) {
                            let head_pred = &run[0].0;
                            if let Some(relation) = relations.get(head_pred) {
                                let tuples = run.iter().map(|(_, tuple)| tuple);
                                let mut stored = tuples.filter(|tuple| relation.contains(tuple));
                                over_delete(head_pred, &mut stored);
                            }
                        }
                    }
                    // Id rows are looked up as they are: only a tuple that
                    // joins the closure is copied out.
                    Derivation::Ids(derived) => {
                        for (head_pred, batch) in &derived {
                            if let Some(relation) = relations.get(head_pred) {
                                let mut stored =
                                    batch.iter().filter_map(|row| relation.find_ids(row));
                                over_delete(head_pred, &mut stored);
                            }
                        }
                    }
                }
            }
            // Aggregation rules cannot be head-instantiated from a body
            // binding (the aggregate result is not a body variable); since
            // they are recomputed from their full bodies on every stratum
            // iteration, DRed may over-approximate instead: a deletion
            // reaching the body invalidates every stored tuple of the head
            // predicate, and re-derivation recomputes the surviving groups.
            for &rule_index in &program.all().aggregates {
                if delta_combos(rules, &[rule_index], &frontier)?.is_empty() {
                    continue;
                }
                for atom in &rules[rule_index].head {
                    let head_pred = runtime_pred_name(&atom.pred)?;
                    if let Some(relation) = self.relations.get(&*head_pred) {
                        over_delete(&head_pred, &mut relation.iter());
                    }
                }
            }
            frontier = next_frontier;
        }

        // 3. Remove the closure.
        for (pred, tuple) in removal_order {
            if let Some(relation) = self.relations.get_mut(&pred) {
                relation.remove(&tuple);
            }
            self.journal.record_removed(&pred, tuple);
        }

        // 4. Re-derive: running the ordinary fixpoint over the remaining facts
        //    re-inserts every over-deleted tuple that still has a derivation.
        let before: usize = self.relations.values().map(|r| r.len()).sum();
        self.run(program)?;
        let after: usize = self.relations.values().map(|r| r.len()).sum();
        stats.rederived = after.saturating_sub(before);
        Ok(stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Rule;
    use crate::eval::plan::{PlanCache, PlanStats};
    use crate::eval::seminaive::ExistentialMemo;
    use crate::eval::{EvalConfig, EvalJournal};
    use crate::intern::Interner;
    use crate::parser::parse_program;
    use crate::relation::{Relation, Relations};
    use crate::schema::Schema;
    use crate::strata::stratify;
    use crate::udf::UdfRegistry;
    use crate::value::Value;
    use std::sync::Arc;

    struct Fixture {
        program: RuleSet,
        schema: Schema,
        udfs: UdfRegistry,
        relations: Relations,
        interner: Arc<Interner>,
        edb: FactDelta,
        entity_counter: u64,
        memo: ExistentialMemo,
        plan_cache: PlanCache,
        plan_stats: PlanStats,
    }

    impl Fixture {
        fn new(source: &str, facts: &[(&str, Vec<Value>)]) -> Self {
            let program = parse_program(source).unwrap();
            let mut schema = Schema::new();
            schema.absorb_program(&program).unwrap();
            let rules: Vec<Rule> = program.rules().cloned().collect();
            let udfs = UdfRegistry::new();
            let strata = stratify(&rules, &udfs).unwrap();
            let interner = Arc::new(Interner::new());
            let mut relations = Relations::default();
            let mut edb = FactDelta::default();
            for (pred, tuple) in facts {
                relations
                    .entry(pred.to_string())
                    .or_insert_with(|| Relation::with_interner(*pred, None, Arc::clone(&interner)))
                    .insert(tuple.clone())
                    .unwrap();
                edb.entry(pred.to_string())
                    .or_default()
                    .insert(tuple.clone());
            }
            let mut fixture = Fixture {
                program: RuleSet::new(rules, strata),
                schema,
                udfs,
                relations,
                interner,
                edb,
                entity_counter: 0,
                memo: ExistentialMemo::default(),
                plan_cache: PlanCache::new(),
                plan_stats: PlanStats::default(),
            };
            fixture.run_fixpoint();
            fixture
        }

        fn run_fixpoint(&mut self) {
            let config = EvalConfig::default();
            let mut evaluator = Evaluator {
                relations: &mut self.relations,
                schema: &self.schema,
                udfs: &self.udfs,
                config: &config,
                entity_counter: &mut self.entity_counter,
                existential_memo: &mut self.memo,
                plan_cache: &mut self.plan_cache,
                plan_stats: &self.plan_stats,
                interner: &self.interner,
                journal: &mut EvalJournal::default(),
            };
            evaluator.run(&self.program).unwrap();
        }

        fn delete(&mut self, pred: &str, tuple: Vec<Value>) -> Commit {
            let config = EvalConfig::default();
            let mut evaluator = Evaluator {
                relations: &mut self.relations,
                schema: &self.schema,
                udfs: &self.udfs,
                config: &config,
                entity_counter: &mut self.entity_counter,
                existential_memo: &mut self.memo,
                plan_cache: &mut self.plan_cache,
                plan_stats: &self.plan_stats,
                interner: &self.interner,
                journal: &mut EvalJournal::default(),
            };
            // Keep the EDB bookkeeping in sync.
            self.edb.get_mut(pred).map(|set| set.remove(&tuple));
            evaluator
                .delete_with_dred(&self.program, &[(pred.to_string(), tuple)], &self.edb)
                .unwrap()
        }

        fn contains(&self, pred: &str, tuple: &[Value]) -> bool {
            self.relations.get(pred).is_some_and(|r| r.contains(tuple))
        }
    }

    fn s(v: &str) -> Value {
        Value::str(v)
    }

    #[test]
    fn deleting_a_link_removes_dependent_paths() {
        let mut fixture = Fixture::new(
            "reachable(X, Y) <- link(X, Y).\n\
             reachable(X, Y) <- link(X, Z), reachable(Z, Y).",
            &[
                ("link", vec![s("a"), s("b")]),
                ("link", vec![s("b"), s("c")]),
            ],
        );
        assert!(fixture.contains("reachable", &[s("a"), s("c")]));
        let stats = fixture.delete("link", vec![s("b"), s("c")]);
        assert_eq!(stats.base_deleted, 1);
        assert!(
            stats.over_deleted >= 2,
            "a->c and b->c must be over-deleted"
        );
        assert!(!fixture.contains("reachable", &[s("a"), s("c")]));
        assert!(!fixture.contains("reachable", &[s("b"), s("c")]));
        assert!(fixture.contains("reachable", &[s("a"), s("b")]));
    }

    #[test]
    fn alternative_derivations_are_rederived() {
        // Two routes from a to c; deleting one keeps a->c reachable.
        let mut fixture = Fixture::new(
            "reachable(X, Y) <- link(X, Y).\n\
             reachable(X, Y) <- link(X, Z), reachable(Z, Y).",
            &[
                ("link", vec![s("a"), s("b")]),
                ("link", vec![s("b"), s("c")]),
                ("link", vec![s("a"), s("d")]),
                ("link", vec![s("d"), s("c")]),
            ],
        );
        assert!(fixture.contains("reachable", &[s("a"), s("c")]));
        let stats = fixture.delete("link", vec![s("b"), s("c")]);
        assert!(
            fixture.contains("reachable", &[s("a"), s("c")]),
            "alternative path via d survives"
        );
        assert!(!fixture.contains("reachable", &[s("b"), s("c")]));
        assert!(stats.rederived >= 1);
    }

    #[test]
    fn explicitly_asserted_facts_survive_overdeletion() {
        // c is both derived and explicitly asserted.
        let mut fixture = Fixture::new(
            "c(X) <- a(X).\n",
            &[("a", vec![s("v")]), ("c", vec![s("v")])],
        );
        let stats = fixture.delete("a", vec![s("v")]);
        assert_eq!(stats.base_deleted, 1);
        assert!(
            fixture.contains("c", &[s("v")]),
            "explicit fact must survive"
        );
    }

    #[test]
    fn deleting_nonexistent_fact_is_a_noop() {
        let mut fixture = Fixture::new(
            "reachable(X, Y) <- link(X, Y).",
            &[("link", vec![s("a"), s("b")])],
        );
        let stats = fixture.delete("link", vec![s("x"), s("y")]);
        assert_eq!(stats, Commit::default());
        assert!(fixture.contains("reachable", &[s("a"), s("b")]));
    }

    #[test]
    fn retraction_recomputes_aggregates() {
        let mut fixture = Fixture::new(
            "total[X] = S <- agg<< S = sum(Y) >> e0(X, Y).",
            &[
                ("e0", vec![Value::Int(1), Value::Int(2)]),
                ("e0", vec![Value::Int(1), Value::Int(3)]),
                ("e0", vec![Value::Int(2), Value::Int(5)]),
            ],
        );
        assert!(fixture.contains("total", &[Value::Int(1), Value::Int(5)]));
        let stats = fixture.delete("e0", vec![Value::Int(1), Value::Int(3)]);
        assert_eq!(stats.base_deleted, 1);
        assert!(
            fixture.contains("total", &[Value::Int(1), Value::Int(2)]),
            "group 1 recomputed from the surviving facts"
        );
        assert!(
            fixture.contains("total", &[Value::Int(2), Value::Int(5)]),
            "untouched group re-derived"
        );
        assert!(!fixture.contains("total", &[Value::Int(1), Value::Int(5)]));
        // Deleting a group's last fact removes its aggregate entirely.
        fixture.delete("e0", vec![Value::Int(1), Value::Int(2)]);
        assert!(!fixture.contains("total", &[Value::Int(1), Value::Int(2)]));
        assert!(fixture.contains("total", &[Value::Int(2), Value::Int(5)]));
    }

    #[test]
    fn incremental_matches_recompute_from_scratch() {
        let edges = [
            ("a", "b"),
            ("b", "c"),
            ("c", "d"),
            ("a", "d"),
            ("d", "e"),
            ("b", "e"),
        ];
        let facts: Vec<(&str, Vec<Value>)> = edges
            .iter()
            .map(|(x, y)| ("link", vec![s(x), s(y)]))
            .collect();
        let mut incremental = Fixture::new(
            "reachable(X, Y) <- link(X, Y).\n\
             reachable(X, Y) <- link(X, Z), reachable(Z, Y).",
            &facts,
        );
        incremental.delete("link", vec![s("b"), s("c")]);

        let remaining: Vec<(&str, Vec<Value>)> = edges
            .iter()
            .filter(|(x, y)| !(*x == "b" && *y == "c"))
            .map(|(x, y)| ("link", vec![s(x), s(y)]))
            .collect();
        let fresh = Fixture::new(
            "reachable(X, Y) <- link(X, Y).\n\
             reachable(X, Y) <- link(X, Z), reachable(Z, Y).",
            &remaining,
        );
        let a: Vec<Tuple> = incremental.relations["reachable"].sorted();
        let b: Vec<Tuple> = fresh.relations["reachable"].sorted();
        assert_eq!(a, b);
    }
}
