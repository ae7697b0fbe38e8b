//! The path-vector routing protocol use case (paper §7.1).
//!
//! A path-vector protocol is a distributed all-pairs-shortest-path
//! computation: links (paths of length one) are joined with known paths to
//! form longer paths, which are advertised — via `says` — to neighbours
//! together with their full hop composition (`pathlink`), so that nodes can
//! apply policy to the paths they accept.
//!
//! One behaviour of the paper's listing is worth calling out: a path entity
//! `P` can be advertised to the same node along two different branches, and
//! the second arrival then proposes a different `pathlink[P, H1]` composition
//! (or a different cost for `path[P, Src, Dst]`).  Under SecureBlox's
//! transactional semantics that batch violates the functional dependency and
//! rolls back — the route is unaffected because the first composition is
//! already installed.  The paper's footnote 4 acknowledges the same
//! modelling wrinkle.  Such rollbacks are reported separately from security
//! rejections as `DeploymentReport::conflicting_batches`
//! (`rejected_batches` stays zero in a benign run).

use crate::policy::SecurityConfig;
use crate::runtime::engine::{Deployment, DeploymentConfig, DeploymentReport, NodeSpec};
use crate::runtime::reactor::ReactorConfig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use secureblox_datalog::error::Result;
use secureblox_datalog::value::Value;
use secureblox_net::LatencyModel;

/// The DatalogLB program for the path-vector protocol, as in the paper's
/// §7.1 listing (adapted to explicit node identifiers; see DESIGN.md).
pub fn app_source() -> String {
    r#"
    // Schema.
    pathvar(P) -> .
    link(N1, N2) -> node(N1), node(N2).
    path[P, Src, Dst] = C -> pathvar(P), node(Src), node(Dst), int[32](C).
    pathlink[P, H1] = H2 -> pathvar(P), node(H1), node(H2).
    bestcost[Src, Dst] = C -> node(Src), node(Dst), int[32](C).
    principal_node[U] = N -> principal(U), node(N).

    // The predicates exchanged between principals.
    exportable(`path).
    exportable(`pathlink).

    // Base case: a link from me to N is a path of cost one.
    pathvar(P),
    path[P, Me, N] = 1,
    pathlink[P, Me] = N
      <- link(Me, N),
         principal_node[self[]] = Me.

    // Every path key appearing locally names a path entity (imported paths
    // arrive before their pathvar membership is re-established).
    pathvar(P) <- path[P, Src, Dst] = C.
    pathvar(P) <- pathlink[P, H1] = H2.

    // Advertise best paths to each neighbour that is not already on the path,
    // extending the path by the link from the neighbour to me.
    says[`path](self[], U, P, N, N2, C + 1),
    says[`pathlink](self[], U, P, H1, H2),
    says[`pathlink](self[], U, P, N, Me)
      <- pathlink[P, H1] = H2,
         link(Me, N),
         path[P, Me, N2] = C,
         bestcost[Me, N2] = C,
         principal_node[U] = N,
         principal_node[self[]] = Me,
         N != N2,
         !pathlink[P, N] = _.

    // The best cost to each destination.
    bestcost[Src, Dst] = C <- agg<< C = min(Cx) >> path[P, Src, Dst] = Cx.
    "#
    .to_string()
}

/// Configuration of one path-vector experiment.
#[derive(Debug, Clone)]
pub struct PathVectorConfig {
    /// Number of SecureBlox instances (the paper sweeps 6..72).
    pub num_nodes: usize,
    /// Average node degree of the random input graph (the paper uses 3).
    pub avg_degree: usize,
    /// Explicit input topology.  When `None` (the default), a connected
    /// random graph with `avg_degree` is generated from `seed`, matching the
    /// paper's workload; the ablation benches pass regular topologies from
    /// [`secureblox_net::Topology`] here instead.
    pub edges: Option<Vec<(usize, usize)>>,
    pub security: SecurityConfig,
    pub latency: LatencyModel,
    pub seed: u64,
    /// Executor choice.  The default is the deployment default's; the
    /// figure-reproduction byte/latency comparisons pin
    /// [`ReactorConfig::disabled`] because wire-byte totals under outbox
    /// coalescing are properties of the deterministic reference schedule.
    pub reactor: ReactorConfig,
}

impl Default for PathVectorConfig {
    fn default() -> Self {
        PathVectorConfig {
            num_nodes: 6,
            avg_degree: 3,
            edges: None,
            security: SecurityConfig::default(),
            latency: LatencyModel::default(),
            seed: 1,
            reactor: DeploymentConfig::default().reactor,
        }
    }
}

/// Outcome of one path-vector run.
#[derive(Debug, Clone)]
pub struct PathVectorOutcome {
    pub report: DeploymentReport,
    /// Total number of `bestcost` entries across all nodes (a sanity check of
    /// protocol progress: every node should learn a best cost to every node
    /// it can reach).
    pub best_cost_entries: usize,
    /// Number of nodes that learned a route to node 0.
    pub nodes_with_route_to_zero: usize,
}

/// Generate a connected random graph with roughly the requested average
/// degree: a ring (guaranteeing connectivity, degree 2) plus random extra
/// edges.  Edges are undirected; the link relation stores both directions.
pub fn random_graph(num_nodes: usize, avg_degree: usize, seed: u64) -> Vec<(usize, usize)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut edges: Vec<(usize, usize)> = Vec::new();
    if num_nodes < 2 {
        return edges;
    }
    for i in 0..num_nodes {
        edges.push((i, (i + 1) % num_nodes));
    }
    // The ring contributes degree 2; add (avg_degree - 2) * n / 2 extra edges.
    let extra = num_nodes * avg_degree.saturating_sub(2) / 2;
    let mut attempts = 0;
    let mut added = 0;
    while added < extra && attempts < extra * 20 {
        attempts += 1;
        let a = rng.gen_range(0..num_nodes);
        let b = rng.gen_range(0..num_nodes);
        if a == b {
            continue;
        }
        let edge = (a.min(b), a.max(b));
        if edges.contains(&edge) || edges.contains(&(edge.1, edge.0)) {
            continue;
        }
        edges.push(edge);
        added += 1;
    }
    edges
}

/// The principal name of node `i`.
pub fn principal_name(i: usize) -> String {
    format!("n{i}")
}

/// Build the per-node specifications for a graph: each node starts with its
/// outgoing links.
pub fn node_specs(num_nodes: usize, edges: &[(usize, usize)]) -> Vec<NodeSpec> {
    let mut specs: Vec<NodeSpec> = (0..num_nodes)
        .map(|i| NodeSpec::new(principal_name(i)))
        .collect();
    for &(a, b) in edges {
        specs[a].base_facts.push((
            "link".into(),
            vec![Value::str(principal_name(a)), Value::str(principal_name(b))],
        ));
        specs[b].base_facts.push((
            "link".into(),
            vec![Value::str(principal_name(b)), Value::str(principal_name(a))],
        ));
    }
    specs
}

/// Build (but do not run) a deployment for the given configuration.
pub fn build_deployment(config: &PathVectorConfig) -> Result<Deployment> {
    let edges = config
        .edges
        .clone()
        .unwrap_or_else(|| random_graph(config.num_nodes, config.avg_degree, config.seed));
    let specs = node_specs(config.num_nodes, &edges);
    let deployment_config = DeploymentConfig {
        security: config.security.clone(),
        latency: config.latency.clone(),
        seed: config.seed,
        // The advertisement rule's "not already on the path" guard negates a
        // recursively maintained predicate — a locally stratified program.
        allow_recursive_negation: true,
        reactor: config.reactor.clone(),
        ..DeploymentConfig::default()
    };
    Deployment::build(&app_source(), &specs, deployment_config)
}

/// Withdraw the link between nodes `a` and `b` (both directions, as a real
/// link failure would): each endpoint retracts its `link` base fact, the
/// retraction removes every path that used the link, and the withdrawals propagate to
/// the rest of the network as signed `Retract` deltas through the same
/// `says` channels the advertisements used.  Run the deployment afterwards
/// (`Deployment::run`) to re-converge on the surviving topology.
pub fn withdraw_link(deployment: &mut Deployment, a: usize, b: usize) -> Result<()> {
    let (pa, pb) = (principal_name(a), principal_name(b));
    deployment.retract(
        &pa,
        vec![("link".into(), vec![Value::str(&pa), Value::str(&pb)])],
    )?;
    deployment.retract(
        &pb,
        vec![("link".into(), vec![Value::str(&pb), Value::str(&pa)])],
    )?;
    Ok(())
}

/// Run the path-vector protocol to its distributed fixpoint.
pub fn run(config: &PathVectorConfig) -> Result<PathVectorOutcome> {
    let mut deployment = build_deployment(config)?;
    let report = deployment.run()?;
    let mut best_cost_entries = 0usize;
    let mut nodes_with_route_to_zero = 0usize;
    for i in 0..config.num_nodes {
        let principal = principal_name(i);
        let best = deployment.query(&principal, "bestcost");
        best_cost_entries += best.len();
        if i != 0
            && best
                .iter()
                .any(|t| t.get(1).and_then(|v| v.as_str()) == Some(principal_name(0).as_str()))
        {
            nodes_with_route_to_zero += 1;
        }
    }
    Ok(PathVectorOutcome {
        report,
        best_cost_entries,
        nodes_with_route_to_zero,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::SecurityConfig;
    use secureblox_crypto::{AuthScheme, EncScheme};

    #[test]
    fn random_graph_is_connected_and_roughly_degree_three() {
        let n = 24;
        let edges = random_graph(n, 3, 7);
        // Ring guarantees connectivity.
        assert!(edges.len() >= n);
        let degree_sum: usize = 2 * edges.len();
        let avg = degree_sum as f64 / n as f64;
        assert!((2.0..=4.0).contains(&avg), "average degree {avg}");
        // Deterministic for a seed.
        assert_eq!(edges, random_graph(n, 3, 7));
        assert_ne!(edges, random_graph(n, 3, 8));
    }

    #[test]
    fn explicit_star_topology_routes_through_the_hub() {
        // A star around n0: every other node's only neighbour is the hub, so
        // every best cost to a non-adjacent node is exactly 2.
        let num_nodes = 5;
        let edges: Vec<(usize, usize)> = (1..num_nodes).map(|i| (0, i)).collect();
        let config = PathVectorConfig {
            num_nodes,
            edges: Some(edges),
            security: SecurityConfig::new(AuthScheme::NoAuth, EncScheme::None),
            ..PathVectorConfig::default()
        };
        let outcome = run(&config).unwrap();
        assert_eq!(outcome.nodes_with_route_to_zero, num_nodes - 1);
        let deployment = {
            let mut d = build_deployment(&config).unwrap();
            d.run().unwrap();
            d
        };
        // Leaf n1's best costs: 1 to the hub, 2 to every other leaf.
        let best = deployment.query(&principal_name(1), "bestcost");
        let mut costs: Vec<(String, i64)> = best
            .iter()
            .map(|t| (t[1].as_str().unwrap().to_string(), t[2].as_int().unwrap()))
            .collect();
        costs.sort();
        assert!(costs.contains(&("n0".to_string(), 1)));
        for leaf in 2..num_nodes {
            assert!(costs.contains(&(principal_name(leaf), 2)), "{costs:?}");
        }
    }

    #[test]
    fn six_node_protocol_converges_with_noauth() {
        let config = PathVectorConfig {
            num_nodes: 6,
            security: SecurityConfig::new(AuthScheme::NoAuth, EncScheme::None),
            ..PathVectorConfig::default()
        };
        let outcome = run(&config).unwrap();
        // Every node should know a best cost to several destinations and a
        // route to node 0 (the graph is connected).
        assert_eq!(outcome.nodes_with_route_to_zero, 5, "{outcome:?}");
        assert!(outcome.best_cost_entries >= 6 * 5, "{outcome:?}");
        // No security rejections in a benign run; duplicate advertisements of
        // the same path entity may be dropped as FD conflicts (module docs).
        assert_eq!(outcome.report.rejected_batches, 0, "{outcome:?}");
        assert!(outcome.report.fixpoint_latency.as_nanos() > 0);
    }

    #[test]
    fn route_withdrawal_reconverges_the_star() {
        // Star around hub n0.  Cutting the n0–n1 spoke disconnects n1: after
        // the withdrawals propagate, no node may still hold a route to n1,
        // and n1 must have lost its routes — while every other leaf keeps its
        // hub route.  This is distributed retraction end to end: the hub's
        // retraction un-derives its advertisements, the leaves receive signed
        // Retract deltas, and their own cascaded withdrawals fan back out.
        let num_nodes = 5;
        let edges: Vec<(usize, usize)> = (1..num_nodes).map(|i| (0, i)).collect();
        let config = PathVectorConfig {
            num_nodes,
            edges: Some(edges),
            security: SecurityConfig::new(AuthScheme::HmacSha1, EncScheme::None),
            ..PathVectorConfig::default()
        };
        let mut deployment = build_deployment(&config).unwrap();
        deployment.run().unwrap();
        assert!(deployment
            .query(&principal_name(2), "bestcost")
            .iter()
            .any(|t| t[1].as_str() == Some("n1")));

        withdraw_link(&mut deployment, 0, 1).unwrap();
        let report = deployment.run().unwrap();
        assert!(report.retractions_applied > 0, "{report:?}");

        for i in 0..num_nodes {
            let best = deployment.query(&principal_name(i), "bestcost");
            let routes_to_n1 = best.iter().any(|t| t[1].as_str() == Some("n1"));
            if i == 1 {
                assert!(best.is_empty(), "n1 is disconnected: {best:?}");
                continue;
            }
            assert!(!routes_to_n1, "n{i} still routes to n1: {best:?}");
            if i == 0 {
                // The hub keeps a direct route to every surviving leaf.
                for leaf in 2..num_nodes {
                    assert!(
                        best.iter()
                            .any(|t| t[1].as_str() == Some(principal_name(leaf).as_str())),
                        "hub lost its route to n{leaf}: {best:?}"
                    );
                }
            } else {
                assert!(
                    best.iter().any(|t| t[1].as_str() == Some("n0")),
                    "n{i} lost its hub route: {best:?}"
                );
            }
        }
    }

    #[test]
    fn hmac_protocol_converges_and_costs_more_than_noauth() {
        let base = PathVectorConfig {
            num_nodes: 6,
            ..PathVectorConfig::default()
        };
        let noauth = run(&PathVectorConfig {
            security: SecurityConfig::new(AuthScheme::NoAuth, EncScheme::None),
            ..base.clone()
        })
        .unwrap();
        let hmac = run(&PathVectorConfig {
            security: SecurityConfig::new(AuthScheme::HmacSha1, EncScheme::None),
            ..base
        })
        .unwrap();
        assert_eq!(hmac.nodes_with_route_to_zero, 5);
        assert_eq!(hmac.report.rejected_batches, 0);
        // The HMAC tag adds per-message bytes (Figure 6's ordering).
        assert!(hmac.report.per_node_kb > noauth.report.per_node_kb);
    }
}
