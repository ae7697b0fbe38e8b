//! `flush_updates` costs O(delta): the export candidates a flush examines
//! are the exportable tuples its node's commits added or removed, never the
//! relations' contents.  On a gossip flood that is checkable from outside —
//! the report's `export_candidates` against the number of deltas that
//! crossed the wire — and it must hold at 6 nodes and at 18, where the
//! exported relation is nine times larger per node.

use secureblox::policy::SecurityConfig;
use secureblox::runtime::{Deployment, DeploymentConfig, NodeSpec};
use secureblox::{AuthScheme, EncScheme, Value};

/// The `stream_throughput` flood: every node tells every other principal its
/// own links and everything it has heard.
const GOSSIP_APP: &str = r#"
    link(N1, N2) -> node(N1), node(N2).
    remote_link(N1, N2) -> node(N1), node(N2).
    exportable(`remote_link).

    says[`remote_link](self[], U, X, Y) <- link(X, Y), principal(U), U != self[].
    says[`remote_link](self[], U, X, Y) <- remote_link(X, Y), principal(U), U != self[].
"#;

fn principal(i: usize) -> String {
    format!("n{i}")
}

fn ring_specs(n: usize) -> Vec<NodeSpec> {
    (0..n)
        .map(|i| {
            let mut spec = NodeSpec::new(principal(i));
            for j in [(i + 1) % n, (i + n - 1) % n] {
                spec.base_facts.push((
                    "link".into(),
                    vec![Value::str(principal(i)), Value::str(principal(j))],
                ));
            }
            spec
        })
        .collect()
}

#[test]
fn candidates_examined_track_the_deltas_not_the_relation_size() {
    let flushes = secureblox_telemetry::registry().histogram("engine_export_flush_ns");
    for n in [6usize, 18] {
        let flushes_before = flushes.count();
        let config = DeploymentConfig {
            security: SecurityConfig::new(AuthScheme::HmacSha1, EncScheme::None),
            ..DeploymentConfig::default()
        };
        let mut deployment = Deployment::build(GOSSIP_APP, &ring_specs(n), config).unwrap();
        let report = deployment.run().unwrap();
        assert_eq!(report.rejected_batches, 0);
        // A node's `says$remote_link` holds what it exported and what it
        // received (an inbound tuple is a candidate too, dropped by the
        // from-self guard), so the sum over nodes is received + exported.
        let crossed: usize = (0..n)
            .map(|i| deployment.query(&principal(i), "says$remote_link").len())
            .sum();
        // Each of the 2n links crosses each of the n(n-1) directed pairs once.
        assert_eq!(crossed, 2 * (2 * n) * (n * (n - 1)), "the flood's size");
        let candidates = report.export_candidates;
        assert!(
            candidates >= crossed / 2 && candidates <= 2 * crossed,
            "n={n}: {candidates} candidates examined for {crossed} deltas received + exported"
        );
        if secureblox_telemetry::metrics_enabled() {
            assert!(flushes.count() > flushes_before, "flushes must be timed");
        }
    }
}
