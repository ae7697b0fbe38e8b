//! The authenticated path-vector routing protocol (paper §7.1 / §8.1), plus
//! a route-withdrawal scene showcasing distributed retraction: a link fails,
//! both endpoints retract their advertisements, signed `Retract` deltas
//! propagate through the `says` channels, and the network re-converges on
//! the surviving topology.
//!
//! Run with:
//! ```text
//! cargo run --release --example path_vector [nodes] [NoAuth|HMAC|RSA] [AES]
//! ```

use secureblox::apps::pathvector::{self, PathVectorConfig};
use secureblox::policy::SecurityConfig;
use secureblox::{AuthScheme, EncScheme};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let nodes: usize = args.first().and_then(|a| a.parse().ok()).unwrap_or(6);
    let auth = if args.iter().any(|a| a == "RSA") {
        AuthScheme::Rsa
    } else if args.iter().any(|a| a == "HMAC") {
        AuthScheme::HmacSha1
    } else {
        AuthScheme::NoAuth
    };
    let enc = if args.iter().any(|a| a == "AES") {
        EncScheme::Aes128
    } else {
        EncScheme::None
    };

    let config = PathVectorConfig {
        num_nodes: nodes,
        security: SecurityConfig::new(auth, enc),
        ..PathVectorConfig::default()
    };
    println!(
        "running the path-vector protocol on {nodes} simulated nodes with {}",
        config.security.label()
    );
    let mut deployment = pathvector::build_deployment(&config).expect("build failed");
    let report = deployment.run().expect("path-vector run failed");
    let routes_to_zero = |deployment: &secureblox::runtime::Deployment| {
        (1..nodes)
            .filter(|&i| {
                deployment
                    .query(&pathvector::principal_name(i), "bestcost")
                    .iter()
                    .any(|t| t.get(1).and_then(|v| v.as_str()) == Some("n0"))
            })
            .count()
    };
    println!(
        "fixpoint latency {:?}, avg transaction {:?}, per-node overhead {:.1} KB",
        report.fixpoint_latency, report.average_transaction, report.per_node_kb
    );
    println!(
        "{} of {} nodes found a route to n0; {} rejected batches",
        routes_to_zero(&deployment),
        nodes - 1,
        report.rejected_batches
    );

    // Route withdrawal: fail the ring link n0–n1.  Both endpoints retract
    // the link; the retraction removes every path composed over it; the withdrawals
    // ship as signed Retract deltas and the network re-converges (the ring
    // guarantees an alternative route the long way around).
    println!("\nlink n0-n1 fails: withdrawing the advertisement on both endpoints");
    pathvector::withdraw_link(&mut deployment, 0, 1).expect("withdrawal failed");
    let after = deployment.run().expect("re-convergence failed");
    println!(
        "re-converged: {} retraction deltas applied across the network",
        after.retractions_applied
    );
    println!(
        "{} of {} nodes still reach n0 over surviving links",
        routes_to_zero(&deployment),
        nodes - 1
    );
    let n1_best = deployment.query(&pathvector::principal_name(1), "bestcost");
    let n1_to_n0 = n1_best
        .iter()
        .find(|t| t.get(1).and_then(|v| v.as_str()) == Some("n0"))
        .and_then(|t| t.get(2).and_then(|v| v.as_int()));
    match n1_to_n0 {
        Some(cost) => println!("n1 now reaches n0 at cost {cost} (was 1 before the failure)"),
        None => println!("n1 has no remaining route to n0"),
    }
}
