//! The five workloads: input generation from the seed, the timed scenario,
//! and an oracle the harness computes itself for every result it reports.
//!
//! Closed-loop batch: the whole input is present at t=0 and each `run()` goes
//! to distributed quiescence; there is no arrival schedule.  One call to
//! [`run_rep`] is one repetition and is meant to own its process (the
//! telemetry registry is process-global and monotone, and `VmHWM` is per
//! process).
//!
//! The seed picks key material, which principal sits where in the fixed
//! topology, and the table payloads.  It does not pick how much work there
//! is: the graphs keep their shape and the tables their join fan-out, so runs
//! on different seeds measure the same job and their spread is noise, not
//! input.

use crate::sut::{self, Deployment, Executor, NodeSpec, Pinned, RunReport, Scheme, Tuple};
use crate::trace::timed;
use std::collections::{BTreeMap, BTreeSet, HashSet, VecDeque};
use std::path::{Path, PathBuf};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    GossipFlood,
    GossipFloodReactor,
    PathvectorRsaAes,
    HashjoinSharded,
    ReachChurnDurable,
}

/// A layer switched off through public configuration only, for the traced
/// pass's ablation runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Variant {
    Base,
    /// Same workload under `NoAuth`/`None`: what the security policy costs.
    NoAuth,
    /// `gossip_flood_reactor` on the reference executor.
    NoReactor,
    /// `hashjoin_sharded`'s tables through the hand-routed §7.2 app.
    HandRouted,
    /// `reach_churn_durable` without a store.
    NoDurable,
}

impl Variant {
    pub fn name(self) -> &'static str {
        match self {
            Variant::Base => "base",
            Variant::NoAuth => "noauth",
            Variant::NoReactor => "noreactor",
            Variant::HandRouted => "handrouted",
            Variant::NoDurable => "nodurable",
        }
    }

    pub fn parse(name: &str) -> Option<Variant> {
        [
            Variant::Base,
            Variant::NoAuth,
            Variant::NoReactor,
            Variant::HandRouted,
            Variant::NoDurable,
        ]
        .into_iter()
        .find(|v| v.name() == name)
    }
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::GossipFlood,
        Workload::GossipFloodReactor,
        Workload::PathvectorRsaAes,
        Workload::HashjoinSharded,
        Workload::ReachChurnDurable,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::GossipFlood => "gossip_flood",
            Workload::GossipFloodReactor => "gossip_flood_reactor",
            Workload::PathvectorRsaAes => "pathvector_rsa_aes",
            Workload::HashjoinSharded => "hashjoin_sharded",
            Workload::ReachChurnDurable => "reach_churn_durable",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload exists, in one line (goes into `BENCHMARK.json`).
    pub fn why(self) -> &'static str {
        match self {
            Workload::GossipFlood => {
                "HMAC gossip flood on a ring: positive rules, cheap crypto, no disk, so core.runtime (export scan, per-delta apply, outbox, codec) dominates"
            }
            Workload::GossipFloodReactor => {
                "same input on the reactor executor: a runtime or datalog gain moves both gossip workloads, a reactor or LinkLanes gain only this one"
            }
            Workload::PathvectorRsaAes => {
                "paper 7.1 path-vector under RSA+AES: crypto dominates, the rest is the tuple-at-a-time datalog path (negation, min, existentials, rollback)"
            }
            Workload::HashjoinSharded => {
                "paper 7.2 join through the shard plane under HMAC: shard routing rules, join-heavy evaluation and a hot fan-in receiver"
            }
            Workload::ReachChurnDurable => {
                "durable link gossip + closure with link withdrawals, crash and recovery: retraction (DRed) and WAL replay beside assert and WAL append"
            }
        }
    }

    pub fn scheme(self) -> Scheme {
        match self {
            Workload::PathvectorRsaAes => Scheme::RsaAes,
            _ => Scheme::Hmac,
        }
    }

    /// The ablation runs the traced pass adds for this workload.
    pub fn ablations(self) -> &'static [Variant] {
        match self {
            Workload::GossipFlood | Workload::PathvectorRsaAes => &[Variant::NoAuth],
            Workload::GossipFloodReactor => &[Variant::NoAuth, Variant::NoReactor],
            Workload::HashjoinSharded => &[Variant::NoAuth, Variant::HandRouted],
            Workload::ReachChurnDurable => &[Variant::NoAuth, Variant::NoDurable],
        }
    }
}

/// Input sizes.  `FULL` is what the benchmark measures; `SMOKE` only shows
/// the harness works (6-node sizes, seconds in a debug build).
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    pub label: &'static str,
    pub gossip_nodes: usize,
    pub pathvector_nodes: usize,
    pub hashjoin_nodes: usize,
    pub hashjoin_a_rows: usize,
    pub hashjoin_b_rows: usize,
    pub hashjoin_join_values: usize,
    pub reach_nodes: usize,
    pub reach_withdrawals: usize,
}

pub const FULL: Sizes = Sizes {
    label: "full",
    gossip_nodes: 20,
    pathvector_nodes: 14,
    hashjoin_nodes: 6,
    hashjoin_a_rows: 360,
    hashjoin_b_rows: 300,
    hashjoin_join_values: 36,
    reach_nodes: 14,
    reach_withdrawals: 4,
};

pub const SMOKE: Sizes = Sizes {
    label: "smoke",
    gossip_nodes: 6,
    pathvector_nodes: 6,
    hashjoin_nodes: 3,
    hashjoin_a_rows: 60,
    hashjoin_b_rows: 50,
    hashjoin_join_values: 10,
    reach_nodes: 6,
    reach_withdrawals: 2,
};

/// Reactor worker threads: `min(host_threads, 4)`.
pub fn reactor_threads(host_threads: usize) -> usize {
    host_threads.clamp(1, 4)
}

pub struct RepSpec {
    pub workload: Workload,
    pub variant: Variant,
    pub seed: u64,
    pub sizes: Sizes,
    pub host_threads: usize,
    /// Snapshot the telemetry registry around every timed phase and keep the
    /// exported-tuple inventory for the replay probes.
    pub traced: bool,
    /// A directory of this repetition's own, inside the checkout.
    pub scratch: PathBuf,
}

/// Oracle bookkeeping: one op per checked fact.
#[derive(Debug, Default)]
pub struct Checker {
    pub attempted: u64,
    pub failed: u64,
    /// The first few offending facts, for the error message.
    pub failures: Vec<String>,
}

impl Checker {
    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(what);
        }
    }

    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(what());
        }
    }

    /// No workload here gives a policy anything to refuse.
    fn check_benign(&mut self, report: &RunReport) {
        self.check(report.rejected_batches == 0, || {
            format!(
                "{} batches rejected in a benign run",
                report.rejected_batches
            )
        });
    }

    /// `got` must equal `want` as a set: every wanted fact is an op, and
    /// every unexpected fact is an op that failed.
    fn check_set(&mut self, label: &str, got: &[Tuple], want: &HashSet<Tuple>) {
        let got_set: HashSet<&Tuple> = got.iter().collect();
        for fact in want {
            self.check(got_set.contains(fact), || {
                format!("{label}: missing {}", sut::show(fact))
            });
        }
        for fact in got {
            if !want.contains(fact) {
                self.attempted += 1;
                self.fail(format!("{label}: unexpected {}", sut::show(fact)));
            }
        }
        if got.len() != got_set.len() {
            self.attempted += 1;
            self.fail(format!("{label}: relation holds duplicates"));
        }
    }
}

/// Wall and CPU seconds of one timed phase (summed over its calls), plus — in
/// the traced pass — what the program's own histograms and counters recorded
/// while it ran.  Telemetry is read around timed phases only, so probes and
/// oracle queries between phases never leak into a layer's numbers.
#[derive(Debug, Default, Clone)]
pub struct Phase {
    pub wall_s: f64,
    pub cpu_s: f64,
    /// Per histogram `(sum, count)`; the sum is in the histogram's own unit
    /// (nanoseconds for `*_ns`).
    pub hists: BTreeMap<String, (u64, u64)>,
    pub counters: BTreeMap<&'static str, u64>,
}

/// The counters the layer table reads (histograms are enumerated by the
/// registry itself).
pub const COUNTERS: [&str; 5] = [
    "engine_signature_checks_total",
    "engine_stream_annihilated_total",
    "engine_stream_credits_total",
    "engine_retraction_cascades_total",
    "store_wal_records_total",
];

struct Clock {
    traced: bool,
    phases: BTreeMap<&'static str, Phase>,
}

impl Clock {
    fn new(traced: bool) -> Self {
        Clock {
            traced,
            phases: BTreeMap::new(),
        }
    }

    /// Wall seconds of phase `name` so far.
    fn wall_s(&self, name: &str) -> f64 {
        self.phases.get(name).map_or(0.0, |p| p.wall_s)
    }

    /// Time `f` as (one call of) phase `name`.
    fn phase<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let before = self.traced.then(|| {
            (
                sut::histograms(),
                COUNTERS.map(|name| (name, sut::counter(name))),
            )
        });
        let cpu_before = process_cpu_s();
        let (result, wall_s) = timed(name, f);
        let cpu_s = process_cpu_s() - cpu_before;
        let phase = self.phases.entry(name).or_default();
        phase.wall_s += wall_s;
        phase.cpu_s += cpu_s;
        if let Some((hists, counters)) = before {
            for (hist, now) in sut::histograms() {
                let was = hists.get(&hist).copied().unwrap_or_default();
                let recorded = phase.hists.entry(hist).or_default();
                recorded.0 += now.sum - was.sum;
                recorded.1 += now.count - was.count;
            }
            for (name, was) in counters {
                *phase.counters.entry(name).or_default() += sut::counter(name) - was;
            }
        }
        result
    }
}

/// Everything one repetition observed.  `layers.rs` turns it into the
/// per-layer table; `main.rs` reads the end-to-end fields.
pub struct Observed {
    pub app: String,
    pub pinned: Pinned,
    pub nodes: usize,
    pub setup_s: f64,
    pub phases: BTreeMap<&'static str, Phase>,
    /// The report after the last pre-crash `run()`: cumulative over every
    /// `run()` of the deployment the scenario drove.
    pub report: RunReport,
    /// Signed deltas shipped and applied: sender-side `says$T` sizes at
    /// convergence plus, under churn, the exports each withdrawal retracted.
    pub updates: u64,
    pub bootstrap_txn_s: f64,
    pub facts_total: u64,
    pub peak_rss_mb: f64,
    /// Sender-side exported tuples per exportable predicate (traced only).
    pub exported: Vec<(String, Vec<Tuple>)>,
    pub checker: Checker,
    /// Workload-specific measurements, by metric name.
    pub extras: BTreeMap<&'static str, f64>,
}

/// The phases that ship and apply updates.
pub const RUN_PHASES: [&str; 2] = ["run", "retract_converge"];

impl Observed {
    fn run_phases(&self) -> impl Iterator<Item = &Phase> {
        RUN_PHASES.iter().filter_map(|name| self.phases.get(name))
    }

    pub fn run_s(&self) -> f64 {
        self.run_phases().map(|p| p.wall_s).sum()
    }

    pub fn run_cpu_s(&self) -> f64 {
        self.run_phases().map(|p| p.cpu_s).sum()
    }

    /// A histogram's recorded sum and count over the named phases (all
    /// phases when `phases` is empty).
    pub fn hist(&self, phases: &[&str], name: &str) -> (u64, u64) {
        self.phases
            .iter()
            .filter(|(phase, _)| phases.is_empty() || phases.contains(phase))
            .filter_map(|(_, p)| p.hists.get(name))
            .fold((0, 0), |acc, x| (acc.0 + x.0, acc.1 + x.1))
    }

    pub fn counter(&self, name: &str) -> u64 {
        self.phases
            .values()
            .filter_map(|p| p.counters.get(name))
            .sum()
    }

    pub fn scenario_s(&self) -> f64 {
        self.phases.values().map(|p| p.wall_s).sum()
    }

    pub fn cpu_s(&self) -> f64 {
        self.phases.values().map(|p| p.cpu_s).sum()
    }
}

pub fn run_rep(spec: &RepSpec) -> Result<Observed, String> {
    match spec.workload {
        Workload::GossipFlood | Workload::GossipFloodReactor => gossip(spec),
        Workload::PathvectorRsaAes => pathvector(spec),
        Workload::HashjoinSharded => hashjoin(spec),
        Workload::ReachChurnDurable => reach(spec),
    }
}

// ---------------------------------------------------------------------
// Shared scenario pieces.
// ---------------------------------------------------------------------

fn scheme_of(spec: &RepSpec) -> Scheme {
    match spec.variant {
        Variant::NoAuth => Scheme::NoAuth,
        _ => spec.workload.scheme(),
    }
}

fn principal(i: usize) -> String {
    format!("n{i}")
}

fn principals(n: usize) -> Vec<String> {
    (0..n).map(principal).collect()
}

fn pair(a: &str, b: &str) -> Tuple {
    vec![sut::text(a), sut::text(b)]
}

/// Every read of a relation goes through here, under a span of its own.
fn query(deployment: &Deployment, principal: &str, pred: &str) -> Vec<Tuple> {
    timed("query", || sut::query(deployment, principal, pred)).0
}

/// `said_by` under the same span.
fn said_by(deployment: &Deployment, principal: &str, pred: &str) -> Vec<Tuple> {
    timed("query", || sut::said_by(deployment, principal, pred)).0
}

/// Count (and, when traced, keep) every exported tuple.
fn inventory(
    deployment: &Deployment,
    principals: &[String],
    traced: bool,
) -> (u64, Vec<(String, Vec<Tuple>)>) {
    let mut total = 0u64;
    let mut exported = Vec::new();
    for pred in sut::exportable(deployment) {
        let mut kept = Vec::new();
        for p in principals {
            let said = said_by(deployment, p, &pred);
            total += said.len() as u64;
            if traced {
                kept.extend(said);
            }
        }
        exported.push((pred, kept));
    }
    (total, exported)
}

fn facts_total(deployment: &Deployment, principals: &[String], preds: &[&str]) -> u64 {
    let mut total = 0u64;
    for p in principals {
        for pred in preds {
            total += query(deployment, p, pred).len() as u64;
        }
        for pred in sut::exportable(deployment) {
            total += query(deployment, p, &format!("says${pred}")).len() as u64;
        }
    }
    total
}

/// Build the deployment as the timed set-up step.
fn setup(
    app: &str,
    pinned: &Pinned,
    make_specs: impl FnOnce() -> Vec<NodeSpec>,
) -> Result<(Deployment, Vec<NodeSpec>, f64), String> {
    let (built, setup_s) = timed("setup", || {
        let specs = make_specs();
        sut::build(app, &specs, pinned).map(|d| (d, specs))
    });
    let (deployment, specs) = built?;
    Ok((deployment, specs, setup_s))
}

/// The scenario of every workload that is one `run()`: build, run, check
/// the result against `oracle`, take stock of what was exported.
fn single_run(
    spec: &RepSpec,
    app: String,
    pinned: Pinned,
    names: &[String],
    make_specs: impl FnOnce() -> Vec<NodeSpec>,
    local_preds: &[&str],
    oracle: impl FnOnce(&Deployment, &mut Checker),
) -> Result<Observed, String> {
    let (mut deployment, _, setup_s) = setup(&app, &pinned, make_specs)?;
    let mut clock = Clock::new(spec.traced);
    let report = clock.phase("run", || sut::run(&mut deployment))?;
    let peak_rss_mb = peak_rss_mb();
    let mut checker = Checker::default();
    oracle(&deployment, &mut checker);
    checker.check_benign(&report);
    let (updates, exported) = inventory(&deployment, names, spec.traced);
    Ok(Observed {
        app,
        nodes: names.len(),
        setup_s,
        bootstrap_txn_s: sut::bootstrap_txn_s(&deployment, names),
        facts_total: facts_total(&deployment, names, local_preds),
        phases: clock.phases,
        report,
        updates,
        peak_rss_mb,
        exported,
        checker,
        extras: BTreeMap::new(),
        pinned,
    })
}

fn executor_of(spec: &RepSpec) -> Executor {
    if spec.workload == Workload::GossipFloodReactor && spec.variant != Variant::NoReactor {
        Executor::Reactor {
            threads: reactor_threads(spec.host_threads),
        }
    } else {
        Executor::Reference
    }
}

// ---------------------------------------------------------------------
// gossip_flood / gossip_flood_reactor
// ---------------------------------------------------------------------

/// Ring links with seeded placement: `order[k]` sits at ring position `k`
/// and owns a directed link to each neighbour.
fn ring_links(order: &[usize]) -> Vec<(usize, usize)> {
    let n = order.len();
    (0..n)
        .flat_map(|k| {
            [
                (order[k], order[(k + 1) % n]),
                (order[k], order[(k + n - 1) % n]),
            ]
        })
        .collect()
}

fn link_specs(n: usize, links: &[(usize, usize)]) -> Vec<NodeSpec> {
    (0..n)
        .map(|i| {
            let own = links
                .iter()
                .filter(|&&(from, _)| from == i)
                .map(|&(from, to)| ("link".to_string(), pair(&principal(from), &principal(to))))
                .collect();
            sut::node_spec(&principal(i), own)
        })
        .collect()
}

fn gossip(spec: &RepSpec) -> Result<Observed, String> {
    let n = spec.sizes.gossip_nodes;
    let names = principals(n);
    let mut pinned = Pinned::new(scheme_of(spec), spec.seed);
    pinned.executor = executor_of(spec);
    let links = ring_links(&Rng::new(spec.seed).permutation(n));
    // Oracle: every node holds its own two links, and has heard every ring
    // link — its own included, echoed back by the peers it told.
    let oracle = |deployment: &Deployment, checker: &mut Checker| {
        let all_links: HashSet<Tuple> = links
            .iter()
            .map(|&(a, b)| pair(&principal(a), &principal(b)))
            .collect();
        for (i, p) in names.iter().enumerate() {
            let own: HashSet<Tuple> = links
                .iter()
                .filter(|&&(a, _)| a == i)
                .map(|&(a, b)| pair(&principal(a), &principal(b)))
                .collect();
            checker.check_set(&format!("{p} link"), &query(deployment, p, "link"), &own);
            checker.check_set(
                &format!("{p} remote_link"),
                &query(deployment, p, "remote_link"),
                &all_links,
            );
        }
    };
    single_run(
        spec,
        sut::GOSSIP_APP.to_string(),
        pinned,
        &names,
        || link_specs(n, &links),
        &["link", "remote_link"],
        oracle,
    )
}

// ---------------------------------------------------------------------
// pathvector_rsa_aes
// ---------------------------------------------------------------------

/// The §7.1 generator under a constant seed: a ring plus `n / 2` chords,
/// the same shape on every run.
fn degree3_graph(n: usize) -> Vec<(usize, usize)> {
    const SHAPE_SEED: u64 = 7;
    sut::random_graph(n, 3, SHAPE_SEED)
}

/// `edges` with vertex `v` renamed to `label[v]`, ring first and chords
/// after, as the generator lists them.
fn relabel(edges: &[(usize, usize)], label: &[usize]) -> Vec<(usize, usize)> {
    edges.iter().map(|&(a, b)| (label[a], label[b])).collect()
}

/// Directed adjacency of an undirected edge list.
fn adjacency(n: usize, edges: &[(usize, usize)]) -> Vec<Vec<usize>> {
    let mut adjacent = vec![Vec::new(); n];
    for &(a, b) in edges {
        adjacent[a].push(b);
        adjacent[b].push(a);
    }
    adjacent
}

/// Hop distance from `source` to every vertex (`None` when unreachable).
fn bfs(adjacent: &[Vec<usize>], source: usize) -> Vec<Option<usize>> {
    let mut distance = vec![None; adjacent.len()];
    distance[source] = Some(0);
    let mut queue = VecDeque::from([source]);
    while let Some(at) = queue.pop_front() {
        let next = distance[at].map(|d| d + 1);
        for &to in &adjacent[at] {
            if distance[to].is_none() {
                distance[to] = next;
                queue.push_back(to);
            }
        }
    }
    distance
}

fn both_directions(edges: &[(usize, usize)]) -> Vec<(usize, usize)> {
    edges.iter().flat_map(|&(a, b)| [(a, b), (b, a)]).collect()
}

fn pathvector(spec: &RepSpec) -> Result<Observed, String> {
    let n = spec.sizes.pathvector_nodes;
    let names = principals(n);
    let mut pinned = Pinned::new(scheme_of(spec), spec.seed);
    // The advertisement rule negates a recursively maintained predicate.
    pinned.recursive_negation = true;
    // Which advertisement reaches a node first decides which later ones roll
    // back as FD conflicts, so relabelling the graph would change how much
    // work there is; here the seed picks the key material only.
    let edges = degree3_graph(n);
    // Oracle: bestcost[Me, Dst] is the BFS hop distance, for every other
    // vertex, and nothing else.
    let oracle = |deployment: &Deployment, checker: &mut Checker| {
        let adjacent = adjacency(n, &edges);
        for (i, p) in names.iter().enumerate() {
            let want: HashSet<Tuple> = bfs(&adjacent, i)
                .into_iter()
                .enumerate()
                .filter(|&(j, _)| j != i)
                .filter_map(|(j, d)| {
                    d.map(|d| vec![sut::text(p), sut::text(&principal(j)), sut::int(d as i64)])
                })
                .collect();
            checker.check_set(
                &format!("{p} bestcost"),
                &query(deployment, p, "bestcost"),
                &want,
            );
        }
    };
    single_run(
        spec,
        sut::pathvector_app(),
        pinned,
        &names,
        || link_specs(n, &both_directions(&edges)),
        &["link", "path", "pathlink", "bestcost", "pathvar"],
        oracle,
    )
}

// ---------------------------------------------------------------------
// hashjoin_sharded
// ---------------------------------------------------------------------

/// `(key, join value)` rows.
type Table = Vec<(i64, i64)>;

/// Balanced tables: every join value occurs `rows / join_values` times per
/// table, so the result size is the same on every seed; the seed shuffles
/// which key carries which join value and offsets the key ranges.
fn balanced_tables(sizes: &Sizes, seed: u64) -> (Table, Table) {
    let mut rng = Rng::new(seed);
    let values = sizes.hashjoin_join_values;
    let mut table = |rows: usize, base: i64| -> Table {
        let offset = (rng.next() % 1000) as i64;
        let order = rng.permutation(rows);
        (0..rows)
            .map(|i| {
                (
                    base + offset + i as i64,
                    10_000 + 7 * (order[i] % values) as i64,
                )
            })
            .collect()
    };
    (
        table(sizes.hashjoin_a_rows, 0),
        table(sizes.hashjoin_b_rows, 100_000),
    )
}

fn hashjoin(spec: &RepSpec) -> Result<Observed, String> {
    let n = spec.sizes.hashjoin_nodes;
    let names = principals(n);
    let (table_a, table_b) = balanced_tables(&spec.sizes, spec.seed);
    let rows = |name: &str, table: &[(i64, i64)]| -> Vec<(String, Tuple)> {
        table
            .iter()
            .map(|&(key, join)| (name.to_string(), vec![sut::int(key), sut::int(join)]))
            .collect()
    };
    let mut pinned = Pinned::new(scheme_of(spec), spec.seed);
    pinned.singletons = vec![("initiator".into(), sut::text(&names[0]))];
    let (app, specs): (String, Vec<NodeSpec>) = if spec.variant == Variant::HandRouted {
        let (specs, ranges) = sut::handrouted_placement(&names, &table_a, &table_b);
        pinned.shared_facts = ranges;
        (sut::hashjoin_handrouted_app(), specs)
    } else {
        // Unplaced shared facts: `Deployment::build` routes every row to its
        // ring owner.
        pinned.shared_facts = rows("tableA", &table_a);
        pinned.shared_facts.extend(rows("tableB", &table_b));
        pinned.sharded = vec![("tableA".into(), 0), ("tableB".into(), 0)];
        (
            sut::hashjoin_sharded_app(),
            names
                .iter()
                .map(|p| sut::node_spec(p, Vec::new()))
                .collect(),
        )
    };
    // Oracle: a hash join computed here.
    let oracle = |deployment: &Deployment, checker: &mut Checker| {
        let mut by_join: BTreeMap<i64, Vec<i64>> = BTreeMap::new();
        for &(key, join) in &table_b {
            by_join.entry(join).or_default().push(key);
        }
        let want: HashSet<Tuple> = table_a
            .iter()
            .flat_map(|&(a_key, join)| {
                by_join
                    .get(&join)
                    .into_iter()
                    .flatten()
                    .map(move |&b_key| vec![sut::int(a_key), sut::int(join), sut::int(b_key)])
            })
            .collect();
        checker.check_set(
            "n0 joinresult",
            &query(deployment, &names[0], "joinresult"),
            &want,
        );
    };
    single_run(
        spec,
        app,
        pinned,
        &names,
        || specs,
        &["tableA", "tableB", "joinresult"],
        oracle,
    )
}

// ---------------------------------------------------------------------
// reach_churn_durable
// ---------------------------------------------------------------------

const REACH_PREDS: [&str; 4] = ["link", "remote_link", "reach", "says$remote_link"];

/// Every relation of every node, canonically ordered: the state two
/// deployments must share to count as the same.
fn relations(deployment: &Deployment, names: &[String]) -> Vec<Vec<Vec<u8>>> {
    let mut state = Vec::new();
    for p in names {
        for pred in REACH_PREDS {
            let mut tuples: Vec<Vec<u8>> = query(deployment, p, pred)
                .iter()
                .map(|t| sut::canonical(t))
                .collect();
            tuples.sort();
            state.push(tuples);
        }
    }
    state
}

/// Oracle for one point in the churn: every node knows every live link
/// (its own as `link`, the others' as `remote_link`) and its `reach` is the
/// transitive closure over them.
fn check_reach(
    checker: &mut Checker,
    deployment: &Deployment,
    names: &[String],
    live: &[(usize, usize)],
    when: &str,
) {
    let n = names.len();
    let mut adjacent = vec![Vec::new(); n];
    for &(a, b) in live {
        adjacent[a].push(b);
    }
    // reach(X, Y) needs a path of at least one link, so X reaches itself
    // only through a cycle.
    let mut closure: HashSet<Tuple> = HashSet::new();
    for x in 0..n {
        let mut seen = BTreeSet::new();
        let mut queue: VecDeque<usize> = adjacent[x].iter().copied().collect();
        while let Some(y) = queue.pop_front() {
            if seen.insert(y) {
                queue.extend(adjacent[y].iter().copied());
            }
        }
        closure.extend(seen.into_iter().map(|y| pair(&names[x], &names[y])));
    }
    for (i, p) in names.iter().enumerate() {
        let remote: HashSet<Tuple> = live
            .iter()
            .filter(|&&(a, _)| a != i)
            .map(|&(a, b)| pair(&names[a], &names[b]))
            .collect();
        checker.check_set(
            &format!("{when}: {p} remote_link"),
            &query(deployment, p, "remote_link"),
            &remote,
        );
        checker.check_set(
            &format!("{when}: {p} reach"),
            &query(deployment, p, "reach"),
            &closure,
        );
    }
}

fn reach(spec: &RepSpec) -> Result<Observed, String> {
    let n = spec.sizes.reach_nodes;
    let names = principals(n);
    let durable = spec.variant != Variant::NoDurable;
    // The crash/recover/hostile tail belongs to the workload itself; the
    // ablation variants only need the phases they are compared on.
    let full_scenario = spec.variant == Variant::Base;
    let dir = spec.scratch.join("durable");
    let mut pinned = Pinned::new(scheme_of(spec), spec.seed);
    pinned.durability_dir = durable.then(|| dir.clone());
    let edges = relabel(&degree3_graph(n), &Rng::new(spec.seed).permutation(n));
    let mut live = both_directions(&edges);
    let app = sut::REACH_APP;
    let (mut deployment, specs, setup_s) = setup(app, &pinned, || link_specs(n, &live))?;

    let mut clock = Clock::new(spec.traced);
    let mut checker = Checker::default();
    let mut extras = BTreeMap::new();
    clock.phase("run", || sut::run(&mut deployment))?;
    check_reach(&mut checker, &deployment, &names, &live, "converged");
    let (mut updates, exported) = inventory(&deployment, &names, spec.traced);
    let mut exported_now = updates;
    if durable {
        clock.phase("checkpoint", || sut::checkpoint(&mut deployment))?;
    }

    // Withdraw chords (never ring links, so the graph stays connected) one
    // at a time, both directions, re-converging after each.
    let chords: Vec<(usize, usize)> = edges[n..]
        .iter()
        .copied()
        .take(spec.sizes.reach_withdrawals)
        .collect();
    if chords.len() < spec.sizes.reach_withdrawals {
        return Err(format!(
            "graph has only {} chords to withdraw",
            chords.len()
        ));
    }
    let mut withdrawal_s = Vec::new();
    let mut report = None;
    for (k, &(a, b)) in chords.iter().enumerate() {
        let before = clock.wall_s("retract_converge");
        report = Some(clock.phase("retract_converge", || {
            sut::retract(
                &mut deployment,
                &names[a],
                "link",
                pair(&names[a], &names[b]),
            )?;
            sut::retract(
                &mut deployment,
                &names[b],
                "link",
                pair(&names[b], &names[a]),
            )?;
            sut::run(&mut deployment)
        })?);
        withdrawal_s.push(clock.wall_s("retract_converge") - before);
        live.retain(|&link| link != (a, b) && link != (b, a));
        check_reach(
            &mut checker,
            &deployment,
            &names,
            &live,
            &format!("withdrawal {}", k + 1),
        );
        // What the withdrawal retracted is what is no longer exported.
        let still_exported = inventory(&deployment, &names, false).0;
        updates += exported_now - still_exported;
        exported_now = still_exported;
    }
    let report = report.ok_or("reach_churn_durable needs at least one withdrawal")?;
    extras.insert(
        "churn.retract_converge_s",
        crate::stats::median(&withdrawal_s),
    );
    checker.check_benign(&report);
    let bootstrap_txn_s = sut::bootstrap_txn_s(&deployment, &names);
    let facts_total = facts_total(&deployment, &names, &["link", "remote_link", "reach"]);
    let mut peak_rss = peak_rss_mb();

    if full_scenario {
        let state = relations(&deployment, &names);
        let roots = sut::edb_roots(&deployment)?;
        drop(deployment);

        // Between crash and recovery only the disk holds the state: size it
        // and open each node's store alone.
        let disk_bytes = dir_bytes(&dir)?;
        let mut base_facts = 0usize;
        let mut insert_groups = Vec::new();
        let (opened, open_s) = timed("store_open_verify", || {
            names
                .iter()
                .map(|p| sut::open_store(&dir, spec.seed, p))
                .collect::<Result<Vec<_>, _>>()
        });
        for probe in opened? {
            base_facts += probe.base_facts;
            insert_groups.extend(probe.insert_groups);
        }
        extras.insert("store.open_verify_s", open_s);
        extras.insert("store.disk_bytes", disk_bytes as f64);
        extras.insert(
            "churn.disk_bytes_per_fact",
            disk_bytes as f64 / base_facts.max(1) as f64,
        );
        if spec.traced {
            let (replayed, _) = timed("store_append_replay", || {
                sut::replay_wal_append(&spec.scratch.join("append-replay"), &insert_groups)
            });
            extras.insert("store.append_replay_s", replayed?);
        }

        let mut recovered = clock.phase("recover", || {
            let mut recovered = sut::recover(&dir, app, &specs, &pinned)?;
            sut::run(&mut recovered).map(|report| (recovered, report))
        })?;
        extras.insert("churn.recover_s", clock.wall_s("recover"));
        peak_rss = peak_rss.max(peak_rss_mb());
        checker.check(relations(&recovered.0, &names) == state, || {
            "recovered relations differ from the pre-crash ones".to_string()
        });
        checker.check(sut::edb_roots(&recovered.0)? == roots, || {
            "recovered EDB Merkle roots differ from the pre-crash ones".to_string()
        });

        hostile_phase(&mut recovered.0, &names, &live, &mut checker, &mut extras)?;
        drop(recovered);
    } else {
        drop(deployment);
    }
    let _ = std::fs::remove_dir_all(&dir);

    Ok(Observed {
        app: app.to_string(),
        nodes: n,
        setup_s,
        bootstrap_txn_s,
        facts_total,
        phases: clock.phases,
        report,
        updates,
        peak_rss_mb: peak_rss,
        exported,
        checker,
        extras,
        pinned,
    })
}

/// Forged envelopes after the final correctness snapshot: each must be
/// refused, and refusing it must change nothing.  Each forgery is an op;
/// an accepted forgery is a failed op.
fn hostile_phase(
    deployment: &mut Deployment,
    names: &[String],
    live: &[(usize, usize)],
    checker: &mut Checker,
    extras: &mut BTreeMap<&'static str, f64>,
) -> Result<(), String> {
    let state = relations(deployment, names);
    let roots = sut::edb_roots(deployment)?;
    let rejected_before = sut::rejected_batches(deployment);
    // A live link n_a -> n_b owned by some a != 0, as node 0 heard it.
    let &(a, b) = live
        .iter()
        .find(|&&(a, _)| a != 0)
        .ok_or("no remote link to forge against")?;
    let said = |from: &str, x: &str, y: &str| -> Tuple {
        vec![
            sut::text(from),
            sut::text(&names[0]),
            sut::text(x),
            sut::text(y),
        ]
    };
    let bad_signature = vec![0x5A; 20];
    // (retract?, said tuple); each goes out under its own sequence number,
    // so one accepted forgery cannot make the rest look like duplicates.
    let forgeries = [
        // A link no graph here has (a self-loop), under a signature that
        // cannot verify.
        (false, said(&names[a], &names[a], &names[a])),
        // A principal the deployment never provisioned.
        (false, said("mallory", &names[a], &names[b])),
        // Withdrawal of a live link without its owner's signature.
        (true, said(&names[a], &names[a], &names[b])),
    ]
    .into_iter()
    .enumerate()
    .map(|(k, (retract, tuple))| {
        sut::forged_envelope(
            k as u64,
            retract,
            "remote_link",
            tuple,
            bad_signature.clone(),
        )
    })
    .collect::<Vec<_>>();
    let injected = forgeries.len() as u64;
    for payload in forgeries {
        sut::inject(deployment, a, 0, payload);
    }
    let (report, elapsed) = timed("hostile_run", || sut::run(deployment));
    let report = report?;
    extras.insert("policy.forged_reject_us", elapsed * 1e6 / injected as f64);
    let refused = report.rejected_batches - rejected_before;
    for k in 0..injected {
        checker.check(k < refused, || {
            format!("forgery accepted: {refused} of {injected} injected envelopes were rejected")
        });
    }
    checker.check(relations(deployment, names) == state, || {
        "forged envelopes changed a relation".to_string()
    });
    checker.check(sut::edb_roots(deployment)? == roots, || {
        "forged envelopes changed an EDB Merkle root".to_string()
    });
    Ok(())
}

// ---------------------------------------------------------------------
// Process measurements and the seeded generator.
// ---------------------------------------------------------------------

/// User + system CPU seconds of this process so far, all threads, including
/// ones that have exited (`/proc/self/stat` fields 14 and 15, in clock ticks;
/// Linux fixes the tick exposed there at 100 Hz).
pub fn process_cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name (field 2) may contain spaces; fields resume after ')'.
    let after_comm = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let ticks: u64 = after_comm
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|field| field.parse::<u64>().ok())
        .sum();
    ticks as f64 / 100.0
}

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn dir_bytes(dir: &Path) -> Result<u64, String> {
    let mut total = 0u64;
    for entry in std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))? {
        let entry = entry.map_err(|e| e.to_string())?;
        let meta = entry.metadata().map_err(|e| e.to_string())?;
        total += if meta.is_dir() {
            dir_bytes(&entry.path())?
        } else {
            meta.len()
        };
    }
    Ok(total)
}

/// SplitMix64: the root package has no `rand` dependency to offer an
/// example, and the harness needs only shuffles and offsets.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniformly shuffled `0..n` (Fisher-Yates).
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut order: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            order.swap(i, (self.next() % (i as u64 + 1)) as usize);
        }
        order
    }
}

pub fn selftest() -> Result<(), String> {
    let mut order = Rng::new(42).permutation(50);
    if order == (0..50).collect::<Vec<_>>() || order != Rng::new(42).permutation(50) {
        return Err("permutation is not a seeded shuffle".into());
    }
    order.sort_unstable();
    if order != (0..50).collect::<Vec<_>>() {
        return Err("permutation lost an element".into());
    }
    // A path 0-1-2 plus an isolated vertex.
    let distance = bfs(&adjacency(4, &[(0, 1), (1, 2)]), 0);
    if distance != [Some(0), Some(1), Some(2), None] {
        return Err(format!("bfs: {distance:?}"));
    }
    let (a, b) = balanced_tables(&SMOKE, 3);
    let per_value = |table: &[(i64, i64)]| {
        let mut counts: BTreeMap<i64, usize> = BTreeMap::new();
        for &(_, join) in table {
            *counts.entry(join).or_default() += 1;
        }
        counts.into_values().collect::<BTreeSet<_>>()
    };
    if per_value(&a) != BTreeSet::from([SMOKE.hashjoin_a_rows / SMOKE.hashjoin_join_values])
        || per_value(&b) != BTreeSet::from([SMOKE.hashjoin_b_rows / SMOKE.hashjoin_join_values])
    {
        return Err("balanced_tables: join values are not evenly spread".into());
    }
    let mut checker = Checker::default();
    let want: HashSet<Tuple> = [pair("a", "b"), pair("b", "c")].into_iter().collect();
    checker.check_set("t", &[pair("a", "b"), pair("x", "y")], &want);
    if (checker.attempted, checker.failed) != (3, 2) {
        return Err(format!(
            "check_set: {} attempted, {} failed",
            checker.attempted, checker.failed
        ));
    }
    if process_cpu_s() < 0.0 || peak_rss_mb() <= 0.0 {
        return Err("process measurements unavailable".into());
    }
    Ok(())
}
