//! The repo's benchmark: five workloads, end-to-end metrics from untraced
//! repetitions, a per-layer table from a separate traced pass, every result
//! checked against an oracle the harness computes itself.  See `README.md`
//! beside this file for the tables and how to read them.
//!
//! ```text
//! benchmark --seed 1                      every workload, both passes
//! benchmark --workload gossip_flood --seed 1 --seconds 10 --trace 0
//!                                         one workload, one pass, one result line
//! benchmark --selfcheck | --smoke | --selftest | --list | --manifest
//! ```
//!
//! Every repetition runs in a child process of its own, one at a time, with
//! every `SECUREBLOX_*` variable removed from its environment.

mod json;
mod layers;
mod stats;
mod sut;
mod trace;
mod workloads;

use json::Json;
use layers::{Values, END_TO_END, PER_LAYER};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;
use workloads::{RepSpec, Sizes, Variant, Workload};

const DEFAULT_REPS: usize = 5;
/// Repetitions under `--seconds`: at least this many, so a quartile exists.
const MIN_REPS: usize = 3;
const MAX_REPS: usize = 40;
/// What `BENCHMARK.json` tells the driver to pass as `--seconds`.
const RUN_SECONDS: u64 = 15;

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: Option<f64>,
    trace: Option<bool>,
    reps: Option<usize>,
    smoke: bool,
    mode: Mode,
}

enum Mode {
    Bench,
    Selfcheck,
    Selftest,
    List,
    Manifest,
    Child {
        variant: Variant,
        traced: bool,
        scratch: PathBuf,
    },
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: None,
        trace: None,
        reps: None,
        smoke: false,
        mode: Mode::Bench,
    };
    let mut child: Option<(Variant, bool, PathBuf)> = None;
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = |what: &str| {
            argv.next()
                .ok_or_else(|| format!("{flag} needs a value ({what})"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                args.workload =
                    Some(Workload::parse(&name).ok_or_else(|| format!("unknown workload {name}"))?);
            }
            "--seed" => args.seed = value("u64")?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let seconds: f64 = value("seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if seconds.is_nan() || seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
                args.seconds = Some(seconds);
            }
            "--trace" => {
                args.trace = Some(match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            "--reps" => {
                let reps: usize = value("count")?
                    .parse()
                    .map_err(|e| format!("--reps: {e}"))?;
                args.reps = Some(reps.clamp(1, MAX_REPS));
            }
            "--smoke" => args.smoke = true,
            "--selfcheck" => args.mode = Mode::Selfcheck,
            "--selftest" => args.mode = Mode::Selftest,
            "--list" => args.mode = Mode::List,
            "--manifest" => args.mode = Mode::Manifest,
            // Internal: one repetition, spawned by the parent.
            "--child" => {
                let variant = value("variant")?;
                let traced = value("0 or 1")? == "1";
                let scratch = PathBuf::from(value("scratch dir")?);
                child = Some((
                    Variant::parse(&variant).ok_or_else(|| format!("unknown variant {variant}"))?,
                    traced,
                    scratch,
                ));
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    // `--smoke` is one repetition unless told otherwise.
    if args.smoke && args.reps.is_none() && args.seconds.is_none() {
        args.reps = Some(1);
    }
    if let Some((variant, traced, scratch)) = child {
        args.mode = Mode::Child {
            variant,
            traced,
            scratch,
        };
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("benchmark: {message}");
            return ExitCode::from(2);
        }
    };
    let outcome = match &args.mode {
        Mode::Selftest => selftest(),
        Mode::List => {
            print!("{}", listing());
            Ok(true)
        }
        Mode::Manifest => {
            println!("{}", manifest());
            Ok(true)
        }
        Mode::Child {
            variant,
            traced,
            scratch,
        } => child_main(&args, *variant, *traced, scratch).map(|()| true),
        Mode::Bench => bench_main(&args),
        Mode::Selfcheck => selfcheck_main(&args),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("benchmark: {message}");
            ExitCode::FAILURE
        }
    }
}

fn host_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn sizes_of(args: &Args) -> Sizes {
    if args.smoke {
        workloads::SMOKE
    } else {
        workloads::FULL
    }
}

// ---------------------------------------------------------------------
// Child: one repetition of one workload variant.
// ---------------------------------------------------------------------

/// Lines the child prints for the parent: `value <name> <f64>`,
/// `knob <name> <text>`, `ops <attempted> <failed>`, `failure <text>`,
/// `span <json>`, and a final `done`.
fn child_main(args: &Args, variant: Variant, traced: bool, scratch: &Path) -> Result<(), String> {
    let workload = args.workload.ok_or("--child needs --workload")?;
    std::fs::create_dir_all(scratch).map_err(|e| format!("{}: {e}", scratch.display()))?;
    // Histograms record in the traced pass only; counters always count.
    sut::set_histograms(traced);
    trace::set_recording(traced);
    let spec = RepSpec {
        workload,
        variant,
        seed: args.seed,
        sizes: sizes_of(args),
        host_threads: host_threads(),
        traced,
        scratch: scratch.to_path_buf(),
    };
    let observed = workloads::run_rep(&spec)?;
    for (name, value) in layers::end_to_end(&observed) {
        println!("value {name} {value}");
    }
    println!("value run_s {}", observed.run_s());
    println!("value updates {}", observed.updates);
    for (name, value) in observed.pinned.knobs() {
        println!("knob {name} {value}");
    }
    if traced {
        let mut budget = Values::new();
        let mut local = layers::local_layers(&observed, &spec, &mut budget)?;
        let spans = trace::take_spans();
        local.insert("trace.spans", spans.len() as f64);
        for (name, value) in local {
            println!("value {name} {value}");
        }
        for (name, value) in budget {
            println!("value self.{name} {value}");
        }
        for span in &spans {
            println!(
                "span {}",
                trace::span_json(span, workload.name(), variant.name()).render()
            );
        }
    }
    println!(
        "ops {} {}",
        observed.checker.attempted, observed.checker.failed
    );
    for failure in &observed.checker.failures {
        println!("failure {failure}");
    }
    println!("done");
    let _ = std::fs::remove_dir_all(scratch);
    Ok(())
}

/// Oracle ops: one per checked fact.
#[derive(Default, Clone)]
struct Tally {
    attempted: u64,
    failed: u64,
    /// Offending facts (each repetition reports its first few).
    failures: Vec<String>,
}

impl Tally {
    fn absorb(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.failures.extend(other.failures.iter().cloned());
    }
}

struct ChildResult {
    values: Values,
    knobs: Vec<(String, String)>,
    tally: Tally,
    spans: Vec<String>,
}

/// The caller's `SECUREBLOX_*` variables, which no child sees.
fn scrubbed_env() -> Vec<String> {
    let mut names: Vec<String> = std::env::vars_os()
        .filter_map(|(name, _)| name.into_string().ok())
        .filter(|name| name.starts_with("SECUREBLOX_"))
        .collect();
    names.sort();
    names
}

struct Runner<'a> {
    args: &'a Args,
    exe: PathBuf,
    out_dir: PathBuf,
    spawned: usize,
    trace_lines: Vec<String>,
}

impl<'a> Runner<'a> {
    fn new(args: &'a Args) -> Result<Self, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        // Beside the executable, i.e. inside the build directory: always in
        // the checkout and never a tracked file.
        let out_dir = exe
            .parent()
            .ok_or("executable has no parent directory")?
            .join("benchmark-out");
        std::fs::create_dir_all(&out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
        Ok(Runner {
            args,
            exe,
            out_dir,
            spawned: 0,
            trace_lines: Vec::new(),
        })
    }

    /// Run one repetition in a child process and wait for it.
    fn rep(
        &mut self,
        workload: Workload,
        variant: Variant,
        traced: bool,
    ) -> Result<ChildResult, String> {
        self.spawned += 1;
        let scratch = self
            .out_dir
            .join(format!("rep-{}-{}", std::process::id(), self.spawned));
        let mut command = Command::new(&self.exe);
        command
            .args(["--workload", workload.name()])
            .args(["--seed", &self.args.seed.to_string()])
            .args(["--child", variant.name(), if traced { "1" } else { "0" }])
            .arg(&scratch)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit());
        if self.args.smoke {
            command.arg("--smoke");
        }
        for name in scrubbed_env() {
            command.env_remove(name);
        }
        let output = command
            .output()
            .map_err(|e| format!("spawn {}: {e}", self.exe.display()))?;
        let _ = std::fs::remove_dir_all(&scratch);
        let label = format!("{} ({})", workload.name(), variant.name());
        if !output.status.success() {
            return Err(format!("{label}: repetition exited with {}", output.status));
        }
        let mut result = ChildResult {
            values: Values::new(),
            knobs: Vec::new(),
            tally: Tally::default(),
            spans: Vec::new(),
        };
        let mut done = false;
        for line in String::from_utf8_lossy(&output.stdout).lines() {
            let (kind, rest) = line.split_once(' ').unwrap_or((line, ""));
            match kind {
                "value" => {
                    let (name, value) = rest
                        .split_once(' ')
                        .ok_or_else(|| format!("{label}: bad line {line}"))?;
                    let value: f64 = value.parse().map_err(|e| format!("{label}: {name}: {e}"))?;
                    result.values.insert(name.to_string(), value);
                }
                "knob" => {
                    let (name, value) = rest.split_once(' ').unwrap_or((rest, ""));
                    result.knobs.push((name.to_string(), value.to_string()));
                }
                "ops" => {
                    let (attempted, failed) = rest
                        .split_once(' ')
                        .ok_or_else(|| format!("{label}: bad line {line}"))?;
                    result.tally.attempted =
                        attempted.parse().map_err(|e| format!("{label}: {e}"))?;
                    result.tally.failed = failed.parse().map_err(|e| format!("{label}: {e}"))?;
                }
                "failure" => result.tally.failures.push(rest.to_string()),
                "span" => result.spans.push(rest.to_string()),
                "done" => done = true,
                _ => return Err(format!("{label}: unexpected line {line}")),
            }
        }
        if !done {
            return Err(format!("{label}: repetition ended without a result"));
        }
        self.trace_lines.append(&mut result.spans);
        Ok(result)
    }

    /// Untraced repetitions of the base workload: `at_most` of them if given,
    /// else `--reps` of them, else as many as fit `--seconds`.
    fn untraced_reps(
        &mut self,
        workload: Workload,
        at_most: Option<usize>,
    ) -> Result<Vec<ChildResult>, String> {
        let started = Instant::now();
        let mut reps = Vec::new();
        loop {
            reps.push(self.rep(workload, Variant::Base, false)?);
            let enough = match (at_most.or(self.args.reps), self.args.seconds) {
                (Some(n), _) => reps.len() >= n,
                (None, Some(seconds)) => {
                    reps.len() >= MIN_REPS && started.elapsed().as_secs_f64() >= seconds
                }
                (None, None) => reps.len() >= DEFAULT_REPS,
            };
            if enough || reps.len() >= MAX_REPS {
                return Ok(reps);
            }
        }
    }

    /// Write the spans collected so far beside the other outputs.
    fn write_trace(&self) -> Result<PathBuf, String> {
        let path = self.out_dir.join("trace.jsonl");
        let mut text = self.trace_lines.join("\n");
        text.push('\n');
        std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;
        Ok(path)
    }
}

/// Medians and sample sets of one workload's untraced repetitions.
struct EndToEndResult {
    samples: BTreeMap<&'static str, Vec<f64>>,
    run_s: f64,
    tally: Tally,
    knobs: Vec<(String, String)>,
    reps: usize,
}

impl EndToEndResult {
    /// The value reported for a metric: the quartile of its repetition
    /// samples on the metric's better side (see `stats::better_quartile`).
    fn value(&self, metric: &layers::EndToEnd) -> f64 {
        stats::better_quartile(&self.samples[metric.name], metric.better == "higher")
    }

    fn values(&self) -> Values {
        END_TO_END
            .iter()
            .map(|metric| (metric.name.to_string(), self.value(metric)))
            .collect()
    }
}

fn summarize(reps: Vec<ChildResult>) -> Result<EndToEndResult, String> {
    let mut result = EndToEndResult {
        samples: BTreeMap::new(),
        run_s: 0.0,
        tally: Tally::default(),
        knobs: reps.first().map(|r| r.knobs.clone()).unwrap_or_default(),
        reps: reps.len(),
    };
    let mut run_s = Vec::new();
    for rep in &reps {
        for metric in &END_TO_END {
            let value = *rep
                .values
                .get(metric.name)
                .ok_or_else(|| format!("a repetition did not report {}", metric.name))?;
            result.samples.entry(metric.name).or_default().push(value);
        }
        run_s.push(rep.values.get("run_s").copied().unwrap_or(f64::NAN));
        result.tally.absorb(&rep.tally);
    }
    // A time, so the fast-side quartile like the end-to-end times.
    result.run_s = stats::better_quartile(&run_s, false);
    Ok(result)
}

/// The traced pass of one workload: traced repetitions, then one untraced
/// run per ablation.  Returns the better-side quartile of every value the
/// traced repetitions reported (per-layer metrics and `self.*` budget rows) plus
/// the metrics that compare runs.
fn traced_pass(
    runner: &mut Runner,
    workload: Workload,
    untraced: &EndToEndResult,
) -> Result<(Values, Tally), String> {
    let started = Instant::now();
    let mut traced_reps: Vec<ChildResult> = Vec::new();
    loop {
        traced_reps.push(runner.rep(workload, Variant::Base, true)?);
        // One traced repetition unless a time budget leaves room for more.
        let more = match (runner.args.trace, runner.args.seconds) {
            (Some(true), Some(seconds)) => started.elapsed().as_secs_f64() < seconds / 2.0,
            _ => false,
        };
        if !more || traced_reps.len() >= MAX_REPS {
            break;
        }
    }
    let mut tally = Tally::default();
    let mut traced = Values::new();
    for name in traced_reps[0].values.keys() {
        let samples: Vec<f64> = traced_reps
            .iter()
            .filter_map(|rep| rep.values.get(name).copied())
            .collect();
        let higher = PER_LAYER
            .iter()
            .any(|layer| layer.name == name && layer.better == "higher");
        traced.insert(name.clone(), stats::better_quartile(&samples, higher));
    }
    for rep in &traced_reps {
        tally.absorb(&rep.tally);
    }
    let mut ablations = BTreeMap::new();
    for &variant in workload.ablations() {
        let rep = runner.rep(workload, variant, false)?;
        tally.absorb(&rep.tally);
        ablations.insert(variant, rep.values);
    }
    let cross = layers::cross_layers(&traced, untraced.run_s, &untraced.values(), &ablations);
    for (name, value) in cross {
        traced.insert(name.to_string(), value);
    }
    for layer in &PER_LAYER {
        if !traced.contains_key(layer.name) {
            return Err(format!("traced pass did not produce {}", layer.name));
        }
    }
    Ok((traced, tally))
}

// ---------------------------------------------------------------------
// Parent: passes, records, tables.
// ---------------------------------------------------------------------

fn git_revision() -> String {
    let read = |path: &str| std::fs::read_to_string(path).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(hash) = read(&format!(".git/{reference}")) {
        return hash.trim().to_string();
    }
    read(".git/packed-refs")
        .and_then(|packed| {
            packed.lines().find_map(|line| {
                line.strip_suffix(reference)
                    .map(|hash| hash.trim().to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

fn provenance(args: &Args, knobs: &[(String, String)], reps: usize) -> Json {
    Json::obj([
        ("host_threads", Json::Int(host_threads() as i64)),
        ("git_revision", Json::str(git_revision())),
        ("seed", Json::Int(args.seed as i64)),
        ("reps", Json::Int(reps as i64)),
        ("sizes", Json::str(sizes_of(args).label)),
        (
            "loop",
            Json::str("closed-loop batch: whole input at t=0, run to distributed quiescence"),
        ),
        (
            "knobs",
            Json::obj(knobs.iter().map(|(k, v)| (k.clone(), Json::str(v.clone())))),
        ),
        (
            "scrubbed_env",
            Json::Arr(scrubbed_env().into_iter().map(Json::Str).collect()),
        ),
    ])
}

fn metric_json(value: f64, unit: &str) -> Json {
    Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))])
}

struct WorkloadOutcome {
    workload: Workload,
    end_to_end: Option<EndToEndResult>,
    /// Per-layer metrics and `self.*` budget rows of the traced pass.
    layers: Option<Values>,
    tally: Tally,
}

impl WorkloadOutcome {
    /// The full record of what was measured and under what.
    fn record(&self, args: &Args) -> Json {
        let mut fields: Vec<(String, Json)> = vec![
            ("record".into(), Json::str("workload")),
            ("workload".into(), Json::str(self.workload.name())),
        ];
        if let Some(e2e) = &self.end_to_end {
            fields.push(("provenance".into(), provenance(args, &e2e.knobs, e2e.reps)));
            fields.push((
                "end_to_end".into(),
                Json::obj(END_TO_END.iter().map(|metric| {
                    (
                        metric.name,
                        Json::obj([
                            ("value", Json::Num(e2e.value(metric))),
                            ("unit", Json::str(metric.unit)),
                            ("clock", Json::str(metric.clock)),
                            ("samples", Json::Int(e2e.reps as i64)),
                            (
                                "spread",
                                Json::Num(stats::spread(&e2e.samples[metric.name])),
                            ),
                        ]),
                    )
                })),
            ));
        }
        if let Some(layers) = &self.layers {
            fields.push((
                "per_layer".into(),
                Json::obj(
                    PER_LAYER
                        .iter()
                        .map(|layer| (layer.name, metric_json(layers[layer.name], layer.unit))),
                ),
            ));
        }
        fields.push(("attempted".into(), Json::Int(self.tally.attempted as i64)));
        fields.push(("failed".into(), Json::Int(self.tally.failed as i64)));
        fields.push((
            "failed_ops_ratio".into(),
            Json::Num(self.tally.failed as f64 / self.tally.attempted.max(1) as f64),
        ));
        Json::Obj(fields)
    }

    fn print_tables(&self) {
        println!("== {} ==", self.workload.name());
        if let Some(e2e) = &self.end_to_end {
            println!(
                "  end to end (better-side quartile of {} untraced repetitions, spread = IQR / median)",
                e2e.reps
            );
            for metric in &END_TO_END {
                println!(
                    "    {:<22} {:>14.4} {:<4} {:<7} spread {:>5.1}%",
                    metric.name,
                    e2e.value(metric),
                    metric.unit,
                    metric.clock,
                    100.0 * stats::spread(&e2e.samples[metric.name]),
                );
            }
        }
        if let Some(layers) = &self.layers {
            println!("  layer budget (traced repetition; rows add up to the run budget)");
            let budget: Values = layers
                .iter()
                .filter_map(|(name, value)| Some((name.strip_prefix("self.")?.to_string(), *value)))
                .collect();
            let rows = layers::budget_rows(&budget);
            let total: f64 = rows.iter().map(|row| row.2).sum();
            for (layer, what, seconds) in rows {
                println!(
                    "    {:<13} {:>9.4} s {:>5.1}%  {}",
                    layer,
                    seconds,
                    100.0 * seconds / total.max(1e-12),
                    what
                );
            }
            println!("  per layer");
            for layer in &PER_LAYER {
                println!(
                    "    {:<30} {:>16.6} {}",
                    layer.name, layers[layer.name], layer.unit
                );
            }
        }
        println!(
            "  oracle: {} ops checked, {} failed",
            self.tally.attempted, self.tally.failed
        );
    }
}

/// Run the selected passes of one workload.
fn run_workload(runner: &mut Runner, workload: Workload) -> Result<WorkloadOutcome, String> {
    let trace = runner.args.trace;
    // The traced pass compares against untraced repetitions, so a
    // traced-only run still needs a few.
    let untraced = summarize(match trace {
        Some(true) => runner.untraced_reps(workload, Some(MIN_REPS))?,
        _ => runner.untraced_reps(workload, None)?,
    })?;
    let mut outcome = WorkloadOutcome {
        workload,
        tally: untraced.tally.clone(),
        end_to_end: None,
        layers: None,
    };
    if trace != Some(false) {
        let (layers, tally) = traced_pass(runner, workload, &untraced)?;
        outcome.layers = Some(layers);
        outcome.tally.absorb(&tally);
    }
    if trace != Some(true) {
        outcome.end_to_end = Some(untraced);
    }
    Ok(outcome)
}

fn selected(args: &Args) -> Vec<Workload> {
    args.workload
        .map_or_else(|| Workload::ALL.to_vec(), |w| vec![w])
}

fn bench_main(args: &Args) -> Result<bool, String> {
    let mut runner = Runner::new(args)?;
    let mut outcomes = Vec::new();
    for workload in selected(args) {
        eprintln!("benchmark: {} ...", workload.name());
        outcomes.push(run_workload(&mut runner, workload)?);
    }
    let mut records = Vec::new();
    for outcome in &outcomes {
        outcome.print_tables();
        records.push(outcome.record(args).render());
    }
    for record in &records {
        println!("{record}");
    }
    let results = runner.out_dir.join("results.jsonl");
    std::fs::write(&results, records.join("\n") + "\n")
        .map_err(|e| format!("{}: {e}", results.display()))?;
    if outcomes.iter().any(|o| o.layers.is_some()) {
        let path = runner.write_trace()?;
        eprintln!("benchmark: spans written to {}", path.display());
    }
    let attempted: u64 = outcomes.iter().map(|o| o.tally.attempted).sum();
    let failed: u64 = outcomes.iter().map(|o| o.tally.failed).sum();
    for outcome in &outcomes {
        for failure in &outcome.tally.failures {
            eprintln!(
                "benchmark: {}: FAILED CHECK {failure}",
                outcome.workload.name()
            );
        }
    }
    // One selected workload and one selected pass: the last line is that
    // pass's metrics alone, by name.
    let metrics = match (outcomes.as_slice(), args.trace) {
        ([only], Some(false)) => only.end_to_end.as_ref().map(|e2e| {
            Json::obj(
                END_TO_END
                    .iter()
                    .map(|m| (m.name, metric_json(e2e.value(m), m.unit))),
            )
        }),
        ([only], Some(true)) => only.layers.as_ref().map(|layers| {
            Json::obj(
                PER_LAYER
                    .iter()
                    .map(|l| (l.name, metric_json(layers[l.name], l.unit))),
            )
        }),
        _ => None,
    };
    let mut summary = vec![
        ("correct", Json::Bool(failed == 0)),
        ("attempted", Json::Int(attempted as i64)),
        ("failed", Json::Int(failed as i64)),
    ];
    if let Some(metrics) = metrics {
        summary.push(("metrics", metrics));
    }
    println!("{}", Json::obj(summary).render());
    Ok(failed == 0)
}

/// Two full sets of untraced repetitions, back to back, on the same build:
/// every end-to-end value must agree within the metric's bound.
fn selfcheck_main(args: &Args) -> Result<bool, String> {
    let mut runner = Runner::new(args)?;
    let mut agree = true;
    println!(
        "{:<22} {:<20} {:>12} {:>12} {:>8} {:>7} {:>7} {:>7}",
        "workload", "metric", "first", "second", "differ", "bound", "spread1", "spread2"
    );
    for workload in selected(args) {
        let first = summarize(runner.untraced_reps(workload, None)?)?;
        let second = summarize(runner.untraced_reps(workload, None)?)?;
        for metric in &END_TO_END {
            let (a, b) = (first.value(metric), second.value(metric));
            let differ = (b - a).abs() / a;
            let ok = differ <= metric.bound;
            agree &= ok;
            println!(
                "{:<22} {:<20} {:>12.4} {:>12.4} {:>7.1}% {:>6.1}% {:>6.1}% {:>6.1}%{}",
                workload.name(),
                metric.name,
                a,
                b,
                100.0 * differ,
                100.0 * metric.bound,
                100.0 * stats::spread(&first.samples[metric.name]),
                100.0 * stats::spread(&second.samples[metric.name]),
                if ok { "" } else { "  OUT OF BOUND" },
            );
        }
        if first.tally.failed + second.tally.failed > 0 {
            for failure in first.tally.failures.iter().chain(&second.tally.failures) {
                eprintln!("benchmark: {}: FAILED CHECK {failure}", workload.name());
            }
            agree = false;
        }
    }
    println!("selfcheck: {}", if agree { "ok" } else { "FAILED" });
    Ok(agree)
}

// ---------------------------------------------------------------------
// --list, --manifest, --selftest
// ---------------------------------------------------------------------

fn listing() -> String {
    let mut out = String::from("workloads\n");
    for workload in Workload::ALL {
        out.push_str(&format!("  {:<22} {}\n", workload.name(), workload.why()));
    }
    out.push_str(
        "end-to-end metrics (untraced repetitions; bound = share of the parent's median)\n",
    );
    for m in &END_TO_END {
        out.push_str(&format!(
            "  {:<20} {:<4} {:<6} {:<7} bound {:>4.0}%  {}\n",
            m.name,
            m.unit,
            m.better,
            m.clock,
            100.0 * m.bound,
            m.meaning
        ));
    }
    out.push_str("per-layer metrics (traced pass)\n");
    for l in &PER_LAYER {
        out.push_str(&format!("  {:<30} {:<6} {}\n", l.name, l.unit, l.better));
    }
    out
}

/// `BENCHMARK.json`, generated from the same tables the harness measures
/// with, so the two cannot drift apart.
fn manifest() -> String {
    let strings = |items: &[&str]| Json::Arr(items.iter().map(|s| Json::str(*s)).collect());
    let workloads = Workload::ALL
        .iter()
        .map(|w| Json::obj([("name", Json::str(w.name())), ("why", Json::str(w.why()))]))
        .collect();
    let end_to_end = END_TO_END
        .iter()
        .map(|m| {
            Json::obj([
                ("name", Json::str(m.name)),
                ("unit", Json::str(m.unit)),
                ("better", Json::str(m.better)),
                ("bound", Json::Num(m.bound)),
            ])
        })
        .collect();
    let per_layer = PER_LAYER
        .iter()
        .map(|l| {
            Json::obj([
                ("name", Json::str(l.name)),
                ("unit", Json::str(l.unit)),
                ("better", Json::str(l.better)),
            ])
        })
        .collect();
    let fields = [
        (
            "command",
            strings(&[
                "cargo",
                "run",
                "--release",
                "--offline",
                "--manifest-path",
                "examples/benchmark/Cargo.toml",
                "--",
            ]),
        ),
        ("paths", strings(&["examples/benchmark"])),
        ("run_seconds", Json::Int(RUN_SECONDS as i64)),
        ("workloads", Json::Arr(workloads)),
        ("end_to_end", Json::Arr(end_to_end)),
        ("per_layer", Json::Arr(per_layer)),
    ];
    // One field per line keeps the file reviewable.
    let body: Vec<String> = fields
        .iter()
        .map(|(key, value)| format!("  {}: {}", Json::str(*key).render(), value.render()))
        .collect();
    format!("{{\n{}\n}}", body.join(",\n"))
}

fn selftest() -> Result<bool, String> {
    stats::selftest()?;
    json::selftest()?;
    trace::selftest()?;
    layers::selftest()?;
    workloads::selftest()?;
    for workload in Workload::ALL {
        if workload.why().len() > 200 || workload.why().contains('\n') {
            return Err(format!(
                "{}: rationale must be one line of at most 200 characters",
                workload.name()
            ));
        }
    }
    // When run from the repo root, the committed manifest must be the one
    // these tables generate.
    if let Ok(committed) = std::fs::read_to_string("BENCHMARK.json") {
        if committed.trim_end() != manifest() {
            return Err("BENCHMARK.json differs from `benchmark --manifest`".into());
        }
    }
    println!("selftest: ok");
    Ok(true)
}
