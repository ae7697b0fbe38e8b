//! Offline stand-in for the `criterion` crate.
//!
//! The build container cannot reach crates.io, so the workspace vendors the
//! slice of the Criterion API its benches use: `Criterion`,
//! `benchmark_group`, `bench_function`, `bench_with_input`, `Bencher::iter`,
//! `BenchmarkId`, `Throughput`, and the `criterion_group!` /
//! `criterion_main!` macros.
//!
//! Statistics are intentionally simple — each benchmark is warmed up briefly
//! and then timed over a fixed wall-clock budget, reporting the mean and
//! best iteration time.  The numbers are honest wall-clock measurements, but
//! there is no outlier analysis, no HTML report, and no saved baselines.
//! `CRITERION_QUICK=1` in the environment shrinks the budget so CI can smoke
//! the benches without paying for full measurement runs.

use std::fmt::Display;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One measured benchmark, accumulated for the JSON report.
#[derive(Debug, Clone)]
struct BenchRecord {
    label: String,
    mean_ns: u128,
    best_ns: u128,
    iterations: usize,
    throughput: Option<Throughput>,
}

/// Results collected across every group of the current bench binary.
static RESULTS: Mutex<Vec<BenchRecord>> = Mutex::new(Vec::new());

/// Write the accumulated results of this bench binary to
/// `BENCH_<name>.json` (in `SECUREBLOX_BENCH_DIR`, or the working directory
/// — the workspace root under `cargo bench`), so the perf trajectory of the
/// repository is machine-readable run over run.  Called by `criterion_main!`
/// after every group has executed; a binary that measured nothing writes
/// nothing.
pub fn write_bench_report() {
    let results = match RESULTS.lock() {
        Ok(results) => results,
        Err(_) => return,
    };
    if results.is_empty() {
        return;
    }
    let name = std::env::current_exe()
        .ok()
        .and_then(|path| path.file_stem().map(|s| s.to_string_lossy().into_owned()))
        .map(|stem| {
            // Cargo suffixes bench binaries with `-<16 hex chars>`.
            match stem.rsplit_once('-') {
                Some((base, hash))
                    if hash.len() == 16 && hash.bytes().all(|b| b.is_ascii_hexdigit()) =>
                {
                    base.to_string()
                }
                _ => stem,
            }
        })
        .unwrap_or_else(|| "bench".to_string());
    let dir = std::env::var_os("SECUREBLOX_BENCH_DIR")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| std::path::PathBuf::from("."));
    let mut json = String::from("{\n");
    json.push_str(&format!("  \"bench\": \"{name}\",\n"));
    json.push_str(&format!(
        "  \"quick\": {},\n  \"results\": [\n",
        quick_mode()
    ));
    for (index, record) in results.iter().enumerate() {
        let (throughput_kind, throughput_amount) = match record.throughput {
            Some(Throughput::Bytes(n)) => ("bytes", n),
            Some(Throughput::Elements(n)) => ("elements", n),
            None => ("none", 0),
        };
        json.push_str(&format!(
            "    {{\"label\": \"{}\", \"mean_ns\": {}, \"best_ns\": {}, \"iterations\": {}, \
             \"throughput_kind\": \"{}\", \"throughput_amount\": {}}}{}\n",
            record.label.replace('"', "'"),
            record.mean_ns,
            record.best_ns,
            record.iterations,
            throughput_kind,
            throughput_amount,
            if index + 1 == results.len() { "" } else { "," }
        ));
    }
    json.push_str("  ]\n}\n");
    let path = dir.join(format!("BENCH_{name}.json"));
    if std::fs::write(&path, json).is_ok() {
        println!("bench report written to {}", path.display());
    }
    // Sidecar telemetry snapshot: every counter/gauge/histogram the bench
    // touched, in Prometheus text format, so a perf regression can be
    // cross-read against the runtime's own instrumentation (cache hits,
    // WAL batch sizes, rule executions by path, …) from the same run.
    let telemetry = secureblox_telemetry::prometheus_text();
    if !telemetry.is_empty() {
        let telemetry_path = dir.join(format!("TELEMETRY_{name}.prom"));
        if std::fs::write(&telemetry_path, telemetry).is_ok() {
            println!("telemetry snapshot written to {}", telemetry_path.display());
        }
    }
}

/// Measured iteration driver handed to each benchmark closure.
pub struct Bencher {
    warm_up: Duration,
    measurement: Duration,
    min_samples: usize,
    /// (total elapsed, iterations) accumulated by `iter`.
    result: Option<(Duration, usize, Duration)>,
}

impl Bencher {
    /// Time `routine` repeatedly: a short warm-up, then as many iterations as
    /// fit in the measurement budget (at least `min_samples`).
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut routine: F) {
        let warm_deadline = Instant::now() + self.warm_up;
        while Instant::now() < warm_deadline {
            std::hint::black_box(routine());
        }
        let started = Instant::now();
        let mut iterations = 0usize;
        let mut best = Duration::MAX;
        while iterations < self.min_samples || started.elapsed() < self.measurement {
            let t0 = Instant::now();
            std::hint::black_box(routine());
            best = best.min(t0.elapsed());
            iterations += 1;
        }
        self.result = Some((started.elapsed(), iterations, best));
    }

    /// Time `routine` on a fresh input from `setup` each iteration; only the
    /// routine is on the clock.  The warm-up and measurement budgets bound
    /// wall time, setup included.
    pub fn iter_batched<I, O, S: FnMut() -> I, R: FnMut(I) -> O>(
        &mut self,
        mut setup: S,
        mut routine: R,
        _size: BatchSize,
    ) {
        let warm_deadline = Instant::now() + self.warm_up;
        while Instant::now() < warm_deadline {
            std::hint::black_box(routine(setup()));
        }
        let started = Instant::now();
        let mut timed = Duration::ZERO;
        let mut iterations = 0usize;
        let mut best = Duration::MAX;
        while iterations < self.min_samples || started.elapsed() < self.measurement {
            let input = setup();
            let t0 = Instant::now();
            std::hint::black_box(routine(input));
            let elapsed = t0.elapsed();
            timed += elapsed;
            best = best.min(elapsed);
            iterations += 1;
        }
        self.result = Some((timed, iterations, best));
    }
}

/// How many inputs real criterion prepares per timing batch.  This stand-in
/// always prepares one per iteration, the only size its callers ask for.
#[derive(Debug, Clone, Copy)]
pub enum BatchSize {
    PerIteration,
}

/// Throughput annotation (reported alongside the timing).
#[derive(Debug, Clone, Copy)]
pub enum Throughput {
    Bytes(u64),
    Elements(u64),
}

/// Identifier for a parameterized benchmark.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    pub fn new(function_name: impl Into<String>, parameter: impl Display) -> Self {
        BenchmarkId {
            id: format!("{}/{}", function_name.into(), parameter),
        }
    }

    pub fn from_parameter(parameter: impl Display) -> Self {
        BenchmarkId {
            id: parameter.to_string(),
        }
    }
}

impl Display for BenchmarkId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.id)
    }
}

fn quick_mode() -> bool {
    std::env::var_os("CRITERION_QUICK").is_some()
}

/// A named group of benchmarks sharing measurement settings.
pub struct BenchmarkGroup<'a> {
    name: String,
    warm_up: Duration,
    measurement: Duration,
    sample_size: usize,
    throughput: Option<Throughput>,
    _criterion: &'a mut Criterion,
}

impl BenchmarkGroup<'_> {
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n;
        self
    }

    pub fn warm_up_time(&mut self, d: Duration) -> &mut Self {
        self.warm_up = d;
        self
    }

    pub fn measurement_time(&mut self, d: Duration) -> &mut Self {
        self.measurement = d;
        self
    }

    pub fn throughput(&mut self, throughput: Throughput) -> &mut Self {
        self.throughput = Some(throughput);
        self
    }

    pub fn bench_function<F: FnMut(&mut Bencher)>(
        &mut self,
        id: impl Display,
        mut f: F,
    ) -> &mut Self {
        let label = format!("{}/{}", self.name, id);
        run_one(
            &label,
            self.warm_up,
            self.measurement,
            self.sample_size,
            self.throughput,
            |b| f(b),
        );
        self
    }

    pub fn bench_with_input<I: ?Sized, F: FnMut(&mut Bencher, &I)>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: F,
    ) -> &mut Self {
        let label = format!("{}/{}", self.name, id);
        run_one(
            &label,
            self.warm_up,
            self.measurement,
            self.sample_size,
            self.throughput,
            |b| f(b, input),
        );
        self
    }

    pub fn finish(&mut self) {}
}

fn run_one(
    label: &str,
    warm_up: Duration,
    measurement: Duration,
    sample_size: usize,
    throughput: Option<Throughput>,
    mut f: impl FnMut(&mut Bencher),
) {
    let (warm_up, measurement, min_samples) = if quick_mode() {
        (Duration::ZERO, Duration::ZERO, 1)
    } else {
        (warm_up, measurement, sample_size.max(1))
    };
    let mut bencher = Bencher {
        warm_up,
        measurement,
        min_samples,
        result: None,
    };
    f(&mut bencher);
    match bencher.result {
        Some((elapsed, iterations, best)) => {
            let mean = elapsed / iterations.max(1) as u32;
            if let Ok(mut results) = RESULTS.lock() {
                results.push(BenchRecord {
                    label: label.to_string(),
                    mean_ns: mean.as_nanos(),
                    best_ns: best.as_nanos(),
                    iterations,
                    throughput,
                });
            }
            let rate = throughput
                .map(|t| match t {
                    Throughput::Bytes(bytes) => {
                        let mb_s = bytes as f64 / mean.as_secs_f64() / (1024.0 * 1024.0);
                        format!("  {mb_s:>10.1} MiB/s")
                    }
                    Throughput::Elements(n) => {
                        let elems = n as f64 / mean.as_secs_f64();
                        format!("  {elems:>10.0} elem/s")
                    }
                })
                .unwrap_or_default();
            println!(
                "bench {label:<48} mean {:>12?}  best {:>12?}  ({iterations} iters){rate}",
                mean, best
            );
        }
        None => println!("bench {label:<48} (no measurement: closure never called iter)"),
    }
}

/// Top-level benchmark harness handle.
pub struct Criterion {
    default_warm_up: Duration,
    default_measurement: Duration,
    default_sample_size: usize,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion {
            default_warm_up: Duration::from_millis(300),
            default_measurement: Duration::from_secs(1),
            default_sample_size: 10,
        }
    }
}

impl Criterion {
    /// Compatibility no-op (the real crate parses CLI flags here).
    pub fn configure_from_args(self) -> Self {
        self
    }

    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            name: name.into(),
            warm_up: self.default_warm_up,
            measurement: self.default_measurement,
            sample_size: self.default_sample_size,
            throughput: None,
            _criterion: self,
        }
    }

    pub fn bench_function<F: FnMut(&mut Bencher)>(
        &mut self,
        id: impl Display,
        mut f: F,
    ) -> &mut Self {
        let label = id.to_string();
        run_one(
            &label,
            self.default_warm_up,
            self.default_measurement,
            self.default_sample_size,
            None,
            |b| f(b),
        );
        self
    }
}

/// Re-export of the standard black box (the real crate's own is deprecated in
/// favour of this one).
pub use std::hint::black_box;

#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        pub fn $group() {
            let mut criterion = $crate::Criterion::default().configure_from_args();
            $( $target(&mut criterion); )+
        }
    };
}

#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
            $crate::write_bench_report();
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bencher_runs_and_reports() {
        std::env::set_var("CRITERION_QUICK", "1");
        let mut c = Criterion::default();
        let mut group = c.benchmark_group("smoke");
        let mut calls = 0usize;
        group
            .sample_size(3)
            .throughput(Throughput::Bytes(1024))
            .bench_function("count", |b| b.iter(|| calls += 1));
        group.finish();
        assert!(calls >= 1);
    }

    #[test]
    fn benchmark_id_formats() {
        assert_eq!(BenchmarkId::from_parameter(16).to_string(), "16");
        assert_eq!(BenchmarkId::new("join", 4).to_string(), "join/4");
    }
}
