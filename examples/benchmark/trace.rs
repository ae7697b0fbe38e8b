//! Harness-side spans: one around every call the harness makes into the
//! program, kept in memory and handed to the parent when the child exits.
//! Nothing here reaches inside the program; the program's own histograms are
//! read separately (see `layers.rs`).

use crate::json::Json;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

struct Tracer {
    origin: Instant,
    recording: bool,
    spans: Vec<Span>,
    open: Vec<u32>,
    /// Seconds spent under each span name, kept whether or not recording.
    totals: BTreeMap<&'static str, f64>,
}

thread_local! {
    // The harness drives the program from one thread; the program's own
    // worker threads never call back into the harness.
    static TRACER: RefCell<Tracer> = RefCell::new(Tracer {
        origin: Instant::now(),
        recording: false,
        spans: Vec::new(),
        open: Vec::new(),
        totals: BTreeMap::new(),
    });
}

/// Turn span recording on (the traced pass) or off (every measured
/// repetition).  `timed` measures either way.
pub fn set_recording(on: bool) {
    TRACER.with(|t| t.borrow_mut().recording = on);
}

/// Run `f`, returning its result and wall time in seconds; when recording,
/// also keep a span named `name` whose parent is the enclosing `timed` call.
pub fn timed<T>(name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
    let slot = TRACER.with(|t| {
        let mut t = t.borrow_mut();
        if !t.recording {
            return None;
        }
        let id = t.spans.len() as u32;
        let span = Span {
            id,
            parent: t.open.last().copied(),
            name,
            start_ns: t.origin.elapsed().as_nanos() as u64,
            end_ns: 0,
        };
        t.spans.push(span);
        t.open.push(id);
        Some(id)
    });
    let started = Instant::now();
    let result = f();
    let elapsed = started.elapsed();
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        *t.totals.entry(name).or_default() += elapsed.as_secs_f64();
        if let Some(id) = slot {
            t.open.pop();
            let start = t.spans[id as usize].start_ns;
            t.spans[id as usize].end_ns = start + elapsed.as_nanos() as u64;
        }
    });
    (result, elapsed.as_secs_f64())
}

/// Total seconds spent in `timed` calls named `name` so far.
pub fn total_s(name: &str) -> f64 {
    TRACER.with(|t| t.borrow().totals.get(name).copied().unwrap_or(0.0))
}

pub fn take_spans() -> Vec<Span> {
    TRACER.with(|t| std::mem::take(&mut t.borrow_mut().spans))
}

/// Self time per span: its duration minus the part its children cover.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans
        .iter()
        .map(|s| s.end_ns.saturating_sub(s.start_ns))
        .collect();
    for span in spans {
        if let Some(parent) = span.parent {
            let covered = span.end_ns.saturating_sub(span.start_ns);
            own[parent as usize] = own[parent as usize].saturating_sub(covered);
        }
    }
    own
}

pub fn span_json(span: &Span, workload: &str, rep: &str) -> Json {
    Json::obj([
        ("workload", Json::str(workload)),
        ("rep", Json::str(rep)),
        ("id", Json::Int(span.id as i64)),
        (
            "parent",
            span.parent.map_or(Json::Null, |p| Json::Int(p as i64)),
        ),
        ("name", Json::str(span.name)),
        ("start_ns", Json::Int(span.start_ns as i64)),
        ("end_ns", Json::Int(span.end_ns as i64)),
    ])
}

pub fn selftest() -> Result<(), String> {
    set_recording(true);
    let ((), _) = timed("outer", || {
        timed("inner", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
    });
    set_recording(false);
    timed("unrecorded", || ());
    if total_s("inner") < 0.002 || total_s("outer") < total_s("inner") || total_s("never") != 0.0 {
        return Err("span totals by name".into());
    }
    let spans = take_spans();
    if spans.len() != 2 || spans[1].parent != Some(0) || spans[0].parent.is_some() {
        return Err(format!("span nesting: {spans:?}"));
    }
    let own = self_times(&spans);
    let outer = spans[0].end_ns - spans[0].start_ns;
    let inner = spans[1].end_ns - spans[1].start_ns;
    if own[0] != outer - inner || own[1] != inner || inner < 2_000_000 {
        return Err(format!("span self time: {own:?} of {spans:?}"));
    }
    Ok(())
}
