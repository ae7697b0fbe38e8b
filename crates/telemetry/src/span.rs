//! Structured span tracing.
//!
//! A [`Span`] is an RAII scope: created with a target and a name, optionally
//! tagged with a node id and key/value fields, and *recorded when dropped*
//! with its measured duration.  Closed spans land in a bounded in-memory
//! ring buffer (the newest [`RING_CAPACITY`] survive, for tests and
//! post-mortem inspection) and, when tracing is enabled, stream as one JSON
//! object per line to the trace file.
//!
//! Tracing is **off by default** and enabled either by the
//! `SECUREBLOX_TRACE=<path>` environment variable (read once, lazily) or
//! programmatically with [`enable_tracing_to`].  While disabled, [`span()`]
//! returns an empty guard without reading the clock, allocating, or
//! formatting — the check is one relaxed atomic load.
//!
//! The trace file is opened in append mode and each span is written with a
//! single `write_all` of a complete line, so several processes (the test
//! suite under `cargo test`) can interleave into one file without tearing
//! lines.

use std::collections::VecDeque;
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, Once, PoisonError};
use std::time::Instant;

/// Closed spans kept in memory; older spans are dropped first.
pub const RING_CAPACITY: usize = 4096;

static TRACING: AtomicBool = AtomicBool::new(false);
static TRACE_INIT: Once = Once::new();
static SPAN_SEQ: AtomicU64 = AtomicU64::new(0);

fn trace_file() -> &'static Mutex<Option<File>> {
    static FILE: Mutex<Option<File>> = Mutex::new(None);
    &FILE
}

fn ring() -> &'static Mutex<VecDeque<SpanRecord>> {
    static RING: Mutex<VecDeque<SpanRecord>> = Mutex::new(VecDeque::new());
    &RING
}

/// True when spans are being recorded.  The first call reads
/// `SECUREBLOX_TRACE` and opens the file it names, if any.
#[inline]
pub fn tracing_enabled() -> bool {
    TRACE_INIT.call_once(|| {
        if let Ok(path) = std::env::var("SECUREBLOX_TRACE") {
            if !path.is_empty() {
                // A bad path silently leaves tracing off — observability
                // must never take the system down.
                let _ = enable_tracing_to(&path);
            }
        }
    });
    TRACING.load(Ordering::Relaxed)
}

/// Start recording spans, streaming them to `path` (created if missing,
/// appended to if present).
pub fn enable_tracing_to<P: AsRef<Path>>(path: P) -> std::io::Result<()> {
    let file = OpenOptions::new().create(true).append(true).open(path)?;
    *trace_file().lock().unwrap_or_else(PoisonError::into_inner) = Some(file);
    TRACING.store(true, Ordering::Relaxed);
    Ok(())
}

/// Start recording spans into the ring buffer only (no file).  Used by
/// tests that assert on span contents.
pub fn enable_tracing_to_ring() {
    // An explicit setting outranks the lazy `SECUREBLOX_TRACE` read.
    TRACE_INIT.call_once(|| {});
    *trace_file().lock().unwrap_or_else(PoisonError::into_inner) = None;
    TRACING.store(true, Ordering::Relaxed);
}

/// Stop recording spans and close the trace file.
pub fn disable_tracing() {
    TRACE_INIT.call_once(|| {});
    TRACING.store(false, Ordering::Relaxed);
    *trace_file().lock().unwrap_or_else(PoisonError::into_inner) = None;
}

/// Drain and return the ring buffer (oldest first).
pub fn take_spans() -> Vec<SpanRecord> {
    ring()
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .drain(..)
        .collect()
}

/// A field value attached to a span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FieldValue {
    Int(i64),
    Uint(u64),
    Str(String),
}

impl From<i64> for FieldValue {
    fn from(v: i64) -> Self {
        FieldValue::Int(v)
    }
}

impl From<u64> for FieldValue {
    fn from(v: u64) -> Self {
        FieldValue::Uint(v)
    }
}

impl From<usize> for FieldValue {
    fn from(v: usize) -> Self {
        FieldValue::Uint(v as u64)
    }
}

impl From<u32> for FieldValue {
    fn from(v: u32) -> Self {
        FieldValue::Uint(v as u64)
    }
}

impl From<&str> for FieldValue {
    fn from(v: &str) -> Self {
        FieldValue::Str(v.to_string())
    }
}

impl From<String> for FieldValue {
    fn from(v: String) -> Self {
        FieldValue::Str(v)
    }
}

/// A closed span as kept in the ring buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Monotone per-process sequence number (assigned at close).
    pub seq: u64,
    /// The subsystem, e.g. `"engine"`, `"store"`, `"datalog"`, `"net"`.
    pub target: &'static str,
    /// The operation, e.g. `"update_apply"`, `"checkpoint"`.
    pub name: &'static str,
    /// The node the operation ran on, when meaningful.
    pub node: Option<u64>,
    /// Wall-clock duration of the scope, in nanoseconds.
    pub duration_ns: u64,
    /// Key/value fields attached while the span was open.
    pub fields: Vec<(&'static str, FieldValue)>,
}

impl SpanRecord {
    /// Render as one JSON object (the trace-file line format).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(96);
        out.push_str("{\"seq\":");
        out.push_str(&self.seq.to_string());
        out.push_str(",\"target\":\"");
        push_escaped(&mut out, self.target);
        out.push_str("\",\"name\":\"");
        push_escaped(&mut out, self.name);
        out.push('"');
        if let Some(node) = self.node {
            out.push_str(",\"node\":");
            out.push_str(&node.to_string());
        }
        out.push_str(",\"dur_ns\":");
        out.push_str(&self.duration_ns.to_string());
        if !self.fields.is_empty() {
            out.push_str(",\"fields\":{");
            for (index, (key, value)) in self.fields.iter().enumerate() {
                if index > 0 {
                    out.push(',');
                }
                out.push('"');
                push_escaped(&mut out, key);
                out.push_str("\":");
                match value {
                    FieldValue::Int(v) => out.push_str(&v.to_string()),
                    FieldValue::Uint(v) => out.push_str(&v.to_string()),
                    FieldValue::Str(v) => {
                        out.push('"');
                        push_escaped(&mut out, v);
                        out.push('"');
                    }
                }
            }
            out.push('}');
        }
        out.push('}');
        out
    }
}

/// JSON string escaping (quotes, backslashes, control characters).
fn push_escaped(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
}

/// An open span.  Created by [`span()`]; records itself on drop.  When
/// tracing is disabled the guard is empty and every method is a no-op.
#[derive(Debug)]
#[must_use = "a span measures the scope it is alive in"]
pub struct Span {
    inner: Option<SpanInner>,
}

#[derive(Debug)]
struct SpanInner {
    target: &'static str,
    name: &'static str,
    node: Option<u64>,
    fields: Vec<(&'static str, FieldValue)>,
    start: Instant,
}

/// Open a span.  Returns an empty guard (no clock read, no allocation) when
/// tracing is disabled.
#[inline]
pub fn span(target: &'static str, name: &'static str) -> Span {
    if !tracing_enabled() {
        return Span { inner: None };
    }
    Span {
        inner: Some(SpanInner {
            target,
            name,
            node: None,
            fields: Vec::new(),
            start: Instant::now(),
        }),
    }
}

impl Span {
    /// Tag the span with the node it runs on.
    pub fn node(mut self, node: u64) -> Span {
        if let Some(inner) = self.inner.as_mut() {
            inner.node = Some(node);
        }
        self
    }

    /// Attach a key/value field.  `value` conversion is only performed when
    /// the span is live, but the *argument* is evaluated either way — pass
    /// cheap values at hot sites.
    pub fn field(mut self, key: &'static str, value: impl Into<FieldValue>) -> Span {
        if let Some(inner) = self.inner.as_mut() {
            inner.fields.push((key, value.into()));
        }
        self
    }

    /// Attach a key/value field to an already-open span (the non-builder
    /// form, for values only known mid-scope).
    pub fn record_field(&mut self, key: &'static str, value: impl Into<FieldValue>) {
        if let Some(inner) = self.inner.as_mut() {
            inner.fields.push((key, value.into()));
        }
    }

    /// True when this span will record (i.e. tracing was enabled at open).
    pub fn is_recording(&self) -> bool {
        self.inner.is_some()
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(inner) = self.inner.take() else {
            return;
        };
        let record = SpanRecord {
            seq: SPAN_SEQ.fetch_add(1, Ordering::Relaxed),
            target: inner.target,
            name: inner.name,
            node: inner.node,
            duration_ns: inner.start.elapsed().as_nanos().min(u64::MAX as u128) as u64,
            fields: inner.fields,
        };
        if TRACING.load(Ordering::Relaxed) {
            let mut guard = trace_file().lock().unwrap_or_else(PoisonError::into_inner);
            if let Some(file) = guard.as_mut() {
                let mut line = record.to_json();
                line.push('\n');
                // One write of a complete line: concurrent processes
                // appending to the same file cannot tear each other's lines.
                let _ = file.write_all(line.as_bytes());
            }
        }
        let mut ring = ring().lock().unwrap_or_else(PoisonError::into_inner);
        if ring.len() == RING_CAPACITY {
            ring.pop_front();
        }
        ring.push_back(record);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Span tests share the global tracing flag; serialize them with the
    // same lock the metric-flag tests use.

    #[test]
    fn disabled_span_is_empty_and_records_nothing() {
        let _guard = crate::test_flag_lock();
        disable_tracing();
        let _ = take_spans();
        {
            let span = span("test", "noop").node(3).field("k", 1u64);
            assert!(!span.is_recording());
        }
        assert!(take_spans().is_empty());
    }

    #[test]
    fn spans_land_in_the_ring_buffer() {
        let _guard = crate::test_flag_lock();
        enable_tracing_to_ring();
        let _ = take_spans();
        {
            let _span = span("engine", "update_apply")
                .node(2)
                .field("kind", "assert")
                .field("deltas", 5u64);
        }
        disable_tracing();
        let spans = take_spans();
        assert_eq!(spans.len(), 1);
        let record = &spans[0];
        assert_eq!(record.target, "engine");
        assert_eq!(record.name, "update_apply");
        assert_eq!(record.node, Some(2));
        assert_eq!(record.fields.len(), 2);
        assert_eq!(record.fields[1], ("deltas", FieldValue::Uint(5)));
    }

    #[test]
    fn ring_buffer_is_bounded() {
        let _guard = crate::test_flag_lock();
        enable_tracing_to_ring();
        let _ = take_spans();
        for _ in 0..(RING_CAPACITY + 10) {
            let _span = span("test", "tick");
        }
        disable_tracing();
        assert_eq!(take_spans().len(), RING_CAPACITY);
    }

    #[test]
    fn json_lines_are_valid_and_escaped() {
        let record = SpanRecord {
            seq: 7,
            target: "store",
            name: "checkpoint",
            node: Some(1),
            duration_ns: 1234,
            fields: vec![
                ("path", FieldValue::Str("a\"b\\c\nd".to_string())),
                ("bytes", FieldValue::Uint(42)),
                ("delta", FieldValue::Int(-3)),
            ],
        };
        let json = record.to_json();
        assert_eq!(
            json,
            "{\"seq\":7,\"target\":\"store\",\"name\":\"checkpoint\",\"node\":1,\
             \"dur_ns\":1234,\"fields\":{\"path\":\"a\\\"b\\\\c\\nd\",\"bytes\":42,\
             \"delta\":-3}}"
        );
        // No raw control characters or unescaped quotes survive.
        assert!(!json.contains('\n'));
    }

    #[test]
    fn trace_file_receives_one_line_per_span() {
        let _guard = crate::test_flag_lock();
        let path = std::env::temp_dir().join(format!("sbx-trace-test-{}", std::process::id()));
        let _ = std::fs::remove_file(&path);
        enable_tracing_to(&path).unwrap();
        {
            let _span = span("net", "send").field("kind", "update");
        }
        {
            let _span = span("net", "deliver");
        }
        disable_tracing();
        let _ = take_spans();
        let contents = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = contents.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with('{') && lines[0].ends_with('}'));
        assert!(lines[0].contains("\"target\":\"net\""));
        assert!(lines[1].contains("\"name\":\"deliver\""));
        let _ = std::fs::remove_file(&path);
    }
}
