//! In-memory spans for the traced run, and the self-time arithmetic the
//! per-layer metrics are computed from.
//!
//! Spans are recorded by the benchmark around its calls into the program:
//! the client around each request, a wrapper `App` around each handler
//! call, and the offline replay around parse, resolve, engine and
//! serialise steps. Nothing inside the program is instrumented.

use std::collections::HashMap;
use std::io::{self, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// First id handed out by [`SpanLog::fresh_id`]. Client spans use the
/// request id (`phase << 44 | client << 40 | sequence`) as their span id, which stays
/// below this, so the two ranges never collide.
pub const FRESH_ID_BASE: u64 = 1 << 56;

/// One timed interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Unique span id.
    pub id: u64,
    /// The span that caused this one, if any.
    pub parent: Option<u64>,
    /// The request this span belongs to; spans of one request share it.
    pub request: u64,
    /// Layer boundary name (`client`, an endpoint label, `parse`, ...).
    pub name: &'static str,
    /// Start, in nanoseconds since the log's epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the log's epoch.
    pub end_ns: u64,
}

impl Span {
    /// Wall duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A shared, append-only span store with one clock epoch.
#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
    next_id: AtomicU64,
}

impl Default for SpanLog {
    fn default() -> Self {
        Self::new()
    }
}

impl SpanLog {
    /// An empty log whose epoch is now.
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
            next_id: AtomicU64::new(FRESH_ID_BASE),
        }
    }

    /// Nanoseconds since the epoch.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// A span id not used by any client span.
    pub fn fresh_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Append a span.
    pub fn record(&self, span: Span) {
        self.spans.lock().expect("span log poisoned").push(span);
    }

    /// Append many spans under one lock.
    pub fn extend(&self, spans: Vec<Span>) {
        self.spans.lock().expect("span log poisoned").extend(spans);
    }

    /// Every span recorded so far, in recording order.
    pub fn snapshot(&self) -> Vec<Span> {
        self.spans.lock().expect("span log poisoned").clone()
    }
}

/// Self time of every span: its duration minus the part of its interval
/// covered by its direct children (overlapping children count once; parts
/// of a child outside the parent do not count).
pub fn self_times(spans: &[Span]) -> HashMap<u64, u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let covered = children
                .get_mut(&s.id)
                .map_or(0, |kids| covered_ns(s.start_ns, s.end_ns, kids));
            (s.id, s.duration_ns().saturating_sub(covered))
        })
        .collect()
}

/// Length of the union of `intervals`, clipped to `[start, end]`.
fn covered_ns(start: u64, end: u64, intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut cursor = start;
    for &(s, e) in intervals.iter() {
        let s = s.max(cursor);
        let e = e.min(end);
        if e > s {
            covered += e - s;
            cursor = e;
        }
    }
    covered
}

/// Write spans as JSON lines (`id`, `parent`, `request`, `name`,
/// `start_ns`, `end_ns`).
pub fn write_jsonl(spans: &[Span], path: &Path) -> io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = s
            .parent
            .map_or_else(|| "null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{parent},\"request\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.request, s.name, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}
