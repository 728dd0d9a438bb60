//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own code around calls into each
//! crate's public API (and from thin wrappers it installs: a timing
//! `Responder`, a timing `PriorSink`, a timing `Connector`). Each span has a
//! name, a start, an end, a parent and the id of the round, batch, request
//! or iteration it belongs to. Self time — a span's duration minus the part
//! its child spans cover — is aggregated online per name, so aggregation is
//! exact however long the run; the first [`KEEP_SPANS`] raw spans are kept
//! for the dump written at exit.
//!
//! The recorder is per thread and off by default: with tracing off,
//! [`span`] costs one thread-local flag read.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Raw spans kept for the dump; aggregation continues past it.
pub const KEEP_SPANS: usize = 100_000;

/// Prefix of the umbrella span around one op (round, batch, request,
/// iteration). Its direct children are the stages whose coverage of the
/// measured wall time the traced run reports.
pub const OP_PREFIX: &str = "op.";

/// One finished span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Position in start order (what `parent` refers to).
    pub index: u32,
    /// Span name (`edge.step`, `serve.respond`, …).
    pub name: &'static str,
    /// Start, nanoseconds since the recorder was enabled.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder was enabled.
    pub end_ns: u64,
    /// Index of the parent span in start order, if any.
    pub parent: Option<u32>,
    /// The round, batch, request or iteration id.
    pub id: u64,
}

/// Aggregate over every span of one name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanStats {
    /// Spans closed.
    pub count: u64,
    /// Sum of durations.
    pub total_ns: u64,
    /// Sum of durations minus the time covered by child spans.
    pub self_ns: u64,
}

impl SpanStats {
    /// Mean duration per span in microseconds (0 when none closed).
    pub fn mean_us(&self) -> f64 {
        per(self.total_ns, self.count) / 1e3
    }

    /// Mean self time per span in microseconds (0 when none closed).
    pub fn mean_self_us(&self) -> f64 {
        per(self.self_ns, self.count) / 1e3
    }
}

fn per(ns: u64, count: u64) -> f64 {
    if count == 0 {
        0.0
    } else {
        ns as f64 / count as f64
    }
}

#[derive(Debug)]
struct Open {
    name: &'static str,
    index: u32,
    start_ns: u64,
    child_ns: u64,
    parent: Option<u32>,
    id: u64,
}

#[derive(Debug)]
struct Recorder {
    epoch: Instant,
    next_index: u32,
    stack: Vec<Open>,
    kept: Vec<Span>,
    stats: BTreeMap<&'static str, SpanStats>,
    /// Time covered by the direct children of `op.*` spans.
    stage_ns: u64,
}

impl Recorder {
    fn new() -> Self {
        Recorder {
            epoch: Instant::now(),
            next_index: 0,
            stack: Vec::new(),
            kept: Vec::new(),
            stats: BTreeMap::new(),
            stage_ns: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }
}

thread_local! {
    static ENABLED: Cell<bool> = const { Cell::new(false) };
    static RECORDER: RefCell<Recorder> = RefCell::new(Recorder::new());
}

/// Starts recording on this thread with a fresh, empty recorder.
pub fn enable() {
    RECORDER.with(|r| *r.borrow_mut() = Recorder::new());
    ENABLED.with(|e| e.set(true));
}

/// Stops recording on this thread; what was recorded stays readable.
pub fn disable() {
    ENABLED.with(|e| e.set(false));
}

/// Whether this thread is recording.
pub fn enabled() -> bool {
    ENABLED.with(Cell::get)
}

/// Closes its span when dropped.
#[must_use = "the span closes when the guard drops"]
pub struct Guard {
    active: bool,
}

/// Opens a span named `name` for op `id` under the innermost open span.
pub fn span(name: &'static str, id: u64) -> Guard {
    if !enabled() {
        return Guard { active: false };
    }
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        let start_ns = r.now_ns();
        let index = r.next_index;
        r.next_index = r.next_index.wrapping_add(1);
        let parent = r.stack.last().map(|o| o.index);
        r.stack.push(Open {
            name,
            index,
            start_ns,
            child_ns: 0,
            parent,
            id,
        });
    });
    Guard { active: true }
}

/// Runs `f` inside a span.
pub fn timed<R>(name: &'static str, id: u64, f: impl FnOnce() -> R) -> R {
    let _g = span(name, id);
    f()
}

impl Drop for Guard {
    fn drop(&mut self) {
        if !self.active {
            return;
        }
        RECORDER.with(|r| {
            let mut r = r.borrow_mut();
            let end_ns = r.now_ns();
            let Some(open) = r.stack.pop() else {
                return;
            };
            let dur = end_ns.saturating_sub(open.start_ns);
            if let Some(parent) = r.stack.last_mut() {
                parent.child_ns += dur;
                if parent.name.starts_with(OP_PREFIX) {
                    r.stage_ns += dur;
                }
            }
            let s = r.stats.entry(open.name).or_default();
            s.count += 1;
            s.total_ns += dur;
            s.self_ns += dur.saturating_sub(open.child_ns);
            if r.kept.len() < KEEP_SPANS {
                r.kept.push(Span {
                    index: open.index,
                    name: open.name,
                    start_ns: open.start_ns,
                    end_ns,
                    parent: open.parent,
                    id: open.id,
                });
            }
        });
    }
}

/// Per-name aggregates recorded on this thread since [`enable`].
pub fn stats() -> BTreeMap<&'static str, SpanStats> {
    RECORDER.with(|r| r.borrow().stats.clone())
}

/// Aggregate for one span name (zero when never recorded).
pub fn stat(name: &str) -> SpanStats {
    RECORDER.with(|r| r.borrow().stats.get(name).copied().unwrap_or_default())
}

/// Nanoseconds covered by the direct children of `op.*` spans.
pub fn stage_ns() -> u64 {
    RECORDER.with(|r| r.borrow().stage_ns)
}

/// Writes the kept spans, one JSON object per line, to `path`.
///
/// # Errors
///
/// Returns any error creating or writing the file.
pub fn dump(path: &Path) -> std::io::Result<usize> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    let n = RECORDER.with(|r| -> std::io::Result<usize> {
        let r = r.borrow();
        for s in &r.kept {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"index\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"id\":{}}}",
                s.index, s.name, s.start_ns, s.end_ns, s.id
            )?;
        }
        Ok(r.kept.len())
    })?;
    out.flush()?;
    Ok(n)
}
