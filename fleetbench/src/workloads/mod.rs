//! The four workloads and what they share: the result record, the
//! fixed-work pass loop, and the timing wrappers installed at crate
//! boundaries.
//!
//! Every workload is a closed loop over *episodes*: seeded inputs replayed
//! from fresh state. One *pass* replays every episode of the run once; a run
//! repeats whole passes until its time budget is spent and never cuts a pass
//! short, so every pass does the same work and a slow host phase changes how
//! many passes fit, not what a pass contains. Each pass also fingerprints
//! its deterministic outputs, and every pass must reproduce the first.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use dre_bayes::MixturePrior;
use dre_learner::PriorSink;
use dre_serve::{Connector, Responder, Result as ServeResult, ServerState, Transport};
use std::sync::Arc;

use crate::{alloc, trace};

pub mod fleet_round;
pub mod fleet_sim;
pub mod plane_fetch;
pub mod report_ingest;

/// The workloads, in the order `--workload all` runs them.
pub const NAMES: [&str; 4] = ["fleet_round", "report_ingest", "plane_fetch", "fleet_sim"];

/// What one measured pass (or several, merged) produced.
#[derive(Debug, Default, Clone)]
pub struct Outcome {
    /// Operations attempted (device steps, reports, requests, fleet runs).
    pub attempted: u64,
    /// Operations that returned an error.
    pub failed: u64,
    /// Correctness checks that did not hold, one line each.
    pub problems: Vec<String>,
    /// Seconds each set-up of fresh program state took.
    pub setup_s: Vec<f64>,
    /// Per-op latency samples in milliseconds.
    pub op_ms: Vec<f64>,
    /// Work units completed in each fixed-size window.
    pub window_units: Vec<u64>,
    /// Wall seconds of each window.
    pub window_s: Vec<f64>,
    /// Wall seconds of the reference kernel timed after each window.
    pub reference_s: Vec<f64>,
    /// Work units across all windows (the `alloc.per_op` denominator).
    pub units: u64,
    /// Allocator calls made inside the windows.
    pub allocs: u64,
    /// Per-layer values the workload computes itself (counts, ratios and
    /// timings read from the program's own metrics), summed over passes;
    /// reports divide by `passes` to give the per-pass value.
    pub layer: BTreeMap<&'static str, f64>,
    /// Passes merged into this outcome.
    pub passes: u64,
    /// Fingerprint of the first pass's deterministic outputs.
    pub fingerprint: Option<u64>,
    /// Server event-loop workers the workload ran (0 without a TCP server).
    pub server_workers: usize,
    /// Peak heap bytes each episode added above what was live when it
    /// started (inputs excluded).
    pub episode_heap_bytes: Vec<f64>,
}

/// Sample slots reserved up front, so the benchmark's own sample vectors
/// never grow inside an episode and `peak_heap_mb` holds program memory
/// only (virtual until written).
const SAMPLE_CAPACITY: usize = 1 << 21;

impl Outcome {
    /// An empty outcome with room for a run's samples.
    pub fn new() -> Self {
        Outcome {
            setup_s: Vec::with_capacity(SAMPLE_CAPACITY / 8),
            op_ms: Vec::with_capacity(SAMPLE_CAPACITY),
            window_units: Vec::with_capacity(SAMPLE_CAPACITY / 8),
            window_s: Vec::with_capacity(SAMPLE_CAPACITY / 8),
            reference_s: Vec::with_capacity(SAMPLE_CAPACITY / 8),
            episode_heap_bytes: Vec::with_capacity(SAMPLE_CAPACITY / 8),
            ..Outcome::default()
        }
    }

    /// Records a failed correctness check.
    pub fn problem(&mut self, msg: impl Into<String>) {
        self.problems.push(msg.into());
    }

    /// Checks `cond`, recording `msg` when it does not hold.
    pub fn check(&mut self, cond: bool, msg: impl FnOnce() -> String) {
        if !cond {
            self.problems.push(msg());
        }
    }

    /// Seconds inside the measured windows.
    pub fn measured_s(&self) -> f64 {
        self.window_s.iter().sum()
    }

    /// Records one window of `units` work units that took `seconds`, then
    /// times the reference kernel once (outside the window).
    pub fn window(&mut self, units: u64, seconds: f64) {
        self.window_units.push(units);
        self.window_s.push(seconds);
        self.units += units;
        self.reference_s.push(crate::stats::reference_kernel_s());
    }

    /// Adds this pass's value of a per-layer metric.
    pub fn add_layer(&mut self, key: &'static str, value: f64) {
        *self.layer.entry(key).or_default() += value;
    }

    /// The per-pass mean of a per-layer metric (0 when never added).
    pub fn layer_mean(&self, key: &str) -> f64 {
        match self.layer.get(key) {
            Some(v) if self.passes > 0 => v / self.passes as f64,
            _ => 0.0,
        }
    }
}

/// One pass over a workload's episodes. Implementations push samples into
/// the outcome and return the fingerprint of the pass's deterministic
/// outputs.
pub trait Workload {
    /// Runs every episode once from fresh state.
    fn pass(&self, out: &mut Outcome) -> u64;
}

/// Repeats whole passes until `budget` is spent (at least one pass) and
/// checks that every pass reproduces the first pass's fingerprint.
pub fn measure(workload: &dyn Workload, budget: Duration) -> Outcome {
    let mut out = Outcome::new();
    let started = Instant::now();
    while out.passes == 0 || started.elapsed() < budget {
        let fp = workload.pass(&mut out);
        match out.fingerprint {
            None => out.fingerprint = Some(fp),
            Some(first) if first != fp => out.problem(format!(
                "pass {} fingerprint {fp:016x} differs from the first pass {first:016x}",
                out.passes + 1
            )),
            Some(_) => {}
        }
        out.passes += 1;
    }
    out
}

/// Watches the heap over one episode: started before the episode builds
/// its state, finished after the episode ends.
pub struct HeapWatch(u64);

impl HeapWatch {
    /// Restarts the allocator's high-water mark.
    pub fn start() -> Self {
        HeapWatch(alloc::reset_peak())
    }

    /// Records the peak the episode added above its starting point.
    pub fn finish(self, out: &mut Outcome) {
        out.episode_heap_bytes
            .push(alloc::peak_bytes().saturating_sub(self.0) as f64);
    }
}

/// Seconds since `t`, as `f64`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

// ---------------------------------------------------------------------------
// Timing wrappers at crate boundaries
// ---------------------------------------------------------------------------

/// A [`Responder`] over a shared [`ServerState`] that records a
/// `serve.respond` span around `ServerState::respond_bytes` — the same call
/// `InMemoryServer` makes.
pub struct TimedResponder {
    state: Arc<ServerState>,
}

impl TimedResponder {
    /// Answers from `state`.
    pub fn new(state: Arc<ServerState>) -> Self {
        TimedResponder { state }
    }
}

impl Responder for TimedResponder {
    fn respond(&self, request_frame: &[u8]) -> Vec<u8> {
        trace::timed("serve.respond", 0, || {
            self.state.respond_bytes(request_frame).into_vec()
        })
    }
}

/// A [`PriorSink`] that records a `serve.register` span around
/// `ServerState::register_prior`, so the learner's publish time splits into
/// its own collapse (self time) and the server's frame build.
pub struct TimedSink(pub Arc<ServerState>);

impl PriorSink for TimedSink {
    fn publish(&mut self, task_id: u64, prior: &MixturePrior) {
        trace::timed("serve.register", task_id, || {
            self.0.register_prior(task_id, prior)
        });
    }
}

/// A [`Connector`] whose transports record `serve.send` and `serve.recv`
/// spans around every transport call the client makes.
pub struct TracedConnector<C>(pub C);

/// The transport [`TracedConnector`] hands out.
pub struct TracedTransport<T>(T);

impl<C: Connector> Connector for TracedConnector<C> {
    type Transport = TracedTransport<C::Transport>;

    fn connect(&mut self) -> ServeResult<Self::Transport> {
        self.0.connect().map(TracedTransport)
    }

    fn note_retryable_error(&mut self, error: &dre_serve::ServeError) {
        self.0.note_retryable_error(error);
    }
}

impl<T: Transport> Transport for TracedTransport<T> {
    fn send(&mut self, bytes: &[u8]) -> ServeResult<()> {
        trace::timed("serve.send", 0, || self.0.send(bytes))
    }

    fn recv_exact(&mut self, buf: &mut [u8]) -> ServeResult<()> {
        trace::timed("serve.recv", 0, || self.0.recv_exact(buf))
    }

    fn recv_exact_or_eof(&mut self, buf: &mut [u8]) -> ServeResult<bool> {
        trace::timed("serve.recv", 0, || self.0.recv_exact_or_eof(buf))
    }

    fn recv_some(&mut self, buf: &mut [u8]) -> ServeResult<usize> {
        trace::timed("serve.recv", 0, || self.0.recv_some(buf))
    }

    fn recv_some_or_eof(&mut self, buf: &mut [u8]) -> ServeResult<usize> {
        trace::timed("serve.recv", 0, || self.0.recv_some_or_eof(buf))
    }
}

/// The p50 of a server's log2-µs latency histogram, interpolated linearly
/// inside the bucket that holds the median observation (bucket `i` spans
/// `[2^i, 2^(i+1))` µs, bucket 0 spans `[0, 2)` µs); 0 when empty.
pub fn histogram_p50_us(buckets: &[u64]) -> f64 {
    let total: u64 = buckets.iter().sum();
    let half = total as f64 / 2.0;
    let mut below = 0.0;
    for (i, &n) in buckets.iter().enumerate() {
        let n = n as f64;
        if n > 0.0 && below + n >= half {
            let lo = if i == 0 { 0.0 } else { (1u64 << i) as f64 };
            let hi = (1u64 << (i + 1).min(63)) as f64;
            return lo + (hi - lo) * (half - below) / n;
        }
        below += n;
    }
    0.0
}

/// Server-side layer figures read from the state's own metrics, averaged
/// over the pass's `episodes` states.
pub(crate) fn add_server_layers(out: &mut Outcome, state: &ServerState, episodes: usize) {
    let m = state.metrics();
    let e = episodes as f64;
    let lookups = (m.prior_cache_hits + m.prior_cache_builds) as f64;
    if lookups > 0.0 {
        out.add_layer(
            "serve.cache_hit_ratio",
            m.prior_cache_hits as f64 / lookups / e,
        );
    }
    if m.requests > 0 {
        out.add_layer(
            "serve.bytes_per_request",
            (m.bytes_in + m.bytes_out) as f64 / m.requests as f64 / e,
        );
    }
    out.add_layer(
        "serve.server_latency_us_p50",
        histogram_p50_us(&m.latency_buckets) / e,
    );
}
