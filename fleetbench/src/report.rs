//! Metric definitions, result assembly and output.
//!
//! [`END_TO_END`] and [`PER_LAYER`] are the metric tables `BENCHMARK.json`
//! lists (a test keeps the two in step). The last stdout line of a run is
//! one JSON object with exactly `correct`, `attempted`, `failed` and
//! `metrics`; provenance, span tables and the issue-facing metric names go
//! on the lines before it.

use std::collections::BTreeMap;

use crate::stats;
use crate::trace;
use crate::workloads::Outcome;

/// End-to-end metrics every workload reports, from an untraced run:
/// `(name, unit)`.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("peak_heap_mb", "MB"),
    ("latency_ms_p50", "ms"),
    ("throughput_per_s", "1/s"),
];

/// Per-layer metrics a traced run reports: `(name, unit)`. A layer a
/// workload never calls reads 0 there.
pub const PER_LAYER: [(&str, &str); 44] = [
    ("op.latency_ms_p90", "ms"),
    ("op.peak_rss_mb", "MB"),
    ("op.reference_kernel_us", "us"),
    ("edge.fit_ms", "ms"),
    ("edge.em_rounds", "count"),
    ("edge.eval_accuracy_first", "ratio"),
    ("edge.eval_accuracy", "ratio"),
    ("learner.absorb_us_per_report", "us"),
    ("learner.publish_us", "us"),
    ("learner.admit_ratio", "ratio"),
    ("learner.gated", "count"),
    ("learner.quarantined", "count"),
    ("learner.resamples", "count"),
    ("learner.map_clusters", "count"),
    ("learner.gate_threshold", "nats"),
    ("learner.colluders_admitted_episodes", "count"),
    ("serve.respond_us", "us"),
    ("serve.exchange_us", "us"),
    ("serve.register_us", "us"),
    ("serve.report_us", "us"),
    ("serve.drain_us", "us"),
    ("serve.server_latency_us_p50", "us"),
    ("serve.wait_us", "us"),
    ("serve.fetch_us_p99", "us"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.reconnects", "count"),
    ("serve.retries", "count"),
    ("serve.wouldblock_reads", "count"),
    ("serve.batched_writes", "count"),
    ("serve.bytes_per_request", "bytes"),
    ("sim.legacy_events_per_s", "1/s"),
    ("sim.fabric_events_per_s", "1/s"),
    ("sim.events_executed", "count"),
    ("sim.frames_forwarded", "count"),
    ("sim.messages_dropped", "count"),
    ("sim.bytes_retransmitted", "bytes"),
    ("sim.retx_bytes_per_frame", "bytes/frame"),
    ("alloc.per_op", "count"),
    ("threads.default_policy", "count"),
    ("threads.default_slowdown", "ratio"),
    ("trace.coverage", "ratio"),
    ("trace.overhead", "ratio"),
    ("trace.self_ms_per_op", "ms"),
    ("trace.spans_per_op", "count"),
];

/// Peak resident set size of this process in MiB (VmHWM), 0 where
/// `/proc/self/status` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Seconds the reference kernel takes on the nominal host the end-to-end
/// times are scaled to.
pub const NOMINAL_REFERENCE_S: f64 = 30e-6;

/// The factor that scales this run's wall times to the nominal host: the
/// nominal reference-kernel time over its median in the run (1 when the
/// run timed no reference kernel).
pub fn host_scale(out: &Outcome) -> f64 {
    let measured = stats::median(&out.reference_s);
    if measured > 0.0 {
        NOMINAL_REFERENCE_S / measured
    } else {
        1.0
    }
}

/// End-to-end metric values of an untraced outcome. Times are scaled by
/// [`host_scale`], so a host that runs uniformly faster or slower for a
/// while moves them little; the `#` lines print the raw wall values.
pub fn end_to_end(out: &Outcome) -> BTreeMap<&'static str, f64> {
    let scale = host_scale(out);
    let rates = stats::window_rates(&out.window_units, &out.window_s);
    BTreeMap::from([
        ("setup_s", stats::median(&out.setup_s) * scale),
        (
            "peak_heap_mb",
            stats::median(&out.episode_heap_bytes) / (1024.0 * 1024.0),
        ),
        ("latency_ms_p50", stats::median(&out.op_ms) * scale),
        ("throughput_per_s", stats::median(&rates) / scale),
    ])
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Per-layer metric values from a traced outcome (spans recorded on this
/// thread), the untraced reference passes of the same run (both under the
/// serial thread policy) and one untraced pass under the default policy.
pub fn per_layer(
    traced: &Outcome,
    reference: &Outcome,
    default_policy: &Outcome,
) -> BTreeMap<&'static str, f64> {
    let span = trace::stat;
    let sum = |o: &Outcome, k: &str| o.layer.get(k).copied().unwrap_or(0.0);
    let respond = span("serve.respond");
    let exchange_ns = (span("serve.send").total_ns + span("serve.recv").total_ns)
        .saturating_sub(respond.total_ns);
    let offered = sum(traced, "learner.offered");
    let measured_ns = traced.measured_s() * 1e9;
    let ops = traced.op_ms.len() as f64;
    let spans: u64 = trace::stats().values().map(|s| s.count).sum();
    let op_self_ns: u64 = trace::stats()
        .iter()
        .filter(|(name, _)| name.starts_with(trace::OP_PREFIX))
        .map(|(_, s)| s.self_ns)
        .sum();
    let fetch_p50 = reference.layer_mean("serve.fetch_us_p50");
    let server_p50 = reference.layer_mean("serve.server_latency_us_p50");
    let forwarded = reference.layer_mean("sim.frames_forwarded");
    BTreeMap::from([
        ("op.latency_ms_p90", stats::quantile(&reference.op_ms, 0.9)),
        ("op.peak_rss_mb", peak_rss_mb()),
        (
            "op.reference_kernel_us",
            stats::median(&reference.reference_s) * 1e6,
        ),
        ("edge.fit_ms", span("edge.step").mean_self_us() / 1e3),
        (
            "edge.em_rounds",
            ratio(
                sum(traced, "edge.em_rounds_total"),
                sum(traced, "edge.fits"),
            ),
        ),
        (
            "edge.eval_accuracy_first",
            reference.layer_mean("edge.eval_accuracy_first"),
        ),
        (
            "edge.eval_accuracy",
            reference.layer_mean("edge.eval_accuracy"),
        ),
        (
            "learner.absorb_us_per_report",
            ratio(span("learner.absorb").total_ns as f64 / 1e3, offered),
        ),
        ("learner.publish_us", span("learner.refresh").mean_self_us()),
        (
            "learner.admit_ratio",
            ratio(
                sum(reference, "learner.absorbed"),
                sum(reference, "learner.offered"),
            ),
        ),
        ("learner.gated", reference.layer_mean("learner.gated")),
        (
            "learner.quarantined",
            reference.layer_mean("learner.quarantined"),
        ),
        (
            "learner.resamples",
            reference.layer_mean("learner.resamples"),
        ),
        (
            "learner.map_clusters",
            reference.layer_mean("learner.map_clusters"),
        ),
        (
            "learner.gate_threshold",
            reference.layer_mean("learner.gate_threshold"),
        ),
        (
            "learner.colluders_admitted_episodes",
            reference.layer_mean("learner.colluders_admitted_episodes"),
        ),
        ("serve.respond_us", respond.mean_us()),
        (
            "serve.exchange_us",
            ratio(exchange_ns as f64 / 1e3, respond.count as f64),
        ),
        ("serve.register_us", span("serve.register").mean_us()),
        ("serve.report_us", span("serve.report").mean_us()),
        ("serve.drain_us", span("serve.drain").mean_us()),
        ("serve.server_latency_us_p50", server_p50),
        (
            "serve.wait_us",
            if fetch_p50 > 0.0 {
                fetch_p50 - server_p50
            } else {
                0.0
            },
        ),
        (
            "serve.fetch_us_p99",
            reference.layer_mean("serve.fetch_us_p99"),
        ),
        (
            "serve.cache_hit_ratio",
            reference.layer_mean("serve.cache_hit_ratio"),
        ),
        ("serve.reconnects", reference.layer_mean("serve.reconnects")),
        ("serve.retries", reference.layer_mean("serve.retries")),
        (
            "serve.wouldblock_reads",
            reference.layer_mean("serve.wouldblock_reads"),
        ),
        (
            "serve.batched_writes",
            reference.layer_mean("serve.batched_writes"),
        ),
        (
            "serve.bytes_per_request",
            reference.layer_mean("serve.bytes_per_request"),
        ),
        (
            "sim.legacy_events_per_s",
            reference.layer_mean("sim.legacy_events_per_s"),
        ),
        (
            "sim.fabric_events_per_s",
            reference.layer_mean("sim.fabric_events_per_s"),
        ),
        (
            "sim.events_executed",
            reference.layer_mean("sim.events_executed"),
        ),
        ("sim.frames_forwarded", forwarded),
        (
            "sim.messages_dropped",
            reference.layer_mean("sim.messages_dropped"),
        ),
        (
            "sim.bytes_retransmitted",
            reference.layer_mean("sim.bytes_retransmitted"),
        ),
        (
            "sim.retx_bytes_per_frame",
            ratio(reference.layer_mean("sim.bytes_retransmitted"), forwarded),
        ),
        (
            "alloc.per_op",
            ratio(reference.allocs as f64, reference.units as f64),
        ),
        (
            "threads.default_policy",
            dre_parallel::effective_threads() as f64,
        ),
        (
            "threads.default_slowdown",
            ratio(
                stats::median(&default_policy.op_ms) * host_scale(default_policy),
                stats::median(&reference.op_ms) * host_scale(reference),
            ),
        ),
        (
            "trace.coverage",
            ratio(trace::stage_ns() as f64, measured_ns),
        ),
        (
            "trace.overhead",
            ratio(
                stats::median(&traced.op_ms) * host_scale(traced),
                stats::median(&reference.op_ms) * host_scale(reference),
            ) - 1.0,
        ),
        ("trace.self_ms_per_op", ratio(op_self_ns as f64 / 1e6, ops)),
        ("trace.spans_per_op", ratio(spans as f64, ops)),
    ])
}

/// Formats a finite `f64` as a JSON number with all its digits (non-finite
/// values, which no metric should produce, become 0).
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

/// Escapes a string for a JSON string literal.
pub fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// The result line: `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`
/// with every metric of `table` (missing ones read 0).
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    table: &[(&str, &str)],
    values: &BTreeMap<&'static str, f64>,
) -> String {
    let metrics: Vec<String> = table
        .iter()
        .map(|(name, unit)| {
            let v = values.get(name).copied().unwrap_or(0.0);
            format!("\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}", num(v))
        })
        .collect();
    format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        metrics.join(",")
    )
}

/// The issue-facing names of each workload's end-to-end figures:
/// `(name, unit, generic metric, scale)`; the value is the generic metric
/// times `scale`.
pub fn workload_names(
    workload: &str,
) -> &'static [(&'static str, &'static str, &'static str, f64)] {
    match workload {
        "fleet_round" => &[
            ("round_ms_p50", "ms", "latency_ms_p50", 1.0),
            ("round_ms_p90", "ms", "latency_ms_p90", 1.0),
            ("device_steps_per_s", "1/s", "throughput_per_s", 1.0),
        ],
        "report_ingest" => &[
            ("ingest_ms_p50", "ms", "latency_ms_p50", 1.0),
            ("ingest_ms_p90", "ms", "latency_ms_p90", 1.0),
            ("reports_per_s", "1/s", "throughput_per_s", 1.0),
        ],
        "plane_fetch" => &[
            ("fetch_us_p50", "us", "latency_ms_p50", 1e3),
            ("requests_per_s", "1/s", "throughput_per_s", 1.0),
        ],
        "fleet_sim" => &[("events_per_s", "1/s", "throughput_per_s", 1.0)],
        _ => &[],
    }
}

/// The git revision of the checkout the benchmark was built in, read from
/// `.git` without running git; `None` outside a git checkout.
pub fn git_revision() -> Option<String> {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).parent()?;
    let git = root.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(reference)) {
        return Some(rev.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed
        .lines()
        .find(|l| l.ends_with(reference))
        .and_then(|l| l.split_whitespace().next())
        .map(str::to_string)
}
