//! Order statistics over timing samples.
//!
//! Latencies are medians and upper quantiles of many short fixed-work
//! samples; throughputs are the median rate over fixed-size windows of work.
//! Neither uses totals or means, so a host phase that slows a few samples
//! moves the reported figure little.

/// Linear-interpolated quantile (`q` in `[0, 1]`) of `values`, the same rule
/// as Python's `statistics.quantiles(..., method="inclusive")`. Returns 0
/// for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median of `values` (0 for an empty slice).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Arithmetic mean (0 for an empty slice).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Per-window rates: `ops` completed in each window of `seconds[i]`.
/// Windows of zero length are skipped.
pub fn window_rates(ops: &[u64], seconds: &[f64]) -> Vec<f64> {
    ops.iter()
        .zip(seconds)
        .filter(|(_, &s)| s > 0.0)
        .map(|(&n, &s)| n as f64 / s)
        .collect()
}

/// Times one run of a fixed compute kernel: a dependent floating-point
/// chain over a small array. The benchmark runs it after every window, so
/// its median tracks how fast the host ran while the workload was measured.
/// It stays in the first-level cache, so the workload's own cache footprint
/// does not change it.
pub fn reference_kernel_s() -> f64 {
    let started = std::time::Instant::now();
    let mut acc = [1.0f64; 64];
    for i in 0..8192usize {
        let j = i & 63;
        let k = (j * 7 + 3) & 63;
        acc[j] = acc[j].mul_add(1.000_000_1, acc[k] * 1e-9) + 0.5 / (acc[j] + 1.0);
    }
    std::hint::black_box(&acc);
    started.elapsed().as_secs_f64()
}
