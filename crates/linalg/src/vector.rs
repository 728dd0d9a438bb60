//! Slice-based dense vector kernels.
//!
//! These free functions operate on `&[f64]` / `&mut [f64]` so callers can use
//! plain `Vec<f64>` buffers without wrapping. All binary kernels panic on
//! length mismatch — the lengths are a programming invariant inside this
//! workspace, not runtime data.

/// Dot product `xᵀy`.
///
/// # Panics
///
/// Panics if `x.len() != y.len()`.
#[inline]
pub fn dot(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "dot: length mismatch");
    x.iter().zip(y).map(|(a, b)| a * b).sum()
}

/// Dot product with a fixed four-accumulator unrolling.
///
/// Same value class as [`dot`] but associates differently: terms are folded
/// into four stride-4 accumulators combined as `(a₀+a₁)+(a₂+a₃)` plus a
/// serial tail. The order depends only on the slice length, so results are
/// reproducible — and the independent accumulators let the CPU overlap the
/// multiply-adds in long reductions where [`dot`]'s single serial chain
/// stalls on add latency.
///
/// # Panics
///
/// Panics if `x.len() != y.len()`.
#[inline]
pub fn dot_unrolled(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "dot_unrolled: length mismatch");
    let mut acc = [0.0f64; 4];
    let chunks = x.len() / 4;
    for c in 0..chunks {
        let i = 4 * c;
        acc[0] += x[i] * y[i];
        acc[1] += x[i + 1] * y[i + 1];
        acc[2] += x[i + 2] * y[i + 2];
        acc[3] += x[i + 3] * y[i + 3];
    }
    let mut tail = 0.0;
    for i in 4 * chunks..x.len() {
        tail += x[i] * y[i];
    }
    (acc[0] + acc[1]) + (acc[2] + acc[3]) + tail
}

/// Euclidean (ℓ2) norm `‖x‖₂`.
#[inline]
pub fn norm2(x: &[f64]) -> f64 {
    dot(x, x).sqrt()
}

/// ℓ∞ norm `‖x‖∞` (0 for an empty slice).
#[inline]
pub fn norm_inf(x: &[f64]) -> f64 {
    x.iter().fold(0.0, |m, v| m.max(v.abs()))
}

/// Squared Euclidean distance `‖x − y‖₂²`.
///
/// # Panics
///
/// Panics if `x.len() != y.len()`.
#[inline]
pub fn dist2_sq(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "dist2_sq: length mismatch");
    x.iter().zip(y).map(|(a, b)| (a - b) * (a - b)).sum()
}

/// Euclidean distance `‖x − y‖₂`.
#[inline]
pub fn dist2(x: &[f64], y: &[f64]) -> f64 {
    dist2_sq(x, y).sqrt()
}

/// `y ← a·x + y` (BLAS `axpy`).
///
/// # Panics
///
/// Panics if `x.len() != y.len()`.
#[inline]
pub fn axpy(a: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "axpy: length mismatch");
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += a * xi;
    }
}

/// `x ← a·x`.
#[inline]
pub fn scale(x: &mut [f64], a: f64) {
    for v in x.iter_mut() {
        *v *= a;
    }
}

/// Element-wise sum `x + y` into a new vector.
///
/// # Panics
///
/// Panics if `x.len() != y.len()`.
#[inline]
pub fn add(x: &[f64], y: &[f64]) -> Vec<f64> {
    assert_eq!(x.len(), y.len(), "add: length mismatch");
    x.iter().zip(y).map(|(a, b)| a + b).collect()
}

/// Element-wise difference `x − y` into a new vector.
///
/// # Panics
///
/// Panics if `x.len() != y.len()`.
#[inline]
pub fn sub(x: &[f64], y: &[f64]) -> Vec<f64> {
    assert_eq!(x.len(), y.len(), "sub: length mismatch");
    x.iter().zip(y).map(|(a, b)| a - b).collect()
}

/// Scaled copy `a·x` into a new vector.
#[inline]
pub fn scaled(x: &[f64], a: f64) -> Vec<f64> {
    x.iter().map(|v| a * v).collect()
}

/// Arithmetic mean of the entries (0 for an empty slice).
#[inline]
pub fn mean(x: &[f64]) -> f64 {
    if x.is_empty() {
        0.0
    } else {
        x.iter().sum::<f64>() / x.len() as f64
    }
}

/// Sample variance with `ddof` delta degrees of freedom
/// (`ddof = 1` gives the unbiased estimator). Returns 0 when
/// `x.len() <= ddof`.
pub fn variance(x: &[f64], ddof: usize) -> f64 {
    if x.len() <= ddof {
        return 0.0;
    }
    let m = mean(x);
    let ss: f64 = x.iter().map(|v| (v - m) * (v - m)).sum();
    ss / (x.len() - ddof) as f64
}

/// Numerically-stable log-sum-exp `log Σᵢ exp(xᵢ)`.
///
/// Returns `-inf` for an empty slice (the sum of zero terms).
pub fn log_sum_exp(x: &[f64]) -> f64 {
    let m = x.iter().fold(f64::NEG_INFINITY, |a, &b| a.max(b));
    if m.is_infinite() && m < 0.0 {
        return f64::NEG_INFINITY;
    }
    let s: f64 = x.iter().map(|v| (v - m).exp()).sum();
    m + s.ln()
}

/// Normalize log-weights in place into probabilities summing to 1.
///
/// Accepts arbitrary (finite or `-inf`) log-weights; after the call the slice
/// holds a probability vector. If all entries are `-inf`, produces the
/// uniform distribution.
pub fn softmax_in_place(logw: &mut [f64]) {
    if logw.is_empty() {
        return;
    }
    let lse = log_sum_exp(logw);
    if lse.is_infinite() {
        let u = 1.0 / logw.len() as f64;
        for v in logw.iter_mut() {
            *v = u;
        }
        return;
    }
    for v in logw.iter_mut() {
        *v = (*v - lse).exp();
    }
}

/// True when every entry is finite.
#[inline]
pub fn all_finite(x: &[f64]) -> bool {
    x.iter().all(|v| v.is_finite())
}

/// Maximum absolute difference between two vectors.
///
/// # Panics
///
/// Panics if `x.len() != y.len()`.
pub fn max_abs_diff(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "max_abs_diff: length mismatch");
    x.iter()
        .zip(y)
        .fold(0.0, |m, (a, b)| m.max((a - b).abs()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn dot_and_norms() {
        let x = [3.0, 4.0];
        assert_eq!(dot(&x, &x), 25.0);
        assert_eq!(norm2(&x), 5.0);
        assert_eq!(norm_inf(&x), 4.0);
        assert_eq!(norm_inf(&[]), 0.0);
    }

    #[test]
    fn axpy_accumulates() {
        let x = [1.0, 2.0, 3.0];
        let mut y = [10.0, 10.0, 10.0];
        axpy(2.0, &x, &mut y);
        assert_eq!(y, [12.0, 14.0, 16.0]);
    }

    #[test]
    fn add_sub_scale_roundtrip() {
        let x = [1.0, -2.0];
        let y = [0.5, 4.0];
        let s = add(&x, &y);
        let d = sub(&s, &y);
        assert_eq!(d, x.to_vec());
        let mut z = x.to_vec();
        scale(&mut z, -1.0);
        assert_eq!(z, [-1.0, 2.0]);
        assert_eq!(scaled(&x, 3.0), vec![3.0, -6.0]);
    }

    #[test]
    fn mean_variance_known_values() {
        let x = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((mean(&x) - 5.0).abs() < 1e-12);
        assert!((variance(&x, 0) - 4.0).abs() < 1e-12);
        // Unbiased: ss = 32, n-1 = 7.
        assert!((variance(&x, 1) - 32.0 / 7.0).abs() < 1e-12);
        assert_eq!(variance(&[1.0], 1), 0.0);
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn log_sum_exp_is_stable_for_large_inputs() {
        let x = [1000.0, 1000.0];
        let lse = log_sum_exp(&x);
        assert!((lse - (1000.0 + 2.0_f64.ln())).abs() < 1e-9);
        assert_eq!(log_sum_exp(&[]), f64::NEG_INFINITY);
        assert_eq!(log_sum_exp(&[f64::NEG_INFINITY]), f64::NEG_INFINITY);
    }

    #[test]
    fn softmax_handles_degenerate_input() {
        let mut w = [f64::NEG_INFINITY, f64::NEG_INFINITY];
        softmax_in_place(&mut w);
        assert_eq!(w, [0.5, 0.5]);

        let mut w = [0.0, (2.0_f64).ln()];
        softmax_in_place(&mut w);
        assert!((w[0] - 1.0 / 3.0).abs() < 1e-12);
        assert!((w[1] - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn dist_matches_norm_of_difference() {
        let x = [1.0, 2.0, 3.0];
        let y = [4.0, 6.0, 3.0];
        assert!((dist2(&x, &y) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn finite_checks() {
        assert!(all_finite(&[1.0, 2.0]));
        assert!(!all_finite(&[1.0, f64::NAN]));
        assert!(!all_finite(&[f64::INFINITY]));
    }

    proptest! {
        #[test]
        fn prop_softmax_sums_to_one(v in proptest::collection::vec(-50.0..50.0f64, 1..20)) {
            let mut w = v.clone();
            softmax_in_place(&mut w);
            let s: f64 = w.iter().sum();
            prop_assert!((s - 1.0).abs() < 1e-9);
            prop_assert!(w.iter().all(|p| (0.0..=1.0).contains(p)));
        }

        #[test]
        fn prop_cauchy_schwarz(
            x in proptest::collection::vec(-10.0..10.0f64, 1..16),
            y in proptest::collection::vec(-10.0..10.0f64, 1..16),
        ) {
            let n = x.len().min(y.len());
            let (x, y) = (&x[..n], &y[..n]);
            prop_assert!(dot(x, y).abs() <= norm2(x) * norm2(y) + 1e-9);
        }

        #[test]
        fn prop_triangle_inequality(
            x in proptest::collection::vec(-10.0..10.0f64, 4),
            y in proptest::collection::vec(-10.0..10.0f64, 4),
        ) {
            prop_assert!(norm2(&add(&x, &y)) <= norm2(&x) + norm2(&y) + 1e-9);
        }

        #[test]
        fn prop_log_sum_exp_bounds(v in proptest::collection::vec(-30.0..30.0f64, 1..12)) {
            let lse = log_sum_exp(&v);
            let max = v.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            prop_assert!(lse >= max - 1e-12);
            prop_assert!(lse <= max + (v.len() as f64).ln() + 1e-12);
        }
    }
}
