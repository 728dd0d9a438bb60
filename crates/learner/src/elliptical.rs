//! Elliptical slice sampling (Murray, Adams & MacKay, 2010) for targets of
//! the form `p(f) ∝ N(f; m, Σ) · L(f)`.
//!
//! The sampler needs no step size and no gradient: it draws an auxiliary
//! point on the ellipse through the current state and a fresh prior sample,
//! then shrinks the angle bracket until the likelihood threshold is met.
//! Every proposal lies exactly on the prior ellipse, so the move is always
//! accepted — the loop below terminates with probability one because the
//! bracket contracts toward the current state, where the threshold holds by
//! construction.
//!
//! The learner uses this as its optional resample-move rejuvenation kernel
//! on cluster means, where the target is conjugate and the exact posterior
//! mean is known in closed form — which is what makes the kernel unit-
//! testable against ground truth.

use dre_prob::MvNormal;
use rand::Rng;
use std::f64::consts::TAU;

/// One elliptical slice move for the target `N(f; prior) · exp(log_lik(f))`,
/// starting from `current`. Consumes a prior draw plus `O(1)` uniforms from
/// `rng`; deterministic given the RNG state.
///
/// # Panics
///
/// Panics when `current.len()` differs from the prior dimension.
pub fn elliptical_slice_step<R, L>(
    prior: &MvNormal,
    log_lik: L,
    current: &[f64],
    rng: &mut R,
) -> Vec<f64>
where
    R: Rng + ?Sized,
    L: Fn(&[f64]) -> f64,
{
    assert_eq!(
        current.len(),
        prior.dim(),
        "elliptical slice state dimension mismatch"
    );
    let m = prior.mean();
    // ν ~ N(0, Σ): sample around the prior mean, then center.
    let mut v = prior.sample(rng);
    for (vi, mi) in v.iter_mut().zip(m) {
        *vi -= mi;
    }
    // ln u < 0 almost surely, so the threshold sits strictly below the
    // current likelihood and the shrinking bracket must terminate.
    let log_y = log_lik(current) + rng.gen_range(0.0f64..1.0).ln();
    let mut theta: f64 = rng.gen_range(0.0..TAU);
    let mut lo = theta - TAU;
    let mut hi = theta;
    loop {
        let (sin, cos) = theta.sin_cos();
        let proposal: Vec<f64> = current
            .iter()
            .zip(m)
            .zip(&v)
            .map(|((&f, &mi), &vi)| mi + (f - mi) * cos + vi * sin)
            .collect();
        if log_lik(&proposal) > log_y {
            return proposal;
        }
        if theta < 0.0 {
            lo = theta;
        } else {
            hi = theta;
        }
        theta = rng.gen_range(lo..hi);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dre_linalg::Matrix;
    use dre_prob::seeded_rng;

    /// With a Gaussian likelihood the chain's stationary mean is available
    /// in closed form: prior `N(μ₀, Σ/κ₀)` times likelihood
    /// `exp(−½·n·(f−x̄)ᵀΣ⁻¹(f−x̄))` has posterior mean
    /// `(κ₀μ₀ + n·x̄)/(κ₀ + n)` — the conjugate NIW mean update.
    #[test]
    fn chain_mean_matches_the_conjugate_posterior_mean() {
        let kappa0 = 0.5;
        let n = 8.0;
        let mu0 = [1.0, -2.0];
        let xbar = [3.0, 4.0];
        let sigma = Matrix::from_rows(&[&[1.0, 0.3], &[0.3, 0.8]]).unwrap();
        let prior = MvNormal::new(mu0.to_vec(), &sigma.scaled(1.0 / kappa0)).unwrap();
        let chol = prior.cov_cholesky();
        let log_lik = |f: &[f64]| {
            // (Σ/κ₀)⁻¹ = κ₀·Σ⁻¹ ⇒ rescale the factored Mahalanobis form.
            -0.5 * n * chol.mahalanobis_sq(f, &xbar).unwrap() / kappa0
        };
        let expected: Vec<f64> = mu0
            .iter()
            .zip(&xbar)
            .map(|(&m, &x)| (kappa0 * m + n * x) / (kappa0 + n))
            .collect();

        let mut rng = seeded_rng(91);
        let mut f = mu0.to_vec();
        let mut mean = [0.0; 2];
        let burn = 200;
        let keep = 4000;
        for i in 0..(burn + keep) {
            f = elliptical_slice_step(&prior, log_lik, &f, &mut rng);
            if i >= burn {
                for (acc, v) in mean.iter_mut().zip(&f) {
                    *acc += v / keep as f64;
                }
            }
        }
        for (m, e) in mean.iter().zip(&expected) {
            assert!((m - e).abs() < 0.05, "chain mean {m} vs conjugate mean {e}");
        }
    }

    #[test]
    fn is_deterministic_given_the_rng_state() {
        let prior = MvNormal::isotropic(vec![0.0, 0.0], 1.0).unwrap();
        let log_lik = |f: &[f64]| -f.iter().map(|v| v * v).sum::<f64>();
        let mut a = seeded_rng(5);
        let mut b = seeded_rng(5);
        let x = vec![0.5, -0.5];
        assert_eq!(
            elliptical_slice_step(&prior, log_lik, &x, &mut a),
            elliptical_slice_step(&prior, log_lik, &x, &mut b)
        );
    }
}
