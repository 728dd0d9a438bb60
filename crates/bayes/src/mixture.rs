//! The finite mixture summary of a fitted Dirichlet-process posterior, as
//! transferred from cloud to edge.

use dre_linalg::{Cholesky, Matrix};
use dre_prob::MvNormal;
use rand::Rng;

use crate::{BayesError, Result};

/// One Gaussian component `(w, μ, Σ)` of a [`MixturePrior`].
#[derive(Debug, Clone)]
pub struct MixtureComponent {
    weight: f64,
    density: MvNormal,
    precision: Matrix,
}

impl MixtureComponent {
    /// Mixture weight `w` (already normalized by the parent prior).
    pub fn weight(&self) -> f64 {
        self.weight
    }

    /// Component mean `μ`.
    pub fn mean(&self) -> &[f64] {
        self.density.mean()
    }

    /// Component covariance `Σ`.
    pub fn cov(&self) -> Matrix {
        self.density.cov()
    }

    /// Component precision `Σ⁻¹`.
    pub fn precision(&self) -> &Matrix {
        &self.precision
    }

    /// Gaussian density of the component.
    pub fn density(&self) -> &MvNormal {
        &self.density
    }
}

/// Convex quadratic majorizer of `−log π(θ)` produced by an E-step.
///
/// For responsibilities `r` computed at an anchor `θ_t`, Jensen's inequality
/// gives the surrogate
///
/// ```text
/// q(θ) = Σ_k r_k · ½ (θ − μ_k)ᵀ Σ_k⁻¹ (θ − μ_k)
///      + Σ_k r_k · (ln r_k − ln w_k + ½ ln det(2π Σ_k))
/// ```
///
/// with the defining majorization properties (both unit-tested):
///
/// * `q(θ) ≥ −log π(θ)` for every `θ`;
/// * `q(θ_t) = −log π(θ_t)` (tight at the anchor).
///
/// The quadratic is stored as `q(θ) = ½ θᵀAθ − bᵀθ + c` with `A ⪰ 0`, so the
/// M-step of the paper's EM scheme stays convex.
#[derive(Debug, Clone)]
pub struct QuadraticSurrogate {
    a: Matrix,
    b: Vec<f64>,
    c: f64,
}

impl QuadraticSurrogate {
    /// The quadratic coefficient matrix `A = Σ_k r_k Σ_k⁻¹` (symmetric PSD).
    pub fn a(&self) -> &Matrix {
        &self.a
    }

    /// The linear coefficient `b = Σ_k r_k Σ_k⁻¹ μ_k`.
    pub fn b(&self) -> &[f64] {
        &self.b
    }

    /// The constant term `c`.
    pub fn c(&self) -> f64 {
        self.c
    }

    /// Surrogate value `½ θᵀAθ − bᵀθ + c`.
    ///
    /// # Panics
    ///
    /// Panics when `theta.len()` differs from the surrogate dimension.
    pub fn value(&self, theta: &[f64]) -> f64 {
        let q = self.a.quad_form(theta).expect("surrogate is square");
        0.5 * q - dre_linalg::vector::dot(&self.b, theta) + self.c
    }

    /// Surrogate gradient `Aθ − b`.
    ///
    /// # Panics
    ///
    /// Panics when `theta.len()` differs from the surrogate dimension.
    pub fn gradient(&self, theta: &[f64]) -> Vec<f64> {
        let mut g = self.a.matvec(theta).expect("surrogate is square");
        for (gi, bi) in g.iter_mut().zip(&self.b) {
            *gi -= bi;
        }
        g
    }

    /// Surrogate value, with `scale·(Aθ − b)` added into `grad`.
    ///
    /// `Aθ` is formed once, a row at a time, and serves both the value and
    /// the gradient, with no allocation. Bit for bit this is
    /// [`value`](Self::value) plus `grad += scale·gradient(θ)`:
    /// `quad_form(θ)` is `dot(θ, Aθ)` over the same row products, summed in
    /// the same order.
    ///
    /// # Panics
    ///
    /// Panics when `theta.len()` or `grad.len()` differs from the surrogate
    /// dimension.
    pub fn value_adding_gradient(&self, theta: &[f64], scale: f64, grad: &mut [f64]) -> f64 {
        let dim = self.b.len();
        assert!(
            theta.len() == dim && grad.len() == dim,
            "surrogate dimension mismatch"
        );
        let q: f64 = theta
            .iter()
            .zip(grad.iter_mut())
            .zip(&self.b)
            .enumerate()
            .map(|(i, ((&t, g), &bi))| {
                let a_theta = dre_linalg::vector::dot(self.a.row(i), theta);
                *g += scale * (a_theta - bi);
                t * a_theta
            })
            .sum();
        0.5 * q - dre_linalg::vector::dot(&self.b, theta) + self.c
    }

    /// Unconstrained minimizer `θ* = A⁻¹ b` of the surrogate.
    ///
    /// # Errors
    ///
    /// Returns a factorization error when `A` is singular (all
    /// responsibilities zero — cannot happen for responsibilities produced by
    /// [`MixturePrior::responsibilities`]).
    pub fn minimizer(&self) -> Result<Vec<f64>> {
        let chol = Cholesky::new_with_jitter(&self.a, 1e-6).map_err(BayesError::from)?;
        chol.solve(&self.b).map_err(BayesError::from)
    }
}

/// A finite Gaussian mixture `π(θ) = Σ_k w_k N(θ; μ_k, Σ_k)` — the cloud's
/// fitted (truncated) Dirichlet-process posterior over edge model
/// parameters.
///
/// This is the artifact the cloud serializes and ships to edge devices, and
/// the object the edge-side EM algorithm interrogates each iteration.
///
/// # Example
///
/// ```
/// use dre_linalg::Matrix;
/// use dre_bayes::MixturePrior;
///
/// # fn main() -> Result<(), dre_bayes::BayesError> {
/// let prior = MixturePrior::new(vec![
///     (0.5, vec![0.0, 0.0], Matrix::identity(2)),
///     (0.5, vec![5.0, 5.0], Matrix::identity(2)),
/// ])?;
/// let r = prior.responsibilities(&[4.9, 5.1]);
/// assert!(r[1] > 0.99); // the point clearly belongs to the second mode
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct MixturePrior {
    components: Vec<MixtureComponent>,
    log_weights: Vec<f64>,
}

impl MixturePrior {
    /// Builds a mixture prior from `(weight, mean, covariance)` triples.
    /// Weights are normalized to sum to one.
    ///
    /// # Errors
    ///
    /// * [`BayesError::InvalidData`] when the list is empty, dimensions are
    ///   inconsistent, or all weights are zero.
    /// * [`BayesError::InvalidParameter`] for negative or non-finite
    ///   weights.
    /// * [`BayesError::Prob`] when a covariance is not positive
    ///   (semi-)definite.
    pub fn new(components: Vec<(f64, Vec<f64>, Matrix)>) -> Result<Self> {
        if components.is_empty() {
            return Err(BayesError::InvalidData {
                reason: "mixture prior needs at least one component",
            });
        }
        let d = components[0].1.len();
        let mut total = 0.0;
        for (w, mean, cov) in &components {
            if !(*w >= 0.0 && w.is_finite()) {
                return Err(BayesError::InvalidParameter {
                    what: "mixture_prior",
                    param: "weight",
                    value: *w,
                });
            }
            if mean.len() != d || cov.shape() != (d, d) {
                return Err(BayesError::InvalidData {
                    reason: "mixture components have inconsistent dimensions",
                });
            }
            total += w;
        }
        if total <= 0.0 {
            return Err(BayesError::InvalidData {
                reason: "all mixture weights are zero",
            });
        }
        let mut built = Vec::with_capacity(components.len());
        let mut log_weights = Vec::with_capacity(components.len());
        for (w, mean, cov) in components {
            let weight = w / total;
            let density = MvNormal::new(mean, &cov)?;
            let precision = density.cov_cholesky().inverse();
            log_weights.push(if weight > 0.0 {
                weight.ln()
            } else {
                f64::NEG_INFINITY
            });
            built.push(MixtureComponent {
                weight,
                density,
                precision,
            });
        }
        Ok(MixturePrior {
            components: built,
            log_weights,
        })
    }

    /// Builds a single-component (plain Gaussian) prior — the degenerate
    /// case used by non-DP transfer baselines.
    ///
    /// # Errors
    ///
    /// Same conditions as [`MixturePrior::new`].
    pub fn single(mean: Vec<f64>, cov: Matrix) -> Result<Self> {
        Self::new(vec![(1.0, mean, cov)])
    }

    /// Number of mixture components `K`.
    pub fn num_components(&self) -> usize {
        self.components.len()
    }

    /// Parameter dimension `d`.
    pub fn dim(&self) -> usize {
        self.components[0].density.dim()
    }

    /// The components, in construction order.
    pub fn components(&self) -> &[MixtureComponent] {
        &self.components
    }

    /// Log-density `log π(θ) = log Σ_k w_k N(θ; μ_k, Σ_k)`.
    pub fn log_pdf(&self, theta: &[f64]) -> f64 {
        dre_linalg::vector::log_sum_exp(&self.weighted_log_densities(theta))
    }

    /// E-step responsibilities `r_k ∝ w_k N(θ; μ_k, Σ_k)` (normalized).
    pub fn responsibilities(&self, theta: &[f64]) -> Vec<f64> {
        let mut r = self.weighted_log_densities(theta);
        dre_linalg::vector::softmax_in_place(&mut r);
        r
    }

    /// The per-component terms `log w_k + log N(θ; μ_k, Σ_k)`.
    fn weighted_log_densities(&self, theta: &[f64]) -> Vec<f64> {
        self.log_weights
            .iter()
            .zip(&self.components)
            .map(|(lw, c)| lw + c.density.log_pdf(theta))
            .collect()
    }

    /// Builds the convex quadratic majorizer of `−log π(θ)` that is tight at
    /// the anchor producing `responsibilities` (the paper's E-step output).
    ///
    /// # Errors
    ///
    /// Returns [`BayesError::InvalidData`] when `responsibilities.len()`
    /// differs from the number of components or is not a probability vector.
    pub fn em_surrogate(&self, responsibilities: &[f64]) -> Result<QuadraticSurrogate> {
        if responsibilities.len() != self.components.len() {
            return Err(BayesError::InvalidData {
                reason: "responsibility vector length mismatch",
            });
        }
        let sum: f64 = responsibilities.iter().sum();
        if (sum - 1.0).abs() > 1e-6 || responsibilities.iter().any(|&r| r < 0.0) {
            return Err(BayesError::InvalidData {
                reason: "responsibilities must form a probability vector",
            });
        }
        let d = self.dim();
        let mut a = Matrix::zeros(d, d);
        let mut b = vec![0.0; d];
        let mut c = 0.0;
        let ln_2pi = (2.0 * std::f64::consts::PI).ln();
        for ((comp, &lw), &r) in self
            .components
            .iter()
            .zip(&self.log_weights)
            .zip(responsibilities)
        {
            if r == 0.0 {
                continue;
            }
            // A += r·P_k ; b += r·P_k μ_k.
            a = a
                .add(&comp.precision.scaled(r))
                .expect("dimension invariant");
            let pm = comp
                .precision
                .matvec(comp.mean())
                .expect("dimension invariant");
            dre_linalg::vector::axpy(r, &pm, &mut b);
            // Constant: r (ln r − ln w_k + ½ ln det(2πΣ_k)) + ½ r μᵀPμ.
            let log_det_sigma = comp.density.cov_cholesky().log_det();
            c += r * (r.ln() - lw + 0.5 * (d as f64 * ln_2pi + log_det_sigma));
            c += 0.5 * r * dre_linalg::vector::dot(&pm, comp.mean());
        }
        a.symmetrize();
        Ok(QuadraticSurrogate { a, b, c })
    }

    /// Draws a parameter vector from the mixture.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Vec<f64> {
        let u: f64 = rng.gen_range(0.0..1.0);
        let mut acc = 0.0;
        for comp in &self.components {
            acc += comp.weight;
            if u < acc {
                return comp.density.sample(rng);
            }
        }
        self.components
            .last()
            .expect("nonempty by construction")
            .density
            .sample(rng)
    }

    /// Size in bytes of the serialized prior — `K` weights plus `K` means
    /// (`d` floats) plus `K` covariances (`d(d+1)/2` floats, symmetric),
    /// 8 bytes each.
    ///
    /// Used by the communication-cost experiment (E9) to compare prior
    /// transfer against raw-data upload.
    pub fn serialized_size_bytes(&self) -> usize {
        let d = self.dim();
        let k = self.num_components();
        8 * (k + k * d + k * d * (d + 1) / 2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dre_prob::seeded_rng;
    use proptest::prelude::*;

    fn two_mode_prior() -> MixturePrior {
        MixturePrior::new(vec![
            (0.3, vec![0.0, 0.0], Matrix::identity(2)),
            (0.7, vec![4.0, -4.0], Matrix::from_diag(&[2.0, 0.5])),
        ])
        .unwrap()
    }

    #[test]
    fn construction_validation() {
        assert!(MixturePrior::new(vec![]).is_err());
        assert!(MixturePrior::new(vec![(-1.0, vec![0.0], Matrix::identity(1))]).is_err());
        assert!(MixturePrior::new(vec![(0.0, vec![0.0], Matrix::identity(1))]).is_err());
        assert!(MixturePrior::new(vec![
            (1.0, vec![0.0], Matrix::identity(1)),
            (1.0, vec![0.0, 1.0], Matrix::identity(2)),
        ])
        .is_err());
        assert!(MixturePrior::new(vec![(1.0, vec![0.0], Matrix::from_diag(&[-1.0]))]).is_err());
        let p = two_mode_prior();
        assert_eq!(p.num_components(), 2);
        assert_eq!(p.dim(), 2);
        assert!((p.components()[0].weight() - 0.3).abs() < 1e-12);
    }

    #[test]
    fn weights_are_normalized() {
        let p = MixturePrior::new(vec![
            (2.0, vec![0.0], Matrix::identity(1)),
            (6.0, vec![1.0], Matrix::identity(1)),
        ])
        .unwrap();
        assert!((p.components()[0].weight() - 0.25).abs() < 1e-12);
        assert!((p.components()[1].weight() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn log_pdf_matches_manual_mixture() {
        let p = two_mode_prior();
        let theta = [1.0, -1.0];
        let c0 = MvNormal::new(vec![0.0, 0.0], &Matrix::identity(2)).unwrap();
        let c1 = MvNormal::new(vec![4.0, -4.0], &Matrix::from_diag(&[2.0, 0.5])).unwrap();
        let manual = (0.3 * c0.log_pdf(&theta).exp() + 0.7 * c1.log_pdf(&theta).exp()).ln();
        assert!((p.log_pdf(&theta) - manual).abs() < 1e-12);
    }

    #[test]
    fn responsibilities_identify_the_active_mode() {
        let p = two_mode_prior();
        let r0 = p.responsibilities(&[0.0, 0.0]);
        assert!(r0[0] > 0.99);
        let r1 = p.responsibilities(&[4.0, -4.0]);
        assert!(r1[1] > 0.99);
        let sum: f64 = r0.iter().sum();
        assert!((sum - 1.0).abs() < 1e-12);
    }

    #[test]
    fn surrogate_is_tight_at_anchor_and_majorizes() {
        let p = two_mode_prior();
        let anchor = [1.5, -2.0];
        let r = p.responsibilities(&anchor);
        let q = p.em_surrogate(&r).unwrap();
        // Tightness at the anchor.
        assert!(
            (q.value(&anchor) + p.log_pdf(&anchor)).abs() < 1e-9,
            "q={} vs -logpdf={}",
            q.value(&anchor),
            -p.log_pdf(&anchor)
        );
        // Majorization at other points.
        let mut rng = seeded_rng(21);
        for _ in 0..200 {
            // Fully qualified: both rand's and proptest's preludes export an
            // `Rng` trait, so method syntax would be ambiguous here.
            let theta = [
                rand::Rng::gen_range(&mut rng, -8.0..8.0_f64),
                rand::Rng::gen_range(&mut rng, -8.0..8.0_f64),
            ];
            assert!(
                q.value(&theta) >= -p.log_pdf(&theta) - 1e-9,
                "majorization violated at {theta:?}"
            );
        }
    }

    #[test]
    fn surrogate_gradient_matches_finite_difference() {
        let p = two_mode_prior();
        let anchor = [0.7, 0.1];
        let q = p.em_surrogate(&p.responsibilities(&anchor)).unwrap();
        let g = q.gradient(&anchor);
        let h = 1e-6;
        for i in 0..2 {
            let mut plus = anchor;
            plus[i] += h;
            let mut minus = anchor;
            minus[i] -= h;
            let fd = (q.value(&plus) - q.value(&minus)) / (2.0 * h);
            assert!((g[i] - fd).abs() < 1e-5);
        }
    }

    #[test]
    fn surrogate_minimizer_solves_normal_equations() {
        let p = two_mode_prior();
        let q = p.em_surrogate(&p.responsibilities(&[2.0, -2.0])).unwrap();
        let m = q.minimizer().unwrap();
        let g = q.gradient(&m);
        assert!(dre_linalg::vector::norm_inf(&g) < 1e-9);
        // Minimizer value is below the anchor value.
        assert!(q.value(&m) <= q.value(&[2.0, -2.0]) + 1e-12);
    }

    #[test]
    fn surrogate_rejects_bad_responsibilities() {
        let p = two_mode_prior();
        assert!(p.em_surrogate(&[1.0]).is_err());
        assert!(p.em_surrogate(&[0.9, 0.3]).is_err());
        assert!(p.em_surrogate(&[-0.1, 1.1]).is_err());
    }

    #[test]
    fn sampling_respects_weights() {
        let p = two_mode_prior();
        let mut rng = seeded_rng(31);
        let n = 20_000;
        let frac_right = (0..n)
            .map(|_| p.sample(&mut rng))
            .filter(|s| s[0] > 2.0)
            .count() as f64
            / n as f64;
        // P(x₀ > 2) = 0.3·P(N(0,1) > 2) + 0.7·P(N(4,√2) > 2).
        let expected = 0.3 * (1.0 - dre_prob::special::std_normal_cdf(2.0))
            + 0.7 * (1.0 - dre_prob::special::std_normal_cdf((2.0 - 4.0) / 2.0f64.sqrt()));
        assert!(
            (frac_right - expected).abs() < 0.015,
            "got {frac_right}, expected {expected}"
        );
    }

    #[test]
    fn serialized_size_formula() {
        let p = two_mode_prior();
        // K=2, d=2: 8·(2 + 4 + 2·3) = 8·12 = 96.
        assert_eq!(p.serialized_size_bytes(), 96);
        let single = MixturePrior::single(vec![0.0; 3], Matrix::identity(3)).unwrap();
        // K=1, d=3: 8·(1 + 3 + 6) = 80.
        assert_eq!(single.serialized_size_bytes(), 80);
    }

    proptest! {
        #[test]
        fn prop_responsibilities_normalize(
            x in -10.0..10.0f64, y in -10.0..10.0f64
        ) {
            let p = two_mode_prior();
            let r = p.responsibilities(&[x, y]);
            let s: f64 = r.iter().sum();
            prop_assert!((s - 1.0).abs() < 1e-9);
            let q = p.em_surrogate(&r).unwrap();
            // Tightness holds at every anchor.
            prop_assert!((q.value(&[x, y]) + p.log_pdf(&[x, y])).abs() < 1e-7);
        }
    }
}
