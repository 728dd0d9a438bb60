//! Normal-Inverse-Wishart conjugate prior.

use dre_linalg::{Cholesky, Matrix};

use crate::special::{ln_mv_gamma, LN_PI};
use crate::{MvStudentT, ProbError, Result};

/// Running sufficient statistics `(n, Σx, Σxxᵀ)` of a set of vectors,
/// supporting O(d²) insertion and removal.
///
/// The collapsed Gibbs sampler in `dre-bayes` moves points between clusters
/// thousands of times per sweep; these statistics let each move update the
/// cluster posterior without revisiting the cluster's members.
#[derive(Debug, Clone, PartialEq)]
pub struct NiwSufficientStats {
    n: usize,
    sum: Vec<f64>,
    outer: Matrix,
}

impl NiwSufficientStats {
    /// Creates empty statistics for dimension `d`.
    pub fn new(d: usize) -> Self {
        NiwSufficientStats {
            n: 0,
            sum: vec![0.0; d],
            outer: Matrix::zeros(d, d),
        }
    }

    /// Accumulates statistics over an iterator of points.
    ///
    /// # Panics
    ///
    /// Panics if any point's dimension differs from `d`.
    pub fn from_points<'a, I: IntoIterator<Item = &'a [f64]>>(d: usize, points: I) -> Self {
        let mut s = Self::new(d);
        for p in points {
            s.insert(p);
        }
        s
    }

    /// Number of accumulated points.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True when no points are accumulated.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Dimension `d`.
    pub fn dim(&self) -> usize {
        self.sum.len()
    }

    /// Adds a point.
    ///
    /// # Panics
    ///
    /// Panics when `x.len() != self.dim()`.
    pub fn insert(&mut self, x: &[f64]) {
        assert_eq!(x.len(), self.sum.len(), "sufficient stats dimension mismatch");
        self.n += 1;
        for (s, &v) in self.sum.iter_mut().zip(x) {
            *s += v;
        }
        for i in 0..x.len() {
            for j in 0..x.len() {
                self.outer[(i, j)] += x[i] * x[j];
            }
        }
    }

    /// Removes a previously inserted point.
    ///
    /// # Panics
    ///
    /// Panics when `x.len() != self.dim()` or when the statistics are empty.
    pub fn remove(&mut self, x: &[f64]) {
        assert_eq!(x.len(), self.sum.len(), "sufficient stats dimension mismatch");
        assert!(self.n > 0, "cannot remove from empty sufficient stats");
        self.n -= 1;
        for (s, &v) in self.sum.iter_mut().zip(x) {
            *s -= v;
        }
        for i in 0..x.len() {
            for j in 0..x.len() {
                self.outer[(i, j)] -= x[i] * x[j];
            }
        }
    }

    /// Merges another set of statistics into this one: afterwards these
    /// statistics describe the union of both point sets. `O(d²)`, without
    /// revisiting either side's members — the streaming-learner path for
    /// pooling per-cluster statistics across batches or particles.
    ///
    /// # Panics
    ///
    /// Panics when the dimensions differ.
    pub fn merge(&mut self, other: &NiwSufficientStats) {
        assert_eq!(
            self.sum.len(),
            other.sum.len(),
            "sufficient stats dimension mismatch"
        );
        self.n += other.n;
        for (s, &v) in self.sum.iter_mut().zip(&other.sum) {
            *s += v;
        }
        for i in 0..self.sum.len() {
            for j in 0..self.sum.len() {
                self.outer[(i, j)] += other.outer[(i, j)];
            }
        }
    }

    /// Sample mean `x̄` (the zero vector when empty).
    pub fn mean(&self) -> Vec<f64> {
        if self.n == 0 {
            return vec![0.0; self.sum.len()];
        }
        dre_linalg::vector::scaled(&self.sum, 1.0 / self.n as f64)
    }

    /// Centered scatter matrix `S = Σxxᵀ − n·x̄x̄ᵀ`, symmetrized.
    pub fn scatter(&self) -> Matrix {
        if self.n == 0 {
            return Matrix::zeros(self.dim(), self.dim());
        }
        let xbar = self.mean();
        let mut s = self
            .outer
            .sub(&Matrix::outer(&xbar, &xbar).scaled(self.n as f64))
            .expect("dimension invariant");
        s.symmetrize();
        s
    }
}

/// Normal-Inverse-Wishart prior `NIW(μ₀, λ₀, Ψ₀, ν₀)` over the mean and
/// covariance of a multivariate normal.
///
/// The conjugate structure gives closed forms for everything the Dirichlet-
/// process machinery needs:
///
/// * [`NormalInverseWishart::posterior`] — exact posterior after observing
///   data (summarized by [`NiwSufficientStats`]);
/// * [`NormalInverseWishart::posterior_predictive`] — a multivariate
///   Student-t;
/// * [`NormalInverseWishart::log_marginal_likelihood`] — the collapsed
///   cluster likelihood driving Gibbs moves.
///
/// # Example
///
/// ```
/// use dre_linalg::Matrix;
/// use dre_prob::{NormalInverseWishart, NiwSufficientStats};
///
/// # fn main() -> Result<(), dre_prob::ProbError> {
/// let prior = NormalInverseWishart::new(
///     vec![0.0, 0.0], 1.0, Matrix::identity(2), 4.0)?;
/// let pts: Vec<Vec<f64>> = vec![vec![1.0, 1.0], vec![1.2, 0.8]];
/// let stats = NiwSufficientStats::from_points(2, pts.iter().map(|p| p.as_slice()));
/// let post = prior.posterior(&stats)?;
/// // Posterior mean moves toward the data.
/// assert!(post.mu0()[0] > 0.5);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct NormalInverseWishart {
    mu0: Vec<f64>,
    kappa0: f64,
    psi0: Matrix,
    nu0: f64,
}

impl NormalInverseWishart {
    /// Creates an NIW prior.
    ///
    /// # Errors
    ///
    /// * [`ProbError::InvalidDimension`] for an empty mean or mismatched
    ///   `psi0`.
    /// * [`ProbError::InvalidParameter`] unless `kappa0 > 0` and
    ///   `nu0 > d − 1`.
    /// * [`ProbError::Linalg`] when `psi0` is not positive definite.
    pub fn new(mu0: Vec<f64>, kappa0: f64, psi0: Matrix, nu0: f64) -> Result<Self> {
        let d = mu0.len();
        if d == 0 || psi0.shape() != (d, d) {
            return Err(ProbError::InvalidDimension {
                what: "normal_inverse_wishart",
                dim: d,
            });
        }
        if !(kappa0 > 0.0 && kappa0.is_finite()) {
            return Err(ProbError::InvalidParameter {
                what: "normal_inverse_wishart",
                param: "kappa0",
                value: kappa0,
            });
        }
        if !(nu0 > d as f64 - 1.0 && nu0.is_finite()) {
            return Err(ProbError::InvalidParameter {
                what: "normal_inverse_wishart",
                param: "nu0",
                value: nu0,
            });
        }
        // Validate positive definiteness early.
        Cholesky::new_with_jitter(&psi0, 1e-9).map_err(ProbError::from)?;
        Ok(NormalInverseWishart {
            mu0,
            kappa0,
            psi0,
            nu0,
        })
    }

    /// A weakly-informative prior centered at the origin: `μ₀ = 0`,
    /// `λ₀ = 0.01`, `Ψ₀ = I`, `ν₀ = d + 2`.
    ///
    /// # Errors
    ///
    /// Returns [`ProbError::InvalidDimension`] when `d == 0`.
    pub fn vague(d: usize) -> Result<Self> {
        Self::new(vec![0.0; d], 0.01, Matrix::identity(d), d as f64 + 2.0)
    }

    /// Prior mean `μ₀`.
    pub fn mu0(&self) -> &[f64] {
        &self.mu0
    }

    /// Prior mean-precision `λ₀`.
    pub fn kappa0(&self) -> f64 {
        self.kappa0
    }

    /// Prior scale matrix `Ψ₀`.
    pub fn psi0(&self) -> &Matrix {
        &self.psi0
    }

    /// Prior degrees of freedom `ν₀`.
    pub fn nu0(&self) -> f64 {
        self.nu0
    }

    /// Dimension `d`.
    pub fn dim(&self) -> usize {
        self.mu0.len()
    }

    /// Exact posterior `NIW(μₙ, λₙ, Ψₙ, νₙ)` after observing the data
    /// summarized in `stats`.
    ///
    /// # Errors
    ///
    /// Returns [`ProbError::InvalidDimension`] when `stats.dim()` differs
    /// from the prior dimension.
    pub fn posterior(&self, stats: &NiwSufficientStats) -> Result<Self> {
        let d = self.dim();
        if stats.dim() != d {
            return Err(ProbError::InvalidDimension {
                what: "niw posterior",
                dim: stats.dim(),
            });
        }
        let n = stats.len() as f64;
        if stats.is_empty() {
            return Ok(self.clone());
        }
        let kappa_n = self.kappa0 + n;
        let nu_n = self.nu0 + n;
        let xbar = stats.mean();
        let mut mu_n = dre_linalg::vector::scaled(&self.mu0, self.kappa0);
        dre_linalg::vector::axpy(n, &xbar, &mut mu_n);
        dre_linalg::vector::scale(&mut mu_n, 1.0 / kappa_n);

        let diff = dre_linalg::vector::sub(&xbar, &self.mu0);
        let shrink = self.kappa0 * n / kappa_n;
        let mut psi_n = self
            .psi0
            .add(&stats.scatter())
            .expect("dimension invariant")
            .add(&Matrix::outer(&diff, &diff).scaled(shrink))
            .expect("dimension invariant");
        psi_n.symmetrize();

        Ok(NormalInverseWishart {
            mu0: mu_n,
            kappa0: kappa_n,
            psi0: psi_n,
            nu0: nu_n,
        })
    }

    /// Posterior-predictive distribution of a new observation: a
    /// multivariate Student-t
    /// `t_{ν₀ − d + 1}(μ₀, Ψ₀ (λ₀+1) / (λ₀ (ν₀ − d + 1)))`.
    ///
    /// Call on a [`posterior`](Self::posterior) to get the predictive given
    /// data.
    ///
    /// # Errors
    ///
    /// Returns [`ProbError::InvalidParameter`] when `ν₀ − d + 1 ≤ 0` and
    /// propagates factorization failures.
    pub fn posterior_predictive(&self) -> Result<MvStudentT> {
        let d = self.dim() as f64;
        let dof = self.nu0 - d + 1.0;
        if dof <= 0.0 {
            return Err(ProbError::InvalidParameter {
                what: "niw predictive",
                param: "dof",
                value: dof,
            });
        }
        let scale = self
            .psi0
            .scaled((self.kappa0 + 1.0) / (self.kappa0 * dof));
        MvStudentT::new(dof, self.mu0.clone(), &scale)
    }

    /// Log marginal likelihood `log p(X)` of the data summarized in `stats`,
    /// with the parameters integrated out.
    ///
    /// # Errors
    ///
    /// Propagates dimension mismatches and factorization failures.
    pub fn log_marginal_likelihood(&self, stats: &NiwSufficientStats) -> Result<f64> {
        let d = self.dim() as f64;
        let n = stats.len() as f64;
        if stats.is_empty() {
            return Ok(0.0);
        }
        let post = self.posterior(stats)?;
        let ld0 = Cholesky::new_with_jitter(&self.psi0, 1e-9)?.log_det();
        let ldn = Cholesky::new_with_jitter(&post.psi0, 1e-9)?.log_det();
        Ok(-0.5 * n * d * LN_PI
            + ln_mv_gamma(self.dim(), 0.5 * post.nu0)
            - ln_mv_gamma(self.dim(), 0.5 * self.nu0)
            + 0.5 * self.nu0 * ld0
            - 0.5 * post.nu0 * ldn
            + 0.5 * d * (self.kappa0.ln() - post.kappa0.ln()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{seeded_rng, MvNormal};

    fn stats_from(points: &[Vec<f64>]) -> NiwSufficientStats {
        NiwSufficientStats::from_points(points[0].len(), points.iter().map(|p| p.as_slice()))
    }

    #[test]
    fn sufficient_stats_insert_remove_roundtrip() {
        let mut s = NiwSufficientStats::new(2);
        assert!(s.is_empty());
        s.insert(&[1.0, 2.0]);
        s.insert(&[3.0, 4.0]);
        assert_eq!(s.len(), 2);
        assert_eq!(s.mean(), vec![2.0, 3.0]);
        s.remove(&[3.0, 4.0]);
        assert_eq!(s.mean(), vec![1.0, 2.0]);
        s.remove(&[1.0, 2.0]);
        assert!(s.is_empty());
        assert_eq!(s.mean(), vec![0.0, 0.0]);
        assert_eq!(s.scatter().frobenius_norm(), 0.0);
    }

    #[test]
    fn scatter_matches_direct_computation() {
        let pts = vec![vec![1.0, 0.0], vec![-1.0, 0.0], vec![0.0, 2.0], vec![0.0, -2.0]];
        let s = stats_from(&pts);
        let sc = s.scatter();
        // Mean is 0; scatter = Σ x xᵀ = diag(2, 8).
        assert!((sc[(0, 0)] - 2.0).abs() < 1e-12);
        assert!((sc[(1, 1)] - 8.0).abs() < 1e-12);
        assert!(sc[(0, 1)].abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn stats_reject_wrong_dimension() {
        let mut s = NiwSufficientStats::new(2);
        s.insert(&[1.0]);
    }

    #[test]
    fn construction_validation() {
        let d2 = Matrix::identity(2);
        assert!(NormalInverseWishart::new(vec![], 1.0, Matrix::zeros(0, 0), 1.0).is_err());
        assert!(NormalInverseWishart::new(vec![0.0; 2], 0.0, d2.clone(), 4.0).is_err());
        assert!(NormalInverseWishart::new(vec![0.0; 2], 1.0, d2.clone(), 0.5).is_err());
        assert!(NormalInverseWishart::new(vec![0.0; 2], 1.0, Matrix::identity(3), 4.0).is_err());
        assert!(
            NormalInverseWishart::new(vec![0.0; 2], 1.0, Matrix::from_diag(&[1.0, -1.0]), 4.0)
                .is_err()
        );
        let p = NormalInverseWishart::vague(3).unwrap();
        assert_eq!(p.dim(), 3);
        assert_eq!(p.kappa0(), 0.01);
        assert_eq!(p.nu0(), 5.0);
        assert_eq!(p.mu0(), &[0.0; 3]);
        assert_eq!(p.psi0()[(0, 0)], 1.0);
    }

    #[test]
    fn posterior_updates_follow_standard_formulas() {
        let prior =
            NormalInverseWishart::new(vec![0.0, 0.0], 2.0, Matrix::identity(2), 5.0).unwrap();
        let pts = vec![vec![2.0, 0.0], vec![2.0, 2.0]];
        let stats = stats_from(&pts);
        let post = prior.posterior(&stats).unwrap();
        assert_eq!(post.kappa0(), 4.0);
        assert_eq!(post.nu0(), 7.0);
        // μ_n = (2·0 + 2·(2,1)) / 4 = (1, 0.5).
        assert!((post.mu0()[0] - 1.0).abs() < 1e-12);
        assert!((post.mu0()[1] - 0.5).abs() < 1e-12);
        // Ψ_n = Ψ₀ + S + (λ₀ n/λ_n)(x̄−μ₀)(x̄−μ₀)ᵀ;
        // S = scatter of the two points = [[0,0],[0,2]];
        // shrink = 2·2/4 = 1, x̄−μ₀ = (2,1).
        assert!((post.psi0()[(0, 0)] - (1.0 + 0.0 + 4.0)).abs() < 1e-10);
        assert!((post.psi0()[(1, 1)] - (1.0 + 2.0 + 1.0)).abs() < 1e-10);
        assert!((post.psi0()[(0, 1)] - 2.0).abs() < 1e-10);

        // Empty stats → identity posterior.
        let same = prior.posterior(&NiwSufficientStats::new(2)).unwrap();
        assert_eq!(same.kappa0(), prior.kappa0());
        // Dimension mismatch.
        assert!(prior.posterior(&NiwSufficientStats::new(3)).is_err());
    }

    #[test]
    fn posterior_mean_concentrates_on_truth() {
        let prior = NormalInverseWishart::vague(2).unwrap();
        let mut rng = seeded_rng(55);
        let truth = MvNormal::new(vec![3.0, -1.0], &Matrix::identity(2)).unwrap();
        let pts: Vec<Vec<f64>> = truth.sample_n(&mut rng, 500);
        let stats = NiwSufficientStats::from_points(2, pts.iter().map(|p| p.as_slice()));
        let post = prior.posterior(&stats).unwrap();
        assert!((post.mu0()[0] - 3.0).abs() < 0.15);
        assert!((post.mu0()[1] + 1.0).abs() < 0.15);
        // Posterior covariance mean Ψ_n/(ν_n−d−1) ≈ I.
        let cov = post.psi0().scaled(1.0 / (post.nu0() - 3.0));
        assert!((cov[(0, 0)] - 1.0).abs() < 0.2);
    }

    #[test]
    fn predictive_is_student_t_with_correct_dof() {
        let prior =
            NormalInverseWishart::new(vec![0.0, 0.0], 1.0, Matrix::identity(2), 4.0).unwrap();
        let pred = prior.posterior_predictive().unwrap();
        // dof = ν₀ − d + 1 = 3.
        assert_eq!(pred.dof(), 3.0);
        assert_eq!(pred.loc(), &[0.0, 0.0]);
        // Construction already enforces ν₀ > d − 1, so the predictive dof
        // ν₀ − d + 1 is always positive: a barely-valid prior still works.
        let edge = NormalInverseWishart::new(vec![0.0; 3], 1.0, Matrix::identity(3), 2.5).unwrap();
        assert!((edge.posterior_predictive().unwrap().dof() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn marginal_likelihood_equals_chained_predictives() {
        // p(x1, x2) = p(x1) p(x2 | x1): the marginal likelihood must equal
        // the product of sequential posterior predictives.
        let prior =
            NormalInverseWishart::new(vec![0.0, 0.0], 1.5, Matrix::identity(2), 5.0).unwrap();
        let x1 = vec![0.7, -0.2];
        let x2 = vec![-0.3, 1.1];

        let lp1 = prior.posterior_predictive().unwrap().log_pdf(&x1);
        let s1 = stats_from(std::slice::from_ref(&x1));
        let post1 = prior.posterior(&s1).unwrap();
        let lp2 = post1.posterior_predictive().unwrap().log_pdf(&x2);

        let s12 = stats_from(&[x1, x2]);
        let marginal = prior.log_marginal_likelihood(&s12).unwrap();
        assert!((marginal - (lp1 + lp2)).abs() < 1e-8);

        // Empty data has log marginal 0.
        assert_eq!(
            prior
                .log_marginal_likelihood(&NiwSufficientStats::new(2))
                .unwrap(),
            0.0
        );
    }

    #[test]
    fn merged_stats_equal_stats_of_the_pooled_points() {
        let mut rng = seeded_rng(91);
        let normal = MvNormal::isotropic(vec![1.0, -2.0, 0.5], 1.3).unwrap();
        let a_pts = normal.sample_n(&mut rng, 7);
        let b_pts = normal.sample_n(&mut rng, 11);

        let mut merged = stats_from(&a_pts);
        merged.merge(&stats_from(&b_pts));
        // Pooled-in-order accumulation, for the exact same additions.
        let mut pooled: Vec<Vec<f64>> = a_pts.clone();
        pooled.extend(b_pts.clone());
        let direct = stats_from(&pooled);

        assert_eq!(merged.len(), 18);
        for (m, d) in merged.mean().iter().zip(direct.mean()) {
            assert!((m - d).abs() < 1e-12);
        }
        let (ms, ds) = (merged.scatter(), direct.scatter());
        for i in 0..3 {
            for j in 0..3 {
                assert!((ms[(i, j)] - ds[(i, j)]).abs() < 1e-12);
            }
        }
        // Merging into empty stats is a copy.
        let mut empty = NiwSufficientStats::new(3);
        empty.merge(&direct);
        assert_eq!(empty, direct);
    }
}
