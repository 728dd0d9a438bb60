//! Multivariate normal distribution.

use rand::Rng;

use dre_linalg::{Cholesky, Matrix};

use crate::special::LN_SQRT_2PI;
use crate::univariate::standard_normal;
use crate::{ProbError, Result};

/// Multivariate normal `N(μ, Σ)`.
///
/// The covariance is Cholesky-factored once at construction (with a small
/// jitter budget so empirical covariances that are merely positive
/// **semi**-definite still work), making `log_pdf` and `sample` `O(d²)`.
///
/// # Example
///
/// ```
/// use dre_linalg::Matrix;
/// use dre_prob::{MvNormal, seeded_rng};
///
/// # fn main() -> Result<(), dre_prob::ProbError> {
/// let cov = Matrix::from_rows(&[&[1.0, 0.3], &[0.3, 2.0]])?;
/// let mvn = MvNormal::new(vec![0.0, 1.0], &cov)?;
/// let x = mvn.sample(&mut seeded_rng(1));
/// assert_eq!(x.len(), 2);
/// assert!(mvn.log_pdf(&x).is_finite());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct MvNormal {
    mean: Vec<f64>,
    chol: Cholesky,
    log_norm: f64,
}

impl MvNormal {
    /// Maximum diagonal jitter accepted when factoring a semi-definite
    /// covariance.
    const MAX_JITTER: f64 = 1e-6;

    /// Creates a multivariate normal from a mean vector and covariance
    /// matrix.
    ///
    /// # Errors
    ///
    /// * [`ProbError::InvalidDimension`] when `mean` is empty or its length
    ///   differs from the covariance dimension.
    /// * [`ProbError::Linalg`] when the covariance cannot be factored even
    ///   with jitter (not positive semi-definite) or contains non-finite
    ///   entries.
    pub fn new(mean: Vec<f64>, cov: &Matrix) -> Result<Self> {
        if mean.is_empty() || mean.len() != cov.rows() {
            return Err(ProbError::InvalidDimension {
                what: "mv_normal",
                dim: mean.len(),
            });
        }
        if !dre_linalg::vector::all_finite(&mean) {
            return Err(ProbError::InvalidParameter {
                what: "mv_normal",
                param: "mean",
                value: f64::NAN,
            });
        }
        let chol = Cholesky::new_with_jitter(cov, Self::MAX_JITTER)?;
        let d = mean.len() as f64;
        let log_norm = -0.5 * chol.log_det() - d * LN_SQRT_2PI;
        Ok(MvNormal {
            mean,
            chol,
            log_norm,
        })
    }

    /// Creates an isotropic normal `N(μ, σ²·I)`.
    ///
    /// # Errors
    ///
    /// Same conditions as [`MvNormal::new`], plus `variance > 0`.
    pub fn isotropic(mean: Vec<f64>, variance: f64) -> Result<Self> {
        if !(variance > 0.0 && variance.is_finite()) {
            return Err(ProbError::InvalidParameter {
                what: "mv_normal",
                param: "variance",
                value: variance,
            });
        }
        let d = mean.len();
        let cov = Matrix::from_diag(&vec![variance; d]);
        Self::new(mean, &cov)
    }

    /// Dimension `d`.
    pub fn dim(&self) -> usize {
        self.mean.len()
    }

    /// Mean vector `μ`.
    pub fn mean(&self) -> &[f64] {
        &self.mean
    }

    /// The Cholesky factor of the covariance.
    pub fn cov_cholesky(&self) -> &Cholesky {
        &self.chol
    }

    /// Reconstructs the covariance matrix `Σ` (an `O(d³)` copy; prefer
    /// [`MvNormal::cov_cholesky`] in hot paths).
    pub fn cov(&self) -> Matrix {
        self.chol.reconstruct()
    }

    /// Log-density at `x`.
    ///
    /// Returns `-inf` when `x` has the wrong dimension.
    pub fn log_pdf(&self, x: &[f64]) -> f64 {
        if x.len() != self.mean.len() {
            return f64::NEG_INFINITY;
        }
        let maha = self
            .chol
            .mahalanobis_sq(x, &self.mean)
            .expect("dimension checked above");
        self.log_norm - 0.5 * maha
    }

    /// Draws one sample `μ + L·z` with `z` standard normal.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Vec<f64> {
        let z: Vec<f64> = (0..self.dim()).map(|_| standard_normal(rng)).collect();
        let mut x = self.chol.factor_matvec(&z).expect("dimension invariant");
        for (xi, mi) in x.iter_mut().zip(&self.mean) {
            *xi += mi;
        }
        x
    }

    /// Draws `n` samples.
    pub fn sample_n<R: Rng + ?Sized>(&self, rng: &mut R, n: usize) -> Vec<Vec<f64>> {
        (0..n).map(|_| self.sample(rng)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seeded_rng;
    use dre_linalg::vector;

    fn cov2() -> Matrix {
        Matrix::from_rows(&[&[2.0, 0.5], &[0.5, 1.0]]).unwrap()
    }

    #[test]
    fn construction_validation() {
        assert!(MvNormal::new(vec![], &Matrix::identity(1)).is_err());
        assert!(MvNormal::new(vec![0.0], &Matrix::identity(2)).is_err());
        assert!(MvNormal::new(vec![f64::NAN, 0.0], &Matrix::identity(2)).is_err());
        let indef = Matrix::from_diag(&[1.0, -1.0]);
        assert!(MvNormal::new(vec![0.0, 0.0], &indef).is_err());
        assert!(MvNormal::isotropic(vec![0.0], 0.0).is_err());
    }

    #[test]
    fn log_pdf_matches_univariate_in_1d() {
        let mvn = MvNormal::isotropic(vec![1.0], 4.0).unwrap();
        let uni = crate::Normal::new(1.0, 2.0).unwrap();
        use crate::Distribution;
        for &x in &[-3.0, 0.0, 1.0, 2.5] {
            assert!((mvn.log_pdf(&[x]) - uni.log_pdf(x)).abs() < 1e-12);
        }
    }

    #[test]
    fn log_pdf_peaks_at_mean() {
        let mvn = MvNormal::new(vec![1.0, -1.0], &cov2()).unwrap();
        let at_mean = mvn.log_pdf(&[1.0, -1.0]);
        assert!(at_mean > mvn.log_pdf(&[2.0, 0.0]));
        assert!(at_mean > mvn.log_pdf(&[0.0, -2.0]));
        assert_eq!(mvn.log_pdf(&[0.0]), f64::NEG_INFINITY);
    }

    #[test]
    fn log_pdf_known_standard_value() {
        // Standard bivariate normal at origin: −ln(2π).
        let mvn = MvNormal::isotropic(vec![0.0, 0.0], 1.0).unwrap();
        let expected = -(2.0 * std::f64::consts::PI).ln();
        assert!((mvn.log_pdf(&[0.0, 0.0]) - expected).abs() < 1e-12);
    }

    #[test]
    fn sample_moments_match_parameters() {
        let mean = vec![3.0, -2.0];
        let mvn = MvNormal::new(mean.clone(), &cov2()).unwrap();
        let mut rng = seeded_rng(5);
        let n = 30_000;
        let samples = mvn.sample_n(&mut rng, n);
        let mut m = vec![0.0; 2];
        for s in &samples {
            vector::axpy(1.0 / n as f64, s, &mut m);
        }
        assert!(vector::max_abs_diff(&m, &mean) < 0.05);

        // Empirical covariance entries.
        let mut c00 = 0.0;
        let mut c01 = 0.0;
        let mut c11 = 0.0;
        for s in &samples {
            let d0 = s[0] - m[0];
            let d1 = s[1] - m[1];
            c00 += d0 * d0;
            c01 += d0 * d1;
            c11 += d1 * d1;
        }
        let nf = (n - 1) as f64;
        assert!((c00 / nf - 2.0).abs() < 0.08);
        assert!((c01 / nf - 0.5).abs() < 0.05);
        assert!((c11 / nf - 1.0).abs() < 0.05);
    }

    #[test]
    fn semidefinite_covariance_is_rescued_by_jitter() {
        // Rank-1 covariance.
        let cov = Matrix::outer(&[1.0, 2.0], &[1.0, 2.0]);
        let mvn = MvNormal::new(vec![0.0, 0.0], &cov).unwrap();
        assert!(mvn.log_pdf(&[0.0, 0.0]).is_finite());
        let s = mvn.sample(&mut seeded_rng(3));
        // Samples concentrate near the line x1 = 2·x0.
        assert!((s[1] - 2.0 * s[0]).abs() < 0.1);
    }

    #[test]
    fn accessors() {
        let mvn = MvNormal::new(vec![1.0, 2.0], &cov2()).unwrap();
        assert_eq!(mvn.dim(), 2);
        assert_eq!(mvn.mean(), &[1.0, 2.0]);
        let rec = mvn.cov();
        assert!(rec.sub(&cov2()).unwrap().frobenius_norm() < 1e-10);
        assert_eq!(mvn.cov_cholesky().dim(), 2);
    }
}
