//! Multivariate Student-t distribution.

use rand::Rng;

use dre_linalg::{Cholesky, Matrix};

use crate::special::{ln_gamma, LN_PI};
use crate::univariate::{standard_normal, Gamma};
use crate::{Distribution, ProbError, Result};

/// Multivariate Student-t `t_ν(μ, Σ)` with `ν` degrees of freedom, location
/// `μ` and scale matrix `Σ`.
///
/// This is the posterior-predictive distribution of the
/// [Normal-Inverse-Wishart](crate::NormalInverseWishart) conjugate prior, so
/// it is the density the collapsed Gibbs sampler in `dre-bayes` evaluates for
/// every (point, cluster) pair.
///
/// # Example
///
/// ```
/// use dre_linalg::Matrix;
/// use dre_prob::MvStudentT;
///
/// # fn main() -> Result<(), dre_prob::ProbError> {
/// let t = MvStudentT::new(5.0, vec![0.0, 0.0], &Matrix::identity(2))?;
/// assert!(t.log_pdf(&[0.0, 0.0]) > t.log_pdf(&[3.0, 3.0]));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct MvStudentT {
    dof: f64,
    loc: Vec<f64>,
    chol: Cholesky,
    log_norm: f64,
}

impl MvStudentT {
    /// Creates a multivariate Student-t distribution.
    ///
    /// # Errors
    ///
    /// * [`ProbError::InvalidParameter`] unless `dof > 0`.
    /// * [`ProbError::InvalidDimension`] when `loc` is empty or mismatched
    ///   with `scale`.
    /// * [`ProbError::Linalg`] when `scale` cannot be Cholesky-factored.
    pub fn new(dof: f64, loc: Vec<f64>, scale: &Matrix) -> Result<Self> {
        Self::check_parts(dof, loc.len(), scale.rows())?;
        let chol = Cholesky::new_with_jitter(scale, 1e-6)?;
        Self::from_factor(dof, loc, chol)
    }

    /// Creates a multivariate Student-t from an **already-factored** scale
    /// matrix, skipping the `O(d³)` factorization [`MvStudentT::new`] would
    /// perform.
    ///
    /// This is the constructor the incremental NIW posterior cache uses: it
    /// maintains the posterior scale's Cholesky factor under rank-1
    /// update/downdate and rebuilds the predictive in `O(d²)`.
    ///
    /// # Errors
    ///
    /// * [`ProbError::InvalidParameter`] unless `dof > 0`.
    /// * [`ProbError::InvalidDimension`] when `loc` is empty or mismatched
    ///   with `chol`.
    pub fn from_factor(dof: f64, loc: Vec<f64>, chol: Cholesky) -> Result<Self> {
        Self::check_parts(dof, loc.len(), chol.dim())?;
        let log_norm = Self::log_norm(dof, loc.len(), &chol);
        Ok(MvStudentT {
            dof,
            loc,
            chol,
            log_norm,
        })
    }

    /// Rebuilds `self` as `from_factor(dof, self.loc, chol.scaled(c)?)`
    /// would, bit for bit, writing into its own location and factor
    /// instead of allocating new ones. On error `self` is unchanged.
    pub(crate) fn assign_scaled_factor(&mut self, dof: f64, chol: &Cholesky, c: f64) -> Result<()> {
        Self::check_parts(dof, self.loc.len(), chol.dim())?;
        chol.scaled_into(c, &mut self.chol)?;
        self.dof = dof;
        self.log_norm = Self::log_norm(dof, self.loc.len(), &self.chol);
        Ok(())
    }

    /// The location, for an owner that keeps it up to date in place.
    pub(crate) fn loc_mut(&mut self) -> &mut [f64] {
        &mut self.loc
    }

    /// `dof > 0` and a nonempty location matching the scale's dimension.
    fn check_parts(dof: f64, loc_dim: usize, scale_dim: usize) -> Result<()> {
        if !(dof > 0.0 && dof.is_finite()) {
            return Err(ProbError::InvalidParameter {
                what: "mv_student_t",
                param: "dof",
                value: dof,
            });
        }
        if loc_dim == 0 || loc_dim != scale_dim {
            return Err(ProbError::InvalidDimension {
                what: "mv_student_t",
                dim: loc_dim,
            });
        }
        Ok(())
    }

    /// `log Γ((ν+d)/2) − log Γ(ν/2) − (d/2)·log(νπ) − ½·log det Σ`.
    fn log_norm(dof: f64, d: usize, chol: &Cholesky) -> f64 {
        let d = d as f64;
        ln_gamma(0.5 * (dof + d))
            - ln_gamma(0.5 * dof)
            - 0.5 * d * (dof.ln() + LN_PI)
            - 0.5 * chol.log_det()
    }

    /// Log-determinant of the scale matrix (from the cached factor).
    pub fn scale_log_det(&self) -> f64 {
        self.chol.log_det()
    }

    /// Degrees of freedom `ν`.
    pub fn dof(&self) -> f64 {
        self.dof
    }

    /// Location vector `μ`.
    pub fn loc(&self) -> &[f64] {
        &self.loc
    }

    /// Dimension `d`.
    pub fn dim(&self) -> usize {
        self.loc.len()
    }

    /// Log-density at `x`.
    ///
    /// Returns `-inf` when `x` has the wrong dimension.
    pub fn log_pdf(&self, x: &[f64]) -> f64 {
        if x.len() != self.loc.len() {
            return f64::NEG_INFINITY;
        }
        let maha = self
            .chol
            .mahalanobis_sq(x, &self.loc)
            .expect("dimension checked above");
        let d = self.loc.len() as f64;
        self.log_norm - 0.5 * (self.dof + d) * (1.0 + maha / self.dof).ln()
    }

    /// Draws one sample: `μ + L·z / √(w/ν)` with `z` standard normal and
    /// `w ~ χ²_ν`.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Vec<f64> {
        let z: Vec<f64> = (0..self.dim()).map(|_| standard_normal(rng)).collect();
        let lz = self.chol.factor_matvec(&z).expect("dimension invariant");
        let chi2 = Gamma::new(0.5 * self.dof, 0.5)
            .expect("dof validated")
            .sample(rng);
        let scale = (self.dof / chi2).sqrt();
        lz.iter()
            .zip(&self.loc)
            .map(|(v, m)| m + scale * v)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seeded_rng;
    use crate::Distribution;

    #[test]
    fn validation() {
        assert!(MvStudentT::new(0.0, vec![0.0], &Matrix::identity(1)).is_err());
        assert!(MvStudentT::new(2.0, vec![], &Matrix::identity(1)).is_err());
        assert!(MvStudentT::new(2.0, vec![0.0], &Matrix::identity(2)).is_err());
        let indef = Matrix::from_diag(&[-1.0]);
        assert!(MvStudentT::new(2.0, vec![0.0], &indef).is_err());
    }

    #[test]
    fn matches_univariate_student_t_in_1d() {
        let mv = MvStudentT::new(4.0, vec![1.0], &Matrix::from_diag(&[2.25])).unwrap();
        let uni = crate::StudentT::new(4.0, 1.0, 1.5).unwrap();
        for &x in &[-2.0, 0.0, 1.0, 3.5] {
            assert!((mv.log_pdf(&[x]) - uni.log_pdf(x)).abs() < 1e-10);
        }
    }

    #[test]
    fn approaches_gaussian_for_large_dof() {
        let scale = Matrix::from_rows(&[&[1.5, 0.2], &[0.2, 0.8]]).unwrap();
        let t = MvStudentT::new(1e6, vec![0.5, -0.5], &scale).unwrap();
        let g = crate::MvNormal::new(vec![0.5, -0.5], &scale).unwrap();
        for pt in [[0.5, -0.5], [1.0, 0.0], [-1.0, 1.0]] {
            assert!((t.log_pdf(&pt) - g.log_pdf(&pt)).abs() < 1e-3);
        }
    }

    #[test]
    fn heavier_tails_than_gaussian() {
        let t = MvStudentT::new(3.0, vec![0.0, 0.0], &Matrix::identity(2)).unwrap();
        let g = crate::MvNormal::isotropic(vec![0.0, 0.0], 1.0).unwrap();
        assert!(t.log_pdf(&[5.0, 5.0]) > g.log_pdf(&[5.0, 5.0]));
    }

    #[test]
    fn sample_mean_converges_to_location() {
        let t = MvStudentT::new(8.0, vec![2.0, -1.0], &Matrix::identity(2)).unwrap();
        let mut rng = seeded_rng(77);
        let n = 30_000;
        let mut m = [0.0; 2];
        for _ in 0..n {
            let s = t.sample(&mut rng);
            m[0] += s[0];
            m[1] += s[1];
        }
        assert!((m[0] / n as f64 - 2.0).abs() < 0.06);
        assert!((m[1] / n as f64 + 1.0).abs() < 0.06);
        assert_eq!(t.dim(), 2);
        assert_eq!(t.dof(), 8.0);
        assert_eq!(t.loc(), &[2.0, -1.0]);
    }

    #[test]
    fn from_factor_matches_new() {
        let scale = Matrix::from_rows(&[&[1.5, 0.2], &[0.2, 0.8]]).unwrap();
        let via_new = MvStudentT::new(4.0, vec![0.5, -0.5], &scale).unwrap();
        let chol = dre_linalg::Cholesky::new(&scale).unwrap();
        let via_factor = MvStudentT::from_factor(4.0, vec![0.5, -0.5], chol).unwrap();
        for pt in [[0.5, -0.5], [1.0, 0.0], [-2.0, 1.5]] {
            assert_eq!(
                via_new.log_pdf(&pt).to_bits(),
                via_factor.log_pdf(&pt).to_bits(),
                "log_pdf must be identical at {pt:?}"
            );
        }
        assert_eq!(
            via_new.scale_log_det().to_bits(),
            via_factor.scale_log_det().to_bits()
        );
        let chol = dre_linalg::Cholesky::new(&scale).unwrap();
        assert!(MvStudentT::from_factor(0.0, vec![0.0; 2], chol.clone()).is_err());
        assert!(MvStudentT::from_factor(2.0, vec![0.0; 3], chol).is_err());
    }

    #[test]
    fn wrong_dimension_gives_neg_inf() {
        let t = MvStudentT::new(3.0, vec![0.0, 0.0], &Matrix::identity(2)).unwrap();
        assert_eq!(t.log_pdf(&[0.0]), f64::NEG_INFINITY);
    }
}
