//! Cholesky factorization of symmetric positive-definite matrices.

use crate::{LinalgError, Matrix, Result};

/// Lower-triangular Cholesky factor `L` of a symmetric positive-definite
/// matrix `A = L·Lᵀ`.
///
/// The factorization powers multivariate-Gaussian log-densities (via
/// [`Cholesky::log_det`] and [`Cholesky::solve`]), sampling (via
/// [`Cholesky::factor_matvec`]), and covariance inversion throughout the
/// workspace.
///
/// # Example
///
/// ```
/// use dre_linalg::{Matrix, Cholesky};
///
/// # fn main() -> Result<(), dre_linalg::LinalgError> {
/// let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 2.0]])?;
/// let ch = Cholesky::new(&a)?;
/// assert!((ch.log_det() - 3.0f64.ln()).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Cholesky {
    l: Matrix,
}

impl Cholesky {
    /// Factorizes a symmetric positive-definite matrix.
    ///
    /// # Errors
    ///
    /// * [`LinalgError::NotSquare`] if `a` is not square.
    /// * [`LinalgError::NonFinite`] if `a` contains NaN/inf.
    /// * [`LinalgError::NotPositiveDefinite`] if a pivot is non-positive.
    pub fn new(a: &Matrix) -> Result<Self> {
        Self::factor(a, 0.0)
    }

    /// Factorizes `a + jitter·I`, retrying with geometrically increasing
    /// jitter up to `max_jitter` when `a` is only positive **semi**-definite
    /// or slightly indefinite from floating-point noise.
    ///
    /// This is the constructor the probabilistic layers use for empirical
    /// covariance matrices, which are frequently rank-deficient when the
    /// number of samples is below the dimension.
    ///
    /// # Errors
    ///
    /// Same as [`Cholesky::new`], with [`LinalgError::NotPositiveDefinite`]
    /// only after the jitter budget is exhausted.
    pub fn new_with_jitter(a: &Matrix, max_jitter: f64) -> Result<Self> {
        let scale = a.diag().iter().fold(1.0f64, |m, v| m.max(v.abs()));
        let mut jitter = 1e-12 * scale;
        match Self::factor(a, 0.0) {
            Ok(c) => return Ok(c),
            Err(LinalgError::NotPositiveDefinite { .. }) => {}
            Err(e) => return Err(e),
        }
        loop {
            match Self::factor(a, jitter) {
                Ok(c) => return Ok(c),
                Err(e @ LinalgError::NotPositiveDefinite { .. }) => {
                    if jitter >= max_jitter {
                        return Err(e);
                    }
                    jitter = (jitter * 10.0).min(max_jitter);
                }
                Err(e) => return Err(e),
            }
        }
    }

    fn factor(a: &Matrix, jitter: f64) -> Result<Self> {
        if !a.is_square() {
            return Err(LinalgError::NotSquare {
                rows: a.rows(),
                cols: a.cols(),
            });
        }
        if !a.is_finite() {
            return Err(LinalgError::NonFinite { op: "cholesky" });
        }
        let n = a.rows();
        let mut l = Matrix::zeros(n, n);
        for j in 0..n {
            let mut d = a[(j, j)] + jitter;
            for k in 0..j {
                d -= l[(j, k)] * l[(j, k)];
            }
            if d <= 0.0 || !d.is_finite() {
                return Err(LinalgError::NotPositiveDefinite { pivot: j, value: d });
            }
            let ljj = d.sqrt();
            l[(j, j)] = ljj;
            for i in (j + 1)..n {
                let mut s = 0.5 * (a[(i, j)] + a[(j, i)]); // tolerate tiny asymmetry
                for k in 0..j {
                    s -= l[(i, k)] * l[(j, k)];
                }
                l[(i, j)] = s / ljj;
            }
        }
        Ok(Cholesky { l })
    }

    /// Dimension of the factored matrix.
    #[inline]
    pub fn dim(&self) -> usize {
        self.l.rows()
    }

    /// Borrows the lower-triangular factor `L`.
    #[inline]
    pub fn factor_l(&self) -> &Matrix {
        &self.l
    }

    /// `log det(A) = 2 Σ log Lᵢᵢ`.
    pub fn log_det(&self) -> f64 {
        2.0 * (0..self.dim()).map(|i| self.l[(i, i)].ln()).sum::<f64>()
    }

    /// Solves `A x = b`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] when `b.len() != self.dim()`.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>> {
        let mut y = self.solve_l(b)?;
        self.solve_lt_in_place(&mut y);
        Ok(y)
    }

    /// Solves the lower-triangular system `L y = b` (forward substitution).
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] when `b.len() != self.dim()`.
    pub fn solve_l(&self, b: &[f64]) -> Result<Vec<f64>> {
        let n = self.dim();
        if b.len() != n {
            return Err(LinalgError::ShapeMismatch {
                op: "cholesky solve",
                lhs: (n, n),
                rhs: (b.len(), 1),
            });
        }
        let mut y = b.to_vec();
        self.solve_l_in_place(&mut y);
        Ok(y)
    }

    fn solve_l_in_place(&self, y: &mut [f64]) {
        for i in 0..y.len() {
            for k in 0..i {
                y[i] -= self.l[(i, k)] * y[k];
            }
            y[i] /= self.l[(i, i)];
        }
    }

    fn solve_lt_in_place(&self, y: &mut [f64]) {
        let n = self.dim();
        for i in (0..n).rev() {
            for k in (i + 1)..n {
                y[i] -= self.l[(k, i)] * y[k];
            }
            y[i] /= self.l[(i, i)];
        }
    }

    /// Computes `L v` — maps a standard-normal vector `v` to a sample with
    /// covariance `A` (plus a mean added by the caller).
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] when `v.len() != self.dim()`.
    pub fn factor_matvec(&self, v: &[f64]) -> Result<Vec<f64>> {
        let n = self.dim();
        if v.len() != n {
            return Err(LinalgError::ShapeMismatch {
                op: "factor_matvec",
                lhs: (n, n),
                rhs: (v.len(), 1),
            });
        }
        let mut out = vec![0.0; n];
        for i in 0..n {
            let mut s = 0.0;
            for k in 0..=i {
                s += self.l[(i, k)] * v[k];
            }
            out[i] = s;
        }
        Ok(out)
    }

    /// Mahalanobis quadratic form about a centre,
    /// `(x−μ)ᵀ A⁻¹ (x−μ) = ‖L⁻¹(x−μ)‖²`. The difference is formed in the
    /// one buffer the forward substitution runs in.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] when `x` or `mean` is not
    /// `self.dim()` long.
    pub fn mahalanobis_sq(&self, x: &[f64], mean: &[f64]) -> Result<f64> {
        let n = self.dim();
        for v in [x, mean] {
            if v.len() != n {
                return Err(LinalgError::ShapeMismatch {
                    op: "cholesky mahalanobis",
                    lhs: (n, n),
                    rhs: (v.len(), 1),
                });
            }
        }
        let mut y: Vec<f64> = x.iter().zip(mean).map(|(a, m)| a - m).collect();
        self.solve_l_in_place(&mut y);
        Ok(crate::vector::dot(&y, &y))
    }

    /// Dense inverse `A⁻¹` (symmetric).
    pub fn inverse(&self) -> Matrix {
        let n = self.dim();
        let mut inv = Matrix::zeros(n, n);
        let mut e = vec![0.0; n];
        for j in 0..n {
            e[j] = 1.0;
            // Length always matches, so the expect cannot fire.
            let col = self.solve(&e).expect("dimension invariant");
            for i in 0..n {
                inv[(i, j)] = col[i];
            }
            e[j] = 0.0;
        }
        inv.symmetrize();
        inv
    }

    /// Reconstructs `A = L Lᵀ` (mainly for testing/diagnostics).
    pub fn reconstruct(&self) -> Matrix {
        // L·Lᵀ always conformable.
        self.l
            .matmul(&self.l.transpose())
            .expect("dimension invariant")
    }

    /// Factor of the scaled matrix `c·A`, i.e. `√c·L`, without touching `A`.
    ///
    /// The NIW posterior-predictive scale is a scalar multiple of the
    /// posterior scale matrix `Ψₙ`, so a cached factor of `Ψₙ` yields the
    /// predictive's factor in `O(d²)` through this method.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::NonFinite`] unless `c > 0` and finite.
    pub fn scaled(&self, c: f64) -> Result<Self> {
        let mut out = Cholesky {
            l: Matrix::zeros(self.dim(), self.dim()),
        };
        self.scaled_into(c, &mut out)?;
        Ok(out)
    }

    /// [`Cholesky::scaled`] written into `out`, reusing its storage when
    /// the dimensions match: the allocation-free path for a cache that
    /// rebuilds a scaled copy of its factor after every update. On error
    /// `out` is unchanged.
    ///
    /// # Errors
    ///
    /// As [`Cholesky::scaled`].
    pub fn scaled_into(&self, c: f64, out: &mut Cholesky) -> Result<()> {
        if !(c > 0.0 && c.is_finite()) {
            return Err(LinalgError::NonFinite {
                op: "cholesky scale",
            });
        }
        let n = self.dim();
        if out.dim() != n {
            out.l = Matrix::zeros(n, n);
        }
        // Both factors are lower-triangular, so the zero upper triangle
        // needs no copy.
        let s = c.sqrt();
        for i in 0..n {
            for j in 0..=i {
                out.l[(i, j)] = self.l[(i, j)] * s;
            }
        }
        Ok(())
    }

    /// Rank-1 **update**: replaces the factor of `A` with the factor of
    /// `A + vvᵀ` in `O(d²)` (one pass of Givens-style rotations), instead of
    /// the `O(d³)` refactorization.
    ///
    /// The update always succeeds on finite input because `A + vvᵀ` is
    /// positive definite whenever `A` is.
    ///
    /// # Errors
    ///
    /// * [`LinalgError::ShapeMismatch`] when `v.len() != self.dim()`.
    /// * [`LinalgError::NonFinite`] when `v` contains NaN/inf (the factor is
    ///   left unchanged).
    pub fn rank1_update(&mut self, v: &[f64]) -> Result<()> {
        self.rank1_update_in_place(&mut v.to_vec())
    }

    /// [`Cholesky::rank1_update`] that rotates the caller's direction
    /// vector in place instead of a copy of it: for callers that own `w`
    /// and are done with it, such as a staged insert being committed. On
    /// return `w` holds the rotation's leftovers, not the direction.
    ///
    /// # Errors
    ///
    /// As [`Cholesky::rank1_update`].
    pub fn rank1_update_in_place(&mut self, w: &mut [f64]) -> Result<()> {
        let n = self.dim();
        if w.len() != n {
            return Err(LinalgError::ShapeMismatch {
                op: "rank1_update",
                lhs: (n, n),
                rhs: (w.len(), 1),
            });
        }
        if !w.iter().all(|x| x.is_finite()) {
            return Err(LinalgError::NonFinite { op: "rank1_update" });
        }
        for k in 0..n {
            let lkk = self.l[(k, k)];
            let r = lkk.hypot(w[k]);
            let c = r / lkk;
            let s = w[k] / lkk;
            self.l[(k, k)] = r;
            for i in (k + 1)..n {
                let lik = (self.l[(i, k)] + s * w[i]) / c;
                w[i] = c * w[i] - s * lik;
                self.l[(i, k)] = lik;
            }
        }
        Ok(())
    }

    /// Rank-1 **downdate**: replaces the factor of `A` with the factor of
    /// `A − vvᵀ` in `O(d²)`.
    ///
    /// Unlike [`Cholesky::rank1_update`] this can fail: `A − vvᵀ` may be
    /// indefinite, or close enough to singular that the hyperbolic rotations
    /// lose positivity in floating point. On failure the factor is left
    /// **unchanged** so the caller can fall back to a jittered
    /// refactorization of the explicitly tracked matrix.
    ///
    /// # Errors
    ///
    /// * [`LinalgError::ShapeMismatch`] when `v.len() != self.dim()`.
    /// * [`LinalgError::NonFinite`] when `v` contains NaN/inf.
    /// * [`LinalgError::NotPositiveDefinite`] when `A − vvᵀ` is not
    ///   numerically positive definite.
    pub fn rank1_downdate(&mut self, v: &[f64]) -> Result<()> {
        let n = self.dim();
        if v.len() != n {
            return Err(LinalgError::ShapeMismatch {
                op: "rank1_downdate",
                lhs: (n, n),
                rhs: (v.len(), 1),
            });
        }
        if !v.iter().all(|x| x.is_finite()) {
            return Err(LinalgError::NonFinite {
                op: "rank1_downdate",
            });
        }
        // Work on a copy so a mid-pass failure leaves `self` intact.
        let mut l = self.l.clone();
        let mut w = v.to_vec();
        for k in 0..n {
            let lkk = l[(k, k)];
            let d = lkk * lkk - w[k] * w[k];
            if d <= 0.0 || !d.is_finite() {
                return Err(LinalgError::NotPositiveDefinite { pivot: k, value: d });
            }
            let r = d.sqrt();
            let c = r / lkk;
            let s = w[k] / lkk;
            l[(k, k)] = r;
            for i in (k + 1)..n {
                let lik = (l[(i, k)] - s * w[i]) / c;
                w[i] = c * w[i] - s * lik;
                l[(i, k)] = lik;
            }
        }
        self.l = l;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn spd3() -> Matrix {
        Matrix::from_rows(&[&[4.0, 2.0, 0.6], &[2.0, 5.0, 1.0], &[0.6, 1.0, 3.0]]).unwrap()
    }

    #[test]
    fn factor_reconstructs_input() {
        let a = spd3();
        let ch = Cholesky::new(&a).unwrap();
        let r = ch.reconstruct();
        assert!(a.sub(&r).unwrap().frobenius_norm() < 1e-10);
        // Factor is lower-triangular.
        let l = ch.factor_l();
        assert_eq!(l[(0, 1)], 0.0);
        assert_eq!(l[(0, 2)], 0.0);
        assert_eq!(l[(1, 2)], 0.0);
        assert_eq!(ch.dim(), 3);
    }

    #[test]
    fn solve_recovers_solution() {
        let a = spd3();
        let ch = Cholesky::new(&a).unwrap();
        let x_true = vec![1.0, -2.0, 0.5];
        let b = a.matvec(&x_true).unwrap();
        let x = ch.solve(&b).unwrap();
        assert!(crate::vector::max_abs_diff(&x, &x_true) < 1e-10);
        assert!(ch.solve(&[1.0]).is_err());
    }

    #[test]
    fn log_det_matches_direct_computation() {
        let a = Matrix::from_rows(&[&[2.0, 0.0], &[0.0, 8.0]]).unwrap();
        let ch = Cholesky::new(&a).unwrap();
        assert!((ch.log_det() - 16.0f64.ln()).abs() < 1e-12);
    }

    #[test]
    fn rejects_indefinite_matrix() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]).unwrap();
        let err = Cholesky::new(&a).unwrap_err();
        assert!(matches!(err, LinalgError::NotPositiveDefinite { .. }));
    }

    #[test]
    fn rejects_non_square_and_non_finite() {
        assert!(matches!(
            Cholesky::new(&Matrix::zeros(2, 3)),
            Err(LinalgError::NotSquare { .. })
        ));
        let mut a = Matrix::identity(2);
        a[(0, 0)] = f64::NAN;
        assert!(matches!(
            Cholesky::new(&a),
            Err(LinalgError::NonFinite { .. })
        ));
    }

    #[test]
    fn jitter_rescues_semidefinite_matrix() {
        // Rank-1 matrix: xxᵀ with x = (1, 1).
        let a = Matrix::outer(&[1.0, 1.0], &[1.0, 1.0]);
        assert!(Cholesky::new(&a).is_err());
        let ch = Cholesky::new_with_jitter(&a, 1e-3).unwrap();
        assert!(ch.log_det().is_finite());
        // Still fails when the budget is too small for a hard case.
        let b = Matrix::from_diag(&[1.0, -1.0]);
        assert!(Cholesky::new_with_jitter(&b, 1e-6).is_err());
    }

    #[test]
    fn inverse_times_matrix_is_identity() {
        let a = spd3();
        let inv = Cholesky::new(&a).unwrap().inverse();
        let prod = a.matmul(&inv).unwrap();
        let eye = Matrix::identity(3);
        assert!(prod.sub(&eye).unwrap().frobenius_norm() < 1e-9);
    }

    #[test]
    fn mahalanobis_matches_solve() {
        let a = spd3();
        let ch = Cholesky::new(&a).unwrap();
        let x = vec![0.3, -1.0, 2.0];
        let mean = vec![1.0, 0.5, -0.25];
        let diff = crate::vector::sub(&x, &mean);
        let direct = crate::vector::dot(&diff, &ch.solve(&diff).unwrap());
        assert!((ch.mahalanobis_sq(&x, &mean).unwrap() - direct).abs() < 1e-10);
        assert_eq!(ch.mahalanobis_sq(&mean, &mean).unwrap(), 0.0);
        assert!(ch.mahalanobis_sq(&x, &mean[..2]).is_err());
        assert!(ch.mahalanobis_sq(&x[..2], &mean).is_err());
    }

    #[test]
    fn factor_matvec_produces_covariance() {
        let a = spd3();
        let ch = Cholesky::new(&a).unwrap();
        // L e_0 is the first column of L.
        let v = ch.factor_matvec(&[1.0, 0.0, 0.0]).unwrap();
        assert!(crate::vector::max_abs_diff(&v, &ch.factor_l().col(0)) < 1e-12);
        // Row i of L has squared norm A[i,i] (since A = L Lᵀ).
        let row0 = ch.factor_l().row(0);
        assert!((crate::vector::dot(row0, row0) - a[(0, 0)]).abs() < 1e-10);
        assert!(ch.factor_matvec(&[1.0]).is_err());
    }

    #[test]
    fn scaled_factor_matches_scaled_matrix() {
        let a = spd3();
        let ch = Cholesky::new(&a).unwrap();
        let sc = ch.scaled(2.5).unwrap();
        let direct = Cholesky::new(&a.scaled(2.5)).unwrap();
        assert!(
            sc.factor_l()
                .sub(direct.factor_l())
                .unwrap()
                .frobenius_norm()
                < 1e-10
        );
        assert!((sc.log_det() - (ch.log_det() + 3.0 * 2.5f64.ln())).abs() < 1e-12);
        assert!(ch.scaled(0.0).is_err());
        assert!(ch.scaled(f64::NAN).is_err());
        // Into a factor holding other values, then into one of another
        // dimension: the same entries as the allocating path.
        let mut out = Cholesky::new(&a.scaled(7.0)).unwrap();
        ch.scaled_into(2.5, &mut out).unwrap();
        assert_eq!(out.factor_l(), sc.factor_l());
        let mut out = Cholesky::new(&Matrix::identity(1)).unwrap();
        ch.scaled_into(2.5, &mut out).unwrap();
        assert_eq!(out.factor_l(), sc.factor_l());
        assert!(ch.scaled_into(-1.0, &mut out).is_err());
        assert_eq!(out.factor_l(), sc.factor_l());
    }

    #[test]
    fn in_place_rank1_update_rejects_bad_input_and_leaves_the_factor() {
        let mut ch = Cholesky::new(&spd3()).unwrap();
        let before = ch.factor_l().clone();
        assert!(ch.rank1_update_in_place(&mut [1.0]).is_err());
        assert!(ch
            .rank1_update_in_place(&mut [0.0, f64::INFINITY, 0.0])
            .is_err());
        assert_eq!(ch.factor_l(), &before);
    }

    #[test]
    fn rank1_update_matches_refactorization() {
        let a = spd3();
        let v = [0.7, -1.2, 0.4];
        let mut ch = Cholesky::new(&a).unwrap();
        ch.rank1_update(&v).unwrap();
        let direct = a.add(&Matrix::outer(&v, &v)).unwrap();
        let expect = Cholesky::new(&direct).unwrap();
        assert!(
            ch.factor_l()
                .sub(expect.factor_l())
                .unwrap()
                .frobenius_norm()
                < 1e-10
        );
        assert!(ch.rank1_update(&[1.0]).is_err());
        assert!(ch.rank1_update(&[f64::NAN, 0.0, 0.0]).is_err());
    }

    #[test]
    fn rank1_downdate_reverses_update() {
        let a = spd3();
        let v = [0.7, -1.2, 0.4];
        let mut ch = Cholesky::new(&a).unwrap();
        ch.rank1_update(&v).unwrap();
        ch.rank1_downdate(&v).unwrap();
        let expect = Cholesky::new(&a).unwrap();
        assert!(
            ch.factor_l()
                .sub(expect.factor_l())
                .unwrap()
                .frobenius_norm()
                < 1e-9
        );
        assert!(ch.rank1_downdate(&[1.0]).is_err());
        assert!(ch.rank1_downdate(&[f64::INFINITY, 0.0, 0.0]).is_err());
    }

    #[test]
    fn rank1_downdate_failure_leaves_factor_unchanged() {
        let a = spd3();
        let mut ch = Cholesky::new(&a).unwrap();
        let before = ch.factor_l().clone();
        // A − vvᵀ is indefinite for v far larger than A's spectrum.
        let err = ch.rank1_downdate(&[10.0, 0.0, 0.0]).unwrap_err();
        assert!(matches!(err, LinalgError::NotPositiveDefinite { .. }));
        assert_eq!(ch.factor_l().sub(&before).unwrap().frobenius_norm(), 0.0);
        // The untouched factor still works.
        ch.rank1_update(&[0.1, 0.1, 0.1]).unwrap();
        assert!(ch.log_det().is_finite());
    }

    proptest! {
        #[test]
        fn prop_rank1_update_downdate_track_refactorization(
            n in 1usize..6,
            seed in proptest::collection::vec(-2.0..2.0f64, 48),
        ) {
            let data: Vec<f64> = seed.iter().cycle().take(n * n).cloned().collect();
            let b = Matrix::from_vec(n, n, data).unwrap();
            let mut a = b.matmul(&b.transpose()).unwrap();
            a.add_diag(1.0);
            let mut ch = Cholesky::new(&a).unwrap();
            // Apply a chain of updates and matching downdates; the factor
            // must track the explicitly refactorized matrix throughout.
            let vs: Vec<Vec<f64>> = (0..4)
                .map(|r| seed.iter().skip(r).take(n).cloned().collect())
                .collect();
            for v in &vs {
                ch.rank1_update(v).unwrap();
                a = a.add(&Matrix::outer(v, v)).unwrap();
                let direct = Cholesky::new(&a).unwrap();
                prop_assert!(
                    ch.factor_l().sub(direct.factor_l()).unwrap().frobenius_norm() < 1e-8
                );
            }
            for v in vs.iter().rev() {
                ch.rank1_downdate(v).unwrap();
                a = a.sub(&Matrix::outer(v, v)).unwrap();
                let direct = Cholesky::new(&a).unwrap();
                prop_assert!(
                    ch.factor_l().sub(direct.factor_l()).unwrap().frobenius_norm() < 1e-8
                );
            }
        }

        #[test]
        fn prop_factor_solve_roundtrip(
            n in 1usize..5,
            seed in proptest::collection::vec(-2.0..2.0f64, 30),
        ) {
            // Build SPD matrix A = B Bᵀ + I.
            let data: Vec<f64> = seed.iter().cycle().take(n * n).cloned().collect();
            let b = Matrix::from_vec(n, n, data).unwrap();
            let mut a = b.matmul(&b.transpose()).unwrap();
            a.add_diag(1.0);
            let ch = Cholesky::new(&a).unwrap();
            let x_true: Vec<f64> = seed.iter().take(n).cloned().collect();
            let rhs = a.matvec(&x_true).unwrap();
            let x = ch.solve(&rhs).unwrap();
            prop_assert!(crate::vector::max_abs_diff(&x, &x_true) < 1e-6);
            // log-det of SPD with unit diagonal shift is finite and >= 0
            // because all eigenvalues >= 1.
            prop_assert!(ch.log_det() >= -1e-9);
        }
    }
}
