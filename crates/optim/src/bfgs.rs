//! Full-matrix BFGS for small problems.

use crate::quasi_newton::{self, Curvature};
use crate::{Objective, OptimError, OptimReport, Result, StopCriteria};

/// BFGS (Nocedal & Wright, Algorithm 6.1) with a dense inverse-Hessian
/// estimate and the strong-Wolfe line search [`Lbfgs`](crate::Lbfgs)
/// uses.
///
/// The solver for small smooth problems such as the paper's edge M-step
/// (`d + 2` variables): a `d²` estimate costs less per iteration than
/// L-BFGS's two-loop recursion over its pairs at that size, and it keeps
/// every step's curvature rather than the newest few. For large problems
/// use [`Lbfgs`](crate::Lbfgs), whose memory is `O(m·d)`.
///
/// # Example
///
/// ```
/// use dre_optim::{Bfgs, FnObjective, StopCriteria};
///
/// let obj = FnObjective::new(2, |x: &[f64]| {
///     let (a, b) = (1.0 - x[0], x[1] - x[0] * x[0]);
///     (a * a + 100.0 * b * b,
///      vec![-2.0 * a - 400.0 * x[0] * b, 200.0 * b])
/// });
/// let r = Bfgs::new(StopCriteria::default()).minimize(&obj, &[-1.2, 1.0]).unwrap();
/// assert!((r.x[0] - 1.0).abs() < 1e-5 && (r.x[1] - 1.0).abs() < 1e-5);
/// ```
#[derive(Debug, Clone)]
pub struct Bfgs {
    stop: StopCriteria,
}

impl Bfgs {
    /// Creates a BFGS solver.
    pub fn new(stop: StopCriteria) -> Self {
        Bfgs { stop }
    }

    /// Minimizes `obj` from `x0`, starting from the identity as the
    /// inverse-Hessian estimate.
    ///
    /// # Errors
    ///
    /// * [`OptimError::DimensionMismatch`] when `x0.len() != obj.dim()`.
    /// * [`OptimError::NonFiniteObjective`] when the objective degenerates.
    /// * [`OptimError::LineSearchFailed`] when neither the Wolfe search nor
    ///   a backtracking fallback finds a descent step.
    pub fn minimize<O: Objective + ?Sized>(&self, obj: &O, x0: &[f64]) -> Result<OptimReport> {
        self.minimize_warm(obj, x0, &mut InverseHessian::default())
    }

    /// Minimizes `obj` from `x0`, starting from the inverse-Hessian
    /// estimate in `estimate` and leaving the run's final estimate there
    /// for the next call.
    ///
    /// Worth it for a sequence of objectives whose curvature barely moves
    /// between calls, such as the M-steps of an EM chain whose E-step only
    /// reweights a quadratic term. With an empty estimate this is exactly
    /// [`Bfgs::minimize`].
    ///
    /// # Errors
    ///
    /// As [`Bfgs::minimize`]; additionally
    /// [`OptimError::DimensionMismatch`] when `estimate` is of another
    /// dimension.
    pub fn minimize_warm<O: Objective + ?Sized>(
        &self,
        obj: &O,
        x0: &[f64],
        estimate: &mut InverseHessian,
    ) -> Result<OptimReport> {
        if !estimate.hy.is_empty() && estimate.hy.len() != obj.dim() {
            return Err(OptimError::DimensionMismatch {
                expected: obj.dim(),
                got: estimate.hy.len(),
            });
        }
        quasi_newton::minimize(&self.stop, obj, x0, estimate)
    }
}

/// The dense inverse-Hessian estimate `H` a BFGS run builds, carried
/// between [`Bfgs::minimize_warm`] calls. Empty (the identity) until the
/// first curvature pair.
#[derive(Debug, Clone, Default)]
pub struct InverseHessian {
    /// `H`, row-major `d × d`; empty for the identity.
    h: Vec<f64>,
    /// Scratch for `H·y`; `d` long from the first update on, which fixes
    /// the estimate's dimension.
    hy: Vec<f64>,
}

impl Curvature for InverseHessian {
    fn direction(&mut self, g: &[f64], p: &mut [f64]) {
        if self.h.is_empty() {
            for (pi, gi) in p.iter_mut().zip(g) {
                *pi = -gi;
            }
            return;
        }
        for (pi, row) in p.iter_mut().zip(self.h.chunks_exact(g.len())) {
            *pi = -dre_linalg::vector::dot(row, g);
        }
    }

    fn update(&mut self, s: &[f64], y: &[f64], sy: f64) {
        let dim = s.len();
        if self.h.is_empty() {
            // Before the first update, scale the identity to the curvature
            // the first pair measured along its step (Nocedal & Wright, eq.
            // 6.20). A reset estimate refills its old buffers.
            let gamma = sy / dre_linalg::vector::dot(y, y);
            self.h.resize(dim * dim, 0.0);
            for i in 0..dim {
                self.h[i * dim + i] = gamma;
            }
            self.hy.resize(dim, 0.0);
        }
        // H₊ = (I − ρ s yᵀ) H (I − ρ y sᵀ) + ρ s sᵀ with ρ = 1/sᵀy, expanded
        // with u = H·y as H − ρ(s uᵀ + u sᵀ) + (ρ² yᵀu + ρ) s sᵀ. Entries
        // (i, j) and (j, i) add the same products (sums and products of two
        // terms commute exactly), so the estimate stays exactly symmetric.
        let rho = 1.0 / sy;
        for (ui, row) in self.hy.iter_mut().zip(self.h.chunks_exact(dim)) {
            *ui = dre_linalg::vector::dot(row, y);
        }
        let ss = (rho * dre_linalg::vector::dot(y, &self.hy) + 1.0) * rho;
        for ((row, &si), &ui) in self.h.chunks_exact_mut(dim).zip(s).zip(&self.hy) {
            for ((hij, &sj), &uj) in row.iter_mut().zip(s).zip(&self.hy) {
                *hij += ss * (si * sj) - rho * (si * uj + ui * sj);
            }
        }
    }

    fn reset(&mut self) {
        self.h.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::{owned, quadratic3, report_bits, rosenbrock, Counting, Golden};
    use crate::QuadraticObjective;
    use dre_linalg::Matrix;

    #[test]
    fn solves_quadratic_exactly() {
        let q = quadratic3();
        let r = Bfgs::new(StopCriteria::default())
            .minimize(&q, &[10.0, 10.0, 10.0])
            .unwrap();
        let truth = dre_linalg::Cholesky::new(q.a())
            .unwrap()
            .solve(q.b())
            .unwrap();
        assert!(r.converged);
        assert!(dre_linalg::vector::max_abs_diff(&r.x, &truth) < 1e-6);
    }

    #[test]
    fn solves_rosenbrock() {
        let r = Bfgs::new(StopCriteria::with_max_iters(300))
            .minimize(&rosenbrock(), &[-1.2, 1.0])
            .unwrap();
        assert!(r.converged);
        assert!((r.x[0] - 1.0).abs() < 1e-5);
        assert!((r.x[1] - 1.0).abs() < 1e-5);
        assert!(r.value < 1e-10);
    }

    #[test]
    fn every_distinct_trial_point_is_evaluated_exactly_once() {
        let counted = Counting::new(rosenbrock());
        let r = Bfgs::new(StopCriteria::with_max_iters(300))
            .minimize(&counted, &[-1.2, 1.0])
            .unwrap();
        let (evals, distinct) = counted.counts();
        assert_eq!(evals, distinct, "a trial point was evaluated twice");
        assert_eq!(r.evaluations, evals, "the report's evaluation count");
    }

    #[test]
    fn estimate_stays_symmetric_and_positive_definite() {
        let a = Matrix::from_diag(&[1.0, 3.0, 10.0, 30.0, 100.0]);
        let q = QuadraticObjective::new(a, vec![1.0, -1.0, 2.0, 0.5, -3.0], 0.0);
        let mut estimate = InverseHessian::default();
        Bfgs::new(StopCriteria::with_max_iters(6))
            .minimize_warm(&q, &[4.0; 5], &mut estimate)
            .unwrap();
        let d = 5;
        assert_eq!(estimate.h.len(), d * d);
        for i in 0..d {
            for j in 0..d {
                assert_eq!(
                    estimate.h[i * d + j].to_bits(),
                    estimate.h[j * d + i].to_bits()
                );
            }
        }
        // H is symmetric, so it is positive definite iff it factors.
        let h = Matrix::from_vec(d, d, estimate.h.clone()).unwrap();
        assert!(dre_linalg::Cholesky::new(&h).is_ok());
    }

    #[test]
    fn quadratic_and_rosenbrock_reports_are_bit_identical_to_the_goldens() {
        let r = Bfgs::new(StopCriteria::default())
            .minimize(&quadratic3(), &[10.0, 10.0, 10.0])
            .unwrap();
        assert_eq!(report_bits(&r), owned(QUADRATIC_GOLDEN));
        let r = Bfgs::new(StopCriteria::with_max_iters(300))
            .minimize(&rosenbrock(), &[-1.2, 1.0])
            .unwrap();
        assert_eq!(report_bits(&r), owned(ROSENBROCK_GOLDEN));
    }

    #[test]
    fn warm_start_from_an_empty_estimate_is_the_cold_solve() {
        let stop = StopCriteria::with_max_iters(300);
        let cold = Bfgs::new(stop)
            .minimize(&rosenbrock(), &[-1.2, 1.0])
            .unwrap();
        let mut estimate = InverseHessian::default();
        let warm = Bfgs::new(stop)
            .minimize_warm(&rosenbrock(), &[-1.2, 1.0], &mut estimate)
            .unwrap();
        assert_eq!(report_bits(&warm), report_bits(&cold));
        assert_eq!(warm.evaluations, cold.evaluations);
    }

    #[test]
    fn warm_estimate_saves_evaluations_on_a_shifted_objective() {
        // Same ill-conditioned Hessian, new linear term, as between two EM
        // rounds: the estimate a few iterations of the first solve build
        // describes the second one's curvature.
        let a = Matrix::from_diag(&[1.0, 3.0, 10.0, 30.0, 100.0, 300.0]);
        let first = QuadraticObjective::new(a.clone(), vec![1.0; 6], 0.0);
        let second = QuadraticObjective::new(a, vec![-2.0, 0.5, 3.0, -1.0, 2.0, -4.0], 0.0);
        let mut estimate = InverseHessian::default();
        let r1 = Bfgs::new(StopCriteria::with_max_iters(8))
            .minimize_warm(&first, &[0.0; 6], &mut estimate)
            .unwrap();

        let solver = Bfgs::new(StopCriteria::default());
        let rc = solver.minimize(&second, &r1.x).unwrap();
        let rw = solver.minimize_warm(&second, &r1.x, &mut estimate).unwrap();
        assert!(rc.converged && rw.converged);
        assert!((rc.value - rw.value).abs() < 1e-9);
        assert!(
            rw.evaluations < rc.evaluations,
            "warm {} vs cold {} evaluations",
            rw.evaluations,
            rc.evaluations
        );
    }

    #[test]
    fn warm_estimate_of_another_dimension_is_rejected() {
        let solver = Bfgs::new(StopCriteria::default());
        let mut estimate = InverseHessian::default();
        let q2 = QuadraticObjective::new(Matrix::from_diag(&[1.0, 2.0]), vec![1.0, 1.0], 0.0);
        solver
            .minimize_warm(&q2, &[3.0, 3.0], &mut estimate)
            .unwrap();
        let q3 = QuadraticObjective::new(Matrix::identity(3), vec![1.0; 3], 0.0);
        assert!(matches!(
            solver.minimize_warm(&q3, &[0.0; 3], &mut estimate),
            Err(OptimError::DimensionMismatch {
                expected: 3,
                got: 2
            })
        ));
    }

    // Pinned when BFGS joined L-BFGS on the shared quasi-Newton loop.
    const QUADRATIC_GOLDEN: Golden = (
        &[0x3FD4A9E6BE7FA072, 0xBFE3A8C0DCB4308D, 0x3FD138404A0CBC19],
        0x3FF282DEB5619416,
        0x3E20DC2F40000000,
        &[
            0x4087A80000000000,
            0x405B8C8000000000,
            0x40114DF86C4935CD,
            0x3FFA8396B2C9BA73,
            0x3FF2C9E8213DDCA8,
            0x3FF28C606D47D526,
            0x3FF282E48E2C9F5E,
            0x3FF282DEBD927394,
            0x3FF282DEB561D7D4,
            0x3FF282DEB5619423,
            0x3FF282DEB5619416,
        ],
        10,
        true,
    );

    const ROSENBROCK_GOLDEN: Golden = (
        &[0x3FEFFFFFFFF4064B, 0x3FEFFFFFFFE6826C],
        0x3BD7C7AB26B09000,
        0x3E327F71AFF8CC24,
        &[
            0x4038333333333332,
            0x4014678A13FF6669,
            0x40109D7AB6A67BC4,
            0x4010789775DFBA95,
            0x4006E3C81689306D,
            0x40057F0ED73F60DA,
            0x40045991CB6BDB33,
            0x3FFBF5BBCC6B4650,
            0x3FF9DE13E497DF7E,
            0x3FF4B4E96EC98A99,
            0x3FF285429138BCA3,
            0x3FEDDE167F057DA7,
            0x3FE5665F87336440,
            0x3FE31009C4B26A00,
            0x3FE22A86960C8BDC,
            0x3FDDA08C30E591A1,
            0x3FD73C5311BEDCCD,
            0x3FD43459AD21D1D0,
            0x3FCF3B445F44963E,
            0x3FC4784A846ABBD9,
            0x3FB9C2BC67924C1E,
            0x3FB4567BFF4FEEBC,
            0x3FA1D278C4216D14,
            0x3F8DB4592C1011FC,
            0x3F741DF0933A8335,
            0x3F683ABA566E8CB8,
            0x3F59469FCCAF4A20,
            0x3F2A899D14CFB128,
            0x3EF657540879B84C,
            0x3EB06AFAB9257854,
            0x3E70C6B1F6240B1C,
            0x3DA161F440394DC2,
            0x3C95A9B8B2B39A79,
            0x3BD7C7AB26B09000,
        ],
        33,
        true,
    );
}
