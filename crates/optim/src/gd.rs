//! Gradient descent with Armijo backtracking.

use crate::line_search::backtracking;
use crate::objective::Counted;
use crate::{Objective, OptimError, OptimReport, Result, StopCriteria};

/// First-order descent solver.
///
/// Every step passes an Armijo backtracking line search, so the objective
/// trace is monotone — the property the paper's M-step inherits. It is the
/// reference the [`Lbfgs`](crate::Lbfgs) tests check their minimizers
/// against.
///
/// # Example
///
/// ```
/// use dre_optim::{GradientDescent, FnObjective, StopCriteria};
///
/// let obj = FnObjective::new(1, |x: &[f64]| ((x[0] + 2.0).powi(2), vec![2.0 * (x[0] + 2.0)]));
/// let r = GradientDescent::new(StopCriteria::default())
///     .minimize(&obj, &[5.0])
///     .unwrap();
/// assert!((r.x[0] + 2.0).abs() < 1e-6);
/// ```
#[derive(Debug, Clone)]
pub struct GradientDescent {
    stop: StopCriteria,
}

impl GradientDescent {
    /// Creates a monotone, line-searched gradient-descent solver.
    pub fn new(stop: StopCriteria) -> Self {
        GradientDescent { stop }
    }

    /// Minimizes `obj` from `x0`.
    ///
    /// # Errors
    ///
    /// * [`OptimError::DimensionMismatch`] when `x0.len() != obj.dim()`.
    /// * [`OptimError::NonFiniteObjective`] when the objective or gradient
    ///   degenerates.
    /// * [`OptimError::LineSearchFailed`] when no descent step exists.
    pub fn minimize<O: Objective + ?Sized>(&self, obj: &O, x0: &[f64]) -> Result<OptimReport> {
        if x0.len() != obj.dim() {
            return Err(OptimError::DimensionMismatch {
                expected: obj.dim(),
                got: x0.len(),
            });
        }
        let obj = &Counted::new(obj);
        let mut x = x0.to_vec();
        let (mut fx, mut g) = obj.value_and_gradient(&x);
        if !fx.is_finite() || !dre_linalg::vector::all_finite(&g) {
            return Err(OptimError::NonFiniteObjective { iteration: 0 });
        }
        let mut trace = vec![fx];
        let mut converged = false;
        let mut iterations = 0;

        for iter in 0..self.stop.max_iters {
            iterations = iter + 1;
            let gnorm = dre_linalg::vector::norm_inf(&g);
            if gnorm <= self.stop.grad_tol {
                converged = true;
                iterations = iter;
                break;
            }
            let p: Vec<f64> = g.iter().map(|v| -v).collect();
            let gdp = -dre_linalg::vector::dot(&g, &g);
            let ls = backtracking(obj, &x, &p, fx, gdp, 1.0, 1e-4)
                .ok_or(OptimError::LineSearchFailed { iteration: iter })?;
            dre_linalg::vector::axpy(ls.step, &p, &mut x);
            let prev = fx;
            fx = ls.value;
            g = obj.gradient(&x);
            trace.push(fx);
            if (prev - fx).abs() <= self.stop.f_tol {
                converged = true;
                break;
            }
        }

        Ok(OptimReport {
            grad_norm: dre_linalg::vector::norm_inf(&g),
            value: fx,
            x,
            iterations,
            evaluations: obj.evaluations(),
            converged,
            trace,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FnObjective, QuadraticObjective};
    use dre_linalg::Matrix;

    fn quadratic() -> QuadraticObjective {
        let a = Matrix::from_rows(&[&[4.0, 1.0], &[1.0, 3.0]]).unwrap();
        QuadraticObjective::new(a, vec![1.0, 2.0], 0.0)
    }

    #[test]
    fn plain_gd_reaches_quadratic_minimum() {
        let q = quadratic();
        let r = GradientDescent::new(StopCriteria::default())
            .minimize(&q, &[10.0, -10.0])
            .unwrap();
        assert!(r.converged);
        // Solve A x = b directly for the truth.
        let truth = dre_linalg::Cholesky::new(q.a())
            .unwrap()
            .solve(q.b())
            .unwrap();
        assert!(dre_linalg::vector::max_abs_diff(&r.x, &truth) < 1e-5);
        assert!(r.is_monotone(1e-12), "plain GD must be monotone");
        assert!(r.grad_norm <= 1e-4);
    }

    #[test]
    fn rejects_dimension_mismatch_and_nonfinite() {
        let q = quadratic();
        let gd = GradientDescent::new(StopCriteria::default());
        assert!(matches!(
            gd.minimize(&q, &[0.0]),
            Err(OptimError::DimensionMismatch { .. })
        ));
        let bad = FnObjective::new(1, |_: &[f64]| (f64::NAN, vec![f64::NAN]));
        assert!(matches!(
            gd.minimize(&bad, &[0.0]),
            Err(OptimError::NonFiniteObjective { .. })
        ));
    }

    #[test]
    fn zero_gradient_start_converges_immediately() {
        let q = quadratic();
        let truth = dre_linalg::Cholesky::new(q.a())
            .unwrap()
            .solve(q.b())
            .unwrap();
        let r = GradientDescent::new(StopCriteria::default())
            .minimize(&q, &truth)
            .unwrap();
        assert!(r.converged);
        assert_eq!(r.iterations, 0);
    }

    #[test]
    fn handles_nonsmooth_subgradient_descent() {
        // f(x) = |x| with subgradient sign(x): GD with backtracking makes
        // progress toward 0 as long as iterates avoid the kink exactly.
        let obj = FnObjective::new(1, |x: &[f64]| {
            (x[0].abs(), vec![if x[0] >= 0.0 { 1.0 } else { -1.0 }])
        });
        let r = GradientDescent::new(StopCriteria::with_max_iters(200))
            .minimize(&obj, &[3.3])
            .unwrap();
        assert!(r.value < 1e-3, "value {}", r.value);
    }

    #[test]
    fn armijo_fails_honestly_at_a_kink() {
        // Starting exactly at the minimum of |x|, the subgradient is 1 but
        // no direction decreases the objective: the line search must report
        // failure rather than loop or lie.
        let obj = FnObjective::new(1, |x: &[f64]| {
            (x[0].abs(), vec![if x[0] >= 0.0 { 1.0 } else { -1.0 }])
        });
        let err = GradientDescent::new(StopCriteria::with_max_iters(100))
            .minimize(&obj, &[0.0])
            .unwrap_err();
        assert!(matches!(err, OptimError::LineSearchFailed { .. }));
    }
}
