//! The quasi-Newton loop [`Lbfgs`](crate::Lbfgs) and [`Bfgs`](crate::Bfgs)
//! share: strong-Wolfe line search with a backtracking fallback, the
//! curvature pair of every accepted step, and the stopping rules. The two
//! differ only in how they model the inverse Hessian ([`Curvature`]).

use crate::line_search::{backtracking_in, strong_wolfe_in, WolfeSlots};
use crate::objective::Counted;
use crate::{Objective, OptimError, OptimReport, Result, StopCriteria};

/// The inverse-Hessian model `H` of a quasi-Newton method.
pub(crate) trait Curvature {
    /// Writes the search direction `p = −H·g`.
    fn direction(&mut self, g: &[f64], p: &mut [f64]);

    /// Folds in an accepted step `s = x₊ − x` and its gradient change
    /// `y = ∇f(x₊) − ∇f(x)`, whose curvature `sy = sᵀy` is positive.
    fn update(&mut self, s: &[f64], y: &[f64], sy: f64);

    /// Forgets all curvature, so the next direction is steepest descent.
    fn reset(&mut self);
}

/// Minimizes `obj` from `x0`, modelling the inverse Hessian with
/// `curvature` (which keeps whatever it learns).
///
/// # Errors
///
/// * [`OptimError::DimensionMismatch`] when `x0.len() != obj.dim()`.
/// * [`OptimError::NonFiniteObjective`] when the objective degenerates.
/// * [`OptimError::LineSearchFailed`] when neither the Wolfe search nor
///   a backtracking fallback finds a descent step.
pub(crate) fn minimize<O: Objective + ?Sized, C: Curvature>(
    stop: &StopCriteria,
    obj: &O,
    x0: &[f64],
    curvature: &mut C,
) -> Result<OptimReport> {
    if x0.len() != obj.dim() {
        return Err(OptimError::DimensionMismatch {
            expected: obj.dim(),
            got: x0.len(),
        });
    }
    let obj = &Counted::new(obj);
    // Every buffer of the loop is allocated here, once: the iterate and its
    // gradient, the direction, the curvature pair, and the Wolfe search's
    // two trial slots.
    let dim = x0.len();
    let mut x = x0.to_vec();
    let mut g = vec![0.0; dim];
    let mut fx = obj.value_and_gradient_into(&x, &mut g);
    if !fx.is_finite() || !dre_linalg::vector::all_finite(&g) {
        return Err(OptimError::NonFiniteObjective { iteration: 0 });
    }
    let mut p = vec![0.0; dim];
    let mut s = vec![0.0; dim];
    let mut y = vec![0.0; dim];
    let mut slots = WolfeSlots::new(dim);
    let mut trace = Vec::with_capacity(stop.max_iters.min(TRACE_RESERVE) + 1);
    trace.push(fx);
    let mut converged = false;
    let mut iterations = 0;

    for iter in 0..stop.max_iters {
        iterations = iter + 1;
        if dre_linalg::vector::norm_inf(&g) <= stop.grad_tol {
            converged = true;
            iterations = iter;
            break;
        }

        curvature.direction(&g, &mut p);
        let mut gdp = dre_linalg::vector::dot(&g, &p);
        // If curvature information produced a non-descent direction
        // (possible on non-convex or non-smooth objectives), reset to
        // steepest descent.
        if gdp >= 0.0 {
            curvature.reset();
            gdp = -dre_linalg::vector::dot(&g, &g);
            for (pi, gi) in p.iter_mut().zip(&g) {
                *pi = -gi;
            }
        }

        // The Wolfe search leaves the accepted point, value and gradient in
        // one of its slots. The backtracking fallback needs only values, but
        // evaluates through the in-place entry point too, into a slot's
        // gradient buffer, so it allocates nothing (an objective's
        // `value_and_gradient_into` returns the bits of its value); only its
        // accepted point needs a fresh evaluation for the gradient.
        let accepted = match strong_wolfe_in(obj, &x, &p, fx, gdp, 1e-4, 0.9, &mut slots) {
            Some(k) => &mut slots.0[k],
            None => {
                let [trial, point] = &mut slots.0;
                let ls = backtracking_in(&x, &p, fx, gdp, 1.0, 1e-4, &mut trial.x, |t| {
                    obj.value_and_gradient_into(t, &mut trial.gradient)
                })
                .ok_or(OptimError::LineSearchFailed { iteration: iter })?;
                point.x.copy_from_slice(&x);
                dre_linalg::vector::axpy(ls.step, &p, &mut point.x);
                point.value = obj.value_and_gradient_into(&point.x, &mut point.gradient);
                point
            }
        };
        let f_new = accepted.value;
        if !f_new.is_finite() || !dre_linalg::vector::all_finite(&accepted.gradient) {
            return Err(OptimError::NonFiniteObjective { iteration: iter });
        }

        for (si, (xn, xo)) in s.iter_mut().zip(accepted.x.iter().zip(&x)) {
            *si = xn - xo;
        }
        for (yi, (gn, go)) in y.iter_mut().zip(accepted.gradient.iter().zip(&g)) {
            *yi = gn - go;
        }
        let sy = dre_linalg::vector::dot(&s, &y);
        if sy > 1e-12 {
            curvature.update(&s, &y, sy);
        }

        let prev = fx;
        std::mem::swap(&mut x, &mut accepted.x);
        std::mem::swap(&mut g, &mut accepted.gradient);
        fx = f_new;
        trace.push(fx);
        if (prev - fx).abs() <= stop.f_tol {
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

/// Iterations the objective trace reserves up front; a longer run grows it.
const TRACE_RESERVE: usize = 1024;
