//! Convergence control and run reports shared by all solvers.

/// Stopping criteria for iterative solvers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StopCriteria {
    /// Maximum number of iterations.
    pub max_iters: usize,
    /// Stop when the gradient's ℓ∞ norm falls below this.
    pub grad_tol: f64,
    /// Stop when the objective improves by less than this between
    /// iterations.
    pub f_tol: f64,
}

impl Default for StopCriteria {
    fn default() -> Self {
        StopCriteria {
            max_iters: 500,
            grad_tol: 1e-8,
            f_tol: 1e-12,
        }
    }
}

impl StopCriteria {
    /// Criteria with a custom iteration budget and default tolerances.
    pub fn with_max_iters(max_iters: usize) -> Self {
        StopCriteria {
            max_iters,
            ..StopCriteria::default()
        }
    }
}

/// Outcome of a solver run.
#[derive(Debug, Clone)]
pub struct OptimReport {
    /// Final iterate.
    pub x: Vec<f64>,
    /// Objective value at the final iterate.
    pub value: f64,
    /// ℓ∞ norm of the gradient at the final iterate.
    pub grad_norm: f64,
    /// Number of iterations performed.
    pub iterations: usize,
    /// Objective evaluations the run made: the start, every line-search
    /// trial, and any re-evaluation of an accepted point.
    pub evaluations: usize,
    /// Whether a stopping tolerance (rather than the iteration budget) was
    /// hit.
    pub converged: bool,
    /// Objective value after each iteration (index 0 is the starting
    /// value).
    pub trace: Vec<f64>,
}

impl OptimReport {
    /// True when the objective trace is non-increasing up to `tol` — the
    /// descent property monotone solvers must satisfy.
    pub fn is_monotone(&self, tol: f64) -> bool {
        self.trace.windows(2).all(|w| w[1] <= w[0] + tol)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let s = StopCriteria::default();
        assert!(s.max_iters > 0);
        assert!(s.grad_tol > 0.0);
        let s = StopCriteria::with_max_iters(10);
        assert_eq!(s.max_iters, 10);
        assert_eq!(s.grad_tol, StopCriteria::default().grad_tol);
    }

    #[test]
    fn monotonicity_check() {
        let base = OptimReport {
            x: vec![],
            value: 0.0,
            grad_norm: 0.0,
            iterations: 3,
            evaluations: 4,
            converged: true,
            trace: vec![3.0, 2.0, 2.0, 1.0],
        };
        assert!(base.is_monotone(0.0));
        let wiggle = OptimReport {
            trace: vec![3.0, 3.1, 1.0],
            ..base
        };
        assert!(!wiggle.is_monotone(0.0));
        assert!(wiggle.is_monotone(0.2));
    }
}
