//! Numerical optimization for the `dro-edge` workspace.
//!
//! Rust has no mature convex-optimization stack, so the solver the paper's
//! M-step (and every baseline) needs is implemented here:
//!
//! * [`Bfgs`] — BFGS with a dense inverse-Hessian estimate, for small
//!   problems such as the edge M-step (`d + 2` variables), with
//!   [`InverseHessian`] to carry the estimate between related solves;
//! * [`Lbfgs`] — limited-memory BFGS, for large problems such as softmax
//!   training and the source models;
//! * [`GradientDescent`] — steepest descent with Armijo backtracking, the
//!   monotone reference the L-BFGS tests compare against;
//! * the [`Objective`] trait and a [`numerical_gradient`] helper for
//!   verifying analytic gradients in tests.
//!
//! The two quasi-Newton solvers share one loop: the strong-Wolfe line
//! search with a backtracking fallback, the stopping rules and the report;
//! only their inverse-Hessian models differ. Every solver returns an
//! [`OptimReport`] recording the final iterate, the trajectory of
//! objective values, the evaluation count and the convergence status.
//!
//! # Example
//!
//! ```
//! use dre_optim::{FnObjective, Lbfgs, StopCriteria};
//!
//! // Minimize the quadratic (x₀ − 3)² + x₁².
//! let obj = FnObjective::new(2, |x: &[f64]| {
//!     let v = (x[0] - 3.0).powi(2) + x[1] * x[1];
//!     let g = vec![2.0 * (x[0] - 3.0), 2.0 * x[1]];
//!     (v, g)
//! });
//! let report = Lbfgs::new(StopCriteria::default()).minimize(&obj, &[0.0, 1.0]).unwrap();
//! assert!((report.x[0] - 3.0).abs() < 1e-6);
//! assert!(report.converged);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bfgs;
mod error;
mod gd;
mod lbfgs;
mod line_search;
mod objective;
mod quasi_newton;
mod report;
#[cfg(test)]
mod test_support;

pub use bfgs::{Bfgs, InverseHessian};
pub use error::OptimError;
pub use gd::GradientDescent;
pub use lbfgs::{Lbfgs, LBFGS_MEMORY};
pub use line_search::{backtracking, strong_wolfe, LineSearchResult, WolfeStep};
pub use objective::{numerical_gradient, FnObjective, Objective, QuadraticObjective};
pub use report::{OptimReport, StopCriteria};

/// Convenience result alias for fallible optimization runs.
pub type Result<T> = std::result::Result<T, OptimError>;
