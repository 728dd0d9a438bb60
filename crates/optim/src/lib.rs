//! Numerical optimization for the `dro-edge` workspace.
//!
//! Rust has no mature convex-optimization stack, so the solver the paper's
//! M-step (and every baseline) needs is implemented here:
//!
//! * [`Lbfgs`] — limited-memory BFGS with a strong-Wolfe line search, the
//!   workhorse for the smooth convex M-step;
//! * [`GradientDescent`] — steepest descent with Armijo backtracking, the
//!   monotone reference the L-BFGS tests compare against;
//! * the [`Objective`] trait and a [`numerical_gradient`] helper for
//!   verifying analytic gradients in tests.
//!
//! Both solvers return an [`OptimReport`] recording the final iterate, the
//! trajectory of objective values and the convergence status.
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

mod error;
mod gd;
mod lbfgs;
mod line_search;
mod objective;
mod report;

pub use error::OptimError;
pub use gd::GradientDescent;
pub use lbfgs::Lbfgs;
pub use line_search::{backtracking, strong_wolfe, LineSearchResult, WolfeStep};
pub use objective::{numerical_gradient, FnObjective, Objective, QuadraticObjective};
pub use report::{OptimReport, StopCriteria};

/// Convenience result alias for fallible optimization runs.
pub type Result<T> = std::result::Result<T, OptimError>;
