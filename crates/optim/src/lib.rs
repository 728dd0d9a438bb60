//! Numerical optimization for the `dro-edge` workspace.
//!
//! Rust has no mature convex-optimization stack, so the solvers the paper's
//! M-step (and every baseline) needs are implemented here:
//!
//! * [`GradientDescent`] — steepest descent with Armijo backtracking,
//!   optional (Nesterov) momentum;
//! * [`Adam`] — the adaptive first-order method, used by non-convex
//!   baselines;
//! * [`Lbfgs`] — limited-memory BFGS with a strong-Wolfe line search, the
//!   workhorse for the smooth convex M-step;
//! * [`ProximalGradient`] — ISTA/FISTA for composite objectives
//!   `f(x) + g(x)` with a simple proximal operator `g` (ℓ1, ℓ2,
//!   box/non-negativity, ℓ2-ball projection) — used by the
//!   Lipschitz-regularized DRO reformulation;
//! * the [`Objective`] trait and a [`numerical_gradient`] helper for
//!   verifying analytic gradients in tests.
//!
//! All solvers return an [`OptimReport`] recording the final iterate, the
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

mod adam;
mod error;
mod gd;
mod lbfgs;
mod line_search;
mod objective;
mod proximal;
mod report;

pub use adam::Adam;
pub use error::OptimError;
pub use gd::{GradientDescent, MomentumKind};
pub use lbfgs::Lbfgs;
pub use line_search::{backtracking, strong_wolfe, LineSearchResult, WolfeStep};
pub use objective::{numerical_gradient, FnObjective, Objective, QuadraticObjective};
pub use proximal::{Prox, ProximalGradient};
pub use report::{OptimReport, StopCriteria};

/// Convenience result alias for fallible optimization runs.
pub type Result<T> = std::result::Result<T, OptimError>;
