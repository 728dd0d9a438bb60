//! Distributionally robust optimization for edge learning.
//!
//! This crate implements the DRO layer of the paper: the edge device centers
//! an ambiguity set on the empirical distribution of its few local samples,
//! and learns against the worst distribution in the set. The min–max problem
//! is recast as a single-layer minimization **via strong duality** — the
//! paper's "duality approach".
//!
//! * [`WassersteinBall`] — the type-1 Wasserstein ambiguity set with ground
//!   metric `d((x,y),(x',y')) = ‖x − x'‖₂ + κ·1{y ≠ y'}`;
//! * [`WassersteinDualObjective`] — the exact dual of the worst-case risk
//!   for Lipschitz margin losses (Shafieezadeh-Abadeh et al. 2015;
//!   Mohajerin Esfahani & Kuhn 2018), smoothed for quasi-Newton solvers,
//!   plus [`WassersteinDualObjective::exact_robust_risk`] for certificates;
//! * [`worst_case`] — adversarial-shift evaluation and robustness
//!   certificates.
//!
//! # Example
//!
//! ```
//! use dre_models::{LinearModel, LogisticLoss};
//! use dre_robust::{WassersteinBall, WassersteinDualObjective};
//!
//! let xs = vec![vec![1.0], vec![-1.0]];
//! let ys = vec![1.0, -1.0];
//! let ball = WassersteinBall::new(0.1, 1.0).unwrap();
//! let obj = WassersteinDualObjective::new(&xs, &ys, LogisticLoss, ball).unwrap();
//! let model = LinearModel::new(vec![1.0], 0.0);
//! // Robust risk upper-bounds the empirical risk.
//! let robust = obj.exact_robust_risk(&model);
//! assert!(robust >= 0.3132); // empirical logistic risk at margin 1
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod ambiguity;
mod error;
mod wasserstein;
pub mod worst_case;

pub use ambiguity::WassersteinBall;
pub use error::RobustError;
pub use wasserstein::WassersteinDualObjective;

/// Convenience result alias for fallible robust-optimization operations.
pub type Result<T> = std::result::Result<T, RobustError>;
