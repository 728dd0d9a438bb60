//! Loss functions, linear models and evaluation metrics.
//!
//! The paper's edge learner is a (regularized / robustified) linear
//! classifier; this crate provides its deterministic pieces:
//!
//! * [`MarginLoss`] implementations — [`LogisticLoss`] and [`SquaredLoss`]
//!   — each with value, derivative and the Lipschitz data needed by the
//!   Wasserstein-DRO duality;
//! * [`LinearModel`] — weights + bias with decision values, labels and
//!   probabilities;
//! * [`ErmObjective`] — the ℓ2-regularized empirical-risk objective
//!   (implements [`dre_optim::Objective`]), the Local-ERM baseline's
//!   training problem;
//! * [`SoftmaxModel`] / [`SoftmaxObjective`] — the multiclass extension;
//! * [`metrics`] — accuracy and log-loss.
//!
//! Labels are `±1` for binary models and `0..k` for softmax.
//!
//! # Example
//!
//! ```
//! use dre_models::{ErmObjective, LogisticLoss, LinearModel};
//! use dre_optim::{Lbfgs, StopCriteria};
//!
//! // Learn y = sign(x₀) from four points.
//! let xs = vec![vec![2.0], vec![1.0], vec![-1.5], vec![-0.5]];
//! let ys = vec![1.0, 1.0, -1.0, -1.0];
//! let obj = ErmObjective::new(&xs, &ys, LogisticLoss, 1e-3).unwrap();
//! let r = Lbfgs::new(StopCriteria::default()).minimize(&obj, &[0.0, 0.0]).unwrap();
//! let model = LinearModel::from_packed(&r.x);
//! assert_eq!(model.predict(&[3.0]), 1.0);
//! assert_eq!(model.predict(&[-3.0]), -1.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod erm;
mod error;
mod linear;
mod loss;
pub mod metrics;
mod softmax;

pub use erm::ErmObjective;
pub use error::ModelError;
pub use linear::LinearModel;
pub use loss::{LogisticLoss, MarginLoss, SquaredLoss};
pub use softmax::{SoftmaxModel, SoftmaxObjective};

/// Convenience result alias for fallible model operations.
pub type Result<T> = std::result::Result<T, ModelError>;
