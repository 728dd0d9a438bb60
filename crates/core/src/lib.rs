//! # dro-edge
//!
//! A from-scratch Rust reproduction of **"Distributionally Robust Edge
//! Learning with Dirichlet Process Prior"** (Zhang, Chen & Zhang, ICDCS
//! 2020).
//!
//! ## The problem
//!
//! An edge device must learn a model *right here, right now* from a handful
//! of local samples. Two sources of uncertainty make plain ERM fragile:
//!
//! 1. **Data uncertainty** — with few samples, the empirical distribution
//!    `P̂_n` is far from the truth, and test-time conditions drift;
//! 2. **Parameter uncertainty** — the device's true parameter is unknown,
//!    but the *cloud* has seen many related devices before.
//!
//! ## The paper's algorithm
//!
//! The cloud summarizes its historical task parameters as a **Dirichlet
//! process mixture** and ships the fitted finite summary
//! `π(θ) = Σ_k w_k N(θ; μ_k, Σ_k)` to the device
//! ([`CloudKnowledge`]). The device then solves the two-constraint DRO
//! problem
//!
//! ```text
//! min_θ  sup_{Q ∈ B_ε(P̂_n)} E_Q[ℓ(θ; z)]  −  (ρ/n)·log π(θ)
//! ```
//!
//! * the inner `sup` is recast as a **single-layer convex dual** (strong
//!   Wasserstein duality, `dre-robust`);
//! * the nonconvex `−log π(θ)` is handled by the paper's **EM-inspired
//!   convex relaxation**: an E-step computes component responsibilities, a
//!   convex quadratic majorizer replaces the mixture term, and the M-step
//!   solves `dual + quadratic` with BFGS ([`EdgeLearner`]).
//!
//! The majorize–minimize structure makes the *exact* objective monotonically
//! non-increasing across EM rounds — an invariant the test-suite checks.
//!
//! ## Baselines
//!
//! [`baselines`] implements everything the evaluation compares against:
//! local ERM, DRO without the prior, MAP transfer without robustness,
//! cloud-only (nearest historical cluster), and the ground-truth oracle.
//!
//! ## Quickstart
//!
//! ```
//! use dre_data::{TaskFamily, TaskFamilyConfig};
//! use dre_prob::seeded_rng;
//! use dro_edge::{CloudKnowledge, EdgeLearner, EdgeLearnerConfig};
//!
//! # fn main() -> Result<(), dro_edge::EdgeError> {
//! let mut rng = seeded_rng(42);
//! let family = TaskFamily::generate(&TaskFamilyConfig::default(), &mut rng)?;
//!
//! // Cloud: learn from 40 historical tasks.
//! let cloud = CloudKnowledge::from_family(&family, 40, 400, 1.0, &mut rng)?;
//!
//! // Edge: a fresh task with only 20 local samples.
//! let task = family.sample_task(&mut rng);
//! let local = task.generate(20, &mut rng);
//!
//! let learner = EdgeLearner::new(EdgeLearnerConfig::default(), cloud.prior().clone())?;
//! let fit = learner.fit(&local)?;
//! let test = task.generate(1000, &mut rng);
//! let acc = dre_models::metrics::accuracy(&fit.model, test.features(), test.labels())?;
//! assert!(acc > 0.5);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baselines;
mod cloud;
mod config;
pub mod degraded;
mod em;
mod error;
pub mod evaluate;
pub mod multiclass;
mod objective;
pub mod transfer;

pub use cloud::{train_source_model, CloudKnowledge, PriorFitMethod};
pub use config::EdgeLearnerConfig;
pub use degraded::{FitMode, ModeShares};
pub use em::{EdgeFitReport, EdgeLearner};
pub use error::EdgeError;
pub use objective::DroDpObjective;

/// Convenience result alias for fallible edge-learning operations.
pub type Result<T> = std::result::Result<T, EdgeError>;
