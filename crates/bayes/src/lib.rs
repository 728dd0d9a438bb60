//! Dirichlet-process mixture machinery.
//!
//! The paper transfers cloud knowledge to edge devices as a **Dirichlet
//! process prior over model parameters**. This crate implements that prior
//! end to end:
//!
//! * [`Crp`] — the Chinese Restaurant Process view of the prior, with
//!   the exact expected-table-count formula used by experiment E10;
//! * [`DpNiwGibbs`] — a collapsed Gibbs sampler (Neal's Algorithm 3) for the
//!   DP mixture with a [Normal-Inverse-Wishart](dre_prob::NormalInverseWishart)
//!   base measure — the cloud-side fitting procedure. Scoring runs on
//!   per-cluster incremental predictive caches
//!   ([`NiwPosteriorCache`](dre_prob::NiwPosteriorCache)), with a
//!   [`GibbsConfig::exact_recompute`] escape hatch;
//! * [`VariationalDpGmm`] — a truncated stick-breaking variational-EM
//!   alternative with deterministic updates;
//! * [`MixturePrior`] — the finite summary `(w_k, μ_k, Σ_k)` shipped to the
//!   edge, with the responsibility computations and the convex quadratic
//!   majorizer ([`QuadraticSurrogate`]) at the heart of the paper's
//!   EM-inspired relaxation.
//!
//! # Example
//!
//! ```
//! use dre_bayes::Crp;
//!
//! let crp = Crp::new(1.0).unwrap();
//! // Expected number of clusters grows like α·ln(n).
//! assert!(crp.expected_tables(1000) < 10.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod concentration;
mod crp;
mod error;
mod gibbs;
mod mixture;
mod variational;

pub use concentration::ConcentrationPrior;
pub use crp::Crp;
pub use error::BayesError;
pub use gibbs::{expected_covariance, DpNiwGibbs, GibbsCacheStats, GibbsConfig, GibbsResult};
pub use mixture::{MixtureComponent, MixturePrior, QuadraticSurrogate};
pub use variational::{VariationalConfig, VariationalDpGmm, VariationalResult};

/// Convenience result alias for fallible Bayesian operations.
pub type Result<T> = std::result::Result<T, BayesError>;
