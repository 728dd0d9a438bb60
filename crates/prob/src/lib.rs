//! Probability distributions, special functions and conjugate priors.
//!
//! This crate is the probabilistic substrate of the `dro-edge` workspace.
//! The Rust ecosystem lacks a stable, complete probabilistic stack, so the
//! pieces the paper's algorithm needs are implemented here from scratch:
//!
//! * [`special`] — log-gamma, digamma, regularized incomplete gamma/beta,
//!   `erf`, multivariate log-gamma;
//! * univariate distributions — [`Normal`], [`Gamma`], [`Beta`],
//!   [`StudentT`], [`Categorical`], [`Bernoulli`];
//! * multivariate distributions — [`MvNormal`], [`MvStudentT`];
//! * the [`NormalInverseWishart`] conjugate prior with closed-form posterior
//!   updates, posterior-predictive densities and marginal likelihoods — the
//!   base measure of the Dirichlet-process mixtures in `dre-bayes`;
//! * [`NiwPosteriorCache`] — the incremental NIW posterior that maintains
//!   its scale's Cholesky factor under rank-1 update/downdate and keeps the
//!   predictive Student-t cached, so a Gibbs point move costs `O(d²)`
//!   instead of an `O(d³)` refactorization.
//!
//! All sampling goes through [`rand::Rng`], so callers control seeding and
//! reproducibility; [`seeded_rng`] provides the workspace's standard
//! deterministic generator.
//!
//! # Example
//!
//! ```
//! use dre_prob::{seeded_rng, Normal, Distribution};
//!
//! let mut rng = seeded_rng(7);
//! let n = Normal::new(1.0, 2.0).unwrap();
//! let x = n.sample(&mut rng);
//! assert!(x.is_finite());
//! assert!(n.log_pdf(1.0) > n.log_pdf(9.0));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod mvn;
mod mvt;
mod niw;
mod niw_cache;
pub mod special;
mod univariate;

pub use error::ProbError;
pub use mvn::MvNormal;
pub use mvt::MvStudentT;
pub use niw::{NiwSufficientStats, NormalInverseWishart};
pub use niw_cache::{NiwPosteriorCache, StagedInsert};
pub use univariate::{Bernoulli, Beta, Categorical, CategoricalScratch, Gamma, Normal, StudentT};

use rand::rngs::StdRng;
use rand::SeedableRng;

/// Convenience result alias for fallible probability operations.
pub type Result<T> = std::result::Result<T, ProbError>;

/// A univariate distribution with a density and a sampler.
pub trait Distribution {
    /// Natural logarithm of the probability density (or mass) at `x`.
    fn log_pdf(&self, x: f64) -> f64;

    /// Draws one sample.
    fn sample<R: rand::Rng + ?Sized>(&self, rng: &mut R) -> f64;

    /// Probability density at `x` (convenience wrapper over
    /// [`Distribution::log_pdf`]).
    fn pdf(&self, x: f64) -> f64 {
        self.log_pdf(x).exp()
    }

    /// Draws `n` samples into a vector.
    fn sample_n<R: rand::Rng + ?Sized>(&self, rng: &mut R, n: usize) -> Vec<f64> {
        (0..n).map(|_| self.sample(rng)).collect()
    }
}

/// The workspace's standard deterministic random generator.
///
/// Every experiment and test seeds through this function so results are
/// bit-reproducible across runs.
pub fn seeded_rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}
