//! Streaming cloud learner: closes the cloud ↔ edge loop.
//!
//! The paper's pipeline transfers a Dirichlet-process mixture prior from
//! cloud to edge; edge devices report their fitted models back. This crate
//! adds the missing arrow — an **online updater of the DP prior driven by
//! those reports**, so the served prior improves as the fleet runs instead
//! of staying frozen at its initial batch fit:
//!
//! * [`SirDpFilter`] — a Rao-Blackwellized sequential-importance-resampling
//!   particle filter over collapsed DP mixture posteriors. Each particle
//!   carries per-cluster Normal-Inverse-Wishart sufficient statistics
//!   behind rank-1-updated predictive caches, so one report costs `O(K·d²)`
//!   per particle. CRP-optimal proposals and ESS-triggered seeded
//!   systematic resampling.
//! * [`CloudLearner`] — the refresh loop: drain a server's report inbox
//!   (`take_reports`), fold into per-task filters, and every
//!   `refresh_interval` reports collapse the maximum-weight particle back
//!   into a [`MixturePrior`](dre_bayes::MixturePrior) and publish it via
//!   [`PriorSink`] — to one `PriorServer` or fanned out replica-wide
//!   through a `ShardedPriorPlane`. Keep-alive clients observe each
//!   refreshed generation through the lock-free snapshot path with zero
//!   reconnects.
//! * [`AdmissionState`] — Byzantine-robust report admission guarding the
//!   refresh loop: each drained report is scored by its task filter's
//!   collapsed predictive marginal ([`SirDpFilter::score_report`]) and
//!   gated against a rolling quantile of admitted scores, while a
//!   per-device reputation ledger (trusted → suspect → quarantined, with
//!   seeded probation re-probes) quarantines repeat offenders. Enabled by
//!   [`LearnerConfig::admission`]; an admitted report's `push` reuses the
//!   score's per-particle rows and marginals, so an admitted report is
//!   scored once.
//!
//! Everything is deterministic by construction: particle-local seeded RNG
//! streams make the per-report particle loop bit-identical on every rerun,
//! and the ensemble→prior collapse uses exactly the batch
//! Gibbs collapse rule — the same report stream always publishes
//! byte-identical prior frames.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod admission;
mod learner;
mod sir;

pub use admission::{
    AdmissionConfig, AdmissionOutcome, AdmissionState, DeviceReputation, ReputationState,
    EWMA_ALPHA, GATE_QUANTILE, PROBATION_INTERVAL, PROBATION_PASSES, QUARANTINE_AFTER_GATED,
    SCORE_WINDOW, SUSPECT_THRESHOLD, TRUSTED_THRESHOLD,
};
pub use learner::{CloudLearner, LearnerConfig, LearnerTick, PriorSink};
pub use sir::{SirConfig, SirDpFilter};

/// Errors from the streaming learner.
#[derive(Debug)]
pub enum LearnerError {
    /// A configuration parameter is out of range.
    InvalidConfig {
        /// What was wrong.
        reason: &'static str,
    },
    /// A reported model could not be absorbed.
    InvalidReport {
        /// What was wrong.
        reason: &'static str,
    },
    /// A probabilistic kernel failed (factorization, sampling, densities).
    Prob(dre_prob::ProbError),
    /// Mixture-prior assembly failed.
    Bayes(dre_bayes::BayesError),
}

impl std::fmt::Display for LearnerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LearnerError::InvalidConfig { reason } => {
                write!(f, "invalid learner config: {reason}")
            }
            LearnerError::InvalidReport { reason } => {
                write!(f, "invalid model report: {reason}")
            }
            LearnerError::Prob(e) => write!(f, "probability kernel failed: {e}"),
            LearnerError::Bayes(e) => write!(f, "mixture assembly failed: {e}"),
        }
    }
}

impl std::error::Error for LearnerError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            LearnerError::Prob(e) => Some(e),
            LearnerError::Bayes(e) => Some(e),
            _ => None,
        }
    }
}

impl From<dre_prob::ProbError> for LearnerError {
    fn from(e: dre_prob::ProbError) -> Self {
        LearnerError::Prob(e)
    }
}

impl From<dre_bayes::BayesError> for LearnerError {
    fn from(e: dre_bayes::BayesError) -> Self {
        LearnerError::Bayes(e)
    }
}

/// Convenience result alias for learner operations.
pub type Result<T> = std::result::Result<T, LearnerError>;
