//! Edge-learner configuration.

use crate::{EdgeError, Result};

/// Configuration of the [`EdgeLearner`](crate::EdgeLearner).
///
/// Defaults follow the regimes the paper's evaluation sweeps over:
/// a modest Wasserstein radius, finite label-flip cost, and a prior weight
/// that lets a few dozen local samples start overriding cloud knowledge.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EdgeLearnerConfig {
    /// Wasserstein ambiguity radius `ε ≥ 0` around the local empirical
    /// distribution.
    pub epsilon: f64,
    /// Label-flip transport cost `κ > 0` (use `f64::INFINITY` for a
    /// features-only ball).
    pub kappa: f64,
    /// Weight `ρ ≥ 0` of the cloud prior: the objective carries
    /// `(ρ/n)·(−log π(θ))`, so the prior's influence fades as local data
    /// accumulates.
    pub rho: f64,
    /// Maximum EM (majorize–minimize) rounds.
    pub em_rounds: usize,
    /// Stop EM when the exact objective improves by less than this.
    pub em_tol: f64,
    /// Iteration budget of the inner convex solver per M-step.
    pub solver_iters: usize,
    /// Probe every prior component's basin with a one-round EM chain before
    /// committing (recommended; the DP prior is multi-modal). Disable to
    /// reproduce the single-start ablation (E12).
    pub multi_start: bool,
}

impl Default for EdgeLearnerConfig {
    fn default() -> Self {
        EdgeLearnerConfig {
            epsilon: 0.1,
            kappa: 1.0,
            rho: 1.0,
            em_rounds: 25,
            em_tol: 1e-8,
            solver_iters: 300,
            multi_start: true,
        }
    }
}

impl EdgeLearnerConfig {
    /// Validates every field.
    ///
    /// # Errors
    ///
    /// Returns [`EdgeError::InvalidConfig`] naming the offending field.
    pub fn validate(&self) -> Result<()> {
        if !(self.epsilon >= 0.0 && self.epsilon.is_finite()) {
            return Err(EdgeError::InvalidConfig {
                param: "epsilon",
                value: self.epsilon,
            });
        }
        if self.kappa.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
            return Err(EdgeError::InvalidConfig {
                param: "kappa",
                value: self.kappa,
            });
        }
        if !(self.rho >= 0.0 && self.rho.is_finite()) {
            return Err(EdgeError::InvalidConfig {
                param: "rho",
                value: self.rho,
            });
        }
        if self.em_rounds == 0 {
            return Err(EdgeError::InvalidConfig {
                param: "em_rounds",
                value: 0.0,
            });
        }
        if self.em_tol.partial_cmp(&0.0) == Some(std::cmp::Ordering::Less) || self.em_tol.is_nan() {
            return Err(EdgeError::InvalidConfig {
                param: "em_tol",
                value: self.em_tol,
            });
        }
        if self.solver_iters == 0 {
            return Err(EdgeError::InvalidConfig {
                param: "solver_iters",
                value: 0.0,
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        assert!(EdgeLearnerConfig::default().validate().is_ok());
    }

    #[test]
    fn each_field_is_checked() {
        let base = EdgeLearnerConfig::default();
        for (cfg, field) in [
            (
                EdgeLearnerConfig {
                    epsilon: -0.1,
                    ..base
                },
                "epsilon",
            ),
            (
                EdgeLearnerConfig {
                    epsilon: f64::INFINITY,
                    ..base
                },
                "epsilon",
            ),
            (EdgeLearnerConfig { kappa: 0.0, ..base }, "kappa"),
            (
                EdgeLearnerConfig {
                    kappa: f64::NAN,
                    ..base
                },
                "kappa",
            ),
            (EdgeLearnerConfig { rho: -1.0, ..base }, "rho"),
            (
                EdgeLearnerConfig {
                    em_rounds: 0,
                    ..base
                },
                "em_rounds",
            ),
            (
                EdgeLearnerConfig {
                    em_tol: -1.0,
                    ..base
                },
                "em_tol",
            ),
            (
                EdgeLearnerConfig {
                    solver_iters: 0,
                    ..base
                },
                "solver_iters",
            ),
        ] {
            match cfg.validate() {
                Err(EdgeError::InvalidConfig { param, .. }) => assert_eq!(param, field),
                other => panic!("expected InvalidConfig({field}), got {other:?}"),
            }
        }
        // Infinite κ is explicitly allowed (features-only ball).
        assert!(EdgeLearnerConfig {
            kappa: f64::INFINITY,
            ..base
        }
        .validate()
        .is_ok());
    }
}
