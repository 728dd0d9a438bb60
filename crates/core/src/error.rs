use std::fmt;

/// Errors produced by the edge-learning pipeline, wrapping every substrate
/// layer.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum EdgeError {
    /// A learner configuration parameter was out of domain.
    InvalidConfig {
        /// Parameter name.
        param: &'static str,
        /// Offending value.
        value: f64,
    },
    /// The local dataset is unusable (empty, wrong labels, dimension
    /// mismatch with the prior…).
    InvalidData {
        /// Human-readable description of the problem.
        reason: &'static str,
    },
    /// A serialized prior declares a wire-format version this build does
    /// not understand. Typed (rather than folded into [`Self::InvalidData`])
    /// so the serving layer can classify it as fatal rather than retryable.
    UnsupportedVersion {
        /// Version byte found in the payload.
        found: u8,
        /// The single version this build supports.
        supported: u8,
    },
    /// A serialized prior carries extra bytes after its last component —
    /// either truncated framing upstream or a tampered payload. Typed so
    /// callers can distinguish it from a merely short payload.
    TrailingBytes {
        /// Number of unconsumed bytes after the declared components.
        extra: usize,
    },
    /// A Bayesian-layer failure (prior fitting, responsibilities).
    Bayes(dre_bayes::BayesError),
    /// A robust-optimization-layer failure.
    Robust(dre_robust::RobustError),
    /// A solver failure during the M-step or a baseline fit.
    Optim(dre_optim::OptimError),
    /// A model/metrics-layer failure.
    Model(dre_models::ModelError),
    /// A data-generation failure.
    Data(dre_data::DataError),
    /// A probability-layer failure.
    Prob(dre_prob::ProbError),
}

impl fmt::Display for EdgeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EdgeError::InvalidConfig { param, value } => {
                write!(f, "invalid configuration {param}={value}")
            }
            EdgeError::InvalidData { reason } => write!(f, "invalid data: {reason}"),
            EdgeError::UnsupportedVersion { found, supported } => write!(
                f,
                "unsupported prior payload version {found} (this build speaks {supported})"
            ),
            EdgeError::TrailingBytes { extra } => {
                write!(
                    f,
                    "prior payload has {extra} trailing byte(s) after the last component"
                )
            }
            EdgeError::Bayes(e) => write!(f, "bayes failure: {e}"),
            EdgeError::Robust(e) => write!(f, "robust failure: {e}"),
            EdgeError::Optim(e) => write!(f, "solver failure: {e}"),
            EdgeError::Model(e) => write!(f, "model failure: {e}"),
            EdgeError::Data(e) => write!(f, "data failure: {e}"),
            EdgeError::Prob(e) => write!(f, "probability failure: {e}"),
        }
    }
}

impl std::error::Error for EdgeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EdgeError::Bayes(e) => Some(e),
            EdgeError::Robust(e) => Some(e),
            EdgeError::Optim(e) => Some(e),
            EdgeError::Model(e) => Some(e),
            EdgeError::Data(e) => Some(e),
            EdgeError::Prob(e) => Some(e),
            _ => None,
        }
    }
}

impl From<crate::transfer::ShortRead> for EdgeError {
    fn from(e: crate::transfer::ShortRead) -> Self {
        EdgeError::InvalidData { reason: e.reason }
    }
}

impl From<dre_bayes::BayesError> for EdgeError {
    fn from(e: dre_bayes::BayesError) -> Self {
        EdgeError::Bayes(e)
    }
}

impl From<dre_robust::RobustError> for EdgeError {
    fn from(e: dre_robust::RobustError) -> Self {
        EdgeError::Robust(e)
    }
}

impl From<dre_optim::OptimError> for EdgeError {
    fn from(e: dre_optim::OptimError) -> Self {
        EdgeError::Optim(e)
    }
}

impl From<dre_models::ModelError> for EdgeError {
    fn from(e: dre_models::ModelError) -> Self {
        EdgeError::Model(e)
    }
}

impl From<dre_data::DataError> for EdgeError {
    fn from(e: dre_data::DataError) -> Self {
        EdgeError::Data(e)
    }
}

impl From<dre_prob::ProbError> for EdgeError {
    fn from(e: dre_prob::ProbError) -> Self {
        EdgeError::Prob(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_sources() {
        let e = EdgeError::InvalidConfig {
            param: "rho",
            value: -1.0,
        };
        assert!(e.to_string().contains("rho"));
        assert!(std::error::Error::source(&e).is_none());

        let e: EdgeError = dre_optim::OptimError::LineSearchFailed { iteration: 2 }.into();
        assert!(std::error::Error::source(&e).is_some());
        assert!(e.to_string().contains("line search"));

        let e: EdgeError = dre_data::DataError::InvalidDataset { reason: "x" }.into();
        assert!(e.to_string().contains("data"));

        let e: EdgeError = dre_prob::ProbError::InvalidDimension {
            what: "mvn",
            dim: 0,
        }
        .into();
        assert!(e.to_string().contains("probability"));
    }
}
