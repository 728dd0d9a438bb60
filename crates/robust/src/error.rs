use std::fmt;

use dre_models::ModelError;

/// Errors produced by the robust-optimization layer.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum RobustError {
    /// An ambiguity-set parameter was out of domain.
    InvalidParameter {
        /// Parameter name.
        param: &'static str,
        /// Offending value.
        value: f64,
    },
    /// The dataset was empty or inconsistent.
    InvalidDataset {
        /// Human-readable description of the problem.
        reason: &'static str,
    },
    /// The chosen loss is not Lipschitz in the margin, so the Wasserstein
    /// dual reformulation does not apply.
    LossNotLipschitz {
        /// Name of the rejected loss.
        loss: &'static str,
    },
    /// An underlying model-layer failure.
    Model(ModelError),
}

impl fmt::Display for RobustError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RobustError::InvalidParameter { param, value } => {
                write!(f, "invalid parameter {param}={value}")
            }
            RobustError::InvalidDataset { reason } => write!(f, "invalid dataset: {reason}"),
            RobustError::LossNotLipschitz { loss } => {
                write!(f, "loss '{loss}' is not lipschitz in the margin; the wasserstein dual requires a finite lipschitz constant")
            }
            RobustError::Model(e) => write!(f, "model failure: {e}"),
        }
    }
}

impl std::error::Error for RobustError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RobustError::Model(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ModelError> for RobustError {
    fn from(e: ModelError) -> Self {
        RobustError::Model(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_and_chaining() {
        assert!(RobustError::InvalidParameter {
            param: "radius",
            value: -1.0
        }
        .to_string()
        .contains("radius"));
        assert!(RobustError::LossNotLipschitz { loss: "squared" }
            .to_string()
            .contains("squared"));
        let inner = ModelError::InvalidLabel { label: 3.0 };
        let e: RobustError = inner.into();
        assert!(std::error::Error::source(&e).is_some());
    }
}
