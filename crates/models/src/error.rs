use std::fmt;

/// Errors produced when constructing model objectives or metrics.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ModelError {
    /// Features and labels disagree in length, or the dataset is empty.
    InvalidDataset {
        /// Human-readable description of the problem.
        reason: &'static str,
    },
    /// A label was outside the expected set (`±1` binary, `0..k` softmax).
    InvalidLabel {
        /// The offending label value.
        label: f64,
    },
    /// A hyperparameter was out of domain.
    InvalidParameter {
        /// Parameter name.
        param: &'static str,
        /// Offending value.
        value: f64,
    },
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelError::InvalidDataset { reason } => write!(f, "invalid dataset: {reason}"),
            ModelError::InvalidLabel { label } => write!(f, "invalid label {label}"),
            ModelError::InvalidParameter { param, value } => {
                write!(f, "invalid parameter {param}={value}")
            }
        }
    }
}

impl std::error::Error for ModelError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays() {
        assert!(ModelError::InvalidDataset { reason: "empty" }
            .to_string()
            .contains("empty"));
        assert!(ModelError::InvalidLabel { label: 2.0 }
            .to_string()
            .contains('2'));
        assert!(ModelError::InvalidParameter {
            param: "lambda",
            value: -1.0
        }
        .to_string()
        .contains("lambda"));
    }
}
