use std::fmt;

/// Errors produced by dataset construction and transforms.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum DataError {
    /// A generator parameter was out of domain.
    InvalidParameter {
        /// Parameter name.
        param: &'static str,
        /// Offending value.
        value: f64,
    },
    /// A dataset constraint was violated (empty, misaligned, bad labels…).
    InvalidDataset {
        /// Human-readable description of the problem.
        reason: &'static str,
    },
}

impl fmt::Display for DataError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DataError::InvalidParameter { param, value } => {
                write!(f, "invalid parameter {param}={value}")
            }
            DataError::InvalidDataset { reason } => write!(f, "invalid dataset: {reason}"),
        }
    }
}

impl std::error::Error for DataError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays() {
        assert!(DataError::InvalidParameter {
            param: "dim",
            value: 0.0
        }
        .to_string()
        .contains("dim"));
        assert!(DataError::InvalidDataset { reason: "empty" }
            .to_string()
            .contains("empty"));
    }
}
