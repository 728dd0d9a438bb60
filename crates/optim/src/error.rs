use std::fmt;

/// Errors produced by the optimization solvers.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum OptimError {
    /// The starting point's dimension differs from the objective's.
    DimensionMismatch {
        /// Objective dimension.
        expected: usize,
        /// Starting point dimension.
        got: usize,
    },
    /// The objective or gradient produced NaN/inf at some iterate.
    NonFiniteObjective {
        /// Iteration at which the failure occurred.
        iteration: usize,
    },
    /// A line search failed to find an acceptable step.
    LineSearchFailed {
        /// Iteration at which the failure occurred.
        iteration: usize,
    },
}

impl fmt::Display for OptimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OptimError::DimensionMismatch { expected, got } => {
                write!(
                    f,
                    "dimension mismatch: objective has {expected}, start has {got}"
                )
            }
            OptimError::NonFiniteObjective { iteration } => {
                write!(f, "non-finite objective value at iteration {iteration}")
            }
            OptimError::LineSearchFailed { iteration } => {
                write!(f, "line search failed at iteration {iteration}")
            }
        }
    }
}

impl std::error::Error for OptimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_informative() {
        assert!(OptimError::DimensionMismatch {
            expected: 2,
            got: 3
        }
        .to_string()
        .contains("2"));
        assert!(OptimError::NonFiniteObjective { iteration: 7 }
            .to_string()
            .contains("7"));
        assert!(OptimError::LineSearchFailed { iteration: 3 }
            .to_string()
            .contains("line search"));
    }
}
