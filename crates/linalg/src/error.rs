use std::fmt;

/// Errors produced by linear-algebra operations.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum LinalgError {
    /// Operand shapes are incompatible for the requested operation.
    ShapeMismatch {
        /// Human-readable description of the operation that failed.
        op: &'static str,
        /// Shape of the left/first operand as `(rows, cols)`.
        lhs: (usize, usize),
        /// Shape of the right/second operand as `(rows, cols)`.
        rhs: (usize, usize),
    },
    /// The matrix must be square for this operation but is not.
    NotSquare {
        /// Observed number of rows.
        rows: usize,
        /// Observed number of columns.
        cols: usize,
    },
    /// Cholesky factorization failed: the matrix is not positive definite
    /// (even after the permitted jitter).
    NotPositiveDefinite {
        /// Pivot index at which the failure was detected.
        pivot: usize,
        /// Value of the offending diagonal entry.
        value: f64,
    },
    /// The matrix is singular to working precision.
    Singular {
        /// Pivot index at which singularity was detected.
        pivot: usize,
    },
    /// An input contained NaN or infinity.
    NonFinite {
        /// Human-readable description of the operation that failed.
        op: &'static str,
    },
    /// A dimension argument was invalid (e.g. zero where nonzero required).
    InvalidDimension {
        /// Human-readable description of the operation that failed.
        op: &'static str,
        /// The offending dimension value.
        dim: usize,
    },
}

impl fmt::Display for LinalgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinalgError::ShapeMismatch { op, lhs, rhs } => write!(
                f,
                "shape mismatch in {op}: {}x{} vs {}x{}",
                lhs.0, lhs.1, rhs.0, rhs.1
            ),
            LinalgError::NotSquare { rows, cols } => {
                write!(f, "matrix must be square, got {rows}x{cols}")
            }
            LinalgError::NotPositiveDefinite { pivot, value } => write!(
                f,
                "matrix is not positive definite (pivot {pivot} = {value:.3e})"
            ),
            LinalgError::Singular { pivot } => {
                write!(
                    f,
                    "matrix is singular to working precision at pivot {pivot}"
                )
            }
            LinalgError::NonFinite { op } => {
                write!(f, "non-finite value encountered in {op}")
            }
            LinalgError::InvalidDimension { op, dim } => {
                write!(f, "invalid dimension {dim} in {op}")
            }
        }
    }
}

impl std::error::Error for LinalgError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_lowercase_and_informative() {
        let e = LinalgError::ShapeMismatch {
            op: "matmul",
            lhs: (2, 3),
            rhs: (4, 5),
        };
        let msg = e.to_string();
        assert!(msg.contains("matmul"));
        assert!(msg.contains("2x3"));
        assert!(msg.contains("4x5"));

        let e = LinalgError::NotPositiveDefinite {
            pivot: 3,
            value: -1.0,
        };
        assert!(e.to_string().contains("positive definite"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<LinalgError>();
    }
}
