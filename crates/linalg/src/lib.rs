//! Dense linear algebra kernels for the `dro-edge` workspace.
//!
//! This crate provides the small, self-contained linear-algebra substrate the
//! rest of the workspace builds on: a row-major dense [`Matrix`], slice-based
//! vector kernels in [`vector`], and the factorizations needed by the
//! probabilistic layers — [`Cholesky`] (with jitter for near-singular
//! covariances) and a Jacobi symmetric eigendecomposition ([`SymEigen`])
//! used for positive-semidefinite projection.
//!
//! Everything operates on `f64`. Matrices are small-to-medium (model
//! dimension × model dimension), so the implementations favour clarity and
//! numerical robustness over blocking/SIMD.
//!
//! # Example
//!
//! ```
//! use dre_linalg::{Matrix, Cholesky};
//!
//! # fn main() -> Result<(), dre_linalg::LinalgError> {
//! let a = Matrix::from_rows(&[&[4.0, 2.0], &[2.0, 3.0]])?;
//! let chol = Cholesky::new(&a)?;
//! let x = chol.solve(&[1.0, 1.0])?;
//! // a * x == [1, 1]
//! let ax = a.matvec(&x)?;
//! assert!((ax[0] - 1.0).abs() < 1e-12 && (ax[1] - 1.0).abs() < 1e-12);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// The factorization kernels intentionally use index loops: they mirror the
// textbook recurrences (`L[i][k]`, `R[i][k]`) they implement, and iterator
// rewrites obscure the triangular access patterns.
#![allow(clippy::needless_range_loop)]

mod cholesky;
mod eigen;
mod error;
mod matrix;
pub mod vector;

pub use cholesky::Cholesky;
pub use eigen::SymEigen;
pub use error::LinalgError;
pub use matrix::Matrix;

/// Convenience result alias for fallible linear-algebra operations.
pub type Result<T> = std::result::Result<T, LinalgError>;
