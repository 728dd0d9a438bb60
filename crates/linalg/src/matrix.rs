//! Row-major dense matrix.

use std::fmt;
use std::ops::{Index, IndexMut};

use crate::{LinalgError, Result};

/// A dense, row-major `f64` matrix.
///
/// Sized at construction; element access is bounds-checked through
/// `Index`/`IndexMut` with `(row, col)` tuples.
///
/// # Example
///
/// ```
/// use dre_linalg::Matrix;
///
/// # fn main() -> Result<(), dre_linalg::LinalgError> {
/// let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]])?;
/// let b = Matrix::identity(2);
/// let c = a.matmul(&b)?;
/// assert_eq!(c[(1, 0)], 3.0);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a `rows × cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Creates a diagonal matrix from the given diagonal entries.
    pub fn from_diag(diag: &[f64]) -> Self {
        let n = diag.len();
        let mut m = Matrix::zeros(n, n);
        for (i, &d) in diag.iter().enumerate() {
            m[(i, i)] = d;
        }
        m
    }

    /// Creates a matrix from row slices.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if rows have differing lengths,
    /// or [`LinalgError::InvalidDimension`] if `rows` is empty or the first
    /// row is empty.
    pub fn from_rows(rows: &[&[f64]]) -> Result<Self> {
        if rows.is_empty() || rows[0].is_empty() {
            return Err(LinalgError::InvalidDimension {
                op: "from_rows",
                dim: 0,
            });
        }
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            if r.len() != cols {
                return Err(LinalgError::ShapeMismatch {
                    op: "from_rows",
                    lhs: (rows.len(), cols),
                    rhs: (1, r.len()),
                });
            }
            data.extend_from_slice(r);
        }
        Ok(Matrix {
            rows: rows.len(),
            cols,
            data,
        })
    }

    /// Creates a matrix from a flat row-major buffer.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self> {
        if data.len() != rows * cols {
            return Err(LinalgError::ShapeMismatch {
                op: "from_vec",
                lhs: (rows, cols),
                rhs: (1, data.len()),
            });
        }
        Ok(Matrix { rows, cols, data })
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// True when the matrix is square.
    #[inline]
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Borrows row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    #[inline]
    pub fn row(&self, r: usize) -> &[f64] {
        assert!(r < self.rows, "row index {r} out of bounds");
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutably borrows row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        assert!(r < self.rows, "row index {r} out of bounds");
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Copies column `c` into a new vector.
    ///
    /// # Panics
    ///
    /// Panics if `c >= self.cols()`.
    pub fn col(&self, c: usize) -> Vec<f64> {
        assert!(c < self.cols, "column index {c} out of bounds");
        (0..self.rows).map(|r| self[(r, c)]).collect()
    }

    /// Borrows the underlying row-major buffer.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Consumes the matrix, returning the row-major buffer.
    #[inline]
    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }

    /// Copies the main diagonal into a vector.
    pub fn diag(&self) -> Vec<f64> {
        (0..self.rows.min(self.cols))
            .map(|i| self[(i, i)])
            .collect()
    }

    /// Sum of diagonal entries.
    pub fn trace(&self) -> f64 {
        self.diag().iter().sum()
    }

    /// Returns the transpose as a new matrix.
    pub fn transpose(&self) -> Matrix {
        let (rows, cols) = (self.rows, self.cols);
        let mut data = Vec::with_capacity(rows * cols);
        if rows > 0 {
            for c in 0..cols {
                data.extend(self.data[c..].iter().step_by(cols).take(rows).copied());
            }
        }
        Matrix {
            rows: cols,
            cols: rows,
            data,
        }
    }

    /// Matrix–matrix product `self * other`.
    ///
    /// A streaming-axpy loop: each output row accumulates `a_ik · other[k]`
    /// in ascending-`k` order, skipping zero entries of `self`, with no
    /// transpose allocation.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] when inner dimensions differ.
    pub fn matmul(&self, other: &Matrix) -> Result<Matrix> {
        if self.cols != other.rows {
            return Err(LinalgError::ShapeMismatch {
                op: "matmul",
                lhs: self.shape(),
                rhs: other.shape(),
            });
        }
        let mut out = Matrix::zeros(self.rows, other.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let aik = self[(i, k)];
                if aik == 0.0 {
                    continue;
                }
                let orow = &other.data[k * other.cols..(k + 1) * other.cols];
                let crow = &mut out.data[i * other.cols..(i + 1) * other.cols];
                for (cv, ov) in crow.iter_mut().zip(orow) {
                    *cv += aik * ov;
                }
            }
        }
        Ok(out)
    }

    /// Matrix–vector product `self * x`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] when `x.len() != self.cols()`.
    pub fn matvec(&self, x: &[f64]) -> Result<Vec<f64>> {
        if x.len() != self.cols {
            return Err(LinalgError::ShapeMismatch {
                op: "matvec",
                lhs: self.shape(),
                rhs: (x.len(), 1),
            });
        }
        Ok((0..self.rows)
            .map(|r| crate::vector::dot(self.row(r), x))
            .collect())
    }

    /// Element-wise sum `self + other`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] when shapes differ.
    pub fn add(&self, other: &Matrix) -> Result<Matrix> {
        if self.shape() != other.shape() {
            return Err(LinalgError::ShapeMismatch {
                op: "add",
                lhs: self.shape(),
                rhs: other.shape(),
            });
        }
        let data = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| a + b)
            .collect();
        Ok(Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        })
    }

    /// Element-wise difference `self − other`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] when shapes differ.
    pub fn sub(&self, other: &Matrix) -> Result<Matrix> {
        if self.shape() != other.shape() {
            return Err(LinalgError::ShapeMismatch {
                op: "sub",
                lhs: self.shape(),
                rhs: other.shape(),
            });
        }
        let data = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| a - b)
            .collect();
        Ok(Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        })
    }

    /// Scaled copy `a · self`.
    pub fn scaled(&self, a: f64) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|v| a * v).collect(),
        }
    }

    /// Rank-one outer product `x yᵀ`.
    pub fn outer(x: &[f64], y: &[f64]) -> Matrix {
        let mut m = Matrix::zeros(x.len(), y.len());
        for (i, &xi) in x.iter().enumerate() {
            for (j, &yj) in y.iter().enumerate() {
                m[(i, j)] = xi * yj;
            }
        }
        m
    }

    /// Adds `a` to every diagonal entry in place (`self += a·I`).
    pub fn add_diag(&mut self, a: f64) {
        for i in 0..self.rows.min(self.cols) {
            self[(i, i)] += a;
        }
    }

    /// Quadratic form `xᵀ · self · x`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::NotSquare`] for non-square matrices and
    /// [`LinalgError::ShapeMismatch`] when `x.len() != self.rows()`.
    pub fn quad_form(&self, x: &[f64]) -> Result<f64> {
        if !self.is_square() {
            return Err(LinalgError::NotSquare {
                rows: self.rows,
                cols: self.cols,
            });
        }
        let ax = self.matvec(x)?;
        Ok(crate::vector::dot(x, &ax))
    }

    /// True when all entries are finite.
    pub fn is_finite(&self) -> bool {
        crate::vector::all_finite(&self.data)
    }

    /// Maximum absolute deviation from symmetry, `max |Aᵢⱼ − Aⱼᵢ|`.
    ///
    /// Returns 0 for non-square matrices' shared principal block only if
    /// square; callers should check [`Matrix::is_square`] first.
    pub fn asymmetry(&self) -> f64 {
        let n = self.rows.min(self.cols);
        let mut m: f64 = 0.0;
        for i in 0..n {
            for j in (i + 1)..n {
                m = m.max((self[(i, j)] - self[(j, i)]).abs());
            }
        }
        m
    }

    /// Symmetrizes in place: `self ← (self + selfᵀ) / 2`.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square.
    pub fn symmetrize(&mut self) {
        assert!(self.is_square(), "symmetrize requires a square matrix");
        for i in 0..self.rows {
            for j in (i + 1)..self.cols {
                let v = 0.5 * (self[(i, j)] + self[(j, i)]);
                self[(i, j)] = v;
                self[(j, i)] = v;
            }
        }
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        crate::vector::norm2(&self.data)
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;

    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds"
        );
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds"
        );
        &mut self.data[r * self.cols + c]
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for r in 0..self.rows.min(8) {
            write!(f, "  [")?;
            for c in 0..self.cols.min(8) {
                if c > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{:.4}", self[(r, c)])?;
            }
            if self.cols > 8 {
                write!(f, ", …")?;
            }
            writeln!(f, "]")?;
        }
        if self.rows > 8 {
            writeln!(f, "  …")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn approx(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-10
    }

    #[test]
    fn construction_and_shape() {
        let m = Matrix::zeros(2, 3);
        assert_eq!(m.shape(), (2, 3));
        assert!(!m.is_square());
        let i = Matrix::identity(3);
        assert!(i.is_square());
        assert_eq!(i.trace(), 3.0);
        assert_eq!(i.diag(), vec![1.0, 1.0, 1.0]);
    }

    #[test]
    fn from_rows_validates_shapes() {
        assert!(Matrix::from_rows(&[]).is_err());
        assert!(Matrix::from_rows(&[&[]]).is_err());
        assert!(Matrix::from_rows(&[&[1.0], &[1.0, 2.0]]).is_err());
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        assert_eq!(m[(0, 1)], 2.0);
        assert_eq!(m.row(1), &[3.0, 4.0]);
        assert_eq!(m.col(0), vec![1.0, 3.0]);
    }

    #[test]
    fn from_vec_validates_length() {
        assert!(Matrix::from_vec(2, 2, vec![1.0; 3]).is_err());
        let m = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(m[(1, 0)], 3.0);
        assert_eq!(m.clone().into_vec(), vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(m.as_slice().len(), 4);
    }

    #[test]
    fn matmul_known_product() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert_eq!(c[(0, 0)], 19.0);
        assert_eq!(c[(0, 1)], 22.0);
        assert_eq!(c[(1, 0)], 43.0);
        assert_eq!(c[(1, 1)], 50.0);
        assert!(a.matmul(&Matrix::zeros(3, 3)).is_err());
    }

    #[test]
    fn matvec_and_transpose_product() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]).unwrap();
        assert_eq!(a.matvec(&[1.0, 0.0, -1.0]).unwrap(), vec![-2.0, -2.0]);
        assert!(a.matvec(&[1.0]).is_err());

        let t = a.transpose();
        assert_eq!(t.shape(), (3, 2));
        assert_eq!(t[(2, 1)], 6.0);
        assert_eq!(t.matvec(&[1.0, 1.0]).unwrap(), vec![5.0, 7.0, 9.0]);
        assert_eq!(Matrix::zeros(0, 3).transpose().shape(), (3, 0));
    }

    #[test]
    fn add_sub_scale() {
        let a = Matrix::identity(2);
        let b = a.scaled(3.0);
        let c = a.add(&b).unwrap();
        assert_eq!(c[(0, 0)], 4.0);
        let d = c.sub(&a).unwrap();
        assert_eq!(d[(1, 1)], 3.0);
        assert!(a.add(&Matrix::zeros(3, 3)).is_err());
        assert!(a.sub(&Matrix::zeros(3, 3)).is_err());
    }

    #[test]
    fn outer_product_and_quad_form() {
        let m = Matrix::outer(&[1.0, 2.0], &[3.0, 4.0]);
        assert_eq!(m[(1, 0)], 6.0);
        let s = Matrix::from_rows(&[&[2.0, 0.0], &[0.0, 3.0]]).unwrap();
        assert!(approx(s.quad_form(&[1.0, 2.0]).unwrap(), 14.0));
        assert!(Matrix::zeros(2, 3).quad_form(&[1.0, 2.0]).is_err());
    }

    #[test]
    fn symmetrize_and_asymmetry() {
        let mut m = Matrix::from_rows(&[&[1.0, 2.0], &[4.0, 1.0]]).unwrap();
        assert!(approx(m.asymmetry(), 2.0));
        m.symmetrize();
        assert!(approx(m.asymmetry(), 0.0));
        assert!(approx(m[(0, 1)], 3.0));
    }

    #[test]
    fn diag_helpers() {
        let mut m = Matrix::from_diag(&[1.0, 2.0]);
        m.add_diag(0.5);
        assert_eq!(m.diag(), vec![1.5, 2.5]);
        assert!(m.is_finite());
        m[(0, 0)] = f64::NAN;
        assert!(!m.is_finite());
    }

    #[test]
    fn debug_is_nonempty() {
        let m = Matrix::identity(2);
        assert!(!format!("{m:?}").is_empty());
        let big = Matrix::zeros(12, 12);
        assert!(format!("{big:?}").contains('…'));
    }

    proptest! {
        #[test]
        fn prop_transpose_involution(
            rows in 1usize..6, cols in 1usize..6,
            seed in proptest::collection::vec(-10.0..10.0f64, 36),
        ) {
            let data: Vec<f64> = seed.iter().cycle().take(rows * cols).cloned().collect();
            let m = Matrix::from_vec(rows, cols, data).unwrap();
            prop_assert_eq!(m.transpose().transpose(), m);
        }

        #[test]
        fn prop_matmul_identity(
            n in 1usize..6,
            seed in proptest::collection::vec(-10.0..10.0f64, 36),
        ) {
            let data: Vec<f64> = seed.iter().cycle().take(n * n).cloned().collect();
            let m = Matrix::from_vec(n, n, data).unwrap();
            let i = Matrix::identity(n);
            prop_assert_eq!(m.matmul(&i).unwrap(), m.clone());
            prop_assert_eq!(i.matmul(&m).unwrap(), m);
        }

        #[test]
        fn prop_matvec_agrees_with_matmul(
            n in 1usize..5,
            seed in proptest::collection::vec(-5.0..5.0f64, 30),
        ) {
            let data: Vec<f64> = seed.iter().cycle().take(n * n).cloned().collect();
            let m = Matrix::from_vec(n, n, data).unwrap();
            let x: Vec<f64> = seed.iter().take(n).cloned().collect();
            let xm = Matrix::from_vec(n, 1, x.clone()).unwrap();
            let via_matmul = m.matmul(&xm).unwrap().into_vec();
            let via_matvec = m.matvec(&x).unwrap();
            for (a, b) in via_matmul.iter().zip(&via_matvec) {
                prop_assert!((a - b).abs() < 1e-9);
            }
        }
    }
}
