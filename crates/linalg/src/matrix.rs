//! Row-major dense matrix.

use std::fmt;
use std::ops::{Index, IndexMut};

/// A dense, row-major `f64` matrix.
///
/// This is the carrier type for feature matrices throughout the workspace:
/// rows are instances, columns are features. The API exposes exactly the
/// operations the reproduction needs; it is not a general linear-algebra
/// library.
#[derive(Clone, Default, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a `rows x cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Creates a matrix from a flat row-major buffer.
    ///
    /// # Panics
    /// Panics when `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "Matrix::from_vec: buffer size mismatch");
        Self { rows, cols, data }
    }

    /// Creates a matrix from nested row slices (convenient in tests).
    ///
    /// # Panics
    /// Panics when rows have inconsistent lengths.
    pub fn from_rows(rows: &[Vec<f64>]) -> Self {
        if rows.is_empty() {
            return Self::zeros(0, 0);
        }
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            assert_eq!(r.len(), cols, "Matrix::from_rows: ragged rows");
            data.extend_from_slice(r);
        }
        Self { rows: rows.len(), cols, data }
    }

    /// The `n x n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Number of rows (instances).
    #[inline]
    pub fn nrows(&self) -> usize {
        self.rows
    }

    /// Number of columns (features).
    #[inline]
    pub fn ncols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Immutable view of row `i`.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        debug_assert!(i < self.rows, "row index {i} out of bounds ({})", self.rows);
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutable view of row `i`.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        debug_assert!(i < self.rows, "row index {i} out of bounds ({})", self.rows);
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Copies column `j` into a fresh vector.
    ///
    /// Hot callers should prefer [`Matrix::col_into`] (reused scratch) or
    /// [`Matrix::col_iter`] (no materialization at all).
    pub fn col(&self, j: usize) -> Vec<f64> {
        self.col_iter(j).collect()
    }

    /// Iterator over column `j`, top to bottom, without materializing it.
    ///
    /// # Panics
    /// Panics when `j` is out of bounds.
    pub fn col_iter(&self, j: usize) -> impl Iterator<Item = f64> + '_ {
        assert!(j < self.cols, "col index {j} out of bounds ({})", self.cols);
        self.data.get(j..).unwrap_or(&[]).iter().step_by(self.cols).copied()
    }

    /// Copies column `j` into `out`, reusing its allocation — the
    /// steady-state-allocation-free form of [`Matrix::col`] for callers
    /// that walk many columns (rankings, permutation importance).
    pub fn col_into(&self, j: usize, out: &mut Vec<f64>) {
        out.clear();
        out.extend(self.col_iter(j));
    }

    /// Iterator over rows as slices.
    pub fn rows_iter(&self) -> impl Iterator<Item = &[f64]> {
        self.data.chunks_exact(self.cols.max(1)).take(self.rows)
    }

    /// Underlying flat row-major buffer.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// New matrix containing only the given rows, in the given order.
    pub fn select_rows(&self, indices: &[usize]) -> Matrix {
        let mut data = Vec::with_capacity(indices.len() * self.cols);
        for &i in indices {
            data.extend_from_slice(self.row(i));
        }
        Matrix { rows: indices.len(), cols: self.cols, data }
    }

    /// New matrix containing only the given columns, in the given order.
    ///
    /// This is the core operation of feature selection: projecting the data
    /// onto a feature subset.
    pub fn select_cols(&self, indices: &[usize]) -> Matrix {
        for &j in indices {
            assert!(j < self.cols, "select_cols: index {j} out of bounds ({})", self.cols);
        }
        let mut data = Vec::with_capacity(indices.len() * self.rows);
        for i in 0..self.rows {
            let row = self.row(i);
            data.extend(indices.iter().map(|&j| row[j]));
        }
        Matrix { rows: self.rows, cols: indices.len(), data }
    }

    /// Fused gather: `select_rows(rows).select_cols(cols)` in one pass,
    /// without the full-width (or full-height) intermediate matrix.
    ///
    /// This is the wrapper-evaluation hot path: every candidate subset is a
    /// (train-subsample, feature-projection) of the same split, so the fused
    /// form runs once per model fit. See [`Matrix::select_rows_cols_into`]
    /// for the allocation-free variant used with a scratch buffer.
    pub fn select_rows_cols(&self, rows: &[usize], cols: &[usize]) -> Matrix {
        let mut out = Matrix::zeros(0, 0);
        self.select_rows_cols_into(rows, cols, &mut out);
        out
    }

    /// Fused gather into an existing matrix, reusing its buffer.
    ///
    /// `out` is resized to `rows.len() x cols.len()`; its previous contents
    /// are discarded but its allocation is kept when large enough, making
    /// repeated gathers allocation-free at steady state.
    ///
    /// # Panics
    /// Panics when any row or column index is out of bounds.
    pub fn select_rows_cols_into(&self, rows: &[usize], cols: &[usize], out: &mut Matrix) {
        for &j in cols {
            assert!(j < self.cols, "select_rows_cols: col {j} out of bounds ({})", self.cols);
        }
        for &i in rows {
            assert!(i < self.rows, "select_rows_cols: row {i} out of bounds ({})", self.rows);
        }
        out.rows = rows.len();
        out.cols = cols.len();
        out.data.clear();
        out.data.resize(rows.len() * cols.len(), 0.0);
        for (&i, dst) in rows.iter().zip(out.data.chunks_exact_mut(cols.len().max(1))) {
            gather_row(self.row(i), cols, dst);
        }
    }

    /// Column projection into an existing matrix, reusing its buffer.
    ///
    /// Equivalent to [`Matrix::select_cols`] but allocation-free at steady
    /// state, like [`Matrix::select_rows_cols_into`].
    pub fn select_cols_into(&self, cols: &[usize], out: &mut Matrix) {
        for &j in cols {
            assert!(j < self.cols, "select_cols: index {j} out of bounds ({})", self.cols);
        }
        out.rows = self.rows;
        out.cols = cols.len();
        out.data.clear();
        out.data.resize(self.rows * cols.len(), 0.0);
        for (row, dst) in self.rows_iter().zip(out.data.chunks_exact_mut(cols.len().max(1))) {
            gather_row(row, cols, dst);
        }
    }

    /// Matrix transpose.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out[(j, i)] = self[(i, j)];
            }
        }
        out
    }

    /// Matrix product `self * other`.
    ///
    /// # Panics
    /// Panics when inner dimensions disagree.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.rows, "matmul: inner dimension mismatch");
        let mut out = Matrix::zeros(self.rows, other.cols);
        // ikj loop order keeps the inner loop contiguous in both operands.
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self[(i, k)];
                if a == 0.0 {
                    continue;
                }
                crate::axpy(a, other.row(k), out.row_mut(i));
            }
        }
        out
    }

    /// Matrix-vector product `self * v`.
    pub fn matvec(&self, v: &[f64]) -> Vec<f64> {
        assert_eq!(self.cols, v.len(), "matvec: dimension mismatch");
        self.rows_iter().map(|row| crate::dot(row, v)).collect()
    }

    /// `self^T * v` without materializing the transpose.
    ///
    /// The inner update is the blocked [`crate::axpy`]; zero scalars are
    /// still skipped (lasso residuals are frequently sparse), and because
    /// each output element is independent the chunking changes no bits.
    pub fn t_matvec(&self, v: &[f64]) -> Vec<f64> {
        assert_eq!(self.rows, v.len(), "t_matvec: dimension mismatch");
        let mut out = vec![0.0; self.cols];
        for (i, row) in self.rows_iter().enumerate() {
            let s = v[i];
            if s == 0.0 {
                continue;
            }
            crate::axpy(s, row, &mut out);
        }
        out
    }

    /// Appends a row to the matrix.
    ///
    /// # Panics
    /// Panics when the row length differs from `ncols` (unless empty).
    pub fn push_row(&mut self, row: &[f64]) {
        if self.rows == 0 && self.cols == 0 {
            self.cols = row.len();
        }
        assert_eq!(row.len(), self.cols, "push_row: width mismatch");
        self.data.extend_from_slice(row);
        self.rows += 1;
    }

    /// Elementwise map into a new matrix.
    pub fn map(&self, f: impl Fn(f64) -> f64) -> Matrix {
        Matrix { rows: self.rows, cols: self.cols, data: self.data.iter().map(|&x| f(x)).collect() }
    }
}

/// Gathers `src[cols[k]]` into `dst[k]` in fixed-width chunks: the slice
/// patterns keep the destination writes bounds-check-free and let the
/// source loads pipeline four at a time. Pure data movement — bit-identical
/// to the element-at-a-time gather by construction.
#[inline]
fn gather_row(src: &[f64], cols: &[usize], dst: &mut [f64]) {
    debug_assert_eq!(cols.len(), dst.len(), "gather_row: width mismatch");
    let cd = dst.chunks_exact_mut(4);
    let cc = cols.chunks_exact(4);
    let rc = cc.remainder();
    let mut tail_start = 0;
    for (d, c) in cd.zip(cc) {
        let ([d0, d1, d2, d3], [c0, c1, c2, c3]) = (d, c) else { unreachable!() };
        *d0 = src[*c0];
        *d1 = src[*c1];
        *d2 = src[*c2];
        *d3 = src[*c3];
        tail_start += 4;
    }
    for (d, &c) in dst[tail_start..].iter_mut().zip(rc) {
        *d = src[c];
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;

    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        debug_assert!(i < self.rows && j < self.cols, "index ({i},{j}) out of bounds");
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        debug_assert!(i < self.rows && j < self.cols, "index ({i},{j}) out of bounds");
        &mut self.data[i * self.cols + j]
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for i in 0..self.rows.min(8) {
            writeln!(f, "  {:?}", self.row(i))?;
        }
        if self.rows > 8 {
            writeln!(f, "  ... ({} more rows)", self.rows - 8)?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Matrix {
        Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]])
    }

    #[test]
    fn construction_and_access() {
        let m = sample();
        assert_eq!(m.shape(), (2, 3));
        assert_eq!(m[(0, 1)], 2.0);
        assert_eq!(m.row(1), &[4.0, 5.0, 6.0]);
        assert_eq!(m.col(2), vec![3.0, 6.0]);
    }

    #[test]
    #[should_panic(expected = "buffer size mismatch")]
    fn from_vec_checks_size() {
        let _ = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn select_cols_projects_features() {
        let m = sample();
        let s = m.select_cols(&[2, 0]);
        assert_eq!(s.shape(), (2, 2));
        assert_eq!(s.row(0), &[3.0, 1.0]);
        assert_eq!(s.row(1), &[6.0, 4.0]);
    }

    #[test]
    fn select_rows_subsets_instances() {
        let m = sample();
        let s = m.select_rows(&[1, 1, 0]);
        assert_eq!(s.shape(), (3, 3));
        assert_eq!(s.row(0), &[4.0, 5.0, 6.0]);
        assert_eq!(s.row(2), &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn select_rows_cols_fuses_both_gathers() {
        let m = sample();
        let s = m.select_rows_cols(&[1, 0, 1], &[2, 0]);
        assert_eq!(s.shape(), (3, 2));
        assert_eq!(s.row(0), &[6.0, 4.0]);
        assert_eq!(s.row(1), &[3.0, 1.0]);
        assert_eq!(s.row(2), &[6.0, 4.0]);
        assert_eq!(s, m.select_rows(&[1, 0, 1]).select_cols(&[2, 0]));
    }

    #[test]
    fn select_rows_cols_into_reuses_the_buffer() {
        let m = sample();
        let mut scratch = Matrix::zeros(0, 0);
        m.select_rows_cols_into(&[0, 1], &[1], &mut scratch);
        assert_eq!(scratch.shape(), (2, 1));
        assert_eq!(scratch.col(0), vec![2.0, 5.0]);
        let cap = scratch.data.capacity();
        // A second, equal-or-smaller gather must not reallocate.
        m.select_rows_cols_into(&[1], &[0, 2], &mut scratch);
        assert_eq!(scratch.shape(), (1, 2));
        assert_eq!(scratch.row(0), &[4.0, 6.0]);
        assert_eq!(scratch.data.capacity(), cap);
    }

    #[test]
    fn select_cols_into_matches_select_cols() {
        let m = sample();
        let mut scratch = Matrix::zeros(0, 0);
        m.select_cols_into(&[2, 0], &mut scratch);
        assert_eq!(scratch, m.select_cols(&[2, 0]));
    }

    #[test]
    fn select_rows_cols_empty_selections() {
        let m = sample();
        assert_eq!(m.select_rows_cols(&[], &[0, 1]).shape(), (0, 2));
        assert_eq!(m.select_rows_cols(&[0], &[]).shape(), (1, 0));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn select_rows_cols_checks_bounds() {
        let _ = sample().select_rows_cols(&[0], &[3]);
    }

    #[test]
    fn transpose_roundtrip() {
        let m = sample();
        assert_eq!(m.transpose().transpose(), m);
        assert_eq!(m.transpose().shape(), (3, 2));
        assert_eq!(m.transpose()[(2, 1)], 6.0);
    }

    #[test]
    fn matmul_against_hand_computed() {
        let a = sample(); // 2x3
        let b = Matrix::from_rows(&[vec![1.0, 0.0], vec![0.0, 1.0], vec![1.0, 1.0]]); // 3x2
        let c = a.matmul(&b);
        assert_eq!(c.shape(), (2, 2));
        assert_eq!(c.row(0), &[4.0, 5.0]);
        assert_eq!(c.row(1), &[10.0, 11.0]);
    }

    #[test]
    fn identity_is_neutral() {
        let m = sample();
        assert_eq!(m.matmul(&Matrix::identity(3)), m);
    }

    #[test]
    fn matvec_and_t_matvec_agree_with_matmul() {
        let m = sample();
        let v = vec![1.0, -1.0, 2.0];
        assert_eq!(m.matvec(&v), vec![5.0, 11.0]);
        let u = vec![1.0, 2.0];
        assert_eq!(m.t_matvec(&u), vec![9.0, 12.0, 15.0]);
    }

    #[test]
    fn push_row_grows() {
        let mut m = Matrix::zeros(0, 0);
        m.push_row(&[1.0, 2.0]);
        m.push_row(&[3.0, 4.0]);
        assert_eq!(m.shape(), (2, 2));
        assert_eq!(m.col(1), vec![2.0, 4.0]);
    }

    #[test]
    fn map_applies_elementwise() {
        let m = sample().map(|x| x * 2.0);
        assert_eq!(m.row(1), &[8.0, 10.0, 12.0]);
    }
}
