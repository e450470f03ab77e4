//! Read-in-place views of a matrix through a column map.
//!
//! Wrapper evaluation projects one shared data split onto many candidate
//! feature subsets. A [`ColumnView`] reads the split where it lies, with
//! column `j` of the view being source column `cols[j]`, so neither the
//! tree kernel nor any model's prediction needs a gathered copy. The
//! models read a view row by row through [`FeatureRow`], which a plain
//! slice implements too; both give the same bits for the same values.

use crate::Matrix;

/// Cell access to a feature matrix: a [`Matrix`] or a [`ColumnView`].
/// The tree kernels are generic over it, so a fit can read a gathered
/// matrix or the source split in place.
pub trait Cells {
    /// `(rows, cols)`.
    fn shape(&self) -> (usize, usize);
    /// The value at row `i`, column `j`.
    fn cell(&self, i: usize, j: usize) -> f64;
}

impl Cells for Matrix {
    #[inline]
    fn shape(&self) -> (usize, usize) {
        Matrix::shape(self)
    }

    #[inline]
    fn cell(&self, i: usize, j: usize) -> f64 {
        self[(i, j)]
    }
}

/// One instance's features as a model reads them: a contiguous slice, or
/// a source row read through a column map ([`MappedRow`]).
pub trait FeatureRow: Copy {
    /// Number of features.
    fn width(&self) -> usize;
    /// Feature `j`.
    fn at(&self, j: usize) -> f64;
    /// `Σ x_j · w_j` in [`crate::dot`]'s four-lane order, so a slice and a
    /// mapped row holding the same values give the same bits.
    fn dot(&self, w: &[f64]) -> f64;
}

impl FeatureRow for &[f64] {
    #[inline]
    fn width(&self) -> usize {
        self.len()
    }

    #[inline]
    fn at(&self, j: usize) -> f64 {
        self[j]
    }

    #[inline]
    fn dot(&self, w: &[f64]) -> f64 {
        crate::dot(self, w)
    }
}

/// Row `i` of a [`ColumnView`]: feature `j` is `row[cols[j]]`.
#[derive(Debug, Clone, Copy)]
pub struct MappedRow<'a> {
    row: &'a [f64],
    cols: &'a [usize],
}

impl FeatureRow for MappedRow<'_> {
    #[inline]
    fn width(&self) -> usize {
        self.cols.len()
    }

    #[inline]
    fn at(&self, j: usize) -> f64 {
        self.row[self.cols[j]]
    }

    /// The lanes of [`crate::dot`] over subset positions: position `k`
    /// feeds lane `k % 4` (the remainder feeds the tail), and the lanes
    /// combine as `(l0 + l1) + (l2 + l3) + tail`.
    #[inline]
    fn dot(&self, w: &[f64]) -> f64 {
        debug_assert_eq!(self.cols.len(), w.len(), "dot: length mismatch");
        let row = self.row;
        let cc = self.cols.chunks_exact(4);
        let cw = w.chunks_exact(4);
        let (rc, rw) = (cc.remainder(), cw.remainder());
        let mut l0 = 0.0;
        let mut l1 = 0.0;
        let mut l2 = 0.0;
        let mut l3 = 0.0;
        for (c, ws) in cc.zip(cw) {
            let ([c0, c1, c2, c3], [w0, w1, w2, w3]) = (c, ws) else { unreachable!() };
            l0 += row[*c0] * w0;
            l1 += row[*c1] * w1;
            l2 += row[*c2] * w2;
            l3 += row[*c3] * w3;
        }
        let mut tail = 0.0;
        for (&c, y) in rc.iter().zip(rw) {
            tail += row[c] * y;
        }
        (l0 + l1) + (l2 + l3) + tail
    }
}

/// The first `rows` rows of a source matrix, with column `j` read from
/// source column `cols[j]`. Nothing is copied.
#[derive(Debug, Clone, Copy)]
pub struct ColumnView<'a> {
    src: &'a Matrix,
    rows: usize,
    cols: &'a [usize],
}

impl<'a> ColumnView<'a> {
    /// Every row of `src` through the column map `cols`.
    ///
    /// # Panics
    /// Panics when a column index is out of bounds.
    pub fn new(src: &'a Matrix, cols: &'a [usize]) -> Self {
        Self::head(src, src.nrows(), cols)
    }

    /// The first `rows` rows of `src` through the column map `cols`.
    ///
    /// # Panics
    /// Panics when `rows` exceeds the source height or a column index is
    /// out of bounds.
    pub fn head(src: &'a Matrix, rows: usize, cols: &'a [usize]) -> Self {
        assert!(rows <= src.nrows(), "ColumnView: {rows} rows of {}", src.nrows());
        for &j in cols {
            assert!(j < src.ncols(), "ColumnView: col {j} out of bounds ({})", src.ncols());
        }
        Self { src, rows, cols }
    }

    /// Number of rows.
    #[inline]
    pub fn nrows(&self) -> usize {
        self.rows
    }

    /// Number of columns (the length of the column map).
    #[inline]
    pub fn ncols(&self) -> usize {
        self.cols.len()
    }

    /// Row `i`, read through the column map.
    #[inline]
    pub fn row(&self, i: usize) -> MappedRow<'a> {
        debug_assert!(i < self.rows, "row index {i} out of bounds ({})", self.rows);
        MappedRow { row: self.src.row(i), cols: self.cols }
    }

    /// Iterator over the rows, top to bottom.
    pub fn rows_iter(&self) -> impl Iterator<Item = MappedRow<'a>> {
        let view = *self;
        (0..view.rows).map(move |i| view.row(i))
    }

    /// A gathered copy: `src.select_rows_cols(0..rows, cols)`.
    pub fn gather(&self) -> Matrix {
        let rows: Vec<usize> = (0..self.rows).collect();
        self.src.select_rows_cols(&rows, self.cols)
    }
}

impl Cells for ColumnView<'_> {
    #[inline]
    fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols.len())
    }

    #[inline]
    fn cell(&self, i: usize, j: usize) -> f64 {
        debug_assert!(i < self.rows, "row index {i} out of bounds ({})", self.rows);
        self.src[(i, self.cols[j])]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn source() -> Matrix {
        let rows: Vec<Vec<f64>> =
            (0..6).map(|i| (0..11).map(|j| ((i * 11 + j) as f64).sin() * 3.7).collect()).collect();
        Matrix::from_rows(&rows)
    }

    #[test]
    fn view_cells_match_the_gathered_copy() {
        let src = source();
        let cols = [9usize, 2, 2, 7, 0];
        let view = ColumnView::head(&src, 4, &cols);
        let gathered = view.gather();
        assert_eq!(Cells::shape(&view), gathered.shape());
        for i in 0..4 {
            for j in 0..cols.len() {
                assert_eq!(view.cell(i, j).to_bits(), gathered[(i, j)].to_bits());
                assert_eq!(view.row(i).at(j).to_bits(), gathered.row(i)[j].to_bits());
            }
        }
        assert_eq!(view.rows_iter().count(), 4);
    }

    #[test]
    fn mapped_dot_matches_slice_dot_at_every_width() {
        // Widths 1..=9 cover an empty, partial and full tail of the lanes.
        let src = source();
        let order = [10usize, 3, 8, 1, 6, 4, 9, 0, 5];
        for width in 1..=order.len() {
            let cols = &order[..width];
            let w: Vec<f64> = (0..width).map(|k| (k as f64 * 0.77).cos() - 0.2).collect();
            let view = ColumnView::new(&src, cols);
            let gathered = view.gather();
            for i in 0..src.nrows() {
                let mapped = view.row(i).dot(&w);
                let slice = crate::dot(gathered.row(i), &w);
                assert_eq!(mapped.to_bits(), slice.to_bits(), "width {width} row {i}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn view_checks_columns() {
        let src = source();
        let _ = ColumnView::new(&src, &[11]);
    }

    #[test]
    #[should_panic(expected = "rows of")]
    fn view_checks_rows() {
        let src = source();
        let _ = ColumnView::head(&src, 7, &[0]);
    }
}
