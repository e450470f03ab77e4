//! Compressed sparse row matrices with a lane-order product.
//!
//! The MCFS spectral embedding iterates on a k-NN graph Laplacian whose rows
//! hold about `k` nonzeros out of `m`. [`CsrMatrix`] holds the entries in
//! column order; `CsrMatrix::lanes` regroups them for the product, which
//! multiplies over the nonzeros only, yet returns exactly the bits of the
//! dense [`Matrix::matvec`]: each product goes into the accumulator
//! [`crate::dot`] would use for its column, and the skipped products are
//! exact zeros.

use crate::Matrix;

/// A sparse matrix in compressed-row form. Only nonzero entries are stored;
/// within a row, columns are strictly increasing.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    ncols: usize,
    /// `row_ptr[i]..row_ptr[i + 1]` indexes row `i`'s entries.
    row_ptr: Vec<usize>,
    cols: Vec<usize>,
    vals: Vec<f64>,
}

impl CsrMatrix {
    /// Builds from per-row `(column, value)` lists. Entries equal to zero
    /// (either sign) are dropped.
    ///
    /// # Panics
    /// Panics when a row's columns are not strictly increasing or a column
    /// is out of bounds.
    pub fn from_rows<R, I>(ncols: usize, rows: R) -> Self
    where
        R: IntoIterator<Item = I>,
        I: IntoIterator<Item = (usize, f64)>,
    {
        let mut out = Self { ncols, row_ptr: vec![0], cols: Vec::new(), vals: Vec::new() };
        for row in rows {
            let mut next = 0;
            for (c, v) in row {
                assert!(c < ncols, "CsrMatrix: column {c} out of bounds ({ncols})");
                assert!(c >= next, "CsrMatrix: columns must be strictly increasing within a row");
                next = c + 1;
                if v != 0.0 {
                    out.cols.push(c);
                    out.vals.push(v);
                }
            }
            out.row_ptr.push(out.cols.len());
        }
        out
    }

    /// The nonzero entries of a dense matrix.
    pub fn from_dense(m: &Matrix) -> Self {
        Self::from_rows(m.ncols(), (0..m.nrows()).map(|i| m.row(i).iter().copied().enumerate()))
    }

    /// Number of rows.
    pub(crate) fn nrows(&self) -> usize {
        self.row_ptr.len() - 1
    }

    /// Number of columns.
    pub(crate) fn ncols(&self) -> usize {
        self.ncols
    }

    /// Row `i`'s stored columns and values.
    pub(crate) fn row(&self, i: usize) -> (&[usize], &[f64]) {
        let span = self.row_ptr[i]..self.row_ptr[i + 1];
        (&self.cols[span.clone()], &self.vals[span])
    }

    /// The same matrix regrouped by [`crate::dot`] lane, the layout
    /// [`LaneCsr::matvec_into`] multiplies with.
    pub(crate) fn lanes(&self) -> LaneCsr {
        let blocked = self.ncols - self.ncols % 4;
        let mut out = LaneCsr {
            ncols: self.ncols,
            quad_ptr: vec![0],
            quad_cols: Vec::new(),
            quad_vals: Vec::new(),
            tail_ptr: vec![0],
            tail: Vec::new(),
        };
        let mut lanes: [Vec<(usize, f64)>; 4] = Default::default();
        for i in 0..self.nrows() {
            let (cols, vals) = self.row(i);
            lanes.iter_mut().for_each(Vec::clear);
            for (&c, &v) in cols.iter().zip(vals) {
                if c < blocked {
                    lanes[c % 4].push((c, v));
                } else {
                    out.tail.push((c, v));
                }
            }
            let depth = lanes.iter().map(Vec::len).max().unwrap_or(0);
            for t in 0..depth {
                out.quad_cols.push(std::array::from_fn(|l| lanes[l].get(t).map_or(0, |e| e.0)));
                out.quad_vals.push(std::array::from_fn(|l| lanes[l].get(t).map_or(0.0, |e| e.1)));
            }
            out.quad_ptr.push(out.quad_cols.len());
            out.tail_ptr.push(out.tail.len());
        }
        out
    }
}

/// A [`CsrMatrix`] regrouped by [`crate::dot`] lane: row `i`'s entries in
/// the four-wide blocked prefix of the columns become "quads", where quad
/// `t` holds the `t`-th entry (in column order) of each of lanes 0–3,
/// padded with column 0 and value `0.0` where a lane has fewer; the
/// columns past the prefix keep their own list. A quad's columns and its
/// values are stored apart, so the four values load as one block.
pub(crate) struct LaneCsr {
    ncols: usize,
    /// Row `i`'s quads are `quad_ptr[i]..quad_ptr[i + 1]`.
    quad_ptr: Vec<usize>,
    quad_cols: Vec<[usize; 4]>,
    quad_vals: Vec<[f64; 4]>,
    /// Row `i`'s tail entries are `tail[tail_ptr[i]..tail_ptr[i + 1]]`.
    tail_ptr: Vec<usize>,
    tail: Vec<(usize, f64)>,
}

impl LaneCsr {
    /// `out = self * v`, bit-identical to the dense [`Matrix::matvec`] of
    /// the same matrix for finite `v`.
    ///
    /// [`crate::dot`] adds column `c`'s product into lane `c % 4` while `c`
    /// lies in the four-wide blocked prefix and into a tail accumulator
    /// after it, then returns `(l0 + l1) + (l2 + l3) + tail`. Walking the
    /// quads adds each lane's nonzero products in column order. The
    /// products skipped — and the padding's `0 · v[0]` — are `±0`, and
    /// adding a signed zero never changes an accumulator: each starts at
    /// `+0`, and a sum is `−0` only when both operands are, so none ever
    /// holds `−0`. The four lanes are independent chains, where one array
    /// indexed by `c % 4` would serialize on memory.
    ///
    /// # Panics
    /// Panics when `v.len() != ncols`.
    pub(crate) fn matvec_into(&self, v: &[f64], out: &mut Vec<f64>) {
        assert_eq!(self.ncols, v.len(), "matvec_into: dimension mismatch");
        out.clear();
        out.extend(self.quad_ptr.windows(2).zip(self.tail_ptr.windows(2)).map(|(q, t)| {
            let mut lanes = [0.0f64; 4];
            for (cols, vals) in self.quad_cols[q[0]..q[1]].iter().zip(&self.quad_vals[q[0]..q[1]]) {
                for ((l, &c), &a) in lanes.iter_mut().zip(cols).zip(vals) {
                    *l += a * v[c];
                }
            }
            let mut tail = 0.0;
            for (c, a) in &self.tail[t[0]..t[1]] {
                tail += a * v[*c];
            }
            (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]) + tail
        }));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::{standard_normal, Rng};

    /// Random dense matrices with mostly ±0 entries, every width mod 4,
    /// against the dense product, compared as `to_bits`.
    #[test]
    fn matvec_matches_dense_bit_for_bit() {
        let mut rng = Rng::seed_from_u64(0x5BA5);
        for ncols in 1..=13 {
            for nrows in [0, 1, 3, 8] {
                let mut m = Matrix::zeros(nrows, ncols);
                for i in 0..nrows {
                    for j in 0..ncols {
                        m[(i, j)] = match rng.below(4) {
                            0 => standard_normal(&mut rng) * 1e3,
                            1 => -0.0,
                            _ => 0.0,
                        };
                    }
                }
                let sparse = CsrMatrix::from_dense(&m);
                assert_eq!(sparse.nrows(), nrows);
                let sparse = sparse.lanes();
                for _ in 0..4 {
                    let mut v: Vec<f64> = (0..ncols).map(|_| standard_normal(&mut rng)).collect();
                    if let Some(first) = v.first_mut() {
                        *first = -0.0;
                    }
                    let mut got = Vec::new();
                    sparse.matvec_into(&v, &mut got);
                    let bits = |x: &[f64]| x.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(&got), bits(&m.matvec(&v)), "{nrows}x{ncols}");
                }
            }
        }
    }

    #[test]
    fn from_rows_drops_zeros_and_keeps_order() {
        let m = CsrMatrix::from_rows(4, [vec![(0, 1.0), (2, 0.0), (3, -2.0)], vec![], vec![(1, -0.0)]]);
        assert_eq!(m.nrows(), 3);
        assert_eq!(m.row(0), (&[0usize, 3][..], &[1.0, -2.0][..]));
        assert_eq!(m.row(1).0.len(), 0);
        assert_eq!(m.row(2).0.len(), 0);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn from_rows_rejects_unsorted_columns() {
        let _ = CsrMatrix::from_rows(3, [vec![(2, 1.0), (1, 1.0)]]);
    }
}
