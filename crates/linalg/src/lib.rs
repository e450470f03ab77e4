//! Dense linear algebra and numerical primitives for the DFS reproduction.
//!
//! Everything in this workspace that needs vectors, matrices, column
//! statistics, eigen-decompositions (for the MCFS spectral embedding), sparse
//! regression (lasso, for MCFS feature scoring), or seeded randomness goes
//! through this crate. The implementations favour clarity and determinism
//! over raw speed — datasets in the benchmark are laptop-scale by design —
//! but avoid gratuitous allocation on hot paths (see the workspace's
//! performance notes in `DESIGN.md`).
//!
//! # Layout
//!
//! - [`matrix`] — row-major dense [`Matrix`] with the operations the rest of
//!   the workspace needs (products, transposes, row/column selection).
//! - [`stats`] — column statistics, correlations, and histogram helpers used
//!   by rankings and preprocessing.
//! - [`rng`] — deterministic random-number utilities (shuffles, subsampling,
//!   Laplace/Gaussian noise for differential privacy).
//! - [`sort`] — stable argsort and in-place stable partition, the order
//!   invariants behind the presorted CART tree kernel.
//! - [`sparse`] — compressed-row [`sparse::CsrMatrix`] whose product
//!   reproduces the dense [`Matrix::matvec`] bit for bit.
//! - [`eigen`] — symmetric eigen-solver (sparse power iteration with
//!   deflation) used by the MCFS spectral embedding.
//! - [`solvers`] — coordinate-descent lasso used by MCFS's per-eigenvector
//!   sparse regressions.
//! - [`view`] — [`ColumnView`], a read-in-place view of a matrix through a
//!   column map, and the [`Cells`] / [`FeatureRow`] access traits the tree
//!   kernels and model predictions are generic over.

pub mod eigen;
pub mod matrix;
pub mod rng;
pub mod solvers;
pub mod sort;
pub mod sparse;
pub mod stats;
pub mod view;

pub use matrix::Matrix;
pub use view::{Cells, ColumnView, FeatureRow, MappedRow};

/// Tolerance used across the workspace when comparing floating-point scores.
pub const EPS: f64 = 1e-12;

/// Returns `true` when two floats are equal within `tol`.
#[inline]
pub fn approx_eq(a: f64, b: f64, tol: f64) -> bool {
    (a - b).abs() <= tol
}

/// Dot product of two equal-length slices.
///
/// Accumulated in four independent stride-1 lanes over fixed-width chunks
/// (slice patterns, so the inner loop carries no per-element bounds checks)
/// with the lanes combined pairwise at the end: `(l0 + l1) + (l2 + l3) +
/// tail`. The lane structure is shared with [`sq_dist`] and [`l1_dist`] so
/// the three primitives stay bit-consistent with each other.
///
/// # Panics
/// Panics in debug builds when the slices differ in length.
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len(), "dot: length mismatch");
    let ca = a.chunks_exact(4);
    let cb = b.chunks_exact(4);
    let (ra, rb) = (ca.remainder(), cb.remainder());
    let mut l0 = 0.0;
    let mut l1 = 0.0;
    let mut l2 = 0.0;
    let mut l3 = 0.0;
    for (xa, xb) in ca.zip(cb) {
        let ([a0, a1, a2, a3], [b0, b1, b2, b3]) = (xa, xb) else { unreachable!() };
        l0 += a0 * b0;
        l1 += a1 * b1;
        l2 += a2 * b2;
        l3 += a3 * b3;
    }
    let mut tail = 0.0;
    for (x, y) in ra.iter().zip(rb) {
        tail += x * y;
    }
    (l0 + l1) + (l2 + l3) + tail
}

/// Euclidean (L2) norm of a slice.
#[inline]
pub fn norm2(a: &[f64]) -> f64 {
    dot(a, a).sqrt()
}

/// Squared Euclidean distance between two equal-length slices.
///
/// Same four-lane blocked accumulation as [`dot`].
#[inline]
pub fn sq_dist(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len(), "sq_dist: length mismatch");
    let ca = a.chunks_exact(4);
    let cb = b.chunks_exact(4);
    let (ra, rb) = (ca.remainder(), cb.remainder());
    let mut l0 = 0.0;
    let mut l1 = 0.0;
    let mut l2 = 0.0;
    let mut l3 = 0.0;
    for (xa, xb) in ca.zip(cb) {
        let ([a0, a1, a2, a3], [b0, b1, b2, b3]) = (xa, xb) else { unreachable!() };
        l0 += (a0 - b0) * (a0 - b0);
        l1 += (a1 - b1) * (a1 - b1);
        l2 += (a2 - b2) * (a2 - b2);
        l3 += (a3 - b3) * (a3 - b3);
    }
    let mut tail = 0.0;
    for (x, y) in ra.iter().zip(rb) {
        tail += (x - y) * (x - y);
    }
    (l0 + l1) + (l2 + l3) + tail
}

/// Manhattan (L1) distance between two equal-length slices.
///
/// Same four-lane blocked accumulation as [`dot`].
#[inline]
pub fn l1_dist(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len(), "l1_dist: length mismatch");
    let ca = a.chunks_exact(4);
    let cb = b.chunks_exact(4);
    let (ra, rb) = (ca.remainder(), cb.remainder());
    let mut l0 = 0.0;
    let mut l1 = 0.0;
    let mut l2 = 0.0;
    let mut l3 = 0.0;
    for (xa, xb) in ca.zip(cb) {
        let ([a0, a1, a2, a3], [b0, b1, b2, b3]) = (xa, xb) else { unreachable!() };
        l0 += (a0 - b0).abs();
        l1 += (a1 - b1).abs();
        l2 += (a2 - b2).abs();
        l3 += (a3 - b3).abs();
    }
    let mut tail = 0.0;
    for (x, y) in ra.iter().zip(rb) {
        tail += (x - y).abs();
    }
    (l0 + l1) + (l2 + l3) + tail
}

/// `out[j] += alpha * x[j]` over equal-length slices, in fixed-width chunks
/// with no per-element bounds checks. Each element is independent, so the
/// chunking changes no bits — this is the shared inner loop of
/// [`Matrix::t_matvec`], `matmul`, and the logistic/SVM gradient updates.
///
/// # Panics
/// Panics in debug builds when the slices differ in length.
#[inline]
pub fn axpy(alpha: f64, x: &[f64], out: &mut [f64]) {
    debug_assert_eq!(x.len(), out.len(), "axpy: length mismatch");
    let co = out.chunks_exact_mut(4);
    let cx = x.chunks_exact(4);
    let rx = cx.remainder();
    let mut tail_start = 0;
    for (o, xs) in co.zip(cx) {
        let ([o0, o1, o2, o3], [x0, x1, x2, x3]) = (o, xs) else { unreachable!() };
        *o0 += alpha * x0;
        *o1 += alpha * x1;
        *o2 += alpha * x2;
        *o3 += alpha * x3;
        tail_start += 4;
    }
    for (o, x) in out[tail_start..].iter_mut().zip(rx) {
        *o += alpha * x;
    }
}

/// Numerically stable logistic sigmoid.
#[inline]
pub fn sigmoid(z: f64) -> f64 {
    if z >= 0.0 {
        let e = (-z).exp();
        1.0 / (1.0 + e)
    } else {
        let e = z.exp();
        e / (1.0 + e)
    }
}

/// `log(1 + exp(z))` computed without overflow.
#[inline]
pub fn log1p_exp(z: f64) -> f64 {
    if z > 0.0 {
        z + (-z).exp().ln_1p()
    } else {
        z.exp().ln_1p()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_and_norm() {
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
        assert!(approx_eq(norm2(&[3.0, 4.0]), 5.0, 1e-12));
    }

    #[test]
    fn distances() {
        assert_eq!(sq_dist(&[0.0, 0.0], &[3.0, 4.0]), 25.0);
        assert_eq!(l1_dist(&[0.0, 0.0], &[3.0, -4.0]), 7.0);
    }

    #[test]
    fn sigmoid_is_stable_and_symmetric() {
        assert!(approx_eq(sigmoid(0.0), 0.5, 1e-12));
        assert!(sigmoid(1000.0) <= 1.0 && sigmoid(1000.0) > 0.999);
        assert!(sigmoid(-1000.0) >= 0.0 && sigmoid(-1000.0) < 1e-6);
        for z in [-5.0, -1.0, 0.3, 2.0] {
            assert!(approx_eq(sigmoid(z) + sigmoid(-z), 1.0, 1e-12));
        }
    }

    #[test]
    fn log1p_exp_matches_naive_in_safe_range() {
        for z in [-10.0, -1.0, 0.0, 1.0, 10.0] {
            assert!(approx_eq(log1p_exp(z), (1.0 + z.exp()).ln(), 1e-9));
        }
        // Must not overflow for large z.
        assert!(approx_eq(log1p_exp(800.0), 800.0, 1e-9));
    }
}
