//! Regression solvers: coordinate-descent lasso and ridge.
//!
//! MCFS scores features by regressing each spectral-embedding dimension onto
//! the features with an L1 penalty and taking the maximum absolute
//! coefficient per feature. Ridge is used as a cheap stable fallback and in
//! tests.

use crate::Matrix;

/// Fits `min_w ||y - X w||^2 / (2n) + alpha * ||w||_1` by cyclic coordinate
/// descent. No intercept: callers are expected to center `y` and the columns
/// of `x` (the spectral embedding pipeline does).
///
/// Returns the coefficient vector (one entry per column of `x`).
pub fn lasso_coordinate_descent(x: &Matrix, y: &[f64], alpha: f64, max_iter: usize, tol: f64) -> Vec<f64> {
    lasso_multi_target(x, &[y], alpha, max_iter, tol).pop().unwrap_or_default()
}

/// Targets [`lasso_multi_target`] fits side by side.
const TARGET_LANES: usize = 4;

/// [`lasso_coordinate_descent`] for several targets on one design `x`,
/// bit-identical to fitting each alone.
///
/// Up to `TARGET_LANES` targets share each pass over a column: their
/// `x_j · r` sums are independent chains where one target's sum is a single
/// serial chain. Each target keeps its own residual, its own per-row
/// accumulation order and its own stopping rule (a converged target stops
/// updating while the others go on), so its coefficients have exactly the
/// bits of a lone fit. Columns are walked contiguously from a transposed
/// copy; every sum still runs over the rows in index order.
pub fn lasso_multi_target(
    x: &Matrix,
    ys: &[&[f64]],
    alpha: f64,
    max_iter: usize,
    tol: f64,
) -> Vec<Vec<f64>> {
    let (n, d) = x.shape();
    assert!(ys.iter().all(|y| y.len() == n), "lasso: row/target mismatch");
    assert!(alpha >= 0.0, "lasso: alpha must be non-negative");
    if n == 0 || d == 0 {
        return vec![vec![0.0; d]; ys.len()];
    }
    let cols = x.transpose();
    let nf = n as f64;
    // Precompute column norms: z_j = sum_i x_ij^2 / n.
    let col_sq: Vec<f64> = cols
        .rows_iter()
        .map(|col| {
            let mut c = 0.0;
            for &v in col {
                c += v * v;
            }
            c / nf
        })
        .collect();
    ys.chunks(TARGET_LANES)
        .flat_map(|chunk| lasso_lanes(&cols, &col_sq, chunk, alpha, max_iter, tol))
        .collect()
}

/// Coordinate descent for up to [`TARGET_LANES`] targets; `cols` is the
/// transposed design and `col_sq` its scaled squared column norms.
fn lasso_lanes(
    cols: &Matrix,
    col_sq: &[f64],
    ys: &[&[f64]],
    alpha: f64,
    max_iter: usize,
    tol: f64,
) -> Vec<Vec<f64>> {
    let (d, n) = cols.shape();
    let nf = n as f64;
    let lanes = ys.len();
    // Residuals r = y - X w (starting at y), row-interleaved by target;
    // lanes past the last target stay zero and never update.
    let mut r: Vec<[f64; TARGET_LANES]> =
        (0..n).map(|i| std::array::from_fn(|t| ys.get(t).map_or(0.0, |y| y[i]))).collect();
    let mut w = vec![[0.0f64; TARGET_LANES]; d];
    let mut active: [bool; TARGET_LANES] = std::array::from_fn(|t| t < lanes);

    for _ in 0..max_iter {
        if !active.contains(&true) {
            break;
        }
        let mut max_delta = [0.0f64; TARGET_LANES];
        for (j, col) in cols.rows_iter().enumerate() {
            let z = col_sq[j];
            if z <= crate::EPS {
                continue;
            }
            // rho = (1/n) * x_j . (r + w_j * x_j), every lane at once.
            let mut rho = [0.0f64; TARGET_LANES];
            for (&a, ri) in col.iter().zip(&r) {
                for (acc, &b) in rho.iter_mut().zip(ri) {
                    *acc += a * b;
                }
            }
            for t in (0..lanes).filter(|&t| active[t]) {
                let rho = rho[t] / nf + w[j][t] * z;
                let w_new = soft_threshold(rho, alpha) / z;
                let delta = w_new - w[j][t];
                if delta != 0.0 {
                    for (ri, &a) in r.iter_mut().zip(col) {
                        ri[t] -= delta * a;
                    }
                    w[j][t] = w_new;
                    max_delta[t] = max_delta[t].max(delta.abs());
                }
            }
        }
        for t in 0..lanes {
            if max_delta[t] < tol {
                active[t] = false;
            }
        }
    }
    (0..lanes).map(|t| w.iter().map(|wj| wj[t]).collect()).collect()
}

/// Soft-thresholding operator `S(z, g) = sign(z) * max(|z| - g, 0)`.
#[inline]
pub fn soft_threshold(z: f64, gamma: f64) -> f64 {
    if z > gamma {
        z - gamma
    } else if z < -gamma {
        z + gamma
    } else {
        0.0
    }
}

/// Solves the ridge system `(X^T X + lambda I) w = X^T y` by Cholesky
/// decomposition. `lambda > 0` guarantees positive definiteness.
pub fn ridge(x: &Matrix, y: &[f64], lambda: f64) -> Vec<f64> {
    let (n, d) = x.shape();
    assert_eq!(n, y.len(), "ridge: row/target mismatch");
    assert!(lambda > 0.0, "ridge: lambda must be positive");
    // Build A = X^T X + lambda I and b = X^T y.
    let xt = x.transpose();
    let mut a = xt.matmul(x);
    for i in 0..d {
        a[(i, i)] += lambda;
    }
    let b = x.t_matvec(y);
    cholesky_solve(&a, &b)
}

/// Solves `A x = b` for symmetric positive-definite `A` via Cholesky.
///
/// # Panics
/// Panics when `A` is not positive definite (within tolerance).
pub fn cholesky_solve(a: &Matrix, b: &[f64]) -> Vec<f64> {
    let n = a.nrows();
    assert_eq!(n, a.ncols(), "cholesky_solve: matrix must be square");
    assert_eq!(n, b.len(), "cholesky_solve: rhs size mismatch");
    // L lower-triangular with A = L L^T.
    let mut l = Matrix::zeros(n, n);
    for i in 0..n {
        for j in 0..=i {
            let mut s = a[(i, j)];
            for k in 0..j {
                s -= l[(i, k)] * l[(j, k)];
            }
            if i == j {
                assert!(s > 0.0, "cholesky_solve: matrix is not positive definite");
                l[(i, j)] = s.sqrt();
            } else {
                l[(i, j)] = s / l[(j, j)];
            }
        }
    }
    // Forward solve L z = b.
    let mut z = vec![0.0; n];
    for i in 0..n {
        let mut s = b[i];
        for k in 0..i {
            s -= l[(i, k)] * z[k];
        }
        z[i] = s / l[(i, i)];
    }
    // Back solve L^T x = z.
    let mut x = vec![0.0; n];
    for i in (0..n).rev() {
        let mut s = z[i];
        for k in i + 1..n {
            s -= l[(k, i)] * x[k];
        }
        x[i] = s / l[(i, i)];
    }
    x
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;
    use crate::rng::{normal, Rng};

    #[test]
    fn soft_threshold_cases() {
        assert_eq!(soft_threshold(3.0, 1.0), 2.0);
        assert_eq!(soft_threshold(-3.0, 1.0), -2.0);
        assert_eq!(soft_threshold(0.5, 1.0), 0.0);
    }

    #[test]
    fn cholesky_solves_known_system() {
        let a = Matrix::from_rows(&[vec![4.0, 2.0], vec![2.0, 3.0]]);
        let x = cholesky_solve(&a, &[8.0, 7.0]);
        // Solution of [[4,2],[2,3]] x = [8,7] is [1.25, 1.5].
        assert!(approx_eq(x[0], 1.25, 1e-10));
        assert!(approx_eq(x[1], 1.5, 1e-10));
    }

    #[test]
    #[should_panic(expected = "not positive definite")]
    fn cholesky_rejects_indefinite() {
        let a = Matrix::from_rows(&[vec![0.0, 1.0], vec![1.0, 0.0]]);
        let _ = cholesky_solve(&a, &[1.0, 1.0]);
    }

    #[test]
    fn ridge_recovers_coefficients() {
        let mut rng = Rng::seed_from_u64(10);
        let n = 200;
        let true_w = [2.0, -1.0, 0.0];
        let mut x = Matrix::zeros(n, 3);
        let mut y = vec![0.0; n];
        for i in 0..n {
            for j in 0..3 {
                x[(i, j)] = normal(0.0, 1.0, &mut rng);
            }
            y[i] = crate::dot(x.row(i), &true_w) + normal(0.0, 0.01, &mut rng);
        }
        let w = ridge(&x, &y, 1e-6);
        for (est, truth) in w.iter().zip(true_w) {
            assert!(approx_eq(*est, truth, 0.02), "est {est} vs {truth}");
        }
    }

    #[test]
    fn lasso_zeroes_irrelevant_features_and_keeps_signal() {
        let mut rng = Rng::seed_from_u64(11);
        let n = 300;
        let d = 6;
        // Only features 0 and 2 matter.
        let mut x = Matrix::zeros(n, d);
        let mut y = vec![0.0; n];
        for i in 0..n {
            for j in 0..d {
                x[(i, j)] = normal(0.0, 1.0, &mut rng);
            }
            y[i] = 3.0 * x[(i, 0)] - 2.0 * x[(i, 2)] + normal(0.0, 0.05, &mut rng);
        }
        let w = lasso_coordinate_descent(&x, &y, 0.1, 500, 1e-8);
        assert!(w[0] > 2.0, "w0 = {}", w[0]);
        assert!(w[2] < -1.0, "w2 = {}", w[2]);
        for j in [1, 3, 4, 5] {
            assert!(w[j].abs() < 0.1, "w{j} = {}", w[j]);
        }
    }

    /// The single-target, row-major coordinate descent
    /// [`lasso_multi_target`] replaced: strided column walks over `x`.
    fn lasso_row_major(x: &Matrix, y: &[f64], alpha: f64, max_iter: usize, tol: f64) -> Vec<f64> {
        let (n, d) = x.shape();
        if n == 0 || d == 0 {
            return vec![0.0; d];
        }
        let nf = n as f64;
        let mut col_sq = vec![0.0; d];
        for row in x.rows_iter() {
            for (c, &v) in col_sq.iter_mut().zip(row) {
                *c += v * v;
            }
        }
        for c in &mut col_sq {
            *c /= nf;
        }
        let mut w = vec![0.0; d];
        let mut r: Vec<f64> = y.to_vec();
        for _ in 0..max_iter {
            let mut max_delta = 0.0f64;
            for j in 0..d {
                if col_sq[j] <= crate::EPS {
                    continue;
                }
                let mut rho = 0.0;
                for i in 0..n {
                    rho += x[(i, j)] * r[i];
                }
                rho = rho / nf + w[j] * col_sq[j];
                let w_new = soft_threshold(rho, alpha) / col_sq[j];
                let delta = w_new - w[j];
                if delta != 0.0 {
                    for i in 0..n {
                        r[i] -= delta * x[(i, j)];
                    }
                    w[j] = w_new;
                    max_delta = max_delta.max(delta.abs());
                }
            }
            if max_delta < tol {
                break;
            }
        }
        w
    }

    /// Up to six targets per call (one full lane chunk and a partial one),
    /// a zero target that converges at once next to ones that run out of
    /// iterations, a constant column: every coefficient's bits equal the
    /// lone row-major fit's.
    #[test]
    fn multi_target_lasso_matches_lone_fits_bit_for_bit() {
        let mut rng = Rng::seed_from_u64(12);
        let bits = |w: &[f64]| w.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for (n, d) in [(1, 1), (7, 3), (60, 9), (180, 31)] {
            let mut x = Matrix::zeros(n, d);
            for i in 0..n {
                for j in 1..d {
                    x[(i, j)] = normal(0.0, 1.0, &mut rng);
                }
            }
            for targets in [1, 3, 6] {
                let mut ys: Vec<Vec<f64>> = (0..targets)
                    .map(|_| (0..n).map(|_| normal(0.0, 1.0, &mut rng)).collect())
                    .collect();
                ys[targets / 2] = vec![0.0; n];
                let refs: Vec<&[f64]> = ys.iter().map(Vec::as_slice).collect();
                for (alpha, max_iter) in [(0.0, 120), (0.01, 120), (0.3, 120), (0.01, 3)] {
                    let got = lasso_multi_target(&x, &refs, alpha, max_iter, 1e-6);
                    assert_eq!(got.len(), targets);
                    for (w, y) in got.iter().zip(&ys) {
                        assert_eq!(
                            bits(w),
                            bits(&lasso_row_major(&x, y, alpha, max_iter, 1e-6)),
                            "n={n} d={d} targets={targets} alpha={alpha} max_iter={max_iter}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn lasso_with_huge_alpha_is_all_zero() {
        let x = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]]);
        let w = lasso_coordinate_descent(&x, &[1.0, 2.0, 3.0], 1e6, 100, 1e-10);
        assert_eq!(w, vec![0.0, 0.0]);
    }

    #[test]
    fn lasso_handles_empty_input() {
        let x = Matrix::zeros(0, 3);
        assert_eq!(lasso_coordinate_descent(&x, &[], 0.1, 10, 1e-8), vec![0.0; 3]);
    }
}
