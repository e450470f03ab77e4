//! Symmetric eigen-decomposition via power iteration with deflation.
//!
//! The MCFS ranking (Cai et al., 2010) needs the bottom eigenvectors of a
//! graph Laplacian built over a k-NN graph. Its rows hold about `k` nonzeros
//! out of `m` (a few hundred subsampled instances), so the solver iterates on
//! a [`CsrMatrix`]: each step costs one sparse product, whose lane-order
//! accumulation returns the dense product's bits (see
//! `LaneCsr::matvec_into` in [`crate::sparse`]), and the product `M·w` computed
//! for the Rayleigh quotient doubles as the next iteration's `M·v`. The
//! convergence test stops summing `Σ|w − v|` as soon as the running sum
//! decides it.

use crate::rng::{standard_normal, Rng};
use crate::sparse::CsrMatrix;
use crate::{dot, norm2};

/// One eigenpair of a symmetric matrix.
#[derive(Debug, Clone)]
pub struct EigenPair {
    /// Eigenvalue (by construction the dominant remaining one at extraction).
    pub value: f64,
    /// Unit-norm eigenvector.
    pub vector: Vec<f64>,
}

/// Computes the top-`k` eigenpairs (largest |λ|) of a symmetric matrix.
///
/// Power iteration with Gram–Schmidt deflation against already-extracted
/// vectors. `iters` bounds the per-vector iteration count; `seed` controls
/// the random start vectors so results are deterministic.
///
/// # Panics
/// Panics when `m` is not square.
pub fn top_eigenpairs(m: &CsrMatrix, k: usize, iters: usize, seed: u64) -> Vec<EigenPair> {
    let n = m.nrows();
    assert_eq!(n, m.ncols(), "top_eigenpairs: matrix must be square");
    let k = k.min(n);
    let m = m.lanes();
    let mut rng = Rng::seed_from_u64(seed);
    let mut pairs: Vec<EigenPair> = Vec::with_capacity(k);
    let mut w = Vec::with_capacity(n);
    let mut mw = Vec::with_capacity(n);

    for _ in 0..k {
        let mut v: Vec<f64> = (0..n).map(|_| standard_normal(&mut rng)).collect();
        orthogonalize(&mut v, &pairs);
        let nv = norm2(&v);
        if nv <= crate::EPS {
            break;
        }
        for x in &mut v {
            *x /= nv;
        }

        let mut lambda = 0.0;
        m.matvec_into(&v, &mut w);
        for _ in 0..iters {
            // `w` holds M·v on entry.
            orthogonalize(&mut w, &pairs);
            let nw = norm2(&w);
            if nw <= crate::EPS {
                break;
            }
            for x in &mut w {
                *x /= nw;
            }
            m.matvec_into(&w, &mut mw);
            lambda = dot(&w, &mw);
            let converged = delta_below(&w, &v, 1e-10);
            // v ← w, and M·w is the next iteration's M·v.
            std::mem::swap(&mut v, &mut w);
            std::mem::swap(&mut w, &mut mw);
            if converged {
                break;
            }
        }
        pairs.push(EigenPair { value: lambda, vector: v });
    }
    pairs
}

/// Computes the `k` eigenvectors of a symmetric PSD matrix with the
/// *smallest* eigenvalues, excluding (near-)null directions if requested.
///
/// Spectral embeddings want the bottom of the Laplacian spectrum. We obtain
/// it by inverting the spectrum: for a PSD matrix `L` with spectral bound
/// `s >= λ_max`, the top eigenvectors of `s·I − L` are the bottom
/// eigenvectors of `L`.
///
/// # Panics
/// Panics when `l` is not square.
pub fn bottom_eigenpairs(l: &CsrMatrix, k: usize, iters: usize, seed: u64) -> Vec<EigenPair> {
    let n = l.nrows();
    assert_eq!(n, l.ncols(), "bottom_eigenpairs: matrix must be square");
    // Gershgorin bound on λ_max. Summing the nonzeros in column order gives
    // the dense row sum's bits: zeros leave a nonzero partial sum unchanged,
    // and an all-zero row's ±0 radius loses to `s` or vanishes in `s + 1`.
    let mut s = 0.0f64;
    for i in 0..n {
        let radius: f64 = l.row(i).1.iter().map(|x| x.abs()).sum();
        s = s.max(radius);
    }
    s += 1.0;
    // s·I − L with the diagonal merged in column order; a missing (zero)
    // diagonal entry of L shifts to exactly `s`.
    let shifted = CsrMatrix::from_rows(
        n,
        (0..n).map(|i| {
            let (cols, vals) = l.row(i);
            let split = cols.partition_point(|&c| c < i);
            let (diag, above) = match cols.get(split) {
                Some(&c) if c == i => (-vals[split] + s, split + 1),
                _ => (s, split),
            };
            let negate = |(&c, &v): (&usize, &f64)| (c, -v);
            let below = cols[..split].iter().zip(vals).map(negate);
            let above = cols[above..].iter().zip(&vals[above..]).map(negate);
            below.chain(std::iter::once((i, diag))).chain(above)
        }),
    );
    let mut pairs = top_eigenpairs(&shifted, k, iters, seed);
    for p in &mut pairs {
        p.value = s - p.value; // map back to L's spectrum
    }
    pairs
}

/// `Σ|w_i − v_i| < bound`, summed in index order. The terms are
/// non-negative and rounding is monotone, so the running sum never
/// decreases: once it reaches `bound` the full sum does too, and the rest
/// of the terms need not be read. A NaN term makes both answers `false`.
fn delta_below(w: &[f64], v: &[f64], bound: f64) -> bool {
    let mut delta = 0.0;
    w.iter().zip(v).all(|(a, b)| {
        delta += (a - b).abs();
        delta < bound
    })
}

fn orthogonalize(v: &mut [f64], basis: &[EigenPair]) {
    for p in basis {
        let proj = dot(v, &p.vector);
        for (x, &b) in v.iter_mut().zip(&p.vector) {
            *x -= proj * b;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{approx_eq, sq_dist, Matrix};

    /// The dense power iteration the sparse solver replaced: two dense
    /// products per iteration. The reference it must match bit for bit.
    fn dense_top_eigenpairs(m: &Matrix, k: usize, iters: usize, seed: u64) -> Vec<EigenPair> {
        let n = m.nrows();
        let k = k.min(n);
        let mut rng = Rng::seed_from_u64(seed);
        let mut pairs: Vec<EigenPair> = Vec::with_capacity(k);
        for _ in 0..k {
            let mut v: Vec<f64> = (0..n).map(|_| standard_normal(&mut rng)).collect();
            orthogonalize(&mut v, &pairs);
            let nv = norm2(&v);
            if nv <= crate::EPS {
                break;
            }
            for x in &mut v {
                *x /= nv;
            }
            let mut lambda = 0.0;
            for _ in 0..iters {
                let mut w = m.matvec(&v);
                orthogonalize(&mut w, &pairs);
                let nw = norm2(&w);
                if nw <= crate::EPS {
                    break;
                }
                for x in &mut w {
                    *x /= nw;
                }
                lambda = dot(&w, &m.matvec(&w));
                let delta: f64 = w.iter().zip(&v).map(|(a, b)| (a - b).abs()).sum();
                v = w;
                if delta < 1e-10 {
                    break;
                }
            }
            pairs.push(EigenPair { value: lambda, vector: v });
        }
        pairs
    }

    /// The dense spectrum inversion, on top of [`dense_top_eigenpairs`].
    fn dense_bottom_eigenpairs(l: &Matrix, k: usize, iters: usize, seed: u64) -> Vec<EigenPair> {
        let n = l.nrows();
        let mut s = 0.0f64;
        for i in 0..n {
            let radius: f64 = l.row(i).iter().map(|x| x.abs()).sum();
            s = s.max(radius);
        }
        s += 1.0;
        let mut shifted = l.map(|x| -x);
        for i in 0..n {
            shifted[(i, i)] += s;
        }
        let mut pairs = dense_top_eigenpairs(&shifted, k, iters, seed);
        for p in &mut pairs {
            p.value = s - p.value;
        }
        pairs
    }

    fn csr(m: &Matrix) -> CsrMatrix {
        CsrMatrix::from_dense(m)
    }

    fn assert_pairs_bit_identical(got: &[EigenPair], want: &[EigenPair], what: &str) {
        assert_eq!(got.len(), want.len(), "{what}: pair count");
        for (g, w) in got.iter().zip(want) {
            assert_eq!(g.value.to_bits(), w.value.to_bits(), "{what}: eigenvalue");
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&g.vector), bits(&w.vector), "{what}: eigenvector");
        }
    }

    /// MCFS-style heat-kernel k-NN Laplacian `D − W`, built densely. Points
    /// fall in `clusters` well-separated blobs (a disconnected graph when
    /// there are several), and the first `isolated` points get no edges.
    fn knn_laplacian(m: usize, clusters: usize, isolated: usize, seed: u64) -> Matrix {
        let mut rng = Rng::seed_from_u64(seed);
        let points: Vec<Vec<f64>> = (0..m)
            .map(|_| {
                let c = rng.below(clusters) as f64 * 100.0;
                (0..3).map(|_| c + standard_normal(&mut rng)).collect()
            })
            .collect();
        let k = 5.min(m - 1);
        let mut weights = Matrix::zeros(m, m);
        for i in isolated..m {
            let mut dists: Vec<(f64, usize)> = (isolated..m)
                .filter(|&j| j != i)
                .map(|j| (sq_dist(&points[i], &points[j]), j))
                .collect();
            dists.sort_by(|a, b| a.0.total_cmp(&b.0));
            for &(d2, j) in dists.iter().take(k) {
                let w = (-d2 / 2.0).exp();
                if w > weights[(i, j)] {
                    weights[(i, j)] = w;
                    weights[(j, i)] = w;
                }
            }
        }
        let mut l = weights.map(|w| -w);
        for i in 0..m {
            let degree: f64 = weights.row(i).iter().sum();
            l[(i, i)] += degree;
        }
        l
    }

    #[test]
    fn sparse_solver_matches_dense_oracle_on_knn_laplacians() {
        for (m, clusters, isolated) in
            [(7, 1, 0), (30, 1, 0), (61, 3, 0), (40, 2, 2), (183, 1, 0), (183, 4, 1)]
        {
            let l = knn_laplacian(m, clusters, isolated, m as u64);
            for (k, iters) in [(1, 50), (5, 300)] {
                let seed = 0xA5A5 ^ m as u64;
                let got = bottom_eigenpairs(&csr(&l), k, iters, seed);
                let want = dense_bottom_eigenpairs(&l, k, iters, seed);
                assert_pairs_bit_identical(&got, &want, &format!("m={m} clusters={clusters}"));
            }
        }
    }

    #[test]
    fn sparse_top_eigenpairs_match_dense_oracle() {
        let mut rng = Rng::seed_from_u64(41);
        for n in [1, 2, 5, 8, 13] {
            // Symmetric, about half ±0 entries.
            let mut m = Matrix::zeros(n, n);
            for i in 0..n {
                for j in 0..=i {
                    let v = match rng.below(3) {
                        0 => standard_normal(&mut rng),
                        1 => -0.0,
                        _ => 0.0,
                    };
                    m[(i, j)] = v;
                    m[(j, i)] = v;
                }
            }
            let got = top_eigenpairs(&csr(&m), 3, 400, n as u64);
            let want = dense_top_eigenpairs(&m, 3, 400, n as u64);
            assert_pairs_bit_identical(&got, &want, &format!("n={n}"));
        }
    }

    fn diag(values: &[f64]) -> Matrix {
        let n = values.len();
        let mut m = Matrix::zeros(n, n);
        for (i, &v) in values.iter().enumerate() {
            m[(i, i)] = v;
        }
        m
    }

    #[test]
    fn recovers_diagonal_spectrum() {
        let m = diag(&[5.0, 2.0, 1.0]);
        let pairs = top_eigenpairs(&csr(&m), 2, 500, 7);
        assert_eq!(pairs.len(), 2);
        assert!(approx_eq(pairs[0].value, 5.0, 1e-6), "λ0 = {}", pairs[0].value);
        assert!(approx_eq(pairs[1].value, 2.0, 1e-6), "λ1 = {}", pairs[1].value);
        assert!(approx_eq(pairs[0].vector[0].abs(), 1.0, 1e-5));
    }

    #[test]
    fn eigenvectors_are_orthonormal() {
        // Symmetric non-diagonal matrix.
        let m = Matrix::from_rows(&[
            vec![4.0, 1.0, 0.0],
            vec![1.0, 3.0, 1.0],
            vec![0.0, 1.0, 2.0],
        ]);
        let pairs = top_eigenpairs(&csr(&m), 3, 1000, 1);
        for i in 0..pairs.len() {
            assert!(approx_eq(norm2(&pairs[i].vector), 1.0, 1e-6));
            for j in 0..i {
                assert!(dot(&pairs[i].vector, &pairs[j].vector).abs() < 1e-5);
            }
        }
        // Trace equals eigenvalue sum.
        let trace = 4.0 + 3.0 + 2.0;
        let sum: f64 = pairs.iter().map(|p| p.value).sum();
        assert!(approx_eq(trace, sum, 1e-4), "trace {trace} vs {sum}");
    }

    #[test]
    fn eigen_equation_holds() {
        let m = Matrix::from_rows(&[vec![2.0, 1.0], vec![1.0, 2.0]]);
        let pairs = top_eigenpairs(&csr(&m), 2, 1000, 3);
        for p in &pairs {
            let mv = m.matvec(&p.vector);
            for (a, b) in mv.iter().zip(&p.vector) {
                assert!(approx_eq(*a, p.value * b, 1e-5), "Av = λv violated");
            }
        }
    }

    #[test]
    fn bottom_eigenpairs_find_smallest() {
        let m = diag(&[5.0, 2.0, 0.5]);
        let pairs = bottom_eigenpairs(&csr(&m), 2, 500, 9);
        assert!(approx_eq(pairs[0].value, 0.5, 1e-5), "λ0 = {}", pairs[0].value);
        assert!(approx_eq(pairs[1].value, 2.0, 1e-5), "λ1 = {}", pairs[1].value);
    }

    #[test]
    fn laplacian_bottom_vector_is_constant() {
        // Path graph on 4 nodes: L = D - A; null space is the constant vector.
        let a = Matrix::from_rows(&[
            vec![0.0, 1.0, 0.0, 0.0],
            vec![1.0, 0.0, 1.0, 0.0],
            vec![0.0, 1.0, 0.0, 1.0],
            vec![0.0, 0.0, 1.0, 0.0],
        ]);
        let n = 4;
        let mut l = a.map(|x| -x);
        for i in 0..n {
            let deg: f64 = a.row(i).iter().sum();
            l[(i, i)] += deg;
        }
        let pairs = bottom_eigenpairs(&csr(&l), 1, 2000, 11);
        assert!(pairs[0].value.abs() < 1e-5, "λ0 = {}", pairs[0].value);
        let v = &pairs[0].vector;
        for x in v {
            assert!(approx_eq(x.abs(), 0.5, 1e-4), "constant vector expected, got {v:?}");
        }
    }
}
