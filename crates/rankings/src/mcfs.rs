//! Multi-cluster feature selection (Cai, Zhang & He, 2010).
//!
//! MCFS is unsupervised: it selects features that preserve the local
//! geometric (multi-cluster) structure of the data.
//!
//! 1. Build a k-NN graph over (a subsample of) the instances with a heat
//!    kernel weight.
//! 2. Compute the bottom `K` non-trivial eigenvectors of the graph
//!    Laplacian — the spectral embedding (Ng, Jordan & Weiss).
//! 3. Regress each embedding dimension onto the features with an L1 penalty
//!    (lasso) — `K` sparse regression problems.
//! 4. Score feature `j` by `max_k |w_kj|`.
//!
//! The spectral embedding plus `K` lasso fits make MCFS the most expensive
//! ranking in the suite — the paper's "time-intensive computation of the
//! spectral embedding" shows up here as real work (its coverage suffers on
//! big data for the same reason as in the paper).

use crate::nearest::NearestK;
use dfs_linalg::eigen::bottom_eigenpairs;
use dfs_linalg::rng::{sample_without_replacement, Rng};
use dfs_linalg::solvers::lasso_multi_target;
use dfs_linalg::sparse::CsrMatrix;
use dfs_linalg::stats::{column_means, column_variances};
use dfs_linalg::{sq_dist, Matrix};

/// Instances used for the spectral graph (subsampled beyond this).
const MAX_GRAPH_NODES: usize = 220;
/// Nearest neighbours in the graph.
const KNN: usize = 5;
/// Spectral-embedding dimensions (≈ number of clusters).
const EMBED_DIMS: usize = 4;
/// L1 penalty of the per-dimension regressions.
const LASSO_ALPHA: f64 = 0.01;

/// MCFS feature scores (higher = better). `y` is unused (MCFS is
/// unsupervised) but kept in the signature for ranking uniformity.
pub fn mcfs_scores(x: &Matrix, _y: &[bool], seed: u64) -> Vec<f64> {
    scores_with(x, seed, knn_laplacian)
}

/// [`mcfs_scores`] with the graph-Laplacian builder as a parameter, so
/// tests can substitute the dense construction.
fn scores_with(
    x: &Matrix,
    seed: u64,
    laplacian_of: impl Fn(&[Vec<(usize, f64)>], f64) -> CsrMatrix,
) -> Vec<f64> {
    let (n, d) = x.shape();
    if n < 3 || d == 0 {
        return vec![0.0; d];
    }
    let mut rng = Rng::seed_from_u64(seed);

    // 1. Subsample and build the k-NN heat-kernel graph.
    let m = n.min(MAX_GRAPH_NODES);
    let mut nodes = sample_without_replacement(n, m, &mut rng);
    nodes.sort_unstable();
    let xs = x.select_rows(&nodes);
    let k = KNN.min(m - 1).max(1);
    let neighbour_lists = knn_lists(&xs, k);
    let mut sigma_acc = 0.0;
    for nn in &neighbour_lists {
        sigma_acc += nn.iter().map(|&(_, d2)| d2).sum::<f64>() / k as f64;
    }
    let sigma2 = (sigma_acc / m as f64).max(1e-9);

    // 2. Laplacian and its bottom non-trivial eigenvectors.
    let laplacian = laplacian_of(&neighbour_lists, sigma2);
    let embed = EMBED_DIMS.min(m.saturating_sub(1)).max(1);
    // Lazily: pairs past the ones that fill the targets below are never
    // extracted.
    let pairs = bottom_eigenpairs(&laplacian, 300, seed ^ 0xA5A5);

    // 3. Lasso per non-trivial eigenvector on standardized data (centering
    //    removes the intercept; unit variance makes coefficients comparable
    //    across features regardless of their scale).
    let means = column_means(&xs);
    let stds: Vec<f64> =
        column_variances(&xs).iter().map(|v| v.sqrt().max(1e-9)).collect();
    let mut centered = xs.clone();
    for i in 0..m {
        let row = centered.row_mut(i);
        for ((v, mu), sd) in row.iter_mut().zip(&means).zip(&stds) {
            *v = (*v - mu) / sd;
        }
    }

    // Center each eigenvector and drop (near-)constant ones. When the k-NN
    // graph is disconnected the zero eigenvalue has multiplicity > 1 and the
    // returned null-space basis arbitrarily mixes the constant direction
    // with cluster indicators — centering + norm filtering recovers exactly
    // the informative directions, regardless of basis rotation. At most
    // `embed + 1` pairs are pulled: one more than the targets, to skip the
    // trivial constant eigenvector.
    let mut targets: Vec<Vec<f64>> = Vec::with_capacity(embed);
    for pair in pairs.take(embed + 1) {
        let mean_e: f64 = pair.vector.iter().sum::<f64>() / m as f64;
        let mut target: Vec<f64> = pair.vector.iter().map(|v| v - mean_e).collect();
        let norm = dfs_linalg::norm2(&target);
        if norm < 1e-6 {
            continue; // the trivial/constant direction
        }
        // Rescale to unit norm so every embedding dimension weighs equally.
        for t in &mut target {
            *t /= norm;
        }
        targets.push(target);
        if targets.len() >= embed {
            break;
        }
    }
    let targets: Vec<&[f64]> = targets.iter().map(Vec::as_slice).collect();
    let mut scores = vec![0.0f64; d];
    for w in lasso_multi_target(&centered, &targets, LASSO_ALPHA, 120, 1e-6) {
        for (s, wj) in scores.iter_mut().zip(&w) {
            *s = s.max(wj.abs());
        }
    }
    scores
}

/// Each row's `k` nearest other rows as `(index, squared distance)`,
/// nearest first with ties in index order: the first `k` entries of a
/// stable sort of the row's distances. Each pair's distance is computed
/// once — `sq_dist` is symmetric bit for bit, since `fl(a − b) = −fl(b − a)`
/// and squaring drops the sign — and a bounded [`NearestK`] replaces the
/// sort.
fn knn_lists(xs: &Matrix, k: usize) -> Vec<Vec<(usize, f64)>> {
    let m = xs.nrows();
    let mut dist = vec![0.0; m * m];
    for i in 0..m {
        for j in i + 1..m {
            let d2 = sq_dist(xs.row(i), xs.row(j));
            dist[i * m + j] = d2;
            dist[j * m + i] = d2;
        }
    }
    let mut nearest = NearestK::new(k);
    (0..m)
        .map(|i| {
            nearest.clear();
            for (j, &d2) in dist[i * m..(i + 1) * m].iter().enumerate() {
                if j == i {
                    continue;
                }
                if d2.is_nan() {
                    panic!("mcfs: non-finite distances");
                }
                nearest.push(d2, j);
            }
            nearest.items().iter().map(|&(d2, j)| (j, d2)).collect()
        })
        .collect()
}

/// The heat-kernel graph Laplacian `L = D − W` of the k-NN lists, in
/// sparse form. An edge exists if either endpoint selected the other, with
/// the larger of the two weights; a weight that underflows to zero is no
/// edge. Row `i` holds `−W_ij` and the degree `Σ_j W_ij` (summed in column
/// order), so every stored value has the bits of the dense `D − W`.
fn knn_laplacian(neighbour_lists: &[Vec<(usize, f64)>], sigma2: f64) -> CsrMatrix {
    let m = neighbour_lists.len();
    let mut edges: Vec<Vec<(usize, f64)>> = vec![Vec::new(); m];
    for (i, nn) in neighbour_lists.iter().enumerate() {
        for &(j, d2) in nn {
            let w = (-d2 / sigma2).exp();
            edges[i].push((j, w));
            edges[j].push((i, w));
        }
    }
    CsrMatrix::from_rows(
        m,
        edges.into_iter().enumerate().map(|(i, mut row)| {
            row.sort_by_key(|&(j, _)| j);
            row.dedup_by(|next, kept| {
                let same = next.0 == kept.0;
                if same {
                    kept.1 = kept.1.max(next.1);
                }
                same
            });
            let degree: f64 = row.iter().map(|&(_, w)| w).sum();
            let split = row.partition_point(|&(j, _)| j < i);
            let negate = |&(j, w): &(usize, f64)| (j, -w);
            let below = row[..split].iter().map(negate);
            let above = row[split..].iter().map(negate);
            below.chain(std::iter::once((i, degree))).chain(above).collect::<Vec<_>>()
        }),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use dfs_data::synthetic::{generate, spec_by_name};

    /// Two clusters separated along feature 0; features 1–3 are
    /// low-amplitude noise. (A *single* noise feature would itself fully
    /// parameterize the within-cluster manifold and legitimately tie with
    /// the cluster feature — MCFS is unsupervised and preserves *all* local
    /// geometry — so the noise is spread over three dimensions.)
    fn clustered() -> Matrix {
        let mut rows = Vec::new();
        for i in 0..60 {
            let t1 = (i as f64 * 0.618) % 1.0;
            let t2 = (i as f64 * 0.755) % 1.0;
            let t3 = (i as f64 * 0.391) % 1.0;
            let base = if i % 2 == 0 { 0.1 } else { 0.9 };
            rows.push(vec![base + 0.02 * t1, 0.1 * t1, 0.1 * t2, 0.1 * t3]);
        }
        Matrix::from_rows(&rows)
    }

    #[test]
    fn cluster_defining_feature_scores_highest() {
        let x = clustered();
        let s = mcfs_scores(&x, &[], 3);
        for j in 1..4 {
            assert!(s[0] > s[j], "scores {s:?}");
        }
        assert!(s[0] > 0.0);
    }

    #[test]
    fn deterministic_per_seed() {
        let x = clustered();
        assert_eq!(mcfs_scores(&x, &[], 5), mcfs_scores(&x, &[], 5));
    }

    #[test]
    fn degenerate_inputs_are_safe() {
        let tiny = Matrix::from_rows(&[vec![0.1, 0.2]]);
        assert_eq!(mcfs_scores(&tiny, &[], 0), vec![0.0, 0.0]);
        let empty = Matrix::zeros(0, 3);
        assert_eq!(mcfs_scores(&empty, &[], 0), vec![0.0; 3]);
    }

    /// The neighbour search MCFS first used: every distance of a row,
    /// stably sorted, first `k` kept.
    fn knn_lists_sorted(xs: &Matrix, k: usize) -> Vec<Vec<(usize, f64)>> {
        let m = xs.nrows();
        (0..m)
            .map(|i| {
                let mut dists: Vec<(f64, usize)> = (0..m)
                    .filter(|&j| j != i)
                    .map(|j| (sq_dist(xs.row(i), xs.row(j)), j))
                    .collect();
                dists.sort_by(|a, b| a.0.total_cmp(&b.0));
                dists[..k].iter().map(|&(d2, j)| (j, d2)).collect()
            })
            .collect()
    }

    /// The dense `D − W` MCFS built before the sparse Laplacian.
    fn dense_laplacian(neighbour_lists: &[Vec<(usize, f64)>], sigma2: f64) -> Matrix {
        let m = neighbour_lists.len();
        let mut weights = Matrix::zeros(m, m);
        for (i, nn) in neighbour_lists.iter().enumerate() {
            for &(j, d2) in nn {
                let w = (-d2 / sigma2).exp();
                if w > weights[(i, j)] {
                    weights[(i, j)] = w;
                    weights[(j, i)] = w;
                }
            }
        }
        let mut laplacian = weights.map(|w| -w);
        for i in 0..m {
            let degree: f64 = weights.row(i).iter().sum();
            laplacian[(i, i)] += degree;
        }
        laplacian
    }

    /// MCFS on the ten paper-corpus datasets at the benchmark's 300-row
    /// cap: the bounded neighbour search returns the sorted search's lists
    /// (on duplicate rows and tied distances too), the neighbour-list
    /// Laplacian equals the dense construction entry for entry, and the
    /// scores match bit for bit. (The sparse eigen-solver's and the
    /// multi-target lasso's parity with their first forms are pinned in
    /// dfs-linalg.)
    #[test]
    fn sparse_laplacian_matches_dense_path_on_corpus() {
        let lists_bits = |lists: Vec<Vec<(usize, f64)>>| {
            lists.into_iter().flatten().map(|(j, d2)| (j, d2.to_bits())).collect::<Vec<_>>()
        };
        let (awkward, _) = crate::tests::awkward(12);
        for k in [1, KNN, 11] {
            assert_eq!(
                lists_bits(knn_lists(&awkward, k)),
                lists_bits(knn_lists_sorted(&awkward, k)),
                "awkward k={k}"
            );
        }
        for name in crate::tests::CORPUS {
            let Some(mut spec) = spec_by_name(name) else { panic!("unknown dataset {name}") };
            spec.rows = spec.rows.min(300);
            let ds = generate(&spec, 2021);
            let xs = ds.x.select_rows(&(0..MAX_GRAPH_NODES).collect::<Vec<_>>());
            for k in [1, KNN, 40] {
                assert_eq!(lists_bits(knn_lists(&xs, k)), lists_bits(knn_lists_sorted(&xs, k)), "{name}");
            }
            let dense_path = scores_with(&ds.x, 11, |lists, sigma2| {
                let dense = CsrMatrix::from_dense(&dense_laplacian(lists, sigma2));
                assert_eq!(knn_laplacian(lists, sigma2), dense, "{name}: Laplacian");
                dense
            });
            let bits = |v: &[f64]| v.iter().map(|s| s.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&mcfs_scores(&ds.x, &ds.y, 11)), bits(&dense_path), "{name}");
        }
    }

    #[test]
    fn constant_features_score_zero() {
        let mut rows = Vec::new();
        for i in 0..40 {
            let base = if i % 2 == 0 { 0.1 } else { 0.9 };
            rows.push(vec![base, 0.5]);
        }
        let s = mcfs_scores(&Matrix::from_rows(&rows), &[], 1);
        assert!(s[1].abs() < 1e-9, "constant feature scored {s:?}");
    }
}
