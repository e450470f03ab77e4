//! Similarity-based rankings: Fisher score and ReliefF.

use dfs_linalg::rng::{sample_without_replacement, Rng};
use crate::nearest::NearestK;
use dfs_linalg::{sq_dist, Matrix};

/// Fisher score (Duda, Hart & Stork): between-class scatter over
/// within-class scatter, per feature:
///
/// `F_j = Σ_c n_c (μ_cj − μ_j)² / Σ_c n_c σ²_cj`.
///
/// Features whose class-conditional means differ strongly relative to their
/// class-conditional spread score high. Zero within-class variance with
/// separated means yields a large finite score via an ε guard.
pub fn fisher_scores(x: &Matrix, y: &[bool]) -> Vec<f64> {
    let (n, d) = x.shape();
    assert_eq!(n, y.len(), "fisher_scores: row/label mismatch");
    if n == 0 {
        return vec![0.0; d];
    }
    let mut count = [0usize; 2];
    let mut sum = [vec![0.0; d], vec![0.0; d]];
    let mut sum_sq = [vec![0.0; d], vec![0.0; d]];
    for (row, &label) in x.rows_iter().zip(y) {
        let c = label as usize;
        count[c] += 1;
        for j in 0..d {
            sum[c][j] += row[j];
            sum_sq[c][j] += row[j] * row[j];
        }
    }
    (0..d)
        .map(|j| {
            let total_mean = (sum[0][j] + sum[1][j]) / n as f64;
            let mut between = 0.0;
            let mut within = 0.0;
            for c in 0..2 {
                if count[c] == 0 {
                    continue;
                }
                let nc = count[c] as f64;
                let mean_c = sum[c][j] / nc;
                let var_c = (sum_sq[c][j] / nc - mean_c * mean_c).max(0.0);
                between += nc * (mean_c - total_mean).powi(2);
                within += nc * var_c;
            }
            between / within.max(1e-9)
        })
        .collect()
}

/// ReliefF (Robnik-Šikonja & Kononenko, 2003) with `k` nearest neighbours.
///
/// For each of up to `MAX_ITERS` sampled instances, find the `k` nearest
/// *hits* (same class) and `k` nearest *misses* (other class) by Euclidean
/// distance over all features, and move each feature's weight down by its
/// distance to hits and up by its distance to misses. Neighbour search runs
/// over the full dataset, so the cost scales as `O(m · n · d)` — the
/// non-scalability on the largest datasets that the paper reports is real
/// here too.
///
/// Neighbours are the first `k` of each class in a stable sort of the
/// anchor's distances, and the weights move in that sorted order (the
/// order is part of the result's bits). A bounded `NearestK` per class
/// finds them without sorting all `n` distances; merging the two by
/// `(distance, index)` restores the sorted order.
pub fn relieff_scores(x: &Matrix, y: &[bool], k: usize, seed: u64) -> Vec<f64> {
    const MAX_ITERS: usize = 100;
    let (n, d) = x.shape();
    assert_eq!(n, y.len(), "relieff_scores: row/label mismatch");
    if n < 2 {
        return vec![0.0; d];
    }
    let k = k.max(1);
    let mut rng = Rng::seed_from_u64(seed);
    let m = n.min(MAX_ITERS);
    let picks = sample_without_replacement(n, m, &mut rng);

    let mut weights = vec![0.0; d];
    let mut hits = NearestK::new(k);
    let mut misses = NearestK::new(k);
    for &i in &picks {
        let anchor = x.row(i);
        hits.clear();
        misses.clear();
        for j in 0..n {
            if j == i {
                continue;
            }
            let d2 = sq_dist(anchor, x.row(j));
            // A sort of two or more distances compares every one of them.
            if d2.is_nan() && n > 2 {
                panic!("relief: non-finite distances");
            }
            if y[j] == y[i] {
                hits.push(d2, j);
            } else {
                misses.push(d2, j);
            }
        }
        let (mut h, mut s) = (hits.items(), misses.items());
        loop {
            let take_hit = match (h.first(), s.first()) {
                (Some(a), Some(b)) => a < b,
                (Some(_), None) => true,
                (None, Some(_)) => false,
                (None, None) => break,
            };
            let list = if take_hit { &mut h } else { &mut s };
            let row = x.row(list[0].1);
            *list = &list[1..];
            let pairs = weights.iter_mut().zip(anchor.iter().zip(row));
            if take_hit {
                pairs.for_each(|(w, (&a, &b))| *w -= (a - b).abs());
            } else {
                pairs.for_each(|(w, (&a, &b))| *w += (a - b).abs());
            }
        }
    }
    let norm = (m * k) as f64;
    for w in &mut weights {
        *w /= norm;
    }
    weights
}

#[cfg(test)]
mod tests {
    use super::*;
    use dfs_data::synthetic::{generate, spec_by_name};

    /// ReliefF as first written: sort every distance of the anchor, then
    /// walk the sorted list. The reference the selection kernel must match
    /// bit for bit.
    fn relieff_sorted(x: &Matrix, y: &[bool], k: usize, seed: u64) -> Vec<f64> {
        let (n, d) = x.shape();
        if n < 2 {
            return vec![0.0; d];
        }
        let k = k.max(1);
        let mut rng = Rng::seed_from_u64(seed);
        let m = n.min(100);
        let picks = sample_without_replacement(n, m, &mut rng);
        let mut weights = vec![0.0; d];
        let mut dists: Vec<(f64, usize)> = Vec::with_capacity(n);
        for &i in &picks {
            let anchor = x.row(i);
            dists.clear();
            for j in 0..n {
                if j != i {
                    dists.push((sq_dist(anchor, x.row(j)), j));
                }
            }
            dists.sort_by(|a, b| match a.0.partial_cmp(&b.0) {
                Some(ord) => ord,
                None => panic!("relief: non-finite distances"),
            });
            let mut hits = 0usize;
            let mut misses = 0usize;
            for &(_, j) in dists.iter() {
                let is_hit = y[j] == y[i];
                if is_hit && hits < k {
                    hits += 1;
                    for (w, (&a, &b)) in weights.iter_mut().zip(anchor.iter().zip(x.row(j))) {
                        *w -= (a - b).abs();
                    }
                } else if !is_hit && misses < k {
                    misses += 1;
                    for (w, (&a, &b)) in weights.iter_mut().zip(anchor.iter().zip(x.row(j))) {
                        *w += (a - b).abs();
                    }
                }
                if hits >= k && misses >= k {
                    break;
                }
            }
        }
        let norm = (m * k) as f64;
        for w in &mut weights {
            *w /= norm;
        }
        weights
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|s| s.to_bits()).collect()
    }

    /// The paper corpus at the benchmark's 300-row cap (one-hot columns
    /// give many tied distances), plus duplicate rows with a constant
    /// column, tiny inputs (`n ≤ k`) and single-class inputs.
    #[test]
    fn selection_kernel_matches_sorted_reference_bit_for_bit() {
        let (x, y) = crate::tests::awkward(14);
        for k in [1, 3, 20] {
            let got = relieff_scores(&x, &y, k, 5);
            assert_eq!(bits(&got), bits(&relieff_sorted(&x, &y, k, 5)), "awkward k={k}");
        }
        for name in crate::tests::CORPUS {
            let Some(mut spec) = spec_by_name(name) else { panic!("unknown dataset {name}") };
            spec.rows = spec.rows.min(300);
            let ds = generate(&spec, 2021);
            for (k, seed) in [(10, 3), (1, 4)] {
                let got = relieff_scores(&ds.x, &ds.y, k, seed);
                assert_eq!(bits(&got), bits(&relieff_sorted(&ds.x, &ds.y, k, seed)), "{name}");
            }
        }
        let (x, y) = labeled_data();
        for n in [2, 3, 5, 12] {
            let xs = x.select_rows(&(0..n).collect::<Vec<_>>());
            for labels in [y[..n].to_vec(), vec![true; n]] {
                let got = relieff_scores(&xs, &labels, 3, 8);
                assert_eq!(bits(&got), bits(&relieff_sorted(&xs, &labels, 3, 8)), "n={n}");
            }
        }
    }

    fn labeled_data() -> (Matrix, Vec<bool>) {
        // Feature 0 separates classes; feature 1 is shared noise.
        let mut rows = Vec::new();
        let mut y = Vec::new();
        for i in 0..80 {
            let label = i % 2 == 0;
            let noise = (i as f64 * 0.618) % 1.0;
            rows.push(vec![if label { 0.8 } else { 0.2 } + 0.05 * noise, noise]);
            y.push(label);
        }
        (Matrix::from_rows(&rows), y)
    }

    #[test]
    fn fisher_prefers_separating_feature() {
        let (x, y) = labeled_data();
        let s = fisher_scores(&x, &y);
        assert!(s[0] > 10.0 * s[1].max(1e-9), "scores {s:?}");
    }

    #[test]
    fn fisher_zero_for_identical_class_distributions() {
        let x = Matrix::from_rows(&[vec![0.3], vec![0.7], vec![0.3], vec![0.7]]);
        let y = vec![true, true, false, false];
        let s = fisher_scores(&x, &y);
        assert!(s[0] < 1e-9, "scores {s:?}");
    }

    #[test]
    fn fisher_handles_single_class() {
        let x = Matrix::from_rows(&[vec![0.1], vec![0.9]]);
        let s = fisher_scores(&x, &[true, true]);
        assert!(s[0].is_finite());
    }

    #[test]
    fn relieff_prefers_separating_feature() {
        let (x, y) = labeled_data();
        let s = relieff_scores(&x, &y, 10, 1);
        assert!(s[0] > s[1], "scores {s:?}");
        assert!(s[0] > 0.1, "separating feature should have positive weight: {s:?}");
    }

    #[test]
    fn relieff_noise_feature_weight_is_small() {
        let (x, y) = labeled_data();
        let s = relieff_scores(&x, &y, 10, 2);
        assert!(s[1].abs() < 0.25, "noise weight {}", s[1]);
    }

    #[test]
    fn relieff_deterministic_per_seed() {
        let (x, y) = labeled_data();
        assert_eq!(relieff_scores(&x, &y, 5, 9), relieff_scores(&x, &y, 5, 9));
    }

    #[test]
    fn relieff_tiny_inputs() {
        let x = Matrix::from_rows(&[vec![0.1]]);
        assert_eq!(relieff_scores(&x, &[true], 3, 0), vec![0.0]);
        let x2 = Matrix::from_rows(&[vec![0.1], vec![0.9]]);
        let s = relieff_scores(&x2, &[true, false], 3, 0);
        assert!(s[0] > 0.0, "two opposite-class points give positive weight: {s:?}");
    }
}
