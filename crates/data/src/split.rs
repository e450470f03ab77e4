//! Stratified data splitting.
//!
//! The paper splits each dataset into train/validation/test at a 3:1:1 ratio
//! using stratification on the class label (§ 6.1). We stratify on the
//! *(label, protected-group)* pair so that fairness metrics remain estimable
//! on every part even for small minority groups.

use crate::dataset::Dataset;
use dfs_linalg::rng::{shuffled_indices, Rng};
use std::sync::Arc;

/// A train/validation/test split of a [`Dataset`].
///
/// A cheap handle: cloning shares the three parts, so every holder of a
/// clone (a run's row workers, the daemon's cache and the queries it
/// serves) reads one copy of the data, which lives until the last clone
/// drops.
#[derive(Debug, Clone)]
pub struct Split {
    /// 3/5 of the data; models are trained here.
    pub train: Arc<Dataset>,
    /// 1/5; constraints are checked here during search.
    pub val: Arc<Dataset>,
    /// 1/5; satisfied scenarios are confirmed here.
    pub test: Arc<Dataset>,
}

impl Split {
    /// Number of features (identical across parts).
    pub fn n_features(&self) -> usize {
        self.train.n_features()
    }
}

/// Stratified 3:1:1 split.
///
/// Instances are grouped into strata by `(y, protected)`; each stratum is
/// shuffled deterministically (from `seed`) and dealt out in a 3:1:1 pattern,
/// so every part receives a proportional share of each stratum.
pub fn stratified_three_way(ds: &Dataset, seed: u64) -> Split {
    let Ok([train, val, test]) = <[Dataset; 3]>::try_from(stratified_split(ds, &[3, 1, 1], seed))
    else {
        unreachable!("stratified_split returns one part per weight")
    };
    Split { train: Arc::new(train), val: Arc::new(val), test: Arc::new(test) }
}

/// Generic stratified split by integer ratio weights.
///
/// Returns one dataset per weight. Strata are `(y, protected)` pairs.
pub fn stratified_split(ds: &Dataset, weights: &[usize], seed: u64) -> Vec<Dataset> {
    assert!(!weights.is_empty(), "stratified_split: no weights");
    let total: usize = weights.iter().sum();
    assert!(total > 0, "stratified_split: zero total weight");
    let mut rng = Rng::seed_from_u64(seed);

    // Bucket instance indices into strata.
    let mut strata: [Vec<usize>; 4] = Default::default();
    for i in 0..ds.n_rows() {
        let s = (ds.y[i] as usize) * 2 + ds.protected[i] as usize;
        strata[s].push(i);
    }

    // Deal each stratum into the parts proportionally: positions are assigned
    // by walking the cumulative ratio pattern.
    let mut part_indices: Vec<Vec<usize>> = vec![Vec::new(); weights.len()];
    for bucket in &strata {
        if bucket.is_empty() {
            continue;
        }
        let order = shuffled_indices(bucket.len(), &mut rng);
        for (pos, &local) in order.iter().enumerate() {
            let slot = pos % total;
            // Find which part this slot belongs to in the repeating pattern.
            let mut acc = 0usize;
            let mut part = weights.len() - 1;
            for (p, &w) in weights.iter().enumerate() {
                acc += w;
                if slot < acc {
                    part = p;
                    break;
                }
            }
            part_indices[part].push(bucket[local]);
        }
    }

    part_indices
        .into_iter()
        .map(|mut idx| {
            idx.sort_unstable(); // keep row order stable within parts
            ds.select_rows(&idx)
        })
        .collect()
}

/// Deterministic k-fold indices stratified by the class label.
///
/// Used by subsampling-based landmarking in the meta-optimizer.
pub fn stratified_k_fold(y: &[bool], k: usize, seed: u64) -> Vec<Vec<usize>> {
    assert!(k >= 2, "stratified_k_fold: need k >= 2");
    let mut rng = Rng::seed_from_u64(seed);
    let mut folds: Vec<Vec<usize>> = vec![Vec::new(); k];
    for label in [false, true] {
        let bucket: Vec<usize> =
            (0..y.len()).filter(|&i| y[i] == label).collect();
        let order = shuffled_indices(bucket.len(), &mut rng);
        for (pos, &local) in order.iter().enumerate() {
            folds[pos % k].push(bucket[local]);
        }
    }
    for f in &mut folds {
        f.sort_unstable();
    }
    folds
}

#[cfg(test)]
mod tests {
    use super::*;
    use dfs_linalg::Matrix;

    fn dataset(n: usize) -> Dataset {
        let x = Matrix::from_vec(n, 2, (0..2 * n).map(|v| v as f64).collect());
        Dataset {
            name: "s".into(),
            x,
            y: (0..n).map(|i| i % 3 == 0).collect(),
            protected: (0..n).map(|i| i % 5 == 0).collect(),
            feature_names: vec!["a".into(), "b".into()],
        }
    }

    #[test]
    fn three_way_ratio_is_3_1_1() {
        let ds = dataset(500);
        let s = stratified_three_way(&ds, 1);
        let (tr, va, te) = (s.train.n_rows(), s.val.n_rows(), s.test.n_rows());
        assert_eq!(tr + va + te, 500);
        assert!((tr as f64 / 500.0 - 0.6).abs() < 0.02, "train {tr}");
        assert!((va as f64 / 500.0 - 0.2).abs() < 0.02, "val {va}");
        assert!((te as f64 / 500.0 - 0.2).abs() < 0.02, "test {te}");
    }

    #[test]
    fn splits_are_disjoint_and_cover() {
        let ds = dataset(100);
        let s = stratified_three_way(&ds, 2);
        // Reconstruct original row ids via the first feature (unique values).
        let mut seen: Vec<i64> = Vec::new();
        for part in [&s.train, &s.val, &s.test] {
            for i in 0..part.n_rows() {
                seen.push(part.x[(i, 0)] as i64);
            }
        }
        seen.sort_unstable();
        let expected: Vec<i64> = (0..100).map(|i| 2 * i).collect();
        assert_eq!(seen, expected);
    }

    #[test]
    fn stratification_preserves_class_balance() {
        let ds = dataset(600);
        let s = stratified_three_way(&ds, 3);
        let overall = ds.positive_rate();
        for part in [&s.train, &s.val, &s.test] {
            assert!(
                (part.positive_rate() - overall).abs() < 0.05,
                "positive rate drifted: {} vs {overall}",
                part.positive_rate()
            );
        }
    }

    #[test]
    fn stratification_preserves_minority_share() {
        let ds = dataset(600);
        let s = stratified_three_way(&ds, 4);
        let overall = ds.minority_rate();
        for part in [&s.train, &s.val, &s.test] {
            assert!((part.minority_rate() - overall).abs() < 0.05);
        }
    }

    #[test]
    fn split_is_deterministic_per_seed() {
        let ds = dataset(120);
        let a = stratified_three_way(&ds, 9);
        let b = stratified_three_way(&ds, 9);
        assert_eq!(a.train.x.as_slice(), b.train.x.as_slice());
        let c = stratified_three_way(&ds, 10);
        assert_ne!(a.train.x.as_slice(), c.train.x.as_slice());
    }

    #[test]
    fn a_clone_shares_the_three_parts() {
        let s = stratified_three_way(&dataset(60), 5);
        let c = s.clone();
        assert!(Arc::ptr_eq(&s.train, &c.train));
        assert!(Arc::ptr_eq(&s.val, &c.val));
        assert!(Arc::ptr_eq(&s.test, &c.test));
        assert_eq!(Arc::strong_count(&s.train), 2);
        drop(c);
        assert_eq!(Arc::strong_count(&s.train), 1);
    }

    #[test]
    fn k_fold_partitions_everything() {
        let y: Vec<bool> = (0..53).map(|i| i % 4 == 0).collect();
        let folds = stratified_k_fold(&y, 5, 1);
        assert_eq!(folds.len(), 5);
        let mut all: Vec<usize> = folds.concat();
        all.sort_unstable();
        assert_eq!(all, (0..53).collect::<Vec<_>>());
        // Each fold keeps some positives when possible.
        for f in &folds {
            assert!(f.iter().any(|&i| y[i]), "fold without positives");
        }
    }
}
