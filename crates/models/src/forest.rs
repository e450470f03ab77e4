//! Random forest with class balancing.
//!
//! The meta-learning DFS optimizer (paper § 6.2) uses "a random forest
//! classifier with default parameters and class balancing" to predict which
//! FS strategy will satisfy a scenario. This implementation bags
//! depth-limited CART trees over **balanced bootstraps** (equal-size
//! with-replacement samples from each class) with per-tree random feature
//! subspaces (√d features, the usual default).

use crate::tree::{BinSet, DecisionTree, FitStats, TreeWorkspace};
use dfs_exec::Executor;
use dfs_linalg::rng::{derive_seed, sample_without_replacement, Rng};
use dfs_linalg::Matrix;
use std::sync::{Arc, Mutex};

/// Random-forest hyperparameters.
#[derive(Debug, Clone)]
pub struct ForestConfig {
    /// Number of trees.
    pub n_trees: usize,
    /// Depth limit per tree.
    pub max_depth: usize,
    /// Balanced bootstrap (equal per-class sampling).
    pub balanced: bool,
    /// RNG seed.
    pub seed: u64,
}

impl Default for ForestConfig {
    fn default() -> Self {
        Self {
            n_trees: 50,
            max_depth: 8,
            balanced: true,
            seed: 0,
        }
    }
}

/// A trained random forest.
#[derive(Debug, Clone)]
pub struct RandomForest {
    trees: Vec<(Vec<usize>, DecisionTree)>, // (feature subset, tree)
    n_features: usize,
}

/// Per-tree fit scratch: the fused-gather output, the gathered labels, and
/// the tree kernel's workspace. Pooled across trees (and threads) so
/// a 50-tree fit performs a handful of buffer allocations instead of 50.
#[derive(Default)]
struct TreeScratch {
    xs: Matrix,
    ys: Vec<bool>,
    ws: TreeWorkspace,
}

impl RandomForest {
    /// Fits the forest (sequentially; see [`RandomForest::fit_with`]).
    pub fn fit(x: &Matrix, y: &[bool], cfg: &ForestConfig) -> Self {
        Self::fit_with(x, y, cfg, &Executor::sequential())
    }

    /// Fits the forest with per-tree work routed through a shared
    /// [`Executor`].
    ///
    /// Each tree `t` draws bootstrap + feature subspace from its own RNG
    /// seeded `derive_seed(cfg.seed, t)`, so the forest is bit-identical
    /// at any thread count (trees never share a sequential RNG stream) and
    /// trees are collected in index order.
    pub fn fit_with(x: &Matrix, y: &[bool], cfg: &ForestConfig, exec: &Executor) -> Self {
        // One span for the whole forest — per-tree closures may run on
        // collector-less helper threads and record nothing, by design.
        let _g = dfs_obs::span("forest.fit");
        let (n, d) = x.shape();
        assert_eq!(n, y.len(), "RandomForest: row/label mismatch");
        assert!(n > 0, "RandomForest: empty training set");
        let subspace = ((d as f64).sqrt().ceil() as usize).clamp(1, d);

        let pos_idx: Vec<usize> = (0..n).filter(|&i| y[i]).collect();
        let neg_idx: Vec<usize> = (0..n).filter(|&i| !y[i]).collect();

        // One quantization for the whole forest: every tree's bootstrap is a
        // row/column selection of the same matrix, so trees gather codes
        // from the shared BinSet instead of re-deriving thresholds.
        let bins = Arc::new(BinSet::derive(x));

        let tree_ids: Vec<usize> = (0..cfg.n_trees).collect();
        // Scratch pool shared across tree slots: a worker pops a buffer set
        // (or starts a fresh one), fits through it, and returns it. Pool
        // traffic affects only *which* buffers a tree reuses, never the
        // fitted tree, so the forest stays bit-identical at any thread
        // count.
        let pool: Mutex<Vec<TreeScratch>> = Mutex::new(Vec::new());
        let fitted = exec.par_map_indexed(&tree_ids, |t, _| {
            let mut rng = Rng::seed_from_u64(derive_seed(cfg.seed, t as u64));
            let sample: Vec<usize> = if cfg.balanced && !pos_idx.is_empty() && !neg_idx.is_empty()
            {
                balanced_bootstrap(&pos_idx, &neg_idx, &mut rng)
            } else {
                (0..n).map(|_| rng.below(n)).collect()
            };
            let mut features = sample_without_replacement(d, subspace, &mut rng);
            features.sort_unstable();
            let mut scratch =
                pool.lock().ok().and_then(|mut p| p.pop()).unwrap_or_default();
            // Fused gather: row bootstrap and column subspace in one pass,
            // no full-height intermediate matrix.
            x.select_rows_cols_into(&sample, &features, &mut scratch.xs);
            scratch.ys.clear();
            scratch.ys.extend(sample.iter().map(|&i| y[i]));
            scratch.ws.bind_bins(&bins, &features, &sample);
            let tree = DecisionTree::fit_in(&scratch.xs, &scratch.ys, cfg.max_depth, &mut scratch.ws);
            let stats = scratch.ws.last_stats();
            if let Ok(mut p) = pool.lock() {
                p.push(scratch);
            }
            (features, tree, stats)
        });
        // Tree counters are summed from the worker returns and recorded
        // here, on the caller thread, after the join — workers may run on
        // collector-less helpers and must record nothing themselves.
        let mut total = FitStats::default();
        let trees = fitted
            .into_iter()
            .map(|(features, tree, stats)| {
                total.merge(stats);
                (features, tree)
            })
            .collect();
        total.record();
        Self { trees, n_features: d }
    }

    /// Mean positive-class probability across trees.
    pub fn proba_one(&self, x: &[f64]) -> f64 {
        self.proba_one_with(x, &mut Vec::with_capacity(16))
    }

    /// [`RandomForest::proba_one`] with a caller-owned projection buffer:
    /// per-row callers in a loop (batch prediction, attack probes) reuse
    /// one buffer instead of allocating per call.
    pub fn proba_one_with(&self, x: &[f64], projected: &mut Vec<f64>) -> f64 {
        assert_eq!(x.len(), self.n_features, "RandomForest: feature width mismatch");
        if self.trees.is_empty() {
            return 0.5;
        }
        let mut sum = 0.0;
        for (features, tree) in &self.trees {
            projected.clear();
            projected.extend(features.iter().map(|&f| x[f]));
            sum += tree.proba_one(projected);
        }
        sum / self.trees.len() as f64
    }

    /// Predicted label at the 0.5 threshold.
    pub fn predict_one(&self, x: &[f64]) -> bool {
        self.proba_one(x) > 0.5
    }

    /// Mean tree probability for every row, sharing one projection buffer
    /// across the batch.
    pub fn proba(&self, x: &Matrix) -> Vec<f64> {
        let mut projected = Vec::with_capacity(16);
        x.rows_iter().map(|r| self.proba_one_with(r, &mut projected)).collect()
    }

    /// Predicts every row (allocation-free past the output vector).
    pub fn predict(&self, x: &Matrix) -> Vec<bool> {
        let mut projected = Vec::with_capacity(16);
        x.rows_iter().map(|r| self.proba_one_with(r, &mut projected) > 0.5).collect()
    }

    /// Number of trees.
    pub fn n_trees(&self) -> usize {
        self.trees.len()
    }
}

fn balanced_bootstrap(pos: &[usize], neg: &[usize], rng: &mut Rng) -> Vec<usize> {
    let per_class = pos.len().min(neg.len()).max(1);
    let mut out = Vec::with_capacity(2 * per_class);
    for _ in 0..per_class {
        out.push(pos[rng.below(pos.len())]);
        out.push(neg[rng.below(neg.len())]);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring_problem() -> (Matrix, Vec<bool>) {
        // Nonlinear: positive iff the point is near the center.
        let mut rows = Vec::new();
        let mut y = Vec::new();
        for i in 0..200 {
            let a = (i as f64 * 0.6180339887) % 1.0;
            let b = (i as f64 * 0.7548776662) % 1.0;
            rows.push(vec![a, b]);
            y.push(((a - 0.5).powi(2) + (b - 0.5).powi(2)).sqrt() < 0.25);
        }
        (Matrix::from_rows(&rows), y)
    }

    #[test]
    fn learns_nonlinear_boundary() {
        let (x, y) = ring_problem();
        let f = RandomForest::fit(&x, &y, &ForestConfig::default());
        let preds = f.predict(&x);
        let acc =
            preds.iter().zip(&y).filter(|(p, a)| p == a).count() as f64 / y.len() as f64;
        assert!(acc > 0.85, "accuracy {acc}");
    }

    #[test]
    fn probabilities_average_trees() {
        let (x, y) = ring_problem();
        let f = RandomForest::fit(&x, &y, &ForestConfig { n_trees: 10, ..Default::default() });
        for row in x.rows_iter().take(20) {
            let p = f.proba_one(row);
            assert!((0.0..=1.0).contains(&p));
        }
        assert_eq!(f.n_trees(), 10);
    }

    #[test]
    fn balanced_forest_recalls_rare_class() {
        // 10:1 imbalance; balanced bootstraps should keep recall up.
        let mut rows = Vec::new();
        let mut y = Vec::new();
        for i in 0..220 {
            let minority = i % 11 == 0;
            let base = if minority { 0.8 } else { 0.2 };
            rows.push(vec![base + 0.05 * ((i as f64 * 0.37) % 1.0)]);
            y.push(minority);
        }
        let x = Matrix::from_rows(&rows);
        let f = RandomForest::fit(&x, &y, &ForestConfig::default());
        let recall = x
            .rows_iter()
            .zip(&y)
            .filter(|(_, &l)| l)
            .filter(|(r, _)| f.predict_one(r))
            .count() as f64
            / y.iter().filter(|&&l| l).count() as f64;
        assert!(recall > 0.9, "minority recall {recall}");
    }

    #[test]
    fn single_class_training_is_stable() {
        let x = Matrix::from_rows(&[vec![0.1], vec![0.2], vec![0.3], vec![0.4]]);
        let y = vec![true; 4];
        let f = RandomForest::fit(&x, &y, &ForestConfig { n_trees: 5, ..Default::default() });
        assert!(f.predict_one(&[0.25]));
    }

    #[test]
    fn deterministic_per_seed() {
        let (x, y) = ring_problem();
        let cfg = ForestConfig { n_trees: 8, seed: 42, ..Default::default() };
        let a = RandomForest::fit(&x, &y, &cfg).predict(&x);
        let b = RandomForest::fit(&x, &y, &cfg).predict(&x);
        assert_eq!(a, b);
    }

    #[test]
    fn batch_proba_matches_per_row_calls_bitwise() {
        let (x, y) = ring_problem();
        let f = RandomForest::fit(&x, &y, &ForestConfig { n_trees: 9, ..Default::default() });
        let batch = f.proba(&x);
        let preds = f.predict(&x);
        for (i, row) in x.rows_iter().enumerate() {
            assert_eq!(batch[i].to_bits(), f.proba_one(row).to_bits());
            assert_eq!(preds[i], f.predict_one(row));
        }
    }

    #[test]
    fn parallel_fit_is_bit_identical_to_sequential() {
        let (x, y) = ring_problem();
        let cfg = ForestConfig { n_trees: 12, seed: 9, ..Default::default() };
        let seq = RandomForest::fit(&x, &y, &cfg);
        let par = RandomForest::fit_with(&x, &y, &cfg, &Executor::new(4));
        for row in x.rows_iter() {
            assert_eq!(seq.proba_one(row).to_bits(), par.proba_one(row).to_bits());
        }
    }
}
