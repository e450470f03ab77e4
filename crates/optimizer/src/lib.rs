//! The meta-learning DFS optimizer (paper § 5, Algorithm 1).
//!
//! Given a user's ML scenario, predict which FS strategy is most likely to
//! satisfy it — *without* trying any strategy on the data. The optimizer
//! trains one success classifier per strategy (a random forest with class
//! balancing, § 6.2) on previously executed scenarios, and at deployment
//! picks the strategy with the highest predicted success probability.
//!
//! The feature vector `ρ(D, φ, C)` has four blocks (§ 5.2):
//!
//! - `ρ_data` — rows and feature count of the dataset;
//! - `ρ_model` — one-hot classification model;
//! - `ρ_constraints` — the six declared constraint values;
//! - `ρ_hardness` — subsampling-based landmarking: metrics of the full
//!   feature set measured by cross-validation on a small stratified sample,
//!   minus the constraint thresholds ("how far is this scenario from
//!   already satisfied?").

pub mod features;
pub mod loo;

pub use features::{featurize, landmark, FeaturizerConfig, Landmark};
pub use loo::{leave_one_dataset_out, leave_one_dataset_out_pooled, LooReport, StrategyPrf};

use dfs_core::runner::{Arm, BenchmarkMatrix};
use dfs_core::MlScenario;
use dfs_data::split::Split;
use dfs_fs::StrategyId;
use dfs_linalg::Matrix;
use dfs_models::forest::{ForestConfig, RandomForest};
use std::cmp::Ordering;
use std::collections::HashMap;

/// Optimizer configuration.
#[derive(Debug, Clone)]
pub struct OptimizerConfig {
    /// Random forest settings for the per-strategy success classifiers.
    pub forest: ForestConfig,
    /// Featurization/landmarking settings.
    pub featurizer: FeaturizerConfig,
}

impl Default for OptimizerConfig {
    fn default() -> Self {
        Self {
            forest: ForestConfig { n_trees: 40, max_depth: 6, balanced: true, seed: 17 },
            featurizer: FeaturizerConfig::default(),
        }
    }
}

/// A trained DFS optimizer: one success model per strategy.
pub struct DfsOptimizer {
    strategies: Vec<StrategyId>,
    models: Vec<PerStrategyModel>,
    config: OptimizerConfig,
}

enum PerStrategyModel {
    /// A fitted forest.
    Forest(RandomForest),
    /// Training labels were all identical; predict that constant.
    Constant(bool),
}

/// One training observation: a scenario's features and per-strategy success.
pub struct TrainingExample {
    /// `ρ(D, φ, C)`.
    pub features: Vec<f64>,
    /// Success per strategy, aligned with the optimizer's strategy list.
    pub outcomes: Vec<bool>,
}

impl DfsOptimizer {
    /// Trains the optimizer from explicit examples.
    pub fn fit(strategies: Vec<StrategyId>, examples: &[TrainingExample], config: OptimizerConfig) -> Self {
        assert!(!strategies.is_empty(), "DfsOptimizer: no strategies");
        assert!(!examples.is_empty(), "DfsOptimizer: no training examples");
        let d = examples[0].features.len();
        let x = Matrix::from_rows(&examples.iter().map(|e| e.features.clone()).collect::<Vec<_>>());
        debug_assert_eq!(x.ncols(), d);

        let models = (0..strategies.len())
            .map(|s| {
                let y: Vec<bool> = examples.iter().map(|e| e.outcomes[s]).collect();
                let positives = y.iter().filter(|&&b| b).count();
                if positives == 0 || positives == y.len() {
                    PerStrategyModel::Constant(positives > 0)
                } else {
                    let mut cfg = config.forest.clone();
                    cfg.seed = cfg.seed.wrapping_add(s as u64);
                    PerStrategyModel::Forest(RandomForest::fit(&x, &y, &cfg))
                }
            })
            .collect();
        Self { strategies, models, config }
    }

    /// Builds training data from a benchmark matrix + splits and trains
    /// (the "training phase" of Algorithm 1, reusing executed scenarios).
    ///
    /// `exclude_dataset` drops one dataset's scenarios (leave-one-out).
    pub fn fit_from_matrix(
        matrix: &BenchmarkMatrix,
        splits: &HashMap<String, Split>,
        config: OptimizerConfig,
        exclude_dataset: Option<&str>,
    ) -> Self {
        Self::fit_from_matrices(&[matrix], splits, config, exclude_dataset)
    }

    /// Like [`DfsOptimizer::fit_from_matrix`], but pooling scenarios from
    /// several executed benchmarks (e.g. the default-parameters and HPO
    /// corpora) — the paper trains on every previously deployed scenario,
    /// and more examples help the per-strategy forests considerably at this
    /// reproduction's corpus scale.
    ///
    /// # Panics
    /// Panics when the matrices disagree on their arm set.
    pub fn fit_from_matrices(
        matrices: &[&BenchmarkMatrix],
        splits: &HashMap<String, Split>,
        config: OptimizerConfig,
        exclude_dataset: Option<&str>,
    ) -> Self {
        assert!(!matrices.is_empty(), "fit_from_matrices: no matrices");
        for m in matrices {
            assert_eq!(m.arms, matrices[0].arms, "fit_from_matrices: arm mismatch");
        }
        let strategies: Vec<StrategyId> = matrices[0]
            .arms
            .iter()
            .filter_map(|a| match a {
                Arm::Strategy(s) => Some(*s),
                Arm::Original => None,
            })
            .collect();
        let arm_indices: Vec<usize> = matrices[0]
            .arms
            .iter()
            .enumerate()
            .filter(|(_, a)| matches!(a, Arm::Strategy(_)))
            .map(|(i, _)| i)
            .collect();

        let mut examples: Vec<TrainingExample> = Vec::new();
        for matrix in matrices {
            for (i, scenario) in matrix.scenarios.iter().enumerate() {
                if exclude_dataset == Some(scenario.dataset.as_str()) {
                    continue;
                }
                let split = &splits[&scenario.dataset];
                examples.push(TrainingExample {
                    features: featurize(scenario, split, &config.featurizer),
                    outcomes: arm_indices
                        .iter()
                        .map(|&a| matrix.results[i][a].success)
                        .collect(),
                });
            }
        }
        Self::fit(strategies, &examples, config)
    }

    /// Success probability per strategy for a query scenario
    /// (the "deployment phase": featurize + one `predict_proba` per model).
    pub fn probabilities(&self, scenario: &MlScenario, split: &Split) -> Vec<(StrategyId, f64)> {
        let x = featurize(scenario, split, &self.config.featurizer);
        self.strategies
            .iter()
            .zip(&self.models)
            .map(|(s, m)| {
                let p = match m {
                    PerStrategyModel::Forest(f) => f.proba_one(&x),
                    PerStrategyModel::Constant(b) => {
                        if *b {
                            1.0
                        } else {
                            0.0
                        }
                    }
                };
                (*s, p)
            })
            .collect()
    }

    /// The recommended strategy: `argmax_s P(success | x)`.
    pub fn recommend(&self, scenario: &MlScenario, split: &Split) -> StrategyId {
        // `fit` rejects an empty strategy list, so `max_by` finds one.
        self.probabilities(scenario, split)
            .into_iter()
            .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(Ordering::Equal))
            .map_or(self.strategies[0], |(s, _)| s)
    }

    /// Per-strategy success prediction (threshold 0.5) — used by Table 9.
    pub fn predict_success(&self, scenario: &MlScenario, split: &Split) -> Vec<(StrategyId, bool)> {
        self.probabilities(scenario, split)
            .into_iter()
            .map(|(s, p)| (s, p > 0.5))
            .collect()
    }

    /// The strategies this optimizer knows, in model order.
    pub fn strategies(&self) -> &[StrategyId] {
        &self.strategies
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dfs_constraints::ConstraintSet;
    use dfs_data::split::stratified_three_way;
    use dfs_data::synthetic::{generate, tiny_spec};
    use dfs_models::ModelKind;
    use std::time::Duration;

    fn split() -> Split {
        stratified_three_way(&generate(&tiny_spec(), 1), 1)
    }

    fn scenario(min_f1: f64) -> MlScenario {
        MlScenario {
            dataset: "tiny".into(),
            model: ModelKind::LogisticRegression,
            hpo: false,
            constraints: ConstraintSet::accuracy_only(min_f1, Duration::from_secs(1)),
            utility_f1: false,
            seed: 3,
        }
    }

    /// Synthetic corpus where strategy 0 succeeds iff min_f1 (feature 5 of
    /// the vector) is low, and strategy 1 always succeeds.
    fn synthetic_examples(cfg: &FeaturizerConfig) -> Vec<TrainingExample> {
        let split = split();
        (0..40)
            .map(|i| {
                let f1 = 0.5 + 0.012 * i as f64;
                let sc = scenario(f1);
                TrainingExample {
                    features: featurize(&sc, &split, cfg),
                    outcomes: vec![f1 < 0.7, true],
                }
            })
            .collect()
    }

    #[test]
    fn optimizer_learns_threshold_structure() {
        let cfg = OptimizerConfig::default();
        let examples = synthetic_examples(&cfg.featurizer);
        let opt = DfsOptimizer::fit(
            vec![StrategyId::Sfs, StrategyId::TpeNr],
            &examples,
            cfg,
        );
        let split = split();
        // Easy scenario: both plausible, Sfs probability should be high.
        let p_easy = opt.probabilities(&scenario(0.55), &split);
        assert!(p_easy[0].1 > 0.5, "easy scenario P(Sfs) = {}", p_easy[0].1);
        // Hard scenario: Sfs should look unlikely; TpeNr (always succeeds)
        // must be recommended.
        let p_hard = opt.probabilities(&scenario(0.95), &split);
        assert!(p_hard[0].1 < 0.5, "hard scenario P(Sfs) = {}", p_hard[0].1);
        assert_eq!(opt.recommend(&scenario(0.95), &split), StrategyId::TpeNr);
    }

    #[test]
    fn constant_outcomes_use_constant_model() {
        let cfg = OptimizerConfig::default();
        let examples = synthetic_examples(&cfg.featurizer);
        let opt = DfsOptimizer::fit(
            vec![StrategyId::Sfs, StrategyId::TpeNr],
            &examples,
            cfg,
        );
        let split = split();
        // TpeNr succeeded everywhere in training -> probability exactly 1.
        let probs = opt.probabilities(&scenario(0.8), &split);
        assert_eq!(probs[1].1, 1.0);
        let preds = opt.predict_success(&scenario(0.8), &split);
        assert!(preds[1].1);
    }

    #[test]
    #[should_panic(expected = "no training examples")]
    fn fit_rejects_empty_corpus() {
        let _ = DfsOptimizer::fit(vec![StrategyId::Sfs], &[], OptimizerConfig::default());
    }
}
