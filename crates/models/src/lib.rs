//! Classification models for the DFS reproduction.
//!
//! The paper evaluates three model families — logistic regression (LR),
//! Gaussian naive Bayes (NB), and decision trees (DT) — plus a linear SVM in
//! the transferability study (Table 7) and a random forest as the
//! meta-optimizer's learner. All are implemented here from scratch, together
//! with their ε-differentially-private variants (used for the Min Privacy
//! constraint) and the paper's grid-search hyperparameter optimization.
//!
//! # Entry points
//!
//! - [`ModelSpec`] — an untrained model with hyperparameters; `fit` trains
//!   it, `fit_dp` trains its differentially-private variant.
//! - [`TrainedModel`] — predictions, probabilities, feature importances.
//! - [`hpo`] — the paper's § 6.1 grids (LR `C`, NB `var_smoothing`, DT depth).
//! - [`forest::RandomForest`] — bagged trees with class balancing (used by
//!   the DFS optimizer).
//! - [`importance::importance_or_permutation`] — the importances RFE ranks
//!   by: native scores, or permutation importance for NB (the one model
//!   without them, as in the paper), computed by a term-table kernel
//!   bit-identical to re-predicting every shuffled matrix.
//!
//! # Example
//!
//! ```
//! use dfs_models::{ModelKind, ModelSpec};
//! use dfs_linalg::Matrix;
//!
//! let x = Matrix::from_rows(&[vec![0.1], vec![0.2], vec![0.8], vec![0.9]]);
//! let y = vec![false, false, true, true];
//! let model = ModelSpec::default_for(ModelKind::LogisticRegression).fit(&x, &y);
//! assert_eq!(model.predict(&x), y);
//! ```

pub mod dp;
pub mod forest;
pub mod hpo;
pub mod importance;
pub mod logistic;
pub mod naive_bayes;
pub mod svm;
pub mod tree;

use dfs_linalg::{ColumnView, FeatureRow, Matrix};

pub use dp::BinView;
pub use tree::{BinSet, MAX_BINS};

/// The model families of the study.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModelKind {
    /// Logistic regression (paper: "LR").
    LogisticRegression,
    /// Gaussian naive Bayes (paper: "NB").
    GaussianNb,
    /// CART decision tree (paper: "DT").
    DecisionTree,
    /// Linear support-vector machine (Table 7 transfer target).
    LinearSvm,
}

impl ModelKind {
    /// The three primary models of the benchmark (LR, NB, DT).
    pub const PRIMARY: [ModelKind; 3] =
        [ModelKind::LogisticRegression, ModelKind::GaussianNb, ModelKind::DecisionTree];

    /// Short display name as used in the paper.
    pub fn short_name(&self) -> &'static str {
        match self {
            ModelKind::LogisticRegression => "LR",
            ModelKind::GaussianNb => "NB",
            ModelKind::DecisionTree => "DT",
            ModelKind::LinearSvm => "SVM",
        }
    }
}

/// An untrained model: kind + hyperparameters.
#[derive(Debug, Clone, PartialEq)]
pub enum ModelSpec {
    /// LR with inverse regularization strength `c` (scikit-learn semantics).
    Lr {
        /// Inverse regularization strength; larger = less regularized.
        c: f64,
    },
    /// NB with variance smoothing added to per-feature variances.
    Nb {
        /// Portion of the largest feature variance added to all variances.
        var_smoothing: f64,
    },
    /// DT with a maximum depth.
    Dt {
        /// Maximum tree depth (paper grid: 1..=7).
        max_depth: usize,
    },
    /// Linear SVM with inverse regularization strength `c`.
    Svm {
        /// Inverse regularization strength.
        c: f64,
    },
}

impl ModelSpec {
    /// The default hyperparameters used by the "Default Parameters" arm of
    /// Table 3 (scikit-learn defaults).
    pub fn default_for(kind: ModelKind) -> ModelSpec {
        match kind {
            ModelKind::LogisticRegression => ModelSpec::Lr { c: 1.0 },
            ModelKind::GaussianNb => ModelSpec::Nb { var_smoothing: 1e-9 },
            ModelKind::DecisionTree => ModelSpec::Dt { max_depth: 5 },
            ModelKind::LinearSvm => ModelSpec::Svm { c: 1.0 },
        }
    }

    /// The model family of this spec.
    pub fn kind(&self) -> ModelKind {
        match self {
            ModelSpec::Lr { .. } => ModelKind::LogisticRegression,
            ModelSpec::Nb { .. } => ModelKind::GaussianNb,
            ModelSpec::Dt { .. } => ModelKind::DecisionTree,
            ModelSpec::Svm { .. } => ModelKind::LinearSvm,
        }
    }

    /// Trains the model on `(x, y)`.
    ///
    /// # Panics
    /// Panics when `x.nrows() != y.len()` or the training set is empty.
    pub fn fit(&self, x: &Matrix, y: &[bool]) -> TrainedModel {
        assert_eq!(x.nrows(), y.len(), "fit: row/label mismatch");
        assert!(!y.is_empty(), "fit: empty training set");
        match self {
            ModelSpec::Lr { c } => {
                TrainedModel::Lr(logistic::LogisticRegression::fit(x, y, *c))
            }
            ModelSpec::Nb { var_smoothing } => {
                TrainedModel::Nb(naive_bayes::GaussianNb::fit(x, y, *var_smoothing))
            }
            ModelSpec::Dt { max_depth } => {
                TrainedModel::Dt(tree::DecisionTree::fit(x, y, *max_depth))
            }
            ModelSpec::Svm { c } => TrainedModel::Svm(svm::LinearSvm::fit(x, y, *c)),
        }
    }

    /// [`ModelSpec::fit`] with decision-tree fits routed through a
    /// caller-owned [`tree::TreeWorkspace`] (repeated fits reuse the
    /// binned kernel's scratch). Other model families ignore the
    /// workspace.
    pub fn fit_ws(&self, x: &Matrix, y: &[bool], ws: &mut tree::TreeWorkspace) -> TrainedModel {
        match self {
            ModelSpec::Dt { max_depth } => {
                assert_eq!(x.nrows(), y.len(), "fit: row/label mismatch");
                assert!(!y.is_empty(), "fit: empty training set");
                TrainedModel::Dt(tree::DecisionTree::fit_in(x, y, *max_depth, ws))
            }
            other => other.fit(x, y),
        }
    }

    /// Trains the ε-differentially-private variant of the model.
    ///
    /// See [`dp`] for the mechanisms (output-perturbed ERM for LR, Laplace
    /// sufficient statistics for NB, noisy-count random tree for DT; SVM
    /// uses the same output perturbation as LR).
    pub fn fit_dp(&self, x: &Matrix, y: &[bool], epsilon: f64, seed: u64) -> TrainedModel {
        self.fit_dp_with(x, y, epsilon, seed, None)
    }

    /// [`ModelSpec::fit_dp`] with an optional bound bin-code view for the
    /// decision tree: when present, the random DP tree partitions from the
    /// pre-derived codes ([`dp::dp_decision_tree_binned`]) instead of raw
    /// feature compares — bit-identical output, so the choice is free to
    /// follow the scenario's split kernel without entering any fingerprint.
    /// Other model families ignore the view.
    pub fn fit_dp_with(
        &self,
        x: &Matrix,
        y: &[bool],
        epsilon: f64,
        seed: u64,
        bins: Option<dp::BinView<'_>>,
    ) -> TrainedModel {
        assert!(epsilon > 0.0, "fit_dp: epsilon must be positive");
        match self {
            ModelSpec::Lr { c } => TrainedModel::Lr(dp::dp_logistic(x, y, *c, epsilon, seed)),
            ModelSpec::Nb { var_smoothing } => {
                TrainedModel::Nb(dp::dp_naive_bayes(x, y, *var_smoothing, epsilon, seed))
            }
            ModelSpec::Dt { max_depth } => TrainedModel::Dt(match bins {
                Some(view) => {
                    dp::dp_decision_tree_binned(x, y, *max_depth, epsilon, seed, view)
                }
                None => dp::dp_decision_tree(x, y, *max_depth, epsilon, seed),
            }),
            ModelSpec::Svm { c } => TrainedModel::Svm(dp::dp_svm(x, y, *c, epsilon, seed)),
        }
    }
}

/// A trained classifier.
#[derive(Debug, Clone)]
pub enum TrainedModel {
    /// Trained logistic regression.
    Lr(logistic::LogisticRegression),
    /// Trained Gaussian naive Bayes.
    Nb(naive_bayes::GaussianNb),
    /// Trained decision tree.
    Dt(tree::DecisionTree),
    /// Trained linear SVM.
    Svm(svm::LinearSvm),
}

impl TrainedModel {
    /// Predicts a single instance.
    pub fn predict_one(&self, x: &[f64]) -> bool {
        self.predict_row(x)
    }

    /// [`Self::predict_one`] for any [`FeatureRow`]. Each family gives a
    /// mapped source row the bits of its gathered copy: trees compare the
    /// same doubles, LR/SVM keep `dot`'s four-lane order over subset
    /// positions, and NB folds its terms in feature order.
    pub fn predict_row(&self, x: impl FeatureRow) -> bool {
        match self {
            TrainedModel::Lr(m) => m.predict_row(x),
            TrainedModel::Nb(m) => m.predict_row(x),
            TrainedModel::Dt(m) => m.predict_row(x),
            TrainedModel::Svm(m) => m.predict_row(x),
        }
    }

    /// Predicts every row of `x`.
    pub fn predict(&self, x: &Matrix) -> Vec<bool> {
        x.rows_iter().map(|r| self.predict_row(r)).collect()
    }

    /// Predicts every row of a source split read through a subset's column
    /// map — bit-identical to gathering the view and calling
    /// [`Self::predict`], without the copy.
    pub fn predict_view(&self, x: &ColumnView<'_>) -> Vec<bool> {
        x.rows_iter().map(|r| self.predict_row(r)).collect()
    }

    /// Estimated `P(y = 1)` per row (calibration is model-dependent).
    pub fn predict_proba(&self, x: &Matrix) -> Vec<f64> {
        match self {
            TrainedModel::Lr(m) => x.rows_iter().map(|r| m.proba_one(r)).collect(),
            TrainedModel::Nb(m) => x.rows_iter().map(|r| m.proba_one(r)).collect(),
            TrainedModel::Dt(m) => x.rows_iter().map(|r| m.proba_one(r)).collect(),
            TrainedModel::Svm(m) => x.rows_iter().map(|r| m.proba_one(r)).collect(),
        }
    }

    /// Native feature-importance scores when the model has them.
    ///
    /// LR and SVM expose |weight|; DT exposes accumulated impurity decrease;
    /// NB has no native notion (the paper falls back to permutation
    /// importance for RFE in that case).
    pub fn feature_importance(&self) -> Option<Vec<f64>> {
        match self {
            TrainedModel::Lr(m) => Some(m.weights().iter().map(|w| w.abs()).collect()),
            TrainedModel::Svm(m) => Some(m.weights().iter().map(|w| w.abs()).collect()),
            TrainedModel::Dt(m) => Some(m.importances().to_vec()),
            TrainedModel::Nb(_) => None,
        }
    }

    /// Number of features the model was trained on.
    pub fn n_features(&self) -> usize {
        match self {
            TrainedModel::Lr(m) => m.weights().len(),
            TrainedModel::Svm(m) => m.weights().len(),
            TrainedModel::Dt(m) => m.importances().len(),
            TrainedModel::Nb(m) => m.n_features(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn separable() -> (Matrix, Vec<bool>) {
        let rows: Vec<Vec<f64>> = (0..40)
            .map(|i| {
                let v = if i < 20 { 0.1 + 0.01 * i as f64 } else { 0.7 + 0.01 * (i - 20) as f64 };
                vec![v, 1.0 - v]
            })
            .collect();
        let y = (0..40).map(|i| i >= 20).collect();
        (Matrix::from_rows(&rows), y)
    }

    #[test]
    fn every_model_kind_predicts_every_row_of_a_zero_width_matrix() {
        let x = Matrix::zeros(12, 0);
        let y: Vec<bool> = (0..12).map(|i| i % 3 != 0).collect();
        for kind in [
            ModelKind::LogisticRegression,
            ModelKind::GaussianNb,
            ModelKind::DecisionTree,
            ModelKind::LinearSvm,
        ] {
            let m = ModelSpec::default_for(kind).fit(&x, &y);
            assert_eq!(m.predict(&x).len(), 12, "{kind:?}");
            assert_eq!(m.predict_proba(&x).len(), 12, "{kind:?}");
        }
    }

    #[test]
    fn every_model_kind_learns_a_separable_problem() {
        let (x, y) = separable();
        for kind in [
            ModelKind::LogisticRegression,
            ModelKind::GaussianNb,
            ModelKind::DecisionTree,
            ModelKind::LinearSvm,
        ] {
            let m = ModelSpec::default_for(kind).fit(&x, &y);
            let preds = m.predict(&x);
            let correct = preds.iter().zip(&y).filter(|(p, a)| p == a).count();
            assert!(correct >= 38, "{kind:?} got {correct}/40");
        }
    }

    #[test]
    fn probabilities_are_probabilities() {
        let (x, y) = separable();
        for kind in ModelKind::PRIMARY {
            let m = ModelSpec::default_for(kind).fit(&x, &y);
            for p in m.predict_proba(&x) {
                assert!((0.0..=1.0).contains(&p), "{kind:?} produced {p}");
            }
        }
    }

    #[test]
    fn importances_present_except_nb() {
        let (x, y) = separable();
        assert!(ModelSpec::Lr { c: 1.0 }.fit(&x, &y).feature_importance().is_some());
        assert!(ModelSpec::Dt { max_depth: 3 }.fit(&x, &y).feature_importance().is_some());
        assert!(ModelSpec::Svm { c: 1.0 }.fit(&x, &y).feature_importance().is_some());
        assert!(ModelSpec::Nb { var_smoothing: 1e-9 }.fit(&x, &y).feature_importance().is_none());
    }

    #[test]
    fn spec_kind_roundtrip() {
        for kind in [
            ModelKind::LogisticRegression,
            ModelKind::GaussianNb,
            ModelKind::DecisionTree,
            ModelKind::LinearSvm,
        ] {
            assert_eq!(ModelSpec::default_for(kind).kind(), kind);
        }
        assert_eq!(ModelKind::LogisticRegression.short_name(), "LR");
    }

    #[test]
    fn column_map_prediction_matches_gathered_rows_bit_for_bit() {
        // Subset widths 1..=9 cover every tail length of `dot`'s four
        // lanes; the column maps are unsorted and skip source columns.
        let value = |i: usize, j: usize| ((i * 12 + j) as f64 * 0.37).sin() * (1.0 + j as f64);
        let rows: Vec<Vec<f64>> = (0..60).map(|i| (0..12).map(|j| value(i, j)).collect()).collect();
        let src = Matrix::from_rows(&rows);
        let y: Vec<bool> = (0..60).map(|i| src[(i, 3)] + src[(i, 8)] > 0.0).collect();
        for width in 1..=9 {
            let cols: Vec<usize> = (0..width).map(|k| (k * 5 + 3) % 12).collect();
            let view = ColumnView::new(&src, &cols);
            let gathered = view.gather();
            for kind in [
                ModelKind::LogisticRegression,
                ModelKind::GaussianNb,
                ModelKind::DecisionTree,
                ModelKind::LinearSvm,
            ] {
                let model = ModelSpec::default_for(kind).fit(&gathered, &y);
                for (i, row) in view.rows_iter().enumerate() {
                    let copy = gathered.row(i);
                    let (a, b) = match &model {
                        TrainedModel::Lr(m) => (m.proba_row(row), m.proba_one(copy)),
                        TrainedModel::Nb(m) => (m.proba_row(row), m.proba_one(copy)),
                        TrainedModel::Dt(m) => (m.proba_row(row), m.proba_one(copy)),
                        TrainedModel::Svm(m) => (m.decision_row(row), m.decision_one(copy)),
                    };
                    assert_eq!(a.to_bits(), b.to_bits(), "{kind:?} width {width} row {i}");
                }
                let by_rows: Vec<bool> =
                    gathered.rows_iter().map(|r| model.predict_one(r)).collect();
                assert_eq!(model.predict_view(&view), by_rows, "{kind:?} width {width}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "empty training set")]
    fn fit_rejects_empty() {
        let x = Matrix::zeros(0, 2);
        let _ = ModelSpec::Lr { c: 1.0 }.fit(&x, &[]);
    }
}
