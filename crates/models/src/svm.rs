//! Linear support-vector machine trained with Pegasos-style subgradient
//! descent on the hinge loss.
//!
//! Used by the transferability study (paper Table 7): feature sets found
//! with LR are re-validated under an SVM. Objective (scikit-learn
//! `LinearSVC` semantics): `Σ_i max(0, 1 − ỹ_i (w·x_i + b)) + ||w||² / (2C)`.

use dfs_linalg::{axpy, dot, sigmoid, FeatureRow, Matrix};

/// A trained linear SVM.
#[derive(Debug, Clone, PartialEq)]
pub struct LinearSvm {
    weights: Vec<f64>,
    bias: f64,
}

const EPOCHS: usize = 60;

impl LinearSvm {
    /// Fits with inverse regularization strength `c`, starting from the
    /// zero solution.
    pub fn fit(x: &Matrix, y: &[bool], c: f64) -> Self {
        assert!(c > 0.0, "LinearSvm: C must be positive");
        let (n, d) = x.shape();
        assert_eq!(n, y.len(), "LinearSvm: row/label mismatch");
        assert!(n > 0, "LinearSvm: empty training set");
        let lambda = 1.0 / (c * n as f64);
        let targets: Vec<f64> = y.iter().map(|&t| if t { 1.0 } else { -1.0 }).collect();

        let mut w = vec![0.0; d];
        let mut b = 0.0;
        let mut t = 1usize;
        // Deterministic cyclic pass order (Pegasos uses random sampling; the
        // cyclic variant converges equivalently for our scale and keeps the
        // model reproducible without a seed).
        for _ in 0..EPOCHS {
            for (row, &target) in x.rows_iter().zip(&targets) {
                let eta = 1.0 / (lambda * t as f64);
                let margin = target * (dot(row, &w) + b);
                // w <- (1 - eta*lambda) w [+ eta*target*x if margin < 1]
                let decay = 1.0 - eta * lambda;
                for wj in &mut w {
                    *wj *= decay;
                }
                if margin < 1.0 {
                    // Elementwise `w[j] += step * row[j]` — the blocked axpy
                    // changes no bits relative to the scalar loop.
                    axpy(eta * target, row, &mut w);
                    b += eta * target * 0.1; // damped bias update
                }
                t += 1;
            }
        }
        Self { weights: w, bias: b }
    }

    /// Builds a model directly from weights (used by the DP mechanism).
    pub fn from_weights(weights: Vec<f64>, bias: f64) -> Self {
        Self { weights, bias }
    }

    /// Learned weight vector.
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Learned intercept.
    pub fn bias(&self) -> f64 {
        self.bias
    }

    /// Signed decision value `w·x + b`.
    pub fn decision_one(&self, x: &[f64]) -> f64 {
        self.decision_row(x)
    }

    /// [`Self::decision_one`] for any [`FeatureRow`] (a slice, or a
    /// source row read through a column map — same values, same bits).
    pub fn decision_row(&self, x: impl FeatureRow) -> f64 {
        x.dot(&self.weights) + self.bias
    }

    /// Pseudo-probability via a logistic link on the margin (Platt-style
    /// with unit scale; adequate for thresholding and ranking).
    pub fn proba_one(&self, x: &[f64]) -> f64 {
        sigmoid(self.decision_one(x))
    }

    /// Predicted label.
    pub fn predict_one(&self, x: &[f64]) -> bool {
        self.predict_row(x)
    }

    /// [`Self::predict_one`] for any [`FeatureRow`].
    pub fn predict_row(&self, x: impl FeatureRow) -> bool {
        self.decision_row(x) > 0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn margin_problem() -> (Matrix, Vec<bool>) {
        let rows: Vec<Vec<f64>> = (0..100)
            .map(|i| {
                let t = (i as f64 * 0.618) % 1.0;
                if i % 2 == 0 {
                    vec![0.15 + 0.2 * t, 0.8 - 0.2 * t]
                } else {
                    vec![0.65 + 0.2 * t, 0.2 + 0.2 * t]
                }
            })
            .collect();
        let y = (0..100).map(|i| i % 2 == 1).collect();
        (Matrix::from_rows(&rows), y)
    }

    #[test]
    fn separates_margin_problem() {
        let (x, y) = margin_problem();
        let m = LinearSvm::fit(&x, &y, 10.0);
        let correct = x
            .rows_iter()
            .zip(&y)
            .filter(|(row, &label)| m.predict_one(row) == label)
            .count();
        assert!(correct >= 95, "correct = {correct}");
    }

    #[test]
    fn weights_point_in_the_discriminative_direction() {
        let (x, y) = margin_problem();
        let m = LinearSvm::fit(&x, &y, 10.0);
        // Positives have larger x0; weight 0 should be positive.
        assert!(m.weights()[0] > 0.0, "weights {:?}", m.weights());
    }

    #[test]
    fn stronger_regularization_shrinks_weights() {
        let (x, y) = margin_problem();
        let strong = LinearSvm::fit(&x, &y, 0.01);
        let weak = LinearSvm::fit(&x, &y, 100.0);
        assert!(dfs_linalg::norm2(strong.weights()) < dfs_linalg::norm2(weak.weights()));
    }

    #[test]
    fn proba_is_monotone_in_decision_value() {
        let m = LinearSvm::from_weights(vec![1.0, 0.0], 0.0);
        assert!(m.proba_one(&[0.9, 0.0]) > m.proba_one(&[0.1, 0.0]));
        assert_eq!(m.predict_one(&[0.5, 0.0]), m.decision_one(&[0.5, 0.0]) > 0.0);
    }

    #[test]
    fn deterministic_fit() {
        let (x, y) = margin_problem();
        assert_eq!(LinearSvm::fit(&x, &y, 1.0), LinearSvm::fit(&x, &y, 1.0));
    }
}
