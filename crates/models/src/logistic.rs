//! L2-regularized logistic regression trained by full-batch gradient descent.
//!
//! Matches scikit-learn's parameterization: the objective is
//! `Σ_i log(1 + exp(−ỹ_i (w·x_i + b))) + ||w||² / (2C)` with ỹ ∈ {−1, +1}.
//! Training uses gradient descent with a bold-driver step-size adaptation,
//! which converges reliably on the workspace's min–max-scaled features.

use dfs_linalg::{axpy, dot, log1p_exp, sigmoid, FeatureRow, Matrix};

/// A trained logistic-regression model.
#[derive(Debug, Clone, PartialEq)]
pub struct LogisticRegression {
    weights: Vec<f64>,
    bias: f64,
}

/// Internal training configuration (fixed; exposed knobs are `c` only, like
/// the paper's HPO grid).
const MAX_EPOCHS: usize = 120;
const INIT_LR: f64 = 2.0;
const TOL: f64 = 1e-7;

impl LogisticRegression {
    /// Fits the model with inverse regularization strength `c`, starting
    /// from the zero solution.
    pub fn fit(x: &Matrix, y: &[bool], c: f64) -> Self {
        assert!(c > 0.0, "LogisticRegression: C must be positive");
        let (n, d) = x.shape();
        assert_eq!(n, y.len(), "LogisticRegression: row/label mismatch");
        let lambda = 1.0 / (c * n.max(1) as f64); // per-instance penalty
        let mut w = vec![0.0; d];
        let mut b = 0.0;
        let mut lr = INIT_LR;
        let mut prev_loss = f64::INFINITY;

        let targets: Vec<f64> = y.iter().map(|&t| if t { 1.0 } else { -1.0 }).collect();

        for _ in 0..MAX_EPOCHS {
            // Gradient of mean loss.
            let mut gw = vec![0.0; d];
            let mut gb = 0.0;
            let mut loss = 0.0;
            for (row, &t) in x.rows_iter().zip(&targets) {
                let z = dot(row, &w) + b;
                loss += log1p_exp(-t * z);
                // d/dz log1p_exp(-t z) = -t * sigmoid(-t z)
                let g = -t * sigmoid(-t * z);
                // Elementwise `gw[j] += g * row[j]`, so the blocked axpy
                // changes no bits relative to the scalar loop.
                axpy(g, row, &mut gw);
                gb += g;
            }
            let nf = n as f64;
            loss = loss / nf + 0.5 * lambda * dot(&w, &w) * nf / nf;
            for (gwj, &wj) in gw.iter_mut().zip(&w) {
                *gwj = *gwj / nf + lambda * wj;
            }
            gb /= nf;

            // Bold driver: shrink on overshoot, gently grow otherwise.
            if loss > prev_loss + TOL {
                lr *= 0.5;
                if lr < 1e-4 {
                    break;
                }
            } else {
                lr *= 1.05;
            }
            if (prev_loss - loss).abs() < TOL {
                break;
            }
            prev_loss = loss;

            for (wj, gwj) in w.iter_mut().zip(&gw) {
                *wj -= lr * gwj;
            }
            b -= lr * gb;
        }

        Self { weights: w, bias: b }
    }

    /// Builds a model directly from weights (used by the DP mechanism).
    pub fn from_weights(weights: Vec<f64>, bias: f64) -> Self {
        Self { weights, bias }
    }

    /// Learned weight vector (one per feature).
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Learned intercept.
    pub fn bias(&self) -> f64 {
        self.bias
    }

    /// `P(y = 1 | x)`.
    pub fn proba_one(&self, x: &[f64]) -> f64 {
        self.proba_row(x)
    }

    /// [`Self::proba_one`] for any [`FeatureRow`] (a slice, or a source
    /// row read through a column map — same values, same bits).
    pub fn proba_row(&self, x: impl FeatureRow) -> f64 {
        sigmoid(x.dot(&self.weights) + self.bias)
    }

    /// Predicted label at the 0.5 threshold.
    pub fn predict_one(&self, x: &[f64]) -> bool {
        self.predict_row(x)
    }

    /// [`Self::predict_one`] for any [`FeatureRow`].
    pub fn predict_row(&self, x: impl FeatureRow) -> bool {
        self.proba_row(x) > 0.5
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn linear_problem(n: usize) -> (Matrix, Vec<bool>) {
        // y = [x0 > x1], clean.
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|i| {
                let a = (i as f64 * 0.6180339887) % 1.0;
                let b = (i as f64 * 0.3141592653) % 1.0;
                vec![a, b]
            })
            .collect();
        let y = rows.iter().map(|r| r[0] > r[1]).collect();
        (Matrix::from_rows(&rows), y)
    }

    #[test]
    fn learns_linear_boundary() {
        let (x, y) = linear_problem(300);
        let m = LogisticRegression::fit(&x, &y, 10.0);
        let preds: Vec<bool> = x.rows_iter().map(|r| m.predict_one(r)).collect();
        let acc = preds.iter().zip(&y).filter(|(p, a)| p == a).count() as f64 / y.len() as f64;
        assert!(acc > 0.95, "accuracy {acc}");
        // Weight signs must reflect x0 - x1 > 0.
        assert!(m.weights()[0] > 0.0 && m.weights()[1] < 0.0);
    }

    #[test]
    fn regularization_shrinks_weights() {
        let (x, y) = linear_problem(200);
        let strong = LogisticRegression::fit(&x, &y, 0.01);
        let weak = LogisticRegression::fit(&x, &y, 100.0);
        let n_strong = dfs_linalg::norm2(strong.weights());
        let n_weak = dfs_linalg::norm2(weak.weights());
        assert!(n_strong < n_weak, "strong {n_strong} >= weak {n_weak}");
    }

    #[test]
    fn probabilities_monotone_in_score() {
        let m = LogisticRegression::from_weights(vec![2.0, -1.0], 0.1);
        let lo = m.proba_one(&[0.0, 1.0]);
        let hi = m.proba_one(&[1.0, 0.0]);
        assert!(lo < hi);
        assert!((0.0..=1.0).contains(&lo) && (0.0..=1.0).contains(&hi));
    }

    #[test]
    fn constant_labels_predict_constant() {
        let (x, _) = linear_problem(50);
        let y = vec![true; 50];
        let m = LogisticRegression::fit(&x, &y, 1.0);
        assert!(x.rows_iter().all(|r| m.predict_one(r)));
    }

    #[test]
    fn fit_is_deterministic() {
        let (x, y) = linear_problem(100);
        let a = LogisticRegression::fit(&x, &y, 1.0);
        let b = LogisticRegression::fit(&x, &y, 1.0);
        assert_eq!(a, b);
    }
}
