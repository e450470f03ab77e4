//! Gaussian naive Bayes.
//!
//! Per-class Gaussian likelihoods per feature with a `var_smoothing` additive
//! stabilizer (scikit-learn semantics: the smoothing added to every variance
//! is `var_smoothing * max_j Var(x_j)`, floored to an absolute minimum so
//! one-hot columns with zero variance stay well-defined).

use dfs_linalg::{FeatureRow, Matrix};

/// Per-class sufficient statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassStats {
    /// Log prior `log P(y = class)`.
    pub log_prior: f64,
    /// Per-feature means.
    pub means: Vec<f64>,
    /// Per-feature variances (already smoothed).
    pub vars: Vec<f64>,
}

/// A trained Gaussian naive Bayes model. The class statistics are fixed at
/// construction ([`GaussianNb::from_stats`]) and read-only afterwards, so
/// the normalizers derived from them never go stale.
#[derive(Debug, Clone, PartialEq)]
pub struct GaussianNb {
    neg: ClassStats,
    pos: ClassStats,
    /// Per-class `(2π·var).ln()` of every feature, `[neg, pos]`, derived
    /// from the stats once at construction instead of per scored row.
    log_norm: [Vec<f64>; 2],
}

/// Absolute variance floor protecting against degenerate columns.
const VAR_FLOOR: f64 = 1e-9;

impl GaussianNb {
    /// Fits the model. `var_smoothing` follows scikit-learn's meaning.
    pub fn fit(x: &Matrix, y: &[bool], var_smoothing: f64) -> Self {
        let (n, d) = x.shape();
        assert_eq!(n, y.len(), "GaussianNb: row/label mismatch");
        assert!(n > 0, "GaussianNb: empty training set");
        assert!(var_smoothing >= 0.0, "GaussianNb: negative smoothing");

        let mut stats = [new_acc(d), new_acc(d)];
        for (row, &label) in x.rows_iter().zip(y) {
            let acc = &mut stats[label as usize];
            acc.count += 1;
            for (j, &v) in row.iter().enumerate() {
                acc.sum[j] += v;
                acc.sum_sq[j] += v * v;
            }
        }

        // Global max variance for the smoothing term.
        let global = finalize(&merge(&stats[0], &stats[1]), 0.0);
        let max_var = global.vars.iter().cloned().fold(0.0f64, f64::max);
        let smoothing = (var_smoothing * max_var).max(VAR_FLOOR);

        Self::from_stats(
            finalize_class(&stats[0], n, smoothing),
            finalize_class(&stats[1], n, smoothing),
        )
    }

    /// Builds a model from externally supplied (e.g. DP-noised) statistics.
    pub fn from_stats(neg: ClassStats, pos: ClassStats) -> Self {
        assert_eq!(neg.means.len(), pos.means.len(), "GaussianNb: stats width mismatch");
        let log_norm = [log_norms(&neg), log_norms(&pos)];
        Self { neg, pos, log_norm }
    }

    /// Statistics for the negative class (`y = false`).
    pub fn neg(&self) -> &ClassStats {
        &self.neg
    }

    /// Statistics for the positive class (`y = true`).
    pub fn pos(&self) -> &ClassStats {
        &self.pos
    }

    /// Number of features.
    pub fn n_features(&self) -> usize {
        self.pos.means.len()
    }

    /// The class's stats and per-feature log-normalizers (`false` = neg).
    fn class(&self, positive: bool) -> (&ClassStats, &[f64]) {
        let stats = if positive { &self.pos } else { &self.neg };
        (stats, &self.log_norm[positive as usize])
    }

    /// Feature `j`'s term of a class's log-likelihood at value `v`. The
    /// log-likelihood is the left fold of these terms over `j = 0..d`,
    /// starting from the log prior.
    #[inline]
    pub(crate) fn log_term(&self, positive: bool, j: usize, v: f64) -> f64 {
        let (stats, log_norm) = self.class(positive);
        let var = stats.vars[j].max(VAR_FLOOR);
        let diff = v - stats.means[j];
        -0.5 * (log_norm[j] + diff * diff / var)
    }

    /// The left fold of the feature terms, in feature order, over the
    /// first `min(d, x.width())` features.
    fn log_likelihood(&self, positive: bool, x: impl FeatureRow) -> f64 {
        let log_prior = self.class(positive).0.log_prior;
        (0..self.n_features().min(x.width()))
            .fold(log_prior, |ll, j| ll + self.log_term(positive, j, x.at(j)))
    }

    /// `P(y = 1 | x)` via the normalized class posteriors.
    pub fn proba_one(&self, x: &[f64]) -> f64 {
        self.proba_row(x)
    }

    /// [`Self::proba_one`] for any [`FeatureRow`] (a slice, or a source
    /// row read through a column map — same values, same bits).
    pub fn proba_row(&self, x: impl FeatureRow) -> f64 {
        posterior_one(self.log_likelihood(true, x), self.log_likelihood(false, x))
    }

    /// Predicted label.
    pub fn predict_one(&self, x: &[f64]) -> bool {
        self.predict_row(x)
    }

    /// [`Self::predict_one`] for any [`FeatureRow`].
    pub fn predict_row(&self, x: impl FeatureRow) -> bool {
        self.proba_row(x) > 0.5
    }
}

/// `P(y = 1)` from the two class log-likelihoods (positive first).
#[inline]
pub(crate) fn posterior_one(lp: f64, ln: f64) -> f64 {
    let m = lp.max(ln);
    let ep = (lp - m).exp();
    let en = (ln - m).exp();
    ep / (ep + en)
}

/// `(2π·var).ln()` per feature, with the variance floored as in scoring.
fn log_norms(stats: &ClassStats) -> Vec<f64> {
    stats.vars.iter().map(|&var| (2.0 * std::f64::consts::PI * var.max(VAR_FLOOR)).ln()).collect()
}

struct Acc {
    count: usize,
    sum: Vec<f64>,
    sum_sq: Vec<f64>,
}

fn new_acc(d: usize) -> Acc {
    Acc { count: 0, sum: vec![0.0; d], sum_sq: vec![0.0; d] }
}

fn merge(a: &Acc, b: &Acc) -> Acc {
    Acc {
        count: a.count + b.count,
        sum: a.sum.iter().zip(&b.sum).map(|(x, y)| x + y).collect(),
        sum_sq: a.sum_sq.iter().zip(&b.sum_sq).map(|(x, y)| x + y).collect(),
    }
}

fn finalize(acc: &Acc, smoothing: f64) -> ClassStats {
    let c = acc.count.max(1) as f64;
    let means: Vec<f64> = acc.sum.iter().map(|s| s / c).collect();
    let vars: Vec<f64> = acc
        .sum_sq
        .iter()
        .zip(&means)
        .map(|(ss, m)| (ss / c - m * m).max(0.0) + smoothing)
        .collect();
    ClassStats { log_prior: 0.0, means, vars }
}

fn finalize_class(acc: &Acc, total: usize, smoothing: f64) -> ClassStats {
    let mut stats = finalize(acc, smoothing);
    // Laplace-style prior smoothing keeps empty classes finite.
    stats.log_prior = ((acc.count as f64 + 1.0) / (total as f64 + 2.0)).ln();
    stats
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gaussian_blobs() -> (Matrix, Vec<bool>) {
        // Two well-separated 2-D blobs laid out deterministically.
        let mut rows = Vec::new();
        let mut y = Vec::new();
        for i in 0..60 {
            let t = (i as f64 * 0.104729) % 1.0; // pseudo-random in [0,1)
            let u = (i as f64 * 0.224737) % 1.0;
            if i % 2 == 0 {
                rows.push(vec![0.2 + 0.1 * t, 0.2 + 0.1 * u]);
                y.push(false);
            } else {
                rows.push(vec![0.8 + 0.1 * t, 0.8 + 0.1 * u]);
                y.push(true);
            }
        }
        (Matrix::from_rows(&rows), y)
    }

    #[test]
    fn separates_blobs() {
        let (x, y) = gaussian_blobs();
        let m = GaussianNb::fit(&x, &y, 1e-9);
        for (row, &label) in x.rows_iter().zip(&y) {
            assert_eq!(m.predict_one(row), label);
        }
    }

    #[test]
    fn probabilities_sum_to_one_implicitly() {
        let (x, y) = gaussian_blobs();
        let m = GaussianNb::fit(&x, &y, 1e-9);
        for row in x.rows_iter() {
            let p = m.proba_one(row);
            assert!((0.0..=1.0).contains(&p));
        }
        // Ambiguous midpoint gets an intermediate probability.
        let p_mid = m.proba_one(&[0.55, 0.55]);
        assert!(p_mid > 0.01 && p_mid < 0.99, "p_mid = {p_mid}");
    }

    #[test]
    fn zero_variance_columns_are_survivable() {
        // One-hot style constant-per-class column.
        let x = Matrix::from_rows(&[
            vec![1.0, 0.3],
            vec![1.0, 0.2],
            vec![0.0, 0.8],
            vec![0.0, 0.9],
        ]);
        let y = vec![false, false, true, true];
        let m = GaussianNb::fit(&x, &y, 1e-9);
        assert!(!m.predict_one(&[1.0, 0.25]));
        assert!(m.predict_one(&[0.0, 0.85]));
    }

    #[test]
    fn heavier_smoothing_softens_probabilities() {
        let (x, y) = gaussian_blobs();
        let sharp = GaussianNb::fit(&x, &y, 1e-9);
        let soft = GaussianNb::fit(&x, &y, 10.0);
        let p_sharp = sharp.proba_one(&[0.85, 0.85]);
        let p_soft = soft.proba_one(&[0.85, 0.85]);
        assert!(p_sharp > p_soft, "sharp {p_sharp} <= soft {p_soft}");
    }

    #[test]
    fn priors_reflect_class_balance() {
        let (x, mut y) = gaussian_blobs();
        // Flip most labels to negative; prior should tilt the ambiguous zone.
        for l in y.iter_mut().take(50) {
            *l = false;
        }
        let m = GaussianNb::fit(&x, &y, 1e-9);
        assert!(m.neg.log_prior > m.pos.log_prior);
    }

    /// `proba_one` with the normalizers hoisted into `from_stats` equals the
    /// per-row `(2π·var).ln()` expression bit for bit, floored variances
    /// included.
    #[test]
    fn hoisted_log_norm_matches_inline_expression() {
        let inline = |stats: &ClassStats, x: &[f64]| {
            let mut ll = stats.log_prior;
            for ((&v, &m), &var) in x.iter().zip(&stats.means).zip(&stats.vars) {
                let var = var.max(VAR_FLOOR);
                let diff = v - m;
                ll += -0.5 * ((2.0 * std::f64::consts::PI * var).ln() + diff * diff / var);
            }
            ll
        };
        let (x, y) = gaussian_blobs();
        let tiny = ClassStats { log_prior: -0.1, means: vec![0.5, 0.2], vars: vec![1e-12, 0.0] };
        let wide = ClassStats { log_prior: -2.3, means: vec![0.1, 0.9], vars: vec![3.0, 1e-9] };
        for m in [GaussianNb::fit(&x, &y, 1e-9), GaussianNb::from_stats(tiny, wide)] {
            for row in x.rows_iter() {
                let want = posterior_one(inline(&m.pos, row), inline(&m.neg, row));
                assert_eq!(m.proba_one(row).to_bits(), want.to_bits());
            }
        }
    }

    #[test]
    fn single_class_training_does_not_panic() {
        let x = Matrix::from_rows(&[vec![0.1], vec![0.2], vec![0.3]]);
        let y = vec![true, true, true];
        let m = GaussianNb::fit(&x, &y, 1e-9);
        assert!(m.predict_one(&[0.15]));
    }
}
