//! Permutation feature importance (Breiman, 2001).
//!
//! The paper's RFE(Model) uses the model's native feature-importance scores
//! when available; when the model "does not provide feature importance
//! scores, we estimate these scores using the permutation importance" —
//! NB is the case in question. Importance of feature `j` is the drop in F1
//! when column `j` is shuffled.
//!
//! NB is the only model without native scores, so the permutation loop is
//! specialised to it. A Gaussian-NB log-likelihood is a left fold of
//! per-feature terms starting from the log prior, and shuffling column `j`
//! only swaps row `i`'s term `j` for row `perm[i]`'s, which is already known.
//! The kernel therefore tabulates every term once, keeps each row's fold of
//! terms `0..j` as a running prefix, and per shuffle folds the permuted term
//! plus the row's own terms `j+1..d` in the original order. Every addition
//! is the one a full re-prediction performs, so the importances are
//! bit-identical to re-predicting the shuffled matrix (DESIGN.md § 4l).

use crate::naive_bayes::{posterior_one, GaussianNb};
use crate::TrainedModel;
use dfs_linalg::rng::{shuffled_indices, Rng};
use dfs_linalg::Matrix;
use dfs_metrics::f1_score;

/// Permutation importances of every feature for a trained Gaussian NB.
///
/// `repeats` shuffles are averaged per feature; one
/// [`shuffled_indices`] draw per feature per repeat, features in order.
/// Scores can be slightly negative for irrelevant features (shuffling
/// noise); callers treating them as a ranking may clamp at zero.
pub fn permutation_importance(
    model: &GaussianNb,
    x: &Matrix,
    y: &[bool],
    repeats: usize,
    seed: u64,
) -> Vec<f64> {
    let (n, d) = x.shape();
    assert_eq!(n, y.len(), "permutation_importance: row/label mismatch");
    assert_eq!(d, model.n_features(), "permutation_importance: width mismatch");
    assert!(repeats >= 1, "permutation_importance: need at least one repeat");
    let mut preds: Vec<bool> = x.rows_iter().map(|r| model.predict_one(r)).collect();
    let baseline = f1_score(&preds, y);

    // Column-major term tables, `[neg, pos]`: `terms[c][j * n + i]` is row
    // i's feature-j term under class c.
    let terms = [false, true].map(|positive| {
        let mut t = Vec::with_capacity(n * d);
        for j in 0..d {
            t.extend(x.col_iter(j).map(|v| model.log_term(positive, j, v)));
        }
        t
    });
    let col = |c: usize, j: usize| &terms[c][j * n..(j + 1) * n];
    let mut prefix = [model.neg().log_prior, model.pos().log_prior].map(|prior| vec![prior; n]);
    let mut ll = [vec![0.0; n], vec![0.0; n]];
    let mut rng = Rng::seed_from_u64(seed);
    let mut importances = vec![0.0; d];

    for (j, importance) in importances.iter_mut().enumerate() {
        let mut total_drop = 0.0;
        for _ in 0..repeats {
            let perm = shuffled_indices(n, &mut rng);
            for (c, ll_c) in ll.iter_mut().enumerate() {
                let shuffled = col(c, j);
                for ((l, &pre), &p) in ll_c.iter_mut().zip(&prefix[c]).zip(&perm) {
                    *l = pre + shuffled[p];
                }
                for k in j + 1..d {
                    for (l, &t) in ll_c.iter_mut().zip(col(c, k)) {
                        *l += t;
                    }
                }
            }
            for ((p, &lp), &ln) in preds.iter_mut().zip(&ll[1]).zip(&ll[0]) {
                *p = posterior_one(lp, ln) > 0.5;
            }
            total_drop += baseline - f1_score(&preds, y);
        }
        *importance = total_drop / repeats as f64;
        for (c, prefix_c) in prefix.iter_mut().enumerate() {
            for (pre, &t) in prefix_c.iter_mut().zip(col(c, j)) {
                *pre += t;
            }
        }
    }
    importances
}

/// Importances for any model: native scores when present, permutation
/// importance otherwise (the paper's RFE fallback rule).
pub fn importance_or_permutation(
    model: &TrainedModel,
    x: &Matrix,
    y: &[bool],
    seed: u64,
) -> Vec<f64> {
    match (model.feature_importance(), model) {
        (Some(scores), _) => scores,
        (None, TrainedModel::Nb(nb)) => permutation_importance(nb, x, y, 3, seed),
        (None, _) => unreachable!("only NB lacks native feature importances"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ModelSpec;
    use dfs_linalg::rng::normal;

    /// The model-agnostic loop: re-predict the whole matrix with column `j`
    /// shuffled. The reference the NB kernel must match bit for bit.
    fn permutation_importance_oracle(
        model: &TrainedModel,
        x: &Matrix,
        y: &[bool],
        repeats: usize,
        seed: u64,
    ) -> Vec<f64> {
        let (n, d) = x.shape();
        let baseline = f1_score(&model.predict(x), y);
        let mut rng = Rng::seed_from_u64(seed);
        let mut importances = vec![0.0; d];
        let mut work = x.clone();
        let mut original = Vec::with_capacity(n);
        for j in 0..d {
            x.col_into(j, &mut original);
            let mut total_drop = 0.0;
            for _ in 0..repeats {
                let perm = shuffled_indices(n, &mut rng);
                for (i, &p) in perm.iter().enumerate() {
                    work[(i, j)] = original[p];
                }
                let shuffled_f1 = f1_score(&model.predict(&work), y);
                total_drop += baseline - shuffled_f1;
            }
            importances[j] = total_drop / repeats as f64;
            for (i, &v) in original.iter().enumerate() {
                work[(i, j)] = v;
            }
        }
        importances
    }

    fn one_signal_feature() -> (Matrix, Vec<bool>) {
        // Feature 0 decides the label, feature 1 is noise.
        let rows: Vec<Vec<f64>> = (0..120)
            .map(|i| vec![if i % 2 == 0 { 0.2 } else { 0.8 }, (i as f64 * 0.31) % 1.0])
            .collect();
        let y = (0..120).map(|i| i % 2 == 1).collect();
        (Matrix::from_rows(&rows), y)
    }

    #[test]
    fn signal_feature_dominates() {
        let (x, y) = one_signal_feature();
        let model = GaussianNb::fit(&x, &y, 1e-9);
        let imp = permutation_importance(&model, &x, &y, 3, 0);
        assert!(imp[0] > 0.3, "importances {imp:?}");
        assert!(imp[1].abs() < 0.1, "importances {imp:?}");
    }

    #[test]
    fn fallback_kicks_in_for_nb_only() {
        let (x, y) = one_signal_feature();
        let nb = ModelSpec::Nb { var_smoothing: 1e-9 }.fit(&x, &y);
        let lr = ModelSpec::Lr { c: 1.0 }.fit(&x, &y);
        // NB has no native importance -> permutation path.
        assert!(nb.feature_importance().is_none());
        let imp_nb = importance_or_permutation(&nb, &x, &y, 1);
        assert_eq!(imp_nb.len(), 2);
        // LR path returns |weights| untouched.
        let imp_lr = importance_or_permutation(&lr, &x, &y, 1);
        assert_eq!(imp_lr, lr.feature_importance().unwrap());
    }

    #[test]
    fn does_not_mutate_input_matrix() {
        let (x, y) = one_signal_feature();
        let snapshot = x.clone();
        let model = GaussianNb::fit(&x, &y, 1e-9);
        let _ = permutation_importance(&model, &x, &y, 2, 5);
        assert_eq!(x, snapshot);
    }

    #[test]
    fn deterministic_per_seed() {
        let (x, y) = one_signal_feature();
        let model = GaussianNb::fit(&x, &y, 1e-9);
        let a = permutation_importance(&model, &x, &y, 2, 9);
        let b = permutation_importance(&model, &x, &y, 2, 9);
        assert_eq!(a, b);
    }

    /// One random column of the given kind: 0 continuous, 1 constant (zero
    /// variance), 2 one-hot.
    fn column_value(kind: usize, rng: &mut Rng) -> f64 {
        match kind {
            0 => normal(0.5, 0.3, rng),
            1 => 0.25,
            _ => rng.below(2) as f64,
        }
    }

    /// The kernel against the re-predicting loop, compared as `to_bits`,
    /// over random shapes: zero-variance and one-hot columns, single-class
    /// labels, n ∈ {0, 1, 2, …}, d ∈ {0, 1, …}, 1 and 3 repeats, plain and
    /// DP (`from_stats`) models.
    #[test]
    fn nb_kernel_matches_oracle_bit_for_bit() {
        let mut rng = Rng::seed_from_u64(0x1EAF);
        let mut cases = 0;
        for n_eval in [0usize, 1, 2, 5, 37] {
            for d in [0usize, 1, 2, 5] {
                for labels in 0..3 {
                    let kinds: Vec<usize> = (0..d).map(|_| rng.below(3)).collect();
                    let draw = |rows: usize, rng: &mut Rng| {
                        let mut x = Matrix::zeros(rows, d);
                        let mut y = Vec::with_capacity(rows);
                        for i in 0..rows {
                            for (j, &kind) in kinds.iter().enumerate() {
                                x[(i, j)] = column_value(kind, rng);
                            }
                            y.push(match labels {
                                0 => rng.below(2) == 1,
                                1 => true,
                                _ => false,
                            });
                        }
                        (x, y)
                    };
                    let (x_train, y_train) = draw(24, &mut rng);
                    let (x_eval, y_eval) = draw(n_eval, &mut rng);
                    let spec = ModelSpec::Nb { var_smoothing: 1e-9 };
                    let models =
                        [spec.fit(&x_train, &y_train), spec.fit_dp(&x_train, &y_train, 1.0, 3)];
                    for model in &models {
                        let TrainedModel::Nb(nb) = model else { unreachable!() };
                        for repeats in [1, 3] {
                            let seed = cases as u64;
                            let fast = permutation_importance(nb, &x_eval, &y_eval, repeats, seed);
                            let slow =
                                permutation_importance_oracle(model, &x_eval, &y_eval, repeats, seed);
                            let bits = |v: &[f64]| v.iter().map(|s| s.to_bits()).collect::<Vec<_>>();
                            assert_eq!(
                                bits(&fast),
                                bits(&slow),
                                "n={n_eval} d={d} labels={labels} repeats={repeats}"
                            );
                            cases += 1;
                        }
                    }
                }
            }
        }
        assert_eq!(cases, 5 * 4 * 3 * 2 * 2);
    }
}
