//! ε-differentially-private model variants.
//!
//! The paper's Min Privacy constraint is enforced *by construction*: when the
//! user specifies a privacy budget ε, the scenario trains the DP alternative
//! of the chosen model (§ 3, "Min Privacy"):
//!
//! - **LR** — differentially-private empirical risk minimization
//!   (Chaudhuri, Monteleoni & Sarwate, 2011) via *output perturbation*: train
//!   the regularized model, then add a noise vector with density
//!   ∝ exp(−(nλε/2)·‖b‖) — norm Gamma(d, 2/(nλε)) and uniform direction.
//! - **SVM** — the same mechanism (covered by the same DP-ERM analysis).
//! - **NB** — Laplace noise on the per-class sufficient statistics
//!   (Vaidya et al., 2013). Features live in `[0, 1]`, so each per-feature
//!   sum has sensitivity 1; the budget is split across counts, means and
//!   variances and the per-feature queries, making the noise grow with the
//!   number of features — exactly the effect that drives the paper's finding
//!   that privacy constraints favour *small* feature sets.
//! - **DT** — a random decision tree with noisy leaf counts in the spirit of
//!   Fletcher & Islam (2017): split features/thresholds are chosen without
//!   looking at the data (consuming no budget) and the whole ε goes into
//!   Laplace-noised leaf class counts.

use crate::logistic::LogisticRegression;
use crate::naive_bayes::{ClassStats, GaussianNb};
use crate::svm::LinearSvm;
use crate::tree::{BinSet, DecisionTree, Node};
use dfs_linalg::rng::{laplace, standard_normal, Rng};
use dfs_linalg::{norm2, Matrix};

/// Minimum regularization used by DP-ERM so the sensitivity stays bounded.
/// Chaudhuri et al.'s experiments regularize at this order; anything much
/// smaller makes the output-perturbation scale `2/(nλε)` drown the model at
/// every practical ε.
const MIN_LAMBDA: f64 = 0.02;

/// Samples a noise vector with density ∝ exp(−‖b‖ / scale) in `d` dims:
/// norm ~ Gamma(d, scale) (sum of `d` exponentials), direction uniform.
fn erm_noise(d: usize, scale: f64, rng: &mut Rng) -> Vec<f64> {
    if d == 0 {
        return Vec::new();
    }
    let mut norm = 0.0;
    for _ in 0..d {
        let u: f64 = 1.0 - rng.f64(); // in (0, 1]
        norm -= u.ln();
    }
    norm *= scale;
    let mut dir: Vec<f64> = (0..d).map(|_| standard_normal(rng)).collect();
    let dn = norm2(&dir).max(dfs_linalg::EPS);
    for x in &mut dir {
        *x *= norm / dn;
    }
    dir
}

/// Class-balanced row subsample (all of the rarer class + an equal count of
/// the other, in data order). DP-ERM's strong regularization turns
/// imbalanced problems into degenerate majority predictors; balancing is
/// privacy-neutral preprocessing that keeps the mechanism useful.
fn balanced_indices(y: &[bool]) -> Vec<usize> {
    let pos: Vec<usize> = (0..y.len()).filter(|&i| y[i]).collect();
    let neg: Vec<usize> = (0..y.len()).filter(|&i| !y[i]).collect();
    let take = pos.len().min(neg.len());
    if take == 0 {
        return (0..y.len()).collect();
    }
    let mut idx: Vec<usize> = pos[..take].iter().chain(&neg[..take]).copied().collect();
    idx.sort_unstable();
    idx
}

/// DP logistic regression by output perturbation.
pub fn dp_logistic(x: &Matrix, y: &[bool], c: f64, epsilon: f64, seed: u64) -> LogisticRegression {
    let rows = balanced_indices(y);
    let xb = x.select_rows(&rows);
    let yb: Vec<bool> = rows.iter().map(|&i| y[i]).collect();
    let (n, d) = xb.shape();
    let lambda = (1.0 / (c * n.max(1) as f64)).max(MIN_LAMBDA);
    let base = LogisticRegression::fit(&xb, &yb, 1.0 / (lambda * n.max(1) as f64));
    let mut rng = Rng::seed_from_u64(seed);
    // Chaudhuri et al.: beta = 2 / (n lambda epsilon).
    let scale = 2.0 / (n.max(1) as f64 * lambda * epsilon);
    let noise = erm_noise(d, scale, &mut rng);
    let weights: Vec<f64> =
        base.weights().iter().zip(&noise).map(|(w, b)| w + b).collect();
    // The intercept also receives calibrated scalar noise.
    let bias = base.bias() + laplace(scale, &mut rng);
    LogisticRegression::from_weights(weights, bias)
}

/// DP linear SVM by output perturbation (same mechanism as [`dp_logistic`]).
pub fn dp_svm(x: &Matrix, y: &[bool], c: f64, epsilon: f64, seed: u64) -> LinearSvm {
    let rows = balanced_indices(y);
    let xb = x.select_rows(&rows);
    let yb: Vec<bool> = rows.iter().map(|&i| y[i]).collect();
    let (n, d) = xb.shape();
    let lambda = (1.0 / (c * n.max(1) as f64)).max(MIN_LAMBDA);
    let base = LinearSvm::fit(&xb, &yb, 1.0 / (lambda * n.max(1) as f64));
    let mut rng = Rng::seed_from_u64(seed);
    let scale = 2.0 / (n.max(1) as f64 * lambda * epsilon);
    let noise = erm_noise(d, scale, &mut rng);
    let weights: Vec<f64> =
        base.weights().iter().zip(&noise).map(|(w, b)| w + b).collect();
    let bias = base.bias() + laplace(scale, &mut rng);
    LinearSvm::from_weights(weights, bias)
}

/// DP Gaussian naive Bayes via Laplace-noised sufficient statistics.
pub fn dp_naive_bayes(
    x: &Matrix,
    y: &[bool],
    var_smoothing: f64,
    epsilon: f64,
    seed: u64,
) -> GaussianNb {
    let (n, d) = x.shape();
    assert_eq!(n, y.len(), "dp_naive_bayes: row/label mismatch");
    let base = GaussianNb::fit(x, y, var_smoothing);
    let mut rng = Rng::seed_from_u64(seed);

    // Budget split: ε/3 to class counts, ε/3 to means, ε/3 to variances.
    // One record contributes to every per-feature sum, so the mean/variance
    // queries have L1 sensitivity d; the Laplace scale is 3d/ε per feature.
    let count_scale = 3.0 / epsilon;
    let stat_scale = 3.0 * d.max(1) as f64 / epsilon;

    let noisy = |stats: &ClassStats, n_class: f64, rng: &mut Rng| -> (f64, ClassStats) {
        let noisy_count = (n_class + laplace(count_scale, rng)).max(1.0);
        let means = stats
            .means
            .iter()
            .map(|m| {
                // Noise the *sum* (sensitivity 1), then renormalize.
                let noisy_sum = m * n_class + laplace(stat_scale, rng);
                (noisy_sum / noisy_count).clamp(0.0, 1.0)
            })
            .collect();
        let vars = stats
            .vars
            .iter()
            .map(|v| {
                let noisy_sq = v * n_class + laplace(stat_scale, rng);
                (noisy_sq / noisy_count).max(1e-6)
            })
            .collect();
        (noisy_count, ClassStats { log_prior: 0.0, means, vars })
    };

    let n_pos = y.iter().filter(|&&b| b).count() as f64;
    let n_neg = n as f64 - n_pos;
    let (c_neg, mut neg) = noisy(base.neg(), n_neg, &mut rng);
    let (c_pos, mut pos) = noisy(base.pos(), n_pos, &mut rng);
    let total = c_neg + c_pos;
    neg.log_prior = (c_neg / total).max(1e-9).ln();
    pos.log_prior = (c_pos / total).max(1e-9).ln();
    GaussianNb::from_stats(neg, pos)
}

/// DP decision tree: structure chosen at random (no budget), leaves labeled
/// from Laplace-noised class counts (ε/2 per count).
pub fn dp_decision_tree(
    x: &Matrix,
    y: &[bool],
    max_depth: usize,
    epsilon: f64,
    seed: u64,
) -> DecisionTree {
    dp_tree_impl(x, y, max_depth, epsilon, seed, None)
}

/// View into a dataset-wide bound [`BinSet`] for the binned DP tree variant:
/// fit-matrix column `f` maps to source column `cols[f]`, fit-matrix row `i`
/// to source row `rows[i]`. The fit matrix `x` must hold exactly the gathered
/// values `source[(rows[i], cols[f])]` — the codes are only trusted to
/// classify those values.
#[derive(Debug, Clone, Copy)]
pub struct BinView<'a> {
    bins: &'a BinSet,
    cols: &'a [usize],
    rows: &'a [usize],
}

impl<'a> BinView<'a> {
    /// Builds a view; `cols`/`rows` are the gather maps used to build the
    /// fit matrix from the source matrix the bins were derived on.
    pub fn new(bins: &'a BinSet, cols: &'a [usize], rows: &'a [usize]) -> Self {
        Self { bins, cols, rows }
    }
}

/// [`dp_decision_tree`] driven by pre-derived bin codes: per drawn threshold,
/// bins wholly below/above the threshold are classified from their `u8`
/// code alone and only the (at most one) straddling bin consults the raw
/// feature value. The partition — and therefore the tree — is bit-identical
/// to the raw path.
pub fn dp_decision_tree_binned(
    x: &Matrix,
    y: &[bool],
    max_depth: usize,
    epsilon: f64,
    seed: u64,
    view: BinView<'_>,
) -> DecisionTree {
    let (n, d) = x.shape();
    assert_eq!(d, view.cols.len(), "dp_decision_tree_binned: column-map width mismatch");
    assert_eq!(n, view.rows.len(), "dp_decision_tree_binned: row-map length mismatch");
    dp_tree_impl(x, y, max_depth, epsilon, seed, Some(view))
}

fn dp_tree_impl(
    x: &Matrix,
    y: &[bool],
    max_depth: usize,
    epsilon: f64,
    seed: u64,
    view: Option<BinView<'_>>,
) -> DecisionTree {
    let (n, d) = x.shape();
    assert_eq!(n, y.len(), "dp_decision_tree: row/label mismatch");
    let max_depth = max_depth.max(1);
    let mut rng = Rng::seed_from_u64(seed);
    let mut nodes: Vec<Node> = Vec::new();
    // Segment-based recursion over one shared row array (stably partitioned
    // in place, like the CART builders) — no per-node index Vecs.
    let mut rows: Vec<usize> = (0..n).collect();
    let mut scratch: Vec<usize> = Vec::new();
    build_random(
        &mut nodes,
        x,
        y,
        &mut rows,
        &mut scratch,
        0,
        n,
        0,
        max_depth,
        epsilon,
        d,
        &mut rng,
        view,
    );
    // Random splits carry no data-driven importance signal; expose a uniform
    // vector so downstream ranking consumers stay well-defined.
    let importances = vec![1.0 / d.max(1) as f64; d];
    DecisionTree::from_parts(nodes, importances, max_depth)
}

/// Builds the random subtree over `rows[lo..hi]`. The stable in-place
/// partition keeps each side row-ascending, exactly like the per-node
/// `Iterator::partition` it replaces, and the RNG draw order (feature,
/// threshold, then leaf noise in preorder) is unchanged — so the tree is
/// identical to the allocating builder's, just without the per-node Vecs.
///
/// With a [`BinView`], the partition predicate resolves a row from its bin
/// code whenever the code is decisive: bins with `hi ≤ t` sit wholly at or
/// below the threshold (code `< bl`), bins with `lo > t` wholly above (code
/// `≥ br`); only codes in `[bl, br)` — the bins don't overlap, so at most
/// one — fall back to the raw `x[(i, f)] <= t` compare. Every row lands on
/// the same side as the raw predicate, bit for bit.
#[allow(clippy::too_many_arguments)]
fn build_random(
    nodes: &mut Vec<Node>,
    x: &Matrix,
    y: &[bool],
    rows: &mut [usize],
    scratch: &mut Vec<usize>,
    lo: usize,
    hi: usize,
    depth: usize,
    max_depth: usize,
    epsilon: f64,
    d: usize,
    rng: &mut Rng,
    view: Option<BinView<'_>>,
) -> usize {
    if depth >= max_depth || hi - lo < 2 {
        return push_noisy_leaf(nodes, y, &rows[lo..hi], epsilon, rng);
    }
    let feature = rng.below(d);
    let threshold = rng.f64(); // features are min–max scaled
    let nl = match view {
        None => dfs_linalg::sort::stable_partition_in_place(&mut rows[lo..hi], scratch, |&i| {
            x[(i, feature)] <= threshold
        }),
        Some(v) => {
            let src_col = v.cols[feature];
            let fb = v.bins.feature(src_col);
            let bl = fb.hi().partition_point(|&h| h <= threshold) as u16;
            let br = fb.lo().partition_point(|&l| l <= threshold) as u16;
            dfs_linalg::sort::stable_partition_in_place(&mut rows[lo..hi], scratch, |&i| {
                let c = v.bins.code_at(src_col, v.rows[i]) as u16;
                c < bl || (c < br && x[(i, feature)] <= threshold)
            })
        }
    };
    if nl == 0 || nl == hi - lo {
        return push_noisy_leaf(nodes, y, &rows[lo..hi], epsilon, rng);
    }
    let me = nodes.len();
    nodes.push(Node::Leaf { proba: 0.5 }); // placeholder
    let left = build_random(
        nodes, x, y, rows, scratch, lo, lo + nl, depth + 1, max_depth, epsilon, d, rng, view,
    );
    let right = build_random(
        nodes, x, y, rows, scratch, lo + nl, hi, depth + 1, max_depth, epsilon, d, rng, view,
    );
    nodes[me] = Node::Split { feature, threshold, left, right };
    me
}

fn push_noisy_leaf(
    nodes: &mut Vec<Node>,
    y: &[bool],
    idx: &[usize],
    epsilon: f64,
    rng: &mut Rng,
) -> usize {
    let pos = idx.iter().filter(|&&i| y[i]).count() as f64;
    let neg = idx.len() as f64 - pos;
    // ε/2 per class count, sensitivity 1 each.
    let scale = 2.0 / epsilon;
    let noisy_pos = (pos + laplace(scale, rng)).max(0.0);
    let noisy_neg = (neg + laplace(scale, rng)).max(0.0);
    let total = noisy_pos + noisy_neg;
    let proba = if total <= 0.0 { 0.5 } else { noisy_pos / total };
    nodes.push(Node::Leaf { proba });
    nodes.len() - 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use dfs_metrics::f1_score;

    fn problem(n: usize) -> (Matrix, Vec<bool>) {
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|i| {
                let t = (i as f64 * 0.618) % 1.0;
                if i % 2 == 0 {
                    vec![0.25 * t, 0.3 + 0.2 * t]
                } else {
                    vec![0.7 + 0.25 * t, 0.5 + 0.3 * t]
                }
            })
            .collect();
        let y = (0..n).map(|i| i % 2 == 1).collect();
        (Matrix::from_rows(&rows), y)
    }

    #[test]
    fn generous_epsilon_barely_hurts_lr() {
        let (x, y) = problem(400);
        let dp = dp_logistic(&x, &y, 1.0, 1000.0, 1);
        let preds: Vec<bool> = x.rows_iter().map(|r| dp.predict_one(r)).collect();
        assert!(f1_score(&preds, &y) > 0.9);
    }

    #[test]
    fn tiny_epsilon_destroys_lr_accuracy() {
        let (x, y) = problem(400);
        // Average F1 over seeds to avoid a lucky noise draw.
        let mut total = 0.0;
        for seed in 0..10 {
            let dp = dp_logistic(&x, &y, 1.0, 1e-4, seed);
            let preds: Vec<bool> = x.rows_iter().map(|r| dp.predict_one(r)).collect();
            total += f1_score(&preds, &y);
        }
        assert!(total / 5.0 < 0.85, "tiny epsilon should hurt, f1 = {}", total / 5.0);
    }

    #[test]
    fn noise_magnitude_scales_inversely_with_epsilon() {
        let (x, y) = problem(300);
        let base = LogisticRegression::fit(&x, &y, 1.0);
        let dist = |eps: f64| -> f64 {
            let mut total = 0.0;
            for seed in 0..8 {
                let dp = dp_logistic(&x, &y, 1.0, eps, seed);
                let diff: Vec<f64> = dp
                    .weights()
                    .iter()
                    .zip(base.weights())
                    .map(|(a, b)| a - b)
                    .collect();
                total += norm2(&diff);
            }
            total / 8.0
        };
        assert!(dist(0.01) > dist(10.0), "noise must shrink with epsilon");
    }

    #[test]
    fn dp_nb_predicts_reasonably_with_generous_budget() {
        let (x, y) = problem(400);
        let dp = dp_naive_bayes(&x, &y, 1e-9, 500.0, 2);
        let preds: Vec<bool> = x.rows_iter().map(|r| dp.predict_one(r)).collect();
        assert!(f1_score(&preds, &y) > 0.85);
    }

    #[test]
    fn dp_nb_stats_stay_valid() {
        let (x, y) = problem(100);
        let dp = dp_naive_bayes(&x, &y, 1e-9, 0.5, 3);
        for stats in [dp.neg(), dp.pos()] {
            for (&m, &v) in stats.means.iter().zip(&stats.vars) {
                assert!((0.0..=1.0).contains(&m), "mean {m}");
                assert!(v > 0.0, "variance {v}");
            }
            assert!(stats.log_prior.is_finite());
        }
    }

    #[test]
    fn dp_tree_with_generous_budget_learns() {
        let (x, y) = problem(500);
        // Average accuracy over a few random structures.
        let mut total = 0.0;
        for seed in 0..10 {
            let dp = dp_decision_tree(&x, &y, 6, 1000.0, seed);
            let preds: Vec<bool> = x.rows_iter().map(|r| dp.predict_one(r)).collect();
            total += f1_score(&preds, &y);
        }
        assert!(total / 10.0 > 0.7, "f1 = {}", total / 10.0);
    }

    #[test]
    fn dp_tree_probas_are_probabilities() {
        let (x, y) = problem(100);
        let dp = dp_decision_tree(&x, &y, 4, 0.1, 4);
        for row in x.rows_iter() {
            let p = dp.proba_one(row);
            assert!((0.0..=1.0).contains(&p));
        }
        // Importances are uniform by construction.
        let imp = dp.importances();
        assert!((imp.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn binned_dp_tree_is_bit_identical_to_the_raw_path() {
        // Source matrix wider and taller than the fit view, with ~997
        // distinct values per column so u8 codes must quantize (straddling
        // bins exercise the raw-value fallback of the binned predicate).
        let n = 320;
        let d = 5;
        let raw_rows: Vec<Vec<f64>> = (0..n)
            .map(|i| (0..d).map(|j| ((i * 37 + j * 101) % 997) as f64 / 996.0).collect())
            .collect();
        let src = Matrix::from_rows(&raw_rows);
        let y_src: Vec<bool> = (0..n).map(|i| (i * 7) % 3 == 0).collect();
        let fit_rows: Vec<usize> = (0..n).filter(|i| i % 3 != 1).collect();
        let cols = vec![4usize, 0, 2];
        let x = src.select_rows(&fit_rows).select_cols(&cols);
        let y: Vec<bool> = fit_rows.iter().map(|&i| y_src[i]).collect();
        let bins = BinSet::derive(&src);
        let view = BinView::new(&bins, &cols, &fit_rows);
        for seed in [0u64, 3, 11, 42] {
            let raw = dp_decision_tree(&x, &y, 6, 50.0, seed);
            let binned = dp_decision_tree_binned(&x, &y, 6, 50.0, seed, view);
            assert_eq!(raw, binned, "seed {seed}");
        }
    }

    #[test]
    fn dp_models_are_deterministic_per_seed() {
        let (x, y) = problem(150);
        assert_eq!(
            dp_logistic(&x, &y, 1.0, 1.0, 7).weights(),
            dp_logistic(&x, &y, 1.0, 1.0, 7).weights()
        );
        let a = dp_svm(&x, &y, 1.0, 1.0, 7);
        let b = dp_svm(&x, &y, 1.0, 1.0, 7);
        assert_eq!(a.weights(), b.weights());
    }

    #[test]
    fn more_features_mean_more_nb_noise() {
        // Duplicate columns to widen the data; DP-NB noise scale grows with
        // d, so wide data should deviate more from the non-private model.
        let (x, y) = problem(300);
        let wide_cols: Vec<usize> = (0..2).cycle().take(24).collect();
        let wide = x.select_cols(&wide_cols);
        let dev = |x: &Matrix| -> f64 {
            let base = GaussianNb::fit(x, &y, 1e-9);
            let mut total = 0.0;
            for seed in 0..6 {
                let dp = dp_naive_bayes(x, &y, 1e-9, 2.0, seed);
                total += dp
                    .pos()
                    .means
                    .iter()
                    .zip(&base.pos().means)
                    .map(|(a, b)| (a - b).abs())
                    .sum::<f64>()
                    / dp.pos().means.len() as f64;
            }
            total / 6.0
        };
        assert!(dev(&wide) > dev(&x), "wide data should see more per-feature noise");
    }
}
