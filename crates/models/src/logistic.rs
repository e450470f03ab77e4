//! L2-regularized logistic regression trained by full-batch gradient descent.
//!
//! Matches scikit-learn's parameterization: the objective is
//! `Σ_i log(1 + exp(−ỹ_i (w·x_i + b))) + ||w||² / (2C)` with ỹ ∈ {−1, +1}.
//! Training uses gradient descent with a bold-driver step-size adaptation
//! and stops after `MAX_EPOCHS` (120) epochs or once the loss moves by
//! less than `TOL` (10⁻⁷). Unlike scikit-learn, it does not solve to
//! tolerance: about 13% of the paper corpus's fits stop at the epoch cap,
//! and on a 160×8 problem at C = 100 the objective ends at 0.1394 against
//! an optimum of 0.1003. At large C the cap therefore acts as extra
//! regularization.
//!
//! # The epoch kernel
//!
//! An epoch runs in three phases: the margins `u_i = −ỹ_i (w·x_i + b)`
//! of every row, then one `e_i = exp(−|u_i|)` per row, then the gradient
//! sweep `gw += g_i·x_i` in row order. `e_i` is exactly the `exp` that
//! `sigmoid(u_i)` takes on either branch, so the gradient weights
//! `g_i = −ỹ_i σ(u_i)` and hence the weights are bit-identical to a loop
//! that calls `sigmoid` per row.
//!
//! The loss is read only by the bold driver's two comparisons, never by
//! the weights. The kernel therefore reads a fast loss
//! `A = (Σ max(u_i, 0) + Σ_chunk ln Π (1 + e_i)) / n + reg`, one `ln` per
//! 512 rows, together with a proven bound `δ ≥ |L − A|` against the
//! per-row `log1p_exp` sum `L` the decisions were defined on. A
//! decision whose comparisons both clear the bounds is the one `L` would
//! take; any other (near-tie or non-finite) recomputes the exact `L` of
//! this epoch and the previous one and decides on those. So decisions,
//! epoch count, weights and bias are all those of the exact loop.

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

/// Rows whose `1 + e_i` factors share one `ln`. Every factor lies in
/// `[1, 2]`, so a chunk's product is at most `2^512` and cannot overflow.
const LN_CHUNK: usize = 512;

/// An epoch's loss as the bold driver reads it: `value` lies within
/// `delta` of the exact reference loss (`delta == 0` means it is that loss).
#[derive(Debug, Clone, Copy)]
struct Loss {
    value: f64,
    delta: f64,
}

impl Loss {
    fn exact(value: f64) -> Self {
        Self { value, delta: 0.0 }
    }
}

/// The bold driver's two reads of a loss pair: `(overshoot, converged)`.
fn bold_driver(loss: f64, prev: f64) -> (bool, bool) {
    (loss > prev + TOL, (prev - loss).abs() < TOL)
}

/// The decision [`bold_driver`] takes on the exact losses, when the bounded
/// `loss` and `prev` settle it; `None` when a comparison is too close to
/// call or a value is not finite.
///
/// With `|L − A| ≤ δ` and `|L' − A'| ≤ δ'`, the differences each comparison
/// reads on the exact side and on the bounded side are at most `δ + δ'`
/// apart, plus one rounding of `prev + TOL` (resp. `prev − loss`) on each
/// side. A bounded difference whose magnitude exceeds twice `δ + δ'` plus
/// two such roundings therefore has the exact difference's sign.
fn settled(loss: Loss, prev: Loss) -> Option<(bool, bool)> {
    if prev.value == f64::INFINITY && prev.delta == 0.0 {
        // Before the first epoch (or after an exact +∞): neither
        // comparison can hold, whatever the current loss.
        return Some((false, false));
    }
    if !(loss.value.is_finite() && prev.value.is_finite()) {
        return None;
    }
    let slack = 2.0 * (loss.delta + prev.delta);
    let bar = prev.value + TOL;
    let step = prev.value - loss.value;
    let clear = (loss.value - bar).abs() > slack + 2.0 * f64::EPSILON * bar.abs()
        && (step.abs() - TOL).abs() > slack + 2.0 * f64::EPSILON * step.abs();
    clear.then(|| bold_driver(loss.value, prev.value))
}

/// The L2 term of the mean loss, in the exact expression and order the
/// reference loop used.
fn penalty(lambda: f64, w: &[f64], nf: f64) -> f64 {
    0.5 * lambda * dot(w, w) * nf / nf
}

/// The reference loss at `(w, b)`: `log1p_exp` per row, summed in row order.
fn exact_loss(x: &Matrix, targets: &[f64], w: &[f64], b: f64, lambda: f64) -> f64 {
    let mut sum = 0.0;
    for (row, &t) in x.rows_iter().zip(targets) {
        sum += log1p_exp(-t * (dot(row, w) + b));
    }
    let nf = x.shape().0 as f64;
    sum / nf + penalty(lambda, w, nf)
}

/// Phases 1 and 2 of an epoch at `(w, b)`: overwrites `work` (one slot per
/// row) with the gradient weights `g_i` and returns the fast loss with its
/// bound `δ`.
///
/// The bound. Let ε = `f64::EPSILON`, m the rows, S = Σ|u_i|, and take
/// `exp`, `ln` and `ln_1p` as within one ulp. A row's loss
/// `max(u, 0) + ln(1 + e^{−|u|})` is at most `|u| + 1`, so the terms of
/// either sum add up to at most `S + m`.
/// - Reference sum: `exp` then `ln_1p` put each row's `ln(1 + e)` within
///   1.2ε, adding `u_i` rounds by ≤ ε(|u_i| + 1)/2, and summing m terms in
///   order adds ≤ (m − 1)·ε/2·(S + m). In all ≤ (m/2 + 2)·ε·(S + m).
/// - Fast sum: `Σ max(u_i, 0)` rounds by ≤ (m − 1)·ε/2·S. Each factor
///   `1 + e_i` is within 1.5ε (relative) of `1 + e^{−|u_i|}` and each
///   product step rounds by ε/2, so a chunk's `ln Π` is off by ≤ 2ε per
///   row, plus its own ulp (≤ 512·ln 2·ε, under ε per row). Summing the
///   chunk logs rounds by ≤ (m/512)·ε/2·m·ln 2 < 0.001·m·ε·m and the final
///   add by ≤ ε(S + m)/2. In all ≤ (0.501·m + 3.5)·ε·(S + m).
/// - Dividing by n rounds each quotient by ≤ ε/2 of itself, and adding the
///   bit-equal `reg` rounds each side by ≤ ε/2 of its result: ≤ ε(S + m)/n
///   plus ε(|A| + |L − A|).
///
/// So `|L − A| ≤ ((1.001·m + 6.5)·ε·(S + m)/n + ε·|A|)·(1 + O(ε))`.
/// `δ` rounds the constants up to `1.01·m + 8` and `|A| + 1` and takes four
/// times the result, which covers the `O(ε)` factor and the rounding of
/// `δ` itself many times over.
fn epoch(x: &Matrix, targets: &[f64], w: &[f64], b: f64, reg: f64, work: &mut [f64]) -> Loss {
    // Phase 1: the margins.
    for ((u, row), &t) in work.iter_mut().zip(x.rows_iter()).zip(targets) {
        *u = -t * (dot(row, w) + b);
    }
    // Phase 2: one `exp` per row, one `ln` per chunk.
    let (mut pos, mut abs, mut logs) = (0.0, 0.0, 0.0);
    for (us, ts) in work.chunks_mut(LN_CHUNK).zip(targets.chunks(LN_CHUNK)) {
        let mut prod = 1.0;
        for (slot, &t) in us.iter_mut().zip(ts) {
            let u = *slot;
            let e = (-u.abs()).exp();
            let one_e = 1.0 + e;
            pos += u.max(0.0);
            abs += u.abs();
            prod *= one_e;
            // `sigmoid(u)` on either of its branches, from the same `e`.
            let s = if u >= 0.0 { 1.0 / one_e } else { e / one_e };
            *slot = -t * s;
        }
        logs += prod.ln();
    }
    let nf = x.shape().0 as f64;
    let m = work.len() as f64;
    let value = (pos + logs) / nf + reg;
    let eps = f64::EPSILON;
    let delta = 4.0 * ((1.01 * m + 8.0) * eps * (abs + m) / nf + eps * (value.abs() + 1.0));
    Loss { value, delta }
}

/// Gradient descent with the bold driver. Returns the model and how many
/// decisions the fast loss could not settle. Epochs `k` with
/// `force_exact(k)` decide on the exact losses unconditionally (a test
/// path; [`LogisticRegression::fit`] forces none).
fn fit_gd(
    x: &Matrix,
    y: &[bool],
    c: f64,
    force_exact: impl Fn(usize) -> bool,
) -> (LogisticRegression, usize) {
    assert!(c > 0.0, "LogisticRegression: C must be positive");
    let (n, d) = x.shape();
    assert_eq!(n, y.len(), "LogisticRegression: row/label mismatch");
    let lambda = 1.0 / (c * n.max(1) as f64); // per-instance penalty
    let nf = n as f64;
    let targets: Vec<f64> = y.iter().map(|&t| if t { 1.0 } else { -1.0 }).collect();

    let mut w = vec![0.0; d];
    let mut b = 0.0;
    // The point `prev` was measured at, for an exact recompute.
    let mut w_prev = vec![0.0; d];
    let mut b_prev = 0.0;
    let mut lr = INIT_LR;
    let mut prev = Loss::exact(f64::INFINITY);
    let mut work = vec![0.0; n];
    let mut gw = vec![0.0; d];
    let mut fallbacks = 0;

    for k in 0..MAX_EPOCHS {
        let fast = epoch(x, &targets, &w, b, penalty(lambda, &w, nf), &mut work);
        let forced = force_exact(k);
        let read = if forced { None } else { settled(fast, prev) };
        let (loss, (overshoot, converged)) = match read {
            Some(read) => (fast, read),
            None => {
                fallbacks += usize::from(!forced);
                let loss = exact_loss(x, &targets, &w, b, lambda);
                let prev = if prev.delta == 0.0 {
                    prev.value
                } else {
                    exact_loss(x, &targets, &w_prev, b_prev, lambda)
                };
                (Loss::exact(loss), bold_driver(loss, prev))
            }
        };

        // Bold driver: shrink on overshoot, gently grow otherwise.
        if overshoot {
            lr *= 0.5;
            if lr < 1e-4 {
                break;
            }
        } else {
            lr *= 1.05;
        }
        if converged {
            break;
        }
        prev = loss;

        // Phase 3: gradient of the mean loss, rows in order.
        gw.fill(0.0);
        let mut gb = 0.0;
        for (row, &g) in x.rows_iter().zip(&work) {
            // Elementwise `gw[j] += g * row[j]`, so the blocked axpy
            // changes no bits relative to the scalar loop.
            axpy(g, row, &mut gw);
            gb += g;
        }
        w_prev.copy_from_slice(&w);
        b_prev = b;
        for (wj, gwj) in w.iter_mut().zip(&gw) {
            *wj -= lr * (gwj / nf + lambda * *wj);
        }
        b -= lr * (gb / nf);
    }

    (LogisticRegression { weights: w, bias: b }, fallbacks)
}

impl LogisticRegression {
    /// Fits the model with inverse regularization strength `c`, starting
    /// from the zero solution.
    pub fn fit(x: &Matrix, y: &[bool], c: f64) -> Self {
        fit_gd(x, y, c, |_| false).0
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
    use dfs_linalg::rng::Rng;

    /// One epoch's `(w, b, loss)` as the reference loop saw it.
    type Step = (Vec<f64>, f64, f64);

    /// The loop the epoch kernel replaced, verbatim but for recording each
    /// epoch's weights and loss: per-row `log1p_exp` loss and `sigmoid`
    /// gradient, interleaved.
    fn reference_fit(x: &Matrix, y: &[bool], c: f64) -> (LogisticRegression, Vec<Step>) {
        assert!(c > 0.0, "LogisticRegression: C must be positive");
        let (n, d) = x.shape();
        assert_eq!(n, y.len(), "LogisticRegression: row/label mismatch");
        let lambda = 1.0 / (c * n.max(1) as f64); // per-instance penalty
        let mut w = vec![0.0; d];
        let mut b = 0.0;
        let mut lr = INIT_LR;
        let mut prev_loss = f64::INFINITY;
        let mut steps = Vec::new();

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
                axpy(g, row, &mut gw);
                gb += g;
            }
            let nf = n as f64;
            loss = loss / nf + 0.5 * lambda * dot(&w, &w) * nf / nf;
            steps.push((w.clone(), b, loss));
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

        (LogisticRegression { weights: w, bias: b }, steps)
    }

    #[derive(Debug, Clone, Copy)]
    enum Labels {
        /// A random linear rule plus label noise, features in `[0, 1]`.
        Noisy,
        /// The same rule without noise on features scaled to `[0, 1000]`,
        /// so margins pass 745 and `exp(−|u|)` underflows to 0.
        Separable,
        /// Every label `true`.
        Constant,
        /// Noisy labels, every third row a copy of the row before it.
        Duplicated,
    }

    fn problem(n: usize, d: usize, labels: Labels, seed: u64) -> (Matrix, Vec<bool>) {
        let mut rng = Rng::seed_from_u64(seed);
        let dir: Vec<f64> = (0..d).map(|_| rng.f64() - 0.5).collect();
        let scale = if matches!(labels, Labels::Separable) { 1000.0 } else { 1.0 };
        let mut data: Vec<f64> = Vec::with_capacity(n * d);
        let mut y = Vec::with_capacity(n);
        for i in 0..n {
            if matches!(labels, Labels::Duplicated) && i % 3 == 2 {
                data.extend_from_within((i - 1) * d..i * d);
                y.push(y[i - 1]);
                continue;
            }
            let row: Vec<f64> = (0..d).map(|_| rng.f64()).collect();
            let score: f64 = row.iter().zip(&dir).map(|(x, w)| (x - 0.5) * w).sum();
            let noise = 0.3 * (rng.f64() - 0.5);
            y.push(match labels {
                Labels::Noisy | Labels::Duplicated => score + noise > 0.0,
                Labels::Separable => score > 0.0,
                Labels::Constant => true,
            });
            data.extend(row.iter().map(|x| x * scale));
        }
        (Matrix::from_vec(n, d, data), y)
    }

    /// The default sweep: every `(n, d, C)` on noisy labels, plus separable
    /// data at C = 10³, constant labels and duplicated rows on the shapes
    /// up to 513 × 40.
    fn sweep_cases() -> Vec<(usize, usize, Labels, f64)> {
        let mut cases = Vec::new();
        for n in [1, 2, 7, 160, 513, 1100] {
            for d in [0, 1, 2, 8, 19, 40, 160] {
                for c in [1e-2, 1.0, 1e2, 1e3] {
                    cases.push((n, d, Labels::Noisy, c));
                }
                if n <= 513 && d <= 40 {
                    cases.push((n, d, Labels::Separable, 1e3));
                    cases.push((n, d, Labels::Constant, 1.0));
                    cases.push((n, d, Labels::Duplicated, 1e2));
                }
            }
        }
        cases
    }

    fn bits(m: &LogisticRegression) -> (Vec<u64>, u64) {
        (m.weights().iter().map(|w| w.to_bits()).collect(), m.bias().to_bits())
    }

    /// What a sweep found: bold-driver decisions, exact fallbacks, and the
    /// largest `|L − A| / δ` along the reference trajectories.
    #[derive(Debug, Default)]
    struct SweepReport {
        decisions: usize,
        fallbacks: usize,
        max_bound_ratio: f64,
    }

    /// Decides two epochs of every three on the exact losses, so the sweep
    /// meets each transition: exact after fast (recomputing the previous
    /// loss from `(w_prev, b_prev)`), exact after exact, fast after exact.
    fn two_of_three(k: usize) -> bool {
        k % 3 != 0
    }

    /// Fits every case with the reference loop and with the kernel, whose
    /// epochs `k` with `force_exact(k)` decide on the exact losses,
    /// asserting bit identity. A run that forces no epoch also measures
    /// the fast loss against the reference loss at every reference epoch.
    fn run_sweep(
        cases: &[(usize, usize, Labels, f64)],
        seed: u64,
        force_exact: fn(usize) -> bool,
    ) -> SweepReport {
        let kernel_only = (0..MAX_EPOCHS).all(|k| !force_exact(k));
        let mut report = SweepReport::default();
        for (k, &(n, d, labels, c)) in cases.iter().enumerate() {
            let (x, y) = problem(n, d, labels, seed.wrapping_add(k as u64));
            let (reference, steps) = reference_fit(&x, &y, c);
            let (model, fallbacks) = fit_gd(&x, &y, c, force_exact);
            assert_eq!(
                bits(&model),
                bits(&reference),
                "n={n} d={d} {labels:?} C={c} seed={seed} kernel_only={kernel_only}"
            );
            report.decisions += steps.len();
            report.fallbacks += fallbacks;
            if !kernel_only {
                continue;
            }
            let targets: Vec<f64> = y.iter().map(|&t| if t { 1.0 } else { -1.0 }).collect();
            let lambda = 1.0 / (c * n.max(1) as f64);
            let mut work = vec![0.0; n];
            for (w, b, loss) in steps.iter().filter(|s| s.2.is_finite()) {
                let fast = epoch(&x, &targets, w, *b, penalty(lambda, w, n as f64), &mut work);
                let ratio = (loss - fast.value).abs() / fast.delta;
                report.max_bound_ratio = report.max_bound_ratio.max(ratio);
            }
        }
        report
    }

    #[test]
    fn kernel_is_bit_identical_to_the_reference_loop_and_within_its_bound() {
        let report = run_sweep(&sweep_cases(), 7, |_| false);
        eprintln!("default sweep: {report:?}");
        assert!(report.decisions > 10_000, "{report:?}");
        assert!(report.max_bound_ratio <= 0.25, "{report:?}");
    }

    #[test]
    fn exact_decisions_are_bit_identical_to_the_reference_loop() {
        let report = run_sweep(&sweep_cases(), 7, two_of_three);
        assert!(report.decisions > 10_000, "{report:?}");
    }

    /// Release-mode sweep over more seeds, shapes and the HPO grid's C
    /// values: `cargo test --release -p dfs-models -- --ignored --nocapture`.
    #[test]
    #[ignore = "long sweep; CI runs it in release"]
    fn long_sweep_is_bit_identical_and_within_its_bound() {
        let mut cases = Vec::new();
        for n in [3, 50, 160, 400, 1025, 2000] {
            for d in [1, 3, 8, 19, 40, 118, 160] {
                for c in [1e-3, 1e-2, 1e-1, 1.0, 1e1, 1e2, 1e3] {
                    cases.push((n, d, Labels::Noisy, c));
                }
                cases.push((n, d, Labels::Separable, 1e3));
                cases.push((n, d, Labels::Duplicated, 1e2));
            }
        }
        let mut total = SweepReport::default();
        for seed in 0..4 {
            let r = run_sweep(&cases, 1000 + seed, |_| false);
            total.decisions += r.decisions;
            total.fallbacks += r.fallbacks;
            total.max_bound_ratio = total.max_bound_ratio.max(r.max_bound_ratio);
            run_sweep(&cases, 1000 + seed, |_| true);
            run_sweep(&cases, 1000 + seed, two_of_three);
        }
        eprintln!("long sweep: {total:?}");
        assert!(total.max_bound_ratio <= 0.25, "{total:?}");
    }

    #[test]
    fn separable_case_drives_exp_to_underflow() {
        let (x, y) = problem(160, 8, Labels::Separable, 3);
        let (_, steps) = reference_fit(&x, &y, 1e3);
        let targets: Vec<f64> = y.iter().map(|&t| if t { 1.0 } else { -1.0 }).collect();
        let underflows = steps.iter().any(|(w, b, _)| {
            x.rows_iter()
                .zip(&targets)
                .any(|(row, t)| (-(t * (dot(row, w) + b)).abs()).exp() == 0.0)
        });
        assert!(underflows, "no margin made exp(−|u|) underflow");
    }

    #[test]
    fn settled_never_decides_on_a_near_tie_or_a_non_finite_loss() {
        let fast = |value| Loss { value, delta: 1e-12 };
        // Far from both thresholds: decided from the bounded values.
        assert_eq!(settled(fast(0.5), fast(0.6)), Some((false, false)));
        assert_eq!(settled(fast(0.7), fast(0.6)), Some((true, false)));
        assert_eq!(settled(fast(0.6), fast(0.6 + 1e-3 * TOL)), Some((false, true)));
        // Within the slack of `prev + TOL` or of `|prev − loss| = TOL`.
        assert_eq!(settled(fast(0.6 + TOL), fast(0.6)), None);
        assert_eq!(settled(fast(0.6 - TOL), fast(0.6)), None);
        // Non-finite values always go to the exact losses ...
        assert_eq!(settled(fast(f64::NAN), fast(0.6)), None);
        assert_eq!(settled(fast(0.6), fast(f64::INFINITY)), None);
        // ... except an exact +∞ before the first epoch, which no loss can
        // overshoot or converge against.
        assert_eq!(settled(fast(f64::NAN), Loss::exact(f64::INFINITY)), Some((false, false)));
    }

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
    fn zero_width_fit_learns_the_label_prior() {
        // Only the bias can move: with 70% positive labels it settles at a
        // positive log-odds, so every row is predicted positive.
        let x = Matrix::zeros(50, 0);
        let y: Vec<bool> = (0..50).map(|i| i % 10 < 7).collect();
        let m = LogisticRegression::fit(&x, &y, 1.0);
        assert!(m.proba_one(&[]) > 0.5, "bias-only fit ignores the prior");
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
