//! Safety against adversarial examples via a black-box evasion attack.
//!
//! The paper measures empirical robustness by attacking every test instance
//! with **HopSkipJump** (Chen et al., 2020, via the Adversarial Robustness
//! Toolbox) and comparing the F1 score before and after:
//!
//! ```text
//! Safety = 1 − (F1(Test_original) − F1(Test_attacked))
//! ```
//!
//! HopSkipJump is a label-only attack in three phases: (1) draw random
//! points until one is classified differently from the instance, (2)
//! bisect towards the instance onto the decision boundary, (3) refine with
//! Monte-Carlo gradient-direction estimates and geometric steps. Phases 2–3
//! accept a point only when it is still adversarial, so the attacked label
//! is settled by phase 1: it flips exactly when the random initialisation
//! succeeds. ART's HopSkipJump behaves the same way (a failed
//! initialisation returns the instance unchanged). The refinement only
//! shrinks the perturbation, which would matter under a perturbation
//! budget; the paper sets none.
//!
//! So Safety here runs phase 1 alone: up to `init_trials` uniform draws from
//! `[0, 1]^d` per attacked row. The full three-phase attack is kept as a
//! test oracle, and the tests check the two agree row for row and on the
//! Safety score bit for bit. See `DESIGN.md` § 2.
//!
//! The attacked model is abstracted as a `Fn(&[f64]) -> bool` so this crate
//! does not depend on any model implementation. Features are assumed
//! min–max scaled to `[0, 1]` (the workspace's standard preprocessing).

use dfs_exec::Executor;
use dfs_linalg::rng::{derive_seed, Rng};
use dfs_linalg::Matrix;

use crate::classification::f1_score;

/// Budget and determinism knobs for the evasion attack.
#[derive(Debug, Clone)]
pub struct AttackConfig {
    /// Maximum number of test instances to attack (subsampled head).
    pub max_points: usize,
    /// Random restarts when searching for an initial adversarial point.
    pub init_trials: usize,
}

impl Default for AttackConfig {
    fn default() -> Self {
        Self { max_points: 24, init_trials: 16 }
    }
}

/// Whether the attack flips an instance of `d` features that the model
/// labels `original_label`: `true` when one of up to `init_trials` uniform
/// draws from `[0, 1]^d` is labelled differently.
fn flips(
    predict: &dyn Fn(&[f64]) -> bool,
    d: usize,
    original_label: bool,
    init_trials: usize,
    rng: &mut Rng,
) -> bool {
    if d == 0 {
        return false;
    }
    let mut probe = Vec::with_capacity(d);
    (0..init_trials).any(|_| {
        probe.clear();
        probe.extend((0..d).map(|_| rng.f64()));
        predict(&probe) != original_label
    })
}

/// Empirical safety of a model on a test set, per the paper's § 3.
///
/// Predicts the first `cfg.max_points` test rows and hands them to
/// [`empirical_safety_with`].
pub fn empirical_safety(
    predict: &(dyn Fn(&[f64]) -> bool + Sync),
    x_test: &Matrix,
    y_test: &[bool],
    cfg: &AttackConfig,
    seed: u64,
) -> f64 {
    let n = x_test.nrows().min(cfg.max_points);
    let preds: Vec<bool> = (0..n).map(|i| predict(x_test.row(i))).collect();
    let d = x_test.ncols();
    empirical_safety_with(predict, &preds, y_test, d, cfg, seed, &Executor::sequential())
}

/// Empirical safety from the model's predictions on the test rows.
///
/// Attacks the first `cfg.max_points` rows; `original_preds[i]` is the
/// model's label for row `i` and `n_features` the row width. The attack
/// never reads the rows themselves, only the model's labels at random
/// points, so the caller passes predictions instead of features. Rows the
/// attack cannot flip keep their label. Returns
/// `1 − (F1_original − F1_attacked)` clamped to `[0, 1]`.
///
/// Each attacked row `i` gets its own RNG seeded `derive_seed(seed, i)`
/// and the attacked labels are reduced in row order, so the score is
/// bit-identical at any thread count.
pub fn empirical_safety_with(
    predict: &(dyn Fn(&[f64]) -> bool + Sync),
    original_preds: &[bool],
    y: &[bool],
    n_features: usize,
    cfg: &AttackConfig,
    seed: u64,
    exec: &Executor,
) -> f64 {
    let n = original_preds.len().min(cfg.max_points);
    if n == 0 {
        return 1.0;
    }
    // Recorded at the call level, never inside the per-row closure (which
    // may land on collector-less helper threads).
    dfs_obs::counter("attack.rows", n as u64);
    let original = &original_preds[..n];
    let y_eval = &y[..n];
    let f1_original = f1_score(original, y_eval);

    let attacked: Vec<bool> = exec.par_map_indexed(original, |i, &label| {
        let mut rng = Rng::seed_from_u64(derive_seed(seed, i as u64));
        label ^ flips(predict, n_features, label, cfg.init_trials, &mut rng)
    });
    let f1_attacked = f1_score(&attacked, y_eval);
    (1.0 - (f1_original - f1_attacked)).clamp(0.0, 1.0)
}

/// The three-phase attack Safety was computed with before it read phase 1
/// alone, kept verbatim as the reference the flip test must match.
#[cfg(test)]
mod oracle {
    use super::*;
    use dfs_linalg::norm2;
    use dfs_linalg::rng::standard_normal;

    /// The attack's full budget, refinement knobs included.
    #[derive(Debug, Clone)]
    pub struct AttackConfig {
        /// Maximum number of test instances to attack (subsampled head).
        pub max_points: usize,
        /// Random restarts when searching for an initial adversarial point.
        pub init_trials: usize,
        /// Bisection steps when projecting onto the decision boundary.
        pub boundary_steps: usize,
        /// Refinement iterations (gradient estimate + geometric step).
        pub iterations: usize,
        /// Monte-Carlo queries per gradient-direction estimate.
        pub grad_queries: usize,
        /// RNG seed.
        pub seed: u64,
    }

    impl Default for AttackConfig {
        fn default() -> Self {
            Self {
                max_points: 24,
                init_trials: 16,
                boundary_steps: 10,
                iterations: 3,
                grad_queries: 12,
                seed: 0,
            }
        }
    }

    impl AttackConfig {
        /// `cfg`'s shared knobs with `seed` and the given refinement budget.
        pub fn refining(
            cfg: &super::AttackConfig,
            seed: u64,
            boundary_steps: usize,
            iterations: usize,
            grad_queries: usize,
        ) -> Self {
            Self {
                max_points: cfg.max_points,
                init_trials: cfg.init_trials,
                boundary_steps,
                iterations,
                grad_queries,
                seed,
            }
        }
    }

    /// Tries to find an adversarial example for one instance.
    ///
    /// Returns a perturbed input that the model labels differently from
    /// `original_label`, or `None` when the attack fails within budget.
    pub fn attack_instance(
        predict: &dyn Fn(&[f64]) -> bool,
        x: &[f64],
        original_label: bool,
        cfg: &AttackConfig,
        rng: &mut Rng,
    ) -> Option<Vec<f64>> {
        let d = x.len();
        if d == 0 {
            return None;
        }

        // Scratch reused across phases and refinement iterations: a constant
        // handful of buffers per call instead of a fresh Vec per probe/blend
        // (the attack issues O(iterations × grad_queries + bisection steps)
        // model queries, each of which needed its own allocation before).
        // Every floating-point operation and RNG draw happens in the same
        // order as the allocating version, so results are bit-identical.
        let mut u = Vec::with_capacity(d);
        let mut probe = Vec::with_capacity(d);
        let mut grad = vec![0.0; d];
        let mut stepped = Vec::with_capacity(d);
        let mut blend = Vec::with_capacity(d);

        // Phase 1: find any misclassified starting point (random restarts).
        let mut adv: Option<Vec<f64>> = None;
        for _ in 0..cfg.init_trials {
            probe.clear();
            probe.extend((0..d).map(|_| rng.f64()));
            if predict(&probe) != original_label {
                adv = Some(probe.clone());
                break;
            }
        }
        let mut adv = adv?;

        // Phase 2: bisect towards x to land on the decision boundary
        // (keeps the adversarial side).
        bisect_to_boundary(predict, x, &mut adv, original_label, cfg.boundary_steps, &mut blend);

        // Phase 3: HopSkipJump-style refinement — estimate the gradient
        // direction of the decision function at the boundary point with
        // label-only Monte-Carlo queries, take a geometric step, re-project.
        let mut dist = dfs_linalg::sq_dist(&adv, x).sqrt();
        for it in 0..cfg.iterations {
            let delta = (dist / (d as f64).sqrt()).max(1e-3);
            grad.iter_mut().for_each(|g| *g = 0.0);
            for _ in 0..cfg.grad_queries {
                u.clear();
                u.extend((0..d).map(|_| standard_normal(rng)));
                let nu = norm2(&u).max(dfs_linalg::EPS);
                probe.clear();
                probe.extend(
                    adv.iter().zip(&u).map(|(a, ui)| (a + delta * ui / nu).clamp(0.0, 1.0)),
                );
                // +1 if the probe stays adversarial, -1 otherwise.
                let sign = if predict(&probe) != original_label { 1.0 } else { -1.0 };
                for (g, ui) in grad.iter_mut().zip(&u) {
                    *g += sign * ui / nu;
                }
            }
            let gn = norm2(&grad);
            if gn <= dfs_linalg::EPS {
                break;
            }
            // Geometric step size shrinking over iterations.
            let step = dist / (it as f64 + 2.0).sqrt();
            stepped.clear();
            stepped.extend(adv.iter().zip(&grad).map(|(a, g)| (a + step * g / gn).clamp(0.0, 1.0)));
            if predict(&stepped) != original_label {
                adv.copy_from_slice(&stepped);
            } // else: the step left the adversarial region; keep the previous adv
            bisect_to_boundary(predict, x, &mut adv, original_label, cfg.boundary_steps, &mut blend);
            let new_dist = dfs_linalg::sq_dist(&adv, x).sqrt();
            if new_dist < dist {
                dist = new_dist;
            }
        }

        // The boundary point itself may classify either way; nudge onto the
        // adversarial side by walking back toward the last known adversarial.
        if predict(&adv) != original_label {
            Some(adv)
        } else {
            None
        }
    }

    /// Bisects the segment `[x, adv]` in place, leaving in `adv` the point
    /// closest to `x` that still classifies differently from `original_label`.
    /// `blend` is the caller's interpolation buffer (reused across calls).
    fn bisect_to_boundary(
        predict: &dyn Fn(&[f64]) -> bool,
        x: &[f64],
        adv: &mut [f64],
        original_label: bool,
        steps: usize,
        blend: &mut Vec<f64>,
    ) {
        let mut lo = 0.0f64; // fraction toward adv that is still original side
        let mut hi = 1.0f64; // fraction that is adversarial
        let fill = |out: &mut Vec<f64>, adv: &[f64], t: f64| {
            out.clear();
            out.extend(x.iter().zip(adv).map(|(a, b)| a + t * (b - a)));
        };
        for _ in 0..steps {
            let mid = 0.5 * (lo + hi);
            fill(blend, adv, mid);
            if predict(blend) != original_label {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        fill(blend, adv, hi);
        adv.copy_from_slice(blend);
    }

    /// Empirical safety of a model on a test set, per the paper's § 3.
    ///
    /// Attacks up to `cfg.max_points` test instances; instances the attack
    /// cannot flip keep their original features. Returns
    /// `1 − (F1_original − F1_attacked)` clamped to `[0, 1]` (an attack can only
    /// lower F1, so the clamp handles sampling noise).
    pub fn empirical_safety(
        predict: &(dyn Fn(&[f64]) -> bool + Sync),
        x_test: &Matrix,
        y_test: &[bool],
        cfg: &AttackConfig,
    ) -> f64 {
        empirical_safety_with(predict, x_test, y_test, cfg, &Executor::sequential())
    }

    /// [`empirical_safety`] with per-instance attacks routed through a shared
    /// [`Executor`].
    ///
    /// Each attacked row `i` gets its own RNG seeded
    /// `derive_seed(cfg.seed, i)` and the attacked predictions are reduced in
    /// row order, so the safety score is bit-identical at any thread count.
    pub fn empirical_safety_with(
        predict: &(dyn Fn(&[f64]) -> bool + Sync),
        x_test: &Matrix,
        y_test: &[bool],
        cfg: &AttackConfig,
        exec: &Executor,
    ) -> f64 {
        let n = x_test.nrows().min(cfg.max_points);
        if n == 0 {
            return 1.0;
        }
        // Recorded at the call level, never inside the per-row closure (which
        // may land on collector-less helper threads).
        dfs_obs::counter("attack.rows", n as u64);
        let rows: Vec<usize> = (0..n).collect();
        let x_eval = x_test.select_rows(&rows);
        let y_eval = &y_test[..n];

        let original_preds: Vec<bool> = x_eval.rows_iter().map(|r| predict(r)).collect();
        let f1_original = f1_score(&original_preds, y_eval);

        let attacked_preds: Vec<bool> = exec.par_map_indexed(&rows, |i, _| {
            let mut rng = Rng::seed_from_u64(derive_seed(cfg.seed, i as u64));
            match attack_instance(predict, x_eval.row(i), original_preds[i], cfg, &mut rng) {
                Some(adv) => predict(&adv),
                None => original_preds[i],
            }
        });
        let f1_attacked = f1_score(&attacked_preds, y_eval);
        (1.0 - (f1_original - f1_attacked)).clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dfs_linalg::rng::standard_normal;

    /// Threshold model: positive iff first feature > 0.5.
    fn threshold_model(x: &[f64]) -> bool {
        x[0] > 0.5
    }

    #[test]
    fn attack_flips_threshold_model() {
        let cfg = oracle::AttackConfig::default();
        let mut rng = Rng::seed_from_u64(1);
        let x = vec![0.8, 0.3, 0.3];
        let adv = oracle::attack_instance(&threshold_model, &x, true, &cfg, &mut rng)
            .expect("threshold model must be attackable");
        assert!(!threshold_model(&adv));
        // The adversarial point should be near the boundary along dim 0.
        assert!(adv[0] <= 0.5 + 1e-9, "adv[0] = {}", adv[0]);
        for v in &adv {
            assert!((0.0..=1.0).contains(v));
        }
    }

    #[test]
    fn constant_model_is_unattackable() {
        let cfg = oracle::AttackConfig::default();
        let mut rng = Rng::seed_from_u64(2);
        let constant = |_x: &[f64]| true;
        assert!(oracle::attack_instance(&constant, &[0.5, 0.5], true, &cfg, &mut rng).is_none());
    }

    #[test]
    fn safety_of_constant_model_is_one() {
        let x = Matrix::from_rows(&[vec![0.2, 0.2], vec![0.8, 0.8], vec![0.5, 0.1]]);
        let y = vec![true, true, false];
        let constant = |_x: &[f64]| true;
        let s = empirical_safety(&constant, &x, &y, &AttackConfig::default(), 0);
        assert_eq!(s, 1.0);
    }

    #[test]
    fn fragile_model_has_low_safety() {
        // Many correctly-classified points near the boundary: easy to attack.
        let rows: Vec<Vec<f64>> = (0..20)
            .map(|i| vec![if i % 2 == 0 { 0.6 } else { 0.4 }, 0.5])
            .collect();
        let y: Vec<bool> = (0..20).map(|i| i % 2 == 0).collect();
        let x = Matrix::from_rows(&rows);
        let s = empirical_safety(&threshold_model, &x, &y, &AttackConfig::default(), 3);
        assert!(s < 0.7, "safety unexpectedly high: {s}");
    }

    #[test]
    fn safety_is_within_unit_interval() {
        let x = Matrix::from_rows(&[vec![0.9, 0.1], vec![0.1, 0.9]]);
        let y = vec![true, false];
        let s = empirical_safety(&threshold_model, &x, &y, &AttackConfig::default(), 0);
        assert!((0.0..=1.0).contains(&s));
    }

    #[test]
    fn empty_test_set_is_trivially_safe() {
        let x = Matrix::zeros(0, 3);
        let cfg = AttackConfig::default();
        assert_eq!(empirical_safety(&threshold_model, &x, &[], &cfg, 0), 1.0);
    }

    #[test]
    fn attack_is_deterministic_per_seed() {
        let x = Matrix::from_rows(&[vec![0.7, 0.2], vec![0.3, 0.8], vec![0.6, 0.6]]);
        let y = vec![true, false, true];
        let cfg = AttackConfig::default();
        let a = empirical_safety(&threshold_model, &x, &y, &cfg, 7);
        let b = empirical_safety(&threshold_model, &x, &y, &cfg, 7);
        assert_eq!(a, b);
    }

    #[test]
    fn parallel_safety_is_bit_identical_to_sequential() {
        let x = Matrix::from_rows(&[
            vec![0.7, 0.2],
            vec![0.3, 0.8],
            vec![0.6, 0.6],
            vec![0.55, 0.1],
            vec![0.45, 0.9],
        ]);
        let y = vec![true, false, true, true, false];
        let preds: Vec<bool> = x.rows_iter().map(threshold_model).collect();
        let cfg = AttackConfig::default();
        let seq = empirical_safety(&threshold_model, &x, &y, &cfg, 13);
        let exec = Executor::new(4);
        let par = empirical_safety_with(&threshold_model, &preds, &y, x.ncols(), &cfg, 13, &exec);
        assert_eq!(seq.to_bits(), par.to_bits());
    }

    #[test]
    fn more_features_weaken_safety_on_average() {
        // The paper observes safety negatively correlates with feature count:
        // more dimensions give the adversary more room. Verify the attack
        // reflects that on a linear model with diffuse weights.
        let model_wide = |x: &[f64]| x.iter().sum::<f64>() / x.len() as f64 > 0.5;
        let mk = |d: usize, v: f64| -> (Matrix, Vec<bool>) {
            let rows: Vec<Vec<f64>> = (0..12).map(|_| vec![v; d]).collect();
            (Matrix::from_rows(&rows), vec![v > 0.5; 12])
        };
        let cfg = AttackConfig::default();
        let (x2, y2) = mk(2, 0.62);
        let (x16, y16) = mk(16, 0.62);
        let s2 = empirical_safety(&model_wide, &x2, &y2, &cfg, 11);
        let s16 = empirical_safety(&model_wide, &x16, &y16, &cfg, 11);
        assert!(s16 <= s2 + 0.35, "wide model should not be much safer: {s16} vs {s2}");
    }

    type Model = Box<dyn Fn(&[f64]) -> bool + Sync>;

    /// Logistic model `sigmoid(w·x + b) > 0.5` whose boundary passes
    /// through a random point of the unit cube.
    fn linear_model(d: usize, rng: &mut Rng) -> Model {
        let w: Vec<f64> = (0..d).map(|_| 4.0 * standard_normal(rng)).collect();
        let b = -w.iter().map(|wj| wj * rng.f64()).sum::<f64>();
        Box::new(move |x: &[f64]| {
            let z = w.iter().zip(x).map(|(wj, xj)| wj * xj).sum::<f64>() + b;
            1.0 / (1.0 + (-z).exp()) > 0.5
        })
    }

    /// Complete depth-3 tree of random axis-aligned splits and leaf labels.
    fn tree_model(d: usize, rng: &mut Rng) -> Model {
        let splits: Vec<(usize, f64)> = (0..7).map(|_| (rng.below(d), rng.f64())).collect();
        let leaves: Vec<bool> = (0..8).map(|_| rng.bool()).collect();
        Box::new(move |x: &[f64]| {
            let mut node = 0;
            while node < 7 {
                let (j, t) = splits[node];
                node = 2 * node + 1 + usize::from(x[j] > t);
            }
            leaves[node - 7]
        })
    }

    /// Gaussian naive-Bayes-like quadratic boundary: the log-likelihood
    /// ratio of two diagonal Gaussians with random means and variances.
    fn quadratic_model(d: usize, rng: &mut Rng) -> Model {
        let mut class = || -> Vec<(f64, f64)> {
            (0..d).map(|_| (rng.f64(), 0.02 + 0.3 * rng.f64())).collect()
        };
        let (pos, neg) = (class(), class());
        let log_lik = |params: &[(f64, f64)], x: &[f64]| -> f64 {
            params
                .iter()
                .zip(x)
                .map(|(&(m, v), &xj)| -(xj - m).powi(2) / (2.0 * v) - 0.5 * v.ln())
                .sum()
        };
        Box::new(move |x: &[f64]| log_lik(&pos, x) > log_lik(&neg, x))
    }

    /// The flip test against the three-phase oracle on random closure
    /// models (`d` from 1 to 40, 80 rows per model): every row's attacked
    /// label agrees, and so does Safety, bit for bit, at 1 and at 4
    /// threads.
    #[test]
    fn flip_test_matches_the_three_phase_oracle() {
        const ROWS: usize = 80;
        let mut rng = Rng::seed_from_u64(0x5AFE);
        let (mut flipped, mut kept) = (0usize, 0usize);
        for d in 1..=40 {
            let families: [(&str, Model); 4] = [
                ("linear", linear_model(d, &mut rng)),
                ("tree", tree_model(d, &mut rng)),
                ("quadratic", quadratic_model(d, &mut rng)),
                ("constant", Box::new(|_: &[f64]| true)),
            ];
            for (k, (family, model)) in families.iter().enumerate() {
                let predict: &(dyn Fn(&[f64]) -> bool + Sync) = model.as_ref();
                let rows: Vec<Vec<f64>> =
                    (0..ROWS).map(|_| (0..d).map(|_| rng.f64()).collect()).collect();
                let x = Matrix::from_rows(&rows);
                let y: Vec<bool> = (0..ROWS).map(|_| rng.bool()).collect();
                let preds: Vec<bool> = rows.iter().map(|r| predict(r)).collect();
                let cfg = AttackConfig { max_points: ROWS, init_trials: [1, 4, 16][(d + k) % 3] };
                let seed = rng.next_u64();
                let (steps, iterations, queries) = [(10, 3, 12), (6, 2, 6), (5, 1, 4)][d % 3];
                let full = oracle::AttackConfig::refining(&cfg, seed, steps, iterations, queries);
                for (i, row) in rows.iter().enumerate() {
                    let mut rng = Rng::seed_from_u64(derive_seed(seed, i as u64));
                    let got = flips(predict, d, preds[i], cfg.init_trials, &mut rng);
                    let mut rng = Rng::seed_from_u64(derive_seed(seed, i as u64));
                    let want = oracle::attack_instance(predict, row, preds[i], &full, &mut rng)
                        .is_some_and(|adv| predict(&adv) != preds[i]);
                    assert_eq!(got, want, "{family} model, d = {d}, row {i}");
                    if got {
                        flipped += 1;
                    } else {
                        kept += 1;
                    }
                }
                let want = oracle::empirical_safety(predict, &x, &y, &full);
                for threads in [1, 4] {
                    let exec = Executor::new(threads);
                    let got = empirical_safety_with(predict, &preds, &y, d, &cfg, seed, &exec);
                    let what = format!("{family} model, d = {d}, {threads} threads");
                    assert_eq!(got.to_bits(), want.to_bits(), "{what}");
                }
            }
        }
        // Both outcomes occur often enough for the agreement to mean something.
        assert!(flipped > 2000 && kept > 2000, "flipped {flipped}, kept {kept}");
    }
}
