//! Property-based tests for the FS strategies against a synthetic evaluator.

use dfs_fs::evaluator::{SearchOutcome, SubsetEvaluator};
use dfs_fs::{run_strategy, StrategyId};
use dfs_linalg::Matrix;
use proptest::prelude::*;

/// Synthetic evaluator: distance = weighted symmetric difference to a hidden
/// target subset; also enforces budget and records every proposal.
struct PropEvaluator {
    target: Vec<usize>,
    d: usize,
    cap: usize,
    budget: usize,
    used: usize,
    proposals: Vec<Vec<usize>>,
    x: Matrix,
    y: Vec<bool>,
}

impl PropEvaluator {
    fn new(d: usize, target: Vec<usize>, cap: usize, budget: usize) -> Self {
        let n = 40;
        let mut rows = Vec::with_capacity(n);
        let mut y = Vec::with_capacity(n);
        for i in 0..n {
            let label = i % 2 == 0;
            let mut row = Vec::with_capacity(d);
            for j in 0..d {
                if target.contains(&j) {
                    row.push(if label { 0.9 } else { 0.1 });
                } else {
                    row.push(((i * (j + 5)) as f64 * 0.37) % 1.0);
                }
            }
            rows.push(row);
            y.push(label);
        }
        Self { target, d, cap, budget, used: 0, proposals: Vec::new(), x: Matrix::from_rows(&rows), y }
    }

    fn score(&self, subset: &[usize]) -> f64 {
        let missing = self.target.iter().filter(|t| !subset.contains(t)).count();
        let extra = subset.iter().filter(|f| !self.target.contains(f)).count();
        0.2 * missing as f64 + 0.05 * extra as f64
    }
}

impl SubsetEvaluator for PropEvaluator {
    fn n_features(&self) -> usize {
        self.d
    }
    fn max_features(&self) -> usize {
        self.cap
    }
    fn evaluate(&mut self, subset: &[usize], _bound: Option<f64>) -> Option<f64> {
        assert!(!subset.is_empty(), "empty subset proposed");
        assert!(subset.windows(2).all(|w| w[0] < w[1]), "unsorted/duplicated subset {subset:?}");
        assert!(subset.iter().all(|&f| f < self.d), "out-of-range index in {subset:?}");
        if self.used >= self.budget {
            return None;
        }
        self.used += 1;
        self.proposals.push(subset.to_vec());
        Some(self.score(subset))
    }
    fn evaluate_multi(&mut self, subset: &[usize]) -> Option<Vec<f64>> {
        if self.used >= self.budget {
            return None;
        }
        self.used += 1;
        self.proposals.push(subset.to_vec());
        let missing = self.target.iter().filter(|t| !subset.contains(t)).count();
        let extra = subset.iter().filter(|f| !self.target.contains(f)).count();
        Some(vec![0.2 * missing as f64, 0.05 * extra as f64])
    }
    fn stop_at(&self) -> Option<f64> {
        Some(0.0)
    }
    fn ranking_data(&self) -> (&Matrix, &[bool]) {
        (&self.x, &self.y)
    }
    fn importances(&mut self, subset: &[usize]) -> Option<Vec<f64>> {
        if self.used >= self.budget {
            return None;
        }
        self.used += 1;
        Some(subset.iter().map(|f| if self.target.contains(f) { 1.0 } else { 0.01 }).collect())
    }
    fn seed(&self) -> u64 {
        11
    }
}

fn arb_strategy() -> impl Strategy<Value = StrategyId> {
    prop::sample::select(StrategyId::all())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// Structural invariants for every strategy on arbitrary problems:
    /// proposals are valid (checked inside the evaluator), budget is
    /// respected, outcomes are well-formed, and claimed satisfaction is real.
    #[test]
    fn strategies_are_structurally_sound(
        strategy in arb_strategy(),
        d in 2usize..10,
        target_bits in 1u32..64,
        cap_frac in 0.3..1.0f64,
        budget in 5usize..400,
    ) {
        let target: Vec<usize> = (0..d).filter(|i| target_bits & (1 << i) != 0).collect();
        prop_assume!(!target.is_empty());
        let cap = ((cap_frac * d as f64).ceil() as usize).clamp(1, d);
        let mut ev = PropEvaluator::new(d, target.clone(), cap, budget);
        let outcome: SearchOutcome = run_strategy(strategy, &mut ev);

        prop_assert!(ev.used <= budget, "{} overspent", strategy.name());
        prop_assert_eq!(outcome.evaluations, ev.proposals.len());
        if let Some(sat) = &outcome.satisfied {
            // Claimed satisfaction must be genuine (target hit exactly) and
            // within the cap.
            prop_assert_eq!(sat, &target, "{} false satisfaction", strategy.name());
            prop_assert!(sat.len() <= cap.max(target.len()));
        }
        if !outcome.best_subset.is_empty() {
            prop_assert!(outcome.best_subset.iter().all(|&f| f < d));
        }
    }

    /// Forward selection proposals never exceed the feature cap; exhaustive
    /// search enumerates sizes in non-decreasing order.
    #[test]
    fn pruning_and_ordering_invariants(
        d in 3usize..9,
        cap in 1usize..5,
        budget in 10usize..200,
    ) {
        let mut ev = PropEvaluator::new(d, vec![0], cap.min(d), budget);
        let _ = run_strategy(StrategyId::Sfs, &mut ev);
        for p in &ev.proposals {
            prop_assert!(p.len() <= cap.min(d), "SFS proposed over-cap {p:?}");
        }

        let mut ev = PropEvaluator::new(d, vec![d - 1], cap.min(d), budget);
        let _ = run_strategy(StrategyId::Es, &mut ev);
        for w in ev.proposals.windows(2) {
            prop_assert!(w[0].len() <= w[1].len(), "ES size order violated");
        }
    }
}
