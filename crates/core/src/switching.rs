//! Dynamic strategy switching — the paper's first "future work" direction.
//!
//! > "One could learn an additional model that estimates after each feature
//! > evaluation whether the chosen strategy is likely to converge within the
//! > user-specified search time. If this estimate is pessimistic, we can
//! > switch to a different strategy." (§ 7, Meta learning)
//!
//! This module implements the mechanism with a simple convergence estimate:
//! the search runs a priority list of strategies; each strategy receives a
//! slice of the remaining budget, and is abandoned early when its best
//! distance has stopped improving (a stall detector plays the role of the
//! pessimistic convergence model). Later strategies are warm-started through
//! the scenario's evaluation cache — re-proposed subsets are free, which is
//! exactly the "warm-started based on the experience gained in previous
//! runs" the paper sketches.

use crate::scenario::{MlScenario, ScenarioContext, ScenarioSettings};
use dfs_data::split::Split;
use dfs_fs::{run_strategy, StrategyId, SubsetEvaluator};
use std::time::Duration;

/// Configuration for the switching runner.
#[derive(Debug, Clone)]
pub struct SwitchConfig {
    /// Strategies in priority order.
    pub schedule: Vec<StrategyId>,
    /// Fraction of the *remaining* wall budget granted per attempt.
    pub slice_fraction: f64,
    /// Evaluations without improvement before a strategy is abandoned
    /// (the "pessimistic convergence estimate").
    pub stall_limit: usize,
}

impl Default for SwitchConfig {
    fn default() -> Self {
        Self {
            // Fast greedy first, then ranking-based, then global search —
            // mirrors the paper's Table 8 portfolio intuition.
            schedule: vec![
                StrategyId::Sffs,
                StrategyId::TpeRanking(dfs_rankings::RankingKind::Fcbf),
                StrategyId::TpeNr,
            ],
            slice_fraction: 0.4,
            stall_limit: 40,
        }
    }
}

/// Outcome of a switching run.
#[derive(Debug, Clone)]
pub struct SwitchOutcome {
    /// The strategy that produced the returned subset.
    pub winner: Option<StrategyId>,
    /// Strategies attempted, in order.
    pub attempted: Vec<StrategyId>,
    /// `true` iff a subset satisfied validation and the test confirmation.
    pub success: bool,
    /// The returned subset.
    pub subset: Option<Vec<usize>>,
    /// Total wrapper evaluations across all attempts.
    pub evaluations: usize,
    /// Total elapsed time.
    pub elapsed: Duration,
}

/// Runs the schedule with per-attempt budget slices and cache warm-starts.
///
/// Each attempt gets `slice_fraction` of the time left (the final attempt
/// gets everything). Attempts share one [`ScenarioContext`], so evaluations
/// from earlier strategies warm-start later ones for free.
pub fn run_with_switching(
    scenario: &MlScenario,
    split: &Split,
    settings: &ScenarioSettings,
    cfg: &SwitchConfig,
) -> SwitchOutcome {
    assert!(!cfg.schedule.is_empty(), "run_with_switching: empty schedule");
    assert!(
        (0.0..=1.0).contains(&cfg.slice_fraction),
        "run_with_switching: slice_fraction outside [0,1]"
    );
    let total_budget = scenario.constraints.max_search_time;
    let mut ctx = ScenarioContext::new(scenario, split, settings);
    let mut attempted = Vec::new();
    let mut best: Option<(StrategyId, Vec<usize>, f64)> = None;

    for (i, &strategy) in cfg.schedule.iter().enumerate() {
        let remaining = total_budget.saturating_sub(ctx.elapsed());
        if remaining.is_zero() {
            break;
        }
        let is_last = i + 1 == cfg.schedule.len();
        let slice = if is_last {
            remaining
        } else {
            remaining.mul_f64(cfg.slice_fraction)
        };
        attempted.push(strategy);

        // Run the strategy against a budget-sliced view of the context.
        let outcome = {
            let slice_start = ctx.elapsed();
            let mut sliced = SlicedContext {
                inner: &mut ctx,
                slice_start,
                deadline: slice,
                best_seen: f64::INFINITY,
                since_improvement: 0,
                stall_limit: cfg.stall_limit,
            };
            run_strategy(strategy, &mut sliced)
        };
        let better = match (&outcome.satisfied, &best) {
            (Some(_), _) => true,
            (None, None) => !outcome.best_subset.is_empty(),
            (None, Some((_, _, score))) => outcome.best_score < *score,
        };
        if better {
            let subset =
                outcome.satisfied.clone().unwrap_or_else(|| outcome.best_subset.clone());
            best = Some((strategy, subset, outcome.best_score));
        }
        if outcome.satisfied.is_some() {
            break; // validation-satisfied: stop switching, go confirm
        }
    }

    let evaluations = ctx.evals_used();
    let elapsed = ctx.elapsed();
    match best {
        Some((strategy, subset, score)) if !subset.is_empty() => {
            let satisfied_val = score <= 0.0;
            let (_, test_distance) = ctx.confirm_on_test(&subset);
            SwitchOutcome {
                winner: Some(strategy),
                attempted,
                success: satisfied_val && test_distance == 0.0,
                subset: Some(subset),
                evaluations,
                elapsed,
            }
        }
        _ => SwitchOutcome {
            winner: None,
            attempted,
            success: false,
            subset: None,
            evaluations,
            elapsed,
        },
    }
}

/// A budget-sliced view of a scenario context: forwards everything, but
/// reports budget exhaustion once this attempt's slice is spent *or* the
/// best score has stalled for `stall_limit` evaluations — the stall detector
/// is the simple stand-in for the paper's learned convergence estimator.
struct SlicedContext<'a, 'b> {
    inner: &'a mut ScenarioContext<'b>,
    slice_start: Duration,
    deadline: Duration,
    best_seen: f64,
    since_improvement: usize,
    stall_limit: usize,
}

impl SlicedContext<'_, '_> {
    fn slice_exhausted(&self) -> bool {
        self.inner.elapsed().saturating_sub(self.slice_start) >= self.deadline
            || self.since_improvement >= self.stall_limit
    }

    fn note(&mut self, score: Option<f64>) -> Option<f64> {
        if let Some(s) = score {
            if s < self.best_seen - 1e-12 {
                self.best_seen = s;
                self.since_improvement = 0;
            } else {
                self.since_improvement += 1;
            }
        }
        score
    }
}

impl SubsetEvaluator for SlicedContext<'_, '_> {
    fn n_features(&self) -> usize {
        self.inner.n_features()
    }
    fn max_features(&self) -> usize {
        self.inner.max_features()
    }
    fn evaluate(&mut self, subset: &[usize], bound: Option<f64>) -> Option<f64> {
        // Forward the caller's incumbent so the inner context's cheap-first
        // short-circuit stays in play. A lower-bound answer exceeds the
        // incumbent by contract, so it feeds the stall detector exactly
        // like the exact score would (no improvement either way).
        if self.slice_exhausted() {
            return None;
        }
        let score = self.inner.evaluate(subset, bound);
        self.note(score)
    }
    fn evaluate_no_prune(&mut self, subset: &[usize], bound: Option<f64>) -> Option<f64> {
        if self.slice_exhausted() {
            return None;
        }
        let score = self.inner.evaluate_no_prune(subset, bound);
        self.note(score)
    }
    fn evaluate_multi(&mut self, subset: &[usize]) -> Option<Vec<f64>> {
        if self.slice_exhausted() {
            return None;
        }
        let objectives = self.inner.evaluate_multi(subset);
        if let Some(objs) = &objectives {
            self.note(Some(objs.iter().sum()));
        }
        objectives
    }
    fn stop_at(&self) -> Option<f64> {
        self.inner.stop_at()
    }
    fn ranking_data(&self) -> (&dfs_linalg::Matrix, &[bool]) {
        self.inner.ranking_data()
    }
    fn ranking(&mut self, kind: dfs_rankings::RankingKind) -> dfs_rankings::Ranking {
        // Forward so the inner context's artifact cache stays in play.
        self.inner.ranking(kind)
    }
    fn importances(&mut self, subset: &[usize]) -> Option<Vec<f64>> {
        if self.slice_exhausted() {
            return None;
        }
        self.inner.importances(subset)
    }
    fn seed(&self) -> u64 {
        self.inner.seed()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dfs_constraints::ConstraintSet;
    use dfs_data::split::stratified_three_way;
    use dfs_data::synthetic::{generate, tiny_spec};
    use dfs_models::ModelKind;

    fn setup() -> Split {
        let mut spec = tiny_spec();
        spec.rows = 260;
        stratified_three_way(&generate(&spec, 33), 33)
    }

    fn scenario(min_f1: f64, time: Duration) -> MlScenario {
        MlScenario {
            dataset: "tiny".into(),
            model: ModelKind::DecisionTree,
            hpo: false,
            constraints: ConstraintSet::accuracy_only(min_f1, time),
            utility_f1: false,
            seed: 8,
        }
    }

    #[test]
    fn easy_scenario_is_won_by_the_first_strategy() {
        let split = setup();
        let sc = scenario(0.55, Duration::from_secs(20));
        let settings = ScenarioSettings::fast();
        let out = run_with_switching(&sc, &split, &settings, &SwitchConfig::default());
        assert!(out.success, "{out:?}");
        assert_eq!(out.attempted.len(), 1, "should not switch on an easy scenario");
        assert_eq!(out.winner, Some(StrategyId::Sffs));
    }

    #[test]
    fn hopeless_scenario_exhausts_the_schedule() {
        let split = setup();
        let sc = scenario(1.0, Duration::from_millis(300));
        let settings = ScenarioSettings::fast();
        let cfg = SwitchConfig { stall_limit: 5, ..SwitchConfig::default() };
        let out = run_with_switching(&sc, &split, &settings, &cfg);
        assert!(!out.success);
        // The stall detector must have moved past the first strategy well
        // within the budget.
        assert!(out.attempted.len() >= 2, "attempted {:?}", out.attempted);
        assert!(out.subset.is_some(), "best-effort subset still reported");
    }

    #[test]
    fn schedule_and_slice_validation() {
        let split = setup();
        let sc = scenario(0.5, Duration::from_secs(1));
        let settings = ScenarioSettings::fast();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_with_switching(
                &sc,
                &split,
                &settings,
                &SwitchConfig { schedule: vec![], ..SwitchConfig::default() },
            )
        }));
        assert!(result.is_err(), "empty schedule must panic");
    }

    #[test]
    fn evaluations_accumulate_across_attempts() {
        let split = setup();
        let sc = scenario(0.995, Duration::from_millis(400));
        let settings = ScenarioSettings::fast();
        let cfg = SwitchConfig { stall_limit: 4, ..SwitchConfig::default() };
        let out = run_with_switching(&sc, &split, &settings, &cfg);
        assert!(out.evaluations > 0);
        assert!(out.elapsed <= Duration::from_secs(5));
    }
}
