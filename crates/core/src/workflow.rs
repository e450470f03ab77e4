//! The DFS workflow of the paper's Figure 2.
//!
//! 1. The strategy proposes feature subsets, each trained and checked
//!    against the constraints on the **validation** split (inside
//!    [`ScenarioContext::evaluate`]).
//! 2. When a subset satisfies everything on validation, it is confirmed on
//!    the **test** split. Only then is the scenario a success.
//! 3. On failure, the best subset's distances on validation and test are
//!    recorded (the paper's Table 4 failure analysis).

use crate::artifacts::ArtifactCache;
use crate::exec::Executor;
use crate::perf::EvalPerf;
use crate::scenario::{MlScenario, ScenarioContext, ScenarioSettings};
use dfs_constraints::Evaluation;
use dfs_data::split::Split;
use dfs_fs::{run_strategy, StrategyId, SubsetEvaluator};
use std::sync::Arc;
use std::time::Duration;

/// Outcome of one strategy on one scenario.
#[derive(Debug, Clone)]
pub struct DfsOutcome {
    /// The strategy that ran.
    pub strategy: StrategyId,
    /// `true` iff a subset satisfied all constraints on validation *and*
    /// the confirmation on test.
    pub success: bool,
    /// The returned feature subset (the satisfying one on success, the
    /// best-distance one otherwise; `None` when nothing was evaluated).
    pub subset: Option<Vec<usize>>,
    /// Best validation objective seen (Eq. 1 distance, or Eq. 2 in utility
    /// mode).
    pub val_score: f64,
    /// Eq. 1 distance of the returned subset on the validation split.
    pub val_distance: f64,
    /// Eq. 1 distance of the returned subset on the test split.
    pub test_distance: f64,
    /// Measured metrics of the returned subset on validation.
    pub val_eval: Option<Evaluation>,
    /// Measured metrics of the returned subset on test.
    pub test_eval: Option<Evaluation>,
    /// Wrapper evaluations consumed.
    pub evaluations: usize,
    /// Wall-clock search time.
    pub elapsed: Duration,
    /// Work counters of the evaluation engine (fits, cache hits).
    pub perf: EvalPerf,
}

/// Runs the full DFS workflow for one strategy, alone: a private
/// [`ArtifactCache`] and every inner loop sequential.
pub fn run_dfs(
    scenario: &MlScenario,
    split: &Split,
    settings: &ScenarioSettings,
    strategy: StrategyId,
) -> DfsOutcome {
    let (artifacts, exec) = (Arc::new(ArtifactCache::new()), Arc::new(Executor::sequential()));
    run_dfs_with_exec(scenario, split, settings, strategy, &artifacts, &exec)
}

/// [`run_dfs`] on a shared [`ArtifactCache`] and a shared [`Executor`].
/// The cache shares rankings, bins and exact subset measurements across
/// the arms of a row (and across rows/requests on the same split); the
/// executor lets the cell's inner hot loops (batched NSGA-II evaluation,
/// HPO grids, attack rows) draw helper threads from the shared permit
/// pool. Both are bit-identical to running alone (see `DESIGN.md` § 4d
/// and § 4h).
pub fn run_dfs_with_exec(
    scenario: &MlScenario,
    split: &Split,
    settings: &ScenarioSettings,
    strategy: StrategyId,
    artifacts: &Arc<ArtifactCache>,
    exec: &Arc<Executor>,
) -> DfsOutcome {
    debug_assert!(scenario.constraints.validate().is_ok(), "invalid constraint set");
    let ctx = ScenarioContext::new(scenario, split, settings)
        .with_artifacts(Arc::clone(artifacts))
        .with_executor(Arc::clone(exec));
    run_dfs_in(ctx, strategy)
}

/// [`run_dfs_with_exec`] on a context the caller built, e.g. one with a
/// deadline ([`ScenarioContext::with_deadline`]) or a warm-only one
/// ([`ScenarioContext::warm_only`]).
pub fn run_dfs_in(mut ctx: ScenarioContext<'_>, strategy: StrategyId) -> DfsOutcome {
    let scenario = ctx.scenario();
    dfs_obs::heartbeat("search");
    let outcome = {
        let _g = dfs_obs::span("search");
        run_strategy(strategy, &mut ctx)
    };
    let elapsed = ctx.elapsed();
    let evaluations = ctx.evals_used();

    // Candidate to report: the satisfying subset if any, else best-scoring.
    let candidate = outcome
        .satisfied
        .clone()
        .or(if outcome.best_subset.is_empty() { None } else { Some(outcome.best_subset.clone()) });

    let Some(subset) = candidate else {
        return DfsOutcome {
            strategy,
            success: false,
            subset: None,
            val_score: outcome.best_score,
            val_distance: f64::INFINITY,
            test_distance: f64::INFINITY,
            val_eval: None,
            test_eval: None,
            evaluations,
            elapsed,
            perf: ctx.perf(),
        };
    };

    let val_eval = ctx.cached_evaluation(&subset);
    let val_distance = val_eval
        .map(|e| scenario.constraints.distance(&e))
        .unwrap_or(f64::INFINITY);
    let satisfied_val = outcome.satisfied.is_some() && val_distance == 0.0;

    // Confirmation on test (always measured so Table 4 can report failed
    // cases' test distance too).
    dfs_obs::heartbeat("confirm");
    let (test_eval, test_distance) = {
        let _g = dfs_obs::span("confirm");
        ctx.confirm_on_test(&subset)
    };
    let success = satisfied_val && test_distance == 0.0;

    DfsOutcome {
        strategy,
        success,
        subset: Some(subset),
        val_score: outcome.best_score,
        val_distance,
        test_distance,
        val_eval,
        test_eval: Some(test_eval),
        evaluations,
        elapsed,
        perf: ctx.perf(),
    }
}

/// The "Original Features" baseline of Table 3: no selection, just the full
/// feature set through the same train/validate/confirm pipeline, alone
/// (see [`run_dfs`]).
pub fn run_original_features(
    scenario: &MlScenario,
    split: &Split,
    settings: &ScenarioSettings,
) -> DfsOutcome {
    let (artifacts, exec) = (Arc::new(ArtifactCache::new()), Arc::new(Executor::sequential()));
    run_original_features_with_exec(scenario, split, settings, &artifacts, &exec)
}

/// [`run_original_features`] on a shared [`ArtifactCache`] and a shared
/// [`Executor`] (see [`run_dfs_with_exec`]).
pub fn run_original_features_with_exec(
    scenario: &MlScenario,
    split: &Split,
    settings: &ScenarioSettings,
    artifacts: &Arc<ArtifactCache>,
    exec: &Arc<Executor>,
) -> DfsOutcome {
    let mut ctx = ScenarioContext::new(scenario, split, settings)
        .with_artifacts(Arc::clone(artifacts))
        .with_executor(Arc::clone(exec));
    let all: Vec<usize> = (0..split.n_features()).collect();
    let val_score = ctx.evaluate(&all, None);
    let elapsed = ctx.elapsed();
    let evaluations = ctx.evals_used();
    let val_eval = ctx.cached_evaluation(&all);
    let val_distance = val_eval
        .map(|e| scenario.constraints.distance(&e))
        .unwrap_or(f64::INFINITY);
    dfs_obs::heartbeat("confirm");
    let (test_eval, test_distance) = {
        let _g = dfs_obs::span("confirm");
        ctx.confirm_on_test(&all)
    };
    // The full set can violate Max Feature Set Size by construction.
    let success = val_score.is_some() && val_distance == 0.0 && test_distance == 0.0;
    DfsOutcome {
        strategy: StrategyId::Es, // placeholder tag; callers label this arm
        success,
        subset: Some(all),
        val_score: val_score.unwrap_or(f64::INFINITY),
        val_distance,
        test_distance,
        val_eval,
        test_eval: Some(test_eval),
        evaluations,
        elapsed,
        perf: ctx.perf(),
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
        // 240-row tiny_spec leaves ~60 test rows, where single-feature F1
        // estimates swing enough to flip val-pass/test-fail; triple the rows
        // so the easy-scenario assertions hold for any RNG backend.
        let mut spec = tiny_spec();
        spec.rows = 720;
        let ds = generate(&spec, 11);
        stratified_three_way(&ds, 11)
    }

    fn scenario(constraints: ConstraintSet) -> MlScenario {
        MlScenario {
            dataset: "tiny".into(),
            model: ModelKind::DecisionTree,
            hpo: false,
            constraints,
            utility_f1: false,
            seed: 2,
        }
    }

    #[test]
    fn easy_scenario_succeeds_end_to_end() {
        let split = setup();
        let sc = scenario(ConstraintSet::accuracy_only(0.55, Duration::from_secs(20)));
        let settings = ScenarioSettings::fast();
        let out = run_dfs(&sc, &split, &settings, StrategyId::Sfs);
        assert!(out.success, "outcome: {out:?}");
        assert_eq!(out.val_distance, 0.0);
        assert_eq!(out.test_distance, 0.0);
        assert!(out.subset.is_some());
        assert!(out.evaluations > 0);
    }

    #[test]
    fn impossible_scenario_fails_with_finite_distances() {
        let split = setup();
        // Perfect F1 on noisy data is unreachable.
        let sc = scenario(ConstraintSet::accuracy_only(1.0, Duration::from_secs(5)));
        let mut settings = ScenarioSettings::fast();
        settings.max_evals = 30;
        let out = run_dfs(&sc, &split, &settings, StrategyId::TpeNr);
        assert!(!out.success);
        assert!(out.val_distance > 0.0 && out.val_distance.is_finite());
        assert!(out.test_distance > 0.0 && out.test_distance.is_finite());
    }

    #[test]
    fn validation_success_is_confirmed_on_test() {
        // Success requires BOTH validation and test satisfaction; verify the
        // test leg actually ran by checking the recorded test evaluation.
        let split = setup();
        let sc = scenario(ConstraintSet::accuracy_only(0.5, Duration::from_secs(20)));
        let settings = ScenarioSettings::fast();
        let out = run_dfs(&sc, &split, &settings, StrategyId::Sffs);
        if out.success {
            let test_eval = out.test_eval.expect("test eval present on success");
            assert!(test_eval.f1 >= 0.5, "test F1 {}", test_eval.f1);
        }
    }

    #[test]
    fn original_features_baseline_runs() {
        let split = setup();
        let sc = scenario(ConstraintSet::accuracy_only(0.5, Duration::from_secs(20)));
        let settings = ScenarioSettings::fast();
        let out = run_original_features(&sc, &split, &settings);
        assert_eq!(out.subset.as_ref().map(|s| s.len()), Some(split.n_features()));
        assert_eq!(out.evaluations, 1);
    }

    #[test]
    fn feature_cap_constraint_fails_the_original_baseline() {
        let split = setup();
        let mut c = ConstraintSet::accuracy_only(0.4, Duration::from_secs(20));
        c.max_feature_frac = Some(0.2);
        let sc = scenario(c);
        let settings = ScenarioSettings::fast();
        let out = run_original_features(&sc, &split, &settings);
        assert!(!out.success, "full set must violate a 20% feature cap");
        // While forward selection can satisfy it.
        let out2 = run_dfs(&sc, &split, &settings, StrategyId::Sfs);
        if out2.success {
            let n = out2.subset.unwrap().len();
            assert!(n as f64 <= 0.2 * split.n_features() as f64);
        }
    }
}
