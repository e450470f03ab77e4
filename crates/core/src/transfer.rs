//! Feature-set reusability across models (paper Table 7).
//!
//! DFS enforces constraints at the *feature* level, so a natural question is
//! whether a subset found for one model (the paper uses LR) still satisfies
//! the constraints when a different model (DT, NB, SVM) is trained on it.
//! [`check_transfer`] retrains the target model on the same subset and
//! re-checks each constraint on the test split.

use crate::scenario::{MlScenario, ScenarioSettings};
use dfs_data::split::Split;
use dfs_linalg::rng::derive_seed;
use dfs_metrics::{empirical_safety, equal_opportunity, f1_score};
use dfs_models::hpo::fit_maybe_hpo;
use dfs_models::{ModelKind, ModelSpec};

/// Per-constraint satisfaction of a transferred feature set.
#[derive(Debug, Clone, Copy)]
pub struct TransferResult {
    /// The model the subset was re-evaluated under.
    pub target_model: ModelKind,
    /// Min-Accuracy (F1) still satisfied.
    pub accuracy_holds: bool,
    /// Min-EO still satisfied (`None` when the scenario had no EO
    /// constraint).
    pub eo_holds: Option<bool>,
    /// Min-Safety still satisfied (`None` when unconstrained).
    pub safety_holds: Option<bool>,
    /// Measured test F1 under the target model.
    pub test_f1: f64,
}

/// Retrains `target_model` on `subset` and checks the scenario's
/// evaluation-dependent constraints on the test split.
///
/// Feature-set size and privacy are model-independent (size trivially
/// transfers; privacy holds for whichever DP variant is trained), so the
/// paper's Table 7 focuses on accuracy, EO and safety — as does this check.
pub fn check_transfer(
    scenario: &MlScenario,
    split: &Split,
    settings: &ScenarioSettings,
    subset: &[usize],
    target_model: ModelKind,
) -> TransferResult {
    assert!(!subset.is_empty(), "check_transfer: empty subset");
    let x_train = split.train.x.select_cols(subset);
    let x_val = split.val.x.select_cols(subset);
    let x_test = split.test.x.select_cols(subset);

    let model = match scenario.constraints.privacy_epsilon {
        Some(eps) => {
            let spec = ModelSpec::default_for(target_model);
            spec.fit_dp(&x_train, &split.train.y, eps, derive_seed(scenario.seed, 0x7AF))
        }
        None => {
            let (_, m) = fit_maybe_hpo(
                target_model,
                scenario.hpo,
                &x_train,
                &split.train.y,
                &x_val,
                &split.val.y,
            );
            m
        }
    };

    let preds = model.predict(&x_test);
    let test_f1 = f1_score(&preds, &split.test.y);
    let accuracy_holds = test_f1 >= scenario.constraints.min_f1;

    let eo_holds = scenario.constraints.min_eo.map(|min_eo| {
        equal_opportunity(&preds, &split.test.y, &split.test.protected) >= min_eo
    });

    let safety_holds = scenario.constraints.min_safety.map(|min_safety| {
        let seed = derive_seed(scenario.seed, 0x5AFE);
        let predict = |row: &[f64]| model.predict_one(row);
        empirical_safety(&predict, &x_test, &split.test.y, &settings.attack, seed) >= min_safety
    });

    TransferResult { target_model, accuracy_holds, eo_holds, safety_holds, test_f1 }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dfs_constraints::ConstraintSet;
    use dfs_data::split::stratified_three_way;
    use dfs_data::synthetic::{generate, tiny_spec};
    use std::time::Duration;

    fn setup() -> Split {
        let ds = generate(&tiny_spec(), 21);
        stratified_three_way(&ds, 21)
    }

    fn lr_scenario(constraints: ConstraintSet) -> MlScenario {
        MlScenario {
            dataset: "tiny".into(),
            model: ModelKind::LogisticRegression,
            hpo: false,
            constraints,
            utility_f1: false,
            seed: 9,
        }
    }

    #[test]
    fn informative_subset_transfers_accuracy_across_models() {
        let split = setup();
        let sc = lr_scenario(ConstraintSet::accuracy_only(0.55, Duration::from_secs(5)));
        let settings = ScenarioSettings::fast();
        // Informative features of the tiny spec live at columns 1..=4.
        let subset = vec![1, 2, 3, 4];
        for target in [ModelKind::DecisionTree, ModelKind::GaussianNb, ModelKind::LinearSvm] {
            let r = check_transfer(&sc, &split, &settings, &subset, target);
            assert_eq!(r.target_model, target);
            assert!(
                r.accuracy_holds,
                "{target:?} failed to transfer: f1 {}",
                r.test_f1
            );
            assert!(r.eo_holds.is_none(), "no EO constraint declared");
        }
    }

    #[test]
    fn constrained_metrics_are_reported_when_declared() {
        let split = setup();
        let mut c = ConstraintSet::accuracy_only(0.5, Duration::from_secs(5));
        c.min_eo = Some(0.8);
        c.min_safety = Some(0.8);
        let sc = lr_scenario(c);
        let settings = ScenarioSettings::fast();
        let r = check_transfer(&sc, &split, &settings, &[1, 2], ModelKind::DecisionTree);
        assert!(r.eo_holds.is_some());
        assert!(r.safety_holds.is_some());
    }

    #[test]
    fn nonsense_subset_fails_accuracy_transfer() {
        let split = setup();
        let sc = lr_scenario(ConstraintSet::accuracy_only(0.95, Duration::from_secs(5)));
        let settings = ScenarioSettings::fast();
        // The protected bit alone cannot reach F1 0.95.
        let r = check_transfer(&sc, &split, &settings, &[0], ModelKind::GaussianNb);
        assert!(!r.accuracy_holds);
    }
}
