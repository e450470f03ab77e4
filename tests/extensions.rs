//! Integration tests for the extension surfaces: the alternative fairness
//! metrics, the dynamic-switching strategy, and the CSV → CLI-style pipeline.

use dfs_repro::core::prelude::*;
use dfs_repro::data::preprocess::fit_transform;
use dfs_repro::data::split::stratified_three_way;
use dfs_repro::data::synthetic::{generate, generate_raw, tiny_spec};
use dfs_repro::metrics::{
    discrimination_ratio, equal_opportunity, generalized_entropy_index, statistical_parity,
};
use dfs_repro::models::ModelSpec;
use std::time::Duration;

#[test]
fn alternative_fairness_metrics_agree_directionally_with_eo() {
    // Train a model on biased data with and without the protected/proxy
    // columns. A single split's EO estimate is noisy (TPR gaps on a few
    // hundred test rows swing by ±0.1), so the directional claim — pruning
    // group-revealing features does not *hurt* fairness — is checked on
    // averages over several seeds; range validity is checked everywhere.
    let mut spec = tiny_spec();
    spec.rows = 1500;
    spec.label_bias = 1.2;
    let mut sums = [0.0f64; 6]; // eo_all, eo_cut, sp_all, sp_cut, dr_all, dr_cut
    let seeds = [5u64, 6, 7, 8, 9, 10, 11, 12];
    for &seed in &seeds {
        let ds = generate(&spec, seed);
        let split = stratified_three_way(&ds, seed);
        let all: Vec<usize> = (0..ds.n_features()).collect();
        // Columns 0 = protected; informative block starts at 1.
        let unbiased: Vec<usize> = (1..=spec.informative).collect();

        let metrics_for = |subset: &[usize]| {
            let x_train = split.train.x.select_cols(subset);
            let model = ModelSpec::default_for(ModelKind::LogisticRegression)
                .fit(&x_train, &split.train.y);
            let preds = model.predict(&split.test.x.select_cols(subset));
            (
                equal_opportunity(&preds, &split.test.y, &split.test.protected),
                statistical_parity(&preds, &split.test.protected),
                discrimination_ratio(&preds, &split.test.y, &split.test.protected),
                generalized_entropy_index(&preds, &split.test.y),
            )
        };
        let (eo_all, sp_all, dr_all, gei_all) = metrics_for(&all);
        let (eo_cut, sp_cut, dr_cut, gei_cut) = metrics_for(&unbiased);
        for v in [eo_all, eo_cut, sp_all, sp_cut, dr_all, dr_cut] {
            assert!((0.0..=1.0).contains(&v));
        }
        assert!(gei_all >= 0.0 && gei_cut >= 0.0, "GEI must be non-negative");
        for (acc, v) in sums.iter_mut().zip([eo_all, eo_cut, sp_all, sp_cut, dr_all, dr_cut]) {
            *acc += v;
        }
    }
    let n = seeds.len() as f64;
    let [eo_all, eo_cut, sp_all, sp_cut, dr_all, dr_cut] = sums.map(|v| v / n);
    assert!(eo_cut >= eo_all - 0.05, "EO: {eo_cut} vs {eo_all}");
    assert!(sp_cut >= sp_all - 0.05, "parity: {sp_cut} vs {sp_all}");
    assert!(dr_cut >= dr_all - 0.05, "ratio: {dr_cut} vs {dr_all}");
}

#[test]
fn switching_runner_is_never_worse_formed_than_static() {
    let mut spec = tiny_spec();
    spec.rows = 300;
    let ds = generate(&spec, 9);
    let split = stratified_three_way(&ds, 9);
    let scenario = MlScenario {
        dataset: ds.name.clone(),
        model: ModelKind::DecisionTree,
        hpo: false,
        constraints: ConstraintSet::accuracy_only(0.55, Duration::from_secs(20)),
        utility_f1: false,
        seed: 3,
    };
    let mut settings = ScenarioSettings::fast();
    settings.max_evals = 150;
    let switched = run_dfs(&scenario, &split, &settings, StrategyId::Switching);
    // The schedule starts with SFFS; on an easy scenario both must succeed
    // and the switcher should not have needed a second strategy, so it
    // answers exactly like SFFS run alone.
    let static_run = run_dfs(&scenario, &split, &settings, StrategyId::Sffs);
    assert!(static_run.success, "{static_run:?}");
    assert_eq!(switched.strategy.name(), "auto");
    assert_eq!(switched.success, static_run.success);
    assert_eq!(switched.subset, static_run.subset);
    assert_eq!(switched.evaluations, static_run.evaluations);
    assert_eq!(switched.val_distance.to_bits(), static_run.val_distance.to_bits());
    assert_eq!(switched.test_distance.to_bits(), static_run.test_distance.to_bits());
}

#[test]
fn csv_pipeline_feeds_the_full_workflow() {
    // RawDataset -> CSV -> parse -> preprocess -> DFS: the CLI's path.
    let mut spec = tiny_spec();
    spec.rows = 260;
    spec.missing_rate = 0.05;
    let raw = generate_raw(&spec, 12);
    let csv = dfs_repro::data::csv::to_csv_string(&raw);
    let parsed = dfs_repro::data::csv::from_csv_string(&csv).expect("csv parse");
    let ds = fit_transform(&parsed);
    assert!(ds.validate().is_ok());

    let split = stratified_three_way(&ds, 12);
    let scenario = MlScenario {
        dataset: ds.name.clone(),
        model: ModelKind::GaussianNb,
        hpo: false,
        constraints: ConstraintSet::accuracy_only(0.5, Duration::from_secs(20)),
        utility_f1: false,
        seed: 12,
    };
    let out = run_dfs(&scenario, &split, &ScenarioSettings::fast(), StrategyId::Sfs);
    assert!(out.evaluations > 0);
    if out.success {
        assert!(!out.subset.expect("subset").is_empty());
    }
}
