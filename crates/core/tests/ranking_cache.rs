//! Regression tests for the shared per-scenario ranking cache.
//!
//! The cache must be a pure execution optimization: sharing it across the
//! cells of a run may only change *how often* rankings are computed, never
//! any strategy outcome. Ranking seeds are derived from (dataset, ranking
//! kind) alone, so the shared and private caches are bit-identical by
//! construction — these tests pin that down end to end against every cell
//! run alone, and assert the headline perf claim: with the shared cache,
//! the runner's warm-up computes each ranking once and no cell computes one
//! at all.

use dfs_constraints::ConstraintSet;
use dfs_core::runner::{run_benchmark_opts, Arm, BenchmarkMatrix, RunnerOptions};
use dfs_core::{MlScenario, ScenarioSettings};
use dfs_data::split::stratified_three_way;
use dfs_data::synthetic::{generate, tiny_spec};
use dfs_data::Split;
use dfs_fs::StrategyId;
use dfs_models::ModelKind;
use dfs_rankings::RankingKind;
use std::collections::HashMap;
use std::time::Duration;

mod common;

fn splits() -> HashMap<String, Split> {
    let ds = generate(&tiny_spec(), 17);
    let mut splits = HashMap::new();
    splits.insert("tiny".to_string(), stratified_three_way(&ds, 17));
    splits
}

fn scenarios() -> Vec<MlScenario> {
    [(0.55, 7), (0.60, 8), (0.65, 9)]
        .into_iter()
        .map(|(min_f1, seed)| MlScenario {
            dataset: "tiny".into(),
            model: ModelKind::DecisionTree,
            hpo: false,
            constraints: ConstraintSet::accuracy_only(min_f1, Duration::from_secs(20)),
            utility_f1: false,
            seed,
        })
        .collect()
}

fn ranking_arms() -> Vec<Arm> {
    RankingKind::ALL
        .into_iter()
        .map(|kind| Arm::Strategy(StrategyId::TpeRanking(kind)))
        .collect()
}

fn settings() -> ScenarioSettings {
    let mut settings = ScenarioSettings::fast();
    settings.max_evals = 12;
    settings
}

fn assert_bit_identical(a: &BenchmarkMatrix, b: &BenchmarkMatrix) {
    for (row_a, row_b) in a.results.iter().zip(&b.results) {
        for (u, c) in row_a.iter().zip(row_b) {
            assert_eq!(u.status, c.status);
            assert_eq!(u.success, c.success);
            assert_eq!(u.val_distance.to_bits(), c.val_distance.to_bits());
            assert_eq!(u.test_distance.to_bits(), c.test_distance.to_bits());
            assert_eq!(u.test_f1.to_bits(), c.test_f1.to_bits());
            assert_eq!(u.evaluations, c.evaluations);
            assert_eq!(u.subset_size, c.subset_size);
        }
    }
}

#[test]
fn shared_ranking_cache_halves_computes_with_bit_identical_results() {
    let alone = common::naive_matrix(&splits(), scenarios(), &ranking_arms(), &settings());
    let opts = RunnerOptions::default();
    let shared = run_benchmark_opts(&splits(), scenarios(), &ranking_arms(), &settings(), &opts);

    assert_bit_identical(&alone, &shared);

    let (pa, ps) = (alone.total_perf(), shared.total_perf());
    // Alone: every TPE(ranking) cell computes its own ranking.
    assert_eq!(pa.ranking_computes, 21, "3 scenarios x 7 ranking arms");
    assert_eq!(pa.ranking_hits, 0);
    // Shared: the runner precomputes all 7 kinds once before any cell
    // runs, so no cell ever computes a ranking — all 21 requests are hits.
    assert_eq!(ps.ranking_computes, 0);
    assert_eq!(ps.ranking_hits, 21);
}
