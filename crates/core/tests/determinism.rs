//! Thread-count invariance of the benchmark matrix.
//!
//! The executor's contract (DESIGN.md § 4d) is that `threads = N` changes
//! only wall-clock, never results: per-item seeds are derived from
//! `(parent seed, item index)`, results are reduced in item order, and
//! perf counters are merged in item order. This test runs the same
//! multi-arm matrix fully sequentially and with a 4-thread budget on both
//! loops (outer rows and inner hot loops) and asserts every cell is
//! bit-identical — selections, metrics, statuses and work counters; only
//! the clock-derived `elapsed` may differ.
//!
//! Budgets are deliberately eval-capped with a generous wall clock:
//! wall-clock expiry depends on scheduling and would be a legitimate
//! source of divergence, which is exactly why production budgets bind on
//! evaluations long before time when determinism matters.

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
    let ds = generate(&tiny_spec(), 23);
    let mut splits = HashMap::new();
    splits.insert("tiny".to_string(), stratified_three_way(&ds, 23));
    splits
}

/// Three scenarios chosen to push work through every ported inner loop:
/// an HPO grid search, an adversarial-safety evaluation (per-row attack
/// loop), and a plain accuracy scenario for the NSGA-II / TPE arms.
fn scenarios() -> Vec<MlScenario> {
    let generous = Duration::from_secs(120);
    let mut with_safety = ConstraintSet::accuracy_only(0.55, generous);
    with_safety.min_safety = Some(0.2);
    vec![
        MlScenario {
            dataset: "tiny".into(),
            model: ModelKind::DecisionTree,
            hpo: true,
            constraints: ConstraintSet::accuracy_only(0.55, generous),
            utility_f1: false,
            seed: 41,
        },
        MlScenario {
            dataset: "tiny".into(),
            model: ModelKind::LogisticRegression,
            hpo: false,
            constraints: with_safety,
            utility_f1: false,
            seed: 42,
        },
        MlScenario {
            dataset: "tiny".into(),
            model: ModelKind::GaussianNb,
            hpo: false,
            constraints: ConstraintSet::accuracy_only(0.60, generous),
            utility_f1: false,
            seed: 43,
        },
    ]
}

fn arms() -> Vec<Arm> {
    vec![
        Arm::Original,
        Arm::Strategy(StrategyId::Sfs),
        Arm::Strategy(StrategyId::Nsga2Nr),
        Arm::Strategy(StrategyId::TpeRanking(RankingKind::Chi2)),
        Arm::Strategy(StrategyId::TpeRanking(RankingKind::Mim)),
    ]
}

fn settings(pruning: bool) -> ScenarioSettings {
    let mut settings = ScenarioSettings::fast();
    settings.max_evals = 16; // the eval cap binds, never the wall clock
    settings.bound_pruning = pruning;
    settings
}

fn run(threads: usize) -> BenchmarkMatrix {
    run_configured(threads, true)
}

/// One runner matrix, every cell on the run's shared cache; `pruning`
/// enables the cheap-first lower-bound short-circuit.
fn run_configured(threads: usize, pruning: bool) -> BenchmarkMatrix {
    let opts = RunnerOptions { threads, inner_threads: threads, ..RunnerOptions::default() };
    run_benchmark_opts(&splits(), scenarios(), &arms(), &settings(pruning), &opts)
}

/// Asserts every observable of two matrices is bit-identical: statuses,
/// outcomes, budget trajectories, and metric bit patterns. Work counters
/// are deliberately *not* compared — the shared memo and the bound
/// short-circuit change how often models are fit; that is their whole
/// point.
fn assert_observably_identical(reference: &BenchmarkMatrix, other: &BenchmarkMatrix, label: &str) {
    assert_eq!(reference.arms, other.arms, "{label}: arms");
    assert_eq!(reference.results.len(), other.results.len(), "{label}: rows");
    for (i, (row_r, row_o)) in reference.results.iter().zip(&other.results).enumerate() {
        for (a, (r, o)) in row_r.iter().zip(row_o).enumerate() {
            let at = format!("{label}: scenario {i}, arm {}", reference.arms[a].name());
            assert_eq!(r.status, o.status, "{at}: status");
            assert_eq!(r.success, o.success, "{at}: success");
            assert_eq!(r.evaluations, o.evaluations, "{at}: evaluations");
            assert_eq!(r.subset_size, o.subset_size, "{at}: subset size");
            assert_eq!(r.val_distance.to_bits(), o.val_distance.to_bits(), "{at}: val distance");
            assert_eq!(r.test_distance.to_bits(), o.test_distance.to_bits(), "{at}: test distance");
            assert_eq!(r.test_f1.to_bits(), o.test_f1.to_bits(), "{at}: test F1");
        }
    }
}

#[test]
fn four_thread_matrix_is_bit_identical_to_sequential() {
    let seq = run(1);
    let par = run(4);

    assert_eq!(seq.arms, par.arms);
    assert_eq!(seq.results.len(), par.results.len());
    for (i, (row_s, row_p)) in seq.results.iter().zip(&par.results).enumerate() {
        for (a, (s, p)) in row_s.iter().zip(row_p).enumerate() {
            let at = format!("scenario {i}, arm {}", seq.arms[a].name());
            assert_eq!(s.status, p.status, "{at}: status");
            assert_eq!(s.success, p.success, "{at}: success");
            assert_eq!(s.evaluations, p.evaluations, "{at}: evaluations");
            assert_eq!(s.subset_size, p.subset_size, "{at}: subset size");
            assert_eq!(
                s.val_distance.to_bits(),
                p.val_distance.to_bits(),
                "{at}: val distance"
            );
            assert_eq!(
                s.test_distance.to_bits(),
                p.test_distance.to_bits(),
                "{at}: test distance"
            );
            assert_eq!(s.test_f1.to_bits(), p.test_f1.to_bits(), "{at}: test F1");
            // Work counters are exact counts: they must match too.
            assert_eq!(s.perf, p.perf, "{at}: perf counters");
        }
    }
    // Sanity: the matrix did real work (otherwise the comparison is vacuous).
    assert!(seq.results.iter().flatten().any(|c| c.evaluations > 1));
    let perf = seq.total_perf();
    assert!(perf.model_fits > 0, "no model fits recorded");
}

/// The memoization/pruning soundness contract of DESIGN.md § 4h: the
/// runner's shared evaluation memo, with or without the cheap-first bound
/// short-circuit, at any thread count, must leave every observable of the
/// matrix bit-identical to the naive matrix that runs every cell alone and
/// measures everything exactly, every time.
#[test]
fn memoized_and_pruned_runs_match_the_naive_matrix() {
    let naive = common::naive_matrix(&splits(), scenarios(), &arms(), &settings(false));
    assert!(
        naive.results.iter().flatten().any(|c| c.evaluations > 1),
        "naive reference did no work"
    );
    for threads in [1, 4] {
        for pruning in [false, true] {
            let name = if pruning { "memo+pruning" } else { "memo" };
            let m = run_configured(threads, pruning);
            assert_observably_identical(&naive, &m, &format!("{name} @{threads}t"));
            let perf = m.total_perf();
            assert!(perf.memo_hits > 0, "{name} @{threads}t: memo never hit");
            if !pruning {
                assert_eq!(perf.bound_skips, 0, "{name} @{threads}t: phantom bound skips");
            }
        }
    }
    // The naive matrix shares nothing and never short-circuits: a private
    // memo cannot hit inside one cell.
    let np = naive.total_perf();
    assert_eq!((np.memo_hits, np.bound_skips), (0, 0));
}

/// Two rows on one split — a plain DT row and a Min-Safety DT row with
/// another seed — share their fits through the run's fit store: at any
/// thread count the run's cells equal the naive matrix bit for bit, and
/// the sequential run fits strictly fewer models than the two rows run
/// alone.
#[test]
fn rows_on_one_split_share_fits_and_match_the_naive_matrix() {
    let generous = Duration::from_secs(120);
    let mut with_safety = ConstraintSet::accuracy_only(0.55, generous);
    with_safety.min_safety = Some(0.2);
    let plain = MlScenario {
        dataset: "tiny".into(),
        model: ModelKind::DecisionTree,
        hpo: false,
        constraints: ConstraintSet::accuracy_only(0.55, generous),
        utility_f1: false,
        seed: 41,
    };
    let rows = vec![plain.clone(), MlScenario { constraints: with_safety, seed: 42, ..plain }];
    let run_rows = |rows: Vec<MlScenario>, threads: usize| {
        let opts = RunnerOptions { threads, inner_threads: threads, ..RunnerOptions::default() };
        run_benchmark_opts(&splits(), rows, &arms(), &settings(true), &opts)
    };
    let naive = common::naive_matrix(&splits(), rows.clone(), &arms(), &settings(false));
    for threads in [1, 4] {
        let together = run_rows(rows.clone(), threads);
        assert_observably_identical(&naive, &together, &format!("two rows @{threads}t"));
    }
    let together = run_rows(rows.clone(), 1).total_perf().model_fits;
    let alone: u64 =
        rows.iter().map(|row| run_rows(vec![row.clone()], 1).total_perf().model_fits).sum();
    assert!(together < alone, "two rows fit {together} models, alone {alone}");
}
