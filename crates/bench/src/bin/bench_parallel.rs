//! Thread-scaling benchmark for the nested-parallel execution layer.
//!
//! Two measurements at thread budgets 1/2/4/8:
//!
//! 1. **Executor map**: `Executor::par_map_indexed` over fixed-cost CPU
//!    items — the raw scaling ceiling of the permit pool, free of any
//!    benchmark-harness noise.
//! 2. **Benchmark matrix**: the same multi-arm scenario matrix through
//!    `run_benchmark_opts` with `threads = inner_threads = N`, verifying
//!    along the way that every budget produces bit-identical cells (the
//!    determinism contract of DESIGN.md § 4d).
//!
//! Results are printed as JSON and, when a path argument is given, also
//! written there (committed snapshot: `BENCH_parallel.json` in the repo
//! root). The JSON records `host_cpus`: speedups are physically bounded by
//! the cores of the machine that ran the benchmark — regenerate the
//! snapshot on multi-core hardware to see the scaling curve.
//!
//! Run with `cargo run --release -p dfs-bench --bin bench_parallel -- BENCH_parallel.json`.

use dfs_bench::ok_or_exit;
use dfs_constraints::ConstraintSet;
use dfs_core::prelude::Executor;
use dfs_core::runner::{run_benchmark_opts, Arm, BenchmarkMatrix, RunnerOptions};
use dfs_core::{DfsError, MlScenario, ScenarioSettings};
use dfs_data::split::stratified_three_way;
use dfs_data::synthetic::{generate, spec_by_name};
use dfs_data::Split;
use dfs_fs::StrategyId;
use dfs_models::ModelKind;
use dfs_rankings::RankingKind;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::{Duration, Instant};

const BUDGETS: [usize; 4] = [1, 2, 4, 8];

/// Median wall-clock over `reps` runs of `f`, in nanoseconds.
fn median_ns(reps: usize, mut f: impl FnMut()) -> u64 {
    let mut samples: Vec<u64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_nanos() as u64
        })
        .collect();
    samples.sort_unstable();
    samples[samples.len() / 2]
}

/// Fixed-cost CPU work per item: a splitmix-style integer mix, long enough
/// that spawning/permit overhead is a rounding error at any budget.
fn burn(seed: u64, iters: u32) -> u64 {
    let mut z = seed;
    for _ in 0..iters {
        z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut x = z;
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= x ^ (x >> 31);
    }
    z
}

fn bench_executor_map() -> Vec<(usize, u64)> {
    let items: Vec<u64> = (0..64u64).collect();
    let iters = 200_000u32;
    BUDGETS
        .into_iter()
        .map(|threads| {
            let exec = Executor::new(threads);
            let mut sink = 0u64;
            let ns = median_ns(5, || {
                let out = exec.par_map_indexed(&items, |_, &s| burn(s, iters));
                sink ^= out.iter().fold(0, |a, b| a ^ b);
            });
            assert!(sink != 1, "keep the work observable");
            (threads, ns)
        })
        .collect()
}

fn matrix_corpus() -> (HashMap<String, Split>, Vec<MlScenario>, Vec<Arm>) {
    let Some(spec) = spec_by_name("german_credit") else {
        ok_or_exit::<()>(Err(DfsError::UnknownDataset { dataset: "german_credit".into() }));
        unreachable!("ok_or_exit exits on Err");
    };
    let ds = generate(&spec, 29);
    let mut splits = HashMap::new();
    splits.insert("german_credit".to_string(), stratified_three_way(&ds, 29));
    let generous = Duration::from_secs(120);
    let mut with_safety = ConstraintSet::accuracy_only(0.55, generous);
    with_safety.min_safety = Some(0.2);
    let scenarios = vec![
        MlScenario {
            dataset: "german_credit".into(),
            model: ModelKind::DecisionTree,
            hpo: true,
            constraints: ConstraintSet::accuracy_only(0.55, generous),
            utility_f1: false,
            seed: 51,
        },
        MlScenario {
            dataset: "german_credit".into(),
            model: ModelKind::LogisticRegression,
            hpo: false,
            constraints: with_safety,
            utility_f1: false,
            seed: 52,
        },
        MlScenario {
            dataset: "german_credit".into(),
            model: ModelKind::GaussianNb,
            hpo: false,
            constraints: ConstraintSet::accuracy_only(0.60, generous),
            utility_f1: false,
            seed: 53,
        },
    ];
    let arms = vec![
        Arm::Original,
        Arm::Strategy(StrategyId::Sfs),
        Arm::Strategy(StrategyId::Nsga2Nr),
        Arm::Strategy(StrategyId::TpeRanking(RankingKind::Chi2)),
        Arm::Strategy(StrategyId::TpeRanking(RankingKind::ReliefF)),
    ];
    (splits, scenarios, arms)
}

fn cells_match(a: &BenchmarkMatrix, b: &BenchmarkMatrix) -> bool {
    a.results.iter().flatten().zip(b.results.iter().flatten()).all(|(s, p)| {
        s.status == p.status
            && s.success == p.success
            && s.evaluations == p.evaluations
            && s.subset_size == p.subset_size
            && s.val_distance.to_bits() == p.val_distance.to_bits()
            && s.test_distance.to_bits() == p.test_distance.to_bits()
            && s.test_f1.to_bits() == p.test_f1.to_bits()
            && s.perf == p.perf
    })
}

fn bench_matrix() -> (Vec<(usize, u64)>, bool) {
    let (splits, scenarios, arms) = matrix_corpus();
    let mut settings = ScenarioSettings::fast();
    settings.max_evals = 24; // eval-capped: the wall clock never binds
    let run = |threads: usize| {
        let opts = RunnerOptions {
            threads,
            inner_threads: threads,
            ..RunnerOptions::default()
        };
        run_benchmark_opts(&splits, scenarios.clone(), &arms, &settings, &opts)
    };

    let baseline = run(1);
    let mut bit_identical = true;
    let timings = BUDGETS
        .into_iter()
        .map(|threads| {
            let ns = median_ns(3, || {
                let m = run(threads);
                bit_identical &= cells_match(&baseline, &m);
            });
            (threads, ns)
        })
        .collect();
    (timings, bit_identical)
}

fn json_map(samples: &[(usize, u64)]) -> (String, String) {
    let base = samples.first().map(|&(_, ns)| ns).unwrap_or(1).max(1);
    let mut times = String::new();
    let mut speedups = String::new();
    for (i, &(threads, ns)) in samples.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(times, "{sep}\"{threads}\": {ns}");
        let _ = write!(speedups, "{sep}\"{threads}\": {:.2}", base as f64 / ns.max(1) as f64);
    }
    (times, speedups)
}

fn main() {
    let stamp = dfs_bench::stamp::stamp_json_fields();
    let map = bench_executor_map();
    let (matrix, bit_identical) = bench_matrix();

    let (map_ns, map_speedup) = json_map(&map);
    let (mat_ns, mat_speedup) = json_map(&matrix);
    let mut json = String::new();
    let _ = write!(
        json,
        r#"{{
  "bench": "parallel_executor",
  {stamp},
  "note": "speedups are bounded by host_cpus; regenerate on multi-core hardware for the scaling curve",
  "executor_map": {{
    "items": 64,
    "burn_iters_per_item": 200000,
    "median_ns_by_threads": {{{map_ns}}},
    "speedup_vs_1_thread": {{{map_speedup}}}
  }},
  "benchmark_matrix": {{
    "scenarios": 3,
    "arms": 5,
    "median_ns_by_threads": {{{mat_ns}}},
    "speedup_vs_1_thread": {{{mat_speedup}}},
    "bit_identical_across_budgets": {bit_identical}
  }}
}}
"#,
    );

    print!("{json}");
    if !bit_identical {
        eprintln!("[dfs-bench] fatal: thread budgets disagreed; determinism contract violated");
        std::process::exit(1);
    }
    if let Some(path) = std::env::args().nth(1) {
        ok_or_exit(
            std::fs::write(&path, &json)
                .map_err(|source| DfsError::Io { path: PathBuf::from(&path), source }),
        );
        eprintln!("wrote {path}");
    }
}
