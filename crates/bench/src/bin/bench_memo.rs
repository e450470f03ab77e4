//! Before/after benchmark for the cross-arm subset-evaluation memo and the
//! cheap-first bound pruning (DESIGN.md § 4h).
//!
//! Runs the same multi-arm benchmark matrix two ways on one thread:
//!
//! - **naive** — every cell alone through the public workflow (its own
//!   private cache), bound pruning off: every arm re-measures every subset
//!   it proposes;
//! - **optimized** — the production configuration: the runner's one
//!   `ArtifactCache` shared across all cells, plus the lower-bound
//!   short-circuit inside the sequential strategies.
//!
//! The arm set leans on the heavy overlap the memo exploits: SFS and SFFS
//! walk identical prefixes, SBS/SBFS walk identical drop paths from the
//! full set the Original arm also measures, and two scenarios differing
//! only in their F1 threshold share every measurement (thresholds are
//! excluded from the memo key). One scenario carries a Min Safety
//! constraint so the bound short-circuit has an expensive attack stage to
//! skip.
//!
//! Every cell of the two matrices is asserted bit-identical — statuses,
//! evaluation counts, subset sizes, distance/F1 bit patterns — and the
//! acceptance bar is a ≥ 2x reduction in total model fits. The process
//! exits nonzero when either fails, in `--smoke` mode too.
//!
//! The two sides are timed in interleaved pairs; `wall_ms` is each side's
//! median and `wall_speedup` the median per-pair naive/optimized ratio,
//! with its quartiles in `wall_speedup_iqr`.
//!
//! Results are printed as JSON and, when a path argument is given, also
//! written there (committed snapshot: `BENCH_memo.json` in the repo root).
//!
//! Run with `scripts/bench-snapshots.sh` (both snapshots at one commit),
//! or alone with `cargo run --release -p dfs-bench --bin bench_memo -- BENCH_memo.json`.

use dfs_bench::ok_or_exit;
use dfs_bench::timing::paired_ns;
use dfs_constraints::ConstraintSet;
use dfs_core::runner::{run_benchmark_opts, Arm, BenchmarkMatrix, RunnerOptions};
use dfs_core::{DfsError, MlScenario, ScenarioSettings};
use dfs_data::split::stratified_three_way;
use dfs_data::synthetic::{generate, tiny_spec};
use dfs_data::Split;
use dfs_fs::StrategyId;
use dfs_models::ModelKind;
use dfs_rankings::RankingKind;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Duration;

fn splits() -> HashMap<String, Split> {
    let ds = generate(&tiny_spec(), 23);
    let mut splits = HashMap::new();
    splits.insert("tiny".to_string(), stratified_three_way(&ds, 23));
    splits
}

/// Nine scenarios built around threshold-only variation — the shape of
/// the paper's constraint-grid benchmarks, and the memo's best case since
/// thresholds are excluded from the memo key: four DT rows differing only
/// in the F1 threshold share every measurement, as do four LR rows
/// differing only in the safety threshold (and carrying an attack stage
/// for the bound short-circuit to skip). The HPO row makes each fit a
/// seven-point grid, so its within-row cross-arm hits save the most work.
fn scenarios() -> Vec<MlScenario> {
    let generous = Duration::from_secs(120);
    let dt = |min_f1: f64| MlScenario {
        dataset: "tiny".into(),
        model: ModelKind::DecisionTree,
        hpo: false,
        constraints: ConstraintSet::accuracy_only(min_f1, generous),
        utility_f1: false,
        seed: 41,
    };
    let lr = |min_safety: f64| {
        // The unreachable F1 bar keeps every candidate short of it, so the
        // round incumbent stays positive and the cheap F1 shortfall alone
        // can prove a candidate worse — the bound short-circuit then skips
        // its evasion attack.
        let mut c = ConstraintSet::accuracy_only(0.9, generous);
        c.min_safety = Some(min_safety);
        MlScenario {
            dataset: "tiny".into(),
            model: ModelKind::LogisticRegression,
            hpo: false,
            constraints: c,
            utility_f1: false,
            seed: 42,
        }
    };
    vec![
        dt(0.5),
        dt(0.55),
        dt(0.6),
        dt(0.7),
        lr(0.2),
        lr(0.25),
        lr(0.3),
        lr(0.35),
        MlScenario {
            dataset: "tiny".into(),
            model: ModelKind::DecisionTree,
            hpo: true,
            constraints: ConstraintSet::accuracy_only(0.55, generous),
            utility_f1: false,
            seed: 43,
        },
    ]
}

fn arms() -> Vec<Arm> {
    vec![
        Arm::Original,
        Arm::Strategy(StrategyId::Sfs),
        Arm::Strategy(StrategyId::Sffs),
        Arm::Strategy(StrategyId::Sbs),
        Arm::Strategy(StrategyId::Sbfs),
        Arm::Strategy(StrategyId::Nsga2Nr),
        Arm::Strategy(StrategyId::TpeRanking(RankingKind::Chi2)),
    ]
}

fn run(max_evals: usize, optimized: bool) -> BenchmarkMatrix {
    let mut settings = ScenarioSettings::fast();
    settings.max_evals = max_evals; // the eval cap binds, never the wall clock
    settings.bound_pruning = optimized;
    if optimized {
        let opts = RunnerOptions { threads: 1, inner_threads: 1, ..RunnerOptions::default() };
        run_benchmark_opts(&splits(), scenarios(), &arms(), &settings, &opts)
    } else {
        dfs_bench::naive_matrix(&splits(), scenarios(), &arms(), &settings)
    }
}

/// Observable-level bit-identity between two matrices: everything except
/// the clock-derived timings and the work counters the memo changes by
/// design.
fn matrices_identical(a: &BenchmarkMatrix, b: &BenchmarkMatrix) -> bool {
    a.arms == b.arms
        && a.results.len() == b.results.len()
        && a.results.iter().zip(&b.results).all(|(ra, rb)| {
            ra.len() == rb.len()
                && ra.iter().zip(rb).all(|(ca, cb)| {
                    ca.status == cb.status
                        && ca.success == cb.success
                        && ca.evaluations == cb.evaluations
                        && ca.subset_size == cb.subset_size
                        && ca.val_distance.to_bits() == cb.val_distance.to_bits()
                        && ca.test_distance.to_bits() == cb.test_distance.to_bits()
                        && ca.test_f1.to_bits() == cb.test_f1.to_bits()
                })
        })
}

fn main() {
    let stamp = dfs_bench::stamp::stamp_json_fields();
    let mut smoke = false;
    let mut out_path: Option<String> = None;
    for arg in std::env::args().skip(1) {
        if arg == "--smoke" {
            smoke = true;
        } else {
            out_path = Some(arg);
        }
    }
    let max_evals = if smoke { 16 } else { 24 };
    let pairs = if smoke { 3 } else { 9 };

    // The two sides run in interleaved pairs (the order alternating), so a
    // slow host period stretches both halves of a pair alike and the
    // per-pair ratio holds still where single timings drift.
    let (mut naive, mut optimized) = (None, None);
    let (naive_ns, optimized_ns, speedup) = paired_ns(
        pairs,
        1,
        |_| naive = Some(run(max_evals, false)),
        |_| optimized = Some(run(max_evals, true)),
    );
    let (Some(naive), Some(optimized)) = (naive, optimized) else {
        unreachable!("every pair runs both sides")
    };
    let (naive_ms, optimized_ms) = (naive_ns / 1_000_000, optimized_ns / 1_000_000);
    let [speedup_q1, wall_speedup, speedup_q3] = speedup;
    let bit_identical = matrices_identical(&naive, &optimized);

    let np = naive.total_perf();
    let op = optimized.total_perf();
    let fit_reduction = np.model_fits as f64 / op.model_fits.max(1) as f64;
    let cells = naive.results.iter().map(|r| r.len()).sum::<usize>();
    let hit_rate = op.memo_hits as f64 / (op.memo_hits + op.memo_misses).max(1) as f64;

    let mut json = String::new();
    let _ = write!(
        json,
        r#"{{
  "bench": "eval_memo",
  {stamp},
  "smoke": {smoke},
  "corpus": {{ "dataset": "tiny", "scenarios": {n_scenarios}, "arms": {n_arms}, "cells": {cells}, "max_evals": {max_evals} }},
  "pairs": {pairs},
  "naive": {{ "model_fits": {naive_fits}, "evaluations": {naive_evals}, "wall_ms": {naive_ms} }},
  "optimized": {{
    "model_fits": {opt_fits},
    "evaluations": {opt_evals},
    "wall_ms": {optimized_ms},
    "memo_hits": {memo_hits},
    "memo_misses": {memo_misses},
    "memo_hit_rate": {hit_rate:.3},
    "bound_skips": {bound_skips}
  }},
  "model_fit_reduction": {fit_reduction:.2},
  "wall_speedup": {wall_speedup:.2},
  "wall_speedup_iqr": [{speedup_q1:.2}, {speedup_q3:.2}],
  "bit_identical_to_naive": {bit_identical}
}}
"#,
        n_scenarios = naive.scenarios.len(),
        n_arms = naive.arms.len(),
        naive_fits = np.model_fits,
        naive_evals = naive.results.iter().flatten().map(|c| c.evaluations as u64).sum::<u64>(),
        opt_fits = op.model_fits,
        opt_evals = optimized.results.iter().flatten().map(|c| c.evaluations as u64).sum::<u64>(),
        memo_hits = op.memo_hits,
        memo_misses = op.memo_misses,
        bound_skips = op.bound_skips,
    );

    print!("{json}");
    if !bit_identical {
        eprintln!("[dfs-bench] fatal: memoized matrix diverged from the naive matrix");
        std::process::exit(1);
    }
    if fit_reduction < 2.0 {
        eprintln!(
            "[dfs-bench] fatal: model-fit reduction {fit_reduction:.2}x below the 2x bar \
             ({} -> {} fits)",
            np.model_fits, op.model_fits
        );
        std::process::exit(1);
    }
    if let Some(path) = out_path {
        ok_or_exit(
            std::fs::write(&path, &json)
                .map_err(|source| DfsError::Io { path: PathBuf::from(&path), source }),
        );
        eprintln!("wrote {path}");
    }
}
