//! Before/after microbenchmark for the evaluation engine.
//!
//! Three measurements, one per layer an evaluation passes through:
//!
//! 1. **Gather**: the old composed projection (`select_cols` then
//!    `select_rows`, materializing a full-height intermediate) against the
//!    fused `select_rows_cols_into` writing into a reused scratch buffer.
//! 2. **Ranking cache**: identical multi-arm benchmark rows executed with
//!    every cell alone (every TPE(ranking) arm recomputes its ranking in
//!    its private cache) and through the runner (each ranking computed
//!    once per dataset/split in the run's shared cache).
//! 3. **LR fit**: the gradient-descent loop as it shipped before the epoch
//!    kernel (per-row `log1p_exp` loss and `sigmoid` gradient) against
//!    `LogisticRegression::fit` (one `exp` per row, a bounded fast loss,
//!    exact fallback on near-ties) at the paper corpus's train size. Every
//!    model must be bit-identical to the reference's, or the binary exits
//!    nonzero. The two sides are timed in pairs that alternate fit by fit,
//!    so a noisy neighbour slows both halves of a pair alike; the snapshot
//!    reports fits/s, the median per-pair speedup with its quartiles, and
//!    how many bold-driver decisions fell back to the exact loss.
//!
//! Results are printed as JSON and, when a path argument is given, also
//! written there (the committed snapshot lives at `BENCH_eval_engine.json`
//! in the repo root). Timings are medians over several repetitions so a
//! noisy neighbor cannot flip the comparison.
//!
//! Run with `scripts/bench-snapshots.sh` (all four snapshots at one commit),
//! or alone with `cargo run --release -p dfs-bench --bin bench_eval_engine -- BENCH_eval_engine.json`.

// The panic-free contract covers the runner/cache/checkpoint paths; a
// standalone benchmark aborting on a broken setup is the right behavior.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use dfs_constraints::ConstraintSet;
use dfs_core::runner::{run_benchmark_opts, Arm, RunnerOptions};
use dfs_core::{MlScenario, ScenarioSettings};
use dfs_data::split::stratified_three_way;
use dfs_data::synthetic::{generate, spec_by_name};
use dfs_fs::StrategyId;
use dfs_linalg::rng::{sample_without_replacement, uniform, Rng};
use dfs_linalg::{axpy, dot, log1p_exp, sigmoid, Matrix};
use dfs_models::logistic::LogisticRegression;
use dfs_models::ModelKind;
use dfs_rankings::RankingKind;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Wall-clock of one run of `f`, in nanoseconds.
fn time_ns(f: &mut impl FnMut()) -> u64 {
    let t = Instant::now();
    f();
    t.elapsed().as_nanos() as u64
}

/// The `q`-quantile (nearest rank) of `samples`, which it sorts.
fn quantile<T: Copy + PartialOrd>(samples: &mut [T], q: f64) -> T {
    samples.sort_unstable_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    samples[((samples.len() - 1) as f64 * q).round() as usize]
}

/// Median wall-clock over `reps` runs of `f`, in nanoseconds.
fn median_ns(reps: usize, mut f: impl FnMut()) -> u64 {
    let mut samples: Vec<u64> = (0..reps).map(|_| time_ns(&mut f)).collect();
    quantile(&mut samples, 0.5)
}

/// `a` against `b` in `pairs` interleaved pairs. A pair runs both on each
/// of `items` inputs, back to back per input (the order alternating), and
/// sums each side's time. Returns the median wall-clock of each side and
/// the quartiles `[q1, median, q3]` of the per-pair ratio `a / b`: a slow
/// host period stretches both sides of a pair alike, so the ratio holds
/// still where the medians drift.
fn paired_ns(
    pairs: usize,
    items: usize,
    mut a: impl FnMut(usize),
    mut b: impl FnMut(usize),
) -> (u64, u64, [f64; 3]) {
    let mut a_ns = Vec::with_capacity(pairs);
    let mut b_ns = Vec::with_capacity(pairs);
    for pair in 0..pairs {
        let (mut ta, mut tb) = (0, 0);
        for i in 0..items {
            if (pair + i) % 2 == 0 {
                ta += time_ns(&mut || a(i));
                tb += time_ns(&mut || b(i));
            } else {
                tb += time_ns(&mut || b(i));
                ta += time_ns(&mut || a(i));
            }
        }
        a_ns.push(ta);
        b_ns.push(tb);
    }
    let mut ratios: Vec<f64> =
        a_ns.iter().zip(&b_ns).map(|(&ta, &tb)| ta as f64 / tb.max(1) as f64).collect();
    let quartiles = [0.25, 0.5, 0.75].map(|q| quantile(&mut ratios, q));
    (quantile(&mut a_ns, 0.5), quantile(&mut b_ns, 0.5), quartiles)
}

struct GatherBench {
    rows: usize,
    cols: usize,
    picked_rows: usize,
    picked_cols: usize,
    iters: usize,
    composed_ns: u64,
    fused_ns: u64,
}

/// Old path (allocate a full-height column projection, then subsample
/// rows) vs. new path (one fused pass into a reused scratch buffer).
fn bench_gather() -> GatherBench {
    let (rows, cols) = (4000, 100);
    let (picked_rows_n, picked_cols_n) = (1500, 12);
    let iters = 200;

    let mut rng = Rng::seed_from_u64(0xBE7C);
    let data: Vec<f64> = (0..rows * cols).map(|_| uniform(-1.0, 1.0, &mut rng)).collect();
    let x = Matrix::from_vec(rows, cols, data);
    let row_idx = sample_without_replacement(rows, picked_rows_n, &mut rng);
    let col_idx = sample_without_replacement(cols, picked_cols_n, &mut rng);

    let mut sink = 0.0f64;
    let composed_ns = median_ns(5, || {
        for _ in 0..iters {
            let projected = x.select_cols(&col_idx);
            let gathered = projected.select_rows(&row_idx);
            sink += gathered.row(0)[0];
        }
    });
    let mut scratch = Matrix::zeros(0, 0);
    let fused_ns = median_ns(5, || {
        for _ in 0..iters {
            x.select_rows_cols_into(&row_idx, &col_idx, &mut scratch);
            sink += scratch.row(0)[0];
        }
    });
    assert!(sink.is_finite());

    GatherBench {
        rows,
        cols,
        picked_rows: picked_rows_n,
        picked_cols: picked_cols_n,
        iters,
        composed_ns,
        fused_ns,
    }
}

struct CacheBench {
    scenarios: usize,
    arms: usize,
    uncached_ns: u64,
    cached_ns: u64,
    uncached_ranking_computes: u64,
    cached_ranking_computes: u64,
    cached_ranking_hits: u64,
}

/// Benchmark rows of TPE(ranking) arms, each cell alone and through the
/// runner's shared artifact cache. Outcomes are bit-identical (asserted by
/// the regression suite); this measures the work saved.
fn bench_ranking_cache() -> CacheBench {
    let ds = generate(&spec_by_name("german_credit").expect("known paper-suite spec"), 23);
    let split = stratified_three_way(&ds, 23);
    let mut splits = HashMap::new();
    splits.insert("german_credit".to_string(), split);
    let scenarios: Vec<MlScenario> = (0..3)
        .map(|i| MlScenario {
            dataset: "german_credit".into(),
            model: ModelKind::DecisionTree,
            hpo: false,
            constraints: ConstraintSet::accuracy_only(0.55 + 0.05 * i as f64, Duration::from_secs(30)),
            utility_f1: false,
            seed: 31 + i as u64,
        })
        .collect();
    let arms: Vec<Arm> = RankingKind::ALL
        .into_iter()
        .map(|kind| Arm::Strategy(StrategyId::TpeRanking(kind)))
        .collect();
    let mut settings = ScenarioSettings::fast();
    settings.max_evals = 15;

    let run = |shared: bool| {
        let t = Instant::now();
        let m = if shared {
            let opts = RunnerOptions::default();
            run_benchmark_opts(&splits, scenarios.clone(), &arms, &settings, &opts)
        } else {
            dfs_bench::naive_matrix(&splits, scenarios.clone(), &arms, &settings)
        };
        (t.elapsed().as_nanos() as u64, m.total_perf())
    };
    // Warm-up evens out first-touch effects (page faults, lazy init).
    let _ = run(false);
    let (uncached_ns, uncached_perf) = run(false);
    let (cached_ns, cached_perf) = run(true);

    CacheBench {
        scenarios: scenarios.len(),
        arms: arms.len(),
        uncached_ns,
        cached_ns,
        uncached_ranking_computes: uncached_perf.ranking_computes,
        cached_ranking_computes: cached_perf.ranking_computes,
        cached_ranking_hits: cached_perf.ranking_hits,
    }
}

/// The gradient-descent loop `LogisticRegression::fit` ran before the
/// epoch kernel, kept here as the benchmark's reference: the loss and the
/// gradient weight come from `log1p_exp` and `sigmoid` per row. Returns
/// `(weights, bias)`.
fn reference_lr_fit(x: &Matrix, y: &[bool], c: f64) -> (Vec<f64>, f64) {
    const MAX_EPOCHS: usize = 120;
    const INIT_LR: f64 = 2.0;
    const TOL: f64 = 1e-7;
    let (n, d) = x.shape();
    let lambda = 1.0 / (c * n.max(1) as f64);
    let mut w = vec![0.0; d];
    let mut b = 0.0;
    let mut lr = INIT_LR;
    let mut prev_loss = f64::INFINITY;
    let targets: Vec<f64> = y.iter().map(|&t| if t { 1.0 } else { -1.0 }).collect();
    for _ in 0..MAX_EPOCHS {
        let mut gw = vec![0.0; d];
        let mut gb = 0.0;
        let mut loss = 0.0;
        for (row, &t) in x.rows_iter().zip(&targets) {
            let z = dot(row, &w) + b;
            loss += log1p_exp(-t * z);
            let g = -t * sigmoid(-t * z);
            axpy(g, row, &mut gw);
            gb += g;
        }
        let nf = n as f64;
        loss = loss / nf + 0.5 * lambda * dot(&w, &w) * nf / nf;
        for (gwj, &wj) in gw.iter_mut().zip(&w) {
            *gwj = *gwj / nf + lambda * wj;
        }
        gb /= nf;
        if loss > prev_loss + TOL {
            lr *= 0.5;
            if lr < 1e-4 {
                break;
            }
        } else {
            lr *= 1.05;
        }
        if (prev_loss - loss).abs() < TOL {
            break;
        }
        prev_loss = loss;
        for (wj, gwj) in w.iter_mut().zip(&gw) {
            *wj -= lr * gwj;
        }
        b -= lr * gb;
    }
    (w, b)
}

struct LrCell {
    d: usize,
    c: f64,
    reference_ns: u64,
    kernel_ns: u64,
    /// Quartiles of the per-pair reference/kernel time ratio.
    speedup: [f64; 3],
    fallbacks: usize,
}

/// Train rows per fit: the paper corpus's train split size.
const LR_ROWS: usize = 160;
/// Fits per timed sample (each sample fits this many distinct problems).
const LR_FITS: usize = 20;
/// Interleaved reference/kernel pairs per cell.
const LR_PAIRS: usize = 31;

/// Reference loop vs kernel on `LR_FITS` seeded problems per cell:
/// features uniform in `[0, 1]` (the corpus is min–max scaled), labels a
/// random linear rule plus noise.
fn bench_lr_fit() -> Vec<LrCell> {
    let mut cells = Vec::new();
    for d in [2, 8, 19, 40, 160] {
        let problems: Vec<(Matrix, Vec<bool>)> = (0..LR_FITS)
            .map(|k| {
                let mut rng = Rng::seed_from_u64(0x1F17 + (d * LR_FITS + k) as u64);
                let dir: Vec<f64> = (0..d).map(|_| uniform(-1.0, 1.0, &mut rng)).collect();
                let data: Vec<f64> = (0..LR_ROWS * d).map(|_| rng.f64()).collect();
                let y = data
                    .chunks_exact(d)
                    .map(|row| {
                        let score: f64 = row.iter().zip(&dir).map(|(x, w)| (x - 0.5) * w).sum();
                        score + uniform(-0.3, 0.3, &mut rng) > 0.0
                    })
                    .collect();
                (Matrix::from_vec(LR_ROWS, d, data), y)
            })
            .collect();
        for c in [1.0, 1e3] {
            let mut fallbacks = 0;
            for (x, y) in &problems {
                let (model, count) = LogisticRegression::fit_counting_fallbacks(x, y, c);
                let (w, b) = reference_lr_fit(x, y, c);
                let same = model.bias().to_bits() == b.to_bits()
                    && model
                        .weights()
                        .iter()
                        .map(|v| v.to_bits())
                        .eq(w.iter().map(|v| v.to_bits()));
                if !same {
                    eprintln!(
                        "[dfs-bench] fatal: LR kernel diverged from the reference (d={d}, C={c})"
                    );
                    std::process::exit(1);
                }
                fallbacks += count;
            }
            let (reference_ns, kernel_ns, speedup) = paired_ns(
                LR_PAIRS,
                problems.len(),
                |i| {
                    let (x, y) = &problems[i];
                    std::hint::black_box(reference_lr_fit(x, y, c));
                },
                |i| {
                    let (x, y) = &problems[i];
                    std::hint::black_box(LogisticRegression::fit(x, y, c));
                },
            );
            cells.push(LrCell { d, c, reference_ns, kernel_ns, speedup, fallbacks });
        }
    }
    cells
}

fn main() {
    let stamp = dfs_bench::stamp::stamp_json_fields();
    let gather = bench_gather();
    let cache = bench_ranking_cache();
    let lr = bench_lr_fit();

    let ratio = |old: u64, new: u64| old as f64 / new.max(1) as f64;
    let fits_per_s = |ns: u64| LR_FITS as f64 * 1e9 / ns.max(1) as f64;
    let lr_cells: Vec<String> = lr
        .iter()
        .map(|cell| {
            let [q1, median, q3] = cell.speedup;
            format!(
                r#"      {{"d": {}, "c": {}, "reference_fits_per_s": {:.0}, "kernel_fits_per_s": {:.0}, "speedup": {:.3}, "speedup_iqr": [{:.3}, {:.3}], "fallbacks": {}}}"#,
                cell.d,
                cell.c,
                fits_per_s(cell.reference_ns),
                fits_per_s(cell.kernel_ns),
                median,
                q1,
                q3,
                cell.fallbacks
            )
        })
        .collect();
    let mut json = String::new();
    let _ = write!(
        json,
        r#"{{
  "bench": "eval_engine",
  {stamp},
  "gather": {{
    "matrix": [{rows}, {cols}],
    "picked": [{prows}, {pcols}],
    "iters_per_sample": {iters},
    "composed_ns": {composed},
    "fused_ns": {fused},
    "speedup": {gspeed:.2}
  }},
  "ranking_cache": {{
    "scenarios": {nsc},
    "arms": {narms},
    "uncached_ns": {unc},
    "cached_ns": {cac},
    "uncached_ranking_computes": {ucomp},
    "cached_ranking_computes": {ccomp},
    "cached_ranking_hits": {chits},
    "compute_reduction": {cred:.2},
    "speedup": {cspeed:.2}
  }},
  "lr_fit": {{
    "rows": {lr_rows},
    "fits_per_sample": {lr_fits},
    "pairs": {lr_pairs},
    "bit_identical": true,
    "fallbacks": {lr_fallbacks},
    "cells": [
{lr_cells}
    ]
  }}
}}
"#,
        rows = gather.rows,
        cols = gather.cols,
        prows = gather.picked_rows,
        pcols = gather.picked_cols,
        iters = gather.iters,
        composed = gather.composed_ns,
        fused = gather.fused_ns,
        gspeed = ratio(gather.composed_ns, gather.fused_ns),
        nsc = cache.scenarios,
        narms = cache.arms,
        unc = cache.uncached_ns,
        cac = cache.cached_ns,
        ucomp = cache.uncached_ranking_computes,
        ccomp = cache.cached_ranking_computes,
        chits = cache.cached_ranking_hits,
        cred = ratio(cache.uncached_ranking_computes, cache.cached_ranking_computes),
        cspeed = ratio(cache.uncached_ns, cache.cached_ns),
        lr_rows = LR_ROWS,
        lr_fits = LR_FITS,
        lr_pairs = LR_PAIRS,
        lr_fallbacks = lr.iter().map(|cell| cell.fallbacks).sum::<usize>(),
        lr_cells = lr_cells.join(",\n"),
    );

    print!("{json}");
    if let Some(path) = std::env::args().nth(1) {
        std::fs::write(&path, &json).expect("write benchmark json");
        eprintln!("wrote {path}");
    }
}
