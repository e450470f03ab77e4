//! Micro-benchmarks for the per-component costs that drive the study's
//! runtime findings: ranking computation (cheap χ² vs heavy ReliefF/MCFS),
//! model fits, the evasion attack, and optimizer iterations. Each case
//! reports the median wall time over a fixed number of repetitions.
//!
//! Run: `cargo bench --bench micro_components`

use dfs_bench::print_table;
use dfs_data::split::stratified_three_way;
use dfs_data::synthetic::{generate, spec_by_name};
use dfs_linalg::Matrix;
use dfs_metrics::{empirical_safety, AttackConfig};
use dfs_models::{ModelKind, ModelSpec};
use dfs_rankings::RankingKind;
use dfs_search::sa::{simulated_annealing, SaConfig};
use dfs_search::tpe::{tpe_binary, TpeConfig};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Timed repetitions per case, after one untimed warm-up run.
const REPS: usize = 11;

/// Median wall time of `f` over [`REPS`] runs.
fn median_time<T>(mut f: impl FnMut() -> T) -> Duration {
    black_box(f());
    let mut times: Vec<Duration> = (0..REPS)
        .map(|_| {
            let start = Instant::now();
            black_box(f());
            start.elapsed()
        })
        .collect();
    times.sort_unstable();
    times[REPS / 2]
}

fn row<T>(group: &str, case: &str, f: impl FnMut() -> T) -> Vec<String> {
    let median = median_time(f);
    vec![group.to_string(), case.to_string(), format!("{:.3}", median.as_secs_f64() * 1e3)]
}

fn bench_data() -> (Matrix, Vec<bool>) {
    let Some(mut spec) = spec_by_name("german_credit") else {
        unreachable!("german_credit is a suite dataset")
    };
    spec.rows = 400;
    let ds = generate(&spec, 3);
    (ds.x, ds.y)
}

fn rankings(rows: &mut Vec<Vec<String>>) {
    let (x, y) = bench_data();
    for kind in RankingKind::ALL {
        rows.push(row("rankings", kind.name(), || kind.compute(&x, &y, 1)));
    }
}

fn model_fits(rows: &mut Vec<Vec<String>>) {
    let (x, y) = bench_data();
    for kind in ModelKind::PRIMARY {
        let spec = ModelSpec::default_for(kind);
        rows.push(row("model_fit", kind.short_name(), || spec.fit(&x, &y)));
    }
    let lr = ModelSpec::Lr { c: 1.0 };
    rows.push(row("model_fit", "LR_dp", || lr.fit_dp(&x, &y, 1.0, 7)));
}

fn attack(rows: &mut Vec<Vec<String>>) {
    let Some(spec) = spec_by_name("compas") else { unreachable!("compas is a suite dataset") };
    let ds = generate(&spec, 5);
    let split = stratified_three_way(&ds, 5);
    let model = ModelSpec::default_for(ModelKind::LogisticRegression)
        .fit(&split.train.x, &split.train.y);
    let cfg = AttackConfig { max_points: 8, ..AttackConfig::default() };
    let predict = |r: &[f64]| model.predict_one(r);
    rows.push(row("attack", "evasion_attack_8pts", || {
        empirical_safety(&predict, &split.val.x, &split.val.y, &cfg, 0)
    }));
}

fn optimizers(rows: &mut Vec<Vec<String>>) {
    let target: Vec<bool> = (0..24).map(|i| i % 3 == 0).collect();
    let hamming = |bits: &[bool]| Some(bits.iter().zip(&target).filter(|(a, b)| a != b).count() as f64);
    rows.push(row("search_100_evals", "sa", || {
        let cfg = SaConfig { max_iters: 100, stop_at: None, ..Default::default() };
        let mut eval = hamming;
        simulated_annealing(24, &mut eval, &cfg)
    }));
    rows.push(row("search_100_evals", "tpe", || {
        let cfg = TpeConfig { max_iters: 100, stop_at: None, ..Default::default() };
        let mut eval = hamming;
        tpe_binary(24, &mut eval, &cfg)
    }));
}

fn main() {
    let mut rows = Vec::new();
    rankings(&mut rows);
    model_fits(&mut rows);
    attack(&mut rows);
    optimizers(&mut rows);
    print_table(
        &format!("Per-component costs (median of {REPS} runs)"),
        &["group", "case", "median_ms"],
        &rows,
    );
}
