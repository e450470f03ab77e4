//! Observability overhead benchmark (the disabled-mode ≤2% contract).
//!
//! DESIGN.md § 4e promises that with tracing disabled every instrumentation
//! site costs one relaxed atomic load, and that the aggregate drag on an
//! evaluation stays under 2%. This bench measures both halves:
//!
//! 1. **Per-site cost, disabled**: median ns of `obs::span`, `obs::counter`
//!    and `obs::heartbeat` calls with tracing off (the heartbeat is not
//!    flag-gated — it must stay live for the watchdog — so it is billed
//!    separately).
//! 2. **Sites per evaluation**: one traced run of a small benchmark matrix
//!    through a [`RunObserver`](dfs_obs::RunObserver); the journal's
//!    enter/count/log events per recorded evaluation give the real site
//!    density.
//! 3. **Evaluation cost, disabled**: median wall time of the same matrix
//!    with tracing off, divided by the evaluations performed.
//!
//! `overhead_pct = (sites_per_eval * site_ns + hb_per_eval * hb_ns)
//! / eval_ns * 100`. The process exits nonzero above 2.0%, making the
//! contract CI-enforceable. Results are printed as JSON and, when a path
//! argument is given, also written there (committed snapshot:
//! `BENCH_obs.json`). The traced run's Chrome trace / metrics / journal are
//! exported under `DFS_TRACE_DIR` for artifact upload.
//!
//! Run with `scripts/bench-snapshots.sh` (all four snapshots at one commit),
//! or alone with `cargo run --release -p dfs-bench --bin bench_obs -- BENCH_obs.json`.

use dfs_bench::ok_or_exit;
use dfs_constraints::ConstraintSet;
use dfs_core::runner::{run_benchmark_opts, Arm, BenchmarkMatrix, RunnerOptions};
use dfs_core::{obs, DfsError, MlScenario, ScenarioSettings};
use dfs_data::split::stratified_three_way;
use dfs_data::synthetic::{generate, spec_by_name};
use dfs_data::Split;
use dfs_fs::StrategyId;
use dfs_models::ModelKind;
use dfs_rankings::RankingKind;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::hint::black_box;
use std::path::PathBuf;
use std::time::{Duration, Instant};

const MAX_OVERHEAD_PCT: f64 = 2.0;

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

/// Per-call cost of `f` in ns, amortized over a tight loop.
fn per_call_ns(iters: u64, mut f: impl FnMut()) -> f64 {
    let ns = median_ns(5, || {
        for _ in 0..iters {
            f();
        }
    });
    ns as f64 / iters as f64
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

fn run_matrix(
    splits: &HashMap<String, Split>,
    scenarios: &[MlScenario],
    arms: &[Arm],
    observer: Option<&obs::RunObserver>,
) -> BenchmarkMatrix {
    let mut settings = ScenarioSettings::fast();
    settings.max_evals = 24; // eval-capped: the wall clock never binds
    let opts = RunnerOptions { threads: 1, inner_threads: 1, observer, ..RunnerOptions::default() };
    run_benchmark_opts(splits, scenarios.to_vec(), arms, &settings, &opts)
}

fn total_evaluations(m: &BenchmarkMatrix) -> u64 {
    m.results.iter().flatten().map(|c| c.evaluations as u64).sum()
}

/// Counts the journal events that correspond to one instrumentation call
/// each: span entries, counter bumps, and log records (exits ride on the
/// span guard already billed by its enter).
fn site_events(journal: &str) -> u64 {
    journal
        .lines()
        .filter(|l| {
            l.contains("\"e\":\"enter\"")
                || l.contains("\"e\":\"count\"")
                || l.contains("\"e\":\"log\"")
        })
        .count() as u64
}

fn main() {
    let stamp = dfs_bench::stamp::stamp_json_fields();
    let (splits, scenarios, arms) = matrix_corpus();

    // 1. Disabled per-site costs. Tracing is explicitly latched off so a
    //    stray DFS_TRACE=1 in the environment cannot turn this into an
    //    enabled-mode measurement.
    obs::set_trace_enabled(false);
    let iters = 4_000_000u64;
    let span_ns = per_call_ns(iters, || drop(black_box(obs::span("bench.site"))));
    let counter_ns = per_call_ns(iters, || obs::counter(black_box("bench.site"), 1));
    let heartbeat_ns = per_call_ns(iters, || obs::heartbeat(black_box("bench.site")));
    let site_ns = span_ns.max(counter_ns);

    // 2. Disabled evaluation cost on the real matrix.
    let mut evals_disabled = 0u64;
    let matrix_ns = median_ns(3, || {
        let m = run_matrix(&splits, &scenarios, &arms, None);
        evals_disabled = total_evaluations(&m);
    });
    let eval_ns = matrix_ns as f64 / evals_disabled.max(1) as f64;

    // 3. Site density from one traced run of the same matrix.
    let observer = obs::RunObserver::new("bench-obs");
    obs::set_trace_enabled(true);
    let traced = run_matrix(&splits, &scenarios, &arms, Some(&observer));
    obs::set_trace_enabled(false);
    let evals_traced = total_evaluations(&traced);
    let journal = observer.journal(true);
    let sites = site_events(&journal);
    let sites_per_eval = sites as f64 / evals_traced.max(1) as f64;
    // Heartbeats are not journal events; bill the three eval-phase beats
    // (gather / fit / attack) per evaluation explicitly.
    let hb_per_eval = 3.0;

    let trace = observer.chrome_trace();
    let trace_valid = trace.starts_with("{\"traceEvents\":[")
        && trace.trim_end().ends_with("]}")
        && trace.matches('{').count() == trace.matches('}').count();
    dfs_bench::corpus::export_traces(&observer);

    let overhead_pct =
        (sites_per_eval * site_ns + hb_per_eval * heartbeat_ns) / eval_ns.max(1.0) * 100.0;
    let pass = overhead_pct <= MAX_OVERHEAD_PCT && trace_valid;

    let mut json = String::new();
    let _ = write!(
        json,
        r#"{{
  "bench": "obs_overhead",
  {stamp},
  "contract_max_overhead_pct": {MAX_OVERHEAD_PCT},
  "disabled_span_ns": {span_ns:.3},
  "disabled_counter_ns": {counter_ns:.3},
  "disabled_heartbeat_ns": {heartbeat_ns:.3},
  "matrix": {{
    "scenarios": {scenarios},
    "arms": {arms},
    "evaluations": {evals_disabled},
    "disabled_median_ns": {matrix_ns},
    "disabled_eval_ns": {eval_ns:.0}
  }},
  "site_events_traced": {sites},
  "sites_per_eval": {sites_per_eval:.2},
  "heartbeats_per_eval": {hb_per_eval},
  "chrome_trace_valid": {trace_valid},
  "overhead_pct": {overhead_pct:.4},
  "pass": {pass}
}}
"#,
        scenarios = scenarios.len(),
        arms = arms.len(),
    );

    print!("{json}");
    if let Some(path) = std::env::args().nth(1) {
        ok_or_exit(
            std::fs::write(&path, &json)
                .map_err(|source| DfsError::Io { path: PathBuf::from(&path), source }),
        );
        eprintln!("wrote {path}");
    }
    if !trace_valid {
        eprintln!("[dfs-bench] fatal: Chrome trace export is not well-formed");
        std::process::exit(1);
    }
    if overhead_pct > MAX_OVERHEAD_PCT {
        eprintln!(
            "[dfs-bench] fatal: disabled-mode observability overhead {overhead_pct:.3}% \
             exceeds the {MAX_OVERHEAD_PCT}% contract"
        );
        std::process::exit(1);
    }
}
