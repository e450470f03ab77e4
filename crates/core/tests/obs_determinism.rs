//! Thread-count invariance of the observability exports, and span hygiene
//! under faults.
//!
//! DESIGN.md § 4e extends the executor's determinism contract to the
//! tracing layer: with tracing on, every non-timestamp byte of the
//! Prometheus metrics dump and the JSONL journal must be identical at any
//! `threads` budget, because events are only recorded on collector-owning
//! threads and child collectors are folded in submission order. These
//! tests run the same matrix at 1 and 4 threads and diff the exports, and
//! verify that panicking or stalling cells still produce balanced span
//! streams with the fault attributed in the journal.
//!
//! Every test here latches tracing ON and never off again — the flag is
//! process-global, and these tests share one binary.

use dfs_constraints::ConstraintSet;
use dfs_core::fault::{FaultKind, FaultPlan};
use dfs_core::obs;
use dfs_core::runner::{run_benchmark_opts, Arm, CellStatus, RunnerOptions};
use dfs_core::{MlScenario, ScenarioSettings};
use dfs_data::split::stratified_three_way;
use dfs_data::synthetic::{generate, tiny_spec};
use dfs_data::Split;
use dfs_fs::StrategyId;
use dfs_models::ModelKind;
use dfs_rankings::RankingKind;
use std::collections::HashMap;
use std::time::Duration;

fn splits() -> HashMap<String, Split> {
    let ds = generate(&tiny_spec(), 23);
    let mut splits = HashMap::new();
    splits.insert("tiny".to_string(), stratified_three_way(&ds, 23));
    splits
}

/// The same scenario trio as `tests/determinism.rs`: HPO grid, per-row
/// attack loop, and a plain accuracy scenario for NSGA-II / TPE. Budgets
/// are eval-capped with a generous wall clock, so the only nondeterministic
/// quantities are timestamps — exactly what the exports strip.
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

fn traced_run(threads: usize) -> obs::RunObserver {
    obs::set_trace_enabled(true);
    let observer = obs::RunObserver::new("obs-determinism");
    let mut settings = ScenarioSettings::fast();
    settings.max_evals = 16; // the eval cap binds, never the wall clock
    let opts = RunnerOptions {
        threads,
        inner_threads: threads,
        observer: Some(&observer),
        ..RunnerOptions::default()
    };
    run_benchmark_opts(&splits(), scenarios(), &arms(), &settings, &opts);
    observer
}

#[test]
fn exports_are_bit_identical_across_thread_budgets() {
    let seq = traced_run(1);
    let par = traced_run(4);

    let (m_seq, m_par) = (seq.metrics_text(true), par.metrics_text(true));
    assert!(!m_seq.is_empty());
    assert_eq!(m_seq, m_par, "metrics dump diverged between 1 and 4 threads");

    let (j_seq, j_par) = (seq.journal(true), par.journal(true));
    assert_eq!(j_seq, j_par, "journal diverged between 1 and 4 threads");

    // Sanity: the trace saw the instrumented phases, so the comparison is
    // not vacuously over empty exports.
    for needle in ["name=\"gather\"", "ranking.hit", "hpo.grid_points", "attack.rows", "cells.ok"] {
        assert!(m_seq.contains(needle), "metrics dump missing '{needle}'");
    }
    assert!(j_seq.lines().count() > 100, "journal suspiciously short");
}

#[test]
fn panicking_cell_still_exports_balanced_spans() {
    obs::set_trace_enabled(true);
    let observer = obs::RunObserver::new("obs-panic");
    let mut plan = FaultPlan::new();
    plan.inject(0, 1, FaultKind::Panic);
    let settings = ScenarioSettings::fast();
    let opts = RunnerOptions {
        fault_plan: Some(&plan),
        observer: Some(&observer),
        ..RunnerOptions::default()
    };
    let arms = vec![Arm::Original, Arm::Strategy(StrategyId::Sfs)];
    let m = run_benchmark_opts(&splits(), scenarios(), &arms, &settings, &opts);
    assert_eq!(m.results[0][1].status, CellStatus::Panicked);

    // The unwound cell's collector was still absorbed: its spans are
    // force-closed, its panic warning lands in the journal, and the Chrome
    // trace stays structurally balanced.
    let journal = observer.journal(true);
    let enters = journal.matches("\"e\":\"enter\"").count();
    let exits = journal.matches("\"e\":\"exit\"").count();
    assert_eq!(enters, exits, "unbalanced span stream after a cell panic");
    assert!(
        journal.contains("\"level\":\"warning\"") && journal.contains("panicked"),
        "panic warning missing from the journal"
    );
    let trace = observer.chrome_trace();
    assert_eq!(trace.matches('{').count(), trace.matches('}').count());
    assert_eq!(trace.matches("\"ph\":\"B\"").count(), trace.matches("\"ph\":\"E\"").count());
}

#[test]
fn timed_out_cell_reports_the_stalled_phase() {
    obs::set_trace_enabled(true);
    let observer = obs::RunObserver::new("obs-stall");
    let mut plan = FaultPlan::new();
    plan.inject(0, 0, FaultKind::Stall(Duration::from_secs(5)));
    let settings = ScenarioSettings::fast();
    let mut scenario = scenarios().remove(0);
    scenario.constraints.max_search_time = Duration::from_millis(50);
    let opts = RunnerOptions {
        deadline_factor: 1.0,
        deadline_grace: Duration::from_millis(100),
        fault_plan: Some(&plan),
        observer: Some(&observer),
        ..RunnerOptions::default()
    };
    let arms = vec![Arm::Strategy(StrategyId::Sfs)];
    let m = run_benchmark_opts(&splits(), vec![scenario], &arms, &settings, &opts);
    assert_eq!(m.results[0][0].status, CellStatus::TimedOut);

    // The watchdog read the heartbeat at expiry, so the journal names the
    // exact phase the stall was detected in — the injected fault marker.
    let journal = observer.journal(true);
    assert!(
        journal.contains("exceeded watchdog deadline"),
        "timeout warning missing from the journal"
    );
    assert!(
        journal.contains("last phase: fault.stall"),
        "stalled phase not attributed in the journal: {journal}"
    );
}

#[test]
fn batch_worker_spans_nest_inside_eval_measure() {
    // A batch evaluation absorbs each worker's trace while `eval.measure`
    // is open, so the workers' spans are its children in the journal: the
    // ledger charges them to their layers once, instead of counting the
    // whole fan-out again as `eval.measure` self time.
    obs::set_trace_enabled(true);
    let observer = obs::RunObserver::new("obs-batch-nesting");
    let mut settings = ScenarioSettings::fast();
    settings.max_evals = 16;
    let opts = RunnerOptions {
        threads: 2,
        inner_threads: 2,
        observer: Some(&observer),
        ..RunnerOptions::default()
    };
    let arms = vec![Arm::Strategy(StrategyId::Nsga2Nr)];
    run_benchmark_opts(&splits(), scenarios(), &arms, &settings, &opts);

    let journal = observer.journal(true);
    let mut open: Vec<String> = Vec::new();
    let mut absorbed = [0usize; 2];
    for line in journal.lines() {
        if line.starts_with("{\"scope\"") {
            assert!(open.is_empty(), "scope opened inside a span");
            continue;
        }
        let (Some(kind), Some(name)) = (field(line, "e"), field(line, "n")) else {
            continue;
        };
        if line.contains("\"g\":") {
            if kind == "enter" && (name == "gather" || name == "fit") {
                absorbed[(name == "fit") as usize] += 1;
                assert_eq!(
                    open.last().map(String::as_str),
                    Some("eval.measure"),
                    "absorbed '{name}' span outside eval.measure (open: {open:?})"
                );
            }
            continue;
        }
        match kind {
            "enter" => open.push(name.to_string()),
            "exit" => assert_eq!(open.pop().as_deref(), Some(name), "unbalanced journal"),
            _ => {}
        }
    }
    assert!(absorbed[0] > 0 && absorbed[1] > 0, "no absorbed gather/fit spans: {absorbed:?}");
}

#[test]
fn trees_gather_nothing_and_dp_trees_gather_their_train_columns() {
    // A tree trains from the train split in place, with or without HPO,
    // and every prediction (the HPO grid's included) reads its split
    // through the column map, so a DT matrix opens no `gather` span. The
    // DP tree trains on a gathered copy of its train columns.
    let gathers = |constraints: ConstraintSet, hpo: bool| {
        obs::set_trace_enabled(true);
        let observer = obs::RunObserver::new("obs-gather");
        let scenario = MlScenario {
            dataset: "tiny".into(),
            model: ModelKind::DecisionTree,
            hpo,
            constraints,
            utility_f1: false,
            seed: 44,
        };
        let mut settings = ScenarioSettings::fast();
        settings.max_evals = 8;
        let opts = RunnerOptions { observer: Some(&observer), ..RunnerOptions::default() };
        let arms = vec![Arm::Original, Arm::Strategy(StrategyId::Sfs)];
        let m = run_benchmark_opts(&splits(), vec![scenario], &arms, &settings, &opts);
        assert!(m.total_perf().model_fits > 0, "hpo = {hpo}: the matrix fit nothing");
        let journal = observer.journal(true);
        let enters = |name: &str| {
            journal
                .lines()
                .filter(|l| field(l, "e") == Some("enter") && field(l, "n") == Some(name))
                .count()
        };
        assert!(enters("fit") > 0, "hpo = {hpo}: no fit spans traced");
        enters("gather")
    };
    let plain = ConstraintSet::accuracy_only(0.55, Duration::from_secs(120));
    for hpo in [false, true] {
        assert_eq!(gathers(plain.clone(), hpo), 0, "hpo = {hpo}: a tree fit gathered");
    }
    let mut dp = plain;
    dp.privacy_epsilon = Some(10.0);
    assert!(gathers(dp, true) > 0, "the DP tree must gather its train columns");
}

/// The string value of `"key":"…"` in one journal line.
fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let start = line.find(&format!("\"{key}\":\""))? + key.len() + 4;
    let len = line[start..].find('"')?;
    Some(&line[start..start + len])
}
