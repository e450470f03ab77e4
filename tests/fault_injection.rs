//! Fault-tolerance integration tests: the properties the harness claims
//! must hold under injected faults.
//!
//! 1. A benchmark run with panicking, stalling, and garbage-returning cells
//!    completes the full matrix, with the faulted cells marked.
//! 2. A matrix containing Panicked/TimedOut/Skipped cells produces exactly
//!    the same coverage/fastest aggregates as one where those cells are
//!    plain failures.
//! 3. A killed-then-resumed run (checkpoint sidecar on disk) recomputes
//!    only the rows that never finished.

use dfs_bench::checkpoint::Checkpoint;
use dfs_bench::corpus::{bench_settings, build_scenarios, build_splits, CorpusConfig};
use dfs_bench::BenchVersion;
use dfs_repro::core::prelude::*;
use std::collections::HashMap;
use std::sync::Mutex;
use std::time::Duration;

fn tiny_cfg() -> CorpusConfig {
    CorpusConfig {
        datasets: vec![("compas", 200), ("indian_liver_patient", 150)],
        scenarios_per_dataset: 2,
        time_range: (Duration::from_millis(20), Duration::from_millis(50)),
        seed: 7,
        threads: 1,
    }
}

fn quick_settings() -> ScenarioSettings {
    let mut s = bench_settings();
    s.max_evals = 15;
    s
}

/// Two cheap arms keep every test fast; fault isolation is arm-agnostic.
fn arms() -> Vec<Arm> {
    vec![Arm::Original, Arm::Strategy(StrategyId::Sfs)]
}

#[test]
fn matrix_completes_under_panic_stall_garbage_and_missing_split_faults() {
    // At two threads the stalled row's replacement worker runs next to a
    // live second worker.
    for threads in [1, 2] {
        matrix_completes_under_faults(threads);
    }
}

fn matrix_completes_under_faults(threads: usize) {
    let cfg = tiny_cfg();
    let splits = build_splits(&cfg).expect("splits");
    let mut scenarios = build_scenarios(&cfg, BenchVersion::DefaultParams);
    // A scenario whose dataset has no split: the row must be skipped, not
    // abort the run.
    let mut ghost = scenarios[0].clone();
    ghost.dataset = "ghost".into();
    scenarios.push(ghost);
    let n = scenarios.len();

    let mut plan = FaultPlan::new();
    plan.inject(0, 1, FaultKind::Panic)
        .inject(1, 1, FaultKind::Stall(Duration::from_secs(5)))
        .inject(2, 0, FaultKind::Garbage);
    let opts = RunnerOptions {
        // Scenario budgets are 20–50 ms, so the 5 s stall trips the
        // watchdog at ~150 ms.
        deadline_factor: 1.0,
        deadline_grace: Duration::from_millis(100),
        fault_plan: Some(&plan),
        ..RunnerOptions::with_threads(threads)
    };
    let arms = arms();
    let m = run_benchmark_opts(&splits, scenarios, &arms, &quick_settings(), &opts);

    // Every row of the matrix is filled despite the faults.
    assert_eq!(m.results.len(), n);
    assert!(m.results.iter().all(|row| row.len() == arms.len()));
    assert_eq!(m.results[0][1].status, CellStatus::Panicked);
    assert_eq!(m.results[1][1].status, CellStatus::TimedOut);
    // Garbage is sanitized: recorded as an executed cell that failed, with
    // non-finite metrics clamped.
    let garbage = &m.results[2][0];
    assert_eq!(garbage.status, CellStatus::Ok);
    assert!(!garbage.success);
    assert!(garbage.val_distance.is_infinite());
    assert_eq!(garbage.test_f1, 0.0);
    // The ghost row is skipped wholesale.
    assert!(m.results[n - 1].iter().all(|c| c.status == CellStatus::Skipped));
    // Neighbours of faulted cells still executed.
    assert_eq!(m.results[0][0].status, CellStatus::Ok);
    assert_eq!(m.results[1][0].status, CellStatus::Ok);
    let (ok, panicked, timed_out, skipped) = m.status_counts();
    assert_eq!(panicked, 1);
    assert_eq!(timed_out, 1);
    assert_eq!(skipped, arms.len());
    assert_eq!(ok, n * arms.len() - 2 - arms.len());
}

#[test]
fn faulted_cells_aggregate_identically_to_plain_failures() {
    let cfg = tiny_cfg();
    let splits = build_splits(&cfg).expect("splits");
    let scenarios = build_scenarios(&cfg, BenchVersion::DefaultParams);

    let mut plan = FaultPlan::new();
    plan.inject(0, 1, FaultKind::Panic).inject(2, 1, FaultKind::Garbage);
    let opts = RunnerOptions { fault_plan: Some(&plan), ..RunnerOptions::default() };
    let arms = arms();
    let faulted = run_benchmark_opts(&splits, scenarios, &arms, &quick_settings(), &opts);

    // The same matrix with every faulted/sanitized cell rewritten as an
    // ordinary failure (finite distances, Ok status).
    let mut plain = faulted.clone();
    for row in &mut plain.results {
        for cell in row.iter_mut() {
            if cell.status != CellStatus::Ok || cell.val_distance.is_infinite() {
                *cell = CellResult {
                    status: CellStatus::Ok,
                    success: false,
                    elapsed: Duration::from_millis(30),
                    val_distance: 0.5,
                    test_distance: 0.5,
                    evaluations: 1,
                    test_f1: 0.1,
                    subset_size: 1,
                    perf: dfs_core::EvalPerf::default(),
                };
            }
        }
    }

    assert_eq!(faulted.satisfiable(), plain.satisfiable());
    for a in 0..arms.len() {
        assert_eq!(
            faulted.coverage_stats(a),
            plain.coverage_stats(a),
            "coverage diverged for arm {a}"
        );
        assert_eq!(
            faulted.fastest_stats(a),
            plain.fastest_stats(a),
            "fastest fraction diverged for arm {a}"
        );
        assert_eq!(faulted.coverage_by_dataset(a), plain.coverage_by_dataset(a));
    }
    assert_eq!(faulted.fastest_arm_per_scenario(), plain.fastest_arm_per_scenario());
}

#[test]
fn killed_run_resumes_from_checkpoint_and_recomputes_only_missing_rows() {
    let cfg = tiny_cfg();
    let splits = build_splits(&cfg).expect("splits");
    let scenarios = build_scenarios(&cfg, BenchVersion::DefaultParams);
    let n = scenarios.len();
    let arms = arms();
    let fp = 0xDEADu64;
    let dir = std::env::temp_dir().join("dfs-fault-injection-test");
    std::fs::create_dir_all(&dir).expect("mkdir");
    let ckpt_path = dir.join("resume.ckpt");
    std::fs::remove_file(&ckpt_path).ok();

    // First run: completes rows 0 and 2, then the process "dies" (we simply
    // stop, leaving the sidecar behind).
    {
        let reference =
            run_benchmark_opts(&splits, scenarios.clone(), &arms, &quick_settings(), &RunnerOptions::default());
        let ckpt = Checkpoint::start(ckpt_path.clone(), fp, n, arms.len(), &HashMap::new());
        ckpt.append_row(0, &reference.results[0]);
        ckpt.append_row(2, &reference.results[2]);
    }

    // Second run: resumes from the sidecar. The fault plan panics every
    // cell of rows 0 and 2 — if the runner recomputed them, they would come
    // back Panicked.
    let (resume, _) = Checkpoint::load(&ckpt_path, fp, n, arms.len());
    assert_eq!(resume.len(), 2, "checkpointed rows must load");
    let mut plan = FaultPlan::new();
    for a in 0..arms.len() {
        plan.inject(0, a, FaultKind::Panic).inject(2, a, FaultKind::Panic);
    }
    let fresh: Mutex<Vec<usize>> = Mutex::new(Vec::new());
    let sink = |i: usize, _row: &[CellResult]| fresh.lock().expect("lock").push(i);
    let opts = RunnerOptions {
        fault_plan: Some(&plan),
        resume,
        on_row: Some(&sink),
        ..RunnerOptions::default()
    };
    let m = run_benchmark_opts(&splits, scenarios, &arms, &quick_settings(), &opts);

    // Checkpointed rows were kept verbatim (no Panicked cells anywhere).
    let (_, panicked, _, skipped) = m.status_counts();
    assert_eq!(panicked, 0, "resumed rows were recomputed");
    assert_eq!(skipped, 0);
    // Only the two missing rows were computed fresh.
    let mut recomputed = fresh.lock().expect("lock").clone();
    recomputed.sort_unstable();
    assert_eq!(recomputed, vec![1, 3]);
    std::fs::remove_file(&ckpt_path).ok();
}

/// The serving-layer error variants carry enough context to act on: the
/// Display text names the quota or phase, and `retryable()` matches the
/// wire protocol's retry matrix (only transient pressure retries).
#[test]
fn serving_error_variants_display_and_classify() {
    let overloaded = DfsError::Overloaded { queued: 32, capacity: 32 };
    assert_eq!(
        overloaded.to_string(),
        "overloaded: request shed (32/32 queued); retry later"
    );
    assert!(overloaded.retryable(), "load shedding is transient by contract");

    let deadline = DfsError::DeadlineExceeded {
        deadline: Duration::from_millis(250),
        phase: "eval.fit".into(),
    };
    assert_eq!(deadline.to_string(), "deadline 250ms exceeded (last phase: eval.fit)");
    assert!(
        !deadline.retryable(),
        "retrying an expired deadline verbatim would just expire again"
    );

    let malformed = DfsError::MalformedFrame { reason: "bad version 9".into() };
    assert_eq!(malformed.to_string(), "malformed frame: bad version 9");
    assert!(!malformed.retryable(), "a malformed request never improves on resend");

    let io = DfsError::Io {
        path: std::path::PathBuf::from("/tmp/x"),
        source: std::io::Error::new(std::io::ErrorKind::ConnectionReset, "reset"),
    };
    assert!(io.retryable(), "transport loss retries");
    let panic = DfsError::CellPanicked {
        scenario: "compas".into(),
        arm: "sfs".into(),
        payload: "boom".into(),
    };
    assert!(!panic.retryable(), "a deterministic panic recurs on retry");
}

/// The wire-level error taxonomy mirrors `DfsError::retryable`: exactly
/// one code (`overloaded`) invites a retry, and codes round-trip through
/// their string form.
#[test]
fn wire_error_codes_round_trip_and_classify() {
    use dfs_repro::proto::ErrorCode;
    let all = [
        ErrorCode::Overloaded,
        ErrorCode::DeadlineExceeded,
        ErrorCode::MalformedQuery,
        ErrorCode::BudgetExceeded,
        ErrorCode::Internal,
    ];
    for code in all {
        assert_eq!(ErrorCode::from_str_code(code.as_str()), Ok(code));
        assert_eq!(code.retryable(), code == ErrorCode::Overloaded, "{code:?}");
    }
    assert!(ErrorCode::from_str_code("nope").is_err());
}
