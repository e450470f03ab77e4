//! Benchmark execution and aggregation: the outcome matrix behind
//! Tables 3–8.
//!
//! [`run_benchmark`] executes every (scenario × arm) cell of the study —
//! an *arm* is either one of the 16 strategies or the Original-Features
//! baseline — optionally across threads (each cell is independent, matching
//! the paper's embarrassingly-parallel setup). [`BenchmarkMatrix`] then
//! aggregates:
//!
//! - **coverage** — fraction of satisfiable scenarios an arm solved
//!   (mean ± std across datasets, as the paper reports);
//! - **fastest fraction** — how often an arm was the quickest solver;
//! - **failure distances** (Table 4), **per-constraint** (Table 5) and
//!   **per-model** (Table 6) breakdowns, **normalized F1** for the utility
//!   benchmark, and the **greedy portfolios** of Table 8.

use crate::artifacts::ArtifactCache;
use crate::error::{panic_payload_to_string, DfsError};
use crate::exec::{env_threads, Executor};
use crate::fault::{FaultKind, FaultPlan};
use crate::perf::EvalPerf;
use crate::scenario::{MlScenario, ScenarioSettings};
use crate::workflow::{run_dfs_with_exec, run_original_features_with_exec, DfsOutcome};
use dfs_data::split::Split;
use dfs_fs::StrategyId;
use dfs_obs as obs;
use dfs_rankings::RankingKind;
use std::collections::HashMap;
use std::io::IsTerminal;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// One column of the benchmark matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Arm {
    /// The full feature set with no selection.
    Original,
    /// One of the 16 FS strategies.
    Strategy(StrategyId),
}

impl Arm {
    /// Display name matching the paper's tables.
    pub fn name(&self) -> String {
        match self {
            Arm::Original => "Original Features".into(),
            Arm::Strategy(s) => s.name(),
        }
    }

    /// The Original baseline followed by all 16 strategies.
    pub fn all() -> Vec<Arm> {
        let mut arms = vec![Arm::Original];
        arms.extend(StrategyId::all().into_iter().map(Arm::Strategy));
        arms
    }
}

/// How a cell terminated. Anything but `Ok` is a *fault*: the cell carries
/// sentinel metrics (no success, infinite distances, zero F1) so every
/// aggregation treats it exactly like an ordinary unsuccessful run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CellStatus {
    /// The arm ran to completion (successfully or not).
    Ok,
    /// The arm panicked; the panic was isolated by `catch_unwind`.
    Panicked,
    /// The arm exceeded the watchdog's hard wall-clock deadline.
    TimedOut,
    /// The cell never ran: missing split, dead worker, or a placeholder the
    /// resume machinery will fill on a later run.
    Skipped,
}

impl CellStatus {
    /// `true` for cells that actually executed to completion.
    pub fn is_ok(&self) -> bool {
        matches!(self, CellStatus::Ok)
    }

    /// One-character code used by the TSV cache codec (v2).
    pub fn code(&self) -> char {
        match self {
            CellStatus::Ok => 'O',
            CellStatus::Panicked => 'P',
            CellStatus::TimedOut => 'T',
            CellStatus::Skipped => 'S',
        }
    }

    /// Inverse of [`CellStatus::code`].
    pub fn from_code(c: char) -> Option<CellStatus> {
        match c {
            'O' => Some(CellStatus::Ok),
            'P' => Some(CellStatus::Panicked),
            'T' => Some(CellStatus::TimedOut),
            'S' => Some(CellStatus::Skipped),
            _ => None,
        }
    }
}

/// One cell: the outcome of one arm on one scenario.
#[derive(Debug, Clone)]
pub struct CellResult {
    /// How the cell terminated (faults become data, not aborts).
    pub status: CellStatus,
    /// Constraints satisfied on validation and confirmed on test.
    pub success: bool,
    /// Wall-clock search time.
    pub elapsed: Duration,
    /// Eq. 1 distance of the returned subset on validation.
    pub val_distance: f64,
    /// Eq. 1 distance of the returned subset on test.
    pub test_distance: f64,
    /// Wrapper evaluations consumed.
    pub evaluations: usize,
    /// Test F1 of the returned subset (utility benchmark).
    pub test_f1: f64,
    /// Size of the returned subset (0 when none).
    pub subset_size: usize,
    /// Evaluation-engine work counters (fits, cache hits, timings).
    pub perf: EvalPerf,
}

impl CellResult {
    /// Sentinel cell for a fault: a failure with infinite distances (so the
    /// finite-distance means of Table 4 exclude it), zero F1 and no subset.
    pub fn faulted(status: CellStatus, elapsed: Duration) -> CellResult {
        CellResult {
            status,
            success: false,
            elapsed,
            val_distance: f64::INFINITY,
            test_distance: f64::INFINITY,
            evaluations: 0,
            test_f1: 0.0,
            subset_size: 0,
            perf: EvalPerf::default(),
        }
    }
}

impl From<&DfsOutcome> for CellResult {
    fn from(o: &DfsOutcome) -> Self {
        CellResult {
            status: CellStatus::Ok,
            success: o.success,
            elapsed: o.elapsed,
            val_distance: o.val_distance,
            test_distance: o.test_distance,
            evaluations: o.evaluations,
            test_f1: o.test_eval.map(|e| e.f1).unwrap_or(0.0),
            subset_size: o.subset.as_ref().map(|s| s.len()).unwrap_or(0),
            perf: o.perf,
        }
    }
}

/// The full benchmark outcome matrix.
#[derive(Debug, Clone)]
pub struct BenchmarkMatrix {
    /// Column labels.
    pub arms: Vec<Arm>,
    /// Row scenarios (dataset name inside).
    pub scenarios: Vec<MlScenario>,
    /// `results[scenario][arm]`.
    pub results: Vec<Vec<CellResult>>,
}

/// Tuning knobs for [`run_benchmark_opts`]. `Default` is the production
/// configuration: single-threaded, watchdog at 8× each scenario's Max
/// Search Time plus 500 ms grace, no fault injection, no resume state, no
/// checkpoint sink.
pub struct RunnerOptions<'a> {
    /// Worker threads for the *outer* loop over scenario rows (`<= 1` runs
    /// rows sequentially on the caller).
    pub threads: usize,
    /// Helper-thread budget for the *inner* hot loops (forest trees,
    /// NSGA-II evaluation chunks, HPO grids, attack rows, ranking
    /// warm-up). `0` reads the `DFS_THREADS` environment variable
    /// (default 1). Outer and inner loops draw from one shared permit
    /// pool of `max(threads, inner_threads)`, so the total number of
    /// computing threads never exceeds that budget at any nesting depth;
    /// results are bit-identical at every setting (DESIGN.md § 4d).
    pub inner_threads: usize,
    /// Hard-deadline multiple of each scenario's `max_search_time`. Search
    /// budgets are soft — checked between evaluations — so one stuck model
    /// fit could hold a cell forever; the watchdog bounds every cell at
    /// `factor * max_search_time + grace` wall-clock.
    pub deadline_factor: f64,
    /// Constant slack added to the watchdog deadline so tiny search budgets
    /// do not time out on scheduler noise.
    pub deadline_grace: Duration,
    /// Deterministic fault injection, used by the fault-tolerance tests.
    pub fault_plan: Option<&'a FaultPlan>,
    /// Already-computed rows (scenario index → full row), typically loaded
    /// from a checkpoint. Kept verbatim; only missing rows are executed.
    pub resume: HashMap<usize, Vec<CellResult>>,
    /// Called with each freshly computed row (the checkpoint sink). Not
    /// called for resumed rows. May run on any worker thread.
    pub on_row: Option<&'a (dyn Fn(usize, &[CellResult]) + Sync)>,
    /// Emit a throttled live progress line on stderr (cells done/total,
    /// faults, evals/s, ETA). Defaults to the `DFS_PROGRESS` or
    /// `DFS_TRACE` environment flags. The line is written directly to
    /// stderr — never through the deterministic journal — so enabling it
    /// cannot perturb any exported artifact.
    pub progress: bool,
    /// Collects per-cell trace data when tracing is enabled
    /// ([`dfs_obs::trace_enabled`]): span streams, counters, log records
    /// and the run/row/cell scope structure behind the Chrome-trace,
    /// metrics and journal exporters.
    pub observer: Option<&'a obs::RunObserver>,
}

impl Default for RunnerOptions<'_> {
    fn default() -> Self {
        RunnerOptions {
            threads: 1,
            inner_threads: 0,
            deadline_factor: 8.0,
            deadline_grace: Duration::from_millis(500),
            fault_plan: None,
            resume: HashMap::new(),
            on_row: None,
            progress: obs::env_flag("DFS_PROGRESS") || obs::env_flag("DFS_TRACE"),
            observer: None,
        }
    }
}

/// Throttled live progress reporting for a benchmark run. All updates are
/// relaxed atomics; the stderr write happens at most every ~500 ms (plus a
/// forced final summary), so progress costs nothing measurable and writes
/// nothing into the deterministic exporters.
struct ProgressMeter {
    enabled: bool,
    total: usize,
    done: AtomicUsize,
    faulted: AtomicUsize,
    evals: AtomicU64,
    started: Instant,
    last_print: Mutex<Instant>,
}

impl ProgressMeter {
    fn new(enabled: bool, total: usize) -> ProgressMeter {
        let now = Instant::now();
        ProgressMeter {
            enabled,
            total,
            done: AtomicUsize::new(0),
            faulted: AtomicUsize::new(0),
            evals: AtomicU64::new(0),
            started: now,
            // Backdate so the first completed cell prints immediately.
            last_print: Mutex::new(now - Duration::from_secs(60)),
        }
    }

    /// Records a finished cell and maybe redraws the line.
    fn cell_done(&self, cell: &CellResult) {
        if !self.enabled {
            return;
        }
        self.done.fetch_add(1, Ordering::Relaxed);
        if !cell.status.is_ok() {
            self.faulted.fetch_add(1, Ordering::Relaxed);
        }
        self.evals.fetch_add(cell.evaluations as u64, Ordering::Relaxed);
        self.print(false);
    }

    /// Records a whole row that never ran (missing split).
    fn row_skipped(&self, arms: usize) {
        if !self.enabled {
            return;
        }
        self.done.fetch_add(arms, Ordering::Relaxed);
        self.faulted.fetch_add(arms, Ordering::Relaxed);
        self.print(false);
    }

    fn print(&self, force: bool) {
        let mut last = self.last_print.lock().unwrap_or_else(PoisonError::into_inner);
        if !force && last.elapsed() < Duration::from_millis(500) {
            return;
        }
        *last = Instant::now();
        let done = self.done.load(Ordering::Relaxed);
        let faulted = self.faulted.load(Ordering::Relaxed);
        let evals = self.evals.load(Ordering::Relaxed);
        let elapsed = self.started.elapsed().as_secs_f64().max(1e-9);
        let rate = evals as f64 / elapsed;
        let eta = if done > 0 && done < self.total {
            (elapsed / done as f64) * (self.total - done) as f64
        } else {
            0.0
        };
        let line = format!(
            "[dfs-core] progress: {done}/{} cells | {faulted} faulted | \
             {rate:.1} evals/s | eta {eta:.0}s",
            self.total
        );
        // On a terminal, redraw in place; in a log, emit discrete lines.
        if std::io::stderr().is_terminal() {
            eprint!("\r\x1b[2K{line}");
        } else {
            eprintln!("{line}");
        }
    }

    /// Forces the final summary (and terminates the in-place line).
    fn finish(&self) {
        if !self.enabled {
            return;
        }
        self.print(true);
        if std::io::stderr().is_terminal() {
            eprintln!();
        }
    }
}

impl RunnerOptions<'_> {
    /// Default options with `threads` workers.
    pub fn with_threads(threads: usize) -> Self {
        RunnerOptions { threads, ..RunnerOptions::default() }
    }
}

/// Executes every (scenario × arm) cell.
///
/// `splits` maps dataset names to prepared splits. `threads = 1` runs
/// sequentially (most precise timings); more threads fan scenarios out
/// through the shared [`Executor`]. Equivalent to [`run_benchmark_opts`]
/// with [`RunnerOptions::with_threads`].
pub fn run_benchmark(
    splits: &HashMap<String, Split>,
    scenarios: Vec<MlScenario>,
    arms: &[Arm],
    settings: &ScenarioSettings,
    threads: usize,
) -> BenchmarkMatrix {
    run_benchmark_opts(splits, scenarios, arms, settings, &RunnerOptions::with_threads(threads))
}

/// Fault-isolated benchmark execution: the matrix always comes back with
/// every row filled.
///
/// A cell that panics is caught and recorded as [`CellStatus::Panicked`]; a
/// cell that outlives the watchdog deadline is abandoned and recorded as
/// [`CellStatus::TimedOut`]; a scenario whose dataset has no prepared split
/// becomes a row of [`CellStatus::Skipped`] cells with a warning instead of
/// aborting the run. Rows supplied via [`RunnerOptions::resume`] are kept
/// verbatim, and every freshly computed row is handed to
/// [`RunnerOptions::on_row`] so callers can checkpoint incrementally.
pub fn run_benchmark_opts(
    splits: &HashMap<String, Split>,
    scenarios: Vec<MlScenario>,
    arms: &[Arm],
    settings: &ScenarioSettings,
    opts: &RunnerOptions<'_>,
) -> BenchmarkMatrix {
    let n = scenarios.len();
    // Splits and settings are shared with watchdogged cell threads, which
    // can outlive a timed-out wait; `Arc` keeps the data alive independent
    // of this stack frame.
    let shared_splits: HashMap<&str, Arc<Split>> =
        splits.iter().map(|(k, v)| (k.as_str(), Arc::new(v.clone()))).collect();
    let shared_settings = Arc::new(settings.clone());
    // One cache for the whole run: each feature ranking is computed once
    // per (dataset, split) instead of once per TPE(ranking) arm, and a
    // subset measured by one arm is served to every other arm (and row)
    // with the same measurement-relevant settings and split. Bit-identical
    // to running each cell alone (DESIGN.md § 4h).
    let artifacts = Arc::new(ArtifactCache::new());

    // One permit pool for the whole run: the outer row loop and every inner
    // hot loop draw from it, so the total number of computing threads never
    // exceeds `max(threads, inner_threads)` no matter how the loops nest.
    let inner = if opts.inner_threads == 0 { env_threads() } else { opts.inner_threads };
    let outer = opts.threads.max(1);
    let exec = Arc::new(Executor::new(outer.max(inner)));

    // Resumed rows are kept verbatim; their indices are skipped below.
    let resumed: HashMap<usize, &Vec<CellResult>> = opts
        .resume
        .iter()
        .filter(|(&i, row)| i < n && row.len() == arms.len())
        .map(|(&i, row)| (i, row))
        .collect();

    // Warm the shared ranking cache before the cells race for it: the
    // cache's exactly-once semantics would serialize the first arms on the
    // heavyweight rankings; warming computes them all up front, as one
    // queue over every dataset the run still needs.
    let observing = opts.observer.is_some() && obs::trace_enabled();
    let warm_depth = observing.then(obs::push_collector);
    {
        let _g = obs::span("warm_rankings");
        let mut kinds: Vec<RankingKind> = Vec::new();
        for arm in arms {
            if let Arm::Strategy(StrategyId::TpeRanking(k)) = arm {
                if !kinds.contains(k) {
                    kinds.push(*k);
                }
            }
        }
        let mut datasets: Vec<(&str, &Split)> = Vec::new();
        for (i, s) in scenarios.iter().enumerate() {
            let name = s.dataset.as_str();
            if resumed.contains_key(&i) || datasets.iter().any(|(d, _)| *d == name) {
                continue;
            }
            if let Some(split) = shared_splits.get(name) {
                datasets.push((name, split.as_ref()));
            }
        }
        if !kinds.is_empty() {
            artifacts.warm_rankings(&datasets, &kinds, &exec);
        }
    }
    if let (Some(observer), Some(depth)) = (opts.observer, warm_depth) {
        if let Some(c) = obs::take_collector(depth) {
            observer.absorb_run(c);
        }
    }

    let fresh_rows = n - resumed.len();
    let progress = ProgressMeter::new(opts.progress, fresh_rows * arms.len());
    let row_indices: Vec<usize> = (0..n).collect();
    let computed: Vec<Option<Vec<CellResult>>> =
        exec.par_map_indexed_limit(&row_indices, outer, |_, &i| {
            if resumed.contains_key(&i) {
                return None; // kept verbatim during assembly
            }
            // A panic anywhere outside the (already panic-isolated) cells —
            // e.g. in the checkpoint sink — loses this row, not the run.
            catch_unwind(AssertUnwindSafe(|| {
                let row_depth = observing.then(obs::push_collector);
                let row_span = obs::span("row");
                let scenario = &scenarios[i];
                let row: Vec<CellResult> = match shared_splits.get(scenario.dataset.as_str()) {
                    None => {
                        let err =
                            DfsError::UnknownDataset { dataset: scenario.dataset.clone() };
                        obs::warn!("dfs-core", "{err}; scenario row {i} recorded as skipped");
                        progress.row_skipped(arms.len());
                        arms.iter()
                            .map(|_| CellResult::faulted(CellStatus::Skipped, Duration::ZERO))
                            .collect()
                    }
                    Some(split) => arms
                        .iter()
                        .enumerate()
                        .map(|(a, &arm)| {
                            let fault = opts.fault_plan.and_then(|p| p.get(i, a));
                            let (cell, trace) = run_cell_guarded(
                                scenario,
                                i,
                                a,
                                split,
                                &shared_settings,
                                arm,
                                fault,
                                &artifacts,
                                &exec,
                                opts,
                            );
                            if let (Some(observer), Some(c)) = (opts.observer, trace) {
                                let label =
                                    format!("{}#{i} {}", scenario.dataset, arm.name());
                                observer.record_cell(i, a, label, c);
                            }
                            progress.cell_done(&cell);
                            cell
                        })
                        .collect(),
                };
                if let Some(sink) = opts.on_row {
                    let _g = obs::span("checkpoint.write");
                    sink(i, &row);
                }
                drop(row_span);
                if let (Some(observer), Some(depth)) = (opts.observer, row_depth) {
                    if let Some(c) = obs::take_collector(depth) {
                        observer.record_row(i, c);
                    }
                }
                row
            }))
            .map_err(|_| {
                obs::warn!(
                    "dfs-core",
                    "a benchmark worker died on row {i}; recorded as skipped"
                );
            })
            .ok()
        });

    let results = computed
        .into_iter()
        .enumerate()
        .map(|(i, r)| {
            r.or_else(|| resumed.get(&i).map(|row| (*row).clone())).unwrap_or_else(|| {
                arms.iter()
                    .map(|_| CellResult::faulted(CellStatus::Skipped, Duration::ZERO))
                    .collect()
            })
        })
        .collect();
    progress.finish();
    let matrix = BenchmarkMatrix { arms: arms.to_vec(), scenarios, results };
    if let Some(observer) = opts.observer {
        let (ok, panicked, timed_out, skipped) = matrix.status_counts();
        observer.run_counter("cells.ok", ok as u64);
        observer.run_counter("cells.panicked", panicked as u64);
        observer.run_counter("cells.timed_out", timed_out as u64);
        observer.run_counter("cells.skipped", skipped as u64);
    }
    matrix
}

/// One cell with panic isolation and a watchdog thread enforcing a hard
/// wall-clock deadline. Always returns a cell, plus the cell's trace
/// collector when one was recorded (a timed-out cell's collector is
/// stranded on the abandoned thread and therefore absent).
#[allow(clippy::too_many_arguments)]
fn run_cell_guarded(
    scenario: &MlScenario,
    scenario_idx: usize,
    arm_idx: usize,
    split: &Arc<Split>,
    settings: &Arc<ScenarioSettings>,
    arm: Arm,
    fault: Option<FaultKind>,
    artifacts: &Arc<ArtifactCache>,
    exec: &Arc<Executor>,
    opts: &RunnerOptions<'_>,
) -> (CellResult, Option<obs::Collector>) {
    let label = format!("{}#{scenario_idx}", scenario.dataset);
    let observe = opts.observer.is_some();
    let deadline =
        scenario.constraints.max_search_time.mul_f64(opts.deadline_factor) + opts.deadline_grace;
    let heartbeat = Arc::new(obs::Heartbeat::new());
    let (tx, rx) = mpsc::channel();
    let spawned = {
        let scenario = scenario.clone();
        let split = Arc::clone(split);
        let settings = Arc::clone(settings);
        let artifacts = Arc::clone(artifacts);
        let exec = Arc::clone(exec);
        let label = label.clone();
        let heartbeat = Arc::clone(&heartbeat);
        std::thread::Builder::new().name(format!("dfs-cell-{scenario_idx}")).spawn(move || {
            // After a timeout the receiver is gone and the send fails
            // silently; the thread just exits.
            let _ = tx.send(run_cell_isolated(
                &scenario,
                &split,
                &settings,
                arm,
                fault,
                &artifacts,
                &exec,
                &label,
                Some(&heartbeat),
                observe,
            ));
        })
    };
    if spawned.is_err() {
        // Thread exhaustion: degrade to inline panic isolation (no
        // deadline) rather than losing the cell.
        return run_cell_isolated(
            scenario, split, settings, arm, fault, artifacts, exec, &label, None, observe,
        );
    }
    match rx.recv_timeout(deadline) {
        Ok(cell) => cell,
        Err(_) => {
            // The cell thread is abandoned — it may be holding a stuck
            // model fit — and exits on its own whenever the arm returns.
            // The heartbeat names the last phase the cell reported, so the
            // timeout report says *where* the stall was detected.
            let phase = heartbeat.last();
            let err = DfsError::CellTimedOut {
                scenario: label.clone(),
                arm: arm.name(),
                deadline,
                phase,
            };
            obs::warn!("dfs-core", "{err}");
            if let Some(observer) = opts.observer {
                if obs::trace_enabled() {
                    let cell_label = format!("{label} {}", arm.name());
                    observer.log_cell(
                        scenario_idx,
                        arm_idx,
                        cell_label,
                        obs::Level::Warn,
                        "dfs-core",
                        err.to_string(),
                    );
                }
            }
            (CellResult::faulted(CellStatus::TimedOut, deadline), None)
        }
    }
}

/// Runs one cell under `catch_unwind`; a panic becomes a
/// [`CellStatus::Panicked`] sentinel, a normal return is sanitized.
///
/// When `hb` is given, it is installed as the thread's heartbeat for the
/// duration (the watchdog's stall-attribution channel); when `observe` is
/// set and tracing is on, the cell records into a fresh collector that is
/// returned alongside the result — even when the cell panicked, so partial
/// traces of failed cells survive.
#[allow(clippy::too_many_arguments)]
fn run_cell_isolated(
    scenario: &MlScenario,
    split: &Split,
    settings: &ScenarioSettings,
    arm: Arm,
    fault: Option<FaultKind>,
    artifacts: &Arc<ArtifactCache>,
    exec: &Arc<Executor>,
    label: &str,
    hb: Option<&Arc<obs::Heartbeat>>,
    observe: bool,
) -> (CellResult, Option<obs::Collector>) {
    let started = Instant::now();
    if let Some(hb) = hb {
        obs::install_heartbeat(Arc::clone(hb));
    }
    obs::heartbeat("cell.start");
    let depth = (observe && obs::trace_enabled()).then(obs::push_collector);
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let _g = obs::span("cell");
        run_cell(scenario, split, settings, arm, fault, artifacts, exec)
    }));
    let cell = match outcome {
        Ok(cell) => sanitize_cell(cell),
        Err(payload) => {
            let err = DfsError::CellPanicked {
                scenario: label.to_string(),
                arm: arm.name(),
                payload: panic_payload_to_string(&*payload),
            };
            // Logged while the cell collector is still attached, so the
            // record lands in this cell's journal scope.
            obs::warn!("dfs-core", "{err}");
            CellResult::faulted(CellStatus::Panicked, started.elapsed())
        }
    };
    let trace = depth.and_then(obs::take_collector);
    if hb.is_some() {
        obs::clear_heartbeat();
    }
    (cell, trace)
}

/// The unguarded cell body; the only place faults are injected, so injected
/// and organic faults take the same recovery path.
#[allow(clippy::too_many_arguments)]
fn run_cell(
    scenario: &MlScenario,
    split: &Split,
    settings: &ScenarioSettings,
    arm: Arm,
    fault: Option<FaultKind>,
    artifacts: &Arc<ArtifactCache>,
    exec: &Arc<Executor>,
) -> CellResult {
    match fault {
        Some(FaultKind::Panic) => panic!("injected fault: panic in {}", arm.name()),
        Some(FaultKind::Stall(d)) => {
            // Name the stall for the watchdog before blocking, so a
            // timed-out cell's report points at the injected fault.
            obs::heartbeat("fault.stall");
            std::thread::sleep(d);
        }
        Some(FaultKind::Garbage) => {
            return CellResult {
                status: CellStatus::Ok,
                success: true,
                elapsed: Duration::ZERO,
                val_distance: f64::NAN,
                test_distance: f64::NAN,
                evaluations: usize::MAX,
                test_f1: f64::NAN,
                subset_size: usize::MAX,
                perf: EvalPerf::default(),
            };
        }
        None => {}
    }
    match arm {
        Arm::Original => CellResult::from(&run_original_features_with_exec(
            scenario, split, settings, artifacts, exec,
        )),
        Arm::Strategy(id) => {
            CellResult::from(&run_dfs_with_exec(scenario, split, settings, id, artifacts, exec))
        }
    }
}

/// Repairs a cell that executed but returned out-of-domain values — NaN
/// distances or F1, or a success claim contradicted by a nonzero distance —
/// so the aggregations, which assume finite metrics and `success ⇒ both
/// distances zero`, treat it as an ordinary failure.
fn sanitize_cell(mut cell: CellResult) -> CellResult {
    if cell.val_distance.is_nan() {
        cell.val_distance = f64::INFINITY;
    }
    if cell.test_distance.is_nan() {
        cell.test_distance = f64::INFINITY;
    }
    if !cell.test_f1.is_finite() {
        cell.test_f1 = 0.0;
    }
    if cell.success && (cell.val_distance != 0.0 || cell.test_distance != 0.0) {
        cell.success = false;
    }
    cell
}

/// Portfolio objective for [`BenchmarkMatrix::greedy_portfolio`] (Table 8).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PortfolioObjective {
    /// Maximize the fraction of satisfiable scenarios covered by the union.
    Coverage,
    /// Maximize the fraction of scenarios where the portfolio contains the
    /// overall-fastest strategy.
    Fastest,
}

impl BenchmarkMatrix {
    /// Index of an arm.
    pub fn arm_index(&self, arm: Arm) -> Option<usize> {
        self.arms.iter().position(|a| *a == arm)
    }

    /// Summed evaluation-engine work counters over every cell — the
    /// whole-run perf report the bench mains print after a run.
    pub fn total_perf(&self) -> EvalPerf {
        let mut total = EvalPerf::default();
        for row in &self.results {
            for cell in row {
                total.merge(&cell.perf);
            }
        }
        total
    }

    /// Cells per terminal status as `(ok, panicked, timed_out, skipped)` —
    /// the fault report the bench mains print after a run.
    pub fn status_counts(&self) -> (usize, usize, usize, usize) {
        let mut counts = (0usize, 0usize, 0usize, 0usize);
        for row in &self.results {
            for cell in row {
                match cell.status {
                    CellStatus::Ok => counts.0 += 1,
                    CellStatus::Panicked => counts.1 += 1,
                    CellStatus::TimedOut => counts.2 += 1,
                    CellStatus::Skipped => counts.3 += 1,
                }
            }
        }
        counts
    }

    /// Scenario indices where at least one *strategy* arm succeeded — the
    /// denominator of every coverage number (the paper "focuses on the ML
    /// scenarios where at least one FS strategy found a feature set").
    pub fn satisfiable(&self) -> Vec<usize> {
        (0..self.scenarios.len())
            .filter(|&i| {
                self.arms
                    .iter()
                    .zip(&self.results[i])
                    .any(|(arm, cell)| matches!(arm, Arm::Strategy(_)) && cell.success)
            })
            .collect()
    }

    /// Distinct dataset names, in first-appearance order.
    pub fn datasets(&self) -> Vec<String> {
        let mut names = Vec::new();
        for s in &self.scenarios {
            if !names.contains(&s.dataset) {
                names.push(s.dataset.clone());
            }
        }
        names
    }

    /// Per-dataset coverage of one arm over the satisfiable scenarios.
    pub fn coverage_by_dataset(&self, arm_idx: usize) -> Vec<(String, f64)> {
        let satisfiable = self.satisfiable();
        self.datasets()
            .into_iter()
            .filter_map(|ds| {
                let rows: Vec<usize> = satisfiable
                    .iter()
                    .copied()
                    .filter(|&i| self.scenarios[i].dataset == ds)
                    .collect();
                if rows.is_empty() {
                    return None;
                }
                let wins = rows.iter().filter(|&&i| self.results[i][arm_idx].success).count();
                Some((ds, wins as f64 / rows.len() as f64))
            })
            .collect()
    }

    /// Coverage mean ± std across datasets (the paper's Table 3 format).
    pub fn coverage_stats(&self, arm_idx: usize) -> (f64, f64) {
        mean_std(&self.coverage_by_dataset(arm_idx).iter().map(|(_, c)| *c).collect::<Vec<_>>())
    }

    /// For each satisfiable scenario, the arm that succeeded fastest.
    pub fn fastest_arm_per_scenario(&self) -> Vec<(usize, usize)> {
        self.satisfiable()
            .into_iter()
            .filter_map(|i| {
                self.results[i]
                    .iter()
                    .enumerate()
                    .filter(|(_, c)| c.success)
                    .min_by(|(_, a), (_, b)| a.elapsed.cmp(&b.elapsed))
                    .map(|(arm, _)| (i, arm))
            })
            .collect()
    }

    /// Fastest-fraction mean ± std across datasets for one arm.
    pub fn fastest_stats(&self, arm_idx: usize) -> (f64, f64) {
        let fastest = self.fastest_arm_per_scenario();
        let per_ds: Vec<f64> = self
            .datasets()
            .into_iter()
            .filter_map(|ds| {
                let rows: Vec<&(usize, usize)> =
                    fastest.iter().filter(|(i, _)| self.scenarios[*i].dataset == ds).collect();
                if rows.is_empty() {
                    return None;
                }
                let wins = rows.iter().filter(|(_, a)| *a == arm_idx).count();
                Some(wins as f64 / rows.len() as f64)
            })
            .collect();
        mean_std(&per_ds)
    }

    /// Aggregate coverage of one arm over a filtered subset of satisfiable
    /// scenarios (Tables 5 and 6).
    pub fn coverage_where(&self, arm_idx: usize, pred: impl Fn(&MlScenario) -> bool) -> f64 {
        let rows: Vec<usize> =
            self.satisfiable().into_iter().filter(|&i| pred(&self.scenarios[i])).collect();
        if rows.is_empty() {
            return 0.0;
        }
        let wins = rows.iter().filter(|&&i| self.results[i][arm_idx].success).count();
        wins as f64 / rows.len() as f64
    }

    /// Mean ± std of validation/test distance over an arm's *failed*
    /// satisfiable scenarios (Table 4).
    pub fn failure_distances(&self, arm_idx: usize) -> ((f64, f64), (f64, f64)) {
        let mut val = Vec::new();
        let mut test = Vec::new();
        for i in self.satisfiable() {
            let cell = &self.results[i][arm_idx];
            if !cell.success && cell.val_distance.is_finite() {
                val.push(cell.val_distance);
                test.push(cell.test_distance);
            }
        }
        (mean_std(&val), mean_std(&test))
    }

    /// Mean ± std (across datasets) of the normalized test-F1 of one arm —
    /// the utility benchmark's metric: each scenario's F1 is divided by the
    /// best F1 any arm achieved on that scenario.
    pub fn normalized_f1_stats(&self, arm_idx: usize) -> (f64, f64) {
        let per_ds: Vec<f64> = self
            .datasets()
            .into_iter()
            .filter_map(|ds| {
                let mut vals = Vec::new();
                for i in 0..self.scenarios.len() {
                    if self.scenarios[i].dataset != ds {
                        continue;
                    }
                    let best = self.results[i]
                        .iter()
                        .map(|c| c.test_f1)
                        .fold(0.0f64, f64::max);
                    if best > 0.0 {
                        vals.push(self.results[i][arm_idx].test_f1 / best);
                    }
                }
                if vals.is_empty() {
                    None
                } else {
                    Some(vals.iter().sum::<f64>() / vals.len() as f64)
                }
            })
            .collect();
        mean_std(&per_ds)
    }

    /// Greedy top-k portfolio construction (Table 8): starting empty,
    /// repeatedly add the arm with the greatest marginal gain under the
    /// objective. Returns `(arm index, achieved mean, achieved std)` after
    /// each addition. Only strategy arms participate for Coverage (the
    /// paper's Fastest portfolio includes Original Features).
    pub fn greedy_portfolio(&self, objective: PortfolioObjective) -> Vec<(usize, f64, f64)> {
        let candidates: Vec<usize> = match objective {
            PortfolioObjective::Coverage => self
                .arms
                .iter()
                .enumerate()
                .filter(|(_, a)| matches!(a, Arm::Strategy(_)))
                .map(|(i, _)| i)
                .collect(),
            PortfolioObjective::Fastest => (0..self.arms.len()).collect(),
        };
        let mut chosen: Vec<usize> = Vec::new();
        let mut out = Vec::new();
        loop {
            let mut best: Option<(usize, f64, f64)> = None;
            for &c in &candidates {
                if chosen.contains(&c) {
                    continue;
                }
                let mut trial = chosen.clone();
                trial.push(c);
                let (mean, std) = self.portfolio_score(&trial, objective);
                if best.map(|(_, m, _)| mean > m).unwrap_or(true) {
                    best = Some((c, mean, std));
                }
            }
            match best {
                Some((c, mean, std)) => {
                    chosen.push(c);
                    out.push((c, mean, std));
                    if mean >= 1.0 - 1e-12 {
                        break;
                    }
                }
                None => break,
            }
        }
        out
    }

    /// Mean ± std (across datasets) of a portfolio's objective.
    pub fn portfolio_score(&self, portfolio: &[usize], objective: PortfolioObjective) -> (f64, f64) {
        let satisfiable = self.satisfiable();
        let fastest: HashMap<usize, usize> = self.fastest_arm_per_scenario().into_iter().collect();
        let per_ds: Vec<f64> = self
            .datasets()
            .into_iter()
            .filter_map(|ds| {
                let rows: Vec<usize> = satisfiable
                    .iter()
                    .copied()
                    .filter(|&i| self.scenarios[i].dataset == ds)
                    .collect();
                if rows.is_empty() {
                    return None;
                }
                let wins = rows
                    .iter()
                    .filter(|&&i| match objective {
                        PortfolioObjective::Coverage => {
                            portfolio.iter().any(|&a| self.results[i][a].success)
                        }
                        PortfolioObjective::Fastest => {
                            fastest.get(&i).is_some_and(|f| portfolio.contains(f))
                        }
                    })
                    .count();
                Some(wins as f64 / rows.len() as f64)
            })
            .collect();
        mean_std(&per_ds)
    }

    /// Coverage (mean ± std across datasets) achieved by a per-scenario arm
    /// choice — used to score the meta-learning DFS optimizer, which picks
    /// one strategy per scenario.
    pub fn choice_coverage(&self, choices: &HashMap<usize, usize>) -> (f64, f64) {
        let satisfiable = self.satisfiable();
        let per_ds: Vec<f64> = self
            .datasets()
            .into_iter()
            .filter_map(|ds| {
                let rows: Vec<usize> = satisfiable
                    .iter()
                    .copied()
                    .filter(|&i| self.scenarios[i].dataset == ds)
                    .collect();
                if rows.is_empty() {
                    return None;
                }
                let wins = rows
                    .iter()
                    .filter(|&&i| {
                        choices.get(&i).is_some_and(|&a| self.results[i][a].success)
                    })
                    .count();
                Some(wins as f64 / rows.len() as f64)
            })
            .collect();
        mean_std(&per_ds)
    }
}

/// Mean and population standard deviation; `(0, 0)` for empty input.
pub fn mean_std(xs: &[f64]) -> (f64, f64) {
    if xs.is_empty() {
        return (0.0, 0.0);
    }
    let mean = xs.iter().sum::<f64>() / xs.len() as f64;
    let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / xs.len() as f64;
    (mean, var.sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dfs_constraints::ConstraintSet;
    use dfs_models::ModelKind;

    /// Builds a tiny hand-crafted matrix (no real execution) to test the
    /// aggregations exactly.
    fn toy_matrix() -> BenchmarkMatrix {
        let arms = vec![
            Arm::Original,
            Arm::Strategy(StrategyId::Sfs),
            Arm::Strategy(StrategyId::Sbs),
        ];
        let mk_scenario = |ds: &str, model: ModelKind| MlScenario {
            dataset: ds.into(),
            model,
            hpo: false,
            constraints: ConstraintSet::accuracy_only(0.5, Duration::from_secs(1)),
            utility_f1: false,
            seed: 0,
        };
        let cell = |success: bool, ms: u64, f1: f64| CellResult {
            status: CellStatus::Ok,
            success,
            elapsed: Duration::from_millis(ms),
            val_distance: if success { 0.0 } else { 0.1 },
            test_distance: if success { 0.0 } else { 0.2 },
            evaluations: 5,
            test_f1: f1,
            subset_size: 2,
            perf: EvalPerf { model_fits: 5, ..EvalPerf::default() },
        };
        BenchmarkMatrix {
            arms,
            scenarios: vec![
                mk_scenario("a", ModelKind::LogisticRegression),
                mk_scenario("a", ModelKind::GaussianNb),
                mk_scenario("b", ModelKind::LogisticRegression),
                mk_scenario("b", ModelKind::DecisionTree),
            ],
            results: vec![
                // s0: SFS fastest success, SBS slower success.
                vec![cell(false, 1, 0.5), cell(true, 10, 0.8), cell(true, 20, 0.7)],
                // s1: only SBS succeeds.
                vec![cell(false, 1, 0.4), cell(false, 10, 0.5), cell(true, 30, 0.9)],
                // s2: nothing succeeds (not satisfiable).
                vec![cell(false, 1, 0.3), cell(false, 10, 0.2), cell(false, 30, 0.1)],
                // s3: SFS succeeds.
                vec![cell(false, 1, 0.6), cell(true, 5, 0.9), cell(false, 30, 0.3)],
            ],
        }
    }

    #[test]
    fn satisfiable_excludes_all_fail_rows_and_original_only_rows() {
        let m = toy_matrix();
        assert_eq!(m.satisfiable(), vec![0, 1, 3]);
    }

    #[test]
    fn coverage_stats_average_across_datasets() {
        let m = toy_matrix();
        let sfs = m.arm_index(Arm::Strategy(StrategyId::Sfs)).unwrap();
        // Dataset a: 1/2 satisfiable covered; dataset b: 1/1.
        let by_ds = m.coverage_by_dataset(sfs);
        assert_eq!(by_ds, vec![("a".to_string(), 0.5), ("b".to_string(), 1.0)]);
        let (mean, std) = m.coverage_stats(sfs);
        assert!((mean - 0.75).abs() < 1e-12);
        assert!((std - 0.25).abs() < 1e-12);
    }

    #[test]
    fn fastest_assignment_prefers_min_elapsed_success() {
        let m = toy_matrix();
        let fastest = m.fastest_arm_per_scenario();
        let sfs = m.arm_index(Arm::Strategy(StrategyId::Sfs)).unwrap();
        let sbs = m.arm_index(Arm::Strategy(StrategyId::Sbs)).unwrap();
        assert_eq!(fastest, vec![(0, sfs), (1, sbs), (3, sfs)]);
        let (mean, _) = m.fastest_stats(sfs);
        // a: 1/2; b: 1/1 -> 0.75.
        assert!((mean - 0.75).abs() < 1e-12);
    }

    #[test]
    fn coverage_where_filters_by_model() {
        let m = toy_matrix();
        let sbs = m.arm_index(Arm::Strategy(StrategyId::Sbs)).unwrap();
        let nb_cov =
            m.coverage_where(sbs, |s| s.model == ModelKind::GaussianNb);
        assert_eq!(nb_cov, 1.0);
        let dt_cov =
            m.coverage_where(sbs, |s| s.model == ModelKind::DecisionTree);
        assert_eq!(dt_cov, 0.0);
    }

    #[test]
    fn failure_distances_cover_failed_cells_only() {
        let m = toy_matrix();
        let sfs = m.arm_index(Arm::Strategy(StrategyId::Sfs)).unwrap();
        let ((val_mean, _), (test_mean, _)) = m.failure_distances(sfs);
        // SFS failed only on s1 among satisfiable rows.
        assert!((val_mean - 0.1).abs() < 1e-12);
        assert!((test_mean - 0.2).abs() < 1e-12);
    }

    #[test]
    fn greedy_portfolio_reaches_full_coverage() {
        let m = toy_matrix();
        let steps = m.greedy_portfolio(PortfolioObjective::Coverage);
        assert!(!steps.is_empty());
        let last = steps.last().unwrap();
        assert!((last.1 - 1.0).abs() < 1e-12, "final coverage {}", last.1);
        // Two strategies suffice here.
        assert!(steps.len() <= 2);
    }

    #[test]
    fn greedy_fastest_portfolio_accumulates_wins() {
        let m = toy_matrix();
        let steps = m.greedy_portfolio(PortfolioObjective::Fastest);
        let last = steps.last().unwrap();
        assert!((last.1 - 1.0).abs() < 1e-12);
        // First pick must be SFS (fastest on 2 of 3).
        let sfs = m.arm_index(Arm::Strategy(StrategyId::Sfs)).unwrap();
        assert_eq!(steps[0].0, sfs);
    }

    #[test]
    fn choice_coverage_scores_per_scenario_choices() {
        let m = toy_matrix();
        let sfs = m.arm_index(Arm::Strategy(StrategyId::Sfs)).unwrap();
        let sbs = m.arm_index(Arm::Strategy(StrategyId::Sbs)).unwrap();
        // Perfect choices: sfs, sbs, sfs.
        let choices: HashMap<usize, usize> = [(0, sfs), (1, sbs), (3, sfs)].into();
        let (mean, _) = m.choice_coverage(&choices);
        assert!((mean - 1.0).abs() < 1e-12);
        // Bad choices: always sfs -> a: 1/2, b: 1/1.
        let bad: HashMap<usize, usize> = [(0, sfs), (1, sfs), (3, sfs)].into();
        let (mean_bad, _) = m.choice_coverage(&bad);
        assert!((mean_bad - 0.75).abs() < 1e-12);
    }

    #[test]
    fn normalized_f1_is_one_for_the_per_scenario_best() {
        let m = toy_matrix();
        let sbs = m.arm_index(Arm::Strategy(StrategyId::Sbs)).unwrap();
        let (mean, _) = m.normalized_f1_stats(sbs);
        assert!(mean > 0.0 && mean <= 1.0);
    }

    #[test]
    fn mean_std_basics() {
        assert_eq!(mean_std(&[]), (0.0, 0.0));
        let (m, s) = mean_std(&[2.0, 4.0]);
        assert_eq!((m, s), (3.0, 1.0));
    }

    #[test]
    fn status_codes_roundtrip() {
        for s in [CellStatus::Ok, CellStatus::Panicked, CellStatus::TimedOut, CellStatus::Skipped]
        {
            assert_eq!(CellStatus::from_code(s.code()), Some(s));
        }
        assert_eq!(CellStatus::from_code('X'), None);
    }

    #[test]
    fn faulted_cells_aggregate_exactly_like_plain_failures() {
        let plain = toy_matrix();
        let mut faulted = toy_matrix();
        // Replace two already-failing cells with fault sentinels: every
        // aggregate except the finite-only distance means must be unchanged.
        faulted.results[1][1] = CellResult::faulted(CellStatus::Panicked, Duration::from_millis(10));
        faulted.results[2][0] = CellResult::faulted(CellStatus::TimedOut, Duration::from_secs(8));
        assert_eq!(faulted.satisfiable(), plain.satisfiable());
        for a in 0..plain.arms.len() {
            assert_eq!(faulted.coverage_stats(a), plain.coverage_stats(a));
            assert_eq!(faulted.fastest_stats(a), plain.fastest_stats(a));
        }
        let sfs = plain.arm_index(Arm::Strategy(StrategyId::Sfs)).unwrap();
        let ((val_mean, _), (test_mean, _)) = faulted.failure_distances(sfs);
        assert!(val_mean.is_finite() && test_mean.is_finite());
        assert_eq!(faulted.status_counts(), (10, 1, 1, 0));
        assert_eq!(plain.status_counts(), (12, 0, 0, 0));
    }

    // -- live-execution fault tests (tiny synthetic data) ----------------

    use dfs_data::split::stratified_three_way;
    use dfs_data::synthetic::{generate, tiny_spec};

    fn tiny_split() -> Split {
        let ds = generate(&tiny_spec(), 11);
        stratified_three_way(&ds, 11)
    }

    fn real_scenario(ds: &str, time: Duration) -> MlScenario {
        MlScenario {
            dataset: ds.into(),
            model: ModelKind::DecisionTree,
            hpo: false,
            constraints: ConstraintSet::accuracy_only(0.55, time),
            utility_f1: false,
            seed: 2,
        }
    }

    #[test]
    fn runner_survives_panics_missing_splits_and_stalls() {
        let mut splits = HashMap::new();
        splits.insert("tiny".to_string(), tiny_split());
        let arms = vec![Arm::Original, Arm::Strategy(StrategyId::Sfs)];
        let scenarios = vec![
            real_scenario("tiny", Duration::from_secs(20)),
            real_scenario("ghost", Duration::from_secs(20)),
            real_scenario("tiny", Duration::from_millis(50)),
        ];
        let mut plan = FaultPlan::new();
        plan.inject(0, 1, FaultKind::Panic)
            .inject(2, 1, FaultKind::Stall(Duration::from_secs(5)));
        let opts = RunnerOptions {
            deadline_factor: 1.0,
            deadline_grace: Duration::from_millis(100),
            fault_plan: Some(&plan),
            ..RunnerOptions::default()
        };
        let m = run_benchmark_opts(&splits, scenarios, &arms, &ScenarioSettings::fast(), &opts);
        // Panic isolated to its cell; the neighbor still ran.
        assert_eq!(m.results[0][1].status, CellStatus::Panicked);
        assert!(!m.results[0][1].success);
        assert_eq!(m.results[0][0].status, CellStatus::Ok);
        // Missing split skips the row instead of aborting the run.
        assert!(m.results[1].iter().all(|c| c.status == CellStatus::Skipped));
        // The 5 s stall blows the 150 ms watchdog deadline.
        assert_eq!(m.results[2][1].status, CellStatus::TimedOut);
        assert_eq!(m.results[2][0].status, CellStatus::Ok);
    }

    #[test]
    fn garbage_cells_are_sanitized_to_ordinary_failures() {
        let mut splits = HashMap::new();
        splits.insert("tiny".to_string(), tiny_split());
        let arms = vec![Arm::Strategy(StrategyId::Sfs)];
        let scenarios = vec![real_scenario("tiny", Duration::from_secs(20))];
        let mut plan = FaultPlan::new();
        plan.inject(0, 0, FaultKind::Garbage);
        let opts = RunnerOptions { fault_plan: Some(&plan), ..RunnerOptions::default() };
        let m = run_benchmark_opts(&splits, scenarios, &arms, &ScenarioSettings::fast(), &opts);
        let cell = &m.results[0][0];
        assert_eq!(cell.status, CellStatus::Ok);
        assert!(!cell.success, "success claim with NaN distances must be demoted");
        assert!(cell.val_distance.is_infinite() && cell.test_distance.is_infinite());
        assert_eq!(cell.test_f1, 0.0);
        // The infinite sentinel stays out of the Table 4 failure means.
        let ((val_mean, _), _) = m.failure_distances(0);
        assert_eq!(val_mean, 0.0);
    }

    #[test]
    fn resume_keeps_rows_verbatim_and_reports_only_fresh_rows() {
        let mut splits = HashMap::new();
        splits.insert("tiny".to_string(), tiny_split());
        let arms = vec![Arm::Strategy(StrategyId::Sfs)];
        let scenarios = vec![
            real_scenario("tiny", Duration::from_secs(20)),
            real_scenario("tiny", Duration::from_secs(20)),
        ];
        // Row 0 is "already computed"; the fault plan would panic it if the
        // runner recomputed it anyway.
        let sentinel = CellResult {
            status: CellStatus::Ok,
            success: true,
            elapsed: Duration::from_millis(123),
            val_distance: 0.0,
            test_distance: 0.0,
            evaluations: 1,
            test_f1: 0.9,
            subset_size: 777,
            perf: EvalPerf::default(),
        };
        let mut plan = FaultPlan::new();
        plan.inject(0, 0, FaultKind::Panic);
        let reported: Mutex<Vec<usize>> = Mutex::new(Vec::new());
        let sink = |i: usize, _row: &[CellResult]| {
            reported.lock().unwrap_or_else(PoisonError::into_inner).push(i)
        };
        let opts = RunnerOptions {
            fault_plan: Some(&plan),
            resume: HashMap::from([(0usize, vec![sentinel.clone()])]),
            on_row: Some(&sink),
            ..RunnerOptions::default()
        };
        let m = run_benchmark_opts(&splits, scenarios, &arms, &ScenarioSettings::fast(), &opts);
        assert_eq!(m.results[0][0].status, CellStatus::Ok);
        assert_eq!(m.results[0][0].subset_size, 777);
        assert_eq!(m.results[1][0].status, CellStatus::Ok);
        assert_eq!(*reported.lock().unwrap_or_else(PoisonError::into_inner), vec![1]);
    }
}
