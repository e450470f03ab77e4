//! `dfs-harness` — a process-based benchmark orchestrator.
//!
//! The in-process `BENCH_*.json` snapshots measure library code inside one
//! warm process; this crate measures **what ships**: it spawns the release
//! `dfs` binary and the `dfs server` daemon as OS processes with fixed
//! seeds, drives a batch scenario matrix and server query storms, sweeps
//! `DFS_THREADS` for a real scaling curve, samples `/proc/<pid>` for
//! RSS/CPU trajectories, collects every child's `--summary-json` line and
//! `DFS_TRACE_DIR` obs exports, merges the log-bucketed histograms across
//! processes, and writes a schema-versioned, host-stamped `summary.json`
//! with p50/p95/p99/p999 per scenario cell.
//!
//! Determinism is asserted, not assumed: batch cells run with a binding
//! `--max-evals` cap (so the trajectory is budget-independent) and the
//! harness exits nonzero if any fingerprint diverges across repeats,
//! thread counts, or storm widths.
//!
//! The crate is dependency-free beyond the workspace (`dfs-obs` for
//! histogram math, `dfs-proto` for JSON, `dfs-client` for the storm).

pub mod procs;
pub mod resources;
pub mod storm;
pub mod summary;

use dfs_obs::Histogram;
use dfs_proto::Json;
use procs::{parse_summary, read_journal_hists, ChildReport, Spawned};
use std::fmt;
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::Duration;

/// Structured harness failures. Child-process trouble always surfaces as
/// one of these — never a hang (every wait is deadline-capped) and never
/// a bare panic.
#[derive(Debug)]
pub enum HarnessError {
    /// The child process could not be spawned at all.
    SpawnFailed { what: String, reason: String },
    /// The child exited with an unexpected status.
    ChildFailed { what: String, status: i32, stderr_tail: String },
    /// The child produced no summary line on stdout.
    NoSummaryLine { what: String },
    /// The final stdout line did not parse as a JSON summary.
    MalformedSummary { what: String, reason: String },
    /// `DFS_TRACE_DIR` exports were expected but absent.
    MissingTraceDir { path: PathBuf },
    /// A deadline-capped wait expired; the child was killed.
    Timeout { what: String, after: Duration },
    /// Results that must be bit-identical diverged.
    Divergence { what: String, detail: String },
    /// Storm-side client failure.
    Client { what: String, reason: String },
    /// Filesystem trouble (summary write, trace read).
    Io { what: String, reason: String },
}

impl fmt::Display for HarnessError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HarnessError::SpawnFailed { what, reason } => {
                write!(f, "failed to spawn {what}: {reason}")
            }
            HarnessError::ChildFailed { what, status, stderr_tail } => {
                write!(f, "{what} exited with status {status}; stderr tail: {stderr_tail}")
            }
            HarnessError::NoSummaryLine { what } => {
                write!(f, "{what} produced no --summary-json line on stdout")
            }
            HarnessError::MalformedSummary { what, reason } => {
                write!(f, "{what} summary line did not parse: {reason}")
            }
            HarnessError::MissingTraceDir { path } => {
                write!(f, "expected obs trace exports under {} but found none", path.display())
            }
            HarnessError::Timeout { what, after } => {
                write!(f, "{what} exceeded its {after:?} deadline and was killed")
            }
            HarnessError::Divergence { what, detail } => {
                write!(f, "bit-identity violated in {what}: {detail}")
            }
            HarnessError::Client { what, reason } => write!(f, "client error in {what}: {reason}"),
            HarnessError::Io { what, reason } => write!(f, "io error in {what}: {reason}"),
        }
    }
}

impl std::error::Error for HarnessError {}

/// One batch scenario cell of the suite.
#[derive(Debug, Clone, Copy)]
pub struct BatchCell {
    pub dataset: &'static str,
    pub model: &'static str,
    pub strategy: &'static str,
}

impl BatchCell {
    pub fn label(&self) -> String {
        format!("{}/{}/{}", self.dataset, self.model, self.strategy)
    }
}

/// The committed batch matrix: three cells covering a wrapper, a ranking
/// strategy, and the tree model, on two synthetic corpus datasets.
pub const BATCH_CELLS: [BatchCell; 3] = [
    BatchCell { dataset: "german_credit", model: "lr", strategy: "sffs" },
    BatchCell { dataset: "compas", model: "nb", strategy: "variance" },
    BatchCell { dataset: "compas", model: "dt", strategy: "sfs" },
];

/// Harness configuration (CLI flags resolve onto this).
#[derive(Debug, Clone)]
pub struct HarnessConfig {
    /// The `dfs` binary to orchestrate.
    pub dfs_bin: PathBuf,
    /// Where to write `summary.json`.
    pub out: PathBuf,
    /// Smoke mode: one thread-sweep point, one repeat, a short storm.
    pub smoke: bool,
    /// `DFS_THREADS` sweep points.
    pub threads: Vec<usize>,
    /// Repeats per batch cell per sweep point (wall-clock percentiles).
    pub repeats: usize,
    /// Scratch directory for trace exports and sidecars.
    pub work_dir: PathBuf,
    /// Requests per storm width.
    pub storm_requests: usize,
    /// Storm client widths.
    pub storm_widths: Vec<usize>,
    /// Per-child deadline.
    pub child_deadline: Duration,
}

impl HarnessConfig {
    /// The full configuration behind the committed `BENCH_harness.json`.
    pub fn full(dfs_bin: PathBuf) -> Self {
        Self {
            dfs_bin,
            out: PathBuf::from("summary.json"),
            smoke: false,
            threads: vec![1, 2, 4],
            repeats: 5,
            work_dir: std::env::temp_dir().join(format!("dfs-harness-{}", std::process::id())),
            storm_requests: 16,
            storm_widths: vec![1, 4],
            child_deadline: Duration::from_secs(120),
        }
    }

    /// CI smoke configuration: one sweep point, one repeat, tiny storm.
    pub fn smoke(dfs_bin: PathBuf) -> Self {
        Self {
            smoke: true,
            threads: vec![1],
            repeats: 1,
            storm_requests: 4,
            storm_widths: vec![1, 2],
            ..Self::full(dfs_bin)
        }
    }
}

const HARNESS_USAGE: &str = "\
dfs bench-harness — process-based benchmark orchestrator

USAGE:
    dfs bench-harness [OPTIONS]
    dfs-harness [OPTIONS]            (standalone binary)

OPTIONS:
    --smoke                  one sweep point, one repeat, short storm (CI)
    --out <path>             summary output path      [default: summary.json]
    --threads <a,b,c>        DFS_THREADS sweep points [default: 1,2,4]
    --repeats <n>            repeats per batch cell   [default: 5]
    --dfs <path>             dfs binary to orchestrate [default: self]
    --help                   print this help

Spawns the dfs binary (batch matrix, fixed seeds) and the dfs server
daemon (query storms at several client widths) as OS processes, sweeps
DFS_THREADS, samples /proc for RSS/CPU, merges the children's log-bucketed
latency histograms, and writes a schema-versioned summary.json with
p50/p95/p99/p999 per scenario cell. Batch results must be bit-identical
across sweep points; the harness exits 3 on divergence.
";

/// Resolves the `dfs` binary to orchestrate: `--dfs`, `$DFS_BIN`, a
/// `dfs-repro` sibling of the current executable, or the current
/// executable itself (the `dfs bench-harness` subcommand case).
fn default_dfs_bin() -> PathBuf {
    if let Ok(path) = std::env::var("DFS_BIN") {
        return PathBuf::from(path);
    }
    let exe = std::env::current_exe().unwrap_or_else(|_| PathBuf::from("dfs-repro"));
    let is_harness = exe
        .file_name()
        .and_then(|n| n.to_str())
        .is_some_and(|n| n.starts_with("dfs-harness"));
    if is_harness {
        let sibling = exe.with_file_name("dfs-repro");
        if sibling.exists() {
            return sibling;
        }
    }
    exe
}

/// Entry point shared by `dfs bench-harness` and the standalone binary.
pub fn cli_main(args: &[String]) -> ExitCode {
    if args.iter().any(|a| a == "--help" || a == "-h") {
        print!("{HARNESS_USAGE}");
        return ExitCode::SUCCESS;
    }
    let mut cfg = match parse_harness_args(args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("error: {e}\n\n{HARNESS_USAGE}");
            return ExitCode::FAILURE;
        }
    };
    if let Err(e) = std::fs::create_dir_all(&cfg.work_dir) {
        eprintln!("error: cannot create work dir {}: {e}", cfg.work_dir.display());
        return ExitCode::FAILURE;
    }
    let result = run_harness(&mut cfg);
    let _ = std::fs::remove_dir_all(&cfg.work_dir);
    match result {
        Ok(report) => {
            eprintln!("summary written to {}", cfg.out.display());
            if report.bit_identical {
                ExitCode::SUCCESS
            } else {
                eprintln!("error: bit-identity violated (see summary.json divergence notes)");
                ExitCode::from(3)
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn parse_harness_args(args: &[String]) -> Result<HarnessConfig, String> {
    let mut smoke = false;
    let mut out: Option<PathBuf> = None;
    let mut threads: Option<Vec<usize>> = None;
    let mut repeats: Option<usize> = None;
    let mut dfs_bin: Option<PathBuf> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let value = |v: Option<&String>, flag: &str| -> Result<String, String> {
            v.cloned().ok_or_else(|| format!("{flag} needs a value"))
        };
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--out" => out = Some(PathBuf::from(value(it.next(), "--out")?)),
            "--dfs" => dfs_bin = Some(PathBuf::from(value(it.next(), "--dfs")?)),
            "--repeats" => {
                repeats = Some(
                    value(it.next(), "--repeats")?
                        .parse()
                        .map_err(|e| format!("--repeats: {e}"))?,
                )
            }
            "--threads" => {
                let list = value(it.next(), "--threads")?
                    .split(',')
                    .map(|t| t.trim().parse::<usize>().map_err(|e| format!("--threads: {e}")))
                    .collect::<Result<Vec<_>, _>>()?;
                if list.is_empty() || list.contains(&0) {
                    return Err("--threads needs a comma list of positive widths".into());
                }
                threads = Some(list);
            }
            other => return Err(format!("unknown harness flag '{other}' (try --help)")),
        }
    }
    let bin = dfs_bin.unwrap_or_else(default_dfs_bin);
    let mut cfg = if smoke { HarnessConfig::smoke(bin) } else { HarnessConfig::full(bin) };
    if let Some(out) = out {
        cfg.out = out;
    }
    if let Some(threads) = threads {
        cfg.threads = threads;
    }
    if let Some(repeats) = repeats {
        cfg.repeats = repeats.max(1);
    }
    Ok(cfg)
}

/// What one harness run produced.
#[derive(Debug)]
pub struct HarnessReport {
    /// The summary JSON, as written to `cfg.out`.
    pub summary: Json,
    /// `true` when every cross-repeat / cross-thread / cross-width
    /// fingerprint check passed.
    pub bit_identical: bool,
}

/// One completed batch child run, reduced to what the harness keeps.
#[derive(Debug)]
struct BatchRun {
    /// Deterministic result fingerprint (must match across repeats and
    /// thread counts).
    fingerprint: String,
    /// Child-reported search wall-clock (ms).
    wall_ms: f64,
    /// Sparse eval-latency histogram from the summary line.
    eval_lat: Histogram,
    success: bool,
    evaluations: u64,
    subset_len: u64,
    peak_rss_bytes: u64,
    cpu_util: f64,
    /// Dataset rows the child run saw (scale provenance).
    rows: u64,
}

/// Runs the whole harness: batch matrix sweep, server storms, summary
/// assembly, bit-identity verdicts, and the `summary.json` write.
pub fn run_harness(cfg: &mut HarnessConfig) -> Result<HarnessReport, HarnessError> {
    let mut batch_cells_json: Vec<Json> = Vec::new();
    let mut divergences: Vec<String> = Vec::new();

    // ---- batch matrix sweep ------------------------------------------------
    for cell in &BATCH_CELLS {
        // Fingerprints of every run of this cell, keyed by (threads, rep),
        // all of which must agree.
        let mut reference: Option<(String, String)> = None;
        for &threads in &cfg.threads {
            let mut wall_hist = Histogram::default();
            let mut eval_lat = Histogram::default();
            let mut peak_rss = 0u64;
            let mut cpu_utils: Vec<f64> = Vec::new();
            let mut cell_meta: Option<(bool, u64, u64, u64)> = None;
            for rep in 0..cfg.repeats {
                let run = run_batch_cell(cfg, cell, threads, rep)?;
                let tag = format!("{} threads={threads} rep={rep}", cell.label());
                match &reference {
                    None => reference = Some((tag.clone(), run.fingerprint.clone())),
                    Some((ref_tag, ref_fp)) => {
                        if *ref_fp != run.fingerprint {
                            divergences.push(format!(
                                "{tag} diverged from {ref_tag}: {} != {}",
                                run.fingerprint, ref_fp
                            ));
                        }
                    }
                }
                wall_hist.record((run.wall_ms * 1e6) as u64);
                eval_lat.merge(&run.eval_lat);
                peak_rss = peak_rss.max(run.peak_rss_bytes);
                cpu_utils.push(run.cpu_util);
                cell_meta = Some((run.success, run.evaluations, run.subset_len, run.rows));
            }
            let (success, evaluations, subset_len, rows) = cell_meta.unwrap_or((false, 0, 0, 0));
            let cpu_util = if cpu_utils.is_empty() {
                0.0
            } else {
                cpu_utils.iter().sum::<f64>() / cpu_utils.len() as f64
            };
            batch_cells_json.push(Json::Obj(vec![
                ("scenario".into(), Json::Str(cell.label())),
                ("threads".into(), Json::Num(threads as f64)),
                ("repeats".into(), Json::Num(cfg.repeats as f64)),
                ("wall_ms".into(), summary::percentile_block_ms(&wall_hist)),
                ("eval_latency_ms".into(), summary::percentile_block_ms(&eval_lat)),
                ("peak_rss_bytes".into(), Json::Num(peak_rss as f64)),
                ("cpu_util".into(), Json::Num((cpu_util * 1000.0).round() / 1000.0)),
                ("success".into(), Json::Bool(success)),
                ("evaluations".into(), Json::Num(evaluations as f64)),
                ("subset_len".into(), Json::Num(subset_len as f64)),
                ("rows".into(), Json::Num(rows as f64)),
            ]));
        }
    }
    let batch_identical = divergences.is_empty();
    eprintln!(
        "batch matrix done: {} cells x {} sweep points, bit-identical={batch_identical}",
        BATCH_CELLS.len(),
        cfg.threads.len()
    );

    // ---- server query storms ----------------------------------------------
    let mut storm_points: Vec<Json> = Vec::new();
    let mut storm_reference: Option<(String, String)> = None;
    let mut storm_divergences: Vec<String> = Vec::new();
    for &threads in &cfg.threads {
        let point = storm::run_storm(cfg, threads)?;
        for width_run in &point.widths {
            let tag = format!("storm threads={threads} width={}", width_run.width);
            match &storm_reference {
                None => storm_reference = Some((tag.clone(), width_run.fingerprints.clone())),
                Some((ref_tag, ref_fps)) => {
                    if *ref_fps != width_run.fingerprints {
                        storm_divergences
                            .push(format!("{tag} results diverged from {ref_tag}"));
                    }
                }
            }
        }
        storm_points.extend(point.to_json());
    }
    let storm_identical = storm_divergences.is_empty();
    divergences.extend(storm_divergences);
    eprintln!("storms done: bit-identical={storm_identical}");

    // ---- summary assembly --------------------------------------------------
    let summary = Json::Obj(vec![
        ("schema".into(), Json::Str("dfs-harness/1".into())),
        ("generated_by".into(), Json::Str("dfs bench-harness".into())),
        ("git_commit".into(), Json::Str(git_commit())),
        (
            "host".into(),
            Json::Obj(vec![
                ("cpus".into(), Json::Num(host_cpus() as f64)),
                ("os".into(), Json::Str(std::env::consts::OS.into())),
                ("arch".into(), Json::Str(std::env::consts::ARCH.into())),
                ("clk_tck".into(), Json::Num(resources::clk_tck() as f64)),
            ]),
        ),
        ("smoke".into(), Json::Bool(cfg.smoke)),
        (
            "threads_sweep".into(),
            Json::Arr(cfg.threads.iter().map(|&t| Json::Num(t as f64)).collect()),
        ),
        ("batch".into(), Json::Arr(batch_cells_json)),
        ("server".into(), Json::Arr(storm_points)),
        (
            "bit_identical".into(),
            Json::Obj(vec![
                ("batch".into(), Json::Bool(batch_identical)),
                ("storm".into(), Json::Bool(storm_identical)),
            ]),
        ),
        (
            "divergences".into(),
            Json::Arr(divergences.iter().map(|d| Json::Str(d.clone())).collect()),
        ),
    ]);
    let body = format!("{summary}\n");
    std::fs::write(&cfg.out, body).map_err(|e| HarnessError::Io {
        what: format!("writing {}", cfg.out.display()),
        reason: e.to_string(),
    })?;
    Ok(HarnessReport { summary, bit_identical: batch_identical && storm_identical })
}

/// Runs one batch child: fixed seed, binding eval cap, traces exported,
/// `/proc` sampled. Returns the reduced [`BatchRun`].
fn run_batch_cell(
    cfg: &HarnessConfig,
    cell: &BatchCell,
    threads: usize,
    rep: usize,
) -> Result<BatchRun, HarnessError> {
    let what = format!("dfs {} (threads={threads} rep={rep})", cell.label());
    let trace_dir = cfg.work_dir.join(format!(
        "trace-{}-{}-{}-t{threads}-r{rep}",
        cell.dataset, cell.model, cell.strategy
    ));
    let mut cmd = Command::new(&cfg.dfs_bin);
    cmd.args([
        "--dataset",
        cell.dataset,
        "--model",
        cell.model,
        "--strategy",
        cell.strategy,
        "--rows",
        "200",
        "--time-ms",
        "10000",
        "--max-evals",
        "40",
        "--seed",
        "42",
        "--min-f1",
        "0.2",
        "--no-hpo",
        "--summary-json",
    ])
    .env("DFS_THREADS", threads.to_string())
    .env("DFS_TRACE", "1")
    .env("DFS_TRACE_DIR", &trace_dir);

    let spawned = Spawned::spawn(cmd, &what)?;
    // Exit 1 means "constraints not satisfied" — a valid outcome, not a
    // harness failure; the summary line still prints.
    let report = spawned.finish(cfg.child_deadline, &[0, 1])?;
    let summary = parse_summary(&report.stdout_lines, &what)?;
    let journal_hists = read_journal_hists(&trace_dir, "dfs-cli")?;
    reduce_batch_run(&what, &report, &summary, journal_hists)
}

/// Reduces a finished child into the [`BatchRun`] the sweep keeps,
/// building the deterministic fingerprint.
fn reduce_batch_run(
    what: &str,
    report: &ChildReport,
    summary: &Json,
    journal_hists: std::collections::BTreeMap<String, Histogram>,
) -> Result<BatchRun, HarnessError> {
    let field_u64 = |key: &str| -> Result<u64, HarnessError> {
        summary.get(key).and_then(Json::as_u64).ok_or_else(|| HarnessError::MalformedSummary {
            what: what.into(),
            reason: format!("missing numeric field '{key}'"),
        })
    };
    let success = summary.get("success").and_then(Json::as_bool).unwrap_or(false);
    let evaluations = field_u64("evaluations")?;
    let subset_len = field_u64("subset_len")?;
    let wall_ms = summary.get("wall_ms").and_then(Json::as_f64).unwrap_or(0.0);
    // Scale provenance, lenient for summaries from older child binaries:
    // rows default to 0.
    let rows = summary.get("rows").and_then(Json::as_u64).unwrap_or(0);
    let strategy =
        summary.get("strategy").and_then(Json::as_str).unwrap_or_default().to_string();
    let eval_lat_sparse =
        summary.get("eval_lat_hist").and_then(Json::as_str).unwrap_or_default();
    let eval_lat = Histogram::decode_sparse(eval_lat_sparse).map_err(|reason| {
        HarnessError::MalformedSummary {
            what: what.into(),
            reason: format!("bad eval_lat_hist: {reason}"),
        }
    })?;

    // Deterministic result fingerprint: the selected feature lines (all
    // stdout lines before the summary), the outcome fields, the
    // evaluation-count trajectory, and the deterministic journal
    // histograms. Clock-derived values are excluded by construction.
    let feature_lines: Vec<&str> = report
        .stdout_lines
        .iter()
        .map(String::as_str)
        .take(report.stdout_lines.len().saturating_sub(1))
        .filter(|l| !l.trim().is_empty())
        .collect();
    let hist_sig: Vec<String> = journal_hists
        .iter()
        .map(|(name, h)| format!("{name}={}", h.encode_sparse()))
        .collect();
    let fingerprint = format!(
        "strategy={strategy} success={success} evals={evaluations} subset_len={subset_len} \
         features=[{}] eval_lat_count={} hists=[{}]",
        feature_lines.join("|"),
        eval_lat.count,
        hist_sig.join("|"),
    );
    Ok(BatchRun {
        fingerprint,
        wall_ms,
        eval_lat,
        success,
        evaluations,
        subset_len,
        peak_rss_bytes: report.resources.peak_rss_bytes,
        cpu_util: report.resources.cpu_util(report.wall),
        rows,
    })
}

/// `git rev-parse --short HEAD`, or `"unknown"` outside a repo.
pub fn git_commit() -> String {
    Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// Host logical CPU count.
pub fn host_cpus() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn harness_args_parse() {
        let argv = |s: &str| -> Vec<String> { s.split_whitespace().map(String::from).collect() };
        let cfg = parse_harness_args(&argv("--smoke --out /tmp/s.json --threads 1,2 --repeats 3"))
            .expect("valid");
        assert!(cfg.smoke);
        assert_eq!(cfg.out, PathBuf::from("/tmp/s.json"));
        assert_eq!(cfg.threads, vec![1, 2]);
        assert_eq!(cfg.repeats, 3);

        let full = parse_harness_args(&[]).expect("defaults");
        assert!(!full.smoke);
        assert_eq!(full.threads, vec![1, 2, 4]);
        assert_eq!(full.repeats, 5);

        assert!(parse_harness_args(&argv("--threads 0,1")).is_err());
        assert!(parse_harness_args(&argv("--threads x")).is_err());
        assert!(parse_harness_args(&argv("--wat")).is_err());
    }

    #[test]
    fn reduce_rejects_summary_missing_fields() {
        let report = ChildReport {
            status: 0,
            stdout_lines: vec!["{}".into()],
            stderr: String::new(),
            wall: Duration::from_millis(10),
            resources: resources::ResourceReport::default(),
        };
        let summary = Json::parse("{\"success\":true}").expect("parses");
        let err = reduce_batch_run("unit", &report, &summary, Default::default())
            .expect_err("missing fields");
        assert!(matches!(err, HarnessError::MalformedSummary { .. }), "{err}");
    }

    #[test]
    fn reduce_builds_clock_free_fingerprints() {
        let mk = |wall_ms: u64, hist: &str| -> BatchRun {
            let report = ChildReport {
                status: 0,
                stdout_lines: vec!["age".into(), "income".into(), "{}".into()],
                stderr: String::new(),
                wall: Duration::from_millis(wall_ms),
                resources: resources::ResourceReport::default(),
            };
            let summary = Json::parse(&format!(
                "{{\"success\":true,\"evaluations\":40,\"subset_len\":2,\"strategy\":\"sfs\",\
                 \"wall_ms\":{wall_ms},\"eval_lat_hist\":\"{hist}\",\
                 \"rows\":200}}"
            ))
            .expect("parses");
            reduce_batch_run("unit", &report, &summary, Default::default()).expect("reduces")
        };
        // Same deterministic content, different timings → same fingerprint.
        let a = mk(100, "2;3000000;21:1,22:1");
        let b = mk(900, "2;9000000;23:2");
        assert_eq!(a.fingerprint, b.fingerprint);
        // Different eval count → different fingerprint.
        let c = mk(100, "3;3000000;21:3");
        assert_ne!(a.fingerprint, c.fingerprint);
        // Scale provenance rides along verbatim.
        assert_eq!(a.rows, 200);
    }

    #[test]
    fn reduce_defaults_missing_provenance_fields() {
        let report = ChildReport {
            status: 0,
            stdout_lines: vec!["{}".into()],
            stderr: String::new(),
            wall: Duration::from_millis(10),
            resources: resources::ResourceReport::default(),
        };
        let summary = Json::parse(
            "{\"success\":true,\"evaluations\":1,\"subset_len\":1,\"strategy\":\"sfs\",\
             \"wall_ms\":5,\"eval_lat_hist\":\"1;1000000;20:1\"}",
        )
        .expect("parses");
        let run =
            reduce_batch_run("unit", &report, &summary, Default::default()).expect("reduces");
        assert_eq!(run.rows, 0);
    }

    #[test]
    fn git_commit_and_cpus_are_nonempty() {
        assert!(!git_commit().is_empty());
        assert!(host_cpus() >= 1);
    }
}
