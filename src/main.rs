//! `dfs` — command-line Declarative Feature Selection.
//!
//! Point it at a CSV (the format documented in `dfs_data::csv`), declare the
//! constraints, and get back the feature subset that satisfies them:
//!
//! ```text
//! dfs --data mydata.csv --model lr --min-f1 0.7 --min-eo 0.9 \
//!     --max-feature-frac 0.4 --time-ms 2000 --strategy sffs
//!
//! # No CSV handy? Use a built-in synthetic dataset:
//! dfs --dataset compas --model dt --min-f1 0.6 --privacy-eps 2.0
//!
//! # Let the strategy schedule switch dynamically (paper § 7):
//! dfs --dataset german_credit --model lr --min-f1 0.6 --strategy auto
//! ```

use dfs_repro::client::{Client, ClientConfig, ClientError};
use dfs_repro::core::prelude::*;
use dfs_repro::core::switching::{run_with_switching, SwitchConfig};
use dfs_repro::data::preprocess::fit_transform;
use dfs_repro::data::split::stratified_three_way;
use dfs_repro::data::synthetic::{generate, spec_by_name};
use dfs_repro::data::Dataset;
use dfs_repro::proto::{Json, QuerySpec, Request, Response};
use dfs_repro::rankings::RankingKind;
use dfs_repro::server::{Server, ServerConfig};
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Parsed command-line request.
#[derive(Debug, Clone, PartialEq)]
struct CliArgs {
    data_path: Option<String>,
    dataset: Option<String>,
    model: ModelKind,
    strategy: StrategySpec,
    min_f1: f64,
    min_eo: Option<f64>,
    min_safety: Option<f64>,
    max_feature_frac: Option<f64>,
    privacy_eps: Option<f64>,
    time_ms: u64,
    max_evals: Option<usize>,
    rows: Option<usize>,
    hpo: bool,
    seed: u64,
    summary_json: bool,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum StrategySpec {
    Fixed(StrategyId),
    /// The dynamic-switching schedule.
    Auto,
}

impl Default for CliArgs {
    fn default() -> Self {
        Self {
            data_path: None,
            dataset: None,
            model: ModelKind::LogisticRegression,
            strategy: StrategySpec::Fixed(StrategyId::Sffs),
            min_f1: 0.6,
            min_eo: None,
            min_safety: None,
            max_feature_frac: None,
            privacy_eps: None,
            time_ms: 2000,
            max_evals: None,
            rows: None,
            hpo: true,
            seed: 42,
            summary_json: false,
        }
    }
}

const USAGE: &str = "\
dfs — declarative feature selection (SIGMOD 2021 reproduction)

USAGE:
    dfs [--data <csv> | --dataset <name>] [OPTIONS]
    dfs server [SERVER OPTIONS]     run the constraint-query daemon
    dfs query  [QUERY OPTIONS]      send a query to a running daemon
    dfs bench-harness [OPTIONS]     process-based benchmark orchestrator

(`dfs server --help` and `dfs query --help` document the subcommands.)

DATA (one of):
    --data <path>            CSV file (see dfs_data::csv for the format)
    --dataset <name>         built-in synthetic dataset (e.g. compas, adult,
                             german_credit — see `--list-datasets`)

OPTIONS:
    --model <lr|nb|dt|svm>   classification model       [default: lr]
    --strategy <name|auto>   FS strategy: sfs, sbs, sffs, sbfs, rfe, es,
                             tpe, sa, nsga2, chi2, variance, fisher, mim,
                             fcbf, relieff, mcfs, or `auto` (dynamic
                             switching)                  [default: sffs]
    --min-f1 <0..1>          minimum F1 score           [default: 0.6]
    --min-eo <0..1>          minimum equal opportunity
    --min-safety <0..1>      minimum adversarial safety
    --max-feature-frac <0..1> maximum fraction of features
    --privacy-eps <x>        train the ε-differentially-private model
    --time-ms <n>            search budget in milliseconds [default: 2000]
    --max-evals <n>          cap wrapper evaluations (deterministic runs for
                             thread sweeps; default: settings default)
    --rows <n>               cap synthetic dataset rows (faster runs)
    --no-hpo                 skip per-evaluation hyperparameter search
    --seed <n>               RNG seed                   [default: 42]
    --summary-json           print a final single-line JSON run summary
                             (cells, faults, evaluations, evals/s, wall-clock)
    --list-datasets          print the built-in dataset names and exit
    --help                   print this help
";

const SERVER_USAGE: &str = "\
dfs server — fault-tolerant constraint-query daemon

USAGE:
    dfs server [OPTIONS]

OPTIONS:
    --addr <host:port>       listen address            [default: 127.0.0.1:7878]
    --workers <n>            query worker threads      [default: 2]
    --threads <n>            executor width per query  [default: $DFS_THREADS or 1]
    --queue-depth <n>        bounded request queue     [default: 32]
    --quota-time-ms <n>      max per-request search budget [default: 5000]
    --quota-evals <n>        max per-request evaluations   [default: 5000]
    --default-time-ms <n>    budget when the query omits one [default: 300]
    --default-evals <n>      evaluations when omitted        [default: 60]
    --idle-timeout-ms <n>    drop idle connections     [default: 30000]
    --sidecar <path>         stats checkpoint flushed on drain
    --chaos <req:kind[:ms]>  inject a one-shot server fault for request id
                             <req>; kind is drop | corrupt | panic | stall:<ms>
                             (repeatable — deterministic chaos for tests)
    --help                   print this help

The daemon prints `listening on <addr>` once ready. SIGTERM or SIGINT
triggers a graceful drain: in-flight queries finish, queued ones are shed
with `overloaded`, the sidecar is flushed, and the process exits 0.
";

const QUERY_USAGE: &str = "\
dfs query — client for the dfs constraint-query daemon

USAGE:
    dfs query [OPTIONS]
    dfs query --ping | --stats | --shutdown

OPTIONS:
    --addr <host:port>       server address            [default: 127.0.0.1:7878]
    --req-id <n>             request id (chaos plans key on it) [default: 1]
    --dataset <name>         built-in synthetic dataset [default: compas]
    --rows <n>               cap generated rows (faster queries)
    --model <lr|nb|dt|svm>   classification model      [default: nb]
    --strategy <name|auto>   FS strategy               [default: variance]
    --min-f1 <0..1>          minimum F1 score          [default: 0.1]
    --min-eo <0..1>          minimum equal opportunity
    --min-safety <0..1>      minimum adversarial safety
    --max-feature-frac <0..1> maximum fraction of features
    --privacy-eps <x>        ε-differentially-private training
    --time-ms <n>            search budget (0 = server default)
    --max-evals <n>          evaluation cap (0 = server default)
    --deadline-ms <n>        end-to-end deadline incl. queue wait
    --no-hpo                 skip hyperparameter search
    --seed <n>               RNG seed                  [default: 13]
    --attempts <n>           retry attempts            [default: 4]
    --ping                   liveness probe
    --stats                  print server counters
    --shutdown               ask the server to drain and exit
    --help                   print this help

Prints the result (or error) as a single JSON line on stdout. Exit codes:
0 = response received, 1 = terminal server error, 2 = retries exhausted.
";

fn parse_strategy(s: &str) -> Result<StrategySpec, String> {
    let fixed = |id| Ok(StrategySpec::Fixed(id));
    match s {
        "auto" => Ok(StrategySpec::Auto),
        "sfs" => fixed(StrategyId::Sfs),
        "sbs" => fixed(StrategyId::Sbs),
        "sffs" => fixed(StrategyId::Sffs),
        "sbfs" => fixed(StrategyId::Sbfs),
        "rfe" => fixed(StrategyId::Rfe),
        "es" => fixed(StrategyId::Es),
        "tpe" => fixed(StrategyId::TpeNr),
        "sa" => fixed(StrategyId::SaNr),
        "nsga2" => fixed(StrategyId::Nsga2Nr),
        "chi2" => fixed(StrategyId::TpeRanking(RankingKind::Chi2)),
        "variance" => fixed(StrategyId::TpeRanking(RankingKind::Variance)),
        "fisher" => fixed(StrategyId::TpeRanking(RankingKind::Fisher)),
        "mim" => fixed(StrategyId::TpeRanking(RankingKind::Mim)),
        "fcbf" => fixed(StrategyId::TpeRanking(RankingKind::Fcbf)),
        "relieff" => fixed(StrategyId::TpeRanking(RankingKind::ReliefF)),
        "mcfs" => fixed(StrategyId::TpeRanking(RankingKind::Mcfs)),
        other => Err(format!("unknown strategy '{other}'")),
    }
}

fn parse_model(s: &str) -> Result<ModelKind, String> {
    match s {
        "lr" => Ok(ModelKind::LogisticRegression),
        "nb" => Ok(ModelKind::GaussianNb),
        "dt" => Ok(ModelKind::DecisionTree),
        "svm" => Ok(ModelKind::LinearSvm),
        other => Err(format!("unknown model '{other}'")),
    }
}

/// Parses the argument list (without the program name).
fn parse_args(args: &[String]) -> Result<CliArgs, String> {
    let mut out = CliArgs::default();
    let mut it = args.iter().peekable();
    let value = |it: &mut std::iter::Peekable<std::slice::Iter<String>>,
                     flag: &str|
     -> Result<String, String> {
        it.next().cloned().ok_or_else(|| format!("{flag} needs a value"))
    };
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--data" => out.data_path = Some(value(&mut it, "--data")?),
            "--dataset" => out.dataset = Some(value(&mut it, "--dataset")?),
            "--model" => out.model = parse_model(&value(&mut it, "--model")?)?,
            "--strategy" => out.strategy = parse_strategy(&value(&mut it, "--strategy")?)?,
            "--min-f1" => out.min_f1 = parse_num(&value(&mut it, "--min-f1")?)?,
            "--min-eo" => out.min_eo = Some(parse_num(&value(&mut it, "--min-eo")?)?),
            "--min-safety" => out.min_safety = Some(parse_num(&value(&mut it, "--min-safety")?)?),
            "--max-feature-frac" => {
                out.max_feature_frac = Some(parse_num(&value(&mut it, "--max-feature-frac")?)?)
            }
            "--privacy-eps" => out.privacy_eps = Some(parse_num(&value(&mut it, "--privacy-eps")?)?),
            "--time-ms" => {
                out.time_ms = value(&mut it, "--time-ms")?
                    .parse()
                    .map_err(|e| format!("--time-ms: {e}"))?
            }
            "--max-evals" => {
                out.max_evals = Some(
                    value(&mut it, "--max-evals")?
                        .parse()
                        .map_err(|e| format!("--max-evals: {e}"))?,
                )
            }
            "--rows" => {
                out.rows = Some(
                    value(&mut it, "--rows")?.parse().map_err(|e| format!("--rows: {e}"))?,
                )
            }
            "--seed" => {
                out.seed =
                    value(&mut it, "--seed")?.parse().map_err(|e| format!("--seed: {e}"))?
            }
            "--no-hpo" => out.hpo = false,
            "--summary-json" => out.summary_json = true,
            other => return Err(format!("unknown flag '{other}' (try --help)")),
        }
    }
    if out.data_path.is_some() == out.dataset.is_some() {
        return Err("exactly one of --data or --dataset is required".into());
    }
    Ok(out)
}

fn parse_num(s: &str) -> Result<f64, String> {
    s.parse().map_err(|e| format!("bad number '{s}': {e}"))
}

fn load_dataset(args: &CliArgs) -> Result<Dataset, String> {
    if let Some(path) = &args.data_path {
        let raw = dfs_repro::data::csv::load(std::path::Path::new(path))?;
        return Ok(fit_transform(&raw));
    }
    let name = args.dataset.as_deref().expect("validated: dataset set");
    let spec = spec_by_name(name).ok_or_else(|| {
        format!(
            "unknown built-in dataset '{name}' (available: {})",
            dfs_repro::data::synthetic::paper_suite()
                .iter()
                .map(|s| s.name)
                .collect::<Vec<_>>()
                .join(", ")
        )
    })?;
    let mut spec = spec;
    if let Some(rows) = args.rows {
        spec.rows = spec.rows.min(rows.max(10));
    }
    Ok(generate(&spec, args.seed))
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    match raw.first().map(String::as_str) {
        Some("server") => return server_main(&raw[1..]),
        Some("query") => return query_main(&raw[1..]),
        Some("bench-harness") => return dfs_repro::harness::cli_main(&raw[1..]),
        _ => {}
    }
    if raw.iter().any(|a| a == "--help" || a == "-h") {
        print!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    if raw.iter().any(|a| a == "--list-datasets") {
        for s in dfs_repro::data::synthetic::paper_suite() {
            println!("{:<28} {:>6} rows {:>4} features", s.name, s.rows, s.n_features());
        }
        return ExitCode::SUCCESS;
    }
    let args = match parse_args(&raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };

    let dataset = match load_dataset(&args) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let split = stratified_three_way(&dataset, args.seed);

    let constraints = ConstraintSet {
        min_f1: args.min_f1,
        max_search_time: Duration::from_millis(args.time_ms),
        max_feature_frac: args.max_feature_frac,
        min_eo: args.min_eo,
        min_safety: args.min_safety,
        privacy_epsilon: args.privacy_eps,
    };
    if let Err(e) = constraints.validate() {
        eprintln!("error: invalid constraints: {e}");
        return ExitCode::FAILURE;
    }
    let scenario = MlScenario {
        dataset: dataset.name.clone(),
        model: args.model,
        hpo: args.hpo,
        constraints,
        utility_f1: false,
        seed: args.seed,
    };
    let mut settings = ScenarioSettings::default_bench();
    if let Some(cap) = args.max_evals {
        // A binding eval cap (with a generous --time-ms) makes the run's
        // trajectory budget-independent, so process-based harnesses can
        // assert bit-identity across thread sweeps.
        settings.max_evals = cap;
    }

    eprintln!(
        "dataset '{}': {} rows, {} features; model {}; budget {} ms",
        dataset.name,
        dataset.n_rows(),
        dataset.n_features(),
        args.model.short_name(),
        args.time_ms
    );

    // DFS_TRACE=1 exports the run's obs collectors to DFS_TRACE_DIR,
    // exactly like the benchmark runner — the bench harness reads them
    // back to merge histograms across processes.
    let tracing = dfs_repro::obs::env_flag("DFS_TRACE");
    dfs_repro::obs::set_trace_enabled(tracing);
    let trace_depth = tracing.then(dfs_repro::obs::push_collector);

    let run_started = Instant::now();
    let (success, subset, evaluations, label, perf, eval_lat) = match args.strategy {
        StrategySpec::Fixed(strategy) => {
            eprintln!("strategy: {}", strategy.name());
            let out = run_dfs(&scenario, &split, &settings, strategy);
            (out.success, out.subset, out.evaluations, strategy.name(), out.perf, out.eval_latency)
        }
        StrategySpec::Auto => {
            let cfg = SwitchConfig::default();
            eprintln!(
                "strategy: auto (dynamic switching over {})",
                cfg.schedule.iter().map(|s| s.name()).collect::<Vec<_>>().join(" -> ")
            );
            let out = run_with_switching(&scenario, &split, &settings, &cfg);
            let label = out
                .winner
                .map(|w| format!("auto/{}", w.name()))
                .unwrap_or_else(|| "auto".into());
            // The switching workflow does not surface per-attempt perf
            // counters; the summary reports zeros for the sharing fields.
            let out_lat = dfs_repro::obs::Histogram::default();
            (out.success, out.subset, out.evaluations, label, EvalPerf::default(), out_lat)
        }
    };

    let wall = run_started.elapsed();
    if let Some(depth) = trace_depth {
        if let Some(collector) = dfs_repro::obs::take_collector(depth) {
            let observer = dfs_repro::obs::RunObserver::new("dfs-cli");
            observer.absorb_run(collector);
            let dir = dfs_repro::obs::trace_dir();
            match observer.export_to_dir(&dir) {
                Ok(_) => eprintln!("traces exported to {}", dir.display()),
                Err(e) => eprintln!("trace export to {} failed: {e}", dir.display()),
            }
        }
    }
    let (code, subset_len) = match (success, &subset) {
        (true, Some(subset)) => {
            eprintln!(
                "SATISFIED by {label} with {} of {} features after {evaluations} evaluations:",
                subset.len(),
                dataset.n_features()
            );
            for &f in subset {
                println!("{}", dataset.feature_names[f]);
            }
            (ExitCode::SUCCESS, subset.len())
        }
        _ => {
            eprintln!(
                "NOT satisfied within budget ({evaluations} evaluations); \
                 relax a threshold, extend --time-ms, or try --strategy auto."
            );
            (ExitCode::FAILURE, 0)
        }
    };
    if args.summary_json {
        // WIND-style run summary: the final stdout line, one JSON object,
        // so process-based harnesses can `tail -1 | parse`.
        let rows = dataset.n_rows();
        println!(
            "{}",
            run_summary(
                1, 0, success, &label, evaluations, subset_len, wall, &perf, &eval_lat, rows
            )
        );
    }
    code
}

/// Single-line JSON run summary (the `--summary-json` contract); `rows` is
/// how much data the run saw.
#[allow(clippy::too_many_arguments)]
fn run_summary(
    cells: usize,
    faults: usize,
    success: bool,
    strategy: &str,
    evaluations: usize,
    subset_len: usize,
    wall: Duration,
    perf: &EvalPerf,
    eval_lat: &dfs_repro::obs::Histogram,
    rows: usize,
) -> Json {
    let secs = wall.as_secs_f64().max(1e-9);
    let probes = perf.memo_hits + perf.memo_misses;
    let hit_rate = if probes == 0 { 0.0 } else { perf.memo_hits as f64 / probes as f64 };
    let lat_ms = |q: f64| (eval_lat.quantile(q) / 1e6 * 1000.0).round() / 1000.0;
    Json::Obj(vec![
        ("cells".into(), Json::Num(cells as f64)),
        ("faults".into(), Json::Num(faults as f64)),
        ("success".into(), Json::Bool(success)),
        ("strategy".into(), Json::Str(strategy.into())),
        ("evaluations".into(), Json::Num(evaluations as f64)),
        ("evals_per_s".into(), Json::Num((evaluations as f64 / secs * 10.0).round() / 10.0)),
        ("wall_ms".into(), Json::Num(wall.as_secs_f64() * 1e3)),
        ("subset_len".into(), Json::Num(subset_len as f64)),
        ("memo_hits".into(), Json::Num(perf.memo_hits as f64)),
        ("memo_misses".into(), Json::Num(perf.memo_misses as f64)),
        ("memo_hit_rate".into(), Json::Num((hit_rate * 1000.0).round() / 1000.0)),
        ("bound_skips".into(), Json::Num(perf.bound_skips as f64)),
        ("eval_lat_count".into(), Json::Num(eval_lat.count as f64)),
        ("eval_lat_p50_ms".into(), Json::Num(lat_ms(0.5))),
        ("eval_lat_p95_ms".into(), Json::Num(lat_ms(0.95))),
        ("eval_lat_p99_ms".into(), Json::Num(lat_ms(0.99))),
        ("eval_lat_hist".into(), Json::Str(eval_lat.encode_sparse())),
        ("rows".into(), Json::Num(rows as f64)),
    ])
}

/// SIGTERM/SIGINT latch for the server poll loop. Raw `signal(2)` FFI —
/// the workspace has no libc crate, and all the handler does is set an
/// async-signal-safe atomic flag.
static TERM_REQUESTED: AtomicBool = AtomicBool::new(false);

extern "C" fn on_term_signal(_sig: i32) {
    TERM_REQUESTED.store(true, Ordering::SeqCst);
}

fn install_term_handler() {
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    extern "C" {
        fn signal(sig: i32, handler: usize) -> usize;
    }
    unsafe {
        signal(SIGTERM, on_term_signal as *const () as usize);
        signal(SIGINT, on_term_signal as *const () as usize);
    }
}

/// Parses `<req>:<kind>[:<ms>]` chaos specs (`7:stall:500`, `9:drop`).
fn parse_chaos(s: &str) -> Result<(u64, ServerFaultKind), String> {
    let mut parts = s.split(':');
    let req: u64 = parts
        .next()
        .unwrap_or_default()
        .parse()
        .map_err(|e| format!("bad chaos request id in '{s}': {e}"))?;
    let kind = match (parts.next(), parts.next()) {
        (Some("drop"), None) => ServerFaultKind::DropMidFrame,
        (Some("corrupt"), None) => ServerFaultKind::CorruptFrame,
        (Some("panic"), None) => ServerFaultKind::PanicInCell,
        (Some("stall"), Some(ms)) => {
            let ms: u64 = ms.parse().map_err(|e| format!("bad stall ms in '{s}': {e}"))?;
            ServerFaultKind::StallHandler(Duration::from_millis(ms))
        }
        _ => return Err(format!("bad chaos spec '{s}' (want req:drop|corrupt|panic|stall:<ms>)")),
    };
    Ok((req, kind))
}

/// Parses `dfs server` flags onto a `ServerConfig`.
fn parse_server_args(args: &[String]) -> Result<ServerConfig, String> {
    let mut cfg = ServerConfig { addr: "127.0.0.1:7878".into(), ..ServerConfig::default() };
    if let Some(n) = std::env::var("DFS_THREADS").ok().and_then(|v| v.parse().ok()) {
        cfg.threads = n;
    }
    let mut it = args.iter().peekable();
    let value = |it: &mut std::iter::Peekable<std::slice::Iter<String>>,
                     flag: &str|
     -> Result<String, String> {
        it.next().cloned().ok_or_else(|| format!("{flag} needs a value"))
    };
    let num = |v: String, flag: &str| -> Result<u64, String> {
        v.parse().map_err(|e| format!("{flag}: {e}"))
    };
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--addr" => cfg.addr = value(&mut it, "--addr")?,
            "--workers" => cfg.workers = num(value(&mut it, "--workers")?, "--workers")? as usize,
            "--threads" => cfg.threads = num(value(&mut it, "--threads")?, "--threads")? as usize,
            "--queue-depth" => {
                cfg.queue_depth = num(value(&mut it, "--queue-depth")?, "--queue-depth")? as usize
            }
            "--quota-time-ms" => {
                cfg.quota_time =
                    Duration::from_millis(num(value(&mut it, "--quota-time-ms")?, "--quota-time-ms")?)
            }
            "--quota-evals" => {
                cfg.quota_evals = num(value(&mut it, "--quota-evals")?, "--quota-evals")? as usize
            }
            "--default-time-ms" => {
                cfg.default_time = Duration::from_millis(num(
                    value(&mut it, "--default-time-ms")?,
                    "--default-time-ms",
                )?)
            }
            "--default-evals" => {
                cfg.default_evals =
                    num(value(&mut it, "--default-evals")?, "--default-evals")? as usize
            }
            "--idle-timeout-ms" => {
                cfg.idle_timeout = Duration::from_millis(num(
                    value(&mut it, "--idle-timeout-ms")?,
                    "--idle-timeout-ms",
                )?)
            }
            "--sidecar" => cfg.sidecar = Some(value(&mut it, "--sidecar")?.into()),
            "--chaos" => {
                let (req, kind) = parse_chaos(&value(&mut it, "--chaos")?)?;
                cfg.chaos.inject(req, kind);
            }
            other => return Err(format!("unknown server flag '{other}' (try --help)")),
        }
    }
    Ok(cfg)
}

fn server_main(args: &[String]) -> ExitCode {
    if args.iter().any(|a| a == "--help" || a == "-h") {
        print!("{SERVER_USAGE}");
        return ExitCode::SUCCESS;
    }
    let cfg = match parse_server_args(args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {e}\n\n{SERVER_USAGE}");
            return ExitCode::FAILURE;
        }
    };
    install_term_handler();
    let mut handle = match Server::spawn(cfg) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("error: failed to start server: {e}");
            return ExitCode::FAILURE;
        }
    };
    // The readiness line smoke tests and clients wait for.
    println!("listening on {}", handle.addr());
    use std::io::Write as _;
    let _ = std::io::stdout().flush();

    while !TERM_REQUESTED.load(Ordering::SeqCst) && !handle.shutdown_requested() {
        std::thread::sleep(Duration::from_millis(25));
    }
    eprintln!("dfs-server: drain requested");
    let report = handle.drain();
    if !report.journal.is_empty() {
        eprint!("{}", report.journal);
    }
    // Final stdout line: machine-readable drain receipt.
    let stats = &report.stats;
    println!(
        "{}",
        Json::Obj(vec![
            ("drained".into(), Json::Bool(true)),
            ("shed_on_drain".into(), Json::Num(report.shed as f64)),
            ("served".into(), Json::Num(stats.served as f64)),
            ("succeeded".into(), Json::Num(stats.succeeded as f64)),
            ("shed".into(), Json::Num(stats.shed as f64)),
            ("panicked".into(), Json::Num(stats.panicked as f64)),
            ("deadline_exceeded".into(), Json::Num(stats.deadline_exceeded as f64)),
            ("malformed".into(), Json::Num(stats.malformed as f64)),
        ])
    );
    ExitCode::SUCCESS
}

/// Parsed `dfs query` invocation.
struct QueryArgs {
    addr: String,
    attempts: usize,
    request: Request,
}

/// Parses `dfs query` flags onto a wire `QuerySpec` (or a control request).
fn parse_query_args(args: &[String]) -> Result<QueryArgs, String> {
    let mut addr = "127.0.0.1:7878".to_string();
    let mut attempts = 4usize;
    let mut spec = QuerySpec::example(1);
    spec.rows = None; // only cap rows when asked to
    let mut control: Option<Request> = None;
    let mut it = args.iter().peekable();
    let value = |it: &mut std::iter::Peekable<std::slice::Iter<String>>,
                     flag: &str|
     -> Result<String, String> {
        it.next().cloned().ok_or_else(|| format!("{flag} needs a value"))
    };
    let num = |v: String, flag: &str| -> Result<u64, String> {
        v.parse().map_err(|e| format!("{flag}: {e}"))
    };
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--addr" => addr = value(&mut it, "--addr")?,
            "--attempts" => attempts = num(value(&mut it, "--attempts")?, "--attempts")? as usize,
            "--req-id" => spec.req_id = num(value(&mut it, "--req-id")?, "--req-id")?,
            "--dataset" => spec.dataset = value(&mut it, "--dataset")?,
            "--rows" => spec.rows = Some(num(value(&mut it, "--rows")?, "--rows")?),
            "--model" => spec.model = value(&mut it, "--model")?,
            "--strategy" => spec.strategy = value(&mut it, "--strategy")?,
            "--min-f1" => spec.min_f1 = parse_num(&value(&mut it, "--min-f1")?)?,
            "--min-eo" => spec.min_fairness = Some(parse_num(&value(&mut it, "--min-eo")?)?),
            "--min-safety" => spec.min_safety = Some(parse_num(&value(&mut it, "--min-safety")?)?),
            "--max-feature-frac" => {
                spec.max_feature_frac = Some(parse_num(&value(&mut it, "--max-feature-frac")?)?)
            }
            "--privacy-eps" => {
                spec.privacy_epsilon = Some(parse_num(&value(&mut it, "--privacy-eps")?)?)
            }
            "--time-ms" => spec.time_ms = num(value(&mut it, "--time-ms")?, "--time-ms")?,
            "--max-evals" => spec.max_evals = num(value(&mut it, "--max-evals")?, "--max-evals")?,
            "--deadline-ms" => {
                spec.deadline_ms = Some(num(value(&mut it, "--deadline-ms")?, "--deadline-ms")?)
            }
            "--seed" => spec.seed = num(value(&mut it, "--seed")?, "--seed")?,
            "--no-hpo" => spec.hpo = false,
            "--ping" => control = Some(Request::Ping),
            "--stats" => control = Some(Request::Stats),
            "--shutdown" => control = Some(Request::Shutdown),
            other => return Err(format!("unknown query flag '{other}' (try --help)")),
        }
    }
    let request = control.unwrap_or(Request::Query(spec));
    Ok(QueryArgs { addr, attempts, request })
}

fn query_main(args: &[String]) -> ExitCode {
    if args.iter().any(|a| a == "--help" || a == "-h") {
        print!("{QUERY_USAGE}");
        return ExitCode::SUCCESS;
    }
    let parsed = match parse_query_args(args) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: {e}\n\n{QUERY_USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let cfg = ClientConfig { max_attempts: parsed.attempts.max(1), ..ClientConfig::default() };
    let client = match Client::with_config(parsed.addr.as_str(), cfg) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: bad address '{}': {e}", parsed.addr);
            return ExitCode::FAILURE;
        }
    };
    match client.request(&parsed.request) {
        Ok(Response::Result(result)) => {
            eprintln!(
                "req {} ({}): success={} evals={} elapsed={}ms",
                result.req_id, result.strategy, result.success, result.evaluations,
                result.elapsed_ms
            );
            println!("{}", result.to_json());
            ExitCode::SUCCESS
        }
        Ok(Response::Stats(stats)) => {
            println!("{}", stats.to_json());
            ExitCode::SUCCESS
        }
        Ok(Response::Pong) => {
            println!("{}", Json::Obj(vec![("pong".into(), Json::Bool(true))]));
            ExitCode::SUCCESS
        }
        Ok(Response::Bye) => {
            println!("{}", Json::Obj(vec![("bye".into(), Json::Bool(true))]));
            ExitCode::SUCCESS
        }
        Ok(Response::Error(err)) => {
            // Unreachable via the retry client (errors surface as Err),
            // but keep the match exhaustive and honest.
            eprintln!("error: {err}");
            println!("{}", err.to_json());
            ExitCode::FAILURE
        }
        Err(ClientError::Server(err)) => {
            eprintln!("error: {err}");
            println!("{}", err.to_json());
            ExitCode::FAILURE
        }
        Err(e @ ClientError::Exhausted { .. }) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
        Err(e @ ClientError::Protocol(_)) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(|t| t.to_string()).collect()
    }

    #[test]
    fn parses_a_full_command_line() {
        let args = parse_args(&argv(
            "--dataset compas --model dt --strategy fcbf --min-f1 0.7 --min-eo 0.9 \
             --max-feature-frac 0.4 --privacy-eps 2.5 --time-ms 500 --no-hpo --seed 7",
        ))
        .expect("valid args");
        assert_eq!(args.dataset.as_deref(), Some("compas"));
        assert_eq!(args.model, ModelKind::DecisionTree);
        assert_eq!(args.strategy, StrategySpec::Fixed(StrategyId::TpeRanking(RankingKind::Fcbf)));
        assert_eq!(args.min_f1, 0.7);
        assert_eq!(args.min_eo, Some(0.9));
        assert_eq!(args.max_feature_frac, Some(0.4));
        assert_eq!(args.privacy_eps, Some(2.5));
        assert_eq!(args.time_ms, 500);
        assert!(!args.hpo);
        assert_eq!(args.seed, 7);
    }

    #[test]
    fn parses_harness_facing_flags() {
        let args = parse_args(&argv("--dataset compas --max-evals 40 --rows 200"))
            .expect("valid args");
        assert_eq!(args.max_evals, Some(40));
        assert_eq!(args.rows, Some(200));
        let defaults = parse_args(&argv("--dataset compas")).expect("valid args");
        assert_eq!(defaults.max_evals, None);
        assert_eq!(defaults.rows, None);
        assert!(parse_args(&argv("--dataset compas --max-evals lots")).is_err());
        assert!(parse_args(&argv("--dataset compas --rows")).is_err());
    }

    #[test]
    fn requires_exactly_one_data_source() {
        assert!(parse_args(&argv("--min-f1 0.6")).is_err());
        assert!(parse_args(&argv("--data a.csv --dataset compas")).is_err());
        assert!(parse_args(&argv("--dataset compas")).is_ok());
    }

    #[test]
    fn rejects_unknown_flags_and_strategies() {
        assert!(parse_args(&argv("--dataset compas --wat 1")).is_err());
        assert!(parse_args(&argv("--dataset compas --strategy nope")).is_err());
        assert!(parse_args(&argv("--dataset compas --model xgboost")).is_err());
        assert!(parse_args(&argv("--dataset compas --min-f1 high")).is_err());
        assert!(parse_args(&argv("--dataset compas --min-f1")).is_err());
    }

    #[test]
    fn every_strategy_name_parses() {
        for name in [
            "sfs", "sbs", "sffs", "sbfs", "rfe", "es", "tpe", "sa", "nsga2", "chi2",
            "variance", "fisher", "mim", "fcbf", "relieff", "mcfs", "auto",
        ] {
            assert!(parse_strategy(name).is_ok(), "{name} failed to parse");
        }
    }

    #[test]
    fn auto_strategy_flag() {
        let args = parse_args(&argv("--dataset compas --strategy auto")).unwrap();
        assert_eq!(args.strategy, StrategySpec::Auto);
    }

    #[test]
    fn summary_json_flag_and_line_shape() {
        let args = parse_args(&argv("--dataset compas --summary-json")).unwrap();
        assert!(args.summary_json);
        let perf = EvalPerf { memo_hits: 30, memo_misses: 90, bound_skips: 7, ..EvalPerf::default() };
        let mut lat = dfs_repro::obs::Histogram::default();
        for v in [1_000_000u64, 2_000_000, 4_000_000] {
            lat.record(v);
        }
        let line = run_summary(
            1, 0, true, "sffs", 120, 4, Duration::from_millis(500), &perf, &lat, 5000,
        )
        .to_string();
        assert!(line.starts_with('{') && line.ends_with('}'));
        assert!(!line.contains('\n'), "summary must be a single line");
        assert!(line.contains("\"cells\":1"));
        assert!(line.contains("\"faults\":0"));
        assert!(line.contains("\"evals_per_s\":240"));
        assert!(line.contains("\"wall_ms\":500"));
        assert!(line.contains("\"memo_hits\":30"));
        assert!(line.contains("\"memo_hit_rate\":0.25"));
        assert!(line.contains("\"bound_skips\":7"));

        assert!(line.contains("\"eval_lat_count\":3"));
        assert!(line.contains("\"eval_lat_hist\":\""));
        assert!(line.contains("\"rows\":5000"));

        // No memo probes at all must not divide by zero.
        let empty = dfs_repro::obs::Histogram::default();
        let cold = run_summary(
            1,
            0,
            false,
            "sfs",
            1,
            0,
            Duration::from_millis(1),
            &EvalPerf::default(),
            &empty,
            100,
        )
        .to_string();
        assert!(cold.contains("\"memo_hit_rate\":0"));
        assert!(cold.contains("\"eval_lat_p50_ms\":0"));

        // Sub-millisecond resolution: a 1.5 ms wall reads as 1.5, not 0 or 1.
        let fast = run_summary(
            1,
            0,
            true,
            "sfs",
            1,
            1,
            Duration::from_micros(1500),
            &EvalPerf::default(),
            &empty,
            100,
        )
        .to_string();
        assert!(fast.contains("\"wall_ms\":1.5,"), "{fast}");
    }

    #[test]
    fn chaos_specs_parse() {
        assert_eq!(parse_chaos("9:drop").unwrap(), (9, ServerFaultKind::DropMidFrame));
        assert_eq!(parse_chaos("4:corrupt").unwrap(), (4, ServerFaultKind::CorruptFrame));
        assert_eq!(parse_chaos("5:panic").unwrap(), (5, ServerFaultKind::PanicInCell));
        assert_eq!(
            parse_chaos("7:stall:500").unwrap(),
            (7, ServerFaultKind::StallHandler(Duration::from_millis(500)))
        );
        assert!(parse_chaos("x:drop").is_err());
        assert!(parse_chaos("1:stall").is_err());
        assert!(parse_chaos("1:fuzz").is_err());
    }

    #[test]
    fn server_args_parse_onto_config() {
        let cfg = parse_server_args(&argv(
            "--addr 127.0.0.1:0 --workers 3 --threads 2 --queue-depth 5 \
             --quota-time-ms 900 --quota-evals 80 --default-time-ms 100 \
             --default-evals 10 --idle-timeout-ms 750 --sidecar /tmp/s.ckpt \
             --chaos 7:stall:50 --chaos 9:drop",
        ))
        .expect("valid server args");
        assert_eq!(cfg.addr, "127.0.0.1:0");
        assert_eq!(cfg.workers, 3);
        assert_eq!(cfg.threads, 2);
        assert_eq!(cfg.queue_depth, 5);
        assert_eq!(cfg.quota_time, Duration::from_millis(900));
        assert_eq!(cfg.quota_evals, 80);
        assert_eq!(cfg.default_time, Duration::from_millis(100));
        assert_eq!(cfg.default_evals, 10);
        assert_eq!(cfg.idle_timeout, Duration::from_millis(750));
        assert_eq!(cfg.sidecar.as_deref(), Some(std::path::Path::new("/tmp/s.ckpt")));
        assert_eq!(cfg.chaos.len(), 2);
        assert!(parse_server_args(&argv("--wat 1")).is_err());
    }

    #[test]
    fn query_args_build_a_spec_or_control_request() {
        let q = parse_query_args(&argv(
            "--addr 127.0.0.1:9 --req-id 7 --dataset adult --rows 200 --model dt \
             --strategy fisher --min-f1 0.4 --min-eo 0.8 --time-ms 250 --max-evals 40 \
             --deadline-ms 900 --no-hpo --seed 3 --attempts 2",
        ))
        .expect("valid query args");
        assert_eq!(q.addr, "127.0.0.1:9");
        assert_eq!(q.attempts, 2);
        match q.request {
            Request::Query(spec) => {
                assert_eq!(spec.req_id, 7);
                assert_eq!(spec.dataset, "adult");
                assert_eq!(spec.rows, Some(200));
                assert_eq!(spec.model, "dt");
                assert_eq!(spec.strategy, "fisher");
                assert_eq!(spec.min_f1, 0.4);
                assert_eq!(spec.min_fairness, Some(0.8));
                assert_eq!(spec.time_ms, 250);
                assert_eq!(spec.max_evals, 40);
                assert_eq!(spec.deadline_ms, Some(900));
                assert!(!spec.hpo);
                assert_eq!(spec.seed, 3);
            }
            other => panic!("expected query, got {other:?}"),
        }
        let ping = parse_query_args(&argv("--ping")).expect("ping");
        assert!(matches!(ping.request, Request::Ping));
        let stats = parse_query_args(&argv("--stats")).expect("stats");
        assert!(matches!(stats.request, Request::Stats));
        assert!(parse_query_args(&argv("--bogus")).is_err());
    }
}
