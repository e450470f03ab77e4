//! Benchmark corpus: datasets, scenario sampling, and matrix computation.

use crate::checkpoint::Checkpoint;
use dfs_core::exec::host_threads;
use dfs_core::prelude::*;
use dfs_core::runner::{run_benchmark_opts, RunnerOptions};
use dfs_data::split::{stratified_three_way, Split};
use dfs_data::synthetic::{generate, spec_by_name};
use dfs_linalg::rng::{Fnv1a, Rng};
use std::collections::HashMap;
use std::path::PathBuf;
use std::time::Duration;

/// The three benchmark versions of § 6.1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BenchVersion {
    /// Default model hyperparameters (paper: 1500 scenarios).
    DefaultParams,
    /// Grid-search HPO per evaluation (paper: 3318 scenarios).
    Hpo,
    /// F1-as-utility subject to the other constraints (paper: 957).
    Utility,
}

impl BenchVersion {
    /// Cache-file tag.
    pub fn tag(&self) -> &'static str {
        match self {
            BenchVersion::DefaultParams => "default",
            BenchVersion::Hpo => "hpo",
            BenchVersion::Utility => "utility",
        }
    }

    /// Mixed into the scenario sampler's seed, so each version samples its
    /// own corpus. DefaultParams and Hpo keep the values they were sampled
    /// with (their tags' lengths), so their corpora stay as they were.
    fn salt(&self) -> u64 {
        match self {
            BenchVersion::DefaultParams => 7,
            BenchVersion::Hpo => 3,
            BenchVersion::Utility => 0x7574_696C,
        }
    }
}

/// Corpus configuration.
#[derive(Debug, Clone)]
pub struct CorpusConfig {
    /// Dataset names (subset of the 19-dataset suite) and a per-dataset
    /// row cap that keeps the harness laptop-scale while preserving the
    /// relative size ordering.
    pub datasets: Vec<(&'static str, usize)>,
    /// Scenarios sampled per dataset.
    pub scenarios_per_dataset: usize,
    /// Search-time range (the scaled-down Listing 1 budget).
    pub time_range: (Duration, Duration),
    /// Master seed.
    pub seed: u64,
    /// Worker threads for set-up and matrix computation.
    pub threads: usize,
}

impl Default for CorpusConfig {
    fn default() -> Self {
        let scenarios_per_dataset = std::env::var("DFS_BENCH_SCENARIOS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(8);
        Self {
            // Ten datasets spanning the suite's size range; the traffic
            // stand-in stays the largest so the scalability findings
            // (heavy rankings / backward selection dying there) reproduce.
            // Widths span 11..160 features. The paper's two extreme
            // datasets (KDD: 526, PBC: 723 one-hot features) are omitted:
            // at this harness's budget scale a single forward-selection
            // round over 500+ features exceeds the whole budget, which
            // would distort the forward/backward comparison rather than
            // scale it (see DESIGN.md on budget scaling).
            datasets: vec![
                ("traffic_violations", 8000),
                ("airlines_codrna_adult", 6000),
                ("adult", 4800),
                ("german_credit", 1000),
                ("thyroid_disease", 3772),
                ("telco_churn", 4300),
                ("students", 3892),
                ("compas", 4200),
                ("irish_educational", 500),
                ("indian_liver_patient", 583),
            ],
            scenarios_per_dataset,
            time_range: (Duration::from_millis(80), Duration::from_millis(2000)),
            seed: 2021,
            threads: host_threads(),
        }
    }
}

/// Generates and splits every corpus dataset (seeded, deterministic).
///
/// A config naming a dataset with no known generator is a configuration
/// error ([`DfsError::UnknownDataset`]), reported before any compute is
/// spent rather than as a panic mid-run.
pub fn build_splits(cfg: &CorpusConfig) -> DfsResult<HashMap<String, Split>> {
    let specs = cfg
        .datasets
        .iter()
        .map(|&(name, row_cap)| {
            let mut spec = spec_by_name(name)
                .ok_or_else(|| DfsError::UnknownDataset { dataset: name.to_string() })?;
            spec.rows = spec.rows.min(row_cap);
            Ok(spec)
        })
        .collect::<DfsResult<Vec<_>>>()?;
    // Each dataset's bits depend only on its spec and the seeds, so the
    // thread count changes when a split is built, never what it holds.
    let splits = Executor::new(cfg.threads).par_map_indexed(&specs, |_, spec| {
        let ds = generate(spec, cfg.seed ^ hash_name(spec.name));
        stratified_three_way(&ds, cfg.seed ^ 0x5517)
    });
    Ok(specs.iter().map(|spec| spec.name.to_string()).zip(splits).collect())
}

/// Samples the scenario corpus for one benchmark version (Listing 1).
pub fn build_scenarios(cfg: &CorpusConfig, version: BenchVersion) -> Vec<MlScenario> {
    let sampler = SamplerConfig {
        time_range: cfg.time_range,
        hpo: version != BenchVersion::DefaultParams,
        utility_f1: version == BenchVersion::Utility,
    };
    let mut rng = Rng::seed_from_u64(cfg.seed ^ 0xC0FFEE ^ version.salt());
    let mut scenarios = Vec::new();
    let mut id = 0u64;
    for &(name, _) in &cfg.datasets {
        for _ in 0..cfg.scenarios_per_dataset {
            scenarios.push(sample_scenario(name, &sampler, &mut rng, id));
            id += 1;
        }
    }
    scenarios
}

/// Scenario-execution settings used by all benches.
pub fn bench_settings() -> ScenarioSettings {
    let mut s = ScenarioSettings::default_bench();
    // The wall clock (the scenario's Max Search Time) is the binding
    // budget, as in the paper; the evaluation cap is only a runaway guard.
    s.max_evals = 5_000;
    s.max_train_rows = 350;
    s.attack.max_points = 12;
    s
}

/// Computes the outcome matrix for a version, or loads it when the file at
/// [`cache_path`](crate::cache::cache_path) already holds every row.
///
/// Each completed row is appended to that file, so a process that dies
/// mid-matrix leaves a partial file that the next call with the same key
/// resumes. A file whose header does not match is quarantined; a cache
/// directory that cannot be written fails with [`DfsError::Io`] up front.
pub fn compute_or_load_matrix(
    cfg: &CorpusConfig,
    version: BenchVersion,
) -> DfsResult<(BenchmarkMatrix, HashMap<String, Split>)> {
    matrix_at(cfg, version, crate::cache::cache_path(cfg, version))
}

/// [`compute_or_load_matrix`] with the matrix file at `path`.
fn matrix_at(
    cfg: &CorpusConfig,
    version: BenchVersion,
    path: PathBuf,
) -> DfsResult<(BenchmarkMatrix, HashMap<String, Split>)> {
    // The harness narration (cache hits, resume, matrix progress) is part
    // of the expected stderr output; keep it visible unless the user set
    // an explicit DFS_LOG filter.
    if std::env::var_os("DFS_LOG").is_none() {
        dfs_obs::set_log_level(dfs_obs::Level::Info);
    }
    let scenarios = build_scenarios(cfg, version);
    let arms = Arm::all();
    let (n, key) = (scenarios.len(), crate::cache::fingerprint(cfg));
    let (mut rows, len) = Checkpoint::load(&path, key, n, arms.len());
    if rows.len() == n && len > 0 {
        dfs_obs::info!("dfs-bench", "loaded cached matrix from {}", path.display());
        let results = (0..n).filter_map(|i| rows.remove(&i)).collect();
        return Ok((BenchmarkMatrix { arms, scenarios, results }, build_splits(cfg)?));
    }
    let ckpt = Checkpoint::resume(path.clone(), key, n, arms.len(), len)?;
    let splits = build_splits(cfg)?;
    if !rows.is_empty() {
        let (done, path) = (rows.len(), path.display());
        dfs_obs::info!("dfs-bench", "resuming {path}: {done} of {n} rows already computed");
    }
    let (tag, n_arms, threads) = (version.tag(), arms.len(), cfg.threads);
    dfs_obs::info!(
        "dfs-bench",
        "computing {tag} matrix: {n} scenarios x {n_arms} arms ({threads} threads)…"
    );
    let settings = bench_settings();
    let sink = |i: usize, row: &[CellResult]| ckpt.append_row(i, row);
    let observer = dfs_obs::RunObserver::new(format!("matrix-{tag}"));
    let opts = RunnerOptions {
        threads: cfg.threads,
        resume: rows,
        on_row: Some(&sink),
        observer: dfs_obs::trace_enabled().then_some(&observer),
        ..RunnerOptions::default()
    };
    let matrix = run_benchmark_opts(&splits, scenarios, &arms, &settings, &opts);
    let (ok, panicked, timed_out, skipped) = matrix.status_counts();
    if panicked + timed_out + skipped > 0 {
        dfs_obs::warn!(
            "dfs-bench",
            "matrix completed with faults: {ok} ok, {panicked} panicked, \
             {timed_out} timed out, {skipped} skipped"
        );
    }
    if dfs_obs::trace_enabled() {
        export_traces(&observer);
    }
    Ok((matrix, splits))
}

/// Writes the observer's three export formats (Chrome trace, Prometheus
/// metrics, JSONL journal) under `DFS_TRACE_DIR` (default:
/// `<tmp>/dfs-trace`). Export is best-effort: IO failures warn and the
/// matrix result stands.
pub fn export_traces(observer: &dfs_obs::RunObserver) {
    let dir = dfs_obs::trace_dir();
    match observer.export_to_dir(&dir) {
        Ok(paths) => {
            for path in paths {
                dfs_obs::info!("dfs-bench", "wrote {}", path.display());
            }
        }
        Err(e) => {
            dfs_obs::warn!("dfs-bench", "trace export to {} failed: {e}", dir.display());
        }
    }
}

fn hash_name(name: &str) -> u64 {
    let mut h = Fnv1a::new();
    h.bytes(name.as_bytes());
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cfg() -> CorpusConfig {
        CorpusConfig {
            datasets: vec![("compas", 200), ("indian_liver_patient", 150)],
            scenarios_per_dataset: 2,
            time_range: (Duration::from_millis(20), Duration::from_millis(50)),
            seed: 7,
            threads: 1,
        }
    }

    #[test]
    fn splits_are_built_for_every_dataset() {
        let cfg = tiny_cfg();
        let splits = build_splits(&cfg).expect("splits");
        assert_eq!(splits.len(), 2);
        let compas = &splits["compas"];
        assert_eq!(compas.n_features(), 19); // matches Table 2
        assert!(compas.train.n_rows() > compas.val.n_rows());
    }

    #[test]
    fn splits_are_bit_identical_at_every_thread_count() {
        let cfg = |threads| CorpusConfig {
            datasets: vec![("compas", 200), ("indian_liver_patient", 150), ("german_credit", 120)],
            threads,
            ..tiny_cfg()
        };
        let reference = build_splits(&cfg(1)).expect("splits");
        for threads in [2, 4] {
            let splits = build_splits(&cfg(threads)).expect("splits");
            // Equal sizes and a reference entry for every key: one key set.
            assert_eq!(splits.len(), reference.len(), "threads {threads}");
            for (name, split) in &splits {
                let want = &reference[name];
                for (part, want) in [
                    (&split.train, &want.train),
                    (&split.val, &want.val),
                    (&split.test, &want.test),
                ] {
                    assert_eq!(part.x.as_slice(), want.x.as_slice(), "{name} at {threads}");
                    assert_eq!(part.y, want.y, "{name} at {threads}");
                    assert_eq!(part.protected, want.protected, "{name} at {threads}");
                }
            }
        }
    }

    #[test]
    fn scenario_corpus_is_deterministic_and_versioned() {
        let cfg = tiny_cfg();
        let a = build_scenarios(&cfg, BenchVersion::Hpo);
        let b = build_scenarios(&cfg, BenchVersion::Hpo);
        assert_eq!(a.len(), 4);
        assert_eq!(a[0].constraints.min_f1, b[0].constraints.min_f1);
        assert!(a.iter().all(|s| s.hpo && !s.utility_f1));
        let u = build_scenarios(&cfg, BenchVersion::Utility);
        assert!(u.iter().all(|s| s.hpo && s.utility_f1));
        let d = build_scenarios(&cfg, BenchVersion::DefaultParams);
        assert!(d.iter().all(|s| !s.hpo));
    }

    /// Apart from the HPO and utility flags each version sets, no two
    /// versions share a corpus.
    #[test]
    fn every_version_samples_its_own_corpus() {
        let cfg = tiny_cfg();
        let sampled = |version| -> Vec<String> {
            build_scenarios(&cfg, version)
                .into_iter()
                .map(|s| format!("{:?}", MlScenario { hpo: false, utility_f1: false, ..s }))
                .collect()
        };
        let versions = [BenchVersion::DefaultParams, BenchVersion::Hpo, BenchVersion::Utility];
        for (i, a) in versions.iter().enumerate() {
            for b in &versions[i + 1..] {
                assert_ne!(sampled(*a), sampled(*b), "{a:?} and {b:?}");
            }
        }
    }

    #[test]
    fn unknown_dataset_is_a_structured_error_not_a_panic() {
        let mut cfg = tiny_cfg();
        cfg.datasets.push(("no_such_dataset", 100));
        match build_splits(&cfg) {
            Err(DfsError::UnknownDataset { dataset }) => assert_eq!(dataset, "no_such_dataset"),
            other => panic!("expected UnknownDataset, got {:?}", other.map(|m| m.len())),
        }
    }

    #[test]
    fn a_computed_matrix_reloads_cell_for_cell_without_running_a_cell() {
        let cfg = CorpusConfig { datasets: vec![("indian_liver_patient", 150)], ..tiny_cfg() };
        let dir = std::env::temp_dir().join(format!("dfs-corpus-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("roundtrip.tsv");
        std::fs::remove_file(&path).ok();
        let version = BenchVersion::DefaultParams;
        let (fresh, _) = matrix_at(&cfg, version, path.clone()).expect("compute");
        let written = std::fs::read(&path).expect("matrix file");
        let (loaded, splits) = matrix_at(&cfg, version, path.clone()).expect("load");
        // Every computed row is appended, so an unchanged file means the
        // reload ran no cell.
        assert_eq!(std::fs::read(&path).expect("matrix file"), written);
        assert!(splits.contains_key("indian_liver_patient"));
        assert_eq!(loaded.arms, fresh.arms);
        assert_eq!(loaded.results.len(), 2);
        let line = |c: &CellResult| {
            let mut s = String::new();
            crate::cache::encode_cell(&mut s, c);
            s
        };
        for (a, b) in fresh.scenarios.iter().zip(&loaded.scenarios) {
            assert_eq!((a.seed, a.constraints.min_f1), (b.seed, b.constraints.min_f1));
        }
        for (a, b) in fresh.results.iter().flatten().zip(loaded.results.iter().flatten()) {
            assert_eq!(a.elapsed, b.elapsed);
            assert_eq!(line(a), line(b));
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn an_unwritable_cache_dir_fails_before_any_cell_runs() {
        let blocker = std::env::temp_dir().join(format!("dfs-blocker-{}", std::process::id()));
        std::fs::write(&blocker, "").expect("write");
        // No dataset of this config exists: had it reached the splits, let
        // alone a cell, the error would be UnknownDataset.
        let cfg = CorpusConfig { datasets: vec![("no_such_dataset", 100)], ..tiny_cfg() };
        match matrix_at(&cfg, BenchVersion::DefaultParams, blocker.join("m.tsv")) {
            Err(DfsError::Io { .. }) => {}
            other => panic!("expected an Io error, got {:?}", other.map(|(m, _)| m.results.len())),
        }
        std::fs::remove_file(&blocker).ok();
    }

    #[test]
    fn end_to_end_matrix_on_a_micro_corpus() {
        let cfg = tiny_cfg();
        let splits = build_splits(&cfg).expect("splits");
        let scenarios = build_scenarios(&cfg, BenchVersion::DefaultParams);
        let mut settings = bench_settings();
        settings.max_evals = 15;
        // Two cheap arms keep the test quick.
        let arms = vec![Arm::Original, Arm::Strategy(StrategyId::Sfs)];
        let matrix = run_benchmark(&splits, scenarios, &arms, &settings, 2);
        assert_eq!(matrix.results.len(), 4);
        assert_eq!(matrix.results[0].len(), 2);
        for row in &matrix.results {
            for cell in row {
                assert!(cell.val_distance >= 0.0 || cell.val_distance.is_infinite());
            }
        }
    }
}
