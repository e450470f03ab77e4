//! Where the persisted outcome matrix lives, what keys it, and the cell
//! codec its rows are written in.
//!
//! The file at [`cache_path`] is the append-only row file of
//! [`crate::checkpoint`]. Its name and header carry [`fingerprint`], which
//! mixes every input that shapes the matrix: each [`CorpusConfig`] field
//! but the thread count, each leaf of [`bench_settings`], and `CODE_ID`, a
//! hash of the workspace sources from `build.rs`. Changing any of them
//! misses the cache instead of reloading a matrix the code would not
//! compute today.
//!
//! Codec v8 writes a cell as one `R` line: its [`CellStatus`] code, the
//! metrics and the eight [`EvalPerf`] work counters, each validated on the
//! way back in. [`save`] writes the older single-file layout, which
//! nothing reads.

use crate::corpus::{bench_settings, BenchVersion, CorpusConfig};
use dfs_core::error::{DfsError, DfsResult};
use dfs_core::runner::{Arm, BenchmarkMatrix, CellResult, CellStatus};
use dfs_core::{EvalPerf, ScenarioSettings};
use dfs_linalg::rng::Fnv1a;
use dfs_metrics::AttackConfig;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Duration;

// `const CODE_ID: u64`: the hash of the workspace sources, from build.rs.
include!(concat!(env!("OUT_DIR"), "/code_id.rs"));

/// The matrix file of a (config, version) pair, under `DFS_BENCH_CACHE_DIR`
/// (default `<tmp>/dfs-bench-cache`).
pub fn cache_path(cfg: &CorpusConfig, version: BenchVersion) -> PathBuf {
    keyed_path(version, fingerprint(cfg))
}

fn keyed_path(version: BenchVersion, key: u64) -> PathBuf {
    let dir = std::env::var("DFS_BENCH_CACHE_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|_| std::env::temp_dir().join("dfs-bench-cache"));
    dir.join(format!("matrix-{}-{key:016x}.tsv", version.tag()))
}

/// The key of the matrix `cfg` computes with [`bench_settings`] and the
/// code of this build. It names the matrix file and heads it, so rows from
/// any other configuration or build can never load or resume.
pub fn fingerprint(cfg: &CorpusConfig) -> u64 {
    key(cfg, &bench_settings(), CODE_ID)
}

/// [`fingerprint`] for explicit settings and code id. The structs are
/// destructured without `..`, so a new field fails to compile here until
/// it is mixed in or its exclusion is explained.
fn key(cfg: &CorpusConfig, settings: &ScenarioSettings, code_id: u64) -> u64 {
    let CorpusConfig {
        datasets,
        scenarios_per_dataset,
        time_range,
        seed,
        // Left out: the wall clock is the binding budget (see
        // `bench_settings`), so the matrix already depends on the host and
        // the thread count. Keying by it would only split the cache.
        threads: _,
    } = cfg;
    let ScenarioSettings {
        max_evals,
        attack: AttackConfig { max_points, init_trials },
        max_train_rows,
        bound_pruning,
    } = settings;
    let mut h = Fnv1a::new();
    h.mix(code_id);
    h.mix(datasets.len() as u64);
    for (name, cap) in datasets {
        h.bytes(name.as_bytes());
        h.mix(*cap as u64);
    }
    let counts = [*scenarios_per_dataset, *max_evals, *max_points, *init_trials, *max_train_rows];
    for word in counts.map(|c| c as u64).into_iter().chain([*bound_pruning as u64, *seed]) {
        h.mix(word);
    }
    h.mix(time_range.0.as_nanos() as u64);
    h.mix(time_range.1.as_nanos() as u64);
    h.finish()
}

/// Serializes a matrix to the single-file layout: a header, then per
/// scenario one `S` line and its `R` lines.
///
/// Errors with [`DfsError::CacheEncode`] on a non-canonical arm set — the
/// compact codec stores no arm column, so only `Arm::all()` matrices are
/// representable.
pub fn encode(matrix: &BenchmarkMatrix) -> DfsResult<String> {
    let mut out = String::new();
    let canonical = Arm::all();
    if matrix.arms != canonical {
        return Err(DfsError::CacheEncode {
            reason: format!(
                "non-canonical arm set ({} arms, expected the canonical {})",
                matrix.arms.len(),
                canonical.len()
            ),
        });
    }
    let _ = writeln!(out, "#dfs-matrix\tv8\t{}\t{}", matrix.scenarios.len(), matrix.arms.len());
    for (s, row) in matrix.scenarios.iter().zip(&matrix.results) {
        let c = &s.constraints;
        let _ = writeln!(
            out,
            "S\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
            s.dataset,
            s.model.short_name(),
            s.hpo as u8,
            s.utility_f1 as u8,
            s.seed,
            c.min_f1,
            c.max_search_time.as_secs_f64(),
            c.max_feature_frac.unwrap_or(-1.0),
            c.min_eo.unwrap_or(-1.0),
            c.min_safety.unwrap_or(-1.0),
            c.privacy_epsilon.unwrap_or(-1.0),
        );
        for cell in row {
            encode_cell(&mut out, cell);
        }
    }
    Ok(out)
}

/// Writes one `R` result line (v8: leading one-character status code, then
/// the metrics, then the eight [`EvalPerf`] work counters).
pub(crate) fn encode_cell(out: &mut String, cell: &CellResult) {
    let p = &cell.perf;
    let _ = writeln!(
        out,
        "R\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
        cell.status.code(),
        cell.success as u8,
        cell.elapsed.as_secs_f64(),
        cell.val_distance,
        cell.test_distance,
        cell.evaluations,
        cell.test_f1,
        cell.subset_size,
        p.model_fits,
        p.cache_hits,
        p.ranking_computes,
        p.ranking_hits,
        p.hpo_grid_points,
        p.memo_hits,
        p.memo_misses,
        p.bound_skips,
    );
}

/// Parses one tab-split `R` line (`fields[0] == "R"`, 17 fields). Every
/// field is validated — a truncated or bit-flipped line is an error, never
/// a silently wrong cell.
pub(crate) fn decode_cell(fields: &[&str]) -> Result<CellResult, String> {
    if fields.len() != 17 {
        return Err(format!("result line has {} fields, expected 17", fields.len()));
    }
    let parse = |i: usize| -> Result<f64, String> {
        fields[i].parse().map_err(|e| format!("result field {i}: {e}"))
    };
    let count = |i: usize| -> Result<u64, String> {
        fields[i].parse().map_err(|e| format!("result field {i}: {e}"))
    };
    let status = match fields[1].as_bytes() {
        [c] => CellStatus::from_code(*c as char)
            .ok_or_else(|| format!("unknown cell status '{}'", fields[1]))?,
        _ => return Err(format!("unknown cell status '{}'", fields[1])),
    };
    let success = match fields[2] {
        "0" => false,
        "1" => true,
        other => return Err(format!("bad success flag '{other}'")),
    };
    let val = parse(3)?;
    if val.is_nan() {
        return Err("negative or NaN elapsed".into());
    }
    let elapsed = Duration::try_from_secs_f64(val).map_err(|e| e.to_string())?;
    Ok(CellResult {
        status,
        success,
        elapsed,
        val_distance: parse(4)?,
        test_distance: parse(5)?,
        evaluations: fields[6].parse().map_err(|e| format!("result field 6: {e}"))?,
        test_f1: parse(7)?,
        subset_size: fields[8].parse().map_err(|e| format!("result field 8: {e}"))?,
        perf: EvalPerf {
            model_fits: count(9)?,
            cache_hits: count(10)?,
            ranking_computes: count(11)?,
            ranking_hits: count(12)?,
            hpo_grid_points: count(13)?,
            memo_hits: count(14)?,
            memo_misses: count(15)?,
            bound_skips: count(16)?,
        },
    })
}

/// Saves a matrix in the single-file layout, atomically (temp file +
/// rename). Nothing reads the file back: the tables load the row file at
/// [`cache_path`].
pub fn save(path: &Path, matrix: &BenchmarkMatrix) -> DfsResult<()> {
    let encoded = encode(matrix)?;
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)
            .map_err(|e| DfsError::Io { path: dir.to_path_buf(), source: e })?;
    }
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, encoded).map_err(|e| DfsError::Io { path: tmp.clone(), source: e })?;
    std::fs::rename(&tmp, path).map_err(|e| DfsError::Io { path: path.to_path_buf(), source: e })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::Checkpoint;
    use dfs_constraints::ConstraintSet;
    use dfs_core::MlScenario;
    use dfs_models::ModelKind;
    use std::collections::HashMap;

    const FP: u64 = 0x5eed;
    const ROWS: usize = 3;

    fn sample_row(tag: usize) -> Vec<CellResult> {
        (0..Arm::all().len())
            .map(|i| CellResult {
                status: match i % 4 {
                    0 => CellStatus::Ok,
                    1 => CellStatus::Panicked,
                    2 => CellStatus::TimedOut,
                    _ => CellStatus::Skipped,
                },
                success: i % 3 == 0,
                elapsed: Duration::from_nanos(123_456_789 * (tag + 1) as u64 + i as u64),
                val_distance: 0.01 * i as f64 + tag as f64 / 3.0,
                test_distance: 0.02 * i as f64,
                evaluations: i + tag,
                test_f1: 0.5 + 0.01 * i as f64,
                subset_size: i + 1,
                perf: EvalPerf {
                    model_fits: i as u64,
                    cache_hits: 2 * i as u64,
                    ranking_computes: (i % 3) as u64,
                    ranking_hits: (i % 5) as u64,
                    hpo_grid_points: (i % 7) as u64,
                    memo_hits: (i % 4) as u64,
                    memo_misses: 5 + i as u64,
                    bound_skips: (i % 6) as u64,
                },
            })
            .collect()
    }

    /// A fresh path in this process's test directory.
    fn temp_path(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("dfs-cache-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join(name);
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(format!("{}.quarantined", path.display())).ok();
        path
    }

    /// A matrix file holding `rows`, appended one block each.
    fn write_file(path: &Path, rows: &[(usize, Vec<CellResult>)]) -> String {
        let arms = Arm::all().len();
        let ckpt = Checkpoint::start(path.to_path_buf(), FP, ROWS, arms, &HashMap::new());
        for (i, row) in rows {
            ckpt.append_row(*i, row);
        }
        std::fs::read_to_string(path).expect("read back")
    }

    fn load(path: &Path) -> HashMap<usize, Vec<CellResult>> {
        Checkpoint::load(path, FP, ROWS, Arm::all().len()).0
    }

    fn line(cell: &CellResult) -> String {
        let mut out = String::new();
        encode_cell(&mut out, cell);
        out
    }

    fn full_file(name: &str) -> (PathBuf, String) {
        let path = temp_path(name);
        let text = write_file(&path, &[(2, sample_row(2)), (0, sample_row(0)), (1, sample_row(1))]);
        (path, text)
    }

    #[test]
    fn roundtrip_preserves_everything_including_statuses() {
        let (path, _) = full_file("roundtrip.tsv");
        let rows = load(&path);
        assert_eq!(rows.len(), ROWS);
        for (i, row) in &rows {
            for (a, b) in sample_row(*i).iter().zip(row) {
                assert_eq!(a.status, b.status);
                assert_eq!(a.success, b.success);
                assert_eq!(a.elapsed, b.elapsed, "elapsed must roundtrip to the nanosecond");
                assert_eq!(a.val_distance.to_bits(), b.val_distance.to_bits());
                assert_eq!(a.test_distance.to_bits(), b.test_distance.to_bits());
                assert_eq!(a.test_f1.to_bits(), b.test_f1.to_bits());
                assert_eq!(a.evaluations, b.evaluations);
                assert_eq!(a.subset_size, b.subset_size);
                assert_eq!(a.perf, b.perf, "perf counters must roundtrip exactly");
            }
        }
        // A removed file loads nothing.
        std::fs::remove_file(&path).expect("remove");
        assert!(load(&path).is_empty());
    }

    #[test]
    fn infinite_distances_of_faulted_cells_roundtrip() {
        let path = temp_path("faulted.tsv");
        let mut row = sample_row(0);
        row[1] = CellResult::faulted(CellStatus::Panicked, Duration::from_millis(7));
        write_file(&path, &[(0, row)]);
        let cell = &load(&path)[&0][1];
        assert_eq!(cell.status, CellStatus::Panicked);
        assert!(cell.val_distance.is_infinite() && cell.test_distance.is_infinite());
        assert!(!cell.success);
    }

    #[test]
    fn encode_rejects_non_canonical_arm_sets() {
        let scenario = MlScenario {
            dataset: "compas".into(),
            model: ModelKind::GaussianNb,
            hpo: true,
            utility_f1: false,
            seed: 42,
            constraints: ConstraintSet::accuracy_only(0.6, Duration::from_millis(250)),
        };
        let (scenarios, results) = (vec![scenario], vec![sample_row(0)]);
        let mut m = BenchmarkMatrix { arms: Arm::all(), scenarios, results };
        assert!(encode(&m).is_ok());
        m.arms.truncate(3);
        match encode(&m) {
            Err(DfsError::CacheEncode { reason }) => assert!(reason.contains("non-canonical")),
            other => panic!("expected CacheEncode error, got {other:?}"),
        }
    }

    #[test]
    fn decode_rejects_garbage() {
        let (path, text) = full_file("garbage.tsv");
        let body = &text[text.find('\n').expect("header") + 1..];
        let arms = Arm::all().len();
        // Older layouts (the v8 single-file matrix and the v8 checkpoint
        // sidecar), a future version, another key, another shape, an empty
        // file and plain garbage all fail the header, whatever follows it.
        for header in [
            format!("#dfs-matrix\tv8\t{ROWS}\t{arms}\n"),
            format!("#dfs-checkpoint\tv8\t{FP:016x}\t{ROWS}\t{arms}\n"),
            format!("#dfs-matrix\tv10\t{FP:016x}\t{ROWS}\t{arms}\n"),
            format!("#dfs-matrix\tv9\t{:016x}\t{ROWS}\t{arms}\n", FP + 1),
            format!("#dfs-matrix\tv9\t{FP:016x}\t{ROWS}\t3\n"),
            String::new(),
            "X\tfoo\n".into(),
        ] {
            std::fs::write(&path, format!("{header}{body}")).expect("write");
            assert!(load(&path).is_empty(), "header {header:?} must not load");
            assert!(!path.exists(), "header {header:?} must be quarantined");
        }
        // A garbage line after a good header keeps nothing after it.
        let first_block = text.find("\nC\t0").expect("second block") + 1;
        std::fs::write(&path, format!("{}X\tfoo\n{}", &text[..first_block], &text[first_block..]))
            .expect("write");
        assert_eq!(load(&path).keys().copied().collect::<Vec<_>>(), vec![2]);
    }

    #[test]
    fn decode_rejects_truncated_files() {
        let (path, text) = full_file("truncated.tsv");
        // Cut mid-way through the file: only the blocks before the cut load.
        let cut = text.len() / 2;
        let at_newline = text[..cut].rfind('\n').expect("newline") + 1;
        for end in [at_newline, cut] {
            std::fs::write(&path, &text[..end]).expect("write");
            let rows = load(&path);
            assert_eq!(rows.keys().copied().collect::<Vec<_>>(), vec![2], "cut at byte {end}");
        }
        // Cut mid-line: a short last line is torn, and so is its block.
        std::fs::write(&path, &text[..text.len() - 10]).expect("write");
        assert_eq!(load(&path).len(), ROWS - 1);
        // A short result line is an error, never a cell with defaults.
        let encoded = line(&sample_row(0)[0]);
        let cells: Vec<&str> = encoded.trim_end().split('\t').collect();
        assert!(decode_cell(&cells[..cells.len() - 1]).is_err());
    }

    #[test]
    fn decode_rejects_bitflipped_fields() {
        let (path, text) = full_file("bitflip.tsv");
        // Flip the status code of the first result line to an unknown byte.
        let pos = text.find("\nR\t").expect("result line") + 3;
        let mut flipped = text.clone().into_bytes();
        flipped[pos] ^= 0x10;
        let cells = String::from_utf8(flipped[pos - 2..].to_vec()).expect("utf8");
        let cells: Vec<&str> = cells.lines().next().expect("line").split('\t').collect();
        assert!(decode_cell(&cells).is_err_and(|e| e.contains("status")));
        std::fs::write(&path, &flipped).expect("write");
        assert!(load(&path).is_empty(), "the flipped first block and all after it are dropped");
        // Garble a numeric field of the last block.
        let last = text.rfind("\nC\t").expect("last block");
        let garbled = format!("{}{}", &text[..last], text[last..].replacen("\t0.", "\t0.x", 1));
        std::fs::write(&path, garbled).expect("write");
        assert_eq!(load(&path).len(), ROWS - 1);
    }

    #[test]
    fn file_roundtrip_via_save_load() {
        let scenario = MlScenario {
            dataset: "compas".into(),
            model: ModelKind::GaussianNb,
            hpo: true,
            utility_f1: false,
            seed: 42,
            constraints: ConstraintSet::accuracy_only(0.6, Duration::from_millis(250)),
        };
        let m = BenchmarkMatrix {
            arms: Arm::all(),
            scenarios: vec![scenario],
            results: vec![sample_row(0)],
        };
        // `save` creates the missing parent directory and leaves no temp file.
        let dir = temp_path("save-dir");
        std::fs::remove_dir_all(&dir).ok();
        let path = dir.join("m.tsv");
        save(&path, &m).expect("save");
        assert!(!path.with_extension("tmp").exists());
        let text = std::fs::read_to_string(&path).expect("read back");
        assert_eq!(text, encode(&m).expect("encode"));
        // Load the file back line by line: the scenario keeps its seed and
        // every result line decodes to the cell that was saved.
        let mut lines = text.lines().skip(1);
        let s: Vec<&str> = lines.next().expect("scenario line").split('\t').collect();
        assert_eq!((s[0], s[5]), ("S", "42"));
        let loaded: Vec<CellResult> = lines
            .map(|l| decode_cell(&l.split('\t').collect::<Vec<_>>()).expect("decode"))
            .collect();
        assert_eq!(loaded.len(), m.results[0].len());
        for (a, b) in m.results[0].iter().zip(&loaded) {
            assert_eq!((a.status, a.elapsed, a.perf), (b.status, b.elapsed, b.perf));
            assert_eq!(a.val_distance.to_bits(), b.val_distance.to_bits());
        }
        std::fs::remove_dir_all(&dir).ok();
        assert!(std::fs::read_to_string(&path).is_err());
    }

    #[test]
    fn load_quarantines_corrupt_files() {
        let path = temp_path("bad.tsv");
        let qpath = PathBuf::from(format!("{}.quarantined", path.display()));
        // A matrix in the older single-file layout is quarantined like any
        // other header mismatch; the recompute writes a fresh file.
        let m = BenchmarkMatrix { arms: Arm::all(), scenarios: Vec::new(), results: Vec::new() };
        save(&path, &m).expect("save");
        dfs_obs::set_trace_enabled(true);
        let (loaded, collected) = dfs_obs::scoped(|| load(&path));
        assert!(loaded.is_empty());
        // The bad file was moved aside, not deleted and not left in place.
        assert!(!path.exists());
        assert!(qpath.exists());
        // The quarantine is observable: a counter plus a warn event.
        let collected = collected.expect("collector");
        assert_eq!(
            collected.counters().get("cache.quarantined").copied(),
            Some(1),
            "quarantine must bump its obs counter: {:?}",
            collected.counters()
        );
        assert!(
            collected.events().iter().any(|e| format!("{e:?}").contains("quarantined")),
            "quarantine must leave a journal entry"
        );
        std::fs::remove_file(&qpath).ok();
    }

    fn tiny_cfg() -> CorpusConfig {
        CorpusConfig {
            datasets: vec![("compas", 200), ("indian_liver_patient", 150)],
            scenarios_per_dataset: 2,
            time_range: (Duration::from_millis(20), Duration::from_millis(50)),
            seed: 7,
            threads: 1,
        }
    }

    /// The path a config, settings and code id key, for one version.
    fn path_of(cfg: &CorpusConfig, settings: &ScenarioSettings, code_id: u64) -> PathBuf {
        keyed_path(BenchVersion::DefaultParams, key(cfg, settings, code_id))
    }

    /// Asserts that every variant keys a different path than the base and
    /// than each other.
    fn assert_all_distinct(paths: Vec<(&str, PathBuf)>) {
        for (i, (a, pa)) in paths.iter().enumerate() {
            for (b, pb) in &paths[i + 1..] {
                assert_ne!(pa, pb, "{a} and {b} share a cache path");
            }
        }
    }

    #[test]
    fn the_public_path_is_keyed_by_bench_settings_and_this_build() {
        let cfg = tiny_cfg();
        let version = BenchVersion::DefaultParams;
        assert_eq!(cache_path(&cfg, version), path_of(&cfg, &bench_settings(), CODE_ID));
        assert_eq!(fingerprint(&cfg), key(&cfg, &bench_settings(), CODE_ID));
    }

    #[test]
    fn every_corpus_field_but_threads_changes_the_path() {
        let base = tiny_cfg();
        let s = bench_settings();
        let variant = |f: fn(&mut CorpusConfig)| {
            let mut cfg = tiny_cfg();
            f(&mut cfg);
            path_of(&cfg, &s, CODE_ID)
        };
        assert_all_distinct(vec![
            ("base", path_of(&base, &s, CODE_ID)),
            ("dataset name", variant(|c| c.datasets[0].0 = "adult")),
            ("dataset cap", variant(|c| c.datasets[0].1 += 1)),
            ("dataset count", variant(|c| c.datasets.truncate(1))),
            ("scenarios per dataset", variant(|c| c.scenarios_per_dataset += 1)),
            ("shortest budget", variant(|c| c.time_range.0 += Duration::from_micros(1))),
            ("longest budget", variant(|c| c.time_range.1 += Duration::from_micros(1))),
            ("seed", variant(|c| c.seed += 1)),
        ]);
        assert_eq!(variant(|c| c.threads = 7), path_of(&base, &s, CODE_ID), "threads must not key");
    }

    #[test]
    fn every_scenario_settings_leaf_changes_the_path() {
        let cfg = tiny_cfg();
        let variant = |f: fn(&mut ScenarioSettings)| {
            let mut s = bench_settings();
            f(&mut s);
            path_of(&cfg, &s, CODE_ID)
        };
        assert_all_distinct(vec![
            ("base", variant(|_| {})),
            ("max_evals", variant(|s| s.max_evals += 1)),
            ("max_train_rows", variant(|s| s.max_train_rows = 200)),
            ("bound_pruning", variant(|s| s.bound_pruning = !s.bound_pruning)),
        ]);
    }

    #[test]
    fn every_attack_config_leaf_changes_the_path() {
        let cfg = tiny_cfg();
        let variant = |f: fn(&mut AttackConfig)| {
            let mut s = bench_settings();
            f(&mut s.attack);
            path_of(&cfg, &s, CODE_ID)
        };
        assert_all_distinct(vec![
            ("base", variant(|_| {})),
            ("max_points", variant(|a| a.max_points += 1)),
            ("init_trials", variant(|a| a.init_trials += 1)),
        ]);
    }

    #[test]
    fn the_bench_version_changes_the_path() {
        let cfg = tiny_cfg();
        assert_all_distinct(vec![
            ("default", cache_path(&cfg, BenchVersion::DefaultParams)),
            ("hpo", cache_path(&cfg, BenchVersion::Hpo)),
            ("utility", cache_path(&cfg, BenchVersion::Utility)),
        ]);
    }

    #[test]
    fn the_code_id_changes_the_path() {
        let (cfg, s) = (tiny_cfg(), bench_settings());
        assert_ne!(path_of(&cfg, &s, CODE_ID), path_of(&cfg, &s, CODE_ID ^ 1));
    }
}
