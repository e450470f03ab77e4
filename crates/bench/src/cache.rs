//! On-disk cache for computed outcome matrices (compact TSV codec).
//!
//! The matrix computation is the expensive part of the harness; every bench
//! that needs it first looks here. The format is a line-oriented TSV keyed
//! by a config fingerprint, written atomically (temp file + rename).
//!
//! Codec v8 carries each cell's [`CellStatus`] (so fault-isolated runs
//! roundtrip losslessly) and its eight [`EvalPerf`] work counters. v8
//! dropped v7's four nanosecond timing fields (the observability spans
//! carry timings) and its warm-start counter along with warm starts. A
//! file that
//! fails validation — wrong version, truncated, or garbled — is never
//! trusted partially: [`load`] quarantines it (renames it aside with a
//! `.quarantined` suffix) and the caller recomputes. The per-cell line
//! codec is shared with the incremental checkpoint sidecar
//! ([`crate::checkpoint`]).

use crate::corpus::{BenchVersion, CorpusConfig};
use dfs_constraints::ConstraintSet;
use dfs_core::error::{DfsError, DfsResult};
use dfs_core::runner::{Arm, BenchmarkMatrix, CellResult, CellStatus};
use dfs_core::{EvalPerf, MlScenario};
use dfs_models::ModelKind;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// Cache file location for a (config, version) pair.
pub fn cache_path(cfg: &CorpusConfig, version: BenchVersion) -> PathBuf {
    let dir = std::env::var("DFS_BENCH_CACHE_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|_| std::env::temp_dir().join("dfs-bench-cache"));
    let fingerprint = fingerprint(cfg);
    dir.join(format!("matrix-{}-{fingerprint:016x}.tsv", version.tag()))
}

/// FNV-1a fingerprint of everything that determines the matrix contents.
/// Also keys the checkpoint sidecar, so stale partial rows from a different
/// configuration can never leak into a resumed run.
pub fn fingerprint(cfg: &CorpusConfig) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    let mut mix = |v: u64| {
        h = (h ^ v).wrapping_mul(0x100000001b3);
    };
    for (name, cap) in &cfg.datasets {
        for b in name.bytes() {
            mix(b as u64);
        }
        mix(*cap as u64);
    }
    mix(cfg.scenarios_per_dataset as u64);
    mix(cfg.time_range.0.as_millis() as u64);
    mix(cfg.time_range.1.as_millis() as u64);
    mix(cfg.seed);
    h
}

/// Serializes a matrix to the TSV codec (v8).
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

/// Parses the TSV codec back into a matrix.
pub fn decode(s: &str) -> Result<BenchmarkMatrix, String> {
    let mut lines = s.lines();
    let header = lines.next().ok_or("empty cache file")?;
    let head: Vec<&str> = header.split('\t').collect();
    if head.len() != 4 || head[0] != "#dfs-matrix" {
        return Err(format!("bad header '{header}'"));
    }
    if head[1] != "v8" {
        return Err(format!("unsupported cache version '{}' (this build reads v8)", head[1]));
    }
    let n_scenarios: usize = head[2].parse().map_err(|e| format!("bad count: {e}"))?;
    let n_arms: usize = head[3].parse().map_err(|e| format!("bad arm count: {e}"))?;
    let arms = Arm::all();
    if arms.len() != n_arms {
        return Err(format!("arm count {n_arms} != canonical {}", arms.len()));
    }

    let mut scenarios = Vec::with_capacity(n_scenarios);
    let mut results: Vec<Vec<CellResult>> = Vec::with_capacity(n_scenarios);
    for line in lines {
        let cells: Vec<&str> = line.split('\t').collect();
        match cells.first() {
            Some(&"S") => {
                if cells.len() != 12 {
                    return Err(format!("bad scenario line '{line}'"));
                }
                let opt = |v: f64| if v < 0.0 { None } else { Some(v) };
                let parse =
                    |i: usize| -> Result<f64, String> { cells[i].parse().map_err(|e| format!("{line}: {e}")) };
                let model = match cells[2] {
                    "LR" => ModelKind::LogisticRegression,
                    "NB" => ModelKind::GaussianNb,
                    "DT" => ModelKind::DecisionTree,
                    "SVM" => ModelKind::LinearSvm,
                    other => return Err(format!("unknown model '{other}'")),
                };
                let secs = parse(7)?;
                if secs.is_nan() {
                    return Err(format!("{line}: NaN search time"));
                }
                scenarios.push(MlScenario {
                    dataset: cells[1].to_string(),
                    model,
                    hpo: cells[3] == "1",
                    utility_f1: cells[4] == "1",
                    seed: cells[5].parse().map_err(|e| format!("{line}: {e}"))?,
                    constraints: ConstraintSet {
                        min_f1: parse(6)?,
                        max_search_time: Duration::try_from_secs_f64(secs)
                            .map_err(|e| format!("{line}: {e}"))?,
                        max_feature_frac: opt(parse(8)?),
                        min_eo: opt(parse(9)?),
                        min_safety: opt(parse(10)?),
                        privacy_epsilon: opt(parse(11)?),
                    },
                });
                results.push(Vec::with_capacity(n_arms));
            }
            Some(&"R") => {
                let row = results.last_mut().ok_or("result before scenario")?;
                if row.len() >= n_arms {
                    return Err("too many result lines for scenario".into());
                }
                row.push(decode_cell(&cells).map_err(|e| format!("{line}: {e}"))?);
            }
            _ => return Err(format!("unknown line kind '{line}'")),
        }
    }
    if scenarios.len() != n_scenarios {
        return Err(format!("expected {n_scenarios} scenarios, got {}", scenarios.len()));
    }
    if results.iter().any(|r| r.len() != n_arms) {
        return Err("ragged result rows (truncated file?)".into());
    }
    Ok(BenchmarkMatrix { arms, scenarios, results })
}

/// Moves a corrupt file aside as `<path>.quarantined` so the recompute can
/// write fresh while the bad bytes stay available for inspection.
pub fn quarantine(path: &Path) -> Option<PathBuf> {
    let dest = PathBuf::from(format!("{}.quarantined", path.display()));
    match std::fs::rename(path, &dest) {
        Ok(()) => {
            dfs_obs::counter("cache.quarantined", 1);
            Some(dest)
        }
        Err(e) => {
            dfs_obs::warn!("dfs-bench", "could not quarantine {}: {e}", path.display());
            None
        }
    }
}

/// Loads a cached matrix; `None` when the file is missing. A file that
/// fails validation (old version, truncation, corruption) is quarantined
/// and `None` is returned so the caller recomputes.
pub fn load(path: &Path) -> Option<BenchmarkMatrix> {
    let s = std::fs::read_to_string(path).ok()?;
    match decode(&s) {
        Ok(m) => Some(m),
        Err(reason) => {
            let err = DfsError::CacheCorrupt { path: path.to_path_buf(), reason };
            match quarantine(path) {
                Some(dest) => dfs_obs::warn!(
                    "dfs-bench",
                    "{err}; quarantined to {}",
                    dest.display()
                ),
                None => dfs_obs::warn!("dfs-bench", "{err}"),
            }
            None
        }
    }
}

/// Saves a matrix atomically (temp file + rename).
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
    use dfs_fs::StrategyId;

    fn sample_matrix() -> BenchmarkMatrix {
        let arms = Arm::all();
        let scenario = MlScenario {
            dataset: "compas".into(),
            model: ModelKind::GaussianNb,
            hpo: true,
            utility_f1: false,
            seed: 42,
            constraints: ConstraintSet {
                min_f1: 0.6,
                max_search_time: Duration::from_millis(250),
                max_feature_frac: Some(0.4),
                min_eo: None,
                min_safety: Some(0.85),
                privacy_epsilon: None,
            },
        };
        let row: Vec<CellResult> = (0..arms.len())
            .map(|i| CellResult {
                status: match i % 4 {
                    0 => CellStatus::Ok,
                    1 => CellStatus::Panicked,
                    2 => CellStatus::TimedOut,
                    _ => CellStatus::Skipped,
                },
                success: i % 3 == 0,
                elapsed: Duration::from_micros(100 + i as u64),
                val_distance: 0.01 * i as f64,
                test_distance: 0.02 * i as f64,
                evaluations: i,
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
            .collect();
        BenchmarkMatrix { arms, scenarios: vec![scenario], results: vec![row] }
    }

    #[test]
    fn roundtrip_preserves_everything_including_statuses() {
        let m = sample_matrix();
        let decoded = decode(&encode(&m).expect("encode")).expect("roundtrip");
        assert_eq!(decoded.scenarios.len(), 1);
        let s = &decoded.scenarios[0];
        assert_eq!(s.dataset, "compas");
        assert_eq!(s.model, ModelKind::GaussianNb);
        assert!(s.hpo);
        assert_eq!(s.constraints.min_f1, 0.6);
        assert_eq!(s.constraints.max_feature_frac, Some(0.4));
        assert_eq!(s.constraints.min_eo, None);
        assert_eq!(s.constraints.min_safety, Some(0.85));
        for (a, b) in m.results[0].iter().zip(&decoded.results[0]) {
            assert_eq!(a.status, b.status);
            assert_eq!(a.success, b.success);
            assert_eq!(a.evaluations, b.evaluations);
            assert_eq!(a.subset_size, b.subset_size);
            assert_eq!(a.perf, b.perf, "perf counters must roundtrip exactly");
            assert!((a.val_distance - b.val_distance).abs() < 1e-12);
        }
        // The canonical arm set includes Original + 16 strategies.
        assert_eq!(decoded.arms.len(), 17);
        assert!(decoded.arms.contains(&Arm::Strategy(StrategyId::Sffs)));
    }

    #[test]
    fn infinite_distances_of_faulted_cells_roundtrip() {
        let mut m = sample_matrix();
        m.results[0][1] = CellResult::faulted(CellStatus::Panicked, Duration::from_millis(7));
        let decoded = decode(&encode(&m).expect("encode")).expect("roundtrip");
        let cell = &decoded.results[0][1];
        assert_eq!(cell.status, CellStatus::Panicked);
        assert!(cell.val_distance.is_infinite() && cell.test_distance.is_infinite());
        assert!(!cell.success);
    }

    #[test]
    fn encode_rejects_non_canonical_arm_sets() {
        let mut m = sample_matrix();
        m.arms.truncate(3);
        match encode(&m) {
            Err(DfsError::CacheEncode { reason }) => assert!(reason.contains("non-canonical")),
            other => panic!("expected CacheEncode error, got {other:?}"),
        }
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(decode("").is_err());
        // Older codecs (v1 pre-status, v2 pre-perf, v3 pre-obs-counters,
        // v4 pre-memo-counters, v5 pre-eval-blocks, v6 with the gather
        // counters, v7 with the timing and warm-start counters) are a
        // version mismatch, not a panic; so is any future version.
        for old in ["v1", "v2", "v3", "v4", "v5", "v6", "v7"] {
            assert!(decode(&format!("#dfs-matrix\t{old}\t0\t17\n"))
                .is_err_and(|e| e.contains("unsupported cache version")));
        }
        assert!(decode("#dfs-matrix\tv9\t0\t17\n").is_err());
        assert!(decode("#dfs-matrix\tv8\t1\t17\nX\tfoo\n").is_err());
        // Wrong arm count.
        assert!(decode("#dfs-matrix\tv8\t0\t3\n").is_err());
    }

    #[test]
    fn decode_rejects_truncated_files() {
        let encoded = encode(&sample_matrix()).expect("encode");
        // Cut mid-way through the result block: ragged row.
        let cut = encoded.len() / 2;
        let truncated = &encoded[..encoded[..cut].rfind('\n').expect("newline") + 1];
        assert!(decode(truncated).is_err());
        // Cut mid-line: the partial R line has too few fields.
        assert!(decode(&encoded[..encoded.len() - 10]).is_err());
    }

    #[test]
    fn decode_rejects_bitflipped_fields() {
        let encoded = encode(&sample_matrix()).expect("encode");
        // Flip the status code of the first result line to an unknown byte.
        let pos = encoded.find("\nR\t").expect("result line") + 3;
        let mut flipped = encoded.clone().into_bytes();
        flipped[pos] ^= 0x10;
        let flipped = String::from_utf8(flipped).expect("utf8");
        assert!(decode(&flipped).is_err_and(|e| e.contains("status")));
        // Garble a numeric field.
        let garbled = encoded.replacen("0.01", "0.0x1", 1);
        assert!(decode(&garbled).is_err());
    }

    #[test]
    fn file_roundtrip_via_save_load() {
        let m = sample_matrix();
        let dir = std::env::temp_dir().join("dfs-cache-test");
        let path = dir.join("m.tsv");
        save(&path, &m).expect("save");
        let loaded = load(&path).expect("load");
        assert_eq!(loaded.scenarios[0].seed, 42);
        std::fs::remove_file(&path).ok();
        assert!(load(&path).is_none());
    }

    #[test]
    fn load_quarantines_corrupt_files() {
        let dir = std::env::temp_dir().join("dfs-cache-test-quarantine");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("bad.tsv");
        let qpath = PathBuf::from(format!("{}.quarantined", path.display()));
        std::fs::remove_file(&qpath).ok();
        // A v7 file from the previous build is quarantined like any other
        // version mismatch — the recompute writes fresh v8 bytes.
        std::fs::write(&path, "#dfs-matrix\tv7\t0\t17\n").expect("write");
        dfs_obs::set_trace_enabled(true);
        let (loaded, collected) = dfs_obs::scoped(|| load(&path));
        assert!(loaded.is_none());
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
}
