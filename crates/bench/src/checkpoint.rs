//! Incremental checkpoint sidecar for matrix computation.
//!
//! Long corpus runs die — OOM kills, Ctrl-C, machine reboots. The runner
//! hands each completed scenario row to a sink ([`RunnerOptions::on_row`]);
//! [`Checkpoint`] persists those rows in a sidecar file next to the final
//! cache file so an interrupted run can resume, recomputing only the rows
//! that never finished. Every flush rewrites the sidecar atomically (temp
//! file + rename), so the file on disk is always a consistent snapshot of
//! the completed work.
//!
//! The sidecar is keyed by the corpus fingerprint and the matrix shape; a
//! mismatched or corrupt sidecar is quarantined (like a corrupt cache) and
//! contributes nothing, so stale rows from a different configuration can
//! never leak into a resumed matrix.
//!
//! [`RunnerOptions::on_row`]: dfs_core::runner::RunnerOptions

use crate::cache;
use dfs_core::error::DfsError;
use dfs_core::runner::CellResult;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard};

// Tracks the cell-line codec version in `cache` (v8 dropped the timing
// and warm-start counters; v7 the validation-gather and chunked-evaluator
// block counters), so a sidecar written by an older build is a header
// mismatch, never a misparsed row.
const HEADER_TAG: &str = "#dfs-checkpoint";
const VERSION: &str = "v8";

/// A partially computed matrix being persisted row by row.
///
/// Thread-safe: [`Checkpoint::append_row`] may be called concurrently from
/// runner workers; flushes are serialized behind a mutex.
pub struct Checkpoint {
    path: PathBuf,
    buf: Mutex<String>,
}

impl Checkpoint {
    /// Sidecar location for a cache file (`<cache>.ckpt`).
    pub fn sidecar_path(cache_path: &Path) -> PathBuf {
        PathBuf::from(format!("{}.ckpt", cache_path.display()))
    }

    fn header(fingerprint: u64, n_scenarios: usize, n_arms: usize) -> String {
        format!("{HEADER_TAG}\t{VERSION}\t{fingerprint:016x}\t{n_scenarios}\t{n_arms}\n")
    }

    /// Parses the rows a previous interrupted run checkpointed.
    ///
    /// Missing sidecar → empty map. A sidecar whose header does not match
    /// this exact (fingerprint, shape) — or that is corrupt from the first
    /// line — is quarantined and yields nothing. A malformed *trailing*
    /// block (e.g. another writer died mid-rename) drops only the blocks
    /// from the damage onward; every complete leading block is kept.
    pub fn load_rows(
        path: &Path,
        fingerprint: u64,
        n_scenarios: usize,
        n_arms: usize,
    ) -> HashMap<usize, Vec<CellResult>> {
        let Ok(s) = std::fs::read_to_string(path) else {
            return HashMap::new();
        };
        let expected = Self::header(fingerprint, n_scenarios, n_arms);
        let mut lines = s.lines();
        if lines.next() != Some(expected.trim_end()) {
            let err = DfsError::CacheCorrupt {
                path: path.to_path_buf(),
                reason: "checkpoint header/fingerprint mismatch".into(),
            };
            dfs_obs::warn!("dfs-bench", "{err}; quarantining and starting fresh");
            dfs_obs::counter("checkpoint.quarantined", 1);
            cache::quarantine(path);
            return HashMap::new();
        }
        let mut rows = HashMap::new();
        let mut current: Option<(usize, Vec<CellResult>)> = None;
        let commit = |cur: &mut Option<(usize, Vec<CellResult>)>,
                      rows: &mut HashMap<usize, Vec<CellResult>>| {
            if let Some((i, row)) = cur.take() {
                if i < n_scenarios && row.len() == n_arms {
                    rows.insert(i, row);
                }
            }
        };
        for line in lines {
            let fields: Vec<&str> = line.split('\t').collect();
            let ok = match fields.as_slice() {
                ["C", idx] => match idx.parse::<usize>() {
                    Ok(i) => {
                        commit(&mut current, &mut rows);
                        current = Some((i, Vec::with_capacity(n_arms)));
                        true
                    }
                    Err(_) => false,
                },
                ["R", ..] => match (current.as_mut(), cache::decode_cell(&fields)) {
                    (Some((_, row)), Ok(cell)) => {
                        row.push(cell);
                        true
                    }
                    _ => false,
                },
                _ => false,
            };
            if !ok {
                dfs_obs::warn!(
                    "dfs-bench",
                    "checkpoint {} damaged at '{line}'; keeping the {} complete rows before it",
                    path.display(),
                    rows.len()
                );
                dfs_obs::counter("checkpoint.damaged_tail", 1);
                current = None;
                break;
            }
        }
        commit(&mut current, &mut rows);
        rows
    }

    /// Opens a sidecar seeded with the header and any already-known rows
    /// (the rows just loaded for resume), and flushes that initial state.
    pub fn start(
        path: PathBuf,
        fingerprint: u64,
        n_scenarios: usize,
        n_arms: usize,
        seed_rows: &HashMap<usize, Vec<CellResult>>,
    ) -> Checkpoint {
        if let Some(dir) = path.parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        let mut buf = Self::header(fingerprint, n_scenarios, n_arms);
        let mut idxs: Vec<usize> = seed_rows.keys().copied().collect();
        idxs.sort_unstable();
        for i in idxs {
            let _ = writeln!(buf, "C\t{i}");
            for cell in &seed_rows[&i] {
                cache::encode_cell(&mut buf, cell);
            }
        }
        let ckpt = Checkpoint { path, buf: Mutex::new(buf) };
        {
            let buf = ckpt.lock_buf();
            ckpt.flush(&buf);
        }
        ckpt
    }

    /// Records one completed row and flushes the sidecar atomically.
    ///
    /// IO failures degrade to a warning: checkpointing is best-effort and
    /// must never fault the computation it protects.
    pub fn append_row(&self, idx: usize, row: &[CellResult]) {
        let mut buf = self.lock_buf();
        let _ = writeln!(buf, "C\t{idx}");
        for cell in row {
            cache::encode_cell(&mut buf, cell);
        }
        self.flush(&buf);
    }

    /// Removes the sidecar — the final cache write supersedes it.
    pub fn finish(&self) {
        let _ = std::fs::remove_file(&self.path);
    }

    fn lock_buf(&self) -> MutexGuard<'_, String> {
        match self.buf.lock() {
            Ok(g) => g,
            // A panic while holding the lock leaves a consistent String
            // (appends happen before flush); recover and carry on.
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    fn flush(&self, contents: &str) {
        let tmp = self.path.with_extension("ckpt.tmp");
        let write = std::fs::write(&tmp, contents.as_bytes())
            .and_then(|_| std::fs::rename(&tmp, &self.path));
        if let Err(e) = write {
            let err = DfsError::Io { path: self.path.clone(), source: e };
            dfs_obs::warn!("dfs-bench", "checkpoint flush failed: {err}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dfs_core::runner::CellStatus;
    use std::time::Duration;

    const FP: u64 = 0xfeed;

    fn row(tag: usize, n_arms: usize) -> Vec<CellResult> {
        (0..n_arms)
            .map(|a| CellResult {
                status: CellStatus::Ok,
                success: a % 2 == 0,
                elapsed: Duration::from_millis((tag * 10 + a) as u64),
                val_distance: 0.1 * tag as f64,
                test_distance: 0.2 * tag as f64,
                evaluations: tag + a,
                test_f1: 0.5,
                subset_size: a + 1,
                perf: dfs_core::EvalPerf {
                    model_fits: (tag + a) as u64,
                    ..dfs_core::EvalPerf::default()
                },
            })
            .collect()
    }

    fn temp_path(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("dfs-ckpt-test");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let p = dir.join(name);
        std::fs::remove_file(&p).ok();
        std::fs::remove_file(format!("{}.quarantined", p.display())).ok();
        p
    }

    #[test]
    fn appended_rows_roundtrip_and_finish_removes_the_sidecar() {
        let path = temp_path("roundtrip.ckpt");
        let ckpt = Checkpoint::start(path.clone(), FP, 4, 3, &HashMap::new());
        ckpt.append_row(0, &row(0, 3));
        ckpt.append_row(2, &row(2, 3));
        let rows = Checkpoint::load_rows(&path, FP, 4, 3);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[&2][1].evaluations, 3);
        assert_eq!(rows[&0][0].subset_size, 1);
        assert!(!rows.contains_key(&1));
        ckpt.finish();
        assert!(!path.exists());
        assert!(Checkpoint::load_rows(&path, FP, 4, 3).is_empty());
    }

    #[test]
    fn seeded_rows_survive_a_restart_of_the_sidecar() {
        let path = temp_path("seeded.ckpt");
        let ckpt = Checkpoint::start(path.clone(), FP, 4, 2, &HashMap::new());
        ckpt.append_row(1, &row(1, 2));
        drop(ckpt);
        // Second run: resume rows seed the new sidecar before any append.
        let resumed = Checkpoint::load_rows(&path, FP, 4, 2);
        assert_eq!(resumed.len(), 1);
        let ckpt = Checkpoint::start(path.clone(), FP, 4, 2, &resumed);
        drop(ckpt);
        let again = Checkpoint::load_rows(&path, FP, 4, 2);
        assert!(again.contains_key(&1), "seeded row lost on restart");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn mismatched_fingerprint_or_shape_is_quarantined() {
        let path = temp_path("mismatch.ckpt");
        let ckpt = Checkpoint::start(path.clone(), FP, 4, 2, &HashMap::new());
        ckpt.append_row(0, &row(0, 2));
        // Different fingerprint (a different corpus config) must not resume.
        assert!(Checkpoint::load_rows(&path, FP + 1, 4, 2).is_empty());
        assert!(!path.exists(), "mismatched sidecar must be moved aside");
        let q = PathBuf::from(format!("{}.quarantined", path.display()));
        assert!(q.exists());
        std::fs::remove_file(&q).ok();
    }

    #[test]
    fn damaged_tail_keeps_complete_leading_blocks() {
        let path = temp_path("tail.ckpt");
        let ckpt = Checkpoint::start(path.clone(), FP, 4, 2, &HashMap::new());
        ckpt.append_row(0, &row(0, 2));
        ckpt.append_row(1, &row(1, 2));
        // Truncate the file mid-way through the final row block.
        let contents = std::fs::read_to_string(&path).expect("read");
        std::fs::write(&path, &contents[..contents.len() - 20]).expect("write");
        let rows = Checkpoint::load_rows(&path, FP, 4, 2);
        assert!(rows.contains_key(&0), "complete leading block dropped");
        assert!(!rows.contains_key(&1), "truncated block must not resume");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn out_of_range_row_indices_are_ignored() {
        let path = temp_path("range.ckpt");
        let ckpt = Checkpoint::start(path.clone(), FP, 2, 2, &HashMap::new());
        ckpt.append_row(7, &row(7, 2)); // beyond n_scenarios
        let rows = Checkpoint::load_rows(&path, FP, 2, 2);
        assert!(rows.is_empty());
        std::fs::remove_file(&path).ok();
    }
}
