//! The persisted outcome matrix: one append-only row file per corpus key.
//!
//! Layout, one tab-separated record per line:
//!
//! ```text
//! #dfs-matrix  v9  <key, 16 hex digits>  <scenarios>  <arms>
//! C  <scenario index>
//! R  <cell>        one line per arm, in arm order (codec v8 of `cache`)
//! ```
//!
//! The runner hands each completed scenario row to a sink
//! ([`RunnerOptions::on_row`]); [`Checkpoint::append_row`] writes it as one
//! `C` block with a single write, in completion order. A file that holds
//! every row is the matrix. A partial file is what an interrupted run left,
//! and the next run appends the missing rows to it ([`Checkpoint::resume`]).
//! A run killed mid-append leaves at most a torn last block, which
//! [`Checkpoint::load`] drops while keeping every complete block before it.
//!
//! A file whose header does not match the key and shape (garbled, or
//! another layout) is renamed aside with a `.quarantined` suffix and
//! contributes nothing: rows of another configuration or build never leak.
//!
//! [`RunnerOptions::on_row`]: dfs_core::runner::RunnerOptions

use crate::cache;
use dfs_core::error::{DfsError, DfsResult};
use dfs_core::runner::CellResult;
use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard};

/// Complete rows by scenario index.
type Rows = HashMap<usize, Vec<CellResult>>;

/// A matrix file open for appending rows.
///
/// Thread-safe: [`Checkpoint::append_row`] may be called concurrently from
/// runner workers; appends are serialized behind a mutex.
pub struct Checkpoint {
    path: PathBuf,
    /// The file opened for appending; `None` when [`Checkpoint::start`]
    /// could not write it (appends then degrade to a no-op).
    file: Mutex<Option<File>>,
}

impl Checkpoint {
    // v9 is the keyed row-file layout. v8 was the single-file matrix that
    // `cache::save` still writes, so such a file is a header mismatch.
    fn header(fingerprint: u64, n_scenarios: usize, n_arms: usize) -> String {
        format!("#dfs-matrix\tv9\t{fingerprint:016x}\t{n_scenarios}\t{n_arms}\n")
    }

    /// Reads a matrix file: its complete rows, and the length of the prefix
    /// they fill (the bytes [`Checkpoint::resume`] keeps).
    ///
    /// A missing file gives nothing. So does one whose header does not
    /// match this exact (fingerprint, shape); it is quarantined, and its
    /// prefix length is 0. Everything from the first malformed line on (a
    /// writer killed mid-append) is dropped, along with the incomplete
    /// block it sits in; every complete block before it is kept. A last
    /// line without its newline is torn, however well it parses, and is
    /// ignored.
    pub fn load(path: &Path, fingerprint: u64, n_scenarios: usize, n_arms: usize) -> (Rows, u64) {
        let mut rows = Rows::new();
        let Ok(bytes) = std::fs::read(path) else {
            return (rows, 0);
        };
        let mut lines = bytes.split_inclusive(|&b| b == b'\n').filter(|l| l.ends_with(b"\n"));
        let header = Self::header(fingerprint, n_scenarios, n_arms);
        if lines.next() != Some(header.as_bytes()) {
            quarantine(path, "header does not match this corpus key and matrix shape");
            return (rows, 0);
        }
        // `pos` ends the lines read so far, `len` the last complete block.
        let (mut pos, mut len) = (header.len(), header.len());
        let mut current: Option<(usize, Vec<CellResult>)> = None;
        for line in lines {
            let text = std::str::from_utf8(&line[..line.len() - 1]).unwrap_or("");
            let fields: Vec<&str> = text.split('\t').collect();
            let ok = match fields.as_slice() {
                ["C", idx] => {
                    idx.parse().map(|i| current = Some((i, Vec::with_capacity(n_arms)))).is_ok()
                }
                ["R", ..] => {
                    let cell = cache::decode_cell(&fields).ok();
                    current.as_mut().zip(cell).map(|((_, row), cell)| row.push(cell)).is_some()
                }
                _ => false,
            };
            if !ok {
                let (path, at, kept) = (path.display(), String::from_utf8_lossy(line), rows.len());
                let at = at.trim_end();
                dfs_obs::warn!(
                    "dfs-bench",
                    "{path} damaged at '{at}'; keeping the {kept} complete rows before it"
                );
                dfs_obs::counter("checkpoint.damaged_tail", 1);
                break;
            }
            pos += line.len();
            if let Some((i, row)) = current.take_if(|(_, row)| row.len() == n_arms) {
                if i < n_scenarios {
                    rows.insert(i, row);
                }
                len = pos;
            }
        }
        (rows, len as u64)
    }

    /// Starts a fresh file holding the header and `seed_rows`, open for
    /// appending. Best-effort: a failure warns, and the appends that follow
    /// do nothing.
    pub fn start(
        path: PathBuf,
        fingerprint: u64,
        n_scenarios: usize,
        n_arms: usize,
        seed_rows: &Rows,
    ) -> Checkpoint {
        let fresh = Self::resume(path.clone(), fingerprint, n_scenarios, n_arms, 0);
        let ckpt = fresh.unwrap_or_else(|err| {
            dfs_obs::warn!("dfs-bench", "matrix file write failed: {err}");
            Checkpoint { path, file: Mutex::new(None) }
        });
        let mut idxs: Vec<usize> = seed_rows.keys().copied().collect();
        idxs.sort_unstable();
        for i in idxs {
            ckpt.append_row(i, &seed_rows[&i]);
        }
        ckpt
    }

    /// Opens a matrix file to append the rows it lacks, given the prefix
    /// length [`Checkpoint::load`] returned. The bytes past it (a torn or
    /// damaged tail) are cut off; with no prefix, a fresh file gets just
    /// the header. Unlike [`Checkpoint::start`], a failure is an error, so
    /// a run that could not persist its rows stops before computing any.
    pub fn resume(
        path: PathBuf,
        fingerprint: u64,
        n_scenarios: usize,
        n_arms: usize,
        len: u64,
    ) -> DfsResult<Checkpoint> {
        let file = if len == 0 {
            create(&path, &Self::header(fingerprint, n_scenarios, n_arms))
        } else {
            OpenOptions::new().append(true).open(&path).and_then(|f| f.set_len(len).map(|()| f))
        };
        let file = file.map_err(|source| DfsError::Io { path: path.clone(), source })?;
        Ok(Checkpoint { path, file: Mutex::new(Some(file)) })
    }

    /// Appends one completed row to the file as a single block write.
    ///
    /// IO failures degrade to a warning: persisting is best-effort and
    /// must never fault the computation it protects.
    pub fn append_row(&self, idx: usize, row: &[CellResult]) {
        let mut block = format!("C\t{idx}\n");
        for cell in row {
            cache::encode_cell(&mut block, cell);
        }
        let mut file = self.lock_file();
        if let Some(f) = file.as_mut() {
            if let Err(source) = f.write_all(block.as_bytes()) {
                let err = DfsError::Io { path: self.path.clone(), source };
                dfs_obs::warn!("dfs-bench", "matrix file write failed: {err}");
            }
        }
    }

    /// Removes the file, for a caller that keeps the matrix elsewhere.
    pub fn finish(&self) {
        let _ = std::fs::remove_file(&self.path);
    }

    fn lock_file(&self) -> MutexGuard<'_, Option<File>> {
        match self.file.lock() {
            Ok(g) => g,
            // The lock guards no invariant of its own: at worst the panic
            // tore one block, which loading drops. Recover and carry on.
            Err(poisoned) => poisoned.into_inner(),
        }
    }
}

/// Writes `header` to `path` atomically (temp file + rename), creating its
/// directory, and opens the result for appending.
fn create(path: &Path, header: &str) -> std::io::Result<File> {
    path.parent().map_or(Ok(()), std::fs::create_dir_all)?;
    let tmp = PathBuf::from(format!("{}.tmp", path.display()));
    std::fs::write(&tmp, header)?;
    std::fs::rename(&tmp, path)?;
    OpenOptions::new().append(true).open(path)
}

/// Moves a file that cannot be trusted aside as `<path>.quarantined`, so a
/// fresh computation can write in its place while the bad bytes stay
/// available for inspection.
fn quarantine(path: &Path, reason: &str) {
    let err = DfsError::CacheCorrupt { path: path.to_path_buf(), reason: reason.into() };
    let dest = PathBuf::from(format!("{}.quarantined", path.display()));
    match std::fs::rename(path, &dest) {
        Ok(()) => {
            dfs_obs::counter("cache.quarantined", 1);
            dfs_obs::warn!("dfs-bench", "{err}; quarantined to {}", dest.display());
        }
        Err(e) => dfs_obs::warn!("dfs-bench", "{err}; could not quarantine it: {e}"),
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
        let rows = Checkpoint::load(&path, FP, 4, 3).0;
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[&2][1].evaluations, 3);
        assert_eq!(rows[&0][0].subset_size, 1);
        assert!(!rows.contains_key(&1));
        ckpt.finish();
        assert!(!path.exists());
        assert!(Checkpoint::load(&path, FP, 4, 3).0.is_empty());
    }

    #[test]
    fn seeded_rows_survive_a_restart_of_the_sidecar() {
        let path = temp_path("seeded.ckpt");
        let ckpt = Checkpoint::start(path.clone(), FP, 4, 2, &HashMap::new());
        ckpt.append_row(1, &row(1, 2));
        drop(ckpt);
        // Second run: resume rows seed the new sidecar before any append.
        let resumed = Checkpoint::load(&path, FP, 4, 2).0;
        assert_eq!(resumed.len(), 1);
        let ckpt = Checkpoint::start(path.clone(), FP, 4, 2, &resumed);
        drop(ckpt);
        let again = Checkpoint::load(&path, FP, 4, 2).0;
        assert!(again.contains_key(&1), "seeded row lost on restart");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn mismatched_fingerprint_or_shape_is_quarantined() {
        let path = temp_path("mismatch.ckpt");
        let ckpt = Checkpoint::start(path.clone(), FP, 4, 2, &HashMap::new());
        ckpt.append_row(0, &row(0, 2));
        // Different fingerprint (a different corpus config) must not resume.
        assert!(Checkpoint::load(&path, FP + 1, 4, 2).0.is_empty());
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
        let rows = Checkpoint::load(&path, FP, 4, 2).0;
        assert!(rows.contains_key(&0), "complete leading block dropped");
        assert!(!rows.contains_key(&1), "truncated block must not resume");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_torn_last_block_loads_exactly_the_complete_rows() {
        let path = temp_path("torn.ckpt");
        let seed: HashMap<usize, Vec<CellResult>> = [(3, row(3, 2))].into();
        let ckpt = Checkpoint::start(path.clone(), FP, 5, 2, &seed);
        ckpt.append_row(0, &row(0, 2));
        let before_last = std::fs::read(&path).expect("read").len();
        ckpt.append_row(4, &row(4, 2));
        drop(ckpt);
        let contents = std::fs::read(&path).expect("read");
        for cut in before_last..=contents.len() {
            std::fs::write(&path, &contents[..cut]).expect("write");
            let rows = Checkpoint::load(&path, FP, 5, 2).0;
            let mut got: Vec<usize> = rows.keys().copied().collect();
            got.sort_unstable();
            let want = if cut == contents.len() { vec![0, 3, 4] } else { vec![0, 3] };
            assert_eq!(got, want, "cut at byte {cut} of {}", contents.len());
            assert_eq!(rows[&0][1].evaluations, 1, "cut at byte {cut}");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn resume_cuts_a_torn_tail_and_appends_the_missing_rows() {
        let path = temp_path("resume.tsv");
        let ckpt = Checkpoint::start(path.clone(), FP, 3, 2, &HashMap::new());
        ckpt.append_row(2, &row(2, 2));
        ckpt.append_row(0, &row(0, 2));
        drop(ckpt);
        let contents = std::fs::read(&path).expect("read");
        std::fs::write(&path, &contents[..contents.len() - 5]).expect("write");
        let (rows, len) = Checkpoint::load(&path, FP, 3, 2);
        assert_eq!(rows.keys().copied().collect::<Vec<_>>(), vec![2]);
        let ckpt = Checkpoint::resume(path.clone(), FP, 3, 2, len).expect("resume");
        ckpt.append_row(0, &row(0, 2));
        ckpt.append_row(1, &row(1, 2));
        drop(ckpt);
        let (rows, len) = Checkpoint::load(&path, FP, 3, 2);
        assert_eq!(rows.len(), 3, "the torn block must not hide the rows appended after it");
        assert_eq!(rows[&1][1].evaluations, 2);
        assert_eq!(len, std::fs::metadata(&path).expect("stat").len());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn resume_without_a_loadable_prefix_writes_a_fresh_header() {
        let path = temp_path("fresh.tsv");
        std::fs::write(&path, "garbage\n").expect("write");
        let (rows, len) = Checkpoint::load(&path, FP, 2, 2);
        assert!(rows.is_empty() && len == 0);
        let ckpt = Checkpoint::resume(path.clone(), FP, 2, 2, len).expect("resume");
        ckpt.append_row(1, &row(1, 2));
        assert_eq!(Checkpoint::load(&path, FP, 2, 2).0.len(), 1);
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(format!("{}.quarantined", path.display())).ok();
    }

    #[test]
    fn resume_on_an_unwritable_path_is_an_io_error() {
        // A regular file where the directory should be.
        let blocker = temp_path("not-a-dir");
        std::fs::write(&blocker, "").expect("write");
        let path = blocker.join("m.tsv");
        assert!(matches!(Checkpoint::resume(path, FP, 2, 2, 0), Err(DfsError::Io { .. })));
        std::fs::remove_file(&blocker).ok();
    }

    #[test]
    fn out_of_range_row_indices_are_ignored() {
        let path = temp_path("range.ckpt");
        let ckpt = Checkpoint::start(path.clone(), FP, 2, 2, &HashMap::new());
        ckpt.append_row(7, &row(7, 2)); // beyond n_scenarios
        let rows = Checkpoint::load(&path, FP, 2, 2).0;
        assert!(rows.is_empty());
        std::fs::remove_file(&path).ok();
    }
}
