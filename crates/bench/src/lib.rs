//! Experiment harness: regenerates every table and figure of the paper.
//!
//! Each paper artifact has a `harness = false` bench target under
//! `benches/` that prints the same rows/series the paper reports (see the
//! per-experiment index in `DESIGN.md` and the measured results in
//! `EXPERIMENTS.md`). The expensive part — executing the randomized
//! scenario corpus across all 17 arms — runs once and persists on disk, so
//! `table3` pays the cost and the other tables reuse it. The matrix is one
//! append-only file ([`checkpoint`]) named and headed by a key of every
//! input that computed it: the corpus config, the scenario settings and a
//! hash of the workspace sources ([`cache`]). Each completed row is
//! appended as it finishes, so an interrupted computation resumes instead
//! of restarting; a file whose header does not match is quarantined, not
//! trusted.
//!
//! Scale note: the paper burned four weeks of compute on 28-core machines
//! with 10 s–3 h search budgets. This harness scales the datasets and the
//! budgets down together (coverage is defined *relative to* the budget), so
//! the relative strategy behaviour — who covers what, who is fastest, where
//! backward selection dies — is preserved at laptop scale. Set
//! `DFS_BENCH_SCENARIOS` (default 8) to change scenarios-per-dataset.

pub mod cache;
pub mod checkpoint;
pub mod corpus;
pub mod stamp;
pub mod table;
pub mod timing;

pub use checkpoint::Checkpoint;
pub use corpus::{bench_settings, build_scenarios, build_splits, BenchVersion, CorpusConfig};
pub use table::{fmt_mean_std, print_table};

use dfs_core::runner::{Arm, BenchmarkMatrix, CellResult};
use dfs_core::workflow::{run_dfs, run_original_features};
use dfs_core::{MlScenario, ScenarioSettings};
use dfs_data::Split;
use std::collections::HashMap;

/// The naive reference matrix of the A/B benches: every cell runs alone
/// through the public workflow, with its own private cache and every inner
/// loop sequential, so no cell sees another's rankings or measurements.
pub fn naive_matrix(
    splits: &HashMap<String, Split>,
    scenarios: Vec<MlScenario>,
    arms: &[Arm],
    settings: &ScenarioSettings,
) -> BenchmarkMatrix {
    let results = scenarios
        .iter()
        .map(|scenario| {
            let split = &splits[&scenario.dataset];
            let cell = |arm: &Arm| match *arm {
                Arm::Original => run_original_features(scenario, split, settings),
                Arm::Strategy(id) => run_dfs(scenario, split, settings, id),
            };
            arms.iter().map(|arm| CellResult::from(&cell(arm))).collect()
        })
        .collect();
    BenchmarkMatrix { arms: arms.to_vec(), scenarios, results }
}

/// Unwraps a pipeline result in a bench main: prints the structured error
/// and exits nonzero instead of panicking with a backtrace.
pub fn ok_or_exit<T>(result: dfs_core::DfsResult<T>) -> T {
    match result {
        Ok(v) => v,
        Err(e) => {
            eprintln!("[dfs-bench] fatal: {e}");
            std::process::exit(1);
        }
    }
}
