//! Helpers shared by the `dfs-core` integration tests.

use dfs_core::runner::{Arm, BenchmarkMatrix, CellResult};
use dfs_core::workflow::{run_dfs, run_original_features};
use dfs_core::{MlScenario, ScenarioSettings};
use dfs_data::Split;
use std::collections::HashMap;

/// The naive reference matrix: every cell runs alone through the public
/// workflow, with its own private cache and every inner loop sequential,
/// so no cell sees another's rankings or measurements.
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
