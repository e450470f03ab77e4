//! Umbrella crate for the DFS reproduction workspace.
//!
//! Re-exports the public API of every workspace crate so downstream users can
//! depend on a single crate. See `README.md` for a quickstart and `DESIGN.md`
//! for the system inventory.

pub use dfs_client as client;
pub use dfs_constraints as constraints;
pub use dfs_core as core;
pub use dfs_data as data;
pub use dfs_exec as exec;
pub use dfs_fs as fs;
pub use dfs_linalg as linalg;
pub use dfs_metrics as metrics;
pub use dfs_models as models;
pub use dfs_obs as obs;
pub use dfs_optimizer as optimizer;
pub use dfs_proto as proto;
pub use dfs_rankings as rankings;
pub use dfs_search as search;
pub use dfs_server as server;
