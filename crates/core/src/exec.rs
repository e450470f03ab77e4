//! The nested-parallel execution layer (re-exported from `dfs-exec`).
//!
//! `dfs-core` sits above the model/metric/search crates, all of which run
//! their hot loops through the same permit-based [`Executor`], so the
//! executor itself lives in the leaf crate `dfs-exec` (no dependencies,
//! usable from every layer). This module re-exports it under dfs-core's
//! namespace — the runner, workflow and `ScenarioContext` all take an
//! `Arc<Executor>` from here.
//!
//! Thread-budget model in one paragraph: an `Executor::new(n)` holds
//! `n - 1` helper permits shared by *every* loop that uses it. The outer
//! benchmark loop and the inner per-cell loops (forest trees, NSGA-II
//! chunks, HPO grid, attack rows, ranking warm-up) draw from the same
//! pool, so total computing threads never exceed `n` no matter how the
//! loops nest; inner loops that find the pool empty run sequentially
//! inline. See `DESIGN.md` § 4d.

pub use dfs_exec::{env_threads, host_threads, Executor};
