//! Declarative Feature Selection — the paper's primary contribution.
//!
//! A user declares an [`MlScenario`]: the classification model, the dataset
//! split, and a set of ML application constraints (minimum F1, minimum equal
//! opportunity, maximum feature-set size, minimum adversarial safety, a
//! differential-privacy budget ε, and a maximum search time). A
//! feature-selection strategy then searches for a feature subset under which
//! the trained model satisfies *every* constraint — first on the validation
//! split during search, then confirmed on the test split (the workflow of
//! the paper's Figure 2).
//!
//! # Modules
//!
//! - [`scenario`] — [`MlScenario`] and the [`scenario::ScenarioContext`]
//!   evaluator that trains/evaluates candidate subsets (with caching,
//!   evaluation-independent pruning, HPO, and DP model variants);
//! - [`workflow`] — [`workflow::run_dfs`]: propose → train → validate →
//!   confirm-on-test;
//! - [`sampler`] — the randomized constraint-space fuzzing of Listing 1;
//! - [`runner`] — fault-isolated corpus execution producing the outcome
//!   matrix behind Tables 3–8, plus coverage/fastest aggregation and greedy
//!   portfolios;
//! - [`artifacts`] — the one evaluation cache every scenario context holds:
//!   feature rankings and tree bins computed once per (dataset, split) and
//!   exact subset measurements, reused by every strategy arm that shares
//!   it; [`perf`] — exact work counters ([`EvalPerf`]) carried
//!   from the evaluator into every benchmark cell;
//! - [`error`] — the workspace-wide [`DfsError`] taxonomy; cell-level
//!   faults are recorded in the matrix ([`runner::CellStatus`]) rather than
//!   aborting a run;
//! - [`fault`] — deterministic fault injection ([`fault::FaultPlan`]) for
//!   the fault-tolerance tests;
//! - [`transfer`] — feature-set reusability across model families
//!   (Table 7);
//! - [`obs`] (re-exported `dfs-obs`) — deterministic span tracing, metrics
//!   and journal export, live progress, and the watchdog heartbeat
//!   (DESIGN.md § 4e).
//!
//! # Example
//!
//! ```
//! use dfs_core::prelude::*;
//! use std::time::Duration;
//!
//! // A small synthetic dataset with a protected attribute.
//! let ds = dfs_data::synthetic::generate(&dfs_data::synthetic::tiny_spec(), 1);
//! let split = dfs_data::split::stratified_three_way(&ds, 1);
//!
//! let scenario = MlScenario {
//!     dataset: ds.name.clone(),
//!     model: ModelKind::LogisticRegression,
//!     hpo: false,
//!     constraints: ConstraintSet::accuracy_only(0.6, Duration::from_secs(5)),
//!     utility_f1: false,
//!     seed: 42,
//! };
//! let settings = ScenarioSettings::fast();
//! let outcome = run_dfs(&scenario, &split, &settings, StrategyId::Sfs);
//! assert!(outcome.evaluations > 0);
//! ```

pub mod artifacts;
pub mod error;
pub mod exec;
pub mod fault;
pub mod perf;
pub mod runner;
pub mod sampler;
pub mod scenario;
pub mod switching;
pub mod transfer;
pub mod workflow;

/// Deterministic observability (spans, counters, exporters, progress) —
/// the `dfs-obs` crate re-exported under its conventional alias.
pub use dfs_obs as obs;

pub use artifacts::ArtifactCache;
pub use error::{DfsError, DfsResult};
pub use exec::Executor;
pub use fault::{FaultKind, FaultPlan, ServerFaultKind, ServerFaultPlan, ServerHold};
pub use perf::EvalPerf;
pub use scenario::{settings_fingerprint, MlScenario, ScenarioContext, ScenarioSettings};
pub use switching::{run_with_switching, SwitchConfig, SwitchOutcome};
pub use workflow::{run_dfs, DfsOutcome};

/// Convenient glob-import surface for examples and benches.
pub mod prelude {
    pub use crate::artifacts::ArtifactCache;
    pub use crate::error::{DfsError, DfsResult};
    pub use crate::exec::{env_threads, Executor};
    pub use crate::fault::{FaultKind, FaultPlan, ServerFaultKind, ServerFaultPlan, ServerHold};
    pub use crate::perf::EvalPerf;
    pub use crate::runner::{
        run_benchmark, run_benchmark_opts, Arm, BenchmarkMatrix, CellResult, CellStatus,
        PortfolioObjective, RunnerOptions,
    };
    pub use crate::sampler::{sample_scenario, SamplerConfig};
    pub use crate::scenario::{settings_fingerprint, MlScenario, ScenarioContext, ScenarioSettings};
    pub use crate::transfer::check_transfer;
    pub use crate::workflow::{run_dfs, DfsOutcome};
    pub use dfs_constraints::{ConstraintKind, ConstraintSet, Evaluation};
    pub use dfs_fs::{StrategyId, SubsetEvaluator};
    pub use dfs_models::ModelKind;
}
