//! The query engine: spec → scenario → `run_dfs_with_exec`, with warm
//! caches shared across requests.
//!
//! Two caches make the daemon faster than one-shot CLI runs:
//!
//! - **Prepared datasets/splits** — generating a synthetic dataset and its
//!   stratified three-way split is deterministic in `(name, rows, seed)`,
//!   so the first request pays and every later request reuses the `Arc`.
//! - **The shared [`ArtifactCache`]** — rankings are keyed by
//!   `(dataset, split fingerprint, kind)` with arm-independent seeds, and
//!   whole subset measurements by `(dataset, split fingerprint, settings
//!   fingerprint, eval leg, subset)`. Requests from different connections
//!   warm each other, and a repeated or overlapping query skips the model
//!   fits the first one already paid, without changing any result bit
//!   (DESIGN.md § 4h).
//!
//! Every query cell runs on the server's pinned [`Executor`] permit pool:
//! results are bit-identical for any pool width, so the chaos suite can
//! compare a 1-thread and a 4-thread server fingerprint-for-fingerprint.

use dfs_core::prelude::*;
use dfs_core::switching::{run_with_switching, SwitchConfig};
use dfs_core::workflow::run_dfs_with_exec;
use dfs_data::split::{stratified_three_way, Split};
use dfs_data::synthetic::{generate, spec_by_name};
use dfs_data::Dataset;
use dfs_proto::{ErrorCode, QueryResult, QuerySpec, WireError};
use dfs_rankings::RankingKind;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// The strategy a query resolved to.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ResolvedStrategy {
    Fixed(StrategyId),
    /// Dynamic strategy switching (paper § 7).
    Auto,
}

/// Parses the wire strategy name (same vocabulary as the CLI).
pub fn parse_strategy(s: &str) -> Result<ResolvedStrategy, String> {
    let fixed = |id| Ok(ResolvedStrategy::Fixed(id));
    match s {
        "auto" => Ok(ResolvedStrategy::Auto),
        "sfs" => fixed(StrategyId::Sfs),
        "sbs" => fixed(StrategyId::Sbs),
        "sffs" => fixed(StrategyId::Sffs),
        "sbfs" => fixed(StrategyId::Sbfs),
        "rfe" => fixed(StrategyId::Rfe),
        "es" => fixed(StrategyId::Es),
        "tpe" => fixed(StrategyId::TpeNr),
        "sa" => fixed(StrategyId::SaNr),
        "nsga2" => fixed(StrategyId::Nsga2Nr),
        "chi2" => fixed(StrategyId::TpeRanking(RankingKind::Chi2)),
        "variance" => fixed(StrategyId::TpeRanking(RankingKind::Variance)),
        "fisher" => fixed(StrategyId::TpeRanking(RankingKind::Fisher)),
        "mim" => fixed(StrategyId::TpeRanking(RankingKind::Mim)),
        "fcbf" => fixed(StrategyId::TpeRanking(RankingKind::Fcbf)),
        "relieff" => fixed(StrategyId::TpeRanking(RankingKind::ReliefF)),
        "mcfs" => fixed(StrategyId::TpeRanking(RankingKind::Mcfs)),
        other => Err(format!("unknown strategy '{other}'")),
    }
}

/// Parses the wire model name.
pub fn parse_model(s: &str) -> Result<ModelKind, String> {
    match s {
        "lr" => Ok(ModelKind::LogisticRegression),
        "nb" => Ok(ModelKind::GaussianNb),
        "dt" => Ok(ModelKind::DecisionTree),
        "svm" => Ok(ModelKind::LinearSvm),
        other => Err(format!("unknown model '{other}'")),
    }
}

/// A generated dataset plus its deterministic three-way split.
pub struct Prepared {
    pub dataset: Dataset,
    pub split: Split,
}

type SplitKey = (String, u64, u64);

/// Warm, shared execution state for all requests.
pub struct Engine {
    exec: Arc<Executor>,
    artifacts: Arc<ArtifactCache>,
    splits: Mutex<HashMap<SplitKey, Arc<Prepared>>>,
    base_settings: ScenarioSettings,
}

impl Engine {
    /// An engine whose query cells run on a pinned permit pool of
    /// `threads` (determinism contract: results do not depend on this).
    pub fn new(threads: usize) -> Self {
        Self {
            exec: Arc::new(Executor::new(threads)),
            artifacts: Arc::new(ArtifactCache::new()),
            splits: Mutex::new(HashMap::new()),
            base_settings: ScenarioSettings::default_bench(),
        }
    }

    /// (rankings computed, rankings served warm) across all requests.
    pub fn ranking_counts(&self) -> (u64, u64) {
        self.artifacts.counts()
    }

    /// (memo hits, misses, inserts) across all requests — the
    /// subset-measurement analogue of [`Engine::ranking_counts`].
    pub fn memo_counts(&self) -> (u64, u64, u64) {
        self.artifacts.memo_counts()
    }

    fn splits_lock(&self) -> MutexGuard<'_, HashMap<SplitKey, Arc<Prepared>>> {
        self.splits.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Cheap semantic validation, run by the connection handler *before*
    /// admission so malformed queries never occupy a queue slot.
    pub fn validate(&self, spec: &QuerySpec) -> Result<(), WireError> {
        let malformed = |msg: String| WireError::new(spec.req_id, ErrorCode::MalformedQuery, msg);
        parse_strategy(&spec.strategy).map_err(&malformed)?;
        parse_model(&spec.model).map_err(&malformed)?;
        if spec_by_name(&spec.dataset).is_none() {
            return Err(malformed(format!("unknown dataset '{}'", spec.dataset)));
        }
        if !spec.min_f1.is_finite() || !(0.0..=1.0).contains(&spec.min_f1) {
            return Err(malformed(format!("min_f1 {} outside [0, 1]", spec.min_f1)));
        }
        Ok(())
    }

    /// Returns the prepared dataset+split for a spec, generating on miss.
    fn prepared(&self, spec: &QuerySpec) -> Result<Arc<Prepared>, WireError> {
        let key: SplitKey = (spec.dataset.clone(), spec.rows.unwrap_or(0), spec.seed);
        if let Some(hit) = self.splits_lock().get(&key) {
            return Ok(Arc::clone(hit));
        }
        let mut dspec = spec_by_name(&spec.dataset).ok_or_else(|| {
            WireError::new(
                spec.req_id,
                ErrorCode::MalformedQuery,
                format!("unknown dataset '{}'", spec.dataset),
            )
        })?;
        if let Some(rows) = spec.rows {
            dspec.rows = dspec.rows.min(rows as usize).max(30);
        }
        let dataset = generate(&dspec, spec.seed);
        let split = stratified_three_way(&dataset, spec.seed);
        let prepared = Arc::new(Prepared { dataset, split });
        // Two racing requests may both generate; identical inputs produce
        // identical data, so last-write-wins is harmless.
        self.splits_lock().insert(key, Arc::clone(&prepared));
        Ok(prepared)
    }

    /// Executes a validated query under the given effective budget.
    ///
    /// Runs on the *worker/cell thread*: panics (including the chaos
    /// plan's `PanicInCell`) unwind into the caller's `catch_unwind`.
    pub fn run(
        &self,
        spec: &QuerySpec,
        search_time: Duration,
        max_evals: usize,
        inject_panic: bool,
    ) -> Result<QueryResult, WireError> {
        if inject_panic {
            panic!("chaos: injected cell panic (req {})", spec.req_id);
        }
        let started = Instant::now();
        let malformed = |msg: String| WireError::new(spec.req_id, ErrorCode::MalformedQuery, msg);
        let strategy = parse_strategy(&spec.strategy).map_err(&malformed)?;
        let model = parse_model(&spec.model).map_err(&malformed)?;
        let prepared = self.prepared(spec)?;

        let constraints = ConstraintSet {
            min_f1: spec.min_f1,
            max_search_time: search_time,
            max_feature_frac: spec.max_feature_frac,
            min_eo: spec.min_fairness,
            min_safety: spec.min_safety,
            privacy_epsilon: spec.privacy_epsilon,
        };
        constraints.validate().map_err(|e| malformed(format!("invalid constraints: {e}")))?;
        let scenario = MlScenario {
            dataset: prepared.dataset.name.clone(),
            model,
            hpo: spec.hpo,
            constraints,
            utility_f1: false,
            seed: spec.seed,
        };
        let mut settings = self.base_settings.clone();
        settings.max_evals = max_evals;

        let result = match strategy {
            ResolvedStrategy::Fixed(id) => {
                let out = run_dfs_with_exec(
                    &scenario,
                    &prepared.split,
                    &settings,
                    id,
                    &self.artifacts,
                    &self.exec,
                );
                QueryResult {
                    req_id: spec.req_id,
                    strategy: out.strategy.name(),
                    success: out.success,
                    subset: out.subset.unwrap_or_default().iter().map(|&i| i as u64).collect(),
                    val_distance: out.val_distance,
                    test_distance: out.test_distance,
                    evaluations: out.evaluations as u64,
                    elapsed_ms: started.elapsed().as_millis() as u64,
                    model_fits: out.perf.model_fits,
                    ranking_computes: out.perf.ranking_computes,
                    ranking_hits: out.perf.ranking_hits,
                }
            }
            ResolvedStrategy::Auto => {
                let cfg = SwitchConfig::default();
                let out = run_with_switching(&scenario, &prepared.split, &settings, &cfg);
                QueryResult {
                    req_id: spec.req_id,
                    strategy: out.winner.map_or_else(|| "auto".to_string(), |w| w.name()),
                    success: out.success,
                    // The switching API reports satisfaction, not raw
                    // distances; encode "not measured" as NaN (the wire
                    // format round-trips it).
                    subset: out.subset.unwrap_or_default().iter().map(|&i| i as u64).collect(),
                    val_distance: if out.success { 0.0 } else { f64::NAN },
                    test_distance: if out.success { 0.0 } else { f64::NAN },
                    evaluations: out.evaluations as u64,
                    elapsed_ms: started.elapsed().as_millis() as u64,
                    model_fits: 0,
                    ranking_computes: 0,
                    ranking_hits: 0,
                }
            }
        };
        Ok(result)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fast_spec(req_id: u64) -> QuerySpec {
        let mut s = QuerySpec::example(req_id);
        s.rows = Some(120);
        s
    }

    #[test]
    fn validate_rejects_unknowns() {
        let e = Engine::new(1);
        assert!(e.validate(&fast_spec(1)).is_ok());
        let mut bad = fast_spec(2);
        bad.strategy = "warp".into();
        assert_eq!(e.validate(&bad).map_err(|w| w.code), Err(ErrorCode::MalformedQuery));
        let mut bad = fast_spec(3);
        bad.model = "xgboost".into();
        assert_eq!(e.validate(&bad).map_err(|w| w.code), Err(ErrorCode::MalformedQuery));
        let mut bad = fast_spec(4);
        bad.dataset = "ghost".into();
        assert_eq!(e.validate(&bad).map_err(|w| w.code), Err(ErrorCode::MalformedQuery));
        let mut bad = fast_spec(5);
        bad.min_f1 = f64::NAN;
        assert_eq!(e.validate(&bad).map_err(|w| w.code), Err(ErrorCode::MalformedQuery));
    }

    #[test]
    fn identical_specs_share_one_prepared_split() {
        let e = Engine::new(1);
        let a = e.prepared(&fast_spec(1)).expect("prepare");
        let b = e.prepared(&fast_spec(2)).expect("prepare");
        assert!(Arc::ptr_eq(&a, &b), "same (dataset, rows, seed) must hit the cache");
        let mut other = fast_spec(3);
        other.seed = 999;
        let c = e.prepared(&other).expect("prepare");
        assert!(!Arc::ptr_eq(&a, &c));
    }

    #[test]
    fn run_is_bit_identical_across_executor_widths() {
        let spec = fast_spec(7);
        let budget = Duration::from_millis(400);
        let narrow = Engine::new(1).run(&spec, budget, 25, false).expect("run");
        let wide = Engine::new(4).run(&spec, budget, 25, false).expect("run");
        assert_eq!(narrow.fingerprint(), wide.fingerprint());
    }

    #[test]
    fn injected_panic_unwinds() {
        let e = Engine::new(1);
        let spec = fast_spec(9);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            e.run(&spec, Duration::from_millis(100), 10, true)
        }));
        assert!(caught.is_err(), "chaos panic must unwind");
    }
}
