//! The query engine: spec → scenario → `run_dfs_in`, with warm caches
//! shared across requests.
//!
//! The engine keeps one cache, an LRU map from `(dataset, rows, seed)` to
//! a `Prepared` split. Generating a synthetic dataset and its stratified
//! three-way split is deterministic in that key, so the first request
//! pays and every later request reuses the split: each query gets a
//! clone of the entry's `Split` handle, which shares its parts. The entry
//! also holds the split's entry in the shared [`ArtifactCache`]: its
//! rankings (arm-independent seeds), its subset measurements keyed
//! `(settings fingerprint, eval leg, subset)` and its trained models.
//! Requests from different connections warm each other, and a repeated
//! or overlapping query skips the model fits the first one already paid,
//! without changing any result bit (DESIGN.md § 4h).
//!
//! Every query runs on the caller's thread ([`Engine::run_until`]) and
//! stops at its first evaluation past its expiry. A repeated query can
//! run warm: from the split's caches alone, stopping before the first
//! step that would compute.
//!
//! **One byte budget.** Each entry is charged its split's matrix and label
//! bytes plus its artifacts' bytes, charged again after each query on it
//! that was not warm-only, which may have grown them; past the budget the
//! least recently used entries are evicted until the charge fits or only
//! one is left. Evicting drops the engine's hold and its handle on the
//! split: a query still running on it keeps its own, and a later request
//! regenerates the split and answers bit for bit the same.
//!
//! Every query cell runs on the server's pinned [`Executor`] permit pool:
//! results are bit-identical for any pool width, so the chaos suite can
//! compare a 1-thread and a 4-thread server fingerprint-for-fingerprint.

use dfs_core::artifacts::{catch_stop, split_fingerprint, CellStop, SplitArtifacts};
use dfs_core::prelude::*;
use dfs_core::workflow::run_dfs_in;
use dfs_data::split::{stratified_three_way, Split};
use dfs_data::synthetic::{generate, spec_by_name};
use dfs_proto::{ErrorCode, QueryResult, QuerySpec, WireError};
use dfs_rankings::RankingKind;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Parses a strategy name: one vocabulary for the wire and the CLI.
pub fn parse_strategy(s: &str) -> Result<StrategyId, String> {
    match s {
        "auto" => Ok(StrategyId::Switching),
        "sfs" => Ok(StrategyId::Sfs),
        "sbs" => Ok(StrategyId::Sbs),
        "sffs" => Ok(StrategyId::Sffs),
        "sbfs" => Ok(StrategyId::Sbfs),
        "rfe" => Ok(StrategyId::Rfe),
        "es" => Ok(StrategyId::Es),
        "tpe" => Ok(StrategyId::TpeNr),
        "sa" => Ok(StrategyId::SaNr),
        "nsga2" => Ok(StrategyId::Nsga2Nr),
        "chi2" => Ok(StrategyId::TpeRanking(RankingKind::Chi2)),
        "variance" => Ok(StrategyId::TpeRanking(RankingKind::Variance)),
        "fisher" => Ok(StrategyId::TpeRanking(RankingKind::Fisher)),
        "mim" => Ok(StrategyId::TpeRanking(RankingKind::Mim)),
        "fcbf" => Ok(StrategyId::TpeRanking(RankingKind::Fcbf)),
        "relieff" => Ok(StrategyId::TpeRanking(RankingKind::ReliefF)),
        "mcfs" => Ok(StrategyId::TpeRanking(RankingKind::Mcfs)),
        other => Err(format!("unknown strategy '{other}'")),
    }
}

/// Parses a model name (wire and CLI).
pub fn parse_model(s: &str) -> Result<ModelKind, String> {
    match s {
        "lr" => Ok(ModelKind::LogisticRegression),
        "nb" => Ok(ModelKind::GaussianNb),
        "dt" => Ok(ModelKind::DecisionTree),
        "svm" => Ok(ModelKind::LinearSvm),
        other => Err(format!("unknown model '{other}'")),
    }
}

/// The default [`Engine`] cache budget: 64 MiB, about six of the largest
/// corpus splits (8000 × 160) or about 1500 storm-size ones.
pub const DEFAULT_CACHE_BYTES: usize = 64 << 20;

/// One cached split: a handle on its parts, and the hold that keeps its
/// artifacts.
struct Prepared {
    /// The generated dataset's name, which keys its artifacts.
    name: String,
    split: Split,
    artifacts: SplitArtifacts,
    /// The entry's charge: [`split_bytes`] of `split` plus the artifacts'
    /// bytes when the entry was last charged.
    bytes: usize,
    /// The [`SplitCache`] tick of the entry's last use.
    used: u64,
}

type SplitKey = (String, u64, u64);

/// A spec's `(dataset, rows, seed)`: everything its split is generated
/// from.
fn split_key(spec: &QuerySpec) -> SplitKey {
    (spec.dataset.clone(), spec.rows.unwrap_or(0), spec.seed)
}

/// The bytes of a split's data: its three parts' feature matrices and
/// their label and protected-group vectors.
fn split_bytes(split: &Split) -> usize {
    [&split.train, &split.val, &split.test]
        .iter()
        .map(|part| std::mem::size_of_val(part.x.as_slice()) + part.y.len() + part.protected.len())
        .sum()
}

/// The engine's split cache, least recently used first out.
struct SplitCache {
    entries: HashMap<SplitKey, Prepared>,
    /// Counts uses; an entry's `used` is the tick of its last one.
    tick: u64,
    /// Sum of the entries' `bytes`.
    bytes: usize,
    budget: usize,
    evictions: u64,
}

impl SplitCache {
    /// The entry under `key`, marked used.
    fn get(&mut self, key: &SplitKey) -> Option<(String, Split)> {
        let entry = self.entries.get_mut(key)?;
        self.tick += 1;
        entry.used = self.tick;
        Some((entry.name.clone(), entry.split.clone()))
    }

    /// Inserts `entry` under `key` unless a racing request got there
    /// first, and returns the entry now cached with the entries to drop
    /// (evicted ones, or the racing loser) for the caller to drop outside
    /// the lock.
    fn insert(
        &mut self,
        key: SplitKey,
        mut entry: Prepared,
    ) -> ((String, Split), Vec<Prepared>) {
        if let Some(cached) = self.get(&key) {
            return (cached, vec![entry]);
        }
        self.tick += 1;
        entry.used = self.tick;
        let cached = (entry.name.clone(), entry.split.clone());
        self.bytes += entry.bytes;
        self.entries.insert(key, entry);
        // The new entry is the most recently used, so it is never first out.
        (cached, self.evict_past_budget())
    }

    /// Charges the entry under `key` again, for the memo entries and
    /// models a query on it added, and returns the entries this evicts.
    fn recharge(&mut self, key: &SplitKey) -> Vec<Prepared> {
        let Some(entry) = self.entries.get_mut(key) else { return Vec::new() };
        let bytes = split_bytes(&entry.split) + entry.artifacts.bytes();
        self.bytes = self.bytes - entry.bytes + bytes;
        entry.bytes = bytes;
        self.evict_past_budget()
    }

    /// Evicts least recently used entries until the charge fits the
    /// budget or one entry is left, and returns them for the caller to
    /// drop outside the lock.
    fn evict_past_budget(&mut self) -> Vec<Prepared> {
        let mut evicted = Vec::new();
        while self.bytes > self.budget && self.entries.len() > 1 {
            let oldest = self.entries.iter().min_by_key(|(_, e)| e.used).map(|(k, _)| k.clone());
            let Some(entry) = oldest.and_then(|k| self.entries.remove(&k)) else { break };
            self.bytes -= entry.bytes;
            self.evictions += 1;
            evicted.push(entry);
        }
        evicted
    }
}

/// Warm, shared execution state for all requests.
pub struct Engine {
    exec: Arc<Executor>,
    artifacts: Arc<ArtifactCache>,
    splits: Mutex<SplitCache>,
    base_settings: ScenarioSettings,
}

impl Engine {
    /// An engine whose query cells run on a pinned permit pool of
    /// `threads` (determinism contract: results do not depend on this),
    /// with the default cache budget.
    pub fn new(threads: usize) -> Self {
        Self::with_cache_bytes(threads, DEFAULT_CACHE_BYTES)
    }

    /// [`Engine::new`] with a split cache of `cache_bytes`.
    pub fn with_cache_bytes(threads: usize, cache_bytes: usize) -> Self {
        Self {
            exec: Arc::new(Executor::new(threads)),
            artifacts: Arc::new(ArtifactCache::new()),
            splits: Mutex::new(SplitCache {
                entries: HashMap::new(),
                tick: 0,
                bytes: 0,
                budget: cache_bytes,
                evictions: 0,
            }),
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

    /// (cached splits, bytes charged for them, evictions so far) of the
    /// split cache.
    pub fn cache_counts(&self) -> (u64, u64, u64) {
        let cache = self.splits_lock();
        (cache.entries.len() as u64, cache.bytes as u64, cache.evictions)
    }

    fn splits_lock(&self) -> MutexGuard<'_, SplitCache> {
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

    /// The dataset name and split of a spec, generated on a miss.
    pub(crate) fn prepared(&self, spec: &QuerySpec) -> Result<(String, Split), WireError> {
        let key = split_key(spec);
        if let Some(hit) = self.splits_lock().get(&key) {
            return Ok(hit);
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
        // The generated dataset is dropped here: the split is its only
        // copy the engine keeps.
        let (name, split) = {
            let dataset = generate(&dspec, spec.seed);
            let split = stratified_three_way(&dataset, spec.seed);
            (dataset.name, split)
        };
        let artifacts = self.artifacts.hold(&name, split_fingerprint(&split));
        let entry = Prepared {
            bytes: split_bytes(&split) + artifacts.bytes(),
            artifacts,
            name,
            split,
            used: 0,
        };
        let (cached, _dropped) = self.splits_lock().insert(key, entry);
        Ok(cached)
    }

    /// Executes a validated query under the given effective budget, with
    /// no expiry: [`Engine::run_until`] for callers without a deadline.
    /// Panics (including `inject_panic`'s) unwind into the caller.
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
        self.run_until(spec, search_time, max_evals, None, false)
            .unwrap_or_else(|stop| unreachable!("a run with no expiry stopped: {stop:?}"))
    }

    /// Runs a validated query on the calling thread until `expires`: the
    /// answer, else why it stopped. A run stops at its first evaluation
    /// past `expires`, so it ends at most one step late: the evaluation,
    /// ranking compute or test confirmation under way when `expires`
    /// passed.
    ///
    /// A `warm_only` run (which needs an expiry) answers from the caches
    /// alone: when the split is cached and every step the query takes is
    /// served by its memo, fit store, rankings and bins, else it stops
    /// [`CellStop::Cold`] having fitted, ranked and binned nothing and
    /// changed no cache; the hits and memo misses it met stay counted.
    /// Any other run prepares its split and then charges it again for what
    /// it may have added, also when its deadline stopped it. Results have
    /// the same bits either way.
    pub fn run_until(
        &self,
        spec: &QuerySpec,
        search_time: Duration,
        max_evals: usize,
        expires: Option<Instant>,
        warm_only: bool,
    ) -> Result<Result<QueryResult, WireError>, CellStop> {
        let query = match Query::parse(spec, search_time, max_evals) {
            Ok(query) => query,
            Err(wire) => return Ok(Err(wire)),
        };
        let (dataset, split) = if warm_only {
            self.splits_lock().get(&split_key(spec)).ok_or(CellStop::Cold)?
        } else {
            match self.prepared(spec) {
                Ok(prepared) => prepared,
                Err(wire) => return Ok(Err(wire)),
            }
        };
        let answer = catch_stop(|| self.search(&query, dataset, &split, expires, warm_only));
        if !warm_only {
            let _evicted = self.splits_lock().recharge(&split_key(spec));
        }
        answer.map(Ok)
    }

    /// Runs a parsed query on its split, stopping at `expires` and, when
    /// `warm_only`, at a step that computes.
    fn search(
        &self,
        query: &Query<'_>,
        dataset: String,
        split: &Split,
        expires: Option<Instant>,
        warm_only: bool,
    ) -> QueryResult {
        let spec = query.spec;
        let scenario = MlScenario {
            dataset,
            model: query.model,
            hpo: spec.hpo,
            constraints: query.constraints.clone(),
            utility_f1: false,
            seed: spec.seed,
        };
        let mut settings = self.base_settings.clone();
        settings.max_evals = query.max_evals;

        let ctx = ScenarioContext::new(&scenario, split, &settings)
            .with_artifacts(Arc::clone(&self.artifacts))
            .with_executor(Arc::clone(&self.exec));
        let ctx = match expires {
            Some(expires) if warm_only => ctx.warm_only(expires),
            Some(expires) => ctx.with_deadline(expires),
            None => ctx,
        };
        let out = run_dfs_in(ctx, query.strategy);
        let perf = out.perf;
        QueryResult {
            req_id: spec.req_id,
            strategy: out.strategy.name(),
            success: out.success,
            subset: out.subset.unwrap_or_default().iter().map(|&i| i as u64).collect(),
            val_distance: out.val_distance,
            test_distance: out.test_distance,
            evaluations: out.evaluations as u64,
            elapsed_ms: query.started.elapsed().as_millis() as u64,
            model_fits: perf.model_fits,
            ranking_computes: perf.ranking_computes,
            ranking_hits: perf.ranking_hits,
        }
    }
}

/// A query's parsed strategy, model and constraints, and its effective
/// evaluation cap.
struct Query<'s> {
    spec: &'s QuerySpec,
    /// When the engine took the query up: `elapsed_ms` counts from here.
    started: Instant,
    strategy: StrategyId,
    model: ModelKind,
    constraints: ConstraintSet,
    max_evals: usize,
}

impl<'s> Query<'s> {
    fn parse(
        spec: &'s QuerySpec,
        search_time: Duration,
        max_evals: usize,
    ) -> Result<Self, WireError> {
        let started = Instant::now();
        let malformed = |msg: String| WireError::new(spec.req_id, ErrorCode::MalformedQuery, msg);
        let strategy = parse_strategy(&spec.strategy).map_err(&malformed)?;
        let model = parse_model(&spec.model).map_err(&malformed)?;
        let constraints = ConstraintSet {
            min_f1: spec.min_f1,
            max_search_time: search_time,
            max_feature_frac: spec.max_feature_frac,
            min_eo: spec.min_fairness,
            min_safety: spec.min_safety,
            privacy_epsilon: spec.privacy_epsilon,
        };
        constraints.validate().map_err(|e| malformed(format!("invalid constraints: {e}")))?;
        Ok(Query { spec, started, strategy, model, constraints, max_evals })
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
        let (_, a) = e.prepared(&fast_spec(1)).expect("prepare");
        let (_, b) = e.prepared(&fast_spec(2)).expect("prepare");
        for (pa, pb) in [(&a.train, &b.train), (&a.val, &b.val), (&a.test, &b.test)] {
            assert!(Arc::ptr_eq(pa, pb), "same (dataset, rows, seed) must hit the cache");
        }
        let mut other = fast_spec(3);
        other.seed = 999;
        let (_, c) = e.prepared(&other).expect("prepare");
        assert!(!Arc::ptr_eq(&a.train, &c.train));
    }

    /// An entry is charged its split and its artifacts: a query that fills
    /// its memo and fit store raises the charge, so does one its deadline
    /// stopped, and evicting to make room keeps the total within
    /// max(budget, the largest entry).
    #[test]
    fn a_query_charges_its_split_for_the_artifacts_it_adds() {
        let spec = |req_id: u64, seed: u64| {
            let mut s = fast_spec(req_id);
            s.strategy = "sfs".into();
            s.seed = seed;
            s
        };
        let charge = |engine: &Engine, seed: u64| {
            engine.splits_lock().entries[&("compas".to_string(), 120, seed)].bytes
        };
        let engine = Engine::new(1);
        let (_, split) = engine.prepared(&spec(0, 21)).expect("prepare");
        let fresh = charge(&engine, 21);
        assert_eq!(fresh, split_bytes(&split), "a fresh entry holds no artifacts");
        engine.run(&spec(1, 21), Duration::from_secs(600), 12, false).expect("run");
        assert!(engine.memo_counts().2 > 0, "the query filled the memo");
        let filled = charge(&engine, 21);
        assert!(filled > fresh, "charge {filled} did not grow from {fresh}");
        assert_eq!(engine.cache_counts().1 as usize, filled);
        // Repeats, warm or on a worker, add nothing to charge.
        let warm = run_warm(&engine, &spec(2, 21), Duration::from_secs(600), 12);
        assert!(matches!(warm, Ok(Ok(_))), "{warm:?}");
        engine.run(&spec(3, 21), Duration::from_secs(600), 12, false).expect("run");
        assert_eq!(charge(&engine, 21), filled);
        assert_eq!(engine.cache_counts().1 as usize, filled);

        // A run past its expiry stops at its first evaluation, after its
        // strategy computed its ranking, and is charged for the ranking.
        let mut late = spec(4, 24);
        late.strategy = "variance".into();
        let expired = Some(Instant::now());
        let stopped = engine.run_until(&late, Duration::from_secs(600), 12, expired, false);
        assert_eq!(stopped, Err(CellStop::PastDeadline));
        assert_eq!(engine.ranking_counts().0, 1, "the stopped run computed its ranking");
        let cache = engine.splits_lock();
        let entry = &cache.entries[&("compas".to_string(), 120, 24)];
        assert!(entry.artifacts.bytes() > 0);
        assert_eq!(entry.bytes, split_bytes(&entry.split) + entry.artifacts.bytes());
        assert_eq!(cache.bytes, filled + entry.bytes);
        drop(cache);

        // A budget that holds one filled entry and not two.
        let engine = Engine::with_cache_bytes(1, filled + filled / 2);
        for (i, seed) in [21, 22, 23].into_iter().enumerate() {
            engine.run(&spec(i as u64, seed), Duration::from_secs(600), 12, false).expect("run");
            let cache = engine.splits_lock();
            let largest = cache.entries.values().map(|e| e.bytes).max().unwrap_or(0);
            assert_eq!(cache.bytes, cache.entries.values().map(|e| e.bytes).sum::<usize>());
            assert!(cache.bytes <= cache.budget.max(largest), "seed {seed}: {}", cache.bytes);
        }
        assert_eq!(engine.cache_counts().2, 2, "each new seed evicted the last one");
    }

    /// The bounded-cache gate: an engine with room for two small splits
    /// serves shared and fresh seeds, and one split larger than the whole
    /// budget. Its charge stays exact and within max(budget, largest held
    /// split), every answer equals a fresh unbounded engine's, and a spec
    /// asked again after its split was evicted answers the same bits.
    #[test]
    fn a_tiny_cache_evicts_within_budget_and_answers_like_an_unbounded_one() {
        let spec = |req_id: u64, seed: u64, rows: u64| {
            let mut s = fast_spec(req_id);
            s.strategy = ["sfs", "rfe", "variance"][req_id as usize % 3].into();
            s.seed = seed;
            s.rows = Some(rows);
            s
        };
        let run = |engine: &Engine, q: &QuerySpec| {
            engine.run(q, Duration::from_secs(600), 12, false).expect("run").fingerprint()
        };
        let small = split_bytes(&Engine::new(1).prepared(&spec(0, 13, 120)).expect("prepare").1);
        let budget = 2 * small + small / 2;
        let engine = Engine::with_cache_bytes(1, budget);
        let asks = [(13, 120), (14, 120), (13, 120), (15, 120), (13, 400), (16, 120), (14, 120)];
        let mut first_answer = None;
        for (i, &(seed, rows)) in asks.iter().enumerate() {
            let q = spec(i as u64, seed, rows);
            let answer = run(&engine, &q);
            assert_eq!(answer, run(&Engine::new(1), &q), "ask {i}");
            first_answer.get_or_insert(answer);
            let cache = engine.splits_lock();
            let largest = cache.entries.values().map(|e| e.bytes).max().unwrap_or(0);
            assert_eq!(cache.bytes, cache.entries.values().map(|e| e.bytes).sum::<usize>());
            assert!(cache.bytes <= budget.max(largest), "ask {i}: {} > {budget}", cache.bytes);
        }
        let key = ("compas".to_string(), 120, 13);
        assert!(!engine.splits_lock().entries.contains_key(&key), "seed 13 was evicted");
        let (_, _, evictions) = engine.cache_counts();
        assert_eq!(evictions, 4);
        assert_eq!(run(&engine, &spec(0, 13, 120)), first_answer.expect("asked"));
        assert_eq!(engine.cache_counts().2, evictions + 1);
    }

    /// The storm's strategies and models, with and without Min Safety,
    /// plus one HPO and one DP query, all on one split.
    fn warm_specs() -> Vec<QuerySpec> {
        let mut specs = Vec::new();
        for strategy in ["sfs", "sbs", "rfe", "tpe", "nsga2", "variance", "mim", "auto"] {
            for model in ["lr", "nb", "dt"] {
                for min_safety in [None, Some(0.8)] {
                    let mut s = fast_spec(specs.len() as u64);
                    s.strategy = strategy.into();
                    s.model = model.into();
                    s.min_f1 = 0.9;
                    s.min_safety = min_safety;
                    specs.push(s);
                }
            }
        }
        let mut hpo = fast_spec(specs.len() as u64);
        hpo.strategy = "sfs".into();
        hpo.model = "dt".into();
        hpo.hpo = true;
        specs.push(hpo);
        let mut dp = fast_spec(specs.len() as u64);
        dp.strategy = "sfs".into();
        dp.model = "lr".into();
        dp.privacy_epsilon = Some(5.0);
        specs.push(dp);
        specs
    }

    /// A result with its timing and request id blanked.
    fn untimed(mut r: QueryResult) -> QueryResult {
        r.req_id = 0;
        r.elapsed_ms = 0;
        r
    }

    /// A warm-only run that expires in 600 s.
    fn run_warm(
        engine: &Engine,
        spec: &QuerySpec,
        search_time: Duration,
        max_evals: usize,
    ) -> Result<Result<QueryResult, WireError>, CellStop> {
        let far = Instant::now() + Duration::from_secs(600);
        engine.run_until(spec, search_time, max_evals, Some(far), true)
    }

    /// A warm attempt answers a repeated query like a worker's run does,
    /// and one that would compute stops before it has: a fresh engine
    /// prepares no split, and a held split with a cold memo gets no
    /// ranking, bins, model or memo entry.
    #[test]
    fn a_warm_attempt_answers_like_a_worker_and_stops_before_computing() {
        let budget = Duration::from_secs(600);
        for threads in [1, 2] {
            let engine = Engine::new(threads);
            let spec = warm_specs().remove(0);
            assert_eq!(run_warm(&engine, &spec, budget, 12), Err(CellStop::Cold));
            assert_eq!(engine.cache_counts(), (0, 0, 0), "a warm attempt prepared a split");
            let (_, split) = engine.prepared(&spec).expect("prepare");
            let key = split_key(&spec);
            for spec in warm_specs() {
                assert_eq!(run_warm(&engine, &spec, budget, 12), Err(CellStop::Cold));
            }
            assert_eq!(engine.splits_lock().entries[&key].artifacts.bytes(), 0);
            assert_eq!(engine.ranking_counts().0, 0, "a warm attempt computed a ranking");
            assert_eq!(engine.memo_counts().2, 0, "a warm attempt inserted a memo entry");
            assert_eq!(engine.cache_counts().1 as usize, split_bytes(&split));

            for spec in warm_specs() {
                let what = format!(
                    "{} {} {:?} at width {threads}",
                    spec.strategy, spec.model, spec.min_safety
                );
                let cold = engine.run(&spec, budget, 12, false).expect("cold run");
                let warm = run_warm(&engine, &spec, budget, 12);
                let Ok(Ok(warm)) = warm else { panic!("{what}: not answered warm: {warm:?}") };
                let worker = engine.run(&spec, budget, 12, false).expect("worker run");
                assert_eq!(untimed(warm.clone()), untimed(worker), "{what}");
                assert_eq!(warm.fingerprint(), cold.fingerprint(), "{what}");
                assert_eq!(warm.model_fits, 0, "{what}");
            }
        }
    }

    /// An `auto` query runs the switching schedule on the engine's shared
    /// cache: on a split other queries have warmed it reports real
    /// distances and its own fits, and answers like `run_dfs` on a fresh
    /// cache under the same binding evaluation cap.
    #[test]
    fn an_auto_query_on_a_warmed_cache_answers_like_a_fresh_run() {
        let (budget, max_evals) = (Duration::from_secs(600), 150);
        let engine = Engine::new(2);
        for spec in warm_specs().into_iter().filter(|s| s.strategy != "auto") {
            engine.run(&spec, budget, 12, false).expect("warm-up run");
        }
        let mut spec = fast_spec(99);
        spec.strategy = "auto".into();
        spec.min_f1 = 1.0;
        let got = engine.run(&spec, budget, max_evals, false).expect("auto run");
        assert_eq!(got.strategy, "auto");
        assert!(got.val_distance.is_finite() && got.test_distance.is_finite(), "{got:?}");
        assert!(got.model_fits > 0, "{got:?}");
        // No warm-up query ranks by FCBF: the schedule reached TPE(FCBF).
        assert_eq!(got.ranking_computes, 1, "{got:?}");

        let query = Query::parse(&spec, budget, max_evals).expect("parse");
        let (dataset, split) = Engine::new(1).prepared(&spec).expect("prepare");
        let scenario = MlScenario {
            dataset,
            model: query.model,
            hpo: spec.hpo,
            constraints: query.constraints,
            utility_f1: false,
            seed: spec.seed,
        };
        let mut settings = ScenarioSettings::default_bench();
        settings.max_evals = max_evals;
        let fresh = run_dfs(&scenario, &split, &settings, StrategyId::Switching);
        assert_eq!(got.evaluations, max_evals as u64, "the evaluation cap binds");
        assert_eq!(got.evaluations, fresh.evaluations as u64);
        assert_eq!(got.success, fresh.success);
        let subset: Vec<u64> = fresh.subset.unwrap_or_default().iter().map(|&i| i as u64).collect();
        assert_eq!(got.subset, subset);
        assert_eq!(got.val_distance.to_bits(), fresh.val_distance.to_bits());
        assert_eq!(got.test_distance.to_bits(), fresh.test_distance.to_bits());
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
