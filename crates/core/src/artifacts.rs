//! The shared evaluation cache.
//!
//! A benchmark row runs all strategy arms on the *same* scenario: same
//! dataset, same split. Seven of those arms are TPE(ranking) strategies,
//! and each used to recompute its feature ranking from the identical
//! training matrix — the heavyweight rankings (ReliefF, MCFS) dominating
//! the row's wall-clock — and every arm re-measures subsets another arm
//! already measured. [`ArtifactCache`] holds the four layers that outlive
//! one strategy run: rankings per `(dataset, split, kind)`, histogram bins
//! per `(dataset, split)`, exact subset measurements per memo key, and
//! trained models per `FitKey`. Every `ScenarioContext` holds one: a
//! private cache by default, or the run's (or the daemon's) shared one.
//!
//! **One cell per key.** Rankings and bins own a compute-once cell per key;
//! the map lock is held only to find or create that cell, never during a
//! compute. Requests for one key wait for its single compute, while
//! requests for different keys — another dataset's MCFS, another kind on
//! the same split — compute side by side. Memo entries and stored models
//! are not compute-once: two workers may race to measure (or fit) one
//! subset, and both produce the same bits.
//!
//! **Models live while their split has work.** A model is kept only while
//! its split is held: `ArtifactCache::hold` returns a `SplitHold`, and
//! the split's models are evicted when its last hold drops. Every
//! `ScenarioContext` holds its split; the benchmark runner holds each
//! dataset's split until it records the dataset's last row.
//!
//! **Bit-identity.** Sharing is only sound if a shared and a private cache
//! produce the same values. The stochastic rankings take a seed, so the
//! seed must not depend on *which arm* asks first — [`ranking_seed`]
//! therefore derives it from the dataset name and the ranking kind alone.
//! The warm-up and the on-demand compute in `ScenarioContext::ranking` use
//! this same seed, so sharing the cache or warming it can never change a
//! strategy's outcome, only how often and when the ranking is computed.

use dfs_constraints::Evaluation;
use dfs_data::split::Split;
use dfs_linalg::rng::{derive_seed, Fnv1a};
use dfs_models::{BinSet, TrainedModel};
use dfs_rankings::{Ranking, RankingKind};
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

/// Locks `m`, recovering from poisoning: every critical section here is a
/// single map operation, which a panic cannot leave half-done.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A map of compute-once cells with compute/hit counters.
struct OnceCells<K, V> {
    cells: Mutex<HashMap<K, Arc<OnceLock<Arc<V>>>>>,
    computes: AtomicU64,
    hits: AtomicU64,
}

impl<K, V> Default for OnceCells<K, V> {
    fn default() -> Self {
        Self { cells: Mutex::default(), computes: AtomicU64::new(0), hits: AtomicU64::new(0) }
    }
}

impl<K: Eq + Hash, V> OnceCells<K, V> {
    /// `key`'s value, computed by `compute` on the first request; `true`
    /// on a hit, which includes waiting out another thread's compute. The
    /// map lock is released before the compute starts. A compute that
    /// panics leaves the cell empty for the next request.
    fn get_or_compute(&self, key: K, compute: impl FnOnce() -> V) -> (Arc<V>, bool) {
        let cell = Arc::clone(lock(&self.cells).entry(key).or_default());
        let mut computed = false;
        let value = Arc::clone(cell.get_or_init(|| {
            computed = true;
            Arc::new(compute())
        }));
        let counter = if computed { &self.computes } else { &self.hits };
        counter.fetch_add(1, Ordering::Relaxed);
        (value, !computed)
    }

    fn is_filled(&self, key: &K) -> bool {
        lock(&self.cells).get(key).is_some_and(|cell| cell.get().is_some())
    }

    fn counts(&self) -> (u64, u64) {
        (self.computes.load(Ordering::Relaxed), self.hits.load(Ordering::Relaxed))
    }
}

/// Thread-safe cache of expensive per-scenario artifacts, shared across
/// the arms of a benchmark row (and across rows on the same dataset).
#[derive(Default)]
pub struct ArtifactCache {
    rankings: OnceCells<(String, u64, RankingKind), Ranking>,
    /// Histogram bin sets for the binned tree kernel, keyed like rankings
    /// minus the kind: bins depend only on the training matrix, so every
    /// arm, wrapper step, and server request on the same split shares one
    /// quantization.
    bins: OnceCells<(String, u64), BinSet>,
    /// The subset-evaluation memo: exact measurements by [`EvalKey`].
    memo: Mutex<HashMap<EvalKey, Evaluation>>,
    memo_hits: AtomicU64,
    memo_misses: AtomicU64,
    memo_inserts: AtomicU64,
    /// The fit store: trained models by [`FitKey`], kept while their split
    /// is held. Shared with every [`SplitHold`], whose drop evicts.
    fits: Arc<Mutex<FitStore>>,
    fit_hits: AtomicU64,
    fit_misses: AtomicU64,
    fit_inserts: AtomicU64,
}

/// The models of the held splits.
#[derive(Default)]
struct FitStore {
    /// Live [`SplitHold`]s per `(dataset, split_key)`.
    holds: HashMap<(String, u64), usize>,
    models: HashMap<FitKey, Arc<TrainedModel>>,
}

/// Keeps a split's models in the fit store: they are evicted when the
/// split's last hold drops (see [`ArtifactCache::hold`]).
#[must_use = "a split's models are evicted as soon as its last hold drops"]
pub(crate) struct SplitHold {
    fits: Arc<Mutex<FitStore>>,
    split: (String, u64),
}

impl Drop for SplitHold {
    fn drop(&mut self) {
        let mut store = lock(&self.fits);
        let Some(count) = store.holds.get_mut(&self.split) else { return };
        *count -= 1;
        if *count == 0 {
            store.holds.remove(&self.split);
            let (dataset, split_key) = (&self.split.0, self.split.1);
            store.models.retain(|k, _| k.split_key != split_key || k.dataset != *dataset);
        }
    }
}

impl ArtifactCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the ranking for `(dataset, split_key, kind)`, computing it
    /// via `compute` on the first request. The second element is `true`
    /// on a cache hit. Concurrent requests for the same key block on the
    /// first computation instead of racing to duplicate it (exactly-once
    /// semantics); requests for other keys do not wait for it.
    pub fn ranking(
        &self,
        dataset: &str,
        split_key: u64,
        kind: RankingKind,
        compute: impl FnOnce() -> Ranking,
    ) -> (Arc<Ranking>, bool) {
        self.rankings.get_or_compute((dataset.to_string(), split_key, kind), compute)
    }

    /// `(computes, hits)` so far.
    pub fn counts(&self) -> (u64, u64) {
        self.rankings.counts()
    }

    /// Returns the histogram [`BinSet`] for `(dataset, split_key)`,
    /// computing it via `compute` on the first request. The second element
    /// is `true` on a cache hit.
    ///
    /// Like [`ArtifactCache::ranking`], each key computes exactly once:
    /// quantization sorts every training column once, and concurrent arms
    /// should wait for that one derivation rather than duplicate it. Bins
    /// are pure functions of the training matrix — neither the scenario
    /// seed nor the model settings enter — which is what makes cross-arm
    /// sharing sound.
    pub fn bins(
        &self,
        dataset: &str,
        split_key: u64,
        compute: impl FnOnce() -> BinSet,
    ) -> (Arc<BinSet>, bool) {
        self.bins.get_or_compute((dataset.to_string(), split_key), compute)
    }

    /// `(bin computes, bin hits)` so far.
    pub fn bin_counts(&self) -> (u64, u64) {
        self.bins.counts()
    }

    /// Looks up a subset measurement, counting the probe as a hit or miss.
    ///
    /// Every strategy arm of a benchmark row — and, via the server's warm
    /// engine, every request on the same dataset — measures many of the
    /// same subsets: SFS and SFFS walk identical prefixes, SBS starts from
    /// the full set the Original arm also measures, NSGA-II re-proposes
    /// duplicate genomes, and every arm's winner is confirmed on the test
    /// split. Because a measurement is a pure function of `(scenario
    /// settings, split, subset)` — all stochastic seeds derive from the
    /// key, never from call order — the resulting [`Evaluation`] can be
    /// shared wholesale.
    ///
    /// Unlike [`ArtifactCache::ranking`], a key is **not** computed exactly
    /// once: measurements are orders of magnitude cheaper than ReliefF/
    /// MCFS rankings and often run inside parallel batch regions, where
    /// blocking every worker on one in-flight measurement would serialize
    /// the batch. Two workers may therefore race to measure the same
    /// subset; both produce bit-identical values, so the duplicate work is
    /// bounded and harmless.
    pub(crate) fn memo_lookup(&self, key: &EvalKey) -> Option<Evaluation> {
        let found = lock(&self.memo).get(key).copied();
        match found {
            Some(_) => {
                self.memo_hits.fetch_add(1, Ordering::Relaxed);
                dfs_obs::counter("memo.hit", 1);
            }
            None => {
                self.memo_misses.fetch_add(1, Ordering::Relaxed);
                dfs_obs::counter("memo.miss", 1);
            }
        }
        found
    }

    /// Inserts a freshly measured evaluation. Only exact measurements are
    /// admitted — never lower-bounded partial ones (see `ScenarioContext`).
    /// Idempotent: a concurrent duplicate measurement produced identical
    /// bits, so first-write-wins changes nothing.
    pub(crate) fn memo_insert(&self, key: EvalKey, eval: Evaluation) {
        let mut memo = lock(&self.memo);
        if let std::collections::hash_map::Entry::Vacant(slot) = memo.entry(key) {
            slot.insert(eval);
            self.memo_inserts.fetch_add(1, Ordering::Relaxed);
            dfs_obs::counter("memo.insert", 1);
        }
    }

    /// `(memo hits, misses, inserts)` so far.
    pub fn memo_counts(&self) -> (u64, u64, u64) {
        (
            self.memo_hits.load(Ordering::Relaxed),
            self.memo_misses.load(Ordering::Relaxed),
            self.memo_inserts.load(Ordering::Relaxed),
        )
    }

    /// Holds `(dataset, split_key)` in the fit store until the returned
    /// [`SplitHold`] drops. Models are stored only for held splits, and a
    /// split's models are evicted when its last hold drops: a store that
    /// kept every model of a run would grow with the run.
    pub(crate) fn hold(&self, dataset: &str, split_key: u64) -> SplitHold {
        let split = (dataset.to_string(), split_key);
        *lock(&self.fits).holds.entry(split.clone()).or_default() += 1;
        SplitHold { fits: Arc::clone(&self.fits), split }
    }

    /// Returns the model stored under `key`, else fits it via `fit` and
    /// stores it while its split is held (a model of an unheld split is not
    /// stored, since no hold would ever evict it). Counts a hit or a miss.
    ///
    /// A non-DP fit is a pure function of its [`FitKey`]: the split, the
    /// train-row cap, the model, the HPO flag and the subset. The scenario
    /// seed, the thresholds, the EO and Safety terms and the attack only
    /// touch scoring, so every scenario and arm on a split shares one model
    /// per key. Like the memo, a key is not computed exactly once: the
    /// store is not locked during `fit`, racing workers fit identical
    /// bits, and the first insert wins.
    pub(crate) fn model(
        &self,
        key: FitKey,
        fit: impl FnOnce() -> TrainedModel,
    ) -> Arc<TrainedModel> {
        let found = lock(&self.fits).models.get(&key).cloned();
        if let Some(model) = found {
            self.fit_hits.fetch_add(1, Ordering::Relaxed);
            dfs_obs::counter("fit.reused", 1);
            return model;
        }
        self.fit_misses.fetch_add(1, Ordering::Relaxed);
        let model = Arc::new(fit());
        let mut store = lock(&self.fits);
        if store.holds.contains_key(&(key.dataset.clone(), key.split_key)) {
            if let std::collections::hash_map::Entry::Vacant(slot) = store.models.entry(key) {
                slot.insert(Arc::clone(&model));
                self.fit_inserts.fetch_add(1, Ordering::Relaxed);
            }
        }
        model
    }

    /// `(fit store hits, misses, inserts)` so far.
    #[cfg(test)]
    pub(crate) fn fit_counts(&self) -> (u64, u64, u64) {
        (
            self.fit_hits.load(Ordering::Relaxed),
            self.fit_misses.load(Ordering::Relaxed),
            self.fit_inserts.load(Ordering::Relaxed),
        )
    }

    /// `(held splits, stored models)` right now.
    #[cfg(test)]
    pub(crate) fn fit_store_size(&self) -> (usize, usize) {
        let store = lock(&self.fits);
        (store.holds.len(), store.models.len())
    }

    /// Precomputes the rankings of `kinds` for every `(dataset, split)` in
    /// `splits` through a shared [`Executor`], so the benchmark's ranking
    /// arms all hit the cache instead of serializing on the first request.
    ///
    /// The work is one flat queue of `(dataset, kind)` jobs, one per cell
    /// still empty, drawn by every thread of the pool. Jobs are queued
    /// heaviest kind first ([`RankingKind::BY_COST`]), so the queue ends in
    /// short jobs and no thread idles behind another's last MCFS. Each job
    /// goes through [`ArtifactCache::ranking`] with the same
    /// [`ranking_seed`] as an on-demand request, so warming changes only
    /// *when* a ranking is computed, never its value; it counts one compute
    /// per job.
    ///
    /// [`Executor`]: dfs_exec::Executor
    pub fn warm_rankings(
        &self,
        splits: &[(&str, &Split)],
        kinds: &[RankingKind],
        exec: &dfs_exec::Executor,
    ) {
        let split_keys: Vec<u64> = splits.iter().map(|(_, split)| split_fingerprint(split)).collect();
        let mut jobs: Vec<(usize, RankingKind)> = Vec::new();
        for kind in RankingKind::BY_COST.into_iter().filter(|k| kinds.contains(k)) {
            for (d, (dataset, _)) in splits.iter().enumerate() {
                if !self.rankings.is_filled(&(dataset.to_string(), split_keys[d], kind)) {
                    jobs.push((d, kind));
                }
            }
        }
        let traces = exec.par_map_indexed(&jobs, |_, &(d, kind)| {
            let (dataset, split) = splits[d];
            // Each job records into its own scoped collector (a no-op when
            // tracing is off); absorption below happens in queue order,
            // keeping the trace deterministic at any thread count.
            dfs_obs::scoped(|| {
                self.ranking(dataset, split_keys[d], kind, || {
                    let _g = dfs_obs::span(format!("ranking.compute.{}", kind.name()));
                    kind.compute(&split.train.x, &split.train.y, ranking_seed(dataset, kind))
                });
            })
            .1
        });
        for trace in traces.into_iter().flatten() {
            dfs_obs::absorb(trace);
        }
    }
}

/// Memo key for one subset measurement (see [`ArtifactCache::memo_lookup`]).
///
/// The `settings_key` folds in everything *besides* the subset that can
/// change the measured metric values: model kind, HPO flag, scenario seed,
/// privacy ε, which metrics are measured, the attack configuration, and the
/// effective train-row cap.
/// Constraint *thresholds* are deliberately absent — the measurement is
/// threshold-free (thresholds only enter the Eq. 1 distance computed from
/// it), so portfolio rows that differ only in thresholds share entries.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct EvalKey {
    /// Dataset name.
    pub dataset: String,
    /// [`split_fingerprint`] of the split measured on.
    pub split_key: u64,
    /// Fingerprint of all measurement-relevant scenario settings.
    pub settings_key: u64,
    /// `true` for confirm-on-test measurements, `false` for validation.
    pub eval_on_test: bool,
    /// The feature subset as a fixed-width bitset.
    pub subset: Box<[u64]>,
}

/// Key of one trained model in the fit store (see
/// [`ArtifactCache::model`]). DP fits never enter the store: their
/// noise seed derives from the scenario seed, and it and ε would have to
/// enter the key.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct FitKey {
    /// Dataset name.
    pub dataset: String,
    /// [`split_fingerprint`] of the split trained on.
    pub split_key: u64,
    /// `fit_fingerprint` of the fit: model, HPO flag and train-row cap.
    pub fit_key: u64,
    /// The feature subset as a fixed-width bitset.
    pub subset: Box<[u64]>,
}

/// Packs a sorted-or-not index subset into the bitset an [`EvalKey`] uses.
pub(crate) fn subset_bits(subset: &[usize], n_features: usize) -> Box<[u64]> {
    let mut bits = vec![0u64; n_features.div_ceil(64)];
    for &f in subset {
        if f < n_features {
            bits[f / 64] |= 1u64 << (f % 64);
        }
    }
    bits.into_boxed_slice()
}

/// The deterministic seed for a ranking computation.
///
/// Scoped to `(dataset, kind)` only — independent of the scenario seed and
/// of which cache computes it — so every arm of a row, shared cache or
/// private, derives the identical ranking (see the module docs on
/// bit-identity).
pub fn ranking_seed(dataset: &str, kind: RankingKind) -> u64 {
    let stream = RankingKind::ALL.iter().position(|k| *k == kind).unwrap_or(0) as u64;
    let mut h = Fnv1a::new();
    h.bytes(dataset.as_bytes());
    derive_seed(h.finish(), 0x7A4C ^ stream)
}

/// A cheap structural fingerprint of a split, keying cached artifacts so
/// two scenarios share them only when their data actually matches (same
/// dataset name *and* same split seed produce the same fingerprint; a
/// different split of the same dataset does not).
pub fn split_fingerprint(split: &Split) -> u64 {
    let mut h = Fnv1a::new();
    h.mix(split.train.n_rows() as u64);
    h.mix(split.n_features() as u64);
    for &label in &split.train.y {
        h.mix(label as u64);
    }
    // A few raw values guard against two splits with identical label
    // sequences but different feature data.
    let probe = split.train.n_rows().min(4);
    for i in 0..probe {
        for j in 0..split.n_features() {
            h.mix(split.train.x[(i, j)].to_bits());
        }
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dfs_data::split::stratified_three_way;
    use dfs_data::synthetic::{generate, tiny_spec};

    #[test]
    fn ranking_is_computed_once_and_then_served_from_cache() {
        let cache = ArtifactCache::new();
        let mut computes = 0;
        let mk = |computes: &mut usize| {
            *computes += 1;
            Ranking::from_scores(vec![3.0, 1.0, 2.0])
        };
        let (a, hit_a) = cache.ranking("ds", 7, RankingKind::Chi2, || mk(&mut computes));
        let (b, hit_b) = cache.ranking("ds", 7, RankingKind::Chi2, || mk(&mut computes));
        assert!(!hit_a && hit_b);
        assert_eq!(computes, 1);
        assert_eq!(*a, *b);
        assert_eq!(cache.counts(), (1, 1));
    }

    #[test]
    fn distinct_keys_do_not_collide() {
        let cache = ArtifactCache::new();
        let mk = || Ranking::from_scores(vec![1.0, 2.0]);
        assert!(!cache.ranking("ds", 1, RankingKind::Chi2, mk).1);
        // Different kind, split, or dataset each miss.
        assert!(!cache.ranking("ds", 1, RankingKind::Mim, mk).1);
        assert!(!cache.ranking("ds", 2, RankingKind::Chi2, mk).1);
        assert!(!cache.ranking("other", 1, RankingKind::Chi2, mk).1);
        assert_eq!(cache.counts(), (4, 0));
    }

    #[test]
    fn bins_are_computed_once_per_split_and_shared() {
        let ds = generate(&tiny_spec(), 5);
        let split = stratified_three_way(&ds, 1);
        let split_key = split_fingerprint(&split);
        let cache = ArtifactCache::new();
        let (a, hit_a) = cache.bins(&ds.name, split_key, || BinSet::derive(&split.train.x));
        let (b, hit_b) =
            cache.bins(&ds.name, split_key, || panic!("cached bins must not recompute"));
        assert!(!hit_a && hit_b);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(a.n_features(), split.n_features());
        assert_eq!(a.n_rows(), split.train.n_rows());
        assert_eq!(cache.bin_counts(), (1, 1));
        // A different split key misses; ranking counters stay untouched.
        assert!(!cache.bins(&ds.name, split_key ^ 1, || BinSet::derive(&split.train.x)).1);
        assert_eq!(cache.bin_counts(), (2, 1));
        assert_eq!(cache.counts(), (0, 0));
    }

    #[test]
    fn ranking_seed_depends_on_dataset_and_kind_only() {
        assert_eq!(ranking_seed("a", RankingKind::Mcfs), ranking_seed("a", RankingKind::Mcfs));
        assert_ne!(ranking_seed("a", RankingKind::Mcfs), ranking_seed("b", RankingKind::Mcfs));
        assert_ne!(ranking_seed("a", RankingKind::Mcfs), ranking_seed("a", RankingKind::ReliefF));
    }

    #[test]
    fn warm_rankings_matches_on_demand_and_counts_once() {
        let ds_a = generate(&tiny_spec(), 5);
        let ds_b = generate(&tiny_spec(), 6);
        let (a, b) = (stratified_three_way(&ds_a, 1), stratified_three_way(&ds_b, 2));
        let splits = [("a", &a), ("b", &b)];
        let kinds = [RankingKind::Chi2, RankingKind::Mim, RankingKind::Variance, RankingKind::Mcfs];

        for threads in [1, 4] {
            let warmed = ArtifactCache::new();
            let exec = dfs_exec::Executor::new(threads);
            warmed.warm_rankings(&splits, &kinds, &exec);
            assert_eq!(warmed.counts(), (8, 0));
            // Re-warming is a no-op.
            warmed.warm_rankings(&splits, &kinds, &exec);
            assert_eq!(warmed.counts(), (8, 0));

            for (name, split) in splits {
                for kind in kinds {
                    let on_demand =
                        kind.compute(&split.train.x, &split.train.y, ranking_seed(name, kind));
                    let (cached, hit) = warmed.ranking(name, split_fingerprint(split), kind, || {
                        panic!("warmed kind must not recompute")
                    });
                    assert!(hit);
                    assert_eq!(*cached, on_demand);
                }
            }
        }
    }

    #[test]
    fn warm_rankings_fills_only_empty_cells() {
        let ds = generate(&tiny_spec(), 5);
        let split = stratified_three_way(&ds, 1);
        let cache = ArtifactCache::new();
        let (_, hit) = cache.ranking(&ds.name, split_fingerprint(&split), RankingKind::Chi2, || {
            Ranking::from_scores(vec![0.0; split.n_features()])
        });
        assert!(!hit);
        let kinds = [RankingKind::Chi2, RankingKind::Fisher];
        cache.warm_rankings(&[(&ds.name, &split)], &kinds, &dfs_exec::Executor::new(2));
        // Chi2 kept its on-demand value; only Fisher was computed.
        assert_eq!(cache.counts(), (2, 0));
        let (chi2, _) = cache.ranking(&ds.name, split_fingerprint(&split), RankingKind::Chi2, || {
            panic!("filled cell must not recompute")
        });
        assert!(chi2.scores.iter().all(|&s| s == 0.0));
    }

    /// While key A's compute is parked, key B computes and is looked up;
    /// a second request for A waits for A's single compute. The park is a
    /// channel the test releases, never a sleep. A cache that held its map
    /// lock across a compute would block B behind A, which the generous
    /// timeout turns into a failure instead of a hang.
    #[test]
    fn parked_compute_blocks_only_its_own_key() {
        use std::sync::mpsc::channel;
        use std::time::Duration;
        let cache = ArtifactCache::new();
        let (entered_tx, entered_rx) = channel::<()>();
        let (release_tx, release_rx) = channel::<()>();
        let (b_done_tx, b_done_rx) = channel();
        let kind = RankingKind::Mcfs;
        std::thread::scope(|scope| {
            let first_a = scope.spawn(|| {
                cache.ranking("a", 1, kind, move || {
                    let _ = entered_tx.send(());
                    let _ = release_rx.recv();
                    Ranking::from_scores(vec![1.0, 2.0])
                })
            });
            entered_rx.recv().expect("A's compute starts");
            let second_a =
                scope.spawn(|| cache.ranking("a", 1, kind, || panic!("A must compute once")));
            scope.spawn(|| {
                let computed = cache.ranking("b", 1, kind, || Ranking::from_scores(vec![3.0]));
                let looked_up = cache.ranking("b", 1, kind, || panic!("B is filled"));
                let _ = b_done_tx.send((computed.1, looked_up.1, looked_up.0.scores.clone()));
            });
            let b = b_done_rx.recv_timeout(Duration::from_secs(30));
            release_tx.send(()).expect("A's compute is parked");
            assert_eq!(b, Ok((false, true, vec![3.0])), "B waited for A's compute");
            for request in [first_a, second_a] {
                let Ok((ranking, _)) = request.join() else { panic!("request for A panicked") };
                assert_eq!(ranking.scores, vec![1.0, 2.0]);
            }
        });
        // A: 1 compute + 1 hit; B: 1 compute + 1 hit.
        assert_eq!(cache.counts(), (2, 2));
    }

    #[test]
    fn one_key_computes_once_under_contention() {
        let cache = ArtifactCache::new();
        let computes = AtomicU64::new(0);
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    let (r, _) = cache.ranking("ds", 3, RankingKind::ReliefF, || {
                        computes.fetch_add(1, Ordering::Relaxed);
                        Ranking::from_scores(vec![2.0, 1.0])
                    });
                    assert_eq!(r.order, vec![0, 1]);
                });
            }
        });
        assert_eq!(computes.load(Ordering::Relaxed), 1);
        assert_eq!(cache.counts(), (1, 7));
    }

    #[test]
    fn panicking_compute_leaves_the_cell_empty() {
        let cache = ArtifactCache::new();
        let failed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            cache.ranking("ds", 1, RankingKind::Mcfs, || panic!("injected compute failure"))
        }));
        assert!(failed.is_err());
        assert_eq!(cache.counts(), (0, 0));
        let (r, hit) = cache.ranking("ds", 1, RankingKind::Mcfs, || Ranking::from_scores(vec![1.0]));
        assert!(!hit);
        assert_eq!(r.scores, vec![1.0]);
        assert_eq!(cache.counts(), (1, 0));
    }

    fn sample_eval(f1: f64) -> Evaluation {
        Evaluation { f1, eo: Some(0.9), safety: None, n_selected: 3, n_total: 8 }
    }

    fn key(settings_key: u64, eval_on_test: bool, subset: &[usize]) -> EvalKey {
        EvalKey {
            dataset: "ds".into(),
            split_key: 7,
            settings_key,
            eval_on_test,
            subset: subset_bits(subset, 8),
        }
    }

    #[test]
    fn memo_round_trips_and_counts_hits_misses_inserts() {
        let cache = ArtifactCache::new();
        let k = key(1, false, &[0, 2, 5]);
        assert!(cache.memo_lookup(&k).is_none());
        cache.memo_insert(k.clone(), sample_eval(0.7));
        let hit = cache.memo_lookup(&k).expect("inserted entry");
        assert_eq!(hit.f1, 0.7);
        assert_eq!(hit.n_selected, 3);
        // Duplicate insert (a concurrent racer) keeps the first entry and
        // does not double-count.
        cache.memo_insert(k.clone(), sample_eval(0.9));
        assert_eq!(cache.memo_lookup(&k).map(|e| e.f1), Some(0.7));
        assert_eq!(cache.memo_counts(), (2, 1, 1));
        // The memo leaves the ranking and bin counters alone.
        assert_eq!((cache.counts(), cache.bin_counts()), ((0, 0), (0, 0)));
    }

    #[test]
    fn memo_keys_separate_settings_split_leg_and_subset() {
        let cache = ArtifactCache::new();
        cache.memo_insert(key(1, false, &[0, 1]), sample_eval(0.5));
        // A different settings fingerprint (e.g. a context rebuilt with a
        // different train-row cap) can never serve the old entry.
        assert!(cache.memo_lookup(&key(2, false, &[0, 1])).is_none());
        // Validation and test legs are distinct measurements.
        assert!(cache.memo_lookup(&key(1, true, &[0, 1])).is_none());
        // And of course a different subset misses.
        assert!(cache.memo_lookup(&key(1, false, &[0, 3])).is_none());
        assert!(cache.memo_lookup(&key(1, false, &[0, 1])).is_some());
    }

    fn fit_key(dataset: &str, split_key: u64, fit_key: u64, subset: &[usize]) -> FitKey {
        FitKey { dataset: dataset.into(), split_key, fit_key, subset: subset_bits(subset, 8) }
    }

    /// A split's models stay stored while any hold on it is alive and are
    /// evicted when its last hold drops; other splits keep theirs, and an
    /// unheld split stores nothing.
    #[test]
    fn a_splits_models_live_until_its_last_hold_drops() {
        use dfs_models::{ModelKind, ModelSpec};
        let ds = generate(&tiny_spec(), 5);
        let split = stratified_three_way(&ds, 1);
        let spec = ModelSpec::default_for(ModelKind::GaussianNb);
        let fit = || spec.fit(&split.train.x, &split.train.y);
        let stored = |cache: &ArtifactCache, key| {
            cache.model(key, || panic!("a stored model must not refit"))
        };
        let cache = ArtifactCache::new();
        cache.model(fit_key("a", 1, 9, &[0]), fit);
        assert_eq!(cache.fit_store_size(), (0, 0), "an unheld split stores nothing");

        let (first, second, other) = (cache.hold("a", 1), cache.hold("a", 1), cache.hold("b", 1));
        let model = cache.model(fit_key("a", 1, 9, &[0]), fit);
        cache.model(fit_key("a", 1, 9, &[1]), fit);
        cache.model(fit_key("b", 1, 9, &[0]), fit);
        assert_eq!(cache.fit_store_size(), (2, 3));
        // Another split key, fit key or subset misses; the unheld split
        // key stores nothing.
        for key in [fit_key("a", 2, 9, &[0]), fit_key("a", 1, 8, &[0]), fit_key("a", 1, 9, &[2])] {
            assert!(!Arc::ptr_eq(&cache.model(key, fit), &model));
        }
        assert_eq!(cache.fit_store_size(), (2, 5));

        drop(first);
        assert!(Arc::ptr_eq(&stored(&cache, fit_key("a", 1, 9, &[0])), &model), "still held");
        drop(second);
        assert_eq!(cache.fit_store_size(), (1, 1), "the last hold on `a` evicts its models");
        stored(&cache, fit_key("b", 1, 9, &[0]));
        assert!(!Arc::ptr_eq(&cache.model(fit_key("a", 1, 9, &[0]), fit), &model));
        assert_eq!(cache.fit_store_size(), (1, 1), "`a` is no longer held");
        drop(other);
        assert_eq!(cache.fit_store_size(), (0, 0));
        // Hits, misses, inserts.
        assert_eq!(cache.fit_counts(), (2, 8, 5));
        // The store leaves the other layers' counters alone.
        assert_eq!((cache.counts(), cache.bin_counts()), ((0, 0), (0, 0)));
        assert_eq!(cache.memo_counts(), (0, 0, 0));
    }

    #[test]
    fn subset_bits_is_order_insensitive_and_width_stable() {
        assert_eq!(subset_bits(&[0, 2, 5], 8), subset_bits(&[5, 0, 2], 8));
        assert_ne!(subset_bits(&[0, 2], 8), subset_bits(&[0, 3], 8));
        // 65 features span two words; feature 64 lands in the second.
        let wide = subset_bits(&[64], 65);
        assert_eq!(wide.len(), 2);
        assert_eq!(wide[0], 0);
        assert_eq!(wide[1], 1);
    }

    #[test]
    fn split_fingerprint_separates_different_splits() {
        let ds = generate(&tiny_spec(), 3);
        let s1 = stratified_three_way(&ds, 1);
        let s1_again = stratified_three_way(&ds, 1);
        let s2 = stratified_three_way(&ds, 2);
        assert_eq!(split_fingerprint(&s1), split_fingerprint(&s1_again));
        assert_ne!(split_fingerprint(&s1), split_fingerprint(&s2));
    }
}
