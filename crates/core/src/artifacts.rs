//! The shared evaluation cache.
//!
//! A benchmark row runs all strategy arms on the *same* scenario: same
//! dataset, same split. Seven of those arms are TPE(ranking) strategies,
//! and each used to recompute its feature ranking from the identical
//! training matrix — the heavyweight rankings (ReliefF, MCFS) dominating
//! the row's wall-clock — and every arm re-measures subsets another arm
//! already measured. [`ArtifactCache`] holds what outlives one strategy
//! run, as **one entry per split**, keyed `(dataset, split_fingerprint)`.
//! An entry holds the split's four layers: its rankings (one cell per
//! kind), its histogram bins, its exact subset measurements (the memo) and
//! its trained models (the fit store). Every `ScenarioContext` resolves its
//! split once into a [`SplitArtifacts`] handle on a private cache by
//! default, or on the run's (or the daemon's) shared one.
//!
//! **Compute-once cells.** Each ranking kind and the bins own a `OnceLock`
//! in the entry; the cache's map lock is held only to find or create the
//! entry, never during a compute. Requests for one cell wait for its single
//! compute, while other cells — another dataset's MCFS, another kind on the
//! same split — compute side by side. Memo entries and stored models are
//! not compute-once: two workers may race to measure (or fit) one subset,
//! and both produce the same bits.
//!
//! **One lifetime: an entry lives while it is held.** The handle *is* the
//! hold. The cache's map keeps only a `Weak` to each entry, so when a
//! split's last handle drops, all four layers go, and the entry removes its
//! key under the map lock; a later hold starts a fresh entry. Every
//! `ScenarioContext` holds its split, the benchmark runner holds each
//! dataset's split from before its ranking warm-up until it records the
//! dataset's last row, and the daemon holds each split it keeps cached
//! until it evicts it.
//!
//! **Bit-identity.** Sharing is only sound if a shared and a private cache
//! produce the same values. The stochastic rankings take a seed, so the
//! seed must not depend on *which arm* asks first — [`ranking_seed`]
//! therefore derives it from the dataset name and the ranking kind alone.
//! The warm-up and the on-demand compute in `ScenarioContext::ranking` use
//! this same seed, so sharing the cache or warming it can never change a
//! strategy's outcome, only how often and when the ranking is computed.
//!
//! **Stopping handles.** A handle can carry a deadline and a warm-only
//! flag (set through `ScenarioContext::with_deadline` and
//! `ScenarioContext::warm_only`). A handle with a deadline stops its
//! holder at the first evaluation past it. A warm-only handle serves what
//! its entry holds and stops its holder at the first step that would
//! compute: here a fit-store miss, a ranking compute or a bins derivation;
//! in the scenario layer a measurement that would end exact (and so enter
//! the memo) or run the evasion attack. Either stop unwinds with a private
//! payload, before the step is counted; [`catch_stop`] turns the unwind
//! back into a [`CellStop`]. The deadline and the flag ride on the handle,
//! not on the thread, so executor helpers measuring for the holder see
//! them too, and their unwind reaches the caller with its payload intact.

use dfs_constraints::Evaluation;
use dfs_data::split::Split;
use dfs_linalg::rng::{derive_seed, Fnv1a};
use dfs_models::{BinSet, TrainedModel};
use dfs_rankings::{Ranking, RankingKind};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError, Weak};
use std::time::Instant;

/// Locks `m`, recovering from poisoning: every critical section here is a
/// single map operation, which a panic cannot leave half-done.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Hit, miss and insert counts of one layer, over every split of a cache.
/// For the compute-once layers a miss is a compute.
#[derive(Default)]
struct Tally {
    hits: AtomicU64,
    misses: AtomicU64,
    inserts: AtomicU64,
}

impl Tally {
    fn count(&self, hit: bool) {
        let counter = if hit { &self.hits } else { &self.misses };
        counter.fetch_add(1, Ordering::Relaxed);
    }

    fn get(&self) -> (u64, u64, u64) {
        let load = |c: &AtomicU64| c.load(Ordering::Relaxed);
        (load(&self.hits), load(&self.misses), load(&self.inserts))
    }
}

/// `cell`'s value, computed by `compute` on the first request; `true` on a
/// hit, which includes waiting out another thread's compute. A compute
/// that panics leaves the cell empty for the next request.
fn compute_once<V>(
    cell: &OnceLock<Arc<V>>,
    tally: &Tally,
    compute: impl FnOnce() -> V,
) -> (Arc<V>, bool) {
    let mut computed = false;
    let value = Arc::clone(cell.get_or_init(|| {
        computed = true;
        Arc::new(compute())
    }));
    tally.count(!computed);
    (value, !computed)
}

/// Why a run on a stopping handle stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellStop {
    /// It reached a step that computes, on a warm-only handle.
    Cold,
    /// Its deadline passed.
    PastDeadline,
}

/// The unwind payload of a stop; private, so no other panic can pass for
/// one.
struct Stop(CellStop);

/// Runs `f` and returns its value, or why a stopping handle it used
/// stopped it. Any other panic unwinds on.
pub fn catch_stop<R>(f: impl FnOnce() -> R) -> Result<R, CellStop> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|payload| match payload.downcast::<Stop>() {
        Ok(stop) => stop.0,
        Err(payload) => resume_unwind(payload),
    })
}

/// The position of `kind` in [`RankingKind::ALL`]: its ranking cell and
/// its seed stream.
fn slot(kind: RankingKind) -> usize {
    RankingKind::ALL.iter().position(|k| *k == kind).unwrap_or(0)
}

/// Thread-safe cache of expensive per-split artifacts, shared across the
/// arms of a benchmark row (and across rows on the same dataset).
#[derive(Default)]
pub struct ArtifactCache {
    /// One entry per held `(dataset, split_fingerprint)`. The map does not
    /// keep an entry alive: its holds do, and its drop removes its key.
    splits: Mutex<HashMap<SplitKey, Weak<SplitEntry>>>,
    rankings: Tally,
    bins: Tally,
    memo: Tally,
    fits: Tally,
}

/// `(dataset, split_fingerprint)`.
type SplitKey = (String, u64);

/// Everything cached for one split, alive while a [`SplitArtifacts`]
/// handle holds it.
struct SplitEntry {
    /// The cache whose map points here, and the key it points from.
    cache: Arc<ArtifactCache>,
    key: SplitKey,
    /// One compute-once cell per [`RankingKind`], by [`slot`].
    rankings: [OnceLock<Arc<Ranking>>; RankingKind::ALL.len()],
    /// Histogram bin sets for the binned tree kernel: bins depend only on
    /// the training matrix, so every arm, wrapper step, and server request
    /// on the split shares one quantization.
    bins: OnceLock<Arc<BinSet>>,
    /// The subset-evaluation memo: exact measurements by [`EvalKey`].
    memo: Mutex<HashMap<EvalKey, Evaluation>>,
    /// The fit store.
    models: Mutex<HashMap<FitKey, Arc<TrainedModel>>>,
    /// The stored models' own bytes (subset bitset, model and parameters),
    /// added as each is stored.
    model_bytes: AtomicUsize,
}

impl Drop for SplitEntry {
    /// Runs when the split's last handle drops. A `hold` that raced it
    /// either upgraded first (so this drop is not happening) or, finding
    /// the count at zero, put a fresh entry under the key, which stays.
    fn drop(&mut self) {
        let mut splits = lock(&self.cache.splits);
        if splits.get(&self.key).is_some_and(|entry| entry.strong_count() == 0) {
            splits.remove(&self.key);
        }
    }
}

/// One split's entry in an [`ArtifactCache`], resolved once: every
/// ranking, bin, memo and model request of its holder goes through it.
/// The handle is a hold on the whole entry; the entry goes when the
/// split's last handle drops (see [`ArtifactCache::hold`]).
#[must_use = "a split's artifacts are dropped as soon as its last hold drops"]
pub struct SplitArtifacts {
    entry: Arc<SplitEntry>,
    /// Whether this handle has counted its bins request: the bin counters
    /// count one compute or hit per holder, not per fit.
    bins_counted: AtomicBool,
    /// The deadline a holder stops at (see the module docs).
    deadline: Option<Instant>,
    /// Whether a holder stops at a step that computes.
    warm_only: bool,
}

impl ArtifactCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Holds `(dataset, split_key)` until the returned handle drops, and
    /// serves the split's artifacts through it: the split's existing entry
    /// while another handle holds it, else a fresh one. When the last
    /// handle drops, the entry and everything in it go, so a cache whose
    /// holders come and go does not grow with them.
    pub fn hold(self: &Arc<Self>, dataset: &str, split_key: u64) -> SplitArtifacts {
        let key = (dataset.to_string(), split_key);
        let mut splits = lock(&self.splits);
        let entry = match splits.get(&key).and_then(Weak::upgrade) {
            Some(entry) => entry,
            None => {
                let entry = Arc::new(SplitEntry {
                    cache: Arc::clone(self),
                    key: key.clone(),
                    rankings: Default::default(),
                    bins: OnceLock::new(),
                    memo: Mutex::default(),
                    models: Mutex::default(),
                    model_bytes: AtomicUsize::new(0),
                });
                splits.insert(key, Arc::downgrade(&entry));
                entry
            }
        };
        SplitArtifacts {
            entry,
            bins_counted: AtomicBool::new(false),
            deadline: None,
            warm_only: false,
        }
    }

    /// `(computes, hits)` so far.
    pub fn counts(&self) -> (u64, u64) {
        let (hits, computes, _) = self.rankings.get();
        (computes, hits)
    }

    /// `(bin computes, bin hits)` so far.
    pub fn bin_counts(&self) -> (u64, u64) {
        let (hits, computes, _) = self.bins.get();
        (computes, hits)
    }

    /// `(memo hits, misses, inserts)` so far.
    pub fn memo_counts(&self) -> (u64, u64, u64) {
        self.memo.get()
    }

    /// `(fit store hits, misses, inserts)` so far.
    #[cfg(test)]
    pub(crate) fn fit_counts(&self) -> (u64, u64, u64) {
        self.fits.get()
    }

    /// `(held splits, stored models)` right now.
    #[cfg(test)]
    pub(crate) fn fit_store_size(&self) -> (usize, usize) {
        // The upgraded entries drop after the map lock is released: if one
        // is an entry's last reference, its drop takes that lock.
        let held: Vec<Arc<SplitEntry>> =
            lock(&self.splits).values().filter_map(Weak::upgrade).collect();
        let stored = held.iter().map(|entry| lock(&entry.models).len()).sum();
        (held.len(), stored)
    }
}

/// Precomputes the rankings of `kinds` for every held split in `splits`
/// through a shared [`Executor`], so the benchmark's ranking arms all hit
/// the cache instead of serializing on the first request. The cells are
/// filled through the holds, so they stay for as long as the caller holds
/// the splits.
///
/// The work is one flat queue of `(split, kind)` jobs, one per cell still
/// empty, drawn by every thread of the pool. Jobs are queued heaviest kind
/// first ([`RankingKind::BY_COST`]), so the queue ends in short jobs and no
/// thread idles behind another's last MCFS. Each job fills its cell with
/// the same [`ranking_seed`] as an on-demand request, so warming changes
/// only *when* a ranking is computed, never its value; it counts one
/// compute per job.
///
/// [`Executor`]: dfs_exec::Executor
pub(crate) fn warm_rankings(
    splits: &[(&SplitArtifacts, &Split)],
    kinds: &[RankingKind],
    exec: &dfs_exec::Executor,
) {
    let mut jobs: Vec<(usize, RankingKind)> = Vec::new();
    for kind in RankingKind::BY_COST.into_iter().filter(|k| kinds.contains(k)) {
        for (d, (held, _)) in splits.iter().enumerate() {
            if held.entry.rankings[slot(kind)].get().is_none() {
                jobs.push((d, kind));
            }
        }
    }
    let traces = exec.par_map_indexed(&jobs, |_, &(d, kind)| {
        let (held, split) = splits[d];
        // Each job records into its own scoped collector (a no-op when
        // tracing is off); absorption below happens in queue order,
        // keeping the trace deterministic at any thread count.
        dfs_obs::scoped(|| {
            held.ranking(kind, || {
                let _g = dfs_obs::span(format!("ranking.compute.{}", kind.name()));
                kind.compute(&split.train.x, &split.train.y, ranking_seed(&held.entry.key.0, kind))
            });
        })
        .1
    });
    for trace in traces.into_iter().flatten() {
        dfs_obs::absorb(trace);
    }
}

impl SplitArtifacts {
    /// Stops this handle's holder at its first evaluation past `deadline`
    /// (see the module docs).
    pub(crate) fn set_deadline(&mut self, deadline: Instant) {
        self.deadline = Some(deadline);
    }

    /// Makes this handle warm-only (see the module docs).
    pub(crate) fn set_warm_only(&mut self) {
        self.warm_only = true;
    }

    /// Stops a warm-only holder at a step that would compute.
    pub(crate) fn stop_if_warm_only(&self) {
        if self.warm_only {
            resume_unwind(Box::new(Stop(CellStop::Cold)));
        }
    }

    /// Stops a holder whose deadline has passed.
    pub(crate) fn check_deadline(&self) {
        if self.deadline.is_some_and(|deadline| Instant::now() >= deadline) {
            resume_unwind(Box::new(Stop(CellStop::PastDeadline)));
        }
    }

    /// The split's ranking of `kind`, computed via `compute` on the first
    /// request. The second element is `true` on a cache hit. Concurrent
    /// requests for one kind block on the first computation instead of
    /// racing to duplicate it (exactly-once semantics); requests for other
    /// kinds and splits do not wait for it.
    pub(crate) fn ranking(
        &self,
        kind: RankingKind,
        compute: impl FnOnce() -> Ranking,
    ) -> (Arc<Ranking>, bool) {
        let cell = &self.entry.rankings[slot(kind)];
        if cell.get().is_none() {
            self.stop_if_warm_only();
        }
        compute_once(cell, &self.entry.cache.rankings, compute)
    }

    /// The split's histogram [`BinSet`], derived via `derive` on the first
    /// request. This handle's first request counts a compute or a hit
    /// (and the `bins.derive`/`bins.hit` trace counter); later ones are
    /// plain reads.
    ///
    /// Like [`SplitArtifacts::ranking`], the bins compute exactly once:
    /// quantization sorts every training column once, and concurrent arms
    /// should wait for that one derivation rather than duplicate it. Bins
    /// are pure functions of the training matrix — neither the scenario
    /// seed nor the model settings enter — which is what makes cross-arm
    /// sharing sound.
    pub(crate) fn bins(&self, derive: impl FnOnce() -> BinSet) -> &Arc<BinSet> {
        if self.entry.bins.get().is_none() {
            self.stop_if_warm_only();
        }
        let mut derived = false;
        let bins = self.entry.bins.get_or_init(|| {
            derived = true;
            Arc::new(derive())
        });
        if !self.bins_counted.swap(true, Ordering::Relaxed) {
            self.entry.cache.bins.count(!derived);
            dfs_obs::counter(if derived { "bins.derive" } else { "bins.hit" }, 1);
        }
        bins
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
    /// Unlike [`SplitArtifacts::ranking`], a key is **not** computed
    /// exactly once: measurements are orders of magnitude cheaper than
    /// ReliefF/MCFS rankings and often run inside parallel batch regions,
    /// where blocking every worker on one in-flight measurement would
    /// serialize the batch. Two workers may therefore race to measure the
    /// same subset; both produce bit-identical values, so the duplicate
    /// work is bounded and harmless.
    pub(crate) fn memo_lookup(&self, key: &EvalKey) -> Option<Evaluation> {
        let found = lock(&self.entry.memo).get(key).copied();
        self.entry.cache.memo.count(found.is_some());
        dfs_obs::counter(if found.is_some() { "memo.hit" } else { "memo.miss" }, 1);
        found
    }

    /// Inserts a freshly measured evaluation. Only exact measurements are
    /// admitted — never lower-bounded partial ones (see `ScenarioContext`).
    /// Idempotent: a concurrent duplicate measurement produced identical
    /// bits, so first-write-wins changes nothing.
    pub(crate) fn memo_insert(&self, key: EvalKey, eval: Evaluation) {
        if let Entry::Vacant(slot) = lock(&self.entry.memo).entry(key) {
            slot.insert(eval);
            self.entry.cache.memo.inserts.fetch_add(1, Ordering::Relaxed);
            dfs_obs::counter("memo.insert", 1);
        }
    }

    /// Returns the model stored under `key`, else fits it via `fit` and
    /// stores it in the split's entry. Counts a hit or a miss.
    ///
    /// A fit is a pure function of its split and its [`FitKey`]: the
    /// train-row cap, the model, the HPO flag, the subset and, for a DP
    /// fit, ε and the scenario seed its noise derives from. The
    /// thresholds, the EO and Safety terms and the attack only touch
    /// scoring, so every scenario and arm on a split shares one model per
    /// key. Like the memo, a key is not computed exactly once: the store is
    /// not locked during `fit`, racing workers fit identical bits, and the
    /// first insert wins.
    pub(crate) fn model(
        &self,
        key: FitKey,
        fit: impl FnOnce() -> TrainedModel,
    ) -> Arc<TrainedModel> {
        let found = lock(&self.entry.models).get(&key).cloned();
        if found.is_none() {
            self.stop_if_warm_only();
        }
        self.entry.cache.fits.count(found.is_some());
        if let Some(model) = found {
            dfs_obs::counter("fit.reused", 1);
            return model;
        }
        let model = Arc::new(fit());
        let bytes = size_of_val(&key.subset[..]) + size_of::<TrainedModel>() + model.param_bytes();
        if let Entry::Vacant(slot) = lock(&self.entry.models).entry(key) {
            slot.insert(Arc::clone(&model));
            self.entry.model_bytes.fetch_add(bytes, Ordering::Relaxed);
            self.entry.cache.fits.inserts.fetch_add(1, Ordering::Relaxed);
        }
        model
    }

    /// The bytes the split's entry holds right now: its rankings, its bin
    /// codes and edges, its memo and fit-store tables at their capacity,
    /// the memo keys' subset bitsets and the stored models' bytes. The
    /// daemon charges each cached split this on top of the split's own
    /// bytes.
    pub fn bytes(&self) -> usize {
        let entry = &self.entry;
        let rankings: usize = entry
            .rankings
            .iter()
            .filter_map(OnceLock::get)
            .map(|r| size_of_val(&r.scores[..]) + size_of_val(&r.order[..]))
            .sum();
        let bins = entry.bins.get().map_or(0, |b| b.bytes());
        let memo = {
            let memo = lock(&entry.memo);
            // Every key of one split has the same subset width.
            let width = memo.keys().next().map_or(0, |k| size_of_val(&k.subset[..]));
            memo.capacity() * size_of::<(EvalKey, Evaluation)>() + memo.len() * width
        };
        let models = lock(&entry.models).capacity() * size_of::<(FitKey, Arc<TrainedModel>)>()
            + entry.model_bytes.load(Ordering::Relaxed);
        rankings + bins + memo + models
    }
}

/// Memo key for one subset measurement within a split (see
/// [`SplitArtifacts::memo_lookup`]).
///
/// The `settings_key` folds in everything *besides* the split and the
/// subset that can change the measured metric values: model kind, HPO
/// flag, scenario seed, privacy ε, which metrics are measured, the attack
/// configuration, and the effective train-row cap.
/// Constraint *thresholds* are deliberately absent — the measurement is
/// threshold-free (thresholds only enter the Eq. 1 distance computed from
/// it), so portfolio rows that differ only in thresholds share entries.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct EvalKey {
    /// Fingerprint of all measurement-relevant scenario settings.
    pub settings_key: u64,
    /// `true` for confirm-on-test measurements, `false` for validation.
    pub eval_on_test: bool,
    /// The feature subset as a fixed-width bitset.
    pub subset: Box<[u64]>,
}

/// Key of one trained model in a split's fit store (see
/// [`SplitArtifacts::model`]).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct FitKey {
    /// `fit_fingerprint` of the fit: model, HPO flag, train-row cap and,
    /// for a DP fit, ε and the scenario seed.
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
    let mut h = Fnv1a::new();
    h.bytes(dataset.as_bytes());
    derive_seed(h.finish(), 0x7A4C ^ slot(kind) as u64)
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
    use dfs_models::{ModelKind, ModelSpec};

    #[test]
    fn ranking_is_computed_once_and_then_served_from_cache() {
        let cache = Arc::new(ArtifactCache::new());
        let split = cache.hold("ds", 7);
        let mut computes = 0;
        let mk = |computes: &mut usize| {
            *computes += 1;
            Ranking::from_scores(vec![3.0, 1.0, 2.0])
        };
        let (a, hit_a) = split.ranking(RankingKind::Chi2, || mk(&mut computes));
        let (b, hit_b) = split.ranking(RankingKind::Chi2, || mk(&mut computes));
        assert!(!hit_a && hit_b);
        assert_eq!(computes, 1);
        assert_eq!(*a, *b);
        assert_eq!(cache.counts(), (1, 1));
    }

    #[test]
    fn distinct_keys_do_not_collide() {
        let cache = Arc::new(ArtifactCache::new());
        let mk = || Ranking::from_scores(vec![1.0, 2.0]);
        let held = cache.hold("ds", 1);
        assert!(!held.ranking(RankingKind::Chi2, mk).1);
        // Different kind, split, or dataset each miss.
        assert!(!held.ranking(RankingKind::Mim, mk).1);
        assert!(!cache.hold("ds", 2).ranking(RankingKind::Chi2, mk).1);
        assert!(!cache.hold("other", 1).ranking(RankingKind::Chi2, mk).1);
        assert_eq!(cache.counts(), (4, 0));
    }

    #[test]
    fn bins_are_computed_once_per_split_and_shared() {
        let ds = generate(&tiny_spec(), 5);
        let split = stratified_three_way(&ds, 1);
        let split_key = split_fingerprint(&split);
        let cache = Arc::new(ArtifactCache::new());
        let (first, second) = (cache.hold(&ds.name, split_key), cache.hold(&ds.name, split_key));
        let a = Arc::clone(first.bins(|| BinSet::derive(&split.train.x)));
        let b = second.bins(|| panic!("cached bins must not recompute"));
        assert!(Arc::ptr_eq(&a, b));
        assert_eq!(a.n_features(), split.n_features());
        assert_eq!(a.n_rows(), split.train.n_rows());
        assert_eq!(cache.bin_counts(), (1, 1));
        // Each holder counts its first request only.
        first.bins(|| panic!("cached bins must not recompute"));
        assert_eq!(cache.bin_counts(), (1, 1));
        // A different split key computes; ranking counters stay untouched.
        cache.hold(&ds.name, split_key ^ 1).bins(|| BinSet::derive(&split.train.x));
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
            let warmed = Arc::new(ArtifactCache::new());
            let exec = dfs_exec::Executor::new(threads);
            let holds = splits.map(|(name, split)| warmed.hold(name, split_fingerprint(split)));
            let held = [(&holds[0], splits[0].1), (&holds[1], splits[1].1)];
            warm_rankings(&held, &kinds, &exec);
            assert_eq!(warmed.counts(), (8, 0));
            // Re-warming is a no-op.
            warm_rankings(&held, &kinds, &exec);
            assert_eq!(warmed.counts(), (8, 0));

            for (name, split) in splits {
                // Another hold on a warmed split reads its cells.
                let held = warmed.hold(name, split_fingerprint(split));
                for kind in kinds {
                    let on_demand =
                        kind.compute(&split.train.x, &split.train.y, ranking_seed(name, kind));
                    let (cached, hit) =
                        held.ranking(kind, || panic!("warmed kind must not recompute"));
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
        let cache = Arc::new(ArtifactCache::new());
        let held = cache.hold(&ds.name, split_fingerprint(&split));
        let (_, hit) =
            held.ranking(RankingKind::Chi2, || Ranking::from_scores(vec![0.0; split.n_features()]));
        assert!(!hit);
        let kinds = [RankingKind::Chi2, RankingKind::Fisher];
        warm_rankings(&[(&held, &split)], &kinds, &dfs_exec::Executor::new(2));
        // Chi2 kept its on-demand value; only Fisher was computed.
        assert_eq!(cache.counts(), (2, 0));
        let (chi2, _) = held.ranking(RankingKind::Chi2, || panic!("filled cell must not recompute"));
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
        let cache = Arc::new(ArtifactCache::new());
        let (entered_tx, entered_rx) = channel::<()>();
        let (release_tx, release_rx) = channel::<()>();
        let (b_done_tx, b_done_rx) = channel();
        let kind = RankingKind::Mcfs;
        // Keeps A's entry while the requests come and go.
        let _a = cache.hold("a", 1);
        std::thread::scope(|scope| {
            let first_a = scope.spawn(|| {
                cache.hold("a", 1).ranking(kind, move || {
                    let _ = entered_tx.send(());
                    let _ = release_rx.recv();
                    Ranking::from_scores(vec![1.0, 2.0])
                })
            });
            entered_rx.recv().expect("A's compute starts");
            let second_a =
                scope.spawn(|| cache.hold("a", 1).ranking(kind, || panic!("A must compute once")));
            scope.spawn(|| {
                let b = cache.hold("b", 1);
                let computed = b.ranking(kind, || Ranking::from_scores(vec![3.0]));
                let looked_up = b.ranking(kind, || panic!("B is filled"));
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
        let cache = Arc::new(ArtifactCache::new());
        let computes = AtomicU64::new(0);
        // Keeps the entry while the requests come and go.
        let _held = cache.hold("ds", 3);
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    let (r, _) = cache.hold("ds", 3).ranking(RankingKind::ReliefF, || {
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
        let cache = Arc::new(ArtifactCache::new());
        let split = cache.hold("ds", 1);
        let failed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            split.ranking(RankingKind::Mcfs, || panic!("injected compute failure"))
        }));
        assert!(failed.is_err());
        assert_eq!(cache.counts(), (0, 0));
        let (r, hit) = split.ranking(RankingKind::Mcfs, || Ranking::from_scores(vec![1.0]));
        assert!(!hit);
        assert_eq!(r.scores, vec![1.0]);
        assert_eq!(cache.counts(), (1, 0));
    }

    fn sample_eval(f1: f64) -> Evaluation {
        Evaluation { f1, eo: Some(0.9), safety: None, n_selected: 3, n_total: 8 }
    }

    fn key(settings_key: u64, eval_on_test: bool, subset: &[usize]) -> EvalKey {
        EvalKey { settings_key, eval_on_test, subset: subset_bits(subset, 8) }
    }

    #[test]
    fn memo_round_trips_and_counts_hits_misses_inserts() {
        let cache = Arc::new(ArtifactCache::new());
        let split = cache.hold("ds", 7);
        let k = key(1, false, &[0, 2, 5]);
        assert!(split.memo_lookup(&k).is_none());
        split.memo_insert(k.clone(), sample_eval(0.7));
        let hit = split.memo_lookup(&k).expect("inserted entry");
        assert_eq!(hit.f1, 0.7);
        assert_eq!(hit.n_selected, 3);
        // Duplicate insert (a concurrent racer) keeps the first entry and
        // does not double-count.
        split.memo_insert(k.clone(), sample_eval(0.9));
        assert_eq!(split.memo_lookup(&k).map(|e| e.f1), Some(0.7));
        assert_eq!(cache.memo_counts(), (2, 1, 1));
        // The memo leaves the ranking and bin counters alone.
        assert_eq!((cache.counts(), cache.bin_counts()), ((0, 0), (0, 0)));
    }

    #[test]
    fn memo_keys_separate_settings_split_leg_and_subset() {
        let cache = Arc::new(ArtifactCache::new());
        let split = cache.hold("ds", 7);
        split.memo_insert(key(1, false, &[0, 1]), sample_eval(0.5));
        // A different settings fingerprint (e.g. a context rebuilt with a
        // different train-row cap) can never serve the old entry.
        assert!(split.memo_lookup(&key(2, false, &[0, 1])).is_none());
        // Another split's entry holds its own memo.
        assert!(cache.hold("ds", 8).memo_lookup(&key(1, false, &[0, 1])).is_none());
        // Validation and test legs are distinct measurements.
        assert!(split.memo_lookup(&key(1, true, &[0, 1])).is_none());
        // And of course a different subset misses.
        assert!(split.memo_lookup(&key(1, false, &[0, 3])).is_none());
        assert!(split.memo_lookup(&key(1, false, &[0, 1])).is_some());
    }

    fn fit_key(fit_key: u64, subset: &[usize]) -> FitKey {
        FitKey { fit_key, subset: subset_bits(subset, 8) }
    }

    /// A split's models stay stored while any hold on it is alive and are
    /// evicted when its last hold drops; other splits keep theirs.
    #[test]
    fn a_splits_models_live_until_its_last_hold_drops() {
        let ds = generate(&tiny_spec(), 5);
        let split = stratified_three_way(&ds, 1);
        let spec = ModelSpec::default_for(ModelKind::GaussianNb);
        let fit = || spec.fit(&split.train.x, &split.train.y);
        let stored = |held: &SplitArtifacts, key| {
            held.model(key, || panic!("a stored model must not refit"))
        };
        let cache = Arc::new(ArtifactCache::new());
        let (first, second, other) = (cache.hold("a", 1), cache.hold("a", 1), cache.hold("b", 1));
        let model = first.model(fit_key(9, &[0]), fit);
        first.model(fit_key(9, &[1]), fit);
        other.model(fit_key(9, &[0]), fit);
        assert_eq!(cache.fit_store_size(), (2, 3));
        // Every hold on a split reads its models; another split key, fit key
        // or subset misses.
        assert!(Arc::ptr_eq(&stored(&second, fit_key(9, &[0])), &model));
        let elsewhere = cache.hold("a", 2);
        let misses = [(&elsewhere, 9, [0]), (&second, 8, [0]), (&second, 9, [2])];
        for (held, k, subset) in misses {
            assert!(!Arc::ptr_eq(&held.model(fit_key(k, &subset), fit), &model));
        }
        assert_eq!(cache.fit_store_size(), (3, 6));
        drop(elsewhere);
        assert_eq!(cache.fit_store_size(), (2, 5));

        drop(first);
        assert!(Arc::ptr_eq(&stored(&second, fit_key(9, &[0])), &model), "still held");
        drop(second);
        assert_eq!(cache.fit_store_size(), (1, 1), "the last hold on `a` evicts its models");
        stored(&other, fit_key(9, &[0]));
        let again = cache.hold("a", 1);
        assert!(!Arc::ptr_eq(&again.model(fit_key(9, &[0]), fit), &model));
        drop((again, other));
        assert_eq!(cache.fit_store_size(), (0, 0));
        // Hits, misses, inserts.
        assert_eq!(cache.fit_counts(), (3, 7, 7));
        // The store leaves the other layers' counters alone.
        assert_eq!((cache.counts(), cache.bin_counts()), ((0, 0), (0, 0)));
        assert_eq!(cache.memo_counts(), (0, 0, 0));
    }

    /// An entry is charged its memo and fit-store tables at their capacity,
    /// plus each key's subset bitset and each stored model; lookups that
    /// hit leave the charge as it was.
    #[test]
    fn the_charge_covers_the_tables_capacity() {
        let ds = generate(&tiny_spec(), 5);
        let split = stratified_three_way(&ds, 1);
        let spec = ModelSpec::default_for(ModelKind::GaussianNb);
        let cache = Arc::new(ArtifactCache::new());
        let held = cache.hold("ds", 1);
        assert_eq!(held.bytes(), 0);
        for f in 0..5 {
            held.memo_insert(key(1, false, &[f]), sample_eval(0.5));
        }
        let model = held.model(fit_key(9, &[0]), || spec.fit(&split.train.x, &split.train.y));
        let (memo_cap, models_cap) =
            (lock(&held.entry.memo).capacity(), lock(&held.entry.models).capacity());
        assert!(memo_cap > 5, "the memo table has spare slots: {memo_cap}");
        let width = size_of::<u64>();
        let tables = memo_cap * size_of::<(EvalKey, Evaluation)>()
            + models_cap * size_of::<(FitKey, Arc<TrainedModel>)>();
        let stored = 5 * width + width + size_of::<TrainedModel>() + model.param_bytes();
        assert_eq!(held.bytes(), tables + stored);
        assert!(held.memo_lookup(&key(1, false, &[3])).is_some());
        held.model(fit_key(9, &[0]), || panic!("a stored model must not refit"));
        assert_eq!(held.bytes(), tables + stored);
    }

    /// One lifetime: while a split is held, every holder is served its
    /// rankings, bins, memo entries and models as hits; when its last hold
    /// drops, all four leave with the key, and the next holder starts cold.
    /// A second split of the same dataset (another fingerprint) shares none
    /// of the four layers.
    #[test]
    fn every_layer_leaves_with_the_last_hold() {
        let ds = generate(&tiny_spec(), 5);
        let (split, other_split) = (stratified_three_way(&ds, 1), stratified_three_way(&ds, 2));
        let (split_key, other_key) = (split_fingerprint(&split), split_fingerprint(&other_split));
        assert_ne!(split_key, other_key);
        let spec = ModelSpec::default_for(ModelKind::GaussianNb);
        let ranking = || Ranking::from_scores(vec![1.0; split.n_features()]);
        let fill = |held: &SplitArtifacts| {
            held.ranking(RankingKind::Mim, ranking);
            held.bins(|| BinSet::derive(&split.train.x));
            held.memo_insert(key(1, false, &[0, 1]), sample_eval(0.6));
            held.model(fit_key(9, &[0, 1]), || spec.fit(&split.train.x, &split.train.y))
        };
        let all_counts = |cache: &ArtifactCache| {
            (cache.counts(), cache.bin_counts(), cache.memo_counts(), cache.fit_counts())
        };
        let cache = Arc::new(ArtifactCache::new());
        let first = cache.hold(&ds.name, split_key);
        let model = fill(&first);
        let second = cache.hold(&ds.name, split_key);
        drop(first);
        assert!(second.ranking(RankingKind::Mim, || panic!("still held")).1);
        second.bins(|| panic!("still held"));
        assert_eq!(second.memo_lookup(&key(1, false, &[0, 1])).map(|e| e.f1), Some(0.6));
        let stored = second.model(fit_key(9, &[0, 1]), || panic!("still held"));
        assert!(Arc::ptr_eq(&stored, &model));
        assert_eq!(all_counts(&cache), ((1, 1), (1, 1), (1, 0, 1), (1, 1, 1)));
        assert_eq!(cache.fit_store_size(), (1, 1));

        drop(second);
        assert_eq!(cache.fit_store_size(), (0, 0), "the last hold took the entry along");
        assert!(lock(&cache.splits).is_empty(), "and its key");
        let again = cache.hold(&ds.name, split_key);
        assert!(!again.ranking(RankingKind::Mim, ranking).1);
        again.bins(|| BinSet::derive(&split.train.x));
        assert!(again.memo_lookup(&key(1, false, &[0, 1])).is_none());
        let refit = again.model(fit_key(9, &[0, 1]), || spec.fit(&split.train.x, &split.train.y));
        assert!(!Arc::ptr_eq(&refit, &model), "models leave with the last hold");
        assert_eq!(all_counts(&cache), ((2, 1), (2, 1), (1, 1, 1), (1, 2, 2)));

        let other = cache.hold(&ds.name, other_key);
        assert!(!other.ranking(RankingKind::Mim, ranking).1);
        let other_bins = Arc::clone(other.bins(|| BinSet::derive(&other_split.train.x)));
        assert!(!Arc::ptr_eq(&other_bins, again.bins(|| panic!("bins stay"))));
        assert!(other.memo_lookup(&key(1, false, &[0, 1])).is_none());
        other.model(fit_key(9, &[0, 1]), || spec.fit(&other_split.train.x, &other_split.train.y));
        assert_eq!(all_counts(&cache), ((3, 1), (3, 1), (1, 2, 1), (1, 3, 3)));
        assert_eq!(cache.fit_store_size(), (2, 2));
    }

    /// Holds taken while another handle on the split drops keep the entry:
    /// the key always points at the entry its live holders share, and
    /// nothing is left behind once every hold is gone. The threads churn
    /// holds on one key, so last drops race fresh holds.
    #[test]
    fn a_hold_taken_while_another_drops_keeps_its_entry() {
        let cache = Arc::new(ArtifactCache::new());
        let current = |held: &SplitArtifacts| {
            lock(&cache.splits)
                .get(&held.entry.key)
                .is_some_and(|entry| std::ptr::eq(entry.as_ptr(), Arc::as_ptr(&held.entry)))
        };
        let first = cache.hold("ds", 1);
        first.memo_insert(key(1, false, &[0]), sample_eval(0.5));
        let second = cache.hold("ds", 1);
        drop(first);
        assert!(current(&second));
        assert_eq!(second.memo_lookup(&key(1, false, &[0])).map(|e| e.f1), Some(0.5));
        drop(second);
        assert!(lock(&cache.splits).is_empty());

        std::thread::scope(|scope| {
            for t in 0..4 {
                let (cache, current) = (&cache, &current);
                scope.spawn(move || {
                    for i in 0..300 {
                        let held = cache.hold("ds", 1);
                        let k = key(t, false, &[i % 8]);
                        held.memo_insert(k.clone(), sample_eval(0.5));
                        assert!(current(&held), "thread {t} round {i}: the key left a live entry");
                        assert!(held.memo_lookup(&k).is_some(), "thread {t} round {i}");
                    }
                });
            }
        });
        assert!(lock(&cache.splits).is_empty(), "a dead key stayed behind");
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
