//! Generic black-box search algorithms used by the FS strategies.
//!
//! The paper reduces feature selection to optimizing a binary decision
//! vector `b ∈ {0,1}^N` (bit `j` = keep feature `j`) or a top-`k` cutoff
//! over a precomputed ranking. Three optimizer families act on those spaces
//! (§ 4.2):
//!
//! - [`sa`] — simulated annealing (Metropolis acceptance), the paper's
//!   SA(NR);
//! - [`tpe`] — the tree-structured Parzen estimator of Bergstra et al.,
//!   used both on binary vectors (TPE(NR)) and on the top-`k` integer for
//!   every ranking-based strategy (TPE(ranking));
//! - [`nsga2`] — NSGA-II multi-objective evolutionary search (one objective
//!   per constraint), the paper's NSGA-II(NR).
//!
//! Optimizers talk to the problem through a closure
//! `FnMut(&[bool]) -> Option<f64>` returning the score to *minimize*, or
//! `None` once the budget is exhausted (the [`Budget`] type tracks wall
//! clock and evaluation counts). They stop early when the score reaches
//! `stop_at` — for DFS that is distance 0, i.e. all constraints satisfied.

pub mod nsga2;
pub mod sa;
pub mod tpe;

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Time source for a [`Budget`].
///
/// Production budgets read the real wall clock; tests inject a
/// [`ManualClock`] so deadline expiry can be exercised deterministically
/// (no `thread::sleep`, no flakes under load).
#[derive(Debug, Clone)]
pub enum Clock {
    /// The real wall clock, anchored at budget start.
    Real(Instant),
    /// A hand-advanced clock: elapsed nanoseconds in a shared atomic.
    Manual(Arc<AtomicU64>),
}

impl Clock {
    fn elapsed(&self) -> Duration {
        match self {
            Clock::Real(start) => start.elapsed(),
            Clock::Manual(ns) => Duration::from_nanos(ns.load(Ordering::Acquire)),
        }
    }
}

/// A hand-advanced time source for deterministic budget tests.
///
/// Clones share the same underlying clock; [`ManualClock::clock`] hands a
/// [`Clock`] to [`Budget::with_clock`].
#[derive(Debug, Clone, Default)]
pub struct ManualClock(Arc<AtomicU64>);

impl ManualClock {
    /// A clock starting at zero elapsed time.
    pub fn new() -> Self {
        Self::default()
    }

    /// Advances the clock by `by`.
    pub fn advance(&self, by: Duration) {
        self.0.fetch_add(by.as_nanos() as u64, Ordering::AcqRel);
    }

    /// A [`Clock`] view sharing this clock's state.
    pub fn clock(&self) -> Clock {
        Clock::Manual(Arc::clone(&self.0))
    }
}

/// A combined wall-clock + evaluation-count budget.
///
/// Wall clock enforces the paper's mandatory Max Search Time constraint;
/// the evaluation cap makes tests and benchmarks deterministic. The type
/// is `Sync` (atomic eval counter), so deadline checks may run inside
/// parallel regions of the executor.
#[derive(Debug)]
pub struct Budget {
    clock: Clock,
    limit: Duration,
    max_evals: usize,
    evals: AtomicUsize,
}

impl Budget {
    /// Starts a budget with a wall-clock limit and an evaluation cap.
    pub fn new(limit: Duration, max_evals: usize) -> Self {
        Self::with_clock(limit, max_evals, Clock::Real(Instant::now()))
    }

    /// Starts a budget reading time from an explicit [`Clock`].
    pub fn with_clock(limit: Duration, max_evals: usize, clock: Clock) -> Self {
        Self { clock, limit, max_evals, evals: AtomicUsize::new(0) }
    }

    /// `true` once either limit is hit.
    pub fn exhausted(&self) -> bool {
        self.evals.load(Ordering::Acquire) >= self.max_evals || self.clock.elapsed() >= self.limit
    }

    /// Registers one evaluation; returns `false` when the budget is already
    /// exhausted (the evaluation should then not run). Exact under
    /// concurrency: the eval cap can never be overshot.
    pub fn try_consume(&self) -> bool {
        if self.clock.elapsed() >= self.limit {
            return false;
        }
        self.evals
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |e| {
                if e >= self.max_evals {
                    None
                } else {
                    Some(e + 1)
                }
            })
            .is_ok()
    }

    /// Evaluations consumed so far.
    pub fn evals_used(&self) -> usize {
        self.evals.load(Ordering::Acquire)
    }

    /// Elapsed wall-clock time.
    pub fn elapsed(&self) -> Duration {
        self.clock.elapsed()
    }

    /// Wall-clock time left before the limit; zero once it has passed.
    pub fn time_left(&self) -> Duration {
        self.limit.saturating_sub(self.clock.elapsed())
    }
}

/// Outcome of a single-objective search.
#[derive(Debug, Clone)]
pub struct SearchResult {
    /// Best decision vector found (empty when nothing was evaluated).
    pub best_bits: Vec<bool>,
    /// Its score.
    pub best_score: f64,
    /// Number of evaluations performed by this search.
    pub evaluations: usize,
    /// `true` when the search stopped because `stop_at` was reached.
    pub reached_target: bool,
}

impl SearchResult {
    pub(crate) fn empty() -> Self {
        Self { best_bits: Vec::new(), best_score: f64::INFINITY, evaluations: 0, reached_target: false }
    }

    pub(crate) fn observe(&mut self, bits: &[bool], score: f64) {
        self.evaluations += 1;
        let score = sanitize_score(score);
        if score < self.best_score {
            self.best_score = score;
            self.best_bits = bits.to_vec();
        }
    }
}

/// Maps a NaN score to `+∞` so it orders as worst-possible instead of
/// silently losing every comparison (a degenerate fold metric must look
/// like a terrible candidate, not vanish). Observable: bumps the
/// `search.nan_score` counter and leaves a journal line.
pub(crate) fn sanitize_score(score: f64) -> f64 {
    if score.is_nan() {
        dfs_obs::counter("search.nan_score", 1);
        dfs_obs::warn!("dfs-search", "NaN score observed; treating as +inf");
        f64::INFINITY
    } else {
        score
    }
}

/// Returns `true` when `score` has met the early-stop target. NaN never
/// hits a target — it ranks as `+∞` (see [`sanitize_score`]), and `+∞`
/// fails any threshold.
pub(crate) fn hit_target(score: f64, stop_at: Option<f64>) -> bool {
    !score.is_nan() && stop_at.is_some_and(|t| score <= t)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_counts_evaluations() {
        let b = Budget::new(Duration::from_secs(60), 3);
        assert!(b.try_consume());
        assert!(b.try_consume());
        assert!(b.try_consume());
        assert!(!b.try_consume(), "4th eval must be denied");
        assert!(b.exhausted());
        assert_eq!(b.evals_used(), 3);
    }

    #[test]
    fn budget_expires_on_wall_clock() {
        let clock = ManualClock::new();
        let b = Budget::with_clock(Duration::from_millis(1), usize::MAX, clock.clock());
        assert!(!b.exhausted(), "fresh budget must admit evaluations");
        assert!(b.try_consume());
        clock.advance(Duration::from_millis(2));
        assert!(b.exhausted());
        assert!(!b.try_consume());
        assert_eq!(b.evals_used(), 1);
    }

    #[test]
    fn manual_clock_is_shared_across_clones() {
        let clock = ManualClock::new();
        let b = Budget::with_clock(Duration::from_secs(1), usize::MAX, clock.clock());
        let clone = clock.clone();
        clone.advance(Duration::from_secs(2));
        assert!(b.exhausted(), "advancing any clone must expire the budget");
        assert_eq!(b.elapsed(), Duration::from_secs(2));
    }

    #[test]
    fn time_left_counts_down_to_zero() {
        let clock = ManualClock::new();
        let b = Budget::with_clock(Duration::from_millis(10), usize::MAX, clock.clock());
        assert_eq!(b.time_left(), Duration::from_millis(10));
        clock.advance(Duration::from_millis(4));
        assert_eq!(b.time_left(), Duration::from_millis(6));
        clock.advance(Duration::from_millis(7));
        assert_eq!(b.time_left(), Duration::ZERO, "an expired budget has no time left");
    }

    #[test]
    fn zero_wall_clock_budget_is_exhausted_before_the_first_evaluation() {
        let b = Budget::new(Duration::ZERO, usize::MAX);
        assert!(b.exhausted());
        assert!(!b.try_consume(), "no evaluation may run on a zero time budget");
        assert_eq!(b.evals_used(), 0);
    }

    #[test]
    fn zero_eval_cap_is_exhausted_before_the_first_evaluation() {
        let b = Budget::new(Duration::from_secs(60), 0);
        assert!(b.exhausted());
        assert!(!b.try_consume(), "no evaluation may run on a zero eval cap");
        assert_eq!(b.evals_used(), 0);
    }

    #[test]
    fn search_result_tracks_best() {
        let mut r = SearchResult::empty();
        r.observe(&[true, false], 2.0);
        r.observe(&[false, true], 1.0);
        r.observe(&[true, true], 3.0);
        assert_eq!(r.best_bits, vec![false, true]);
        assert_eq!(r.best_score, 1.0);
        assert_eq!(r.evaluations, 3);
    }

    #[test]
    fn hit_target_logic() {
        assert!(hit_target(0.0, Some(0.0)));
        assert!(hit_target(-1.0, Some(0.0)));
        assert!(!hit_target(0.1, Some(0.0)));
        assert!(!hit_target(0.0, None));
        assert!(!hit_target(f64::NAN, Some(0.0)), "NaN must never satisfy a target");
        assert!(!hit_target(f64::NAN, Some(f64::INFINITY)));
    }

    #[test]
    fn nan_first_score_counts_but_never_becomes_best() {
        dfs_obs::set_trace_enabled(true);
        let (r, collected) = dfs_obs::scoped(|| {
            let mut r = SearchResult::empty();
            r.observe(&[true, false], f64::NAN);
            assert_eq!(r.evaluations, 1, "a NaN evaluation still consumed budget");
            assert!(r.best_bits.is_empty(), "NaN must not be promoted to best");
            assert_eq!(r.best_score, f64::INFINITY);
            r.observe(&[false, true], 5.0);
            r
        });
        assert_eq!(r.best_bits, vec![false, true]);
        assert_eq!(r.best_score, 5.0);
        assert_eq!(r.evaluations, 2);
        let collected = collected.expect("collector");
        assert_eq!(collected.counters().get("search.nan_score").copied(), Some(1));
        assert!(
            collected.events().iter().any(|e| format!("{e:?}").contains("NaN score")),
            "NaN observation must leave a journal line"
        );
    }

    #[test]
    fn nan_mid_sequence_leaves_the_incumbent_untouched() {
        let mut r = SearchResult::empty();
        r.observe(&[true, false], 2.0);
        r.observe(&[false, true], f64::NAN);
        r.observe(&[true, true], 3.0);
        assert_eq!(r.best_bits, vec![true, false]);
        assert_eq!(r.best_score, 2.0);
        assert_eq!(r.evaluations, 3);
    }
}
