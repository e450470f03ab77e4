//! `auto`: dynamic strategy switching, the paper's first "future work"
//! direction.
//!
//! > "One could learn an additional model that estimates after each feature
//! > evaluation whether the chosen strategy is likely to converge within the
//! > user-specified search time. If this estimate is pessimistic, we can
//! > switch to a different strategy." (§ 7, Meta learning)
//!
//! This module implements the mechanism with a simple convergence estimate:
//! a fixed schedule of strategies runs in turn, each attempt receives a
//! slice of the time left, and an attempt is abandoned early when its best
//! score has stopped improving (a stall detector plays the role of the
//! pessimistic convergence model). Every attempt runs on the evaluator it
//! is given, so later strategies are warm-started through its evaluation
//! cache: re-proposed subsets cost no training, which is the "warm-started
//! based on the experience gained in previous runs" the paper sketches.

use crate::evaluator::{SearchOutcome, SubsetEvaluator};
use crate::{run_strategy, StrategyId};
use dfs_linalg::Matrix;
use dfs_rankings::{Ranking, RankingKind};
use std::time::Duration;

/// Strategies in priority order: fast greedy first, then ranking-based,
/// then global search (the paper's Table 8 portfolio intuition).
const SCHEDULE: [StrategyId; 3] =
    [StrategyId::Sffs, StrategyId::TpeRanking(RankingKind::Fcbf), StrategyId::TpeNr];

/// Fraction of the time left granted to each attempt but the last, which
/// gets all of it.
const SLICE_FRACTION: f64 = 0.4;

/// Evaluations without improvement before an attempt is abandoned (the
/// "pessimistic convergence estimate").
const STALL_LIMIT: usize = 40;

/// Runs [`SCHEDULE`] until an attempt satisfies the scenario, the
/// evaluator's budget runs out or the schedule ends, and returns the best
/// attempt's outcome with the evaluations of all attempts.
pub(crate) fn run_schedule(ev: &mut dyn SubsetEvaluator) -> SearchOutcome {
    let mut best = SearchOutcome::empty();
    let mut evaluations = 0;
    for (i, &strategy) in SCHEDULE.iter().enumerate() {
        let left = ev.time_left();
        if left.is_some_and(|left| left.is_zero()) {
            break;
        }
        let ends_at = if i + 1 < SCHEDULE.len() {
            left.map(|left| left.saturating_sub(left.mul_f64(SLICE_FRACTION)))
        } else {
            None
        };
        let mut slice = Slice {
            inner: &mut *ev,
            ends_at,
            best_seen: f64::INFINITY,
            since_improvement: 0,
            inner_spent: false,
        };
        let outcome = run_strategy(strategy, &mut slice);
        evaluations += outcome.evaluations;
        let satisfied = outcome.satisfied.is_some();
        if satisfied || outcome.best_score < best.best_score {
            best = outcome;
        }
        if satisfied || slice.inner_spent {
            break;
        }
    }
    best.evaluations = evaluations;
    best
}

/// One attempt's view of the evaluator: forwards everything, but reports
/// budget exhaustion once the attempt's time slice is spent *or* its best
/// score has stalled for [`STALL_LIMIT`] evaluations.
struct Slice<'a, E: SubsetEvaluator + ?Sized> {
    inner: &'a mut E,
    /// The attempt ends once the inner evaluator has this much time left;
    /// `None` when only the stall detector (and the inner budget) ends it.
    ends_at: Option<Duration>,
    best_seen: f64,
    since_improvement: usize,
    /// The inner evaluator denied an evaluation: its whole budget is spent,
    /// so no later attempt could evaluate anything either.
    inner_spent: bool,
}

impl<E: SubsetEvaluator + ?Sized> Slice<'_, E> {
    fn exhausted(&self) -> bool {
        self.since_improvement >= STALL_LIMIT
            || self.ends_at.is_some_and(|end| {
                self.inner.time_left().is_some_and(|left| left <= end)
            })
    }

    /// Feeds a score to the stall detector, or notes an inner denial.
    fn note(&mut self, score: Option<f64>) {
        match score {
            Some(s) if s < self.best_seen - 1e-12 => {
                self.best_seen = s;
                self.since_improvement = 0;
            }
            Some(_) => self.since_improvement += 1,
            None => self.inner_spent = true,
        }
    }
}

impl<E: SubsetEvaluator + ?Sized> SubsetEvaluator for Slice<'_, E> {
    fn n_features(&self) -> usize {
        self.inner.n_features()
    }
    fn max_features(&self) -> usize {
        self.inner.max_features()
    }
    fn evaluate(&mut self, subset: &[usize], bound: Option<f64>) -> Option<f64> {
        // Forward the caller's incumbent so the inner evaluator's
        // cheap-first short-circuit stays in play. A lower-bound answer
        // exceeds the incumbent by contract, so it feeds the stall detector
        // exactly like the exact score would (no improvement either way).
        if self.exhausted() {
            return None;
        }
        let score = self.inner.evaluate(subset, bound);
        self.note(score);
        score
    }
    fn evaluate_no_prune(&mut self, subset: &[usize], bound: Option<f64>) -> Option<f64> {
        if self.exhausted() {
            return None;
        }
        let score = self.inner.evaluate_no_prune(subset, bound);
        self.note(score);
        score
    }
    fn evaluate_multi(&mut self, subset: &[usize]) -> Option<Vec<f64>> {
        if self.exhausted() {
            return None;
        }
        let objectives = self.inner.evaluate_multi(subset);
        self.note(objectives.as_ref().map(|objs| objs.iter().sum()));
        objectives
    }
    fn stop_at(&self) -> Option<f64> {
        self.inner.stop_at()
    }
    fn ranking_data(&self) -> (&Matrix, &[bool]) {
        self.inner.ranking_data()
    }
    fn ranking(&mut self, kind: RankingKind) -> Ranking {
        // Forward so the inner evaluator's ranking cache stays in play.
        self.inner.ranking(kind)
    }
    fn importances(&mut self, subset: &[usize]) -> Option<Vec<f64>> {
        if self.exhausted() {
            return None;
        }
        let importances = self.inner.importances(subset);
        self.inner_spent |= importances.is_none();
        importances
    }
    fn seed(&self) -> u64 {
        self.inner.seed()
    }
    fn time_left(&self) -> Option<Duration> {
        self.inner.time_left()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::MockEvaluator;

    /// The subsets `strategy` evaluates alone on `ev`.
    fn alone(strategy: StrategyId, mut ev: MockEvaluator) -> Vec<Vec<usize>> {
        run_strategy(strategy, &mut ev);
        ev.log
    }

    /// 20 features and a target no subset reaches: every attempt fails.
    fn hopeless(max_evals: usize) -> MockEvaluator {
        MockEvaluator::new(20, vec![20], max_evals)
    }

    #[test]
    fn easy_scenario_is_won_by_the_first_strategy() {
        let easy = || MockEvaluator::new(12, vec![2, 9], 100_000);
        let mut ev = easy();
        let out = run_strategy(StrategyId::Switching, &mut ev);
        assert_eq!(out.satisfied.as_deref(), Some(&[2usize, 9][..]));
        assert_eq!(ev.log, alone(StrategyId::Sffs, easy()), "should not switch past SFFS");
        assert_eq!(out.evaluations, ev.used);
    }

    #[test]
    fn hopeless_scenario_exhausts_the_schedule() {
        let mut ev = hopeless(100_000);
        let out = run_strategy(StrategyId::Switching, &mut ev);
        assert!(out.satisfied.is_none());
        assert!(!out.best_subset.is_empty(), "best-effort subset still reported");
        // SFFS's first score is its best: the stall detector ends it after
        // 1 + STALL_LIMIT evaluations, and TPE(FCBF) takes over.
        let (sffs, n) = (STALL_LIMIT + 1, ev.log.len());
        assert_eq!(ev.log[..sffs], alone(StrategyId::Sffs, hopeless(sffs)));
        let fcbf = alone(StrategyId::TpeRanking(RankingKind::Fcbf), hopeless(n));
        let rest = &ev.log[sffs..];
        let tpe = rest.iter().zip(&fcbf).take_while(|(a, b)| a == b).count();
        assert!(tpe > 0, "TPE(FCBF) ran after SFFS");
        assert!(rest.len() > tpe, "the schedule moved on to TPE(NR)");
        let nr = alone(StrategyId::TpeNr, hopeless(n));
        assert!(nr.starts_with(&rest[tpe..]), "TPE(NR) ran last");
    }

    #[test]
    fn a_later_attempt_with_a_better_score_is_reported() {
        // Two of 60 features belong to a target no subset completes. SFFS
        // stalls on the first singletons before it reaches them; TPE(FCBF),
        // whose ranking puts them first, scores better.
        let mut ev = MockEvaluator::new(60, vec![58, 59, 60], 100_000);
        let out = run_strategy(StrategyId::Switching, &mut ev);
        assert!(out.satisfied.is_none());
        assert!(ev.log[..STALL_LIMIT + 1].iter().all(|s| s.len() == 1 && s[0] < 58));
        let best = &out.best_subset;
        assert!(best.contains(&58) || best.contains(&59), "{best:?}");
    }

    #[test]
    fn evaluations_accumulate_across_attempts() {
        let mut ev = hopeless(100_000);
        let out = run_strategy(StrategyId::Switching, &mut ev);
        assert!(ev.used > STALL_LIMIT + 1, "more than one attempt ran");
        assert_eq!(out.evaluations, ev.used);
    }

    /// On a clock that ticks 1 ms per evaluation, a 20 ms budget gives SFFS
    /// 40% of it (8 evaluations), TPE(FCBF) 40% of the 12 ms left (5), and
    /// TPE(NR) the remaining 7.
    #[test]
    fn each_attempt_gets_a_slice_of_the_time_left() {
        let mut ev = MockEvaluator { ms_left: Some(20), ..hopeless(100_000) };
        let out = run_strategy(StrategyId::Switching, &mut ev);
        let mut expected = alone(StrategyId::Sffs, hopeless(8));
        expected.extend(alone(StrategyId::TpeRanking(RankingKind::Fcbf), hopeless(5)));
        expected.extend(alone(StrategyId::TpeNr, hopeless(7)));
        assert_eq!(ev.log, expected);
        assert_eq!(out.evaluations, 20);
    }

    #[test]
    fn a_spent_budget_ends_the_schedule() {
        // The cap runs out inside SFFS, before the stall detector fires: the
        // TPE(FCBF) ranking is never requested.
        let mut ev = hopeless(10);
        let out = run_strategy(StrategyId::Switching, &mut ev);
        assert_eq!(ev.log, alone(StrategyId::Sffs, hopeless(10)));
        assert_eq!(ev.rankings, 0);
        assert_eq!(out.evaluations, 10);
    }
}
