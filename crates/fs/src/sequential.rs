//! Sequential selection strategies: SFS, SBS and their floating variants.
//!
//! Aha & Bankert's sequential selection (O(N²) evaluations) plus Pudil,
//! Novovičová & Kittler's floating extension: after every forward step, try
//! backward steps while they improve (and vice versa). All four share the
//! evaluation-independent pruning rule: subsets beyond
//! [`SubsetEvaluator::max_features`] are never proposed — the reason forward
//! selection dominates under size/privacy/safety constraints in the paper.

use crate::evaluator::{SearchOutcome, SubsetEvaluator};

/// Sequential forward selection; `floating` enables SFFS.
// `current_score` is only consulted on the floating path; the plain-SFS
// assignments trip the lint but keep the two variants symmetric.
#[allow(unused_assignments)]
pub fn forward_selection(ev: &mut dyn SubsetEvaluator, floating: bool) -> SearchOutcome {
    let d = ev.n_features();
    let cap = ev.max_features().min(d);
    let stop_at = ev.stop_at();
    let mut outcome = SearchOutcome::empty();
    if d == 0 {
        return outcome;
    }

    let mut current: Vec<usize> = Vec::new();
    let mut current_score = f64::INFINITY;

    while current.len() < cap {
        // Try adding each remaining feature; keep the best. The round's
        // incumbent rides along as a lower-bound hint: a candidate whose
        // cheap constraint terms already exceed it cannot win the round,
        // so the evaluator may skip the expensive tail of its measurement.
        // (Only sound for non-negative scores, hence the stop_at gate.)
        let mut best_add: Option<(usize, f64)> = None;
        for f in 0..d {
            if current.contains(&f) {
                continue;
            }
            let mut candidate = current.clone();
            candidate.push(f);
            candidate.sort_unstable();
            let bound = if stop_at.is_some() { best_add.map(|(_, s)| s) } else { None };
            let Some(score) = ev.evaluate(&candidate, bound) else {
                return outcome;
            };
            outcome.observe(&candidate, score);
            if hit(stop_at, score) {
                return outcome;
            }
            if best_add.map(|(_, s)| score < s).unwrap_or(true) {
                best_add = Some((f, score));
            }
        }
        let Some((f, score)) = best_add else { break };
        // Plain SFS always takes the best addition (it explores larger
        // sets even when the score briefly worsens); it terminates at the
        // size cap.
        current.push(f);
        current.sort_unstable();
        current_score = score;

        if floating {
            // SFFS: drop features while doing so improves the score.
            loop {
                if current.len() <= 1 {
                    break;
                }
                let mut best_drop: Option<(usize, f64)> = None;
                for (pos, _) in current.iter().enumerate() {
                    let mut candidate = current.clone();
                    let dropped = candidate.remove(pos);
                    // Don't immediately undo the feature we just added.
                    if dropped == f {
                        continue;
                    }
                    // Drops are only accepted below `current_score`, so
                    // the bound tightens to the smaller of the round's
                    // incumbent and the score to beat.
                    let bound = stop_at
                        .is_some()
                        .then(|| best_drop.map_or(current_score, |(_, s)| s.min(current_score)));
                    let Some(score) = ev.evaluate(&candidate, bound) else {
                        return outcome;
                    };
                    outcome.observe(&candidate, score);
                    if hit(stop_at, score) {
                        return outcome;
                    }
                    if best_drop.map(|(_, s)| score < s).unwrap_or(true) {
                        best_drop = Some((pos, score));
                    }
                }
                match best_drop {
                    Some((pos, score)) if score < current_score => {
                        current.remove(pos);
                        current_score = score;
                    }
                    _ => break,
                }
            }
        }
    }
    outcome
}

/// Sequential backward selection; `floating` enables SBFS.
#[allow(unused_assignments)]
pub fn backward_selection(ev: &mut dyn SubsetEvaluator, floating: bool) -> SearchOutcome {
    let d = ev.n_features();
    let stop_at = ev.stop_at();
    let mut outcome = SearchOutcome::empty();
    if d == 0 {
        return outcome;
    }

    let mut current: Vec<usize> = (0..d).collect();
    // Backward selection starts from the full set and wraps through the
    // over-cap region the expensive way: the paper notes SBS/SBFS "do not
    // benefit from the optimizations based on the maximum feature set
    // size", which is exactly why they are slow under small-subset
    // constraints. Hence `evaluate_no_prune` throughout.
    let cap = ev.max_features().min(d);
    let mut current_score = {
        let Some(score) = ev.evaluate_no_prune(&current, None) else {
            return outcome;
        };
        outcome.observe(&current, score);
        if hit(stop_at, score) {
            return outcome;
        }
        score
    };

    while current.len() > 1 {
        let mut best_drop: Option<(usize, f64)> = None;
        for pos in 0..current.len() {
            let mut candidate = current.clone();
            candidate.remove(pos);
            // Same lower-bound hint as forward selection: the round's
            // incumbent rides along (sound only for non-negative scores).
            let bound = if stop_at.is_some() { best_drop.map(|(_, s)| s) } else { None };
            let Some(score) = ev.evaluate_no_prune(&candidate, bound) else {
                return outcome;
            };
            outcome.observe(&candidate, score);
            if hit(stop_at, score) {
                return outcome;
            }
            if best_drop.map(|(_, s)| score < s).unwrap_or(true) {
                best_drop = Some((pos, score));
            }
        }
        let Some((pos, score)) = best_drop else { break };
        let removed = current.remove(pos);
        current_score = score;

        if floating {
            // SBFS: re-add previously removed features while it improves.
            loop {
                if current.len() + 1 > cap {
                    break;
                }
                let mut best_add: Option<(usize, f64)> = None;
                for f in 0..d {
                    if f == removed || current.contains(&f) {
                        continue;
                    }
                    let mut candidate = current.clone();
                    candidate.push(f);
                    candidate.sort_unstable();
                    // Re-adds are only accepted below `current_score`.
                    let bound = stop_at
                        .is_some()
                        .then(|| best_add.map_or(current_score, |(_, s)| s.min(current_score)));
                    let Some(score) = ev.evaluate(&candidate, bound) else {
                        return outcome;
                    };
                    outcome.observe(&candidate, score);
                    if hit(stop_at, score) {
                        return outcome;
                    }
                    if best_add.map(|(_, s)| score < s).unwrap_or(true) {
                        best_add = Some((f, score));
                    }
                }
                match best_add {
                    Some((f, score)) if score < current_score => {
                        current.push(f);
                        current.sort_unstable();
                        current_score = score;
                    }
                    _ => break,
                }
            }
        }
    }
    outcome
}

#[inline]
fn hit(stop_at: Option<f64>, score: f64) -> bool {
    stop_at.is_some_and(|t| score <= t)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::MockEvaluator;

    #[test]
    fn sfs_finds_singleton_target_in_one_round() {
        let mut ev = MockEvaluator::new(8, vec![5], 1000);
        let out = forward_selection(&mut ev, false);
        assert_eq!(out.satisfied.as_deref(), Some(&[5usize][..]));
        // One forward round = at most d evaluations.
        assert!(ev.used <= 8, "used {}", ev.used);
    }

    #[test]
    fn sfs_respects_max_features_cap() {
        let mut ev = MockEvaluator::new(8, vec![1, 2, 3, 4, 5], 10_000);
        ev.max_features = 2; // target needs 5 -> unsatisfiable under the cap
        let out = forward_selection(&mut ev, false);
        assert!(out.satisfied.is_none());
        for subset in &ev.log {
            assert!(subset.len() <= 2, "proposed over-cap subset {subset:?}");
        }
    }

    #[test]
    fn sffs_recovers_from_a_greedy_mistake() {
        // Custom scoring where greedy forward picks a decoy first: feature 9
        // alone looks best, but the true target is {0, 1} and the decoy
        // must be floated out.
        struct Tricky {
            used: usize,
            log: Vec<Vec<usize>>,
        }
        impl SubsetEvaluator for Tricky {
            fn n_features(&self) -> usize {
                10
            }
            fn max_features(&self) -> usize {
                10
            }
            fn evaluate(&mut self, subset: &[usize], _bound: Option<f64>) -> Option<f64> {
                self.used += 1;
                self.log.push(subset.to_vec());
                let has = |f: usize| subset.contains(&f);
                // Target {0,1}: distance 0. Decoy 9 alone: 0.05 (best
                // single). Anything else: worse.
                let score = match (has(0), has(1), has(9), subset.len()) {
                    (true, true, false, 2) => 0.0,
                    (false, false, true, 1) => 0.05,
                    _ => {
                        let good = has(0) as usize + has(1) as usize;
                        0.3 - 0.1 * good as f64 + 0.02 * subset.len() as f64
                    }
                };
                Some(score)
            }
            fn evaluate_multi(&mut self, _s: &[usize]) -> Option<Vec<f64>> {
                unreachable!()
            }
            fn stop_at(&self) -> Option<f64> {
                Some(0.0)
            }
            fn ranking_data(&self) -> (&dfs_linalg::Matrix, &[bool]) {
                unreachable!()
            }
            fn importances(&mut self, _s: &[usize]) -> Option<Vec<f64>> {
                unreachable!()
            }
            fn seed(&self) -> u64 {
                0
            }
        }
        let mut ev = Tricky { used: 0, log: Vec::new() };
        let out = forward_selection(&mut ev, true);
        assert_eq!(out.satisfied.as_deref(), Some(&[0usize, 1][..]), "best {:?}", out.best_subset);
    }

    #[test]
    fn sbs_walks_down_from_full_set() {
        let mut ev = MockEvaluator::new(6, vec![0, 1, 2, 3, 4, 5], 1000);
        // Target = full set: satisfied immediately by the first evaluation.
        let out = backward_selection(&mut ev, false);
        assert_eq!(out.satisfied.as_deref(), Some(&[0usize, 1, 2, 3, 4, 5][..]));
        assert_eq!(ev.used, 1);
    }

    #[test]
    fn sbs_finds_smaller_targets_with_more_work() {
        let mut ev = MockEvaluator::new(6, vec![2, 4], 10_000);
        let out = backward_selection(&mut ev, false);
        assert_eq!(out.satisfied.as_deref(), Some(&[2usize, 4][..]));
        assert!(ev.used > 10, "backward should need many evals, used {}", ev.used);
    }

    #[test]
    fn sbfs_readds_when_beneficial() {
        let mut ev = MockEvaluator::new(6, vec![1, 3], 10_000);
        let out = backward_selection(&mut ev, true);
        assert_eq!(out.satisfied.as_deref(), Some(&[1usize, 3][..]));
    }

    #[test]
    fn lower_bounded_answers_leave_the_search_trajectory_unchanged() {
        // Exercises the `evaluate` bound contract end to end: when the
        // exact score provably exceeds the caller's incumbent, the
        // evaluator answers with a weaker value strictly between the
        // incumbent and the exact score. The search must pick identical
        // subsets, scores and evaluation counts either way.
        struct Bounding {
            inner: MockEvaluator,
            skips: usize,
        }
        impl SubsetEvaluator for Bounding {
            fn n_features(&self) -> usize {
                self.inner.n_features()
            }
            fn max_features(&self) -> usize {
                self.inner.max_features()
            }
            fn evaluate(&mut self, s: &[usize], bound: Option<f64>) -> Option<f64> {
                let score = self.inner.evaluate(s, None)?;
                match bound {
                    Some(b) if score > b => {
                        self.skips += 1;
                        Some((b + score) / 2.0) // a valid lower bound in (b, score]
                    }
                    _ => Some(score),
                }
            }
            fn evaluate_multi(&mut self, s: &[usize]) -> Option<Vec<f64>> {
                self.inner.evaluate_multi(s)
            }
            fn stop_at(&self) -> Option<f64> {
                self.inner.stop_at()
            }
            fn ranking_data(&self) -> (&dfs_linalg::Matrix, &[bool]) {
                self.inner.ranking_data()
            }
            fn importances(&mut self, s: &[usize]) -> Option<Vec<f64>> {
                self.inner.importances(s)
            }
            fn seed(&self) -> u64 {
                self.inner.seed()
            }
        }

        for floating in [false, true] {
            let mut exact = MockEvaluator::new(8, vec![2, 5], 10_000);
            let reference = forward_selection(&mut exact, floating);
            let mut bounded =
                Bounding { inner: MockEvaluator::new(8, vec![2, 5], 10_000), skips: 0 };
            let out = forward_selection(&mut bounded, floating);
            assert_eq!(out.satisfied, reference.satisfied, "floating={floating}");
            assert_eq!(out.best_subset, reference.best_subset);
            assert_eq!(out.best_score, reference.best_score);
            assert_eq!(out.evaluations, reference.evaluations);
            assert!(bounded.skips > 0, "the bound hint should have fired");

            let mut exact = MockEvaluator::new(6, vec![1, 4], 10_000);
            let reference = backward_selection(&mut exact, floating);
            let mut bounded =
                Bounding { inner: MockEvaluator::new(6, vec![1, 4], 10_000), skips: 0 };
            let out = backward_selection(&mut bounded, floating);
            assert_eq!(out.satisfied, reference.satisfied, "floating={floating}");
            assert_eq!(out.best_subset, reference.best_subset);
            assert_eq!(out.best_score, reference.best_score);
            assert_eq!(out.evaluations, reference.evaluations);
            assert!(bounded.skips > 0, "the bound hint should have fired");
        }
    }

    #[test]
    fn budget_exhaustion_returns_partial_outcome() {
        let mut ev = MockEvaluator::new(10, vec![7], 3);
        let out = forward_selection(&mut ev, false);
        assert_eq!(out.evaluations, 3);
        assert!(!out.best_subset.is_empty());
    }

    #[test]
    fn utility_mode_keeps_enlarging_satisfied_sets() {
        // In utility mode (stop_at = None) the mock rewards bigger subsets
        // once... the mock only satisfies exactly on target, so SFS should
        // still find the target but keep searching afterwards.
        let mut ev = MockEvaluator::new(5, vec![2], 10_000);
        ev.utility_mode = true;
        let out = forward_selection(&mut ev, false);
        assert!(out.satisfied.is_some());
        // With stop_at = None, the pass continues past satisfaction.
        assert!(ev.used > 5, "should not early-stop in utility mode, used {}", ev.used);
    }
}
