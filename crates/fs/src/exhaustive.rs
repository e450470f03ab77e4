//! Exhaustive search — ES(NR).
//!
//! Enumerates every feature combination, smallest subsets first (within the
//! Max Feature Set Size cap), so the 2^N blow-up at least visits the cheap,
//! constraint-friendly small subsets before the budget dies. This matches
//! the paper's observation that ES covers a surprising number of scenarios
//! on small datasets and none on large ones.

use crate::evaluator::{SearchOutcome, SubsetEvaluator};

/// Runs exhaustive search, sizes ascending, lexicographic within a size.
pub fn exhaustive_search(ev: &mut dyn SubsetEvaluator) -> SearchOutcome {
    let d = ev.n_features();
    let cap = ev.max_features().min(d);
    let stop_at = ev.stop_at();
    let mut outcome = SearchOutcome::empty();

    for size in 1..=cap {
        let mut combo: Vec<usize> = (0..size).collect();
        loop {
            let Some(score) = ev.evaluate(&combo, None) else {
                return outcome;
            };
            outcome.observe(&combo, score);
            if stop_at.is_some_and(|t| score <= t) {
                return outcome;
            }
            if !next_combination(&mut combo, d) {
                break;
            }
        }
    }
    outcome
}

/// Advances `combo` to the next k-combination of `0..d` in lexicographic
/// order; returns `false` when exhausted.
fn next_combination(combo: &mut [usize], d: usize) -> bool {
    let k = combo.len();
    let mut i = k;
    while i > 0 {
        i -= 1;
        if combo[i] < d - k + i {
            combo[i] += 1;
            for j in i + 1..k {
                combo[j] = combo[j - 1] + 1;
            }
            return true;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::MockEvaluator;

    #[test]
    fn combination_iterator_is_complete_and_ordered() {
        let mut combo = vec![0, 1];
        let mut all = vec![combo.clone()];
        while next_combination(&mut combo, 4) {
            all.push(combo.clone());
        }
        assert_eq!(all, vec![
            vec![0, 1], vec![0, 2], vec![0, 3],
            vec![1, 2], vec![1, 3], vec![2, 3],
        ]);
    }

    #[test]
    fn visits_small_subsets_first() {
        let mut ev = MockEvaluator::new(5, vec![0, 1, 2, 3, 4], 1000);
        let _ = exhaustive_search(&mut ev);
        // Sizes in the log must be non-decreasing.
        for w in ev.log.windows(2) {
            assert!(w[0].len() <= w[1].len(), "{:?} before {:?}", w[0], w[1]);
        }
        // Full enumeration = 2^5 - 1 non-empty subsets.
        assert_eq!(ev.log.len(), 31);
    }

    #[test]
    fn stops_at_first_satisfying_subset() {
        let mut ev = MockEvaluator::new(6, vec![1], 1000);
        let out = exhaustive_search(&mut ev);
        assert_eq!(out.satisfied.as_deref(), Some(&[1usize][..]));
        // {0} then {1}: exactly two evaluations.
        assert_eq!(ev.used, 2);
    }

    #[test]
    fn respects_feature_cap() {
        let mut ev = MockEvaluator::new(6, vec![0, 1, 2], 10_000);
        ev.max_features = 2;
        let out = exhaustive_search(&mut ev);
        assert!(out.satisfied.is_none());
        assert!(ev.log.iter().all(|s| s.len() <= 2));
        // C(6,1) + C(6,2) = 6 + 15.
        assert_eq!(ev.used, 21);
    }

    #[test]
    fn budget_cuts_enumeration_short() {
        let mut ev = MockEvaluator::new(10, vec![9, 8], 7);
        let out = exhaustive_search(&mut ev);
        assert_eq!(out.evaluations, 7);
        assert!(out.satisfied.is_none());
    }
}
