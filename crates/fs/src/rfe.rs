//! Recursive feature elimination — RFE(Model) (Guyon et al., 2002).
//!
//! Backward selection guided by the model's feature-importance ranking
//! instead of wrapper evaluations of every removal: each round trains on the
//! current subset, asks for importances (native scores, or permutation
//! importance when the model has none — the paper's NB fallback, which is
//! what makes RFE slow under NB), drops the least important feature, and
//! evaluates the shrunken subset.

use crate::evaluator::{SearchOutcome, SubsetEvaluator};

/// Runs RFE from the full feature set down to a single feature.
pub fn recursive_feature_elimination(ev: &mut dyn SubsetEvaluator) -> SearchOutcome {
    let d = ev.n_features();
    let cap = ev.max_features().min(d);
    let stop_at = ev.stop_at();
    let mut outcome = SearchOutcome::empty();
    if d == 0 {
        return outcome;
    }

    let mut current: Vec<usize> = (0..d).collect();

    // Evaluate the starting set when it fits the cap.
    if current.len() <= cap {
        let Some(score) = ev.evaluate(&current, None) else {
            return outcome;
        };
        outcome.observe(&current, score);
        if stop_at.is_some_and(|t| score <= t) {
            return outcome;
        }
    }

    while current.len() > 1 {
        let Some(importances) = ev.importances(&current) else {
            return outcome;
        };
        debug_assert_eq!(importances.len(), current.len(), "importances align with subset");
        // Drop the least important feature (ties: lowest index for
        // determinism; importances are finite, so the Equal fallback is
        // unreachable).
        let Some(weakest) = importances
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal))
            .map(|(pos, _)| pos)
        else {
            return outcome; // current.len() > 1, so importances is non-empty
        };
        current.remove(weakest);

        if current.len() > cap {
            continue; // evaluation-independent pruning: skip over-cap sizes
        }
        let Some(score) = ev.evaluate(&current, None) else {
            return outcome;
        };
        outcome.observe(&current, score);
        if stop_at.is_some_and(|t| score <= t) {
            return outcome;
        }
    }
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::MockEvaluator;

    #[test]
    fn eliminates_down_to_the_important_features() {
        // Mock importances: target features get 1.0, others 0.01, so RFE
        // strips exactly the non-target features first.
        let mut ev = MockEvaluator::new(8, vec![2, 6], 10_000);
        let out = recursive_feature_elimination(&mut ev);
        assert_eq!(out.satisfied.as_deref(), Some(&[2usize, 6][..]));
    }

    #[test]
    fn consumes_one_importance_plus_one_eval_per_round() {
        let mut ev = MockEvaluator::new(5, vec![0], 10_000);
        let out = recursive_feature_elimination(&mut ev);
        assert!(out.satisfied.is_some());
        // Rounds: eval(full) + 4x (importance + eval) at most.
        assert!(ev.used <= 9, "used {}", ev.used);
    }

    #[test]
    fn skips_over_cap_evaluations() {
        let mut ev = MockEvaluator::new(6, vec![1], 10_000);
        ev.max_features = 2;
        let out = recursive_feature_elimination(&mut ev);
        assert!(out.satisfied.is_some());
        assert!(ev.log.iter().all(|s| s.len() <= 2), "log {:?}", ev.log);
    }

    #[test]
    fn budget_exhaustion_mid_elimination() {
        let mut ev = MockEvaluator::new(10, vec![0], 4);
        let out = recursive_feature_elimination(&mut ev);
        assert!(out.satisfied.is_none());
        assert!(ev.used <= 4);
    }
}
