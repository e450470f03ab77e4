//! Lightweight performance counters for the evaluation engine.
//!
//! Every [`crate::scenario::ScenarioContext`] accumulates one [`EvalPerf`]
//! over its lifetime; the workflow copies it into the
//! [`crate::workflow::DfsOutcome`], and the runner forwards it into the
//! benchmark matrix cell, so "how much work did this arm actually do" is a
//! first-class column of the study rather than something recovered from
//! ad-hoc logging.

/// Work counters for one strategy run (one matrix cell).
///
/// Counting is plain field increments — no atomics, no sampling — so the
/// counters cost nothing measurable and are exact, not estimates. Parallel
/// regions give each work item its own local `EvalPerf` and fold the
/// locals back with [`EvalPerf::merge`] *in item order*; `merge` is
/// associative and `EvalPerf::default()` is its identity, so the totals
/// are bit-identical to a sequential run at any thread count. Timings are
/// not counters: they live in the observability spans (`gather`, `fit`,
/// `attack`, `ranking.compute.*`) that the benchmark ledger reads.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EvalPerf {
    /// Models trained (wrapper evaluations, test confirmations, RFE
    /// importance fits). HPO grid search counts as one fit here: the grid
    /// is internal to the model layer.
    pub model_fits: u64,
    /// Wrapper evaluations or importance requests served from the
    /// per-context result cache (no training, no budget spend).
    pub cache_hits: u64,
    /// Feature rankings computed from scratch.
    pub ranking_computes: u64,
    /// Feature rankings served from the shared per-row artifact cache.
    pub ranking_hits: u64,
    /// Hyperparameter grid points evaluated by HPO searches.
    pub hpo_grid_points: u64,
    /// Subset evaluations served from the evaluation memo of the
    /// [`ArtifactCache`] (budget consumed, but no training).
    ///
    /// [`ArtifactCache`]: crate::artifacts::ArtifactCache
    pub memo_hits: u64,
    /// Subset evaluations that probed the memo and missed (the
    /// measurement then ran and was inserted).
    pub memo_misses: u64,
    /// Candidate measurements cut short by the cheap-first lower-bound
    /// short-circuit — the evasion attack (and its fit, when the cheaper
    /// terms alone already exceeded the incumbent) was skipped.
    pub bound_skips: u64,
}

impl EvalPerf {
    /// Accumulates another counter set into this one (matrix-level
    /// aggregation).
    pub fn merge(&mut self, other: &EvalPerf) {
        self.model_fits += other.model_fits;
        self.cache_hits += other.cache_hits;
        self.ranking_computes += other.ranking_computes;
        self.ranking_hits += other.ranking_hits;
        self.hpo_grid_points += other.hpo_grid_points;
        self.memo_hits += other.memo_hits;
        self.memo_misses += other.memo_misses;
        self.bound_skips += other.bound_skips;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_is_componentwise_addition() {
        let mut a = EvalPerf { model_fits: 1, cache_hits: 2, ..EvalPerf::default() };
        let b = EvalPerf {
            model_fits: 3,
            ranking_computes: 4,
            ranking_hits: 5,
            hpo_grid_points: 11,
            memo_hits: 12,
            memo_misses: 13,
            bound_skips: 14,
            ..EvalPerf::default()
        };
        a.merge(&b);
        assert_eq!(
            a,
            EvalPerf {
                model_fits: 4,
                cache_hits: 2,
                ranking_computes: 4,
                ranking_hits: 5,
                hpo_grid_points: 11,
                memo_hits: 12,
                memo_misses: 13,
                bound_skips: 14,
            }
        );
    }

    #[test]
    fn merge_is_associative_and_identity_respecting() {
        let samples = [
            EvalPerf { model_fits: 1, cache_hits: 9, ..EvalPerf::default() },
            EvalPerf { ranking_computes: 3, ..EvalPerf::default() },
            EvalPerf { model_fits: 5, ranking_hits: 4, ..EvalPerf::default() },
            EvalPerf { hpo_grid_points: 2, cache_hits: 1, ..EvalPerf::default() },
            EvalPerf { memo_hits: 8, memo_misses: 3, bound_skips: 2, ..EvalPerf::default() },
        ];
        let [a, b, c, d, e] = samples;

        // (((a + b) + c) + d) + e == a + (((b + c) + d) + e)
        let mut left = a;
        left.merge(&b);
        left.merge(&c);
        left.merge(&d);
        left.merge(&e);
        let mut bcde = b;
        bcde.merge(&c);
        bcde.merge(&d);
        bcde.merge(&e);
        let mut right = a;
        right.merge(&bcde);
        assert_eq!(left, right);

        // default() is the identity on both sides.
        for s in samples {
            let mut with_left_id = EvalPerf::default();
            with_left_id.merge(&s);
            assert_eq!(with_left_id, s);
            let mut with_right_id = s;
            with_right_id.merge(&EvalPerf::default());
            assert_eq!(with_right_id, s);
        }
    }
}
