//! The 16 feature-selection strategies of the study (paper § 4.2).
//!
//! Every strategy implements the *wrapper* approach (Kohavi & John): it
//! proposes feature subsets and judges them by actually training and
//! evaluating the user's model — abstracted here as a [`SubsetEvaluator`]
//! whose `evaluate` returns the constraint-distance objective (Eq. 1) or the
//! utility objective (Eq. 2) to minimize, or `None` once the search budget
//! (the mandatory Max Search Time constraint) is exhausted.
//!
//! | taxonomy leaf | strategies |
//! |---|---|
//! | exhaustive | ES(NR) |
//! | sequential, no ranking | SFS(NR), SBS(NR), SFFS(NR), SBFS(NR) |
//! | sequential, ranking | RFE(Model) |
//! | randomized, ranking | TPE(χ²/Variance/Fisher/MIM/FCBF/ReliefF/MCFS) |
//! | randomized, no ranking | TPE(NR), SA(NR) |
//! | multi-objective | NSGA-II(NR) |
//!
//! See [`StrategyId`] for the registry and [`run_strategy`] for the entry
//! point. One more id, [`StrategyId::Switching`] (`auto`), runs a fixed
//! schedule of them, switching when an attempt stalls (§ 7 future work).

pub mod evaluator;
pub mod exhaustive;
pub mod rfe;
pub mod randomized;
pub mod sequential;
mod switching;

pub use evaluator::{SearchOutcome, SubsetEvaluator};

use dfs_rankings::RankingKind;

/// Identifier of one of the 16 strategies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StrategyId {
    /// Exhaustive search, sizes ascending.
    Es,
    /// Sequential forward selection.
    Sfs,
    /// Sequential backward selection.
    Sbs,
    /// Sequential forward floating selection (Pudil et al.).
    Sffs,
    /// Sequential backward floating selection.
    Sbfs,
    /// Recursive feature elimination on model importances.
    Rfe,
    /// Top-`k` search (TPE) over a precomputed ranking.
    TpeRanking(RankingKind),
    /// TPE over the raw binary decision vector.
    TpeNr,
    /// Simulated annealing over the binary decision vector.
    SaNr,
    /// NSGA-II with one objective per constraint.
    Nsga2Nr,
    /// `auto`: dynamic switching over a fixed schedule of the strategies
    /// above (paper § 7, future work). Not one of the 16.
    Switching,
}

impl StrategyId {
    /// All 16 strategies, in the paper's Table 3 row order.
    pub fn all() -> Vec<StrategyId> {
        let mut v = vec![
            StrategyId::Sbs,
            StrategyId::Sbfs,
            StrategyId::Rfe,
            StrategyId::TpeRanking(RankingKind::Mcfs),
            StrategyId::TpeRanking(RankingKind::ReliefF),
            StrategyId::TpeRanking(RankingKind::Variance),
            StrategyId::TpeNr,
            StrategyId::Nsga2Nr,
            StrategyId::TpeRanking(RankingKind::Mim),
            StrategyId::SaNr,
            StrategyId::Es,
            StrategyId::TpeRanking(RankingKind::Fisher),
            StrategyId::TpeRanking(RankingKind::Chi2),
            StrategyId::Sfs,
            StrategyId::Sffs,
            StrategyId::TpeRanking(RankingKind::Fcbf),
        ];
        debug_assert_eq!(v.len(), 16);
        v.dedup();
        v
    }

    /// Display name matching the paper's tables.
    pub fn name(&self) -> String {
        match self {
            StrategyId::Es => "ES(NR)".into(),
            StrategyId::Sfs => "SFS(NR)".into(),
            StrategyId::Sbs => "SBS(NR)".into(),
            StrategyId::Sffs => "SFFS(NR)".into(),
            StrategyId::Sbfs => "SBFS(NR)".into(),
            StrategyId::Rfe => "RFE(Model)".into(),
            StrategyId::TpeRanking(r) => format!("TPE({})", r.name()),
            StrategyId::TpeNr => "TPE(NR)".into(),
            StrategyId::SaNr => "SA(NR)".into(),
            StrategyId::Nsga2Nr => "NSGA-II(NR)".into(),
            StrategyId::Switching => "auto".into(),
        }
    }
}

/// Runs a strategy against an evaluator until it satisfies the scenario,
/// exhausts the budget, or finishes its schedule.
pub fn run_strategy(id: StrategyId, ev: &mut dyn SubsetEvaluator) -> SearchOutcome {
    match id {
        StrategyId::Es => exhaustive::exhaustive_search(ev),
        StrategyId::Sfs => sequential::forward_selection(ev, false),
        StrategyId::Sffs => sequential::forward_selection(ev, true),
        StrategyId::Sbs => sequential::backward_selection(ev, false),
        StrategyId::Sbfs => sequential::backward_selection(ev, true),
        StrategyId::Rfe => rfe::recursive_feature_elimination(ev),
        StrategyId::TpeRanking(kind) => randomized::tpe_ranking(ev, kind),
        StrategyId::TpeNr => randomized::tpe_no_ranking(ev),
        StrategyId::SaNr => randomized::sa_no_ranking(ev),
        StrategyId::Nsga2Nr => randomized::nsga2_no_ranking(ev),
        StrategyId::Switching => switching::run_schedule(ev),
    }
}

#[cfg(test)]
pub(crate) mod testutil {
    use super::evaluator::SubsetEvaluator;
    use dfs_linalg::Matrix;
    use dfs_rankings::{Ranking, RankingKind};
    use std::time::Duration;

    /// A synthetic evaluator with a known satisfying subset.
    ///
    /// Distance = 0.1·(#target features missing) + 0.05·(#extra features),
    /// so the scenario is satisfied exactly on the target subset, greedy
    /// moves are informative, and extra features hurt less than missing
    /// ones (mirroring real accuracy/constraint trade-offs). With
    /// `ms_left` set, a clock ticks 1 ms per evaluation and denies the
    /// evaluation once it reads zero.
    pub struct MockEvaluator {
        pub target: Vec<usize>,
        pub d: usize,
        pub max_evals: usize,
        pub used: usize,
        pub max_features: usize,
        pub utility_mode: bool,
        pub x: Matrix,
        pub y: Vec<bool>,
        pub log: Vec<Vec<usize>>,
        pub ms_left: Option<u64>,
        pub rankings: usize,
    }

    impl MockEvaluator {
        pub fn new(d: usize, target: Vec<usize>, max_evals: usize) -> Self {
            // Ranking data: target features separate classes, rest are noise.
            let n = 60;
            let mut rows = Vec::with_capacity(n);
            let mut y = Vec::with_capacity(n);
            for i in 0..n {
                let label = i % 2 == 0;
                let mut row = Vec::with_capacity(d);
                for j in 0..d {
                    if target.contains(&j) {
                        row.push(if label { 0.9 } else { 0.1 });
                    } else {
                        row.push(((i * (j + 3)) as f64 * 0.618) % 1.0);
                    }
                }
                rows.push(row);
                y.push(label);
            }
            Self {
                target,
                d,
                max_evals,
                used: 0,
                max_features: d,
                utility_mode: false,
                x: Matrix::from_rows(&rows),
                y,
                log: Vec::new(),
                ms_left: None,
                rankings: 0,
            }
        }

        /// Spends one evaluation of the budget; `false` when it is spent.
        fn spend(&mut self) -> bool {
            if self.used >= self.max_evals || self.ms_left == Some(0) {
                return false;
            }
            self.used += 1;
            if let Some(ms) = &mut self.ms_left {
                *ms -= 1;
            }
            true
        }

        fn distance(&self, subset: &[usize]) -> f64 {
            let missing =
                self.target.iter().filter(|t| !subset.contains(t)).count() as f64;
            let extra =
                subset.iter().filter(|f| !self.target.contains(f)).count() as f64;
            0.1 * missing + 0.05 * extra
        }
    }

    impl SubsetEvaluator for MockEvaluator {
        fn n_features(&self) -> usize {
            self.d
        }

        fn max_features(&self) -> usize {
            self.max_features
        }

        fn evaluate(&mut self, subset: &[usize], _bound: Option<f64>) -> Option<f64> {
            if !self.spend() {
                return None;
            }
            self.log.push(subset.to_vec());
            let d = self.distance(subset);
            if self.utility_mode && d == 0.0 {
                // Eq. 2: maximize a utility that grows with subset size.
                Some(-(subset.len() as f64) / self.d as f64)
            } else {
                Some(d)
            }
        }

        fn evaluate_multi(&mut self, subset: &[usize]) -> Option<Vec<f64>> {
            if !self.spend() {
                return None;
            }
            self.log.push(subset.to_vec());
            let missing =
                self.target.iter().filter(|t| !subset.contains(t)).count() as f64;
            let extra =
                subset.iter().filter(|f| !self.target.contains(f)).count() as f64;
            Some(vec![0.1 * missing, 0.05 * extra])
        }

        fn stop_at(&self) -> Option<f64> {
            if self.utility_mode {
                None
            } else {
                Some(0.0)
            }
        }

        fn ranking_data(&self) -> (&Matrix, &[bool]) {
            (&self.x, &self.y)
        }

        fn importances(&mut self, subset: &[usize]) -> Option<Vec<f64>> {
            if !self.spend() {
                return None;
            }
            Some(
                subset
                    .iter()
                    .map(|f| if self.target.contains(f) { 1.0 } else { 0.01 })
                    .collect(),
            )
        }

        fn ranking(&mut self, kind: RankingKind) -> Ranking {
            self.rankings += 1;
            kind.compute(&self.x, &self.y, self.seed())
        }

        fn seed(&self) -> u64 {
            7
        }

        fn time_left(&self) -> Option<Duration> {
            self.ms_left.map(Duration::from_millis)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::testutil::MockEvaluator;
    use super::*;

    #[test]
    fn registry_has_16_distinct_strategies() {
        let all = StrategyId::all();
        assert_eq!(all.len(), 16);
        let names: std::collections::HashSet<String> = all.iter().map(|s| s.name()).collect();
        assert_eq!(names.len(), 16);
        assert!(names.contains("SFFS(NR)"));
        assert!(names.contains("TPE(Chi2)"));
        assert!(names.contains("NSGA-II(NR)"));
    }

    #[test]
    fn every_strategy_solves_an_easy_scenario() {
        // 6 features, target {1}: small enough for everyone. (A singleton
        // target keeps the scenario fair for MCFS, whose lasso step zeroes
        // out duplicated/correlated columns by design.)
        for id in StrategyId::all().into_iter().chain([StrategyId::Switching]) {
            let mut ev = MockEvaluator::new(6, vec![1], 100_000);
            let outcome = run_strategy(id, &mut ev);
            assert_eq!(
                outcome.satisfied.as_deref(),
                Some(&[1usize][..]),
                "{} failed: best {:?} score {}",
                id.name(),
                outcome.best_subset,
                outcome.best_score
            );
        }
    }

    #[test]
    fn every_strategy_respects_budget_exhaustion() {
        for id in StrategyId::all().into_iter().chain([StrategyId::Switching]) {
            let mut ev = MockEvaluator::new(10, vec![0, 3, 7], 5);
            let outcome = run_strategy(id, &mut ev);
            assert!(ev.used <= 5, "{} overspent: {}", id.name(), ev.used);
            // With only 5 evaluations nothing is guaranteed, but the outcome
            // must be well-formed.
            assert!(outcome.evaluations <= 5, "{}", id.name());
        }
    }

    #[test]
    fn forward_strategies_need_few_evals_for_small_targets() {
        // The paper's core finding: forward selection finds small satisfying
        // sets quickly; backward selection burns the budget.
        let mut fwd = MockEvaluator::new(20, vec![3], 100_000);
        let fwd_out = run_strategy(StrategyId::Sfs, &mut fwd);
        assert!(fwd_out.satisfied.is_some());
        let fwd_cost = fwd.used;

        let mut bwd = MockEvaluator::new(20, vec![3], 100_000);
        let bwd_out = run_strategy(StrategyId::Sbs, &mut bwd);
        assert!(bwd_out.satisfied.is_some());
        assert!(
            fwd_cost < bwd.used,
            "forward ({fwd_cost}) should beat backward ({})",
            bwd.used
        );
    }
}
