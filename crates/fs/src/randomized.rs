//! Randomized strategies: TPE(ranking), TPE(NR), SA(NR), NSGA-II(NR).
//!
//! The ranking-based strategies compute their ranking **once** (paper:
//! "to reduce the computation, we compute each ranking only once in the
//! first round of HPO") and then search for the best top-`k` cutoff with
//! TPE. The no-ranking strategies optimize the raw binary decision vector.

use crate::evaluator::{bits_to_subset, SearchOutcome, SubsetEvaluator};
use dfs_rankings::RankingKind;
use dfs_search::nsga2::{nsga2_batch, Nsga2Config};
use dfs_search::sa::{simulated_annealing, SaConfig};
use dfs_search::tpe::{tpe_binary, tpe_integer, TpeConfig};

/// Top-`k` TPE over a precomputed ranking — the TPE(ranking) family.
pub fn tpe_ranking(ev: &mut dyn SubsetEvaluator, kind: RankingKind) -> SearchOutcome {
    let d = ev.n_features();
    let mut outcome = SearchOutcome::empty();
    if d == 0 {
        return outcome;
    }
    // Obtain the ranking once. Rankings are not free: heavyweight ones
    // (MCFS, ReliefF) eat wall-clock from the same budget because the
    // evaluator's clock keeps running while we compute — which is exactly
    // why the evaluator may serve this from a shared artifact cache.
    let ranking = ev.ranking(kind);
    let cap = ev.max_features().min(d).max(1);

    let cfg = TpeConfig {
        max_iters: 10_000, // effectively budget-bound
        seed: ev.seed(),
        stop_at: ev.stop_at(),
        ..TpeConfig::default()
    };
    let mut eval_k = |k: usize| -> Option<f64> {
        let subset = ranking.top_k(k);
        let score = ev.evaluate(&subset, None)?;
        outcome.observe(&subset, score);
        Some(score)
    };
    let _ = tpe_integer(1, cap, &mut eval_k, &cfg);
    outcome
}

/// TPE over the raw binary decision vector — TPE(NR).
pub fn tpe_no_ranking(ev: &mut dyn SubsetEvaluator) -> SearchOutcome {
    let d = ev.n_features();
    let mut outcome = SearchOutcome::empty();
    if d == 0 {
        return outcome;
    }
    let cfg = TpeConfig {
        max_iters: 10_000,
        seed: ev.seed(),
        stop_at: ev.stop_at(),
        ..TpeConfig::default()
    };
    let mut eval_bits = |bits: &[bool]| -> Option<f64> {
        let subset = bits_to_subset(bits);
        let score = ev.evaluate(&subset, None)?;
        outcome.observe(&subset, score);
        Some(score)
    };
    let _ = tpe_binary(d, &mut eval_bits, &cfg);
    outcome
}

/// Simulated annealing over the binary decision vector — SA(NR).
pub fn sa_no_ranking(ev: &mut dyn SubsetEvaluator) -> SearchOutcome {
    let d = ev.n_features();
    let mut outcome = SearchOutcome::empty();
    if d == 0 {
        return outcome;
    }
    let cfg = SaConfig {
        max_iters: 10_000,
        seed: ev.seed(),
        stop_at: ev.stop_at(),
        ..SaConfig::default()
    };
    let mut eval_bits = |bits: &[bool]| -> Option<f64> {
        let subset = bits_to_subset(bits);
        let score = ev.evaluate(&subset, None)?;
        outcome.observe(&subset, score);
        Some(score)
    };
    let _ = simulated_annealing(d, &mut eval_bits, &cfg);
    outcome
}

/// NSGA-II with one objective per constraint — NSGA-II(NR).
///
/// The scalar [`SearchOutcome`] is derived from the per-constraint
/// shortfalls: the sum of shortfalls plays the role of Eq. 1's distance, so
/// a subset with all objectives at zero is a satisfying subset.
pub fn nsga2_no_ranking(ev: &mut dyn SubsetEvaluator) -> SearchOutcome {
    let d = ev.n_features();
    let mut outcome = SearchOutcome::empty();
    if d == 0 {
        return outcome;
    }
    let cfg = Nsga2Config {
        population: 30, // paper: Xue et al.'s configuration
        generations: 1_000, // budget-bound in practice
        seed: ev.seed(),
        stop_at: ev.stop_at(),
        ..Nsga2Config::default()
    };
    // Whole chunks of genomes go through `evaluate_multi_batch`, which the
    // core evaluation engine parallelizes; observations fold back in
    // submission order so the outcome is identical at any thread count.
    let mut eval_batch = |genomes: &[Vec<bool>]| -> Vec<Option<Vec<f64>>> {
        let subsets: Vec<Vec<usize>> = genomes.iter().map(|b| bits_to_subset(b)).collect();
        let outs = ev.evaluate_multi_batch(&subsets);
        for (subset, out) in subsets.iter().zip(&outs) {
            if let Some(objectives) = out {
                outcome.observe(subset, objectives.iter().sum());
            }
        }
        outs
    };
    let _ = nsga2_batch(d, &mut eval_batch, &cfg);
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::MockEvaluator;

    #[test]
    fn tpe_ranking_finds_top_k_cutoff() {
        // The mock's ranking data makes target features separate classes,
        // so chi2/Fisher rank them first and k = |target| satisfies.
        for kind in [RankingKind::Chi2, RankingKind::Fisher, RankingKind::Mim] {
            let mut ev = MockEvaluator::new(6, vec![1, 4], 10_000);
            let out = tpe_ranking(&mut ev, kind);
            assert_eq!(
                out.satisfied.as_deref(),
                Some(&[1usize, 4][..]),
                "{} failed",
                kind.name()
            );
        }
    }

    #[test]
    fn tpe_ranking_is_limited_to_ranking_prefixes() {
        // If the target is NOT a ranking prefix, top-k search cannot satisfy
        // — the defining weakness of ranking-based strategies for fairness
        // in the paper.
        let mut ev = MockEvaluator::new(6, vec![1, 4], 10_000);
        // Rebuild ranking data so feature 0 (non-target) dominates the
        // ranking: make it the only class-separating column.
        let n = ev.x.nrows();
        for i in 0..n {
            ev.x[(i, 0)] = if ev.y[i] { 0.95 } else { 0.05 };
            ev.x[(i, 1)] = 0.5;
            ev.x[(i, 4)] = 0.5;
        }
        let out = tpe_ranking(&mut ev, RankingKind::Chi2);
        assert!(out.satisfied.is_none(), "top-k cannot hit a non-prefix target");
        // But it still reports its best attempt.
        assert!(out.evaluations > 0);
    }

    #[test]
    fn tpe_nr_and_sa_nr_solve_small_spaces() {
        let mut ev = MockEvaluator::new(7, vec![0, 3], 50_000);
        let out = tpe_no_ranking(&mut ev);
        assert_eq!(out.satisfied.as_deref(), Some(&[0usize, 3][..]));

        let mut ev = MockEvaluator::new(7, vec![0, 3], 50_000);
        let out = sa_no_ranking(&mut ev);
        assert_eq!(out.satisfied.as_deref(), Some(&[0usize, 3][..]));
    }

    #[test]
    fn nsga2_satisfies_all_objectives() {
        let mut ev = MockEvaluator::new(7, vec![2, 5], 50_000);
        let out = nsga2_no_ranking(&mut ev);
        assert_eq!(out.satisfied.as_deref(), Some(&[2usize, 5][..]));
    }

    #[test]
    fn randomized_strategies_respect_budget() {
        for f in [tpe_no_ranking, sa_no_ranking, nsga2_no_ranking] {
            let mut ev = MockEvaluator::new(12, vec![0, 5, 9], 6);
            let out = f(&mut ev);
            assert!(out.evaluations <= 6);
        }
    }
}
