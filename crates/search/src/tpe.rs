//! Tree-structured Parzen estimator (Bergstra et al., 2011).
//!
//! TPE models `P(x | y < y*)` ("good" observations, the best γ-quantile) and
//! `P(x | y ≥ y*)` ("bad") and proposes the candidate maximizing the density
//! ratio `l(x)/g(x)` — a proxy for expected improvement. Two search spaces
//! are supported, matching the paper's usage:
//!
//! - [`tpe_binary`] over binary feature-decision vectors (TPE(NR)): one
//!   Bernoulli Parzen estimator per dimension;
//! - [`tpe_integer`] over a bounded integer (the top-`k` cutoff used by all
//!   ranking-based strategies): Gaussian kernel density over observed `k`s.

use crate::{hit_target, SearchResult};
use dfs_linalg::rng::{uniform, Rng};
use std::collections::HashSet;

/// TPE configuration shared by both search spaces.
#[derive(Debug, Clone)]
pub struct TpeConfig {
    /// Total evaluations (including the random start-up phase).
    pub max_iters: usize,
    /// Random evaluations before the Parzen model kicks in.
    pub n_startup: usize,
    /// Candidates sampled from `l` per iteration.
    pub n_candidates: usize,
    /// Fraction of observations labeled "good".
    pub gamma: f64,
    /// Early-stop score.
    pub stop_at: Option<f64>,
    /// RNG seed.
    pub seed: u64,
}

impl Default for TpeConfig {
    fn default() -> Self {
        Self { max_iters: 150, n_startup: 12, n_candidates: 24, gamma: 0.25, stop_at: Some(0.0), seed: 0 }
    }
}

/// Minimizes `eval` over `{0,1}^d` with TPE.
pub fn tpe_binary(
    d: usize,
    eval: &mut dyn FnMut(&[bool]) -> Option<f64>,
    cfg: &TpeConfig,
) -> SearchResult {
    let mut result = SearchResult::empty();
    if d == 0 {
        return result;
    }
    let mut rng = Rng::seed_from_u64(cfg.seed);
    let mut history: Vec<(Vec<bool>, f64)> = Vec::new();
    let mut seen: HashSet<Vec<bool>> = HashSet::new();

    for iter in 0..cfg.max_iters {
        let _iter_span = dfs_obs::span("tpe.iter");
        let candidate = if iter < cfg.n_startup || history.len() < 4 {
            random_nonempty(d, &mut rng)
        } else {
            propose_binary(d, &history, cfg, &mut seen, &mut rng)
        };
        if !seen.insert(candidate.clone()) && iter >= cfg.n_startup {
            // Exact duplicate slipped through; perturb one bit.
            let mut c = candidate.clone();
            let j = rng.below(d);
            c[j] = !c[j];
            if c.iter().any(|&b| b) {
                seen.insert(c.clone());
                let Some(score) = eval(&c) else { break };
                result.observe(&c, score);
                history.push((c, score));
                if hit_target(score, cfg.stop_at) {
                    result.reached_target = true;
                    break;
                }
                continue;
            }
        }
        let Some(score) = eval(&candidate) else { break };
        result.observe(&candidate, score);
        history.push((candidate, score));
        if hit_target(score, cfg.stop_at) {
            result.reached_target = true;
            break;
        }
    }
    result
}

fn random_nonempty(d: usize, rng: &mut Rng) -> Vec<bool> {
    loop {
        let bits: Vec<bool> = (0..d).map(|_| rng.bool()).collect();
        if bits.iter().any(|&b| b) {
            return bits;
        }
    }
}

/// Splits history into good/bad by the γ-quantile and proposes the candidate
/// with the best Bernoulli density ratio among `n_candidates` draws from `l`.
fn propose_binary(
    d: usize,
    history: &[(Vec<bool>, f64)],
    cfg: &TpeConfig,
    seen: &HashSet<Vec<bool>>,
    rng: &mut Rng,
) -> Vec<bool> {
    let (p_good, p_bad) = bernoulli_estimates(d, history, cfg);
    // The four per-dimension logs of the ratio, `[ln l, ln g]` for a set
    // bit and for a clear one, taken once per proposal. A candidate adds
    // them in dimension order, so its ratio has the bits of logs taken per
    // candidate (the reference in the tests).
    let ln = |p: f64| p.max(1e-12).ln();
    let set: Vec<[f64; 2]> = p_good.iter().zip(&p_bad).map(|(&g, &b)| [ln(g), ln(b)]).collect();
    let clear: Vec<[f64; 2]> =
        p_good.iter().zip(&p_bad).map(|(&g, &b)| [ln(1.0 - g), ln(1.0 - b)]).collect();
    best_candidate(&p_good, cfg, seen, rng, |bits| {
        let mut log_ratio = 0.0;
        for (j, &b) in bits.iter().enumerate() {
            let [lg, lb] = if b { set[j] } else { clear[j] };
            log_ratio += lg - lb;
        }
        log_ratio
    })
}

/// Per-dimension Bernoulli parameters `(p_good, p_bad)` of the good and
/// bad γ-quantiles of `history`, with a Beta(1,1) prior.
fn bernoulli_estimates(
    d: usize,
    history: &[(Vec<bool>, f64)],
    cfg: &TpeConfig,
) -> (Vec<f64>, Vec<f64>) {
    let mut order: Vec<usize> = (0..history.len()).collect();
    // NaN scores are mapped to +inf at measurement, so Equal is an
    // unreachable fallback, not a behavior change.
    order.sort_by(|&a, &b| {
        history[a].1.partial_cmp(&history[b].1).unwrap_or(std::cmp::Ordering::Equal)
    });
    let n_good = ((cfg.gamma * history.len() as f64).ceil() as usize).clamp(1, history.len() - 1);

    let mut p_good = vec![0.0f64; d];
    let mut p_bad = vec![0.0f64; d];
    for (rank, &i) in order.iter().enumerate() {
        let target = if rank < n_good { &mut p_good } else { &mut p_bad };
        for (t, &b) in target.iter_mut().zip(&history[i].0) {
            if b {
                *t += 1.0;
            }
        }
    }
    let n_bad = history.len() - n_good;
    for j in 0..d {
        p_good[j] = (p_good[j] + 1.0) / (n_good as f64 + 2.0);
        p_bad[j] = (p_bad[j] + 1.0) / (n_bad as f64 + 2.0);
    }
    (p_good, p_bad)
}

/// Draws `n_candidates` bit vectors from `l` (`p_good`) and returns the
/// unseen, non-empty one with the largest `log_ratio` (the first on ties),
/// or a random non-empty vector when every draw was rejected.
fn best_candidate(
    p_good: &[f64],
    cfg: &TpeConfig,
    seen: &HashSet<Vec<bool>>,
    rng: &mut Rng,
    log_ratio: impl Fn(&[bool]) -> f64,
) -> Vec<bool> {
    let d = p_good.len();
    let mut best: Option<(f64, Vec<bool>)> = None;
    for _ in 0..cfg.n_candidates {
        let bits: Vec<bool> = p_good.iter().map(|&p| rng.f64() < p).collect();
        if !bits.iter().any(|&b| b) {
            continue;
        }
        if seen.contains(&bits) {
            continue;
        }
        let score = log_ratio(&bits);
        if best.as_ref().map(|(s, _)| score > *s).unwrap_or(true) {
            best = Some((score, bits));
        }
    }
    best.map(|(_, bits)| bits).unwrap_or_else(|| random_nonempty(d, rng))
}

/// Outcome of an integer-space TPE search.
#[derive(Debug, Clone)]
pub struct IntSearchResult {
    /// Best integer found.
    pub best_value: usize,
    /// Its score.
    pub best_score: f64,
    /// Evaluations performed.
    pub evaluations: usize,
    /// `true` when `stop_at` was reached.
    pub reached_target: bool,
}

/// Minimizes `eval` over the integer range `[lo, hi]` with TPE
/// (the top-`k` search used by every ranking-based strategy).
pub fn tpe_integer(
    lo: usize,
    hi: usize,
    eval: &mut dyn FnMut(usize) -> Option<f64>,
    cfg: &TpeConfig,
) -> IntSearchResult {
    assert!(lo <= hi, "tpe_integer: empty range");
    let mut result =
        IntSearchResult { best_value: lo, best_score: f64::INFINITY, evaluations: 0, reached_target: false };
    let mut rng = Rng::seed_from_u64(cfg.seed);
    let mut history: Vec<(usize, f64)> = Vec::new();
    let mut seen: HashSet<usize> = HashSet::new();
    let span = hi - lo + 1;

    for iter in 0..cfg.max_iters {
        let _iter_span = dfs_obs::span("tpe.iter");
        if seen.len() == span {
            break; // exhausted the whole domain
        }
        let k = if iter < cfg.n_startup || history.len() < 4 {
            // Stratified random start-up: spread over the range.
            fresh_random(lo, hi, &seen, &mut rng)
        } else {
            propose_integer(lo, hi, &history, cfg, &seen, &mut rng)
        };
        seen.insert(k);
        let Some(score) = eval(k) else { break };
        result.evaluations += 1;
        if score < result.best_score {
            result.best_score = score;
            result.best_value = k;
        }
        history.push((k, score));
        if hit_target(score, cfg.stop_at) {
            result.reached_target = true;
            break;
        }
    }
    result
}

fn fresh_random(lo: usize, hi: usize, seen: &HashSet<usize>, rng: &mut Rng) -> usize {
    for _ in 0..64 {
        let k = lo + rng.below(hi - lo + 1);
        if !seen.contains(&k) {
            return k;
        }
    }
    // Fall back to a linear scan for the first unseen value.
    (lo..=hi).find(|k| !seen.contains(k)).unwrap_or(lo)
}

fn propose_integer(
    lo: usize,
    hi: usize,
    history: &[(usize, f64)],
    cfg: &TpeConfig,
    seen: &HashSet<usize>,
    rng: &mut Rng,
) -> usize {
    let mut order: Vec<usize> = (0..history.len()).collect();
    // NaN scores are mapped to +inf at measurement, so Equal is an
    // unreachable fallback, not a behavior change.
    order.sort_by(|&a, &b| {
        history[a].1.partial_cmp(&history[b].1).unwrap_or(std::cmp::Ordering::Equal)
    });
    let n_good = ((cfg.gamma * history.len() as f64).ceil() as usize).clamp(1, history.len() - 1);
    let good: Vec<f64> = order[..n_good].iter().map(|&i| history[i].0 as f64).collect();
    let bad: Vec<f64> = order[n_good..].iter().map(|&i| history[i].0 as f64).collect();
    let bandwidth = ((hi - lo) as f64 / 8.0).max(1.0);

    let kde = |xs: &[f64], v: f64| -> f64 {
        if xs.is_empty() {
            return 1.0 / (hi - lo + 1) as f64;
        }
        let mut total = 0.0;
        for &x in xs {
            let z = (v - x) / bandwidth;
            total += (-0.5 * z * z).exp();
        }
        (total / xs.len() as f64).max(1e-12)
    };

    let mut best: Option<(f64, usize)> = None;
    for _ in 0..cfg.n_candidates {
        // Sample from l: pick a good center and jitter.
        let center = good[rng.below(good.len())];
        let v = (center + uniform(-bandwidth, bandwidth, rng)).round();
        let k = (v.max(lo as f64).min(hi as f64)) as usize;
        if seen.contains(&k) {
            continue;
        }
        let ratio = kde(&good, k as f64) / kde(&bad, k as f64);
        if best.as_ref().map(|(r, _)| ratio > *r).unwrap_or(true) {
            best = Some((ratio, k));
        }
    }
    best.map(|(_, k)| k).unwrap_or_else(|| fresh_random(lo, hi, seen, rng))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binary_tpe_finds_sparse_pattern() {
        // Objective: distance to a 3-hot pattern in 12 dims.
        let target: Vec<bool> = (0..12).map(|i| i % 4 == 0).collect();
        let mut eval = |bits: &[bool]| {
            Some(bits.iter().zip(&target).filter(|(a, b)| a != b).count() as f64)
        };
        let cfg = TpeConfig { max_iters: 400, seed: 2, ..Default::default() };
        let r = tpe_binary(12, &mut eval, &cfg);
        assert!(r.best_score <= 1.0, "best score {}", r.best_score);
    }

    #[test]
    fn binary_tpe_beats_pure_random_on_average() {
        let target: Vec<bool> = (0..14).map(|i| i < 4).collect();
        let score_of = |seed: u64, smart: bool| -> f64 {
            let mut eval = |bits: &[bool]| {
                Some(bits.iter().zip(&target).filter(|(a, b)| a != b).count() as f64)
            };
            let cfg = TpeConfig {
                max_iters: 60,
                n_startup: if smart { 10 } else { 60 }, // startup-only = random search
                stop_at: None,
                seed,
                ..Default::default()
            };
            tpe_binary(14, &mut eval, &cfg).best_score
        };
        let tpe_avg: f64 = (0..6).map(|s| score_of(s, true)).sum::<f64>() / 6.0;
        let rnd_avg: f64 = (0..6).map(|s| score_of(s, false)).sum::<f64>() / 6.0;
        assert!(tpe_avg <= rnd_avg, "tpe {tpe_avg} vs random {rnd_avg}");
    }

    #[test]
    fn binary_tpe_stops_at_target_and_respects_budget() {
        let mut eval = |_: &[bool]| Some(0.0);
        let r = tpe_binary(5, &mut eval, &TpeConfig::default());
        assert!(r.reached_target);
        assert_eq!(r.evaluations, 1);

        let mut calls = 0;
        let mut limited = |bits: &[bool]| {
            calls += 1;
            if calls > 7 {
                None
            } else {
                Some(bits.len() as f64)
            }
        };
        let cfg = TpeConfig { stop_at: Some(0.0), ..Default::default() };
        let r = tpe_binary(5, &mut limited, &cfg);
        assert_eq!(r.evaluations, 7);
    }

    #[test]
    fn integer_tpe_minimizes_quadratic() {
        let mut eval = |k: usize| Some((k as f64 - 17.0).powi(2));
        let cfg = TpeConfig { max_iters: 60, stop_at: None, seed: 4, ..Default::default() };
        let r = tpe_integer(1, 60, &mut eval, &cfg);
        assert!((r.best_value as i64 - 17).abs() <= 2, "best {}", r.best_value);
    }

    #[test]
    fn integer_tpe_exhausts_small_domains() {
        let mut evals = Vec::new();
        let mut eval = |k: usize| {
            evals.push(k);
            Some(k as f64)
        };
        let cfg = TpeConfig { max_iters: 100, stop_at: None, ..Default::default() };
        let r = tpe_integer(3, 6, &mut eval, &cfg);
        assert_eq!(r.best_value, 3);
        let mut sorted = evals.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted, vec![3, 4, 5, 6], "domain must be covered without repeats");
    }

    #[test]
    fn integer_tpe_stops_at_target() {
        let mut eval = |k: usize| Some(if k == 5 { 0.0 } else { 1.0 });
        let cfg = TpeConfig { max_iters: 200, seed: 1, ..Default::default() };
        let r = tpe_integer(1, 10, &mut eval, &cfg);
        assert!(r.reached_target);
        assert_eq!(r.best_value, 5);
    }

    /// The proposal before the log table: two `ln` per dimension for each
    /// candidate. The oracle `propose_binary` must match bit for bit.
    fn propose_binary_reference(
        d: usize,
        history: &[(Vec<bool>, f64)],
        cfg: &TpeConfig,
        seen: &HashSet<Vec<bool>>,
        rng: &mut Rng,
    ) -> Vec<bool> {
        let (p_good, p_bad) = bernoulli_estimates(d, history, cfg);
        best_candidate(&p_good, cfg, seen, rng, |bits| {
            let mut log_ratio = 0.0;
            for j in 0..d {
                let (pg, pb) =
                    if bits[j] { (p_good[j], p_bad[j]) } else { (1.0 - p_good[j], 1.0 - p_bad[j]) };
                log_ratio += pg.max(1e-12).ln() - pb.max(1e-12).ln();
            }
            log_ratio
        })
    }

    #[test]
    fn log_table_proposals_match_the_reference() {
        let mut gen = Rng::seed_from_u64(77);
        for case in 0..300u64 {
            let d = 1 + gen.below(40);
            let n = 4 + gen.below(40);
            // Skewed bit rates drive some estimates to the extremes, and
            // repeated histories make ties between candidates likely.
            let rate = gen.f64();
            let history: Vec<(Vec<bool>, f64)> = (0..n)
                .map(|_| {
                    let bits: Vec<bool> = (0..d).map(|_| gen.f64() < rate).collect();
                    (bits, gen.below(5) as f64)
                })
                .collect();
            let seen: HashSet<Vec<bool>> =
                history.iter().filter(|_| gen.bool()).map(|(b, _)| b.clone()).collect();
            let gamma = [0.1, 0.25, 0.5][case as usize % 3];
            let cfg = TpeConfig { gamma, ..Default::default() };
            let (mut a, mut b) = (Rng::seed_from_u64(case), Rng::seed_from_u64(case));
            let got = propose_binary(d, &history, &cfg, &seen, &mut a);
            let want = propose_binary_reference(d, &history, &cfg, &seen, &mut b);
            assert_eq!(got, want, "case {case}");
            assert_eq!(a.next_u64(), b.next_u64(), "case {case}: the streams diverged");
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let run = |seed| {
            let mut eval = |bits: &[bool]| {
                Some(bits.iter().enumerate().map(|(i, &b)| if b { i as f64 } else { 0.0 }).sum())
            };
            let cfg = TpeConfig { max_iters: 30, stop_at: None, seed, ..Default::default() };
            tpe_binary(8, &mut eval, &cfg).best_bits
        };
        assert_eq!(run(9), run(9));
    }
}
