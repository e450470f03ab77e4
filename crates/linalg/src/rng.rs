//! Deterministic randomness utilities.
//!
//! Every stochastic component in the workspace (search algorithms, synthetic
//! data generators, DP noise, the adversarial attack) receives an explicit
//! seed so experiments reproduce bit-for-bit. [`Rng`] is the workspace's one
//! generator (SplitMix64); the free functions below are the handful of
//! sampling helpers built on it. [`Fnv1a`] is the one hash that fingerprints
//! and name-derived seeds fold their inputs with.

/// SplitMix64's increment (the 64-bit golden ratio).
const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

/// SplitMix64's output finalizer, shared by [`Rng::next_u64`] and
/// [`derive_seed`].
fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Seeded SplitMix64 generator — the single source of random bits in the
/// workspace. Its stream is pinned by the golden-sequence test below: every
/// committed digest and table depends on it.
#[derive(Debug, Clone)]
pub struct Rng {
    state: u64,
}

impl Rng {
    /// Creates a generator from a 64-bit seed. The seed is mixed once so
    /// small seeds don't start correlated.
    pub fn seed_from_u64(seed: u64) -> Rng {
        let mut rng = Rng { state: seed ^ GOLDEN };
        rng.next_u64();
        rng
    }

    /// Next raw 64-bit draw.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(GOLDEN);
        mix64(self.state)
    }

    /// Uniform draw from `[0, 1)` with 53 random bits.
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Fair coin flip.
    pub fn bool(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }

    /// Uniform index draw from `0..n` (modulo reduction).
    ///
    /// # Panics
    /// Panics when `n == 0`.
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "Rng::below: empty range");
        (self.next_u64() % n as u64) as usize
    }
}

/// Derives a child seed from a parent seed and a stream index.
///
/// Used to hand independent deterministic streams to sub-components (e.g.
/// one per scenario, one per strategy) without correlated sequences.
pub fn derive_seed(parent: u64, stream: u64) -> u64 {
    mix64(parent ^ stream.wrapping_mul(GOLDEN))
}

/// Streaming 64-bit FNV-1a: the workspace's one hash for fingerprints,
/// memo keys and name-derived seeds. [`Fnv1a::mix`] folds in one word and
/// [`Fnv1a::bytes`] one word per byte, which is the published byte-wise
/// hash; a caller that mixes whole words hashes the word sequence.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a(u64);

impl Fnv1a {
    /// A hasher at the FNV-1a-64 offset basis.
    #[inline]
    pub fn new() -> Fnv1a {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    /// Folds one word in: xor, then multiply by the FNV-64 prime.
    #[inline]
    pub fn mix(&mut self, v: u64) {
        self.0 = (self.0 ^ v).wrapping_mul(0x100_0000_01b3);
    }

    /// Folds in each byte as one word.
    #[inline]
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.mix(b as u64);
        }
    }

    /// The hash of everything mixed in so far.
    #[inline]
    pub fn finish(self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a {
    fn default() -> Fnv1a {
        Fnv1a::new()
    }
}

/// Fisher–Yates shuffle of indices `0..n`, swapping from the top.
pub fn shuffled_indices(n: usize, rng: &mut Rng) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        idx.swap(i, rng.below(i + 1));
    }
    idx
}

/// Samples `k` distinct indices from `0..n` (k clamped to n).
pub fn sample_without_replacement(n: usize, k: usize, rng: &mut Rng) -> Vec<usize> {
    let k = k.min(n);
    let mut idx = shuffled_indices(n, rng);
    idx.truncate(k);
    idx
}

/// Uniform draw from `[lo, hi)`.
pub fn uniform(lo: f64, hi: f64, rng: &mut Rng) -> f64 {
    if hi <= lo {
        return lo;
    }
    lo + (hi - lo) * rng.f64()
}

/// Standard normal draw via Box–Muller.
pub fn standard_normal(rng: &mut Rng) -> f64 {
    // Draw u1 in (0, 1] to keep ln well-defined.
    let u1: f64 = 1.0 - rng.f64();
    let u2: f64 = rng.f64();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Normal draw with the given mean and standard deviation.
pub fn normal(mean: f64, std: f64, rng: &mut Rng) -> f64 {
    mean + std * standard_normal(rng)
}

/// Laplace(0, scale) draw — the differential-privacy noise distribution.
pub fn laplace(scale: f64, rng: &mut Rng) -> f64 {
    // Inverse CDF: u in (-1/2, 1/2), x = -scale * sign(u) * ln(1 - 2|u|)
    let u: f64 = rng.f64() - 0.5;
    -scale * u.signum() * (1.0 - 2.0 * u.abs()).ln()
}

/// Log-normal draw with parameters `mu`, `sigma` of the underlying normal.
///
/// The paper samples the privacy budget ε from LogNormal(0, 1) (Listing 1).
pub fn log_normal(mu: f64, sigma: f64, rng: &mut Rng) -> f64 {
    normal(mu, sigma, rng).exp()
}

/// Samples an index proportionally to the given non-negative weights.
///
/// Falls back to uniform when all weights are zero.
pub fn weighted_index(weights: &[f64], rng: &mut Rng) -> usize {
    assert!(!weights.is_empty(), "weighted_index: empty weights");
    let total: f64 = weights.iter().map(|w| w.max(0.0)).sum();
    if total <= 0.0 {
        return rng.below(weights.len());
    }
    let mut t = uniform(0.0, total, rng);
    for (i, &w) in weights.iter().enumerate() {
        t -= w.max(0.0);
        if t <= 0.0 {
            return i;
        }
    }
    weights.len() - 1
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The stream every committed digest, BENCH file and EXPERIMENTS table
    /// was computed from. A change here changes every number in the repo.
    #[test]
    fn golden_sequence() {
        let draws = |seed| {
            let mut r = Rng::seed_from_u64(seed);
            (0..8).map(|_| r.next_u64()).collect::<Vec<u64>>()
        };
        assert_eq!(
            draws(0),
            [
                0x06c4_5d18_8009_454f,
                0xf88b_b8a8_724c_81ec,
                0x1b39_896a_51a8_749b,
                0x53cb_9f0c_747e_a2ea,
                0x2c82_9abe_1f45_32e1,
                0xc584_133a_c916_ab3c,
                0x3ee5_7890_41c9_8ac3,
                0xf3b8_488c_368c_b0a6,
            ]
        );
        assert_eq!(
            draws(2021),
            [
                0x73be_6aec_64e7_9d73,
                0xe27c_28ed_cba2_7de5,
                0xd9ff_a383_1572_081f,
                0x3b38_9efa_bb6a_8600,
                0x1347_c57a_ca15_d57d,
                0xca7b_3bdd_bad4_d686,
                0x7dbf_c859_3078_66ad,
                0x437d_83f0_929b_7b35,
            ]
        );
        let mut r = Rng::seed_from_u64(2021);
        let f: Vec<f64> = (0..4).map(|_| r.f64()).collect();
        assert_eq!(
            f,
            [0.45212429305402535, 0.8847070293956082, 0.8515569872883547, 0.2313327180994893]
        );
        let mut r = Rng::seed_from_u64(2021);
        let b: Vec<bool> = (0..4).map(|_| r.bool()).collect();
        assert_eq!(b, [true, true, true, false]);
        let mut r = Rng::seed_from_u64(2021);
        let k: Vec<usize> = (0..4).map(|_| r.below(7)).collect();
        assert_eq!(k, [3, 1, 3, 2]);
        let mut r = Rng::seed_from_u64(2021);
        assert_eq!(shuffled_indices(10, &mut r), [0, 3, 6, 4, 9, 1, 8, 7, 2, 5]);
    }

    /// The published FNV-1a-64 test vectors. Every fingerprint, memo key
    /// and cache file name in the workspace is hashed with this function.
    #[test]
    fn fnv1a_matches_published_vectors() {
        let hash = |s: &str| {
            let mut h = Fnv1a::new();
            h.bytes(s.as_bytes());
            h.finish()
        };
        assert_eq!(hash(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(hash("a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(hash("foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn seeding_is_deterministic() {
        let a: Vec<f64> = {
            let mut r = Rng::seed_from_u64(42);
            (0..5).map(|_| r.f64()).collect()
        };
        let b: Vec<f64> = {
            let mut r = Rng::seed_from_u64(42);
            (0..5).map(|_| r.f64()).collect()
        };
        assert_eq!(a, b);
    }

    #[test]
    fn derive_seed_changes_per_stream() {
        let s = 7u64;
        assert_ne!(derive_seed(s, 0), derive_seed(s, 1));
        assert_eq!(derive_seed(s, 3), derive_seed(s, 3));
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut r = Rng::seed_from_u64(1);
        let mut idx = shuffled_indices(100, &mut r);
        idx.sort_unstable();
        assert_eq!(idx, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn sampling_without_replacement_is_distinct() {
        let mut r = Rng::seed_from_u64(2);
        let s = sample_without_replacement(50, 20, &mut r);
        assert_eq!(s.len(), 20);
        let mut d = s.clone();
        d.sort_unstable();
        d.dedup();
        assert_eq!(d.len(), 20);
        // Clamp when k > n.
        assert_eq!(sample_without_replacement(3, 10, &mut r).len(), 3);
    }

    #[test]
    fn normal_moments_are_plausible() {
        let mut r = Rng::seed_from_u64(3);
        let xs: Vec<f64> = (0..20_000).map(|_| normal(2.0, 3.0, &mut r)).collect();
        let m = crate::stats::mean(&xs);
        let s = crate::stats::std_dev(&xs);
        assert!((m - 2.0).abs() < 0.1, "mean {m}");
        assert!((s - 3.0).abs() < 0.1, "std {s}");
    }

    #[test]
    fn laplace_is_centered_with_correct_spread() {
        let mut r = Rng::seed_from_u64(4);
        let xs: Vec<f64> = (0..20_000).map(|_| laplace(2.0, &mut r)).collect();
        let m = crate::stats::mean(&xs);
        // Var of Laplace(0, b) is 2 b^2 = 8.
        let v = crate::stats::variance(&xs);
        assert!(m.abs() < 0.15, "mean {m}");
        assert!((v - 8.0).abs() < 0.8, "var {v}");
    }

    #[test]
    fn log_normal_is_positive() {
        let mut r = Rng::seed_from_u64(5);
        for _ in 0..1000 {
            assert!(log_normal(0.0, 1.0, &mut r) > 0.0);
        }
    }

    #[test]
    fn weighted_index_respects_weights() {
        let mut r = Rng::seed_from_u64(6);
        let mut counts = [0usize; 3];
        for _ in 0..30_000 {
            counts[weighted_index(&[1.0, 0.0, 3.0], &mut r)] += 1;
        }
        assert_eq!(counts[1], 0);
        let ratio = counts[2] as f64 / counts[0] as f64;
        assert!((ratio - 3.0).abs() < 0.3, "ratio {ratio}");
        // All-zero weights fall back to uniform without panicking.
        let _ = weighted_index(&[0.0, 0.0], &mut r);
    }
}
