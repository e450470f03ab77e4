//! Seeded synthetic generators standing in for the paper's 19 OpenML datasets.
//!
//! The real benchmark data (paper Table 2) is not available offline, so each
//! dataset is replaced by a generator that matches its *shape* (instances /
//! attributes / one-hot features, scaled down for the two million-row
//! datasets) and reproduces the structural properties the experiments rely
//! on:
//!
//! - **informative** features carry the class signal;
//! - **redundant** features are noisy linear combinations of informative
//!   ones (so redundancy-aware rankings like FCBF have something to prune);
//! - **proxy** features correlate with the protected attribute ("ZIP code is
//!   a proxy for race") so that dropping the protected column alone does not
//!   achieve equal opportunity;
//! - **label bias** shifts the latent score against the minority group, so
//!   accuracy-optimal models that use group information violate EO;
//! - **noise** features are pure distractors;
//! - **categorical** attributes expand under one-hot encoding, keeping the
//!   paper's Attributes < Features relationship;
//! - **missing values** exercise mean imputation.

use crate::dataset::{Column, Dataset, RawDataset};
use crate::preprocess::fit_transform;
use dfs_exec::{host_threads, Executor};
use dfs_linalg::rng::{derive_seed, normal, uniform, Rng};
use dfs_linalg::Matrix;
use std::cmp::Ordering;

/// Full description of one synthetic dataset.
#[derive(Debug, Clone)]
pub struct SyntheticSpec {
    /// Dataset name (lower-case slug of the paper's name).
    pub name: &'static str,
    /// Number of instances (paper row count, scaled down when huge).
    pub rows: usize,
    /// Numeric features carrying class signal.
    pub informative: usize,
    /// Noisy linear combinations of informative features.
    pub redundant: usize,
    /// Features correlated with the protected group.
    pub proxies: usize,
    /// Independent noise features.
    pub noise: usize,
    /// Categorical attributes: (cardinality, carries_signal).
    pub categorical: Vec<(u32, bool)>,
    /// Fraction of instances in the minority group.
    pub minority_rate: f64,
    /// Latent-score penalty applied to the minority group (bias strength).
    pub label_bias: f64,
    /// Approximate positive-class rate.
    pub positive_rate: f64,
    /// Fraction of missing entries injected into non-protected columns.
    pub missing_rate: f64,
    /// Standard deviation of the label noise added to the latent score.
    pub label_noise: f64,
}

impl SyntheticSpec {
    /// Total attribute count (matches the paper's "Attributes").
    pub fn n_attributes(&self) -> usize {
        // protected + numeric groups + categoricals
        1 + self.informative + self.redundant + self.proxies + self.noise + self.categorical.len()
    }

    /// One-hot-expanded feature count (matches the paper's "Features").
    pub fn n_features(&self) -> usize {
        1 + self.informative
            + self.redundant
            + self.proxies
            + self.noise
            + self.categorical.iter().map(|&(c, _)| c as usize).sum::<usize>()
    }
}

/// Generates the raw (typed, with missing values) dataset for a spec.
pub fn generate_raw(spec: &SyntheticSpec, seed: u64) -> RawDataset {
    let mut rng = Rng::seed_from_u64(seed);
    let n = spec.rows;

    // 1. Protected group membership.
    let group: Vec<bool> = (0..n).map(|_| rng.f64() < spec.minority_rate).collect();

    // 2. Informative features and their weights.
    let mut informative: Vec<Vec<f64>> = Vec::with_capacity(spec.informative);
    for _ in 0..spec.informative {
        informative.push((0..n).map(|_| normal(0.0, 1.0, &mut rng)).collect());
    }
    let weights: Vec<f64> = (0..spec.informative)
        .map(|j| {
            let w = uniform(0.5, 1.5, &mut rng);
            if j % 2 == 0 {
                w
            } else {
                -w
            }
        })
        .collect();

    // 3. Latent score with group bias and label noise; threshold at the
    //    quantile that yields the requested positive rate.
    let mut latent: Vec<f64> = (0..n)
        .map(|i| {
            let mut s = 0.0;
            for (f, w) in informative.iter().zip(&weights) {
                s += f[i] * w;
            }
            if group[i] {
                s -= spec.label_bias;
            }
            s + normal(0.0, spec.label_noise, &mut rng)
        })
        .collect();
    let threshold = {
        let mut sorted = latent.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(Ordering::Equal));
        let k = ((1.0 - spec.positive_rate) * (n as f64 - 1.0)).round() as usize;
        sorted[k.min(n.saturating_sub(1))]
    };
    let target: Vec<bool> = latent.iter().map(|&s| s > threshold).collect();
    latent.clear();

    // 4. Assemble columns: protected first, then numeric groups, then cats.
    let mut columns: Vec<(String, Column)> = Vec::with_capacity(spec.n_attributes());
    columns.push((
        "protected".into(),
        Column::Numeric(group.iter().map(|&g| if g { 1.0 } else { 0.0 }).collect()),
    ));
    for (j, f) in informative.iter().enumerate() {
        columns.push((format!("inf_{j}"), Column::Numeric(f.clone())));
    }
    for k in 0..spec.redundant {
        let a = k % spec.informative.max(1);
        let b = (k + 1) % spec.informative.max(1);
        let mix = uniform(0.3, 0.7, &mut rng);
        let vals: Vec<f64> = (0..n)
            .map(|i| {
                let base = if spec.informative == 0 {
                    0.0
                } else {
                    mix * informative[a][i] + (1.0 - mix) * informative[b][i]
                };
                base + normal(0.0, 0.1, &mut rng)
            })
            .collect();
        columns.push((format!("red_{k}"), Column::Numeric(vals)));
    }
    for k in 0..spec.proxies {
        let vals: Vec<f64> = (0..n)
            .map(|i| if group[i] { 1.0 } else { 0.0 } + normal(0.0, 0.3, &mut rng))
            .collect();
        columns.push((format!("proxy_{k}"), Column::Numeric(vals)));
    }
    for k in 0..spec.noise {
        let vals: Vec<f64> = (0..n).map(|_| normal(0.0, 1.0, &mut rng)).collect();
        columns.push((format!("noise_{k}"), Column::Numeric(vals)));
    }
    for (k, &(card, signal)) in spec.categorical.iter().enumerate() {
        let codes: Vec<Option<u32>> = if signal && spec.informative > 0 {
            // Quantile-bin an informative feature so one-hot keeps the signal.
            let src = &informative[k % spec.informative];
            let mut sorted = src.clone();
            sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(Ordering::Equal));
            let cuts: Vec<f64> = (1..card)
                .map(|c| sorted[(c as usize * n / card as usize).min(n - 1)])
                .collect();
            src.iter()
                .map(|&v| {
                    let mut code = 0u32;
                    for &c in &cuts {
                        if v > c {
                            code += 1;
                        }
                    }
                    Some(code.min(card - 1))
                })
                .collect()
        } else {
            (0..n).map(|_| Some(rng.below(card as usize) as u32)).collect()
        };
        columns.push((format!("cat_{k}"), Column::Categorical { codes, cardinality: card }));
    }

    // 5. Missing values (never in the protected column).
    if spec.missing_rate > 0.0 {
        inject_missing(&mut columns[1..], spec.missing_rate, &mut rng);
    }

    let raw = RawDataset { name: spec.name.into(), columns, target, protected_attr: 0 };
    debug_assert!(raw.validate().is_ok());
    raw
}

fn inject_missing(columns: &mut [(String, Column)], rate: f64, rng: &mut Rng) {
    for (_, col) in columns {
        match col {
            Column::Numeric(v) => {
                for x in v.iter_mut() {
                    if rng.f64() < rate {
                        *x = f64::NAN;
                    }
                }
            }
            Column::Categorical { codes, .. } => {
                for c in codes.iter_mut() {
                    if rng.f64() < rate {
                        *c = None;
                    }
                }
            }
        }
    }
}

/// Generates the preprocessed dense dataset for a spec.
pub fn generate(spec: &SyntheticSpec, seed: u64) -> Dataset {
    fit_transform(&generate_raw(spec, seed))
}

/// Shorthand spec constructor used by [`paper_suite`].
#[allow(clippy::too_many_arguments)]
fn spec(
    name: &'static str,
    rows: usize,
    informative: usize,
    redundant: usize,
    proxies: usize,
    noise: usize,
    categorical: Vec<(u32, bool)>,
    minority_rate: f64,
    label_bias: f64,
    positive_rate: f64,
    missing_rate: f64,
) -> SyntheticSpec {
    SyntheticSpec {
        name,
        rows,
        informative,
        redundant,
        proxies,
        noise,
        categorical,
        minority_rate,
        label_bias,
        positive_rate,
        missing_rate,
        label_noise: 1.0,
    }
}

/// The 19-dataset benchmark suite mirroring the paper's Table 2.
///
/// Ordered by instance count like the paper. The two million-row datasets
/// are scaled down (rows ÷ ~250, features ÷ ~10) but stay the largest so the
/// scalability effects the paper reports (heavy rankings and backward
/// selection timing out on the biggest data) still appear. Attribute and
/// feature counts of the remaining datasets track Table 2 closely.
pub fn paper_suite() -> Vec<SyntheticSpec> {
    vec![
        // name, rows, inf, red, prox, noise, categoricals, minority, bias, pos, missing
        // Rows match the paper's Table 2 except the two million-row
        // datasets (scaled to stay the largest) and the two mid-size ones
        // capped at ~5k. Columns are scaled as documented in DESIGN.md.
        spec("traffic_violations", 8000, 8, 6, 4, 6, vec![(15, true); 9], 0.35, 0.6, 0.4, 0.02),
        spec("airlines_codrna_adult", 6000, 8, 5, 3, 5, vec![(12, true); 8], 0.45, 0.4, 0.45, 0.0),
        spec("adult", 4800, 4, 2, 2, 2, vec![(30, true), (20, false), (16, true), (14, false)], 0.33, 0.5, 0.24, 0.01),
        spec("kdd_internet_usage", 4500, 10, 8, 5, 15, vec![(16, true); 30], 0.45, 0.3, 0.5, 0.0),
        spec("ipums_census", 4400, 10, 6, 4, 16, vec![(12, true); 20], 0.48, 0.4, 0.35, 0.02),
        spec("telco_churn", 4300, 5, 3, 2, 3, vec![(5, true); 6], 0.5, 0.2, 0.27, 0.01),
        spec("compas", 4200, 5, 2, 3, 1, vec![(3, true), (4, false)], 0.4, 1.2, 0.45, 0.0),
        spec("students", 3892, 8, 4, 3, 15, vec![(2, true); 4], 0.5, 0.3, 0.5, 0.0),
        spec("thyroid_disease", 3772, 7, 4, 2, 10, vec![(5, true); 6], 0.3, 0.2, 0.08, 0.05),
        spec("primary_biliary_cirrhosis", 1945, 5, 2, 2, 3, vec![(20, false); 6], 0.4, 0.3, 0.4, 0.08),
        spec("titanic", 1309, 4, 2, 1, 1, vec![(30, false), (20, true), (14, false)], 0.36, 0.7, 0.38, 0.1),
        spec("social_mobility", 1156, 2, 1, 1, 0, vec![(34, true)], 0.3, 0.6, 0.45, 0.0),
        spec("german_credit", 1000, 6, 2, 2, 2, vec![(6, true); 8], 0.31, 0.5, 0.3, 0.0),
        spec("indian_liver_patient", 583, 6, 2, 1, 1, vec![], 0.24, 0.3, 0.29, 0.01),
        spec("irish_educational", 500, 2, 1, 0, 0, vec![(7, true), (7, false)], 0.48, 0.4, 0.44, 0.0),
        spec("arrhythmia", 452, 40, 20, 4, 100, vec![(4, false); 8], 0.45, 0.3, 0.45, 0.03),
        spec("brazil_tourism", 412, 3, 1, 1, 1, vec![(8, true), (7, false)], 0.49, 0.3, 0.35, 0.0),
        spec("primary_tumor", 339, 5, 2, 1, 2, vec![(5, true), (5, false), (4, true), (4, false), (4, true), (4, false), (4, false)], 0.45, 0.3, 0.42, 0.04),
        spec("diabetic_mellitus", 281, 20, 10, 3, 64, vec![], 0.42, 0.4, 0.35, 0.0),
    ]
}

/// Looks a suite spec up by name.
pub fn spec_by_name(name: &str) -> Option<SyntheticSpec> {
    paper_suite().into_iter().find(|s| s.name == name)
}

/// Seed stream of the chunked generator's one-time design draws
/// (informative weights, redundant mix coefficients).
const STREAM_DESIGN: u64 = 0x5EED_DE51;
/// Seed stream under which every row derives its own RNG.
const STREAM_ROWS: u64 = 0x5EED_0B10;

/// The million-row scaling scenario: a numeric-only spec sized past the
/// paper's Table 2 (ROADMAP open item 2c) and generated exclusively through
/// [`generate_streamed_collect`], which writes its rows in place on the
/// host's threads — materializing it monolithically through [`generate`]
/// would hold every intermediate column at once.
pub fn million_row_spec() -> SyntheticSpec {
    SyntheticSpec {
        name: "million_row",
        rows: 1_000_000,
        informative: 8,
        redundant: 4,
        proxies: 2,
        noise: 6,
        categorical: vec![],
        minority_rate: 0.35,
        label_bias: 0.5,
        positive_rate: 0.4,
        missing_rate: 0.0,
        label_noise: 0.8,
    }
}

/// One-time design of a streamed generation run: the draws that are global
/// to the dataset (weights, mixes) plus the *analytic* label threshold.
///
/// The monolithic generator thresholds the latent score at an empirical
/// quantile — a global pass over all rows that a block-wise generator
/// cannot afford. Here the latent score is, by construction, the normal
/// mixture `(1−m)·N(0, s²) + m·N(−bias, s²)` with `s² = Σwⱼ² + noise²`, so
/// the threshold achieving the requested positive rate is solved from the
/// mixture CDF by bisection instead. Rates are then exact in expectation at
/// any scale (and concentrate tightly at 10⁶ rows), independent of
/// blocking.
struct StreamDesign {
    weights: Vec<f64>,
    mixes: Vec<f64>,
    threshold: f64,
    row_seed_root: u64,
}

impl StreamDesign {
    fn derive(spec: &SyntheticSpec, seed: u64) -> StreamDesign {
        let mut rng = Rng::seed_from_u64(derive_seed(seed, STREAM_DESIGN));
        let weights: Vec<f64> = (0..spec.informative)
            .map(|j| {
                let w = uniform(0.5, 1.5, &mut rng);
                if j % 2 == 0 {
                    w
                } else {
                    -w
                }
            })
            .collect();
        let mixes: Vec<f64> =
            (0..spec.redundant).map(|_| uniform(0.3, 0.7, &mut rng)).collect();
        let s = (weights.iter().map(|w| w * w).sum::<f64>()
            + spec.label_noise * spec.label_noise)
            .sqrt()
            .max(1e-12);
        // P(latent > t) is continuous and strictly decreasing in t; bisect.
        let tail = |t: f64| {
            spec.minority_rate * (1.0 - normal_cdf((t + spec.label_bias) / s))
                + (1.0 - spec.minority_rate) * (1.0 - normal_cdf(t / s))
        };
        let (mut lo, mut hi) = (-64.0 * s, 64.0 * s);
        for _ in 0..200 {
            let mid = 0.5 * (lo + hi);
            if tail(mid) > spec.positive_rate {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        StreamDesign {
            weights,
            mixes,
            threshold: 0.5 * (lo + hi),
            row_seed_root: derive_seed(seed, STREAM_ROWS),
        }
    }

    /// Writes row `index`'s features into `out` (one row, `d` wide) and
    /// returns its `(label, group)`. `gs` is scratch for the informative
    /// draws.
    fn row(
        &self,
        spec: &SyntheticSpec,
        index: usize,
        out: &mut [f64],
        gs: &mut [f64],
    ) -> (bool, bool) {
        let mut rng = Rng::seed_from_u64(derive_seed(self.row_seed_root, index as u64));
        let group = rng.f64() < spec.minority_rate;
        for g in gs.iter_mut() {
            *g = normal(0.0, 1.0, &mut rng);
        }
        let eps = normal(0.0, spec.label_noise, &mut rng);
        let mut latent = eps - if group { spec.label_bias } else { 0.0 };
        out[0] = if group { 1.0 } else { 0.0 };
        let mut c = 1;
        for (g, w) in gs.iter().zip(&self.weights) {
            latent += g * w;
            out[c] = squash(*g);
            c += 1;
        }
        for (k, &mix) in self.mixes.iter().enumerate() {
            let a = k % spec.informative.max(1);
            let b = (k + 1) % spec.informative.max(1);
            let base =
                if spec.informative == 0 { 0.0 } else { mix * gs[a] + (1.0 - mix) * gs[b] };
            out[c] = squash(base + normal(0.0, 0.1, &mut rng));
            c += 1;
        }
        for _ in 0..spec.proxies {
            let raw = out[0] + normal(0.0, 0.3, &mut rng);
            out[c] = squash(raw - 0.5);
            c += 1;
        }
        for _ in 0..spec.noise {
            out[c] = squash(normal(0.0, 1.0, &mut rng));
            c += 1;
        }
        debug_assert_eq!(c, out.len());
        (latent > self.threshold, group)
    }
}

/// Abramowitz & Stegun 7.1.26 rational erf approximation (|err| ≤ 1.5e-7),
/// ample for placing the label threshold: a 1e-7 CDF error moves the
/// realized positive rate by well under one row in 10⁶.
fn erf(x: f64) -> f64 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.3275911 * x);
    let poly = t
        * (0.254829592
            + t * (-0.284496736 + t * (1.421413741 + t * (-1.453152027 + t * 1.061405429))));
    sign * (1.0 - poly * (-x * x).exp())
}

fn normal_cdf(z: f64) -> f64 {
    0.5 * (1.0 + erf(z / std::f64::consts::SQRT_2))
}

/// Monotone squash of an unbounded latent value into `(0, 1)`, replacing
/// the monolithic pipeline's min–max scaling (another global pass a
/// streaming generator cannot run). Monotone, so per-feature orderings —
/// all any split kernel or ranking consumes — are preserved exactly.
fn squash(v: f64) -> f64 {
    1.0 / (1.0 + (-v).exp())
}

/// Feature names of a streamed (numeric-only) spec, in column order.
pub fn streamed_feature_names(spec: &SyntheticSpec) -> Vec<String> {
    let mut names = Vec::with_capacity(spec.n_features());
    names.push("protected".into());
    names.extend((0..spec.informative).map(|j| format!("inf_{j}")));
    names.extend((0..spec.redundant).map(|k| format!("red_{k}")));
    names.extend((0..spec.proxies).map(|k| format!("proxy_{k}")));
    names.extend((0..spec.noise).map(|k| format!("noise_{k}")));
    names
}

/// Generates a numeric-only spec into one [`Dataset`], in blocks of
/// `block_rows` rows spread over the host's threads
/// ([`dfs_exec::host_threads`]).
///
/// Every row draws from its own RNG seeded `derive_seed(row_root, row)` in
/// a fixed order (group, informative, label noise, redundant, proxy,
/// noise), and the label threshold is analytic (see `StreamDesign`) — so
/// each row's bits depend only on `(spec, seed, row)`, never on the block
/// it lands in or the thread that writes it. Bit-identity across block
/// sizes and thread counts is structural, and asserted in this module's
/// tests.
///
/// Blocks write their rows, labels and protected flags in place into the
/// output buffers: no per-block matrix and no concatenation copy, so a
/// 10⁶-row dataset costs its own size and none of the ~170 MB of
/// intermediates [`generate_raw`] would hold.
///
/// # Panics
/// Panics when `block_rows == 0` or the spec has categorical columns or a
/// nonzero missing rate (streaming covers the numeric pipeline only —
/// one-hot layouts and imputation both want global passes).
pub fn generate_streamed_collect(spec: &SyntheticSpec, seed: u64, block_rows: usize) -> Dataset {
    generate_streamed_on(spec, seed, block_rows, &Executor::new(host_threads()))
}

/// [`generate_streamed_collect`] on `exec`'s threads.
fn generate_streamed_on(
    spec: &SyntheticSpec,
    seed: u64,
    block_rows: usize,
    exec: &Executor,
) -> Dataset {
    assert!(block_rows > 0, "generate_streamed_collect: block_rows must be positive");
    assert!(
        spec.categorical.is_empty() && spec.missing_rate == 0.0,
        "generate_streamed_collect: numeric-only specs (no categoricals, no missing values)"
    );
    let design = StreamDesign::derive(spec, seed);
    let d = spec.n_features();
    // Clamped to the row count, so a block's cell count cannot overflow.
    let block_rows = block_rows.min(spec.rows).max(1);
    let mut x = vec![0.0; spec.rows * d];
    let mut y = vec![false; spec.rows];
    let mut protected = vec![false; spec.rows];
    let mut blocks: Vec<_> = x
        .chunks_mut(block_rows * d)
        .zip(y.chunks_mut(block_rows))
        .zip(protected.chunks_mut(block_rows))
        .collect();
    exec.par_for_each_mut(&mut blocks, |b, ((xb, yb), pb)| {
        let mut gs = vec![0.0; spec.informative];
        let rows = xb.chunks_exact_mut(d).zip(yb.iter_mut()).zip(pb.iter_mut());
        for (r, ((row, label), group)) in rows.enumerate() {
            (*label, *group) = design.row(spec, b * block_rows + r, row, &mut gs);
        }
    });
    Dataset {
        name: spec.name.into(),
        x: Matrix::from_vec(spec.rows, d, x),
        y,
        protected,
        feature_names: streamed_feature_names(spec),
    }
}

/// A deliberately tiny spec for unit tests across the workspace.
pub fn tiny_spec() -> SyntheticSpec {
    SyntheticSpec {
        name: "tiny",
        rows: 240,
        informative: 4,
        redundant: 2,
        proxies: 2,
        noise: 2,
        categorical: vec![(3, true)],
        minority_rate: 0.35,
        label_bias: 0.7,
        positive_rate: 0.45,
        missing_rate: 0.0,
        label_noise: 0.6,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dfs_linalg::stats::pearson;

    #[test]
    fn suite_has_19_datasets_ordered_by_rows() {
        let suite = paper_suite();
        assert_eq!(suite.len(), 19);
        for w in suite.windows(2) {
            assert!(w[0].rows >= w[1].rows, "{} < {}", w[0].name, w[1].name);
        }
        assert_eq!(suite[0].name, "traffic_violations");
        assert_eq!(suite[18].name, "diabetic_mellitus");
    }

    #[test]
    fn shapes_track_table2() {
        // Spot-check datasets whose counts we match exactly.
        let compas = spec_by_name("compas").unwrap();
        assert_eq!(compas.n_attributes(), 14);
        assert_eq!(compas.n_features(), 19);
        let german = spec_by_name("german_credit").unwrap();
        assert_eq!(german.n_attributes(), 21);
        assert_eq!(german.n_features(), 61);
        let liver = spec_by_name("indian_liver_patient").unwrap();
        assert_eq!(liver.n_attributes(), 11);
        assert_eq!(liver.n_features(), 11);
        assert_eq!(liver.rows, 583);
        let diabetic = spec_by_name("diabetic_mellitus").unwrap();
        assert_eq!(diabetic.n_attributes(), 98);
        assert_eq!(diabetic.n_features(), 98);
    }

    #[test]
    fn generation_matches_spec_shape() {
        let spec = tiny_spec();
        let raw = generate_raw(&spec, 1);
        assert_eq!(raw.n_rows(), 240);
        assert_eq!(raw.n_attributes(), spec.n_attributes());
        assert_eq!(raw.n_expanded_features(), spec.n_features());
        let ds = generate(&spec, 1);
        assert_eq!(ds.n_features(), spec.n_features());
        assert!(ds.validate().is_ok());
    }

    #[test]
    fn generation_is_deterministic() {
        let spec = tiny_spec();
        let a = generate(&spec, 5);
        let b = generate(&spec, 5);
        assert_eq!(a.x.as_slice(), b.x.as_slice());
        assert_eq!(a.y, b.y);
        let c = generate(&spec, 6);
        assert_ne!(a.x.as_slice(), c.x.as_slice());
    }

    #[test]
    fn positive_and_minority_rates_are_respected() {
        let spec = tiny_spec();
        let ds = generate(&spec, 2);
        assert!((ds.positive_rate() - spec.positive_rate).abs() < 0.05);
        assert!((ds.minority_rate() - spec.minority_rate).abs() < 0.08);
    }

    #[test]
    fn informative_features_correlate_with_label() {
        let spec = tiny_spec();
        let ds = generate(&spec, 3);
        let y: Vec<f64> = ds.y.iter().map(|&b| if b { 1.0 } else { 0.0 }).collect();
        // Feature 1 is inf_0 (column 0 is "protected").
        let r_inf = pearson(&ds.x.col(1), &y).abs();
        // Last numeric block before categoricals is noise.
        let noise_col = 1 + spec.informative + spec.redundant + spec.proxies;
        let r_noise = pearson(&ds.x.col(noise_col), &y).abs();
        assert!(r_inf > 0.25, "informative corr too weak: {r_inf}");
        assert!(r_noise < 0.15, "noise corr too strong: {r_noise}");
        assert!(r_inf > r_noise);
    }

    #[test]
    fn proxies_correlate_with_group_not_much_with_label() {
        let spec = tiny_spec();
        let ds = generate(&spec, 4);
        let g: Vec<f64> = ds.protected.iter().map(|&b| if b { 1.0 } else { 0.0 }).collect();
        let proxy_col = 1 + spec.informative + spec.redundant; // first proxy
        let r_group = pearson(&ds.x.col(proxy_col), &g).abs();
        assert!(r_group > 0.5, "proxy/group corr too weak: {r_group}");
    }

    #[test]
    fn label_bias_depresses_minority_positive_rate() {
        let mut spec = tiny_spec();
        spec.rows = 2000;
        spec.label_bias = 1.2;
        let ds = generate(&spec, 7);
        let (mut pos_min, mut n_min, mut pos_maj, mut n_maj) = (0.0, 0.0, 0.0, 0.0);
        for i in 0..ds.n_rows() {
            if ds.protected[i] {
                n_min += 1.0;
                if ds.y[i] {
                    pos_min += 1.0;
                }
            } else {
                n_maj += 1.0;
                if ds.y[i] {
                    pos_maj += 1.0;
                }
            }
        }
        assert!(pos_min / n_min + 0.1 < pos_maj / n_maj, "bias not visible");
    }

    #[test]
    fn missing_rate_is_injected_then_imputed() {
        let mut spec = tiny_spec();
        spec.missing_rate = 0.2;
        let raw = generate_raw(&spec, 8);
        let nan_count: usize = raw
            .columns
            .iter()
            .map(|(_, c)| match c {
                Column::Numeric(v) => v.iter().filter(|x| x.is_nan()).count(),
                Column::Categorical { codes, .. } => codes.iter().filter(|c| c.is_none()).count(),
            })
            .sum();
        assert!(nan_count > 0, "no missing values injected");
        // After preprocessing there must be none.
        let ds = fit_transform(&raw);
        assert!(ds.validate().is_ok());
    }

    #[test]
    fn streamed_generation_is_bit_identical_at_every_block_size() {
        let mut spec = million_row_spec();
        spec.rows = 600;
        let reference = generate_streamed_on(&spec, 2021, spec.rows, &Executor::sequential());
        for threads in [1, 2, 4] {
            for block in [1, 7, 8192, spec.rows] {
                let ds = generate_streamed_on(&spec, 2021, block, &Executor::new(threads));
                assert_eq!(ds.x.as_slice(), reference.x.as_slice(), "{threads}x{block}");
                assert_eq!(ds.y, reference.y, "{threads}x{block}");
                assert_eq!(ds.protected, reference.protected, "{threads}x{block}");
            }
        }
        let host = generate_streamed_collect(&spec, 2021, 64);
        assert_eq!(host.x.as_slice(), reference.x.as_slice());
    }

    /// The bits the committed scale-corpus digests were recorded from: a
    /// change to the row stream fails here before it reaches the benchmark.
    #[test]
    fn streamed_generation_matches_its_pinned_digest() {
        let mut spec = million_row_spec();
        spec.rows = 600;
        let ds = generate_streamed_collect(&spec, 2021, 64);
        let mut h = dfs_linalg::rng::Fnv1a::new();
        for v in ds.x.as_slice() {
            h.mix(v.to_bits());
        }
        for (&y, &p) in ds.y.iter().zip(&ds.protected) {
            h.mix(u64::from(y) << 1 | u64::from(p));
        }
        assert_eq!(h.finish(), 0xb2ca_5b9c_7087_a217);
    }

    #[test]
    fn streamed_rates_hit_the_analytic_targets() {
        let mut spec = million_row_spec();
        spec.rows = 6000;
        let ds = generate_streamed_collect(&spec, 9, 1024);
        let pos = ds.y.iter().filter(|&&b| b).count() as f64 / ds.y.len() as f64;
        let min = ds.protected.iter().filter(|&&b| b).count() as f64 / ds.y.len() as f64;
        assert!((pos - spec.positive_rate).abs() < 0.03, "positive rate {pos}");
        assert!((min - spec.minority_rate).abs() < 0.03, "minority rate {min}");
        assert!(ds.validate().is_ok());
        assert_eq!(ds.n_features(), spec.n_features());
        // Signal survives the squash: informative beats noise on |corr|.
        let y: Vec<f64> = ds.y.iter().map(|&b| if b { 1.0 } else { 0.0 }).collect();
        let r_inf = pearson(&ds.x.col(1), &y).abs();
        let noise_col = 1 + spec.informative + spec.redundant + spec.proxies;
        let r_noise = pearson(&ds.x.col(noise_col), &y).abs();
        // With 8 informative columns sharing the signal under label noise
        // 0.8, each single column's point-biserial r sits near 0.18.
        assert!(r_inf > 0.12, "informative corr too weak: {r_inf}");
        assert!(r_inf > r_noise + 0.05);
        // Proxies still track the protected group.
        let g: Vec<f64> = ds.protected.iter().map(|&b| if b { 1.0 } else { 0.0 }).collect();
        let r_proxy = pearson(&ds.x.col(1 + spec.informative + spec.redundant), &g).abs();
        assert!(r_proxy > 0.5, "proxy/group corr too weak: {r_proxy}");
    }

    #[test]
    fn streamed_labels_depend_on_seed_but_not_blocking() {
        let mut spec = million_row_spec();
        spec.rows = 300;
        let a = generate_streamed_collect(&spec, 5, 64);
        let b = generate_streamed_collect(&spec, 6, 64);
        assert_ne!(a.x.as_slice(), b.x.as_slice());
    }

    #[test]
    #[should_panic(expected = "numeric-only")]
    fn streamed_rejects_categorical_specs() {
        generate_streamed_collect(&tiny_spec(), 1, 64);
    }

    #[test]
    #[should_panic(expected = "block_rows must be positive")]
    fn streamed_rejects_empty_blocks() {
        generate_streamed_collect(&million_row_spec(), 1, 0);
    }

    #[test]
    fn million_row_spec_shape() {
        let spec = million_row_spec();
        assert_eq!(spec.rows, 1_000_000);
        assert_eq!(spec.n_features(), 21);
        assert!(spec.categorical.is_empty() && spec.missing_rate == 0.0);
    }

    #[test]
    fn whole_suite_generates_cleanly_at_small_scale() {
        for mut s in paper_suite() {
            s.rows = s.rows.min(120); // keep the test fast
            let ds = generate(&s, 11);
            assert!(ds.validate().is_ok(), "{} failed validation", s.name);
            assert_eq!(ds.n_features(), s.n_features(), "{}", s.name);
        }
    }
}
