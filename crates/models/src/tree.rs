//! CART decision tree with Gini impurity, built by a histogram-binned
//! kernel (default) or the bit-exact presorted-column kernel.
//!
//! Depth-limited binary tree over continuous features. Candidate thresholds
//! are the midpoints between consecutive distinct values (presorted) or
//! consecutive occupied bins (binned), evaluated in O(1) each via running
//! prefix sums. Feature importances accumulate the instance-weighted
//! impurity decrease per feature, normalized to sum to 1 — the same notion
//! scikit-learn exposes.
//!
//! # The histogram-binned kernels (`SplitExactness::Binned256`, default,
//! # and the wide `SplitExactness::Binned4096`)
//!
//! Each feature is quantized into at most [`MAX_BINS`] (`Binned256`) or
//! [`MAX_BINS_WIDE`] (`Binned4096`) bins *once* — per dataset when a cached
//! [`BinSet`] is bound to the workspace (see [`TreeWorkspace::bind_bins`]),
//! or once per fit otherwise — and the fit keeps the quantized columns as a
//! column-major code arena (`u8` or `u16`, see [`CodeWidth`]). A node's
//! split scan is then O(occupied bins) over per-node weight/count
//! histograms built in a single pass over the node's rows; after a split
//! only the *smaller* child's histogram is built fresh, the larger child's
//! being derived by parent-minus-sibling subtraction in place. Partitioning
//! touches a single row array instead of `d` per-feature order lists, which
//! together with the O(bins) scans is where the speedup over the presorted
//! kernel comes from. See DESIGN.md § 4i for the soundness argument and the
//! exactness conditions, and § 4k for the wide-bin/GOSS scaling story.
//!
//! **When binned ≡ presorted.** With ≤ `max_bins` distinct values per
//! column, every distinct value gets its own bin, so the candidate
//! thresholds are literally the presorted ones; if additionally the weight
//! prefix sums incur no rounding (always true for unweighted fits, and for
//! dyadic weights), the two kernels produce bit-identical trees. Beyond
//! the bin budget the binned kernels are a deliberate, deterministic
//! approximation — callers that need the exact tree opt into
//! `SplitExactness::Presorted`.
//!
//! # GOSS-style per-node subsampling ([`GossConfig`])
//!
//! At million-row scale even O(n·d) histogram builds dominate. When a
//! [`GossConfig`] is armed on the workspace (binned kernels only), each
//! node's histogram is built from a subsample: the top `top_frac` of its
//! rows by gradient proxy `w_i·|y_i − p̂_node|` are kept exactly, a
//! `rest_frac` share of the remainder is drawn by a deterministic per-node
//! hash (seeded from `(seed, node_id)` via `derive_seed`), and the sampled
//! remainder's weights are amplified by `(n_rest / n_sampled)` so the
//! split-gain estimates stay unbiased. Leaf tests, probabilities, and
//! partitions still use the node's *exact* rows and weights — only the
//! split scan is estimated. A config with `top_frac + rest_frac >= 1.0`
//! cannot drop any row (the ceil shares cover the node), so it is treated
//! as disabled and runs the identical unsampled code path bit-for-bit.
//!
//! # The presorted kernel (`SplitExactness::Presorted`)
//!
//! The classic CART bottleneck is re-sorting every feature column at every
//! node: O(nodes × d × n log n) with fresh allocations throughout. This
//! implementation sorts each feature's row order **once per fit** (a stable
//! argsort by value) and then *stably partitions* the per-feature sorted
//! index lists down to the children after each split — scikit-learn's old
//! `presort=True` strategy. Every node's split scan is then O(d × n_node)
//! with zero sorts, and all scratch (per-feature orders, partition buffers,
//! the row-ascending node sets) lives in a reusable [`TreeWorkspace`], so a
//! fit performs no per-node allocation.
//!
//! **Bit-identity contract.** The presorted kernel is bit-identical to the
//! naive per-node splitter (kept as a `#[cfg(test)]` reference below): a
//! stable sort of a row-ascending index list orders ties by row, and a
//! stable partition preserves exactly that order on both sides, so every
//! node scans values, accumulates prefix sums, compares candidate gains,
//! and computes leaf probabilities in the *identical floating-point order*
//! the naive builder would.
//!
//! # Depth truncation
//!
//! Greedy CART's split sequence is independent of `max_depth` — depth only
//! gates *stopping*. [`DecisionTree::fit_deep_in`] therefore fits once at
//! the deepest depth and annotates every node with its creation depth and
//! impurity-decrease contribution; [`DeepTree::truncate`] then derives the
//! tree for any shallower depth in O(nodes), bit-identical to a direct fit
//! at that depth (same preorder arena, same probabilities, importances
//! reconstructed from the recorded gains in the same accumulation order).
//! The HPO grid exploits this to turn 7 depth fits into 1 fit + 6
//! truncations.

use dfs_linalg::rng::derive_seed;
use dfs_linalg::sort::{stable_partition_in_place, stable_sort_indices_by_key};
use dfs_linalg::{Cells, FeatureRow, Matrix};
use std::sync::Arc;

/// Nodes stop splitting below this many instances.
const MIN_SAMPLES_SPLIT: usize = 4;

/// Maximum bins per feature for the default histogram kernel (`u8` codes).
pub const MAX_BINS: usize = 256;

/// Maximum bins per feature for the wide histogram kernel (`u16` codes).
pub const MAX_BINS_WIDE: usize = 4096;

/// Storage width of a quantized-code arena, determining the per-feature
/// bin budget (see [`CodeWidth::max_bins`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CodeWidth {
    /// `u8` codes, ≤ [`MAX_BINS`] bins per feature (default).
    #[default]
    U8,
    /// `u16` codes, ≤ [`MAX_BINS_WIDE`] bins per feature.
    U16,
}

impl CodeWidth {
    /// The per-feature bin budget this width can address.
    pub fn max_bins(self) -> usize {
        match self {
            CodeWidth::U8 => MAX_BINS,
            CodeWidth::U16 => MAX_BINS_WIDE,
        }
    }

    /// Code size in bits (surfaced in bench/summary provenance).
    pub fn bits(self) -> u32 {
        match self {
            CodeWidth::U8 => 8,
            CodeWidth::U16 => 16,
        }
    }
}

/// Which split kernel a [`TreeWorkspace`] runs.
///
/// `Binned256` (the default) trades exactness beyond 256 distinct values
/// per column for O(bins) split scans; `Binned4096` widens the budget to
/// 4096 bins (`u16` codes) for high-cardinality million-row features;
/// `Presorted` keeps the bit-exact reference behaviour. All modes are
/// fingerprinted apart (see [`SplitExactness::fingerprint`]) so evaluation
/// caches never mix modes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SplitExactness {
    /// Histogram kernel over ≤256 bins per feature (default).
    #[default]
    Binned256,
    /// Wide histogram kernel over ≤4096 bins per feature (`u16` codes).
    Binned4096,
    /// Exact presorted kernel, bit-identical to the naive splitter.
    Presorted,
}

impl SplitExactness {
    /// Stable tag mixed into settings/cache fingerprints so memoized
    /// evaluations from different kernels can never collide.
    pub fn fingerprint(self) -> u64 {
        match self {
            SplitExactness::Binned256 => 0xB1A2_5601,
            SplitExactness::Binned4096 => 0xB1A2_4096,
            SplitExactness::Presorted => 0x9E50_47ED,
        }
    }

    /// Human-readable mode name (also the CLI spelling).
    pub fn name(self) -> &'static str {
        match self {
            SplitExactness::Binned256 => "binned256",
            SplitExactness::Binned4096 => "binned4096",
            SplitExactness::Presorted => "presorted",
        }
    }

    /// Parses the CLI spelling; accepts `binned` as shorthand.
    pub fn parse(s: &str) -> Option<SplitExactness> {
        match s {
            "binned256" | "binned" => Some(SplitExactness::Binned256),
            "binned4096" => Some(SplitExactness::Binned4096),
            "presorted" => Some(SplitExactness::Presorted),
            _ => None,
        }
    }

    /// Code width of the histogram kernels (`None` for the presorted one).
    pub fn code_width(self) -> Option<CodeWidth> {
        match self {
            SplitExactness::Binned256 => Some(CodeWidth::U8),
            SplitExactness::Binned4096 => Some(CodeWidth::U16),
            SplitExactness::Presorted => None,
        }
    }
}

/// Default node-size floor below which GOSS passes through unsampled: tiny
/// nodes are cheap to histogram exactly and subsampling them costs more in
/// variance than it saves in work.
pub const GOSS_MIN_ROWS: usize = 256;

/// GOSS-style per-node subsampling of the binned kernels' histogram
/// builds (see the module docs for the estimator and determinism story).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GossConfig {
    /// Fraction of a node's rows kept exactly, chosen by largest gradient
    /// proxy `w_i · |y_i − p̂_node|` (row-ascending tiebreak).
    pub top_frac: f64,
    /// Fraction of a node's rows drawn uniformly (deterministic per-node
    /// hash) from the remainder, reweighted by `n_rest / n_sampled`.
    pub rest_frac: f64,
    /// Root seed; each node samples with `derive_seed(seed, node_id)`.
    pub seed: u64,
    /// Nodes smaller than this build their full histogram unsampled.
    pub min_rows: usize,
}

impl GossConfig {
    /// A config with the default [`GOSS_MIN_ROWS`] floor.
    pub fn new(top_frac: f64, rest_frac: f64, seed: u64) -> GossConfig {
        GossConfig { top_frac, rest_frac, seed, min_rows: GOSS_MIN_ROWS }
    }

    /// Whether this config can drop rows at all. `top_frac + rest_frac >=
    /// 1.0` keeps every row of every node (the ceil shares cover it), so
    /// such configs run the unsampled path bit-for-bit.
    pub fn active(&self) -> bool {
        self.top_frac + self.rest_frac < 1.0
    }

    /// The fraction of rows an active config retains per sampled node
    /// (`1.0` when inactive) — surfaced in bench/summary provenance.
    pub fn kept_frac(&self) -> f64 {
        if self.active() {
            self.top_frac + self.rest_frac
        } else {
            1.0
        }
    }
}

/// Bin layout of one feature: per-bin lowest and highest source value.
///
/// Bins are derived so that a column with ≤ `max_bins` distinct values
/// gets exactly one bin per distinct value (`lo == hi`); wider columns get
/// near-equal-count bins cut between distinct values. Candidate thresholds
/// are `0.5 * (hi[left_bin] + lo[right_bin])` at boundaries between
/// *occupied* bins, which in the one-value-per-bin case reproduces the
/// presorted kernel's `0.5 * (prev + v)` midpoints bit-for-bit.
#[derive(Debug, Clone, PartialEq)]
pub struct FeatureBins {
    lo: Vec<f64>,
    hi: Vec<f64>,
}

impl FeatureBins {
    /// Derives ≤ [`MAX_BINS`] bins from an ascending-sorted column.
    #[cfg(test)]
    fn from_sorted(values: &[f64]) -> FeatureBins {
        FeatureBins::from_sorted_with(values, MAX_BINS)
    }

    /// Derives at most `max_bins` bins from an ascending-sorted column of
    /// finite values.
    fn from_sorted_with(values: &[f64], max_bins: usize) -> FeatureBins {
        let n = values.len();
        if n == 0 {
            return FeatureBins { lo: vec![0.0], hi: vec![0.0] };
        }
        let mut distinct = 0usize;
        for k in 0..n {
            if k == 0 || values[k] > values[k - 1] {
                distinct += 1;
            }
        }
        let mut lo = Vec::with_capacity(distinct.min(max_bins));
        let mut hi = Vec::with_capacity(distinct.min(max_bins));
        if distinct <= max_bins {
            for k in 0..n {
                if k == 0 || values[k] > values[k - 1] {
                    lo.push(values[k]);
                    hi.push(values[k]);
                }
            }
        } else {
            // Near-equal-count bins: each bin takes a ceil share of the
            // remaining values, extended to swallow duplicates of its last
            // value so a distinct value never straddles two bins.
            let mut start = 0usize;
            let mut emitted = 0usize;
            while start < n {
                let remaining_bins = max_bins - emitted;
                let take = (n - start).div_ceil(remaining_bins);
                let mut end = start + take;
                let vend = values[end - 1];
                while end < n && values[end] == vend {
                    end += 1;
                }
                lo.push(values[start]);
                hi.push(values[end - 1]);
                start = end;
                emitted += 1;
            }
        }
        FeatureBins { lo, hi }
    }

    /// Number of bins (1..=`max_bins` of the derivation).
    pub fn n_bins(&self) -> usize {
        self.hi.len()
    }

    /// Bin code of a value: the first bin whose highest member reaches it,
    /// clamped into range for values outside the derivation set.
    #[inline]
    fn code_of(&self, v: f64) -> u16 {
        let b = self.hi.partition_point(|&h| h < v);
        b.min(self.hi.len() - 1) as u16
    }

    /// Per-bin lowest source values (ascending).
    pub fn lo(&self) -> &[f64] {
        &self.lo
    }

    /// Per-bin highest source values (ascending).
    pub fn hi(&self) -> &[f64] {
        &self.hi
    }
}

/// Width-tagged column-major code arena of a [`BinSet`]: the `u8` variant
/// keeps the common ≤256-bin case at half the memory of the wide one.
#[derive(Debug, Clone, PartialEq)]
enum CodeArena {
    U8(Vec<u8>),
    U16(Vec<u16>),
}

/// Per-dataset bin edges and quantized codes for every feature, derived
/// once and shared across fits (arms, row caps, server requests) via
/// [`TreeWorkspace::bind_bins`] — the tree-kernel analogue of cached
/// rankings. Quantization is a pure function of the source matrix *and the
/// code width*, so a `BinSet` is freely shareable across threads behind an
/// `Arc`; callers caching derived sets must key on the width too.
#[derive(Debug, Clone, PartialEq)]
pub struct BinSet {
    feats: Vec<FeatureBins>,
    /// Column-major `d × n_rows` quantized codes of the source matrix.
    codes: CodeArena,
    n_rows: usize,
    width: CodeWidth,
}

impl BinSet {
    /// Derives ≤ [`MAX_BINS`]-bin (`u8`) bins and codes from every column
    /// of `x`.
    ///
    /// # Panics
    /// Panics when a value is NaN (features are required to be finite).
    pub fn derive(x: &Matrix) -> BinSet {
        BinSet::derive_with(x, CodeWidth::U8)
    }

    /// Derives bins and codes from every column of `x` at the given code
    /// width (`u8` → ≤ [`MAX_BINS`] bins, `u16` → ≤ [`MAX_BINS_WIDE`]).
    ///
    /// # Panics
    /// Panics when a value is NaN (features are required to be finite).
    pub fn derive_with(x: &Matrix, width: CodeWidth) -> BinSet {
        let (n, d) = x.shape();
        let max_bins = width.max_bins();
        let mut feats = Vec::with_capacity(d);
        let mut codes = vec![0u16; d * n];
        let mut col = Vec::with_capacity(n);
        for f in 0..d {
            x.col_into(f, &mut col);
            col.sort_unstable_by(|a, b| match a.partial_cmp(b) {
                Some(ord) => ord,
                None => panic!("BinSet::derive: finite features required"),
            });
            let fb = FeatureBins::from_sorted_with(&col, max_bins);
            for (c, v) in codes[f * n..(f + 1) * n].iter_mut().zip(x.col_iter(f)) {
                *c = fb.code_of(v);
            }
            feats.push(fb);
        }
        let codes = match width {
            CodeWidth::U8 => CodeArena::U8(codes.iter().map(|&c| c as u8).collect()),
            CodeWidth::U16 => CodeArena::U16(codes),
        };
        BinSet { feats, codes, n_rows: n, width }
    }

    /// Number of features covered.
    pub fn n_features(&self) -> usize {
        self.feats.len()
    }

    /// Number of rows of the source matrix.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// The code width this set was derived at.
    pub fn width(&self) -> CodeWidth {
        self.width
    }

    /// The bin layout of feature `j`.
    pub fn feature(&self, j: usize) -> &FeatureBins {
        &self.feats[j]
    }

    /// The quantized code of source cell `(row, feature)`.
    #[inline]
    pub(crate) fn code_at(&self, feature: usize, row: usize) -> u16 {
        match &self.codes {
            CodeArena::U8(v) => v[feature * self.n_rows + row] as u16,
            CodeArena::U16(v) => v[feature * self.n_rows + row],
        }
    }

    /// Widening gather of source column `src`'s codes at the given source
    /// rows, written element-wise into `out` (which must match `rows` in
    /// length).
    fn gather_codes(&self, src: usize, rows: &[u32], out: &mut [u16]) {
        let n = self.n_rows;
        match &self.codes {
            CodeArena::U8(v) => {
                let src_col = &v[src * n..(src + 1) * n];
                for (c, &r) in out.iter_mut().zip(rows) {
                    *c = src_col[r as usize] as u16;
                }
            }
            CodeArena::U16(v) => {
                let src_col = &v[src * n..(src + 1) * n];
                for (c, &r) in out.iter_mut().zip(rows) {
                    *c = src_col[r as usize];
                }
            }
        }
    }
}

/// A tree node (arena storage; `usize` child links).
#[derive(Debug, Clone, PartialEq)]
pub enum Node {
    /// Terminal node carrying `P(y = 1)` among its training instances.
    Leaf {
        /// Positive-class probability at this leaf.
        proba: f64,
    },
    /// Internal test `x[feature] <= threshold` → left, else right.
    Split {
        /// Feature index tested.
        feature: usize,
        /// Split threshold.
        threshold: f64,
        /// Arena index of the left child (`<=`).
        left: usize,
        /// Arena index of the right child (`>`).
        right: usize,
    },
}

/// Work counters of one kernel fit (recorded on [`TreeWorkspace`] and on
/// [`DeepTree`]); callers surface them as `tree.nodes` / `split.scans`
/// observability counters at the fit level.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FitStats {
    /// Nodes in the arena (leaves included).
    pub nodes: u64,
    /// Feature segments scanned for split candidates.
    pub split_scans: u64,
}

impl FitStats {
    /// Element-wise accumulation (used when summing per-tree stats).
    pub fn merge(&mut self, other: FitStats) {
        self.nodes += other.nodes;
        self.split_scans += other.split_scans;
    }

    /// Emits the fit-level `tree.nodes` / `split.scans` observability
    /// counters. Call on the fit's *caller* thread only — never inside
    /// parallel workers, which may have no collector and would make traces
    /// thread-count-dependent.
    pub fn record(&self) {
        dfs_obs::counter("tree.nodes", self.nodes);
        dfs_obs::counter("split.scans", self.split_scans);
    }
}

/// Reusable scratch for both tree kernels: per-feature sorted row orders
/// (presorted), the quantized `u8` code arena and histogram pool (binned),
/// the row-ascending node sets, partition buffers, and the unit weight
/// vector. After the first fit of a given shape, subsequent fits through
/// the same workspace allocate nothing beyond the output arena.
#[derive(Debug, Default)]
pub struct TreeWorkspace {
    /// Which kernel fits through this workspace run.
    exactness: SplitExactness,
    /// Flattened `d × n` per-feature sorted row orders (presorted kernel).
    order: Vec<u32>,
    /// Node row sets in row-ascending order, partitioned in place.
    rows: Vec<u32>,
    /// Stable-partition holding buffer.
    scratch: Vec<u32>,
    /// Column gather buffer for the presort keys / bin derivation.
    col: Vec<f64>,
    /// All-ones weights when the caller passes none.
    unit_w: Vec<f64>,
    /// Cached dataset-level bins for the binned kernel, if bound.
    bound_bins: Option<Arc<BinSet>>,
    /// Source-feature index of each training-matrix column, when bound.
    bound_cols: Vec<usize>,
    /// Source-row index of each training-matrix row, when bound.
    bound_rows: Vec<u32>,
    /// Per-node GOSS subsampling config for the binned kernels, if armed.
    goss: Option<GossConfig>,
    /// Per-fit column-major `d × n` quantized codes (binned kernels; `u16`
    /// holds both widths — the arena is per-fit, so the common-case memory
    /// win lives in the shared [`BinSet`], not here).
    codes: Vec<u16>,
    /// Flattened per-feature bin `lo` values for the current fit.
    bin_lo: Vec<f64>,
    /// Flattened per-feature bin `hi` values for the current fit.
    bin_hi: Vec<f64>,
    /// Prefix offsets into `bin_lo`/`bin_hi` (`d + 1` entries).
    bin_off: Vec<u32>,
    /// GOSS per-node (gradient proxy, row) selection buffer.
    goss_g: Vec<(f64, u32)>,
    /// GOSS per-node (row hash, row) sampling buffer.
    goss_h: Vec<(u64, u32)>,
    /// GOSS per-node sampled row list (row-ascending).
    goss_rows: Vec<u32>,
    /// Histogram scratch of unweighted fits (packed integer bins).
    unit_hist: HistScratch<UnitBin>,
    /// Histogram scratch of weighted or GOSS-sampled fits.
    weighted_hist: HistScratch<WeightedBin>,
    /// Total bins the pool buffers are sized for.
    hist_stride: usize,
    /// Feature count the pool buffers are sized for.
    hist_d: usize,
    /// Counters of the most recent fit through this workspace.
    last_stats: FitStats,
}

impl TreeWorkspace {
    /// An empty workspace (buffers grow on first use) running the default
    /// [`SplitExactness::Binned256`] kernel.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty workspace running the given kernel.
    pub fn with_exactness(exactness: SplitExactness) -> Self {
        Self { exactness, ..Self::default() }
    }

    /// Switches which kernel subsequent fits run.
    pub fn set_exactness(&mut self, exactness: SplitExactness) {
        self.exactness = exactness;
    }

    /// The kernel subsequent fits run.
    pub fn exactness(&self) -> SplitExactness {
        self.exactness
    }

    /// Binds cached dataset-level bins for subsequent binned fits: column
    /// `j` of the training matrix corresponds to feature `cols[j]` of the
    /// bin set's source matrix, and row `i` to source row `rows[i]`.
    /// Quantization then becomes a pure `u8` gather instead of per-fit bin
    /// derivation — the "quantize once per dataset" fast path.
    ///
    /// The binding stays armed until rebound or cleared; callers must
    /// rebind (or [`TreeWorkspace::clear_bins`]) whenever the training
    /// matrix changes. Release builds cannot detect a stale same-shape
    /// binding; debug builds panic on the first cell outside its bin.
    ///
    /// # Panics
    /// Panics when an index is out of range for the bin set.
    pub fn bind_bins(&mut self, bins: &Arc<BinSet>, cols: &[usize], rows: &[usize]) {
        for &c in cols {
            assert!(c < bins.n_features(), "bind_bins: column {c} out of range");
        }
        for &r in rows {
            assert!(r < bins.n_rows(), "bind_bins: row {r} out of range");
        }
        self.bound_cols.clear();
        self.bound_cols.extend_from_slice(cols);
        self.bound_rows.clear();
        self.bound_rows.extend(rows.iter().map(|&r| r as u32));
        self.bound_bins = Some(Arc::clone(bins));
    }

    /// Drops any bound bin set; subsequent binned fits derive bins from
    /// their own training matrix.
    pub fn clear_bins(&mut self) {
        self.bound_bins = None;
    }

    /// Arms (or disarms, with `None`) GOSS-style per-node subsampling for
    /// subsequent binned fits. The presorted kernel ignores it — exact
    /// fits are exact. Inactive configs (`top_frac + rest_frac >= 1.0`)
    /// run the unsampled path bit-for-bit.
    pub fn set_goss(&mut self, goss: Option<GossConfig>) {
        self.goss = goss;
    }

    /// The currently armed GOSS config, if any.
    pub fn goss(&self) -> Option<GossConfig> {
        self.goss
    }

    /// Work counters of the most recent fit through this workspace.
    pub fn last_stats(&self) -> FitStats {
        self.last_stats
    }
}

/// One histogram bin's accumulator. The binned kernel is written once
/// against this trait and instantiated twice: [`UnitBin`] for unweighted
/// fits and [`WeightedBin`] for weighted or GOSS-sampled ones (see
/// [`run_binned_kernel`] for the choice).
trait Bin: Copy + Default + std::fmt::Debug {
    /// The accumulator of one row of weight `w` and label `positive`.
    fn of_row(w: f64, positive: bool) -> Self;
    /// Adds another accumulator (a row's, or a bin's) into this one.
    fn add(&mut self, other: Self);
    /// Adds `other` when `keep` holds, leaving `self` unchanged otherwise.
    fn add_if(&mut self, other: Self, keep: bool);
    /// Removes `other`, which was accumulated from a subset of this bin's
    /// rows in the same row order.
    fn sub(&mut self, other: Self);
    /// Rows accumulated.
    fn count(self) -> u32;
    /// Σw of the rows accumulated.
    fn total(self) -> f64;
    /// Σw of the positive rows accumulated.
    fn positives(self) -> f64;
    /// This accumulator's scratch on the workspace.
    fn scratch(ws: &mut TreeWorkspace) -> &mut HistScratch<Self>;
}

/// Unit-weight bin: the row count in the low 32 bits and the positive
/// count in the high 32, so a row updates one `u64`. Every partial sum is
/// an integer below 2⁵³, hence exactly the `f64` a row-order sum of `1.0`
/// / `0.0` weights produces: scans, node totals and gains see the same
/// bits as the weighted bin fed all-ones weights.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct UnitBin(u64);

impl Bin for UnitBin {
    fn of_row(w: f64, positive: bool) -> Self {
        debug_assert_eq!(w, 1.0, "UnitBin carries unit weights only");
        UnitBin(1 | (positive as u64) << 32)
    }
    fn add(&mut self, other: Self) {
        self.0 += other.0;
    }
    fn add_if(&mut self, other: Self, keep: bool) {
        self.0 += other.0 & (keep as u64).wrapping_neg();
    }
    fn sub(&mut self, other: Self) {
        // Both halves of `other` are at most this bin's, so no borrow
        // crosses from the count into the positive half.
        self.0 -= other.0;
    }
    fn count(self) -> u32 {
        self.0 as u32
    }
    fn total(self) -> f64 {
        self.count() as f64
    }
    fn positives(self) -> f64 {
        (self.0 >> 32) as f64
    }
    fn scratch(ws: &mut TreeWorkspace) -> &mut HistScratch<Self> {
        &mut ws.unit_hist
    }
}

/// Weighted bin: instance count, Σw and Σw·[y=1]. A negative-class row adds
/// `+0.0` to the positive sum, which leaves any sum started at `+0.0`
/// bit-unchanged, so the sums equal the branchy row-order ones.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct WeightedBin {
    cnt: u32,
    wtot: f64,
    wpos: f64,
}

impl Bin for WeightedBin {
    fn of_row(w: f64, positive: bool) -> Self {
        WeightedBin { cnt: 1, wtot: w, wpos: if positive { w } else { 0.0 } }
    }
    fn add(&mut self, other: Self) {
        self.cnt += other.cnt;
        self.wtot += other.wtot;
        self.wpos += other.wpos;
    }
    fn add_if(&mut self, other: Self, keep: bool) {
        if keep {
            self.add(other);
        }
    }
    fn sub(&mut self, other: Self) {
        self.cnt -= other.cnt;
        self.wtot -= other.wtot;
        self.wpos -= other.wpos;
    }
    fn count(self) -> u32 {
        self.cnt
    }
    fn total(self) -> f64 {
        self.wtot
    }
    fn positives(self) -> f64 {
        self.wpos
    }
    fn scratch(ws: &mut TreeWorkspace) -> &mut HistScratch<Self> {
        &mut ws.weighted_hist
    }
}

/// One pooled histogram buffer of the binned kernel: one accumulator per
/// bin, plus per-feature occupied and touched code ranges (inclusive;
/// `(1, 0)` means empty).
///
/// Invariant: outside an `alloc`/`release` window every buffer is fully
/// zero — `release` zeroes the *touched* (`dirty`) span, which covers the
/// occupied one, so fresh builds never pay a full `MAX_BINS` reset.
#[derive(Debug, Default)]
struct HistBuf<B> {
    bins: Vec<B>,
    /// Occupied code range per feature (tightened after subtraction).
    range: Vec<(u16, u16)>,
    /// Widest code range ever written this allocation (zeroing span).
    dirty: Vec<(u16, u16)>,
}

/// Per-accumulator scratch of the binned kernel, kept on the workspace
/// between fits.
#[derive(Debug, Default)]
struct HistScratch<B> {
    /// Histogram buffer pool; all buffers are zeroed between uses.
    pool: Vec<HistBuf<B>>,
    /// Per-node compact gather of the rows' accumulators.
    inc: Vec<B>,
}

/// A trained decision tree.
#[derive(Debug, Clone, PartialEq)]
pub struct DecisionTree {
    nodes: Vec<Node>,
    importances: Vec<f64>,
    max_depth: usize,
}

impl DecisionTree {
    /// Fits a depth-limited CART tree.
    pub fn fit(x: &Matrix, y: &[bool], max_depth: usize) -> Self {
        Self::fit_weighted(x, y, max_depth, None)
    }

    /// Fits with optional per-instance weights (used for class balancing by
    /// the random forest).
    pub fn fit_weighted(x: &Matrix, y: &[bool], max_depth: usize, weights: Option<&[f64]>) -> Self {
        let mut ws = TreeWorkspace::default();
        Self::fit_in(x, y, max_depth, weights, &mut ws)
    }

    /// [`DecisionTree::fit_weighted`] through a caller-owned workspace:
    /// repeated fits (forest trees, wrapper evaluations) reuse every
    /// buffer and perform no steady-state allocation beyond the arena.
    ///
    /// `x` is any [`Cells`] source: a gathered matrix, or — for a binned
    /// fit whose workspace has bins bound — the source split read in place
    /// through a [`dfs_linalg::ColumnView`]. The binned kernel reads raw
    /// values only on its `x <= t` fallback, so both give the same tree.
    pub fn fit_in<X: Cells>(
        x: &X,
        y: &[bool],
        max_depth: usize,
        weights: Option<&[f64]>,
        ws: &mut TreeWorkspace,
    ) -> Self {
        let max_depth = max_depth.max(1);
        let deep = run_kernel(x, y, max_depth, weights, ws);
        let importances = deep.importances_at(max_depth);
        DecisionTree { nodes: deep.nodes, importances, max_depth }
    }

    /// Fits the full-depth tree once, annotated for O(nodes) derivation of
    /// every shallower tree via [`DeepTree::truncate`].
    pub fn fit_deep_in<X: Cells>(
        x: &X,
        y: &[bool],
        max_depth: usize,
        weights: Option<&[f64]>,
        ws: &mut TreeWorkspace,
    ) -> DeepTree {
        run_kernel(x, y, max_depth.max(1), weights, ws)
    }

    /// Assembles a tree from raw parts (used by the DP random tree).
    pub fn from_parts(nodes: Vec<Node>, importances: Vec<f64>, max_depth: usize) -> Self {
        assert!(!nodes.is_empty(), "DecisionTree: empty node arena");
        DecisionTree { nodes, importances, max_depth }
    }

    /// Normalized impurity-decrease importances (sum to 1 when nonzero).
    pub fn importances(&self) -> &[f64] {
        &self.importances
    }

    /// Depth limit the tree was trained with.
    pub fn max_depth(&self) -> usize {
        self.max_depth
    }

    /// Number of nodes in the tree.
    pub fn n_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// `P(y = 1 | x)` from the reached leaf.
    pub fn proba_one(&self, x: &[f64]) -> f64 {
        self.proba_row(x)
    }

    /// [`Self::proba_one`] for any [`FeatureRow`]: the walk compares the
    /// same doubles whether `x` is a slice or a mapped source row.
    pub fn proba_row(&self, x: impl FeatureRow) -> f64 {
        let mut i = 0usize;
        loop {
            match &self.nodes[i] {
                Node::Leaf { proba } => return *proba,
                Node::Split { feature, threshold, left, right } => {
                    i = if x.at(*feature) <= *threshold { *left } else { *right };
                }
            }
        }
    }

    /// Predicted label at the 0.5 threshold.
    pub fn predict_one(&self, x: &[f64]) -> bool {
        self.predict_row(x)
    }

    /// [`Self::predict_one`] for any [`FeatureRow`].
    pub fn predict_row(&self, x: impl FeatureRow) -> bool {
        self.proba_row(x) > 0.5
    }
}

/// A full-depth fit annotated with per-node creation depth, node
/// probability, and impurity-decrease contribution — everything needed to
/// derive any shallower tree in O(nodes) without refitting.
#[derive(Debug, Clone)]
pub struct DeepTree {
    /// Preorder node arena of the full-depth tree.
    nodes: Vec<Node>,
    /// Creation depth per node (root = 0).
    depth: Vec<u32>,
    /// `P(y = 1)` among the training instances reaching each node.
    proba: Vec<f64>,
    /// `gain × w_total` per split node (0 for leaves): the exact term the
    /// builder adds to that feature's importance.
    gain_w: Vec<f64>,
    n_features: usize,
    max_depth: usize,
    stats: FitStats,
}

impl DeepTree {
    /// The depth this tree was fitted at.
    pub fn max_depth(&self) -> usize {
        self.max_depth
    }

    /// Nodes in the full-depth arena.
    pub fn n_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Work counters of the underlying kernel fit.
    pub fn stats(&self) -> FitStats {
        self.stats
    }

    /// Total impurity-decrease contribution of splits created at each
    /// depth `0..max_depth` (the per-depth gain totals behind truncation).
    pub fn gain_by_depth(&self) -> Vec<f64> {
        let mut totals = vec![0.0; self.max_depth];
        for (i, node) in self.nodes.iter().enumerate() {
            if matches!(node, Node::Split { .. }) {
                totals[self.depth[i] as usize] += self.gain_w[i];
            }
        }
        totals
    }

    /// Derives the tree a direct fit at `max_depth = depth` would produce,
    /// bit-identically, in O(nodes): split nodes created at `depth` become
    /// leaves carrying their recorded probability, deeper subtrees are
    /// dropped, and importances are re-accumulated from the recorded gains
    /// in the original (preorder) order.
    ///
    /// # Panics
    /// Panics when `depth` exceeds the fitted depth — the annotation only
    /// records what the deep fit explored.
    pub fn truncate(&self, depth: usize) -> DecisionTree {
        let depth = depth.max(1);
        assert!(
            depth <= self.max_depth,
            "DeepTree::truncate: depth {depth} exceeds fitted depth {}",
            self.max_depth
        );
        let mut nodes = Vec::with_capacity(self.nodes.len());
        self.copy_subtree(0, depth, &mut nodes);
        DecisionTree { nodes, importances: self.importances_at(depth), max_depth: depth }
    }

    /// Preorder copy of the subtree at `i` with split nodes at
    /// `depth >= cutoff` demoted to leaves. Returns the new arena index.
    fn copy_subtree(&self, i: usize, cutoff: usize, out: &mut Vec<Node>) -> usize {
        match self.nodes[i] {
            Node::Leaf { proba } => {
                out.push(Node::Leaf { proba });
                out.len() - 1
            }
            Node::Split { feature, threshold, left, right } => {
                if self.depth[i] as usize >= cutoff {
                    out.push(Node::Leaf { proba: self.proba[i] });
                    out.len() - 1
                } else {
                    // Reserve this node's slot before the children, exactly
                    // like the builder does.
                    let me = out.len();
                    out.push(Node::Leaf { proba: self.proba[i] });
                    let l = self.copy_subtree(left, cutoff, out);
                    let r = self.copy_subtree(right, cutoff, out);
                    out[me] = Node::Split { feature, threshold, left: l, right: r };
                    me
                }
            }
        }
    }

    /// Labels of every truncation depth `1..=max_depth` for one row, from
    /// a single root-to-leaf walk: `out[c - 1]` is what
    /// `self.truncate(c).predict_one(x)` returns. [`DeepTree::truncate`]
    /// demotes the split nodes created at depth `>= c` to leaves carrying
    /// their recorded probability, so the depth-`c` tree's leaf for `x` is
    /// the first node on the path with depth `>= c`, or the leaf the path
    /// ends in.
    ///
    /// # Panics
    /// Panics when `out` is shorter than the fitted depth.
    pub fn predict_by_depth(&self, x: impl FeatureRow, out: &mut [bool]) {
        let out = &mut out[..self.max_depth];
        let mut c = 1; // smallest cutoff not yet resolved
        let mut i = 0;
        loop {
            match &self.nodes[i] {
                Node::Leaf { proba } => {
                    out[c - 1..].fill(*proba > 0.5);
                    return;
                }
                Node::Split { feature, threshold, left, right } => {
                    // A split sits above the fitted depth: `depth < out.len()`.
                    let depth = self.depth[i] as usize;
                    if c <= depth {
                        out[c - 1..depth].fill(self.proba[i] > 0.5);
                        c = depth + 1;
                    }
                    i = if x.at(*feature) <= *threshold { *left } else { *right };
                }
            }
        }
    }

    /// Normalized importances of the depth-`cutoff` truncation. The arena
    /// is in preorder — the order the builder accumulates importances in —
    /// so a linear scan reproduces the identical floating-point sums.
    /// Splits inside dropped subtrees sit at depth > `cutoff` and are
    /// skipped by the same depth test that drops them.
    fn importances_at(&self, cutoff: usize) -> Vec<f64> {
        let mut imp = vec![0.0; self.n_features];
        for (i, node) in self.nodes.iter().enumerate() {
            if let Node::Split { feature, .. } = node {
                if (self.depth[i] as usize) < cutoff {
                    imp[*feature] += self.gain_w[i];
                }
            }
        }
        let total: f64 = imp.iter().sum();
        if total > 0.0 {
            for v in &mut imp {
                *v /= total;
            }
        }
        imp
    }
}

/// Runs the workspace's configured kernel at `max_depth` (already clamped
/// ≥ 1) and returns the annotated full arena. Scratch comes from — and
/// returns to — `ws`; `ws.last_stats` is refreshed.
fn run_kernel<X: Cells>(
    x: &X,
    y: &[bool],
    max_depth: usize,
    weights: Option<&[f64]>,
    ws: &mut TreeWorkspace,
) -> DeepTree {
    match ws.exactness {
        SplitExactness::Binned256 | SplitExactness::Binned4096 => {
            run_binned_kernel(x, y, max_depth, weights, ws)
        }
        SplitExactness::Presorted => run_presorted_kernel(x, y, max_depth, weights, ws),
    }
}

/// The presorted-kernel driver behind [`run_kernel`].
fn run_presorted_kernel<X: Cells>(
    x: &X,
    y: &[bool],
    max_depth: usize,
    weights: Option<&[f64]>,
    ws: &mut TreeWorkspace,
) -> DeepTree {
    let (n, d) = x.shape();
    assert_eq!(n, y.len(), "DecisionTree: row/label mismatch");
    assert!(n > 0, "DecisionTree: empty training set");
    assert!(n <= u32::MAX as usize, "DecisionTree: too many rows for the u32 kernel");

    let mut unit_w = std::mem::take(&mut ws.unit_w);
    let w: &[f64] = match weights {
        Some(w) => {
            assert_eq!(w.len(), n, "DecisionTree: weight length mismatch");
            w
        }
        None => {
            unit_w.clear();
            unit_w.resize(n, 1.0);
            &unit_w
        }
    };

    // Presort: each feature's row order, stably sorted by value. A node's
    // segment of every order array is the node's rows sorted by that
    // feature, ties in row-ascending order — the same order the naive
    // builder's stable per-node sort would produce.
    let mut order = std::mem::take(&mut ws.order);
    let mut col = std::mem::take(&mut ws.col);
    order.clear();
    order.reserve(d * n);
    for f in 0..d {
        let start = order.len();
        order.extend(0..n as u32);
        col.clear();
        col.extend((0..n).map(|i| x.cell(i, f)));
        stable_sort_indices_by_key(&mut order[start..], &col);
    }
    let mut rows = std::mem::take(&mut ws.rows);
    rows.clear();
    rows.extend(0..n as u32);

    let mut kernel = Kernel {
        x,
        y,
        w,
        n,
        d,
        max_depth,
        order,
        rows,
        scratch: std::mem::take(&mut ws.scratch),
        nodes: Vec::new(),
        depth: Vec::new(),
        proba: Vec::new(),
        gain_w: Vec::new(),
        stats: FitStats::default(),
    };
    // Root class counts, accumulated in row-ascending order (the same
    // order the naive builder's `weighted_counts` walks).
    let mut w_pos = 0.0;
    let mut w_total = 0.0;
    for i in 0..n {
        w_total += w[i];
        if y[i] {
            w_pos += w[i];
        }
    }
    kernel.build(0, n, 0, w_pos, w_total);
    let Kernel { order, rows, scratch, nodes, depth, proba, gain_w, stats, .. } = kernel;

    // Hand the buffers back for the next fit.
    ws.order = order;
    ws.rows = rows;
    ws.scratch = scratch;
    ws.col = col;
    ws.unit_w = unit_w;
    ws.last_stats = stats;

    DeepTree { nodes, depth, proba, gain_w, n_features: d, max_depth, stats }
}

/// The presorted builder: every node owns the segment `[lo, hi)` of the
/// shared `rows` array (row-ascending) and of each feature's `order` array
/// (value-sorted), and hands disjoint subsegments to its children by
/// stable partition.
struct Kernel<'a, X> {
    x: &'a X,
    y: &'a [bool],
    w: &'a [f64],
    n: usize,
    d: usize,
    max_depth: usize,
    order: Vec<u32>,
    rows: Vec<u32>,
    scratch: Vec<u32>,
    nodes: Vec<Node>,
    depth: Vec<u32>,
    proba: Vec<f64>,
    gain_w: Vec<f64>,
    stats: FitStats,
}

impl<X: Cells> Kernel<'_, X> {
    /// Builds the subtree over segment `[lo, hi)`, returning its arena
    /// index. `w_pos` / `w_total` are this node's class counts, accumulated
    /// by the parent's partition in this node's row-ascending order (so
    /// they carry the exact bits a fresh scan would produce).
    fn build(&mut self, lo: usize, hi: usize, depth: usize, w_pos: f64, w_total: f64) -> usize {
        let proba = if w_total > 0.0 { w_pos / w_total } else { 0.5 };
        let node_gini = gini(w_pos, w_total);

        if depth >= self.max_depth
            || hi - lo < MIN_SAMPLES_SPLIT
            || node_gini <= dfs_linalg::EPS
        {
            return self.push(Node::Leaf { proba }, depth, proba, 0.0);
        }

        match self.best_split(lo, hi, node_gini, w_pos, w_total) {
            None => self.push(Node::Leaf { proba }, depth, proba, 0.0),
            Some(split) => {
                let gain_w = split.gain * w_total;
                let (nl, left_counts, right_counts) =
                    self.partition(lo, hi, split.feature, split.threshold);
                // Reserve this node's slot before recursing.
                let me = self.push(Node::Leaf { proba }, depth, proba, gain_w);
                let left = self.build(lo, lo + nl, depth + 1, left_counts.0, left_counts.1);
                let right = self.build(lo + nl, hi, depth + 1, right_counts.0, right_counts.1);
                self.nodes[me] =
                    Node::Split { feature: split.feature, threshold: split.threshold, left, right };
                me
            }
        }
    }

    fn push(&mut self, node: Node, depth: usize, proba: f64, gain_w: f64) -> usize {
        self.nodes.push(node);
        self.depth.push(depth as u32);
        self.proba.push(proba);
        self.gain_w.push(gain_w);
        self.stats.nodes += 1;
        self.nodes.len() - 1
    }

    /// Scans every feature's presorted segment for the best threshold.
    /// Identical candidate enumeration and floating-point order to the
    /// naive splitter: features ascending, positions ascending, running
    /// prefix sums accumulated one element at a time.
    fn best_split(
        &mut self,
        lo: usize,
        hi: usize,
        node_gini: f64,
        w_pos: f64,
        w_total: f64,
    ) -> Option<SplitChoice> {
        let len = hi - lo;
        let mut best: Option<SplitChoice> = None;
        for feature in 0..self.d {
            self.stats.split_scans += 1;
            let seg = &self.order[feature * self.n + lo..feature * self.n + hi];
            let mut prev = self.x.cell(seg[0] as usize, feature);
            if prev == self.x.cell(seg[len - 1] as usize, feature) {
                continue; // constant feature on this node
            }
            // Running prefix sums over the sorted order: after step k they
            // cover seg[0..k], matching the naive prefix arrays bit-for-bit.
            let mut left_total = 0.0;
            let mut left_pos = 0.0;
            for k in 1..len {
                let r = seg[k - 1] as usize;
                let wr = self.w[r];
                left_total += wr;
                if self.y[r] {
                    left_pos += wr;
                }
                // Candidate boundary: every position where the value changes.
                let v = self.x.cell(seg[k] as usize, feature);
                if v > prev {
                    let threshold = 0.5 * (prev + v);
                    let right_total = w_total - left_total;
                    if left_total > 0.0 && right_total > 0.0 {
                        let right_pos = w_pos - left_pos;
                        let child = (left_total * gini(left_pos, left_total)
                            + right_total * gini(right_pos, right_total))
                            / w_total;
                        // Like scikit-learn, zero-gain splits are allowed
                        // (depth and purity are the stopping rules) — this
                        // is what lets a depth-2 tree solve XOR, whose root
                        // split has exactly zero Gini gain.
                        let gain = (node_gini - child).max(0.0);
                        if best.as_ref().map(|b| gain > b.gain).unwrap_or(true) {
                            best = Some(SplitChoice { feature, threshold, gain, left_code: None });
                        }
                    }
                }
                prev = v;
            }
        }
        best
    }

    /// Stably partitions the node's segment of `rows` and of every
    /// feature's order array by the chosen split, accumulating each child's
    /// class counts in that child's row-ascending order along the way.
    /// Returns `(left_len, (left_pos, left_total), (right_pos, right_total))`.
    fn partition(
        &mut self,
        lo: usize,
        hi: usize,
        feature: usize,
        threshold: f64,
    ) -> (usize, (f64, f64), (f64, f64)) {
        let x = self.x;
        let mut left_pos = 0.0;
        let mut left_total = 0.0;
        let mut right_pos = 0.0;
        let mut right_total = 0.0;
        // Manual stable partition of the row-ascending set so the count
        // accumulators see each child's rows in exactly the order a fresh
        // `weighted_counts` scan of that child would.
        self.scratch.clear();
        let seg = &mut self.rows[lo..hi];
        let mut write = 0usize;
        for read in 0..seg.len() {
            let r = seg[read];
            let ri = r as usize;
            let wr = self.w[ri];
            if x.cell(ri, feature) <= threshold {
                seg[write] = r;
                write += 1;
                left_total += wr;
                if self.y[ri] {
                    left_pos += wr;
                }
            } else {
                self.scratch.push(r);
                right_total += wr;
                if self.y[ri] {
                    right_pos += wr;
                }
            }
        }
        seg[write..].copy_from_slice(&self.scratch);

        for f in 0..self.d {
            let seg = &mut self.order[f * self.n + lo..f * self.n + hi];
            stable_partition_in_place(seg, &mut self.scratch, |&r| {
                x.cell(r as usize, feature) <= threshold
            });
        }
        (write, (left_pos, left_total), (right_pos, right_total))
    }
}

struct SplitChoice {
    feature: usize,
    threshold: f64,
    gain: f64,
    /// Highest bin code of the rows routed left, when routing by code is
    /// exact (binned kernel only); `None` routes by raw value.
    left_code: Option<u16>,
}

/// Sentinel slot id for nodes that never need a histogram (guaranteed
/// leaves).
const NO_SLOT: usize = usize::MAX;

/// Quantizes the fit matrix into `ws.codes` and fills the flattened bin
/// tables (`ws.bin_lo` / `ws.bin_hi` / `ws.bin_off`): a pure code gather
/// from the bound [`BinSet`] when one is armed, a per-fit derivation at
/// the exactness mode's bin budget otherwise.
///
/// Debug builds check that every cell lies within its bin,
/// `lo[code] <= x <= hi[code]`: the code-space partition relies on it, and
/// it catches a stale same-shape binding.
fn prepare_binned_inputs<X: Cells>(x: &X, ws: &mut TreeWorkspace) {
    let (n, d) = x.shape();
    let width = ws.exactness.code_width().unwrap_or_default();
    ws.bin_lo.clear();
    ws.bin_hi.clear();
    ws.bin_off.clear();
    ws.bin_off.push(0);
    ws.codes.clear();
    ws.codes.resize(d * n, 0);
    match &ws.bound_bins {
        Some(bins) => {
            assert_eq!(
                ws.bound_cols.len(),
                d,
                "TreeWorkspace: bound bins do not match the training matrix width"
            );
            assert_eq!(
                ws.bound_rows.len(),
                n,
                "TreeWorkspace: bound bins do not match the training matrix height"
            );
            assert_eq!(
                bins.width(),
                width,
                "TreeWorkspace: bound bins were derived at a different code \
                 width than the workspace exactness mode"
            );
            for f in 0..d {
                let src = ws.bound_cols[f];
                let fb = &bins.feats[src];
                ws.bin_lo.extend_from_slice(&fb.lo);
                ws.bin_hi.extend_from_slice(&fb.hi);
                ws.bin_off.push(ws.bin_lo.len() as u32);
                bins.gather_codes(src, &ws.bound_rows, &mut ws.codes[f * n..(f + 1) * n]);
            }
        }
        None => {
            let max_bins = width.max_bins();
            let mut col = std::mem::take(&mut ws.col);
            for f in 0..d {
                col.clear();
                col.extend((0..n).map(|i| x.cell(i, f)));
                col.sort_unstable_by(|a, b| match a.partial_cmp(b) {
                    Some(ord) => ord,
                    None => panic!("DecisionTree: finite features required"),
                });
                let fb = FeatureBins::from_sorted_with(&col, max_bins);
                ws.bin_lo.extend_from_slice(&fb.lo);
                ws.bin_hi.extend_from_slice(&fb.hi);
                ws.bin_off.push(ws.bin_lo.len() as u32);
                for (i, c) in ws.codes[f * n..(f + 1) * n].iter_mut().enumerate() {
                    *c = fb.code_of(x.cell(i, f));
                }
            }
            ws.col = col;
        }
    }
    if cfg!(debug_assertions) {
        for f in 0..d {
            let base = ws.bin_off[f] as usize;
            let codes = &ws.codes[f * n..(f + 1) * n];
            for (i, &c) in codes.iter().enumerate() {
                let v = x.cell(i, f);
                let (lo, hi) = (ws.bin_lo[base + c as usize], ws.bin_hi[base + c as usize]);
                assert!(
                    lo <= v && v <= hi,
                    "TreeWorkspace: cell ({i}, {f}) = {v} lies outside its bin [{lo}, {hi}] \
                     (stale bound bins?)"
                );
            }
        }
    }
}

/// The histogram-kernel driver behind [`run_kernel`]. Unweighted fits
/// without active GOSS count in integers ([`UnitBin`]); caller weights or
/// GOSS amplification take the float accumulator ([`WeightedBin`]). Both
/// build bit-identical trees where both apply.
fn run_binned_kernel<X: Cells>(
    x: &X,
    y: &[bool],
    max_depth: usize,
    weights: Option<&[f64]>,
    ws: &mut TreeWorkspace,
) -> DeepTree {
    let (n, d) = x.shape();
    assert_eq!(n, y.len(), "DecisionTree: row/label mismatch");
    assert!(n > 0, "DecisionTree: empty training set");
    assert!(n <= u32::MAX as usize, "DecisionTree: too many rows for the u32 kernel");
    if let Some(w) = weights {
        assert_eq!(w.len(), n, "DecisionTree: weight length mismatch");
    }

    prepare_binned_inputs(x, ws);
    let stride = ws.bin_off[d] as usize;
    if stride != ws.hist_stride || d != ws.hist_d {
        // Pool buffers are sized (and zeroed) for one (stride, d) shape;
        // reshaping drops them so `alloc_slot` rebuilds clean ones.
        ws.unit_hist.pool.clear();
        ws.weighted_hist.pool.clear();
        ws.hist_stride = stride;
        ws.hist_d = d;
    }

    // An inactive config cannot drop rows, so it runs the identical
    // unsampled code path (the `goss(1.0, 1.0) ≡ off` bit-identity).
    let goss = ws.goss.filter(GossConfig::active);
    if weights.is_none() && goss.is_none() {
        BinnedKernel::<UnitBin, X>::run(x, y, max_depth, None, None, ws)
    } else {
        BinnedKernel::<WeightedBin, X>::run(x, y, max_depth, weights, goss, ws)
    }
}

/// The accumulator of row `r`: weight `w[r]` (1 when unweighted), label
/// `y[r]`.
#[inline]
fn row_acc<B: Bin>(w: Option<&[f64]>, y: &[bool], r: usize) -> B {
    B::of_row(w.map_or(1.0, |w| w[r]), y[r])
}

/// Scatters `rows` (with their accumulators `acc`) into a zeroed
/// histogram buffer, one feature column of the `d × n` code arena at a
/// time, recording each feature's occupied code range.
fn scatter<B: Bin>(
    buf: &mut HistBuf<B>,
    codes: &[u16],
    n: usize,
    off: &[u32],
    rows: &[u32],
    acc: &[B],
) {
    for f in 0..off.len() - 1 {
        let bins = &mut buf.bins[off[f] as usize..off[f + 1] as usize];
        let col = &codes[f * n..(f + 1) * n];
        for (&r, &a) in rows.iter().zip(acc) {
            bins[col[r as usize] as usize].add(a);
        }
        let range = match bins.iter().position(|b| b.count() > 0) {
            Some(mn) => {
                let mx = bins.iter().rposition(|b| b.count() > 0).unwrap_or(mn);
                (mn as u16, mx as u16)
            }
            None => (1, 0),
        };
        buf.range[f] = range;
        buf.dirty[f] = range;
    }
}

/// Stable, branch-free two-way partition of `seg`: every row is written
/// to both cursors — the left one in place, the right one into `right`
/// (at least `seg.len()` long) — and only the cursor `goes_left` picks
/// advances. Each side's accumulator sums its rows in row order. Returns
/// `(left_len, left, right)`.
#[inline(always)]
fn route<B: Bin>(
    seg: &mut [u32],
    right: &mut [u32],
    goes_left: impl Fn(usize) -> bool,
    acc: impl Fn(usize) -> B,
) -> (usize, B, B) {
    let (mut nl, mut nr) = (0usize, 0usize);
    let (mut left_acc, mut right_acc) = (B::default(), B::default());
    for i in 0..seg.len() {
        let r = seg[i];
        let left = goes_left(r as usize);
        let a = acc(r as usize);
        seg[nl] = r;
        right[nr] = r;
        nl += left as usize;
        nr += !left as usize;
        left_acc.add_if(a, left);
        right_acc.add_if(a, !left);
    }
    seg[nl..].copy_from_slice(&right[..nr]);
    (nl, left_acc, right_acc)
}

/// The histogram builder: every node owns the segment `[lo, hi)` of the
/// shared `rows` array (row-ascending) plus, when it can split, one pooled
/// histogram buffer; children reuse the parent's buffer via in-place
/// parent-minus-sibling subtraction.
struct BinnedKernel<'a, B, X> {
    x: &'a X,
    y: &'a [bool],
    /// Caller weights; `None` means every row weighs 1.
    w: Option<&'a [f64]>,
    n: usize,
    d: usize,
    max_depth: usize,
    /// Active GOSS config, if any (inactive ones are filtered out by the
    /// driver).
    goss: Option<GossConfig>,
    /// Column-major `d × n` quantized feature codes.
    codes: Vec<u16>,
    /// Flattened per-feature bin `lo` values.
    bin_lo: Vec<f64>,
    /// Flattened per-feature bin `hi` values.
    bin_hi: Vec<f64>,
    /// Prefix offsets into `bin_lo`/`bin_hi` (`d + 1` entries).
    off: Vec<u32>,
    rows: Vec<u32>,
    scratch: Vec<u32>,
    /// Per-node compact gather of the rows' accumulators.
    inc: Vec<B>,
    goss_g: Vec<(f64, u32)>,
    goss_h: Vec<(u64, u32)>,
    goss_rows: Vec<u32>,
    pool: Vec<HistBuf<B>>,
    free: Vec<usize>,
    stride: usize,
    nodes: Vec<Node>,
    depth: Vec<u32>,
    proba: Vec<f64>,
    gain_w: Vec<f64>,
    stats: FitStats,
}

impl<'a, B: Bin, X: Cells> BinnedKernel<'a, B, X> {
    /// Fits through `ws` (inputs already prepared by
    /// [`prepare_binned_inputs`]) and hands every buffer back to it.
    fn run(
        x: &'a X,
        y: &'a [bool],
        max_depth: usize,
        w: Option<&'a [f64]>,
        goss: Option<GossConfig>,
        ws: &mut TreeWorkspace,
    ) -> DeepTree {
        let (n, d) = x.shape();
        let hist = B::scratch(ws);
        let pool = std::mem::take(&mut hist.pool);
        let inc = std::mem::take(&mut hist.inc);
        let mut rows = std::mem::take(&mut ws.rows);
        rows.clear();
        rows.extend(0..n as u32);

        let mut kernel = BinnedKernel {
            x,
            y,
            w,
            n,
            d,
            max_depth,
            goss,
            codes: std::mem::take(&mut ws.codes),
            bin_lo: std::mem::take(&mut ws.bin_lo),
            bin_hi: std::mem::take(&mut ws.bin_hi),
            off: std::mem::take(&mut ws.bin_off),
            rows,
            scratch: std::mem::take(&mut ws.scratch),
            inc,
            goss_g: std::mem::take(&mut ws.goss_g),
            goss_h: std::mem::take(&mut ws.goss_h),
            goss_rows: std::mem::take(&mut ws.goss_rows),
            pool,
            free: Vec::new(),
            stride: ws.hist_stride,
            nodes: Vec::new(),
            depth: Vec::new(),
            proba: Vec::new(),
            gain_w: Vec::new(),
            stats: FitStats::default(),
        };
        // Every pooled buffer is zero between fits (the release invariant),
        // so all of them start free.
        kernel.free.extend(0..kernel.pool.len());

        // Root class counts, accumulated in row-ascending order (identical
        // to the presorted kernel).
        let mut root = B::default();
        for i in 0..n {
            root.add(row_acc(w, y, i));
        }
        // Under GOSS every splittable node builds its own (sampled)
        // histogram at `build` entry — sibling derivation is off, because a
        // subsampled parent histogram is not the sum of its children's.
        let root_gini = gini(root.positives(), root.total());
        let root_slot = if goss.is_none() && kernel.needs_split_scan(n, 0, root_gini) {
            let s = kernel.alloc_slot();
            kernel.build_hist(0, n, s);
            s
        } else {
            NO_SLOT
        };
        kernel.build(0, n, 0, root, root_slot);

        let BinnedKernel {
            codes,
            bin_lo,
            bin_hi,
            off,
            rows,
            scratch,
            inc,
            goss_g,
            goss_h,
            goss_rows,
            pool,
            nodes,
            depth,
            proba,
            gain_w,
            stats,
            ..
        } = kernel;
        ws.codes = codes;
        ws.bin_lo = bin_lo;
        ws.bin_hi = bin_hi;
        ws.bin_off = off;
        ws.rows = rows;
        ws.scratch = scratch;
        ws.goss_g = goss_g;
        ws.goss_h = goss_h;
        ws.goss_rows = goss_rows;
        let hist = B::scratch(ws);
        hist.pool = pool;
        hist.inc = inc;
        ws.last_stats = stats;

        DeepTree { nodes, depth, proba, gain_w, n_features: d, max_depth, stats }
    }

    /// Whether a node with these parameters will attempt a split — the
    /// negation of the leaf test, factored out so a parent can decide
    /// before recursing whether a child needs a histogram at all.
    fn needs_split_scan(&self, len: usize, depth: usize, node_gini: f64) -> bool {
        depth < self.max_depth && len >= MIN_SAMPLES_SPLIT && node_gini > dfs_linalg::EPS
    }

    /// Takes a zeroed histogram buffer from the pool, growing it on demand.
    fn alloc_slot(&mut self) -> usize {
        if let Some(s) = self.free.pop() {
            return s;
        }
        self.pool.push(HistBuf {
            bins: vec![B::default(); self.stride],
            range: vec![(1, 0); self.d],
            dirty: vec![(1, 0); self.d],
        });
        self.pool.len() - 1
    }

    /// Returns a buffer to the pool, restoring the all-zero invariant by
    /// clearing exactly the spans this allocation touched.
    fn release(&mut self, slot: usize) {
        if slot == NO_SLOT {
            return;
        }
        let buf = &mut self.pool[slot];
        for f in 0..self.d {
            let (mn, mx) = buf.dirty[f];
            if mn > mx {
                continue;
            }
            let base = self.off[f] as usize;
            buf.bins[base + mn as usize..=base + mx as usize].fill(B::default());
            buf.range[f] = (1, 0);
            buf.dirty[f] = (1, 0);
        }
        self.free.push(slot);
    }

    /// Builds the node's histogram in one pass over its rows: the rows'
    /// accumulators are gathered into a compact buffer once, then each
    /// feature's loop reads it sequentially while scattering into the
    /// per-bin accumulators.
    fn build_hist(&mut self, lo: usize, hi: usize, slot: usize) {
        let rows = &self.rows[lo..hi];
        let (w, y) = (self.w, self.y);
        self.inc.clear();
        self.inc.extend(rows.iter().map(|&r| row_acc::<B>(w, y, r as usize)));
        scatter(&mut self.pool[slot], &self.codes, self.n, &self.off, rows, &self.inc);
    }

    /// GOSS histogram build for the node over `[lo, hi)` (`node_id` is its
    /// preorder arena index): keeps the `top_frac` share of rows with the
    /// largest gradient proxy `w_i·|y_i − proba|` exactly, draws a
    /// `rest_frac` share of the remainder by smallest per-node row hash
    /// (`derive_seed(derive_seed(g.seed, node_id), row)` — a pure function
    /// of the row set, independent of traversal or thread count), and
    /// amplifies the drawn remainder's weights by `n_rest / n_drawn` so the
    /// histogram's expected sums equal the exact ones. Rows are accumulated
    /// in ascending-row order, making the float sums deterministic.
    ///
    /// Returns the sampled `(w_pos, w_total)` the split scan must run
    /// against, or `None` when the node passed through unsampled (too small
    /// or the ceil shares cover it) and the caller's exact counts apply.
    fn build_hist_goss(
        &mut self,
        lo: usize,
        hi: usize,
        slot: usize,
        node_id: u64,
        g: GossConfig,
        proba: f64,
    ) -> Option<(f64, f64)> {
        let len = hi - lo;
        let keep = ((g.top_frac * len as f64).ceil() as usize).min(len);
        let rest = ((g.rest_frac * len as f64).ceil() as usize).min(len - keep);
        if len < g.min_rows.max(MIN_SAMPLES_SPLIT) || keep + rest >= len {
            self.build_hist(lo, hi, slot);
            return None;
        }
        let (w, y) = (self.w, self.y);
        let weight = |r: usize| w.map_or(1.0, |w| w[r]);
        let mut gbuf = std::mem::take(&mut self.goss_g);
        gbuf.clear();
        for &r in &self.rows[lo..hi] {
            let ri = r as usize;
            let target = if y[ri] { 1.0 } else { 0.0 };
            gbuf.push((weight(ri) * (target - proba).abs(), r));
        }
        // Top-`keep` by gradient (descending, row-ascending tiebreak): a
        // total order, so the selected *set* is order-independent.
        if keep > 0 {
            gbuf.select_nth_unstable_by(keep - 1, |a, b| {
                b.0.total_cmp(&a.0).then(a.1.cmp(&b.1))
            });
        }
        // Uniform draw of `rest` from the remainder: smallest (hash, row)
        // pairs win. Hash-based selection needs no RNG stream and is again
        // a pure function of the remainder set and the node seed.
        let node_seed = derive_seed(g.seed, node_id);
        let mut hbuf = std::mem::take(&mut self.goss_h);
        hbuf.clear();
        hbuf.extend(gbuf[keep..].iter().map(|&(_, r)| (derive_seed(node_seed, r as u64), r)));
        if rest > 0 {
            hbuf.select_nth_unstable_by(rest - 1, |a, b| a.0.cmp(&b.0).then(a.1.cmp(&b.1)));
        }
        let amp = if rest > 0 { (len - keep) as f64 / rest as f64 } else { 0.0 };
        gbuf[..keep].sort_unstable_by_key(|&(_, r)| r);
        hbuf[..rest].sort_unstable_by_key(|&(_, r)| r);

        // Merge the two disjoint row-ascending sets, filling the compact
        // accumulator gather (kept rows exact, drawn rows amplified) and
        // the sampled totals along the way.
        let mut samp = std::mem::take(&mut self.goss_rows);
        samp.clear();
        self.inc.clear();
        let mut scan = B::default();
        let (mut i, mut j) = (0usize, 0usize);
        while i < keep || j < rest {
            let take_top = j >= rest || (i < keep && gbuf[i].1 < hbuf[j].1);
            let (r, mult) = if take_top {
                let r = gbuf[i].1;
                i += 1;
                (r, 1.0)
            } else {
                let r = hbuf[j].1;
                j += 1;
                (r, amp)
            };
            let ri = r as usize;
            let a = B::of_row(weight(ri) * mult, y[ri]);
            samp.push(r);
            self.inc.push(a);
            scan.add(a);
        }
        self.goss_g = gbuf;
        self.goss_h = hbuf;
        scatter(&mut self.pool[slot], &self.codes, self.n, &self.off, &samp, &self.inc);
        self.goss_rows = samp;
        Some((scan.positives(), scan.total()))
    }

    /// Converts the parent's histogram into the larger child's in place:
    /// `parent -= smaller_child` over the parent's occupied span, then
    /// tightens the occupied range from the exact integer counts. Counts
    /// subtract exactly; float sums of bins fully owned by the smaller
    /// child cancel to exactly `0.0` (both sides accumulated the identical
    /// row-order sequence), so emptied bins stay clean.
    fn derive_sibling(&mut self, parent: usize, small: usize) {
        debug_assert_ne!(parent, small);
        let (pbuf, sbuf) = if parent < small {
            let (a, b) = self.pool.split_at_mut(small);
            (&mut a[parent], &b[0])
        } else {
            let (a, b) = self.pool.split_at_mut(parent);
            (&mut b[0], &a[small])
        };
        for f in 0..self.d {
            let (pmin, pmax) = pbuf.range[f];
            if pmin > pmax {
                continue;
            }
            let base = self.off[f] as usize;
            let lo = base + pmin as usize;
            let hi = base + pmax as usize + 1;
            for (a, b) in pbuf.bins[lo..hi].iter_mut().zip(&sbuf.bins[lo..hi]) {
                a.sub(*b);
            }
            let mut minc = u16::MAX;
            let mut maxc = 0u16;
            for (k, bin) in pbuf.bins[lo..hi].iter().enumerate() {
                if bin.count() > 0 {
                    let b = (pmin as usize + k) as u16;
                    if minc == u16::MAX {
                        minc = b;
                    }
                    maxc = b;
                }
            }
            pbuf.range[f] = (minc, maxc);
            // `dirty` keeps the parent's wider span — subtraction can leave
            // exact zeros outside the tightened range that release() must
            // still (cheaply) clear.
        }
    }

    /// Builds the subtree over segment `[lo, hi)` whose histogram (if any)
    /// sits in `slot`, returning its arena index. `node` holds this node's
    /// class counts, accumulated by the parent's partition in row-ascending
    /// order, exactly like the presorted kernel.
    ///
    /// Under GOSS, `slot` is always `NO_SLOT` on entry: each splittable
    /// node allocates a buffer and builds its own sampled histogram here,
    /// keyed by its preorder arena index (`nodes.len()` at entry, which is
    /// exactly the index this node will occupy — parents push themselves
    /// before recursing). Leaf tests, probabilities, partitions, and the
    /// children's class counts all remain exact.
    fn build(&mut self, lo: usize, hi: usize, depth: usize, node: B, slot: usize) -> usize {
        let node_id = self.nodes.len() as u64;
        let (w_pos, w_total) = (node.positives(), node.total());
        let proba = if w_total > 0.0 { w_pos / w_total } else { 0.5 };
        let node_gini = gini(w_pos, w_total);

        if !self.needs_split_scan(hi - lo, depth, node_gini) {
            self.release(slot);
            return self.push(Node::Leaf { proba }, depth, proba, 0.0);
        }

        let (slot, scan_pos, scan_total, scan_gini, sampled) = match self.goss {
            Some(g) => {
                debug_assert_eq!(slot, NO_SLOT);
                let s = self.alloc_slot();
                match self.build_hist_goss(lo, hi, s, node_id, g, proba) {
                    Some((sp, st)) => (s, sp, st, gini(sp, st), true),
                    None => (s, w_pos, w_total, node_gini, false),
                }
            }
            None => (slot, w_pos, w_total, node_gini, false),
        };

        match self.best_split(slot, scan_gini, scan_pos, scan_total) {
            None => {
                self.release(slot);
                self.push(Node::Leaf { proba }, depth, proba, 0.0)
            }
            Some(mut split) => {
                if sampled {
                    // A sampled histogram can miss node rows in the bins
                    // between the two it split, so route by value.
                    split.left_code = None;
                }
                // With GOSS the gain and totals are the (unbiased) sampled
                // estimates; without, they are the exact node sums.
                let gain_w = split.gain * scan_total;
                let (nl, left_counts, right_counts) = self.partition(lo, hi, &split);
                let nr = (hi - lo) - nl;
                let left_needs = self.needs_split_scan(
                    nl,
                    depth + 1,
                    gini(left_counts.positives(), left_counts.total()),
                );
                let right_needs = self.needs_split_scan(
                    nr,
                    depth + 1,
                    gini(right_counts.positives(), right_counts.total()),
                );
                let (left_slot, right_slot) = if self.goss.is_some() {
                    // Sampled histograms don't subtract: children build
                    // their own at their turn.
                    self.release(slot);
                    (NO_SLOT, NO_SLOT)
                } else {
                    match (left_needs, right_needs) {
                        (false, false) => {
                            self.release(slot);
                            (NO_SLOT, NO_SLOT)
                        }
                        (true, false) => {
                            let s = self.alloc_slot();
                            self.build_hist(lo, lo + nl, s);
                            self.release(slot);
                            (s, NO_SLOT)
                        }
                        (false, true) => {
                            let s = self.alloc_slot();
                            self.build_hist(lo + nl, hi, s);
                            self.release(slot);
                            (NO_SLOT, s)
                        }
                        (true, true) => {
                            // Build the smaller child fresh; the larger child
                            // inherits the parent's buffer by subtraction.
                            let s = self.alloc_slot();
                            if nl <= nr {
                                self.build_hist(lo, lo + nl, s);
                                self.derive_sibling(slot, s);
                                (s, slot)
                            } else {
                                self.build_hist(lo + nl, hi, s);
                                self.derive_sibling(slot, s);
                                (slot, s)
                            }
                        }
                    }
                };
                // Reserve this node's slot before recursing.
                let me = self.push(Node::Leaf { proba }, depth, proba, gain_w);
                let left = self.build(lo, lo + nl, depth + 1, left_counts, left_slot);
                let right = self.build(lo + nl, hi, depth + 1, right_counts, right_slot);
                self.nodes[me] =
                    Node::Split { feature: split.feature, threshold: split.threshold, left, right };
                me
            }
        }
    }

    fn push(&mut self, node: Node, depth: usize, proba: f64, gain_w: f64) -> usize {
        self.nodes.push(node);
        self.depth.push(depth as u32);
        self.proba.push(proba);
        self.gain_w.push(gain_w);
        self.stats.nodes += 1;
        self.nodes.len() - 1
    }

    /// Scans the node's histogram for the best threshold: per feature, an
    /// O(occupied bins) walk emitting a candidate at every boundary between
    /// occupied bins, with the identical gain expression, comparison order,
    /// and tie-breaking as the presorted kernel. Thresholds come from the
    /// dataset-level bin representatives: `t = 0.5 * (hi[p] + lo[b])` for
    /// adjacent occupied bins `p < b`.
    ///
    /// The winner records `p` as its `left_code` when `hi[p] <= t < lo[b]`:
    /// every cell lies within its bin, so a node row with code `<= p` has
    /// value `<= hi[p] <= t` and one with code `>= b` has value
    /// `>= lo[b] > t`, and the node has no rows in between — routing by
    /// code is then exactly routing by value. The test fails only when `t`
    /// rounds onto `lo[b]` (adjacent doubles) or `hi[p] + lo[b]` overflows.
    fn best_split(
        &mut self,
        slot: usize,
        node_gini: f64,
        w_pos: f64,
        w_total: f64,
    ) -> Option<SplitChoice> {
        let buf = &self.pool[slot];
        let mut best: Option<SplitChoice> = None;
        for feature in 0..self.d {
            self.stats.split_scans += 1;
            let (minc, maxc) = buf.range[feature];
            if minc >= maxc {
                continue; // constant on this node (single occupied bin)
            }
            let base = self.off[feature] as usize;
            let mut left_total = 0.0;
            let mut left_pos = 0.0;
            let mut prev: Option<usize> = None;
            for b in (minc as usize)..=(maxc as usize) {
                let i = base + b;
                let bin = buf.bins[i];
                if bin.count() == 0 {
                    continue;
                }
                if let Some(p) = prev {
                    // Candidate between occupied bins p and b; the left
                    // sums cover bins <= p.
                    let (hi_p, lo_b) = (self.bin_hi[base + p], self.bin_lo[i]);
                    let threshold = 0.5 * (hi_p + lo_b);
                    let right_total = w_total - left_total;
                    if left_total > 0.0 && right_total > 0.0 {
                        let right_pos = w_pos - left_pos;
                        let child = (left_total * gini(left_pos, left_total)
                            + right_total * gini(right_pos, right_total))
                            / w_total;
                        let gain = (node_gini - child).max(0.0);
                        if best.as_ref().map(|bst| gain > bst.gain).unwrap_or(true) {
                            let left_code =
                                (hi_p <= threshold && threshold < lo_b).then_some(p as u16);
                            best = Some(SplitChoice { feature, threshold, gain, left_code });
                        }
                    }
                }
                left_total += bin.total();
                left_pos += bin.positives();
                prev = Some(b);
            }
        }
        best
    }

    /// Stably partitions the node's row segment by the chosen split —
    /// by code against `left_code` when [`Self::best_split`] proved that
    /// exact, else by raw value against the threshold (the test prediction
    /// routing uses) — accumulating each child's class counts in its
    /// row-ascending order, exactly like the presorted kernel minus its d
    /// per-feature order-array partitions.
    fn partition(&mut self, lo: usize, hi: usize, split: &SplitChoice) -> (usize, B, B) {
        let seg = &mut self.rows[lo..hi];
        self.scratch.clear();
        self.scratch.resize(seg.len(), 0);
        let (w, y) = (self.w, self.y);
        let acc = |r: usize| row_acc::<B>(w, y, r);
        let f = split.feature;
        match split.left_code {
            Some(p) => {
                let col = &self.codes[f * self.n..(f + 1) * self.n];
                route(seg, &mut self.scratch, |r| col[r] <= p, acc)
            }
            None => {
                let (x, t) = (self.x, split.threshold);
                route(seg, &mut self.scratch, |r| x.cell(r, f) <= t, acc)
            }
        }
    }
}

/// Gini impurity of a (weighted) binary node.
fn gini(pos: f64, total: f64) -> f64 {
    if total <= 0.0 {
        return 0.0;
    }
    let p = pos / total;
    2.0 * p * (1.0 - p)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dfs_linalg::ColumnView;

    /// The pre-kernel naive splitter, kept verbatim as the bit-identity
    /// reference: per-node gather + stable sort + prefix arrays. The only
    /// change from the historical builder is that the node's class counts
    /// are computed once in `build` and passed to `best_split` (the sums
    /// are identical either way).
    mod reference {
        use super::super::*;

        pub fn fit(
            x: &Matrix,
            y: &[bool],
            max_depth: usize,
            weights: Option<&[f64]>,
        ) -> DecisionTree {
            let (n, d) = x.shape();
            assert_eq!(n, y.len());
            assert!(n > 0);
            let max_depth = max_depth.max(1);
            let w: Vec<f64> = match weights {
                Some(w) => w.to_vec(),
                None => vec![1.0; n],
            };
            let mut builder = Builder {
                x,
                y,
                w: &w,
                nodes: Vec::new(),
                importances: vec![0.0; d],
                max_depth,
            };
            let all: Vec<usize> = (0..n).collect();
            builder.build(&all, 0);
            let total: f64 = builder.importances.iter().sum();
            if total > 0.0 {
                for imp in &mut builder.importances {
                    *imp /= total;
                }
            }
            DecisionTree {
                nodes: builder.nodes,
                importances: builder.importances,
                max_depth,
            }
        }

        struct Builder<'a> {
            x: &'a Matrix,
            y: &'a [bool],
            w: &'a [f64],
            nodes: Vec<Node>,
            importances: Vec<f64>,
            max_depth: usize,
        }

        impl Builder<'_> {
            fn build(&mut self, idx: &[usize], depth: usize) -> usize {
                let (w_pos, w_total) = self.weighted_counts(idx);
                let proba = if w_total > 0.0 { w_pos / w_total } else { 0.5 };
                let node_gini = gini(w_pos, w_total);

                if depth >= self.max_depth
                    || idx.len() < MIN_SAMPLES_SPLIT
                    || node_gini <= dfs_linalg::EPS
                {
                    return self.push(Node::Leaf { proba });
                }

                match self.best_split(idx, node_gini, w_pos, w_total) {
                    None => self.push(Node::Leaf { proba }),
                    Some(split) => {
                        self.importances[split.feature] += split.gain * w_total;
                        let (left_idx, right_idx): (Vec<usize>, Vec<usize>) = idx
                            .iter()
                            .partition(|&&i| self.x[(i, split.feature)] <= split.threshold);
                        let me = self.push(Node::Leaf { proba });
                        let left = self.build(&left_idx, depth + 1);
                        let right = self.build(&right_idx, depth + 1);
                        self.nodes[me] = Node::Split {
                            feature: split.feature,
                            threshold: split.threshold,
                            left,
                            right,
                        };
                        me
                    }
                }
            }

            fn push(&mut self, node: Node) -> usize {
                self.nodes.push(node);
                self.nodes.len() - 1
            }

            fn weighted_counts(&self, idx: &[usize]) -> (f64, f64) {
                let mut pos = 0.0;
                let mut total = 0.0;
                for &i in idx {
                    total += self.w[i];
                    if self.y[i] {
                        pos += self.w[i];
                    }
                }
                (pos, total)
            }

            fn best_split(
                &self,
                idx: &[usize],
                node_gini: f64,
                w_pos: f64,
                w_total: f64,
            ) -> Option<SplitChoice> {
                let d = self.x.ncols();
                let mut best: Option<SplitChoice> = None;
                let mut values: Vec<(f64, f64, bool)> = Vec::with_capacity(idx.len());
                for feature in 0..d {
                    values.clear();
                    values.extend(
                        idx.iter().map(|&i| (self.x[(i, feature)], self.w[i], self.y[i])),
                    );
                    values.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite features"));
                    if values.first().map(|v| v.0) == values.last().map(|v| v.0) {
                        continue;
                    }
                    let len = values.len();
                    let mut prefix_pos = vec![0.0; len + 1];
                    let mut prefix_total = vec![0.0; len + 1];
                    for (k, v) in values.iter().enumerate() {
                        prefix_total[k + 1] = prefix_total[k] + v.1;
                        prefix_pos[k + 1] = prefix_pos[k] + if v.2 { v.1 } else { 0.0 };
                    }
                    for k in (1..len).filter(|&k| values[k].0 > values[k - 1].0) {
                        let threshold = 0.5 * (values[k - 1].0 + values[k].0);
                        let left_total = prefix_total[k];
                        let right_total = w_total - left_total;
                        if left_total <= 0.0 || right_total <= 0.0 {
                            continue;
                        }
                        let left_pos = prefix_pos[k];
                        let right_pos = w_pos - left_pos;
                        let child = (left_total * gini(left_pos, left_total)
                            + right_total * gini(right_pos, right_total))
                            / w_total;
                        let gain = (node_gini - child).max(0.0);
                        if best.as_ref().map(|b| gain > b.gain).unwrap_or(true) {
                            best = Some(SplitChoice { feature, threshold, gain, left_code: None });
                        }
                    }
                }
                best
            }
        }
    }

    fn assert_bit_identical(a: &DecisionTree, b: &DecisionTree) {
        assert_eq!(a.nodes, b.nodes, "node arenas differ");
        assert_eq!(a.max_depth, b.max_depth);
        assert_eq!(a.importances.len(), b.importances.len());
        for (i, (x, y)) in a.importances.iter().zip(&b.importances).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "importance {i}: {x} vs {y}");
        }
    }

    /// Deterministic data generator exercising the awkward cases: duplicate
    /// values (quantized columns), constant features, and non-uniform
    /// instance weights.
    fn awkward_problem(seed: u64, n: usize, d: usize) -> (Matrix, Vec<bool>, Vec<f64>) {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut rows = Vec::with_capacity(n);
        let mut y = Vec::with_capacity(n);
        let mut w = Vec::with_capacity(n);
        for _ in 0..n {
            let mut row = Vec::with_capacity(d);
            for f in 0..d {
                let v = if f == d - 1 {
                    0.37 // constant feature
                } else {
                    // Quantize to force duplicate values and ties.
                    ((next() % 7) as f64) / 7.0
                };
                row.push(v);
            }
            let label = (row[0] + row[1 % d] > 0.9) ^ (next() % 11 == 0);
            y.push(label);
            w.push(match next() % 4 {
                0 => 0.25,
                1 => 1.0,
                2 => 2.5,
                _ => 10.0,
            });
            rows.push(row);
        }
        (Matrix::from_rows(&rows), y, w)
    }

    /// `y = (x0 > 0.5) AND (x1 > 0.5)` — solvable exactly by greedy CART at
    /// depth 2 (unlike balanced XOR, whose root split has zero Gini gain and
    /// defeats any greedy splitter, scikit-learn included).
    fn and_problem() -> (Matrix, Vec<bool>) {
        let mut rows = Vec::new();
        let mut y = Vec::new();
        for i in 0..80 {
            let a = (i % 2) as f64;
            let b = ((i / 2) % 2) as f64;
            let ja = 0.05 * ((i as f64 * 0.37) % 1.0);
            let jb = 0.05 * ((i as f64 * 0.73) % 1.0);
            rows.push(vec![a * 0.9 + ja, b * 0.9 + jb]);
            y.push(a > 0.5 && b > 0.5);
        }
        (Matrix::from_rows(&rows), y)
    }

    #[test]
    fn learns_conjunction_with_depth_two() {
        let (x, y) = and_problem();
        let t = DecisionTree::fit(&x, &y, 2);
        for (row, &label) in x.rows_iter().zip(&y) {
            assert_eq!(t.predict_one(row), label, "row {row:?}");
        }
    }

    #[test]
    fn depth_one_stump_cannot_solve_conjunction() {
        let (x, y) = and_problem();
        let t = DecisionTree::fit(&x, &y, 1);
        let errors = x
            .rows_iter()
            .zip(&y)
            .filter(|(row, &label)| t.predict_one(row) != label)
            .count();
        assert!(errors >= 15, "stump should fail on AND, errors = {errors}");
    }

    #[test]
    fn importances_sum_to_one_and_pick_signal() {
        // Only feature 1 matters.
        let rows: Vec<Vec<f64>> =
            (0..60).map(|i| vec![(i as f64 * 0.17) % 1.0, if i % 2 == 0 { 0.2 } else { 0.8 }]).collect();
        let y: Vec<bool> = (0..60).map(|i| i % 2 == 1).collect();
        let t = DecisionTree::fit(&Matrix::from_rows(&rows), &y, 3);
        let imp = t.importances();
        assert!((imp.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(imp[1] > 0.9, "importances {imp:?}");
    }

    #[test]
    fn pure_node_is_a_single_leaf() {
        let x = Matrix::from_rows(&[vec![0.1], vec![0.5], vec![0.9]]);
        let t = DecisionTree::fit(&x, &[true, true, true], 5);
        assert_eq!(t.n_nodes(), 1);
        assert!(t.predict_one(&[0.3]));
    }

    #[test]
    fn weighted_fit_shifts_the_decision() {
        // Same data, but weight the positive class heavily -> ambiguous
        // region should flip to positive.
        let x = Matrix::from_rows(&[
            vec![0.4],
            vec![0.45],
            vec![0.5],
            vec![0.55],
            vec![0.6],
            vec![0.65],
        ]);
        let y = vec![false, false, false, true, true, true];
        let heavy_pos = vec![1.0, 1.0, 1.0, 10.0, 10.0, 10.0];
        let t = DecisionTree::fit_weighted(&x, &y, 1, Some(&heavy_pos));
        // The stump must still separate cleanly at ~0.525.
        assert!(!t.predict_one(&[0.4]));
        assert!(t.predict_one(&[0.6]));
    }

    #[test]
    fn probabilities_reflect_leaf_composition() {
        let x = Matrix::from_rows(&[vec![0.1], vec![0.2], vec![0.3], vec![0.9]]);
        let y = vec![true, true, false, false];
        // Depth 1: left leaf (low x) is 2/3 positive if split lands at ~0.6.
        let t = DecisionTree::fit(&x, &y, 1);
        let p = t.proba_one(&[0.15]);
        assert!((0.0..=1.0).contains(&p));
    }

    #[test]
    fn deterministic_fit() {
        let (x, y) = and_problem();
        assert_eq!(DecisionTree::fit(&x, &y, 4), DecisionTree::fit(&x, &y, 4));
    }

    #[test]
    fn both_kernels_match_naive_reference_on_clean_data() {
        let (x, y) = and_problem();
        for mode in
            [SplitExactness::Binned256, SplitExactness::Binned4096, SplitExactness::Presorted]
        {
            let mut ws = TreeWorkspace::with_exactness(mode);
            for depth in 1..=5 {
                let kernel = DecisionTree::fit_in(&x, &y, depth, None, &mut ws);
                let naive = reference::fit(&x, &y, depth, None);
                assert_bit_identical(&kernel, &naive);
            }
        }
    }

    #[test]
    fn both_kernels_match_naive_reference_on_awkward_data() {
        // Duplicate values, constant features, weighted rows, many seeds.
        // Every column has <= 7 distinct values and the weights are dyadic,
        // so the binned kernels must be *bit-identical* to the reference,
        // not merely close.
        for mode in
            [SplitExactness::Binned256, SplitExactness::Binned4096, SplitExactness::Presorted]
        {
            let mut ws = TreeWorkspace::with_exactness(mode);
            for seed in 0..12u64 {
                let (x, y, w) = awkward_problem(seed, 90 + (seed as usize % 3) * 17, 5);
                for (depth, weights) in [(1, None), (3, Some(&w)), (6, None), (7, Some(&w))] {
                    let weights = weights.map(|w| w.as_slice());
                    let kernel = DecisionTree::fit_in(&x, &y, depth, weights, &mut ws);
                    let naive = reference::fit(&x, &y, depth, weights);
                    assert_bit_identical(&kernel, &naive);
                }
            }
        }
    }

    #[test]
    fn truncation_matches_direct_fits_at_every_depth() {
        let mut ws = TreeWorkspace::new();
        for seed in [3u64, 8, 21] {
            let (x, y, w) = awkward_problem(seed, 110, 4);
            for weights in [None, Some(w.as_slice())] {
                let deep = DecisionTree::fit_deep_in(&x, &y, 7, weights, &mut ws);
                for depth in 1..=7 {
                    let truncated = deep.truncate(depth);
                    let direct = DecisionTree::fit_in(&x, &y, depth, weights, &mut ws);
                    assert_bit_identical(&truncated, &direct);
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "exceeds fitted depth")]
    fn truncation_beyond_fitted_depth_panics() {
        let (x, y) = and_problem();
        let mut ws = TreeWorkspace::new();
        let deep = DecisionTree::fit_deep_in(&x, &y, 3, None, &mut ws);
        let _ = deep.truncate(4);
    }

    #[test]
    fn workspace_reuse_is_bit_identical_and_tracks_stats() {
        let (x, y) = and_problem();
        let mut ws = TreeWorkspace::new();
        let first = DecisionTree::fit_in(&x, &y, 4, None, &mut ws);
        let stats = ws.last_stats();
        assert_eq!(stats.nodes, first.n_nodes() as u64);
        assert!(stats.split_scans > 0);
        // A different fit in between must not perturb a repeat fit.
        let (x2, y2, w2) = awkward_problem(5, 60, 3);
        let _ = DecisionTree::fit_in(&x2, &y2, 6, Some(&w2), &mut ws);
        let again = DecisionTree::fit_in(&x, &y, 4, None, &mut ws);
        assert_bit_identical(&first, &again);
    }

    #[test]
    fn gain_by_depth_covers_all_importance_mass() {
        let (x, y, _) = awkward_problem(9, 120, 4);
        let mut ws = TreeWorkspace::new();
        let deep = DecisionTree::fit_deep_in(&x, &y, 5, None, &mut ws);
        let by_depth = deep.gain_by_depth();
        assert_eq!(by_depth.len(), 5);
        let from_depths: f64 = by_depth.iter().sum();
        let from_nodes: f64 = deep.gain_w.iter().sum();
        assert!((from_depths - from_nodes).abs() < 1e-12);
    }

    #[test]
    fn binned_matches_presorted_bit_for_bit_on_low_cardinality_data() {
        // The exactness argument, tested directly: <= 256 distinct values
        // per column + dyadic weights => identical trees.
        let mut binned = TreeWorkspace::with_exactness(SplitExactness::Binned256);
        let mut presorted = TreeWorkspace::with_exactness(SplitExactness::Presorted);
        for seed in 0..20u64 {
            let (x, y, w) = awkward_problem(seed, 70 + (seed as usize % 5) * 23, 6);
            for weights in [None, Some(w.as_slice())] {
                for depth in [1, 2, 4, 7] {
                    let b = DecisionTree::fit_in(&x, &y, depth, weights, &mut binned);
                    let p = DecisionTree::fit_in(&x, &y, depth, weights, &mut presorted);
                    assert_bit_identical(&b, &p);
                }
            }
        }
    }

    #[test]
    fn bound_bins_match_local_derivation() {
        // Binding the workspace to a dataset-level BinSet with identity
        // row/col maps must reproduce the per-fit derivation exactly.
        let (x, y, w) = awkward_problem(4, 100, 5);
        let (n, d) = x.shape();
        let bins = Arc::new(BinSet::derive(&x));
        let cols: Vec<usize> = (0..d).collect();
        let rows: Vec<usize> = (0..n).collect();

        let mut local = TreeWorkspace::new();
        let mut bound = TreeWorkspace::new();
        bound.bind_bins(&bins, &cols, &rows);
        for depth in [2, 5, 7] {
            let a = DecisionTree::fit_in(&x, &y, depth, Some(&w), &mut local);
            let b = DecisionTree::fit_in(&x, &y, depth, Some(&w), &mut bound);
            assert_bit_identical(&a, &b);
        }
    }

    #[test]
    fn bound_bins_on_row_col_subsets_match_presorted() {
        // The cache-sharing path: bins derived once on the full matrix, the
        // fit running on a (rows, cols) selection — exactly what scenario
        // subsets and forest bootstraps do. On low-cardinality columns the
        // occupied bins of any subset are its distinct values, so the result
        // must still equal the presorted kernel on the gathered submatrix.
        let (x, y, w) = awkward_problem(11, 120, 6);
        let bins = Arc::new(BinSet::derive(&x));
        let cols = vec![0usize, 2, 4, 5];
        let rows: Vec<usize> = (0..x.nrows()).filter(|r| r % 3 != 1).collect();
        let sub = x.select_rows_cols(&rows, &cols);
        let suby: Vec<bool> = rows.iter().map(|&r| y[r]).collect();
        let subw: Vec<f64> = rows.iter().map(|&r| w[r]).collect();

        let mut bound = TreeWorkspace::new();
        bound.bind_bins(&bins, &cols, &rows);
        let mut exact = TreeWorkspace::with_exactness(SplitExactness::Presorted);
        for depth in [1, 3, 6] {
            let b = DecisionTree::fit_in(&sub, &suby, depth, Some(&subw), &mut bound);
            let p = DecisionTree::fit_in(&sub, &suby, depth, Some(&subw), &mut exact);
            assert_bit_identical(&b, &p);
        }
    }

    #[test]
    fn binding_is_sticky_until_cleared() {
        let (x, y, _) = awkward_problem(2, 80, 4);
        let bins = Arc::new(BinSet::derive(&x));
        let cols: Vec<usize> = (0..x.ncols()).collect();
        let rows: Vec<usize> = (0..x.nrows()).collect();
        let mut ws = TreeWorkspace::new();
        ws.bind_bins(&bins, &cols, &rows);
        let first = DecisionTree::fit_in(&x, &y, 4, None, &mut ws);
        // Second fit without rebinding still uses the bound set.
        let second = DecisionTree::fit_in(&x, &y, 4, None, &mut ws);
        assert_bit_identical(&first, &second);
        ws.clear_bins();
        let third = DecisionTree::fit_in(&x, &y, 4, None, &mut ws);
        assert_bit_identical(&first, &third);
    }

    #[test]
    #[should_panic(expected = "bound bins do not match")]
    fn stale_binding_shape_mismatch_panics() {
        let (x, y, _) = awkward_problem(7, 60, 4);
        let bins = Arc::new(BinSet::derive(&x));
        let mut ws = TreeWorkspace::new();
        ws.bind_bins(&bins, &[0, 1], &[0, 1, 2, 3]);
        // Fit matrix is 60 x 4, binding says 4 x 2 -> must panic loudly
        // rather than silently mis-quantize.
        let _ = DecisionTree::fit_in(&x, &y, 3, None, &mut ws);
    }

    #[test]
    fn truncation_matches_direct_fits_on_binned_trees() {
        // The depth-grid sharing path (DT HPO) over the histogram kernel.
        let mut ws = TreeWorkspace::with_exactness(SplitExactness::Binned256);
        for seed in [1u64, 13, 29] {
            let (x, y, w) = awkward_problem(seed, 100, 5);
            let deep = DecisionTree::fit_deep_in(&x, &y, 7, Some(&w), &mut ws);
            for depth in 1..=7 {
                let truncated = deep.truncate(depth);
                let direct = DecisionTree::fit_in(&x, &y, depth, Some(&w), &mut ws);
                assert_bit_identical(&truncated, &direct);
            }
        }
    }

    /// Fits `(x, y)` twice through `ws` at `depth` — unweighted (the
    /// integer-count path) and with all-ones weights (the float path) —
    /// and demands bit-equal nodes, thresholds, node probabilities, gains
    /// and importances.
    fn assert_unit_path_matches_ones(x: &Matrix, y: &[bool], depth: usize, ws: &mut TreeWorkspace) {
        let ones = vec![1.0; y.len()];
        let unit = DecisionTree::fit_deep_in(x, y, depth, None, ws);
        let weighted = DecisionTree::fit_deep_in(x, y, depth, Some(&ones), ws);
        assert_eq!(unit.nodes, weighted.nodes, "node arenas differ at depth {depth}");
        assert_eq!(unit.depth, weighted.depth);
        for (a, b) in [(&unit.proba, &weighted.proba), (&unit.gain_w, &weighted.gain_w)] {
            assert!(a.iter().zip(b).all(|(p, q)| p.to_bits() == q.to_bits()));
        }
        let direct_unit = DecisionTree::fit_in(x, y, depth, None, ws);
        let direct_ones = DecisionTree::fit_in(x, y, depth, Some(&ones), ws);
        assert_bit_identical(&direct_unit, &direct_ones);
    }

    #[test]
    fn unit_counts_match_all_ones_weights_bit_for_bit() {
        for mode in [SplitExactness::Binned256, SplitExactness::Binned4096] {
            let mut ws = TreeWorkspace::with_exactness(mode);
            for seed in 0..20u64 {
                let (x, y, _) = awkward_problem(seed, 70 + (seed as usize % 5) * 23, 6);
                for depth in [1, 2, 4, 7] {
                    assert_unit_path_matches_ones(&x, &y, depth, &mut ws);
                }
            }
            // More than 256 distinct values: Binned256 quantizes, so the
            // bins hold value ranges rather than single values.
            let (x, y) = mid_cardinality_problem(700);
            for depth in [1, 2, 4, 7] {
                assert_unit_path_matches_ones(&x, &y, depth, &mut ws);
            }
        }
    }

    #[test]
    fn unit_counts_match_all_ones_weights_on_bound_subsets() {
        let (x, y) = mid_cardinality_problem(900);
        let cols = vec![2usize, 0];
        let rows: Vec<usize> = (0..x.nrows()).filter(|r| r % 5 != 3).collect();
        let sub = x.select_rows_cols(&rows, &cols);
        let suby: Vec<bool> = rows.iter().map(|&r| y[r]).collect();
        for width in [CodeWidth::U8, CodeWidth::U16] {
            let mode = match width {
                CodeWidth::U8 => SplitExactness::Binned256,
                CodeWidth::U16 => SplitExactness::Binned4096,
            };
            let bins = Arc::new(BinSet::derive_with(&x, width));
            let mut ws = TreeWorkspace::with_exactness(mode);
            ws.bind_bins(&bins, &cols, &rows);
            for depth in [1, 2, 4, 7] {
                assert_unit_path_matches_ones(&sub, &suby, depth, &mut ws);
            }
        }
    }

    #[test]
    fn adjacent_double_threshold_routes_by_value_like_presorted() {
        // The midpoint of the adjacent doubles 1 + 2⁻⁵² and 1 + 2⁻⁵¹ rounds
        // onto the upper one, so `x <= t` sends both values left. Routing
        // by bin code would split them, so the kernel must fall back to
        // raw values here and match the presorted tree.
        let (a, b) = (1.0 + f64::EPSILON, 1.0 + 2.0 * f64::EPSILON);
        assert_eq!(0.5 * (a + b), b);
        let n = 64;
        let rows: Vec<Vec<f64>> =
            (0..n).map(|i| vec![if i % 3 == 0 { b } else { a }, (i % 2) as f64]).collect();
        let y: Vec<bool> = (0..n).map(|i| i % 3 == 0).collect();
        let x = Matrix::from_rows(&rows);
        let w: Vec<f64> = (0..n).map(|i| if i % 4 == 0 { 2.5 } else { 1.0 }).collect();
        for mode in [SplitExactness::Binned256, SplitExactness::Binned4096] {
            let mut binned = TreeWorkspace::with_exactness(mode);
            let mut exact = TreeWorkspace::with_exactness(SplitExactness::Presorted);
            for weights in [None, Some(w.as_slice())] {
                for depth in [1, 3] {
                    let t = DecisionTree::fit_in(&x, &y, depth, weights, &mut binned);
                    let p = DecisionTree::fit_in(&x, &y, depth, weights, &mut exact);
                    assert!(
                        matches!(t.nodes[0], Node::Split { feature: 0, threshold, .. } if threshold == b),
                        "root must split feature 0 at the upper double: {:?}",
                        t.nodes[0]
                    );
                    assert_bit_identical(&t, &p);
                }
            }
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "outside its bin")]
    fn stale_same_shape_binding_is_caught_in_debug_builds() {
        let (x, y, _) = awkward_problem(7, 60, 4);
        let bins = Arc::new(BinSet::derive(&x));
        let cols: Vec<usize> = (0..x.ncols()).collect();
        let rows: Vec<usize> = (0..x.nrows()).collect();
        let mut ws = TreeWorkspace::new();
        ws.bind_bins(&bins, &cols, &rows);
        // Same shape, different values: the binding is stale.
        let (other, _, _) = awkward_problem(8, 60, 4);
        let _ = DecisionTree::fit_in(&other, &y, 3, None, &mut ws);
    }

    #[test]
    fn predict_by_depth_matches_every_truncation() {
        let mut out = [false; 7];
        for mode in [SplitExactness::Binned256, SplitExactness::Presorted] {
            let mut ws = TreeWorkspace::with_exactness(mode);
            for seed in [2u64, 5, 19] {
                let (x, y, w) = awkward_problem(seed, 150, 5);
                for weights in [None, Some(w.as_slice())] {
                    let deep = DecisionTree::fit_deep_in(&x, &y, 7, weights, &mut ws);
                    let trees: Vec<DecisionTree> = (1..=7).map(|c| deep.truncate(c)).collect();
                    for row in x.rows_iter() {
                        deep.predict_by_depth(row, &mut out);
                        for (c, tree) in trees.iter().enumerate() {
                            assert_eq!(out[c], tree.predict_one(row), "cutoff {}", c + 1);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn workspace_survives_mode_switches() {
        let (x, y, w) = awkward_problem(6, 90, 5);
        let mut ws = TreeWorkspace::new();
        let first = DecisionTree::fit_in(&x, &y, 5, Some(&w), &mut ws);
        ws.set_exactness(SplitExactness::Presorted);
        let pre = DecisionTree::fit_in(&x, &y, 5, Some(&w), &mut ws);
        ws.set_exactness(SplitExactness::Binned256);
        let again = DecisionTree::fit_in(&x, &y, 5, Some(&w), &mut ws);
        assert_bit_identical(&first, &pre);
        assert_bit_identical(&first, &again);
    }

    #[test]
    fn high_cardinality_columns_are_deterministic_and_accurate() {
        // > 256 distinct values: binning is genuinely lossy here, so we
        // check determinism and that the fit is still a good classifier,
        // not bit-identity.
        let n = 600;
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|i| {
                let t = i as f64 / n as f64;
                vec![t, ((i as f64) * 0.618_033_988) % 1.0]
            })
            .collect();
        let y: Vec<bool> = (0..n).map(|i| (i as f64 / n as f64) > 0.42).collect();
        let x = Matrix::from_rows(&rows);

        let mut ws = TreeWorkspace::with_exactness(SplitExactness::Binned256);
        let a = DecisionTree::fit_in(&x, &y, 4, None, &mut ws);
        let b = DecisionTree::fit_in(&x, &y, 4, None, &mut ws);
        assert_bit_identical(&a, &b);
        let errors = x
            .rows_iter()
            .zip(&y)
            .filter(|(row, &label)| a.predict_one(row) != label)
            .count();
        // 600 rows in 256 near-equal-count bins: the decision boundary is
        // off by at most ~one bin (~3 rows).
        assert!(errors <= 4, "binned tree misclassified {errors} of {n} rows");
    }

    #[test]
    fn feature_bins_one_bin_per_distinct_value_when_small() {
        let sorted = [0.1, 0.1, 0.4, 0.4, 0.4, 0.9];
        let fb = FeatureBins::from_sorted(&sorted);
        assert_eq!(fb.n_bins(), 3);
        assert_eq!(fb.lo, vec![0.1, 0.4, 0.9]);
        assert_eq!(fb.hi, vec![0.1, 0.4, 0.9]);
        assert_eq!(fb.code_of(0.1), 0);
        assert_eq!(fb.code_of(0.4), 1);
        assert_eq!(fb.code_of(0.9), 2);
    }

    #[test]
    fn feature_bins_cap_at_max_bins_and_cover_all_values() {
        let sorted: Vec<f64> = (0..1000).map(|i| i as f64 * 0.01).collect();
        let fb = FeatureBins::from_sorted(&sorted);
        assert!(fb.n_bins() <= MAX_BINS);
        assert!(fb.n_bins() >= MAX_BINS / 2, "bins under-used: {}", fb.n_bins());
        for &v in &sorted {
            let c = fb.code_of(v) as usize;
            assert!(fb.lo[c] <= v && v <= fb.hi[c], "value {v} outside bin {c}");
        }
        // Codes must be monotone in the value.
        for pair in sorted.windows(2) {
            assert!(fb.code_of(pair[0]) <= fb.code_of(pair[1]));
        }
    }

    #[test]
    fn exactness_fingerprints_are_distinct_and_parseable() {
        let modes =
            [SplitExactness::Binned256, SplitExactness::Binned4096, SplitExactness::Presorted];
        for (i, a) in modes.iter().enumerate() {
            for b in &modes[i + 1..] {
                assert_ne!(a.fingerprint(), b.fingerprint(), "{a:?} vs {b:?}");
            }
        }
        for mode in modes {
            assert_eq!(SplitExactness::parse(mode.name()), Some(mode));
        }
        assert_eq!(SplitExactness::parse("binned"), Some(SplitExactness::Binned256));
        assert_eq!(SplitExactness::parse("nonsense"), None);
        assert_eq!(SplitExactness::default(), SplitExactness::Binned256);
        assert_eq!(SplitExactness::Binned256.code_width(), Some(CodeWidth::U8));
        assert_eq!(SplitExactness::Binned4096.code_width(), Some(CodeWidth::U16));
        assert_eq!(SplitExactness::Presorted.code_width(), None);
        assert_eq!(CodeWidth::U8.max_bins(), MAX_BINS);
        assert_eq!(CodeWidth::U16.max_bins(), MAX_BINS_WIDE);
    }

    /// A problem whose columns carry 300–700 distinct values: past the
    /// `u8` budget (Binned256 must quantize) but comfortably inside the
    /// `u16` one, so `Binned4096` must still be bit-exact vs presorted.
    fn mid_cardinality_problem(n: usize) -> (Matrix, Vec<bool>) {
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|i| {
                let t = i as f64 / n as f64;
                vec![t, ((i as f64) * 0.618_033_988) % 1.0, ((i * i % 701) as f64) / 701.0]
            })
            .collect();
        let y: Vec<bool> = (0..n).map(|i| (i as f64 / n as f64) > 0.42).collect();
        (Matrix::from_rows(&rows), y)
    }

    #[test]
    fn binned4096_is_exact_where_binned256_must_quantize() {
        let (x, y) = mid_cardinality_problem(600);
        let mut wide = TreeWorkspace::with_exactness(SplitExactness::Binned4096);
        let mut exact = TreeWorkspace::with_exactness(SplitExactness::Presorted);
        for depth in [2, 4, 7] {
            let a = DecisionTree::fit_in(&x, &y, depth, None, &mut wide);
            let b = DecisionTree::fit_in(&x, &y, depth, None, &mut exact);
            assert_bit_identical(&a, &b);
        }
    }

    #[test]
    fn wide_bound_bins_match_local_derivation_on_subsets() {
        let (x, y) = mid_cardinality_problem(500);
        let bins = Arc::new(BinSet::derive_with(&x, CodeWidth::U16));
        assert_eq!(bins.width(), CodeWidth::U16);
        let cols = vec![0usize, 2];
        let rows: Vec<usize> = (0..x.nrows()).filter(|r| r % 4 != 2).collect();
        let sub = x.select_rows_cols(&rows, &cols);
        let suby: Vec<bool> = rows.iter().map(|&r| y[r]).collect();

        let mut bound = TreeWorkspace::with_exactness(SplitExactness::Binned4096);
        bound.bind_bins(&bins, &cols, &rows);
        let mut exact = TreeWorkspace::with_exactness(SplitExactness::Presorted);
        for depth in [2, 5] {
            let a = DecisionTree::fit_in(&sub, &suby, depth, None, &mut bound);
            let b = DecisionTree::fit_in(&sub, &suby, depth, None, &mut exact);
            assert_bit_identical(&a, &b);
        }
    }

    #[test]
    #[should_panic(expected = "different code width")]
    fn binding_narrow_bins_to_a_wide_workspace_panics() {
        let (x, y, _) = awkward_problem(3, 60, 4);
        let bins = Arc::new(BinSet::derive(&x)); // u8-width set
        let mut ws = TreeWorkspace::with_exactness(SplitExactness::Binned4096);
        let cols: Vec<usize> = (0..x.ncols()).collect();
        let rows: Vec<usize> = (0..x.nrows()).collect();
        ws.bind_bins(&bins, &cols, &rows);
        let _ = DecisionTree::fit_in(&x, &y, 3, None, &mut ws);
    }

    #[test]
    fn hist_pool_release_restores_the_all_zero_invariant_for_wide_bins() {
        // Satellite regression: a 4096-bin buffer must come back from the
        // pool fully clean. Fit on >256-distinct-value columns (so the wide
        // layout has thousands of bins), then inspect every pooled buffer
        // and refit through the same workspace.
        let (x, y) = mid_cardinality_problem(700);
        let mut ws = TreeWorkspace::with_exactness(SplitExactness::Binned4096);
        let first = DecisionTree::fit_in(&x, &y, 7, None, &mut ws);
        assert!(ws.hist_stride > MAX_BINS, "wide fit should exceed the u8 stride");
        assert!(!ws.unit_hist.pool.is_empty());
        assert_pool_clean(&ws.unit_hist.pool);
        // A re-acquire of the same buffers must behave like fresh ones.
        let again = DecisionTree::fit_in(&x, &y, 7, None, &mut ws);
        assert_bit_identical(&first, &again);
    }

    /// Every pooled buffer must be back at the all-zero release invariant.
    fn assert_pool_clean<B: Bin + PartialEq>(pool: &[HistBuf<B>]) {
        for (s, buf) in pool.iter().enumerate() {
            assert!(buf.bins.iter().all(|&b| b == B::default()), "slot {s}: bins not zeroed");
            assert!(buf.range.iter().all(|&r| r == (1, 0)), "slot {s}: range not reset");
            assert!(buf.dirty.iter().all(|&r| r == (1, 0)), "slot {s}: dirty not reset");
        }
    }

    /// A larger weighted problem for the GOSS paths: enough rows that
    /// low `min_rows` configs genuinely sample.
    fn goss_problem() -> (Matrix, Vec<bool>, Vec<f64>) {
        awkward_problem(17, 400, 6)
    }

    #[test]
    fn inactive_goss_is_bit_identical_to_no_goss() {
        // `top + rest >= 1.0` cannot drop any row, so it must run the
        // identical (sibling-subtracting) code path bit-for-bit.
        let (x, y, w) = goss_problem();
        for mode in [SplitExactness::Binned256, SplitExactness::Binned4096] {
            let mut off = TreeWorkspace::with_exactness(mode);
            let mut on = TreeWorkspace::with_exactness(mode);
            on.set_goss(Some(GossConfig::new(1.0, 1.0, 99)));
            for depth in [2, 5, 7] {
                let a = DecisionTree::fit_in(&x, &y, depth, Some(&w), &mut off);
                let b = DecisionTree::fit_in(&x, &y, depth, Some(&w), &mut on);
                assert_bit_identical(&a, &b);
            }
        }
    }

    #[test]
    fn goss_sampling_is_deterministic_per_seed_and_node() {
        let (x, y, w) = goss_problem();
        let cfg = GossConfig { top_frac: 0.3, rest_frac: 0.2, seed: 41, min_rows: 16 };
        let fit = |seed: u64| {
            let mut ws = TreeWorkspace::with_exactness(SplitExactness::Binned4096);
            ws.set_goss(Some(GossConfig { seed, ..cfg }));
            DecisionTree::fit_in(&x, &y, 6, Some(&w), &mut ws)
        };
        // Same (seed, node_id) ⇒ same sample ⇒ same tree, fit after fit.
        let a = fit(41);
        let b = fit(41);
        assert_bit_identical(&a, &b);
        // A different seed draws a different remainder sample somewhere.
        let c = fit(1777);
        assert!(
            a.nodes != c.nodes
                || a.importances.iter().zip(&c.importances).any(|(x, y)| x.to_bits() != y.to_bits()),
            "seed change did not perturb the sampled fit"
        );
    }

    #[test]
    fn goss_fit_is_thread_count_invariant() {
        // The per-node sample is a pure function of (seed, node_id, row
        // set) — no RNG stream, no traversal state — so concurrent fits on
        // any number of threads reproduce the serial tree bit-for-bit.
        let (x, y, w) = goss_problem();
        let cfg = GossConfig { top_frac: 0.25, rest_frac: 0.15, seed: 7, min_rows: 16 };
        let serial = {
            let mut ws = TreeWorkspace::with_exactness(SplitExactness::Binned256);
            ws.set_goss(Some(cfg));
            DecisionTree::fit_in(&x, &y, 6, Some(&w), &mut ws)
        };
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    scope.spawn(|| {
                        let mut ws = TreeWorkspace::with_exactness(SplitExactness::Binned256);
                        ws.set_goss(Some(cfg));
                        DecisionTree::fit_in(&x, &y, 6, Some(&w), &mut ws)
                    })
                })
                .collect();
            for h in handles {
                let t = h.join().expect("goss fit thread");
                assert_bit_identical(&serial, &t);
            }
        });
    }

    #[test]
    fn goss_still_learns_and_pool_stays_clean() {
        // Sampled split scans must still find real structure, and the
        // per-node alloc/release discipline must leave the pool zeroed.
        let (x, y) = mid_cardinality_problem(800);
        let mut ws = TreeWorkspace::with_exactness(SplitExactness::Binned4096);
        ws.set_goss(Some(GossConfig { top_frac: 0.2, rest_frac: 0.1, seed: 3, min_rows: 32 }));
        let t = DecisionTree::fit_in(&x, &y, 6, None, &mut ws);
        let errors =
            x.rows_iter().zip(&y).filter(|(row, &label)| t.predict_one(row) != label).count();
        assert!(errors <= 24, "goss tree misclassified {errors} of 800 rows");
        assert!(!ws.weighted_hist.pool.is_empty());
        assert_pool_clean(&ws.weighted_hist.pool);
        // The presorted kernel ignores GOSS: still bit-exact vs reference.
        ws.set_exactness(SplitExactness::Presorted);
        let p = DecisionTree::fit_in(&x, &y, 4, None, &mut ws);
        let naive = reference::fit(&x, &y, 4, None);
        assert_bit_identical(&p, &naive);
    }

    #[test]
    fn goss_nodes_hold_exactly_the_rows_their_thresholds_route() {
        // Sampled histograms may miss node rows between the two bins a
        // split separates, so sampled nodes must partition by value: every
        // node's probability is then the positive share of the training
        // rows prediction routing sends through it.
        let (x, y) = mid_cardinality_problem(800);
        let mut ws = TreeWorkspace::with_exactness(SplitExactness::Binned4096);
        ws.set_goss(Some(GossConfig { top_frac: 0.2, rest_frac: 0.1, seed: 5, min_rows: 32 }));
        let deep = DecisionTree::fit_deep_in(&x, &y, 6, None, &mut ws);
        let mut reach = vec![(0u32, 0u32); deep.nodes.len()];
        for (row, &label) in x.rows_iter().zip(&y) {
            let mut i = 0;
            loop {
                reach[i].0 += label as u32;
                reach[i].1 += 1;
                match &deep.nodes[i] {
                    Node::Leaf { .. } => break,
                    Node::Split { feature, threshold, left, right } => {
                        i = if row[*feature] <= *threshold { *left } else { *right };
                    }
                }
            }
        }
        for (i, &(pos, total)) in reach.iter().enumerate() {
            let expected = if total > 0 { pos as f64 / total as f64 } else { 0.5 };
            assert_eq!(deep.proba[i].to_bits(), expected.to_bits(), "node {i}");
        }
    }

    #[test]
    fn goss_kept_frac_and_activity_rules() {
        assert!(GossConfig::new(0.2, 0.1, 0).active());
        assert!(!GossConfig::new(1.0, 1.0, 0).active());
        assert!(!GossConfig::new(0.6, 0.4, 0).active());
        assert_eq!(GossConfig::new(0.2, 0.1, 0).kept_frac(), 0.30000000000000004);
        assert_eq!(GossConfig::new(1.0, 1.0, 0).kept_frac(), 1.0);
        assert_eq!(GossConfig::new(0.2, 0.1, 0).min_rows, GOSS_MIN_ROWS);
    }

    /// A source split for the in-place oracle: a quantized column, the
    /// adjacent doubles `1 + 2⁻⁵²` / `1 + 2⁻⁵¹` (whose midpoint rounds onto
    /// the upper one, so the kernel must route by raw value), a column
    /// with more distinct values than 256 bins, and an unused column.
    fn adjacent_doubles_source(n: usize) -> (Matrix, Vec<bool>, Vec<f64>, f64) {
        let (a, b) = (1.0 + f64::EPSILON, 1.0 + 2.0 * f64::EPSILON);
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|i| {
                let wide = ((i * 7919) % 1009) as f64 / 1009.0;
                vec![(i % 5) as f64 / 5.0, if i % 3 == 0 { b } else { a }, -1.0, wide]
            })
            .collect();
        let y = (0..n).map(|i| i % 3 == 0 || (i % 5 == 4 && i % 2 == 0)).collect();
        let w = (0..n).map(|i| if i % 4 == 0 { 2.5 } else { 1.0 }).collect();
        (Matrix::from_rows(&rows), y, w, b)
    }

    #[test]
    fn in_place_view_fits_match_gathered_fits_bit_for_bit() {
        // Binned fits read the train split in place: codes come from the
        // bound bin set, and the `x <= t` fallback reads the same doubles
        // through the column map. Unsorted, non-contiguous column maps and
        // a row cap below the source height, as wrapper evaluation uses.
        let (awk_x, awk_y, awk_w) = awkward_problem(29, 360, 7);
        let (adj_x, adj_y, adj_w, upper) = adjacent_doubles_source(360);
        let problems = [
            (&awk_x, &awk_y, &awk_w, vec![5usize, 0, 3, 1, 6]),
            (&adj_x, &adj_y, &adj_w, vec![3usize, 1, 0]),
        ];
        let goss = GossConfig { top_frac: 0.3, rest_frac: 0.2, seed: 7, min_rows: 16 };
        let mut fallback_seen = false;
        for (x, y, w, cols) in problems {
            let cap = 300;
            let rows: Vec<usize> = (0..cap).collect();
            let view = ColumnView::head(x, cap, &cols);
            let gathered = view.gather();
            let (y, w) = (&y[..cap], &w[..cap]);
            for mode in [SplitExactness::Binned256, SplitExactness::Binned4096] {
                let bins = Arc::new(BinSet::derive_with(x, mode.code_width().unwrap_or_default()));
                let mut in_place = TreeWorkspace::with_exactness(mode);
                let mut copied = TreeWorkspace::with_exactness(mode);
                in_place.bind_bins(&bins, &cols, &rows);
                copied.bind_bins(&bins, &cols, &rows);
                for g in [None, Some(goss)] {
                    in_place.set_goss(g);
                    copied.set_goss(g);
                    for weights in [None, Some(w)] {
                        let a = DecisionTree::fit_deep_in(&view, y, 7, weights, &mut in_place);
                        let b = DecisionTree::fit_deep_in(&gathered, y, 7, weights, &mut copied);
                        assert_eq!(a.nodes, b.nodes, "{mode:?} goss {g:?}: nodes differ");
                        assert_eq!(a.depth, b.depth);
                        let floats = |t: &DeepTree| [t.proba.clone(), t.gain_w.clone()].concat();
                        for (p, q) in floats(&a).iter().zip(&floats(&b)) {
                            assert_eq!(p.to_bits(), q.to_bits());
                        }
                        for depth in [1, 4] {
                            let a = DecisionTree::fit_in(&view, y, depth, weights, &mut in_place);
                            let b = DecisionTree::fit_in(&gathered, y, depth, weights, &mut copied);
                            assert_bit_identical(&a, &b);
                        }
                        // View column 1 is the adjacent-doubles column.
                        let at_upper = |n: &Node| match n {
                            Node::Split { feature, threshold, .. } => {
                                *feature == 1 && *threshold == upper
                            }
                            Node::Leaf { .. } => false,
                        };
                        fallback_seen |= cols[1] == 1 && a.nodes.iter().any(at_upper);
                    }
                }
            }
        }
        assert!(fallback_seen, "no split at the adjacent doubles: the fallback went unexercised");
    }
}
