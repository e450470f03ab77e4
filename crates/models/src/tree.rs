//! CART decision tree with Gini impurity, built by a histogram-binned
//! kernel, with the bit-exact presorted builder kept as its reference.
//!
//! Depth-limited binary tree over continuous features. Candidate thresholds
//! are the midpoints between consecutive occupied bins (binned) or
//! consecutive distinct values (presorted), evaluated in O(1) each via
//! running prefix sums. Feature importances accumulate the instance-count
//! weighted impurity decrease per feature, normalized to sum to 1 — the
//! same notion scikit-learn exposes. Every fit is unweighted: the paper
//! trains default CART.
//!
//! # The histogram-binned kernel
//!
//! Each feature is quantized into at most [`MAX_BINS`] bins *once* — per
//! dataset when a cached [`BinSet`] is bound to the workspace (see
//! [`TreeWorkspace::bind_bins`]), or once per fit otherwise — and the fit
//! keeps the quantized columns as a column-major `u8` code arena. A node's
//! split scan is then O(occupied bins) over per-node count histograms built
//! in a single pass over the node's rows; after a split only the *smaller*
//! child's histogram is built fresh, the larger child's being derived by
//! parent-minus-sibling subtraction in place. Partitioning touches a single
//! row array instead of `d` per-feature order lists, which together with
//! the O(bins) scans is where the speedup over the presorted builder comes
//! from. See DESIGN.md § 4i for the soundness argument.
//!
//! **When binned ≡ presorted.** With ≤ [`MAX_BINS`] distinct values per
//! column, every distinct value gets its own bin, so the candidate
//! thresholds are literally the presorted ones; the counts are integers,
//! so the prefix sums incur no rounding, and the two produce bit-identical
//! trees. Beyond the bin budget the kernel is a deliberate, deterministic
//! approximation; [`fit_presorted`] computes the exact tree.
//!
//! # The presorted reference ([`fit_presorted`])
//!
//! The classic CART bottleneck is re-sorting every feature column at every
//! node: O(nodes × d × n log n). The reference sorts each feature's row
//! order **once per fit** (a stable argsort by value) and then *stably
//! partitions* the per-feature sorted index lists down to the children
//! after each split — scikit-learn's old `presort=True` strategy — so every
//! node's split scan is O(d × n_node) with zero sorts.
//!
//! **Bit-identity contract.** The presorted builder is bit-identical to the
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

use dfs_linalg::sort::{stable_partition_in_place, stable_sort_indices_by_key};
use dfs_linalg::{Cells, FeatureRow, Matrix};
use std::sync::Arc;

/// Nodes stop splitting below this many instances.
const MIN_SAMPLES_SPLIT: usize = 4;

/// Maximum bins per feature (`u8` codes).
pub const MAX_BINS: usize = 256;

/// Sorts a column of finite values ascending; `who` names the caller in
/// the NaN panic.
fn sort_finite(col: &mut [f64], who: &str) {
    col.sort_unstable_by(|a, b| match a.partial_cmp(b) {
        Some(ord) => ord,
        None => panic!("{who}: finite features required"),
    });
}

/// Bin layout of one feature: per-bin lowest and highest source value.
///
/// Bins are derived so that a column with ≤ [`MAX_BINS`] distinct values
/// gets exactly one bin per distinct value (`lo == hi`); wider columns get
/// near-equal-count bins cut between distinct values. Candidate thresholds
/// are `0.5 * (hi[left_bin] + lo[right_bin])` at boundaries between
/// *occupied* bins, which in the one-value-per-bin case reproduces the
/// presorted builder's `0.5 * (prev + v)` midpoints bit-for-bit.
#[derive(Debug, Clone, PartialEq)]
pub struct FeatureBins {
    lo: Vec<f64>,
    hi: Vec<f64>,
}

impl FeatureBins {
    /// Derives at most [`MAX_BINS`] bins from an ascending-sorted column of
    /// finite values.
    fn from_sorted(values: &[f64]) -> FeatureBins {
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
        let mut lo = Vec::with_capacity(distinct.min(MAX_BINS));
        let mut hi = Vec::with_capacity(distinct.min(MAX_BINS));
        if distinct <= MAX_BINS {
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
                let remaining_bins = MAX_BINS - emitted;
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

    /// Number of bins (1..=[`MAX_BINS`]).
    pub fn n_bins(&self) -> usize {
        self.hi.len()
    }

    /// Bin code of a value: the first bin whose highest member reaches it,
    /// clamped into range for values outside the derivation set.
    #[inline]
    fn code_of(&self, v: f64) -> u8 {
        let b = self.hi.partition_point(|&h| h < v);
        b.min(self.hi.len() - 1) as u8
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

/// Per-dataset bin edges and quantized codes for every feature, derived
/// once and shared across fits (arms, row caps, server requests) via
/// [`TreeWorkspace::bind_bins`] — the tree-kernel analogue of cached
/// rankings. Quantization is a pure function of the source matrix, so a
/// `BinSet` is freely shareable across threads behind an `Arc`.
#[derive(Debug, Clone, PartialEq)]
pub struct BinSet {
    feats: Vec<FeatureBins>,
    /// Column-major `d × n_rows` quantized codes of the source matrix.
    codes: Vec<u8>,
    n_rows: usize,
}

impl BinSet {
    /// Derives bins and codes from every column of `x`.
    ///
    /// # Panics
    /// Panics when a value is NaN (features are required to be finite).
    pub fn derive(x: &Matrix) -> BinSet {
        let (n, d) = x.shape();
        let mut feats = Vec::with_capacity(d);
        let mut codes = vec![0u8; d * n];
        let mut col = Vec::with_capacity(n);
        for f in 0..d {
            x.col_into(f, &mut col);
            sort_finite(&mut col, "BinSet::derive");
            let fb = FeatureBins::from_sorted(&col);
            for (c, v) in codes[f * n..(f + 1) * n].iter_mut().zip(x.col_iter(f)) {
                *c = fb.code_of(v);
            }
            feats.push(fb);
        }
        BinSet { feats, codes, n_rows: n }
    }

    /// Number of features covered.
    pub fn n_features(&self) -> usize {
        self.feats.len()
    }

    /// Number of rows of the source matrix.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// The bytes the bins hold: one code per source cell and every
    /// feature's bin edges.
    pub fn bytes(&self) -> usize {
        let edges = |f: &FeatureBins| size_of_val(&f.lo[..]) + size_of_val(&f.hi[..]);
        self.codes.len() + self.feats.iter().map(edges).sum::<usize>()
    }

    /// The bin layout of feature `j`.
    pub fn feature(&self, j: usize) -> &FeatureBins {
        &self.feats[j]
    }

    /// The quantized code of source cell `(row, feature)`.
    #[inline]
    pub(crate) fn code_at(&self, feature: usize, row: usize) -> u8 {
        self.codes[feature * self.n_rows + row]
    }

    /// Gather of source column `src`'s codes at the given source rows,
    /// written element-wise into `out` (which must match `rows` in length).
    fn gather_codes(&self, src: usize, rows: &[u32], out: &mut [u8]) {
        let src_col = &self.codes[src * self.n_rows..(src + 1) * self.n_rows];
        for (c, &r) in out.iter_mut().zip(rows) {
            *c = src_col[r as usize];
        }
    }
}

/// A tree node (arena storage; `usize` child links).
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Node {
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

/// Reusable scratch of the binned kernel: the quantized `u8` code arena,
/// the flattened bin tables, the histogram pool, the row-ascending node
/// sets and the partition buffer. After the first fit of a given shape,
/// subsequent fits through the same workspace allocate nothing beyond the
/// output arena.
#[derive(Debug, Default)]
pub struct TreeWorkspace {
    /// Node row sets in row-ascending order, partitioned in place.
    rows: Vec<u32>,
    /// Partition buffer.
    scratch: Vec<u32>,
    /// Column gather buffer for per-fit bin derivation.
    col: Vec<f64>,
    /// Cached dataset-level bins, if bound.
    bound_bins: Option<Arc<BinSet>>,
    /// Source-feature index of each training-matrix column, when bound.
    bound_cols: Vec<usize>,
    /// Source-row index of each training-matrix row, when bound.
    bound_rows: Vec<u32>,
    /// Per-fit column-major `d × n` quantized codes.
    codes: Vec<u8>,
    /// Flattened per-feature bin `lo` values for the current fit.
    bin_lo: Vec<f64>,
    /// Flattened per-feature bin `hi` values for the current fit.
    bin_hi: Vec<f64>,
    /// Prefix offsets into `bin_lo`/`bin_hi` (`d + 1` entries).
    bin_off: Vec<u32>,
    /// Histogram buffer pool; all buffers are zeroed between uses.
    pool: Vec<HistBuf>,
    /// Per-node compact gather of the rows' bins.
    inc: Vec<Bin>,
    /// Total bins the pool buffers are sized for.
    hist_stride: usize,
    /// Feature count the pool buffers are sized for.
    hist_d: usize,
    /// Counters of the most recent fit through this workspace.
    last_stats: FitStats,
}

impl TreeWorkspace {
    /// An empty workspace (buffers grow on first use).
    pub fn new() -> Self {
        Self::default()
    }

    /// Binds cached dataset-level bins for subsequent fits: column `j` of
    /// the training matrix corresponds to feature `cols[j]` of the bin
    /// set's source matrix, and row `i` to source row `rows[i]`.
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

    /// Drops any bound bin set; subsequent fits derive bins from their own
    /// training matrix.
    pub fn clear_bins(&mut self) {
        self.bound_bins = None;
    }

    /// Work counters of the most recent fit through this workspace.
    pub fn last_stats(&self) -> FitStats {
        self.last_stats
    }
}

/// One histogram bin: the row count in the low 32 bits and the positive
/// count in the high 32, so a row updates one `u64`. Every partial sum is
/// an integer below 2⁵³, hence exactly the `f64` a row-order sum of `1.0`
/// / `0.0` per row produces: scans, node totals and gains see the same
/// bits as the presorted builder's float sums.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct Bin(u64);

impl Bin {
    /// The bin of one row with label `positive`.
    #[inline]
    fn of_row(positive: bool) -> Bin {
        Bin(1 | (positive as u64) << 32)
    }

    #[inline]
    fn add(&mut self, other: Bin) {
        self.0 += other.0;
    }

    /// Adds `other` when `keep` holds, leaving `self` unchanged otherwise.
    #[inline]
    fn add_if(&mut self, other: Bin, keep: bool) {
        self.0 += other.0 & (keep as u64).wrapping_neg();
    }

    /// Removes `other`, which was accumulated from a subset of this bin's
    /// rows: both halves of `other` are at most this bin's, so no borrow
    /// crosses from the count into the positive half.
    #[inline]
    fn sub(&mut self, other: Bin) {
        self.0 -= other.0;
    }

    /// Rows accumulated.
    #[inline]
    fn count(self) -> u32 {
        self.0 as u32
    }

    /// Rows accumulated, as the float sum of unit weights.
    #[inline]
    fn total(self) -> f64 {
        self.count() as f64
    }

    /// Positive rows accumulated.
    #[inline]
    fn positives(self) -> f64 {
        (self.0 >> 32) as f64
    }
}

/// One pooled histogram buffer of the binned kernel: one [`Bin`] per bin,
/// plus per-feature occupied and touched code ranges (inclusive; `(1, 0)`
/// means empty).
///
/// Invariant: outside an `alloc`/`release` window every buffer is fully
/// zero — `release` zeroes the *touched* (`dirty`) span, which covers the
/// occupied one, so fresh builds never pay a full `MAX_BINS` reset.
#[derive(Debug, Default)]
struct HistBuf {
    bins: Vec<Bin>,
    /// Occupied code range per feature (tightened after subtraction).
    range: Vec<(u16, u16)>,
    /// Widest code range ever written this allocation (zeroing span).
    dirty: Vec<(u16, u16)>,
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
        Self::fit_in(x, y, max_depth, &mut TreeWorkspace::default())
    }

    /// [`DecisionTree::fit`] through a caller-owned workspace: repeated
    /// fits (forest trees, wrapper evaluations) reuse every buffer and
    /// perform no steady-state allocation beyond the arena.
    ///
    /// `x` is any [`Cells`] source: a gathered matrix, or — when the
    /// workspace has bins bound — the source split read in place through a
    /// [`dfs_linalg::ColumnView`]. The kernel reads raw values only on its
    /// `x <= t` fallback, so both give the same tree.
    pub fn fit_in<X: Cells>(x: &X, y: &[bool], max_depth: usize, ws: &mut TreeWorkspace) -> Self {
        run_binned_kernel(x, y, max_depth.max(1), ws).into_tree()
    }

    /// Fits the full-depth tree once, annotated for O(nodes) derivation of
    /// every shallower tree via [`DeepTree::truncate`].
    pub fn fit_deep_in<X: Cells>(
        x: &X,
        y: &[bool],
        max_depth: usize,
        ws: &mut TreeWorkspace,
    ) -> DeepTree {
        run_binned_kernel(x, y, max_depth.max(1), ws)
    }

    /// Assembles a tree from raw parts (used by the DP random tree).
    pub(crate) fn from_parts(nodes: Vec<Node>, importances: Vec<f64>, max_depth: usize) -> Self {
        assert!(!nodes.is_empty(), "DecisionTree: empty node arena");
        DecisionTree { nodes, importances, max_depth }
    }

    /// Normalized impurity-decrease importances (sum to 1 when nonzero).
    pub fn importances(&self) -> &[f64] {
        &self.importances
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
    /// `gain × n_node` per split node (0 for leaves): the exact term the
    /// builder adds to that feature's importance.
    gain_w: Vec<f64>,
    n_features: usize,
    max_depth: usize,
    stats: FitStats,
}

impl DeepTree {
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

    /// The tree at the fitted depth itself (no truncation, no copy).
    fn into_tree(self) -> DecisionTree {
        let importances = self.importances_at(self.max_depth);
        DecisionTree { nodes: self.nodes, importances, max_depth: self.max_depth }
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

/// The preorder node arena both builders grow, with the per-node
/// annotations a [`DeepTree`] keeps.
#[derive(Default)]
struct Arena {
    nodes: Vec<Node>,
    depth: Vec<u32>,
    proba: Vec<f64>,
    gain_w: Vec<f64>,
    stats: FitStats,
}

impl Arena {
    fn push(&mut self, node: Node, depth: usize, proba: f64, gain_w: f64) -> usize {
        self.nodes.push(node);
        self.depth.push(depth as u32);
        self.proba.push(proba);
        self.gain_w.push(gain_w);
        self.stats.nodes += 1;
        self.nodes.len() - 1
    }

    fn into_deep(self, n_features: usize, max_depth: usize) -> DeepTree {
        let Arena { nodes, depth, proba, gain_w, stats } = self;
        DeepTree { nodes, depth, proba, gain_w, n_features, max_depth, stats }
    }
}

/// The input checks every fit shares.
fn check_fit_shape(n: usize, y: &[bool]) {
    assert_eq!(n, y.len(), "DecisionTree: row/label mismatch");
    assert!(n > 0, "DecisionTree: empty training set");
    assert!(n <= u32::MAX as usize, "DecisionTree: too many rows for the u32 kernel");
}

/// Fits the exact depth-limited CART tree with the presorted builder: the
/// reference the binned kernel is tested against (this module's
/// differential tests and the scenario oracle in `dfs-core`). Allocates its
/// scratch per call; no workload fits through it.
pub fn fit_presorted(x: &Matrix, y: &[bool], max_depth: usize) -> DecisionTree {
    let (n, d) = x.shape();
    check_fit_shape(n, y);
    let max_depth = max_depth.max(1);
    // Presort: each feature's row order, stably sorted by value. A node's
    // segment of every order array is the node's rows sorted by that
    // feature, ties in row-ascending order — the same order the naive
    // builder's stable per-node sort would produce.
    let mut order = Vec::with_capacity(d * n);
    let mut col = Vec::with_capacity(n);
    for f in 0..d {
        let start = order.len();
        order.extend(0..n as u32);
        x.col_into(f, &mut col);
        stable_sort_indices_by_key(&mut order[start..], &col);
    }
    let mut kernel = Presorted {
        x,
        y,
        n,
        d,
        max_depth,
        order,
        rows: (0..n as u32).collect(),
        scratch: Vec::new(),
        arena: Arena::default(),
    };
    // Root class counts, accumulated in row-ascending order (the same
    // order the naive builder's count walks).
    let mut pos = 0.0;
    let mut total = 0.0;
    for &label in y {
        total += 1.0;
        if label {
            pos += 1.0;
        }
    }
    kernel.build(0, n, 0, pos, total);
    kernel.arena.into_deep(d, max_depth).into_tree()
}

/// The presorted builder: every node owns the segment `[lo, hi)` of the
/// shared `rows` array (row-ascending) and of each feature's `order` array
/// (value-sorted), and hands disjoint subsegments to its children by
/// stable partition.
struct Presorted<'a> {
    x: &'a Matrix,
    y: &'a [bool],
    n: usize,
    d: usize,
    max_depth: usize,
    order: Vec<u32>,
    rows: Vec<u32>,
    scratch: Vec<u32>,
    arena: Arena,
}

impl Presorted<'_> {
    /// Builds the subtree over segment `[lo, hi)`, returning its arena
    /// index. `pos` / `total` are this node's class counts, accumulated by
    /// the parent's partition in this node's row-ascending order (so they
    /// carry the exact bits a fresh scan would produce).
    fn build(&mut self, lo: usize, hi: usize, depth: usize, pos: f64, total: f64) -> usize {
        let proba = if total > 0.0 { pos / total } else { 0.5 };
        let node_gini = gini(pos, total);

        if depth >= self.max_depth || hi - lo < MIN_SAMPLES_SPLIT || node_gini <= dfs_linalg::EPS {
            return self.arena.push(Node::Leaf { proba }, depth, proba, 0.0);
        }

        match self.best_split(lo, hi, node_gini, pos, total) {
            None => self.arena.push(Node::Leaf { proba }, depth, proba, 0.0),
            Some(split) => {
                let gain_w = split.gain * total;
                let (nl, left_counts, right_counts) =
                    self.partition(lo, hi, split.feature, split.threshold);
                // Reserve this node's slot before recursing.
                let me = self.arena.push(Node::Leaf { proba }, depth, proba, gain_w);
                let left = self.build(lo, lo + nl, depth + 1, left_counts.0, left_counts.1);
                let right = self.build(lo + nl, hi, depth + 1, right_counts.0, right_counts.1);
                self.arena.nodes[me] =
                    Node::Split { feature: split.feature, threshold: split.threshold, left, right };
                me
            }
        }
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
        pos: f64,
        total: f64,
    ) -> Option<SplitChoice> {
        let len = hi - lo;
        let x = self.x;
        let mut best: Option<SplitChoice> = None;
        for feature in 0..self.d {
            self.arena.stats.split_scans += 1;
            let seg = &self.order[feature * self.n + lo..feature * self.n + hi];
            let mut prev = x[(seg[0] as usize, feature)];
            if prev == x[(seg[len - 1] as usize, feature)] {
                continue; // constant feature on this node
            }
            // Running prefix sums over the sorted order: after step k they
            // cover seg[0..k], matching the naive prefix arrays bit-for-bit.
            let mut left_total = 0.0;
            let mut left_pos = 0.0;
            for k in 1..len {
                left_total += 1.0;
                if self.y[seg[k - 1] as usize] {
                    left_pos += 1.0;
                }
                // Candidate boundary: every position where the value changes.
                let v = x[(seg[k] as usize, feature)];
                if v > prev {
                    let threshold = 0.5 * (prev + v);
                    let right_total = total - left_total;
                    let child = (left_total * gini(left_pos, left_total)
                        + right_total * gini(pos - left_pos, right_total))
                        / total;
                    // Like scikit-learn, zero-gain splits are allowed
                    // (depth and purity are the stopping rules) — this is
                    // what lets a depth-2 tree solve XOR, whose root split
                    // has exactly zero Gini gain.
                    let gain = (node_gini - child).max(0.0);
                    if best.as_ref().map(|b| gain > b.gain).unwrap_or(true) {
                        best = Some(SplitChoice { feature, threshold, gain, left_code: None });
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
        let mut left = (0.0, 0.0);
        let mut right = (0.0, 0.0);
        // Manual stable partition of the row-ascending set so the count
        // accumulators see each child's rows in exactly the order a fresh
        // count scan of that child would.
        self.scratch.clear();
        let seg = &mut self.rows[lo..hi];
        let mut write = 0usize;
        for read in 0..seg.len() {
            let r = seg[read];
            let side = if x[(r as usize, feature)] <= threshold {
                seg[write] = r;
                write += 1;
                &mut left
            } else {
                self.scratch.push(r);
                &mut right
            };
            side.1 += 1.0;
            if self.y[r as usize] {
                side.0 += 1.0;
            }
        }
        seg[write..].copy_from_slice(&self.scratch);

        for f in 0..self.d {
            let seg = &mut self.order[f * self.n + lo..f * self.n + hi];
            stable_partition_in_place(seg, &mut self.scratch, |&r| {
                x[(r as usize, feature)] <= threshold
            });
        }
        (write, left, right)
    }
}

struct SplitChoice {
    feature: usize,
    threshold: f64,
    gain: f64,
    /// Highest bin code of the rows routed left, when routing by code is
    /// exact (binned kernel only); `None` routes by raw value.
    left_code: Option<u8>,
}

/// Sentinel slot id for nodes that never need a histogram (guaranteed
/// leaves).
const NO_SLOT: usize = usize::MAX;

/// Quantizes the fit matrix into `ws.codes` and fills the flattened bin
/// tables (`ws.bin_lo` / `ws.bin_hi` / `ws.bin_off`): a pure code copy from
/// the bound [`BinSet`] when one is armed, a per-fit derivation otherwise.
///
/// Debug builds check that every cell lies within its bin,
/// `lo[code] <= x <= hi[code]`: the code-space partition relies on it, and
/// it catches a stale same-shape binding.
fn prepare_binned_inputs<X: Cells>(x: &X, ws: &mut TreeWorkspace) {
    let (n, d) = x.shape();
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
            let mut col = std::mem::take(&mut ws.col);
            for f in 0..d {
                col.clear();
                col.extend((0..n).map(|i| x.cell(i, f)));
                sort_finite(&mut col, "DecisionTree");
                let fb = FeatureBins::from_sorted(&col);
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

/// Fits through `ws` at `max_depth` (already clamped ≥ 1) and returns the
/// annotated full arena. Scratch comes from — and returns to — `ws`;
/// `ws.last_stats` is refreshed.
fn run_binned_kernel<X: Cells>(
    x: &X,
    y: &[bool],
    max_depth: usize,
    ws: &mut TreeWorkspace,
) -> DeepTree {
    let (n, d) = x.shape();
    check_fit_shape(n, y);
    prepare_binned_inputs(x, ws);
    let stride = ws.bin_off[d] as usize;
    if stride != ws.hist_stride || d != ws.hist_d {
        // Pool buffers are sized (and zeroed) for one (stride, d) shape;
        // reshaping drops them so `alloc_slot` rebuilds clean ones.
        ws.pool.clear();
        ws.hist_stride = stride;
        ws.hist_d = d;
    }
    let mut rows = std::mem::take(&mut ws.rows);
    rows.clear();
    rows.extend(0..n as u32);
    let pool = std::mem::take(&mut ws.pool);
    // Every pooled buffer is zero between fits (the release invariant), so
    // all of them start free.
    let free = (0..pool.len()).collect();
    let mut kernel = BinnedKernel {
        x,
        y,
        n,
        d,
        max_depth,
        codes: std::mem::take(&mut ws.codes),
        bin_lo: std::mem::take(&mut ws.bin_lo),
        bin_hi: std::mem::take(&mut ws.bin_hi),
        off: std::mem::take(&mut ws.bin_off),
        rows,
        scratch: std::mem::take(&mut ws.scratch),
        inc: std::mem::take(&mut ws.inc),
        pool,
        free,
        stride,
        arena: Arena::default(),
    };

    // Root class counts, accumulated in row-ascending order.
    let mut root = Bin::default();
    for &label in y {
        root.add(Bin::of_row(label));
    }
    let root_gini = gini(root.positives(), root.total());
    let root_slot = if kernel.needs_split_scan(n, 0, root_gini) {
        let s = kernel.alloc_slot();
        kernel.build_hist(0, n, s);
        s
    } else {
        NO_SLOT
    };
    kernel.build(0, n, 0, root, root_slot);

    let BinnedKernel { codes, bin_lo, bin_hi, off, rows, scratch, inc, pool, arena, .. } = kernel;
    ws.codes = codes;
    ws.bin_lo = bin_lo;
    ws.bin_hi = bin_hi;
    ws.bin_off = off;
    ws.rows = rows;
    ws.scratch = scratch;
    ws.inc = inc;
    ws.pool = pool;
    ws.last_stats = arena.stats;
    arena.into_deep(d, max_depth)
}

/// Scatters `rows` (with their bins `acc`) into a zeroed histogram buffer,
/// one feature column of the `d × n` code arena at a time, recording each
/// feature's occupied code range.
fn scatter(buf: &mut HistBuf, codes: &[u8], n: usize, off: &[u32], rows: &[u32], acc: &[Bin]) {
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
/// advances. Each side's bin sums its rows in row order. Returns
/// `(left_len, left, right)`.
#[inline(always)]
fn route(
    seg: &mut [u32],
    right: &mut [u32],
    goes_left: impl Fn(usize) -> bool,
    acc: impl Fn(usize) -> Bin,
) -> (usize, Bin, Bin) {
    let (mut nl, mut nr) = (0usize, 0usize);
    let (mut left_acc, mut right_acc) = (Bin::default(), Bin::default());
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
struct BinnedKernel<'a, X> {
    x: &'a X,
    y: &'a [bool],
    n: usize,
    d: usize,
    max_depth: usize,
    /// Column-major `d × n` quantized feature codes.
    codes: Vec<u8>,
    /// Flattened per-feature bin `lo` values.
    bin_lo: Vec<f64>,
    /// Flattened per-feature bin `hi` values.
    bin_hi: Vec<f64>,
    /// Prefix offsets into `bin_lo`/`bin_hi` (`d + 1` entries).
    off: Vec<u32>,
    rows: Vec<u32>,
    scratch: Vec<u32>,
    /// Per-node compact gather of the rows' bins.
    inc: Vec<Bin>,
    pool: Vec<HistBuf>,
    free: Vec<usize>,
    stride: usize,
    arena: Arena,
}

impl<X: Cells> BinnedKernel<'_, X> {
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
            bins: vec![Bin::default(); self.stride],
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
            buf.bins[base + mn as usize..=base + mx as usize].fill(Bin::default());
            buf.range[f] = (1, 0);
            buf.dirty[f] = (1, 0);
        }
        self.free.push(slot);
    }

    /// Builds the node's histogram in one pass over its rows: the rows'
    /// bins are gathered into a compact buffer once, then each feature's
    /// loop reads it sequentially while scattering into the per-bin sums.
    fn build_hist(&mut self, lo: usize, hi: usize, slot: usize) {
        let rows = &self.rows[lo..hi];
        let y = self.y;
        self.inc.clear();
        self.inc.extend(rows.iter().map(|&r| Bin::of_row(y[r as usize])));
        scatter(&mut self.pool[slot], &self.codes, self.n, &self.off, rows, &self.inc);
    }

    /// Converts the parent's histogram into the larger child's in place:
    /// `parent -= smaller_child` over the parent's occupied span, then
    /// tightens the occupied range from the exact counts.
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
    /// order, exactly like the presorted builder.
    fn build(&mut self, lo: usize, hi: usize, depth: usize, node: Bin, slot: usize) -> usize {
        let (pos, total) = (node.positives(), node.total());
        let proba = if total > 0.0 { pos / total } else { 0.5 };
        let node_gini = gini(pos, total);

        if !self.needs_split_scan(hi - lo, depth, node_gini) {
            self.release(slot);
            return self.arena.push(Node::Leaf { proba }, depth, proba, 0.0);
        }
        let Some(split) = self.best_split(slot, node_gini, pos, total) else {
            self.release(slot);
            return self.arena.push(Node::Leaf { proba }, depth, proba, 0.0);
        };

        let gain_w = split.gain * total;
        let (nl, left_counts, right_counts) = self.partition(lo, hi, &split);
        let nr = (hi - lo) - nl;
        let left_needs =
            self.needs_split_scan(nl, depth + 1, gini(left_counts.positives(), left_counts.total()));
        let right_needs = self.needs_split_scan(
            nr,
            depth + 1,
            gini(right_counts.positives(), right_counts.total()),
        );
        let (left_slot, right_slot) = match (left_needs, right_needs) {
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
                // Build the smaller child fresh; the larger child inherits
                // the parent's buffer by subtraction.
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
        };
        // Reserve this node's slot before recursing.
        let me = self.arena.push(Node::Leaf { proba }, depth, proba, gain_w);
        let left = self.build(lo, lo + nl, depth + 1, left_counts, left_slot);
        let right = self.build(lo + nl, hi, depth + 1, right_counts, right_slot);
        self.arena.nodes[me] =
            Node::Split { feature: split.feature, threshold: split.threshold, left, right };
        me
    }

    /// Scans the node's histogram for the best threshold: per feature, an
    /// O(occupied bins) walk emitting a candidate at every boundary between
    /// occupied bins, with the identical gain expression, comparison order,
    /// and tie-breaking as the presorted builder. Thresholds come from the
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
        pos: f64,
        total: f64,
    ) -> Option<SplitChoice> {
        let buf = &self.pool[slot];
        let mut best: Option<SplitChoice> = None;
        for feature in 0..self.d {
            self.arena.stats.split_scans += 1;
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
                    let right_total = total - left_total;
                    let child = (left_total * gini(left_pos, left_total)
                        + right_total * gini(pos - left_pos, right_total))
                        / total;
                    let gain = (node_gini - child).max(0.0);
                    if best.as_ref().map(|bst| gain > bst.gain).unwrap_or(true) {
                        let left_code =
                            (hi_p <= threshold && threshold < lo_b).then_some(p as u8);
                        best = Some(SplitChoice { feature, threshold, gain, left_code });
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
    /// row-ascending order, exactly like the presorted builder minus its d
    /// per-feature order-array partitions.
    fn partition(&mut self, lo: usize, hi: usize, split: &SplitChoice) -> (usize, Bin, Bin) {
        let seg = &mut self.rows[lo..hi];
        self.scratch.clear();
        self.scratch.resize(seg.len(), 0);
        let y = self.y;
        let acc = |r: usize| Bin::of_row(y[r]);
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

/// Gini impurity of a binary node.
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

        pub fn fit(x: &Matrix, y: &[bool], max_depth: usize) -> DecisionTree {
            let (n, d) = x.shape();
            assert_eq!(n, y.len());
            assert!(n > 0);
            let max_depth = max_depth.max(1);
            let mut builder =
                Builder { x, y, nodes: Vec::new(), importances: vec![0.0; d], max_depth };
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
            nodes: Vec<Node>,
            importances: Vec<f64>,
            max_depth: usize,
        }

        impl Builder<'_> {
            fn build(&mut self, idx: &[usize], depth: usize) -> usize {
                let (pos, total) = self.counts(idx);
                let proba = if total > 0.0 { pos / total } else { 0.5 };
                let node_gini = gini(pos, total);

                if depth >= self.max_depth
                    || idx.len() < MIN_SAMPLES_SPLIT
                    || node_gini <= dfs_linalg::EPS
                {
                    return self.push(Node::Leaf { proba });
                }

                match self.best_split(idx, node_gini, pos, total) {
                    None => self.push(Node::Leaf { proba }),
                    Some(split) => {
                        self.importances[split.feature] += split.gain * total;
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

            fn counts(&self, idx: &[usize]) -> (f64, f64) {
                let mut pos = 0.0;
                let mut total = 0.0;
                for &i in idx {
                    total += 1.0;
                    if self.y[i] {
                        pos += 1.0;
                    }
                }
                (pos, total)
            }

            fn best_split(
                &self,
                idx: &[usize],
                node_gini: f64,
                pos: f64,
                total: f64,
            ) -> Option<SplitChoice> {
                let d = self.x.ncols();
                let mut best: Option<SplitChoice> = None;
                let mut values: Vec<(f64, bool)> = Vec::with_capacity(idx.len());
                for feature in 0..d {
                    values.clear();
                    values.extend(idx.iter().map(|&i| (self.x[(i, feature)], self.y[i])));
                    values.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite features"));
                    if values.first().map(|v| v.0) == values.last().map(|v| v.0) {
                        continue;
                    }
                    let len = values.len();
                    let mut prefix_pos = vec![0.0; len + 1];
                    let mut prefix_total = vec![0.0; len + 1];
                    for (k, v) in values.iter().enumerate() {
                        prefix_total[k + 1] = prefix_total[k] + 1.0;
                        prefix_pos[k + 1] = prefix_pos[k] + if v.1 { 1.0 } else { 0.0 };
                    }
                    for k in (1..len).filter(|&k| values[k].0 > values[k - 1].0) {
                        let threshold = 0.5 * (values[k - 1].0 + values[k].0);
                        let left_total = prefix_total[k];
                        let right_total = total - left_total;
                        if left_total <= 0.0 || right_total <= 0.0 {
                            continue;
                        }
                        let left_pos = prefix_pos[k];
                        let right_pos = pos - left_pos;
                        let child = (left_total * gini(left_pos, left_total)
                            + right_total * gini(right_pos, right_total))
                            / total;
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
    /// values (quantized columns), constant features and label noise.
    fn awkward_problem(seed: u64, n: usize, d: usize) -> (Matrix, Vec<bool>) {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut rows = Vec::with_capacity(n);
        let mut y = Vec::with_capacity(n);
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
            rows.push(row);
        }
        (Matrix::from_rows(&rows), y)
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
        let mut ws = TreeWorkspace::new();
        for depth in 1..=5 {
            let naive = reference::fit(&x, &y, depth);
            assert_bit_identical(&DecisionTree::fit_in(&x, &y, depth, &mut ws), &naive);
            assert_bit_identical(&fit_presorted(&x, &y, depth), &naive);
        }
    }

    #[test]
    fn both_kernels_match_naive_reference_on_awkward_data() {
        // Duplicate values, constant features, many seeds. Every column has
        // <= 7 distinct values, so the binned kernel must be
        // *bit-identical* to the reference, not merely close.
        let mut ws = TreeWorkspace::new();
        for seed in 0..12u64 {
            let (x, y) = awkward_problem(seed, 90 + (seed as usize % 3) * 17, 5);
            for depth in [1, 3, 6, 7] {
                let naive = reference::fit(&x, &y, depth);
                assert_bit_identical(&DecisionTree::fit_in(&x, &y, depth, &mut ws), &naive);
                assert_bit_identical(&fit_presorted(&x, &y, depth), &naive);
            }
        }
    }

    #[test]
    fn truncation_matches_direct_fits_at_every_depth() {
        let mut ws = TreeWorkspace::new();
        for seed in [3u64, 8, 21] {
            let (x, y) = awkward_problem(seed, 110, 4);
            let deep = DecisionTree::fit_deep_in(&x, &y, 7, &mut ws);
            for depth in 1..=7 {
                let truncated = deep.truncate(depth);
                let direct = DecisionTree::fit_in(&x, &y, depth, &mut ws);
                assert_bit_identical(&truncated, &direct);
            }
        }
    }

    #[test]
    fn truncation_matches_direct_fits_on_binned_trees() {
        // The depth-grid sharing path (DT HPO) as the engine runs it: fits
        // from dataset bins bound to a row/column selection.
        for seed in [1u64, 13, 29] {
            let (x, y) = awkward_problem(seed, 100, 5);
            let bins = Arc::new(BinSet::derive(&x));
            let cols = vec![3usize, 0, 1];
            let rows: Vec<usize> = (0..x.nrows()).filter(|r| r % 4 != 1).collect();
            let sub = x.select_rows_cols(&rows, &cols);
            let suby: Vec<bool> = rows.iter().map(|&r| y[r]).collect();
            let mut ws = TreeWorkspace::new();
            ws.bind_bins(&bins, &cols, &rows);
            let deep = DecisionTree::fit_deep_in(&sub, &suby, 7, &mut ws);
            for depth in 1..=7 {
                let direct = DecisionTree::fit_in(&sub, &suby, depth, &mut ws);
                assert_bit_identical(&deep.truncate(depth), &direct);
            }
        }
    }

    #[test]
    #[should_panic(expected = "exceeds fitted depth")]
    fn truncation_beyond_fitted_depth_panics() {
        let (x, y) = and_problem();
        let mut ws = TreeWorkspace::new();
        let deep = DecisionTree::fit_deep_in(&x, &y, 3, &mut ws);
        let _ = deep.truncate(4);
    }

    #[test]
    fn workspace_reuse_is_bit_identical_and_tracks_stats() {
        let (x, y) = and_problem();
        let mut ws = TreeWorkspace::new();
        let first = DecisionTree::fit_in(&x, &y, 4, &mut ws);
        let stats = ws.last_stats();
        assert_eq!(stats.nodes, first.n_nodes() as u64);
        assert!(stats.split_scans > 0);
        // A different fit in between must not perturb a repeat fit.
        let (x2, y2) = awkward_problem(5, 60, 3);
        let _ = DecisionTree::fit_in(&x2, &y2, 6, &mut ws);
        let again = DecisionTree::fit_in(&x, &y, 4, &mut ws);
        assert_bit_identical(&first, &again);
    }

    #[test]
    fn gain_by_depth_covers_all_importance_mass() {
        let (x, y) = awkward_problem(9, 120, 4);
        let mut ws = TreeWorkspace::new();
        let deep = DecisionTree::fit_deep_in(&x, &y, 5, &mut ws);
        let by_depth = deep.gain_by_depth();
        assert_eq!(by_depth.len(), 5);
        let from_depths: f64 = by_depth.iter().sum();
        let from_nodes: f64 = deep.gain_w.iter().sum();
        assert!((from_depths - from_nodes).abs() < 1e-12);
    }

    #[test]
    fn binned_matches_presorted_bit_for_bit_on_low_cardinality_data() {
        // The exactness argument, tested directly: <= 256 distinct values
        // per column => identical trees.
        let mut binned = TreeWorkspace::new();
        for seed in 0..20u64 {
            let (x, y) = awkward_problem(seed, 70 + (seed as usize % 5) * 23, 6);
            for depth in [1, 2, 4, 7] {
                let b = DecisionTree::fit_in(&x, &y, depth, &mut binned);
                assert_bit_identical(&b, &fit_presorted(&x, &y, depth));
            }
        }
    }

    #[test]
    fn bound_bins_match_local_derivation() {
        // Binding the workspace to a dataset-level BinSet with identity
        // row/col maps must reproduce the per-fit derivation exactly, on
        // quantized (> 256 distinct values) columns too.
        let (awk_x, awk_y) = awkward_problem(4, 100, 5);
        let (mid_x, mid_y) = mid_cardinality_problem(700);
        for (x, y) in [(&awk_x, &awk_y), (&mid_x, &mid_y)] {
            let (n, d) = x.shape();
            let bins = Arc::new(BinSet::derive(x));
            let cols: Vec<usize> = (0..d).collect();
            let rows: Vec<usize> = (0..n).collect();
            let mut local = TreeWorkspace::new();
            let mut bound = TreeWorkspace::new();
            bound.bind_bins(&bins, &cols, &rows);
            for depth in [2, 5, 7] {
                let a = DecisionTree::fit_in(x, y, depth, &mut local);
                let b = DecisionTree::fit_in(x, y, depth, &mut bound);
                assert_bit_identical(&a, &b);
            }
        }
    }

    #[test]
    fn bound_bins_on_row_col_subsets_match_presorted() {
        // The cache-sharing path: bins derived once on the full matrix, the
        // fit running on a (rows, cols) selection — a scenario's train-row
        // cap and unsorted subset, and a forest tree's bootstrap (rows with
        // repeats) and sorted feature subspace. On low-cardinality columns
        // the occupied bins of any selection are its distinct values, so
        // the result must still equal the presorted tree on the gathered
        // submatrix.
        let (x, y) = awkward_problem(11, 120, 6);
        let n = x.nrows();
        let bins = Arc::new(BinSet::derive(&x));
        let mut rng = dfs_linalg::rng::Rng::seed_from_u64(5);
        let bootstrap: Vec<usize> = (0..n).map(|_| rng.below(n)).collect();
        let mut distinct = bootstrap.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert!(distinct.len() < n, "the bootstrap must repeat rows");
        let selections = [
            (vec![0usize, 2, 4, 5], (0..n).filter(|r| r % 3 != 1).collect::<Vec<_>>()),
            (vec![4usize, 0, 2], (0..90).collect()),
            (vec![1usize, 3, 4], bootstrap),
        ];
        for (cols, rows) in selections {
            let sub = x.select_rows_cols(&rows, &cols);
            let suby: Vec<bool> = rows.iter().map(|&r| y[r]).collect();
            let mut bound = TreeWorkspace::new();
            bound.bind_bins(&bins, &cols, &rows);
            for depth in [1, 3, 6] {
                let b = DecisionTree::fit_in(&sub, &suby, depth, &mut bound);
                assert_bit_identical(&b, &fit_presorted(&sub, &suby, depth));
            }
        }
    }

    #[test]
    fn binding_is_sticky_until_cleared() {
        let (x, y) = awkward_problem(2, 80, 4);
        let bins = Arc::new(BinSet::derive(&x));
        let cols: Vec<usize> = (0..x.ncols()).collect();
        let rows: Vec<usize> = (0..x.nrows()).collect();
        let mut ws = TreeWorkspace::new();
        ws.bind_bins(&bins, &cols, &rows);
        let first = DecisionTree::fit_in(&x, &y, 4, &mut ws);
        // Second fit without rebinding still uses the bound set.
        let second = DecisionTree::fit_in(&x, &y, 4, &mut ws);
        assert_bit_identical(&first, &second);
        ws.clear_bins();
        let third = DecisionTree::fit_in(&x, &y, 4, &mut ws);
        assert_bit_identical(&first, &third);
    }

    #[test]
    #[should_panic(expected = "bound bins do not match")]
    fn stale_binding_shape_mismatch_panics() {
        let (x, y) = awkward_problem(7, 60, 4);
        let bins = Arc::new(BinSet::derive(&x));
        let mut ws = TreeWorkspace::new();
        ws.bind_bins(&bins, &[0, 1], &[0, 1, 2, 3]);
        // Fit matrix is 60 x 4, binding says 4 x 2 -> must panic loudly
        // rather than silently mis-quantize.
        let _ = DecisionTree::fit_in(&x, &y, 3, &mut ws);
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
        let mut binned = TreeWorkspace::new();
        for depth in [1, 3] {
            let t = DecisionTree::fit_in(&x, &y, depth, &mut binned);
            assert!(
                matches!(t.nodes[0], Node::Split { feature: 0, threshold, .. } if threshold == b),
                "root must split feature 0 at the upper double: {:?}",
                t.nodes[0]
            );
            assert_bit_identical(&t, &fit_presorted(&x, &y, depth));
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "outside its bin")]
    fn stale_same_shape_binding_is_caught_in_debug_builds() {
        let (x, y) = awkward_problem(7, 60, 4);
        let bins = Arc::new(BinSet::derive(&x));
        let cols: Vec<usize> = (0..x.ncols()).collect();
        let rows: Vec<usize> = (0..x.nrows()).collect();
        let mut ws = TreeWorkspace::new();
        ws.bind_bins(&bins, &cols, &rows);
        // Same shape, different values: the binding is stale.
        let (other, _) = awkward_problem(8, 60, 4);
        let _ = DecisionTree::fit_in(&other, &y, 3, &mut ws);
    }

    #[test]
    fn predict_by_depth_matches_every_truncation() {
        let mut out = [false; 7];
        let mut ws = TreeWorkspace::new();
        for seed in [2u64, 5, 19] {
            let (x, y) = awkward_problem(seed, 150, 5);
            let deep = DecisionTree::fit_deep_in(&x, &y, 7, &mut ws);
            let trees: Vec<DecisionTree> = (1..=7).map(|c| deep.truncate(c)).collect();
            for row in x.rows_iter() {
                deep.predict_by_depth(row, &mut out);
                for (c, tree) in trees.iter().enumerate() {
                    assert_eq!(out[c], tree.predict_one(row), "cutoff {}", c + 1);
                }
            }
        }
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

        let mut ws = TreeWorkspace::new();
        let a = DecisionTree::fit_in(&x, &y, 4, &mut ws);
        let b = DecisionTree::fit_in(&x, &y, 4, &mut ws);
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

    /// Maximum allowed |F1(binned) − F1(presorted)| of a depth-7 fit.
    ///
    /// german_credit's scaled numeric columns exceed 256 distinct values at
    /// 600 train rows, so the binned kernel quantizes them and its deeper
    /// splits land on slightly different thresholds; the measured val-F1
    /// delta is 0.0228 (binned is the *higher* of the two here —
    /// quantization acts as mild regularization, not degradation). On the
    /// 10⁴-row scale corpus the holdout delta is 0.0224 with binned the
    /// lower. The tolerance bounds the gap at 0.03 so a real quality
    /// regression in either kernel still fails the gate.
    const F1_TOLERANCE: f64 = 0.03;

    fn f1_of<'a>(t: &DecisionTree, rows: impl Iterator<Item = &'a [f64]>, y: &[bool]) -> f64 {
        let preds: Vec<bool> = rows.map(|row| t.predict_one(row)).collect();
        dfs_metrics::f1_score(&preds, y)
    }

    /// A binned fit with the bins bound as the evaluation engine binds
    /// them: derived once from the whole train matrix, every row and
    /// column selected.
    fn fit_bound(x: &Matrix, y: &[bool], depth: usize) -> DecisionTree {
        let (n, d) = x.shape();
        let mut ws = TreeWorkspace::new();
        let cols: Vec<usize> = (0..d).collect();
        let rows: Vec<usize> = (0..n).collect();
        ws.bind_bins(&Arc::new(BinSet::derive(x)), &cols, &rows);
        DecisionTree::fit_in(x, y, depth, &mut ws)
    }

    #[test]
    fn german_credit_presorted_matches_naive_and_binned_holds_val_f1() {
        // High-cardinality columns (ties and > 256 distinct values) at the
        // engine's train cap and the grid's deepest depth: the presorted
        // reference is still exact, the binned kernel within F1_TOLERANCE.
        let (x, y, x_val, y_val) = crate::tests::german_credit();
        assert_eq!(x.nrows(), 600);
        let presorted = fit_presorted(&x, &y, 7);
        assert_bit_identical(&presorted, &reference::fit(&x, &y, 7));
        let f1_presorted = f1_of(&presorted, x_val.rows_iter(), &y_val);
        let f1_binned = f1_of(&fit_bound(&x, &y, 7), x_val.rows_iter(), &y_val);
        assert!(
            (f1_binned - f1_presorted).abs() <= F1_TOLERANCE,
            "val F1: binned {f1_binned:.4}, presorted {f1_presorted:.4}"
        );
    }

    #[test]
    fn scale_cell_binned_holds_holdout_f1_against_presorted() {
        // The streamed scale corpus at 10^4 rows: the first 80% train at
        // depth 7, the last 20% are the holdout, scored row by row.
        let mut spec = dfs_data::synthetic::million_row_spec();
        spec.rows = 10_000;
        let data = dfs_data::synthetic::generate_streamed_collect(&spec, 77, 8192);
        let n_train = data.x.nrows() * 4 / 5;
        let x = data.x.select_rows(&(0..n_train).collect::<Vec<_>>());
        let (y, y_holdout) = data.y.split_at(n_train);
        let holdout = || data.x.rows_iter().skip(n_train);
        let f1_presorted = f1_of(&fit_presorted(&x, y, 7), holdout(), y_holdout);
        let f1_binned = f1_of(&fit_bound(&x, y, 7), holdout(), y_holdout);
        assert!(
            (f1_binned - f1_presorted).abs() <= F1_TOLERANCE,
            "holdout F1: binned {f1_binned:.4}, presorted {f1_presorted:.4}"
        );
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

    /// A problem whose columns carry 300–700 distinct values: past the
    /// 256-bin budget, so the kernel must quantize.
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
    fn hist_pool_release_restores_the_all_zero_invariant() {
        // A buffer must come back from the pool fully clean. Fit on
        // > 256-distinct-value columns (so the layout has hundreds of bins
        // per feature), then inspect every pooled buffer and refit through
        // the same workspace.
        let (x, y) = mid_cardinality_problem(700);
        let mut ws = TreeWorkspace::new();
        let first = DecisionTree::fit_in(&x, &y, 7, &mut ws);
        assert!(ws.hist_stride > MAX_BINS, "the fit should use more than one column's bins");
        assert!(!ws.pool.is_empty());
        for (s, buf) in ws.pool.iter().enumerate() {
            assert!(buf.bins.iter().all(|&b| b == Bin::default()), "slot {s}: bins not zeroed");
            assert!(buf.range.iter().all(|&r| r == (1, 0)), "slot {s}: range not reset");
            assert!(buf.dirty.iter().all(|&r| r == (1, 0)), "slot {s}: dirty not reset");
        }
        // A re-acquire of the same buffers must behave like fresh ones.
        let again = DecisionTree::fit_in(&x, &y, 7, &mut ws);
        assert_bit_identical(&first, &again);
    }

    /// A source split for the in-place oracle: a quantized column, the
    /// adjacent doubles `1 + 2⁻⁵²` / `1 + 2⁻⁵¹` (whose midpoint rounds onto
    /// the upper one, so the kernel must route by raw value), a column
    /// with more distinct values than 256 bins, and an unused column.
    fn adjacent_doubles_source(n: usize) -> (Matrix, Vec<bool>, f64) {
        let (a, b) = (1.0 + f64::EPSILON, 1.0 + 2.0 * f64::EPSILON);
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|i| {
                let wide = ((i * 7919) % 1009) as f64 / 1009.0;
                vec![(i % 5) as f64 / 5.0, if i % 3 == 0 { b } else { a }, -1.0, wide]
            })
            .collect();
        let y = (0..n).map(|i| i % 3 == 0 || (i % 5 == 4 && i % 2 == 0)).collect();
        (Matrix::from_rows(&rows), y, b)
    }

    #[test]
    fn in_place_view_fits_match_gathered_fits_bit_for_bit() {
        // Fits read the train split in place: codes come from the bound bin
        // set, and the `x <= t` fallback reads the same doubles through the
        // column map. Unsorted, non-contiguous column maps and a row cap
        // below the source height, as wrapper evaluation uses.
        let (awk_x, awk_y) = awkward_problem(29, 360, 7);
        let (adj_x, adj_y, upper) = adjacent_doubles_source(360);
        let problems =
            [(&awk_x, &awk_y, vec![5usize, 0, 3, 1, 6]), (&adj_x, &adj_y, vec![3usize, 1, 0])];
        let mut fallback_seen = false;
        for (x, y, cols) in problems {
            let cap = 300;
            let rows: Vec<usize> = (0..cap).collect();
            let view = ColumnView::head(x, cap, &cols);
            let gathered = view.gather();
            let y = &y[..cap];
            let bins = Arc::new(BinSet::derive(x));
            let mut in_place = TreeWorkspace::new();
            let mut copied = TreeWorkspace::new();
            in_place.bind_bins(&bins, &cols, &rows);
            copied.bind_bins(&bins, &cols, &rows);
            let a = DecisionTree::fit_deep_in(&view, y, 7, &mut in_place);
            let b = DecisionTree::fit_deep_in(&gathered, y, 7, &mut copied);
            assert_eq!(a.nodes, b.nodes, "nodes differ");
            assert_eq!(a.depth, b.depth);
            let floats = |t: &DeepTree| [t.proba.clone(), t.gain_w.clone()].concat();
            for (p, q) in floats(&a).iter().zip(&floats(&b)) {
                assert_eq!(p.to_bits(), q.to_bits());
            }
            for depth in [1, 4] {
                let a = DecisionTree::fit_in(&view, y, depth, &mut in_place);
                let b = DecisionTree::fit_in(&gathered, y, depth, &mut copied);
                assert_bit_identical(&a, &b);
            }
            // View column 1 is the adjacent-doubles column.
            let at_upper = |n: &Node| match n {
                Node::Split { feature, threshold, .. } => *feature == 1 && *threshold == upper,
                Node::Leaf { .. } => false,
            };
            fallback_seen |= cols[1] == 1 && a.nodes.iter().any(at_upper);
        }
        assert!(fallback_seen, "no split at the adjacent doubles: the fallback went unexercised");
    }
}
