//! Before/after benchmark for the CART tree kernel.
//!
//! Measurements on a realistic corpus (the synthetic german_credit
//! dataset, train subsampled to the evaluation engine's row cap) and on
//! the streamed scale corpus:
//!
//! 1. **Tree fit** at the deepest grid depth — a three-way comparison of
//!    the historical per-node gather-and-sort builder (carried here as the
//!    "naive" baseline), the presorted reference (`tree::fit_presorted`),
//!    and the histogram-binned kernel every fit runs. The presorted tree
//!    is asserted bit-identical to the naive one on every node count,
//!    importance bit pattern, and per-row probability bit pattern; the
//!    binned tree — exact only up to 256 distinct values per column — is
//!    held to validation-F1 parity with the presorted tree within
//!    [`F1_TOLERANCE`]. Full (non-`--smoke`) runs also require the binned
//!    fit to beat the presorted fit by at least [`MIN_BINNED_SPEEDUP`]x.
//! 2. **DT-HPO grid** — seven independent fits (the pre-truncation
//!    `grid_search` loop) vs one deep fit scored at every depth by one
//!    root-to-leaf walk per validation row, plus one truncation, with
//!    the winning spec, its `val_f1` bits, and its predictions asserted
//!    equal.
//! 3. **Forest fit / predict** — the class-balanced 50-tree forest through
//!    the pooled-workspace fused-gather path, plus the per-row cost of the
//!    scratch-reusing batch predictor.
//! 4. **Scale cell** — the streamed synthetic generator (`million_row_spec`
//!    shape, 10^5 rows full / 10^4 smoke) feeds a block-size-invariance
//!    gate plus a depth-7 race of the binned kernel against the presorted
//!    reference, held to holdout-F1 parity within [`F1_TOLERANCE`]. Full
//!    runs gate the binned kernel at [`MIN_SCALE_SPEEDUP`]x over presorted.
//! 5. **Million-row cell** (full runs only) — one timed binned fit at 10^6
//!    streamed rows.
//!
//! Results are printed as JSON and, when a path argument is given, also
//! written there (committed snapshot: `BENCH_tree.json` in the repo root).
//! `--smoke` shrinks repetition counts and row counts and skips the
//! wall-clock speedup gates for CI; the agreement gates run in every mode
//! and exit nonzero on violation.
//!
//! Run with `scripts/bench-snapshots.sh` (all four snapshots at one commit),
//! or alone with `cargo run --release -p dfs-bench --bin bench_tree -- BENCH_tree.json`.

use dfs_bench::ok_or_exit;
use dfs_core::DfsError;
use dfs_data::split::stratified_three_way;
use dfs_data::synthetic::{generate, generate_streamed_collect, million_row_spec, spec_by_name};
use dfs_linalg::Matrix;
use dfs_models::forest::{ForestConfig, RandomForest};
use dfs_models::tree::{fit_presorted, BinSet, DecisionTree, Node, TreeWorkspace};
use dfs_models::{hpo, ModelKind, ModelSpec, TrainedModel};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

/// Train-row cap, matching `ScenarioSettings::default_bench().max_train_rows`.
const TRAIN_ROWS: usize = 600;
/// Deepest depth of the paper's DT grid (`td ∈ [1:7]`).
const GRID_DEPTH: usize = 7;
/// Maximum allowed |val-F1(binned) − val-F1(presorted)| at `GRID_DEPTH`.
///
/// german_credit's scaled numeric columns exceed 256 distinct values at
/// 600 train rows, so the binned kernel quantizes them and its deeper
/// splits land on slightly different thresholds; the measured val-F1 delta
/// is 0.0228 (binned is the *higher* of the two here — quantization acts
/// as mild regularization, not degradation). The tolerance bounds the gap
/// at 0.03 so a real quality regression in either kernel still fails the
/// gate.
const F1_TOLERANCE: f64 = 0.03;
/// Full-run wall-clock gate: binned fit must beat presorted by this factor.
const MIN_BINNED_SPEEDUP: f64 = 2.0;
/// Full-run gate on the scale cell: the binned kernel must beat the
/// presorted reference by this factor at [`SCALE_ROWS_FULL`] rows.
const MIN_SCALE_SPEEDUP: f64 = 2.0;
/// Scale-cell rows of full runs and of `--smoke` runs.
const SCALE_ROWS_FULL: usize = 100_000;
const SCALE_ROWS_SMOKE: usize = 10_000;

/// Median wall-clock over `reps` runs of `f`, in nanoseconds.
fn median_ns(reps: usize, mut f: impl FnMut()) -> u64 {
    let mut samples: Vec<u64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_nanos() as u64
        })
        .collect();
    samples.sort_unstable();
    samples[samples.len() / 2]
}

// ---------------------------------------------------------------------------
// The "before" implementation: the per-node gather-and-sort CART builder
// as it shipped before the presorted kernel, kept here as the benchmark
// baseline and bit-identity reference.
// ---------------------------------------------------------------------------

const MIN_SAMPLES_SPLIT: usize = 4;

fn gini(pos: f64, total: f64) -> f64 {
    if total <= 0.0 {
        return 0.0;
    }
    let p = pos / total;
    2.0 * p * (1.0 - p)
}

struct NaiveSplit {
    feature: usize,
    threshold: f64,
    gain: f64,
}

struct NaiveBuilder<'a> {
    x: &'a Matrix,
    y: &'a [bool],
    nodes: Vec<Node>,
    importances: Vec<f64>,
    max_depth: usize,
}

fn naive_fit(x: &Matrix, y: &[bool], max_depth: usize) -> DecisionTree {
    let (n, d) = x.shape();
    assert_eq!(n, y.len());
    assert!(n > 0);
    let max_depth = max_depth.max(1);
    let mut b = NaiveBuilder { x, y, nodes: Vec::new(), importances: vec![0.0; d], max_depth };
    let all: Vec<usize> = (0..n).collect();
    b.build(&all, 0);
    let total: f64 = b.importances.iter().sum();
    if total > 0.0 {
        for imp in &mut b.importances {
            *imp /= total;
        }
    }
    DecisionTree::from_parts(b.nodes, b.importances, max_depth)
}

impl NaiveBuilder<'_> {
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
                let (left_idx, right_idx): (Vec<usize>, Vec<usize>) =
                    idx.iter().partition(|&&i| self.x[(i, split.feature)] <= split.threshold);
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

    fn best_split(&self, idx: &[usize], node_gini: f64, pos: f64, total: f64) -> Option<NaiveSplit> {
        let d = self.x.ncols();
        let mut best: Option<NaiveSplit> = None;
        let mut values: Vec<(f64, bool)> = Vec::with_capacity(idx.len());
        for feature in 0..d {
            values.clear();
            values.extend(idx.iter().map(|&i| (self.x[(i, feature)], self.y[i])));
            // Features are finite by construction; equal-order fallback for
            // the impossible NaN keeps the runner path panic-free.
            values.sort_by(|a, b| {
                a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal)
            });
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
                    best = Some(NaiveSplit { feature, threshold, gain });
                }
            }
        }
        best
    }
}

/// The pre-truncation DT grid: one full fit per grid point, folded with the
/// strictly-better-in-grid-order rule `grid_search` uses.
fn naive_dt_grid(
    x_train: &Matrix,
    y_train: &[bool],
    x_val: &Matrix,
    y_val: &[bool],
) -> (ModelSpec, f64, TrainedModel) {
    let mut best: Option<(f64, ModelSpec, TrainedModel)> = None;
    for spec in hpo::grid(ModelKind::DecisionTree) {
        let model = spec.fit(x_train, y_train);
        let f1 = dfs_metrics::f1_score(&model.predict(x_val), y_val);
        let better = best.as_ref().map(|(b, _, _)| f1 > *b).unwrap_or(true);
        if better {
            best = Some((f1, spec, model));
        }
    }
    let Some((f1, spec, model)) = best else {
        eprintln!("[dfs-bench] fatal: empty DT grid");
        std::process::exit(1);
    };
    (spec, f1, model)
}

// ---------------------------------------------------------------------------

fn corpus() -> (Matrix, Vec<bool>, Matrix, Vec<bool>) {
    let Some(spec) = spec_by_name("german_credit") else {
        eprintln!("[dfs-bench] fatal: unknown dataset german_credit");
        std::process::exit(1);
    };
    let ds = generate(&spec, 41);
    let split = stratified_three_way(&ds, 41);
    let cap = TRAIN_ROWS.min(split.train.x.nrows());
    let rows: Vec<usize> = (0..cap).collect();
    let x_train = split.train.x.select_rows(&rows);
    let y_train: Vec<bool> = rows.iter().map(|&i| split.train.y[i]).collect();
    (x_train, y_train, split.val.x.clone(), split.val.y.clone())
}

/// Observable-level bit-identity: node count, importance bits, and the
/// probability bits of every probe row.
fn assert_trees_identical(a: &DecisionTree, b: &DecisionTree, probes: &[&Matrix]) -> bool {
    if a.n_nodes() != b.n_nodes() || a.max_depth() != b.max_depth() {
        return false;
    }
    let same_importances = a
        .importances()
        .iter()
        .zip(b.importances())
        .all(|(x, y)| x.to_bits() == y.to_bits());
    if !same_importances || a.importances().len() != b.importances().len() {
        return false;
    }
    probes.iter().all(|m| {
        m.rows_iter().all(|row| a.proba_one(row).to_bits() == b.proba_one(row).to_bits())
    })
}

fn tree_val_f1(t: &DecisionTree, x_val: &Matrix, y_val: &[bool]) -> f64 {
    let preds: Vec<bool> = x_val.rows_iter().map(|row| t.predict_one(row)).collect();
    dfs_metrics::f1_score(&preds, y_val)
}

fn main() {
    let stamp = dfs_bench::stamp::stamp_json_fields();
    let mut smoke = false;
    let mut out_path: Option<String> = None;
    for arg in std::env::args().skip(1) {
        if arg == "--smoke" {
            smoke = true;
        } else {
            out_path = Some(arg);
        }
    }
    let scale_rows = if smoke { SCALE_ROWS_SMOKE } else { SCALE_ROWS_FULL };
    let reps = if smoke { 3 } else { 9 };
    let forest_reps = if smoke { 1 } else { 5 };

    let (x_train, y_train, x_val, y_val) = corpus();
    let (n, d) = x_train.shape();
    let probes: [&Matrix; 2] = [&x_train, &x_val];
    let mut gate_ok = true;

    // 1. Single deep tree fit: naive per-node sort vs presorted vs binned.
    let naive_tree = naive_fit(&x_train, &y_train, GRID_DEPTH);
    let presorted_tree = fit_presorted(&x_train, &y_train, GRID_DEPTH);
    let presorted_exact = assert_trees_identical(&naive_tree, &presorted_tree, &probes);
    if !presorted_exact {
        eprintln!("[dfs-bench] fatal: presorted reference diverged from the naive builder");
    }
    // The binned workspace runs with pre-derived bins bound, mirroring the
    // evaluation engine: `BinSet::derive` happens once per (dataset, split)
    // on the `ArtifactCache` and every fit reuses it, so per-fit binned
    // cost excludes the one-off column sorts.
    let bins = std::sync::Arc::new(BinSet::derive(&x_train));
    let all_cols: Vec<usize> = (0..d).collect();
    let all_rows: Vec<usize> = (0..n).collect();
    let mut ws_binned = TreeWorkspace::new();
    ws_binned.bind_bins(&bins, &all_cols, &all_rows);
    let binned_tree = DecisionTree::fit_in(&x_train, &y_train, GRID_DEPTH, &mut ws_binned);
    let f1_presorted = tree_val_f1(&presorted_tree, &x_val, &y_val);
    let f1_binned = tree_val_f1(&binned_tree, &x_val, &y_val);
    let f1_delta = (f1_binned - f1_presorted).abs();
    let f1_ok = f1_delta <= F1_TOLERANCE;
    if !f1_ok {
        eprintln!(
            "[dfs-bench] fatal: binned/presorted val-F1 delta {f1_delta:.4} \
             exceeds tolerance {F1_TOLERANCE}"
        );
    }
    gate_ok &= presorted_exact && f1_ok;

    let fit_naive_ns = median_ns(reps, || {
        let t = naive_fit(&x_train, &y_train, GRID_DEPTH);
        assert!(t.n_nodes() > 0);
    });
    let fit_presorted_ns = median_ns(reps, || {
        let t = fit_presorted(&x_train, &y_train, GRID_DEPTH);
        assert!(t.n_nodes() > 0);
    });
    let fit_binned_ns = median_ns(reps, || {
        let t = DecisionTree::fit_in(&x_train, &y_train, GRID_DEPTH, &mut ws_binned);
        assert!(t.n_nodes() > 0);
    });
    let binned_vs_presorted = fit_presorted_ns as f64 / fit_binned_ns.max(1) as f64;
    if !smoke && binned_vs_presorted < MIN_BINNED_SPEEDUP {
        eprintln!(
            "[dfs-bench] fatal: binned kernel speedup {binned_vs_presorted:.2}x over presorted \
             is below the {MIN_BINNED_SPEEDUP}x gate"
        );
        gate_ok = false;
    }

    // 2. DT-HPO grid: 7 independent fits vs 1 deep fit scored at every depth.
    let (naive_spec, naive_f1, naive_model) = naive_dt_grid(&x_train, &y_train, &x_val, &y_val);
    let fast = hpo::grid_search(ModelKind::DecisionTree, &x_train, &y_train, &x_val, &y_val);
    let grid_identical = fast.spec == naive_spec
        && fast.val_f1.to_bits() == naive_f1.to_bits()
        && fast.evaluations == hpo::grid(ModelKind::DecisionTree).len()
        && fast.model.predict(&x_val) == naive_model.predict(&x_val)
        && fast.model.predict(&x_train) == naive_model.predict(&x_train);
    if !grid_identical {
        eprintln!("[dfs-bench] fatal: truncated DT grid diverged from independent fits");
    }
    gate_ok &= grid_identical;
    let grid_naive_ns = median_ns(reps, || {
        let (_, f1, _) = naive_dt_grid(&x_train, &y_train, &x_val, &y_val);
        assert!(f1.is_finite());
    });
    let grid_fast_ns = median_ns(reps, || {
        let r = hpo::grid_search(ModelKind::DecisionTree, &x_train, &y_train, &x_val, &y_val);
        assert!(r.val_f1.is_finite());
    });

    // 3. Forest fit + batch predict through the pooled-workspace path.
    let cfg = ForestConfig::default();
    let forest_fit_ns = median_ns(forest_reps, || {
        let f = RandomForest::fit(&x_train, &y_train, &cfg);
        assert_eq!(f.n_trees(), cfg.n_trees);
    });
    let forest = RandomForest::fit(&x_train, &y_train, &cfg);
    let predict_rows = x_val.nrows().max(1);
    let forest_predict_ns = median_ns(reps, || {
        let preds = forest.predict(&x_val);
        assert_eq!(preds.len(), predict_rows);
    });

    // 4. Scale cell: the streamed generator feeds a wide synthetic corpus
    //    (million_row_spec shape), and the binned kernel is raced against
    //    the presorted reference. 80% of the rows train, the last 20% are
    //    the F1 holdout (scored row-by-row, never gathered).
    let mut scale_spec = million_row_spec();
    scale_spec.rows = scale_rows;
    let scale_seed = 77;
    let scale = generate_streamed_collect(&scale_spec, scale_seed, 8192);
    // Block-size invariance gate: regenerating with a misaligned block
    // size must reproduce the corpus bit-for-bit.
    let streamed_identical = {
        let alt = generate_streamed_collect(&scale_spec, scale_seed, 999);
        alt.x == scale.x && alt.y == scale.y
    };
    if !streamed_identical {
        eprintln!("[dfs-bench] fatal: streamed generation is not block-size invariant");
    }
    gate_ok &= streamed_identical;
    let scale_d = scale.x.ncols();
    let scale_train = (scale.x.nrows() * 4) / 5;
    let scale_cols: Vec<usize> = (0..scale_d).collect();
    let scale_train_rows: Vec<usize> = (0..scale_train).collect();
    let x_scale = scale.x.select_rows_cols(&scale_train_rows, &scale_cols);
    let y_scale = &scale.y[..scale_train];
    let holdout_f1 = |t: &DecisionTree| {
        let preds: Vec<bool> = scale
            .x
            .rows_iter()
            .skip(scale_train)
            .map(|row| t.predict_one(row))
            .collect();
        dfs_metrics::f1_score(&preds, &scale.y[scale_train..])
    };
    let scale_reps = if smoke { 1 } else { 3 };
    let scale_presorted_f1 = holdout_f1(&fit_presorted(&x_scale, y_scale, GRID_DEPTH));
    let scale_presorted_ns = median_ns(scale_reps, || {
        let t = fit_presorted(&x_scale, y_scale, GRID_DEPTH);
        assert!(t.n_nodes() > 0);
    });
    let mut ws = TreeWorkspace::new();
    let scale_bins = std::sync::Arc::new(BinSet::derive(&x_scale));
    ws.bind_bins(&scale_bins, &scale_cols, &scale_train_rows);
    let scale_binned_f1 = holdout_f1(&DecisionTree::fit_in(&x_scale, y_scale, GRID_DEPTH, &mut ws));
    let scale_binned_ns = median_ns(scale_reps, || {
        let t = DecisionTree::fit_in(&x_scale, y_scale, GRID_DEPTH, &mut ws);
        assert!(t.n_nodes() > 0);
    });
    // Quality gate: the binned kernel must hold F1 parity with the
    // presorted reference on the holdout at any row count.
    let scale_f1_ok = (scale_binned_f1 - scale_presorted_f1).abs() <= F1_TOLERANCE;
    if !scale_f1_ok {
        eprintln!(
            "[dfs-bench] fatal: scale-cell F1 parity broken (presorted {scale_presorted_f1:.4}, \
             binned {scale_binned_f1:.4})"
        );
    }
    gate_ok &= scale_f1_ok;
    let scale_speedup = scale_presorted_ns as f64 / scale_binned_ns.max(1) as f64;
    if !smoke && scale_speedup < MIN_SCALE_SPEEDUP {
        eprintln!(
            "[dfs-bench] fatal: binned kernel speedup {scale_speedup:.2}x over presorted \
             at {scale_rows} rows is below the {MIN_SCALE_SPEEDUP}x gate"
        );
        gate_ok = false;
    }

    // 5. Million-row watchdog cell (full runs only): one binned fit at
    //    10^6 streamed rows, timed once — proof the kernel holds at the
    //    paper-motivating scale, not a median.
    let million_ns: Option<u64> = (!smoke).then(|| {
        let m = generate_streamed_collect(&million_row_spec(), scale_seed, 8192);
        let cols: Vec<usize> = (0..m.x.ncols()).collect();
        let rows_all: Vec<usize> = (0..m.x.nrows()).collect();
        let mut ws = TreeWorkspace::new();
        ws.bind_bins(&std::sync::Arc::new(BinSet::derive(&m.x)), &cols, &rows_all);
        let t = Instant::now();
        let tree = DecisionTree::fit_in(&m.x, &m.y, GRID_DEPTH, &mut ws);
        let ns = t.elapsed().as_nanos() as u64;
        assert!(tree.n_nodes() > 0);
        ns
    });

    let mut json = String::new();
    let _ = write!(
        json,
        r#"{{
  "bench": "tree_kernel",
  {stamp},
  "smoke": {smoke},
  "corpus": {{ "dataset": "german_credit", "train_rows": {n}, "features": {d} }},
  "tree_fit": {{
    "max_depth": {GRID_DEPTH},
    "naive_ns": {fit_naive_ns},
    "presorted_ns": {fit_presorted_ns},
    "binned_ns": {fit_binned_ns},
    "presorted_speedup_vs_naive": {presorted_vs_naive:.2},
    "binned_speedup_vs_naive": {binned_vs_naive:.2},
    "binned_speedup_vs_presorted": {binned_vs_presorted:.2}
  }},
  "kernel_agreement": {{
    "presorted_bit_identical_to_naive": {presorted_exact},
    "val_f1_presorted": {f1_presorted:.4},
    "val_f1_binned": {f1_binned:.4},
    "binned_vs_presorted_val_f1_delta": {f1_delta:.4},
    "f1_tolerance": {F1_TOLERANCE}
  }},
  "dt_hpo_grid": {{
    "grid_points": 7,
    "evaluations_reported": {evals},
    "independent_fits_ns": {grid_naive_ns},
    "truncated_ns": {grid_fast_ns},
    "speedup": {grid_speedup:.2}
  }},
  "forest_fit": {{
    "n_trees": {n_trees},
    "max_depth": {forest_depth},
    "fit_ns": {forest_fit_ns}
  }},
  "forest_predict": {{
    "rows": {predict_rows},
    "batch_ns": {forest_predict_ns},
    "ns_per_row": {per_row}
  }},
  "scale_cell": {{
    "rows": {scale_rows},
    "train_rows": {scale_train},
    "features": {scale_d},
    "streamed_block_invariant": {streamed_identical},
    "presorted_ns": {scale_presorted_ns},
    "binned_ns": {scale_binned_ns},
    "binned_speedup_vs_presorted": {scale_speedup:.2},
    "holdout_f1": {{
      "presorted": {scale_presorted_f1:.4},
      "binned": {scale_binned_f1:.4}
    }}
  }},
  "million_row": {{
    "rows": 1000000,
    "binned_ns": {million_json}
  }},
  "gates_passed": {gate_ok}
}}
"#,
        presorted_vs_naive = fit_naive_ns as f64 / fit_presorted_ns.max(1) as f64,
        binned_vs_naive = fit_naive_ns as f64 / fit_binned_ns.max(1) as f64,
        evals = fast.evaluations,
        grid_speedup = grid_naive_ns as f64 / grid_fast_ns.max(1) as f64,
        n_trees = cfg.n_trees,
        forest_depth = cfg.max_depth,
        per_row = forest_predict_ns / predict_rows as u64,
        million_json = million_ns.map_or_else(|| "null".to_string(), |ns| ns.to_string()),
    );

    print!("{json}");
    if !gate_ok {
        std::process::exit(1);
    }
    if let Some(path) = out_path {
        ok_or_exit(
            std::fs::write(&path, &json)
                .map_err(|source| DfsError::Io { path: PathBuf::from(&path), source }),
        );
        eprintln!("wrote {path}");
    }
}
