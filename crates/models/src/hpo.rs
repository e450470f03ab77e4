//! Grid-search hyperparameter optimization.
//!
//! Mirrors the paper's § 6.1: "For HPO, we optimize for F1 score using grid
//! search. For LR, we optimize the regularization strength
//! C ∈ {10^n | n ∈ [−2:3]}. For NB, we optimize the smoothing variable
//! var_smoothing ∈ [1e−12 : 1e−6]. For DT, we optimize the maximum tree
//! depth td ∈ \[1:7\]."

use crate::tree::{DecisionTree, TreeWorkspace};
use crate::{ModelKind, ModelSpec, TrainedModel};
use dfs_exec::Executor;
use dfs_linalg::{Cells, ColumnView, Matrix};
use dfs_metrics::f1_score;

/// The paper's hyperparameter grid for a model family.
pub fn grid(kind: ModelKind) -> Vec<ModelSpec> {
    match kind {
        ModelKind::LogisticRegression => {
            (-2..=3).map(|n| ModelSpec::Lr { c: 10f64.powi(n) }).collect()
        }
        ModelKind::GaussianNb => {
            // Log-spaced 1e-12 .. 1e-6 (7 points).
            (-12..=-6).map(|n| ModelSpec::Nb { var_smoothing: 10f64.powi(n) }).collect()
        }
        ModelKind::DecisionTree => (1..=7).map(|d| ModelSpec::Dt { max_depth: d }).collect(),
        ModelKind::LinearSvm => (-2..=3).map(|n| ModelSpec::Svm { c: 10f64.powi(n) }).collect(),
    }
}

/// Result of a grid search.
#[derive(Debug, Clone)]
pub struct HpoResult {
    /// The winning hyperparameters.
    pub spec: ModelSpec,
    /// The model retrained with the winning hyperparameters.
    pub model: TrainedModel,
    /// Validation F1 of the winner.
    pub val_f1: f64,
    /// Number of grid points evaluated.
    pub evaluations: usize,
}

/// Grid-searches a model family, optimizing validation F1.
///
/// Trains each grid point on `(x_train, y_train)`, scores on
/// `(x_val, y_val)`, returns the best. Ties keep the earlier (more
/// regularized / simpler) grid point, matching grid-search convention.
pub fn grid_search(
    kind: ModelKind,
    x_train: &Matrix,
    y_train: &[bool],
    x_val: &Matrix,
    y_val: &[bool],
) -> HpoResult {
    grid_search_with(kind, x_train, y_train, x_val, y_val, &Executor::sequential())
}

/// [`grid_search`] with grid points fitted through a shared [`Executor`].
///
/// Grid fits are deterministic (no RNG), so the only parallel obligation
/// is the ordered reduction: candidates are scored per-spec and then
/// folded *in grid order* with the sequential strictly-better rule, which
/// keeps tie-breaking (earlier grid point wins) bit-identical at any
/// thread count.
pub fn grid_search_with(
    kind: ModelKind,
    x_train: &Matrix,
    y_train: &[bool],
    x_val: &Matrix,
    y_val: &[bool],
    exec: &Executor,
) -> HpoResult {
    let cols: Vec<usize> = (0..x_val.ncols()).collect();
    let x_val = ColumnView::new(x_val, &cols);
    grid_search_ws(kind, x_train, y_train, &x_val, y_val, exec, &mut TreeWorkspace::new())
}

/// [`grid_search_with`] with tree fits routed through a caller-owned
/// [`TreeWorkspace`] (the scenario engine keeps one per evaluation slot),
/// scoring on a validation split read in place through the subset's
/// column map. Decision trees take [`dt_grid_search_ws`].
pub fn grid_search_ws(
    kind: ModelKind,
    x_train: &Matrix,
    y_train: &[bool],
    x_val: &ColumnView<'_>,
    y_val: &[bool],
    exec: &Executor,
    ws: &mut TreeWorkspace,
) -> HpoResult {
    if kind == ModelKind::DecisionTree {
        return dt_grid_search_ws(x_train, y_train, x_val, y_val, ws);
    }
    let specs = grid(kind);
    let evaluations = specs.len();
    // Span and counter at the grid level only — per-spec fits may run on
    // collector-less helper threads and record nothing, by design.
    let _g = dfs_obs::span("hpo.grid");
    dfs_obs::counter("hpo.grid_points", evaluations as u64);
    let mut scored = exec.par_map_indexed(&specs, |_, spec| {
        let model = spec.fit(x_train, y_train);
        let f1 = f1_score(&model.predict_view(x_val), y_val);
        (f1, model)
    });
    let (val_f1, i) = best_by_f1(scored.iter().map(|(f1, _)| *f1));
    let model = scored.swap_remove(i).1;
    HpoResult { spec: specs[i].clone(), model, val_f1, evaluations }
}

/// The grid fold: the first point with the highest F1 (later points must
/// be strictly better to win). Returns `(f1, index)`.
fn best_by_f1(f1s: impl Iterator<Item = f64>) -> (f64, usize) {
    let mut best: Option<(f64, usize)> = None;
    for (i, f1) in f1s.enumerate() {
        if best.is_none_or(|(best_f1, _)| f1 > best_f1) {
            best = Some((f1, i));
        }
    }
    let Some(best) = best else {
        unreachable!("grid(kind) always returns at least one spec");
    };
    best
}

/// The DT depth grid, scored from one deep fit.
///
/// The grid is *not* fitted point by point: greedy CART's split sequence
/// does not depend on `max_depth` (depth only gates stopping), so the
/// deepest grid tree is fitted once. One root-to-leaf walk per validation
/// row labels the row at every depth
/// ([`DeepTree::predict_by_depth`](crate::tree::DeepTree::predict_by_depth)),
/// and only the winning depth is materialized by O(nodes) truncation
/// ([`DeepTree::truncate`](crate::tree::DeepTree::truncate)). The result
/// is bit-identical to the 7 independent fits the naive loop performs —
/// same winning `spec`, same `val_f1` bits, same predictions — and
/// `evaluations` still reports every grid point scored.
///
/// `x_train` is any [`Cells`] source, so a binned fit with bins bound in
/// `ws` may read the train split in place. Runs sequentially on the
/// calling thread, which also makes it safe to record the fit-level tree
/// counters here.
pub fn dt_grid_search_ws<X: Cells>(
    x_train: &X,
    y_train: &[bool],
    x_val: &ColumnView<'_>,
    y_val: &[bool],
    ws: &mut TreeWorkspace,
) -> HpoResult {
    let specs = grid(ModelKind::DecisionTree);
    let evaluations = specs.len();
    let _g = dfs_obs::span("hpo.grid");
    dfs_obs::counter("hpo.grid_points", evaluations as u64);
    let depths: Vec<usize> = specs
        .iter()
        .map(|spec| match spec {
            ModelSpec::Dt { max_depth } => *max_depth,
            other => unreachable!("DT grid holds only Dt specs, found {other:?}"),
        })
        .collect();
    let deepest = depths.iter().copied().max().unwrap_or(1);
    let deep = DecisionTree::fit_deep_in(x_train, y_train, deepest, ws);
    deep.stats().record();
    // labels[c - 1] holds the depth-c tree's predictions.
    let mut labels = vec![Vec::with_capacity(x_val.nrows()); deepest];
    let mut row_labels = vec![false; deepest];
    for row in x_val.rows_iter() {
        deep.predict_by_depth(row, &mut row_labels);
        for (col, &label) in labels.iter_mut().zip(&row_labels) {
            col.push(label);
        }
    }
    let (val_f1, i) =
        best_by_f1(depths.iter().map(|&depth| f1_score(&labels[depth - 1], y_val)));
    let model = TrainedModel::Dt(deep.truncate(depths[i]));
    HpoResult { spec: specs[i].clone(), model, val_f1, evaluations }
}

/// Fits a model either with default hyperparameters or with grid-search HPO,
/// matching the two arms of the paper's Table 3.
pub fn fit_maybe_hpo(
    kind: ModelKind,
    hpo: bool,
    x_train: &Matrix,
    y_train: &[bool],
    x_val: &Matrix,
    y_val: &[bool],
) -> (ModelSpec, TrainedModel) {
    if hpo {
        let result = grid_search(kind, x_train, y_train, x_val, y_val);
        (result.spec, result.model)
    } else {
        let spec = ModelSpec::default_for(kind);
        let mut ws = TreeWorkspace::new();
        let model = spec.fit_ws(x_train, y_train, &mut ws);
        if kind == ModelKind::DecisionTree {
            ws.last_stats().record();
        }
        (spec, model)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grids_match_paper() {
        let lr = grid(ModelKind::LogisticRegression);
        assert_eq!(lr.len(), 6);
        assert_eq!(lr[0], ModelSpec::Lr { c: 0.01 });
        assert_eq!(lr[5], ModelSpec::Lr { c: 1000.0 });

        let nb = grid(ModelKind::GaussianNb);
        assert_eq!(nb.len(), 7);
        assert_eq!(nb[0], ModelSpec::Nb { var_smoothing: 1e-12 });
        assert_eq!(nb[6], ModelSpec::Nb { var_smoothing: 1e-6 });

        let dt = grid(ModelKind::DecisionTree);
        assert_eq!(dt.len(), 7);
        assert_eq!(dt[0], ModelSpec::Dt { max_depth: 1 });
        assert_eq!(dt[6], ModelSpec::Dt { max_depth: 7 });
    }

    fn xorish() -> (Matrix, Vec<bool>) {
        let mut rows = Vec::new();
        let mut y = Vec::new();
        for i in 0..160 {
            let a = ((i % 2) as f64) * 0.8 + 0.05 * ((i as f64 * 0.37) % 1.0);
            let b = (((i / 2) % 2) as f64) * 0.8 + 0.05 * ((i as f64 * 0.73) % 1.0);
            rows.push(vec![a, b]);
            y.push((a > 0.4) != (b > 0.4));
        }
        (Matrix::from_rows(&rows), y)
    }

    #[test]
    fn hpo_beats_underfit_default_on_xor() {
        let (x, y) = xorish();
        let (x_train, y_train) = (x.select_rows(&(0..120).collect::<Vec<_>>()), y[..120].to_vec());
        let (x_val, y_val) = (x.select_rows(&(120..160).collect::<Vec<_>>()), y[120..].to_vec());
        let result = grid_search(ModelKind::DecisionTree, &x_train, &y_train, &x_val, &y_val);
        // Depth 1 cannot solve XOR, the grid must pick depth >= 2.
        match result.spec {
            ModelSpec::Dt { max_depth } => assert!(max_depth >= 2, "picked depth {max_depth}"),
            other => panic!("unexpected spec {other:?}"),
        }
        assert!(result.val_f1 > 0.9, "val f1 {}", result.val_f1);
        assert_eq!(result.evaluations, 7);
    }

    #[test]
    fn parallel_grid_search_matches_sequential() {
        let (x, y) = xorish();
        let (x_train, y_train) = (x.select_rows(&(0..120).collect::<Vec<_>>()), y[..120].to_vec());
        let (x_val, y_val) = (x.select_rows(&(120..160).collect::<Vec<_>>()), y[120..].to_vec());
        for kind in [ModelKind::DecisionTree, ModelKind::LogisticRegression] {
            let seq = grid_search(kind, &x_train, &y_train, &x_val, &y_val);
            let par = grid_search_with(
                kind,
                &x_train,
                &y_train,
                &x_val,
                &y_val,
                &Executor::new(4),
            );
            assert_eq!(seq.spec, par.spec);
            assert_eq!(seq.val_f1.to_bits(), par.val_f1.to_bits());
            assert_eq!(seq.evaluations, par.evaluations);
        }
    }

    #[test]
    fn truncated_dt_grid_matches_independent_fits() {
        // The production DT grid path fits the deepest tree once and
        // truncates; this replays the pre-truncation loop (one full fit per
        // grid point, same fold rule) and demands bit-identical results.
        let (x, y) = xorish();
        let (x_train, y_train) = (x.select_rows(&(0..120).collect::<Vec<_>>()), y[..120].to_vec());
        let (x_val, y_val) = (x.select_rows(&(120..160).collect::<Vec<_>>()), y[120..].to_vec());

        let specs = grid(ModelKind::DecisionTree);
        let mut best: Option<(f64, ModelSpec, TrainedModel)> = None;
        for spec in &specs {
            let model = spec.fit(&x_train, &y_train);
            let f1 = f1_score(&model.predict(&x_val), &y_val);
            let better = best.as_ref().map(|(b, _, _)| f1 > *b).unwrap_or(true);
            if better {
                best = Some((f1, spec.clone(), model));
            }
        }
        let (naive_f1, naive_spec, naive_model) = best.expect("non-empty grid");

        let fast = grid_search(ModelKind::DecisionTree, &x_train, &y_train, &x_val, &y_val);
        assert_eq!(fast.spec, naive_spec);
        assert_eq!(fast.val_f1.to_bits(), naive_f1.to_bits());
        assert_eq!(fast.evaluations, specs.len());
        assert_eq!(fast.model.predict(&x_val), naive_model.predict(&x_val));
        assert_eq!(fast.model.predict(&x_train), naive_model.predict(&x_train));
    }

    #[test]
    fn fit_maybe_hpo_dispatches() {
        let (x, y) = xorish();
        let (spec_default, _) =
            fit_maybe_hpo(ModelKind::DecisionTree, false, &x, &y, &x, &y);
        assert_eq!(spec_default, ModelSpec::default_for(ModelKind::DecisionTree));
        let (spec_hpo, model) = fit_maybe_hpo(ModelKind::DecisionTree, true, &x, &y, &x, &y);
        assert!(matches!(spec_hpo, ModelSpec::Dt { .. }));
        assert_eq!(model.predict(&x).len(), x.nrows());
    }
}
