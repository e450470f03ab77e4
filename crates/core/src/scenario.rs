//! ML scenarios and the subset evaluator that powers every strategy.

use crate::artifacts::{
    ranking_seed, split_fingerprint, subset_bits, ArtifactCache, EvalKey, EvalMemo,
};
use crate::exec::Executor;
use crate::perf::EvalPerf;
use dfs_constraints::{ConstraintSet, Evaluation};
use dfs_data::split::Split;
use dfs_fs::SubsetEvaluator;
use dfs_linalg::rng::derive_seed;
use dfs_linalg::{ColumnView, Matrix};
use dfs_metrics::{empirical_safety_with, equal_opportunity, f1_score, AttackConfig};
use dfs_models::hpo::{dt_grid_search_ws, grid_search_ws};
use dfs_models::importance::importance_or_permutation;
use dfs_models::tree::{DecisionTree, TreeWorkspace};
use dfs_models::{BinSet, BinView, ModelKind, ModelSpec, TrainedModel};
use dfs_obs as obs;
use dfs_rankings::{Ranking, RankingKind};
use dfs_search::Budget;
use std::collections::HashMap;
use std::sync::Arc;

/// A fully specified ML scenario `Z = (φ, D, D_train, D_val, D_test, C)`.
#[derive(Debug, Clone)]
pub struct MlScenario {
    /// Dataset name (for reporting; the data itself travels as a [`Split`]).
    pub dataset: String,
    /// Classification model family φ.
    pub model: ModelKind,
    /// Whether hyperparameters are grid-searched per evaluation (the two
    /// arms of Table 3) .
    pub hpo: bool,
    /// The declared constraint set `C`.
    pub constraints: ConstraintSet,
    /// Eq. 2 mode: once constraints hold, keep maximizing F1.
    pub utility_f1: bool,
    /// Seed for all stochastic components of this scenario.
    pub seed: u64,
}

/// Execution knobs that are *not* part of the declared scenario: evaluation
/// caps (determinism), attack budget, subsample sizes.
#[derive(Debug, Clone)]
pub struct ScenarioSettings {
    /// Hard cap on wrapper evaluations (besides the wall-clock constraint).
    pub max_evals: usize,
    /// Evasion-attack budget for the Min Safety metric.
    pub attack: AttackConfig,
    /// Cap on training rows per model fit (subsampling keeps the
    /// reproduction laptop-scale; 0 = no cap).
    pub max_train_rows: usize,
    /// Cheap-first lower-bound short-circuit: when a candidate's cheap
    /// Eq. 1 terms already exceed the caller's incumbent, skip the evasion
    /// attack (and answer with the proven lower bound). Sound by the
    /// additivity of the distance — see DESIGN.md § 4h. Ignored in
    /// utility mode, where scores can be negative.
    pub bound_pruning: bool,
}

impl ScenarioSettings {
    /// Benchmark-scale defaults.
    pub fn default_bench() -> Self {
        Self {
            max_evals: 400,
            attack: AttackConfig { max_points: 16, ..AttackConfig::default() },
            max_train_rows: 600,
            bound_pruning: true,
        }
    }

    /// Tiny budgets for unit tests and doc examples.
    pub fn fast() -> Self {
        Self {
            max_evals: 60,
            attack: AttackConfig { max_points: 6, init_trials: 8, seed: 0 },
            max_train_rows: 200,
            bound_pruning: true,
        }
    }
}

/// Fingerprint of everything besides the subset that determines a
/// measured [`Evaluation`]: it keys the shared [`EvalMemo`] so a context
/// rebuilt with different settings (row cap, attack budget, metric set,
/// seed, …) can never serve another configuration's entry.
///
/// Every field of the scenario and the settings is destructured without
/// `..`, so a new field fails to compile until it is either mixed in or
/// given the reason it cannot change a measurement.
pub fn settings_fingerprint(
    scenario: &MlScenario,
    settings: &ScenarioSettings,
    train_cap: usize,
) -> u64 {
    let MlScenario {
        // The memo key carries the dataset next to the split fingerprint.
        dataset: _,
        model,
        hpo,
        constraints,
        // Scoring only: utility mode ranks the same measurements differently.
        utility_f1: _,
        seed,
    } = scenario;
    let ConstraintSet {
        // Thresholds shape the distance, never the measurement.
        min_f1: _,
        // The search budget, not a measurement input.
        max_search_time: _,
        // A distance term (and the pruning that skips measuring) only.
        max_feature_frac: _,
        min_eo,
        min_safety,
        privacy_epsilon,
    } = constraints;
    let ScenarioSettings {
        // The evaluation budget, not a measurement input.
        max_evals: _,
        attack: AttackConfig { max_points, init_trials, seed: attack_seed },
        // Enters as `train_cap`, the effective row cap of this split.
        max_train_rows: _,
        // Bounded (short-circuited) measurements never enter the memo.
        bound_pruning: _,
    } = settings;

    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut mix = |v: u64| {
        h = (h ^ v).wrapping_mul(0x100_0000_01b3);
    };
    for b in model.short_name().bytes() {
        mix(b as u64);
    }
    mix(*hpo as u64);
    mix(*seed);
    match privacy_epsilon {
        Some(eps) => {
            mix(1);
            mix(eps.to_bits());
        }
        None => mix(0),
    }
    // Which metrics are measured at all, not their thresholds.
    mix(min_eo.is_some() as u64);
    mix(min_safety.is_some() as u64);
    mix(*max_points as u64);
    mix(*init_trials as u64);
    mix(*attack_seed);
    mix(train_cap as u64);
    h
}

/// Cached result of one wrapper evaluation.
#[derive(Debug, Clone)]
struct CachedEval {
    score: f64,
    eval: Evaluation,
    /// `true` when the score came from the evaluation-independent pruning
    /// shortcut (no model was trained).
    pruned: bool,
    /// `true` when `score` is only a proven *lower bound* on the true
    /// objective (the evasion attack was short-circuited). A bounded entry
    /// may answer a later query whose incumbent it still exceeds; any other
    /// use upgrades it to an exact measurement first.
    bounded: bool,
}

/// The wrapper evaluator for one scenario: trains the scenario's model on a
/// candidate feature subset and measures every constrained metric on the
/// validation split. Implements [`SubsetEvaluator`] for the strategies.
///
/// Behaviour mandated by the paper:
/// - **Evaluation-independent pruning** (Table 1): subsets violating the
///   Max Feature Set Size constraint are scored *without* training and
///   without consuming budget;
/// - **DP by construction**: when ε is declared, the DP model variant is
///   trained, so Min Privacy never appears in the distance;
/// - **Caching**: repeated proposals of the same subset are free (the
///   reference implementation caches evaluations the same way).
pub struct ScenarioContext<'a> {
    scenario: &'a MlScenario,
    split: &'a Split,
    settings: &'a ScenarioSettings,
    budget: Budget,
    cache: HashMap<Vec<usize>, CachedEval>,
    importance_cache: HashMap<Vec<usize>, Vec<f64>>,
    train_rows: Vec<usize>,
    /// Subsampled labels, gathered once — every evaluation reuses them.
    y_train: Vec<bool>,
    /// Scratch of the serial path (measurements and RFE importances):
    /// after warm-up, an evaluation performs no matrix allocation at all
    /// (O(1) steady-state allocation).
    scratch: Scratch,
    perf: EvalPerf,
    artifacts: Option<Arc<ArtifactCache>>,
    /// Cross-arm subset-evaluation memo (shared like `artifacts`).
    memo: Option<Arc<EvalMemo>>,
    split_key: u64,
    /// [`settings_fingerprint`] of this context's configuration — part of
    /// every memo key, so a context rebuilt with different settings can
    /// never serve a stale entry.
    settings_key: u64,
    exec: Arc<Executor>,
    /// Dataset-level histogram bins for the binned tree kernel, resolved
    /// lazily on the first DT fit (from the artifact cache when attached,
    /// derived locally otherwise) and shared by every fit of this context.
    bins: std::sync::OnceLock<Arc<BinSet>>,
}

/// Per-measurement scratch. The context keeps one set for the serial
/// path; batch workers each build their own so measurements never share
/// mutable state.
#[derive(Default)]
struct Scratch {
    train: Matrix,
    tree: TreeWorkspace,
}

/// The shared, immutable inputs of one subset measurement — everything
/// [`measure_subset`] needs besides its own scratch space and counters.
/// `Sync` by construction, so batch evaluation can fan measurements out
/// over the executor.
struct MeasureEnv<'a> {
    scenario: &'a MlScenario,
    split: &'a Split,
    settings: &'a ScenarioSettings,
    train_rows: &'a [usize],
    y_train: &'a [bool],
    exec: &'a Executor,
    /// Dataset-level bin set for DT fits (`None` for other models). DP
    /// scenarios reuse the same codes through the bit-identical
    /// [`BinView`] partition path of the DP random tree.
    bins: Option<&'a Arc<BinSet>>,
}

/// The training features of one fit.
enum TrainX<'a> {
    /// The train split read in place through the subset's column map.
    InPlace(ColumnView<'a>),
    /// A gathered copy of the subset's train columns.
    Gathered(&'a Matrix),
}

impl<'a> TrainX<'a> {
    /// The gathered copy. Only tree fits read in place, so every other
    /// fit has one.
    fn gathered(&self) -> &'a Matrix {
        match self {
            TrainX::Gathered(x) => x,
            TrainX::InPlace(_) => unreachable!("only tree fits read the train split in place"),
        }
    }
}

/// The training features of a fit on `subset`. With `in_place` (DT fits
/// without DP), the train split is read where it lies: the kernel trains
/// from the bound bin codes and reads raw values only in its `x <= t`
/// fallback, which compares the same doubles through the column map.
/// Every other fit (LR/NB/SVM, DP trees) gets a fused row-subsample and
/// column-projection into `buf`, under the `gather` span.
fn train_features<'a>(
    env: &MeasureEnv<'a>,
    subset: &'a [usize],
    in_place: bool,
    buf: &'a mut Matrix,
) -> TrainX<'a> {
    let x = &env.split.train.x;
    if in_place {
        return TrainX::InPlace(ColumnView::head(x, env.train_rows.len(), subset));
    }
    obs::heartbeat("eval.gather");
    let _gather_span = obs::span("gather");
    x.select_rows_cols_into(env.train_rows, subset, buf);
    TrainX::Gathered(buf)
}

/// Binds `ws` to the dataset bins for one DT fit on `subset`. The binding
/// must be refreshed per fit: the subset changes every call and the
/// binding is sticky.
fn arm_tree(env: &MeasureEnv<'_>, subset: &[usize], ws: &mut TreeWorkspace) {
    match env.bins {
        Some(b) => ws.bind_bins(b, subset, env.train_rows),
        None => ws.clear_bins(),
    }
}

/// The default-parameter fit of the scenario's model (no HPO, no DP): the
/// tree through the caller's workspace, in place when `x` is.
fn fit_default(
    kind: ModelKind,
    x: &TrainX<'_>,
    y: &[bool],
    ws: &mut TreeWorkspace,
) -> TrainedModel {
    let spec = ModelSpec::default_for(kind);
    let model = match (x, &spec) {
        (TrainX::InPlace(view), ModelSpec::Dt { max_depth }) => {
            TrainedModel::Dt(DecisionTree::fit_in(view, y, *max_depth, ws))
        }
        _ => spec.fit_ws(x.gathered(), y, ws),
    };
    if kind == ModelKind::DecisionTree {
        ws.last_stats().record();
    }
    model
}

/// Trains the scenario's model on a subset (train split only). `hpo_val`
/// carries the validation split, read through the subset's column map,
/// when (and only when) the fit grid-searches on it — under HPO without
/// DP.
fn train_subset(
    env: &MeasureEnv<'_>,
    subset: &[usize],
    x_train: &TrainX<'_>,
    hpo_val: Option<(&ColumnView<'_>, &[bool])>,
    tree_ws: &mut TreeWorkspace,
    perf: &mut EvalPerf,
) -> TrainedModel {
    perf.model_fits += 1;
    let kind = env.scenario.model;
    if kind == ModelKind::DecisionTree {
        arm_tree(env, subset, tree_ws);
    }
    if let Some(eps) = env.scenario.constraints.privacy_epsilon {
        // DP variant; HPO would multiply the privacy spend, so DP training
        // always uses default hyperparameters (one train run per
        // evaluation — the paper's setting trains the DP alternative of
        // the chosen model). The DP random tree partitions from the
        // scenario's bin codes when they exist — bit-identical to the raw
        // compare, so the choice follows the split kernel without touching
        // any fingerprint.
        let spec = ModelSpec::default_for(kind);
        let dp_seed = derive_seed(env.scenario.seed, hash_subset(subset));
        let view = env.bins.map(|b| BinView::new(b, subset, env.train_rows));
        return spec.fit_dp_with(x_train.gathered(), env.y_train, eps, dp_seed, view);
    }
    if let Some((x_val, y_val)) = hpo_val {
        perf.hpo_grid_points += dfs_models::hpo::grid(kind).len() as u64;
        let result = match x_train {
            TrainX::InPlace(x) => dt_grid_search_ws(x, env.y_train, x_val, y_val, tree_ws),
            TrainX::Gathered(x) => {
                grid_search_ws(kind, x, env.y_train, x_val, y_val, env.exec, tree_ws)
            }
        };
        return result.model;
    }
    fit_default(kind, x_train, env.y_train, tree_ws)
}

/// Result of one (possibly bound-short-circuited) measurement.
struct Measured {
    eval: Evaluation,
    /// `false` when the lower-bound short-circuit fired: the unmeasured
    /// metrics carry optimistic placeholders (`1.0`) and the evaluation
    /// scores a *proven lower bound* on the true objective, not the true
    /// objective itself.
    exact: bool,
}

/// Full (train + measure on a given evaluation split) pass for a subset.
/// Used for both validation (during search) and test (confirmation), from
/// the serial path and from batch workers alike.
///
/// Gather-free where it can be: tree fits read the train split in
/// place (see [`train_features`]; every other fit gathers it into the
/// caller's scratch), and every model predicts the evaluation split — and
/// HPO scores the validation split — through the subset's column map.
/// Only the evasion attack, which needs contiguous probe rows, copies its
/// first `max_points` evaluation rows.
///
/// All randomness (DP noise, attack trajectories) derives from
/// `(scenario seed, subset hash)` — never from shared mutable RNG state —
/// so a measurement is a pure function of its inputs and the batch engine
/// may run it on any thread.
///
/// With `bound = Some(b)`, constraint terms are charged cheapest-first
/// (subset-only size term → fit-dependent accuracy/fairness → evasion
/// attack): whenever the Eq. 1 distance of the terms measured so far —
/// with every unmeasured metric at its optimistic maximum — already
/// exceeds `b`, the remaining (more expensive) work is skipped and the
/// partial evaluation is returned as a lower bound. Sound because the
/// distance is an additive sum of non-negative shortfalls (DESIGN.md
/// § 4h); never used for the signed utility objective.
fn measure_subset_bounded(
    env: &MeasureEnv<'_>,
    subset: &[usize],
    eval_on_test: bool,
    scratch: &mut Scratch,
    perf: &mut EvalPerf,
    bound: Option<f64>,
) -> Measured {
    let split = env.split;
    let constraints = &env.scenario.constraints;
    let dp = constraints.privacy_epsilon.is_some();
    obs::observe("eval.subset_size", subset.len() as u64);

    // Stage 0 (free): the feature-size term needs no model. When it alone
    // already exceeds the incumbent, skip the fit *and* the attack.
    if let Some(b) = bound {
        let optimistic = Evaluation {
            f1: 1.0,
            eo: constraints.needs_eo().then_some(1.0),
            safety: constraints.needs_safety().then_some(1.0),
            n_selected: subset.len(),
            n_total: split.n_features(),
        };
        if constraints.distance(&optimistic) > b {
            perf.bound_skips += 1;
            obs::counter("eval.bound_skip", 1);
            return Measured { eval: optimistic, exact: false };
        }
    }

    let in_place = env.bins.is_some() && !dp;
    let x_train = train_features(env, subset, in_place, &mut scratch.train);
    // HPO always scores on validation, never on test.
    let x_val = ColumnView::new(&split.val.x, subset);
    let hpo_val = (env.scenario.hpo && !dp).then_some((&x_val, split.val.y.as_slice()));

    obs::heartbeat("eval.fit");
    let fit_span = obs::span("fit");
    let model = train_subset(env, subset, &x_train, hpo_val, &mut scratch.tree, perf);
    drop(fit_span);

    let part = if eval_on_test { &split.test } else { &split.val };
    let x_eval = ColumnView::new(&part.x, subset);
    let y_eval = &part.y;
    let (preds, f1, eo) = {
        let _predict_span = obs::span("predict");
        let preds = model.predict_view(&x_eval);
        let f1 = f1_score(&preds, y_eval);
        let eo = constraints.needs_eo().then(|| equal_opportunity(&preds, y_eval, &part.protected));
        (preds, f1, eo)
    };

    // Stage 1 (cheap): accuracy and fairness are measured; the attack is
    // not. Re-check the bound with safety still at its optimistic maximum.
    if constraints.needs_safety() {
        if let Some(b) = bound {
            let partial = Evaluation {
                f1,
                eo,
                safety: Some(1.0),
                n_selected: subset.len(),
                n_total: split.n_features(),
            };
            if constraints.distance(&partial) > b {
                perf.bound_skips += 1;
                obs::counter("eval.bound_skip", 1);
                return Measured { eval: partial, exact: false };
            }
        }
    }

    let safety = constraints.needs_safety().then(|| {
        obs::heartbeat("eval.attack");
        let _attack_span = obs::span("attack");
        let mut cfg = env.settings.attack.clone();
        cfg.seed = derive_seed(env.scenario.seed, 0xA77AC4 ^ hash_subset(subset));
        // The attack reads the model's labels of the evaluation rows, not
        // the rows: it starts from the predictions made above.
        let predict = |row: &[f64]| model.predict_one(row);
        empirical_safety_with(&predict, &preds, y_eval, subset.len(), &cfg, env.exec)
    });
    let eval =
        Evaluation { f1, eo, safety, n_selected: subset.len(), n_total: split.n_features() };
    Measured { eval, exact: true }
}

/// RFE importances of a default-parameter fit on `subset`: the ranking
/// step is not HPO'd in the reference implementation either, and never
/// trains the DP variant. Trees fit in place; only NB's permutation
/// importance reads validation data, so only NB gathers it.
fn importances_of(
    env: &MeasureEnv<'_>,
    subset: &[usize],
    scratch: &mut Scratch,
    perf: &mut EvalPerf,
) -> Vec<f64> {
    let kind = env.scenario.model;
    let x_train = train_features(env, subset, env.bins.is_some(), &mut scratch.train);
    if kind == ModelKind::DecisionTree {
        arm_tree(env, subset, &mut scratch.tree);
    }
    let model = fit_default(kind, &x_train, env.y_train, &mut scratch.tree);
    perf.model_fits += 1;
    if let Some(scores) = model.feature_importance() {
        return scores;
    }
    env.split.val.x.select_cols_into(subset, &mut scratch.train);
    let seed = derive_seed(env.scenario.seed, 0x1339 ^ hash_subset(subset));
    importance_or_permutation(&model, &scratch.train, &env.split.val.y, seed)
}

/// [`measure_subset_bounded`] without bound: always exact. This is the
/// batch-worker entry point — batch measurements never carry bounds
/// (NSGA-II needs every objective).
fn measure_subset(
    env: &MeasureEnv<'_>,
    subset: &[usize],
    eval_on_test: bool,
    scratch: &mut Scratch,
    perf: &mut EvalPerf,
) -> Evaluation {
    measure_subset_bounded(env, subset, eval_on_test, scratch, perf, None).eval
}

impl<'a> ScenarioContext<'a> {
    /// Creates the evaluator; the budget clock starts now.
    pub fn new(scenario: &'a MlScenario, split: &'a Split, settings: &'a ScenarioSettings) -> Self {
        let budget = Budget::new(scenario.constraints.max_search_time, settings.max_evals);
        let n = split.train.n_rows();
        let cap = if settings.max_train_rows == 0 { n } else { settings.max_train_rows.min(n) };
        // Deterministic head of a stratified split is already shuffled
        // within strata; take a simple prefix for the train subsample.
        let train_rows: Vec<usize> = (0..cap).collect();
        let y_train: Vec<bool> = train_rows.iter().map(|&i| split.train.y[i]).collect();
        Self {
            scenario,
            split,
            settings,
            budget,
            cache: HashMap::new(),
            importance_cache: HashMap::new(),
            train_rows,
            y_train,
            scratch: Scratch::default(),
            perf: EvalPerf::default(),
            artifacts: None,
            memo: None,
            split_key: split_fingerprint(split),
            settings_key: settings_fingerprint(scenario, settings, cap),
            exec: Arc::new(Executor::sequential()),
            bins: std::sync::OnceLock::new(),
        }
    }

    /// Attaches a shared artifact cache (rankings computed once per
    /// benchmark row instead of once per arm).
    pub fn with_artifacts(mut self, artifacts: Arc<ArtifactCache>) -> Self {
        self.artifacts = Some(artifacts);
        self
    }

    /// Attaches a shared subset-evaluation memo: measurements become
    /// visible to (and reusable by) every other arm, row, and server
    /// request holding the same memo. Sound because a measurement is a
    /// pure function of `(settings fingerprint, split, subset)` — all
    /// stochastic seeds derive from that key, never from call order.
    pub fn with_memo(mut self, memo: Arc<EvalMemo>) -> Self {
        self.memo = Some(memo);
        self
    }

    /// Attaches a shared [`Executor`]; batched evaluations, HPO grids and
    /// attack loops then draw helper threads from its permit pool.
    /// Without this, everything runs sequentially inline.
    pub fn with_executor(mut self, exec: Arc<Executor>) -> Self {
        self.exec = exec;
        self
    }

    /// The scenario under evaluation.
    pub fn scenario(&self) -> &MlScenario {
        self.scenario
    }

    /// Evaluations consumed so far.
    pub fn evals_used(&self) -> usize {
        self.budget.evals_used()
    }

    /// Elapsed search time.
    pub fn elapsed(&self) -> std::time::Duration {
        self.budget.elapsed()
    }

    /// Work counters accumulated so far.
    pub fn perf(&self) -> EvalPerf {
        self.perf
    }

    /// The dataset-level bin set, when this context's fits consult bin
    /// codes at all (DT model): the histogram kernel for plain fits, and
    /// the bit-identical code-driven partition for DP random trees.
    /// Resolved once per context: through the shared artifact cache when
    /// attached — every arm, row, and server request on the same split
    /// then reuses one quantization — or derived locally otherwise.
    fn dataset_bins(&self) -> Option<&Arc<BinSet>> {
        if self.scenario.model != ModelKind::DecisionTree {
            return None;
        }
        Some(self.bins.get_or_init(|| match &self.artifacts {
            Some(cache) => {
                let (bins, hit) = cache.bins(&self.scenario.dataset, self.split_key, || {
                    let _g = obs::span("bins.derive");
                    BinSet::derive(&self.split.train.x)
                });
                obs::counter(if hit { "bins.hit" } else { "bins.derive" }, 1);
                bins
            }
            None => {
                obs::counter("bins.derive", 1);
                Arc::new(BinSet::derive(&self.split.train.x))
            }
        }))
    }

    /// The measurement environment borrowed out of this context (shared
    /// between the serial path and batch workers).
    fn env(&self) -> MeasureEnv<'_> {
        MeasureEnv {
            scenario: self.scenario,
            split: self.split,
            settings: self.settings,
            train_rows: &self.train_rows,
            y_train: &self.y_train,
            exec: &self.exec,
            bins: self.dataset_bins(),
        }
    }

    /// Serial measurement via [`measure_subset`], reusing the context's
    /// scratch buffers (no steady-state allocation).
    fn measure(&mut self, subset: &[usize], eval_on_test: bool) -> Evaluation {
        self.measure_full(subset, eval_on_test, None).eval
    }

    /// Runs `f` on the measurement environment with the context's scratch
    /// and counters, handing both back afterwards.
    fn with_scratch<R>(
        &mut self,
        f: impl FnOnce(&MeasureEnv<'_>, &mut Scratch, &mut EvalPerf) -> R,
    ) -> R {
        let mut scratch = std::mem::take(&mut self.scratch);
        let mut perf = self.perf;
        let r = f(&self.env(), &mut scratch, &mut perf);
        self.perf = perf;
        self.scratch = scratch;
        r
    }

    /// Serial measurement via [`measure_subset_bounded`], reusing the
    /// context's scratch buffers (no steady-state allocation).
    fn measure_full(&mut self, subset: &[usize], eval_on_test: bool, bound: Option<f64>) -> Measured {
        self.with_scratch(|env, scratch, perf| {
            measure_subset_bounded(env, subset, eval_on_test, scratch, perf, bound)
        })
    }

    /// The shared-memo key of a subset measurement in this context.
    fn memo_key(&self, subset: &[usize], eval_on_test: bool) -> EvalKey {
        EvalKey {
            dataset: self.scenario.dataset.clone(),
            split_key: self.split_key,
            settings_key: self.settings_key,
            eval_on_test,
            subset: subset_bits(subset, self.split.n_features()),
        }
    }

    /// Probes the shared memo (when attached) for an exact measurement.
    fn memo_lookup(&self, subset: &[usize], eval_on_test: bool) -> Option<Evaluation> {
        let memo = self.memo.as_ref()?;
        memo.lookup(&self.memo_key(subset, eval_on_test))
    }

    /// Publishes an exact measurement to the shared memo (when attached).
    fn memo_insert(&self, subset: &[usize], eval_on_test: bool, eval: Evaluation) {
        if let Some(memo) = &self.memo {
            memo.insert(self.memo_key(subset, eval_on_test), eval);
        }
    }

    /// Scores a subset against the constraint set (Eq. 1 / Eq. 2), without
    /// budget or caching concerns. Internal; use `evaluate`.
    fn objective_of(&self, eval: &Evaluation) -> f64 {
        if self.scenario.utility_f1 {
            self.scenario.constraints.objective(eval, &[eval.f1])
        } else {
            self.scenario.constraints.distance(eval)
        }
    }

    /// The measured metrics of the best evaluation of `subset` if it was
    /// evaluated during search. Bounded (attack-short-circuited) entries
    /// are withheld — their unmeasured metrics are placeholders, not
    /// measurements.
    pub fn cached_evaluation(&self, subset: &[usize]) -> Option<Evaluation> {
        self.cache.get(subset).filter(|c| !c.bounded).map(|c| c.eval)
    }

    /// Confirms a subset on the **test** split (the final workflow step).
    /// Does not consume search budget — the search is already over. With a
    /// shared memo attached, a confirmation already performed by another
    /// arm or request is served without retraining.
    pub fn confirm_on_test(&mut self, subset: &[usize]) -> (Evaluation, f64) {
        let eval = match self.memo_lookup(subset, true) {
            Some(eval) => {
                self.perf.memo_hits += 1;
                eval
            }
            None => {
                if self.memo.is_some() {
                    self.perf.memo_misses += 1;
                }
                let eval = self.measure(subset, true);
                self.memo_insert(subset, true, eval);
                eval
            }
        };
        let distance = self.scenario.constraints.distance(&eval);
        (eval, distance)
    }

    /// The per-constraint shortfall vector of a measured evaluation: one
    /// objective per declared constraint, in a fixed order
    /// `[accuracy, EO?, safety?, feature-size?]`, each component the
    /// squared shortfall (zero when satisfied). Shared by the serial and
    /// batched multi-objective paths.
    fn objectives_for(&self, eval: &Evaluation) -> Vec<f64> {
        let c = &self.scenario.constraints;
        let mut objectives = vec![sq_shortfall(eval.f1, c.min_f1)];
        if let Some(min_eo) = c.min_eo {
            objectives.push(sq_shortfall(eval.eo.unwrap_or(0.0), min_eo));
        }
        if let Some(min_safety) = c.min_safety {
            objectives.push(sq_shortfall(eval.safety.unwrap_or(0.0), min_safety));
        }
        if let Some(frac) = c.max_feature_frac {
            let used = eval.n_selected as f64 / eval.n_total.max(1) as f64;
            objectives.push(sq_shortfall(frac, used));
        }
        objectives
    }

    /// Pruned (evaluation-independent) scoring for over-cap subsets: no
    /// training, pessimistic metric placeholders, strong size gradient.
    fn pruned_score(&self, subset: &[usize]) -> (f64, Evaluation) {
        let c = &self.scenario.constraints;
        let eval = Evaluation {
            f1: 0.0,
            eo: c.needs_eo().then_some(0.0),
            safety: c.needs_safety().then_some(0.0),
            n_selected: subset.len(),
            n_total: self.split.n_features(),
        };
        (c.distance(&eval), eval)
    }

    /// The one serial evaluation flow behind `evaluate`,
    /// `evaluate_no_prune`, their `_bounded` variants and `evaluate_multi`:
    /// budget admission → cache → size pruning (`prune` only) → budget
    /// consumption → shared-memo probe → (possibly bounded) measurement.
    ///
    /// The wall clock gates *everything*, including cache hits and pruned
    /// evaluations — otherwise a strategy whose proposals are all pruned
    /// (e.g. TPE(NR) under a tight feature cap) would spin far past the
    /// declared Max Search Time doing "free" work.
    ///
    /// Budget discipline keeps trajectories bit-identical to the naive
    /// engine: memo hits consume budget exactly like the measurement they
    /// replace, and upgrading a bounded cache entry to an exact one is free
    /// exactly like the cache hit the naive engine would have served.
    fn evaluate_impl(
        &mut self,
        subset: &[usize],
        prune: bool,
        bound: Option<f64>,
    ) -> Option<(f64, Evaluation)> {
        if self.budget.exhausted() {
            return None;
        }
        // `free` = re-measure without consuming budget: a bounded entry is
        // being upgraded because the caller's incumbent no longer exceeds
        // its lower bound (or the caller needs exact metrics).
        let mut free = false;
        if let Some((score, eval, pruned, bounded)) =
            self.cache.get(subset).map(|c| (c.score, c.eval, c.pruned, c.bounded))
        {
            if bounded {
                if bound.is_some_and(|b| score > b) {
                    self.perf.cache_hits += 1;
                    obs::counter("eval.cache_hit", 1);
                    return Some((score, eval));
                }
                free = true;
            } else if prune || !pruned {
                // A full (trained) evaluation may always be reused; a
                // pruned shortcut only when the caller allows pruning.
                self.perf.cache_hits += 1;
                obs::counter("eval.cache_hit", 1);
                return Some((score, eval));
            }
        }
        if !free {
            // Evaluation-independent pruning (no budget *count*, no
            // training).
            if prune && subset.len() > self.max_features() {
                let (score, eval) = self.pruned_score(subset);
                self.cache
                    .insert(subset.to_vec(), CachedEval { score, eval, pruned: true, bounded: false });
                obs::counter("eval.pruned", 1);
                return Some((score, eval));
            }
            if !self.budget.try_consume() {
                obs::counter("eval.budget_denied", 1);
                return None;
            }
            if let Some(eval) = self.memo_lookup(subset, false) {
                self.perf.memo_hits += 1;
                let score = self.objective_of(&eval);
                self.cache
                    .insert(subset.to_vec(), CachedEval { score, eval, pruned: false, bounded: false });
                return Some((score, eval));
            }
            if self.memo.is_some() {
                self.perf.memo_misses += 1;
            }
        }
        // The short-circuit is only sound for the non-negative Eq. 1
        // distance; utility-mode scores can be negative, so the bound is
        // dropped there. A free upgrade must measure exactly by definition.
        let bound = if free || self.scenario.utility_f1 || !self.settings.bound_pruning {
            None
        } else {
            bound
        };
        let measured = self.measure_full(subset, false, bound);
        let score = self.objective_of(&measured.eval);
        if measured.exact {
            self.memo_insert(subset, false, measured.eval);
        }
        self.cache.insert(
            subset.to_vec(),
            CachedEval { score, eval: measured.eval, pruned: false, bounded: !measured.exact },
        );
        Some((score, measured.eval))
    }
}

fn hash_subset(subset: &[usize]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &f in subset {
        h ^= f as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

impl SubsetEvaluator for ScenarioContext<'_> {
    fn n_features(&self) -> usize {
        self.split.n_features()
    }

    fn max_features(&self) -> usize {
        self.scenario.constraints.max_features_count(self.split.n_features())
    }

    fn evaluate(&mut self, subset: &[usize]) -> Option<f64> {
        assert!(!subset.is_empty(), "evaluate: empty subset");
        self.evaluate_impl(subset, true, None).map(|(score, _)| score)
    }

    fn evaluate_bounded(&mut self, subset: &[usize], bound: Option<f64>) -> Option<f64> {
        assert!(!subset.is_empty(), "evaluate_bounded: empty subset");
        self.evaluate_impl(subset, true, bound).map(|(score, _)| score)
    }

    fn evaluate_no_prune(&mut self, subset: &[usize]) -> Option<f64> {
        assert!(!subset.is_empty(), "evaluate_no_prune: empty subset");
        self.evaluate_impl(subset, false, None).map(|(score, _)| score)
    }

    fn evaluate_no_prune_bounded(&mut self, subset: &[usize], bound: Option<f64>) -> Option<f64> {
        assert!(!subset.is_empty(), "evaluate_no_prune_bounded: empty subset");
        self.evaluate_impl(subset, false, bound).map(|(score, _)| score)
    }

    fn evaluate_multi(&mut self, subset: &[usize]) -> Option<Vec<f64>> {
        // One objective per declared constraint, in a fixed order:
        // [accuracy, EO?, safety?, feature-size?]. Each component is the
        // squared shortfall, zero when satisfied. No bound is ever passed:
        // a multi-objective caller needs every metric measured (a bounded
        // cache entry found here is upgraded for free inside the impl).
        let (_, eval) = self.evaluate_impl(subset, true, None)?;
        Some(self.objectives_for(&eval))
    }

    fn evaluate_multi_batch(&mut self, subsets: &[Vec<usize>]) -> Vec<Option<Vec<f64>>> {
        // The parallel heart of the evaluation engine, in three phases
        // that together emulate calling `evaluate_multi` on each subset
        // in order:
        //
        //   A. *Plan* (sequential): budget admission, cache hits, pruning
        //      and within-batch duplicate detection happen in submission
        //      order, exactly as the serial loop would;
        //   B. *Measure* (parallel): the surviving fresh subsets — pure
        //      functions of `(scenario, subset)` — fan out over the
        //      executor, each with its own scratch and local counters;
        //   C. *Replay* (sequential): cache inserts and counter merges
        //      land in submission order.
        //
        // Only phase B runs on helper threads, so the result is
        // bit-identical to the serial path at any thread count.
        enum Slot {
            /// Budget exhausted before this subset was admitted.
            Deny,
            /// Answered at plan time (cache hit or pruned).
            Known(Evaluation),
            /// `fresh[j]` — measured in phase B.
            Fresh(usize),
        }

        // Phase A: plan.
        let plan_span = obs::span("eval.plan");
        let mut plan: Vec<Slot> = Vec::with_capacity(subsets.len());
        let mut fresh: Vec<Vec<usize>> = Vec::new();
        let mut pending: HashMap<&[usize], usize> = HashMap::new();
        let mut denied = false;
        for subset in subsets {
            // Once exhausted, every later answer is `None` (exhaustion is
            // checked before the cache in the serial flow too).
            if denied || self.budget.exhausted() {
                denied = true;
                plan.push(Slot::Deny);
                continue;
            }
            // A bounded (attack-short-circuited) entry cannot answer a
            // multi-objective query — its unmeasured metrics are
            // placeholders — so it is re-measured exactly, without
            // consuming budget (the naive engine would serve its exact
            // entry for free here).
            let mut upgrade = false;
            match self.cache.get(subset.as_slice()).map(|c| (c.eval, c.bounded)) {
                Some((cached, false)) => {
                    self.perf.cache_hits += 1;
                    obs::counter("eval.cache_hit", 1);
                    plan.push(Slot::Known(cached));
                    continue;
                }
                Some((_, true)) => upgrade = true,
                None => {}
            }
            if let Some(&j) = pending.get(subset.as_slice()) {
                // Duplicate within this batch: the serial loop would find
                // the first occurrence in the cache by now.
                self.perf.cache_hits += 1;
                obs::counter("eval.cache_hit", 1);
                plan.push(Slot::Fresh(j));
                continue;
            }
            if !upgrade {
                if subset.len() > self.max_features() {
                    let (score, eval) = self.pruned_score(subset);
                    self.cache.insert(
                        subset.clone(),
                        CachedEval { score, eval, pruned: true, bounded: false },
                    );
                    obs::counter("eval.pruned", 1);
                    plan.push(Slot::Known(eval));
                    continue;
                }
                if !self.budget.try_consume() {
                    obs::counter("eval.budget_denied", 1);
                    denied = true;
                    plan.push(Slot::Deny);
                    continue;
                }
                // Shared-memo probe, after budget consumption — a memo hit
                // costs exactly what the measurement it replaces would
                // have, keeping search trajectories bit-identical.
                if let Some(eval) = self.memo_lookup(subset, false) {
                    self.perf.memo_hits += 1;
                    let score = self.objective_of(&eval);
                    self.cache.insert(
                        subset.clone(),
                        CachedEval { score, eval, pruned: false, bounded: false },
                    );
                    plan.push(Slot::Known(eval));
                    continue;
                }
                if self.memo.is_some() {
                    self.perf.memo_misses += 1;
                }
            }
            pending.insert(subset.as_slice(), fresh.len());
            plan.push(Slot::Fresh(fresh.len()));
            fresh.push(subset.clone());
        }
        drop(plan_span);

        // Phase B: measure fresh subsets in parallel. Each worker owns its
        // scratch buffers, a local `EvalPerf`, and (when tracing) a scoped
        // collector, so recording never touches shared state.
        obs::heartbeat("eval.measure");
        let measure_span = obs::span("eval.measure");
        obs::observe("eval.batch_fresh", fresh.len() as u64);
        let measured: Vec<(Evaluation, EvalPerf)> = {
            let env = self.env();
            let traced = env.exec.par_map_indexed(&fresh, |_, subset| {
                let ((eval, perf), trace) = obs::scoped(|| {
                    let mut scratch = Scratch::default();
                    let mut perf = EvalPerf::default();
                    let eval = measure_subset(&env, subset, false, &mut scratch, &mut perf);
                    (eval, perf)
                });
                (eval, perf, trace)
            });
            // Absorb the workers' traces in submission order while
            // `eval.measure` is still open: their spans are its children,
            // so the ledger charges each to its own layer instead of
            // counting the whole fan-out again as the span's self time.
            traced
                .into_iter()
                .map(|(eval, perf, trace)| {
                    if let Some(child) = trace {
                        obs::absorb(child);
                    }
                    (eval, perf)
                })
                .collect()
        };
        drop(measure_span);

        // Phase C: replay in submission order — cache inserts and counter
        // merges land in the serial order.
        let commit_span = obs::span("eval.commit");
        let mut measured_evals: Vec<Evaluation> = Vec::with_capacity(measured.len());
        for (subset, (eval, perf)) in fresh.iter().zip(measured) {
            self.perf.merge(&perf);
            let score = self.objective_of(&eval);
            self.memo_insert(subset, false, eval);
            self.cache
                .insert(subset.clone(), CachedEval { score, eval, pruned: false, bounded: false });
            measured_evals.push(eval);
        }
        drop(commit_span);
        plan.iter()
            .map(|slot| match slot {
                Slot::Deny => None,
                Slot::Known(eval) => Some(self.objectives_for(eval)),
                Slot::Fresh(j) => Some(self.objectives_for(&measured_evals[*j])),
            })
            .collect()
    }

    fn stop_at(&self) -> Option<f64> {
        if self.scenario.utility_f1 {
            None
        } else {
            Some(0.0)
        }
    }

    fn ranking_data(&self) -> (&Matrix, &[bool]) {
        (&self.split.train.x, &self.split.train.y)
    }

    fn ranking(&mut self, kind: RankingKind) -> Ranking {
        // Dataset-scoped seed: independent of the scenario seed and of the
        // cache, so every arm of a benchmark row derives the identical
        // ranking whether or not a shared cache is attached.
        let seed = ranking_seed(&self.scenario.dataset, kind);
        match self.artifacts.clone() {
            Some(cache) => {
                let (ranking, hit) =
                    cache.ranking(&self.scenario.dataset, self.split_key, kind, || {
                        let _g = obs::span(format!("ranking.compute.{}", kind.name()));
                        kind.compute(&self.split.train.x, &self.split.train.y, seed)
                    });
                if hit {
                    self.perf.ranking_hits += 1;
                    obs::counter("ranking.hit", 1);
                } else {
                    self.perf.ranking_computes += 1;
                    obs::counter("ranking.compute", 1);
                }
                (*ranking).clone()
            }
            None => {
                self.perf.ranking_computes += 1;
                obs::counter("ranking.compute", 1);
                let _g = obs::span(format!("ranking.compute.{}", kind.name()));
                kind.compute(&self.split.train.x, &self.split.train.y, seed)
            }
        }
    }

    fn importances(&mut self, subset: &[usize]) -> Option<Vec<f64>> {
        // Repeated requests for the same subset (RFE re-ranks after every
        // elimination step and restarts re-visit prefixes) are served from
        // the cache without a second training run or budget spend.
        if let Some(cached) = self.importance_cache.get(subset) {
            self.perf.cache_hits += 1;
            obs::counter("eval.cache_hit", 1);
            return Some(cached.clone());
        }
        if !self.budget.try_consume() {
            obs::counter("eval.budget_denied", 1);
            return None;
        }
        let _g = obs::span("importances");
        let importances = self.with_scratch(|env, scratch, perf| {
            importances_of(env, subset, scratch, perf)
        });
        self.importance_cache.insert(subset.to_vec(), importances.clone());
        Some(importances)
    }

    fn seed(&self) -> u64 {
        self.scenario.seed
    }
}

#[inline]
fn sq_shortfall(achieved: f64, threshold: f64) -> f64 {
    if achieved >= threshold {
        0.0
    } else {
        (achieved - threshold) * (achieved - threshold)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dfs_data::split::stratified_three_way;
    use dfs_data::synthetic::{generate, tiny_spec};
    use dfs_metrics::empirical_safety;
    use dfs_models::tree::fit_presorted;
    use std::time::Duration;

    fn setup() -> (dfs_data::Dataset, Split) {
        let ds = generate(&tiny_spec(), 3);
        let split = stratified_three_way(&ds, 3);
        (ds, split)
    }

    fn scenario(constraints: ConstraintSet) -> MlScenario {
        MlScenario {
            dataset: "tiny".into(),
            model: ModelKind::LogisticRegression,
            hpo: false,
            constraints,
            utility_f1: false,
            seed: 5,
        }
    }

    #[test]
    fn full_feature_set_reaches_reasonable_f1() {
        let (ds, split) = setup();
        let sc = scenario(ConstraintSet::accuracy_only(0.99, Duration::from_secs(10)));
        let settings = ScenarioSettings::fast();
        let mut ctx = ScenarioContext::new(&sc, &split, &settings);
        let all: Vec<usize> = (0..ds.n_features()).collect();
        let score = ctx.evaluate(&all).expect("budget available");
        let eval = ctx.cached_evaluation(&all).expect("cached");
        assert!(eval.f1 > 0.6, "full-set F1 {}", eval.f1);
        // min_f1 = 0.99 is out of reach -> positive distance.
        assert!(score > 0.0);
    }

    #[test]
    fn caching_avoids_budget_double_spend() {
        let (_, split) = setup();
        let sc = scenario(ConstraintSet::accuracy_only(0.5, Duration::from_secs(10)));
        let settings = ScenarioSettings::fast();
        let mut ctx = ScenarioContext::new(&sc, &split, &settings);
        let s1 = ctx.evaluate(&[0, 1, 2]).unwrap();
        let used = ctx.evals_used();
        let s2 = ctx.evaluate(&[0, 1, 2]).unwrap();
        assert_eq!(s1, s2);
        assert_eq!(ctx.evals_used(), used, "cache hit must not consume budget");
    }

    #[test]
    fn over_cap_subsets_are_pruned_without_budget() {
        let (ds, split) = setup();
        let mut c = ConstraintSet::accuracy_only(0.5, Duration::from_secs(10));
        c.max_feature_frac = Some(2.0 / ds.n_features() as f64 + 1e-9);
        let sc = scenario(c);
        let settings = ScenarioSettings::fast();
        let mut ctx = ScenarioContext::new(&sc, &split, &settings);
        let all: Vec<usize> = (0..ds.n_features()).collect();
        let score = ctx.evaluate(&all).expect("pruning always answers");
        assert!(score > 0.0);
        assert_eq!(ctx.evals_used(), 0, "pruned evaluation must be free");
    }

    #[test]
    fn eval_cap_exhausts_budget() {
        let (_, split) = setup();
        let sc = scenario(ConstraintSet::accuracy_only(0.5, Duration::from_secs(30)));
        let mut settings = ScenarioSettings::fast();
        settings.max_evals = 2;
        let mut ctx = ScenarioContext::new(&sc, &split, &settings);
        assert!(ctx.evaluate(&[0]).is_some());
        assert!(ctx.evaluate(&[1]).is_some());
        assert!(ctx.evaluate(&[2]).is_none(), "third evaluation must be denied");
    }

    #[test]
    fn eo_and_safety_only_measured_when_constrained() {
        let (_, split) = setup();
        let sc = scenario(ConstraintSet::accuracy_only(0.5, Duration::from_secs(10)));
        let settings = ScenarioSettings::fast();
        let mut ctx = ScenarioContext::new(&sc, &split, &settings);
        ctx.evaluate(&[0, 1]).unwrap();
        let eval = ctx.cached_evaluation(&[0, 1]).unwrap();
        assert!(eval.eo.is_none());
        assert!(eval.safety.is_none());

        let mut c = ConstraintSet::accuracy_only(0.5, Duration::from_secs(10));
        c.min_eo = Some(0.8);
        c.min_safety = Some(0.8);
        let sc2 = scenario(c);
        let mut ctx2 = ScenarioContext::new(&sc2, &split, &settings);
        ctx2.evaluate(&[0, 1]).unwrap();
        let eval2 = ctx2.cached_evaluation(&[0, 1]).unwrap();
        assert!(eval2.eo.is_some());
        assert!(eval2.safety.is_some());
    }

    #[test]
    fn privacy_trains_dp_variant_and_degrades_with_tiny_epsilon() {
        let (_, split) = setup();
        let mut generous = ConstraintSet::accuracy_only(0.5, Duration::from_secs(10));
        generous.privacy_epsilon = Some(1000.0);
        let mut strict = generous.clone();
        strict.privacy_epsilon = Some(1e-4);
        let settings = ScenarioSettings::fast();

        let subset: Vec<usize> = (0..5).collect();
        let sc_g = scenario(generous);
        let mut ctx = ScenarioContext::new(&sc_g, &split, &settings);
        ctx.evaluate(&subset).unwrap();
        let f1_generous = ctx.cached_evaluation(&subset).unwrap().f1;

        let sc_s = scenario(strict);
        let mut ctx = ScenarioContext::new(&sc_s, &split, &settings);
        ctx.evaluate(&subset).unwrap();
        let f1_strict = ctx.cached_evaluation(&subset).unwrap().f1;
        assert!(
            f1_generous > f1_strict - 0.05,
            "generous ε ({f1_generous}) should not trail strict ε ({f1_strict}) much"
        );
    }

    #[test]
    fn multi_objective_layout_follows_declared_constraints() {
        let (ds, split) = setup();
        let mut c = ConstraintSet::accuracy_only(0.5, Duration::from_secs(10));
        c.min_eo = Some(0.9);
        c.max_feature_frac = Some(0.3);
        let sc = scenario(c);
        let settings = ScenarioSettings::fast();
        let mut ctx = ScenarioContext::new(&sc, &split, &settings);
        let objs = ctx.evaluate_multi(&[0, 1]).unwrap();
        // accuracy, EO, feature-size (no safety).
        assert_eq!(objs.len(), 3);
        for o in &objs {
            assert!(*o >= 0.0);
        }
        // Feature-size objective must be zero: 2 features < 30% of total.
        assert!(ds.n_features() as f64 * 0.3 > 2.0);
        assert_eq!(objs[2], 0.0);
    }

    #[test]
    fn confirm_on_test_reports_test_distance() {
        let (_, split) = setup();
        let sc = scenario(ConstraintSet::accuracy_only(0.4, Duration::from_secs(10)));
        let settings = ScenarioSettings::fast();
        let mut ctx = ScenarioContext::new(&sc, &split, &settings);
        let subset: Vec<usize> = (0..4).collect();
        let (eval, distance) = ctx.confirm_on_test(&subset);
        assert_eq!(eval.n_selected, 4);
        assert!(distance >= 0.0);
    }

    #[test]
    fn importances_are_cached_without_budget_double_spend() {
        let (_, split) = setup();
        let sc = scenario(ConstraintSet::accuracy_only(0.5, Duration::from_secs(10)));
        let settings = ScenarioSettings::fast();
        let mut ctx = ScenarioContext::new(&sc, &split, &settings);
        let first = ctx.importances(&[0, 1, 2]).expect("budget available");
        let used = ctx.evals_used();
        let fits = ctx.perf().model_fits;
        let second = ctx.importances(&[0, 1, 2]).expect("cache hit always answers");
        assert_eq!(first, second);
        assert_eq!(ctx.evals_used(), used, "repeated importances must not consume budget");
        assert_eq!(ctx.perf().model_fits, fits, "repeated importances must not retrain");
        assert_eq!(ctx.perf().cache_hits, 1);
    }

    #[test]
    fn no_validation_gather_without_hpo_or_dp() {
        let (_, split) = setup();
        // hpo = false, no DP: the fit never looks at validation data, and
        // every prediction reads its split through the column map.
        let sc = scenario(ConstraintSet::accuracy_only(0.5, Duration::from_secs(10)));
        let settings = ScenarioSettings::fast();
        let mut ctx = ScenarioContext::new(&sc, &split, &settings);
        ctx.evaluate(&[0, 1]).unwrap();
        ctx.evaluate(&[2, 3]).unwrap();
        ctx.confirm_on_test(&[0, 1]);
        assert_eq!(ctx.perf().model_fits, 3);

        // A tree trains from the train split in place, with or without HPO,
        // and the HPO grid scores the validation split through the column
        // map too (`tests/obs_determinism.rs` checks that no `gather` span
        // opens).
        let mut sc_dt = scenario(ConstraintSet::accuracy_only(0.5, Duration::from_secs(10)));
        sc_dt.model = ModelKind::DecisionTree;
        for hpo in [false, true] {
            sc_dt.hpo = hpo;
            let mut ctx = ScenarioContext::new(&sc_dt, &split, &settings);
            ctx.evaluate(&[0, 1]).unwrap();
            ctx.confirm_on_test(&[0, 1]);
            assert_eq!(ctx.perf().model_fits, 2);
        }

        // DP ignores validation data even under HPO.
        let mut c_dp = ConstraintSet::accuracy_only(0.5, Duration::from_secs(10));
        c_dp.privacy_epsilon = Some(10.0);
        let mut sc_dp = scenario(c_dp);
        sc_dp.model = ModelKind::DecisionTree;
        sc_dp.hpo = true;
        let mut ctx = ScenarioContext::new(&sc_dp, &split, &settings);
        ctx.evaluate(&[0, 1]).unwrap();
        ctx.confirm_on_test(&[0, 1]);
        assert_eq!(ctx.perf().hpo_grid_points, 0, "DP fits never grid-search");
    }

    #[test]
    fn perf_counts_fits_and_cache_hits() {
        let (_, split) = setup();
        let sc = scenario(ConstraintSet::accuracy_only(0.5, Duration::from_secs(10)));
        let settings = ScenarioSettings::fast();
        let mut ctx = ScenarioContext::new(&sc, &split, &settings);
        ctx.evaluate(&[0, 1]).unwrap();
        ctx.evaluate(&[0, 1]).unwrap(); // cached
        ctx.evaluate(&[2]).unwrap();
        let perf = ctx.perf();
        assert_eq!(perf.model_fits, 2);
        assert_eq!(perf.cache_hits, 1);
    }

    #[test]
    fn ranking_without_artifacts_matches_ranking_with_artifacts() {
        let (_, split) = setup();
        let sc = scenario(ConstraintSet::accuracy_only(0.5, Duration::from_secs(10)));
        let settings = ScenarioSettings::fast();
        let cache = Arc::new(crate::artifacts::ArtifactCache::new());
        for kind in RankingKind::ALL {
            let mut plain = ScenarioContext::new(&sc, &split, &settings);
            let mut cached =
                ScenarioContext::new(&sc, &split, &settings).with_artifacts(Arc::clone(&cache));
            let a = plain.ranking(kind);
            let b = cached.ranking(kind); // compute (first arm)
            let c = cached.ranking(kind); // hit (subsequent arm)
            assert_eq!(a, b, "{kind:?}: cached path must be bit-identical");
            assert_eq!(b, c);
            assert_eq!(plain.perf().ranking_computes, 1);
            assert_eq!(cached.perf().ranking_computes, 1);
            assert_eq!(cached.perf().ranking_hits, 1);
        }
        let (computes, hits) = cache.counts();
        assert_eq!((computes, hits), (7, 7));
    }

    #[test]
    fn memo_shares_measurements_across_contexts() {
        let (_, split) = setup();
        let sc = scenario(ConstraintSet::accuracy_only(0.5, Duration::from_secs(10)));
        let settings = ScenarioSettings::fast();
        let memo = Arc::new(crate::artifacts::EvalMemo::new());
        let mut a = ScenarioContext::new(&sc, &split, &settings).with_memo(Arc::clone(&memo));
        let s1 = a.evaluate(&[0, 1, 2]).unwrap();
        assert_eq!(a.perf().memo_misses, 1);
        assert_eq!(a.perf().memo_hits, 0);

        // A second context (another arm, row, or server request) reuses
        // the measurement: no training, but the budget is still consumed,
        // so search trajectories stay identical to the naive engine.
        let mut b = ScenarioContext::new(&sc, &split, &settings).with_memo(Arc::clone(&memo));
        let s2 = b.evaluate(&[0, 1, 2]).unwrap();
        assert_eq!(s1.to_bits(), s2.to_bits());
        assert_eq!(b.perf().memo_hits, 1);
        assert_eq!(b.perf().model_fits, 0, "memo hit must not retrain");
        assert_eq!(b.evals_used(), 1, "memo hit still consumes budget");

        // And the memoized value is bit-identical to a memo-free run.
        let mut naive = ScenarioContext::new(&sc, &split, &settings);
        let s3 = naive.evaluate(&[0, 1, 2]).unwrap();
        assert_eq!(s1.to_bits(), s3.to_bits());
    }

    #[test]
    fn memo_keys_on_the_settings_fingerprint() {
        let (_, split) = setup();
        let sc = scenario(ConstraintSet::accuracy_only(0.5, Duration::from_secs(10)));
        let settings = ScenarioSettings::fast();
        let memo = Arc::new(crate::artifacts::EvalMemo::new());
        let mut a = ScenarioContext::new(&sc, &split, &settings).with_memo(Arc::clone(&memo));
        a.evaluate(&[0, 1]).unwrap();

        // Same scenario, different measurement configuration: the entry
        // must not be served.
        let mut other = ScenarioSettings::fast();
        other.attack.seed = 99;
        let mut b = ScenarioContext::new(&sc, &split, &other).with_memo(Arc::clone(&memo));
        b.evaluate(&[0, 1]).unwrap();
        assert_eq!(b.perf().memo_hits, 0, "different settings must miss");
        assert_eq!(b.perf().memo_misses, 1);
        assert_eq!(b.perf().model_fits, 1);
    }

    #[test]
    fn confirm_on_test_is_memoized_across_contexts() {
        let (_, split) = setup();
        let sc = scenario(ConstraintSet::accuracy_only(0.5, Duration::from_secs(10)));
        let settings = ScenarioSettings::fast();
        let memo = Arc::new(crate::artifacts::EvalMemo::new());
        let mut a = ScenarioContext::new(&sc, &split, &settings).with_memo(Arc::clone(&memo));
        let (eval_a, dist_a) = a.confirm_on_test(&[0, 1, 2]);
        let mut b = ScenarioContext::new(&sc, &split, &settings).with_memo(Arc::clone(&memo));
        let (eval_b, dist_b) = b.confirm_on_test(&[0, 1, 2]);
        assert_eq!(eval_a.f1.to_bits(), eval_b.f1.to_bits());
        assert_eq!(dist_a.to_bits(), dist_b.to_bits());
        assert_eq!(b.perf().model_fits, 0, "shared confirmation must not retrain");
        assert_eq!(b.perf().memo_hits, 1);
        // Validation- and test-split measurements never cross-serve.
        let s = b.evaluate(&[0, 1, 2]).unwrap();
        assert_eq!(b.perf().model_fits, 1, "val-split eval must measure fresh");
        assert!(s.is_finite());
    }

    #[test]
    fn bound_skip_short_circuits_the_attack_and_upgrades_free() {
        let (_, split) = setup();
        let mut c = ConstraintSet::accuracy_only(0.99, Duration::from_secs(10));
        c.min_safety = Some(0.5);
        let sc = scenario(c);
        let settings = ScenarioSettings::fast();

        // Naive reference: full measurement (fit + attack).
        let mut naive = ScenarioContext::new(&sc, &split, &settings);
        let exact = naive.evaluate(&[0, 1]).unwrap();
        assert!(exact > 0.0, "min_f1 = 0.99 must be out of reach");

        let mut ctx = ScenarioContext::new(&sc, &split, &settings);
        let lb = ctx.evaluate_bounded(&[0, 1], Some(0.0)).unwrap();
        assert_eq!(ctx.perf().bound_skips, 1, "attack should have been skipped");
        assert_eq!(ctx.perf().model_fits, 1);
        assert!(lb > 0.0 && lb <= exact, "lower bound {lb} vs exact {exact}");
        assert!(ctx.cached_evaluation(&[0, 1]).is_none(), "bounded entries are withheld");

        // A still-sufficient incumbent re-serves the bound for free.
        let again = ctx.evaluate_bounded(&[0, 1], Some(0.0)).unwrap();
        assert_eq!(again.to_bits(), lb.to_bits());
        assert_eq!(ctx.perf().model_fits, 1);

        // An unbounded query upgrades the entry: budget-free (the naive
        // engine would serve its cache here), retrained, bit-exact.
        let used = ctx.evals_used();
        let full = ctx.evaluate(&[0, 1]).unwrap();
        assert_eq!(full.to_bits(), exact.to_bits());
        assert_eq!(ctx.evals_used(), used, "upgrade must be budget-free");
        assert_eq!(ctx.perf().model_fits, 2);
        assert!(ctx.cached_evaluation(&[0, 1]).is_some());
    }

    #[test]
    fn size_shortfall_alone_can_skip_the_fit() {
        let (ds, split) = setup();
        let mut c = ConstraintSet::accuracy_only(0.5, Duration::from_secs(10));
        c.max_feature_frac = Some(1.0 / ds.n_features() as f64 + 1e-9);
        let sc = scenario(c);
        let settings = ScenarioSettings::fast();
        let mut ctx = ScenarioContext::new(&sc, &split, &settings);
        let all: Vec<usize> = (0..ds.n_features()).collect();
        // no-prune path: the naive engine would train this over-cap subset
        // (SBS wraps through the over-cap region the slow way), but the
        // free size term already exceeds the incumbent.
        let lb = ctx.evaluate_no_prune_bounded(&all, Some(0.0)).unwrap();
        assert!(lb > 0.0);
        assert_eq!(ctx.perf().model_fits, 0, "size term alone exceeds the incumbent");
        assert_eq!(ctx.perf().bound_skips, 1);
        assert_eq!(ctx.evals_used(), 1, "the skipped measurement still consumed budget");
    }

    #[test]
    fn settings_fingerprint_tracks_measurement_inputs() {
        let sc = scenario(ConstraintSet::accuracy_only(0.5, Duration::from_secs(10)));
        let s = ScenarioSettings::fast();
        assert_eq!(settings_fingerprint(&sc, &s, 100), settings_fingerprint(&sc, &s, 100));
        let mut s2 = ScenarioSettings::fast();
        s2.attack.seed = 99;
        assert_ne!(settings_fingerprint(&sc, &s, 100), settings_fingerprint(&sc, &s2, 100));
        assert_ne!(settings_fingerprint(&sc, &s, 100), settings_fingerprint(&sc, &s, 200));
        let mut sc2 = sc.clone();
        sc2.seed = 6;
        assert_ne!(settings_fingerprint(&sc, &s, 100), settings_fingerprint(&sc2, &s, 100));
    }

    /// The gather-then-predict oracle: a measurement as the engine made it
    /// before it read splits in place and before trees were binned. Every
    /// fit trains on a gathered copy of the train columns — trees through
    /// the presorted reference, DP trees from raw values (no [`BinView`])
    /// — HPO scores a gathered validation matrix, and the model predicts a
    /// gathered evaluation matrix (Safety predicts its own head rows).
    fn measure_gathered(env: &MeasureEnv<'_>, subset: &[usize], on_test: bool) -> Evaluation {
        let (split, c, kind) = (env.split, &env.scenario.constraints, env.scenario.model);
        let x_train = split.train.x.select_rows_cols(env.train_rows, subset);
        let part = if on_test { &split.test } else { &split.val };
        let x_eval = part.x.select_cols(subset);
        let x_val = split.val.x.select_cols(subset);
        let all_cols: Vec<usize> = (0..subset.len()).collect();
        let presorted = |spec: &ModelSpec| match spec {
            ModelSpec::Dt { max_depth } => fit_presorted(&x_train, env.y_train, *max_depth),
            other => unreachable!("not a tree spec: {other:?}"),
        };
        let spec = ModelSpec::default_for(kind);
        let model = match c.privacy_epsilon {
            Some(eps) => {
                let seed = derive_seed(env.scenario.seed, hash_subset(subset));
                spec.fit_dp_with(&x_train, env.y_train, eps, seed, None)
            }
            None if env.scenario.hpo && kind == ModelKind::DecisionTree => {
                // The depth grid fitted point by point; ties keep the
                // shallower tree.
                let mut best: Option<(f64, DecisionTree)> = None;
                for spec in dfs_models::hpo::grid(kind) {
                    let tree = presorted(&spec);
                    let preds: Vec<bool> = x_val.rows_iter().map(|r| tree.predict_one(r)).collect();
                    let f1 = f1_score(&preds, &split.val.y);
                    if best.as_ref().is_none_or(|(b, _)| f1 > *b) {
                        best = Some((f1, tree));
                    }
                }
                TrainedModel::Dt(best.expect("a non-empty depth grid").1)
            }
            None if env.scenario.hpo => {
                let x_val = ColumnView::new(&x_val, &all_cols);
                let mut ws = TreeWorkspace::new();
                grid_search_ws(kind, &x_train, env.y_train, &x_val, &split.val.y, env.exec, &mut ws)
                    .model
            }
            None if kind == ModelKind::DecisionTree => TrainedModel::Dt(presorted(&spec)),
            None => spec.fit(&x_train, env.y_train),
        };
        let preds = model.predict(&x_eval);
        let f1 = f1_score(&preds, &part.y);
        let eo = c.needs_eo().then(|| equal_opportunity(&preds, &part.y, &part.protected));
        let safety = c.needs_safety().then(|| {
            let mut cfg = env.settings.attack.clone();
            cfg.seed = derive_seed(env.scenario.seed, 0xA77AC4 ^ hash_subset(subset));
            let predict = |row: &[f64]| model.predict_one(row);
            empirical_safety(&predict, &x_eval, &part.y, &cfg)
        });
        Evaluation { f1, eo, safety, n_selected: subset.len(), n_total: split.n_features() }
    }

    #[test]
    fn in_place_measurements_match_the_gathered_oracle() {
        // Every `tiny` column has far fewer than 256 distinct values at this
        // row cap, so the binned kernel must measure the presorted tree's
        // bits, and the DP tree's code-driven partition the raw one's.
        let (ds, split) = setup();
        let d = ds.n_features();
        let mut settings = ScenarioSettings::fast();
        settings.max_train_rows = 100; // a train-row cap below the split height
        assert!(split.train.n_rows() > settings.max_train_rows);
        let subsets = [vec![2], vec![5, 0, 3, 1], (0..d).rev().step_by(2).collect::<Vec<_>>()];
        let artifacts = Arc::new(ArtifactCache::new());
        for model in [
            ModelKind::LogisticRegression,
            ModelKind::GaussianNb,
            ModelKind::DecisionTree,
            ModelKind::LinearSvm,
        ] {
            for mode in ["plain", "hpo", "safety", "dp"] {
                let mut c = ConstraintSet::accuracy_only(0.5, Duration::from_secs(10));
                match mode {
                    "safety" => {
                        c.min_eo = Some(0.8);
                        c.min_safety = Some(0.8);
                    }
                    "dp" => c.privacy_epsilon = Some(5.0),
                    _ => {}
                }
                let mut sc = scenario(c);
                sc.model = model;
                sc.hpo = mode == "hpo";
                let ctx = ScenarioContext::new(&sc, &split, &settings)
                    .with_artifacts(Arc::clone(&artifacts));
                let env = ctx.env();
                for subset in &subsets {
                    for eval_on_test in [false, true] {
                        let got = measure_subset(
                            &env,
                            subset,
                            eval_on_test,
                            &mut Scratch::default(),
                            &mut EvalPerf::default(),
                        );
                        let want = measure_gathered(&env, subset, eval_on_test);
                        let bits = |e: &Evaluation| {
                            (e.f1.to_bits(), e.eo.map(f64::to_bits), e.safety.map(f64::to_bits))
                        };
                        assert_eq!(
                            bits(&got),
                            bits(&want),
                            "{model:?} {mode} {subset:?} test={eval_on_test}"
                        );
                    }
                }
            }
        }
        // Only the four DT contexts resolve bins: one derivation on the
        // shared split, served from the artifact cache thereafter.
        assert_eq!(artifacts.bin_counts(), (1, 3));
    }

    #[test]
    fn utility_mode_returns_negative_objective_when_satisfied() {
        let (_, split) = setup();
        let mut sc = scenario(ConstraintSet::accuracy_only(0.3, Duration::from_secs(10)));
        sc.utility_f1 = true;
        let settings = ScenarioSettings::fast();
        let mut ctx = ScenarioContext::new(&sc, &split, &settings);
        let subset: Vec<usize> = (0..6).collect();
        let score = ctx.evaluate(&subset).unwrap();
        let eval = ctx.cached_evaluation(&subset).unwrap();
        if eval.f1 >= 0.3 {
            assert!(score < 0.0, "satisfied utility objective must be negative");
            assert!((score + eval.f1).abs() < 1e-12);
        }
    }
}
