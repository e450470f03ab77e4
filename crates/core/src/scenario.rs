//! ML scenarios and the subset evaluator that powers every strategy.

use crate::artifacts::{
    ranking_seed, split_fingerprint, subset_bits, ArtifactCache, EvalKey, FitKey, SplitArtifacts,
};
use crate::exec::Executor;
use crate::perf::EvalPerf;
use dfs_constraints::{ConstraintSet, Evaluation};
use dfs_data::split::Split;
use dfs_fs::SubsetEvaluator;
use dfs_linalg::rng::{derive_seed, Fnv1a};
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
            attack: AttackConfig { max_points: 6, init_trials: 8 },
            max_train_rows: 200,
            bound_pruning: true,
        }
    }
}

/// Fingerprint of everything besides the subset that determines a
/// measured [`Evaluation`]: it keys the evaluation memo of the
/// [`ArtifactCache`] so a context rebuilt with different settings (row
/// cap, attack budget, metric set, seed, …) can never serve another
/// configuration's entry.
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
        // The memo lives in the cache entry of the dataset's split.
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
        attack: AttackConfig { max_points, init_trials },
        // Enters as `train_cap`, the effective row cap of this split.
        max_train_rows: _,
        // Bounded (short-circuited) measurements never enter the memo.
        bound_pruning: _,
    } = settings;

    let mut h = Fnv1a::new();
    h.bytes(model.short_name().as_bytes());
    h.mix(*hpo as u64);
    h.mix(*seed);
    match privacy_epsilon {
        Some(eps) => {
            h.mix(1);
            h.mix(eps.to_bits());
        }
        None => h.mix(0),
    }
    // Which metrics are measured at all, not their thresholds.
    h.mix(min_eo.is_some() as u64);
    h.mix(min_safety.is_some() as u64);
    h.mix(*max_points as u64);
    h.mix(*init_trials as u64);
    h.mix(train_cap as u64);
    h.finish()
}

/// Fingerprint of everything besides the split and the subset that
/// determines a fit: it keys the fit store of the [`ArtifactCache`], so
/// every scenario and arm on a split that trains the same model on the
/// same rows shares one fit. The model, the HPO flag and the train-row cap
/// enter; a DP fit also mixes in ε and the scenario seed, because its
/// noise seed is `derive_seed(seed, hash_subset(subset))`. A non-DP fit
/// draws no randomness, so the seed stays out of its key.
///
/// Every field is destructured without `..`, like
/// [`settings_fingerprint`], so a new field fails to compile until it is
/// either mixed in or given the reason it cannot change a fit.
pub fn fit_fingerprint(
    scenario: &MlScenario,
    settings: &ScenarioSettings,
    train_cap: usize,
) -> u64 {
    let MlScenario {
        // The fit store lives in the cache entry of the dataset's split.
        dataset: _,
        model,
        hpo,
        constraints,
        // Scoring only: utility mode ranks the same measurements differently.
        utility_f1: _,
        // DP noise draws from it (mixed in below); the attack only scores.
        seed,
    } = scenario;
    let ConstraintSet {
        // Thresholds shape the distance, never the fit.
        min_f1: _,
        // The search budget, not a fit input.
        max_search_time: _,
        // A distance term (and the pruning that skips fitting) only.
        max_feature_frac: _,
        // EO is scored from the fitted model's predictions.
        min_eo: _,
        // The attack runs against the fitted model.
        min_safety: _,
        privacy_epsilon,
    } = constraints;
    let ScenarioSettings {
        // The evaluation budget, not a fit input.
        max_evals: _,
        // The attack runs against the fitted model.
        attack: _,
        // Enters as `train_cap`, the effective row cap of this split.
        max_train_rows: _,
        // Decides whether scoring stops early, never how a model fits.
        bound_pruning: _,
    } = settings;

    let mut h = Fnv1a::new();
    h.bytes(model.short_name().as_bytes());
    h.mix(*hpo as u64);
    h.mix(train_cap as u64);
    if let Some(eps) = privacy_epsilon {
        h.mix(eps.to_bits());
        h.mix(*seed);
    }
    h.finish()
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

impl CachedEval {
    /// An exact entry: a measurement, a pruned shortcut or a memo hit.
    fn answered(score: f64, eval: Evaluation, pruned: bool) -> Self {
        CachedEval { score, eval, pruned, bounded: false }
    }
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
    /// This split's rankings, bins, subset-evaluation memo and fit store,
    /// in a cache private to this context unless
    /// [`ScenarioContext::with_artifacts`] shares one. The handle holds the
    /// split: its entry stays at least as long as the context.
    artifacts: SplitArtifacts,
    /// [`settings_fingerprint`] of this context's configuration — part of
    /// every memo key, so a context rebuilt with different settings can
    /// never serve a stale entry.
    settings_key: u64,
    /// [`fit_fingerprint`] of this context's fit (the scenario's HPO flag
    /// and DP ε).
    fit_key: u64,
    /// [`fit_fingerprint`] of the default-parameter fit RFE ranks by
    /// (`hpo = false`, no DP ε), whatever the scenario's HPO flag or ε.
    default_fit_key: u64,
    exec: Arc<Executor>,
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
    /// The split's fit store, and this context's keys into it.
    artifacts: &'a SplitArtifacts,
    fit_key: u64,
    default_fit_key: u64,
}

impl MeasureEnv<'_> {
    /// The fit-store key of a fit on `subset` with fingerprint `fit_key`.
    fn store_key(&self, subset: &[usize], fit_key: u64) -> FitKey {
        FitKey { fit_key, subset: subset_bits(subset, self.split.n_features()) }
    }
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

/// The fit step of a measurement: the scenario's model on a subset,
/// served from the fit store when any scenario or arm on this split has
/// trained it already, else trained by [`train_subset`] and stored.
fn fit_subset(
    env: &MeasureEnv<'_>,
    subset: &[usize],
    scratch: &mut Scratch,
    perf: &mut EvalPerf,
) -> Arc<TrainedModel> {
    let key = env.store_key(subset, env.fit_key);
    env.artifacts.model(key, || train_subset(env, subset, scratch, perf))
}

/// Trains the scenario's model on a subset (train split only). Under HPO
/// without DP the grid scores the validation split, read through the
/// subset's column map — never the test split, so the model does not
/// depend on which split the scoring step reads.
fn train_subset(
    env: &MeasureEnv<'_>,
    subset: &[usize],
    scratch: &mut Scratch,
    perf: &mut EvalPerf,
) -> TrainedModel {
    let kind = env.scenario.model;
    let dp = env.scenario.constraints.privacy_epsilon;
    let in_place = env.bins.is_some() && dp.is_none();
    let x_train = train_features(env, subset, in_place, &mut scratch.train);
    let tree_ws = &mut scratch.tree;

    obs::heartbeat("eval.fit");
    let _fit_span = obs::span("fit");
    perf.model_fits += 1;
    if kind == ModelKind::DecisionTree {
        arm_tree(env, subset, tree_ws);
    }
    if let Some(eps) = dp {
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
    if env.scenario.hpo {
        let x_val = ColumnView::new(&env.split.val.x, subset);
        let y_val = env.split.val.y.as_slice();
        perf.hpo_grid_points += dfs_models::hpo::grid(kind).len() as u64;
        let result = match x_train {
            TrainX::InPlace(x) => dt_grid_search_ws(&x, env.y_train, &x_val, y_val, tree_ws),
            TrainX::Gathered(x) => {
                grid_search_ws(kind, x, env.y_train, &x_val, y_val, env.exec, tree_ws)
            }
        };
        return result.model;
    }
    fit_default(kind, &x_train, env.y_train, tree_ws)
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

/// What [`ScenarioContext::admit`] decided for one subset.
enum Admission {
    /// The budget is exhausted.
    Deny,
    /// Answered without a measurement (cache hit, size pruning or memo
    /// hit): the score and the evaluation.
    Known(f64, Evaluation),
    /// To be measured with `bound` and committed. Budget is already spent,
    /// unless this upgrades a bounded cache entry for free.
    Measure { bound: Option<f64> },
}

/// Full pass for a subset: [`fit_subset`], then [`score_subset`] on the
/// validation split (during search) or the test split (confirmation),
/// from the serial path and from batch workers alike.
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
fn measure_subset(
    env: &MeasureEnv<'_>,
    subset: &[usize],
    eval_on_test: bool,
    scratch: &mut Scratch,
    perf: &mut EvalPerf,
    bound: Option<f64>,
) -> Measured {
    let constraints = &env.scenario.constraints;
    obs::observe("eval.subset_size", subset.len() as u64);

    // Stage 0 (free): the feature-size term needs no model. When it alone
    // already exceeds the incumbent, skip the fit *and* the attack.
    if let Some(b) = bound {
        let optimistic = Evaluation {
            f1: 1.0,
            eo: constraints.needs_eo().then_some(1.0),
            safety: constraints.needs_safety().then_some(1.0),
            n_selected: subset.len(),
            n_total: env.split.n_features(),
        };
        if constraints.distance(&optimistic) > b {
            perf.bound_skips += 1;
            obs::counter("eval.bound_skip", 1);
            return Measured { eval: optimistic, exact: false };
        }
    }

    // Without a bound to stop at, the measurement ends exact and enters
    // the memo: a warm-only holder stops before it.
    if bound.is_none() || !constraints.needs_safety() {
        env.artifacts.stop_if_warm_only();
    }
    let model = fit_subset(env, subset, scratch, perf);
    let (eval, exact) = score_subset(env, subset, &model, eval_on_test, perf, bound);
    Measured { eval, exact }
}

/// The scoring step of a measurement: predicts the evaluation split with
/// a trained model, computes F1 and EO, and runs the evasion attack.
/// Returns the evaluation and whether it is exact (`false` when the
/// stage-1 bound short-circuited the attack; see [`measure_subset`]).
fn score_subset(
    env: &MeasureEnv<'_>,
    subset: &[usize],
    model: &TrainedModel,
    eval_on_test: bool,
    perf: &mut EvalPerf,
    bound: Option<f64>,
) -> (Evaluation, bool) {
    let split = env.split;
    let constraints = &env.scenario.constraints;
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
                return (partial, false);
            }
        }
    }

    let safety = constraints.needs_safety().then(|| {
        env.artifacts.stop_if_warm_only();
        obs::heartbeat("eval.attack");
        let _attack_span = obs::span("attack");
        let seed = derive_seed(env.scenario.seed, 0xA77AC4 ^ hash_subset(subset));
        // The attack reads the model's labels of the evaluation rows, not
        // the rows: it starts from the predictions made above.
        let predict = |row: &[f64]| model.predict_one(row);
        let cfg = &env.settings.attack;
        empirical_safety_with(&predict, &preds, y_eval, subset.len(), cfg, seed, env.exec)
    });
    (Evaluation { f1, eo, safety, n_selected: subset.len(), n_total: split.n_features() }, true)
}

/// RFE importances of a default-parameter fit on `subset`: the ranking
/// step is not HPO'd in the reference implementation either, and never
/// trains the DP variant. That fit is looked up in the fit store under the
/// default-fit key (`hpo = false`, no ε) whatever the scenario's HPO flag
/// or DP ε, so neither an HPO grid winner nor a DP model can stand in for it;
/// a miss trains and stores it. Trees fit in place, exactly like a
/// measurement's default fit; only NB's permutation importance reads
/// validation data, so only NB gathers it.
fn importances_of(
    env: &MeasureEnv<'_>,
    subset: &[usize],
    scratch: &mut Scratch,
    perf: &mut EvalPerf,
) -> Vec<f64> {
    let key = env.store_key(subset, env.default_fit_key);
    let model = env.artifacts.model(key, || {
        let kind = env.scenario.model;
        let x_train = train_features(env, subset, env.bins.is_some(), &mut scratch.train);
        if kind == ModelKind::DecisionTree {
            arm_tree(env, subset, &mut scratch.tree);
        }
        perf.model_fits += 1;
        fit_default(kind, &x_train, env.y_train, &mut scratch.tree)
    });
    if let Some(scores) = model.feature_importance() {
        return scores;
    }
    env.split.val.x.select_cols_into(subset, &mut scratch.train);
    let seed = derive_seed(env.scenario.seed, 0x1339 ^ hash_subset(subset));
    importance_or_permutation(&model, &scratch.train, &env.split.val.y, seed)
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
        let artifacts =
            Arc::new(ArtifactCache::new()).hold(&scenario.dataset, split_fingerprint(split));
        let constraints = ConstraintSet { privacy_epsilon: None, ..scenario.constraints.clone() };
        let default_fit = MlScenario { hpo: false, constraints, ..scenario.clone() };
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
            artifacts,
            settings_key: settings_fingerprint(scenario, settings, cap),
            fit_key: fit_fingerprint(scenario, settings, cap),
            default_fit_key: fit_fingerprint(&default_fit, settings, cap),
            exec: Arc::new(Executor::sequential()),
        }
    }

    /// Swaps the private cache for a shared one: rankings and bins are
    /// computed once per benchmark run instead of once per arm, and
    /// measurements and fitted models become visible to (and reusable by)
    /// every other arm, row, and server request holding the same cache.
    /// Sound because a measurement is a pure function of `(settings
    /// fingerprint, split, subset)` and a fit of `(fit fingerprint, split,
    /// subset)` — all stochastic seeds derive from those keys, never
    /// from call order. The context's split hold moves to the new cache.
    pub fn with_artifacts(mut self, artifacts: Arc<ArtifactCache>) -> Self {
        self.artifacts = artifacts.hold(&self.scenario.dataset, split_fingerprint(self.split));
        self
    }

    /// Attaches a shared [`Executor`]; batched evaluations, HPO grids and
    /// attack loops then draw helper threads from its permit pool.
    /// Without this, everything runs sequentially inline.
    pub fn with_executor(mut self, exec: Arc<Executor>) -> Self {
        self.exec = exec;
        self
    }

    /// Stops a run on the context at its first evaluation past `deadline`,
    /// by an unwind [`crate::artifacts::catch_stop`] turns into
    /// `CellStop::PastDeadline`. Pruned proposals are checked too. Set it
    /// after [`ScenarioContext::with_artifacts`], which takes a fresh hold.
    pub fn with_deadline(mut self, deadline: std::time::Instant) -> Self {
        self.artifacts.set_deadline(deadline);
        self
    }

    /// [`ScenarioContext::with_deadline`], and a run on the context serves
    /// from the artifact cache alone: it unwinds with `CellStop::Cold` at
    /// the first step that would compute.
    pub fn warm_only(mut self, deadline: std::time::Instant) -> Self {
        self.artifacts.set_warm_only();
        self.with_deadline(deadline)
    }

    /// The scenario under evaluation.
    pub fn scenario(&self) -> &'a MlScenario {
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
    /// Derived once per split through the artifact cache: when it is
    /// shared, every arm, row, and server request on the same split reuses
    /// one quantization.
    fn dataset_bins(&self) -> Option<&Arc<BinSet>> {
        if self.scenario.model != ModelKind::DecisionTree {
            return None;
        }
        Some(self.artifacts.bins(|| {
            let _g = obs::span("bins.derive");
            BinSet::derive(&self.split.train.x)
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
            artifacts: &self.artifacts,
            fit_key: self.fit_key,
            default_fit_key: self.default_fit_key,
        }
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

    /// Serial measurement via [`measure_subset`], reusing the
    /// context's scratch buffers (no steady-state allocation).
    fn measure_full(&mut self, subset: &[usize], eval_on_test: bool, bound: Option<f64>) -> Measured {
        self.with_scratch(|env, scratch, perf| {
            measure_subset(env, subset, eval_on_test, scratch, perf, bound)
        })
    }

    /// The memo key of a subset measurement in this context.
    fn memo_key(&self, subset: &[usize], eval_on_test: bool) -> EvalKey {
        EvalKey {
            settings_key: self.settings_key,
            eval_on_test,
            subset: subset_bits(subset, self.split.n_features()),
        }
    }

    /// Probes the memo for an exact measurement, counting the hit or miss
    /// in this context's work counters.
    fn memo_lookup(&mut self, subset: &[usize], eval_on_test: bool) -> Option<Evaluation> {
        let found = self.artifacts.memo_lookup(&self.memo_key(subset, eval_on_test));
        match found {
            Some(_) => self.perf.memo_hits += 1,
            None => self.perf.memo_misses += 1,
        }
        found
    }

    /// Publishes an exact measurement to the memo.
    fn memo_insert(&self, subset: &[usize], eval_on_test: bool, eval: Evaluation) {
        self.artifacts.memo_insert(self.memo_key(subset, eval_on_test), eval);
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
    /// shared cache, a confirmation already performed by another arm or
    /// request is served without retraining; a subset any context on this
    /// split has fitted with the same fit key is scored with the stored
    /// model (the fit never reads the evaluation split).
    pub fn confirm_on_test(&mut self, subset: &[usize]) -> (Evaluation, f64) {
        let eval = match self.memo_lookup(subset, true) {
            Some(eval) => eval,
            None => {
                let eval = self.measure_full(subset, true, None).eval;
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

    /// Counts one answer served from the per-context cache.
    fn count_cache_hit(&mut self) {
        self.perf.cache_hits += 1;
        obs::counter("eval.cache_hit", 1);
    }

    /// The rule chain every evaluation of a subset on the validation
    /// split goes through, serial or batched: budget admission → cache →
    /// size pruning (`prune` only) → budget spend → memo probe. A subset
    /// it does not answer is measured with the returned bound and handed
    /// to [`ScenarioContext::commit`].
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
    fn admit(&mut self, subset: &[usize], prune: bool, bound: Option<f64>) -> Admission {
        if self.budget.exhausted() {
            return Admission::Deny;
        }
        // `free` = re-measure without consuming budget: a bounded entry is
        // being upgraded because the caller's incumbent no longer exceeds
        // its lower bound (or the caller needs exact metrics).
        let mut free = false;
        if let Some((score, eval, pruned, bounded)) =
            self.cache.get(subset).map(|c| (c.score, c.eval, c.pruned, c.bounded))
        {
            // A bounded entry answers while it still exceeds the caller's
            // incumbent; a full (trained) evaluation may always be reused;
            // a pruned shortcut only when the caller allows pruning.
            let serves = if bounded { bound.is_some_and(|b| score > b) } else { prune || !pruned };
            if serves {
                self.count_cache_hit();
                return Admission::Known(score, eval);
            }
            free = bounded;
        }
        if !free {
            // Evaluation-independent pruning (no budget *count*, no
            // training).
            if prune && subset.len() > self.max_features() {
                let (score, eval) = self.pruned_score(subset);
                self.cache
                    .insert(subset.to_vec(), CachedEval::answered(score, eval, true));
                obs::counter("eval.pruned", 1);
                return Admission::Known(score, eval);
            }
            if !self.budget.try_consume() {
                obs::counter("eval.budget_denied", 1);
                return Admission::Deny;
            }
            if let Some(eval) = self.memo_lookup(subset, false) {
                let score = self.objective_of(&eval);
                self.cache
                    .insert(subset.to_vec(), CachedEval::answered(score, eval, false));
                return Admission::Known(score, eval);
            }
        }
        // The short-circuit is only sound for the non-negative Eq. 1
        // distance; utility-mode scores can be negative, so the bound is
        // dropped there. A free upgrade must measure exactly by definition.
        let exact = free || self.scenario.utility_f1 || !self.settings.bound_pruning;
        Admission::Measure { bound: if exact { None } else { bound } }
    }

    /// Admission of a subset whose first occurrence in the same batch was
    /// admitted for measurement but is not committed yet: the serial flow
    /// would find that occurrence in the cache by now, as an exact entry —
    /// the budget gate, then a cache hit. `false` when the gate denies it.
    fn admit_repeat(&mut self) -> bool {
        if self.budget.exhausted() {
            return false;
        }
        self.count_cache_hit();
        true
    }

    /// Records the measurement of a subset [`ScenarioContext::admit`] sent
    /// to be measured: an exact one enters the memo, and either enters the
    /// cache (a bounded one as a lower bound). Returns its score and
    /// evaluation.
    fn commit(&mut self, subset: &[usize], measured: Measured) -> (f64, Evaluation) {
        let Measured { eval, exact } = measured;
        let score = self.objective_of(&eval);
        if exact {
            self.memo_insert(subset, false, eval);
        }
        let entry = CachedEval { score, eval, pruned: false, bounded: !exact };
        self.cache.insert(subset.to_vec(), entry);
        (score, eval)
    }

    /// The serial evaluation flow behind `evaluate`, `evaluate_no_prune`
    /// and `evaluate_multi`: admit, measure what admission did not answer,
    /// commit.
    fn evaluate_impl(
        &mut self,
        subset: &[usize],
        prune: bool,
        bound: Option<f64>,
    ) -> Option<(f64, Evaluation)> {
        // Checked before admission: pruned proposals measure nothing, so a
        // run could otherwise loop past its deadline on them.
        self.artifacts.check_deadline();
        match self.admit(subset, prune, bound) {
            Admission::Deny => None,
            Admission::Known(score, eval) => Some((score, eval)),
            Admission::Measure { bound } => {
                let measured = self.measure_full(subset, false, bound);
                Some(self.commit(subset, measured))
            }
        }
    }
}

fn hash_subset(subset: &[usize]) -> u64 {
    let mut h = Fnv1a::new();
    for &f in subset {
        h.mix(f as u64);
    }
    h.finish()
}

impl SubsetEvaluator for ScenarioContext<'_> {
    fn n_features(&self) -> usize {
        self.split.n_features()
    }

    fn max_features(&self) -> usize {
        self.scenario.constraints.max_features_count(self.split.n_features())
    }

    fn evaluate(&mut self, subset: &[usize], bound: Option<f64>) -> Option<f64> {
        assert!(!subset.is_empty(), "evaluate: empty subset");
        self.evaluate_impl(subset, true, bound).map(|(score, _)| score)
    }

    fn evaluate_no_prune(&mut self, subset: &[usize], bound: Option<f64>) -> Option<f64> {
        assert!(!subset.is_empty(), "evaluate_no_prune: empty subset");
        self.evaluate_impl(subset, false, bound).map(|(score, _)| score)
    }

    fn evaluate_multi(&mut self, subset: &[usize]) -> Option<Vec<f64>> {
        // One objective per declared constraint, in a fixed order:
        // [accuracy, EO?, safety?, feature-size?]. Each component is the
        // squared shortfall, zero when satisfied. No bound is ever passed:
        // a multi-objective caller needs every metric measured (a bounded
        // cache entry found here is upgraded for free at admission).
        let (_, eval) = self.evaluate_impl(subset, true, None)?;
        Some(self.objectives_for(&eval))
    }

    fn evaluate_multi_batch(&mut self, subsets: &[Vec<usize>]) -> Vec<Option<Vec<f64>>> {
        // The parallel heart of the evaluation engine, in three phases
        // that together emulate calling `evaluate_multi` on each subset
        // in order:
        //
        //   A. *Plan* (sequential): each subset goes through the serial
        //      admission in submission order;
        //   B. *Measure* (parallel): the subsets admission sends to be
        //      measured — pure functions of `(scenario, subset)` — fan out
        //      over the executor, each with its own scratch and local
        //      counters;
        //   C. *Commit* (sequential): counter merges and commits land in
        //      submission order.
        //
        // Only phase B runs on helper threads, so the result is
        // bit-identical to the serial path at any thread count.
        enum Slot {
            /// Denied admission.
            Deny,
            /// Answered at admission.
            Known(Evaluation),
            /// `fresh[j]` — measured in phase B.
            Fresh(usize),
        }

        // Phase A: plan. A subset admitted for measurement reaches the
        // cache only at commit, so a repeat within the batch is matched
        // here instead. Once admission denies, every later answer is
        // `None`, as in a serial loop that stops at the first `None`.
        self.artifacts.check_deadline();
        let plan_span = obs::span("eval.plan");
        let mut plan: Vec<Slot> = Vec::with_capacity(subsets.len());
        let mut fresh: Vec<(&[usize], Option<f64>)> = Vec::new();
        let mut pending: HashMap<&[usize], usize> = HashMap::new();
        for subset in subsets {
            let slot = if matches!(plan.last(), Some(Slot::Deny)) {
                Slot::Deny
            } else if let Some(&j) = pending.get(subset.as_slice()) {
                if self.admit_repeat() {
                    Slot::Fresh(j)
                } else {
                    Slot::Deny
                }
            } else {
                match self.admit(subset, true, None) {
                    Admission::Deny => Slot::Deny,
                    Admission::Known(_, eval) => Slot::Known(eval),
                    Admission::Measure { bound } => {
                        pending.insert(subset, fresh.len());
                        fresh.push((subset, bound));
                        Slot::Fresh(fresh.len() - 1)
                    }
                }
            };
            plan.push(slot);
        }
        drop(plan_span);

        // Phase B: measure fresh subsets in parallel. Each worker owns its
        // scratch buffers, a local `EvalPerf`, and (when tracing) a scoped
        // collector, so recording never touches shared state.
        obs::heartbeat("eval.measure");
        let measure_span = obs::span("eval.measure");
        obs::observe("eval.batch_fresh", fresh.len() as u64);
        let measured: Vec<(Measured, EvalPerf)> = {
            let env = self.env();
            let traced = env.exec.par_map_indexed(&fresh, |_, &(subset, bound)| {
                let ((measured, perf), trace) = obs::scoped(|| {
                    let mut scratch = Scratch::default();
                    let mut perf = EvalPerf::default();
                    let measured =
                        measure_subset(&env, subset, false, &mut scratch, &mut perf, bound);
                    (measured, perf)
                });
                (measured, perf, trace)
            });
            // Absorb the workers' traces in submission order while
            // `eval.measure` is still open: their spans are its children,
            // so the ledger charges each to its own layer instead of
            // counting the whole fan-out again as the span's self time.
            traced
                .into_iter()
                .map(|(measured, perf, trace)| {
                    if let Some(child) = trace {
                        obs::absorb(child);
                    }
                    (measured, perf)
                })
                .collect()
        };
        drop(measure_span);

        // Phase C: commit in submission order.
        let commit_span = obs::span("eval.commit");
        let mut measured_evals: Vec<Evaluation> = Vec::with_capacity(measured.len());
        for (&(subset, _), (measured, perf)) in fresh.iter().zip(measured) {
            self.perf.merge(&perf);
            measured_evals.push(self.commit(subset, measured).1);
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
        // ranking whether its cache is shared or private.
        let seed = ranking_seed(&self.scenario.dataset, kind);
        let (ranking, hit) = self.artifacts.ranking(kind, || {
            // The heartbeat names the compute with tracing off too, so a
            // deadline that passes in it is reported at this phase.
            let phase = format!("ranking.compute.{}", kind.name());
            obs::heartbeat(&phase);
            let _g = obs::span(phase);
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

    fn importances(&mut self, subset: &[usize]) -> Option<Vec<f64>> {
        // Repeated requests for the same subset (RFE re-ranks after every
        // elimination step and restarts re-visit prefixes) are served from
        // the cache without a second training run or budget spend.
        if let Some(cached) = self.importance_cache.get(subset).cloned() {
            self.count_cache_hit();
            return Some(cached);
        }
        if !self.budget.try_consume() {
            obs::counter("eval.budget_denied", 1);
            return None;
        }
        let _g = obs::span("importances");
        let importances =
            self.with_scratch(|env, scratch, perf| importances_of(env, subset, scratch, perf));
        self.importance_cache.insert(subset.to_vec(), importances.clone());
        Some(importances)
    }

    fn seed(&self) -> u64 {
        self.scenario.seed
    }

    fn time_left(&self) -> Option<std::time::Duration> {
        Some(self.budget.time_left())
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
        let score = ctx.evaluate(&all, None).expect("budget available");
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
        let s1 = ctx.evaluate(&[0, 1, 2], None).unwrap();
        let used = ctx.evals_used();
        let s2 = ctx.evaluate(&[0, 1, 2], None).unwrap();
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
        let score = ctx.evaluate(&all, None).expect("pruning always answers");
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
        assert!(ctx.evaluate(&[0], None).is_some());
        assert!(ctx.evaluate(&[1], None).is_some());
        assert!(ctx.evaluate(&[2], None).is_none(), "third evaluation must be denied");
    }

    #[test]
    fn eo_and_safety_only_measured_when_constrained() {
        let (_, split) = setup();
        let sc = scenario(ConstraintSet::accuracy_only(0.5, Duration::from_secs(10)));
        let settings = ScenarioSettings::fast();
        let mut ctx = ScenarioContext::new(&sc, &split, &settings);
        ctx.evaluate(&[0, 1], None).unwrap();
        let eval = ctx.cached_evaluation(&[0, 1]).unwrap();
        assert!(eval.eo.is_none());
        assert!(eval.safety.is_none());

        let mut c = ConstraintSet::accuracy_only(0.5, Duration::from_secs(10));
        c.min_eo = Some(0.8);
        c.min_safety = Some(0.8);
        let sc2 = scenario(c);
        let mut ctx2 = ScenarioContext::new(&sc2, &split, &settings);
        ctx2.evaluate(&[0, 1], None).unwrap();
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
        ctx.evaluate(&subset, None).unwrap();
        let f1_generous = ctx.cached_evaluation(&subset).unwrap().f1;

        let sc_s = scenario(strict);
        let mut ctx = ScenarioContext::new(&sc_s, &split, &settings);
        ctx.evaluate(&subset, None).unwrap();
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
        ctx.evaluate(&[0, 1], None).unwrap();
        ctx.evaluate(&[2, 3], None).unwrap();
        // Confirmation scores the model the evaluation of [0, 1] trained.
        ctx.confirm_on_test(&[0, 1]);
        assert_eq!(ctx.perf().model_fits, 2);

        // A tree trains from the train split in place, with or without HPO,
        // and the HPO grid scores the validation split through the column
        // map too (`tests/obs_determinism.rs` checks that no `gather` span
        // opens).
        let mut sc_dt = scenario(ConstraintSet::accuracy_only(0.5, Duration::from_secs(10)));
        sc_dt.model = ModelKind::DecisionTree;
        for hpo in [false, true] {
            sc_dt.hpo = hpo;
            let mut ctx = ScenarioContext::new(&sc_dt, &split, &settings);
            ctx.evaluate(&[0, 1], None).unwrap();
            ctx.confirm_on_test(&[0, 1]);
            assert_eq!(ctx.perf().model_fits, 1);
        }

        // DP ignores validation data even under HPO.
        let mut c_dp = ConstraintSet::accuracy_only(0.5, Duration::from_secs(10));
        c_dp.privacy_epsilon = Some(10.0);
        let mut sc_dp = scenario(c_dp);
        sc_dp.model = ModelKind::DecisionTree;
        sc_dp.hpo = true;
        let mut ctx = ScenarioContext::new(&sc_dp, &split, &settings);
        ctx.evaluate(&[0, 1], None).unwrap();
        ctx.confirm_on_test(&[0, 1]);
        assert_eq!(ctx.perf().hpo_grid_points, 0, "DP fits never grid-search");
    }

    /// Reusing a measured subset's model is unobservable: `confirm_on_test`
    /// and `importances` after an `evaluate` of the subset (which read the
    /// fit store where that is sound) return the bits of fresh contexts
    /// that never measured it (which fit). Covers every model kind, with
    /// and without HPO, a DP ε and Min Safety, plus a stage-1 bounded
    /// entry (its fit is stored) and a stage-0 skip (it fits nothing).
    #[test]
    fn reused_models_confirm_and_rank_like_fresh_fits() {
        let (ds, split) = setup();
        let settings = ScenarioSettings::fast();
        let all: Vec<usize> = (0..ds.n_features()).collect();
        let subset: Vec<usize> = all.iter().copied().step_by(2).collect();
        let eval_bits = |(e, d): (Evaluation, f64)| {
            (e.f1.to_bits(), e.eo.map(f64::to_bits), e.safety.map(f64::to_bits), d.to_bits())
        };
        let imp_bits = |v: Vec<f64>| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        // The confirmation and the importances of fresh contexts.
        let fresh = |sc: &MlScenario, subset: &[usize]| {
            let mut confirm = ScenarioContext::new(sc, &split, &settings);
            let test = eval_bits(confirm.confirm_on_test(subset));
            assert_eq!(confirm.perf().model_fits, 1);
            let mut rank = ScenarioContext::new(sc, &split, &settings);
            let imp = imp_bits(rank.importances(subset).expect("budget available"));
            assert_eq!(rank.perf().model_fits, 1);
            (test, imp)
        };
        for model in [
            ModelKind::LogisticRegression,
            ModelKind::GaussianNb,
            ModelKind::DecisionTree,
            ModelKind::LinearSvm,
        ] {
            for hpo in [false, true] {
                for dp in [None, Some(5.0)] {
                    for safety in [false, true] {
                        let mut c = ConstraintSet::accuracy_only(0.5, Duration::from_secs(10));
                        c.privacy_epsilon = dp;
                        if safety {
                            c.min_eo = Some(0.8);
                            c.min_safety = Some(0.8);
                        }
                        let mut sc = scenario(c);
                        sc.model = model;
                        sc.hpo = hpo;
                        let label = format!("{model:?} hpo={hpo} dp={dp:?} safety={safety}");
                        let mut warm = ScenarioContext::new(&sc, &split, &settings);
                        warm.evaluate(&subset, None).expect("budget available");
                        let test = eval_bits(warm.confirm_on_test(&subset));
                        let imp = imp_bits(warm.importances(&subset).expect("budget available"));
                        assert_eq!((test, imp), fresh(&sc, &subset), "{label}");
                        // One fit for the evaluation and the confirmation,
                        // DP or not; importances fit the default exactly
                        // under HPO or DP.
                        let default_fit = (hpo || dp.is_some()) as u64;
                        assert_eq!(warm.perf().model_fits, 1 + default_fit, "{label}");
                    }
                }
            }
        }

        // A stage-1 bounded entry: fitted and scored, attack skipped.
        let mut c = ConstraintSet::accuracy_only(0.99, Duration::from_secs(10));
        c.min_safety = Some(0.5);
        let sc = scenario(c);
        let mut bounded = ScenarioContext::new(&sc, &split, &settings);
        bounded.evaluate(&subset, Some(0.0)).expect("budget available");
        assert_eq!(bounded.perf().bound_skips, 1);
        let test = eval_bits(bounded.confirm_on_test(&subset));
        let imp = imp_bits(bounded.importances(&subset).expect("budget available"));
        assert_eq!((test, imp), fresh(&sc, &subset), "stage-1 bounded entry");
        assert_eq!(bounded.perf().model_fits, 1, "the bounded entry's fit is reused");

        // A stage-0 skip: the size term alone exceeds the bound, no model.
        let mut c = ConstraintSet::accuracy_only(0.5, Duration::from_secs(10));
        c.max_feature_frac = Some(1.0 / ds.n_features() as f64 + 1e-9);
        let sc = scenario(c);
        let mut skipped = ScenarioContext::new(&sc, &split, &settings);
        skipped.evaluate_no_prune(&all, Some(0.0)).expect("budget available");
        assert_eq!((skipped.perf().bound_skips, skipped.perf().model_fits), (1, 0));
        let test = eval_bits(skipped.confirm_on_test(&all));
        let imp = imp_bits(skipped.importances(&all).expect("budget available"));
        assert_eq!((test, imp), fresh(&sc, &all), "stage-0 skip");
        // The skip fitted nothing: the confirmation fits, and importances
        // reuse that default fit.
        assert_eq!(skipped.perf().model_fits, 1, "a skipped entry has no model to reuse");
    }

    /// One split, one shared cache, as in a benchmark run: an accuracy-only
    /// scenario (seed 1) fits a set of subsets; a Min-Safety scenario
    /// (seed 3) then measures, confirms and ranks overlapping subsets
    /// without fitting the shared ones again; each of three DP scenarios
    /// (two seeds, two ε) fits each subset once under its own key, its
    /// confirmation reuses that fit, and its importances rank by the stored
    /// default fit. Every `evaluate`, `confirm_on_test` and `importances`
    /// answer equals a fresh cache's bit for bit. Covers every model kind,
    /// with and without HPO.
    #[test]
    fn scenarios_on_one_split_share_fits_and_answer_like_fresh_caches() {
        let (ds, split) = setup();
        let settings = ScenarioSettings::fast();
        let d = ds.n_features();
        let first = [vec![0, 1], vec![2, 3, 4], (0..d).step_by(2).collect::<Vec<_>>()];
        // The first two are shared with `first`; the last is new.
        let second = [vec![2, 3, 4], vec![0, 1], vec![1, 5]];
        let shared = 2;
        let eval_bits = |e: Evaluation| {
            (e.f1.to_bits(), e.eo.map(f64::to_bits), e.safety.map(f64::to_bits), e.n_selected)
        };
        type Answer = (u64, (u64, Option<u64>, Option<u64>, usize), u64, Vec<u64>);
        let bits = |score: f64, (test, distance): (Evaluation, f64), imp: Vec<f64>| -> Answer {
            let imp = imp.iter().map(|x| x.to_bits()).collect();
            (score.to_bits(), eval_bits(test), distance.to_bits(), imp)
        };
        let answer = |ctx: &mut ScenarioContext<'_>, subset: &[usize]| {
            let score = ctx.evaluate(subset, None).expect("budget available");
            let confirmed = ctx.confirm_on_test(subset);
            bits(score, confirmed, ctx.importances(subset).expect("budget available"))
        };
        let fresh = |sc: &MlScenario, subset: &[usize]| {
            answer(&mut ScenarioContext::new(sc, &split, &settings), subset)
        };
        for model in [
            ModelKind::LogisticRegression,
            ModelKind::GaussianNb,
            ModelKind::DecisionTree,
            ModelKind::LinearSvm,
        ] {
            for hpo in [false, true] {
                let label = format!("{model:?} hpo={hpo}");
                let with = |c: ConstraintSet, seed: u64| MlScenario {
                    model,
                    hpo,
                    seed,
                    ..scenario(c)
                };
                let accuracy = with(ConstraintSet::accuracy_only(0.5, Duration::from_secs(10)), 1);
                let mut c = ConstraintSet::accuracy_only(0.5, Duration::from_secs(10));
                c.min_safety = Some(0.8);
                let safety = with(c, 3);
                // DP scenarios that differ only in the seed or only in ε
                // share no DP fit: the noise differs.
                let dps: Vec<MlScenario> = [(5.0, 1), (5.0, 3), (2.0, 1)]
                    .into_iter()
                    .map(|(eps, seed)| {
                        let mut c = ConstraintSet::accuracy_only(0.5, Duration::from_secs(10));
                        c.privacy_epsilon = Some(eps);
                        with(c, seed)
                    })
                    .collect();

                let cache = Arc::new(ArtifactCache::new());
                // The run's hold: the split's models outlive each context.
                let _hold = cache.hold(&accuracy.dataset, split_fingerprint(&split));
                let shared_ctx = |sc| {
                    ScenarioContext::new(sc, &split, &settings).with_artifacts(Arc::clone(&cache))
                };
                let mut a = shared_ctx(&accuracy);
                for subset in &first {
                    assert_eq!(answer(&mut a, subset), fresh(&accuracy, subset), "{label} first");
                }

                let mut b = shared_ctx(&safety);
                for (i, subset) in second.iter().enumerate() {
                    assert_eq!(answer(&mut b, subset), fresh(&safety, subset), "{label} second");
                    if i + 1 == shared {
                        assert_eq!(b.perf().model_fits, 0, "{label}: shared subsets refit");
                    }
                }
                assert!(b.perf().model_fits > 0, "{label}: the new subset must fit");

                for dp in &dps {
                    let eps = dp.constraints.privacy_epsilon;
                    let label = format!("{label} dp eps={eps:?} seed={}", dp.seed);
                    let mut p = shared_ctx(dp);
                    let before = cache.fit_counts();
                    for (i, subset) in second.iter().enumerate() {
                        let score = p.evaluate(subset, None).expect("budget available");
                        let confirmed = p.confirm_on_test(subset);
                        // Each subset so far: its DP fit missed and was
                        // stored, and its confirmation hit it; the
                        // importances of the earlier ones hit the stored
                        // default.
                        let n = i as u64 + 1;
                        let dp_fits = (before.0 + 2 * n - 1, before.1 + n, before.2 + n);
                        assert_eq!(cache.fit_counts(), dp_fits, "{label}: fits and confirmations");
                        let got = bits(score, confirmed, p.importances(subset).expect("budget"));
                        assert_eq!(got, fresh(dp, subset), "{label}");
                    }
                    // Each DP subset fits once, for its evaluation.
                    assert_eq!(p.perf().model_fits, second.len() as u64, "{label}");
                }
            }
        }
    }

    #[test]
    fn perf_counts_fits_and_cache_hits() {
        let (_, split) = setup();
        let sc = scenario(ConstraintSet::accuracy_only(0.5, Duration::from_secs(10)));
        let settings = ScenarioSettings::fast();
        let mut ctx = ScenarioContext::new(&sc, &split, &settings);
        ctx.evaluate(&[0, 1], None).unwrap();
        ctx.evaluate(&[0, 1], None).unwrap(); // cached
        ctx.evaluate(&[2], None).unwrap();
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
        let cache = Arc::new(ArtifactCache::new());
        let mut a = ScenarioContext::new(&sc, &split, &settings).with_artifacts(Arc::clone(&cache));
        let s1 = a.evaluate(&[0, 1, 2], None).unwrap();
        assert_eq!(a.perf().memo_misses, 1);
        assert_eq!(a.perf().memo_hits, 0);

        // A second context (another arm, row, or server request) reuses
        // the measurement: no training, but the budget is still consumed,
        // so search trajectories stay identical to the naive engine.
        let mut b = ScenarioContext::new(&sc, &split, &settings).with_artifacts(Arc::clone(&cache));
        let s2 = b.evaluate(&[0, 1, 2], None).unwrap();
        assert_eq!(s1.to_bits(), s2.to_bits());
        assert_eq!(b.perf().memo_hits, 1);
        assert_eq!(b.perf().model_fits, 0, "memo hit must not retrain");
        assert_eq!(b.evals_used(), 1, "memo hit still consumes budget");

        // And the memoized value is bit-identical to a context measuring
        // into its own private cache.
        let mut naive = ScenarioContext::new(&sc, &split, &settings);
        let s3 = naive.evaluate(&[0, 1, 2], None).unwrap();
        assert_eq!(s1.to_bits(), s3.to_bits());
    }

    #[test]
    fn memo_keys_on_the_settings_fingerprint() {
        let (_, split) = setup();
        let sc = scenario(ConstraintSet::accuracy_only(0.5, Duration::from_secs(10)));
        let settings = ScenarioSettings::fast();
        let cache = Arc::new(ArtifactCache::new());
        let mut a = ScenarioContext::new(&sc, &split, &settings).with_artifacts(Arc::clone(&cache));
        a.evaluate(&[0, 1], None).unwrap();

        // Same scenario, different measurement configuration: the entry
        // must not be served. The attack settings only touch scoring, so
        // the measurement reuses the stored fit.
        let mut other = ScenarioSettings::fast();
        other.attack.init_trials = 1;
        let mut b = ScenarioContext::new(&sc, &split, &other).with_artifacts(Arc::clone(&cache));
        b.evaluate(&[0, 1], None).unwrap();
        assert_eq!(b.perf().memo_hits, 0, "different settings must miss");
        assert_eq!(b.perf().memo_misses, 1);
        assert_eq!(b.perf().model_fits, 0, "attack settings share the fit");
        assert_eq!(cache.fit_counts().0, 1);
    }

    #[test]
    fn confirm_on_test_is_memoized_across_contexts() {
        let (_, split) = setup();
        let sc = scenario(ConstraintSet::accuracy_only(0.5, Duration::from_secs(10)));
        let settings = ScenarioSettings::fast();
        let cache = Arc::new(ArtifactCache::new());
        let mut a = ScenarioContext::new(&sc, &split, &settings).with_artifacts(Arc::clone(&cache));
        let (eval_a, dist_a) = a.confirm_on_test(&[0, 1, 2]);
        let mut b = ScenarioContext::new(&sc, &split, &settings).with_artifacts(Arc::clone(&cache));
        let (eval_b, dist_b) = b.confirm_on_test(&[0, 1, 2]);
        assert_eq!(eval_a.f1.to_bits(), eval_b.f1.to_bits());
        assert_eq!(dist_a.to_bits(), dist_b.to_bits());
        assert_eq!(b.perf().model_fits, 0, "shared confirmation must not retrain");
        assert_eq!(b.perf().memo_hits, 1);
        // Validation- and test-split measurements never cross-serve: the
        // validation leg misses the memo and is scored afresh, with the
        // model the confirmation stored (a fit never reads either leg).
        let s = b.evaluate(&[0, 1, 2], None).unwrap();
        assert_eq!((b.perf().memo_hits, b.perf().memo_misses), (1, 1), "val-split eval must miss");
        assert_eq!(b.perf().model_fits, 0);
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
        let exact = naive.evaluate(&[0, 1], None).unwrap();
        assert!(exact > 0.0, "min_f1 = 0.99 must be out of reach");

        let mut ctx = ScenarioContext::new(&sc, &split, &settings);
        let lb = ctx.evaluate(&[0, 1], Some(0.0)).unwrap();
        assert_eq!(ctx.perf().bound_skips, 1, "attack should have been skipped");
        assert_eq!(ctx.perf().model_fits, 1);
        assert!(lb > 0.0 && lb <= exact, "lower bound {lb} vs exact {exact}");
        assert!(ctx.cached_evaluation(&[0, 1]).is_none(), "bounded entries are withheld");

        // A still-sufficient incumbent re-serves the bound for free.
        let again = ctx.evaluate(&[0, 1], Some(0.0)).unwrap();
        assert_eq!(again.to_bits(), lb.to_bits());
        assert_eq!(ctx.perf().model_fits, 1);

        // An unbounded query upgrades the entry: budget-free (the naive
        // engine would serve its cache here), scored with the stored fit
        // (only the attack was missing), bit-exact.
        let used = ctx.evals_used();
        let full = ctx.evaluate(&[0, 1], None).unwrap();
        assert_eq!(full.to_bits(), exact.to_bits());
        assert_eq!(ctx.evals_used(), used, "upgrade must be budget-free");
        assert_eq!(ctx.perf().model_fits, 1, "the upgrade must not refit");
        assert!(ctx.cached_evaluation(&[0, 1]).is_some());
    }

    /// The batched multi-objective path answers exactly what a serial
    /// `evaluate_multi` loop latching at the first `None` answers — bits,
    /// work counters and budget — over every admission outcome: an exact
    /// cache hit, a bounded entry upgraded for free, an over-cap subset, a
    /// memo hit, a within-batch duplicate, and a budget that runs out
    /// mid-batch with a duplicate and a fresh subset behind it.
    #[test]
    fn batched_and_serial_multi_objective_evaluation_agree() {
        let (ds, split) = setup();
        let mut c = ConstraintSet::accuracy_only(0.99, Duration::from_secs(600));
        c.min_safety = Some(0.5);
        c.max_feature_frac = Some(3.0 / ds.n_features() as f64 + 1e-9);
        let sc = scenario(c);
        let mut settings = ScenarioSettings::fast();
        settings.max_evals = 7;
        let batch: Vec<Vec<usize>> = vec![
            vec![0, 1],       // exact cache hit
            vec![2, 3],       // bounded entry: upgraded for free
            vec![0, 1, 2, 3], // over the cap: pruned
            vec![4],          // memo hit (spends budget)
            vec![5],          // fresh
            vec![5],          // within-batch duplicate: a cache hit
            vec![6],
            vec![7],
            vec![0, 5], // the last evaluation of the budget
            vec![6],    // exhausted: denied although measured above
            vec![1, 6],
        ];
        let bits = |answers: &[Option<Vec<f64>>]| -> Vec<Option<Vec<u64>>> {
            let bits = |v: &Vec<f64>| v.iter().map(|x| x.to_bits()).collect();
            answers.iter().map(|a| a.as_ref().map(bits)).collect()
        };
        for width in [1, 4] {
            let exec = Arc::new(Executor::new(width));
            let prepared = || {
                let artifacts = Arc::new(ArtifactCache::new());
                // `ctx` holds the split, so the warm-up's memo entry stays.
                let mut ctx = ScenarioContext::new(&sc, &split, &settings)
                    .with_artifacts(Arc::clone(&artifacts))
                    .with_executor(Arc::clone(&exec));
                ScenarioContext::new(&sc, &split, &settings)
                    .with_artifacts(artifacts)
                    .evaluate(&[4], None)
                    .expect("warm-up");
                ctx.evaluate(&[0, 1], None).expect("exact entry");
                ctx.evaluate(&[2, 3], Some(0.0)).expect("bounded entry");
                assert_eq!(ctx.perf().bound_skips, 1, "[2, 3] must be left bounded");
                ctx
            };
            let mut batched = prepared();
            let got = batched.evaluate_multi_batch(&batch);
            let mut serial = prepared();
            let mut denied = false;
            let want: Vec<Option<Vec<f64>>> = batch
                .iter()
                .map(|s| {
                    let answer = if denied { None } else { serial.evaluate_multi(s) };
                    denied = answer.is_none();
                    answer
                })
                .collect();
            assert_eq!(bits(&got), bits(&want), "width {width}");
            assert_eq!(batched.perf(), serial.perf(), "width {width}");
            assert_eq!(batched.evals_used(), serial.evals_used(), "width {width}");
            // Every outcome occurred: nine answers, then denials; two cache
            // hits (the exact entry and the duplicate), one memo hit, and
            // four fits in the batch on top of the two that set it up (the
            // bounded entry's upgrade is scored with its stored fit).
            assert!(want[..9].iter().all(Option::is_some));
            assert!(want[9..].iter().all(Option::is_none));
            let perf = serial.perf();
            assert_eq!((perf.cache_hits, perf.memo_hits, perf.model_fits), (2, 1, 6));
            assert_eq!(serial.evals_used(), settings.max_evals);
        }
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
        let lb = ctx.evaluate_no_prune(&all, Some(0.0)).unwrap();
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
        s2.attack.init_trials = 1;
        assert_ne!(settings_fingerprint(&sc, &s, 100), settings_fingerprint(&sc, &s2, 100));
        assert_ne!(settings_fingerprint(&sc, &s, 100), settings_fingerprint(&sc, &s, 200));
        let mut sc2 = sc.clone();
        sc2.seed = 6;
        assert_ne!(settings_fingerprint(&sc, &s, 100), settings_fingerprint(&sc2, &s, 100));
    }

    /// Every one-field variation of `(sc, st)`: each bool toggled, each
    /// number changed, each `Option` switched between `Some` and `None` and,
    /// when `Some`, its number changed. The structs are destructured without
    /// `..`, so a new field fails to compile here until it gets its flips.
    fn one_field_flips(
        sc: &MlScenario,
        st: &ScenarioSettings,
    ) -> Vec<(&'static str, MlScenario, ScenarioSettings)> {
        let MlScenario {
            // Not a flip: the dataset keys the split's cache entry next to
            // the split fingerprint, outside `settings_fingerprint`.
            dataset: _,
            model,
            hpo,
            constraints,
            utility_f1,
            seed,
        } = sc;
        let ConstraintSet {
            min_f1,
            max_search_time,
            max_feature_frac,
            min_eo,
            min_safety,
            privacy_epsilon,
        } = constraints;
        let ScenarioSettings { max_evals, attack, max_train_rows, bound_pruning } = st;
        let AttackConfig { max_points, init_trials } = attack;

        let toggle = |o: &Option<f64>| if o.is_some() { None } else { Some(0.5) };
        let halve = |o: &Option<f64>| o.map(|v| v / 2.0);
        let kinds = [
            ModelKind::LogisticRegression,
            ModelKind::GaussianNb,
            ModelKind::DecisionTree,
            ModelKind::LinearSvm,
        ];
        let next_kind = kinds[(kinds.iter().position(|k| k == model).unwrap_or(0) + 1) % 4];
        let scenario = |label, s: MlScenario| (label, s, st.clone());
        let constraint = |label, c: ConstraintSet| {
            (label, MlScenario { constraints: c, ..sc.clone() }, st.clone())
        };
        let setting = |label, t: ScenarioSettings| (label, sc.clone(), t);
        let attack_setting = |label, a: AttackConfig| {
            (label, sc.clone(), ScenarioSettings { attack: a, ..st.clone() })
        };
        let c = || constraints.clone();
        let a = || attack.clone();
        vec![
            scenario("model", MlScenario { model: next_kind, ..sc.clone() }),
            scenario("hpo", MlScenario { hpo: !hpo, ..sc.clone() }),
            scenario("utility_f1", MlScenario { utility_f1: !utility_f1, ..sc.clone() }),
            scenario("seed", MlScenario { seed: seed + 1, ..sc.clone() }),
            constraint("min_f1", ConstraintSet { min_f1: min_f1 - 0.1, ..c() }),
            constraint(
                "max_search_time",
                ConstraintSet { max_search_time: *max_search_time * 2, ..c() },
            ),
            constraint(
                "max_feature_frac toggled",
                ConstraintSet { max_feature_frac: toggle(max_feature_frac), ..c() },
            ),
            constraint(
                "max_feature_frac changed",
                ConstraintSet { max_feature_frac: halve(max_feature_frac), ..c() },
            ),
            constraint("min_eo toggled", ConstraintSet { min_eo: toggle(min_eo), ..c() }),
            constraint("min_eo changed", ConstraintSet { min_eo: halve(min_eo), ..c() }),
            constraint(
                "min_safety toggled",
                ConstraintSet { min_safety: toggle(min_safety), ..c() },
            ),
            constraint(
                "min_safety changed",
                ConstraintSet { min_safety: halve(min_safety), ..c() },
            ),
            constraint(
                "privacy_epsilon toggled",
                ConstraintSet { privacy_epsilon: toggle(privacy_epsilon), ..c() },
            ),
            constraint(
                "privacy_epsilon changed",
                ConstraintSet { privacy_epsilon: halve(privacy_epsilon), ..c() },
            ),
            setting("max_evals", ScenarioSettings { max_evals: max_evals + 1, ..st.clone() }),
            setting(
                "max_train_rows",
                ScenarioSettings { max_train_rows: max_train_rows + 1, ..st.clone() },
            ),
            setting(
                "bound_pruning",
                ScenarioSettings { bound_pruning: !bound_pruning, ..st.clone() },
            ),
            attack_setting("attack.max_points", AttackConfig { max_points: max_points + 1, ..a() }),
            // One trial, not one more: a ninth trial changes no safety on
            // this split, so a dropped `init_trials` mix would go unseen.
            attack_setting(
                "attack.init_trials",
                AttackConfig { init_trials: if *init_trials == 1 { 8 } else { 1 }, ..a() },
            ),
        ]
    }

    /// Without DP, exactly the model, HPO and train-row-cap flips (and
    /// declaring an ε) change the fit key; with DP, the seed and ε flips
    /// change it too, since the DP noise seed derives from them. Only the
    /// model and train-cap flips change the default-fit key RFE ranks by,
    /// and the memo key still changes on the flips it always changed on.
    #[test]
    fn only_model_hpo_and_train_cap_flips_change_the_fit_key() {
        let (_, split) = setup();
        let mut settings = ScenarioSettings::fast();
        settings.max_train_rows = 100;
        assert!(split.train.n_rows() > settings.max_train_rows + 1);
        let mut c = ConstraintSet::accuracy_only(0.6, Duration::from_secs(10));
        c.max_feature_frac = Some(0.8);
        c.min_eo = Some(0.8);
        c.min_safety = Some(0.8);
        let flips = |sc: &MlScenario| {
            let base = ScenarioContext::new(sc, &split, &settings);
            let (mut fit, mut default_fit, mut memo) = (Vec::new(), Vec::new(), Vec::new());
            for (label, flipped_sc, flipped_st) in one_field_flips(sc, &settings) {
                let flipped = ScenarioContext::new(&flipped_sc, &split, &flipped_st);
                for (changed, keys) in [
                    (flipped.fit_key != base.fit_key, &mut fit),
                    (flipped.default_fit_key != base.default_fit_key, &mut default_fit),
                    (flipped.settings_key != base.settings_key, &mut memo),
                ] {
                    if changed {
                        keys.push(label);
                    }
                }
            }
            (base.fit_key == base.default_fit_key, fit, default_fit, memo)
        };

        let (fit_is_default, fit, default_fit, _) = flips(&scenario(c.clone()));
        assert!(fit_is_default, "without HPO or DP the fit is the default");
        assert_eq!(fit, ["model", "hpo", "privacy_epsilon toggled", "max_train_rows"]);
        assert_eq!(default_fit, ["model", "max_train_rows"]);

        c.privacy_epsilon = Some(5.0);
        let (fit_is_default, fit, default_fit, memo) = flips(&scenario(c));
        assert!(!fit_is_default, "a DP fit is not the default");
        assert_eq!(
            fit,
            [
                "model",
                "hpo",
                "seed",
                "privacy_epsilon toggled",
                "privacy_epsilon changed",
                "max_train_rows"
            ]
        );
        assert_eq!(default_fit, ["model", "max_train_rows"]);
        assert_eq!(
            memo,
            [
                "model",
                "hpo",
                "seed",
                "min_eo toggled",
                "min_safety toggled",
                "privacy_epsilon toggled",
                "privacy_epsilon changed",
                "max_train_rows",
                "attack.max_points",
                "attack.init_trials",
            ]
        );
    }

    /// The memo key is sound by test: flipping any one field of the
    /// scenario or the settings either changes the settings fingerprint or
    /// leaves the measured `Evaluation` of a fixed subset bit-identical on
    /// validation and on test. Covers every model kind, with Min EO and Min
    /// Safety declared, with and without a DP ε, on a row cap below the
    /// split height.
    #[test]
    fn every_field_flip_changes_the_fingerprint_or_no_measurement() {
        let (ds, split) = setup();
        let mut settings = ScenarioSettings::fast();
        settings.max_train_rows = 100;
        assert!(split.train.n_rows() > settings.max_train_rows + 1);
        let subset: Vec<usize> = (0..ds.n_features()).step_by(2).collect();
        let key_and_bits = |sc: &MlScenario, st: &ScenarioSettings| {
            let ctx = ScenarioContext::new(sc, &split, st);
            let env = ctx.env();
            let bits = [false, true].map(|on_test| {
                let mut perf = EvalPerf::default();
                let mut scratch = Scratch::default();
                let e = measure_subset(&env, &subset, on_test, &mut scratch, &mut perf, None).eval;
                (e.f1.to_bits(), e.eo.map(f64::to_bits), e.safety.map(f64::to_bits), e.n_selected)
            });
            (ctx.settings_key, bits)
        };
        let (mut rekeyed, mut remeasured) = (0, 0);
        for model in [
            ModelKind::LogisticRegression,
            ModelKind::GaussianNb,
            ModelKind::DecisionTree,
            ModelKind::LinearSvm,
        ] {
            for dp in [None, Some(5.0)] {
                let mut c = ConstraintSet::accuracy_only(0.6, Duration::from_secs(10));
                c.max_feature_frac = Some(0.8);
                c.min_eo = Some(0.8);
                c.min_safety = Some(0.8);
                c.privacy_epsilon = dp;
                let mut sc = scenario(c);
                sc.model = model;
                let (key, bits) = key_and_bits(&sc, &settings);
                for (label, flipped_sc, flipped_st) in one_field_flips(&sc, &settings) {
                    let flipped = ScenarioContext::new(&flipped_sc, &split, &flipped_st);
                    if flipped.settings_key != key {
                        rekeyed += 1;
                        continue;
                    }
                    remeasured += 1;
                    assert_eq!(
                        key_and_bits(&flipped_sc, &flipped_st).1,
                        bits,
                        "{model:?} dp={dp:?}: flipping {label} keeps the fingerprint but changes \
                         the measurement"
                    );
                }
            }
        }
        // Both outcomes occur, so neither branch is vacuous.
        assert!(rekeyed > 0 && remeasured > 0, "rekeyed {rekeyed}, remeasured {remeasured}");
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
            let seed = derive_seed(env.scenario.seed, 0xA77AC4 ^ hash_subset(subset));
            let predict = |row: &[f64]| model.predict_one(row);
            empirical_safety(&predict, &x_eval, &part.y, &env.settings.attack, seed)
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
        // Holds the split across the contexts, so they share one bin set.
        let _hold = artifacts.hold("tiny", split_fingerprint(&split));
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
                            None,
                        )
                        .eval;
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
        let score = ctx.evaluate(&subset, None).unwrap();
        let eval = ctx.cached_evaluation(&subset).unwrap();
        if eval.f1 >= 0.3 {
            assert!(score < 0.0, "satisfied utility objective must be negative");
            assert!((score + eval.f1).abs() < 1e-12);
        }
    }
}
