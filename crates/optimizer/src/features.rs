//! Scenario featurization `ρ(D, φ, C)` and subsampling-based landmarking.

use dfs_core::MlScenario;
use dfs_data::split::{stratified_k_fold, Split};
use dfs_linalg::rng::{derive_seed, sample_without_replacement, Rng};
use dfs_metrics::{empirical_safety, equal_opportunity, f1_score, AttackConfig};
use dfs_models::{ModelKind, ModelSpec};

/// Featurization knobs.
#[derive(Debug, Clone)]
pub struct FeaturizerConfig {
    /// Landmark sample size (paper: 100 — "the size of the smallest
    /// training set in our benchmark").
    pub landmark_sample: usize,
    /// Cross-validation folds for landmarking.
    pub folds: usize,
    /// Attack budget for the safety landmark (tiny: the landmark is a
    /// *prior*, not a measurement).
    pub attack: AttackConfig,
}

impl Default for FeaturizerConfig {
    fn default() -> Self {
        Self {
            landmark_sample: 100,
            folds: 3,
            attack: AttackConfig { max_points: 4, init_trials: 6 },
        }
    }
}

/// Cross-validated full-feature-set metrics on a small stratified sample.
#[derive(Debug, Clone, Copy)]
pub struct Landmark {
    /// CV F1 of the scenario's model with default hyperparameters.
    pub f1: f64,
    /// CV equal opportunity.
    pub eo: f64,
    /// CV empirical safety (tiny attack budget).
    pub safety: f64,
}

/// Subsampling-based landmarking (Fürnkranz & Petrak): metrics of the
/// *original* feature set estimated by k-fold CV over a class-stratified
/// sample of the training split.
pub fn landmark(scenario: &MlScenario, split: &Split, cfg: &FeaturizerConfig) -> Landmark {
    let train = &split.train;
    let n = train.n_rows();
    let take = cfg.landmark_sample.min(n);
    let mut rng = Rng::seed_from_u64(derive_seed(scenario.seed, 0x1A9D));
    let mut rows = sample_without_replacement(n, take, &mut rng);
    rows.sort_unstable();
    let sample = train.select_rows(&rows);

    let folds = stratified_k_fold(&sample.y, cfg.folds.max(2), derive_seed(scenario.seed, 0xF01D));
    let spec = ModelSpec::default_for(scenario.model);

    let mut f1_acc = 0.0;
    let mut eo_acc = 0.0;
    let mut safety_acc = 0.0;
    let mut used = 0usize;
    for (k, fold) in folds.iter().enumerate() {
        if fold.is_empty() {
            continue;
        }
        let train_rows: Vec<usize> =
            (0..sample.n_rows()).filter(|i| !fold.contains(i)).collect();
        if train_rows.is_empty() {
            continue;
        }
        let tr = sample.select_rows(&train_rows);
        // Folds need both classes to train every model family.
        if tr.y.iter().all(|&b| b) || tr.y.iter().all(|&b| !b) {
            continue;
        }
        let te = sample.select_rows(fold);
        let model = spec.fit(&tr.x, &tr.y);
        let preds = model.predict(&te.x);
        f1_acc += f1_score(&preds, &te.y);
        eo_acc += equal_opportunity(&preds, &te.y, &te.protected);
        let seed = derive_seed(scenario.seed, 0xBEEF ^ k as u64);
        let predict = |row: &[f64]| model.predict_one(row);
        safety_acc += empirical_safety(&predict, &te.x, &te.y, &cfg.attack, seed);
        used += 1;
    }
    if used == 0 {
        return Landmark { f1: 0.0, eo: 1.0, safety: 1.0 };
    }
    let k = used as f64;
    Landmark { f1: f1_acc / k, eo: eo_acc / k, safety: safety_acc / k }
}

/// Builds the full feature vector
/// `ρ = [ρ_data, ρ_model, ρ_constraints, ρ_hardness]` (length 15).
pub fn featurize(scenario: &MlScenario, split: &Split, cfg: &FeaturizerConfig) -> Vec<f64> {
    let c = &scenario.constraints;
    let lm = landmark(scenario, split, cfg);

    let mut x = Vec::with_capacity(15);
    // ρ_data: log-scaled size features (raw counts span 4 orders of
    // magnitude; trees split fine either way, log keeps them comparable).
    x.push((split.train.n_rows() as f64).ln_1p());
    x.push((split.n_features() as f64).ln_1p());
    // ρ_model: one-hot over the primary models (SVM never queries the
    // optimizer in the benchmark).
    for kind in ModelKind::PRIMARY {
        x.push((scenario.model == kind) as u8 as f64);
    }
    // ρ_constraints: the six declared constraints. Absent optional
    // constraints use their neutral value (feature fraction 1, EO/safety 0,
    // ε → 0 strength).
    x.push(c.min_f1);
    x.push(c.max_search_time.as_secs_f64().ln_1p());
    x.push(c.max_feature_frac.unwrap_or(1.0));
    x.push(c.min_eo.unwrap_or(0.0));
    x.push(c.min_safety.unwrap_or(0.0));
    // Privacy strength: 1/(1+ε) maps "no privacy" to 0 and "strict" to ~1.
    x.push(c.privacy_epsilon.map(|eps| 1.0 / (1.0 + eps)).unwrap_or(0.0));
    // ρ_hardness: landmark minus threshold per evaluation-dependent
    // constraint, plus the size headroom.
    x.push(lm.f1 - c.min_f1);
    x.push(lm.eo - c.min_eo.unwrap_or(0.0));
    x.push(lm.safety - c.min_safety.unwrap_or(0.0));
    x.push(c.max_feature_frac.unwrap_or(1.0) - 1.0); // full set uses 100%
    debug_assert_eq!(x.len(), 15);
    x
}

#[cfg(test)]
mod tests {
    use super::*;
    use dfs_constraints::ConstraintSet;
    use dfs_data::split::stratified_three_way;
    use dfs_data::synthetic::{generate, tiny_spec};
    use std::time::Duration;

    fn setup() -> Split {
        stratified_three_way(&generate(&tiny_spec(), 4), 4)
    }

    fn scenario(model: ModelKind, constraints: ConstraintSet) -> MlScenario {
        MlScenario {
            dataset: "tiny".into(),
            model,
            hpo: false,
            constraints,
            utility_f1: false,
            seed: 6,
        }
    }

    #[test]
    fn landmark_metrics_are_in_range_and_deterministic() {
        let split = setup();
        let sc = scenario(
            ModelKind::DecisionTree,
            ConstraintSet::accuracy_only(0.5, Duration::from_secs(1)),
        );
        let cfg = FeaturizerConfig::default();
        let a = landmark(&sc, &split, &cfg);
        assert!((0.0..=1.0).contains(&a.f1));
        assert!((0.0..=1.0).contains(&a.eo));
        assert!((0.0..=1.0).contains(&a.safety));
        let b = landmark(&sc, &split, &cfg);
        assert_eq!(a.f1, b.f1);
        assert_eq!(a.eo, b.eo);
        assert_eq!(a.safety, b.safety);
    }

    #[test]
    fn landmark_f1_is_informative_on_learnable_data() {
        let split = setup();
        let sc = scenario(
            ModelKind::LogisticRegression,
            ConstraintSet::accuracy_only(0.5, Duration::from_secs(1)),
        );
        let lm = landmark(&sc, &split, &FeaturizerConfig::default());
        assert!(lm.f1 > 0.5, "landmark F1 {}", lm.f1);
    }

    #[test]
    fn feature_vector_has_fixed_layout() {
        let split = setup();
        let mut c = ConstraintSet::accuracy_only(0.7, Duration::from_secs(2));
        c.min_eo = Some(0.9);
        c.privacy_epsilon = Some(1.0);
        let sc = scenario(ModelKind::GaussianNb, c);
        let x = featurize(&sc, &split, &FeaturizerConfig::default());
        assert_eq!(x.len(), 15);
        // Model one-hot: NB is index 1 of PRIMARY.
        assert_eq!(&x[2..5], &[0.0, 1.0, 0.0]);
        // min_f1 slot.
        assert_eq!(x[5], 0.7);
        // EO slot and privacy strength.
        assert_eq!(x[8], 0.9);
        assert!((x[10] - 0.5).abs() < 1e-12); // 1/(1+1)
    }

    #[test]
    fn hardness_reflects_threshold_difficulty() {
        let split = setup();
        let easy = scenario(
            ModelKind::LogisticRegression,
            ConstraintSet::accuracy_only(0.5, Duration::from_secs(1)),
        );
        let mut hard_c = ConstraintSet::accuracy_only(0.99, Duration::from_secs(1));
        hard_c.min_eo = None;
        let hard = scenario(ModelKind::LogisticRegression, hard_c);
        let cfg = FeaturizerConfig::default();
        let xe = featurize(&easy, &split, &cfg);
        let xh = featurize(&hard, &split, &cfg);
        // Hardness slot 11 = landmark_f1 - min_f1: lower for the hard one.
        assert!(xh[11] < xe[11]);
    }
}
