//! Ablations of the design choices DESIGN.md calls out, plus the paper's
//! future-work extension:
//!
//! 1. **Evaluation-independent pruning** (Table 1): how much cheaper a
//!    size-capped search is when over-cap subsets are scored without
//!    training (`evaluate`) vs. the wrapper way (`evaluate_no_prune`,
//!    which is what plain backward selection is stuck with).
//! 2. **Dynamic strategy switching** (§ 7 future work): the `auto`
//!    strategy with its stall detector vs. two of its static members, as
//!    three arms of one benchmark matrix (one shared cache).
//!
//! Run: `cargo bench --bench ablation_extensions`

use dfs_bench::ok_or_exit;
use dfs_bench::corpus::{bench_settings, build_splits, CorpusConfig};
use dfs_bench::print_table;
use dfs_core::prelude::*;
use dfs_core::scenario::ScenarioContext;
use dfs_fs::SubsetEvaluator;
use std::time::Duration;

fn main() {
    let cfg = CorpusConfig::default();
    let splits = ok_or_exit(build_splits(&cfg));
    let settings = bench_settings();

    // --- Ablation 1: pruning vs wrapper on over-cap subsets. -------------
    let split = &splits["adult"];
    let d = split.n_features();
    let mut constraints = ConstraintSet::accuracy_only(0.6, Duration::from_secs(30));
    constraints.max_feature_frac = Some(0.1); // cap ~9 of 91 features
    let scenario = MlScenario {
        dataset: "adult".into(),
        model: ModelKind::LogisticRegression,
        hpo: false,
        constraints,
        utility_f1: false,
        seed: 404,
    };
    let over_cap: Vec<Vec<usize>> =
        (0..40).map(|k| ((k % 10)..(d / 2 + k % 10)).collect()).collect();

    let mut rows = Vec::new();
    for (label, prune) in [("pruned (Table 1 optimization)", true), ("wrapper (SBS's reality)", false)] {
        let mut ctx = ScenarioContext::new(&scenario, split, &settings);
        let t = std::time::Instant::now();
        for subset in &over_cap {
            if prune {
                ctx.evaluate(subset, None);
            } else {
                ctx.evaluate_no_prune(subset, None);
            }
        }
        rows.push(vec![
            label.to_string(),
            format!("{:?}", t.elapsed()),
            format!("{}", ctx.evals_used()),
        ]);
    }
    print_table(
        "Ablation 1: scoring 40 over-cap subsets (adult, 10% feature cap)",
        &["mode", "elapsed", "budget consumed"],
        &rows,
    );

    // --- Ablation 2: dynamic switching vs static strategies. -------------
    let sampler = SamplerConfig {
        time_range: (Duration::from_millis(150), Duration::from_millis(800)),
        hpo: false,
        utility_f1: false,
    };
    let mut rng = dfs_linalg::rng::Rng::seed_from_u64(2024);
    let mut scenarios = Vec::new();
    for name in ["compas", "german_credit", "telco_churn"] {
        for k in 0..6 {
            let mut s = sample_scenario(name, &sampler, &mut rng, k);
            s.constraints.min_f1 = s.constraints.min_f1.min(0.75);
            scenarios.push(s);
        }
    }

    let arms = [StrategyId::Sffs, StrategyId::TpeNr, StrategyId::Switching].map(Arm::Strategy);
    let n = scenarios.len();
    let matrix = run_benchmark(&splits, scenarios, &arms, &settings, cfg.threads);
    let rows: Vec<Vec<String>> = arms
        .iter()
        .enumerate()
        .map(|(i, arm)| {
            let wins = matrix.results.iter().filter(|row| row[i].success).count();
            vec![arm.name(), format!("{wins}/{n}")]
        })
        .collect();
    print_table(
        "Ablation 2: dynamic switching (stall detector) vs static strategies",
        &["arm", "scenarios satisfied"],
        &rows,
    );
    println!(
        "\n[shape-check] pruning must consume zero budget and be orders of magnitude faster; \
         auto should match or beat its best member (it subsumes SFFS and TPE(NR))."
    );
}
