//! Privacy scenario: train ε-differentially-private models and watch the
//! privacy/accuracy/feature-count interplay.
//!
//! ```text
//! cargo run --release --example privacy_adult
//! ```
//!
//! When the user declares a privacy budget ε, DFS trains the DP variant of
//! the model (the constraint holds *by construction*, § 3 of the paper).
//! DP noise grows with the number of features, so privacy-constrained
//! scenarios favour small feature sets — the effect behind the paper's
//! finding that forward selection dominates under Min Privacy (Table 5).

use dfs_repro::core::prelude::*;
use dfs_repro::core::scenario::ScenarioContext;
use dfs_repro::data::split::stratified_three_way;
use dfs_repro::data::synthetic::{generate, spec_by_name};
use std::time::Duration;

fn main() {
    let spec = spec_by_name("adult").expect("suite dataset");
    let dataset = generate(&spec, 11);
    let split = stratified_three_way(&dataset, 11);
    let d = split.n_features();

    // Part 1: accuracy of the DP model vs epsilon and feature count
    // (averaged over several independent noise draws per cell).
    println!("DP logistic regression F1 on validation (dataset: adult-like, {d} features)");
    println!("{:<10} {:>12} {:>12} {:>12}", "epsilon", "4 features", "16 features", "all features");
    for eps in [0.1, 1.0, 10.0, 100.0] {
        let mut row = format!("{eps:<10}");
        for k in [4usize, 16, d] {
            let mut total = 0.0;
            let draws = 7;
            for rep in 0..draws {
                let mut constraints = ConstraintSet::accuracy_only(0.99, Duration::from_secs(30));
                constraints.privacy_epsilon = Some(eps);
                let scenario = MlScenario {
                    dataset: dataset.name.clone(),
                    model: ModelKind::LogisticRegression,
                    hpo: false,
                    constraints,
                    utility_f1: false,
                    seed: eps.to_bits() ^ rep,
                };
                let settings = ScenarioSettings::default_bench();
                let mut ctx = ScenarioContext::new(&scenario, &split, &settings);
                // The first k features include the informative block.
                let subset: Vec<usize> = (1..=k.min(d - 1)).collect();
                ctx.evaluate(&subset, None).expect("budget");
                total += ctx.cached_evaluation(&subset).expect("cached").f1;
            }
            row.push_str(&format!(" {:>12.3}", total / draws as f64));
        }
        println!("{row}");
    }
    println!("(smaller ε = stronger privacy = more noise; wide feature sets amplify it)\n");

    // Part 2: a declarative privacy scenario end to end.
    let mut constraints = ConstraintSet::accuracy_only(0.6, Duration::from_secs(2));
    constraints.privacy_epsilon = Some(2.0);
    let scenario = MlScenario {
        dataset: dataset.name.clone(),
        model: ModelKind::LogisticRegression,
        hpo: false,
        constraints,
        utility_f1: false,
        seed: 99,
    };
    let settings = ScenarioSettings::default_bench();
    for strategy in [StrategyId::Sffs, StrategyId::Sbs] {
        let outcome = run_dfs(&scenario, &split, &settings, strategy);
        println!(
            "{:<10} under ε = 2: {} (subset size {:?}, {} evaluations, {:?})",
            strategy.name(),
            if outcome.success { "SATISFIED" } else { "failed" },
            outcome.subset.as_ref().map(|s| s.len()),
            outcome.evaluations,
            outcome.elapsed,
        );
    }
    println!("(forward selection reaches small DP-friendly subsets before the budget dies)");
}
