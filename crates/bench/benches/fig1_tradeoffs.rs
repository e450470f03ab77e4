//! **Figure 1** — the motivating trade-off scatter: accuracy (F1) against
//! equal opportunity, feature-set size, and safety for LR, NB and DT on the
//! COMPAS dataset, one point per random feature subset.
//!
//! The paper plots dots; this harness prints the series (one row per
//! subset) plus the correlation summary that the figure conveys: EO, size
//! and safety each trade off against accuracy, for every model.
//!
//! Run: `cargo bench --bench fig1_tradeoffs`

use dfs_bench::ok_or_exit;
use dfs_bench::corpus::{bench_settings, build_splits, CorpusConfig};
use dfs_bench::print_table;
use dfs_core::prelude::*;
use dfs_core::scenario::ScenarioContext;
use dfs_linalg::rng::{sample_without_replacement, Rng};
use dfs_linalg::stats::pearson;
use std::time::Duration;

fn main() {
    let cfg = CorpusConfig::default();
    let splits = ok_or_exit(build_splits(&cfg));
    let split = &splits["compas"];
    let settings = bench_settings();
    let d = split.n_features();
    let subsets_per_model = 40usize;

    let mut rng = Rng::seed_from_u64(1);
    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut summaries: Vec<Vec<String>> = Vec::new();

    for model in ModelKind::PRIMARY {
        // Constraints exist only to force measuring EO and safety; the
        // thresholds are irrelevant for the scatter.
        let mut constraints = ConstraintSet::accuracy_only(0.99, Duration::from_secs(600));
        constraints.min_eo = Some(0.99);
        constraints.min_safety = Some(0.99);
        let scenario = MlScenario {
            dataset: "compas".into(),
            model,
            hpo: false,
            constraints,
            utility_f1: false,
            seed: 4242,
        };
        let mut settings = settings.clone();
        settings.max_evals = subsets_per_model + 4;
        let mut ctx = ScenarioContext::new(&scenario, split, &settings);

        let (mut f1s, mut eos, mut sizes, mut safeties) =
            (Vec::new(), Vec::new(), Vec::new(), Vec::new());
        for _ in 0..subsets_per_model {
            let k = 1 + rng.below(d);
            let mut subset = sample_without_replacement(d, k, &mut rng);
            subset.sort_unstable();
            if ctx.evaluate(&subset, None).is_none() {
                break;
            }
            let eval = ctx.cached_evaluation(&subset).expect("just evaluated");
            f1s.push(eval.f1);
            eos.push(eval.eo.unwrap_or(1.0));
            sizes.push(eval.n_selected as f64 / d as f64);
            safeties.push(eval.safety.unwrap_or(1.0));
            rows.push(vec![
                model.short_name().into(),
                format!("{}", eval.n_selected),
                format!("{:.3}", eval.f1),
                format!("{:.3}", eval.eo.unwrap_or(1.0)),
                format!("{:.3}", eval.safety.unwrap_or(1.0)),
            ]);
        }
        // Per-model spread + correlation summary (what Figure 1 shows:
        // different subsets reach very different trade-offs).
        let spread = |v: &[f64]| {
            let lo = v.iter().cloned().fold(f64::INFINITY, f64::min);
            let hi = v.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            format!("{lo:.2}..{hi:.2}")
        };
        summaries.push(vec![
            model.short_name().into(),
            spread(&f1s),
            spread(&eos),
            spread(&safeties),
            format!("{:.2}", pearson(&sizes, &safeties)),
            format!("{:.2}", pearson(&sizes, &f1s)),
        ]);
    }

    print_table(
        "Figure 1 (series): per-subset metrics on COMPAS",
        &["Model", "#features", "F1", "EO", "Safety"],
        &rows,
    );
    print_table(
        "Figure 1 (summary): achievable ranges per model + correlations",
        &["Model", "F1 range", "EO range", "Safety range", "corr(size, safety)", "corr(size, F1)"],
        &summaries,
    );
    println!(
        "\n[shape-check] paper: across models, feature subsets span wide EO/safety ranges; more \
         features help accuracy (positive corr) and hurt safety (negative corr). Check the \
         summary columns above."
    );
}
