//! Fairness metrics.
//!
//! The paper embeds fairness as the **equal opportunity** (EO) metric of
//! Hardt et al. (2016):
//!
//! ```text
//! EO = 1 − |P_minority(ŷ = 1 | y = 1) − P_majority(ŷ = 1 | y = 1)|
//! ```
//!
//! i.e. predictions are fair when the true-positive rates of the minority
//! and the majority group are similar. EO = 1 is perfectly fair.

/// True-positive rate restricted to instances where `in_group` holds.
///
/// Returns `None` when the group has no positive instances (TPR undefined).
pub fn group_tpr(predicted: &[bool], actual: &[bool], group: &[bool], in_group: bool) -> Option<f64> {
    assert_eq!(predicted.len(), actual.len(), "group_tpr: length mismatch");
    assert_eq!(predicted.len(), group.len(), "group_tpr: group length mismatch");
    let mut tp = 0usize;
    let mut pos = 0usize;
    for i in 0..predicted.len() {
        if group[i] == in_group && actual[i] {
            pos += 1;
            if predicted[i] {
                tp += 1;
            }
        }
    }
    if pos == 0 {
        None
    } else {
        Some(tp as f64 / pos as f64)
    }
}

/// Equal opportunity in `[0, 1]`; higher is fairer.
///
/// `group[i]` is `true` for minority-group instances. When either group has
/// no positive instances the TPR gap is undefined; we follow the
/// benign convention of returning `1.0` (nothing measurable to violate),
/// which matches how scenario sampling avoids degenerate groups.
pub fn equal_opportunity(predicted: &[bool], actual: &[bool], group: &[bool]) -> f64 {
    match (
        group_tpr(predicted, actual, group, true),
        group_tpr(predicted, actual, group, false),
    ) {
        (Some(minority), Some(majority)) => 1.0 - (minority - majority).abs(),
        _ => 1.0,
    }
}


/// Statistical parity: `1 − |P_minority(ŷ=1) − P_majority(ŷ=1)|`.
///
/// Unlike EO it conditions on nothing — it compares raw positive-prediction
/// rates. Groups with no members follow the same benign convention as EO.
pub fn statistical_parity(predicted: &[bool], group: &[bool]) -> f64 {
    assert_eq!(predicted.len(), group.len(), "statistical_parity: length mismatch");
    let rate = |in_group: bool| -> Option<f64> {
        let mut pos = 0usize;
        let mut n = 0usize;
        for i in 0..predicted.len() {
            if group[i] == in_group {
                n += 1;
                if predicted[i] {
                    pos += 1;
                }
            }
        }
        if n == 0 {
            None
        } else {
            Some(pos as f64 / n as f64)
        }
    };
    match (rate(true), rate(false)) {
        (Some(minority), Some(majority)) => 1.0 - (minority - majority).abs(),
        _ => 1.0,
    }
}

/// Generalized entropy index of Speicher et al. (2018) with α = 2, over the
/// per-instance benefit `b_i = ŷ_i − y_i + 1` (their canonical choice).
///
/// Measures *individual + group* unfairness jointly: 0 means everyone
/// received the same benefit; larger values mean more unequal treatment.
/// This is an inequality measure (lower is fairer), not a `[0, 1]` score.
pub fn generalized_entropy_index(predicted: &[bool], actual: &[bool]) -> f64 {
    assert_eq!(predicted.len(), actual.len(), "generalized_entropy_index: length mismatch");
    if predicted.is_empty() {
        return 0.0;
    }
    let benefits: Vec<f64> = predicted
        .iter()
        .zip(actual)
        .map(|(&p, &a)| p as u8 as f64 - a as u8 as f64 + 1.0)
        .collect();
    let mean = benefits.iter().sum::<f64>() / benefits.len() as f64;
    if mean <= 0.0 {
        return 0.0;
    }
    // GE(α=2) = 1/(n·α·(α−1)) Σ ((b_i/μ)^α − 1)
    let n = benefits.len() as f64;
    benefits.iter().map(|b| (b / mean).powi(2) - 1.0).sum::<f64>() / (2.0 * n)
}

/// Ratio of observational discrimination (after Salimi et al., 2019):
/// `min(r_min, r_maj) / max(r_min, r_maj)` of the groups' positive
/// prediction rates among *actual positives* — a ratio-form counterpart of
/// EO, 1 when both groups' qualified members are treated alike.
pub fn discrimination_ratio(predicted: &[bool], actual: &[bool], group: &[bool]) -> f64 {
    match (
        group_tpr(predicted, actual, group, true),
        group_tpr(predicted, actual, group, false),
    ) {
        (Some(a), Some(b)) => {
            let (lo, hi) = if a < b { (a, b) } else { (b, a) };
            if hi <= 0.0 {
                1.0 // nobody qualified got a positive: equally (un)treated
            } else {
                lo / hi
            }
        }
        _ => 1.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const T: bool = true;
    const F: bool = false;

    #[test]
    fn perfectly_fair_predictions() {
        // Both groups have TPR 1.
        let pred = [T, T, T, T];
        let actual = [T, T, T, T];
        let group = [T, T, F, F];
        assert_eq!(equal_opportunity(&pred, &actual, &group), 1.0);
    }

    #[test]
    fn maximally_unfair_predictions() {
        // Minority TPR 0, majority TPR 1.
        let pred = [F, F, T, T];
        let actual = [T, T, T, T];
        let group = [T, T, F, F];
        assert_eq!(equal_opportunity(&pred, &actual, &group), 0.0);
    }

    #[test]
    fn partial_gap() {
        // Minority TPR 1/2, majority TPR 1 -> EO = 0.5.
        let pred = [T, F, T, T];
        let actual = [T, T, T, T];
        let group = [T, T, F, F];
        assert!((equal_opportunity(&pred, &actual, &group) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn eo_ignores_negatives() {
        // Negatives (actual = F) must not affect EO.
        let pred = [T, T, F, F, T, F];
        let actual = [T, T, F, F, T, F];
        let group = [T, F, T, F, F, T];
        let base = equal_opportunity(&pred, &actual, &group);
        let pred2 = [T, T, T, T, T, T]; // flip predictions on negatives only
        assert_eq!(base, equal_opportunity(&pred2, &actual, &group));
    }

    #[test]
    fn degenerate_group_defaults_to_fair() {
        // No minority positives at all.
        let pred = [T, F];
        let actual = [T, F];
        let group = [F, T];
        assert_eq!(equal_opportunity(&pred, &actual, &group), 1.0);
        assert_eq!(group_tpr(&pred, &actual, &group, true), None);
    }


    #[test]
    fn statistical_parity_measures_rate_gap() {
        // Minority gets 1/2 positives, majority 1/1 -> parity 0.5.
        let pred = [T, F, T];
        let group = [T, T, F];
        assert!((statistical_parity(&pred, &group) - 0.5).abs() < 1e-12);
        // Equal rates -> 1.
        assert_eq!(statistical_parity(&[T, T], &[T, F]), 1.0);
        // Degenerate group -> benign 1.
        assert_eq!(statistical_parity(&[T, F], &[T, T]), 1.0);
    }

    #[test]
    fn gei_zero_for_uniform_benefit_and_positive_for_unequal() {
        // Perfect predictions: everyone benefit 1 -> GEI 0.
        let y = [T, F, T, F];
        assert_eq!(generalized_entropy_index(&y, &y), 0.0);
        // Mixed errors create inequality.
        let pred = [T, T, F, F];
        let actual = [T, F, T, F];
        assert!(generalized_entropy_index(&pred, &actual) > 0.0);
        // Empty input.
        assert_eq!(generalized_entropy_index(&[], &[]), 0.0);
    }

    #[test]
    fn discrimination_ratio_is_bounded_and_symmetric() {
        let pred = [T, F, T, T];
        let actual = [T, T, T, T];
        let group = [T, T, F, F];
        // Minority TPR 1/2, majority 1 -> ratio 0.5.
        assert!((discrimination_ratio(&pred, &actual, &group) - 0.5).abs() < 1e-12);
        let flipped: Vec<bool> = group.iter().map(|&g| !g).collect();
        assert!(
            (discrimination_ratio(&pred, &actual, &group)
                - discrimination_ratio(&pred, &actual, &flipped))
            .abs()
                < 1e-12
        );
        // Both-zero TPRs treated as equal.
        let none = [F, F, F, F];
        assert_eq!(discrimination_ratio(&none, &actual, &group), 1.0);
    }

    #[test]
    fn group_tpr_computes_per_group() {
        let pred = [T, F, T, F];
        let actual = [T, T, T, T];
        let group = [T, T, F, F];
        assert_eq!(group_tpr(&pred, &actual, &group, true), Some(0.5));
        assert_eq!(group_tpr(&pred, &actual, &group, false), Some(0.5));
        assert_eq!(equal_opportunity(&pred, &actual, &group), 1.0);
    }
}
