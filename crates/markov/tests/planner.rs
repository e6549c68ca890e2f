//! Differential suite for [`MeasuredCostPlanner`]: over call sequences
//! that repeat the cost, the age or both — with NaN, negative and huge
//! ages and invalid costs mixed in — every `plan` must equal a fresh
//! `VaidyaModel::new(..).optimal_interval(age)` bitwise, or return the
//! same error. The memo may only ever answer what the search would.
//!
//! The second half pins the memo's premise: exponential `T_opt` is
//! bitwise independent of the age, so exponential plans key every age
//! alike, while a Weibull fit with shape below 1 moves `T_opt` with the
//! age, so every other family keys on it.

use chs_dist::{Exponential, FittedModel, HyperExponential, Weibull};
use chs_markov::{CheckpointCosts, MeasuredCostPlanner, Result, VaidyaModel};
use proptest::prelude::*;

/// Ages outside the ordinary domain: both sanitize to 0 or reach the
/// kernels' far tails.
const ODD_AGES: [f64; 6] = [f64::NAN, -1.0, -0.0, 1e9, 1e12, 1e300];

/// Costs the search must reject.
const BAD_COSTS: [f64; 3] = [f64::NAN, -3.0, f64::INFINITY];

/// The frozen scalar search on a fresh model.
fn fresh(fit: &FittedModel, cost: f64, age: f64) -> Result<f64> {
    Ok(VaidyaModel::new(fit, CheckpointCosts::symmetric(cost))?
        .optimal_interval(age)?
        .work_seconds)
}

/// One model per family index from unit-interval parameters `u`:
/// exponential, Weibull with shape below and above 1, H2 and H3.
fn family(pick: usize, u: &[f64]) -> FittedModel {
    let mean = |x: f64| 10f64.powf(2.0 + 3.0 * x);
    match pick {
        0 => FittedModel::Exponential(Exponential::from_mean(mean(u[0])).unwrap()),
        1 => FittedModel::Weibull(Weibull::new(0.3 + 0.65 * u[0], mean(u[1])).unwrap()),
        2 => FittedModel::Weibull(Weibull::new(1.05 + 1.95 * u[0], mean(u[1])).unwrap()),
        3 => {
            let p = 0.1 + 0.8 * u[0];
            FittedModel::HyperExponential(
                HyperExponential::new(&[(p, 1.0 / mean(u[1])), (1.0 - p, 1.0 / mean(u[2]))])
                    .unwrap(),
            )
        }
        _ => {
            let w = [0.2 + u[0], 0.2 + u[1], 0.2 + u[2]];
            let total: f64 = w.iter().sum();
            let phases: Vec<(f64, f64)> = (0..3)
                .map(|k| (w[k] / total, 1.0 / mean(u[3 + k])))
                .collect();
            FittedModel::HyperExponential(HyperExponential::new(&phases).unwrap())
        }
    }
}

/// Drive one planner through `modes`, checking every answer against the
/// fresh search. Mode 0 draws a new cost and age, 1 repeats the cost,
/// 2 repeats the age, 3 repeats both, 4 repeats the cost at an odd age,
/// 5 plans an invalid cost at the last age.
fn check_sequence(fit: &FittedModel, modes: &[u32], costs: &[f64], ages: &[f64]) {
    let mut planner = MeasuredCostPlanner::new(fit.clone());
    let (mut cost, mut age) = (costs[0], ages[0]);
    for (i, &mode) in modes.iter().enumerate() {
        match mode {
            0 => (cost, age) = (costs[i], ages[i]),
            1 => age = ages[i],
            2 => cost = costs[i],
            3 => {}
            4 => age = ODD_AGES[i % ODD_AGES.len()],
            _ => cost = BAD_COSTS[i % BAD_COSTS.len()],
        }
        // Errors compare by their debug form: a NaN payload is not `==`.
        let bits = |r: Result<f64>| r.map(f64::to_bits).map_err(|e| format!("{e:?}"));
        let got = bits(planner.plan(cost, age));
        let want = bits(fresh(fit, cost, age));
        assert_eq!(
            got, want,
            "step {i} mode {mode}: cost={cost} age={age:e} fit={fit:?}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn plans_match_the_fresh_search_bitwise(
        pick in 0usize..5,
        params in proptest::collection::vec(0.0f64..1.0, 6..7),
        modes in proptest::collection::vec(0u32..6, 4..14),
        costs in proptest::collection::vec(1.0f64..3_000.0, 14..15),
        ages in proptest::collection::vec(0.0f64..2e5, 14..15),
    ) {
        check_sequence(&family(pick, &params), &modes, &costs, &ages);
    }

    #[test]
    fn exponential_t_opt_ignores_the_age_bitwise(
        mean_log10 in 1.0f64..6.0,
        cost in 1.0f64..3_000.0,
        ages in proptest::collection::vec(0.0f64..1e7, 1..6),
    ) {
        let fit = FittedModel::Exponential(Exponential::from_mean(10f64.powf(mean_log10)).unwrap());
        let at_zero = fresh(&fit, cost, 0.0).unwrap().to_bits();
        for age in ages.iter().copied().chain(ODD_AGES) {
            prop_assert_eq!(fresh(&fit, cost, age).unwrap().to_bits(), at_zero, "age {}", age);
        }
    }
}

#[test]
fn every_family_walks_every_mode() {
    let params = [0.35, 0.6, 0.8, 0.15, 0.5, 0.9];
    let modes = [0, 3, 1, 1, 2, 3, 4, 4, 4, 4, 4, 4, 5, 5, 5, 0, 3];
    let costs: Vec<f64> = (0..modes.len()).map(|i| 40.0 + 97.0 * i as f64).collect();
    let ages: Vec<f64> = (0..modes.len()).map(|i| 3_600.0 * i as f64).collect();
    for pick in 0..5 {
        check_sequence(&family(pick, &params), &modes, &costs, &ages);
    }
}

#[test]
fn decreasing_hazard_t_opt_moves_with_the_age() {
    // Weibull shape < 1: the longer a machine has been up, the longer its
    // next interval — so a memo keyed without the age would be wrong.
    let fit = FittedModel::Weibull(Weibull::paper_exemplar());
    let young = fresh(&fit, 110.0, 60.0).unwrap();
    let old = fresh(&fit, 110.0, 86_400.0).unwrap();
    assert_ne!(young.to_bits(), old.to_bits());
    let mut planner = MeasuredCostPlanner::new(fit);
    assert_eq!(
        planner.plan(110.0, 60.0).unwrap().to_bits(),
        young.to_bits()
    );
    assert_eq!(
        planner.plan(110.0, 86_400.0).unwrap().to_bits(),
        old.to_bits()
    );
}
