//! Analytic oracle for exponential `T_opt`.
//!
//! For exponential availability with rate λ, Vaidya's Γ reduces to
//! `e^{λ(L+R−C)}·(e^{λ(C+T)} − 1)/λ`, so the optimum solves
//! `u + ln(1 − u) = −λC` with `u = λT` — equivalently
//! `u = 1 + W₀(−e^{−1−λC})` — whatever R and L are. `VaidyaModel`
//! returns that closed form for exponential sources instead of searching;
//! a [`DistRef::Dyn`] trait object over the same distribution still runs
//! the golden-section search, which this suite uses as the search oracle.

use chs_dist::{AvailabilityModel, DistRef, Exponential, FittedModel};
use chs_markov::{CheckpointCosts, VaidyaModel};
use proptest::prelude::*;
use std::sync::Arc;

/// `VaidyaModel`'s default lower bound on `T`, in seconds.
const DEFAULT_T_MIN: f64 = 1.0;

/// `(λ, C, T_opt)` with `T_opt = (1 + W₀(−e^{−1−λC}))/λ` evaluated at
/// 400 digits from the exact binary values of λ and C (mpmath:
/// `mp.dps = 400; u = 1 + lambertw(-exp(-1 - mpf(lam)*mpf(c))).real`,
/// residual of `u + ln(1 − u) + λC` below 1e-100·λC), then rounded to
/// the nearest `f64`. λC runs over
/// `[1e-9, 700]`; past about 37, `u` rounds to 1 and `T_opt` to `1/λ`.
const REFERENCE: [(f64, f64, f64); 22] = [
    (
        0.016666666666666666,
        6.000000000000001e-08,
        0.00268324157314882,
    ),
    (0.0002777777777777778, 1.08e-05, 0.27884760097341027),
    (2.5e-05, 0.00039999999999999996, 5.656587585968469),
    (1.1574074074074073e-05, 0.00864, 38.6334948658717),
    (
        0.016666666666666666,
        5.9999999999999995e-05,
        0.08481281845731987,
    ),
    (
        0.0002777777777777778,
        0.036000000000000004,
        16.075698387605218,
    ),
    (2.5e-05, 4.0, 563.0219069105215),
    (1.1574074074074073e-05, 86.4, 3806.5414111817545),
    (0.016666666666666666, 0.6, 8.090085064010081),
    (0.0002777777777777778, 108.0, 811.334685285491),
    (2.5e-05, 4000.0, 15327.326728331793),
    (1.1574074074074073e-05, 25920.0, 50879.826962100604),
    (0.016666666666666666, 60.0, 50.48433962621764),
    (0.0002777777777777778, 7200.0, 3411.1112491522263),
    (2.5e-05, 200000.0, 39900.60322659402),
    (1.1574074074074073e-05, 864000.0, 86398.55694895012),
    (0.016666666666666666, 1200.0, 59.99999995450464),
    (0.0002777777777777778, 133200.0, 3600.0),
    (2.5e-05, 2000000.0, 40000.0),
    (1.1574074074074073e-05, 8640000.0, 86400.0),
    (0.016666666666666666, 18000.0, 60.0),
    (0.0002777777777777778, 2520000.0, 3600.0),
];

fn rel(a: f64, b: f64) -> f64 {
    (a - b).abs() / b.abs()
}

/// `T_opt` through the closed form with the search bounds opened so far
/// that they never bind.
fn unbounded(d: &Exponential, costs: CheckpointCosts) -> f64 {
    VaidyaModel::new(d, costs)
        .unwrap()
        .with_bounds(f64::MIN_POSITIVE, f64::MAX)
        .unwrap()
        .optimal_interval(0.0)
        .unwrap()
        .work_seconds
}

#[test]
fn closed_form_matches_the_high_precision_reference() {
    for (lambda, c, want) in REFERENCE {
        let d = Exponential::new(lambda).unwrap();
        let got = unbounded(&d, CheckpointCosts::symmetric(c));
        assert!(
            rel(got, want) <= 1e-12,
            "λ={lambda} C={c} (λC={:e}): {got:.17e} vs {want:.17e} (rel {:.2e})",
            lambda * c,
            rel(got, want)
        );
    }
}

#[test]
fn every_exponential_binding_and_search_entry_agrees_bitwise() {
    // Borrowed family, borrowed fit and shared fit all take the closed
    // form, and the two lane searches return it too.
    let d = Exponential::from_mean(3_600.0).unwrap();
    let fit = FittedModel::Exponential(d);
    let costs = CheckpointCosts::symmetric(110.0);
    let want = VaidyaModel::new(&d, costs)
        .unwrap()
        .optimal_interval(0.0)
        .unwrap()
        .work_seconds;
    let by_fit = VaidyaModel::new(&fit, costs).unwrap();
    let shared = VaidyaModel::shared(Arc::new(fit.clone()), costs).unwrap();
    for m in [&by_fit, &shared] {
        for age in [0.0, 500.0, 1e9] {
            assert_eq!(
                m.optimal_interval(age).unwrap().work_seconds.to_bits(),
                want.to_bits()
            );
            assert_eq!(m.optimal_work_lane(age).unwrap().to_bits(), want.to_bits());
            for hint in [f64::NAN, 1.0, want, 1e12] {
                assert_eq!(
                    m.optimal_work_near_lane(age, hint).unwrap().to_bits(),
                    want.to_bits()
                );
            }
        }
    }
}

#[test]
fn answer_ignores_recovery_and_latency_bitwise() {
    let d = Exponential::from_mean(7_200.0).unwrap();
    for c in [0.5, 110.0, 2_500.0, 40_000.0] {
        let want = unbounded(&d, CheckpointCosts::symmetric(c));
        for (r, l) in [(0.0, 0.0), (3.0 * c, c), (c, 1e5), (1e6, 0.0)] {
            let costs = CheckpointCosts {
                checkpoint: c,
                recovery: r,
                latency: l,
            };
            assert_eq!(
                unbounded(&d, costs).to_bits(),
                want.to_bits(),
                "C={c} R={r} L={l}"
            );
        }
    }
}

#[test]
fn answer_honours_the_bounds() {
    let d = Exponential::from_mean(3_600.0).unwrap();
    let costs = CheckpointCosts::symmetric(110.0);
    let free = unbounded(&d, costs);
    let bounded = |lo: f64, hi: f64| {
        VaidyaModel::new(&d, costs)
            .unwrap()
            .with_bounds(lo, hi)
            .unwrap()
            .optimal_interval(0.0)
            .unwrap()
            .work_seconds
    };
    assert_eq!(bounded(free * 2.0, free * 8.0), free * 2.0);
    assert_eq!(bounded(free / 8.0, free / 2.0), free / 2.0);
    assert_eq!(bounded(free / 2.0, free * 2.0).to_bits(), free.to_bits());
}

#[test]
fn small_costs_reach_youngs_limit() {
    // u = √(2λC)·(1 − √(2λC)/3 + …), so T sits below Young's √(2C/λ) by
    // about a third of √(2λC).
    for mean in [60.0, 3_600.0, 86_400.0] {
        let d = Exponential::from_mean(mean).unwrap();
        for x in [1e-9, 1e-8, 1e-7, 1e-6, 1e-5, 1e-4] {
            let c = x * mean;
            let t = unbounded(&d, CheckpointCosts::symmetric(c));
            let young = (2.0 * c * mean).sqrt();
            let bound = (2.0 * x).sqrt();
            assert!(
                (t / young - 1.0).abs() <= bound,
                "mean={mean} λC={x:e}: T {t} vs Young {young}"
            );
            assert!(
                t < young,
                "mean={mean} λC={x:e}: T {t} not below Young {young}"
            );
        }
    }
}

#[test]
fn t_opt_grows_with_the_checkpoint_cost() {
    // Strictly while `1 − u` is resolvable next to 1; past λC ≈ 30 the
    // answer saturates at 1/λ and may only stay put.
    let mean = 3_600.0;
    let d = Exponential::from_mean(mean).unwrap();
    let mut c = 1e-6;
    let mut prev = 0.0;
    while c < 1e6 {
        let t = unbounded(&d, CheckpointCosts::symmetric(c));
        if c / mean <= 20.0 {
            assert!(t > prev, "C={c}: T {t} after {prev}");
        } else {
            assert!(t >= prev && t <= mean, "C={c}: T {t} after {prev}");
        }
        prev = t;
        c *= 1.001;
    }
}

#[test]
fn degenerate_costs_stay_finite_and_inside_the_bounds() {
    // C = 0: Γ/T rises with T, so the optimum is the lower bound.
    let d = Exponential::from_mean(60.0).unwrap();
    let zero = VaidyaModel::new(&d, CheckpointCosts::symmetric(0.0)).unwrap();
    assert_eq!(
        zero.optimal_interval(0.0).unwrap().work_seconds,
        DEFAULT_T_MIN
    );
    let zero = zero.with_bounds(0.25, 1e3).unwrap();
    assert_eq!(zero.optimal_interval(0.0).unwrap().work_seconds, 0.25);

    // Huge λC: Γ overflows across the whole bracket, where the search
    // ended on an arbitrary capped point; the closed form gives 1/λ.
    for c in [1e5, 1e300] {
        let m = VaidyaModel::new(&d, CheckpointCosts::symmetric(c)).unwrap();
        let t = m.optimal_interval(0.0).unwrap().work_seconds;
        assert_eq!(t, 60.0, "C={c}");
    }

    // λC overflows to +∞: still a finite point inside the bounds.
    let fast = Exponential::new(1e300).unwrap();
    let m = VaidyaModel::new(&fast, CheckpointCosts::symmetric(1e10)).unwrap();
    assert!((fast.lambda() * 1e10).is_infinite());
    assert_eq!(m.optimal_interval(0.0).unwrap().work_seconds, DEFAULT_T_MIN);
    let m = m.with_bounds(1e-310, 1.0).unwrap();
    let t = m.optimal_interval(0.0).unwrap().work_seconds;
    assert!(t.is_finite() && (1e-310..=1.0).contains(&t), "T={t}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn closed_form_is_never_worse_than_the_search(
        mean_log10 in 2.0f64..5.0,
        cost_log10 in -2.0f64..4.0,
        split in 0.0f64..2.0,
    ) {
        let d = Exponential::from_mean(10f64.powf(mean_log10)).unwrap();
        let c = 10f64.powf(cost_log10);
        let costs = CheckpointCosts::new(c, c * split);
        let closed = VaidyaModel::new(DistRef::Exponential(&d), costs).unwrap();
        let search = VaidyaModel::new(&d as &dyn AvailabilityModel, costs).unwrap();
        let t_closed = closed.optimal_interval(0.0).unwrap().work_seconds;
        let t_search = search.optimal_interval(0.0).unwrap().work_seconds;
        // Both points are scored by the same (trait-object) evaluator.
        let g_closed = search.overhead_ratio(t_closed, 0.0);
        let g_search = search.overhead_ratio(t_search, 0.0);
        prop_assert!(
            g_closed <= g_search * (1.0 + 1e-12),
            "Γ/T closed {:.17e} vs search {:.17e} (T {} vs {})",
            g_closed, g_search, t_closed, t_search
        );
        prop_assert!(
            rel(t_closed, t_search) <= 1e-5,
            "T closed {} vs search {}", t_closed, t_search
        );
    }
}
