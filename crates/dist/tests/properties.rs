//! Property-based tests for the distribution families and fitting.

use chs_dist::fit::{fit_exponential, fit_hyperexponential, fit_weibull, EmOptions};
use chs_dist::{AvailabilityModel, ConditionedDist, Exponential, HyperExponential, Weibull};
use proptest::prelude::*;
use rand::SeedableRng;

fn check_distribution_axioms(d: &dyn AvailabilityModel, xs: &[f64]) {
    let mut prev = 0.0;
    for &x in xs {
        let f = d.cdf(x);
        let s = d.survival(x);
        let p = d.pdf(x);
        assert!((0.0..=1.0).contains(&f), "cdf({x}) = {f}");
        assert!((0.0..=1.0).contains(&s), "survival({x}) = {s}");
        assert!(p >= 0.0, "pdf({x}) = {p}");
        assert!((f + s - 1.0).abs() < 1e-9, "F + S != 1 at {x}");
        assert!(f + 1e-12 >= prev, "cdf not monotone at {x}");
        prev = f;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn exponential_axioms(lambda in 1e-6f64..1.0) {
        let d = Exponential::new(lambda).unwrap();
        let xs: Vec<f64> = (0..50).map(|i| i as f64 * 2.0 / lambda / 50.0).collect();
        check_distribution_axioms(&d, &xs);
    }

    #[test]
    fn weibull_axioms(shape in 0.2f64..5.0, scale in 1.0f64..1e5) {
        let d = Weibull::new(shape, scale).unwrap();
        let xs: Vec<f64> = (1..50).map(|i| i as f64 * 3.0 * scale / 50.0).collect();
        check_distribution_axioms(&d, &xs);
    }

    #[test]
    fn hyperexp_axioms(
        p in 0.05f64..0.95,
        r1 in 1e-4f64..1.0,
        ratio in 1.5f64..1000.0,
    ) {
        let d = HyperExponential::new(&[(p, r1), (1.0 - p, r1 / ratio)]).unwrap();
        let xs: Vec<f64> = (0..50).map(|i| i as f64 * 3.0 / r1 * ratio / 50.0).collect();
        check_distribution_axioms(&d, &xs);
    }

    #[test]
    fn quantile_cdf_roundtrip_weibull(shape in 0.25f64..4.0, scale in 1.0f64..1e5, prob in 0.001f64..0.999) {
        let d = Weibull::new(shape, scale).unwrap();
        let x = d.quantile(prob).unwrap();
        prop_assert!((d.cdf(x) - prob).abs() < 1e-9);
    }

    #[test]
    fn quantile_cdf_roundtrip_hyperexp(p in 0.1f64..0.9, prob in 0.001f64..0.999) {
        let d = HyperExponential::new(&[(p, 0.01), (1.0 - p, 0.0001)]).unwrap();
        let x = d.quantile(prob).unwrap();
        prop_assert!((d.cdf(x) - prob).abs() < 1e-7);
    }

    /// The conditional distribution of every family satisfies the
    /// semigroup property: conditioning on t then surviving dt more is the
    /// same as conditioning on t + dt.
    #[test]
    fn conditional_semigroup(
        shape in 0.3f64..3.0,
        age in 0.0f64..50_000.0,
        dt in 1.0f64..20_000.0,
        x in 1.0f64..20_000.0,
    ) {
        let d = Weibull::new(shape, 3_409.0).unwrap();
        let at_age = ConditionedDist::new(&d, age);
        let s_two_step = at_age.survival(dt) * ConditionedDist::new(&d, age + dt).survival(x);
        let s_one_step = at_age.survival(dt + x);
        prop_assert!((s_two_step - s_one_step).abs() < 1e-9,
            "two-step {s_two_step} vs one-step {s_one_step}");
    }

    /// Exponential is the unique memoryless family: the conditional CDF
    /// never depends on age.
    #[test]
    fn exponential_memoryless(lambda in 1e-5f64..0.1, age in 0.0f64..1e6, x in 0.0f64..1e5) {
        let d = Exponential::new(lambda).unwrap();
        prop_assert!((ConditionedDist::new(&d, age).cdf(x) - d.cdf(x)).abs() < 1e-12);
    }

    /// Weibull with shape < 1: conditional survival of a fixed horizon is
    /// non-decreasing in age (the heavy-tail effect the scheduler exploits).
    #[test]
    fn heavy_tail_aging_helps(age1 in 0.0f64..1e5, extra in 0.0f64..1e5) {
        let d = Weibull::paper_exemplar();
        let s1 = ConditionedDist::new(&d, age1).survival(3_600.0);
        let s2 = ConditionedDist::new(&d, age1 + extra).survival(3_600.0);
        prop_assert!(s2 + 1e-12 >= s1);
    }

    /// Truncated means always lie strictly inside (0, a) when failure mass
    /// exists in (0, a).
    #[test]
    fn truncated_mean_in_range(shape in 0.3f64..3.0, age in 0.0f64..20_000.0, a in 10.0f64..50_000.0) {
        let d = Weibull::new(shape, 3_409.0).unwrap();
        let m = ConditionedDist::new(&d, age).truncated_mean(a);
        prop_assert!(m >= 0.0 && m < a, "m={m} a={a}");
    }

    /// Fitting recovers the exponential rate to within the CLT band.
    #[test]
    fn exp_fit_recovers(mean in 10.0f64..1e5, seed in 0u64..1_000) {
        let truth = Exponential::from_mean(mean).unwrap();
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let data: Vec<f64> = (0..4_000).map(|_| truth.sample(&mut rng)).collect();
        let fit = fit_exponential(&data).unwrap();
        // 4000 samples: σ/√n ≈ 1.6 % of the mean; allow 6 σ.
        prop_assert!((fit.mean() / mean - 1.0).abs() < 0.10);
    }

    /// Weibull fit round-trips on its own samples (shape within 10 %).
    #[test]
    fn weibull_fit_recovers(shape in 0.35f64..3.0, scale in 10.0f64..1e5, seed in 0u64..500) {
        let truth = Weibull::new(shape, scale).unwrap();
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let data: Vec<f64> = (0..3_000).map(|_| truth.sample(&mut rng)).collect();
        let fit = fit_weibull(&data).unwrap();
        prop_assert!((fit.shape() / shape - 1.0).abs() < 0.12,
            "shape {} vs {}", fit.shape(), shape);
    }
}

#[test]
fn em_fit_mean_matches_sample_mean() {
    // EM preserves the first moment at convergence: Σ p_j/λ_j = x̄.
    let truth = HyperExponential::new(&[(0.6, 1.0 / 400.0), (0.4, 1.0 / 40_000.0)]).unwrap();
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(314);
    let data: Vec<f64> = (0..5_000).map(|_| truth.sample(&mut rng)).collect();
    let sample_mean = data.iter().sum::<f64>() / data.len() as f64;
    let fit = fit_hyperexponential(&data, 2, &EmOptions::default())
        .unwrap()
        .model;
    assert!(
        (fit.mean() / sample_mean - 1.0).abs() < 1e-3,
        "EM mean {} vs sample mean {sample_mean}",
        fit.mean()
    );
}
