//! Property tests for the conditioned-evaluation kernel layer: across
//! randomly drawn family parameters, conditioning ages, and horizons, the
//! [`ConditionedDist`] kernels must reproduce the [`FutureLifetime`]
//! reference path — conditional survival, CDF, survival integral, and
//! truncated mean — to ≤ 1e-12 relative (they are in fact bitwise equal;
//! the relative gate is the documented contract). A deep-tail suite pins
//! the Weibull survival integral where `Q(1/α, z_t)` underflows against
//! a fine quadrature.

use chs_dist::{
    AvailabilityModel, ConditionedDist, Exponential, FutureLifetime, HyperExponential, Weibull,
};
use proptest::prelude::*;

/// `a ≡ b` to 1e-12 relative, with an exact short-circuit so zeros and
/// infinities compare cleanly.
fn close(a: f64, b: f64) -> bool {
    a == b || (a - b).abs() <= 1e-12 * a.abs().max(b.abs())
}

/// Compare all four conditioned quantities at one (age, horizon) pair.
fn assert_kernel_matches(
    dist: &dyn AvailabilityModel,
    kernel: &ConditionedDist<'_>,
    age: f64,
    x: f64,
) {
    let reference = FutureLifetime::new(dist, age);
    let pairs = [
        ("survival", kernel.survival(x), reference.survival(x)),
        ("cdf", kernel.cdf(x), reference.cdf(x)),
        (
            "survival_integral",
            kernel.survival_integral(x),
            reference.survival_integral(x),
        ),
        (
            "truncated_mean",
            kernel.truncated_mean(x),
            reference.truncated_mean(x),
        ),
    ];
    for (name, k, r) in pairs {
        assert!(
            close(k, r),
            "{name} diverged at age={age} x={x}: kernel {k:.17e} vs reference {r:.17e}"
        );
    }
}

/// `∫₀^a S_t` by 256-panel Gauss–Legendre over the conditioned survival,
/// cut where `S_t < e^{−40}` (beyond it the remainder is below 1e-17 of
/// the integral).
fn deep_tail_reference(d: &Weibull, kernel: &ConditionedDist<'_>, a: f64) -> f64 {
    let age = kernel.age();
    let zt = (age / d.scale()).powf(d.shape());
    let cut = d.scale() * (zt + 40.0).powf(1.0 / d.shape()) - age;
    chs_numerics::quadrature::composite_gauss_legendre(|x| kernel.survival(x), 0.0, a.min(cut), 256)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn weibull_deep_tail_integral(
        shape in 0.3f64..1.5,
        scale in 100.0f64..2e4,
        ln_zt in 700f64.ln()..1e5f64.ln(),
        a_log10 in 0.0f64..6.0,
        step in 1e-3f64..10.0,
        x_exps in proptest::collection::vec(0.0f64..6.0, 4..5),
    ) {
        // z_t ∈ [700, 1e5]: from where Q(1/α, z_t) is about to underflow
        // to well past it. Much deeper (z_t ≳ 1e9) the reference itself
        // cancels in `z_t − z_{t+x}`, so the domain stops short of that.
        let d = Weibull::new(shape, scale).unwrap();
        let age = scale * ln_zt.exp().powf(1.0 / shape);
        let kernel = ConditionedDist::new(&d, age);
        let reference = FutureLifetime::new(&d, age);
        let a = 10f64.powf(a_log10);
        let got = kernel.survival_integral(a);
        let want = deep_tail_reference(&d, &kernel, a);
        prop_assert!(
            (got - want).abs() <= 1e-9 * want,
            "age={age} a={a}: kernel {got:.17e} vs quadrature {want:.17e}"
        );
        prop_assert!(got.to_bits() == reference.survival_integral(a).to_bits());
        prop_assert!((0.0..=a).contains(&got));
        prop_assert!(kernel.survival_integral(a * (1.0 + step)) >= got);
        let xs = [x_exps[0], x_exps[1], x_exps[2], x_exps[3]].map(|e| 10f64.powf(e));
        let lanes = kernel.survival_and_truncated_mean_x4(xs);
        for l in 0..4 {
            let (s, tm) = kernel.survival_and_truncated_mean(xs[l]);
            prop_assert!(lanes[l].0.to_bits() == s.to_bits(), "survival lane {l}");
            prop_assert!(lanes[l].1.to_bits() == tm.to_bits(), "tm lane {l}");
        }
    }

    #[test]
    fn exponential_kernel_matches(
        mean in 10.0f64..500_000.0,
        age_log10 in -1.0f64..10.0,
        x_log10 in -1.0f64..6.5,
    ) {
        let d = Exponential::from_mean(mean).unwrap();
        let age = 10f64.powf(age_log10);
        let x = 10f64.powf(x_log10);
        for &a in &[0.0, age] {
            let kernel = ConditionedDist::new(&d, a);
            assert_kernel_matches(&d, &kernel, a, x);
        }
    }

    #[test]
    fn weibull_kernel_matches(
        shape in 0.25f64..3.0,
        scale in 50.0f64..100_000.0,
        age_log10 in -1.0f64..10.0,
        x_log10 in -1.0f64..6.5,
    ) {
        // age up to 1e10 deliberately reaches the quadrature-fallback
        // region of the conditional survival integral (z_age large, the
        // incomplete-gamma Q-form cancels).
        let d = Weibull::new(shape, scale).unwrap();
        let age = 10f64.powf(age_log10);
        let x = 10f64.powf(x_log10);
        for &a in &[0.0, age] {
            let kernel = ConditionedDist::new(&d, a);
            assert_kernel_matches(&d, &kernel, a, x);
        }
    }

    #[test]
    fn hyperexp_kernel_matches(
        fast_mean in 10.0f64..2_000.0,
        slow_factor in 2.0f64..500.0,
        p_fast in 0.05f64..0.95,
        age_log10 in -1.0f64..10.0,
        x_log10 in -1.0f64..6.5,
    ) {
        let slow_mean = fast_mean * slow_factor;
        let d = HyperExponential::new(&[
            (p_fast, 1.0 / fast_mean),
            (1.0 - p_fast, 1.0 / slow_mean),
        ])
        .unwrap();
        let age = 10f64.powf(age_log10);
        let x = 10f64.powf(x_log10);
        for &a in &[0.0, age] {
            let kernel = ConditionedDist::new(&d, a);
            assert_kernel_matches(&d, &kernel, a, x);
        }
    }

    #[test]
    fn hyperexp3_kernel_matches(
        m1 in 10.0f64..300.0,
        f2 in 3.0f64..30.0,
        f3 in 40.0f64..400.0,
        age_log10 in -1.0f64..9.0,
        x_log10 in 0.0f64..6.0,
    ) {
        // Three phases with well-separated rates: exercises the posterior
        // reweighting with more than one surviving slow phase.
        let d = HyperExponential::new(&[
            (0.5, 1.0 / m1),
            (0.3, 1.0 / (m1 * f2)),
            (0.2, 1.0 / (m1 * f3)),
        ])
        .unwrap();
        let age = 10f64.powf(age_log10);
        let x = 10f64.powf(x_log10);
        let kernel = ConditionedDist::new(&d, age);
        assert_kernel_matches(&d, &kernel, age, x);
    }

    #[test]
    fn kernel_conditioning_invariants(
        shape in 0.3f64..2.5,
        scale in 100.0f64..50_000.0,
        age_log10 in -1.0f64..8.0,
        x_log10 in -1.0f64..6.0,
    ) {
        // Structural invariants of any conditioned distribution, checked
        // through the kernel path: S + F = 1 (up to fp), S monotone in x,
        // ∫S ≤ x, truncated mean within [0, x].
        let d = Weibull::new(shape, scale).unwrap();
        let age = 10f64.powf(age_log10);
        let x = 10f64.powf(x_log10);
        let kernel = ConditionedDist::new(&d, age);
        let s = kernel.survival(x);
        let f = kernel.cdf(x);
        prop_assert!((0.0..=1.0).contains(&s));
        prop_assert!((0.0..=1.0).contains(&f));
        prop_assert!((s + f - 1.0).abs() <= 1e-12);
        prop_assert!(kernel.survival(2.0 * x) <= s + 1e-15);
        let integral = kernel.survival_integral(x);
        prop_assert!((0.0..=x * (1.0 + 1e-12)).contains(&integral));
        let tm = kernel.truncated_mean(x);
        prop_assert!((0.0..=x).contains(&tm));
        // The combined evaluation must agree with the separate calls.
        let (s2, tm2) = kernel.survival_and_truncated_mean(x);
        prop_assert!(s2.to_bits() == s.to_bits());
        prop_assert!(tm2.to_bits() == tm.to_bits());
    }

    #[test]
    fn weibull_lane_kernel_bitwise(
        shape in 0.25f64..3.0,
        scale in 50.0f64..100_000.0,
        age_log10 in -1.0f64..10.0,
        x_exps in proptest::collection::vec(-1.0f64..6.5, 4..5),
    ) {
        // Four-probe lanes replicate the scalar operation order —
        // including the batched Gauss–Legendre fallback the deep-tail
        // ages force — so every lane is bit-identical to its scalar
        // call.
        let d = Weibull::new(shape, scale).unwrap();
        let kernel = ConditionedDist::new(&d, 10f64.powf(age_log10));
        let xs = [x_exps[0], x_exps[1], x_exps[2], x_exps[3]].map(|e| 10f64.powf(e));
        let lanes = kernel.survival_and_truncated_mean_x4(xs);
        for l in 0..4 {
            let (s, tm) = kernel.survival_and_truncated_mean(xs[l]);
            prop_assert!(lanes[l].0.to_bits() == s.to_bits(), "survival lane {l}");
            prop_assert!(lanes[l].1.to_bits() == tm.to_bits(), "tm lane {l}");
        }
    }

    #[test]
    fn hyperexp_lane_kernel_contract(
        fast_mean in 10.0f64..2_000.0,
        slow_factor in 2.0f64..500.0,
        p_fast in 0.05f64..0.95,
        age_log10 in -1.0f64..10.0,
        x_exps in proptest::collection::vec(-1.0f64..6.5, 4..5),
    ) {
        // The fused phase sweep keeps survival bitwise; the truncated
        // mean inherits the survival integral's ≲1e-15 absolute
        // deviation through its 1/F(a) conditioning, so the gated
        // product is |Δtm|·F(a) — the quantity that re-enters Γ.
        let d = HyperExponential::new(&[
            (p_fast, 1.0 / fast_mean),
            (1.0 - p_fast, 1.0 / (fast_mean * slow_factor)),
        ])
        .unwrap();
        let kernel = ConditionedDist::new(&d, 10f64.powf(age_log10));
        let xs = [x_exps[0], x_exps[1], x_exps[2], x_exps[3]].map(|e| 10f64.powf(e));
        let lanes = kernel.survival_and_truncated_mean_x4(xs);
        for l in 0..4 {
            let (s, tm) = kernel.survival_and_truncated_mean(xs[l]);
            prop_assert!(lanes[l].0.to_bits() == s.to_bits(), "survival lane {l}");
            let fa = 1.0 - s;
            prop_assert!(
                (lanes[l].1 - tm).abs() * fa <= 1e-9 * (1.0 + tm.abs()),
                "tm lane {l}: {:.17e} vs {tm:.17e}",
                lanes[l].1
            );
        }
    }
}
