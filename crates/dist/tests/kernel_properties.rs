//! Property tests for the conditioned-evaluation kernel layer: across
//! randomly drawn family parameters, conditioning ages, and horizons, the
//! [`ConditionedDist`] kernels must reproduce the frozen per-call
//! `FutureLifetime` path (`frozen/conditional.rs`) — conditional
//! survival, CDF, survival integral, and truncated mean — to ≤ 1e-12
//! relative (they are in fact bitwise equal; the relative gate is the
//! documented contract). A deep-tail suite pins the Weibull survival
//! integral where `Q(1/α, z_t)` underflows against a fine quadrature.

use chs_dist::{ConditionedDist, DistRef, Exponential, HyperExponential, Weibull};
use proptest::prelude::*;

// The frozen per-call conditioning path (verbatim).
#[path = "frozen/conditional.rs"]
mod frozen;

use frozen::{Conditional, FutureLifetime};

fn bimodal() -> HyperExponential {
    HyperExponential::new(&[(0.7, 1.0 / 300.0), (0.3, 1.0 / 30_000.0)]).unwrap()
}

/// `a ≡ b` to 1e-12 relative, with an exact short-circuit so zeros and
/// infinities compare cleanly.
fn close(a: f64, b: f64) -> bool {
    a == b || (a - b).abs() <= 1e-12 * a.abs().max(b.abs())
}

/// Compare all four conditioned quantities at one (age, horizon) pair.
fn assert_kernel_matches(dist: &dyn Conditional, kernel: &ConditionedDist, age: f64, x: f64) {
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
fn deep_tail_reference(d: &Weibull, kernel: &ConditionedDist, a: f64) -> f64 {
    let age = kernel.age();
    let zt = (age / d.scale()).powf(d.shape());
    let cut = d.scale() * (zt + 40.0).powf(1.0 / d.shape()) - age;
    chs_numerics::quadrature::composite_gauss_legendre(|x| kernel.survival(x), 0.0, a.min(cut), 256)
}

/// The kernel path must be bit-identical to the frozen `FutureLifetime`
/// path for the concrete families (the arithmetic is replicated
/// operation-for-operation).
#[test]
fn kernels_bitwise_match_future_lifetime() {
    let e = Exponential::from_mean(3_600.0).unwrap();
    let w = Weibull::paper_exemplar();
    let h = bimodal();
    let models: [(&dyn Conditional, DistRef<'_>); 3] = [
        (&e, DistRef::from(&e)),
        (&w, DistRef::from(&w)),
        (&h, DistRef::from(&h)),
    ];
    for (dyn_model, dist_ref) in models {
        for &age in &[0.0, 1.0, 500.0, 3_409.0, 86_400.0, 1e6, 1e8, 1e10] {
            let kern = dist_ref.condition(age);
            let fl = FutureLifetime::new(dyn_model, age);
            for &x in &[0.5, 10.0, 110.0, 1_234.5, 10_000.0, 250_000.0] {
                assert_eq!(
                    kern.survival(x).to_bits(),
                    fl.survival(x).to_bits(),
                    "survival age={age} x={x}"
                );
                assert_eq!(
                    kern.cdf(x).to_bits(),
                    fl.cdf(x).to_bits(),
                    "cdf age={age} x={x}"
                );
                assert_eq!(
                    kern.survival_integral(x).to_bits(),
                    fl.survival_integral(x).to_bits(),
                    "integral age={age} x={x}"
                );
                assert_eq!(
                    kern.truncated_mean(x).to_bits(),
                    fl.truncated_mean(x).to_bits(),
                    "truncated_mean age={age} x={x}"
                );
            }
        }
    }
}

/// Ages where `z_t` passes ~708 make `Q(1/α, z_t)` subnormal: a
/// closed form that differences two such near-ulp quantities returns
/// finite garbage (~10% errors in Γ, visible as branch-hopping
/// `T_opt(age)`). Those ages take the log-space form built from the
/// continued-fraction factors instead, which must agree with a fine
/// quadrature of the stable survival ratio.
#[test]
fn subnormal_tail_q_takes_quadrature_not_garbage() {
    // A fleet fit that reproduced the glitch: z_t ≈ 744.6 here.
    let w = Weibull::new(0.9387113626453845, 1080.429178916454).unwrap();
    let age = 1_238_663.234801525;
    let kern = ConditionedDist::new(&w, age);
    let fl = FutureLifetime::new(&w, age);
    for &a in &[500.0, 1_000.0, 2_000.0, 5_000.0, 20_000.0] {
        let got = kern.survival_integral(a);
        let reference =
            chs_numerics::quadrature::composite_gauss_legendre(|x| kern.survival(x), 0.0, a, 256);
        assert!(
            (got / reference - 1.0).abs() < 1e-6,
            "a={a}: kernel {got} vs reference {reference}"
        );
        // The frozen per-call path must agree bitwise (same guard, same
        // fallback).
        assert_eq!(got.to_bits(), fl.survival_integral(a).to_bits(), "a={a}");
    }
}

/// Lane batches must match four scalar evaluations bit for bit.
fn assert_x4_bitwise(kern: &ConditionedDist, batch: [f64; 4]) {
    let lanes = kern.survival_and_truncated_mean_x4(batch);
    for l in 0..4 {
        let (s, tm) = kern.survival_and_truncated_mean(batch[l]);
        assert_eq!(lanes[l].0.to_bits(), s.to_bits(), "survival lane {l}");
        assert_eq!(lanes[l].1.to_bits(), tm.to_bits(), "tm lane {l}");
    }
}

/// Just short of the underflow (z_t = 701), `Q(1/α, z_t)` is normal,
/// but each Q carries about ulp(z_t) of rounding from its `e^{−z}`.
/// For a horizon of a second the difference cancels to ~5e-4 of Q,
/// which would leave ~1e-10 error or more; such probes take the log
/// form too, while longer horizons keep the plain difference. Lanes
/// that mix the two stay bitwise.
#[test]
fn cancelling_q_difference_takes_the_log_form() {
    let w = Weibull::new(0.9387113626453845, 1080.429178916454).unwrap();
    let age = w.scale() * 701f64.powf(1.0 / w.shape());
    let kern = ConditionedDist::new(&w, age);
    let fl = FutureLifetime::new(&w, age);
    for a in [0.5, 1.0, 2.0, 5.0] {
        let got = kern.survival_integral(a);
        let reference =
            chs_numerics::quadrature::composite_gauss_legendre(|x| kern.survival(x), 0.0, a, 256);
        assert!(
            (got / reference - 1.0).abs() < 1e-10,
            "a={a}: kernel {got} vs reference {reference}"
        );
        assert_eq!(got.to_bits(), fl.survival_integral(a).to_bits(), "a={a}");
    }
    assert_x4_bitwise(&kern, [1.0, 950.0, 2.0, 20_000.0]);
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
