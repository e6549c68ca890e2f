//! Property-based tests for the numerical kernel.

use chs_numerics::optimize::{minimize_batched, minimize_bounded};
use chs_numerics::quadrature::{adaptive_simpson, composite_gauss_legendre, gauss_legendre_20};
use chs_numerics::roots::{bisect, brent_root};
use chs_numerics::special::{ln_gamma, reg_inc_beta, reg_inc_gamma_p, reg_inc_gamma_q};
use proptest::prelude::*;

proptest! {
    /// Γ(x+1) = x·Γ(x) in log form across the positive axis.
    #[test]
    fn lgamma_recurrence(x in 0.05f64..50.0) {
        let lhs = ln_gamma(x + 1.0).unwrap();
        let rhs = ln_gamma(x).unwrap() + x.ln();
        prop_assert!((lhs - rhs).abs() < 1e-9 * lhs.abs().max(1.0));
    }

    /// P(a,x) + Q(a,x) = 1 and both lie in [0,1].
    #[test]
    fn inc_gamma_complementary(a in 0.1f64..50.0, x in 0.0f64..200.0) {
        let p = reg_inc_gamma_p(a, x).unwrap();
        let q = reg_inc_gamma_q(a, x).unwrap();
        prop_assert!((0.0..=1.0 + 1e-12).contains(&p));
        prop_assert!((0.0..=1.0 + 1e-12).contains(&q));
        prop_assert!((p + q - 1.0).abs() < 1e-10);
    }

    /// P(a, ·) is non-decreasing.
    #[test]
    fn inc_gamma_monotone(a in 0.1f64..20.0, x in 0.0f64..50.0, dx in 0.0f64..10.0) {
        let p1 = reg_inc_gamma_p(a, x).unwrap();
        let p2 = reg_inc_gamma_p(a, x + dx).unwrap();
        prop_assert!(p2 + 1e-12 >= p1);
    }

    /// I_x(a,b) = 1 − I_{1−x}(b,a).
    #[test]
    fn inc_beta_reflection(a in 0.2f64..20.0, b in 0.2f64..20.0, x in 0.001f64..0.999) {
        let lhs = reg_inc_beta(a, b, x).unwrap();
        let rhs = 1.0 - reg_inc_beta(b, a, 1.0 - x).unwrap();
        prop_assert!((lhs - rhs).abs() < 1e-9);
    }

    /// Adaptive Simpson is linear: ∫(αf) = α∫f for polynomials.
    #[test]
    fn simpson_linearity(alpha in -5.0f64..5.0, b in 0.1f64..10.0) {
        let base = adaptive_simpson(|x| x * x + 1.0, 0.0, b, 1e-11).unwrap();
        let scaled = adaptive_simpson(|x| alpha * (x * x + 1.0), 0.0, b, 1e-11).unwrap();
        prop_assert!((scaled - alpha * base).abs() < 1e-7 * base.abs().max(1.0));
    }

    /// Gauss–Legendre and adaptive Simpson agree on smooth integrands.
    #[test]
    fn quadratures_agree(rate in 0.01f64..2.0, b in 0.5f64..20.0) {
        let f = move |x: f64| 1.0 - (-rate * x).exp();
        let simpson = adaptive_simpson(f, 0.0, b, 1e-11).unwrap();
        let gl = gauss_legendre_20(f, 0.0, b);
        let cgl = composite_gauss_legendre(f, 0.0, b, 4);
        prop_assert!((simpson - gl).abs() < 1e-8 * simpson.abs().max(1.0));
        prop_assert!((simpson - cgl).abs() < 1e-9 * simpson.abs().max(1.0));
    }

    /// Root finders agree on monotone functions with a guaranteed crossing.
    #[test]
    fn roots_agree(root in 0.1f64..100.0, slope in 0.1f64..10.0) {
        let f = move |x: f64| slope * (x - root);
        let b = bisect(f, 0.0, 200.0, 1e-10).unwrap();
        let br = brent_root(f, 0.0, 200.0, 1e-10).unwrap();
        prop_assert!((b - root).abs() < 1e-6);
        prop_assert!((br - root).abs() < 1e-6);
    }

    /// Golden section over a fixed bracket and the lane-batched search
    /// agree on a shifted quartic whose minimum is off the bracket's
    /// centre.
    #[test]
    fn minimizers_agree(center in -20.0f64..20.0) {
        let f = move |x: f64| (x - center).powi(4) + 2.0;
        let g = minimize_bounded(f, center - 7.0, center + 3.0, 1e-9).unwrap();
        let b = minimize_batched(|xs: [f64; 4]| xs.map(f), center - 7.0, center + 3.0, 1e-9, 64);
        // Quartic is flat near its minimum: abscissa agreement is loose but
        // the minimum values must both be ~2.
        prop_assert!((g.f - 2.0).abs() < 1e-6);
        prop_assert!((b.f - 2.0).abs() < 1e-6);
    }

    /// Bounded minimization never returns a point outside the bounds.
    #[test]
    fn bounded_stays_in_bounds(lo in -10.0f64..0.0, width in 0.5f64..20.0, c in -30.0f64..30.0) {
        let hi = lo + width;
        let m = minimize_bounded(move |x| (x - c) * (x - c), lo, hi, 1e-9).unwrap();
        prop_assert!(m.x >= lo - 1e-9 && m.x <= hi + 1e-9);
        // And it is optimal among {lo, hi, clamp(c)} up to tolerance.
        let best = (c.clamp(lo, hi) - c).powi(2);
        prop_assert!(m.f <= best + 1e-5 * best.max(1.0));
    }
}
