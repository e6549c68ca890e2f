//! One-dimensional numerical integration.
//!
//! The Markov-model costs need truncated means `∫₀^a F(x) dx` of
//! availability CDFs that have no closed antiderivative (Weibull with
//! non-integer shape, hyperexponential mixtures conditioned on machine
//! age). Adaptive Simpson handles the strongly non-uniform curvature near
//! zero that heavy-tailed CDFs exhibit; fixed-order Gauss–Legendre is the
//! fast path for smooth integrands in the optimizer's inner loop.

use crate::{NumericsError, Result};

/// Default tolerance for [`adaptive_simpson`].
pub const DEFAULT_TOL: f64 = 1e-10;

/// Maximum recursion depth for adaptive Simpson before reporting failure.
const MAX_DEPTH: u32 = 60;

/// Integrate `f` over `[a, b]` with adaptive Simpson's rule to absolute
/// tolerance `tol`.
///
/// # Errors
/// * [`NumericsError::InvalidBracket`] if `a > b` or either bound is
///   non-finite.
/// * [`NumericsError::NoConvergence`] if the recursion exceeds depth 60
///   (an integrand that is not locally smooth anywhere).
pub fn adaptive_simpson<F: Fn(f64) -> f64>(f: F, a: f64, b: f64, tol: f64) -> Result<f64> {
    if !a.is_finite() || !b.is_finite() || a > b {
        return Err(NumericsError::InvalidBracket { lo: a, hi: b });
    }
    if a == b {
        return Ok(0.0);
    }
    let fa = f(a);
    let fb = f(b);
    let m = 0.5 * (a + b);
    let fm = f(m);
    let whole = simpson(a, b, fa, fm, fb);
    simpson_recurse(
        &f,
        a,
        b,
        fa,
        fm,
        fb,
        whole,
        tol.max(f64::EPSILON),
        MAX_DEPTH,
    )
}

#[inline]
fn simpson(a: f64, b: f64, fa: f64, fm: f64, fb: f64) -> f64 {
    (b - a) / 6.0 * (fa + 4.0 * fm + fb)
}

#[allow(clippy::too_many_arguments)]
fn simpson_recurse<F: Fn(f64) -> f64>(
    f: &F,
    a: f64,
    b: f64,
    fa: f64,
    fm: f64,
    fb: f64,
    whole: f64,
    tol: f64,
    depth: u32,
) -> Result<f64> {
    let m = 0.5 * (a + b);
    let lm = 0.5 * (a + m);
    let rm = 0.5 * (m + b);
    let flm = f(lm);
    let frm = f(rm);
    let left = simpson(a, m, fa, flm, fm);
    let right = simpson(m, b, fm, frm, fb);
    let delta = left + right - whole;
    // Accept the Richardson-extrapolated estimate when the local error is
    // within tolerance, the panel is at floating-point resolution, or the
    // depth budget is exhausted (integrable endpoint singularities — e.g.
    // Weibull CDFs with shape < 1 — refine forever but the residual mass
    // in a 2⁻⁶⁰-wide panel is negligible).
    if delta.abs() <= 15.0 * tol || (b - a) < f64::EPSILON * (a.abs() + b.abs()) || depth == 0 {
        return Ok(left + right + delta / 15.0);
    }
    let lv = simpson_recurse(f, a, m, fa, flm, fm, left, 0.5 * tol, depth - 1)?;
    let rv = simpson_recurse(f, m, b, fm, frm, fb, right, 0.5 * tol, depth - 1)?;
    Ok(lv + rv)
}

/// Abscissae (positive half) and weights for 20-point Gauss–Legendre on
/// [-1, 1]. Symmetric: each entry is used at ±x.
const GL20_X: [f64; 10] = [
    0.076_526_521_133_497_33,
    0.227_785_851_141_645_08,
    0.373_706_088_715_419_56,
    0.510_867_001_950_827_1,
    0.636_053_680_726_515_1,
    0.746_331_906_460_150_8,
    0.839_116_971_822_218_8,
    0.912_234_428_251_326,
    0.963_971_927_277_913_8,
    0.993_128_599_185_094_9,
];
const GL20_W: [f64; 10] = [
    0.152_753_387_130_725_85,
    0.149_172_986_472_603_75,
    0.142_096_109_318_382_05,
    0.131_688_638_449_176_63,
    0.118_194_531_961_518_42,
    0.101_930_119_817_240_44,
    0.083_276_741_576_704_75,
    0.062_672_048_334_109_06,
    0.040_601_429_800_386_94,
    0.017_614_007_139_152_12,
];

/// 20-point Gauss–Legendre quadrature of `f` over `[a, b]`.
///
/// Exact for polynomials up to degree 39; excellent for smooth CDFs over
/// moderate intervals. Panics never; returns 0 for an empty interval.
pub fn gauss_legendre_20<F: Fn(f64) -> f64>(f: F, a: f64, b: f64) -> f64 {
    let half = 0.5 * (b - a);
    let mid = 0.5 * (a + b);
    let mut acc = 0.0;
    for i in 0..10 {
        let dx = half * GL20_X[i];
        acc += GL20_W[i] * (f(mid + dx) + f(mid - dx));
    }
    acc * half
}

/// Composite Gauss–Legendre: split `[a, b]` into `panels` equal panels and
/// apply the 20-point rule to each. Used when the integrand has a
/// sharp feature near the origin (heavy-tailed CDFs) but is otherwise
/// smooth.
///
/// All panels share one width, so the scaled abscissa offsets
/// `half · x_i` are computed once per call (not once per panel, and not
/// re-derived from the raw `[-1, 1]` table on every panel as the
/// original `gauss_legendre_20`-per-panel formulation did).
pub fn composite_gauss_legendre<F: Fn(f64) -> f64>(f: F, a: f64, b: f64, panels: usize) -> f64 {
    assert!(
        panels > 0,
        "composite quadrature requires at least one panel"
    );
    let h = (b - a) / panels as f64;
    let half = 0.5 * h;
    let dx = GL20_X.map(|x| half * x);
    let mut acc = 0.0;
    for p in 0..panels {
        let mid = a + (p as f64 + 0.5) * h;
        let mut pacc = 0.0;
        for i in 0..10 {
            pacc += GL20_W[i] * (f(mid + dx[i]) + f(mid - dx[i]));
        }
        acc += pacc * half;
    }
    acc
}

/// Lane-batched [`composite_gauss_legendre`]: one shared lower bound,
/// four upper bounds, one integrand evaluated on `[f64; 4]` points at a
/// time.
///
/// Each lane gets its own panel width `h_l = (upper_l − a) / panels`,
/// and the per-lane arithmetic (panel midpoint, scaled offsets, the
/// `Σ w_i (f(mid+dx_i) + f(mid−dx_i))` accumulation, the `· half`
/// scaling) follows the scalar composite's operation order exactly — a
/// lane's result is bit-identical to the scalar call with the same
/// bounds whenever `f` is (which lets the Weibull quadrature fallback
/// integrate all four probe horizons in one sweep without perturbing
/// the frozen scalar reference). A degenerate lane (`upper_l == a`)
/// integrates to exactly 0, as the scalar does.
pub fn composite_gauss_legendre_x4<F: FnMut([f64; 4]) -> [f64; 4]>(
    mut f: F,
    a: f64,
    uppers: [f64; 4],
    panels: usize,
) -> [f64; 4] {
    assert!(
        panels > 0,
        "composite quadrature requires at least one panel"
    );
    let h = uppers.map(|u| (u - a) / panels as f64);
    let half = h.map(|hl| 0.5 * hl);
    let dx: [[f64; 4]; 10] = GL20_X.map(|x| half.map(|hl| hl * x));
    let mut acc = [0.0f64; 4];
    for p in 0..panels {
        let mid = h.map(|hl| a + (p as f64 + 0.5) * hl);
        let mut pacc = [0.0f64; 4];
        for i in 0..10 {
            let hi = f([
                mid[0] + dx[i][0],
                mid[1] + dx[i][1],
                mid[2] + dx[i][2],
                mid[3] + dx[i][3],
            ]);
            let lo = f([
                mid[0] - dx[i][0],
                mid[1] - dx[i][1],
                mid[2] - dx[i][2],
                mid[3] - dx[i][3],
            ]);
            for l in 0..4 {
                pacc[l] += GL20_W[i] * (hi[l] + lo[l]);
            }
        }
        for l in 0..4 {
            acc[l] += pacc[l] * half[l];
        }
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;

    #[test]
    fn simpson_polynomial_exact() {
        // ∫₀¹ x³ dx = 1/4 (Simpson is exact for cubics)
        let v = adaptive_simpson(|x| x * x * x, 0.0, 1.0, 1e-12).unwrap();
        assert!(approx_eq(v, 0.25, 1e-12, 1e-14));
    }

    #[test]
    fn simpson_exponential() {
        // ∫₀^5 e^{-x} dx = 1 − e^{-5}
        let v = adaptive_simpson(|x| (-x).exp(), 0.0, 5.0, 1e-12).unwrap();
        assert!(approx_eq(v, 1.0 - (-5.0f64).exp(), 1e-11, 1e-13));
    }

    #[test]
    fn simpson_sin() {
        // ∫₀^π sin = 2
        let v = adaptive_simpson(f64::sin, 0.0, std::f64::consts::PI, 1e-12).unwrap();
        assert!(approx_eq(v, 2.0, 1e-11, 0.0));
    }

    #[test]
    fn simpson_sharp_feature() {
        // Heavy-tailed Weibull CDF shape: steep near 0. ∫₀^10 (1 − e^{−√x}) dx.
        // Substitution u = √x: ∫ = 10 − ∫₀^10 e^{−√x} dx; with u²=x,
        // ∫₀^10 e^{−√x}dx = 2∫₀^{√10} u e^{−u} du = 2[1 − (1+√10)e^{−√10}].
        let s10 = 10.0f64.sqrt();
        let expected = 10.0 - 2.0 * (1.0 - (1.0 + s10) * (-s10).exp());
        let v = adaptive_simpson(|x: f64| 1.0 - (-x.sqrt()).exp(), 0.0, 10.0, 1e-12).unwrap();
        assert!(
            approx_eq(v, expected, 1e-9, 1e-10),
            "v={v} expected={expected}"
        );
    }

    #[test]
    fn simpson_empty_interval() {
        assert_eq!(adaptive_simpson(|x| x, 2.0, 2.0, 1e-10).unwrap(), 0.0);
    }

    #[test]
    fn simpson_invalid_bracket() {
        assert!(adaptive_simpson(|x| x, 1.0, 0.0, 1e-10).is_err());
        assert!(adaptive_simpson(|x| x, f64::NAN, 1.0, 1e-10).is_err());
    }

    #[test]
    fn gauss_legendre_polynomial() {
        // degree-19 polynomial integrated exactly
        let v = gauss_legendre_20(|x| x.powi(19) + 3.0 * x.powi(4), -1.0, 1.0);
        // odd part vanishes; ∫_{-1}^{1} 3x⁴ = 6/5
        assert!(approx_eq(v, 1.2, 1e-12, 1e-13));
    }

    #[test]
    fn gauss_legendre_interval_transform() {
        // ∫₂^7 x² dx = (343 − 8)/3
        let v = gauss_legendre_20(|x| x * x, 2.0, 7.0);
        assert!(approx_eq(v, 335.0 / 3.0, 1e-13, 0.0));
    }

    #[test]
    fn composite_matches_adaptive() {
        let f = |x: f64| (1.0 + x).ln() * (-0.3 * x).exp();
        let a = adaptive_simpson(f, 0.0, 20.0, 1e-11).unwrap();
        let c = composite_gauss_legendre(f, 0.0, 20.0, 8);
        assert!(approx_eq(a, c, 1e-9, 1e-10), "a={a} c={c}");
    }

    #[test]
    #[should_panic(expected = "at least one panel")]
    fn composite_zero_panels_panics() {
        composite_gauss_legendre(|x| x, 0.0, 1.0, 0);
    }

    #[test]
    fn composite_x4_bitwise_matches_scalar_lanes() {
        let g = |x: f64| (1.0 + x).ln() * (-0.3 * x).exp();
        let uppers = [0.5, 3.0, 20.0, 150.0];
        let lanes = composite_gauss_legendre_x4(|xs| xs.map(g), 0.0, uppers, 32);
        for l in 0..4 {
            let scalar = composite_gauss_legendre(g, 0.0, uppers[l], 32);
            assert_eq!(lanes[l].to_bits(), scalar.to_bits(), "lane {l}");
        }
    }

    #[test]
    fn composite_x4_degenerate_lane_is_zero() {
        let lanes =
            composite_gauss_legendre_x4(|xs| xs.map(|x| x * x), 2.0, [2.0, 2.0, 4.0, 8.0], 8);
        assert_eq!(lanes[0], 0.0);
        assert_eq!(lanes[1], 0.0);
        let s2 = composite_gauss_legendre(|x| x * x, 2.0, 4.0, 8);
        assert_eq!(lanes[2].to_bits(), s2.to_bits());
    }

    #[test]
    #[should_panic(expected = "at least one panel")]
    fn composite_x4_zero_panels_panics() {
        composite_gauss_legendre_x4(|xs| xs, 0.0, [1.0; 4], 0);
    }
}
