//! Scalar root finding: bisection, safeguarded Newton–Raphson, and Brent's
//! method.
//!
//! The Weibull maximum-likelihood shape equation and distribution quantile
//! inversions are solved here. Newton with a bisection safeguard
//! (Numerical Recipes `rtsafe`) is the default because MLE profile
//! likelihoods are smooth but can have awkward curvature for heavy tails
//! (shape « 1).

use crate::{NumericsError, Result};

/// Default absolute tolerance on the root abscissa.
pub const DEFAULT_TOL: f64 = 1e-12;

const MAX_ITER: usize = 200;

/// Bisection on `[lo, hi]`; requires a sign change.
///
/// # Errors
/// * [`NumericsError::InvalidBracket`] when `f(lo)` and `f(hi)` have the
///   same sign (and neither is zero).
pub fn bisect<F: Fn(f64) -> f64>(f: F, lo: f64, hi: f64, tol: f64) -> Result<f64> {
    let (mut lo, mut hi) = (lo, hi);
    let mut flo = f(lo);
    let fhi = f(hi);
    if flo == 0.0 {
        return Ok(lo);
    }
    if fhi == 0.0 {
        return Ok(hi);
    }
    if flo.signum() == fhi.signum() || !lo.is_finite() || !hi.is_finite() || lo >= hi {
        return Err(NumericsError::InvalidBracket { lo, hi });
    }
    for _ in 0..MAX_ITER {
        let mid = 0.5 * (lo + hi);
        let fm = f(mid);
        if fm == 0.0 || (hi - lo) < tol.max(f64::EPSILON * mid.abs()) {
            return Ok(mid);
        }
        if fm.signum() == flo.signum() {
            lo = mid;
            flo = fm;
        } else {
            hi = mid;
        }
    }
    Ok(0.5 * (lo + hi))
}

/// Newton–Raphson with a bisection safeguard on `[lo, hi]` (NR `rtsafe`).
/// `fdf` returns `(f(x), f'(x))`. Falls back to a bisection step whenever
/// Newton would leave the bracket or converge too slowly.
pub fn newton_safeguarded<F: Fn(f64) -> (f64, f64)>(
    fdf: F,
    lo: f64,
    hi: f64,
    tol: f64,
) -> Result<f64> {
    let flo = fdf(lo).0;
    let fhi = fdf(hi).0;
    newton_safeguarded_seeded(fdf, lo, hi, flo, fhi, tol)
}

/// [`newton_safeguarded`] with the endpoint function values supplied by
/// the caller. Bracket scans necessarily evaluate `f` at both endpoints
/// already; passing those values here saves the two re-evaluations the
/// plain entry point performs — for an MLE objective each is a full
/// `O(n)` pass over the sample. The iteration is otherwise identical, so
/// seeding with `fdf(lo).0` / `fdf(hi).0` reproduces
/// [`newton_safeguarded`] bitwise.
pub fn newton_safeguarded_seeded<F: Fn(f64) -> (f64, f64)>(
    fdf: F,
    lo: f64,
    hi: f64,
    flo: f64,
    fhi: f64,
    tol: f64,
) -> Result<f64> {
    if flo == 0.0 {
        return Ok(lo);
    }
    if fhi == 0.0 {
        return Ok(hi);
    }
    if flo.signum() == fhi.signum() || lo >= hi {
        return Err(NumericsError::InvalidBracket { lo, hi });
    }
    // Orient so f(xl) < 0.
    let (mut xl, mut xh) = if flo < 0.0 { (lo, hi) } else { (hi, lo) };
    let mut rts = 0.5 * (lo + hi);
    let mut dx_old = (hi - lo).abs();
    let mut dx = dx_old;
    let (mut fv, mut dv) = fdf(rts);
    for _ in 0..MAX_ITER {
        let newton_leaves_bracket = ((rts - xh) * dv - fv) * ((rts - xl) * dv - fv) > 0.0;
        let slow = (2.0 * fv).abs() > (dx_old * dv).abs();
        if newton_leaves_bracket || slow || dv == 0.0 {
            dx_old = dx;
            dx = 0.5 * (xh - xl);
            rts = xl + dx;
            if rts == xl {
                return Ok(rts);
            }
        } else {
            dx_old = dx;
            dx = fv / dv;
            let tmp = rts;
            rts -= dx;
            if tmp == rts {
                return Ok(rts);
            }
        }
        if dx.abs() < tol.max(f64::EPSILON * rts.abs()) {
            return Ok(rts);
        }
        let (nf, nd) = fdf(rts);
        fv = nf;
        dv = nd;
        if fv < 0.0 {
            xl = rts;
        } else {
            xh = rts;
        }
    }
    Err(NumericsError::NoConvergence {
        routine: "newton_safeguarded",
        iterations: MAX_ITER,
    })
}

/// Brent's root finder (inverse-quadratic interpolation with bisection
/// safeguard); robust default for quantile inversion where derivatives
/// are unavailable or expensive.
pub fn brent_root<F: Fn(f64) -> f64>(f: F, lo: f64, hi: f64, tol: f64) -> Result<f64> {
    let (mut a, mut b) = (lo, hi);
    let mut fa = f(a);
    let mut fb = f(b);
    if fa == 0.0 {
        return Ok(a);
    }
    if fb == 0.0 {
        return Ok(b);
    }
    if fa.signum() == fb.signum() || a >= b {
        return Err(NumericsError::InvalidBracket { lo, hi });
    }
    let mut c = a;
    let mut fc = fa;
    let mut d = b - a;
    let mut e = d;
    for _ in 0..MAX_ITER {
        if fb.abs() > fc.abs() {
            // Ensure b is the best estimate: rotate so |f(b)| <= |f(c)|.
            a = b;
            b = c;
            c = a;
            fa = fb;
            fb = fc;
            fc = fa;
        }
        let tol1 = 2.0 * f64::EPSILON * b.abs() + 0.5 * tol;
        let xm = 0.5 * (c - b);
        if xm.abs() <= tol1 || fb == 0.0 {
            return Ok(b);
        }
        if e.abs() >= tol1 && fa.abs() > fb.abs() {
            let s = fb / fa;
            let (mut p, mut q);
            if a == c {
                // Secant step
                p = 2.0 * xm * s;
                q = 1.0 - s;
            } else {
                // Inverse quadratic interpolation
                let qq = fa / fc;
                let r = fb / fc;
                p = s * (2.0 * xm * qq * (qq - r) - (b - a) * (r - 1.0));
                q = (qq - 1.0) * (r - 1.0) * (s - 1.0);
            }
            if p > 0.0 {
                q = -q;
            }
            p = p.abs();
            let min1 = 3.0 * xm * q - (tol1 * q).abs();
            let min2 = (e * q).abs();
            if 2.0 * p < min1.min(min2) {
                e = d;
                d = p / q;
            } else {
                d = xm;
                e = d;
            }
        } else {
            d = xm;
            e = d;
        }
        a = b;
        fa = fb;
        b += if d.abs() > tol1 { d } else { tol1.copysign(xm) };
        fb = f(b);
        if (fb > 0.0) == (fc > 0.0) {
            c = a;
            fc = fa;
            d = b - a;
            e = d;
        }
    }
    Err(NumericsError::NoConvergence {
        routine: "brent_root",
        iterations: MAX_ITER,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;

    #[test]
    fn bisect_sqrt2() {
        let r = bisect(|x| x * x - 2.0, 0.0, 2.0, 1e-12).unwrap();
        assert!(approx_eq(r, std::f64::consts::SQRT_2, 1e-10, 1e-11));
    }

    #[test]
    fn bisect_endpoint_roots() {
        assert_eq!(bisect(|x| x, 0.0, 1.0, 1e-12).unwrap(), 0.0);
        assert_eq!(bisect(|x| x - 1.0, 0.0, 1.0, 1e-12).unwrap(), 1.0);
    }

    #[test]
    fn bisect_no_sign_change() {
        assert!(bisect(|x| x * x + 1.0, -1.0, 1.0, 1e-12).is_err());
    }

    #[test]
    fn newton_cubic() {
        let r = newton_safeguarded(|x| (x * x * x - 8.0, 3.0 * x * x), 0.0, 5.0, 1e-13).unwrap();
        assert!(approx_eq(r, 2.0, 1e-10, 1e-12));
    }

    #[test]
    fn newton_survives_flat_derivative() {
        // f = x³: derivative vanishes at 0, the root. Safeguard must kick in.
        let r = newton_safeguarded(|x| (x * x * x, 3.0 * x * x), -1.0, 2.0, 1e-10).unwrap();
        assert!(r.abs() < 1e-8, "r={r}");
    }

    #[test]
    fn newton_invalid_bracket() {
        assert!(newton_safeguarded(|x| (x * x + 1.0, 2.0 * x), -1.0, 1.0, 1e-10).is_err());
    }

    #[test]
    fn newton_seeded_matches_unseeded_bitwise() {
        let fdf = |x: f64| (x.ln() + x - 3.0, 1.0 / x + 1.0);
        let plain = newton_safeguarded(fdf, 0.5, 5.0, 1e-12).unwrap();
        let seeded =
            newton_safeguarded_seeded(fdf, 0.5, 5.0, fdf(0.5).0, fdf(5.0).0, 1e-12).unwrap();
        assert_eq!(plain.to_bits(), seeded.to_bits());
    }

    #[test]
    fn newton_seeded_endpoint_roots_and_bad_bracket() {
        let fdf = |x: f64| (x - 2.0, 1.0);
        assert_eq!(
            newton_safeguarded_seeded(fdf, 2.0, 5.0, 0.0, 3.0, 1e-12).unwrap(),
            2.0
        );
        assert_eq!(
            newton_safeguarded_seeded(fdf, -1.0, 2.0, -3.0, 0.0, 1e-12).unwrap(),
            2.0
        );
        assert!(
            newton_safeguarded_seeded(|x| (x * x + 1.0, 2.0 * x), -1.0, 1.0, 2.0, 2.0, 1e-10)
                .is_err()
        );
    }

    #[test]
    fn brent_transcendental() {
        // x e^x = 1 → x = W(1) ≈ 0.5671432904097838
        let r = brent_root(|x| x * x.exp() - 1.0, 0.0, 1.0, 1e-14).unwrap();
        assert!(approx_eq(r, 0.567_143_290_409_783_8, 1e-10, 1e-12));
    }

    #[test]
    fn brent_matches_bisect() {
        let f = |x: f64| (x / 3409.0).powf(0.43) - 1.0; // Weibull CDF crossing e⁻¹
        let rb = brent_root(f, 1.0, 1e6, 1e-9).unwrap();
        let bi = bisect(f, 1.0, 1e6, 1e-9).unwrap();
        assert!(approx_eq(rb, bi, 1e-6, 1e-3), "brent {rb} bisect {bi}");
        assert!(approx_eq(rb, 3409.0, 1e-6, 1e-3));
    }

    #[test]
    fn all_solvers_agree() {
        let f = |x: f64| x.ln() + x - 3.0;
        let b = bisect(f, 0.5, 5.0, 1e-12).unwrap();
        let n = newton_safeguarded(|x| (x.ln() + x - 3.0, 1.0 / x + 1.0), 0.5, 5.0, 1e-12).unwrap();
        let br = brent_root(f, 0.5, 5.0, 1e-12).unwrap();
        assert!(approx_eq(b, n, 1e-9, 1e-10));
        assert!(approx_eq(n, br, 1e-9, 1e-10));
    }
}
