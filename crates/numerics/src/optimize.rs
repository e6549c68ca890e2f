//! One-dimensional minimization: golden-section search over a fixed
//! bracket, successive parabolic interpolation, and the lane-batched
//! searches.
//!
//! The paper minimizes the overhead ratio `Γ(T)/T` with "the Golden
//! Section Search method as implemented in Numerical Recipes".
//! [`minimize_bounded`] is that golden-ratio search, run over a fixed
//! bracket `[lo, hi]` (the schedule optimizer's `[ln t_min, ln t_max]`)
//! instead of one found by NR's downhill `mnbrak` expansion, so it needs
//! no interior bracket and clamps to an edge when the objective is
//! monotone there.

use crate::{NumericsError, Result};

/// Golden ratio constants: `R = (√5 − 1)/2 ≈ 0.618`, `C = 1 − R`.
const GOLD_R: f64 = 0.618_033_988_749_894_8;
const GOLD_C: f64 = 1.0 - GOLD_R;

/// Result of a 1-D minimization.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Minimum {
    /// Abscissa of the located minimum.
    pub x: f64,
    /// Function value at [`Minimum::x`].
    pub f: f64,
    /// Number of function evaluations consumed.
    pub evaluations: usize,
}

/// Minimize over a *bounded* interval `[lo, hi]` by golden section without
/// requiring an interior bracket (clamps to the boundary minimum if the
/// function is monotone on the interval). Used when `T` must respect
/// scheduler-imposed bounds.
pub fn minimize_bounded<F: Fn(f64) -> f64>(f: F, lo: f64, hi: f64, tol: f64) -> Result<Minimum> {
    let valid = lo < hi && lo.is_finite() && hi.is_finite();
    if !valid {
        return Err(NumericsError::InvalidBracket { lo, hi });
    }
    let tol = tol.max(f64::EPSILON.sqrt());
    let mut a = lo;
    let mut b = hi;
    let mut x1 = a + GOLD_C * (b - a);
    let mut x2 = b - GOLD_C * (b - a);
    let mut f1 = f(x1);
    let mut f2 = f(x2);
    let mut evals = 2usize;
    const MAX_ITER: usize = 300;
    for _ in 0..MAX_ITER {
        if (b - a).abs() <= tol * (x1.abs() + x2.abs()).max(1.0) {
            let (x, fx) = if f1 < f2 { (x1, f1) } else { (x2, f2) };
            // Also compare against the boundary values in case of
            // monotonicity toward an edge.
            let fl = f(lo);
            let fh = f(hi);
            evals += 2;
            let mut best = Minimum {
                x,
                f: fx,
                evaluations: evals,
            };
            if fl < best.f {
                best = Minimum {
                    x: lo,
                    f: fl,
                    evaluations: evals,
                };
            }
            if fh < best.f {
                best = Minimum {
                    x: hi,
                    f: fh,
                    evaluations: evals,
                };
            }
            return Ok(best);
        }
        if f1 < f2 {
            b = x2;
            x2 = x1;
            f2 = f1;
            x1 = a + GOLD_C * (b - a);
            f1 = f(x1);
        } else {
            a = x1;
            x1 = x2;
            f1 = f2;
            x2 = b - GOLD_C * (b - a);
            f2 = f(x2);
        }
        evals += 1;
    }
    Err(NumericsError::NoConvergence {
        routine: "minimize_bounded",
        iterations: MAX_ITER,
    })
}

/// Step-size floor for [`spi_refine`]: below this the parabola vertex is
/// dominated by floating-point noise in `f` rather than by curvature, so
/// shrinking further cannot improve the estimate (`h* ~ ε^{1/3}`).
pub const SPI_H_FLOOR: f64 = 1e-5;

/// Refine a nearby local minimum by successive parabolic interpolation.
///
/// Starting from `x0` (assumed within the minimum's basin), fit a
/// parabola through `x − h`, `x`, `x + h`, jump to its vertex, and shrink
/// `h` toward [`SPI_H_FLOOR`]. Where the three points are not locally
/// convex the step degrades to a downhill move of size `h`, so the
/// routine still makes progress from a start on a monotone stretch.
///
/// Unlike [`minimize_bounded`] this never fails: it returns the best
/// point seen, which is `x0` itself in the worst case. The schedule
/// optimizer uses it as the *common* final stage of both the cold
/// (full-bracket) and warm-started `T_opt` searches; because both finish
/// with the same floor-limited polish they agree to ~`1e-10` in `x`,
/// which is what lets warm-started sweeps reproduce cold-sweep results.
pub fn spi_refine<F: Fn(f64) -> f64>(f: F, x0: f64, h0: f64, max_steps: usize) -> Minimum {
    let mut x = x0;
    let mut fx = f(x);
    let mut evals = 1usize;
    let mut h = h0.max(SPI_H_FLOOR);
    for _ in 0..max_steps {
        let (xl, xr) = (x - h, x + h);
        let (fl, fr) = (f(xl), f(xr));
        evals += 2;
        let denom = fl - 2.0 * fx + fr;
        let dx = if denom > 0.0 {
            (0.5 * h * (fl - fr) / denom).clamp(-h, h)
        } else if fl < fr {
            -h
        } else {
            h
        };
        let xn = x + dx;
        let fn_ = f(xn);
        evals += 1;
        // Keep the best of the four points examined this step.
        let mut best = (x, fx);
        for cand in [(xl, fl), (xr, fr), (xn, fn_)] {
            if cand.1 < best.1 {
                best = cand;
            }
        }
        (x, fx) = best;
        if h <= SPI_H_FLOOR {
            break;
        }
        // Near a quadratic minimum |dx| contracts quadratically; the 0.1
        // cap keeps progress on stubborn (non-convex-at-scale) stretches.
        h = (dx.abs() * 2.0).max(h * 0.025).max(SPI_H_FLOOR);
    }
    Minimum {
        x,
        f: fx,
        evaluations: evals,
    }
}

/// Result of a lane-batched local refinement ([`minimize_batched_near`]).
#[derive(Debug, Clone, Copy)]
pub struct BatchMinimum {
    /// Best abscissa: the unevaluated parabola vertex of the converged
    /// bracket when the search certified an interior minimum, otherwise
    /// the best evaluated probe.
    pub x: f64,
    /// Best *evaluated* objective value (at a probe within the converged
    /// bracket — not necessarily at `x`, which may be the refined
    /// vertex).
    pub f: f64,
    /// Number of 4-probe batches issued.
    pub batches: usize,
    /// True when the search walked (or was pinned) outside its trust
    /// window `[x0 - span, x0 + span]` minus the same `0.05` guard band
    /// the scalar warm search uses; callers should fall back to a full
    /// bracketed search exactly as they would for a scalar escape.
    pub escaped: bool,
}

/// Lane-batched warm-start minimizer: refine a minimum near `x0` issuing
/// 4 probes per objective call.
///
/// The counterpart of [`spi_refine`] for objectives that expose a batched
/// `[f64; 4] -> [f64; 4]` evaluation (the Γ lane kernels). The search runs
/// in *rounds*: each round fixes a window around the incumbent, evaluates
/// the window's 4 interior quintile points per batch, and shrinks the
/// bracket onto the parabola vertex of the best interior triple (×0.14
/// per batch when the triple is convex, ×0.4 neighbour-shrink otherwise;
/// never expanding mid-round — that keeps the bracket update monotone and
/// oscillation-free). A round that converges *at* its own window edge
/// means the minimum may lie outside: the window is re-centred on the
/// pinned edge, widened ×4, and the round re-run, up to the trust span
/// `[x0 − span, x0 + span] ∩ [lo, hi]`. A round that converges in the
/// interior returns the (unevaluated) parabola vertex of the final
/// triple — a strictly better abscissa estimate than any probe on the
/// sub-`tol` window, at zero extra batches.
///
/// The routine never fails: it returns the best point seen. Accuracy is
/// governed by `tol` (bracket width at which bracketing stops); with the
/// vertex polish the returned `x` is typically within `tol / 10` of the
/// local minimizer for smooth objectives. `escaped` is reported when the
/// search pinned to the trust-span or hard `[lo, hi]` boundary (or ran
/// out of batches still pinned) — callers should then fall back to their
/// full bracketed scalar search, exactly as the scalar warm path does. It
/// does **not** reproduce [`spi_refine`]'s iterates bitwise — callers
/// that need the frozen scalar answer must keep calling the scalar path.
#[allow(clippy::too_many_arguments)]
pub fn minimize_batched_near<F: FnMut([f64; 4]) -> [f64; 4]>(
    mut f: F,
    x0: f64,
    half_width: f64,
    lo: f64,
    hi: f64,
    span: f64,
    tol: f64,
    max_batches: usize,
) -> BatchMinimum {
    let wlo = (x0 - span).max(lo);
    let whi = (x0 + span).min(hi);
    let mut center = x0.clamp(wlo, whi);
    let mut hw = half_width.max(tol);
    let mut best = (center, f64::INFINITY);
    let mut batches = 0usize;
    let mut pinned = true;
    while batches < max_batches {
        let ra = (center - hw).max(wlo);
        let rb = (center + hw).min(whi);
        let (mut a, mut b) = (ra, rb);
        // Best evaluated triple (evenly spaced) for the vertex polish.
        let mut triple: Option<([f64; 3], [f64; 3])> = None;
        // −1/+1 when the round's first batch is strictly monotone: the
        // minimum lies beyond that window edge, so skip the bracketing
        // batches entirely and go straight to re-centre-and-widen.
        let mut fled = 0i32;
        while batches < max_batches && b - a > tol {
            let step = (b - a) / 5.0;
            let xs = [a + step, a + 2.0 * step, a + 3.0 * step, a + 4.0 * step];
            let fs = f(xs);
            batches += 1;
            let mut k = 0usize;
            for i in 0..4 {
                if fs[i] < fs[k] {
                    k = i;
                }
                if fs[i] < best.1 {
                    best = (xs[i], fs[i]);
                }
            }
            if a == ra && b == rb {
                // Strictly monotone first batch whose slope is *not*
                // collapsing toward the downhill edge: the minimum lies
                // beyond the window, so skip the bracketing batches and
                // flee. A collapsing slope (last gap under half the
                // first) means the minimum is at or just inside the
                // edge — the ordinary k-shrink arms bracket that case
                // soundly, so no flee.
                let d = [fs[1] - fs[0], fs[2] - fs[1], fs[3] - fs[2]];
                if d[0] > 0.0 && d[1] > 0.0 && d[2] > 0.0 && d[0] >= 0.5 * d[2] && ra > wlo {
                    fled = -1;
                    break;
                }
                if d[0] < 0.0 && d[1] < 0.0 && d[2] < 0.0 && -d[2] >= -0.5 * d[0] && rb < whi {
                    fled = 1;
                    break;
                }
            }
            let j = k.clamp(1, 2);
            triple = Some(([xs[j - 1], xs[j], xs[j + 1]], [fs[j - 1], fs[j], fs[j + 1]]));
            if k == 0 || k == 3 {
                // Best at a bracket-adjacent probe: slide toward that
                // edge (×0.4 shrink), keeping the edge itself.
                a = if k == 0 { a } else { xs[2] };
                b = if k == 3 { b } else { xs[1] };
            } else {
                // Interior best: when the local triple is convex, shrink
                // straight onto its parabola vertex (±0.35·step, a ×0.14
                // contraction per batch — this is what gets a good warm
                // hint certified in 2–3 batches). A vertex mistake is
                // self-correcting: the next batch's best lands at the
                // shrunken window's edge and the k∈{0,3} arm slides back
                // out, still inside this round's fixed window.
                let denom = fs[k - 1] - 2.0 * fs[k] + fs[k + 1];
                if denom > 0.0 {
                    let v =
                        xs[k] + (0.5 * step * (fs[k - 1] - fs[k + 1]) / denom).clamp(-step, step);
                    a = (v - 0.35 * step).max(xs[k - 1]);
                    b = (v + 0.35 * step).min(xs[k + 1]);
                } else {
                    a = xs[k - 1];
                    b = xs[k + 1];
                }
            }
        }
        if fled != 0 {
            // The flee only fires toward a widenable edge: chase it.
            center = if fled < 0 { ra } else { rb };
            hw *= 4.0;
            continue;
        }
        if b - a > tol {
            // Batch budget exhausted before the round converged: the
            // verdict is uncertified, so report escape (`pinned` is still
            // true) and let the caller run its full scalar search.
            break;
        }
        let edge_margin = 2.0 * tol;
        let pinned_left = best.0 - ra <= edge_margin && ra > wlo;
        let pinned_right = rb - best.0 <= edge_margin && rb < whi;
        if pinned_left || pinned_right {
            // Converged at a round edge that is not yet the trust
            // boundary: the minimum may lie outside the round window.
            // Re-centre on the pinned edge and widen.
            center = best.0;
            hw *= 4.0;
            continue;
        }
        pinned = best.0 - wlo <= edge_margin || whi - best.0 <= edge_margin;
        if !pinned {
            // Certified interior convergence: return the parabola vertex
            // of the final evaluated triple. The vertex is not evaluated
            // — on the sub-`tol` window it is a strictly better abscissa
            // estimate than any probe, and spending a batch confirming
            // it would only re-measure the plateau. `f` stays the best
            // *evaluated* objective.
            if let Some(([xl, xc, _xr], [fl, fc, fr])) = triple {
                let h = xc - xl;
                let denom = fl - 2.0 * fc + fr;
                if denom > 0.0 && h > 0.0 {
                    let v = xc + (0.5 * h * (fl - fr) / denom).clamp(-h, h);
                    best.0 = v.clamp(wlo, whi);
                }
            }
        }
        break;
    }
    let escaped = pinned || (best.0 - x0).abs() > span - 0.05;
    BatchMinimum {
        x: best.0,
        f: best.1,
        batches,
        escaped,
    }
}

/// Width below which the quintile bracket is trusted to be locally
/// near-quadratic, enabling the parabola-vertex shrink. Above it only the
/// neighbour shrink runs — a wide window's parabola can model the wrong
/// scale of the objective and discard the bracket that holds the minimum.
const BATCH_PARABOLA_WIDTH: f64 = 0.5;

/// Full-bracket lane-batched minimizer: the batched counterpart of
/// [`minimize_bounded`] for hintless searches over `[lo, hi]`.
///
/// Evaluates the window's 4 interior quintile points per batch and
/// shrinks to the neighbours of the best probe — the same bracket-keeping
/// update as golden section for unimodal objectives, retiring 4 probes
/// per objective call instead of 1. Once the window is narrower than
/// `BATCH_PARABOLA_WIDTH` (0.5) the shrink jumps onto the local parabola
/// vertex (×0.14 per batch), and the converged bracket returns its
/// (unevaluated) vertex, well inside `tol`. `escaped` reports a window still
/// wider than `tol` at the batch budget — callers fall back to their
/// scalar search, as with [`minimize_batched_near`].
pub fn minimize_batched<F: FnMut([f64; 4]) -> [f64; 4]>(
    mut f: F,
    lo: f64,
    hi: f64,
    tol: f64,
    max_batches: usize,
) -> BatchMinimum {
    let (mut a, mut b) = (lo, hi);
    let mut best = (0.5 * (lo + hi), f64::INFINITY);
    let mut batches = 0usize;
    let mut triple: Option<([f64; 3], [f64; 3])> = None;
    while batches < max_batches && b - a > tol {
        let step = (b - a) / 5.0;
        let xs = [a + step, a + 2.0 * step, a + 3.0 * step, a + 4.0 * step];
        let fs = f(xs);
        batches += 1;
        let mut k = 0usize;
        for i in 0..4 {
            if fs[i] < fs[k] {
                k = i;
            }
            if fs[i] < best.1 {
                best = (xs[i], fs[i]);
            }
        }
        let j = k.clamp(1, 2);
        triple = Some(([xs[j - 1], xs[j], xs[j + 1]], [fs[j - 1], fs[j], fs[j + 1]]));
        if k == 0 || k == 3 {
            a = if k == 0 { a } else { xs[2] };
            b = if k == 3 { b } else { xs[1] };
        } else if b - a < BATCH_PARABOLA_WIDTH {
            let denom = fs[k - 1] - 2.0 * fs[k] + fs[k + 1];
            if denom > 0.0 {
                let v = xs[k] + (0.5 * step * (fs[k - 1] - fs[k + 1]) / denom).clamp(-step, step);
                a = (v - 0.35 * step).max(xs[k - 1]);
                b = (v + 0.35 * step).min(xs[k + 1]);
            } else {
                a = xs[k - 1];
                b = xs[k + 1];
            }
        } else {
            a = xs[k - 1];
            b = xs[k + 1];
        }
    }
    let escaped = b - a > tol || !best.1.is_finite();
    if !escaped {
        // Same unevaluated vertex refinement as `minimize_batched_near`.
        if let Some(([xl, xc, _xr], [fl, fc, fr])) = triple {
            let h = xc - xl;
            let denom = fl - 2.0 * fc + fr;
            if denom > 0.0 && h > 0.0 {
                let v = xc + (0.5 * h * (fl - fr) / denom).clamp(-h, h);
                best.0 = v.clamp(lo, hi);
            }
        }
    }
    BatchMinimum {
        x: best.0,
        f: best.1,
        batches,
        escaped,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;

    #[test]
    fn spi_refine_polishes_parabola() {
        let f = |x: f64| (x - 2.5) * (x - 2.5) + 1.0;
        let m = spi_refine(f, 2.3, 0.25, 20);
        assert!(approx_eq(m.x, 2.5, 1e-8, 1e-8), "x={}", m.x);
        assert!(m.f <= f(2.3));
    }

    #[test]
    fn spi_refine_walks_downhill_to_basin() {
        // Start outside the quadratic region of exp-shaped objective.
        let f = |x: f64| (x - 1.0).powi(2) + 0.05 * (x - 1.0).powi(3);
        let m = spi_refine(f, 2.0, 0.5, 25);
        assert!(approx_eq(m.x, 1.0, 1e-6, 1e-6), "x={}", m.x);
    }

    #[test]
    fn spi_refine_never_worse_than_start() {
        // Pathological non-convex start: result must not regress.
        let f = |x: f64| x.sin() * 5.0 + x * x * 0.01;
        let m = spi_refine(f, 4.0, 0.3, 20);
        assert!(m.f <= f(4.0) + 1e-12);
    }

    #[test]
    fn spi_refine_agrees_from_different_starts() {
        // The property the T_opt warm start relies on: two starts inside
        // the same basin converge to the same floor-limited vertex.
        let f = |x: f64| ((x - 3.0).cosh()).ln() + 0.1 * x;
        let a = spi_refine(f, 2.6, 0.3, 25);
        let b = spi_refine(f, 3.3, 0.02, 25);
        assert!(
            (a.x - b.x).abs() < 1e-8,
            "starts disagree: {} vs {}",
            a.x,
            b.x
        );
    }

    #[test]
    fn golden_parabola() {
        let m = minimize_bounded(|x| (x - 2.5) * (x - 2.5) + 1.0, 0.0, 10.0, 1e-10).unwrap();
        assert!(approx_eq(m.x, 2.5, 1e-6, 1e-6), "x={}", m.x);
        assert!(approx_eq(m.f, 1.0, 1e-9, 1e-9));
    }

    #[test]
    fn golden_nonsmooth_objective() {
        // |x − 1.3| + 0.1: kink at the minimum; golden section handles it.
        let m = minimize_bounded(|x: f64| (x - 1.3).abs() + 0.1, 0.0, 4.0, 1e-10).unwrap();
        assert!(approx_eq(m.x, 1.3, 1e-6, 1e-6), "x={}", m.x);
    }

    #[test]
    fn overhead_ratio_shape() {
        // A Γ/T-like objective: (c + t + k·t²)/t has minimum at t = √(c/k).
        let c = 100.0;
        let k = 0.001;
        let f = move |t: f64| (c + t + k * t * t) / t;
        let m = minimize_bounded(f, 10.0, 5_000.0, 1e-10).unwrap();
        assert!(approx_eq(m.x, (c / k).sqrt(), 1e-5, 1e-3), "x={}", m.x);
    }

    #[test]
    fn bounded_interior_minimum() {
        let m = minimize_bounded(|x| (x - 2.0) * (x - 2.0), 0.0, 10.0, 1e-10).unwrap();
        assert!(approx_eq(m.x, 2.0, 1e-6, 1e-6));
    }

    #[test]
    fn bounded_monotone_clamps_to_edge() {
        // Decreasing on [0, 5]: minimum at the right edge.
        let m = minimize_bounded(|x| -x, 0.0, 5.0, 1e-10).unwrap();
        assert!(approx_eq(m.x, 5.0, 1e-9, 1e-9), "x={}", m.x);
        // Increasing: minimum at the left edge.
        let m = minimize_bounded(|x| x, 0.0, 5.0, 1e-10).unwrap();
        assert!(approx_eq(m.x, 0.0, 1e-9, 1e-9), "x={}", m.x);
    }

    #[test]
    fn bounded_invalid_interval() {
        assert!(minimize_bounded(|x| x, 5.0, 5.0, 1e-8).is_err());
        assert!(minimize_bounded(|x| x, 6.0, 5.0, 1e-8).is_err());
    }

    fn quad_x4(c: f64) -> impl FnMut([f64; 4]) -> [f64; 4] {
        move |xs: [f64; 4]| xs.map(|x| (x - c) * (x - c))
    }

    #[test]
    fn batched_near_refines_quadratic() {
        let m = minimize_batched_near(quad_x4(2.0), 1.97, 0.045, -10.0, 10.0, 1.38, 6e-4, 16);
        assert!(!m.escaped);
        assert!((m.x - 2.0).abs() < 1e-4, "x={} batches={}", m.x, m.batches);
        assert!(m.batches <= 10, "batches={}", m.batches);
    }

    #[test]
    fn batched_near_expands_to_reach_minimum() {
        // Minimum well outside the initial ±0.045 window but inside the
        // trust span: bracket expansion must walk there.
        let m = minimize_batched_near(quad_x4(2.6), 2.0, 0.045, -10.0, 10.0, 1.38, 6e-4, 24);
        assert!(!m.escaped, "x={}", m.x);
        assert!((m.x - 2.6).abs() < 1e-3, "x={} batches={}", m.x, m.batches);
    }

    #[test]
    fn batched_near_reports_escape_beyond_span() {
        // Minimum outside the trust span: search pins to the window edge
        // and reports escape so callers fall back to the full search.
        let m = minimize_batched_near(quad_x4(5.0), 2.0, 0.045, -10.0, 10.0, 1.0, 6e-4, 24);
        assert!(m.escaped, "x={}", m.x);
    }

    #[test]
    fn batched_near_respects_hard_bounds() {
        // Monotone decreasing toward hi = 3: clamps at the bound.
        let mut f = |xs: [f64; 4]| xs.map(|x| -x);
        let m = minimize_batched_near(&mut f, 2.9, 0.045, -3.0, 3.0, 1.38, 6e-4, 24);
        assert!(m.x <= 3.0 && m.x > 2.99, "x={}", m.x);
    }

    #[test]
    fn batched_near_good_hint_converges_in_few_batches() {
        // A hint within the initial window must certify in ≤4 batches —
        // the budget the policy builder's per-probe cost model assumes.
        let mut f = |xs: [f64; 4]| xs.map(|x: f64| (x - 2.0).powi(2));
        let m = minimize_batched_near(&mut f, 1.99, 0.02, 0.0, 10.0, 1.38, 6e-4, 12);
        assert!(!m.escaped);
        assert!((m.x - 2.0).abs() < 1e-4, "x={}", m.x);
        assert!(m.batches <= 4, "batches={}", m.batches);
    }

    #[test]
    fn batched_near_monotone_round_widens_quickly() {
        // Minimum one full span away: the strictly-monotone first batch
        // of each round must re-centre immediately instead of spending a
        // whole round bracketing air.
        let mut f = |xs: [f64; 4]| xs.map(|x: f64| (x - 3.2).powi(2));
        let m = minimize_batched_near(&mut f, 2.0, 0.02, 0.0, 10.0, 1.38, 6e-4, 12);
        assert!(!m.escaped, "batches={}", m.batches);
        assert!((m.x - 3.2).abs() < 1e-3, "x={}", m.x);
        assert!(m.batches <= 10, "batches={}", m.batches);
    }

    #[test]
    fn batched_full_refines_quadratic_over_wide_window() {
        let mut f = |xs: [f64; 4]| xs.map(|x: f64| (x - 7.25).powi(2));
        let m = minimize_batched(&mut f, -11.0, 12.0, 6e-4, 16);
        assert!(!m.escaped);
        assert!((m.x - 7.25).abs() < 1e-4, "x={}", m.x);
        assert!(m.batches <= 16, "batches={}", m.batches);
    }

    #[test]
    fn batched_full_handles_edge_minimum() {
        // Monotone decreasing: the minimum sits at the right bound.
        let mut f = |xs: [f64; 4]| xs.map(|x: f64| -x);
        let m = minimize_batched(&mut f, 0.0, 23.0, 6e-4, 16);
        assert!(m.x > 22.9, "x={}", m.x);
    }

    #[test]
    fn batched_full_reports_escape_on_budget() {
        let mut f = |xs: [f64; 4]| xs.map(|x: f64| (x - 7.25).powi(2));
        let m = minimize_batched(&mut f, -11.0, 12.0, 6e-4, 2);
        assert!(m.escaped);
    }
}
