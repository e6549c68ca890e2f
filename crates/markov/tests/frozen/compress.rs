//! The quarter-point `CompressedPolicy` builder, copied verbatim from
//! `chs_markov::store` before the half-midpoint rule replaced it: a
//! segment is accepted only when its midpoint *and* both quarter points
//! interpolate within half the relative-error budget; a segment whose
//! quarter points fail hands them down as its children's midpoints.
//!
//! This is the frozen oracle the production builder is measured against
//! in `compress_differential.rs`. It uses only the crate's public API;
//! the table is returned as its raw knots plus the search count, and
//! `next_interval` is the production lookup over those knots.

use chs_dist::FittedModel;
use chs_markov::{CompressionConfig, Result, VaidyaModel};

/// Forced-refinement span in `ln(1+age)`: segments wider than this are
/// always split even if the probe points happen to interpolate well,
/// guarding against aliasing on the top-level brackets.
const MAX_SEGMENT_SPAN: f64 = 2.0;

/// Below this knot spacing further bisection is numerically pointless.
const MIN_SEGMENT_SPAN: f64 = 1e-4;

pub struct FrozenTable {
    vs: Vec<f64>,
    ln_ts: Vec<f64>,
    pub build_evals: u32,
}

impl FrozenTable {
    pub fn next_interval(&self, age: f64) -> f64 {
        let v = age.max(0.0).ln_1p();
        let last = self.vs.len() - 1;
        if v >= self.vs[last] {
            return self.ln_ts[last].exp();
        }
        // First knot strictly above v; v < vs[last] so i ∈ [1, last].
        let i = self.vs.partition_point(|&k| k <= v).max(1);
        let (va, vb) = (self.vs[i - 1], self.vs[i]);
        let frac = (v - va) / (vb - va);
        (self.ln_ts[i - 1] + frac * (self.ln_ts[i] - self.ln_ts[i - 1])).exp()
    }

    pub fn segments(&self) -> usize {
        self.vs.len() - 1
    }
}

pub fn build(model: &FittedModel, config: &CompressionConfig) -> Result<FrozenTable> {
    let vaidya = VaidyaModel::new(model, config.costs)?;
    let mut evals: u32 = 0;
    let mut exact = |v: f64, hint: f64| -> Result<f64> {
        evals += 1;
        let age = v.exp_m1().max(0.0);
        let t = if hint.is_finite() && hint > 0.0 {
            vaidya.optimal_work_near_lane(age, hint)?
        } else {
            vaidya.optimal_work_lane(age)?
        };
        Ok(t.ln())
    };

    let v_hi = config.max_age.ln_1p();
    let ln_t0 = exact(0.0, f64::NAN)?;
    if model.kind().is_memoryless() {
        return Ok(FrozenTable {
            vs: vec![0.0, v_hi],
            ln_ts: vec![ln_t0, ln_t0],
            build_evals: evals,
        });
    }

    // The horizon anchor gets a cold search: the age-0 optimum is a
    // poor hint across the whole horizon (DFR fits move T_opt by far
    // more than the warm search's trust span), so hinting it would
    // only spend lane batches walking to an escape before running
    // the same full search anyway.
    let ln_t_hi = exact(v_hi, f64::NAN)?;
    // |ln T̂ − ln T| ≤ ln(1 + ε/2) at every probe point keeps the
    // whole segment within ε with headroom for un-probed ages.
    let tol = (0.5 * config.max_rel_error).ln_1p();
    let mut vs = vec![0.0];
    let mut ln_ts = vec![ln_t0];
    subdivide(
        (0.0, ln_t0),
        (v_hi, ln_t_hi),
        None,
        0,
        config.max_depth,
        tol,
        &mut exact,
        &mut vs,
        &mut ln_ts,
    )?;
    Ok(FrozenTable {
        vs,
        ln_ts,
        build_evals: evals,
    })
}

/// Recursive adaptive bisection of `[a, b]` in `(v, ln T)`. Appends
/// every knot after `a` (including `b`) to `vs`/`ln_ts` in order.
/// `known_mid` carries an already-searched value for this interval's
/// midpoint: a parent whose quarter-point confirmation failed has
/// evaluated both children's midpoints (its own quarter points), so the
/// recursion reuses them instead of re-running the searches.
#[allow(clippy::too_many_arguments)]
fn subdivide(
    a: (f64, f64),
    b: (f64, f64),
    known_mid: Option<f64>,
    depth: u32,
    max_depth: u32,
    tol: f64,
    exact: &mut dyn FnMut(f64, f64) -> Result<f64>,
    vs: &mut Vec<f64>,
    ln_ts: &mut Vec<f64>,
) -> Result<()> {
    let span = b.0 - a.0;
    let interp = |frac: f64| a.1 + frac * (b.1 - a.1);
    let accept = |vs: &mut Vec<f64>, ln_ts: &mut Vec<f64>| {
        vs.push(b.0);
        ln_ts.push(b.1);
    };
    if depth >= max_depth || span < MIN_SEGMENT_SPAN {
        accept(vs, ln_ts);
        return Ok(());
    }
    let v_m = 0.5 * (a.0 + b.0);
    let ln_t_m = match known_mid {
        Some(known) => known,
        None => exact(v_m, interp(0.5).exp())?,
    };
    let mid_ok = span <= MAX_SEGMENT_SPAN && (ln_t_m - interp(0.5)).abs() <= tol;
    let mut quarters = (None, None);
    if mid_ok {
        // Midpoint fits the chord — confirm at the quarter points
        // before committing the whole segment.
        let q1 = exact(0.25f64.mul_add(span, a.0), interp(0.25).exp())?;
        let q3 = exact(0.75f64.mul_add(span, a.0), interp(0.75).exp())?;
        if (q1 - interp(0.25)).abs() <= tol && (q3 - interp(0.75)).abs() <= tol {
            accept(vs, ln_ts);
            return Ok(());
        }
        quarters = (Some(q1), Some(q3));
    }
    let m = (v_m, ln_t_m);
    subdivide(
        a,
        m,
        quarters.0,
        depth + 1,
        max_depth,
        tol,
        exact,
        vs,
        ln_ts,
    )?;
    subdivide(
        m,
        b,
        quarters.1,
        depth + 1,
        max_depth,
        tol,
        exact,
        vs,
        ln_ts,
    )
}
