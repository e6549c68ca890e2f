//! Schedule policies: how the simulated job chooses its next work
//! interval.

use crate::{Result, SimError};
use chs_dist::{AvailabilityModel, FittedModel};
use chs_markov::{CheckpointCosts, VaidyaModel};
use std::sync::Arc;

/// The policy interface, shared with every other executor via
/// [`chs_cycle`].
pub use chs_cycle::SchedulePolicy;

/// Fixed periodic interval — the classical baseline every
/// checkpoint-interval paper compares against.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FixedIntervalPolicy {
    /// The constant work interval, seconds.
    pub interval: f64,
}

impl SchedulePolicy for FixedIntervalPolicy {
    fn next_interval(&self, _age: f64) -> f64 {
        self.interval
    }
    fn label(&self) -> String {
        format!("fixed({} s)", self.interval)
    }
}

/// The paper's policy: Vaidya `T_opt` from a fitted availability model,
/// recomputed at the machine's current age (aperiodic for non-memoryless
/// families).
///
/// The model is held behind an [`Arc`] so pool sweeps can share one fit
/// across every checkpoint-cost cell instead of cloning the fit per cell.
/// The `VaidyaModel` is constructed **once**, at policy construction —
/// per-interval calls reuse it (and its fresh-quantity memo) instead of
/// paying bound derivation and a cold memo on every schedule decision.
pub struct ModelPolicy {
    model: Arc<FittedModel>,
    /// `None` only for pathological costs that `VaidyaModel` rejects; the
    /// policy then degrades to the conservative one-mean-lifetime default.
    vaidya: Option<VaidyaModel<'static>>,
}

impl ModelPolicy {
    /// Bind a fitted model to the phase costs. Accepts either an owned
    /// `FittedModel` or an `Arc<FittedModel>` shared with other policies.
    pub fn new(model: impl Into<Arc<FittedModel>>, costs: CheckpointCosts) -> Self {
        let model = model.into();
        let vaidya = VaidyaModel::shared(Arc::clone(&model), costs).ok();
        Self { model, vaidya }
    }

    /// The model in use.
    pub fn model(&self) -> &FittedModel {
        &self.model
    }

    fn t_opt(&self, age: f64) -> Result<f64> {
        let vaidya = self
            .vaidya
            .as_ref()
            .ok_or_else(|| SimError::Policy("invalid checkpoint costs".into()))?;
        Ok(vaidya
            .optimal_interval(age)
            .map_err(|e| SimError::Policy(e.to_string()))?
            .work_seconds)
    }
}

impl SchedulePolicy for ModelPolicy {
    fn next_interval(&self, age: f64) -> f64 {
        // A policy failure (extraordinarily pathological fits) degrades to
        // a conservative default rather than aborting a pool-wide sweep:
        // one mean lifetime per checkpoint.
        self.t_opt(age)
            .unwrap_or_else(|_| self.model.mean().max(1.0))
    }
    fn label(&self) -> String {
        self.model.kind().label()
    }
}

/// [`ModelPolicy`] with `T_opt(age)` precomputed on a geometric age grid
/// and interpolated log-linearly. The sweep over 640 machines × 10
/// checkpoint costs × 4 models would otherwise re-run golden-section
/// search hundreds of times per availability segment.
///
/// For memoryless models the grid degenerates to a single entry.
///
/// The grid is a fixed lattice — age 0, then [`CACHE_GRID_POINTS`]
/// geometric ages from 1 s to `max_age` — of which only the ages an
/// executor can reach are filled. Every availability segment opens with
/// a recovery of `R = costs.recovery` seconds, so the first `T_opt`
/// decision is made at age `R`: the table starts at the last lattice age
/// at or below `R` (age 0 when `R < 1 s`, keeping the whole lattice).
/// The kept knots are a suffix of the full lattice, so every age `≥ R`
/// interpolates between the same brackets as on the full lattice. Ages
/// below the first knot are answered by the exact search of the inner
/// [`ModelPolicy`]; executors never ask for them.
///
/// The grid is filled through **one** [`VaidyaModel`] (so its
/// fresh-quantity memo persists across ages). The first knot is the
/// scalar cold search; every later age runs the four-lane warm search
/// [`VaidyaModel::optimal_work_near_lane`] from the neighboring ages'
/// `T_opt` — valid because `T_opt(age)` varies smoothly for the paper's
/// families, and guarded by that search's full-bracket fallback. The
/// filled values agree with the cold fill ([`CachedPolicy::new_cold`])
/// within the lane search's 5e-4 relative plateau bound.
pub struct CachedPolicy {
    inner: ModelPolicy,
    grid_ages: Vec<f64>,
    grid_t: Vec<f64>,
}

/// Number of geometric lattice ages (1 s to `max_age`) behind a
/// [`CachedPolicy`]; with the age-0 point the full lattice has one more.
/// A table keeps the suffix of that lattice its recovery cost can reach.
pub const CACHE_GRID_POINTS: usize = 64;

impl CachedPolicy {
    /// Precompute the cache. `max_age` should cover the longest
    /// availability segment the simulation will encounter (ages beyond it
    /// clamp to the last grid value, which is safe because `T_opt(age)`
    /// flattens as conditioning saturates).
    pub fn new(model: impl Into<Arc<FittedModel>>, costs: CheckpointCosts, max_age: f64) -> Self {
        Self::build(model.into(), costs, max_age, true)
    }

    /// Like [`CachedPolicy::new`] but with every grid point searched from
    /// the full log-space bracket by the scalar search (no warm starting).
    /// This is the pre-optimization fill, kept as the reference the sweep
    /// benchmark times and audits against; it keeps the same reachable
    /// knots as the warm fill, and its `T_opt` values agree with the warm
    /// fill's within 5e-4 relative.
    pub fn new_cold(
        model: impl Into<Arc<FittedModel>>,
        costs: CheckpointCosts,
        max_age: f64,
    ) -> Self {
        Self::build(model.into(), costs, max_age, false)
    }

    fn build(model: Arc<FittedModel>, costs: CheckpointCosts, max_age: f64, warm: bool) -> Self {
        let inner = ModelPolicy::new(Arc::clone(&model), costs);
        if inner.model.kind().is_memoryless() {
            let t = inner.next_interval(0.0);
            return Self {
                inner,
                grid_ages: vec![0.0],
                grid_t: vec![t],
            };
        }
        // Geometric grid from 1 s to max_age, plus the exact age-0 point.
        let max_age = max_age.max(10.0);
        let n = CACHE_GRID_POINTS;
        let mut grid_ages = Vec::with_capacity(n + 1);
        grid_ages.push(0.0);
        let lo: f64 = 1.0;
        let ratio = (max_age / lo).powf(1.0 / (n as f64 - 1.0));
        let mut a = lo;
        for _ in 0..n {
            grid_ages.push(a);
            a *= ratio;
        }
        // Keep the lattice from the last age at or below the recovery
        // cost: the executor's first decision is at age R.
        let first = grid_ages
            .partition_point(|&age| age <= costs.recovery)
            .saturating_sub(1);
        grid_ages.drain(..first);
        let mut grid_t = Vec::with_capacity(grid_ages.len());
        // Fill through the inner policy's own VaidyaModel: one optimizer,
        // one fresh-quantity memo, shared between grid fill and any later
        // direct `inner` use.
        match &inner.vaidya {
            Some(vaidya) => {
                // Ascending ages: each solved point seeds the next. With
                // two solved neighbors the seed is the log-linear
                // extrapolation of their optima — `T_opt(age)` drifts
                // smoothly along the geometric age grid, so extrapolating
                // cancels the first-order drift and leaves the warm search
                // a second-order-small correction. Any single-point
                // failure degrades to the conservative default (one mean
                // lifetime) and clears the seeds.
                let mut prev: Option<f64> = None;
                let mut prev2: Option<f64> = None;
                for &age in &grid_ages {
                    let hint = match (prev, prev2) {
                        (Some(p), Some(q)) => Some((2.0 * p.ln() - q.ln()).exp()),
                        (Some(p), None) => Some(p),
                        _ => None,
                    };
                    let solved = match hint.filter(|_| warm) {
                        Some(h) => vaidya.optimal_work_near_lane(age, h),
                        None => vaidya.optimal_interval(age).map(|opt| opt.work_seconds),
                    };
                    match solved {
                        Ok(t) => {
                            prev2 = prev;
                            prev = Some(t);
                            grid_t.push(t);
                        }
                        Err(_) => {
                            prev = None;
                            prev2 = None;
                            grid_t.push(model.mean().max(1.0));
                        }
                    }
                }
            }
            // Pathological costs/fit: same conservative default the
            // uncached ModelPolicy falls back to.
            None => grid_t.resize(grid_ages.len(), model.mean().max(1.0)),
        }
        Self {
            inner,
            grid_ages,
            grid_t,
        }
    }

    /// The wrapped model.
    pub fn model(&self) -> &FittedModel {
        self.inner.model()
    }

    /// The precomputed table: grid ages (ascending, starting at the last
    /// lattice age at or below the recovery cost) and the `T_opt` filled
    /// at each.
    pub fn grid(&self) -> (&[f64], &[f64]) {
        (&self.grid_ages, &self.grid_t)
    }
}

impl SchedulePolicy for CachedPolicy {
    fn next_interval(&self, age: f64) -> f64 {
        let ages = &self.grid_ages;
        let ts = &self.grid_t;
        // A NaN age would poison the binary search's comparator; the
        // shared guard maps it to age 0 (the youngest, most conservative
        // interval) instead of panicking mid-sweep. Negative ages count
        // as age 0 too.
        let age = chs_cycle::sanitize_age(age).max(0.0);
        if age < ages[0] {
            // Younger than the first reachable knot: no executor plans
            // here, so the rare caller gets the exact search.
            return self.inner.next_interval(age);
        }
        match ages.binary_search_by(|probe| probe.partial_cmp(&age).expect("finite grid")) {
            Ok(i) => ts[i],
            Err(i) if i >= ages.len() => *ts.last().expect("nonempty grid"),
            Err(i) => {
                // Log-linear interpolation in age (grid is geometric).
                let (a0, a1) = (ages[i - 1].max(1e-9), ages[i]);
                let (t0, t1) = (ts[i - 1], ts[i]);
                let w = ((age.max(1e-9) / a0).ln() / (a1 / a0).ln()).clamp(0.0, 1.0);
                t0 + w * (t1 - t0)
            }
        }
    }
    fn label(&self) -> String {
        self.inner.label()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chs_dist::fit::fit_model;
    use chs_dist::{ModelKind, Weibull};
    use rand::SeedableRng;

    fn weibull_fit() -> FittedModel {
        let truth = Weibull::paper_exemplar();
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(1);
        let data: Vec<f64> = (0..400).map(|_| truth.sample(&mut rng)).collect();
        fit_model(ModelKind::Weibull, &data).unwrap()
    }

    #[test]
    fn fixed_policy_is_constant() {
        let p = FixedIntervalPolicy { interval: 600.0 };
        assert_eq!(p.next_interval(0.0), 600.0);
        assert_eq!(p.next_interval(1e6), 600.0);
        assert!(p.label().contains("600"));
    }

    #[test]
    fn model_policy_matches_vaidya_directly() {
        let fit = weibull_fit();
        let costs = CheckpointCosts::symmetric(110.0);
        let policy = ModelPolicy::new(fit.clone(), costs);
        let vaidya = VaidyaModel::new(&fit, costs).unwrap();
        for &age in &[0.0, 100.0, 10_000.0] {
            let direct = vaidya.optimal_interval(age).unwrap().work_seconds;
            assert!(
                (policy.next_interval(age) - direct).abs() < 1e-9,
                "age={age}"
            );
        }
    }

    #[test]
    fn cached_policy_close_to_exact() {
        let fit = weibull_fit();
        let costs = CheckpointCosts::symmetric(110.0);
        let exact = ModelPolicy::new(fit.clone(), costs);
        let cached = CachedPolicy::new(fit, costs, 400_000.0);
        for &age in &[0.0, 3.0, 57.0, 333.0, 4_096.0, 70_000.0, 350_000.0] {
            let e = exact.next_interval(age);
            let c = cached.next_interval(age);
            assert!(
                (c / e - 1.0).abs() < 0.05,
                "age={age}: cached {c} vs exact {e}"
            );
        }
    }

    #[test]
    fn cached_policy_clamps_beyond_grid() {
        let fit = weibull_fit();
        let cached = CachedPolicy::new(fit, CheckpointCosts::symmetric(110.0), 10_000.0);
        let at_edge = cached.next_interval(10_000.0);
        let beyond = cached.next_interval(1e9);
        assert!((beyond - at_edge).abs() < 1e-9 * at_edge.max(1.0) || beyond >= at_edge);
    }

    #[test]
    fn cached_policy_nan_age_is_conservative_not_panic() {
        let fit = weibull_fit();
        let cached = CachedPolicy::new(fit, CheckpointCosts::symmetric(110.0), 100_000.0);
        let at_zero = cached.next_interval(0.0);
        assert_eq!(cached.next_interval(f64::NAN), at_zero);
        // Infinities stay well-defined too: +inf clamps to the oldest
        // grid entry, -inf to the youngest.
        assert_eq!(
            cached.next_interval(f64::INFINITY),
            *cached.grid_t.last().unwrap()
        );
        assert_eq!(cached.next_interval(f64::NEG_INFINITY), at_zero);
    }

    #[test]
    fn cold_and_warm_fill_agree_to_optimizer_floor() {
        let fit = Arc::new(weibull_fit());
        let costs = CheckpointCosts::symmetric(110.0);
        let warm = CachedPolicy::new(Arc::clone(&fit), costs, 400_000.0);
        let cold = CachedPolicy::new_cold(fit, costs, 400_000.0);
        for (w, c) in warm.grid_t.iter().zip(&cold.grid_t) {
            assert!(
                ((w - c) / c).abs() < 5e-4,
                "warm {w} vs cold {c} beyond the lane search's plateau bound"
            );
        }
    }

    #[test]
    fn arc_shared_model_needs_no_clone() {
        let fit = Arc::new(weibull_fit());
        let a = CachedPolicy::new(Arc::clone(&fit), CheckpointCosts::symmetric(50.0), 1e4);
        let b = CachedPolicy::new(Arc::clone(&fit), CheckpointCosts::symmetric(500.0), 1e4);
        // Both policies alias the same fit.
        assert!(std::ptr::eq(a.model(), b.model()));
    }

    #[test]
    fn cached_exponential_single_entry() {
        let data: Vec<f64> = (1..100).map(|i| 100.0 * i as f64).collect();
        let fit = fit_model(ModelKind::Exponential, &data).unwrap();
        let cached = CachedPolicy::new(fit, CheckpointCosts::symmetric(50.0), 1e6);
        let a = cached.next_interval(0.0);
        let b = cached.next_interval(5e5);
        assert_eq!(a, b, "memoryless cache must be constant");
        assert!(cached.label().contains("Exponential"));
    }
}
