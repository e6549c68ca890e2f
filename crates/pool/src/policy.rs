//! Work-interval planning for pool machines.
//!
//! The engine plans every interval through the shared
//! [`chs_cycle::guarded_interval`] composition (sanitize age → query →
//! clamp); implementations of [`PoolPolicy`] only supply the middle
//! step. Three planners cover the pool's uses:
//!
//! * [`StorePolicy`] — the scale path: per-machine `T_opt(age)` lookups
//!   against a [`PolicyStore`] epoch snapshot of compressed tables,
//!   built once by [`build_policy_store`] through the same
//!   [`PolicyCache::resolve`] as `chs-sched`'s publish.
//! * [`AdaptiveVaidyaPolicy`] — the classic contention protocol (the
//!   frozen `run_contention` in the root `tests/contention_differential.rs`
//!   and the manager server's planning): every completed transfer's
//!   measured duration becomes the `C = R` of the next exact `T_opt`,
//!   planned by each machine's [`MeasuredCostPlanner`] — the same planner
//!   the live driver and the manager use. Its one-entry memo is exact: a
//!   re-plan at an unchanged cost and key age returns the stored `T_opt`
//!   bit for bit, and exponential fits key every age alike because their
//!   closed-form optimum ignores the age. Used by the small-pool
//!   differential gates.
//! * [`FixedIntervalPolicy`] / [`SchedulePolicyBridge`] — deterministic
//!   schedules for identity tests against the closed-form executor.

use std::sync::Arc;

use chs_dist::FittedModel;
use chs_markov::{
    CheckpointCosts, CompressedPolicy, CompressionConfig, MeasuredCostPlanner, PolicyCache,
    PolicyStore,
};

use crate::{PoolError, Result};

/// Plans the next work interval for a machine.
pub trait PoolPolicy {
    /// The planned interval for `machine` at (sanitized) `age`, given
    /// the last measured transfer duration. The engine clamps the
    /// result through [`chs_cycle::clamp_interval`].
    fn next_interval(&mut self, machine: u32, age: f64, measured_cost_s: f64) -> Result<f64>;

    /// Human-readable planner name for reports.
    fn label(&self) -> String;
}

/// Always plans the same interval.
#[derive(Debug, Clone, Copy)]
pub struct FixedIntervalPolicy(pub f64);

impl PoolPolicy for FixedIntervalPolicy {
    fn next_interval(&mut self, _machine: u32, _age: f64, _cost: f64) -> Result<f64> {
        Ok(self.0)
    }

    fn label(&self) -> String {
        format!("fixed({} s)", self.0)
    }
}

/// Adapts a [`chs_cycle::SchedulePolicy`] (age-only schedule) to every
/// machine of a pool.
#[derive(Debug, Clone)]
pub struct SchedulePolicyBridge<P: chs_cycle::SchedulePolicy>(pub P);

impl<P: chs_cycle::SchedulePolicy> PoolPolicy for SchedulePolicyBridge<P> {
    fn next_interval(&mut self, _machine: u32, age: f64, _cost: f64) -> Result<f64> {
        Ok(self.0.next_interval(age))
    }

    fn label(&self) -> String {
        self.0.label()
    }
}

/// The classic contention planning protocol: one
/// [`MeasuredCostPlanner`] per machine, with the measured cost of the
/// last transfer as the symmetric checkpoint/recovery cost.
#[derive(Debug, Clone)]
pub struct AdaptiveVaidyaPolicy {
    planners: Vec<MeasuredCostPlanner>,
}

impl AdaptiveVaidyaPolicy {
    /// One fitted model per machine.
    pub fn per_machine(fits: Vec<FittedModel>) -> Self {
        AdaptiveVaidyaPolicy {
            planners: fits.into_iter().map(MeasuredCostPlanner::new).collect(),
        }
    }
}

impl PoolPolicy for AdaptiveVaidyaPolicy {
    fn next_interval(&mut self, machine: u32, age: f64, measured_cost_s: f64) -> Result<f64> {
        let planner = self
            .planners
            .get_mut(machine as usize)
            .ok_or(PoolError::MissingPolicy {
                machine: machine as u64,
            })?;
        Ok(planner.plan(measured_cost_s, age)?)
    }

    fn label(&self) -> String {
        "adaptive-vaidya".into()
    }
}

/// Table-driven planning from a [`PolicyStore`] epoch snapshot — the
/// only planner that amortizes to a million machines. Tables are built
/// at the fabric's nominal (uncontended) transfer cost, so the measured
/// cost is ignored by design: the store is an epoch-pinned decision
/// surface, as in the serving loop.
#[derive(Debug, Clone)]
pub struct StorePolicy {
    store: Arc<PolicyStore>,
}

impl StorePolicy {
    /// Serve intervals from `store`.
    pub fn new(store: Arc<PolicyStore>) -> Self {
        StorePolicy { store }
    }

    /// The underlying snapshot.
    pub fn store(&self) -> &Arc<PolicyStore> {
        &self.store
    }
}

impl PoolPolicy for StorePolicy {
    fn next_interval(&mut self, machine: u32, age: f64, _cost: f64) -> Result<f64> {
        self.store
            .next_interval(machine as u64, age)
            .ok_or(PoolError::MissingPolicy {
                machine: machine as u64,
            })
    }

    fn label(&self) -> String {
        format!("store(epoch {})", self.store.epoch())
    }
}

/// How a [`build_policy_store`] run resolved its machines.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize)]
pub struct StoreBuildReport {
    /// Machines covered by the store.
    pub machines: usize,
    /// Distinct compressed tables backing them.
    pub tables: usize,
    /// Exact table builds (including cluster rejects).
    pub builds: u64,
    /// Keys resolved by verified cluster sharing instead of a build.
    pub shared: u64,
    /// Cluster candidates whose shared surface failed verification.
    pub rejects: u64,
}

/// Build a [`PolicyStore`] for `machines` machines whose availability
/// models are `fits[stream_of(machine)]`, compressed at the default
/// geometry for `costs`. The fits resolve through one fresh
/// [`PolicyCache::resolve`] — the scheduler's publish build: dedup,
/// verified cluster sharing and private builds for rejects, bitwise
/// identical on any thread count — and every machine maps to its
/// stream's table.
///
/// # Errors
/// [`PoolError::Markov`] for invalid `costs` (even with no fits) or a
/// failed build; [`PoolError::MissingPolicy`] for a machine whose
/// stream index is not below `fits.len()`.
pub fn build_policy_store(
    fits: &[FittedModel],
    machines: usize,
    stream_of: impl Fn(u32) -> usize,
    costs: CheckpointCosts,
    epoch: u64,
) -> Result<(Arc<PolicyStore>, StoreBuildReport)> {
    let mut cache = PolicyCache::new(CompressionConfig::new(costs))?;
    let tables = cache.resolve(&fits.iter().collect::<Vec<_>>())?;
    let entries: Vec<(u64, Arc<CompressedPolicy>)> = (0..machines)
        .map(|m| {
            let table = tables
                .get(stream_of(m as u32))
                .ok_or(PoolError::MissingPolicy { machine: m as u64 })?;
            Ok((m as u64, Arc::clone(table)))
        })
        .collect::<Result<_>>()?;
    let store = PolicyStore::assemble(epoch, entries)?;
    let counters = cache.counters();
    let report = StoreBuildReport {
        machines,
        tables: store.stats().tables,
        builds: counters.builds,
        shared: counters.shared,
        rejects: counters.rejects,
    };
    Ok((Arc::new(store), report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use chs_dist::fit::fit_model;
    use chs_dist::ModelKind;
    use chs_markov::VaidyaModel;

    fn fits(n: usize) -> Vec<FittedModel> {
        (0..n)
            .map(|s| {
                let data: Vec<f64> = (0..40)
                    .map(|i| 500.0 + (s as f64 + 1.0) * 137.0 + (i as f64 * 61.0) % 900.0)
                    .collect();
                fit_model(ModelKind::Weibull, &data).unwrap()
            })
            .collect()
    }

    #[test]
    fn store_maps_every_machine_and_dedups_streams() {
        let fits = fits(3);
        let (store, report) = build_policy_store(
            &fits,
            24,
            |m| m as usize % 3,
            CheckpointCosts::symmetric(110.0),
            1,
        )
        .unwrap();
        assert_eq!(store.len(), 24);
        assert_eq!(report.machines, 24);
        assert!(report.tables <= 3);
        assert!(report.builds + report.shared >= report.tables as u64);
        // Machines of the same stream resolve to bitwise-equal answers.
        let a = store.next_interval(0, 300.0).unwrap();
        let b = store.next_interval(3, 300.0).unwrap();
        assert_eq!(a.to_bits(), b.to_bits());
    }

    #[test]
    fn store_build_is_thread_count_invariant() {
        let fits = fits(5);
        let costs = CheckpointCosts::symmetric(90.0);
        let (a, _) = build_policy_store(&fits, 40, |m| m as usize % 5, costs, 7).unwrap();
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(1)
            .build()
            .unwrap();
        let (b, _) = pool
            .install(|| build_policy_store(&fits, 40, |m| m as usize % 5, costs, 7))
            .unwrap();
        assert_eq!(a.digest(), b.digest());
    }

    #[test]
    fn out_of_range_stream_is_a_missing_policy() {
        let fits = fits(2);
        let n = fits.len();
        let err =
            build_policy_store(&fits, 3, |_| n, CheckpointCosts::symmetric(110.0), 0).unwrap_err();
        assert!(
            matches!(err, PoolError::MissingPolicy { machine: 0 }),
            "{err:?}"
        );
    }

    #[test]
    fn store_policy_answers_through_the_tables() {
        let fits = fits(2);
        let (store, _) = build_policy_store(
            &fits,
            4,
            |m| m as usize % 2,
            CheckpointCosts::symmetric(110.0),
            0,
        )
        .unwrap();
        let mut policy = StorePolicy::new(store.clone());
        let t = policy.next_interval(1, 250.0, 999.0).unwrap();
        assert_eq!(
            t.to_bits(),
            store.next_interval(1, 250.0).unwrap().to_bits()
        );
        assert!(policy.next_interval(99, 0.0, 0.0).is_err());
    }

    #[test]
    fn adaptive_policy_tracks_measured_cost() {
        // The contract is the classic contention protocol: replan with an
        // exact Vaidya model at the measured cost. (T_opt is *not*
        // monotone in a symmetric cost — a dearer recovery also raises
        // the failure penalty — so assert equivalence, not direction.)
        let fits = fits(1);
        let mut p = AdaptiveVaidyaPolicy::per_machine(fits.clone());
        for cost in [20.0, 400.0] {
            let got = p.next_interval(0, 100.0, cost).unwrap();
            let direct = VaidyaModel::new(&fits[0], CheckpointCosts::symmetric(cost))
                .unwrap()
                .optimal_interval(100.0)
                .unwrap()
                .work_seconds;
            assert_eq!(got.to_bits(), direct.to_bits());
        }
        let cheap = p.next_interval(0, 100.0, 20.0).unwrap();
        let dear = p.next_interval(0, 100.0, 400.0).unwrap();
        assert_ne!(cheap, dear, "measured cost must influence the plan");
        assert!(p.next_interval(7, 0.0, 1.0).is_err());
    }

    #[test]
    fn fixed_policy_is_fixed() {
        let mut p = FixedIntervalPolicy(321.0);
        assert_eq!(p.next_interval(0, 0.0, 1.0).unwrap(), 321.0);
        assert_eq!(p.next_interval(9, 1e9, 1e9).unwrap(), 321.0);
    }
}
