//! Closed-form execution of availability segments under fixed costs —
//! the batch simulator's inner loop.
//!
//! The arithmetic here is kept operation-for-operation identical to the
//! historical `chs-sim` engine loop (`crates/sim/src/engine.rs` before
//! the extraction), so simulators ported onto this crate reproduce their
//! pre-refactor results **bitwise**; a differential test in `chs-sim`
//! pins that against a frozen copy of the old loop.
//!
//! # The plan walk
//!
//! Every segment opens with a recovery of `R` seconds, so its `k`-th
//! work interval begins at the age `age₀ = R`, `ageₖ₊₁ = ageₖ + (tₖ + C)`
//! — the paper's schedule `T_opt(R), T_opt(R + T₁ + C), …`, restarted
//! after every failure (§3.5). That sequence does not depend on the
//! segment: a segment's length only decides where its walk stops. So
//! [`run_trace`] plans it once per trace: `tₖ`, the guarded interval at
//! `ageₖ`, is computed the first time any segment reaches step `k` and
//! read back by every later segment. Each segment still does the same
//! ledger updates and the same `age += t + c` additions as a walk that
//! queries the policy at every step, so every segment's step `k` starts
//! at the bitwise-same age the plan entry was computed at. For a policy
//! whose `next_interval` depends on the age alone (the
//! [`SchedulePolicy`] contract) the results, ledger and observer events
//! alike, are bitwise those of re-planning every step;
//! `tests/plan_differential.rs` pins that against a frozen copy of the
//! per-segment executor.
//!
//! The plan holds at most [`MAX_PLAN_STEPS`] entries; steps past it query
//! the policy directly. Memory stays bounded where a degenerate but legal
//! input (C = 0 with intervals clamped to `MIN_WORK_SECONDS`) walks
//! millions of steps through one long segment.

use crate::accounting::CycleAccounting;
use crate::config::CycleConfig;
use crate::guard::guarded_interval;
use crate::observer::{CycleObserver, TransferDirection};
use crate::SchedulePolicy;

/// The most work intervals [`run_trace`] keeps in its per-trace plan
/// (32 KiB of `f64`). A segment that walks further queries the policy at
/// every step past this one.
pub const MAX_PLAN_STEPS: usize = 4_096;

/// The guarded intervals `t₀, t₁, …` from age `R`, as far as any segment
/// of the trace has walked (capped at [`MAX_PLAN_STEPS`]).
struct Plan<'p> {
    policy: &'p dyn SchedulePolicy,
    intervals: Vec<f64>,
}

impl Plan<'_> {
    /// The interval of step `k`, which begins at `age`.
    fn interval(&mut self, k: usize, age: f64) -> f64 {
        if let Some(&t) = self.intervals.get(k) {
            return t;
        }
        let t = guarded_interval(age, |age| self.policy.next_interval(age));
        if k < MAX_PLAN_STEPS {
            // Segments walk their steps in order, so a miss below the cap
            // is always the plan's next entry.
            debug_assert_eq!(k, self.intervals.len());
            self.intervals.push(t);
        }
        t
    }
}

/// Run a whole trace of availability segments, returning the aggregate
/// ledger and reporting every event to `obs`. Durations are assumed
/// pre-validated (finite, positive).
///
/// The job is assumed to have been running before each segment (the
/// paper's steady-state setup), so every segment begins with a recovery.
/// The policy is asked once per plan step, not once per segment step;
/// see the module docs.
pub fn run_trace<O: CycleObserver + ?Sized>(
    durations: &[f64],
    policy: &dyn SchedulePolicy,
    config: &CycleConfig,
    obs: &mut O,
) -> CycleAccounting {
    let mut r = CycleAccounting::default();
    let mut plan = Plan {
        policy,
        intervals: Vec::new(),
    };
    for &segment in durations {
        walk_segment(segment, &mut plan, config, &mut r, obs);
    }
    r
}

/// Run one availability segment of length `a` seconds: recovery, then
/// work/checkpoint cycles along `plan` until eviction, accounting into
/// `r` and reporting every event to `obs`.
fn walk_segment<O: CycleObserver + ?Sized>(
    a: f64,
    plan: &mut Plan<'_>,
    config: &CycleConfig,
    r: &mut CycleAccounting,
    obs: &mut O,
) {
    let c = config.checkpoint_cost;
    let rec = config.recovery_cost;
    let image = config.image_mb;
    r.total_seconds += a;
    r.recovery_started();
    obs.on_placed(a);
    obs.on_transfer_started(0.0, TransferDirection::Inbound);

    // Phase 1: recovery.
    if a < rec {
        // Evicted mid-recovery: the partial inbound transfer still crossed
        // the network.
        let megabytes = if config.count_recovery_bytes && rec > 0.0 {
            image * (a / rec)
        } else {
            0.0
        };
        r.recovery_interrupted(a, megabytes, true);
        obs.on_transfer_interrupted(a, TransferDirection::Inbound, a, megabytes);
        obs.on_evicted(a);
        return;
    }
    let megabytes = if config.count_recovery_bytes {
        image
    } else {
        0.0
    };
    r.recovery_completed(rec, megabytes);
    obs.on_transfer_completed(rec, TransferDirection::Inbound, rec, megabytes);
    let mut age = rec;

    // Phase 2: work/checkpoint cycles until eviction; step `k` begins at
    // the age its plan entry was computed at.
    for k in 0.. {
        let t = plan.interval(k, age);
        obs.on_interval_planned(age, t);
        if age + t >= a {
            // Evicted during (or exactly at the end of) the work phase:
            // everything since the last committed checkpoint is lost.
            r.work_lost(a - age, true);
            obs.on_evicted(a);
            return;
        }
        if age + t + c > a {
            // Evicted during the checkpoint transfer: the work and the
            // partial outbound bytes are lost.
            let ckpt_elapsed = a - (age + t);
            let megabytes = if c > 0.0 {
                image * (ckpt_elapsed / c)
            } else {
                0.0
            };
            r.checkpoint_interrupted(t, ckpt_elapsed, megabytes, true);
            obs.on_transfer_started(age + t, TransferDirection::Outbound);
            obs.on_transfer_interrupted(a, TransferDirection::Outbound, ckpt_elapsed, megabytes);
            obs.on_evicted(a);
            return;
        }
        // Interval committed.
        r.interval_committed(t, c, image);
        obs.on_transfer_started(age + t, TransferDirection::Outbound);
        obs.on_transfer_completed(age + t + c, TransferDirection::Outbound, c, image);
        obs.on_work_committed(age + t + c, t);
        age += t + c;
        if age >= a {
            // Segment exhausted exactly at the commit boundary; the next
            // segment still starts with a recovery.
            r.segment_exhausted();
            obs.on_evicted(age);
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observer::NoopObserver;

    struct Fixed(f64);
    impl SchedulePolicy for Fixed {
        fn next_interval(&self, _age: f64) -> f64 {
            self.0
        }
        fn label(&self) -> String {
            format!("fixed({} s)", self.0)
        }
    }

    #[test]
    fn hand_computed_single_segment() {
        // Segment 1000 s, R = C = 50, T = 200 fixed: recovery [0, 50),
        // three full 250 s intervals end at 800, the next work interval
        // hits the boundary — 200 s lost.
        let r = run_trace(
            &[1_000.0],
            &Fixed(200.0),
            &CycleConfig::paper(50.0),
            &mut NoopObserver,
        );
        assert_eq!(r.recoveries, 1);
        assert_eq!(r.recoveries_completed, 1);
        assert_eq!(r.checkpoints_committed, 3);
        assert_eq!(r.failures, 1);
        assert!((r.useful_seconds - 600.0).abs() < 1e-9);
        assert!((r.lost_seconds - 200.0).abs() < 1e-9);
        assert!((r.lost_work_seconds - 200.0).abs() < 1e-9);
        assert!((r.megabytes - 2_000.0).abs() < 1e-9);
        assert_eq!(r.partial_megabytes, 0.0);
        assert!(r.conservation_residual().abs() < 1e-9);
    }

    #[test]
    fn partial_transfers_split_from_full() {
        // Segment 280: recovery ends 50, work ends 250, checkpoint cut at
        // 280 with 30/50 of the image moved.
        let r = run_trace(
            &[280.0],
            &Fixed(200.0),
            &CycleConfig::paper(50.0),
            &mut NoopObserver,
        );
        assert_eq!(r.checkpoints_committed, 0);
        assert_eq!(r.checkpoints_attempted, 1);
        assert!((r.full_megabytes - 500.0).abs() < 1e-9);
        assert!((r.partial_megabytes - 300.0).abs() < 1e-9);
        assert!((r.megabytes - 800.0).abs() < 1e-9);

        // Segment 20: evicted mid-recovery.
        let r = run_trace(
            &[20.0],
            &Fixed(200.0),
            &CycleConfig::paper(50.0),
            &mut NoopObserver,
        );
        assert_eq!(r.recoveries_completed, 0);
        assert!((r.partial_recovery_seconds - 20.0).abs() < 1e-9);
        assert!((r.partial_megabytes - 200.0).abs() < 1e-9);
    }

    #[test]
    fn observer_sees_the_structure() {
        #[derive(Default)]
        struct Count {
            planned: usize,
            committed: usize,
            interrupted: usize,
            evictions: usize,
        }
        impl CycleObserver for Count {
            fn on_interval_planned(&mut self, _at: f64, _t: f64) {
                self.planned += 1;
            }
            fn on_work_committed(&mut self, _at: f64, _s: f64) {
                self.committed += 1;
            }
            fn on_transfer_interrupted(
                &mut self,
                _at: f64,
                _d: TransferDirection,
                _e: f64,
                _mb: f64,
            ) {
                self.interrupted += 1;
            }
            fn on_evicted(&mut self, _at: f64) {
                self.evictions += 1;
            }
        }
        let mut obs = Count::default();
        run_trace(
            &[1_000.0, 280.0, 20.0],
            &Fixed(200.0),
            &CycleConfig::paper(50.0),
            &mut obs,
        );
        // 1000: 4 planned (3 committed + 1 failed-in-work); 280: 1
        // planned, checkpoint interrupted; 20: recovery interrupted.
        assert_eq!(obs.planned, 5);
        assert_eq!(obs.committed, 3);
        assert_eq!(obs.interrupted, 2);
        assert_eq!(obs.evictions, 3);
    }

    #[test]
    fn guard_floors_degenerate_policies() {
        struct Nan;
        impl SchedulePolicy for Nan {
            fn next_interval(&self, _age: f64) -> f64 {
                f64::NAN
            }
            fn label(&self) -> String {
                "nan".into()
            }
        }
        // A NaN plan degrades to the minimum interval instead of wedging;
        // the segment still terminates.
        let r = run_trace(&[10.0], &Nan, &CycleConfig::paper(1.0), &mut NoopObserver);
        assert!(r.failures >= 1);
        assert!(r.conservation_residual().abs() < 1e-9);
    }
}
