//! Frozen oracle: the per-segment closed-form executor as it stood before
//! `run_trace` became a plan walk. `run_segment` and `run_trace` are
//! copied verbatim; the imports, this header and [`Ledger`] (a copy of the
//! crate-private ledger transitions) are the only additions. Every
//! availability segment re-plans from age R by querying the policy at
//! every step. `plan_differential.rs` pins the
//! plan walk against it bitwise.

#![allow(dead_code)]

use chs_cycle::{
    guarded_interval, CycleAccounting, CycleConfig, CycleObserver, SchedulePolicy,
    TransferDirection,
};

/// The ledger transitions `run_segment` calls are crate-private in
/// `chs-cycle`; this is a frozen copy of their arithmetic, so the oracle
/// does not depend on the code it checks.
trait Ledger {
    fn recovery_started(&mut self);
    fn recovery_completed(&mut self, elapsed: f64, megabytes: f64);
    fn recovery_interrupted(&mut self, elapsed: f64, megabytes: f64, failed: bool);
    fn work_lost(&mut self, elapsed: f64, failed: bool);
    fn checkpoint_interrupted(
        &mut self,
        planned_work: f64,
        elapsed: f64,
        megabytes: f64,
        failed: bool,
    );
    fn interval_committed(&mut self, work: f64, checkpoint_elapsed: f64, megabytes: f64);
    fn segment_exhausted(&mut self);
}

impl Ledger for CycleAccounting {
    fn recovery_started(&mut self) {
        self.recoveries += 1;
    }

    fn recovery_completed(&mut self, elapsed: f64, megabytes: f64) {
        self.recovery_seconds += elapsed;
        self.megabytes += megabytes;
        self.recoveries_completed += 1;
        self.full_megabytes += megabytes;
    }

    fn recovery_interrupted(&mut self, elapsed: f64, megabytes: f64, failed: bool) {
        self.recovery_seconds += elapsed;
        self.megabytes += megabytes;
        if failed {
            self.failures += 1;
        }
        self.partial_recovery_seconds += elapsed;
        self.partial_megabytes += megabytes;
    }

    fn work_lost(&mut self, elapsed: f64, failed: bool) {
        self.lost_seconds += elapsed;
        if failed {
            self.failures += 1;
        }
        self.lost_work_seconds += elapsed;
    }

    fn checkpoint_interrupted(
        &mut self,
        planned_work: f64,
        elapsed: f64,
        megabytes: f64,
        failed: bool,
    ) {
        self.lost_seconds += planned_work + elapsed;
        self.checkpoints_attempted += 1;
        self.megabytes += megabytes;
        if failed {
            self.failures += 1;
        }
        self.lost_work_seconds += planned_work;
        self.partial_megabytes += megabytes;
    }

    fn interval_committed(&mut self, work: f64, checkpoint_elapsed: f64, megabytes: f64) {
        self.useful_seconds += work;
        self.checkpoint_seconds += checkpoint_elapsed;
        self.megabytes += megabytes;
        self.checkpoints_attempted += 1;
        self.checkpoints_committed += 1;
        self.full_megabytes += megabytes;
    }

    fn segment_exhausted(&mut self) {
        self.failures += 1;
    }
}

/// Run one availability segment of length `a` seconds: recovery, then
/// work/checkpoint cycles until eviction, accounting into `r` and
/// reporting every event to `obs`.
///
/// The job is assumed to have been running before the segment (the
/// paper's steady-state setup), so the segment begins with a recovery.
pub fn run_segment(
    a: f64,
    policy: &dyn SchedulePolicy,
    config: &CycleConfig,
    r: &mut CycleAccounting,
    obs: &mut dyn CycleObserver,
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

    // Phase 2: work/checkpoint cycles until eviction.
    loop {
        let t = guarded_interval(age, |age| policy.next_interval(age));
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

/// Run a whole trace of availability segments, returning the aggregate
/// ledger. Durations are assumed pre-validated (finite, positive).
pub fn run_trace(
    durations: &[f64],
    policy: &dyn SchedulePolicy,
    config: &CycleConfig,
    obs: &mut dyn CycleObserver,
) -> CycleAccounting {
    let mut r = CycleAccounting::default();
    for &segment in durations {
        run_segment(segment, policy, config, &mut r, obs);
    }
    r
}
