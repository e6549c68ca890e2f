//! The step-driven checkpoint-cycle state machine.
//!
//! Where [`crate::run_trace`] executes whole availability segments in
//! closed form (fixed costs, known duration), `CycleMachine` is driven
//! incrementally by an external event loop: the driver decides *when*
//! things happen (sampled transfer durations, megabytes drained through a
//! shared link at a varying rate) and the machine keeps the state, the
//! accounting, and the observer honest. Both executors account through
//! the same [`CycleAccounting`] mutators and emit the same
//! [`CycleObserver`] vocabulary, so they agree by construction.
//!
//! Driving protocol, per placement:
//!
//! 1. [`place`](CycleMachine::place) — starts the recovery transfer.
//! 2. [`advance`](CycleMachine::advance) repeatedly, passing elapsed
//!    seconds and the megabytes moved during them (the driver owns the
//!    bandwidth model; partial-transfer byte counts are supplied, not
//!    inferred, because real transfer models are not linear in time).
//! 3. At phase boundaries: [`complete_recovery`](CycleMachine::complete_recovery),
//!    [`start_work`](CycleMachine::start_work),
//!    [`start_checkpoint`](CycleMachine::start_checkpoint),
//!    [`complete_checkpoint`](CycleMachine::complete_checkpoint).
//! 4. [`evict`](CycleMachine::evict) when the owner reclaims the machine
//!    (counts a failure), or [`cutoff`](CycleMachine::cutoff) when the
//!    measurement window closes (same partial accounting, no failure).

use crate::accounting::CycleAccounting;
use crate::config::CycleConfig;
use crate::observer::{CycleObserver, TransferDirection, TransferFaultKind};

/// Internal phase state with per-phase accruals.
#[derive(Debug, Clone, Copy, PartialEq)]
enum State {
    /// Not placed on a machine.
    Down,
    /// Recovery transfer in flight.
    Recovery { elapsed: f64, megabytes: f64 },
    /// Recovery (or a checkpoint) just completed; waiting for the driver
    /// to plan the next interval. No time may pass here.
    Ready,
    /// Working through a planned interval.
    Work { planned: f64, elapsed: f64 },
    /// Checkpoint transfer in flight; commit will credit `planned_work`.
    Checkpoint {
        planned_work: f64,
        elapsed: f64,
        megabytes: f64,
    },
}

/// The externally visible phase of a [`CycleMachine`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CyclePhase {
    /// Not placed.
    Down,
    /// Recovery transfer in flight.
    Recovery,
    /// Between phases, waiting for the next interval plan.
    Ready,
    /// Working.
    Work,
    /// Checkpoint transfer in flight.
    Checkpoint,
}

/// Step-driven executor of the recovery → (work → checkpoint)* cycle.
#[derive(Debug, Clone)]
pub struct CycleMachine {
    config: CycleConfig,
    state: State,
    /// Seconds since the current placement (the machine-local clock all
    /// observer timestamps use).
    now: f64,
    acct: CycleAccounting,
}

impl CycleMachine {
    /// A fresh machine, down, with an empty ledger.
    pub fn new(config: CycleConfig) -> Self {
        Self {
            config,
            state: State::Down,
            now: 0.0,
            acct: CycleAccounting::default(),
        }
    }

    /// Place the job: reset the placement clock and start the recovery
    /// transfer. `expected_duration` is the segment length when known up
    /// front, `NaN` otherwise (it is only reported to the observer).
    ///
    /// The ledger carries across placements — one machine accumulates a
    /// whole run's worth of segments, like the closed-form trace loop.
    pub fn place(&mut self, expected_duration: f64, obs: &mut dyn CycleObserver) {
        assert!(
            matches!(self.state, State::Down),
            "place() while already placed"
        );
        self.now = 0.0;
        self.acct.recovery_started();
        self.state = State::Recovery {
            elapsed: 0.0,
            megabytes: 0.0,
        };
        obs.on_placed(expected_duration);
        obs.on_transfer_started(0.0, TransferDirection::Inbound);
    }

    /// Advance the machine-local clock by `dt` seconds, during which
    /// `transfer_mb` megabytes moved on the in-flight transfer (must be
    /// 0 outside transfer phases). Occupied time accrues here.
    pub fn advance(&mut self, dt: f64, transfer_mb: f64) {
        self.now += dt;
        self.acct.total_seconds += dt;
        match &mut self.state {
            State::Recovery { elapsed, megabytes }
            | State::Checkpoint {
                elapsed, megabytes, ..
            } => {
                *elapsed += dt;
                *megabytes += transfer_mb;
            }
            State::Work { elapsed, .. } => {
                debug_assert!(
                    transfer_mb == 0.0,
                    "transfer bytes outside a transfer phase"
                );
                *elapsed += dt;
            }
            State::Down | State::Ready => {
                panic!("advance() while {:?}", self.state)
            }
        }
    }

    /// The recovery transfer finished; returns its elapsed seconds (the
    /// driver's measured cost). The machine becomes [`CyclePhase::Ready`]
    /// for the next interval plan.
    pub fn complete_recovery(&mut self, obs: &mut dyn CycleObserver) -> f64 {
        let State::Recovery { elapsed, megabytes } = self.state else {
            panic!("complete_recovery() while {:?}", self.state);
        };
        let counted = if self.config.count_recovery_bytes {
            megabytes
        } else {
            0.0
        };
        self.acct.recovery_completed(elapsed, counted);
        obs.on_transfer_completed(self.now, TransferDirection::Inbound, elapsed, counted);
        self.state = State::Ready;
        elapsed
    }

    /// Begin a work interval of `planned` seconds (plan through
    /// [`crate::guarded_interval`] first).
    pub fn start_work(&mut self, planned: f64, obs: &mut dyn CycleObserver) {
        assert!(
            matches!(self.state, State::Ready),
            "start_work() while {:?}",
            self.state
        );
        obs.on_interval_planned(self.now, planned);
        self.state = State::Work {
            planned,
            elapsed: 0.0,
        };
    }

    /// The work interval is over; begin its checkpoint transfer. A commit
    /// will credit the *planned* work, matching the closed-form executor
    /// and the live protocol.
    pub fn start_checkpoint(&mut self, obs: &mut dyn CycleObserver) {
        let State::Work { planned, .. } = self.state else {
            panic!("start_checkpoint() while {:?}", self.state);
        };
        obs.on_transfer_started(self.now, TransferDirection::Outbound);
        self.state = State::Checkpoint {
            planned_work: planned,
            elapsed: 0.0,
            megabytes: 0.0,
        };
    }

    /// The checkpoint transfer finished: the interval commits. Returns
    /// the transfer's elapsed seconds (the driver's measured cost).
    pub fn complete_checkpoint(&mut self, obs: &mut dyn CycleObserver) -> f64 {
        let State::Checkpoint {
            planned_work,
            elapsed,
            megabytes,
        } = self.state
        else {
            panic!("complete_checkpoint() while {:?}", self.state);
        };
        self.acct
            .interval_committed(planned_work, elapsed, megabytes);
        obs.on_transfer_completed(self.now, TransferDirection::Outbound, elapsed, megabytes);
        obs.on_work_committed(self.now, planned_work);
        self.state = State::Ready;
        elapsed
    }

    /// The in-flight transfer attempt faulted and the driver will retry
    /// it in the same phase. The phase keeps running (its elapsed seconds
    /// keep accruing through [`advance`](Self::advance), including any
    /// retry backoff the driver waits out).
    ///
    /// When `resend` is true (corruption detected at commit) the whole
    /// accrued payload is written off: it crossed the wire, so it lands
    /// in the ledger's `megabytes` *and* `wasted_megabytes` now, and the
    /// phase's byte accrual resets so the retry ships the full image.
    /// When false (a resumable drop or stall) the delivered prefix
    /// survives on the manager and nothing is wasted. Returns the wasted
    /// megabytes.
    pub fn fault_transfer(
        &mut self,
        kind: TransferFaultKind,
        resend: bool,
        retried: bool,
        obs: &mut dyn CycleObserver,
    ) -> f64 {
        let count_bytes = self.config.count_recovery_bytes;
        let (direction, elapsed, megabytes, counted) = match &mut self.state {
            State::Recovery { elapsed, megabytes } => {
                (TransferDirection::Inbound, *elapsed, megabytes, count_bytes)
            }
            State::Checkpoint {
                elapsed, megabytes, ..
            } => (TransferDirection::Outbound, *elapsed, megabytes, true),
            other => panic!("fault_transfer() while {other:?}"),
        };
        let wasted = if resend && counted { *megabytes } else { 0.0 };
        if resend {
            *megabytes = 0.0;
        }
        self.acct.transfer_faulted(wasted, retried);
        obs.on_transfer_faulted(self.now, direction, kind, elapsed, wasted);
        wasted
    }

    /// The manager exhausted its retry budget for this checkpoint: the
    /// process falls back to its last *verified* checkpoint, losing the
    /// interval's planned work; whatever payload crossed the wire is
    /// wasted. The machine stays placed and becomes
    /// [`CyclePhase::Ready`] so the driver can plan the next interval.
    pub fn abandon_checkpoint(&mut self, obs: &mut dyn CycleObserver) {
        let State::Checkpoint {
            planned_work,
            elapsed,
            megabytes,
        } = self.state
        else {
            panic!("abandon_checkpoint() while {:?}", self.state);
        };
        self.acct
            .checkpoint_abandoned(planned_work, elapsed, megabytes);
        obs.on_checkpoint_abandoned(self.now, planned_work, megabytes);
        self.state = State::Ready;
    }

    /// The owner reclaimed the machine: flush whatever is in flight as
    /// lost/partial, count a failure, and go down.
    pub fn evict(&mut self, obs: &mut dyn CycleObserver) {
        self.end_placement(true, obs);
    }

    /// The measurement window closed with the job still placed: identical
    /// partial accounting to [`evict`](Self::evict) — partial transfer
    /// bytes still crossed the wire, uncommitted work is still lost — but
    /// no failure is recorded, because the segment did not end.
    pub fn cutoff(&mut self, obs: &mut dyn CycleObserver) {
        self.end_placement(false, obs);
    }

    fn end_placement(&mut self, failed: bool, obs: &mut dyn CycleObserver) {
        match self.state {
            State::Down => panic!("evict()/cutoff() while down"),
            State::Recovery { elapsed, megabytes } => {
                let counted = if self.config.count_recovery_bytes {
                    megabytes
                } else {
                    0.0
                };
                self.acct.recovery_interrupted(elapsed, counted, failed);
                obs.on_transfer_interrupted(self.now, TransferDirection::Inbound, elapsed, counted);
            }
            State::Ready => {
                // Nothing in flight; an eviction here is the closed-form
                // executor's exact-boundary case.
                if failed {
                    self.acct.segment_exhausted();
                }
            }
            State::Work { elapsed, .. } => {
                self.acct.work_lost(elapsed, failed);
            }
            State::Checkpoint {
                planned_work,
                elapsed,
                megabytes,
            } => {
                self.acct
                    .checkpoint_interrupted(planned_work, elapsed, megabytes, failed);
                obs.on_transfer_interrupted(
                    self.now,
                    TransferDirection::Outbound,
                    elapsed,
                    megabytes,
                );
            }
        }
        obs.on_evicted(self.now);
        self.state = State::Down;
    }

    /// Seconds since the current placement.
    pub fn age(&self) -> f64 {
        self.now
    }

    /// The externally visible phase.
    pub fn phase(&self) -> CyclePhase {
        match self.state {
            State::Down => CyclePhase::Down,
            State::Recovery { .. } => CyclePhase::Recovery,
            State::Ready => CyclePhase::Ready,
            State::Work { .. } => CyclePhase::Work,
            State::Checkpoint { .. } => CyclePhase::Checkpoint,
        }
    }

    /// Whether a transfer is in flight (the machine holds the link).
    pub fn transferring(&self) -> bool {
        matches!(
            self.state,
            State::Recovery { .. } | State::Checkpoint { .. }
        )
    }

    /// Seconds of work remaining in the current interval, if working.
    pub fn work_remaining(&self) -> Option<f64> {
        match self.state {
            State::Work { planned, elapsed } => Some(planned - elapsed),
            _ => None,
        }
    }

    /// Megabytes still to move on the in-flight transfer (image size
    /// minus accrued), if transferring.
    pub fn transfer_remaining_mb(&self) -> Option<f64> {
        match self.state {
            State::Recovery { megabytes, .. } | State::Checkpoint { megabytes, .. } => {
                Some(self.config.image_mb - megabytes)
            }
            _ => None,
        }
    }

    /// Seconds the in-flight transfer has been running, if transferring.
    pub fn transfer_elapsed(&self) -> Option<f64> {
        match self.state {
            State::Recovery { elapsed, .. } | State::Checkpoint { elapsed, .. } => Some(elapsed),
            _ => None,
        }
    }

    /// The ledger so far.
    pub fn accounting(&self) -> &CycleAccounting {
        &self.acct
    }

    /// Consume the machine, returning its ledger.
    pub fn into_accounting(self) -> CycleAccounting {
        self.acct
    }

    /// The cycle parameters this machine was built with.
    pub fn config(&self) -> &CycleConfig {
        &self.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observer::NoopObserver;

    fn paper() -> CycleConfig {
        CycleConfig::paper(50.0)
    }

    #[test]
    fn full_cycle_accounting() {
        let mut m = CycleMachine::new(paper());
        let obs = &mut NoopObserver;
        m.place(1_000.0, obs);
        m.advance(50.0, 500.0);
        let rec = m.complete_recovery(obs);
        assert_eq!(rec, 50.0);
        m.start_work(200.0, obs);
        m.advance(200.0, 0.0);
        m.start_checkpoint(obs);
        m.advance(50.0, 500.0);
        m.complete_checkpoint(obs);
        m.start_work(200.0, obs);
        m.advance(120.0, 0.0);
        m.evict(obs);

        let r = m.accounting();
        assert_eq!(r.useful_seconds, 200.0);
        assert_eq!(r.lost_seconds, 120.0);
        assert_eq!(r.recovery_seconds, 50.0);
        assert_eq!(r.checkpoint_seconds, 50.0);
        assert_eq!(r.total_seconds, 420.0);
        assert_eq!(r.megabytes, 1_000.0);
        assert_eq!(r.checkpoints_committed, 1);
        assert_eq!(r.failures, 1);
        assert!(r.conservation_residual().abs() < 1e-9);
        assert_eq!(m.phase(), CyclePhase::Down);
    }

    #[test]
    fn incremental_transfer_accrual() {
        // MB-denominated driving: the transfer drains in uneven slices,
        // like a shared link whose rate changes with concurrency.
        let mut m = CycleMachine::new(paper());
        let obs = &mut NoopObserver;
        m.place(f64::NAN, obs);
        m.advance(10.0, 100.0);
        assert_eq!(m.transfer_remaining_mb(), Some(400.0));
        m.advance(80.0, 250.0);
        assert_eq!(m.transfer_remaining_mb(), Some(150.0));
        m.advance(30.0, 150.0);
        assert_eq!(m.transfer_remaining_mb(), Some(0.0));
        let elapsed = m.complete_recovery(obs);
        assert_eq!(elapsed, 120.0);
        assert_eq!(m.accounting().megabytes, 500.0);
        assert_eq!(m.accounting().recovery_seconds, 120.0);
    }

    #[test]
    fn cutoff_counts_partials_but_not_failures() {
        let mut m = CycleMachine::new(paper());
        let obs = &mut NoopObserver;
        m.place(f64::NAN, obs);
        m.advance(50.0, 500.0);
        m.complete_recovery(obs);
        m.start_work(400.0, obs);
        m.advance(400.0, 0.0);
        m.start_checkpoint(obs);
        m.advance(20.0, 200.0);
        m.cutoff(obs);

        let r = m.accounting();
        assert_eq!(r.failures, 0);
        assert_eq!(r.checkpoints_attempted, 1);
        assert_eq!(r.transfers_started(), 2);
        assert_eq!(r.partial_megabytes, 200.0);
        assert_eq!(r.lost_seconds, 420.0);
        assert_eq!(r.lost_work_seconds, 400.0);
        assert!(r.conservation_residual().abs() < 1e-9);
    }

    #[test]
    fn ready_eviction_is_segment_exhaustion() {
        let mut m = CycleMachine::new(paper());
        let obs = &mut NoopObserver;
        m.place(f64::NAN, obs);
        m.advance(50.0, 500.0);
        m.complete_recovery(obs);
        m.evict(obs);
        assert_eq!(m.accounting().failures, 1);
        assert_eq!(m.accounting().recoveries_completed, 1);

        // Ledger carries into the next placement.
        m.place(f64::NAN, obs);
        m.advance(10.0, 100.0);
        m.cutoff(obs);
        let r = m.accounting();
        assert_eq!(r.recoveries, 2);
        assert_eq!(r.failures, 1);
        assert_eq!(r.partial_megabytes, 100.0);
    }

    #[test]
    fn recovery_bytes_gated_by_config() {
        let mut cfg = paper();
        cfg.count_recovery_bytes = false;
        let mut m = CycleMachine::new(cfg);
        let obs = &mut NoopObserver;
        m.place(f64::NAN, obs);
        m.advance(50.0, 500.0);
        m.complete_recovery(obs);
        assert_eq!(m.accounting().megabytes, 0.0);
        m.start_work(100.0, obs);
        m.advance(100.0, 0.0);
        m.start_checkpoint(obs);
        m.advance(50.0, 500.0);
        m.complete_checkpoint(obs);
        // Checkpoint bytes always count.
        assert_eq!(m.accounting().megabytes, 500.0);
    }

    #[test]
    #[should_panic(expected = "place() while already placed")]
    fn double_place_panics() {
        let mut m = CycleMachine::new(paper());
        m.place(f64::NAN, &mut NoopObserver);
        m.place(f64::NAN, &mut NoopObserver);
    }

    #[test]
    fn resumable_fault_keeps_prefix_and_wastes_nothing() {
        // A mid-checkpoint drop: the delivered prefix survives on the
        // manager, so the retry only ships the remainder.
        let mut m = CycleMachine::new(paper());
        let obs = &mut NoopObserver;
        m.place(f64::NAN, obs);
        m.advance(50.0, 500.0);
        m.complete_recovery(obs);
        m.start_work(200.0, obs);
        m.advance(200.0, 0.0);
        m.start_checkpoint(obs);
        m.advance(20.0, 180.0);
        let wasted = m.fault_transfer(TransferFaultKind::Drop, false, true, obs);
        assert_eq!(wasted, 0.0);
        assert_eq!(m.transfer_remaining_mb(), Some(320.0));
        m.advance(35.0, 320.0);
        m.complete_checkpoint(obs);
        m.cutoff(obs);

        let r = m.accounting();
        assert_eq!(r.faults_injected, 1);
        assert_eq!(r.transfer_retries, 1);
        assert_eq!(r.wasted_megabytes, 0.0);
        assert_eq!(r.megabytes, 1_000.0);
        // Phase seconds span both attempts: 20 + 35.
        assert_eq!(r.checkpoint_seconds, 55.0);
        assert!(r.conservation_residual().abs() < 1e-9);
        assert!(r.byte_conservation_residual().abs() < 1e-9);
    }

    #[test]
    fn corruption_wastes_accrued_bytes_and_resets_transfer() {
        let mut m = CycleMachine::new(paper());
        let obs = &mut NoopObserver;
        m.place(f64::NAN, obs);
        m.advance(50.0, 500.0);
        m.complete_recovery(obs);
        m.start_work(200.0, obs);
        m.advance(200.0, 0.0);
        m.start_checkpoint(obs);
        m.advance(48.0, 500.0);
        let wasted = m.fault_transfer(TransferFaultKind::Corruption, true, true, obs);
        assert_eq!(wasted, 500.0);
        // Full re-send: the whole image is pending again.
        assert_eq!(m.transfer_remaining_mb(), Some(500.0));
        m.advance(51.0, 500.0);
        m.complete_checkpoint(obs);
        m.cutoff(obs);

        let r = m.accounting();
        assert_eq!(r.wasted_megabytes, 500.0);
        assert_eq!(r.full_megabytes, 1_000.0);
        assert_eq!(r.megabytes, 1_500.0);
        assert_eq!(r.useful_seconds, 200.0);
        assert_eq!(r.checkpoint_seconds, 99.0);
        assert!(r.conservation_residual().abs() < 1e-9);
        assert!(r.byte_conservation_residual().abs() < 1e-9);
    }

    #[test]
    fn abandoned_checkpoint_loses_work_and_wastes_bytes() {
        let mut m = CycleMachine::new(paper());
        let obs = &mut NoopObserver;
        m.place(f64::NAN, obs);
        m.advance(50.0, 500.0);
        m.complete_recovery(obs);
        m.start_work(300.0, obs);
        m.advance(300.0, 0.0);
        m.start_checkpoint(obs);
        m.advance(40.0, 350.0);
        m.abandon_checkpoint(obs);
        assert_eq!(m.phase(), CyclePhase::Ready);

        // The driver can keep planning from the last verified checkpoint.
        m.start_work(100.0, obs);
        m.advance(100.0, 0.0);
        m.start_checkpoint(obs);
        m.advance(50.0, 500.0);
        m.complete_checkpoint(obs);
        m.cutoff(obs);

        let r = m.accounting();
        assert_eq!(r.checkpoints_abandoned, 1);
        assert_eq!(r.checkpoints_attempted, 2);
        assert_eq!(r.checkpoints_committed, 1);
        assert_eq!(r.useful_seconds, 100.0);
        // Lost = the abandoned interval's planned work + its transfer time.
        assert_eq!(r.lost_seconds, 340.0);
        assert_eq!(r.lost_work_seconds, 300.0);
        assert_eq!(r.wasted_megabytes, 350.0);
        assert_eq!(r.megabytes, 500.0 + 350.0 + 500.0);
        assert!(r.conservation_residual().abs() < 1e-9);
        assert!(r.byte_conservation_residual().abs() < 1e-9);
    }

    #[test]
    fn recovery_fault_respects_byte_gate() {
        let mut cfg = paper();
        cfg.count_recovery_bytes = false;
        let mut m = CycleMachine::new(cfg);
        let obs = &mut NoopObserver;
        m.place(f64::NAN, obs);
        m.advance(45.0, 450.0);
        let wasted = m.fault_transfer(TransferFaultKind::Corruption, true, true, obs);
        assert_eq!(wasted, 0.0);
        assert_eq!(m.accounting().wasted_megabytes, 0.0);
        m.advance(50.0, 500.0);
        m.complete_recovery(obs);
        assert_eq!(m.accounting().megabytes, 0.0);
        m.cutoff(obs);
        assert!(m.accounting().byte_conservation_residual().abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "fault_transfer() while")]
    fn fault_outside_transfer_panics() {
        let mut m = CycleMachine::new(paper());
        let obs = &mut NoopObserver;
        m.place(f64::NAN, obs);
        m.advance(50.0, 500.0);
        m.complete_recovery(obs);
        m.fault_transfer(TransferFaultKind::Drop, false, true, obs);
    }
}
