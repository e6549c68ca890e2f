//! Draining the dead-letter queue.
//!
//! [`replay_dead_letters`] is the manager's off-peak second chance: it
//! pops enqueued letters FIFO and re-transfers their undelivered
//! remainder over the link under explicit backpressure — at most
//! `max_in_flight` letters occupy the link at once, the rest stay queued.
//! Replay attempts draw faults from a [`FaultPlan`] keyed by the letter's
//! stable `(client, seq)` id, so a replay is a pure function of
//! `(queue, config, plan)`. Every popped letter ends in exactly one of
//! two ledger states — replayed or explicitly abandoned — which is the
//! second half of the crate's conservation invariant: tracked ⇒ enqueued
//! ⇒ replayed or explicitly abandoned.

use crate::{ManagerError, Result};
use chs_cycle::{CycleObserver, NoopObserver};
use chs_markov::mix64;
use chs_net::faults::{FaultPlan, RetryPolicy, TransferFault};
use chs_net::DeadLetterQueue;
use serde::{Deserialize, Serialize};

const EPS: f64 = 1e-7;

/// Domain separation for replay fault lanes: a letter's replay draws are
/// independent of the live-run draws that dead-lettered it.
const SALT_REPLAY: u64 = 0x7265_706C_6179_0001;

/// Knobs for one replay pass.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ReplayConfig {
    /// Link capacity available to the replay pass, MB/s.
    pub link_mb_per_s: f64,
    /// Backpressure: letters concurrently occupying the link. Waiting
    /// letters (backoff, stall timeout, manager unavailability) hold
    /// their slot — the queue behind them does not overtake.
    pub max_in_flight: usize,
    /// Retry budget and backoff schedule for replay attempts (each
    /// letter gets a fresh budget).
    pub retry: RetryPolicy,
    /// Nominal image size used to scale the stall-timeout clock, MB.
    pub image_mb: f64,
}

impl ReplayConfig {
    /// Campus-link defaults: the full link, four letters in flight.
    pub fn campus() -> Self {
        Self {
            link_mb_per_s: 500.0 / 110.0,
            max_in_flight: 4,
            retry: RetryPolicy::default(),
            image_mb: 500.0,
        }
    }

    /// Check every knob; the error names the first field out of range.
    pub fn validate(&self) -> Result<()> {
        let invalid = |why: String| Err(ManagerError::InvalidConfig(why));
        if !(self.link_mb_per_s.is_finite() && self.link_mb_per_s > 0.0) {
            return invalid(format!(
                "replay link_mb_per_s must be positive and finite: {}",
                self.link_mb_per_s
            ));
        }
        if self.max_in_flight == 0 {
            return invalid("replay max_in_flight: need at least one in-flight slot".into());
        }
        if !(self.image_mb.is_finite() && self.image_mb > 0.0) {
            return invalid(format!(
                "replay image_mb must be positive and finite: {}",
                self.image_mb
            ));
        }
        if let Err(why) = self.retry.validate() {
            return invalid(format!("replay retry: {why}"));
        }
        Ok(())
    }
}

/// What one replay pass did. `wire_mb` balances against
/// `replayed_mb + wasted_mb` (see [`Self::conservation_residual`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct ReplayReport {
    /// Letters popped off the queue this pass.
    pub popped: u64,
    /// Letters whose remainder was delivered and verified.
    pub replayed: u64,
    /// Letters that exhausted the replay retry budget — explicitly
    /// abandoned, never silently dropped.
    pub abandoned: u64,
    /// Megabytes delivered by replayed letters (their enqueued remainder).
    pub replayed_mb: f64,
    /// Undelivered megabytes of abandoned letters.
    pub abandoned_mb: f64,
    /// Megabytes that crossed the wire for nothing: corruption resends
    /// plus the shipped prefix of abandoned letters.
    pub wasted_mb: f64,
    /// Total megabytes that crossed the wire during the pass.
    pub wire_mb: f64,
    /// Replay retries scheduled.
    pub retries: u64,
    /// Faults the plan injected into replay attempts.
    pub faults_injected: u64,
    /// Virtual seconds the pass took.
    pub elapsed_seconds: f64,
    /// Queue depth when the pass ended (0 unless the pass was bounded).
    pub final_depth: usize,
}

impl ReplayReport {
    /// Byte-conservation residual: `wire − replayed − wasted`. Zero up
    /// to per-letter `EPS` leftovers — the replay conservation gate.
    pub fn conservation_residual(&self) -> f64 {
        self.wire_mb - self.replayed_mb - self.wasted_mb
    }
}

enum WaitThen {
    /// A stall timed out: run the retry decision.
    StallRetry,
    /// Backoff expired: start the next attempt.
    NextAttempt,
    /// The manager is reachable again: resume the attempt clean.
    Resume,
}

enum MoveOutcome {
    Deliver,
    Corrupt,
    Drop,
    Stall { timeout_at: f64 },
}

enum FState {
    Moving { floor: f64, outcome: MoveOutcome },
    Waiting { until: f64, then: WaitThen },
}

struct Flight {
    /// Stable replay fault lane of the letter.
    lane: u64,
    /// Undelivered megabytes at enqueue time — the delivery target.
    rem0: f64,
    remaining: f64,
    attempt: u32,
    /// Per-attempt fault-plan index.
    counter: u64,
    state: FState,
}

impl Flight {
    fn start_attempt(
        &mut self,
        t: f64,
        config: &ReplayConfig,
        plan: &FaultPlan,
        report: &mut ReplayReport,
    ) {
        let fault = plan.transfer_fault(self.lane, self.counter);
        self.counter += 1;
        if fault.is_some() {
            report.faults_injected += 1;
        }
        self.state = match fault {
            None => FState::Moving {
                floor: 0.0,
                outcome: MoveOutcome::Deliver,
            },
            Some(TransferFault::Corruption) => FState::Moving {
                floor: 0.0,
                outcome: MoveOutcome::Corrupt,
            },
            Some(TransferFault::Drop { progress_fraction }) => FState::Moving {
                floor: self.remaining * (1.0 - progress_fraction),
                outcome: MoveOutcome::Drop,
            },
            Some(TransferFault::Stall { progress_fraction }) => FState::Moving {
                floor: self.remaining * (1.0 - progress_fraction),
                outcome: MoveOutcome::Stall {
                    timeout_at: t + config.retry.timeout_factor * config.image_mb
                        / config.link_mb_per_s,
                },
            },
            Some(TransferFault::Unavailable { wait_seconds }) => FState::Waiting {
                until: t + wait_seconds,
                then: WaitThen::Resume,
            },
        };
    }
}

/// Drain `dlq` (no observer). See [`replay_dead_letters_observed`].
pub fn replay_dead_letters(
    dlq: &mut DeadLetterQueue,
    config: &ReplayConfig,
    plan: &FaultPlan,
) -> Result<ReplayReport> {
    replay_dead_letters_observed(dlq, config, plan, &mut NoopObserver)
}

/// Drain `dlq` under `config`'s backpressure, drawing replay faults from
/// `plan`. Reports [`CycleObserver::on_dead_letter_replayed`] for every
/// popped letter (delivered megabytes, or 0 for an abandonment).
pub fn replay_dead_letters_observed(
    dlq: &mut DeadLetterQueue,
    config: &ReplayConfig,
    plan: &FaultPlan,
    obs: &mut dyn CycleObserver,
) -> Result<ReplayReport> {
    config.validate()?;
    plan.validate()
        .map_err(|why| ManagerError::InvalidConfig(format!("replay fault plan: {why}")))?;

    let mut report = ReplayReport::default();
    let mut flights: Vec<Flight> = Vec::new();
    let mut t = 0.0f64;

    loop {
        // Admit letters into free slots, FIFO.
        while flights.len() < config.max_in_flight {
            let Some(letter) = dlq.pop() else { break };
            report.popped += 1;
            let rem0 = letter.remaining_mb();
            if rem0 <= EPS {
                // Nothing left to move (fully delivered before the
                // verify failed its budget elsewhere): verified as-is.
                dlq.count_replayed();
                report.replayed += 1;
                obs.on_dead_letter_replayed(t, rem0);
                continue;
            }
            let mut flight = Flight {
                lane: mix64(letter.client ^ letter.seq.rotate_left(17) ^ SALT_REPLAY),
                rem0,
                remaining: rem0,
                attempt: 0,
                counter: 0,
                state: FState::Waiting {
                    until: t,
                    then: WaitThen::NextAttempt,
                },
            };
            flight.start_attempt(t, config, plan, &mut report);
            flights.push(flight);
        }
        if flights.is_empty() {
            break;
        }

        // Equal-share link among moving flights; waiting flights hold
        // their slot but no bandwidth.
        let n_moving = flights
            .iter()
            .filter(|f| matches!(f.state, FState::Moving { .. }))
            .count();
        let rate = if n_moving > 0 {
            config.link_mb_per_s / n_moving as f64
        } else {
            0.0
        };

        let mut t_next = f64::INFINITY;
        for flight in &flights {
            let event = match &flight.state {
                FState::Moving { floor, .. } => t + (flight.remaining - floor).max(0.0) / rate,
                FState::Waiting { until, .. } => *until,
            };
            t_next = t_next.min(event);
        }
        let dt = (t_next - t).max(0.0);
        for flight in flights.iter_mut() {
            if let FState::Moving { floor, .. } = &flight.state {
                let moved = (rate * dt).min((flight.remaining - floor).max(0.0));
                flight.remaining -= moved;
                report.wire_mb += moved;
            }
        }
        t = t_next;

        // Fire events; finished flights free their slot.
        let mut k = 0;
        while k < flights.len() {
            let flight = &mut flights[k];
            enum Fire {
                No,
                Deliver,
                Corrupt,
                Retry,
                Resume,
                NextAttempt,
            }
            let fire = match &flight.state {
                FState::Moving { floor, outcome } => {
                    if flight.remaining <= floor + EPS {
                        match outcome {
                            MoveOutcome::Deliver => Fire::Deliver,
                            MoveOutcome::Corrupt => Fire::Corrupt,
                            MoveOutcome::Drop => Fire::Retry,
                            MoveOutcome::Stall { timeout_at } => {
                                flight.state = FState::Waiting {
                                    until: *timeout_at,
                                    then: WaitThen::StallRetry,
                                };
                                Fire::No
                            }
                        }
                    } else {
                        Fire::No
                    }
                }
                FState::Waiting { until, then } => {
                    if t + EPS >= *until {
                        match then {
                            WaitThen::StallRetry => Fire::Retry,
                            WaitThen::NextAttempt => Fire::NextAttempt,
                            WaitThen::Resume => Fire::Resume,
                        }
                    } else {
                        Fire::No
                    }
                }
            };
            match fire {
                Fire::No => {
                    k += 1;
                }
                Fire::Deliver => {
                    dlq.count_replayed();
                    report.replayed += 1;
                    report.replayed_mb += flight.rem0 - flight.remaining;
                    obs.on_dead_letter_replayed(t, flight.rem0 - flight.remaining);
                    flights.remove(k);
                }
                Fire::Corrupt => {
                    // The payload accrued so far failed its checksum:
                    // written off, the retry ships everything again.
                    report.wasted_mb += flight.rem0 - flight.remaining;
                    flight.remaining = flight.rem0;
                    if retry_or_abandon(flight, t, config, dlq, &mut report, obs) {
                        flights.remove(k);
                    } else {
                        k += 1;
                    }
                }
                Fire::Retry => {
                    if retry_or_abandon(flight, t, config, dlq, &mut report, obs) {
                        flights.remove(k);
                    } else {
                        k += 1;
                    }
                }
                Fire::Resume => {
                    flight.state = FState::Moving {
                        floor: 0.0,
                        outcome: MoveOutcome::Deliver,
                    };
                    k += 1;
                }
                Fire::NextAttempt => {
                    flight.start_attempt(t, config, plan, &mut report);
                    k += 1;
                }
            }
        }
    }

    report.elapsed_seconds = t;
    report.final_depth = dlq.len();
    Ok(report)
}

/// Consume a retry; true when the flight abandoned (slot freed).
fn retry_or_abandon(
    flight: &mut Flight,
    t: f64,
    config: &ReplayConfig,
    dlq: &mut DeadLetterQueue,
    report: &mut ReplayReport,
    obs: &mut dyn CycleObserver,
) -> bool {
    flight.attempt += 1;
    if flight.attempt > config.retry.max_retries {
        // Out of budget *again*: explicit abandonment. The shipped
        // prefix crossed the wire for nothing.
        dlq.count_abandoned();
        report.abandoned += 1;
        report.abandoned_mb += flight.rem0;
        report.wasted_mb += flight.rem0 - flight.remaining;
        obs.on_dead_letter_replayed(t, 0.0);
        true
    } else {
        report.retries += 1;
        flight.state = FState::Waiting {
            until: t + config.retry.backoff(flight.attempt),
            then: WaitThen::NextAttempt,
        };
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chs_net::DeadLetter;

    fn queue_of(n: usize, remaining_each: f64) -> DeadLetterQueue {
        let mut dlq = DeadLetterQueue::new();
        for i in 0..n {
            dlq.push(DeadLetter {
                client: i as u64,
                seq: 3,
                image_mb: 500.0,
                delivered_mb: 500.0 - remaining_each,
                attempts: 4,
                enqueued_at: 1_000.0 * i as f64,
            });
        }
        dlq
    }

    #[test]
    fn zero_fault_replay_drains_to_zero() {
        let mut dlq = queue_of(7, 320.0);
        let config = ReplayConfig::campus();
        let report = replay_dead_letters(&mut dlq, &config, &FaultPlan::none()).unwrap();
        assert_eq!(report.popped, 7);
        assert_eq!(report.replayed, 7);
        assert_eq!(report.abandoned, 0);
        assert_eq!(report.final_depth, 0);
        assert!(dlq.is_empty());
        assert_eq!(dlq.reconciliation_residual(), 0);
        assert!((report.replayed_mb - 7.0 * 320.0).abs() < 1e-6);
        assert!(report.conservation_residual().abs() < 1e-6);
        // Serial bound: 7 letters over the shared link can't finish
        // faster than the wire allows.
        assert!(report.wire_mb <= config.link_mb_per_s * report.elapsed_seconds * (1.0 + 1e-9));
    }

    #[test]
    fn backpressure_slot_count_is_respected() {
        // One slot: strictly serial, elapsed is exactly the serial time.
        let mut dlq = queue_of(3, 110.0);
        let config = ReplayConfig {
            max_in_flight: 1,
            ..ReplayConfig::campus()
        };
        let report = replay_dead_letters(&mut dlq, &config, &FaultPlan::none()).unwrap();
        let serial = 3.0 * 110.0 / config.link_mb_per_s;
        assert!((report.elapsed_seconds - serial).abs() < 1e-6);
        assert_eq!(report.replayed, 3);
    }

    #[test]
    fn faulted_replay_conserves_bytes_and_reconciles() {
        let mut dlq = queue_of(12, 250.0);
        let config = ReplayConfig::campus();
        let plan = FaultPlan {
            p_stall: 0.1,
            p_drop: 0.15,
            p_corrupt: 0.1,
            p_unavailable: 0.05,
            seed: 41,
            ..FaultPlan::none()
        };
        let report = replay_dead_letters(&mut dlq, &config, &plan).unwrap();
        assert_eq!(report.popped, 12);
        assert_eq!(report.replayed + report.abandoned, 12);
        assert_eq!(dlq.reconciliation_residual(), 0);
        assert!(report.conservation_residual().abs() < 1e-5);
        assert!(report.wire_mb <= config.link_mb_per_s * report.elapsed_seconds * (1.0 + 1e-9));
    }

    #[test]
    fn replay_is_deterministic() {
        let plan = FaultPlan {
            p_stall: 0.2,
            p_drop: 0.2,
            p_corrupt: 0.1,
            seed: 9,
            ..FaultPlan::none()
        };
        let run = |slots: usize| {
            let mut dlq = queue_of(9, 410.0);
            let config = ReplayConfig {
                max_in_flight: slots,
                ..ReplayConfig::campus()
            };
            replay_dead_letters(&mut dlq, &config, &plan).unwrap()
        };
        assert_eq!(run(3), run(3));
        // Different backpressure reorders time but never loses letters.
        let a = run(1);
        let b = run(6);
        assert_eq!(a.replayed + a.abandoned, 9);
        assert_eq!(b.popped, 9);
    }
}
