//! The live experiment under a [`FaultPlan`], with a resilient
//! manager-side transfer protocol, plus the fit-fallback chain and fault
//! counters it shares with `chs_manager::run_manager`, the shared-link
//! driver.
//!
//! The classic driver ([`crate::run_experiment`]) stays untouched as the
//! frozen reference — the repo's differential-gate convention. This
//! module re-implements its outer loop with four additions:
//!
//! 1. **Fault injection.** Every transfer attempt consults
//!    [`FaultPlan::transfer_fault`] on its own decision lane (one per
//!    (stream, model) pair), so decisions are a pure function of the
//!    plan — independent of scheduling order — and a zero plan draws
//!    nothing.
//! 2. **Bounded retries with backoff.** A faulted checkpoint attempt is
//!    retried up to [`chs_net::RetryPolicy::max_retries`] times behind
//!    exponential backoff with jitter drawn from the run RNG stream
//!    (only on fault paths, so zero-fault runs consume the exact RNG
//!    sequence the classic driver does). Recovery transfers retry until
//!    eviction: there is no older image to fall back to.
//! 3. **Resumable transfers and verified fallback.** Drops and stalls
//!    keep the delivered prefix — the retry ships only the remainder.
//!    A corrupted image (checksum mismatch at commit) is wasted in full
//!    and re-sent. When a checkpoint's retry budget is exhausted the
//!    process falls back to its last *verified* checkpoint: the
//!    interval's work is re-accounted as lost and the run continues.
//! 4. **Policy degradation** ([`resolve_fit`]). An injected fit failure
//!    falls back to an exponential-MLE fit of the same history, and — if
//!    even that fails — to Young's fixed interval `√(2·C·mean)`; the
//!    machine is never silently dropped. (A *natural* fit failure keeps
//!    the classic behavior so the zero-fault plan stays bitwise
//!    identical.) Mid-run `T_opt` failures degrade to the fixed interval
//!    likewise, counted in [`FaultReport::fallback_planning`].
//!
//! Timeouts only ever cut *injected stalls*: a healthy sampled transfer
//! can legitimately exceed `k×` its forecast (the lognormal tail), so
//! aborting it would change zero-fault behavior. In this emulation every
//! pathology is injected, so the manager's timeout is modeled as the
//! stall-detection deadline `timeout_factor × forecast`.

use crate::experiment::{summarize, ExperimentConfig, ExperimentResult};
use crate::log::{LogRecorder, ProcessLog};
use crate::machine::MachinePark;
use crate::manager::{RunRecord, TransferKind, TransferRecord};
use crate::negotiator::{Negotiator, Placement};
use crate::{CondorError, Result};
use chs_cycle::{
    clamp_interval, sanitize_age, CycleConfig, CycleMachine, CycleObserver, TransferFaultKind,
};
use chs_dist::fit::fit_model;
use chs_dist::{DistError, ModelKind};
use chs_markov::MeasuredCostPlanner;
use chs_net::faults::{FaultPlan, TransferFault};
use chs_net::{AdaptiveForecaster, Forecaster, TransferModel};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// What the fault layer did to one run (live or manager): counts per
/// fault kind, the resilience work they triggered, and which policy
/// fallback paths fired.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultReport {
    /// Transfer attempts that stalled (each cut by the manager timeout).
    pub stalls: u64,
    /// Transfer attempts that dropped mid-flight.
    pub drops: u64,
    /// Transfers that completed but failed their commit checksum.
    pub corruptions: u64,
    /// Attempts delayed by transient manager unavailability.
    pub unavailabilities: u64,
    /// Attempts cut by the per-transfer timeout (= stalls detected).
    pub timeouts: u64,
    /// Retry attempts scheduled (with backoff).
    pub retries: u64,
    /// Checkpoints abandoned after exhausting the retry budget.
    pub checkpoints_abandoned: u64,
    /// Injected fit failures that degraded to an exponential-MLE fit.
    pub fallback_exponential: u64,
    /// Injected fit failures that degraded to Young's fixed interval.
    pub fallback_fixed: u64,
    /// Mid-run `T_opt` plans that errored or went non-finite and
    /// degraded to Young's fixed interval.
    pub fallback_planning: u64,
}

impl FaultReport {
    /// Total faults injected across all kinds.
    pub fn total_faults(&self) -> u64 {
        self.stalls + self.drops + self.corruptions + self.unavailabilities
    }

    /// Count one injected transfer fault; a stall also counts the
    /// timeout that detects it.
    pub fn record_fault(&mut self, kind: TransferFaultKind) {
        match kind {
            TransferFaultKind::Stall => {
                self.stalls += 1;
                self.timeouts += 1;
            }
            TransferFaultKind::Drop => self.drops += 1,
            TransferFaultKind::Corruption => self.corruptions += 1,
            TransferFaultKind::Unavailable => self.unavailabilities += 1,
        }
    }
}

/// A machine's fit after [`resolve_fit`]: the planner of the tier it
/// resolved to (`None` on Young's fixed tier) plus the history mean
/// every fallback tier needs.
#[derive(Debug, Clone)]
pub struct ResolvedFit {
    planner: Option<MeasuredCostPlanner>,
    mean_history: f64,
}

impl ResolvedFit {
    /// Plan the next work interval for checkpoint cost `cost` at machine
    /// age `age`: Vaidya's `T_opt`, clamped to the work floor, degrading
    /// to Young's `√(2·C·mean)` if the model tier errors or goes
    /// non-finite — never dropping the machine, and counting each such
    /// degradation in `report.fallback_planning`. A NaN or negative age
    /// plans as age 0.
    pub fn interval(&mut self, cost: f64, age: f64, report: &mut FaultReport) -> f64 {
        let Some(planner) = &mut self.planner else {
            return self.fixed_interval(cost);
        };
        match planner.plan(cost, age).map(clamp_interval) {
            Ok(t) if t.is_finite() => t,
            _ => {
                report.fallback_planning += 1;
                self.fixed_interval(cost)
            }
        }
    }

    /// Young's approximation with the history mean as the MTTF.
    fn fixed_interval(&self, cost: f64) -> f64 {
        clamp_interval((2.0 * cost.max(0.0) * self.mean_history).sqrt())
    }
}

/// Resolve a machine's fit of `kind` to `history` under fit-failure
/// injection. A natural failure returns the fit error: the live driver
/// drops the machine and the manager aborts, as their classic
/// counterparts do, so zero-fault runs match them bitwise. An injected
/// failure walks the degradation chain, counted in `report`.
pub fn resolve_fit(
    kind: ModelKind,
    history: &[f64],
    injected: bool,
    report: &mut FaultReport,
) -> std::result::Result<ResolvedFit, DistError> {
    let mean_history = if history.is_empty() {
        0.0
    } else {
        history.iter().sum::<f64>() / history.len() as f64
    };
    let fit = if !injected {
        Some(fit_model(kind, history)?)
    } else if let Ok(fit) = fit_model(ModelKind::Exponential, history) {
        report.fallback_exponential += 1;
        Some(fit)
    } else {
        report.fallback_fixed += 1;
        None
    };
    Ok(ResolvedFit {
        planner: fit.map(MeasuredCostPlanner::new),
        mean_history,
    })
}

// ---------------------------------------------------------------------
// Live experiment under faults
// ---------------------------------------------------------------------

/// How one resilient transfer phase ended.
enum PhaseEnd {
    /// The payload was delivered and verified; `measured` is the
    /// successful attempt's duration scaled to a full image.
    Completed { measured: f64 },
    /// The owner reclaimed the machine mid-phase (already accounted).
    Evicted,
    /// Checkpoint only: retry budget exhausted, fell back to the last
    /// verified checkpoint (already accounted).
    Abandoned,
}

/// Drive one transfer phase (recovery or checkpoint) to completion,
/// eviction, or abandonment, injecting faults and retrying per policy.
/// The machine must already be in the matching transfer phase; `t` is
/// advanced past everything that happened (attempts, waits, backoffs).
#[allow(clippy::too_many_arguments)]
fn drive_transfer_phase(
    machine: &mut CycleMachine,
    recorder: &mut LogRecorder,
    transfers: &mut Vec<TransferRecord>,
    tkind: TransferKind,
    t: &mut f64,
    eviction: f64,
    placed_at: f64,
    config: &ExperimentConfig,
    transfer: &TransferModel,
    plan: &FaultPlan,
    lane: u64,
    counter: &mut u64,
    forecaster: &mut AdaptiveForecaster,
    rng: &mut ChaCha8Rng,
    report: &mut FaultReport,
) -> PhaseEnd {
    let retry = &config.retry;
    let image_mb = config.image_mb;
    let is_checkpoint = tkind == TransferKind::Checkpoint;
    let mut retries_used = 0u32;

    loop {
        let rem = machine
            .transfer_remaining_mb()
            .expect("drive_transfer_phase outside a transfer phase");
        let fault = plan.transfer_fault(lane, *counter);
        *counter += 1;

        // Transient manager unavailability delays the attempt; no bytes
        // move while waiting and no retry is consumed.
        if let Some(TransferFault::Unavailable { wait_seconds }) = fault {
            machine.fault_transfer(TransferFaultKind::Unavailable, false, false, recorder);
            report.record_fault(TransferFaultKind::Unavailable);
            if *t + wait_seconds > eviction {
                let dt = eviction - *t;
                machine.advance(dt, 0.0);
                *t = eviction;
                machine.evict(recorder);
                return PhaseEnd::Evicted;
            }
            machine.advance(wait_seconds, 0.0);
            *t += wait_seconds;
        }

        // Sample the attempt's clean duration for the remaining payload —
        // on the first attempt `rem == image_mb`, the exact call the
        // classic driver makes (bitwise-identical RNG consumption).
        let full = transfer.sample_duration(rem, rng);

        // Shape of the attempt: progress stops at `cutoff` seconds, the
        // manager sees the attempt end at `len` seconds.
        let (cutoff, len, failed): (f64, f64, Option<TransferFaultKind>) = match fault {
            None | Some(TransferFault::Unavailable { .. }) => (full, full, None),
            Some(TransferFault::Corruption) => (full, full, Some(TransferFaultKind::Corruption)),
            Some(TransferFault::Drop { progress_fraction }) => {
                let at = progress_fraction * full;
                (at, at, Some(TransferFaultKind::Drop))
            }
            Some(TransferFault::Stall { progress_fraction }) => {
                let forecast = forecaster
                    .predict()
                    .unwrap_or_else(|| transfer.expected_duration(image_mb));
                (
                    progress_fraction * full,
                    retry.timeout_factor * forecast,
                    Some(TransferFaultKind::Stall),
                )
            }
        };

        // Eviction clips the attempt wherever it is.
        if *t + len > eviction {
            let dt = eviction - *t;
            let delivered = transfer.partial_megabytes(rem, dt.min(cutoff), full);
            transfers.push(TransferRecord {
                kind: tkind,
                started_at: *t,
                full_duration: full,
                elapsed: dt,
                completed: false,
                megabytes: delivered,
            });
            machine.advance(dt, delivered);
            *t = eviction;
            machine.evict(recorder);
            return PhaseEnd::Evicted;
        }

        match failed {
            None => {
                transfers.push(TransferRecord {
                    kind: tkind,
                    started_at: *t,
                    full_duration: full,
                    elapsed: full,
                    completed: true,
                    megabytes: rem,
                });
                machine.advance(full, rem);
                *t += full;
                // Scale the measurement to a full image so a retried
                // partial shipment keeps `C` comparable (exact no-op on
                // the zero-fault path where rem == image_mb).
                let measured = if rem == image_mb {
                    full
                } else {
                    full * image_mb / rem
                };
                forecaster.update(measured);
                return PhaseEnd::Completed { measured };
            }
            Some(fkind) => {
                let delivered = match fkind {
                    TransferFaultKind::Corruption => rem,
                    _ => transfer.partial_megabytes(rem, cutoff.min(len), full),
                };
                transfers.push(TransferRecord {
                    kind: tkind,
                    started_at: *t,
                    full_duration: full,
                    elapsed: len,
                    completed: false,
                    megabytes: delivered,
                });
                machine.advance(len, delivered);
                *t += len;
                report.record_fault(fkind);
                let resend = fkind == TransferFaultKind::Corruption;
                machine.fault_transfer(fkind, resend, true, recorder);
                retries_used += 1;

                // Checkpoints have a bounded budget; recoveries retry
                // until eviction (no older image exists to fall back to).
                if is_checkpoint && retries_used > retry.max_retries {
                    machine.abandon_checkpoint(recorder);
                    report.checkpoints_abandoned += 1;
                    return PhaseEnd::Abandoned;
                }
                report.retries += 1;

                // Exponential backoff; the jitter draw comes from the run
                // RNG stream and only happens on fault paths.
                let backoff = retry.backoff_jittered(retries_used, rng.gen::<f64>());
                recorder.on_retry_scheduled(*t - placed_at, retries_used, backoff);
                if *t + backoff > eviction {
                    let dt = eviction - *t;
                    machine.advance(dt, 0.0);
                    *t = eviction;
                    machine.evict(recorder);
                    return PhaseEnd::Evicted;
                }
                machine.advance(backoff, 0.0);
                *t += backoff;
            }
        }
    }
}

/// Execute one resilient test-process run (fault-aware counterpart of
/// the classic `execute_run`).
#[allow(clippy::too_many_arguments)]
fn execute_run_resilient(
    fit: &mut ResolvedFit,
    kind: ModelKind,
    placement: &Placement,
    transfer: &TransferModel,
    config: &ExperimentConfig,
    plan: &FaultPlan,
    rng: &mut ChaCha8Rng,
    lane: u64,
    counter: &mut u64,
    forecaster: &mut AdaptiveForecaster,
    report: &mut FaultReport,
) -> (RunRecord, ProcessLog) {
    let eviction = placement.eviction_at;
    let mut t = placement.placed_at;
    let mut transfers: Vec<TransferRecord> = Vec::new();
    let mut t_opts: Vec<f64> = Vec::new();
    let mut work_seconds_total = 0.0;

    let mut machine = CycleMachine::new(CycleConfig {
        checkpoint_cost: 0.0,
        recovery_cost: 0.0,
        image_mb: config.image_mb,
        count_recovery_bytes: true,
    });
    let mut recorder = LogRecorder::new(
        placement.placed_at,
        placement.machine,
        placement.age_at_placement,
    );
    machine.place(eviction - placement.placed_at, &mut recorder);

    // Initial recovery, resiliently.
    let mut measured_cost = match drive_transfer_phase(
        &mut machine,
        &mut recorder,
        &mut transfers,
        TransferKind::Recovery,
        &mut t,
        eviction,
        placement.placed_at,
        config,
        transfer,
        plan,
        lane,
        counter,
        forecaster,
        rng,
        report,
    ) {
        PhaseEnd::Completed { measured } => {
            machine.complete_recovery(&mut recorder);
            measured
        }
        PhaseEnd::Evicted => {
            return finish_run_resilient(
                machine,
                recorder,
                placement,
                kind,
                transfers,
                t_opts,
                work_seconds_total,
                config.heartbeat_period,
            );
        }
        PhaseEnd::Abandoned => unreachable!("recovery transfers are never abandoned"),
    };

    loop {
        let age = sanitize_age(placement.age_at_placement + (t - placement.placed_at));
        let t_opt = fit.interval(measured_cost, age, report);
        t_opts.push(t_opt);
        machine.start_work(t_opt, &mut recorder);

        if t + t_opt >= eviction {
            let elapsed = eviction - t;
            work_seconds_total += elapsed;
            machine.advance(elapsed, 0.0);
            machine.evict(&mut recorder);
            return finish_run_resilient(
                machine,
                recorder,
                placement,
                kind,
                transfers,
                t_opts,
                work_seconds_total,
                config.heartbeat_period,
            );
        }
        machine.advance(t_opt, 0.0);
        t += t_opt;
        work_seconds_total += t_opt;
        machine.start_checkpoint(&mut recorder);

        match drive_transfer_phase(
            &mut machine,
            &mut recorder,
            &mut transfers,
            TransferKind::Checkpoint,
            &mut t,
            eviction,
            placement.placed_at,
            config,
            transfer,
            plan,
            lane,
            counter,
            forecaster,
            rng,
            report,
        ) {
            PhaseEnd::Completed { measured } => {
                machine.complete_checkpoint(&mut recorder);
                measured_cost = measured;
            }
            PhaseEnd::Evicted => {
                return finish_run_resilient(
                    machine,
                    recorder,
                    placement,
                    kind,
                    transfers,
                    t_opts,
                    work_seconds_total,
                    config.heartbeat_period,
                );
            }
            // Abandoned: fall back to the last verified checkpoint and
            // keep planning (the machine is Ready again).
            PhaseEnd::Abandoned => {}
        }
    }
}

/// Seal a resilient run — same arithmetic as the classic `finish_run`.
#[allow(clippy::too_many_arguments)]
fn finish_run_resilient(
    machine: CycleMachine,
    recorder: LogRecorder,
    placement: &Placement,
    kind: ModelKind,
    transfers: Vec<TransferRecord>,
    t_opts: Vec<f64>,
    work_seconds_total: f64,
    heartbeat_period: f64,
) -> (RunRecord, ProcessLog) {
    let heartbeats = (work_seconds_total / heartbeat_period) as u64;
    let record = RunRecord {
        machine: placement.machine,
        model: kind,
        placed_at: placement.placed_at,
        age_at_placement: placement.age_at_placement,
        evicted_at: placement.eviction_at,
        transfers,
        t_opts,
        cycle: machine.into_accounting(),
        heartbeats,
    };
    let log = recorder.finish(placement.eviction_at, heartbeats);
    (record, log)
}

/// Run the emulated live experiment under a [`FaultPlan`].
///
/// With [`FaultPlan::none`] this reproduces [`crate::run_experiment`]
/// **bitwise** (the `fault_bench` identity gate and the differential
/// proptest both enforce it); with faults enabled it exercises the
/// resilient transfer protocol and the policy degradation chain.
pub fn run_experiment_with_faults(
    config: &ExperimentConfig,
    plan: &FaultPlan,
) -> Result<(ExperimentResult, FaultReport)> {
    config.validate()?;
    plan.validate()
        .map_err(|_| CondorError::InvalidConfig("invalid fault plan"))?;
    let mut report = FaultReport::default();
    let mut runs: Vec<RunRecord> = Vec::new();
    let mut logs: Vec<ProcessLog> = Vec::new();
    for (model_index, kind) in ModelKind::PAPER_SET.into_iter().enumerate() {
        for stream in 0..config.streams {
            let stream_seed = config
                .seed
                .wrapping_mul(0x9E37_79B9)
                .wrapping_add(stream as u64 + 1);
            let mut park = MachinePark::generate(
                &config.pool,
                config.machines,
                config.history_len,
                config.window * 2.0 + 7.0 * 86_400.0,
                stream_seed,
            );
            let mut negotiator = Negotiator::new(stream_seed ^ 0xBEEF);
            let mut transfer_rng =
                ChaCha8Rng::seed_from_u64(stream_seed ^ 0xAB1E ^ ((model_index as u64) << 32));
            let transfer = TransferModel::new(config.path);
            // One fault-decision lane and one forecaster per
            // (stream, model) submission sequence.
            let lane = stream_seed ^ ((model_index as u64) << 48) ^ 0xFA17;
            let mut fault_counter = 0u64;
            let mut forecaster = AdaptiveForecaster::standard();

            let mut fits: Vec<Option<Option<ResolvedFit>>> = vec![None; config.machines];

            let mut t = 0.0;
            while t < config.window {
                let Some(placement) = negotiator.place(&mut park, t) else {
                    break;
                };
                if placement.placed_at >= config.window {
                    break;
                }
                let slot = &mut fits[placement.machine_index];
                if slot.is_none() {
                    let history = &park.machines()[placement.machine_index].history;
                    let injected = plan.fit_failure(
                        stream_seed.wrapping_add(placement.machine_index as u64),
                        model_index as u64,
                    );
                    *slot = Some(resolve_fit(kind, history, injected, &mut report).ok());
                }
                let Some(Some(fit)) = slot else {
                    // Natural fit failure: the classic drop (the paper
                    // drops such machines too). Injected failures never
                    // land here — they resolve to a fallback tier.
                    t = placement.eviction_at;
                    continue;
                };
                let (run, log) = execute_run_resilient(
                    fit,
                    kind,
                    &placement,
                    &transfer,
                    config,
                    plan,
                    &mut transfer_rng,
                    lane,
                    &mut fault_counter,
                    &mut forecaster,
                    &mut report,
                );
                t = run.evicted_at;
                runs.push(run);
                logs.push(log);
            }
        }
    }
    let summaries = summarize(&runs);
    Ok((
        ExperimentResult {
            runs,
            logs,
            summaries,
        },
        report,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run_experiment;

    fn small_live() -> ExperimentConfig {
        ExperimentConfig {
            machines: 6,
            streams: 1,
            window: 0.5 * 86_400.0,
            ..ExperimentConfig::campus()
        }
    }

    #[test]
    fn zero_fault_live_run_is_bitwise_identical() {
        let config = small_live();
        let classic = run_experiment(&config).unwrap();
        let (resilient, report) = run_experiment_with_faults(&config, &FaultPlan::none()).unwrap();
        assert_eq!(classic, resilient);
        assert_eq!(report, FaultReport::default());
    }

    #[test]
    fn faulty_live_run_injects_and_conserves() {
        let config = small_live();
        let plan = FaultPlan::uniform(0.4, 7);
        let (result, report) = run_experiment_with_faults(&config, &plan).unwrap();
        assert!(report.total_faults() > 0, "intensity 0.4 injected nothing");
        for run in &result.runs {
            let time = run.cycle.conservation_residual().abs();
            let bytes = run.cycle.byte_conservation_residual().abs();
            assert!(
                time < 1e-6 * run.cycle.total_seconds.max(1.0),
                "time leak {time}"
            );
            assert!(
                bytes < 1e-6 * run.cycle.megabytes.max(1.0),
                "byte leak {bytes}"
            );
            // Every run's transfer records must agree with its ledger.
            let recorded: f64 = run.transfers.iter().map(|tr| tr.megabytes).sum();
            let wasted_only_in_ledger = run.cycle.megabytes - recorded;
            assert!(
                wasted_only_in_ledger.abs() < 1e-6 * run.cycle.megabytes.max(1.0)
                    || wasted_only_in_ledger >= -1e-6,
                "transfer records drifted from ledger: {wasted_only_in_ledger}"
            );
        }
    }

    #[test]
    fn injected_fit_failures_degrade_instead_of_dropping() {
        let config = small_live();
        let plan = FaultPlan {
            p_fit_failure: 1.0,
            ..FaultPlan::none()
        };
        let (result, report) = run_experiment_with_faults(&config, &plan).unwrap();
        assert!(
            report.fallback_exponential + report.fallback_fixed > 0,
            "forced fit failures produced no fallbacks"
        );
        assert!(
            !result.runs.is_empty(),
            "degraded policies must keep running"
        );
    }

    #[test]
    fn planning_failures_degrade_to_young_and_are_counted() {
        let history: Vec<f64> = (0..40).map(|i| 600.0 + 97.0 * i as f64).collect();
        let mut report = FaultReport::default();
        let mut fit = resolve_fit(ModelKind::Exponential, &history, false, &mut report).unwrap();
        let planned = fit.interval(110.0, 500.0, &mut report);
        assert!(planned.is_finite() && planned > 0.0);
        assert_eq!(report, FaultReport::default());

        // A non-finite measured cost has no Vaidya plan: Young's interval
        // at the clamped cost, counted once per degraded plan.
        for cost in [f64::NAN, f64::INFINITY] {
            let t = fit.interval(cost, 500.0, &mut report);
            assert_eq!(t.to_bits(), fit.fixed_interval(cost).to_bits());
        }
        assert_eq!(report.fallback_planning, 2);
        assert_eq!(report.fallback_fixed, 0);

        // The fixed tier plans Young's interval by design: not a fallback.
        let mut fixed = resolve_fit(ModelKind::Exponential, &[], true, &mut report).unwrap();
        assert_eq!(report.fallback_fixed, 1);
        fixed.interval(f64::NAN, 0.0, &mut report);
        assert_eq!(report.fallback_planning, 2);
    }

    #[test]
    fn abandoned_checkpoints_fall_back_to_verified_state() {
        let mut config = small_live();
        // No retry budget: a checkpoint's first fault abandons it; a
        // recovery fault just retries (recoveries have no budget).
        config.retry.max_retries = 0;
        let plan = FaultPlan {
            p_corrupt: 0.5,
            ..FaultPlan::none()
        };
        let (result, report) = run_experiment_with_faults(&config, &plan).unwrap();
        assert!(report.corruptions > 0);
        assert!(report.checkpoints_abandoned > 0);
        let abandoned: u64 = result
            .runs
            .iter()
            .map(|r| r.cycle.checkpoints_abandoned)
            .sum();
        assert_eq!(abandoned, report.checkpoints_abandoned);
        // Half the checkpoints still commit: the run survives the faults.
        let committed: u64 = result
            .runs
            .iter()
            .map(|r| r.cycle.checkpoints_committed)
            .sum();
        assert!(committed > 0, "no checkpoint ever committed under p=0.5");
    }
}
