//! The §5.2 live experiment, emulated: repeatedly submit instrumented
//! test processes to the (virtual) Condor pool, let each one measure its
//! own transfer costs and recompute `T_opt` after every checkpoint, and
//! aggregate per-model efficiency and network load (Tables 4–5).
//!
//! Each run drives a [`chs_cycle::CycleMachine`] — the same recovery →
//! (work → checkpoint)* state machine the batch simulator executes in
//! closed form — with sampled transfer durations, and attaches a
//! [`LogRecorder`] so the checkpoint manager's per-process log is
//! written live from the cycle event stream.
//!
//! [`run_experiment`] runs under a [`FaultPlan`]; [`FaultPlan::none`]
//! is the paper's perfect fabric, on which the first three of these
//! mechanisms never fire:
//!
//! 1. **Fault injection.** Every transfer attempt consults
//!    [`FaultPlan::transfer_fault`] on its own decision lane (one per
//!    (stream, model) pair), so decisions are a pure function of the
//!    plan — independent of scheduling order — and a zero plan draws
//!    nothing.
//! 2. **Bounded retries with backoff.** A faulted checkpoint attempt is
//!    retried up to [`chs_net::RetryPolicy::max_retries`] times behind
//!    exponential backoff with jitter drawn from the run RNG stream
//!    (only on fault paths, so zero-fault runs consume the RNG sequence
//!    of a perfect fabric). Recovery transfers retry until eviction:
//!    there is no older image to fall back to.
//! 3. **Resumable transfers and verified fallback.** Drops and stalls
//!    keep the delivered prefix — the retry ships only the remainder.
//!    A corrupted image (checksum mismatch at commit) is wasted in full
//!    and re-sent. When a checkpoint's retry budget is exhausted the
//!    process falls back to its last *verified* checkpoint: the
//!    interval's work is re-accounted as lost and the run continues.
//! 4. **Policy degradation** through each machine's [`MachinePlanner`],
//!    counted in the run's [`FaultReport`].
//!
//! Timeouts only ever cut *injected stalls*: a healthy sampled transfer
//! can legitimately exceed `k×` its forecast (the lognormal tail), so
//! aborting it would change zero-fault behavior. In this emulation every
//! pathology is injected, so the manager's timeout is modeled as the
//! stall-detection deadline `timeout_factor × forecast`.

use crate::log::{LogRecorder, ProcessLog};
use crate::machine::MachinePark;
use crate::manager::{RunRecord, TransferKind, TransferRecord};
use crate::negotiator::{Negotiator, Placement};
use crate::resilient::{FaultReport, MachinePlanner};
use crate::{CondorError, Result};
use chs_cycle::{sanitize_age, CycleConfig, CycleMachine, CycleObserver, TransferFaultKind};
use chs_dist::ModelKind;
use chs_net::faults::{FaultPlan, TransferFault};
use chs_net::{AdaptiveForecaster, Forecaster, NetworkPath, RetryPolicy, TransferModel};
use chs_trace::synthetic::PoolConfig;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// Configuration of one emulated live experiment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExperimentConfig {
    /// Machines in the pool.
    pub machines: usize,
    /// Historical durations recorded per machine (the training data; the
    /// paper fits on the previous 18 months, our default matches its
    /// 25-observation training sets).
    pub history_len: usize,
    /// Measurement window in virtual seconds (the paper ran ~2 days).
    pub window: f64,
    /// Network path between pool and checkpoint manager.
    pub path: NetworkPath,
    /// Checkpoint image size, megabytes.
    pub image_mb: f64,
    /// Independent submission streams (each gets a fresh pool
    /// realization; samples accumulate across streams).
    pub streams: usize,
    /// Heartbeat period, seconds (the paper's process reports every 10 s).
    pub heartbeat_period: f64,
    /// Pool meta-distribution for machine ground truths.
    pub pool: PoolConfig,
    /// Master seed.
    pub seed: u64,
    /// Manager-side resilience knobs (retries, backoff, timeouts); only
    /// a fault path reads them.
    pub retry: RetryPolicy,
}

impl ExperimentConfig {
    /// Table 4's setup: checkpoint manager on the campus LAN.
    pub fn campus() -> Self {
        Self::with_path(NetworkPath::campus())
    }

    /// Table 5's setup: checkpoint manager across the wide area.
    pub fn wide_area() -> Self {
        Self::with_path(NetworkPath::wide_area())
    }

    fn with_path(path: NetworkPath) -> Self {
        Self {
            machines: 48,
            history_len: 25,
            window: 2.0 * 86_400.0,
            path,
            image_mb: 500.0,
            streams: 4,
            heartbeat_period: 10.0,
            pool: PoolConfig::default(),
            seed: 2_005,
            retry: RetryPolicy::default(),
        }
    }

    /// Check every knob: counts nonzero, durations finite and positive,
    /// image size positive, retry policy ranges legal.
    pub fn validate(&self) -> Result<()> {
        if self.machines == 0 {
            return Err(CondorError::InvalidConfig("need at least one machine"));
        }
        if !(self.window.is_finite() && self.window > 0.0) {
            return Err(CondorError::InvalidConfig(
                "window must be positive and finite",
            ));
        }
        if self.streams == 0 {
            return Err(CondorError::InvalidConfig("need at least one stream"));
        }
        // An empty history has no mean either: it would plan Young's
        // interval at MTTF 0 for every machine.
        if self.history_len == 0 {
            return Err(CondorError::InvalidConfig(
                "need at least one historical duration per machine",
            ));
        }
        if !(self.heartbeat_period.is_finite() && self.heartbeat_period > 0.0) {
            return Err(CondorError::InvalidConfig(
                "heartbeat period must be positive and finite",
            ));
        }
        if !(self.image_mb.is_finite() && self.image_mb > 0.0) {
            return Err(CondorError::InvalidConfig(
                "image size must be positive and finite",
            ));
        }
        if self.retry.validate().is_err() {
            return Err(CondorError::InvalidConfig("invalid retry policy"));
        }
        Ok(())
    }
}

/// Aggregate of one model's runs — one row of Table 4 / Table 5.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModelSummary {
    /// Which model.
    pub model: ModelKind,
    /// Occupied-time-weighted average efficiency.
    pub avg_efficiency: f64,
    /// Total seconds the test processes held machines.
    pub total_seconds: f64,
    /// Total megabytes transferred.
    pub megabytes: f64,
    /// Megabytes per occupied hour.
    pub megabytes_per_hour: f64,
    /// Number of runs (placements).
    pub sample_size: usize,
    /// Mean measured transfer duration across runs (the empirical `C`).
    pub mean_transfer_seconds: f64,
}

/// Full result of an emulated live experiment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExperimentResult {
    /// Every run, all models.
    pub runs: Vec<RunRecord>,
    /// The manager's per-process log for each run (parallel to `runs`),
    /// recorded live by a [`LogRecorder`] on the run's cycle machine.
    pub logs: Vec<ProcessLog>,
    /// Per-model aggregates in [`ModelKind::PAPER_SET`] order.
    pub summaries: Vec<ModelSummary>,
}

/// Run the emulated live experiment for all four paper models under
/// `plan` ([`FaultPlan::none`] for the paper's fault-free experiment).
///
/// Each model experiences the *same* pool realizations (per stream), so
/// model comparisons are paired, exactly like the trace simulation.
pub fn run_experiment(
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
            // Timeline horizon extends past the window so the last run can
            // finish; machines/timelines depend only on the stream seed →
            // identical across models (paired comparison).
            let mut park = MachinePark::generate(
                &config.pool,
                config.machines,
                config.history_len,
                config.window * 2.0 + 7.0 * 86_400.0,
                stream_seed,
            );
            let mut negotiator = Negotiator::new(stream_seed ^ 0xBEEF);
            let mut sequence = Sequence {
                config,
                kind,
                transfer: TransferModel::new(config.path),
                rng: ChaCha8Rng::seed_from_u64(stream_seed ^ 0xAB1E ^ ((model_index as u64) << 32)),
                plan,
                lane: stream_seed ^ ((model_index as u64) << 48) ^ 0xFA17,
                fault_counter: 0,
                forecaster: AdaptiveForecaster::standard(),
            };

            // Fit this model to each machine's history lazily.
            let mut fits: Vec<Option<MachinePlanner>> = vec![None; config.machines];

            let mut t = 0.0;
            while t < config.window {
                let Some(placement) = negotiator.place(&mut park, t) else {
                    break;
                };
                if placement.placed_at >= config.window {
                    break;
                }
                let fit = fits[placement.machine_index].get_or_insert_with(|| {
                    let history = &park.machines()[placement.machine_index].history;
                    let injected = plan.fit_failure(
                        stream_seed.wrapping_add(placement.machine_index as u64),
                        model_index as u64,
                    );
                    MachinePlanner::fit(kind, history, injected, &mut report)
                });
                let (run, log) = execute_run(&mut sequence, fit, &placement, &mut report);
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

/// One (stream, model) submission sequence: the transfer model and RNG
/// every run samples durations from, and the fault-decision lane and
/// cost forecaster its transfers share.
struct Sequence<'a> {
    config: &'a ExperimentConfig,
    kind: ModelKind,
    transfer: TransferModel,
    rng: ChaCha8Rng,
    plan: &'a FaultPlan,
    lane: u64,
    fault_counter: u64,
    forecaster: AdaptiveForecaster,
}

/// One placement in progress: the cycle machine and its live log, the
/// manager's transfer records, the planned intervals, the virtual clock,
/// and the work seconds the heartbeat floor counts. Work seconds accrue
/// here rather than being read back from the ledger, which splits
/// committed from lost work.
struct LiveRun<'p> {
    placement: &'p Placement,
    machine: CycleMachine,
    recorder: LogRecorder,
    transfers: Vec<TransferRecord>,
    t_opts: Vec<f64>,
    t: f64,
    work_seconds: f64,
}

/// How one transfer phase ended.
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

/// Execute one test-process run: the §5.2 recovery → (work → checkpoint)*
/// protocol, terminated by eviction. The cycle machine does the
/// accounting; this driver owns the virtual clock, the transfer-duration
/// sampling, and the `T_opt` recomputation.
fn execute_run(
    seq: &mut Sequence<'_>,
    fit: &mut MachinePlanner,
    placement: &Placement,
    report: &mut FaultReport,
) -> (RunRecord, ProcessLog) {
    let eviction = placement.eviction_at;
    let heartbeat_period = seq.config.heartbeat_period;
    let mut run = LiveRun::place(placement, seq.config.image_mb);

    // Initial recovery: the manager pushes the image and the process
    // times the transfer.
    let mut measured_cost = match run.transfer(TransferKind::Recovery, seq, report) {
        PhaseEnd::Completed { measured } => {
            run.machine.complete_recovery(&mut run.recorder);
            measured
        }
        PhaseEnd::Evicted => return run.finish(seq.kind, heartbeat_period),
        PhaseEnd::Abandoned => unreachable!("recovery transfers are never abandoned"),
    };

    loop {
        // Recompute T_opt from the latest measured transfer time (used as
        // both C and R, per the paper) and the machine's current age.
        let age = sanitize_age(placement.age_at_placement + (run.t - placement.placed_at));
        let t_opt = fit.interval(measured_cost, age, report);
        run.t_opts.push(t_opt);
        run.machine.start_work(t_opt, &mut run.recorder);

        // Work phase (spin + heartbeats).
        if run.t + t_opt >= eviction {
            run.work_seconds += eviction - run.t;
            run.evict(0.0);
            return run.finish(seq.kind, heartbeat_period);
        }
        run.machine.advance(t_opt, 0.0);
        run.t += t_opt;
        run.work_seconds += t_opt;
        run.machine.start_checkpoint(&mut run.recorder);

        // Checkpoint transfer back to the manager.
        match run.transfer(TransferKind::Checkpoint, seq, report) {
            PhaseEnd::Completed { measured } => {
                run.machine.complete_checkpoint(&mut run.recorder);
                measured_cost = measured;
            }
            PhaseEnd::Evicted => return run.finish(seq.kind, heartbeat_period),
            // Abandoned: fall back to the last verified checkpoint and
            // keep planning (the machine is Ready again).
            PhaseEnd::Abandoned => {}
        }
    }
}

impl<'p> LiveRun<'p> {
    /// Open the process's log and start the machine's clock. In
    /// step-driven mode the machine only needs the image size and the
    /// byte-counting rule; phase durations are whatever the driver says.
    fn place(placement: &'p Placement, image_mb: f64) -> Self {
        let mut machine = CycleMachine::new(CycleConfig {
            checkpoint_cost: 0.0,
            recovery_cost: 0.0,
            image_mb,
            count_recovery_bytes: true,
        });
        let mut recorder = LogRecorder::new(
            placement.placed_at,
            placement.machine,
            placement.age_at_placement,
        );
        machine.place(placement.eviction_at - placement.placed_at, &mut recorder);
        LiveRun {
            placement,
            machine,
            recorder,
            transfers: Vec::new(),
            t_opts: Vec::new(),
            t: placement.placed_at,
            work_seconds: 0.0,
        }
    }

    /// Run the clock out to the eviction, with `megabytes` crossing the
    /// wire on the way, and evict.
    fn evict(&mut self, megabytes: f64) {
        self.machine
            .advance(self.placement.eviction_at - self.t, megabytes);
        self.t = self.placement.eviction_at;
        self.machine.evict(&mut self.recorder);
    }

    /// Seal the run: floor the heartbeat count, take the machine's
    /// ledger, and close the log with the negotiator's eviction
    /// timestamp.
    fn finish(self, kind: ModelKind, heartbeat_period: f64) -> (RunRecord, ProcessLog) {
        let heartbeats = (self.work_seconds / heartbeat_period) as u64;
        let placement = self.placement;
        let record = RunRecord {
            machine: placement.machine,
            model: kind,
            placed_at: placement.placed_at,
            age_at_placement: placement.age_at_placement,
            evicted_at: placement.eviction_at,
            transfers: self.transfers,
            t_opts: self.t_opts,
            cycle: self.machine.into_accounting(),
            heartbeats,
        };
        let log = self.recorder.finish(placement.eviction_at, heartbeats);
        (record, log)
    }

    /// Drive one transfer phase (recovery or checkpoint) to completion,
    /// eviction, or abandonment, injecting faults and retrying per
    /// policy. The machine must already be in the matching transfer
    /// phase; the clock advances past everything that happened
    /// (attempts, waits, backoffs).
    fn transfer(
        &mut self,
        tkind: TransferKind,
        seq: &mut Sequence<'_>,
        report: &mut FaultReport,
    ) -> PhaseEnd {
        let config = seq.config;
        let retry = &config.retry;
        let image_mb = config.image_mb;
        let eviction = self.placement.eviction_at;
        let mut retries_used = 0u32;

        loop {
            let rem = self
                .machine
                .transfer_remaining_mb()
                .expect("transfer outside a transfer phase");
            let fault = seq.plan.transfer_fault(seq.lane, seq.fault_counter);
            seq.fault_counter += 1;

            // Transient manager unavailability delays the attempt; no
            // bytes move while waiting and no retry is consumed.
            if let Some(TransferFault::Unavailable { wait_seconds }) = fault {
                self.machine.fault_transfer(
                    TransferFaultKind::Unavailable,
                    false,
                    false,
                    &mut self.recorder,
                );
                report.record_fault(TransferFaultKind::Unavailable);
                if self.t + wait_seconds > eviction {
                    self.evict(0.0);
                    return PhaseEnd::Evicted;
                }
                self.machine.advance(wait_seconds, 0.0);
                self.t += wait_seconds;
            }

            // Sample the attempt's clean duration for the remaining
            // payload (the whole image on a first attempt).
            let full = seq.transfer.sample_duration(rem, &mut seq.rng);

            // Shape of the attempt: progress stops at `cutoff` seconds,
            // the manager sees the attempt end at `len` seconds.
            let (cutoff, len, failed): (f64, f64, Option<TransferFaultKind>) = match fault {
                None | Some(TransferFault::Unavailable { .. }) => (full, full, None),
                Some(TransferFault::Corruption) => {
                    (full, full, Some(TransferFaultKind::Corruption))
                }
                Some(TransferFault::Drop { progress_fraction }) => {
                    let at = progress_fraction * full;
                    (at, at, Some(TransferFaultKind::Drop))
                }
                Some(TransferFault::Stall { progress_fraction }) => {
                    let forecast = seq
                        .forecaster
                        .predict()
                        .unwrap_or_else(|| seq.transfer.expected_duration(image_mb));
                    (
                        progress_fraction * full,
                        retry.timeout_factor * forecast,
                        Some(TransferFaultKind::Stall),
                    )
                }
            };

            // Eviction clips the attempt wherever it is.
            if self.t + len > eviction {
                let dt = eviction - self.t;
                let delivered = seq.transfer.partial_megabytes(rem, dt.min(cutoff), full);
                self.transfers.push(TransferRecord {
                    kind: tkind,
                    started_at: self.t,
                    full_duration: full,
                    elapsed: dt,
                    completed: false,
                    megabytes: delivered,
                });
                self.evict(delivered);
                return PhaseEnd::Evicted;
            }

            let Some(fkind) = failed else {
                self.transfers.push(TransferRecord {
                    kind: tkind,
                    started_at: self.t,
                    full_duration: full,
                    elapsed: full,
                    completed: true,
                    megabytes: rem,
                });
                self.machine.advance(full, rem);
                self.t += full;
                // Scale the measurement to a full image so a retried
                // partial shipment keeps `C` comparable (exact no-op on
                // a first attempt, where rem == image_mb).
                let measured = if rem == image_mb {
                    full
                } else {
                    full * image_mb / rem
                };
                seq.forecaster.update(measured);
                return PhaseEnd::Completed { measured };
            };

            let delivered = match fkind {
                TransferFaultKind::Corruption => rem,
                _ => seq.transfer.partial_megabytes(rem, cutoff.min(len), full),
            };
            self.transfers.push(TransferRecord {
                kind: tkind,
                started_at: self.t,
                full_duration: full,
                elapsed: len,
                completed: false,
                megabytes: delivered,
            });
            self.machine.advance(len, delivered);
            self.t += len;
            report.record_fault(fkind);
            let resend = fkind == TransferFaultKind::Corruption;
            self.machine
                .fault_transfer(fkind, resend, true, &mut self.recorder);
            retries_used += 1;

            // Checkpoints have a bounded budget; recoveries retry until
            // eviction (no older image exists to fall back to).
            if tkind == TransferKind::Checkpoint && retries_used > retry.max_retries {
                self.machine.abandon_checkpoint(&mut self.recorder);
                report.checkpoints_abandoned += 1;
                return PhaseEnd::Abandoned;
            }
            report.retries += 1;

            // Exponential backoff; the jitter draw comes from the run RNG
            // stream and only happens on fault paths.
            let backoff = retry.backoff_jittered(retries_used, seq.rng.gen::<f64>());
            self.recorder.on_retry_scheduled(
                self.t - self.placement.placed_at,
                retries_used,
                backoff,
            );
            if self.t + backoff > eviction {
                self.evict(0.0);
                return PhaseEnd::Evicted;
            }
            self.machine.advance(backoff, 0.0);
            self.t += backoff;
        }
    }
}

/// Build the Table 4/5 rows from raw runs.
pub fn summarize(runs: &[RunRecord]) -> Vec<ModelSummary> {
    ModelKind::PAPER_SET
        .into_iter()
        .map(|kind| {
            let model_runs: Vec<&RunRecord> = runs.iter().filter(|r| r.model == kind).collect();
            let total: f64 = model_runs.iter().map(|r| r.occupied_seconds()).sum();
            let useful: f64 = model_runs.iter().map(|r| r.useful_seconds()).sum();
            let mb: f64 = model_runs.iter().map(|r| r.megabytes()).sum();
            let transfer_means: Vec<f64> = model_runs
                .iter()
                .filter_map(|r| r.mean_transfer_seconds())
                .collect();
            ModelSummary {
                model: kind,
                avg_efficiency: if total > 0.0 { useful / total } else { 0.0 },
                total_seconds: total,
                megabytes: mb,
                megabytes_per_hour: if total > 0.0 {
                    mb / (total / 3_600.0)
                } else {
                    0.0
                },
                sample_size: model_runs.len(),
                mean_transfer_seconds: if transfer_means.is_empty() {
                    0.0
                } else {
                    transfer_means.iter().sum::<f64>() / transfer_means.len() as f64
                },
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> ExperimentConfig {
        ExperimentConfig {
            machines: 10,
            streams: 1,
            window: 0.5 * 86_400.0,
            ..ExperimentConfig::campus()
        }
    }

    fn live(config: &ExperimentConfig) -> ExperimentResult {
        let (result, report) = run_experiment(config, &FaultPlan::none()).unwrap();
        assert_eq!(
            report,
            FaultReport::default(),
            "a zero plan reported faults"
        );
        result
    }

    #[test]
    fn config_validation() {
        let mut c = tiny_config();
        c.machines = 0;
        assert!(run_experiment(&c, &FaultPlan::none()).is_err());
        let mut c = tiny_config();
        c.window = 0.0;
        assert!(run_experiment(&c, &FaultPlan::none()).is_err());
        let mut c = tiny_config();
        c.streams = 0;
        assert!(run_experiment(&c, &FaultPlan::none()).is_err());
    }

    #[test]
    fn config_rejects_empty_history() {
        let mut c = tiny_config();
        c.history_len = 0;
        assert!(c.validate().is_err());
        assert!(run_experiment(&c, &FaultPlan::none()).is_err());
    }

    #[test]
    fn config_rejects_non_finite_window() {
        for bad in [f64::NAN, f64::INFINITY, -1.0] {
            let mut c = tiny_config();
            c.window = bad;
            assert!(c.validate().is_err(), "window {bad} accepted");
        }
    }

    #[test]
    fn config_rejects_non_finite_heartbeat() {
        for bad in [f64::NAN, f64::INFINITY, -10.0, 0.0] {
            let mut c = tiny_config();
            c.heartbeat_period = bad;
            assert!(c.validate().is_err(), "heartbeat {bad} accepted");
        }
    }

    #[test]
    fn config_rejects_bad_image_size() {
        for bad in [f64::NAN, f64::INFINITY, -500.0, 0.0] {
            let mut c = tiny_config();
            c.image_mb = bad;
            assert!(c.validate().is_err(), "image {bad} accepted");
        }
    }

    #[test]
    fn config_rejects_bad_retry_knobs() {
        let mut c = tiny_config();
        c.retry.timeout_factor = 0.5;
        assert!(c.validate().is_err());
        let mut c = tiny_config();
        c.retry.backoff_base = f64::NAN;
        assert!(c.validate().is_err());
        let mut c = tiny_config();
        c.retry.backoff_jitter = -0.1;
        assert!(c.validate().is_err());
        assert!(tiny_config().validate().is_ok());
    }

    #[test]
    fn experiment_produces_runs_for_all_models() {
        let result = live(&tiny_config());
        assert_eq!(result.summaries.len(), 4);
        for s in &result.summaries {
            assert!(s.sample_size > 0, "{:?} got no runs", s.model);
            assert!((0.0..=1.0).contains(&s.avg_efficiency), "{:?}", s);
            assert!(s.megabytes >= 0.0);
        }
    }

    #[test]
    fn runs_internally_consistent() {
        let result = live(&tiny_config());
        assert_eq!(result.runs.len(), result.logs.len());
        for r in &result.runs {
            assert!(r.evicted_at > r.placed_at);
            assert!(r.useful_seconds() <= r.occupied_seconds() + 1e-9);
            assert!(r.age_at_placement >= 0.0);
            // Committed work requires a committed checkpoint.
            if r.useful_seconds() > 0.0 {
                assert!(r.checkpoints_committed() > 0);
            }
            // Transfers are chronological and within the run.
            for w in r.transfers.windows(2) {
                assert!(w[1].started_at >= w[0].started_at + w[0].elapsed - 1e-9);
            }
            for tr in &r.transfers {
                assert!(tr.started_at >= r.placed_at - 1e-9);
                assert!(tr.started_at + tr.elapsed <= r.evicted_at + 1e-9);
                assert!(tr.megabytes <= 500.0 + 1e-9);
            }
            // First transfer of every run is the recovery.
            if let Some(first) = r.transfers.first() {
                assert_eq!(first.kind, TransferKind::Recovery);
            }
        }
    }

    #[test]
    fn ledger_agrees_with_transfer_records() {
        // The cycle ledger and the manager's per-transfer measurements
        // are two views of the same run; they accumulate the same values
        // in the same order, so the byte totals agree bitwise.
        let result = live(&tiny_config());
        for r in &result.runs {
            let from_transfers = r
                .transfers
                .iter()
                .fold(0.0f64, |acc, tr| acc + tr.megabytes);
            assert_eq!(
                r.cycle.megabytes.to_bits(),
                from_transfers.to_bits(),
                "ledger {} vs transfer records {}",
                r.cycle.megabytes,
                from_transfers
            );
            assert_eq!(r.cycle.transfers_started(), r.transfers.len() as u64);
            assert_eq!(r.cycle.recoveries, 1, "one placement, one recovery");
            assert!(r.cycle.conservation_residual().abs() < 1e-6);
            // The machine clock covered the whole placement.
            assert!((r.cycle.total_seconds - r.occupied_seconds()).abs() < 1e-6);
        }
    }

    #[test]
    fn deterministic() {
        let a = live(&tiny_config());
        let b = live(&tiny_config());
        assert_eq!(a.runs.len(), b.runs.len());
        assert_eq!(a.summaries, b.summaries);
        assert_eq!(a.logs, b.logs);
    }

    #[test]
    fn measured_costs_track_the_path() {
        let result = live(&tiny_config());
        for s in &result.summaries {
            if s.sample_size >= 5 {
                assert!(
                    s.mean_transfer_seconds > 50.0 && s.mean_transfer_seconds < 250.0,
                    "campus path mean transfer {:.0}s out of band",
                    s.mean_transfer_seconds
                );
            }
        }
    }

    #[test]
    fn wide_area_uses_more_time_per_transfer() {
        let campus = live(&tiny_config());
        let mut wide_cfg = tiny_config();
        wide_cfg.path = NetworkPath::wide_area();
        let wide = live(&wide_cfg);
        let mean_c: f64 = campus
            .summaries
            .iter()
            .map(|s| s.mean_transfer_seconds)
            .sum::<f64>()
            / 4.0;
        let mean_w: f64 = wide
            .summaries
            .iter()
            .map(|s| s.mean_transfer_seconds)
            .sum::<f64>()
            / 4.0;
        assert!(mean_w > 2.0 * mean_c, "campus {mean_c} wide {mean_w}");
    }
}
