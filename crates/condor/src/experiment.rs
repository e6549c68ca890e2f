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

use crate::log::{LogRecorder, ProcessLog};
use crate::machine::MachinePark;
use crate::manager::{RunRecord, TransferKind, TransferRecord};
use crate::negotiator::{Negotiator, Placement};
use crate::{CondorError, Result};
use chs_cycle::{clamp_interval, sanitize_age, CycleConfig, CycleMachine};
use chs_dist::fit::fit_model;
use chs_dist::{FittedModel, ModelKind};
use chs_markov::{CheckpointCosts, VaidyaModel};
use chs_net::{NetworkPath, RetryPolicy, TransferModel};
use chs_trace::synthetic::PoolConfig;
use rand::SeedableRng;
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
    /// Manager-side resilience knobs (retries, backoff, timeouts). Only
    /// consulted by the fault-aware driver
    /// ([`crate::resilient::run_experiment_with_faults`]); the classic
    /// [`run_experiment`] path ignores it.
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

/// Run the emulated live experiment for all four paper models.
///
/// Each model experiences the *same* pool realizations (per stream), so
/// model comparisons are paired, exactly like the trace simulation.
pub fn run_experiment(config: &ExperimentConfig) -> Result<ExperimentResult> {
    config.validate()?;
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
            let mut transfer_rng =
                ChaCha8Rng::seed_from_u64(stream_seed ^ 0xAB1E ^ ((model_index as u64) << 32));
            let transfer = TransferModel::new(config.path);

            // Fit this model to each machine's history lazily.
            let mut fits: Vec<Option<Option<FittedModel>>> = vec![None; config.machines];

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
                    *slot = Some(fit_model(kind, history).ok());
                }
                let Some(Some(fit)) = slot.clone() else {
                    // Unfittable machine (paper drops such machines too).
                    t = placement.eviction_at;
                    continue;
                };
                let (run, log) =
                    execute_run(&fit, kind, &placement, &transfer, config, &mut transfer_rng)?;
                t = run.evicted_at;
                runs.push(run);
                logs.push(log);
            }
        }
    }
    let summaries = summarize(&runs);
    Ok(ExperimentResult {
        runs,
        logs,
        summaries,
    })
}

/// Execute one test-process run: the §5.2 recovery → (work → checkpoint)*
/// protocol, terminated by eviction. The cycle machine does the
/// accounting; this driver owns the virtual clock, the transfer-duration
/// sampling, and the `T_opt` recomputation.
fn execute_run(
    fit: &FittedModel,
    kind: ModelKind,
    placement: &Placement,
    transfer: &TransferModel,
    config: &ExperimentConfig,
    rng: &mut ChaCha8Rng,
) -> Result<(RunRecord, ProcessLog)> {
    let eviction = placement.eviction_at;
    let mut t = placement.placed_at;
    let mut transfers: Vec<TransferRecord> = Vec::new();
    let mut t_opts: Vec<f64> = Vec::new();
    // Work seconds accrue here, not read back from the ledger, so the
    // heartbeat floor sees the exact same single-accumulator sum it
    // always has (the ledger splits committed from lost work).
    let mut work_seconds_total = 0.0;

    // In step-driven mode the machine only needs the image size and the
    // byte-counting rule; phase durations are whatever the driver says.
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

    // Initial recovery: the manager pushes the 500 MB image and the
    // process times the transfer.
    let full = transfer.sample_duration(config.image_mb, rng);
    if t + full > eviction {
        let elapsed = eviction - t;
        let megabytes = transfer.partial_megabytes(config.image_mb, elapsed, full);
        transfers.push(TransferRecord {
            kind: TransferKind::Recovery,
            started_at: t,
            full_duration: full,
            elapsed,
            completed: false,
            megabytes,
        });
        machine.advance(elapsed, megabytes);
        machine.evict(&mut recorder);
        return Ok(finish_run(
            machine,
            recorder,
            placement,
            kind,
            transfers,
            t_opts,
            work_seconds_total,
            config.heartbeat_period,
        ));
    }
    transfers.push(TransferRecord {
        kind: TransferKind::Recovery,
        started_at: t,
        full_duration: full,
        elapsed: full,
        completed: true,
        megabytes: config.image_mb,
    });
    machine.advance(full, config.image_mb);
    machine.complete_recovery(&mut recorder);
    t += full;
    let mut measured_cost = full;

    loop {
        // Recompute T_opt from the latest measured transfer time (used as
        // both C and R, per the paper) and the machine's current age.
        let age = sanitize_age(placement.age_at_placement + (t - placement.placed_at));
        let vaidya = VaidyaModel::new(fit, CheckpointCosts::symmetric(measured_cost))?;
        let t_opt = clamp_interval(vaidya.optimal_interval(age)?.work_seconds);
        t_opts.push(t_opt);
        machine.start_work(t_opt, &mut recorder);

        // Work phase (spin + heartbeats).
        if t + t_opt >= eviction {
            let elapsed = eviction - t;
            work_seconds_total += elapsed;
            machine.advance(elapsed, 0.0);
            machine.evict(&mut recorder);
            return Ok(finish_run(
                machine,
                recorder,
                placement,
                kind,
                transfers,
                t_opts,
                work_seconds_total,
                config.heartbeat_period,
            ));
        }
        machine.advance(t_opt, 0.0);
        t += t_opt;
        work_seconds_total += t_opt;
        machine.start_checkpoint(&mut recorder);

        // Checkpoint transfer back to the manager.
        let full = transfer.sample_duration(config.image_mb, rng);
        if t + full > eviction {
            let elapsed = eviction - t;
            let megabytes = transfer.partial_megabytes(config.image_mb, elapsed, full);
            transfers.push(TransferRecord {
                kind: TransferKind::Checkpoint,
                started_at: t,
                full_duration: full,
                elapsed,
                completed: false,
                megabytes,
            });
            machine.advance(elapsed, megabytes);
            machine.evict(&mut recorder);
            return Ok(finish_run(
                machine,
                recorder,
                placement,
                kind,
                transfers,
                t_opts,
                work_seconds_total,
                config.heartbeat_period,
            ));
        }
        transfers.push(TransferRecord {
            kind: TransferKind::Checkpoint,
            started_at: t,
            full_duration: full,
            elapsed: full,
            completed: true,
            megabytes: config.image_mb,
        });
        machine.advance(full, config.image_mb);
        machine.complete_checkpoint(&mut recorder);
        t += full;
        measured_cost = full;
    }
}

/// Seal a finished run: floor the heartbeat count, take the machine's
/// ledger, and close the log with the negotiator's eviction timestamp.
#[allow(clippy::too_many_arguments)]
fn finish_run(
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
    debug_assert!(
        (machine.accounting().work_seconds() - work_seconds_total).abs()
            <= 1e-6 * work_seconds_total.max(1.0),
        "ledger work diverged from the driver's accumulator"
    );
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

    #[test]
    fn config_validation() {
        let mut c = tiny_config();
        c.machines = 0;
        assert!(run_experiment(&c).is_err());
        let mut c = tiny_config();
        c.window = 0.0;
        assert!(run_experiment(&c).is_err());
        let mut c = tiny_config();
        c.streams = 0;
        assert!(run_experiment(&c).is_err());
    }

    #[test]
    fn config_rejects_empty_history() {
        let mut c = tiny_config();
        c.history_len = 0;
        assert!(c.validate().is_err());
        assert!(run_experiment(&c).is_err());
        assert!(crate::run_experiment_with_faults(&c, &chs_net::FaultPlan::none()).is_err());
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
        let result = run_experiment(&tiny_config()).unwrap();
        assert_eq!(result.summaries.len(), 4);
        for s in &result.summaries {
            assert!(s.sample_size > 0, "{:?} got no runs", s.model);
            assert!((0.0..=1.0).contains(&s.avg_efficiency), "{:?}", s);
            assert!(s.megabytes >= 0.0);
        }
    }

    #[test]
    fn runs_internally_consistent() {
        let result = run_experiment(&tiny_config()).unwrap();
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
        let result = run_experiment(&tiny_config()).unwrap();
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
        let a = run_experiment(&tiny_config()).unwrap();
        let b = run_experiment(&tiny_config()).unwrap();
        assert_eq!(a.runs.len(), b.runs.len());
        assert_eq!(a.summaries, b.summaries);
        assert_eq!(a.logs, b.logs);
    }

    #[test]
    fn measured_costs_track_the_path() {
        let result = run_experiment(&tiny_config()).unwrap();
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
        let campus = run_experiment(&tiny_config()).unwrap();
        let mut wide_cfg = tiny_config();
        wide_cfg.path = NetworkPath::wide_area();
        let wide = run_experiment(&wide_cfg).unwrap();
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
