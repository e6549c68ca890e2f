//! The classic §5.2 live driver, copied verbatim from chs-condor before
//! the fault-aware driver replaced it: one recovery → (work →
//! checkpoint)* loop per placement over a perfect transfer fabric, with
//! `T_opt` re-planned after every transfer at the measured cost.
//!
//! This is the frozen oracle `chs_condor::run_experiment` is pinned
//! against under `FaultPlan::none()`. It is included with `#[path]` by
//! `fault_differential.rs` (the proptest suite) and by chs-bench's
//! `fault_bench` (the `live.zero_fault_identity` gate), so there is one
//! copy. It uses only the crate's public API.
//!
//! One edit since the copy: a machine whose native fit fails is planned
//! the way production plans it — `chs_markov::resolve_fit`, then
//! `young_interval` on the fixed tier — instead of being dropped. Fitted
//! machines keep this file's own `VaidyaModel` planning, so on a pool
//! where no fit fails the oracle is bitwise the copied driver.

use chs_condor::experiment::summarize;
use chs_condor::negotiator::{Negotiator, Placement};
use chs_condor::{
    ExperimentConfig, ExperimentResult, LogRecorder, MachinePark, ProcessLog, RunRecord,
    TransferKind, TransferRecord,
};
use chs_cycle::{clamp_interval, sanitize_age, CycleConfig, CycleMachine};
use chs_dist::fit::fit_model;
use chs_dist::{FittedModel, ModelKind};
use chs_markov::{resolve_fit, young_interval, CheckpointCosts, VaidyaModel};
use chs_net::TransferModel;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

pub type Result<T> = std::result::Result<T, Box<dyn std::error::Error>>;

/// What one machine plans with: the fit the degradation chain reached
/// (none on Young's fixed tier) and the history mean Young's interval
/// needs.
#[derive(Clone)]
struct MachineFit {
    fit: Option<FittedModel>,
    mean_history: f64,
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
            let mut fits: Vec<Option<MachineFit>> = vec![None; config.machines];

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
                    let (fit, _tier) = resolve_fit(Some(fit_model(kind, history)), history);
                    MachineFit {
                        fit,
                        mean_history: history.iter().sum::<f64>() / history.len() as f64,
                    }
                });
                let (run, log) =
                    execute_run(fit, kind, &placement, &transfer, config, &mut transfer_rng)?;
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
    fit: &MachineFit,
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
        let t_opt = match &fit.fit {
            Some(fit) => {
                let vaidya = VaidyaModel::new(fit, CheckpointCosts::symmetric(measured_cost))?;
                clamp_interval(vaidya.optimal_interval(age)?.work_seconds)
            }
            None => young_interval(measured_cost, fit.mean_history),
        };
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
