//! `manager-overload`: the checkpoint-manager server under more traffic
//! than its link carries — weighted lanes, injected faults, admission
//! deferrals and dead letters — followed by a replay that drains the
//! dead-letter queue. The event loop scans its clients on every event, so
//! wall time grows faster than the client count.
//!
//! The client population is the manager's default one; the seed draws
//! the fault weather (stalls, drops, corruptions, outages, injected fit
//! failures) it runs under.

use super::{check_ledger, fold, ledger_values, Checked, Iteration, Scale, Workload};
use crate::trace::Tracer;
use chs_condor::EmulatedMachine;
use chs_cycle::CycleObserver;
use chs_dist::ModelKind;
use chs_manager::{
    replay_dead_letters, replay_dead_letters_observed, run_manager, run_manager_observed,
    ManagerConfig, ManagerOutcome, ReplayConfig, ReplayReport,
};
use chs_net::FaultPlan;

/// Link capacity as a multiple of the campus link.
const LINK_SCALE: f64 = 32.0;
/// Fault intensity of the run (split over stall/drop/corruption/outage).
const FAULT_INTENSITY: f64 = 0.2;
/// Probability a committed checkpoint spawns a prefetch.
const PREFETCH: f64 = 0.3;
/// Letters replayed concurrently.
const REPLAY_IN_FLIGHT: usize = 4;

/// The workload at one size.
pub struct ManagerOverload {
    clients: usize,
    window: f64,
}

impl ManagerOverload {
    /// Sizes for `scale`.
    pub fn new(scale: Scale) -> Self {
        match scale {
            Scale::Bench => ManagerOverload {
                clients: 512,
                window: 86_400.0,
            },
            Scale::Quick => ManagerOverload {
                clients: 16,
                window: 21_600.0,
            },
        }
    }
}

/// The server and replay configurations, plus the number of placements
/// the client population they describe offers.
pub struct ManagerInput {
    config: ManagerConfig,
    plan: FaultPlan,
    replay: ReplayConfig,
    /// Availability segments starting inside the window, over all
    /// clients: each must start exactly one recovery.
    placements: u64,
}

/// The run's outcome after its dead letters were replayed.
pub struct ManagerOutput {
    outcome: ManagerOutcome,
    replay: ReplayReport,
    /// Megabytes the dead letters still owed before the replay.
    owed_mb: f64,
    enqueued: u64,
}

impl Workload for ManagerOverload {
    type Input = ManagerInput;
    type Output = ManagerOutput;

    fn setup(&self, seed: u64) -> ManagerInput {
        let mut config = ManagerConfig::campus(self.clients, ModelKind::Exponential);
        config.window = self.window;
        config.link_mb_per_s *= LINK_SCALE;
        config.retry.max_retries = 1;
        config.prefetch_probability = PREFETCH;
        // Bootstrap in the calling thread, like the event loop: results
        // are identical for any count, and a second thread only adds
        // allocator-arena noise to the peak resident set.
        config.threads = 1;
        let replay = ReplayConfig {
            link_mb_per_s: config.link_mb_per_s,
            max_in_flight: REPLAY_IN_FLIGHT,
            retry: config.retry,
            image_mb: config.image_mb,
        };
        // The population the server bootstraps, generated the same way, so
        // the run's recoveries can be checked against it from outside.
        let horizon = config.window * 2.0 + 7.0 * 86_400.0;
        let placements = (0..self.clients as u32)
            .map(|i| {
                EmulatedMachine::generate(&config.pool, i, config.history_len, horizon, config.seed)
                    .segments()
                    .iter()
                    .filter(|s| s.start < config.window)
                    .count() as u64
            })
            .sum();
        ManagerInput {
            plan: FaultPlan::uniform(FAULT_INTENSITY, seed ^ 0x5EED),
            config,
            replay,
            placements,
        }
    }

    fn input_digest(&self, input: &ManagerInput) -> u64 {
        let c = &input.config;
        [
            c.seed,
            c.clients as u64,
            c.window.to_bits(),
            c.link_mb_per_s.to_bits(),
            input.plan.seed,
            input.placements,
        ]
        .into_iter()
        .fold(0, fold)
    }

    fn run(&self, input: &ManagerInput, tracer: &mut Tracer) -> ManagerOutput {
        let mut events = Events::default();
        let traced = tracer.enabled();
        let phase = tracer.enter("manager.run");
        let outcome = if traced {
            run_manager_observed(&input.config, &input.plan, &mut events)
        } else {
            run_manager(&input.config, &input.plan)
        };
        tracer.exit(phase);
        let mut outcome = outcome.expect("manager run");
        let enqueued = outcome.dlq.enqueued;
        let owed_mb = outcome.dlq.total_remaining_mb();
        let phase = tracer.enter("manager.replay");
        let replay = if traced {
            replay_dead_letters_observed(
                &mut outcome.dlq,
                &input.replay,
                &FaultPlan::none(),
                &mut events,
            )
        } else {
            replay_dead_letters(&mut outcome.dlq, &input.replay, &FaultPlan::none())
        };
        tracer.exit(phase);
        tracer.count("observer.checkpoint_deferred", events.deferred);
        tracer.count("observer.dead_letter_enqueued", events.enqueued);
        tracer.count("observer.dead_letter_replayed", events.replayed);
        ManagerOutput {
            outcome,
            replay: replay.expect("dead-letter replay"),
            owed_mb,
            enqueued,
        }
    }

    fn summarize(&self, out: &ManagerOutput) -> Iteration {
        let result = &out.outcome.result;
        let report = &out.outcome.report;
        let mut it = Iteration::default();
        ledger_values(&result.cycle, &mut it.values);
        let committed = result.checkpoints_committed;
        let deferred = report.deferred_checkpoints;
        let v = &mut it.values;
        v.insert("manager.transfers_started", result.transfers_started as f64);
        v.insert("manager.link_util", result.link_utilization);
        v.insert("manager.mean_transfer_s", result.mean_transfer_seconds);
        v.insert("manager.lane.recovery.busy_s", result.recovery_busy_seconds);
        v.insert(
            "manager.lane.checkpoint.busy_s",
            result.checkpoint_busy_seconds,
        );
        v.insert("manager.lane.prefetch.busy_s", result.prefetch_busy_seconds);
        v.insert("manager.deferred", deferred as f64);
        v.insert(
            "manager.defer_rate",
            deferred as f64 / (committed + deferred).max(1) as f64,
        );
        v.insert("manager.dlq.enqueued", out.enqueued as f64);
        v.insert("manager.replay.replayed", out.replay.replayed as f64);
        v.insert("manager.replay.abandoned", out.replay.abandoned as f64);
        v.insert("net.faults_injected", report.faults.total_faults() as f64);
        v.insert("net.retries", report.faults.retries as f64);
        let r = &out.replay;
        it.digest = [
            r.popped,
            r.replayed,
            r.abandoned,
            r.replayed_mb.to_bits(),
            r.wire_mb.to_bits(),
            r.elapsed_seconds.to_bits(),
        ]
        .into_iter()
        .fold(result.digest, fold);
        it.attempted = result.transfers_started;
        it.failed = out.replay.abandoned;
        it
    }

    fn check(&self, input: &ManagerInput, out: &ManagerOutput) -> Checked {
        let mut checked = Checked::default();
        let f = &mut checked.failures;
        let (result, report, r) = (&out.outcome.result, &out.outcome.report, &out.replay);
        let cycle = &result.cycle;
        check_ledger("manager", cycle, f);
        if cycle.faults_injected != report.faults.total_faults() {
            f.push(format!(
                "ledger faults {} != report faults {}",
                cycle.faults_injected,
                report.faults.total_faults()
            ));
        }
        if cycle.checkpoints_abandoned
            != report.faults.checkpoints_abandoned + report.deferred_checkpoints
        {
            f.push(format!(
                "ledger abandoned {} != dead-lettered {} + deferred {}",
                cycle.checkpoints_abandoned,
                report.faults.checkpoints_abandoned,
                report.deferred_checkpoints
            ));
        }
        if out.enqueued != report.faults.checkpoints_abandoned {
            f.push(format!(
                "DLQ inflow {} != report abandonments {}",
                out.enqueued, report.faults.checkpoints_abandoned
            ));
        }
        let dlq = &out.outcome.dlq;
        if dlq.reconciliation_residual() != 0 || !dlq.is_empty() {
            f.push(format!(
                "DLQ reconciliation residual {}, depth {} after replay",
                dlq.reconciliation_residual(),
                dlq.len()
            ));
        }
        if r.popped != out.enqueued || r.replayed + r.abandoned != out.enqueued {
            f.push(format!(
                "replay popped {} replayed {} abandoned {} of {} enqueued",
                r.popped, r.replayed, r.abandoned, out.enqueued
            ));
        }
        let wire = r.conservation_residual().abs();
        let owed = (r.replayed_mb + r.abandoned_mb - out.owed_mb).abs();
        if !(wire <= 1e-5 * r.wire_mb.max(1.0) && owed <= 1e-6 * out.owed_mb.max(1.0)) {
            f.push(format!(
                "replay bytes: wire residual {wire}, owed residual {owed}"
            ));
        }
        if cycle.recoveries != input.placements {
            f.push(format!(
                "{} recoveries for {} placements in the window",
                cycle.recoveries, input.placements
            ));
        }
        checked
    }
}

/// Counts the manager-level policy events the server and replay report.
#[derive(Default)]
struct Events {
    deferred: u64,
    enqueued: u64,
    replayed: u64,
}

impl CycleObserver for Events {
    fn on_checkpoint_deferred(&mut self, _at: f64, _forecast: f64, _lost_work: f64) {
        self.deferred += 1;
    }

    fn on_dead_letter_enqueued(&mut self, _at: f64, _attempts: u32, _remaining_mb: f64) {
        self.enqueued += 1;
    }

    fn on_dead_letter_replayed(&mut self, _at: f64, _replayed_mb: f64) {
        self.replayed += 1;
    }
}
