//! Manager-server benchmark and correctness gate: a saturation sweep of
//! offered load (client count ×¼ → ×4 around the base) through the
//! concurrent checkpoint manager, with and without admission control,
//! plus the crash → DLQ → replay chain, and a client-scaling section that
//! times the event loop from 64 to 1,024 clients under the
//! `manager-overload` benchmark settings. Writes the goodput / defer-rate
//! / DLQ-depth curves and the events/s figures to `BENCH_manager.json`.
//!
//! Every timed point re-runs until at least 100 ms have passed and
//! reports its best wall time, the event-loop iterations of one run and
//! their rate; each repetition must reproduce the first one's digest.
//!
//! ```text
//! cargo run -p chs-bench --release [--features bench-counters] --bin manager_bench \
//!     [--quick | --full] [--json PATH]
//! ```
//!
//! With the `bench-counters` feature every timed point also records the
//! Γ evaluations of one run; without it those fields are zero and
//! `counters_enabled` is false.
//!
//! The run is also a correctness gate and exits nonzero when any of
//! these is violated:
//!
//! * **thread determinism** — the 1-thread and N-thread bootstrap must
//!   produce identical outcomes (digest and full `PartialEq`);
//! * **conservation** — at every sweep point the aggregated ledger must
//!   balance time and bytes, the fault report must agree with the
//!   ledger, and the ledger's abandonments must split exactly into
//!   retry-exhausted (dead-lettered) and admission-deferred;
//! * **replay conservation** — every enqueued letter is replayed or
//!   explicitly abandoned (queue reconciliation residual 0), replay
//!   bytes balance (`wire = replayed + wasted`), a zero-fault replay
//!   plan drains the queue to depth 0, and a dedicated stress profile
//!   proves the chain on a deep queue (not just whatever the sweep
//!   happened to enqueue);
//! * **admission robustness** — past the load point where the
//!   no-admission baseline collapses (goodput < 75% of its own peak),
//!   the admission-controlled manager must hold ≥ 90% of the
//!   *baseline's* goodput at the same offered load, with its deferral
//!   machinery demonstrably engaged at the deepest point. Deferral may
//!   never deepen a collapse it exists to soften. (The gate is
//!   pointwise against the baseline, not against the peak: past
//!   saturation the wire also carries the recovery traffic of every
//!   evicted client, a load no checkpoint-side policy can refuse, so
//!   absolute goodput necessarily falls with offered load.)
//! * **closed-form planning** (with `bench-counters`) — every client
//!   plans on an exponential fit, whose `T_opt` is a closed form, so no
//!   timed run may evaluate Γ at all.

use chs_bench::CommonArgs;
use chs_dist::ModelKind;
use chs_manager::{replay_dead_letters, run_manager, ManagerConfig, ManagerOutcome, ReplayConfig};
use chs_net::{AdmissionConfig, FaultPlan};
use serde::Serialize;
use std::time::{Duration, Instant};

/// Offered-load multipliers around the base client count.
const LOAD_FACTORS: [f64; 5] = [0.25, 0.5, 1.0, 2.0, 4.0];
/// Baseline collapse threshold: goodput below this fraction of the
/// baseline's peak marks the saturation knee.
const COLLAPSE_FRACTION: f64 = 0.75;
/// Past the knee, admission must retain at least this fraction of the
/// no-admission baseline's goodput at the same offered load.
const RETAIN_FRACTION: f64 = 0.9;
/// A timed point repeats its run until this much time has passed.
const MIN_TIMED: Duration = Duration::from_millis(100);
/// Client counts of the scaling section (`--quick` stops at 256).
const SCALING_CLIENTS: [usize; 5] = [64, 128, 256, 512, 1_024];
/// The scaling section's link, as a multiple of the campus link, fault
/// intensity and prefetch probability: the `manager-overload` settings.
const SCALING_LINK_SCALE: f64 = 32.0;
const SCALING_FAULTS: f64 = 0.2;
const SCALING_PREFETCH: f64 = 0.3;

#[derive(Serialize)]
struct SweepPoint {
    factor: f64,
    clients: usize,
    goodput_mb: f64,
    efficiency: f64,
    link_utilization: f64,
    checkpoints_committed: u64,
    deferred_checkpoints: u64,
    defer_rate: f64,
    dlq_depth: usize,
    wasted_megabytes: f64,
    /// Event-loop iterations of one run.
    events: u64,
    /// Γ(T) evaluations of one run (0 without `bench-counters`).
    gamma_evals: u64,
    /// Best wall time of one run, seconds.
    wall_s: f64,
    events_per_s: f64,
}

/// One client count of the scaling section.
#[derive(Serialize)]
struct ScalingPoint {
    clients: usize,
    events: u64,
    gamma_evals: u64,
    wall_s: f64,
    events_per_s: f64,
    ns_per_event: f64,
}

#[derive(Serialize)]
struct ReplayPoint {
    factor: f64,
    enqueued: u64,
    replayed: u64,
    abandoned: u64,
    replayed_mb: f64,
    wasted_mb: f64,
    elapsed_seconds: f64,
}

/// The dedicated deep-queue replay exercise (harsh weather, tight
/// retry budget), independent of whatever the sweep enqueued.
#[derive(Serialize)]
struct StressReplay {
    enqueued: u64,
    replayed: u64,
    abandoned: u64,
    replayed_mb: f64,
    abandoned_mb: f64,
    wasted_mb: f64,
    elapsed_seconds: f64,
}

#[derive(Serialize)]
struct ManagerBenchReport {
    base_clients: usize,
    window_seconds: f64,
    image_mb: f64,
    factors: Vec<f64>,
    admission: Vec<SweepPoint>,
    baseline: Vec<SweepPoint>,
    replay: Vec<ReplayPoint>,
    replay_stress: StressReplay,
    collapse_factor: Option<f64>,
    scaling_window_seconds: f64,
    scaling: Vec<ScalingPoint>,
    counters_enabled: bool,
    gates_passed: bool,
    gate_failures: Vec<String>,
}

fn check_outcome(label: &str, outcome: &ManagerOutcome, failures: &mut Vec<String>) {
    let total = &outcome.result.cycle;
    let report = &outcome.report;
    let time = total.conservation_residual().abs();
    if time >= 1e-6 * total.total_seconds.max(1.0) {
        failures.push(format!("{label}: time conservation residual {time}"));
    }
    let bytes = total.byte_conservation_residual().abs();
    if bytes >= 1e-6 * total.megabytes.max(1.0) {
        failures.push(format!("{label}: byte conservation residual {bytes}"));
    }
    if total.faults_injected != report.faults.total_faults() {
        failures.push(format!(
            "{label}: ledger faults {} != report faults {}",
            total.faults_injected,
            report.faults.total_faults()
        ));
    }
    if total.transfer_retries != report.faults.retries + report.faults.checkpoints_abandoned {
        failures.push(format!(
            "{label}: ledger retries {} != report retries {} + abandoned {}",
            total.transfer_retries, report.faults.retries, report.faults.checkpoints_abandoned
        ));
    }
    if total.checkpoints_abandoned
        != report.faults.checkpoints_abandoned + report.deferred_checkpoints
    {
        failures.push(format!(
            "{label}: ledger abandoned {} != dead-lettered {} + deferred {}",
            total.checkpoints_abandoned,
            report.faults.checkpoints_abandoned,
            report.deferred_checkpoints
        ));
    }
    if outcome.dlq.enqueued != report.faults.checkpoints_abandoned {
        failures.push(format!(
            "{label}: DLQ inflow {} != report abandonments {} (silent drop)",
            outcome.dlq.enqueued, report.faults.checkpoints_abandoned
        ));
    }
}

#[cfg(feature = "bench-counters")]
fn counters_reset() {
    chs_markov::counters::reset();
}

#[cfg(not(feature = "bench-counters"))]
fn counters_reset() {}

/// Γ(T) evaluations since the last [`counters_reset`].
#[cfg(feature = "bench-counters")]
fn gamma_evals() -> u64 {
    chs_markov::counters::snapshot().0
}

#[cfg(not(feature = "bench-counters"))]
fn gamma_evals() -> u64 {
    0
}

/// Run `config` until [`MIN_TIMED`] has passed. Returns the first
/// outcome, the best wall time and the first run's Γ evaluations; a
/// repetition whose digest differs from the first is a gate failure.
fn timed_runs(
    config: &ManagerConfig,
    plan: &FaultPlan,
    label: &str,
    failures: &mut Vec<String>,
) -> (ManagerOutcome, f64, u64) {
    let start = Instant::now();
    let mut best = f64::INFINITY;
    let mut first: Option<ManagerOutcome> = None;
    let mut evals = 0;
    counters_reset();
    loop {
        let t0 = Instant::now();
        let outcome = run_manager(config, plan).expect("manager run");
        best = best.min(t0.elapsed().as_secs_f64());
        match &first {
            None => {
                evals = gamma_evals();
                first = Some(outcome);
            }
            Some(f) if f.result.digest != outcome.result.digest => {
                failures.push(format!(
                    "{label}: repeated run digest {:#x} != first {:#x}",
                    outcome.result.digest, f.result.digest
                ));
                break;
            }
            Some(_) => {}
        }
        if start.elapsed() >= MIN_TIMED {
            break;
        }
    }
    // Every client plans on an exponential fit, whose `T_opt` is a
    // closed form: a run that evaluated Γ took a search somewhere.
    if evals != 0 {
        failures.push(format!(
            "{label}: {evals} Γ evaluations on exponential fits (closed form expected)"
        ));
    }
    (first.expect("at least one run"), best, evals)
}

fn sweep_point(
    factor: f64,
    config: &ManagerConfig,
    plan: &FaultPlan,
    failures: &mut Vec<String>,
    label: &str,
) -> (SweepPoint, ManagerOutcome) {
    let label = format!("{label}@x{factor}");
    let (outcome, wall_s, gamma_evals) = timed_runs(config, plan, &label, failures);
    check_outcome(&label, &outcome, failures);
    let committed = outcome.result.checkpoints_committed;
    let deferred = outcome.report.deferred_checkpoints;
    let point = SweepPoint {
        factor,
        clients: config.clients,
        goodput_mb: outcome.result.goodput_mb(config.image_mb),
        efficiency: outcome.result.efficiency(),
        link_utilization: outcome.result.link_utilization,
        checkpoints_committed: committed,
        deferred_checkpoints: deferred,
        defer_rate: if committed + deferred > 0 {
            deferred as f64 / (committed + deferred) as f64
        } else {
            0.0
        },
        dlq_depth: outcome.dlq.len(),
        wasted_megabytes: outcome.result.cycle.wasted_megabytes,
        events: outcome.result.events,
        gamma_evals,
        wall_s,
        events_per_s: outcome.result.events as f64 / wall_s,
    };
    (point, outcome)
}

fn main() {
    let mut args = CommonArgs::parse();
    let json_path = args
        .json
        .take()
        .unwrap_or_else(|| "BENCH_manager.json".into());
    let quick = args.machines <= 24;

    let base_clients: usize = if quick { 8 } else { 16 };
    let window = if quick { 0.5 * 86_400.0 } else { 86_400.0 };
    // Big images on the campus link: offered checkpoint load crosses
    // the wire capacity inside the ×¼ → ×4 sweep, so the baseline
    // genuinely collapses past saturation instead of flattening out.
    let image_mb = 2_000.0;
    let mut failures: Vec<String> = Vec::new();

    // ---- Gate: bootstrap thread determinism -------------------------
    eprintln!("verifying 1-thread == N-thread determinism ...");
    let det_plan = FaultPlan::uniform(0.15, args.seed ^ 0xDE7);
    let mut det_config = ManagerConfig::campus(base_clients, ModelKind::Exponential);
    det_config.window = window;
    det_config.seed = args.seed;
    det_config.prefetch_probability = 0.3;
    det_config.threads = 1;
    let one = run_manager(&det_config, &det_plan).expect("1-thread run");
    det_config.threads = 4;
    let four = run_manager(&det_config, &det_plan).expect("4-thread run");
    if one.result.digest != four.result.digest {
        failures.push(format!(
            "thread determinism: digest {:#x} (1 thread) != {:#x} (4 threads)",
            one.result.digest, four.result.digest
        ));
    }
    if one != four {
        failures.push("thread determinism: outcomes differ beyond the digest".into());
    }

    // ---- Sweep: offered load × admission on/off ---------------------
    let sweep_plan = FaultPlan::uniform(0.2, args.seed ^ 0x5EED);
    let mut admission_points = Vec::new();
    let mut baseline_points = Vec::new();
    let mut replay_points = Vec::new();
    for &factor in &LOAD_FACTORS {
        let clients = ((base_clients as f64 * factor).round() as usize).max(1);
        let mut config = ManagerConfig::campus(clients, ModelKind::Exponential);
        config.window = window;
        config.seed = args.seed;
        config.image_mb = image_mb;
        // One retry, then the transfer dead-letters: keeps letters
        // flowing at sweep intensity without drowning the run.
        config.retry.max_retries = 1;
        // Longer forecast horizon for the big-image regime — a single
        // admitted image is itself a sizable slice of the horizon.
        config.admission.horizon_images = 8.0;

        let (point, outcome) =
            sweep_point(factor, &config, &sweep_plan, &mut failures, "admission");
        admission_points.push(point);

        let mut baseline = config.clone();
        baseline.admission = AdmissionConfig::disabled();
        let (point, _) = sweep_point(factor, &baseline, &sweep_plan, &mut failures, "baseline");
        baseline_points.push(point);

        // ---- Gate: crash → DLQ → replay conservation ----------------
        let mut dlq = outcome.dlq;
        let drain_dlq = dlq.clone();
        let enqueued = dlq.enqueued;
        let replay_config = ReplayConfig {
            link_mb_per_s: config.link_mb_per_s,
            max_in_flight: 4,
            retry: config.retry,
            image_mb: config.image_mb,
        };
        let replay_plan = FaultPlan::uniform(0.08, args.seed ^ 0x0D1);
        let report = replay_dead_letters(&mut dlq, &replay_config, &replay_plan)
            .expect("faulted replay pass");
        if report.popped != enqueued || report.replayed + report.abandoned != enqueued {
            failures.push(format!(
                "replay@x{factor}: popped {} replayed {} abandoned {} of {} enqueued",
                report.popped, report.replayed, report.abandoned, enqueued
            ));
        }
        if dlq.reconciliation_residual() != 0 {
            failures.push(format!(
                "replay@x{factor}: queue reconciliation residual {}",
                dlq.reconciliation_residual()
            ));
        }
        let byte_residual = report.conservation_residual().abs();
        if byte_residual >= 1e-5 * report.wire_mb.max(1.0) {
            failures.push(format!(
                "replay@x{factor}: byte conservation residual {byte_residual}"
            ));
        }
        replay_points.push(ReplayPoint {
            factor,
            enqueued,
            replayed: report.replayed,
            abandoned: report.abandoned,
            replayed_mb: report.replayed_mb,
            wasted_mb: report.wasted_mb,
            elapsed_seconds: report.elapsed_seconds,
        });

        // A zero-fault replay plan must always drain the queue.
        let mut dlq = drain_dlq;
        let drained = replay_dead_letters(&mut dlq, &replay_config, &FaultPlan::none())
            .expect("zero-fault replay pass");
        if drained.final_depth != 0 || drained.abandoned != 0 || !dlq.is_empty() {
            failures.push(format!(
                "drain@x{factor}: zero-fault replay left depth {} ({} abandoned)",
                drained.final_depth, drained.abandoned
            ));
        }
        eprintln!(
            "x{factor}: {clients} clients, goodput {:.0} MB (admission) vs {:.0} MB (baseline)",
            admission_points.last().unwrap().goodput_mb,
            baseline_points.last().unwrap().goodput_mb
        );
    }

    // ---- Gate: deep-queue replay stress -----------------------------
    // The sweep's DLQ depths depend on how the weather happens to land;
    // this profile (harsh mixed faults, tight budget, long window)
    // guarantees a deep queue so the crash → DLQ → replay chain is
    // always exercised for real.
    eprintln!("replay stress: building a deep dead-letter queue ...");
    let mut stress_config = ManagerConfig::campus(10, ModelKind::Exponential);
    stress_config.window = 2.0 * 86_400.0;
    stress_config.seed = args.seed ^ 0x404;
    stress_config.retry.max_retries = 2;
    let stress_plan = FaultPlan {
        seed: args.seed ^ 0x8080,
        p_stall: 0.12,
        p_drop: 0.12,
        p_corrupt: 0.08,
        p_unavailable: 0.06,
        p_fit_failure: 0.2,
        ..FaultPlan::none()
    };
    let stress = run_manager(&stress_config, &stress_plan).expect("replay stress run");
    check_outcome("stress", &stress, &mut failures);
    let mut dlq = stress.dlq;
    let drain_dlq = dlq.clone();
    let enqueued = dlq.enqueued;
    if enqueued == 0 {
        failures.push("replay stress produced no dead letters".into());
    }
    let owed: f64 = dlq.iter().map(|l| l.remaining_mb()).sum();
    let replay_config = ReplayConfig {
        link_mb_per_s: stress_config.link_mb_per_s,
        max_in_flight: 3,
        retry: stress_config.retry,
        image_mb: stress_config.image_mb,
    };
    let stress_report = replay_dead_letters(
        &mut dlq,
        &replay_config,
        &FaultPlan::uniform(0.15, args.seed ^ 0x0D2),
    )
    .expect("stress replay pass");
    if stress_report.popped != enqueued
        || stress_report.replayed + stress_report.abandoned != enqueued
        || dlq.reconciliation_residual() != 0
    {
        failures.push(format!(
            "stress replay: popped {} replayed {} abandoned {} of {} enqueued (residual {})",
            stress_report.popped,
            stress_report.replayed,
            stress_report.abandoned,
            enqueued,
            dlq.reconciliation_residual()
        ));
    }
    let owed_residual = (stress_report.replayed_mb + stress_report.abandoned_mb - owed).abs();
    if owed_residual >= 1e-6 * owed.max(1.0) {
        failures.push(format!(
            "stress replay: owed {owed} MB != replayed {} + abandoned {} MB",
            stress_report.replayed_mb, stress_report.abandoned_mb
        ));
    }
    let byte_residual = stress_report.conservation_residual().abs();
    if byte_residual >= 1e-5 * stress_report.wire_mb.max(1.0) {
        failures.push(format!(
            "stress replay: byte conservation residual {byte_residual}"
        ));
    }
    let mut dlq = drain_dlq;
    let drained = replay_dead_letters(&mut dlq, &replay_config, &FaultPlan::none())
        .expect("stress zero-fault replay pass");
    if drained.final_depth != 0 || drained.abandoned != 0 || !dlq.is_empty() {
        failures.push(format!(
            "stress drain: zero-fault replay left depth {} ({} abandoned)",
            drained.final_depth, drained.abandoned
        ));
    }
    let replay_stress = StressReplay {
        enqueued,
        replayed: stress_report.replayed,
        abandoned: stress_report.abandoned,
        replayed_mb: stress_report.replayed_mb,
        abandoned_mb: stress_report.abandoned_mb,
        wasted_mb: stress_report.wasted_mb,
        elapsed_seconds: stress_report.elapsed_seconds,
    };

    // ---- Gate: admission holds goodput past the baseline collapse ---
    let baseline_peak = baseline_points
        .iter()
        .map(|p| p.goodput_mb)
        .fold(0.0, f64::max);
    // The knee is a *collapse*, so look only past the peak — the
    // ascending side of the curve is ramp-up, not degradation.
    let peak_index = baseline_points
        .iter()
        .position(|p| p.goodput_mb == baseline_peak)
        .unwrap_or(0);
    let collapse = baseline_points
        .iter()
        .enumerate()
        .skip(peak_index + 1)
        .find(|(_, p)| p.goodput_mb < COLLAPSE_FRACTION * baseline_peak)
        .map(|(i, _)| i);
    if let Some(knee) = collapse {
        for (a, b) in admission_points[knee..]
            .iter()
            .zip(&baseline_points[knee..])
        {
            if a.goodput_mb < RETAIN_FRACTION * b.goodput_mb {
                failures.push(format!(
                    "admission@x{}: goodput {:.0} MB fell below {:.0}% of the baseline's \
                     {:.0} MB past the collapse at x{}",
                    a.factor,
                    a.goodput_mb,
                    RETAIN_FRACTION * 100.0,
                    b.goodput_mb,
                    LOAD_FACTORS[knee]
                ));
            }
        }
        let deepest = admission_points.last().expect("non-empty sweep");
        if deepest.deferred_checkpoints == 0 {
            failures.push(format!(
                "admission@x{}: baseline collapsed but admission never deferred a \
                 checkpoint — the watermark is not engaging",
                deepest.factor
            ));
        }
    }

    // ---- Client scaling: event-loop cost per event ------------------
    let scaling_window = if quick { 0.25 * 86_400.0 } else { 86_400.0 };
    let scaling_clients = if quick {
        &SCALING_CLIENTS[..3]
    } else {
        &SCALING_CLIENTS[..]
    };
    let scaling_plan = FaultPlan::uniform(SCALING_FAULTS, args.seed ^ 0x5EED);
    let mut scaling = Vec::new();
    for &clients in scaling_clients {
        let mut config = ManagerConfig::campus(clients, ModelKind::Exponential);
        config.window = scaling_window;
        config.seed = args.seed;
        config.link_mb_per_s *= SCALING_LINK_SCALE;
        config.retry.max_retries = 1;
        config.prefetch_probability = SCALING_PREFETCH;
        let label = format!("scaling@{clients}");
        let (outcome, wall_s, gamma_evals) =
            timed_runs(&config, &scaling_plan, &label, &mut failures);
        check_outcome(&label, &outcome, &mut failures);
        let events = outcome.result.events;
        scaling.push(ScalingPoint {
            clients,
            events,
            gamma_evals,
            wall_s,
            events_per_s: events as f64 / wall_s,
            ns_per_event: wall_s * 1e9 / events as f64,
        });
        eprintln!("scaling: {clients} clients, {events} events in {wall_s:.3} s");
    }

    // ---- Report -----------------------------------------------------
    println!("\nsaturation sweep (admission vs no-admission baseline):");
    println!(
        "{:>7}{:>9}{:>14}{:>14}{:>12}{:>11}{:>10}{:>12}",
        "load",
        "clients",
        "goodput MB",
        "baseline MB",
        "defer rate",
        "DLQ depth",
        "util",
        "events/s"
    );
    for (a, b) in admission_points.iter().zip(&baseline_points) {
        println!(
            "{:>7.2}{:>9}{:>14.0}{:>14.0}{:>12.3}{:>11}{:>10.3}{:>12.0}",
            a.factor,
            a.clients,
            a.goodput_mb,
            b.goodput_mb,
            a.defer_rate,
            a.dlq_depth,
            a.link_utilization,
            a.events_per_s
        );
    }
    println!("\ncrash → DLQ → replay:");
    for r in &replay_points {
        println!(
            "  x{:<5} enqueued {:>4}  replayed {:>4}  abandoned {:>3}  {:>9.0} MB delivered",
            r.factor, r.enqueued, r.replayed, r.abandoned, r.replayed_mb
        );
    }
    println!(
        "  stress enqueued {:>4}  replayed {:>4}  abandoned {:>3}  {:>9.0} MB delivered",
        replay_stress.enqueued,
        replay_stress.replayed,
        replay_stress.abandoned,
        replay_stress.replayed_mb
    );
    println!("\nclient scaling (events/s of the event loop, best of ≥ 100 ms):");
    println!(
        "{:>9}{:>11}{:>10}{:>13}{:>10}",
        "clients", "events", "wall s", "events/s", "ns/event"
    );
    for p in &scaling {
        println!(
            "{:>9}{:>11}{:>10.4}{:>13.0}{:>10.0}",
            p.clients, p.events, p.wall_s, p.events_per_s, p.ns_per_event
        );
    }
    match collapse {
        Some(knee) => {
            let a = admission_points.last().expect("non-empty sweep");
            let b = baseline_points.last().expect("non-empty sweep");
            eprintln!(
                "baseline collapses at x{} (peak {:.0} MB); at x{} admission holds \
                 {:.0} MB vs baseline {:.0} MB",
                LOAD_FACTORS[knee], baseline_peak, a.factor, a.goodput_mb, b.goodput_mb
            );
        }
        None => eprintln!("baseline never collapsed below {COLLAPSE_FRACTION} of its peak"),
    }

    let gates_passed = failures.is_empty();
    let report = ManagerBenchReport {
        base_clients,
        window_seconds: window,
        image_mb,
        factors: LOAD_FACTORS.to_vec(),
        admission: admission_points,
        baseline: baseline_points,
        replay: replay_points,
        replay_stress,
        collapse_factor: collapse.map(|k| LOAD_FACTORS[k]),
        scaling_window_seconds: scaling_window,
        scaling,
        counters_enabled: cfg!(feature = "bench-counters"),
        gates_passed,
        gate_failures: failures.clone(),
    };
    match serde_json::to_string_pretty(&report) {
        Ok(json) => {
            if let Err(e) = std::fs::write(&json_path, json) {
                eprintln!("could not write {json_path}: {e}");
            } else {
                eprintln!("raw results written to {json_path}");
            }
        }
        Err(e) => eprintln!("could not serialize results: {e}"),
    }

    if !gates_passed {
        eprintln!("\nMANAGER BENCH GATES FAILED:");
        for f in &failures {
            eprintln!("  - {f}");
        }
        std::process::exit(1);
    }
    eprintln!("\nall manager-bench gates passed");
}
