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
//! The report uses the common envelope. The run is also a correctness
//! gate and exits 1 when any of these gates fails (`{point}` is e.g.
//! `admission@x2`, `baseline@x0.5` or `scaling@256`):
//!
//! * `thread_determinism.digest`, `thread_determinism.outcome` — the
//!   1-thread and N-thread bootstrap must produce identical outcomes
//!   (digest and full `PartialEq`);
//! * `{point}.repeat_digest` — every repetition of a timed run must
//!   reproduce the first one's digest;
//! * `{point}.conservation`, `{point}.dlq_inflow` (and the same for
//!   `stress`) — the aggregated ledger must balance time and bytes, the
//!   fault report must agree with the ledger, the ledger's abandonments
//!   must split exactly into retry-exhausted and admission-deferred, and
//!   every retry-exhausted checkpoint must be in the dead-letter queue;
//! * `replay@x{f}.*`, `stress.dead_letters`, `stress_replay.*` — every
//!   enqueued letter is replayed or explicitly abandoned (queue
//!   reconciliation residual 0), the owed bytes split exactly into
//!   replayed and abandoned, replay bytes balance (`wire = replayed +
//!   wasted`), a zero-fault replay plan drains the queue to depth 0
//!   (`.drain`), and a dedicated stress profile proves the chain on a
//!   deep queue (not just whatever the sweep happened to enqueue);
//! * `admission@x{f}.retains_goodput`, `admission.defers_at_deepest` —
//!   past the load point where the no-admission baseline collapses
//!   (goodput < 75% of its own peak), the admission-controlled manager
//!   must hold ≥ 90% of the *baseline's* goodput at the same offered
//!   load, with its deferral machinery demonstrably engaged at the
//!   deepest point. Deferral may never deepen a collapse it exists to
//!   soften. (The gate is pointwise against the baseline, not against
//!   the peak: past saturation the wire also carries the recovery
//!   traffic of every evicted client, a load no checkpoint-side policy
//!   can refuse, so absolute goodput necessarily falls with offered
//!   load. No admission gate is recorded when the baseline never
//!   collapses.)
//! * `{point}.closed_form` (with `bench-counters`) — every client plans
//!   on an exponential fit, whose `T_opt` is a closed form, so no timed
//!   run may evaluate Γ at all.

use chs_bench::harness::{finish, Gates};
use chs_bench::{conservation_gate, CommonArgs};
use chs_benchmark::counters;
use chs_dist::ModelKind;
use chs_manager::{
    replay_dead_letters, run_manager, ManagerConfig, ManagerOutcome, ReplayConfig, ReplayReport,
};
use chs_net::{AdmissionConfig, DeadLetterQueue, FaultPlan};
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
}

/// The `{label}.conservation` gate over one outcome's ledger (deferred
/// checkpoints count as abandonments), and `{label}.dlq_inflow`: every
/// retry-exhausted checkpoint the report counts is in the dead-letter
/// queue.
fn check_outcome(label: &str, outcome: &ManagerOutcome, gates: &mut Gates) {
    let faults = &outcome.report.faults;
    let deferred = outcome.report.deferred_checkpoints;
    conservation_gate(gates, label, &outcome.result.cycle, faults, deferred);
    gates.check(
        format!("{label}.dlq_inflow"),
        outcome.dlq.enqueued == faults.checkpoints_abandoned,
        format!(
            "DLQ inflow {} vs {} reported abandonments",
            outcome.dlq.enqueued, faults.checkpoints_abandoned
        ),
    );
}

/// Run `config` until [`MIN_TIMED`] has passed. Returns the first
/// outcome, the best wall time and the first run's Γ evaluations, and
/// records the `{label}.repeat_digest` gate (and, with counters,
/// `{label}.closed_form`).
fn timed_runs(
    config: &ManagerConfig,
    plan: &FaultPlan,
    label: &str,
    gates: &mut Gates,
) -> (ManagerOutcome, f64, u64) {
    let start = Instant::now();
    let mut best = f64::INFINITY;
    let mut first: Option<ManagerOutcome> = None;
    let mut evals = 0;
    let (mut runs, mut diverged) = (0usize, None);
    counters::reset();
    loop {
        let t0 = Instant::now();
        let outcome = run_manager(config, plan).expect("manager run");
        best = best.min(t0.elapsed().as_secs_f64());
        runs += 1;
        match &first {
            None => {
                evals = counters::read()[0];
                first = Some(outcome);
            }
            Some(f) if f.result.digest != outcome.result.digest => {
                diverged = Some(outcome.result.digest);
                break;
            }
            Some(_) => {}
        }
        if start.elapsed() >= MIN_TIMED {
            break;
        }
    }
    let first = first.expect("at least one run");
    gates.check(
        format!("{label}.repeat_digest"),
        diverged.is_none(),
        match diverged {
            None => format!("{runs} runs, digest {:#x}", first.result.digest),
            Some(d) => format!(
                "run {runs} digest {d:#x} != first {:#x}",
                first.result.digest
            ),
        },
    );
    // Every client plans on an exponential fit, whose `T_opt` is a
    // closed form: a run that evaluated Γ took a search somewhere.
    if counters::ENABLED {
        gates.check(
            format!("{label}.closed_form"),
            evals == 0,
            format!("{evals} Γ evaluations on exponential fits"),
        );
    }
    (first, best, evals)
}

/// Replay `dlq` under `plan`, and a copy of it under no faults, and
/// record the gates `{label}.accounting` (every letter popped, then
/// replayed or abandoned, and the queue reconciles), `{label}.owed` (the
/// owed bytes split exactly into replayed and abandoned),
/// `{label}.bytes` (wire bytes = replayed + wasted) and `{label}.drain`
/// (the zero-fault replay empties the queue).
fn replay_gates(
    label: &str,
    mut dlq: DeadLetterQueue,
    config: &ReplayConfig,
    plan: &FaultPlan,
    gates: &mut Gates,
) -> ReplayReport {
    let mut drain = dlq.clone();
    let enqueued = dlq.enqueued;
    let owed: f64 = dlq.iter().map(|l| l.remaining_mb()).sum();
    let report = replay_dead_letters(&mut dlq, config, plan).expect("faulted replay pass");
    gates.check(
        format!("{label}.accounting"),
        report.popped == enqueued
            && report.replayed + report.abandoned == enqueued
            && dlq.reconciliation_residual() == 0,
        format!(
            "popped {} replayed {} abandoned {} of {enqueued} enqueued (residual {})",
            report.popped,
            report.replayed,
            report.abandoned,
            dlq.reconciliation_residual()
        ),
    );
    let owed_residual = (report.replayed_mb + report.abandoned_mb - owed).abs();
    gates.check(
        format!("{label}.owed"),
        owed_residual < 1e-6 * owed.max(1.0),
        format!(
            "owed {owed:.1} MB vs replayed {:.1} + abandoned {:.1} MB",
            report.replayed_mb, report.abandoned_mb
        ),
    );
    let bytes = report.conservation_residual().abs();
    gates.check(
        format!("{label}.bytes"),
        bytes < 1e-5 * report.wire_mb.max(1.0),
        format!(
            "residual {bytes:.3e} of {:.0} MB on the wire",
            report.wire_mb
        ),
    );
    let drained =
        replay_dead_letters(&mut drain, config, &FaultPlan::none()).expect("zero-fault replay");
    gates.check(
        format!("{label}.drain"),
        drained.final_depth == 0 && drained.abandoned == 0 && drain.is_empty(),
        format!(
            "zero-fault replay left depth {} ({} abandoned)",
            drained.final_depth, drained.abandoned
        ),
    );
    report
}

fn sweep_point(
    factor: f64,
    config: &ManagerConfig,
    plan: &FaultPlan,
    gates: &mut Gates,
    label: &str,
) -> (SweepPoint, ManagerOutcome) {
    let label = format!("{label}@x{factor}");
    let (outcome, wall_s, gamma_evals) = timed_runs(config, plan, &label, gates);
    check_outcome(&label, &outcome, gates);
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
    let args = CommonArgs::parse();
    let json_path = args.report_path("BENCH_manager.json");
    let quick = args.quick;

    let base_clients: usize = if quick { 8 } else { 16 };
    let window = if quick { 0.5 * 86_400.0 } else { 86_400.0 };
    // Big images on the campus link: offered checkpoint load crosses
    // the wire capacity inside the ×¼ → ×4 sweep, so the baseline
    // genuinely collapses past saturation instead of flattening out.
    let image_mb = 2_000.0;
    let mut gates = Gates::new();

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
    gates.check(
        "thread_determinism.digest",
        one.result.digest == four.result.digest,
        format!(
            "digest {:#x} (1 thread) vs {:#x} (4 threads)",
            one.result.digest, four.result.digest
        ),
    );
    gates.check(
        "thread_determinism.outcome",
        one == four,
        "1-thread vs 4-thread outcome, full PartialEq",
    );

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

        let (point, outcome) = sweep_point(factor, &config, &sweep_plan, &mut gates, "admission");
        admission_points.push(point);

        let mut baseline = config.clone();
        baseline.admission = AdmissionConfig::disabled();
        let (point, _) = sweep_point(factor, &baseline, &sweep_plan, &mut gates, "baseline");
        baseline_points.push(point);

        // ---- Gate: crash → DLQ → replay conservation ----------------
        let replay_config = ReplayConfig {
            link_mb_per_s: config.link_mb_per_s,
            max_in_flight: 4,
            retry: config.retry,
            image_mb: config.image_mb,
        };
        let enqueued = outcome.dlq.enqueued;
        let replay_plan = FaultPlan::uniform(0.08, args.seed ^ 0x0D1);
        let label = format!("replay@x{factor}");
        let report = replay_gates(
            &label,
            outcome.dlq,
            &replay_config,
            &replay_plan,
            &mut gates,
        );
        replay_points.push(ReplayPoint {
            factor,
            enqueued,
            replayed: report.replayed,
            abandoned: report.abandoned,
            replayed_mb: report.replayed_mb,
            wasted_mb: report.wasted_mb,
            elapsed_seconds: report.elapsed_seconds,
        });
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
    check_outcome("stress", &stress, &mut gates);
    let enqueued = stress.dlq.enqueued;
    gates.check(
        "stress.dead_letters",
        enqueued > 0,
        format!("{enqueued} dead letters enqueued"),
    );
    let replay_config = ReplayConfig {
        link_mb_per_s: stress_config.link_mb_per_s,
        max_in_flight: 3,
        retry: stress_config.retry,
        image_mb: stress_config.image_mb,
    };
    let stress_plan = FaultPlan::uniform(0.15, args.seed ^ 0x0D2);
    let stress_report = replay_gates(
        "stress_replay",
        stress.dlq,
        &replay_config,
        &stress_plan,
        &mut gates,
    );
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
            gates.check(
                format!("admission@x{}.retains_goodput", a.factor),
                a.goodput_mb >= RETAIN_FRACTION * b.goodput_mb,
                format!(
                    "goodput {:.0} MB vs the baseline's {:.0} MB past the collapse at x{}, \
                     floor {:.0}%",
                    a.goodput_mb,
                    b.goodput_mb,
                    LOAD_FACTORS[knee],
                    RETAIN_FRACTION * 100.0
                ),
            );
        }
        let deepest = admission_points.last().expect("non-empty sweep");
        gates.check(
            "admission.defers_at_deepest",
            deepest.deferred_checkpoints > 0,
            format!(
                "{} checkpoints deferred at x{} after the baseline collapsed",
                deepest.deferred_checkpoints, deepest.factor
            ),
        );
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
        let (outcome, wall_s, gamma_evals) = timed_runs(&config, &scaling_plan, &label, &mut gates);
        check_outcome(&label, &outcome, &mut gates);
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
    if collapse.is_none() {
        eprintln!("baseline never collapsed below {COLLAPSE_FRACTION} of its peak");
    }

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
        counters_enabled: counters::ENABLED,
    };
    finish(&json_path, &report, &gates);
}
