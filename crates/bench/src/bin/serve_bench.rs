//! Benchmark + correctness gate for the online serving path: streaming
//! ingest of a synthetic fleet, one compressed policy-store publish,
//! then high-QPS `next_interval` serving.
//!
//! ```text
//! cargo run -p chs-bench --release --bin serve_bench [--quick] [--json PATH]
//! ```
//!
//! The scheduler parks the fleet's initial fits at ingest; the bench
//! resolves them (`Scheduler::flush`) before it times the publish and
//! reports their batch time as `refit_seconds`.
//!
//! Results are written to `BENCH_serve.json` (override with `--json`).
//! The run is also a correctness gate and exits nonzero when any of
//! four contracts is violated:
//!
//! * **publish throughput** — the build path must compress tables at a
//!   floor rate (tables/sec); the lane-batched warm `T_opt` search is
//!   what holds builds cheap, and a regression to scalar-probe cost
//!   trips this gate;
//! * **accuracy** — served (compressed, deduplicated) `T_opt` must stay
//!   within the 1e-3 relative-error budget of each sampled machine's
//!   own exact kernel optimum across a dense age grid including age 0;
//! * **throughput** — ≥ 1e5 `next_interval` queries/sec against the
//!   full fleet store (default 10⁴ machines), single-threaded;
//! * **determinism** — a 1-thread and a 4-thread scheduler replay of
//!   the same event tape must publish bitwise-identical store epochs
//!   and fold bitwise-identical query-answer digests.

use chs_dist::fit::StreamingFitConfig;
use chs_dist::{AvailabilityModel, ModelKind, Weibull};
use chs_markov::{
    CheckpointCosts, CompressionConfig, StoreStats, VaidyaModel, DEFAULT_MAX_REL_ERROR,
};
use chs_sched::{Event, RunSummary, Scheduler, SchedulerConfig};
use rand::SeedableRng;
use rayon::prelude::*;
use rayon::ThreadPoolBuilder;
use serde::Serialize;
use std::hint::black_box;
use std::time::Instant;

/// Training observations per machine: the paper's 25-duration prefix,
/// which is also the streaming layer's `min_fit_observations` — every
/// machine installs its initial fit on its last training observation.
const TRAIN_PER_MACHINE: usize = 25;

#[derive(Debug, Clone)]
struct ServeArgs {
    machines: usize,
    seed: u64,
    queries: usize,
    json: String,
    quick: bool,
}

impl ServeArgs {
    fn parse() -> Self {
        let mut out = ServeArgs {
            machines: 10_000,
            seed: 2_005,
            queries: 1_000_000,
            json: "BENCH_serve.json".into(),
            quick: false,
        };
        let mut args = std::env::args().skip(1);
        while let Some(arg) = args.next() {
            let mut num = |flag: &str| -> u64 {
                args.next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage(flag))
            };
            match arg.as_str() {
                "--machines" => out.machines = num("--machines") as usize,
                "--seed" => out.seed = num("--seed"),
                "--queries" => out.queries = num("--queries") as usize,
                "--quick" => {
                    out.quick = true;
                    out.machines = 500;
                    out.queries = 200_000;
                }
                "--json" => out.json = args.next().unwrap_or_else(|| usage("--json")),
                "--help" | "-h" => {
                    eprintln!(
                        "options: --machines N | --quick | --seed S | --queries N | --json PATH"
                    );
                    std::process::exit(0);
                }
                other => usage(other),
            }
        }
        out
    }
}

fn usage(flag: &str) -> ! {
    eprintln!("bad or missing argument near {flag}; see --help");
    std::process::exit(2);
}

fn scheduler_config() -> SchedulerConfig {
    let mut cfg = SchedulerConfig::new(
        StreamingFitConfig {
            kind: ModelKind::Weibull,
            ..StreamingFitConfig::default()
        },
        CompressionConfig::new(CheckpointCosts::symmetric(110.0)),
    );
    cfg.publish_every = 0; // the bench publishes explicitly
    cfg
}

/// Per-machine training stream. Half the fleet are clones of the other
/// half (stream seed reduced mod `machines/2`) — homogeneous racks
/// whose identical histories fit to identical parameters — so the
/// dedup layer has something real to merge.
fn training_durations(machine: u64, machines: usize, seed: u64) -> Vec<f64> {
    let unique = (machines / 2).max(1) as u64;
    let stream = machine % unique;
    let mut param_rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed ^ (stream.wrapping_mul(2) + 1));
    // Heterogeneous fleet: heavy-tailed shapes, scales over ~1.5 decades.
    let shape = 0.45 + 0.45 * uniform(&mut param_rng);
    let scale = 600.0 * 30f64.powf(uniform(&mut param_rng));
    let truth = Weibull::new(shape, scale).expect("valid synthetic params");
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed ^ (stream << 20) ^ 0xa5a5);
    (0..TRAIN_PER_MACHINE)
        .map(|_| truth.sample(&mut rng))
        .collect()
}

fn uniform(rng: &mut rand_chacha::ChaCha8Rng) -> f64 {
    use rand::RngCore;
    (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64
}

#[derive(Debug, Serialize)]
struct FleetReport {
    machines: usize,
    unique_streams: usize,
    observations_per_machine: usize,
    ingest_seconds: f64,
    /// The parked initial fits, resolved in one parallel batch
    /// (`Scheduler::flush`) before the publish timer starts.
    refit_seconds: f64,
    refits: u64,
    publish_seconds: f64,
    publish_seconds_per_table: f64,
    tables_per_sec: f64,
    tables_per_sec_floor: f64,
    publish_pass: bool,
    store: StoreStats,
    segments_per_machine: f64,
    cache_hits: u64,
    cache_builds: u64,
    cache_shared: u64,
    cluster_rejects: u64,
}

#[derive(Debug, Serialize)]
struct AccuracyReport {
    sampled_machines: usize,
    ages_per_machine: usize,
    max_rel_error: f64,
    worst_machine: u64,
    worst_age: f64,
    budget: f64,
    pass: bool,
}

#[derive(Debug, Serialize)]
struct ThroughputReport {
    queries: usize,
    seconds: f64,
    qps: f64,
    qps_floor: f64,
    pass: bool,
}

#[derive(Debug, Serialize)]
struct DeterminismReport {
    machines: usize,
    publishes: usize,
    single_thread: RunSummary,
    four_thread: RunSummary,
    pass: bool,
}

#[derive(Debug, Serialize)]
struct ServeBenchReport {
    machines: usize,
    seed: u64,
    quick: bool,
    fleet: FleetReport,
    accuracy: AccuracyReport,
    throughput: ThroughputReport,
    determinism: DeterminismReport,
}

/// Stream the whole fleet's training prefixes through the scheduler,
/// run the parked initial fits, and publish one epoch; the three phases
/// are timed apart, so `tables_per_sec` measures table builds only.
fn build_fleet(args: &ServeArgs) -> (Scheduler, FleetReport) {
    let mut sched = Scheduler::new(scheduler_config()).expect("valid config");
    let t0 = Instant::now();
    for machine in 0..args.machines as u64 {
        for x in training_durations(machine, args.machines, args.seed) {
            sched
                .observe(machine, x)
                .expect("synthetic durations are valid");
        }
    }
    let ingest_seconds = t0.elapsed().as_secs_f64();
    let t_refit = Instant::now();
    sched.flush();
    let refit_seconds = t_refit.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let store = sched.publish().expect("publish");
    let publish_seconds = t1.elapsed().as_secs_f64();
    let stats = store.stats();
    let counters = sched.cache().counters();
    // Build-path throughput gate: tables built per second of publish
    // wall-clock. The lane-batched warm search is what holds this above
    // the floor; a regression to scalar-per-probe build cost trips it.
    let tables_per_sec = counters.builds as f64 / publish_seconds.max(1e-12);
    let tables_per_sec_floor = 2_000.0;
    let report = FleetReport {
        machines: args.machines,
        unique_streams: (args.machines / 2).max(1),
        observations_per_machine: TRAIN_PER_MACHINE,
        ingest_seconds,
        refit_seconds,
        refits: sched.refits(),
        publish_seconds,
        publish_seconds_per_table: publish_seconds / counters.builds.max(1) as f64,
        tables_per_sec,
        tables_per_sec_floor,
        publish_pass: tables_per_sec >= tables_per_sec_floor,
        segments_per_machine: stats.total_segments as f64 / stats.tables.max(1) as f64,
        store: stats,
        cache_hits: counters.hits,
        cache_builds: counters.builds,
        cache_shared: counters.shared,
        cluster_rejects: sched.cluster_rejects(),
    };
    (sched, report)
}

/// Max relative error of the served table vs each sampled machine's own
/// exact kernel optimum, over a log age grid including age 0.
fn measure_accuracy(sched: &Scheduler, args: &ServeArgs) -> AccuracyReport {
    let sample = if args.quick { 24 } else { 64 };
    let ages_n = if args.quick { 60 } else { 120 };
    let stride = (args.machines / sample).max(1) as u64;
    let sampled: Vec<u64> = (0..args.machines as u64).step_by(stride as usize).collect();
    let max_age = sched.config().compression.max_age;
    // Log-spaced grid from 1 s to the compression horizon, plus age 0.
    let mut ages = vec![0.0f64];
    for i in 0..=ages_n {
        ages.push(max_age.powf(i as f64 / ages_n as f64));
    }
    let costs = sched.config().compression.costs;
    let store = sched.store().clone();
    let (worst, worst_machine, worst_age) = (0..sampled.len())
        .into_par_iter()
        .map(|si| {
            let machine = sampled[si];
            let model = sched
                .machine(machine)
                .and_then(|f| f.model())
                .expect("sampled machine is fitted")
                .clone();
            let vaidya = VaidyaModel::new(&model, costs).expect("valid costs");
            let mut worst = (0.0f64, machine, 0.0f64);
            for &age in &ages {
                let exact = vaidya
                    .optimal_interval(age)
                    .expect("kernel optimum")
                    .work_seconds;
                let served = store
                    .next_interval(machine, age)
                    .expect("published machine");
                let err = (served / exact - 1.0).abs();
                if err > worst.0 {
                    worst = (err, machine, age);
                }
            }
            worst
        })
        .reduce(|| (0.0, 0, 0.0), |a, b| if a.0 >= b.0 { a } else { b });
    AccuracyReport {
        sampled_machines: sampled.len(),
        ages_per_machine: ages.len(),
        max_rel_error: worst,
        worst_machine,
        worst_age,
        budget: DEFAULT_MAX_REL_ERROR,
        pass: worst <= DEFAULT_MAX_REL_ERROR,
    }
}

/// Single-threaded serving throughput against the published store.
fn measure_throughput(sched: &Scheduler, args: &ServeArgs) -> ThroughputReport {
    let store = sched.store();
    let machines = args.machines as u64;
    let max_age = sched.config().compression.max_age;
    let mut digest = 0u64;
    let t0 = Instant::now();
    for i in 0..args.queries as u64 {
        // Deterministic scatter over (machine, age), ages past the
        // horizon included — the clamp path is part of serving.
        let machine = i.wrapping_mul(0x9e37_79b9_7f4a_7c15) % machines;
        let age = (i % 4_096) as f64 * (1.2 * max_age / 4_096.0);
        if let Some(t) = store.next_interval(machine, age) {
            digest ^= t.to_bits().rotate_left((i % 63) as u32);
        }
    }
    let seconds = t0.elapsed().as_secs_f64();
    black_box(digest);
    let qps = args.queries as f64 / seconds.max(1e-12);
    ThroughputReport {
        queries: args.queries,
        seconds,
        qps,
        qps_floor: 1e5,
        pass: qps >= 1e5,
    }
}

/// Replay one event tape on 1-thread and 4-thread pools; the summaries
/// (published digests, query digests, counters) must match bitwise.
fn measure_determinism(args: &ServeArgs) -> DeterminismReport {
    let machines = args.machines.min(if args.quick { 200 } else { 1_000 });
    let mut events = Vec::new();
    let streams: Vec<Vec<f64>> = (0..machines as u64)
        .map(|m| training_durations(m, machines, args.seed ^ 77))
        .collect();
    for round in 0..TRAIN_PER_MACHINE {
        for (m, stream) in streams.iter().enumerate() {
            events.push(Event::Observe {
                machine: m as u64,
                duration: stream[round],
            });
        }
    }
    events.push(Event::Publish);
    for (round, m) in (0..machines as u64).enumerate() {
        events.push(Event::Query {
            machine: m,
            age: 900.0 * round as f64,
        });
    }
    events.push(Event::Publish);

    let replay = |threads: usize| -> RunSummary {
        let pool = ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("pool");
        pool.install(|| {
            let mut sched = Scheduler::new(scheduler_config()).expect("valid config");
            sched.run(&events).expect("replay")
        })
    };
    let single_thread = replay(1);
    let four_thread = replay(4);
    let pass = single_thread == four_thread
        && !single_thread.publishes.is_empty()
        && single_thread.answered > 0;
    DeterminismReport {
        machines,
        publishes: single_thread.publishes.len(),
        single_thread,
        four_thread,
        pass,
    }
}

fn main() {
    let args = ServeArgs::parse();
    eprintln!(
        "serve bench: {} machines ({} unique streams), seed {}",
        args.machines,
        (args.machines / 2).max(1),
        args.seed
    );

    eprintln!("ingesting fleet + publishing epoch 1 ...");
    let (sched, fleet) = build_fleet(&args);
    eprintln!(
        "store: {} machines on {} tables ({:.1} segments/table, dedup {:.2}x), \
         publish {:.2}s ({:.0} tables/sec, {:.0}us/table)",
        fleet.store.machines,
        fleet.store.tables,
        fleet.segments_per_machine,
        fleet.store.dedup_ratio,
        fleet.publish_seconds,
        fleet.tables_per_sec,
        fleet.publish_seconds_per_table * 1e6
    );
    eprintln!(
        "ingest {:.3}s, {} refits resolved in {:.3}s before the publish",
        fleet.ingest_seconds, fleet.refits, fleet.refit_seconds
    );
    eprintln!(
        "cache: {} hits, {} builds, {} cluster-shared, {} cluster rejects",
        fleet.cache_hits, fleet.cache_builds, fleet.cache_shared, fleet.cluster_rejects
    );

    eprintln!("measuring accuracy vs exact kernel T_opt ...");
    let accuracy = measure_accuracy(&sched, &args);
    eprintln!(
        "max rel error {:.3e} over {} machines x {} ages (budget {:.1e})",
        accuracy.max_rel_error,
        accuracy.sampled_machines,
        accuracy.ages_per_machine,
        accuracy.budget
    );

    eprintln!("measuring serving throughput ...");
    let throughput = measure_throughput(&sched, &args);
    eprintln!(
        "{:.2e} queries/sec over {} queries (floor 1e5)",
        throughput.qps, throughput.queries
    );

    eprintln!("replaying determinism tape on 1-thread and 4-thread pools ...");
    let determinism = measure_determinism(&args);
    eprintln!(
        "determinism: {} publishes, digests {} ({} machines)",
        determinism.publishes,
        if determinism.pass {
            "MATCH"
        } else {
            "DIVERGED"
        },
        determinism.machines
    );

    let report = ServeBenchReport {
        machines: args.machines,
        seed: args.seed,
        quick: args.quick,
        fleet,
        accuracy,
        throughput,
        determinism,
    };

    match serde_json::to_string_pretty(&report) {
        Ok(json) => {
            if let Err(e) = std::fs::write(&args.json, json) {
                eprintln!("could not write {}: {e}", args.json);
                std::process::exit(1);
            }
            eprintln!("report written to {}", args.json);
        }
        Err(e) => {
            eprintln!("could not serialize report: {e}");
            std::process::exit(1);
        }
    }

    let mut failed = false;
    if !report.fleet.publish_pass {
        eprintln!(
            "FAIL: publish built {:.0} tables/sec, under the {:.0} floor",
            report.fleet.tables_per_sec, report.fleet.tables_per_sec_floor
        );
        failed = true;
    }
    if !report.accuracy.pass {
        eprintln!(
            "FAIL: served T_opt off by {:.3e} relative (budget {:.1e})",
            report.accuracy.max_rel_error, report.accuracy.budget
        );
        failed = true;
    }
    if !report.throughput.pass {
        eprintln!(
            "FAIL: {:.3e} queries/sec under the 1e5 floor",
            report.throughput.qps
        );
        failed = true;
    }
    if !report.determinism.pass {
        eprintln!("FAIL: 1-thread and 4-thread replays diverged");
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
    eprintln!("all serving gates passed");
}
