//! Benchmark + correctness gate for the pool-scale discrete-event
//! simulator: 10⁵ machines by default (10⁶ under `--large`) contending
//! on the hierarchical machine → rack → core fabric.
//!
//! ```text
//! cargo run -p chs-bench --release --bin pool_bench [--quick|--large] [--json PATH]
//! ```
//!
//! `--window SECONDS` (finite, > 0) sets the simulated window.
//! Results are written to `BENCH_pool.json` (override with `--json`) in
//! the common report envelope. The run is also a correctness gate and
//! exits 1 when any of these gates fails:
//!
//! * `speedup` — the calendar-queue engine must process ≥ 2× the
//!   machine-events/s of the frozen rescan-style reference
//!   ([`chs_bench::rescan::rescan_run`]) on an identical pool; the reference
//!   recomputes fair shares over every machine on every event, which is
//!   exactly the classic contention loop's behavior the engine replaces;
//! * `memory` — peak RSS divided by machine count must stay under
//!   4096 bytes/machine at pool scale (≥ 10⁵ machines; Linux `VmHWM`),
//!   holding the structure-of-arrays layout to its no-per-machine-heap
//!   promise;
//! * `contention_differential` — an 8-job single-link pool must match
//!   the totals of the manager server's classic profile
//!   (`chs_manager::ManagerConfig::classic`, processor sharing) to 1e-6
//!   over a short window (the coupled adaptive system is chaotic over
//!   long ones; see `tests/contention_differential.rs`);
//! * `closed_form_bitwise` — a 1-machine uncontended pool must reproduce the
//!   `chs_cycle::run_trace` ledger bitwise on a dyadic config;
//! * `determinism` — reversed machine-insertion order and a 1-thread
//!   policy-store build must replay to the same ledger digest.
//!
//! * `congestion_sanity` — in the congestion-collapse sweep, core
//!   capacity is swept from 4× down to ⅛× the provisioned rate and the
//!   goodput (committed work per machine-second) is watched for the
//!   first scale at which it drops below 98% of the best seen — the
//!   collapse threshold of the offered-load curve. The best-provisioned
//!   core must commit work, and shrinking it must not raise goodput.

use chs_bench::harness::{finish, Gates};
use chs_bench::rescan::rescan_run;
use chs_bench::CommonArgs;
use chs_cycle::{run_trace, CycleAccounting, CycleConfig, NoopObserver, SchedulePolicy};
use chs_dist::fit::fit_model;
use chs_dist::ModelKind;
use chs_manager::{run_manager, ManagerConfig};
use chs_markov::CheckpointCosts;
use chs_net::FaultPlan;
use chs_pool::{
    build_policy_store, DistSummary, FabricConfig, PoolSim, PoolSimConfig, SchedulePolicyBridge,
    Seg, StoreBuildReport, StorePolicy, VecTimeline, Workload, WorkloadConfig,
};
use rayon::ThreadPoolBuilder;
use serde::Serialize;
use std::time::Instant;

/// Machines per rack in every synthetic fleet.
const RACK_SIZE: usize = 32;

/// Per-machine NIC rate, MB/s (the paper's campus-network scale).
const NIC_MB_S: f64 = 4.0;

/// Rack uplink rate, MB/s — 4:1 oversubscribed against 32 NICs.
const UPLINK_MB_S: f64 = 32.0;

/// Core capacity per rack, MB/s — 8:1 oversubscribed against uplinks.
const CORE_PER_RACK_MB_S: f64 = UPLINK_MB_S / 8.0;

/// Checkpoint image, MB (512 MB at 4 MB/s ⇒ 128 s nominal cost).
const IMAGE_MB: f64 = 512.0;

/// The command line: the common options plus `--window` and `--large`.
struct PoolArgs {
    common: CommonArgs,
    window: f64,
    large: bool,
}

impl PoolArgs {
    fn parse() -> Self {
        let (mut window, mut large) = (86_400.0, false);
        let defaults = CommonArgs {
            machines: 100_000,
            ..CommonArgs::default()
        };
        let common =
            defaults.parse_with(
                2_000,
                " | --window SECONDS | --large",
                |flag, args| match flag {
                    "--window" => {
                        window = args.positive(flag);
                        true
                    }
                    "--quick" => {
                        window = 14_400.0;
                        true
                    }
                    "--large" => {
                        large = true;
                        true
                    }
                    _ => false,
                },
            );
        if common.quick && large {
            eprintln!("--quick and --large are mutually exclusive");
            std::process::exit(2);
        }
        PoolArgs {
            common,
            window,
            large,
        }
    }
}

/// The provisioned fabric for a pool: fixed NIC and uplink tiers, core
/// scaled with rack count (and further by `core_scale` for the
/// congestion sweep).
fn fabric_for(machines: usize, core_scale: f64) -> FabricConfig {
    let racks = machines.div_ceil(RACK_SIZE).max(1);
    FabricConfig {
        nic_mb_s: NIC_MB_S,
        uplink_mb_s: UPLINK_MB_S,
        core_mb_s: (racks as f64 * CORE_PER_RACK_MB_S * core_scale).max(NIC_MB_S),
        rack_size: RACK_SIZE,
    }
}

/// Peak resident set size of this process, bytes (Linux `VmHWM`).
fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb * 1024)
}

/// A synthetic fleet: lazy workload, per-stream fits, and a compressed
/// policy store built at the uncontended nominal cost.
struct Fleet {
    workload: Workload,
    config: PoolSimConfig,
    policy: StorePolicy,
    store_report: StoreBuildReport,
    store_build_s: f64,
}

fn build_fleet(machines: usize, window: f64, seed: u64) -> Fleet {
    let wl_cfg = WorkloadConfig {
        machines,
        rack_size: RACK_SIZE,
        unique_streams: 256.min(machines),
        history_len: 64,
        mean_gap: 1_800.0,
        seed,
    };
    let workload = Workload::new(wl_cfg).expect("workload config");
    let fits: Vec<_> = (0..workload.streams())
        .map(|s| fit_model(ModelKind::Weibull, &workload.history(s)).expect("stream fit"))
        .collect();
    let config = PoolSimConfig {
        machines,
        fabric: fabric_for(machines, 1.0),
        image_mb: IMAGE_MB,
        window,
        count_recovery_bytes: true,
        keep_ledgers: false,
        stress_insertion_order: false,
    };
    let costs = CheckpointCosts::symmetric(config.nominal_cost());
    let t = Instant::now();
    let (store, store_report) =
        build_policy_store(&fits, machines, |m| workload.stream_of(m), costs, 1)
            .expect("policy store build");
    Fleet {
        workload,
        config,
        policy: StorePolicy::new(store),
        store_report,
        store_build_s: t.elapsed().as_secs_f64(),
    }
}

/// One full-scale row of the report.
#[derive(Debug, Serialize)]
struct ScaleRow {
    label: String,
    machines: usize,
    racks: usize,
    window_s: f64,
    core_mb_s: f64,
    store: StoreBuildReport,
    store_build_s: f64,
    wall_s: f64,
    events: u64,
    stale_events: u64,
    events_per_sec: f64,
    efficiency: f64,
    goodput: f64,
    useful_seconds: f64,
    megabytes: f64,
    checkpoints_committed: u64,
    failures: u64,
    transfers_completed: u64,
    mean_transfer_seconds: f64,
    core_utilization: DistSummary,
    rack_utilization: DistSummary,
    concurrency: DistSummary,
    checkpoint_concurrency: DistSummary,
    recovery_concurrency: DistSummary,
    digest: u64,
    peak_rss_bytes: u64,
}

fn run_scale(label: &str, machines: usize, window: f64, seed: u64) -> ScaleRow {
    eprintln!("[{label}] building fleet: {machines} machines, window {window:.0} s ...");
    let mut fleet = build_fleet(machines, window, seed);
    eprintln!(
        "[{label}] store: {} tables for {} machines ({} builds, {} shared) in {:.2} s",
        fleet.store_report.tables,
        fleet.store_report.machines,
        fleet.store_report.builds,
        fleet.store_report.shared,
        fleet.store_build_s
    );
    let t = Instant::now();
    let result = PoolSim::run(&fleet.config, &fleet.workload, &mut fleet.policy).expect("pool run");
    let wall = t.elapsed().as_secs_f64();
    let events_per_sec = result.events as f64 / wall.max(1e-9);
    eprintln!(
        "[{label}] {} events in {:.2} s ({:.0} events/s), goodput {:.4}, core p99 {:.3}",
        result.events,
        wall,
        events_per_sec,
        result.goodput(),
        result.core_utilization.p99
    );
    ScaleRow {
        label: label.into(),
        machines,
        racks: result.racks,
        window_s: window,
        core_mb_s: fleet.config.fabric.core_mb_s,
        store: fleet.store_report,
        store_build_s: fleet.store_build_s,
        wall_s: wall,
        events: result.events,
        stale_events: result.stale_events,
        events_per_sec,
        efficiency: result.efficiency(),
        goodput: result.goodput(),
        useful_seconds: result.cycle.useful_seconds,
        megabytes: result.cycle.megabytes,
        checkpoints_committed: result.cycle.checkpoints_committed,
        failures: result.cycle.failures,
        transfers_completed: result.transfers_completed,
        mean_transfer_seconds: result.mean_transfer_seconds,
        core_utilization: result.core_utilization,
        rack_utilization: result.rack_utilization,
        concurrency: result.concurrency,
        checkpoint_concurrency: result.checkpoint_concurrency,
        recovery_concurrency: result.recovery_concurrency,
        digest: result.digest,
        peak_rss_bytes: peak_rss_bytes().unwrap_or(0),
    }
}

/// Calendar engine vs the frozen rescan reference on an identical pool.
#[derive(Debug, Serialize)]
struct SpeedupGate {
    ref_machines: usize,
    ref_window_s: f64,
    pool_events: u64,
    pool_wall_s: f64,
    pool_events_per_sec: f64,
    rescan_events: u64,
    rescan_wall_s: f64,
    rescan_events_per_sec: f64,
    speedup: f64,
    floor: f64,
}

fn speedup_gate(args: &PoolArgs) -> SpeedupGate {
    let machines = args.common.machines.min(1_024);
    let window = args.window.min(21_600.0);
    eprintln!("[speedup] reference pool: {machines} machines, window {window:.0} s ...");
    let mut fleet = build_fleet(machines, window, args.common.seed);
    let t = Instant::now();
    let pool = PoolSim::run(&fleet.config, &fleet.workload, &mut fleet.policy).expect("pool run");
    let pool_wall = t.elapsed().as_secs_f64();
    let mut policy = StorePolicy::new(fleet.policy.store().clone());
    let t = Instant::now();
    let rescan = rescan_run(&fleet.config, &fleet.workload, &mut policy).expect("rescan run");
    let rescan_wall = t.elapsed().as_secs_f64();
    let pool_eps = pool.events as f64 / pool_wall.max(1e-9);
    let rescan_eps = rescan.events as f64 / rescan_wall.max(1e-9);
    let speedup = pool_eps / rescan_eps.max(1e-9);
    let floor = 2.0;
    SpeedupGate {
        ref_machines: machines,
        ref_window_s: window,
        pool_events: pool.events,
        pool_wall_s: pool_wall,
        pool_events_per_sec: pool_eps,
        rescan_events: rescan.events,
        rescan_wall_s: rescan_wall,
        rescan_events_per_sec: rescan_eps,
        speedup,
        floor,
    }
}

/// Peak-RSS-per-machine bound, enforced only at pool scale (the binary
/// plus fits dominate a tiny fleet's footprint).
#[derive(Debug, Serialize)]
struct MemoryGate {
    machines: usize,
    peak_rss_bytes: u64,
    bytes_per_machine: f64,
    ceiling_bytes_per_machine: f64,
    enforced: bool,
}

fn memory_gate(machines: usize) -> MemoryGate {
    let ceiling = 4_096.0;
    let peak = peak_rss_bytes().unwrap_or(0);
    let per_machine = peak as f64 / machines.max(1) as f64;
    let enforced = machines >= 100_000 && peak > 0;
    MemoryGate {
        machines,
        peak_rss_bytes: peak,
        bytes_per_machine: per_machine,
        ceiling_bytes_per_machine: ceiling,
        enforced,
    }
}

/// One seed of the small-pool contention differential.
#[derive(Debug, Serialize)]
struct ContentionCase {
    seed: u64,
    max_rel: f64,
    counts_match: bool,
}

#[derive(Debug, Serialize)]
struct ContentionGate {
    jobs: usize,
    window_s: f64,
    tolerance: f64,
    cases: Vec<ContentionCase>,
}

/// Small single-link pools must match the manager's classic-profile
/// totals. Kept to a short window: the coupled adaptive system is
/// chaotic over days (see `tests/contention_differential.rs`), so
/// trajectory agreement is only meaningful before decoherence.
fn contention_gate() -> ContentionGate {
    let jobs = 8;
    let window = 0.1 * 86_400.0;
    let tolerance = 1e-6;
    let mut cases = Vec::new();
    for seed in [9_006, 9_123, 9_314] {
        let mut cfg = ManagerConfig::classic(jobs, ModelKind::Weibull);
        cfg.window = window;
        cfg.seed = seed;
        let expect = run_manager(&cfg, &FaultPlan::none())
            .expect("contention run")
            .result;
        let (pool_cfg, timeline, mut policy) = chs_pool_contention_twin(&cfg);
        let got = PoolSim::run(&pool_cfg, &timeline, &mut policy).expect("pool run");
        let rel = |a: f64, b: f64| (a - b).abs() / b.abs().max(1.0);
        let max_rel = [
            rel(got.cycle.total_seconds, expect.cycle.total_seconds),
            rel(got.cycle.useful_seconds, expect.cycle.useful_seconds),
            rel(got.cycle.megabytes, expect.cycle.megabytes),
            rel(
                got.cycle.checkpoint_seconds,
                expect.cycle.checkpoint_seconds,
            ),
        ]
        .into_iter()
        .fold(0.0, f64::max);
        let counts_match = got.cycle.checkpoints_committed == expect.cycle.checkpoints_committed
            && got.cycle.failures == expect.cycle.failures
            && got.cycle.recoveries == expect.cycle.recoveries;
        cases.push(ContentionCase {
            seed,
            max_rel,
            counts_match,
        });
    }
    ContentionGate {
        jobs,
        window_s: window,
        tolerance,
        cases,
    }
}

/// The pool-side twin of a classic manager config (same construction as
/// the differential test: one rack, `nic = uplink = core`).
fn chs_pool_contention_twin(
    config: &ManagerConfig,
) -> (PoolSimConfig, VecTimeline, chs_pool::AdaptiveVaidyaPolicy) {
    let mut timelines = Vec::with_capacity(config.clients);
    let mut fits = Vec::with_capacity(config.clients);
    for i in 0..config.clients {
        let machine = chs_condor::EmulatedMachine::generate(
            &config.pool,
            i as u32,
            config.history_len,
            config.window * 2.0 + 7.0 * 86_400.0,
            config.seed,
        );
        fits.push(fit_model(config.model, &machine.history).expect("machine fit"));
        timelines.push(
            machine
                .segments()
                .iter()
                .map(|s| Seg {
                    start: s.start,
                    end: s.end,
                })
                .collect(),
        );
    }
    let pool_cfg = PoolSimConfig {
        machines: config.clients,
        fabric: FabricConfig {
            nic_mb_s: config.link_mb_per_s,
            uplink_mb_s: config.link_mb_per_s,
            core_mb_s: config.link_mb_per_s,
            rack_size: config.clients,
        },
        image_mb: config.image_mb,
        window: config.window,
        count_recovery_bytes: true,
        keep_ledgers: false,
        stress_insertion_order: false,
    };
    (
        pool_cfg,
        VecTimeline(timelines),
        chs_pool::AdaptiveVaidyaPolicy::per_machine(fits),
    )
}

/// A dyadic-exact two-interval schedule (bitwise identity gate).
struct DyadicPolicy;

impl SchedulePolicy for DyadicPolicy {
    fn next_interval(&self, age: f64) -> f64 {
        if age < 1_024.0 {
            200.0
        } else {
            320.0
        }
    }

    fn label(&self) -> String {
        "dyadic".into()
    }
}

#[derive(Debug, Serialize)]
struct ClosedFormGate {
    fields_compared: usize,
    mismatched_fields: usize,
}

/// A 1-machine uncontended pool on a dyadic config must reproduce the
/// closed-form `run_trace` ledger bitwise.
fn closed_form_gate() -> ClosedFormGate {
    let durations = [100.0, 1_000.0, 456.0, 300.0, 4_096.0, 129.0];
    let mut segs = Vec::new();
    let mut t0 = 0.0;
    for &d in &durations {
        segs.push(Seg {
            start: t0,
            end: t0 + d,
        });
        t0 += d + 64.0;
    }
    let pool_cfg = PoolSimConfig {
        machines: 1,
        fabric: FabricConfig {
            nic_mb_s: 4.0,
            uplink_mb_s: 4.0,
            core_mb_s: 4.0,
            rack_size: 1,
        },
        image_mb: IMAGE_MB,
        window: t0 + 1.0,
        count_recovery_bytes: true,
        keep_ledgers: false,
        stress_insertion_order: false,
    };
    let closed_cfg = CycleConfig {
        checkpoint_cost: IMAGE_MB / 4.0,
        recovery_cost: IMAGE_MB / 4.0,
        image_mb: IMAGE_MB,
        count_recovery_bytes: true,
    };
    let expect = run_trace(&durations, &DyadicPolicy, &closed_cfg, &mut NoopObserver);
    let got = PoolSim::run(
        &pool_cfg,
        &VecTimeline(vec![segs]),
        &mut SchedulePolicyBridge(DyadicPolicy),
    )
    .expect("pool run");
    let bits = |a: &CycleAccounting| {
        [
            a.useful_seconds.to_bits(),
            a.lost_seconds.to_bits(),
            a.lost_work_seconds.to_bits(),
            a.recovery_seconds.to_bits(),
            a.checkpoint_seconds.to_bits(),
            a.total_seconds.to_bits(),
            a.megabytes.to_bits(),
            a.full_megabytes.to_bits(),
            a.partial_megabytes.to_bits(),
            a.recoveries,
            a.recoveries_completed,
            a.checkpoints_attempted,
            a.checkpoints_committed,
            a.failures,
        ]
    };
    let (g, e) = (bits(&got.cycle), bits(&expect));
    let mismatched = g.iter().zip(&e).filter(|(a, b)| *a != *b).count();
    ClosedFormGate {
        fields_compared: g.len(),
        mismatched_fields: mismatched,
    }
}

#[derive(Debug, Serialize)]
struct DeterminismGate {
    machines: usize,
    window_s: f64,
    store_digest_match: bool,
    run_digest_match: bool,
    events_match: bool,
}

/// Reversed calendar insertion + a 1-thread store build must replay to
/// the same digest as the default run.
fn determinism_gate(args: &PoolArgs) -> DeterminismGate {
    let machines = args.common.machines.min(8_192);
    let window = args.window.min(21_600.0);
    eprintln!("[determinism] replaying {machines} machines twice ...");
    let mut fleet = build_fleet(machines, window, args.common.seed);
    let costs = CheckpointCosts::symmetric(fleet.config.nominal_cost());
    let fits: Vec<_> = (0..fleet.workload.streams())
        .map(|s| fit_model(ModelKind::Weibull, &fleet.workload.history(s)).expect("stream fit"))
        .collect();
    let workload = &fleet.workload;
    let single = ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("thread pool");
    let (store_seq, _) = single
        .install(|| build_policy_store(&fits, machines, |m| workload.stream_of(m), costs, 1))
        .expect("policy store build");
    let store_digest_match = fleet.policy.store().digest() == store_seq.digest();

    let a = PoolSim::run(&fleet.config, &fleet.workload, &mut fleet.policy).expect("pool run");
    let mut reversed = fleet.config;
    reversed.stress_insertion_order = true;
    let b = PoolSim::run(&reversed, &fleet.workload, &mut StorePolicy::new(store_seq))
        .expect("pool run");
    DeterminismGate {
        machines,
        window_s: window,
        store_digest_match,
        run_digest_match: a.digest == b.digest,
        events_match: a.events == b.events,
    }
}

#[derive(Debug, Serialize)]
struct CongestionRow {
    core_scale: f64,
    core_mb_s: f64,
    goodput: f64,
    efficiency: f64,
    offered_over_core: f64,
    core_utilization_mean: f64,
    core_utilization_p99: f64,
    checkpoint_concurrency_mean: f64,
    checkpoint_concurrency_p99: f64,
    transfers_completed: u64,
    mean_transfer_seconds: f64,
}

#[derive(Debug, Serialize)]
struct CongestionSweep {
    machines: usize,
    window_s: f64,
    rows: Vec<CongestionRow>,
    collapse_core_scale: Option<f64>,
}

/// Sweep core capacity from 4× down to ⅛× provisioned and locate the
/// congestion-collapse threshold: the first scale (descending) whose
/// goodput falls below 98% of the best seen so far.
fn congestion_sweep(args: &PoolArgs) -> CongestionSweep {
    let machines = args.common.machines.min(20_000);
    let window = args.window.min(21_600.0);
    let fleet = build_fleet(machines, window, args.common.seed);
    let mut rows = Vec::new();
    for &scale in &[4.0, 2.0, 1.0, 0.5, 0.25, 0.125] {
        let mut config = fleet.config;
        config.fabric = fabric_for(machines, scale);
        let mut policy = StorePolicy::new(fleet.policy.store().clone());
        let result = PoolSim::run(&config, &fleet.workload, &mut policy).expect("pool run");
        let offered = result.concurrency.mean * config.fabric.nic_mb_s / config.fabric.core_mb_s;
        eprintln!(
            "[congestion] core x{scale}: goodput {:.4}, offered/core {:.2}, core p99 {:.3}",
            result.goodput(),
            offered,
            result.core_utilization.p99
        );
        rows.push(CongestionRow {
            core_scale: scale,
            core_mb_s: config.fabric.core_mb_s,
            goodput: result.goodput(),
            efficiency: result.efficiency(),
            offered_over_core: offered,
            core_utilization_mean: result.core_utilization.mean,
            core_utilization_p99: result.core_utilization.p99,
            checkpoint_concurrency_mean: result.checkpoint_concurrency.mean,
            checkpoint_concurrency_p99: result.checkpoint_concurrency.p99,
            transfers_completed: result.transfers_completed,
            mean_transfer_seconds: result.mean_transfer_seconds,
        });
    }
    let mut best = f64::NEG_INFINITY;
    let mut collapse = None;
    for row in &rows {
        if row.goodput < 0.98 * best && collapse.is_none() {
            collapse = Some(row.core_scale);
        }
        best = best.max(row.goodput);
    }
    CongestionSweep {
        machines,
        window_s: window,
        rows,
        collapse_core_scale: collapse,
    }
}

#[derive(Debug, Serialize)]
struct PoolBenchReport {
    generated_by: String,
    mode: String,
    seed: u64,
    rows: Vec<ScaleRow>,
    speedup: SpeedupGate,
    memory: MemoryGate,
    contention_differential: ContentionGate,
    closed_form: ClosedFormGate,
    determinism: DeterminismGate,
    congestion: CongestionSweep,
}

fn main() {
    let args = PoolArgs::parse();
    let json_path = args.common.report_path("BENCH_pool.json");

    let speedup = speedup_gate(&args);
    let contention_differential = contention_gate();
    let closed_form = closed_form_gate();
    let determinism = determinism_gate(&args);
    let congestion = congestion_sweep(&args);

    // Scale rows last so VmHWM reflects the largest fleet when the
    // memory gate reads it.
    let mut rows = vec![run_scale(
        "default",
        args.common.machines,
        args.window,
        args.common.seed,
    )];
    if args.large {
        rows.push(run_scale("large", 1_000_000, 21_600.0, args.common.seed));
    }
    let max_machines = rows.iter().map(|r| r.machines).max().unwrap_or(0);
    let memory = memory_gate(max_machines);

    let mut gates = Gates::new();
    gates.check(
        "speedup",
        speedup.speedup >= speedup.floor,
        format!(
            "{:.1}x vs rescan reference, floor {:.1}x",
            speedup.speedup, speedup.floor
        ),
    );
    gates.check(
        "memory",
        !memory.enforced || memory.bytes_per_machine <= memory.ceiling_bytes_per_machine,
        if memory.enforced {
            format!(
                "{:.0} bytes/machine, ceiling {:.0}",
                memory.bytes_per_machine, memory.ceiling_bytes_per_machine
            )
        } else {
            "not enforced below 1e5 machines".into()
        },
    );
    let worst = contention_differential
        .cases
        .iter()
        .fold(0.0, |m, c| c.max_rel.max(m));
    gates.check(
        "contention_differential",
        contention_differential
            .cases
            .iter()
            .all(|c| c.max_rel < contention_differential.tolerance && c.counts_match),
        format!(
            "worst rel {worst:.2e}, tolerance {:.0e}",
            contention_differential.tolerance
        ),
    );
    gates.check(
        "closed_form_bitwise",
        closed_form.mismatched_fields == 0,
        format!(
            "{} of {} ledger fields mismatched",
            closed_form.mismatched_fields, closed_form.fields_compared
        ),
    );
    gates.check(
        "determinism",
        determinism.store_digest_match && determinism.run_digest_match && determinism.events_match,
        format!(
            "store digests match: {}, run digests match: {}, events match: {}",
            determinism.store_digest_match, determinism.run_digest_match, determinism.events_match
        ),
    );
    // Sanity, not physics-shape: the best-provisioned core must commit
    // work, and shrinking the core 32× must not *increase* goodput
    // beyond chaotic jitter. Zero goodput at the bottom of the sweep is
    // the congestion collapse itself, not a failure.
    let first = congestion.rows.first().map(|r| r.goodput).unwrap_or(0.0);
    let last = congestion.rows.last().map(|r| r.goodput).unwrap_or(0.0);
    gates.check(
        "congestion_sanity",
        first > 0.0 && first >= last * 0.995,
        format!(
            "goodput {first:.4} at core x4, {last:.4} at x0.125; {}",
            match congestion.collapse_core_scale {
                Some(s) => format!("collapse at core x{s}"),
                None => "no collapse within sweep".into(),
            }
        ),
    );

    let report = PoolBenchReport {
        generated_by: "pool_bench".into(),
        mode: match (args.common.quick, args.large) {
            (true, _) => "quick",
            (_, true) => "large",
            _ => "default",
        }
        .into(),
        seed: args.common.seed,
        rows,
        speedup,
        memory,
        contention_differential,
        closed_form,
        determinism,
        congestion,
    };
    finish(&json_path, &report, &gates);
}
