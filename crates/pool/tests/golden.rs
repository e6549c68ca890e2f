//! Golden-digest oracle for the pool engine and its fair-share fabric.
//!
//! Each config below pins the ledger digest, the event count and the
//! bits of the link statistics the digest does not cover. The values
//! were captured before the fabric's completion bookkeeping moved onto
//! the shared lane core; any change to the order or the floating-point
//! operations of the fabric, the calendar or the engine moves them.
//!
//! The configs are small (a few dozen machines for a few hours) and
//! each one drives a distinct fabric regime:
//!
//! * uncontended: every flow runs at its NIC rate;
//! * rack-uplink-bound: racks split their uplink, the core is idle;
//! * core-saturated: the core water level binds across several
//!   buckets, so the water-fill loop runs;
//! * evictions during transfers: large images on short segments;
//! * planning by `FixedIntervalPolicy` and by `AdaptiveVaidyaPolicy`.

use chs_dist::fit::fit_model;
use chs_dist::ModelKind;
use chs_pool::{
    AdaptiveVaidyaPolicy, DistSummary, FabricConfig, FixedIntervalPolicy, PoolResult, PoolSim,
    PoolSimConfig, Workload, WorkloadConfig,
};

/// One golden config.
struct Case {
    name: &'static str,
    machines: usize,
    rack_size: usize,
    nic: f64,
    uplink: f64,
    core: f64,
    image_mb: f64,
    window: f64,
    mean_gap: f64,
    /// `Some(T)` plans fixed `T`-second intervals; `None` plans with
    /// per-machine adaptive Vaidya on Weibull fits.
    fixed: Option<f64>,
}

/// What each config pins.
#[derive(Debug, PartialEq)]
struct Pinned {
    digest: u64,
    events: u64,
    stale_events: u64,
    transfers_completed: u64,
    /// Bits of the transfer-time total and the five time-weighted
    /// link summaries, folded.
    link: u64,
}

const CASES: [Case; 6] = [
    Case {
        name: "uncontended",
        machines: 16,
        rack_size: 8,
        nic: 4.0,
        uplink: 64.0,
        core: 1_024.0,
        image_mb: 512.0,
        window: 43_200.0,
        mean_gap: 1_800.0,
        fixed: Some(900.0),
    },
    Case {
        name: "rack-uplink-bound",
        machines: 32,
        rack_size: 8,
        nic: 4.0,
        uplink: 6.0,
        core: 1_024.0,
        image_mb: 512.0,
        window: 43_200.0,
        mean_gap: 600.0,
        fixed: Some(600.0),
    },
    Case {
        name: "core-saturated",
        machines: 64,
        rack_size: 8,
        nic: 4.0,
        uplink: 16.0,
        core: 10.0,
        image_mb: 256.0,
        window: 21_600.0,
        mean_gap: 600.0,
        fixed: Some(700.0),
    },
    Case {
        name: "evictions-during-transfers",
        machines: 24,
        rack_size: 4,
        nic: 4.0,
        uplink: 8.0,
        core: 20.0,
        image_mb: 4_096.0,
        window: 43_200.0,
        mean_gap: 300.0,
        fixed: Some(400.0),
    },
    Case {
        name: "fixed-interval",
        machines: 48,
        rack_size: 16,
        nic: 4.0,
        uplink: 20.0,
        core: 40.0,
        image_mb: 512.0,
        window: 43_200.0,
        mean_gap: 1_800.0,
        fixed: Some(1_200.0),
    },
    Case {
        name: "adaptive-vaidya",
        machines: 48,
        rack_size: 16,
        nic: 4.0,
        uplink: 20.0,
        core: 40.0,
        image_mb: 512.0,
        window: 43_200.0,
        mean_gap: 1_800.0,
        fixed: None,
    },
];

fn run(c: &Case) -> PoolResult {
    let workload = Workload::new(WorkloadConfig {
        machines: c.machines,
        rack_size: c.rack_size,
        unique_streams: 4,
        history_len: 64,
        mean_gap: c.mean_gap,
        seed: 2_005,
    })
    .unwrap();
    let config = PoolSimConfig {
        machines: c.machines,
        fabric: FabricConfig {
            nic_mb_s: c.nic,
            uplink_mb_s: c.uplink,
            core_mb_s: c.core,
            rack_size: c.rack_size,
        },
        image_mb: c.image_mb,
        window: c.window,
        count_recovery_bytes: true,
        keep_ledgers: false,
        stress_insertion_order: false,
    };
    match c.fixed {
        Some(t) => PoolSim::run(&config, &workload, &mut FixedIntervalPolicy(t)).unwrap(),
        None => {
            let fits: Vec<_> = (0..workload.streams())
                .map(|s| fit_model(ModelKind::Weibull, &workload.history(s)).unwrap())
                .collect();
            let mut policy = AdaptiveVaidyaPolicy::per_machine(
                (0..c.machines as u32)
                    .map(|m| fits[workload.stream_of(m)].clone())
                    .collect(),
            );
            PoolSim::run(&config, &workload, &mut policy).unwrap()
        }
    }
}

fn pin(r: &PoolResult) -> Pinned {
    let summary = |s: &DistSummary| [s.mean, s.p50, s.p95, s.p99, s.max];
    let link = std::iter::once(r.transfer_seconds)
        .chain(summary(&r.core_utilization))
        .chain(summary(&r.rack_utilization))
        .chain(summary(&r.concurrency))
        .chain(summary(&r.checkpoint_concurrency))
        .chain(summary(&r.recovery_concurrency))
        .fold(0u64, |h, x| {
            (h ^ x.to_bits())
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .rotate_left(29)
        });
    Pinned {
        digest: r.digest,
        events: r.events,
        stale_events: r.stale_events,
        transfers_completed: r.transfers_completed,
        link,
    }
}

const fn pinned(digest: u64, events: u64, transfers_completed: u64, link: u64) -> Pinned {
    Pinned {
        digest,
        events,
        stale_events: 0,
        transfers_completed,
        link,
    }
}

const GOLDEN: [Pinned; 6] = [
    pinned(0x7b42c8ae0621b894, 1_285, 623, 0xc914de02607e7129),
    pinned(0x4e604d7b6e2be37e, 3_344, 1_531, 0x6689bd0cb1cfb0bf),
    pinned(0x62b2f22c66f64c69, 1_909, 782, 0x7be2fc9f05249efa),
    pinned(0x0657050e75b7bb61, 593, 170, 0xa26abe8300847b9c),
    pinned(0x7f18f943f003a87b, 2_930, 1_319, 0x7460afcc37118304),
    pinned(0x2640cea174cfa7ae, 2_678, 1_192, 0xe871a59f03adbb71),
];

/// Whether `r` shows the regime its config is named for. The goldens
/// only guard the fabric paths the configs actually drive.
fn reaches_regime(c: &Case, r: &PoolResult) -> bool {
    let saturated = |s: &DistSummary| s.max >= 1.0 - 1e-9;
    match c.name {
        "uncontended" => (r.mean_transfer_seconds - c.image_mb / c.nic).abs() < 1e-6,
        "rack-uplink-bound" => saturated(&r.rack_utilization) && !saturated(&r.core_utilization),
        "core-saturated" => saturated(&r.core_utilization),
        "evictions-during-transfers" => {
            r.cycle.partial_megabytes > 0.0 && r.cycle.recoveries > r.cycle.recoveries_completed
        }
        _ => r.transfers_completed > 0,
    }
}

#[test]
fn pool_runs_reproduce_their_goldens() {
    for (c, golden) in CASES.iter().zip(&GOLDEN) {
        let r = run(c);
        assert!(reaches_regime(c, &r), "{} misses its regime", c.name);
        assert_eq!(&pin(&r), golden, "{}", c.name);
    }
}
