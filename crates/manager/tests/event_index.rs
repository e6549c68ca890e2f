//! Golden-digest oracle for the manager's event loop.
//!
//! The values below were first captured from the full-scan event loop
//! (three passes over every client per event) before it was replaced by
//! the event index. The indexed loop must make the same decisions in the
//! same order with the same floating-point operations, so each config
//! must reproduce its digest, policy report, dead-letter depth and link
//! statistics exactly. They were re-pinned, all from one run of the
//! unchanged loop, when exponential `T_opt` became a closed form instead
//! of a golden-section search: every client plans on an exponential fit,
//! so the planned intervals moved, by less than 1e-6 relative.
//!
//! The grid crosses client counts {1, 3, 16, 64} with fault intensities
//! {0, 0.2, 0.4}; the binary knobs (admission, prefetch, lane weights,
//! seed) are spread so that each value of each appears at every client
//! count. Images are 2 GB on the campus link, so 16 and 64 clients run
//! past saturation: admission defers checkpoints, prefetches are shed
//! and retry-exhausted transfers dead-letter.

use chs_dist::ModelKind;
use chs_manager::{run_manager, ManagerConfig, ManagerOutcome};
use chs_net::{AdmissionConfig, FaultPlan, LaneWeights};

/// One grid point.
struct Case {
    clients: usize,
    faults: f64,
    admission: bool,
    prefetch: f64,
    uniform_weights: bool,
    seed: u64,
}

/// What each grid point pins.
#[derive(Debug, PartialEq)]
struct Pinned {
    digest: u64,
    /// `ManagerReport`: the nine fault counters, then deferred, shed,
    /// prefetches started and completed, then `prefetch_mb` bits.
    report: [u64; 14],
    dlq_len: usize,
    /// Bits of the link statistics the digest does not cover.
    link: u64,
}

const fn case(
    clients: usize,
    faults: f64,
    admission: bool,
    prefetch: f64,
    uniform_weights: bool,
    seed: u64,
) -> Case {
    Case {
        clients,
        faults,
        admission,
        prefetch,
        uniform_weights,
        seed,
    }
}

const GRID: [Case; 24] = [
    case(1, 0.0, false, 0.0, true, 2_005),
    case(1, 0.0, true, 0.3, false, 7),
    case(1, 0.2, true, 0.0, false, 2_005),
    case(1, 0.2, false, 0.3, true, 7),
    case(1, 0.4, false, 0.3, false, 2_005),
    case(1, 0.4, true, 0.0, true, 7),
    case(3, 0.0, true, 0.3, true, 2_005),
    case(3, 0.0, false, 0.0, false, 7),
    case(3, 0.2, false, 0.0, true, 2_005),
    case(3, 0.2, true, 0.3, false, 7),
    case(3, 0.4, true, 0.3, true, 7),
    case(3, 0.4, false, 0.0, false, 2_005),
    case(16, 0.0, false, 0.3, false, 2_005),
    case(16, 0.0, true, 0.0, true, 7),
    case(16, 0.2, true, 0.3, true, 2_005),
    case(16, 0.2, false, 0.0, false, 7),
    case(16, 0.4, false, 0.3, true, 7),
    case(16, 0.4, true, 0.0, false, 2_005),
    case(64, 0.0, true, 0.0, false, 2_005),
    case(64, 0.0, false, 0.3, true, 7),
    case(64, 0.2, false, 0.3, false, 2_005),
    case(64, 0.2, true, 0.0, true, 7),
    case(64, 0.4, true, 0.3, false, 7),
    case(64, 0.4, false, 0.0, true, 2_005),
];

fn config(c: &Case) -> (ManagerConfig, FaultPlan) {
    let mut config = ManagerConfig::campus(c.clients, ModelKind::Exponential);
    config.window = 86_400.0;
    config.seed = c.seed;
    config.image_mb = 2_000.0;
    config.retry.max_retries = 1;
    config.admission.horizon_images = 8.0;
    if !c.admission {
        config.admission = AdmissionConfig::disabled();
    }
    config.prefetch_probability = c.prefetch;
    if c.uniform_weights {
        config.weights = LaneWeights::uniform();
    }
    (config, FaultPlan::uniform(c.faults, c.seed ^ 0x5EED))
}

fn pin(outcome: &ManagerOutcome) -> Pinned {
    let (r, f) = (&outcome.result, &outcome.report.faults);
    let report = &outcome.report;
    let link = [
        r.link_utilization,
        r.mean_link_concurrency,
        r.mean_transfer_seconds,
        r.recovery_busy_seconds,
        r.checkpoint_busy_seconds,
        r.prefetch_busy_seconds,
    ]
    .iter()
    .fold(0u64, |h, x| {
        (h ^ x.to_bits())
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .rotate_left(29)
    });
    Pinned {
        digest: r.digest,
        report: [
            f.stalls,
            f.drops,
            f.corruptions,
            f.unavailabilities,
            f.timeouts,
            f.retries,
            f.checkpoints_abandoned,
            f.fallback_exponential,
            f.fallback_fixed,
            report.deferred_checkpoints,
            report.shed_prefetches,
            report.prefetches_started,
            report.prefetches_completed,
            report.prefetch_mb.to_bits(),
        ],
        dlq_len: outcome.dlq.len(),
        link,
    }
}

const GOLDEN: [Pinned; 24] = [
    Pinned {
        digest: 0xc7a309fde1c05593,
        report: [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0x0000000000000000],
        dlq_len: 0,
        link: 0x6e3ce438c6e746f1,
    },
    Pinned {
        digest: 0x3cdcee2ffe5fcbc9,
        report: [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 0x409f400000000000],
        dlq_len: 0,
        link: 0x1f35716aea31c55c,
    },
    Pinned {
        digest: 0x47dcde8a9e5d52fa,
        report: [2, 0, 2, 0, 2, 3, 1, 0, 0, 0, 0, 0, 0, 0x0000000000000000],
        dlq_len: 1,
        link: 0x70357b7681068e22,
    },
    Pinned {
        digest: 0x68e0a041b3e4874f,
        report: [0, 1, 1, 0, 0, 2, 0, 1, 0, 0, 0, 1, 1, 0x409f400000000000],
        dlq_len: 0,
        link: 0x1f7354bab7baffc1,
    },
    Pinned {
        digest: 0xaf133f2b4558b47d,
        report: [2, 2, 4, 6, 2, 6, 2, 0, 0, 0, 0, 7, 7, 0x40cb580000000000],
        dlq_len: 2,
        link: 0x086895b9b2fcc180,
    },
    Pinned {
        digest: 0x60a7d8e5816a4402,
        report: [1, 1, 1, 3, 1, 2, 1, 1, 0, 0, 0, 0, 0, 0x0000000000000000],
        dlq_len: 1,
        link: 0xbdfc38e9ff601800,
    },
    Pinned {
        digest: 0x61d204cb32740b09,
        report: [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 7, 7, 0x40cb580000000001],
        dlq_len: 0,
        link: 0xf72f65fa76ea93b4,
    },
    Pinned {
        digest: 0x6871ee21b2697b8f,
        report: [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0x0000000000000000],
        dlq_len: 0,
        link: 0x62e73f3620609529,
    },
    Pinned {
        digest: 0x8c4956f0fcaf4f87,
        report: [2, 0, 2, 2, 2, 3, 1, 0, 0, 0, 0, 0, 0, 0x0000000000000000],
        dlq_len: 1,
        link: 0x8e8a5092acc16a44,
    },
    Pinned {
        digest: 0xe9d18e970f274d31,
        report: [1, 1, 2, 4, 1, 4, 0, 1, 0, 0, 0, 3, 3, 0x40b7700000000000],
        dlq_len: 0,
        link: 0x90be2fe6af0cbda6,
    },
    Pinned {
        digest: 0x465718f313878164,
        report: [2, 6, 3, 5, 2, 9, 2, 1, 0, 0, 0, 3, 3, 0x40b7700000000000],
        dlq_len: 2,
        link: 0xa65d924b83e467be,
    },
    Pinned {
        digest: 0x3d9f4d89eb20cb11,
        report: [2, 3, 4, 9, 2, 7, 2, 0, 0, 0, 0, 0, 0, 0x0000000000000000],
        dlq_len: 2,
        link: 0x23a1273942b18a02,
    },
    Pinned {
        digest: 0xe4cc77250ad7e536,
        report: [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 27, 27, 0x40ea5dfffffffffc],
        dlq_len: 0,
        link: 0xa5548c7006cfd743,
    },
    Pinned {
        digest: 0x01285b07f9bbc8ae,
        report: [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0x0000000000000000],
        dlq_len: 0,
        link: 0xf70cef5e4ac6f4ed,
    },
    Pinned {
        digest: 0x3c7a7e4e303a048a,
        report: [
            2,
            7,
            5,
            10,
            2,
            12,
            2,
            3,
            0,
            0,
            0,
            23,
            23,
            0x40e675fffffffffc,
        ],
        dlq_len: 2,
        link: 0x0c84f9019ba3a370,
    },
    Pinned {
        digest: 0xcbcc28f62ce1c552,
        report: [
            3,
            10,
            11,
            18,
            3,
            23,
            1,
            3,
            0,
            0,
            0,
            0,
            0,
            0x0000000000000000,
        ],
        dlq_len: 1,
        link: 0x49e5148df74e3d9b,
    },
    Pinned {
        digest: 0x85dbad64dfcb61ca,
        report: [
            10,
            26,
            20,
            28,
            10,
            49,
            7,
            6,
            0,
            0,
            0,
            22,
            22,
            0x40e57bfffffffff9,
        ],
        dlq_len: 7,
        link: 0xbf42ca64f52ec23c,
    },
    Pinned {
        digest: 0x0b95c7aceb36c500,
        report: [
            12,
            13,
            17,
            32,
            12,
            36,
            6,
            4,
            0,
            0,
            0,
            0,
            0,
            0x0000000000000000,
        ],
        dlq_len: 6,
        link: 0xc1d0057e3c044f68,
    },
    Pinned {
        digest: 0xa44a1ba03f7ec35f,
        report: [0, 0, 0, 0, 0, 0, 0, 0, 0, 15, 0, 0, 0, 0x0000000000000000],
        dlq_len: 0,
        link: 0xb0f73b2f96fb7783,
    },
    Pinned {
        digest: 0xb6fa0ff87f763a38,
        report: [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 11, 9, 0x40d35ebb638e2f49],
        dlq_len: 0,
        link: 0x1cc4a3a3e628eb58,
    },
    Pinned {
        digest: 0x84c2458b9e76e7ba,
        report: [
            6,
            16,
            7,
            37,
            6,
            28,
            1,
            12,
            0,
            0,
            0,
            5,
            3,
            0x40c0ac7e350df3f7,
        ],
        dlq_len: 1,
        link: 0xcb7df34ddd5e008c,
    },
    Pinned {
        digest: 0x6dde14998aaa6de0,
        report: [
            3,
            9,
            14,
            44,
            3,
            24,
            2,
            11,
            0,
            0,
            0,
            0,
            0,
            0x0000000000000000,
        ],
        dlq_len: 2,
        link: 0xd6a654b5d3360b1f,
    },
    Pinned {
        digest: 0x38f1a7b6b74f1133,
        report: [
            14,
            40,
            15,
            60,
            14,
            68,
            1,
            22,
            0,
            8,
            1,
            3,
            3,
            0x40b76ffffffffffe,
        ],
        dlq_len: 1,
        link: 0x312c51587b32f67a,
    },
    Pinned {
        digest: 0x6e467b5383de5131,
        report: [
            17,
            24,
            16,
            71,
            17,
            53,
            4,
            21,
            0,
            0,
            0,
            0,
            0,
            0x0000000000000000,
        ],
        dlq_len: 4,
        link: 0x419ef6fee2f170b8,
    },
];

#[test]
fn indexed_loop_reproduces_the_full_scan_goldens() {
    for (i, (c, golden)) in GRID.iter().zip(&GOLDEN).enumerate() {
        let (config, plan) = config(c);
        let outcome = run_manager(&config, &plan).unwrap();
        assert_eq!(&pin(&outcome), golden, "grid point {i}");
    }
}

#[test]
fn the_grid_reaches_every_policy_path() {
    // The goldens only guard paths the grid actually drives.
    let total = |k: usize| GOLDEN.iter().map(|g| g.report[k]).sum::<u64>();
    for (k, what) in [
        (0, "stalls"),
        (1, "drops"),
        (2, "corruptions"),
        (3, "unavailabilities"),
        (6, "dead letters"),
        (9, "admission deferrals"),
        (10, "shed prefetches"),
        (12, "completed prefetches"),
    ] {
        assert!(total(k) > 0, "no grid point exercises {what}");
    }
    assert!(GOLDEN.iter().any(|g| g.dlq_len > 0));
}
