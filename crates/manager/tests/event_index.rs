//! Golden-digest oracle for the manager's event loop.
//!
//! Every value below was captured from the full-scan event loop (three
//! passes over every client per event) before it was replaced by the
//! event index. The indexed loop must make the same decisions in the
//! same order with the same floating-point operations, so each config
//! must reproduce its digest, policy report, dead-letter depth and link
//! statistics exactly.
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
        digest: 0x839a5261cedee30f,
        report: [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0x0000000000000000],
        dlq_len: 0,
        link: 0x9d48d6393606423f,
    },
    Pinned {
        digest: 0x283846b7f699e734,
        report: [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 0x409f400000000000],
        dlq_len: 0,
        link: 0x1f35716aea31c55c,
    },
    Pinned {
        digest: 0xcaedfd4cd726e23c,
        report: [2, 0, 2, 0, 2, 3, 1, 0, 0, 0, 0, 0, 0, 0x0000000000000000],
        dlq_len: 1,
        link: 0x70357b7681068e22,
    },
    Pinned {
        digest: 0x7ab9e0cbf7d239e7,
        report: [0, 1, 1, 0, 0, 2, 0, 1, 0, 0, 0, 1, 1, 0x409f400000000000],
        dlq_len: 0,
        link: 0x1f7354bab7baffc1,
    },
    Pinned {
        digest: 0xf2248c0132b80887,
        report: [2, 2, 4, 6, 2, 6, 2, 0, 0, 0, 0, 7, 7, 0x40cb580000000000],
        dlq_len: 2,
        link: 0x12ad93d41bab24af,
    },
    Pinned {
        digest: 0x5ccfd31de25d9830,
        report: [1, 1, 1, 3, 1, 2, 1, 1, 0, 0, 0, 0, 0, 0x0000000000000000],
        dlq_len: 1,
        link: 0xbdfc38e9ff601800,
    },
    Pinned {
        digest: 0x0885a62d6b2e9b86,
        report: [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 7, 7, 0x40cb580000000000],
        dlq_len: 0,
        link: 0x80c0f926d216d28d,
    },
    Pinned {
        digest: 0x957375ed02459891,
        report: [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0x0000000000000000],
        dlq_len: 0,
        link: 0xcec34a551e69b533,
    },
    Pinned {
        digest: 0x3937b3c2f557b949,
        report: [2, 0, 2, 2, 2, 3, 1, 0, 0, 0, 0, 0, 0, 0x0000000000000000],
        dlq_len: 1,
        link: 0xc29050db792d70f2,
    },
    Pinned {
        digest: 0xd90bfddbe7ff69d7,
        report: [1, 1, 2, 4, 1, 4, 0, 1, 0, 0, 0, 3, 3, 0x40b7700000000000],
        dlq_len: 0,
        link: 0xba362ec8c4dbf871,
    },
    Pinned {
        digest: 0xc876a8f30966e3c8,
        report: [2, 6, 3, 5, 2, 9, 2, 1, 0, 0, 0, 3, 3, 0x40b7700000000000],
        dlq_len: 2,
        link: 0x7623024c3e969835,
    },
    Pinned {
        digest: 0x0d790a65ef494ae6,
        report: [2, 3, 4, 9, 2, 7, 2, 0, 0, 0, 0, 0, 0, 0x0000000000000000],
        dlq_len: 2,
        link: 0xfb40d1c8cb972284,
    },
    Pinned {
        digest: 0x8b5d8f334c57dc68,
        report: [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 27, 27, 0x40ea5dfffffffff5],
        dlq_len: 0,
        link: 0x91320b09e86b609b,
    },
    Pinned {
        digest: 0xc0dd0aa58fdbbdcc,
        report: [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0x0000000000000000],
        dlq_len: 0,
        link: 0x71138aad9ce2d9bb,
    },
    Pinned {
        digest: 0xcfc97533526fbbfe,
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
            0x40e675ffffffffff,
        ],
        dlq_len: 2,
        link: 0x0e8a9101cd3c1e1a,
    },
    Pinned {
        digest: 0x028e095980b1c3e7,
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
        link: 0xed40eeb65bb6ba4c,
    },
    Pinned {
        digest: 0xc8927f2e7699475a,
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
            0x40e57bfffffffffb,
        ],
        dlq_len: 7,
        link: 0x0a76ce50bc237dea,
    },
    Pinned {
        digest: 0x4c393c6367f8bebc,
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
        link: 0x7c3cc2030a0c67a2,
    },
    Pinned {
        digest: 0xb3c395766ea889d8,
        report: [0, 0, 0, 0, 0, 0, 0, 0, 0, 15, 0, 0, 0, 0x0000000000000000],
        dlq_len: 0,
        link: 0x5eb31ea5e8e6547a,
    },
    Pinned {
        digest: 0xa2fcf93ddf39578c,
        report: [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 11, 9, 0x40d35ebb63598abc],
        dlq_len: 0,
        link: 0x65fd9ad4487d882c,
    },
    Pinned {
        digest: 0x1cf2e1cb61a8fe10,
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
            0x40c0ac7e3502dee8,
        ],
        dlq_len: 1,
        link: 0x4a8db2b18924e0aa,
    },
    Pinned {
        digest: 0x4260ee4868738cbd,
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
        link: 0x81870f87f9e35abf,
    },
    Pinned {
        digest: 0xcf897a841d81c6dd,
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
            0x40b76ffffffffffb,
        ],
        dlq_len: 1,
        link: 0x01d9ebdd84d24616,
    },
    Pinned {
        digest: 0x754884c3320fa268,
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
        link: 0x027a4451597425c6,
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
