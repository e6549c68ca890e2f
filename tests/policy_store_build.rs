//! The policy-store build through both of its entry points, the
//! scheduler's publish and the pool's `build_policy_store`.
//!
//! Neither committed bench report exercises an accepted cluster share,
//! so the golden tests build fleets whose fits land in shared cluster
//! cells on purpose: some members verify against their cell
//! representative's surface and share it, others fail verification and
//! build a private table. They pin the store digest and the cache's
//! resolution counters through two scheduler publishes and through
//! `build_policy_store`, and check that a 1-thread and a 4-thread build
//! agree bitwise. A last test feeds each invalid compression field to
//! both entry points.

use std::sync::Arc;

use chs_dist::fit::StreamingFitConfig;
use chs_dist::{AvailabilityModel, FittedModel, ModelKind, Weibull};
use chs_markov::{CheckpointCosts, CompressionConfig, MarkovError};
use chs_pool::{build_policy_store, PoolError};
use chs_sched::{SchedError, Scheduler, SchedulerConfig};
use rand::SeedableRng;
use rayon::ThreadPoolBuilder;

/// Relative duration scalings of the scheduler fleet. A Weibull MLE is
/// scale-equivariant, so each machine's fit is the base stream's shape
/// with the scale multiplied by its factor: 1 + 3e-4 and 1 + 6e-4 fall
/// off the base's dedup key but serve within the share bound, 1.02 and
/// 0.98 stay in the loose cell but miss the bound.
const SCALINGS: [f64; 6] = [1.0, 1.0 + 3e-4, 1.0 + 6e-4, 1.02, 0.98, 1.0];

fn publish_fleet() -> Vec<(u64, [u64; 4])> {
    let mut compression = CompressionConfig::new(CheckpointCosts::symmetric(110.0));
    compression.cluster_quantum = 0.1;
    let config = SchedulerConfig::new(
        StreamingFitConfig {
            kind: ModelKind::Weibull,
            ..StreamingFitConfig::default()
        },
        compression,
    );
    let mut sched = Scheduler::new(config).unwrap();
    let gen = Weibull::new(0.6, 2_000.0).unwrap();
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(2005);
    let base: Vec<f64> = (0..40).map(|_| gen.sample(&mut rng)).collect();
    for (machine, scale) in SCALINGS.iter().enumerate() {
        for &x in &base {
            sched.observe(machine as u64, x * scale).unwrap();
        }
    }
    (0..2)
        .map(|_| {
            let store = sched.publish().unwrap();
            let base = store.table(0).unwrap();
            let on_base: Vec<bool> = (0..SCALINGS.len() as u64)
                .map(|m| Arc::ptr_eq(store.table(m).unwrap(), base))
                .collect();
            assert_eq!(on_base, [true, true, true, false, false, true]);
            let digest = store.digest();
            let c = sched.cache().counters();
            (
                digest,
                [c.hits, c.builds, c.shared, sched.cluster_rejects()],
            )
        })
        .collect()
}

/// Near-identical Weibull fits under the default cluster quantum.
fn pool_fits() -> Vec<FittedModel> {
    [
        (0.6, 2_000.0),
        (0.6, 2_000.0 * (1.0 + 2e-4)),
        (0.6 * (1.0 + 2e-4), 2_000.0),
        (0.6 * (1.0 + 2e-4), 2_000.0 * (1.0 + 2e-4)),
        (0.6, 2_000.0 * (1.0 - 2e-4)),
        (0.6 * (1.0 - 2e-4), 2_000.0),
        (0.45, 1_800.0),
        (0.45 * (1.0 + 2e-4), 1_800.0),
    ]
    .iter()
    .map(|&(shape, scale)| FittedModel::Weibull(Weibull::new(shape, scale).unwrap()))
    .collect()
}

fn build_pool() -> (u64, [u64; 4]) {
    let fits = pool_fits();
    let n = fits.len();
    let (store, report) = build_policy_store(
        &fits,
        3 * n,
        |m| m as usize % n,
        CheckpointCosts::symmetric(110.0),
        1,
    )
    .unwrap();
    assert_eq!((store.len(), report.machines), (3 * n, 3 * n));
    assert_eq!(report.tables, store.stats().tables);
    (
        store.digest(),
        [
            report.tables as u64,
            report.builds,
            report.shared,
            report.rejects,
        ],
    )
}

fn on_threads<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .unwrap()
        .install(f)
}

/// Captured before the three-wave build moved into one cache method.
const PUBLISH_GOLDEN: [(u64, [u64; 4]); 2] = [
    (4_883_671_216_805_883_530, [3, 3, 2, 2]),
    (16_430_735_107_915_561_390, [9, 3, 2, 2]),
];
const POOL_GOLDEN: (u64, [u64; 4]) = (9_162_197_869_547_800_122, [6, 6, 2, 2]);

#[test]
fn scheduler_publishes_share_reject_and_then_hit() {
    // `[hits, builds, shared, rejects]`, cumulative: the first publish
    // builds the base and both rejects, shares twice and hits once (the
    // duplicate stream); the second resolves all six machines from cache.
    assert_eq!(publish_fleet(), PUBLISH_GOLDEN);
}

#[test]
fn pool_store_build_shares_and_rejects() {
    // `[tables, builds, shared, rejects]`: every build is a table,
    // every share an alias onto one.
    assert_eq!(build_pool(), POOL_GOLDEN);
}

#[test]
fn cluster_builds_are_thread_count_invariant() {
    assert_eq!(on_threads(1, publish_fleet), on_threads(4, publish_fleet));
    assert_eq!(on_threads(1, build_pool), on_threads(4, build_pool));
}

#[test]
fn bad_compression_fields_are_rejected_up_front_by_both_entry_points() {
    let good = CompressionConfig::new(CheckpointCosts::symmetric(110.0));
    let costs = good.costs;
    let mut cases = Vec::new();
    for bad in [f64::NAN, -1.0] {
        let checkpoint = CheckpointCosts {
            checkpoint: bad,
            ..costs
        };
        let recovery = CheckpointCosts {
            recovery: bad,
            ..costs
        };
        let latency = CheckpointCosts {
            latency: bad,
            ..costs
        };
        for (costs, field) in [
            (checkpoint, "checkpoint"),
            (recovery, "recovery"),
            (latency, "latency"),
        ] {
            cases.push((CompressionConfig { costs, ..good }, field));
        }
    }
    for max_age in [0.0, f64::NAN] {
        cases.push((CompressionConfig { max_age, ..good }, "max_age"));
    }
    cases.push((
        CompressionConfig {
            max_rel_error: 0.0,
            ..good
        },
        "max_rel_error",
    ));
    cases.push((
        CompressionConfig {
            max_depth: 0,
            ..good
        },
        "max_depth",
    ));
    for cluster_quantum in [-1.0, f64::NAN] {
        cases.push((
            CompressionConfig {
                cluster_quantum,
                ..good
            },
            "cluster_quantum",
        ));
    }
    let names = |err: &MarkovError| match err {
        MarkovError::InvalidParameter { parameter, .. } => *parameter,
        other => panic!("{other:?}"),
    };
    for (config, field) in cases {
        let streaming = StreamingFitConfig::default();
        match Scheduler::new(SchedulerConfig::new(streaming, config)) {
            Err(SchedError::Markov(e)) => assert_eq!(names(&e), field, "{config:?}"),
            other => panic!("{field}: {other:?}"),
        }
        // `build_policy_store` compresses at the default geometry, so
        // only the costs are its input; it rejects them with no fits.
        if config.costs != costs {
            match build_policy_store(&[], 0, |_| 0, config.costs, 0) {
                Err(PoolError::Markov(e)) => assert_eq!(names(&e), field, "{config:?}"),
                other => panic!("{field}: {other:?}"),
            }
        }
    }
    assert!(Scheduler::new(SchedulerConfig::new(StreamingFitConfig::default(), good)).is_ok());
    assert!(build_policy_store(&[], 0, |_| 0, costs, 0).is_ok());
}
