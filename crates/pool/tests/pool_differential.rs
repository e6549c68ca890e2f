//! Differential gates for the pool engine.
//!
//! 1. **Uncontended identity (bitwise)** — a 1-machine pool whose NIC is
//!    the bottleneck must reproduce `chs_cycle::run_trace`'s closed-form
//!    ledger *bitwise*. The configs are dyadic (integer segment bounds
//!    and intervals, power-of-two image/bandwidth) so every FP operation
//!    on both paths is exact and "equal" means equal to the last bit.
//! 2. **Replay determinism** — reversed machine-insertion order and a
//!    1-thread vs N-thread policy-store build must produce bitwise
//!    identical digests.
//!
//! Small pools on one shared link are checked against the frozen classic
//! contention loop in the root `tests/contention_differential.rs`.

use chs_cycle::{run_trace, CycleAccounting, CycleConfig, NoopObserver, SchedulePolicy};
use chs_dist::fit::fit_model;
use chs_dist::ModelKind;
use chs_markov::CheckpointCosts;
use chs_pool::{
    build_policy_store, FabricConfig, PoolSim, PoolSimConfig, SchedulePolicyBridge, Seg,
    StorePolicy, VecTimeline, Workload, WorkloadConfig,
};
use proptest::prelude::*;

/// Bitwise ledger equality: `PartialEq` would accept `-0.0 == 0.0`; the
/// identity gate must not.
fn assert_ledger_bitwise(pool: &CycleAccounting, reference: &CycleAccounting) {
    let fields = |a: &CycleAccounting| {
        [
            ("useful_seconds", a.useful_seconds),
            ("lost_seconds", a.lost_seconds),
            ("lost_work_seconds", a.lost_work_seconds),
            ("recovery_seconds", a.recovery_seconds),
            ("checkpoint_seconds", a.checkpoint_seconds),
            ("total_seconds", a.total_seconds),
            ("megabytes", a.megabytes),
            ("full_megabytes", a.full_megabytes),
            ("partial_megabytes", a.partial_megabytes),
        ]
    };
    for ((name, p), (_, r)) in fields(pool).into_iter().zip(fields(reference)) {
        assert_eq!(
            p.to_bits(),
            r.to_bits(),
            "{name} differs: pool {p:?} vs closed form {r:?}"
        );
    }
    assert_eq!(pool.recoveries, reference.recoveries);
    assert_eq!(pool.recoveries_completed, reference.recoveries_completed);
    assert_eq!(pool.checkpoints_attempted, reference.checkpoints_attempted);
    assert_eq!(pool.checkpoints_committed, reference.checkpoints_committed);
    assert_eq!(pool.failures, reference.failures);
}

/// A dyadic-exact age-dependent schedule: alternates two integer
/// intervals by age bracket, exercising replanning without leaving
/// exact-FP territory.
struct DyadicPolicy {
    short: f64,
    long: f64,
}

impl SchedulePolicy for DyadicPolicy {
    fn next_interval(&self, age: f64) -> f64 {
        if age < 1024.0 {
            self.short
        } else {
            self.long
        }
    }

    fn label(&self) -> String {
        "dyadic".into()
    }
}

/// 1-machine pool config whose only bottleneck is the NIC: 512 MB image
/// at 4 MB/s is a 128 s transfer, the closed form's `c = R = 128`.
fn uncontended_config(window: f64) -> (PoolSimConfig, CycleConfig) {
    let pool = PoolSimConfig {
        machines: 1,
        fabric: FabricConfig {
            nic_mb_s: 4.0,
            uplink_mb_s: 4.0,
            core_mb_s: 4.0,
            rack_size: 1,
        },
        image_mb: 512.0,
        window,
        count_recovery_bytes: true,
        keep_ledgers: true,
        stress_insertion_order: false,
    };
    let closed = CycleConfig {
        checkpoint_cost: 128.0,
        recovery_cost: 128.0,
        image_mb: 512.0,
        count_recovery_bytes: true,
    };
    (pool, closed)
}

#[test]
fn uncontended_pool_is_bitwise_identical_to_closed_form() {
    // Hand-picked durations covering every exit path: mid-recovery
    // eviction (100 < 128), mid-work eviction, mid-checkpoint eviction,
    // and an exact commit-boundary exhaustion (128 + 200 + 128 = 456).
    let durations = [100.0, 1000.0, 456.0, 300.0, 4096.0, 129.0];
    let mut segs = Vec::new();
    let mut t0 = 0.0;
    for &d in &durations {
        segs.push(Seg {
            start: t0,
            end: t0 + d,
        });
        t0 += d + 64.0; // integer gaps keep everything exact
    }
    let (pool_cfg, closed_cfg) = uncontended_config(t0 + 1.0);
    let policy = DyadicPolicy {
        short: 200.0,
        long: 320.0,
    };
    let expect = run_trace(&durations, &policy, &closed_cfg, &mut NoopObserver);
    let got = PoolSim::run(
        &pool_cfg,
        &VecTimeline(vec![segs]),
        &mut SchedulePolicyBridge(DyadicPolicy {
            short: 200.0,
            long: 320.0,
        }),
    )
    .unwrap();
    assert_ledger_bitwise(&got.cycle, &expect);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random dyadic traces: any integer segment/gap/interval mix stays
    /// bitwise identical to the closed form.
    #[test]
    fn random_dyadic_traces_match_closed_form_bitwise(
        durations in proptest::collection::vec(1u32..6_000, 1..12),
        gaps in proptest::collection::vec(1u32..2_000, 12..13),
        short in 16u32..1_500,
        long in 16u32..1_500,
    ) {
        let mut segs = Vec::new();
        let mut t0 = 0.0;
        let durations: Vec<f64> = durations.iter().map(|&d| d as f64).collect();
        for (i, &d) in durations.iter().enumerate() {
            t0 += gaps[i] as f64;
            segs.push(Seg { start: t0, end: t0 + d });
            t0 += d;
        }
        let (pool_cfg, closed_cfg) = uncontended_config(t0 + 1.0);
        let policy = DyadicPolicy { short: short as f64, long: long as f64 };
        let expect = run_trace(&durations, &policy, &closed_cfg, &mut NoopObserver);
        let got = PoolSim::run(
            &pool_cfg,
            &VecTimeline(vec![segs]),
            &mut SchedulePolicyBridge(DyadicPolicy { short: short as f64, long: long as f64 }),
        ).unwrap();
        assert_ledger_bitwise(&got.cycle, &expect);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    /// Replays are bitwise identical under reversed machine insertion and
    /// under a policy store built on one thread instead of many.
    #[test]
    fn replay_is_bitwise_deterministic(seed in 0u64..1_000) {
        let wl_cfg = WorkloadConfig {
            machines: 96,
            rack_size: 16,
            unique_streams: 3,
            seed: 40_000 + seed,
            ..WorkloadConfig::default()
        };
        let workload = Workload::new(wl_cfg).unwrap();
        let fits: Vec<_> = (0..workload.streams())
            .map(|s| fit_model(ModelKind::Weibull, &workload.history(s)).unwrap())
            .collect();
        let pool_cfg = PoolSimConfig {
            machines: wl_cfg.machines,
            fabric: FabricConfig {
                nic_mb_s: 4.0,
                uplink_mb_s: 20.0,
                core_mb_s: 60.0,
                rack_size: wl_cfg.rack_size,
            },
            image_mb: 512.0,
            window: 86_400.0 / 4.0,
            count_recovery_bytes: true,
            keep_ledgers: false,
            stress_insertion_order: false,
        };
        let costs = CheckpointCosts::symmetric(pool_cfg.nominal_cost());
        let stream_of = |m: u32| workload.stream_of(m);
        let (store_par, _) =
            build_policy_store(&fits, wl_cfg.machines, stream_of, costs, 1).unwrap();
        let single = rayon::ThreadPoolBuilder::new().num_threads(1).build().unwrap();
        let (store_seq, _) = single
            .install(|| build_policy_store(&fits, wl_cfg.machines, stream_of, costs, 1))
            .unwrap();
        prop_assert_eq!(store_par.digest(), store_seq.digest());

        let a = PoolSim::run(&pool_cfg, &workload, &mut StorePolicy::new(store_par)).unwrap();
        let mut reversed = pool_cfg;
        reversed.stress_insertion_order = true;
        let b = PoolSim::run(&reversed, &workload, &mut StorePolicy::new(store_seq)).unwrap();
        prop_assert_eq!(a.digest, b.digest);
        prop_assert_eq!(a.events, b.events);
        prop_assert_eq!(a.cycle, b.cycle);
    }
}
