//! `pool-congested`: a pool-scale discrete-event run on a saturated
//! machine → rack → core fabric, planning from a policy store built in
//! setup. Fitting and publishing are bypassed, so a fit or store-build
//! speed-up must leave this workload unchanged; the calendar, fabric and
//! engine do most of the work and store lookups the rest.
//!
//! The ground truths of the availability streams (and so the fits and the
//! store) are the default workload population's; the seed picks which
//! realization of every machine's availability the run sees.

use super::{check_ledger, fold, ledger_values, Checked, Iteration, Scale, Workload};
use crate::trace::{Agg, Tracer};
use chs_dist::fit::fit_model;
use chs_dist::ModelKind;
use chs_markov::{CheckpointCosts, PolicyStore};
use chs_pool::{
    build_policy_store, FabricConfig, PoolPolicy, PoolResult, PoolSim, PoolSimConfig, Seg,
    StorePolicy, Timeline, Workload as Availability, WorkloadConfig,
};
use std::cell::Cell;
use std::sync::Arc;

/// Machines per rack.
const RACK_SIZE: usize = 32;
/// Per-machine NIC rate, MB/s.
const NIC_MB_S: f64 = 4.0;
/// Rack uplink, MB/s: 4:1 oversubscribed against 32 NICs.
const UPLINK_MB_S: f64 = 32.0;
/// Core capacity per rack, MB/s: 8:1 oversubscribed against uplinks,
/// which saturates the core.
const CORE_PER_RACK_MB_S: f64 = UPLINK_MB_S / 8.0;
/// Checkpoint image, MB (128 s uncontended).
const IMAGE_MB: f64 = 512.0;
/// Distinct availability ground truths dealt over racks.
const STREAMS: usize = 256;

/// The workload at one size.
pub struct PoolCongested {
    machines: usize,
    window: f64,
}

impl PoolCongested {
    /// Sizes for `scale`.
    pub fn new(scale: Scale) -> Self {
        match scale {
            Scale::Bench => PoolCongested {
                machines: 20_000,
                window: 86_400.0,
            },
            Scale::Quick => PoolCongested {
                machines: 256,
                window: 7_200.0,
            },
        }
    }
}

/// The generated pool and the store it plans from.
pub struct PoolInput {
    timeline: Realization,
    config: PoolSimConfig,
    store: Arc<PolicyStore>,
}

/// The run's result and its wall time.
pub struct PoolOutput {
    result: PoolResult,
    run_s: f64,
}

impl Workload for PoolCongested {
    type Input = PoolInput;
    type Output = PoolOutput;

    fn setup(&self, seed: u64) -> PoolInput {
        let workload = Availability::new(WorkloadConfig {
            machines: self.machines,
            rack_size: RACK_SIZE,
            unique_streams: STREAMS.min(self.machines),
            history_len: 64,
            mean_gap: 1_800.0,
            ..WorkloadConfig::default()
        })
        .expect("valid workload config");
        let fits: Vec<_> = (0..workload.streams())
            .map(|s| fit_model(ModelKind::Weibull, &workload.history(s)).expect("stream fit"))
            .collect();
        let racks = self.machines.div_ceil(RACK_SIZE);
        let config = PoolSimConfig {
            machines: self.machines,
            fabric: FabricConfig {
                nic_mb_s: NIC_MB_S,
                uplink_mb_s: UPLINK_MB_S,
                core_mb_s: (racks as f64 * CORE_PER_RACK_MB_S).max(NIC_MB_S),
                rack_size: RACK_SIZE,
            },
            image_mb: IMAGE_MB,
            window: self.window,
            count_recovery_bytes: true,
            keep_ledgers: false,
            stress_insertion_order: false,
        };
        let costs = CheckpointCosts::symmetric(config.nominal_cost());
        let (store, _) =
            build_policy_store(&fits, self.machines, |m| workload.stream_of(m), costs, 1)
                .expect("policy store build");
        // Whole rack × stream cycles keep every machine's stream.
        let cycle = (RACK_SIZE * workload.streams()) as u64;
        let cycles = (u64::from(u32::MAX) - self.machines as u64) / cycle;
        let shift = (chs_markov::mix64(seed) % cycles * cycle) as u32;
        PoolInput {
            timeline: Realization { workload, shift },
            config,
            store,
        }
    }

    fn input_digest(&self, input: &PoolInput) -> u64 {
        let workload = &input.timeline.workload;
        let h = (0..workload.streams())
            .flat_map(|s| workload.history(s))
            .fold(0, |h, x| fold(h, x.to_bits()));
        fold(
            fold(h, input.store.digest()),
            u64::from(input.timeline.shift),
        )
    }

    fn run(&self, input: &PoolInput, tracer: &mut Tracer) -> PoolOutput {
        let mut policy = StorePolicy::new(Arc::clone(&input.store));
        let phase = tracer.enter("pool.run");
        let result = if tracer.enabled() {
            let mut policy = CountedPolicy {
                inner: &mut policy,
                agg: Agg::default(),
            };
            let timeline = CountedTimeline {
                inner: &input.timeline,
                agg: Cell::new(Agg::default()),
            };
            let result = PoolSim::run(&input.config, &timeline, &mut policy);
            tracer.add("pool.policy", &policy.agg);
            tracer.add("pool.timeline", &timeline.agg.get());
            result
        } else {
            PoolSim::run(&input.config, &input.timeline, &mut policy)
        };
        let run_s = tracer.exit(phase);
        PoolOutput {
            result: result.expect("pool run"),
            run_s,
        }
    }

    fn summarize(&self, out: &PoolOutput) -> Iteration {
        let r = &out.result;
        let mut it = Iteration::default();
        it.timings
            .insert("events_per_s", r.events as f64 / out.run_s);
        ledger_values(&r.cycle, &mut it.values);
        let v = &mut it.values;
        v.insert("pool.events", r.events as f64);
        v.insert(
            "pool.stale_ratio",
            r.stale_events as f64 / (r.events + r.stale_events).max(1) as f64,
        );
        v.insert("pool.transfers_completed", r.transfers_completed as f64);
        v.insert("pool.mean_transfer_s", r.mean_transfer_seconds);
        v.insert("pool.core_util_mean", r.core_utilization.mean);
        v.insert("pool.concurrency_mean", r.concurrency.mean);
        it.digest = fold(fold(r.digest, r.events), r.stale_events);
        it.attempted = 1;
        it
    }

    fn check(&self, _input: &PoolInput, out: &PoolOutput) -> Checked {
        let mut checked = Checked::default();
        let r = &out.result;
        check_ledger("pool", &r.cycle, &mut checked.failures);
        if r.events == 0 || r.machines != self.machines {
            checked.failures.push(format!(
                "pool ran {} events over {} machines",
                r.events, r.machines
            ));
        }
        if r.core_utilization.max.is_nan() || r.core_utilization.max > 1.0 + 1e-9 {
            checked.failures.push(format!(
                "core utilization {} above capacity",
                r.core_utilization.max
            ));
        }
        checked
    }
}

/// A [`PoolPolicy`] that times every call into the store.
struct CountedPolicy<'a> {
    inner: &'a mut StorePolicy,
    agg: Agg,
}

impl PoolPolicy for CountedPolicy<'_> {
    fn next_interval(
        &mut self,
        machine: u32,
        age: f64,
        measured_cost_s: f64,
    ) -> chs_pool::Result<f64> {
        let inner = &mut *self.inner;
        self.agg
            .time(1, || inner.next_interval(machine, age, measured_cost_s))
    }

    fn label(&self) -> String {
        self.inner.label()
    }
}

/// The seed's realization of the workload: `Availability` draws machine
/// `m`'s segments from a stream keyed by `m` and deals ground truths
/// round-robin over racks, so machine `m + shift`, for a shift of whole
/// rack × stream cycles, has `m`'s ground truth and fresh draws.
struct Realization {
    workload: Availability,
    shift: u32,
}

impl Timeline for Realization {
    fn segment(&self, machine: u32, index: u32, prev_end: f64) -> Option<Seg> {
        self.workload.segment(machine + self.shift, index, prev_end)
    }
}

/// A [`Timeline`] that times every segment drawn from the workload.
struct CountedTimeline<'a> {
    inner: &'a Realization,
    agg: Cell<Agg>,
}

impl Timeline for CountedTimeline<'_> {
    fn segment(&self, machine: u32, index: u32, prev_end: f64) -> Option<Seg> {
        let mut agg = self.agg.get();
        let seg = agg.time(1, || self.inner.segment(machine, index, prev_end));
        self.agg.set(agg);
        seg
    }
}
