//! `fleet-weibull` and `fleet-hyperexp`: the online serving path.
//!
//! One script and one Weibull-distributed fleet, two fit families. A
//! fleet streams its training
//! observations into a [`Scheduler`], publishes a cold policy store, then
//! a quarter of the fleet drifts to a 4× longer availability scale and
//! streams post-drift observations, the store republishes warm, and a
//! single thread serves `next_interval` queries from it. Half the
//! machines are clones of the other half (homogeneous racks), so the
//! dedup cache has real work to merge.
//!
//! With Weibull fits the store build (Γ kernels, compression, cache)
//! dominates; with 2-phase hyperexponential fits the streaming EM refits
//! dominate. A fit speed-up shows on one, a store speed-up on the other.

use super::{check_ledger, fold, ledger_values, Checked, Iteration, Scale, Workload};
use crate::trace::{Agg, Tracer};
use chs_cycle::{run_trace, CycleAccounting, CycleConfig, NoopObserver, SchedulePolicy};
use chs_dist::fit::StreamingFitConfig;
use chs_dist::{AvailabilityModel, ModelKind, Weibull};
use chs_markov::{
    CheckpointCosts, CompressionConfig, PolicyStore, VaidyaModel, DEFAULT_MAX_REL_ERROR,
};
use chs_sched::{Scheduler, SchedulerConfig};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use rayon::prelude::*;

/// Training observations per machine: the paper's 25-duration prefix,
/// which is also the streaming fit's first-fit threshold.
const TRAIN_OBS: usize = 25;
/// Post-drift observations streamed into each drifted machine.
const DRIFT_OBS: usize = 80;
/// Availability-scale multiplier of a drifted machine.
const DRIFT_SCALE: f64 = 4.0;
/// Every `DRIFT_EVERY`-th stream drifts (a quarter of the fleet).
const DRIFT_EVERY: usize = 4;
/// Checkpoint cost the policies are built for and the held-out replay
/// runs at (500 MB images), seconds.
const COST_S: f64 = 110.0;
/// Queries per timed serving batch.
const BATCH: usize = 4_096;
/// Held-out availability durations replayed per evaluated machine.
const HELD_OUT_OBS: usize = 200;

/// Which family the fleet is fitted with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// Weibull fits: store builds dominate.
    Weibull,
    /// 2-phase hyperexponential fits: EM refits dominate.
    HyperExp,
}

/// The workload at one size.
pub struct Fleet {
    family: Family,
    machines: usize,
    queries: usize,
    accuracy_machines: usize,
    accuracy_ages: usize,
    eval_machines: usize,
}

impl Fleet {
    /// Sizes for `family` at `scale`.
    pub fn new(family: Family, scale: Scale) -> Self {
        let (machines, queries) = match (family, scale) {
            (Family::Weibull, Scale::Bench) => (8_000, 800_000),
            (Family::HyperExp, Scale::Bench) => (2_500, 250_000),
            (_, Scale::Quick) => (64, 8_192),
        };
        let (accuracy_machines, accuracy_ages, eval_machines) = match scale {
            Scale::Bench => (64, 120, 2_048),
            Scale::Quick => (4, 12, 16),
        };
        Fleet {
            family,
            machines,
            queries,
            accuracy_machines,
            accuracy_ages,
            eval_machines,
        }
    }

    fn unique(&self) -> usize {
        (self.machines / 2).max(1)
    }

    fn stream_of(&self, machine: u64) -> usize {
        machine as usize % self.unique()
    }

    fn drifted(stream: usize) -> bool {
        stream.is_multiple_of(DRIFT_EVERY)
    }

    fn kind(&self) -> ModelKind {
        match self.family {
            Family::Weibull => ModelKind::Weibull,
            Family::HyperExp => ModelKind::HyperExponential { phases: 2 },
        }
    }

    /// Weibull ground truth of `stream`, before or after its drift:
    /// heavy-tailed shapes in [0.45, 0.9], scales over ~1.5 decades. The
    /// streams walk the parameter square along a low-discrepancy
    /// sequence, so every fleet of a given size has the same population
    /// and the seed only draws the observations.
    fn truth(stream: usize, after_drift: bool) -> Weibull {
        let frac = |x: f64| x - x.floor();
        let s = stream as f64 + 1.0;
        let shape = 0.45 + 0.45 * frac(s * 0.754_877_666_246_692_7);
        let scale = 600.0 * 30f64.powf(frac(s * 0.569_840_290_998_053_3));
        let stretch = if after_drift { DRIFT_SCALE } else { 1.0 };
        Weibull::new(shape, scale * stretch).expect("valid Weibull")
    }

    fn draws(truth: &Weibull, seed: u64, n: usize) -> Vec<f64> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        (0..n).map(|_| truth.sample(&mut rng)).collect()
    }

    fn config(&self) -> SchedulerConfig {
        let mut cfg = SchedulerConfig::new(
            StreamingFitConfig {
                kind: self.kind(),
                ..StreamingFitConfig::default()
            },
            CompressionConfig::new(CheckpointCosts::symmetric(COST_S)),
        );
        cfg.publish_every = 0;
        cfg
    }

    /// Machines `0, stride, 2·stride, …` — `count` of them.
    fn sample(&self, count: usize) -> impl Iterator<Item = u64> {
        let stride = (self.machines / count).max(1);
        (0..self.machines as u64).step_by(stride).take(count)
    }
}

/// Streams generated from the seed.
pub struct FleetInput {
    /// Training durations per stream (machine `m` trains on stream
    /// `m mod machines/2`).
    train: Vec<Vec<f64>>,
    /// Post-drift durations per stream; empty for streams that do not
    /// drift.
    drift: Vec<Vec<f64>>,
    /// Held-out post-drift availability of the evaluated machines.
    held_out: Vec<(u64, Vec<f64>)>,
}

/// The scheduler after the script, plus the serving loop's results.
pub struct FleetOutput {
    sched: Scheduler,
    cold_digest: u64,
    query_digest: u64,
    observations: u64,
    rejected: u64,
    unanswered: u64,
    ingest_s: f64,
    publish_s: f64,
    republish_s: f64,
    serve_s: f64,
}

impl Workload for Fleet {
    type Input = FleetInput;
    type Output = FleetOutput;

    fn setup(&self, seed: u64) -> FleetInput {
        let unique = self.unique();
        let stream_seed = |s: usize, salt: u64| seed ^ ((s as u64) << 20) ^ salt;
        let train = (0..unique)
            .map(|s| Self::draws(&Self::truth(s, false), stream_seed(s, 0xa5a5), TRAIN_OBS))
            .collect();
        let drift = (0..unique)
            .map(|s| {
                if Self::drifted(s) {
                    Self::draws(&Self::truth(s, true), stream_seed(s, 0xd41f), DRIFT_OBS)
                } else {
                    Vec::new()
                }
            })
            .collect();
        let held_out = self
            .sample(self.eval_machines)
            .map(|m| {
                let s = self.stream_of(m);
                let truth = Self::truth(s, Self::drifted(s));
                (m, Self::draws(&truth, fold(seed ^ 0x4e1d, m), HELD_OUT_OBS))
            })
            .collect();
        FleetInput {
            train,
            drift,
            held_out,
        }
    }

    fn input_digest(&self, input: &FleetInput) -> u64 {
        let streams = input.train.iter().chain(&input.drift);
        let held_out = input.held_out.iter().map(|(_, d)| d);
        streams
            .chain(held_out)
            .flatten()
            .fold(0, |h, x| fold(h, x.to_bits()))
    }

    fn run(&self, input: &FleetInput, tracer: &mut Tracer) -> FleetOutput {
        let mut sched = Scheduler::new(self.config()).expect("valid scheduler config");
        let (mut observations, mut rejected) = (0u64, 0u64);
        let mut observe = |sched: &mut Scheduler, machine: u64, xs: &[f64]| {
            for &x in xs {
                observations += 1;
                if sched.observe(machine, x).is_err() {
                    rejected += 1;
                }
            }
        };

        let phase = tracer.enter("sched.observe");
        for m in 0..self.machines as u64 {
            observe(&mut sched, m, &input.train[self.stream_of(m)]);
        }
        let mut ingest_s = tracer.exit(phase);

        let phase = tracer.enter("sched.publish");
        let cold_digest = sched.publish().expect("cold publish").digest();
        let publish_s = tracer.exit(phase);

        let phase = tracer.enter("sched.observe");
        for m in 0..self.machines as u64 {
            observe(&mut sched, m, &input.drift[self.stream_of(m)]);
        }
        ingest_s += tracer.exit(phase);

        let phase = tracer.enter("sched.republish");
        let store = sched.publish().expect("warm publish");
        let republish_s = tracer.exit(phase);

        let max_age = sched.config().compression.max_age;
        let (query_digest, unanswered, serve) =
            serve(&store, self.machines as u64, self.queries, max_age);
        tracer.add("markov.store.next_interval", &serve);
        FleetOutput {
            sched,
            cold_digest,
            query_digest,
            observations,
            rejected,
            unanswered,
            ingest_s,
            publish_s,
            republish_s,
            serve_s: serve.busy_s(),
        }
    }

    fn summarize(&self, out: &FleetOutput) -> Iteration {
        let mut it = Iteration::default();
        it.timings.insert("ingest_s", out.ingest_s);
        it.timings.insert("publish_s", out.publish_s);
        it.timings.insert("republish_s", out.republish_s);
        it.timings
            .insert("serve_qps", self.queries as f64 / out.serve_s);
        let store = out.sched.store();
        let stats = store.stats();
        let cache = out.sched.cache().counters();
        let v = &mut it.values;
        v.insert("sched.observe.calls", out.observations as f64);
        v.insert("sched.refits", out.sched.refits() as f64);
        v.insert("sched.regime_shifts", out.sched.regime_shifts() as f64);
        v.insert("markov.cache.builds", cache.builds as f64);
        v.insert("markov.cache.hits", cache.hits as f64);
        v.insert("markov.cache.shared", cache.shared as f64);
        v.insert(
            "markov.cache.hit_ratio",
            cache.hits as f64 / (cache.hits + cache.builds + cache.shared).max(1) as f64,
        );
        v.insert("markov.cluster_rejects", out.sched.cluster_rejects() as f64);
        v.insert("markov.store.tables", stats.tables as f64);
        v.insert(
            "markov.store.segments_per_table",
            stats.total_segments as f64 / stats.tables.max(1) as f64,
        );
        v.insert("markov.store.dedup_ratio", stats.dedup_ratio);
        v.insert("markov.store.next_interval.calls", self.queries as f64);
        it.attempted = out.observations + self.queries as u64;
        it.failed = out.rejected + out.unanswered;
        let h = fold(fold(out.cold_digest, store.digest()), out.query_digest);
        it.digest = fold(fold(h, out.sched.refits()), out.sched.regime_shifts());
        it
    }

    fn check(&self, input: &FleetInput, out: &FleetOutput) -> Checked {
        let mut checked = Checked::default();
        let store = out.sched.store();
        if store.len() != self.machines {
            checked.failures.push(format!(
                "store serves {} of {} machines",
                store.len(),
                self.machines
            ));
        }
        if out.rejected > 0 || out.unanswered > 0 {
            checked.failures.push(format!(
                "{} observations rejected, {} queries unanswered",
                out.rejected, out.unanswered
            ));
        }
        // The 1e-3 budget is the store's contract on continuous `T_opt`
        // surfaces; where a hyperexponential surface jumps between basins
        // the table can serve an interval between them, so that fleet
        // reports its error without gating on it.
        let err = self.serve_max_rel_err(&out.sched);
        let gated = self.family == Family::Weibull;
        if !(err.is_finite() && (!gated || err <= DEFAULT_MAX_REL_ERROR)) {
            checked.failures.push(format!(
                "served T_opt off by {err:.3e} relative (budget {DEFAULT_MAX_REL_ERROR:.0e})"
            ));
        }
        checked.values.insert("serve_max_rel_err", err);

        // Replay held-out availability under the served schedules: the
        // efficiency and network load the published policies deliver.
        let config = CycleConfig::paper(COST_S);
        let mut ledger = CycleAccounting::default();
        for (machine, durations) in &input.held_out {
            let policy = Served {
                store,
                machine: *machine,
            };
            ledger.absorb(&run_trace(durations, &policy, &config, &mut NoopObserver));
        }
        check_ledger("held-out replay", &ledger, &mut checked.failures);
        ledger_values(&ledger, &mut checked.values);
        checked
    }
}

impl Fleet {
    /// Largest relative gap between a served interval and the nearest
    /// exact Vaidya optimum of the machine's fitted model — the cold
    /// four-lane search (the one the store compresses) or the local
    /// optimum of the basin the served interval lies in — over sampled
    /// machines at age 0 and a log-spaced age grid up to the compression
    /// horizon. A bimodal hyperexponential `Γ/T` has two basins, and
    /// either one is an optimum; a served interval between them is not.
    fn serve_max_rel_err(&self, sched: &Scheduler) -> f64 {
        let max_age = sched.config().compression.max_age;
        let costs = sched.config().compression.costs;
        let n = self.accuracy_ages;
        let ages: Vec<f64> = std::iter::once(0.0)
            .chain((1..=n).map(|i| max_age.powf(i as f64 / n as f64)))
            .collect();
        let store = sched.store();
        let machines: Vec<u64> = self.sample(self.accuracy_machines).collect();
        machines
            .par_iter()
            .map(|&m| {
                let model = sched
                    .machine(m)
                    .and_then(|f| f.model())
                    .expect("every machine is fitted");
                let vaidya = VaidyaModel::new(model, costs).expect("valid costs");
                ages.iter().fold(0.0f64, |worst, &age| {
                    let served = store.next_interval(m, age).expect("published machine");
                    let optimum = |found: chs_markov::Result<chs_markov::OptimalInterval>| {
                        let t = found.expect("optimum").work_seconds;
                        (served / t - 1.0).abs()
                    };
                    let cold = optimum(vaidya.optimal_interval_lane(age));
                    let local = optimum(vaidya.optimal_interval_near_lane(age, served));
                    worst.max(cold.min(local))
                })
            })
            .collect::<Vec<f64>>()
            .into_iter()
            .fold(0.0, f64::max)
    }
}

/// Single-threaded serving: `queries` lookups scattered over machines and
/// ages (past the horizon too — the clamp path is part of serving),
/// timed per batch. Returns the answer digest, unanswered count and the
/// boundary aggregate.
fn serve(store: &PolicyStore, machines: u64, queries: usize, max_age: f64) -> (u64, u64, Agg) {
    let mut agg = Agg::default();
    let (mut digest, mut unanswered) = (0u64, 0u64);
    let mut i = 0u64;
    while (i as usize) < queries {
        let end = (i as usize + BATCH).min(queries) as u64;
        agg.time(end - i, || {
            for q in i..end {
                let machine = q.wrapping_mul(0x9e37_79b9_7f4a_7c15) % machines;
                let age = (q % 4_096) as f64 * (1.2 * max_age / 4_096.0);
                match store.next_interval(machine, age) {
                    Some(t) => digest ^= t.to_bits().rotate_left((q % 63) as u32),
                    None => unanswered += 1,
                }
            }
        });
        i = end;
    }
    (digest, unanswered, agg)
}

/// The served schedule of one machine as a cycle policy.
struct Served<'a> {
    store: &'a PolicyStore,
    machine: u64,
}

impl SchedulePolicy for Served<'_> {
    fn next_interval(&self, age: f64) -> f64 {
        self.store
            .next_interval(self.machine, age)
            .expect("published machine")
    }

    fn label(&self) -> String {
        format!("served({})", self.machine)
    }
}
