//! Deferred refits against the inline loop.
//!
//! `Scheduler::observe` parks each machine's refit and resolves all
//! parked refits in one parallel batch when an outcome is needed. The
//! reference here is the inline loop it replaced: per machine,
//! `StreamingFit::step`, which refits at the trigger itself. On generated
//! event streams the two must agree bitwise:
//!
//! * every trigger `observe` returns;
//! * per machine, after every publish and at the end: the model, the
//!   `EmState`, the detector statistic, the window and the counters;
//! * every store digest, every served answer and the `RunSummary`;
//! * at 1 and 2 threads.
//!
//! Store digests and the summary need the scheduler's publish path, so
//! their reference is a scheduler that flushes after every observation —
//! each refit then resolves at its own trigger, which is what `step`
//! does. That scheduler is itself checked against the `step` reference
//! machine by machine after every observation.
//!
//! The streams cover all three families; detectors whose readiness after
//! a refit is shorter than the refresh cadence (so regime shifts fire
//! and horizons are short, down to a hair trigger that fires at the
//! first observation it can) and longer; refresh turned off; machines
//! that interleave and machines that arrive in bursts; publishes and
//! queries mid-stream; and the inputs whose refits fail — identical
//! durations under a Weibull fit, and subnormal durations.

use std::collections::BTreeMap;

use chs_dist::fit::{DetectorConfig, RefitTrigger, StreamingFit, StreamingFitConfig};
use chs_dist::{AvailabilityModel, Exponential, ModelKind, Weibull};
use chs_markov::{mix64, CheckpointCosts, CompressionConfig};
use chs_sched::{Event, RunSummary, Scheduler, SchedulerConfig};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use rayon::ThreadPoolBuilder;

/// What one machine streams.
#[derive(Debug, Clone, Copy)]
enum Source {
    /// Heavy-tailed stationary Weibull draws.
    Stationary,
    /// Exponential, then a 16× longer mean halfway through.
    Shift,
    /// Varied durations, then one value repeated: Weibull refits fail
    /// once the window holds only that value, with a model installed.
    TurnsIdentical,
    /// One value from the start: a Weibull initial fit keeps failing.
    Identical,
    /// Varied durations, then one subnormal value repeated: once the
    /// window holds only that value every refit fails, while the
    /// detector, left running, fires on each observation it can.
    TurnsSubnormal,
    /// One subnormal duration repeated: no family can fit it.
    Subnormal,
}

const SOURCES: [Source; 6] = [
    Source::Stationary,
    Source::Shift,
    Source::TurnsIdentical,
    Source::Identical,
    Source::TurnsSubnormal,
    Source::Subnormal,
];

fn durations(source: Source, n: usize, seed: u64) -> Vec<f64> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let wbl = Weibull::new(0.7, 1_500.0).unwrap();
    let short = Exponential::from_mean(1_000.0).unwrap();
    let long = Exponential::from_mean(16_000.0).unwrap();
    (0..n)
        .map(|i| match source {
            Source::Stationary => wbl.sample(&mut rng),
            Source::Shift if i < n / 2 => short.sample(&mut rng),
            Source::Shift => long.sample(&mut rng),
            Source::TurnsIdentical | Source::TurnsSubnormal if i < 40 => wbl.sample(&mut rng),
            Source::TurnsIdentical | Source::Identical => 500.0,
            Source::TurnsSubnormal | Source::Subnormal => 1e-310,
        })
        .collect()
}

/// A machine-interleaved or bursty tape with queries and publishes
/// scattered through it. Fully determined by `seed`.
fn tape(
    sources: &[Source],
    machines: u64,
    per_machine: usize,
    bursty: bool,
    seed: u64,
) -> Vec<Event> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut streams: Vec<std::vec::IntoIter<f64>> = (0..machines)
        .map(|m| {
            let source = sources[m as usize % sources.len()];
            durations(source, per_machine, seed ^ (m + 1) << 8).into_iter()
        })
        .collect();
    let mut events = Vec::new();
    let mut live: Vec<u64> = (0..machines).collect();
    let mut turn = 0usize;
    while !live.is_empty() {
        let slot = if bursty {
            rng.gen_range(0..live.len())
        } else {
            turn % live.len()
        };
        turn += 1;
        let machine = live[slot];
        let burst = if bursty { rng.gen_range(1..40) } else { 1 };
        for _ in 0..burst {
            match streams[machine as usize].next() {
                Some(duration) => events.push(Event::Observe { machine, duration }),
                None => {
                    live.remove(slot);
                    break;
                }
            }
        }
        if rng.gen_range(0..8) == 0 {
            events.push(Event::Query {
                machine: rng.gen_range(0..machines),
                age: rng.gen_range(0.0..50_000.0),
            });
        }
        if rng.gen_range(0..200) == 0 {
            events.push(Event::Publish);
        }
    }
    events.push(Event::Publish);
    events
}

/// Streaming configurations whose horizons bind differently.
fn streaming_configs(kind: ModelKind) -> Vec<(&'static str, StreamingFitConfig)> {
    let base = StreamingFitConfig {
        kind,
        window: 48,
        min_fit_observations: 25,
        warm_iterations: 60,
        ..StreamingFitConfig::default()
    };
    let detector = |window, min_observations, threshold| DetectorConfig {
        window,
        min_observations,
        threshold,
    };
    vec![
        // Armed readiness 24 < cadence 40: regime shifts fire between
        // refreshes.
        (
            "short-dead-time",
            StreamingFitConfig {
                detector: detector(16, 8, 6.0),
                refresh_every: Some(40),
                ..base.clone()
            },
        ),
        // Fires at the first observation it can: readiness is the horizon.
        (
            "hair-trigger",
            StreamingFitConfig {
                detector: detector(12, 6, 1e-9),
                refresh_every: Some(30),
                ..base.clone()
            },
        ),
        // Armed readiness 176 > cadence 32: the cadence is the horizon.
        (
            "long-dead-time",
            StreamingFitConfig {
                refresh_every: Some(32),
                ..base.clone()
            },
        ),
        (
            "no-refresh",
            StreamingFitConfig {
                detector: detector(16, 8, 6.0),
                refresh_every: None,
                ..base
            },
        ),
    ]
}

fn scheduler_config(streaming: StreamingFitConfig) -> SchedulerConfig {
    // Coarse tables: publishes here only have to be deterministic.
    let compression = CompressionConfig {
        max_rel_error: 0.05,
        max_depth: 4,
        ..CompressionConfig::new(CheckpointCosts::symmetric(110.0))
    };
    let mut cfg = SchedulerConfig::new(streaming, compression);
    cfg.publish_every = 250;
    cfg
}

/// Every bit of a machine's streaming state the suite compares. `{:?}`
/// prints each `f64` in its shortest round-trip form, so equal strings
/// mean equal bits.
fn fingerprint(fit: &StreamingFit) -> String {
    format!(
        "model {:?} em {:?} stat {:x} window {:?} obs {} refits {} failures {} triggers {}",
        fit.model(),
        fit.em_state(),
        fit.detector().statistic().to_bits(),
        fit.refit_input(),
        fit.observations(),
        fit.refits(),
        fit.refit_failures(),
        fit.triggers(),
    )
}

/// The inline loop: the scheduler's ingest before refits were deferred,
/// `StreamingFit::step` per machine.
struct Inline {
    config: StreamingFitConfig,
    machines: BTreeMap<u64, StreamingFit>,
}

impl Inline {
    fn observe(&mut self, machine: u64, duration: f64) -> Option<RefitTrigger> {
        let config = &self.config;
        self.machines
            .entry(machine)
            .or_insert_with(|| StreamingFit::new(config.clone()).unwrap())
            .step(duration)
            .expect("valid duration")
    }
}

/// Everything a drive produces.
#[derive(Debug, PartialEq)]
struct Trace {
    triggers: Vec<Option<RefitTrigger>>,
    summary: RunSummary,
    /// Per-machine fingerprints after each publish (all refits resolved).
    at_publishes: Vec<Vec<String>>,
    /// Per-machine fingerprints at the end, after a flush.
    at_end: Vec<String>,
    refit_failures: u64,
    ingested: u64,
}

fn fingerprints(sched: &Scheduler, ids: impl Iterator<Item = u64>) -> Vec<String> {
    ids.map(|id| fingerprint(sched.machine(id).unwrap()))
        .collect()
}

/// Replay `events` the way `Scheduler::run` does, recording every
/// trigger and answer. `eager` flushes after every observation (refits
/// resolve at their triggers) and checks each observed machine against
/// the inline loop on the spot.
fn drive(config: &SchedulerConfig, events: &[Event], eager: bool) -> Trace {
    let mut sched = Scheduler::new(config.clone()).unwrap();
    let mut inline = Inline {
        config: config.streaming.clone(),
        machines: BTreeMap::new(),
    };
    let mut summary = RunSummary::default();
    let mut triggers = Vec::new();
    let mut at_publishes = Vec::new();
    let mut publish = |sched: &mut Scheduler, summary: &mut RunSummary, inline: &Inline| {
        summary.publishes.push(sched.publish().unwrap().digest());
        let snapshot = fingerprints(sched, inline.machines.keys().copied());
        let reference: Vec<String> = inline.machines.values().map(fingerprint).collect();
        assert_eq!(snapshot, reference, "machines diverged at a publish");
        at_publishes.push(snapshot);
    };
    for event in events {
        match *event {
            Event::Observe { machine, duration } => {
                let trigger = sched.observe(machine, duration).unwrap();
                let expected = inline.observe(machine, duration);
                assert_eq!(trigger, expected, "trigger at event {}", triggers.len());
                triggers.push(trigger);
                if eager {
                    sched.flush();
                    assert_eq!(
                        fingerprint(sched.machine(machine).unwrap()),
                        fingerprint(&inline.machines[&machine]),
                        "eager scheduler left the inline loop at event {}",
                        triggers.len()
                    );
                }
                summary.observations += 1;
                if sched.ingested().is_multiple_of(config.publish_every) {
                    publish(&mut sched, &mut summary, &inline);
                }
            }
            Event::Query { machine, age } => {
                summary.queries += 1;
                let mut h = mix64(summary.query_digest ^ machine);
                match sched.decide(machine, age) {
                    Some(d) => {
                        summary.answered += 1;
                        h = mix64(h ^ d.work_seconds.to_bits());
                        h = mix64(h ^ d.seed);
                    }
                    None => h = mix64(h ^ 0x6e6f_2d61_6e73_7765),
                }
                summary.query_digest = h;
            }
            Event::Publish => publish(&mut sched, &mut summary, &inline),
        }
    }
    summary.refits = sched.refits();
    summary.regime_shifts = sched.regime_shifts();
    sched.flush();
    let at_end = fingerprints(&sched, inline.machines.keys().copied());
    let reference: Vec<String> = inline.machines.values().map(fingerprint).collect();
    assert_eq!(at_end, reference, "machines diverged at the end");
    let failures: u64 = inline.machines.values().map(|f| f.refit_failures()).sum();
    assert_eq!(sched.refit_failures(), failures);
    Trace {
        triggers,
        summary,
        at_publishes,
        at_end,
        refit_failures: sched.refit_failures(),
        ingested: sched.ingested(),
    }
}

fn on_threads<T>(threads: usize, f: impl FnOnce() -> T) -> T {
    ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .unwrap()
        .install(f)
}

/// Deferred (1 and 2 threads) and eager drives agree, and the deferred
/// `Scheduler::run` returns the same summary.
fn check(kind: ModelKind, machines: u64, per_machine: usize, seed: u64) -> Vec<Trace> {
    // A Weibull fit of a window mixing normal and subnormal durations
    // can have no compressible policy, and the publish fails.
    let sources: Vec<Source> = SOURCES
        .into_iter()
        .filter(|s| kind != ModelKind::Weibull || !matches!(s, Source::TurnsSubnormal))
        .collect();
    let mut traces = Vec::new();
    for (name, streaming) in streaming_configs(kind) {
        let config = scheduler_config(streaming);
        for bursty in [false, true] {
            let events = tape(&sources, machines, per_machine, bursty, seed);
            let eager = drive(&config, &events, true);
            let deferred = on_threads(1, || drive(&config, &events, false));
            let wide = on_threads(2, || drive(&config, &events, false));
            let context = format!("{kind:?} {name} bursty={bursty}");
            assert_eq!(deferred, eager, "deferred vs inline: {context}");
            assert_eq!(wide, deferred, "1 vs 2 threads: {context}");
            let run = on_threads(2, || {
                let mut sched = Scheduler::new(config.clone()).unwrap();
                sched.run(&events).unwrap()
            });
            assert_eq!(run, eager.summary, "Scheduler::run: {context}");
            traces.push(eager);
        }
    }
    traces
}

fn count(traces: &[Trace], trigger: RefitTrigger) -> usize {
    traces
        .iter()
        .flat_map(|t| &t.triggers)
        .filter(|&&t| t == Some(trigger))
        .count()
}

#[test]
fn exponential_deferred_refits_match_the_inline_loop() {
    let traces = check(ModelKind::Exponential, 10, 160, 11);
    assert!(count(&traces, RefitTrigger::RegimeShift) > 0);
    assert!(count(&traces, RefitTrigger::Refresh) > 0);
    assert!(
        traces.iter().all(|t| t.refit_failures > 0),
        "subnormal fits fail"
    );
}

#[test]
fn weibull_deferred_refits_match_the_inline_loop() {
    let traces = check(ModelKind::Weibull, 10, 160, 23);
    assert!(count(&traces, RefitTrigger::RegimeShift) > 0);
    assert!(count(&traces, RefitTrigger::Refresh) > 0);
    assert!(traces.iter().all(|t| t.refit_failures > 0));
    assert!(traces.iter().any(|t| t.summary.answered > 0));
}

#[test]
fn hyperexponential_deferred_refits_match_the_inline_loop() {
    let traces = check(ModelKind::HyperExponential { phases: 2 }, 6, 120, 37);
    assert!(count(&traces, RefitTrigger::RegimeShift) > 0);
    assert!(count(&traces, RefitTrigger::Refresh) > 0);
    assert!(traces.iter().all(|t| t.ingested == 6 * 120));
}
