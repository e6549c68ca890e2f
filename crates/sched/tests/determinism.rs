//! The scheduler's two load-bearing differential suites:
//!
//! * **thread-count determinism** — the same event sequence replayed on
//!   1-thread and 4-thread rayon pools must produce bitwise-identical
//!   run summaries: every published store digest (epoch, machine map,
//!   every knot bit) and the order-sensitive query-answer digest;
//! * **streaming vs batch** — a machine fitted online from a stationary
//!   trace must serve the same policy the batch pipeline would have
//!   built: the initial streaming fit is bitwise the batch fit of the
//!   training prefix, and later cadence refits stay within
//!   `RACE_LL_SLACK` per observation of a batch refit of the same
//!   window.

use chs_dist::fit::{fit_model, StreamingFitConfig, RACE_LL_SLACK};
use chs_dist::{AvailabilityModel, Exponential, ModelKind, Weibull};
use chs_markov::{CheckpointCosts, CompressedPolicy, CompressionConfig};
use chs_sched::{Event, Scheduler, SchedulerConfig};
use rand::SeedableRng;
use rayon::ThreadPoolBuilder;

fn config(kind: ModelKind, publish_every: u64) -> SchedulerConfig {
    let mut cfg = SchedulerConfig::new(
        StreamingFitConfig {
            kind,
            ..StreamingFitConfig::default()
        },
        CompressionConfig::new(CheckpointCosts::symmetric(110.0)),
    );
    cfg.publish_every = publish_every;
    cfg
}

/// A mixed-fleet event tape: `n_machines` streams (exponential and
/// Weibull generators interleaved round-robin) with a query burst after
/// every observation round. Fully determined by `seed`.
fn event_tape(n_machines: u64, rounds: usize, seed: u64) -> Vec<Event> {
    let exp = Exponential::from_mean(1_200.0).unwrap();
    let wbl = Weibull::new(0.6, 2_000.0).unwrap();
    let mut rngs: Vec<_> = (0..n_machines)
        .map(|m| rand_chacha::ChaCha8Rng::seed_from_u64(seed ^ (m + 1)))
        .collect();
    let mut events = Vec::new();
    for round in 0..rounds {
        for m in 0..n_machines {
            let duration = if m % 2 == 0 {
                exp.sample(&mut rngs[m as usize])
            } else {
                wbl.sample(&mut rngs[m as usize])
            };
            events.push(Event::Observe {
                machine: m,
                duration,
            });
        }
        // Query every machine at a round-dependent age, including ages
        // past the compression horizon and machines still warming up.
        for m in 0..n_machines {
            events.push(Event::Query {
                machine: m,
                age: (round as f64) * 977.0,
            });
        }
    }
    events.push(Event::Publish);
    events
}

fn run_on_pool(threads: usize, events: &[Event]) -> chs_sched::RunSummary {
    let pool = ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .unwrap();
    pool.install(|| {
        let mut sched = Scheduler::new(config(ModelKind::Weibull, 64)).unwrap();
        sched.run(events).unwrap()
    })
}

#[test]
fn one_thread_and_four_threads_replay_bitwise_identically() {
    let events = event_tape(6, 60, 2005);
    let single = run_on_pool(1, &events);
    let wide = run_on_pool(4, &events);
    assert!(
        !single.publishes.is_empty() && single.answered > 0,
        "tape must exercise publishes and answered queries"
    );
    assert_eq!(single, wide, "1-thread vs 4-thread run summaries diverged");
    // Belt and braces: the summary serializes identically too (this is
    // the fingerprint serve_bench commits).
    assert_eq!(
        serde_json::to_string(&single).unwrap(),
        serde_json::to_string(&wide).unwrap()
    );
}

#[test]
fn repeated_replays_of_one_tape_are_bitwise_identical() {
    let events = event_tape(4, 40, 7);
    let a = run_on_pool(2, &events);
    let b = run_on_pool(2, &events);
    assert_eq!(a, b);
}

#[test]
fn streaming_initial_fit_serves_the_batch_policy_bitwise() {
    // Feed exactly the training prefix the batch pipeline uses; the
    // scheduler must serve the policy compressed from the *batch* fit
    // of that prefix, bit for bit.
    let gen = Weibull::paper_exemplar();
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(99);
    let streaming = StreamingFitConfig {
        kind: ModelKind::Weibull,
        ..StreamingFitConfig::default()
    };
    let prefix_len = streaming.min_fit_observations;
    let prefix: Vec<f64> = (0..prefix_len).map(|_| gen.sample(&mut rng)).collect();

    let mut cfg = SchedulerConfig::new(
        streaming,
        CompressionConfig::new(CheckpointCosts::symmetric(110.0)),
    );
    cfg.publish_every = 0;
    let mut sched = Scheduler::new(cfg).unwrap();
    for &x in &prefix {
        sched.observe(42, x).unwrap();
    }
    sched.publish().unwrap();

    let batch_fit = fit_model(ModelKind::Weibull, &prefix).unwrap();
    let batch_table = CompressedPolicy::build(&batch_fit, &sched.config().compression).unwrap();
    for age in [0.0, 50.0, 3_600.0, 86_400.0, 5e6] {
        assert_eq!(
            sched.decide(42, age).unwrap().work_seconds.to_bits(),
            batch_table.next_interval(age).to_bits(),
            "streaming-served T_opt diverged from batch at age {age}"
        );
    }
}

#[test]
fn stationary_streaming_refit_stays_within_race_slack_of_batch() {
    // After cadence refits on a stationary trace, the streaming fit's
    // log-likelihood on its own window must be within RACE_LL_SLACK per
    // observation of a fresh batch fit of the same window — the same
    // contract the EM multi-start race keeps internally.
    let truth = Exponential::from_mean(900.0).unwrap();
    let mut cfg = config(ModelKind::HyperExponential { phases: 2 }, 0);
    cfg.streaming.refresh_every = Some(64);
    let mut sched = Scheduler::new(cfg).unwrap();
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(31);
    // The comparison is only meaningful at a refit boundary (between
    // refits the window slides past the installed fit), so check every
    // cadence refresh after the first few.
    let mut checked = 0u64;
    for i in 0..1_000 {
        let trigger = sched.observe(7, truth.sample(&mut rng)).unwrap();
        if trigger.is_none() || i < 300 {
            continue;
        }
        // The refit is parked until something needs its outcome.
        sched.flush();
        let fit = sched.machine(7).unwrap();
        assert!(fit.refits() > 1, "cadence refits must have happened");
        let window = fit.refit_input();
        let streaming_model = fit.model().unwrap();
        let batch_model = fit_model(ModelKind::HyperExponential { phases: 2 }, &window).unwrap();
        let ll = |m: &chs_dist::FittedModel| {
            window
                .iter()
                .map(|&x| m.pdf(x).max(f64::MIN_POSITIVE).ln())
                .sum::<f64>()
        };
        let gap = ll(&batch_model) - ll(streaming_model);
        assert!(
            gap <= RACE_LL_SLACK * window.len() as f64,
            "streaming fit trails batch by {gap} nats on a {}-obs window",
            window.len()
        );
        checked += 1;
    }
    assert!(
        checked >= 3,
        "too few refit boundaries exercised ({checked})"
    );
}
