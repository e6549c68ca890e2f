//! Wall-clock benchmark for the fitting pipeline: times all four paper
//! model families over the pool's training prefixes (the paper's
//! 25-observation regime) and over full-history traces, and compares the
//! batched/raced EM pipeline against a verbatim copy of the pre-batching
//! scalar loop.
//!
//! ```text
//! cargo run -p chs-bench --release --bin fit_bench [--quick | --full] [--json PATH]
//! ```
//!
//! Results are written to `BENCH_fit.json` (override with `--json`) in
//! the common report envelope. The run is also a correctness gate and
//! exits 1 when either gate fails:
//!
//! * `batched_bitwise` — the batched E-step with racing off must reproduce the
//!   frozen scalar pipeline exactly (log-likelihood, iteration and start
//!   counts, weights, rates, and error/success outcome) on every trace;
//! * `race_within_slack` — the raced multi-start's log-likelihood must stay
//!   within `RACE_LL_SLACK` per observation of the exhaustive one.

use chs_bench::harness::{finish, Gates};
use chs_bench::{CommonArgs, TablePrinter};
use chs_dist::fit::{fit_exponential, fit_hyperexponential, fit_weibull, EmOptions, RACE_LL_SLACK};
use chs_trace::synthetic::generate_pool;
use chs_trace::PAPER_TRAIN_LEN;
use serde::Serialize;
use std::hint::black_box;
use std::time::Instant;

/// The pre-batching EM pipeline, shared verbatim with
/// `crates/dist/tests/em_differential.rs`: per-observation AoS E-step
/// with `ln` recomputed per term, run-to-convergence multi-start.
#[path = "../../../dist/tests/frozen/em.rs"]
mod frozen;

#[derive(Debug, Serialize)]
struct VariantTiming {
    seconds: f64,
    fits_per_second: f64,
    fit_failures: usize,
}

#[derive(Debug, Serialize)]
struct EmFamilyReport {
    phases: usize,
    frozen_exhaustive: VariantTiming,
    batched_exhaustive: VariantTiming,
    batched_raced: VariantTiming,
    /// frozen / batched-exhaustive: the E-step kernel alone.
    batched_speedup: f64,
    /// frozen / batched-raced: kernel + multi-start racing (the default
    /// production path).
    raced_speedup: f64,
}

#[derive(Debug, Serialize)]
struct RegimeReport {
    regime: &'static str,
    traces: usize,
    rounds: usize,
    mean_observations: f64,
    exponential: VariantTiming,
    weibull: VariantTiming,
    hyperexponential: Vec<EmFamilyReport>,
}

#[derive(Debug, Serialize)]
struct FitBenchReport {
    machines_requested: usize,
    observations_per_machine: usize,
    seed: u64,
    regimes: Vec<RegimeReport>,
    /// Batched exhaustive EM reproduced the frozen scalar pipeline
    /// bitwise on every (trace × phase-count) (the `batched_bitwise`
    /// gate).
    batched_bitwise_identical: bool,
    bitwise_mismatches: usize,
    /// Worst per-observation log-likelihood deficit of the raced
    /// multi-start vs the exhaustive one; must stay ≤ `race_ll_slack`.
    max_raced_ll_deficit_per_obs: f64,
    race_ll_slack: f64,
    /// Aggregate 2+3-phase EM throughput gain of the default pipeline
    /// (batched + raced) over the frozen scalar exhaustive one, across
    /// both regimes.
    aggregate_hyperexp_speedup: f64,
}

/// Time `fit` over every trace, `rounds` times. Returns the timing plus
/// how many (trace × round) fits failed.
fn time_variant<F: Fn(&[f64]) -> bool>(
    traces: &[Vec<f64>],
    rounds: usize,
    fit: F,
) -> VariantTiming {
    let mut failures = 0usize;
    let t0 = Instant::now();
    for _ in 0..rounds {
        for t in traces {
            if !fit(black_box(t)) {
                failures += 1;
            }
        }
    }
    let seconds = t0.elapsed().as_secs_f64();
    VariantTiming {
        seconds,
        fits_per_second: (traces.len() * rounds) as f64 / seconds.max(1e-12),
        fit_failures: failures / rounds.max(1),
    }
}

/// Bitwise + racing gates over one regime's traces. Returns
/// `(mismatches, max_deficit_per_obs)`.
fn verify_regime(traces: &[Vec<f64>]) -> (usize, f64) {
    let exhaustive = EmOptions::exhaustive();
    let raced = EmOptions::default();
    let mut mismatches = 0usize;
    let mut max_deficit = 0.0f64;
    for data in traces {
        for k in [2usize, 3] {
            let b = fit_hyperexponential(data, k, &exhaustive);
            let f = frozen::fit_hyperexponential(data, k, &exhaustive);
            match (&b, &f) {
                (Ok(b), Ok(f)) => {
                    let same = b.log_likelihood.to_bits() == f.log_likelihood.to_bits()
                        && b.iterations == f.iterations
                        && b.starts == f.starts
                        && b.model.phases() == f.model.phases()
                        && b.model
                            .weights()
                            .iter()
                            .zip(f.model.weights())
                            .all(|(x, y)| x.to_bits() == y.to_bits())
                        && b.model
                            .rates()
                            .iter()
                            .zip(f.model.rates())
                            .all(|(x, y)| x.to_bits() == y.to_bits());
                    if !same {
                        mismatches += 1;
                    }
                }
                (Err(_), Err(_)) => {}
                _ => mismatches += 1,
            }
            if let Ok(ex) = &b {
                match fit_hyperexponential(data, k, &raced) {
                    Ok(r) => {
                        let deficit = (ex.log_likelihood - r.log_likelihood) / data.len() as f64;
                        max_deficit = max_deficit.max(deficit);
                    }
                    // Racing only skips trailing starts; it must never
                    // turn a fittable trace into a failure.
                    Err(_) => max_deficit = f64::INFINITY,
                }
            }
        }
    }
    (mismatches, max_deficit)
}

fn bench_regime(regime: &'static str, traces: &[Vec<f64>], rounds: usize) -> RegimeReport {
    let exhaustive = EmOptions::exhaustive();
    let raced = EmOptions::default();
    let obs_total: usize = traces.iter().map(Vec::len).sum();

    eprintln!("[{regime}] timing exponential + weibull ...");
    let exponential = time_variant(traces, rounds, |d| fit_exponential(d).is_ok());
    let weibull = time_variant(traces, rounds, |d| fit_weibull(d).is_ok());

    let mut hyperexponential = Vec::new();
    for k in [2usize, 3] {
        eprintln!("[{regime}] timing {k}-phase EM (frozen / batched / raced) ...");
        let frozen_t = time_variant(traces, rounds, |d| {
            frozen::fit_hyperexponential(d, k, &exhaustive).is_ok()
        });
        let batched_t = time_variant(traces, rounds, |d| {
            fit_hyperexponential(d, k, &exhaustive).is_ok()
        });
        let raced_t = time_variant(traces, rounds, |d| {
            fit_hyperexponential(d, k, &raced).is_ok()
        });
        hyperexponential.push(EmFamilyReport {
            phases: k,
            batched_speedup: frozen_t.seconds / batched_t.seconds.max(1e-12),
            raced_speedup: frozen_t.seconds / raced_t.seconds.max(1e-12),
            frozen_exhaustive: frozen_t,
            batched_exhaustive: batched_t,
            batched_raced: raced_t,
        });
    }

    RegimeReport {
        regime,
        traces: traces.len(),
        rounds,
        mean_observations: obs_total as f64 / traces.len().max(1) as f64,
        exponential,
        weibull,
        hyperexponential,
    }
}

fn main() {
    let args = CommonArgs::parse();
    let json_path = args.report_path("BENCH_fit.json");

    let pool = generate_pool(&args.pool_config()).as_machine_pool();
    // The paper's regime: the 25-observation training prefix of each
    // trace. Full-history traces exercise the long-data path the
    // goodness-of-fit and forecast harnesses hit.
    let train: Vec<Vec<f64>> = pool
        .traces()
        .iter()
        .filter(|t| t.len() > PAPER_TRAIN_LEN)
        .map(|t| t.durations()[..PAPER_TRAIN_LEN].to_vec())
        .collect();
    let full: Vec<Vec<f64>> = pool
        .traces()
        .iter()
        .filter(|t| t.len() >= 6)
        .map(|t| t.durations())
        .collect();
    eprintln!(
        "pool: {} machines, {} training prefixes ({} obs), {} full traces",
        pool.len(),
        train.len(),
        PAPER_TRAIN_LEN,
        full.len()
    );

    eprintln!("verifying batched-vs-frozen identity and racing tolerance ...");
    let (mm_train, def_train) = verify_regime(&train);
    let (mm_full, def_full) = verify_regime(&full);
    let bitwise_mismatches = mm_train + mm_full;
    let max_deficit = def_train.max(def_full);

    let regimes = vec![
        bench_regime("train25", &train, 5),
        bench_regime("full-history", &full, 2),
    ];

    let (mut frozen_secs, mut raced_secs) = (0.0f64, 0.0f64);
    for r in &regimes {
        for f in &r.hyperexponential {
            frozen_secs += f.frozen_exhaustive.seconds;
            raced_secs += f.batched_raced.seconds;
        }
    }
    let report = FitBenchReport {
        machines_requested: args.machines,
        observations_per_machine: args.observations,
        seed: args.seed,
        regimes,
        batched_bitwise_identical: bitwise_mismatches == 0,
        bitwise_mismatches,
        max_raced_ll_deficit_per_obs: max_deficit,
        race_ll_slack: RACE_LL_SLACK,
        aggregate_hyperexp_speedup: frozen_secs / raced_secs.max(1e-12),
    };

    println!("\nfit benchmark (seed {})", args.seed);
    let printer = TablePrinter::new(vec![14, 22, 10, 12, 9]);
    printer.row(&[
        "regime".into(),
        "family / variant".into(),
        "secs".into(),
        "fits/s".into(),
        "failures".into(),
    ]);
    printer.rule();
    for r in &report.regimes {
        let line = |name: &str, t: &VariantTiming| {
            printer.row(&[
                r.regime.into(),
                name.into(),
                format!("{:.3}", t.seconds),
                format!("{:.1}", t.fits_per_second),
                format!("{}", t.fit_failures),
            ]);
        };
        line("exponential", &r.exponential);
        line("weibull", &r.weibull);
        for f in &r.hyperexponential {
            line(
                &format!("hyperexp{} frozen", f.phases),
                &f.frozen_exhaustive,
            );
            line(
                &format!("hyperexp{} batched", f.phases),
                &f.batched_exhaustive,
            );
            line(&format!("hyperexp{} raced", f.phases), &f.batched_raced);
        }
        printer.rule();
    }
    for r in &report.regimes {
        for f in &r.hyperexponential {
            println!(
                "{} hyperexp{}: batched {:.2}x, batched+raced {:.2}x over frozen",
                r.regime, f.phases, f.batched_speedup, f.raced_speedup
            );
        }
    }
    println!(
        "aggregate hyperexp speedup (frozen exhaustive -> batched raced): {:.2}x",
        report.aggregate_hyperexp_speedup
    );

    let mut gates = Gates::new();
    gates.check(
        "batched_bitwise",
        bitwise_mismatches == 0,
        format!("{bitwise_mismatches} batched-vs-frozen EM mismatches"),
    );
    // `<=` keeps a NaN deficit failing the gate.
    gates.check(
        "race_within_slack",
        max_deficit <= RACE_LL_SLACK,
        format!("raced ll deficit {max_deficit:.3e}/obs, slack {RACE_LL_SLACK:.1e}"),
    );
    finish(&json_path, &report, &gates);
}
