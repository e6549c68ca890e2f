//! Wall-clock benchmark for the fitting pipeline: times all four paper
//! model families over the pool's training prefixes (the paper's
//! 25-observation regime) and over full-history traces, and compares the
//! batched EM pipeline — plain (exhaustive) and SQUAREM-accelerated (the
//! default) — against a verbatim copy of the pre-batching scalar loop.
//!
//! ```text
//! cargo run -p chs-bench --release --bin fit_bench [--quick | --full] [--json PATH]
//! ```
//!
//! Results are written to `BENCH_fit.json` (override with `--json`) in
//! the common report envelope, with the E-steps per fit and the winning
//! starts the E-step budget stopped for both EM paths. The run is also a
//! correctness gate and exits 1 when any gate fails:
//!
//! * `batched_bitwise` — the batched exhaustive EM must reproduce the
//!   frozen scalar pipeline exactly (log-likelihood, iteration and start
//!   counts, weights, rates, and error/success outcome) on every trace;
//! * `default_within_slack` — on every fit, the default's
//!   log-likelihood must stay within `RACE_LL_SLACK` per observation of
//!   the exhaustive one;
//! * `<regime>.hyperexp<k>.esteps` — the default must spend no more
//!   E-steps than the exhaustive path over each regime's fits.

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

/// E-step accounting of one EM path over a regime's fits.
#[derive(Debug, Default, Serialize)]
struct EstepCount {
    /// E-steps over all starts of every fit.
    esteps: usize,
    /// `esteps` divided by the fits.
    esteps_per_fit: f64,
    /// Fits whose winning start the E-step budget stopped.
    capped_winners: usize,
}

#[derive(Debug, Serialize)]
struct EmFamilyReport {
    phases: usize,
    frozen_exhaustive: VariantTiming,
    batched_exhaustive: VariantTiming,
    batched_accelerated: VariantTiming,
    /// frozen / batched-exhaustive: the E-step kernel alone.
    batched_speedup: f64,
    /// frozen / batched-accelerated: kernel + SQUAREM (the default
    /// production path).
    accelerated_speedup: f64,
    exhaustive_esteps: EstepCount,
    accelerated_esteps: EstepCount,
    /// exhaustive / accelerated E-steps per fit.
    esteps_reduction: f64,
    /// Worst per-observation log-likelihood deficit of the accelerated
    /// fit against the exhaustive one.
    max_ll_deficit_per_obs: f64,
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
    /// Worst per-observation log-likelihood deficit of the accelerated
    /// default vs the exhaustive multi-start; must stay ≤ `race_ll_slack`.
    max_default_ll_deficit_per_obs: f64,
    race_ll_slack: f64,
    /// Aggregate 2+3-phase EM throughput gain of the default pipeline
    /// (batched + accelerated) over the frozen scalar exhaustive one,
    /// across both regimes.
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

/// Correctness and E-step accounting of one phase count over one
/// regime's traces.
struct Verified {
    mismatches: usize,
    max_deficit: f64,
    exhaustive: EstepCount,
    accelerated: EstepCount,
}

/// Bitwise gate, ll deficit and E-step counts for `k` phases.
fn verify(traces: &[Vec<f64>], k: usize) -> Verified {
    let exhaustive = EmOptions::exhaustive();
    let accelerated = EmOptions::default();
    let mut v = Verified {
        mismatches: 0,
        max_deficit: 0.0,
        exhaustive: EstepCount::default(),
        accelerated: EstepCount::default(),
    };
    let tally = |count: &mut EstepCount, esteps: usize, converged: bool| {
        count.esteps += esteps;
        count.capped_winners += usize::from(!converged);
    };
    for data in traces {
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
                    v.mismatches += 1;
                }
            }
            (Err(_), Err(_)) => {}
            _ => v.mismatches += 1,
        }
        let Ok(ex) = &b else { continue };
        tally(&mut v.exhaustive, ex.esteps, ex.converged);
        match fit_hyperexponential(data, k, &accelerated) {
            Ok(a) => {
                tally(&mut v.accelerated, a.esteps, a.converged);
                let deficit = (ex.log_likelihood - a.log_likelihood) / data.len() as f64;
                v.max_deficit = v.max_deficit.max(deficit);
            }
            // Acceleration must never turn a fittable trace into a
            // failure.
            Err(_) => v.max_deficit = f64::INFINITY,
        }
    }
    let fits = traces.len().max(1) as f64;
    for count in [&mut v.exhaustive, &mut v.accelerated] {
        count.esteps_per_fit = count.esteps as f64 / fits;
    }
    v
}

fn bench_regime(
    regime: &'static str,
    traces: &[Vec<f64>],
    rounds: usize,
    gates: &mut Gates,
    mismatches: &mut usize,
) -> RegimeReport {
    let exhaustive = EmOptions::exhaustive();
    let accelerated = EmOptions::default();
    let obs_total: usize = traces.iter().map(Vec::len).sum();

    eprintln!("[{regime}] timing exponential + weibull ...");
    let exponential = time_variant(traces, rounds, |d| fit_exponential(d).is_ok());
    let weibull = time_variant(traces, rounds, |d| fit_weibull(d).is_ok());

    let mut hyperexponential = Vec::new();
    for k in [2usize, 3] {
        eprintln!("[{regime}] verifying {k}-phase EM (bitwise, ll slack, E-steps) ...");
        let v = verify(traces, k);
        *mismatches += v.mismatches;
        gates.check(
            format!("{regime}.hyperexp{k}.esteps"),
            v.accelerated.esteps <= v.exhaustive.esteps,
            format!(
                "{:.1} accelerated vs {:.1} exhaustive E-steps per fit",
                v.accelerated.esteps_per_fit, v.exhaustive.esteps_per_fit
            ),
        );
        eprintln!("[{regime}] timing {k}-phase EM (frozen / batched / accelerated) ...");
        let frozen_t = time_variant(traces, rounds, |d| {
            frozen::fit_hyperexponential(d, k, &exhaustive).is_ok()
        });
        let batched_t = time_variant(traces, rounds, |d| {
            fit_hyperexponential(d, k, &exhaustive).is_ok()
        });
        let accelerated_t = time_variant(traces, rounds, |d| {
            fit_hyperexponential(d, k, &accelerated).is_ok()
        });
        hyperexponential.push(EmFamilyReport {
            phases: k,
            batched_speedup: frozen_t.seconds / batched_t.seconds.max(1e-12),
            accelerated_speedup: frozen_t.seconds / accelerated_t.seconds.max(1e-12),
            frozen_exhaustive: frozen_t,
            batched_exhaustive: batched_t,
            batched_accelerated: accelerated_t,
            esteps_reduction: v.exhaustive.esteps_per_fit / v.accelerated.esteps_per_fit.max(1e-12),
            exhaustive_esteps: v.exhaustive,
            accelerated_esteps: v.accelerated,
            max_ll_deficit_per_obs: v.max_deficit,
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

    let mut gates = Gates::new();
    let mut bitwise_mismatches = 0usize;
    let regimes = vec![
        bench_regime("train25", &train, 5, &mut gates, &mut bitwise_mismatches),
        bench_regime(
            "full-history",
            &full,
            2,
            &mut gates,
            &mut bitwise_mismatches,
        ),
    ];

    let (mut frozen_secs, mut accelerated_secs) = (0.0f64, 0.0f64);
    let mut max_deficit = 0.0f64;
    for f in regimes.iter().flat_map(|r| &r.hyperexponential) {
        frozen_secs += f.frozen_exhaustive.seconds;
        accelerated_secs += f.batched_accelerated.seconds;
        max_deficit = max_deficit.max(f.max_ll_deficit_per_obs);
    }
    let report = FitBenchReport {
        machines_requested: args.machines,
        observations_per_machine: args.observations,
        seed: args.seed,
        regimes,
        batched_bitwise_identical: bitwise_mismatches == 0,
        bitwise_mismatches,
        max_default_ll_deficit_per_obs: max_deficit,
        race_ll_slack: RACE_LL_SLACK,
        aggregate_hyperexp_speedup: frozen_secs / accelerated_secs.max(1e-12),
    };

    println!("\nfit benchmark (seed {})", args.seed);
    let printer = TablePrinter::new(vec![14, 24, 10, 12, 9]);
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
            line(
                &format!("hyperexp{} accelerated", f.phases),
                &f.batched_accelerated,
            );
        }
        printer.rule();
    }
    for r in &report.regimes {
        for f in &r.hyperexponential {
            println!(
                "{} hyperexp{}: batched {:.2}x, accelerated {:.2}x over frozen; \
                 E-steps/fit {:.1} -> {:.1} ({:.2}x fewer), capped winners {} -> {}",
                r.regime,
                f.phases,
                f.batched_speedup,
                f.accelerated_speedup,
                f.exhaustive_esteps.esteps_per_fit,
                f.accelerated_esteps.esteps_per_fit,
                f.esteps_reduction,
                f.exhaustive_esteps.capped_winners,
                f.accelerated_esteps.capped_winners
            );
        }
    }
    println!(
        "aggregate hyperexp speedup (frozen exhaustive -> batched accelerated): {:.2}x",
        report.aggregate_hyperexp_speedup
    );

    gates.check(
        "batched_bitwise",
        bitwise_mismatches == 0,
        format!("{bitwise_mismatches} batched-vs-frozen EM mismatches"),
    );
    // `<=` keeps a NaN deficit failing the gate.
    gates.check(
        "default_within_slack",
        max_deficit <= RACE_LL_SLACK,
        format!("default ll deficit {max_deficit:.3e}/obs, slack {RACE_LL_SLACK:.1e}"),
    );
    finish(&json_path, &report, &gates);
}
