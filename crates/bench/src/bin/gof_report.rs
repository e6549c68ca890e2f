//! Goodness-of-fit report over the pool — the quantitative answer to the
//! question the paper raises in related work ("others suggest Weibull
//! fits but provide no quantitative measure of goodness-of-fit"): for
//! every machine, fit all four families on the training prefix and score
//! them on the held-out remainder by log-likelihood, BIC and
//! Kolmogorov–Smirnov; then count which family wins.
//!
//! A win counts only when the best family beats the runner-up by more
//! than a fixed margin ([`LL_TIE_NATS_PER_OBS`] per held-out observation
//! on log-likelihood and BIC, [`KS_TIE`] on the KS statistic); closer
//! calls count as ties. Fits that differ only along a likelihood ridge
//! (the two hyperexponentials often do) would otherwise flip wins on
//! noise.
//!
//! Also prints pool-level trace statistics (CV, tail index) that explain
//! *why* the exponential loses.
//!
//! ```text
//! cargo run -p chs-bench --release --bin gof_report [--full]
//! ```

use chs_bench::{maybe_dump_json, CommonArgs, TablePrinter};
use chs_dist::fit::fit_model;
use chs_dist::{gof, ModelKind};
use chs_trace::analysis;
use chs_trace::synthetic::generate_pool;
use chs_trace::PAPER_TRAIN_LEN;

/// Log-likelihood margin, nats per held-out observation, below which the
/// best two families tie. BIC is `−2·logLik` plus a penalty, so its
/// margin is twice this per observation.
const LL_TIE_NATS_PER_OBS: f64 = 1e-6;

/// KS-statistic margin below which the best two families tie.
const KS_TIE: f64 = 1e-9;

fn main() {
    let args = CommonArgs::parse();
    let pool = generate_pool(&args.pool_config()).as_machine_pool();

    // Pool-level descriptive statistics.
    let all_durations: Vec<f64> = pool.traces().iter().flat_map(|t| t.durations()).collect();
    let pool_stats = analysis::stats(&all_durations).expect("pool has data");
    println!(
        "\npool-level availability statistics ({} machines):",
        pool.len()
    );
    println!(
        "  mean {:.0} s   median {:.0} s   CV {:.2}",
        pool_stats.mean, pool_stats.median, pool_stats.cv
    );
    println!(
        "  min {:.0} s   max {:.0} s   lag-1 autocorrelation {:.3}",
        pool_stats.min, pool_stats.max, pool_stats.lag1_autocorrelation
    );
    if let Ok(hill) = analysis::hill_tail_index(&all_durations, all_durations.len() / 20) {
        println!("  Hill tail index (top 5%): {hill:.2}  (smaller = heavier tail)");
    }
    println!(
        "  CV > 1 and a small tail index are exactly the regime where the\n\
         memoryless exponential mis-describes availability."
    );

    // Per-machine model selection on held-out data. The paper's four
    // families plus the log-normal extension as a fifth column.
    const FAMILIES: usize = 5;
    // Wins per family and machines with no clear winner, per criterion
    // (logLik, BIC, KS).
    let mut wins = [[0usize; FAMILIES]; 3];
    let mut ties = [0usize; 3];
    let mut ks_reject_exponential = 0usize;
    let mut scored_machines = 0usize;

    for trace in pool.traces() {
        let Ok((train, test)) = trace.split(PAPER_TRAIN_LEN) else {
            continue;
        };
        if test.len() < 30 {
            continue;
        }
        let mut scores: Vec<Option<gof::FitScore>> = Vec::with_capacity(FAMILIES);
        for kind in ModelKind::PAPER_SET {
            let score = fit_model(kind, &train)
                .ok()
                .and_then(|fit| gof::score(&fit, &test).ok());
            scores.push(score);
        }
        scores.push(
            chs_dist::fit_lognormal(&train)
                .ok()
                .and_then(|fit| gof::score(&fit, &test).ok()),
        );
        if scores.iter().any(Option::is_none) {
            continue;
        }
        scored_machines += 1;
        let scores: Vec<&gof::FitScore> = scores
            .iter()
            .map(|s| s.as_ref().expect("checked"))
            .collect();
        // The family with the lowest `cost`, if it beats every other
        // family by more than `margin`.
        let winner = |cost: &dyn Fn(&gof::FitScore) -> f64, margin: f64| -> Option<usize> {
            let mut order: Vec<usize> = (0..FAMILIES).collect();
            order.sort_by(|&a, &b| cost(scores[a]).total_cmp(&cost(scores[b])));
            (cost(scores[order[1]]) - cost(scores[order[0]]) > margin).then_some(order[0])
        };
        let n = test.len() as f64;
        let best = [
            winner(&|s| -s.log_likelihood, LL_TIE_NATS_PER_OBS * n),
            winner(&|s| s.bic, 2.0 * LL_TIE_NATS_PER_OBS * n),
            winner(&|s| s.ks, KS_TIE),
        ];
        for (c, best) in best.into_iter().enumerate() {
            match best {
                Some(i) => wins[c][i] += 1,
                None => ties[c] += 1,
            }
        }
        if scores[0].ks_p < 0.05 {
            ks_reject_exponential += 1;
        }
    }

    println!("\nheld-out model selection over {scored_machines} machines (25-duration training):");
    let printer = TablePrinter::new(vec![20, 14, 10, 10]);
    printer.row(&[
        "family".into(),
        "logLik wins".into(),
        "BIC wins".into(),
        "KS wins".into(),
    ]);
    printer.rule();
    let labels: Vec<String> = ModelKind::PAPER_SET
        .iter()
        .map(|k| k.label())
        .chain(std::iter::once("Log-normal (ext)".to_string()))
        .collect();
    for (i, label) in labels.iter().enumerate() {
        printer.row(&[
            label.clone(),
            format!("{}", wins[0][i]),
            format!("{}", wins[1][i]),
            format!("{}", wins[2][i]),
        ]);
    }
    printer.row(&[
        "ties".into(),
        format!("{}", ties[0]),
        format!("{}", ties[1]),
        format!("{}", ties[2]),
    ]);
    println!(
        "(a tie: the best two families within {LL_TIE_NATS_PER_OBS:e} nats per held-out\n\
         observation on logLik and BIC, or within {KS_TIE:e} on the KS statistic)"
    );
    println!(
        "\nKS rejects the exponential fit outright (p < 0.05) on {} of {} machines",
        ks_reject_exponential, scored_machines
    );
    println!(
        "reading: the heavy-tailed families dominate the fit criteria, matching the\n\
         paper's premise that exponential availability is a modelling convenience,\n\
         not a description of the data."
    );
    maybe_dump_json(&args, &(wins, ties, ks_reject_exponential));
}
