//! The complete system loop of paper §4: run the occupancy monitor over
//! an emulated Condor pool to *collect* availability histories, persist
//! them as a trace file, fit per-machine models, and compute the
//! checkpoint interval a freshly placed job would use — no synthetic
//! shortcut anywhere in the chain.
//!
//! ```text
//! cargo run --release --example full_system
//! ```

use cycle_harvest::condor::{run_monitor, MachinePark, MonitorConfig};
use cycle_harvest::dist::fit::fit_model;
use cycle_harvest::dist::ModelKind;
use cycle_harvest::markov::{CheckpointCosts, VaidyaModel};
use cycle_harvest::trace::analysis;
use cycle_harvest::trace::io::{pool_from_json, pool_to_json};
use cycle_harvest::trace::synthetic::PoolConfig;

fn main() {
    // 1. An emulated pool of desktops (owners come and go).
    let park = MachinePark::generate(&PoolConfig::default(), 8, 0, 120.0 * 86_400.0, 77);
    println!("pool: {} machines, 120 virtual days", park.len());

    // 2. The §4 monitor: sensor processes record occupancy durations.
    let campaign = MonitorConfig {
        campaign: 120.0 * 86_400.0,
        report_period: 10.0,
    };
    let collected = run_monitor(&park, &campaign);
    let observations: usize = collected.traces().iter().map(|t| t.len()).sum();
    println!("monitor recorded {observations} availability durations\n");

    // 3. Histories persist across campaigns as a trace file (JSON here;
    //    chs_trace::io also reads and writes CSV).
    let histories = pool_from_json(&pool_to_json(&collected).expect("serialize"))
        .expect("reload the persisted histories");

    // 4. A job lands: fit the machine's model and compute its first
    //    interval at the campus path's measured cost.
    println!(
        "{:>14} {:>6} {:>9} {:>8} {:>11} {:>11} {:>9}",
        "machine", "obs", "mean(s)", "CV", "model", "T_opt(0)", "pred eff"
    );
    for trace in histories.traces() {
        let machine = trace.machine;
        let durations = trace.durations();
        if durations.len() < 10 {
            continue;
        }
        let st = analysis::stats(&durations).expect("enough data");
        // Heavier-tailed machines (CV > 1.3) get the hyperexponential;
        // others Weibull — or use chs_dist::gof::fit_best for BIC
        // selection.
        let kind = if st.cv > 1.3 {
            ModelKind::HyperExponential { phases: 2 }
        } else {
            ModelKind::Weibull
        };
        let planned = fit_model(kind, &durations)
            .map_err(|e| e.to_string())
            .and_then(|fit| {
                VaidyaModel::new(&fit, CheckpointCosts::new(110.0, 110.0))
                    .and_then(|v| v.with_bounds(1.0, 30.0 * 86_400.0))
                    .and_then(|v| v.optimal_interval(0.0))
                    .map_err(|e| e.to_string())
            });
        match planned {
            Ok(first) => {
                println!(
                    "{:>14} {:>6} {:>9.0} {:>8.2} {:>11} {:>9.0} s {:>9.3}",
                    machine.to_string(),
                    durations.len(),
                    st.mean,
                    st.cv,
                    match kind {
                        ModelKind::Weibull => "weibull",
                        _ => "hyper2",
                    },
                    first.work_seconds,
                    first.efficiency
                );
            }
            Err(e) => println!("{:>14}  unschedulable: {e}", machine.to_string()),
        }
    }
    println!(
        "\nflakier machines (small mean, large CV) get short first intervals; stable\n\
         ones get long intervals — less network traffic for the same efficiency."
    );
}
