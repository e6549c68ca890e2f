//! Quickstart: from recorded availability history to a checkpoint
//! schedule in a dozen lines.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use cycle_harvest::dist::fit::fit_model;
use cycle_harvest::dist::ModelKind;
use cycle_harvest::markov::{CheckpointCosts, Schedule, VaidyaModel};

fn main() {
    // Availability durations (seconds) the monitoring system recorded for
    // one desktop machine: lots of short owner-interrupted stretches plus
    // a few long nights — the heavy-tailed mix Condor pools exhibit.
    let history = vec![
        420.0, 55_000.0, 1_300.0, 240.0, 610.0, 86_000.0, 2_100.0, 330.0, 9_800.0, 180.0, 29_000.0,
        760.0, 3_600.0, 450.0, 1_150.0, 64_000.0, 540.0, 270.0, 15_000.0, 890.0, 410.0, 7_200.0,
        650.0, 32_000.0, 1_900.0,
    ];

    // Fit a Weibull availability model and bind it to the measured
    // checkpoint/recovery costs (500 MB over the campus LAN ≈ 110 s),
    // searching work intervals between 1 s and 30 days.
    let fit = fit_model(ModelKind::Weibull, &history).expect("fit");
    let vaidya = VaidyaModel::new(&fit, CheckpointCosts::new(110.0, 110.0))
        .and_then(|v| v.with_bounds(1.0, 30.0 * 86_400.0))
        .expect("valid costs and bounds");

    println!("fitted model: {:?}", fit.kind());

    // The machine has been available for 10 minutes when our job lands.
    let age = 600.0;
    let schedule = Schedule::compute(&vaidya, age, 8.0 * 3_600.0, 16).expect("schedule");
    println!("\ncheckpoint schedule for the next ~8 hours (T_elapsed = {age} s):");
    println!(
        "{:>4} {:>12} {:>14} {:>12}",
        "#", "start age", "work interval", "efficiency"
    );
    for (i, entry) in schedule.entries().iter().enumerate() {
        println!(
            "{:>4} {:>10.0} s {:>12.0} s {:>12.3}",
            i, entry.start_age, entry.interval.work_seconds, entry.interval.efficiency
        );
    }
    println!(
        "\npredicted steady-state efficiency: {:.3}",
        schedule.predicted_efficiency()
    );
    println!(
        "note the intervals grow: the longer the machine survives, the longer\n\
         it is likely to keep surviving (decreasing hazard), so checkpoints\n\
         space out and network load drops."
    );
}
