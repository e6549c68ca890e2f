//! Run a small emulated Condor pool end-to-end: the §5.2 live experiment
//! with instrumented test processes, a checkpoint manager, and measured
//! transfer costs feeding the schedule optimizer.
//!
//! ```text
//! cargo run --release --example condor_pool
//! ```

use cycle_harvest::condor::{run_experiment, ExperimentConfig};
use cycle_harvest::net::{FaultPlan, NetworkPath};

fn main() {
    let mut config = ExperimentConfig::campus();
    config.machines = 16;
    config.streams = 2;
    config.window = 86_400.0; // one virtual day

    println!(
        "emulated Condor pool: {} machines x {} streams, {}-second window,",
        config.machines, config.streams, config.window
    );
    println!(
        "checkpoint manager on the campus LAN ({:.0} MB/s mean)\n",
        NetworkPath::campus().mean_bandwidth()
    );

    let (result, _) = run_experiment(&config, &FaultPlan::none()).expect("experiment");

    println!(
        "{:>20} {:>6} {:>11} {:>10} {:>8} {:>9}",
        "model", "eff", "total (h)", "MB moved", "MB/hour", "runs"
    );
    for s in &result.summaries {
        println!(
            "{:>20} {:>6.3} {:>11.1} {:>10.0} {:>8.0} {:>9}",
            s.model.label(),
            s.avg_efficiency,
            s.total_seconds / 3_600.0,
            s.megabytes,
            s.megabytes_per_hour,
            s.sample_size
        );
    }

    // Peek at one run's log the way the checkpoint manager records it.
    if let Some(run) = result.runs.iter().max_by_key(|r| r.transfers.len()) {
        println!(
            "\nbusiest run: {:?} on {} — placed at {:.0} s (machine age {:.0} s), \
             evicted at {:.0} s",
            run.model, run.machine, run.placed_at, run.age_at_placement, run.evicted_at
        );
        println!(
            "  {} transfers, {} checkpoints committed, {:.0} s useful work, {} heartbeats",
            run.transfers.len(),
            run.checkpoints_committed(),
            run.useful_seconds(),
            run.heartbeats
        );
        println!("  T_opt sequence: {:?}", round_all(&run.t_opts));
    }
}

fn round_all(xs: &[f64]) -> Vec<f64> {
    xs.iter().map(|x| x.round()).collect()
}
