//! Integration test of the §5.3 validation: the emulated live experiment
//! and the trace simulator must agree on efficiency (within tolerance)
//! when the simulator replays the live system's post-mortem occupancy
//! durations — the paper's own consistency check, run automatically.

use cycle_harvest::condor::{run_experiment, ExperimentConfig};
use cycle_harvest::dist::fit::fit_model;
use cycle_harvest::dist::ModelKind;
use cycle_harvest::markov::CheckpointCosts;
use cycle_harvest::net::FaultPlan;
use cycle_harvest::sim::{simulate_trace, CachedPolicy, SimConfig};

fn live_result() -> cycle_harvest::condor::ExperimentResult {
    let mut config = ExperimentConfig::campus();
    config.machines = 24;
    config.streams = 2;
    config.window = 1.5 * 86_400.0;
    config.seed = 2005;
    run_experiment(&config, &FaultPlan::none())
        .expect("live experiment")
        .0
}

#[test]
fn live_and_postmortem_sim_agree_for_memoryless_models() {
    let live = live_result();
    let exp_summary = &live.summaries[0];
    assert_eq!(exp_summary.model, ModelKind::Exponential);
    assert!(
        exp_summary.sample_size >= 30,
        "need samples, got {}",
        exp_summary.sample_size
    );

    let durations: Vec<f64> = live
        .runs
        .iter()
        .filter(|r| r.model == ModelKind::Exponential && r.occupied_seconds() > 0.0)
        .map(|r| r.occupied_seconds())
        .collect();
    let c = exp_summary.mean_transfer_seconds;
    let (train, test) = durations.split_at(25);
    let fit = fit_model(ModelKind::Exponential, train).expect("fit");
    let max_age = test.iter().cloned().fold(0.0f64, f64::max);
    let policy = CachedPolicy::new(fit, CheckpointCosts::symmetric(c), max_age);
    let sim = simulate_trace(test, &policy, &SimConfig::paper(c)).expect("sim");

    let diff = (sim.efficiency() - exp_summary.avg_efficiency).abs();
    assert!(
        diff < 0.12,
        "live {:.3} vs sim {:.3}: discrepancy {diff:.3} too large",
        exp_summary.avg_efficiency,
        sim.efficiency()
    );
}

#[test]
fn live_experiment_conserves_run_time() {
    let live = live_result();
    for r in &live.runs {
        // Committed work + transfers can never exceed occupancy.
        let transfer_time: f64 = r.transfers.iter().map(|t| t.elapsed).sum();
        assert!(
            r.useful_seconds() + transfer_time <= r.occupied_seconds() + 1e-6,
            "run on {} overflows its occupancy",
            r.machine
        );
    }
}

#[test]
fn live_bandwidth_ordering_matches_simulation_headline() {
    // Exponential must move at least as many megabytes per hour as the
    // most parsimonious hyperexponential.
    let live = live_result();
    let exp_rate = live.summaries[0].megabytes_per_hour;
    let h2_rate = live.summaries[2].megabytes_per_hour;
    let h3_rate = live.summaries[3].megabytes_per_hour;
    let best_hyper = h2_rate.min(h3_rate);
    assert!(
        exp_rate > best_hyper,
        "exponential MB/h {exp_rate} should exceed best hyperexponential {best_hyper}"
    );
}

#[test]
fn wide_area_lowers_efficiency() {
    let mut campus_cfg = ExperimentConfig::campus();
    campus_cfg.machines = 16;
    campus_cfg.streams = 1;
    campus_cfg.window = 86_400.0;
    campus_cfg.seed = 7;
    let mut wide_cfg = campus_cfg.clone();
    wide_cfg.path = cycle_harvest::net::NetworkPath::wide_area();

    let (campus, _) = run_experiment(&campus_cfg, &FaultPlan::none()).expect("campus");
    let (wide, _) = run_experiment(&wide_cfg, &FaultPlan::none()).expect("wide");
    let avg = |r: &cycle_harvest::condor::ExperimentResult| {
        r.summaries.iter().map(|s| s.avg_efficiency).sum::<f64>() / 4.0
    };
    assert!(
        avg(&wide) < avg(&campus),
        "wide-area efficiency {:.3} should be below campus {:.3}",
        avg(&wide),
        avg(&campus)
    );
}
