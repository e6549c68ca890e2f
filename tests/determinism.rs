//! Reproducibility tests: every layer of the pipeline must be exactly
//! deterministic given its seed — the property that makes the experiment
//! binaries' recorded outputs in `results/` reproducible by reviewers.

use chs_manager::{run_manager, ManagerConfig};
use chs_net::FaultPlan;
use cycle_harvest::condor::{run_experiment, ExperimentConfig};
use cycle_harvest::dist::ModelKind;
use cycle_harvest::sim::{prepare_experiments_reported, sweep_paper_grid};
use cycle_harvest::trace::synthetic::{generate_pool, PoolConfig};

#[test]
fn full_sweep_pipeline_is_deterministic() {
    let run = || {
        let pool = generate_pool(&PoolConfig::small(10, 80, 5)).as_machine_pool();
        let experiments = prepare_experiments_reported(&pool, 25).experiments;
        sweep_paper_grid(&experiments, &[100.0, 500.0], 500.0)
    };
    let a = run();
    let b = run();
    for ci in 0..2 {
        for mi in 0..4 {
            assert_eq!(
                a.cells[ci][mi].efficiency, b.cells[ci][mi].efficiency,
                "efficiency diverged at ({ci},{mi})"
            );
            assert_eq!(
                a.cells[ci][mi].megabytes, b.cells[ci][mi].megabytes,
                "megabytes diverged at ({ci},{mi})"
            );
        }
    }
}

#[test]
fn seeds_actually_matter() {
    let grid = |seed: u64| {
        let pool = generate_pool(&PoolConfig::small(6, 60, seed)).as_machine_pool();
        let experiments = prepare_experiments_reported(&pool, 25).experiments;
        sweep_paper_grid(&experiments, &[250.0], 500.0)
    };
    let a = grid(1);
    let b = grid(2);
    assert_ne!(
        a.cells[0][0].efficiency, b.cells[0][0].efficiency,
        "different seeds must explore different pools"
    );
}

#[test]
fn live_experiment_bitwise_reproducible() {
    let mut config = ExperimentConfig::campus();
    config.machines = 6;
    config.streams = 1;
    config.window = 0.25 * 86_400.0;
    let a = run_experiment(&config, &FaultPlan::none()).unwrap().0;
    let b = run_experiment(&config, &FaultPlan::none()).unwrap().0;
    assert_eq!(a.runs, b.runs);
    assert_eq!(a.summaries, b.summaries);
}

#[test]
fn contention_bitwise_reproducible() {
    let mut config = ManagerConfig::classic(4, ModelKind::HyperExponential { phases: 2 });
    config.window = 0.5 * 86_400.0;
    let a = run_manager(&config, &FaultPlan::none()).unwrap();
    let b = run_manager(&config, &FaultPlan::none()).unwrap();
    assert_eq!(a, b);
}

#[test]
fn rayon_parallelism_does_not_change_results() {
    // The sweep uses rayon internally; results must not depend on thread
    // interleaving. Compare a 1-thread pool against the default.
    let pool = generate_pool(&PoolConfig::small(8, 70, 9)).as_machine_pool();
    let experiments = prepare_experiments_reported(&pool, 25).experiments;
    let sequential = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .unwrap()
        .install(|| sweep_paper_grid(&experiments, &[200.0], 500.0));
    let parallel = sweep_paper_grid(&experiments, &[200.0], 500.0);
    for mi in 0..4 {
        assert_eq!(
            sequential.cells[0][mi].efficiency,
            parallel.cells[0][mi].efficiency
        );
        assert_eq!(
            sequential.cells[0][mi].megabytes,
            parallel.cells[0][mi].megabytes
        );
    }
}
