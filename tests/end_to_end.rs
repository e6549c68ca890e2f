//! End-to-end integration test: the full §5.1 pipeline — synthetic pool →
//! per-machine fits → grid sweep → statistics — at miniature scale, with
//! the paper's qualitative results asserted as invariants.

use cycle_harvest::dist::ModelKind;
use cycle_harvest::sim::{prepare_experiments_reported, sweep_paper_grid};
use cycle_harvest::stats::{significance_markers, Direction, Summary};
use cycle_harvest::trace::synthetic::{generate_pool, PoolConfig};
use cycle_harvest::trace::PAPER_TRAIN_LEN;

fn run_pipeline(machines: usize, seed: u64) -> cycle_harvest::sim::SweepGrid {
    let pool = generate_pool(&PoolConfig::small(machines, 150, seed)).as_machine_pool();
    let experiments = prepare_experiments_reported(&pool, PAPER_TRAIN_LEN).experiments;
    assert!(
        experiments.len() >= machines / 2,
        "most machines should be fittable: {}/{machines}",
        experiments.len()
    );
    sweep_paper_grid(&experiments, &[50.0, 250.0, 1_000.0], 500.0)
}

#[test]
fn efficiency_decreases_with_checkpoint_cost_for_every_model() {
    let grid = run_pipeline(16, 11);
    for mi in 0..4 {
        let effs: Vec<f64> = (0..3).map(|ci| grid.mean_efficiency(ci, mi)).collect();
        assert!(
            effs[0] > effs[1] && effs[1] > effs[2],
            "model {mi}: efficiencies not decreasing: {effs:?}"
        );
    }
}

#[test]
fn bandwidth_decreases_with_checkpoint_cost() {
    // Longer checkpoints → longer intervals → fewer transfers.
    let grid = run_pipeline(16, 12);
    for mi in 0..4 {
        let mbs: Vec<f64> = (0..3).map(|ci| grid.mean_megabytes(ci, mi)).collect();
        assert!(
            mbs[0] > mbs[1] && mbs[1] > mbs[2],
            "model {mi}: megabytes not decreasing: {mbs:?}"
        );
    }
}

#[test]
fn models_achieve_similar_efficiency_but_different_bandwidth() {
    // The paper's headline: efficiency spread across models is small
    // (within ~10 % relative), bandwidth spread is large (exponential
    // uses ≥ 15 % more than the best hyperexponential at C ≥ 250).
    let grid = run_pipeline(24, 13);
    for ci in 0..3 {
        let effs: Vec<f64> = (0..4).map(|mi| grid.mean_efficiency(ci, mi)).collect();
        let e_lo = effs.iter().cloned().fold(f64::INFINITY, f64::min);
        let e_hi = effs.iter().cloned().fold(0.0f64, f64::max);
        assert!(
            (e_hi - e_lo) / e_hi < 0.12,
            "c index {ci}: efficiency spread too large: {effs:?}"
        );
    }
    for ci in 1..3 {
        let exp_mb = grid.mean_megabytes(ci, 0);
        let best_hyper = grid.mean_megabytes(ci, 2).min(grid.mean_megabytes(ci, 3));
        assert!(
            exp_mb > 1.15 * best_hyper,
            "c index {ci}: exponential should waste >= 15% more bandwidth: \
             exp {exp_mb} vs hyper {best_hyper}"
        );
    }
}

#[test]
fn exponential_significantly_worst_on_bandwidth() {
    let grid = run_pipeline(24, 14);
    let markers: Vec<char> = ModelKind::PAPER_SET.iter().map(|k| k.marker()).collect();
    // At the C = 1000 s grid point the separation is widest.
    let series: Vec<Vec<f64>> = (0..4)
        .map(|mi| grid.cells[2][mi].megabytes.clone())
        .collect();
    let sig = significance_markers(&series, &markers, Direction::LowerIsBetter, 0.05).unwrap();
    // The exponential must not significantly beat anyone, and at least one
    // hyperexponential must significantly beat the exponential.
    assert!(
        sig[0].is_empty(),
        "exponential beat someone on bandwidth: {:?}",
        sig[0]
    );
    assert!(
        sig[2].contains(&'e') || sig[3].contains(&'e'),
        "no hyperexponential significantly beat the exponential: {sig:?}"
    );
}

#[test]
fn confidence_intervals_shrink_with_pool_size() {
    let small = run_pipeline(8, 15);
    let large = run_pipeline(32, 15);
    let hw = |grid: &cycle_harvest::sim::SweepGrid| {
        Summary::ci95(&grid.cells[1][0].efficiency)
            .unwrap()
            .half_width
    };
    assert!(
        hw(&large) < hw(&small),
        "CI should narrow: {} !< {}",
        hw(&large),
        hw(&small)
    );
}

#[test]
fn per_machine_metrics_are_paired_across_models() {
    // Every cell must carry one entry per machine in the same order, or
    // the paired t-tests are meaningless.
    let grid = run_pipeline(10, 16);
    let n = grid.machines.len();
    for row in &grid.cells {
        for cell in row {
            assert_eq!(cell.efficiency.len(), n);
            assert_eq!(cell.megabytes.len(), n);
        }
    }
}
