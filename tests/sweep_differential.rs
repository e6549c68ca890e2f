//! Differential regression test for the flattened pool sweep: a naive
//! serial reference (nested `C → model → machine` loops, per-cell max-age
//! rescans) must reproduce the optimized full-width fan-out cell by cell.
//!
//! Two tolerances, on purpose:
//!
//! * Against the **serial warm-fill** reference every per-cell computation
//!   is identical code, so the flat fan-out and index-aligned reduction
//!   must agree to 1e-9 relative (in fact bitwise) — this isolates the
//!   orchestration restructure from any numerical effect.
//! * Against the **cold-search** reference (the scalar golden-section
//!   search at every grid point) the four-lane warm fill agrees in `T_opt`
//!   only to the lane search's plateau bound (5e-4 relative; about 1e-6
//!   measured on Weibull fits), never 1e-9. What must hold instead is that
//!   both intervals are equally optimal: Γ/T at the warm `T` may not
//!   exceed Γ/T at the cold `T` by more than 1e-6 on the unimodal Weibull
//!   family.

use cycle_harvest::dist::ModelKind;
use cycle_harvest::sim::{
    audit_warm_fill, prepare_experiments_reported, sweep_paper_grid, sweep_paper_grid_reference,
    sweep_paper_grid_serial, MachineExperiment, SweepGrid,
};
use cycle_harvest::trace::synthetic::{generate_pool, PoolConfig};

fn six_machine_pool() -> Vec<MachineExperiment> {
    let pool = generate_pool(&PoolConfig::small(6, 80, 42)).as_machine_pool();
    let experiments = prepare_experiments_reported(&pool, 25).experiments;
    assert!(
        experiments.len() >= 4,
        "pool too small to exercise the fan-out"
    );
    experiments
}

fn max_rel_dev(a: &SweepGrid, b: &SweepGrid) -> (f64, f64) {
    assert_eq!(a.cells.len(), b.cells.len());
    let rel = |x: f64, y: f64| (x - y).abs() / x.abs().max(y.abs()).max(1e-300);
    let (mut d_eff, mut d_mb) = (0.0f64, 0.0f64);
    for (row_a, row_b) in a.cells.iter().zip(&b.cells) {
        assert_eq!(row_a.len(), row_b.len());
        for (ca, cb) in row_a.iter().zip(row_b) {
            assert_eq!(ca.efficiency.len(), cb.efficiency.len());
            for (&x, &y) in ca.efficiency.iter().zip(&cb.efficiency) {
                d_eff = d_eff.max(rel(x, y));
            }
            for (&x, &y) in ca.megabytes.iter().zip(&cb.megabytes) {
                d_mb = d_mb.max(rel(x, y));
            }
        }
    }
    (d_eff, d_mb)
}

#[test]
fn flat_fan_out_matches_serial_reference_exactly() {
    let experiments = six_machine_pool();
    let c_values = [50.0, 250.0, 750.0, 1500.0];
    let optimized = sweep_paper_grid(&experiments, &c_values, 500.0);
    let serial = sweep_paper_grid_serial(&experiments, &c_values, 500.0);

    assert_eq!(optimized.c_values, serial.c_values);
    assert_eq!(optimized.models, serial.models);
    assert_eq!(optimized.machines, serial.machines);
    let (d_eff, d_mb) = max_rel_dev(&optimized, &serial);
    assert!(
        d_eff < 1e-9 && d_mb < 1e-9,
        "flat fan-out diverged from serial order: eff {d_eff:.3e}, MB {d_mb:.3e}"
    );

    // The reduction must also absorb machines in the serial order, so the
    // aggregates agree bitwise, not just the per-machine vectors.
    for (row_a, row_b) in optimized.cells.iter().zip(&serial.cells) {
        for (ca, cb) in row_a.iter().zip(row_b) {
            assert_eq!(ca.aggregate.useful_seconds, cb.aggregate.useful_seconds);
            assert_eq!(ca.aggregate.megabytes, cb.aggregate.megabytes);
        }
    }
}

#[test]
fn weibull_warm_fill_is_as_optimal_as_cold_fill() {
    let experiments = six_machine_pool();
    let audit = audit_warm_fill(&experiments, &[50.0, 250.0, 750.0, 1500.0], 1e-6);
    let weibull = audit
        .iter()
        .find(|r| r.kind == ModelKind::Weibull)
        .expect("Weibull row");
    assert!(weibull.points > 0);
    assert_eq!(
        weibull.above, 0,
        "warm Weibull fill worse than cold by up to {:.3e} in Γ/T",
        weibull.worst
    );
}

#[test]
fn warm_started_fill_tracks_cold_search() {
    // The warm and cold T_opt tables agree to the lane plateau bound
    // (5e-4 relative; asserted directly in chs-sim's policy tests), but
    // the discrete-event simulation is *discontinuous* in T: a sub-ppm
    // shift in an interval can flip whether a checkpoint commits before a
    // failure, changing a single machine's efficiency at the percent
    // level. Both policies are equally optimal, so the comparison that is
    // meaningful here is at the cell-mean level with an event-flip-sized
    // tolerance — not 1e-9, which only the identical-numerics serial path
    // above can satisfy.
    let experiments = six_machine_pool();
    let c_values = [100.0, 1000.0];
    let optimized = sweep_paper_grid(&experiments, &c_values, 500.0);
    let cold = sweep_paper_grid_reference(&experiments, &c_values, 500.0);

    for ci in 0..c_values.len() {
        for mi in 0..optimized.models.len() {
            let (ew, ec) = (
                optimized.mean_efficiency(ci, mi),
                cold.mean_efficiency(ci, mi),
            );
            assert!(
                (ew - ec).abs() < 0.02,
                "cell ({ci},{mi}): warm mean efficiency {ew:.4} vs cold {ec:.4}"
            );
            let (mw, mc) = (
                optimized.mean_megabytes(ci, mi),
                cold.mean_megabytes(ci, mi),
            );
            assert!(
                (mw - mc).abs() / mc.max(1e-300) < 0.10,
                "cell ({ci},{mi}): warm mean MB {mw:.1} vs cold {mc:.1}"
            );
        }
    }
}
