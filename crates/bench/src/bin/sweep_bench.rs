//! Wall-clock benchmark for the flattened pool sweep: times
//! `prepare_experiments` plus the optimized [`sweep_paper_grid`] against
//! the serial cold-search [`sweep_paper_grid_reference`] (the structure
//! and cost profile the sweep had before the flat fan-out), verifies the
//! flat fan-out against the serial warm-fill sweep cell-by-cell, and
//! audits the warm `T_opt` fill against the cold one point by point.
//!
//! ```text
//! cargo run -p chs-bench --release --features bench-counters --bin sweep_bench \
//!     [--quick | --full] [--json PATH]
//! ```
//!
//! Results are written to `BENCH_sweep.json` (override with `--json`)
//! in the common report envelope. The run exits 1 if any gate fails:
//!
//! * `nonempty` — the sweep covered at least one work item (a pool whose
//!   machines were all dropped proves nothing);
//! * `serial_identity` — the flat fan-out matches the serial warm-fill
//!   sweep to 1e-9 relative in every efficiency and megabyte entry;
//! * `weibull_plateau` — no Weibull grid point's warm fill is worse in
//!   Γ/T than the cold fill by more than 1e-6.
//!
//! With the `bench-counters` feature the report also includes Γ-evaluation
//! counts and fresh-quantity memo hit rates for both paths; without it
//! those fields are zero and `counters_enabled` is false.

use chs_bench::harness::{best_of, finish, Gates};
use chs_bench::{prepare_pool_reported, CommonArgs, TablePrinter};
use chs_benchmark::counters;
use chs_dist::ModelKind;
use chs_sim::sweep::PAPER_C_GRID;
use chs_sim::{
    audit_warm_fill, sweep_paper_grid, sweep_paper_grid_reference, sweep_paper_grid_serial,
    FillExcess, PrepareReport, SweepGrid,
};
use serde::Serialize;
use std::time::Instant;

#[derive(Debug, Serialize)]
struct PathReport {
    seconds: f64,
    machines_per_second: f64,
    gamma_evaluations: u64,
    fresh_memo_hits: u64,
    fresh_memo_misses: u64,
}

#[derive(Debug, Serialize)]
struct SweepBenchReport {
    machines_requested: usize,
    machines_usable: usize,
    observations_per_machine: usize,
    seed: u64,
    c_values: usize,
    models: usize,
    work_items: usize,
    prepare_seconds: f64,
    /// Prepare-phase drop accounting: machines lost to short traces vs
    /// per-estimator fit failures (previously discarded silently).
    prepare: PrepareReport,
    optimized: PathReport,
    reference: PathReport,
    speedup: f64,
    /// Deviation from the serial warm-fill sweep (identical numerics,
    /// old orchestration). The fan-out must reproduce this bitwise, so
    /// the `serial_identity` gate requires these to be ≤ 1e-9.
    max_rel_dev_vs_serial_efficiency: f64,
    max_rel_dev_vs_serial_megabytes: f64,
    /// Deviation from the cold-search reference, recorded as measured.
    /// T_opt tables agree only to the lane search's plateau bound (5e-4
    /// relative), and the discrete-event simulation is discontinuous in
    /// T — a sub-ppm interval shift can flip whether a checkpoint commits
    /// before a failure — so per-machine outputs can differ at the
    /// percent level; `plateau_audit` shows where the policies are not
    /// equally optimal.
    max_rel_dev_vs_cold_efficiency: f64,
    max_rel_dev_vs_cold_megabytes: f64,
    /// Per family: Γ/T at the warm-filled T against Γ/T at the cold T,
    /// over every reachable (machine, C, age) grid point (the lattice
    /// from the last age at or below `R = C`), counting excesses above
    /// `PLATEAU_TOL`. The `weibull_plateau` gate fails if any Weibull
    /// point exceeds it.
    plateau_audit: Vec<FillExcess>,
    counters_enabled: bool,
}

/// Relative Γ/T excess of the warm fill over the cold fill that still
/// counts as the same optimum: far above plateau noise (~1e-11 on
/// Weibull fits), far below a different basin.
const PLATEAU_TOL: f64 = 1e-6;

/// One timed sweep with its `[Γ evaluations, memo hits, memo misses,
/// quadrature fallbacks]` counts.
fn time_sweep(f: impl FnMut() -> SweepGrid) -> (SweepGrid, f64, [u64; 4]) {
    counters::reset();
    let (grid, secs) = best_of(1, f);
    (grid, secs, counters::read())
}

fn path_report(secs: f64, counts: [u64; 4], machines: usize) -> PathReport {
    PathReport {
        seconds: secs,
        machines_per_second: machines as f64 / secs.max(1e-12),
        gamma_evaluations: counts[0],
        fresh_memo_hits: counts[1],
        fresh_memo_misses: counts[2],
    }
}

/// Max relative per-entry deviation between two grids' per-machine
/// efficiency and megabyte vectors.
fn max_rel_dev(a: &SweepGrid, b: &SweepGrid) -> (f64, f64) {
    let rel = |x: f64, y: f64| (x - y).abs() / x.abs().max(y.abs()).max(1e-300);
    let (mut d_eff, mut d_mb) = (0.0f64, 0.0f64);
    for (row_a, row_b) in a.cells.iter().zip(&b.cells) {
        for (ca, cb) in row_a.iter().zip(row_b) {
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

fn main() {
    let args = CommonArgs::parse();
    let json_path = args.report_path("BENCH_sweep.json");
    let mut gates = Gates::new();

    let t0 = Instant::now();
    let prepared = prepare_pool_reported(&args);
    let prepare_seconds = t0.elapsed().as_secs_f64();
    let (experiments, prepare_report) = (prepared.experiments, prepared.report);
    let machines = experiments.len();
    let work_items = machines * PAPER_C_GRID.len() * ModelKind::PAPER_SET.len();
    gates.check(
        "nonempty",
        work_items > 0,
        format!("{work_items} work items over {machines} usable machines"),
    );

    eprintln!("timing reference sweep (serial, cold T_opt search) ...");
    let (ref_grid, ref_secs, ref_counters) =
        time_sweep(|| sweep_paper_grid_reference(&experiments, &PAPER_C_GRID, 500.0));

    eprintln!("timing optimized sweep (flat fan-out, warm-started fill) ...");
    let (opt_grid, opt_secs, opt_counters) =
        time_sweep(|| sweep_paper_grid(&experiments, &PAPER_C_GRID, 500.0));

    eprintln!("running serial warm-fill sweep for the identity check ...");
    let serial_grid = sweep_paper_grid_serial(&experiments, &PAPER_C_GRID, 500.0);

    let (ser_eff, ser_mb) = max_rel_dev(&opt_grid, &serial_grid);
    gates.check(
        "serial_identity",
        ser_eff <= 1e-9 && ser_mb <= 1e-9,
        format!("efficiency {ser_eff:.3e}, megabytes {ser_mb:.3e}, bound 1e-9"),
    );
    let (dev_eff, dev_mb) = max_rel_dev(&opt_grid, &ref_grid);

    eprintln!("auditing warm vs cold T_opt fills at every reachable grid point ...");
    let plateau_audit = audit_warm_fill(&experiments, &PAPER_C_GRID, PLATEAU_TOL);
    let report = SweepBenchReport {
        machines_requested: args.machines,
        machines_usable: machines,
        observations_per_machine: args.observations,
        seed: args.seed,
        c_values: PAPER_C_GRID.len(),
        models: ModelKind::PAPER_SET.len(),
        work_items,
        prepare_seconds,
        prepare: prepare_report,
        optimized: path_report(opt_secs, opt_counters, machines),
        reference: path_report(ref_secs, ref_counters, machines),
        speedup: ref_secs / opt_secs.max(1e-12),
        max_rel_dev_vs_serial_efficiency: ser_eff,
        max_rel_dev_vs_serial_megabytes: ser_mb,
        max_rel_dev_vs_cold_efficiency: dev_eff,
        max_rel_dev_vs_cold_megabytes: dev_mb,
        plateau_audit,
        counters_enabled: counters::ENABLED,
    };

    println!("\nsweep benchmark ({machines} machines, {work_items} work items)");
    let printer = TablePrinter::new(vec![10, 10, 12, 14, 12, 12]);
    printer.row(&[
        "path".into(),
        "secs".into(),
        "mach/s".into(),
        "gamma evals".into(),
        "memo hits".into(),
        "memo miss".into(),
    ]);
    printer.rule();
    for (name, p) in [
        ("reference", &report.reference),
        ("optimized", &report.optimized),
    ] {
        printer.row(&[
            name.into(),
            format!("{:.3}", p.seconds),
            format!("{:.1}", p.machines_per_second),
            format!("{}", p.gamma_evaluations),
            format!("{}", p.fresh_memo_hits),
            format!("{}", p.fresh_memo_misses),
        ]);
    }
    printer.rule();
    println!(
        "prepare: {:.3} s  |  speedup: {:.2}x",
        prepare_seconds, report.speedup
    );
    println!(
        "deviation vs cold-search reference (plateau + event flips, recorded as \
         measured): efficiency {dev_eff:.3e}, megabytes {dev_mb:.3e}"
    );
    println!("\nplateau audit: warm-fill Γ/T over cold-fill Γ/T per reachable grid point");
    let printer = TablePrinter::new(vec![16, 10, 12, 12]);
    printer.row(&[
        "family".into(),
        "points".into(),
        format!("> {PLATEAU_TOL:.0e}"),
        "worst".into(),
    ]);
    printer.rule();
    for row in &report.plateau_audit {
        printer.row(&[
            row.kind.label(),
            format!("{}", row.points),
            format!("{}", row.above),
            format!("{:.3e}", row.worst),
        ]);
    }
    printer.rule();
    if !report.counters_enabled {
        println!("(rebuild with --features bench-counters for Γ/memo counts)");
    }

    // Hyperexponential Γ/T can be bimodal, and a warm chain can stay in
    // the basin the global optimum left; Weibull Γ/T is unimodal, so any
    // excess there is a search defect.
    let weibull = report
        .plateau_audit
        .iter()
        .find(|r| r.kind == ModelKind::Weibull);
    gates.check(
        "weibull_plateau",
        weibull.is_some_and(|r| r.above == 0),
        match weibull {
            Some(r) => format!(
                "{} of {} points above {PLATEAU_TOL:.0e} (worst {:.3e})",
                r.above, r.points, r.worst
            ),
            None => "no Weibull audit row".into(),
        },
    );
    finish(&json_path, &report, &gates);
}
