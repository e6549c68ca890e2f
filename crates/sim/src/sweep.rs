//! Pool-wide parameter sweeps: the engine behind Figures 3–4 and
//! Tables 1 & 3.
//!
//! For every machine, fit all four paper models on the training prefix of
//! its trace; then for every checkpoint cost `C` in the grid and every
//! model, simulate the experimental remainder and record per-machine
//! efficiency and network load.
//!
//! The sweep is one flat rayon fan-out over `(machine × C × model)` work
//! items — the full width of the grid, not just the C axis — so every
//! core stays busy even when `|C| <` core count. Results reduce back into
//! [`SweepGrid`] cells by index arithmetic, which keeps per-machine
//! vectors aligned with the experiment list (downstream paired t-tests
//! compare models machine-by-machine) and makes the output independent of
//! rayon's scheduling. Per-machine `max_age` is hoisted out of the C ×
//! model loops, and fits are shared by `Arc` instead of being cloned into
//! every cell.

use crate::engine::{simulate_trace, SimConfig};
use crate::metrics::SimResult;
use crate::policy::{CachedPolicy, FixedIntervalPolicy};
use chs_dist::{FittedModel, ModelKind};
use chs_markov::{resolve_fit, young_interval, CheckpointCosts, FitTier, VaidyaModel};
use chs_net::FaultPlan;
use chs_sched::ingest::{fit_batch, FitItem};
use chs_stats::mean;
use chs_trace::{MachineId, MachinePool};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// One machine prepared for the sweep: its four fitted models plus the
/// held-out experimental durations.
#[derive(Debug, Clone)]
pub struct MachineExperiment {
    /// Which machine.
    pub machine: MachineId,
    /// The model each family's slot plans with, in
    /// [`ModelKind::PAPER_SET`] order, shared with every sweep cell that
    /// simulates this machine: the native fit, or the exponential-MLE
    /// fallback when it failed; `None` on Young's fixed tier
    /// ([`resolve_fit`]).
    pub fits: Vec<Option<Arc<FittedModel>>>,
    /// Mean of the training prefix: the MTTF Young's fixed interval uses
    /// for a slot without a model.
    pub mean_train: f64,
    /// The experimental (held-out) durations.
    pub test_durations: Vec<f64>,
}

impl MachineExperiment {
    /// The longest held-out availability duration: the age ceiling the
    /// machine's `T_opt` caches must cover.
    pub fn max_age(&self) -> f64 {
        self.test_durations.iter().cloned().fold(0.0f64, f64::max)
    }
}

/// Per-family fit-failure tally inside a [`PrepareReport`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FitFailureCount {
    /// Which estimator failed.
    pub kind: ModelKind,
    /// On how many machines it failed.
    pub failures: usize,
}

/// Accounting for the prepare phase: how many machines entered, how many
/// survived, why the rest were dropped, and which slots degraded.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct PrepareReport {
    /// Machines in the input pool.
    pub machines_total: usize,
    /// Machines in the experiment list.
    pub machines_usable: usize,
    /// Machines dropped because the trace could not be split into a
    /// non-empty training prefix plus a non-empty experimental
    /// remainder — the only reason a machine leaves the sweep.
    pub dropped_short_trace: usize,
    /// Natural estimator failures, per family in [`ModelKind::PAPER_SET`]
    /// order (a machine defeating several estimators counts once in
    /// each). Each one also lands in a fallback count.
    pub fit_failures: Vec<FitFailureCount>,
    /// Slots that degraded to the exponential-MLE fallback.
    pub fallback_exponential: usize,
    /// Slots that degraded past the exponential fallback to Young's
    /// fixed interval.
    pub fallback_fixed: usize,
}

/// [`prepare_experiments_resilient`]'s experiments plus its
/// [`PrepareReport`].
#[derive(Debug, Clone)]
pub struct PreparedExperiments {
    /// The machines that survived, with a plan for every family.
    pub experiments: Vec<MachineExperiment>,
    /// Drop and fallback accounting.
    pub report: PrepareReport,
}

/// [`prepare_experiments_resilient`] with no injected fit failures.
pub fn prepare_experiments_reported(pool: &MachinePool, train_len: usize) -> PreparedExperiments {
    prepare_experiments_resilient(pool, train_len, &FaultPlan::none())
}

/// Fit the paper's four models to every machine's training prefix.
///
/// Machines that cannot be split into a non-empty training prefix and a
/// non-empty experimental remainder are dropped as short traces. A
/// fit failure — natural, or injected through `plan.fit_failure(machine,
/// family)` — degrades the slot through [`resolve_fit`] instead of
/// dropping the machine: first to an exponential-MLE fit of the same
/// training prefix, then to Young's fixed interval `√(2·C·mean_train)`.
/// Every degradation is counted in the report, so no machine leaves the
/// sweep silently.
///
/// The native fits run as one flat rayon fan-out over `(machine ×
/// model)` work items, routed through the online scheduler's shared
/// ingest path, with an index-aligned reduction (item `ei·4 + mi` is
/// machine `ei`, family `mi`). Injected failures become disabled items
/// that skip the native fit but keep their slot. Every fit depends only
/// on its own training prefix and results are reduced in input order,
/// so the output is bitwise-identical for any thread count (pinned by
/// `tests/prepare_determinism.rs`).
pub fn prepare_experiments_resilient(
    pool: &MachinePool,
    train_len: usize,
    plan: &FaultPlan,
) -> PreparedExperiments {
    let kinds = ModelKind::PAPER_SET;

    // Serial split pass (cheap): keep machines long enough to train on
    // and test on. An empty training prefix has no mean either, so it
    // would plan Young's interval at MTTF 0: drop it as too short.
    let mut splits: Vec<(MachineId, Vec<f64>, Vec<f64>)> = Vec::new();
    let mut dropped_short_trace = 0usize;
    for trace in pool.traces() {
        match trace.split(train_len) {
            Ok((train, test)) if !train.is_empty() && !test.is_empty() => {
                splits.push((trace.machine, train, test))
            }
            _ => dropped_short_trace += 1,
        }
    }

    let items: Vec<FitItem<'_>> = splits
        .iter()
        .flat_map(|(machine, train, _)| {
            kinds.iter().enumerate().map(move |(mi, &kind)| {
                if plan.fit_failure(machine.0 as u64, mi as u64) {
                    FitItem::disabled(kind, train)
                } else {
                    FitItem::new(kind, train)
                }
            })
        })
        .collect();
    let natives = fit_batch(&items);

    let mut report = PrepareReport {
        machines_total: pool.len(),
        dropped_short_trace,
        fit_failures: kinds
            .iter()
            .map(|&kind| FitFailureCount { kind, failures: 0 })
            .collect(),
        ..PrepareReport::default()
    };
    let mut experiments = Vec::with_capacity(splits.len());
    let mut natives = natives.into_iter();
    for (machine, train, test) in splits {
        let mut fits = Vec::with_capacity(kinds.len());
        for counter in &mut report.fit_failures {
            let native = natives.next().expect("index-aligned");
            if matches!(native, Some(Err(_))) {
                counter.failures += 1;
            }
            let (fit, tier) = resolve_fit(native, &train);
            match tier {
                FitTier::Native => {}
                FitTier::Exponential => report.fallback_exponential += 1,
                FitTier::Fixed => report.fallback_fixed += 1,
            }
            fits.push(fit.map(Arc::new));
        }
        experiments.push(MachineExperiment {
            machine,
            fits,
            mean_train: mean(&train),
            test_durations: test,
        });
    }
    report.machines_usable = experiments.len();
    PreparedExperiments {
        experiments,
        report,
    }
}

/// The per-(C, model) cell of a sweep: per-machine metrics, index-aligned
/// with the experiment list.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct SweepCell {
    /// Efficiency per machine.
    pub efficiency: Vec<f64>,
    /// Network megabytes per machine.
    pub megabytes: Vec<f64>,
    /// Full accounting aggregated over the pool.
    pub aggregate: SimResult,
}

/// Results of a full grid sweep.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SweepGrid {
    /// The checkpoint costs on the grid (seconds).
    pub c_values: Vec<f64>,
    /// The models, in [`ModelKind::PAPER_SET`] order.
    pub models: Vec<ModelKind>,
    /// `cells[c_index][model_index]`.
    pub cells: Vec<Vec<SweepCell>>,
    /// Machines included (same order as each cell's vectors).
    pub machines: Vec<MachineId>,
}

impl SweepGrid {
    /// Mean efficiency for `(c_index, model_index)`.
    pub fn mean_efficiency(&self, c_index: usize, model_index: usize) -> f64 {
        mean(&self.cells[c_index][model_index].efficiency)
    }

    /// Mean megabytes for `(c_index, model_index)`.
    pub fn mean_megabytes(&self, c_index: usize, model_index: usize) -> f64 {
        mean(&self.cells[c_index][model_index].megabytes)
    }
}

/// The checkpoint-cost grid of the paper's Figures 3–4 / Tables 1 & 3.
pub const PAPER_C_GRID: [f64; 10] = [
    50.0, 100.0, 200.0, 250.0, 400.0, 500.0, 750.0, 1_000.0, 1_250.0, 1_500.0,
];

/// Simulate one `(machine, C, model)` work item and return its metrics.
fn run_cell_item(
    exp: &MachineExperiment,
    model_index: usize,
    c: f64,
    max_age: f64,
    image_mb: f64,
    warm: bool,
) -> SimResult {
    let mut config = SimConfig::paper(c);
    config.image_mb = image_mb;
    // A slot without a model schedules with Young's fixed interval.
    let Some(fit) = &exp.fits[model_index] else {
        let policy = FixedIntervalPolicy {
            interval: young_interval(c, exp.mean_train),
        };
        return simulate_trace(&exp.test_durations, &policy, &config).expect("validated durations");
    };
    let fit = Arc::clone(fit);
    let costs = CheckpointCosts::symmetric(c);
    let policy = if warm {
        CachedPolicy::new(fit, costs, max_age)
    } else {
        CachedPolicy::new_cold(fit, costs, max_age)
    };
    simulate_trace(&exp.test_durations, &policy, &config).expect("validated durations")
}

/// Run the full sweep: for every C and model, simulate every machine's
/// experimental trace under the model's cached `T_opt` policy.
///
/// One flat parallel map over `machine × C × model` work items; the
/// reduction into cells is pure index arithmetic, so results are
/// identical for any thread count (and bitwise-equal to
/// [`sweep_paper_grid_reference`]).
pub fn sweep_paper_grid(
    experiments: &[MachineExperiment],
    c_values: &[f64],
    image_mb: f64,
) -> SweepGrid {
    let models: Vec<ModelKind> = ModelKind::PAPER_SET.to_vec();
    let machines: Vec<MachineId> = experiments.iter().map(|e| e.machine).collect();
    let n_c = c_values.len();
    let n_k = models.len();
    let n_items = experiments.len() * n_c * n_k;

    // Hoisted out of the C × model loops: one max-age scan per machine
    // instead of one per cell.
    let max_ages: Vec<f64> = experiments.iter().map(MachineExperiment::max_age).collect();

    // Item index layout: ei * (n_c * n_k) + ci * n_k + mi.
    let results: Vec<SimResult> = (0..n_items)
        .into_par_iter()
        .map(|idx| {
            let ei = idx / (n_c * n_k);
            let ci = (idx / n_k) % n_c;
            let mi = idx % n_k;
            run_cell_item(
                &experiments[ei],
                mi,
                c_values[ci],
                max_ages[ei],
                image_mb,
                true,
            )
        })
        .collect();

    // Index-aligned reduction: machine order inside each cell matches the
    // experiment list, aggregate absorption runs in ascending machine
    // order — exactly the serial loop's order.
    let cells: Vec<Vec<SweepCell>> = (0..n_c)
        .map(|ci| {
            (0..n_k)
                .map(|mi| {
                    let mut cell = SweepCell::default();
                    for ei in 0..experiments.len() {
                        let r = &results[ei * n_c * n_k + ci * n_k + mi];
                        cell.efficiency.push(r.efficiency());
                        cell.megabytes.push(r.megabytes);
                        cell.aggregate.absorb(r);
                    }
                    cell
                })
                .collect()
        })
        .collect();

    SweepGrid {
        c_values: c_values.to_vec(),
        models,
        cells,
        machines,
    }
}

fn sweep_serial(
    experiments: &[MachineExperiment],
    c_values: &[f64],
    image_mb: f64,
    warm: bool,
) -> SweepGrid {
    let models: Vec<ModelKind> = ModelKind::PAPER_SET.to_vec();
    let machines: Vec<MachineId> = experiments.iter().map(|e| e.machine).collect();

    let cells: Vec<Vec<SweepCell>> = c_values
        .iter()
        .map(|&c| {
            models
                .iter()
                .enumerate()
                .map(|(mi, _)| {
                    let mut cell = SweepCell::default();
                    for exp in experiments {
                        // Deliberately unhoisted: the reference pays the
                        // per-cell max-age rescan the flat sweep removed.
                        let r = run_cell_item(exp, mi, c, exp.max_age(), image_mb, warm);
                        cell.efficiency.push(r.efficiency());
                        cell.megabytes.push(r.megabytes);
                        cell.aggregate.absorb(&r);
                    }
                    cell
                })
                .collect()
        })
        .collect();

    SweepGrid {
        c_values: c_values.to_vec(),
        models,
        cells,
        machines,
    }
}

/// The naive serial sweep with the pre-optimization cost profile: nested
/// `C → model → machine` loops, a fresh max-age scan per cell, and a cold
/// (full-bracket) `T_opt` search at every grid point. Its tables keep the
/// same reachable knots as the optimized sweep's (the lattice from the
/// last age at or below `R = C`), so the two differ only in how each knot
/// is searched. This is the baseline `sweep_bench` times
/// [`sweep_paper_grid`] against. Its `T_opt` tables agree with the
/// optimized sweep's four-lane warm fill within the lane search's plateau
/// bound (5e-4 relative, about 1e-6 measured on Weibull fits); the
/// simulated cells then differ wherever such a shift flips a checkpoint
/// across a failure.
pub fn sweep_paper_grid_reference(
    experiments: &[MachineExperiment],
    c_values: &[f64],
    image_mb: f64,
) -> SweepGrid {
    sweep_serial(experiments, c_values, image_mb, false)
}

/// The naive serial sweep using the same warm-started policy fill as
/// [`sweep_paper_grid`]. Because every per-cell computation is identical,
/// the flat fan-out must reproduce this **bitwise**; the differential
/// regression test pins that down cell-by-cell at 1e-9, isolating the
/// fan-out/reduction restructure from optimizer-precision effects.
pub fn sweep_paper_grid_serial(
    experiments: &[MachineExperiment],
    c_values: &[f64],
    image_mb: f64,
) -> SweepGrid {
    sweep_serial(experiments, c_values, image_mb, true)
}

/// One family's row of [`audit_warm_fill`].
#[derive(Debug, Clone, Serialize)]
pub struct FillExcess {
    /// The family audited.
    pub kind: ModelKind,
    /// `(machine, C, age)` reachable grid points compared.
    pub points: usize,
    /// Points where Γ/T at the warm-filled `T` exceeds Γ/T at the cold
    /// `T` by more than the audit tolerance (relative).
    pub above: usize,
    /// The largest relative excess of warm over cold Γ/T (0 when the warm
    /// fill is never worse).
    pub worst: f64,
}

/// Plateau audit of the sweep's warm `T_opt` fill: for every machine, C
/// and family, build the warm ([`CachedPolicy::new`]) and cold
/// ([`CachedPolicy::new_cold`]) tables and compare the objective Γ/T at
/// the two filled intervals at every grid age the tables keep — the
/// lattice ages the executor can reach, from the last one at or below
/// `R = C` — so `points` counts reachable knots. Where both searches found
/// the same optimum the excess is plateau noise (≪ 1e-6); a larger
/// excess means the warm chain stayed in a worse basin.
///
/// Returns one row per family in [`ModelKind::PAPER_SET`] order. Slots
/// on Young's fixed interval have no table and are skipped. Counts and
/// maxima do not depend on the thread count.
pub fn audit_warm_fill(
    experiments: &[MachineExperiment],
    c_values: &[f64],
    tolerance: f64,
) -> Vec<FillExcess> {
    let n_c = c_values.len();
    let n_k = ModelKind::PAPER_SET.len();
    let per_item: Vec<(usize, usize, f64)> = (0..experiments.len() * n_c * n_k)
        .into_par_iter()
        .map(|idx| {
            let exp = &experiments[idx / (n_c * n_k)];
            let mi = idx % n_k;
            let Some(fit) = &exp.fits[mi] else {
                return (0, 0, 0.0);
            };
            let costs = CheckpointCosts::symmetric(c_values[(idx / n_k) % n_c]);
            let Ok(vaidya) = VaidyaModel::shared(Arc::clone(fit), costs) else {
                return (0, 0, 0.0);
            };
            let max_age = exp.max_age();
            let warm = CachedPolicy::new(Arc::clone(fit), costs, max_age);
            let cold = CachedPolicy::new_cold(Arc::clone(fit), costs, max_age);
            let ((ages, warm_t), (_, cold_t)) = (warm.grid(), cold.grid());
            let (mut above, mut worst) = (0, 0.0f64);
            for ((&age, &tw), &tc) in ages.iter().zip(warm_t).zip(cold_t) {
                let excess = vaidya.overhead_ratio(tw, age) / vaidya.overhead_ratio(tc, age) - 1.0;
                if excess > tolerance {
                    above += 1;
                }
                worst = worst.max(excess);
            }
            (ages.len(), above, worst)
        })
        .collect();
    ModelKind::PAPER_SET
        .iter()
        .enumerate()
        .map(|(mi, &kind)| {
            let mut row = FillExcess {
                kind,
                points: 0,
                above: 0,
                worst: 0.0,
            };
            for &(points, above, worst) in per_item.iter().skip(mi).step_by(n_k) {
                row.points += points;
                row.above += above;
                row.worst = row.worst.max(worst);
            }
            row
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use chs_dist::AvailabilityModel;
    use chs_trace::synthetic::{generate_pool, PoolConfig};
    use chs_trace::AvailabilityTrace;

    fn small_pool() -> MachinePool {
        generate_pool(&PoolConfig::small(12, 60, 17)).as_machine_pool()
    }

    #[test]
    fn prepare_fits_all_four_models() {
        let exps = prepare_experiments_reported(&small_pool(), 25).experiments;
        assert!(!exps.is_empty());
        for e in &exps {
            assert_eq!(e.fits.len(), 4);
            assert_eq!(e.test_durations.len(), 35);
            for (kind, fit) in ModelKind::PAPER_SET.iter().zip(&e.fits) {
                assert_eq!(fit.as_ref().unwrap().kind(), *kind);
            }
        }
    }

    #[test]
    fn prepare_drops_short_traces() {
        let pool = generate_pool(&PoolConfig::small(4, 10, 3)).as_machine_pool();
        // train_len 25 > 10 observations: everything dropped.
        assert!(prepare_experiments_reported(&pool, 25)
            .experiments
            .is_empty());
    }

    #[test]
    fn prepare_report_accounts_for_every_machine() {
        let pool = small_pool();
        let prepared = prepare_experiments_reported(&pool, 25);
        let r = &prepared.report;
        assert_eq!(r.machines_total, pool.len());
        assert_eq!(r.machines_usable, prepared.experiments.len());
        assert_eq!(r.machines_usable + r.dropped_short_trace, r.machines_total);
        assert_eq!(r.fit_failures.len(), ModelKind::PAPER_SET.len());
        for (fc, kind) in r.fit_failures.iter().zip(ModelKind::PAPER_SET) {
            assert_eq!(fc.kind, kind);
        }

        // A pool of all-too-short traces lands entirely in the
        // short-trace bucket.
        let short = generate_pool(&PoolConfig::small(4, 10, 3)).as_machine_pool();
        let r = prepare_experiments_reported(&short, 25).report;
        assert_eq!(r.dropped_short_trace, 4);
        assert_eq!(r.machines_usable, 0);

        // So does an empty training prefix: it has no mean to plan on.
        let r = prepare_experiments_reported(&pool, 0).report;
        assert_eq!(r.dropped_short_trace, pool.len());
        assert_eq!(r.machines_usable, 0);
    }

    #[test]
    fn natural_fit_failures_degrade_and_are_counted() {
        // Machine 1's training prefix is 25 identical durations, which
        // defeat the Weibull MLE: its Weibull slot runs on the
        // exponential fallback, counted as a failure and a fallback.
        let varied: Vec<f64> = (0..40).map(|i| 300.0 + 157.0 * f64::from(i % 13)).collect();
        let mut flat = vec![900.0; 25];
        flat.extend_from_slice(&varied[..15]);
        let pool = MachinePool::new(vec![
            AvailabilityTrace::from_durations(MachineId(0), &varied).unwrap(),
            AvailabilityTrace::from_durations(MachineId(1), &flat).unwrap(),
        ]);
        let prepared = prepare_experiments_reported(&pool, 25);
        let r = &prepared.report;
        assert_eq!(r.machines_usable, 2);
        assert_eq!(r.fit_failures[1].failures, 1, "{r:?}");
        let degraded = r.fit_failures.iter().map(|f| f.failures).sum::<usize>();
        assert_eq!(r.fallback_exponential, degraded);
        assert_eq!(r.fallback_fixed, 0);
        let weibull_slot = prepared.experiments[1].fits[1].as_ref().unwrap();
        assert_eq!(weibull_slot.kind(), ModelKind::Exponential);
        assert!((weibull_slot.mean() - 900.0).abs() < 1e-9);
    }

    #[test]
    fn resilient_prepare_never_drops_for_fit_failure() {
        let pool = small_pool();
        // Every (machine, family) fit injected to fail.
        let plan = FaultPlan {
            p_fit_failure: 1.0,
            ..FaultPlan::none()
        };
        let prepared = prepare_experiments_resilient(&pool, 25, &plan);
        let classic = prepare_experiments_reported(&pool, 25);
        // The same machines survive as without injection.
        assert_eq!(
            prepared.report.machines_usable,
            classic.report.machines_usable
        );
        assert_eq!(
            prepared.report.fallback_exponential + prepared.report.fallback_fixed,
            prepared.report.machines_usable * ModelKind::PAPER_SET.len(),
            "every slot must land on a fallback tier"
        );
        for e in &prepared.experiments {
            assert_eq!(e.fits.len(), ModelKind::PAPER_SET.len());
            assert!(e
                .fits
                .iter()
                .flatten()
                .all(|f| f.kind() == ModelKind::Exponential));
        }
        // The degraded pool still sweeps: every machine covered.
        let grid = sweep_paper_grid(&prepared.experiments, &[250.0], 500.0);
        assert_eq!(grid.machines.len(), prepared.experiments.len());
        for cell in &grid.cells[0] {
            assert_eq!(cell.efficiency.len(), prepared.experiments.len());
            for &eff in &cell.efficiency {
                assert!((0.0..=1.0).contains(&eff), "efficiency {eff}");
            }
        }
    }

    #[test]
    fn fixed_tier_slots_run_youngs_interval() {
        let mut exps = prepare_experiments_reported(&small_pool(), 25).experiments;
        // Force one slot all the way down to the Fixed tier and check the
        // sweep runs it on exactly Young's interval.
        exps[0].fits[0] = None;
        let grid = sweep_paper_grid(&exps[..1], &[100.0], 500.0);
        let policy = FixedIntervalPolicy {
            interval: young_interval(100.0, exps[0].mean_train),
        };
        let young =
            simulate_trace(&exps[0].test_durations, &policy, &SimConfig::paper(100.0)).unwrap();
        let eff = grid.cells[0][0].efficiency[0];
        assert_eq!(eff.to_bits(), young.efficiency().to_bits());
        assert!((0.0..=1.0).contains(&eff));
        assert!(grid.cells[0][0].aggregate.conservation_residual().abs() < 1e-3);
    }

    #[test]
    fn sweep_shapes_and_alignment() {
        let exps = prepare_experiments_reported(&small_pool(), 25).experiments;
        let grid = sweep_paper_grid(&exps, &[100.0, 500.0], 500.0);
        assert_eq!(grid.c_values, vec![100.0, 500.0]);
        assert_eq!(grid.models.len(), 4);
        assert_eq!(grid.cells.len(), 2);
        for row in &grid.cells {
            assert_eq!(row.len(), 4);
            for cell in row {
                assert_eq!(cell.efficiency.len(), exps.len());
                assert_eq!(cell.megabytes.len(), exps.len());
            }
        }
        assert_eq!(grid.machines.len(), exps.len());
    }

    #[test]
    fn efficiency_decreases_with_checkpoint_cost() {
        let exps = prepare_experiments_reported(&small_pool(), 25).experiments;
        let grid = sweep_paper_grid(&exps, &[50.0, 1_500.0], 500.0);
        for mi in 0..4 {
            let cheap = grid.mean_efficiency(0, mi);
            let dear = grid.mean_efficiency(1, mi);
            assert!(
                cheap > dear,
                "model {mi}: eff(C=50)={cheap} !> eff(C=1500)={dear}"
            );
        }
    }

    #[test]
    fn all_efficiencies_are_fractions() {
        let exps = prepare_experiments_reported(&small_pool(), 25).experiments;
        let grid = sweep_paper_grid(&exps, &[250.0], 500.0);
        for cell in &grid.cells[0] {
            for &e in &cell.efficiency {
                assert!((0.0..=1.0).contains(&e), "efficiency {e}");
            }
            for &mb in &cell.megabytes {
                assert!(mb >= 0.0);
            }
            assert!(cell.aggregate.conservation_residual().abs() < 1e-3);
        }
    }
}
