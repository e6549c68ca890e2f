//! `paper-grid`: the paper's Figure 3 / Table 3 pipeline — fit the four
//! families to every machine's training prefix, then simulate every
//! machine under every family's `T_opt` schedule at every checkpoint
//! cost of the paper's grid. The only workload carrying the paper's
//! bandwidth claim (`h2_mb_saving_min`).
//!
//! The machine population (each machine's ground-truth availability
//! process) is the synthetic pool's default one; the seed draws the
//! traces from it. Pool-wide results then move with the seed only as
//! much as sampling moves them, not with which machines were drawn.

use super::{check_ledger, fold, ledger_values, Checked, Iteration, Scale, Workload};
use crate::trace::Tracer;
use chs_cycle::CycleAccounting;
use chs_sim::sweep::PAPER_C_GRID;
use chs_sim::{prepare_experiments_reported, sweep_paper_grid, PrepareReport, SweepGrid};
use chs_trace::synthetic::{generate_pool, PoolConfig, DAY};
use chs_trace::{AvailabilityTrace, MachinePool, Observation, PAPER_TRAIN_LEN};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Checkpoint image, MB (the paper's 500 MB).
const IMAGE_MB: f64 = 500.0;

/// The paper's claim is about checkpoint costs of at least this many
/// seconds.
const CLAIM_MIN_C: f64 = 200.0;

/// Column of the exponential and 2-phase hyperexponential families in
/// `ModelKind::PAPER_SET` order.
const EXP: usize = 0;
const H2: usize = 2;

/// The workload at one size.
pub struct PaperGrid {
    machines: usize,
    observations: usize,
}

impl PaperGrid {
    /// Sizes for `scale`.
    pub fn new(scale: Scale) -> Self {
        match scale {
            Scale::Bench => PaperGrid {
                machines: 512,
                observations: 225,
            },
            Scale::Quick => PaperGrid {
                machines: 8,
                observations: 60,
            },
        }
    }
}

/// Prepare accounting plus the swept grid.
pub struct GridOutput {
    report: PrepareReport,
    grid: SweepGrid,
}

impl GridOutput {
    fn ledger(&self) -> CycleAccounting {
        let mut total = CycleAccounting::default();
        for cell in self.grid.cells.iter().flatten() {
            total.absorb(&cell.aggregate);
        }
        total
    }
}

impl Workload for PaperGrid {
    type Input = MachinePool;
    type Output = GridOutput;

    fn setup(&self, seed: u64) -> MachinePool {
        let config = PoolConfig {
            machines: self.machines,
            observations_per_machine: self.observations,
            ..PoolConfig::default()
        };
        // The same trace synthesis as `chs_trace::synthetic` (a random
        // phase of the week, then availability durations alternating with
        // exponential gaps), with the seed's RNG instead of the
        // population's.
        let traces = generate_pool(&config)
            .machines
            .iter()
            .map(|m| {
                let mut rng = ChaCha8Rng::seed_from_u64(fold(seed, u64::from(m.trace.machine.0)));
                let mut t = rng.gen::<f64>() * 7.0 * DAY;
                let observations = (0..self.observations)
                    .map(|_| {
                        let duration = m.ground_truth.sample_duration(t, &mut rng).max(1.0);
                        let start = t;
                        let gap = -rng.gen::<f64>().max(f64::MIN_POSITIVE).ln() * config.mean_gap;
                        t += duration + gap;
                        Observation { start, duration }
                    })
                    .collect();
                AvailabilityTrace::new(m.trace.machine, observations).expect("positive durations")
            })
            .collect();
        MachinePool::new(traces)
    }

    fn input_digest(&self, input: &MachinePool) -> u64 {
        input.traces().iter().fold(0, |h, trace| {
            trace
                .observations()
                .iter()
                .fold(fold(h, u64::from(trace.machine.0)), |h, o| {
                    fold(fold(h, o.start.to_bits()), o.duration.to_bits())
                })
        })
    }

    fn run(&self, input: &MachinePool, tracer: &mut Tracer) -> GridOutput {
        let phase = tracer.enter("sim.prepare");
        let prepared = prepare_experiments_reported(input, PAPER_TRAIN_LEN);
        tracer.exit(phase);
        let phase = tracer.enter("sim.sweep");
        let grid = sweep_paper_grid(&prepared.experiments, &PAPER_C_GRID, IMAGE_MB);
        tracer.exit(phase);
        GridOutput {
            report: prepared.report,
            grid,
        }
    }

    fn summarize(&self, out: &GridOutput) -> Iteration {
        let mut it = Iteration::default();
        ledger_values(&out.ledger(), &mut it.values);
        let cells = &out.grid.cells;
        // The paper's efficiency is a mean over machines (Figure 3);
        // averaged over every (C, family) cell of the grid.
        let per_machine: Vec<f64> = cells
            .iter()
            .flatten()
            .flat_map(|c| c.efficiency.iter().copied())
            .collect();
        let mean = per_machine.iter().sum::<f64>() / per_machine.len() as f64;
        it.values.insert("efficiency", mean);
        let saving = out
            .grid
            .c_values
            .iter()
            .zip(cells)
            .filter(|(&c, _)| c >= CLAIM_MIN_C)
            .map(|(_, row)| 1.0 - row[H2].aggregate.megabytes / row[EXP].aggregate.megabytes)
            .fold(f64::INFINITY, f64::min);
        it.values.insert("h2_mb_saving_min", saving);
        let mut h = out
            .grid
            .machines
            .iter()
            .fold(0, |h, m| fold(h, u64::from(m.0)));
        for cell in cells.iter().flatten() {
            for (e, mb) in cell.efficiency.iter().zip(&cell.megabytes) {
                h = fold(fold(h, e.to_bits()), mb.to_bits());
            }
        }
        it.digest = h;
        it.attempted = out.report.machines_total as u64;
        it.failed = (out.report.machines_total - out.report.machines_usable) as u64;
        it
    }

    fn check(&self, _input: &MachinePool, out: &GridOutput) -> Checked {
        let mut checked = Checked::default();
        let failures = &mut checked.failures;
        let usable = out.report.machines_usable;
        if usable == 0 || out.grid.machines.len() != usable {
            failures.push(format!(
                "sweep covers {} machines, prepare kept {usable}",
                out.grid.machines.len()
            ));
        }
        for (c, row) in out.grid.c_values.iter().zip(&out.grid.cells) {
            for (kind, cell) in out.grid.models.iter().zip(row) {
                let label = format!("C={c} {}", kind.label());
                check_ledger(&label, &cell.aggregate, failures);
                if cell.efficiency.len() != usable || cell.megabytes.len() != usable {
                    failures.push(format!("{label}: per-machine vectors misaligned"));
                }
                if let Some(e) = cell.efficiency.iter().find(|e| !(0.0..=1.0).contains(*e)) {
                    failures.push(format!("{label}: efficiency {e} outside [0, 1]"));
                }
            }
        }
        checked
    }
}
