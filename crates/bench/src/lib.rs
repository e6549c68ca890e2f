//! Shared infrastructure for the experiment binaries that regenerate the
//! paper's tables and figures, and for the layer benches.
//!
//! Every binary accepts the same tiny CLI surface (no external parser):
//!
//! * `--machines N` — pool size (default 96; the paper used ~640, pass
//!   `--full` for that),
//! * `--seed S` — RNG seed,
//! * `--full` — paper-scale pool (640 machines),
//! * `--quick` — CI-sized run,
//! * `--json PATH` — also dump the raw results as JSON.
//!
//! A bench with options of its own (`pool_bench --window`, `--large`;
//! `serve_bench --queries`) reads them through the same parser
//! ([`CommonArgs::parse_with`]), and every count must be positive.
//!
//! Output is printed as fixed-width tables matching the paper's layout so
//! rows can be compared side by side with the published numbers.
//!
//! The eight `*_bench` binaries share one report-and-gate path
//! ([`harness`]). The frozen rescan-style pool engine that `pool_bench`
//! measures the calendar engine against lives here too ([`rescan`]), so
//! no production crate carries a reference engine.

#![deny(missing_docs)]

pub mod harness;
pub mod rescan;

use chs_sim::{
    prepare_experiments_reported, sweep_paper_grid, MachineExperiment, PreparedExperiments,
    SweepGrid,
};
use chs_trace::synthetic::{generate_pool, PoolConfig};
use chs_trace::PAPER_TRAIN_LEN;

/// Common CLI options.
#[derive(Debug, Clone)]
pub struct CommonArgs {
    /// Pool size.
    pub machines: usize,
    /// Master seed.
    pub seed: u64,
    /// Optional JSON dump path.
    pub json: Option<String>,
    /// Observations per machine (training 25 + experimental remainder).
    pub observations: usize,
    /// `--quick` was given.
    pub quick: bool,
}

impl Default for CommonArgs {
    fn default() -> Self {
        Self {
            machines: 96,
            seed: 2_005,
            json: None,
            observations: 225,
            quick: false,
        }
    }
}

impl CommonArgs {
    /// Parse from `std::env::args`, exiting with a usage message on error.
    pub fn parse() -> Self {
        Self::default().parse_with(24, "", |_, _| false)
    }

    /// Parse `std::env::args` over `self`, the binary's defaults. Exits 2
    /// with a usage message on an unknown flag or a bad value, and 0
    /// after `--help`.
    ///
    /// `--quick` sets `quick`, `quick_machines` machines and 125
    /// observations. It and every flag the common options do not know
    /// are then offered to `extra`, which returns whether it took the
    /// flag and reads any value through the [`ArgReader`]. `extra_help`
    /// lists the binary's own options for `--help`.
    pub fn parse_with(
        mut self,
        quick_machines: usize,
        extra_help: &str,
        mut extra: impl FnMut(&str, &mut ArgReader) -> bool,
    ) -> Self {
        let mut args = ArgReader(std::env::args().skip(1).collect::<Vec<_>>().into_iter());
        while let Some(arg) = args.0.next() {
            match arg.as_str() {
                "--machines" => self.machines = args.count("--machines"),
                "--seed" => self.seed = args.parse("--seed"),
                "--observations" => self.observations = args.count("--observations"),
                "--full" => self.machines = 640,
                "--quick" => {
                    self.quick = true;
                    self.machines = quick_machines;
                    self.observations = 125;
                    extra("--quick", &mut args);
                }
                "--json" => self.json = Some(args.value("--json")),
                "--help" | "-h" => {
                    eprintln!(
                        "options: --machines N | --full | --quick | --seed S | \
                         --observations N | --json PATH{extra_help}"
                    );
                    std::process::exit(0);
                }
                other => {
                    if !extra(other, &mut args) {
                        usage(other)
                    }
                }
            }
        }
        self
    }

    /// The `--json` path, or `default` when none was given.
    pub fn report_path(&self, default: &str) -> String {
        self.json.clone().unwrap_or_else(|| default.into())
    }

    /// The synthetic-pool configuration for these arguments.
    pub fn pool_config(&self) -> PoolConfig {
        PoolConfig {
            machines: self.machines,
            observations_per_machine: self.observations,
            seed: self.seed,
            ..PoolConfig::default()
        }
    }
}

/// The remaining command-line arguments, read through validated value
/// readers that exit 2 with a usage message on a missing or bad value.
pub struct ArgReader(std::vec::IntoIter<String>);

impl ArgReader {
    /// The raw value after `flag`.
    fn value(&mut self, flag: &str) -> String {
        self.0.next().unwrap_or_else(|| usage(flag))
    }

    /// The value after `flag`, parsed as a `T`.
    fn parse<T: std::str::FromStr>(&mut self, flag: &str) -> T {
        self.value(flag).parse().unwrap_or_else(|_| usage(flag))
    }

    /// A count: a whole number of at least 1 (a zero pool, trace or
    /// query count has nothing to measure).
    pub fn count(&mut self, flag: &str) -> usize {
        match self.parse(flag) {
            0 => usage(flag),
            n => n,
        }
    }

    /// A finite number greater than zero.
    pub fn positive(&mut self, flag: &str) -> f64 {
        let v: f64 = self.parse(flag);
        if !(v.is_finite() && v > 0.0) {
            usage(flag)
        }
        v
    }
}

fn usage(flag: &str) -> ! {
    eprintln!("bad or missing argument near {flag}; see --help");
    std::process::exit(2);
}

/// Generate the pool and fit all four models per machine — the common
/// front half of the Figure 3 / Table 1 / Table 3 pipeline.
pub fn prepare_pool(args: &CommonArgs) -> Vec<MachineExperiment> {
    prepare_pool_reported(args).experiments
}

/// Like [`prepare_pool`], but also returns the prepare-phase accounting
/// (short-trace drops, per-estimator fit failures and the fallback tiers
/// they degraded to) for binaries that surface it in their reports.
pub fn prepare_pool_reported(args: &CommonArgs) -> PreparedExperiments {
    let pool = generate_pool(&args.pool_config()).as_machine_pool();
    let prepared = prepare_experiments_reported(&pool, PAPER_TRAIN_LEN);
    let r = &prepared.report;
    eprintln!(
        "pool: {} machines generated, {} usable after fitting (paper: ~640 of >1000); \
         dropped {} short-trace; {} slots on the exponential fallback, {} on Young's interval",
        r.machines_total,
        r.machines_usable,
        r.dropped_short_trace,
        r.fallback_exponential,
        r.fallback_fixed
    );
    prepared
}

/// Run the paper's checkpoint-cost grid sweep.
pub fn run_paper_sweep(experiments: &[MachineExperiment]) -> SweepGrid {
    sweep_paper_grid(experiments, &chs_sim::sweep::PAPER_C_GRID, 500.0)
}

/// Drive the shared checkpoint-cycle machine step-by-step over an
/// availability trace under a fixed-bandwidth link.
///
/// This is the incremental-driving counterpart of the closed-form
/// `chs_cycle::run_trace`: branch decisions use the same `age`
/// bookkeeping as the closed-form loop, so both executors make identical
/// decisions and their totals agree to floating-point accrual error
/// (≤ 1e-9 relative). Transfers advance in uneven sub-slices to exercise
/// incremental accrual, the code path the contention executor uses. Used
/// by the cycle benchmarks to time stepping against the closed form and
/// assert the identity at the same time.
pub fn step_drive_trace(
    durations: &[f64],
    policy: &dyn chs_cycle::SchedulePolicy,
    config: &chs_cycle::CycleConfig,
) -> chs_cycle::CycleAccounting {
    let mut machine = chs_cycle::CycleMachine::new(*config);
    for &a in durations {
        step_drive_segment(&mut machine, a, policy);
    }
    machine.into_accounting()
}

fn step_drive_segment(
    machine: &mut chs_cycle::CycleMachine,
    a: f64,
    policy: &dyn chs_cycle::SchedulePolicy,
) {
    let config = *machine.config();
    let c = config.checkpoint_cost;
    let rec = config.recovery_cost;
    let image = config.image_mb;
    let obs = &mut chs_cycle::NoopObserver;

    // Advance a transfer of `full` seconds for `elapsed` of them, in
    // three uneven slices, feeding the linear fixed-bandwidth byte count.
    fn advance_transfer(m: &mut chs_cycle::CycleMachine, elapsed: f64, full: f64, image: f64) {
        let rate = if full > 0.0 { image / full } else { 0.0 };
        let cuts = [0.37, 0.81, 1.0];
        let mut done = 0.0;
        for cut in cuts {
            let upto = elapsed * cut;
            let dt = upto - done;
            m.advance(dt, dt * rate);
            done = upto;
        }
    }

    machine.place(a, obs);
    if a < rec {
        advance_transfer(machine, a, rec, image);
        machine.evict(obs);
        return;
    }
    advance_transfer(machine, rec, rec, image);
    machine.complete_recovery(obs);
    let mut age = rec;
    loop {
        let t = chs_cycle::guarded_interval(age, |age| policy.next_interval(age));
        machine.start_work(t, obs);
        if age + t >= a {
            machine.advance(a - age, 0.0);
            machine.evict(obs);
            return;
        }
        machine.advance(t, 0.0);
        machine.start_checkpoint(obs);
        if age + t + c > a {
            let ckpt_elapsed = a - (age + t);
            advance_transfer(machine, ckpt_elapsed, c, image);
            machine.evict(obs);
            return;
        }
        advance_transfer(machine, c, c, image);
        machine.complete_checkpoint(obs);
        age += t + c;
        if age >= a {
            machine.evict(obs);
            return;
        }
    }
}

/// The `{label}.conservation` gate over one aggregated ledger: time and
/// bytes balance to 1e-6 relative, and the ledger's fault, retry and
/// abandonment counters match `faults`. Checkpoints that admission
/// control deferred (`deferred`) are abandonments the fault report does
/// not count.
pub fn conservation_gate(
    gates: &mut harness::Gates,
    label: &str,
    ledger: &chs_cycle::CycleAccounting,
    faults: &chs_condor::FaultReport,
    deferred: u64,
) {
    let time = ledger.conservation_residual().abs();
    let bytes = ledger.byte_conservation_residual().abs();
    let retries = faults.retries + faults.checkpoints_abandoned;
    let abandoned = faults.checkpoints_abandoned + deferred;
    gates.check(
        format!("{label}.conservation"),
        time < 1e-6 * ledger.total_seconds.max(1.0)
            && bytes < 1e-6 * ledger.megabytes.max(1.0)
            && ledger.faults_injected == faults.total_faults()
            && ledger.transfer_retries == retries
            && ledger.checkpoints_abandoned == abandoned,
        format!(
            "time residual {time:.3e}, byte residual {bytes:.3e}; ledger vs report: \
             faults {} / {}, retries {} / {retries}, abandoned {} / {abandoned}",
            ledger.faults_injected,
            faults.total_faults(),
            ledger.transfer_retries,
            ledger.checkpoints_abandoned
        ),
    );
}

/// Fixed-width table printer.
pub struct TablePrinter {
    widths: Vec<usize>,
}

impl TablePrinter {
    /// Create with column widths.
    pub fn new(widths: Vec<usize>) -> Self {
        Self { widths }
    }

    /// Print one row, left-padding each cell to its column width.
    pub fn row(&self, cells: &[String]) {
        let line: Vec<String> = cells
            .iter()
            .zip(&self.widths)
            .map(|(c, w)| format!("{c:>w$}", w = w))
            .collect();
        println!("{}", line.join("  "));
    }

    /// Print a separator rule spanning all columns (plus the two-space
    /// gutters between them). A printer with no columns prints an empty
    /// rule rather than underflowing the gutter count.
    pub fn rule(&self) {
        let gutters = 2 * self.widths.len().saturating_sub(1);
        let total: usize = self.widths.iter().sum::<usize>() + gutters;
        println!("{}", "-".repeat(total));
    }
}

/// Write a serializable result to JSON if the user asked for it.
pub fn maybe_dump_json<T: serde::Serialize>(args: &CommonArgs, value: &T) {
    if let Some(path) = &args.json {
        match serde_json::to_string_pretty(value) {
            Ok(json) => {
                if let Err(e) = std::fs::write(path, json) {
                    eprintln!("could not write {path}: {e}");
                } else {
                    eprintln!("raw results written to {path}");
                }
            }
            Err(e) => eprintln!("could not serialize results: {e}"),
        }
    }
}

/// Render a simple ASCII line chart: one labelled series per model over
/// the shared x grid (used by the figure binaries; gnuplot-free).
pub fn ascii_chart(title: &str, x: &[f64], series: &[(String, Vec<f64>)], height: usize) {
    println!("\n{title}");
    let all: Vec<f64> = series
        .iter()
        .flat_map(|(_, ys)| ys.iter().copied())
        .collect();
    let lo = all.iter().cloned().fold(f64::INFINITY, f64::min);
    let hi = all.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    if !(lo.is_finite() && hi.is_finite()) {
        println!("(no data)");
        return;
    }
    let span = (hi - lo).max(1e-12);
    let marks = ['e', 'w', '2', '3', '*', '+'];
    for level in (0..=height).rev() {
        let y = lo + span * level as f64 / height as f64;
        let mut line = format!("{y:>12.3} |");
        for xi in 0..x.len() {
            let mut cell = ' ';
            for (si, (_, ys)) in series.iter().enumerate() {
                let norm = ((ys[xi] - lo) / span * height as f64).round() as usize;
                if norm == level {
                    cell = marks[si % marks.len()];
                }
            }
            line.push(cell);
            line.push(' ');
        }
        println!("{line}");
    }
    let mut axis = format!("{:>12} +", "");
    for _ in x {
        axis.push_str("--");
    }
    println!("{axis}");
    let labels: Vec<String> = x.iter().map(|v| format!("{v:.0}")).collect();
    println!("{:>14}{}", "C(s): ", labels.join(" "));
    for (si, (name, _)) in series.iter().enumerate() {
        println!("{:>14}{} = {name}", "", marks[si % marks.len()]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_args() {
        let a = CommonArgs::default();
        assert_eq!(a.machines, 96);
        assert!(a.json.is_none());
        assert_eq!(a.pool_config().machines, 96);
        assert_eq!(a.pool_config().seed, 2_005);
    }

    #[test]
    fn rule_handles_zero_columns() {
        // `widths.len() - 1` previously underflowed here and panicked in
        // debug builds (wrapped to a ~usize::MAX repeat in release).
        TablePrinter::new(Vec::new()).rule();
        TablePrinter::new(vec![5]).rule();
        TablePrinter::new(vec![3, 4]).rule();
    }

    #[test]
    fn step_drive_matches_closed_form() {
        struct Fixed;
        impl chs_cycle::SchedulePolicy for Fixed {
            fn next_interval(&self, _age: f64) -> f64 {
                400.0
            }
            fn label(&self) -> String {
                "fixed".into()
            }
        }
        let durations: Vec<f64> = (0..50)
            .map(|i| (i as f64 * 311.7) % 4_000.0 + 1.0)
            .collect();
        let config = chs_cycle::CycleConfig::paper(110.0);
        let closed =
            chs_cycle::run_trace(&durations, &Fixed, &config, &mut chs_cycle::NoopObserver);
        let step = step_drive_trace(&durations, &Fixed, &config);
        assert_eq!(step.checkpoints_committed, closed.checkpoints_committed);
        assert_eq!(step.failures, closed.failures);
        let rel = |x: f64, y: f64| (x - y).abs() / x.abs().max(y.abs()).max(1.0);
        assert!(rel(step.useful_seconds, closed.useful_seconds) < 1e-9);
        assert!(rel(step.megabytes, closed.megabytes) < 1e-9);
        assert!(rel(step.total_seconds, closed.total_seconds) < 1e-9);
    }

    #[test]
    fn prepare_and_sweep_smoke() {
        let args = CommonArgs {
            machines: 6,
            observations: 60,
            ..Default::default()
        };
        let exps = prepare_pool(&args);
        assert!(!exps.is_empty());
        let grid = sweep_paper_grid(&exps, &[100.0], 500.0);
        assert_eq!(grid.cells.len(), 1);
        assert_eq!(grid.cells[0].len(), 4);
    }
}
