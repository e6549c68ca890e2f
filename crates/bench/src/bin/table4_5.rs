//! Regenerates **Tables 4 and 5**: the emulated live-Condor experiment.
//! Table 4 places the checkpoint manager on the campus LAN (mean 500 MB
//! transfer ≈ 110 s); Table 5 moves it across the wide area (≈ 475 s).
//!
//! ```text
//! cargo run -p chs-bench --release --bin table4_5 [--seed S]
//! ```

use chs_bench::{maybe_dump_json, CommonArgs, TablePrinter};
use chs_condor::{run_experiment, ExperimentConfig, ExperimentResult};
use chs_net::FaultPlan;

fn print_table(title: &str, shape_note: &str, result: &ExperimentResult) {
    println!("\n{title}");
    println!("{shape_note}\n");
    let printer = TablePrinter::new(vec![18, 6, 12, 15, 15, 12, 12]);
    printer.row(&[
        "Distribution".to_string(),
        "Avg".to_string(),
        "Total Time".to_string(),
        "Megabytes Used".to_string(),
        "Megabytes/Hour".to_string(),
        "Samples".to_string(),
        "avg C (s)".to_string(),
    ]);
    printer.rule();
    for s in &result.summaries {
        printer.row(&[
            s.model.label(),
            format!("{:.3}", s.avg_efficiency),
            format!("{:.0}", s.total_seconds),
            format!("{:.0}", s.megabytes),
            format!("{:.0}", s.megabytes_per_hour),
            format!("{}", s.sample_size),
            format!("{:.0}", s.mean_transfer_seconds),
        ]);
    }
}

fn main() {
    let args = CommonArgs::parse();

    let mut campus = ExperimentConfig::campus();
    campus.seed = args.seed;
    let (campus_result, _) =
        run_experiment(&campus, &FaultPlan::none()).expect("campus experiment");
    print_table(
        "Table 4: live experiment, checkpoint manager on the campus LAN (C ~ 110 s)",
        "paper shape: efficiencies ~0.68-0.73 across models; 2-phase hyperexponential \
         moves the fewest megabytes",
        &campus_result,
    );

    let mut wide = ExperimentConfig::wide_area();
    wide.seed = args.seed;
    let (wide_result, _) = run_experiment(&wide, &FaultPlan::none()).expect("wide-area experiment");
    print_table(
        "Table 5: live experiment, checkpoint manager across the wide area (C ~ 475 s)",
        "paper shape: efficiencies drop to ~0.59-0.66; bandwidth gap between models \
         widens; 2-phase hyperexponential still most parsimonious",
        &wide_result,
    );

    maybe_dump_json(&args, &(campus_result, wide_result));
}
