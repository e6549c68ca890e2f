//! **Extension experiment** (the paper's §5.2 future work): parallel jobs
//! checkpointing through one shared bottleneck link. Sweeps the number of
//! concurrent jobs and reports, per availability model, how network
//! collisions stretch checkpoints and what that does to efficiency —
//! testing the paper's conjecture that the heavy-tailed models' bandwidth
//! parsimony converts into an efficiency advantage under contention.
//! Runs the manager server's classic profile (`ManagerConfig::classic`:
//! every transfer gets an equal share of the link).
//!
//! ```text
//! cargo run -p chs-bench --release --bin contention [--seed S]
//! ```

use chs_bench::{maybe_dump_json, CommonArgs, TablePrinter};
use chs_dist::ModelKind;
use chs_manager::{run_manager, ManagerConfig, ManagerResult};
use chs_net::FaultPlan;

fn main() {
    let args = CommonArgs::parse();
    let job_counts = [1usize, 2, 4, 8, 16, 32];

    println!("\nExtension: parallel checkpointing over a shared campus link");
    println!("(500 MB images; link moves one image in 110 s when uncontended)");
    println!(
        "\nconjecture under test (paper 5.2): the 2-phase hyperexponential's lower \
         network load\nshould turn into an efficiency edge as parallelism grows\n"
    );

    let printer = TablePrinter::new(vec![6, 20, 8, 10, 12, 11, 10, 9]);
    printer.row(&[
        "jobs".into(),
        "model".into(),
        "eff".into(),
        "MB moved".into(),
        "xfer mean(s)".into(),
        "stretch".into(),
        "link util".into(),
        "ckpts".into(),
    ]);
    printer.rule();

    let mut all: Vec<ManagerResult> = Vec::new();
    for &jobs in &job_counts {
        for kind in [
            ModelKind::Exponential,
            ModelKind::HyperExponential { phases: 2 },
        ] {
            let mut config = ManagerConfig::classic(jobs, kind);
            config.seed = args.seed;
            let r = run_manager(&config, &FaultPlan::none())
                .expect("contention run")
                .result;
            printer.row(&[
                format!("{jobs}"),
                kind.label(),
                format!("{:.3}", r.efficiency()),
                format!("{:.0}", r.megabytes),
                format!("{:.0}", r.mean_transfer_seconds),
                format!("{:.2}x", r.stretch(&config)),
                format!("{:.2}", r.link_utilization),
                format!("{}", r.checkpoints_committed),
            ]);
            all.push(r);
        }
        printer.rule();
    }

    // Headline: efficiency gap (hyper − exp) as a function of parallelism.
    println!("\nefficiency advantage of 2-phase hyperexponential over exponential:");
    for chunk in all.chunks(2) {
        if let [exp, hyp] = chunk {
            println!(
                "  {:>3} jobs: {:>+.3}",
                exp.clients,
                hyp.efficiency() - exp.efficiency()
            );
        }
    }
    maybe_dump_json(&args, &all);
}
