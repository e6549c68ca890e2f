//! The prepare-phase fit fan-out must be bitwise deterministic across
//! rayon pool sizes: each (machine × model) fit is an independent pure
//! computation and the reduction is index-aligned, so a 1-thread pool
//! and an N-thread pool must produce identical fitted parameters and an
//! identical drop report.

use chs_sim::prepare_experiments_reported;
use chs_trace::synthetic::{generate_pool, PoolConfig};
use rayon::ThreadPoolBuilder;

/// Serialize everything thread-count-sensitive about a prepared
/// experiment set. `serde_json` prints `f64`s via the shortest
/// round-trippable decimal, so equal strings ⇒ bitwise-equal parameters.
fn fingerprint(train_len: usize) -> (String, String) {
    let pool = generate_pool(&PoolConfig::small(16, 60, 9)).as_machine_pool();
    let prepared = prepare_experiments_reported(&pool, train_len);
    let fits: Vec<Vec<Option<&chs_dist::FittedModel>>> = prepared
        .experiments
        .iter()
        .map(|e| e.fits.iter().map(|f| f.as_deref()).collect())
        .collect();
    (
        serde_json::to_string(&fits).expect("fits serialize"),
        serde_json::to_string(&prepared.report).expect("report serializes"),
    )
}

#[test]
fn prepare_is_bitwise_identical_across_thread_counts() {
    let single = ThreadPoolBuilder::new().num_threads(1).build().unwrap();
    let wide = ThreadPoolBuilder::new().num_threads(4).build().unwrap();
    for train_len in [25usize, 40] {
        let (fits_1, report_1) = single.install(|| fingerprint(train_len));
        let (fits_n, report_n) = wide.install(|| fingerprint(train_len));
        assert_eq!(
            fits_1, fits_n,
            "fitted parameters diverged between 1-thread and 4-thread pools"
        );
        assert_eq!(report_1, report_n, "prepare report diverged across pools");
    }
}

#[test]
fn prepare_matches_ambient_pool() {
    // The default (ambient) pool must agree with an explicit pool too.
    let (fits_ambient, report_ambient) = fingerprint(25);
    let wide = ThreadPoolBuilder::new().num_threads(4).build().unwrap();
    let (fits_n, report_n) = wide.install(|| fingerprint(25));
    assert_eq!(fits_ambient, fits_n);
    assert_eq!(report_ambient, report_n);
}

/// Frozen pre-refactor fit path: the serial per-machine loop the batch
/// prepare ran before it was routed through `chs_sched::ingest`. The
/// prepared fits must still reproduce this bitwise — the ingest
/// refactor is a transport change, not a numeric one.
#[test]
fn prepare_matches_frozen_serial_fit_path() {
    use chs_dist::fit::fit_model;
    use chs_dist::ModelKind;

    let train_len = 25usize;
    let pool = generate_pool(&PoolConfig::small(16, 60, 9)).as_machine_pool();
    let prepared = prepare_experiments_reported(&pool, train_len);

    // Frozen path: split serially, fit each surviving machine's four
    // families in PAPER_SET order with direct fit_model calls.
    let mut frozen: Vec<Vec<chs_dist::FittedModel>> = Vec::new();
    for trace in pool.traces() {
        let Ok((train, test)) = trace.split(train_len) else {
            continue;
        };
        if test.is_empty() {
            continue;
        }
        let fits: Vec<_> = ModelKind::PAPER_SET
            .iter()
            .map(|&k| fit_model(k, &train))
            .collect();
        if fits.iter().all(Result::is_ok) {
            frozen.push(fits.into_iter().map(Result::unwrap).collect());
        }
    }

    assert_eq!(prepared.experiments.len(), frozen.len());
    for (exp, frozen_fits) in prepared.experiments.iter().zip(&frozen) {
        for (fit, frozen_fit) in exp.fits.iter().flatten().zip(frozen_fits) {
            assert_eq!(
                serde_json::to_string(&**fit).unwrap(),
                serde_json::to_string(frozen_fit).unwrap(),
                "machine {:?}: ingest-routed fit diverged from the frozen serial path",
                exp.machine
            );
        }
    }
}
