//! Shared fit ingest: one flat, order-preserving parallel fan-out over
//! fit work items.
//!
//! Both faces of the pipeline go through [`fit_batch`]:
//!
//! * the **batch prepare** (`chs-sim::prepare_experiments_resilient`)
//!   builds one [`FitItem`] per `(machine, family)` in machine-major
//!   order and reduces the results by index arithmetic — exactly the
//!   fan-out it ran inline before this crate existed, so the refactor is
//!   pinned bitwise by the existing prepare-determinism suites;
//! * the **online scheduler** bootstraps cold machines by batching
//!   their buffered windows through the same path.
//!
//! Every fit depends only on its own item and results come back in
//! input order (the vendored rayon preserves index order), so the
//! output is bitwise-identical for any thread count.

use chs_dist::fit::fit_model;
use chs_dist::{FittedModel, ModelKind};
use rayon::prelude::*;

/// One fit request: which family to fit to which training sample.
/// Disabled items (injected estimator failures, fault drills) are
/// carried through the fan-out as `None` so index alignment survives.
#[derive(Debug, Clone, Copy)]
pub struct FitItem<'a> {
    /// Family to fit.
    pub kind: ModelKind,
    /// Training durations (seconds).
    pub data: &'a [f64],
    /// `false` skips the fit (the slot "fails by decree").
    pub enabled: bool,
}

impl<'a> FitItem<'a> {
    /// An enabled fit item.
    pub fn new(kind: ModelKind, data: &'a [f64]) -> Self {
        FitItem {
            kind,
            data,
            enabled: true,
        }
    }

    /// A disabled item: occupies its slot, fits nothing.
    pub fn disabled(kind: ModelKind, data: &'a [f64]) -> Self {
        FitItem {
            kind,
            data,
            enabled: false,
        }
    }
}

/// Fit every enabled item in parallel, returning results in input
/// order: `None` for disabled items, `Some(Err(..))` where the
/// estimator failed, `Some(Ok(..))` otherwise.
///
/// The fan-out is a flat index map — no chunking by machine — so cores
/// stay busy even when a few expensive EM fits dominate, and the result
/// vector is bitwise-identical for any thread count.
pub fn fit_batch(items: &[FitItem<'_>]) -> Vec<Option<chs_dist::Result<FittedModel>>> {
    (0..items.len())
        .into_par_iter()
        .map(|i| {
            let item = &items[i];
            item.enabled.then(|| fit_model(item.kind, item.data))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use chs_dist::AvailabilityModel;
    use rand::SeedableRng;

    fn samples(seed: u64, n: usize) -> Vec<f64> {
        let gen = chs_dist::Weibull::new(0.6, 2_000.0).unwrap();
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        (0..n).map(|_| gen.sample(&mut rng)).collect()
    }

    #[test]
    fn fit_batch_matches_serial_fit_model_bitwise() {
        let data: Vec<Vec<f64>> = (0..6).map(|s| samples(s, 40)).collect();
        let items: Vec<FitItem<'_>> = data
            .iter()
            .flat_map(|d| ModelKind::PAPER_SET.iter().map(|&k| FitItem::new(k, d)))
            .collect();
        let batch = fit_batch(&items);
        assert_eq!(batch.len(), items.len());
        for (item, fit) in items.iter().zip(&batch) {
            let serial = fit_model(item.kind, item.data).unwrap();
            let parallel = fit.as_ref().unwrap().as_ref().unwrap();
            assert_eq!(
                serde_json::to_string(parallel).unwrap(),
                serde_json::to_string(&serial).unwrap(),
                "{:?} diverged from the serial path",
                item.kind
            );
        }
    }

    #[test]
    fn disabled_items_keep_their_slot() {
        let d = samples(9, 40);
        let items = vec![
            FitItem::new(ModelKind::Exponential, &d),
            FitItem::disabled(ModelKind::Weibull, &d),
            FitItem::new(ModelKind::Weibull, &d),
        ];
        let fits = fit_batch(&items);
        assert!(fits[0].is_some());
        assert!(fits[1].is_none());
        assert!(fits[2].is_some());
    }

    #[test]
    fn estimator_failures_surface_as_errors_in_place() {
        let short = [100.0];
        let good = samples(4, 40);
        let items = vec![
            FitItem::new(ModelKind::Exponential, &short),
            FitItem::new(ModelKind::Exponential, &good),
        ];
        let fits = fit_batch(&items);
        assert!(fits[0].as_ref().unwrap().is_err());
        assert!(fits[1].as_ref().unwrap().is_ok());
    }
}
