//! Differential suite for the `CompressedPolicy` builder.
//!
//! `frozen` (`frozen/compress.rs`) is a **verbatim copy** of the
//! quarter-point builder, which searched a segment's midpoint and both
//! quarter points only to certify it. The production builder makes every
//! node midpoint a knot and certifies each served segment at its own
//! midpoint. On a fixed fleet-like population — Weibull, 2- and 3-phase
//! hyperexponential fits of 25 draws from heavy-tailed Weibull truths, at
//! checkpoint costs of 110 s and 1000 s — it must:
//!
//! * keep every Weibull table within the 1e-3 relative budget at every
//!   probed age;
//! * leave no more over-budget ages on H2 and H3 than the frozen builder.
//!   A bimodal hyperexponential `Γ/T` has two basins and a table may
//!   serve an interval between them, so both builders are scored by the
//!   nearest-basin rule of the `fleet-*` benchmark workloads: the gap to
//!   the nearer of the cold optimum and the local optimum of the basin
//!   the served interval lies in;
//! * spend at most 0.65× the frozen builder's exact searches per table.

use chs_dist::fit::fit_model;
use chs_dist::{AvailabilityModel, FittedModel, ModelKind, Weibull};
use chs_markov::{CheckpointCosts, CompressedPolicy, CompressionConfig, VaidyaModel};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

// The frozen quarter-point builder (verbatim).
#[path = "frozen/compress.rs"]
mod frozen;

/// Fitted streams per family.
const STREAMS: usize = 24;
/// Durations each fit sees: the paper's 25-sample prefix.
const DRAWS: usize = 25;
/// Log-spaced probe ages per table, plus age 0.
const AGES: usize = 400;
const COSTS: [f64; 2] = [110.0, 1000.0];
const FAMILIES: [ModelKind; 3] = [
    ModelKind::Weibull,
    ModelKind::HyperExponential { phases: 2 },
    ModelKind::HyperExponential { phases: 3 },
];

/// The fleet's low-discrepancy Weibull truths: shapes in [0.45, 0.9],
/// scales over ~1.5 decades.
fn truth(stream: usize) -> Weibull {
    let frac = |x: f64| x - x.floor();
    let s = stream as f64 + 1.0;
    let shape = 0.45 + 0.45 * frac(s * 0.754_877_666_246_692_7);
    let scale = 600.0 * 30f64.powf(frac(s * 0.569_840_290_998_053_3));
    Weibull::new(shape, scale).unwrap()
}

fn fits(kind: ModelKind) -> Vec<FittedModel> {
    (0..STREAMS)
        .filter_map(|stream| {
            let mut rng = ChaCha8Rng::seed_from_u64(2005 + stream as u64);
            let law = truth(stream);
            let data: Vec<f64> = (0..DRAWS).map(|_| law.sample(&mut rng)).collect();
            fit_model(kind, &data).ok()
        })
        .collect()
}

fn probe_ages(max_age: f64) -> Vec<f64> {
    std::iter::once(0.0)
        .chain((1..=AGES).map(|i| max_age.powf(i as f64 / AGES as f64)))
        .collect()
}

/// Served-interval error under the nearest-basin rule.
fn nearest_basin_err(vaidya: &VaidyaModel, age: f64, served: f64) -> f64 {
    let gap = |t: f64| (served / t - 1.0).abs();
    let cold = vaidya.optimal_interval_lane(age).unwrap().work_seconds;
    let local = vaidya
        .optimal_interval_near_lane(age, served)
        .unwrap()
        .work_seconds;
    gap(cold).min(gap(local))
}

#[derive(Default)]
struct Score {
    over_budget: usize,
    worst: f64,
    evals: u64,
    segments: usize,
    tables: usize,
}

impl Score {
    fn add(
        &mut self,
        vaidya: &VaidyaModel,
        ages: &[f64],
        budget: f64,
        served: impl Fn(f64) -> f64,
    ) {
        self.tables += 1;
        for &age in ages {
            let err = nearest_basin_err(vaidya, age, served(age));
            self.worst = self.worst.max(err);
            self.over_budget += usize::from(err > budget);
        }
    }
}

#[test]
fn half_midpoint_builder_meets_the_budget_with_fewer_searches() {
    for kind in FAMILIES {
        let models = fits(kind);
        assert!(
            models.len() >= STREAMS - 2,
            "{kind:?}: too many failed fits"
        );
        let (mut new, mut old) = (Score::default(), Score::default());
        for cost in COSTS {
            let costs = CheckpointCosts::symmetric(cost);
            let config = CompressionConfig::new(costs);
            let ages = probe_ages(config.max_age);
            for model in &models {
                let vaidya = VaidyaModel::new(model, costs).unwrap();
                let table = CompressedPolicy::build(model, &config).unwrap();
                new.evals += u64::from(table.build_evals());
                new.segments += table.segments();
                new.add(&vaidya, &ages, config.max_rel_error, |a| {
                    table.next_interval(a)
                });
                let oracle = frozen::build(model, &config).unwrap();
                old.evals += u64::from(oracle.build_evals);
                old.segments += oracle.segments();
                old.add(&vaidya, &ages, config.max_rel_error, |a| {
                    oracle.next_interval(a)
                });
            }
        }
        let summary = format!(
            "{kind:?}: {} tables; searches {} vs frozen {}; segments {} vs {}; \
             over budget {} vs {}; worst {:.2e} vs {:.2e}",
            new.tables,
            new.evals,
            old.evals,
            new.segments,
            old.segments,
            new.over_budget,
            old.over_budget,
            new.worst,
            old.worst
        );
        println!("{summary}");
        if kind == ModelKind::Weibull {
            assert_eq!(new.over_budget, 0, "{summary}");
        } else {
            assert!(new.over_budget <= old.over_budget, "{summary}");
        }
        assert!(new.evals as f64 <= 0.65 * old.evals as f64, "{summary}");
    }
}
