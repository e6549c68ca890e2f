//! Build-cost anatomy probe: where does a `CompressedPolicy::build`
//! microsecond go?
//!
//! Times each stage of the policy-build pipeline in isolation — age
//! conditioning (`at_age`), the cold full-bracket search, the
//! hint-driven lane search, and a complete table build —
//! then replays a fleet-like Weibull parameter draw (mirroring
//! `serve_bench`'s) reporting per-build searches, Γ evaluations per
//! search, and fresh-memo traffic. A diagnostic companion to
//! `gamma_bench`/`serve_bench`: those gate ratios, this one shows the
//! per-stage costs behind them.
//!
//! ```text
//! cargo run -p chs-bench --release --features bench-counters --bin probe_timing
//! ```
//! (Γ-evaluation and memo lines read 0 without `bench-counters`.)

use chs_benchmark::counters;
use chs_dist::{FittedModel, Weibull};
use chs_markov::{CheckpointCosts, CompressedPolicy, CompressionConfig, VaidyaModel};
use std::time::Instant;

fn main() {
    let model = FittedModel::Weibull(Weibull::new(0.8, 4000.0).unwrap());
    let costs = CheckpointCosts::symmetric(110.0);
    let cfg = CompressionConfig::new(costs);
    let vaidya = VaidyaModel::new(&model, costs).unwrap();

    // conditioning cost
    let t0 = Instant::now();
    let n = 2000;
    for i in 0..n {
        let age = 1.0 + (i as f64) * 13.7;
        std::hint::black_box(vaidya.at_age(age));
    }
    println!(
        "at_age: {:.2}us",
        t0.elapsed().as_secs_f64() / n as f64 * 1e6
    );

    // cold full search
    let t0 = Instant::now();
    for i in 0..n {
        let age = 1.0 + (i as f64) * 13.7;
        std::hint::black_box(vaidya.optimal_interval(age).unwrap());
    }
    println!(
        "cold search: {:.2}us",
        t0.elapsed().as_secs_f64() / n as f64 * 1e6
    );

    // warm lane
    let t0 = Instant::now();
    for i in 0..n {
        let age = 1.0 + (i as f64) * 13.7;
        let hint = vaidya.optimal_interval(age * 0.98).unwrap().work_seconds;
        std::hint::black_box(vaidya.optimal_interval_near_lane(age, hint).unwrap());
    }
    println!(
        "cold+warm lane pair: {:.2}us",
        t0.elapsed().as_secs_f64() / n as f64 * 1e6
    );

    // full build
    let reps = 50;
    let t0 = Instant::now();
    for _ in 0..reps {
        std::hint::black_box(CompressedPolicy::build(&model, &cfg).unwrap());
    }
    println!(
        "build: {:.0}us",
        t0.elapsed().as_secs_f64() / reps as f64 * 1e6
    );
    let table = CompressedPolicy::build(&model, &cfg).unwrap();
    println!(
        "segments: {} searches: {}",
        table.segments(),
        table.build_evals()
    );

    // Fleet-like models (mirrors serve_bench's parameter draw).
    use rand::SeedableRng;
    let mut prng = rand_chacha::ChaCha8Rng::seed_from_u64(99);
    let mut unif = move || {
        use rand::RngCore;
        (prng.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    };
    let mut tot = 0.0f64;
    let mut tot_searches = 0u64;
    let mut tot_gamma = 0u64;
    let (mut tot_hits, mut tot_miss) = (0u64, 0u64);
    let n_fleet = 40;
    for _ in 0..n_fleet {
        let shape = 0.45 + 0.45 * unif();
        let scale = 600.0 * 30f64.powf(unif());
        let m = FittedModel::Weibull(Weibull::new(shape, scale).unwrap());
        counters::reset();
        let t0 = Instant::now();
        let tb = CompressedPolicy::build(&m, &cfg).unwrap();
        tot += t0.elapsed().as_secs_f64();
        tot_searches += tb.build_evals() as u64;
        let [g, h, mi, _] = counters::read();
        tot_gamma += g;
        tot_hits += h;
        tot_miss += mi;
    }
    println!(
        "fleet build avg: {:.0}us, {:.1} searches, {:.1} gamma evals ({:.1}/search)",
        tot / n_fleet as f64 * 1e6,
        tot_searches as f64 / n_fleet as f64,
        tot_gamma as f64 / n_fleet as f64,
        tot_gamma as f64 / tot_searches.max(1) as f64
    );
    println!(
        "fresh memo: {:.1} hits, {:.1} misses per build ({:.0}% hit)",
        tot_hits as f64 / n_fleet as f64,
        tot_miss as f64 / n_fleet as f64,
        100.0 * tot_hits as f64 / (tot_hits + tot_miss).max(1) as f64
    );
}
