//! The repository benchmark.
//!
//! Five workloads run through the public entry points of `chs-trace`,
//! `chs-sim`, `chs-sched`, `chs-markov`, `chs-pool` and `chs-manager`.
//! Each run sets its workload up from a seed, measures its timed phase
//! for a fixed number of seconds, checks every output, and reports the
//! end-to-end metrics; a traced run also records spans and call
//! aggregates at every layer boundary the benchmark calls across and
//! reports per-layer metrics. `compare` applies the regression bounds of
//! [`metrics`] to two run files. See the crate README for the workloads,
//! metrics and commands.

pub mod alloc;
pub mod compare;
pub mod metrics;
pub mod runner;
pub mod stats;
pub mod trace;
pub mod workloads;

/// The Γ-evaluation, fresh-memo and quadrature-fallback counters of
/// `chs-markov` and `chs-dist`, compiled in by the `counters` feature.
pub mod counters {
    /// Whether this build carries the counters (otherwise they read 0).
    pub const ENABLED: bool = cfg!(feature = "counters");

    /// Zero the counters.
    pub fn reset() {
        #[cfg(feature = "counters")]
        {
            chs_markov::counters::reset();
            chs_dist::counters::reset();
        }
    }

    /// `[Γ evaluations, memo hits, memo misses, quadrature fallbacks]`
    /// since the last [`reset`].
    pub fn read() -> [u64; 4] {
        #[cfg(feature = "counters")]
        {
            let (gamma, hits, misses) = chs_markov::counters::snapshot();
            [gamma, hits, misses, chs_dist::counters::quad_fallbacks()]
        }
        #[cfg(not(feature = "counters"))]
        {
            [0; 4]
        }
    }
}
