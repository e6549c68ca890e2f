//! `cycle-harvest` — checkpoint scheduling for cycle-harvesting cluster
//! environments.
//!
//! This is the umbrella crate of a workspace that reproduces
//! *"Minimizing the Network Overhead of Checkpointing in Cycle-harvesting
//! Cluster Environments"* (Nurmi, Brevik, Wolski — CLUSTER 2005). It
//! re-exports the public API of every subsystem so downstream users can
//! depend on one crate:
//!
//! * [`dist`] — availability distributions (exponential, Weibull,
//!   hyperexponential), conditional future lifetimes, MLE/EM fitting.
//! * [`markov`] — Vaidya's three-state checkpoint-interval model and the
//!   `T_opt` schedule optimizer.
//! * [`trace`] — availability traces and the synthetic Condor-pool
//!   generator.
//! * [`net`] — NWS-style network forecasting for checkpoint transfer
//!   times.
//! * [`cycle`] — the shared checkpoint-cycle state machine and its
//!   accounting ledger; every executor below drives it.
//! * [`sim`] — the trace-driven discrete-event simulator.
//! * [`condor`] — a virtual-time Condor emulation (machines, negotiator,
//!   Vanilla-universe jobs, checkpoint manager).
//! * [`pool`] — the pool-scale discrete-event simulator: 10⁵–10⁶
//!   machines contending on a hierarchical machine → rack → core
//!   network, with calendar-queue events and incremental max-min fair
//!   sharing.
//! * [`stats`] — confidence intervals, paired t-tests, significance
//!   tables.
//! * [`numerics`] — the numerical kernel underpinning everything.
//!
//! # Quickstart
//!
//! ```
//! use cycle_harvest::dist::fit::fit_model;
//! use cycle_harvest::dist::ModelKind;
//! use cycle_harvest::markov::{CheckpointCosts, VaidyaModel};
//!
//! // Historical availability durations for one machine (seconds).
//! let history = vec![1200.0, 300.0, 86_400.0, 4_500.0, 600.0, 30_000.0,
//!                    900.0, 2_000.0, 1_500.0, 60_000.0, 450.0, 700.0];
//!
//! // Fit a Weibull availability model and bind it to the measured
//! // checkpoint and recovery costs.
//! let fit = fit_model(ModelKind::Weibull, &history).expect("fit");
//! let vaidya = VaidyaModel::new(&fit, CheckpointCosts::new(110.0, 110.0)).expect("costs");
//!
//! // Machine has been up 600 s: first optimal work interval.
//! let t0 = vaidya.optimal_interval(600.0).expect("optimize");
//! assert!(t0.work_seconds > 0.0);
//! ```

pub use chs_condor as condor;
pub use chs_cycle as cycle;
pub use chs_dist as dist;
pub use chs_markov as markov;
pub use chs_net as net;
pub use chs_numerics as numerics;
pub use chs_pool as pool;
pub use chs_sim as sim;
pub use chs_stats as stats;
pub use chs_trace as trace;
