//! The deterministic serving loop: ingest → refit → publish → query.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use chs_dist::fit::{validate_duration, RefitJob, RefitTrigger, StreamingFit, StreamingFitConfig};
use chs_dist::FittedModel;
use chs_markov::{
    mix64, ClusterKey, CompressedPolicy, CompressionConfig, DedupKey, PolicyCache, PolicyStore,
};
use rayon::prelude::*;
use serde::Serialize;

use crate::{Result, SchedError};

/// Scheduler configuration: how machines are fitted online, how
/// policies are compressed, and how often epochs publish.
#[derive(Debug, Clone)]
pub struct SchedulerConfig {
    /// Per-machine streaming refit configuration (family, window,
    /// change-point detector, refresh cadence).
    pub streaming: StreamingFitConfig,
    /// Policy table compression (costs, horizon, error budget).
    pub compression: CompressionConfig,
    /// Publish a new store epoch every this many ingested observations
    /// (0 = only on explicit [`Event::Publish`] / [`Scheduler::publish`]).
    pub publish_every: u64,
}

impl SchedulerConfig {
    /// Default loop: library-default streaming fit for `streaming.kind`,
    /// the given compression geometry, publish every 256 observations.
    pub fn new(streaming: StreamingFitConfig, compression: CompressionConfig) -> Self {
        SchedulerConfig {
            streaming,
            compression,
            publish_every: 256,
        }
    }
}

/// One tick of the deterministic event clock.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Event {
    /// An availability duration (seconds) observed on a machine.
    Observe {
        /// Which machine.
        machine: u64,
        /// The completed availability duration.
        duration: f64,
    },
    /// A checkpoint-interval query for a machine at a given age.
    Query {
        /// Which machine.
        machine: u64,
        /// Machine age (seconds since last failure).
        age: f64,
    },
    /// Force an epoch publish now.
    Publish,
}

/// A served checkpoint decision: the compressed `T_opt` plus a
/// deterministic per-decision seed derived from the stable
/// `(machine id, epoch)` key — downstream jitter/staggering built on it
/// replays identically across runs and thread counts.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct Decision {
    /// Compressed optimal work interval (seconds).
    pub work_seconds: f64,
    /// Stable seed for this `(machine, epoch)` decision stream.
    pub seed: u64,
}

/// What a [`Scheduler::run`] replay did, reduced to comparable
/// fingerprints: run the same events on any thread count and every
/// field must match bitwise.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct RunSummary {
    /// Observations ingested.
    pub observations: u64,
    /// Queries served (answered or not).
    pub queries: u64,
    /// Queries answered from a published table.
    pub answered: u64,
    /// Digest of every published store, in publish order.
    pub publishes: Vec<u64>,
    /// Order-sensitive digest folded over every query answer.
    pub query_digest: u64,
    /// Refits triggered across all machines (initial fits included),
    /// whether they then installed or failed.
    pub refits: u64,
    /// Change-point triggered refits across all machines.
    pub regime_shifts: u64,
}

/// The online scheduler: per-machine streaming fits, a shared
/// compression cache, and the current published [`PolicyStore`] epoch.
///
/// All state advances only through [`Scheduler::observe`] /
/// [`Scheduler::publish`] (or their [`Scheduler::run`] driver), in
/// event order — there is no wall clock anywhere, which is what makes
/// replays reproducible.
///
/// Refits run off the ingest path: `observe` parks each machine's
/// [`RefitJob`], and the parked jobs of all machines resolve in one
/// order-preserving parallel batch ([`Scheduler::flush`]) when an
/// outcome is needed — at `publish`, or when a parked machine's next
/// observation could trigger differently depending on it. The results
/// are bitwise those of running every refit inline, on any thread count.
#[derive(Debug)]
pub struct Scheduler {
    config: SchedulerConfig,
    machines: BTreeMap<u64, StreamingFit>,
    /// Machines with a pending refit job, in trigger order.
    parked: Vec<u64>,
    cache: PolicyCache,
    store: Arc<PolicyStore>,
    ingested: u64,
    refits: u64,
    regime_shifts: u64,
    cluster_rejects: u64,
}

impl Scheduler {
    /// A scheduler with no machines and an empty epoch-0 store.
    ///
    /// # Errors
    /// [`SchedError::Dist`] / [`SchedError::Markov`] for invalid
    /// streaming or compression configs.
    pub fn new(config: SchedulerConfig) -> Result<Self> {
        config.streaming.validate()?;
        // Surface bad compression geometry now, not at first publish.
        let probe = FittedModel::Exponential(
            chs_dist::Exponential::from_mean(1.0).map_err(SchedError::Dist)?,
        );
        CompressedPolicy::build(&probe, &config.compression)?;
        let cache = PolicyCache::new(config.compression);
        Ok(Scheduler {
            config,
            machines: BTreeMap::new(),
            parked: Vec::new(),
            cache,
            store: Arc::new(PolicyStore::empty(0)),
            ingested: 0,
            refits: 0,
            regime_shifts: 0,
            cluster_rejects: 0,
        })
    }

    /// Ingest one availability observation for `machine`, creating its
    /// streaming fit on first sight. Returns the refit trigger this
    /// observation caused, if any, and parks the refit; it runs at the
    /// next [`Scheduler::flush`]. Does **not** publish — epochs move on
    /// the event clock ([`Scheduler::run`]) or explicitly.
    ///
    /// A refit that fails leaves the machine unfitted or serving its
    /// stale model, exactly as [`StreamingFit::step`] does, and counts
    /// in [`Scheduler::refit_failures`]; it is not an error here.
    ///
    /// # Errors
    /// [`SchedError::Dist`] for non-finite/non-positive durations; the
    /// observation is not recorded.
    pub fn observe(&mut self, machine: u64, duration: f64) -> Result<Option<RefitTrigger>> {
        validate_duration(duration)?;
        if self
            .machines
            .get(&machine)
            .is_some_and(|fit| !fit.accepts_observation())
        {
            self.flush();
        }
        let fit = self.machines.entry(machine).or_insert_with(|| {
            StreamingFit::new(self.config.streaming.clone()).expect("config validated in new")
        });
        let trigger = fit.observe(duration)?;
        self.ingested += 1;
        if let Some(trigger) = trigger {
            self.parked.push(machine);
            self.refits += 1;
            if trigger == RefitTrigger::RegimeShift {
                self.regime_shifts += 1;
            }
        }
        Ok(trigger)
    }

    /// Resolve every parked refit: run the pending jobs of all machines
    /// in one order-preserving parallel batch, then apply each outcome
    /// to its machine. Every job is a pure function of what its machine
    /// captured at the trigger, so the result is bitwise that of
    /// running each refit inline at its trigger, on any thread count.
    pub fn flush(&mut self) {
        if self.parked.is_empty() {
            return;
        }
        let parked = std::mem::take(&mut self.parked);
        let jobs: Vec<RefitJob<'_>> = parked
            .iter()
            .map(|id| {
                self.machines[id]
                    .pending_job()
                    .expect("parked machine has a job")
            })
            .collect();
        let outcomes: Vec<_> = jobs.into_par_iter().map(|job| job.run()).collect();
        for (id, outcome) in parked.iter().zip(outcomes) {
            let fit = self.machines.get_mut(id).expect("parked machine exists");
            fit.apply(outcome);
        }
    }

    /// Resolve the parked refits ([`Scheduler::flush`]), then compress
    /// every fitted machine's current model and swap in a new store
    /// epoch. Machines still warming up (no installed fit) are absent
    /// from the epoch and their queries return `None`.
    ///
    /// New tables build in three order-preserving deterministic waves:
    /// first every cluster-cell representative (and unclustered key)
    /// compresses in parallel; then the remaining cell members verify
    /// against their representative's surface in parallel, serving from
    /// it when the per-cell error bound holds and falling back to a
    /// private build otherwise; finally everything is inserted in
    /// first-reference order. Machines whose fitted parameters hit the
    /// dedup cache share the existing `Arc` without any build. The
    /// assembled store is bitwise identical for any thread count.
    ///
    /// # Errors
    /// Propagates compression failures; the previous epoch stays
    /// published.
    pub fn publish(&mut self) -> Result<Arc<PolicyStore>> {
        self.flush();
        let fitted: Vec<(u64, &FittedModel)> = self
            .machines
            .iter()
            .filter_map(|(id, fit)| fit.model().map(|m| (*id, m)))
            .collect();
        let keys: Vec<DedupKey> = fitted.iter().map(|(_, m)| self.cache.key(m)).collect();

        // Distinct keys not yet cached, in first-reference order over
        // the (sorted) machines.
        let mut seen: BTreeSet<&DedupKey> = BTreeSet::new();
        let mut missing: Vec<(&DedupKey, &FittedModel)> = Vec::new();
        for ((_, model), key) in fitted.iter().zip(&keys) {
            if self.cache.get(key).is_none() && seen.insert(key) {
                missing.push((key, model));
            }
        }
        let compression = self.config.compression;

        // Coarse parameter cells over the missing keys; the first
        // missing member of a cell (first-reference order) is its
        // representative, every later member only a sharing candidate.
        let mut rep_of_cell: BTreeMap<ClusterKey, usize> = BTreeMap::new();
        let mut member_of: Vec<Option<usize>> = Vec::with_capacity(missing.len());
        for (i, (_, model)) in missing.iter().enumerate() {
            member_of.push(match ClusterKey::new(model, &compression) {
                Some(cell) => match rep_of_cell.entry(cell) {
                    std::collections::btree_map::Entry::Vacant(e) => {
                        e.insert(i);
                        None
                    }
                    std::collections::btree_map::Entry::Occupied(e) => Some(*e.get()),
                },
                None => None,
            });
        }

        // Wave 1: representatives and unclustered keys build exactly.
        let rep_tables: Vec<Option<Arc<CompressedPolicy>>> = (0..missing.len())
            .into_par_iter()
            .map(|i| {
                member_of[i]
                    .is_none()
                    .then(|| CompressedPolicy::build(missing[i].1, &compression).map(Arc::new))
                    .transpose()
            })
            .collect::<chs_markov::Result<_>>()?;

        // Wave 2: members verify against their cell's shared surface;
        // rejects fall back to a private build.
        enum Resolved {
            Shared(Arc<CompressedPolicy>),
            Private(Arc<CompressedPolicy>),
        }
        let member_tables: Vec<Option<Resolved>> = (0..missing.len())
            .into_par_iter()
            .map(|i| {
                member_of[i]
                    .map(|rep| {
                        let surface = rep_tables[rep].as_ref().expect("rep built in wave 1");
                        if surface.acceptable_for(missing[i].1, &compression)? {
                            Ok(Resolved::Shared(Arc::clone(surface)))
                        } else {
                            let private = CompressedPolicy::build(missing[i].1, &compression)?;
                            Ok(Resolved::Private(Arc::new(private)))
                        }
                    })
                    .transpose()
            })
            .collect::<chs_markov::Result<_>>()?;

        // Wave 3: sequential inserts in first-reference order.
        let mut builds_this_publish = 0u64;
        for (i, ((key, _), (rep, member))) in missing
            .iter()
            .zip(rep_tables.into_iter().zip(member_tables))
            .enumerate()
        {
            debug_assert_eq!(rep.is_some(), member_of[i].is_none());
            match (rep, member) {
                (Some(table), _) => {
                    self.cache.insert((*key).clone(), table);
                    builds_this_publish += 1;
                }
                (None, Some(Resolved::Shared(table))) => {
                    self.cache.insert_alias((*key).clone(), table);
                }
                (None, Some(Resolved::Private(table))) => {
                    self.cache.insert((*key).clone(), table);
                    self.cluster_rejects += 1;
                    builds_this_publish += 1;
                }
                (None, None) => unreachable!("every missing key resolves in wave 1 or 2"),
            }
        }
        // Every fitted machine not behind one of this publish's builds
        // was resolved from cache or sharing: count it as a hit so the
        // hits/builds counters describe machines, not just lookups.
        self.cache
            .note_hits(fitted.len() as u64 - builds_this_publish);

        let entries: Vec<(u64, Arc<CompressedPolicy>)> = fitted
            .iter()
            .zip(&keys)
            .map(|((id, _), key)| {
                let table = self.cache.get(key).expect("inserted above");
                (*id, Arc::clone(table))
            })
            .collect();
        let epoch = self.store.epoch() + 1;
        self.store = Arc::new(PolicyStore::assemble(epoch, entries)?);
        Ok(Arc::clone(&self.store))
    }

    /// Serve a checkpoint decision for `machine` at `age` from the
    /// current epoch: a compressed-table lookup plus the stable
    /// `(machine, epoch)` decision seed. `None` until the machine makes
    /// it into a published epoch.
    pub fn decide(&self, machine: u64, age: f64) -> Option<Decision> {
        let work_seconds = self.store.next_interval(machine, age)?;
        Some(Decision {
            work_seconds,
            seed: decision_seed(machine, self.store.epoch()),
        })
    }

    /// Replay an event sequence on the deterministic clock: observations
    /// ingest (auto-publishing every `publish_every`), queries serve
    /// from the current epoch, and the whole run reduces to a
    /// [`RunSummary`] of comparable fingerprints.
    ///
    /// # Errors
    /// Stops at the first failing event.
    pub fn run(&mut self, events: &[Event]) -> Result<RunSummary> {
        let mut summary = RunSummary::default();
        for event in events {
            match *event {
                Event::Observe { machine, duration } => {
                    self.observe(machine, duration)?;
                    summary.observations += 1;
                    if self.config.publish_every > 0
                        && self.ingested.is_multiple_of(self.config.publish_every)
                    {
                        let store = self.publish()?;
                        summary.publishes.push(store.digest());
                    }
                }
                Event::Query { machine, age } => {
                    summary.queries += 1;
                    let mut h = mix64(summary.query_digest ^ machine);
                    match self.decide(machine, age) {
                        Some(d) => {
                            summary.answered += 1;
                            h = mix64(h ^ d.work_seconds.to_bits());
                            h = mix64(h ^ d.seed);
                        }
                        None => h = mix64(h ^ 0x6e6f_2d61_6e73_7765), // "no-answe"
                    }
                    summary.query_digest = h;
                }
                Event::Publish => {
                    let store = self.publish()?;
                    summary.publishes.push(store.digest());
                }
            }
        }
        summary.refits = self.refits;
        summary.regime_shifts = self.regime_shifts;
        Ok(summary)
    }

    /// The currently published store epoch.
    pub fn store(&self) -> &Arc<PolicyStore> {
        &self.store
    }

    /// Streaming-fit state of one machine, if it has been observed. A
    /// machine with a parked refit still shows the model from before
    /// its trigger; call [`Scheduler::flush`] first to read the state
    /// an inline loop would have.
    pub fn machine(&self, machine: u64) -> Option<&StreamingFit> {
        self.machines.get(&machine)
    }

    /// Machines observed so far.
    pub fn machines(&self) -> usize {
        self.machines.len()
    }

    /// Observations ingested so far.
    pub fn ingested(&self) -> u64 {
        self.ingested
    }

    /// Refits triggered across all machines, counted at the trigger
    /// (installed, failed or still parked).
    pub fn refits(&self) -> u64 {
        self.refits
    }

    /// Refits that failed and installed nothing, across all machines.
    /// Counted when the refit resolves: parked refits count after the
    /// next [`Scheduler::flush`] or publish.
    pub fn refit_failures(&self) -> u64 {
        self.machines
            .values()
            .map(StreamingFit::refit_failures)
            .sum()
    }

    /// Change-point triggered refits across all machines.
    pub fn regime_shifts(&self) -> u64 {
        self.regime_shifts
    }

    /// Cluster-sharing candidates that failed the per-cell bound check
    /// and fell back to a private build, across all publishes. The
    /// accepted counterpart is [`PolicyCache::counters`]' `shared`.
    pub fn cluster_rejects(&self) -> u64 {
        self.cluster_rejects
    }

    /// The shared compression cache (dedup statistics live here).
    pub fn cache(&self) -> &PolicyCache {
        &self.cache
    }

    /// The configuration the scheduler runs under.
    pub fn config(&self) -> &SchedulerConfig {
        &self.config
    }
}

/// Stable per-decision seed for a `(machine, epoch)` pair.
pub(crate) fn decision_seed(machine: u64, epoch: u64) -> u64 {
    mix64(mix64(epoch ^ 0x7365_6476_6572_3031) ^ machine)
}

#[cfg(test)]
mod tests {
    use super::*;
    use chs_dist::{AvailabilityModel, Exponential, ModelKind, Weibull};
    use chs_markov::CheckpointCosts;
    use rand::SeedableRng;

    fn config(kind: ModelKind) -> SchedulerConfig {
        SchedulerConfig::new(
            StreamingFitConfig {
                kind,
                ..StreamingFitConfig::default()
            },
            CompressionConfig::new(CheckpointCosts::symmetric(110.0)),
        )
    }

    fn observe_n(
        sched: &mut Scheduler,
        machine: u64,
        gen: &dyn AvailabilityModel,
        n: usize,
        seed: u64,
    ) {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        for _ in 0..n {
            sched.observe(machine, gen.sample(&mut rng)).unwrap();
        }
    }

    #[test]
    fn queries_before_any_publish_are_unanswered() {
        let mut sched = Scheduler::new(config(ModelKind::Exponential)).unwrap();
        let gen = Exponential::from_mean(700.0).unwrap();
        observe_n(&mut sched, 1, &gen, 60, 7);
        assert!(sched.decide(1, 0.0).is_none());
        sched.publish().unwrap();
        assert!(sched.decide(1, 0.0).is_some());
        assert_eq!(sched.store().epoch(), 1);
    }

    #[test]
    fn warming_machines_are_absent_from_the_epoch() {
        let mut sched = Scheduler::new(config(ModelKind::Exponential)).unwrap();
        let gen = Exponential::from_mean(700.0).unwrap();
        observe_n(&mut sched, 1, &gen, 60, 7);
        observe_n(&mut sched, 2, &gen, 3, 8); // below min_fit_observations
        sched.publish().unwrap();
        assert!(sched.decide(1, 0.0).is_some());
        assert!(sched.decide(2, 0.0).is_none());
        assert_eq!(sched.store().len(), 1);
    }

    #[test]
    fn served_interval_matches_the_machines_compressed_table() {
        let mut sched = Scheduler::new(config(ModelKind::Weibull)).unwrap();
        let gen = Weibull::paper_exemplar();
        observe_n(&mut sched, 9, &gen, 80, 11);
        sched.publish().unwrap();
        let model = sched.machine(9).unwrap().model().unwrap().clone();
        let table = CompressedPolicy::build(&model, &sched.config().compression).unwrap();
        for age in [0.0, 100.0, 10_000.0, 1e6] {
            assert_eq!(
                sched.decide(9, age).unwrap().work_seconds.to_bits(),
                table.next_interval(age).to_bits()
            );
        }
    }

    #[test]
    fn decision_seed_is_stable_per_machine_and_epoch() {
        let mut sched = Scheduler::new(config(ModelKind::Exponential)).unwrap();
        let gen = Exponential::from_mean(700.0).unwrap();
        observe_n(&mut sched, 1, &gen, 60, 7);
        sched.publish().unwrap();
        let a = sched.decide(1, 0.0).unwrap();
        let b = sched.decide(1, 5_000.0).unwrap();
        assert_eq!(a.seed, b.seed, "same (machine, epoch) ⇒ same seed");
        sched.publish().unwrap();
        let c = sched.decide(1, 0.0).unwrap();
        assert_ne!(a.seed, c.seed, "new epoch ⇒ new seed");
        assert_eq!(a.seed, decision_seed(1, 1));
    }

    #[test]
    fn identical_streams_share_one_table() {
        let mut sched = Scheduler::new(config(ModelKind::Weibull)).unwrap();
        let gen = Weibull::paper_exemplar();
        // Same seed ⇒ bitwise-equal training data ⇒ same dedup key.
        observe_n(&mut sched, 1, &gen, 60, 5);
        observe_n(&mut sched, 2, &gen, 60, 5);
        observe_n(&mut sched, 3, &gen, 60, 99);
        sched.publish().unwrap();
        let stats = sched.store().stats();
        assert_eq!(stats.machines, 3);
        assert_eq!(stats.tables, 2);
        assert!(stats.dedup_ratio > 1.4);
    }

    #[test]
    fn event_clock_publishes_on_the_boundary() {
        let mut cfg = config(ModelKind::Exponential);
        cfg.publish_every = 50;
        let mut sched = Scheduler::new(cfg).unwrap();
        let gen = Exponential::from_mean(700.0).unwrap();
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(13);
        let mut events = Vec::new();
        for _ in 0..100 {
            events.push(Event::Observe {
                machine: 1,
                duration: gen.sample(&mut rng),
            });
        }
        events.push(Event::Query {
            machine: 1,
            age: 0.0,
        });
        let summary = sched.run(&events).unwrap();
        assert_eq!(summary.observations, 100);
        assert_eq!(summary.publishes.len(), 2, "publishes at 50 and 100");
        assert_eq!(summary.queries, 1);
        assert_eq!(summary.answered, 1);
        assert_eq!(sched.store().epoch(), 2);
    }

    #[test]
    fn bad_observations_are_rejected_without_state_damage() {
        let mut sched = Scheduler::new(config(ModelKind::Exponential)).unwrap();
        assert!(sched.observe(1, f64::NAN).is_err());
        assert!(sched.observe(1, -1.0).is_err());
        assert_eq!((sched.ingested(), sched.machines()), (0, 0));
        assert!(sched.observe(1, 500.0).is_ok());
        assert_eq!(sched.ingested(), 1);
    }

    #[test]
    fn failed_refits_are_counted_not_returned_as_errors() {
        // Identical durations defeat a Weibull fit, subnormal ones every
        // family's. Every valid observation is ingested; each refit
        // triggered from the 25th observation on fails and is counted.
        let cases = [
            (ModelKind::Weibull, 500.0),
            (ModelKind::Weibull, 1e-310),
            (ModelKind::Exponential, 1e-310),
            (ModelKind::HyperExponential { phases: 2 }, 1e-310),
        ];
        for (kind, x) in cases {
            let mut sched = Scheduler::new(config(kind)).unwrap();
            for i in 1..=40 {
                let trigger = sched.observe(1, x).unwrap();
                assert_eq!(trigger, (i >= 25).then_some(RefitTrigger::InitialFit));
            }
            sched.publish().unwrap();
            assert_eq!(sched.ingested(), 40, "{kind:?}");
            assert_eq!(sched.refit_failures(), 16, "{kind:?}");
            assert!(sched.machine(1).unwrap().model().is_none());
            assert!(sched.decide(1, 0.0).is_none());
        }
    }

    #[test]
    fn subnormal_weibull_scale_fails_the_refit_not_the_publish() {
        // Varied subnormal durations would fit a subnormal β, whose table
        // takes ~50 s to build. The refit must fail and be counted, and
        // the publish must still serve the healthy machine.
        let mut sched = Scheduler::new(config(ModelKind::Weibull)).unwrap();
        for i in 1..=40u32 {
            sched.observe(1, f64::from(i % 7 + 1) * 1e-321).unwrap();
        }
        observe_n(&mut sched, 2, &Weibull::paper_exemplar(), 60, 3);
        sched.publish().unwrap();
        assert_eq!(sched.machine(1).unwrap().refit_failures(), 16);
        assert!(sched.decide(1, 0.0).is_none());
        assert!(sched.decide(2, 0.0).is_some());
        assert_eq!(sched.store().len(), 1);
    }

    #[test]
    fn refits_resolve_at_flush_and_publish() {
        let mut sched = Scheduler::new(config(ModelKind::Exponential)).unwrap();
        let gen = Exponential::from_mean(700.0).unwrap();
        observe_n(&mut sched, 1, &gen, 25, 7);
        observe_n(&mut sched, 2, &gen, 25, 8);
        assert_eq!(sched.refits(), 2);
        assert!(sched.machine(1).unwrap().model().is_none(), "parked");
        sched.flush();
        assert!(sched.machine(1).unwrap().model().is_some());
        assert!(sched.machine(2).unwrap().pending_job().is_none());
        observe_n(&mut sched, 3, &gen, 25, 9);
        sched.publish().unwrap();
        assert_eq!(sched.store().len(), 3);
    }
}
