//! The shared parallel fleet runner.
//!
//! Every consumer that measures many instances — the CLI's fleet survey,
//! the experiment binaries regenerating the paper's tables — needs the
//! same harness: walk instances `0..count` of one model, run a per-instance
//! job on a bounded worker pool, and collect per-instance results *in
//! instance order* so the output is independent of worker count and
//! scheduling. [`FleetRunner`] is that harness; a failing instance becomes
//! an `Err` entry in the [`FleetOutcome`] instead of aborting the whole
//! campaign — including an instance that *panics*, which is caught and
//! reported as [`JobFailure::Panic`] without disturbing its siblings.
//!
//! The runner is also the aggregation point of the observability layer:
//! each instance records into its own [`coremap_obs::Registry`], and the
//! sub-registries are merged into the caller's registry *in instance
//! order*, so the deterministic metric snapshot is independent of the
//! worker count.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use coremap_core::backend::MachineBackend;
use coremap_core::{verify, CoreMap, CoreMapper, MapError, SolveCache};
use coremap_obs as obs;

use crate::stats::{IdMappingStats, PatternStats};
use crate::{CloudFleet, CloudInstance, CpuModel};

/// One finished result slot: the instance and its job outcome.
type ResultEntry<T, E> = (CloudInstance, Result<T, JobFailure<E>>);

/// Per-instance result slots, filled as workers finish.
type ResultSlots<T, E> = Mutex<Vec<Option<ResultEntry<T, E>>>>;

/// Per-instance metric sub-registries, filled as workers finish.
type RegistrySlots = Mutex<Vec<Option<Arc<obs::Registry>>>>;

/// Locks `m`, recovering the data even if a previous holder panicked.
///
/// Every write the runner makes under these mutexes is a self-contained
/// single-slot update, so a poisoned lock never leaves the shared state
/// torn — it only means some other slot's job died, which the outcome
/// already reports per instance.
fn lock_clean<T: ?Sized>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Renders a caught panic payload as text for [`JobFailure::Panic`].
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// Converts the raw result slots into the final instance-order vector.
///
/// A hole — a worker that died between claiming slot `i` and publishing a
/// result, which `catch_unwind` cannot always prevent (a panic raised in a
/// destructor during unwinding aborts the thread past the catch) — becomes
/// a [`JobFailure::Panic`] entry for that one instance instead of killing
/// the whole campaign.
fn seal_results<T, E>(
    fleet: &CloudFleet,
    model: CpuModel,
    indices: &[usize],
    slots: Vec<Option<ResultEntry<T, E>>>,
) -> Vec<ResultEntry<T, E>> {
    slots
        .into_iter()
        .enumerate()
        .map(|(slot, entry)| match entry {
            Some(filled) => filled,
            None => {
                #[allow(clippy::expect_used)]
                // audit: allow(panic-safety): an out-of-range index panics the scope join before this runs, so a hole's index is known valid
                let instance = fleet.instance(model, indices[slot]).expect("index valid");
                (
                    instance,
                    Err(JobFailure::Panic(
                        "worker died before publishing a result for this instance".to_owned(),
                    )),
                )
            }
        })
        .collect()
}

/// Why one instance of a fleet campaign produced no result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobFailure<E> {
    /// The job returned its own error.
    Job(E),
    /// The job panicked; the payload is rendered as text.
    Panic(String),
}

impl<E> JobFailure<E> {
    /// The job's own error, if the failure was not a panic.
    pub fn job_error(&self) -> Option<&E> {
        match self {
            Self::Job(e) => Some(e),
            Self::Panic(_) => None,
        }
    }

    /// Whether this failure was a caught panic.
    pub fn is_panic(&self) -> bool {
        matches!(self, Self::Panic(_))
    }
}

impl<E: std::fmt::Display> std::fmt::Display for JobFailure<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Job(e) => e.fmt(f),
            Self::Panic(msg) => write!(f, "panicked: {msg}"),
        }
    }
}

/// A work-queue thread pool over the instances of one fleet model.
///
/// Results are keyed by instance index, so for a deterministic job the
/// outcome is identical whatever the worker count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FleetRunner {
    workers: usize,
}

impl FleetRunner {
    /// A runner with `workers` threads (clamped to at least one).
    pub fn new(workers: usize) -> Self {
        Self {
            workers: workers.max(1),
        }
    }

    /// A single-threaded runner.
    pub fn sequential() -> Self {
        Self::new(1)
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Runs `job` once per instance `0..count` of `model`, returning
    /// per-instance results in instance order.
    ///
    /// A panicking job does not abort the campaign: the panic is caught on
    /// the worker, reported as [`JobFailure::Panic`] for that one
    /// instance, and the worker moves on to the next queue entry.
    ///
    /// If a metrics registry is installed on the calling thread
    /// ([`coremap_obs::install`]), each job records into a fresh
    /// per-instance sub-registry; the sub-registries are merged into the
    /// caller's registry in instance order, together with the campaign
    /// counters `fleet.instances.{ok,err,panicked}`.
    ///
    /// # Panics
    ///
    /// Panics if `count` exceeds the model's population — a caller bug,
    /// unlike a *job* failure, which lands as an `Err` in the outcome.
    pub fn run<T, E, F>(
        &self,
        fleet: &CloudFleet,
        model: CpuModel,
        count: usize,
        job: F,
    ) -> FleetOutcome<T, E>
    where
        T: Send,
        E: Send,
        F: Fn(&CloudInstance) -> Result<T, E> + Sync,
    {
        let indices: Vec<usize> = (0..count).collect();
        self.run_indices(fleet, model, &indices, job)
    }

    /// Runs `job` on an explicit subset of instance indices — the resume
    /// path of a fleet campaign, where already-mapped PPINs are skipped.
    /// Results land in the order `indices` lists them (campaigns pass
    /// ascending indices, preserving instance order).
    ///
    /// Failure isolation and metric aggregation behave exactly as in
    /// [`run`](Self::run).
    ///
    /// # Panics
    ///
    /// Panics if an index exceeds the model's population — a caller bug,
    /// unlike a *job* failure, which lands as an `Err` in the outcome.
    pub fn run_indices<T, E, F>(
        &self,
        fleet: &CloudFleet,
        model: CpuModel,
        indices: &[usize],
        job: F,
    ) -> FleetOutcome<T, E>
    where
        T: Send,
        E: Send,
        F: Fn(&CloudInstance) -> Result<T, E> + Sync,
    {
        let count = indices.len();
        // Hold the caller's registry for the whole campaign: the merge at
        // the end must not depend on the thread-local still being set.
        let registry = obs::current();
        let instrumented = registry.is_some();
        // Shard the slots into per-worker contiguous index ranges. Each
        // worker drains its own shard from the front; an idle worker
        // steals from the *back* of the nearest non-empty sibling shard,
        // so owners and thieves contend on opposite deque ends and a
        // straggler shard (one slow instance) never idles the pool. Slots
        // are popped exactly once and never re-queued, so a worker may
        // exit as soon as one scan over every shard finds them all empty.
        let nworkers = self.workers.min(count.max(1));
        let shards: Vec<Mutex<VecDeque<usize>>> = (0..nworkers)
            .map(|w| Mutex::new((w * count / nworkers..(w + 1) * count / nworkers).collect()))
            .collect();
        let results: ResultSlots<T, E> = Mutex::new((0..count).map(|_| None).collect());
        let registries: RegistrySlots = Mutex::new((0..count).map(|_| None).collect());
        std::thread::scope(|scope| {
            for worker in 0..nworkers {
                let (shards, results, registries, job) = (&shards, &results, &registries, &job);
                scope.spawn(move || loop {
                    let mut stolen = false;
                    let mut claimed = lock_clean(&shards[worker]).pop_front();
                    if claimed.is_none() {
                        for offset in 1..nworkers {
                            let victim = (worker + offset) % nworkers;
                            if let Some(slot) = lock_clean(&shards[victim]).pop_back() {
                                stolen = true;
                                claimed = Some(slot);
                                break;
                            }
                        }
                    }
                    let slot = match claimed {
                        Some(i) => i,
                        None => break,
                    };
                    let idx = indices[slot];
                    #[allow(clippy::expect_used)]
                    // audit: allow(panic-safety): documented "# Panics" contract — an index above the population is a caller bug, checked before any work ran
                    let instance = fleet.instance(model, idx).expect("index below population");
                    let sub = instrumented.then(|| Arc::new(obs::Registry::new()));
                    // audit: allow(determinism): wall time is recorded as a volatile metric only; deterministic exports never include it
                    let start = std::time::Instant::now();
                    let result = {
                        let _scope = sub.clone().map(obs::install);
                        catch_unwind(AssertUnwindSafe(|| job(&instance)))
                    };
                    let result = match result {
                        Ok(Ok(v)) => Ok(v),
                        Ok(Err(e)) => Err(JobFailure::Job(e)),
                        Err(payload) => Err(JobFailure::Panic(panic_message(payload))),
                    };
                    if let Some(sub) = &sub {
                        sub.set_gauge_volatile(
                            &format!("fleet.instance.{idx:04}.wall_us"),
                            start.elapsed().as_micros() as f64,
                        );
                        sub.add_volatile(&format!("fleet.worker.{worker:02}.jobs"), 1);
                        if stolen {
                            // Which slots get stolen is scheduling-dependent,
                            // so steal counts are volatile-only.
                            sub.add_volatile(&format!("fleet.worker.{worker:02}.steals"), 1);
                        }
                    }
                    lock_clean(results)[slot] = Some((instance, result));
                    lock_clean(registries)[slot] = sub;
                });
            }
        });
        let slots = results.into_inner().unwrap_or_else(PoisonError::into_inner);
        let results = seal_results(fleet, model, indices, slots);
        if let Some(reg) = &registry {
            // Instance-order merge: counter and histogram merges commute,
            // but gauge collisions resolve last-wins, so a fixed order keeps
            // the snapshot independent of worker scheduling.
            let subs = registries
                .into_inner()
                .unwrap_or_else(PoisonError::into_inner);
            for sub in subs.into_iter().flatten() {
                reg.merge(&sub);
            }
            let (mut ok, mut errs, mut panics) = (0u64, 0u64, 0u64);
            for (_, r) in &results {
                match r {
                    Ok(_) => ok += 1,
                    Err(JobFailure::Job(_)) => errs += 1,
                    Err(JobFailure::Panic(_)) => panics += 1,
                }
            }
            obs::add("fleet.instances.ok", ok);
            obs::add("fleet.instances.err", errs);
            obs::add("fleet.instances.panicked", panics);
        }
        FleetOutcome { results }
    }

    /// Maps instances `0..count` of `model` with `mapper`, booting each
    /// through `boot` — generic over the [`MachineBackend`] the campaign
    /// measures, so the same runner drives simulators, recording wrappers
    /// or fault-injection studies.
    ///
    /// Recovered maps carry the model's die template, as every consumer
    /// wants them.
    pub fn map_instances<B, F>(
        &self,
        fleet: &CloudFleet,
        model: CpuModel,
        count: usize,
        mapper: &CoreMapper,
        boot: F,
    ) -> FleetOutcome<CoreMap, MapError>
    where
        B: MachineBackend,
        F: Fn(&CloudInstance) -> B + Sync,
    {
        self.run(fleet, model, count, |instance| {
            let mut machine = boot(instance);
            mapper.map_with_diagnostics(&mut machine).map(|(m, diag)| {
                // Deterministic per-instance cost proxy: machine operations
                // issued, unlike wall time, are identical across reruns.
                obs::set_gauge(
                    &format!("fleet.instance.{:04}.ops", instance.index()),
                    diag.machine_ops as f64,
                );
                model.label_map(m).with_template(model.template())
            })
        })
    }

    /// Like [`map_instances`](Self::map_instances), but over an explicit
    /// index subset and through a shared [`SolveCache`]: each instance's
    /// observation signature is computed (with the SKU's topology name as
    /// context) and the step-3 ILP runs only for signatures no other
    /// instance has solved yet — the single-flight contract of the cache
    /// guarantees exactly one solve per unique signature at any worker
    /// count.
    ///
    /// Returns, per instance, the recovered map plus the signature and
    /// whether this instance's solve came from the cache (the raw
    /// scheduling-dependent flag; campaigns recompute deterministic
    /// hit/miss totals in instance order).
    pub fn map_instances_cached<B, F>(
        &self,
        fleet: &CloudFleet,
        model: CpuModel,
        indices: &[usize],
        mapper: &CoreMapper,
        cache: &dyn SolveCache,
        boot: F,
    ) -> FleetOutcome<MappedInstance, MapError>
    where
        B: MachineBackend,
        F: Fn(&CloudInstance) -> B + Sync,
    {
        let mut cfg = mapper.config().clone();
        cfg.signature_context = Some(model.topology().name().to_owned());
        let mapper = CoreMapper::with_config(cfg);
        self.run_indices(fleet, model, indices, |instance| {
            let mut machine = boot(instance);
            mapper.map_cached(&mut machine, cache).map(|(m, diag)| {
                obs::set_gauge(
                    &format!("fleet.instance.{:04}.ops", instance.index()),
                    diag.machine_ops as f64,
                );
                MappedInstance {
                    map: model.label_map(m).with_template(model.template()),
                    signature: diag.signature,
                    solve_cached: diag.solve_cached,
                }
            })
        })
    }
}

/// One instance's result from a cached mapping campaign: the recovered map
/// together with the cache bookkeeping the campaign layer aggregates.
#[derive(Debug, Clone, PartialEq)]
pub struct MappedInstance {
    /// The recovered map (PPIN, topology name and template attached).
    pub map: CoreMap,
    /// Content address of the campaign's observations, when the
    /// paper-literal path computed one (`None` under hypothesis
    /// selection, which always solves).
    pub signature: Option<coremap_core::ObservationSignature>,
    /// Whether the step-3 solve was served from the cache. Which racing
    /// instance solved first is scheduling-dependent; use instance-order
    /// accounting for deterministic totals.
    pub solve_cached: bool,
}

impl Default for FleetRunner {
    fn default() -> Self {
        Self::new(
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4),
        )
    }
}

/// Per-instance results of a fleet campaign, in instance order.
#[derive(Debug)]
pub struct FleetOutcome<T, E> {
    results: Vec<(CloudInstance, Result<T, JobFailure<E>>)>,
}

impl<T, E> FleetOutcome<T, E> {
    /// Number of instances processed.
    pub fn len(&self) -> usize {
        self.results.len()
    }

    /// Whether no instances were processed.
    pub fn is_empty(&self) -> bool {
        self.results.is_empty()
    }

    /// All per-instance results, in instance order.
    pub fn iter(&self) -> impl Iterator<Item = &(CloudInstance, Result<T, JobFailure<E>>)> {
        self.results.iter()
    }

    /// Successful instances, in instance order.
    pub fn successes(&self) -> impl Iterator<Item = (&CloudInstance, &T)> {
        self.results
            .iter()
            .filter_map(|(i, r)| r.as_ref().ok().map(|v| (i, v)))
    }

    /// Failed instances (job errors and caught panics), in instance order.
    pub fn failures(&self) -> impl Iterator<Item = (&CloudInstance, &JobFailure<E>)> {
        self.results
            .iter()
            .filter_map(|(i, r)| r.as_ref().err().map(|e| (i, e)))
    }

    /// Number of failed instances (including panicked ones).
    pub fn failure_count(&self) -> usize {
        self.results.iter().filter(|(_, r)| r.is_err()).count()
    }

    /// Number of instances whose job panicked.
    pub fn panic_count(&self) -> usize {
        self.results
            .iter()
            .filter(|(_, r)| matches!(r, Err(f) if f.is_panic()))
            .count()
    }

    /// One-line progress summary of the campaign, e.g.
    /// `"6 instances: 5 ok, 1 failed (1 panicked)"`.
    pub fn summary(&self) -> String {
        let failed = self.failure_count();
        let panicked = self.panic_count();
        let mut s = format!(
            "{} instances: {} ok, {} failed",
            self.len(),
            self.len() - failed,
            failed
        );
        if panicked > 0 {
            s.push_str(&format!(" ({panicked} panicked)"));
        }
        s
    }

    /// Consumes the outcome, keeping only successes (skip-and-count
    /// callers should report [`failure_count`](Self::failure_count)
    /// first).
    pub fn into_successes(self) -> Vec<(CloudInstance, T)> {
        self.results
            .into_iter()
            .filter_map(|(i, r)| r.ok().map(|v| (i, v)))
            .collect()
    }
}

/// The survey statistics every fleet campaign reports (paper Tables I/II):
/// location-pattern diversity, ID-mapping diversity, and ground-truth
/// verification counts.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SurveyStats {
    /// Location-pattern diversity over the recovered maps.
    pub patterns: PatternStats,
    /// OS-core↔CHA ID-mapping diversity over the recovered maps.
    pub ids: IdMappingStats,
    /// Instances whose recovered map matches ground truth relatively.
    pub verified: usize,
    /// Instances mapped successfully.
    pub mapped: usize,
    /// Instances that failed to map.
    pub failed: usize,
}

impl SurveyStats {
    /// Folds a mapping campaign's outcome into survey statistics.
    pub fn collect(outcome: &FleetOutcome<CoreMap, MapError>) -> Self {
        let mut stats = Self::default();
        for (instance, map) in outcome.successes() {
            stats.record(instance, map);
        }
        stats.failed = outcome.failure_count();
        stats
    }

    /// Folds one mapped instance in — the incremental form used by
    /// campaigns that interleave fresh and resumed maps in instance order.
    pub fn record(&mut self, instance: &CloudInstance, map: &CoreMap) {
        self.patterns.record(map);
        self.ids.record(map);
        if verify::matches_relative(map, instance.floorplan()) {
            self.verified += 1;
        }
        self.mapped += 1;
    }

    /// Counts one failed instance.
    pub fn record_failure(&mut self) {
        self.failed += 1;
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;

    #[test]
    fn runner_results_arrive_in_instance_order() {
        let fleet = CloudFleet::with_seed(9);
        let outcome = FleetRunner::new(3).run(&fleet, CpuModel::Gold6354, 4, |instance| {
            Ok::<usize, MapError>(instance.index())
        });
        let indices: Vec<usize> = outcome.successes().map(|(_, &v)| v).collect();
        assert_eq!(indices, vec![0, 1, 2, 3]);
        assert_eq!(outcome.failure_count(), 0);
    }

    #[test]
    fn failures_are_collected_not_fatal() {
        let fleet = CloudFleet::with_seed(9);
        let outcome = FleetRunner::new(2).run(&fleet, CpuModel::Gold6354, 4, |instance| {
            if instance.index() % 2 == 1 {
                Err(format!("instance {} rejected", instance.index()))
            } else {
                Ok(instance.index())
            }
        });
        assert_eq!(outcome.len(), 4);
        assert_eq!(outcome.failure_count(), 2);
        let kept: Vec<usize> = outcome
            .into_successes()
            .into_iter()
            .map(|(_, v)| v)
            .collect();
        assert_eq!(kept, vec![0, 2]);
    }

    #[test]
    fn panicking_job_is_isolated_per_instance() {
        let fleet = CloudFleet::with_seed(9);
        let outcome = FleetRunner::new(2).run(&fleet, CpuModel::Gold6354, 4, |instance| {
            if instance.index() == 2 {
                panic!("deliberate test panic on #{}", instance.index());
            }
            Ok::<usize, String>(instance.index())
        });
        assert_eq!(outcome.len(), 4);
        assert_eq!(outcome.failure_count(), 1);
        assert_eq!(outcome.panic_count(), 1);
        let (instance, failure) = outcome.failures().next().unwrap();
        assert_eq!(instance.index(), 2);
        assert!(
            matches!(failure, JobFailure::Panic(msg) if msg.contains("deliberate test panic")),
            "{failure}"
        );
        let ok: Vec<usize> = outcome.successes().map(|(_, &v)| v).collect();
        assert_eq!(ok, vec![0, 1, 3]);
        assert_eq!(
            outcome.summary(),
            "4 instances: 3 ok, 1 failed (1 panicked)"
        );
    }

    #[test]
    fn unfilled_result_slot_becomes_a_panic_entry() {
        // Regression: a worker dying between claiming an index and filling
        // its slot used to trip `expect("every index processed")` and kill
        // the whole campaign. The hole must become a per-instance failure.
        let fleet = CloudFleet::with_seed(9);
        let indices = [0usize, 1, 2];
        let inst1 = fleet.instance(CpuModel::Gold6354, 1).unwrap();
        let slots: Vec<Option<ResultEntry<usize, String>>> = vec![
            None, // worker died before publishing instance 0
            Some((inst1, Ok(1))),
            None, // and instance 2
        ];
        let sealed = seal_results(&fleet, CpuModel::Gold6354, &indices, slots);
        assert_eq!(sealed.len(), 3);
        assert_eq!(sealed[0].0.index(), 0);
        assert!(
            matches!(&sealed[0].1, Err(JobFailure::Panic(msg)) if msg.contains("worker died")),
            "hole must seal as a panic failure"
        );
        assert_eq!(sealed[1].1, Ok(1));
        assert!(matches!(&sealed[2].1, Err(JobFailure::Panic(_))));
        let outcome = FleetOutcome { results: sealed };
        assert_eq!(outcome.failure_count(), 2);
        assert_eq!(outcome.panic_count(), 2);
    }

    #[test]
    fn stealing_runner_matches_sequential_results() {
        // More workers than instances forces idle workers onto the steal
        // path; results and instance order must not change.
        let fleet = CloudFleet::with_seed(9);
        let seq = FleetRunner::sequential().run(&fleet, CpuModel::Gold6354, 6, |i| {
            Ok::<usize, MapError>(i.index() * 10)
        });
        for workers in [2, 4, 8] {
            let par = FleetRunner::new(workers).run(&fleet, CpuModel::Gold6354, 6, |i| {
                Ok::<usize, MapError>(i.index() * 10)
            });
            let a: Vec<usize> = seq.successes().map(|(_, &v)| v).collect();
            let b: Vec<usize> = par.successes().map(|(_, &v)| v).collect();
            assert_eq!(a, b, "workers={workers}");
        }
    }

    #[test]
    fn campaign_counters_land_in_installed_registry() {
        let fleet = CloudFleet::with_seed(9);
        let reg = Arc::new(obs::Registry::new());
        let _g = obs::install(reg.clone());
        let outcome = FleetRunner::new(3).run(&fleet, CpuModel::Gold6354, 5, |instance| {
            obs::inc("test.job.runs");
            match instance.index() {
                1 => Err::<usize, String>("rejected".into()),
                3 => panic!("boom"),
                i => Ok(i),
            }
        });
        assert_eq!(outcome.failure_count(), 2);
        assert_eq!(reg.counter_value("fleet.instances.ok"), 3);
        assert_eq!(reg.counter_value("fleet.instances.err"), 1);
        assert_eq!(reg.counter_value("fleet.instances.panicked"), 1);
        // Per-instance sub-registries merged back: even the panicked job's
        // partial metrics survive.
        assert_eq!(reg.counter_value("test.job.runs"), 5);
    }
}
