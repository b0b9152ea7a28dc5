//! The traced stage replica of the mapping pipeline.
//!
//! `CoreMapper` runs its stages inside one call, so a trace from outside
//! the library has to follow the same stage order itself, calling the
//! public function of each layer: `build_all_sets_with`, `discover_with`,
//! `observe_all_with`, `ObservationSignature::compute`,
//! `SolveCache::acquire`, `harden::reconstruct_degrading`, `publish`, and
//! then `FleetDb::insert`. Each measurement stage records the machine
//! operations it issued.
//!
//! The replica is only trustworthy while it matches the real pipeline, so
//! every traced run compares each instance's map and machine-op count with
//! what `CoreMapper` returned for the same chip (see the `replica-guard`
//! checks in the workloads). A change to the stage internals that the
//! replica does not follow fails that check instead of being traced
//! against a pipeline that no longer runs.

use coremap_core::{
    cha_map, eviction, harden, traffic, CoreMap, CoreMapper, Harden, MachineBackend, MapError,
    MapperConfig, ObservationSignature, SolveCache, SolveOptions,
};
use coremap_fleet::{
    CloudFleet, CloudInstance, CpuModel, FleetDb, FleetRunner, MapCache, SurveyStats,
};
use coremap_mesh::Ppin;
use coremap_uncore::msr::MSR_PPIN;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::trace::{Request, Trace};

/// The outcome of a replica run over a list of instances.
pub struct ReplicaRun {
    pub mapped: Vec<Replicated>,
    /// `(instance index, error)` per failed instance.
    pub failed: Vec<(usize, String)>,
    /// Survey statistics folded in instance order, as the real path does.
    pub stats: SurveyStats,
}

/// One instance mapped by the replica.
pub struct Replicated {
    pub index: usize,
    pub map: CoreMap,
    /// Total machine operations, as `MapDiagnostics::machine_ops` counts them.
    pub ops: u64,
    /// Path observations fed to the solver.
    pub paths: usize,
}

/// Span name of an instance's root span, per SKU.
pub fn instance_span(model: CpuModel) -> &'static str {
    match model {
        CpuModel::Platinum8124M => "instance.8124m",
        CpuModel::Platinum8175M => "instance.8175m",
        CpuModel::Platinum8259CL => "instance.8259cl",
        CpuModel::Gold6354 => "instance.6354",
    }
}

/// Runs `stage` as a span that records the machine ops it issued.
fn stage<B: MachineBackend, T>(
    req: &mut Request<'_>,
    name: &'static str,
    machine: &mut B,
    stage: impl FnOnce(&mut B) -> T,
) -> T {
    let before = machine.op_count();
    let idx = req.enter(name);
    let out = stage(machine);
    req.exit(idx, machine.op_count() - before);
    out
}

/// Maps one instance stage by stage, the way `CoreMapper::map_cached`
/// (with `cache`) or `CoreMapper::map_with_diagnostics` (without) does,
/// and labels the map as `FleetRunner` does.
fn map_instance(
    cfg: &MapperConfig,
    model: CpuModel,
    instance: &CloudInstance,
    cache: Option<&dyn SolveCache>,
    req: &mut Request<'_>,
) -> Result<Replicated, MapError> {
    let root = req.enter(instance_span(model));
    let mut machine = req.time("boot", || instance.boot());
    let mut hard = Harden::new(cfg.robustness.clone());
    let ppin = Ppin::new(hard.msr(|| machine.read_msr(MSR_PPIN))?);
    let sets = stage(req, "eviction", &mut machine, |m| {
        let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed);
        eviction::build_all_sets_with(m, &mut rng, cfg.probe_iters, &mut hard)
    })?;
    let mapping = stage(req, "cha_map", &mut machine, |m| {
        cha_map::discover_with(m, &sets, cfg.thrash_rounds, &mut hard)
    })?;
    let observations = stage(req, "traffic", &mut machine, |m| {
        traffic::observe_all_with(
            m,
            &mapping,
            &sets,
            cfg.ping_iters,
            cfg.pair_stride,
            &mut hard,
        )
    })?;
    let dim = machine.grid_dim();
    let sig = req.time("signature", || {
        ObservationSignature::compute(
            cfg.signature_context.as_deref(),
            dim,
            &mapping.core_to_cha,
            &mapping.llc_only,
            &observations,
        )
    });
    let cached = cache.and_then(|c| req.time("cache.acquire", || c.acquire(&sig)));
    let positions = match cached {
        Some(solve) => solve.positions,
        None => {
            let solved = req.time("ilp", || {
                harden::reconstruct_degrading(
                    &observations,
                    dim,
                    cfg.full_formulation,
                    &cfg.robustness,
                    SolveOptions {
                        workers: cfg.ilp_workers,
                        warm_start: cfg.ilp_warm_start,
                    },
                )
            });
            match (solved, cache) {
                (Ok((rec, quality)), Some(c)) => {
                    let solve = coremap_core::CachedSolve {
                        dim,
                        positions: rec.positions.clone(),
                        objective: rec.objective,
                        quality,
                    };
                    req.time("cache.publish", || c.publish(&sig, &solve));
                    rec.positions
                }
                (Ok((rec, _)), None) => rec.positions,
                (Err(e), cached) => {
                    if let Some(c) = cached {
                        c.abandon(&sig);
                    }
                    return Err(e);
                }
            }
        }
    };
    let map = CoreMap::new(dim, positions, mapping.core_to_cha, mapping.llc_only)
        .with_ppin(ppin)
        .with_topology_name(model.topology().name())
        .with_template(model.template());
    let ops = machine.op_count();
    req.exit(root, 0);
    Ok(Replicated {
        index: instance.index(),
        map,
        ops,
        paths: observations.paths.len(),
    })
}

/// The mapper configuration `FleetRunner` derives for a campaign of
/// `count` instances: idle runner threads go to the solver, and cached
/// campaigns fold the SKU's topology name into the signature.
fn runner_config(
    mapper: &CoreMapper,
    runner: &FleetRunner,
    model: CpuModel,
    count: usize,
    cached: bool,
) -> MapperConfig {
    let mut cfg = mapper.config().clone();
    cfg.ilp_workers = cfg.ilp_workers.max(runner.workers() / count.max(1));
    if cached {
        cfg.signature_context = Some(model.topology().name().to_owned());
    }
    cfg
}

/// Stores one mapped instance (the replica campaign's `FleetDb::insert`).
type Insert<'a> = &'a mut dyn FnMut(&CoreMap) -> Result<(), String>;

/// Runs the replica over `indices` on `runner`, one traced request per
/// instance plus a `runner` span around the pool, then folds the survey
/// statistics in instance order; `insert` (if any) runs for each mapped
/// instance in that order too.
#[allow(clippy::too_many_arguments)]
fn run_traced(
    trace: &Trace,
    runner: &FleetRunner,
    fleet: &CloudFleet,
    model: CpuModel,
    indices: &[usize],
    cfg: &MapperConfig,
    cache: Option<&dyn SolveCache>,
    mut insert: Option<Insert<'_>>,
) -> Result<ReplicaRun, String> {
    let outcome = trace.time("runner", 0, || {
        runner.run_indices(fleet, model, indices, |instance| {
            let mut req = trace.request(instance.ppin().value());
            let out = map_instance(cfg, model, instance, cache, &mut req);
            req.commit();
            out
        })
    });
    let mut run = ReplicaRun {
        mapped: Vec::new(),
        failed: Vec::new(),
        stats: SurveyStats::default(),
    };
    for (instance, result) in outcome.iter() {
        match result {
            Ok(r) => {
                let id = instance.ppin().value();
                trace.time("stats", id, || run.stats.record(instance, &r.map));
                if let Some(insert) = insert.as_mut() {
                    trace.time("db.insert", id, || insert(&r.map))?;
                }
            }
            Err(e) => {
                run.stats.record_failure();
                run.failed.push((instance.index(), e.to_string()));
            }
        }
    }
    run.mapped = outcome
        .into_successes()
        .into_iter()
        .map(|(_, r)| r)
        .collect();
    Ok(run)
}

/// The replica of `run_campaign(…, resume = false, …)`: a cache warmed from
/// `db`, every instance `0..count` mapped through it, maps inserted in
/// instance order and the cache's solves recorded.
pub fn campaign(
    trace: &Trace,
    runner: &FleetRunner,
    fleet: &CloudFleet,
    model: CpuModel,
    count: usize,
    mapper: &CoreMapper,
    db: &mut FleetDb,
) -> Result<ReplicaRun, String> {
    let cache = MapCache::new();
    for (&sig, solve) in db.solves() {
        cache.seed(sig, solve.clone());
    }
    let cfg = runner_config(mapper, runner, model, count, true);
    let indices: Vec<usize> = (0..count).collect();
    let mut insert = |map: &CoreMap| {
        db.insert(map.clone())
            .map(|_| ())
            .map_err(|e| format!("replica insert: {e}"))
    };
    let run = run_traced(
        trace,
        runner,
        fleet,
        model,
        &indices,
        &cfg,
        Some(&cache),
        Some(&mut insert),
    )?;
    for (sig, solve) in cache.snapshot() {
        db.record_solve(sig, solve);
    }
    Ok(run)
}

/// The replica of `FleetRunner::map_instances` over `0..count` followed by
/// `SurveyStats::collect`, as `core-map fleet` runs them: no cache, every
/// instance solves.
pub fn survey(
    trace: &Trace,
    runner: &FleetRunner,
    fleet: &CloudFleet,
    model: CpuModel,
    count: usize,
    mapper: &CoreMapper,
) -> Result<ReplicaRun, String> {
    let cfg = runner_config(mapper, runner, model, count, false);
    let indices: Vec<usize> = (0..count).collect();
    run_traced(trace, runner, fleet, model, &indices, &cfg, None, None)
}
