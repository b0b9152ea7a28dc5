//! `coremap-audit shake`: a seeded deterministic-interleaving harness.
//!
//! The static `lock-order` pass names the lock pairs worth worrying
//! about; this module replays them *dynamically*. Each schedule is a
//! seeded perturbation — per-thread signature orderings, counted spin
//! delays at the contention points, and one scripted lease abandonment
//! per selected signature — of two real workloads:
//!
//! 1. **Cache contention** — `threads × signatures` racing
//!    `MapCache::acquire`/`publish`/`abandon` (the `fleet/cache.rs`
//!    Mutex+Condvar single-flight pair the static pass flags), asserting
//!    exactly one leader election per signature (two when the schedule
//!    scripts an abandonment) and a byte-identical final snapshot.
//! 2. **Campaign** — `FleetRunner::map_instances_cached` over the real
//!    worker pool with seeded boot jitter, folded into a fresh
//!    `FleetDb` the way `run_campaign_cached` does, asserting the
//!    serialized database and the deterministic metrics export are
//!    byte-identical across every (seed, worker-count) schedule.
//!
//! Nothing here uses wall-clock time or OS randomness: a schedule is a
//! pure function of its seed, so a divergence reproduces with
//! `--seeds`/`--workers` alone.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

use coremap_core::{CachedSolve, CoreMapper, MapQuality, ObservationSignature, SolveCache};
use coremap_fleet::{CloudFleet, CpuModel, FleetDb, FleetRunner, MapCache};
use coremap_mesh::{GridDim, TileCoord};
use coremap_obs as obs;

/// Shake run parameters.
#[derive(Debug, Clone)]
pub struct ShakeConfig {
    /// Seeds per worker count (schedules = `seeds × workers.len()`).
    pub seeds: u64,
    /// Worker counts to run each seed at.
    pub workers: Vec<usize>,
    /// Fleet instances per campaign schedule.
    pub instances: usize,
    /// Distinct signatures per cache-contention schedule.
    pub signatures: usize,
}

impl Default for ShakeConfig {
    fn default() -> Self {
        Self {
            seeds: 4,
            workers: vec![2, 4],
            instances: 6,
            signatures: 5,
        }
    }
}

/// One schedule's digests (all byte-level, FNV-1a over the rendered
/// output).
#[derive(Debug, Clone)]
pub struct ScheduleResult {
    /// The schedule seed.
    pub seed: u64,
    /// The worker / thread count.
    pub workers: usize,
    /// Digest of the cache-contention final snapshot.
    pub cache_digest: u64,
    /// Digest of the campaign's serialized `FleetDb`.
    pub db_digest: u64,
    /// Digest of the campaign's deterministic metrics export.
    pub metrics_digest: u64,
}

/// Everything a shake run produced.
#[derive(Debug, Clone, Default)]
pub struct ShakeOutcome {
    /// Per-schedule digests, in (workers, seed) order.
    pub runs: Vec<ScheduleResult>,
    /// Invariant violations and cross-schedule divergences.
    pub failures: Vec<String>,
}

impl ShakeOutcome {
    /// Whether every schedule held the invariants and produced
    /// byte-identical output.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Runs the full shake matrix.
pub fn shake(cfg: &ShakeConfig) -> ShakeOutcome {
    let mut out = ShakeOutcome::default();
    let mut cache_ref: Option<String> = None;
    let mut campaign_ref: Option<(String, String)> = None;
    for &workers in &cfg.workers {
        for seed in 0..cfg.seeds {
            let threads = workers.max(2);
            let cache_render = cache_schedule(seed, threads, cfg.signatures, &mut out.failures);
            match (&cache_ref, &cache_render) {
                (Some(reference), Some(render)) if reference != render => {
                    out.failures.push(format!(
                        "cache shake diverged at seed {seed} workers {workers}: \
                         final snapshot differs from the first schedule"
                    ));
                }
                (None, Some(render)) => cache_ref = Some(render.clone()),
                _ => {}
            }
            let campaign = campaign_schedule(seed, workers, cfg.instances, &mut out.failures);
            if let Some((db, metrics)) = &campaign {
                match &campaign_ref {
                    Some((db_ref, metrics_ref)) => {
                        if db_ref != db {
                            out.failures.push(format!(
                                "campaign shake diverged at seed {seed} workers \
                                 {workers}: FleetDb bytes differ from the first \
                                 schedule"
                            ));
                        }
                        if metrics_ref != metrics {
                            out.failures.push(format!(
                                "campaign shake diverged at seed {seed} workers \
                                 {workers}: deterministic metrics export differs \
                                 from the first schedule"
                            ));
                        }
                    }
                    None => campaign_ref = Some((db.clone(), metrics.clone())),
                }
            }
            out.runs.push(ScheduleResult {
                seed,
                workers,
                cache_digest: cache_render.as_deref().map_or(0, |r| fnv(r.as_bytes())),
                db_digest: campaign.as_ref().map_or(0, |(d, _)| fnv(d.as_bytes())),
                metrics_digest: campaign.as_ref().map_or(0, |(_, m)| fnv(m.as_bytes())),
            });
        }
    }
    out
}

/// FNV-1a over `bytes` — the digest shown per schedule.
pub fn fnv(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Deterministic seed/lane mixer (splitmix64 finalizer over the lanes).
fn mix(seed: u64, a: u64, b: u64) -> u64 {
    let mut z = seed
        ^ a.wrapping_mul(0x9e37_79b9_7f4a_7c15)
        ^ b.wrapping_mul(0xbf58_476d_1ce4_e5b9).rotate_left(17);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Counted busy-wait: perturbs thread interleaving without touching the
/// clock.
fn spin(n: u64) {
    for _ in 0..(n % 1500) {
        std::hint::spin_loop();
    }
}

/// The `k`-th synthetic signature, or a failure note.
fn sig_of(k: usize, failures: &mut Vec<String>) -> Option<ObservationSignature> {
    let hex = format!("{:032x}", 0xc0de_0000_u128 + k as u128);
    let sig = ObservationSignature::from_hex(&hex);
    if sig.is_none() {
        failures.push(format!("cache shake: cannot build signature {k}"));
    }
    sig
}

/// The canonical solve every leader publishes for signature `k` —
/// identical on every schedule by construction.
fn solve_of(k: usize) -> CachedSolve {
    CachedSolve {
        dim: GridDim::new(4 + k % 3, 4),
        positions: vec![TileCoord::new(0, 0), TileCoord::new(1, k % 4)],
        objective: 1.0 + k as f64,
        quality: MapQuality::default(),
    }
}

/// Whether the schedule scripts one abandoned lease for signature `k`.
fn scripts_abandon(seed: u64, k: usize) -> bool {
    mix(seed, k as u64, 7).is_multiple_of(3)
}

/// Scenario 1: seeded cache contention. Returns the rendered final
/// snapshot (`None` when setup failed).
fn cache_schedule(
    seed: u64,
    threads: usize,
    nsigs: usize,
    failures: &mut Vec<String>,
) -> Option<String> {
    let cache = MapCache::new();
    let leaders: Vec<AtomicUsize> = (0..nsigs).map(|_| AtomicUsize::new(0)).collect();
    let abandoned: Vec<AtomicBool> = (0..nsigs).map(|_| AtomicBool::new(false)).collect();
    let sigs: Vec<ObservationSignature> = (0..nsigs)
        .map(|k| sig_of(k, failures))
        .collect::<Option<Vec<_>>>()?;

    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for t in 0..threads {
            let cache = &cache;
            let leaders = &leaders;
            let abandoned = &abandoned;
            let sigs = &sigs;
            handles.push(scope.spawn(move || -> Vec<String> {
                let mut errs = Vec::new();
                let rot = mix(seed, t as u64, 99) as usize % nsigs.max(1);
                for step in 0..nsigs {
                    let k = (step + rot + t) % nsigs;
                    let sg = sigs[k];
                    loop {
                        match cache.acquire(&sg) {
                            Some(got) => {
                                if got != solve_of(k) {
                                    errs.push(format!(
                                        "thread {t} read a wrong solve for \
                                         signature {k} (stale or cross-wired \
                                         cache entry)"
                                    ));
                                }
                                break;
                            }
                            None => {
                                leaders[k].fetch_add(1, Ordering::SeqCst);
                                spin(mix(seed, t as u64, k as u64));
                                if scripts_abandon(seed, k)
                                    && !abandoned[k].swap(true, Ordering::SeqCst)
                                {
                                    cache.abandon(&sg);
                                    spin(mix(seed, t as u64, k as u64 + 101));
                                    continue; // re-race for the lease
                                }
                                cache.publish(&sg, &solve_of(k));
                                break;
                            }
                        }
                    }
                }
                errs
            }));
        }
        for h in handles {
            match h.join() {
                Ok(errs) => failures.extend(errs),
                Err(_) => failures.push("cache shake: a contention thread panicked".into()),
            }
        }
    });

    // Single-flight invariants: one election per signature, plus one for
    // each scripted abandonment; nothing left in flight.
    for (k, counter) in leaders.iter().enumerate() {
        let led = counter.load(Ordering::SeqCst);
        let want = 1 + usize::from(scripts_abandon(seed, k));
        if led != want {
            failures.push(format!(
                "cache shake seed {seed}: signature {k} elected {led} leaders, \
                 expected {want} — single-flight violated"
            ));
        }
    }
    if cache.in_flight() != 0 {
        failures.push(format!(
            "cache shake seed {seed}: {} lease(s) still in flight after join",
            cache.in_flight()
        ));
    }

    // The cross-schedule byte comparison covers the cache *content* only:
    // which thread led each election is seed-scripted (and checked by the
    // leader invariants above), but the published solves must come out
    // identical whatever the schedule.
    let mut render = String::new();
    for (sg, s) in cache.snapshot() {
        let _ = writeln!(
            render,
            "{sg:?} dim={:?} positions={} objective={}",
            s.dim,
            s.positions.len(),
            s.objective
        );
    }
    Some(render)
}

/// Scenario 2: a real cached campaign under seeded boot jitter, folded
/// into a fresh `FleetDb` the way `run_campaign_cached` folds it.
/// Returns `(db_bytes, deterministic_metrics_json)`.
fn campaign_schedule(
    seed: u64,
    workers: usize,
    instances: usize,
    failures: &mut Vec<String>,
) -> Option<(String, String)> {
    let model = CpuModel::Gold6354;
    let fleet = CloudFleet::with_seed(2022);
    if fleet.population(model) < instances {
        failures.push(format!(
            "campaign shake: population {} < requested {instances} instances",
            fleet.population(model)
        ));
        return None;
    }
    let runner = FleetRunner::new(workers);
    let mapper = CoreMapper::new();
    let cache = MapCache::new();
    let registry = Arc::new(obs::Registry::new());
    let indices: Vec<usize> = (0..instances).collect();
    let outcome = {
        let _guard = obs::install(Arc::clone(&registry));
        runner.map_instances_cached(&fleet, model, &indices, &mapper, &cache, |instance| {
            // The seeded jitter: each instance boots after a counted
            // spin, shuffling which worker reaches the cache first.
            spin(mix(seed, instance.index() as u64, 11));
            instance.boot()
        })
    };
    let mut db = FleetDb::new();
    for (instance, result) in outcome.iter() {
        match result {
            Ok(mapped) => {
                if let Err(e) = db.insert(mapped.map.clone()) {
                    failures.push(format!(
                        "campaign shake seed {seed}: db insert failed for \
                         instance {}: {e}",
                        instance.index()
                    ));
                }
            }
            Err(e) => failures.push(format!(
                "campaign shake seed {seed}: instance {} failed: {e:?}",
                instance.index()
            )),
        }
    }
    for (sg, solve) in cache.snapshot() {
        db.record_solve(sg, solve);
    }
    let mut bytes = Vec::new();
    if let Err(e) = db.save(&mut bytes) {
        failures.push(format!("campaign shake seed {seed}: db save failed: {e}"));
        return None;
    }
    let db_text = String::from_utf8_lossy(&bytes).into_owned();
    Some((db_text, registry.to_json(false)))
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]
    use super::*;

    #[test]
    fn cache_schedules_are_byte_identical_and_single_flight() {
        let mut failures = Vec::new();
        let a = cache_schedule(3, 4, 4, &mut failures).unwrap();
        let b = cache_schedule(3, 2, 4, &mut failures).unwrap();
        assert!(failures.is_empty(), "{failures:?}");
        assert_eq!(a, b, "snapshot must not depend on thread count");
        assert!(a.contains("dim="));
    }

    #[test]
    fn scripted_abandonment_promotes_exactly_one_extra_leader() {
        let mut failures = Vec::new();
        // Across a few seeds at least one signature scripts an abandon;
        // the invariant check inside cache_schedule would report any
        // election count other than 1 + scripted.
        let mut saw_abandon = false;
        for seed in 0..6 {
            let _ = cache_schedule(seed, 3, 4, &mut failures);
            saw_abandon |= (0..4).any(|k| scripts_abandon(seed, k));
        }
        assert!(saw_abandon, "no seed scripted an abandonment");
        assert!(failures.is_empty(), "{failures:?}");
    }

    #[test]
    fn full_shake_smoke_is_byte_identical_across_schedules() {
        let cfg = ShakeConfig {
            seeds: 2,
            workers: vec![2],
            instances: 2,
            signatures: 3,
        };
        let out = shake(&cfg);
        assert!(out.passed(), "{:?}", out.failures);
        assert_eq!(out.runs.len(), 2);
        assert_eq!(out.runs[0].db_digest, out.runs[1].db_digest);
        assert_eq!(out.runs[0].metrics_digest, out.runs[1].metrics_digest);
        assert_eq!(out.runs[0].cache_digest, out.runs[1].cache_digest);
    }
}
