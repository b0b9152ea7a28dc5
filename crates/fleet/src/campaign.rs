//! Fleet campaigns: cached, resumable mapping runs over one SKU.
//!
//! [`run_campaign`] is the orchestration the CLI's `fleet --db` path and
//! the bench binary share. It ties together the three scale mechanisms of
//! this crate:
//!
//! * **Resume** — instances whose PPIN the [`FleetDb`] already indexes are
//!   skipped entirely (no boot, no measurement, no solve); their stored
//!   maps still contribute to the survey statistics.
//! * **Content-addressed caching** — the remaining instances run through
//!   [`FleetRunner::map_instances_cached`] against a [`MapCache`] warmed
//!   from the database, so the ILP runs once per unique observation
//!   signature rather than once per instance.
//! * **Persistence** — fresh maps and solves are folded back into the
//!   database in instance order, ready for the next (possibly resumed)
//!   run.
//!
//! Metric discipline: `fleet.cache.{hits,misses}` and
//! `fleet.resume.skipped` are computed *in instance order after the run*
//! (instance `i` is a hit iff its signature is in the initial database or
//! belongs to a lower-indexed instance), never from the racing workers'
//! point of view — so exported metrics are byte-identical across reruns
//! and worker counts, as the repo's determinism CI demands. Thanks to the
//! cache's single-flight contract the deterministic miss count also equals
//! the number of ILP solves actually performed.

use std::collections::BTreeSet;

use coremap_core::{CoreMapper, ObservationSignature};
use coremap_obs as obs;

use crate::cache::MapCache;
use crate::db::FleetDb;
use crate::runner::SurveyStats;
use crate::{CloudFleet, CpuModel, FleetError, FleetRunner};

/// The result summary of one [`run_campaign`] call.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignReport {
    /// The SKU surveyed.
    pub model: CpuModel,
    /// Instances requested (`0..requested`).
    pub requested: usize,
    /// Instances skipped because the database already mapped their PPIN.
    pub resumed: usize,
    /// Freshly measured instances whose step-3 solve was a cache hit
    /// (deterministic instance-order accounting).
    pub cache_hits: u64,
    /// Freshly measured instances that needed an ILP solve.
    pub cache_misses: u64,
    /// Survey statistics over all successfully mapped instances, resumed
    /// ones included, folded in instance order.
    pub stats: SurveyStats,
    /// Per-instance errors, in instance order, rendered as text.
    pub errors: Vec<(usize, String)>,
}

impl CampaignReport {
    /// Fraction of fresh instances served from the cache (1.0 when no
    /// fresh instance ran).
    pub fn hit_rate(&self) -> f64 {
        let fresh = self.cache_hits + self.cache_misses;
        if fresh == 0 {
            1.0
        } else {
            self.cache_hits as f64 / fresh as f64
        }
    }

    /// Number of ILP solves the campaign performed.
    pub fn solves(&self) -> u64 {
        self.cache_misses
    }

    /// One-line summary, e.g.
    /// `"100 instances: 98 fresh (92 cache hits, 6 solves), 2 resumed, 0 failed"`.
    pub fn summary(&self) -> String {
        format!(
            "{} instances: {} fresh ({} cache hits, {} solves), {} resumed, {} failed",
            self.requested,
            self.cache_hits + self.cache_misses,
            self.cache_hits,
            self.cache_misses,
            self.resumed,
            self.stats.failed,
        )
    }
}

/// Runs a cached, resumable mapping campaign over instances `0..count` of
/// `model`, reading and updating `db` in place (the caller persists it).
///
/// When `resume` is false the database's PPIN index is ignored (every
/// instance is re-measured) but its solve cache is still used — re-running
/// a campaign without `--resume` re-measures yet solves nothing already
/// solved.
///
/// # Errors
///
/// [`FleetError::InstanceOutOfRange`] if `count` exceeds the fleet's
/// population for `model`; [`FleetError::UnkeyedMap`] if a recovered map
/// carries no PPIN (a backend misconfiguration — see
/// [`FleetDb::insert`]). Per-instance mapping failures do *not* abort the
/// campaign; they are reported in the returned
/// [`CampaignReport::errors`].
pub fn run_campaign(
    runner: &FleetRunner,
    fleet: &CloudFleet,
    model: CpuModel,
    count: usize,
    resume: bool,
    mapper: &CoreMapper,
    db: &mut FleetDb,
) -> Result<CampaignReport, FleetError> {
    // Warm a fresh cache from the database's persisted solves.
    let cache = MapCache::new();
    for (&sig, solve) in db.solves() {
        cache.seed(sig, solve.clone());
    }
    run_campaign_cached(runner, fleet, model, count, resume, mapper, db, &cache)
}

/// [`run_campaign`] against a caller-owned [`MapCache`] — the daemon path,
/// where one long-lived cache outlives many campaigns and `stats` queries
/// can observe it between runs.
///
/// The deterministic hit/miss accounting treats a signature as a hit iff
/// it is in the *database's* solve table or belongs to a lower-indexed
/// instance of this campaign, so a cache warmer than the database (earlier
/// campaigns already drained into the same `db`) does not skew the
/// counters: callers must drain the cache into `db` between campaigns,
/// which this function does on completion.
///
/// # Errors
///
/// As [`run_campaign`].
#[allow(clippy::too_many_arguments)]
pub fn run_campaign_cached(
    runner: &FleetRunner,
    fleet: &CloudFleet,
    model: CpuModel,
    count: usize,
    resume: bool,
    mapper: &CoreMapper,
    db: &mut FleetDb,
    cache: &MapCache,
) -> Result<CampaignReport, FleetError> {
    let population = fleet.population(model);
    if count > population {
        return Err(FleetError::InstanceOutOfRange {
            model,
            index: count.saturating_sub(1),
            population,
        });
    }

    // Partition instances: resumed (PPIN already in the database) vs
    // fresh. Instance materialization is cheap (no machine boot).
    let mut fresh: Vec<usize> = Vec::with_capacity(count);
    let mut resumed: Vec<usize> = Vec::new();
    for idx in 0..count {
        let instance = fleet.instance(model, idx)?;
        if resume && db.contains(instance.ppin()) {
            resumed.push(idx);
        } else {
            fresh.push(idx);
        }
    }
    obs::add("fleet.resume.skipped", resumed.len() as u64);

    let initial_sigs: BTreeSet<ObservationSignature> = db.solves().keys().copied().collect();

    let outcome = runner.map_instances_cached(fleet, model, &fresh, mapper, cache, |instance| {
        instance.boot()
    });

    // Deterministic hit/miss accounting in instance order: instance i is a
    // hit iff its signature was in the initial database or belongs to a
    // lower-indexed fresh instance. (Which racing worker leads a solve
    // depends on scheduling; these totals do not, and single-flight makes
    // the miss count equal the real solve count.)
    let mut seen = initial_sigs;
    let (mut hits, mut misses) = (0u64, 0u64);
    for (_, result) in outcome.iter() {
        if let Ok(mapped) = result {
            match mapped.signature {
                Some(sig) => {
                    if seen.insert(sig) {
                        misses += 1;
                    } else {
                        hits += 1;
                    }
                }
                // Hypothesis-selection runs bypass the cache and always
                // solve.
                None => misses += 1,
            }
        }
    }
    obs::add("fleet.cache.hits", hits);
    obs::add("fleet.cache.misses", misses);

    // Fold statistics in instance order, interleaving resumed maps (from
    // the database) with fresh ones, then persist the fresh results.
    let mut stats = SurveyStats::default();
    let mut errors: Vec<(usize, String)> = Vec::new();
    let mut fresh_iter = outcome.iter().peekable();
    let mut resumed_iter = resumed.iter().peekable();
    for idx in 0..count {
        if resumed_iter.peek() == Some(&&idx) {
            resumed_iter.next();
            let instance = fleet.instance(model, idx)?;
            if let Some(map) = db.get(instance.ppin()) {
                stats.record(&instance, &map);
            }
        } else if let Some((instance, result)) = fresh_iter.next() {
            debug_assert_eq!(instance.index(), idx);
            match result {
                Ok(mapped) => {
                    stats.record(instance, &mapped.map);
                    db.insert(mapped.map.clone())?;
                }
                Err(e) => {
                    stats.record_failure();
                    errors.push((idx, e.to_string()));
                }
            }
        }
    }
    for (sig, solve) in cache.snapshot() {
        db.record_solve(sig, solve);
    }

    Ok(CampaignReport {
        model,
        requested: count,
        resumed: resumed.len(),
        cache_hits: hits,
        cache_misses: misses,
        stats,
        errors,
    })
}
