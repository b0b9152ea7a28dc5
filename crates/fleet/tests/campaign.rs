//! End-to-end tests of the cached, resumable campaign layer: cache hit
//! rates, resume-skips-everything, database byte-stability and metric
//! determinism across worker counts.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::sync::Arc;

use coremap_core::CoreMapper;
use coremap_fleet::{run_campaign, CloudFleet, CpuModel, FleetDb, FleetError, FleetRunner};
use coremap_obs as obs;

fn campaign(
    workers: usize,
    fleet: &CloudFleet,
    count: usize,
    resume: bool,
    db: &mut FleetDb,
) -> coremap_fleet::CampaignReport {
    run_campaign(
        &FleetRunner::new(workers),
        fleet,
        CpuModel::Gold6354,
        count,
        resume,
        &CoreMapper::new(),
        db,
    )
    .expect("campaign runs")
}

#[test]
fn cold_campaign_solves_once_per_unique_pattern() {
    let fleet = CloudFleet::with_seed(2022);
    let mut db = FleetDb::new();
    let report = campaign(2, &fleet, 10, false, &mut db);
    // Gold 6354: 6 unique patterns over 10 instances (paper Sec. III-B).
    assert_eq!(report.cache_misses, 6, "one solve per unique layout");
    assert_eq!(report.cache_hits, 4);
    assert_eq!(report.resumed, 0);
    assert_eq!(report.stats.mapped, 10);
    // Seed 2022 reproduces a paper Sec. II-D failure mode on one sparse
    // Ice Lake layout (pattern 2, two instances): the placement explains
    // every observation but differs relatively from ground truth — with
    // or without caching. The cache must not change the count.
    assert_eq!(report.stats.verified, 8);
    assert_eq!(db.len(), 10);
    assert_eq!(db.pattern_count(), 6);
    assert_eq!(db.solve_count(), 6);
}

#[test]
fn resumed_rerun_performs_zero_solves() {
    let fleet = CloudFleet::with_seed(2022);
    let mut db = FleetDb::new();
    campaign(2, &fleet, 10, false, &mut db);
    let rerun = campaign(2, &fleet, 10, true, &mut db);
    assert_eq!(rerun.resumed, 10, "every PPIN already indexed");
    assert_eq!(rerun.solves(), 0);
    assert_eq!(rerun.cache_hits, 0, "nothing fresh ran at all");
    assert_eq!(rerun.stats.mapped, 10, "resumed maps still surveyed");
    assert_eq!(rerun.stats.verified, 8, "same verdicts as the cold run");
    // Without --resume the instances re-measure but the warm cache still
    // absorbs every solve.
    let warm = campaign(2, &fleet, 10, false, &mut db);
    assert_eq!(warm.resumed, 0);
    assert_eq!(warm.solves(), 0);
    assert_eq!(warm.cache_hits, 10);
}

#[test]
fn partial_campaign_resumes_only_the_remainder() {
    let fleet = CloudFleet::with_seed(2022);
    let mut db = FleetDb::new();
    campaign(1, &fleet, 4, false, &mut db);
    assert_eq!(db.len(), 4);
    let rest = campaign(2, &fleet, 10, true, &mut db);
    assert_eq!(rest.resumed, 4);
    assert_eq!(rest.cache_hits + rest.cache_misses, 6);
    assert_eq!(db.len(), 10);
}

#[test]
fn database_round_trips_byte_identically_through_a_campaign() {
    let fleet = CloudFleet::with_seed(2022);
    let mut db = FleetDb::new();
    campaign(2, &fleet, 10, false, &mut db);
    let mut first = Vec::new();
    db.save(&mut first).unwrap();
    let reloaded = FleetDb::load(first.as_slice()).unwrap();
    assert_eq!(db, reloaded);
    // A resumed no-op campaign must not perturb the database bytes.
    let mut db2 = reloaded;
    campaign(3, &fleet, 10, true, &mut db2);
    let mut second = Vec::new();
    db2.save(&mut second).unwrap();
    assert_eq!(first, second);
}

#[test]
fn campaign_metrics_are_identical_across_worker_counts() {
    let export = |workers: usize| {
        let fleet = CloudFleet::with_seed(2022);
        let reg = Arc::new(obs::Registry::new());
        let guard = obs::install(reg.clone());
        let mut db = FleetDb::new();
        campaign(workers, &fleet, 10, false, &mut db);
        campaign(workers, &fleet, 10, true, &mut db);
        drop(guard);
        reg.to_json(false)
    };
    // Which worker claims which instance depends on scheduling at every
    // count above one; deterministic metrics must not notice.
    let reference = export(1);
    assert_eq!(reference, export(3));
    assert_eq!(reference, export(4));
    assert_eq!(reference, export(8));
}

#[test]
fn scaled_fleet_reaches_paper_hit_rates() {
    // 40 instances of a 10-pattern-cycle SKU: the big-fleet acceptance
    // shape (hit rate >= 90%) at test-suite scale.
    let fleet = CloudFleet::with_seed(2022).with_population(40);
    let mut db = FleetDb::new();
    let report = campaign(2, &fleet, 40, false, &mut db);
    assert_eq!(report.cache_misses, 6);
    assert_eq!(report.cache_hits, 34);
    assert!(report.hit_rate() >= 0.85, "hit rate {}", report.hit_rate());
    assert_eq!(db.len(), 40);
    assert_eq!(db.pattern_count(), 6);
}

#[test]
fn oversized_count_is_a_typed_error() {
    let fleet = CloudFleet::with_seed(2022);
    let mut db = FleetDb::new();
    let err = run_campaign(
        &FleetRunner::sequential(),
        &fleet,
        CpuModel::Gold6354,
        11,
        false,
        &CoreMapper::new(),
        &mut db,
    )
    .unwrap_err();
    assert!(matches!(err, FleetError::InstanceOutOfRange { .. }));
}
