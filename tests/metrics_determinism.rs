//! Deterministic metrics: the observability contract of the pipeline.
//!
//! The `--metrics` export exists so that campaign behaviour can be diffed
//! across code changes. That only works if the deterministic snapshot is
//! *byte-identical* for identical inputs — across repeated runs of the
//! same process, across worker counts, and between a live run and its
//! trace replay. Wall-clock and scheduling artefacts are flagged volatile
//! and must never leak into the deterministic export.

// Test/bench harness: unwraps abort the harness, which is the desired failure mode.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::sync::Arc;

use core_map::core::backend::{FaultPlan, FaultyBackend, RecordingBackend, ReplayBackend};
use core_map::core::CoreMapper;
use core_map::fleet::{CloudFleet, CloudInstance, CpuModel, FleetRunner};
use core_map::mesh::{DieTemplate, FloorplanBuilder};
use core_map::obs;
use core_map::uncore::{MachineConfig, XeonMachine};

/// Runs a small fixed-seed mapping campaign under a fresh registry and
/// returns the deterministic JSON snapshot.
fn campaign_snapshot(workers: usize) -> String {
    let reg = Arc::new(obs::Registry::new());
    {
        let _guard = obs::install(reg.clone());
        let fleet = CloudFleet::with_seed(11);
        let outcome = FleetRunner::new(workers).map_instances(
            &fleet,
            CpuModel::Platinum8259CL,
            2,
            &CoreMapper::new(),
            CloudInstance::boot,
        );
        assert_eq!(outcome.failure_count(), 0, "campaign must map cleanly");
    }
    reg.to_json(false)
}

#[test]
fn snapshot_is_identical_across_runs_and_worker_counts() {
    let serial = campaign_snapshot(1);
    let parallel = campaign_snapshot(4);
    let parallel_again = campaign_snapshot(4);
    assert_eq!(
        parallel, parallel_again,
        "same-config reruns must export byte-identical metrics"
    );
    assert_eq!(
        serial, parallel,
        "worker count must not leak into the deterministic snapshot"
    );
    assert!(serial.contains("\"schema\": \"coremap-metrics/v1\""));
    // Spot-check that the snapshot actually covers every pipeline layer.
    for key in [
        "uncore.msr.reads",
        "core.eviction.samples",
        "core.cha_map.tests",
        "ilp.simplex.pivots",
        "fleet.instances.ok\": 2",
    ] {
        assert!(serial.contains(key), "missing {key} in:\n{serial}");
    }
}

#[test]
fn volatile_timings_stay_out_of_the_deterministic_export() {
    let reg = Arc::new(obs::Registry::new());
    {
        let _guard = obs::install(reg.clone());
        let fleet = CloudFleet::with_seed(11);
        FleetRunner::new(2).map_instances(
            &fleet,
            CpuModel::Platinum8259CL,
            1,
            &CoreMapper::new(),
            CloudInstance::boot,
        );
    }
    let deterministic = reg.to_json(false);
    let full = reg.to_json(true);
    assert!(!deterministic.contains(".us\""), "{deterministic}");
    assert!(!deterministic.contains("wall_us"), "{deterministic}");
    assert!(full.contains("core.map.stage.eviction.us"), "{full}");
    assert!(full.contains("fleet.instance.0000.wall_us"), "{full}");
}

#[test]
fn replayed_campaign_reproduces_the_recorded_counters() {
    let fleet = CloudFleet::with_seed(11);
    let instance = fleet
        .instance(CpuModel::Platinum8259CL, 0)
        .expect("instance");

    let recorded_reg = Arc::new(obs::Registry::new());
    let trace = {
        let _guard = obs::install(recorded_reg.clone());
        let mut recorder = RecordingBackend::new(instance.boot());
        CoreMapper::new().map(&mut recorder).expect("recorded map");
        recorder.into_parts().1
    };

    let replay_reg = Arc::new(obs::Registry::new());
    {
        let _guard = obs::install(replay_reg.clone());
        let mut replay = ReplayBackend::new(trace);
        CoreMapper::new().map(&mut replay).expect("replayed map");
    }

    // The replay drives the identical pipeline off the trace, so every
    // algorithmic counter above the backend layer must match exactly.
    for key in [
        "core.eviction.samples",
        "core.eviction.sets_built",
        "core.cha_map.tests",
        "core.traffic.core_pair_obs",
        "ilp.simplex.pivots",
        "ilp.bb.nodes",
        "ilp.presolve.tightenings",
    ] {
        assert_eq!(
            recorded_reg.counter_value(key),
            replay_reg.counter_value(key),
            "counter {key} diverged between record and replay"
        );
    }
    assert_eq!(replay_reg.counter_value("core.replay.divergences"), 0);
}

/// Maps one `CloudFleet::with_seed(2022)` chip through the default mapper
/// and returns its deterministic metric snapshot.
fn fleet_chip_metrics(model: CpuModel, index: usize) -> Arc<obs::Registry> {
    let reg = Arc::new(obs::Registry::new());
    {
        let _guard = obs::install(reg.clone());
        let instance = CloudFleet::with_seed(2022)
            .instance(model, index)
            .expect("instance");
        let mut machine = instance.boot();
        CoreMapper::new().map(&mut machine).expect("map");
    }
    reg
}

#[test]
fn serial_cold_solver_work_is_pinned_per_chip() {
    // One serial branch & bound with a cold revised-simplex solve per node:
    // node, pivot and refactorization counts are exact functions of the
    // observations, and the export carries no warm-start counter.
    let expected = [
        (CpuModel::Platinum8124M, 0, (5, 255, 7)),
        (CpuModel::Platinum8175M, 1, (2, 170, 4)),
        (CpuModel::Platinum8259CL, 0, (1, 0, 1)),
        (CpuModel::Gold6354, 0, (2, 788, 13)),
    ];
    for (model, index, want) in expected {
        let reg = fleet_chip_metrics(model, index);
        let got = (
            reg.counter_value("ilp.bb.nodes"),
            reg.counter_value("ilp.simplex.pivots"),
            reg.counter_value("ilp.simplex.refactorizations"),
        );
        assert_eq!(
            got, want,
            "{model} #{index}: (nodes, pivots, refactorizations)"
        );
        assert!(
            !reg.to_json(false).contains("ilp.bb.warm_start_hits"),
            "{model} #{index} exports a warm-start counter"
        );
    }
}

/// Solves a presolve-heavy reconstruction — the literal per-tile/per-path
/// formulation on an irregular floorplan — and returns the deterministic
/// snapshot. The full formulation funnels every observation through
/// `merge_equalities`, so this exercises the presolve union-find, bound
/// merging and constraint dedup far harder than the class-merged path.
fn presolve_heavy_snapshot() -> String {
    use core_map::core::ilp_model;
    use core_map::mesh::TileCoord;

    let reg = Arc::new(obs::Registry::new());
    {
        let _guard = obs::install(reg.clone());
        // A dense 3x2 block of active tiles: small enough for the literal
        // per-path formulation (exponential on full dies), dense enough
        // that presolve merges a non-trivial equality web.
        let template = DieTemplate::SkylakeXcc;
        let keep: Vec<TileCoord> = (2..5)
            .flat_map(|r| (0..2).map(move |c| TileCoord::new(r, c)))
            .collect();
        let disable = template
            .core_capable_positions()
            .iter()
            .copied()
            .filter(|p| !keep.contains(p));
        let plan = FloorplanBuilder::new(template)
            .disable_all(disable)
            .build()
            .expect("floorplan");
        let observations = core_map::core::ObservationSet::synthetic(&plan);
        let rec = ilp_model::reconstruct_full(&observations, plan.dim()).expect("solve");
        assert!(!rec.positions.is_empty());
    }
    reg.to_json(false)
}

#[test]
fn presolve_heavy_model_exports_identical_snapshots() {
    // Regression guard for the presolve/ilp-model BTree ordering work: a
    // HashMap iteration anywhere in variable merging, constraint dedup or
    // objective accumulation shows up here as a diff in pivot/tightening
    // counters between two identical solves.
    let first = presolve_heavy_snapshot();
    let second = presolve_heavy_snapshot();
    assert_eq!(
        first, second,
        "presolve-heavy solve must export byte-identical metrics"
    );
    assert!(
        first.contains("ilp.presolve.tightenings"),
        "presolve did not run:\n{first}"
    );
    assert!(first.contains("ilp.simplex.pivots"), "{first}");
}

/// Runs a hardened mapping campaign against a seeded fault injector under
/// a fresh registry and returns the deterministic snapshot.
fn hardened_faulty_snapshot() -> String {
    let reg = Arc::new(obs::Registry::new());
    {
        let _guard = obs::install(reg.clone());
        let plan = FloorplanBuilder::new(DieTemplate::SkylakeXcc)
            .build()
            .expect("floorplan");
        let machine = XeonMachine::new(plan, MachineConfig::default());
        let faults = FaultPlan::none(2022)
            .with_msr_fail_prob(1e-4)
            .with_counter_drop_prob(1e-3)
            .with_counter_jitter(2);
        let mut faulty = FaultyBackend::new(machine, faults);
        CoreMapper::hardened()
            .map(&mut faulty)
            .expect("hardened campaign survives the reference fault plan");
    }
    reg.to_json(false)
}

#[test]
fn hardened_faulty_campaign_exports_deterministic_recovery_counters() {
    let first = hardened_faulty_snapshot();
    let second = hardened_faulty_snapshot();
    // Retry backoff is drawn from the policy's seeded stream and counted
    // in steps rather than slept in wall-clock, so even a fault-riddled
    // campaign exports byte-identical recovery metrics.
    assert_eq!(
        first, second,
        "hardened faulty campaign must be deterministically instrumented"
    );
    for key in [
        "core.retry.attempts",
        "core.retry.backoff_steps",
        "core.harden.resamples",
    ] {
        assert!(first.contains(key), "missing {key} in:\n{first}");
    }
}
