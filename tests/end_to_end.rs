//! End-to-end integration: fleet instance -> machine -> full mapping
//! pipeline -> verification, across all four CPU models.

// Test/bench harness: unwraps abort the harness, which is the desired failure mode.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use core_map::core::{verify, CoreMapper, MapperConfig};
use core_map::fleet::{CloudFleet, CpuModel, FleetDb};
use core_map::mesh::OsCoreId;

#[test]
fn maps_every_model_accurately() {
    let fleet = CloudFleet::with_seed(2022);
    for model in CpuModel::ALL {
        let instance = fleet.instance(model, 0).expect("instance 0");
        let mut machine = instance.boot();
        let (map, diagnostics) = CoreMapper::new()
            .map_with_diagnostics(&mut machine)
            .expect("pipeline succeeds");

        assert_eq!(map.core_count(), model.core_count(), "{model}");
        assert_eq!(map.cha_count(), model.cha_count(), "{model}");
        assert_eq!(map.ppin(), Some(instance.ppin()), "{model}");

        let truth = instance.floorplan();
        // The recovered OS-core<->CHA mapping and LLC-only set are exact.
        assert_eq!(map.core_to_cha(), truth.core_to_cha(), "{model}");
        assert_eq!(map.llc_only(), truth.llc_only_chas(), "{model}");
        // Placement: the recovered map must explain every measured
        // observation (the exact guarantee the ILP gives), and sparse dies
        // may additionally contain tiles whose position is physically
        // unobservable (Sec. II-D), so pairwise accuracy is checked
        // against a high-but-not-perfect bar.
        let positions: Vec<_> = truth.chas().map(|c| map.coord_of_cha(c)).collect();
        assert!(
            verify::observations_consistent(&positions, &diagnostics.observations, map.dim()),
            "{model}: map does not explain its own observations"
        );
        let acc = verify::pairwise_accuracy(&positions, truth);
        assert!(acc > 0.9, "{model}: pairwise accuracy {acc}");
    }
}

#[test]
fn subsampled_observations_are_still_explained() {
    // With sparse observations, in-between column classes seen on
    // different paths may share a physical column. The solver used to
    // count every one of them in the horizontal span bound, which cut off
    // the ground truth and declared these sets infeasible.
    let fleet = CloudFleet::with_seed(2022);
    let instance = fleet
        .instance(CpuModel::Platinum8175M, 0)
        .expect("instance 0");
    let truth = instance.floorplan();
    let truth_positions: Vec<_> = truth.chas().map(|c| truth.coord_of_cha(c)).collect();
    for stride in [16, 32] {
        let cfg = MapperConfig {
            pair_stride: stride,
            ..MapperConfig::default()
        };
        let mut machine = instance.boot();
        let (map, diagnostics) = CoreMapper::with_config(cfg)
            .map_with_diagnostics(&mut machine)
            .unwrap_or_else(|e| panic!("stride {stride}: {e}"));
        let observations = &diagnostics.observations;
        assert!(
            verify::observations_consistent(&truth_positions, observations, truth.dim()),
            "stride {stride}: the ground truth explains every observed path"
        );
        let positions: Vec<_> = truth.chas().map(|c| map.coord_of_cha(c)).collect();
        assert!(
            verify::observations_consistent(&positions, observations, map.dim()),
            "stride {stride}: map does not explain its own observations"
        );
    }
}

#[test]
fn dense_skx_instance_matches_exactly() {
    // The full-die case has no hidden tiles, so recovery is exact (up to
    // the documented mirror).
    let plan = core_map::mesh::FloorplanBuilder::new(core_map::mesh::DieTemplate::SkylakeXcc)
        .build()
        .expect("full die");
    let truth = plan.clone();
    let mut machine =
        core_map::uncore::XeonMachine::new(plan, core_map::uncore::MachineConfig::default());
    let map = CoreMapper::new()
        .map(&mut machine)
        .expect("pipeline succeeds");
    assert!(verify::matches_exactly(&map, &truth));
}

#[test]
fn fleet_db_round_trips_recovered_maps() {
    let fleet = CloudFleet::with_seed(5);
    let mut db = FleetDb::new();
    let mut mapped = Vec::new();
    for idx in 0..2 {
        let instance = fleet
            .instance(CpuModel::Platinum8124M, idx)
            .expect("instance");
        let mut machine = instance.boot();
        let map = CoreMapper::new().map(&mut machine).expect("maps");
        assert_eq!(map.ppin(), Some(instance.ppin()));
        db.insert(map.clone()).expect("map carries a PPIN");
        mapped.push(map);
    }
    let mut json = Vec::new();
    db.save(&mut json).expect("serializes");
    let loaded = FleetDb::load(json.as_slice()).expect("deserializes");
    assert_eq!(loaded.len(), 2);
    for map in mapped {
        let ppin = map.ppin().expect("keyed map");
        assert_eq!(loaded.get(ppin), Some(map), "{ppin}");
    }
}

#[test]
fn recovered_map_supports_attack_planning() {
    let fleet = CloudFleet::with_seed(2022);
    let instance = fleet
        .instance(CpuModel::Platinum8175M, 0)
        .expect("instance");
    let mut machine = instance.boot();
    let map = CoreMapper::new().map(&mut machine).expect("maps");

    // Neighbour queries must agree with ground truth adjacency for every
    // core (this is what the thermal attack consumes).
    let truth = instance.floorplan();
    for core in (0..map.core_count() as u16).map(OsCoreId::new) {
        let recovered: usize = map.neighbor_cores(core).len();
        let tc = truth.coord_of_core(core);
        let actual = truth
            .cores()
            .filter(|&c| c != core && truth.coord_of_core(c).hop_distance(tc) == 1)
            .count();
        assert_eq!(recovered, actual, "cpu{} neighbour count", core.index());
    }
}

#[test]
fn unprivileged_tenant_cannot_map() {
    let fleet = CloudFleet::with_seed(2022);
    let instance = fleet
        .instance(CpuModel::Platinum8124M, 1)
        .expect("instance");
    let mut machine = instance.boot();
    machine.set_privileged(false);
    let err = CoreMapper::new().map(&mut machine).unwrap_err();
    assert!(matches!(
        err,
        core_map::core::MapError::Msr(core_map::uncore::MsrError::PermissionDenied)
    ));
}
