//! Integration: fleet populations reproduce the paper's Table I structure
//! when measured through the pipeline.

// Test/bench harness: unwraps abort the harness, which is the desired failure mode.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use core_map::core::{cha_map, eviction, Harden};
use core_map::fleet::{CloudFleet, CpuModel};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Measured OS-core -> CHA vector of one instance (pipeline step 1 only).
fn measure_id_mapping(instance: &core_map::fleet::CloudInstance) -> Vec<u16> {
    let mut machine = instance.boot();
    let mut rng = ChaCha8Rng::seed_from_u64(1);
    let sets = eviction::build_all_sets_with(&mut machine, &mut rng, 8, &mut Harden::default())
        .expect("sets");
    let mapping =
        cha_map::discover_with(&mut machine, &sets, 3, &mut Harden::default()).expect("mapping");
    mapping
        .core_to_cha
        .iter()
        .map(|c| c.index() as u16)
        .collect()
}

#[test]
fn skylake_models_share_one_stride4_mapping() {
    let fleet = CloudFleet::with_seed(11);
    let expected_8124m: Vec<u16> =
        vec![0, 4, 8, 12, 16, 2, 6, 10, 14, 1, 5, 9, 13, 17, 3, 7, 11, 15];
    for idx in [0usize, 7, 42] {
        let inst = fleet.instance(CpuModel::Platinum8124M, idx).expect("inst");
        assert_eq!(measure_id_mapping(&inst), expected_8124m, "instance {idx}");
    }
}

#[test]
fn cl8259_mapping_depends_on_llc_only_case() {
    let fleet = CloudFleet::with_seed(11);
    // Table I's most common case (LLC-only CHAs 3 and 25).
    let case_a: Vec<u16> = vec![
        0, 4, 8, 12, 16, 20, 24, 2, 6, 10, 14, 18, 22, 1, 5, 9, 13, 17, 21, 7, 11, 15, 19, 23,
    ];
    // Find an instance with pattern in the (3,25) range and one outside.
    let mut seen_a = false;
    let mut seen_other = false;
    for idx in 0..20 {
        let inst = fleet.instance(CpuModel::Platinum8259CL, idx).expect("inst");
        let llc = core_map::fleet::sampler::llc_case_8259cl(inst.pattern()).expect("valid pattern");
        let measured = measure_id_mapping(&inst);
        if llc == (3, 25) {
            assert_eq!(measured, case_a, "case A instance {idx}");
            seen_a = true;
        } else {
            assert_ne!(measured, case_a, "other-case instance {idx}");
            seen_other = true;
        }
        if seen_a && seen_other {
            break;
        }
    }
    assert!(seen_a && seen_other, "both Table I cases sampled");
}

#[test]
fn same_pattern_instances_have_identical_layouts() {
    let fleet = CloudFleet::with_seed(11);
    let instances: Vec<_> = (0..30)
        .map(|i| fleet.instance(CpuModel::Platinum8175M, i).expect("inst"))
        .collect();
    for a in &instances {
        for b in &instances {
            let same_pattern = a.pattern() == b.pattern();
            let same_layout = a.floorplan() == b.floorplan();
            assert_eq!(same_pattern, same_layout);
        }
    }
}

#[test]
fn pattern_distribution_matches_allocation_table() {
    let fleet = CloudFleet::with_seed(23);
    let counts = core_map::fleet::sampler::pattern_counts(CpuModel::Platinum8124M);
    let mut histogram = vec![0usize; counts.len()];
    for inst in fleet.instances(CpuModel::Platinum8124M) {
        histogram[inst.pattern()] += 1;
    }
    assert_eq!(histogram, counts);
}
