//! Slice eviction set construction (paper Sec. II-A).
//!
//! A *slice eviction set* is a group of cache lines that (a) map to the same
//! L2 set and (b) are homed by the same LLC slice. Accessing more lines than
//! the L2 associativity forces targeted evictions toward that one slice.
//!
//! The undisclosed slice hash is probed exactly as the paper describes: two
//! worker threads pinned to different cores hammer the same line; the CHA
//! whose `LLC_LOOKUP` count spikes is the line's home. Lines are then
//! bucketed by `(L2 set, home slice)` until every slice owns a full set.

use std::collections::HashMap;

use coremap_mesh::{ChaId, OsCoreId};
use coremap_obs as obs;
use coremap_uncore::PhysAddr;
use rand::Rng;

use crate::harden::Harden;
use crate::monitor;
use crate::{MachineBackend, MapError};

/// A slice eviction set: `ways + 1` lines sharing one L2 set, all homed at
/// [`cha`](Self::cha).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SliceEvictionSet {
    /// The LLC slice (CHA) this set targets.
    pub cha: ChaId,
    /// The L2 set index the lines share.
    pub l2_set: usize,
    /// The member lines (`ways + 1` of them).
    pub lines: Vec<PhysAddr>,
}

/// Determines the home slice of `pa` by paired-writer contention: the two
/// probe cores alternately write the line while `LLC_LOOKUP` is counted at
/// every CHA; the argmax is the home (paper Sec. II-A). MSR accesses are
/// retried and the `LLC_LOOKUP` readouts taken median-of-k under `harden`,
/// so a dropped counter read cannot silently corrupt the argmax.
///
/// # Errors
///
/// Propagates MSR failures once the policy's retries are exhausted.
///
/// # Panics
///
/// Panics if the machine has fewer than two cores.
pub fn probe_home_with<T: MachineBackend>(
    machine: &mut T,
    pa: PhysAddr,
    iters: usize,
    harden: &mut Harden,
) -> Result<ChaId, MapError> {
    let cores = machine.os_cores();
    assert!(cores.len() >= 2, "need two cores for contention probing");
    let (a, b) = (cores[0], cores[1]);
    harden.msr(|| monitor::arm_llc_lookup(machine))?;
    harden.msr(|| monitor::reset_all(machine))?;
    for _ in 0..iters {
        machine.write_line(a, pa);
        machine.write_line(b, pa);
    }
    let mut best = (0u64, 0usize);
    for cha in 0..machine.cha_count() {
        let count = harden.counter(|| monitor::read_llc_lookup(machine, cha))?;
        if count > best.0 {
            best = (count, cha);
        }
    }
    Ok(ChaId::new(best.1 as u16))
}

/// Collects a slice eviction set for every active CHA.
///
/// Random lines are sampled from the machine's physical address space, their
/// homes probed, and buckets `(home, L2 set)` filled until each CHA owns a
/// bucket with `ways + 1` lines. Each home probe runs as one `harden`
/// stage, so a faulted probe is re-run in isolation instead of aborting the
/// whole construction.
///
/// # Errors
///
/// [`MapError::EvictionSetBudget`] if the sampling budget is exhausted
/// before every slice has a full set; MSR errors propagate.
#[allow(clippy::expect_used)]
pub fn build_all_sets_with<T: MachineBackend, R: Rng>(
    machine: &mut T,
    rng: &mut R,
    probe_iters: usize,
    harden: &mut Harden,
) -> Result<Vec<SliceEvictionSet>, MapError> {
    let (sets, ways) = machine.l2_geometry();
    let need = ways + 1;
    let n_cha = machine.cha_count();
    let space = machine.address_space();

    // All candidate lines are drawn from one fixed L2 set: the eviction-set
    // definition requires same-set lines anyway, so pre-filtering by set
    // bits makes every probed line a useful sample.
    let target_set = rng.gen_range(0..sets);
    let set_groups = (space >> 6) / sets as u64;

    // cha -> lines collected so far (all share `target_set`).
    let mut buckets: HashMap<usize, Vec<PhysAddr>> = HashMap::new();
    let mut done: Vec<Option<SliceEvictionSet>> = vec![None; n_cha];
    let mut remaining = n_cha;
    // Coupon-collector expectation is about `need * n_cha` samples; factor
    // 40 leaves a wide margin for hash skew and noise.
    let budget = need * n_cha * 40;

    for _ in 0..budget {
        if remaining == 0 {
            break;
        }
        let group = rng.gen_range(0..set_groups);
        let line_idx = group * sets as u64 + target_set as u64;
        let pa = PhysAddr::new(line_idx << 6);
        obs::inc("core.eviction.samples");
        let home = harden.stage(|h| probe_home_with(machine, pa, probe_iters, h))?;
        if done[home.index()].is_some() {
            obs::inc("core.eviction.redundant");
            continue;
        }
        let bucket = buckets.entry(home.index()).or_default();
        if bucket.contains(&pa) {
            obs::inc("core.eviction.redundant");
            continue;
        }
        bucket.push(pa);
        if bucket.len() == need {
            done[home.index()] = Some(SliceEvictionSet {
                cha: home,
                l2_set: target_set,
                lines: bucket.clone(),
            });
            obs::inc("core.eviction.sets_built");
            remaining -= 1;
        }
    }

    if remaining > 0 {
        // Report *every* incomplete slice with its collected-line count;
        // fault-rate triage needs the full shape of the failure, not just
        // the first victim.
        let incomplete: Vec<(usize, usize)> = done
            .iter()
            .enumerate()
            .filter(|(_, s)| s.is_none())
            .map(|(c, _)| (c, buckets.get(&c).map_or(0, Vec::len)))
            .collect();
        return Err(MapError::EvictionSetBudget { need, incomplete });
    }

    // audit: allow(panic-safety): infallible — the `remaining > 0` guard above already returned EvictionSetBudget if any slot stayed None
    Ok(done.into_iter().map(|s| s.expect("all complete")).collect())
}

/// Thrashes an eviction set from `core`: repeatedly dirty-writes all member
/// lines, forcing evictions (and refills) between the core's L2 and the
/// target slice.
pub fn thrash<T: MachineBackend>(
    machine: &mut T,
    core: OsCoreId,
    set: &SliceEvictionSet,
    rounds: usize,
) {
    for _ in 0..rounds {
        for &pa in &set.lines {
            machine.write_line(core, pa);
        }
    }
}

/// Streams clean reads of the set's lines from `core`: every access misses
/// once the set overflows the L2, pulling data from the target slice to the
/// core without generating writeback traffic — a *directed* slice-to-core
/// transfer stream usable with LLC-only tiles as sources.
pub fn stream_reads<T: MachineBackend>(
    machine: &mut T,
    core: OsCoreId,
    set: &SliceEvictionSet,
    rounds: usize,
) {
    for _ in 0..rounds {
        for &pa in &set.lines {
            machine.read_line(core, pa);
        }
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;
    use coremap_mesh::{DieTemplate, FloorplanBuilder};
    use coremap_uncore::{MachineConfig, XeonMachine};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn machine() -> XeonMachine {
        let plan = FloorplanBuilder::new(DieTemplate::SkylakeXcc)
            .build()
            .unwrap();
        XeonMachine::new(plan, MachineConfig::default())
    }

    #[test]
    fn probe_home_matches_ground_truth() {
        let mut m = machine();
        for i in [0u64, 7, 100, 9999] {
            let pa = PhysAddr::new(i * 64);
            let probed = probe_home_with(&mut m, pa, 8, &mut Harden::default()).unwrap();
            assert_eq!(probed, m.home_of(pa), "line {i}");
        }
    }

    #[test]
    fn eviction_sets_cover_every_slice() {
        let mut m = machine();
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let sets = build_all_sets_with(&mut m, &mut rng, 4, &mut Harden::default()).unwrap();
        assert_eq!(sets.len(), m.cha_count());
        let (l2_sets, ways) = m.l2_geometry();
        for s in &sets {
            assert_eq!(s.lines.len(), ways + 1);
            for &pa in &s.lines {
                assert_eq!(m.home_of(pa), s.cha, "line homed elsewhere");
                assert_eq!((pa.line().value() as usize) & (l2_sets - 1), s.l2_set);
            }
        }
    }

    #[test]
    fn budget_error_reports_every_incomplete_slice() {
        use crate::backend::{FaultPlan, FaultyBackend};
        // Every counter read dropped to 0: the argmax degenerates to CHA0,
        // so only CHA0's bucket ever fills and the budget exhausts with all
        // other slices empty. The error must list each of them.
        let plan = FaultPlan::none(1).with_counter_drop_prob(1.0);
        let mut m = FaultyBackend::new(machine(), plan);
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let err = build_all_sets_with(&mut m, &mut rng, 4, &mut Harden::default()).unwrap_err();
        match &err {
            MapError::EvictionSetBudget { need, incomplete } => {
                assert_eq!(incomplete.len(), m.cha_count() - 1);
                assert!(incomplete.iter().all(|&(_, have)| have < *need));
                let rendered = format!("{err}");
                assert!(rendered.contains("27 slice(s)"), "{rendered}");
                assert!(rendered.contains("CHA1 0/"), "{rendered}");
                assert!(rendered.contains("CHA27 0/"), "{rendered}");
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn probe_survives_noise() {
        let plan = FloorplanBuilder::new(DieTemplate::SkylakeXcc)
            .build()
            .unwrap();
        let mut m = XeonMachine::new(
            plan,
            MachineConfig {
                noise: coremap_uncore::NoiseModel::light(),
                ..MachineConfig::default()
            },
        );
        // With 16 contention iterations the home's 32 lookups dominate the
        // ~1.6 stray lookups light noise adds.
        for i in [3u64, 42] {
            let pa = PhysAddr::new(i * 64);
            let probed = probe_home_with(&mut m, pa, 16, &mut Harden::default()).unwrap();
            assert_eq!(probed, m.home_of(pa));
        }
    }
}
