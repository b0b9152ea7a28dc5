//! Step 1: OS core ID ↔ CHA ID mapping (paper Sec. II-A).
//!
//! For every `(core, slice)` combination, the core thrashes the slice's
//! eviction set while the ring-ingress counters run. A core and a slice on
//! the *same tile* exchange data without touching the mesh; every other
//! combination generates inter-tile traffic. The zero-traffic pairs are the
//! OS core ID ↔ CHA ID mapping. CHAs matched by no core are LLC-only tiles.

use coremap_mesh::{ChaId, OsCoreId};
use coremap_obs as obs;

use crate::eviction::{self, SliceEvictionSet};
use crate::harden::Harden;
use crate::monitor;
use crate::{MachineBackend, MapError};

/// Result of step 1.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChaMapping {
    /// `core_to_cha[os_core] = cha` for every enabled core.
    pub core_to_cha: Vec<ChaId>,
    /// CHAs not co-located with any core: LLC slices whose core is fused
    /// off (paper Sec. III-A observed these on the 8259CL).
    pub llc_only: Vec<ChaId>,
}

impl ChaMapping {
    /// The CHA co-located with `core`.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn cha_of(&self, core: OsCoreId) -> ChaId {
        self.core_to_cha[core.index()]
    }

    /// The core co-located with `cha`, if the tile has an enabled core.
    pub fn core_of(&self, cha: ChaId) -> Option<OsCoreId> {
        self.core_to_cha
            .iter()
            .position(|&c| c == cha)
            .map(|i| OsCoreId::new(i as u16))
    }
}

/// Measures the total mesh traffic generated by `core` thrashing `set`,
/// with MSR retry and median-of-k counter readouts from the hardening
/// policy (counters are frozen during readout, so re-reads are stable).
fn thrash_traffic<T: MachineBackend>(
    machine: &mut T,
    core: OsCoreId,
    set: &SliceEvictionSet,
    rounds: usize,
    harden: &mut Harden,
) -> Result<u64, MapError> {
    machine.flush_caches();
    harden.msr(|| monitor::arm_ring(machine))?;
    harden.msr(|| monitor::reset_all(machine))?;
    eviction::thrash(machine, core, set, rounds);
    harden.msr(|| monitor::freeze_all(machine))?;
    let mut total = 0;
    for cha in 0..machine.cha_count() {
        total += monitor::read_ring_with(machine, cha, harden)?.ring_total();
    }
    Ok(total)
}

/// Tests every slice against one core and returns `(min, runner_up, cha)`.
fn measure_core_row<T: MachineBackend>(
    machine: &mut T,
    core: OsCoreId,
    sets: &[SliceEvictionSet],
    rounds: usize,
    harden: &mut Harden,
) -> Result<(u64, u64, ChaId), MapError> {
    let mut best: Option<(u64, ChaId)> = None;
    let mut second: u64 = u64::MAX;
    for set in sets {
        obs::inc("core.cha_map.tests");
        let traffic = thrash_traffic(machine, core, set, rounds, harden)?;
        match best {
            None => best = Some((traffic, set.cha)),
            Some((b, _)) if traffic < b => {
                second = b;
                best = Some((traffic, set.cha));
            }
            Some(_) => second = second.min(traffic),
        }
    }
    let (min_traffic, cha) = best.ok_or(MapError::NoSlices)?;
    Ok((min_traffic, second, cha))
}

/// Recovers the OS core ID ↔ CHA ID mapping by testing all combinations of
/// a core and an LLC slice.
///
/// For robustness against background noise the method does not threshold at
/// zero: for each core, the slice with the *minimum* traffic is selected,
/// and it must win by a wide margin over the runner-up. Each core's full
/// row of `(core, slice)` tests runs as one `harden` stage, so a noisy row
/// is re-measured in isolation instead of aborting step 1 (or restarting
/// it).
///
/// # Errors
///
/// [`MapError::AmbiguousChaMapping`] when no clear minimum exists (extreme
/// noise), [`MapError::DuplicateChaClaim`] when two cores claim the same
/// slice; MSR errors propagate.
pub fn discover_with<T: MachineBackend>(
    machine: &mut T,
    sets: &[SliceEvictionSet],
    rounds: usize,
    harden: &mut Harden,
) -> Result<ChaMapping, MapError> {
    let cores = machine.os_cores();
    let mut core_to_cha = Vec::with_capacity(cores.len());
    // Which core (scan order) claimed each CHA, for duplicate attribution.
    let mut claimed: Vec<Option<OsCoreId>> = vec![None; machine.cha_count()];

    // The co-located slice produces essentially no mesh traffic while any
    // cross-tile slice adds at least `rounds * lines` events on top of
    // whatever noise floor is common to all experiments; require the
    // winner to beat the runner-up by half that signal.
    let signal = (rounds * (machine.l2_geometry().1 + 1)) as u64;
    for &core in &cores {
        let cha = harden.stage(|h| {
            let (min_traffic, second, cha) = measure_core_row(machine, core, sets, rounds, h)?;
            let margin = second.saturating_sub(min_traffic);
            if margin < signal / 2 {
                return Err(MapError::AmbiguousChaMapping {
                    core: core.index(),
                    margin,
                    required: signal / 2,
                });
            }
            // A duplicate claim is a distinct failure from a thin margin:
            // the threshold held, but the one-core-per-tile invariant did
            // not. Name both involved cores — the fault may equally lie in
            // the earlier core's measurement.
            if let Some(prior) = claimed[cha.index()] {
                return Err(MapError::DuplicateChaClaim {
                    core: core.index(),
                    prior_core: prior.index(),
                    cha: cha.index(),
                });
            }
            Ok(cha)
        })?;
        claimed[cha.index()] = Some(core);
        core_to_cha.push(cha);
    }

    let llc_only = (0..machine.cha_count())
        .filter(|&c| claimed[c].is_none())
        .map(|c| ChaId::new(c as u16))
        .collect();

    Ok(ChaMapping {
        core_to_cha,
        llc_only,
    })
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;
    use coremap_mesh::{DieTemplate, FloorplanBuilder, TileCoord};
    use coremap_uncore::{MachineConfig, NoiseModel, XeonMachine};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn run_discovery(machine: &mut XeonMachine) -> ChaMapping {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let sets =
            eviction::build_all_sets_with(machine, &mut rng, 4, &mut Harden::default()).unwrap();
        discover_with(machine, &sets, 3, &mut Harden::default()).unwrap()
    }

    #[test]
    fn recovers_full_skx_mapping() {
        let plan = FloorplanBuilder::new(DieTemplate::SkylakeXcc)
            .build()
            .unwrap();
        let truth = plan.core_to_cha();
        let mut m = XeonMachine::new(plan, MachineConfig::default());
        let mapping = run_discovery(&mut m);
        assert_eq!(mapping.core_to_cha, truth);
        assert!(mapping.llc_only.is_empty());
    }

    #[test]
    fn detects_llc_only_tiles() {
        let plan = FloorplanBuilder::new(DieTemplate::SkylakeXcc)
            .llc_only(TileCoord::new(0, 1))
            .llc_only(TileCoord::new(4, 4))
            .disable(TileCoord::new(2, 3))
            .build()
            .unwrap();
        let truth = plan.core_to_cha();
        let truth_llc = plan.llc_only_chas();
        let mut m = XeonMachine::new(plan, MachineConfig::default());
        let mapping = run_discovery(&mut m);
        assert_eq!(mapping.core_to_cha, truth);
        assert_eq!(mapping.llc_only, truth_llc);
    }

    #[test]
    fn mapping_survives_light_noise() {
        let plan = FloorplanBuilder::new(DieTemplate::SkylakeXcc)
            .build()
            .unwrap();
        let truth = plan.core_to_cha();
        let mut m = XeonMachine::new(
            plan,
            MachineConfig {
                noise: NoiseModel::light(),
                ..MachineConfig::default()
            },
        );
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let sets =
            eviction::build_all_sets_with(&mut m, &mut rng, 16, &mut Harden::default()).unwrap();
        let mapping = discover_with(&mut m, &sets, 6, &mut Harden::default()).unwrap();
        assert_eq!(mapping.core_to_cha, truth);
    }

    #[test]
    fn thin_margin_reports_ambiguity_with_the_measured_margin() {
        let plan = FloorplanBuilder::new(DieTemplate::SkylakeXcc)
            .build()
            .unwrap();
        let mut m = XeonMachine::new(plan, MachineConfig::default());
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let sets =
            eviction::build_all_sets_with(&mut m, &mut rng, 4, &mut Harden::default()).unwrap();
        // Two copies of one set: the winner ties the runner-up exactly, a
        // zero margin — the *thin margin* failure, not a duplicate claim.
        let twice = vec![sets[5].clone(), sets[5].clone()];
        let err = discover_with(&mut m, &twice, 3, &mut Harden::default()).unwrap_err();
        match err {
            MapError::AmbiguousChaMapping {
                core,
                margin,
                required,
            } => {
                assert_eq!(core, 0);
                assert_eq!(margin, 0);
                assert!(required > 0);
            }
            other => panic!("expected thin-margin ambiguity, got {other:?}"),
        }
    }

    #[test]
    fn duplicate_claim_names_both_cores_and_the_slice() {
        let plan = FloorplanBuilder::new(DieTemplate::SkylakeXcc)
            .build()
            .unwrap();
        let truth = plan.core_to_cha();
        let mut m = XeonMachine::new(plan, MachineConfig::default());
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let sets =
            eviction::build_all_sets_with(&mut m, &mut rng, 4, &mut Harden::default()).unwrap();
        // Offer only core 0's co-located set: core 0 rightly claims it, and
        // core 1 — with no alternative and an effectively infinite margin —
        // claims it again. The error must blame *both* cores, not just the
        // current one.
        let cha0 = truth[0];
        let only = vec![sets[cha0.index()].clone()];
        let err = discover_with(&mut m, &only, 3, &mut Harden::default()).unwrap_err();
        assert_eq!(
            err,
            MapError::DuplicateChaClaim {
                core: 1,
                prior_core: 0,
                cha: cha0.index(),
            }
        );
        let rendered = format!("{err}");
        assert!(rendered.contains("cpu1"), "{rendered}");
        assert!(rendered.contains("cpu0"), "{rendered}");
    }

    #[test]
    fn cha_mapping_lookups() {
        let mapping = ChaMapping {
            core_to_cha: vec![ChaId::new(0), ChaId::new(4), ChaId::new(2)],
            llc_only: vec![ChaId::new(3)],
        };
        assert_eq!(mapping.cha_of(OsCoreId::new(1)), ChaId::new(4));
        assert_eq!(mapping.core_of(ChaId::new(2)), Some(OsCoreId::new(2)));
        assert_eq!(mapping.core_of(ChaId::new(3)), None);
    }
}
