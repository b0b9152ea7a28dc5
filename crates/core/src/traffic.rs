//! Step 2: inter-tile traffic generation and monitoring (paper Sec. II-B).
//!
//! For every ordered pair of usable tiles, a directed cache-line transfer
//! stream is driven across the mesh and the ingress ring counters of every
//! observable CHA are recorded:
//!
//! * **core → core**: the source thread repeatedly writes a line homed at
//!   the sink's slice; the sink thread repeatedly reads it. After a warm-up
//!   transfer the steady state is one dirty-forward per iteration, source
//!   tile → sink tile.
//! * **LLC-only tile → core**: the core streams read misses out of the
//!   LLC-only slice's eviction set, producing directed slice → core
//!   transfers (LLC-only tiles cannot host threads, so they can only ever
//!   be sources; Sec. II-B case 4).
//!
//! Observations are *partial*: only tiles with active CHAs report, only
//! ingress is visible, vertical labels are truthful, horizontal labels are
//! scrambled by the odd-column flip and carry direction ambiguity.

use coremap_mesh::{ChaId, OsCoreId};
use coremap_obs as obs;
use coremap_uncore::ChannelCounts;
use serde::{Deserialize, Serialize};

use crate::cha_map::ChaMapping;
use crate::eviction::{self, SliceEvictionSet};
use crate::harden::Harden;
use crate::monitor;
use crate::{MachineBackend, MapError};

/// Truthful vertical travel direction derived from the `up`/`down` ingress
/// labels (paper Sec. II-C.3: vertical constraints use the real direction).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum VerticalDir {
    /// Traffic travelled toward row 0.
    Up,
    /// Traffic travelled toward the last row.
    Down,
}

/// One path observation: which CHAs saw which kind of ingress while a
/// directed `source → sink` stream ran.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PathObservation {
    /// Source tile (CHA ID space).
    pub source: ChaId,
    /// Sink tile (CHA ID space).
    pub sink: ChaId,
    /// CHAs that received vertical ingress, with the (truthful) direction.
    pub vertical: Vec<(ChaId, VerticalDir)>,
    /// CHAs that received horizontal ingress. The left/right labels are
    /// direction-ambiguous and therefore not recorded.
    pub horizontal: Vec<ChaId>,
}

impl PathObservation {
    /// Whether any channel activity was observed at all.
    pub fn is_empty(&self) -> bool {
        self.vertical.is_empty() && self.horizontal.is_empty()
    }
}

/// The complete observation set feeding the ILP reconstruction.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ObservationSet {
    /// Number of active CHAs (tile nodes to place).
    pub n_cha: usize,
    /// All recorded path observations.
    pub paths: Vec<PathObservation>,
}

impl ObservationSet {
    /// Generates the *ideal* observation set for a floorplan directly from
    /// the routing rules — the noise-free limit of the measurement campaign
    /// (used by tests and the figure experiments; the real pipeline measures
    /// through [`observe_all_with`]).
    ///
    /// For every ordered pair of active CHAs whose sink tile has an enabled
    /// core (LLC-only tiles can only be sources), the route under the
    /// floorplan topology's routing discipline is traced and every hop
    /// landing on an observable tile becomes a vertical (with truthful
    /// direction) or horizontal (direction dropped) observation.
    pub fn synthetic(plan: &coremap_mesh::Floorplan) -> ObservationSet {
        use coremap_mesh::route::route_with;
        use coremap_mesh::Direction;

        let discipline = plan.topology().routing();

        let chas: Vec<ChaId> = plan.chas().collect();
        let mut paths = Vec::new();
        for &src in &chas {
            for &sink in &chas {
                if src == sink {
                    continue;
                }
                // Sinks must host a worker thread.
                if !plan.tile(plan.coord_of_cha(sink)).kind().has_core() {
                    continue;
                }
                let r = route_with(
                    plan.coord_of_cha(src),
                    plan.coord_of_cha(sink),
                    plan.dim(),
                    discipline,
                );
                let mut vertical = Vec::new();
                let mut horizontal = Vec::new();
                for ev in r.events() {
                    let Some(cha) = plan.tile(ev.tile).kind().cha() else {
                        continue; // disabled / IMC / system tile: invisible
                    };
                    match ev.true_direction {
                        Direction::Up => vertical.push((cha, VerticalDir::Up)),
                        Direction::Down => vertical.push((cha, VerticalDir::Down)),
                        _ => horizontal.push(cha),
                    }
                }
                paths.push(PathObservation {
                    source: src,
                    sink,
                    vertical,
                    horizontal,
                });
            }
        }
        ObservationSet {
            n_cha: chas.len(),
            paths,
        }
    }
}

/// Collects counters from all CHAs and thresholds them into a
/// [`PathObservation`].
fn collect_observation<T: MachineBackend>(
    machine: &T,
    source: ChaId,
    sink: ChaId,
    threshold: u64,
    harden: &mut Harden,
) -> Result<PathObservation, MapError> {
    let mut vertical = Vec::new();
    let mut horizontal = Vec::new();
    for cha in 0..machine.cha_count() {
        let c: ChannelCounts = monitor::read_ring_with(machine, cha, harden)?;
        if c.vertical() >= threshold {
            let dir = if c.up >= c.down {
                VerticalDir::Up
            } else {
                VerticalDir::Down
            };
            vertical.push((ChaId::new(cha as u16), dir));
        }
        if c.horizontal() >= threshold {
            horizontal.push(ChaId::new(cha as u16));
        }
    }
    Ok(PathObservation {
        source,
        sink,
        vertical,
        horizontal,
    })
}

/// Drives a core→core ping-pong stream and observes the path.
///
/// # Errors
///
/// Propagates MSR errors once the policy's retries are exhausted.
pub fn observe_core_pair_with<T: MachineBackend>(
    machine: &mut T,
    mapping: &ChaMapping,
    src: OsCoreId,
    sink: OsCoreId,
    line_homed_at_sink: coremap_uncore::PhysAddr,
    iters: usize,
    harden: &mut Harden,
) -> Result<PathObservation, MapError> {
    obs::inc("core.traffic.core_pair_obs");
    machine.flush_caches();
    // Warm up: first write pulls the line from the sink-side home into the
    // source's L2 — opposite-direction traffic we must keep out of the
    // observation window.
    machine.write_line(src, line_homed_at_sink);
    harden.msr(|| monitor::arm_ring(machine))?;
    harden.msr(|| monitor::reset_all(machine))?;
    for _ in 0..iters {
        machine.read_line(sink, line_homed_at_sink);
        machine.write_line(src, line_homed_at_sink);
    }
    harden.msr(|| monitor::freeze_all(machine))?;
    collect_observation(
        machine,
        mapping.cha_of(src),
        mapping.cha_of(sink),
        iters as u64 / 2,
        harden,
    )
}

/// Drives an LLC-only-slice→core read-miss stream and observes the path.
///
/// # Errors
///
/// Propagates MSR errors once the policy's retries are exhausted.
pub fn observe_slice_to_core_with<T: MachineBackend>(
    machine: &mut T,
    mapping: &ChaMapping,
    set: &SliceEvictionSet,
    sink: OsCoreId,
    rounds: usize,
    harden: &mut Harden,
) -> Result<PathObservation, MapError> {
    obs::inc("core.traffic.slice_obs");
    machine.flush_caches();
    harden.msr(|| monitor::arm_ring(machine))?;
    harden.msr(|| monitor::reset_all(machine))?;
    eviction::stream_reads(machine, sink, set, rounds);
    harden.msr(|| monitor::freeze_all(machine))?;
    let transfers = (rounds * set.lines.len()) as u64;
    collect_observation(
        machine,
        set.cha,
        mapping.cha_of(sink),
        transfers / 2,
        harden,
    )
}

/// Runs the full all-pairs observation campaign. Every path observation
/// runs as its own `harden` stage, so a faulted `(src, sink)` pair is
/// re-observed in isolation instead of aborting (or restarting) the whole
/// campaign.
///
/// `pair_stride` subsamples the ordered core pairs (1 = all pairs); the
/// observation-budget ablation benchmark uses larger strides.
///
/// # Errors
///
/// Propagates MSR errors once the policy's retries are exhausted.
pub fn observe_all_with<T: MachineBackend>(
    machine: &mut T,
    mapping: &ChaMapping,
    sets: &[SliceEvictionSet],
    iters: usize,
    pair_stride: usize,
    harden: &mut Harden,
) -> Result<ObservationSet, MapError> {
    let cores = machine.os_cores();
    let mut paths = Vec::new();
    let mut pair_idx = 0usize;
    for &src in &cores {
        for &sink in &cores {
            if src == sink {
                continue;
            }
            pair_idx += 1;
            if pair_stride > 1 && !pair_idx.is_multiple_of(pair_stride) {
                continue;
            }
            let sink_cha = mapping.cha_of(sink);
            let set = &sets[sink_cha.index()];
            let line = set.lines[0];
            paths.push(
                harden.stage(|h| {
                    observe_core_pair_with(machine, mapping, src, sink, line, iters, h)
                })?,
            );
        }
    }
    // LLC-only tiles can only act as sources.
    for &llc in &mapping.llc_only {
        for &sink in &cores {
            let set = &sets[llc.index()];
            let rounds = (iters / set.lines.len()).max(2);
            paths.push(
                harden.stage(|h| {
                    observe_slice_to_core_with(machine, mapping, set, sink, rounds, h)
                })?,
            );
        }
    }
    Ok(ObservationSet {
        n_cha: machine.cha_count(),
        paths,
    })
}

/// Runs an observation campaign on the **AD (request) ring** instead of the
/// paper's BL data ring: every core streams read misses out of every other
/// tile's eviction set, producing directed `core -> home` request paths.
///
/// Two structural differences from the BL campaign make this an
/// interesting alternative (measured by the ring-choice ablation):
///
/// * LLC-only tiles can be traffic **sinks** (their slice homes lines) even
///   though they cannot host threads, inverting the BL campaign's
///   source-only restriction;
/// * the core-to-core ping-pong cannot be used — its AD messages flow in
///   both directions within one experiment (request one way, snoop the
///   other), violating the single-directed-path assumption, which is
///   precisely why the paper monitors the BL ring.
///
/// # Errors
///
/// Propagates MSR errors.
pub fn observe_all_ad_with<T: MachineBackend>(
    machine: &mut T,
    mapping: &ChaMapping,
    sets: &[SliceEvictionSet],
    rounds: usize,
    harden: &mut Harden,
) -> Result<ObservationSet, MapError> {
    let cores = machine.os_cores();
    let mut paths = Vec::new();
    for &src in &cores {
        let src_cha = mapping.cha_of(src);
        for set in sets {
            if set.cha == src_cha {
                continue;
            }
            paths.push(harden.stage(|h| {
                obs::inc("core.traffic.ad_obs");
                machine.flush_caches();
                h.msr(|| monitor::arm_ring_on(machine, coremap_uncore::RingClass::Ad))?;
                h.msr(|| monitor::reset_all(machine))?;
                eviction::stream_reads(machine, src, set, rounds);
                h.msr(|| monitor::freeze_all(machine))?;
                let transfers = (rounds * set.lines.len()) as u64;
                // Requests flow from the reading core toward the home slice.
                collect_observation(machine, src_cha, set.cha, transfers / 2, h)
            })?);
        }
    }
    Ok(ObservationSet {
        n_cha: machine.cha_count(),
        paths,
    })
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;
    use coremap_mesh::{DieTemplate, Floorplan, FloorplanBuilder, TileCoord};
    use coremap_uncore::{MachineConfig, PhysAddr, XeonMachine};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn setup(plan: Floorplan) -> (XeonMachine, ChaMapping, Vec<SliceEvictionSet>) {
        let mut m = XeonMachine::new(plan, MachineConfig::default());
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let sets =
            eviction::build_all_sets_with(&mut m, &mut rng, 4, &mut Harden::default()).unwrap();
        let mapping =
            crate::cha_map::discover_with(&mut m, &sets, 3, &mut Harden::default()).unwrap();
        (m, mapping, sets)
    }

    /// Picks a line homed at the sink's CHA.
    fn line_for(sets: &[SliceEvictionSet], cha: ChaId) -> PhysAddr {
        sets[cha.index()].lines[0]
    }

    #[test]
    fn same_column_pair_is_pure_vertical() {
        let plan = FloorplanBuilder::new(DieTemplate::SkylakeXcc)
            .build()
            .unwrap();
        let truth = plan.clone();
        let (mut m, mapping, sets) = setup(plan);
        // Find two cores in the same column, different rows.
        let cores = m.os_cores();
        let (src, sink) = cores
            .iter()
            .flat_map(|&a| cores.iter().map(move |&b| (a, b)))
            .find(|&(a, b)| {
                a != b && {
                    let ca = truth.coord_of_core(a);
                    let cb = truth.coord_of_core(b);
                    ca.col == cb.col && ca.row > cb.row
                }
            })
            .expect("same-column pair exists");
        let line = line_for(&sets, mapping.cha_of(sink));
        let obs = observe_core_pair_with(
            &mut m,
            &mapping,
            src,
            sink,
            line,
            16,
            &mut Harden::default(),
        )
        .unwrap();
        assert!(obs.horizontal.is_empty(), "no horizontal movement expected");
        assert!(!obs.vertical.is_empty());
        // Source is below sink (larger row) so traffic moves up.
        for &(_, dir) in &obs.vertical {
            assert_eq!(dir, VerticalDir::Up);
        }
        // The sink itself must be among the vertical observers.
        assert!(obs.vertical.iter().any(|&(c, _)| c == mapping.cha_of(sink)));
    }

    #[test]
    fn cross_pair_observers_match_routing_rules() {
        let plan = FloorplanBuilder::new(DieTemplate::SkylakeXcc)
            .build()
            .unwrap();
        let truth = plan.clone();
        let (mut m, mapping, sets) = setup(plan);
        let cores = m.os_cores();
        // A pair differing in both row and column.
        let (src, sink) = cores
            .iter()
            .flat_map(|&a| cores.iter().map(move |&b| (a, b)))
            .find(|&(a, b)| {
                let ca = truth.coord_of_core(a);
                let cb = truth.coord_of_core(b);
                ca.row != cb.row && ca.col != cb.col
            })
            .unwrap();
        let line = line_for(&sets, mapping.cha_of(sink));
        let obs = observe_core_pair_with(
            &mut m,
            &mapping,
            src,
            sink,
            line,
            16,
            &mut Harden::default(),
        )
        .unwrap();
        let sc = truth.coord_of_core(src);
        let kc = truth.coord_of_core(sink);
        // Vertical observers lie in the source column between the rows.
        for &(cha, _) in &obs.vertical {
            let c = truth.coord_of_cha(cha);
            assert_eq!(c.col, sc.col);
            assert!(c.row >= sc.row.min(kc.row) && c.row <= sc.row.max(kc.row));
        }
        // Horizontal observers lie in the sink row.
        for &cha in &obs.horizontal {
            let c = truth.coord_of_cha(cha);
            assert_eq!(c.row, kc.row);
        }
        // The sink sees horizontal ingress (it is in a different column).
        assert!(obs.horizontal.contains(&mapping.cha_of(sink)));
    }

    #[test]
    fn disabled_tiles_do_not_appear_in_observations() {
        let plan = FloorplanBuilder::new(DieTemplate::SkylakeXcc)
            .disable(TileCoord::new(2, 1))
            .disable(TileCoord::new(3, 2))
            .build()
            .unwrap();
        let (mut m, mapping, sets) = setup(plan);
        let cores = m.os_cores();
        for &src in cores.iter().take(4) {
            for &sink in cores.iter().take(4) {
                if src == sink {
                    continue;
                }
                let line = line_for(&sets, mapping.cha_of(sink));
                let obs = observe_core_pair_with(
                    &mut m,
                    &mapping,
                    src,
                    sink,
                    line,
                    12,
                    &mut Harden::default(),
                )
                .unwrap();
                // All observers are valid CHA ids (< cha_count) by
                // construction; none may exceed the active count.
                for &(c, _) in &obs.vertical {
                    assert!(c.index() < m.cha_count());
                }
                assert!(!obs.is_empty(), "sink always observes ingress");
            }
        }
    }

    #[test]
    fn llc_only_source_observation_reaches_sink() {
        let plan = FloorplanBuilder::new(DieTemplate::SkylakeXcc)
            .llc_only(TileCoord::new(0, 3))
            .build()
            .unwrap();
        let truth = plan.clone();
        let (mut m, mapping, sets) = setup(plan);
        assert_eq!(mapping.llc_only.len(), 1);
        let llc = mapping.llc_only[0];
        let sink = m.os_cores()[5];
        let obs = observe_slice_to_core_with(
            &mut m,
            &mapping,
            &sets[llc.index()],
            sink,
            3,
            &mut Harden::default(),
        )
        .unwrap();
        assert_eq!(obs.source, llc);
        let sink_cha = mapping.cha_of(sink);
        assert!(
            obs.vertical.iter().any(|&(c, _)| c == sink_cha) || obs.horizontal.contains(&sink_cha)
        );
        // Sanity: source and sink tiles really differ.
        assert_ne!(truth.coord_of_cha(llc), truth.coord_of_cha(sink_cha));
    }

    #[test]
    fn ad_campaign_paths_are_core_to_home_directed() {
        let plan = FloorplanBuilder::new(DieTemplate::SkylakeXcc)
            .llc_only(TileCoord::new(3, 2))
            .build()
            .unwrap();
        let truth = plan.clone();
        let (mut m, mapping, sets) = setup(plan);
        let obs = observe_all_ad_with(&mut m, &mapping, &sets, 3, &mut Harden::default()).unwrap();
        // One path per (core, other-cha) pair; LLC-only tiles appear as
        // sinks, impossible on the BL campaign.
        let n_core = m.core_count();
        let n_cha = m.cha_count();
        assert_eq!(obs.paths.len(), n_core * (n_cha - 1));
        let llc = mapping.llc_only[0];
        assert!(obs.paths.iter().any(|p| p.sink == llc));
        assert!(obs.paths.iter().all(|p| p.sink != p.source));
        // Observers obey the routing rules relative to ground truth.
        for p in obs.paths.iter().take(60) {
            let sc = truth.coord_of_cha(p.source);
            let kc = truth.coord_of_cha(p.sink);
            for &(cha, _) in &p.vertical {
                assert_eq!(truth.coord_of_cha(cha).col, sc.col);
            }
            for &cha in &p.horizontal {
                assert_eq!(truth.coord_of_cha(cha).row, kc.row);
            }
        }
    }

    #[test]
    fn observe_all_produces_expected_path_count() {
        let plan = FloorplanBuilder::new(DieTemplate::SkylakeXcc)
            .llc_only(TileCoord::new(2, 2))
            .build()
            .unwrap();
        let (mut m, mapping, sets) = setup(plan);
        let n = m.core_count();
        let obs = observe_all_with(&mut m, &mapping, &sets, 8, 1, &mut Harden::default()).unwrap();
        assert_eq!(obs.paths.len(), n * (n - 1) + n);
        assert_eq!(obs.n_cha, 28);
    }
}
