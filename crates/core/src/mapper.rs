//! End-to-end mapping pipeline driver.

use coremap_mesh::Ppin;
use coremap_obs as obs;
// audit: allow(backend-discipline): the PPIN identity read is the one raw MSR the pipeline issues itself — it doubles as the privilege probe and keys results to the physical chip
use coremap_uncore::msr::MSR_PPIN;
use coremap_uncore::RingClass;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::cha_map;
use crate::eviction;
use crate::harden::{self, Harden, MapQuality, RobustnessConfig};
use crate::ilp_model::Reconstruction;
use crate::signature::{CachedSolve, ObservationSignature, SolveCache};
use crate::traffic;
use crate::{CoreMap, MachineBackend, MapError, ObservationSet, PlacementDefect};

/// Leadership over one in-flight cache entry: ties the single-flight
/// protocol of [`SolveCache`] to scope. `acquire` resolves a hit (waiting
/// out a foreign leader); `lead` takes leadership and guarantees — through
/// `Drop` — that the entry is abandoned if the solve errors or unwinds
/// before [`publish`](Self::publish) runs.
struct CacheLease<'a> {
    cache: &'a dyn SolveCache,
    sig: ObservationSignature,
    published: bool,
}

impl<'a> CacheLease<'a> {
    fn acquire(cache: &'a dyn SolveCache, sig: ObservationSignature) -> Option<CachedSolve> {
        cache.acquire(&sig)
    }

    fn lead(cache: &'a dyn SolveCache, sig: ObservationSignature) -> Self {
        Self {
            cache,
            sig,
            published: false,
        }
    }

    fn publish(mut self, solve: &CachedSolve) {
        self.cache.publish(&self.sig, solve);
        self.published = true;
    }
}

impl Drop for CacheLease<'_> {
    fn drop(&mut self) {
        if !self.published {
            self.cache.abandon(&self.sig);
        }
    }
}

/// Intermediate results of a mapping run, exposed so callers can study or
/// persist the raw measurements (e.g. re-solve offline with a different
/// formulation) without re-measuring.
#[derive(Debug, Clone)]
pub struct MapDiagnostics {
    /// Every path observation fed to the ILP.
    pub observations: ObservationSet,
    /// Branch-and-bound statistics of the reconstruction solve.
    pub ilp_stats: coremap_ilp::SolveStats,
    /// Objective value of the tightest map.
    pub ilp_objective: f64,
    /// Total machine operations the measurement campaign issued.
    pub machine_ops: u64,
    /// Quality grade of the returned map (degradation ladder: exact →
    /// relative → partial) and the bookkeeping behind it.
    pub quality: MapQuality,
    /// Content address of the measurement campaign (grid + CHA↔core
    /// assignment + ingress-pattern set + configured signature context).
    /// `None` on the hypothesis-selection path, whose solve input is not a
    /// single campaign.
    pub signature: Option<ObservationSignature>,
}

/// Tunables of the mapping pipeline.
#[derive(Debug, Clone)]
pub struct MapperConfig {
    /// Contention iterations per slice-hash probe (Sec. II-A).
    pub probe_iters: usize,
    /// Eviction-set thrash rounds per `(core, slice)` test (Sec. II-A).
    pub thrash_rounds: usize,
    /// Ping-pong iterations per path observation (Sec. II-B).
    pub ping_iters: usize,
    /// Subsampling stride over ordered core pairs (1 = observe all pairs;
    /// larger strides feed the observation-budget ablation).
    pub pair_stride: usize,
    /// Seed for the random line sampling.
    pub seed: u64,
    /// Use the literal per-tile/per-path ILP formulation instead of the
    /// class-merged one (slow; for fidelity experiments).
    pub full_formulation: bool,
    /// Which mesh ring class to observe. The paper monitors BL (data);
    /// [`RingClass::Ad`] switches step 2 to the request-ring campaign of
    /// [`traffic::observe_all_ad_with`]. [`RingClass::Iv`] carries no directed
    /// pattern usable for mapping and is rejected.
    pub ring: RingClass,
    /// Fault-tolerance policy: MSR retry, redundant counter sampling,
    /// stage-local re-measurement and graceful ILP degradation
    /// ([`harden`](crate::harden)).
    pub robustness: RobustnessConfig,
    /// Accepted and ignored: the reconstruction ILP is solved by one serial
    /// branch & bound. Kept so existing configurations still build.
    pub ilp_workers: usize,
    /// Accepted and ignored: every branch-and-bound node is solved cold.
    /// Kept so existing configurations still build.
    pub ilp_warm_start: bool,
    /// Topology hypotheses to test in step 3. Empty (the default) keeps the
    /// paper-literal reconstruction against the machine's own grid; when
    /// non-empty, step 3 instead runs
    /// [`topology_select::select`](crate::topology_select::select) over the
    /// set and keeps the first surviving hypothesis, recording every
    /// verdict in [`MapQuality`].
    pub topology_hypotheses: Vec<coremap_mesh::Topology>,
    /// Extra label folded into the campaign's [`ObservationSignature`]
    /// (fleet campaigns pass the SKU's topology name). `None` leaves the
    /// address purely observation-derived.
    pub signature_context: Option<String>,
}

impl Default for MapperConfig {
    fn default() -> Self {
        Self {
            probe_iters: 8,
            thrash_rounds: 3,
            ping_iters: 16,
            pair_stride: 1,
            seed: 0x6d61_7070,
            full_formulation: false,
            ring: RingClass::Bl,
            robustness: RobustnessConfig::default(),
            ilp_workers: 1,
            ilp_warm_start: false,
            topology_hypotheses: Vec::new(),
            signature_context: None,
        }
    }
}

/// The complete three-step mapping methodology (paper Sec. II).
///
/// ```
/// use coremap_mesh::{DieTemplate, FloorplanBuilder};
/// use coremap_uncore::{MachineConfig, XeonMachine};
/// use coremap_core::CoreMapper;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let plan = FloorplanBuilder::new(DieTemplate::SkylakeXcc).build()?;
/// let mut machine = XeonMachine::new(plan, MachineConfig::default());
/// let map = CoreMapper::new().map(&mut machine)?;
/// println!("{}", map.render());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct CoreMapper {
    config: MapperConfig,
}

impl CoreMapper {
    /// A mapper with default configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// A mapper with explicit configuration.
    pub fn with_config(config: MapperConfig) -> Self {
        Self { config }
    }

    /// A mapper with the aggressive fault-tolerance profile
    /// ([`RobustnessConfig::hardened`]) and otherwise default tunables —
    /// the configuration for flaky production machines.
    pub fn hardened() -> Self {
        Self {
            config: MapperConfig {
                robustness: RobustnessConfig::hardened(),
                ..MapperConfig::default()
            },
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &MapperConfig {
        &self.config
    }

    /// Runs the full pipeline against a machine and returns the recovered
    /// [`CoreMap`] (keyed by PPIN).
    ///
    /// # Errors
    ///
    /// Any [`MapError`]: missing privileges, probing budget exhaustion,
    /// ambiguous measurements under extreme noise, or ILP infeasibility.
    pub fn map<T: MachineBackend>(&self, machine: &mut T) -> Result<CoreMap, MapError> {
        self.map_with_diagnostics(machine).map(|(map, _)| map)
    }

    /// Runs the pipeline and additionally returns the intermediate
    /// measurement and solver data ([`MapDiagnostics`]).
    ///
    /// # Errors
    ///
    /// As for [`map`](Self::map).
    pub fn map_with_diagnostics<T: MachineBackend>(
        &self,
        machine: &mut T,
    ) -> Result<(CoreMap, MapDiagnostics), MapError> {
        self.map_with_cache(machine, None)
    }

    /// Runs the pipeline with a [`SolveCache`] consulted between step 2 and
    /// step 3: when the campaign's [`ObservationSignature`] is already
    /// solved, the ILP is skipped and the cached placement reused — the
    /// scale lever of fleet campaigns, where a handful of layouts cover
    /// thousands of instances. The cache applies only to the paper-literal
    /// reconstruction; hypothesis-selection runs always solve.
    ///
    /// # Errors
    ///
    /// As for [`map`](Self::map).
    pub fn map_cached<T: MachineBackend>(
        &self,
        machine: &mut T,
        cache: &dyn SolveCache,
    ) -> Result<(CoreMap, MapDiagnostics), MapError> {
        self.map_with_cache(machine, Some(cache))
    }

    fn map_with_cache<T: MachineBackend>(
        &self,
        machine: &mut T,
        cache: Option<&dyn SolveCache>,
    ) -> Result<(CoreMap, MapDiagnostics), MapError> {
        let mut hard = Harden::new(self.config.robustness.clone());

        // Root check up front: the PPIN read doubles as the privilege test
        // and keys the result to the physical chip. A transient fault here
        // must not kill the whole run, so it retries like any other MSR
        // access; a *persistent* denial still surfaces as the same error.
        // audit: allow(backend-discipline): deliberate raw read — see the import note; all PMON traffic goes through `monitor`
        let ppin = Ppin::new(hard.msr(|| machine.read_msr(MSR_PPIN))?);

        // Step 1a: slice eviction sets via LLC-lookup probing.
        let sets = {
            let _span = obs::time("core.map.stage.eviction");
            let mut rng = ChaCha8Rng::seed_from_u64(self.config.seed);
            eviction::build_all_sets_with(machine, &mut rng, self.config.probe_iters, &mut hard)?
        };

        // Step 1b: OS core ID <-> CHA ID mapping.
        let mapping = {
            let _span = obs::time("core.map.stage.cha_map");
            cha_map::discover_with(machine, &sets, self.config.thrash_rounds, &mut hard)?
        };

        // Step 2: all-pairs traffic observation on the configured ring.
        let observations = {
            let _span = obs::time("core.map.stage.traffic");
            match self.config.ring {
                RingClass::Bl => traffic::observe_all_with(
                    machine,
                    &mapping,
                    &sets,
                    self.config.ping_iters,
                    self.config.pair_stride,
                    &mut hard,
                )?,
                RingClass::Ad => traffic::observe_all_ad_with(
                    machine,
                    &mapping,
                    &sets,
                    (self.config.ping_iters / 8).max(2),
                    &mut hard,
                )?,
                RingClass::Iv => return Err(MapError::InconsistentObservations),
            }
        };

        // Step 3: ILP reconstruction. With a hypothesis set configured the
        // reconstruction runs once per candidate topology and the first
        // surviving hypothesis wins; otherwise the paper-literal path
        // reconstructs against the machine's own grid with graceful
        // degradation — an inconsistent minority of observations is
        // discarded and the solve repeated rather than aborting the
        // campaign. A configured SolveCache can answer the paper-literal
        // solve from a previous campaign with the same signature.
        let mut signature = None;
        let (rec, quality, winning_dim, winning_topology) =
            if self.config.topology_hypotheses.is_empty() {
                let _span = obs::time("core.map.stage.ilp");
                let dim = machine.grid_dim();
                let sig = ObservationSignature::compute(
                    self.config.signature_context.as_deref(),
                    dim,
                    &mapping.core_to_cha,
                    &mapping.llc_only,
                    &observations,
                );
                signature = Some(sig);
                let (rec, quality) = match cache.and_then(|c| CacheLease::acquire(c, sig)) {
                    Some(solve) => {
                        // The grid and the CHA count are part of the
                        // content address's input; a defect means a
                        // corrupted store.
                        let defect = if solve.dim != dim {
                            Some(PlacementDefect::WrongGrid {
                                expected: dim,
                                found: solve.dim,
                            })
                        } else if solve.positions.len() != observations.n_cha {
                            Some(PlacementDefect::WrongChaCount {
                                expected: observations.n_cha,
                                found: solve.positions.len(),
                            })
                        } else {
                            solve.check().err()
                        };
                        if let Some(defect) = defect {
                            return Err(MapError::CorruptCachedSolve {
                                signature: sig,
                                defect,
                            });
                        }
                        (
                            Reconstruction {
                                positions: solve.positions,
                                stats: coremap_ilp::SolveStats::default(),
                                objective: solve.objective,
                            },
                            solve.quality,
                        )
                    }
                    None => {
                        // This thread leads the solve for `sig`: the lease
                        // publishes on success and abandons on error or
                        // unwind, so waiters never block forever.
                        let lease = cache.map(|c| CacheLease::lead(c, sig));
                        let (rec, quality) = harden::reconstruct_degrading(
                            &observations,
                            dim,
                            self.config.full_formulation,
                            &self.config.robustness,
                            Default::default(),
                        )?;
                        if let Some(lease) = lease {
                            lease.publish(&CachedSolve {
                                dim,
                                positions: rec.positions.clone(),
                                objective: rec.objective,
                                quality: quality.clone(),
                            });
                        }
                        (rec, quality)
                    }
                };
                (rec, quality, dim, None)
            } else {
                let _span = obs::time("core.map.stage.topo_select");
                let selection =
                    crate::topology_select::select(&observations, &self.config.topology_hypotheses);
                obs::add(
                    "topo.hypotheses.tested",
                    self.config.topology_hypotheses.len() as u64,
                );
                obs::add(
                    "topo.hypotheses.eliminated",
                    selection.scores.iter().filter(|s| !s.survives()).count() as u64,
                );
                let winner_name = selection.winner_name().map(str::to_owned);
                let (Some(idx), Some(rec)) = (selection.winner, selection.reconstruction) else {
                    return Err(MapError::InconsistentObservations);
                };
                let dim = self.config.topology_hypotheses[idx].dim();
                let mut quality = harden::grade(&observations, 0, 0, 0);
                quality.winning_topology = winner_name.clone();
                quality.hypothesis_scores = selection.scores;
                (rec, quality, dim, winner_name)
            };

        let mut map = CoreMap::new(
            winning_dim,
            rec.positions,
            mapping.core_to_cha,
            mapping.llc_only,
        )
        .with_ppin(ppin);
        if let Some(name) = winning_topology {
            map = map.with_topology_name(name);
        }
        let diagnostics = MapDiagnostics {
            observations,
            ilp_stats: rec.stats,
            ilp_objective: rec.objective,
            machine_ops: machine.op_count(),
            quality,
            signature,
        };
        obs::add("core.machine.ops", diagnostics.machine_ops);
        Ok((map, diagnostics))
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;
    use crate::verify;
    use coremap_mesh::{DieTemplate, FloorplanBuilder, TileCoord};
    use coremap_uncore::{MachineConfig, MsrError, NoiseModel, XeonMachine};

    #[test]
    fn maps_full_skx_die_exactly() {
        let plan = FloorplanBuilder::new(DieTemplate::SkylakeXcc)
            .build()
            .unwrap();
        let truth = plan.clone();
        let mut m = XeonMachine::new(plan, MachineConfig::default());
        let map = CoreMapper::new().map(&mut m).unwrap();
        assert!(verify::matches_exactly(&map, &truth));
        assert_eq!(map.ppin(), Some(MachineConfig::default().ppin));
    }

    #[test]
    fn maps_sparse_die_with_llc_only_tiles() {
        let plan = FloorplanBuilder::new(DieTemplate::SkylakeXcc)
            .disable(TileCoord::new(0, 3))
            .disable(TileCoord::new(3, 2))
            .llc_only(TileCoord::new(2, 1))
            .llc_only(TileCoord::new(4, 5))
            .build()
            .unwrap();
        let truth = plan.clone();
        let mut m = XeonMachine::new(plan, MachineConfig::default());
        let map = CoreMapper::new().map(&mut m).unwrap();
        assert!(verify::matches_relative(&map, &truth));
    }

    #[test]
    fn diagnostics_expose_measurement_campaign() {
        let plan = FloorplanBuilder::new(DieTemplate::SkylakeXcc)
            .build()
            .unwrap();
        let mut m = XeonMachine::new(plan, MachineConfig::default());
        let (map, diag) = CoreMapper::new().map_with_diagnostics(&mut m).unwrap();
        // All-pairs campaign over 28 cores: n(n-1) paths.
        assert_eq!(diag.observations.paths.len(), 28 * 27);
        assert!(diag.ilp_stats.nodes >= 1);
        assert!(diag.machine_ops > 1000);
        // The observations must themselves validate the returned map.
        let positions: Vec<_> = (0..map.cha_count())
            .map(|i| map.coord_of_cha(coremap_mesh::ChaId::new(i as u16)))
            .collect();
        assert!(crate::verify::observations_consistent(
            &positions,
            &diag.observations,
            map.dim()
        ));
    }

    #[test]
    fn ad_ring_campaign_also_recovers_the_map() {
        let plan = FloorplanBuilder::new(DieTemplate::SkylakeXcc)
            .llc_only(TileCoord::new(2, 1))
            .disable(TileCoord::new(0, 3))
            .build()
            .unwrap();
        let truth = plan.clone();
        let mut m = XeonMachine::new(plan, MachineConfig::default());
        let cfg = MapperConfig {
            ring: RingClass::Ad,
            ..MapperConfig::default()
        };
        let map = CoreMapper::with_config(cfg).map(&mut m).unwrap();
        assert!(verify::matches_relative(&map, &truth));
    }

    #[test]
    fn iv_ring_is_rejected() {
        let plan = FloorplanBuilder::new(DieTemplate::SkylakeXcc)
            .build()
            .unwrap();
        let mut m = XeonMachine::new(plan, MachineConfig::default());
        let cfg = MapperConfig {
            ring: RingClass::Iv,
            ..MapperConfig::default()
        };
        assert!(CoreMapper::with_config(cfg).map(&mut m).is_err());
    }

    #[test]
    fn hypothesis_selection_identifies_the_true_topology() {
        let plan = FloorplanBuilder::new(DieTemplate::SkylakeXcc)
            .build()
            .unwrap();
        let truth = plan.clone();
        let mut m = XeonMachine::new(plan, MachineConfig::default());
        let cfg = MapperConfig {
            topology_hypotheses: coremap_mesh::Topology::builtins()
                .iter()
                .map(|t| (*t).clone())
                .collect(),
            ..MapperConfig::default()
        };
        let (map, diag) = CoreMapper::with_config(cfg)
            .map_with_diagnostics(&mut m)
            .unwrap();
        assert_eq!(map.topology_name(), Some("skylake-xcc"));
        assert_eq!(
            diag.quality.winning_topology.as_deref(),
            Some("skylake-xcc")
        );
        assert_eq!(
            diag.quality.hypothesis_scores.len(),
            coremap_mesh::Topology::builtins().len()
        );
        // The wrong-geometry and wrong-discipline hypotheses are eliminated.
        assert!(diag
            .quality
            .hypothesis_scores
            .iter()
            .any(|s| s.name == "icelake-xcc" && !s.survives()));
        assert!(diag
            .quality
            .hypothesis_scores
            .iter()
            .any(|s| s.name == "ring-28" && !s.survives()));
        assert!(verify::matches_exactly(&map, &truth));
    }

    #[test]
    fn unprivileged_mapping_fails_cleanly() {
        let plan = FloorplanBuilder::new(DieTemplate::SkylakeXcc)
            .build()
            .unwrap();
        let mut m = XeonMachine::new(plan, MachineConfig::default());
        m.set_privileged(false);
        let err = CoreMapper::new().map(&mut m).unwrap_err();
        assert_eq!(err, MapError::Msr(MsrError::PermissionDenied));
    }

    #[test]
    fn mapping_survives_light_noise() {
        let plan = FloorplanBuilder::new(DieTemplate::SkylakeXcc)
            .disable(TileCoord::new(2, 2))
            .build()
            .unwrap();
        let truth = plan.clone();
        let mut m = XeonMachine::new(
            plan,
            MachineConfig {
                noise: NoiseModel::light(),
                noise_seed: 5,
                ..MachineConfig::default()
            },
        );
        let cfg = MapperConfig {
            probe_iters: 16,
            thrash_rounds: 6,
            ping_iters: 32,
            ..MapperConfig::default()
        };
        let map = CoreMapper::with_config(cfg).map(&mut m).unwrap();
        assert!(verify::matches_relative(&map, &truth));
    }
}
