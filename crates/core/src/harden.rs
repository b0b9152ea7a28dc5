//! Measurement hardening: the fault-tolerance layer of the pipeline.
//!
//! PR 1 gave the pipeline a fault *injector* (`backend::FaultyBackend`);
//! this module gives it the matching *recovery* discipline, mirroring how
//! interconnect-measurement work survives on real, noisy machines:
//!
//! 1. **Bounded MSR retry** ([`Harden::msr`]): a transient
//!    [`MsrError::PermissionDenied`] (racing `msr` module reload, revoked
//!    capability) is retried up to [`RobustnessConfig::msr_attempts`] times
//!    with deterministic, seeded backoff instead of killing a ~350k-op
//!    campaign through `?`-propagation.
//! 2. **Redundant counter sampling** ([`Harden::counter`]): PMON readouts
//!    are taken median-of-k, absorbing dropped (zeroed) counters and
//!    additive jitter. Counters are frozen/stable during readout, so extra
//!    samples are pure re-reads.
//! 3. **Stage-local re-measurement** ([`Harden::stage`]): a failed
//!    `(core, slice)` test or path observation is re-run in isolation
//!    rather than restarting step 1 from scratch.
//! 4. **Graceful degradation** ([`reconstruct_degrading`]): when the
//!    recovered placement does not explain every observation — or the ILP
//!    is outright infeasible — the minority-inconsistent
//!    [`PathObservation`](crate::PathObservation)s are discarded and the
//!    ILP re-solved, yielding a *relative* or *partial* map with a
//!    [`MapQuality`] report instead of an error.
//!
//! **Determinism contract**: every retry/backoff/resample decision draws
//! from one ChaCha8 stream with a fixed seed, and the simulated backoff is a
//! counted step (exported as `core.retry.backoff_steps`), not a wall-clock
//! sleep. Identical inputs therefore produce byte-identical deterministic
//! metrics (`core.retry.*`, `core.harden.*`), which
//! `tests/metrics_determinism.rs` pins.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use coremap_mesh::{ChaId, GridDim};
use coremap_obs as obs;
use coremap_uncore::MsrError;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

use crate::ilp_model::{self, Reconstruction, UnionFind};
use crate::traffic::{ObservationSet, VerticalDir};
use crate::verify;
use crate::MapError;

/// Seed of the backoff/resample decision stream.
const BACKOFF_SEED: u64 = 0x6861_7264;

/// Ceiling on the fraction of path observations the degradation may
/// discard before giving up.
const MAX_DISCARD_FRACTION: f64 = 0.25;

/// Tunables of the fault-tolerance layer, carried by
/// [`MapperConfig`](crate::MapperConfig).
#[derive(Debug, Clone, PartialEq)]
pub struct RobustnessConfig {
    /// Attempts per MSR operation (1 = no retry). Retries only run after a
    /// failure, so raising this costs nothing on a clean machine.
    pub msr_attempts: usize,
    /// PMON counter samples per readout; the median is returned (1 = single
    /// read). Odd values make the median unambiguous.
    pub counter_samples: usize,
    /// Extra in-isolation re-runs of a failed measurement unit (a slice
    /// probe, a `(core, slice)` test, a path observation) before its error
    /// propagates.
    pub stage_retries: usize,
    /// Discard-and-re-solve rounds step 3 may spend explaining away
    /// inconsistent observations (0 = solve once, never discard).
    pub degrade_rounds: usize,
}

impl Default for RobustnessConfig {
    fn default() -> Self {
        Self {
            msr_attempts: 3,
            counter_samples: 1,
            stage_retries: 2,
            degrade_rounds: 0,
        }
    }
}

impl RobustnessConfig {
    /// The full-recovery preset used by `--harden` and the robustness
    /// sweep: median-of-3 counter reads, deeper retry budgets and the
    /// degradation ladder enabled.
    pub fn hardened() -> Self {
        Self {
            msr_attempts: 4,
            counter_samples: 3,
            stage_retries: 3,
            degrade_rounds: 3,
        }
    }

    /// Everything disabled: single attempts, single samples, no stage
    /// retries, no degradation — the pre-hardening pipeline, kept as the
    /// baseline of the robustness sweep and the zero-overhead pin.
    pub fn off() -> Self {
        Self {
            msr_attempts: 1,
            counter_samples: 1,
            stage_retries: 0,
            degrade_rounds: 0,
        }
    }
}

/// Execution state of the hardening policy for one campaign: the config
/// plus the seeded decision stream. One instance is threaded through all
/// stages so draws stay reproducible.
#[derive(Debug, Clone)]
pub struct Harden {
    cfg: RobustnessConfig,
    rng: ChaCha8Rng,
}

impl Default for Harden {
    fn default() -> Self {
        Self::new(RobustnessConfig::default())
    }
}

impl Harden {
    /// Builds the policy state for `cfg`.
    pub fn new(cfg: RobustnessConfig) -> Self {
        let rng = ChaCha8Rng::seed_from_u64(BACKOFF_SEED);
        Self { cfg, rng }
    }

    /// The active configuration.
    pub fn config(&self) -> &RobustnessConfig {
        &self.cfg
    }

    /// Runs an MSR operation with bounded retry and seeded backoff.
    ///
    /// # Errors
    ///
    /// The last error once all attempts are exhausted.
    pub fn msr<T>(&mut self, mut op: impl FnMut() -> Result<T, MsrError>) -> Result<T, MsrError> {
        let attempts = self.cfg.msr_attempts.max(1);
        let mut last = MsrError::PermissionDenied;
        for attempt in 0..attempts {
            match op() {
                Ok(v) => return Ok(v),
                Err(e) => {
                    last = e;
                    if attempt + 1 < attempts {
                        obs::inc("core.retry.attempts");
                        // Exponential ceiling, seeded jitter; the steps are
                        // counted instead of slept so replays stay exact.
                        let ceiling = 1u64 << (attempt.min(16) + 1);
                        let steps = self.rng.gen_range(1..=ceiling);
                        obs::add("core.retry.backoff_steps", steps);
                    }
                }
            }
        }
        obs::inc("core.retry.exhausted");
        Err(last)
    }

    /// Reads a PMON counter median-of-k (each sample itself under MSR
    /// retry). With `counter_samples == 1` this is a plain retried read.
    ///
    /// # Errors
    ///
    /// Propagates the first sample whose retries are exhausted.
    pub fn counter(
        &mut self,
        mut read: impl FnMut() -> Result<u64, MsrError>,
    ) -> Result<u64, MsrError> {
        let k = self.cfg.counter_samples.max(1);
        if k == 1 {
            return self.msr(read);
        }
        let mut samples = Vec::with_capacity(k);
        for _ in 0..k {
            samples.push(self.msr(&mut read)?);
        }
        obs::add("core.harden.resamples", (k - 1) as u64);
        samples.sort_unstable();
        Ok(samples[samples.len() / 2])
    }

    /// Runs one measurement unit with stage-local re-measurement: on a
    /// transient failure the unit is re-run in isolation up to
    /// [`RobustnessConfig::stage_retries`] extra times instead of failing
    /// the whole campaign (and instead of restarting earlier steps).
    ///
    /// Persistent failures (every re-run fails) and systemic errors
    /// (budget exhaustion, solver failures) propagate unchanged.
    ///
    /// # Errors
    ///
    /// The last error once re-runs are exhausted.
    pub fn stage<T>(
        &mut self,
        mut run: impl FnMut(&mut Harden) -> Result<T, MapError>,
    ) -> Result<T, MapError> {
        let retries = self.cfg.stage_retries;
        let mut attempt = 0usize;
        loop {
            match run(self) {
                Ok(v) => return Ok(v),
                Err(e) if attempt < retries && stage_retryable(&e) => {
                    attempt += 1;
                    obs::inc("core.harden.stage_retries");
                }
                Err(e) => return Err(e),
            }
        }
    }
}

/// Whether re-running a measurement unit can plausibly clear the error:
/// transient MSR faults and noise-shaped measurement rejections, but not
/// systemic conditions like budget exhaustion or solver failures.
fn stage_retryable(e: &MapError) -> bool {
    matches!(
        e,
        MapError::Msr(_)
            | MapError::AmbiguousChaMapping { .. }
            | MapError::DuplicateChaClaim { .. }
    )
}

/// How much of the measurement campaign the returned map is backed by —
/// the degradation ladder of step 3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MapFidelity {
    /// Every observation survived and is explained by the placement.
    Exact,
    /// Some observations were discarded as minority-inconsistent, but the
    /// survivors still constrain every CHA: relative placement is trusted.
    Relative,
    /// Some CHA lost all of its observations, or unexplained observations
    /// remain: the map is a best effort and the listed CHAs are
    /// low-confidence.
    Partial,
}

impl fmt::Display for MapFidelity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            MapFidelity::Exact => "exact",
            MapFidelity::Relative => "relative",
            MapFidelity::Partial => "partial",
        })
    }
}

/// Quality report of a (possibly degraded) reconstruction.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MapQuality {
    /// Where on the exact → relative → partial ladder the map landed.
    pub fidelity: MapFidelity,
    /// Path observations fed to step 3 (survivors + discarded).
    pub total_paths: usize,
    /// Observations discarded as minority-inconsistent.
    pub discarded_paths: usize,
    /// Surviving observations the final placement still fails to explain
    /// (non-zero only when the degradation budget ran out).
    pub unexplained_paths: usize,
    /// Discard-and-re-solve rounds spent.
    pub resolve_rounds: usize,
    /// CHAs left without any surviving observation — their placement is
    /// unconstrained guesswork.
    pub unconstrained_chas: Vec<ChaId>,
    /// Name of the topology hypothesis the map was reconstructed under,
    /// when hypothesis selection ran (empty on the paper-literal path).
    pub winning_topology: Option<String>,
    /// Per-hypothesis verdicts from topology selection, in the order the
    /// hypotheses were supplied (empty on the paper-literal path).
    pub hypothesis_scores: Vec<crate::topology_select::HypothesisScore>,
}

impl Default for MapQuality {
    /// A pristine grade: [`Exact`](MapFidelity::Exact) fidelity with no
    /// paths accounted — the neutral element tests and builders start
    /// from.
    fn default() -> Self {
        Self {
            fidelity: MapFidelity::Exact,
            total_paths: 0,
            discarded_paths: 0,
            unexplained_paths: 0,
            resolve_rounds: 0,
            unconstrained_chas: Vec::new(),
            winning_topology: None,
            hypothesis_scores: Vec::new(),
        }
    }
}

impl MapQuality {
    /// Whether any recovery action degraded the map below [`Exact`]
    /// fidelity.
    ///
    /// [`Exact`]: MapFidelity::Exact
    pub fn is_degraded(&self) -> bool {
        self.fidelity != MapFidelity::Exact
    }
}

impl fmt::Display for MapQuality {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({}/{} paths kept",
            self.fidelity,
            self.total_paths - self.discarded_paths,
            self.total_paths
        )?;
        if self.unexplained_paths > 0 {
            write!(f, ", {} unexplained", self.unexplained_paths)?;
        }
        if !self.unconstrained_chas.is_empty() {
            write!(f, ", {} CHAs unconstrained", self.unconstrained_chas.len())?;
        }
        f.write_str(")")
    }
}

pub(crate) fn grade(
    kept: &ObservationSet,
    discarded: usize,
    unexplained: usize,
    resolve_rounds: usize,
) -> MapQuality {
    let mut covered = vec![false; kept.n_cha];
    for p in &kept.paths {
        covered[p.source.index()] = true;
        covered[p.sink.index()] = true;
        for &(k, _) in &p.vertical {
            covered[k.index()] = true;
        }
        for &k in &p.horizontal {
            covered[k.index()] = true;
        }
    }
    let unconstrained_chas: Vec<ChaId> = covered
        .iter()
        .enumerate()
        .filter(|&(_, &c)| !c)
        .map(|(i, _)| ChaId::new(i as u16))
        .collect();
    let fidelity = if unexplained == 0 && unconstrained_chas.is_empty() {
        if discarded == 0 {
            MapFidelity::Exact
        } else {
            MapFidelity::Relative
        }
    } else {
        MapFidelity::Partial
    };
    MapQuality {
        fidelity,
        total_paths: kept.paths.len() + discarded,
        discarded_paths: discarded,
        unexplained_paths: unexplained,
        resolve_rounds,
        unconstrained_chas,
        winning_topology: None,
        hypothesis_scores: Vec::new(),
    }
}

/// Indices of surviving paths the placement fails to explain.
fn unexplained_paths(
    positions: &[coremap_mesh::TileCoord],
    obs_set: &ObservationSet,
    dim: GridDim,
) -> Vec<usize> {
    obs_set
        .paths
        .iter()
        .enumerate()
        .filter(|(_, p)| !verify::explains_path(positions, p, dim))
        .map(|(i, _)| i)
        .collect()
}

/// Structural conflict scan for the infeasible case: recomputes the
/// row/column alignment classes the class-merged formulation would derive
/// and attributes each direct contradiction (a strict vertical relation
/// asserted in both directions, a self-looping relation, a horizontal path
/// whose endpoints or mids collapse onto one column class) to the minority
/// of the paths supporting it. Heuristic by design: cycles longer than two
/// relations are left to the caller's error path.
fn conflicting_paths(obs_set: &ObservationSet) -> Vec<usize> {
    let n = obs_set.n_cha;
    let mut row_uf = UnionFind::new(n);
    let mut col_uf = UnionFind::new(n);
    for p in &obs_set.paths {
        for &(k, _) in &p.vertical {
            col_uf.union(k.index(), p.source.index());
        }
        for &k in &p.horizontal {
            row_uf.union(k.index(), p.sink.index());
        }
    }
    let row_class: Vec<usize> = (0..n).map(|i| row_uf.find(i)).collect();
    let col_class: Vec<usize> = (0..n).map(|i| col_uf.find(i)).collect();

    let mut bad: BTreeSet<usize> = BTreeSet::new();
    // (a, b) -> paths supporting the strict relation R_a >= R_b + 1.
    let mut strict: BTreeMap<(usize, usize), BTreeSet<usize>> = BTreeMap::new();
    for (pi, p) in obs_set.paths.iter().enumerate() {
        let s = row_class[p.source.index()];
        for &(k, dir) in &p.vertical {
            let kc = row_class[k.index()];
            let rel = match dir {
                VerticalDir::Up => (s, kc),
                VerticalDir::Down => (kc, s),
            };
            strict.entry(rel).or_default().insert(pi);
        }
        if !p.horizontal.is_empty() {
            let cs = col_class[p.source.index()];
            let ce = col_class[p.sink.index()];
            if cs == ce {
                bad.insert(pi);
                continue;
            }
            for &k in &p.horizontal {
                if k == p.sink {
                    continue;
                }
                let kc = col_class[k.index()];
                if kc == cs || kc == ce {
                    bad.insert(pi);
                    break;
                }
            }
        }
    }
    for (&(a, b), supporters) in &strict {
        if a == b {
            bad.extend(supporters.iter().copied());
            continue;
        }
        if a > b {
            continue; // the unordered pair is handled at its (min, max) key
        }
        if let Some(opposing) = strict.get(&(b, a)) {
            let minority = if supporters.len() <= opposing.len() {
                supporters
            } else {
                opposing
            };
            bad.extend(minority.iter().copied());
        }
    }
    bad.into_iter().collect()
}

fn discard(kept: &mut ObservationSet, bad: &[usize]) {
    let bad: BTreeSet<usize> = bad.iter().copied().collect();
    let paths = std::mem::take(&mut kept.paths);
    kept.paths = paths
        .into_iter()
        .enumerate()
        .filter(|(i, _)| !bad.contains(i))
        .map(|(_, p)| p)
        .collect();
}

/// Step 3 with graceful degradation: solves the ILP, checks the placement
/// against the observations, and — within
/// [`RobustnessConfig::degrade_rounds`], discarding at most a quarter of
/// the observations — discards minority-inconsistent observations and
/// re-solves. An infeasible solve
/// triggers the structural conflict scan instead. When the budget runs out
/// on a *solvable* set, the map ships flagged
/// [`MapFidelity::Partial`] rather than erroring; only unsolvable sets
/// still fail.
///
/// The trailing [`SolveOptions`](ilp_model::SolveOptions) argument is
/// accepted and ignored (see its docs); it keeps existing callers building.
///
/// # Errors
///
/// [`MapError::Ilp`] / [`MapError::InconsistentObservations`] when the set
/// stays unsolvable within the degradation budget.
pub fn reconstruct_degrading(
    obs_set: &ObservationSet,
    dim: GridDim,
    full_formulation: bool,
    cfg: &RobustnessConfig,
    _solve_opts: ilp_model::SolveOptions,
) -> Result<(Reconstruction, MapQuality), MapError> {
    let total = obs_set.paths.len();
    let max_discard = (total as f64 * MAX_DISCARD_FRACTION).floor() as usize;
    let mut kept = obs_set.clone();
    let mut discarded = 0usize;
    let mut rounds = 0usize;
    loop {
        let solved = if full_formulation {
            ilp_model::reconstruct_full(&kept, dim)
        } else {
            ilp_model::reconstruct(&kept, dim)
        };
        match solved {
            Ok(rec) => {
                let bad = unexplained_paths(&rec.positions, &kept, dim);
                if bad.is_empty() {
                    obs::add("core.harden.discarded_paths", discarded as u64);
                    return Ok((rec, grade(&kept, discarded, 0, rounds)));
                }
                if rounds >= cfg.degrade_rounds || discarded + bad.len() > max_discard {
                    // Budget exhausted but the set solved: ship the map at
                    // the ladder's floor instead of erroring.
                    obs::add("core.harden.discarded_paths", discarded as u64);
                    obs::add("core.harden.unexplained_paths", bad.len() as u64);
                    let quality = grade(&kept, discarded, bad.len(), rounds);
                    return Ok((rec, quality));
                }
                discarded += bad.len();
                discard(&mut kept, &bad);
                rounds += 1;
                obs::inc("core.harden.resolve_rounds");
            }
            Err(e @ (MapError::InconsistentObservations | MapError::Ilp(_))) => {
                if rounds >= cfg.degrade_rounds {
                    return Err(e);
                }
                let bad = conflicting_paths(&kept);
                if bad.is_empty() || discarded + bad.len() > max_discard {
                    return Err(e);
                }
                discarded += bad.len();
                discard(&mut kept, &bad);
                rounds += 1;
                obs::inc("core.harden.resolve_rounds");
            }
            Err(e) => return Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;
    use crate::traffic::PathObservation;
    use coremap_mesh::{DieTemplate, FloorplanBuilder};

    #[test]
    fn retry_recovers_from_transient_failures() {
        let mut h = Harden::new(RobustnessConfig::default());
        let mut failures = 2;
        let out = h.msr(|| {
            if failures > 0 {
                failures -= 1;
                Err(MsrError::PermissionDenied)
            } else {
                Ok(42u64)
            }
        });
        assert_eq!(out, Ok(42));
    }

    #[test]
    fn retry_exhaustion_propagates_the_error() {
        let mut h = Harden::new(RobustnessConfig::default());
        let out: Result<u64, _> = h.msr(|| Err(MsrError::PermissionDenied));
        assert_eq!(out, Err(MsrError::PermissionDenied));
        // And with retry disabled the op runs exactly once.
        let mut h = Harden::new(RobustnessConfig::off());
        let mut calls = 0;
        let _: Result<u64, _> = h.msr(|| {
            calls += 1;
            Err(MsrError::PermissionDenied)
        });
        assert_eq!(calls, 1);
    }

    #[test]
    fn median_of_three_absorbs_a_dropped_sample() {
        let mut h = Harden::new(RobustnessConfig::hardened());
        let values = [17u64, 0, 17]; // middle read dropped to 0
        let mut i = 0;
        let out = h.counter(|| {
            let v = values[i];
            i += 1;
            Ok(v)
        });
        assert_eq!(out, Ok(17));
    }

    #[test]
    fn stage_retry_reruns_transient_units_but_not_systemic_errors() {
        let mut h = Harden::new(RobustnessConfig::default());
        let mut failures = 1;
        let out = h.stage(|_| {
            if failures > 0 {
                failures -= 1;
                Err(MapError::Msr(MsrError::PermissionDenied))
            } else {
                Ok(7u32)
            }
        });
        assert_eq!(out.unwrap(), 7);

        let mut calls = 0;
        let out: Result<(), _> = h.stage(|_| {
            calls += 1;
            Err(MapError::InconsistentObservations)
        });
        assert!(out.is_err());
        assert_eq!(calls, 1, "systemic errors must not be re-run");
    }

    #[test]
    fn degrading_solve_discards_a_minority_corrupt_path() {
        let plan = FloorplanBuilder::new(DieTemplate::SkylakeXcc)
            .build()
            .unwrap();
        let mut obs_set = ObservationSet::synthetic(&plan);
        // Flip every vertical direction of one multi-hop path: its strict
        // row relations now contradict the (majority) truthful ones.
        let victim = obs_set
            .paths
            .iter()
            .position(|p| p.vertical.len() >= 2)
            .unwrap();
        for v in &mut obs_set.paths[victim].vertical {
            v.1 = match v.1 {
                VerticalDir::Up => VerticalDir::Down,
                VerticalDir::Down => VerticalDir::Up,
            };
        }
        let cfg = RobustnessConfig::hardened();
        let (rec, quality) =
            reconstruct_degrading(&obs_set, plan.dim(), false, &cfg, Default::default()).unwrap();
        assert_eq!(quality.fidelity, MapFidelity::Relative);
        assert!(quality.discarded_paths >= 1);
        assert!(verify::positions_match_relative(&rec.positions, &plan));
    }

    #[test]
    fn zero_discard_budget_reproduces_the_strict_pipeline() {
        let plan = FloorplanBuilder::new(DieTemplate::SkylakeXcc)
            .build()
            .unwrap();
        let mut obs_set = ObservationSet::synthetic(&plan);
        let victim = obs_set
            .paths
            .iter()
            .position(|p| p.vertical.len() >= 2)
            .unwrap();
        for v in &mut obs_set.paths[victim].vertical {
            v.1 = match v.1 {
                VerticalDir::Up => VerticalDir::Down,
                VerticalDir::Down => VerticalDir::Up,
            };
        }
        let strict = RobustnessConfig::off();
        assert!(
            reconstruct_degrading(&obs_set, plan.dim(), false, &strict, Default::default())
                .is_err()
        );
    }

    #[test]
    fn clean_observations_grade_exact() {
        let plan = FloorplanBuilder::new(DieTemplate::SkylakeXcc)
            .build()
            .unwrap();
        let obs_set = ObservationSet::synthetic(&plan);
        let cfg = RobustnessConfig::default();
        let (rec, quality) =
            reconstruct_degrading(&obs_set, plan.dim(), false, &cfg, Default::default()).unwrap();
        assert_eq!(quality.fidelity, MapFidelity::Exact);
        assert_eq!(quality.discarded_paths, 0);
        assert!(!quality.is_degraded());
        assert!(verify::positions_match(&rec.positions, &plan));
    }

    #[test]
    fn quality_reports_unconstrained_chas_as_partial() {
        // Three CHAs, but only 0 and 1 are observed: CHA 2 is guesswork.
        let obs_set = ObservationSet {
            n_cha: 3,
            paths: vec![PathObservation {
                source: ChaId::new(0),
                sink: ChaId::new(1),
                vertical: vec![(ChaId::new(1), VerticalDir::Up)],
                horizontal: vec![],
            }],
        };
        let dim = GridDim { rows: 3, cols: 3 };
        let cfg = RobustnessConfig::default();
        let (_, quality) =
            reconstruct_degrading(&obs_set, dim, false, &cfg, Default::default()).unwrap();
        assert_eq!(quality.fidelity, MapFidelity::Partial);
        assert_eq!(quality.unconstrained_chas, vec![ChaId::new(2)]);
        assert_eq!(
            format!("{quality}"),
            "partial (1/1 paths kept, 1 CHAs unconstrained)"
        );
    }
}
