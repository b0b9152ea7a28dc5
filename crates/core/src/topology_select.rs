//! Topology hypothesis selection: which member of the topology zoo did the
//! observations come from?
//!
//! The paper assumes the die under measurement is *known* (a Skylake or Ice
//! Lake XCC mesh routing Y-then-X). This module drops that assumption: the
//! mapper is handed a *set* of [`Topology`] hypotheses, one reconstruction
//! is attempted per hypothesis, and the best fit wins. A hypothesis is
//! scored on three axes:
//!
//! 1. **Feasibility** — does a placement satisfying every ILP constraint
//!    exist on the hypothesis grid under its routing discipline? A
//!    wrong-discipline hypothesis typically collapses into
//!    [`MapError::InconsistentObservations`] (the alignment classes merge a
//!    contradiction), echoing the routing-assumption ablation.
//! 2. **Explanation** — does replaying every observed path over the
//!    recovered placement under the hypothesis's routing reproduce every
//!    observed ingress event? Feasible embeddings of a small die into a
//!    larger hypothetical grid pass this too, so explanation alone cannot
//!    separate geometrically-compatible dies.
//! 3. **Numbering consistency** — do the recovered positions fall on the
//!    hypothesis's CHA-capable tiles *in its CHA numbering order* (up to
//!    the unknowable horizontal mirror)? This is the axis that separates a
//!    column-major Skylake trace from a row-major Ice Lake hypothesis:
//!    both admit feasible placements, but the scan orders disagree.
//!
//! Ring interconnects carry no row/column geometry, so the mesh ILP is
//! replaced by a combinatorial solver: the observer count of each path from
//! a fixed source is its cyclic distance, which pins the CHA order around
//! the ring; the order is then embedded at every rotation/reflection of the
//! hypothesis cycle until one replays all observations.
//!
//! Ties are broken by hypothesis list order (first wins). This is
//! deliberate: geometrically identical dies (Skylake XCC vs Cascade Lake
//! XCC) tie *perfectly* — no observation can separate them — so callers put
//! the prior (e.g. the fleet's declared model) first.

use std::collections::BTreeMap;

use coremap_mesh::route::ring_cycle;
use coremap_mesh::{RoutingDiscipline, TileCoord, Topology};
use serde::{Deserialize, Serialize};

use crate::ilp_model::{reconstruct_disciplined, Reconstruction};
use crate::traffic::ObservationSet;
use crate::verify::explains_path_with;

/// Fit report of one topology hypothesis against one observation set.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HypothesisScore {
    /// Name of the hypothesis ([`Topology::name`]).
    pub name: String,
    /// Whether a constraint-satisfying placement exists at all.
    pub feasible: bool,
    /// Fraction of observed paths the recovered placement replays under
    /// the hypothesis's routing discipline (0.0 when infeasible).
    pub explained: f64,
    /// Whether the placement respects the hypothesis's CHA numbering order
    /// over its core-capable tiles (mirror-tolerant; vacuously true for
    /// ring hypotheses, where the order is recovered, not assumed).
    pub numbering_consistent: bool,
    /// Tightest-map objective of the reconstruction (0.0 when infeasible
    /// or for the combinatorial ring solver).
    pub objective: f64,
    /// Why the hypothesis was eliminated, if it was.
    pub eliminated_by: Option<String>,
}

impl HypothesisScore {
    /// Whether the hypothesis survived all elimination axes.
    pub fn survives(&self) -> bool {
        self.eliminated_by.is_none()
    }
}

/// Outcome of scoring a hypothesis set.
#[derive(Debug, Clone)]
pub struct Selection {
    /// Index of the winning hypothesis in the input slice, if any survived.
    pub winner: Option<usize>,
    /// Reconstruction under the winning hypothesis.
    pub reconstruction: Option<Reconstruction>,
    /// Per-hypothesis scores, in input order.
    pub scores: Vec<HypothesisScore>,
}

impl Selection {
    /// Name of the winning topology, if any.
    pub fn winner_name(&self) -> Option<&str> {
        self.winner.map(|i| self.scores[i].name.as_str())
    }
}

/// Scores every hypothesis against the observations and picks the first
/// surviving one (list order breaks ties — see the module docs).
///
/// Infeasibility of individual hypotheses is *data* here, not failure: the
/// function only reports, the caller decides whether an empty winner is an
/// error.
pub fn select(obs: &ObservationSet, hypotheses: &[Topology]) -> Selection {
    let mut scores = Vec::with_capacity(hypotheses.len());
    let mut winner = None;
    let mut reconstruction = None;
    for (i, topo) in hypotheses.iter().enumerate() {
        let (score, rec) = score_one(obs, topo);
        if winner.is_none() && score.survives() {
            winner = Some(i);
            reconstruction = rec;
        }
        scores.push(score);
    }
    Selection {
        winner,
        reconstruction,
        scores,
    }
}

fn eliminated(topo: &Topology, why: String) -> HypothesisScore {
    HypothesisScore {
        name: topo.name().to_owned(),
        feasible: false,
        explained: 0.0,
        numbering_consistent: false,
        objective: 0.0,
        eliminated_by: Some(why),
    }
}

fn score_one(obs: &ObservationSet, topo: &Topology) -> (HypothesisScore, Option<Reconstruction>) {
    if let RoutingDiscipline::Ring { .. } = topo.routing() {
        return score_ring(obs, topo);
    }
    if obs.n_cha > topo.core_capable_count() {
        return (
            eliminated(
                topo,
                format!(
                    "{} CHAs exceed the {} CHA-capable tiles",
                    obs.n_cha,
                    topo.core_capable_count()
                ),
            ),
            None,
        );
    }
    let rec = match reconstruct_disciplined(obs, topo.dim(), topo.routing()) {
        Ok(rec) => rec,
        Err(e) => {
            return (
                eliminated(topo, format!("reconstruction infeasible: {e}")),
                None,
            );
        }
    };
    let unexplained = obs
        .paths
        .iter()
        .filter(|p| !explains_path_with(&rec.positions, p, topo.dim(), topo.routing()))
        .count();
    let explained = if obs.paths.is_empty() {
        1.0
    } else {
        (obs.paths.len() - unexplained) as f64 / obs.paths.len() as f64
    };
    let numbering = numbering_consistent(&rec.positions, topo);
    let eliminated_by = if unexplained > 0 {
        Some(format!(
            "placement fails to replay {unexplained} of {} observations",
            obs.paths.len()
        ))
    } else if !numbering {
        Some("CHA numbering order mismatch on the hypothesis grid".to_owned())
    } else {
        None
    };
    let score = HypothesisScore {
        name: topo.name().to_owned(),
        feasible: true,
        explained,
        numbering_consistent: numbering,
        objective: rec.objective,
        eliminated_by,
    };
    let rec = score.survives().then_some(rec);
    (score, rec)
}

/// Mirror-tolerant CHA-numbering check: every recovered position must be a
/// CHA-capable tile of the hypothesis, and position rank in the
/// hypothesis's numbering scan must increase strictly with CHA ID — for
/// the placement as-is or for its horizontal mirror image.
fn numbering_consistent(positions: &[TileCoord], topo: &Topology) -> bool {
    let rank: BTreeMap<TileCoord, usize> = topo
        .core_capable_positions()
        .iter()
        .copied()
        .enumerate()
        .map(|(i, c)| (c, i))
        .collect();
    let cols = topo.dim().cols;
    let ordered = |mirror: bool| {
        let mut last = None;
        for &p in positions {
            let c = if mirror {
                TileCoord::new(p.row, cols - 1 - p.col)
            } else {
                p
            };
            let Some(&r) = rank.get(&c) else { return false };
            if last.is_some_and(|l| r <= l) {
                return false;
            }
            last = Some(r);
        }
        true
    };
    ordered(false) || ordered(true)
}

/// Combinatorial ring solver. The observer count of a path is its hop
/// count (every ring tile hosts a CHA), i.e. the cyclic distance from
/// source to sink in travel polarity — so the paths out of one fixed
/// source order *all* CHAs around the cycle. The recovered order is then
/// embedded at each rotation and reflection of the hypothesis cycle; a
/// candidate wins by replaying every observation.
fn score_ring(obs: &ObservationSet, topo: &Topology) -> (HypothesisScore, Option<Reconstruction>) {
    let n = obs.n_cha;
    if n != topo.dim().tile_count() || n != topo.core_capable_count() {
        return (
            eliminated(
                topo,
                format!(
                    "ring needs one CHA per tile ({} CHAs on {} tiles)",
                    n,
                    topo.dim().tile_count()
                ),
            ),
            None,
        );
    }
    if n < 3 {
        return (eliminated(topo, "ring too small to order".to_owned()), None);
    }

    // Cyclic CHA order from the fixed source's observer counts.
    let mut order: Vec<Option<usize>> = vec![None; n];
    order[0] = Some(0);
    for p in obs.paths.iter().filter(|p| p.source.index() == 0) {
        let d = p.vertical.len() + p.horizontal.len();
        if d == 0 || d >= n || order[d].is_some() {
            return (
                eliminated(topo, "observer counts do not form a ring order".to_owned()),
                None,
            );
        }
        order[d] = Some(p.sink.index());
    }
    let Some(order): Option<Vec<usize>> = order.into_iter().collect() else {
        return (
            eliminated(topo, "observer counts do not form a ring order".to_owned()),
            None,
        );
    };

    // Embed the order at every rotation (and reflection, covering the
    // opposite travel polarity) of the hypothesis cycle.
    let cycle = ring_cycle(topo.dim());
    for reflected in [false, true] {
        for r in 0..n {
            let mut positions = vec![TileCoord::new(0, 0); n];
            for (d, &cha) in order.iter().enumerate() {
                let idx = if reflected {
                    (r + n - d) % n
                } else {
                    (r + d) % n
                };
                positions[cha] = cycle[idx];
            }
            let ok = obs
                .paths
                .iter()
                .all(|p| explains_path_with(&positions, p, topo.dim(), topo.routing()));
            if ok {
                let score = HypothesisScore {
                    name: topo.name().to_owned(),
                    feasible: true,
                    explained: 1.0,
                    numbering_consistent: true,
                    objective: 0.0,
                    eliminated_by: None,
                };
                let rec = Reconstruction {
                    positions,
                    stats: coremap_ilp::SolveStats::default(),
                    objective: 0.0,
                };
                return (score, Some(rec));
            }
        }
    }
    (
        eliminated(topo, "no ring embedding replays the trace".to_owned()),
        None,
    )
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;
    use coremap_mesh::FloorplanBuilder;

    fn builtin(name: &str) -> Topology {
        Topology::builtin(name).unwrap().clone()
    }

    fn synthetic_for(name: &str) -> (ObservationSet, coremap_mesh::Floorplan) {
        let plan = FloorplanBuilder::from_topology(builtin(name))
            .build()
            .unwrap();
        (ObservationSet::synthetic(&plan), plan)
    }

    fn zoo() -> Vec<Topology> {
        Topology::builtins().iter().map(|&t| t.clone()).collect()
    }

    #[test]
    fn skylake_trace_selects_skylake() {
        let (obs, _) = synthetic_for("skylake-xcc");
        let sel = select(&obs, &zoo());
        assert_eq!(sel.winner_name(), Some("skylake-xcc"));
        // Cascade Lake is geometrically identical: it must also survive,
        // losing only on list order.
        let clx = &sel.scores[1];
        assert_eq!(clx.name, "cascadelake-xcc");
        assert!(clx.survives());
        // Ice Lake is feasible as an embedding but numbering-inconsistent.
        let icx = &sel.scores[2];
        assert_eq!(icx.name, "icelake-xcc");
        assert!(!icx.survives());
        // The ring cannot explain a mesh trace.
        let ring = &sel.scores[5];
        assert_eq!(ring.name, "ring-28");
        assert!(!ring.survives());
    }

    #[test]
    fn icelake_trace_selects_icelake() {
        let (obs, _) = synthetic_for("icelake-xcc");
        let sel = select(&obs, &zoo());
        assert_eq!(sel.winner_name(), Some("icelake-xcc"));
        // 40 CHAs cannot fit the 28-capable Skylake grid.
        assert!(!sel.scores[0].survives());
        assert!(sel.scores[0]
            .eliminated_by
            .as_deref()
            .unwrap()
            .contains("exceed"));
    }

    #[test]
    fn ring_trace_selects_ring() {
        let (obs, plan) = synthetic_for("ring-28");
        let sel = select(&obs, &zoo());
        assert_eq!(sel.winner_name(), Some("ring-28"));
        let rec = sel.reconstruction.unwrap();
        // The recovered embedding replays every observation.
        assert!(obs.paths.iter().all(|p| explains_path_with(
            &rec.positions,
            p,
            plan.dim(),
            RoutingDiscipline::Ring { clockwise: true }
        )));
    }

    #[test]
    fn xfirst_trace_selects_xfirst() {
        let (obs, _) = synthetic_for("skylake-xcc-xfirst");
        let sel = select(&obs, &zoo());
        assert_eq!(sel.winner_name(), Some("skylake-xcc-xfirst"));
        // The Y-then-X hypotheses must not survive an X-then-Y trace.
        assert!(!sel.scores[0].survives());
    }

    #[test]
    fn empty_hypothesis_set_has_no_winner() {
        let (obs, _) = synthetic_for("skylake-xcc");
        let sel = select(&obs, &[]);
        assert!(sel.winner.is_none());
        assert!(sel.scores.is_empty());
    }
}
