//! Ground-truth verification of reconstructed maps.
//!
//! Reconstruction is exact up to the ambiguities the paper documents:
//!
//! * the horizontal orientation is unknowable (odd-column label flip), so a
//!   map may be the mirror image of the truth;
//! * fully vacant rows/columns cannot be pinned (Sec. II-D) — and the
//!   tightest-map objective compacts them away — so sparse dies are checked
//!   for *relative* correctness: the recovered row order, column order and
//!   all equalities must be isomorphic to the truth.

use coremap_mesh::{ChaId, Floorplan, TileCoord};

use crate::CoreMap;

fn truth_positions(plan: &Floorplan) -> Vec<TileCoord> {
    plan.chas().map(|cha| plan.coord_of_cha(cha)).collect()
}

/// Exact positional match of per-CHA positions against the floorplan,
/// allowing the horizontal mirror image.
pub fn positions_match(positions: &[TileCoord], plan: &Floorplan) -> bool {
    let truth = truth_positions(plan);
    if positions.len() != truth.len() {
        return false;
    }
    let w = plan.dim().cols;
    let direct = positions == truth.as_slice();
    let mirrored = positions
        .iter()
        .zip(&truth)
        .all(|(p, t)| p.row == t.row && p.col == w - 1 - t.col);
    direct || mirrored
}

/// Relative (order-isomorphic) match: all pairwise row relations equal the
/// truth's, and all pairwise column relations equal the truth's up to one
/// global mirror.
pub fn positions_match_relative(positions: &[TileCoord], plan: &Floorplan) -> bool {
    let truth = truth_positions(plan);
    relative_match(positions, &truth)
}

/// Relative match between two arbitrary placements (used to compare two
/// reconstructions of the same machine as well).
pub fn relative_match(a: &[TileCoord], b: &[TileCoord]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let n = a.len();
    // Rows: orders must match exactly (vertical orientation is absolute).
    for i in 0..n {
        for j in 0..n {
            let ra = a[i].row.cmp(&a[j].row);
            let rb = b[i].row.cmp(&b[j].row);
            if ra != rb {
                return false;
            }
        }
    }
    // Columns: match directly or with all comparisons flipped.
    let col_ok = |flip: bool| {
        (0..n).all(|i| {
            (0..n).all(|j| {
                let ca = a[i].col.cmp(&a[j].col);
                let cb = b[i].col.cmp(&b[j].col);
                if flip {
                    ca == cb.reverse()
                } else {
                    ca == cb
                }
            })
        })
    };
    col_ok(false) || col_ok(true)
}

/// Exact match of a [`CoreMap`] against ground truth (positions per CHA,
/// the OS-core mapping and LLC-only set), mirror-tolerant.
pub fn matches_exactly(map: &CoreMap, plan: &Floorplan) -> bool {
    let positions: Vec<TileCoord> = plan.chas().map(|cha| map.coord_of_cha(cha)).collect();
    positions_match(&positions, plan)
        && map.core_to_cha() == plan.core_to_cha()
        && map.llc_only() == plan.llc_only_chas()
}

/// Relative match of a [`CoreMap`] against ground truth.
pub fn matches_relative(map: &CoreMap, plan: &Floorplan) -> bool {
    if map.cha_count() != plan.cha_count() {
        return false;
    }
    let positions: Vec<TileCoord> = plan.chas().map(|cha| map.coord_of_cha(cha)).collect();
    positions_match_relative(&positions, plan)
        && map.core_to_cha() == plan.core_to_cha()
        && map.llc_only() == plan.llc_only_chas()
}

/// Fraction of CHA pairs whose relative placement (row relation and column
/// relation up to the better of the two mirror orientations) matches the
/// truth — the accuracy metric used by the observation-budget ablation.
pub fn pairwise_accuracy(positions: &[TileCoord], plan: &Floorplan) -> f64 {
    let truth = truth_positions(plan);
    let n = truth.len().min(positions.len());
    if n < 2 {
        return 1.0;
    }
    let score = |flip: bool| {
        let mut good = 0usize;
        let mut total = 0usize;
        for i in 0..n {
            for j in (i + 1)..n {
                total += 1;
                let row_ok =
                    positions[i].row.cmp(&positions[j].row) == truth[i].row.cmp(&truth[j].row);
                let ca = positions[i].col.cmp(&positions[j].col);
                let cb = truth[i].col.cmp(&truth[j].col);
                let col_ok = if flip { ca == cb.reverse() } else { ca == cb };
                if row_ok && col_ok {
                    good += 1;
                }
            }
        }
        good as f64 / total as f64
    };
    score(false).max(score(true))
}

/// Checks that a recovered placement *explains every observation*: replaying
/// each observed path's dimension-order route over the recovered positions
/// must reproduce every observed ingress event at the observing tile
/// (vertical events with truthful direction, horizontal events by
/// presence). Extra predicted events are allowed — the paper's ILP uses
/// only positive observations, so placements that *would* have produced
/// additional events on hidden tiles remain admissible.
///
/// This is the correct acceptance test for sparse dies, where disabled
/// tiles hide enough of the mesh that several placements are legitimately
/// consistent with all measurements (the paper's Sec. II-D failure modes).
pub fn observations_consistent(
    positions: &[TileCoord],
    obs: &crate::ObservationSet,
    dim: coremap_mesh::GridDim,
) -> bool {
    obs.paths.iter().all(|p| explains_path(positions, p, dim))
}

/// Per-path variant of [`observations_consistent`]: whether the placement
/// explains one observation. The degradation pass of
/// [`harden`](crate::harden) uses this to isolate the inconsistent
/// minority instead of rejecting the whole set.
pub fn explains_path(
    positions: &[TileCoord],
    p: &crate::PathObservation,
    dim: coremap_mesh::GridDim,
) -> bool {
    explains_path_with(
        positions,
        p,
        dim,
        coremap_mesh::RoutingDiscipline::VerticalFirst,
    )
}

/// [`explains_path`] generalized over the routing discipline: replays the
/// observed path under `discipline` instead of the paper's Y-then-X rule.
/// Topology hypothesis selection uses this to score a candidate placement
/// against a hypothesis whose interconnect routes differently.
pub fn explains_path_with(
    positions: &[TileCoord],
    p: &crate::PathObservation,
    dim: coremap_mesh::GridDim,
    discipline: coremap_mesh::RoutingDiscipline,
) -> bool {
    use crate::traffic::VerticalDir;
    use coremap_mesh::route::route_with;
    use coremap_mesh::Direction;
    use std::collections::BTreeSet;

    let tile_of = |cha: ChaId| positions[cha.index()];
    let cha_at = |coord: TileCoord| -> Option<usize> { positions.iter().position(|&p| p == coord) };

    let r = route_with(tile_of(p.source), tile_of(p.sink), dim, discipline);
    let mut pred_vertical: BTreeSet<(usize, VerticalDir)> = BTreeSet::new();
    let mut pred_horizontal: BTreeSet<usize> = BTreeSet::new();
    for ev in r.events() {
        let Some(cha) = cha_at(ev.tile) else { continue };
        match ev.true_direction {
            Direction::Up => {
                pred_vertical.insert((cha, VerticalDir::Up));
            }
            Direction::Down => {
                pred_vertical.insert((cha, VerticalDir::Down));
            }
            _ => {
                pred_horizontal.insert(cha);
            }
        }
    }
    let vertical_ok = p
        .vertical
        .iter()
        .all(|&(c, d)| pred_vertical.contains(&(c.index(), d)));
    let horizontal_ok = p
        .horizontal
        .iter()
        .all(|&c| pred_horizontal.contains(&c.index()));
    vertical_ok && horizontal_ok
}

/// CHAs that the map places adjacent (1 hop) to the given CHA which are
/// *not* adjacent in the truth, plus vice versa — the neighbour error used
/// by the thermal-verification experiment (paper Sec. V-D).
pub fn neighbor_errors(map: &CoreMap, plan: &Floorplan, cha: ChaId) -> usize {
    let truth_pos = plan.coord_of_cha(cha);
    let map_pos = map.coord_of_cha(cha);
    let mut errors = 0;
    for other in plan.chas() {
        if other == cha {
            continue;
        }
        let t_adj = truth_pos.hop_distance(plan.coord_of_cha(other)) == 1;
        let m_adj = map_pos.hop_distance(map.coord_of_cha(other)) == 1;
        if t_adj != m_adj {
            errors += 1;
        }
    }
    errors
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;
    use coremap_mesh::{DieTemplate, FloorplanBuilder};

    #[test]
    fn truth_matches_itself() {
        let plan = FloorplanBuilder::new(DieTemplate::SkylakeXcc)
            .build()
            .unwrap();
        let truth = truth_positions(&plan);
        assert!(positions_match(&truth, &plan));
        assert!(positions_match_relative(&truth, &plan));
        assert_eq!(pairwise_accuracy(&truth, &plan), 1.0);
    }

    #[test]
    fn mirror_matches() {
        let plan = FloorplanBuilder::new(DieTemplate::SkylakeXcc)
            .build()
            .unwrap();
        let w = plan.dim().cols;
        let mirrored: Vec<TileCoord> = truth_positions(&plan)
            .into_iter()
            .map(|t| TileCoord::new(t.row, w - 1 - t.col))
            .collect();
        assert!(positions_match(&mirrored, &plan));
        assert!(positions_match_relative(&mirrored, &plan));
    }

    #[test]
    fn vertical_flip_does_not_match() {
        let plan = FloorplanBuilder::new(DieTemplate::SkylakeXcc)
            .build()
            .unwrap();
        let h = plan.dim().rows;
        let flipped: Vec<TileCoord> = truth_positions(&plan)
            .into_iter()
            .map(|t| TileCoord::new(h - 1 - t.row, t.col))
            .collect();
        assert!(!positions_match(&flipped, &plan));
        assert!(!positions_match_relative(&flipped, &plan));
    }

    #[test]
    fn swapped_tiles_do_not_match() {
        let plan = FloorplanBuilder::new(DieTemplate::SkylakeXcc)
            .build()
            .unwrap();
        let mut perturbed = truth_positions(&plan);
        perturbed.swap(0, 9);
        assert!(!positions_match(&perturbed, &plan));
        assert!(!positions_match_relative(&perturbed, &plan));
        assert!(pairwise_accuracy(&perturbed, &plan) < 1.0);
    }

    #[test]
    fn compacted_sparse_map_matches_relatively_only() {
        // Truth occupies rows {0,2,4} of column 0; a tightest-map output
        // compacts them to {0,1,2}.
        let t = DieTemplate::SkylakeXcc;
        let keep = [
            coremap_mesh::TileCoord::new(0, 0),
            coremap_mesh::TileCoord::new(2, 0),
            coremap_mesh::TileCoord::new(4, 0),
        ];
        let disable = t
            .core_capable_positions()
            .iter()
            .copied()
            .filter(|p| !keep.contains(p));
        let plan = FloorplanBuilder::new(t)
            .disable_all(disable)
            .build()
            .unwrap();
        let compacted = vec![
            TileCoord::new(0, 0),
            TileCoord::new(1, 0),
            TileCoord::new(2, 0),
        ];
        assert!(!positions_match(&compacted, &plan));
        assert!(positions_match_relative(&compacted, &plan));
    }
}
