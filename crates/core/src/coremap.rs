//! The reconstructed core map.

use std::collections::BTreeMap;
use std::fmt;

use coremap_mesh::{ChaId, DieTemplate, GridDim, OsCoreId, Ppin, TileCoord};
use serde::{Deserialize, Serialize};

/// A fully reconstructed core map of one CPU instance: physical grid
/// positions for every active CHA, the OS-core ↔ CHA mapping and the set of
/// LLC-only tiles — everything an attacker needs to plan location-based
/// attacks (paper Sec. IV), keyed by the chip's PPIN so the root-privileged
/// mapping runs once per physical chip.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CoreMap {
    ppin: Option<Ppin>,
    dim: GridDim,
    template: Option<DieTemplate>,
    topology: Option<String>,
    positions: Vec<TileCoord>,
    core_to_cha: Vec<ChaId>,
    llc_only: Vec<ChaId>,
}

impl CoreMap {
    /// Assembles a core map from its parts.
    ///
    /// # Panics
    ///
    /// Panics if a position lies outside `dim` or an index is inconsistent.
    pub fn new(
        dim: GridDim,
        positions: Vec<TileCoord>,
        core_to_cha: Vec<ChaId>,
        llc_only: Vec<ChaId>,
    ) -> Self {
        for &p in &positions {
            assert!(dim.contains(p), "position {p} outside {dim}");
        }
        for &cha in core_to_cha.iter().chain(llc_only.iter()) {
            assert!(cha.index() < positions.len(), "{cha} has no position");
        }
        Self {
            ppin: None,
            dim,
            template: None,
            topology: None,
            positions,
            core_to_cha,
            llc_only,
        }
    }

    /// Checks the conditions [`new`](Self::new) asserts, plus one CHA per
    /// tile. Deserialization bypasses `new`, so a map read back from
    /// storage is checked here before it is served.
    ///
    /// # Errors
    ///
    /// The first [`PlacementDefect`] found.
    pub fn check(&self) -> Result<(), PlacementDefect> {
        check_placement(self.dim, &self.positions)?;
        match self
            .core_to_cha
            .iter()
            .chain(&self.llc_only)
            .find(|cha| cha.index() >= self.positions.len())
        {
            Some(cha) => Err(PlacementDefect::Unplaced { cha: cha.index() }),
            None => Ok(()),
        }
    }

    /// Attaches the machine's PPIN.
    pub fn with_ppin(mut self, ppin: Ppin) -> Self {
        self.ppin = Some(ppin);
        self
    }

    /// A copy of this map with the PPIN removed — the chip-anonymous
    /// *pattern* form that fleet databases store once per unique layout,
    /// however many chips share it.
    pub fn without_ppin(mut self) -> Self {
        self.ppin = None;
        self
    }

    /// Attaches the die template (enables IMC tiles in renderings).
    pub fn with_template(mut self, template: DieTemplate) -> Self {
        self.template = Some(template);
        self
    }

    /// Records which topology the map was reconstructed under (the winning
    /// hypothesis when topology selection ran, or the declared die).
    pub fn with_topology_name(mut self, name: impl Into<String>) -> Self {
        self.topology = Some(name.into());
        self
    }

    /// Name of the topology the map was reconstructed under, if recorded.
    pub fn topology_name(&self) -> Option<&str> {
        self.topology.as_deref()
    }

    /// PPIN of the mapped chip, if recorded.
    pub fn ppin(&self) -> Option<Ppin> {
        self.ppin
    }

    /// Grid dimensions.
    pub fn dim(&self) -> GridDim {
        self.dim
    }

    /// Number of active CHAs.
    pub fn cha_count(&self) -> usize {
        self.positions.len()
    }

    /// Number of enabled cores.
    pub fn core_count(&self) -> usize {
        self.core_to_cha.len()
    }

    /// Recovered position of a CHA.
    ///
    /// # Panics
    ///
    /// Panics if `cha` is out of range.
    pub fn coord_of_cha(&self, cha: ChaId) -> TileCoord {
        self.positions[cha.index()]
    }

    /// Recovered position of an OS core.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn coord_of_core(&self, core: OsCoreId) -> TileCoord {
        self.coord_of_cha(self.cha_of_core(core))
    }

    /// CHA co-located with an OS core.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn cha_of_core(&self, core: OsCoreId) -> ChaId {
        self.core_to_cha[core.index()]
    }

    /// OS core co-located with a CHA, if the tile has one.
    pub fn core_of_cha(&self, cha: ChaId) -> Option<OsCoreId> {
        self.core_to_cha
            .iter()
            .position(|&c| c == cha)
            .map(|i| OsCoreId::new(i as u16))
    }

    /// The recovered OS-core → CHA mapping, indexed by OS core.
    pub fn core_to_cha(&self) -> Vec<ChaId> {
        self.core_to_cha.clone()
    }

    /// LLC-only CHAs (ascending).
    pub fn llc_only(&self) -> Vec<ChaId> {
        self.llc_only.clone()
    }

    /// The CHA mapped at `coord`, if any.
    pub fn cha_at(&self, coord: TileCoord) -> Option<ChaId> {
        self.positions
            .iter()
            .position(|&p| p == coord)
            .map(|i| ChaId::new(i as u16))
    }

    /// Hop distance between two cores on the recovered map.
    ///
    /// # Panics
    ///
    /// Panics if either core is out of range.
    pub fn hop_distance(&self, a: OsCoreId, b: OsCoreId) -> usize {
        self.coord_of_core(a).hop_distance(self.coord_of_core(b))
    }

    /// Cores on tiles directly adjacent (1 hop) to `core`, with the
    /// direction from `core` toward each neighbour — the placement oracle
    /// of the thermal covert channel (paper Sec. IV).
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn neighbor_cores(&self, core: OsCoreId) -> Vec<(OsCoreId, coremap_mesh::Direction)> {
        let pos = self.coord_of_core(core);
        pos.neighbors(self.dim)
            .filter_map(|(dir, coord)| {
                self.cha_at(coord)
                    .and_then(|cha| self.core_of_cha(cha))
                    .map(|c| (c, dir))
            })
            .collect()
    }

    /// Cores vertically adjacent to `core` (the strongest thermal coupling
    /// direction: a Xeon core tile is a horizontally long rectangle, paper
    /// Sec. V-A).
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn vertical_neighbor_cores(&self, core: OsCoreId) -> Vec<OsCoreId> {
        self.neighbor_cores(core)
            .into_iter()
            .filter(|&(_, d)| d.is_vertical())
            .map(|(c, _)| c)
            .collect()
    }

    /// A canonical textual pattern key: two instances share a key exactly
    /// when their recovered maps are identical (tile kinds, CHA IDs and OS
    /// core IDs at every grid position) — the notion of "location pattern"
    /// behind paper Table II.
    pub fn canonical_pattern(&self) -> String {
        self.render_internal(false)
    }

    /// Human-readable grid rendering in the style of paper Fig. 4/5: each
    /// tile shows `os_core/cha`, `LLC/cha`, `IMC` or `.` (unmapped).
    pub fn render(&self) -> String {
        self.render_internal(true)
    }

    fn render_internal(&self, pretty: bool) -> String {
        use fmt::Write;
        let imc: &[TileCoord] = self.template.map(|t| t.imc_positions()).unwrap_or_default();
        let sys: &[TileCoord] = self
            .template
            .map(|t| t.system_positions())
            .unwrap_or_default();
        let mut cells: Vec<Vec<String>> = Vec::with_capacity(self.dim.rows);
        for row in 0..self.dim.rows {
            let mut line = Vec::with_capacity(self.dim.cols);
            for col in 0..self.dim.cols {
                let coord = TileCoord::new(row, col);
                let cell = if let Some(cha) = self.cha_at(coord) {
                    match self.core_of_cha(cha) {
                        Some(core) => format!("{}/{}", core.index(), cha.index()),
                        None => format!("LLC/{}", cha.index()),
                    }
                } else if imc.contains(&coord) {
                    "IMC".to_owned()
                } else if sys.contains(&coord) {
                    "SYS".to_owned()
                } else {
                    ".".to_owned()
                };
                line.push(cell);
            }
            cells.push(line);
        }
        let width = if pretty {
            cells
                .iter()
                .flat_map(|l| l.iter().map(|c| c.len()))
                .max()
                .unwrap_or(1)
        } else {
            0
        };
        let mut out = String::new();
        for line in cells {
            for (i, cell) in line.iter().enumerate() {
                if i > 0 {
                    out.push_str(if pretty { "  " } else { "|" });
                }
                if pretty {
                    let _ = write!(out, "{cell:>width$}");
                } else {
                    out.push_str(cell);
                }
            }
            out.push('\n');
        }
        out
    }
}

/// Why a placement read back from storage cannot be served as a map.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlacementDefect {
    /// The placement was solved on another grid than the campaign's.
    WrongGrid {
        /// The campaign's grid.
        expected: GridDim,
        /// The placement's grid.
        found: GridDim,
    },
    /// The placement has a position count other than the campaign's CHA
    /// count.
    WrongChaCount {
        /// The campaign's CHA count.
        expected: usize,
        /// The placement's position count.
        found: usize,
    },
    /// A CHA lies outside the grid.
    OutsideGrid {
        /// The misplaced CHA.
        cha: usize,
        /// Its position.
        at: TileCoord,
    },
    /// Two CHAs share one tile.
    SharedTile {
        /// The lower-numbered CHA.
        first: usize,
        /// The higher-numbered CHA.
        second: usize,
        /// The shared tile.
        at: TileCoord,
    },
    /// A core or LLC-only entry names a CHA that has no position.
    Unplaced {
        /// The CHA without a position.
        cha: usize,
    },
}

impl fmt::Display for PlacementDefect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::WrongGrid { expected, found } => {
                write!(f, "solved on a {found} grid, not {expected}")
            }
            Self::WrongChaCount { expected, found } => {
                write!(f, "places {found} CHAs, not {expected}")
            }
            Self::OutsideGrid { cha, at } => write!(f, "CHA{cha} at {at} lies outside the grid"),
            Self::SharedTile { first, second, at } => {
                write!(f, "CHA{first} and CHA{second} share tile {at}")
            }
            Self::Unplaced { cha } => write!(f, "CHA{cha} has no position"),
        }
    }
}

/// Checks that every position lies inside `dim` and no two coincide.
pub(crate) fn check_placement(
    dim: GridDim,
    positions: &[TileCoord],
) -> Result<(), PlacementDefect> {
    let mut seen = BTreeMap::new();
    for (cha, &at) in positions.iter().enumerate() {
        if !dim.contains(at) {
            return Err(PlacementDefect::OutsideGrid { cha, at });
        }
        if let Some(first) = seen.insert(at, cha) {
            return Err(PlacementDefect::SharedTile {
                first,
                second: cha,
                at,
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;
    use coremap_mesh::Direction;

    fn sample_map() -> CoreMap {
        // 2x3 layout:
        //   cpu0/0  cpu1/2  LLC/4
        //   cpu2/1  cpu3/3  .
        CoreMap::new(
            GridDim::new(2, 3),
            vec![
                TileCoord::new(0, 0),
                TileCoord::new(1, 0),
                TileCoord::new(0, 1),
                TileCoord::new(1, 1),
                TileCoord::new(0, 2),
            ],
            vec![ChaId::new(0), ChaId::new(2), ChaId::new(1), ChaId::new(3)],
            vec![ChaId::new(4)],
        )
    }

    #[test]
    fn lookups_are_consistent() {
        let m = sample_map();
        assert_eq!(m.cha_count(), 5);
        assert_eq!(m.core_count(), 4);
        assert_eq!(m.coord_of_core(OsCoreId::new(1)), TileCoord::new(0, 1));
        assert_eq!(m.cha_at(TileCoord::new(1, 1)), Some(ChaId::new(3)));
        assert_eq!(m.cha_at(TileCoord::new(1, 2)), None);
        assert_eq!(m.core_of_cha(ChaId::new(4)), None);
    }

    #[test]
    fn neighbor_queries() {
        let m = sample_map();
        let n = m.neighbor_cores(OsCoreId::new(0));
        // cpu0 at (0,0): neighbours are cpu2 below and cpu1 right.
        assert!(n.contains(&(OsCoreId::new(2), Direction::Down)));
        assert!(n.contains(&(OsCoreId::new(1), Direction::Right)));
        assert_eq!(n.len(), 2);
        assert_eq!(
            m.vertical_neighbor_cores(OsCoreId::new(0)),
            vec![OsCoreId::new(2)]
        );
        assert_eq!(m.hop_distance(OsCoreId::new(0), OsCoreId::new(3)), 2);
    }

    #[test]
    fn canonical_pattern_distinguishes_layouts() {
        let a = sample_map();
        let mut positions = vec![
            TileCoord::new(0, 0),
            TileCoord::new(1, 0),
            TileCoord::new(0, 1),
            TileCoord::new(1, 1),
            TileCoord::new(1, 2), // LLC tile moved
        ];
        let b = CoreMap::new(
            GridDim::new(2, 3),
            std::mem::take(&mut positions),
            vec![ChaId::new(0), ChaId::new(2), ChaId::new(1), ChaId::new(3)],
            vec![ChaId::new(4)],
        );
        assert_ne!(a.canonical_pattern(), b.canonical_pattern());
        assert_eq!(a.canonical_pattern(), a.clone().canonical_pattern());
    }

    #[test]
    fn render_contains_all_tiles() {
        let m = sample_map();
        let r = m.render();
        assert!(r.contains("0/0"));
        assert!(r.contains("LLC/4"));
        assert!(r.contains('.'));
        assert_eq!(r.lines().count(), 2);
    }

    #[test]
    fn serde_round_trip() {
        let m = sample_map().with_ppin(Ppin::new(99));
        let json = serde_json::to_string(&m).unwrap();
        let back: CoreMap = serde_json::from_str(&json).unwrap();
        assert_eq!(m, back);
        assert_eq!(back.ppin(), Some(Ppin::new(99)));
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn out_of_grid_position_rejected() {
        let _ = CoreMap::new(
            GridDim::new(2, 2),
            vec![TileCoord::new(5, 5)],
            vec![],
            vec![],
        );
    }
}
