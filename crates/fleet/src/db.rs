//! The persistent fleet database: dedup'd patterns, a PPIN instance index
//! and the solve cache, as one versioned JSON document.
//!
//! Mapping needs root, but the recovered locations are permanent per chip
//! (paper Sec. IV): an attacker maps each rented chip once, keys the
//! result by PPIN, and any later tenancy on a known chip reuses the map.
//! One full [`CoreMap`] per chip would waste the paper's own headline
//! finding (Table II): thousands of instances share a handful of layouts.
//! So each unique PPIN-stripped pattern is stored exactly once, instances
//! are an index from PPIN to pattern, and the step-3 solve results are
//! carried along keyed by their [`ObservationSignature`] so a later
//! campaign starts warm. This is the only on-disk map format: fleet
//! campaigns, the serve daemon and single-chip `map --db` runs all read
//! and write it.
//!
//! The format is versioned (`coremap-fleetdb/v1`) and built exclusively
//! from ordered containers, so saving a database twice — or saving a
//! loaded copy — produces byte-identical JSON.
//!
//! Resume semantics: a campaign run with `--resume` consults
//! [`contains`](FleetDb::contains) before booting an instance and skips
//! PPINs that are already indexed, so a partially-completed campaign picks
//! up where it stopped without re-measuring or re-solving anything.

use std::collections::BTreeMap;
use std::io::{Read, Write};

use coremap_core::{CachedSolve, CoreMap, ObservationSignature};
use coremap_mesh::Ppin;
use serde::{Deserialize, Serialize};

use crate::FleetError;

/// The on-disk format tag. Bump on incompatible change.
pub const FLEETDB_FORMAT: &str = "coremap-fleetdb/v1";

/// A dedup'd, resumable store of fleet mapping results.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetDb {
    /// Format tag, checked on load.
    version: String,
    /// Unique PPIN-stripped patterns, in first-seen order.
    patterns: Vec<CoreMap>,
    /// PPIN → index into `patterns`.
    instances: BTreeMap<u64, usize>,
    /// Persisted step-3 solves keyed by campaign signature.
    solves: BTreeMap<ObservationSignature, CachedSolve>,
}

impl FleetDb {
    /// An empty database.
    pub fn new() -> Self {
        Self {
            version: FLEETDB_FORMAT.to_owned(),
            patterns: Vec::new(),
            instances: BTreeMap::new(),
            solves: BTreeMap::new(),
        }
    }

    /// Number of indexed chips.
    pub fn len(&self) -> usize {
        self.instances.len()
    }

    /// Whether no chips are indexed.
    pub fn is_empty(&self) -> bool {
        self.instances.is_empty()
    }

    /// Number of unique stored patterns.
    pub fn pattern_count(&self) -> usize {
        self.patterns.len()
    }

    /// Number of persisted solves.
    pub fn solve_count(&self) -> usize {
        self.solves.len()
    }

    /// Whether a chip is already mapped (the `--resume` skip test).
    pub fn contains(&self, ppin: Ppin) -> bool {
        self.instances.contains_key(&ppin.value())
    }

    /// Indexes a recovered map under its PPIN, deduplicating the pattern.
    ///
    /// Returns whether the PPIN was new (an existing chip is re-pointed at
    /// the new map's pattern).
    ///
    /// # Errors
    ///
    /// [`FleetError::UnkeyedMap`] if the map carries no PPIN — the caller
    /// fed a map from a backend that never exposed `MSR_PPIN`, which would
    /// otherwise silently produce an un-resumable database.
    pub fn insert(&mut self, map: CoreMap) -> Result<bool, FleetError> {
        let ppin = map.ppin().ok_or(FleetError::UnkeyedMap)?;
        let pattern = map.without_ppin();
        let idx = match self.patterns.iter().position(|p| *p == pattern) {
            Some(i) => i,
            None => {
                self.patterns.push(pattern);
                self.patterns.len() - 1
            }
        };
        Ok(self.instances.insert(ppin.value(), idx).is_none())
    }

    /// The map of a chip, rebuilt from its dedup'd pattern with the PPIN
    /// re-attached.
    pub fn get(&self, ppin: Ppin) -> Option<CoreMap> {
        self.instances
            .get(&ppin.value())
            .and_then(|&idx| self.patterns.get(idx))
            .map(|p| p.clone().with_ppin(ppin))
    }

    /// Iterates `(ppin, map)` pairs in PPIN order, maps rebuilt as by
    /// [`get`](Self::get).
    pub fn iter(&self) -> impl Iterator<Item = (Ppin, CoreMap)> + '_ {
        self.instances.iter().filter_map(move |(&p, &idx)| {
            let ppin = Ppin::new(p);
            self.patterns
                .get(idx)
                .map(|pat| (ppin, pat.clone().with_ppin(ppin)))
        })
    }

    /// Records a finished solve under its signature (replacing any
    /// previous entry — the solver is deterministic, so a replacement is
    /// always identical).
    pub fn record_solve(&mut self, sig: ObservationSignature, solve: CachedSolve) {
        self.solves.insert(sig, solve);
    }

    /// The persisted solves, in signature order — used to warm a
    /// [`MapCache`](crate::MapCache) before a campaign.
    pub fn solves(&self) -> &BTreeMap<ObservationSignature, CachedSolve> {
        &self.solves
    }

    /// Serializes the database as versioned JSON. Deterministic: equal
    /// databases serialize to identical bytes.
    ///
    /// # Errors
    ///
    /// I/O and serialization errors.
    pub fn save<W: Write>(&self, writer: W) -> Result<(), serde_json::Error> {
        serde_json::to_writer_pretty(writer, self)
    }

    /// Loads a database from JSON, rejecting unknown format versions and
    /// any stored pattern or solve that could not be served as a map.
    ///
    /// # Errors
    ///
    /// I/O and deserialization errors, including a version mismatch, a
    /// dangling pattern index and a placement defect (a position outside
    /// its grid, two CHAs on one tile), named by its entry.
    pub fn load<R: Read>(reader: R) -> Result<Self, serde_json::Error> {
        let db: Self = serde_json::from_reader(reader)?;
        if db.version != FLEETDB_FORMAT {
            return Err(serde::Error::custom(format!(
                "unsupported fleet database format `{}` (expected `{FLEETDB_FORMAT}`)",
                db.version
            ))
            .into());
        }
        for (&ppin, &idx) in &db.instances {
            if idx >= db.patterns.len() {
                return Err(serde::Error::custom(format!(
                    "instance {ppin:#x} references pattern {idx} of {}",
                    db.patterns.len()
                ))
                .into());
            }
        }
        for (idx, pattern) in db.patterns.iter().enumerate() {
            if let Err(defect) = pattern.check() {
                return Err(serde::Error::custom(format!("pattern {idx}: {defect}")).into());
            }
        }
        for (sig, solve) in &db.solves {
            if let Err(defect) = solve.check() {
                return Err(serde::Error::custom(format!("cached solve {sig}: {defect}")).into());
            }
        }
        Ok(db)
    }
}

/// The empty database, as [`FleetDb::new`]: it carries the format tag, so
/// what it saves loads back.
impl Default for FleetDb {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;
    use coremap_mesh::{ChaId, GridDim, TileCoord};

    fn pattern(shift: usize) -> CoreMap {
        CoreMap::new(
            GridDim::new(1, 3),
            vec![TileCoord::new(0, shift), TileCoord::new(0, shift + 1)],
            vec![ChaId::new(0), ChaId::new(1)],
            vec![],
        )
    }

    fn map(ppin: u64, shift: usize) -> CoreMap {
        pattern(shift).with_ppin(Ppin::new(ppin))
    }

    #[test]
    fn shared_patterns_are_stored_once() {
        let mut db = FleetDb::new();
        assert!(db.insert(map(1, 0)).unwrap());
        assert!(db.insert(map(2, 0)).unwrap());
        assert!(db.insert(map(3, 1)).unwrap());
        assert_eq!(db.len(), 3);
        assert_eq!(db.pattern_count(), 2);
        assert_eq!(db.get(Ppin::new(2)).unwrap(), map(2, 0));
        assert_eq!(db.get(Ppin::new(3)).unwrap(), map(3, 1));
        assert!(db.get(Ppin::new(4)).is_none());
    }

    #[test]
    fn unkeyed_map_is_a_typed_error() {
        let mut db = FleetDb::new();
        assert!(matches!(db.insert(pattern(0)), Err(FleetError::UnkeyedMap)));
        assert!(db.is_empty());
    }

    #[test]
    fn reinsert_repoints_without_new_ppin() {
        let mut db = FleetDb::new();
        assert!(db.insert(map(7, 0)).unwrap());
        assert!(!db.insert(map(7, 1)).unwrap());
        assert_eq!(db.len(), 1);
        assert_eq!(db.get(Ppin::new(7)).unwrap(), map(7, 1));
    }

    #[test]
    fn round_trip_is_byte_identical() {
        let mut db = FleetDb::new();
        db.insert(map(2, 0)).unwrap();
        db.insert(map(1, 1)).unwrap();
        db.record_solve(
            ObservationSignature::from_hex(&"ab".repeat(16)).unwrap(),
            CachedSolve {
                dim: GridDim::new(1, 3),
                positions: vec![TileCoord::new(0, 0)],
                objective: 2.5,
                quality: coremap_core::MapQuality::default(),
            },
        );
        let mut first = Vec::new();
        db.save(&mut first).unwrap();
        let back = FleetDb::load(first.as_slice()).unwrap();
        assert_eq!(db, back);
        let mut second = Vec::new();
        back.save(&mut second).unwrap();
        assert_eq!(first, second, "save→load→save is byte-identical");
    }

    #[test]
    fn unservable_entries_fail_to_load_and_are_named() {
        let sig = ObservationSignature::from_hex(&"cd".repeat(16)).unwrap();
        let mut db = FleetDb::new();
        db.record_solve(
            sig,
            CachedSolve {
                dim: GridDim::new(1, 3),
                positions: vec![TileCoord::new(0, 0), TileCoord::new(0, 3)],
                objective: 1.0,
                quality: coremap_core::MapQuality::default(),
            },
        );
        let mut buf = Vec::new();
        db.save(&mut buf).unwrap();
        let err = FleetDb::load(buf.as_slice()).unwrap_err().to_string();
        assert!(err.contains(&format!("cached solve {sig}")), "{err}");
        assert!(
            err.contains("CHA1 at (r0, c3) lies outside the grid"),
            "{err}"
        );

        // `CoreMap::new` does not stop two CHAs sharing a tile.
        let stacked = CoreMap::new(
            GridDim::new(1, 3),
            vec![TileCoord::new(0, 1), TileCoord::new(0, 1)],
            vec![ChaId::new(0), ChaId::new(1)],
            vec![],
        );
        let mut db = FleetDb::new();
        db.insert(map(1, 0)).unwrap();
        db.insert(stacked.with_ppin(Ppin::new(2))).unwrap();
        let mut buf = Vec::new();
        db.save(&mut buf).unwrap();
        let err = FleetDb::load(buf.as_slice()).unwrap_err().to_string();
        assert!(err.contains("pattern 1: CHA0 and CHA1 share tile"), "{err}");
    }

    #[test]
    fn version_mismatch_rejected() {
        let mut db = FleetDb::new();
        db.version = "coremap-fleetdb/v0".to_owned();
        let mut buf = Vec::new();
        db.save(&mut buf).unwrap();
        let err = FleetDb::load(buf.as_slice()).unwrap_err();
        assert!(err.to_string().contains("unsupported"), "{err}");
    }

    #[test]
    fn saved_default_database_loads_back() {
        // Regression: a derived `Default` left the format tag empty, so
        // `load` rejected everything a defaulted database saved.
        let mut buf = Vec::new();
        FleetDb::default().save(&mut buf).unwrap();
        let back = FleetDb::load(buf.as_slice()).unwrap();
        assert_eq!(back, FleetDb::new());
    }
}
