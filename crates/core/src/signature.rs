//! Content addressing of a measurement campaign: the observation signature
//! and the solve-cache seam it keys.
//!
//! The paper's fleet survey (Sec. III) found that pattern diversity per SKU
//! is tiny — a handful of distinct layouts cover hundreds of instances. Two
//! instances with the same hidden layout produce *identical* step-1/step-2
//! measurements (the CHA↔core mapping and the ingress-pattern set do not
//! depend on per-chip secrets), and the ILP solver is deterministic, so the
//! expensive step-3 solve is redundant for every instance after the first
//! of its pattern. [`ObservationSignature`] is the content address that
//! detects this: a deterministic digest of everything the ILP consumes —
//! the grid, the CHA↔core assignment, the full path-observation set and an
//! optional topology context — computed without `std::hash`'s randomized
//! state so the same campaign hashes to the same address in every process,
//! forever.
//!
//! [`SolveCache`] is the seam [`CoreMapper`](crate::CoreMapper) consults
//! between step 2 and step 3: a hit returns the previously solved placement
//! ([`CachedSolve`]) and skips the ILP entirely. The contract is
//! *single-flight*: `acquire` either returns a finished solve or elects the
//! caller as the leader for that signature, and the leader must `publish`
//! or `abandon` — which keeps the number of solves per unique signature
//! deterministic (exactly one) whatever the worker schedule.
//!
//! Invariance: the signature does not depend on the order observations were
//! collected in, nor on the order of ingress events within one observation
//! — per-path digests are canonicalized and sorted before the final fold.
//! `tests/signature_props.rs` pins this with a proptest.

use std::fmt;

use coremap_mesh::{ChaId, GridDim, TileCoord};
use serde::{Deserialize, Serialize};

use crate::coremap::{check_placement, PlacementDefect};
use crate::harden::MapQuality;
use crate::traffic::{ObservationSet, PathObservation, VerticalDir};

/// 64-bit FNV-1a offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// Second, independent offset basis (the FNV prime folded once) for the
/// high half of the 128-bit digest.
const FNV_OFFSET_HI: u64 = 0x6c62_272e_07bb_0142;
/// 64-bit FNV prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// An incremental FNV-1a stream over two independent 64-bit lanes.
#[derive(Debug, Clone, Copy)]
struct Fnv128 {
    lo: u64,
    hi: u64,
}

impl Fnv128 {
    fn new() -> Self {
        Self {
            lo: FNV_OFFSET,
            hi: FNV_OFFSET_HI,
        }
    }

    fn byte(&mut self, b: u8) {
        self.lo = (self.lo ^ u64::from(b)).wrapping_mul(FNV_PRIME);
        self.hi = (self.hi ^ u64::from(b.rotate_left(3))).wrapping_mul(FNV_PRIME);
    }

    fn bytes(&mut self, bs: &[u8]) {
        for &b in bs {
            self.byte(b);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }
}

/// The deterministic content address of one measurement campaign: a 128-bit
/// digest of the CHA↔core assignment, the complete ingress-pattern set and
/// the topology context. Equal signatures mean the ILP would receive
/// byte-identical input.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ObservationSignature {
    hi: u64,
    lo: u64,
}

impl ObservationSignature {
    /// Computes the signature of a campaign.
    ///
    /// `context` is an optional label folded into the digest — fleet
    /// campaigns pass the SKU's topology name so maps reconstructed under
    /// different declared dies never share an address even if their raw
    /// observations coincide.
    pub fn compute(
        context: Option<&str>,
        dim: GridDim,
        core_to_cha: &[ChaId],
        llc_only: &[ChaId],
        observations: &ObservationSet,
    ) -> Self {
        let mut h = Fnv128::new();
        h.bytes(b"coremap-sig/v1");
        match context {
            Some(c) => {
                h.byte(1);
                h.usize(c.len());
                h.bytes(c.as_bytes());
            }
            None => h.byte(0),
        }
        h.usize(dim.rows);
        h.usize(dim.cols);
        h.usize(core_to_cha.len());
        for &c in core_to_cha {
            h.usize(c.index());
        }
        h.usize(llc_only.len());
        for &c in llc_only {
            h.usize(c.index());
        }
        h.usize(observations.n_cha);
        h.usize(observations.paths.len());
        // Per-path digests are canonical (in-path event order ignored) and
        // folded in sorted order, so the collection order of the campaign
        // cannot leak into the address.
        let mut path_digests: Vec<(u64, u64)> =
            observations.paths.iter().map(Self::path_digest).collect();
        path_digests.sort_unstable();
        for (lo, hi) in path_digests {
            h.u64(lo);
            h.u64(hi);
        }
        Self { hi: h.hi, lo: h.lo }
    }

    /// Canonical digest of one path observation: ingress events are sorted
    /// so the route-trace order does not matter.
    fn path_digest(p: &PathObservation) -> (u64, u64) {
        let mut h = Fnv128::new();
        h.usize(p.source.index());
        h.usize(p.sink.index());
        let mut vertical: Vec<(usize, u8)> = p
            .vertical
            .iter()
            .map(|&(c, d)| {
                (
                    c.index(),
                    match d {
                        VerticalDir::Up => 0u8,
                        VerticalDir::Down => 1u8,
                    },
                )
            })
            .collect();
        vertical.sort_unstable();
        h.usize(vertical.len());
        for (c, d) in vertical {
            h.usize(c);
            h.byte(d);
        }
        let mut horizontal: Vec<usize> = p.horizontal.iter().map(|&c| c.index()).collect();
        horizontal.sort_unstable();
        h.usize(horizontal.len());
        for c in horizontal {
            h.usize(c);
        }
        (h.lo, h.hi)
    }

    /// The fixed-width lowercase-hex rendering (32 chars) — the JSON map
    /// key used by the fleet database. Lexicographic order of the rendering
    /// equals numeric order of the digest.
    pub fn to_hex(self) -> String {
        format!("{:016x}{:016x}", self.hi, self.lo)
    }

    /// Parses the [`to_hex`](Self::to_hex) rendering.
    pub fn from_hex(s: &str) -> Option<Self> {
        if s.len() != 32 || !s.bytes().all(|b| b.is_ascii_hexdigit()) {
            return None;
        }
        let hi = u64::from_str_radix(&s[..16], 16).ok()?;
        let lo = u64::from_str_radix(&s[16..], 16).ok()?;
        Some(Self { hi, lo })
    }
}

impl fmt::Display for ObservationSignature {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_hex())
    }
}

impl Serialize for ObservationSignature {
    fn to_value(&self) -> serde::Value {
        serde::Value::Str(self.to_hex())
    }
}

impl Deserialize for ObservationSignature {
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        let s = String::from_value(value)?;
        Self::from_hex(&s).ok_or_else(|| serde::Error::custom("expected a 32-char hex signature"))
    }
}

/// The reusable output of one step-3 solve, stored under its campaign's
/// [`ObservationSignature`]. Because the solver is deterministic, a cache
/// hit reproduces the positions a fresh solve would return, byte for byte.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CachedSolve {
    /// The grid the placement lives on.
    pub dim: GridDim,
    /// Grid position per CHA (indexed by CHA id).
    pub positions: Vec<TileCoord>,
    /// Objective value of the tightest map.
    pub objective: f64,
    /// The quality grade the original solve shipped with (degradation
    /// bookkeeping included, so a hit reports exactly what a re-solve
    /// would).
    pub quality: MapQuality,
}

impl CachedSolve {
    /// Checks that every position lies inside the solve's own grid and no
    /// two CHAs share a tile. Deserialization builds a solve field by
    /// field, so one read back from storage is checked here before it is
    /// served.
    ///
    /// # Errors
    ///
    /// The first [`PlacementDefect`] found.
    pub fn check(&self) -> Result<(), PlacementDefect> {
        check_placement(self.dim, &self.positions)
    }
}

/// The solve-cache seam consulted by
/// [`CoreMapper`](crate::CoreMapper) between measurement and ILP
/// reconstruction.
///
/// The contract is single-flight per signature:
///
/// * [`acquire`](Self::acquire) returns `Some(solve)` when the signature is
///   already solved — possibly blocking while another thread's in-flight
///   solve finishes — or `None`, electing the caller as that signature's
///   leader.
/// * A leader must eventually call [`publish`](Self::publish) (making every
///   waiter return the finished solve) or [`abandon`](Self::abandon)
///   (waking waiters to solve for themselves, used on error/unwind paths).
///
/// Under this contract each unique signature is solved exactly once per
/// campaign however many workers race on it, which keeps solve-count
/// metrics (`ilp.*`, `fleet.cache.*`) independent of scheduling.
pub trait SolveCache: Sync {
    /// Returns the cached solve for `sig`, waiting out an in-flight leader,
    /// or `None` if the caller just became the leader.
    fn acquire(&self, sig: &ObservationSignature) -> Option<CachedSolve>;

    /// Publishes the leader's finished solve.
    fn publish(&self, sig: &ObservationSignature, solve: &CachedSolve);

    /// Releases leadership without a solve (the solve failed); waiters
    /// retry on their own.
    fn abandon(&self, sig: &ObservationSignature);
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;
    use coremap_mesh::ChaId;

    fn obs(paths: Vec<PathObservation>) -> ObservationSet {
        ObservationSet { n_cha: 4, paths }
    }

    fn path(src: u16, sink: u16) -> PathObservation {
        PathObservation {
            source: ChaId::new(src),
            sink: ChaId::new(sink),
            vertical: vec![
                (ChaId::new(2), VerticalDir::Up),
                (ChaId::new(3), VerticalDir::Down),
            ],
            horizontal: vec![ChaId::new(1), ChaId::new(0)],
        }
    }

    fn sig_of(o: &ObservationSet) -> ObservationSignature {
        ObservationSignature::compute(
            None,
            GridDim::new(2, 2),
            &[ChaId::new(0), ChaId::new(1)],
            &[],
            o,
        )
    }

    #[test]
    fn identical_campaigns_share_an_address() {
        let a = obs(vec![path(0, 1), path(1, 0)]);
        let b = obs(vec![path(0, 1), path(1, 0)]);
        assert_eq!(sig_of(&a), sig_of(&b));
    }

    #[test]
    fn path_order_does_not_change_the_address() {
        let a = obs(vec![path(0, 1), path(1, 0), path(2, 3)]);
        let b = obs(vec![path(2, 3), path(0, 1), path(1, 0)]);
        assert_eq!(sig_of(&a), sig_of(&b));
    }

    #[test]
    fn in_path_event_order_does_not_change_the_address() {
        let mut p = path(0, 1);
        p.vertical.reverse();
        p.horizontal.reverse();
        let a = obs(vec![path(0, 1)]);
        let b = obs(vec![p]);
        assert_eq!(sig_of(&a), sig_of(&b));
    }

    #[test]
    fn different_observations_get_different_addresses() {
        let a = obs(vec![path(0, 1)]);
        let b = obs(vec![path(1, 0)]);
        assert_ne!(sig_of(&a), sig_of(&b));
        let mut flipped = path(0, 1);
        flipped.vertical[0].1 = VerticalDir::Down;
        assert_ne!(sig_of(&a), sig_of(&obs(vec![flipped])));
    }

    #[test]
    fn context_and_mapping_are_part_of_the_address() {
        let o = obs(vec![path(0, 1)]);
        let base = sig_of(&o);
        let ctx = ObservationSignature::compute(
            Some("skylake-xcc"),
            GridDim::new(2, 2),
            &[ChaId::new(0), ChaId::new(1)],
            &[],
            &o,
        );
        assert_ne!(base, ctx);
        let remapped = ObservationSignature::compute(
            None,
            GridDim::new(2, 2),
            &[ChaId::new(1), ChaId::new(0)],
            &[],
            &o,
        );
        assert_ne!(base, remapped);
        let llc = ObservationSignature::compute(
            None,
            GridDim::new(2, 2),
            &[ChaId::new(0), ChaId::new(1)],
            &[ChaId::new(3)],
            &o,
        );
        assert_ne!(base, llc);
    }

    #[test]
    fn hex_round_trip_is_stable_and_ordered() {
        let s = sig_of(&obs(vec![path(0, 1)]));
        let hex = s.to_hex();
        assert_eq!(hex.len(), 32);
        assert_eq!(ObservationSignature::from_hex(&hex), Some(s));
        assert_eq!(ObservationSignature::from_hex("xyz"), None);
        assert_eq!(ObservationSignature::from_hex(&hex[..31]), None);
        // serde round trip through the JSON string form.
        let json = serde_json::to_string(&s).unwrap();
        let back: ObservationSignature = serde_json::from_str(&json).unwrap();
        assert_eq!(back, s);
    }
}
