//! Mapping pipeline errors.

use std::fmt;

use coremap_uncore::MsrError;

use crate::{ObservationSignature, PlacementDefect};

/// Error from the core-location mapping pipeline.
#[derive(Debug, Clone, PartialEq)]
pub enum MapError {
    /// MSR access failed (typically: no root privileges).
    Msr(MsrError),
    /// Could not collect enough same-set lines for one or more LLC slices
    /// within the sampling budget. Every incomplete slice is listed so
    /// fault-rate triage sees the full shape of the failure, not just the
    /// first victim.
    EvictionSetBudget {
        /// Lines a complete set needs (`ways + 1`).
        need: usize,
        /// `(cha, collected)` for every slice whose set stayed incomplete.
        incomplete: Vec<(usize, usize)>,
    },
    /// A core's minimum-traffic slice did not beat the runner-up by the
    /// required margin; the measurement was too noisy to threshold.
    AmbiguousChaMapping {
        /// OS core index with the ambiguous match.
        core: usize,
        /// Margin the winner achieved over the runner-up.
        margin: u64,
        /// Margin the threshold required.
        required: u64,
    },
    /// Two cores both matched the same slice as their co-located tile — a
    /// distinct failure from a thin margin: the measurement thresholded
    /// cleanly but contradicts the one-core-per-tile invariant, so *both*
    /// involved cores are suspect.
    DuplicateChaClaim {
        /// OS core index whose measurement raised the conflict.
        core: usize,
        /// OS core index that claimed the slice earlier in the scan.
        prior_core: usize,
        /// The doubly-claimed CHA.
        cha: usize,
    },
    /// CHA mapping was handed an empty slice-eviction-set list: there is
    /// no slice to attribute traffic to (a zero-CHA machine model).
    NoSlices,
    /// The ILP reconstruction failed.
    Ilp(coremap_ilp::SolveError),
    /// Observations are mutually inconsistent (should not happen on a
    /// conforming machine; indicates extreme noise).
    InconsistentObservations,
    /// The solve cache answered the campaign with a placement that cannot
    /// be its map (a corrupted store); it is not served.
    CorruptCachedSolve {
        /// The campaign's signature, under which the solve is stored.
        signature: ObservationSignature,
        /// What is wrong with the stored placement.
        defect: PlacementDefect,
    },
}

impl fmt::Display for MapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MapError::Msr(e) => write!(f, "msr access failed: {e}"),
            MapError::EvictionSetBudget { need, incomplete } => {
                write!(
                    f,
                    "eviction sets incomplete within budget for {} slice(s):",
                    incomplete.len()
                )?;
                for (cha, collected) in incomplete {
                    write!(f, " CHA{cha} {collected}/{need}")?;
                }
                Ok(())
            }
            MapError::AmbiguousChaMapping {
                core,
                margin,
                required,
            } => write!(
                f,
                "cpu{core} has no unambiguous co-located slice \
                 (margin {margin} < required {required})"
            ),
            MapError::DuplicateChaClaim {
                core,
                prior_core,
                cha,
            } => write!(
                f,
                "cpu{core} and cpu{prior_core} both claim CHA{cha} as their \
                 co-located slice"
            ),
            MapError::NoSlices => {
                f.write_str("no slice eviction sets to measure against (zero-CHA machine?)")
            }
            MapError::Ilp(e) => write!(f, "ilp reconstruction failed: {e}"),
            MapError::InconsistentObservations => {
                f.write_str("traffic observations are mutually inconsistent")
            }
            MapError::CorruptCachedSolve { signature, defect } => {
                write!(f, "cached solve {signature} is corrupt: {defect}")
            }
        }
    }
}

impl std::error::Error for MapError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            MapError::Msr(e) => Some(e),
            MapError::Ilp(e) => Some(e),
            _ => None,
        }
    }
}

impl From<MsrError> for MapError {
    fn from(e: MsrError) -> Self {
        MapError::Msr(e)
    }
}

impl From<coremap_ilp::SolveError> for MapError {
    fn from(e: coremap_ilp::SolveError) -> Self {
        MapError::Ilp(e)
    }
}
