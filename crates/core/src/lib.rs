//! # coremap-core
//!
//! The primary contribution of *"Know Your Neighbor: Physically Locating
//! Xeon Processor Cores on the Core Tile Grid"* (DATE 2022): a fully
//! autonomous methodology that recovers the hidden physical positions of
//! processor cores on a Xeon mesh die from uncore-PMON traffic observations
//! alone.
//!
//! The pipeline has the paper's three steps (Sec. II):
//!
//! 1. **OS core ID ↔ CHA ID mapping** ([`cha_map`]): build *slice eviction
//!    sets* ([`eviction`]) by probing the undisclosed LLC slice hash with
//!    paired-writer contention and the `LLC_LOOKUP` counter, then find for
//!    every core the one slice it can thrash without generating any mesh
//!    traffic — its own tile's slice.
//! 2. **Inter-tile traffic generation and monitoring** ([`traffic`]): for
//!    every ordered pair of tiles, drive a directed cache-line transfer
//!    across the mesh and record which *ingress* ring channels light up at
//!    every observable CHA ([`PathObservation`]).
//! 3. **ILP reconstruction** ([`ilp_model`]): recover row/column indices per
//!    tile that satisfy all (partial) observations — alignment equalities,
//!    vertical bounding boxes with truthful direction, horizontal bounding
//!    boxes with direction-nullifier binaries, one-hot indicators and the
//!    "tightest map" objective — solved with
//!    [`coremap-ilp`](coremap_ilp).
//!
//! The end-to-end driver is [`CoreMapper`]; the result is a [`CoreMap`] that
//! can be compared against ground truth ([`verify`]) and consumed by attack
//! planning (the thermal covert channel of `coremap-thermal`).
//!
//! Every step is generic over [`MachineBackend`] — the machine seam defined
//! next to the simulator and re-exported through [`backend`], which also
//! ships record/replay and fault-injection wrappers around any backend.
//!
//! ```
//! use coremap_mesh::{DieTemplate, FloorplanBuilder};
//! use coremap_uncore::{MachineConfig, XeonMachine};
//! use coremap_core::CoreMapper;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let plan = FloorplanBuilder::new(DieTemplate::SkylakeXcc).build()?;
//! let truth = plan.clone();
//! let mut machine = XeonMachine::new(plan, MachineConfig::default());
//! let map = CoreMapper::new().map(&mut machine)?;
//! assert!(coremap_core::verify::matches_exactly(&map, &truth));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backend;
pub mod cha_map;
mod coremap;
mod error;
pub mod eviction;
pub mod harden;
pub mod ilp_model;
mod mapper;
pub mod monitor;
pub mod signature;
pub mod topology_select;
pub mod traffic;
pub mod verify;

pub use backend::MachineBackend;
pub use coremap::{CoreMap, PlacementDefect};
pub use error::MapError;
pub use harden::{Harden, MapFidelity, MapQuality, RobustnessConfig};
pub use ilp_model::SolveOptions;
pub use mapper::{CoreMapper, MapDiagnostics, MapperConfig};
pub use signature::{CachedSolve, ObservationSignature, SolveCache};
pub use topology_select::{HypothesisScore, Selection};
pub use traffic::{ObservationSet, PathObservation, VerticalDir};
