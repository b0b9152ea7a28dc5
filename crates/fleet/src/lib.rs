//! # coremap-fleet
//!
//! Cloud-fleet substrate for the paper's measurement study (Sec. III): the
//! authors rented 100 bare-metal instances each of three Xeon models on AWS
//! (Platinum 8124M / 8175M / 8259CL) plus 10 Ice Lake Gold 6354 instances
//! on OCI, and mapped every one. This crate generates an equivalent
//! simulated fleet:
//!
//! * [`CpuModel`] describes the four SKUs (die template, enabled core
//!   count, LLC-only tile count);
//! * [`CloudFleet`] deterministically instantiates per-instance floorplans
//!   whose *population statistics* reproduce the paper's findings — the
//!   exact OS-core↔CHA mapping tables of Table I (including the seven
//!   8259CL variants with their 62/33/1/1/1/1/1 split) and the location
//!   pattern diversity of Table II (14 / 26 / 53 / 6 unique patterns with
//!   the reported top-4 frequencies);
//! * [`stats`] computes those tables back from *measured* maps;
//! * [`FleetRunner`] is the shared campaign harness: it walks a model's
//!   instances with a work-queue worker pool, collects per-instance
//!   `Result`s in instance order (worker-count-independent output, failures
//!   recorded rather than fatal), and is generic over the
//!   [`MachineBackend`](coremap_core::backend::MachineBackend) each
//!   instance boots into;
//! * the scale layer ([`run_campaign`]) exploits the tiny per-SKU pattern
//!   diversity: a content-addressed, single-flight [`MapCache`] runs the
//!   step-3 ILP once per unique observation signature, and the persistent
//!   [`FleetDb`] (`coremap-fleetdb/v1`) catalogues mapped chips by PPIN
//!   the way an attacker would (paper Sec. IV): it dedups stored
//!   patterns, carries the cached solves and lets interrupted campaigns
//!   resume without re-measuring mapped chips. It is the one on-disk map
//!   format: single-chip `map --db` runs write into the same file.
//!
//! ```
//! use coremap_fleet::{CloudFleet, CpuModel};
//!
//! # fn main() -> Result<(), coremap_fleet::FleetError> {
//! let fleet = CloudFleet::with_seed(2022);
//! let inst = fleet.instance(CpuModel::Platinum8259CL, 3)?;
//! assert_eq!(inst.floorplan().core_count(), 24);
//! assert_eq!(inst.floorplan().cha_count(), 26); // two LLC-only tiles
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baseline;
mod cache;
mod campaign;
mod db;
mod error;
mod fleet;
mod model;
pub mod render;
mod runner;
pub mod sampler;
pub mod serve;
pub mod stats;

pub use cache::MapCache;
pub use campaign::{run_campaign, run_campaign_cached, CampaignReport};
pub use db::{FleetDb, FLEETDB_FORMAT};
pub use error::FleetError;
pub use fleet::{CloudFleet, CloudInstance};
pub use model::CpuModel;
pub use runner::{FleetOutcome, FleetRunner, JobFailure, MappedInstance, SurveyStats};
pub use serve::MapService;
