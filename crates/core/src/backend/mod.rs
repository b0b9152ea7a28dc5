//! Machine backends: the seam under the measurement pipeline.
//!
//! Every step of the methodology (`eviction`, `cha_map`, `traffic`,
//! [`CoreMapper`](crate::CoreMapper)) is generic over
//! [`MachineBackend`], the trait naming the primitives a machine under
//! measurement must provide. The reference implementation is the simulated
//! [`XeonMachine`](coremap_uncore::XeonMachine); this module ships three
//! more that *wrap or reproduce* any backend:
//!
//! * [`RecordingBackend`] — logs every operation crossing the trait into a
//!   serializable [`MeasurementTrace`];
//! * [`ReplayBackend`] — re-runs the pipeline from a recorded trace with
//!   zero simulation behind it (and panics loudly on divergence);
//! * [`FaultyBackend`] — deterministic, seeded fault injection (jittered
//!   counter readouts, dropped PMON reads, failing MSR accesses) for
//!   robustness studies.
//!
//! Record → replay is the regression-debugging workflow: capture one
//! mapping campaign on the machine (or simulator), persist the trace as
//! JSON, and re-execute the *pipeline logic* against it offline —
//! bit-identical [`CoreMap`](crate::CoreMap)s out, no machine required.

mod fault;
mod record;
mod replay;
mod trace;

pub use coremap_uncore::backend::MachineBackend;
pub use fault::{FaultPlan, FaultyBackend};
pub use record::RecordingBackend;
pub use replay::{DivergenceReport, ReplayBackend};
pub use trace::{MachineGeometry, MeasurementTrace, TraceOp};
