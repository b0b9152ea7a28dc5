//! The machine-backend abstraction.
//!
//! The mapping methodology only needs a small set of primitives from the
//! machine under measurement; [`MachineBackend`] names them. The trait
//! lives next to the simulated [`XeonMachine`] (its reference
//! implementation) and is the seam where other backends plug in: a
//! *real-hardware* driver, the record/replay/fault-injection wrappers in
//! `coremap_core::backend`, or test doubles.
//!
//! | trait method | bare-metal Linux implementation |
//! |---|---|
//! | `read_msr` / `write_msr` | `pread`/`pwrite` on `/dev/cpu/<n>/msr` (root) |
//! | `os_cores` / `core_count` | `/sys/devices/system/cpu` enumeration (SMT folded) |
//! | `cha_count` | uncore discovery MSRs / `CAPID` fuse registers |
//! | `grid_dim` | per-model die constant ([Tam et al., ISSCC'18]) |
//! | `l2_geometry` | `CPUID` leaf 4 |
//! | `address_space` | usable physical memory from `/proc/iomem` |
//! | `home_of` | slice-hash oracle (only needed by diagnostics) |
//! | `write_line` / `read_line` | pinned worker thread issuing volatile accesses to a hugepage-backed buffer with known physical addresses |
//! | `flush_caches` | `wbinvd` (kernel helper) or a `clflush` sweep |
//!
//! All higher layers (`eviction`, `cha_map`, `traffic`, the `CoreMapper`)
//! are generic over this trait.

use coremap_mesh::{ChaId, GridDim, OsCoreId};

use crate::{MsrError, PhysAddr, XeonMachine};

/// A machine the mapping pipeline can measure.
///
/// Semantics the pipeline relies on (all satisfied by real Xeons and by the
/// simulator):
///
/// * MSR access requires privilege and reaches the per-CHA PMON banks laid
///   out as in [`crate::msr`];
/// * `write_line`/`read_line` behave like pinned user-level accesses under
///   an invalidation-based coherence protocol over a mesh with
///   dimension-order routing;
/// * `flush_caches` returns every line to its home slice so experiment
///   windows do not leak into each other.
pub trait MachineBackend {
    /// Reads a model-specific register.
    ///
    /// # Errors
    ///
    /// [`MsrError`] on missing privilege or unmapped addresses.
    fn read_msr(&self, addr: u32) -> Result<u64, MsrError>;

    /// Writes a model-specific register.
    ///
    /// # Errors
    ///
    /// [`MsrError`] on missing privilege, unmapped or read-only addresses.
    fn write_msr(&mut self, addr: u32, value: u64) -> Result<(), MsrError>;

    /// Number of active CHAs.
    fn cha_count(&self) -> usize;

    /// Number of OS-visible cores.
    fn core_count(&self) -> usize;

    /// OS core IDs, ascending.
    fn os_cores(&self) -> Vec<OsCoreId>;

    /// The die's tile-grid dimensions (known per CPU model).
    fn grid_dim(&self) -> GridDim;

    /// L2 geometry `(sets, ways)`.
    fn l2_geometry(&self) -> (usize, usize);

    /// Size of the usable physical address space in bytes.
    fn address_space(&self) -> u64;

    /// The CHA a physical address's cache line homes to.
    ///
    /// A ground-truth oracle the *measurement* pipeline never calls — the
    /// slice hash is exactly what eviction-set probing recovers — but
    /// diagnostics and backend-conformance tests do.
    fn home_of(&self, pa: PhysAddr) -> ChaId;

    /// A worker pinned to `core` stores to `pa`.
    fn write_line(&mut self, core: OsCoreId, pa: PhysAddr);

    /// A worker pinned to `core` loads from `pa`.
    fn read_line(&mut self, core: OsCoreId, pa: PhysAddr);

    /// Writes back and invalidates all caches.
    fn flush_caches(&mut self);

    /// Number of cache operations issued so far — a diagnostic; backends
    /// that do not track it may keep the default.
    fn op_count(&self) -> u64 {
        0
    }
}

impl MachineBackend for XeonMachine {
    fn read_msr(&self, addr: u32) -> Result<u64, MsrError> {
        XeonMachine::read_msr(self, addr)
    }

    fn write_msr(&mut self, addr: u32, value: u64) -> Result<(), MsrError> {
        XeonMachine::write_msr(self, addr, value)
    }

    fn cha_count(&self) -> usize {
        XeonMachine::cha_count(self)
    }

    fn core_count(&self) -> usize {
        XeonMachine::core_count(self)
    }

    fn os_cores(&self) -> Vec<OsCoreId> {
        XeonMachine::os_cores(self)
    }

    fn grid_dim(&self) -> GridDim {
        XeonMachine::grid_dim(self)
    }

    fn l2_geometry(&self) -> (usize, usize) {
        XeonMachine::l2_geometry(self)
    }

    fn address_space(&self) -> u64 {
        XeonMachine::address_space(self)
    }

    fn home_of(&self, pa: PhysAddr) -> ChaId {
        XeonMachine::home_of(self, pa)
    }

    fn write_line(&mut self, core: OsCoreId, pa: PhysAddr) {
        XeonMachine::write_line(self, core, pa);
    }

    fn read_line(&mut self, core: OsCoreId, pa: PhysAddr) {
        XeonMachine::read_line(self, core, pa);
    }

    fn flush_caches(&mut self) {
        XeonMachine::flush_caches(self);
    }

    fn op_count(&self) -> u64 {
        XeonMachine::op_count(self)
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;
    use crate::MachineConfig;
    use coremap_mesh::{DieTemplate, FloorplanBuilder};

    fn as_backend<B: MachineBackend>(b: &B) -> (usize, usize) {
        (b.cha_count(), b.core_count())
    }

    #[test]
    fn xeon_machine_implements_the_trait() {
        let plan = FloorplanBuilder::new(DieTemplate::SkylakeXcc)
            .build()
            .unwrap();
        let machine = XeonMachine::new(plan, MachineConfig::default());
        assert_eq!(as_backend(&machine), (28, 28));
    }

    #[test]
    fn trait_msr_access_matches_inherent() {
        let plan = FloorplanBuilder::new(DieTemplate::SkylakeXcc)
            .build()
            .unwrap();
        let machine = XeonMachine::new(plan, MachineConfig::default());
        let via_trait = MachineBackend::read_msr(&machine, crate::msr::MSR_PPIN).unwrap();
        let direct = machine.read_msr(crate::msr::MSR_PPIN).unwrap();
        assert_eq!(via_trait, direct);
    }
}
