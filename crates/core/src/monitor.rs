//! PMON programming helpers: the monitoring side of the measurement tool.
//!
//! Every interaction with the uncore goes through MSRs, mirroring the
//! paper's root-privileged monitor. A CHA bank has four counters, so ring
//! monitoring (4 directions) and LLC-lookup monitoring are armed as separate
//! configurations, as on real hardware.

use coremap_mesh::Direction;
use coremap_uncore::msr::{counter, counter_ctl, unit_ctl, UNIT_CTL_FREEZE, UNIT_CTL_RESET};
use coremap_uncore::{ChannelCounts, MsrError, RingClass, UncoreEvent};

use crate::harden::Harden;
use crate::MachineBackend;

/// Programs all CHA banks to count the four BL-ring ingress directions:
/// counter 0/1 = vertical up/down, counter 2/3 = horizontal left/right
/// (the paper's configuration, Sec. II-B).
///
/// # Errors
///
/// Propagates MSR access failures (e.g. missing root privileges).
pub fn arm_ring<T: MachineBackend>(machine: &mut T) -> Result<(), MsrError> {
    arm_ring_on(machine, RingClass::Bl)
}

/// Programs all CHA banks to count the four ingress directions of the given
/// ring class (the ring-choice ablation monitors AD instead of BL).
///
/// # Errors
///
/// Propagates MSR access failures.
pub fn arm_ring_on<T: MachineBackend>(machine: &mut T, ring: RingClass) -> Result<(), MsrError> {
    for cha in 0..machine.cha_count() {
        machine.write_msr(
            counter_ctl(cha, 0),
            UncoreEvent::from_ingress_label_on(ring, Direction::Up).encode(),
        )?;
        machine.write_msr(
            counter_ctl(cha, 1),
            UncoreEvent::from_ingress_label_on(ring, Direction::Down).encode(),
        )?;
        machine.write_msr(
            counter_ctl(cha, 2),
            UncoreEvent::from_ingress_label_on(ring, Direction::Left).encode(),
        )?;
        machine.write_msr(
            counter_ctl(cha, 3),
            UncoreEvent::from_ingress_label_on(ring, Direction::Right).encode(),
        )?;
    }
    Ok(())
}

/// Programs counter 0 of all CHA banks to count LLC lookups.
///
/// # Errors
///
/// Propagates MSR access failures.
pub fn arm_llc_lookup<T: MachineBackend>(machine: &mut T) -> Result<(), MsrError> {
    for cha in 0..machine.cha_count() {
        machine.write_msr(counter_ctl(cha, 0), UncoreEvent::LlcLookup.encode())?;
    }
    Ok(())
}

/// Resets all counters of all CHA banks (and unfreezes them).
///
/// # Errors
///
/// Propagates MSR access failures.
pub fn reset_all<T: MachineBackend>(machine: &mut T) -> Result<(), MsrError> {
    for cha in 0..machine.cha_count() {
        machine.write_msr(unit_ctl(cha), UNIT_CTL_RESET)?;
    }
    Ok(())
}

/// Freezes all CHA banks.
///
/// # Errors
///
/// Propagates MSR access failures.
pub fn freeze_all<T: MachineBackend>(machine: &mut T) -> Result<(), MsrError> {
    for cha in 0..machine.cha_count() {
        machine.write_msr(unit_ctl(cha), UNIT_CTL_FREEZE)?;
    }
    Ok(())
}

/// Reads the LLC-lookup counter of `cha` as armed by [`arm_llc_lookup`].
///
/// # Errors
///
/// Propagates MSR access failures.
pub fn read_llc_lookup<T: MachineBackend>(machine: &T, cha: usize) -> Result<u64, MsrError> {
    machine.read_msr(counter(cha, 0))
}

/// Reads the four ring counters of `cha` as armed by [`arm_ring`]. Each
/// counter is read median-of-k with MSR retry under `harden`, so a dropped
/// or jittered readout is absorbed instead of silently corrupting the
/// channel counts.
///
/// # Errors
///
/// Propagates MSR access failures once retries are exhausted.
pub fn read_ring_with<T: MachineBackend>(
    machine: &T,
    cha: usize,
    harden: &mut Harden,
) -> Result<ChannelCounts, MsrError> {
    Ok(ChannelCounts {
        llc_lookup: 0,
        up: harden.counter(|| machine.read_msr(counter(cha, 0)))?,
        down: harden.counter(|| machine.read_msr(counter(cha, 1)))?,
        left: harden.counter(|| machine.read_msr(counter(cha, 2)))?,
        right: harden.counter(|| machine.read_msr(counter(cha, 3)))?,
    })
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;
    use coremap_mesh::{DieTemplate, FloorplanBuilder, OsCoreId};
    use coremap_uncore::{MachineConfig, PhysAddr, XeonMachine};

    fn machine() -> XeonMachine {
        let plan = FloorplanBuilder::new(DieTemplate::SkylakeXcc)
            .build()
            .unwrap();
        XeonMachine::new(plan, MachineConfig::default())
    }

    #[test]
    fn arm_reset_read_cycle() {
        let mut m = machine();
        arm_ring(&mut m).unwrap();
        reset_all(&mut m).unwrap();
        m.write_line(OsCoreId::new(0), PhysAddr::new(0x11140));
        m.read_line(OsCoreId::new(13), PhysAddr::new(0x11140));
        let any: u64 = (0..m.cha_count())
            .map(|c| {
                read_ring_with(&m, c, &mut Harden::default())
                    .unwrap()
                    .ring_total()
            })
            .sum();
        assert!(any > 0);
        reset_all(&mut m).unwrap();
        let any: u64 = (0..m.cha_count())
            .map(|c| {
                read_ring_with(&m, c, &mut Harden::default())
                    .unwrap()
                    .ring_total()
            })
            .sum();
        assert_eq!(any, 0);
    }

    #[test]
    fn llc_lookup_counting() {
        let mut m = machine();
        arm_llc_lookup(&mut m).unwrap();
        reset_all(&mut m).unwrap();
        let pa = PhysAddr::new(0x2_2240);
        let home = m.home_of(pa);
        m.write_line(OsCoreId::new(1), pa);
        assert_eq!(read_llc_lookup(&m, home.index()).unwrap(), 1);
    }

    #[test]
    fn unprivileged_monitor_fails() {
        let mut m = machine();
        m.set_privileged(false);
        assert_eq!(arm_ring(&mut m), Err(MsrError::PermissionDenied));
    }

    #[test]
    fn freeze_blocks_counting_until_reset() {
        let mut m = machine();
        arm_ring(&mut m).unwrap();
        reset_all(&mut m).unwrap();
        freeze_all(&mut m).unwrap();
        m.write_line(OsCoreId::new(0), PhysAddr::new(0x3_0000));
        m.read_line(OsCoreId::new(9), PhysAddr::new(0x3_0000));
        let any: u64 = (0..m.cha_count())
            .map(|c| {
                read_ring_with(&m, c, &mut Harden::default())
                    .unwrap()
                    .ring_total()
            })
            .sum();
        assert_eq!(any, 0);
    }
}
