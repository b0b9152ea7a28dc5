//! The CPU SKUs evaluated in the paper.

use std::fmt;

use coremap_core::CoreMap;
use coremap_mesh::{DieTemplate, Topology};
use serde::{Deserialize, Serialize};

/// A Xeon SKU from the paper's evaluation (Sec. III).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CpuModel {
    /// Xeon Platinum 8124M: AWS-custom Skylake part, 18 enabled cores on
    /// the 28-tile XCC die.
    Platinum8124M,
    /// Xeon Platinum 8175M: AWS-custom Skylake part, 24 enabled cores.
    Platinum8175M,
    /// Xeon Platinum 8259CL: AWS-custom Cascade Lake part, 24 enabled cores
    /// plus two LLC-only tiles (26 active CHAs).
    Platinum8259CL,
    /// Xeon Gold 6354: Ice Lake part evaluated on OCI, 18 enabled cores.
    Gold6354,
}

impl CpuModel {
    /// All models in the paper's order.
    pub const ALL: [CpuModel; 4] = [
        CpuModel::Platinum8124M,
        CpuModel::Platinum8175M,
        CpuModel::Platinum8259CL,
        CpuModel::Gold6354,
    ];

    /// The die this SKU is manufactured on.
    pub fn template(self) -> DieTemplate {
        match self {
            CpuModel::Gold6354 => DieTemplate::IceLakeXcc,
            _ => DieTemplate::SkylakeXcc,
        }
    }

    /// The topology description of this SKU's die — the named entry of the
    /// builtin topology zoo matching [`template`](Self::template), except
    /// that Cascade Lake is distinguished by name (the paper treats SKX and
    /// CLX as the same 5x6 mesh; the zoo keeps separate labels so fleet
    /// records carry the marketing generation).
    #[allow(clippy::expect_used)]
    pub fn topology(self) -> &'static Topology {
        let name = match self {
            CpuModel::Platinum8124M | CpuModel::Platinum8175M => "skylake-xcc",
            CpuModel::Platinum8259CL => "cascadelake-xcc",
            CpuModel::Gold6354 => "icelake-xcc",
        };
        // audit: allow(panic-safety): the builtin zoo statically contains every name listed above
        Topology::builtin(name).expect("builtin topology for every SKU")
    }

    /// Labels a recovered map the way fleet records are labelled: a
    /// selection-path map keeps its winning hypothesis name, and a
    /// declared-die map records this SKU's [`topology`](Self::topology).
    /// A single-chip run that labels its map this way stores the same
    /// pattern a campaign stores for that chip.
    pub fn label_map(self, map: CoreMap) -> CoreMap {
        match map.topology_name() {
            Some(_) => map,
            None => map.with_topology_name(self.topology().name()),
        }
    }

    /// Enabled core count.
    pub fn core_count(self) -> usize {
        match self {
            CpuModel::Platinum8124M | CpuModel::Gold6354 => 18,
            CpuModel::Platinum8175M | CpuModel::Platinum8259CL => 24,
        }
    }

    /// LLC-only tiles (active CHA, fused-off core).
    pub fn llc_only_count(self) -> usize {
        match self {
            CpuModel::Platinum8259CL => 2,
            CpuModel::Gold6354 => 8,
            _ => 0,
        }
    }

    /// Active CHAs (cores + LLC-only tiles).
    pub fn cha_count(self) -> usize {
        self.core_count() + self.llc_only_count()
    }

    /// Fully disabled core tiles on the die.
    pub fn disabled_count(self) -> usize {
        self.template().core_capable_count() - self.cha_count()
    }

    /// Number of instances the paper measured for this model.
    pub fn paper_population(self) -> usize {
        match self {
            CpuModel::Gold6354 => 10,
            _ => 100,
        }
    }

    /// Marketing name.
    pub fn name(self) -> &'static str {
        match self {
            CpuModel::Platinum8124M => "Xeon Platinum 8124M",
            CpuModel::Platinum8175M => "Xeon Platinum 8175M",
            CpuModel::Platinum8259CL => "Xeon Platinum 8259CL",
            CpuModel::Gold6354 => "Xeon Gold 6354",
        }
    }
}

impl fmt::Display for CpuModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_are_consistent_with_dies() {
        for m in CpuModel::ALL {
            assert!(m.cha_count() <= m.template().core_capable_count(), "{m}");
            assert_eq!(
                m.cha_count() + m.disabled_count(),
                m.template().core_capable_count()
            );
        }
    }

    #[test]
    fn topology_agrees_with_template() {
        for m in CpuModel::ALL {
            let topo = m.topology();
            assert_eq!(topo.dim(), m.template().dim(), "{m}");
            assert_eq!(
                topo.core_capable_count(),
                m.template().core_capable_count(),
                "{m}"
            );
        }
        assert_eq!(
            CpuModel::Platinum8259CL.topology().name(),
            "cascadelake-xcc"
        );
    }

    #[test]
    fn paper_figures() {
        assert_eq!(CpuModel::Platinum8124M.core_count(), 18);
        assert_eq!(CpuModel::Platinum8175M.core_count(), 24);
        assert_eq!(CpuModel::Platinum8259CL.cha_count(), 26);
        assert_eq!(CpuModel::Gold6354.core_count(), 18);
        assert_eq!(CpuModel::Platinum8124M.disabled_count(), 10);
        assert_eq!(CpuModel::Platinum8175M.disabled_count(), 4);
        assert_eq!(CpuModel::Platinum8259CL.disabled_count(), 2);
    }
}
