//! The placement/management policies under evaluation.
//!
//! [`Policy`] enumerates the paper's incremental HeteroOS mechanisms
//! (Table 5) plus every baseline the evaluation compares against.

use std::fmt;

/// A heterogeneous-memory management policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Policy {
    /// Naive baseline: everything in SlowMem (§5.1 baseline 1).
    SlowMemOnly,
    /// Ideal baseline: unlimited FastMem (§5.1 baseline 2).
    FastMemOnly,
    /// Heterogeneity-blind random placement (Fig 6/7 "Random").
    Random,
    /// Existing Linux NUMA management with FastMem as the preferred node
    /// (§5.3 "NUMA-preferred"): first-touch, no demand prioritization, no
    /// contention resolution, and CPU-local allocation noise.
    NumaPreferred,
    /// On-demand FastMem for the heap only (Table 5 "Heap-OD").
    HeapOd,
    /// Heap-OD + I/O page cache + slab prioritization with demand-based
    /// arbitration (Table 5 "Heap-IO-Slab-OD").
    HeapIoSlabOd,
    /// Heap-IO-Slab-OD + HeteroOS-LRU eager contention resolution
    /// (Table 5 "HeteroOS-LRU").
    HeteroLru,
    /// HeteroVisor-style guest-transparent management: lazy placement, full
    /// VM hotness scans and forced migrations in the VMM (§2.3).
    VmmExclusive,
    /// HeteroOS-LRU + guest-guided VMM hotness tracking + architectural
    /// hints + guest-side migration (Table 5 "HeteroOS-coordinated").
    HeteroCoordinated,
}

impl Policy {
    /// Every policy, baselines first.
    pub const ALL: [Policy; 9] = [
        Policy::SlowMemOnly,
        Policy::FastMemOnly,
        Policy::Random,
        Policy::NumaPreferred,
        Policy::HeapOd,
        Policy::HeapIoSlabOd,
        Policy::HeteroLru,
        Policy::VmmExclusive,
        Policy::HeteroCoordinated,
    ];

    /// The Fig 9 comparison set (guest-OS placement policies).
    pub const FIG9: [Policy; 4] = [
        Policy::HeapOd,
        Policy::HeapIoSlabOd,
        Policy::HeteroLru,
        Policy::NumaPreferred,
    ];

    /// The Fig 11 comparison set (coordinated management).
    pub const FIG11: [Policy; 3] = [
        Policy::HeteroLru,
        Policy::VmmExclusive,
        Policy::HeteroCoordinated,
    ];

    /// Display name matching the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            Policy::SlowMemOnly => "SlowMem-only",
            Policy::FastMemOnly => "FastMem-only",
            Policy::Random => "Random",
            Policy::NumaPreferred => "NUMA-preferred",
            Policy::HeapOd => "Heap-OD",
            Policy::HeapIoSlabOd => "Heap-IO-Slab-OD",
            Policy::HeteroLru => "HeteroOS-LRU",
            Policy::VmmExclusive => "VMM-exclusive",
            Policy::HeteroCoordinated => "HeteroOS-coordinated",
        }
    }

    /// Table 5 description (for `repro table5`).
    pub fn description(self) -> &'static str {
        match self {
            Policy::SlowMemOnly => "naive approach always using SlowMem",
            Policy::FastMemOnly => "ideal approach with unlimited FastMem",
            Policy::Random => "random heterogeneity-blind placement",
            Policy::NumaPreferred => "existing Linux preferred-NUMA-node policy",
            Policy::HeapOd => "on-demand heap allocation",
            Policy::HeapIoSlabOd => "Heap-OD + IO page cache allocation + slab allocation",
            Policy::HeteroLru => "Heap-IO-Slab-OD + HeteroOS-LRU",
            Policy::VmmExclusive => {
                "guest-transparent VMM hotness-tracking and migration (HeteroVisor)"
            }
            Policy::HeteroCoordinated => {
                "HeteroOS-LRU + OS-guided hotness-tracking + architecture hints"
            }
        }
    }

    /// True when the guest runs HeteroOS-LRU (eager aging + watermark
    /// demotion).
    pub fn uses_guest_lru(self) -> bool {
        matches!(self, Policy::HeteroLru | Policy::HeteroCoordinated)
    }

    /// True when demand-based FastMem prioritization arbitrates types under
    /// contention.
    pub fn uses_demand_prioritization(self) -> bool {
        matches!(
            self,
            Policy::HeapIoSlabOd | Policy::HeteroLru | Policy::HeteroCoordinated
        )
    }

    /// Which hotness-tracking discipline runs, if any.
    pub fn tracking(self) -> Tracking {
        match self {
            Policy::VmmExclusive => Tracking::FullVm,
            Policy::HeteroCoordinated => Tracking::Guided,
            _ => Tracking::None,
        }
    }
}

impl fmt::Display for Policy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Hotness-tracking discipline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tracking {
    /// No tracking or migration beyond guest LRU demotion.
    None,
    /// VMM scans the whole VM on a fixed interval and migrates itself.
    FullVm,
    /// VMM scans guest-supplied ranges on an adaptive interval; the guest
    /// migrates after validity checks.
    Guided,
    /// Page-table A/D tracking (HMM-V-style): hotness comes from
    /// deterministic harvest-and-reset sweeps of the guest page table's
    /// accessed/dirty bits — access bits for heat, dirty bits for write
    /// heat — priced per PTE walked. No policy selects it by default;
    /// enable it with `SimConfig::with_tracking` (`repro --tracking
    /// access-bit`).
    AccessBit,
}

impl fmt::Display for Tracking {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Tracking::None => "none",
            Tracking::FullVm => "full-vm",
            Tracking::Guided => "guided",
            Tracking::AccessBit => "access-bit",
        };
        f.write_str(s)
    }
}

impl std::str::FromStr for Tracking {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "none" => Ok(Tracking::None),
            "full-vm" => Ok(Tracking::FullVm),
            "guided" => Ok(Tracking::Guided),
            "access-bit" => Ok(Tracking::AccessBit),
            other => Err(format!(
                "unknown tracking mode '{other}' \
                 (expected none, full-vm, guided or access-bit)"
            )),
        }
    }
}

hetero_sim::impl_snap!(enum Tracking {
    0 => None {},
    1 => FullVm {},
    2 => Guided {},
    3 => AccessBit {},
});

hetero_sim::impl_snap!(enum Policy {
    0 => SlowMemOnly {},
    1 => FastMemOnly {},
    2 => Random {},
    3 => NumaPreferred {},
    4 => HeapOd {},
    5 => HeapIoSlabOd {},
    6 => HeteroLru {},
    7 => VmmExclusive {},
    8 => HeteroCoordinated {},
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = Policy::ALL.iter().map(|p| p.name()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), Policy::ALL.len());
    }

    #[test]
    fn table5_incremental_structure() {
        // Each Table 5 mechanism builds on the previous one.
        assert!(!Policy::HeapOd.uses_demand_prioritization());
        assert!(Policy::HeapIoSlabOd.uses_demand_prioritization());
        assert!(!Policy::HeapIoSlabOd.uses_guest_lru());
        assert!(Policy::HeteroLru.uses_guest_lru());
        assert_eq!(Policy::HeteroLru.tracking(), Tracking::None);
        assert_eq!(Policy::HeteroCoordinated.tracking(), Tracking::Guided);
    }

    #[test]
    fn vmm_exclusive_tracks_but_has_no_guest_lru() {
        assert_eq!(Policy::VmmExclusive.tracking(), Tracking::FullVm);
        assert!(!Policy::VmmExclusive.uses_guest_lru());
        assert!(!Policy::VmmExclusive.uses_demand_prioritization());
    }

    #[test]
    fn figure_sets_are_subsets_of_all() {
        for p in Policy::FIG9.iter().chain(Policy::FIG11.iter()) {
            assert!(Policy::ALL.contains(p));
        }
    }

    #[test]
    fn display_matches_paper_labels() {
        assert_eq!(Policy::HeteroLru.to_string(), "HeteroOS-LRU");
        assert_eq!(Policy::VmmExclusive.to_string(), "VMM-exclusive");
    }
}
