//! Named device-profile tier topologies (the `--tier-profile` registry).
//!
//! The paper's evaluation anchors every experiment to the Table-1/Table-3
//! FastMem/SlowMem points. This module generalises that into a registry of
//! **named tier topologies**: each [`TierProfile`] resolves to a
//! [`TierSpec`] giving per-tier latency (load ≠ store where the device is
//! asymmetric) and bandwidth (read ≠ write where the device is asymmetric),
//! ready to become engine [`NodeParams`]:
//!
//! * `table1-trio` — the paper's three Table-1 technologies stacked as a
//!   3-tier topology (stacked 3D-DRAM / DRAM / PCM-like NVM),
//! * `optane-dc` — DRAM over Intel Optane DC, with the measured
//!   load/store latency asymmetry *and* the ~3× read-over-write
//!   bandwidth asymmetry (Hirofuchi & Takano),
//! * `cxl` — DRAM over a CXL-attached expander: DRAM-like media latency
//!   at ~1.75× plus a host-bridge bandwidth cap.
//!
//! Profiles are selected with `repro --tier-profile NAME` and compose with
//! every other run-shaping flag; the selector is a plain enum so it
//! snapshots as a single byte.

use std::fmt;
use std::str::FromStr;

use hetero_sim::Nanos;

use crate::kind::MemKind;
use crate::node::NodeParams;
use crate::tech::TechProfile;

/// Timing and bandwidth parameters of one tier in a named topology.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeSpec {
    /// Uncontended load (read) latency.
    pub load_latency: Nanos,
    /// Uncontended store (write) latency.
    pub store_latency: Nanos,
    /// Sustainable read bandwidth in GB/s.
    pub read_bandwidth_gbps: f64,
    /// Sustainable write bandwidth in GB/s.
    pub write_bandwidth_gbps: f64,
}

impl NodeSpec {
    /// A direction-symmetric tier (same latency and bandwidth for loads
    /// and stores).
    pub fn symmetric(latency: Nanos, bandwidth_gbps: f64) -> Self {
        NodeSpec {
            load_latency: latency,
            store_latency: latency,
            read_bandwidth_gbps: bandwidth_gbps,
            write_bandwidth_gbps: bandwidth_gbps,
        }
    }

    /// The range midpoints of a Table-1 technology column.
    pub fn from_tech(t: &TechProfile) -> Self {
        NodeSpec {
            load_latency: t.load_latency_mid(),
            store_latency: t.store_latency_mid(),
            read_bandwidth_gbps: t.bandwidth_mid(),
            write_bandwidth_gbps: t.bandwidth_mid(),
        }
    }

    /// Resolves this spec into engine node parameters.
    ///
    /// # Panics
    ///
    /// Panics if `capacity_bytes` is zero (a memory node must have
    /// capacity, same contract as [`NodeParams::new`]).
    pub fn node_params(&self, kind: MemKind, capacity_bytes: u64) -> NodeParams {
        assert!(capacity_bytes > 0, "memory node must have capacity");
        NodeParams {
            kind,
            capacity_bytes,
            load_latency: self.load_latency,
            store_latency: self.store_latency,
            bandwidth_gbps: self.read_bandwidth_gbps,
            write_bandwidth_gbps: self.write_bandwidth_gbps,
        }
    }
}

/// A named tier topology: device parameters for each tier it populates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TierSpec {
    /// Registry name (what `--tier-profile` parses).
    pub name: &'static str,
    /// One-line description for help text and docs.
    pub summary: &'static str,
    /// The fast tier.
    pub fast: NodeSpec,
    /// The middle tier, when the topology is three-tier.
    pub medium: Option<NodeSpec>,
    /// The slow tier.
    pub slow: NodeSpec,
}

impl TierSpec {
    /// The spec for one tier, if the topology populates it.
    pub fn tier(&self, kind: MemKind) -> Option<&NodeSpec> {
        match kind {
            MemKind::Fast => Some(&self.fast),
            MemKind::Medium => self.medium.as_ref(),
            MemKind::Slow => Some(&self.slow),
        }
    }

    /// True when the topology populates the middle tier.
    pub fn is_three_tier(&self) -> bool {
        self.medium.is_some()
    }
}

/// Selector for a registered tier topology.
///
/// This is the value that travels through `SimConfig` and snapshots: a
/// fieldless enum rather than the resolved [`TierSpec`], so the snapshot
/// stays one byte and the parameters stay single-sourced in [`Self::spec`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TierProfile {
    /// The Table-1 trio as a 3-tier topology (3D-DRAM / DRAM / PCM).
    Table1Trio,
    /// DRAM over Intel Optane DC (asymmetric latency and bandwidth).
    OptaneDc,
    /// DRAM over a CXL-attached memory expander.
    Cxl,
}

impl TierProfile {
    /// Every registered profile, in presentation order.
    pub const ALL: [TierProfile; 3] = [
        TierProfile::Table1Trio,
        TierProfile::OptaneDc,
        TierProfile::Cxl,
    ];

    /// Registry name (what `--tier-profile` parses).
    pub fn name(self) -> &'static str {
        self.spec().name
    }

    /// Looks a profile up by its registry name.
    pub fn by_name(name: &str) -> Option<TierProfile> {
        TierProfile::ALL.into_iter().find(|p| p.name() == name)
    }

    /// Resolves the profile to its device parameters.
    pub fn spec(self) -> TierSpec {
        match self {
            TierProfile::Table1Trio => TierSpec {
                name: "table1-trio",
                summary: "Table-1 trio as 3 tiers: stacked 3D-DRAM / DRAM / PCM",
                fast: NodeSpec::from_tech(&TechProfile::stacked_3d()),
                medium: Some(NodeSpec::from_tech(&TechProfile::dram())),
                slow: NodeSpec::from_tech(&TechProfile::nvm_pcm()),
            },
            TierProfile::OptaneDc => TierSpec {
                name: "optane-dc",
                summary: "DRAM over Optane DC: 285/95 ns loads/stores, 6.6/2.3 GB/s reads/writes",
                fast: NodeSpec::from_tech(&TechProfile::dram()),
                medium: None,
                slow: NodeSpec {
                    load_latency: TechProfile::optane_dc().load_latency_mid(),
                    store_latency: TechProfile::optane_dc().store_latency_mid(),
                    // The Optane bandwidth range spans write→read: the
                    // read/write split is the point of this profile.
                    read_bandwidth_gbps: TechProfile::optane_dc().bandwidth_gbps.1,
                    write_bandwidth_gbps: TechProfile::optane_dc().bandwidth_gbps.0,
                },
            },
            TierProfile::Cxl => TierSpec {
                name: "cxl",
                summary: "DRAM over a CXL expander: DRAM latency at 1.75x, 11 GB/s bridge cap",
                fast: NodeSpec::from_tech(&TechProfile::dram()),
                medium: None,
                // CXL media is plain DRAM; the penalty is the link: ~1.75x
                // the 60 ns DRAM latency and a host-bridge cap well under
                // the local socket's sustainable bandwidth, symmetric in
                // both directions.
                slow: NodeSpec::symmetric(Nanos::from_nanos(105), 11.0),
            },
        }
    }

    /// All registry names, for help text and error messages.
    pub fn names() -> Vec<&'static str> {
        TierProfile::ALL.iter().map(|p| p.name()).collect()
    }
}

impl fmt::Display for TierProfile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for TierProfile {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        TierProfile::by_name(s).ok_or_else(|| {
            format!(
                "unknown tier profile '{s}' (expected one of: {})",
                TierProfile::names().join(", ")
            )
        })
    }
}

hetero_sim::impl_snap!(enum TierProfile {
    0 => Table1Trio {},
    1 => OptaneDc {},
    2 => Cxl {},
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_profile_round_trips_by_name() {
        for p in TierProfile::ALL {
            assert_eq!(TierProfile::by_name(p.name()), Some(p));
            assert_eq!(p.name().parse::<TierProfile>().unwrap(), p);
            assert_eq!(p.to_string(), p.name());
        }
        assert!("nope"
            .parse::<TierProfile>()
            .unwrap_err()
            .contains("optane-dc"));
    }

    #[test]
    fn table1_trio_is_the_only_three_tier_profile() {
        assert!(TierProfile::Table1Trio.spec().is_three_tier());
        assert!(!TierProfile::OptaneDc.spec().is_three_tier());
        assert!(!TierProfile::Cxl.spec().is_three_tier());
        assert!(TierProfile::OptaneDc.spec().tier(MemKind::Medium).is_none());
        assert!(TierProfile::Table1Trio
            .spec()
            .tier(MemKind::Medium)
            .is_some());
    }

    #[test]
    fn optane_profile_is_asymmetric_both_ways() {
        let slow = TierProfile::OptaneDc.spec().slow;
        assert_eq!(slow.load_latency, Nanos::from_nanos(285));
        assert_eq!(slow.store_latency, Nanos::from_nanos(95));
        assert!((slow.read_bandwidth_gbps - 6.6).abs() < 1e-9);
        assert!((slow.write_bandwidth_gbps - 2.3).abs() < 1e-9);
    }

    #[test]
    fn cxl_profile_is_dram_like_but_capped() {
        let spec = TierProfile::Cxl.spec();
        let dram = NodeSpec::from_tech(&TechProfile::dram());
        let ratio = spec.slow.load_latency.as_nanos() as f64 / dram.load_latency.as_nanos() as f64;
        assert!((1.5..=2.0).contains(&ratio), "CXL latency ratio {ratio}");
        assert_eq!(spec.slow.load_latency, spec.slow.store_latency);
        assert!(spec.slow.read_bandwidth_gbps < dram.read_bandwidth_gbps * 0.6);
    }

    #[test]
    fn specs_resolve_to_node_params() {
        let p = TierProfile::OptaneDc
            .spec()
            .slow
            .node_params(MemKind::Slow, 8 << 30);
        assert_eq!(p.kind, MemKind::Slow);
        assert_eq!(p.load_latency, Nanos::from_nanos(285));
        assert!((p.write_bandwidth_gbps - 2.3).abs() < 1e-9);
        assert!((p.bandwidth_gbps - 6.6).abs() < 1e-9);
    }

    #[test]
    fn tiers_get_slower_down_the_stack() {
        for p in TierProfile::ALL {
            let spec = p.spec();
            let mut prev = spec.fast.load_latency;
            for k in [MemKind::Medium, MemKind::Slow] {
                if let Some(t) = spec.tier(k) {
                    assert!(t.load_latency >= prev, "{}: {k} got faster", spec.name);
                    prev = t.load_latency;
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_is_rejected() {
        TierProfile::Cxl.spec().fast.node_params(MemKind::Fast, 0);
    }
}
