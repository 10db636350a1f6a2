//! `repro tiers` — the N-tier device-profile scenario family.
//!
//! Sweeps named tier topologies ([`TierProfile`] plus the throttle-derived
//! two-tier default) against placement policy and hotness-tracking
//! discipline. The tracking axis compares the paper's **guided**
//! oracle-driven scans against the page-table **A/D-harvest** tracker
//! ([`Tracking::AccessBit`]): access bits for heat, dirty bits for the
//! write heat the §4.3 write-aware rank consumes.

use hetero_mem::TierProfile;
use hetero_sim::SeriesSet;
use hetero_workloads::apps;

use crate::engine::run_app;
use crate::experiments::ExpOptions;
use crate::policy::Tracking;
use crate::{Policy, SimConfig};

const GB: u64 = 1 << 30;

/// The topology axis: every named profile plus the two-tier default.
pub const TOPOLOGIES: [&str; 4] = ["two-tier", "three-tier", "optane-dc", "cxl"];

/// The policy axis. VMM-exclusive rather than HeteroOS-LRU: with the
/// tracking override equalizing the scan discipline, LRU and coordinated
/// would collapse into the same run — the VMM-exclusive column instead
/// isolates what guest LRU + demand prioritization add on each topology.
pub const POLICIES: [Policy; 2] = [Policy::HeteroCoordinated, Policy::VmmExclusive];

/// The tracking axis.
pub const TRACKING: [Tracking; 2] = [Tracking::Guided, Tracking::AccessBit];

/// Base config for one named topology (before policy/tracking are applied).
fn topology_config(name: &str, opts: &ExpOptions) -> SimConfig {
    let base = SimConfig::paper_default()
        .with_capacity_ratio(1, 4)
        .with_seed(opts.seed)
        .with_audit(opts.audit)
        .with_sched(opts.sched);
    match name {
        "two-tier" => base,
        // Table-1 trio: stacked-3D fast, DRAM medium, PCM slow.
        "three-tier" => base
            .with_medium_bytes(2 * GB)
            .with_tier_profile(Some(TierProfile::Table1Trio)),
        "optane-dc" => base.with_tier_profile(Some(TierProfile::OptaneDc)),
        "cxl" => base.with_tier_profile(Some(TierProfile::Cxl)),
        other => panic!("unknown topology {other}"),
    }
}

/// Gains (%) over SlowMem-only for every topology × policy × tracking
/// combination, plus the per-combination scan volume (million PTEs/frames
/// examined — the price of each discipline's visibility).
///
/// Series are named `{policy}/{tracking}` (e.g.
/// `HeteroOS-coordinated/access-bit`); the x axis indexes [`TOPOLOGIES`].
pub fn tiers_matrix(opts: &ExpOptions) -> SeriesSet {
    let mut set = SeriesSet::new(
        "Tiers — device-profile topologies × policy × tracking (gains % vs SlowMem-only)",
        "topology-index",
    );
    let spec = opts.tune(apps::redis());
    let rows = opts.runner().run(TOPOLOGIES.to_vec(), |name| {
        let cfg = topology_config(name, opts);
        // The baseline keeps each policy's default (no) tracking.
        let slow = run_app(&cfg, Policy::SlowMemOnly, spec.clone());
        let mut cells = Vec::new();
        for policy in POLICIES {
            for tracking in TRACKING {
                let run_cfg = cfg.clone().with_tracking(Some(tracking));
                let r = run_app(&run_cfg, policy, spec.clone());
                cells.push((
                    policy.name(),
                    tracking,
                    r.gain_percent_vs(&slow),
                    r.scanned_pages as f64 / 1e6,
                ));
            }
        }
        cells
    });
    for (ti, cells) in rows.into_iter().enumerate() {
        for (policy, tracking, gain, scanned) in cells {
            set.record(&format!("{policy}/{tracking}"), ti as f64, gain);
            set.record(
                &format!("{policy}/{tracking}/scanned-M"),
                ti as f64,
                scanned,
            );
        }
    }
    set
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(set: &SeriesSet, series: &str, x: f64) -> f64 {
        set.get(series)
            .and_then(|s| {
                s.points()
                    .iter()
                    .find(|&&(px, _)| (px - x).abs() < 1e-9)
                    .map(|&(_, y)| y)
            })
            .unwrap_or_else(|| panic!("{series}@{x} missing"))
    }

    #[test]
    fn matrix_covers_every_cell() {
        let set = tiers_matrix(&ExpOptions::quick());
        for policy in POLICIES {
            for tracking in TRACKING {
                let name = format!("{}/{tracking}", policy.name());
                let s = set.get(&name).unwrap_or_else(|| panic!("{name} missing"));
                assert_eq!(s.points().len(), TOPOLOGIES.len(), "{name}");
                for &(_, y) in s.points() {
                    assert!(y.is_finite(), "{name}: non-finite gain");
                }
            }
        }
    }

    #[test]
    fn tracking_pays_for_itself_on_optane() {
        // With Optane-DC SlowMem (285 ns loads), promoting the hot set to
        // DRAM must beat never managing at all.
        let set = tiers_matrix(&ExpOptions::quick());
        let optane = TOPOLOGIES.iter().position(|&t| t == "optane-dc").unwrap() as f64;
        for tracking in TRACKING {
            let gain = at(
                &set,
                &format!("{}/{tracking}", Policy::HeteroCoordinated.name()),
                optane,
            );
            assert!(gain > 0.0, "{tracking}: gain {gain:.1}% on optane-dc");
        }
    }

    #[test]
    fn access_bit_scans_are_accounted() {
        // The A/D tracker's visibility is not free: its harvests must show
        // up in the scan accounting on every topology.
        let set = tiers_matrix(&ExpOptions::quick());
        for ti in 0..TOPOLOGIES.len() {
            let scanned = at(
                &set,
                &format!(
                    "{}/{}/scanned-M",
                    Policy::HeteroCoordinated.name(),
                    Tracking::AccessBit
                ),
                ti as f64,
            );
            assert!(scanned > 0.0, "topology {ti}: no A/D harvest recorded");
        }
    }
}
