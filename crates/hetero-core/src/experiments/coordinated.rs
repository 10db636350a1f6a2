//! Figures 11 and 12 — coordinated guest-VMM management.
//!
//! Fig 11: gains over SlowMem-only for HeteroOS-LRU, VMM-exclusive and
//! HeteroOS-coordinated at 1/4 and 1/8 capacity ratios. Fig 12: the gains
//! attributable to *migrations alone* — each tracking policy relative to
//! the placement-only Heap-IO-Slab-OD — plus total migrated pages in
//! millions (the bracketed numbers in the paper's table).

use hetero_sim::SeriesSet;
use hetero_workloads::apps;

use crate::engine::run_app;
use crate::experiments::ExpOptions;
use crate::{Policy, SimConfig};

/// The Fig 11 capacity ratios (denominators).
pub const RATIOS: [u64; 2] = [4, 8];

/// Figure 11: coordinated-management gains. X axis packs
/// `app_index * 10 + ratio_denominator`.
pub fn fig11(opts: &ExpOptions) -> SeriesSet {
    let mut set = SeriesSet::new(
        "Fig 11 — gains (%) vs SlowMem-only (x = app*10 + 1/ratio)",
        "app-ratio",
    );
    let specs: Vec<_> = apps::fig9_apps()
        .into_iter()
        .map(|s| opts.tune(s))
        .collect();
    // Flat descriptor list, baseline-first per cell (see placement::fig9).
    let mut runs: Vec<(usize, u64, Policy)> = Vec::new();
    for ai in 0..specs.len() {
        for den in RATIOS {
            runs.push((ai, den, Policy::SlowMemOnly));
            for policy in Policy::FIG11 {
                runs.push((ai, den, policy));
            }
            runs.push((ai, den, Policy::FastMemOnly));
        }
    }
    let reports = opts.runner().run(runs.clone(), |(ai, den, policy)| {
        let cfg = SimConfig::paper_default()
            .with_capacity_ratio(1, den)
            .with_seed(opts.seed)
            .with_audit(opts.audit)
            .with_sched(opts.sched);
        run_app(&cfg, policy, specs[ai].clone())
    });
    let mut slow = None;
    for (&(ai, den, policy), r) in runs.iter().zip(&reports) {
        let x = (ai * 10 + den as usize) as f64;
        if policy == Policy::SlowMemOnly {
            slow = Some(r);
        } else {
            let base = slow.expect("baseline precedes its cell");
            let label = if policy == Policy::FastMemOnly {
                "FastMem-only"
            } else {
                policy.name()
            };
            set.record(label, x, r.gain_percent_vs(base));
        }
    }
    set
}

/// One Fig 12 row: migration-attributable gain and volume.
#[derive(Debug, Clone)]
pub struct MigrationGain {
    /// Application.
    pub app: &'static str,
    /// Policy.
    pub policy: Policy,
    /// Gain (%) relative to the no-migration Heap-IO-Slab-OD placement.
    pub gain_vs_placement: f64,
    /// Total migrated pages (millions of real 4 KiB pages).
    pub migrated_millions: f64,
}

/// Figure 12: gains exclusively from migrations (1/4 ratio), for the three
/// applications the paper tabulates.
pub fn fig12(opts: &ExpOptions) -> Vec<MigrationGain> {
    let specs: Vec<_> = [apps::graphchi(), apps::redis(), apps::leveldb()]
        .into_iter()
        .map(|s| opts.tune(s))
        .collect();
    let mut runs: Vec<(usize, Policy)> = Vec::new();
    for ai in 0..specs.len() {
        runs.push((ai, Policy::HeapIoSlabOd)); // the placement-only baseline
        for policy in Policy::FIG11 {
            runs.push((ai, policy));
        }
    }
    let cfg = SimConfig::paper_default()
        .with_capacity_ratio(1, 4)
        .with_seed(opts.seed)
        .with_audit(opts.audit)
        .with_sched(opts.sched);
    let reports = opts.runner().run(runs.clone(), |(ai, policy)| {
        run_app(&cfg, policy, specs[ai].clone())
    });
    let mut out = Vec::new();
    let mut placement_only = None;
    for (&(ai, policy), r) in runs.iter().zip(&reports) {
        if policy == Policy::HeapIoSlabOd {
            placement_only = Some(r);
            continue;
        }
        out.push(MigrationGain {
            app: specs[ai].name,
            policy,
            gain_vs_placement: r
                .gain_percent_vs(placement_only.expect("baseline precedes its cell")),
            migrated_millions: (r.migrations * cfg.granule()) as f64 / 1e6,
        });
    }
    out
}

/// Renders Fig 12 as the paper's table.
pub fn fig12_table(opts: &ExpOptions) -> String {
    use std::fmt::Write as _;
    let mut out = String::from(
        "# Fig 12 — gains exclusively from migrations vs Heap-IO-Slab-OD\n\
         app        policy                  gain(%)   migrated(M)\n",
    );
    for g in fig12(opts) {
        writeln!(
            out,
            "{:<10} {:<22} {:>8.1} {:>12.2}",
            g.app,
            g.policy.name(),
            g.gain_vs_placement,
            g.migrated_millions
        )
        .expect("write to string");
    }
    out
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
    fn fig11_orderings_match_paper() {
        let set = fig11(&ExpOptions::quick());
        for (ai, app) in ["Graphchi", "X-Stream", "Metis", "LevelDB", "Redis"]
            .iter()
            .enumerate()
        {
            for den in RATIOS {
                let x = (ai * 10 + den as usize) as f64;
                let coord = at(&set, "HeteroOS-coordinated", x);
                let vmm = at(&set, "VMM-exclusive", x);
                // §5.4: the coordinated approach beats VMM-exclusive
                // everywhere (up to 2x in the paper).
                assert!(
                    coord > vmm,
                    "{app} 1/{den}: coordinated {coord:.0}% vs VMM {vmm:.0}%"
                );
            }
        }
        // LevelDB: VMM-exclusive shows <10% gains (§5.4).
        let lev_vmm = at(&set, "VMM-exclusive", 34.0);
        assert!(lev_vmm < 10.0, "LevelDB VMM-exclusive {lev_vmm:.0}%");
    }

    #[test]
    fn fig12_volumes_are_ordered_like_paper() {
        let rows = fig12(&ExpOptions::quick());
        let find = |app: &str, p: Policy| {
            rows.iter()
                .find(|g| g.app == app && g.policy == p)
                .unwrap_or_else(|| panic!("{app}/{p} row"))
        };
        // HeteroOS-LRU migrates an order of magnitude less than the
        // tracker-driven policies (paper: 0.10M vs 0.69M for Graphchi).
        let lru = find("Graphchi", Policy::HeteroLru);
        let vmm = find("Graphchi", Policy::VmmExclusive);
        assert!(lru.migrated_millions < vmm.migrated_millions);
        // VMM-exclusive's migration-only contribution is negative for all
        // three applications (paper: -30%, -20%, -10%).
        for app in ["Graphchi", "Redis", "LevelDB"] {
            assert!(
                find(app, Policy::VmmExclusive).gain_vs_placement < 0.0,
                "{app}"
            );
        }
        // Coordinated migration adds over VMM-exclusive's.
        for app in ["Graphchi", "Redis", "LevelDB"] {
            assert!(
                find(app, Policy::HeteroCoordinated).gain_vs_placement
                    > find(app, Policy::VmmExclusive).gain_vs_placement,
                "{app}"
            );
        }
    }
}
