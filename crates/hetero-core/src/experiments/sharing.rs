//! Figure 13 — multi-VM resource sharing with weighted DRF.
//!
//! §5.5's scenario: a Graphchi VM (Twitter dataset — 6 GB heap, 1.5 GB
//! active working set) and a memory-hungry Metis VM (8 GB heap, 5.4 GB
//! working set) co-run on a host with 4 GB FastMem and 8 GB SlowMem.
//! Reservation vectors follow the paper: Graphchi `<2·1 GB, 1·4 GB>`,
//! Metis `<2·3 GB, 1·4 GB>`. The combined demand oversubscribes the
//! machine, so the fairness discipline decides who swaps:
//! single-resource max-min lets Metis balloon out Graphchi's SlowMem;
//! weighted DRF protects the per-type reservation.

use hetero_sim::SeriesSet;
use hetero_vmm::SharePolicy;
use hetero_workloads::{apps, WorkloadSpec};

use crate::engine::run_app;
use crate::experiments::ExpOptions;
use crate::multivm::{MultiVmSim, VmSetup};
use crate::{Policy, SimConfig};

const GB: u64 = 1 << 30;

/// Graphchi over the Twitter dataset (§5.5): 6 GB heap, 1.5 GB active WSS.
pub fn graphchi_twitter() -> WorkloadSpec {
    let mut s = apps::graphchi();
    s.footprint.heap = 6 * GB;
    s.footprint.page_cache = GB / 2;
    s.hot_wss_bytes = GB + GB / 2;
    s
}

/// Metis over the §5.5 dataset: a heap noticeably beyond its fair share of
/// the machine (the paper's 8 GB heap, 5.4 GB working set), so it demands
/// memory for the whole run — the "memory-hungry Metis".
pub fn metis_big() -> WorkloadSpec {
    let mut s = apps::metis();
    s.footprint.heap = 15 * GB / 2;
    s.footprint.page_cache = 128 << 20;
    s.hot_wss_bytes = 5 * GB + 2 * (GB / 5);
    s
}

/// The two-VM setup of Fig 13. FastMem minima follow the paper's
/// reservation vectors (1 GB / 3 GB); SlowMem minima leave boot slack so
/// the fairness discipline — not the boot carve-up — decides who gets the
/// contended SlowMem.
pub fn paper_setups(opts: &ExpOptions) -> Vec<VmSetup> {
    vec![
        VmSetup::new(
            opts.tune(graphchi_twitter()),
            GB,
            5 * GB / 2,
            2 * GB,
            7 * GB,
        ),
        VmSetup::new(opts.tune(metis_big()), 3 * GB, 5 * GB / 2, 4 * GB, 8 * GB),
    ]
}

fn host_cfg(opts: &ExpOptions) -> SimConfig {
    SimConfig::paper_default()
        .with_fast_bytes(4 * GB)
        .with_slow_bytes(8 * GB)
        .with_seed(opts.seed)
        .with_audit(opts.audit)
        .with_sched(opts.sched)
}

/// Per-VM SlowMem-only baseline: the VM alone on the host.
fn baseline(opts: &ExpOptions, setup: &VmSetup) -> crate::RunReport {
    run_app(&host_cfg(opts), Policy::SlowMemOnly, setup.spec.clone())
}

/// Figure 13: gains (%) over each VM's SlowMem-only baseline, for the four
/// configurations the paper plots. X axis: 0 = Graphchi VM, 1 = Metis VM.
pub fn fig13(opts: &ExpOptions) -> SeriesSet {
    let mut set = SeriesSet::new(
        "Fig 13 — multi-VM sharing gains (%) vs SlowMem-only (x: 0=Graphchi VM, 1=Metis VM)",
        "vm-index",
    );
    let setups = paper_setups(opts);

    /// One independent unit of Fig 13 work.
    enum Job {
        /// Per-VM SlowMem-only baseline (VM alone on the host).
        Baseline(usize),
        /// A co-run of both VMs under one sharing discipline.
        Multi(SharePolicy, Policy),
        /// The single-VM star: one VM alone under coordinated management.
        Solo(usize),
    }
    let jobs = vec![
        Job::Baseline(0),
        Job::Baseline(1),
        Job::Multi(SharePolicy::MaxMin, Policy::VmmExclusive),
        Job::Multi(SharePolicy::MaxMin, Policy::HeteroCoordinated),
        Job::Multi(SharePolicy::paper_drf(), Policy::HeteroCoordinated),
        Job::Solo(0),
        Job::Solo(1),
    ];
    let results = opts.runner().run(jobs, |job| match job {
        Job::Baseline(i) => vec![baseline(opts, &setups[i])],
        Job::Multi(share, policy) => {
            MultiVmSim::new(host_cfg(opts), share, policy, setups.clone()).run()
        }
        Job::Solo(i) => vec![run_app(
            &host_cfg(opts),
            Policy::HeteroCoordinated,
            setups[i].spec.clone(),
        )],
    });

    let baselines = [&results[0][0], &results[1][0]];
    let mut record = |label: &str, reports: &[crate::RunReport]| {
        for (i, r) in reports.iter().enumerate() {
            set.record(label, i as f64, r.gain_percent_vs(baselines[i]));
        }
    };
    record("VMM-exclusive", &results[2]);
    record("HeteroOS-coordinated", &results[3]);
    record("DRF-HeteroOS-coordinated", &results[4]);
    // The single-VM stars: each VM alone on the whole host (the paper's
    // best-case single-VM runs).
    for i in 0..setups.len() {
        set.record(
            "Single-VM HeteroOS-coordinated",
            i as f64,
            results[5 + i][0].gain_percent_vs(baselines[i]),
        );
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
    fn fig13_drf_protects_graphchi() {
        let set = fig13(&ExpOptions::quick());
        let graphchi_drf = at(&set, "DRF-HeteroOS-coordinated", 0.0);
        let graphchi_maxmin = at(&set, "HeteroOS-coordinated", 0.0);
        let graphchi_vmm = at(&set, "VMM-exclusive", 0.0);
        // §5.5: DRF improves the Graphchi VM over both max-min coordinated
        // and the VMM-exclusive approach. Quick-mode runs are noisy, so
        // allow a small tolerance against max-min; the full-length run in
        // EXPERIMENTS.md shows the clean separation.
        assert!(
            graphchi_drf >= graphchi_maxmin - 3.0,
            "DRF {graphchi_drf:.0}% vs max-min {graphchi_maxmin:.0}%"
        );
        assert!(
            graphchi_drf > graphchi_vmm,
            "DRF {graphchi_drf:.0}% vs VMM-exclusive {graphchi_vmm:.0}%"
        );
        // Contention: sharing never beats running alone.
        let solo = at(&set, "Single-VM HeteroOS-coordinated", 0.0);
        assert!(solo >= graphchi_drf - 1.0);
    }

    #[test]
    fn fig13_has_all_series_for_both_vms() {
        let set = fig13(&ExpOptions::quick());
        for series in [
            "VMM-exclusive",
            "HeteroOS-coordinated",
            "DRF-HeteroOS-coordinated",
            "Single-VM HeteroOS-coordinated",
        ] {
            let s = set.get(series).expect("series present");
            assert_eq!(s.len(), 2, "{series}");
        }
    }
}
