//! Figures 6 and 7 — memlat latency and Stream bandwidth microbenchmarks.
//!
//! §5.2's configuration: 0.5 GB FastMem, 3.5 GB SlowMem. Five approaches
//! are compared: Random, Heap-OD, FastMem-only, VMM-exclusive and
//! SlowMem-only. Fig 6 reports average access latency in cycles as the
//! working set grows; Fig 7 reports achieved bandwidth.

use hetero_sim::SeriesSet;
use hetero_workloads::micro;

use crate::engine::run_app;
use crate::experiments::ExpOptions;
use crate::{Policy, SimConfig};

const GB: u64 = 1 << 30;

/// The §5.2 microbenchmark policy set.
pub const MICRO_POLICIES: [Policy; 5] = [
    Policy::SlowMemOnly,
    Policy::Random,
    Policy::HeapOd,
    Policy::FastMemOnly,
    Policy::VmmExclusive,
];

fn micro_cfg(opts: &ExpOptions) -> SimConfig {
    SimConfig::paper_default()
        .with_fast_bytes(GB / 2)
        .with_slow_bytes(3 * GB + GB / 2)
        .with_seed(opts.seed)
        .with_audit(opts.audit)
        .with_sched(opts.sched)
}

/// Figure 6: average memory latency (cycles) versus working-set size.
pub fn fig6(opts: &ExpOptions) -> SeriesSet {
    let mut set = SeriesSet::new(
        "Fig 6 — memlat average latency (cycles), 0.5GB FastMem / 3.5GB SlowMem",
        "wss-gb",
    );
    let specs: Vec<_> = micro::memlat_sweep()
        .into_iter()
        .map(|s| opts.tune(s))
        .collect();
    let mut runs: Vec<(usize, Policy)> = Vec::new();
    for si in 0..specs.len() {
        for policy in MICRO_POLICIES {
            runs.push((si, policy));
        }
    }
    let reports = opts.runner().run(runs.clone(), |(si, policy)| {
        run_app(&micro_cfg(opts), policy, specs[si].clone())
    });
    for (&(si, policy), r) in runs.iter().zip(&reports) {
        let wss_gb = specs[si].footprint.heap as f64 / GB as f64;
        set.record(
            policy.name(),
            wss_gb,
            r.avg_miss_latency_cycles(specs[si].clock_ghz),
        );
    }
    set
}

/// Figure 7: Stream achieved bandwidth (GB/s) at 0.5 GB and 1.5 GB working
/// sets.
pub fn fig7(opts: &ExpOptions) -> SeriesSet {
    let mut set = SeriesSet::new(
        "Fig 7 — Stream bandwidth (GB/s), 0.5GB FastMem / 3.5GB SlowMem",
        "wss-gb",
    );
    let specs: Vec<_> = micro::stream_sweep()
        .into_iter()
        .map(|s| opts.tune(s))
        .collect();
    let mut runs: Vec<(usize, Policy)> = Vec::new();
    for si in 0..specs.len() {
        for policy in MICRO_POLICIES {
            runs.push((si, policy));
        }
    }
    let reports = opts.runner().run(runs.clone(), |(si, policy)| {
        run_app(&micro_cfg(opts), policy, specs[si].clone())
    });
    for (&(si, policy), r) in runs.iter().zip(&reports) {
        let wss_gb = specs[si].footprint.heap as f64 / GB as f64;
        set.record(policy.name(), wss_gb, r.achieved_bandwidth_gbps);
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
                    .find(|&&(px, _)| (px - x).abs() < 1e-6)
                    .map(|&(_, y)| y)
            })
            .unwrap_or_else(|| panic!("{series}@{x} missing"))
    }

    #[test]
    fn fig6_latency_ordering_matches_paper() {
        let set = fig6(&ExpOptions::quick());
        let small = 0.099609375; // 102 MB point
                                 // Small working set: on-demand allocation achieves near-ideal
                                 // latency; VMM-exclusive stays slow (lazy placement).
        let fast = at(&set, "FastMem-only", small);
        let od = at(&set, "Heap-OD", small);
        let vmm = at(&set, "VMM-exclusive", small);
        let slow = at(&set, "SlowMem-only", small);
        assert!(od < fast * 1.3, "Heap-OD {od:.0} vs ideal {fast:.0}");
        assert!(vmm > od, "VMM-exclusive must lag on small WSS");
        assert!(slow > fast * 3.0);
        // Large working set: Heap-OD degrades toward SlowMem latency.
        let od_big = at(&set, "Heap-OD", 2.0);
        assert!(od_big > od * 1.5);
    }

    #[test]
    fn fig7_bandwidth_ordering_matches_paper() {
        let set = fig7(&ExpOptions::quick());
        // 0.5 GB WSS fits FastMem: Heap-OD approaches the ideal.
        let fast = at(&set, "FastMem-only", 0.5);
        let od = at(&set, "Heap-OD", 0.5);
        let slow = at(&set, "SlowMem-only", 0.5);
        assert!(fast > 3.0 * slow, "fast {fast:.1} vs slow {slow:.1} GB/s");
        assert!(od > slow * 1.5);
        // 1.5 GB exceeds FastMem: Heap-OD bandwidth drops.
        let od_big = at(&set, "Heap-OD", 1.5);
        assert!(od_big < od);
    }
}
