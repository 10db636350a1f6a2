//! Ablations of the design choices DESIGN.md calls out — beyond the
//! paper's own experiments.
//!
//! * eager vs. lazy I/O page eviction (HeteroOS-LRU's §3.3 claim),
//! * adaptive vs. fixed hotness-tracking interval (Eq. 1's claim),
//! * guided tracking lists vs. full-VM scans (§4.1's claim),
//! * DRF weight sensitivity (§4.2's weighting choice).

use hetero_mem::kind::KindMap;
use hetero_mem::MemKind;
use hetero_sim::SeriesSet;
use hetero_vmm::SharePolicy;
use hetero_workloads::apps;

use crate::engine::run_app;
use crate::experiments::{sharing, ExpOptions};
use crate::multivm::MultiVmSim;
use crate::{Policy, SimConfig};

/// Eager vs. lazy release of completed I/O pages, under HeteroOS-LRU, for
/// the I/O-intensive applications. Y: gain (%) over SlowMem-only.
pub fn ablation_lru_eviction(opts: &ExpOptions) -> SeriesSet {
    let mut set = SeriesSet::new(
        "Ablation — eager vs lazy I/O page eviction (HeteroOS-LRU, 1/4 ratio)",
        "app-index",
    );
    let specs: Vec<_> = [apps::x_stream(), apps::leveldb(), apps::graphchi()]
        .into_iter()
        .map(|s| opts.tune(s))
        .collect();
    let rows = opts.runner().run(specs, |spec| {
        let base = SimConfig::paper_default()
            .with_capacity_ratio(1, 4)
            .with_seed(opts.seed)
            .with_audit(opts.audit)
            .with_sched(opts.sched);
        let slow = run_app(&base, Policy::SlowMemOnly, spec.clone());
        let eager = run_app(&base, Policy::HeteroLru, spec.clone());
        let lazy_cfg = SimConfig {
            eager_io_override: Some(false),
            ..base
        };
        let lazy = run_app(&lazy_cfg, Policy::HeteroLru, spec);
        (eager.gain_percent_vs(&slow), lazy.gain_percent_vs(&slow))
    });
    for (ai, (eager, lazy)) in rows.into_iter().enumerate() {
        set.record("eager", ai as f64, eager);
        set.record("lazy", ai as f64, lazy);
    }
    set
}

/// Adaptive (Eq. 1 + yield backoff) vs. fixed 100 ms tracking interval for
/// the coordinated policy. Y: gain (%) and overhead (%).
pub fn ablation_adaptive_interval(opts: &ExpOptions) -> SeriesSet {
    let mut set = SeriesSet::new(
        "Ablation — adaptive vs fixed tracking interval (coordinated, 1/4 ratio)",
        "app-index",
    );
    let specs: Vec<_> = [apps::graphchi(), apps::redis()]
        .into_iter()
        .map(|s| opts.tune(s))
        .collect();
    let rows = opts.runner().run(specs, |spec| {
        let base = SimConfig::paper_default()
            .with_capacity_ratio(1, 4)
            .with_seed(opts.seed)
            .with_audit(opts.audit)
            .with_sched(opts.sched);
        let slow = run_app(&base, Policy::SlowMemOnly, spec.clone());
        let adaptive = run_app(&base, Policy::HeteroCoordinated, spec.clone());
        let fixed_cfg = SimConfig {
            adaptive_interval: false,
            ..base
        };
        let fixed = run_app(&fixed_cfg, Policy::HeteroCoordinated, spec);
        (
            adaptive.gain_percent_vs(&slow),
            fixed.gain_percent_vs(&slow),
            adaptive.overhead_percent(),
            fixed.overhead_percent(),
        )
    });
    for (ai, (a_gain, f_gain, a_over, f_over)) in rows.into_iter().enumerate() {
        set.record("adaptive-gain", ai as f64, a_gain);
        set.record("fixed-gain", ai as f64, f_gain);
        set.record("adaptive-overhead", ai as f64, a_over);
        set.record("fixed-overhead", ai as f64, f_over);
    }
    set
}

/// Guided tracking lists vs. full-VM scans for the coordinated policy.
pub fn ablation_tracking_scope(opts: &ExpOptions) -> SeriesSet {
    let mut set = SeriesSet::new(
        "Ablation — guided tracking list vs full-VM scan (coordinated, 1/4 ratio)",
        "app-index",
    );
    let specs: Vec<_> = [apps::graphchi(), apps::x_stream()]
        .into_iter()
        .map(|s| opts.tune(s))
        .collect();
    let rows = opts.runner().run(specs, |spec| {
        let base = SimConfig::paper_default()
            .with_capacity_ratio(1, 4)
            .with_seed(opts.seed)
            .with_audit(opts.audit)
            .with_sched(opts.sched);
        let slow = run_app(&base, Policy::SlowMemOnly, spec.clone());
        let guided = run_app(&base, Policy::HeteroCoordinated, spec.clone());
        let full_cfg = SimConfig {
            guided_tracking: false,
            ..base
        };
        let full = run_app(&full_cfg, Policy::HeteroCoordinated, spec);
        (
            guided.gain_percent_vs(&slow),
            full.gain_percent_vs(&slow),
            guided.scanned_pages as f64 / 1e6,
            full.scanned_pages as f64 / 1e6,
        )
    });
    for (ai, (g_gain, f_gain, g_scan, f_scan)) in rows.into_iter().enumerate() {
        set.record("guided-gain", ai as f64, g_gain);
        set.record("full-scan-gain", ai as f64, f_gain);
        set.record("guided-scanned-M", ai as f64, g_scan);
        set.record("full-scanned-M", ai as f64, f_scan);
    }
    set
}

/// DRF FastMem-weight sweep on the Fig 13 scenario. Y: the Graphchi VM's
/// runtime in seconds (lower is better for the protected VM).
pub fn ablation_drf_weights(opts: &ExpOptions) -> SeriesSet {
    let mut set = SeriesSet::new(
        "Ablation — DRF FastMem weight sweep (Fig 13 scenario)",
        "fast-weight",
    );
    let sweep = vec![1.0, 2.0, 4.0];
    let rows = opts.runner().run(sweep.clone(), |weight| {
        let mut weights: KindMap<f64> = KindMap::from_fn(|_| 1.0);
        weights[MemKind::Fast] = weight;
        MultiVmSim::new(
            SimConfig::paper_default()
                .with_fast_bytes(4 << 30)
                .with_slow_bytes(8 << 30)
                .with_seed(opts.seed)
                .with_audit(opts.audit)
                .with_sched(opts.sched),
            SharePolicy::WeightedDrf { weights },
            Policy::HeteroCoordinated,
            sharing::paper_setups(opts),
        )
        .run()
    });
    for (weight, reports) in sweep.into_iter().zip(rows) {
        set.record(
            "graphchi-vm-runtime-s",
            weight,
            reports[0].runtime.as_secs_f64(),
        );
        set.record(
            "metis-vm-runtime-s",
            weight,
            reports[1].runtime.as_secs_f64(),
        );
    }
    set
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eager_eviction_does_not_hurt() {
        let set = ablation_lru_eviction(&ExpOptions::quick());
        let eager = set
            .get("eager")
            .expect("lru-eviction ablation has no 'eager' series");
        let lazy = set
            .get("lazy")
            .expect("lru-eviction ablation has no 'lazy' series");
        for (e, l) in eager.points().iter().zip(lazy.points()) {
            assert!(
                e.1 >= l.1 - 3.0,
                "eager {:.1}% vs lazy {:.1}% at {}",
                e.1,
                l.1,
                e.0
            );
        }
    }

    #[test]
    fn adaptive_interval_cuts_overhead() {
        let set = ablation_adaptive_interval(&ExpOptions::quick());
        let a = set
            .get("adaptive-overhead")
            .expect("adaptive-interval ablation has no 'adaptive-overhead' series");
        let f = set
            .get("fixed-overhead")
            .expect("adaptive-interval ablation has no 'fixed-overhead' series");
        for (x, y) in a.points() {
            let fy = f
                .points()
                .iter()
                .find(|&&(px, _)| (px - x).abs() < 1e-9)
                .unwrap_or_else(|| panic!("'fixed-overhead' has no point at x={x}"))
                .1;
            assert!(*y <= fy + 0.5, "adaptive {y:.1}% vs fixed {fy:.1}%");
        }
    }

    #[test]
    fn guided_tracking_scans_no_more_than_full() {
        let set = ablation_tracking_scope(&ExpOptions::quick());
        let g = set
            .get("guided-scanned-M")
            .expect("tracking-scope ablation has no 'guided-scanned-M' series");
        let f = set
            .get("full-scanned-M")
            .expect("tracking-scope ablation has no 'full-scanned-M' series");
        for (gp, fp) in g.points().iter().zip(f.points()) {
            assert!(gp.1 <= fp.1 * 1.05, "guided {} vs full {}", gp.1, fp.1);
        }
    }

    #[test]
    fn drf_weight_sweep_produces_three_points() {
        let set = ablation_drf_weights(&ExpOptions::quick());
        assert_eq!(set.get("graphchi-vm-runtime-s").map(|s| s.len()), Some(3));
    }
}
