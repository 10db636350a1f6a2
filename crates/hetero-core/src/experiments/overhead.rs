//! Figure 8 — VMM-exclusive hotness-tracking and migration overhead.
//!
//! Graphchi runs under the VMM-exclusive policy while the scan interval
//! sweeps 100–500 ms over 32 K-page batches (§5.2's configuration). The two
//! series are the stacked-bar components of Fig 8 — hot-page tracking
//! overhead and migration overhead, as percentages of runtime — plus the
//! migrated page count (millions of real pages), which the paper prints on
//! the bars.

use hetero_sim::{CostCategory, Nanos, SeriesSet};
use hetero_workloads::apps;

use crate::engine::run_app;
use crate::experiments::ExpOptions;
use crate::{Policy, SimConfig};

/// The Fig 8 x axis (scan intervals in milliseconds).
pub const INTERVALS_MS: [u64; 5] = [100, 200, 300, 400, 500];

/// Figure 8: overhead decomposition versus scan interval.
pub fn fig8(opts: &ExpOptions) -> SeriesSet {
    let mut set = SeriesSet::new(
        "Fig 8 — VMM-exclusive tracking/migration overhead on Graphchi (32K pages/scan)",
        "interval-ms",
    );
    let spec = opts.tune(apps::graphchi());
    let rows = opts.runner().run(INTERVALS_MS.to_vec(), |ms| {
        let cfg = SimConfig::paper_default()
            .with_capacity_ratio(1, 4)
            .with_scan_interval(Nanos::from_millis(ms))
            .with_seed(opts.seed)
            .with_audit(opts.audit)
            .with_sched(opts.sched);
        let cfg = SimConfig {
            scan_batch: 32 * 1024,
            ..cfg
        };
        let r = run_app(&cfg, Policy::VmmExclusive, spec.clone());
        let hotpage = r.spent(CostCategory::HotnessScan) + r.spent(CostCategory::TlbFlush);
        let migration = r.spent(CostCategory::PageWalk) + r.spent(CostCategory::PageCopy);
        (
            hotpage.ratio(r.runtime) * 100.0,
            migration.ratio(r.runtime) * 100.0,
            (r.migrations * cfg.granule()) as f64 / 1e6,
        )
    });
    for (&ms, &(hot, mig, migrated)) in INTERVALS_MS.iter().zip(&rows) {
        set.record("hotpage-%", ms as f64, hot);
        set.record("migration-%", ms as f64, mig);
        set.record("migrated-millions", ms as f64, migrated);
    }
    set
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig8_overhead_falls_with_longer_intervals() {
        let set = fig8(&ExpOptions::quick());
        let hot = set
            .get("hotpage-%")
            .expect("fig8 has no 'hotpage-%' series");
        let first = hot.points().first().expect("fig8 'hotpage-%' is empty").1;
        let last = hot.points().last().expect("fig8 'hotpage-%' is empty").1;
        // Observation 4: 100 ms intervals cost far more than 500 ms.
        assert!(
            first > last * 1.5,
            "hotpage overhead: 100ms={first:.1}% vs 500ms={last:.1}%"
        );
        // Tracking is more expensive than migration (§5.2: "hotness-
        // tracking is even more expensive compared to the migrations").
        let mig = set
            .get("migration-%")
            .expect("fig8 has no 'migration-%' series");
        assert!(hot.points()[0].1 > mig.points()[0].1);
        // Total at 100 ms is substantial (paper: up to 60%).
        assert!(first + mig.points()[0].1 > 15.0);
        // Pages were actually migrated.
        let m = set
            .get("migrated-millions")
            .expect("fig8 has no 'migrated-millions' series");
        assert!(m.points().iter().all(|&(_, y)| y > 0.0));
    }
}
