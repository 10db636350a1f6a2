//! Figures 1 and 2 — latency/bandwidth sensitivity.
//!
//! Every application runs entirely in SlowMem while the throttle
//! configuration sweeps `(L:2,B:2) … (L:5,B:12)`; the y value is the
//! slowdown relative to the FastMem-only ideal. Fig 1 adds a remote-NUMA
//! bar (FastMem on a remote socket) and uses the 16 MB-LLC testbed; Fig 2
//! repeats the sweep on the 48 MB-LLC Intel NVM emulator.

use hetero_mem::{LlcModel, ThrottleConfig};
use hetero_sim::SeriesSet;
use hetero_workloads::apps;

use crate::engine::run_app;
use crate::experiments::ExpOptions;
use crate::{Policy, SimConfig};

fn sweep(opts: &ExpOptions, llc: LlcModel, include_remote: bool, title: &str) -> SeriesSet {
    let mut set = SeriesSet::new(title, "bw-factor");
    let specs: Vec<_> = apps::all().into_iter().map(|s| opts.tune(s)).collect();
    // One descriptor per run: the FastMem-only baseline (x = None) leads
    // each app's group, followed by the throttle sweep and (for Fig 1) the
    // remote-NUMA bar at x = 16.
    let mut runs: Vec<(usize, Option<ThrottleConfig>, Option<f64>)> = Vec::new();
    for ai in 0..specs.len() {
        runs.push((ai, None, None));
        for t in ThrottleConfig::figure1_sweep() {
            runs.push((ai, Some(t), Some(t.bandwidth_factor)));
        }
        if include_remote {
            runs.push((ai, Some(ThrottleConfig::remote_numa()), Some(16.0)));
        }
    }
    let reports = opts.runner().run(runs.clone(), |(ai, throttle, _)| {
        let cfg = SimConfig::paper_default()
            .with_capacity_ratio(1, 4)
            .with_llc(llc)
            .with_seed(opts.seed)
            .with_audit(opts.audit)
            .with_sched(opts.sched);
        match throttle {
            None => run_app(&cfg, Policy::FastMemOnly, specs[ai].clone()),
            Some(t) => run_app(
                &cfg.with_slow_throttle(t),
                Policy::SlowMemOnly,
                specs[ai].clone(),
            ),
        }
    });
    let mut fast = None;
    for (&(ai, _, x), r) in runs.iter().zip(&reports) {
        match x {
            None => fast = Some(r),
            Some(x) => {
                let base = fast.expect("baseline precedes its group");
                set.record(specs[ai].name, x, r.slowdown_vs(base));
            }
        }
    }
    set
}

/// Figure 1: sensitivity on the throttling testbed (16 MB LLC), plus the
/// remote-NUMA comparison bar at x = 16.
pub fn fig1(opts: &ExpOptions) -> SeriesSet {
    sweep(
        opts,
        LlcModel::testbed(),
        true,
        "Fig 1 — slowdown vs FastMem-only, 16MB LLC (x=16 is Remote NUMA)",
    )
}

/// Figure 2: the same sweep on the Intel NVM emulator (48 MB LLC).
pub fn fig2(opts: &ExpOptions) -> SeriesSet {
    sweep(
        opts,
        LlcModel::intel_emulator(),
        false,
        "Fig 2 — slowdown vs FastMem-only, Intel NVM emulator (48MB LLC)",
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig1_reproduces_observation_1_and_2() {
        let set = fig1(&ExpOptions::quick());
        // Observation 1: memory-intensive graph engines suffer most at
        // (L:5,B:12); Nginx barely notices.
        let at = |app: &str, x: f64| {
            set.get(app)
                .and_then(|s| {
                    s.points()
                        .iter()
                        .find(|&&(px, _)| (px - x).abs() < 1e-9)
                        .map(|&(_, y)| y)
                })
                .unwrap_or_else(|| panic!("{app}@{x} missing"))
        };
        assert!(at("Graphchi", 12.0) > 4.0);
        assert!(at("Nginx", 12.0) < 1.4);
        assert!(at("Graphchi", 12.0) > at("LevelDB", 12.0));
        // Observation 2: remote NUMA (x=16) costs far less than any
        // heterogeneous configuration (<30%).
        assert!(at("Graphchi", 16.0) < 1.3);
        assert!(at("Graphchi", 16.0) < at("Graphchi", 2.0));
        // Monotonic in the bandwidth factor.
        assert!(at("X-Stream", 2.0) < at("X-Stream", 5.0));
        assert!(at("X-Stream", 5.0) < at("X-Stream", 12.0));
    }

    #[test]
    fn fig2_larger_cache_lowers_slowdowns() {
        let opts = ExpOptions::quick();
        let f1 = fig1(&opts);
        let f2 = fig2(&opts);
        for app in ["LevelDB", "Redis", "Nginx"] {
            let y1 = f1
                .get(app)
                .unwrap_or_else(|| panic!("fig1 has no '{app}' series"))
                .max_y()
                .unwrap_or_else(|| panic!("fig1 '{app}' series is empty"));
            let y2 = f2
                .get(app)
                .unwrap_or_else(|| panic!("fig2 has no '{app}' series"))
                .max_y()
                .unwrap_or_else(|| panic!("fig2 '{app}' series is empty"));
            assert!(
                y2 <= y1 + 1e-9,
                "{app}: 48MB LLC should not raise the slowdown ({y2} vs {y1})"
            );
        }
    }
}
