//! Figures 9 and 10 — guest-OS memory placement.
//!
//! Fig 9: performance gains (%) over SlowMem-only for the incremental
//! placement mechanisms (Heap-OD, Heap-IO-Slab-OD, HeteroOS-LRU) and
//! NUMA-preferred, at FastMem ratios 1/2, 1/4 and 1/8, with the
//! FastMem-only ideal as the reference line. Fig 10: the cumulative FastMem
//! allocation miss ratio at the 1/8 ratio.

use hetero_sim::SeriesSet;
use hetero_workloads::apps;

use crate::engine::run_app;
use crate::experiments::ExpOptions;
use crate::{Policy, SimConfig};

/// The Fig 9 capacity ratios (denominators).
pub const RATIOS: [u64; 3] = [2, 4, 8];

/// Figure 9: per-app gains over SlowMem-only. One series per policy; the x
/// axis interleaves `app_index * 10 + ratio_denominator` so every (app,
/// ratio) pair is a distinct position, exactly like the paper's grouped
/// bars.
pub fn fig9(opts: &ExpOptions) -> SeriesSet {
    let mut set = SeriesSet::new(
        "Fig 9 — gains (%) vs SlowMem-only (x = app*10 + 1/ratio)",
        "app-ratio",
    );
    let specs: Vec<_> = apps::fig9_apps()
        .into_iter()
        .map(|s| opts.tune(s))
        .collect();
    // One descriptor per independent run. The SlowMem-only baseline of
    // each (app, ratio) cell comes first so the in-order merge below can
    // resolve gains in a single linear pass.
    let mut runs: Vec<(usize, u64, Policy)> = Vec::new();
    for ai in 0..specs.len() {
        for den in RATIOS {
            runs.push((ai, den, Policy::SlowMemOnly));
            for policy in Policy::FIG9 {
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

/// Figure 10: FastMem allocation miss ratio at the 1/8 capacity ratio.
pub fn fig10(opts: &ExpOptions) -> SeriesSet {
    let mut set = SeriesSet::new(
        "Fig 10 — FastMem allocation miss ratio, 1/8 capacity ratio",
        "app-index",
    );
    let specs: Vec<_> = apps::fig9_apps()
        .into_iter()
        .map(|s| opts.tune(s))
        .collect();
    let mut runs: Vec<(usize, Policy)> = Vec::new();
    for ai in 0..specs.len() {
        for policy in Policy::FIG9 {
            runs.push((ai, policy));
        }
    }
    let reports = opts.runner().run(runs.clone(), |(ai, policy)| {
        let cfg = SimConfig::paper_default()
            .with_capacity_ratio(1, 8)
            .with_seed(opts.seed)
            .with_audit(opts.audit)
            .with_sched(opts.sched);
        run_app(&cfg, policy, specs[ai].clone())
    });
    for (&(ai, policy), r) in runs.iter().zip(&reports) {
        set.record(policy.name(), ai as f64, r.fast_alloc_miss_ratio);
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
    fn fig9_policy_orderings_match_paper() {
        let set = fig9(&ExpOptions::quick());
        // App order: Graphchi(0) X-Stream(1) Metis(2) LevelDB(3) Redis(4).
        // LevelDB at 1/2 (x=32): I/O prioritization is decisive (§5.3).
        assert!(at(&set, "Heap-IO-Slab-OD", 32.0) > at(&set, "Heap-OD", 32.0) + 10.0);
        // Redis at 1/2 (x=42): slab/netbuf prioritization pays.
        assert!(at(&set, "Heap-IO-Slab-OD", 42.0) > at(&set, "Heap-OD", 42.0) + 10.0);
        // Every HeteroOS policy beats doing nothing at every point.
        for p in ["Heap-OD", "Heap-IO-Slab-OD", "HeteroOS-LRU"] {
            for pt in set
                .get(p)
                .unwrap_or_else(|| panic!("fig9 has no '{p}' series"))
                .points()
            {
                assert!(pt.1 > 0.0, "{p}@{}: {}", pt.0, pt.1);
            }
        }
        // Gains shrink as FastMem shrinks (Graphchi 1/2 vs 1/8).
        assert!(at(&set, "Heap-OD", 2.0) > at(&set, "Heap-OD", 8.0));
        // The FastMem-only ideal bounds everything.
        for p in Policy::FIG9 {
            for den in RATIOS {
                let x = 2.0 * 10.0 + den as f64; // Metis column
                assert!(at(&set, "FastMem-only", x) + 1.0 >= at(&set, p.name(), x));
            }
        }
    }

    #[test]
    fn fig10_output_is_byte_identical_across_job_counts() {
        // The determinism contract of the parallel runner: thread count
        // must not change a single byte of the exported artifact.
        let seq = fig10(&ExpOptions::quick());
        let par = fig10(&ExpOptions::quick().with_jobs(4));
        assert_eq!(seq.to_json(), par.to_json());
        assert_eq!(seq.to_csv(), par.to_csv());
    }

    #[test]
    fn fig10_miss_ratios_match_paper_shape() {
        let set = fig10(&ExpOptions::quick());
        // NUMA-preferred wants FastMem for everything and misses heavily
        // for the big-footprint applications (paper: 0.72–1.00). The
        // small-footprint LevelDB/Redis miss less here because more of
        // their resident set fits the 1 GB FastMem.
        for ai in 0..3 {
            let numa = at(&set, "NUMA-preferred", ai as f64);
            assert!(numa > 0.4, "app {ai}: NUMA-preferred ratio {numa}");
        }
        for ai in 0..5 {
            // HeteroOS-LRU actively makes room, so it misses no more than
            // the passive Heap-IO-Slab-OD.
            let lru = at(&set, "HeteroOS-LRU", ai as f64);
            let od = at(&set, "Heap-IO-Slab-OD", ai as f64);
            assert!(lru <= od + 0.05, "app {ai}: lru {lru} vs od {od}");
        }
    }
}
