//! §4.3 extension experiments — the paper's stated future work, built out.
//!
//! * **Multi-level memory** ([`ext_multitier`]): a third MediumMem tier
//!   between FastMem and SlowMem, with page-type-specific demotion
//!   (anonymous pages cascade one level; released I/O pages drop straight
//!   to the slowest tier).
//! * **Write-aware migration over NVM** ([`ext_wear`]): with the Table 1
//!   store asymmetry enabled on SlowMem, promote write-heavy pages first
//!   and keep read-heavy pages behind — trading the same migration budget
//!   for more saved store latency and fewer NVM writes (endurance).
//! * **Bare-metal deployment** ([`ext_baremetal`]): hotness tracking moves
//!   from the hypervisor into the OS, halving scan and shoot-down costs.
//! * **Explicit application hints** ([`ext_hints`]): the §3.1 extended
//!   `mmap()` flag — quantifies how close application-transparent
//!   placement gets to an application that labels its own hot buffers.

use hetero_sim::SeriesSet;
use hetero_workloads::apps;

use crate::engine::run_app;
use crate::experiments::ExpOptions;
use crate::{Policy, SimConfig};

const GB: u64 = 1 << 30;

/// Multi-level extension: gains (%) over SlowMem-only under HeteroOS-LRU
/// for three machines — two-tier (1 GB Fast), three-tier (+2 GB Medium at
/// L:2,B:2), and the three-tier machine with typed demotion disabled.
pub fn ext_multitier(opts: &ExpOptions) -> SeriesSet {
    let mut set = SeriesSet::new(
        "Extension — three-tier machines under HeteroOS-LRU (gains % vs SlowMem-only)",
        "app-index",
    );
    let specs: Vec<_> = [apps::graphchi(), apps::x_stream(), apps::redis()]
        .into_iter()
        .map(|s| opts.tune(s))
        .collect();
    let rows = opts.runner().run(specs, |spec| {
        let two_tier = SimConfig::paper_default()
            .with_fast_bytes(GB)
            .with_seed(opts.seed)
            .with_audit(opts.audit)
            .with_sched(opts.sched);
        let slow = run_app(&two_tier, Policy::SlowMemOnly, spec.clone());
        let r2 = run_app(&two_tier, Policy::HeteroLru, spec.clone());

        let three_tier = two_tier.clone().with_medium_bytes(2 * GB);
        let r3 = run_app(&three_tier, Policy::HeteroLru, spec.clone());

        let untyped = SimConfig {
            typed_demotion: false,
            ..three_tier
        };
        let r3u = run_app(&untyped, Policy::HeteroLru, spec);
        (
            r2.gain_percent_vs(&slow),
            r3.gain_percent_vs(&slow),
            r3u.gain_percent_vs(&slow),
        )
    });
    for (ai, (two, three, untyped)) in rows.into_iter().enumerate() {
        set.record("two-tier-1G", ai as f64, two);
        set.record("three-tier-1G+2G", ai as f64, three);
        set.record("three-tier-untyped-demotion", ai as f64, untyped);
    }
    set
}

/// Write-aware migration over NVM-like SlowMem: gains (%) over
/// SlowMem-only and total SlowMem store misses (millions — the endurance
/// proxy), for the coordinated policy with and without write-awareness.
pub fn ext_wear(opts: &ExpOptions) -> SeriesSet {
    let mut set = SeriesSet::new(
        "Extension — write-aware migration over NVM SlowMem (coordinated, 1/4 ratio)",
        "app-index",
    );
    let specs: Vec<_> = [apps::metis(), apps::graphchi(), apps::leveldb()]
        .into_iter()
        .map(|s| opts.tune(s))
        .collect();
    let rows = opts.runner().run(specs, |spec| {
        let base = SimConfig {
            nvm_slow: true,
            ..SimConfig::paper_default()
                .with_capacity_ratio(1, 4)
                .with_seed(opts.seed)
                .with_audit(opts.audit)
                .with_sched(opts.sched)
        };
        let slow = run_app(&base, Policy::SlowMemOnly, spec.clone());
        let plain = run_app(&base, Policy::HeteroCoordinated, spec.clone());
        let aware_cfg = SimConfig {
            write_aware: true,
            ..base
        };
        let aware = run_app(&aware_cfg, Policy::HeteroCoordinated, spec);
        (
            plain.gain_percent_vs(&slow),
            aware.gain_percent_vs(&slow),
            plain.slow_writes / 1e6,
            aware.slow_writes / 1e6,
        )
    });
    for (ai, (p_gain, a_gain, p_writes, a_writes)) in rows.into_iter().enumerate() {
        set.record("plain-gain", ai as f64, p_gain);
        set.record("write-aware-gain", ai as f64, a_gain);
        set.record("plain-slow-writes-M", ai as f64, p_writes);
        set.record("write-aware-slow-writes-M", ai as f64, a_writes);
    }
    set
}

/// Bare-metal deployment (§4.3): the coordinated policy with in-OS
/// tracking versus the virtualized split. Gains (%) over SlowMem-only and
/// management overhead (%).
pub fn ext_baremetal(opts: &ExpOptions) -> SeriesSet {
    let mut set = SeriesSet::new(
        "Extension — virtualized vs bare-metal coordinated management (1/4 ratio)",
        "app-index",
    );
    let specs: Vec<_> = [apps::graphchi(), apps::redis()]
        .into_iter()
        .map(|s| opts.tune(s))
        .collect();
    let rows = opts.runner().run(specs, |spec| {
        let virt = SimConfig::paper_default()
            .with_capacity_ratio(1, 4)
            .with_seed(opts.seed)
            .with_audit(opts.audit)
            .with_sched(opts.sched);
        let slow = run_app(&virt, Policy::SlowMemOnly, spec.clone());
        let v = run_app(&virt, Policy::HeteroCoordinated, spec.clone());
        let bare_cfg = SimConfig {
            bare_metal: true,
            ..virt
        };
        let b = run_app(&bare_cfg, Policy::HeteroCoordinated, spec);
        (
            v.gain_percent_vs(&slow),
            b.gain_percent_vs(&slow),
            v.overhead_percent(),
            b.overhead_percent(),
        )
    });
    for (ai, (v_gain, b_gain, v_over, b_over)) in rows.into_iter().enumerate() {
        set.record("virtualized-gain", ai as f64, v_gain);
        set.record("bare-metal-gain", ai as f64, b_gain);
        set.record("virtualized-overhead", ai as f64, v_over);
        set.record("bare-metal-overhead", ai as f64, b_over);
    }
    set
}

/// Explicit placement hints (§3.1): transparent demand-prioritized
/// placement versus an application that maps hot buffers with a FastMem
/// hint, at a scarce 1/8 ratio.
pub fn ext_hints(opts: &ExpOptions) -> SeriesSet {
    let mut set = SeriesSet::new(
        "Extension — transparent placement vs explicit mmap hints (1/8 ratio)",
        "app-index",
    );
    let specs: Vec<_> = [apps::graphchi(), apps::metis()]
        .into_iter()
        .map(|s| opts.tune(s))
        .collect();
    let rows = opts.runner().run(specs, |spec| {
        let base = SimConfig::paper_default()
            .with_capacity_ratio(1, 8)
            .with_seed(opts.seed)
            .with_audit(opts.audit)
            .with_sched(opts.sched);
        let slow = run_app(&base, Policy::SlowMemOnly, spec.clone());
        let transparent = run_app(&base, Policy::HeapIoSlabOd, spec.clone());
        let hinted_cfg = SimConfig {
            app_hints: true,
            ..base
        };
        let hinted = run_app(&hinted_cfg, Policy::HeapIoSlabOd, spec);
        (
            transparent.gain_percent_vs(&slow),
            hinted.gain_percent_vs(&slow),
        )
    });
    for (ai, (transparent, hinted)) in rows.into_iter().enumerate() {
        set.record("transparent-gain", ai as f64, transparent);
        set.record("hinted-gain", ai as f64, hinted);
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
    fn third_tier_helps_when_fastmem_is_tiny() {
        let set = ext_multitier(&ExpOptions::quick());
        for ai in 0..3 {
            let two = at(&set, "two-tier-1G", ai as f64);
            let three = at(&set, "three-tier-1G+2G", ai as f64);
            assert!(
                three > two,
                "app {ai}: 2GB of MediumMem must help (two {two:.1}%, three {three:.1}%)"
            );
        }
    }

    #[test]
    fn typed_demotion_does_not_hurt() {
        let set = ext_multitier(&ExpOptions::quick());
        for ai in 0..3 {
            let typed = at(&set, "three-tier-1G+2G", ai as f64);
            let untyped = at(&set, "three-tier-untyped-demotion", ai as f64);
            assert!(
                typed >= untyped - 3.0,
                "app {ai}: typed {typed:.1}% vs untyped {untyped:.1}%"
            );
        }
    }

    #[test]
    fn bare_metal_tracking_is_cheaper() {
        let set = ext_baremetal(&ExpOptions::quick());
        for ai in 0..2 {
            let v = at(&set, "virtualized-overhead", ai as f64);
            let b = at(&set, "bare-metal-overhead", ai as f64);
            assert!(b <= v + 1e-9, "app {ai}: bare {b:.1}% vs virt {v:.1}%");
            let vg = at(&set, "virtualized-gain", ai as f64);
            let bg = at(&set, "bare-metal-gain", ai as f64);
            assert!(bg >= vg - 2.0, "app {ai}: gain {bg:.1}% vs {vg:.1}%");
        }
    }

    #[test]
    fn explicit_hints_beat_transparency_under_scarcity() {
        // The paper argues transparency is *nearly* as good; hints should
        // win at a scarce ratio, but not by an order of magnitude.
        let set = ext_hints(&ExpOptions::quick());
        for ai in 0..2 {
            let t = at(&set, "transparent-gain", ai as f64);
            let h = at(&set, "hinted-gain", ai as f64);
            assert!(
                h >= t - 2.0,
                "app {ai}: hinted {h:.1}% vs transparent {t:.1}%"
            );
        }
    }

    #[test]
    fn write_awareness_cuts_nvm_writes() {
        let set = ext_wear(&ExpOptions::quick());
        for ai in 0..3 {
            let plain = at(&set, "plain-slow-writes-M", ai as f64);
            let aware = at(&set, "write-aware-slow-writes-M", ai as f64);
            assert!(
                aware <= plain * 1.02,
                "app {ai}: write-aware must not increase NVM writes ({aware:.1} vs {plain:.1})"
            );
            // And it must not cost performance.
            let pg = at(&set, "plain-gain", ai as f64);
            let ag = at(&set, "write-aware-gain", ai as f64);
            assert!(ag >= pg - 3.0, "app {ai}: gain {ag:.1}% vs {pg:.1}%");
        }
    }
}
