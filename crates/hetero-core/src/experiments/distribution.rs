//! Figure 4 — application memory page distribution.
//!
//! Runs each application once (placement-neutral SlowMem-only) and reads the
//! *cumulative allocation counts* per page type out of the guest kernel's
//! statistics — the same quantity Fig 4 plots (per-type percentage plus the
//! total pages allocated over the run, in millions of real 4 KiB pages).

use hetero_guest::page::PageType;
use hetero_sim::SeriesSet;
use hetero_workloads::{apps, AppWorkload};

use crate::engine::SingleVmSim;
use crate::experiments::ExpOptions;
use crate::{Policy, SimConfig};

/// One application's measured page mix.
#[derive(Debug, Clone)]
pub struct PageMix {
    /// Application name.
    pub app: &'static str,
    /// Fraction of cumulative allocations per page type.
    pub fractions: Vec<(PageType, f64)>,
    /// Total real (4 KiB-equivalent) pages allocated, in millions.
    pub total_millions: f64,
}

/// Figure 4 data: the five profiled applications' page mixes.
pub fn fig4(opts: &ExpOptions) -> Vec<PageMix> {
    let order = [
        apps::redis(),
        apps::x_stream(),
        apps::graphchi(),
        apps::metis(),
        apps::leveldb(),
    ];
    let specs: Vec<_> = order.into_iter().map(|s| opts.tune(s)).collect();
    opts.runner().run(specs, |spec| {
        let cfg = SimConfig::paper_default()
            .with_capacity_ratio(1, 4)
            .with_seed(opts.seed)
            .with_audit(opts.audit)
            .with_sched(opts.sched);
        let name = spec.name;
        let workload = AppWorkload::new(spec, cfg.page_size, cfg.scale);
        let mut sim = SingleVmSim::new(cfg.clone(), Policy::SlowMemOnly, workload);
        while sim.step() {}
        let stats = sim.kernel().stats();
        let total: u64 = PageType::ALL
            .iter()
            .map(|&t| stats.cumulative(t).requests)
            .sum();
        let fractions = PageType::ALL
            .iter()
            .map(|&t| {
                let f = if total == 0 {
                    0.0
                } else {
                    stats.cumulative(t).requests as f64 / total as f64
                };
                (t, f)
            })
            .collect();
        PageMix {
            app: name,
            fractions,
            total_millions: cfg.real_pages(total) as f64 / 1e6,
        }
    })
}

/// Renders the Fig 4 data as a text table.
pub fn fig4_table(opts: &ExpOptions) -> String {
    use std::fmt::Write as _;
    let mixes = fig4(opts);
    let mut out = String::from("# Fig 4 — application memory page distribution\n");
    write!(out, "{:<10}", "app").expect("write to string");
    for t in PageType::ALL {
        write!(out, " {:>12}", t.to_string()).expect("write to string");
    }
    writeln!(out, " {:>10}", "total(M)").expect("write to string");
    for m in mixes {
        write!(out, "{:<10}", m.app).expect("write to string");
        for (_, f) in &m.fractions {
            write!(out, " {:>11.1}%", f * 100.0).expect("write to string");
        }
        writeln!(out, " {:>10.2}", m.total_millions).expect("write to string");
    }
    out
}

/// Series form for plotting (x = app index in Fig 4 order).
pub fn fig4_series(opts: &ExpOptions) -> SeriesSet {
    let mut set = SeriesSet::new("Fig 4 — page distribution (%)", "app-index");
    for (i, m) in fig4(opts).into_iter().enumerate() {
        for (t, f) in m.fractions {
            set.record(&t.to_string(), i as f64, f * 100.0);
        }
        set.record("total-millions", i as f64, m.total_millions);
    }
    set
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig4_mixes_match_paper_shape() {
        let mixes = fig4(&ExpOptions::quick());
        let get = |app: &str| mixes.iter().find(|m| m.app == app).expect("app present");
        let frac = |m: &PageMix, t: PageType| {
            m.fractions
                .iter()
                .find(|&&(pt, _)| pt == t)
                .map(|&(_, f)| f)
                .unwrap_or(0.0)
        };
        // Redis is the network-buffer-heavy application.
        let redis = get("Redis");
        assert!(frac(redis, PageType::NetBuf) > 0.02);
        // X-Stream and LevelDB are page-cache heavy.
        assert!(frac(get("X-Stream"), PageType::PageCache) > 0.3);
        assert!(frac(get("LevelDB"), PageType::PageCache) > 0.3);
        // Metis is overwhelmingly heap.
        assert!(frac(get("Metis"), PageType::HeapAnon) > 0.7);
        // Fractions sum to one.
        for m in &mixes {
            let sum: f64 = m.fractions.iter().map(|&(_, f)| f).sum();
            assert!((sum - 1.0).abs() < 1e-9, "{}", m.app);
        }
        // Graphchi allocates the most pages overall (Fig 4: 5.04 M).
        let totals: Vec<(&str, f64)> = mixes.iter().map(|m| (m.app, m.total_millions)).collect();
        let max = totals
            .iter()
            .max_by(|a, b| a.1.partial_cmp(&b.1).expect("finite"))
            .expect("non-empty");
        assert_eq!(max.0, "Graphchi", "totals: {totals:?}");
    }

    #[test]
    fn fig4_table_renders() {
        let t = fig4_table(&ExpOptions::quick());
        assert!(t.contains("Redis"));
        assert!(t.contains("total(M)"));
    }
}
