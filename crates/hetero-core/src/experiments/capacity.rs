//! Figure 3 — FastMem capacity impact.
//!
//! The FastMem:SlowMem ratio sweeps 1/2 … 1/32 at `(L:5, B:9)` under simple
//! preferred placement; the y value is the slowdown relative to a 1:1 ratio
//! (everything fits in FastMem).

use hetero_sim::SeriesSet;
use hetero_workloads::apps;

use crate::engine::run_app;
use crate::experiments::ExpOptions;
use crate::{Policy, SimConfig};

/// The Fig 3 x axis: FastMem:SlowMem capacity denominators.
pub const RATIOS: [u64; 5] = [2, 4, 8, 16, 32];

/// Figure 3: slowdown versus the FastMem capacity ratio.
pub fn fig3(opts: &ExpOptions) -> SeriesSet {
    let mut set = SeriesSet::new(
        "Fig 3 — slowdown vs FastMem 1:1 ratio (L:5,B:9, on-demand placement)",
        "1/ratio",
    );
    let specs: Vec<_> = apps::all().into_iter().map(|s| opts.tune(s)).collect();
    // Descriptor `den == 1` is the 1:1 FastMem-only baseline (everything
    // fits in FastMem); it leads each app's group.
    let mut runs: Vec<(usize, u64)> = Vec::new();
    for ai in 0..specs.len() {
        runs.push((ai, 1));
        runs.extend(RATIOS.iter().map(|&den| (ai, den)));
    }
    let reports = opts.runner().run(runs.clone(), |(ai, den)| {
        let cfg = SimConfig::paper_default()
            .with_seed(opts.seed)
            .with_audit(opts.audit)
            .with_sched(opts.sched)
            .with_capacity_ratio(1, den);
        let policy = if den == 1 {
            Policy::FastMemOnly
        } else {
            // Observation 3 is about *on-demand* allocation to FastMem.
            Policy::HeapIoSlabOd
        };
        run_app(&cfg, policy, specs[ai].clone())
    });
    let mut baseline = None;
    for (&(ai, den), r) in runs.iter().zip(&reports) {
        if den == 1 {
            baseline = Some(r);
        } else {
            let base = baseline.expect("baseline precedes its group");
            set.record(specs[ai].name, den as f64, r.slowdown_vs(base));
        }
    }
    set
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig3_reproduces_observation_3() {
        let set = fig3(&ExpOptions::quick());
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
        // Observation 3: capacity-intensive Graphchi suffers only modestly
        // even at a 1/2 ratio (paper: <2x; our placement differentiation is
        // compressed, see EXPERIMENTS.md, so allow a little headroom).
        assert!(at("Graphchi", 2.0) < 2.6);
        // Slowdowns grow (weakly) as FastMem shrinks.
        for app in ["Graphchi", "Metis"] {
            assert!(at(app, 2.0) <= at(app, 32.0) + 0.05, "{app}");
        }
        // The tiny-working-set web server barely reacts at any ratio.
        assert!(at("Nginx", 32.0) < 1.3);
        // I/O-intensive apps degrade gently from 1/2 to 1/16 (§2.2: "show
        // significantly lower impact even as the ratio is reduced").
        assert!(at("LevelDB", 16.0) / at("LevelDB", 2.0) < 1.8);
    }
}
