//! Chaos demo: run the coordinated policy under a seeded fault plan and
//! watch it degrade gracefully instead of falling over.
//!
//! ```text
//! cargo run --release --example chaos_injection            # default seed
//! cargo run --release --example chaos_injection -- 42      # pick a seed
//! ```
//!
//! The same seed always produces the same fault trace — rerun it and diff.

use heteroos::core::{AuditLevel, Policy, SimConfig, SingleVmSim};
use heteroos::faults::{FaultInjector, FaultPlan};
use heteroos::workloads::{apps, AppWorkload};

fn main() {
    let seed = std::env::args()
        .nth(1)
        .map(|s| s.parse().expect("seed must be a u64"))
        .unwrap_or(7);

    let cfg = SimConfig::paper_default()
        .with_capacity_ratio(1, 4)
        .with_seed(seed)
        .with_audit(AuditLevel::Epoch);
    let mut spec = apps::graphchi();
    spec.total_instructions /= 10;
    let wl = AppWorkload::new(spec, cfg.page_size, cfg.scale);

    let mut sim = SingleVmSim::new(cfg, Policy::HeteroCoordinated, wl);
    sim.set_fault_injector(FaultInjector::new(FaultPlan::for_seed(seed)));
    while sim.step() {}

    let report = sim.report();
    println!(
        "seed {seed}: {} epochs, runtime {:.2} s",
        report.epochs,
        report.runtime.as_secs_f64()
    );
    println!(
        "fast-alloc miss ratio {:.1}%, migrations {}, events dropped {}",
        report.fast_alloc_miss_ratio * 100.0,
        report.migrations,
        report.events_dropped,
    );
    println!("invariant violations: {}", sim.violations().len());

    let trace = sim.fault_injector().expect("armed above").trace();
    println!("\n--- fault trace ({} records) ---", trace.len());
    print!("{}", trace.to_text());
}
