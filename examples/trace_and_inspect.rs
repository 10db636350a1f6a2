//! Record a workload trace, replay it under two policies, and inspect the
//! engine's event log and telemetry.
//!
//! Traces decouple *what the application did* from *how memory was
//! managed*: the exact same demand stream runs under every policy, the
//! event log shows the management actions each policy took, and the
//! telemetry registry + span trace show where the simulated time went.
//!
//! ```text
//! cargo run --release --example trace_and_inspect
//! ```

use heteroos::core::engine::SingleVmSim;
use heteroos::core::{Policy, SimConfig};
use heteroos::sim::SimRng;
use heteroos::workloads::{apps, AppWorkload, WorkloadTrace};

fn main() {
    // 1. Record Redis's demand stream (shortened for the demo).
    let mut spec = apps::redis();
    spec.total_instructions /= 20;
    let cfg = SimConfig {
        trace_events: 16,
        ..SimConfig::paper_default().with_capacity_ratio(1, 8)
    }
    .with_telemetry(true);
    let recording = WorkloadTrace::record(
        AppWorkload::new(spec, cfg.page_size, cfg.scale),
        &mut SimRng::seed_from(42),
    );
    println!(
        "recorded {} epochs of {} (serialises to {} KiB of text)\n",
        recording.len(),
        recording.spec.name,
        recording.to_text().len() / 1024
    );

    // 2. Replay the identical stream under two policies.
    for policy in [Policy::HeapIoSlabOd, Policy::HeteroCoordinated] {
        let mut sim = SingleVmSim::new(cfg.clone(), policy, recording.clone().into_workload());
        while sim.step() {}
        let report = sim.report();
        println!(
            "{:<22} runtime {:>10}   {} migrations, {:.1}% overhead",
            policy.name(),
            report.runtime.to_string(),
            report.migrations,
            report.overhead_percent()
        );
        if let Some(log) = sim.events() {
            for event in log.iter().take(4) {
                println!("    {event}");
            }
            if log.dropped() > 0 {
                println!("    … ({} earlier events dropped)", log.dropped());
            }
        }
        // 3. Telemetry: named counters sampled from every subsystem, and a
        // hierarchical span trace (epoch → guest-ops / vmm-decision) that
        // shows where simulated time went. `snapshot_json()` exports the
        // whole thing machine-readably (see `repro --json-out`).
        if let Some(tel) = sim.telemetry() {
            for name in [
                "guest.lru.activations",
                "guest.pcp.fast_path_hits",
                "vmm.scan.passes",
                "vmm.scan.frames",
            ] {
                println!("    {name} = {}", tel.registry.counter(name));
            }
            for span in tel.spans.finished().take(4) {
                println!("    {span}");
            }
            println!(
                "    ({} spans recorded, {} metrics, {} B of snapshot JSON)",
                tel.spans.len(),
                tel.registry.len(),
                tel.snapshot_json().len()
            );
        }
        println!();
    }
    println!("Same demand stream, different management — compare the logs.");
}
