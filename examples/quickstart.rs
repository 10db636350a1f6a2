//! Quickstart: evaluate one tiering policy against the paper's baselines.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use heteroos::core::{run_app, Policy, SimConfig};
use heteroos::workloads::apps;

fn main() {
    // The paper's single-VM platform (§5.1): 8 GB SlowMem at (L:5, B:9),
    // FastMem set to a quarter of it.
    let cfg = SimConfig::paper_default().with_capacity_ratio(1, 4);

    // GraphChi (PageRank over the Orkut graph), shortened for a demo.
    let mut spec = apps::graphchi();
    spec.total_instructions /= 8;

    println!(
        "app: {}  (MPKI {}, {} epochs)",
        spec.name,
        spec.mpki,
        spec.epochs()
    );
    println!(
        "platform: FastMem {} MiB / SlowMem {} MiB\n",
        cfg.fast_bytes >> 20,
        cfg.slow_bytes >> 20
    );

    let slow = run_app(&cfg, Policy::SlowMemOnly, spec.clone());
    let fast = run_app(&cfg, Policy::FastMemOnly, spec.clone());
    println!("{:<22} {:>10} {:>12}", "policy", "runtime", "gain vs slow");
    println!(
        "{:<22} {:>10} {:>11.1}%",
        "SlowMem-only",
        slow.runtime.to_string(),
        0.0
    );

    for policy in [
        Policy::NumaPreferred,
        Policy::HeapOd,
        Policy::HeapIoSlabOd,
        Policy::HeteroLru,
        Policy::HeteroCoordinated,
    ] {
        let r = run_app(&cfg, policy, spec.clone());
        println!(
            "{:<22} {:>10} {:>11.1}%   ({} migrations, {:.1}% mgmt overhead)",
            policy.name(),
            r.runtime.to_string(),
            r.gain_percent_vs(&slow),
            r.migrations,
            r.overhead_percent(),
        );
    }
    println!(
        "{:<22} {:>10} {:>11.1}%   (ideal)",
        "FastMem-only",
        fast.runtime.to_string(),
        fast.gain_percent_vs(&slow)
    );
}
