//! Define your own workload and evaluate tiering policies on it.
//!
//! The library is not limited to the paper's six applications: any
//! `WorkloadSpec` — footprint, access mix, hotness, churn — can be run
//! through the same engine. This example models an in-memory analytics
//! service with a large cold archive and a small hot index.
//!
//! ```text
//! cargo run --release --example custom_workload
//! ```

use heteroos::core::{run_app, Policy, SimConfig};
use heteroos::workloads::{AccessMix, Footprint, WorkloadSpec};

const GB: u64 = 1 << 30;
const MB: u64 = 1 << 20;

fn analytics_service() -> WorkloadSpec {
    WorkloadSpec {
        name: "analytics-service",
        mpki: 9.0,
        cpi_base: 2.2,
        mlp: 3.0,
        threads: 4.0,
        clock_ghz: 2.67,
        total_instructions: 60_000_000_000,
        instructions_per_epoch: 500_000_000,
        footprint: Footprint {
            heap: 6 * GB,         // mostly a cold columnar archive
            page_cache: 512 * MB, // ingest buffers
            buffer_cache: 64 * MB,
            slab: 64 * MB,
            net_buf: 128 * MB, // query responses
        },
        access_mix: AccessMix {
            heap: 0.70,
            page_cache: 0.12,
            buffer_cache: 0.02,
            slab: 0.04,
            net_buf: 0.12,
        },
        hot_wss_bytes: 512 * MB, // the index is the hot set
        hot_access_fraction: 0.9,
        hot_page_fraction: 0.08, // tiny hot fraction of a big archive
        fresh_hot_fraction: 0.6,
        write_fraction: 0.25,
        heap_churn_per_sec: 0.004,
        io_churn_per_sec: 0.02,
        kernel_buf_churn_per_sec: 0.02,
        ramp_fraction: 0.15,
    }
}

fn main() {
    let spec = analytics_service();
    // A skewed service like this wants very little FastMem: try 1/8.
    let cfg = SimConfig::paper_default().with_capacity_ratio(1, 8);
    let slow = run_app(&cfg, Policy::SlowMemOnly, spec.clone());
    println!(
        "{} on 1 GB FastMem / 8 GB SlowMem — gains over SlowMem-only:",
        spec.name
    );
    for policy in [
        Policy::HeapOd,
        Policy::HeapIoSlabOd,
        Policy::HeteroLru,
        Policy::HeteroCoordinated,
        Policy::FastMemOnly,
    ] {
        let r = run_app(&cfg, policy, spec.clone());
        println!(
            "  {:<22} {:>6.1}%   miss-ratio {:.2}",
            policy.name(),
            r.gain_percent_vs(&slow),
            r.fast_alloc_miss_ratio
        );
    }
    println!(
        "\nDemand prioritization roughly halves the FastMem allocation miss \
         ratio for this service; compare ratios and policies for your own \
         workload the same way."
    );
}
