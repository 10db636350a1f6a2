//! Microbenchmarks: `memlat` (Fig 6) and Stream (Fig 7).
//!
//! §5.2 evaluates placement policies with a pointer-chase latency benchmark
//! and the Stream bandwidth benchmark, sweeping the working-set size against
//! a 0.5 GB FastMem / 3.5 GB SlowMem split. Both are heap-only, zero-churn,
//! uniformly hot workloads — what distinguishes them is how the engine reads
//! the result (average miss latency vs. achieved bandwidth).

use crate::spec::{AccessMix, Footprint, WorkloadSpec};

const MB: u64 = 1 << 20;

fn heap_only(name: &'static str, wss_bytes: u64) -> WorkloadSpec {
    WorkloadSpec {
        name,
        mpki: 0.0, // overridden below
        cpi_base: 1.0,
        mlp: 1.0,
        threads: 1.0,
        clock_ghz: 2.67,
        total_instructions: 2_000_000_000,
        instructions_per_epoch: 20_000_000,
        footprint: Footprint {
            heap: wss_bytes,
            ..Footprint::default()
        },
        access_mix: AccessMix {
            heap: 1.0,
            page_cache: 0.0,
            buffer_cache: 0.0,
            slab: 0.0,
            net_buf: 0.0,
        },
        // Uniformly hot: every page is part of the working set.
        hot_wss_bytes: wss_bytes,
        hot_access_fraction: 1.0,
        hot_page_fraction: 1.0,
        fresh_hot_fraction: 1.0,
        write_fraction: 0.0,
        heap_churn_per_sec: 0.0,
        io_churn_per_sec: 0.0,
        kernel_buf_churn_per_sec: 0.0,
        ramp_fraction: 0.1,
    }
}

/// The `memlat` pointer-chase benchmark (Fig 6): dependent loads, no MLP,
/// every access a cache miss once the working set exceeds the LLC.
pub fn memlat(wss_bytes: u64) -> WorkloadSpec {
    WorkloadSpec {
        // A chase dereferences every ~3 instructions; with the working set
        // past the LLC nearly all of them miss.
        mpki: 330.0,
        mlp: 1.0,
        threads: 1.0,
        cpi_base: 0.8,
        ..heap_only("memlat", wss_bytes)
    }
}

/// The Stream bandwidth benchmark (Fig 7): wide, independent, streaming
/// accesses with deep MLP and a store-heavy mix (copy/scale/add/triad).
pub fn stream(wss_bytes: u64) -> WorkloadSpec {
    WorkloadSpec {
        mpki: 120.0,
        mlp: 16.0,
        threads: 16.0,
        cpi_base: 0.6,
        write_fraction: 0.45,
        ..heap_only("stream", wss_bytes)
    }
}

/// The Fig 6 working-set sweep (0.1 GB – 2 GB).
pub fn memlat_sweep() -> Vec<WorkloadSpec> {
    [102u64, 256, 512, 1024, 1536, 2048]
        .iter()
        .map(|&mb| memlat(mb * MB))
        .collect()
}

/// The Fig 7 working-set points (0.5 GB and 1.5 GB).
pub fn stream_sweep() -> Vec<WorkloadSpec> {
    [512u64, 1536].iter().map(|&mb| stream(mb * MB)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn microbenchmarks_are_heap_only_and_uniformly_hot() {
        for spec in [memlat(MB * 512), stream(MB * 512)] {
            assert!((spec.access_mix.heap - 1.0).abs() < 1e-12);
            assert_eq!(spec.footprint.total(), spec.footprint.heap);
            assert_eq!(spec.hot_wss_bytes, 512 * MB);
            assert_eq!(spec.hot_page_fraction, 1.0);
            assert_eq!(spec.heap_churn_per_sec, 0.0);
        }
    }

    #[test]
    fn memlat_is_latency_bound_stream_is_bandwidth_bound() {
        let lat = memlat(MB * 512);
        let bw = stream(MB * 512);
        assert_eq!(lat.mlp, 1.0, "pointer chase has no MLP");
        assert!(bw.mlp >= 8.0, "stream has deep MLP");
        assert!(bw.write_fraction > lat.write_fraction);
    }

    #[test]
    fn sweeps_match_figure_axes() {
        let m = memlat_sweep();
        assert_eq!(m.len(), 6);
        assert!(m
            .windows(2)
            .all(|w| w[0].footprint.heap < w[1].footprint.heap));
        assert_eq!(stream_sweep().len(), 2);
    }
}
