//! Workload specifications and the epoch-demand interface.
//!
//! The paper evaluates applications "with high variability in their memory,
//! storage, and network" intensity (§2.2, Table 2). Running the real
//! binaries is out of scope for a simulator, so each application is modelled
//! by the aggregate properties the paper itself reports and bases its
//! analysis on:
//!
//! * memory intensity — MPKI (Table 4),
//! * page-type mix and footprint (Fig 4),
//! * hot working-set size (drives LLC behaviour and FastMem value),
//! * allocation churn ("capacity-intensive" apps frequently
//!   allocate/release, §2.2 Observation 3),
//! * I/O page-cache / kernel-buffer traffic (short-lived, high-reuse).
//!
//! A [`Workload`] unrolls its run into fixed instruction quanta
//! ([`EpochDemand`]s); the engine prices each epoch's wall time from
//! placement and charges management overheads on top.

use hetero_guest::page::PageType;
use hetero_sim::SimRng;

/// Resident footprint target per page type, in bytes.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Footprint {
    /// Anonymous heap.
    pub heap: u64,
    /// Filesystem page cache.
    pub page_cache: u64,
    /// Buffer cache (filesystem metadata / journal).
    pub buffer_cache: u64,
    /// Generic slab.
    pub slab: u64,
    /// Network kernel buffers.
    pub net_buf: u64,
}

impl Footprint {
    /// Total resident bytes across types.
    pub fn total(&self) -> u64 {
        self.heap + self.page_cache + self.buffer_cache + self.slab + self.net_buf
    }

    /// Bytes for one page type (page-table/DMA handled by the kernel).
    pub fn of(&self, t: PageType) -> u64 {
        match t {
            PageType::HeapAnon => self.heap,
            PageType::PageCache => self.page_cache,
            PageType::BufferCache => self.buffer_cache,
            PageType::Slab => self.slab,
            PageType::NetBuf => self.net_buf,
            PageType::PageTable | PageType::Dma => 0,
        }
    }
}

/// Fraction of the application's memory accesses hitting each page type.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AccessMix {
    /// Heap share.
    pub heap: f64,
    /// Page-cache share.
    pub page_cache: f64,
    /// Buffer-cache share.
    pub buffer_cache: f64,
    /// Slab share.
    pub slab: f64,
    /// Network-buffer share.
    pub net_buf: f64,
}

impl AccessMix {
    /// Share for one page type.
    pub fn of(&self, t: PageType) -> f64 {
        match t {
            PageType::HeapAnon => self.heap,
            PageType::PageCache => self.page_cache,
            PageType::BufferCache => self.buffer_cache,
            PageType::Slab => self.slab,
            PageType::NetBuf => self.net_buf,
            PageType::PageTable | PageType::Dma => 0.0,
        }
    }

    /// Sum of all shares (should be ≈ 1).
    pub fn total(&self) -> f64 {
        self.heap + self.page_cache + self.buffer_cache + self.slab + self.net_buf
    }
}

/// Static description of one application.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadSpec {
    /// Application name (Table 2).
    pub name: &'static str,
    /// Misses per kilo-instruction on the 16 MB-LLC testbed (Table 4).
    pub mpki: f64,
    /// Non-memory cycles per instruction (calibration constant; see
    /// DESIGN.md §3 — tuned so the all-SlowMem slowdown lands near Fig 1).
    pub cpi_base: f64,
    /// Memory-level parallelism per thread: concurrently outstanding
    /// misses. High for the batch graph engines, ~1 for request-driven
    /// servers.
    pub mlp: f64,
    /// Concurrently executing threads. Multiplies both throughput and
    /// memory-bandwidth demand — this is why only the multi-threaded batch
    /// graph engines saturate SlowMem bandwidth (§2.2 Observation 1).
    pub threads: f64,
    /// Core clock in GHz (testbed: 2.67 GHz Xeon).
    pub clock_ghz: f64,
    /// Total instructions for a full run.
    pub total_instructions: u64,
    /// Instructions per epoch quantum.
    pub instructions_per_epoch: u64,
    /// Resident footprint targets.
    pub footprint: Footprint,
    /// Where the accesses go.
    pub access_mix: AccessMix,
    /// Hot working-set bytes (what a perfect cache/FastMem would hold).
    pub hot_wss_bytes: u64,
    /// Fraction of accesses served by the hot set.
    pub hot_access_fraction: f64,
    /// Steady-state fraction of resident pages that are hot.
    pub hot_page_fraction: f64,
    /// Fraction of *freshly churned* allocations that start hot. Fresh
    /// buffers are about to be used (temporal locality); pages cool as they
    /// age, so the resident mix settles at `hot_page_fraction`. This is the
    /// reuse gradient that makes on-demand recycling concentrate hot data
    /// in FastMem for capacity-intensive apps (§2.2 Observation 3).
    pub fresh_hot_fraction: f64,
    /// Fraction of accesses that are stores.
    pub write_fraction: f64,
    /// Heap pages freed+reallocated per second of app time, as a fraction
    /// of resident heap ("frequently allocate and release", §2.2).
    pub heap_churn_per_sec: f64,
    /// Page-cache pages read in (and released after I/O) per second, as a
    /// fraction of the resident page-cache target.
    pub io_churn_per_sec: f64,
    /// Slab/net-buffer objects cycled per second as a fraction of their
    /// resident targets.
    pub kernel_buf_churn_per_sec: f64,
    /// Ramp-up fraction of the run spent loading the footprint.
    pub ramp_fraction: f64,
}

impl WorkloadSpec {
    /// Misses per instruction at the calibration LLC.
    pub fn miss_per_instruction(&self) -> f64 {
        self.mpki / 1000.0
    }

    /// Nanoseconds of non-memory compute per instruction.
    pub fn compute_ns_per_instruction(&self) -> f64 {
        self.cpi_base / self.clock_ghz
    }

    /// Number of epochs in a full run.
    pub fn epochs(&self) -> u64 {
        self.total_instructions
            .div_ceil(self.instructions_per_epoch)
    }

    /// Heat value for a newly allocated page of `page_type`, using the
    /// steady-state hot fraction.
    ///
    /// Heat is tiered — access skew concentrates traffic on a *super-hot*
    /// core (30 % of hot pages at heat 255, the rest at 96) over a cold
    /// tail (heat 4), so the hottest few percent of pages carry roughly
    /// half the traffic, as real access distributions do. Short-lived I/O
    /// pages are always hot while they live (they are accessed exactly
    /// around their I/O).
    pub fn sample_heat(&self, rng: &mut SimRng, page_type: PageType) -> u8 {
        self.sample_heat_with(rng, page_type, self.hot_page_fraction)
    }

    /// Like [`WorkloadSpec::sample_heat`] with an explicit hot probability
    /// (the engine uses [`WorkloadSpec::fresh_hot_fraction`] for steady-
    /// state churn).
    pub fn sample_heat_with(
        &self,
        rng: &mut SimRng,
        page_type: PageType,
        hot_probability: f64,
    ) -> u8 {
        if page_type.is_io() {
            return 224;
        }
        if rng.chance(hot_probability) {
            if rng.chance(0.3) {
                255
            } else {
                96
            }
        } else {
            4
        }
    }

    /// Expected heat of a hot (non-I/O) page under the tiering above.
    pub fn expected_hot_heat() -> f64 {
        0.3 * 255.0 + 0.7 * 96.0
    }

    /// Heat of a cold page.
    pub const COLD_HEAT: u8 = 4;
}

/// Page operations and work demanded by one epoch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EpochDemand {
    /// Instructions executed this epoch.
    pub instructions: u64,
    /// New heap pages to allocate.
    pub heap_alloc: u64,
    /// Resident heap pages to free (churn).
    pub heap_free: u64,
    /// Page-cache pages read in (alloc + I/O).
    pub cache_reads: u64,
    /// Page-cache pages whose I/O completed and are released.
    pub cache_releases: u64,
    /// Buffer-cache pages allocated.
    pub buffer_allocs: u64,
    /// Buffer-cache pages released.
    pub buffer_releases: u64,
    /// Slab objects allocated.
    pub slab_allocs: u64,
    /// Slab objects freed.
    pub slab_frees: u64,
    /// Network-buffer objects allocated.
    pub netbuf_allocs: u64,
    /// Network-buffer objects freed.
    pub netbuf_frees: u64,
}

/// A workload unrolled into epochs.
pub trait Workload {
    /// Static description.
    fn spec(&self) -> &WorkloadSpec;

    /// Demands of the next epoch, or `None` when the run is complete.
    fn next_epoch(&mut self, rng: &mut SimRng) -> Option<EpochDemand>;

    /// Fraction of the run completed, in `[0, 1]`.
    fn progress(&self) -> f64;
}

hetero_sim::impl_snap!(struct Footprint { heap, page_cache, buffer_cache, slab, net_buf });

hetero_sim::impl_snap!(struct AccessMix { heap, page_cache, buffer_cache, slab, net_buf });

impl hetero_sim::snap::Snap for WorkloadSpec {
    fn snap(&self, w: &mut hetero_sim::snap::SnapWriter) {
        w.put_str(self.name);
        self.mpki.snap(w);
        self.cpi_base.snap(w);
        self.mlp.snap(w);
        self.threads.snap(w);
        self.clock_ghz.snap(w);
        self.total_instructions.snap(w);
        self.instructions_per_epoch.snap(w);
        self.footprint.snap(w);
        self.access_mix.snap(w);
        self.hot_wss_bytes.snap(w);
        self.hot_access_fraction.snap(w);
        self.hot_page_fraction.snap(w);
        self.fresh_hot_fraction.snap(w);
        self.write_fraction.snap(w);
        self.heap_churn_per_sec.snap(w);
        self.io_churn_per_sec.snap(w);
        self.kernel_buf_churn_per_sec.snap(w);
        self.ramp_fraction.snap(w);
    }
    fn unsnap(
        r: &mut hetero_sim::snap::SnapReader<'_>,
    ) -> Result<Self, hetero_sim::snap::SnapshotError> {
        use hetero_sim::snap::Snap;
        let name = hetero_sim::snap::leak_str(r.take_string()?);
        Ok(WorkloadSpec {
            name,
            mpki: Snap::unsnap(r)?,
            cpi_base: Snap::unsnap(r)?,
            mlp: Snap::unsnap(r)?,
            threads: Snap::unsnap(r)?,
            clock_ghz: Snap::unsnap(r)?,
            total_instructions: Snap::unsnap(r)?,
            instructions_per_epoch: Snap::unsnap(r)?,
            footprint: Snap::unsnap(r)?,
            access_mix: Snap::unsnap(r)?,
            hot_wss_bytes: Snap::unsnap(r)?,
            hot_access_fraction: Snap::unsnap(r)?,
            hot_page_fraction: Snap::unsnap(r)?,
            fresh_hot_fraction: Snap::unsnap(r)?,
            write_fraction: Snap::unsnap(r)?,
            heap_churn_per_sec: Snap::unsnap(r)?,
            io_churn_per_sec: Snap::unsnap(r)?,
            kernel_buf_churn_per_sec: Snap::unsnap(r)?,
            ramp_fraction: Snap::unsnap(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn footprint_totals() {
        let f = Footprint {
            heap: 100,
            page_cache: 50,
            buffer_cache: 25,
            slab: 10,
            net_buf: 5,
        };
        assert_eq!(f.total(), 190);
        assert_eq!(f.of(PageType::HeapAnon), 100);
        assert_eq!(f.of(PageType::PageTable), 0);
    }

    #[test]
    fn access_mix_covers_types() {
        let m = AccessMix {
            heap: 0.5,
            page_cache: 0.3,
            buffer_cache: 0.1,
            slab: 0.05,
            net_buf: 0.05,
        };
        assert!((m.total() - 1.0).abs() < 1e-12);
        assert_eq!(m.of(PageType::Dma), 0.0);
    }
}
