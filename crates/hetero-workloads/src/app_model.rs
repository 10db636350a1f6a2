//! Generic application model: ramp-up, steady-state churn, completion.

use hetero_sim::SimRng;

use crate::spec::{EpochDemand, Workload, WorkloadSpec};

/// An application unrolled into epochs from its [`WorkloadSpec`].
///
/// The run has two phases:
///
/// 1. **ramp** (`ramp_fraction` of the epochs): the resident footprint is
///    allocated incrementally — this is where first-touch policies make
///    their placement decisions;
/// 2. **steady state**: the footprint holds, while churn cycles heap pages
///    ("capacity-intensive applications … frequently allocate and release
///    memory", §2.2) and I/O traffic cycles page-cache and kernel-buffer
///    pages through their short lives.
///
/// Page *sizes* are converted to page counts with the engine's page size at
/// construction; a `scale` divisor shrinks footprints and instruction counts
/// together for fast tests.
#[derive(Debug, Clone)]
pub struct AppWorkload {
    spec: WorkloadSpec,
    page_size: u64,
    epoch: u64,
    epochs_total: u64,
    ramp_epochs: u64,
    /// Resident page targets per churnable type.
    target_heap: u64,
    target_cache: u64,
    target_buffer: u64,
    target_slab: u64,
    target_netbuf: u64,
    /// Allocated so far (ramp bookkeeping).
    resident_heap: u64,
    resident_cache: u64,
    resident_buffer: u64,
    resident_slab: u64,
    resident_netbuf: u64,
}

impl AppWorkload {
    /// Builds a workload for the given page size, scaling the footprint and
    /// run length down by `scale` (1 = paper scale).
    ///
    /// # Panics
    ///
    /// Panics if `page_size` or `scale` is zero.
    pub fn new(spec: WorkloadSpec, page_size: u64, scale: u64) -> Self {
        assert!(page_size > 0, "page size must be non-zero");
        assert!(scale > 0, "scale must be non-zero");
        let pages = |bytes: u64| (bytes / scale).div_ceil(page_size).max(1);
        // Only the *footprint* shrinks with `scale` — one simulated page
        // stands for `scale` real pages. Instructions, wall-clock epochs and
        // hot_wss_bytes stay at paper scale so MPKI, the LLC model (real
        // 16/48 MB caches) and time-based management intervals (100 ms
        // scans) keep their physical meaning.
        let epochs_total = spec.epochs().max(2);
        let ramp_epochs =
            ((epochs_total as f64 * spec.ramp_fraction) as u64).clamp(1, epochs_total - 1);
        AppWorkload {
            target_heap: pages(spec.footprint.heap),
            target_cache: pages(spec.footprint.page_cache),
            target_buffer: pages(spec.footprint.buffer_cache),
            target_slab: pages(spec.footprint.slab),
            target_netbuf: pages(spec.footprint.net_buf),
            page_size,
            epoch: 0,
            epochs_total,
            ramp_epochs,
            resident_heap: 0,
            resident_cache: 0,
            resident_buffer: 0,
            resident_slab: 0,
            resident_netbuf: 0,
            spec,
        }
    }

    /// Page size the counts were derived with.
    pub fn page_size(&self) -> u64 {
        self.page_size
    }

    /// Resident heap page target.
    pub fn target_heap_pages(&self) -> u64 {
        self.target_heap
    }

    /// Seconds of *app* time one epoch roughly represents at FastMem speed
    /// (used to convert per-second churn rates into per-epoch counts).
    fn epoch_app_seconds(&self) -> f64 {
        let s = &self.spec;
        let per_instr_ns = (s.compute_ns_per_instruction()
            + s.miss_per_instruction() * 60.0 / s.mlp.max(1.0))
            / s.threads.max(1.0);
        s.instructions_per_epoch as f64 * per_instr_ns * 1e-9
    }

    fn ramp_share(&self, target: u64) -> u64 {
        // Spread the footprint evenly over ramp epochs, rounding the last
        // epoch up so the target is met exactly.
        let done = self.epoch.min(self.ramp_epochs);
        let want_by_now = target * (done + 1) / self.ramp_epochs;
        want_by_now.min(target)
    }

    fn churn(&self, rng: &mut SimRng, resident: u64, per_sec: f64) -> u64 {
        let secs = self.epoch_app_seconds();
        rng.stochastic_round(resident as f64 * per_sec * secs)
    }
}

impl Workload for AppWorkload {
    fn spec(&self) -> &WorkloadSpec {
        &self.spec
    }

    fn progress(&self) -> f64 {
        self.epoch as f64 / self.epochs_total as f64
    }

    fn next_epoch(&mut self, rng: &mut SimRng) -> Option<EpochDemand> {
        if self.epoch >= self.epochs_total {
            return None;
        }
        let mut d = EpochDemand {
            instructions: self.spec.instructions_per_epoch,
            ..Default::default()
        };
        // Ramp: bring residency up to this epoch's share of the target.
        if self.epoch < self.ramp_epochs {
            let shares = [
                self.ramp_share(self.target_heap),
                self.ramp_share(self.target_cache),
                self.ramp_share(self.target_buffer),
                self.ramp_share(self.target_slab),
                self.ramp_share(self.target_netbuf),
            ];
            let grow = |resident: &mut u64, share: u64| {
                let add = share.saturating_sub(*resident);
                *resident += add;
                add
            };
            d.heap_alloc += grow(&mut self.resident_heap, shares[0]);
            d.cache_reads += grow(&mut self.resident_cache, shares[1]);
            d.buffer_allocs += grow(&mut self.resident_buffer, shares[2]);
            d.slab_allocs += grow(&mut self.resident_slab, shares[3]);
            d.netbuf_allocs += grow(&mut self.resident_netbuf, shares[4]);
        } else {
            // Steady state: cycle pages through alloc/free pairs.
            let heap = self.churn(rng, self.resident_heap, self.spec.heap_churn_per_sec);
            d.heap_alloc = heap;
            d.heap_free = heap;
            let io = self.churn(rng, self.resident_cache, self.spec.io_churn_per_sec);
            d.cache_reads = io;
            d.cache_releases = io;
            let buf = self.churn(rng, self.resident_buffer, self.spec.io_churn_per_sec);
            d.buffer_allocs = buf;
            d.buffer_releases = buf;
            let slab = self.churn(rng, self.resident_slab, self.spec.kernel_buf_churn_per_sec);
            d.slab_allocs = slab;
            d.slab_frees = slab;
            let nb = self.churn(
                rng,
                self.resident_netbuf,
                self.spec.kernel_buf_churn_per_sec,
            );
            d.netbuf_allocs = nb;
            d.netbuf_frees = nb;
        }
        self.epoch += 1;
        Some(d)
    }
}

hetero_sim::impl_snap!(struct AppWorkload {
    spec, page_size, epoch, epochs_total, ramp_epochs,
    target_heap, target_cache, target_buffer, target_slab, target_netbuf,
    resident_heap, resident_cache, resident_buffer, resident_slab, resident_netbuf
});

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apps;

    fn drain(mut w: AppWorkload, seed: u64) -> Vec<EpochDemand> {
        let mut rng = SimRng::seed_from(seed);
        let mut out = Vec::new();
        while let Some(d) = w.next_epoch(&mut rng) {
            out.push(d);
        }
        out
    }

    #[test]
    fn ramp_reaches_targets_exactly() {
        let w = AppWorkload::new(apps::graphchi(), 1 << 18, 64);
        let target = w.target_heap_pages();
        let ramp = w.ramp_epochs as usize;
        let demands = drain(w, 1);
        let ramped: u64 = demands[..ramp].iter().map(|d| d.heap_alloc).sum();
        assert_eq!(ramped, target);
    }

    #[test]
    fn run_terminates_after_expected_epochs() {
        let w = AppWorkload::new(apps::redis(), 1 << 18, 64);
        let expected = w.epochs_total as usize;
        let demands = drain(w, 2);
        assert_eq!(demands.len(), expected);
    }

    #[test]
    fn steady_state_is_balanced_churn() {
        let w = AppWorkload::new(apps::graphchi(), 1 << 18, 64);
        let ramp = w.ramp_epochs as usize;
        let demands = drain(w, 3);
        for d in &demands[ramp..] {
            assert_eq!(d.heap_alloc, d.heap_free, "steady churn is balanced");
            assert_eq!(d.cache_reads, d.cache_releases);
        }
    }

    #[test]
    fn capacity_intensive_apps_churn_more() {
        // §2.2: Graphchi frequently releases memory, Metis seldom does.
        let g = AppWorkload::new(apps::graphchi(), 1 << 18, 64);
        let m = AppWorkload::new(apps::metis(), 1 << 18, 64);
        let g_ramp = g.ramp_epochs as usize;
        let m_ramp = m.ramp_epochs as usize;
        let g_target = g.target_heap_pages();
        let m_target = m.target_heap_pages();
        let g_churn: u64 = drain(g, 4)[g_ramp..].iter().map(|d| d.heap_free).sum();
        let m_churn: u64 = drain(m, 4)[m_ramp..].iter().map(|d| d.heap_free).sum();
        // Normalise by footprint.
        let g_rate = g_churn as f64 / g_target as f64;
        let m_rate = m_churn as f64 / m_target as f64;
        assert!(
            g_rate > 4.0 * m_rate,
            "graphchi churn/footprint {g_rate:.2} vs metis {m_rate:.2}"
        );
    }

    #[test]
    fn progress_moves_zero_to_one() {
        let mut w = AppWorkload::new(apps::nginx(), 1 << 18, 64);
        assert_eq!(w.progress(), 0.0);
        let mut rng = SimRng::seed_from(5);
        while w.next_epoch(&mut rng).is_some() {}
        assert!((w.progress() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn scaling_preserves_epoch_count_roughly() {
        let a = AppWorkload::new(apps::leveldb(), 1 << 18, 16);
        let b = AppWorkload::new(apps::leveldb(), 1 << 18, 64);
        // Instructions and epoch quanta shrink together.
        assert_eq!(a.epochs_total, b.epochs_total);
        assert!(a.target_heap_pages() > b.target_heap_pages());
    }

    #[test]
    #[should_panic(expected = "scale")]
    fn zero_scale_rejected() {
        AppWorkload::new(apps::redis(), 4096, 0);
    }
}
