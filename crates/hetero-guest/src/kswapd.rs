//! Background reclaim — the guest's `kswapd` equivalent.
//!
//! Linux wakes a per-node daemon when a zone's free pages drop below its
//! *low* watermark; the daemon reclaims (dropping clean file pages first)
//! until the *high* watermark is restored, so foreground allocations rarely
//! hit direct reclaim. HeteroOS keeps this machinery but gives each memory
//! *type* its own thresholds (§3.3: "memory type-specific thresholds for
//! triggering replacement") — a FastMem node wakes its daemon long before a
//! SlowMem node would.

use hetero_mem::kind::KindMap;
use hetero_mem::MemKind;

use crate::kernel::GuestKernel;

/// Per-node free-page watermarks, in pages.
///
/// Invariant: `min ≤ low ≤ high`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Watermarks {
    /// Below this, only atomic allocations may dip (direct-reclaim floor).
    pub min: u64,
    /// Below this, the background daemon wakes.
    pub low: u64,
    /// The daemon reclaims until free pages reach this.
    pub high: u64,
}

impl Watermarks {
    /// Linux-style derivation from a node size: `min` is ~0.4 % of the
    /// node, `low = 1.25×min`, `high = 1.5×min` — scaled up by
    /// `pressure_factor` for tiers that deserve more headroom (FastMem).
    ///
    /// Every mark is clamped to the node's capacity: on tiny nodes (or
    /// under large pressure factors) the raw derivation can exceed
    /// `total_pages`, and a `high` above capacity is unreachable — the
    /// daemon would then grind every cache on the node on every pass
    /// without ever satisfying its target. The `min ≥ 1` floor still
    /// applies, so a 1-page node gets `min = low = high = 1`.
    ///
    /// # Panics
    ///
    /// Panics if `pressure_factor` is not finite and positive, or if
    /// `total_pages` is zero (an unconfigured node has no watermarks).
    pub fn for_node(total_pages: u64, pressure_factor: f64) -> Self {
        assert!(
            pressure_factor.is_finite() && pressure_factor > 0.0,
            "pressure factor must be positive"
        );
        assert!(total_pages > 0, "a node needs at least one page");
        let min = ((total_pages as f64 * 0.004 * pressure_factor) as u64).clamp(1, total_pages);
        Watermarks {
            min,
            low: (min + min / 4).min(total_pages),
            high: (min + min / 2).min(total_pages),
        }
    }

    /// Validates the ordering invariant.
    pub fn is_valid(&self) -> bool {
        self.min <= self.low && self.low <= self.high
    }

    /// Validates ordering *and* reachability against the node's capacity:
    /// `min ≤ low ≤ high ≤ total_pages`.
    pub fn is_valid_for(&self, total_pages: u64) -> bool {
        self.is_valid() && self.high <= total_pages
    }
}

/// The background reclaim daemon state for one guest.
///
/// # Examples
///
/// ```
/// use hetero_guest::kernel::{GuestConfig, GuestKernel};
/// use hetero_guest::kswapd::Kswapd;
/// use hetero_mem::MemKind;
///
/// let mut kernel = GuestKernel::new(GuestConfig::default());
/// let mut kswapd = Kswapd::for_kernel(&kernel);
/// // Plenty free: the daemon stays asleep.
/// assert_eq!(kswapd.balance(&mut kernel, MemKind::Fast), 0);
/// ```
#[derive(Debug, Clone)]
pub struct Kswapd {
    marks: KindMap<Option<Watermarks>>,
    /// Times the daemon found a node below its low watermark.
    pub wakeups: u64,
    /// Clean file pages dropped by the daemon.
    pub reclaimed: u64,
}

impl Kswapd {
    /// Builds a daemon with explicit per-tier watermarks.
    pub fn new(marks: KindMap<Option<Watermarks>>) -> Self {
        for (_, m) in marks.iter() {
            if let Some(m) = m {
                assert!(m.is_valid(), "watermarks must satisfy min ≤ low ≤ high");
            }
        }
        Kswapd {
            marks,
            wakeups: 0,
            reclaimed: 0,
        }
    }

    /// Derives watermarks from a kernel's configured tiers: FastMem gets a
    /// 4× pressure factor (scarce capacity deserves headroom), the rest 1×.
    pub fn for_kernel(kernel: &GuestKernel) -> Self {
        let marks = KindMap::from_fn(|k| {
            let total = kernel.total_frames(k);
            (total > 0).then(|| {
                let factor = if k == MemKind::Fast { 4.0 } else { 1.0 };
                Watermarks::for_node(total, factor)
            })
        });
        Kswapd::new(marks)
    }

    /// The watermarks of a tier, if configured.
    pub fn marks(&self, kind: MemKind) -> Option<Watermarks> {
        self.marks[kind]
    }

    /// True when a tier's free pages sit below its low watermark.
    pub fn needs_balancing(&self, kernel: &GuestKernel, kind: MemKind) -> bool {
        match self.marks[kind] {
            Some(m) => kernel.free_frames(kind) < m.low,
            None => false,
        }
    }

    /// One daemon pass on a tier: if free < low, drop clean inactive file
    /// pages until free ≥ high (or candidates run out). Returns pages
    /// reclaimed.
    pub fn balance(&mut self, kernel: &mut GuestKernel, kind: MemKind) -> u64 {
        let Some(m) = self.marks[kind] else { return 0 };
        if kernel.free_frames(kind) >= m.low {
            return 0;
        }
        self.wakeups += 1;
        let mut dropped = 0;
        while kernel.free_frames(kind) < m.high {
            let n = kernel.shrink_caches(kind, 16);
            if n == 0 {
                break; // nothing left to drop on this node
            }
            dropped += n;
        }
        self.reclaimed += dropped;
        dropped
    }

    /// Balances every configured tier; returns total pages reclaimed.
    pub fn balance_all(&mut self, kernel: &mut GuestKernel) -> u64 {
        MemKind::ALL.iter().map(|&k| self.balance(kernel, k)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::GuestConfig;
    use crate::page::PageType;
    use crate::pagecache::FileId;

    fn kernel() -> GuestKernel {
        GuestKernel::new(GuestConfig {
            frames: vec![(MemKind::Fast, 256), (MemKind::Slow, 1024)],
            cpus: 1,
            page_size: 4096,
        })
    }

    #[test]
    fn watermark_derivation_is_ordered_and_scaled() {
        let m = Watermarks::for_node(100_000, 1.0);
        assert!(m.is_valid());
        let pressured = Watermarks::for_node(100_000, 4.0);
        assert!(pressured.min > m.min);
        assert!(pressured.is_valid());
        // Tiny nodes still get a non-zero floor.
        assert!(Watermarks::for_node(10, 1.0).min >= 1);
    }

    /// Regression: the raw derivation used to let `min` (and with it `low`
    /// and `high`) exceed tiny nodes — `for_node(2, 500.0)` produced
    /// `min = 4 > 2`, an unreachable `high` that made `balance` shred every
    /// cache on the node on every single pass. Property: for every node of
    /// 1..=64 pages and a spread of pressure factors, the full
    /// `min ≤ low ≤ high ≤ total` chain holds and `min` keeps its floor.
    #[test]
    fn watermarks_fit_tiny_nodes_for_all_factors() {
        for total in 1..=64u64 {
            for &factor in &[0.5, 1.0, 4.0, 16.0, 100.0, 500.0] {
                let m = Watermarks::for_node(total, factor);
                assert!(
                    m.is_valid_for(total),
                    "for_node({total}, {factor}) = {m:?} breaks min ≤ low ≤ high ≤ total"
                );
                assert!(m.min >= 1, "for_node({total}, {factor}) lost the floor");
            }
        }
    }

    #[test]
    fn one_page_node_pins_all_marks_to_capacity() {
        let m = Watermarks::for_node(1, 500.0);
        assert_eq!((m.min, m.low, m.high), (1, 1, 1));
    }

    #[test]
    #[should_panic(expected = "at least one page")]
    fn zero_page_node_rejected() {
        Watermarks::for_node(0, 1.0);
    }

    #[test]
    fn daemon_sleeps_above_low_watermark() {
        let mut k = kernel();
        let mut d = Kswapd::for_kernel(&k);
        assert!(!d.needs_balancing(&k, MemKind::Fast));
        assert_eq!(d.balance(&mut k, MemKind::Fast), 0);
        assert_eq!(d.wakeups, 0);
    }

    #[test]
    fn daemon_restores_high_watermark_by_dropping_clean_cache() {
        let mut k = kernel();
        let mut d = Kswapd::for_kernel(&k);
        let marks = d.marks(MemKind::Fast).expect("fast configured");
        // Fill FastMem with clean, inactive page-cache pages.
        let mut off = 0;
        while k.free_frames(MemKind::Fast) > marks.min {
            let (g, _) = k.page_in(FileId(1), off, 200, &[MemKind::Fast]).unwrap();
            k.io_complete(g); // clean + inactive
            off += 1;
        }
        assert!(d.needs_balancing(&k, MemKind::Fast));
        let dropped = d.balance(&mut k, MemKind::Fast);
        assert!(dropped > 0);
        assert!(k.free_frames(MemKind::Fast) >= marks.high);
        assert_eq!(d.wakeups, 1);
        assert_eq!(d.reclaimed, dropped);
    }

    #[test]
    fn daemon_stops_when_no_clean_candidates_remain() {
        let mut k = kernel();
        let mut d = Kswapd::for_kernel(&k);
        // Fill FastMem with *heap* pages — kswapd has nothing to drop.
        while k
            .alloc_page(PageType::HeapAnon, 200, &[MemKind::Fast])
            .is_ok()
        {}
        assert!(d.needs_balancing(&k, MemKind::Fast));
        let dropped = d.balance(&mut k, MemKind::Fast);
        assert_eq!(dropped, 0, "anon pages are not kswapd's to drop");
        assert_eq!(d.wakeups, 1);
    }

    #[test]
    fn dirty_pages_are_skipped() {
        let mut k = kernel();
        let mut d = Kswapd::for_kernel(&k);
        let marks = d.marks(MemKind::Fast).expect("fast configured");
        let mut off = 0;
        let mut dirty = Vec::new();
        while k.free_frames(MemKind::Fast) > marks.min {
            let (g, _) = k.page_in(FileId(1), off, 200, &[MemKind::Fast]).unwrap();
            k.io_complete(g);
            if off % 2 == 0 {
                k.mark_dirty(g);
                dirty.push(g);
            }
            off += 1;
        }
        d.balance(&mut k, MemKind::Fast);
        for g in dirty {
            assert!(
                k.memmap().page(g).is_present(),
                "dirty pages must survive the shrink"
            );
        }
    }

    #[test]
    fn unconfigured_tier_never_balances() {
        let mut k = kernel();
        let mut d = Kswapd::for_kernel(&k);
        assert_eq!(d.marks(MemKind::Medium), None);
        assert_eq!(d.balance(&mut k, MemKind::Medium), 0);
    }

    #[test]
    #[should_panic(expected = "min ≤ low ≤ high")]
    fn invalid_watermarks_rejected() {
        let mut marks: KindMap<Option<Watermarks>> = KindMap::default();
        marks[MemKind::Fast] = Some(Watermarks {
            min: 10,
            low: 5,
            high: 20,
        });
        Kswapd::new(marks);
    }
}
