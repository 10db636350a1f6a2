//! Per-CPU free page lists, multi-dimensional over memory types.
//!
//! Linux keeps a per-CPU list of order-0 pages so the hot allocation path
//! bypasses the buddy allocator's locking and coalescing. Those lists assume
//! a single memory type; HeteroOS "redesigns the per-CPU lists with a
//! multi-dimensional (arrays of lists) support for different memory types
//! which significantly boosts the allocation performance" (§3.1). This
//! module implements exactly that: `lists[cpu][mem-kind]`.

use hetero_mem::kind::KindMap;
use hetero_mem::MemKind;

use crate::buddy::BuddyAllocator;
use crate::page::Gfn;

/// Default pages pulled from the buddy on a refill.
pub const DEFAULT_BATCH: usize = 32;
/// Default high-watermark before a list drains back to the buddy.
pub const DEFAULT_HIGH: usize = 96;

/// Multi-dimensional per-CPU free lists.
///
/// # Examples
///
/// ```
/// use hetero_guest::buddy::BuddyAllocator;
/// use hetero_guest::pcp::PerCpuLists;
/// use hetero_mem::MemKind;
///
/// let mut buddy = BuddyAllocator::new(0, 256);
/// let mut pcp = PerCpuLists::new(2);
/// let g = pcp.alloc(0, MemKind::Fast, &mut buddy).unwrap();
/// // The refill batched pages out of the buddy:
/// assert!(buddy.free_frames() < 256);
/// pcp.free(0, MemKind::Fast, g, &mut buddy);
/// ```
#[derive(Debug, Clone)]
pub struct PerCpuLists {
    lists: Vec<KindMap<Vec<Gfn>>>,
    batch: usize,
    high: usize,
    /// Allocations served straight from a per-CPU list.
    pub fast_path_hits: u64,
    /// Allocations that had to refill from the buddy.
    pub refills: u64,
}

impl PerCpuLists {
    /// Creates lists for `cpus` CPUs with default batch/high marks.
    ///
    /// # Panics
    ///
    /// Panics if `cpus` is zero.
    pub fn new(cpus: usize) -> Self {
        Self::with_marks(cpus, DEFAULT_BATCH, DEFAULT_HIGH)
    }

    /// Creates lists with explicit batch and high-watermark values.
    ///
    /// # Panics
    ///
    /// Panics if `cpus` or `batch` is zero, or `high < batch`.
    pub fn with_marks(cpus: usize, batch: usize, high: usize) -> Self {
        assert!(cpus > 0, "need at least one CPU");
        assert!(batch > 0, "batch must be non-zero");
        assert!(high >= batch, "high watermark below batch size");
        PerCpuLists {
            lists: (0..cpus).map(|_| KindMap::default()).collect(),
            batch,
            high,
            fast_path_hits: 0,
            refills: 0,
        }
    }

    /// Number of CPUs.
    pub fn cpus(&self) -> usize {
        self.lists.len()
    }

    /// Pages cached on one CPU's list for a tier.
    pub fn cached(&self, cpu: usize, kind: MemKind) -> usize {
        self.lists[cpu][kind].len()
    }

    /// Total pages cached across all CPUs for a tier.
    pub fn cached_total(&self, kind: MemKind) -> usize {
        self.lists.iter().map(|l| l[kind].len()).sum()
    }

    /// Allocates one order-0 page for `cpu` from `kind`'s list, refilling
    /// from `buddy` when empty. Returns `None` when the buddy is exhausted
    /// and the list is empty.
    ///
    /// # Panics
    ///
    /// Panics if `cpu` is out of range.
    pub fn alloc(&mut self, cpu: usize, kind: MemKind, buddy: &mut BuddyAllocator) -> Option<Gfn> {
        if let Some(g) = self.lists[cpu][kind].pop() {
            self.fast_path_hits += 1;
            return Some(g);
        }
        // Refill: batch order-0 pages out of the buddy in one bulk call.
        self.refills += 1;
        let list = &mut self.lists[cpu][kind];
        buddy.alloc_pages_bulk(self.batch as u64, list);
        list.pop()
    }

    /// Returns a page to `cpu`'s list, draining half the list back to the
    /// buddy when the high watermark is exceeded.
    ///
    /// # Panics
    ///
    /// Panics if `cpu` is out of range, or (via the buddy) on double free.
    pub fn free(&mut self, cpu: usize, kind: MemKind, gfn: Gfn, buddy: &mut BuddyAllocator) {
        let high = self.high;
        let list = &mut self.lists[cpu][kind];
        list.push(gfn);
        if list.len() > high {
            buddy.free_pages_bulk(list.drain(..high / 2));
        }
    }

    /// Returns a batch of pages to `cpu`'s list in one call, draining to the
    /// buddy at the same high-watermark points `n` single
    /// [`PerCpuLists::free`] calls would.
    pub fn free_bulk(
        &mut self,
        cpu: usize,
        kind: MemKind,
        pages: impl IntoIterator<Item = Gfn>,
        buddy: &mut BuddyAllocator,
    ) {
        for g in pages {
            self.free(cpu, kind, g, buddy);
        }
    }

    /// Drains every list of a tier back to the buddy (memory-pressure path).
    pub fn drain_kind(&mut self, kind: MemKind, buddy: &mut BuddyAllocator) {
        for cpu_list in &mut self.lists {
            buddy.free_pages_bulk(cpu_list[kind].drain(..));
        }
    }
}

hetero_sim::impl_snap!(struct PerCpuLists { lists, batch, high, fast_path_hits, refills });

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn refill_batches_from_buddy() {
        let mut buddy = BuddyAllocator::new(0, 256);
        let mut pcp = PerCpuLists::new(1);
        let _ = pcp.alloc(0, MemKind::Fast, &mut buddy).unwrap();
        assert_eq!(pcp.cached(0, MemKind::Fast), DEFAULT_BATCH - 1);
        assert_eq!(buddy.free_frames(), 256 - DEFAULT_BATCH as u64);
        assert_eq!(pcp.refills, 1);
        assert_eq!(pcp.fast_path_hits, 0);
    }

    #[test]
    fn second_alloc_hits_fast_path() {
        let mut buddy = BuddyAllocator::new(0, 256);
        let mut pcp = PerCpuLists::new(1);
        let a = pcp.alloc(0, MemKind::Fast, &mut buddy).unwrap();
        let b = pcp.alloc(0, MemKind::Fast, &mut buddy).unwrap();
        assert_ne!(a, b);
        assert_eq!(pcp.fast_path_hits, 1);
    }

    #[test]
    fn lists_are_per_cpu_and_per_kind() {
        let mut buddy_f = BuddyAllocator::new(0, 128);
        let mut buddy_s = BuddyAllocator::new(128, 128);
        let mut pcp = PerCpuLists::new(2);
        pcp.alloc(0, MemKind::Fast, &mut buddy_f).unwrap();
        pcp.alloc(1, MemKind::Slow, &mut buddy_s).unwrap();
        assert!(pcp.cached(0, MemKind::Fast) > 0);
        assert_eq!(pcp.cached(0, MemKind::Slow), 0);
        assert!(pcp.cached(1, MemKind::Slow) > 0);
        assert_eq!(pcp.cached(1, MemKind::Fast), 0);
    }

    #[test]
    fn free_drains_above_high_watermark() {
        let mut buddy = BuddyAllocator::new(0, 512);
        let mut pcp = PerCpuLists::with_marks(1, 4, 8);
        // Allocate pages directly from the buddy, free all through the pcp.
        let pages: Vec<Gfn> = (0..20).map(|_| buddy.alloc_page().unwrap()).collect();
        for g in pages {
            pcp.free(0, MemKind::Fast, g, &mut buddy);
        }
        assert!(
            pcp.cached(0, MemKind::Fast) <= 9,
            "list should drain above high mark, has {}",
            pcp.cached(0, MemKind::Fast)
        );
        // Nothing lost: cached + buddy-free == total.
        assert_eq!(
            pcp.cached(0, MemKind::Fast) as u64 + buddy.free_frames(),
            512
        );
    }

    #[test]
    fn drain_kind_returns_everything() {
        let mut buddy = BuddyAllocator::new(0, 256);
        let mut pcp = PerCpuLists::new(4);
        for cpu in 0..4 {
            pcp.alloc(cpu, MemKind::Fast, &mut buddy).unwrap();
        }
        // Free the pages we actually hold before draining the caches.
        // (The allocated pages themselves are owned by the caller; here we
        // only verify cached pages return.)
        let cached = pcp.cached_total(MemKind::Fast) as u64;
        let before = buddy.free_frames();
        pcp.drain_kind(MemKind::Fast, &mut buddy);
        assert_eq!(pcp.cached_total(MemKind::Fast), 0);
        assert_eq!(buddy.free_frames(), before + cached);
    }

    #[test]
    fn exhausted_buddy_yields_none() {
        let mut buddy = BuddyAllocator::new(0, 2);
        let mut pcp = PerCpuLists::new(1);
        assert!(pcp.alloc(0, MemKind::Fast, &mut buddy).is_some());
        assert!(pcp.alloc(0, MemKind::Fast, &mut buddy).is_some());
        assert!(pcp.alloc(0, MemKind::Fast, &mut buddy).is_none());
    }

    fn encoded<T: hetero_sim::snap::Snap>(v: &T) -> Vec<u8> {
        let mut w = hetero_sim::snap::SnapWriter::new();
        v.snap(&mut w);
        w.into_bytes()
    }

    #[test]
    fn alloc_and_drain_on_an_exhausted_tier_change_only_the_refill_count() {
        let mut buddy = BuddyAllocator::new(0, 200);
        let mut pcp = PerCpuLists::new(3);
        // Drive every scan hint off zero: take all frames, return a
        // scattered few (which pulls hints back down), take them again.
        let held: Vec<Gfn> = (0..200).map(|_| buddy.alloc_page().unwrap()).collect();
        for g in held.into_iter().rev().step_by(7) {
            buddy.free_page(g);
        }
        while buddy.alloc_page().is_ok() {}
        assert_eq!(buddy.free_frames(), 0);
        let buddy_bytes = encoded(&buddy);
        let pcp_bytes = encoded(&pcp);
        for cpu in 0..3 {
            assert_eq!(pcp.alloc(cpu, MemKind::Slow, &mut buddy), None);
            assert_eq!(pcp.refills, cpu as u64 + 1);
            assert_eq!(encoded(&buddy), buddy_bytes, "cpu {cpu}");
        }
        assert_eq!(pcp.fast_path_hits, 0);
        pcp.drain_kind(MemKind::Slow, &mut buddy);
        assert_eq!(encoded(&buddy), buddy_bytes);
        pcp.refills = 0;
        assert_eq!(encoded(&pcp), pcp_bytes);
    }

    #[test]
    #[should_panic(expected = "high watermark")]
    fn bad_marks_rejected() {
        PerCpuLists::with_marks(1, 8, 4);
    }
}
