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
            buddy.free_pages_bulk(&mut list[..high / 2]);
            list.drain(..high / 2);
        }
    }

    /// Allocates one page for `cpu` the way the guest kernel's page
    /// allocator does: from the CPU's list, else by a refill from `buddy`,
    /// else (memory pressure: free pages stranded on other CPUs' lists)
    /// by draining every list of the tier back to `buddy` and refilling
    /// once more. Returns `None` when neither the buddy nor any list of
    /// the tier holds a page.
    ///
    /// A tier with no page anywhere is answered at once. The refill, drain
    /// and refill it skips would find every order's free list empty
    /// (returning before a scan hint moves) and drain nothing, so only
    /// their two refill counts are added.
    ///
    /// # Panics
    ///
    /// Panics if `cpu` is out of range.
    pub(crate) fn alloc_draining(
        &mut self,
        cpu: usize,
        kind: MemKind,
        buddy: &mut BuddyAllocator,
    ) -> Option<Gfn> {
        if buddy.free_frames() == 0 && self.cached_total(kind) == 0 {
            self.refills += 2;
            return None;
        }
        if let Some(g) = self.alloc(cpu, kind, buddy) {
            return Some(g);
        }
        self.drain_kind(kind, buddy);
        self.alloc(cpu, kind, buddy)
    }

    /// Allocates up to `n` pages of a tier with one
    /// [`PerCpuLists::alloc_draining`] call per page, the CPUs taken in
    /// turn from `*cpu` (left on the CPU after the last call), and appends
    /// them to `out`. Stops after the first call that finds no page; that
    /// call's CPU is taken too. Returns the pages obtained.
    ///
    /// The calls that drain and refill once the buddy is dry run as whole
    /// cycles ([`PerCpuLists::drain_cycles`]), not page by page.
    ///
    /// # Panics
    ///
    /// Panics if `*cpu` is out of range.
    pub(crate) fn alloc_round_robin(
        &mut self,
        kind: MemKind,
        n: u64,
        cpu: &mut usize,
        buddy: &mut BuddyAllocator,
        out: &mut Vec<Gfn>,
    ) -> u64 {
        let cpus = self.lists.len();
        let step = |c: usize| if c + 1 == cpus { 0 } else { c + 1 };
        let mut got = 0;
        while got < n {
            let mut c = *cpu;
            *cpu = step(c);
            // A non-empty list answers before the empty-tier check could.
            let page = match self.lists[c][kind].pop() {
                Some(g) => {
                    self.fast_path_hits += 1;
                    g
                }
                None => {
                    if buddy.free_frames() == 0 {
                        let (taken, next) = self.drain_cycles(kind, c, n - got, buddy, out);
                        got += taken;
                        if got == n {
                            *cpu = next;
                            break;
                        }
                        c = next;
                        *cpu = step(c);
                    }
                    match self.alloc_draining(c, kind, buddy) {
                        Some(g) => g,
                        None => break,
                    }
                }
            };
            out.push(page);
            got += 1;
        }
        got
    }

    /// The allocations from `cpu` on while the tier's buddy is dry and
    /// `cpu`'s list is empty, in whole drain-and-refill cycles, up to
    /// `left` pages, appended to `out`. Returns the pages taken and the CPU
    /// of the next allocation.
    ///
    /// Page by page, that allocation drains every list into the buddy and
    /// refills `cpu`'s; the next CPUs, whose lists the drain emptied,
    /// refill from the buddy in turn, each popping its refill's last page,
    /// until the buddy is dry again and the next CPU drains once more. When
    /// the stranded pages fill fewer refills than there are CPUs, each
    /// cycle is one [`BuddyAllocator::free_and_retake`] of them: the CPUs
    /// take the returned sequence in refills of `batch` and pop the last
    /// page of each, and the rest is stranded for the next cycle. A cycle
    /// that would pass `left`, or more stranded pages than that, is left to
    /// the page-at-a-time path, untouched.
    fn drain_cycles(
        &mut self,
        kind: MemKind,
        mut cpu: usize,
        left: u64,
        buddy: &mut BuddyAllocator,
        out: &mut Vec<Gfn>,
    ) -> (u64, usize) {
        let (cpus, batch) = (self.lists.len(), self.batch);
        let stranded = self.cached_total(kind);
        let fits = |pages: usize, left: u64| pages.div_ceil(batch) as u64 <= left;
        if stranded == 0
            || batch == 0
            || stranded > batch.saturating_mul(cpus - 1)
            || !fits(stranded, left)
        {
            return (0, cpu);
        }
        let mut pages = Vec::with_capacity(stranded);
        for lists in &mut self.lists {
            pages.append(&mut lists[kind]);
        }
        pages.sort_unstable();
        let (mut seq, mut popped) = (Vec::with_capacity(stranded), Vec::with_capacity(cpus));
        let (mut taken, mut start) = (0, cpu);
        while !pages.is_empty() && fits(pages.len(), left - taken) {
            let refills = pages.len().div_ceil(batch);
            seq.clear();
            buddy.free_and_retake(&pages, &mut seq);
            popped.clear();
            popped.extend(seq.chunks(batch).map(|refill| refill[refill.len() - 1]));
            out.extend_from_slice(&popped);
            popped.sort_unstable();
            let mut gone = popped.iter().peekable();
            pages.retain(|g| gone.next_if_eq(&g).is_none());
            // The draining allocation counts a failed refill and its own.
            self.refills += 1 + refills as u64;
            taken += refills as u64;
            start = cpu;
            cpu = (cpu + refills) % cpus;
        }
        // The last cycle's refills, less the page each popped, stay on
        // their CPUs' lists.
        for (j, refill) in seq.chunks(batch).enumerate() {
            self.lists[(start + j) % cpus][kind].extend_from_slice(&refill[..refill.len() - 1]);
        }
        (taken, cpu)
    }

    /// Returns pages of a tier with one [`PerCpuLists::free`] call per
    /// page, the CPUs taken in turn from `*cpu` (left on the CPU after the
    /// last page).
    ///
    /// # Panics
    ///
    /// Panics if `*cpu` is out of range, or (via the buddy) on double free.
    pub(crate) fn free_round_robin(
        &mut self,
        kind: MemKind,
        pages: impl IntoIterator<Item = Gfn>,
        cpu: &mut usize,
        buddy: &mut BuddyAllocator,
    ) {
        let cpus = self.lists.len();
        for g in pages {
            let c = *cpu;
            *cpu = if c + 1 == cpus { 0 } else { c + 1 };
            self.free(c, kind, g, buddy);
        }
    }

    /// Drains every list of a tier back to the buddy (memory-pressure
    /// path), a list at a time: frees commute, so the lists' order does
    /// not matter.
    pub fn drain_kind(&mut self, kind: MemKind, buddy: &mut BuddyAllocator) {
        for lists in &mut self.lists {
            buddy.free_pages_bulk(&mut lists[kind]);
            lists[kind].clear();
        }
    }

    /// Decode check: every page cached for `kind` lies in `range`, the
    /// tier's frames.
    pub(crate) fn check_frames(
        &self,
        kind: MemKind,
        range: &std::ops::Range<u64>,
    ) -> Result<(), hetero_sim::snap::SnapshotError> {
        for (cpu, lists) in self.lists.iter().enumerate() {
            if let Some(g) = lists[kind].iter().find(|g| !range.contains(&g.0)) {
                return Err(hetero_sim::snap::SnapshotError::corrupt(format!(
                    "CPU {cpu}'s {kind} list holds {g}, outside the tier's frames {range:?}"
                )));
            }
        }
        Ok(())
    }
}

hetero_sim::impl_snap!(struct PerCpuLists { lists, batch, high, fast_path_hits, refills });

/// The page-at-a-time allocator paths the bulk ones must reproduce byte
/// for byte: refills by single-page buddy allocations, drains and
/// watermark spills by single-page frees, list by list, front to back.
#[cfg(test)]
impl PerCpuLists {
    /// [`PerCpuLists::alloc_draining`] without the empty-tier answer:
    /// list, refill, drain, refill.
    pub(crate) fn alloc_draining_per_page(
        &mut self,
        cpu: usize,
        kind: MemKind,
        buddy: &mut BuddyAllocator,
    ) -> Option<Gfn> {
        if let Some(g) = self.alloc_per_page(cpu, kind, buddy) {
            return Some(g);
        }
        for l in &mut self.lists {
            for g in l[kind].drain(..) {
                buddy.free_page(g);
            }
        }
        self.alloc_per_page(cpu, kind, buddy)
    }

    fn alloc_per_page(
        &mut self,
        cpu: usize,
        kind: MemKind,
        buddy: &mut BuddyAllocator,
    ) -> Option<Gfn> {
        if let Some(g) = self.lists[cpu][kind].pop() {
            self.fast_path_hits += 1;
            return Some(g);
        }
        self.refills += 1;
        for _ in 0..self.batch {
            match buddy.alloc_page() {
                Ok(g) => self.lists[cpu][kind].push(g),
                Err(_) => break,
            }
        }
        self.lists[cpu][kind].pop()
    }

    /// [`PerCpuLists::free`] with a page-at-a-time spill.
    pub(crate) fn free_per_page(
        &mut self,
        cpu: usize,
        kind: MemKind,
        gfn: Gfn,
        buddy: &mut BuddyAllocator,
    ) {
        let high = self.high;
        let list = &mut self.lists[cpu][kind];
        list.push(gfn);
        if list.len() > high {
            for g in list.drain(..high / 2) {
                buddy.free_page(g);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetero_sim::rng::SimRng;

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

    /// An empty buddy of a random size with a random set of its pages
    /// (runs of random lengths, so the frees build blocks of several
    /// orders) stranded on random CPUs' lists, and a random cursor.
    fn stranded(rng: &mut SimRng, cpus: usize) -> (PerCpuLists, BuddyAllocator, usize) {
        let frames = rng.next_range(64, 1500);
        let mut buddy = BuddyAllocator::new(500, frames);
        let mut all = Vec::new();
        buddy.alloc_pages_bulk(frames, &mut all);
        let mut taken = vec![false; frames as usize];
        let mut pcp = PerCpuLists::new(cpus);
        let want = rng
            .next_range(1, (DEFAULT_BATCH * cpus) as u64 + 1)
            .min(frames);
        let mut left = want;
        while left > 0 {
            let start = rng.next_range(0, frames);
            for off in start..(start + rng.next_range(1, 40)).min(frames) {
                if left > 0 && !taken[off as usize] {
                    taken[off as usize] = true;
                    let cpu = rng.next_range(0, cpus as u64) as usize;
                    pcp.lists[cpu][MemKind::Slow].push(Gfn(500 + off));
                    left -= 1;
                }
            }
        }
        (pcp, buddy, rng.next_range(0, cpus as u64) as usize)
    }

    #[test]
    fn round_robin_tail_leaves_the_bytes_of_per_page_allocations() {
        let mut rng = SimRng::seed_from(26);
        for case in 0..400 {
            let cpus = [2, 3, 5, 16][case % 4];
            let (pcp, buddy, cpu) = stranded(&mut rng, cpus);
            let pages = pcp.cached_total(MemKind::Slow) as u64;
            for n in [
                1,
                2,
                3,
                rng.next_range(1, pages + 1),
                pages - 1,
                pages,
                pages + 1,
            ] {
                let (mut bulk, mut bulk_buddy, mut bulk_cpu) = (pcp.clone(), buddy.clone(), cpu);
                let mut got = Vec::new();
                let k = bulk.alloc_round_robin(
                    MemKind::Slow,
                    n,
                    &mut bulk_cpu,
                    &mut bulk_buddy,
                    &mut got,
                );
                let (mut single, mut single_buddy, mut single_cpu) =
                    (pcp.clone(), buddy.clone(), cpu);
                let mut want = Vec::new();
                for _ in 0..n {
                    let c = single_cpu;
                    single_cpu = (c + 1) % cpus;
                    match single.alloc_draining_per_page(c, MemKind::Slow, &mut single_buddy) {
                        Some(g) => want.push(g),
                        None => break,
                    }
                }
                let at = format!("case {case}: {cpus} cpus, {pages} stranded, n {n}");
                assert_eq!(
                    (k, &got, bulk_cpu),
                    (want.len() as u64, &want, single_cpu),
                    "{at}"
                );
                assert!(encoded(&bulk) == encoded(&single), "{at}: the lists differ");
                assert!(
                    encoded(&bulk_buddy) == encoded(&single_buddy),
                    "{at}: the buddies differ"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "high watermark")]
    fn bad_marks_rejected() {
        PerCpuLists::with_marks(1, 8, 4);
    }
}
