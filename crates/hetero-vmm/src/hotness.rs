//! VMM-level page hotness tracking.
//!
//! Software hotness tracking (§2.3) periodically scans page-table access
//! bits into a per-page history, then promotes pages whose history shows
//! sustained use and demotes pages that went cold. Three scan disciplines
//! are provided:
//!
//! * [`HotnessTracker::scan_full`] — the **VMM-exclusive** (HeteroVisor)
//!   discipline: walk the *entire* guest's resident memory in batches,
//!   blind to what the pages are used for;
//! * [`HotnessTracker::scan_tracked`] — the **coordinated** discipline
//!   (§4.1): walk only the VMA ranges on the guest-supplied tracking list,
//!   skipping page types on the exception list;
//! * [`HotnessTracker::scan_harvest_into`] — **page-table A/D tracking**
//!   (HMM-V-style): consume a harvest of real accessed/dirty bits, feeding
//!   the write history as well as the access history.
//!
//! The tracker does not know wall-clock time or workload internals. For
//! the first two, whether a page "was touched since the last scan" is
//! answered by a [`TouchOracle`], which the simulation engine implements
//! from the workload's access model (and tests implement
//! deterministically); the A/D harvest carries its own bits.

use hetero_guest::page::{Gfn, Page, PageType};
use hetero_guest::GuestKernel;
use hetero_mem::MemKind;

/// Answers "was this page referenced since the last scan?".
pub trait TouchOracle {
    /// True when the page's access bit would be found set.
    fn touched(&mut self, page: &Page) -> bool;
}

impl<F: FnMut(&Page) -> bool> TouchOracle for F {
    fn touched(&mut self, page: &Page) -> bool {
        self(page)
    }
}

/// Result of one scan pass.
#[derive(Debug, Clone, Default)]
pub struct ScanOutcome {
    /// Page-table entries / reverse-map slots visited (drives scan cost).
    pub scanned: u64,
    /// Pages on slower tiers whose history crossed the hot threshold.
    pub hot_candidates: Vec<Gfn>,
    /// FastMem pages whose history shows no recent use.
    pub cold_candidates: Vec<Gfn>,
}

/// Batched access-bit history tracker for one guest.
///
/// # Examples
///
/// ```
/// use hetero_guest::kernel::{GuestConfig, GuestKernel};
/// use hetero_mem::MemKind;
/// use hetero_vmm::hotness::HotnessTracker;
///
/// let mut kernel = GuestKernel::new(GuestConfig::default());
/// kernel.mmap_heap(32, std::iter::repeat(200), &[MemKind::Slow]).unwrap();
/// let mut tracker = HotnessTracker::new(2);
/// // Every page reads as touched: after two scans they are promotion-hot.
/// let mut always = |_: &hetero_guest::page::Page| true;
/// tracker.scan_full(&kernel, &mut always, 1 << 20);
/// let out = tracker.scan_full(&kernel, &mut always, 1 << 20);
/// assert!(!out.hot_candidates.is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct HotnessTracker {
    /// 8-bit shift-register history per frame, indexed by `Gfn` (bit 0 =
    /// most recent scan). Dense: guest frame numbers are contiguous, so a
    /// flat table replaces the former `HashMap<Gfn, u8>` — no hashing on
    /// the per-frame scan path, and batched scans walk it sequentially.
    history: Vec<u8>,
    /// 8-bit shift-register of harvested *dirty* bits per frame, parallel
    /// to `history`. Only A/D-harvest scans feed it ([`scan_harvest_into`]
    /// — oracle-driven scans have no write visibility); it supplies the
    /// write heat that the engine's write-aware ranking consumes.
    ///
    /// [`scan_harvest_into`]: HotnessTracker::scan_harvest_into
    write_history: Vec<u8>,
    /// Whether a frame has any recorded history. A history byte of 0 is a
    /// real state ("visited, never touched"), so presence needs its own bit.
    known: Vec<bool>,
    /// Count of `known` frames (diagnostic, kept so `tracked_pages` stays
    /// O(1)).
    tracked: usize,
    /// Number of set history bits required to call a page hot.
    hot_threshold: u32,
    /// Resume cursor for batched full-VM scans.
    cursor: u64,
    /// Resume cursor (virtual page) for batched tracked scans.
    tracked_cursor: u64,
    /// Reused buffer for the resident frames of the current full-scan batch.
    resident_scratch: Vec<Gfn>,
    /// Cumulative scan passes (full + tracked) since creation (telemetry).
    total_scans: u64,
    /// Cumulative frames/PTEs examined across all scans (telemetry).
    total_scanned_frames: u64,
}

impl HotnessTracker {
    /// Creates a tracker; a page is *hot* once `hot_threshold` of its last
    /// 8 scan intervals saw a reference.
    ///
    /// # Panics
    ///
    /// Panics if `hot_threshold` is 0 or greater than 8.
    pub fn new(hot_threshold: u32) -> Self {
        assert!(
            (1..=8).contains(&hot_threshold),
            "hot threshold must be in 1..=8"
        );
        HotnessTracker {
            history: Vec::new(),
            write_history: Vec::new(),
            known: Vec::new(),
            tracked: 0,
            hot_threshold,
            cursor: 0,
            tracked_cursor: 0,
            resident_scratch: Vec::new(),
            total_scans: 0,
            total_scanned_frames: 0,
        }
    }

    /// Pages with recorded history (diagnostic).
    pub fn tracked_pages(&self) -> usize {
        self.tracked
    }

    /// Scan passes performed since creation (survives [`reset`]).
    ///
    /// [`reset`]: HotnessTracker::reset
    pub fn total_scans(&self) -> u64 {
        self.total_scans
    }

    /// Frames/PTEs examined across all scans since creation.
    pub fn total_scanned_frames(&self) -> u64 {
        self.total_scanned_frames
    }

    /// Clears history (e.g. after a phase change).
    pub fn reset(&mut self) {
        self.history.clear();
        self.write_history.clear();
        self.known.clear();
        self.tracked = 0;
        self.cursor = 0;
        self.tracked_cursor = 0;
    }

    /// Grows the dense tables to cover `frames` guest frames.
    ///
    /// # Panics
    ///
    /// Panics when `frames` does not fit the platform's `usize` (a guest
    /// that large cannot have dense per-frame tables; truncating silently
    /// would alias distinct frames onto one slot).
    fn ensure_frames(&mut self, frames: u64) {
        let frames: usize = frames
            .try_into()
            .unwrap_or_else(|_| panic!("{frames} frames overflow the dense hotness tables"));
        if self.history.len() < frames {
            self.history.resize(frames, 0);
            self.write_history.resize(frames, 0);
            self.known.resize(frames, false);
        }
    }

    fn record(&mut self, gfn: Gfn, touched: bool) -> u8 {
        let i: usize = gfn
            .0
            .try_into()
            .unwrap_or_else(|_| panic!("{gfn:?} overflows the dense hotness tables"));
        if i >= self.history.len() {
            let frames = gfn
                .0
                .checked_add(1)
                .unwrap_or_else(|| panic!("{gfn:?} overflows the dense hotness tables"));
            self.ensure_frames(frames);
        }
        if !self.known[i] {
            self.known[i] = true;
            self.tracked += 1;
        }
        let h = &mut self.history[i];
        *h = (*h << 1) | u8::from(touched);
        *h
    }

    /// Records one harvested A/D observation: shifts `accessed` into the
    /// access history and `dirty` into the write history. Returns the
    /// updated access-history byte.
    fn record_harvest(&mut self, gfn: Gfn, accessed: bool, dirty: bool) -> u8 {
        let h = self.record(gfn, accessed);
        // `record` grew the tables, so the index is now in bounds.
        let i = gfn.0 as usize;
        let w = &mut self.write_history[i];
        *w = (*w << 1) | u8::from(dirty);
        h
    }

    /// The access-history byte for a frame (0 for never-seen frames).
    pub fn history_bits(&self, gfn: Gfn) -> u8 {
        usize::try_from(gfn.0)
            .ok()
            .and_then(|i| self.history.get(i).copied())
            .unwrap_or(0)
    }

    /// The harvested write-history byte for a frame (0 for never-seen
    /// frames; only A/D-harvest scans populate it).
    pub fn write_history_bits(&self, gfn: Gfn) -> u8 {
        usize::try_from(gfn.0)
            .ok()
            .and_then(|i| self.write_history.get(i).copied())
            .unwrap_or(0)
    }

    /// A/D-harvest scan: consumes one deterministic page-table harvest
    /// (`(gfn, accessed, dirty)` per visited PTE, as produced by
    /// `GuestKernel::touch_and_harvest`), shifting the access bit into the
    /// heat history and the dirty bit into the write history, then
    /// classifying hot/cold candidates exactly as the oracle-driven scans
    /// do. `scanned` is the number of PTEs the harvest walked; it drives
    /// the per-PTE scan cost. The outcome is cleared first.
    pub fn scan_harvest_into(
        &mut self,
        kernel: &GuestKernel,
        harvest: &[(Gfn, bool, bool)],
        scanned: u64,
        out: &mut ScanOutcome,
    ) {
        out.scanned = scanned;
        out.hot_candidates.clear();
        out.cold_candidates.clear();
        for &(gfn, accessed, dirty) in harvest {
            let h = self.record_harvest(gfn, accessed, dirty);
            self.classify(kernel, gfn, h, out);
        }
        self.total_scans += 1;
        self.total_scanned_frames += scanned;
    }

    fn classify(&self, kernel: &GuestKernel, gfn: Gfn, history: u8, out: &mut ScanOutcome) {
        // Even a guest-blind VMM knows which frames are page tables or DMA
        // regions (they are registered with it); those never migrate (§4.1).
        if !kernel.memmap().page(gfn).page_type.is_migratable() {
            return;
        }
        let kind = kernel.memmap().kind_of(gfn);
        let hot = history.count_ones() >= self.hot_threshold;
        if kind != MemKind::Fast && hot {
            out.hot_candidates.push(gfn);
        } else if kind == MemKind::Fast && history == 0 {
            out.cold_candidates.push(gfn);
        }
    }

    /// VMM-exclusive full scan: visits up to `batch` guest frames starting
    /// from the saved cursor (wrapping), recording history for every
    /// resident page regardless of type or state.
    pub fn scan_full(
        &mut self,
        kernel: &GuestKernel,
        oracle: &mut dyn TouchOracle,
        batch: u64,
    ) -> ScanOutcome {
        let mut out = ScanOutcome::default();
        self.scan_full_into(kernel, oracle, batch, &mut out);
        out
    }

    /// As [`HotnessTracker::scan_full`], writing into a caller-owned
    /// [`ScanOutcome`] whose candidate buffers are reused across scans
    /// instead of reallocated. The outcome is cleared first.
    pub fn scan_full_into(
        &mut self,
        kernel: &GuestKernel,
        oracle: &mut dyn TouchOracle,
        batch: u64,
        out: &mut ScanOutcome,
    ) {
        let total = kernel.memmap().total_frames();
        out.scanned = batch.min(total);
        out.hot_candidates.clear();
        out.cold_candidates.clear();
        // The guest can shrink (ballooning, or a tracker reused across
        // differently-sized guests): a cursor past the end would silently
        // skip the first `cursor % total` frames on its next pass. Restart
        // from frame 0 instead.
        if self.cursor >= total {
            self.cursor = 0;
        }
        self.ensure_frames(total);
        let mut resident = std::mem::take(&mut self.resident_scratch);
        resident.clear();
        self.cursor = kernel.scan_resident_into(self.cursor, batch, &mut resident);
        for &gfn in &resident {
            let touched = oracle.touched(kernel.memmap().page(gfn));
            let h = self.record(gfn, touched);
            self.classify(kernel, gfn, h, out);
        }
        self.resident_scratch = resident;
        self.total_scans += 1;
        self.total_scanned_frames += out.scanned;
    }

    /// Coordinated scan: visits only the virtual ranges on `tracking` (the
    /// guest's tracking list), skipping page types in `exceptions` (the
    /// exception list), up to `batch` PTEs.
    pub fn scan_tracked(
        &mut self,
        kernel: &GuestKernel,
        tracking: &[(u64, u64)],
        exceptions: &[PageType],
        oracle: &mut dyn TouchOracle,
        batch: u64,
    ) -> ScanOutcome {
        let mut out = ScanOutcome::default();
        self.scan_tracked_into(kernel, tracking, exceptions, oracle, batch, &mut out);
        out
    }

    /// As [`HotnessTracker::scan_tracked`], writing into a caller-owned,
    /// reused [`ScanOutcome`]. The outcome is cleared first.
    pub fn scan_tracked_into(
        &mut self,
        kernel: &GuestKernel,
        tracking: &[(u64, u64)],
        exceptions: &[PageType],
        oracle: &mut dyn TouchOracle,
        batch: u64,
        out: &mut ScanOutcome,
    ) {
        out.scanned = 0;
        out.hot_candidates.clear();
        out.cold_candidates.clear();
        self.total_scans += 1;
        if tracking.is_empty() {
            return;
        }
        // Resume where the previous batch stopped, wrapping over the list.
        let total_vpns: u64 = tracking.iter().map(|&(s, e)| e.saturating_sub(s)).sum();
        let mut visited_vpns = 0u64;
        let start_at = self.tracked_cursor;
        let mut started = false;
        'outer: loop {
            for &(start, end) in tracking {
                let from = if !started && start_at >= start && start_at < end {
                    started = true;
                    start_at
                } else if started || start_at < start {
                    started = true;
                    start
                } else {
                    continue; // still seeking the resume point
                };
                for vpn in from..end {
                    if out.scanned >= batch || visited_vpns >= total_vpns {
                        self.tracked_cursor = vpn;
                        break 'outer;
                    }
                    visited_vpns += 1;
                    let Some(gfn) = kernel.page_table().translate(vpn) else {
                        continue;
                    };
                    out.scanned += 1;
                    let page = kernel.memmap().page(gfn);
                    if exceptions.contains(&page.page_type) {
                        continue;
                    }
                    let touched = oracle.touched(page);
                    let h = self.record(gfn, touched);
                    self.classify(kernel, gfn, h, out);
                }
            }
            if !started {
                // Cursor beyond every range (regions unmapped): restart.
                self.tracked_cursor = tracking[0].0;
                started = true;
                continue;
            }
            // Wrapped past the last range: continue from the first.
            self.tracked_cursor = tracking[0].0;
            if out.scanned >= batch || visited_vpns >= total_vpns {
                break;
            }
        }
        self.total_scanned_frames += out.scanned;
    }

    /// Frames covered by the dense tables (invariant-audit input).
    pub fn table_frames(&self) -> u64 {
        self.known.len() as u64
    }

    /// Iterates every tracked frame and its access history, in ascending
    /// frame order (invariant-audit input).
    pub fn known_entries(&self) -> impl Iterator<Item = (Gfn, u8)> + '_ {
        self.known
            .iter()
            .enumerate()
            .filter(|(_, &known)| known)
            .map(|(i, _)| (Gfn(i as u64), self.history[i]))
    }

    /// Forgets pages that are no longer resident (called opportunistically
    /// to bound history size).
    ///
    /// # Panics
    ///
    /// Panics when the guest's frame count does not fit `usize` (see
    /// [`HotnessTracker::table_frames`]; dense tables cannot cover it).
    pub fn prune(&mut self, kernel: &GuestKernel) {
        let total = kernel.memmap().total_frames();
        let total: usize = total
            .try_into()
            .unwrap_or_else(|_| panic!("{total} frames overflow the dense hotness tables"));
        for i in 0..self.known.len() {
            if !self.known[i] {
                continue;
            }
            if i >= total || !kernel.memmap().page(Gfn(i as u64)).is_present() {
                self.known[i] = false;
                self.history[i] = 0;
                self.write_history[i] = 0;
                self.tracked -= 1;
            }
        }
    }
}

hetero_sim::impl_snap!(struct ScanOutcome { scanned, hot_candidates, cold_candidates });

hetero_sim::impl_snap!(struct HotnessTracker {
    history, write_history, known, tracked, hot_threshold, cursor,
    tracked_cursor, resident_scratch, total_scans, total_scanned_frames
});

#[cfg(test)]
mod tests {
    use super::*;
    use hetero_guest::kernel::GuestConfig;
    use hetero_guest::pagecache::FileId;

    fn kernel_with_slow_heap(pages: u64) -> GuestKernel {
        let mut k = GuestKernel::new(GuestConfig {
            frames: vec![(MemKind::Fast, 64), (MemKind::Slow, 256)],
            cpus: 1,
            page_size: 4096,
        });
        k.mmap_heap(pages, std::iter::repeat(200), &[MemKind::Slow])
            .unwrap();
        k
    }

    #[test]
    fn hot_pages_need_threshold_scans() {
        let k = kernel_with_slow_heap(8);
        let mut t = HotnessTracker::new(3);
        let mut always = |_: &Page| true;
        let o1 = t.scan_full(&k, &mut always, 1 << 20);
        assert!(o1.hot_candidates.is_empty(), "one touch is not hot yet");
        t.scan_full(&k, &mut always, 1 << 20);
        let o3 = t.scan_full(&k, &mut always, 1 << 20);
        assert_eq!(o3.hot_candidates.len(), 8, "heap pages are hot after 3");
    }

    #[test]
    fn untouched_fast_pages_become_cold_candidates() {
        let mut k = GuestKernel::new(GuestConfig::default());
        k.mmap_heap(4, std::iter::repeat(10), &[MemKind::Fast])
            .unwrap();
        let mut t = HotnessTracker::new(2);
        let mut never = |_: &Page| false;
        let out = t.scan_full(&k, &mut never, 1 << 20);
        // Heap pages + page-table backing pages on Fast all read cold.
        assert!(out.cold_candidates.len() >= 4);
        assert!(out.hot_candidates.is_empty());
    }

    #[test]
    fn full_scan_is_batched_with_cursor() {
        let k = kernel_with_slow_heap(16);
        let total = k.memmap().total_frames();
        let mut t = HotnessTracker::new(1);
        let mut always = |_: &Page| true;
        let resident = k.memmap().resident_pages(PageType::HeapAnon) as usize;
        let half = t.scan_full(&k, &mut always, total / 2);
        assert_eq!(half.scanned, total / 2);
        let rest = t.scan_full(&k, &mut always, total / 2);
        // Between the two halves every resident (slow) page was seen once;
        // with threshold 1 each becomes a hot candidate exactly once.
        assert_eq!(
            half.hot_candidates.len() + rest.hot_candidates.len(),
            resident,
        );
    }

    #[test]
    fn tracked_scan_respects_lists() {
        let mut k = GuestKernel::new(GuestConfig {
            frames: vec![(MemKind::Fast, 64), (MemKind::Slow, 256)],
            cpus: 1,
            page_size: 4096,
        });
        let (vma, _) = k
            .mmap_heap(8, std::iter::repeat(200), &[MemKind::Slow])
            .unwrap();
        // A page-cache page inside no tracked range.
        k.page_in(FileId(1), 0, 200, &[MemKind::Slow]).unwrap();
        let mut t = HotnessTracker::new(1);
        let mut always = |_: &Page| true;
        let tracking = vec![(vma.start, vma.end())];
        let out = t.scan_tracked(&k, &tracking, &[PageType::PageCache], &mut always, 1 << 20);
        assert_eq!(out.scanned, 8, "only tracked VPNs are visited");
        assert_eq!(out.hot_candidates.len(), 8);
    }

    #[test]
    fn tracked_scan_exception_list_skips_types() {
        let mut k = GuestKernel::new(GuestConfig::default());
        let (vma, _) = k
            .mmap_heap(4, std::iter::repeat(200), &[MemKind::Slow])
            .unwrap();
        let mut t = HotnessTracker::new(1);
        let mut always = |_: &Page| true;
        let out = t.scan_tracked(
            &k,
            &[(vma.start, vma.end())],
            &[PageType::HeapAnon],
            &mut always,
            1 << 20,
        );
        assert_eq!(out.scanned, 4, "PTEs are still walked");
        assert!(out.hot_candidates.is_empty(), "excepted types not tracked");
        assert_eq!(t.tracked_pages(), 0);
    }

    #[test]
    fn tracked_scan_honors_batch_limit() {
        let mut k = GuestKernel::new(GuestConfig::default());
        let (vma, _) = k
            .mmap_heap(32, std::iter::repeat(200), &[MemKind::Slow])
            .unwrap();
        let mut t = HotnessTracker::new(1);
        let mut always = |_: &Page| true;
        let out = t.scan_tracked(&k, &[(vma.start, vma.end())], &[], &mut always, 10);
        assert_eq!(out.scanned, 10);
    }

    #[test]
    fn prune_drops_freed_pages() {
        let mut k = kernel_with_slow_heap(8);
        let mut t = HotnessTracker::new(1);
        let mut always = |_: &Page| true;
        t.scan_full(&k, &mut always, 1 << 20);
        let before = t.tracked_pages();
        assert!(before > 0);
        // Free everything.
        let vma = *k.address_space().iter().next().unwrap();
        k.munmap(vma.start, vma.pages);
        t.prune(&k);
        assert!(t.tracked_pages() < before);
    }

    #[test]
    #[should_panic(expected = "hot threshold")]
    fn zero_threshold_rejected() {
        HotnessTracker::new(0);
    }

    #[test]
    fn cursor_resets_when_guest_shrinks_below_it() {
        // Advance the cursor deep into a large guest, then point the same
        // tracker at a much smaller guest. The stale cursor must restart at
        // frame 0 rather than skip the small guest's first frames.
        let big = kernel_with_slow_heap(16); // 320 frames total
        let mut t = HotnessTracker::new(1);
        let mut always = |_: &Page| true;
        let total_big = big.memmap().total_frames();
        t.scan_full(&big, &mut always, total_big - 10); // cursor = 310
        let mut small = GuestKernel::new(GuestConfig {
            frames: vec![(MemKind::Slow, 64)],
            cpus: 1,
            page_size: 4096,
        });
        let (vma, _) = small
            .mmap_heap(8, std::iter::repeat(200), &[MemKind::Slow])
            .unwrap();
        let first: Vec<Gfn> = (vma.start..vma.end())
            .map(|v| small.page_table().translate(v).unwrap())
            .collect();
        let out = t.scan_full(&small, &mut always, small.memmap().total_frames());
        for gfn in &first {
            assert!(
                out.hot_candidates.contains(gfn),
                "frame {gfn:?} skipped by a stale cursor"
            );
        }
    }

    #[test]
    fn scan_into_reuses_buffers_and_matches_allocating_scan() {
        let k = kernel_with_slow_heap(16);
        let mut a = HotnessTracker::new(1);
        let mut b = HotnessTracker::new(1);
        let mut always = |_: &Page| true;
        let mut scratch = ScanOutcome::default();
        for _ in 0..3 {
            let fresh = a.scan_full(&k, &mut always, 100);
            b.scan_full_into(&k, &mut always, 100, &mut scratch);
            assert_eq!(fresh.scanned, scratch.scanned);
            assert_eq!(fresh.hot_candidates, scratch.hot_candidates);
            assert_eq!(fresh.cold_candidates, scratch.cold_candidates);
        }
        assert_eq!(a.tracked_pages(), b.tracked_pages());
    }

    #[test]
    fn harvest_scan_tracks_access_and_write_heat_separately() {
        let k = kernel_with_slow_heap(4);
        let gfns: Vec<Gfn> = {
            let vma = *k.address_space().iter().next().unwrap();
            (vma.start..vma.end())
                .map(|v| k.page_table().translate(v).unwrap())
                .collect()
        };
        let mut t = HotnessTracker::new(2);
        let mut out = ScanOutcome::default();
        // Two harvests: page 0 read each time, page 1 written each time.
        for _ in 0..2 {
            let harvest = vec![
                (gfns[0], true, false),
                (gfns[1], true, true),
                (gfns[2], false, false),
            ];
            t.scan_harvest_into(&k, &harvest, 4, &mut out);
        }
        assert_eq!(out.scanned, 4, "holes count toward the walked-PTE cost");
        assert_eq!(t.history_bits(gfns[0]), 0b11);
        assert_eq!(t.write_history_bits(gfns[0]), 0);
        assert_eq!(t.write_history_bits(gfns[1]), 0b11);
        assert_eq!(t.history_bits(gfns[2]), 0);
        assert_eq!(t.write_history_bits(Gfn(u64::MAX)), 0, "unseen frames are 0");
        // Both sustained pages crossed the threshold-2 hot bar.
        assert!(out.hot_candidates.contains(&gfns[0]));
        assert!(out.hot_candidates.contains(&gfns[1]));
        assert!(!out.hot_candidates.contains(&gfns[2]));
        assert_eq!(t.total_scans(), 2);
        assert_eq!(t.total_scanned_frames(), 8);
    }

    #[test]
    fn harvested_write_heat_decays() {
        let k = kernel_with_slow_heap(1);
        let gfn = {
            let vma = *k.address_space().iter().next().unwrap();
            k.page_table().translate(vma.start).unwrap()
        };
        let mut t = HotnessTracker::new(1);
        let mut out = ScanOutcome::default();
        t.scan_harvest_into(&k, &[(gfn, true, true)], 1, &mut out);
        assert_eq!(t.write_history_bits(gfn), 0b1);
        // Three clean harvests: the write bit shifts out of the low bits.
        for _ in 0..3 {
            t.scan_harvest_into(&k, &[(gfn, true, false)], 1, &mut out);
        }
        assert_eq!(t.write_history_bits(gfn), 0b1000);
        assert_eq!(t.history_bits(gfn), 0b1111);
    }

    /// Regression: `record` used to compute `gfn.0 + 1` in `u64` (overflow at
    /// the boundary) and index with `gfn.0 as usize` (silent truncation on
    /// 32-bit targets, aliasing distinct frames onto one history slot). Both
    /// must now refuse loudly — and crucially *before* any table resize, so
    /// the boundary case cannot first attempt an absurd allocation.
    #[test]
    #[should_panic(expected = "overflows the dense hotness tables")]
    fn record_at_u64_boundary_panics_instead_of_truncating() {
        let mut t = HotnessTracker::new(3);
        t.record(Gfn(u64::MAX), true);
    }

    #[test]
    fn record_at_table_edge_grows_exactly() {
        let mut t = HotnessTracker::new(3);
        assert_eq!(t.table_frames(), 0);
        t.record(Gfn(7), true);
        assert_eq!(t.table_frames(), 8, "tables cover gfn 0..=7");
        assert_eq!(t.tracked_pages(), 1);
        let entries: Vec<(Gfn, u8)> = t.known_entries().collect();
        assert_eq!(entries, vec![(Gfn(7), 1)]);
    }
}
