//! Split active/inactive LRU lists, per memory tier — the substrate of
//! HeteroOS-LRU (§3.3).
//!
//! Linux keeps an approximate split LRU (active list of recently-used pages,
//! inactive list of cold pages) per zone, triggered by *whole-system* memory
//! pressure. HeteroOS extends this with:
//!
//! 1. **memory-type-specific thresholds** — each tier has its own
//!    replacement trigger instead of global pressure;
//! 2. **eager state tracking** — active→inactive transitions are acted on
//!    immediately (released I/O pages and unmapped ranges are demoted out of
//!    FastMem at once) instead of waiting for a lazy reclaim scan.
//!
//! Lists are intrusive: the links live in the [`Page`] descriptors, so
//! membership costs no allocation and removal is O(1), like the kernel.

use hetero_mem::MemKind;
use hetero_sim::snap::SnapshotError;

use crate::memmap::MemMap;
use crate::page::{Gfn, Page, PageFlags, PageType};

/// Which LRU a page class belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LruClass {
    /// Anonymous/heap pages.
    Anon,
    /// File-backed and kernel-buffer pages (page cache, buffer cache, slab,
    /// network buffers).
    File,
}

impl LruClass {
    /// The LRU class of a page type, or `None` for unevictable types
    /// (page-table and DMA pages are pinned, §4.1).
    pub fn of(page_type: PageType) -> Option<LruClass> {
        match page_type {
            PageType::HeapAnon => Some(LruClass::Anon),
            PageType::PageCache | PageType::BufferCache | PageType::Slab | PageType::NetBuf => {
                Some(LruClass::File)
            }
            PageType::PageTable | PageType::Dma => None,
        }
    }
}

/// One intrusive doubly-linked list of pages.
#[derive(Debug, Clone, Copy, Default)]
pub struct LruList {
    head: Option<Gfn>,
    tail: Option<Gfn>,
    len: u64,
}

impl LruList {
    /// Number of pages on the list.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// True when the list is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Pushes a page at the head (most-recently-used end).
    ///
    /// # Panics
    ///
    /// Panics if the page is already on some LRU list.
    pub fn push_front(&mut self, mm: &mut MemMap, gfn: Gfn) {
        {
            let p = mm.page_mut(gfn);
            assert!(
                !p.flags.contains(PageFlags::LRU),
                "{gfn} is already on an LRU list"
            );
            p.flags.insert(PageFlags::LRU);
            p.set_lru_prev(None);
            p.set_lru_next(self.head);
        }
        if let Some(old_head) = self.head {
            mm.page_mut(old_head).set_lru_prev(Some(gfn));
        }
        self.head = Some(gfn);
        if self.tail.is_none() {
            self.tail = Some(gfn);
        }
        self.len += 1;
    }

    /// Unlinks a page from this list.
    ///
    /// # Panics
    ///
    /// Panics if the page is not on an LRU list. (Membership of *this* list
    /// is the caller's invariant — the registry guarantees it.)
    pub fn remove(&mut self, mm: &mut MemMap, gfn: Gfn) {
        let (prev, next) = {
            let p = mm.page_mut(gfn);
            assert!(p.flags.contains(PageFlags::LRU), "{gfn} is not on an LRU");
            p.flags.remove(PageFlags::LRU);
            let links = (p.lru_prev(), p.lru_next());
            p.set_lru_prev(None);
            p.set_lru_next(None);
            links
        };
        match prev {
            Some(p) => mm.page_mut(p).set_lru_next(next),
            None => self.head = next,
        }
        match next {
            Some(n) => mm.page_mut(n).set_lru_prev(prev),
            None => self.tail = prev,
        }
        self.len -= 1;
    }

    /// The most-recently-used page (head) without removing it.
    pub fn peek_front(&self) -> Option<Gfn> {
        self.head
    }

    /// Completes a head-insert whose descriptor half (`LRU` flag, no
    /// previous link, this list's head as the next link) was pre-written
    /// by [`MemMap::set_allocated_linked`] — the bulk allocators' fused
    /// equivalent of [`LruList::push_front`].
    pub fn push_front_prelinked(&mut self, mm: &mut MemMap, gfn: Gfn) {
        debug_assert!(mm.page(gfn).flags.contains(PageFlags::LRU));
        debug_assert_eq!(mm.page(gfn).lru_prev(), None);
        debug_assert_eq!(mm.page(gfn).lru_next(), self.head);
        if let Some(old_head) = self.head {
            mm.page_mut(old_head).set_lru_prev(Some(gfn));
        }
        self.head = Some(gfn);
        if self.tail.is_none() {
            self.tail = Some(gfn);
        }
        self.len += 1;
    }

    /// Removes and returns the tail (least-recently-used) page.
    pub fn pop_back(&mut self, mm: &mut MemMap) -> Option<Gfn> {
        let tail = self.tail?;
        self.remove(mm, tail);
        Some(tail)
    }

    /// The least-recently-used page without removing it.
    pub fn peek_back(&self) -> Option<Gfn> {
        self.tail
    }

    /// Iterates from MRU to LRU (for diagnostics and tests).
    ///
    /// Stops after [`LruList::len`]` + 1` pages, so a corrupt list that
    /// cycles still ends, one page past its recorded length — the bound
    /// the auditor's walk keeps too, to tell a cycle from a healthy list.
    pub fn iter<'a>(&'a self, mm: &'a MemMap) -> impl Iterator<Item = Gfn> + 'a {
        std::iter::successors(self.head, move |&g| mm.page(g).lru_next())
            .take(self.len as usize + 1)
    }
}

/// Active + inactive list pair.
#[derive(Debug, Clone, Copy, Default)]
pub struct SplitLru {
    /// Recently-used pages.
    pub active: LruList,
    /// Cold pages — reclaim candidates.
    pub inactive: LruList,
}

impl SplitLru {
    /// Pages across both lists.
    pub fn len(&self) -> u64 {
        self.active.len() + self.inactive.len()
    }

    /// True when both lists are empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The per-(tier, class) LRU registry of one guest.
///
/// # Examples
///
/// ```
/// use hetero_guest::lru::{LruRegistry, LruClass};
/// use hetero_guest::memmap::MemMap;
/// use hetero_guest::page::{Gfn, PageType};
/// use hetero_mem::MemKind;
///
/// let mut mm = MemMap::new(&[(MemKind::Fast, 8), (MemKind::Slow, 8)]);
/// let mut lru = LruRegistry::new();
/// mm.set_allocated(Gfn(0), PageType::HeapAnon, 100);
/// lru.insert_active(&mut mm, Gfn(0));
/// assert_eq!(lru.split(MemKind::Fast, LruClass::Anon).active.len(), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct LruRegistry {
    // Indexed [kind.tier()][class as anon=0/file=1].
    lists: [[SplitLru; 2]; 3],
    transitions: LruTransitionStats,
}

/// Cumulative LRU state-transition counts — the raw material for the
/// telemetry registry's `guest.lru.*` metrics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LruTransitionStats {
    /// Pages inserted on an active list.
    pub insert_active: u64,
    /// Pages inserted on an inactive list.
    pub insert_inactive: u64,
    /// Pages unlinked (free, migrate-out, reclaim precursor).
    pub removals: u64,
    /// Inactive→active promotions (re-reference).
    pub activations: u64,
    /// Active→inactive demotions (eager transitions + balancing).
    pub deactivations: u64,
    /// Pages reclaimed off inactive tails by `shrink_inactive`.
    pub reclaimed: u64,
}

fn class_index(c: LruClass) -> usize {
    match c {
        LruClass::Anon => 0,
        LruClass::File => 1,
    }
}

impl LruRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        LruRegistry::default()
    }

    /// The split LRU for one tier and class.
    pub fn split(&self, kind: MemKind, class: LruClass) -> &SplitLru {
        &self.lists[kind.tier() as usize][class_index(class)]
    }

    fn split_mut(&mut self, kind: MemKind, class: LruClass) -> &mut SplitLru {
        &mut self.lists[kind.tier() as usize][class_index(class)]
    }

    fn locate(page: &Page) -> Option<(MemKind, LruClass)> {
        LruClass::of(page.page_type).map(|c| (page.kind, c))
    }

    /// The list a fresh page of `(kind, class)` joins — bulk-path helper
    /// paired with [`MemMap::set_allocated_linked`],
    /// [`LruList::push_front_prelinked`] and the `note_fresh_*`
    /// transition tallies.
    pub fn fresh_list_mut(&mut self, kind: MemKind, class: LruClass, active: bool) -> &mut LruList {
        let split = self.split_mut(kind, class);
        if active {
            &mut split.active
        } else {
            &mut split.inactive
        }
    }

    /// Transition accounting for `n` pages inserted via the fused bulk
    /// path (equivalent of `n` [`LruRegistry::insert_active`] or
    /// [`LruRegistry::insert_inactive`] calls).
    pub fn note_fresh_inserts(&mut self, active: bool, n: u64) {
        if active {
            self.transitions.insert_active += n;
        } else {
            self.transitions.insert_inactive += n;
        }
    }

    /// Transition accounting for `n` [`LruRegistry::remove`] calls of
    /// listed pages whose list moves are accounted elsewhere.
    pub(crate) fn note_removals(&mut self, n: u64) {
        self.transitions.removals += n;
    }

    /// Transition accounting for the fused miss path of a file fault: the
    /// page is born inactive and immediately activated by the I/O filling
    /// it, so a direct active-list insert must tally both transitions.
    pub fn note_fresh_faulted(&mut self, n: u64) {
        self.transitions.insert_inactive += n;
        self.transitions.activations += n;
    }

    /// Inserts a freshly allocated page on its active list (heap pages start
    /// active; Linux starts file pages inactive — see
    /// [`LruRegistry::insert_inactive`]). Unevictable types are ignored.
    pub fn insert_active(&mut self, mm: &mut MemMap, gfn: Gfn) {
        let Some((kind, class)) = Self::locate(mm.page(gfn)) else {
            return;
        };
        mm.set_active(gfn, true);
        self.split_mut(kind, class).active.push_front(mm, gfn);
        self.transitions.insert_active += 1;
    }

    /// Inserts a page on its inactive list.
    pub fn insert_inactive(&mut self, mm: &mut MemMap, gfn: Gfn) {
        let Some((kind, class)) = Self::locate(mm.page(gfn)) else {
            return;
        };
        mm.set_active(gfn, false);
        self.split_mut(kind, class).inactive.push_front(mm, gfn);
        self.transitions.insert_inactive += 1;
    }

    /// Removes a page from whichever list holds it (no-op when unlisted).
    pub fn remove(&mut self, mm: &mut MemMap, gfn: Gfn) {
        if !mm.page(gfn).flags.contains(PageFlags::LRU) {
            return;
        }
        let (kind, class) = Self::locate(mm.page(gfn)).expect("listed page has a class");
        let active = mm.page(gfn).flags.contains(PageFlags::ACTIVE);
        let split = self.split_mut(kind, class);
        if active {
            split.active.remove(mm, gfn);
        } else {
            split.inactive.remove(mm, gfn);
        }
        mm.set_active(gfn, false);
        self.transitions.removals += 1;
    }

    /// Moves an inactive page to the active list (page was re-referenced).
    /// No-op if already active or unlisted.
    pub fn activate(&mut self, mm: &mut MemMap, gfn: Gfn) {
        let flags = mm.page(gfn).flags;
        if !flags.contains(PageFlags::LRU) || flags.contains(PageFlags::ACTIVE) {
            return;
        }
        let (kind, class) = Self::locate(mm.page(gfn)).expect("listed page has a class");
        let split = self.split_mut(kind, class);
        split.inactive.remove(mm, gfn);
        mm.set_active(gfn, true);
        split.active.push_front(mm, gfn);
        self.transitions.activations += 1;
    }

    /// Moves an active page to the inactive list — HeteroOS-LRU's *eager*
    /// transition used on I/O completion and unmap (§3.3). No-op if already
    /// inactive or unlisted.
    pub fn deactivate(&mut self, mm: &mut MemMap, gfn: Gfn) {
        let flags = mm.page(gfn).flags;
        if !flags.contains(PageFlags::LRU) || !flags.contains(PageFlags::ACTIVE) {
            return;
        }
        let (kind, class) = Self::locate(mm.page(gfn)).expect("listed page has a class");
        let split = self.split_mut(kind, class);
        split.active.remove(mm, gfn);
        mm.set_active(gfn, false);
        split.inactive.push_front(mm, gfn);
        self.transitions.deactivations += 1;
    }

    /// Reclaims up to `n` pages from a tier's inactive lists (file pages
    /// first — they are cheapest to drop), removing them from the LRU.
    /// Returns the reclaimed pages, LRU-most first.
    pub fn shrink_inactive(&mut self, mm: &mut MemMap, kind: MemKind, n: u64) -> Vec<Gfn> {
        // Pre-size to the reclaimable count: never over-reserve when the
        // inactive lists hold fewer than `n` pages.
        let available: u64 = [LruClass::File, LruClass::Anon]
            .iter()
            .map(|&c| self.split(kind, c).inactive.len())
            .sum();
        let mut out = Vec::with_capacity(n.min(available) as usize);
        for class in [LruClass::File, LruClass::Anon] {
            while (out.len() as u64) < n {
                match self.split_mut(kind, class).inactive.pop_back(mm) {
                    Some(g) => {
                        // Inactive pages carry no ACTIVE bit; `set_active`
                        // keeps this a ledger-aware no-op.
                        mm.set_active(g, false);
                        out.push(g);
                    }
                    None => break,
                }
            }
        }
        self.transitions.reclaimed += out.len() as u64;
        out
    }

    /// Rebalances a tier: demotes pages from active tails to inactive until
    /// the active list is at most `ratio` of the class total. Returns pages
    /// demoted.
    pub fn balance(&mut self, mm: &mut MemMap, kind: MemKind, ratio: f64) -> u64 {
        let ratio = ratio.clamp(0.0, 1.0);
        let mut demoted = 0;
        for class in [LruClass::Anon, LruClass::File] {
            loop {
                let split = self.split(kind, class);
                let total = split.len();
                if total == 0 || (split.active.len() as f64) <= ratio * total as f64 {
                    break;
                }
                let Some(victim) = self.split(kind, class).active.peek_back() else {
                    break;
                };
                self.deactivate(mm, victim);
                demoted += 1;
            }
        }
        demoted
    }

    /// Total pages listed on one tier (both classes, both lists).
    pub fn listed_on(&self, kind: MemKind) -> u64 {
        self.lists[kind.tier() as usize]
            .iter()
            .map(SplitLru::len)
            .sum()
    }

    /// Cumulative transition counts since creation.
    pub fn transitions(&self) -> &LruTransitionStats {
        &self.transitions
    }

    /// Restore-time check: every list head and tail names one of the
    /// memmap's `frames` frames. One look per list.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Corrupt`] naming the first end past the memmap.
    pub(crate) fn check_frames(&self, frames: u64) -> Result<(), SnapshotError> {
        let ends = self.lists.iter().flatten().flat_map(|split| {
            [&split.active, &split.inactive]
                .into_iter()
                .flat_map(|list| [("head", list.head), ("tail", list.tail)])
        });
        for (end, gfn) in ends {
            if let Some(g) = gfn.filter(|g| g.0 >= frames) {
                return Err(SnapshotError::corrupt(format!(
                    "LRU list {end} {g} is past the memmap's {frames} frames"
                )));
            }
        }
        Ok(())
    }
}

hetero_sim::impl_snap!(struct LruList { head, tail, len });

hetero_sim::impl_snap!(struct SplitLru { active, inactive });

hetero_sim::impl_snap!(struct LruTransitionStats {
    insert_active, insert_inactive, removals, activations, deactivations, reclaimed
});

hetero_sim::impl_snap!(struct LruRegistry { lists, transitions });

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (MemMap, LruRegistry) {
        let mm = MemMap::new(&[(MemKind::Fast, 16), (MemKind::Slow, 16)]);
        (mm, LruRegistry::new())
    }

    fn alloc(mm: &mut MemMap, gfn: u64, t: PageType) -> Gfn {
        let g = Gfn(gfn);
        mm.set_allocated(g, t, 10);
        g
    }

    #[test]
    fn push_remove_pop_maintain_order() {
        let (mut mm, _) = setup();
        let mut list = LruList::default();
        let a = alloc(&mut mm, 0, PageType::HeapAnon);
        let b = alloc(&mut mm, 1, PageType::HeapAnon);
        let c = alloc(&mut mm, 2, PageType::HeapAnon);
        list.push_front(&mut mm, a);
        list.push_front(&mut mm, b);
        list.push_front(&mut mm, c);
        assert_eq!(list.iter(&mm).collect::<Vec<_>>(), vec![c, b, a]);
        assert_eq!(list.peek_back(), Some(a));
        list.remove(&mut mm, b);
        assert_eq!(list.iter(&mm).collect::<Vec<_>>(), vec![c, a]);
        assert_eq!(list.pop_back(&mut mm), Some(a));
        assert_eq!(list.pop_back(&mut mm), Some(c));
        assert_eq!(list.pop_back(&mut mm), None);
        assert!(list.is_empty());
    }

    #[test]
    fn iter_stops_one_page_past_a_cycle() {
        let (mut mm, _) = setup();
        let mut list = LruList::default();
        let pages: Vec<Gfn> = (0..3)
            .map(|i| alloc(&mut mm, i, PageType::HeapAnon))
            .collect();
        for &g in &pages {
            list.push_front(&mut mm, g);
        }
        // Close the list into a ring: the tail links back to the head.
        mm.page_mut(pages[0]).set_lru_next(Some(pages[2]));
        let walked: Vec<Gfn> = list.iter(&mm).collect();
        assert_eq!(walked, vec![pages[2], pages[1], pages[0], pages[2]]);
    }

    #[test]
    #[should_panic(expected = "already on an LRU")]
    fn double_insert_panics() {
        let (mut mm, _) = setup();
        let mut list = LruList::default();
        let a = alloc(&mut mm, 0, PageType::HeapAnon);
        list.push_front(&mut mm, a);
        list.push_front(&mut mm, a);
    }

    #[test]
    fn registry_routes_by_tier_and_class() {
        let (mut mm, mut lru) = setup();
        let heap_fast = alloc(&mut mm, 0, PageType::HeapAnon);
        let cache_fast = alloc(&mut mm, 1, PageType::PageCache);
        let heap_slow = alloc(&mut mm, 16, PageType::HeapAnon);
        lru.insert_active(&mut mm, heap_fast);
        lru.insert_inactive(&mut mm, cache_fast);
        lru.insert_active(&mut mm, heap_slow);
        assert_eq!(lru.split(MemKind::Fast, LruClass::Anon).active.len(), 1);
        assert_eq!(lru.split(MemKind::Fast, LruClass::File).inactive.len(), 1);
        assert_eq!(lru.split(MemKind::Slow, LruClass::Anon).active.len(), 1);
        assert_eq!(lru.listed_on(MemKind::Fast), 2);
    }

    #[test]
    fn unevictable_types_are_ignored() {
        let (mut mm, mut lru) = setup();
        let pt = alloc(&mut mm, 0, PageType::PageTable);
        lru.insert_active(&mut mm, pt);
        assert!(!mm.page(pt).flags.contains(PageFlags::LRU));
        assert_eq!(lru.listed_on(MemKind::Fast), 0);
        lru.remove(&mut mm, pt); // no-op, no panic
    }

    #[test]
    fn activate_deactivate_move_between_lists() {
        let (mut mm, mut lru) = setup();
        let g = alloc(&mut mm, 0, PageType::HeapAnon);
        lru.insert_active(&mut mm, g);
        lru.deactivate(&mut mm, g);
        let s = lru.split(MemKind::Fast, LruClass::Anon);
        assert_eq!((s.active.len(), s.inactive.len()), (0, 1));
        lru.activate(&mut mm, g);
        let s = lru.split(MemKind::Fast, LruClass::Anon);
        assert_eq!((s.active.len(), s.inactive.len()), (1, 0));
        // Idempotent:
        lru.activate(&mut mm, g);
        assert_eq!(lru.split(MemKind::Fast, LruClass::Anon).active.len(), 1);
    }

    #[test]
    fn shrink_prefers_file_pages() {
        let (mut mm, mut lru) = setup();
        let anon = alloc(&mut mm, 0, PageType::HeapAnon);
        let file = alloc(&mut mm, 1, PageType::PageCache);
        lru.insert_inactive(&mut mm, anon);
        lru.insert_inactive(&mut mm, file);
        let got = lru.shrink_inactive(&mut mm, MemKind::Fast, 1);
        assert_eq!(got, vec![file]);
        let got = lru.shrink_inactive(&mut mm, MemKind::Fast, 5);
        assert_eq!(got, vec![anon]);
        assert_eq!(lru.listed_on(MemKind::Fast), 0);
    }

    #[test]
    fn balance_enforces_active_ratio() {
        let (mut mm, mut lru) = setup();
        for i in 0..10 {
            let g = alloc(&mut mm, i, PageType::HeapAnon);
            lru.insert_active(&mut mm, g);
        }
        let demoted = lru.balance(&mut mm, MemKind::Fast, 0.5);
        assert_eq!(demoted, 5);
        let s = lru.split(MemKind::Fast, LruClass::Anon);
        assert_eq!((s.active.len(), s.inactive.len()), (5, 5));
        // Already balanced: no further demotion.
        assert_eq!(lru.balance(&mut mm, MemKind::Fast, 0.5), 0);
    }

    #[test]
    fn remove_clears_active_flag() {
        let (mut mm, mut lru) = setup();
        let g = alloc(&mut mm, 0, PageType::HeapAnon);
        lru.insert_active(&mut mm, g);
        lru.remove(&mut mm, g);
        let flags = mm.page(g).flags;
        assert!(!flags.contains(PageFlags::LRU));
        assert!(!flags.contains(PageFlags::ACTIVE));
    }

    #[test]
    fn transition_counters_track_lifecycle() {
        let (mut mm, mut lru) = setup();
        let g = alloc(&mut mm, 0, PageType::HeapAnon);
        lru.insert_active(&mut mm, g);
        lru.deactivate(&mut mm, g);
        lru.activate(&mut mm, g);
        lru.deactivate(&mut mm, g);
        let reclaimed = lru.shrink_inactive(&mut mm, MemKind::Fast, 1);
        assert_eq!(reclaimed.len(), 1);
        let t = *lru.transitions();
        assert_eq!(t.insert_active, 1);
        assert_eq!(t.activations, 1);
        assert_eq!(t.deactivations, 2);
        assert_eq!(t.reclaimed, 1);
        // No-op transitions (already active) are not counted.
        let g2 = alloc(&mut mm, 1, PageType::HeapAnon);
        lru.insert_active(&mut mm, g2);
        lru.activate(&mut mm, g2);
        assert_eq!(lru.transitions().activations, 1);
    }

    #[test]
    fn lru_class_mapping_matches_paper() {
        assert_eq!(LruClass::of(PageType::HeapAnon), Some(LruClass::Anon));
        assert_eq!(LruClass::of(PageType::Slab), Some(LruClass::File));
        assert_eq!(LruClass::of(PageType::NetBuf), Some(LruClass::File));
        assert_eq!(LruClass::of(PageType::Dma), None);
    }
}
