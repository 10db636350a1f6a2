//! The guest kernel facade: ties the memmap, buddy allocators, per-CPU
//! lists, LRUs, page table, page cache and slab caches into the
//! heterogeneity-aware memory manager of §3.
//!
//! The kernel provides **mechanism** — tier-targeted allocation with
//! fallback, migration with validity checks, eager LRU transitions, balloon
//! inflation. **Policy** (which tier a page type should prefer, when to
//! migrate) lives in `hetero-core`, which drives this API.

use std::cell::Cell;
use std::fmt;

use hetero_mem::kind::KindMap;
use hetero_mem::MemKind;
use hetero_sim::snap::SnapshotError;

use crate::buddy::BuddyAllocator;
use crate::lru::LruRegistry;
use crate::memmap::MemMap;
use crate::page::{Gfn, Page, PageFlags, PageType, RMap};
use crate::pagecache::{FileId, PageCache};
use crate::pagetable::PageTable;
use crate::pcp::PerCpuLists;
use crate::slab::SlabCache;
use crate::stats::AllocStats;
use crate::swap::{SwapEntry, SwapMap};
use crate::vma::{AddressSpace, Vma, VmaKind};

/// Guest kernel configuration.
#[derive(Debug, Clone)]
pub struct GuestConfig {
    /// Per-tier guest frame reservation, e.g.
    /// `[(MemKind::Fast, 131072), (MemKind::Slow, 1048576)]`.
    pub frames: Vec<(MemKind, u64)>,
    /// Number of vCPUs (sizes the per-CPU lists).
    pub cpus: usize,
    /// Page size in bytes (used by the slab layer).
    pub page_size: u64,
}

impl Default for GuestConfig {
    fn default() -> Self {
        GuestConfig {
            frames: vec![(MemKind::Fast, 4096), (MemKind::Slow, 32768)],
            cpus: 4,
            page_size: 4096,
        }
    }
}

/// Error returned when no tier in the preference list can provide a page.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AllocFailed {
    /// The page type that was requested.
    pub page_type: PageType,
}

impl fmt::Display for AllocFailed {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "no tier could provide a {} page", self.page_type)
    }
}

impl std::error::Error for AllocFailed {}

/// Why a migration was refused (the §4.1 validity checks).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MigrateError {
    /// Page is not allocated.
    NotPresent,
    /// Page type is pinned (page table / DMA).
    NotMigratable,
    /// Page is marked for deletion (unmap in progress).
    MarkedForReclaim,
    /// Dirty short-lived I/O page — migrating it only wastes bandwidth.
    DirtyIo,
    /// Target tier has no free page.
    TargetFull,
    /// Page already lives on the target tier.
    AlreadyThere,
    /// Transient failure (injected fault or hardware hiccup) — retryable.
    Transient,
}

impl fmt::Display for MigrateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            MigrateError::NotPresent => "page is not present",
            MigrateError::NotMigratable => "page type is pinned",
            MigrateError::MarkedForReclaim => "page is marked for reclaim",
            MigrateError::DirtyIo => "dirty short-lived I/O page",
            MigrateError::TargetFull => "target tier is full",
            MigrateError::AlreadyThere => "page already on target tier",
            MigrateError::Transient => "transient migration failure (retryable)",
        };
        f.write_str(s)
    }
}

impl std::error::Error for MigrateError {}

/// Kernel slab classes the workloads exercise.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlabClass {
    /// Network buffers (`skbuff`) — [`PageType::NetBuf`] pages.
    Skbuff,
    /// Filesystem metadata (dentries/inodes) — [`PageType::Slab`] pages.
    FsMeta,
}

impl SlabClass {
    /// The type of the class's slab pages.
    fn page_type(self) -> PageType {
        match self {
            SlabClass::Skbuff => PageType::NetBuf,
            SlabClass::FsMeta => PageType::Slab,
        }
    }
}

/// A miss among a page-in run's probes.
const NO_FRAME: Gfn = Gfn(u64::MAX);

thread_local! {
    /// Scratch frames the run paths reuse from call to call. It holds
    /// nothing between calls, so one buffer serves every kernel on a
    /// thread, and a fleet of kernels keeps no run-sized buffer each.
    static RUN_FRAMES: Cell<Vec<Gfn>> = const { Cell::new(Vec::new()) };
}

/// The heterogeneity-aware guest kernel.
///
/// # Examples
///
/// ```
/// use hetero_guest::kernel::{GuestConfig, GuestKernel};
/// use hetero_guest::page::PageType;
/// use hetero_mem::MemKind;
///
/// let mut kernel = GuestKernel::new(GuestConfig::default());
/// let (gfn, kind) = kernel.alloc_page(
///     PageType::HeapAnon, 200, &[MemKind::Fast, MemKind::Slow])?;
/// assert_eq!(kind, MemKind::Fast);
/// kernel.free_page(gfn);
/// # Ok::<(), hetero_guest::kernel::AllocFailed>(())
/// ```
#[derive(Debug)]
pub struct GuestKernel {
    config: GuestConfig,
    mm: MemMap,
    buddies: KindMap<Option<BuddyAllocator>>,
    pcp: PerCpuLists,
    lru: LruRegistry,
    space: AddressSpace,
    pt: PageTable,
    cache: PageCache,
    skbuff: SlabCache,
    fs_meta: SlabCache,
    stats: AllocStats,
    swap: SwapMap,
    ballooned: KindMap<Vec<Gfn>>,
    pt_backing: Vec<Gfn>,
    next_cpu: usize,
    /// Completed page migrations (promotions + demotions).
    pub migrations: u64,
}

impl GuestKernel {
    /// Boots a guest kernel: initialises one NUMA node (memmap range +
    /// buddy allocator) per configured tier (§3.1 "extends the boot
    /// allocator to initialize one NUMA node … for each memory type").
    ///
    /// # Panics
    ///
    /// Panics on an empty tier list or zero CPUs.
    pub fn new(config: GuestConfig) -> Self {
        let mm = MemMap::new(&config.frames);
        let buddies = KindMap::from_fn(|k| {
            let r = mm.range(k);
            if r.is_empty() {
                None
            } else {
                Some(BuddyAllocator::new(r.start, r.end - r.start))
            }
        });
        let page_size = config.page_size as u32;
        GuestKernel {
            pcp: PerCpuLists::new(config.cpus),
            lru: LruRegistry::new(),
            space: AddressSpace::new(crate::pagetable::VPN_LIMIT),
            pt: PageTable::new(),
            cache: PageCache::new(),
            skbuff: SlabCache::new("skbuff", 512, page_size),
            fs_meta: SlabCache::new("fs-meta", 256, page_size),
            stats: AllocStats::new(),
            swap: SwapMap::new(),
            ballooned: KindMap::default(),
            pt_backing: Vec::new(),
            next_cpu: 0,
            migrations: 0,
            mm,
            buddies,
            config,
        }
    }

    /// The configuration the kernel booted with.
    pub fn config(&self) -> &GuestConfig {
        &self.config
    }

    /// Shared view of the memmap (residency/heat accounting).
    pub fn memmap(&self) -> &MemMap {
        &self.mm
    }

    /// Arms the memmap's cold-active ledger with the LRU aging threshold,
    /// switching [`GuestKernel::age_lru`] from its dense candidate walk to
    /// the O(1)-gated lazy path. Call at boot, before the first
    /// allocation; unconfigured kernels keep the legacy dense behaviour.
    pub fn configure_cold_ledger(&mut self, threshold: u8) {
        self.mm.configure_cold_ledger(threshold);
    }

    /// Cold-active pages currently on `kind` (zero when the ledger is
    /// unconfigured — callers gate on
    /// [`MemMap::cold_ledger`]`().is_configured()`).
    pub fn cold_active(&self, kind: MemKind) -> u64 {
        self.mm.cold_active(kind)
    }

    /// Advances the cold ledger's hotness generation (one cooling pass).
    pub fn bump_cold_generation(&mut self) {
        self.mm.cold_ledger_mut().bump_generation();
    }

    /// Shared view of the LRU registry.
    pub fn lru(&self) -> &LruRegistry {
        &self.lru
    }

    /// Shared view of the address space.
    pub fn address_space(&self) -> &AddressSpace {
        &self.space
    }

    /// Shared view of the page table.
    pub fn page_table(&self) -> &PageTable {
        &self.pt
    }

    /// One A/D-tracking pass over the VPNs `[start, end)` in a single
    /// bounded page-table walk (`PageTable::visit_mapped`). For each
    /// mapped PTE, in ascending VPN order, `touch` sees the backing page
    /// and returns `Some(write)` when the CPU touched it since the last
    /// pass (setting the access bit, and the dirty bit for a write) or
    /// `None`; then the PTE's `(gfn, accessed, dirty)` is appended to
    /// `harvest` and both bits are reset (`Pte::harvest`). Returns the
    /// number of PTEs visited: hardware sets the bits for free, and the
    /// cost model charges the harvest per PTE.
    pub fn touch_and_harvest(
        &mut self,
        start: u64,
        end: u64,
        mut touch: impl FnMut(&Page) -> Option<bool>,
        harvest: &mut Vec<(Gfn, bool, bool)>,
    ) -> u64 {
        let mm = &self.mm;
        self.pt.visit_mapped(start, end, |_, pte| {
            if let Some(write) = touch(mm.page(pte.gfn)) {
                pte.touch(write);
            }
            let (accessed, dirty) = pte.harvest();
            harvest.push((pte.gfn, accessed, dirty));
        })
    }

    /// Allocation statistics (demand-prioritization input).
    pub fn stats(&self) -> &AllocStats {
        &self.stats
    }

    /// Shared view of the page-cache index (invariant-audit input).
    pub fn page_cache(&self) -> &PageCache {
        &self.cache
    }

    /// Shared view of the swap map (invariant-audit input).
    pub fn swap_map(&self) -> &SwapMap {
        &self.swap
    }

    /// Shared view of one slab cache (invariant-audit input).
    pub fn slab_cache(&self, class: SlabClass) -> &SlabCache {
        match class {
            SlabClass::Skbuff => &self.skbuff,
            SlabClass::FsMeta => &self.fs_meta,
        }
    }

    /// Rolls the statistics window (call once per prioritization period).
    pub fn roll_stats_window(&mut self) {
        self.stats.roll_window();
    }

    /// Free frames on a tier (buddy + per-CPU caches).
    pub fn free_frames(&self, kind: MemKind) -> u64 {
        let buddy = self.buddies[kind]
            .as_ref()
            .map_or(0, BuddyAllocator::free_frames);
        buddy + self.pcp.cached_total(kind) as u64
    }

    /// Total frames reserved on a tier (including ballooned-out ones).
    pub fn total_frames(&self, kind: MemKind) -> u64 {
        let r = self.mm.range(kind);
        r.end - r.start
    }

    /// Fraction of a tier's frames that are free, `0.0` for absent tiers.
    pub fn free_fraction(&self, kind: MemKind) -> f64 {
        let total = self.total_frames(kind);
        if total == 0 {
            0.0
        } else {
            self.free_frames(kind) as f64 / total as f64
        }
    }

    fn next_cpu(&mut self) -> usize {
        let cpu = self.next_cpu;
        self.next_cpu = (self.next_cpu + 1) % self.pcp.cpus();
        cpu
    }

    /// First frame available along a preference chain, with the tier it
    /// came from — the allocation half of [`GuestKernel::alloc_page`].
    #[inline]
    fn raw_alloc_chain(&mut self, preference: &[MemKind]) -> Option<(Gfn, MemKind)> {
        preference
            .iter()
            .find_map(|&kind| self.raw_alloc(kind).map(|gfn| (gfn, kind)))
    }

    fn raw_alloc(&mut self, kind: MemKind) -> Option<Gfn> {
        let cpu = self.next_cpu();
        let buddy = self.buddies[kind].as_mut()?;
        self.pcp.alloc_draining(cpu, kind, buddy)
    }

    /// Takes up to `n` frames along a preference chain, appending them to
    /// `out`, exactly as `n` [`GuestKernel::raw_alloc_chain`] calls would
    /// (the same frames in the same order, `next_cpu`, refills and per-CPU
    /// hits), stopping after the first call that fails, whose steps are
    /// taken. Returns the frames taken.
    ///
    /// Nothing frees during a run, so a tier that fails stays exhausted,
    /// and the run is one phase per chain entry. In phase `j` every call
    /// first fails on entries `0..j`: each steps `next_cpu` once and, if
    /// configured, counts the two refills of the empty-tier answer. So
    /// entry `j` serves every `(j + 1)`-th CPU, one
    /// [`PerCpuLists::alloc_round_robin`] with that stride. The run reads
    /// no descriptor, LRU list, page-cache entry or statistic, so a caller
    /// may write those for the run's frames afterwards, in frame order.
    fn raw_alloc_run(&mut self, chain: &[MemKind], n: u64, out: &mut Vec<Gfn>) -> u64 {
        let cpus = self.pcp.cpus();
        // Refills counted by the failing entries each call passes first.
        let (mut got, mut skip_refills) = (0, 0);
        for (j, &kind) in chain.iter().enumerate() {
            if got == n {
                break;
            }
            let Some(buddy) = self.buddies[kind].as_mut() else {
                // The pending call steps past the unconfigured tier.
                self.next_cpu = (self.next_cpu + 1) % cpus;
                continue;
            };
            // `next_cpu` is entry `j`'s CPU for the pending call; each
            // take leaves the cursor `j + 1` CPUs on.
            let (want, mut cursor) = (n - got, self.next_cpu);
            let taken = self
                .pcp
                .alloc_round_robin(kind, want, j + 1, &mut cursor, buddy, out);
            got += taken;
            // Every take but the first passed the earlier entries first.
            let takes = taken + u64::from(taken < want);
            self.pcp.refills += skip_refills * (takes - 1);
            self.next_cpu = (cursor + cpus - j % cpus) % cpus;
            skip_refills += 2;
        }
        got
    }

    /// Accounts `failed` requests of `page_type` along `chain` that find
    /// no frame, the first of them a run's last call, which failed and
    /// took its steps. That failure left every configured tier of the
    /// chain exhausted, and nothing in between frees a frame, so each of
    /// the other `failed - 1` calls would only advance `next_cpu` once per
    /// chain entry and count two refills per configured entry (the
    /// empty-tier answer). Each of the `failed` requests records a miss.
    fn record_failed_allocs(&mut self, page_type: PageType, chain: &[MemKind], failed: u64) {
        let k = failed - 1;
        let steps = self.next_cpu as u64 + chain.len() as u64 * k;
        self.next_cpu = (steps % self.pcp.cpus() as u64) as usize;
        let configured = chain
            .iter()
            .filter(|&&kind| self.buddies[kind].is_some())
            .count();
        self.pcp.refills += 2 * k * configured as u64;
        let wanted_fast = chain.first() == Some(&MemKind::Fast);
        self.stats.record_run(page_type, wanted_fast, 0, failed);
    }

    fn raw_free(&mut self, gfn: Gfn) {
        let kind = self.mm.kind_of(gfn);
        let cpu = self.next_cpu();
        let buddy = self.buddies[kind]
            .as_mut()
            .expect("page belongs to a configured tier");
        self.pcp.free(cpu, kind, gfn, buddy);
    }

    /// Allocates one page of `page_type` with the given workload heat,
    /// trying tiers in `preference` order. Records hit/miss statistics
    /// against the first preference and links the page on the appropriate
    /// LRU (active for anonymous pages, inactive for file/I-O pages, as in
    /// Linux).
    ///
    /// # Errors
    ///
    /// Returns [`AllocFailed`] when every preferred tier is exhausted.
    ///
    /// # Panics
    ///
    /// Panics if `preference` is empty.
    pub fn alloc_page(
        &mut self,
        page_type: PageType,
        heat: u8,
        preference: &[MemKind],
    ) -> Result<(Gfn, MemKind), AllocFailed> {
        assert!(!preference.is_empty(), "preference list must be non-empty");
        let wanted_fast = preference[0] == MemKind::Fast;
        for &kind in preference {
            if let Some(gfn) = self.raw_alloc(kind) {
                self.mm.set_allocated(gfn, page_type, heat);
                match crate::lru::LruClass::of(page_type) {
                    Some(crate::lru::LruClass::Anon) => self.lru.insert_active(&mut self.mm, gfn),
                    // Slab/netbuf pages hold live kernel objects from the
                    // moment they are carved — they start active. Plain
                    // file pages start inactive (Linux semantics) and are
                    // activated by their I/O.
                    Some(crate::lru::LruClass::File)
                        if matches!(page_type, PageType::Slab | PageType::NetBuf) =>
                    {
                        self.lru.insert_active(&mut self.mm, gfn)
                    }
                    Some(crate::lru::LruClass::File) => self.lru.insert_inactive(&mut self.mm, gfn),
                    None => {}
                }
                self.stats
                    .record(page_type, wanted_fast, kind == MemKind::Fast);
                return Ok((gfn, kind));
            }
        }
        self.stats.record(page_type, wanted_fast, false);
        Err(AllocFailed { page_type })
    }

    /// Frees one page: unlinks it from the LRU and its reverse mapping
    /// (page table entry or page-cache slot) and returns it to the
    /// allocator.
    ///
    /// # Panics
    ///
    /// Panics if the page is not allocated.
    pub fn free_page(&mut self, gfn: Gfn) {
        match self.mm.rmap(gfn) {
            RMap::Anon(vpn) => {
                self.pt.unmap(vpn);
            }
            RMap::File(file, off) => {
                self.cache.remove(FileId(file), off);
            }
            RMap::None => {}
        }
        self.release_frame(gfn);
    }

    /// [`GuestKernel::free_page`] once the reverse mapping is gone: off
    /// the LRU, descriptor freed, frame back to the allocator.
    fn release_frame(&mut self, gfn: Gfn) {
        self.lru.remove(&mut self.mm, gfn);
        self.mm.set_free(gfn);
        self.raw_free(gfn);
    }

    // ---------------------------------------------------------------- heap

    /// Maps a heap region of `pages` pages, allocating and mapping each page
    /// with the given per-page heat (provided by the workload model).
    /// Returns the VMA and how many pages landed on each tier.
    ///
    /// # Errors
    ///
    /// Returns [`AllocFailed`] if virtual space or every tier is exhausted;
    /// partially allocated pages are rolled back.
    pub fn mmap_heap(
        &mut self,
        pages: u64,
        heats: impl IntoIterator<Item = u8>,
        preference: &[MemKind],
    ) -> Result<(Vma, KindMap<u64>), AllocFailed> {
        let mut gfns = Vec::new();
        self.mmap_heap_collect(pages, heats, preference, &mut gfns)
    }

    /// As [`GuestKernel::mmap_heap`], additionally depositing the backing
    /// frames into `out` in VPN order (`out[i]` backs `vma.start + i`).
    ///
    /// This is the engine's hot allocation path: handing the frames back
    /// lets the caller assign write heats without re-walking the page
    /// table, and batching the whole range through
    /// [`PageTable::map_range`] descends each leaf table once per 512-page
    /// block instead of once per page. End state is identical to the
    /// historical per-page `alloc_page` and `map` loop: the frames come
    /// from one run along the chain (`raw_alloc_run`), then one pass
    /// writes their descriptors and LRU links.
    ///
    /// A map larger than its chain's free frames is *doomed*: the per-page
    /// loop took every free frame, failed, and freed them again. That
    /// round trip leaves the descriptors, LRU lists and page table as they
    /// were, except that each frame keeps the heap type
    /// ([`MemMap::set_free`] keeps a frame's type), and moves the
    /// transition and allocation counts and the per-CPU lists and buddies.
    /// A doomed map applies only those: the run takes the frames and frees
    /// them in the same order, with no descriptor written but the type.
    ///
    /// # Errors
    ///
    /// Returns [`AllocFailed`] if virtual space or every tier is
    /// exhausted; partially allocated pages are rolled back and `out` is
    /// left empty.
    pub fn mmap_heap_collect(
        &mut self,
        pages: u64,
        heats: impl IntoIterator<Item = u8>,
        preference: &[MemKind],
        out: &mut Vec<Gfn>,
    ) -> Result<(Vma, KindMap<u64>), AllocFailed> {
        let vma = self
            .space
            .mmap(pages, VmaKind::Anon, None)
            .map_err(|_| AllocFailed {
                page_type: PageType::HeapAnon,
            })?;
        out.clear();
        if pages > 0 {
            assert!(!preference.is_empty(), "preference list must be non-empty");
        }
        let wanted_fast = preference.first() == Some(&MemKind::Fast);
        // A run takes every free frame of the chain before a call fails,
        // so a short run is a doomed map.
        let taken = self.raw_alloc_run(preference, pages, out);
        if taken < pages {
            let mut fast = 0;
            for &gfn in out.iter() {
                let kind = self.mm.set_free_type(gfn, PageType::HeapAnon);
                fast += u64::from(kind == MemKind::Fast);
                self.raw_free(gfn);
            }
            self.lru.note_fresh_inserts(true, taken);
            self.lru.note_removals(taken);
            self.stats
                .record_run(PageType::HeapAnon, wanted_fast, fast, taken);
            self.stats.record(PageType::HeapAnon, wanted_fast, false);
            out.clear();
            self.space.munmap(vma.start, vma.pages);
            return Err(AllocFailed {
                page_type: PageType::HeapAnon,
            });
        }
        // Each descriptor is written in one borrow (state-equivalent to
        // `alloc_page`'s active insert plus an rmap store), and the LRU
        // transitions and allocation statistics are tallied once.
        let mut placed = KindMap::default();
        let mut heats = heats.into_iter();
        for (vpn, &gfn) in (vma.start..).zip(out.iter()) {
            let heat = heats.next().unwrap_or(0);
            let kind = self.mm.kind_of(gfn);
            let list = self
                .lru
                .fresh_list_mut(kind, crate::lru::LruClass::Anon, true);
            let next = list.peek_front();
            self.mm.set_allocated_linked(
                gfn,
                PageType::HeapAnon,
                heat,
                true,
                next,
                RMap::Anon(vpn),
            );
            list.push_front_prelinked(&mut self.mm, gfn);
            placed[kind] += 1;
        }
        self.lru.note_fresh_inserts(true, pages);
        self.stats.record_run(
            PageType::HeapAnon,
            wanted_fast,
            placed[MemKind::Fast],
            pages,
        );
        self.pt.map_range(vma.start, out);
        self.sync_pagetable_pages(preference);
        Ok((vma, placed))
    }

    /// Unmaps `[vpn, vpn + pages)`: pages in the range are marked for
    /// reclaim and freed. Returns the number of pages released.
    ///
    /// One bounded page-table walk removes the range's PTEs
    /// ([`PageTable::unmap_range`]); their frames are then freed in VPN
    /// order, as one [`GuestKernel::free_page`] per mapped VPN would.
    pub fn munmap(&mut self, vpn: u64, pages: u64) -> u64 {
        let removed = self.space.munmap(vpn, pages);
        let mut gfns = Vec::with_capacity(removed.min(self.pt.mapped_pages()) as usize);
        let mm = &self.mm;
        self.pt
            .unmap_range(vpn, vpn.saturating_add(pages), |v, pte| {
                debug_assert_eq!(mm.rmap(pte.gfn), RMap::Anon(v), "{} maps {v:#x}", pte.gfn);
                gfns.push(pte.gfn);
            });
        let mut freed = gfns.len() as u64;
        for gfn in gfns {
            self.mm.page_mut(gfn).flags.insert(PageFlags::RECLAIM);
            self.release_frame(gfn);
        }
        // Swapped-out pages in the range die with the mapping — their swap
        // slots are discarded without I/O.
        freed += self.swap.discard_range(vpn, pages);
        debug_assert!(
            freed <= removed,
            "freed {freed} pages from an unmap that removed {removed}"
        );
        freed
    }

    // ------------------------------------------------------------ page I/O

    /// Brings one file page into the page cache (or touches it if cached).
    /// Returns the page and whether it was a cache hit.
    ///
    /// # Errors
    ///
    /// Returns [`AllocFailed`] on a miss when every tier is exhausted.
    pub fn page_in(
        &mut self,
        file: FileId,
        offset_page: u64,
        heat: u8,
        preference: &[MemKind],
    ) -> Result<(Gfn, bool), AllocFailed> {
        if let Some(gfn) = self.cache.lookup(file, offset_page) {
            self.lru.activate(&mut self.mm, gfn);
            return Ok((gfn, true));
        }
        let gfn =
            self.file_page_in_fresh(PageType::PageCache, file, offset_page, heat, preference)?;
        Ok((gfn, false))
    }

    /// Fused miss path shared by [`GuestKernel::page_in`] and
    /// [`GuestKernel::buffer_page_in`]: allocates the frame and writes its
    /// descriptor (present, active, LRU-linked, file rmap) in one borrow,
    /// then indexes it in the page cache. State-equivalent to
    /// [`GuestKernel::alloc_page`] (inactive insert, Linux semantics for
    /// file pages) followed by an rmap store, a cache insert and
    /// [`LruRegistry::activate`] — a page being filled is hot by
    /// definition (`mark_page_accessed`); it drops to inactive when its
    /// I/O completes (§3.3). Both the inactive-insert and the activation
    /// are tallied, exactly as the unfused sequence would.
    fn file_page_in_fresh(
        &mut self,
        page_type: PageType,
        file: FileId,
        offset_page: u64,
        heat: u8,
        preference: &[MemKind],
    ) -> Result<Gfn, AllocFailed> {
        assert!(!preference.is_empty(), "preference list must be non-empty");
        let wanted_fast = preference[0] == MemKind::Fast;
        let Some((gfn, kind)) = self.raw_alloc_chain(preference) else {
            self.stats.record(page_type, wanted_fast, false);
            return Err(AllocFailed { page_type });
        };
        self.fill_file_page(page_type, file, offset_page, heat, gfn);
        self.lru.note_fresh_faulted(1);
        self.stats
            .record(page_type, wanted_fast, kind == MemKind::Fast);
        Ok(gfn)
    }

    /// Writes a fresh file page's descriptor (present, active, LRU-linked,
    /// file rmap) in one borrow and indexes the page in the page cache.
    /// Returns the page's tier.
    fn fill_file_page(
        &mut self,
        page_type: PageType,
        file: FileId,
        offset_page: u64,
        heat: u8,
        gfn: Gfn,
    ) -> MemKind {
        let kind = self.mm.kind_of(gfn);
        let list = self
            .lru
            .fresh_list_mut(kind, crate::lru::LruClass::File, true);
        let next = list.peek_front();
        self.mm.set_allocated_linked(
            gfn,
            page_type,
            heat,
            true,
            next,
            RMap::File(file.0, offset_page),
        );
        list.push_front_prelinked(&mut self.mm, gfn);
        self.cache.insert(file, offset_page, gfn);
        kind
    }

    /// Brings one buffer-cache block in under a `(file, offset)` identity so
    /// callers can address it stably across migrations (mirrors
    /// [`GuestKernel::page_in`] for [`PageType::BufferCache`]).
    ///
    /// # Errors
    ///
    /// Returns [`AllocFailed`] on a miss when every tier is exhausted.
    pub fn buffer_page_in(
        &mut self,
        file: FileId,
        offset_page: u64,
        heat: u8,
        preference: &[MemKind],
    ) -> Result<(Gfn, bool), AllocFailed> {
        if let Some(gfn) = self.cache.lookup(file, offset_page) {
            self.lru.activate(&mut self.mm, gfn);
            return Ok((gfn, true));
        }
        let gfn =
            self.file_page_in_fresh(PageType::BufferCache, file, offset_page, heat, preference)?;
        Ok((gfn, false))
    }

    /// Faults `count` consecutive file offsets starting at `first_offset`
    /// into the page cache — the bulk entry point for streaming reads.
    /// State-equivalent to calling [`GuestKernel::page_in`] once per offset
    /// (same placements, statistics and cache-probe counts). Returns how
    /// many offsets ended cached: every hit, and the misses up to the first
    /// that found every tier of the chain exhausted, after which every
    /// miss fails.
    pub fn page_in_many(
        &mut self,
        file: FileId,
        first_offset: u64,
        count: u64,
        heat: u8,
        preference: &[MemKind],
    ) -> u64 {
        self.file_pages_in(
            PageType::PageCache,
            file,
            first_offset,
            count,
            heat,
            preference,
        )
    }

    /// As [`GuestKernel::page_in_many`], for buffer-cache blocks (mirrors
    /// [`GuestKernel::buffer_page_in`]).
    pub fn buffer_page_in_many(
        &mut self,
        file: FileId,
        first_offset: u64,
        count: u64,
        heat: u8,
        preference: &[MemKind],
    ) -> u64 {
        self.file_pages_in(
            PageType::BufferCache,
            file,
            first_offset,
            count,
            heat,
            preference,
        )
    }

    /// The run behind [`GuestKernel::page_in_many`] and
    /// [`GuestKernel::buffer_page_in_many`]. Each offset is probed once, in
    /// order; then the misses' frames come from one run along the chain;
    /// then the offsets are applied in order: a hit is activated, a miss
    /// gets its descriptor, LRU link and cache entry. Hits and misses join
    /// the same active lists, so their interleaving is kept. The misses the
    /// run could not serve fail as `record_failed_allocs` accounts them.
    fn file_pages_in(
        &mut self,
        page_type: PageType,
        file: FileId,
        first: u64,
        count: u64,
        heat: u8,
        chain: &[MemKind],
    ) -> u64 {
        let mut buf = RUN_FRAMES.take();
        buf.clear();
        let lookup = |off| self.cache.lookup(file, off).unwrap_or(NO_FRAME);
        buf.extend((first..first + count).map(lookup));
        let misses = buf.iter().filter(|&&g| g == NO_FRAME).count() as u64;
        if misses > 0 {
            assert!(!chain.is_empty(), "preference list must be non-empty");
        }
        let got = self.raw_alloc_run(chain, misses, &mut buf);
        let (probes, frames) = buf.split_at(count as usize);
        let mut frames = frames.iter();
        let mut fast = 0;
        for (off, &probe) in (first..).zip(probes) {
            if probe != NO_FRAME {
                self.lru.activate(&mut self.mm, probe);
            } else if let Some(&gfn) = frames.next() {
                let kind = self.fill_file_page(page_type, file, off, heat, gfn);
                fast += u64::from(kind == MemKind::Fast);
            }
        }
        let wanted_fast = chain.first() == Some(&MemKind::Fast);
        self.lru.note_fresh_faulted(got);
        self.stats.record_run(page_type, wanted_fast, fast, got);
        if got < misses {
            self.record_failed_allocs(page_type, chain, misses - got);
        }
        RUN_FRAMES.set(buf);
        count - misses + got
    }

    /// Drops a batch of cached pages by identity — the bulk release entry
    /// point (lazy-reclaim storms, forced reclaim). Equivalent to one
    /// [`GuestKernel::drop_cache_page`] per offset, in order. Returns how
    /// many pages were actually freed.
    pub fn drop_cache_pages(
        &mut self,
        file: FileId,
        offsets: impl IntoIterator<Item = u64>,
    ) -> u64 {
        let mut freed = 0u64;
        for off in offsets {
            if self.drop_cache_page(file, off) {
                freed += 1;
            }
        }
        freed
    }

    /// Looks up a cached page by identity without allocating on a miss.
    /// Counts as a cache probe in the hit/miss statistics.
    pub fn cached_page(&mut self, file: FileId, offset_page: u64) -> Option<Gfn> {
        self.cache.lookup(file, offset_page)
    }

    /// Drops one cached page by identity (cache shrink / short-lived I/O
    /// page release). Returns `true` when a page was freed.
    pub fn drop_cache_page(&mut self, file: FileId, offset_page: u64) -> bool {
        match self.cache.remove(file, offset_page) {
            Some(gfn) => {
                self.mm.set_rmap(gfn, RMap::None);
                self.free_page(gfn);
                true
            }
            None => false,
        }
    }

    /// Marks an I/O page's request complete: the page is cleaned and
    /// *eagerly deactivated* — HeteroOS-LRU's §3.3 rule that released I/O
    /// pages become immediate eviction candidates.
    pub fn io_complete(&mut self, gfn: Gfn) {
        let p = self.mm.page_mut(gfn);
        p.flags.remove(PageFlags::DIRTY);
        self.lru.deactivate(&mut self.mm, gfn);
    }

    /// Marks a page dirty (buffered write).
    pub fn mark_dirty(&mut self, gfn: Gfn) {
        self.mm.page_mut(gfn).flags.insert(PageFlags::DIRTY);
    }

    // --------------------------------------------------------------- slabs

    /// Allocates one kernel object, growing the slab with a page of the
    /// right type when needed. Returns the backing page.
    ///
    /// # Errors
    ///
    /// Returns [`AllocFailed`] when a fresh slab page was needed but every
    /// tier is exhausted.
    pub fn slab_alloc(
        &mut self,
        class: SlabClass,
        heat: u8,
        preference: &[MemKind],
    ) -> Result<Gfn, AllocFailed> {
        // Try without a new page first.
        if let Some(gfn) = self.slab_mut(class).alloc_object(|| None) {
            return Ok(gfn);
        }
        let (new_page, _) = self.alloc_page(class.page_type(), heat, preference)?;
        let gfn = self
            .slab_mut(class)
            .alloc_object(|| Some(new_page))
            .expect("fresh page provided");
        debug_assert_eq!(gfn, new_page);
        Ok(gfn)
    }

    /// Frees one object of a class without naming its page (round-trip
    /// request buffers). Returns `false` when the class holds no objects.
    pub fn slab_free_any(&mut self, class: SlabClass) -> bool {
        match self.slab_mut(class).free_any_object() {
            Some(Some(empty)) => {
                self.free_page(empty);
                true
            }
            Some(None) => true,
            None => false,
        }
    }

    /// Allocates `n` kernel objects of one class in bulk — state-equivalent
    /// to `n` [`GuestKernel::slab_alloc`] calls with the same arguments
    /// (same pages carved in the same order, same allocation statistics,
    /// same failure behaviour). Returns the number of objects obtained.
    ///
    /// Partial slabs are carved a whole chunk per map operation. Once they
    /// are used up, each fresh page takes `objects_per_page` objects (the
    /// last one what is left), so the remaining `rest` objects need
    /// `ceil(rest / objects_per_page)` fresh pages, which come from one run
    /// along the chain (`raw_alloc_run`). When the run comes up short, each
    /// object left without a page fails to get one, as
    /// `record_failed_allocs` accounts.
    pub fn slab_alloc_bulk(
        &mut self,
        class: SlabClass,
        n: u64,
        heat: u8,
        preference: &[MemKind],
    ) -> u64 {
        let cache = self.slab_mut(class);
        let carved = cache.alloc_from_partial(n);
        if carved == n {
            return n;
        }
        let (rest, per_page) = (n - carved, u64::from(cache.objects_per_page()));
        assert!(!preference.is_empty(), "preference list must be non-empty");
        let page_type = class.page_type();
        let mut pages = RUN_FRAMES.take();
        pages.clear();
        let got = self.raw_alloc_run(preference, rest.div_ceil(per_page), &mut pages);
        let mut fast = 0;
        for &gfn in &pages {
            self.mm.set_allocated(gfn, page_type, heat);
            // Slab and netbuf pages hold live objects: they start active.
            self.lru.insert_active(&mut self.mm, gfn);
            fast += u64::from(self.mm.kind_of(gfn) == MemKind::Fast);
        }
        let wanted_fast = preference[0] == MemKind::Fast;
        self.stats.record_run(page_type, wanted_fast, fast, got);
        let grown = rest.min(got * per_page);
        self.slab_mut(class).grow(&pages, grown);
        RUN_FRAMES.set(pages);
        if grown < rest {
            self.record_failed_allocs(page_type, preference, rest - grown);
        }
        carved + grown
    }

    /// Frees up to `n` objects of a class in bulk — state-equivalent to
    /// calling [`GuestKernel::slab_free_any`] until it returns `false` or
    /// `n` objects are freed, releasing emptied slab pages at the same
    /// points in the sequence. Returns the number of objects freed.
    pub fn slab_free_bulk(&mut self, class: SlabClass, n: u64) -> u64 {
        let mut done = 0u64;
        while done < n {
            let Some((freed, emptied)) = self.slab_mut(class).free_any_chunk(n - done) else {
                break;
            };
            done += freed;
            if let Some(page) = emptied {
                self.free_page(page);
            }
        }
        done
    }

    fn slab_mut(&mut self, class: SlabClass) -> &mut SlabCache {
        match class {
            SlabClass::Skbuff => &mut self.skbuff,
            SlabClass::FsMeta => &mut self.fs_meta,
        }
    }

    /// Live objects in a slab class.
    pub fn slab_objects(&self, class: SlabClass) -> u64 {
        match class {
            SlabClass::Skbuff => self.skbuff.objects(),
            SlabClass::FsMeta => self.fs_meta.objects(),
        }
    }

    // ---------------------------------------------------------- page table

    /// Reconciles the number of [`PageType::PageTable`] backing pages with
    /// the radix tree's actual table count. Called after map/unmap bursts.
    pub fn sync_pagetable_pages(&mut self, preference: &[MemKind]) {
        let needed = self.pt.table_pages();
        while (self.pt_backing.len() as u64) < needed {
            match self.alloc_page(PageType::PageTable, 0, preference) {
                Ok((gfn, _)) => self.pt_backing.push(gfn),
                Err(_) => break, // accounting best-effort under pressure
            }
        }
        while (self.pt_backing.len() as u64) > needed {
            let gfn = self.pt_backing.pop().expect("len checked");
            self.free_page(gfn);
        }
    }

    // ----------------------------------------------------------- migration

    /// §4.1 validity checks, without performing the migration.
    ///
    /// # Errors
    ///
    /// Returns the [`MigrateError`] the migration would fail with.
    pub fn can_migrate(&self, gfn: Gfn, target: MemKind) -> Result<(), MigrateError> {
        let p = self.mm.page(gfn);
        if !p.is_present() {
            return Err(MigrateError::NotPresent);
        }
        if !p.page_type.is_migratable() {
            return Err(MigrateError::NotMigratable);
        }
        if p.flags.contains(PageFlags::RECLAIM) {
            return Err(MigrateError::MarkedForReclaim);
        }
        if p.page_type.is_io() && p.flags.contains(PageFlags::DIRTY) {
            return Err(MigrateError::DirtyIo);
        }
        if p.kind == target {
            return Err(MigrateError::AlreadyThere);
        }
        Ok(())
    }

    /// Migrates a page to `target`: allocates a destination page, copies
    /// state (type, heat, dirty bit, rmap), rewires the page table or page
    /// cache, preserves LRU activity, and frees the source. Returns the new
    /// page.
    ///
    /// # Errors
    ///
    /// Returns a [`MigrateError`] when a validity check fails or the target
    /// tier has no free page.
    pub fn migrate_page(&mut self, gfn: Gfn, target: MemKind) -> Result<Gfn, MigrateError> {
        self.can_migrate(gfn, target)?;
        let new = self.raw_alloc(target).ok_or(MigrateError::TargetFull)?;
        let rmap = self.mm.rmap(gfn);
        let (page_type, heat, write_heat, was_active, was_dirty) = {
            let p = self.mm.page(gfn);
            (
                p.page_type,
                p.heat,
                p.write_heat,
                p.flags.contains(PageFlags::ACTIVE),
                p.flags.contains(PageFlags::DIRTY),
            )
        };
        self.mm.set_allocated(new, page_type, heat);
        if write_heat > 0 {
            self.mm.set_write_heat(new, write_heat);
        }
        if was_dirty {
            self.mm.page_mut(new).flags.insert(PageFlags::DIRTY);
        }
        self.mm.set_rmap(new, rmap);
        match rmap {
            RMap::Anon(vpn) => {
                self.pt.remap(vpn, new);
            }
            RMap::File(file, off) => {
                self.cache.insert(FileId(file), off, new);
            }
            RMap::None => {}
        }
        if was_active {
            self.lru.insert_active(&mut self.mm, new);
        } else {
            self.lru.insert_inactive(&mut self.mm, new);
        }
        // Slab caches key their bookkeeping by backing page: rehome it.
        match page_type {
            PageType::NetBuf if self.skbuff.owns(gfn) => self.skbuff.rehome(gfn, new),
            PageType::Slab if self.fs_meta.owns(gfn) => self.fs_meta.rehome(gfn, new),
            _ => {}
        }
        // Free the old page without touching the (already rewired) rmap.
        self.lru.remove(&mut self.mm, gfn);
        self.mm.set_rmap(gfn, RMap::None);
        self.mm.set_free(gfn);
        self.raw_free(gfn);
        self.migrations += 1;
        Ok(new)
    }

    /// Migration as the guest-transparent VMM performs it (HeteroVisor
    /// baseline): **without** the application-state validity checks the
    /// guest could do. Pages marked for deletion and dirty short-lived I/O
    /// pages are moved anyway — paying full cost for no benefit (§4.1
    /// explains why this pollutes FastMem). Only physical impossibilities
    /// (absent page, pinned type, full target) still fail.
    ///
    /// # Errors
    ///
    /// Returns [`MigrateError::NotPresent`], [`MigrateError::NotMigratable`],
    /// [`MigrateError::AlreadyThere`] or [`MigrateError::TargetFull`].
    pub fn migrate_page_forced(&mut self, gfn: Gfn, target: MemKind) -> Result<Gfn, MigrateError> {
        match self.can_migrate(gfn, target) {
            Ok(()) | Err(MigrateError::MarkedForReclaim) | Err(MigrateError::DirtyIo) => {}
            Err(e) => return Err(e),
        }
        // Temporarily clear the states the VMM cannot see, migrate, restore.
        let (had_reclaim, had_dirty) = {
            let p = self.mm.page_mut(gfn);
            let r = p.flags.contains(PageFlags::RECLAIM);
            let d = p.flags.contains(PageFlags::DIRTY);
            p.flags.remove(PageFlags::RECLAIM);
            p.flags.remove(PageFlags::DIRTY);
            (r, d)
        };
        match self.migrate_page(gfn, target) {
            Ok(new) => {
                let p = self.mm.page_mut(new);
                p.flags.set(PageFlags::RECLAIM, had_reclaim);
                p.flags.set(PageFlags::DIRTY, had_dirty);
                Ok(new)
            }
            Err(e) => {
                let p = self.mm.page_mut(gfn);
                p.flags.set(PageFlags::RECLAIM, had_reclaim);
                p.flags.set(PageFlags::DIRTY, had_dirty);
                Err(e)
            }
        }
    }

    /// Demotes up to `n` inactive pages off `from` to the next slower
    /// configured tier, preferring file pages. Returns pages moved.
    pub fn demote_inactive(&mut self, from: MemKind, n: u64) -> u64 {
        self.demote_inactive_with(from, n, false)
    }

    /// Multi-level variant of [`GuestKernel::demote_inactive`] implementing
    /// the §4.3 page-type-specific demotion policy: anonymous pages step
    /// down **one level at a time** (they have high reuse and may come
    /// back), while released I/O pages drop **straight to the slowest
    /// tier** (they are mostly dead after the I/O completes). On a
    /// two-tier machine both rules coincide with plain demotion.
    pub fn demote_inactive_typed(&mut self, from: MemKind, n: u64) -> u64 {
        self.demote_inactive_with(from, n, true)
    }

    fn demote_inactive_with(&mut self, from: MemKind, n: u64, typed: bool) -> u64 {
        let Some(next) = self.next_slower_configured(from) else {
            return 0;
        };
        let slowest = self.slowest_configured();
        let victims = self.lru.shrink_inactive(&mut self.mm, from, n);
        let mut moved = 0;
        for gfn in victims {
            let target = if typed && self.mm.page(gfn).page_type.is_io() {
                slowest
            } else {
                next
            };
            // shrink removed them from the LRU; migrate re-links on target.
            // Re-link first so migrate_page's LRU bookkeeping stays uniform.
            self.lru.insert_inactive(&mut self.mm, gfn);
            match self.migrate_page(gfn, target) {
                Ok(_) => moved += 1,
                Err(MigrateError::DirtyIo) => {
                    // Leave dirty I/O pages; writeback will clean them.
                }
                Err(MigrateError::TargetFull) => break,
                Err(_) => {}
            }
        }
        moved
    }

    /// The slowest configured tier.
    fn slowest_configured(&self) -> MemKind {
        [MemKind::Slow, MemKind::Medium, MemKind::Fast]
            .into_iter()
            .find(|&k| self.buddies[k].is_some())
            .expect("at least one tier is configured")
    }

    fn next_slower_configured(&self, from: MemKind) -> Option<MemKind> {
        let mut k = from;
        while let Some(slower) = k.next_slower() {
            if self.buddies[slower].is_some() {
                return Some(slower);
            }
            k = slower;
        }
        None
    }

    // ------------------------------------------------------------- balloon

    /// Updates a present page's workload heat, keeping the memmap's heat
    /// accounting in sync.
    ///
    /// # Panics
    ///
    /// Panics if the page is not allocated.
    pub fn set_page_heat(&mut self, gfn: Gfn, heat: u8) {
        self.mm.set_heat(gfn, heat);
    }

    /// Updates a present page's workload *write* heat (§4.3 extension),
    /// keeping the memmap's accounting in sync.
    ///
    /// # Panics
    ///
    /// Panics if the page is not allocated.
    pub fn set_page_write_heat(&mut self, gfn: Gfn, write_heat: u8) {
        self.mm.set_write_heat(gfn, write_heat);
    }

    /// Shrinks a tier's caches: drops up to `n` clean, inactive file-class
    /// pages (page cache, buffer cache), skipping dirty pages — the
    /// kswapd/direct-reclaim primitive. Returns pages freed.
    pub fn shrink_caches(&mut self, kind: MemKind, n: u64) -> u64 {
        let victims = self.lru_candidates(kind, (n * 4) as usize, |p| {
            p.page_type.is_io()
                && !p.flags.contains(PageFlags::ACTIVE)
                && !p.flags.contains(PageFlags::DIRTY)
        });
        let mut freed = 0;
        for gfn in victims {
            if freed >= n {
                break;
            }
            self.free_page(gfn);
            freed += 1;
        }
        freed
    }

    /// Moves a page to its tier's inactive list (LRU aging). No-op when
    /// unlisted or already inactive.
    pub fn deactivate_page(&mut self, gfn: Gfn) {
        self.lru.deactivate(&mut self.mm, gfn);
    }

    /// Moves a page to its tier's active list (re-reference). No-op when
    /// unlisted or already active.
    pub fn activate_page(&mut self, gfn: Gfn) {
        self.lru.activate(&mut self.mm, gfn);
    }

    /// One pass of HeteroOS-LRU's active monitoring (§3.3): walks up to
    /// `batch` pages of a tier's LRU and deactivates those whose heat falls
    /// below `cold_heat` (the workload stopped using them). Returns pages
    /// deactivated.
    pub fn age_lru(&mut self, kind: MemKind, batch: usize, cold_heat: u8) -> u64 {
        // Lazy-aging fast path (DESIGN.md §13): when the cold-active ledger
        // is armed with exactly this threshold, its count answers the walk's
        // question up front. Zero cold-active pages proves the dense
        // candidate walk would deactivate nothing, and a non-zero count
        // bounds the walk — every match sits on an active list (the aging
        // predicate requires `ACTIVE`, which inactive-list pages never
        // carry), so the walk may stop after `min(batch, count)` matches.
        let victims = match self.mm.cold_ledger().threshold() {
            Some(t) if t == cold_heat => {
                let cold = self.mm.cold_active(kind);
                if cold == 0 {
                    return 0;
                }
                self.cold_active_candidates(kind, batch.min(cold as usize), cold_heat)
            }
            // Unconfigured or differently-configured ledger: legacy dense
            // walk over all four lists.
            _ => self.lru_candidates(kind, batch, |p| {
                p.heat < cold_heat && p.flags.contains(PageFlags::ACTIVE)
            }),
        };
        let n = victims.len() as u64;
        for gfn in victims {
            self.lru.deactivate(&mut self.mm, gfn);
        }
        n
    }

    /// First `limit` active-list pages of a tier with heat below
    /// `cold_heat`, in the exact order [`GuestKernel::lru_candidates`]
    /// yields them (anonymous class before file class; inactive lists
    /// cannot match the aging predicate and are skipped).
    fn cold_active_candidates(&self, kind: MemKind, limit: usize, cold_heat: u8) -> Vec<Gfn> {
        let mut out = Vec::with_capacity(limit);
        for class in [crate::lru::LruClass::Anon, crate::lru::LruClass::File] {
            for gfn in self.lru.split(kind, class).active.iter(&self.mm) {
                if out.len() >= limit {
                    return out;
                }
                if self.mm.page(gfn).heat < cold_heat {
                    out.push(gfn);
                }
            }
        }
        out
    }

    /// Balloon inflation: pulls `n` free pages of a tier out of the guest
    /// allocator (to be returned to the VMM). Returns the number actually
    /// reclaimed — pressure may leave fewer free.
    ///
    /// Exactly `n` page allocations, the last failing if the tier runs
    /// dry: one round-robin pass over the per-CPU lists
    /// (`PerCpuLists::alloc_round_robin`), then one pass marking the
    /// pages' descriptors pinned and ballooned.
    pub fn balloon_inflate(&mut self, kind: MemKind, n: u64) -> u64 {
        let Some(buddy) = self.buddies[kind].as_mut() else {
            // The first attempt takes its CPU, then finds no tier.
            if n > 0 {
                self.next_cpu();
            }
            return 0;
        };
        let out = &mut self.ballooned[kind];
        let from = out.len();
        let got = self
            .pcp
            .alloc_round_robin(kind, n, 1, &mut self.next_cpu, buddy, out);
        for &gfn in &out[from..] {
            self.mm.set_allocated(gfn, PageType::Dma, 0); // pinned, unlisted
            self.mm.page_mut(gfn).flags.insert(PageFlags::BALLOONED);
        }
        got
    }

    /// Balloon deflation: returns up to `n` ballooned pages of a tier to
    /// the allocator, the most recently ballooned first. Returns the
    /// number released.
    ///
    /// One pass frees the pages' descriptors, then one round-robin pass
    /// hands the pages to the per-CPU lists
    /// (`PerCpuLists::free_round_robin`).
    ///
    /// # Panics
    ///
    /// Panics if a ballooned page is not allocated (a page's descriptor
    /// and the allocator are independent, so the order of the passes
    /// leaves the state of page-at-a-time frees).
    pub fn balloon_deflate(&mut self, kind: MemKind, n: u64) -> u64 {
        let held = &mut self.ballooned[kind];
        let freed = n.min(held.len() as u64);
        if freed == 0 {
            return 0;
        }
        let from = held.len() - freed as usize;
        for &gfn in &held[from..] {
            self.mm.set_free(gfn); // clears BALLOONED with every other flag
        }
        let buddy = self.buddies[kind]
            .as_mut()
            .expect("ballooned pages belong to a configured tier");
        self.pcp
            .free_round_robin(kind, held.drain(from..).rev(), &mut self.next_cpu, buddy);
        freed
    }

    /// Pages currently ballooned out of a tier.
    pub fn ballooned_pages(&self, kind: MemKind) -> u64 {
        self.ballooned[kind].len() as u64
    }

    // ---------------------------------------------------------------- swap

    /// Swaps an anonymous page out: remembers its workload state under its
    /// VPN, unmaps it and frees the frame. Returns `false` (and does
    /// nothing) for pages that are not swappable anonymous mappings.
    pub fn swap_out(&mut self, gfn: Gfn) -> bool {
        let page = *self.mm.page(gfn);
        if !page.is_present() || page.page_type != PageType::HeapAnon {
            return false;
        }
        let RMap::Anon(vpn) = self.mm.rmap(gfn) else {
            return false;
        };
        if self.swap.contains(vpn) {
            return false;
        }
        self.swap.insert(
            vpn,
            SwapEntry {
                heat: page.heat,
                write_heat: page.write_heat,
            },
        );
        self.free_page(gfn); // unmaps the PTE via the reverse map
        true
    }

    /// Swaps one page back in at its original VPN, restoring its workload
    /// state. Returns the new frame, or `None` when the VPN is not on swap
    /// or no tier in `preference` has room.
    pub fn swap_in(&mut self, vpn: u64, preference: &[MemKind]) -> Option<Gfn> {
        let entry = self.swap.remove(vpn)?;
        match self.alloc_page(PageType::HeapAnon, entry.heat, preference) {
            Ok((gfn, _)) => {
                self.pt.map(vpn, gfn);
                self.mm.set_rmap(gfn, RMap::Anon(vpn));
                if entry.write_heat > 0 {
                    self.mm.set_write_heat(gfn, entry.write_heat);
                }
                self.swap.count_swap_in();
                Some(gfn)
            }
            Err(_) => {
                // No room: the slot stays on swap.
                self.swap.insert(vpn, entry);
                None
            }
        }
    }

    /// Swaps in up to `n` pages (balloon deflation fault-ahead). Returns
    /// pages brought back.
    pub fn swap_in_any(&mut self, n: u64, preference: &[MemKind]) -> u64 {
        let mut brought = 0;
        for _ in 0..n {
            let Some(vpn) = self.swap.any_vpn() else {
                break;
            };
            if self.swap_in(vpn, preference).is_none() {
                break;
            }
            brought += 1;
        }
        brought
    }

    /// Pages currently on swap.
    pub fn swapped_pages(&self) -> u64 {
        self.swap.len()
    }

    /// Sum of the remembered heat of swapped pages (fault-model input).
    pub fn swapped_heat(&self) -> u64 {
        self.swap.total_heat()
    }

    /// Samples the kernel's cumulative subsystem statistics into a
    /// telemetry registry under the `guest.*` namespace.
    ///
    /// Sources are already cumulative, so values are written with
    /// `counter_set` — sampling every epoch is idempotent. Purely
    /// observational: never touches kernel state.
    pub fn export_telemetry(&self, reg: &mut hetero_sim::telemetry::Registry) {
        let (mut requests, mut fast_misses) = (0u64, 0u64);
        for t in PageType::ALL {
            let c = self.stats.cumulative(t);
            requests += c.requests;
            fast_misses += c.fast_misses();
        }
        reg.counter_set("guest.alloc.requests", requests);
        reg.counter_set("guest.alloc.fast_misses", fast_misses);
        reg.counter_set("guest.pcp.fast_path_hits", self.pcp.fast_path_hits);
        reg.counter_set("guest.pcp.refills", self.pcp.refills);
        let lt = self.lru.transitions();
        reg.counter_set("guest.lru.insert_active", lt.insert_active);
        reg.counter_set("guest.lru.insert_inactive", lt.insert_inactive);
        reg.counter_set("guest.lru.removals", lt.removals);
        reg.counter_set("guest.lru.activations", lt.activations);
        reg.counter_set("guest.lru.deactivations", lt.deactivations);
        reg.counter_set("guest.lru.reclaimed", lt.reclaimed);
        for slab in [&self.skbuff, &self.fs_meta] {
            let prefix = format!("guest.slab.{}", slab.name());
            reg.counter_set(&format!("{prefix}.allocs"), slab.total_allocs());
            reg.counter_set(&format!("{prefix}.frees"), slab.total_frees());
            reg.counter_set(&format!("{prefix}.objects"), slab.objects());
            reg.counter_set(&format!("{prefix}.pages"), slab.pages());
        }
        reg.counter_set("guest.migrations", self.migrations);
        reg.counter_set("guest.swap.pages", self.swapped_pages());
        for (kind, label) in [(MemKind::Fast, "fast"), (MemKind::Slow, "slow")] {
            if self.total_frames(kind) > 0 {
                reg.gauge_set(
                    &format!("guest.free_fraction.{label}"),
                    self.free_fraction(kind),
                );
            }
        }
    }

    // ---------------------------------------------------------- inspection

    /// Batched scan of resident pages across the whole guest-frame space,
    /// as a VMM walking its per-VM reverse map would see them. Starts at
    /// `cursor`, visits at most `limit` *frames* (present or not), appends
    /// the present ones to a caller-owned buffer (per-scan scratch reuse)
    /// and returns the wrapped-around next cursor.
    pub fn scan_resident_into(&self, cursor: u64, limit: u64, out: &mut Vec<Gfn>) -> u64 {
        let total = self.mm.total_frames();
        if total == 0 || limit == 0 {
            return cursor;
        }
        let mut pos = cursor % total;
        for _ in 0..limit.min(total) {
            let gfn = Gfn(pos);
            if self.mm.page(gfn).is_present() {
                out.push(gfn);
            }
            pos = (pos + 1) % total;
        }
        pos
    }

    /// Up to `limit` swap-out candidates of a tier: the pages of its
    /// anonymous LRU lists, active list first, in list order. Only heap
    /// pages go on those lists ([`crate::lru::LruClass::of`]), and every
    /// heap page on the LRU is on them, so no list of file pages is walked.
    pub fn anon_lru_pages(&self, kind: MemKind, limit: usize) -> Vec<Gfn> {
        let split = self.lru.split(kind, crate::lru::LruClass::Anon);
        split
            .active
            .iter(&self.mm)
            .chain(split.inactive.iter(&self.mm))
            .take(limit)
            .collect()
    }

    /// Collects up to `limit` migration candidates from a tier's LRU lists
    /// (active first — hot pages worth promoting), filtering by predicate.
    pub fn lru_candidates(
        &self,
        kind: MemKind,
        limit: usize,
        mut keep: impl FnMut(&crate::page::Page) -> bool,
    ) -> Vec<Gfn> {
        let mut out = Vec::new();
        for class in [crate::lru::LruClass::Anon, crate::lru::LruClass::File] {
            let split = self.lru.split(kind, class);
            for list in [&split.active, &split.inactive] {
                for gfn in list.iter(&self.mm) {
                    if out.len() >= limit {
                        return out;
                    }
                    if keep(self.mm.page(gfn)) {
                        out.push(gfn);
                    }
                }
            }
        }
        out
    }
}

hetero_sim::impl_snap!(struct GuestConfig { frames, cpus, page_size });

// Decode rejects LRU list ends and page-cache entries past the memmap,
// allocator state the page allocator trusts and slab caches the slab
// paths trust, which would otherwise restore and then panic on first use.
hetero_sim::impl_snap!(struct GuestKernel {
    config, mm, buddies, pcp, lru, space, pt, cache, skbuff, fs_meta,
    stats, swap, ballooned, pt_backing, next_cpu, migrations
} validate |k: &GuestKernel| {
    let frames = k.mm.total_frames();
    k.lru.check_frames(frames)?;
    k.cache.check_frames(frames)?;
    k.check_allocator()?;
    k.check_slabs()
});

impl GuestKernel {
    /// Decode check of the page allocator against the memmap: one per-CPU
    /// list per configured CPU and the round-robin cursor on one of them;
    /// per tier, a buddy allocator exactly over the tier's frames, and
    /// every per-CPU and ballooned page inside them.
    fn check_allocator(&self) -> Result<(), SnapshotError> {
        let cpus = self.pcp.cpus();
        if cpus == 0 || cpus != self.config.cpus {
            return Err(SnapshotError::corrupt(format!(
                "{cpus} per-CPU lists for {} configured CPUs",
                self.config.cpus
            )));
        }
        if self.next_cpu >= cpus {
            return Err(SnapshotError::corrupt(format!(
                "next CPU {} of {cpus}",
                self.next_cpu
            )));
        }
        for kind in MemKind::ALL {
            let range = self.mm.range(kind);
            let covers = match &self.buddies[kind] {
                None => range.is_empty(),
                Some(b) => b.base() == range.start && b.total_frames() == range.end - range.start,
            };
            if !covers {
                return Err(SnapshotError::corrupt(format!(
                    "the {kind} buddy allocator does not cover the tier's frames {range:?}"
                )));
            }
            self.pcp.check_frames(kind, &range)?;
            // Branch-free over the whole balloon, which can be most of a
            // tier; the page is looked up only to name it.
            let outside = |g: &Gfn| g.0.wrapping_sub(range.start) >= range.end - range.start;
            let held = &self.ballooned[kind];
            if held.iter().fold(false, |bad, g| bad | outside(g)) {
                let g = held.iter().find(|g| outside(g)).expect("a page is outside");
                return Err(SnapshotError::corrupt(format!(
                    "ballooned {kind} page {g} is outside the tier's frames {range:?}"
                )));
            }
        }
        Ok(())
    }

    /// Decode check of the slab caches: each cache's counts and pages
    /// (`SlabCache::check`), then each slab page owned by one cache only
    /// and a present frame of its class's page type.
    fn check_slabs(&self) -> Result<(), SnapshotError> {
        let frames = self.mm.total_frames();
        for class in [SlabClass::Skbuff, SlabClass::FsMeta] {
            self.slab_cache(class)
                .check(self.config.page_size as u32, frames)?;
        }
        let typed = |class: SlabClass, g: Gfn| {
            let (p, page_type) = (self.mm.page(g), class.page_type());
            if p.is_present() && p.page_type == page_type {
                return Ok(());
            }
            Err(SnapshotError::corrupt(format!(
                "{} slab page {g} is not a present {page_type} frame",
                self.slab_cache(class).name()
            )))
        };
        // Both caches list their pages in ascending order, so one merge of
        // the two visits each page once and finds a shared one.
        let mut skbuff = self.skbuff.backing_pages().peekable();
        for g in self.fs_meta.backing_pages() {
            while let Some(s) = skbuff.next_if(|&s| s < g) {
                typed(SlabClass::Skbuff, s)?;
            }
            if skbuff.peek() == Some(&g) {
                return Err(SnapshotError::corrupt(format!(
                    "slab page {g} is owned by both the skbuff and the fs-meta cache"
                )));
            }
            typed(SlabClass::FsMeta, g)?;
        }
        skbuff.try_for_each(|s| typed(SlabClass::Skbuff, s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetero_sim::snap::SnapshotError;

    fn small_kernel() -> GuestKernel {
        GuestKernel::new(GuestConfig {
            frames: vec![(MemKind::Fast, 64), (MemKind::Slow, 256)],
            cpus: 2,
            page_size: 4096,
        })
    }

    /// A kernel with heap pages on FastMem and cached file pages on
    /// SlowMem, and its encoding.
    fn kernel_bytes() -> (GuestKernel, Vec<u8>) {
        use hetero_sim::snap::{Snap, SnapWriter};
        let mut k = small_kernel();
        k.mmap_heap(8, std::iter::repeat(200), &[MemKind::Fast])
            .unwrap();
        for off in 0..4 {
            k.page_in(FileId(3), off, 50, &[MemKind::Slow]).unwrap();
        }
        let mut w = SnapWriter::new();
        k.snap(&mut w);
        (k, w.into_bytes())
    }

    /// Decodes `bytes` with the `u64` at `at` replaced by `value`.
    fn decode_with(bytes: &[u8], at: usize, value: u64) -> Result<GuestKernel, SnapshotError> {
        use hetero_sim::snap::{Snap, SnapReader};
        let mut mutant = bytes.to_vec();
        mutant[at..at + 8].copy_from_slice(&value.to_le_bytes());
        let mut r = SnapReader::new(&mutant);
        let k = GuestKernel::unsnap(&mut r)?;
        r.finish().map(|()| k)
    }

    #[test]
    fn decode_rejects_lru_ends_past_the_memmap() {
        use hetero_sim::snap::{Snap, SnapWriter};
        let (k, bytes) = kernel_bytes();
        let frames = k.memmap().total_frames();
        let mut w = SnapWriter::new();
        k.config.snap(&mut w);
        k.mm.snap(&mut w);
        k.buddies.snap(&mut w);
        k.pcp.snap(&mut w);
        let mut at = w.len();
        // Twelve lists of (head, tail, len); a present end is a 1 byte and
        // a u64 frame. Mutate the first present head and tail.
        let mut ends = Vec::new();
        for _list in 0..12 {
            for _end in 0..2 {
                if bytes[at] == 1 {
                    ends.push(at + 1);
                    at += 9;
                } else {
                    at += 1;
                }
            }
            at += 8;
        }
        assert!(ends.len() >= 2, "the heap pages sit on a list");
        for (end, name) in [(ends[0], "head"), (ends[1], "tail")] {
            decode_with(&bytes, end, frames - 1).expect("the last frame is in range");
            match decode_with(&bytes, end, frames) {
                Err(SnapshotError::Corrupt(msg)) => {
                    assert!(msg.contains(&format!("LRU list {name}")), "{msg}");
                    assert!(msg.contains("past the memmap's 320 frames"), "{msg}");
                }
                other => panic!("{name} past the memmap: {:?}", other.map(|_| ())),
            }
        }
    }

    #[test]
    fn decode_rejects_page_cache_frames_past_the_memmap() {
        use hetero_sim::snap::{Snap, SnapWriter};
        let (k, bytes) = kernel_bytes();
        let frames = k.memmap().total_frames();
        let mut w = SnapWriter::new();
        k.config.snap(&mut w);
        k.mm.snap(&mut w);
        k.buddies.snap(&mut w);
        k.pcp.snap(&mut w);
        k.lru.snap(&mut w);
        k.space.snap(&mut w);
        k.pt.snap(&mut w);
        let at = w.len();
        // One file: its count and id, then the slots' base, count and
        // first slot.
        let first_slot = at + 8 * 4;
        assert_eq!(bytes[at..at + 8], 1u64.to_le_bytes(), "one cached file");
        let cached = u64::from_le_bytes(bytes[first_slot..first_slot + 8].try_into().unwrap());
        assert_eq!(
            k.page_cache().iter().next(),
            Some((FileId(3), 0, Gfn(cached)))
        );
        decode_with(&bytes, first_slot, frames - 1).expect("the last frame is in range");
        match decode_with(&bytes, first_slot, frames) {
            Err(SnapshotError::Corrupt(msg)) => {
                assert!(msg.contains("(file 3, offset 0)"), "{msg}");
                assert!(msg.contains("past the memmap's 320 frames"), "{msg}");
            }
            other => panic!("cached frame past the memmap: {:?}", other.map(|_| ())),
        }
    }

    /// `kernel_bytes`' kernel after a FastMem balloon inflation, which
    /// leaves pages on its per-CPU lists, and its encoding.
    fn ballooned_kernel_bytes() -> (GuestKernel, Vec<u8>) {
        let (mut k, _) = kernel_bytes();
        assert_eq!(k.balloon_inflate(MemKind::Fast, 5), 5);
        let bytes = encoded(&k);
        (k, bytes)
    }

    fn encoded_len<T: hetero_sim::snap::Snap>(v: &T) -> usize {
        let mut w = hetero_sim::snap::SnapWriter::new();
        v.snap(&mut w);
        w.len()
    }

    fn read_u64(bytes: &[u8], at: usize) -> u64 {
        u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap())
    }

    fn decode(bytes: &[u8]) -> Result<GuestKernel, SnapshotError> {
        use hetero_sim::snap::{Snap, SnapReader};
        let mut r = SnapReader::new(bytes);
        let k = GuestKernel::unsnap(&mut r)?;
        r.finish().map(|()| k)
    }

    /// `bytes` with `remove` bytes at `at` replaced by `insert`.
    fn splice(bytes: &[u8], at: usize, remove: usize, insert: &[u8]) -> Vec<u8> {
        let mut out = bytes[..at].to_vec();
        out.extend_from_slice(insert);
        out.extend_from_slice(&bytes[at + remove..]);
        out
    }

    /// One mutant of the encoded kernel per allocator check made at
    /// decode, each with the message it must be rejected with.
    #[test]
    fn decode_rejects_allocator_state_the_page_allocator_trusts() {
        use hetero_sim::snap::{Snap, SnapWriter};
        let (k, bytes) = ballooned_kernel_bytes();
        assert_eq!(
            encoded(&decode(&bytes).expect("the unmutated bytes restore")),
            bytes
        );
        let mut w = SnapWriter::new();
        k.config.snap(&mut w);
        k.mm.snap(&mut w);
        // The FastMem buddy (64 frames, so one bitmap word per order)
        // follows its presence byte: base, frames, the order count, then
        // per order the word count, the word, `len` and `hint`, and last
        // `free_frames`.
        let fast = w.len() + 1;
        let order = |o: usize| fast + 24 + 32 * o;
        let fast_len = encoded_len(&k.buddies[MemKind::Fast]) - 1;
        assert_eq!(fast_len, 24 + 32 * 11 + 8);
        let slow = fast + fast_len + 2; // past Medium's absent byte
        let pcp = slow - 1 + encoded_len(&k.buddies[MemKind::Slow]);
        let cpus_at = encoded_len(&k.config.frames);
        let next_cpu_at = bytes.len() - 16;
        let ballooned_at = next_cpu_at - encoded_len(&k.pt_backing) - encoded_len(&k.ballooned);
        // The per-CPU lists, then the batch and high marks and the two
        // counters.
        let lists_len = encoded_len(&k.pcp) - 4 * 8;
        // The SlowMem buddy's lowest order holding a free block, for the
        // hint mutant: its word count, words, `len`, then `hint`.
        let mut slow_order = slow + 24;
        let held = loop {
            let words = read_u64(&bytes, slow_order) as usize;
            let len_at = slow_order + 8 + 8 * words;
            if read_u64(&bytes, len_at) > 0 {
                let first = (0..words)
                    .find(|&i| read_u64(&bytes, slow_order + 8 + 8 * i) != 0)
                    .unwrap();
                break (len_at + 8, first);
            }
            slow_order = len_at + 16;
        };
        assert_eq!(read_u64(&bytes, pcp), 2, "two per-CPU lists");
        assert!(read_u64(&bytes, pcp + 8) > 0, "CPU 0 caches FastMem pages");
        assert_eq!(
            read_u64(&bytes, ballooned_at),
            5,
            "five FastMem pages ballooned"
        );
        let set = |at: usize, v: u64| splice(&bytes, at, 8, &v.to_le_bytes());
        let medium = {
            let mut w = SnapWriter::new();
            Some(BuddyAllocator::new(320, 8)).snap(&mut w);
            w.into_bytes()
        };
        let mutants = [
            (
                splice(&set(fast + 16, 10), order(10), 32, &[]),
                "buddy allocator has 10 orders, not 11".to_string(),
            ),
            (
                splice(&set(order(3), 2), order(3) + 16, 0, &[0; 8]),
                "order 3 bitmap has 2 words, but 64 frames need 1".to_string(),
            ),
            (
                set(order(6) + 8, read_u64(&bytes, order(6) + 8) | 2),
                "order 6 bitmap frees a block past the allocator's 64 frames".to_string(),
            ),
            (
                set(order(0) + 16, read_u64(&bytes, order(0) + 16) + 1),
                "order 0 counts".to_string(),
            ),
            (
                set(
                    fast + fast_len - 8,
                    read_u64(&bytes, fast + fast_len - 8) + 1,
                ),
                "free frames, but its blocks hold".to_string(),
            ),
            (
                set(held.0, held.1 as u64 + 1),
                format!(
                    "scan hint {} is past its first free word {}",
                    held.1 + 1,
                    held.1
                ),
            ),
            (
                set(slow, read_u64(&bytes, slow) + 1),
                "the SlowMem buddy allocator does not cover the tier's frames 64..320".to_string(),
            ),
            (
                splice(&bytes, slow - 2, 1, &medium),
                "the MediumMem buddy allocator does not cover the tier's frames 0..0".to_string(),
            ),
            (
                set(cpus_at, 3),
                "2 per-CPU lists for 3 configured CPUs".to_string(),
            ),
            // The count matches, but the round-robin cursor would divide
            // by zero.
            (
                splice(&set(cpus_at, 0), pcp, lists_len, &0u64.to_le_bytes()),
                "0 per-CPU lists for 0 configured CPUs".to_string(),
            ),
            (set(next_cpu_at, 2), "next CPU 2 of 2".to_string()),
            (
                set(pcp + 16, 64),
                "CPU 0's FastMem list holds gfn:0x40, outside the tier's frames 0..64".to_string(),
            ),
            (
                set(ballooned_at + 8, 300),
                "ballooned FastMem page gfn:0x12c is outside the tier's frames 0..64".to_string(),
            ),
        ];
        for (mutant, want) in mutants {
            match decode(&mutant) {
                Err(SnapshotError::Corrupt(msg)) => assert!(msg.contains(&want), "{want}: {msg}"),
                other => panic!("{want}: {:?}", other.map(|_| ())),
            }
        }
    }

    /// One mutant of the encoded kernel per slab-cache check made at
    /// decode, each with the message it must be rejected with.
    #[test]
    fn decode_rejects_slab_caches_the_slab_paths_trust() {
        let mut k = small_kernel();
        let (vma, _) = k
            .mmap_heap(4, std::iter::repeat(9), &[MemKind::Fast])
            .unwrap();
        let heap_page = k.page_table().translate(vma.start).unwrap();
        assert_eq!(
            k.slab_alloc_bulk(SlabClass::Skbuff, 20, 9, &[MemKind::Slow]),
            20
        );
        assert_eq!(
            k.slab_alloc_bulk(SlabClass::FsMeta, 40, 9, &[MemKind::Slow]),
            40
        );
        assert_eq!(k.slab_free_bulk(SlabClass::FsMeta, 5), 5);
        let bytes = encoded(&k);
        assert_eq!(
            encoded(&decode(&bytes).expect("the unmutated bytes restore")),
            bytes
        );
        let skbuff = encoded_len(&k.config)
            + encoded_len(&k.mm)
            + encoded_len(&k.buddies)
            + encoded_len(&k.pcp)
            + encoded_len(&k.lru)
            + encoded_len(&k.space)
            + encoded_len(&k.pt)
            + encoded_len(&k.cache);
        // Per cache: its name (length and bytes), object size and objects
        // per page (`u32`s), the slab map (length, then per slab its page
        // and `u32` count), the object count and the two hint stacks.
        let fs = skbuff + encoded_len(&k.skbuff);
        let name = fs + 8 + "fs-meta".len();
        let (size_at, per_page_at, slab) = (name, name + 4, |i: usize| name + 16 + 12 * i);
        assert_eq!(read_u64(&bytes, name + 8), 3, "three fs-meta slabs");
        let objects_at = slab(3);
        let hint_at = objects_at + 16;
        assert_eq!(read_u64(&bytes, objects_at), 35);
        assert!(
            read_u64(&bytes, hint_at - 8) > 0,
            "fs-meta holds partial hints"
        );
        let skbuff_page = read_u64(&bytes, skbuff + 8 + "skbuff".len() + 16);
        let free_frame = (0..320)
            .find(|&g| !k.memmap().page(Gfn(g)).is_present())
            .unwrap();
        let set = |at: usize, v: u64| splice(&bytes, at, 8, &v.to_le_bytes());
        let set32 = |at: usize, v: u32| splice(&bytes, at, 4, &v.to_le_bytes());
        let first = Gfn(read_u64(&bytes, slab(0)));
        let mutants = [
            (
                set32(per_page_at, 17),
                "slab cache 'fs-meta' holds 17 objects of 256 B per 4096 B page".to_string(),
            ),
            (
                set32(size_at, 0),
                "slab cache 'fs-meta' holds 16 objects of 0 B per 4096 B page".to_string(),
            ),
            (
                set32(slab(0) + 8, 0),
                format!("slab cache 'fs-meta' page {first} holds 0 objects, outside 1..=16"),
            ),
            (
                set32(slab(0) + 8, 17),
                format!("slab cache 'fs-meta' page {first} holds 17 objects, outside 1..=16"),
            ),
            (
                set(objects_at, 36),
                "slab cache 'fs-meta' counts 36 objects, but its slabs hold 35".to_string(),
            ),
            (
                set(slab(2), 100_000),
                "slab cache 'fs-meta' names page gfn:0x186a0, past the memmap's 320 frames"
                    .to_string(),
            ),
            (
                set(hint_at, 100_000),
                "slab cache 'fs-meta' names page gfn:0x186a0, past the memmap's 320 frames"
                    .to_string(),
            ),
            (
                set(slab(0), free_frame),
                format!(
                    "fs-meta slab page {} is not a present slab frame",
                    Gfn(free_frame)
                ),
            ),
            (
                set(slab(0), heap_page.0),
                format!("fs-meta slab page {heap_page} is not a present slab frame"),
            ),
            (
                set(slab(0), skbuff_page),
                format!(
                    "slab page {} is owned by both the skbuff and the fs-meta cache",
                    Gfn(skbuff_page)
                ),
            ),
        ];
        for (mutant, want) in mutants {
            match decode(&mutant) {
                Err(SnapshotError::Corrupt(msg)) => assert!(msg.contains(&want), "{want}: {msg}"),
                other => panic!("{want}: {:?}", other.map(|_| ())),
            }
        }
    }

    /// One mutant of the encoded kernel per address-space check made at
    /// decode, each with the message it must be rejected with.
    #[test]
    fn decode_rejects_address_spaces_mmap_would_trip_on() {
        let mut k = small_kernel();
        for pages in [8, 3, 4] {
            k.mmap_heap(pages, std::iter::repeat(9), &[MemKind::Slow])
                .unwrap();
        }
        k.munmap(8, 3); // a hole between the first VMA and the last
        let bytes = encoded(&k);
        assert_eq!(
            encoded(&decode(&bytes).expect("the unmutated bytes restore")),
            bytes
        );
        // The VMA map's length, then per VMA its key, start, pages, kind
        // tag and absent hint; then the limit.
        let space = encoded_len(&k.config)
            + encoded_len(&k.mm)
            + encoded_len(&k.buddies)
            + encoded_len(&k.pcp)
            + encoded_len(&k.lru);
        assert_eq!(read_u64(&bytes, space), 2, "two VMAs");
        let vma = |i: usize| space + 8 + 26 * i;
        let limit_at = vma(2);
        let starts = (read_u64(&bytes, vma(0) + 8), read_u64(&bytes, vma(1) + 8));
        assert_eq!(starts, (0, 11));
        assert_eq!(read_u64(&bytes, limit_at), crate::pagetable::VPN_LIMIT);
        let set = |at: usize, v: u64| splice(&bytes, at, 8, &v.to_le_bytes());
        let limit = crate::pagetable::VPN_LIMIT;
        // The last VMA may end right at the limit.
        decode(&set(limit_at, 15)).expect("a VMA ending at the limit restores");
        let mutants = [
            (set(vma(1), 12), "VMA keyed 0xc starts at 0xb"),
            (set(vma(0) + 16, 0), "VMA at 0x0 has no pages"),
            (
                set(vma(1) + 16, u64::MAX),
                "VMA at 0xb of 18446744073709551615 pages ends past",
            ),
            (
                set(limit_at, 14),
                "VMA at 0xb of 4 pages ends past the limit 0xe",
            ),
            (
                set(vma(0) + 16, 12),
                "VMA at 0xb overlaps the one ending at 0xc",
            ),
            (
                set(limit_at, limit + 1),
                "address space limit 0x1000000001 is past VPN_LIMIT 0x1000000000",
            ),
        ];
        for (mutant, want) in mutants {
            match decode(&mutant) {
                Err(SnapshotError::Corrupt(msg)) => assert!(msg.contains(want), "{want}: {msg}"),
                other => panic!("{want}: {:?}", other.map(|_| ())),
            }
        }
    }

    #[test]
    fn alloc_respects_preference_order() {
        let mut k = small_kernel();
        let (_, kind) = k
            .alloc_page(PageType::HeapAnon, 10, &[MemKind::Fast, MemKind::Slow])
            .unwrap();
        assert_eq!(kind, MemKind::Fast);
        let (_, kind) = k
            .alloc_page(PageType::HeapAnon, 10, &[MemKind::Slow])
            .unwrap();
        assert_eq!(kind, MemKind::Slow);
    }

    #[test]
    fn alloc_falls_back_when_fast_exhausted() {
        let mut k = small_kernel();
        // Exhaust FastMem.
        while k
            .alloc_page(PageType::HeapAnon, 1, &[MemKind::Fast])
            .is_ok()
        {}
        let (_, kind) = k
            .alloc_page(PageType::HeapAnon, 1, &[MemKind::Fast, MemKind::Slow])
            .unwrap();
        assert_eq!(kind, MemKind::Slow);
        // Stats recorded the miss.
        assert!(k.stats().window(PageType::HeapAnon).fast_misses() >= 1);
    }

    #[test]
    fn alloc_failure_is_reported_and_counted() {
        let mut k = small_kernel();
        while k.alloc_page(PageType::Slab, 1, &[MemKind::Fast]).is_ok() {}
        let err = k
            .alloc_page(PageType::Slab, 1, &[MemKind::Fast])
            .unwrap_err();
        assert_eq!(err.page_type, PageType::Slab);
        assert!(err.to_string().contains("no tier"));
    }

    #[test]
    fn free_page_returns_capacity() {
        let mut k = small_kernel();
        let before = k.free_frames(MemKind::Fast);
        let (gfn, _) = k
            .alloc_page(PageType::HeapAnon, 5, &[MemKind::Fast])
            .unwrap();
        assert_eq!(k.free_frames(MemKind::Fast), before - 1);
        k.free_page(gfn);
        assert_eq!(k.free_frames(MemKind::Fast), before);
        assert_eq!(k.memmap().resident_on(MemKind::Fast), 0);
    }

    #[test]
    fn bulk_slab_and_page_in_paths_match_scalar_state() {
        let mut scalar = small_kernel();
        let mut bulk = small_kernel();
        let pref = [MemKind::Fast, MemKind::Slow];
        // Mixed object/IO traffic, including a free phase and a second
        // alloc phase that must carve the same recycled partial slabs.
        for round in 0..3 {
            let allocs = 40 + round * 17;
            for _ in 0..allocs {
                let _ = scalar.slab_alloc(SlabClass::FsMeta, 224, &pref);
                let _ = scalar.slab_alloc(SlabClass::Skbuff, 224, &pref);
            }
            assert_eq!(
                bulk.slab_alloc_bulk(SlabClass::FsMeta, allocs, 224, &pref),
                allocs
            );
            assert_eq!(
                bulk.slab_alloc_bulk(SlabClass::Skbuff, allocs, 224, &pref),
                allocs
            );
            let frees = 25 + round * 11;
            let mut got = 0;
            for _ in 0..frees {
                if scalar.slab_free_any(SlabClass::FsMeta) {
                    got += 1;
                }
            }
            assert_eq!(bulk.slab_free_bulk(SlabClass::FsMeta, frees), got);
            let base = round * 10;
            let mut ok = 0;
            for off in base..base + 10 {
                if scalar.page_in(FileId(3), off, 224, &pref).is_ok() {
                    ok += 1;
                }
            }
            assert_eq!(bulk.page_in_many(FileId(3), base, 10, 224, &pref), ok);
        }
        // Full observable state must match: placement, stats, residency.
        for kind in [MemKind::Fast, MemKind::Slow] {
            assert_eq!(scalar.free_frames(kind), bulk.free_frames(kind), "{kind}");
            assert_eq!(
                scalar.memmap().resident_on(kind),
                bulk.memmap().resident_on(kind),
                "{kind}"
            );
        }
        for class in [SlabClass::FsMeta, SlabClass::Skbuff] {
            assert_eq!(scalar.slab_objects(class), bulk.slab_objects(class));
        }
        assert_eq!(
            scalar.stats().overall_miss_ratio(),
            bulk.stats().overall_miss_ratio()
        );
        for t in [PageType::Slab, PageType::NetBuf, PageType::PageCache] {
            assert_eq!(
                scalar.memmap().resident_pages(t),
                bulk.memmap().resident_pages(t),
                "{t:?}"
            );
        }
    }

    #[test]
    fn bulk_slab_alloc_records_misses_on_exhaustion() {
        let mut scalar = GuestKernel::new(GuestConfig {
            frames: vec![(MemKind::Fast, 32)],
            cpus: 1,
            page_size: 4096,
        });
        let mut bulk = GuestKernel::new(GuestConfig {
            frames: vec![(MemKind::Fast, 32)],
            cpus: 1,
            page_size: 4096,
        });
        // Far more objects than 32 frames can back: both paths run into
        // exhaustion and must record identical allocation statistics.
        let n = 40 * 16;
        let mut ok = 0;
        for _ in 0..n {
            if scalar
                .slab_alloc(SlabClass::FsMeta, 224, &[MemKind::Fast])
                .is_ok()
            {
                ok += 1;
            }
        }
        assert_eq!(
            bulk.slab_alloc_bulk(SlabClass::FsMeta, n, 224, &[MemKind::Fast]),
            ok
        );
        assert!(ok < n, "exhaustion must actually occur");
        assert_eq!(encoded(&bulk), encoded(&scalar));
    }

    fn encoded(k: &GuestKernel) -> Vec<u8> {
        use hetero_sim::Snap;
        let mut w = hetero_sim::SnapWriter::new();
        k.snap(&mut w);
        w.into_bytes()
    }

    /// A Fast/Slow kernel (no Medium) whose tiers in `chain` were allocated
    /// until `chain` failed, after which the last `spare` pages were freed:
    /// they sit on per-CPU lists while the buddies stay empty.
    fn exhausted_kernel(cpus: usize, chain: &[MemKind], spare: usize) -> GuestKernel {
        let mut k = GuestKernel::new(GuestConfig {
            frames: vec![(MemKind::Fast, 48), (MemKind::Slow, 80)],
            cpus,
            page_size: 4096,
        });
        let mut held = Vec::new();
        while let Ok((gfn, _)) = k.alloc_page(PageType::HeapAnon, 7, chain) {
            held.push(gfn);
        }
        for gfn in held.into_iter().rev().take(spare) {
            k.free_page(gfn);
        }
        k
    }

    #[test]
    fn exhausted_tier_guard_leaves_the_bytes_of_the_slow_path() {
        let chain = [MemKind::Fast, MemKind::Slow];
        let kinds = [
            MemKind::Fast,
            MemKind::Medium,
            MemKind::Slow,
            MemKind::Slow,
            MemKind::Fast,
        ];
        for cpus in 1..=3 {
            for spare in [0, 2] {
                let mut guarded = exhausted_kernel(cpus, &chain, spare);
                let mut slow = exhausted_kernel(cpus, &chain, spare);
                for kind in kinds {
                    let got = guarded.raw_alloc(kind);
                    // `raw_alloc` without the guard: refill, drain, refill.
                    let cpu = slow.next_cpu();
                    let want = match slow.buddies[kind].as_mut() {
                        None => None,
                        Some(buddy) => match slow.pcp.alloc(cpu, kind, buddy) {
                            Some(gfn) => Some(gfn),
                            None => {
                                slow.pcp.drain_kind(kind, buddy);
                                slow.pcp.alloc(cpu, kind, buddy)
                            }
                        },
                    };
                    let at = format!("{cpus} cpus, {spare} spare, {kind}");
                    assert_eq!(got, want, "{at}");
                    assert_eq!(encoded(&guarded), encoded(&slow), "{at}");
                }
            }
        }
    }

    #[test]
    fn bulk_slab_alloc_on_an_exhausted_chain_matches_per_object_calls() {
        let chains: [&[MemKind]; 3] = [
            &[MemKind::Fast, MemKind::Slow],
            &[MemKind::Slow],
            &[MemKind::Fast, MemKind::Medium, MemKind::Slow],
        ];
        for cpus in 1..=3 {
            for chain in chains {
                for spare in [0, 2] {
                    for n in [1, 2, 7, 100] {
                        for class in [SlabClass::FsMeta, SlabClass::Skbuff] {
                            let mut scalar = exhausted_kernel(cpus, chain, spare);
                            let mut bulk = exhausted_kernel(cpus, chain, spare);
                            let ok = (0..n)
                                .filter(|_| scalar.slab_alloc(class, 224, chain).is_ok())
                                .count() as u64;
                            assert_eq!(bulk.slab_alloc_bulk(class, n, 224, chain), ok);
                            assert_eq!(
                                encoded(&bulk),
                                encoded(&scalar),
                                "{cpus} cpus, {chain:?}, {spare} spare, n {n}, {class:?}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn mmap_heap_maps_and_accounts() {
        let mut k = small_kernel();
        let heats = vec![200u8; 16];
        let (vma, placed) = k
            .mmap_heap(16, heats, &[MemKind::Fast, MemKind::Slow])
            .unwrap();
        assert_eq!(placed[MemKind::Fast], 16);
        assert_eq!(k.page_table().mapped_pages(), 16);
        assert_eq!(k.memmap().resident_pages(PageType::HeapAnon), 16);
        // Page-table backing pages were accounted too.
        assert!(k.memmap().resident_pages(PageType::PageTable) > 0);
        let freed = k.munmap(vma.start, vma.pages);
        assert_eq!(freed, 16);
        assert_eq!(k.memmap().resident_pages(PageType::HeapAnon), 0);
        assert_eq!(k.page_table().mapped_pages(), 0);
    }

    #[test]
    fn touch_and_harvest_touches_then_harvests_each_mapped_pte() {
        let mut k = small_kernel();
        let (vma, _) = k
            .mmap_heap(8, (0..8).map(|i| i * 30), &[MemKind::Fast])
            .unwrap();
        // Pages at heat >= 90 are touched, those at >= 180 by a write.
        let mut harvest = Vec::new();
        let visited = k.touch_and_harvest(
            vma.start,
            vma.end(),
            |p| (p.heat >= 90).then_some(p.heat >= 180),
            &mut harvest,
        );
        assert_eq!(visited, 8);
        let want: Vec<_> = (0..8u8)
            .map(|i| {
                let gfn = k.page_table().translate(vma.start + u64::from(i)).unwrap();
                (gfn, i * 30 >= 90, i * 30 >= 180)
            })
            .collect();
        assert_eq!(harvest, want);
        // Both bits were reset, so an untouched pass harvests them clear.
        let mut again = Vec::new();
        k.touch_and_harvest(vma.start, vma.end(), |_| None, &mut again);
        assert!(again.iter().all(|&(_, a, d)| !a && !d), "{again:?}");
    }

    #[test]
    fn mmap_heap_rolls_back_on_exhaustion() {
        let mut k = GuestKernel::new(GuestConfig {
            frames: vec![(MemKind::Fast, 32)],
            cpus: 1,
            page_size: 4096,
        });
        let resident_before = k.memmap().resident_on(MemKind::Fast);
        let err = k.mmap_heap(100, std::iter::repeat(1), &[MemKind::Fast]);
        assert!(err.is_err());
        assert_eq!(k.memmap().resident_on(MemKind::Fast), resident_before);
        assert_eq!(k.address_space().mapped_pages(), 0);
    }

    #[test]
    fn page_in_caches_and_hits() {
        let mut k = small_kernel();
        let f = FileId(1);
        let (gfn, hit) = k.page_in(f, 0, 50, &[MemKind::Fast]).unwrap();
        assert!(!hit);
        let (gfn2, hit2) = k.page_in(f, 0, 50, &[MemKind::Fast]).unwrap();
        assert!(hit2);
        assert_eq!(gfn, gfn2);
        // Cached file pages start inactive, re-reference activates.
        assert!(k.memmap().page(gfn).flags.contains(PageFlags::ACTIVE));
        assert!(k.drop_cache_page(f, 0));
        assert_eq!(k.memmap().resident_pages(PageType::PageCache), 0);
    }

    #[test]
    fn io_complete_deactivates_eagerly() {
        let mut k = small_kernel();
        let (gfn, _) = k.page_in(FileId(2), 3, 50, &[MemKind::Fast]).unwrap();
        k.lru.activate(&mut k.mm, gfn);
        k.mark_dirty(gfn);
        k.io_complete(gfn);
        let p = k.memmap().page(gfn);
        assert!(!p.flags.contains(PageFlags::ACTIVE));
        assert!(!p.flags.contains(PageFlags::DIRTY));
    }

    #[test]
    fn slab_objects_share_pages_and_release() {
        let mut k = small_kernel();
        // 512-byte skbuffs: 8 per 4K page.
        let p1 = k
            .slab_alloc(SlabClass::Skbuff, 30, &[MemKind::Fast])
            .unwrap();
        let p2 = k
            .slab_alloc(SlabClass::Skbuff, 30, &[MemKind::Fast])
            .unwrap();
        assert_eq!(p1, p2);
        assert_eq!(k.memmap().resident_pages(PageType::NetBuf), 1);
        assert!(k.slab_free_any(SlabClass::Skbuff));
        assert_eq!(k.memmap().resident_pages(PageType::NetBuf), 1);
        assert!(k.slab_free_any(SlabClass::Skbuff));
        assert_eq!(k.memmap().resident_pages(PageType::NetBuf), 0);
        assert_eq!(k.slab_objects(SlabClass::Skbuff), 0);
    }

    #[test]
    fn migrate_moves_page_and_rewires_pt() {
        let mut k = small_kernel();
        let (vma, _) = k
            .mmap_heap(4, vec![100u8; 4], &[MemKind::Fast, MemKind::Slow])
            .unwrap();
        let gfn = k.page_table().translate(vma.start).unwrap();
        assert_eq!(k.memmap().kind_of(gfn), MemKind::Fast);
        let new = k.migrate_page(gfn, MemKind::Slow).unwrap();
        assert_eq!(k.memmap().kind_of(new), MemKind::Slow);
        assert_eq!(k.page_table().translate(vma.start), Some(new));
        assert_eq!(k.memmap().page(new).heat, 100);
        assert_eq!(k.migrations, 1);
        // Old frame is reusable.
        assert!(!k.memmap().page(gfn).is_present());
    }

    #[test]
    fn migrate_rewires_page_cache() {
        let mut k = small_kernel();
        let f = FileId(9);
        let (gfn, _) = k.page_in(f, 7, 60, &[MemKind::Fast]).unwrap();
        let new = k.migrate_page(gfn, MemKind::Slow).unwrap();
        let (found, hit) = k.page_in(f, 7, 60, &[MemKind::Fast]).unwrap();
        assert!(hit);
        assert_eq!(found, new);
    }

    #[test]
    fn migrate_validity_checks() {
        let mut k = small_kernel();
        let (gfn, _) = k.page_in(FileId(1), 0, 10, &[MemKind::Fast]).unwrap();
        k.mark_dirty(gfn);
        assert_eq!(
            k.migrate_page(gfn, MemKind::Slow),
            Err(MigrateError::DirtyIo)
        );
        k.io_complete(gfn);
        assert_eq!(
            k.migrate_page(gfn, MemKind::Fast),
            Err(MigrateError::AlreadyThere)
        );
        assert!(k.migrate_page(gfn, MemKind::Slow).is_ok());
        assert_eq!(
            k.migrate_page(Gfn(5), MemKind::Slow),
            Err(MigrateError::NotPresent)
        );
    }

    #[test]
    fn migrate_fails_when_target_full() {
        let mut k = GuestKernel::new(GuestConfig {
            frames: vec![(MemKind::Fast, 64), (MemKind::Slow, 64)],
            cpus: 1,
            page_size: 4096,
        });
        // Fill SlowMem completely.
        while k
            .alloc_page(PageType::HeapAnon, 1, &[MemKind::Slow])
            .is_ok()
        {}
        let (gfn, _) = k
            .alloc_page(PageType::HeapAnon, 1, &[MemKind::Fast])
            .unwrap();
        assert_eq!(
            k.migrate_page(gfn, MemKind::Slow),
            Err(MigrateError::TargetFull)
        );
    }

    #[test]
    fn demote_inactive_moves_cold_pages_down() {
        let mut k = small_kernel();
        for i in 0..8 {
            let (gfn, _) = k.page_in(FileId(3), i, 20, &[MemKind::Fast]).unwrap();
            k.io_complete(gfn);
        }
        assert_eq!(
            k.memmap()
                .residency(PageType::PageCache, MemKind::Fast)
                .pages,
            8
        );
        let moved = k.demote_inactive(MemKind::Fast, 5);
        assert_eq!(moved, 5);
        assert_eq!(
            k.memmap()
                .residency(PageType::PageCache, MemKind::Slow)
                .pages,
            5
        );
        assert_eq!(k.migrations, 5);
    }

    #[test]
    fn three_tier_kernel_allocates_on_every_tier() {
        let mut k = GuestKernel::new(GuestConfig {
            frames: vec![
                (MemKind::Fast, 32),
                (MemKind::Medium, 64),
                (MemKind::Slow, 128),
            ],
            cpus: 1,
            page_size: 4096,
        });
        for kind in [MemKind::Fast, MemKind::Medium, MemKind::Slow] {
            let (gfn, got) = k.alloc_page(PageType::HeapAnon, 10, &[kind]).unwrap();
            assert_eq!(got, kind);
            assert_eq!(k.memmap().kind_of(gfn), kind);
        }
        // Fallback cascade walks all three tiers.
        while k
            .alloc_page(PageType::HeapAnon, 1, &[MemKind::Fast])
            .is_ok()
        {}
        let (_, got) = k
            .alloc_page(
                PageType::HeapAnon,
                1,
                &[MemKind::Fast, MemKind::Medium, MemKind::Slow],
            )
            .unwrap();
        assert_eq!(got, MemKind::Medium);
    }

    #[test]
    fn typed_demotion_cascades_anon_but_drops_io_to_slowest() {
        let mut k = GuestKernel::new(GuestConfig {
            frames: vec![
                (MemKind::Fast, 64),
                (MemKind::Medium, 64),
                (MemKind::Slow, 128),
            ],
            cpus: 1,
            page_size: 4096,
        });
        // Cold anon pages + released I/O pages on FastMem.
        k.mmap_heap(8, vec![4u8; 8], &[MemKind::Fast]).unwrap();
        for off in 0..8 {
            let (g, _) = k.page_in(FileId(5), off, 224, &[MemKind::Fast]).unwrap();
            k.io_complete(g);
        }
        k.age_lru(MemKind::Fast, 64, 50);
        let moved = k.demote_inactive_typed(MemKind::Fast, 64);
        assert_eq!(moved, 16);
        // §4.3: anon pages stepped one level (Medium); I/O pages went to
        // the slowest tier directly.
        assert_eq!(
            k.memmap()
                .residency(PageType::HeapAnon, MemKind::Medium)
                .pages,
            8
        );
        assert_eq!(
            k.memmap()
                .residency(PageType::PageCache, MemKind::Slow)
                .pages,
            8
        );
        assert_eq!(
            k.memmap()
                .residency(PageType::PageCache, MemKind::Medium)
                .pages,
            0
        );
    }

    #[test]
    fn two_tier_typed_demotion_matches_plain() {
        let mut k = small_kernel();
        for off in 0..6 {
            let (g, _) = k.page_in(FileId(3), off, 20, &[MemKind::Fast]).unwrap();
            k.io_complete(g);
        }
        let moved = k.demote_inactive_typed(MemKind::Fast, 6);
        assert_eq!(moved, 6);
        assert_eq!(
            k.memmap()
                .residency(PageType::PageCache, MemKind::Slow)
                .pages,
            6
        );
    }

    #[test]
    fn balloon_inflate_deflate_roundtrip() {
        let mut k = small_kernel();
        let free = k.free_frames(MemKind::Fast);
        let got = k.balloon_inflate(MemKind::Fast, 10);
        assert_eq!(got, 10);
        assert_eq!(k.ballooned_pages(MemKind::Fast), 10);
        assert_eq!(k.free_frames(MemKind::Fast), free - 10);
        let back = k.balloon_deflate(MemKind::Fast, 4);
        assert_eq!(back, 4);
        assert_eq!(k.free_frames(MemKind::Fast), free - 6);
        // Deflating more than ballooned caps out.
        assert_eq!(k.balloon_deflate(MemKind::Fast, 100), 6);
    }

    /// Page-at-a-time balloon inflation, as the kernel ran it before the
    /// bulk path: one allocation per page (list, refill, drain, refill),
    /// its descriptor written as it comes.
    fn inflate_per_page(k: &mut GuestKernel, kind: MemKind, n: u64) -> u64 {
        let mut got = 0;
        while got < n {
            let cpu = k.next_cpu();
            let Some(buddy) = k.buddies[kind].as_mut() else {
                break;
            };
            let Some(gfn) = k.pcp.alloc_draining_per_page(cpu, kind, buddy) else {
                break;
            };
            k.mm.set_allocated(gfn, PageType::Dma, 0);
            k.mm.page_mut(gfn).flags.insert(PageFlags::BALLOONED);
            k.ballooned[kind].push(gfn);
            got += 1;
        }
        got
    }

    /// Page-at-a-time balloon deflation: one free per page, the most
    /// recently ballooned first.
    fn deflate_per_page(k: &mut GuestKernel, kind: MemKind, n: u64) -> u64 {
        let mut freed = 0;
        while freed < n {
            let Some(gfn) = k.ballooned[kind].pop() else {
                break;
            };
            k.mm.page_mut(gfn).flags.remove(PageFlags::BALLOONED);
            k.mm.set_free(gfn);
            let cpu = k.next_cpu();
            let buddy = k.buddies[kind].as_mut().expect("configured tier");
            k.pcp.free_per_page(cpu, kind, gfn, buddy);
            freed += 1;
        }
        freed
    }

    /// A Fast/Slow kernel (no Medium) of 700 and 1500 frames with `cpus`
    /// CPUs in one of four allocator states: `"pristine"` (just booted),
    /// `"fragmented"` (heap pages allocated on both tiers and a random half
    /// freed, leaving holes in the buddies and pages on per-CPU lists),
    /// `"leftover"` (a few pages taken per CPU, so every list holds part of
    /// a refill) and `"exhausted"` (both tiers allocated until they fail,
    /// then a few pages freed onto the lists).
    fn balloon_kernel(cpus: usize, state: &str, seed: u64) -> GuestKernel {
        state_kernel(cpus, state, seed, [700, 1500])
    }

    /// [`balloon_kernel`] with `frames` FastMem and SlowMem frames, and one
    /// state more: `"stranded"` allocates both tiers until they fail and
    /// frees a random number of random pages, which stay on the per-CPU
    /// lists while the buddies stay empty.
    fn state_kernel(cpus: usize, state: &str, seed: u64, frames: [u64; 2]) -> GuestKernel {
        let mut rng = hetero_sim::SimRng::seed_from(seed);
        let mut k = GuestKernel::new(GuestConfig {
            frames: vec![(MemKind::Fast, frames[0]), (MemKind::Slow, frames[1])],
            cpus,
            page_size: 4096,
        });
        let chains: [&[MemKind]; 2] = [&[MemKind::Fast, MemKind::Slow], &[MemKind::Slow]];
        let mut held = Vec::new();
        let allocs = match state {
            "pristine" => 0,
            "fragmented" => (frames[0] + frames[1]) * 9 / 11,
            "leftover" => 3 * cpus as u64 + 1,
            "exhausted" | "stranded" => u64::MAX,
            _ => panic!("unknown state {state}"),
        };
        for i in 0..allocs {
            let chain = if state == "stranded" {
                0
            } else {
                i as usize % 2
            };
            match k.alloc_page(PageType::HeapAnon, 9, chains[chain]) {
                Ok((gfn, _)) => held.push(gfn),
                Err(_) => break,
            }
        }
        let frees = match state {
            "fragmented" => held.len() / 2,
            "exhausted" => 5 * cpus,
            "stranded" => rng.next_range(1, 24 * cpus as u64 + 1) as usize,
            _ => 0,
        };
        for _ in 0..frees {
            let gfn = held.swap_remove(rng.next_range(0, held.len() as u64) as usize);
            k.free_page(gfn);
        }
        k
    }

    #[test]
    fn bulk_balloon_leaves_the_bytes_of_page_at_a_time_balloons() {
        let kinds = [MemKind::Fast, MemKind::Slow, MemKind::Medium];
        for cpus in [1, 2, 3, 16] {
            for state in ["pristine", "fragmented", "leftover", "exhausted"] {
                let seed = cpus as u64 * 31 + state.len() as u64;
                let base = balloon_kernel(cpus, state, seed);
                for kind in kinds {
                    let free = base.free_frames(kind);
                    let total = base.total_frames(kind);
                    let ns = [
                        0,
                        1,
                        2,
                        31,
                        33,
                        97,
                        free.saturating_sub(1),
                        free,
                        free + 1,
                        total + 5,
                    ];
                    for n in ns {
                        let mut bulk = balloon_kernel(cpus, state, seed);
                        let mut single = balloon_kernel(cpus, state, seed);
                        // Inflate, give part back, inflate to exhaustion
                        // (which empties every per-CPU list), give back
                        // exactly the high watermark's worth per CPU (a
                        // spill one page early or late shows), then give
                        // everything back.
                        let steps = [
                            ("inflate", n),
                            ("deflate", n / 3 + 1),
                            ("inflate", total + 1),
                            ("deflate", (crate::pcp::DEFAULT_HIGH * cpus) as u64),
                            ("deflate", total + 1),
                        ];
                        for (i, (op, count)) in steps.into_iter().enumerate() {
                            let (got, want) = if op == "inflate" {
                                (
                                    bulk.balloon_inflate(kind, count),
                                    inflate_per_page(&mut single, kind, count),
                                )
                            } else {
                                (
                                    bulk.balloon_deflate(kind, count),
                                    deflate_per_page(&mut single, kind, count),
                                )
                            };
                            let at = format!(
                                "{cpus} cpus, {state}, {kind}, n {n}, step {i} ({op} {count})"
                            );
                            assert_eq!(got, want, "{at}");
                            assert!(
                                encoded(&bulk) == encoded(&single),
                                "{at}: the encodings differ"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn balloon_inflate_caps_at_free_memory() {
        let mut k = GuestKernel::new(GuestConfig {
            frames: vec![(MemKind::Fast, 64)],
            cpus: 1,
            page_size: 4096,
        });
        let got = k.balloon_inflate(MemKind::Fast, 1000);
        assert_eq!(got, 64);
        assert_eq!(k.free_frames(MemKind::Fast), 0);
    }

    #[test]
    fn lru_candidates_filters() {
        let mut k = small_kernel();
        k.mmap_heap(6, vec![250u8; 6], &[MemKind::Slow]).unwrap();
        let hot = k.lru_candidates(MemKind::Slow, 10, |p| p.heat > 200);
        assert_eq!(hot.len(), 6);
        let none = k.lru_candidates(MemKind::Slow, 10, |p| p.heat < 10);
        // Page-table backing pages are unlisted, so only heap pages appear.
        assert!(none.iter().all(|&g| k.memmap().page(g).heat < 10));
    }

    #[test]
    fn buffer_page_in_and_drop_roundtrip() {
        let mut k = small_kernel();
        let f = FileId(100);
        let (gfn, hit) = k.buffer_page_in(f, 0, 60, &[MemKind::Fast]).unwrap();
        assert!(!hit);
        assert_eq!(k.memmap().page(gfn).page_type, PageType::BufferCache);
        let (again, hit2) = k.buffer_page_in(f, 0, 60, &[MemKind::Fast]).unwrap();
        assert!(hit2);
        assert_eq!(gfn, again);
        assert!(k.drop_cache_page(f, 0));
        assert!(!k.drop_cache_page(f, 0), "second drop finds nothing");
        assert_eq!(k.memmap().resident_pages(PageType::BufferCache), 0);
    }

    #[test]
    fn buffer_page_survives_migration_by_identity() {
        let mut k = small_kernel();
        let f = FileId(100);
        let (gfn, _) = k.buffer_page_in(f, 3, 60, &[MemKind::Fast]).unwrap();
        k.migrate_page(gfn, MemKind::Slow).unwrap();
        assert!(k.drop_cache_page(f, 3), "identity survives migration");
    }

    #[test]
    fn slab_free_any_releases_pages_eventually() {
        let mut k = small_kernel();
        for _ in 0..16 {
            k.slab_alloc(SlabClass::Skbuff, 30, &[MemKind::Fast])
                .unwrap();
        }
        assert_eq!(k.slab_objects(SlabClass::Skbuff), 16);
        for _ in 0..16 {
            assert!(k.slab_free_any(SlabClass::Skbuff));
        }
        assert!(!k.slab_free_any(SlabClass::Skbuff));
        assert_eq!(k.memmap().resident_pages(PageType::NetBuf), 0);
    }

    #[test]
    fn slab_page_migration_rehomes_cache() {
        let mut k = small_kernel();
        let page = k
            .slab_alloc(SlabClass::Skbuff, 30, &[MemKind::Fast])
            .unwrap();
        let new = k.migrate_page(page, MemKind::Slow).unwrap();
        assert_ne!(page, new);
        // Freeing through the cache still works (bookkeeping rehomed).
        assert!(k.slab_free_any(SlabClass::Skbuff));
        assert_eq!(k.memmap().resident_pages(PageType::NetBuf), 0);
    }

    #[test]
    fn age_lru_deactivates_cold_active_pages() {
        let mut k = small_kernel();
        k.mmap_heap(4, vec![5u8; 4], &[MemKind::Fast]).unwrap();
        k.mmap_heap(4, vec![250u8; 4], &[MemKind::Fast]).unwrap();
        let aged = k.age_lru(MemKind::Fast, 100, 50);
        assert_eq!(aged, 4, "only the cold pages age out");
        assert_eq!(k.age_lru(MemKind::Fast, 100, 50), 0, "idempotent");
    }

    #[test]
    fn swap_out_in_roundtrip_preserves_state() {
        let mut k = small_kernel();
        let (vma, _) = k.mmap_heap(4, vec![200u8; 4], &[MemKind::Fast]).unwrap();
        let vpn = vma.start;
        let gfn = k.page_table().translate(vpn).unwrap();
        k.set_page_write_heat(gfn, 150);
        let free_before = k.free_frames(MemKind::Fast);
        assert!(k.swap_out(gfn));
        assert_eq!(k.swapped_pages(), 1);
        assert_eq!(k.swapped_heat(), 200);
        assert_eq!(k.page_table().translate(vpn), None, "PTE cleared");
        assert_eq!(k.free_frames(MemKind::Fast), free_before + 1);
        let back = k.swap_in(vpn, &[MemKind::Fast]).unwrap();
        assert_eq!(k.page_table().translate(vpn), Some(back));
        let p = k.memmap().page(back);
        assert_eq!(p.heat, 200);
        assert_eq!(p.write_heat, 150);
        assert_eq!(k.swapped_pages(), 0);
    }

    #[test]
    fn swap_rejects_non_anon_pages() {
        let mut k = small_kernel();
        let (cache, _) = k.page_in(FileId(1), 0, 60, &[MemKind::Fast]).unwrap();
        assert!(!k.swap_out(cache), "file pages are not swapped");
        let page = k
            .slab_alloc(SlabClass::Skbuff, 60, &[MemKind::Fast])
            .unwrap();
        assert!(!k.swap_out(page), "slab pages are not swapped");
        assert_eq!(k.swapped_pages(), 0);
    }

    #[test]
    fn munmap_discards_swap_slots() {
        let mut k = small_kernel();
        let (vma, _) = k.mmap_heap(4, vec![100u8; 4], &[MemKind::Fast]).unwrap();
        for vpn in vma.start..vma.end() {
            let gfn = k.page_table().translate(vpn).unwrap();
            assert!(k.swap_out(gfn));
        }
        assert_eq!(k.swapped_pages(), 4);
        let freed = k.munmap(vma.start, vma.pages);
        assert_eq!(freed, 4, "swap slots count as released pages");
        assert_eq!(k.swapped_pages(), 0);
        // Swap-in after discard finds nothing.
        assert!(k.swap_in(vma.start, &[MemKind::Fast]).is_none());
    }

    #[test]
    fn swap_in_any_respects_capacity() {
        let mut k = GuestKernel::new(GuestConfig {
            frames: vec![(MemKind::Fast, 32)],
            cpus: 1,
            page_size: 4096,
        });
        let (vma, _) = k.mmap_heap(8, vec![100u8; 8], &[MemKind::Fast]).unwrap();
        for vpn in vma.start..vma.end() {
            let gfn = k.page_table().translate(vpn).unwrap();
            k.swap_out(gfn);
        }
        // Consume all free memory so only part of the swap fits back.
        while k
            .alloc_page(PageType::HeapAnon, 1, &[MemKind::Fast])
            .is_ok()
        {}
        assert_eq!(k.swap_in_any(8, &[MemKind::Fast]), 0);
        assert_eq!(k.swapped_pages(), 8, "slots survive a failed swap-in");
    }

    #[test]
    fn forced_migration_ignores_guest_state() {
        let mut k = small_kernel();
        let (gfn, _) = k.page_in(FileId(1), 0, 10, &[MemKind::Fast]).unwrap();
        k.mark_dirty(gfn);
        // The guest-checked path refuses; the VMM path migrates anyway.
        assert_eq!(
            k.migrate_page(gfn, MemKind::Slow),
            Err(MigrateError::DirtyIo)
        );
        let new = k.migrate_page_forced(gfn, MemKind::Slow).unwrap();
        assert!(k.memmap().page(new).flags.contains(PageFlags::DIRTY));
        assert_eq!(k.memmap().kind_of(new), MemKind::Slow);
        // Physical impossibilities still fail.
        assert_eq!(
            k.migrate_page_forced(new, MemKind::Slow),
            Err(MigrateError::AlreadyThere)
        );
    }

    #[test]
    fn scan_resident_wraps_and_filters() {
        let mut k = small_kernel();
        let (a, _) = k
            .alloc_page(PageType::HeapAnon, 1, &[MemKind::Fast])
            .unwrap();
        let (b, _) = k
            .alloc_page(PageType::HeapAnon, 1, &[MemKind::Slow])
            .unwrap();
        let total = k.memmap().total_frames();
        let mut found = Vec::new();
        let next = k.scan_resident_into(0, total, &mut found);
        assert!(found.contains(&a) && found.contains(&b));
        assert_eq!(found.len(), 2);
        assert_eq!(next, 0, "full scan wraps to start");
        // Batched scan makes progress.
        let next = k.scan_resident_into(0, 10, &mut Vec::new());
        assert_eq!(next, 10);
    }

    #[test]
    fn free_fraction_tracks_pressure() {
        let mut k = small_kernel();
        assert!((k.free_fraction(MemKind::Fast) - 1.0).abs() < 1e-12);
        k.balloon_inflate(MemKind::Fast, 32);
        assert!((k.free_fraction(MemKind::Fast) - 0.5).abs() < 1e-12);
        assert_eq!(k.free_fraction(MemKind::Medium), 0.0);
    }

    /// `n` allocations along a chain, a page at a time: each call tries the
    /// chain's tiers in order, each try on the next CPU, through
    /// `PerCpuLists::alloc_draining_per_page` (list, refill, drain,
    /// refill). Stops after the first call that fails. Returns the frames
    /// taken.
    fn chain_per_page(k: &mut GuestKernel, chain: &[MemKind], n: u64, out: &mut Vec<Gfn>) -> u64 {
        for got in 0..n {
            let page = chain.iter().find_map(|&kind| {
                let cpu = k.next_cpu();
                let buddy = k.buddies[kind].as_mut()?;
                k.pcp.alloc_draining_per_page(cpu, kind, buddy)
            });
            let Some(gfn) = page else {
                return got;
            };
            out.push(gfn);
        }
        n
    }

    /// Free frames on the tiers of a chain, each tier counted once: what a
    /// run along the chain takes before a call fails.
    fn chain_free_frames(k: &GuestKernel, chain: &[MemKind]) -> u64 {
        MemKind::ALL
            .into_iter()
            .filter(|kind| chain.contains(kind))
            .map(|kind| k.free_frames(kind))
            .sum()
    }

    /// `mmap_heap_collect` as it was before heap maps took their frames in
    /// a run: a chain allocation and a descriptor write per page and, when
    /// an allocation fails, a `free_page` of every frame taken.
    fn mmap_heap_per_page(
        k: &mut GuestKernel,
        pages: u64,
        heats: impl IntoIterator<Item = u8>,
        chain: &[MemKind],
        out: &mut Vec<Gfn>,
    ) -> Result<(Vma, KindMap<u64>), AllocFailed> {
        let failed = AllocFailed {
            page_type: PageType::HeapAnon,
        };
        let vma = k
            .space
            .mmap(pages, VmaKind::Anon, None)
            .map_err(|_| failed)?;
        out.clear();
        let (mut placed, mut heats) = (KindMap::default(), heats.into_iter());
        let wanted_fast = chain.first() == Some(&MemKind::Fast);
        for vpn in vma.start..vma.end() {
            let heat = heats.next().unwrap_or(0);
            let Some((gfn, kind)) = k.raw_alloc_chain(chain) else {
                let taken = out.len() as u64;
                k.lru.note_fresh_inserts(true, taken);
                let fast = placed[MemKind::Fast];
                k.stats
                    .record_run(PageType::HeapAnon, wanted_fast, fast, taken);
                k.stats.record(PageType::HeapAnon, wanted_fast, false);
                for &gfn in out.iter() {
                    k.free_page(gfn);
                }
                out.clear();
                k.space.munmap(vma.start, vma.pages);
                return Err(failed);
            };
            let list = k.lru.fresh_list_mut(kind, crate::lru::LruClass::Anon, true);
            let next = list.peek_front();
            let rmap = RMap::Anon(vpn);
            k.mm.set_allocated_linked(gfn, PageType::HeapAnon, heat, true, next, rmap);
            list.push_front_prelinked(&mut k.mm, gfn);
            placed[kind] += 1;
            out.push(gfn);
        }
        k.lru.note_fresh_inserts(true, pages);
        let fast = placed[MemKind::Fast];
        k.stats
            .record_run(PageType::HeapAnon, wanted_fast, fast, pages);
        k.pt.map_range(vma.start, out);
        k.sync_pagetable_pages(chain);
        Ok((vma, placed))
    }

    /// Chains of one to three tiers, MediumMem unconfigured in every
    /// kernel the run tests build.
    const RUN_CHAINS: [&[MemKind]; 6] = [
        &[MemKind::Slow],
        &[MemKind::Fast, MemKind::Slow],
        &[MemKind::Slow, MemKind::Fast],
        &[MemKind::Medium, MemKind::Slow],
        &[MemKind::Fast, MemKind::Medium, MemKind::Slow],
        &[MemKind::Fast, MemKind::Slow, MemKind::Medium],
    ];

    /// For every CPU count, allocator state and chain of the run tests:
    /// the encoding of a [`state_kernel`] whose frames also served and
    /// gave back file, slab and balloon pages (so free frames carry several
    /// types), and the chain. Built once; each test decodes its two copies
    /// from it.
    fn run_kernels() -> &'static [RunKernel] {
        static KERNELS: std::sync::OnceLock<Vec<RunKernel>> = std::sync::OnceLock::new();
        KERNELS.get_or_init(build_run_kernels)
    }

    /// A run test's kernel: where it stands, its encoding and its chain.
    type RunKernel = (String, Vec<u8>, &'static [MemKind]);

    fn build_run_kernels() -> Vec<RunKernel> {
        let mut rng = hetero_sim::SimRng::seed_from(29);
        let mut out = Vec::new();
        for cpus in [1, 2, 3, 16] {
            for state in [
                "pristine",
                "fragmented",
                "leftover",
                "exhausted",
                "stranded",
            ] {
                for chain in RUN_CHAINS {
                    let mut k = state_kernel(cpus, state, rng.next_u64(), [300, 640]);
                    // Pages of other types come and go first, as long as
                    // the tiers hold free frames for them.
                    if k.free_frames(MemKind::Slow) > 64 {
                        let pref = [MemKind::Slow];
                        k.page_in_many(FileId(9), 0, 24, 5, &pref);
                        k.drop_cache_pages(FileId(9), (0..24).step_by(2));
                        k.slab_alloc_bulk(SlabClass::Skbuff, 40, 5, &pref);
                        k.slab_free_bulk(SlabClass::Skbuff, 40);
                    }
                    if k.free_frames(MemKind::Fast) > 32 {
                        k.balloon_inflate(MemKind::Fast, 20);
                        k.balloon_deflate(MemKind::Fast, 20);
                    }
                    let at = format!("{cpus} cpus, {state}, {chain:?}");
                    out.push((at, encoded(&k), chain));
                }
            }
        }
        out
    }

    #[test]
    fn chain_runs_leave_the_bytes_of_per_page_chain_allocations() {
        let mut rng = hetero_sim::SimRng::seed_from(29);
        for (at, bytes, chain) in run_kernels() {
            let chain: &[MemKind] = chain;
            let free = chain_free_frames(&decode(bytes).unwrap(), chain);
            for n in [1, 2, 33, rng.next_range(1, free + 2), free, free + 1] {
                let (mut run, mut single) = (decode(bytes).unwrap(), decode(bytes).unwrap());
                let (mut got, mut want) = (Vec::new(), Vec::new());
                let taken = run.raw_alloc_run(chain, n, &mut got);
                let wanted = chain_per_page(&mut single, chain, n, &mut want);
                let at = format!("{at}, n {n} of {free} free");
                assert_eq!((taken, &got), (wanted, &want), "{at}");
                assert!(
                    encoded(&run) == encoded(&single),
                    "{at}: the encodings differ"
                );
            }
        }
    }

    #[test]
    fn heap_map_runs_leave_the_bytes_of_per_page_maps() {
        let mut rng = hetero_sim::SimRng::seed_from(30);
        for (at, bytes, chain) in run_kernels() {
            let chain: &[MemKind] = chain;
            let free = chain_free_frames(&decode(bytes).unwrap(), chain);
            let sizes = [
                1,
                7,
                rng.next_range(1, free + 60),
                free.max(1) - 1,
                free,
                free + 1,
                free + 50,
            ];
            for pages in sizes {
                let (mut run, mut single) = (decode(bytes).unwrap(), decode(bytes).unwrap());
                let (mut got, mut want) = (vec![Gfn(1)], vec![Gfn(1)]);
                let heats = || (0..).map(|i: u64| (i * 37 % 256) as u8);
                let at = format!("{at}, {pages} pages of {free} free");
                assert_eq!(
                    run.mmap_heap_collect(pages, heats(), chain, &mut got),
                    mmap_heap_per_page(&mut single, pages, heats(), chain, &mut want),
                    "{at}"
                );
                assert_eq!(got, want, "{at}");
                assert!(
                    encoded(&run) == encoded(&single),
                    "{at}: the encodings differ"
                );
            }
        }
    }

    #[test]
    fn page_in_runs_leave_the_bytes_of_per_offset_page_ins() {
        let mut rng = hetero_sim::SimRng::seed_from(31);
        for (at, bytes, chain) in run_kernels() {
            let chain: &[MemKind] = chain;
            // Cached offsets among the misses, some of them inactive, so
            // the hits' activations interleave with the misses' fills.
            let mut base = decode(bytes).unwrap();
            for file in [FileId(4), FileId(5)] {
                for _ in 0..12 {
                    let off = rng.next_range(0, 48);
                    let got = if file == FileId(4) {
                        base.page_in(file, off, 40, chain)
                    } else {
                        base.buffer_page_in(file, off, 40, chain)
                    };
                    if let (Ok((gfn, _)), true) = (got, rng.chance(0.5)) {
                        base.io_complete(gfn);
                    }
                }
            }
            let bytes = encoded(&base);
            let free = chain_free_frames(&base, chain);
            for count in [1, 5, 48, rng.next_range(1, free + 30), free + 20] {
                for file in [FileId(4), FileId(5)] {
                    let (mut run, mut single) = (decode(&bytes).unwrap(), decode(&bytes).unwrap());
                    let first = rng.next_range(0, 20);
                    let (got, want) = if file == FileId(4) {
                        let want = (first..first + count)
                            .filter(|&off| single.page_in(file, off, 90, chain).is_ok())
                            .count();
                        (run.page_in_many(file, first, count, 90, chain), want)
                    } else {
                        let want = (first..first + count)
                            .filter(|&off| single.buffer_page_in(file, off, 90, chain).is_ok())
                            .count();
                        (run.buffer_page_in_many(file, first, count, 90, chain), want)
                    };
                    let at = format!("{at}, {file:?} from {first}, {count} of {free} free");
                    assert_eq!(got, want as u64, "{at}");
                    assert!(
                        encoded(&run) == encoded(&single),
                        "{at}: the encodings differ"
                    );
                }
            }
        }
    }

    #[test]
    fn slab_growth_runs_leave_the_bytes_of_per_object_allocations() {
        let mut rng = hetero_sim::SimRng::seed_from(32);
        for (at, bytes, chain) in run_kernels() {
            let chain: &[MemKind] = chain;
            let free = chain_free_frames(&decode(bytes).unwrap(), chain);
            for class in [SlabClass::Skbuff, SlabClass::FsMeta] {
                // Partial slabs with hints to carve first.
                let mut base = decode(bytes).unwrap();
                base.slab_alloc_bulk(class, 70, 30, chain);
                base.slab_free_bulk(class, 23);
                let bytes = encoded(&base);
                let per_page = u64::from(base.slab_cache(class).objects_per_page());
                let ns = [
                    1,
                    per_page + 1,
                    rng.next_range(1, 600),
                    (free + 2) * per_page,
                ];
                // The per-object reference is slow on roomy kernels.
                for n in ns.into_iter().filter(|&n| n <= 6000) {
                    let (mut run, mut single) = (decode(&bytes).unwrap(), decode(&bytes).unwrap());
                    let want = (0..n)
                        .filter(|_| single.slab_alloc(class, 60, chain).is_ok())
                        .count() as u64;
                    let at = format!("{at}, {class:?}, n {n} of {free} free pages");
                    assert_eq!(run.slab_alloc_bulk(class, n, 60, chain), want, "{at}");
                    assert!(
                        encoded(&run) == encoded(&single),
                        "{at}: the encodings differ"
                    );
                }
            }
        }
    }

    /// FNV-1a of a byte string.
    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
    }

    /// A seeded sequence of heap maps, unmaps, page-in runs with cached
    /// offsets among the misses, cache drops, slab growth and frees and
    /// balloon inflations and deflations on a small Fast/Slow kernel, along
    /// chains of one to three tiers (Medium unconfigured). Memory runs
    /// tight, so heap maps often ask for more frames than their chain has
    /// free and fail. Returns the kernel and the count of failed maps.
    fn doomed_heap_sequence(cpus: usize, seed: u64) -> (GuestKernel, u64) {
        let mut rng = hetero_sim::SimRng::seed_from(seed);
        let mut k = GuestKernel::new(GuestConfig {
            frames: vec![(MemKind::Fast, 300), (MemKind::Slow, 700)],
            cpus,
            page_size: 4096,
        });
        let chains: [&[MemKind]; 4] = [
            &[MemKind::Fast, MemKind::Slow],
            &[MemKind::Slow],
            &[MemKind::Fast, MemKind::Medium, MemKind::Slow],
            &[MemKind::Fast],
        ];
        let (mut vmas, mut doomed) = (Vec::new(), 0);
        for step in 0..400u64 {
            let chain = chains[rng.next_range(0, 4) as usize];
            let heat = rng.next_range(0, 256) as u8;
            let n = rng.next_range(1, 80);
            let off = rng.next_range(0, 500);
            let file = FileId(1 + rng.next_range(0, 2));
            let class = [SlabClass::FsMeta, SlabClass::Skbuff][rng.next_range(0, 2) as usize];
            let kind = [MemKind::Fast, MemKind::Slow][rng.next_range(0, 2) as usize];
            match rng.next_range(0, 9) {
                0 | 1 => {
                    let free: u64 = [MemKind::Fast, MemKind::Medium, MemKind::Slow]
                        .into_iter()
                        .filter(|kind| chain.contains(kind))
                        .map(|kind| k.free_frames(kind))
                        .sum();
                    let pages = rng.next_range(1, free + 40);
                    let heats = (step..).map(|i| (i * 37 % 256) as u8);
                    match k.mmap_heap(pages, heats, chain) {
                        Ok((vma, _)) => vmas.push(vma),
                        Err(_) => doomed += 1,
                    }
                }
                2 if !vmas.is_empty() => {
                    let vma = vmas.swap_remove(rng.next_range(0, vmas.len() as u64) as usize);
                    k.munmap(vma.start, vma.pages);
                }
                3 if file == FileId(1) => {
                    k.page_in_many(file, off, n, heat, chain);
                }
                3 => {
                    k.buffer_page_in_many(file, off, n, heat, chain);
                }
                4 => {
                    k.drop_cache_pages(file, off..off + n);
                }
                5 => {
                    k.slab_alloc_bulk(class, n * 8, heat, chain);
                }
                6 => {
                    k.slab_free_bulk(class, n * 6);
                }
                7 => {
                    k.balloon_inflate(kind, n);
                }
                _ => {
                    k.balloon_deflate(kind, n);
                }
            }
        }
        (k, doomed)
    }

    /// Digests of [`doomed_heap_sequence`]'s encoded kernel per CPU count
    /// and seed, with its failed heap maps, recorded before heap maps,
    /// page-in runs and slab growth took their frames in runs. A failed
    /// map leaves its frames typed as heap pages, which the memmap
    /// encodes, and the per-CPU lists and buddies as its round trip left
    /// them.
    const DOOMED_HEAP_DIGESTS: [(usize, u64, u64, u64); 8] = [
        (1, 1, 45, 0xe7f8_6aa9_6176_05e1),
        (1, 2, 43, 0x10da_3ed2_4446_7b12),
        (2, 1, 45, 0xb857_46a2_4bdb_6bf7),
        (2, 2, 43, 0x8c6a_f1c1_d64b_9cdb),
        (3, 1, 45, 0x32a8_3079_f35e_6a6c),
        (3, 2, 43, 0xd24e_7144_7f42_e3ae),
        (16, 1, 45, 0xef24_b6d0_ab60_8eae),
        (16, 2, 43, 0xb762_a9d4_344b_8997),
    ];

    #[test]
    fn doomed_heap_sequences_hold_their_digests() {
        let mut moved = Vec::new();
        for (cpus, seed, doomed, digest) in DOOMED_HEAP_DIGESTS {
            let (k, failed) = doomed_heap_sequence(cpus, seed);
            let got = (failed, fnv1a(&encoded(&k)));
            if got != (doomed, digest) {
                moved.push(format!(
                    "        ({cpus}, {seed}, {}, {:#018x}),",
                    got.0, got.1
                ));
            }
        }
        assert!(moved.is_empty(), "digests moved:\n{}", moved.join("\n"));
    }
}
