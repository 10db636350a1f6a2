//! Page descriptors — the guest's `struct page` array equivalent.
//!
//! HeteroOS extends the Linux page descriptor with a memory-type flag
//! (FASTMEM/SLOWMEM, §3.1 "Extending page allocators") and per-subsystem
//! page-type accounting (§3.2). [`PageType`] mirrors the categories of the
//! paper's Fig 4 memory-distribution analysis; [`PageFlags`] carries the
//! state bits the LRU, balloon and migration paths need.

use std::fmt;

use hetero_mem::MemKind;

/// Guest frame number: index into the guest's [`crate::memmap::MemMap`].
///
/// A page's `Gfn` is stable for its lifetime; migration to another tier
/// allocates a fresh page on the target node (new `Gfn`), copies, and remaps
/// — the same semantics as Linux `migrate_pages`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Gfn(pub u64);

impl Gfn {
    /// Raw index.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for Gfn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "gfn:{:#x}", self.0)
    }
}

/// How a page is used — the paper's Fig 4 categories.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum PageType {
    /// Anonymous heap pages.
    HeapAnon,
    /// Filesystem page-cache pages (mapped I/O data).
    PageCache,
    /// Block-layer buffer-cache pages (filesystem metadata, logs).
    BufferCache,
    /// Kernel slab pages (dentries, inodes, generic kmalloc).
    Slab,
    /// Network kernel buffers (`skbuff`) — a slab class the paper calls out
    /// separately for Redis/Nginx.
    NetBuf,
    /// Page-table pages.
    PageTable,
    /// DMA pages (linearly mapped; never migratable).
    Dma,
}

impl PageType {
    /// All types, in Fig 4 presentation order.
    pub const ALL: [PageType; 7] = [
        PageType::HeapAnon,
        PageType::PageCache,
        PageType::BufferCache,
        PageType::Slab,
        PageType::NetBuf,
        PageType::PageTable,
        PageType::Dma,
    ];

    /// Dense index for per-type accounting arrays.
    #[inline]
    pub const fn index(self) -> usize {
        match self {
            PageType::HeapAnon => 0,
            PageType::PageCache => 1,
            PageType::BufferCache => 2,
            PageType::Slab => 3,
            PageType::NetBuf => 4,
            PageType::PageTable => 5,
            PageType::Dma => 6,
        }
    }

    /// Number of page types.
    pub const COUNT: usize = 7;

    /// True for the short-lived I/O page classes HeteroOS-LRU evicts eagerly
    /// once the I/O completes (§3.3) and that the coordinated design places
    /// on the VMM's hotness-tracking *exception list* (§4.1).
    pub fn is_io(self) -> bool {
        matches!(
            self,
            PageType::PageCache | PageType::BufferCache | PageType::NetBuf
        )
    }

    /// True when pages of this type can be migrated between tiers. Linearly
    /// mapped page-table and DMA pages cannot (§4.1).
    pub fn is_migratable(self) -> bool {
        !matches!(self, PageType::PageTable | PageType::Dma)
    }
}

impl fmt::Display for PageType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            PageType::HeapAnon => "heap/anon",
            PageType::PageCache => "page-cache",
            PageType::BufferCache => "buffer-cache",
            PageType::Slab => "slab",
            PageType::NetBuf => "nw-buff",
            PageType::PageTable => "pagetable",
            PageType::Dma => "dma",
        };
        f.write_str(s)
    }
}

/// Per-page state bits.
///
/// A minimal `bitflags`-style implementation (the workspace avoids the
/// dependency for two derives' worth of code).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PageFlags(u16);

impl PageFlags {
    /// Page is backed by a machine frame and usable.
    pub const PRESENT: PageFlags = PageFlags(1 << 0);
    /// Page is on an active LRU list.
    pub const ACTIVE: PageFlags = PageFlags(1 << 1);
    /// Page has been written and not cleaned.
    pub const DIRTY: PageFlags = PageFlags(1 << 2);
    /// Hardware access bit (set on touch, cleared by scans).
    pub const ACCESSED: PageFlags = PageFlags(1 << 3);
    /// Page is linked on some LRU list.
    pub const LRU: PageFlags = PageFlags(1 << 4);
    /// Page was handed back to the VMM by the balloon.
    pub const BALLOONED: PageFlags = PageFlags(1 << 5);
    /// Page is marked for deletion (unmap in progress) — migration must
    /// skip it (§4.1 "Page state").
    pub const RECLAIM: PageFlags = PageFlags(1 << 6);
    /// Allocated through the on-demand balloon driver (returned to the VMM
    /// under memory pressure, §3.1).
    pub const ON_DEMAND: PageFlags = PageFlags(1 << 7);

    /// The empty flag set.
    pub const fn empty() -> Self {
        PageFlags(0)
    }

    /// The raw bits (the memmap snapshot's `u16`).
    #[inline]
    pub(crate) const fn bits(self) -> u16 {
        self.0
    }

    /// Flags from raw bits, as [`PageFlags::bits`] returns them.
    #[inline]
    pub(crate) const fn from_bits(bits: u16) -> Self {
        PageFlags(bits)
    }

    /// True if every bit of `other` is set in `self`.
    #[inline]
    pub const fn contains(self, other: PageFlags) -> bool {
        self.0 & other.0 == other.0
    }

    /// Sets the bits of `other`.
    #[inline]
    pub fn insert(&mut self, other: PageFlags) {
        self.0 |= other.0;
    }

    /// Clears the bits of `other`.
    #[inline]
    pub fn remove(&mut self, other: PageFlags) {
        self.0 &= !other.0;
    }

    /// Sets or clears the bits of `other`.
    #[inline]
    pub fn set(&mut self, other: PageFlags, value: bool) {
        if value {
            self.insert(other);
        } else {
            self.remove(other);
        }
    }
}

impl std::ops::BitOr for PageFlags {
    type Output = PageFlags;
    fn bitor(self, rhs: PageFlags) -> PageFlags {
        PageFlags(self.0 | rhs.0)
    }
}

/// Reverse-mapping information: what a page backs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RMap {
    /// Not mapped anywhere (free, or kernel-internal).
    #[default]
    None,
    /// Anonymous page mapped at a virtual page number.
    Anon(u64),
    /// File page: `(file id, page offset within file)`.
    File(u64, u64),
}

/// Nil value of a [`Page`]'s 32-bit LRU links. [`crate::memmap::MemMap`]
/// bounds a guest to [`MAX_FRAMES`] frames, so no frame index reaches it.
pub(crate) const NIL: u32 = u32::MAX;

/// Most frames one guest memmap may hold: LRU links are 32-bit frame
/// indexes with `u32::MAX` reserved as the nil link.
pub const MAX_FRAMES: u64 = NIL as u64;

/// A page descriptor: 16 bytes, one per guest frame, like the kernel
/// memmap.
///
/// The LRU links are 32-bit frame indexes, read and written through
/// [`Page::lru_prev`] / [`Page::set_lru_prev`] and their `next`
/// counterparts; only the memmap's snapshot codec touches the raw values.
/// The reverse map lives in a side table on the memmap
/// ([`crate::memmap::MemMap::rmap`]), so the dense walks the audits and
/// the persistence sweep make over every frame stay small.
#[derive(Debug, Clone, Copy)]
pub struct Page {
    /// State bits.
    pub flags: PageFlags,
    /// Current usage class.
    pub page_type: PageType,
    /// Which tier this frame physically lives on (static per `Gfn`).
    pub kind: MemKind,
    /// Workload-assigned access intensity (0 = never touched again,
    /// 255 = hottest). Drives both simulated access distribution and what
    /// an ideal placement would do.
    pub heat: u8,
    /// Workload-assigned *store* intensity (§4.3: NVM's read/write
    /// asymmetry makes write-heavy pages the most valuable promotions).
    /// Zero until the engine assigns it; accounting then tracks it like
    /// `heat`.
    pub write_heat: u8,
    /// LRU linkage: previous page on the list, [`NIL`] for none.
    pub(crate) lru_prev: u32,
    /// LRU linkage: next page on the list, [`NIL`] for none.
    pub(crate) lru_next: u32,
}

#[inline]
fn link(raw: u32) -> Option<Gfn> {
    (raw != NIL).then_some(Gfn(raw as u64))
}

#[inline]
fn raw_link(gfn: Option<Gfn>) -> u32 {
    match gfn {
        Some(g) => {
            assert!(g.0 < MAX_FRAMES, "{g} is past the 32-bit frame bound");
            g.0 as u32
        }
        None => NIL,
    }
}

impl Page {
    /// A free (unallocated) descriptor on the given tier.
    pub fn free_on(kind: MemKind) -> Self {
        Page {
            flags: PageFlags::empty(),
            page_type: PageType::HeapAnon,
            kind,
            heat: 0,
            write_heat: 0,
            lru_prev: NIL,
            lru_next: NIL,
        }
    }

    /// True when the page is allocated and backed.
    #[inline]
    pub fn is_present(&self) -> bool {
        self.flags.contains(PageFlags::PRESENT)
    }

    /// LRU linkage: the previous page on the list.
    #[inline]
    pub fn lru_prev(&self) -> Option<Gfn> {
        link(self.lru_prev)
    }

    /// LRU linkage: the next page on the list.
    #[inline]
    pub fn lru_next(&self) -> Option<Gfn> {
        link(self.lru_next)
    }

    /// Sets the previous-page link.
    ///
    /// # Panics
    ///
    /// Panics if `gfn` is at or past [`MAX_FRAMES`].
    #[inline]
    pub fn set_lru_prev(&mut self, gfn: Option<Gfn>) {
        self.lru_prev = raw_link(gfn);
    }

    /// Sets the next-page link.
    ///
    /// # Panics
    ///
    /// Panics if `gfn` is at or past [`MAX_FRAMES`].
    #[inline]
    pub fn set_lru_next(&mut self, gfn: Option<Gfn>) {
        self.lru_next = raw_link(gfn);
    }
}

/// A frame number travels as its `u64`; arrays of them in one slice pass.
impl hetero_sim::snap::Snap for Gfn {
    fn snap(&self, w: &mut hetero_sim::snap::SnapWriter) {
        w.put_u64(self.0);
    }
    fn unsnap(
        r: &mut hetero_sim::snap::SnapReader<'_>,
    ) -> Result<Self, hetero_sim::snap::SnapshotError> {
        Ok(Gfn(r.take_u64()?))
    }
    fn snap_slice(items: &[Self], w: &mut hetero_sim::snap::SnapWriter) {
        w.put_array(items, |g| g.0.to_le_bytes());
    }
    fn unsnap_vec(
        r: &mut hetero_sim::snap::SnapReader<'_>,
        len: usize,
    ) -> Result<Vec<Self>, hetero_sim::snap::SnapshotError> {
        r.take_array(len, |b| Gfn(u64::from_le_bytes(b)))
    }
}

hetero_sim::impl_snap!(enum PageType {
    0 => HeapAnon {},
    1 => PageCache {},
    2 => BufferCache {},
    3 => Slab {},
    4 => NetBuf {},
    5 => PageTable {},
    6 => Dma {},
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn page_type_indices_are_dense_and_unique() {
        let mut seen = [false; PageType::COUNT];
        for t in PageType::ALL {
            assert!(!seen[t.index()], "duplicate index for {t}");
            seen[t.index()] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn snapshot_tags_are_the_dense_indices() {
        use hetero_sim::snap::{Snap, SnapWriter};
        for (i, t) in PageType::ALL.into_iter().enumerate() {
            assert_eq!(t.index(), i, "{t}");
            let mut w = SnapWriter::new();
            t.snap(&mut w);
            assert_eq!(w.into_bytes(), [i as u8], "{t}");
        }
    }

    #[test]
    fn io_classification_matches_paper() {
        assert!(PageType::PageCache.is_io());
        assert!(PageType::BufferCache.is_io());
        assert!(PageType::NetBuf.is_io());
        assert!(!PageType::HeapAnon.is_io());
        assert!(!PageType::Slab.is_io());
    }

    #[test]
    fn pagetable_and_dma_are_pinned() {
        assert!(!PageType::PageTable.is_migratable());
        assert!(!PageType::Dma.is_migratable());
        assert!(PageType::HeapAnon.is_migratable());
        assert!(PageType::Slab.is_migratable());
    }

    #[test]
    fn flags_insert_remove_contains() {
        let mut f = PageFlags::empty();
        assert!(!f.contains(PageFlags::PRESENT));
        f.insert(PageFlags::PRESENT | PageFlags::DIRTY);
        assert!(f.contains(PageFlags::PRESENT));
        assert!(f.contains(PageFlags::DIRTY));
        assert!(f.contains(PageFlags::PRESENT | PageFlags::DIRTY));
        f.remove(PageFlags::DIRTY);
        assert!(!f.contains(PageFlags::DIRTY));
        assert!(f.contains(PageFlags::PRESENT));
    }

    #[test]
    fn flags_set_toggles() {
        let mut f = PageFlags::empty();
        f.set(PageFlags::ACTIVE, true);
        assert!(f.contains(PageFlags::ACTIVE));
        f.set(PageFlags::ACTIVE, false);
        assert!(!f.contains(PageFlags::ACTIVE));
    }

    #[test]
    fn fresh_page_is_not_present_and_unlinked() {
        let p = Page::free_on(MemKind::Fast);
        assert!(!p.is_present());
        assert_eq!((p.lru_prev(), p.lru_next()), (None, None));
    }

    #[test]
    fn descriptor_is_16_bytes() {
        assert_eq!(std::mem::size_of::<Page>(), 16);
    }

    #[test]
    fn links_round_trip_through_the_32_bit_encoding() {
        let mut p = Page::free_on(MemKind::Slow);
        p.set_lru_prev(Some(Gfn(0)));
        p.set_lru_next(Some(Gfn(MAX_FRAMES - 1)));
        assert_eq!(p.lru_prev(), Some(Gfn(0)));
        assert_eq!(p.lru_next(), Some(Gfn(MAX_FRAMES - 1)));
        p.set_lru_prev(None);
        assert_eq!(p.lru_prev(), None);
    }

    #[test]
    #[should_panic(expected = "32-bit frame bound")]
    fn link_past_the_frame_bound_panics() {
        Page::free_on(MemKind::Fast).set_lru_next(Some(Gfn(MAX_FRAMES)));
    }

    #[test]
    fn display_matches_fig4_labels() {
        assert_eq!(PageType::HeapAnon.to_string(), "heap/anon");
        assert_eq!(PageType::NetBuf.to_string(), "nw-buff");
        assert_eq!(Gfn(16).to_string(), "gfn:0x10");
    }
}
