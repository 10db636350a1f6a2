//! The guest memmap: one [`Page`] descriptor per guest frame, a reverse-map
//! side table, and the per-(type, tier) resident accounting the HeteroOS
//! allocator's demand-based prioritization consumes (§3.2).
//!
//! Guest frame numbers are statically partitioned into per-tier ranges at
//! boot (the boot allocator "initializes one NUMA node and its related data
//! structures for each memory type", §3.1), so a `Gfn`'s tier never changes.

use hetero_mem::heatgen::ColdLedger;
use hetero_mem::kind::KindMap;
use hetero_mem::MemKind;

use hetero_sim::snap::{Snap, SnapReader, SnapWriter, SnapshotError};

use crate::page::{Gfn, Page, PageFlags, PageType, RMap, MAX_FRAMES, NIL};

/// Aggregate residency of one `(page type, tier)` bucket.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Residency {
    /// Pages currently allocated in the bucket.
    pub pages: u64,
    /// Sum of the pages' heat values (drives simulated access splitting).
    pub heat: u64,
    /// Sum of the pages' write-heat values (drives store splitting).
    pub write_heat: u64,
}

/// The guest's page-descriptor array and tier layout.
///
/// Descriptors are 16 bytes ([`Page`]); each frame's reverse map sits in a
/// parallel side table ([`MemMap::rmap`]) that only allocation, free,
/// migration and unmap touch, so whole-memmap walks read descriptors only.
///
/// # Examples
///
/// ```
/// use hetero_guest::memmap::MemMap;
/// use hetero_guest::page::{Gfn, PageType};
/// use hetero_mem::MemKind;
///
/// let mut mm = MemMap::new(&[(MemKind::Fast, 16), (MemKind::Slow, 64)]);
/// let gfn = Gfn(mm.range(MemKind::Fast).start);
/// mm.set_allocated(gfn, PageType::HeapAnon, 200);
/// assert_eq!(mm.residency(PageType::HeapAnon, MemKind::Fast).pages, 1);
/// ```
#[derive(Debug, Clone)]
pub struct MemMap {
    pages: Vec<Page>,
    /// Reverse map per frame, indexed like `pages`.
    rmap: Vec<RMap>,
    ranges: Vec<(MemKind, std::ops::Range<u64>)>,
    residency: [KindMap<Residency>; PageType::COUNT],
    /// O(1) cold-active page counts (lazy LRU aging, DESIGN.md §13).
    /// Inert until [`MemMap::configure_cold_ledger`] arms it; every heat
    /// write and ACTIVE transition below keeps it exact.
    ledger: ColdLedger,
}

impl MemMap {
    /// Builds a memmap with the given per-tier frame counts, laid out
    /// fastest tier first.
    ///
    /// A guest holds at most [`MAX_FRAMES`] frames in total: LRU links
    /// are 32-bit frame indexes. Guest sizes come from the simulator's own
    /// configurations (no CLI flag sizes guest memory), so the bound is an
    /// internal invariant, asserted here.
    ///
    /// # Panics
    ///
    /// Panics on duplicate tiers, an empty layout, or more than
    /// [`MAX_FRAMES`] frames.
    pub fn new(layout: &[(MemKind, u64)]) -> Self {
        assert!(!layout.is_empty(), "memmap needs at least one tier");
        let mut sorted: Vec<(MemKind, u64)> = layout.to_vec();
        sorted.sort_by_key(|(k, _)| *k);
        for w in sorted.windows(2) {
            assert_ne!(w[0].0, w[1].0, "duplicate tier {}", w[0].0);
        }
        let total = sorted
            .iter()
            .try_fold(0u64, |sum, &(_, frames)| sum.checked_add(frames));
        assert!(
            matches!(total, Some(t) if t <= MAX_FRAMES),
            "memmap exceeds {MAX_FRAMES} frames"
        );
        let mut pages = Vec::new();
        let mut ranges = Vec::new();
        let mut base = 0u64;
        for (kind, frames) in sorted {
            ranges.push((kind, base..base + frames));
            pages.extend((0..frames).map(|_| Page::free_on(kind)));
            base += frames;
        }
        MemMap {
            rmap: vec![RMap::None; pages.len()],
            pages,
            ranges,
            residency: [KindMap::default(); PageType::COUNT],
            ledger: ColdLedger::new(),
        }
    }

    /// Arms the cold-active ledger with the LRU cold-heat threshold.
    ///
    /// Call at boot (or right after a crash rebuild), before any page goes
    /// on an active list — the reset-to-zero counts are exact only for an
    /// active-free map. Unconfigured maps keep legacy behaviour: the
    /// ledger stays inert and LRU aging uses its dense walk.
    pub fn configure_cold_ledger(&mut self, threshold: u8) {
        self.ledger.configure(threshold);
    }

    /// The cold-active ledger (threshold, per-tier counts, generation).
    pub fn cold_ledger(&self) -> &ColdLedger {
        &self.ledger
    }

    /// Exclusive access to the ledger's generation counter (the cooling
    /// pass bumps it; counts are maintained internally).
    pub fn cold_ledger_mut(&mut self) -> &mut ColdLedger {
        &mut self.ledger
    }

    /// Cold-active pages currently on `kind` — exact when the ledger is
    /// configured with the aging threshold in use, zero otherwise.
    #[inline]
    pub fn cold_active(&self, kind: MemKind) -> u64 {
        self.ledger.cold_active(kind)
    }

    /// Dense recount of cold-active pages per tier — the audit oracle for
    /// the incremental ledger. Walks every frame of each tier's range with
    /// no data-dependent branch, counting in four independent `u32` lanes
    /// (a tier holds at most [`MAX_FRAMES`] frames, so no lane can
    /// overflow); only the sanitizer should call this on hot paths.
    pub fn recount_cold_active(&self) -> KindMap<u64> {
        let mut out: KindMap<u64> = KindMap::default();
        let Some(threshold) = self.ledger.threshold() else {
            return out;
        };
        let cold = |p: &Page| (p.flags.contains(PageFlags::ACTIVE) & (p.heat < threshold)) as u32;
        for (kind, range) in &self.ranges {
            let mut lanes = [0u32; 4];
            let mut quads = self.pages[range.start as usize..range.end as usize].chunks_exact(4);
            for quad in &mut quads {
                for (lane, page) in lanes.iter_mut().zip(quad) {
                    *lane += cold(page);
                }
            }
            let rest = quads.remainder().iter().map(cold);
            out[*kind] = lanes.into_iter().chain(rest).map(u64::from).sum();
        }
        out
    }

    /// Moves a present page on or off an active LRU list, keeping the
    /// cold-active ledger in sync. The LRU registry routes **every**
    /// `ACTIVE` transition through here; flipping the flag via
    /// [`MemMap::page_mut`] desynchronises the ledger.
    ///
    /// # Panics
    ///
    /// Panics if the page is not present.
    #[inline]
    pub fn set_active(&mut self, gfn: Gfn, on: bool) {
        let p = &mut self.pages[gfn.index()];
        assert!(p.is_present(), "{gfn} is not allocated");
        let was = p.flags.contains(PageFlags::ACTIVE);
        if was == on {
            return;
        }
        p.flags.set(PageFlags::ACTIVE, on);
        if self.ledger.is_cold(p.heat) {
            let kind = p.kind;
            self.ledger.adjust(kind, if on { 1 } else { -1 });
        }
    }

    /// Total number of guest frames.
    pub fn total_frames(&self) -> u64 {
        self.pages.len() as u64
    }

    /// The `Gfn` range of a tier (empty range when not configured).
    pub fn range(&self, kind: MemKind) -> std::ops::Range<u64> {
        self.ranges
            .iter()
            .find(|(k, _)| *k == kind)
            .map(|(_, r)| r.clone())
            .unwrap_or(0..0)
    }

    /// The tier a frame belongs to.
    ///
    /// # Panics
    ///
    /// Panics when `gfn` is out of range.
    pub fn kind_of(&self, gfn: Gfn) -> MemKind {
        self.page(gfn).kind
    }

    /// Shared access to a page descriptor.
    ///
    /// # Panics
    ///
    /// Panics when `gfn` is out of range.
    #[inline]
    pub fn page(&self, gfn: Gfn) -> &Page {
        &self.pages[gfn.index()]
    }

    /// Exclusive access to a page descriptor.
    ///
    /// Mutating `page_type`, `kind`, `heat` or `PRESENT` through this
    /// reference without going through [`MemMap::set_allocated`] /
    /// [`MemMap::set_free`] / [`MemMap::set_heat`] desynchronises the
    /// residency accounting, and flipping `ACTIVE` without
    /// [`MemMap::set_active`] desynchronises the cold-active ledger; use
    /// it for the remaining flags and LRU links only.
    ///
    /// # Panics
    ///
    /// Panics when `gfn` is out of range.
    #[inline]
    pub fn page_mut(&mut self, gfn: Gfn) -> &mut Page {
        &mut self.pages[gfn.index()]
    }

    /// What a frame backs (its reverse map).
    ///
    /// # Panics
    ///
    /// Panics when `gfn` is out of range.
    #[inline]
    pub fn rmap(&self, gfn: Gfn) -> RMap {
        self.rmap[gfn.index()]
    }

    /// Sets a frame's reverse map. Allocation and free reset it to
    /// [`RMap::None`].
    ///
    /// # Panics
    ///
    /// Panics when `gfn` is out of range.
    #[inline]
    pub fn set_rmap(&mut self, gfn: Gfn, rmap: RMap) {
        self.rmap[gfn.index()] = rmap;
    }

    /// Marks a free page as allocated with the given type and heat,
    /// updating residency accounting.
    ///
    /// # Panics
    ///
    /// Panics if the page is already present.
    pub fn set_allocated(&mut self, gfn: Gfn, page_type: PageType, heat: u8) {
        let kind = {
            let p = &mut self.pages[gfn.index()];
            assert!(!p.is_present(), "{gfn} is already allocated");
            p.flags = PageFlags::PRESENT;
            p.page_type = page_type;
            p.heat = heat;
            p.write_heat = 0;
            p.set_lru_prev(None);
            p.set_lru_next(None);
            p.kind
        };
        self.rmap[gfn.index()] = RMap::None;
        let r = &mut self.residency[page_type.index()][kind];
        r.pages += 1;
        r.heat += heat as u64;
    }

    /// One-borrow fast path for the bulk allocators: marks a free page
    /// allocated *and* applies the LRU descriptor half of a head-insert
    /// (`LRU` flag, no previous link, the list's current head as the
    /// next link) plus the reverse map, in a single descriptor access. The
    /// caller completes the insert with
    /// [`crate::lru::LruList::push_front_prelinked`].
    ///
    /// State-equivalent to [`MemMap::set_allocated`] followed by
    /// [`MemMap::set_active`]`(gfn, active)` and the descriptor writes of
    /// an `LruList` head-insert — including the cold-active ledger charge
    /// an activation of a cold page incurs. Returns the frame's tier.
    ///
    /// # Panics
    ///
    /// Panics if the page is already present.
    pub fn set_allocated_linked(
        &mut self,
        gfn: Gfn,
        page_type: PageType,
        heat: u8,
        active: bool,
        lru_next: Option<Gfn>,
        rmap: RMap,
    ) -> MemKind {
        let kind = {
            let p = &mut self.pages[gfn.index()];
            assert!(!p.is_present(), "{gfn} is already allocated");
            let mut flags = PageFlags::PRESENT | PageFlags::LRU;
            if active {
                flags.insert(PageFlags::ACTIVE);
            }
            p.flags = flags;
            p.page_type = page_type;
            p.heat = heat;
            p.write_heat = 0;
            p.set_lru_prev(None);
            p.set_lru_next(lru_next);
            p.kind
        };
        self.rmap[gfn.index()] = rmap;
        let r = &mut self.residency[page_type.index()][kind];
        r.pages += 1;
        r.heat += heat as u64;
        if active && self.ledger.is_cold(heat) {
            self.ledger.adjust(kind, 1);
        }
        kind
    }

    /// Marks an allocated page free, updating residency accounting.
    ///
    /// # Panics
    ///
    /// Panics if the page is not present.
    pub fn set_free(&mut self, gfn: Gfn) {
        let (kind, page_type, heat, write_heat) = {
            let p = &mut self.pages[gfn.index()];
            assert!(p.is_present(), "{gfn} is not allocated");
            let prev = (p.kind, p.page_type, p.heat, p.write_heat);
            if p.flags.contains(PageFlags::ACTIVE) && self.ledger.is_cold(p.heat) {
                self.ledger.adjust(p.kind, -1);
            }
            p.flags = PageFlags::empty();
            p.heat = 0;
            p.write_heat = 0;
            p.set_lru_prev(None);
            p.set_lru_next(None);
            prev
        };
        self.rmap[gfn.index()] = RMap::None;
        let r = &mut self.residency[page_type.index()][kind];
        r.pages -= 1;
        r.heat -= heat as u64;
        r.write_heat -= write_heat as u64;
    }

    /// Sets the type a free frame keeps ([`MemMap::set_free`] leaves a
    /// frame's type as it was) and returns the frame's tier. A free frame
    /// is in no residency count, so nothing else changes.
    ///
    /// # Panics
    ///
    /// Panics if the page is present.
    pub(crate) fn set_free_type(&mut self, gfn: Gfn, page_type: PageType) -> MemKind {
        let p = &mut self.pages[gfn.index()];
        assert!(!p.is_present(), "{gfn} is allocated");
        p.page_type = page_type;
        p.kind
    }

    /// Updates a present page's heat, keeping accounting in sync.
    ///
    /// # Panics
    ///
    /// Panics if the page is not present.
    pub fn set_heat(&mut self, gfn: Gfn, heat: u8) {
        let (kind, page_type, old) = {
            let p = &mut self.pages[gfn.index()];
            assert!(p.is_present(), "{gfn} is not allocated");
            let old = p.heat;
            p.heat = heat;
            if p.flags.contains(PageFlags::ACTIVE) {
                let crossed = self.ledger.is_cold(heat) as i64 - self.ledger.is_cold(old) as i64;
                if crossed != 0 {
                    self.ledger.adjust(p.kind, crossed);
                }
            }
            (p.kind, p.page_type, old)
        };
        let r = &mut self.residency[page_type.index()][kind];
        r.heat = r.heat - old as u64 + heat as u64;
    }

    /// Updates a present page's write heat, keeping accounting in sync.
    ///
    /// # Panics
    ///
    /// Panics if the page is not present.
    pub fn set_write_heat(&mut self, gfn: Gfn, write_heat: u8) {
        let (kind, page_type, old) = {
            let p = &mut self.pages[gfn.index()];
            assert!(p.is_present(), "{gfn} is not allocated");
            let old = p.write_heat;
            p.write_heat = write_heat;
            (p.kind, p.page_type, old)
        };
        let r = &mut self.residency[page_type.index()][kind];
        r.write_heat = r.write_heat - old as u64 + write_heat as u64;
    }

    /// Total write heat on a tier for one type.
    pub fn write_heat_on(&self, page_type: PageType, kind: MemKind) -> u64 {
        self.residency(page_type, kind).write_heat
    }

    /// Residency of one `(type, tier)` bucket.
    pub fn residency(&self, page_type: PageType, kind: MemKind) -> Residency {
        self.residency[page_type.index()][kind]
    }

    /// Total resident pages of a type across tiers.
    pub fn resident_pages(&self, page_type: PageType) -> u64 {
        MemKind::ALL
            .iter()
            .map(|&k| self.residency(page_type, k).pages)
            .sum()
    }

    /// Total resident pages on a tier across types.
    pub fn resident_on(&self, kind: MemKind) -> u64 {
        PageType::ALL
            .iter()
            .map(|&t| self.residency(t, kind).pages)
            .sum()
    }

    /// Total heat on a tier for one type.
    pub fn heat_on(&self, page_type: PageType, kind: MemKind) -> u64 {
        self.residency(page_type, kind).heat
    }

    /// Iterates the frames of one tier.
    pub fn iter_kind(&self, kind: MemKind) -> impl Iterator<Item = Gfn> + '_ {
        self.range(kind).map(Gfn)
    }

    /// The descriptors of one tier's frames, in frame order: element `i`
    /// is frame `range(kind).start + i` (empty when the tier is not
    /// configured).
    #[inline]
    pub fn tier_pages(&self, kind: MemKind) -> &[Page] {
        let range = self.range(kind);
        &self.pages[range.start as usize..range.end as usize]
    }
}

hetero_sim::impl_snap!(struct Residency { pages, heat, write_heat });

/// One frame's encoding: the descriptor's flags (`u16`), page-type tag,
/// tier tag, heat and write heat; each LRU link as a presence byte and, if
/// present, its `u64` frame; then the reverse map's tag (0 none, 1 anon,
/// 2 file) and its `u64` payload words. The longest frame takes 41 bytes.
const MAX_FRAME_BYTES: usize = 6 + 2 * 9 + 17;
/// The shortest: no links and no reverse map.
const MIN_FRAME_BYTES: usize = 9;

/// Writes one frame's encoding into the zeroed `out` (a
/// [`SnapWriter::put_record`] window), returning its length; zero bytes
/// (absent links, no reverse map) are left as they are.
#[inline(always)]
fn encode_frame(page: &Page, rmap: RMap, out: &mut [u8; MAX_FRAME_BYTES]) -> usize {
    out[..2].copy_from_slice(&page.flags.bits().to_le_bytes());
    out[2] = page.page_type.index() as u8;
    out[3] = page.kind.tier();
    out[4] = page.heat;
    out[5] = page.write_heat;
    let mut n = 6;
    for raw in [page.lru_prev, page.lru_next] {
        if raw == NIL {
            n += 1;
        } else {
            out[n] = 1;
            out[n + 1..n + 9].copy_from_slice(&u64::from(raw).to_le_bytes());
            n += 9;
        }
    }
    match rmap {
        RMap::None => n + 1,
        RMap::Anon(vpn) => {
            out[n] = 1;
            out[n + 1..n + 9].copy_from_slice(&vpn.to_le_bytes());
            n + 9
        }
        RMap::File(file, offset) => {
            out[n] = 2;
            out[n + 1..n + 9].copy_from_slice(&file.to_le_bytes());
            out[n + 9..n + 17].copy_from_slice(&offset.to_le_bytes());
            n + 17
        }
    }
}

/// Reads one LRU link: a presence byte, then a frame below `frames`.
#[inline(always)]
fn take_link(r: &mut SnapReader<'_>, frames: u64) -> Result<u32, SnapshotError> {
    match r.take_u8()? {
        0 => Ok(NIL),
        1 => match r.take_u64()? {
            g if g < frames => Ok(g as u32),
            g => Err(link_past_end(g, frames)),
        },
        other => Err(SnapshotError::bad_presence(other)),
    }
}

#[cold]
#[inline(never)]
fn link_past_end(g: u64, frames: u64) -> SnapshotError {
    SnapshotError::corrupt(format!(
        "LRU link {} is past the memmap's {frames} frames",
        Gfn(g)
    ))
}

/// Reads one frame written by [`encode_frame`]. Each field is read and
/// checked in order, so the first bad byte or missing byte decides the
/// error.
#[inline(always)]
fn decode_frame(r: &mut SnapReader<'_>, frames: u64) -> Result<(Page, RMap), SnapshotError> {
    let flags = PageFlags::from_bits(r.take_u16()?);
    let tag = r.take_u8()?;
    let Some(&page_type) = PageType::ALL.get(usize::from(tag)) else {
        return Err(SnapshotError::bad_tag("PageType", tag));
    };
    let tag = r.take_u8()?;
    let Some(kind) = MemKind::from_tier(tag) else {
        return Err(SnapshotError::bad_tag("MemKind", tag));
    };
    let page = Page {
        flags,
        page_type,
        kind,
        heat: r.take_u8()?,
        write_heat: r.take_u8()?,
        lru_prev: take_link(r, frames)?,
        lru_next: take_link(r, frames)?,
    };
    let rmap = match r.take_u8()? {
        0 => RMap::None,
        1 => RMap::Anon(r.take_u64()?),
        2 => RMap::File(r.take_u64()?, r.take_u64()?),
        tag => return Err(SnapshotError::bad_tag("RMap", tag)),
    };
    Ok((page, rmap))
}

/// The `SNAP_VERSION` 2 layout: the frame count, each frame's descriptor
/// and reverse map (`encode_frame`), then the tier layout, residency and
/// ledger. Both directions make one pass over the descriptor and reverse
/// map arrays.
impl Snap for MemMap {
    fn snap(&self, w: &mut SnapWriter) {
        w.put_usize(self.pages.len());
        for (page, &rmap) in self.pages.iter().zip(&self.rmap) {
            w.put_record(|out| encode_frame(page, rmap, out));
        }
        self.ranges.snap(w);
        self.residency.snap(w);
        self.ledger.snap(w);
    }

    /// Rejects a frame count past [`MAX_FRAMES`] and any LRU link at or
    /// past the frame count as [`SnapshotError::Corrupt`].
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        let frames = r.take_u64()?;
        if frames > MAX_FRAMES {
            return Err(SnapshotError::corrupt(format!(
                "memmap of {frames} frames exceeds {MAX_FRAMES}"
            )));
        }
        // One reservation per array, capped by what the remaining bytes
        // can encode so a corrupt count cannot over-allocate.
        let cap = (frames as usize).min(r.remaining() / MIN_FRAME_BYTES);
        let mut pages = Vec::with_capacity(cap);
        let mut rmap = Vec::with_capacity(cap);
        for _ in 0..frames {
            let (page, map) = decode_frame(r, frames)?;
            pages.push(page);
            rmap.push(map);
        }
        Ok(MemMap {
            pages,
            rmap,
            ranges: Snap::unsnap(r)?,
            residency: Snap::unsnap(r)?,
            ledger: Snap::unsnap(r)?,
        })
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    fn mm() -> MemMap {
        MemMap::new(&[(MemKind::Fast, 8), (MemKind::Slow, 16)])
    }

    #[test]
    fn layout_is_fastest_first_and_contiguous() {
        let m = MemMap::new(&[(MemKind::Slow, 16), (MemKind::Fast, 8)]);
        assert_eq!(m.range(MemKind::Fast), 0..8);
        assert_eq!(m.range(MemKind::Slow), 8..24);
        assert_eq!(m.total_frames(), 24);
        assert_eq!(m.range(MemKind::Medium), 0..0);
    }

    #[test]
    fn kind_of_respects_ranges() {
        let m = mm();
        assert_eq!(m.kind_of(Gfn(0)), MemKind::Fast);
        assert_eq!(m.kind_of(Gfn(7)), MemKind::Fast);
        assert_eq!(m.kind_of(Gfn(8)), MemKind::Slow);
    }

    #[test]
    fn allocate_free_roundtrip_keeps_accounting() {
        let mut m = mm();
        m.set_allocated(Gfn(1), PageType::Slab, 10);
        m.set_allocated(Gfn(9), PageType::Slab, 20);
        assert_eq!(m.residency(PageType::Slab, MemKind::Fast).pages, 1);
        assert_eq!(m.residency(PageType::Slab, MemKind::Fast).heat, 10);
        assert_eq!(m.residency(PageType::Slab, MemKind::Slow).heat, 20);
        assert_eq!(m.resident_pages(PageType::Slab), 2);
        assert_eq!(m.resident_on(MemKind::Fast), 1);
        m.set_free(Gfn(1));
        assert_eq!(
            m.residency(PageType::Slab, MemKind::Fast),
            Residency::default()
        );
        assert_eq!(m.resident_pages(PageType::Slab), 1);
    }

    #[test]
    fn set_heat_rebalances_sums() {
        let mut m = mm();
        m.set_allocated(Gfn(0), PageType::HeapAnon, 100);
        m.set_heat(Gfn(0), 30);
        assert_eq!(m.heat_on(PageType::HeapAnon, MemKind::Fast), 30);
        assert_eq!(m.page(Gfn(0)).heat, 30);
    }

    #[test]
    #[should_panic(expected = "already allocated")]
    fn double_allocate_panics() {
        let mut m = mm();
        m.set_allocated(Gfn(0), PageType::HeapAnon, 1);
        m.set_allocated(Gfn(0), PageType::HeapAnon, 1);
    }

    #[test]
    #[should_panic(expected = "not allocated")]
    fn free_of_free_page_panics() {
        let mut m = mm();
        m.set_free(Gfn(0));
    }

    #[test]
    #[should_panic(expected = "duplicate tier")]
    fn duplicate_tier_rejected() {
        MemMap::new(&[(MemKind::Fast, 4), (MemKind::Fast, 4)]);
    }

    #[test]
    fn cold_ledger_tracks_active_transitions_and_heat_crossings() {
        let mut m = mm();
        m.configure_cold_ledger(48);
        m.set_allocated(Gfn(0), PageType::HeapAnon, 100);
        m.set_allocated(Gfn(1), PageType::HeapAnon, 10);
        assert_eq!(
            m.cold_active(MemKind::Fast),
            0,
            "allocation is not activation"
        );
        m.set_active(Gfn(0), true); // hot-active: not cold
        m.set_active(Gfn(1), true); // cold-active
        assert_eq!(m.cold_active(MemKind::Fast), 1);
        m.set_heat(Gfn(0), 20); // hot page cools below the threshold
        assert_eq!(m.cold_active(MemKind::Fast), 2);
        m.set_heat(Gfn(1), 200); // cold page reheats
        assert_eq!(m.cold_active(MemKind::Fast), 1);
        m.set_active(Gfn(0), false); // deactivation removes it
        assert_eq!(m.cold_active(MemKind::Fast), 0);
        m.set_active(Gfn(0), false); // idempotent
        assert_eq!(m.cold_active(MemKind::Fast), 0);
    }

    #[test]
    fn cold_ledger_decrements_on_free_of_cold_active_page() {
        let mut m = mm();
        m.configure_cold_ledger(48);
        m.set_allocated(Gfn(9), PageType::PageCache, 5);
        m.set_active(Gfn(9), true);
        assert_eq!(m.cold_active(MemKind::Slow), 1);
        m.set_free(Gfn(9));
        assert_eq!(m.cold_active(MemKind::Slow), 0);
    }

    #[test]
    fn unconfigured_ledger_counts_nothing() {
        let mut m = mm();
        m.set_allocated(Gfn(0), PageType::HeapAnon, 1);
        m.set_active(Gfn(0), true);
        assert_eq!(m.cold_active(MemKind::Fast), 0);
        assert!(!m.cold_ledger().is_configured());
        assert_eq!(m.recount_cold_active()[MemKind::Fast], 0);
    }

    #[test]
    fn recount_matches_incremental_ledger() {
        let mut m = mm();
        m.configure_cold_ledger(48);
        for (i, heat) in [100u8, 10, 47, 48, 0].iter().enumerate() {
            m.set_allocated(Gfn(i as u64), PageType::HeapAnon, *heat);
            m.set_active(Gfn(i as u64), true);
        }
        m.set_active(Gfn(4), false);
        m.set_heat(Gfn(0), 3);
        let recount = m.recount_cold_active();
        for k in MemKind::ALL {
            assert_eq!(recount[k], m.cold_active(k), "{k}");
        }
        assert_eq!(
            m.cold_active(MemKind::Fast),
            3,
            "heats 3, 10, 47 active-cold"
        );
    }

    /// 64-bit FNV-1a digest of `bytes`.
    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
        })
    }

    /// A small memmap exercising every encoded descriptor feature: LRU
    /// links in both directions, all three reverse-map variants, write
    /// heat, a ballooned page and an armed cold ledger.
    fn hand_built() -> MemMap {
        use crate::lru::{LruClass, LruRegistry};
        let mut m = mm();
        let mut lru = LruRegistry::new();
        m.configure_cold_ledger(48);
        let mut link = |m: &mut MemMap, g: u64, t: PageType, heat: u8, active: bool, rmap| {
            let gfn = Gfn(g);
            let kind = m.kind_of(gfn);
            let class = LruClass::of(t).unwrap();
            let list = lru.fresh_list_mut(kind, class, active);
            m.set_allocated_linked(gfn, t, heat, active, list.peek_front(), rmap);
            list.push_front_prelinked(m, gfn);
        };
        link(&mut m, 0, PageType::HeapAnon, 200, true, RMap::Anon(0x40));
        link(&mut m, 1, PageType::HeapAnon, 10, true, RMap::Anon(0x41));
        link(&mut m, 5, PageType::HeapAnon, 90, true, RMap::Anon(0x45));
        link(&mut m, 2, PageType::PageCache, 30, false, RMap::File(3, 7));
        link(
            &mut m,
            10,
            PageType::BufferCache,
            60,
            false,
            RMap::File(4, 8),
        );
        link(&mut m, 11, PageType::PageCache, 20, false, RMap::File(3, 9));
        m.set_write_heat(Gfn(5), 17);
        m.set_heat(Gfn(1), 70);
        m.set_allocated(Gfn(3), PageType::Slab, 5);
        m.set_allocated(Gfn(20), PageType::Dma, 0);
        m.page_mut(Gfn(20)).flags.insert(PageFlags::BALLOONED);
        m
    }

    #[test]
    fn snapshot_bytes_match_the_pinned_digest() {
        use hetero_sim::snap::{Snap, SnapReader, SnapWriter};
        let m = hand_built();
        let mut w = SnapWriter::new();
        m.snap(&mut w);
        let bytes = w.into_bytes();
        assert_eq!(bytes.len(), 924);
        assert_eq!(
            fnv1a(&bytes),
            0x23a5_57bd_596d_74db,
            "memmap wire format moved"
        );
        let back = MemMap::unsnap(&mut SnapReader::new(&bytes)).unwrap();
        let mut again = SnapWriter::new();
        back.snap(&mut again);
        assert_eq!(
            again.into_bytes(),
            bytes,
            "decode + encode is not the identity"
        );
    }

    /// Each tag and presence byte of a memmap encoding, paired with the
    /// first value its decoder rejects.
    fn tag_bytes(bytes: &[u8]) -> Vec<(usize, u8)> {
        let word = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap());
        let mut out = Vec::new();
        let mut at = 8;
        for _ in 0..word(0) {
            out.extend([(at + 2, PageType::COUNT as u8), (at + 3, 3)]);
            at += 6;
            for _link in 0..2 {
                out.push((at, 2));
                at += if bytes[at] == 1 { 9 } else { 1 };
            }
            out.push((at, 3));
            at += [1, 9, 17][bytes[at] as usize];
        }
        let ranges = word(at);
        at += 8;
        for _ in 0..ranges {
            out.push((at, 3));
            at += 17;
        }
        at += PageType::COUNT * 3 * 24;
        out.push((at, 2));
        out
    }

    /// FNV-1a of the `Display` strings `decode` returns for every proper
    /// prefix of `bytes`, then for each `(offset, value)` mutation.
    pub(crate) fn error_digest<T, E: std::fmt::Display>(
        bytes: &[u8],
        mutations: &[(usize, Vec<u8>)],
        decode: impl Fn(&[u8]) -> Result<T, E>,
    ) -> u64 {
        let mut seen = String::new();
        let mut record = |input: &[u8]| {
            match decode(input) {
                Ok(_) => seen.push_str("ok"),
                Err(e) => seen.push_str(&e.to_string()),
            }
            seen.push('\n');
        };
        for cut in 0..bytes.len() {
            record(&bytes[..cut]);
        }
        for (at, value) in mutations {
            let mut mutant = bytes.to_vec();
            mutant[*at..*at + value.len()].copy_from_slice(value);
            record(&mutant);
        }
        fnv1a(seen.as_bytes())
    }

    /// Recorded with the per-field decoder this one replaced; the
    /// one-pass decoder must report exactly the same errors.
    const MEMMAP_ERROR_DIGEST: u64 = 0x937c_0ae6_0748_c1b7;

    #[test]
    fn decode_errors_match_the_pinned_digest() {
        let mut w = SnapWriter::new();
        hand_built().snap(&mut w);
        let bytes = w.into_bytes();
        let mut mutations: Vec<(usize, Vec<u8>)> = tag_bytes(&bytes)
            .into_iter()
            .map(|(at, v)| (at, vec![v]))
            .collect();
        assert_eq!(mutations.len(), 24 * 5 + 2 + 1);
        // Frame 0's previous link, pointed one past the last frame.
        mutations.push((8 + 6 + 1, 24u64.to_le_bytes().to_vec()));
        let digest = error_digest(&bytes, &mutations, |b| {
            let mut r = SnapReader::new(b);
            let m = MemMap::unsnap(&mut r)?;
            r.finish().map(|()| m)
        });
        assert_eq!(
            digest, MEMMAP_ERROR_DIGEST,
            "memmap decode errors moved: {digest:#018x}"
        );
    }

    #[test]
    fn decode_rejects_lru_links_past_the_frame_count() {
        use hetero_sim::snap::{Snap, SnapReader, SnapWriter, SnapshotError};
        let mut w = SnapWriter::new();
        hand_built().snap(&mut w);
        let bytes = w.into_bytes();
        // The u64 frame count (8 bytes) and frame 0's six fixed descriptor
        // bytes come first; frame 0's previous link follows: a presence
        // byte, then the little-endian target frame.
        let prev = 8 + 6;
        assert_eq!(bytes[prev], 1, "frame 0 is linked after frame 1");
        assert_eq!(bytes[prev + 1..prev + 9], 1u64.to_le_bytes());
        for target in [23u64, 24, 25, u32::MAX as u64, 1 << 32, u64::MAX] {
            let mut mutant = bytes.clone();
            mutant[prev + 1..prev + 9].copy_from_slice(&target.to_le_bytes());
            let decoded =
                std::panic::catch_unwind(|| MemMap::unsnap(&mut SnapReader::new(&mutant)));
            match decoded.expect("decode must not panic") {
                Ok(_) => assert!(target < 24, "link to gfn {target} decoded"),
                Err(SnapshotError::Corrupt(msg)) => {
                    assert!(target >= 24, "in-range link {target} rejected: {msg}");
                    assert!(msg.contains("past the memmap's 24 frames"), "{msg}");
                }
                Err(e) => panic!("link to gfn {target}: unexpected error {e}"),
            }
        }
        let mut oversized = bytes.clone();
        oversized[..8].copy_from_slice(&(MAX_FRAMES + 1).to_le_bytes());
        assert!(matches!(
            MemMap::unsnap(&mut SnapReader::new(&oversized)),
            Err(SnapshotError::Corrupt(_))
        ));
    }

    #[test]
    #[should_panic(expected = "memmap exceeds")]
    fn layouts_past_the_32_bit_frame_bound_are_rejected() {
        MemMap::new(&[(MemKind::Fast, MAX_FRAMES), (MemKind::Slow, 1)]);
    }

    #[test]
    fn rmap_side_table_follows_allocation_and_free() {
        let mut m = mm();
        m.set_allocated_linked(Gfn(4), PageType::HeapAnon, 9, true, None, RMap::Anon(7));
        assert_eq!(m.rmap(Gfn(4)), RMap::Anon(7));
        m.set_free(Gfn(4));
        assert_eq!(m.rmap(Gfn(4)), RMap::None);
        m.set_allocated(Gfn(4), PageType::PageCache, 1);
        assert_eq!(m.rmap(Gfn(4)), RMap::None);
        m.set_rmap(Gfn(4), RMap::File(2, 3));
        assert_eq!(m.rmap(Gfn(4)), RMap::File(2, 3));
        assert_eq!(m.rmap(Gfn(5)), RMap::None, "neighbours are untouched");
    }

    #[test]
    fn iter_kind_yields_tier_frames() {
        let m = mm();
        let fast: Vec<Gfn> = m.iter_kind(MemKind::Fast).collect();
        assert_eq!(fast.len(), 8);
        assert!(fast.iter().all(|&g| m.kind_of(g) == MemKind::Fast));
    }
}
