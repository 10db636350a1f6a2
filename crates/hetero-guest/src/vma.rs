//! Virtual memory areas and the guest address space.
//!
//! HeteroOS extracts its VMM *tracking list* from "address ranges of
//! contiguous memory regions … using the virtual memory area (VMA)
//! structure" (§4.1), and its LRU eagerly demotes pages of regions being
//! unmapped (§3.3). This module provides the VMA tree those mechanisms walk:
//! an ordered map of non-overlapping regions with mmap/munmap (including
//! partial unmaps with splitting), plus an index of the holes between them
//! so first fit need not walk the regions below the one it picks.

use std::collections::BTreeMap;
use std::fmt;
use std::ops::Bound;

use hetero_mem::MemKind;
use hetero_sim::snap::{Snap, SnapReader, SnapWriter, SnapshotError};

use crate::pagetable::VPN_LIMIT;

/// What a VMA backs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VmaKind {
    /// Anonymous memory (heap, stacks).
    Anon,
    /// A file mapping (`mmap` of I/O data — X-Stream's input graph, LevelDB's
    /// memory-mapped database).
    FileMap,
}

/// One virtual memory area: `[start, start + pages)` in virtual page numbers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Vma {
    /// First virtual page number.
    pub start: u64,
    /// Length in pages.
    pub pages: u64,
    /// Region kind.
    pub kind: VmaKind,
    /// Optional explicit tier placement from an extended `mmap()` flag
    /// (§3.1 — supported, but "HeteroOS is not dependent on such
    /// application-level changes").
    pub mem_hint: Option<MemKind>,
}

impl Vma {
    /// One-past-the-end virtual page number.
    #[inline]
    pub fn end(&self) -> u64 {
        self.start + self.pages
    }

    /// True if `vpn` falls inside this region.
    #[inline]
    pub fn contains(&self, vpn: u64) -> bool {
        (self.start..self.end()).contains(&vpn)
    }
}

impl fmt::Display for Vma {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "vma[{:#x}..{:#x}) {:?}",
            self.start,
            self.end(),
            self.kind
        )
    }
}

/// Error returned by [`AddressSpace::mmap`] when no gap is large enough.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NoVirtualSpace {
    /// Pages requested.
    pub pages: u64,
}

impl fmt::Display for NoVirtualSpace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "no virtual address gap of {} pages", self.pages)
    }
}

impl std::error::Error for NoVirtualSpace {}

/// A process address space: ordered, non-overlapping VMAs.
///
/// Beside the VMAs it keeps two things derived from them, as Linux keeps
/// its VMA gaps in an augmented tree: the unmapped holes below the last
/// VMA, which make first fit cost the holes it passes over rather than
/// every VMA below the one it picks, and the anonymous page total the
/// tracking list needs. Neither is encoded: decoding rebuilds both.
///
/// # Examples
///
/// ```
/// use hetero_guest::vma::{AddressSpace, VmaKind};
///
/// let mut space = AddressSpace::new(1 << 20);
/// let vma = space.mmap(16, VmaKind::Anon, None)?;
/// assert_eq!(space.mapped_pages(), 16);
/// let removed = space.munmap(vma.start + 4, 4);
/// assert_eq!(removed, 4);
/// assert_eq!(space.mapped_pages(), 12);
/// # Ok::<(), hetero_guest::vma::NoVirtualSpace>(())
/// ```
#[derive(Debug, Clone)]
pub struct AddressSpace {
    vmas: BTreeMap<u64, Vma>,
    limit: u64,
    /// The unmapped holes below the last VMA's end, start → end.
    holes: BTreeMap<u64, u64>,
    /// Pages in anonymous VMAs.
    anon_pages: u64,
}

impl AddressSpace {
    /// Creates an address space of `limit` virtual pages.
    ///
    /// # Panics
    ///
    /// Panics if `limit` is past [`VPN_LIMIT`], which the page table
    /// cannot map.
    pub fn new(limit: u64) -> Self {
        assert!(limit <= VPN_LIMIT, "limit {limit:#x} is past VPN_LIMIT");
        AddressSpace {
            vmas: BTreeMap::new(),
            limit,
            holes: BTreeMap::new(),
            anon_pages: 0,
        }
    }

    /// Number of mapped pages across all VMAs.
    pub fn mapped_pages(&self) -> u64 {
        self.vmas.values().map(|v| v.pages).sum()
    }

    /// Number of VMAs.
    pub fn vma_count(&self) -> usize {
        self.vmas.len()
    }

    /// Iterates VMAs in address order.
    pub fn iter(&self) -> impl Iterator<Item = &Vma> {
        self.vmas.values()
    }

    /// The VMA containing `vpn`, if any.
    pub fn find(&self, vpn: u64) -> Option<&Vma> {
        self.vmas
            .range(..=vpn)
            .next_back()
            .map(|(_, v)| v)
            .filter(|v| v.contains(vpn))
    }

    /// One past the last VMA: where the unmapped tail begins.
    fn top(&self) -> u64 {
        self.vmas.last_key_value().map_or(0, |(_, v)| v.end())
    }

    /// Maps a new region of `pages` pages in the first sufficient gap: the
    /// lowest hole that holds it, else the tail above the last VMA.
    ///
    /// # Errors
    ///
    /// Returns [`NoVirtualSpace`] when no gap fits (or `pages` is zero).
    pub fn mmap(
        &mut self,
        pages: u64,
        kind: VmaKind,
        mem_hint: Option<MemKind>,
    ) -> Result<Vma, NoVirtualSpace> {
        if pages == 0 || pages > self.limit {
            return Err(NoVirtualSpace { pages });
        }
        let start = match self.holes.iter().find(|&(&s, &e)| e - s >= pages) {
            Some((&s, &e)) => {
                self.holes.remove(&s);
                if e - s > pages {
                    self.holes.insert(s + pages, e);
                }
                s
            }
            None => {
                let top = self.top();
                if self.limit - top < pages {
                    return Err(NoVirtualSpace { pages });
                }
                top
            }
        };
        let vma = Vma {
            start,
            pages,
            kind,
            mem_hint,
        };
        self.vmas.insert(vma.start, vma);
        if kind == VmaKind::Anon {
            self.anon_pages += pages;
        }
        Ok(vma)
    }

    /// Unmaps `[vpn, vpn + pages)`, splitting partially covered VMAs.
    ///
    /// Returns the number of previously mapped pages removed (pages in the
    /// range that were not mapped are skipped, like POSIX `munmap`). Only
    /// the VMA that starts below `vpn` and those starting inside the range
    /// are examined.
    pub fn munmap(&mut self, vpn: u64, pages: u64) -> u64 {
        if pages == 0 {
            return 0;
        }
        let end = vpn.saturating_add(pages);
        let below = self
            .vmas
            .range(..vpn)
            .next_back()
            .map(|(_, v)| *v)
            .filter(|v| v.end() > vpn);
        let mut removed = below.map_or(0, |v| self.cut(v, vpn, end));
        while let Some((_, &v)) = self.vmas.range(vpn..end).next() {
            removed += self.cut(v, vpn, end);
        }
        if removed > 0 {
            // The cut joins every hole between the VMAs around it; at the
            // top it joins the tail, which is no hole.
            let lo = self
                .vmas
                .range(..vpn)
                .next_back()
                .map_or(0, |(_, v)| v.end());
            let hi = self.vmas.range(end..).next().map(|(&s, _)| s);
            while let Some((&s, _)) = self.holes.range(lo..hi.unwrap_or(u64::MAX)).next() {
                self.holes.remove(&s);
            }
            if let Some(hi) = hi {
                self.holes.insert(lo, hi);
            }
        }
        removed
    }

    /// Removes `v`'s pages inside `[vpn, end)`, keeping the pieces outside
    /// as VMAs of their own. Returns the pages removed.
    fn cut(&mut self, v: Vma, vpn: u64, end: u64) -> u64 {
        self.vmas.remove(&v.start);
        let cut_start = v.start.max(vpn);
        let cut_end = v.end().min(end);
        if v.start < cut_start {
            let left = Vma {
                pages: cut_start - v.start,
                ..v
            };
            self.vmas.insert(left.start, left);
        }
        if v.end() > cut_end {
            let right = Vma {
                start: cut_end,
                pages: v.end() - cut_end,
                ..v
            };
            self.vmas.insert(right.start, right);
        }
        let cut = cut_end - cut_start;
        if v.kind == VmaKind::Anon {
            self.anon_pages -= cut;
        }
        cut
    }

    /// Pages in anonymous VMAs: the size of the tracking list HeteroOS
    /// exports to the VMM (§4.1).
    pub fn anon_pages(&self) -> u64 {
        self.anon_pages
    }

    /// The tracking list HeteroOS exports to the VMM (§4.1): the address
    /// ranges `(start, end)` of the anonymous VMAs, in address order.
    pub fn anon_ranges(&self) -> impl Iterator<Item = (u64, u64)> + Clone + '_ {
        Self::anon(self.vmas.values())
    }

    /// Where a walk of the tracking list that resumes at `vpn` starts, and
    /// the ranges from there on: `vpn` itself when an anonymous VMA holds
    /// it, else the start of the first anonymous VMA above it, else (the
    /// walk wraps) of the first one. `None` when there is no anonymous
    /// VMA. A seek, not a walk from the first VMA.
    pub fn anon_ranges_from(
        &self,
        vpn: u64,
    ) -> Option<(u64, impl Iterator<Item = (u64, u64)> + '_)> {
        let (start, at) = match self.find(vpn).filter(|v| v.kind == VmaKind::Anon) {
            Some(v) => (v.start, vpn),
            None => {
                let above = self.vmas.range((Bound::Excluded(vpn), Bound::Unbounded));
                let next = above
                    .chain(self.vmas.range(..=vpn))
                    .find(|(_, v)| v.kind == VmaKind::Anon)
                    .map(|(&s, _)| s)?;
                (next, next)
            }
        };
        Some((at, Self::anon(self.vmas.range(start..).map(|(_, v)| v))))
    }

    fn anon<'a>(
        vmas: impl Iterator<Item = &'a Vma> + Clone + 'a,
    ) -> impl Iterator<Item = (u64, u64)> + Clone + 'a {
        vmas.filter(|v| v.kind == VmaKind::Anon)
            .map(|v| (v.start, v.end()))
    }
}

hetero_sim::impl_snap!(enum VmaKind {
    0 => Anon {},
    1 => FileMap {},
});

hetero_sim::impl_snap!(struct Vma { start, pages, kind, mem_hint });

/// Encodes the VMAs and the limit only: the holes and the anonymous page
/// total are derived from them.
impl Snap for AddressSpace {
    fn snap(&self, w: &mut SnapWriter) {
        self.vmas.snap(w);
        self.limit.snap(w);
    }

    /// Decodes the VMAs and the limit, and in the same pass over the VMAs
    /// rebuilds the holes and the anonymous page total. Fails unless the
    /// limit is at most [`VPN_LIMIT`] and every VMA sits under its own
    /// start, has pages, ends at or below the limit and starts at or above
    /// the previous one's end: a VMA past the limit would make the next
    /// `mmap` underflow.
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        let vmas = BTreeMap::<u64, Vma>::unsnap(r)?;
        let limit = u64::unsnap(r)?;
        if limit > VPN_LIMIT {
            return Err(SnapshotError::corrupt(format!(
                "address space limit {limit:#x} is past VPN_LIMIT {VPN_LIMIT:#x}"
            )));
        }
        let (mut holes, mut anon_pages, mut top) = (BTreeMap::new(), 0, 0);
        for (&key, v) in &vmas {
            let end = v.start.checked_add(v.pages).filter(|&e| e <= limit);
            let fault = if key != v.start {
                format!("VMA keyed {key:#x} starts at {:#x}", v.start)
            } else if v.pages == 0 {
                format!("VMA at {key:#x} has no pages")
            } else if end.is_none() {
                format!(
                    "VMA at {key:#x} of {} pages ends past the limit {limit:#x}",
                    v.pages
                )
            } else if key < top {
                format!("VMA at {key:#x} overlaps the one ending at {top:#x}")
            } else {
                if key > top {
                    holes.insert(top, key);
                }
                if v.kind == VmaKind::Anon {
                    anon_pages += v.pages;
                }
                top = v.end();
                continue;
            };
            return Err(SnapshotError::corrupt(fault));
        }
        Ok(AddressSpace {
            vmas,
            limit,
            holes,
            anon_pages,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mmap_finds_first_gap() {
        let mut s = AddressSpace::new(100);
        let a = s.mmap(10, VmaKind::Anon, None).unwrap();
        let b = s.mmap(10, VmaKind::Anon, None).unwrap();
        assert_eq!(a.start, 0);
        assert_eq!(b.start, 10);
        s.munmap(a.start, a.pages);
        let c = s.mmap(5, VmaKind::Anon, None).unwrap();
        assert_eq!(c.start, 0, "gap from unmapped region should be reused");
    }

    #[test]
    fn mmap_rejects_overflow_and_zero() {
        let mut s = AddressSpace::new(16);
        assert!(s.mmap(0, VmaKind::Anon, None).is_err());
        assert!(s.mmap(17, VmaKind::Anon, None).is_err());
        s.mmap(16, VmaKind::Anon, None).unwrap();
        let err = s.mmap(1, VmaKind::Anon, None).unwrap_err();
        assert!(err.to_string().contains("no virtual address gap"));
    }

    #[test]
    fn find_locates_containing_vma() {
        let mut s = AddressSpace::new(100);
        let v = s.mmap(10, VmaKind::FileMap, Some(MemKind::Fast)).unwrap();
        assert_eq!(s.find(v.start + 5).copied(), Some(v));
        assert!(s.find(v.end()).is_none());
    }

    #[test]
    fn munmap_middle_splits_vma() {
        let mut s = AddressSpace::new(100);
        let v = s.mmap(10, VmaKind::Anon, None).unwrap();
        let removed = s.munmap(v.start + 3, 4);
        assert_eq!(removed, 4);
        assert_eq!(s.vma_count(), 2);
        assert_eq!(s.mapped_pages(), 6);
        assert!(s.find(v.start + 2).is_some());
        assert!(s.find(v.start + 4).is_none());
        assert!(s.find(v.start + 8).is_some());
    }

    #[test]
    fn munmap_spanning_multiple_vmas() {
        let mut s = AddressSpace::new(100);
        let a = s.mmap(10, VmaKind::Anon, None).unwrap();
        let b = s.mmap(10, VmaKind::Anon, None).unwrap();
        // Unmap the last 5 of a and the first 5 of b.
        let removed = s.munmap(a.start + 5, 10);
        assert_eq!(removed, 10);
        assert_eq!(s.mapped_pages(), 10);
        assert!(s.find(a.start + 4).is_some());
        assert!(s.find(b.start + 4).is_none());
        assert!(s.find(b.start + 6).is_some());
    }

    #[test]
    fn munmap_of_unmapped_range_is_noop() {
        let mut s = AddressSpace::new(100);
        s.mmap(10, VmaKind::Anon, None).unwrap();
        assert_eq!(s.munmap(50, 10), 0);
        assert_eq!(s.mapped_pages(), 10);
    }

    #[test]
    fn anon_ranges_skip_file_mappings() {
        let mut s = AddressSpace::new(100);
        let a = s.mmap(4, VmaKind::Anon, None).unwrap();
        let f = s.mmap(8, VmaKind::FileMap, None).unwrap();
        let b = s.mmap(2, VmaKind::Anon, None).unwrap();
        let all = vec![(a.start, a.end()), (b.start, b.end())];
        assert_eq!(s.anon_ranges().collect::<Vec<_>>(), all);
        assert_eq!(s.anon_pages(), 6);
        let from = |vpn| {
            s.anon_ranges_from(vpn)
                .map(|(at, ranges)| (at, ranges.collect::<Vec<_>>()))
        };
        assert_eq!(from(0), Some((0, all.clone())));
        assert_eq!(from(3), Some((3, all.clone())));
        // Inside or past the file mapping: the next anonymous VMA.
        assert_eq!(from(f.start), Some((b.start, all[1..].to_vec())));
        assert_eq!(from(a.end()), Some((b.start, all[1..].to_vec())));
        // Past the last one: the walk wraps to the first.
        assert_eq!(from(b.end()), Some((a.start, all.clone())));
        assert!(AddressSpace::new(9).anon_ranges_from(0).is_none());
        s.munmap(f.start, f.pages);
        assert_eq!(s.anon_pages(), 6, "file pages are not tracked");
        s.munmap(a.start + 1, 20);
        assert_eq!(s.anon_pages(), 1);
    }

    /// The first fit and unmap the hole index replaces, kept as the
    /// reference: a walk from address 0 over every VMA, and a filter of
    /// every VMA per unmap.
    #[derive(Default)]
    struct Linear {
        vmas: BTreeMap<u64, Vma>,
    }

    impl Linear {
        fn mmap(&mut self, limit: u64, pages: u64, kind: VmaKind) -> Result<Vma, NoVirtualSpace> {
            if pages == 0 || pages > limit {
                return Err(NoVirtualSpace { pages });
            }
            let mut cursor = 0u64;
            for v in self.vmas.values() {
                if v.start >= cursor && v.start - cursor >= pages {
                    break;
                }
                cursor = cursor.max(v.end());
            }
            if limit - cursor < pages {
                return Err(NoVirtualSpace { pages });
            }
            let vma = Vma {
                start: cursor,
                pages,
                kind,
                mem_hint: None,
            };
            self.vmas.insert(vma.start, vma);
            Ok(vma)
        }

        fn munmap(&mut self, vpn: u64, pages: u64) -> u64 {
            let end = vpn + pages;
            let affected: Vec<Vma> = self
                .vmas
                .values()
                .filter(|v| v.start < end && v.end() > vpn)
                .copied()
                .collect();
            let mut removed = 0;
            for v in affected {
                self.vmas.remove(&v.start);
                let (cut_start, cut_end) = (v.start.max(vpn), v.end().min(end));
                removed += cut_end - cut_start;
                if v.start < cut_start {
                    self.vmas.insert(
                        v.start,
                        Vma {
                            pages: cut_start - v.start,
                            ..v
                        },
                    );
                }
                if v.end() > cut_end {
                    let right = Vma {
                        start: cut_end,
                        pages: v.end() - cut_end,
                        ..v
                    };
                    self.vmas.insert(cut_end, right);
                }
            }
            removed
        }
    }

    /// Checks `s` against the reference's VMAs, and its derived state
    /// against what they imply.
    fn assert_matches(s: &AddressSpace, want: &Linear, at: &str) {
        let vmas: Vec<Vma> = s.iter().copied().collect();
        let want_vmas: Vec<Vma> = want.vmas.values().copied().collect();
        assert_eq!(vmas, want_vmas, "{at}: VMAs");
        let mut holes = BTreeMap::new();
        let mut top = 0;
        for v in &want_vmas {
            if v.start > top {
                holes.insert(top, v.start);
            }
            top = v.end();
        }
        assert_eq!(s.holes, holes, "{at}: holes");
        let anon: u64 = want_vmas
            .iter()
            .filter(|v| v.kind == VmaKind::Anon)
            .map(|v| v.pages)
            .sum();
        assert_eq!(s.anon_pages(), anon, "{at}: anonymous pages");
    }

    fn round_trip(s: &AddressSpace) -> AddressSpace {
        let mut w = SnapWriter::new();
        s.snap(&mut w);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        let back = AddressSpace::unsnap(&mut r).expect("a live address space decodes");
        r.finish().expect("and nothing is left over");
        let mut again = SnapWriter::new();
        back.snap(&mut again);
        assert_eq!(again.into_bytes(), bytes, "re-encoding moved the bytes");
        back
    }

    #[test]
    fn hole_index_places_like_a_linear_first_fit() {
        let mut rng = hetero_sim::rng::SimRng::seed_from(25);
        const LIMIT: u64 = 6_000;
        for case in 0..40 {
            let (mut s, mut want) = (AddressSpace::new(LIMIT), Linear::default());
            for op in 0..400 {
                let at = format!("case {case}, op {op}");
                if op == 200 {
                    s = round_trip(&s);
                }
                let top = want.vmas.values().last().map_or(0, |v| v.end());
                match rng.next_range(0, 10) {
                    // Mostly small maps, now and then one that only the
                    // tail (or nothing) holds.
                    0..=4 => {
                        let pages = match rng.next_range(0, 20) {
                            0 => rng.next_range(0, LIMIT + 2),
                            _ => rng.next_range(1, 90),
                        };
                        let kind = if rng.chance(0.2) {
                            VmaKind::FileMap
                        } else {
                            VmaKind::Anon
                        };
                        let got = s.mmap(pages, kind, None);
                        assert_eq!(got, want.mmap(LIMIT, pages, kind), "{at}: mmap {pages}");
                    }
                    // Part of one VMA, or a span across several and the
                    // holes between them.
                    5..=7 if !want.vmas.is_empty() => {
                        let i = rng.next_range(0, want.vmas.len() as u64) as usize;
                        let v = *want.vmas.values().nth(i).unwrap();
                        let vpn = rng.next_range(v.start, v.end());
                        let pages = match rng.next_range(0, 3) {
                            0 => rng.next_range(1, v.end() - vpn + 1),
                            _ => rng.next_range(1, 400),
                        };
                        let got = s.munmap(vpn, pages);
                        assert_eq!(got, want.munmap(vpn, pages), "{at}: munmap {vpn} + {pages}");
                    }
                    // Everything from some address to past the top.
                    8 => {
                        let vpn = rng.next_range(0, top + 1);
                        let pages = top + 10 - vpn;
                        assert_eq!(s.munmap(vpn, pages), want.munmap(vpn, pages), "{at}: top");
                    }
                    // A range with nothing mapped, or nothing at all.
                    _ => {
                        let vpn = rng.next_range(top, LIMIT + 10);
                        assert_eq!(s.munmap(vpn, rng.next_range(0, 50)), 0, "{at}: unmapped");
                    }
                }
                assert_matches(&s, &want, &at);
            }
        }
    }

    #[test]
    fn display_formats() {
        let v = Vma {
            start: 0x10,
            pages: 0x10,
            kind: VmaKind::Anon,
            mem_hint: None,
        };
        assert_eq!(v.to_string(), "vma[0x10..0x20) Anon");
    }
}
