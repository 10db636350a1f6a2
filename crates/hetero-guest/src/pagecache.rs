//! The filesystem page cache index.
//!
//! Storage-intensive applications (LevelDB, X-Stream) lean on the page cache
//! for read-ahead and write buffering; HeteroOS found that placing these
//! pages in FastMem "can significantly hide the bottlenecks of slower disks
//! and network" (§3.2). The cache itself is a straightforward
//! `(file, offset) → page` index — allocation, placement and eviction policy
//! live in the kernel facade.

use std::collections::{BTreeMap, VecDeque};

use hetero_sim::snap::SnapshotError;

use crate::page::Gfn;

/// Identifier of an open file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FileId(pub u64);

/// Empty-slot sentinel inside [`FileSlots`]. Frame numbers are array
/// indices into the machine's page array, so `u64::MAX` can never name a
/// real frame.
const EMPTY: u64 = u64::MAX;

/// Dense per-file offset index — the moral equivalent of Linux's per-inode
/// xarray. Streaming I/O probes consecutive offsets, so a slot vector
/// anchored at the lowest live offset answers lookup/insert/remove in O(1)
/// where a comparison tree pays a full descent per touched page.
///
/// The window `[base, base + slots.len())` spans the live offsets; both
/// ends are trimmed as removals land, so memory tracks the resident span
/// (evictions are oldest-first in practice) rather than the total offsets
/// ever touched.
#[derive(Debug, Clone, Default)]
struct FileSlots {
    /// Offset backing `slots[0]`.
    base: u64,
    /// `Gfn.0` per offset, [`EMPTY`] for holes.
    slots: VecDeque<u64>,
    /// Number of non-[`EMPTY`] slots.
    live: usize,
}

impl FileSlots {
    fn get(&self, off: u64) -> Option<Gfn> {
        let idx = off.checked_sub(self.base)? as usize;
        match self.slots.get(idx) {
            Some(&g) if g != EMPTY => Some(Gfn(g)),
            _ => None,
        }
    }

    fn set(&mut self, off: u64, gfn: Gfn) -> Option<Gfn> {
        if self.slots.is_empty() {
            self.base = off;
        } else if off < self.base {
            for _ in 0..(self.base - off) {
                self.slots.push_front(EMPTY);
            }
            self.base = off;
        }
        let idx = (off - self.base) as usize;
        if idx >= self.slots.len() {
            self.slots.resize(idx + 1, EMPTY);
        }
        let prev = std::mem::replace(&mut self.slots[idx], gfn.0);
        if prev == EMPTY {
            self.live += 1;
            None
        } else {
            Some(Gfn(prev))
        }
    }

    fn clear(&mut self, off: u64) -> Option<Gfn> {
        let idx = off.checked_sub(self.base)? as usize;
        let slot = self.slots.get_mut(idx)?;
        let prev = std::mem::replace(slot, EMPTY);
        if prev == EMPTY {
            return None;
        }
        self.live -= 1;
        // Trim dead window edges so the deque tracks the live span. Each
        // popped slot was pushed exactly once — amortized O(1).
        while self.slots.front() == Some(&EMPTY) {
            self.slots.pop_front();
            self.base += 1;
        }
        while self.slots.back() == Some(&EMPTY) {
            self.slots.pop_back();
        }
        Some(Gfn(prev))
    }

    /// Live `(offset, frame)` entries in ascending offset order.
    fn iter(&self) -> impl Iterator<Item = (u64, Gfn)> + '_ {
        self.slots
            .iter()
            .enumerate()
            .filter(|&(_, &g)| g != EMPTY)
            .map(|(i, &g)| (self.base + i as u64, Gfn(g)))
    }
}

/// The page-cache index.
///
/// # Examples
///
/// ```
/// use hetero_guest::pagecache::{FileId, PageCache};
/// use hetero_guest::page::Gfn;
///
/// let mut cache = PageCache::new();
/// cache.insert(FileId(1), 0, Gfn(7));
/// assert_eq!(cache.lookup(FileId(1), 0), Some(Gfn(7)));
/// assert_eq!(cache.remove(FileId(1), 0), Some(Gfn(7)));
/// assert!(cache.is_empty());
/// ```
#[derive(Debug, Clone, Default)]
pub struct PageCache {
    /// `BTreeMap` keyed by file so [`PageCache::iter`] and the snapshot
    /// walk entries in `(file, offset)` order rather than a per-process
    /// hash order. A handful of files exist at once; per-offset work
    /// inside each file is O(1) via [`FileSlots`].
    files: BTreeMap<u64, FileSlots>,
    /// Live entries across all files.
    total: usize,
    /// Cache hits since creation.
    pub hits: u64,
    /// Cache misses since creation.
    pub misses: u64,
}

impl PageCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        PageCache::default()
    }

    /// Number of cached pages.
    pub fn len(&self) -> usize {
        self.total
    }

    /// True when no pages are cached.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Looks up a page, recording hit/miss statistics.
    pub fn lookup(&mut self, file: FileId, offset_page: u64) -> Option<Gfn> {
        match self.files.get(&file.0).and_then(|f| f.get(offset_page)) {
            Some(g) => {
                self.hits += 1;
                Some(g)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Inserts a page, returning any page it displaced.
    pub fn insert(&mut self, file: FileId, offset_page: u64, gfn: Gfn) -> Option<Gfn> {
        let prev = self.files.entry(file.0).or_default().set(offset_page, gfn);
        if prev.is_none() {
            self.total += 1;
        }
        prev
    }

    /// Removes one page from the index.
    pub fn remove(&mut self, file: FileId, offset_page: u64) -> Option<Gfn> {
        let slots = self.files.get_mut(&file.0)?;
        let prev = slots.clear(offset_page)?;
        self.total -= 1;
        if slots.live == 0 {
            self.files.remove(&file.0);
        }
        Some(prev)
    }

    /// Every `(file, offset, frame)` entry, in ascending `(file, offset)`
    /// order.
    pub fn iter(&self) -> impl Iterator<Item = (FileId, u64, Gfn)> + '_ {
        self.files
            .iter()
            .flat_map(|(&f, slots)| slots.iter().map(move |(off, g)| (FileId(f), off, g)))
    }

    /// Restore-time check: every cached page names one of the memmap's
    /// `frames` frames. One look per cached page.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Corrupt`] naming the first entry past the memmap.
    pub(crate) fn check_frames(&self, frames: u64) -> Result<(), SnapshotError> {
        match self.iter().find(|(_, _, g)| g.0 >= frames) {
            Some((file, offset, g)) => Err(SnapshotError::corrupt(format!(
                "page-cache entry (file {}, offset {offset}) holds {g}, past the memmap's \
                 {frames} frames",
                file.0
            ))),
            None => Ok(()),
        }
    }

    /// Hit ratio since creation, `0.0` before any lookup.
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

impl hetero_sim::snap::Snap for FileId {
    fn snap(&self, w: &mut hetero_sim::snap::SnapWriter) {
        w.put_u64(self.0);
    }
    fn unsnap(
        r: &mut hetero_sim::snap::SnapReader<'_>,
    ) -> Result<Self, hetero_sim::snap::SnapshotError> {
        Ok(FileId(r.take_u64()?))
    }
}

hetero_sim::impl_snap!(struct FileSlots { base, slots, live });

hetero_sim::impl_snap!(struct PageCache { files, total, hits, misses });

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_tracks_hits_and_misses() {
        let mut c = PageCache::new();
        assert_eq!(c.lookup(FileId(1), 0), None);
        c.insert(FileId(1), 0, Gfn(5));
        assert_eq!(c.lookup(FileId(1), 0), Some(Gfn(5)));
        assert_eq!((c.hits, c.misses), (1, 1));
        assert!((c.hit_ratio() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn insert_returns_displaced_page() {
        let mut c = PageCache::new();
        assert_eq!(c.insert(FileId(1), 3, Gfn(10)), None);
        assert_eq!(c.insert(FileId(1), 3, Gfn(11)), Some(Gfn(10)));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn offsets_are_independent() {
        let mut c = PageCache::new();
        c.insert(FileId(1), 0, Gfn(1));
        c.insert(FileId(1), 1, Gfn(2));
        assert_eq!(c.remove(FileId(1), 0), Some(Gfn(1)));
        assert_eq!(c.lookup(FileId(1), 1), Some(Gfn(2)));
    }

    #[test]
    fn empty_cache_ratio_is_zero() {
        assert_eq!(PageCache::new().hit_ratio(), 0.0);
    }

    #[test]
    fn misses_count_above_below_and_inside_the_window() {
        let mut c = PageCache::new();
        c.insert(FileId(1), 10, Gfn(1));
        assert_eq!(c.lookup(FileId(1), 11), None);
        assert_eq!(c.lookup(FileId(2), 0), None);
        assert_eq!(c.lookup(FileId(1), 3), None);
        assert_eq!((c.hits, c.misses), (0, 3));
        c.remove(FileId(1), 10);
        assert_eq!(c.lookup(FileId(1), 10), None);
        assert_eq!(c.misses, 4);
    }

    #[test]
    fn window_trims_as_removals_land() {
        let mut c = PageCache::new();
        for off in 0..100 {
            c.insert(FileId(1), off, Gfn(off));
        }
        // Oldest-first removals (streaming eviction order) drag the window
        // base forward instead of leaving dead slots behind.
        for off in 0..90 {
            assert_eq!(c.remove(FileId(1), off), Some(Gfn(off)));
        }
        let f = c.files.get(&1).expect("file still live");
        assert_eq!((f.base, f.slots.len(), f.live), (90, 10, 10));
        // Removing the newest end trims from the back too.
        assert_eq!(c.remove(FileId(1), 99), Some(Gfn(99)));
        assert_eq!(c.files.get(&1).expect("file still live").slots.len(), 9);
    }

    #[test]
    fn insert_below_the_window_grows_the_front() {
        let mut c = PageCache::new();
        c.insert(FileId(1), 50, Gfn(5));
        c.insert(FileId(1), 47, Gfn(4));
        assert_eq!(c.lookup(FileId(1), 47), Some(Gfn(4)));
        assert_eq!(c.lookup(FileId(1), 50), Some(Gfn(5)));
        assert_eq!(c.len(), 2);
        let entries: Vec<_> = c.iter().collect();
        assert_eq!(
            entries,
            vec![(FileId(1), 47, Gfn(4)), (FileId(1), 50, Gfn(5))]
        );
    }

    #[test]
    fn last_removal_drops_the_file_entry() {
        let mut c = PageCache::new();
        c.insert(FileId(7), 3, Gfn(1));
        assert_eq!(c.remove(FileId(7), 3), Some(Gfn(1)));
        assert!(c.is_empty());
        assert!(c.files.is_empty());
    }
}
