//! A binary buddy page allocator, one instance per guest NUMA node.
//!
//! This is the guest's equivalent of the Linux zoned buddy allocator that
//! HeteroOS extends (§3.1): HeteroOS routes FastMem allocations through its
//! own allocator exclusively, so each tier's node gets its own
//! [`BuddyAllocator`] over that tier's static `Gfn` range.
//!
//! The implementation is a faithful buddy system: per-order free lists,
//! block splitting on allocation, and eager buddy coalescing on free.
//!
//! Free lists are per-order **bitmaps** (one bit per aligned block slot)
//! rather than ordered sets: membership, insert and remove are single word
//! operations, and "lowest free offset" — the allocation order the rest of
//! the stack depends on for determinism — is a word scan from a
//! monotonically maintained hint. The observable allocation sequence is
//! identical to an ordered-set implementation; only the constant factor
//! changes, which matters because every page the engine churns passes
//! through here (split on alloc, 11-order double-free probe and coalesce
//! walk on free).

use std::fmt;

use hetero_sim::snap::SnapshotError;

use crate::page::Gfn;

/// Largest supported allocation order (2^10 pages = 4 MiB with 4 KiB pages),
/// matching Linux's `MAX_ORDER - 1`.
pub const MAX_ORDER: u8 = 10;

/// Error returned when an allocation cannot be satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutOfMemory {
    /// The order that was requested.
    pub order: u8,
    /// Free frames remaining (possibly fragmented below the request).
    pub free_frames: u64,
}

impl fmt::Display for OutOfMemory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "out of memory: no free block of order {} ({} frames free)",
            self.order, self.free_frames
        )
    }
}

impl std::error::Error for OutOfMemory {}

/// Binary buddy allocator over a contiguous `Gfn` range.
///
/// # Examples
///
/// ```
/// use hetero_guest::buddy::BuddyAllocator;
///
/// let mut buddy = BuddyAllocator::new(0, 1024);
/// let block = buddy.alloc(3)?; // 8 contiguous pages
/// assert_eq!(buddy.free_frames(), 1024 - 8);
/// buddy.free(block, 3);
/// assert_eq!(buddy.free_frames(), 1024);
/// # Ok::<(), hetero_guest::buddy::OutOfMemory>(())
/// ```
#[derive(Debug, Clone)]
pub struct BuddyAllocator {
    base: u64,
    frames: u64,
    /// Free block slots (offset `>> order`, relative to `base`), one
    /// bitmap per order.
    free_lists: Vec<OrderBits>,
    free_frames: u64,
}

/// A bitmap of free block slots at one order: bit `i` set ⇔ the block at
/// offset `i << order` is free.
#[derive(Debug, Clone)]
struct OrderBits {
    words: Vec<u64>,
    /// Free blocks at this order.
    len: usize,
    /// Word-index lower bound on the first set bit. Inserts below it pull
    /// it down; removes leave it valid (the first set bit only moves up),
    /// so [`OrderBits::first`]'s scan restarts where the last one ended.
    hint: usize,
}

impl OrderBits {
    fn new(slots: u64) -> Self {
        OrderBits {
            words: vec![0; (slots as usize).div_ceil(64)],
            len: 0,
            hint: 0,
        }
    }

    /// Whether `slot`'s bit is set. A slot past the bitmap's words is not
    /// free: the words cover every whole block of the order, and a
    /// partial block at the range's end is never one.
    fn contains(&self, slot: u64) -> bool {
        self.words
            .get((slot >> 6) as usize)
            .is_some_and(|w| w & (1u64 << (slot & 63)) != 0)
    }

    /// Sets `slot`'s bit; must not already be set.
    fn insert(&mut self, slot: u64) {
        let w = (slot >> 6) as usize;
        debug_assert_eq!(self.words[w] & (1u64 << (slot & 63)), 0);
        self.words[w] |= 1u64 << (slot & 63);
        self.len += 1;
        if w < self.hint {
            self.hint = w;
        }
    }

    /// Clears `slot`'s bit if set; returns whether it was.
    fn remove(&mut self, slot: u64) -> bool {
        let w = (slot >> 6) as usize;
        let mask = 1u64 << (slot & 63);
        if self.words[w] & mask == 0 {
            return false;
        }
        self.words[w] &= !mask;
        self.len -= 1;
        true
    }

    /// Whether any of the `count` slots from `first` is set; `count` is a
    /// power of two and `first` a multiple of it, so the slots fill whole
    /// words or lie in one.
    fn any_in(&self, first: u64, count: u64) -> bool {
        let w = (first >> 6) as usize;
        if count >= 64 {
            self.words[w..w + (count >> 6) as usize].iter().any(|&x| x != 0)
        } else {
            let mask = ((1u64 << count) - 1) << (first & 63);
            self.words[w] & mask != 0
        }
    }

    /// Lowest set slot, advancing the scan hint past cleared words.
    fn first(&mut self) -> Option<u64> {
        if self.len == 0 {
            return None;
        }
        while self.words[self.hint] == 0 {
            self.hint += 1;
        }
        Some(((self.hint as u64) << 6) + u64::from(self.words[self.hint].trailing_zeros()))
    }
}

impl BuddyAllocator {
    /// Creates an allocator over `frames` pages starting at guest frame
    /// `base`. The range need not be power-of-two sized.
    pub fn new(base: u64, frames: u64) -> Self {
        let mut a = BuddyAllocator {
            base,
            frames,
            free_lists: (0..=MAX_ORDER)
                .map(|o| OrderBits::new((frames >> o).max(1)))
                .collect(),
            free_frames: 0,
        };
        carve(0, frames, |off, order| {
            a.free_lists[order as usize].insert(off >> order);
            a.free_frames += 1 << order;
        });
        a
    }

    /// First guest frame managed.
    pub fn base(&self) -> u64 {
        self.base
    }

    /// Total frames managed.
    pub fn total_frames(&self) -> u64 {
        self.frames
    }

    /// Frames currently free (across all orders).
    pub fn free_frames(&self) -> u64 {
        self.free_frames
    }

    /// Number of free blocks at one order (diagnostic / fragmentation view).
    pub fn free_blocks(&self, order: u8) -> usize {
        self.free_lists.get(order as usize).map_or(0, |b| b.len)
    }

    /// Allocates a block of `2^order` contiguous pages.
    ///
    /// # Errors
    ///
    /// Returns [`OutOfMemory`] when no block of sufficient order exists.
    ///
    /// # Panics
    ///
    /// Panics if `order > MAX_ORDER`.
    pub fn alloc(&mut self, order: u8) -> Result<Gfn, OutOfMemory> {
        assert!(order <= MAX_ORDER, "order {order} exceeds MAX_ORDER");
        // Find the smallest order with a free block, taking its lowest
        // offset — the same choice an ordered free list makes.
        let mut found = None;
        for o in order..=MAX_ORDER {
            if let Some(slot) = self.free_lists[o as usize].first() {
                found = Some((o, slot << o));
                break;
            }
        }
        let (mut o, off) = found.ok_or(OutOfMemory {
            order,
            free_frames: self.free_frames,
        })?;
        self.free_lists[o as usize].remove(off >> o);
        // Split down to the requested order, returning the upper halves.
        while o > order {
            o -= 1;
            let buddy = off + (1 << o);
            self.free_lists[o as usize].insert(buddy >> o);
        }
        self.free_frames -= 1 << order;
        Ok(Gfn(self.base + off))
    }

    /// Allocates one page (order 0).
    ///
    /// # Errors
    ///
    /// Returns [`OutOfMemory`] when the node is exhausted.
    pub fn alloc_page(&mut self) -> Result<Gfn, OutOfMemory> {
        self.alloc(0)
    }

    /// Frees a block previously returned by [`BuddyAllocator::alloc`] with
    /// the same `order`, coalescing with free buddies.
    ///
    /// # Panics
    ///
    /// Panics if the block lies outside the allocator's range, is
    /// misaligned for its order, or (detectably) double-freed.
    pub fn free(&mut self, block: Gfn, order: u8) {
        assert!(order <= MAX_ORDER, "order {order} exceeds MAX_ORDER");
        assert!(
            block.0 >= self.base && block.0 + (1 << order) <= self.base + self.frames,
            "{block} (order {order}) outside allocator range"
        );
        let mut off = block.0 - self.base;
        assert_eq!(
            off & ((1 << order) - 1),
            0,
            "{block} misaligned for order {order}"
        );
        // Double-free detection: the block (or a coalesced ancestor
        // covering it) must not already be free at any order.
        for o in order..=MAX_ORDER {
            assert!(
                !self.free_lists[o as usize].contains(off >> o),
                "double free of {block} at order {order}"
            );
        }
        let mut o = order;
        // Coalesce upwards while the buddy is free.
        while o < MAX_ORDER {
            let buddy = off ^ (1 << o);
            if buddy + (1 << o) <= self.frames && self.free_lists[o as usize].remove(buddy >> o) {
                off = off.min(buddy);
                o += 1;
            } else {
                break;
            }
        }
        self.free_lists[o as usize].insert(off >> o);
        self.free_frames += 1 << order;
    }

    /// Frees one page (order 0).
    ///
    /// # Panics
    ///
    /// As for [`BuddyAllocator::free`].
    pub fn free_page(&mut self, gfn: Gfn) {
        self.free(gfn, 0);
    }

    /// Allocates up to `n` order-0 pages, appending them to `out` in the
    /// exact sequence repeated [`BuddyAllocator::alloc_page`] calls would
    /// produce, and leaving the same bitmaps, counts and scan hints.
    /// Returns how many pages were obtained (short on exhaustion).
    ///
    /// Repeated `alloc(0)` calls hand out whole free blocks in (order,
    /// offset) sequence, each block's pages in ascending order, so every
    /// block that fits what is left of `n` is taken in one step. Only the
    /// last block is split, by the page-at-a-time path (DESIGN.md §8).
    pub fn alloc_pages_bulk(&mut self, n: u64, out: &mut Vec<Gfn>) -> u64 {
        let want = n.min(self.free_frames);
        out.reserve(want as usize);
        let mut left = want;
        while left > 0 {
            // The smallest order holding a block, as `alloc(0)` finds it:
            // `first` on an empty order returns before it moves a hint.
            let order = (0..=MAX_ORDER)
                .find(|&o| self.free_lists[o as usize].len > 0)
                .expect("free_frames counts the blocks");
            if 1 << order > left {
                let g = self.alloc(0).expect("a block is free");
                out.push(g);
                left -= 1;
                continue;
            }
            let list = &mut self.free_lists[order as usize];
            let slot = list.first().expect("the order holds a block");
            list.remove(slot);
            // Page by page, the block's split halves are inserted and taken
            // again; each lower order's last `first` returns the block's top
            // sub-block of that order.
            for k in 0..order {
                let top = ((slot + 1) << (order - k)) - 1;
                self.free_lists[k as usize].hint = (top >> 6) as usize;
            }
            let off = self.base + (slot << order);
            out.extend((off..off + (1 << order)).map(Gfn));
            self.free_frames -= 1 << order;
            left -= 1 << order;
        }
        want
    }

    /// Frees a batch of order-0 pages (sorting the slice), leaving the
    /// same state as the same pages' [`BuddyAllocator::free_page`] calls
    /// in any order: frees alone commute (DESIGN.md §8). Each run of
    /// consecutive pages goes in as the maximal aligned blocks it is made
    /// of, one [`BuddyAllocator::free`] per block.
    ///
    /// # Panics
    ///
    /// As for [`BuddyAllocator::free`], per page.
    pub fn free_pages_bulk(&mut self, pages: &mut [Gfn]) {
        pages.sort_unstable();
        let range = self.base..self.base + self.frames;
        for_each_block(pages, range, |off, order| {
            // Page by page, the block's own halves pair up inside it: each
            // lower order sees inserts down to the block's word there.
            for k in 0..order {
                let bits = &mut self.free_lists[k as usize];
                assert!(
                    !bits.any_in(off >> k, 1 << (order - k)),
                    "double free inside the block at offset {off} of order {order}"
                );
                bits.hint = bits.hint.min((off >> k >> 6) as usize);
            }
            self.free(Gfn(self.base + off), order);
        });
    }

    /// Frees `pages` (ascending) into this empty allocator, then takes
    /// every one back by repeated `alloc(0)` calls, appending them to `out`
    /// in the sequence those calls return: the drain of the per-CPU lists
    /// into an empty buddy and the refills that take it all back.
    ///
    /// The pages come back as the blocks the frees build, in (order,
    /// offset) sequence, each block's pages ascending. The bitmaps end as
    /// empty as they began, and only the scan hints of the orders up to the
    /// last block's move: to where the calls that split and take that
    /// block leave them (DESIGN.md §8).
    ///
    /// # Panics
    ///
    /// Panics if the allocator holds a free page, or as for
    /// [`BuddyAllocator::free`], per page.
    pub(crate) fn free_and_retake(&mut self, pages: &[Gfn], out: &mut Vec<Gfn>) {
        assert_eq!(self.free_frames, 0, "the allocator must be empty");
        let range = self.base..self.base + self.frames;
        // Where each order's pages start in the sequence, and the last block.
        let mut at = [0usize; MAX_ORDER as usize + 2];
        let mut last = None;
        for_each_block(pages, range.clone(), |off, order| {
            at[order as usize + 1] += 1 << order;
            last = last.max(Some((order, off)));
        });
        let Some((order, off)) = last else {
            return;
        };
        for o in 1..at.len() {
            at[o] += at[o - 1];
        }
        let start = out.len();
        out.resize(start + pages.len(), Gfn(0));
        let seq = &mut out[start..];
        for_each_block(pages, range.clone(), |off, order| {
            let to = at[order as usize];
            for (i, page) in seq[to..to + (1 << order)].iter_mut().enumerate() {
                *page = Gfn(range.start + off + i as u64);
            }
            at[order as usize] += 1 << order;
        });
        let slot = off >> order;
        for k in 0..order {
            let top = ((slot + 1) << (order - k)) - 1;
            self.free_lists[k as usize].hint = (top >> 6) as usize;
        }
        self.free_lists[order as usize].hint = (slot >> 6) as usize;
    }

    /// Largest order with at least one free block, `None` when empty.
    pub fn max_free_order(&self) -> Option<u8> {
        (0..=MAX_ORDER)
            .rev()
            .find(|&o| self.free_lists[o as usize].len > 0)
    }
}

/// Calls `f(offset, order)` for each block the ascending `pages` build when
/// freed into an empty allocator over `range`: each run of consecutive
/// pages, [`carve`]d. Offsets are relative to `range.start`.
///
/// # Panics
///
/// As for [`BuddyAllocator::free`], per page.
fn for_each_block(pages: &[Gfn], range: std::ops::Range<u64>, mut f: impl FnMut(u64, u8)) {
    let mut i = 0;
    while i < pages.len() {
        let start = pages[i].0;
        let mut end = start + 1;
        i += 1;
        while i < pages.len() && pages[i].0 <= end {
            assert_eq!(pages[i].0, end, "double free of {}", pages[i]);
            end += 1;
            i += 1;
        }
        assert!(
            range.start <= start && end <= range.end,
            "{} (order 0) outside allocator range",
            Gfn(if start < range.start { start } else { end - 1 })
        );
        carve(start - range.start, end - range.start, &mut f);
    }
}

/// Calls `f(offset, order)` for each maximal aligned block making up the
/// offsets `[start, end)`, ascending: each at the largest order its
/// offset's alignment allows and `end` admits. They are the blocks eager
/// coalescing builds from those pages when no buddy outside the range is
/// free.
fn carve(start: u64, end: u64, mut f: impl FnMut(u64, u8)) {
    let mut off = start;
    while off < end {
        let fits = u64::BITS - 1 - (end - off).leading_zeros();
        let order = off.trailing_zeros().min(fits).min(u32::from(MAX_ORDER)) as u8;
        f(off, order);
        off += 1 << order;
    }
}

hetero_sim::impl_snap!(struct OrderBits { words, len, hint });

// Decode rejects allocator state that `alloc`, `alloc_pages_bulk` and
// `free` would otherwise trust into a panic or a wrong page.
hetero_sim::impl_snap!(struct BuddyAllocator {
    base, frames, free_lists, free_frames
} validate BuddyAllocator::check);

impl BuddyAllocator {
    /// One pass per order's bitmap: exactly `MAX_ORDER + 1` orders, each
    /// bitmap as long as `frames` makes it with no bit for a block past
    /// the range, `len` its popcount, the scan hint at or below its first
    /// set word, and `free_frames` the sum over the orders.
    fn check(&self) -> Result<(), SnapshotError> {
        let orders = usize::from(MAX_ORDER) + 1;
        if self.free_lists.len() != orders {
            return Err(SnapshotError::corrupt(format!(
                "buddy allocator has {} orders, not {orders}",
                self.free_lists.len()
            )));
        }
        let mut free = 0u128;
        for (o, bits) in self.free_lists.iter().enumerate() {
            let slots = self.frames >> o;
            let words = usize::try_from(slots.max(1).div_ceil(64)).unwrap_or(usize::MAX);
            if bits.words.len() != words {
                return Err(SnapshotError::corrupt(format!(
                    "order {o} bitmap has {} words, but {} frames need {words}",
                    bits.words.len(),
                    self.frames
                )));
            }
            let count: usize = bits.words.iter().map(|w| w.count_ones() as usize).sum();
            let tail_bits = slots - 64 * (words as u64 - 1);
            if tail_bits < 64 && bits.words[words - 1] >> tail_bits != 0 {
                return Err(SnapshotError::corrupt(format!(
                    "order {o} bitmap frees a block past the allocator's {} frames",
                    self.frames
                )));
            }
            if bits.len != count {
                return Err(SnapshotError::corrupt(format!(
                    "order {o} counts {} free blocks, but its bitmap holds {count}",
                    bits.len
                )));
            }
            let first = (count > 0).then(|| bits.words.iter().position(|&w| w != 0));
            if let Some(f) = first.flatten().filter(|&f| bits.hint > f) {
                return Err(SnapshotError::corrupt(format!(
                    "order {o} scan hint {} is past its first free word {f}",
                    bits.hint
                )));
            }
            free += (count as u128) << o;
        }
        if u128::from(self.free_frames) != free {
            return Err(SnapshotError::corrupt(format!(
                "buddy allocator counts {} free frames, but its blocks hold {free}",
                self.free_frames
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetero_sim::rng::SimRng;

    #[test]
    fn init_covers_whole_range() {
        let b = BuddyAllocator::new(0, 1024);
        assert_eq!(b.free_frames(), 1024);
        assert_eq!(b.max_free_order(), Some(MAX_ORDER));
    }

    #[test]
    fn non_power_of_two_range_is_fully_usable() {
        let b = BuddyAllocator::new(100, 1000);
        assert_eq!(b.free_frames(), 1000);
    }

    #[test]
    fn alloc_splits_and_free_coalesces() {
        let mut b = BuddyAllocator::new(0, 1024);
        let x = b.alloc(0).unwrap();
        // Splitting a max-order block leaves one free block at each order.
        for o in 0..MAX_ORDER {
            assert_eq!(b.free_blocks(o), 1, "order {o}");
        }
        b.free(x, 0);
        assert_eq!(b.max_free_order(), Some(MAX_ORDER));
        assert_eq!(b.free_blocks(MAX_ORDER), 1);
        assert_eq!(b.free_frames(), 1024);
    }

    #[test]
    fn blocks_do_not_overlap() {
        let mut b = BuddyAllocator::new(0, 256);
        let mut seen = std::collections::HashSet::new();
        while let Ok(g) = b.alloc(2) {
            for i in 0..4 {
                assert!(seen.insert(g.0 + i), "overlap at {}", g.0 + i);
            }
        }
        assert_eq!(seen.len(), 256);
        assert_eq!(b.free_frames(), 0);
    }

    #[test]
    fn exhaustion_reports_oom() {
        let mut b = BuddyAllocator::new(0, 2);
        b.alloc(1).unwrap();
        let err = b.alloc(0).unwrap_err();
        assert_eq!(err.free_frames, 0);
        assert!(err.to_string().contains("out of memory"));
    }

    #[test]
    fn fragmented_node_fails_large_alloc_but_counts_free() {
        let mut b = BuddyAllocator::new(0, 4);
        let p0 = b.alloc(0).unwrap();
        let _p1 = b.alloc(0).unwrap();
        let _p2 = b.alloc(0).unwrap();
        let _p3 = b.alloc(0).unwrap();
        b.free(p0, 0);
        // One free page but no order-1 block starting anywhere usable.
        assert_eq!(b.free_frames(), 1);
        assert!(b.alloc(1).is_err());
        assert!(b.alloc(0).is_ok());
    }

    #[test]
    fn base_offset_is_respected() {
        let mut b = BuddyAllocator::new(5000, 64);
        let g = b.alloc(0).unwrap();
        assert!(g.0 >= 5000 && g.0 < 5064);
        b.free(g, 0);
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn double_free_panics() {
        let mut b = BuddyAllocator::new(0, 4);
        let g = b.alloc(0).unwrap();
        b.free(g, 0);
        b.free(g, 0);
    }

    #[test]
    #[should_panic(expected = "misaligned")]
    fn misaligned_free_panics() {
        let mut b = BuddyAllocator::new(0, 8);
        let _ = b.alloc(1).unwrap();
        b.free(Gfn(1), 1); // order-1 block cannot start at odd offset
    }

    #[test]
    #[should_panic(expected = "outside allocator range")]
    fn foreign_free_panics() {
        let mut b = BuddyAllocator::new(0, 8);
        b.free(Gfn(100), 0);
    }

    #[test]
    fn bulk_paths_match_single_page_sequences() {
        let mut single = BuddyAllocator::new(0, 256);
        let mut bulk = BuddyAllocator::new(0, 256);
        let singles: Vec<Gfn> = (0..100).map(|_| single.alloc_page().unwrap()).collect();
        let mut bulked = Vec::new();
        assert_eq!(bulk.alloc_pages_bulk(100, &mut bulked), 100);
        assert_eq!(singles, bulked, "bulk alloc must match the scalar order");
        for &g in singles.iter().rev() {
            single.free_page(g);
        }
        bulked.reverse();
        bulk.free_pages_bulk(&mut bulked);
        assert_eq!(single.free_frames(), bulk.free_frames());
        for o in 0..=MAX_ORDER {
            assert_eq!(single.free_blocks(o), bulk.free_blocks(o), "order {o}");
        }
    }

    fn encoded(b: &BuddyAllocator) -> Vec<u8> {
        use hetero_sim::snap::{Snap, SnapWriter};
        let mut w = SnapWriter::new();
        b.snap(&mut w);
        w.into_bytes()
    }

    /// A seeded, randomly fragmented allocator of `frames` pages at base
    /// 1000: blocks of random orders allocated, a random half freed back in
    /// random order, so scan hints sit off zero at every order.
    fn fragmented(rng: &mut SimRng, frames: u64) -> BuddyAllocator {
        let mut b = BuddyAllocator::new(1000, frames);
        let mut held = Vec::new();
        for _ in 0..rng.next_range(0, frames + 1) {
            let order = rng.next_range(0, 4) as u8;
            if let Ok(g) = b.alloc(order) {
                held.push((g, order));
            }
        }
        for _ in 0..held.len() / 2 {
            let (g, order) = held.swap_remove(rng.next_range(0, held.len() as u64) as usize);
            b.free(g, order);
        }
        b
    }

    #[test]
    fn bulk_alloc_leaves_the_bytes_of_single_page_allocs() {
        let mut rng = SimRng::seed_from(24);
        for case in 0..400 {
            let frames = rng.next_range(1, 2100);
            let mut bulk = fragmented(&mut rng, frames);
            let mut single = bulk.clone();
            for _ in 0..3 {
                let n = rng.next_range(0, single.free_frames() + 3);
                let mut want = Vec::new();
                for _ in 0..n {
                    match single.alloc_page() {
                        Ok(g) => want.push(g),
                        Err(_) => break,
                    }
                }
                let mut got = Vec::new();
                assert_eq!(bulk.alloc_pages_bulk(n, &mut got), want.len() as u64);
                assert_eq!(got, want, "case {case}: {frames} frames, n {n}");
                assert!(
                    encoded(&bulk) == encoded(&single),
                    "case {case}: {frames} frames, n {n}: the encodings differ"
                );
            }
        }
    }

    #[test]
    fn bulk_free_leaves_the_bytes_of_single_page_frees_in_any_order() {
        let mut rng = SimRng::seed_from(25);
        for case in 0..400 {
            let frames = rng.next_range(1, 2100);
            let mut b = fragmented(&mut rng, frames);
            // Every other case drains the allocator first, so the batch
            // takes the empty-allocator path.
            let take = if case % 2 == 0 {
                b.free_frames()
            } else {
                rng.next_range(0, b.free_frames() + 1)
            };
            let mut pages = Vec::new();
            for _ in 0..take {
                pages.push(b.alloc_page().expect("counted free"));
            }
            let mut batch = Vec::new();
            for _ in 0..rng.next_range(0, pages.len() as u64 + 1) {
                batch.push(pages.swap_remove(rng.next_range(0, pages.len() as u64) as usize));
            }
            let mut in_order = b.clone();
            for &g in &batch {
                in_order.free_page(g);
            }
            let mut reversed = b.clone();
            for &g in batch.iter().rev() {
                reversed.free_page(g);
            }
            let at = format!("case {case}: {frames} frames, {} freed", batch.len());
            assert!(
                encoded(&reversed) == encoded(&in_order),
                "{at}: the encodings differ"
            );
            b.free_pages_bulk(&mut batch);
            assert!(
                encoded(&b) == encoded(&in_order),
                "{at}: the encodings differ"
            );
        }
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn bulk_free_rejects_a_page_already_free_inside_a_block() {
        let mut b = BuddyAllocator::new(0, 8);
        let mut pages = Vec::new();
        b.alloc_pages_bulk(8, &mut pages);
        b.free_page(pages[2]);
        b.free_pages_bulk(&mut pages);
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn bulk_free_into_an_empty_allocator_rejects_a_repeated_page() {
        let mut b = BuddyAllocator::new(0, 8);
        let mut pages = Vec::new();
        b.alloc_pages_bulk(8, &mut pages);
        pages.push(pages[3]);
        b.free_pages_bulk(&mut pages);
    }

    /// Sizes whose last partial block follows an order's bitmap words
    /// exactly (129, 257, 4097 frames) make the double-free probe look
    /// past those words.
    #[test]
    fn every_range_size_allocates_and_frees_completely() {
        for frames in (1..=600).chain([4097]) {
            let fresh = BuddyAllocator::new(7, frames);
            let mut single = fresh.clone();
            let pages: Vec<Gfn> = (0..frames).map(|_| single.alloc_page().unwrap()).collect();
            let mut bulk = fresh.clone();
            let mut bulked = Vec::new();
            assert_eq!(bulk.alloc_pages_bulk(frames + 1, &mut bulked), frames);
            assert_eq!(bulked, pages, "{frames} frames");
            assert!(
                encoded(&bulk) == encoded(&single),
                "{frames} frames: the encodings differ"
            );
            let mut reversed = single.clone();
            for &g in &pages {
                single.free_page(g);
            }
            for &g in pages.iter().rev() {
                reversed.free_page(g);
            }
            bulk.free_pages_bulk(&mut pages.clone());
            for b in [&single, &reversed, &bulk] {
                assert_eq!(b.free_frames(), frames);
                for o in 0..=MAX_ORDER {
                    assert_eq!(
                        b.free_blocks(o),
                        fresh.free_blocks(o),
                        "{frames} frames, order {o}"
                    );
                }
            }
            assert!(
                encoded(&bulk) == encoded(&single),
                "{frames} frames: the encodings differ"
            );
        }
    }

    #[test]
    fn bulk_alloc_stops_at_exhaustion() {
        let mut b = BuddyAllocator::new(0, 8);
        let mut out = Vec::new();
        assert_eq!(b.alloc_pages_bulk(20, &mut out), 8);
        assert_eq!(out.len(), 8);
        assert_eq!(b.free_frames(), 0);
    }

    #[test]
    fn alloc_free_stress_restores_state() {
        let mut b = BuddyAllocator::new(0, 512);
        let mut held = Vec::new();
        // Deterministic interleaving of allocs and frees.
        for i in 0..200u64 {
            if i % 3 == 2 {
                if let Some((g, o)) = held.pop() {
                    b.free(g, o);
                }
            } else {
                let order = (i % 4) as u8;
                if let Ok(g) = b.alloc(order) {
                    held.push((g, order));
                }
            }
        }
        for (g, o) in held {
            b.free(g, o);
        }
        assert_eq!(b.free_frames(), 512);
        assert_eq!(b.max_free_order(), Some(9)); // 512 = 2^9
        assert_eq!(b.free_blocks(9), 1);
    }
}
