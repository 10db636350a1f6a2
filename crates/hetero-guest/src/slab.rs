//! A slab allocator for kernel objects.
//!
//! Network-intensive applications "extensively use slab pages for OS-level
//! network buffers ('skbuff')" and storage-intensive ones "allocate slab
//! pages for the filesystem metadata" (§3.2); HeteroOS prioritises those
//! pages into FastMem by demand. The slab layer here is object-accurate:
//! caches carve fixed-size objects out of pages obtained from the page
//! allocator and release pages back when their last object dies.

use std::collections::BTreeMap;

use hetero_sim::snap::{Snap, SnapReader, SnapWriter, SnapshotError};

use crate::page::Gfn;

/// A LIFO stack of page hints, kept as runs of one page: `(page, count)`
/// stands for `count` consecutive entries naming `page`. A freed object
/// pushes one hint, so the stacks hold long runs of a page, and a run
/// whose page went stale pops after one look.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct HintStack {
    runs: Vec<(Gfn, u64)>,
}

impl HintStack {
    /// The page on top.
    fn top(&self) -> Option<Gfn> {
        self.runs.last().map(|&(g, _)| g)
    }

    /// Pushes `count` entries naming `page`.
    fn push(&mut self, page: Gfn, count: u64) {
        if count == 0 {
            return;
        }
        match self.runs.last_mut() {
            Some((top, n)) if *top == page => *n += count,
            _ => self.runs.push((page, count)),
        }
    }

    /// Pops the top entry.
    fn pop(&mut self) {
        let (_, n) = self.runs.last_mut().expect("the stack holds a hint");
        *n -= 1;
        if *n == 0 {
            self.runs.pop();
        }
    }

    /// Pops the top run: when its page is stale, so is each of its
    /// entries, and per-entry pops would take them all.
    fn pop_run(&mut self) {
        self.runs.pop();
    }

    /// The pages the stack names, each run once.
    fn pages(&self) -> impl Iterator<Item = Gfn> + '_ {
        self.runs.iter().map(|&(g, _)| g)
    }
}

/// Encoded as the expanded stack, one entry per hint, bottom first: the
/// `Vec<Gfn>` the stack was before it kept runs. Decoding folds
/// consecutive repeats.
impl Snap for HintStack {
    fn snap(&self, w: &mut SnapWriter) {
        let len: u64 = self.runs.iter().map(|&(_, n)| n).sum();
        len.snap(w);
        for &(g, n) in &self.runs {
            for _ in 0..n {
                g.snap(w);
            }
        }
    }

    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        let len = r.take_usize()?;
        let whole = len.min(r.remaining() / 8);
        let bytes = r.take_bytes(whole * 8)?;
        if whole < len {
            // Fails as a `Vec<Gfn>` read does, at the first entry past
            // the input.
            r.take_bytes(8)?;
        }
        // Sized to the runs up front: a restore holds every stack of every
        // kernel at once. Growth slack read vm-tiering `peak_rss_mb` about
        // 7% higher, and trimming it after the fold vm-durable's about 6%.
        let breaks = bytes.windows(16).step_by(8);
        let runs = whole.min(1) + breaks.filter(|w| w[..8] != w[8..]).count();
        let mut stack = HintStack {
            runs: Vec::with_capacity(runs),
        };
        for entry in bytes.chunks_exact(8) {
            let page = u64::from_le_bytes(entry.try_into().expect("chunks are 8 bytes"));
            stack.push(Gfn(page), 1);
        }
        Ok(stack)
    }
}

/// A cache of fixed-size kernel objects.
///
/// # Examples
///
/// ```
/// use hetero_guest::slab::SlabCache;
/// use hetero_guest::page::Gfn;
///
/// let mut skbuff = SlabCache::new("skbuff", 512, 4096);
/// let mut next = 0u64;
/// let page = skbuff.alloc_object(|| { next += 1; Some(Gfn(next)) }).unwrap();
/// assert_eq!(skbuff.objects(), 1);
/// // Freeing the only object releases the page.
/// assert_eq!(skbuff.free_object(page), Some(page));
/// ```
#[derive(Debug, Clone)]
pub struct SlabCache {
    name: &'static str,
    object_size: u32,
    objects_per_page: u32,
    /// used-object count per backing page. A `BTreeMap` so the bulk
    /// observations ([`SlabCache::reap`], [`SlabCache::backing_pages`])
    /// walk pages in frame order, never a per-process hash order.
    slabs: BTreeMap<Gfn, u32>,
    objects: u64,
    /// LIFO hint stack of pages that may have free slots. Entries are
    /// validated lazily on pop (stale or full entries are skipped), keeping
    /// allocation O(1) amortised.
    partial_hint: HintStack,
    /// LIFO hint stack of pages that may hold live objects (for
    /// [`SlabCache::free_any_object`]); lazily validated like
    /// `partial_hint`.
    page_hint: HintStack,
    /// Cumulative objects ever allocated (telemetry).
    total_allocs: u64,
    /// Cumulative objects ever freed (telemetry).
    total_frees: u64,
}

impl SlabCache {
    /// Creates a cache of `object_size`-byte objects backed by pages of
    /// `page_size` bytes.
    ///
    /// # Panics
    ///
    /// Panics if `object_size` is zero or larger than `page_size`.
    pub fn new(name: &'static str, object_size: u32, page_size: u32) -> Self {
        assert!(object_size > 0, "object size must be non-zero");
        assert!(
            object_size <= page_size,
            "object ({object_size} B) larger than slab page ({page_size} B)"
        );
        SlabCache {
            name,
            object_size,
            objects_per_page: page_size / object_size,
            slabs: BTreeMap::new(),
            objects: 0,
            partial_hint: HintStack::default(),
            page_hint: HintStack::default(),
            total_allocs: 0,
            total_frees: 0,
        }
    }

    /// Cache name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Object size in bytes.
    pub fn object_size(&self) -> u32 {
        self.object_size
    }

    /// Objects that fit one backing page.
    pub(crate) fn objects_per_page(&self) -> u32 {
        self.objects_per_page
    }

    /// Objects currently live.
    pub fn objects(&self) -> u64 {
        self.objects
    }

    /// Backing pages currently held.
    pub fn pages(&self) -> u64 {
        self.slabs.len() as u64
    }

    /// Objects ever allocated from this cache (cumulative, telemetry).
    pub fn total_allocs(&self) -> u64 {
        self.total_allocs
    }

    /// Objects ever freed back to this cache (cumulative, telemetry).
    pub fn total_frees(&self) -> u64 {
        self.total_frees
    }

    /// The top partial hint that names a page with a free slot, after
    /// popping the stale runs above it.
    fn partial_page(&mut self) -> Option<Gfn> {
        while let Some(g) = self.partial_hint.top() {
            match self.slabs.get(&g) {
                Some(&used) if used < self.objects_per_page => return Some(g),
                _ => self.partial_hint.pop_run(),
            }
        }
        None
    }

    /// Allocates one object. If every slab is full, `get_page` is called to
    /// obtain a fresh backing page. Returns the page the object lives on,
    /// or `None` when a new page was needed but unavailable.
    pub fn alloc_object(&mut self, get_page: impl FnOnce() -> Option<Gfn>) -> Option<Gfn> {
        let page = match self.partial_page() {
            Some(g) => g,
            None => {
                let g = get_page()?;
                debug_assert!(
                    !self.slabs.contains_key(&g),
                    "page {g} already owned by this cache"
                );
                self.slabs.insert(g, 0);
                self.page_hint.push(g, 1);
                self.partial_hint.push(g, 1);
                g
            }
        };
        let used = self.slabs.get_mut(&page).expect("slab exists");
        *used += 1;
        if *used >= self.objects_per_page {
            // No longer partial; drop the hint if it is on top.
            if self.partial_hint.top() == Some(page) {
                self.partial_hint.pop();
            }
        }
        self.objects += 1;
        self.total_allocs += 1;
        Some(page)
    }

    /// Carves up to `max` objects out of *existing* partial slabs in one
    /// pass, never requesting fresh pages. State-equivalent to calling
    /// [`SlabCache::alloc_object`] with a `None`-returning page source until
    /// it fails or `max` objects are carved (same hint-stack pops, same
    /// object placement), but with one map lookup per slab chunk instead of
    /// two per object. Returns the number of objects carved.
    pub fn alloc_from_partial(&mut self, max: u64) -> u64 {
        let mut done = 0u64;
        while done < max {
            let Some(page) = self.partial_page() else {
                return done;
            };
            let used = self.slabs.get_mut(&page).expect("validated above");
            let take = ((self.objects_per_page - *used) as u64).min(max - done);
            *used += take as u32;
            if *used >= self.objects_per_page {
                // The scalar path drops the hint when the page fills and the
                // hint is on top — it is: we just validated the top.
                self.partial_hint.pop();
            }
            self.objects += take;
            self.total_allocs += take;
            done += take;
        }
        done
    }

    /// Adds fresh backing pages, in order, and carves `objects` objects
    /// out of them, each page filled before the next: state-equivalent to
    /// [`SlabCache::alloc_object`] with each page as the fresh page,
    /// followed by [`SlabCache::alloc_from_partial`], page by page, once
    /// no partial slab is left. Only the last page may stay partial.
    ///
    /// # Panics
    ///
    /// Panics unless `objects` objects need exactly `pages.len()` pages.
    pub(crate) fn grow(&mut self, pages: &[Gfn], objects: u64) {
        let per_page = u64::from(self.objects_per_page);
        assert_eq!(
            objects.div_ceil(per_page),
            pages.len() as u64,
            "{objects} objects do not fill {} fresh pages",
            pages.len()
        );
        let mut left = objects;
        for &g in pages {
            let used = left.min(per_page);
            let prev = self.slabs.insert(g, used as u32);
            debug_assert!(prev.is_none(), "page {g} already owned by this cache");
            self.page_hint.push(g, 1);
            if used < per_page {
                self.partial_hint.push(g, 1);
            }
            left -= used;
        }
        self.objects += objects;
        self.total_allocs += objects;
    }

    /// Frees up to `max` objects from the most recently used slab — the top
    /// valid `page_hint` entry — exactly as repeated
    /// [`SlabCache::free_any_object`] calls would until that slab empties or
    /// `max` is reached (including the per-free partial-hint pushes the
    /// scalar path makes). Returns `(objects_freed, emptied_page)`, or
    /// `None` when the cache holds no objects.
    pub fn free_any_chunk(&mut self, max: u64) -> Option<(u64, Option<Gfn>)> {
        debug_assert!(max > 0, "chunk size must be non-zero");
        let page = self.live_page()?;
        let used = self.slabs.get_mut(&page).expect("validated above");
        let take = (*used as u64).min(max);
        *used -= take as u32;
        let emptied = *used == 0;
        self.objects -= take;
        self.total_frees += take;
        if emptied {
            self.slabs.remove(&page);
            // Scalar frees push one partial hint per *non-emptying* free.
            self.partial_hint.push(page, take.saturating_sub(1));
            Some((take, Some(page)))
        } else {
            self.partial_hint.push(page, take);
            Some((take, None))
        }
    }

    /// The top page hint that names a live slab, after popping the stale
    /// runs above it; `None` when the cache holds no objects.
    fn live_page(&mut self) -> Option<Gfn> {
        while let Some(g) = self.page_hint.top() {
            if self.slabs.contains_key(&g) {
                return Some(g);
            }
            self.page_hint.pop_run();
        }
        debug_assert_eq!(self.objects, 0, "live objects must be reachable");
        None
    }

    /// Frees one object that lives on `page`. Returns `Some(page)` when the
    /// slab became empty and the caller should return it to the page
    /// allocator.
    ///
    /// # Panics
    ///
    /// Panics if `page` is not a slab of this cache or holds no objects.
    pub fn free_object(&mut self, page: Gfn) -> Option<Gfn> {
        let used = self
            .slabs
            .get_mut(&page)
            .unwrap_or_else(|| panic!("{page} is not a slab of cache '{}'", self.name));
        assert!(*used > 0, "{page} has no live objects");
        *used -= 1;
        self.objects -= 1;
        self.total_frees += 1;
        if *used == 0 {
            self.slabs.remove(&page);
            Some(page)
        } else {
            // The page now has a free slot; hint the allocator.
            self.partial_hint.push(page, 1);
            None
        }
    }

    /// Frees one object from *any* slab (callers that do not track which
    /// page their objects live on — request/response buffers). Takes from
    /// the most recently used slab (LIFO), matching short-lived kernel
    /// buffer churn. Returns the page to release when a slab empties.
    pub fn free_any_object(&mut self) -> Option<Option<Gfn>> {
        let page = self.live_page()?;
        Some(self.free_object(page))
    }

    /// Moves a slab's bookkeeping from `old` to `new` (page migration).
    ///
    /// # Panics
    ///
    /// Panics if `old` is not a slab of this cache.
    pub fn rehome(&mut self, old: Gfn, new: Gfn) {
        let used = self
            .slabs
            .remove(&old)
            .unwrap_or_else(|| panic!("{old} is not a slab of cache '{}'", self.name));
        self.slabs.insert(new, used);
        self.page_hint.push(new, 1);
        if used < self.objects_per_page {
            self.partial_hint.push(new, 1);
        }
    }

    /// True if `page` backs this cache.
    pub fn owns(&self, page: Gfn) -> bool {
        self.slabs.contains_key(&page)
    }

    /// Reclaims every empty slab (none exist in steady state — empties are
    /// released eagerly by [`SlabCache::free_object`] — but a bulk path is
    /// kept for shrinker parity).
    pub fn reap(&mut self) -> Vec<Gfn> {
        let empty: Vec<Gfn> = self
            .slabs
            .iter()
            .filter(|&(_, &used)| used == 0)
            .map(|(&g, _)| g)
            .collect();
        for g in &empty {
            self.slabs.remove(g);
        }
        empty
    }

    /// All backing pages in ascending frame order (for migration
    /// bookkeeping).
    pub fn backing_pages(&self) -> impl Iterator<Item = Gfn> + '_ {
        self.slabs.keys().copied()
    }

    /// Restore-time check of the cache against the page size it was built
    /// for and the memmap's `frames` frames: `objects_per_page` is
    /// `page_size / object_size` and at least 1, every slab holds 1 to
    /// `objects_per_page` objects, `objects` is their sum, and every slab
    /// and hinted page is one of the frames.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Corrupt`] naming the first check that fails.
    pub(crate) fn check(&self, page_size: u32, frames: u64) -> Result<(), SnapshotError> {
        let (name, per_page) = (self.name, self.objects_per_page);
        let fits = page_size.checked_div(self.object_size);
        if per_page == 0 || fits != Some(per_page) {
            return Err(SnapshotError::corrupt(format!(
                "slab cache '{name}' holds {per_page} objects of {} B per {page_size} B page",
                self.object_size
            )));
        }
        let mut sum = 0;
        for (g, &used) in &self.slabs {
            if used == 0 || used > per_page {
                return Err(SnapshotError::corrupt(format!(
                    "slab cache '{name}' page {g} holds {used} objects, outside 1..={per_page}"
                )));
            }
            sum += u64::from(used);
        }
        if sum != self.objects {
            return Err(SnapshotError::corrupt(format!(
                "slab cache '{name}' counts {} objects, but its slabs hold {sum}",
                self.objects
            )));
        }
        // The slab map is ordered: its last page is its highest.
        let mut pages = (self.slabs.keys().next_back().copied().into_iter())
            .chain(self.partial_hint.pages())
            .chain(self.page_hint.pages());
        if let Some(g) = pages.find(|g| g.0 >= frames) {
            return Err(SnapshotError::corrupt(format!(
                "slab cache '{name}' names page {g}, past the memmap's {frames} frames"
            )));
        }
        Ok(())
    }
}

impl Snap for SlabCache {
    fn snap(&self, w: &mut SnapWriter) {
        w.put_str(self.name);
        self.object_size.snap(w);
        self.objects_per_page.snap(w);
        self.slabs.snap(w);
        self.objects.snap(w);
        self.partial_hint.snap(w);
        self.page_hint.snap(w);
        self.total_allocs.snap(w);
        self.total_frees.snap(w);
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        // The class name normally points into rodata; intern the restored
        // copy (the two well-known classes map back to their literals).
        let name = match r.take_string()?.as_str() {
            "skbuff" => "skbuff",
            "fs-meta" => "fs-meta",
            other => hetero_sim::snap::leak_str(other.to_string()),
        };
        Ok(SlabCache {
            name,
            object_size: Snap::unsnap(r)?,
            objects_per_page: Snap::unsnap(r)?,
            slabs: Snap::unsnap(r)?,
            objects: Snap::unsnap(r)?,
            partial_hint: Snap::unsnap(r)?,
            page_hint: Snap::unsnap(r)?,
            total_allocs: Snap::unsnap(r)?,
            total_frees: Snap::unsnap(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetero_sim::rng::SimRng;

    fn pages_from(start: u64) -> impl FnMut() -> Option<Gfn> {
        let mut next = start;
        move || {
            next += 1;
            Some(Gfn(next - 1))
        }
    }

    /// The cache as it was before its hint stacks kept runs: one `Vec`
    /// entry per hint, popped one entry and one map lookup at a time.
    struct VecSlab {
        name: &'static str,
        object_size: u32,
        objects_per_page: u32,
        slabs: BTreeMap<Gfn, u32>,
        objects: u64,
        partial_hint: Vec<Gfn>,
        page_hint: Vec<Gfn>,
        total_allocs: u64,
        total_frees: u64,
    }

    impl VecSlab {
        fn new(name: &'static str, object_size: u32, page_size: u32) -> Self {
            VecSlab {
                name,
                object_size,
                objects_per_page: page_size / object_size,
                slabs: BTreeMap::new(),
                objects: 0,
                partial_hint: Vec::new(),
                page_hint: Vec::new(),
                total_allocs: 0,
                total_frees: 0,
            }
        }

        fn alloc_object(&mut self, get_page: impl FnOnce() -> Option<Gfn>) -> Option<Gfn> {
            let mut page = None;
            while let Some(&g) = self.partial_hint.last() {
                match self.slabs.get(&g) {
                    Some(&used) if used < self.objects_per_page => {
                        page = Some(g);
                        break;
                    }
                    _ => {
                        self.partial_hint.pop();
                    }
                }
            }
            let page = match page {
                Some(g) => g,
                None => {
                    let g = get_page()?;
                    self.slabs.insert(g, 0);
                    self.page_hint.push(g);
                    self.partial_hint.push(g);
                    g
                }
            };
            let used = self.slabs.get_mut(&page).unwrap();
            *used += 1;
            if *used >= self.objects_per_page && self.partial_hint.last() == Some(&page) {
                self.partial_hint.pop();
            }
            self.objects += 1;
            self.total_allocs += 1;
            Some(page)
        }

        fn alloc_from_partial(&mut self, max: u64) -> u64 {
            let mut done = 0u64;
            while done < max {
                let page = loop {
                    match self.partial_hint.last() {
                        Some(&g) => match self.slabs.get(&g) {
                            Some(&used) if used < self.objects_per_page => break Some(g),
                            _ => {
                                self.partial_hint.pop();
                            }
                        },
                        None => break None,
                    }
                };
                let Some(page) = page else {
                    return done;
                };
                let used = self.slabs.get_mut(&page).unwrap();
                let take = ((self.objects_per_page - *used) as u64).min(max - done);
                *used += take as u32;
                if *used >= self.objects_per_page {
                    self.partial_hint.pop();
                }
                self.objects += take;
                self.total_allocs += take;
                done += take;
            }
            done
        }

        fn free_any_chunk(&mut self, max: u64) -> Option<(u64, Option<Gfn>)> {
            let page = loop {
                match self.page_hint.last() {
                    Some(&g) if self.slabs.contains_key(&g) => break g,
                    Some(_) => {
                        self.page_hint.pop();
                    }
                    None => return None,
                }
            };
            let used = self.slabs.get_mut(&page).unwrap();
            let take = (*used as u64).min(max);
            *used -= take as u32;
            let emptied = *used == 0;
            self.objects -= take;
            self.total_frees += take;
            if emptied {
                self.slabs.remove(&page);
                for _ in 0..take.saturating_sub(1) {
                    self.partial_hint.push(page);
                }
                Some((take, Some(page)))
            } else {
                for _ in 0..take {
                    self.partial_hint.push(page);
                }
                Some((take, None))
            }
        }

        fn free_object(&mut self, page: Gfn) -> Option<Gfn> {
            let used = self.slabs.get_mut(&page).unwrap();
            *used -= 1;
            self.objects -= 1;
            self.total_frees += 1;
            if *used == 0 {
                self.slabs.remove(&page);
                Some(page)
            } else {
                self.partial_hint.push(page);
                None
            }
        }

        fn free_any_object(&mut self) -> Option<Option<Gfn>> {
            while let Some(&g) = self.page_hint.last() {
                if self.slabs.contains_key(&g) {
                    return Some(self.free_object(g));
                }
                self.page_hint.pop();
            }
            None
        }

        fn rehome(&mut self, old: Gfn, new: Gfn) {
            let used = self.slabs.remove(&old).unwrap();
            self.slabs.insert(new, used);
            self.page_hint.push(new);
            if used < self.objects_per_page {
                self.partial_hint.push(new);
            }
        }

        fn reap(&mut self) -> Vec<Gfn> {
            let empty: Vec<Gfn> = (self.slabs.iter())
                .filter(|&(_, &used)| used == 0)
                .map(|(&g, _)| g)
                .collect();
            for g in &empty {
                self.slabs.remove(g);
            }
            empty
        }
    }

    impl Snap for VecSlab {
        fn snap(&self, w: &mut SnapWriter) {
            w.put_str(self.name);
            self.object_size.snap(w);
            self.objects_per_page.snap(w);
            self.slabs.snap(w);
            self.objects.snap(w);
            self.partial_hint.snap(w);
            self.page_hint.snap(w);
            self.total_allocs.snap(w);
            self.total_frees.snap(w);
        }
        fn unsnap(_: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
            unreachable!("only encoded")
        }
    }

    fn encoded<T: Snap>(v: &T) -> Vec<u8> {
        let mut w = SnapWriter::new();
        v.snap(&mut w);
        w.into_bytes()
    }

    /// Seeded sequences of every cache call, a fresh page now and then
    /// being one the cache released before (so a stale hint names it),
    /// against [`VecSlab`]: the same answers and the same encoded bytes
    /// after every call, and the bytes survive a codec round trip, which
    /// the sequence then goes on from.
    #[test]
    fn hint_runs_leave_the_bytes_of_vec_stacks() {
        let mut rng = SimRng::seed_from(28);
        for case in 0..60 {
            let object_size = [512, 1024, 2048, 4096][case % 4];
            let mut runs = SlabCache::new("x", object_size, 4096);
            let mut vecs = VecSlab::new("x", object_size, 4096);
            let per_page = u64::from(runs.objects_per_page());
            let (mut next, mut released) = (0u64, Vec::new());
            let mut fresh = |rng: &mut SimRng, released: &mut Vec<Gfn>| {
                if !released.is_empty() && rng.chance(0.5) {
                    released.swap_remove(rng.next_range(0, released.len() as u64) as usize)
                } else {
                    next += 1;
                    Gfn(next)
                }
            };
            for call in 0..300 {
                let at = format!("case {case}, call {call}");
                let owned: Vec<Gfn> = runs.backing_pages().collect();
                let pick = |rng: &mut SimRng| owned[rng.next_range(0, owned.len() as u64) as usize];
                let max = rng.next_range(1, 3 * per_page);
                match rng.next_range(0, 9) {
                    0 => {
                        let g = fresh(&mut rng, &mut released);
                        let got = runs.alloc_object(|| Some(g));
                        assert_eq!(got, vecs.alloc_object(|| Some(g)), "{at}");
                        if got != Some(g) {
                            released.push(g);
                        }
                    }
                    1 => assert_eq!(runs.alloc_object(|| None), vecs.alloc_object(|| None)),
                    2 => assert_eq!(runs.alloc_from_partial(max), vecs.alloc_from_partial(max)),
                    3 if runs.objects() > 0 => {
                        let got = runs.free_any_chunk(max);
                        assert_eq!(got, vecs.free_any_chunk(max), "{at}");
                        released.extend(got.and_then(|(_, emptied)| emptied));
                    }
                    4 if !owned.is_empty() => {
                        let g = pick(&mut rng);
                        let got = runs.free_object(g);
                        assert_eq!(got, vecs.free_object(g), "{at}");
                        released.extend(got);
                    }
                    5 => {
                        let got = runs.free_any_object();
                        assert_eq!(got, vecs.free_any_object(), "{at}");
                        released.extend(got.flatten());
                    }
                    6 if !owned.is_empty() => {
                        let (old, new) = (pick(&mut rng), fresh(&mut rng, &mut released));
                        runs.rehome(old, new);
                        vecs.rehome(old, new);
                        released.push(old);
                    }
                    7 => assert_eq!(runs.reap(), vecs.reap(), "{at}"),
                    _ => {
                        // Growth, as `slab_alloc_bulk` does it: once no
                        // partial slab is left.
                        let carved = runs.alloc_from_partial(u64::MAX);
                        assert_eq!(carved, vecs.alloc_from_partial(u64::MAX), "{at}");
                        let objects = rng.next_range(0, 4 * per_page);
                        let pages: Vec<Gfn> = (0..objects.div_ceil(per_page))
                            .map(|_| fresh(&mut rng, &mut released))
                            .collect();
                        runs.grow(&pages, objects);
                        let mut left = objects;
                        for &g in &pages {
                            assert_eq!(vecs.alloc_object(|| Some(g)), Some(g), "{at}");
                            let rest = (left - 1).min(per_page - 1);
                            assert_eq!(vecs.alloc_from_partial(rest), rest, "{at}");
                            left -= rest + 1;
                        }
                    }
                }
                assert!(
                    encoded(&runs) == encoded(&vecs),
                    "{at}: the encodings differ"
                );
                if call % 25 == 24 {
                    let bytes = encoded(&runs);
                    let mut r = SnapReader::new(&bytes);
                    runs = SlabCache::unsnap(&mut r).expect("the cache decodes");
                    r.finish().expect("nothing is left over");
                    assert!(encoded(&runs) == bytes, "{at}: the round trip moved bytes");
                }
            }
        }
    }

    /// A hint stack decodes to its folded runs, and every cut of its bytes
    /// fails with the error the `Vec<Gfn>` it encodes as returns.
    #[test]
    fn hint_stacks_decode_folded_and_fail_as_vec_stacks() {
        let entries = [1, 1, 1, 7, 7, 1, 9, 9, 9, 9].map(Gfn);
        let bytes = encoded(&entries.to_vec());
        let mut r = SnapReader::new(&bytes);
        let stack = HintStack::unsnap(&mut r).expect("the stack decodes");
        r.finish().expect("nothing is left over");
        let runs = [(1, 3), (7, 2), (1, 1), (9, 4)].map(|(g, n)| (Gfn(g), n));
        assert_eq!(stack.runs, runs);
        for cut in 0..bytes.len() {
            let got = HintStack::unsnap(&mut SnapReader::new(&bytes[..cut]));
            let want = Vec::<Gfn>::unsnap(&mut SnapReader::new(&bytes[..cut]));
            assert_eq!(got.unwrap_err(), want.unwrap_err(), "cut at {cut}");
        }
    }

    #[test]
    fn objects_pack_into_pages() {
        let mut c = SlabCache::new("dentry", 1024, 4096); // 4 objects/page
        let mut src = pages_from(0);
        let mut pages = std::collections::HashSet::new();
        for _ in 0..4 {
            pages.insert(c.alloc_object(&mut src).unwrap());
        }
        assert_eq!(pages.len(), 1, "first four objects share one slab");
        assert_eq!(c.pages(), 1);
        let fifth = c.alloc_object(&mut src).unwrap();
        assert!(!pages.contains(&fifth));
        assert_eq!(c.pages(), 2);
        assert_eq!(c.objects(), 5);
    }

    #[test]
    fn empty_slab_is_released() {
        let mut c = SlabCache::new("skbuff", 2048, 4096); // 2 objects/page
        let mut src = pages_from(10);
        let p = c.alloc_object(&mut src).unwrap();
        let p2 = c.alloc_object(&mut src).unwrap();
        assert_eq!(p, p2);
        assert_eq!(c.free_object(p), None, "slab still half full");
        assert_eq!(c.free_object(p), Some(p), "last object frees the page");
        assert_eq!(c.pages(), 0);
        assert_eq!(c.objects(), 0);
    }

    #[test]
    fn alloc_fails_without_pages() {
        let mut c = SlabCache::new("x", 4096, 4096);
        assert_eq!(c.alloc_object(|| None), None);
        assert_eq!(c.objects(), 0);
    }

    #[test]
    fn oversized_object_uses_whole_page() {
        let mut c = SlabCache::new("big", 4096, 4096);
        let mut src = pages_from(0);
        let a = c.alloc_object(&mut src).unwrap();
        let b = c.alloc_object(&mut src).unwrap();
        assert_ne!(a, b);
    }

    #[test]
    #[should_panic(expected = "is not a slab")]
    fn foreign_free_panics() {
        let mut c = SlabCache::new("x", 512, 4096);
        c.free_object(Gfn(99));
    }

    #[test]
    #[should_panic(expected = "larger than slab page")]
    fn oversized_object_rejected() {
        SlabCache::new("x", 8192, 4096);
    }

    #[test]
    fn chunked_carve_matches_scalar_alloc_sequence() {
        let mut scalar = SlabCache::new("x", 1024, 4096); // 4 objects/page
        let mut bulk = SlabCache::new("x", 1024, 4096);
        // Seed both caches with two partial slabs the same way.
        for c in [&mut scalar, &mut bulk] {
            let mut src = pages_from(0);
            for _ in 0..3 {
                c.alloc_object(&mut src).unwrap();
            }
            c.alloc_object(&mut src).unwrap(); // fills page 0
            c.alloc_object(&mut src).unwrap(); // opens page 1
            c.free_object(Gfn(0)); // page 0 partial again
        }
        // Scalar: carve until partials run dry.
        let mut scalar_got = 0u64;
        while scalar.alloc_object(|| None).is_some() {
            scalar_got += 1;
        }
        let bulk_got = bulk.alloc_from_partial(u64::MAX);
        assert_eq!(scalar_got, bulk_got);
        assert_eq!(scalar.objects(), bulk.objects());
        assert_eq!(scalar.pages(), bulk.pages());
        assert_eq!(bulk.alloc_from_partial(5), 0, "no partial room left");
    }

    #[test]
    fn chunked_free_matches_scalar_free_any_sequence() {
        let mut scalar = SlabCache::new("x", 1024, 4096);
        let mut bulk = SlabCache::new("x", 1024, 4096);
        for c in [&mut scalar, &mut bulk] {
            let mut src = pages_from(0);
            for _ in 0..7 {
                c.alloc_object(&mut src).unwrap(); // 2 pages: 4 + 3 objects
            }
        }
        let mut scalar_events = Vec::new();
        for _ in 0..6 {
            scalar_events.push(scalar.free_any_object().unwrap());
        }
        let mut bulk_events = Vec::new();
        let mut left = 6u64;
        while left > 0 {
            let (freed, emptied) = bulk.free_any_chunk(left).unwrap();
            for _ in 0..freed.saturating_sub(u64::from(emptied.is_some())) {
                bulk_events.push(None);
            }
            if let Some(p) = emptied {
                bulk_events.push(Some(p));
            }
            left -= freed;
        }
        assert_eq!(
            scalar_events, bulk_events,
            "same pages empty at same points"
        );
        assert_eq!(scalar.objects(), bulk.objects());
        assert_eq!(scalar.pages(), bulk.pages());
        // Both drain to empty identically.
        assert_eq!(
            scalar.free_any_object(),
            bulk.free_any_chunk(1).map(|(_, p)| p)
        );
        assert!(bulk.free_any_chunk(1).is_none());
        assert!(scalar.free_any_object().is_none());
    }

    #[test]
    fn cumulative_traffic_counters_survive_frees() {
        let mut c = SlabCache::new("x", 2048, 4096); // 2 objects/page
        let mut src = pages_from(0);
        let p = c.alloc_object(&mut src).unwrap();
        c.alloc_object(&mut src).unwrap();
        c.free_object(p);
        c.free_object(p);
        assert_eq!(c.objects(), 0, "live count returns to zero");
        assert_eq!(c.total_allocs(), 2, "cumulative allocs persist");
        assert_eq!(c.total_frees(), 2, "cumulative frees persist");
        // Bulk paths count the same way.
        c.alloc_object(&mut src).unwrap();
        c.alloc_from_partial(1);
        c.free_any_chunk(2).unwrap();
        assert_eq!(c.total_allocs(), 4);
        assert_eq!(c.total_frees(), 4);
    }

    #[test]
    fn reap_returns_nothing_in_steady_state() {
        let mut c = SlabCache::new("x", 512, 4096);
        let mut src = pages_from(0);
        c.alloc_object(&mut src).unwrap();
        assert!(c.reap().is_empty());
    }
}
