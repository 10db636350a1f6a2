//! A four-level radix page table with accessed/dirty bits.
//!
//! Software hotness tracking works by harvesting and resetting PTE access
//! bits during periodic page-table scans (§2.3). To charge that work
//! honestly, the guest keeps a real 4-level (9 bits/level, x86-64-shaped)
//! radix tree: scans walk actual tables, and the number of *page-table
//! pages* backing the tree feeds the Fig 4 page-type accounting.

use hetero_sim::snap::{Snap, SnapReader, SnapWriter, SnapshotError};

use crate::page::Gfn;

/// Bits translated per level.
const LEVEL_BITS: u32 = 9;
/// Entries per table.
const FANOUT: usize = 1 << LEVEL_BITS;
/// Number of levels.
pub const LEVELS: u32 = 4;
/// Maximum virtual page number (exclusive).
pub const VPN_LIMIT: u64 = 1 << (LEVEL_BITS * LEVELS);

/// A page-table entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pte {
    /// Backing guest frame.
    pub gfn: Gfn,
    /// Hardware access bit (set by touches, cleared by scans).
    pub accessed: bool,
    /// Hardware dirty bit.
    pub dirty: bool,
}

impl Pte {
    /// A CPU touch: sets the access bit, and the dirty bit for a write.
    pub(crate) fn touch(&mut self, write: bool) {
        self.accessed = true;
        self.dirty |= write;
    }

    /// Harvest-and-reset: returns `(accessed, dirty)` and clears both.
    /// Resetting the dirty bit alongside the access bit is what makes
    /// harvested write heat decay: without it every page written once
    /// reads as write-hot forever.
    pub(crate) fn harvest(&mut self) -> (bool, bool) {
        let bits = (self.accessed, self.dirty);
        self.accessed = false;
        self.dirty = false;
        bits
    }
}

#[derive(Debug, Clone)]
enum Entry {
    Empty,
    Table(Box<Table>),
    Leaf(Pte),
}

#[derive(Debug, Clone)]
struct Table {
    entries: Vec<Entry>,
    used: usize,
}

impl Table {
    fn new() -> Self {
        Table {
            entries: (0..FANOUT).map(|_| Entry::Empty).collect(),
            used: 0,
        }
    }
}

/// A four-level page table.
///
/// # Examples
///
/// ```
/// use hetero_guest::pagetable::PageTable;
/// use hetero_guest::page::Gfn;
///
/// let mut pt = PageTable::new();
/// pt.map(0x1234, Gfn(42));
/// assert_eq!(pt.translate(0x1234), Some(Gfn(42)));
/// pt.touch(0x1234, true);
/// assert!(pt.walk(0x1234).unwrap().dirty);
/// ```
#[derive(Debug, Clone)]
pub struct PageTable {
    root: Box<Table>,
    mapped: u64,
    table_pages: u64,
}

impl Default for PageTable {
    fn default() -> Self {
        PageTable::new()
    }
}

impl PageTable {
    /// Creates an empty page table (root table counts as one table page).
    pub fn new() -> Self {
        PageTable {
            root: Box::new(Table::new()),
            mapped: 0,
            table_pages: 1,
        }
    }

    /// Number of mapped leaf entries.
    pub fn mapped_pages(&self) -> u64 {
        self.mapped
    }

    /// Number of page-table pages backing the tree (including the root).
    pub fn table_pages(&self) -> u64 {
        self.table_pages
    }

    fn index(vpn: u64, level: u32) -> usize {
        ((vpn >> (LEVEL_BITS * level)) & (FANOUT as u64 - 1)) as usize
    }

    /// Maps `vpn → gfn`, replacing any existing mapping.
    ///
    /// Returns the previously mapped frame, if any.
    ///
    /// # Panics
    ///
    /// Panics if `vpn >= VPN_LIMIT`.
    pub fn map(&mut self, vpn: u64, gfn: Gfn) -> Option<Gfn> {
        assert!(vpn < VPN_LIMIT, "vpn {vpn:#x} out of range");
        let mut new_tables = 0;
        let mut table = &mut *self.root;
        for level in (1..LEVELS).rev() {
            let idx = Self::index(vpn, level);
            if matches!(table.entries[idx], Entry::Empty) {
                table.entries[idx] = Entry::Table(Box::new(Table::new()));
                table.used += 1;
                new_tables += 1;
            }
            table = match &mut table.entries[idx] {
                Entry::Table(t) => t,
                _ => unreachable!("interior levels hold tables"),
            };
        }
        let idx = Self::index(vpn, 0);
        let prev = match std::mem::replace(
            &mut table.entries[idx],
            Entry::Leaf(Pte {
                gfn,
                accessed: false,
                dirty: false,
            }),
        ) {
            Entry::Empty => {
                table.used += 1;
                self.mapped += 1;
                None
            }
            Entry::Leaf(old) => Some(old.gfn),
            Entry::Table(_) => unreachable!("leaf level holds PTEs"),
        };
        self.table_pages += new_tables;
        prev
    }

    /// Maps the consecutive range `start .. start + gfns.len()` so that
    /// `start + i` translates to `gfns[i]`, replacing existing mappings.
    ///
    /// End state is identical to calling [`PageTable::map`] per page; the
    /// interior descent is amortised — one walk per 512-entry leaf block
    /// instead of one per page, which is what makes bulk heap faults cheap.
    ///
    /// # Panics
    ///
    /// Panics if the range reaches `VPN_LIMIT`.
    pub fn map_range(&mut self, start: u64, gfns: &[Gfn]) {
        if gfns.is_empty() {
            return;
        }
        let end = start + gfns.len() as u64;
        assert!(end <= VPN_LIMIT, "vpn range {start:#x}..{end:#x} out of range");
        let mut i = 0usize;
        while i < gfns.len() {
            let vpn = start + i as u64;
            // Pages sharing this leaf table: up to the next 512-block edge.
            let block_end = ((vpn >> LEVEL_BITS) + 1) << LEVEL_BITS;
            let n = ((block_end - vpn) as usize).min(gfns.len() - i);
            let mut new_tables = 0;
            let mut table = &mut *self.root;
            for level in (1..LEVELS).rev() {
                let idx = Self::index(vpn, level);
                if matches!(table.entries[idx], Entry::Empty) {
                    table.entries[idx] = Entry::Table(Box::new(Table::new()));
                    table.used += 1;
                    new_tables += 1;
                }
                table = match &mut table.entries[idx] {
                    Entry::Table(t) => t,
                    _ => unreachable!("interior levels hold tables"),
                };
            }
            let base = Self::index(vpn, 0);
            for (j, &gfn) in gfns[i..i + n].iter().enumerate() {
                let leaf = Entry::Leaf(Pte {
                    gfn,
                    accessed: false,
                    dirty: false,
                });
                match std::mem::replace(&mut table.entries[base + j], leaf) {
                    Entry::Empty => {
                        table.used += 1;
                        self.mapped += 1;
                    }
                    Entry::Leaf(_) => {}
                    Entry::Table(_) => unreachable!("leaf level holds PTEs"),
                }
            }
            self.table_pages += new_tables;
            i += n;
        }
    }

    /// Removes the mapping for `vpn`, returning its PTE.
    ///
    /// Empty intermediate tables are freed (the table-page count drops).
    pub fn unmap(&mut self, vpn: u64) -> Option<Pte> {
        if vpn >= VPN_LIMIT {
            return None;
        }
        fn recurse(table: &mut Table, vpn: u64, level: u32, freed: &mut u64) -> Option<Pte> {
            let idx = PageTable::index(vpn, level);
            if level == 0 {
                return match std::mem::replace(&mut table.entries[idx], Entry::Empty) {
                    Entry::Leaf(pte) => {
                        table.used -= 1;
                        Some(pte)
                    }
                    other => {
                        table.entries[idx] = other;
                        None
                    }
                };
            }
            let (pte, now_empty) = match &mut table.entries[idx] {
                Entry::Table(child) => {
                    let pte = recurse(child, vpn, level - 1, freed)?;
                    (pte, child.used == 0)
                }
                _ => return None,
            };
            if now_empty {
                table.entries[idx] = Entry::Empty;
                table.used -= 1;
                *freed += 1;
            }
            Some(pte)
        }
        let mut freed = 0;
        let pte = recurse(&mut self.root, vpn, LEVELS - 1, &mut freed)?;
        self.mapped -= 1;
        self.table_pages -= freed;
        Some(pte)
    }

    fn leaf(&self, vpn: u64) -> Option<&Pte> {
        if vpn >= VPN_LIMIT {
            return None;
        }
        let mut table = &*self.root;
        for level in (1..LEVELS).rev() {
            match &table.entries[Self::index(vpn, level)] {
                Entry::Table(t) => table = t,
                _ => return None,
            }
        }
        match &table.entries[Self::index(vpn, 0)] {
            Entry::Leaf(pte) => Some(pte),
            _ => None,
        }
    }

    fn leaf_mut(&mut self, vpn: u64) -> Option<&mut Pte> {
        if vpn >= VPN_LIMIT {
            return None;
        }
        let mut table = &mut *self.root;
        for level in (1..LEVELS).rev() {
            match &mut table.entries[Self::index(vpn, level)] {
                Entry::Table(t) => table = t,
                _ => return None,
            }
        }
        match &mut table.entries[Self::index(vpn, 0)] {
            Entry::Leaf(pte) => Some(pte),
            _ => None,
        }
    }

    /// Full walk: the PTE for `vpn`, if mapped.
    pub fn walk(&self, vpn: u64) -> Option<&Pte> {
        self.leaf(vpn)
    }

    /// Translation only.
    pub fn translate(&self, vpn: u64) -> Option<Gfn> {
        self.leaf(vpn).map(|p| p.gfn)
    }

    /// Simulates a CPU touch: sets the access bit (and dirty for writes).
    ///
    /// Returns `false` when `vpn` is unmapped.
    pub fn touch(&mut self, vpn: u64, write: bool) -> bool {
        match self.leaf_mut(vpn) {
            Some(pte) => {
                pte.touch(write);
                true
            }
            None => false,
        }
    }

    /// Rebinds a mapped `vpn` to a new frame (migration remap), preserving
    /// bit state. Returns the old frame, or `None` if unmapped.
    pub fn remap(&mut self, vpn: u64, gfn: Gfn) -> Option<Gfn> {
        self.leaf_mut(vpn).map(|pte| {
            let old = pte.gfn;
            pte.gfn = gfn;
            old
        })
    }

    /// Visits every mapped PTE in `[start, end)` in ascending VPN order,
    /// calling `f(vpn, pte)`, and returns how many it visited. The walk
    /// reads only the slots inside the range and skips empty subtrees, so
    /// a range of mapped pages costs its PTEs plus one descent through
    /// the levels, not the 512 slots of every table it enters. An empty
    /// or reversed range visits nothing; the range is clipped at
    /// [`VPN_LIMIT`].
    pub(crate) fn visit_mapped(
        &mut self,
        start: u64,
        end: u64,
        mut f: impl FnMut(u64, &mut Pte),
    ) -> u64 {
        fn visit(
            table: &mut Table,
            level: u32,
            base: u64,
            first: u64,
            last: u64,
            f: &mut impl FnMut(u64, &mut Pte),
        ) -> u64 {
            // `[first, last]` meets this table's span; visit only the
            // slots it covers.
            let shift = LEVEL_BITS * level;
            let span = (FANOUT as u64) << shift;
            let lo = PageTable::index(first.max(base), level);
            let hi = PageTable::index(last.min(base + span - 1), level);
            let mut visited = 0;
            for (i, entry) in (lo..=hi).zip(&mut table.entries[lo..=hi]) {
                let vpn = base + ((i as u64) << shift);
                match entry {
                    Entry::Empty => {}
                    Entry::Table(child) => visited += visit(child, level - 1, vpn, first, last, f),
                    Entry::Leaf(pte) => {
                        visited += 1;
                        f(vpn, pte);
                    }
                }
            }
            visited
        }
        let end = end.min(VPN_LIMIT);
        if start >= end {
            return 0;
        }
        visit(&mut self.root, LEVELS - 1, 0, start, end - 1, &mut f)
    }

    /// Scans `[start, end)`, invoking `f(vpn, accessed, dirty)` for each
    /// mapped page in ascending VPN order and **clearing both the access
    /// and dirty bits** (the harvest-and-reset cycle of software A/D
    /// tracking, see `Pte::harvest`). Returns the number of PTEs visited.
    /// One bounded walk (`PageTable::visit_mapped`).
    pub fn scan_and_reset(
        &mut self,
        start: u64,
        end: u64,
        mut f: impl FnMut(u64, bool, bool),
    ) -> u64 {
        self.visit_mapped(start, end, |vpn, pte| {
            let (accessed, dirty) = pte.harvest();
            f(vpn, accessed, dirty);
        })
    }
}

/// Snapshot tag of an empty slot.
const SLOT_EMPTY: u8 = 0;
/// Snapshot tag of a slot holding the next level's table.
const SLOT_TABLE: u8 = 1;
/// Snapshot tag of a slot holding a PTE.
const SLOT_LEAF: u8 = 2;

/// Leaves and tables found while decoding a tree.
#[derive(Default)]
struct Tally {
    leaves: u64,
    tables: u64,
}

impl Table {
    /// Encodes the entry count, then per slot its tag and payload, then
    /// `used`. A leaf slot is one 11-byte record: the tag, the PTE's `u64`
    /// frame, its accessed bit and its dirty bit.
    fn snap(&self, w: &mut SnapWriter) {
        w.put_usize(self.entries.len());
        for entry in &self.entries {
            match entry {
                Entry::Empty => w.put_u8(SLOT_EMPTY),
                Entry::Table(child) => {
                    w.put_u8(SLOT_TABLE);
                    child.snap(w);
                }
                Entry::Leaf(pte) => {
                    let mut leaf = [SLOT_LEAF; 11];
                    leaf[1..9].copy_from_slice(&pte.gfn.0.to_le_bytes());
                    leaf[9] = u8::from(pte.accessed);
                    leaf[10] = u8::from(pte.dirty);
                    w.put_bytes(&leaf);
                }
            }
        }
        w.put_usize(self.used);
    }

    /// Decodes a table at `level`, adding what it holds to `tally`. Fails
    /// unless the table has exactly [`FANOUT`] entries, levels above 0
    /// hold only tables or empties, level 0 only leaves or empties, and
    /// `used` counts the non-empty slots. Recursion stops at level 0, so a
    /// hostile nest cannot overflow the stack.
    fn unsnap(
        r: &mut SnapReader<'_>,
        level: u32,
        tally: &mut Tally,
    ) -> Result<Self, SnapshotError> {
        let len = r.take_usize()?;
        if len != FANOUT {
            return Err(SnapshotError::corrupt(format!(
                "page table at level {level} has {len} entries, expected {FANOUT}"
            )));
        }
        let mut entries = Vec::with_capacity(FANOUT);
        let mut used = 0;
        for _ in 0..FANOUT {
            let entry = match (r.take_u8()?, level) {
                (SLOT_EMPTY, _) => Entry::Empty,
                (SLOT_TABLE, 1..) => Entry::Table(Box::new(Table::unsnap(r, level - 1, tally)?)),
                (SLOT_LEAF, 0) => {
                    tally.leaves += 1;
                    Entry::Leaf(Pte {
                        gfn: Gfn(r.take_u64()?),
                        accessed: r.take_bool()?,
                        dirty: r.take_bool()?,
                    })
                }
                (tag, _) => {
                    return Err(SnapshotError::corrupt(format!(
                        "page-table slot tag {tag} is invalid at level {level}"
                    )))
                }
            };
            used += usize::from(!matches!(entry, Entry::Empty));
            entries.push(entry);
        }
        let recorded = r.take_usize()?;
        if recorded != used {
            return Err(SnapshotError::corrupt(format!(
                "page table at level {level} records {recorded} used slots, holds {used}"
            )));
        }
        tally.tables += 1;
        Ok(Table { entries, used })
    }
}

impl Snap for PageTable {
    fn snap(&self, w: &mut SnapWriter) {
        self.root.snap(w);
        w.put_u64(self.mapped);
        w.put_u64(self.table_pages);
    }

    /// Decodes the tree level by level (see `Table::unsnap`) and fails
    /// unless `mapped` and `table_pages` match it.
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        let mut tally = Tally::default();
        let root = Box::new(Table::unsnap(r, LEVELS - 1, &mut tally)?);
        let mapped = r.take_u64()?;
        let table_pages = r.take_u64()?;
        if (mapped, table_pages) != (tally.leaves, tally.tables) {
            return Err(SnapshotError::corrupt(format!(
                "page table records {mapped} mapped pages in {table_pages} tables, \
                 holds {} in {}",
                tally.leaves, tally.tables
            )));
        }
        Ok(PageTable {
            root,
            mapped,
            table_pages,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_translate_unmap() {
        let mut pt = PageTable::new();
        assert_eq!(pt.map(5, Gfn(50)), None);
        assert_eq!(pt.translate(5), Some(Gfn(50)));
        assert_eq!(pt.mapped_pages(), 1);
        let pte = pt.unmap(5).unwrap();
        assert_eq!(pte.gfn, Gfn(50));
        assert_eq!(pt.translate(5), None);
        assert_eq!(pt.mapped_pages(), 0);
    }

    #[test]
    fn remap_replaces_frame_keeps_bits() {
        let mut pt = PageTable::new();
        pt.map(9, Gfn(1));
        pt.touch(9, true);
        assert_eq!(pt.remap(9, Gfn(2)), Some(Gfn(1)));
        let pte = pt.walk(9).unwrap();
        assert_eq!(pte.gfn, Gfn(2));
        assert!(pte.accessed && pte.dirty);
        assert_eq!(pt.remap(1234, Gfn(3)), None);
    }

    #[test]
    fn map_returns_previous_mapping() {
        let mut pt = PageTable::new();
        pt.map(7, Gfn(70));
        assert_eq!(pt.map(7, Gfn(71)), Some(Gfn(70)));
        assert_eq!(pt.mapped_pages(), 1, "remapping must not double count");
    }

    #[test]
    fn table_pages_grow_and_shrink() {
        let mut pt = PageTable::new();
        assert_eq!(pt.table_pages(), 1);
        pt.map(0, Gfn(0));
        assert_eq!(pt.table_pages(), 4, "root + 3 interior levels");
        // A distant vpn shares the root only.
        pt.map(VPN_LIMIT - 1, Gfn(1));
        assert_eq!(pt.table_pages(), 7);
        pt.unmap(VPN_LIMIT - 1);
        assert_eq!(pt.table_pages(), 4, "empty interior tables are freed");
        pt.unmap(0);
        assert_eq!(pt.table_pages(), 1);
    }

    #[test]
    fn touch_sets_bits() {
        let mut pt = PageTable::new();
        pt.map(3, Gfn(30));
        assert!(pt.touch(3, false));
        let pte = pt.walk(3).unwrap();
        assert!(pte.accessed);
        assert!(!pte.dirty);
        assert!(pt.touch(3, true));
        assert!(pt.walk(3).unwrap().dirty);
        assert!(!pt.touch(999, false));
    }

    #[test]
    fn scan_harvests_and_resets_access_bits() {
        let mut pt = PageTable::new();
        for vpn in 0..10 {
            pt.map(vpn, Gfn(vpn));
        }
        pt.touch(2, false);
        pt.touch(7, true);
        let mut hot = Vec::new();
        let visited = pt.scan_and_reset(0, 10, |vpn, accessed, _| {
            if accessed {
                hot.push(vpn);
            }
        });
        assert_eq!(visited, 10);
        assert_eq!(hot, vec![2, 7]);
        // Second scan: bits were reset.
        let mut hot2 = Vec::new();
        pt.scan_and_reset(0, 10, |vpn, accessed, _| {
            if accessed {
                hot2.push(vpn);
            }
        });
        assert!(hot2.is_empty());
        // Dirty is harvested-and-reset too (see the regression test below).
        assert!(!pt.walk(7).unwrap().dirty);
    }

    #[test]
    fn scan_harvests_and_resets_dirty_bits() {
        // Regression: scan_and_reset used to clear only the accessed bit,
        // so a page written once reported dirty=true on every later scan
        // and harvested write heat could never decay.
        let mut pt = PageTable::new();
        for vpn in 0..10 {
            pt.map(vpn, Gfn(vpn));
        }
        pt.touch(3, true);
        pt.touch(8, true);
        pt.touch(5, false);
        let mut written = Vec::new();
        let visited = pt.scan_and_reset(0, 10, |vpn, _, dirty| {
            if dirty {
                written.push(vpn);
            }
        });
        assert_eq!(visited, 10);
        assert_eq!(written, vec![3, 8]);
        // Second scan: the dirty bits were reset by the first harvest.
        let mut written2 = Vec::new();
        pt.scan_and_reset(0, 10, |vpn, _, dirty| {
            if dirty {
                written2.push(vpn);
            }
        });
        assert!(written2.is_empty(), "dirty bits must reset: {written2:?}");
        // A fresh write after the harvest is seen again — decay, not loss.
        pt.touch(8, true);
        let mut written3 = Vec::new();
        pt.scan_and_reset(0, 10, |vpn, _, dirty| {
            if dirty {
                written3.push(vpn);
            }
        });
        assert_eq!(written3, vec![8]);
    }

    #[test]
    fn scan_respects_range() {
        let mut pt = PageTable::new();
        for vpn in 0..20 {
            pt.map(vpn, Gfn(vpn));
        }
        let visited = pt.scan_and_reset(5, 15, |_, _, _| {});
        assert_eq!(visited, 10);
    }

    #[test]
    fn map_range_matches_per_page_map() {
        // A range crossing two leaf-table boundaries, mapped both ways,
        // must produce identical translations and table counts.
        let start = 500; // crosses the 512 boundary mid-range
        let gfns: Vec<Gfn> = (0..1040).map(|i| Gfn(10_000 + i)).collect();
        let mut bulk = PageTable::new();
        bulk.map_range(start, &gfns);
        let mut scalar = PageTable::new();
        for (i, &g) in gfns.iter().enumerate() {
            scalar.map(start + i as u64, g);
        }
        assert_eq!(bulk.mapped_pages(), scalar.mapped_pages());
        assert_eq!(bulk.table_pages(), scalar.table_pages());
        for i in 0..gfns.len() as u64 {
            assert_eq!(bulk.translate(start + i), scalar.translate(start + i));
        }
        assert_eq!(bulk.translate(start - 1), None);
        assert_eq!(bulk.translate(start + gfns.len() as u64), None);
    }

    #[test]
    fn map_range_replaces_existing_mappings() {
        let mut pt = PageTable::new();
        pt.map(7, Gfn(70));
        pt.map_range(6, &[Gfn(60), Gfn(71), Gfn(80)]);
        assert_eq!(pt.translate(6), Some(Gfn(60)));
        assert_eq!(pt.translate(7), Some(Gfn(71)), "replaced");
        assert_eq!(pt.translate(8), Some(Gfn(80)));
        assert_eq!(pt.mapped_pages(), 3, "replacement must not double count");
    }

    #[test]
    fn map_range_of_nothing_is_a_noop() {
        let mut pt = PageTable::new();
        pt.map_range(0, &[]);
        assert_eq!(pt.mapped_pages(), 0);
        assert_eq!(pt.table_pages(), 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn map_range_beyond_limit_panics() {
        PageTable::new().map_range(VPN_LIMIT - 1, &[Gfn(0), Gfn(1)]);
    }

    #[test]
    fn unmap_of_unmapped_is_none() {
        let mut pt = PageTable::new();
        assert_eq!(pt.unmap(12345), None);
        assert_eq!(pt.unmap(VPN_LIMIT + 5), None);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn map_beyond_limit_panics() {
        PageTable::new().map(VPN_LIMIT, Gfn(0));
    }

    #[test]
    fn sparse_mappings_scan_quickly() {
        let mut pt = PageTable::new();
        pt.map(0, Gfn(0));
        pt.map(VPN_LIMIT / 2, Gfn(1));
        let visited = pt.scan_and_reset(0, VPN_LIMIT, |_, _, _| {});
        assert_eq!(visited, 2);
    }

    /// Mapped VPNs straddling the 512-, 2^18- and 2^27-VPN boundaries
    /// (leaf, level-1 and level-2 table edges), plus a few loners and the
    /// last two VPNs below [`VPN_LIMIT`].
    fn boundary_vpns() -> Vec<u64> {
        let mut vpns: Vec<u64> = [1u64 << 9, 1 << 18, 1 << 27, 3 << 27]
            .iter()
            .flat_map(|&edge| edge - 3..edge + 3)
            .collect();
        vpns.extend([0, 700, 1000, (1 << 18) + 900, VPN_LIMIT - 2, VPN_LIMIT - 1]);
        vpns
    }

    /// The brute-force reference: one `walk` per VPN of the range.
    fn walk_each(pt: &PageTable, start: u64, end: u64) -> Vec<(u64, bool, bool)> {
        (start..end.min(VPN_LIMIT))
            .filter_map(|vpn| pt.walk(vpn).map(|p| (vpn, p.accessed, p.dirty)))
            .collect()
    }

    #[test]
    fn bounded_scan_matches_brute_force_walk() {
        let mut pt = PageTable::new();
        let vpns = boundary_vpns();
        for &vpn in &vpns {
            pt.map(vpn, Gfn(vpn));
        }
        let edge = |bits: u32| 1u64 << bits;
        // (start, end, mapped VPNs inside)
        let ranges = [
            (edge(9), edge(9), 0),                 // empty
            (edge(18) + 2, edge(18) - 2, 0),       // reversed
            (edge(9) - 1, edge(9), 1),             // last slot of a leaf table
            (edge(9), edge(9) + 1, 1),             // first slot of the next
            (edge(27) - 1, edge(27), 1),           // last slot under a root slot
            (0, 2000, 9),                          // four leaf tables
            (edge(18) - 1500, edge(18) + 1500, 7), // across a level-1 edge
            (edge(27) - 600, edge(27) + 600, 6),   // across a root slot
            ((3 << 27) - 3, (3 << 27) + 3, 6),
            (VPN_LIMIT - 1000, VPN_LIMIT + 1000, 2), // ends past VPN_LIMIT
            (VPN_LIMIT, VPN_LIMIT + 10, 0),          // starts at it
            (VPN_LIMIT + 5, VPN_LIMIT + 50, 0),      // starts past it
            (u64::MAX - 1, u64::MAX, 0),
        ];
        for (start, end, inside) in ranges {
            // Fresh, varied bits on every mapped page before each scan.
            for (i, &vpn) in vpns.iter().enumerate() {
                if i % 3 != 2 {
                    pt.touch(vpn, i % 2 == 0);
                }
            }
            let before: Vec<Pte> = vpns.iter().map(|&v| *pt.walk(v).unwrap()).collect();
            let want = walk_each(&pt, start, end);
            assert_eq!(want.len(), inside, "[{start:#x}, {end:#x}): fixture");
            let mut got = Vec::new();
            let visited = pt.scan_and_reset(start, end, |vpn, a, d| got.push((vpn, a, d)));
            assert_eq!(got, want, "[{start:#x}, {end:#x}): harvest");
            assert_eq!(visited, inside as u64, "[{start:#x}, {end:#x}): count");
            for (&vpn, old) in vpns.iter().zip(&before) {
                let pte = *pt.walk(vpn).unwrap();
                if (start..end).contains(&vpn) {
                    assert!(!pte.accessed && !pte.dirty, "{vpn:#x} kept its bits");
                } else {
                    assert_eq!(pte, *old, "{vpn:#x} outside [{start:#x}, {end:#x}) changed");
                }
            }
        }
    }

    fn encode(pt: &PageTable) -> Vec<u8> {
        let mut w = SnapWriter::new();
        pt.snap(&mut w);
        w.into_bytes()
    }

    fn decode(bytes: &[u8]) -> Result<PageTable, SnapshotError> {
        let mut r = SnapReader::new(bytes);
        let pt = PageTable::unsnap(&mut r)?;
        r.finish()?;
        Ok(pt)
    }

    fn assert_corrupt(bytes: &[u8], what: &str) {
        match decode(bytes) {
            Err(SnapshotError::Corrupt(_)) => {}
            other => panic!("{what}: expected Corrupt, got {:?}", other.map(|_| ())),
        }
    }

    #[test]
    fn snapshot_round_trips_byte_identically() {
        let mut pt = PageTable::new();
        for &vpn in &boundary_vpns() {
            pt.map(vpn, Gfn(vpn * 7));
            pt.touch(vpn, vpn % 2 == 0);
        }
        let bytes = encode(&pt);
        let back = decode(&bytes).expect("a well-formed table decodes");
        assert_eq!(encode(&back), bytes);
        assert_eq!(back.mapped_pages(), pt.mapped_pages());
        assert_eq!(back.table_pages(), pt.table_pages());
        for &vpn in &boundary_vpns() {
            assert_eq!(back.walk(vpn), pt.walk(vpn));
        }
    }

    /// Each slot tag and PTE bool of a page-table encoding, paired with the
    /// first value its decoder rejects, and each table's entry count set
    /// one short.
    fn mutations(bytes: &[u8]) -> Vec<(usize, Vec<u8>)> {
        fn table(bytes: &[u8], at: &mut usize, level: u32, out: &mut Vec<(usize, Vec<u8>)>) {
            out.push((*at, (FANOUT as u64 - 1).to_le_bytes().to_vec()));
            *at += 8;
            for _ in 0..FANOUT {
                let tag = bytes[*at];
                out.push((*at, vec![if level == 0 { SLOT_TABLE } else { SLOT_LEAF }]));
                *at += 1;
                match tag {
                    SLOT_TABLE => table(bytes, at, level - 1, out),
                    SLOT_LEAF => {
                        out.extend([(*at + 8, vec![2]), (*at + 9, vec![2])]);
                        *at += 10;
                    }
                    _ => {}
                }
            }
            *at += 8;
        }
        let mut out = Vec::new();
        table(bytes, &mut 0, LEVELS - 1, &mut out);
        out
    }

    /// Recorded with the decoder before its one-pass rewrite.
    const PAGETABLE_ERROR_DIGEST: u64 = 0x73eb_6d78_6f63_c763;

    #[test]
    fn decode_errors_match_the_pinned_digest() {
        let mut pt = PageTable::new();
        for (i, vpn) in [0u64, 511, 512, 1 << 18, VPN_LIMIT - 1]
            .into_iter()
            .enumerate()
        {
            pt.map(vpn, Gfn(vpn ^ 0x5a5a));
            pt.touch(vpn, i % 2 == 0);
        }
        pt.touch(511, true);
        let bytes = encode(&pt);
        let mutations = mutations(&bytes);
        assert_eq!(mutations.len(), 10 * (FANOUT + 1) + 5 * 2);
        let digest = crate::memmap::tests::error_digest(&bytes, &mutations, decode);
        assert_eq!(
            digest, PAGETABLE_ERROR_DIGEST,
            "page-table decode errors moved: {digest:#018x}"
        );
    }

    #[test]
    fn short_root_is_rejected() {
        // Regression: a 3-entry root decoded, and the next translate past
        // slot 2 panicked out of bounds.
        let mut w = SnapWriter::new();
        w.put_usize(3);
        for _ in 0..3 {
            w.put_u8(SLOT_EMPTY);
        }
        w.put_usize(0);
        w.put_u64(0);
        w.put_u64(1);
        assert_corrupt(&w.into_bytes(), "3-entry root");
    }

    #[test]
    fn deep_nest_is_rejected_without_overflowing_the_stack() {
        // Regression: 50,000 nested one-entry tables (about 850 KB)
        // overflowed the decoder's stack and aborted the process.
        const DEPTH: u64 = 50_000;
        let mut w = SnapWriter::new();
        for _ in 0..DEPTH {
            w.put_usize(1);
            w.put_u8(SLOT_TABLE);
        }
        w.put_usize(0);
        w.put_usize(0);
        for _ in 0..DEPTH {
            w.put_usize(1);
        }
        w.put_u64(0);
        w.put_u64(DEPTH + 1);
        assert_corrupt(&w.into_bytes(), "50,000-deep nest");
    }

    /// Encodes a full-width table whose slot 0 holds `tag` followed by
    /// what `payload` writes, and whose other slots are empty.
    fn one_slot_table(w: &mut SnapWriter, tag: u8, payload: impl FnOnce(&mut SnapWriter)) {
        w.put_usize(FANOUT);
        w.put_u8(tag);
        payload(w);
        for _ in 1..FANOUT {
            w.put_u8(SLOT_EMPTY);
        }
        w.put_usize(1);
    }

    #[test]
    fn table_below_level_zero_is_rejected() {
        fn nest(w: &mut SnapWriter, depth: u32) {
            if depth == 0 {
                w.put_usize(FANOUT);
                for _ in 0..FANOUT {
                    w.put_u8(SLOT_EMPTY);
                }
                w.put_usize(0);
            } else {
                one_slot_table(w, SLOT_TABLE, |w| nest(w, depth - 1));
            }
        }
        // LEVELS + 1 nested full-width tables: the level-0 table holds one.
        let mut w = SnapWriter::new();
        nest(&mut w, LEVELS);
        w.put_u64(0);
        w.put_u64(u64::from(LEVELS) + 1);
        assert_corrupt(&w.into_bytes(), "table at level 0");
    }

    #[test]
    fn leaf_above_level_zero_is_rejected() {
        let pte = Pte {
            gfn: Gfn(9),
            accessed: false,
            dirty: false,
        };
        let mut w = SnapWriter::new();
        one_slot_table(&mut w, SLOT_LEAF, |w| {
            w.put_u64(pte.gfn.0);
            w.put_bool(pte.accessed);
            w.put_bool(pte.dirty);
        });
        w.put_u64(1);
        w.put_u64(1);
        assert_corrupt(&w.into_bytes(), "leaf in the root");
    }

    #[test]
    fn counts_that_disagree_with_the_tree_are_rejected() {
        let mut pt = PageTable::new();
        pt.map(5, Gfn(5));
        pt.map(1 << 20, Gfn(6));
        let bytes = encode(&pt);
        decode(&bytes).expect("the unmutated table decodes");
        // The encoding ends with the root's `used`, then `mapped`, then
        // `table_pages`, each a little-endian u64.
        let n = bytes.len();
        for (at, what) in [
            (n - 24, "root used"),
            (n - 16, "mapped"),
            (n - 8, "table_pages"),
        ] {
            let mut bad = bytes.clone();
            bad[at] ^= 1;
            assert_corrupt(&bad, what);
        }
    }
}
