//! The invariant auditor: cross-checks global frame accounting.
//!
//! Fault injection is only useful if broken bookkeeping is *detected*, so
//! after every audited step the engine (or the chaos harness) runs these
//! checks and collects typed [`Violation`]s instead of relying on scattered
//! `debug_assert!`s:
//!
//! * **guest-local** ([`audit_kernel`]): per-tier frame conservation
//!   (resident + free = total), balloon pinning, exact LRU membership
//!   ([`audit_lru`]: flag ↔ list, walk ↔ count, class ↔ page type), and
//!   page-cache index consistency ([`audit_page_cache`]),
//! * **cross-layer** ([`audit_vmm`]): the VMM's fair-share ledger vs. its
//!   per-guest machine-frame backing vs. the machine's free counts, and the
//!   guest kernels' own view of how many frames they hold.

use std::fmt;

use hetero_guest::lru::{LruClass, LruRegistry};
use hetero_guest::memmap::MemMap;
use hetero_guest::page::{Gfn, Page, PageFlags, PageType};
use hetero_guest::pagecache::PageCache;
use hetero_guest::GuestKernel;
use hetero_mem::kind::KindMap;
use hetero_mem::MemKind;
use hetero_vmm::drf::GuestId;
use hetero_vmm::Vmm;

/// One detected accounting violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Violation {
    /// `resident + free != total` on a tier.
    FrameAccounting {
        /// Tier checked.
        kind: MemKind,
        /// Pages the memmap says are present.
        resident: u64,
        /// Pages the allocator says are free (buddy + per-CPU).
        free: u64,
        /// Configured tier size.
        total: u64,
    },
    /// LRU flag count disagrees with list membership count on a tier.
    LruMembership {
        /// Tier checked.
        kind: MemKind,
        /// Pages the registry says are listed.
        listed: u64,
        /// Pages whose memmap flags say they are listed.
        flagged: u64,
    },
    /// Walking one LRU list did not visit exactly its recorded number of
    /// pages (a broken link ends it early; a cycle runs one page past).
    LruWalk {
        /// Tier of the list.
        kind: MemKind,
        /// Pages reached by walking the list, at most `listed + 1`.
        walked: u64,
        /// Pages the list records.
        listed: u64,
    },
    /// A walked LRU page sits on the wrong list for its type/tier.
    LruClassMismatch {
        /// The offending page.
        gfn: Gfn,
        /// Its recorded type.
        page_type: PageType,
    },
    /// BALLOONED flags disagree with the balloon ledger on a tier.
    BalloonAccounting {
        /// Tier checked.
        kind: MemKind,
        /// Pages flagged BALLOONED in the memmap.
        flagged: u64,
        /// Pages the balloon ledger tracks.
        tracked: u64,
    },
    /// A page-cache index entry points at a non-resident or non-file page.
    PageCacheEntry {
        /// The indexed frame.
        gfn: Gfn,
        /// Its recorded type (`None` when not present at all).
        page_type: Option<PageType>,
    },
    /// Two page-cache keys point at the same frame.
    PageCacheDuplicate {
        /// The doubly-indexed frame.
        gfn: Gfn,
    },
    /// The VMM's share ledger and its machine-frame backing disagree.
    GrantMismatch {
        /// Guest checked.
        guest: GuestId,
        /// Pages the fair-share ledger says are granted.
        granted: u64,
        /// Machine frames actually backing the guest.
        backed: u64,
        /// Tier checked.
        kind: MemKind,
    },
    /// A guest kernel's view of its holding disagrees with the VMM's.
    GuestViewMismatch {
        /// Guest checked.
        guest: GuestId,
        /// Tier checked.
        kind: MemKind,
        /// Pages the VMM says the guest holds.
        granted: u64,
        /// Pages the kernel thinks it owns (total − ballooned-out).
        kernel_owned: u64,
    },
    /// Machine frames are neither free nor backing any guest (or are
    /// double-counted).
    MachineAccounting {
        /// Tier checked.
        kind: MemKind,
        /// Machine free frames.
        free: u64,
        /// Frames backing registered guests.
        backed: u64,
        /// Machine tier size.
        total: u64,
    },
    /// The hotness tracker's O(1) tracked-page count disagrees with its
    /// known-bit table.
    TrackerAccounting {
        /// The tracker's cached count.
        tracked: u64,
        /// Known bits actually set in the table.
        known: u64,
    },
    /// The hotness tracker knows a frame beyond the guest's frame space.
    TrackerOutOfRange {
        /// The out-of-range frame.
        gfn: Gfn,
        /// The guest's configured frame count.
        total_frames: u64,
    },
    /// A hotness scan emitted a candidate that violates the scan contract
    /// (wrong tier, not present, or not migratable at emission time).
    ScanCandidate {
        /// The offending candidate.
        gfn: Gfn,
        /// Whether it was emitted as a hot (promotion) candidate.
        hot: bool,
        /// What the contract check found.
        reason: &'static str,
    },
    /// The page-cache index size disagrees with the number of resident
    /// file-backed pages (the index must be a bijection onto them).
    PageCacheCount {
        /// Entries in the page-cache index.
        indexed: u64,
        /// Resident `PageCache`/`BufferCache` pages in the memmap.
        resident: u64,
    },
    /// A slab cache's backing-page set disagrees with memmap residency.
    SlabAccounting {
        /// The slab class name.
        class: &'static str,
        /// Backing pages the slab cache tracks.
        backing: u64,
        /// Resident pages of the class's page type in the memmap.
        resident: u64,
    },
    /// A swapped-out virtual page is still mapped in the page table
    /// (swap-out must unmap before the frame is freed).
    SwapResidency {
        /// The doubly-resident virtual page number.
        vpn: u64,
    },
    /// The memmap's incremental residency counters disagree with a naive
    /// full walk of the page-descriptor array (shadow reference model).
    ResidencyDrift {
        /// Page type of the bucket.
        page_type: PageType,
        /// Tier of the bucket.
        kind: MemKind,
        /// Which counter drifted (`"pages"`, `"heat"`, `"write_heat"`).
        field: &'static str,
        /// The incremental counter's value.
        tracked: u64,
        /// The full walk's recount.
        walked: u64,
    },
    /// The cold-active ledger's incremental per-tier count disagrees with
    /// a dense recount of ACTIVE pages below the cold threshold (the
    /// lazy-aging oracle).
    ColdLedgerDrift {
        /// Tier checked.
        kind: MemKind,
        /// The ledger's incremental count.
        tracked: u64,
        /// Cold-active pages found by the dense walk.
        walked: u64,
    },
    /// The allocator's free-frame total disagrees with a naive recount of
    /// non-present frames (shadow reference model).
    FreeFrameDrift {
        /// Tier checked.
        kind: MemKind,
        /// `free_frames()` (buddy + per-CPU caches).
        free: u64,
        /// Non-present frames found by the walk.
        walked: u64,
    },
    /// Per-category cost attribution does not sum to the simulated runtime.
    CostConservation {
        /// The clock's current time, in nanoseconds.
        now_ns: u64,
        /// The sum of every category's attributed time, in nanoseconds.
        attributed_ns: u64,
    },
    /// A cumulative run counter regressed between audited epochs.
    CounterRegression {
        /// Which counter regressed.
        name: &'static str,
        /// Its value at the previous audit.
        prev: u64,
        /// Its (smaller) value now.
        now: u64,
    },
    /// The guest kernel's migration counter moved by a different amount
    /// than the engine's own tally of migrations it requested.
    MigrationDelta {
        /// Epoch at which the delta was checked.
        epoch: u64,
        /// Migrations the engine believes it performed (cumulative).
        engine: u64,
        /// Migrations the kernel counted (cumulative).
        kernel: u64,
    },
    /// The fair-share ledger's allocations plus free pool do not cover the
    /// machine tier exactly (multi-VM).
    LedgerConservation {
        /// Tier checked.
        kind: MemKind,
        /// Pages allocated to guests by the ledger.
        allocated: u64,
        /// Pages the ledger holds free.
        free: u64,
        /// Machine tier size.
        total: u64,
    },
    /// A guest is registered on more than one host's ledger. Frame
    /// ownership must be unique cluster-wide: an inter-host migration has
    /// to debit the source ledger before crediting the destination, so two
    /// simultaneous owners mean the transfer double-granted.
    CrossHostOwnership {
        /// The doubly-owned guest.
        guest: GuestId,
        /// The first host found holding it.
        first_host: u32,
        /// The second host found holding it.
        second_host: u32,
    },
    /// Summed per-host grants plus free pools do not cover the summed
    /// cluster tier capacity exactly — a migration created or destroyed
    /// pages at the host boundary.
    ClusterConservation {
        /// Tier checked.
        kind: MemKind,
        /// Pages granted to guests across every host ledger.
        allocated: u64,
        /// Pages free across every host ledger.
        free: u64,
        /// Summed tier capacity across hosts.
        total: u64,
    },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::FrameAccounting {
                kind,
                resident,
                free,
                total,
            } => write!(
                f,
                "{kind}: resident {resident} + free {free} != total {total}"
            ),
            Violation::LruMembership {
                kind,
                listed,
                flagged,
            } => write!(f, "{kind}: {listed} LRU-listed but {flagged} LRU-flagged"),
            Violation::LruWalk {
                kind,
                walked,
                listed,
            } => write!(f, "{kind}: LRU walk reached {walked} of {listed} listed"),
            Violation::LruClassMismatch { gfn, page_type } => {
                write!(f, "gfn {gfn:?} ({page_type:?}) on the wrong LRU list")
            }
            Violation::BalloonAccounting {
                kind,
                flagged,
                tracked,
            } => write!(
                f,
                "{kind}: {flagged} BALLOONED-flagged but {tracked} in the balloon ledger"
            ),
            Violation::PageCacheEntry { gfn, page_type } => write!(
                f,
                "page-cache entry {gfn:?} is {page_type:?}, not a resident file page"
            ),
            Violation::PageCacheDuplicate { gfn } => {
                write!(f, "page-cache indexes {gfn:?} twice")
            }
            Violation::GrantMismatch {
                guest,
                granted,
                backed,
                kind,
            } => write!(
                f,
                "{guest} on {kind}: ledger grants {granted} but {backed} frames backed"
            ),
            Violation::GuestViewMismatch {
                guest,
                kind,
                granted,
                kernel_owned,
            } => write!(
                f,
                "{guest} on {kind}: VMM grants {granted} but kernel owns {kernel_owned}"
            ),
            Violation::MachineAccounting {
                kind,
                free,
                backed,
                total,
            } => write!(
                f,
                "{kind}: machine free {free} + backed {backed} != total {total}"
            ),
            Violation::TrackerAccounting { tracked, known } => write!(
                f,
                "hotness tracker counts {tracked} tracked but {known} known bits set"
            ),
            Violation::TrackerOutOfRange { gfn, total_frames } => write!(
                f,
                "hotness tracker knows {gfn:?} beyond the guest's {total_frames} frames"
            ),
            Violation::ScanCandidate { gfn, hot, reason } => {
                let class = if *hot { "hot" } else { "cold" };
                write!(f, "scan emitted {class} candidate {gfn:?}: {reason}")
            }
            Violation::PageCacheCount { indexed, resident } => write!(
                f,
                "page cache indexes {indexed} entries but {resident} file pages resident"
            ),
            Violation::SlabAccounting {
                class,
                backing,
                resident,
            } => write!(
                f,
                "slab {class}: {backing} backing pages but {resident} resident in memmap"
            ),
            Violation::SwapResidency { vpn } => {
                write!(f, "vpn {vpn:#x} is on swap but still mapped")
            }
            Violation::ResidencyDrift {
                page_type,
                kind,
                field,
                tracked,
                walked,
            } => write!(
                f,
                "{kind}/{page_type:?} {field}: incremental {tracked} but walk found {walked}"
            ),
            Violation::ColdLedgerDrift {
                kind,
                tracked,
                walked,
            } => write!(
                f,
                "{kind}: cold ledger tracks {tracked} cold-active but walk found {walked}"
            ),
            Violation::FreeFrameDrift { kind, free, walked } => write!(
                f,
                "{kind}: allocator reports {free} free but walk found {walked} non-present"
            ),
            Violation::CostConservation {
                now_ns,
                attributed_ns,
            } => write!(
                f,
                "clock at {now_ns} ns but only {attributed_ns} ns attributed to categories"
            ),
            Violation::CounterRegression { name, prev, now } => {
                write!(f, "counter {name} regressed from {prev} to {now}")
            }
            Violation::MigrationDelta {
                epoch,
                engine,
                kernel,
            } => write!(
                f,
                "epoch {epoch}: engine tallied {engine} migrations but kernel counted {kernel}"
            ),
            Violation::LedgerConservation {
                kind,
                allocated,
                free,
                total,
            } => write!(
                f,
                "{kind}: ledger allocated {allocated} + free {free} != total {total}"
            ),
            Violation::CrossHostOwnership {
                guest,
                first_host,
                second_host,
            } => write!(
                f,
                "{guest} is owned by host{first_host} and host{second_host} simultaneously"
            ),
            Violation::ClusterConservation {
                kind,
                allocated,
                free,
                total,
            } => write!(
                f,
                "{kind}: cluster-wide allocated {allocated} + free {free} != summed capacity {total}"
            ),
        }
    }
}

/// Audits one guest kernel's internal frame accounting: per-tier frame
/// conservation and balloon pinning, then [`audit_lru`] and
/// [`audit_page_cache`]. Returns every violation found (empty = healthy).
///
/// The balloon and LRU flag counts come from one read of each descriptor.
pub fn audit_kernel(kernel: &GuestKernel) -> Vec<Violation> {
    let mut out = Vec::new();
    let mm = kernel.memmap();
    let mut lru_flagged: KindMap<u64> = KindMap::default();
    for &kind in MemKind::ALL.iter() {
        let (ballooned, listed) = flag_counts(mm.tier_pages(kind));
        lru_flagged[kind] = listed;
        let total = kernel.total_frames(kind);
        if total == 0 {
            continue;
        }
        // Frame conservation: every frame is exactly one of resident/free.
        let resident = mm.resident_on(kind);
        let free = kernel.free_frames(kind);
        if resident + free != total {
            out.push(Violation::FrameAccounting {
                kind,
                resident,
                free,
                total,
            });
        }
        // Balloon pinning: flags and ledger agree.
        let tracked = kernel.ballooned_pages(kind);
        if ballooned != tracked {
            out.push(Violation::BalloonAccounting {
                kind,
                flagged: ballooned,
                tracked,
            });
        }
    }
    check_lru(mm, kernel.lru(), &lru_flagged, &mut out);
    audit_page_cache(mm, kernel.page_cache(), &mut out);
    out
}

/// The BALLOONED and LRU flag counts of `pages`, in one pass that counts
/// in four independent `u32` lanes (a tier holds fewer than `u32::MAX`
/// frames, so no lane can overflow).
fn flag_counts(pages: &[Page]) -> (u64, u64) {
    let flags = |p: &Page| {
        (
            u32::from(p.flags.contains(PageFlags::BALLOONED)),
            u32::from(p.flags.contains(PageFlags::LRU)),
        )
    };
    let (mut ballooned, mut listed) = ([0u32; 4], [0u32; 4]);
    let mut quads = pages.chunks_exact(4);
    for quad in &mut quads {
        for (lane, page) in quad.iter().enumerate() {
            let (b, l) = flags(page);
            ballooned[lane] += b;
            listed[lane] += l;
        }
    }
    for page in quads.remainder() {
        let (b, l) = flags(page);
        ballooned[0] += b;
        listed[0] += l;
    }
    let sum = |lanes: [u32; 4]| lanes.into_iter().map(u64::from).sum();
    (sum(ballooned), sum(listed))
}

/// Audits LRU membership tier by tier and appends a violation for each
/// disagreement:
///
/// - [`Violation::LruMembership`] — the registry lists a different number
///   of pages than the memmap flags `LRU`.
/// - [`Violation::LruWalk`] — walking a list reaches a different number
///   of pages than it records. Each walk stops one page past the recorded
///   length, so a cyclic list is reported instead of hanging the audit.
/// - [`Violation::LruClassMismatch`] — a walked page's type or tier does
///   not belong on the list it was reached from.
pub fn audit_lru(mm: &MemMap, lru: &LruRegistry, out: &mut Vec<Violation>) {
    let flagged = KindMap::from_fn(|kind| flag_counts(mm.tier_pages(kind)).1);
    check_lru(mm, lru, &flagged, out);
}

/// One list's walk in [`check_lru`].
#[derive(Debug, Clone, Copy)]
struct ListWalk {
    kind: MemKind,
    class: LruClass,
    /// The next page to visit, while the walk is unfinished.
    at: Gfn,
    /// Pages visited so far.
    walked: u64,
    /// Pages the list records.
    listed: u64,
}

/// Lists of all tiers: an active and an inactive list per tier and class.
const MAX_LISTS: usize = MemKind::ALL.len() * 4;

/// [`audit_lru`] against per-tier LRU flag counts. Every list of every
/// tier is walked at once, one hop per unfinished list per round, so the
/// lists' pointer chases overlap instead of running back to back. Each
/// list keeps its findings until all walks end; they come out tier by
/// tier — the membership check, then the anon active, anon inactive, file
/// active and file inactive lists, each list's mismatches in walk order
/// followed by its walk-length check.
fn check_lru(mm: &MemMap, lru: &LruRegistry, flagged: &KindMap<u64>, out: &mut Vec<Violation>) {
    let mut walks = [ListWalk {
        kind: MemKind::Fast,
        class: LruClass::Anon,
        at: Gfn(0),
        walked: 0,
        listed: 0,
    }; MAX_LISTS];
    // Indexes of the unfinished walks; a finished one is swapped out.
    let mut live = [0; MAX_LISTS];
    let (mut lists, mut unfinished) = (0, 0);
    for &kind in MemKind::ALL.iter() {
        if mm.range(kind).is_empty() {
            continue;
        }
        for class in [LruClass::Anon, LruClass::File] {
            let split = lru.split(kind, class);
            for list in [&split.active, &split.inactive] {
                let head = list.peek_front();
                walks[lists] = ListWalk {
                    kind,
                    class,
                    at: head.unwrap_or(Gfn(0)),
                    walked: 0,
                    listed: list.len(),
                };
                if head.is_some() {
                    live[unfinished] = lists;
                    unfinished += 1;
                }
                lists += 1;
            }
        }
    }
    let mut found: [Vec<Violation>; MAX_LISTS] = Default::default();
    while unfinished > 0 {
        let mut j = 0;
        while j < unfinished {
            let i = live[j];
            let walk = &mut walks[i];
            let gfn = walk.at;
            walk.walked += 1;
            let page = mm.page(gfn);
            if LruClass::of(page.page_type) != Some(walk.class) || page.kind != walk.kind {
                found[i].push(Violation::LruClassMismatch {
                    gfn,
                    page_type: page.page_type,
                });
            }
            // A walk stops one page past the recorded length.
            match page.lru_next().filter(|_| walk.walked <= walk.listed) {
                Some(next) => {
                    walk.at = next;
                    j += 1;
                }
                None => {
                    unfinished -= 1;
                    live[j] = live[unfinished];
                }
            }
        }
    }
    for (tier, walks) in walks[..lists].chunks(4).enumerate() {
        let kind = walks[0].kind;
        let listed = lru.listed_on(kind);
        if listed != flagged[kind] {
            out.push(Violation::LruMembership {
                kind,
                listed,
                flagged: flagged[kind],
            });
        }
        for (walk, found) in walks.iter().zip(&mut found[tier * 4..]) {
            out.append(found);
            if walk.walked != walk.listed {
                out.push(Violation::LruWalk {
                    kind,
                    walked: walk.walked,
                    listed: walk.listed,
                });
            }
        }
    }
}

/// Audits the page-cache index against the memmap: every entry must name
/// a frame no other entry names ([`Violation::PageCacheDuplicate`], found
/// with a per-frame bitmap) that holds a resident file page
/// ([`Violation::PageCacheEntry`]; an entry past the memmap reads as not
/// present).
pub fn audit_page_cache(mm: &MemMap, cache: &PageCache, out: &mut Vec<Violation>) {
    let frames = mm.total_frames();
    let mut seen = vec![0u64; frames.div_ceil(64) as usize];
    for (_file, _offset, gfn) in cache.iter() {
        if gfn.0 >= frames {
            out.push(Violation::PageCacheEntry {
                gfn,
                page_type: None,
            });
            continue;
        }
        let (word, bit) = (gfn.index() / 64, 1u64 << (gfn.0 % 64));
        if seen[word] & bit != 0 {
            out.push(Violation::PageCacheDuplicate { gfn });
            continue;
        }
        seen[word] |= bit;
        let page = mm.page(gfn);
        let file_backed = page.is_present()
            && matches!(page.page_type, PageType::PageCache | PageType::BufferCache);
        if !file_backed {
            out.push(Violation::PageCacheEntry {
                gfn,
                page_type: page.is_present().then_some(page.page_type),
            });
        }
    }
}

/// Audits the VMM's ledgers against the machine and (when provided) the
/// guests' own kernels. `guests` pairs each registered guest with its
/// kernel; guests without a kernel at hand may be omitted — the
/// ledger-vs-backing and machine conservation checks still cover them.
pub fn audit_vmm(vmm: &Vmm, guests: &[(GuestId, &GuestKernel)]) -> Vec<Violation> {
    let mut out = Vec::new();
    for &kind in MemKind::ALL.iter() {
        let total = vmm.machine().total_frames(kind);
        if total == 0 {
            continue;
        }
        let mut backed_sum = 0u64;
        for id in vmm.guest_ids() {
            let backed = vmm.backing_frames(id, kind).unwrap_or(0);
            backed_sum += backed;
            let granted = vmm.granted(id).map(|g| g[kind]).unwrap_or(0);
            if granted != backed {
                out.push(Violation::GrantMismatch {
                    guest: id,
                    granted,
                    backed,
                    kind,
                });
            }
        }
        let free = vmm.machine().free_frames(kind);
        if free + backed_sum != total {
            out.push(Violation::MachineAccounting {
                kind,
                free,
                backed: backed_sum,
                total,
            });
        }
        for &(id, kernel) in guests {
            let Ok(g) = vmm.granted(id) else { continue };
            let kernel_owned = kernel
                .total_frames(kind)
                .saturating_sub(kernel.ballooned_pages(kind));
            if g[kind] != kernel_owned {
                out.push(Violation::GuestViewMismatch {
                    guest: id,
                    kind,
                    granted: g[kind],
                    kernel_owned,
                });
            }
        }
    }
    out
}

hetero_sim::impl_snap!(enum Violation {
    0 => FrameAccounting { kind, resident, free, total },
    1 => LruMembership { kind, listed, flagged },
    2 => LruWalk { kind, walked, listed },
    3 => LruClassMismatch { gfn, page_type },
    4 => BalloonAccounting { kind, flagged, tracked },
    5 => PageCacheEntry { gfn, page_type },
    6 => PageCacheDuplicate { gfn },
    7 => GrantMismatch { guest, granted, backed, kind },
    8 => GuestViewMismatch { guest, kind, granted, kernel_owned },
    9 => MachineAccounting { kind, free, backed, total },
    10 => TrackerAccounting { tracked, known },
    11 => TrackerOutOfRange { gfn, total_frames },
    12 => ScanCandidate { gfn, hot, reason },
    13 => PageCacheCount { indexed, resident },
    14 => SlabAccounting { class, backing, resident },
    15 => SwapResidency { vpn },
    16 => ResidencyDrift { page_type, kind, field, tracked, walked },
    17 => ColdLedgerDrift { kind, tracked, walked },
    18 => FreeFrameDrift { kind, free, walked },
    19 => CostConservation { now_ns, attributed_ns },
    20 => CounterRegression { name, prev, now },
    21 => MigrationDelta { epoch, engine, kernel },
    22 => LedgerConservation { kind, allocated, free, total },
    23 => CrossHostOwnership { guest, first_host, second_host },
    24 => ClusterConservation { kind, allocated, free, total },
});

#[cfg(test)]
mod tests {
    use super::*;
    use hetero_guest::kernel::GuestConfig;
    use hetero_guest::pagecache::FileId;

    fn kernel() -> GuestKernel {
        GuestKernel::new(GuestConfig {
            frames: vec![(MemKind::Fast, 64), (MemKind::Slow, 256)],
            cpus: 2,
            page_size: 4096,
        })
    }

    #[test]
    fn fresh_kernel_is_clean() {
        assert_eq!(audit_kernel(&kernel()), Vec::new());
    }

    #[test]
    fn busy_kernel_stays_clean() {
        let mut k = kernel();
        k.mmap_heap(40, std::iter::repeat(150), &[MemKind::Fast, MemKind::Slow])
            .unwrap();
        for off in 0..30 {
            let (g, _) = k
                .page_in(FileId(1), off, 120, &[MemKind::Fast, MemKind::Slow])
                .unwrap();
            k.io_complete(g);
        }
        k.balloon_inflate(MemKind::Slow, 16);
        assert_eq!(audit_kernel(&k), Vec::new());
        k.balloon_deflate(MemKind::Slow, 16);
        assert_eq!(audit_kernel(&k), Vec::new());
    }

    /// Three heap pages on FastMem's active anon list (MRU first: 2, 1,
    /// 0) and two page-cache pages on SlowMem's inactive file list, each
    /// indexed by the page cache.
    fn listed() -> (MemMap, LruRegistry, PageCache) {
        let mut mm = MemMap::new(&[(MemKind::Fast, 8), (MemKind::Slow, 8)]);
        let mut lru = LruRegistry::new();
        let mut cache = PageCache::new();
        for g in 0..3 {
            mm.set_allocated(Gfn(g), PageType::HeapAnon, 100);
            lru.insert_active(&mut mm, Gfn(g));
        }
        for (off, g) in [(0, 8), (1, 9)] {
            mm.set_allocated(Gfn(g), PageType::PageCache, 10);
            lru.insert_inactive(&mut mm, Gfn(g));
            cache.insert(FileId(1), off, Gfn(g));
        }
        (mm, lru, cache)
    }

    fn lru_violations(mm: &MemMap, lru: &LruRegistry) -> Vec<Violation> {
        let mut out = Vec::new();
        audit_lru(mm, lru, &mut out);
        out
    }

    fn cache_violations(mm: &MemMap, cache: &PageCache) -> Vec<Violation> {
        let mut out = Vec::new();
        audit_page_cache(mm, cache, &mut out);
        out
    }

    #[test]
    fn healthy_lru_and_page_cache_are_clean() {
        let (mm, lru, cache) = listed();
        assert_eq!(lru_violations(&mm, &lru), Vec::new());
        assert_eq!(cache_violations(&mm, &cache), Vec::new());
    }

    #[test]
    fn lru_flag_without_membership_is_caught() {
        let (mut mm, lru, _) = listed();
        mm.set_allocated(Gfn(5), PageType::HeapAnon, 1);
        mm.page_mut(Gfn(5)).flags.insert(PageFlags::LRU);
        assert_eq!(
            lru_violations(&mm, &lru),
            vec![Violation::LruMembership {
                kind: MemKind::Fast,
                listed: 3,
                flagged: 4,
            }]
        );
    }

    /// A cyclic list must not hang the walk: it ends one page past the
    /// list's recorded length and reports the overrun.
    #[test]
    fn cyclic_lru_list_is_reported_not_walked_forever() {
        let (mut mm, lru, _) = listed();
        mm.page_mut(Gfn(0)).set_lru_next(Some(Gfn(2)));
        assert_eq!(
            lru_violations(&mm, &lru),
            vec![Violation::LruWalk {
                kind: MemKind::Fast,
                walked: 4,
                listed: 3,
            }]
        );
    }

    #[test]
    fn broken_lru_link_is_caught() {
        let (mut mm, lru, _) = listed();
        mm.page_mut(Gfn(1)).set_lru_next(None);
        assert_eq!(
            lru_violations(&mm, &lru),
            vec![Violation::LruWalk {
                kind: MemKind::Fast,
                walked: 2,
                listed: 3,
            }]
        );
    }

    #[test]
    fn page_on_the_wrong_lru_list_is_caught() {
        let (mut mm, lru, _) = listed();
        mm.page_mut(Gfn(1)).page_type = PageType::BufferCache;
        assert_eq!(
            lru_violations(&mm, &lru),
            vec![Violation::LruClassMismatch {
                gfn: Gfn(1),
                page_type: PageType::BufferCache,
            }]
        );
    }

    /// Findings on several lists of both tiers come out tier by tier:
    /// the tier's membership count first, then each list's findings in
    /// walk order, lists in anon-active, anon-inactive, file-active,
    /// file-inactive order. The expected vector was recorded from a walk
    /// that visited one list at a time.
    #[test]
    fn violations_on_many_lists_keep_their_order() {
        let mut mm = MemMap::new(&[(MemKind::Fast, 16), (MemKind::Slow, 16)]);
        let mut lru = LruRegistry::new();
        let lists: [(u64, PageType, bool); 16] = [
            (0, PageType::HeapAnon, true),
            (1, PageType::HeapAnon, true),
            (2, PageType::HeapAnon, true),
            (3, PageType::HeapAnon, false),
            (4, PageType::HeapAnon, false),
            (5, PageType::PageCache, true),
            (6, PageType::PageCache, true),
            (7, PageType::PageCache, false),
            (16, PageType::HeapAnon, true),
            (17, PageType::HeapAnon, true),
            (18, PageType::HeapAnon, false),
            (19, PageType::PageCache, true),
            (20, PageType::Slab, true),
            (21, PageType::PageCache, false),
            (22, PageType::BufferCache, false),
            (23, PageType::NetBuf, false),
        ];
        for (g, t, active) in lists {
            mm.set_allocated(Gfn(g), t, 100);
            if active {
                lru.insert_active(&mut mm, Gfn(g));
            } else {
                lru.insert_inactive(&mut mm, Gfn(g));
            }
        }
        // Fast anon active (2, 1, 0): a page-cache page on the anon list.
        mm.page_mut(Gfn(1)).page_type = PageType::BufferCache;
        // Fast anon inactive (4, 3): a broken link ends the walk early.
        mm.page_mut(Gfn(4)).set_lru_next(None);
        // Fast file active (6, 5): a heap page on the file list.
        mm.page_mut(Gfn(6)).page_type = PageType::HeapAnon;
        // Slow: one flagged page no list holds.
        mm.set_allocated(Gfn(25), PageType::HeapAnon, 1);
        mm.page_mut(Gfn(25)).flags.insert(PageFlags::LRU);
        // Slow file inactive (23, 22, 21): 21 links back to 22, a cycle
        // through a heap page, which the walk reaches twice.
        mm.page_mut(Gfn(21)).set_lru_next(Some(Gfn(22)));
        mm.page_mut(Gfn(22)).page_type = PageType::HeapAnon;
        assert_eq!(
            lru_violations(&mm, &lru),
            vec![
                Violation::LruClassMismatch {
                    gfn: Gfn(1),
                    page_type: PageType::BufferCache,
                },
                Violation::LruWalk {
                    kind: MemKind::Fast,
                    walked: 1,
                    listed: 2,
                },
                Violation::LruClassMismatch {
                    gfn: Gfn(6),
                    page_type: PageType::HeapAnon,
                },
                Violation::LruMembership {
                    kind: MemKind::Slow,
                    listed: 8,
                    flagged: 9,
                },
                Violation::LruClassMismatch {
                    gfn: Gfn(22),
                    page_type: PageType::HeapAnon,
                },
                Violation::LruClassMismatch {
                    gfn: Gfn(22),
                    page_type: PageType::HeapAnon,
                },
                Violation::LruWalk {
                    kind: MemKind::Slow,
                    walked: 4,
                    listed: 3,
                },
            ]
        );
    }

    #[test]
    fn doubly_indexed_frame_is_caught() {
        let (mm, _, mut cache) = listed();
        cache.insert(FileId(2), 0, Gfn(8));
        assert_eq!(
            cache_violations(&mm, &cache),
            vec![Violation::PageCacheDuplicate { gfn: Gfn(8) }]
        );
    }

    #[test]
    fn page_cache_entries_must_name_resident_file_pages() {
        let (mm, _, mut cache) = listed();
        cache.insert(FileId(2), 0, Gfn(0)); // a heap page
        cache.insert(FileId(2), 1, Gfn(12)); // a free frame
        cache.insert(FileId(2), 2, Gfn(16)); // past the memmap
        assert_eq!(
            cache_violations(&mm, &cache),
            vec![
                Violation::PageCacheEntry {
                    gfn: Gfn(0),
                    page_type: Some(PageType::HeapAnon),
                },
                Violation::PageCacheEntry {
                    gfn: Gfn(12),
                    page_type: None,
                },
                Violation::PageCacheEntry {
                    gfn: Gfn(16),
                    page_type: None,
                },
            ]
        );
    }

    #[test]
    fn violations_render_readably() {
        let v = Violation::FrameAccounting {
            kind: MemKind::Fast,
            resident: 10,
            free: 2,
            total: 64,
        };
        assert_eq!(v.to_string(), "FastMem: resident 10 + free 2 != total 64");
    }
}
