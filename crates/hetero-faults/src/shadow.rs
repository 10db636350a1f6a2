//! The shadow reference model: a deliberately naive recount of guest
//! memory state.
//!
//! The engine and guest kernel keep *incremental* accounting — per-bucket
//! residency counters updated on every allocation, free, and migration,
//! and per-tier free totals split across a buddy allocator and per-CPU
//! caches. Incremental state is exactly what drifts when a code path
//! forgets a counter update (e.g. mutating page state through
//! [`hetero_guest::memmap::MemMap::page_mut`] without the `set_*`
//! helpers).
//!
//! The shadow model is the differential oracle for that state: it rebuilds
//! the same totals the *slow, obvious* way — one full walk over every page
//! descriptor, summing into fresh fixed arrays of `(type, tier)` buckets,
//! no caching, no increments carried between audits — and demands exact
//! agreement. The walk reads each raw descriptor once and sums into four
//! sub-histograms that are added up at the end, so consecutive pages of
//! one type do not wait on one counter. It shares no code with the
//! incremental paths it checks; a bug must hit both implementations
//! identically to slip through.
//!
//! The walk is read-only and draws nothing from the RNG or the simulated
//! clock, so running it cannot perturb the simulation it audits.

use hetero_guest::memmap::MemMap;
use hetero_guest::page::{Page, PageType};
use hetero_guest::GuestKernel;
use hetero_mem::kind::KindMap;
use hetero_mem::MemKind;

use crate::audit::Violation;

/// One naively-recounted residency bucket.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Bucket {
    pages: u64,
    heat: u64,
    write_heat: u64,
}

/// One bucket of a sub-histogram over at most [`CHUNK`] pages.
#[derive(Debug, Clone, Copy, Default)]
struct Lane {
    pages: u32,
    heat: u32,
    write_heat: u32,
}

/// Pages per sub-histogram pass: 255 × `CHUNK` fits a `u32` lane.
const CHUNK: usize = 1 << 20;

/// The shadow recount. Stateless: every audit starts from empty buckets.
#[derive(Debug, Default)]
pub struct ShadowModel;

impl ShadowModel {
    /// Builds an empty shadow model.
    pub fn new() -> Self {
        ShadowModel
    }

    /// Recounts one guest kernel: walks its memmap and checks the
    /// allocator's free totals (buddy + per-CPU caches) along the way.
    /// See [`ShadowModel::audit_memmap`] for the violations produced.
    pub fn audit(&self, kernel: &GuestKernel, out: &mut Vec<Violation>) {
        let free = KindMap::from_fn(|k| kernel.free_frames(k));
        self.audit_memmap(kernel.memmap(), &free, out);
    }

    /// Walks every page descriptor of `mm` and appends a violation for
    /// each disagreement with the incremental books:
    ///
    /// - [`Violation::ResidencyDrift`] — a per-(type, tier) residency
    ///   counter (pages, heat, or write heat) differs from the recount.
    /// - [`Violation::FreeFrameDrift`] — a tier's claimed free total
    ///   (`free`) differs from its non-present frames.
    pub fn audit_memmap(&self, mm: &MemMap, free: &KindMap<u64>, out: &mut Vec<Violation>) {
        let mut buckets = [KindMap::<Bucket>::default(); PageType::COUNT];
        let mut present: KindMap<u64> = KindMap::default();
        for &kind in MemKind::ALL.iter() {
            for chunk in mm.tier_pages(kind).chunks(CHUNK) {
                // Four sub-histograms, page `i` of a quad in the `i`th: a
                // run of pages of one type does not serialise on one
                // bucket's counters.
                let mut lanes = [[Lane::default(); PageType::COUNT]; 4];
                let mut quads = chunk.chunks_exact(4);
                for quad in &mut quads {
                    for (lane, page) in lanes.iter_mut().zip(quad) {
                        tally(lane, page);
                    }
                }
                for page in quads.remainder() {
                    tally(&mut lanes[0], page);
                }
                for lane in &lanes {
                    for (bucket, sub) in buckets.iter_mut().zip(lane) {
                        let bucket = &mut bucket[kind];
                        bucket.pages += u64::from(sub.pages);
                        bucket.heat += u64::from(sub.heat);
                        bucket.write_heat += u64::from(sub.write_heat);
                        present[kind] += u64::from(sub.pages);
                    }
                }
            }
        }
        for &kind in MemKind::ALL.iter() {
            let range = mm.range(kind);
            if range.is_empty() {
                continue;
            }
            for &page_type in PageType::ALL.iter() {
                let walked = buckets[page_type.index()][kind];
                let tracked = mm.residency(page_type, kind);
                for (field, tracked, walked) in [
                    ("pages", tracked.pages, walked.pages),
                    ("heat", tracked.heat, walked.heat),
                    ("write_heat", tracked.write_heat, walked.write_heat),
                ] {
                    if tracked != walked {
                        out.push(Violation::ResidencyDrift {
                            page_type,
                            kind,
                            field,
                            tracked,
                            walked,
                        });
                    }
                }
            }
            let total = range.end - range.start;
            let walked_free = total - present[kind];
            if free[kind] != walked_free {
                out.push(Violation::FreeFrameDrift {
                    kind,
                    free: free[kind],
                    walked: walked_free,
                });
            }
        }
    }
}

/// Counts `page` into its type's bucket of `lane` when it is present.
#[inline(always)]
fn tally(lane: &mut [Lane; PageType::COUNT], page: &Page) {
    if page.is_present() {
        let sub = &mut lane[page.page_type.index()];
        sub.pages += 1;
        sub.heat += u32::from(page.heat);
        sub.write_heat += u32::from(page.write_heat);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetero_guest::kernel::GuestConfig;
    use hetero_guest::page::Gfn;
    use hetero_guest::pagecache::FileId;

    fn kernel() -> GuestKernel {
        GuestKernel::new(GuestConfig {
            frames: vec![(MemKind::Fast, 64), (MemKind::Slow, 256)],
            cpus: 1,
            page_size: 4096,
        })
    }

    #[test]
    fn fresh_kernel_recounts_clean() {
        let k = kernel();
        let shadow = ShadowModel::new();
        let mut out = Vec::new();
        shadow.audit(&k, &mut out);
        assert!(out.is_empty(), "unexpected drift: {out:?}");
    }

    #[test]
    fn busy_kernel_recounts_clean() {
        let mut k = kernel();
        k.mmap_heap(
            100,
            (0..).map(|i| (i % 255) as u8),
            &[MemKind::Fast, MemKind::Slow],
        )
        .unwrap();
        for off in 0..10 {
            let (g, _) = k
                .page_in(FileId(1), off, 150, &[MemKind::Fast, MemKind::Slow])
                .unwrap();
            k.io_complete(g);
        }
        k.balloon_inflate(MemKind::Slow, 8);
        let shadow = ShadowModel::new();
        let mut out = Vec::new();
        shadow.audit(&k, &mut out);
        assert!(out.is_empty(), "unexpected drift: {out:?}");
    }

    /// The oracle's point: an update that bypasses the incremental
    /// accounting must be caught by the recount. `page_mut` is the
    /// documented escape hatch that desynchronises residency.
    #[test]
    fn heat_drift_through_page_mut_is_caught() {
        let mut mm = MemMap::new(&[(MemKind::Fast, 16), (MemKind::Slow, 16)]);
        let gfn = Gfn(mm.range(MemKind::Fast).start);
        mm.set_allocated(gfn, PageType::HeapAnon, 100);
        mm.page_mut(gfn).heat = 200; // bypasses residency accounting
        let free = KindMap::from_fn(|k| match k {
            MemKind::Fast => 15,
            _ => mm.range(k).end.saturating_sub(mm.range(k).start),
        });
        let shadow = ShadowModel::new();
        let mut out = Vec::new();
        shadow.audit_memmap(&mm, &free, &mut out);
        assert_eq!(
            out,
            vec![Violation::ResidencyDrift {
                page_type: PageType::HeapAnon,
                kind: MemKind::Fast,
                field: "heat",
                tracked: 100,
                walked: 200,
            }]
        );
    }

    /// Several types on two tiers, so a transposed `(type, tier)` bucket
    /// index shows as drift: retyping one zero-heat page must move
    /// exactly one page between exactly the two right buckets.
    #[test]
    fn retyped_page_drifts_exactly_its_two_buckets() {
        let mut mm = MemMap::new(&[(MemKind::Fast, 8), (MemKind::Slow, 16)]);
        let pages = [
            (0, PageType::HeapAnon, 100),
            (1, PageType::Slab, 50),
            (2, PageType::PageCache, 7),
            (8, PageType::HeapAnon, 3),
            (9, PageType::NetBuf, 30),
            (10, PageType::BufferCache, 0),
            (11, PageType::Dma, 0),
        ];
        for (g, t, heat) in pages {
            mm.set_allocated(Gfn(g), t, heat);
        }
        mm.set_write_heat(Gfn(8), 9);
        let free = KindMap::from_fn(|k| match k {
            MemKind::Fast => 5,
            MemKind::Medium => 0,
            MemKind::Slow => 12,
        });
        let shadow = ShadowModel::new();
        let mut out = Vec::new();
        shadow.audit_memmap(&mm, &free, &mut out);
        assert!(out.is_empty(), "unexpected drift: {out:?}");

        mm.page_mut(Gfn(10)).page_type = PageType::PageTable; // bypasses residency
        shadow.audit_memmap(&mm, &free, &mut out);
        assert_eq!(
            out,
            vec![
                Violation::ResidencyDrift {
                    page_type: PageType::BufferCache,
                    kind: MemKind::Slow,
                    field: "pages",
                    tracked: 1,
                    walked: 0,
                },
                Violation::ResidencyDrift {
                    page_type: PageType::PageTable,
                    kind: MemKind::Slow,
                    field: "pages",
                    tracked: 0,
                    walked: 1,
                },
            ]
        );
    }

    #[test]
    fn free_frame_drift_is_caught() {
        let mm = MemMap::new(&[(MemKind::Fast, 16)]);
        // Claim one frame fewer free than the walk will find.
        let free = KindMap::from_fn(|k| if k == MemKind::Fast { 15 } else { 0 });
        let shadow = ShadowModel::new();
        let mut out = Vec::new();
        shadow.audit_memmap(&mm, &free, &mut out);
        assert_eq!(
            out,
            vec![Violation::FreeFrameDrift {
                kind: MemKind::Fast,
                free: 15,
                walked: 16,
            }]
        );
    }
}
