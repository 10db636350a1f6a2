//! Per-subsystem allocation statistics — the input to HeteroOS's
//! demand-based FastMem prioritization (§3.2).
//!
//! The HeteroOS allocator "periodically (we use 100ms but it is
//! configurable) extracts information such as total page allocation
//! requests, FastMem allocation hits, and misses, for allocation requests
//! from different subsystems". [`AllocStats`] keeps exactly those counters, per
//! [`PageType`], in a resettable window plus cumulative totals (the
//! cumulative miss ratio is Fig 10's metric).

use crate::page::PageType;

/// Counters for one page type.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TypeCounters {
    /// Total allocation requests.
    pub requests: u64,
    /// Requests that wanted FastMem.
    pub fast_requests: u64,
    /// FastMem-wanting requests actually served from FastMem.
    pub fast_hits: u64,
}

impl TypeCounters {
    /// FastMem allocation misses (wanted fast, got something else).
    pub fn fast_misses(&self) -> u64 {
        self.fast_requests - self.fast_hits
    }

    /// Miss ratio among FastMem-wanting requests, `0.0` when none.
    pub fn miss_ratio(&self) -> f64 {
        if self.fast_requests == 0 {
            0.0
        } else {
            self.fast_misses() as f64 / self.fast_requests as f64
        }
    }
}

/// Windowed + cumulative allocation statistics.
///
/// # Examples
///
/// ```
/// use hetero_guest::stats::AllocStats;
/// use hetero_guest::page::PageType;
///
/// let mut stats = AllocStats::new();
/// stats.record(PageType::PageCache, true, false); // wanted fast, missed
/// stats.record(PageType::HeapAnon, true, true);   // wanted fast, hit
/// assert_eq!(stats.window(PageType::PageCache).fast_misses(), 1);
/// assert_eq!(stats.neediest_type(), Some(PageType::PageCache));
/// stats.roll_window();
/// assert_eq!(stats.window(PageType::PageCache).requests, 0);
/// assert_eq!(stats.cumulative(PageType::PageCache).requests, 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct AllocStats {
    window: [TypeCounters; PageType::COUNT],
    cumulative: [TypeCounters; PageType::COUNT],
}

impl AllocStats {
    /// Creates zeroed statistics.
    pub fn new() -> Self {
        AllocStats::default()
    }

    /// Records one allocation outcome.
    pub fn record(&mut self, page_type: PageType, wanted_fast: bool, got_fast: bool) {
        for c in [
            &mut self.window[page_type.index()],
            &mut self.cumulative[page_type.index()],
        ] {
            c.requests += 1;
            if wanted_fast {
                c.fast_requests += 1;
                if got_fast {
                    c.fast_hits += 1;
                }
            }
        }
    }

    /// Batched [`AllocStats::record`]: `total` same-type requests with one
    /// shared `wanted_fast`, of which `got_fast` landed on FastMem.
    /// Equivalent to `total` scalar calls.
    pub fn record_run(
        &mut self,
        page_type: PageType,
        wanted_fast: bool,
        got_fast: u64,
        total: u64,
    ) {
        for c in [
            &mut self.window[page_type.index()],
            &mut self.cumulative[page_type.index()],
        ] {
            c.requests += total;
            if wanted_fast {
                c.fast_requests += total;
                c.fast_hits += got_fast;
            }
        }
    }

    /// Counters of the current window.
    pub fn window(&self, page_type: PageType) -> TypeCounters {
        self.window[page_type.index()]
    }

    /// Counters since creation.
    pub fn cumulative(&self, page_type: PageType) -> TypeCounters {
        self.cumulative[page_type.index()]
    }

    /// Clears the window (call at each prioritization period).
    pub fn roll_window(&mut self) {
        self.window = Default::default();
    }

    /// The page type with the highest windowed FastMem miss ratio — the type
    /// HeteroOS-LRU makes room for next (§3.2). `None` when no type missed.
    pub fn neediest_type(&self) -> Option<PageType> {
        PageType::ALL
            .iter()
            .copied()
            .filter(|t| self.window(*t).fast_misses() > 0)
            .max_by(|a, b| {
                self.window(*a)
                    .miss_ratio()
                    .partial_cmp(&self.window(*b).miss_ratio())
                    .expect("miss ratios are finite")
            })
    }

    /// Overall cumulative FastMem miss ratio: misses over **all** allocation
    /// requests (Fig 10's y-axis).
    pub fn overall_miss_ratio(&self) -> f64 {
        let requests: u64 = self.cumulative.iter().map(|c| c.requests).sum();
        let misses: u64 = self.cumulative.iter().map(|c| c.fast_misses()).sum();
        if requests == 0 {
            0.0
        } else {
            misses as f64 / requests as f64
        }
    }
}

hetero_sim::impl_snap!(struct TypeCounters { requests, fast_requests, fast_hits });

hetero_sim::impl_snap!(struct AllocStats { window, cumulative });

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_split_hits_and_misses() {
        let mut s = AllocStats::new();
        s.record(PageType::HeapAnon, true, true);
        s.record(PageType::HeapAnon, true, false);
        s.record(PageType::HeapAnon, false, false); // never wanted fast
        let c = s.window(PageType::HeapAnon);
        assert_eq!(c.requests, 3);
        assert_eq!(c.fast_requests, 2);
        assert_eq!(c.fast_hits, 1);
        assert_eq!(c.fast_misses(), 1);
        assert!((c.miss_ratio() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn neediest_type_picks_highest_ratio() {
        let mut s = AllocStats::new();
        // Heap: 1/2 missed. Slab: 2/2 missed.
        s.record(PageType::HeapAnon, true, true);
        s.record(PageType::HeapAnon, true, false);
        s.record(PageType::Slab, true, false);
        s.record(PageType::Slab, true, false);
        assert_eq!(s.neediest_type(), Some(PageType::Slab));
    }

    #[test]
    fn neediest_type_none_without_misses() {
        let mut s = AllocStats::new();
        assert_eq!(s.neediest_type(), None);
        s.record(PageType::HeapAnon, true, true);
        assert_eq!(s.neediest_type(), None);
    }

    #[test]
    fn roll_window_keeps_cumulative() {
        let mut s = AllocStats::new();
        s.record(PageType::NetBuf, true, false);
        s.roll_window();
        assert_eq!(s.window(PageType::NetBuf).requests, 0);
        assert_eq!(s.cumulative(PageType::NetBuf).fast_misses(), 1);
        assert_eq!(s.neediest_type(), None, "prioritization sees the window");
    }

    #[test]
    fn overall_miss_ratio_spans_types() {
        let mut s = AllocStats::new();
        s.record(PageType::HeapAnon, true, true);
        s.record(PageType::PageCache, true, false);
        s.record(PageType::Slab, false, false);
        // 1 miss over 3 requests.
        assert!((s.overall_miss_ratio() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn empty_ratios_are_zero() {
        let s = AllocStats::new();
        assert_eq!(s.overall_miss_ratio(), 0.0);
        assert_eq!(s.window(PageType::Dma).miss_ratio(), 0.0);
    }
}
