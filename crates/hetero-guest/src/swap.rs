//! The guest swap subsystem.
//!
//! When ballooning squeezes a guest below its footprint (§4.2's
//! overcommit), anonymous pages spill to disk: the page is unmapped, its
//! workload state is remembered under its *virtual* page number, and the
//! frame is freed. A later fault (or balloon deflation) swaps the page back
//! in. Keying by VPN keeps entries stable across tier migrations and lets
//! `munmap` drop dead swap slots without I/O — exactly the semantics the
//! balloon drivers of §3.1/§4.2 rely on ("balloon drivers first use
//! HeteroOS-LRU to find inactive pages, and if not, swap pages to the
//! disk").

use std::collections::BTreeMap;

/// State remembered for one swapped-out page.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SwapEntry {
    /// Workload heat at swap-out (restored at swap-in).
    pub heat: u8,
    /// Workload write heat at swap-out.
    pub write_heat: u8,
}

/// The swap map: virtual page number → remembered page state.
///
/// Backed by a `BTreeMap` so every observation of it — in particular
/// [`SwapMap::any_vpn`], which picks the next page for bulk swap-in — is
/// fully determined by the entries themselves. A hash map's iteration
/// order varies per process and per instance, which let the swap-in order
/// (and through it, entire multi-VM runs) differ between otherwise
/// identical executions.
///
/// # Examples
///
/// ```
/// use hetero_guest::swap::{SwapEntry, SwapMap};
///
/// let mut swap = SwapMap::new();
/// swap.insert(42, SwapEntry { heat: 4, write_heat: 1 });
/// assert_eq!(swap.len(), 1);
/// assert!(swap.contains(42));
/// assert_eq!(swap.remove(42).map(|e| e.heat), Some(4));
/// ```
#[derive(Debug, Clone, Default)]
pub struct SwapMap {
    entries: BTreeMap<u64, SwapEntry>,
    /// Pages ever swapped out.
    pub swap_outs: u64,
    /// Pages ever swapped back in.
    pub swap_ins: u64,
}

impl SwapMap {
    /// Creates an empty swap map.
    pub fn new() -> Self {
        SwapMap::default()
    }

    /// Pages currently on swap.
    pub fn len(&self) -> u64 {
        self.entries.len() as u64
    }

    /// True when nothing is swapped out.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// True when `vpn` has a swap slot.
    pub fn contains(&self, vpn: u64) -> bool {
        self.entries.contains_key(&vpn)
    }

    /// Records a swapped-out page.
    ///
    /// # Panics
    ///
    /// Panics if `vpn` already has a slot (a page cannot be on swap twice).
    pub fn insert(&mut self, vpn: u64, entry: SwapEntry) {
        let prev = self.entries.insert(vpn, entry);
        assert!(prev.is_none(), "vpn {vpn:#x} is already on swap");
        self.swap_outs += 1;
    }

    /// Removes and returns a slot (swap-in, or discard on unmap).
    pub fn remove(&mut self, vpn: u64) -> Option<SwapEntry> {
        self.entries.remove(&vpn)
    }

    /// Removes every slot in `[start, start + pages)` without counting them
    /// as swap-ins (the data died with the mapping). Returns slots dropped.
    pub fn discard_range(&mut self, start: u64, pages: u64) -> u64 {
        let mut dropped = 0;
        for vpn in start..start + pages {
            if self.entries.remove(&vpn).is_some() {
                dropped += 1;
            }
        }
        dropped
    }

    /// The smallest swapped VPN (for bulk swap-in), or `None` when empty.
    /// Deterministic: repeated calls over the same entries always walk
    /// pages in ascending VPN order.
    pub fn any_vpn(&self) -> Option<u64> {
        self.entries.keys().next().copied()
    }

    /// Iterates every swap slot in ascending VPN order (invariant-audit
    /// input: swapped pages must not still be mapped).
    pub fn iter(&self) -> impl Iterator<Item = (u64, &SwapEntry)> + '_ {
        self.entries.iter().map(|(&vpn, e)| (vpn, e))
    }

    /// Sum of the remembered heat of all swapped pages (drives the fault
    /// model: cold pages on swap attract few accesses).
    pub fn total_heat(&self) -> u64 {
        self.entries.values().map(|e| e.heat as u64).sum()
    }

    /// Marks one page swapped back in (bookkeeping counter).
    pub(crate) fn count_swap_in(&mut self) {
        self.swap_ins += 1;
    }
}

hetero_sim::impl_snap!(struct SwapEntry { heat, write_heat });

hetero_sim::impl_snap!(struct SwapMap { entries, swap_outs, swap_ins });

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_remove_roundtrip() {
        let mut s = SwapMap::new();
        assert!(s.is_empty());
        s.insert(
            10,
            SwapEntry {
                heat: 7,
                write_heat: 3,
            },
        );
        assert!(s.contains(10));
        assert_eq!(s.len(), 1);
        assert_eq!(s.total_heat(), 7);
        let e = s.remove(10).expect("present");
        assert_eq!(e.write_heat, 3);
        assert!(s.is_empty());
        assert_eq!(s.swap_outs, 1);
    }

    #[test]
    fn discard_range_drops_only_covered_slots() {
        let mut s = SwapMap::new();
        for vpn in [5u64, 6, 7, 20] {
            s.insert(
                vpn,
                SwapEntry {
                    heat: 1,
                    write_heat: 0,
                },
            );
        }
        assert_eq!(s.discard_range(5, 3), 3);
        assert_eq!(s.len(), 1);
        assert!(s.contains(20));
        assert_eq!(s.swap_ins, 0, "discards are not swap-ins");
    }

    #[test]
    fn any_vpn_finds_an_entry() {
        let mut s = SwapMap::new();
        assert_eq!(s.any_vpn(), None);
        s.insert(
            99,
            SwapEntry {
                heat: 1,
                write_heat: 1,
            },
        );
        assert_eq!(s.any_vpn(), Some(99));
    }

    #[test]
    #[should_panic(expected = "already on swap")]
    fn double_swap_out_panics() {
        let mut s = SwapMap::new();
        s.insert(
            1,
            SwapEntry {
                heat: 1,
                write_heat: 0,
            },
        );
        s.insert(
            1,
            SwapEntry {
                heat: 2,
                write_heat: 0,
            },
        );
    }
}
