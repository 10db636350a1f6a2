//! Weighted Dominant Resource Fairness across memory types (Algorithm 1),
//! plus the single-resource max-min baseline it replaces.
//!
//! §4.2: each memory type is a resource; a guest's *dominant resource* is
//! the one where its (weighted) share of the total is largest. Allocation
//! requests are granted in order of smallest dominant share. Weights
//! counteract the capacity skew: with a small FastMem, unweighted DRF would
//! make SlowMem everyone's dominant resource (the paper uses FastMem
//! weight 2, SlowMem weight 1).

use std::collections::HashMap;
use std::fmt;

use hetero_mem::kind::KindMap;
use hetero_mem::MemKind;

/// Identifier of a guest VM within the VMM.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GuestId(pub u32);

impl fmt::Display for GuestId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "vm{}", self.0)
    }
}

/// Which fairness discipline arbitrates multi-VM memory sharing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SharePolicy {
    /// Single-resource max-min over *total* pages — the conventional VMM
    /// scheme the paper shows failing to protect Graphchi's SlowMem (§5.5).
    MaxMin,
    /// Weighted DRF (Algorithm 1). Default weights: FastMem 2, SlowMem 1.
    WeightedDrf {
        /// Per-tier weights used in the dominant-share computation.
        weights: KindMap<f64>,
    },
}

impl SharePolicy {
    /// Weighted DRF with the paper's evaluation weights (§4.2).
    pub fn paper_drf() -> Self {
        let mut weights = KindMap::from_fn(|_| 1.0);
        weights[MemKind::Fast] = 2.0;
        SharePolicy::WeightedDrf { weights }
    }
}

/// Outcome of an allocation request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Grant {
    /// Request fits: consume it.
    Granted,
    /// Capacity exhausted: the listed `(guest, tier, pages)` reclaims
    /// (balloon inflations) would free enough to grant; nothing was
    /// consumed yet.
    NeedsReclaim(Vec<(GuestId, MemKind, u64)>),
    /// Even reclaiming every page above other guests' minima cannot satisfy
    /// the request.
    Denied,
}

#[derive(Debug, Clone)]
struct GuestShare {
    /// Reserved floor per tier — never reclaimed.
    min: KindMap<u64>,
    /// Current allocation per tier.
    alloc: KindMap<u64>,
}

/// The VMM's fair-share ledger.
///
/// # Examples
///
/// ```
/// use hetero_mem::kind::KindMap;
/// use hetero_mem::MemKind;
/// use hetero_vmm::drf::{FairShare, Grant, GuestId, SharePolicy};
///
/// let mut total: KindMap<u64> = KindMap::default();
/// total[MemKind::Fast] = 100;
/// total[MemKind::Slow] = 200;
/// let mut fs = FairShare::new(SharePolicy::paper_drf(), total);
/// fs.register(GuestId(0), KindMap::default());
/// let mut demand: KindMap<u64> = KindMap::default();
/// demand[MemKind::Fast] = 10;
/// assert_eq!(fs.request(GuestId(0), demand), Grant::Granted);
/// assert_eq!(fs.allocated(GuestId(0))[MemKind::Fast], 10);
/// ```
#[derive(Debug, Clone)]
pub struct FairShare {
    policy: SharePolicy,
    /// R: total capacity per tier.
    total: KindMap<u64>,
    /// C: consumed capacity per tier.
    consumed: KindMap<u64>,
    guests: HashMap<GuestId, GuestShare>,
}

impl FairShare {
    /// Creates a ledger over the given per-tier totals.
    pub fn new(policy: SharePolicy, total: KindMap<u64>) -> Self {
        FairShare {
            policy,
            total,
            consumed: KindMap::default(),
            guests: HashMap::new(),
        }
    }

    /// Registers a guest with its reserved minimum per tier.
    ///
    /// The minimum is granted immediately (it was promised at boot).
    ///
    /// # Panics
    ///
    /// Panics if the guest is already registered or the minima oversubscribe
    /// the machine.
    pub fn register(&mut self, id: GuestId, min: KindMap<u64>) {
        assert!(!self.guests.contains_key(&id), "{id} is already registered");
        for (k, &m) in min.iter() {
            assert!(
                self.consumed[k] + m <= self.total[k],
                "minimum reservations oversubscribe {k}"
            );
            self.consumed[k] += m;
        }
        self.guests.insert(id, GuestShare { min, alloc: min });
    }

    /// Removes a guest from the ledger (crash or shutdown), returning every
    /// page it held to the free pool. Unknown guests are a no-op returning
    /// `None`.
    pub fn unregister(&mut self, id: GuestId) -> Option<KindMap<u64>> {
        let g = self.guests.remove(&id)?;
        for (k, &a) in g.alloc.iter() {
            self.consumed[k] = self.consumed[k].saturating_sub(a);
        }
        Some(g.alloc)
    }

    /// True when the guest is registered.
    pub fn is_registered(&self, id: GuestId) -> bool {
        self.guests.contains_key(&id)
    }

    /// Current allocation vector of a guest.
    ///
    /// # Panics
    ///
    /// Panics for unknown guests.
    pub fn allocated(&self, id: GuestId) -> KindMap<u64> {
        self.guests[&id].alloc
    }

    /// Free capacity of a tier.
    pub fn free(&self, kind: MemKind) -> u64 {
        self.total[kind] - self.consumed[kind]
    }

    /// Pages currently granted per tier across all guests (the `C` vector
    /// of Algorithm 1). A host's load is `consumed().total()` over
    /// `totals().total()` — what cluster placement and migration balance.
    pub fn consumed(&self) -> KindMap<u64> {
        self.consumed
    }

    /// The per-tier capacity this ledger arbitrates (the `R` vector).
    pub fn totals(&self) -> KindMap<u64> {
        self.total
    }

    /// A guest's reserved minimum per tier.
    ///
    /// # Panics
    ///
    /// Panics for unknown guests.
    pub fn reserved_min(&self, id: GuestId) -> KindMap<u64> {
        self.guests[&id].min
    }

    /// Registered guests in ascending id order — a deterministic iteration
    /// surface over the internal hash map, for audits that compare ledgers
    /// across hosts.
    pub fn guest_ids(&self) -> Vec<GuestId> {
        let mut ids: Vec<GuestId> = self.guests.keys().copied().collect();
        ids.sort_unstable();
        ids
    }

    /// Dominant share of a guest (Algorithm 1 line 10): the maximum over
    /// tiers of `weight * alloc / total`. Under max-min this degenerates to
    /// the guest's share of total pages.
    ///
    /// Zero-capacity tiers contribute share `0` — a single-tier machine
    /// (e.g. SlowMem total `0`) must yield finite shares, never `NaN` from
    /// a `0/0` division.
    pub fn dominant_share(&self, id: GuestId) -> f64 {
        let g = &self.guests[&id];
        match &self.policy {
            SharePolicy::MaxMin => {
                let total: u64 = MemKind::ALL.iter().map(|&k| self.total[k]).sum();
                if total == 0 {
                    0.0
                } else {
                    g.alloc.total() as f64 / total as f64
                }
            }
            SharePolicy::WeightedDrf { weights } => MemKind::ALL
                .iter()
                .filter(|&&k| self.total[k] > 0)
                .map(|&k| weights[k] * g.alloc[k] as f64 / self.total[k] as f64)
                .fold(0.0, f64::max),
        }
    }

    /// The registered guest with the smallest dominant share (Algorithm 1
    /// line 5) — the one whose request should be served next.
    pub fn next_in_queue<'a>(
        &self,
        queued: impl IntoIterator<Item = &'a GuestId>,
    ) -> Option<GuestId> {
        queued
            .into_iter()
            .copied()
            .filter(|id| self.guests.contains_key(id))
            .min_by(|a, b| {
                self.dominant_share(*a)
                    .partial_cmp(&self.dominant_share(*b))
                    .expect("shares are finite")
                    .then(a.cmp(b)) // deterministic tie-break
            })
    }

    /// Processes a demand vector for a guest (Algorithm 1 lines 6–12).
    ///
    /// # Panics
    ///
    /// Panics for unknown guests.
    pub fn request(&mut self, id: GuestId, demand: KindMap<u64>) -> Grant {
        assert!(self.guests.contains_key(&id), "{id} is not registered");
        let fits = MemKind::ALL
            .iter()
            .all(|&k| self.consumed[k] + demand[k] <= self.total[k]);
        if fits {
            for (k, &d) in demand.iter() {
                self.consumed[k] += d;
            }
            let g = self.guests.get_mut(&id).expect("checked above");
            for (k, &d) in demand.iter() {
                g.alloc[k] += d;
            }
            return Grant::Granted;
        }
        // Line 12: reclaim overcommitted pages from guests with the largest
        // dominant share first.
        let mut plan = Vec::new();
        for (k, &d) in demand.iter() {
            let shortfall = (self.consumed[k] + d).saturating_sub(self.total[k]);
            if shortfall == 0 {
                continue;
            }
            let mut remaining = shortfall;
            // Algorithm 1's discipline: requests are served smallest
            // dominant share first, so a guest may only displace guests
            // with a *larger* dominant share. Single-resource max-min has
            // no such cross-type protection — memory flows to whoever
            // demands it (the §5.5 failure).
            let my_share = self.dominant_share(id);
            let gated = matches!(self.policy, SharePolicy::WeightedDrf { .. });
            let mut donors: Vec<GuestId> = self
                .guests
                .keys()
                .copied()
                .filter(|&g| g != id && self.overcommit(g, k) > 0)
                .filter(|&g| !gated || self.dominant_share(g) > my_share)
                .collect();
            donors.sort_by(|a, b| {
                self.dominant_share(*b)
                    .partial_cmp(&self.dominant_share(*a))
                    .expect("shares are finite")
                    .then(a.cmp(b))
            });
            for donor in donors {
                if remaining == 0 {
                    break;
                }
                let take = self.overcommit(donor, k).min(remaining);
                plan.push((donor, k, take));
                remaining -= take;
            }
            if remaining > 0 {
                return Grant::Denied;
            }
        }
        Grant::NeedsReclaim(plan)
    }

    /// True when [`FairShare::reclaim`] would succeed: the guest is
    /// registered, holds the pages, and keeping its reservation floor
    /// intact. Callers on fallible paths (e.g. a balloon acknowledgement
    /// arriving over a lossy channel) check this first instead of risking
    /// the panic.
    pub fn can_reclaim(&self, id: GuestId, kind: MemKind, pages: u64) -> bool {
        let Some(g) = self.guests.get(&id) else {
            return false;
        };
        let Some(left) = g.alloc[kind].checked_sub(pages) else {
            return false;
        };
        match self.policy {
            SharePolicy::MaxMin => kind != MemKind::Fast || left >= g.min[kind],
            SharePolicy::WeightedDrf { .. } => left >= g.min[kind],
        }
    }

    /// True when [`FairShare::release`] would succeed.
    pub fn can_release(&self, id: GuestId, kind: MemKind, pages: u64) -> bool {
        self.guests.get(&id).is_some_and(|g| g.alloc[kind] >= pages)
    }

    /// Applies a reclaim: `pages` of `kind` taken back from `id` (after the
    /// balloon actually inflated).
    ///
    /// # Panics
    ///
    /// Panics if this would take the guest below its reserved minimum.
    pub fn reclaim(&mut self, id: GuestId, kind: MemKind, pages: u64) {
        let maxmin = matches!(self.policy, SharePolicy::MaxMin);
        let g = self.guests.get_mut(&id).expect("guest registered");
        // checked_sub, not `alloc - pages >= min`: the bare subtraction
        // wraps in release builds when `pages > alloc`, silently passing
        // the guard it was meant to enforce.
        let left = g.alloc[kind].checked_sub(pages);
        if maxmin {
            if kind == MemKind::Fast {
                assert!(
                    left.is_some_and(|l| l >= g.min[kind]),
                    "reclaim below {id}'s FastMem reservation"
                );
            }
            assert!(left.is_some(), "{id} does not hold {pages} on {kind}");
        } else {
            assert!(
                left.is_some_and(|l| l >= g.min[kind]),
                "reclaim below {id}'s reserved minimum on {kind}"
            );
        }
        g.alloc[kind] -= pages;
        self.consumed[kind] -= pages;
    }

    /// Releases pages a guest returned voluntarily.
    ///
    /// # Panics
    ///
    /// Panics if the guest does not hold that many pages.
    pub fn release(&mut self, id: GuestId, kind: MemKind, pages: u64) {
        let g = self.guests.get_mut(&id).expect("guest registered");
        assert!(g.alloc[kind] >= pages, "{id} does not hold {pages} pages");
        g.alloc[kind] -= pages;
        self.consumed[kind] -= pages;
    }

    fn overcommit(&self, id: GuestId, kind: MemKind) -> u64 {
        let g = &self.guests[&id];
        match &self.policy {
            // DRF honours the per-type reservation vector.
            SharePolicy::WeightedDrf { .. } => g.alloc[kind].saturating_sub(g.min[kind]),
            // Single-resource max-min guarantees fairness of ONE resource —
            // FastMem, the scarce one. SlowMem has no per-guest floor: any
            // of it is reclaimable on demand, which is exactly the §5.5
            // failure mode where Metis balloons out the Graphchi VM's
            // SlowMem reservation.
            SharePolicy::MaxMin => match kind {
                MemKind::Fast => g.alloc[kind].saturating_sub(g.min[kind]),
                _ => g.alloc[kind],
            },
        }
    }
}

impl hetero_sim::snap::Snap for GuestId {
    fn snap(&self, w: &mut hetero_sim::snap::SnapWriter) {
        w.put_u32(self.0);
    }
    fn unsnap(
        r: &mut hetero_sim::snap::SnapReader<'_>,
    ) -> Result<Self, hetero_sim::snap::SnapshotError> {
        Ok(GuestId(r.take_u32()?))
    }
}

hetero_sim::impl_snap!(enum SharePolicy {
    0 => MaxMin {},
    1 => WeightedDrf { weights },
});

hetero_sim::impl_snap!(struct GuestShare { min, alloc });

impl hetero_sim::snap::Snap for FairShare {
    fn snap(&self, w: &mut hetero_sim::snap::SnapWriter) {
        self.policy.snap(w);
        self.total.snap(w);
        self.consumed.snap(w);
        // HashMap iteration order is unspecified; dump entries sorted by
        // guest id so the same ledger always produces the same bytes.
        let mut ids: Vec<&GuestId> = self.guests.keys().collect();
        ids.sort();
        w.put_u64(ids.len() as u64);
        for id in ids {
            id.snap(w);
            self.guests[id].snap(w);
        }
    }
    fn unsnap(
        r: &mut hetero_sim::snap::SnapReader<'_>,
    ) -> Result<Self, hetero_sim::snap::SnapshotError> {
        use hetero_sim::snap::Snap;
        let policy = Snap::unsnap(r)?;
        let total = Snap::unsnap(r)?;
        let consumed = Snap::unsnap(r)?;
        let n = r.take_u64()? as usize;
        let mut guests = HashMap::with_capacity(n);
        for _ in 0..n {
            let id: GuestId = Snap::unsnap(r)?;
            let share: GuestShare = Snap::unsnap(r)?;
            guests.insert(id, share);
        }
        Ok(FairShare {
            policy,
            total,
            consumed,
            guests,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn totals(fast: u64, slow: u64) -> KindMap<u64> {
        let mut t = KindMap::default();
        t[MemKind::Fast] = fast;
        t[MemKind::Slow] = slow;
        t
    }

    fn demand(fast: u64, slow: u64) -> KindMap<u64> {
        totals(fast, slow)
    }

    #[test]
    fn grants_within_capacity() {
        let mut fs = FairShare::new(SharePolicy::paper_drf(), totals(100, 200));
        fs.register(GuestId(0), KindMap::default());
        assert_eq!(fs.request(GuestId(0), demand(50, 50)), Grant::Granted);
        assert_eq!(fs.free(MemKind::Fast), 50);
        assert_eq!(fs.allocated(GuestId(0))[MemKind::Slow], 50);
    }

    #[test]
    fn weighted_dominant_share_prefers_fastmem_weight() {
        // Paper §5.5 configuration: 4 GB Fast, 8 GB Slow (in pages here).
        let mut fs = FairShare::new(SharePolicy::paper_drf(), totals(4096, 8192));
        // Graphchi VM: <2*1GB Fast, 1*4GB Slow>.
        fs.register(GuestId(0), demand(1024, 4096));
        // Metis VM: <2*3GB Fast, 1*4GB Slow>.
        fs.register(GuestId(1), demand(3072, 4096));
        // Graphchi: fast share 2*1024/4096 = 0.5; slow 1*4096/8192 = 0.5.
        // Metis: fast 2*3072/4096 = 1.5 → Fast is Metis's dominant resource.
        assert!(fs.dominant_share(GuestId(1)) > fs.dominant_share(GuestId(0)));
        // Graphchi is served first from the queue.
        assert_eq!(
            fs.next_in_queue([GuestId(0), GuestId(1)].iter()),
            Some(GuestId(0))
        );
    }

    #[test]
    fn maxmin_counts_total_pages_only() {
        let mut fs = FairShare::new(SharePolicy::MaxMin, totals(100, 100));
        fs.register(GuestId(0), demand(90, 0));
        fs.register(GuestId(1), demand(0, 90));
        // Max-min cannot tell the two apart: both hold 90/200.
        let a = fs.dominant_share(GuestId(0));
        let b = fs.dominant_share(GuestId(1));
        assert!((a - b).abs() < 1e-12);
    }

    #[test]
    fn reclaim_plan_targets_largest_share_first() {
        let mut fs = FairShare::new(SharePolicy::paper_drf(), totals(100, 100));
        fs.register(GuestId(0), demand(10, 0));
        fs.register(GuestId(1), demand(10, 0));
        // Guest 1 grabs most of FastMem beyond its floor.
        assert_eq!(fs.request(GuestId(1), demand(70, 0)), Grant::Granted);
        // Guest 0 wants 30 Fast: only 10 free → reclaim 20 from guest 1.
        match fs.request(GuestId(0), demand(30, 0)) {
            Grant::NeedsReclaim(plan) => {
                assert_eq!(plan, vec![(GuestId(1), MemKind::Fast, 20)]);
                fs.reclaim(GuestId(1), MemKind::Fast, 20);
                assert_eq!(fs.request(GuestId(0), demand(30, 0)), Grant::Granted);
            }
            other => panic!("expected reclaim plan, got {other:?}"),
        }
    }

    #[test]
    fn denied_when_minima_block_reclaim() {
        let mut fs = FairShare::new(SharePolicy::paper_drf(), totals(100, 100));
        fs.register(GuestId(0), demand(60, 0));
        fs.register(GuestId(1), demand(40, 0));
        // All FastMem is reserved minimum — nothing can be reclaimed.
        assert_eq!(fs.request(GuestId(1), demand(1, 0)), Grant::Denied);
    }

    #[test]
    fn release_returns_capacity() {
        let mut fs = FairShare::new(SharePolicy::paper_drf(), totals(100, 100));
        fs.register(GuestId(0), KindMap::default());
        fs.request(GuestId(0), demand(40, 0));
        fs.release(GuestId(0), MemKind::Fast, 40);
        assert_eq!(fs.free(MemKind::Fast), 100);
    }

    #[test]
    fn unregister_returns_capacity() {
        let mut fs = FairShare::new(SharePolicy::paper_drf(), totals(100, 100));
        fs.register(GuestId(0), demand(20, 10));
        fs.request(GuestId(0), demand(30, 0));
        let freed = fs.unregister(GuestId(0)).expect("was registered");
        assert_eq!(freed[MemKind::Fast], 50);
        assert_eq!(freed[MemKind::Slow], 10);
        assert_eq!(fs.free(MemKind::Fast), 100);
        assert_eq!(fs.free(MemKind::Slow), 100);
        assert!(!fs.is_registered(GuestId(0)));
        assert_eq!(fs.unregister(GuestId(0)), None);
    }

    #[test]
    #[should_panic(expected = "does not hold")]
    fn reclaim_more_than_held_panics() {
        let mut fs = FairShare::new(SharePolicy::MaxMin, totals(100, 100));
        fs.register(GuestId(0), KindMap::default());
        fs.request(GuestId(0), demand(0, 5));
        // 6 > 5 held: the checked_sub guard must fire, not wrap.
        fs.reclaim(GuestId(0), MemKind::Slow, 6);
    }

    #[test]
    #[should_panic(expected = "below")]
    fn reclaim_below_minimum_panics() {
        let mut fs = FairShare::new(SharePolicy::paper_drf(), totals(100, 100));
        fs.register(GuestId(0), demand(50, 0));
        fs.reclaim(GuestId(0), MemKind::Fast, 1);
    }

    #[test]
    #[should_panic(expected = "oversubscribe")]
    fn oversubscribed_minima_panic() {
        let mut fs = FairShare::new(SharePolicy::paper_drf(), totals(10, 10));
        fs.register(GuestId(0), demand(8, 0));
        fs.register(GuestId(1), demand(8, 0));
    }

    #[test]
    fn single_tier_machine_yields_finite_shares() {
        // A machine with no SlowMem at all: the zero-capacity tier must
        // contribute share 0, not poison the maximum with 0/0 = NaN.
        let mut fs = FairShare::new(SharePolicy::paper_drf(), totals(100, 0));
        fs.register(GuestId(0), demand(10, 0));
        let share = fs.dominant_share(GuestId(0));
        assert!(share.is_finite(), "share is {share}");
        assert!((share - 0.2).abs() < 1e-12, "2*10/100, got {share}");
        // The ordinary request path still works end-to-end on one tier...
        assert_eq!(fs.request(GuestId(0), demand(20, 0)), Grant::Granted);
        // ...and demand on the absent tier is denied, not granted by a
        // NaN comparison falling through.
        assert_eq!(fs.request(GuestId(0), demand(0, 1)), Grant::Denied);

        // Degenerate zero-capacity machine under max-min: share 0.
        let mut empty = FairShare::new(SharePolicy::MaxMin, totals(0, 0));
        empty.register(GuestId(1), KindMap::default());
        assert_eq!(empty.dominant_share(GuestId(1)), 0.0);
    }

    #[test]
    fn reclaim_plans_are_identical_across_registration_histories() {
        // `request` walks `self.guests` (a HashMap) to build its reclaim
        // plan. The donor sort's `(share desc, id)` ordering must fully
        // determine the plan — including between guests whose shares tie
        // exactly — no matter what internal table layout a particular
        // register/unregister history produced.
        use hetero_sim::SimRng;
        let build_and_request = |seed: u64| -> String {
            let mut rng = SimRng::seed_from(seed);
            let mut fs = FairShare::new(SharePolicy::paper_drf(), totals(1000, 1000));
            // Register and later remove shuffled decoys to perturb the
            // HashMap's internal layout across seeds.
            let mut decoys: Vec<u32> = (10..30).collect();
            for i in (1..decoys.len()).rev() {
                let j = rng.next_range(0, (i + 1) as u64) as usize;
                decoys.swap(i, j);
            }
            for &d in &decoys {
                fs.register(GuestId(d), KindMap::default());
            }
            let mut order: Vec<u32> = (0..6).collect();
            for i in (1..order.len()).rev() {
                let j = rng.next_range(0, (i + 1) as u64) as usize;
                order.swap(i, j);
            }
            for &g in &order {
                fs.register(GuestId(g), demand(10, 10));
            }
            for &d in &decoys {
                fs.unregister(GuestId(d));
            }
            // Pairs (0,1), (2,3), (4,5) end with identical allocations, so
            // their dominant shares tie exactly.
            for g in 0..6u32 {
                let extra = 100 + u64::from(g / 2) * 40;
                assert_eq!(fs.request(GuestId(g), demand(extra, 50)), Grant::Granted);
            }
            // FastMem is now 900/1000 consumed; 150 more forces a reclaim
            // plan chosen among the tied donors.
            match fs.request(GuestId(0), demand(150, 0)) {
                Grant::NeedsReclaim(plan) => format!("{plan:?}"),
                other => panic!("expected a reclaim plan, got {other:?}"),
            }
        };
        let reference = build_and_request(0);
        assert!(reference.contains("Fast"), "plan is vacuous: {reference}");
        for seed in 1..16u64 {
            assert_eq!(
                build_and_request(seed),
                reference,
                "seed {seed}: reclaim plan depends on registration history"
            );
        }
    }

    #[test]
    fn strategy_proofness_lying_raises_dominant_share() {
        // §4.3: a guest lying about FastMem need raises its dominant ratio,
        // making it the first reclaim target.
        let mut fs = FairShare::new(SharePolicy::paper_drf(), totals(100, 1000));
        fs.register(GuestId(0), KindMap::default());
        fs.register(GuestId(1), KindMap::default());
        fs.request(GuestId(0), demand(10, 100)); // honest
        fs.request(GuestId(1), demand(60, 100)); // liar hoards FastMem
        assert!(fs.dominant_share(GuestId(1)) > fs.dominant_share(GuestId(0)));
        // Next in queue is the honest guest.
        assert_eq!(
            fs.next_in_queue([GuestId(0), GuestId(1)].iter()),
            Some(GuestId(0))
        );
    }
}
