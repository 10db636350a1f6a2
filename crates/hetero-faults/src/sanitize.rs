//! The layered cross-stack invariant sanitizer.
//!
//! [`audit_kernel`] checks one guest kernel's *internal* accounting. The
//! [`Sanitizer`] layers cross-subsystem checks on top of it: the hotness
//! tracker vs. the memmap, swap/slab/page-cache residency vs. frame state,
//! the engine's cost attribution vs. the simulated clock, counter
//! monotonicity across epochs, and a migration differential between the
//! engine's own tally and the guest kernel's counter. A shadow reference
//! model ([`crate::shadow`]) independently recounts the memmap from raw
//! page descriptors.
//!
//! Every check is **observational**: the sanitizer never mutates the
//! kernel, the tracker, the clock, or the RNG stream, so enabling any
//! audit level leaves exported results byte-identical to an unaudited run
//! (pinned by `tests/audit_oracle.rs`).

use std::fmt;
use std::str::FromStr;

use hetero_guest::kernel::SlabClass;
use hetero_guest::memmap::MemMap;
use hetero_guest::page::PageType;
use hetero_guest::GuestKernel;
use hetero_mem::kind::KindMap;
use hetero_mem::MemKind;
use hetero_vmm::drf::{FairShare, GuestId};
use hetero_vmm::hotness::{HotnessTracker, ScanOutcome};

use crate::audit::{audit_kernel, Violation};
use crate::shadow::ShadowModel;

/// How much invariant checking a run performs.
///
/// Levels are strictly ordered: each one runs everything the previous
/// level does, plus more. `Off` skips the sanitizer entirely.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum AuditLevel {
    /// No checking — the production configuration.
    #[default]
    Off,
    /// Run every sanitizer layer (including the shadow recount) once per
    /// simulated epoch.
    Epoch,
    /// `Epoch`, plus validation of every scan outcome at the moment it is
    /// produced (candidates are only guaranteed valid immediately
    /// post-scan, before the epoch's migrations consume them).
    Paranoid,
}

impl AuditLevel {
    /// All levels, in increasing strictness.
    pub const ALL: [AuditLevel; 3] = [AuditLevel::Off, AuditLevel::Epoch, AuditLevel::Paranoid];

    /// True when any checking is enabled.
    pub fn is_enabled(self) -> bool {
        self != AuditLevel::Off
    }
}

impl fmt::Display for AuditLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            AuditLevel::Off => "off",
            AuditLevel::Epoch => "epoch",
            AuditLevel::Paranoid => "paranoid",
        })
    }
}

impl FromStr for AuditLevel {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "off" => Ok(AuditLevel::Off),
            "epoch" => Ok(AuditLevel::Epoch),
            "paranoid" => Ok(AuditLevel::Paranoid),
            other => Err(format!(
                "unknown audit level '{other}' (expected off, epoch or paranoid)"
            )),
        }
    }
}

/// The engine-side accounting a per-epoch audit cross-checks: the clock,
/// the engine's own migration tally, and any cumulative counters that must
/// never move backwards.
#[derive(Debug, Clone, Copy)]
pub struct EpochCosts<'a> {
    /// The epoch being audited.
    pub epoch: u64,
    /// The simulated clock's current time, in nanoseconds.
    pub now_ns: u64,
    /// The sum of all per-category attributed time, in nanoseconds.
    pub attributed_ns: u64,
    /// Migrations the engine believes it performed so far (its own tally
    /// of successes at every call site, independent of the kernel's).
    pub engine_migrations: u64,
    /// Named cumulative counters; each must be monotone across epochs.
    pub counters: &'a [(&'static str, u64)],
}

/// The layered sanitizer. Holds per-run state (previous counter values)
/// so checks that compare across epochs work.
#[derive(Debug, Default)]
pub struct Sanitizer {
    level: AuditLevel,
    prev_counters: Vec<(&'static str, u64)>,
    prev_attributed: Option<(u64, u64)>,
}

impl Sanitizer {
    /// Builds a sanitizer for the given level.
    pub fn new(level: AuditLevel) -> Self {
        Sanitizer {
            level,
            ..Sanitizer::default()
        }
    }

    /// The configured level.
    pub fn level(&self) -> AuditLevel {
        self.level
    }

    /// Runs every per-epoch layer over one guest + its engine-side
    /// accounting. Returns all violations found (empty = healthy).
    ///
    /// Layers, in order:
    /// 1. [`audit_kernel`] — the guest's internal frame/LRU/balloon books.
    /// 2. Residency cross-checks — swap vs. page table, slab backing vs.
    ///    memmap, page-cache index vs. resident file pages.
    /// 3. Tracker cross-checks — tracked count vs. known bits, known
    ///    frames within the guest's frame space.
    /// 4. Cost conservation — every simulated nanosecond is attributed to
    ///    a category (the engine never advances the clock unattributed).
    /// 5. Counter monotonicity — cumulative counters never regress.
    /// 6. Migration differential — the engine's tally of migrations it
    ///    requested equals the kernel's count of migrations it performed.
    /// 7. Shadow recount — a naive full walk of the page descriptors
    ///    agrees with the memmap's incremental residency and the
    ///    allocator's free totals.
    pub fn check_epoch(
        &mut self,
        kernel: &GuestKernel,
        tracker: Option<&HotnessTracker>,
        costs: &EpochCosts<'_>,
    ) -> Vec<Violation> {
        let mut out = audit_kernel(kernel);
        audit_residency(kernel, &mut out);
        audit_cold_ledger(kernel, &mut out);
        if let Some(tracker) = tracker {
            audit_tracker(kernel, tracker, &mut out);
        }
        self.check_costs(costs, &mut out);
        ShadowModel::new().audit(kernel, &mut out);
        out
    }

    /// Layers 4–6 alone (cost conservation, counter monotonicity, the
    /// migration differential). Kept separate so multi-VM drivers can
    /// audit per-guest accounting without re-walking the kernel.
    fn check_costs(&mut self, costs: &EpochCosts<'_>, out: &mut Vec<Violation>) {
        if costs.now_ns != costs.attributed_ns {
            out.push(Violation::CostConservation {
                now_ns: costs.now_ns,
                attributed_ns: costs.attributed_ns,
            });
        }
        if let Some((prev_now, prev_attr)) = self.prev_attributed {
            if costs.now_ns < prev_now {
                out.push(Violation::CounterRegression {
                    name: "clock_now_ns",
                    prev: prev_now,
                    now: costs.now_ns,
                });
            }
            if costs.attributed_ns < prev_attr {
                out.push(Violation::CounterRegression {
                    name: "clock_attributed_ns",
                    prev: prev_attr,
                    now: costs.attributed_ns,
                });
            }
        }
        self.prev_attributed = Some((costs.now_ns, costs.attributed_ns));
        for &(name, now) in costs.counters {
            if let Some(&(_, prev)) = self
                .prev_counters
                .iter()
                .find(|(prev_name, _)| *prev_name == name)
            {
                if now < prev {
                    out.push(Violation::CounterRegression { name, prev, now });
                }
            }
        }
        self.prev_counters = costs.counters.to_vec();
        let kernel_migrations = costs
            .counters
            .iter()
            .find(|(name, _)| *name == "kernel_migrations")
            .map(|&(_, v)| v);
        if let Some(kernel) = kernel_migrations {
            if kernel != costs.engine_migrations {
                out.push(Violation::MigrationDelta {
                    epoch: costs.epoch,
                    engine: costs.engine_migrations,
                    kernel,
                });
            }
        }
    }

    /// `Paranoid`-only: validates a scan outcome at the moment the scan
    /// produced it. Candidates must still be resident and on the tier the
    /// classification implies — a stale candidate here means the tracker
    /// classified from state it never observed.
    pub fn check_scan_outcome(&self, kernel: &GuestKernel, scan: &ScanOutcome) -> Vec<Violation> {
        let mut out = Vec::new();
        if self.level < AuditLevel::Paranoid {
            return out;
        }
        let mm = kernel.memmap();
        for &gfn in &scan.hot_candidates {
            let page = mm.page(gfn);
            if !page.is_present() {
                out.push(Violation::ScanCandidate {
                    gfn,
                    hot: true,
                    reason: "not present at scan time",
                });
            } else if !page.page_type.is_migratable() {
                out.push(Violation::ScanCandidate {
                    gfn,
                    hot: true,
                    reason: "page type is not migratable",
                });
            } else if page.kind == MemKind::Fast {
                out.push(Violation::ScanCandidate {
                    gfn,
                    hot: true,
                    reason: "promotion candidate already on FastMem",
                });
            }
        }
        for &gfn in &scan.cold_candidates {
            let page = mm.page(gfn);
            if !page.is_present() {
                out.push(Violation::ScanCandidate {
                    gfn,
                    hot: false,
                    reason: "not present at scan time",
                });
            } else if page.kind != MemKind::Fast {
                out.push(Violation::ScanCandidate {
                    gfn,
                    hot: false,
                    reason: "demotion candidate not on FastMem",
                });
            }
        }
        out
    }
}

/// Residency cross-checks between the guest's subsystem indexes and its
/// memmap: every swapped page is unmapped, every slab backing page is
/// counted resident, and the page-cache index covers exactly the resident
/// file pages.
pub fn audit_residency(kernel: &GuestKernel, out: &mut Vec<Violation>) {
    let mm = kernel.memmap();
    // Swap: a swapped-out page's frame was freed, so its VPN must not
    // still translate (swap-out unmaps before freeing).
    for (vpn, _) in kernel.swap_map().iter() {
        if kernel.page_table().translate(vpn).is_some() {
            out.push(Violation::SwapResidency { vpn });
        }
    }
    // Slab: each cache's backing-page count must equal the memmap's
    // resident count for that class's page type (skbuff is the only NetBuf
    // source, fs-meta the only Slab source).
    for (class, page_type) in [
        (SlabClass::FsMeta, PageType::Slab),
        (SlabClass::Skbuff, PageType::NetBuf),
    ] {
        let cache = kernel.slab_cache(class);
        let backing = cache.pages();
        let resident = mm.resident_pages(page_type);
        if backing != resident {
            out.push(Violation::SlabAccounting {
                class: cache.name(),
                backing,
                resident,
            });
        }
    }
    // Page cache: audit_kernel already proves every index entry points at
    // a distinct resident file page; equal counts upgrade that injection
    // to a bijection (no resident file page missing from the index).
    let indexed = kernel.page_cache().len() as u64;
    let resident =
        mm.resident_pages(PageType::PageCache) + mm.resident_pages(PageType::BufferCache);
    if indexed != resident {
        out.push(Violation::PageCacheCount { indexed, resident });
    }
}

/// Dense oracle for the lazy cold-active ledger: recounts ACTIVE pages
/// below the configured cold threshold on every tier and compares against
/// the ledger's incremental counts. A no-op when the ledger was never
/// configured (engines that run no guest LRU leave it inert).
pub fn audit_cold_ledger(kernel: &GuestKernel, out: &mut Vec<Violation>) {
    cold_ledger_drift(kernel.memmap(), out);
}

/// [`audit_cold_ledger`] over the memmap alone.
fn cold_ledger_drift(mm: &MemMap, out: &mut Vec<Violation>) {
    if mm.cold_ledger().threshold().is_none() {
        return;
    }
    let walked = mm.recount_cold_active();
    for &kind in MemKind::ALL.iter() {
        let tracked = mm.cold_active(kind);
        if tracked != walked[kind] {
            out.push(Violation::ColdLedgerDrift {
                kind,
                tracked,
                walked: walked[kind],
            });
        }
    }
}

/// Cross-checks the hotness tracker against the guest it scans: the O(1)
/// tracked count must equal the known bits actually set, and no known
/// frame may lie beyond the guest's frame space.
///
/// Deliberately *not* checked: "known implies resident". The engine prunes
/// the tracker lazily (if ever), so stale history for a freed frame is
/// legal; it is the *candidates* that must be fresh, which
/// [`Sanitizer::check_scan_outcome`] validates at scan time.
pub fn audit_tracker(kernel: &GuestKernel, tracker: &HotnessTracker, out: &mut Vec<Violation>) {
    let total_frames = kernel.memmap().total_frames();
    let mut known = 0u64;
    for (gfn, _) in tracker.known_entries() {
        known += 1;
        if gfn.0 >= total_frames {
            out.push(Violation::TrackerOutOfRange { gfn, total_frames });
        }
    }
    let tracked = tracker.tracked_pages() as u64;
    if tracked != known {
        out.push(Violation::TrackerAccounting { tracked, known });
    }
}

/// Audits a multi-VM fair-share ledger against the machine and its guests:
/// per-guest grants must equal what each kernel actually owns (configured
/// frames minus pages ballooned back), and grants plus the free pool must
/// cover each machine tier exactly.
pub fn audit_fair_share(
    fair: &FairShare,
    guests: &[(GuestId, &GuestKernel)],
    totals: &KindMap<u64>,
) -> Vec<Violation> {
    let mut out = Vec::new();
    let mut granted_sum: KindMap<u64> = KindMap::default();
    for &(id, kernel) in guests {
        let granted = fair.allocated(id);
        for &kind in MemKind::ALL.iter() {
            granted_sum[kind] += granted[kind];
            let kernel_owned =
                kernel.total_frames(kind).saturating_sub(kernel.ballooned_pages(kind));
            if granted[kind] != kernel_owned {
                out.push(Violation::GuestViewMismatch {
                    guest: id,
                    kind,
                    granted: granted[kind],
                    kernel_owned,
                });
            }
        }
    }
    for &kind in MemKind::ALL.iter() {
        let total = totals[kind];
        if total == 0 {
            continue;
        }
        let allocated = granted_sum[kind];
        let free = fair.free(kind);
        if allocated + free != total {
            out.push(Violation::LedgerConservation {
                kind,
                allocated,
                free,
                total,
            });
        }
    }
    out
}

/// One host's ledger view for the cluster-boundary audit.
pub struct HostLedgerView<'a> {
    /// Host index within the cluster.
    pub host: u32,
    /// The host's fair-share ledger.
    pub fair: &'a FairShare,
    /// The guests resident on this host, with their kernels.
    pub guests: Vec<(GuestId, &'a GuestKernel)>,
    /// The host's tier capacity (simulated pages).
    pub totals: KindMap<u64>,
}

/// Extends the fair-share audit across the host boundary: each host ledger
/// must conserve on its own ([`audit_fair_share`]), no guest may be owned
/// by two hosts at once, and the summed grants plus free pools must cover
/// the summed cluster capacity exactly — so an inter-host migration that
/// fails to debit its source, or double-credits its destination, is caught
/// on the next audit pass.
pub fn audit_cluster(hosts: &[HostLedgerView<'_>]) -> Vec<Violation> {
    let mut out = Vec::new();
    for h in hosts {
        out.extend(audit_fair_share(h.fair, &h.guests, &h.totals));
    }
    // No frame owner appears on two ledgers. BTreeMap keeps the scan
    // deterministic in guest order.
    let mut owner: std::collections::BTreeMap<GuestId, u32> = std::collections::BTreeMap::new();
    for h in hosts {
        for id in h.fair.guest_ids() {
            match owner.get(&id) {
                Some(&first) => out.push(Violation::CrossHostOwnership {
                    guest: id,
                    first_host: first,
                    second_host: h.host,
                }),
                None => {
                    owner.insert(id, h.host);
                }
            }
        }
    }
    // Cluster-wide conservation per tier: a migration debits the source
    // and credits the destination exactly, so the sums are invariant.
    for &kind in MemKind::ALL.iter() {
        let total: u64 = hosts.iter().map(|h| h.totals[kind]).sum();
        if total == 0 {
            continue;
        }
        let allocated: u64 = hosts.iter().map(|h| h.fair.consumed()[kind]).sum();
        let free: u64 = hosts.iter().map(|h| h.fair.free(kind)).sum();
        if allocated + free != total {
            out.push(Violation::ClusterConservation {
                kind,
                allocated,
                free,
                total,
            });
        }
    }
    out
}

hetero_sim::impl_snap!(enum AuditLevel {
    0 => Off {},
    1 => Epoch {},
    2 => Paranoid {},
});

hetero_sim::impl_snap!(struct Sanitizer { level, prev_counters, prev_attributed });

#[cfg(test)]
mod tests {
    use super::*;
    use hetero_guest::kernel::GuestConfig;

    fn kernel() -> GuestKernel {
        GuestKernel::new(GuestConfig {
            frames: vec![(MemKind::Fast, 64), (MemKind::Slow, 256)],
            cpus: 1,
            page_size: 4096,
        })
    }

    #[test]
    fn audit_level_parses_and_displays() {
        for level in AuditLevel::ALL {
            assert_eq!(level.to_string().parse::<AuditLevel>(), Ok(level));
        }
        assert!("loud".parse::<AuditLevel>().is_err());
        assert!(AuditLevel::Off < AuditLevel::Epoch);
        assert!(AuditLevel::Epoch < AuditLevel::Paranoid);
        assert!(!AuditLevel::Off.is_enabled());
        assert!(AuditLevel::Epoch.is_enabled());
    }

    #[test]
    fn healthy_kernel_passes_every_layer() {
        let mut k = kernel();
        k.mmap_heap(32, std::iter::repeat(200), &[MemKind::Fast, MemKind::Slow])
            .unwrap();
        let tracker = HotnessTracker::new(3);
        let mut san = Sanitizer::new(AuditLevel::Epoch);
        let costs = EpochCosts {
            epoch: 0,
            now_ns: 100,
            attributed_ns: 100,
            engine_migrations: 0,
            counters: &[("kernel_migrations", 0), ("epochs", 1)],
        };
        let violations = san.check_epoch(&k, Some(&tracker), &costs);
        assert!(violations.is_empty(), "unexpected: {violations:?}");
    }

    #[test]
    fn configured_cold_ledger_passes_after_churn() {
        let mut k = kernel();
        k.configure_cold_ledger(48);
        // Mixed hot/cold allocations, then aging deactivates the cold ones.
        k.mmap_heap(
            32,
            (0..32u8).map(|i| if i % 2 == 0 { 16 } else { 200 }),
            &[MemKind::Fast, MemKind::Slow],
        )
        .unwrap();
        k.age_lru(MemKind::Fast, 64, 48);
        let mut out = Vec::new();
        audit_cold_ledger(&k, &mut out);
        assert!(out.is_empty(), "unexpected drift: {out:?}");
        // Unconfigured kernels skip the oracle entirely.
        let plain = kernel();
        let mut out = Vec::new();
        audit_cold_ledger(&plain, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn active_flag_flipped_behind_the_ledger_is_caught() {
        use hetero_guest::page::{Gfn, PageFlags};
        let mut mm = MemMap::new(&[(MemKind::Fast, 8), (MemKind::Slow, 8)]);
        mm.configure_cold_ledger(48);
        mm.set_allocated(Gfn(9), PageType::HeapAnon, 10);
        mm.set_active(Gfn(9), true);
        mm.set_allocated(Gfn(1), PageType::HeapAnon, 10);
        let mut out = Vec::new();
        cold_ledger_drift(&mm, &mut out);
        assert!(out.is_empty(), "unexpected drift: {out:?}");
        // Activating a cold page through `page_mut` skips the ledger.
        mm.page_mut(Gfn(1)).flags.insert(PageFlags::ACTIVE);
        cold_ledger_drift(&mm, &mut out);
        assert_eq!(
            out,
            vec![Violation::ColdLedgerDrift {
                kind: MemKind::Fast,
                tracked: 0,
                walked: 1,
            }]
        );
    }

    #[test]
    fn cold_ledger_drift_renders_readably() {
        let v = Violation::ColdLedgerDrift {
            kind: MemKind::Fast,
            tracked: 3,
            walked: 5,
        };
        assert_eq!(
            v.to_string(),
            "FastMem: cold ledger tracks 3 cold-active but walk found 5"
        );
    }

    #[test]
    fn unattributed_time_is_flagged() {
        let k = kernel();
        let mut san = Sanitizer::new(AuditLevel::Epoch);
        let costs = EpochCosts {
            epoch: 3,
            now_ns: 100,
            attributed_ns: 90,
            engine_migrations: 0,
            counters: &[],
        };
        let violations = san.check_epoch(&k, None, &costs);
        assert!(violations.contains(&Violation::CostConservation {
            now_ns: 100,
            attributed_ns: 90,
        }));
    }

    #[test]
    fn counter_regression_is_flagged_across_epochs() {
        let k = kernel();
        let mut san = Sanitizer::new(AuditLevel::Epoch);
        let mk = |counters: &'static [(&'static str, u64)]| EpochCosts {
            epoch: 0,
            now_ns: 0,
            attributed_ns: 0,
            engine_migrations: 0,
            counters,
        };
        let first = san.check_epoch(&k, None, &mk(&[("scans", 5)]));
        assert!(first.is_empty(), "first epoch just records: {first:?}");
        let second = san.check_epoch(&k, None, &mk(&[("scans", 3)]));
        assert!(second.contains(&Violation::CounterRegression {
            name: "scans",
            prev: 5,
            now: 3,
        }));
    }

    #[test]
    fn migration_delta_is_flagged() {
        let k = kernel();
        let mut san = Sanitizer::new(AuditLevel::Epoch);
        let costs = EpochCosts {
            epoch: 7,
            now_ns: 0,
            attributed_ns: 0,
            engine_migrations: 4,
            counters: &[("kernel_migrations", 6)],
        };
        let violations = san.check_epoch(&k, None, &costs);
        assert!(violations.contains(&Violation::MigrationDelta {
            epoch: 7,
            engine: 4,
            kernel: 6,
        }));
    }

    #[test]
    fn tracker_beyond_guest_frames_is_flagged() {
        let k = kernel(); // 320 frames
        let mut tracker = HotnessTracker::new(3);
        // Track a frame past the guest's space, as a tracker reused across
        // differently-sized guests could.
        let big = GuestKernel::new(GuestConfig {
            frames: vec![(MemKind::Fast, 64), (MemKind::Slow, 512)],
            cpus: 1,
            page_size: 4096,
        });
        let mut big = big;
        big.mmap_heap(400, std::iter::repeat(200), &[MemKind::Slow])
            .unwrap();
        let mut always = |_: &hetero_guest::page::Page| true;
        tracker.scan_full(&big, &mut always, 1 << 20);
        let mut out = Vec::new();
        audit_tracker(&k, &tracker, &mut out);
        assert!(
            out.iter()
                .any(|v| matches!(v, Violation::TrackerOutOfRange { .. })),
            "expected out-of-range violations, got {out:?}"
        );
    }

    #[test]
    fn paranoid_scan_check_flags_stale_candidates() {
        let mut k = kernel();
        let (gfn, kind) = k
            .alloc_page(PageType::HeapAnon, 200, &[MemKind::Slow])
            .unwrap();
        assert_eq!(kind, MemKind::Slow);
        let san = Sanitizer::new(AuditLevel::Paranoid);
        // Fabricate a scan that claims a Slow-tier frame is a demotion
        // (cold) candidate — demotions only come off FastMem.
        let scan = ScanOutcome {
            scanned: 1,
            hot_candidates: vec![],
            cold_candidates: vec![gfn],
        };
        let out = san.check_scan_outcome(&k, &scan);
        assert!(
            out.contains(&Violation::ScanCandidate {
                gfn,
                hot: false,
                reason: "demotion candidate not on FastMem",
            }),
            "got {out:?}"
        );
        // Epoch level skips scan validation entirely.
        let relaxed = Sanitizer::new(AuditLevel::Epoch);
        assert!(relaxed.check_scan_outcome(&k, &scan).is_empty());
    }
}
