//! The VMM facade: machine-frame ownership, per-guest reservations with
//! type-specific ballooning, on-demand back-end, and fair sharing.
//!
//! Matches Fig 5's back-end boxes: the on-demand back-end "handles the
//! node-specific requests and also maintains the per-node machine page
//! number (MFN) mapping for each of the guests" (§3.1); the fair-share
//! manager implements weighted DRF (§4.2); the hot-page component lives in
//! [`crate::hotness`] and is driven per guest through this facade.

use std::collections::{HashMap, VecDeque};
use std::fmt;

use hetero_guest::page::PageType;
use hetero_guest::GuestKernel;
use hetero_mem::kind::KindMap;
use hetero_mem::{MachineMemory, MemKind, Mfn};

use crate::channel::{BackMsg, FrontMsg, SharedRing};
use crate::drf::{FairShare, Grant, GuestId, SharePolicy};
use crate::hotness::{HotnessTracker, ScanOutcome, TouchOracle};

/// Per-guest memory contract: a reserved minimum and a balloonable maximum
/// per memory type (§4.2 "Extending ballooning").
#[derive(Debug, Clone, Copy, Default)]
pub struct GuestSpec {
    /// Reserved at boot; never reclaimed.
    pub min: KindMap<u64>,
    /// Hard cap; requests beyond it are clamped.
    pub max: KindMap<u64>,
}

/// Error registering or addressing a guest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VmmError {
    /// The guest id is not registered.
    UnknownGuest(GuestId),
    /// The guest id is already registered.
    DuplicateGuest(GuestId),
    /// The machine lacks frames for the guest's reserved minimum.
    InsufficientMachineMemory(MemKind),
    /// The fair-share ledger and the machine frame pools disagree — grant
    /// bookkeeping is corrupt and the operation was refused.
    LedgerInconsistent(GuestId, MemKind),
    /// A reclaim or release names more pages than the guest's backing (or
    /// its reservation floor) can cover — e.g. a stale or duplicated
    /// balloon acknowledgement.
    InvalidReclaim(GuestId, MemKind),
}

impl fmt::Display for VmmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VmmError::UnknownGuest(id) => write!(f, "unknown guest {id}"),
            VmmError::DuplicateGuest(id) => write!(f, "guest {id} already registered"),
            VmmError::InsufficientMachineMemory(k) => {
                write!(f, "machine cannot back the reserved minimum on {k}")
            }
            VmmError::LedgerInconsistent(id, k) => {
                write!(
                    f,
                    "share ledger and machine frames disagree for {id} on {k}"
                )
            }
            VmmError::InvalidReclaim(id, k) => {
                write!(f, "reclaim/release exceeds what {id} holds on {k}")
            }
        }
    }
}

impl std::error::Error for VmmError {}

/// Result of an on-demand memory request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemoryGrant {
    /// Pages granted per tier (the fallback tier may appear here).
    pub granted: KindMap<u64>,
    /// Balloon reclaims the engine must drive before re-requesting, when
    /// the grant was partial due to contention.
    pub reclaim_plan: Vec<(GuestId, MemKind, u64)>,
}

struct GuestEntry {
    spec: GuestSpec,
    ring: SharedRing,
    tracker: HotnessTracker,
    tracking: Vec<(u64, u64)>,
    exceptions: Vec<PageType>,
    frames: KindMap<Vec<Mfn>>,
    /// Responses that found the back ring full: retried at the next pump
    /// instead of being dropped (a lost grant would leak frames forever).
    /// Bounded by outstanding grants, which the guest's `max` caps.
    pending_back: VecDeque<BackMsg>,
}

/// The hypervisor.
///
/// # Examples
///
/// ```
/// use hetero_mem::kind::KindMap;
/// use hetero_mem::{MachineMemory, MemKind, ThrottleConfig};
/// use hetero_vmm::drf::{GuestId, SharePolicy};
/// use hetero_vmm::vmm::{GuestSpec, Vmm};
///
/// let machine = MachineMemory::builder()
///     .fast_mem(1 << 24, ThrottleConfig::fast_mem())
///     .slow_mem(1 << 26, ThrottleConfig::slow_mem_default())
///     .build();
/// let mut vmm = Vmm::new(machine, SharePolicy::paper_drf());
/// let mut spec = GuestSpec::default();
/// spec.max[MemKind::Fast] = 1024;
/// spec.max[MemKind::Slow] = 8192;
/// vmm.register_guest(GuestId(0), spec)?;
/// let grant = vmm.request_memory(GuestId(0), MemKind::Fast, 256, None)?;
/// assert_eq!(grant.granted[MemKind::Fast], 256);
/// # Ok::<(), hetero_vmm::vmm::VmmError>(())
/// ```
pub struct Vmm {
    machine: MachineMemory,
    fair: FairShare,
    guests: HashMap<GuestId, GuestEntry>,
    /// Hot threshold handed to per-guest trackers.
    hot_threshold: u32,
    /// Cumulative fair-share ledger mutations (register/unregister, grants,
    /// reclaims, releases) — telemetry.
    ledger_ops: u64,
    /// In-flight channel messages destroyed by guest teardown: requests and
    /// responses still on the rings plus parked `pending_back` retries at
    /// `unregister_guest` time. A crash mid-conversation must account for
    /// the conversation it killed, not lose it silently.
    events_dropped: u64,
}

impl fmt::Debug for Vmm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Vmm")
            .field("guests", &self.guests.len())
            .field("free_fast", &self.machine.free_frames(MemKind::Fast))
            .field("free_slow", &self.machine.free_frames(MemKind::Slow))
            .finish()
    }
}

impl Vmm {
    /// Creates a VMM owning `machine`, sharing it under `policy`.
    pub fn new(machine: MachineMemory, policy: SharePolicy) -> Self {
        let totals = KindMap::from_fn(|k| machine.total_frames(k));
        Vmm {
            fair: FairShare::new(policy, totals),
            machine,
            guests: HashMap::new(),
            hot_threshold: 2,
            ledger_ops: 0,
            events_dropped: 0,
        }
    }

    /// Cumulative fair-share ledger mutations since creation.
    pub fn ledger_ops(&self) -> u64 {
        self.ledger_ops
    }

    /// In-flight channel messages destroyed by guest teardown so far.
    pub fn events_dropped(&self) -> u64 {
        self.events_dropped
    }

    /// Samples the VMM's cumulative statistics into a telemetry registry
    /// under the `vmm.*` namespace. Idempotent (uses `counter_set`);
    /// purely observational.
    pub fn export_telemetry(&self, reg: &mut hetero_sim::telemetry::Registry) {
        reg.counter_set("vmm.ledger.ops", self.ledger_ops);
        reg.counter_set("vmm.events.dropped", self.events_dropped);
        reg.counter_set("vmm.guests", self.guests.len() as u64);
        let (mut scans, mut frames, mut tracked) = (0u64, 0u64, 0u64);
        for e in self.guests.values() {
            scans += e.tracker.total_scans();
            frames += e.tracker.total_scanned_frames();
            tracked += e.tracker.tracked_pages() as u64;
        }
        reg.counter_set("vmm.scan.passes", scans);
        reg.counter_set("vmm.scan.frames", frames);
        reg.counter_set("vmm.scan.tracked_pages", tracked);
        for (kind, label) in [(MemKind::Fast, "fast"), (MemKind::Slow, "slow")] {
            let total = self.machine.total_frames(kind);
            if total > 0 {
                reg.gauge_set(
                    &format!("vmm.machine.free_fraction.{label}"),
                    self.machine.free_frames(kind) as f64 / total as f64,
                );
            }
        }
    }

    /// Overrides the hot-page threshold used by newly registered guests'
    /// trackers.
    pub fn set_hot_threshold(&mut self, threshold: u32) {
        self.hot_threshold = threshold;
    }

    /// Machine view (read-only).
    pub fn machine(&self) -> &MachineMemory {
        &self.machine
    }

    /// Registers a guest and backs its reserved minimum with machine frames.
    ///
    /// # Errors
    ///
    /// Returns [`VmmError::DuplicateGuest`] or
    /// [`VmmError::InsufficientMachineMemory`].
    pub fn register_guest(&mut self, id: GuestId, spec: GuestSpec) -> Result<(), VmmError> {
        if self.guests.contains_key(&id) {
            return Err(VmmError::DuplicateGuest(id));
        }
        let mut frames: KindMap<Vec<Mfn>> = KindMap::default();
        for (k, &m) in spec.min.iter() {
            if m == 0 {
                continue;
            }
            match self.machine.alloc_frames(k, m) {
                Ok(v) => frames[k] = v,
                Err(_) => {
                    // Roll back tiers already taken.
                    for (kk, taken) in frames.iter() {
                        if !taken.is_empty() {
                            self.machine.free_frames_bulk(kk, taken.iter().copied());
                        }
                    }
                    return Err(VmmError::InsufficientMachineMemory(k));
                }
            }
        }
        self.fair.register(id, spec.min);
        self.ledger_ops += 1;
        self.guests.insert(
            id,
            GuestEntry {
                spec,
                ring: SharedRing::new(64),
                tracker: HotnessTracker::new(self.hot_threshold),
                tracking: Vec::new(),
                exceptions: Vec::new(),
                frames,
                pending_back: VecDeque::new(),
            },
        );
        Ok(())
    }

    /// Unregisters a guest (shutdown or crash): every frame backing it goes
    /// back to the machine and its share is forgotten. Returns the pages
    /// that were reclaimed per tier. In-flight conversation state dies with
    /// the guest — unanswered ring messages in both directions and parked
    /// `pending_back` retries — and is counted into
    /// [`Vmm::events_dropped`] rather than vanishing silently.
    ///
    /// # Errors
    ///
    /// Returns [`VmmError::UnknownGuest`] for unregistered ids.
    pub fn unregister_guest(&mut self, id: GuestId) -> Result<KindMap<u64>, VmmError> {
        let entry = self.guests.remove(&id).ok_or(VmmError::UnknownGuest(id))?;
        self.events_dropped += entry.ring.front_pending() as u64
            + entry.ring.back_pending() as u64
            + entry.pending_back.len() as u64;
        let mut reclaimed = KindMap::default();
        for (kind, frames) in entry.frames.iter() {
            reclaimed[kind] = frames.len() as u64;
            if !frames.is_empty() {
                self.machine.free_frames_bulk(kind, frames.iter().copied());
            }
        }
        self.fair.unregister(id);
        self.ledger_ops += 1;
        Ok(reclaimed)
    }

    /// Ids of every registered guest, in ascending order.
    pub fn guest_ids(&self) -> Vec<GuestId> {
        let mut ids: Vec<GuestId> = self.guests.keys().copied().collect();
        ids.sort();
        ids
    }

    /// Machine frames currently backing a guest on a tier (invariant-audit
    /// input; must equal the fair-share ledger's grant).
    ///
    /// # Errors
    ///
    /// Returns [`VmmError::UnknownGuest`] for unregistered ids.
    pub fn backing_frames(&self, id: GuestId, kind: MemKind) -> Result<u64, VmmError> {
        self.guests
            .get(&id)
            .map(|e| e.frames[kind].len() as u64)
            .ok_or(VmmError::UnknownGuest(id))
    }

    /// Responses waiting for space on a guest's back ring.
    ///
    /// # Errors
    ///
    /// Returns [`VmmError::UnknownGuest`] for unregistered ids.
    pub fn pending_responses(&self, id: GuestId) -> Result<usize, VmmError> {
        self.guests
            .get(&id)
            .map(|e| e.pending_back.len())
            .ok_or(VmmError::UnknownGuest(id))
    }

    /// Pages currently granted to a guest per tier.
    ///
    /// # Errors
    ///
    /// Returns [`VmmError::UnknownGuest`] for unregistered ids.
    pub fn granted(&self, id: GuestId) -> Result<KindMap<u64>, VmmError> {
        if !self.guests.contains_key(&id) {
            return Err(VmmError::UnknownGuest(id));
        }
        Ok(self.fair.allocated(id))
    }

    fn clamp_to_max(&self, id: GuestId, kind: MemKind, pages: u64) -> u64 {
        let entry = &self.guests[&id];
        let held = self.fair.allocated(id)[kind];
        pages.min(entry.spec.max[kind].saturating_sub(held))
    }

    /// On-demand back-end: requests `pages` of `kind` for a guest. The
    /// request is clamped to the guest's per-type maximum; under contention
    /// a reclaim plan is returned instead of pages; if `fallback` is given,
    /// unmet demand is retried on the fallback tier.
    ///
    /// # Errors
    ///
    /// Returns [`VmmError::UnknownGuest`] for unregistered ids, and
    /// [`VmmError::LedgerInconsistent`] if grant bookkeeping is corrupt
    /// (the grant is refused rather than aborting the process).
    pub fn request_memory(
        &mut self,
        id: GuestId,
        kind: MemKind,
        pages: u64,
        fallback: Option<MemKind>,
    ) -> Result<MemoryGrant, VmmError> {
        if !self.guests.contains_key(&id) {
            return Err(VmmError::UnknownGuest(id));
        }
        let mut grant = MemoryGrant {
            granted: KindMap::default(),
            reclaim_plan: Vec::new(),
        };
        let want = self.clamp_to_max(id, kind, pages);
        let got = self.try_grant(id, kind, want, &mut grant.reclaim_plan)?;
        grant.granted[kind] = got;
        let unmet = pages - got.min(pages);
        if unmet > 0 {
            if let Some(fb) = fallback.filter(|&fb| fb != kind) {
                let want_fb = self.clamp_to_max(id, fb, unmet);
                let got_fb = self.try_grant(id, fb, want_fb, &mut grant.reclaim_plan)?;
                grant.granted[fb] = got_fb;
            }
        }
        Ok(grant)
    }

    fn try_grant(
        &mut self,
        id: GuestId,
        kind: MemKind,
        pages: u64,
        plan: &mut Vec<(GuestId, MemKind, u64)>,
    ) -> Result<u64, VmmError> {
        if pages == 0 {
            return Ok(0);
        }
        // Grant as much as fits immediately (partial grants are fine).
        let immediate = pages.min(self.fair.free(kind));
        if immediate > 0 {
            let mut d = KindMap::default();
            d[kind] = immediate;
            self.ledger_ops += 1;
            match self.fair.request(id, d) {
                Grant::Granted => match self.machine.alloc_frames(kind, immediate) {
                    Ok(mfns) => {
                        self.guests.get_mut(&id).expect("registered").frames[kind].extend(mfns);
                    }
                    Err(_) => {
                        // The share ledger said the pages were free but the
                        // machine disagrees. Undo the ledger movement and
                        // surface the inconsistency instead of aborting.
                        self.fair.release(id, kind, immediate);
                        self.ledger_ops += 1;
                        return Err(VmmError::LedgerInconsistent(id, kind));
                    }
                },
                // free() said it fits, yet the ledger refused: corrupt.
                _ => return Err(VmmError::LedgerInconsistent(id, kind)),
            }
        }
        let remaining = pages - immediate;
        if remaining > 0 {
            let mut d = KindMap::default();
            d[kind] = remaining;
            self.ledger_ops += 1;
            match self.fair.request(id, d) {
                // Capacity was exhausted a moment ago: corrupt ledger.
                Grant::Granted => return Err(VmmError::LedgerInconsistent(id, kind)),
                Grant::NeedsReclaim(p) => plan.extend(p),
                Grant::Denied => {}
            }
        }
        Ok(immediate)
    }

    /// Confirms a balloon reclaim: `pages` of `kind` returned by `donor`
    /// (after its kernel actually inflated). Frees the machine frames.
    ///
    /// # Errors
    ///
    /// Returns [`VmmError::UnknownGuest`] for unregistered ids and
    /// [`VmmError::InvalidReclaim`] when the acknowledgement names more
    /// pages than the donor holds above its floor (a stale or duplicated
    /// ack over a lossy channel) — nothing is mutated in that case.
    pub fn confirm_reclaim(
        &mut self,
        donor: GuestId,
        kind: MemKind,
        pages: u64,
    ) -> Result<(), VmmError> {
        let entry = self
            .guests
            .get_mut(&donor)
            .ok_or(VmmError::UnknownGuest(donor))?;
        if !self.fair.can_reclaim(donor, kind, pages) || (entry.frames[kind].len() as u64) < pages {
            return Err(VmmError::InvalidReclaim(donor, kind));
        }
        self.fair.reclaim(donor, kind, pages);
        self.ledger_ops += 1;
        for _ in 0..pages {
            let mfn = entry.frames[kind].pop().expect("length checked above");
            self.machine.free_frame(kind, mfn);
        }
        Ok(())
    }

    /// A guest voluntarily returns pages (balloon-driver release of
    /// on-demand pages under pressure, §3.1).
    ///
    /// # Errors
    ///
    /// Returns [`VmmError::UnknownGuest`] for unregistered ids and
    /// [`VmmError::InvalidReclaim`] when the guest does not hold that many
    /// pages — nothing is mutated in that case.
    pub fn release_memory(
        &mut self,
        id: GuestId,
        kind: MemKind,
        pages: u64,
    ) -> Result<(), VmmError> {
        let entry = self.guests.get_mut(&id).ok_or(VmmError::UnknownGuest(id))?;
        if !self.fair.can_release(id, kind, pages) || (entry.frames[kind].len() as u64) < pages {
            return Err(VmmError::InvalidReclaim(id, kind));
        }
        self.fair.release(id, kind, pages);
        self.ledger_ops += 1;
        for _ in 0..pages {
            let mfn = entry.frames[kind].pop().expect("length checked above");
            self.machine.free_frame(kind, mfn);
        }
        Ok(())
    }

    /// The guest-side ring of a guest.
    ///
    /// # Errors
    ///
    /// Returns [`VmmError::UnknownGuest`] for unregistered ids.
    pub fn ring_mut(&mut self, id: GuestId) -> Result<&mut SharedRing, VmmError> {
        self.guests
            .get_mut(&id)
            .map(|e| &mut e.ring)
            .ok_or(VmmError::UnknownGuest(id))
    }

    /// Posts a response on a guest's back ring, queueing it when the ring
    /// is full so it is retried at the next pump rather than dropped.
    fn respond(entry: &mut GuestEntry, msg: BackMsg) {
        if let Err(crate::channel::RingFull) = entry.ring.post_back(msg.clone()) {
            entry.pending_back.push_back(msg);
        }
    }

    /// Retries responses that previously found the back ring full, in
    /// arrival order, stopping at the first that still does not fit.
    fn flush_pending_back(entry: &mut GuestEntry) {
        while let Some(msg) = entry.pending_back.front() {
            if entry.ring.post_back(msg.clone()).is_err() {
                break;
            }
            entry.pending_back.pop_front();
        }
    }

    /// Back-end message pump: drains a guest's pending requests, updating
    /// tracking/exception lists and answering on-demand requests with
    /// grants. Responses that find the back ring full are queued and
    /// retried at the next pump, never dropped. Returns the number of
    /// messages processed.
    ///
    /// # Errors
    ///
    /// Returns [`VmmError::UnknownGuest`] for unregistered ids, and
    /// propagates grant-path errors ([`VmmError::LedgerInconsistent`],
    /// [`VmmError::InvalidReclaim`]).
    pub fn process_guest_requests(&mut self, id: GuestId) -> Result<usize, VmmError> {
        if !self.guests.contains_key(&id) {
            return Err(VmmError::UnknownGuest(id));
        }
        Self::flush_pending_back(self.guests.get_mut(&id).expect("checked"));
        let mut handled = 0;
        while let Some(msg) = self.guests.get_mut(&id).expect("checked").ring.poll_front() {
            handled += 1;
            match msg {
                FrontMsg::OnDemand {
                    kind,
                    pages,
                    fallback,
                } => {
                    let grant = self.request_memory(id, kind, pages, fallback)?;
                    let entry = self.guests.get_mut(&id).expect("checked");
                    for (k, &n) in grant.granted.iter() {
                        if n > 0 {
                            Self::respond(entry, BackMsg::Grant { kind: k, pages: n });
                        }
                    }
                    for (donor, k, n) in grant.reclaim_plan {
                        if let Some(d) = self.guests.get_mut(&donor) {
                            Self::respond(d, BackMsg::BalloonRequest { kind: k, pages: n });
                        }
                    }
                }
                FrontMsg::TrackingList(ranges) => {
                    self.guests.get_mut(&id).expect("checked").tracking = ranges;
                }
                FrontMsg::ExceptionList(types) => {
                    self.guests.get_mut(&id).expect("checked").exceptions = types;
                }
                FrontMsg::MigrationDone(_) => {}
                FrontMsg::BalloonAck { kind, pages } => {
                    self.confirm_reclaim(id, kind, pages)?;
                }
            }
        }
        Ok(handled)
    }

    /// Runs one hotness scan for a guest. `coordinated` selects the
    /// guest-guided tracked scan (tracking + exception lists) versus the
    /// VMM-exclusive full scan.
    ///
    /// # Errors
    ///
    /// Returns [`VmmError::UnknownGuest`] for unregistered ids.
    pub fn scan_guest(
        &mut self,
        id: GuestId,
        kernel: &GuestKernel,
        oracle: &mut dyn TouchOracle,
        batch: u64,
        coordinated: bool,
    ) -> Result<ScanOutcome, VmmError> {
        let entry = self.guests.get_mut(&id).ok_or(VmmError::UnknownGuest(id))?;
        let outcome = if coordinated {
            entry
                .tracker
                .scan_tracked(kernel, &entry.tracking, &entry.exceptions, oracle, batch)
        } else {
            entry.tracker.scan_full(kernel, oracle, batch)
        };
        Ok(outcome)
    }

    /// Clears a guest's hotness history (phase change).
    ///
    /// # Errors
    ///
    /// Returns [`VmmError::UnknownGuest`] for unregistered ids.
    pub fn reset_tracker(&mut self, id: GuestId) -> Result<(), VmmError> {
        self.guests
            .get_mut(&id)
            .map(|e| e.tracker.reset())
            .ok_or(VmmError::UnknownGuest(id))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetero_mem::ThrottleConfig;

    fn machine(fast_pages: u64, slow_pages: u64) -> MachineMemory {
        MachineMemory::builder()
            .fast_mem(fast_pages * 4096, ThrottleConfig::fast_mem())
            .slow_mem(slow_pages * 4096, ThrottleConfig::slow_mem_default())
            .build()
    }

    fn spec(min_f: u64, max_f: u64, min_s: u64, max_s: u64) -> GuestSpec {
        let mut s = GuestSpec::default();
        s.min[MemKind::Fast] = min_f;
        s.max[MemKind::Fast] = max_f;
        s.min[MemKind::Slow] = min_s;
        s.max[MemKind::Slow] = max_s;
        s
    }

    #[test]
    fn register_backs_minimum_with_frames() {
        let mut vmm = Vmm::new(machine(100, 100), SharePolicy::paper_drf());
        vmm.register_guest(GuestId(0), spec(30, 60, 0, 100))
            .unwrap();
        assert_eq!(vmm.machine().free_frames(MemKind::Fast), 70);
        assert_eq!(vmm.granted(GuestId(0)).unwrap()[MemKind::Fast], 30);
    }

    #[test]
    fn duplicate_and_unknown_guests_error() {
        let mut vmm = Vmm::new(machine(10, 10), SharePolicy::paper_drf());
        vmm.register_guest(GuestId(1), GuestSpec::default())
            .unwrap();
        assert_eq!(
            vmm.register_guest(GuestId(1), GuestSpec::default()),
            Err(VmmError::DuplicateGuest(GuestId(1)))
        );
        assert_eq!(
            vmm.granted(GuestId(9)),
            Err(VmmError::UnknownGuest(GuestId(9)))
        );
    }

    #[test]
    fn insufficient_machine_memory_rolls_back() {
        let mut vmm = Vmm::new(machine(10, 10), SharePolicy::paper_drf());
        let err = vmm.register_guest(GuestId(0), spec(5, 5, 20, 20));
        assert_eq!(err, Err(VmmError::InsufficientMachineMemory(MemKind::Slow)));
        // The Fast frames taken before the failure came back.
        assert_eq!(vmm.machine().free_frames(MemKind::Fast), 10);
    }

    #[test]
    fn request_clamps_to_guest_max() {
        let mut vmm = Vmm::new(machine(100, 100), SharePolicy::paper_drf());
        vmm.register_guest(GuestId(0), spec(0, 20, 0, 100)).unwrap();
        let g = vmm
            .request_memory(GuestId(0), MemKind::Fast, 50, None)
            .unwrap();
        assert_eq!(g.granted[MemKind::Fast], 20);
        assert!(g.reclaim_plan.is_empty());
    }

    #[test]
    fn fallback_tier_covers_unmet_demand() {
        let mut vmm = Vmm::new(machine(10, 100), SharePolicy::paper_drf());
        vmm.register_guest(GuestId(0), spec(0, 100, 0, 100))
            .unwrap();
        let g = vmm
            .request_memory(GuestId(0), MemKind::Fast, 30, Some(MemKind::Slow))
            .unwrap();
        assert_eq!(g.granted[MemKind::Fast], 10);
        assert_eq!(g.granted[MemKind::Slow], 20);
    }

    #[test]
    fn contention_produces_reclaim_plan_and_confirm_executes_it() {
        let mut vmm = Vmm::new(machine(100, 100), SharePolicy::paper_drf());
        vmm.register_guest(GuestId(0), spec(10, 100, 0, 100))
            .unwrap();
        vmm.register_guest(GuestId(1), spec(10, 100, 0, 100))
            .unwrap();
        // Guest 1 hoards FastMem.
        let g = vmm
            .request_memory(GuestId(1), MemKind::Fast, 80, None)
            .unwrap();
        assert_eq!(g.granted[MemKind::Fast], 80);
        // Guest 0 wants 30: none free → reclaim plan against guest 1.
        let g = vmm
            .request_memory(GuestId(0), MemKind::Fast, 30, None)
            .unwrap();
        assert_eq!(g.granted[MemKind::Fast], 0);
        assert_eq!(g.reclaim_plan, vec![(GuestId(1), MemKind::Fast, 30)]);
        vmm.confirm_reclaim(GuestId(1), MemKind::Fast, 30).unwrap();
        assert_eq!(vmm.granted(GuestId(1)).unwrap()[MemKind::Fast], 60);
        let g = vmm
            .request_memory(GuestId(0), MemKind::Fast, 30, None)
            .unwrap();
        assert_eq!(g.granted[MemKind::Fast], 30);
    }

    #[test]
    fn release_returns_frames_to_machine() {
        let mut vmm = Vmm::new(machine(50, 50), SharePolicy::paper_drf());
        vmm.register_guest(GuestId(0), spec(0, 50, 0, 50)).unwrap();
        vmm.request_memory(GuestId(0), MemKind::Fast, 25, None)
            .unwrap();
        assert_eq!(vmm.machine().free_frames(MemKind::Fast), 25);
        vmm.release_memory(GuestId(0), MemKind::Fast, 25).unwrap();
        assert_eq!(vmm.machine().free_frames(MemKind::Fast), 50);
    }

    #[test]
    fn unregister_returns_every_backing_frame() {
        let mut vmm = Vmm::new(machine(100, 100), SharePolicy::paper_drf());
        vmm.register_guest(GuestId(0), spec(10, 100, 5, 100))
            .unwrap();
        vmm.request_memory(GuestId(0), MemKind::Fast, 15, None)
            .unwrap();
        let reclaimed = vmm.unregister_guest(GuestId(0)).unwrap();
        assert_eq!(reclaimed[MemKind::Fast], 25);
        assert_eq!(reclaimed[MemKind::Slow], 5);
        assert_eq!(vmm.machine().free_frames(MemKind::Fast), 100);
        assert_eq!(vmm.machine().free_frames(MemKind::Slow), 100);
        assert!(vmm.guest_ids().is_empty());
        assert_eq!(
            vmm.unregister_guest(GuestId(0)),
            Err(VmmError::UnknownGuest(GuestId(0)))
        );
        // The id can be reused after a crash-restart.
        vmm.register_guest(GuestId(0), spec(10, 100, 5, 100))
            .unwrap();
        assert_eq!(vmm.granted(GuestId(0)).unwrap()[MemKind::Fast], 10);
    }

    #[test]
    fn full_back_ring_queues_responses_until_next_pump() {
        let mut vmm = Vmm::new(machine(100, 100), SharePolicy::paper_drf());
        vmm.register_guest(GuestId(0), spec(0, 100, 0, 100))
            .unwrap();
        {
            let ring = vmm.ring_mut(GuestId(0)).unwrap();
            while ring.post_back(BackMsg::HotPages(Vec::new())).is_ok() {}
            ring.post_front(FrontMsg::OnDemand {
                kind: MemKind::Fast,
                pages: 4,
                fallback: None,
            })
            .unwrap();
        }
        vmm.process_guest_requests(GuestId(0)).unwrap();
        // The grant itself succeeded; only its notification is parked.
        assert_eq!(vmm.granted(GuestId(0)).unwrap()[MemKind::Fast], 4);
        assert_eq!(vmm.pending_responses(GuestId(0)).unwrap(), 1);
        // Guest drains the jam; the next pump delivers the parked grant.
        {
            let ring = vmm.ring_mut(GuestId(0)).unwrap();
            while ring.back_pending() > 0 {
                ring.poll_back();
            }
        }
        vmm.process_guest_requests(GuestId(0)).unwrap();
        assert_eq!(vmm.pending_responses(GuestId(0)).unwrap(), 0);
        assert_eq!(
            vmm.ring_mut(GuestId(0)).unwrap().poll_back(),
            Some(BackMsg::Grant {
                kind: MemKind::Fast,
                pages: 4
            })
        );
    }

    #[test]
    fn crash_with_pending_responses_counts_dropped_events() {
        let mut vmm = Vmm::new(machine(100, 100), SharePolicy::paper_drf());
        vmm.register_guest(GuestId(0), spec(0, 100, 0, 100))
            .unwrap();
        assert_eq!(vmm.events_dropped(), 0);
        {
            let ring = vmm.ring_mut(GuestId(0)).unwrap();
            // Jam the back ring so the grant response parks in pending_back…
            while ring.post_back(BackMsg::HotPages(Vec::new())).is_ok() {}
            ring.post_front(FrontMsg::OnDemand {
                kind: MemKind::Fast,
                pages: 4,
                fallback: None,
            })
            .unwrap();
        }
        vmm.process_guest_requests(GuestId(0)).unwrap();
        assert_eq!(vmm.pending_responses(GuestId(0)).unwrap(), 1);
        let jammed = vmm.ring_mut(GuestId(0)).unwrap().back_pending() as u64;
        // …and leave one unprocessed request on the front ring too.
        vmm.ring_mut(GuestId(0))
            .unwrap()
            .post_front(FrontMsg::MigrationDone(7))
            .unwrap();
        // Crash: everything in flight dies with the guest, but is counted.
        vmm.unregister_guest(GuestId(0)).unwrap();
        assert_eq!(vmm.events_dropped(), jammed + 1 + 1);
        // A clean teardown with empty rings drops nothing further.
        vmm.register_guest(GuestId(1), spec(0, 10, 0, 10)).unwrap();
        let before = vmm.events_dropped();
        vmm.unregister_guest(GuestId(1)).unwrap();
        assert_eq!(vmm.events_dropped(), before);
    }

    #[test]
    fn stale_balloon_ack_is_an_error_not_an_abort() {
        let mut vmm = Vmm::new(machine(40, 40), SharePolicy::paper_drf());
        vmm.register_guest(GuestId(0), spec(0, 40, 0, 40)).unwrap();
        vmm.request_memory(GuestId(0), MemKind::Fast, 10, None)
            .unwrap();
        // An ack for more pages than the guest holds (duplicated or stale).
        assert_eq!(
            vmm.confirm_reclaim(GuestId(0), MemKind::Fast, 50),
            Err(VmmError::InvalidReclaim(GuestId(0), MemKind::Fast))
        );
        // Nothing was mutated by the refused ack.
        assert_eq!(vmm.granted(GuestId(0)).unwrap()[MemKind::Fast], 10);
        assert_eq!(vmm.machine().free_frames(MemKind::Fast), 30);
        assert_eq!(
            vmm.release_memory(GuestId(0), MemKind::Fast, 11),
            Err(VmmError::InvalidReclaim(GuestId(0), MemKind::Fast))
        );
    }

    #[test]
    fn ring_pump_answers_on_demand_requests() {
        let mut vmm = Vmm::new(machine(40, 40), SharePolicy::paper_drf());
        vmm.register_guest(GuestId(0), spec(0, 40, 0, 40)).unwrap();
        vmm.ring_mut(GuestId(0))
            .unwrap()
            .post_front(FrontMsg::OnDemand {
                kind: MemKind::Fast,
                pages: 8,
                fallback: None,
            })
            .unwrap();
        let handled = vmm.process_guest_requests(GuestId(0)).unwrap();
        assert_eq!(handled, 1);
        let resp = vmm.ring_mut(GuestId(0)).unwrap().poll_back();
        assert_eq!(
            resp,
            Some(BackMsg::Grant {
                kind: MemKind::Fast,
                pages: 8
            })
        );
    }

    #[test]
    fn ring_pump_updates_tracking_lists_and_scans_coordinated() {
        let mut vmm = Vmm::new(machine(64, 256), SharePolicy::paper_drf());
        vmm.register_guest(GuestId(0), GuestSpec::default())
            .unwrap();
        let mut kernel = GuestKernel::new(hetero_guest::GuestConfig {
            frames: vec![(MemKind::Fast, 64), (MemKind::Slow, 256)],
            cpus: 1,
            page_size: 4096,
        });
        let (vma, _) = kernel
            .mmap_heap(8, std::iter::repeat(200), &[MemKind::Slow])
            .unwrap();
        let ring = vmm.ring_mut(GuestId(0)).unwrap();
        ring.post_front(FrontMsg::TrackingList(vec![(vma.start, vma.end())]))
            .unwrap();
        ring.post_front(FrontMsg::ExceptionList(vec![PageType::PageCache]))
            .unwrap();
        vmm.process_guest_requests(GuestId(0)).unwrap();
        let mut always = |_: &hetero_guest::page::Page| true;
        // Threshold 2 (default): two scans to become hot.
        vmm.scan_guest(GuestId(0), &kernel, &mut always, 1 << 20, true)
            .unwrap();
        let out = vmm
            .scan_guest(GuestId(0), &kernel, &mut always, 1 << 20, true)
            .unwrap();
        assert_eq!(out.scanned, 8);
        assert_eq!(out.hot_candidates.len(), 8);
    }

    #[test]
    fn balloon_ack_message_confirms_reclaim() {
        let mut vmm = Vmm::new(machine(40, 40), SharePolicy::paper_drf());
        vmm.register_guest(GuestId(0), spec(0, 40, 0, 40)).unwrap();
        vmm.request_memory(GuestId(0), MemKind::Fast, 20, None)
            .unwrap();
        vmm.ring_mut(GuestId(0))
            .unwrap()
            .post_front(FrontMsg::BalloonAck {
                kind: MemKind::Fast,
                pages: 20,
            })
            .unwrap();
        vmm.process_guest_requests(GuestId(0)).unwrap();
        assert_eq!(vmm.granted(GuestId(0)).unwrap()[MemKind::Fast], 0);
        assert_eq!(vmm.machine().free_frames(MemKind::Fast), 40);
    }
}
