//! Multi-VM co-execution with fair heterogeneous-memory sharing (Fig 13).
//!
//! Runs several guests on one machine: the VMs interleave in simulated time,
//! share the memory channels, and compete for FastMem/SlowMem through the
//! VMM's fair-share ledger — weighted DRF (Algorithm 1) or the max-min
//! baseline. Memory moves between guests via balloon inflation/deflation;
//! a guest squeezed below its footprint swaps (and pays for it), which is
//! exactly the failure mode the paper demonstrates for single-resource
//! max-min in §5.5.
//!
//! The per-host mechanics — ledger, VM slots, growth/release, the event
//! heap — live in [`FleetCore`], shared between this single-host engine and
//! the rack-scale [`crate::cluster::Cluster`], whose hosts each own one
//! `FleetCore` and step it independently.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use hetero_faults::{audit_fair_share, AuditLevel, Violation};
use hetero_guest::GuestKernel;
use hetero_mem::kind::KindMap;
use hetero_mem::MemKind;
use hetero_sim::runner::Runner;
use hetero_sim::Nanos;
use hetero_vmm::drf::{FairShare, Grant, GuestId};
use hetero_vmm::SharePolicy;
use hetero_workloads::{AppWorkload, WorkloadSpec};

use crate::config::{SchedMode, SimConfig};
use crate::engine::SingleVmSim;
use crate::metrics::RunReport;
use crate::policy::Policy;

/// One guest VM's contract and workload.
#[derive(Debug, Clone)]
pub struct VmSetup {
    /// The application it runs.
    pub spec: WorkloadSpec,
    /// Reserved minimum bytes per tier (never reclaimed under DRF).
    pub min_bytes: KindMap<u64>,
    /// Balloonable maximum bytes per tier.
    pub max_bytes: KindMap<u64>,
}

impl VmSetup {
    /// Builds the paper's `<w_f * fast, w_s * slow>` style reservation:
    /// `fast`/`slow` reserved minima, growable to `max_fast`/`max_slow`.
    pub fn new(spec: WorkloadSpec, fast: u64, slow: u64, max_fast: u64, max_slow: u64) -> Self {
        let mut min_bytes = KindMap::default();
        min_bytes[MemKind::Fast] = fast;
        min_bytes[MemKind::Slow] = slow;
        let mut max_bytes = KindMap::default();
        max_bytes[MemKind::Fast] = max_fast;
        max_bytes[MemKind::Slow] = max_slow;
        VmSetup {
            spec,
            min_bytes,
            max_bytes,
        }
    }

    /// Adds a Medium-tier reservation (`min` reserved, growable to `max`)
    /// for three-tier hosts.
    pub fn with_medium(mut self, min: u64, max: u64) -> Self {
        self.min_bytes[MemKind::Medium] = min;
        self.max_bytes[MemKind::Medium] = max;
        self
    }
}

/// Growth request chunk (simulated pages).
const GROW_CHUNK: u64 = 256;
/// Free-fraction threshold below which a guest asks the VMM for more.
const GROW_THRESHOLD: f64 = 0.04;

/// Every tier a grant can cover, fastest first. Both the single-host fleet
/// and the cluster iterate this — never a hard-coded `[Fast, Slow]` pair,
/// which is how Medium-tier grants used to leak on VM finish (they were
/// neither returned by `release_surplus` nor growable under pressure).
pub(crate) fn grant_kinds() -> [MemKind; 3] {
    MemKind::ALL
}

/// Bytes → simulated pages for tier `kind`. Fast and Slow floor at one
/// page — a machine or guest always has *some* of each, mirroring
/// `SimConfig::guest_frames_fast`/`_slow` — while Medium is genuinely
/// optional and maps zero bytes to zero pages.
pub(crate) fn tier_pages(cfg: &SimConfig, kind: MemKind, bytes: u64) -> u64 {
    let pages = bytes / cfg.scale / cfg.page_size;
    match kind {
        MemKind::Medium => pages,
        MemKind::Fast | MemKind::Slow => pages.max(1),
    }
}

/// The machine's tier sizes in simulated pages — the conservation target a
/// host's fair-share ledger is audited against.
pub(crate) fn machine_totals(cfg: &SimConfig) -> KindMap<u64> {
    KindMap::from_fn(|k| match k {
        MemKind::Fast => tier_pages(cfg, k, cfg.fast_bytes),
        MemKind::Medium => tier_pages(cfg, k, cfg.medium_bytes),
        MemKind::Slow => tier_pages(cfg, k, cfg.slow_bytes),
    })
}

/// One booted guest and its scheduling state.
pub(crate) struct VmState {
    pub(crate) id: GuestId,
    pub(crate) sim: SingleVmSim<AppWorkload>,
    pub(crate) min: KindMap<u64>,
    pub(crate) done: bool,
    /// Host-relative arrival offset: the co-scheduling key is
    /// `offset + sim.now()`, so a VM admitted mid-run sorts after the
    /// fleet's past. Zero for single-host fleets (all VMs boot at t=0).
    pub(crate) offset: Nanos,
    /// Fraction of resident pages re-dirtied per pre-copy round during an
    /// inter-host live migration — derived from the workload's write
    /// intensity and hot fraction at boot.
    pub(crate) dirty_rate: f64,
}

impl VmState {
    /// Builds and boot-balloons one guest: its frame space is its maximum
    /// reservation per tier, pages beyond the granted minimum start
    /// ballooned out, and its RNG stream derives from `seed_index` alone —
    /// the result is a pure function of the descriptor, safe to build on
    /// any [`Runner`] worker thread.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn boot(
        cfg: &SimConfig,
        policy: Policy,
        bw_share: f64,
        id: GuestId,
        seed_index: u64,
        setup: &VmSetup,
        min: KindMap<u64>,
        offset: Nanos,
    ) -> VmState {
        let vm_cfg = cfg
            .clone()
            .with_fast_bytes(setup.max_bytes[MemKind::Fast].max(cfg.page_size * cfg.scale))
            .with_slow_bytes(setup.max_bytes[MemKind::Slow].max(cfg.page_size * cfg.scale))
            .with_medium_bytes(setup.max_bytes[MemKind::Medium])
            .with_seed(cfg.seed.wrapping_add(seed_index.wrapping_mul(7919)));
        let workload = AppWorkload::new(setup.spec.clone(), cfg.page_size, cfg.scale);
        let mut sim = SingleVmSim::new(vm_cfg, policy, workload);
        sim.set_bandwidth_share(bw_share);
        for k in grant_kinds() {
            let max_pages = tier_pages(cfg, k, setup.max_bytes[k]);
            let ballooned = max_pages.saturating_sub(min[k]);
            let yielded = sim.yield_pages(k, ballooned);
            debug_assert_eq!(yielded, ballooned, "boot balloon must succeed");
        }
        let spec = &setup.spec;
        let dirty_rate = (spec.write_fraction.clamp(0.0, 1.0)
            * spec.hot_page_fraction.clamp(0.0, 1.0))
        .clamp(0.05, 0.75);
        VmState {
            id,
            sim,
            min,
            done: false,
            offset,
            dirty_rate,
        }
    }

    /// The co-scheduling key: host-relative simulated time.
    pub(crate) fn host_now(&self) -> Nanos {
        self.offset + self.sim.now()
    }
}

/// The per-host fleet mechanics: one fair-share ledger, the VM slots it
/// arbitrates, and the machine tier totals it conserves. `MultiVmSim`
/// wraps exactly one of these; a `Cluster` owns one per host, which is
/// what lets hosts step on separate [`Runner`] threads without sharing
/// ledger state.
pub(crate) struct FleetCore {
    pub(crate) fair: FairShare,
    pub(crate) vms: Vec<VmState>,
    /// Machine tier sizes (simulated pages) — the conservation target the
    /// fair-share ledger is audited against.
    pub(crate) totals: KindMap<u64>,
    /// Pages finished guests could not balloon back (pinned slab/net-buf
    /// residue of short yields). They stay granted — the ledger must keep
    /// agreeing with the kernels that own them — but are surfaced here
    /// rather than silently leaking from the free pool.
    pub(crate) stranded: u64,
}

impl FleetCore {
    pub(crate) fn new(share: SharePolicy, totals: KindMap<u64>) -> Self {
        FleetCore {
            fair: FairShare::new(share, totals),
            vms: Vec::new(),
            totals,
            stranded: 0,
        }
    }

    /// Live (not finished) VM count.
    pub(crate) fn live(&self) -> usize {
        self.vms.iter().filter(|v| !v.done).count()
    }

    /// Advances VM `i` one epoch. Returns `false` once it has finished,
    /// after releasing its surplus grant so the survivors can grow into it.
    pub(crate) fn step_vm(&mut self, i: usize) -> bool {
        let recoveries = self.vms[i].sim.recoveries();
        let alive = self.vms[i].sim.step();
        if self.vms[i].sim.recoveries() != recoveries {
            self.reconcile_reboot(i);
        }
        if !alive {
            self.vms[i].done = true;
            self.release_surplus(i);
            false
        } else {
            self.grow_if_pressured(i);
            true
        }
    }

    /// Re-inflates a guest's balloon after a crash-recovery reboot.
    ///
    /// [`SingleVmSim::recover`] builds a fresh kernel with its full tier
    /// reservations and an empty balloon — correct for a standalone VM,
    /// but in a fleet the fair-share ledger survived the crash (the
    /// memory never left the host), so the rebooted kernel must be
    /// squeezed back down to its granted allocation before the next
    /// audit compares the two.
    fn reconcile_reboot(&mut self, i: usize) {
        let alloc = self.fair.allocated(self.vms[i].id);
        for k in grant_kinds() {
            let vm = &mut self.vms[i];
            let owned = vm.sim.kernel().total_frames(k) - vm.sim.kernel().ballooned_pages(k);
            if owned > alloc[k] {
                vm.sim.yield_pages(k, owned - alloc[k]);
            }
        }
    }

    /// Dense co-scheduling: each step advances the live VM furthest behind
    /// in simulated time. Finished VMs leave the live-index list outright
    /// instead of being re-filtered on every step, so a mostly-done fleet
    /// scans only its stragglers. `live` stays in ascending index order,
    /// making the first minimum the lowest-index VM among ties — the same
    /// choice the full filtered scan made.
    pub(crate) fn drive_dense(&mut self, audited: bool, violations: &mut Vec<Violation>) {
        let mut live: Vec<usize> = (0..self.vms.len()).collect();
        while !live.is_empty() {
            let pos = live
                .iter()
                .enumerate()
                .min_by_key(|&(_, &i)| self.vms[i].sim.now())
                .map(|(p, _)| p)
                .expect("live is non-empty");
            let i = live[pos];
            if !self.step_vm(i) {
                live.remove(pos);
            }
            if audited {
                self.audit_ledger(violations);
            }
        }
    }

    /// Event co-scheduling: a min-heap keyed `(now, index)` replaces the
    /// per-step scan, so selecting the next VM costs `O(log live)` instead
    /// of `O(fleet)`. Keys go stale when a *donor*'s clock advances while
    /// it balloons pages to a neighbour; since clocks only move forward, a
    /// stale key always pops **early**, never late, and is lazily re-keyed
    /// at its true time. Every entry's key is therefore a lower bound on
    /// its VM's clock, so the first *verified* pop is exactly the dense
    /// scan's first minimum (lowest index among time ties — `Reverse`
    /// orders `(t, i)` tuples lexicographically). Finished VMs simply
    /// never re-enter the heap.
    pub(crate) fn drive_event(&mut self, audited: bool, violations: &mut Vec<Violation>) {
        let mut heap: BinaryHeap<Reverse<(Nanos, usize)>> = (0..self.vms.len())
            .map(|i| Reverse((self.vms[i].sim.now(), i)))
            .collect();
        while let Some(Reverse((t, i))) = heap.pop() {
            let now = self.vms[i].sim.now();
            if t != now {
                heap.push(Reverse((now, i)));
                continue;
            }
            if self.step_vm(i) {
                heap.push(Reverse((self.vms[i].sim.now(), i)));
            }
            if audited {
                self.audit_ledger(violations);
            }
        }
    }

    /// Bounded event co-scheduling for cluster rounds: advances every live
    /// VM whose host-relative clock sits before `deadline`, soonest first
    /// (lowest index among ties), with the same lazy re-keying as
    /// [`FleetCore::drive_event`]. Returns epochs stepped. Keys use
    /// [`VmState::host_now`] so a VM admitted mid-run sorts after the
    /// host's past rather than starving the incumbents.
    pub(crate) fn step_until(
        &mut self,
        deadline: Nanos,
        audited: bool,
        violations: &mut Vec<Violation>,
    ) -> u64 {
        let mut heap: BinaryHeap<Reverse<(Nanos, usize)>> = self
            .vms
            .iter()
            .enumerate()
            .filter(|(_, v)| !v.done)
            .map(|(i, v)| Reverse((v.host_now(), i)))
            .collect();
        let mut epochs = 0;
        while let Some(Reverse((t, i))) = heap.pop() {
            let now = self.vms[i].host_now();
            if t != now {
                heap.push(Reverse((now, i)));
                continue;
            }
            if t >= deadline {
                break;
            }
            epochs += 1;
            if self.step_vm(i) {
                heap.push(Reverse((self.vms[i].host_now(), i)));
            }
            if audited {
                self.audit_ledger(violations);
            }
        }
        epochs
    }

    /// One pass of the machine-level conservation audit: per-guest grants
    /// vs. what each kernel owns, and grants + free pool vs. tier totals.
    pub(crate) fn audit_ledger(&self, out: &mut Vec<Violation>) {
        let guests: Vec<(GuestId, &GuestKernel)> =
            self.vms.iter().map(|v| (v.id, v.sim.kernel())).collect();
        out.extend(audit_fair_share(&self.fair, &guests, &self.totals));
    }

    /// A finished VM returns everything above its minimum so others can
    /// use it — on *every* tier it holds grants on.
    ///
    /// When a yield comes back short (the guest's remaining pages are
    /// pinned slab/net-buf objects the balloon cannot take and the swap
    /// path cannot evict), the un-yielded residue **stays granted**: the
    /// guest's kernel still owns those frames, so releasing the grant
    /// anyway would desynchronize ledger from kernel and trip
    /// `audit_fair_share`'s guest-view check. The residue is counted in
    /// [`FleetCore::stranded`], returned to the caller, and the
    /// ledger/kernel agreement is asserted per tier so a partial yield can
    /// never drift the audit.
    pub(crate) fn release_surplus(&mut self, i: usize) -> u64 {
        let id = self.vms[i].id;
        let mut residue = 0;
        for k in grant_kinds() {
            let held = self.fair.allocated(id)[k];
            let extra = held.saturating_sub(self.vms[i].min[k]);
            if extra > 0 {
                let yielded = self.vms[i].sim.yield_pages(k, extra);
                debug_assert!(yielded <= extra, "guest ballooned more than asked");
                let returned = yielded.min(extra);
                self.fair.release(id, k, returned);
                residue += extra - returned;
                // Reconcile: grant and kernel ownership must agree on this
                // tier even after a partial yield.
                debug_assert_eq!(
                    self.fair.allocated(id)[k],
                    self.vms[i].sim.kernel().total_frames(k)
                        - self.vms[i].sim.kernel().ballooned_pages(k),
                    "ledger/kernel drift on {k} after releasing {returned} of {extra}",
                );
            }
        }
        self.stranded += residue;
        residue
    }

    pub(crate) fn grow_if_pressured(&mut self, i: usize) {
        for kind in grant_kinds() {
            let wants_kind = match kind {
                MemKind::Fast => self.vms[i].sim.policy() != Policy::SlowMemOnly,
                _ => true,
            };
            if !wants_kind || self.vms[i].sim.kernel().total_frames(kind) == 0 {
                continue;
            }
            let swapped = self.vms[i].sim.swapped_pages();
            let pressured = self.vms[i].sim.kernel().free_fraction(kind) < GROW_THRESHOLD
                || (kind == MemKind::Slow && swapped > 0);
            if !pressured {
                continue;
            }
            // A swapping guest asks for its real deficit, not a polite sip
            // — this is what lets a memory-hungry VM balloon a neighbour
            // all the way down under max-min (§5.5).
            let want = if kind == MemKind::Slow {
                GROW_CHUNK.max(swapped)
            } else {
                GROW_CHUNK
            };
            self.request_pages(i, kind, want);
        }
    }

    pub(crate) fn request_pages(&mut self, i: usize, kind: MemKind, pages: u64) {
        let id = self.vms[i].id;
        // Clamp to what the guest can still deflate.
        let ballooned = self.vms[i].sim.kernel().ballooned_pages(kind);
        let want = pages.min(ballooned);
        if want == 0 {
            return;
        }
        let mut demand = KindMap::default();
        demand[kind] = want;
        match self.fair.request(id, demand) {
            Grant::Granted => {
                self.vms[i].sim.accept_pages(kind, want);
            }
            Grant::NeedsReclaim(plan) => {
                let mut reclaimed_total = 0;
                for (donor, k, n) in plan {
                    let di = self
                        .vms
                        .iter()
                        .position(|v| v.id == donor)
                        .expect("donor registered");
                    let got = self.vms[di].sim.yield_pages(k, n);
                    if got > 0 {
                        self.fair.reclaim(donor, k, got);
                        reclaimed_total += got;
                    }
                }
                if reclaimed_total > 0 {
                    let grant = want.min(reclaimed_total);
                    let mut d = KindMap::default();
                    d[kind] = grant;
                    if matches!(self.fair.request(id, d), Grant::Granted) {
                        self.vms[i].sim.accept_pages(kind, grant);
                    }
                }
            }
            Grant::Denied => {}
        }
    }
}

/// The multi-VM engine.
pub struct MultiVmSim {
    cfg: SimConfig,
    core: FleetCore,
    /// Ledger-audit violations accumulated by step-driven runs (see
    /// [`MultiVmSim::step_fleet`]); drained by `into_results`.
    violations: Vec<Violation>,
}

impl MultiVmSim {
    /// Builds a co-execution: the machine has `cfg.fast_bytes` /
    /// `cfg.slow_bytes` (and optionally `cfg.medium_bytes`) total; each VM
    /// boots with its reserved minimum usable (the rest of its maximum
    /// ballooned out) and runs `policy`.
    ///
    /// # Panics
    ///
    /// Panics if the reserved minima oversubscribe the machine.
    pub fn new(cfg: SimConfig, share: SharePolicy, policy: Policy, setups: Vec<VmSetup>) -> Self {
        MultiVmSim::new_with_jobs(cfg, share, policy, setups, 1)
    }

    /// As [`MultiVmSim::new`], building and boot-ballooning the guests on
    /// `jobs` worker threads.
    ///
    /// Registration with the fair-share ledger stays sequential in setup
    /// order — it is shared state. Everything after it is VM-local: each
    /// guest derives its RNG stream from its own descriptor seed, builds
    /// its kernel against its own maximum reservation, and inflates its
    /// boot balloon without touching the ledger. The [`Runner`]'s
    /// descriptor-order merge therefore makes the fleet byte-identical for
    /// any thread count.
    ///
    /// # Panics
    ///
    /// Panics if the reserved minima oversubscribe the machine.
    pub fn new_with_jobs(
        cfg: SimConfig,
        share: SharePolicy,
        policy: Policy,
        setups: Vec<VmSetup>,
        jobs: usize,
    ) -> Self {
        let totals = machine_totals(&cfg);
        let mut core = FleetCore::new(share, totals);
        let bw_share = 1.0 / setups.len().max(1) as f64;
        let mins: Vec<KindMap<u64>> = setups
            .iter()
            .map(|s| KindMap::from_fn(|k| tier_pages(&cfg, k, s.min_bytes[k]).min(totals[k])))
            .collect();
        for (i, min) in mins.iter().enumerate() {
            core.fair.register(GuestId(i as u32), *min);
        }
        let items: Vec<(usize, VmSetup, KindMap<u64>)> = setups
            .into_iter()
            .zip(mins)
            .enumerate()
            .map(|(i, (s, m))| (i, s, m))
            .collect();
        let cfg_ref = &cfg;
        core.vms = Runner::new(jobs).run(items, |(i, setup, min)| {
            VmState::boot(
                cfg_ref,
                policy,
                bw_share,
                GuestId(i as u32),
                i as u64,
                &setup,
                min,
                Nanos::ZERO,
            )
        });
        MultiVmSim {
            cfg,
            core,
            violations: Vec::new(),
        }
    }

    /// Runs every VM to completion, co-scheduled by simulated time, and
    /// returns their reports in setup order.
    ///
    /// # Panics
    ///
    /// With an explicit `SimConfig::audit` level set, panics if the run
    /// produced any violation — in the fair-share ledger or inside any
    /// guest's own sanitizer. Use [`MultiVmSim::run_audited`] to inspect
    /// violations without panicking.
    pub fn run(self) -> Vec<RunReport> {
        let audit = self.cfg.audit;
        let (reports, violations) = self.run_audited();
        if audit != AuditLevel::Off && !violations.is_empty() {
            let mut msg = format!(
                "invariant sanitizer ({} level) found {} violation(s) in multi-VM run:",
                audit,
                violations.len(),
            );
            for v in &violations {
                msg.push_str("\n  - ");
                msg.push_str(&v.to_string());
            }
            panic!("{msg}");
        }
        reports
    }

    /// As [`MultiVmSim::run`], additionally returning every violation found
    /// (always empty when `SimConfig::audit` is `Off`): the machine-level
    /// ledger conservation checks run after each scheduling step, followed
    /// by each guest's own collected violations.
    pub fn run_audited(mut self) -> (Vec<RunReport>, Vec<Violation>) {
        let audited = self.cfg.audit.is_enabled();
        let mut violations = std::mem::take(&mut self.violations);
        match self.cfg.sched {
            SchedMode::Dense => self.core.drive_dense(audited, &mut violations),
            SchedMode::Event => self.core.drive_event(audited, &mut violations),
        }
        let reports = self.core.vms.iter().map(|v| v.sim.report()).collect();
        for vm in &self.core.vms {
            violations.extend_from_slice(vm.sim.violations());
        }
        (reports, violations)
    }

    /// Total simulated time of the longest-running VM, or `None` for an
    /// empty report set.
    ///
    /// Returning `Option` (rather than the old `Nanos::ZERO`) keeps the
    /// degenerate case out of downstream ratio helpers: a zero makespan
    /// fed into `RunReport::gain_percent_vs`-style comparisons reads as a
    /// *real* instantaneous runtime and silently produces 0% gains, which
    /// is indistinguishable from "no improvement".
    pub fn makespan(reports: &[RunReport]) -> Option<Nanos> {
        reports.iter().map(|r| r.runtime).max()
    }

    /// Convenience accessor for the shared configuration.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// Pages finished guests could not balloon back (pinned residue of
    /// short yields) — still granted, still owned by their kernels, but
    /// unavailable to survivors. See [`FleetCore::release_surplus`].
    pub fn stranded_pages(&self) -> u64 {
        self.core.stranded
    }
}


impl MultiVmSim {
    /// One scheduling step of the fleet: advances the live VM furthest
    /// behind in simulated time (ties to the lowest index) by one epoch —
    /// the dense scheduler's selection rule, which the event scheduler
    /// provably matches. Returns `false` once every VM has finished.
    ///
    /// This is the checkpointable driver: a loop over `step_fleet`
    /// produces the same fleet as [`MultiVmSim::run`], and the fleet can
    /// be [saved](MultiVmSim::save) between any two steps. Ledger-audit
    /// violations accumulate internally and come back from
    /// [`MultiVmSim::into_results`].
    pub fn step_fleet(&mut self) -> bool {
        let audited = self.cfg.audit.is_enabled();
        let Some(i) = (0..self.core.vms.len())
            .filter(|&i| !self.core.vms[i].done)
            .min_by_key(|&i| self.core.vms[i].sim.now())
        else {
            return false;
        };
        self.core.step_vm(i);
        if audited {
            let mut violations = std::mem::take(&mut self.violations);
            self.core.audit_ledger(&mut violations);
            self.violations = violations;
        }
        true
    }

    /// Reports in setup order plus every violation found — the surface
    /// [`MultiVmSim::run_audited`] returns, for step-driven
    /// (checkpointable) runs.
    pub fn into_results(mut self) -> (Vec<RunReport>, Vec<Violation>) {
        let reports = self.core.vms.iter().map(|v| v.sim.report()).collect();
        let mut violations = std::mem::take(&mut self.violations);
        for vm in &self.core.vms {
            violations.extend_from_slice(vm.sim.violations());
        }
        (reports, violations)
    }

    /// Serializes the complete fleet — configuration, fair-share ledger,
    /// every VM engine and the accumulated violations — under a
    /// [`LAYER_FLEET`](crate::snapshot::LAYER_FLEET) header.
    pub fn save(&self) -> Vec<u8> {
        use hetero_sim::snap::Snap;
        let mut w = hetero_sim::snap::SnapWriter::new();
        hetero_sim::snap::write_header(&mut w, crate::snapshot::LAYER_FLEET);
        self.cfg.snap(&mut w);
        self.core.snap(&mut w);
        self.violations.snap(&mut w);
        w.into_bytes()
    }

    /// Rebuilds a fleet from [`MultiVmSim::save`] bytes; the resumed run
    /// continues byte-identically. Fails loudly on a bad magic, version
    /// or layer, on truncation, and on trailing bytes.
    pub fn restore(bytes: &[u8]) -> Result<Self, hetero_sim::snap::SnapshotError> {
        use hetero_sim::snap::Snap;
        let mut r = hetero_sim::snap::SnapReader::new(bytes);
        hetero_sim::snap::read_header(&mut r, crate::snapshot::LAYER_FLEET)?;
        let fleet = MultiVmSim {
            cfg: Snap::unsnap(&mut r)?,
            core: Snap::unsnap(&mut r)?,
            violations: Snap::unsnap(&mut r)?,
        };
        r.finish()?;
        Ok(fleet)
    }
}

hetero_sim::impl_snap!(struct VmSetup { spec, min_bytes, max_bytes });

hetero_sim::impl_snap!(struct VmState { id, sim, min, done, offset, dirty_rate });

hetero_sim::impl_snap!(struct FleetCore { fair, vms, totals, stranded });

#[cfg(test)]
mod tests {
    use super::*;
    use hetero_workloads::apps;
    use hetero_workloads::{AccessMix, Footprint};

    const GB: u64 = 1 << 30;
    const MB: u64 = 1 << 20;

    fn quick(spec: WorkloadSpec) -> WorkloadSpec {
        let mut s = spec;
        s.total_instructions /= 10;
        s
    }

    fn host_cfg() -> SimConfig {
        SimConfig::paper_default()
            .with_fast_bytes(4 * GB)
            .with_slow_bytes(8 * GB)
            .with_seed(11)
    }

    fn paper_setups() -> Vec<VmSetup> {
        vec![
            // Graphchi VM: <2*1GB fast, 1*2.5GB slow>, growable.
            VmSetup::new(quick(apps::graphchi()), GB, 5 * GB / 2, 2 * GB, 6 * GB),
            // Metis VM: <2*3GB fast, 1*2.5GB slow>, memory-hungry.
            VmSetup::new(quick(apps::metis()), 3 * GB, 5 * GB / 2, 4 * GB, 8 * GB),
        ]
    }

    #[test]
    fn both_vms_complete_under_drf() {
        let sim = MultiVmSim::new(
            host_cfg(),
            SharePolicy::paper_drf(),
            Policy::HeteroCoordinated,
            paper_setups(),
        );
        let reports = sim.run();
        assert_eq!(reports.len(), 2);
        for r in &reports {
            assert!(r.epochs > 0, "{} never ran", r.app);
            assert!(!r.runtime.is_zero());
        }
    }

    #[test]
    fn contention_slows_vms_down_vs_solo() {
        let cfg = host_cfg();
        // Solo reference: the VM's *maximum* reservation with the whole
        // memory bandwidth to itself — sharing can never beat this.
        let solo = crate::engine::run_app(
            &cfg.clone().with_fast_bytes(2 * GB).with_slow_bytes(6 * GB),
            Policy::HeteroCoordinated,
            quick(apps::graphchi()),
        );
        let reports = MultiVmSim::new(
            cfg,
            SharePolicy::paper_drf(),
            Policy::HeteroCoordinated,
            paper_setups(),
        )
        .run();
        let shared = &reports[0];
        assert_eq!(shared.app, "Graphchi");
        assert!(
            shared.runtime >= solo.runtime,
            "sharing must cost something: shared {} vs solo {}",
            shared.runtime,
            solo.runtime
        );
    }

    #[test]
    fn drf_protects_the_low_share_vm_better_than_maxmin() {
        let drf = MultiVmSim::new(
            host_cfg(),
            SharePolicy::paper_drf(),
            Policy::HeteroCoordinated,
            paper_setups(),
        )
        .run();
        let maxmin = MultiVmSim::new(
            host_cfg(),
            SharePolicy::MaxMin,
            Policy::HeteroCoordinated,
            paper_setups(),
        )
        .run();
        // Graphchi (the low-dominant-share VM) should do no materially
        // worse under DRF (quick-mode runs carry some noise; the full
        // separation is shown by the Fig 13 experiment).
        assert!(
            drf[0].runtime <= maxmin[0].runtime.mul_f64(1.1),
            "DRF {} vs max-min {}",
            drf[0].runtime,
            maxmin[0].runtime
        );
    }

    #[test]
    fn makespan_is_the_longest_runtime() {
        let reports = MultiVmSim::new(
            host_cfg(),
            SharePolicy::paper_drf(),
            Policy::HeteroLru,
            paper_setups(),
        )
        .run();
        let m = MultiVmSim::makespan(&reports).expect("two reports");
        assert!(reports.iter().all(|r| r.runtime <= m));
        assert!(reports.iter().any(|r| r.runtime == m));
    }

    #[test]
    fn makespan_of_nothing_is_none() {
        assert_eq!(MultiVmSim::makespan(&[]), None);
    }

    #[test]
    fn dense_and_event_schedulers_are_byte_identical() {
        let run = |sched: SchedMode| {
            MultiVmSim::new(
                host_cfg().with_sched(sched),
                SharePolicy::paper_drf(),
                Policy::HeteroCoordinated,
                paper_setups(),
            )
            .run()
        };
        let dense = run(SchedMode::Dense);
        let event = run(SchedMode::Event);
        assert_eq!(dense.len(), event.len());
        for (d, e) in dense.iter().zip(event.iter()) {
            assert_eq!(d.to_json(), e.to_json(), "schedulers must not diverge");
        }
    }

    #[test]
    fn parallel_boot_matches_sequential_boot() {
        let boot = |jobs: usize| {
            MultiVmSim::new_with_jobs(
                host_cfg(),
                SharePolicy::paper_drf(),
                Policy::HeteroCoordinated,
                paper_setups(),
                jobs,
            )
            .run()
        };
        let seq = boot(1);
        let par = boot(4);
        for (a, b) in seq.iter().zip(par.iter()) {
            assert_eq!(a.to_json(), b.to_json(), "thread count must not perturb the fleet");
        }
    }

    #[test]
    fn audited_run_matches_unaudited_and_is_clean() {
        let plain = MultiVmSim::new(
            host_cfg(),
            SharePolicy::paper_drf(),
            Policy::HeteroCoordinated,
            paper_setups(),
        )
        .run();
        let (audited, violations) = MultiVmSim::new(
            host_cfg().with_audit(hetero_faults::AuditLevel::Epoch),
            SharePolicy::paper_drf(),
            Policy::HeteroCoordinated,
            paper_setups(),
        )
        .run_audited();
        assert_eq!(violations, Vec::new(), "multi-VM stack must audit clean");
        for (a, b) in plain.iter().zip(audited.iter()) {
            assert_eq!(a.to_json(), b.to_json(), "audit must not perturb runs");
        }
    }

    /// Regression for the `[Fast, Slow]` hard-coding: a finished VM's
    /// Medium-tier grant must come back to the free pool exactly like the
    /// other tiers (and be growable under pressure in the first place).
    #[test]
    fn finished_vm_returns_medium_grant() {
        let cfg = host_cfg().with_medium_bytes(2 * GB);
        let setups = vec![
            VmSetup::new(quick(apps::graphchi()), GB, 2 * GB, 2 * GB, 4 * GB)
                .with_medium(GB / 2, GB),
            VmSetup::new(quick(apps::metis()), GB, 2 * GB, 2 * GB, 4 * GB)
                .with_medium(GB / 2, GB),
        ];
        let mut sim = MultiVmSim::new(
            cfg,
            SharePolicy::paper_drf(),
            Policy::HeteroCoordinated,
            setups,
        );
        let id = sim.core.vms[0].id;
        let min_med = sim.core.vms[0].min[MemKind::Medium];
        assert!(min_med > 0, "three-tier setup must register a Medium minimum");
        // Grow vm0's Medium grant above its reserved minimum through the
        // ledger path the fleet itself uses...
        sim.core.request_pages(0, MemKind::Medium, 64);
        let grown = sim.core.fair.allocated(id)[MemKind::Medium];
        assert!(grown > min_med, "Medium grant must be growable ({grown} vs {min_med})");
        // ...then finish it: the surplus must return to the free pool.
        sim.core.vms[0].done = true;
        sim.core.release_surplus(0);
        assert_eq!(
            sim.core.fair.allocated(id)[MemKind::Medium],
            min_med,
            "finished VM must return its Medium surplus"
        );
        let mut violations = Vec::new();
        sim.core.audit_ledger(&mut violations);
        assert_eq!(violations, Vec::new(), "ledger must audit clean after release");
    }

    /// A spec whose footprint is dominated by pinned slab objects: the
    /// balloon cannot take resident slab pages and the swap path only
    /// evicts anonymous heap, so a finished VM's yield comes back short.
    fn slab_pinned_spec() -> WorkloadSpec {
        WorkloadSpec {
            name: "SlabPinned",
            mpki: 5.0,
            cpi_base: 1.0,
            mlp: 2.0,
            threads: 1.0,
            clock_ghz: 2.67,
            total_instructions: 2_000_000_000,
            instructions_per_epoch: 50_000_000,
            footprint: Footprint {
                heap: 16 * MB,
                page_cache: 0,
                buffer_cache: 0,
                slab: 400 * MB,
                net_buf: 0,
            },
            access_mix: AccessMix {
                heap: 0.2,
                page_cache: 0.0,
                buffer_cache: 0.0,
                slab: 0.8,
                net_buf: 0.0,
            },
            hot_wss_bytes: 32 * MB,
            hot_access_fraction: 0.8,
            hot_page_fraction: 0.25,
            fresh_hot_fraction: 0.5,
            write_fraction: 0.3,
            heap_churn_per_sec: 0.0,
            io_churn_per_sec: 0.0,
            kernel_buf_churn_per_sec: 0.0,
            ramp_fraction: 0.5,
        }
    }

    /// Regression for the short-yield residue: when a finished VM cannot
    /// balloon its full surplus back, the un-yielded pages stay granted
    /// (they are still frame-backed in the guest), the ledger keeps
    /// agreeing with the kernel, and the residue is counted as stranded
    /// instead of silently leaking from the free pool.
    #[test]
    fn short_yield_leaves_ledger_consistent() {
        let cfg = SimConfig::paper_default()
            .with_fast_bytes(2 * GB)
            .with_slow_bytes(4 * GB)
            .with_seed(11);
        let setups = vec![VmSetup::new(
            slab_pinned_spec(),
            32 * MB,
            64 * MB,
            GB,
            2 * GB,
        )];
        let mut sim = MultiVmSim::new(
            cfg,
            SharePolicy::MaxMin,
            Policy::HeteroCoordinated,
            setups,
        );
        let mut violations = Vec::new();
        sim.core.drive_event(false, &mut violations);
        let vm = &sim.core.vms[0];
        assert!(vm.done, "workload must run to completion");
        assert!(
            sim.core.stranded > 0,
            "slab-pinned surplus must come back short and be counted"
        );
        // The residue stays granted *and* frame-backed: ledger == kernel
        // ownership on every tier.
        let alloc = sim.core.fair.allocated(vm.id);
        for k in grant_kinds() {
            let owned =
                vm.sim.kernel().total_frames(k) - vm.sim.kernel().ballooned_pages(k);
            assert_eq!(alloc[k], owned, "ledger/kernel drift on {k}");
        }
        assert!(
            alloc.total() > vm.min.total(),
            "the stranded residue should sit above the reserved minimum"
        );
        sim.core.audit_ledger(&mut violations);
        assert_eq!(violations, Vec::new(), "short yield must not drift the audit");
    }
}
