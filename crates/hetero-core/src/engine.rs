//! The single-VM simulation engine.
//!
//! Drives one guest kernel under one [`Policy`] against one workload,
//! epoch by epoch:
//!
//! 1. apply the epoch's page operations (frees/releases, then allocations,
//!    each placed by the policy's tier preference),
//! 2. price the epoch's wall time from placement: LLC-modelled misses split
//!    across tiers by heat-weighted residency, latency plus bandwidth
//!    dilation (fixed-point),
//! 3. run the policy's management machinery — statistics windows, LRU aging
//!    and watermark demotion, hotness scans, migrations — charging every
//!    scan, TLB flush, page walk and page copy at Table 6 / Fig 8 rates.
//!
//! The result is a [`RunReport`]; slowdowns and gains come from comparing
//! reports across policies, exactly as the paper compares runs.

use hetero_faults::{AuditLevel, EpochCosts, FaultInjector, FaultKind, Sanitizer, Violation};
use hetero_guest::kernel::{AllocFailed, GuestConfig, MigrateError};
use hetero_guest::page::{Gfn, Page, PageFlags, PageType, RMap};
use hetero_guest::pagecache::FileId;
use hetero_guest::{GuestKernel, SlabClass};
use hetero_mem::{MemKind, NodeParams, PersistDomain};
use hetero_sim::telemetry::{SpanId, Telemetry};
use hetero_sim::{Clock, CostCategory, EventKind, EventLog, Nanos, SimRng};
use hetero_workloads::spec::{EpochDemand, Workload};
use hetero_workloads::AppWorkload;

use crate::adaptive::IntervalController;
use crate::config::{SchedMode, SimConfig};
use crate::eventq::{EngineEvent, EventQueue};
use crate::metrics::RunReport;
use crate::policy::{Policy, Tracking};
use hetero_vmm::hotness::ScanOutcome;
use hetero_vmm::HotnessTracker;

/// A tier-preference chain (small, copyable — avoids borrowing the engine
/// while the kernel is borrowed mutably). Equality lets the bulk dispatch
/// run-length-group consecutive allocations with the same placement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct TierChain {
    kinds: [MemKind; 3],
    len: u8,
}

impl TierChain {
    fn new(kinds: &[MemKind]) -> Self {
        let mut arr = [MemKind::Slow; 3];
        arr[..kinds.len()].copy_from_slice(kinds);
        TierChain {
            kinds: arr,
            len: kinds.len() as u8,
        }
    }

    fn as_slice(&self) -> &[MemKind] {
        &self.kinds[..self.len as usize]
    }
}

/// File identity used for page-cache traffic.
const CACHE_FILE: FileId = FileId(1);
/// File identity used for buffer-cache traffic.
const BUFFER_FILE: FileId = FileId(2);
/// skbuff objects per network-buffer page (512 B objects in 4 KiB pages).
const NETBUF_OBJS_PER_PAGE: u64 = 8;
/// fs-metadata objects per slab page (256 B objects in 4 KiB pages).
const SLAB_OBJS_PER_PAGE: u64 = 16;
/// Fraction of NUMA-preferred allocations that land CPU-locally on the
/// SlowMem node (first-touch locality noise of stock NUMA management).
const NUMA_LOCAL_NOISE: f64 = 0.3;
/// Per-page bookkeeping cost of LRU aging.
const LRU_AGE_COST: Nanos = Nanos::from_nanos(150);
/// Slack (fraction of the resident target) that lazily reclaimed I/O pages
/// may occupy before the reclaim storm fires (§3.3's lazy baseline).
const LAZY_RECLAIM_SLACK: f64 = 0.25;
/// Disk service time for swapping one *simulated* page in (multi-VM
/// overcommit only — single-VM runs never swap).
const SWAP_SERVICE: Nanos = Nanos::from_micros(100);
/// Write heat above which an NVM-resident page counts as continuously
/// re-dirtied for the persistence domain: its stores outrun any write-behind
/// flusher, so it never ages clean. Matches the `> 50` write-hot threshold
/// `assign_heap_write_heats` assigns (read-mostly pages get `heat / 8 ≤ 31`).
const PERSIST_WRITE_HOT: u8 = 50;

/// One application run in progress.
pub struct SingleVmSim<W: Workload = AppWorkload> {
    cfg: SimConfig,
    policy: Policy,
    workload: W,
    kernel: GuestKernel,
    rng: SimRng,
    clock: Clock,
    tracker: HotnessTracker,
    /// Reused scan-outcome buffers (hot/cold candidate vectors keep their
    /// capacity across the run's scans instead of reallocating).
    scan_scratch: ScanOutcome,
    interval: IntervalController,
    next_scan: Nanos,
    next_window: Nanos,
    prioritized: Option<PageType>,
    fast_params: NodeParams,
    slow_params: NodeParams,
    medium_params: Option<NodeParams>,
    /// Fastest-first chain over the configured tiers.
    chain_fast_first: TierChain,
    /// Slow-only chain (no FastMem preference).
    chain_slow_only: TierChain,
    /// Slowest-first chain (lazy placement).
    chain_slow_first: TierChain,
    // Live-object registries (identities stable across migration).
    heap_chunks: std::collections::VecDeque<(u64, u64)>,
    /// Hot heap pages in allocation order (as virtual pages — stable across
    /// migration). Cooling pops from the front: the *oldest* hot data goes
    /// cold first, preserving the allocation-recency ↔ hotness correlation
    /// that makes on-demand placement effective (§2.2 Observation 3).
    hot_vpns: std::collections::VecDeque<u64>,
    /// Next instant the guest LRU may run a demotion batch.
    next_demote: Nanos,
    /// Pages the previous guest-assisted scan (guided or A/D) actually
    /// migrated (drives the yield-aware interval backoff).
    last_scan_yield: u64,
    /// Resume cursor (virtual page) for batched A/D harvest sweeps
    /// ([`Tracking::AccessBit`]): the next sweep continues where the last
    /// one ran out of budget, wrapping over the tracked ranges.
    ab_cursor: u64,
    /// Harvest buffer for A/D sweeps (`(gfn, accessed, dirty)` per
    /// visited mapped PTE), reused across scans. It holds the last sweep's
    /// harvest until the next sweep clears it, and is snapshotted with it.
    ab_harvest: Vec<(Gfn, bool, bool)>,
    cache_next: u64,
    cache_live: std::collections::VecDeque<u64>,
    cache_lazy: std::collections::VecDeque<u64>,
    buffer_next: u64,
    buffer_live: std::collections::VecDeque<u64>,
    buffer_lazy: std::collections::VecDeque<u64>,
    // Accumulators.
    misses_total: f64,
    epoch_misses: f64,
    /// Store misses served by the slow tier (endurance proxy, §4.3).
    slow_writes: f64,
    /// Heap pages pushed to disk by balloon pressure (multi-VM overcommit).
    swapped_heap: u64,
    /// Fraction of each node's bandwidth available to this VM (shared-host
    /// contention in multi-VM runs).
    bw_share: f64,
    scans: u64,
    scanned_pages: u64,
    epochs: u64,
    done: bool,
    /// Optional trace of what the run did (see `SimConfig::trace_events`).
    events: Option<EventLog>,
    /// Optional metrics/span sink (see `SimConfig::telemetry`). Purely
    /// observational: it never draws randomness or charges simulated time,
    /// so enabling it cannot change a run's results.
    telemetry: Option<Telemetry>,
    /// Optional deterministic fault injector (see `set_fault_injector`).
    injector: Option<FaultInjector>,
    /// FastMem is treated as unavailable this epoch (injected allocation
    /// failure): placement degrades to the slower tiers instead of failing.
    degraded: bool,
    /// Throttle multiplier from an active injected latency storm.
    storm_factor: f64,
    /// Invariant violations found by the per-step sanitizer.
    violations: Vec<Violation>,
    /// The layered sanitizer, present when `SimConfig::audit` is not
    /// `Off`. Observational only: it never draws randomness, charges the
    /// clock, or mutates guest state.
    sanitizer: Option<Sanitizer>,
    /// The engine's own running tally of migrations it successfully
    /// requested (every `charge_migration` call site). The sanitizer's
    /// differential oracle demands this equals `kernel.migrations` after
    /// every epoch — the engine may never charge for a migration the
    /// kernel didn't perform, nor the kernel move a page unbilled.
    migrations_tallied: u64,
    /// NVM persistence domain tracking per-frame flush state
    /// (`SimConfig::persist`). `None` when the flush policy is `Off`: in
    /// that mode the engine draws no extra randomness, charges no flush
    /// traffic and emits no persistence telemetry, so every export stays
    /// byte-identical to a build without the subsystem.
    persist: Option<PersistDomain>,
    /// Deadline-ordered timer queue driving [`SchedMode::Event`] dispatch.
    /// Unused (empty, zero-cost) under [`SchedMode::Dense`].
    timerq: EventQueue,
    /// Epochs whose management point had nothing due and no cold-ledger
    /// pressure, so the whole management phase was skipped.
    epochs_skipped: u64,
    /// Pages deactivated by LRU aging across the run (lazy cold-ledger
    /// walks and dense fallbacks both count here).
    aging_touches: u64,
    /// Scratch: frames of the most recent heap chunk, in VPN order
    /// (capacity reused across epochs).
    heap_gfns: Vec<Gfn>,
    /// Crash injected at the top of this epoch, consumed by `step` before
    /// any guest work runs.
    pending_crash: Option<FaultKind>,
    /// Crash→recover cycles performed so far.
    recoveries: u64,
    /// Frames reconstructed from surviving NVM across all recoveries.
    recovered_frames: u64,
    /// Frames lost to crashes: volatile-tier residents plus torn NVM writes.
    lost_frames: u64,
}

impl<W: Workload> SingleVmSim<W> {
    /// Prepares a run. The guest's tier reservations come from `cfg`;
    /// `FastMem-only` gets an effectively unlimited fast tier.
    pub fn new(cfg: SimConfig, policy: Policy, workload: W) -> Self {
        let medium_frames = match policy {
            Policy::FastMemOnly => 0,
            _ => cfg.guest_frames_medium(),
        };
        let mut kernel = GuestKernel::new(Self::guest_config(&cfg, policy));
        // The cold-page ledger lets LRU aging walk only the active lists
        // (and lets event dispatch prove an epoch's aging is a no-op)
        // instead of recounting the heap densely every epoch.
        kernel.configure_cold_ledger(cfg.lru_cold_heat);
        // A named device profile resolves each populated tier's latency and
        // read/write bandwidth from the registry; otherwise the Table-3
        // throttle factors apply (with the optional `nvm_slow` store
        // asymmetry). A three-tier profile's medium spec is only consulted
        // when `medium_bytes` actually populates the tier; a two-tier
        // profile under a three-tier capacity config keeps the throttle-
        // derived medium parameters.
        let profile_spec = cfg.tier_profile.map(hetero_mem::TierProfile::spec);
        let fast_params = match &profile_spec {
            Some(spec) => spec.fast.node_params(MemKind::Fast, cfg.fast_bytes.max(1)),
            None => NodeParams::new(MemKind::Fast, cfg.fast_bytes.max(1), cfg.fast_throttle),
        };
        let slow_params = match &profile_spec {
            Some(spec) => spec.slow.node_params(MemKind::Slow, cfg.slow_bytes.max(1)),
            None if cfg.nvm_slow => {
                NodeParams::nvm_like(MemKind::Slow, cfg.slow_bytes.max(1), cfg.slow_throttle)
            }
            None => NodeParams::new(MemKind::Slow, cfg.slow_bytes.max(1), cfg.slow_throttle),
        };
        let medium_params = (medium_frames > 0).then(|| {
            match profile_spec.as_ref().and_then(|s| s.tier(MemKind::Medium)) {
                Some(spec) => spec.node_params(MemKind::Medium, cfg.medium_bytes.max(1)),
                None => {
                    NodeParams::new(MemKind::Medium, cfg.medium_bytes.max(1), cfg.medium_throttle)
                }
            }
        });
        let (chain_fast_first, chain_slow_only, chain_slow_first) = if medium_frames > 0 {
            (
                TierChain::new(&[MemKind::Fast, MemKind::Medium, MemKind::Slow]),
                TierChain::new(&[MemKind::Slow, MemKind::Medium]),
                TierChain::new(&[MemKind::Slow, MemKind::Medium, MemKind::Fast]),
            )
        } else {
            (
                TierChain::new(&[MemKind::Fast, MemKind::Slow]),
                TierChain::new(&[MemKind::Slow]),
                TierChain::new(&[MemKind::Slow, MemKind::Fast]),
            )
        };
        let interval = IntervalController::new(
            cfg.scan_interval,
            cfg.adaptive_bounds.0,
            cfg.adaptive_bounds.1,
        );
        let mut sim = SingleVmSim {
            rng: SimRng::seed_from(cfg.seed),
            clock: Clock::new(),
            // Threshold 1: a page is promotion-hot when its access bit was
            // found set on the last visit — HeteroVisor promotes on recent
            // reference, and batched sweeps visit each page rarely.
            tracker: HotnessTracker::new(1),
            scan_scratch: ScanOutcome::default(),
            interval,
            next_scan: cfg.scan_interval,
            next_window: cfg.stats_window,
            prioritized: None,
            fast_params,
            slow_params,
            medium_params,
            chain_fast_first,
            chain_slow_only,
            chain_slow_first,
            heap_chunks: Default::default(),
            hot_vpns: Default::default(),
            next_demote: Nanos::ZERO,
            last_scan_yield: u64::MAX,
            ab_cursor: 0,
            ab_harvest: Vec::new(),
            cache_next: 0,
            cache_live: Default::default(),
            cache_lazy: Default::default(),
            buffer_next: 0,
            buffer_live: Default::default(),
            buffer_lazy: Default::default(),
            misses_total: 0.0,
            epoch_misses: 0.0,
            slow_writes: 0.0,
            swapped_heap: 0,
            bw_share: 1.0,
            scans: 0,
            scanned_pages: 0,
            epochs: 0,
            done: false,
            events: (cfg.trace_events > 0).then(|| EventLog::new(cfg.trace_events)),
            telemetry: cfg.telemetry.then(Telemetry::new),
            injector: None,
            degraded: false,
            storm_factor: 1.0,
            violations: Vec::new(),
            sanitizer: {
                let level = cfg.audit;
                level.is_enabled().then(|| Sanitizer::new(level))
            },
            migrations_tallied: 0,
            persist: cfg
                .persist
                .is_enabled()
                .then(|| PersistDomain::new(cfg.persist)),
            timerq: EventQueue::new(),
            epochs_skipped: 0,
            aging_touches: 0,
            heap_gfns: Vec::new(),
            pending_crash: None,
            recoveries: 0,
            recovered_frames: 0,
            lost_frames: 0,
            kernel,
            workload,
            cfg,
            policy,
        };
        if sim.cfg.sched == SchedMode::Event {
            sim.arm_management_events();
        }
        sim
    }

    /// The guest's tier reservations for this config/policy pair — shared
    /// between initial boot ([`SingleVmSim::new`]) and the post-crash
    /// reboot in [`SingleVmSim::recover`], which must rebuild an identical
    /// (empty) kernel.
    fn guest_config(cfg: &SimConfig, policy: Policy) -> GuestConfig {
        let (fast_frames, slow_frames) = match policy {
            Policy::FastMemOnly => (
                cfg.guest_frames_fast() + cfg.guest_frames_slow() * 2,
                cfg.guest_frames_slow().min(64),
            ),
            _ => (cfg.guest_frames_fast(), cfg.guest_frames_slow()),
        };
        let medium_frames = match policy {
            Policy::FastMemOnly => 0,
            _ => cfg.guest_frames_medium(),
        };
        let mut frames = vec![(MemKind::Fast, fast_frames), (MemKind::Slow, slow_frames)];
        if medium_frames > 0 {
            frames.push((MemKind::Medium, medium_frames));
        }
        GuestConfig {
            frames,
            cpus: cfg.cpus,
            page_size: cfg.page_size,
        }
    }

    /// Read access to the guest kernel (tests, experiments).
    pub fn kernel(&self) -> &GuestKernel {
        &self.kernel
    }

    /// Simulated time so far.
    pub fn now(&self) -> Nanos {
        self.clock.now()
    }

    /// The policy driving this run.
    pub fn policy(&self) -> Policy {
        self.policy
    }

    /// Restricts this VM to a fraction of each node's bandwidth (multi-VM
    /// hosts share the memory channels).
    pub fn set_bandwidth_share(&mut self, share: f64) {
        self.bw_share = share.clamp(0.05, 1.0);
    }

    /// Heap pages currently on disk: swap-subsystem slots plus allocations
    /// that never found a frame under balloon pressure.
    pub fn swapped_pages(&self) -> u64 {
        self.kernel.swapped_pages() + self.swapped_heap
    }

    /// The run's event log, when tracing was enabled
    /// (`SimConfig::trace_events > 0`).
    pub fn events(&self) -> Option<&EventLog> {
        self.events.as_ref()
    }

    /// The run's telemetry sink (metrics registry + span trace), when
    /// enabled (`SimConfig::telemetry`).
    pub fn telemetry(&self) -> Option<&Telemetry> {
        self.telemetry.as_ref()
    }

    fn span_open(&mut self, label: &str) -> Option<SpanId> {
        let now = self.clock.now();
        self.telemetry.as_mut().map(|t| t.spans.open(label, now))
    }

    fn span_close(&mut self, id: Option<SpanId>) {
        if let Some(id) = id {
            let now = self.clock.now();
            if let Some(t) = self.telemetry.as_mut() {
                t.spans.close(id, now);
            }
        }
    }

    /// Arms deterministic fault injection for this run. The injector's
    /// decisions perturb allocation, throttling and migration; the engine
    /// responds by degrading placement rather than failing the step.
    pub fn set_fault_injector(&mut self, injector: FaultInjector) {
        self.injector = Some(injector);
    }

    /// The armed injector (its trace records everything that fired).
    pub fn fault_injector(&self) -> Option<&FaultInjector> {
        self.injector.as_ref()
    }

    /// Violations found by the invariant sanitizer. Empty unless
    /// `SimConfig::audit` enables it — and, if the stack is healthy, empty
    /// even then. Stepping manually only *collects* violations;
    /// [`SingleVmSim::run`] is what fails loudly on them.
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    fn trace(&mut self, kind: EventKind, detail: impl FnOnce() -> String) {
        if let Some(log) = self.events.as_mut() {
            log.emit(self.clock.now(), kind, detail());
        }
    }

    /// Balloon-back `n` pages of `kind` to the VMM, reclaiming in order of
    /// increasing pain: free pages, lingering I/O pages, then swapping cold
    /// heap pages to disk. Returns pages actually yielded.
    pub fn yield_pages(&mut self, kind: MemKind, n: u64) -> u64 {
        let mut got = self.kernel.balloon_inflate(kind, n);
        if got < n {
            self.force_reclaim_all();
            got += self.kernel.balloon_inflate(kind, n - got);
        }
        while got < n {
            // Swap out the coldest anonymous pages of this tier through the
            // guest swap subsystem (§4.2: the balloon "swap[s] pages to the
            // disk" once the LRU has nothing left to give).
            let victims = self.kernel.anon_lru_pages(kind, (n - got) as usize);
            if victims.is_empty() {
                break;
            }
            let mut count = 0;
            for gfn in victims {
                if self.kernel.swap_out(gfn) {
                    count += 1;
                }
            }
            if count == 0 {
                break;
            }
            self.trace(EventKind::Swap, || format!("swapped out {count} pages"));
            self.clock
                .charge(CostCategory::IoWait, SWAP_SERVICE.saturating_mul(count));
            got += self.kernel.balloon_inflate(kind, n - got);
        }
        got
    }

    /// Accepts `n` pages of `kind` granted by the VMM (balloon deflation).
    /// Swapped-out heap pages fault back in first.
    pub fn accept_pages(&mut self, kind: MemKind, n: u64) -> u64 {
        let freed = self.kernel.balloon_deflate(kind, n);
        if kind == MemKind::Slow && freed > 0 {
            // Fault swapped pages back in, then retire any unbacked
            // allocations that never got frames.
            let chain = self.chain_slow_first;
            let back = self.kernel.swap_in_any(freed, chain.as_slice());
            if back > 0 {
                self.trace(EventKind::Swap, || format!("swapped in {back} pages"));
                self.clock
                    .charge(CostCategory::IoWait, SWAP_SERVICE.saturating_mul(back));
            }
            let unbacked = self.swapped_heap.min(freed - back);
            self.swapped_heap -= unbacked;
        }
        freed
    }

    /// Charges externally imposed work against this VM's clock — e.g. the
    /// pre-copy dirty rounds of an inter-host live migration, priced by the
    /// host through [`hetero_mem::cost::CostModel::migration_cost`]. The
    /// charge advances simulated time *and* the cost attribution together,
    /// so the sanitizer's cost-conservation check stays exact.
    pub fn charge_external(&mut self, category: CostCategory, t: Nanos) {
        self.clock.charge(category, t);
    }

    // ------------------------------------------------------------ placement

    /// The chain with FastMem struck out — degraded-placement mode while an
    /// injected allocation failure is active.
    fn without_fast(chain: TierChain) -> TierChain {
        let kinds: Vec<MemKind> = chain
            .as_slice()
            .iter()
            .copied()
            .filter(|&k| k != MemKind::Fast)
            .collect();
        if kinds.is_empty() {
            TierChain::new(&[MemKind::Slow])
        } else {
            TierChain::new(&kinds)
        }
    }

    fn preference(&mut self, page_type: PageType) -> TierChain {
        let chain = match self.policy {
            Policy::SlowMemOnly => self.chain_slow_only,
            Policy::FastMemOnly => self.chain_fast_first,
            Policy::Random => {
                if self.rng.chance(0.5) {
                    self.chain_fast_first
                } else {
                    self.chain_slow_first
                }
            }
            Policy::NumaPreferred => {
                // Stock NUMA management: FastMem preferred, but first-touch
                // locality places a share of allocations on the node local
                // to the allocating CPU (§5.3 discusses how existing NUMA
                // policies mis-place under heterogeneity).
                if self.rng.chance(NUMA_LOCAL_NOISE) {
                    self.chain_slow_first
                } else {
                    self.chain_fast_first
                }
            }
            Policy::HeapOd => {
                if page_type == PageType::HeapAnon {
                    self.chain_fast_first
                } else {
                    self.chain_slow_only
                }
            }
            Policy::HeapIoSlabOd | Policy::HeteroLru | Policy::HeteroCoordinated => {
                // Demand-based prioritization (§3.2): while FastMem is
                // plentiful every subsystem may allocate there; once scarce,
                // only the subsystem with the highest windowed miss ratio
                // keeps FastMem preference.
                let scarce =
                    self.kernel.free_fraction(MemKind::Fast) < self.cfg.fast_low_watermark * 2.0;
                if !scarce {
                    self.chain_fast_first
                } else {
                    match self.prioritized {
                        // No signal yet: admit everyone and let the window
                        // discover the neediest type.
                        None => self.chain_fast_first,
                        Some(t) if t == page_type => self.chain_fast_first,
                        Some(_) => self.chain_slow_only,
                    }
                }
            }
            // HeteroVisor's lazy placement: the guest is heterogeneity
            // blind; pages land wherever the VMM backs them first (SlowMem
            // until pressure), and only migration moves them up (§5.2).
            Policy::VmmExclusive => self.chain_slow_first,
        };
        if self.degraded {
            Self::without_fast(chain)
        } else {
            chain
        }
    }

    // --------------------------------------------------------------- epochs

    /// Consults the armed injector at the top of an epoch: advances its
    /// step, refreshes the storm multiplier, and decides whether FastMem
    /// placement is degraded this epoch. Defenses are traced as
    /// [`EventKind::Fault`] events.
    fn begin_fault_step(&mut self) {
        let prev_storm = self.storm_factor;
        self.degraded = false;
        self.storm_factor = 1.0;
        let Some(inj) = self.injector.as_mut() else {
            return;
        };
        inj.begin_step();
        let storm = inj.storm_factor();
        let degraded = inj.fail_alloc(MemKind::Fast);
        let power_loss = inj.host_power_loss();
        let guest_crash = inj.crash_guest_persist();
        self.storm_factor = storm;
        self.degraded = degraded;
        // Power loss dominates when both crash kinds fire the same epoch:
        // the host going dark subsumes the guest dying.
        if power_loss {
            self.pending_crash = Some(FaultKind::HostPowerLoss);
        } else if guest_crash {
            self.pending_crash = Some(FaultKind::GuestCrashPersist);
        }
        if degraded {
            self.trace(EventKind::Fault, || {
                "FastMem allocation failed; placement degraded to slower tiers".to_string()
            });
        }
        if storm > 1.0 && (prev_storm - storm).abs() > f64::EPSILON {
            self.trace(EventKind::Fault, || {
                format!("latency storm x{storm:.2} began")
            });
        }
    }

    /// Runs one epoch. Returns `false` when the workload completed.
    pub fn step(&mut self) -> bool {
        if self.done {
            return false;
        }
        self.begin_fault_step();
        if let Some(kind) = self.pending_crash.take() {
            self.recover(kind);
        }
        let Some(demand) = self.workload.next_epoch(&mut self.rng) else {
            self.done = true;
            return false;
        };
        let epoch_start = self.clock.now();
        let epoch_span = self.span_open("epoch");
        let guest_span = self.span_open("guest-ops");
        self.apply_releases(&demand);
        self.apply_allocations(&demand);
        self.cool_heap();
        self.price_epoch(&demand);
        self.span_close(guest_span);
        match self.cfg.sched {
            SchedMode::Dense => {
                self.roll_stats_window();
                self.run_management();
            }
            SchedMode::Event => self.event_management(),
        }
        self.update_persistence();
        self.epochs += 1;
        self.span_close(epoch_span);
        if self.telemetry.is_some() {
            self.sample_telemetry(epoch_start);
        }
        self.audit_epoch();
        true
    }

    /// The management point under [`SchedMode::Event`]: drain the timer
    /// queue and run the (single, shared) management pass only when a
    /// management deadline has arrived or the cold ledger reports pending
    /// LRU work. Skipping is exact: when neither holds, the dense pass is
    /// provably a no-op — `roll_stats_window`'s window guard fails, LRU
    /// aging finds zero cold-active pages (zero cost via the ledger fast
    /// path), the demotion watermark check sees no shortage, and the
    /// tracking catch-up loop runs zero iterations. The only divergence is
    /// a telemetry-only `guest-lru` span the dense walk would open, which
    /// never touches results.
    fn event_management(&mut self) {
        let now = self.clock.now();
        // Per-epoch work — workload phase processing, fault-plan stepping,
        // persistence write-behind — is modelled as events due immediately,
        // so the queue's fired counter stays an honest measure of what each
        // epoch actually executed.
        self.timerq.arm(EngineEvent::PhaseChange, now);
        if self.injector.is_some() {
            self.timerq.arm(EngineEvent::FaultArm, now);
        }
        if self.persist.is_some() {
            self.timerq.arm(EngineEvent::PersistFlush, now);
        }
        let mut mgmt_due = false;
        while let Some(ev) = self.timerq.pop_due(now) {
            mgmt_due |= ev.is_management();
        }
        if mgmt_due || self.lru_pressure() {
            self.roll_stats_window();
            self.run_management();
            self.arm_management_events();
        } else {
            self.epochs_skipped += 1;
        }
    }

    /// True when the dense guest-LRU walk would do observable work right
    /// now: cold pages sit on the Fast active list (aging would deactivate
    /// and bill them), or the demotion window is open and a managed tier
    /// is below its low watermark.
    fn lru_pressure(&self) -> bool {
        if !self.policy.uses_guest_lru() {
            return false;
        }
        if self.kernel.cold_active(MemKind::Fast) > 0 {
            return true;
        }
        if self.clock.now() < self.next_demote {
            return false;
        }
        MemKind::ALL
            .iter()
            .any(|&tier| self.below_low_watermark(tier).is_some())
    }

    /// (Re-)arms the management deadlines after a management pass updated
    /// them. The demotion deadline is only armed while its hysteresis
    /// window is in the future — an expired window means demotion is purely
    /// watermark-driven, which [`SingleVmSim::lru_pressure`] watches.
    fn arm_management_events(&mut self) {
        self.timerq.arm(EngineEvent::StatsWindow, self.next_window);
        if self.effective_tracking() != Tracking::None {
            self.timerq.arm(EngineEvent::Scan, self.next_scan);
        }
        if self.policy.uses_guest_lru() && self.next_demote > self.clock.now() {
            self.timerq.arm(EngineEvent::Reclaim, self.next_demote);
        }
    }

    /// Events popped from the timer queue so far (Event mode only).
    pub fn events_fired(&self) -> u64 {
        self.timerq.fired()
    }

    /// Epochs whose management phase was skipped outright (Event mode only).
    pub fn epochs_skipped(&self) -> u64 {
        self.epochs_skipped
    }

    /// Runs every per-epoch sanitizer layer (no-op when auditing is off).
    /// The sanitizer is taken out of its slot for the call so it can borrow
    /// the kernel and tracker immutably while mutating its own state.
    fn audit_epoch(&mut self) {
        let Some(mut sanitizer) = self.sanitizer.take() else {
            return;
        };
        let swap = self.kernel.swap_map();
        let counters = [
            ("epochs", self.epochs),
            ("scans", self.scans),
            ("scanned_pages", self.scanned_pages),
            ("kernel_migrations", self.kernel.migrations),
            ("swap_outs", swap.swap_outs),
            ("swap_ins", swap.swap_ins),
            ("tracker_scans", self.tracker.total_scans()),
            ("tracker_scanned_frames", self.tracker.total_scanned_frames()),
        ];
        let costs = EpochCosts {
            epoch: self.epochs,
            now_ns: self.clock.now().as_nanos(),
            attributed_ns: self.clock.attributed().as_nanos(),
            engine_migrations: self.migrations_tallied,
            counters: &counters,
        };
        self.violations
            .extend(sanitizer.check_epoch(&self.kernel, Some(&self.tracker), &costs));
        self.sanitizer = Some(sanitizer);
    }

    /// `Paranoid` only: validates the scan outcome sitting in
    /// `scan_scratch` at the moment the scan produced it, before the
    /// epoch's migrations consume the candidates.
    fn audit_scan_outcome(&mut self) {
        let Some(sanitizer) = self.sanitizer.as_ref() else {
            return;
        };
        let found = sanitizer.check_scan_outcome(&self.kernel, &self.scan_scratch);
        self.violations.extend(found);
    }

    // ------------------------------------------------- persistence/recovery

    /// The NVM persistence domain, when `SimConfig::persist` enables one.
    pub fn persist_domain(&self) -> Option<&PersistDomain> {
        self.persist.as_ref()
    }

    /// Restore-time check: every frame the persistence domain tracks lies
    /// in the memmap's SlowMem (NVM) range, the frames a sweep walks and
    /// recovery reads back.
    fn check_persist_frames(&self) -> Result<(), hetero_sim::snap::SnapshotError> {
        let Some((first, last)) = self.persist.as_ref().and_then(PersistDomain::frame_span) else {
            return Ok(());
        };
        let nvm = self.kernel.memmap().range(MemKind::Slow);
        if nvm.contains(&first) && nvm.contains(&last) {
            return Ok(());
        }
        Err(hetero_sim::snap::SnapshotError::corrupt(format!(
            "persistence domain tracks frames {first}..={last}, outside the NVM tier's frames {}..{}",
            nvm.start, nvm.end
        )))
    }

    /// Crash→recover cycles performed so far.
    pub fn recoveries(&self) -> u64 {
        self.recoveries
    }

    /// Frames reconstructed from surviving NVM across all recoveries.
    pub fn recovered_frames(&self) -> u64 {
        self.recovered_frames
    }

    /// Frames lost to crashes (volatile residents plus torn NVM writes).
    pub fn lost_frames(&self) -> u64 {
        self.lost_frames
    }

    /// End-of-epoch write-behind pass over the NVM tier: one
    /// [`PersistDomain::sweep`] over the SlowMem descriptors' residency and
    /// write activity, then the flush policy's `clflush`/`sfence` traffic for
    /// whatever the policy drained this epoch. A no-op (zero cost, zero
    /// telemetry, zero RNG draws) when the flush policy is `Off`.
    fn update_persistence(&mut self) {
        let Some(dom) = self.persist.as_mut() else {
            return;
        };
        let mm = self.kernel.memmap();
        let base = mm.range(MemKind::Slow).start;
        let to_flush = dom.sweep(self.epochs, base, mm.tier_pages(MemKind::Slow), |p| {
            // Write-hot pages re-dirty faster than any flusher drains
            // them; a set dirty bit marks an unflushed buffered write
            // even on read-mostly pages.
            p.is_present()
                .then(|| p.write_heat > PERSIST_WRITE_HOT || p.flags.contains(PageFlags::DIRTY))
        });
        if to_flush > 0 {
            let span = self.span_open("persist-flush");
            let cost = self.cfg.costs.flush_cost(self.cfg.real_pages(to_flush));
            self.charge_management(cost);
            self.span_close(span);
        }
    }

    /// Tears the stack down after a crash and reboots it from the NVM
    /// survivors, exactly as a post-crash kernel replaying its persistent
    /// tier would:
    ///
    /// * [`FaultKind::HostPowerLoss`] — the volatile tiers (FastMem and
    ///   MediumMem) vanish; NVM frames the flush policy had persisted
    ///   survive; unflushed NVM writes are torn and discarded. With
    ///   persistence off nothing is durable, so nothing survives.
    /// * [`FaultKind::GuestCrashPersist`] — the guest dies but the host
    ///   (and the CPU caches in front of the NVM DIMMs) stay up: every
    ///   NVM-resident frame survives, flushed or not.
    ///
    /// Disk state survives both kinds: swap slots are replayed into the
    /// rebooted kernel and unbacked heap allocations stay on swap. Slab,
    /// network-buffer, page-table and DMA pages are kernel-internal state
    /// that is rebuilt from scratch, never recovered. Survivors are
    /// replayed in ascending frame order and placed back on SlowMem, and
    /// the whole path draws no randomness — recovery is a pure function of
    /// the pre-crash state, so crashy runs stay byte-identical across
    /// repeats and `--jobs` counts.
    ///
    /// When auditing is enabled the sanitizer is re-seeded (a reboot resets
    /// its counter baselines) and run once against the recovered kernel:
    /// the [`hetero_faults::ShadowModel`] full walk is the recovery oracle,
    /// and any violation it reports — a residency drift, a broken
    /// page-cache bijection — is collected and fails the run loudly.
    pub fn recover(&mut self, kind: FaultKind) {
        let span = self.span_open("recovery");
        let torn_lost = !matches!(kind, FaultKind::GuestCrashPersist);
        // Which NVM frames survive the crash.
        let survivors: Vec<u64> = match (self.persist.as_mut(), torn_lost) {
            (Some(dom), torn) => dom.survivors(torn),
            (None, false) => {
                let mm = self.kernel.memmap();
                mm.iter_kind(MemKind::Slow)
                    .filter(|&g| mm.page(g).is_present())
                    .map(|g| g.0)
                    .collect()
            }
            (None, true) => Vec::new(),
        };
        // Snapshot the survivors' identities and the disk-resident swap
        // slots before the old kernel is dropped.
        let mut heap: Vec<(u8, u8)> = Vec::new();
        let mut cache: Vec<(u64, u8)> = Vec::new();
        let mut buffer: Vec<(u64, u8)> = Vec::new();
        let mut resident_before = 0u64;
        {
            let mm = self.kernel.memmap();
            for tier in MemKind::ALL {
                resident_before +=
                    mm.iter_kind(tier).filter(|&g| mm.page(g).is_present()).count() as u64;
            }
            for &f in &survivors {
                let p = mm.page(Gfn(f));
                if !p.is_present() {
                    continue;
                }
                match (p.page_type, mm.rmap(Gfn(f))) {
                    (PageType::HeapAnon, RMap::Anon(_)) => heap.push((p.heat, p.write_heat)),
                    (PageType::PageCache, RMap::File(file, off)) if file == CACHE_FILE.0 => {
                        cache.push((off, p.heat));
                    }
                    (PageType::BufferCache, RMap::File(file, off)) if file == BUFFER_FILE.0 => {
                        buffer.push((off, p.heat));
                    }
                    // Kernel-internal pages (slab, netbuf, page tables,
                    // DMA) are rebuilt from scratch, not recovered.
                    _ => {}
                }
            }
        }
        let swap_slots: Vec<(u8, u8)> = self
            .kernel
            .swap_map()
            .iter()
            .map(|(_, e)| (e.heat, e.write_heat))
            .collect();
        // The balloon is host-side device state: the VMM's grant did not
        // change just because the guest rebooted, so the reservation must
        // be re-registered before the workload resumes or the rebooted
        // kernel would think it owns its full tier reservations while the
        // host ledger still records the smaller grant.
        let ballooned: [(MemKind, u64); 3] =
            MemKind::ALL.map(|k| (k, self.kernel.ballooned_pages(k)));
        let recovered = (heap.len() + cache.len() + buffer.len()) as u64;
        let lost = resident_before.saturating_sub(recovered);
        self.trace(EventKind::Fault, || {
            format!(
                "{kind}: {lost} resident frames lost, {recovered} NVM survivors, \
                 {} swap slots on disk",
                swap_slots.len()
            )
        });
        // Reboot: a fresh kernel with the same tier reservations, and
        // fresh volatile engine bookkeeping.
        self.kernel = GuestKernel::new(Self::guest_config(&self.cfg, self.policy));
        self.kernel.configure_cold_ledger(self.cfg.lru_cold_heat);
        self.heap_chunks.clear();
        self.hot_vpns.clear();
        self.cache_live.clear();
        self.cache_lazy.clear();
        self.buffer_live.clear();
        self.buffer_lazy.clear();
        // cache_next/buffer_next keep advancing: file offsets are stable
        // disk coordinates, and reusing one would alias a dead page.
        self.tracker = HotnessTracker::new(1);
        self.scan_scratch = ScanOutcome::default();
        self.prioritized = None;
        self.interval = IntervalController::new(
            self.cfg.scan_interval,
            self.cfg.adaptive_bounds.0,
            self.cfg.adaptive_bounds.1,
        );
        self.next_scan = self.clock.now() + self.cfg.scan_interval;
        self.next_window = self.clock.now() + self.cfg.stats_window;
        self.next_demote = self.clock.now();
        self.last_scan_yield = u64::MAX;
        self.ab_cursor = 0;
        self.ab_harvest.clear();
        if self.cfg.sched == SchedMode::Event {
            // Stale pre-crash deadlines in the heap are lazily dropped;
            // re-arming records the rebooted schedule.
            self.arm_management_events();
        }
        // Replay the disk-resident swap population first (the empty kernel
        // has frames to stage each page through), then the NVM survivors,
        // placed back where they survived: SlowMem.
        for &(h, wh) in &swap_slots {
            let Ok((vma, _)) = self.kernel.mmap_heap(1, [h], &[MemKind::Slow]) else {
                continue;
            };
            self.heap_chunks.push_back((vma.start, vma.pages));
            if let Some(gfn) = self.kernel.page_table().translate(vma.start) {
                if wh > 0 {
                    self.kernel.set_page_write_heat(gfn, wh);
                }
                let _ = self.kernel.swap_out(gfn);
            }
        }
        if !heap.is_empty() {
            if let Ok((vma, _)) = self.kernel.mmap_heap(
                heap.len() as u64,
                heap.iter().map(|&(h, _)| h),
                &[MemKind::Slow],
            ) {
                self.heap_chunks.push_back((vma.start, vma.pages));
                for (i, &(h, wh)) in heap.iter().enumerate() {
                    let vpn = vma.start + i as u64;
                    if wh > 0 {
                        if let Some(gfn) = self.kernel.page_table().translate(vpn) {
                            self.kernel.set_page_write_heat(gfn, wh);
                        }
                    }
                    if h > 50 && h < 200 {
                        self.hot_vpns.push_back(vpn);
                    }
                }
            }
        }
        for &(off, h) in &cache {
            if self.kernel.page_in(CACHE_FILE, off, h, &[MemKind::Slow]).is_ok() {
                self.cache_live.push_back(off);
            }
        }
        for &(off, h) in &buffer {
            if self
                .kernel
                .buffer_page_in(BUFFER_FILE, off, h, &[MemKind::Slow])
                .is_ok()
            {
                self.buffer_live.push_back(off);
            }
        }
        // Re-inflate the pre-crash balloon now that the survivors are
        // placed: they fit alongside the reservation before the crash, so
        // the fresh kernel always has the frames to give back.
        for (kind, n) in ballooned {
            if n > 0 {
                let got = self.kernel.balloon_inflate(kind, n);
                debug_assert_eq!(got, n, "post-reboot balloon must fit on {kind:?}");
            }
        }
        // The migration tally is a lifetime run statistic carried across
        // the reboot; the differential oracle demands the kernel counter
        // match the engine's bill.
        self.kernel.migrations = self.migrations_tallied;
        self.recoveries += 1;
        self.recovered_frames += recovered;
        self.lost_frames += lost;
        // Recovery time: one sequential scan over the whole NVM tier to
        // find survivors, then per-survivor page-table/page-cache rebuild
        // priced like a migration's walk + copy.
        let scanned = self.cfg.real_pages(self.kernel.total_frames(MemKind::Slow));
        let rebuilt = self.cfg.real_pages(recovered + swap_slots.len() as u64);
        let cost = self
            .cfg
            .costs
            .scan_per_page
            .saturating_mul(scanned)
            + self
                .cfg
                .costs
                .page_walk_per_page(rebuilt)
                .saturating_mul(rebuilt)
            + self
                .cfg
                .costs
                .page_move_per_page(rebuilt)
                .saturating_mul(rebuilt);
        self.charge_management(cost);
        self.trace(EventKind::Note, || {
            format!("recovery rebuilt {recovered} frames on SlowMem")
        });
        // Recovery oracle: reboot the sanitizer (fresh counter baselines)
        // and audit the recovered kernel immediately. Any violation here is
        // a recovery bug and fails the run loudly like every other finding.
        if self.sanitizer.is_some() {
            self.sanitizer = Some(Sanitizer::new(self.cfg.audit));
            self.audit_epoch();
        }
        self.span_close(span);
    }

    /// Samples the cumulative subsystem counters into the telemetry
    /// registry and records the epoch's simulated duration. `counter_set`
    /// keeps re-sampling idempotent; nothing here draws randomness or
    /// charges the clock.
    fn sample_telemetry(&mut self, epoch_start: Nanos) {
        let epoch_ns = self
            .clock
            .now()
            .checked_sub(epoch_start)
            .unwrap_or(Nanos::ZERO)
            .as_nanos();
        let epochs = self.epochs;
        let scans = self.scans;
        let scanned = self.scanned_pages;
        let misses = self.misses_total;
        let slow_writes = self.slow_writes;
        let scan_passes = self.tracker.total_scans();
        let scan_frames = self.tracker.total_scanned_frames();
        let tracked = self.tracker.tracked_pages() as u64;
        // Persistence/recovery counters are emitted only when the subsystem
        // is live, keeping disabled-mode exports byte-identical.
        let persist_stats = self.persist.as_ref().map(|d| {
            (
                d.flushes,
                d.fences,
                d.evict_flushes,
                d.torn_discards,
                d.dirty_frames(),
                d.flushed_frames(),
            )
        });
        let recovery_stats =
            (self.recoveries > 0).then_some((self.recoveries, self.recovered_frames, self.lost_frames));
        let Some(t) = self.telemetry.as_mut() else {
            return;
        };
        let reg = &mut t.registry;
        reg.observe("engine.epoch_ns", epoch_ns);
        reg.counter_set("engine.epochs", epochs);
        reg.counter_set("engine.scans", scans);
        reg.counter_set("engine.scanned_pages", scanned);
        reg.counter_set("engine.events_fired", self.timerq.fired());
        reg.counter_set("engine.epochs_skipped", self.epochs_skipped);
        reg.counter_set("engine.aging_touches", self.aging_touches);
        reg.gauge_set("engine.misses", misses);
        reg.gauge_set("engine.slow_writes", slow_writes);
        reg.counter_set("vmm.scan.passes", scan_passes);
        reg.counter_set("vmm.scan.frames", scan_frames);
        reg.counter_set("vmm.scan.tracked_pages", tracked);
        if let Some((flushes, fences, evict, torn, dirty, flushed)) = persist_stats {
            reg.counter_set("persist.flushes", flushes);
            reg.counter_set("persist.fences", fences);
            reg.counter_set("persist.evict_flushes", evict);
            reg.counter_set("persist.torn_discards", torn);
            reg.gauge_set("persist.dirty_frames", dirty as f64);
            reg.gauge_set("persist.flushed_frames", flushed as f64);
        }
        if let Some((recoveries, recovered, lost)) = recovery_stats {
            reg.counter_set("engine.recoveries", recoveries);
            reg.counter_set("engine.recovered_frames", recovered);
            reg.counter_set("engine.lost_frames", lost);
        }
        self.kernel.export_telemetry(reg);
    }

    /// Runs to completion and produces the report.
    ///
    /// # Panics
    ///
    /// With a `SimConfig::audit` level other than `Off`, panics on the
    /// first run whose sanitizer found any violation, listing every one.
    /// The run itself is driven to completion first, so the panic message
    /// reflects the whole violation history, not just the first epoch's.
    pub fn run(mut self) -> RunReport {
        while self.step() {}
        if self.cfg.audit != AuditLevel::Off && !self.violations.is_empty() {
            let mut msg = format!(
                "invariant sanitizer ({} level) found {} violation(s) in policy {} run:",
                self.cfg.audit,
                self.violations.len(),
                self.policy.name(),
            );
            for v in &self.violations {
                msg.push_str("\n  - ");
                msg.push_str(&v.to_string());
            }
            panic!("{msg}");
        }
        self.report()
    }

    /// The report for the work done so far.
    pub fn report(&self) -> RunReport {
        RunReport::from_parts(
            self.policy.name(),
            self.workload.spec().name,
            &self.clock,
            self.misses_total,
            self.kernel.migrations,
            self.scans,
            self.scanned_pages,
            self.kernel.stats().overall_miss_ratio(),
            self.slow_writes,
            self.epochs,
            self.events.as_ref().map_or(0, EventLog::dropped),
        )
    }

    // ----------------------------------------------------------- page churn

    fn apply_releases(&mut self, d: &EpochDemand) {
        // Heap churn: unmap the oldest chunks ("frequently allocate and
        // release", §2.2). HeteroOS-LRU treats the region eagerly; plain
        // munmap frees either way.
        let mut to_free = d.heap_free;
        // Freed data that lives on swap just disappears from the swap file.
        let from_swap = self.swapped_heap.min(to_free);
        self.swapped_heap -= from_swap;
        to_free -= from_swap;
        while to_free > 0 {
            let Some((start, pages)) = self.heap_chunks.pop_front() else {
                break;
            };
            let take = pages.min(to_free);
            self.kernel.munmap(start, take);
            if take < pages {
                self.heap_chunks.push_front((start + take, pages - take));
            }
            to_free -= take;
        }
        // I/O completions: HeteroOS-LRU evicts released I/O pages from
        // FastMem immediately (§3.3); the lazy baselines leave them cached
        // until a reclaim storm.
        let eager = self
            .cfg
            .eager_io_override
            .unwrap_or(self.policy.uses_guest_lru());
        for _ in 0..d.cache_releases {
            let Some(off) = self.cache_live.pop_front() else {
                break;
            };
            self.release_io_page(CACHE_FILE, off, eager, true);
        }
        for _ in 0..d.buffer_releases {
            let Some(off) = self.buffer_live.pop_front() else {
                break;
            };
            self.release_io_page(BUFFER_FILE, off, eager, false);
        }
        self.lazy_reclaim_if_due();
        // Kernel objects free immediately (kfree) under every policy.
        self.kernel
            .slab_free_bulk(SlabClass::FsMeta, d.slab_frees * SLAB_OBJS_PER_PAGE);
        self.kernel
            .slab_free_bulk(SlabClass::Skbuff, d.netbuf_frees * NETBUF_OBJS_PER_PAGE);
    }

    fn release_io_page(&mut self, file: FileId, off: u64, eager: bool, is_cache: bool) {
        if eager {
            self.kernel.drop_cache_page(file, off);
        } else {
            // Mark I/O complete (page goes inactive) and queue for the lazy
            // reclaimer.
            if let Some(gfn) = self.lookup_cached(file, off) {
                self.kernel.io_complete(gfn);
            }
            if is_cache {
                self.cache_lazy.push_back(off);
            } else {
                self.buffer_lazy.push_back(off);
            }
        }
    }

    fn lookup_cached(&mut self, file: FileId, off: u64) -> Option<Gfn> {
        self.kernel.cached_page(file, off)
    }

    fn lazy_reclaim_if_due(&mut self) {
        // Lazy baseline: released pages linger; once they exceed the slack,
        // a reclaim storm drops them all at once (§3.3's criticism).
        let slack = |target: usize| ((target as f64 * LAZY_RECLAIM_SLACK) as usize).max(16);
        if self.cache_lazy.len() > slack(self.cache_live.len().max(1)) {
            let q = std::mem::take(&mut self.cache_lazy);
            self.kernel.drop_cache_pages(CACHE_FILE, q);
            self.charge_management(Nanos::from_micros(200));
        }
        if self.buffer_lazy.len() > slack(self.buffer_live.len().max(1)) {
            let q = std::mem::take(&mut self.buffer_lazy);
            self.kernel.drop_cache_pages(BUFFER_FILE, q);
            self.charge_management(Nanos::from_micros(200));
        }
    }

    /// Registers a freshly mapped heap chunk: records the chunk, assigns
    /// write heats over its frames, and queues its transiently hot pages
    /// for cooling. The super-hot tier (255) is the stable working-set
    /// core and never cools; only transient fresh heat (96) enters the
    /// cooling queue.
    fn register_heap_chunk(&mut self, vma: &hetero_guest::vma::Vma, gfns: &[Gfn], heats: &[u8]) {
        self.heap_chunks.push_back((vma.start, vma.pages));
        self.assign_heap_write_heats(gfns, heats);
        for (i, &h) in heats.iter().enumerate() {
            if h > 50 && h < 200 {
                self.hot_vpns.push_back(vma.start + i as u64);
            }
        }
    }

    fn apply_allocations(&mut self, d: &EpochDemand) {
        if d.heap_alloc > 0 {
            let pref = self.preference(PageType::HeapAnon);
            let spec = self.workload.spec().clone();
            // During the ramp the footprint arrives with its steady-state
            // hot mix; churned allocations afterwards run hot — fresh
            // buffers are about to be used (temporal locality).
            let hot_p = if self.workload.progress() <= spec.ramp_fraction {
                spec.hot_page_fraction
            } else {
                spec.fresh_hot_fraction
            };
            let heats: Vec<u8> = (0..d.heap_alloc)
                .map(|_| spec.sample_heat_with(&mut self.rng, PageType::HeapAnon, hot_p))
                .collect();
            let mut gfns = std::mem::take(&mut self.heap_gfns);
            if self.cfg.app_hints {
                // §3.1's extended mmap() flag: the application maps its hot
                // buffers with an explicit FastMem hint and its cold data
                // with a SlowMem hint — two separate regions.
                let hot: Vec<u8> = heats.iter().copied().filter(|&h| h > 50).collect();
                let cold: Vec<u8> = heats.iter().copied().filter(|&h| h <= 50).collect();
                let hot_chain = if self.degraded {
                    Self::without_fast(self.chain_fast_first)
                } else {
                    self.chain_fast_first
                };
                let groups = [
                    (hot, hot_chain),
                    (cold, self.chain_slow_only),
                ];
                for (group, chain) in groups {
                    if group.is_empty() {
                        continue;
                    }
                    if let Ok((vma, _)) = self.kernel.mmap_heap_collect(
                        group.len() as u64,
                        group.iter().copied(),
                        chain.as_slice(),
                        &mut gfns,
                    ) {
                        self.register_heap_chunk(&vma, &gfns, &group);
                    }
                }
                self.heap_gfns = gfns;
                return self.apply_io_and_slab_allocations(d);
            }
            match self.kernel.mmap_heap_collect(
                d.heap_alloc,
                heats.iter().copied(),
                pref.as_slice(),
                &mut gfns,
            ) {
                Ok((vma, _)) => self.register_heap_chunk(&vma, &gfns, &heats),
                Err(AllocFailed { .. }) => {
                    // Total memory pressure: force the lazy queues out and
                    // retry once.
                    self.force_reclaim_all();
                    let heats: Vec<u8> = (0..d.heap_alloc)
                        .map(|_| spec.sample_heat_with(&mut self.rng, PageType::HeapAnon, hot_p))
                        .collect();
                    match self.kernel.mmap_heap_collect(
                        d.heap_alloc,
                        heats.iter().copied(),
                        pref.as_slice(),
                        &mut gfns,
                    ) {
                        Ok((vma, _)) => self.register_heap_chunk(&vma, &gfns, &heats),
                        Err(_) => {
                            // Memory truly exhausted (multi-VM balloon
                            // pressure): the pages live on swap instead.
                            self.swapped_heap += d.heap_alloc;
                        }
                    }
                }
            }
            self.heap_gfns = gfns;
        }
        self.apply_io_and_slab_allocations(d);
    }

    fn apply_io_and_slab_allocations(&mut self, d: &EpochDemand) {
        self.bulk_io_page_ins(true, d.cache_reads);
        self.bulk_io_page_ins(false, d.buffer_allocs);
        self.bulk_slab_allocs(
            SlabClass::FsMeta,
            PageType::Slab,
            d.slab_allocs * SLAB_OBJS_PER_PAGE,
        );
        self.bulk_slab_allocs(
            SlabClass::Skbuff,
            PageType::NetBuf,
            d.netbuf_allocs * NETBUF_OBJS_PER_PAGE,
        );
    }

    // ------------------------------------------------------- bulk dispatch
    //
    // Demand is dispatched with per-object semantics: every object takes
    // its own placement decision (`preference`), and every page-in first
    // makes sure a frame is free (`ensure_one_free`, a reclaim storm when
    // both tiers are full). The bulk calls must reproduce that sequence
    // exactly: the same placement for every object, the same RNG draw
    // count, the same allocation statistics and event traces
    // (`DISPATCH_DIGESTS` in `tests/checkpoint.rs` pins them). Placement
    // decisions are therefore run-length grouped — one kernel call covers a
    // run of consecutive objects only when every object in the run is
    // guaranteed the same preference chain its own decision would compute.

    /// Computes the next run of consecutive objects sharing one preference
    /// chain. For RNG-driven policies this draws one chance per object, as
    /// per-object placement decisions do; the first draw that breaks the
    /// run is parked in `pending` for the next call. For
    /// demand-prioritized policies the run is bounded so the FastMem
    /// scarcity signal cannot flip inside it.
    fn next_pref_run(
        &mut self,
        page_type: PageType,
        remaining: u64,
        pending: &mut Option<TierChain>,
    ) -> (TierChain, u64) {
        debug_assert!(remaining > 0);
        match self.policy {
            Policy::Random | Policy::NumaPreferred => {
                let first = match pending.take() {
                    Some(chain) => chain,
                    None => self.preference(page_type),
                };
                let mut run = 1;
                while run < remaining {
                    let next = self.preference(page_type);
                    if next == first {
                        run += 1;
                    } else {
                        *pending = Some(next);
                        break;
                    }
                }
                (first, run)
            }
            Policy::HeapIoSlabOd | Policy::HeteroLru | Policy::HeteroCoordinated => {
                debug_assert!(pending.is_none(), "OD runs are state-derived");
                let chain = self.preference(page_type);
                let thr = self.cfg.fast_low_watermark * 2.0;
                if self.kernel.free_fraction(MemKind::Fast) < thr {
                    // Scarce, and allocations only consume frames, so the
                    // signal stays scarce for the whole remainder. (The one
                    // way back up — a reclaim storm — makes the dispatcher
                    // recompute runs.)
                    (chain, remaining)
                } else {
                    // Plentiful: placements may drain FastMem until the
                    // watermark trips. Each object consumes at most one
                    // Fast frame, so the first `free - min_free + 1`
                    // objects are guaranteed to still see a non-scarce
                    // tier, as their own decisions would.
                    let total = self.kernel.total_frames(MemKind::Fast);
                    let free = self.kernel.free_frames(MemKind::Fast);
                    let mut min_free = (thr * total as f64).ceil() as u64;
                    // Settle f64 rounding edges against the exact predicate.
                    while (min_free as f64) / (total as f64) < thr {
                        min_free += 1;
                    }
                    while min_free > 0 && ((min_free - 1) as f64) / (total as f64) >= thr {
                        min_free -= 1;
                    }
                    debug_assert!(free >= min_free);
                    ((chain), (free - min_free + 1).min(remaining))
                }
            }
            // Static chains: one placement decision covers the epoch.
            Policy::SlowMemOnly
            | Policy::FastMemOnly
            | Policy::HeapOd
            | Policy::VmmExclusive => (self.preference(page_type), remaining),
        }
    }

    /// Bulk page-cache / buffer-cache reads: run-grouped placement, with
    /// sub-chunks sized so the per-object `ensure_one_free` reclaim storm
    /// fires at exactly the same object index.
    fn bulk_io_page_ins(&mut self, is_cache: bool, n: u64) {
        let page_type = if is_cache {
            PageType::PageCache
        } else {
            PageType::BufferCache
        };
        let mut remaining = n;
        let mut pending: Option<TierChain> = None;
        while remaining > 0 {
            let (chain, run) = self.next_pref_run(page_type, remaining, &mut pending);
            remaining -= run;
            let mut run_left = run;
            while run_left > 0 {
                let free_total = self.kernel.free_frames(MemKind::Fast)
                    + self.kernel.free_frames(MemKind::Slow);
                if free_total == 0 {
                    // The next object trips the reclaim storm (its chain —
                    // computed before the storm, as its own decision would
                    // be — is already fixed in `run`).
                    if !self.ensure_one_free() {
                        // Nothing reclaimable: the rest of the run is
                        // skipped, but offsets still advance.
                        self.advance_io_offsets(is_cache, run_left);
                        run_left = 0;
                        continue;
                    }
                    self.dispatch_io_chunk(is_cache, 1, chain);
                    run_left -= 1;
                    if self.policy.uses_demand_prioritization() && run_left > 0 {
                        // The storm refilled free lists, which may flip the
                        // scarcity signal: hand the rest back and recompute.
                        remaining += run_left;
                        run_left = 0;
                    }
                    continue;
                }
                // Within this chunk every object sees a free frame, so
                // `ensure_one_free` is a guaranteed no-op for all of them.
                let c = run_left.min(free_total);
                self.dispatch_io_chunk(is_cache, c, chain);
                run_left -= c;
            }
        }
    }

    /// Pages `count` consecutive offsets in with one kernel call and
    /// registers the successes as live. Placement failures form a suffix
    /// (nothing frees memory inside a chunk), so the success count is also
    /// the live prefix length — exactly the offsets per-object page-ins
    /// would have recorded.
    fn dispatch_io_chunk(&mut self, is_cache: bool, count: u64, chain: TierChain) -> u64 {
        let (start, ok) = if is_cache {
            let start = self.cache_next;
            self.cache_next += count;
            let ok = self
                .kernel
                .page_in_many(CACHE_FILE, start, count, 224, chain.as_slice());
            (start, ok)
        } else {
            let start = self.buffer_next;
            self.buffer_next += count;
            let ok = self
                .kernel
                .buffer_page_in_many(BUFFER_FILE, start, count, 224, chain.as_slice());
            (start, ok)
        };
        let live = if is_cache {
            &mut self.cache_live
        } else {
            &mut self.buffer_live
        };
        live.extend(start..start + ok);
        ok
    }

    fn advance_io_offsets(&mut self, is_cache: bool, n: u64) {
        if is_cache {
            self.cache_next += n;
        } else {
            self.buffer_next += n;
        }
    }

    /// Bulk slab/netbuf object allocation: one kernel call per placement
    /// run. `GuestKernel::slab_alloc_bulk` leaves the state of the
    /// per-object carve/fresh-page/failure sequence, accounting the
    /// failures that follow a first one in a single step.
    fn bulk_slab_allocs(&mut self, class: SlabClass, page_type: PageType, n: u64) {
        let mut remaining = n;
        let mut pending: Option<TierChain> = None;
        while remaining > 0 {
            let (chain, run) = self.next_pref_run(page_type, remaining, &mut pending);
            let _ = self.kernel.slab_alloc_bulk(class, run, 224, chain.as_slice());
            remaining -= run;
        }
    }

    /// Assigns per-page write heat to a freshly mapped heap chunk: a
    /// `write_fraction`-sized subset of the hot pages is write-hot (their
    /// stores dominate), the rest are read-mostly. This is the §4.3
    /// read/write-imbalance structure write-aware migration exploits.
    fn assign_heap_write_heats(&mut self, gfns: &[Gfn], heats: &[u8]) {
        let wf = self.workload.spec().write_fraction.clamp(0.0, 1.0);
        for (&gfn, &h) in gfns.iter().zip(heats) {
            let write_heat = if h > 50 && self.rng.chance(wf) {
                h // write-hot: stores track its access intensity
            } else {
                h / 8 // read-mostly
            };
            if write_heat > 0 {
                self.kernel.set_page_write_heat(gfn, write_heat);
            }
        }
    }

    /// Ages workload heat: fresh allocations run hot
    /// (`fresh_hot_fraction`), and this pass cools randomly chosen hot heap
    /// pages until the resident hot fraction settles back at
    /// `hot_page_fraction`. The resulting recency gradient is what lets
    /// on-demand recycling and LRU demotion separate hot from cold.
    /// Estimates the number of currently-hot resident heap pages from the
    /// tier-aggregate heat counters, inverting
    /// `heat ≈ hot·E[hot heat] + (pages−hot)·cold`. Saturates at zero when
    /// the aggregate sits at or below the all-cold floor `cold·pages`, so
    /// a fully cooled heap (or an empty one) reads as zero hot pages.
    fn hot_pages_estimate(heat: u64, pages: u64) -> u64 {
        let cold = hetero_workloads::WorkloadSpec::COLD_HEAT as u64;
        let hot_heat = hetero_workloads::WorkloadSpec::expected_hot_heat();
        Self::hot_pages_estimate_with(heat, pages, hot_heat, cold)
    }

    /// Core of [`Self::hot_pages_estimate`] with the heat anchors explicit.
    /// A degenerate spec whose expected hot heat sits at or below the cold
    /// floor leaves the inversion undefined (zero or negative denominator);
    /// dividing anyway sends `+inf` through the `as u64` cast and reads as
    /// `u64::MAX` hot pages. Guard it: such a heap has no detectable hot
    /// set, so the estimate is 0.
    fn hot_pages_estimate_with(heat: u64, pages: u64, hot_heat: f64, cold: u64) -> u64 {
        if hot_heat <= cold as f64 {
            return 0;
        }
        (heat.saturating_sub(cold * pages) as f64 / (hot_heat - cold as f64)) as u64
    }

    fn cool_heap(&mut self) {
        let spec = self.workload.spec();
        let target_frac = spec.hot_page_fraction;
        let mm = self.kernel.memmap();
        let pages = mm.resident_pages(PageType::HeapAnon);
        if pages == 0 {
            return;
        }
        let heat: u64 = MemKind::ALL
            .iter()
            .map(|&k| mm.heat_on(PageType::HeapAnon, k))
            .sum();
        let hot_now = Self::hot_pages_estimate(heat, pages);
        let target = (target_frac * pages as f64) as u64;
        // Each cooling pass is one hotness generation: pages cooled here
        // drop to the cold floor (a full `heatgen::decay` collapse), and
        // the ledger's generation stamp is what lazy consumers compare
        // against instead of re-walking the heap.
        self.kernel.bump_cold_generation();
        if hot_now <= target {
            return;
        }
        // Cool the *oldest* hot pages first (allocation-order FIFO): data
        // goes cold in the order it was produced.
        let mut to_cool = (hot_now - target).min(1024);
        while to_cool > 0 {
            let Some(vpn) = self.hot_vpns.pop_front() else {
                break;
            };
            let Some(gfn) = self.kernel.page_table().translate(vpn) else {
                continue; // already unmapped by churn
            };
            if self.kernel.memmap().page(gfn).heat > 50 {
                self.kernel.set_page_heat(gfn, hetero_workloads::WorkloadSpec::COLD_HEAT);
                self.kernel.set_page_write_heat(gfn, 1);
                to_cool -= 1;
            }
        }
    }

    fn ensure_one_free(&mut self) -> bool {
        if self.kernel.free_frames(MemKind::Fast) + self.kernel.free_frames(MemKind::Slow) == 0 {
            self.force_reclaim_all();
        }
        self.kernel.free_frames(MemKind::Fast) + self.kernel.free_frames(MemKind::Slow) > 0
    }

    fn force_reclaim_all(&mut self) {
        let q = std::mem::take(&mut self.cache_lazy);
        self.kernel.drop_cache_pages(CACHE_FILE, q);
        let q = std::mem::take(&mut self.buffer_lazy);
        self.kernel.drop_cache_pages(BUFFER_FILE, q);
    }

    // --------------------------------------------------------------- timing

    fn price_epoch(&mut self, d: &EpochDemand) {
        let spec = self.workload.spec();
        let miss_scale = self.cfg.llc.mpki_scale(spec.hot_wss_bytes);
        let misses = d.instructions as f64 * spec.miss_per_instruction() * miss_scale;
        // Split misses across tiers, per type, weighted by resident heat.
        let mm = self.kernel.memmap();
        let wf = spec.write_fraction.clamp(0.0, 1.0);
        // Per-tier (reads, writes): reads split by heat, writes by write
        // heat — write-hot pages concentrate stores the way §4.3's
        // read/write-imbalanced NVM workloads do. When no write heats have
        // been assigned, writes follow the read split.
        let mut reads = [0.0f64; 3];
        let mut writes = [0.0f64; 3];
        let tier_idx = |k: MemKind| k.tier() as usize;
        for t in PageType::ALL {
            let share = spec.access_mix.of(t);
            if share <= 0.0 {
                continue;
            }
            let m = misses * share;
            let heats = MemKind::ALL.map(|k| mm.heat_on(t, k) as f64);
            let wheats = MemKind::ALL.map(|k| mm.write_heat_on(t, k) as f64);
            let heat_total: f64 = heats.iter().sum();
            let wheat_total: f64 = wheats.iter().sum();
            if heat_total <= 0.0 {
                reads[tier_idx(MemKind::Slow)] += m * (1.0 - wf);
                writes[tier_idx(MemKind::Slow)] += m * wf;
                continue;
            }
            for i in 0..3 {
                reads[i] += m * (1.0 - wf) * heats[i] / heat_total;
                let wshare = if wheat_total > 0.0 {
                    wheats[i] / wheat_total
                } else {
                    heats[i] / heat_total
                };
                writes[i] += m * wf * wshare;
            }
        }
        self.slow_writes += writes[tier_idx(MemKind::Slow)];
        let threads = spec.threads.max(1.0);
        let compute_ns = d.instructions as f64 * spec.compute_ns_per_instruction() / threads;
        let keff = spec.mlp.max(1.0) * threads;
        // Roofline: the epoch is either latency-bound (misses stall the
        // threads) or bandwidth-bound (a node's channel is the bottleneck),
        // whichever is worse. This is what makes only the high-`threads`
        // batch engines sensitive to the B:y factor (Observation 1).
        let line_bytes = 64.0;
        let params = [
            Some(&self.fast_params),
            self.medium_params.as_ref(),
            Some(&self.slow_params),
        ];
        let mut lat_bound = compute_ns;
        let mut bw_bound: f64 = 0.0;
        // An injected latency storm dilates every node's latency and cuts
        // its usable bandwidth by the same factor for the storm's duration.
        let storm = self.storm_factor.max(1.0);
        for i in 0..3 {
            let Some(p) = params[i] else { continue };
            lat_bound += (reads[i] * p.load_latency.as_nanos() as f64
                + writes[i] * p.store_latency.as_nanos() as f64)
                * storm
                / keff;
            // Symmetric nodes keep the legacy single-rail formula verbatim
            // (bit-identical floats for every pre-existing config); profiles
            // with a read/write bandwidth split — Optane DC's 6.6 GB/s read
            // vs 2.3 GB/s write — serialize each direction on its own rail.
            let node_bw = if p.bandwidth_gbps == p.write_bandwidth_gbps {
                (reads[i] + writes[i]) * line_bytes * storm
                    / (p.bandwidth_gbps * self.bw_share)
            } else {
                (reads[i] * line_bytes / p.bandwidth_gbps
                    + writes[i] * line_bytes / p.write_bandwidth_gbps)
                    * storm
                    / self.bw_share
            };
            bw_bound = bw_bound.max(node_bw);
        }
        let total_ns = lat_bound.max(bw_bound);
        let compute = Nanos::from_nanos(compute_ns.round() as u64);
        let stall = Nanos::from_nanos((total_ns - compute_ns).max(0.0).round() as u64);
        self.clock.charge(CostCategory::Compute, compute);
        self.clock.charge(CostCategory::MemoryStall, stall);
        // Swapped-out heap pages fault in from disk when touched. The
        // swapped set is the coldest tail, so weight its traffic by cold
        // heat, and fault each page at most once per epoch.
        let swapped_total = self.kernel.swapped_pages() + self.swapped_heap;
        if swapped_total > 0 {
            let heap_misses = misses * spec.access_mix.heap;
            let resident_heat = MemKind::ALL
                .iter()
                .map(|&k| mm.heat_on(PageType::HeapAnon, k))
                .sum::<u64>() as f64;
            // The swap subsystem remembers real per-page heat; unbacked
            // allocations are assumed cold.
            let swap_heat = self.kernel.swapped_heat() as f64
                + self.swapped_heap as f64
                    * hetero_workloads::WorkloadSpec::COLD_HEAT as f64;
            let frac = swap_heat / (swap_heat + resident_heat.max(1.0));
            // Cold pages have reuse distances far beyond one epoch: once
            // faulted in, a page stays resident for many epochs (something
            // colder takes its place). Cap the per-epoch fault rate at a
            // fraction of the swapped set.
            let faults = (heap_misses * frac).min(swapped_total as f64 / 8.0);
            self.clock.charge(
                CostCategory::IoWait,
                SWAP_SERVICE.saturating_mul(faults.round() as u64),
            );
        }
        self.misses_total += misses;
        self.epoch_misses = misses;
    }

    // ----------------------------------------------------------- management

    fn roll_stats_window(&mut self) {
        if self.clock.now() < self.next_window {
            return;
        }
        self.next_window = self.clock.now() + self.cfg.stats_window;
        if self.policy.uses_demand_prioritization() {
            self.prioritized = self.kernel.stats().neediest_type();
        }
        self.kernel.roll_stats_window();
    }

    fn charge_management(&mut self, t: Nanos) {
        self.clock.charge(CostCategory::Management, t);
    }

    fn charge_scan(&mut self, sim_pages: u64) {
        let real = self.cfg.real_pages(sim_pages);
        self.scanned_pages += real;
        let mut scan = self.cfg.costs.scan_per_page.saturating_mul(real);
        let mut flush = self.cfg.costs.tlb_flush;
        if self.cfg.bare_metal {
            // §4.3: on bare metal the scanner runs inside the OS — no VM
            // exits, no grant-table walks, no hypervisor shoot-down relay.
            scan = scan.mul_f64(0.5);
            flush = flush.mul_f64(0.5);
        }
        self.clock.charge(CostCategory::HotnessScan, scan);
        self.clock.charge(CostCategory::TlbFlush, flush);
    }

    fn charge_migration(&mut self, sim_pages: u64, guest_checked: bool) {
        if sim_pages == 0 {
            return;
        }
        self.migrations_tallied += sim_pages;
        let real = self.cfg.real_pages(sim_pages);
        let walk = self
            .cfg
            .costs
            .page_walk_per_page(real)
            .saturating_mul(real);
        let copy = self
            .cfg
            .costs
            .page_move_per_page(real)
            .saturating_mul(real);
        self.clock.charge(CostCategory::PageWalk, walk);
        self.clock.charge(CostCategory::PageCopy, copy);
        self.clock
            .charge(CostCategory::TlbFlush, self.cfg.costs.tlb_flush);
        if guest_checked {
            let validity = self.cfg.costs.validity_cost(real);
            self.clock.charge(CostCategory::PageWalk, validity);
        }
    }

    fn run_management(&mut self) {
        if self.policy.uses_guest_lru() {
            self.run_guest_lru();
        }
        let tracking = self.effective_tracking();
        if tracking == Tracking::None {
            return;
        }
        // Epochs can span several scan periods; catch up (bounded) so the
        // cadence holds in simulated time.
        let mut fired = 0;
        while self.clock.now() >= self.next_scan && fired < 4 {
            fired += 1;
            self.scan_once(tracking);
        }
        if self.clock.now() >= self.next_scan {
            // Too far behind: resynchronise without unbounded catch-up.
            self.next_scan = self.clock.now() + self.scan_period(tracking);
        }
    }

    /// The tracking discipline actually in force: the policy's default,
    /// unless the config pins one (`SimConfig::with_tracking`, surfaced as
    /// `repro --tracking`).
    fn effective_tracking(&self) -> Tracking {
        self.cfg.tracking_override.unwrap_or(self.policy.tracking())
    }

    /// `tier`'s free frames and low watermark when the guest LRU manages
    /// the tier (FastMem, plus Medium when the machine populates it) and
    /// it sits below the mark (§3.3 memory-type-specific threshold).
    /// [`SingleVmSim::lru_pressure`] and [`SingleVmSim::run_guest_lru`]
    /// share this test, so event dispatch skips an epoch exactly when the
    /// dense walk would find no tier short (DESIGN §13).
    fn below_low_watermark(&self, tier: MemKind) -> Option<(u64, u64)> {
        let managed = match tier {
            MemKind::Fast => true,
            MemKind::Medium => self.medium_params.is_some(),
            MemKind::Slow => false,
        };
        if !managed {
            return None;
        }
        let total = self.kernel.total_frames(tier);
        let free = self.kernel.free_frames(tier);
        let low = (self.cfg.fast_low_watermark * total as f64) as u64;
        (free < low).then_some((free, low))
    }

    fn run_guest_lru(&mut self) {
        let lru_span = self.span_open("guest-lru");
        // Active monitoring: age cold pages out of the active lists.
        let aged = self.kernel.age_lru(
            MemKind::Fast,
            self.cfg.lru_age_batch,
            self.cfg.lru_cold_heat,
        );
        if aged > 0 {
            self.aging_touches += aged;
            self.charge_management(LRU_AGE_COST.saturating_mul(aged));
        }
        // Memory-type-specific threshold: demote inactive pages when a
        // tier runs low (§3.3). Demotion is *need-based* with hysteresis and
        // runs at most once per management window — the LRU tops up what
        // churn consumed instead of cycling the tier through migration.
        if self.clock.now() < self.next_demote {
            self.span_close(lru_span);
            return;
        }
        // Budget scales with elapsed windows (long epochs may span several).
        let windows = (self
            .clock
            .now()
            .checked_sub(self.next_demote)
            .unwrap_or(Nanos::ZERO)
            .ratio(self.cfg.stats_window) as u64)
            .clamp(0, 3)
            + 1;
        let mut any = false;
        for tier in MemKind::ALL {
            let Some((free, low)) = self.below_low_watermark(tier) else {
                continue;
            };
            any = true;
            let goal = low + low / 2;
            let needed = (goal - free).min(self.cfg.sim_batch(self.cfg.demote_batch) * windows);
            let moved = if self.cfg.typed_demotion {
                self.kernel.demote_inactive_typed(tier, needed)
            } else {
                self.kernel.demote_inactive(tier, needed)
            };
            self.charge_migration(moved, true);
            if moved > 0 {
                self.trace(EventKind::Migration, || {
                    format!("LRU demoted {moved} pages off {tier}")
                });
            }
        }
        if any {
            self.next_demote = self.clock.now() + self.cfg.stats_window;
        }
        self.span_close(lru_span);
    }

    /// Touch oracle shared by every tracking source: a page reads as
    /// accessed with probability proportional to its heat, scaled by how
    /// much of the app's inter-scan activity the interval covers.
    fn touch_probability(interval: Nanos, page: &Page) -> f64 {
        // Saturating: a genuinely warm page (heat ≥ 64) is all but certain
        // to be touched within a 100 ms interval, so it never reads as a
        // demotion candidate; only the cold tail looks idle. Cold pages
        // still trip the bit occasionally (false hots), which is the
        // realistic noise budget-wasting blind trackers pay for.
        let intensity = interval.as_millis_f64() / 25.0;
        (page.heat as f64 / 255.0 * intensity).min(1.0)
    }

    /// The scan period `tracking` runs at. VMM-exclusive full scans keep
    /// the fixed `scan_interval`; the guest-assisted sources (guided and
    /// A/D) follow Eq. 1's adaptive interval unless `adaptive_interval` is
    /// off. Both the pass and the catch-up resync read it.
    fn scan_period(&self, tracking: Tracking) -> Nanos {
        if self.cfg.adaptive_interval && tracking != Tracking::FullVm {
            self.interval.interval()
        } else {
            self.cfg.scan_interval
        }
    }

    /// One tracking pass, in five stages: cadence, candidate source, rank,
    /// promoter and accounting. DESIGN §17 tabulates what each tracking
    /// source plugs into each stage.
    fn scan_once(&mut self, tracking: Tracking) {
        let scan_span = self.span_open("vmm-decision");
        let guest_assisted = tracking != Tracking::FullVm;
        // Cadence. Architectural hints: Eq. 1 adapts the interval from
        // LLC-miss movement (§4.1). On top of Eq. 1, a yield-aware backoff
        // stretches the interval when recent scans found little to migrate
        // — the operational form of "when [misses are] low, the interval is
        // longer": once the hot set is placed, tracking pays for itself
        // ever more rarely.
        if guest_assisted && self.cfg.adaptive_interval {
            self.interval.observe(self.epoch_misses);
            if self.last_scan_yield.saturating_mul(4)
                < self.cfg.sim_batch(self.cfg.migrate_batch)
            {
                self.interval.back_off(1.5);
            }
        }
        let period = self.scan_period(tracking);
        self.next_scan += period;
        self.scans += 1;
        if !self.scan_candidates(tracking, period) {
            self.span_close(scan_span);
            return;
        }
        self.audit_scan_outcome();
        let scanned = self.scan_scratch.scanned;
        self.charge_scan(scanned);
        let hot_n = self.scan_scratch.hot_candidates.len();
        let cold_n = self.scan_scratch.cold_candidates.len();
        self.trace(EventKind::Scan, || match tracking {
            Tracking::FullVm => {
                format!("full scan: {scanned} frames, {hot_n} hot / {cold_n} cold candidates")
            }
            Tracking::Guided => format!("guided scan: {scanned} PTEs, {hot_n} hot candidates"),
            _ => format!("A/D harvest: {scanned} PTEs, {hot_n} hot candidates"),
        });
        // The candidate vector is taken out of the scratch and put back
        // afterwards so its capacity carries to the next scan.
        let mut hot = std::mem::take(&mut self.scan_scratch.hot_candidates);
        self.rank_candidates(tracking, &mut hot);
        let (migrated, checked) = if guest_assisted {
            self.promote_checked(&hot)
        } else {
            (self.promote_forced(&hot), 0)
        };
        self.scan_scratch.hot_candidates = hot;
        self.charge_migration(migrated, false);
        if guest_assisted {
            self.last_scan_yield = migrated;
            if migrated > 0 {
                let who = match tracking {
                    Tracking::Guided => "guest",
                    _ => "A/D tracker",
                };
                self.trace(EventKind::Migration, || {
                    format!("{who} promoted {migrated} pages ({checked} checked)")
                });
            }
        }
        if let Some(t) = self.telemetry.as_mut() {
            t.registry.observe("vmm.scan.frames_per_pass", scanned);
            t.registry.observe("vmm.migrate.pages_per_pass", migrated);
        }
        self.span_close(scan_span);
    }

    /// Candidate source: fills `scan_scratch` with `tracking`'s hot and
    /// cold candidates, reading pages as touched over one scan `period`.
    /// Returns `false` when there was nothing to walk (an A/D sweep before
    /// any heap is mapped).
    fn scan_candidates(&mut self, tracking: Tracking, period: Nanos) -> bool {
        let batch = self.cfg.sim_batch(self.cfg.scan_batch);
        if tracking == Tracking::AccessBit {
            return self.harvest_candidates(period, batch);
        }
        let mut rng = self.rng.fork();
        let mut oracle = move |p: &Page| rng.chance(Self::touch_probability(period, p));
        if tracking == Tracking::Guided && self.cfg.guided_tracking {
            // The guest guides *what* to track: heap VMA ranges; short-lived
            // I/O pages and pinned types go on the exception list.
            let ranges = self
                .kernel
                .address_space()
                .ranges_of(hetero_guest::vma::VmaKind::Anon);
            let exceptions = [
                PageType::PageCache,
                PageType::BufferCache,
                PageType::NetBuf,
                PageType::PageTable,
                PageType::Dma,
            ];
            self.tracker.scan_tracked_into(
                &self.kernel,
                &ranges,
                &exceptions,
                &mut oracle,
                batch,
                &mut self.scan_scratch,
            );
        } else {
            // The whole VM, blind to what each page is for: VMM-exclusive
            // tracking, and the guided source with `guided_tracking` off.
            self.tracker
                .scan_full_into(&self.kernel, &mut oracle, batch, &mut self.scan_scratch);
        }
        true
    }

    /// The A/D candidate source (HMM-V-style page-table tracking). Unlike
    /// the oracle-driven sources, hotness comes from the page table itself:
    /// the inter-scan activity sets real accessed/dirty bits, and
    /// [`GuestKernel::touch_and_harvest`] harvests them in the same
    /// bounded walk — access bits for heat, dirty bits for the write heat
    /// that the §4.3 write-aware rank consumes. Priced per PTE walked via
    /// [`CostModel::scan_per_page`].
    ///
    /// [`GuestKernel::touch_and_harvest`]: hetero_guest::GuestKernel::touch_and_harvest
    /// [`CostModel::scan_per_page`]: hetero_mem::CostModel
    fn harvest_candidates(&mut self, period: Nanos, batch: u64) -> bool {
        // Sweep window: up to `batch` heap VPNs starting at the resume
        // cursor, wrapping across the anon ranges (BTreeMap order, so the
        // walk is deterministic at any `--jobs`).
        let mut ranges = self
            .kernel
            .address_space()
            .ranges_of(hetero_guest::vma::VmaKind::Anon);
        ranges.retain(|&(s, e)| e > s);
        if ranges.is_empty() {
            return false;
        }
        let total_vpns: u64 = ranges.iter().map(|&(s, e)| e - s).sum();
        let mut remaining = batch.min(total_vpns);
        let mut idx = ranges
            .iter()
            .position(|&(s, e)| self.ab_cursor >= s && self.ab_cursor < e)
            .or_else(|| ranges.iter().position(|&(s, _)| s > self.ab_cursor))
            .unwrap_or(0);
        let mut cur = if self.ab_cursor >= ranges[idx].0 && self.ab_cursor < ranges[idx].1 {
            self.ab_cursor
        } else {
            ranges[idx].0
        };
        let mut window: Vec<(u64, u64)> = Vec::new();
        while remaining > 0 {
            let (_, e) = ranges[idx];
            let take = (e - cur).min(remaining);
            window.push((cur, cur + take));
            remaining -= take;
            cur += take;
            if cur >= e {
                idx = (idx + 1) % ranges.len();
                cur = ranges[idx].0;
            }
        }
        self.ab_cursor = cur;
        // One bounded page-table walk per window segment. Inter-scan guest
        // activity first: the touch oracle drives real PTE bits, and a
        // touched page dirties in proportion to its write heat, so the
        // dirty-bit channel sees the same store skew §4.3 describes. Then
        // the same walk harvests and resets the bits.
        let mut rng = self.rng.fork();
        let mut touch = |page: &Page| {
            let p_touch = Self::touch_probability(period, page);
            let w_ratio = (page.write_heat as f64 / (page.heat as f64).max(1.0)).min(1.0);
            rng.chance(p_touch).then(|| rng.chance(w_ratio))
        };
        let mut harvest = std::mem::take(&mut self.ab_harvest);
        harvest.clear();
        let mut visited = 0u64;
        for &(lo, hi) in &window {
            visited += self
                .kernel
                .touch_and_harvest(lo, hi, &mut touch, &mut harvest);
        }
        self.tracker
            .scan_harvest_into(&self.kernel, &harvest, visited, &mut self.scan_scratch);
        self.ab_harvest = harvest;
        true
    }

    /// Rank: promotion candidates hottest first, by a stable sort so ties
    /// keep scan order. The oracle-driven sources rank by page heat, the
    /// A/D source by harvested access history. In write-aware mode (§4.3
    /// extension over NVM-like SlowMem) the guest-assisted sources add
    /// write heat weighted by the store/load asymmetry — a write-hot page
    /// saves more per promoted byte. The VMM-exclusive rank never does.
    fn rank_candidates(&self, tracking: Tracking, hot: &mut [Gfn]) {
        let store_bias = if self.cfg.write_aware {
            (self.slow_params.store_latency.as_nanos() as f64
                / self.slow_params.load_latency.as_nanos().max(1) as f64)
                - 1.0
        } else {
            0.0
        };
        let biased = |heat: u32, write_heat: u32| {
            std::cmp::Reverse(heat + (write_heat as f64 * store_bias) as u32)
        };
        let mm = self.kernel.memmap();
        match tracking {
            Tracking::FullVm => hot.sort_by_key(|&g| std::cmp::Reverse(mm.page(g).heat)),
            Tracking::AccessBit => hot.sort_by_key(|&g| {
                biased(
                    self.tracker.history_bits(g).count_ones(),
                    self.tracker.write_history_bits(g).count_ones(),
                )
            }),
            _ => hot.sort_by_key(|&g| {
                let p = mm.page(g);
                biased(p.heat.into(), p.write_heat.into())
            }),
        }
    }

    /// Forced promoter (VMM-exclusive). The VMM is blind to guest page
    /// state, so it migrates forced — including soon-to-die pages — and
    /// makes room on a full FastMem by first demoting the next cold
    /// candidate. Returns the pages moved, victims included.
    fn promote_forced(&mut self, hot: &[Gfn]) -> u64 {
        let budget = self.cfg.sim_batch(self.cfg.migrate_batch);
        let mut migrated = 0u64;
        let mut next_cold = 0usize;
        for &gfn in hot.iter().take(budget as usize) {
            if self.kernel.free_frames(MemKind::Fast) == 0 {
                let Some(&victim) = self.scan_scratch.cold_candidates.get(next_cold) else {
                    break;
                };
                next_cold += 1;
                if self.kernel.migrate_page_forced(victim, MemKind::Slow).is_err() {
                    continue;
                }
                migrated += 1;
            }
            if self.kernel.migrate_page_forced(gfn, MemKind::Fast).is_ok() {
                migrated += 1;
            }
        }
        migrated
    }

    /// Checked promoter (guided and A/D). Guest-side migration with §4.1
    /// validity checks, through the fault injector when one is armed. A
    /// full FastMem is topped up by demoting one inactive page; a page the
    /// checks turn down stays a candidate for the next scan. Charges the
    /// checks and returns the pages moved and the candidates checked.
    fn promote_checked(&mut self, hot: &[Gfn]) -> (u64, u64) {
        let budget = self.cfg.sim_batch(self.cfg.migrate_batch);
        let mut migrated = 0u64;
        let mut checked = 0u64;
        for &gfn in hot.iter().take(budget as usize) {
            checked += 1;
            if self.kernel.free_frames(MemKind::Fast) == 0 {
                migrated += self.kernel.demote_inactive(MemKind::Fast, 1);
                if self.kernel.free_frames(MemKind::Fast) == 0 {
                    break;
                }
            }
            let res = match self.injector.as_mut() {
                Some(inj) => inj.migrate_page(&mut self.kernel, gfn, MemKind::Fast),
                None => self.kernel.migrate_page(gfn, MemKind::Fast),
            };
            match res {
                Ok(_) => migrated += 1,
                Err(
                    MigrateError::MarkedForReclaim
                    | MigrateError::DirtyIo
                    | MigrateError::NotPresent
                    | MigrateError::AlreadyThere
                    | MigrateError::NotMigratable
                    // Transient (injected) failures resolve by themselves;
                    // the page stays a candidate for the next scan.
                    | MigrateError::Transient,
                ) => {}
                Err(MigrateError::TargetFull) => break,
            }
        }
        // Validity checks are cheap page walks over the candidates.
        let validity = self.cfg.costs.validity_cost(self.cfg.real_pages(checked));
        self.clock.charge(CostCategory::PageWalk, validity);
        (migrated, checked)
    }
}

/// Convenience: run `policy` over an [`AppWorkload`] built from `spec`.
pub fn run_app(cfg: &SimConfig, policy: Policy, spec: hetero_workloads::WorkloadSpec) -> RunReport {
    let workload = AppWorkload::new(spec, cfg.page_size, cfg.scale);
    SingleVmSim::new(cfg.clone(), policy, workload).run()
}


hetero_sim::impl_snap!(struct TierChain { kinds, len });

hetero_sim::impl_snap!(struct SingleVmSim {
    cfg,
    policy,
    workload,
    kernel,
    rng,
    clock,
    tracker,
    scan_scratch,
    interval,
    next_scan,
    next_window,
    prioritized,
    fast_params,
    slow_params,
    medium_params,
    chain_fast_first,
    chain_slow_only,
    chain_slow_first,
    heap_chunks,
    hot_vpns,
    next_demote,
    last_scan_yield,
    ab_cursor,
    ab_harvest,
    cache_next,
    cache_live,
    cache_lazy,
    buffer_next,
    buffer_live,
    buffer_lazy,
    misses_total,
    epoch_misses,
    slow_writes,
    swapped_heap,
    bw_share,
    scans,
    scanned_pages,
    epochs,
    done,
    events,
    telemetry,
    injector,
    degraded,
    storm_factor,
    violations,
    sanitizer,
    migrations_tallied,
    persist,
    timerq,
    epochs_skipped,
    aging_touches,
    heap_gfns,
    pending_crash,
    recoveries,
    recovered_frames,
    lost_frames,
} validate SingleVmSim::check_persist_frames);

impl SingleVmSim<AppWorkload> {
    /// Serializes the complete engine state — kernel, RNG stream, clock,
    /// tracker, event queue, fault injector, persistence domain and every
    /// counter — under a [`LAYER_SINGLE`](crate::snapshot::LAYER_SINGLE)
    /// header. A run resumed via [`SingleVmSim::restore`] continues
    /// byte-identically.
    pub fn save(&self) -> Vec<u8> {
        use hetero_sim::snap::Snap;
        let mut w = hetero_sim::snap::SnapWriter::new();
        hetero_sim::snap::write_header(&mut w, crate::snapshot::LAYER_SINGLE);
        self.snap(&mut w);
        w.into_bytes()
    }

    /// Rebuilds an engine from [`SingleVmSim::save`] bytes. Fails loudly
    /// on a bad magic, version or layer, on truncation, and on trailing
    /// bytes — never panics on malformed input.
    pub fn restore(bytes: &[u8]) -> Result<Self, hetero_sim::snap::SnapshotError> {
        let mut r = hetero_sim::snap::SnapReader::new(bytes);
        hetero_sim::snap::read_header(&mut r, crate::snapshot::LAYER_SINGLE)?;
        let sim = <Self as hetero_sim::snap::Snap>::unsnap(&mut r)?;
        r.finish()?;
        Ok(sim)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetero_workloads::apps;

    fn quick_cfg() -> SimConfig {
        // Small, fast configuration for unit tests: 1/4 capacity ratio.
        SimConfig::paper_default()
            .with_capacity_ratio(1, 4)
            .with_seed(7)
    }

    fn short_spec(mut spec: hetero_workloads::WorkloadSpec) -> hetero_workloads::WorkloadSpec {
        spec.total_instructions /= 5;
        spec
    }

    #[test]
    fn forced_promoter_skips_a_victim_that_fails_to_demote() {
        // FastMem is full. The first cold candidate was freed after the
        // scan, so its demotion fails and the first hot page waits; the
        // second candidate demotes and makes room for the second hot page.
        let cfg = quick_cfg();
        let workload = AppWorkload::new(short_spec(apps::graphchi()), cfg.page_size, cfg.scale);
        let mut sim = SingleVmSim::new(cfg, Policy::VmmExclusive, workload);
        let k = &mut sim.kernel;
        let fill = k.free_frames(MemKind::Fast);
        let (cold, _) = k
            .mmap_heap(fill, std::iter::repeat(1), &[MemKind::Fast])
            .expect("FastMem fills");
        let (hot, _) = k
            .mmap_heap(2, std::iter::repeat(255), &[MemKind::Slow])
            .expect("two hot pages");
        let (gone, _) = k
            .mmap_heap(1, std::iter::repeat(1), &[MemKind::Slow])
            .expect("one page");
        let gfn = |k: &GuestKernel, vpn: u64| k.page_table().translate(vpn).expect("mapped");
        let freed = gfn(k, gone.start);
        k.munmap(gone.start, 1);
        assert_eq!(k.free_frames(MemKind::Fast), 0);
        let hot_gfns = [gfn(k, hot.start), gfn(k, hot.start + 1)];
        sim.scan_scratch.cold_candidates = vec![freed, gfn(&sim.kernel, cold.start)];

        assert_eq!(sim.promote_forced(&hot_gfns), 2);
        let kind = |vpn| sim.kernel.memmap().kind_of(gfn(&sim.kernel, vpn));
        assert_eq!(kind(hot.start), MemKind::Slow, "the first hot page waits");
        assert_eq!(kind(hot.start + 1), MemKind::Fast, "the second is promoted");
        assert_eq!(kind(cold.start), MemKind::Slow, "the second victim is demoted");
    }

    #[test]
    fn fastmem_only_beats_slowmem_only() {
        let cfg = quick_cfg();
        let spec = short_spec(apps::graphchi());
        let fast = run_app(&cfg, Policy::FastMemOnly, spec.clone());
        let slow = run_app(&cfg, Policy::SlowMemOnly, spec);
        assert!(
            slow.runtime > fast.runtime.saturating_mul(2),
            "slow {} vs fast {}",
            slow.runtime,
            fast.runtime
        );
    }

    #[test]
    fn heap_od_helps_heap_bound_apps() {
        let cfg = quick_cfg();
        let spec = short_spec(apps::graphchi());
        let od = run_app(&cfg, Policy::HeapOd, spec.clone());
        let slow = run_app(&cfg, Policy::SlowMemOnly, spec);
        assert!(
            od.gain_percent_vs(&slow) > 20.0,
            "Heap-OD gain {:.1}%",
            od.gain_percent_vs(&slow)
        );
    }

    #[test]
    fn io_prioritization_helps_io_bound_apps() {
        let cfg = quick_cfg();
        let spec = short_spec(apps::leveldb());
        let heap_od = run_app(&cfg, Policy::HeapOd, spec.clone());
        let io_od = run_app(&cfg, Policy::HeapIoSlabOd, spec);
        assert!(
            io_od.runtime < heap_od.runtime,
            "io-od {} vs heap-od {}",
            io_od.runtime,
            heap_od.runtime
        );
    }

    #[test]
    fn vmm_exclusive_pays_tracking_overhead() {
        let cfg = quick_cfg();
        let spec = short_spec(apps::graphchi());
        let r = run_app(&cfg, Policy::VmmExclusive, spec);
        assert!(r.scans > 0, "tracking must run");
        assert!(r.scanned_pages > 0);
        assert!(
            r.overhead_percent() > 1.0,
            "overhead {:.2}%",
            r.overhead_percent()
        );
        assert!(r.migrations > 0, "hot pages must be promoted");
    }

    #[test]
    fn hetero_lru_migrates_without_vmm_scans() {
        let cfg = quick_cfg();
        let spec = short_spec(apps::graphchi());
        let r = run_app(&cfg, Policy::HeteroLru, spec);
        assert_eq!(r.scans, 0, "no VMM tracking in guest-only mode");
        assert_eq!(r.scanned_pages, 0);
    }

    #[test]
    fn coordinated_scans_less_than_vmm_exclusive() {
        let cfg = quick_cfg();
        let spec = short_spec(apps::graphchi());
        let coord = run_app(&cfg, Policy::HeteroCoordinated, spec.clone());
        let vmm = run_app(&cfg, Policy::VmmExclusive, spec);
        // Guided scans touch tracked ranges only; normalised per scan they
        // cover no more than the full-VM batches.
        assert!(coord.scans > 0);
        let per_scan_coord = coord.scanned_pages as f64 / coord.scans as f64;
        let per_scan_vmm = vmm.scanned_pages as f64 / vmm.scans as f64;
        assert!(
            per_scan_coord <= per_scan_vmm * 1.01,
            "guided {per_scan_coord:.0} vs full {per_scan_vmm:.0}"
        );
    }

    #[test]
    fn runs_are_deterministic_given_seed() {
        let cfg = quick_cfg();
        let spec = short_spec(apps::redis());
        let a = run_app(&cfg, Policy::HeteroLru, spec.clone());
        let b = run_app(&cfg, Policy::HeteroLru, spec);
        assert_eq!(a.runtime, b.runtime);
        assert_eq!(a.migrations, b.migrations);
        assert_eq!(a.misses, b.misses);
    }

    #[test]
    fn alloc_miss_ratio_rises_as_fastmem_shrinks() {
        let spec = short_spec(apps::x_stream());
        let big = run_app(
            &quick_cfg().with_capacity_ratio(1, 2),
            Policy::HeapIoSlabOd,
            spec.clone(),
        );
        let small = run_app(
            &quick_cfg().with_capacity_ratio(1, 8),
            Policy::HeapIoSlabOd,
            spec,
        );
        assert!(
            small.fast_alloc_miss_ratio > big.fast_alloc_miss_ratio,
            "1/8 ratio {:.3} vs 1/2 ratio {:.3}",
            small.fast_alloc_miss_ratio,
            big.fast_alloc_miss_ratio
        );
    }

    #[test]
    fn tracing_captures_scans_and_migrations() {
        let cfg = SimConfig {
            trace_events: 64,
            ..quick_cfg()
        };
        let spec = short_spec(apps::graphchi());
        let wl = AppWorkload::new(spec, cfg.page_size, cfg.scale);
        let mut sim = SingleVmSim::new(cfg, Policy::HeteroCoordinated, wl);
        while sim.step() {}
        let log = sim.events().expect("tracing enabled");
        assert!(!log.is_empty());
        assert!(
            log.iter().any(|e| e.kind == hetero_sim::EventKind::Scan)
                || log.dropped() > 0,
            "scans should be traced"
        );
        // Untraced runs carry no log.
        let wl = AppWorkload::new(short_spec(apps::nginx()), 4096, 64);
        let sim = SingleVmSim::new(quick_cfg(), Policy::SlowMemOnly, wl);
        assert!(sim.events().is_none());
    }

    #[test]
    fn tracking_catch_up_runs_four_passes_then_resyncs() {
        for (policy, tracking) in [
            (Policy::VmmExclusive, Tracking::FullVm),
            (Policy::HeteroCoordinated, Tracking::Guided),
            (Policy::HeteroCoordinated, Tracking::AccessBit),
        ] {
            let cfg = quick_cfg().with_tracking(Some(tracking));
            let wl = AppWorkload::new(short_spec(apps::graphchi()), cfg.page_size, cfg.scale);
            let mut sim = SingleVmSim::new(cfg, policy, wl);
            // A few epochs first, so every source has a heap to walk.
            for _ in 0..3 {
                assert!(sim.step());
            }
            // Ten periods behind. The adaptive period can stretch during
            // the passes, so count in the longest one it can reach.
            let longest = sim.scan_period(tracking).max(sim.cfg.adaptive_bounds.1);
            let behind = longest.saturating_mul(10);
            sim.clock.advance(behind);
            sim.next_scan = sim.clock.now() - behind;
            let scans = sim.scans;
            sim.run_management();
            assert_eq!(sim.scans, scans + 4, "{tracking}: catch-up must stop at four passes");
            assert_eq!(
                sim.next_scan,
                sim.clock.now() + sim.scan_period(tracking),
                "{tracking}: a cadence still behind must resync one period ahead"
            );
        }
    }

    #[test]
    fn epoch_count_matches_workload() {
        let cfg = quick_cfg();
        let spec = short_spec(apps::nginx());
        let expected = spec.epochs();
        let r = run_app(&cfg, Policy::SlowMemOnly, spec);
        assert_eq!(r.epochs, expected);
    }

    #[test]
    fn hot_pages_estimate_boundaries() {
        let est = SingleVmSim::<AppWorkload>::hot_pages_estimate;
        let cold = hetero_workloads::WorkloadSpec::COLD_HEAT as u64;
        // No resident pages, no heat: nothing can be hot.
        assert_eq!(est(0, 0), 0);
        // Aggregate heat at or below the all-cold floor `cold·pages`
        // saturates at zero instead of underflowing.
        assert_eq!(est(cold * 100, 100), 0);
        assert_eq!(est(cold * 100 - 1, 100), 0);
        assert_eq!(est(0, 100), 0);
        // Above the floor the estimate grows with aggregate heat.
        let lo = est(cold * 100 + 1_000, 100);
        let hi = est(cold * 100 + 10_000, 100);
        assert!(hi > lo, "estimate must grow with heat: {lo} vs {hi}");
    }

    #[test]
    fn event_sched_matches_dense_sched() {
        for policy in [
            Policy::HeteroCoordinated,
            Policy::HeteroLru,
            Policy::VmmExclusive,
        ] {
            let spec = short_spec(apps::graphchi());
            let dense = run_app(
                &quick_cfg().with_sched(SchedMode::Dense),
                policy,
                spec.clone(),
            );
            let event = run_app(&quick_cfg().with_sched(SchedMode::Event), policy, spec);
            assert_eq!(
                dense.to_json(),
                event.to_json(),
                "{} reports must be byte-identical across schedulers",
                policy.name()
            );
        }
    }

    #[test]
    fn event_sched_skips_idle_management_epochs() {
        // VmmExclusive runs no guest LRU, so with the scan/window cadence
        // stretched past the ~570 ms epoch length the management point has
        // genuinely nothing to do most epochs.
        let mut cfg = quick_cfg().with_sched(SchedMode::Event);
        cfg.scan_interval = Nanos::from_secs(2);
        cfg.stats_window = Nanos::from_secs(2);
        let spec = short_spec(apps::graphchi());
        let wl = AppWorkload::new(spec, cfg.page_size, cfg.scale);
        let mut sim = SingleVmSim::new(cfg, Policy::VmmExclusive, wl);
        while sim.step() {}
        assert!(sim.events_fired() > 0, "queued deadlines must fire");
        assert!(
            sim.epochs_skipped() > 0,
            "a quiet run must skip some management epochs"
        );
    }

    #[test]
    fn engine_counters_are_observational_and_sampled() {
        // Telemetry (and the engine.* scheduler counters it samples) must
        // never perturb the run: the exported report is byte-identical
        // with the registry off and on.
        let run = |telemetry: bool| {
            let cfg = quick_cfg()
                .with_sched(SchedMode::Event)
                .with_telemetry(telemetry);
            let wl = AppWorkload::new(short_spec(apps::graphchi()), cfg.page_size, cfg.scale);
            let mut sim = SingleVmSim::new(cfg, Policy::HeteroCoordinated, wl);
            while sim.step() {}
            sim
        };
        let off = run(false);
        let on = run(true);
        assert_eq!(
            off.report().to_json(),
            on.report().to_json(),
            "telemetry must not perturb the run"
        );
        assert!(off.telemetry().is_none());
        let reg = &on.telemetry().expect("registry was enabled").registry;
        assert_eq!(reg.counter("engine.events_fired"), on.events_fired());
        assert_eq!(reg.counter("engine.epochs_skipped"), on.epochs_skipped());
        assert!(
            reg.counter("engine.events_fired") > 0,
            "an event-mode run must fire deadlines"
        );
    }

    #[test]
    fn eager_persistence_flushes_and_costs_time() {
        let spec = short_spec(apps::graphchi());
        let cfg = quick_cfg().with_persist(hetero_mem::FlushPolicy::Eager);
        let wl = AppWorkload::new(spec.clone(), cfg.page_size, cfg.scale);
        let mut sim = SingleVmSim::new(cfg, Policy::HeapOd, wl);
        while sim.step() {}
        let dom = sim.persist_domain().expect("eager policy arms the domain");
        assert!(dom.flushes > 0, "NVM residents must be flushed");
        assert!(dom.fences > 0);
        let eager = sim.report();
        let off = run_app(&quick_cfg(), Policy::HeapOd, spec);
        assert!(
            eager.runtime >= off.runtime,
            "flush traffic cannot make the run faster: {} vs {}",
            eager.runtime,
            off.runtime
        );
    }

    /// A snapshot whose persistence domain names a frame outside the NVM
    /// tier is refused at restore, never later as an out-of-bounds frame in
    /// recovery; the snapshot it was mutated from restores and recovers.
    #[test]
    fn restore_rejects_persistence_frames_outside_the_nvm_tier() {
        use hetero_sim::snap::{Snap, SnapWriter, SnapshotError};
        let cfg = quick_cfg().with_persist(hetero_mem::FlushPolicy::EpochBatched);
        let wl = AppWorkload::new(short_spec(apps::redis()), cfg.page_size, cfg.scale);
        let mut sim = SingleVmSim::new(cfg, Policy::HeteroCoordinated, wl);
        for _ in 0..20 {
            assert!(sim.step());
        }
        let bytes = sim.save();
        let dom = sim.persist_domain().expect("the policy arms the domain");
        let mut w = SnapWriter::new();
        dom.snap(&mut w);
        let own = w.into_bytes();
        let at = bytes
            .windows(own.len())
            .position(|window| window == own)
            .expect("the snapshot holds the domain's bytes");
        // After the policy byte and the length: each pair is a u64 frame,
        // a state tag and, for a dirty frame (tag 0), a u32.
        let mut pairs = vec![at + 9];
        for _ in 1..dom.tracked() {
            let pair = *pairs.last().unwrap();
            pairs.push(pair + if bytes[pair + 8] == 0 { 13 } else { 9 });
        }
        let (first, last) = (pairs[0], *pairs.last().unwrap());
        let mm = sim.kernel().memmap();
        let (fast, nvm) = (mm.range(MemKind::Fast), mm.range(MemKind::Slow));
        assert!(fast.end == nvm.start && nvm.end < 1_000_000);
        let mutate = |pair: usize, frame: u64| {
            let mut mutant = bytes.clone();
            mutant[pair..pair + 8].copy_from_slice(&frame.to_le_bytes());
            mutant
        };
        for (what, mutant) in [
            ("last frame past the memmap", mutate(last, 1_000_000)),
            ("last frame at u64::MAX", mutate(last, u64::MAX)),
            ("last frame one past the tier", mutate(last, nvm.end)),
            ("last frame into FastMem", mutate(last, fast.start)),
            ("first frame into FastMem", mutate(first, nvm.start - 1)),
        ] {
            let restored = std::panic::catch_unwind(|| SingleVmSim::restore(&mutant));
            let err = restored.expect("restore must not panic").err();
            assert!(matches!(err, Some(SnapshotError::Corrupt(_))), "{what}: {err:?}");
        }
        let mut back = SingleVmSim::restore(&bytes).expect("the unmutated snapshot restores");
        back.recover(FaultKind::GuestCrashPersist);
        assert!(back.recovered_frames() > 0);
    }

    #[test]
    fn crash_recovery_is_deterministic_and_audit_clean() {
        let run = || {
            let cfg = quick_cfg()
                .with_persist(hetero_mem::FlushPolicy::EpochBatched)
                .with_audit(AuditLevel::Epoch);
            let spec = short_spec(apps::redis());
            let wl = AppWorkload::new(spec, cfg.page_size, cfg.scale);
            let mut sim = SingleVmSim::new(cfg, Policy::HeteroLru, wl);
            sim.set_fault_injector(FaultInjector::new(
                hetero_faults::FaultPlan::power_loss(11, 0.05),
            ));
            while sim.step() {}
            assert!(
                sim.violations().is_empty(),
                "recovery oracle found: {:?}",
                sim.violations()
            );
            assert!(sim.recoveries() > 0, "the armed crash must fire");
            let trace = sim.fault_injector().unwrap().trace().to_text();
            (sim.report(), trace)
        };
        let (a, ta) = run();
        let (b, tb) = run();
        assert_eq!(a.runtime, b.runtime);
        assert_eq!(a.migrations, b.migrations);
        assert_eq!(ta, tb, "fault traces must be byte-identical");
    }

    #[test]
    fn guest_crash_preserves_nvm_power_loss_without_persistence_loses_all() {
        let slow_resident = |sim: &SingleVmSim| -> u64 {
            let mm = sim.kernel().memmap();
            mm.iter_kind(MemKind::Slow)
                .filter(|&g| mm.page(g).is_present())
                .count() as u64
        };
        // Guest crash with NVM survival: SlowMem residents are rebuilt.
        let cfg = quick_cfg()
            .with_persist(hetero_mem::FlushPolicy::Eager)
            .with_audit(AuditLevel::Epoch);
        let spec = short_spec(apps::graphchi());
        let wl = AppWorkload::new(spec.clone(), cfg.page_size, cfg.scale);
        let mut sim = SingleVmSim::new(cfg, Policy::SlowMemOnly, wl);
        for _ in 0..20 {
            if !sim.step() {
                break;
            }
        }
        assert!(slow_resident(&sim) > 0, "workload must populate SlowMem");
        sim.recover(hetero_faults::FaultKind::GuestCrashPersist);
        assert!(sim.recovered_frames() > 0, "NVM residents survive a guest crash");
        assert!(slow_resident(&sim) > 0);
        assert!(sim.violations().is_empty(), "{:?}", sim.violations());
        // Power loss with persistence off: nothing is durable.
        let cfg = quick_cfg().with_audit(AuditLevel::Epoch);
        let wl = AppWorkload::new(spec, cfg.page_size, cfg.scale);
        let mut sim = SingleVmSim::new(cfg, Policy::SlowMemOnly, wl);
        for _ in 0..20 {
            if !sim.step() {
                break;
            }
        }
        sim.recover(hetero_faults::FaultKind::HostPowerLoss);
        assert_eq!(sim.recovered_frames(), 0, "no flush policy, no survivors");
        assert!(sim.lost_frames() > 0);
        assert!(sim.violations().is_empty(), "{:?}", sim.violations());
    }

    #[test]
    fn hot_pages_estimate_guards_degenerate_heat_anchors() {
        let cold = hetero_workloads::WorkloadSpec::COLD_HEAT as u64;
        // Degenerate spec: expected hot heat *equals* the cold floor. The
        // unguarded inversion divides by zero, sends +inf through the
        // `as u64` cast, and reports u64::MAX hot pages.
        assert_eq!(
            SingleVmSim::<AppWorkload>::hot_pages_estimate_with(10_000, 100, cold as f64, cold),
            0
        );
        // Hot heat *below* cold (negative denominator) must also clamp.
        assert_eq!(
            SingleVmSim::<AppWorkload>::hot_pages_estimate_with(10_000, 100, 1.0, cold),
            0
        );
        // A fully cooled heap (aggregate at the all-cold floor) reads zero.
        assert_eq!(
            SingleVmSim::<AppWorkload>::hot_pages_estimate_with(cold * 100, 100, 143.7, cold),
            0
        );
        // Sanity: the healthy anchors still invert: 50 hot pages at heat
        // 143.7 over a 100-page heap.
        let heat = (50.0 * 143.7) as u64 + 50 * cold;
        let est = SingleVmSim::<AppWorkload>::hot_pages_estimate_with(heat, 100, 143.7, cold);
        assert!((49..=51).contains(&est), "estimate {est} should be ~50");
    }
}
