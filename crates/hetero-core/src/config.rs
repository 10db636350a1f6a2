//! Simulation configuration.

use std::fmt;
use std::str::FromStr;

use hetero_faults::AuditLevel;
use hetero_mem::{CostModel, FlushPolicy, LlcModel, ThrottleConfig, TierProfile};
use hetero_sim::snap::{Snap, SnapReader, SnapWriter, SnapshotError};
use hetero_sim::Nanos;

use crate::policy::Tracking;

/// How the epoch engine schedules its periodic management work.
///
/// Both modes produce **byte-identical** reports, traces and exports for
/// the same configuration (pinned by `tests/sched_equivalence.rs`); they
/// differ only in wall-clock cost. `Dense` re-evaluates every subsystem's
/// internal guard every epoch; `Event` keeps each subsystem's next
/// deadline in an [`EventQueue`](crate::eventq::EventQueue) and skips the
/// management phase outright when nothing is due.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedMode {
    /// Walk every management subsystem every epoch (the reference
    /// scheduler; each subsystem no-ops off its own internal guard).
    Dense,
    /// Event-driven: management runs only when a queued deadline has
    /// arrived or the cold-page ledger reports pending LRU aging work.
    #[default]
    Event,
}

impl fmt::Display for SchedMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchedMode::Dense => write!(f, "dense"),
            SchedMode::Event => write!(f, "event"),
        }
    }
}

impl FromStr for SchedMode {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "dense" => Ok(SchedMode::Dense),
            "event" => Ok(SchedMode::Event),
            other => Err(format!(
                "unknown sched mode '{other}' (expected dense or event)"
            )),
        }
    }
}

/// Full configuration of one simulated guest + policy run.
///
/// Defaults reproduce the paper's evaluation platform (§5.1): 16 cores,
/// 8 GB SlowMem at `(L:5, B:9)`, FastMem capacity varied per experiment,
/// 16 MB LLC, 100 ms hotness-scan interval over 32 K-page batches.
///
/// Capacities are expressed at **paper scale** (bytes); the engine divides
/// them by [`SimConfig::scale`], with each simulated page standing for
/// `scale` real 4 KiB pages. Management costs are converted back to real
/// pages before being charged, so Table 6 / Fig 8 economics are preserved.
///
/// # Examples
///
/// ```
/// use hetero_core::SimConfig;
///
/// let cfg = SimConfig::paper_default().with_fast_bytes(1 << 30);
/// assert_eq!(cfg.fast_bytes, 1 << 30);
/// assert!(cfg.guest_frames_fast() > 0);
/// ```
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// FastMem capacity in bytes (paper scale).
    pub fast_bytes: u64,
    /// SlowMem capacity in bytes (paper scale).
    pub slow_bytes: u64,
    /// MediumMem capacity in bytes (0 = two-tier, the paper's core design;
    /// non-zero enables the §4.3 multi-level extension).
    pub medium_bytes: u64,
    /// FastMem timing.
    pub fast_throttle: ThrottleConfig,
    /// SlowMem timing.
    pub slow_throttle: ThrottleConfig,
    /// MediumMem timing (conventional DRAM between 3D-stacked and NVM).
    pub medium_throttle: ThrottleConfig,
    /// Last-level cache model.
    pub llc: LlcModel,
    /// Simulated page size in bytes.
    pub page_size: u64,
    /// Scale divisor: one simulated page = `scale` real pages.
    pub scale: u64,
    /// RNG seed (runs are deterministic given the seed).
    pub seed: u64,
    /// Management cost model (Table 6 anchors).
    pub costs: CostModel,
    /// Guest vCPUs.
    pub cpus: usize,
    /// Hotness-scan interval (VMM-exclusive fixed; coordinated initial).
    pub scan_interval: Nanos,
    /// Pages (real 4 KiB) examined per scan.
    pub scan_batch: u64,
    /// Maximum pages (real 4 KiB) migrated per interval.
    pub migrate_batch: u64,
    /// Maximum pages (real 4 KiB) the guest LRU demotes per management
    /// window. Fig 12 reports HeteroOS-LRU moving only ~0.1 M pages over a
    /// full run — an order of magnitude below the tracker-driven policies.
    pub demote_batch: u64,
    /// FastMem free fraction below which HeteroOS-LRU demotes (§3.3
    /// memory-type-specific threshold).
    pub fast_low_watermark: f64,
    /// Heat below which an active page is aged to the inactive list.
    pub lru_cold_heat: u8,
    /// LRU pages examined per epoch for aging.
    pub lru_age_batch: usize,
    /// Statistics window for demand-based prioritization (§3.2: 100 ms).
    pub stats_window: Nanos,
    /// Adaptive-interval clamp for the guided and A/D tracking cadences
    /// (§5.4: 50 ms – 1 s).
    pub adaptive_bounds: (Nanos, Nanos),
    /// Ablation: disable Eq. 1 interval adaptation (fixed `scan_interval`).
    pub adaptive_interval: bool,
    /// Ablation: when `false`, the coordinated policy scans the full VM
    /// instead of the guest-supplied tracking list.
    pub guided_tracking: bool,
    /// Ablation: force eager (`Some(true)`) or lazy (`Some(false)`) release
    /// of completed I/O pages regardless of policy.
    pub eager_io_override: Option<bool>,
    /// §4.3 extension: page-type-specific demotion — anonymous pages step
    /// down one tier at a time, released I/O pages drop straight to the
    /// slowest tier. Identical to plain demotion on two-tier machines.
    pub typed_demotion: bool,
    /// §4.3 extension: model the slow tier as NVM with the Table 1 store
    /// asymmetry (stores cost 2× loads) instead of symmetric throttled
    /// DRAM.
    pub nvm_slow: bool,
    /// §4.3 extension: write-aware coordinated migration — promote
    /// write-heavy SlowMem pages first, keeping read-heavy pages behind
    /// (only meaningful with `nvm_slow`).
    pub write_aware: bool,
    /// §4.3 extension: non-virtualized deployment — hotness tracking and
    /// fair sharing run inside the OS, so scans and TLB shoot-downs skip
    /// the hypervisor's world switches and grant bookkeeping (modelled as
    /// half the Table-6 scan/flush cost).
    pub bare_metal: bool,
    /// Capacity of the run's event log (0 disables tracing). Events are
    /// available through `SingleVmSim::events` after/while running.
    pub trace_events: usize,
    /// §3.1 extension: applications pass explicit FastMem placement hints
    /// for their hot buffers (the extended `mmap()` flag). HeteroOS does
    /// not depend on this; the `ext-hints` experiment quantifies how much
    /// transparency leaves on the table.
    pub app_hints: bool,
    /// Invariant-sanitizer level (`Off`/`Epoch`/`Paranoid`). Observational
    /// only — every exported byte (report, traces, telemetry) is identical
    /// across levels. A non-`Off` level audits every engine step and
    /// collects typed violation reports (`SingleVmSim::violations`);
    /// `SingleVmSim::run` and `MultiVmSim::run` then panic on the first
    /// violation instead of silently continuing. Costs at least a full
    /// memmap walk per step — meant for chaos/fault runs and debugging,
    /// not performance experiments.
    pub audit: AuditLevel,
    /// Collect structured telemetry — a named metrics registry plus
    /// hierarchical sim-time spans (`SingleVmSim::telemetry`). Purely
    /// observational: RNG draw order, clock charges, the `RunReport` and
    /// the event trace are byte-identical with it on or off. Off by
    /// default (zero cost).
    pub telemetry: bool,
    /// Management scheduler: `Event` (the default) runs scans, reclaim
    /// windows and statistics rolls off a deterministic event queue and
    /// skips idle epochs; `Dense` re-walks every subsystem every epoch.
    /// Byte-identical output either way — only wall-clock differs.
    pub sched: SchedMode,
    /// NVM persistence domain write-behind policy for the slow tier
    /// (crash-consistency). `Off` (the default) maintains no persistence
    /// state and charges nothing — runs are byte-identical to builds
    /// without the subsystem. Any other policy tracks per-frame
    /// dirty/flushed state, charges `clflush`/`sfence` costs through
    /// [`CostModel::flush_cost`], and makes `HostPowerLoss` /
    /// `GuestCrashPersist` faults survivable via `SingleVmSim::recover`.
    pub persist: FlushPolicy,
    /// Named device-profile tier topology (`repro --tier-profile`). `None`
    /// (the default) keeps the throttle-derived Table-3 node parameters;
    /// `Some(profile)` resolves each populated tier's latency and
    /// read/write bandwidth from the registry instead (the
    /// [`TierProfile`] docs list the profiles). The medium tier still
    /// activates only when `medium_bytes > 0`.
    pub tier_profile: Option<TierProfile>,
    /// Hotness-tracking override (`repro --tracking`). `None` (the
    /// default) uses the policy's own discipline
    /// ([`Policy::tracking`](crate::Policy::tracking));
    /// `Some(Tracking::AccessBit)` swaps the scan source to page-table
    /// A/D harvests while keeping the rest of the policy intact.
    pub tracking_override: Option<Tracking>,
}

impl SimConfig {
    /// The paper's single-VM evaluation defaults (§5.1).
    pub fn paper_default() -> Self {
        SimConfig {
            fast_bytes: 2 << 30,
            slow_bytes: 8 << 30,
            medium_bytes: 0,
            fast_throttle: ThrottleConfig::fast_mem(),
            slow_throttle: ThrottleConfig::slow_mem_default(),
            medium_throttle: ThrottleConfig::from_factors(2.0, 2.0),
            llc: LlcModel::testbed(),
            page_size: 4096,
            scale: 64,
            seed: 42,
            costs: CostModel::default(),
            cpus: 16,
            scan_interval: Nanos::from_millis(100),
            // §5.4 evaluates VMM-exclusive with "hot page scan of 16K
            // guest-VM pages in a 100 msec interval"; Fig 8 sweeps a 32 K
            // batch explicitly.
            scan_batch: 16 * 1024,
            // Table 6 prices a migrated page at ~69 µs (walk + copy), and
            // Fig 8/12's migration volumes (0.1–3 M pages over multi-minute
            // runs) imply a sustainable rate of ~2.5 K real pages/second —
            // 256 pages per 100 ms interval (~18 ms of migration time).
            migrate_batch: 256,
            demote_batch: 64,
            fast_low_watermark: 0.08,
            lru_cold_heat: 48,
            lru_age_batch: 256,
            stats_window: Nanos::from_millis(100),
            adaptive_bounds: (Nanos::from_millis(50), Nanos::from_secs(1)),
            adaptive_interval: true,
            guided_tracking: true,
            eager_io_override: None,
            typed_demotion: true,
            nvm_slow: false,
            write_aware: false,
            bare_metal: false,
            trace_events: 0,
            app_hints: false,
            audit: AuditLevel::Off,
            telemetry: false,
            sched: SchedMode::Event,
            persist: FlushPolicy::Off,
            tier_profile: None,
            tracking_override: None,
        }
    }

    /// Sets FastMem capacity (paper scale).
    pub fn with_fast_bytes(mut self, bytes: u64) -> Self {
        self.fast_bytes = bytes;
        self
    }

    /// Sets SlowMem capacity (paper scale).
    pub fn with_slow_bytes(mut self, bytes: u64) -> Self {
        self.slow_bytes = bytes;
        self
    }

    /// Enables the three-tier extension with a MediumMem of `bytes`.
    pub fn with_medium_bytes(mut self, bytes: u64) -> Self {
        self.medium_bytes = bytes;
        self
    }

    /// Sets SlowMem timing.
    pub fn with_slow_throttle(mut self, t: ThrottleConfig) -> Self {
        self.slow_throttle = t;
        self
    }

    /// Sets the LLC model (Fig 1 vs Fig 2 platform).
    pub fn with_llc(mut self, llc: LlcModel) -> Self {
        self.llc = llc;
        self
    }

    /// Sets the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the hotness-scan interval.
    pub fn with_scan_interval(mut self, interval: Nanos) -> Self {
        self.scan_interval = interval;
        self
    }

    /// Sets the invariant-sanitizer level.
    pub fn with_audit(mut self, level: AuditLevel) -> Self {
        self.audit = level;
        self
    }

    /// Toggles structured telemetry (metrics registry + spans).
    pub fn with_telemetry(mut self, on: bool) -> Self {
        self.telemetry = on;
        self
    }

    /// Selects the NVM persistence write-behind policy.
    pub fn with_persist(mut self, policy: FlushPolicy) -> Self {
        self.persist = policy;
        self
    }

    /// Selects the management scheduler (`Dense` reference walker or the
    /// default event-driven skipper).
    pub fn with_sched(mut self, sched: SchedMode) -> Self {
        self.sched = sched;
        self
    }

    /// Selects a named device-profile tier topology (`None` restores the
    /// throttle-derived defaults).
    pub fn with_tier_profile(mut self, profile: Option<TierProfile>) -> Self {
        self.tier_profile = profile;
        self
    }

    /// Overrides the hotness-tracking discipline (`None` restores the
    /// policy's own choice).
    pub fn with_tracking(mut self, tracking: Option<Tracking>) -> Self {
        self.tracking_override = tracking;
        self
    }

    /// Sets the FastMem:SlowMem capacity ratio the way the paper states it
    /// ("1/8 ratio" = FastMem is 1/8 of SlowMem).
    pub fn with_capacity_ratio(mut self, num: u64, den: u64) -> Self {
        assert!(num > 0 && den > 0, "ratio must be positive");
        self.fast_bytes = self.slow_bytes * num / den;
        self
    }

    /// Simulated guest frames on FastMem.
    pub fn guest_frames_fast(&self) -> u64 {
        (self.fast_bytes / self.scale / self.page_size).max(1)
    }

    /// Simulated guest frames on SlowMem.
    pub fn guest_frames_slow(&self) -> u64 {
        (self.slow_bytes / self.scale / self.page_size).max(1)
    }

    /// Simulated guest frames on MediumMem (0 when not configured).
    pub fn guest_frames_medium(&self) -> u64 {
        self.medium_bytes / self.scale / self.page_size
    }

    /// Real 4 KiB pages represented by one simulated page.
    pub fn granule(&self) -> u64 {
        self.scale * self.page_size / 4096
    }

    /// Converts a simulated page count to real pages for cost charging.
    pub fn real_pages(&self, sim_pages: u64) -> u64 {
        sim_pages * self.granule()
    }

    /// Simulated pages corresponding to a real-page batch parameter.
    pub fn sim_batch(&self, real_pages: u64) -> u64 {
        (real_pages / self.granule()).max(1)
    }
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig::paper_default()
    }
}

hetero_sim::impl_snap!(enum SchedMode {
    0 => Dense {},
    1 => Event {},
});

// Every snapshot opens with its `SimConfig`, so the encoding keeps two
// one-byte slots after `app_hints` for flags that no longer exist:
// `bulk_ops` (written as 1 and ignored on read; scalar dispatch was
// byte-identical to the bulk path) and `audit_invariants` (written as 0; a
// 1 restores as `audit: Epoch` when `audit` is `Off`, the level the flag
// stood for). Both still decode as bools.
impl Snap for SimConfig {
    fn snap(&self, w: &mut SnapWriter) {
        self.fast_bytes.snap(w);
        self.slow_bytes.snap(w);
        self.medium_bytes.snap(w);
        self.fast_throttle.snap(w);
        self.slow_throttle.snap(w);
        self.medium_throttle.snap(w);
        self.llc.snap(w);
        self.page_size.snap(w);
        self.scale.snap(w);
        self.seed.snap(w);
        self.costs.snap(w);
        self.cpus.snap(w);
        self.scan_interval.snap(w);
        self.scan_batch.snap(w);
        self.migrate_batch.snap(w);
        self.demote_batch.snap(w);
        self.fast_low_watermark.snap(w);
        self.lru_cold_heat.snap(w);
        self.lru_age_batch.snap(w);
        self.stats_window.snap(w);
        self.adaptive_bounds.snap(w);
        self.adaptive_interval.snap(w);
        self.guided_tracking.snap(w);
        self.eager_io_override.snap(w);
        self.typed_demotion.snap(w);
        self.nvm_slow.snap(w);
        self.write_aware.snap(w);
        self.bare_metal.snap(w);
        self.trace_events.snap(w);
        self.app_hints.snap(w);
        w.put_bool(true);
        w.put_bool(false);
        self.audit.snap(w);
        self.telemetry.snap(w);
        self.sched.snap(w);
        self.persist.snap(w);
        self.tier_profile.snap(w);
        self.tracking_override.snap(w);
    }

    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        // Fields decode in the order written, as the struct expression
        // evaluates them.
        Ok(SimConfig {
            fast_bytes: Snap::unsnap(r)?,
            slow_bytes: Snap::unsnap(r)?,
            medium_bytes: Snap::unsnap(r)?,
            fast_throttle: Snap::unsnap(r)?,
            slow_throttle: Snap::unsnap(r)?,
            medium_throttle: Snap::unsnap(r)?,
            llc: Snap::unsnap(r)?,
            page_size: Snap::unsnap(r)?,
            scale: Snap::unsnap(r)?,
            seed: Snap::unsnap(r)?,
            costs: Snap::unsnap(r)?,
            cpus: Snap::unsnap(r)?,
            scan_interval: Snap::unsnap(r)?,
            scan_batch: Snap::unsnap(r)?,
            migrate_batch: Snap::unsnap(r)?,
            demote_batch: Snap::unsnap(r)?,
            fast_low_watermark: Snap::unsnap(r)?,
            lru_cold_heat: Snap::unsnap(r)?,
            lru_age_batch: Snap::unsnap(r)?,
            stats_window: Snap::unsnap(r)?,
            adaptive_bounds: Snap::unsnap(r)?,
            adaptive_interval: Snap::unsnap(r)?,
            guided_tracking: Snap::unsnap(r)?,
            eager_io_override: Snap::unsnap(r)?,
            typed_demotion: Snap::unsnap(r)?,
            nvm_slow: Snap::unsnap(r)?,
            write_aware: Snap::unsnap(r)?,
            bare_metal: Snap::unsnap(r)?,
            trace_events: Snap::unsnap(r)?,
            app_hints: Snap::unsnap(r)?,
            audit: {
                let _bulk = r.take_bool()?;
                let legacy_audit = r.take_bool()?;
                match AuditLevel::unsnap(r)? {
                    AuditLevel::Off if legacy_audit => AuditLevel::Epoch,
                    level => level,
                }
            },
            telemetry: Snap::unsnap(r)?,
            sched: Snap::unsnap(r)?,
            persist: Snap::unsnap(r)?,
            tier_profile: Snap::unsnap(r)?,
            tracking_override: Snap::unsnap(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_platform() {
        let c = SimConfig::paper_default();
        assert_eq!(c.slow_bytes, 8 << 30);
        assert_eq!(c.scan_interval, Nanos::from_millis(100));
        assert_eq!(c.scan_batch, 16 * 1024); // §5.4's stated VMM-exclusive config
        assert_eq!(c.cpus, 16);
        assert_eq!(c.llc.size_bytes(), 16 << 20);
    }

    #[test]
    fn capacity_ratio_divides_slow() {
        let c = SimConfig::paper_default().with_capacity_ratio(1, 8);
        assert_eq!(c.fast_bytes, 1 << 30);
        let c = SimConfig::paper_default().with_capacity_ratio(1, 2);
        assert_eq!(c.fast_bytes, 4 << 30);
    }

    #[test]
    fn granule_and_conversions_roundtrip() {
        let c = SimConfig::paper_default();
        assert_eq!(c.granule(), 64);
        assert_eq!(c.real_pages(10), 640);
        assert_eq!(c.sim_batch(32 * 1024), 512);
        assert_eq!(c.sim_batch(1), 1, "batches never round to zero");
    }

    #[test]
    fn frame_counts_scale() {
        let c = SimConfig::paper_default();
        assert_eq!(c.guest_frames_slow(), (8u64 << 30) / 64 / 4096);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_ratio_rejected() {
        SimConfig::paper_default().with_capacity_ratio(0, 8);
    }

    #[test]
    fn sched_defaults_to_event_and_parses() {
        let c = SimConfig::paper_default();
        assert_eq!(c.sched, SchedMode::Event);
        assert_eq!(c.with_sched(SchedMode::Dense).sched, SchedMode::Dense);
        assert_eq!("dense".parse::<SchedMode>(), Ok(SchedMode::Dense));
        assert_eq!("event".parse::<SchedMode>(), Ok(SchedMode::Event));
        assert!("wheel".parse::<SchedMode>().is_err());
        assert_eq!(SchedMode::Event.to_string(), "event");
        assert_eq!(SchedMode::Dense.to_string(), "dense");
    }

    #[test]
    fn tier_profile_and_tracking_default_off() {
        let c = SimConfig::paper_default();
        assert_eq!(c.tier_profile, None);
        assert_eq!(c.tracking_override, None);
        let c = c
            .with_tier_profile(Some(TierProfile::OptaneDc))
            .with_tracking(Some(Tracking::AccessBit));
        assert_eq!(c.tier_profile, Some(TierProfile::OptaneDc));
        assert_eq!(c.tracking_override, Some(Tracking::AccessBit));
        assert_eq!(c.with_tier_profile(None).tier_profile, None);
    }

    #[test]
    fn persistence_defaults_off() {
        let c = SimConfig::paper_default();
        assert_eq!(c.persist, FlushPolicy::Off);
        assert_eq!(
            c.with_persist(FlushPolicy::EpochBatched).persist,
            FlushPolicy::EpochBatched
        );
    }
}
