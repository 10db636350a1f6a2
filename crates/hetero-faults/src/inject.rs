//! The fault injector: a [`FaultPlan`] turned into per-site decisions.
//!
//! One [`FaultInjector`] is threaded through a run. At each boundary the
//! caller asks it a question — "does this allocation fail?", "what happens
//! to this message?" — and every *yes* is appended to a [`FaultTrace`].
//! Decisions come only from the plan's seeded RNG, so a run's trace is a
//! pure function of `(plan, call sequence)`: the chaos soak asserts the
//! same seed reproduces a byte-identical trace.

use std::fmt;

use hetero_guest::kernel::MigrateError;
use hetero_guest::kswapd::Kswapd;
use hetero_guest::page::Gfn;
use hetero_guest::GuestKernel;
use hetero_mem::frames::OutOfFrames;
use hetero_mem::{MachineMemory, MemKind, Mfn, ThrottleConfig};
use hetero_sim::SimRng;
use hetero_vmm::channel::{BackMsg, FrontMsg, RingFull, SharedRing};

use crate::plan::{FaultKind, FaultPlan, PlanError};

/// Where in the stack a fault was injected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultSite {
    /// `hetero-mem`: machine frame allocation.
    MemAlloc,
    /// `hetero-mem`: the throttle model (latency storms).
    Throttle,
    /// `hetero-guest`: page migration.
    Migration,
    /// `hetero-guest`: background reclaim.
    Kswapd,
    /// `hetero-vmm`: guest→VMM ring direction.
    RingFront,
    /// `hetero-vmm`: VMM→guest ring direction.
    RingBack,
    /// `hetero-vmm`: whole-guest lifecycle.
    Guest,
    /// Whole-host lifecycle (power).
    Host,
}

impl fmt::Display for FaultSite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            FaultSite::MemAlloc => "mem/alloc",
            FaultSite::Throttle => "mem/throttle",
            FaultSite::Migration => "guest/migrate",
            FaultSite::Kswapd => "guest/kswapd",
            FaultSite::RingFront => "vmm/ring-front",
            FaultSite::RingBack => "vmm/ring-back",
            FaultSite::Guest => "vmm/guest",
            FaultSite::Host => "host/power",
        };
        f.write_str(s)
    }
}

/// One injected fault, as recorded in the trace.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultRecord {
    /// Engine step (as counted by [`FaultInjector::begin_step`]) when the
    /// fault fired.
    pub step: u64,
    /// Boundary it fired at.
    pub site: FaultSite,
    /// What was injected.
    pub kind: FaultKind,
}

impl fmt::Display for FaultRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "step {:>6} {:<15} {}", self.step, self.site, self.kind)
    }
}

/// The ordered log of every fault an injector fired.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultTrace {
    records: Vec<FaultRecord>,
}

impl FaultTrace {
    /// Records in injection order.
    pub fn iter(&self) -> impl Iterator<Item = &FaultRecord> {
        self.records.iter()
    }

    /// Number of injected faults.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when nothing was injected.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Faults fired at one site.
    pub fn at_site(&self, site: FaultSite) -> usize {
        self.records.iter().filter(|r| r.site == site).count()
    }

    /// One line per fault — the canonical form the determinism check
    /// compares byte-for-byte.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for r in &self.records {
            out.push_str(&r.to_string());
            out.push('\n');
        }
        out
    }
}

/// What the injector decided to do with a channel message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RingAction {
    /// Post normally.
    Deliver,
    /// Silently lose the message.
    Drop,
    /// Hold the message for this many flush rounds.
    Delay(u32),
    /// Report the ring full without posting (backpressure).
    Reject,
}

/// Per-run fault state: the plan, its RNG stream, active multi-step faults
/// and the trace.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    plan: FaultPlan,
    rng: SimRng,
    step: u64,
    trace: FaultTrace,
    /// Active latency storm: (factor, steps left).
    storm: Option<(f64, u32)>,
    /// Steps the reclaim daemon stays stalled.
    stall_left: u32,
    delayed_front: Vec<(u32, FrontMsg)>,
    delayed_back: Vec<(u32, BackMsg)>,
}

impl FaultInjector {
    /// Builds an injector from a plan, seeding its private RNG stream.
    ///
    /// # Panics
    ///
    /// Panics if the plan fails [`FaultPlan::validate`] — an out-of-range
    /// probability or zero duration bound would otherwise misbehave (or
    /// panic) deep inside an RNG draw far from where it was written. Use
    /// [`FaultInjector::try_new`] to handle the error, or
    /// [`FaultPlan::clamped`] to force fields into range.
    pub fn new(plan: FaultPlan) -> Self {
        match Self::try_new(plan) {
            Ok(inj) => inj,
            Err(e) => panic!("{e}"),
        }
    }

    /// As [`FaultInjector::new`], surfacing an invalid plan as an error.
    ///
    /// # Errors
    ///
    /// Returns the first [`PlanError`] from [`FaultPlan::validate`].
    pub fn try_new(plan: FaultPlan) -> Result<Self, PlanError> {
        plan.validate()?;
        let rng = SimRng::seed_from(plan.seed);
        Ok(FaultInjector {
            plan,
            rng,
            step: 0,
            trace: FaultTrace::default(),
            storm: None,
            stall_left: 0,
            delayed_front: Vec::new(),
            delayed_back: Vec::new(),
        })
    }

    /// The plan this injector runs.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Current step counter.
    pub fn step(&self) -> u64 {
        self.step
    }

    /// Everything injected so far.
    pub fn trace(&self) -> &FaultTrace {
        &self.trace
    }

    fn record(&mut self, site: FaultSite, kind: FaultKind) {
        self.trace.records.push(FaultRecord {
            step: self.step,
            site,
            kind,
        });
    }

    /// Advances the step counter and decays multi-step faults. Call once at
    /// the top of every engine step.
    pub fn begin_step(&mut self) {
        self.step += 1;
        if let Some((_, left)) = &mut self.storm {
            *left -= 1;
            if *left == 0 {
                self.storm = None;
            }
        }
        self.stall_left = self.stall_left.saturating_sub(1);
    }

    // ------------------------------------------------- hetero-mem boundary

    /// Does this machine frame allocation fail?
    pub fn fail_alloc(&mut self, kind: MemKind) -> bool {
        if self.rng.chance(self.plan.alloc_fail) {
            self.record(FaultSite::MemAlloc, FaultKind::AllocFail(kind));
            true
        } else {
            false
        }
    }

    /// Machine frame allocation with injection: a planned failure surfaces
    /// as [`OutOfFrames`] exactly as real exhaustion would.
    ///
    /// # Errors
    ///
    /// Returns [`OutOfFrames`] on injection or genuine exhaustion.
    pub fn alloc_frames(
        &mut self,
        machine: &mut MachineMemory,
        kind: MemKind,
        n: u64,
    ) -> Result<Vec<Mfn>, OutOfFrames> {
        if self.fail_alloc(kind) {
            return Err(OutOfFrames {
                requested: n,
                available: 0,
            });
        }
        machine.alloc_frames(kind, n)
    }

    /// Current throttle multiplier: `1.0` outside a storm; inside one, the
    /// storm's factor. May start a new storm (recorded once, at onset).
    pub fn storm_factor(&mut self) -> f64 {
        if let Some((factor, _)) = self.storm {
            return factor;
        }
        if self.rng.chance(self.plan.latency_storm) {
            let span = (self.plan.storm_max_factor - 1.0).max(0.0);
            let factor = 1.0 + self.rng.next_f64() * span;
            let epochs = self
                .rng
                .next_range(1, u64::from(self.plan.storm_max_epochs) + 1)
                as u32;
            self.storm = Some((factor, epochs));
            self.record(
                FaultSite::Throttle,
                FaultKind::LatencyStorm { factor, epochs },
            );
            factor
        } else {
            1.0
        }
    }

    /// A tier's throttle config under the current storm: both factors are
    /// scaled by [`Self::storm_factor`] and refit through the paper's model.
    pub fn storm_throttle(&mut self, base: &ThrottleConfig) -> ThrottleConfig {
        let f = self.storm_factor();
        if f <= 1.0 {
            return *base;
        }
        ThrottleConfig::from_factors(base.latency_factor * f, base.bandwidth_factor * f)
    }

    // ----------------------------------------------- hetero-guest boundary

    /// Does this migration fail transiently?
    pub fn fail_migration(&mut self) -> bool {
        if self.rng.chance(self.plan.migrate_fail) {
            self.record(FaultSite::Migration, FaultKind::MigrateFail);
            true
        } else {
            false
        }
    }

    /// Page migration with injection: a planned transient failure surfaces
    /// as [`MigrateError::Transient`], which callers treat as retryable.
    ///
    /// # Errors
    ///
    /// Returns any [`MigrateError`] the kernel itself reports, or
    /// [`MigrateError::Transient`] when the fault fires.
    pub fn migrate_page(
        &mut self,
        kernel: &mut GuestKernel,
        gfn: Gfn,
        target: MemKind,
    ) -> Result<Gfn, MigrateError> {
        if self.fail_migration() {
            return Err(MigrateError::Transient);
        }
        kernel.migrate_page(gfn, target)
    }

    /// Is the background reclaim daemon stalled this step? May start a new
    /// stall (recorded once, at onset).
    pub fn kswapd_stalled(&mut self) -> bool {
        if self.stall_left > 0 {
            return true;
        }
        if self.rng.chance(self.plan.kswapd_stall) {
            let steps =
                self.rng
                    .next_range(1, u64::from(self.plan.stall_max_steps) + 1) as u32;
            self.stall_left = steps;
            self.record(FaultSite::Kswapd, FaultKind::KswapdStall { steps });
            true
        } else {
            false
        }
    }

    /// Kswapd balance pass with injection: a stalled daemon reclaims
    /// nothing this step.
    pub fn kswapd_balance(
        &mut self,
        daemon: &mut Kswapd,
        kernel: &mut GuestKernel,
        kind: MemKind,
    ) -> u64 {
        if self.kswapd_stalled() {
            0
        } else {
            daemon.balance(kernel, kind)
        }
    }

    // ------------------------------------------------- hetero-vmm boundary

    /// Decides the fate of one channel message at `site`.
    pub fn ring_action(&mut self, site: FaultSite) -> RingAction {
        if self.rng.chance(self.plan.ring_full) {
            self.record(site, FaultKind::RingFullBackpressure);
            return RingAction::Reject;
        }
        if self.rng.chance(self.plan.ring_drop) {
            self.record(site, FaultKind::RingDrop);
            return RingAction::Drop;
        }
        if self.rng.chance(self.plan.ring_delay) {
            let ticks =
                self.rng
                    .next_range(1, u64::from(self.plan.delay_max_ticks) + 1) as u32;
            self.record(site, FaultKind::RingDelay { ticks });
            return RingAction::Delay(ticks);
        }
        RingAction::Deliver
    }

    /// Guest→VMM post through the injector.
    ///
    /// Dropped messages return `Ok` (the sender cannot tell); delayed ones
    /// are held until [`Self::flush_delayed`] releases them; injected
    /// backpressure surfaces as [`RingFull`] exactly like a full ring.
    ///
    /// # Errors
    ///
    /// Returns [`RingFull`] on injected backpressure or a genuinely full
    /// ring.
    pub fn post_front(&mut self, ring: &mut SharedRing, msg: FrontMsg) -> Result<(), RingFull> {
        match self.ring_action(FaultSite::RingFront) {
            RingAction::Deliver => ring.post_front(msg),
            RingAction::Drop => Ok(()),
            RingAction::Delay(t) => {
                self.delayed_front.push((t, msg));
                Ok(())
            }
            RingAction::Reject => Err(RingFull),
        }
    }

    /// VMM→guest post through the injector (see [`Self::post_front`]).
    ///
    /// # Errors
    ///
    /// Returns [`RingFull`] on injected backpressure or a genuinely full
    /// ring.
    pub fn post_back(&mut self, ring: &mut SharedRing, msg: BackMsg) -> Result<(), RingFull> {
        match self.ring_action(FaultSite::RingBack) {
            RingAction::Deliver => ring.post_back(msg),
            RingAction::Drop => Ok(()),
            RingAction::Delay(t) => {
                self.delayed_back.push((t, msg));
                Ok(())
            }
            RingAction::Reject => Err(RingFull),
        }
    }

    /// Messages currently held back by delay faults.
    pub fn delayed_pending(&self) -> usize {
        self.delayed_front.len() + self.delayed_back.len()
    }

    /// Ages delayed messages one round and posts the due ones. Messages
    /// that find the ring full stay queued for the next flush — a delay
    /// fault never silently becomes a drop. Returns how many were
    /// delivered. Call once per step.
    pub fn flush_delayed(&mut self, ring: &mut SharedRing) -> usize {
        fn drain<M>(
            queue: &mut Vec<(u32, M)>,
            mut post: impl FnMut(M) -> Result<(), RingFull>,
        ) -> usize
        where
            M: Clone,
        {
            let mut delivered = 0;
            let mut keep = Vec::new();
            for (t, m) in queue.drain(..) {
                let t = t.saturating_sub(1);
                if t > 0 {
                    keep.push((t, m));
                } else {
                    match post(m.clone()) {
                        Ok(()) => delivered += 1,
                        // Ring saturated: hold one more round.
                        Err(RingFull) => keep.push((1, m)),
                    }
                }
            }
            *queue = keep;
            delivered
        }
        drain(&mut self.delayed_front, |m| ring.post_front(m))
            + drain(&mut self.delayed_back, |m| ring.post_back(m))
    }

    /// Does the guest crash this step?
    pub fn crash_guest(&mut self) -> bool {
        if self.rng.chance(self.plan.guest_crash) {
            self.record(FaultSite::Guest, FaultKind::GuestCrash);
            true
        } else {
            false
        }
    }

    /// Does the host lose power this step? Volatile tiers are lost; the
    /// NVM persistence domain decides which slow-tier frames survive
    /// (flushed) versus tear (dirty-in-cache).
    pub fn host_power_loss(&mut self) -> bool {
        if self.rng.chance(self.plan.host_power_loss) {
            self.record(FaultSite::Host, FaultKind::HostPowerLoss);
            true
        } else {
            false
        }
    }

    /// Does the guest crash this step with the host (and its caches) still
    /// up? Every NVM-resident frame survives, flushed or not.
    pub fn crash_guest_persist(&mut self) -> bool {
        if self.rng.chance(self.plan.guest_crash_persist) {
            self.record(FaultSite::Guest, FaultKind::GuestCrashPersist);
            true
        } else {
            false
        }
    }
}

hetero_sim::impl_snap!(enum FaultSite {
    0 => MemAlloc {},
    1 => Throttle {},
    2 => Migration {},
    3 => Kswapd {},
    4 => RingFront {},
    5 => RingBack {},
    6 => Guest {},
    7 => Host {},
});

hetero_sim::impl_snap!(struct FaultRecord { step, site, kind });

hetero_sim::impl_snap!(struct FaultTrace { records });

hetero_sim::impl_snap!(struct FaultInjector {
    plan, rng, step, trace, storm, stall_left, delayed_front, delayed_back
});
