//! One function per table and figure of the paper's evaluation.
//!
//! Every function is deterministic given [`ExpOptions::seed`] and returns
//! either a [`SeriesSet`] (figures) or a formatted string (tables). The
//! `repro` binary in the `bench` crate prints them; `EXPERIMENTS.md` records
//! paper-vs-measured values.
//!
//! [`ExpOptions::quick`] shortens every run ~8× for tests and benches; the
//! published numbers use the full-length runs.

use hetero_faults::{AuditLevel, FaultKind};
use hetero_mem::{FlushPolicy, TierProfile};
use hetero_sim::Runner;
use hetero_workloads::WorkloadSpec;

use crate::cluster::ArrivalMode;
use crate::config::SchedMode;
use crate::policy::Tracking;

pub mod ablations;
pub mod capacity;
pub mod checkpoint;
pub mod cluster;
pub mod coordinated;
pub mod distribution;
pub mod extensions;
pub mod micro;
pub mod overhead;
pub mod placement;
pub mod recovery;
pub mod sensitivity;
pub mod sharing;
pub mod tables;
pub mod tiers;

pub use hetero_sim::{Series, SeriesSet};

/// Options shared by all experiment drivers.
#[derive(Debug, Clone, Copy)]
pub struct ExpOptions {
    /// Shorten runs ~8× (tests, smoke runs). Full runs match the paper's
    /// multi-minute durations so migrations amortise.
    pub quick: bool,
    /// Deterministic seed.
    pub seed: u64,
    /// Worker threads for the per-target run sweeps (`0` = available
    /// parallelism). Every driver merges results in descriptor order, so
    /// output is byte-identical for any value — the default of `1` keeps
    /// library users sequential unless they opt in.
    pub jobs: usize,
    /// Invariant-sanitizer level applied to every run a driver launches.
    /// Observational (results are byte-identical at any level), but a
    /// violation makes the offending run panic instead of reporting.
    pub audit: AuditLevel,
    /// NVM flush policy for the recovery experiment family and the
    /// `ckpt-single` scenario (`repro --persist MODE`). `Off` lets each
    /// recovery driver pick its own default (eager) and leaves
    /// `ckpt-single` without a domain; every other experiment ignores
    /// this, so their exports stay byte-identical whatever the value.
    pub persist: FlushPolicy,
    /// Crash kind the fault-arming recovery drivers inject (`repro
    /// --faults KIND`). `None` leaves each driver's default
    /// ([`FaultKind::HostPowerLoss`]) in place.
    pub faults: Option<FaultKind>,
    /// Epoch scheduler for every run a driver launches (`repro --sched
    /// MODE`). [`SchedMode::Event`] (the default) and [`SchedMode::Dense`]
    /// produce byte-identical exports — the mode only changes how the
    /// engine finds due management work.
    pub sched: SchedMode,
    /// Host count for the rack-scale cluster experiment (`repro cluster
    /// --hosts N`). `0` lets the driver pick its default (16 full, 4
    /// quick); every non-cluster experiment ignores it.
    pub hosts: usize,
    /// VM arrival mode for the cluster experiment (`repro cluster
    /// --arrival MODE`): a seeded Poisson process or the built-in
    /// deterministic trace. Ignored by every non-cluster experiment.
    pub arrival: ArrivalMode,
    /// Named device-profile tier topology applied to every run a driver
    /// launches (`repro --tier-profile NAME`). `None` keeps each driver's
    /// own throttle-derived node parameters.
    pub tier_profile: Option<TierProfile>,
    /// Hotness-tracking override applied to every run (`repro --tracking
    /// MODE`). `None` keeps each policy's default discipline.
    pub tracking: Option<Tracking>,
}

impl Default for ExpOptions {
    fn default() -> Self {
        ExpOptions {
            quick: false,
            seed: 42,
            jobs: 1,
            audit: AuditLevel::Off,
            persist: FlushPolicy::Off,
            faults: None,
            sched: SchedMode::default(),
            hosts: 0,
            arrival: ArrivalMode::default(),
            tier_profile: None,
            tracking: None,
        }
    }
}

impl ExpOptions {
    /// Quick-mode options (for tests and benches).
    pub fn quick() -> Self {
        ExpOptions {
            quick: true,
            ..Default::default()
        }
    }

    /// Sets the worker-thread count (`0` = available parallelism).
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs;
        self
    }

    /// Sets the invariant-sanitizer level for every run.
    pub fn with_audit(mut self, audit: AuditLevel) -> Self {
        self.audit = audit;
        self
    }

    /// Sets the NVM flush policy for the recovery experiments and
    /// `ckpt-single`.
    pub fn with_persist(mut self, persist: FlushPolicy) -> Self {
        self.persist = persist;
        self
    }

    /// Arms a crash kind for the fault-arming recovery experiments.
    pub fn with_faults(mut self, kind: FaultKind) -> Self {
        self.faults = Some(kind);
        self
    }

    /// Selects the epoch scheduler for every run.
    pub fn with_sched(mut self, sched: SchedMode) -> Self {
        self.sched = sched;
        self
    }

    /// Sets the cluster host count (`0` = driver default).
    pub fn with_hosts(mut self, hosts: usize) -> Self {
        self.hosts = hosts;
        self
    }

    /// Selects the cluster VM arrival mode.
    pub fn with_arrival(mut self, arrival: ArrivalMode) -> Self {
        self.arrival = arrival;
        self
    }

    /// Applies a named device-profile tier topology to every run.
    pub fn with_tier_profile(mut self, profile: TierProfile) -> Self {
        self.tier_profile = Some(profile);
        self
    }

    /// Overrides the hotness-tracking discipline for every run.
    pub fn with_tracking(mut self, tracking: Tracking) -> Self {
        self.tracking = Some(tracking);
        self
    }

    /// The parallel executor the experiment drivers fan runs out on.
    pub fn runner(&self) -> Runner {
        Runner::new(self.jobs)
    }

    /// Applies the run-length scaling to a workload spec.
    pub(crate) fn tune(&self, mut spec: WorkloadSpec) -> WorkloadSpec {
        if self.quick {
            spec.total_instructions /= 8;
        }
        spec
    }
}
