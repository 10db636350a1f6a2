//! Seeded fault plans.
//!
//! A [`FaultPlan`] describes *how much* of each fault family to inject —
//! per-site probabilities and magnitude bounds — and carries the seed that
//! makes the resulting schedule deterministic. Plans never consult the wall
//! clock: every decision an injector built from a plan makes is drawn from
//! [`hetero_sim::SimRng`], so the same `(plan, call sequence)` pair always
//! produces the same faults and the same trace.

use std::fmt;

use hetero_mem::MemKind;

/// One concrete fault drawn from a plan.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// A machine frame allocation on `MemKind` is forced to fail.
    AllocFail(MemKind),
    /// A bandwidth/latency storm: SlowMem behaves `factor`× worse for
    /// `epochs` engine steps (models contention on the shared channel).
    LatencyStorm {
        /// Multiplier applied to the tier's throttle factors (≥ 1).
        factor: f64,
        /// Steps the storm lasts.
        epochs: u32,
    },
    /// A transient page-migration failure in the guest.
    MigrateFail,
    /// The background reclaim daemon misses its window for `steps` steps.
    KswapdStall {
        /// Steps the daemon stays stalled.
        steps: u32,
    },
    /// A guest↔VMM channel message is silently dropped.
    RingDrop,
    /// A guest↔VMM channel message is delayed by `ticks` flush rounds.
    RingDelay {
        /// Flush rounds the message is held back.
        ticks: u32,
    },
    /// The channel reports full (backpressure) even though space exists.
    RingFullBackpressure,
    /// The guest crashes and must be restarted from scratch.
    GuestCrash,
    /// The host loses power: DRAM/FastMem contents are lost, *flushed* NVM
    /// frames are preserved and unflushed NVM frames are torn (discarded at
    /// recovery).
    HostPowerLoss,
    /// The guest crashes while the host (and its caches) stay up: every
    /// NVM-resident frame survives, flushed or not; only volatile-tier
    /// state is lost.
    GuestCrashPersist,
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultKind::AllocFail(k) => write!(f, "alloc-fail({k})"),
            FaultKind::LatencyStorm { factor, epochs } => {
                write!(f, "latency-storm(x{factor:.2},{epochs}ep)")
            }
            FaultKind::MigrateFail => f.write_str("migrate-fail"),
            FaultKind::KswapdStall { steps } => write!(f, "kswapd-stall({steps})"),
            FaultKind::RingDrop => f.write_str("ring-drop"),
            FaultKind::RingDelay { ticks } => write!(f, "ring-delay({ticks})"),
            FaultKind::RingFullBackpressure => f.write_str("ring-full"),
            FaultKind::GuestCrash => f.write_str("guest-crash"),
            FaultKind::HostPowerLoss => f.write_str("host-power-loss"),
            FaultKind::GuestCrashPersist => f.write_str("guest-crash-persist"),
        }
    }
}

/// A seeded description of how aggressively to perturb each boundary.
///
/// Probabilities are per *injection opportunity* (one allocation, one
/// message post, one step), all in `[0, 1]`.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed for the injector's private RNG stream.
    pub seed: u64,
    /// P(frame allocation fails) per `MachineMemory` allocation, per tier.
    pub alloc_fail: f64,
    /// P(a latency storm starts) per step, when none is active.
    pub latency_storm: f64,
    /// Upper bound on a storm's throttle multiplier (≥ 1).
    pub storm_max_factor: f64,
    /// Upper bound on a storm's duration in steps (≥ 1).
    pub storm_max_epochs: u32,
    /// P(migration fails transiently) per `migrate_page` call.
    pub migrate_fail: f64,
    /// P(kswapd stalls) per step, when not already stalled.
    pub kswapd_stall: f64,
    /// Upper bound on a stall's duration in steps (≥ 1).
    pub stall_max_steps: u32,
    /// P(a channel message is dropped) per post.
    pub ring_drop: f64,
    /// P(a channel message is delayed) per post.
    pub ring_delay: f64,
    /// Upper bound on a delay in flush rounds (≥ 1).
    pub delay_max_ticks: u32,
    /// P(the ring spuriously reports full) per post.
    pub ring_full: f64,
    /// P(the guest crashes) per step. Drawn only by callers of
    /// [`FaultInjector::crash_guest`](crate::FaultInjector::crash_guest),
    /// which restart the whole guest (the VMM chaos soak). `SingleVmSim`
    /// never draws it: the engine's crashes come from `host_power_loss`
    /// and `guest_crash_persist`.
    pub guest_crash: f64,
    /// P(the host loses power) per step — flushed NVM frames survive,
    /// unflushed NVM frames are torn, volatile tiers are lost.
    pub host_power_loss: f64,
    /// P(the guest crashes with the host up) per step — every NVM-resident
    /// frame survives; volatile tiers are lost.
    pub guest_crash_persist: f64,
}

impl FaultPlan {
    /// A plan that injects nothing — the control arm of a chaos soak.
    pub fn quiescent(seed: u64) -> Self {
        FaultPlan {
            seed,
            alloc_fail: 0.0,
            latency_storm: 0.0,
            storm_max_factor: 1.0,
            storm_max_epochs: 1,
            migrate_fail: 0.0,
            kswapd_stall: 0.0,
            stall_max_steps: 1,
            ring_drop: 0.0,
            ring_delay: 0.0,
            delay_max_ticks: 1,
            ring_full: 0.0,
            guest_crash: 0.0,
            host_power_loss: 0.0,
            guest_crash_persist: 0.0,
        }
    }

    /// A plan that only pulls the plug: seeded host power losses on an
    /// otherwise quiet node — the control arm for recovery experiments.
    pub fn power_loss(seed: u64, probability: f64) -> Self {
        FaultPlan {
            host_power_loss: probability,
            ..FaultPlan::quiescent(seed)
        }
    }

    /// As [`FaultPlan::power_loss`] but with guest crashes under a live
    /// host (NVM caches survive, nothing is torn).
    pub fn crash_persist(seed: u64, probability: f64) -> Self {
        FaultPlan {
            guest_crash_persist: probability,
            ..FaultPlan::quiescent(seed)
        }
    }

    /// Occasional transient faults — the background noise of a healthy
    /// datacenter node.
    pub fn light(seed: u64) -> Self {
        FaultPlan {
            alloc_fail: 0.02,
            latency_storm: 0.05,
            storm_max_factor: 3.0,
            storm_max_epochs: 4,
            migrate_fail: 0.05,
            kswapd_stall: 0.02,
            stall_max_steps: 3,
            ring_drop: 0.02,
            ring_delay: 0.05,
            delay_max_ticks: 3,
            ring_full: 0.02,
            guest_crash: 0.0,
            ..FaultPlan::quiescent(seed)
        }
    }

    /// Sustained pressure on every boundary, including rare guest crashes —
    /// the plan the chaos soak leans on hardest. The crashes come from
    /// `guest_crash`, which only callers of
    /// [`FaultInjector::crash_guest`](crate::FaultInjector::crash_guest)
    /// draw; `SingleVmSim` (and the fleet and cluster built on it) draws
    /// only `host_power_loss` and `guest_crash_persist`, both 0 here, so
    /// a heavy plan never crashes an engine run.
    pub fn heavy(seed: u64) -> Self {
        FaultPlan {
            alloc_fail: 0.15,
            latency_storm: 0.20,
            storm_max_factor: 8.0,
            storm_max_epochs: 8,
            migrate_fail: 0.25,
            kswapd_stall: 0.10,
            stall_max_steps: 6,
            ring_drop: 0.10,
            ring_delay: 0.15,
            delay_max_ticks: 5,
            ring_full: 0.10,
            guest_crash: 0.01,
            ..FaultPlan::quiescent(seed)
        }
    }

    /// A deterministic mix: seed `n` picks quiescent/light/heavy by
    /// `n % 3`, so a soak over consecutive seeds covers every intensity.
    pub fn for_seed(seed: u64) -> Self {
        match seed % 3 {
            0 => FaultPlan::quiescent(seed),
            1 => FaultPlan::light(seed),
            _ => FaultPlan::heavy(seed),
        }
    }

    /// Short label for reports.
    pub fn label(&self) -> &'static str {
        if self.alloc_fail == 0.0 && self.ring_drop == 0.0 && self.latency_storm == 0.0 {
            if self.host_power_loss > 0.0 || self.guest_crash_persist > 0.0 {
                "crashy"
            } else {
                "quiescent"
            }
        } else if self.guest_crash > 0.0 {
            "heavy"
        } else {
            "light"
        }
    }

    /// Every probability field as `(name, value)` pairs, in declaration
    /// order — the validation walk.
    fn probabilities(&self) -> [(&'static str, f64); 10] {
        [
            ("alloc_fail", self.alloc_fail),
            ("latency_storm", self.latency_storm),
            ("migrate_fail", self.migrate_fail),
            ("kswapd_stall", self.kswapd_stall),
            ("ring_drop", self.ring_drop),
            ("ring_delay", self.ring_delay),
            ("ring_full", self.ring_full),
            ("guest_crash", self.guest_crash),
            ("host_power_loss", self.host_power_loss),
            ("guest_crash_persist", self.guest_crash_persist),
        ]
    }

    /// Checks every field a RNG draw depends on. Probabilities must be
    /// finite and in `[0, 1]`; magnitude bounds (`storm_max_epochs`,
    /// `stall_max_steps`, `delay_max_ticks`) must be ≥ 1 — the injector
    /// draws durations from `1..=bound`, so a zero bound is an empty range;
    /// `storm_max_factor` must be finite and ≥ 1.
    ///
    /// # Errors
    ///
    /// Returns the first [`PlanError`] found, in field-declaration order.
    pub fn validate(&self) -> Result<(), PlanError> {
        for (field, value) in self.probabilities() {
            if !value.is_finite() || !(0.0..=1.0).contains(&value) {
                return Err(PlanError::Probability { field, value });
            }
        }
        if !self.storm_max_factor.is_finite() || self.storm_max_factor < 1.0 {
            return Err(PlanError::Factor {
                field: "storm_max_factor",
                value: self.storm_max_factor,
            });
        }
        for (field, bound) in [
            ("storm_max_epochs", self.storm_max_epochs),
            ("stall_max_steps", self.stall_max_steps),
            ("delay_max_ticks", self.delay_max_ticks),
        ] {
            if bound == 0 {
                return Err(PlanError::ZeroBound { field });
            }
        }
        Ok(())
    }

    /// A copy of the plan with every invalid field forced into range:
    /// probabilities clamp to `[0, 1]` (NaN → 0), zero duration bounds
    /// become 1, and `storm_max_factor` is raised to 1 (NaN → 1). The
    /// result always passes [`FaultPlan::validate`].
    pub fn clamped(&self) -> Self {
        let p = |v: f64| if v.is_nan() { 0.0 } else { v.clamp(0.0, 1.0) };
        FaultPlan {
            seed: self.seed,
            alloc_fail: p(self.alloc_fail),
            latency_storm: p(self.latency_storm),
            storm_max_factor: if self.storm_max_factor.is_nan() {
                1.0
            } else {
                self.storm_max_factor.max(1.0)
            },
            storm_max_epochs: self.storm_max_epochs.max(1),
            migrate_fail: p(self.migrate_fail),
            kswapd_stall: p(self.kswapd_stall),
            stall_max_steps: self.stall_max_steps.max(1),
            ring_drop: p(self.ring_drop),
            ring_delay: p(self.ring_delay),
            delay_max_ticks: self.delay_max_ticks.max(1),
            ring_full: p(self.ring_full),
            guest_crash: p(self.guest_crash),
            host_power_loss: p(self.host_power_loss),
            guest_crash_persist: p(self.guest_crash_persist),
        }
    }
}

/// Why a [`FaultPlan`] was rejected at construction.
///
/// Out-of-range probabilities do not fail loudly on their own: a negative
/// value silently never fires and a value above one always fires, while a
/// zero duration bound panics deep inside the RNG's `next_range`. Surfacing
/// them here keeps the misbehaviour at the boundary where it was written.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PlanError {
    /// A probability field is NaN, infinite, or outside `[0, 1]`.
    Probability {
        /// Offending field name.
        field: &'static str,
        /// The rejected value.
        value: f64,
    },
    /// A duration bound the injector draws `1..=bound` from is zero.
    ZeroBound {
        /// Offending field name.
        field: &'static str,
    },
    /// A multiplier that must be finite and ≥ 1 is not.
    Factor {
        /// Offending field name.
        field: &'static str,
        /// The rejected value.
        value: f64,
    },
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::Probability { field, value } => {
                write!(f, "fault plan: {field} = {value} is not a probability in [0, 1]")
            }
            PlanError::ZeroBound { field } => {
                write!(f, "fault plan: {field} must be >= 1 (durations are drawn from 1..=bound)")
            }
            PlanError::Factor { field, value } => {
                write!(f, "fault plan: {field} = {value} must be finite and >= 1")
            }
        }
    }
}

impl std::error::Error for PlanError {}

hetero_sim::impl_snap!(enum FaultKind {
    0 => AllocFail(kind),
    1 => LatencyStorm { factor, epochs },
    2 => MigrateFail {},
    3 => KswapdStall { steps },
    4 => RingDrop {},
    5 => RingDelay { ticks },
    6 => RingFullBackpressure {},
    7 => GuestCrash {},
    8 => HostPowerLoss {},
    9 => GuestCrashPersist {},
});

hetero_sim::impl_snap!(struct FaultPlan {
    seed, alloc_fail, latency_storm, storm_max_factor, storm_max_epochs,
    migrate_fail, kswapd_stall, stall_max_steps, ring_drop, ring_delay,
    delay_max_ticks, ring_full, guest_crash, host_power_loss,
    guest_crash_persist
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_cover_intensities() {
        assert_eq!(FaultPlan::quiescent(0).label(), "quiescent");
        assert_eq!(FaultPlan::light(1).label(), "light");
        assert_eq!(FaultPlan::heavy(2).label(), "heavy");
    }

    #[test]
    fn for_seed_is_deterministic() {
        assert_eq!(FaultPlan::for_seed(9), FaultPlan::for_seed(9));
        assert_eq!(FaultPlan::for_seed(3).label(), "quiescent");
        assert_eq!(FaultPlan::for_seed(4).label(), "light");
        assert_eq!(FaultPlan::for_seed(5).label(), "heavy");
    }

    #[test]
    fn presets_all_validate() {
        for seed in 0..6 {
            FaultPlan::for_seed(seed).validate().unwrap();
        }
        FaultPlan::power_loss(1, 0.05).validate().unwrap();
        FaultPlan::crash_persist(1, 0.05).validate().unwrap();
    }

    #[test]
    fn crash_plans_label_crashy() {
        assert_eq!(FaultPlan::power_loss(0, 0.1).label(), "crashy");
        assert_eq!(FaultPlan::crash_persist(0, 0.1).label(), "crashy");
        assert_eq!(FaultPlan::power_loss(0, 0.0).label(), "quiescent");
    }

    #[test]
    fn boundary_probabilities_are_accepted() {
        // 0 and 1 are both legal — only strictly outside [0,1] rejects.
        let mut p = FaultPlan::quiescent(0);
        p.alloc_fail = 1.0;
        p.guest_crash = 0.0;
        p.validate().unwrap();
    }

    #[test]
    fn out_of_range_probability_rejects_with_field_name() {
        let mut p = FaultPlan::quiescent(0);
        p.ring_drop = 1.0 + 1e-9;
        assert_eq!(
            p.validate(),
            Err(PlanError::Probability {
                field: "ring_drop",
                value: 1.0 + 1e-9
            })
        );
        p.ring_drop = -0.25;
        assert!(matches!(
            p.validate(),
            Err(PlanError::Probability { field: "ring_drop", .. })
        ));
        p.ring_drop = f64::NAN;
        assert!(p.validate().is_err());
    }

    #[test]
    fn zero_duration_bounds_reject() {
        let mut p = FaultPlan::quiescent(0);
        p.storm_max_epochs = 0;
        assert_eq!(
            p.validate(),
            Err(PlanError::ZeroBound {
                field: "storm_max_epochs"
            })
        );
        p = FaultPlan::quiescent(0);
        p.delay_max_ticks = 0;
        assert!(matches!(p.validate(), Err(PlanError::ZeroBound { .. })));
    }

    #[test]
    fn sub_unit_storm_factor_rejects() {
        let mut p = FaultPlan::quiescent(0);
        p.storm_max_factor = 0.5;
        assert!(matches!(p.validate(), Err(PlanError::Factor { .. })));
    }

    #[test]
    fn clamped_repairs_every_invalid_field() {
        let mut p = FaultPlan::heavy(3);
        p.alloc_fail = 1.7;
        p.migrate_fail = -2.0;
        p.kswapd_stall = f64::NAN;
        p.storm_max_factor = 0.0;
        p.storm_max_epochs = 0;
        p.delay_max_ticks = 0;
        let c = p.clamped();
        c.validate().unwrap();
        assert_eq!(c.alloc_fail, 1.0);
        assert_eq!(c.migrate_fail, 0.0);
        assert_eq!(c.kswapd_stall, 0.0);
        assert_eq!(c.storm_max_factor, 1.0);
        assert_eq!(c.storm_max_epochs, 1);
        assert_eq!(c.delay_max_ticks, 1);
        // Valid fields pass through untouched.
        assert_eq!(c.ring_drop, FaultPlan::heavy(3).ring_drop);
        assert_eq!(c.seed, 3);
    }

    #[test]
    fn plan_errors_render() {
        let e = PlanError::Probability {
            field: "guest_crash",
            value: 2.0,
        };
        assert!(e.to_string().contains("guest_crash"));
        assert!(PlanError::ZeroBound { field: "x" }.to_string().contains(">= 1"));
    }

    #[test]
    fn kinds_render_compactly() {
        assert_eq!(FaultKind::MigrateFail.to_string(), "migrate-fail");
        assert_eq!(
            FaultKind::LatencyStorm {
                factor: 2.5,
                epochs: 3
            }
            .to_string(),
            "latency-storm(x2.50,3ep)"
        );
        assert_eq!(FaultKind::RingDelay { ticks: 2 }.to_string(), "ring-delay(2)");
        assert_eq!(FaultKind::HostPowerLoss.to_string(), "host-power-loss");
        assert_eq!(
            FaultKind::GuestCrashPersist.to_string(),
            "guest-crash-persist"
        );
    }
}
