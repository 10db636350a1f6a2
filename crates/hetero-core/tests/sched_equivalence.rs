//! Dense-vs-event scheduler equivalence matrix.
//!
//! `SchedMode::Event` is a pure performance lever: it must never change a
//! single exported byte relative to the dense per-epoch scheduler. This
//! matrix pins that contract across policies, seeds, single- and multi-VM
//! runs — all with the epoch-level invariant sanitizer armed, so a
//! scheduler that "agrees" only by corrupting shared state in the same way
//! twice still gets caught — plus a chaos-soak leg that crashes and
//! recovers the guest mid-run with the fault injector armed.

use hetero_core::multivm::{MultiVmSim, VmSetup};
use hetero_core::{run_app, AuditLevel, Policy, SchedMode, SimConfig, SingleVmSim, Tracking};
use hetero_faults::{FaultInjector, FaultPlan};
use hetero_mem::{FlushPolicy, TierProfile};
use hetero_vmm::SharePolicy;
use hetero_workloads::{apps, AppWorkload, WorkloadSpec};

const GB: u64 = 1 << 30;

/// The policy axis: guest-LRU, coordinated and VMM-only management visit
/// disjoint scheduler paths (scan cadence, demotion hysteresis, stats
/// windows).
const POLICIES: [Policy; 3] = [
    Policy::HeteroCoordinated,
    Policy::HeteroLru,
    Policy::VmmExclusive,
];

const SEEDS: [u64; 3] = [7, 42, 1009];

fn quick(mut spec: WorkloadSpec) -> WorkloadSpec {
    spec.total_instructions /= 20;
    spec
}

fn audited_cfg(seed: u64, sched: SchedMode) -> SimConfig {
    SimConfig::paper_default()
        .with_capacity_ratio(1, 8)
        .with_seed(seed)
        .with_audit(AuditLevel::Epoch)
        .with_sched(sched)
}

#[test]
fn single_vm_matrix_is_byte_identical() {
    for policy in POLICIES {
        for seed in SEEDS {
            let run = |sched| run_app(&audited_cfg(seed, sched), policy, quick(apps::graphchi()));
            let dense = run(SchedMode::Dense);
            let event = run(SchedMode::Event);
            assert_eq!(
                dense.to_json(),
                event.to_json(),
                "policy {policy:?} seed {seed} diverged"
            );
        }
    }
}

#[test]
fn multi_vm_matrix_is_byte_identical() {
    let setups = || {
        vec![
            VmSetup::new(quick(apps::graphchi()), GB, 5 * GB / 2, 2 * GB, 6 * GB),
            VmSetup::new(quick(apps::metis()), 3 * GB, 5 * GB / 2, 4 * GB, 8 * GB),
        ]
    };
    for policy in POLICIES {
        for seed in SEEDS {
            let run = |sched| {
                let cfg = SimConfig::paper_default()
                    .with_fast_bytes(4 * GB)
                    .with_slow_bytes(8 * GB)
                    .with_seed(seed)
                    .with_audit(AuditLevel::Epoch)
                    .with_sched(sched);
                // `run` panics on any sanitizer violation with an explicit
                // audit level set, so a clean return is also a clean audit.
                MultiVmSim::new(cfg, SharePolicy::paper_drf(), policy, setups()).run()
            };
            let dense = run(SchedMode::Dense);
            let event = run(SchedMode::Event);
            assert_eq!(dense.len(), event.len());
            for (d, e) in dense.iter().zip(event.iter()) {
                assert_eq!(
                    d.to_json(),
                    e.to_json(),
                    "policy {policy:?} seed {seed} diverged"
                );
            }
        }
    }
}

/// Tier-topology legs: a three-tier machine (`medium_bytes > 0`, Table-1
/// trio profile) and the asymmetric `optane-dc` profile driven by the
/// page-table A/D tracker. Both add scheduler paths the two-tier matrix
/// never visits — Medium-tier demotion deadlines, and the harvest scan's
/// own cadence — so the dense/event contract is pinned for them too.
#[test]
fn tier_profile_matrix_is_byte_identical() {
    let three_tier = |seed, sched| {
        audited_cfg(seed, sched)
            .with_medium_bytes(2 * GB)
            .with_tier_profile(Some(TierProfile::Table1Trio))
    };
    let optane_ad = |seed, sched| {
        audited_cfg(seed, sched)
            .with_tier_profile(Some(TierProfile::OptaneDc))
            .with_tracking(Some(Tracking::AccessBit))
    };
    type Leg<'a> = (&'a str, &'a dyn Fn(u64, SchedMode) -> SimConfig, Policy);
    let legs: [Leg; 3] = [
        ("three-tier", &three_tier, Policy::HeteroCoordinated),
        (
            "optane-dc/access-bit",
            &optane_ad,
            Policy::HeteroCoordinated,
        ),
        ("optane-dc/access-bit-lru", &optane_ad, Policy::HeteroLru),
    ];
    for (name, cfg, policy) in legs {
        for seed in SEEDS {
            let run = |sched| run_app(&cfg(seed, sched), policy, quick(apps::graphchi()));
            let dense = run(SchedMode::Dense);
            let event = run(SchedMode::Event);
            assert_eq!(
                dense.to_json(),
                event.to_json(),
                "{name} seed {seed} diverged"
            );
        }
    }
}

/// Chaos soak: seeded mid-run crashes force the engine through the
/// recover path, which rebuilds the kernel and re-arms the timer queue
/// from scratch. The schedulers must agree on the entire run — including
/// how many crash cycles fired and what the recovery salvaged.
#[test]
fn chaos_soak_with_faults_armed_is_byte_identical() {
    for seed in SEEDS {
        let run = |sched| {
            let cfg = audited_cfg(seed, sched).with_persist(FlushPolicy::EpochBatched);
            let spec = quick(apps::graphchi());
            let wl = AppWorkload::new(spec, cfg.page_size, cfg.scale);
            let mut sim = SingleVmSim::new(cfg, Policy::HeteroLru, wl);
            sim.set_fault_injector(FaultInjector::new(FaultPlan::power_loss(seed, 0.05)));
            while sim.step() {}
            assert!(
                sim.violations().is_empty(),
                "seed {seed}: {:?}",
                sim.violations()
            );
            (sim.recoveries(), sim.report().to_json())
        };
        let (dense_crashes, dense) = run(SchedMode::Dense);
        let (event_crashes, event) = run(SchedMode::Event);
        assert!(
            dense_crashes > 0,
            "seed {seed} never crashed — soak is vacuous"
        );
        assert_eq!(dense_crashes, event_crashes, "seed {seed} crash cycles");
        assert_eq!(dense, event, "seed {seed} diverged");
    }
}
