//! Checkpointable scenarios (`repro --checkpoint-every` / `--resume`).
//!
//! One canonical scenario per simulation layer, shared by the `repro`
//! binary's checkpoint drivers and the differential tests so both sides
//! pin the *same* runs:
//!
//! * [`single_sim`] — a §5.1-shaped single-VM run (the `ckpt-single`
//!   target),
//! * [`fleet_sim`] — the four cluster VM templates co-scheduled on one
//!   DRF host (the `ckpt-fleet` target),
//! * [`cluster_sim`] — exactly the rack-scale consolidation run of
//!   `repro cluster`, built unstarted so it can be stepped and
//!   snapshotted round by round.
//!
//! The contract under test everywhere: a run resumed from a mid-run
//! snapshot finishes **byte-identically** to an uninterrupted one —
//! same reports, same JSON exports, same final snapshot bytes.

use hetero_vmm::SharePolicy;
use hetero_workloads::{apps, AppWorkload};

use crate::cluster::Cluster;
use crate::experiments::cluster::{fleet_spec, fleet_templates};
use crate::experiments::ExpOptions;
use crate::multivm::MultiVmSim;
use crate::{Policy, SimConfig, SingleVmSim};

const GB: u64 = 1 << 30;

/// The single-VM checkpoint scenario: redis on the paper's 1:4
/// fast:slow capacity split. Honors `--quick`, `--seed`, `--audit`,
/// `--sched`, `--tier-profile`, `--tracking` and `--persist`; any flush
/// policy but `off` arms the persistence domain over an NVM slow tier,
/// as the recovery drivers do.
pub fn single_sim(opts: &ExpOptions, policy: Policy) -> SingleVmSim<AppWorkload> {
    let cfg = SimConfig {
        nvm_slow: opts.persist.is_enabled(),
        ..SimConfig::paper_default()
            .with_capacity_ratio(1, 4)
            .with_seed(opts.seed)
            .with_audit(opts.audit)
            .with_sched(opts.sched)
            .with_tier_profile(opts.tier_profile)
            .with_tracking(opts.tracking)
            .with_persist(opts.persist)
    };
    let spec = opts.tune(apps::redis());
    let workload = AppWorkload::new(spec, cfg.page_size, cfg.scale);
    SingleVmSim::new(cfg, policy, workload)
}

/// The fleet checkpoint scenario: the four cluster VM templates
/// co-scheduled on one §5.1-shaped DRF host. Honors `--quick`,
/// `--seed`, `--audit`, `--sched` and `--jobs` (boot fan-out only —
/// the run itself is byte-identical at any thread count).
pub fn fleet_sim(opts: &ExpOptions, policy: Policy) -> MultiVmSim {
    let cfg = SimConfig::paper_default()
        .with_fast_bytes(4 * GB)
        .with_slow_bytes(8 * GB)
        .with_seed(opts.seed)
        .with_audit(opts.audit)
        .with_sched(opts.sched)
        .with_tier_profile(opts.tier_profile)
        .with_tracking(opts.tracking);
    MultiVmSim::new_with_jobs(
        cfg,
        SharePolicy::paper_drf(),
        policy,
        fleet_templates(opts),
        opts.jobs.max(1),
    )
}

/// The cluster checkpoint scenario: the exact consolidation run of
/// `repro cluster` (same spec, same host shape, same policies), built
/// unstarted so callers can drive it with [`Cluster::step_round`] and
/// snapshot between rounds. Honors every cluster-shaping option.
pub fn cluster_sim(opts: &ExpOptions) -> Cluster {
    let cfg = SimConfig::paper_default()
        .with_fast_bytes(4 * GB)
        .with_slow_bytes(8 * GB)
        .with_seed(opts.seed)
        .with_audit(opts.audit)
        .with_sched(opts.sched)
        .with_tier_profile(opts.tier_profile)
        .with_tracking(opts.tracking);
    Cluster::new(
        cfg,
        SharePolicy::paper_drf(),
        Policy::HeteroCoordinated,
        fleet_spec(opts),
        opts.jobs.max(1),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetero_mem::FlushPolicy;

    #[test]
    fn single_scenario_checkpoints_and_resumes_identically() {
        let opts = ExpOptions::quick();
        let mut straight = single_sim(&opts, Policy::HeteroCoordinated);
        let mut total = 0u64;
        while straight.step() {
            total += 1;
        }
        assert!(
            total >= 2,
            "scenario must run long enough to checkpoint mid-run"
        );

        let mut first = single_sim(&opts, Policy::HeteroCoordinated);
        for _ in 0..total / 2 {
            assert!(first.step(), "scenario must outlast the checkpoint");
        }
        let snap = first.save();
        drop(first);
        let mut resumed = SingleVmSim::restore(&snap).expect("snapshot restores");
        while resumed.step() {}

        assert_eq!(straight.report(), resumed.report());
        assert_eq!(
            straight.save(),
            resumed.save(),
            "final state must be byte-identical"
        );
    }

    #[test]
    fn single_scenario_honors_persist() {
        let off = single_sim(&ExpOptions::quick(), Policy::HeteroCoordinated);
        assert!(
            off.persist_domain().is_none(),
            "the default `off` arms no domain"
        );

        let opts = ExpOptions::quick().with_persist(FlushPolicy::EpochBatched);
        let mut sim = single_sim(&opts, Policy::HeteroCoordinated);
        // Redis first spills onto SlowMem a dozen epochs in.
        for _ in 0..16 {
            assert!(sim.step(), "scenario must outlast the probe");
        }
        let dom = sim
            .persist_domain()
            .expect("--persist epoch arms the domain");
        assert_eq!(dom.policy(), FlushPolicy::EpochBatched);
        assert!(
            dom.tracked() > 0,
            "the domain tracks the NVM-resident frames"
        );
        assert!(dom.fences > 0, "a batch drained the first NVM fills");
    }

    #[test]
    fn fleet_scenario_checkpoints_and_resumes_identically() {
        let opts = ExpOptions::quick();
        let mut straight = fleet_sim(&opts, Policy::HeteroCoordinated);
        let mut total = 0u64;
        while straight.step_fleet() {
            total += 1;
        }
        assert!(
            total >= 2,
            "scenario must run long enough to checkpoint mid-run"
        );

        let mut first = fleet_sim(&opts, Policy::HeteroCoordinated);
        for _ in 0..total / 2 {
            assert!(first.step_fleet(), "scenario must outlast the checkpoint");
        }
        let snap = first.save();
        let mut resumed = MultiVmSim::restore(&snap).expect("snapshot restores");
        while resumed.step_fleet() {}

        assert_eq!(straight.save(), resumed.save());
        let (a, av) = straight.into_results();
        let (b, bv) = resumed.into_results();
        assert_eq!(a, b);
        assert_eq!(av.len(), bv.len());
    }
}
