//! Checkpoint/restore differential matrix.
//!
//! The tentpole contract: a run resumed from a mid-run snapshot finishes
//! **byte-identically** to an uninterrupted one — same reports, same
//! JSON exports, same final snapshot bytes. Pinned here across:
//!
//! * three policies × three seeds on the single-VM scenario,
//! * the fleet scenario at `jobs ∈ {1, 4}` (boot fan-out only),
//! * the rack-scale cluster at `jobs ∈ {1, 4}` with a mid-run round
//!   checkpoint, comparing the full outcome JSON and migration trace,
//! * a chaos leg with latency storms and power losses armed, snapshotted
//!   mid-storm — the resumed fault trace and recovery state must match
//!   byte for byte,
//! * a persistence leg: the NVM write-behind domain under every flush
//!   policy with host power loss armed, resumed from two cut points and
//!   pinned to committed digests of a mid-run snapshot and the report,
//! * page-table A/D tracking on Optane DC for three apps at two seeds,
//!   pinned to committed digests of the report and a half-run snapshot,
//! * the failure modes: flipped version byte, wrong layer, truncation —
//!   each a descriptive `Err`, never a panic.

use hetero_core::experiments::checkpoint::{cluster_sim, fleet_sim, single_sim};
use hetero_core::experiments::ExpOptions;
use hetero_core::multivm::MultiVmSim;
use hetero_core::{Cluster, Policy, SimConfig, SingleVmSim, Tracking};
use hetero_faults::{FaultInjector, FaultPlan};
use hetero_mem::{FlushPolicy, TierProfile};
use hetero_sim::snap::SnapshotError;
use hetero_workloads::{apps, AppWorkload, WorkloadSpec};

const GB: u64 = 1 << 30;

/// `expect_err` without requiring `Debug` on the (large) sim types.
fn must_fail<T>(result: Result<T, SnapshotError>, what: &str) -> SnapshotError {
    match result {
        Ok(_) => panic!("{what}: snapshot unexpectedly restored"),
        Err(e) => e,
    }
}

const POLICIES: [Policy; 3] = [
    Policy::HeteroCoordinated,
    Policy::HeteroLru,
    Policy::SlowMemOnly,
];
const SEEDS: [u64; 3] = [11, 42, 77];

fn quick_with_seed(seed: u64) -> ExpOptions {
    let mut opts = ExpOptions::quick();
    opts.seed = seed;
    opts
}

#[test]
fn single_vm_resume_matrix_is_byte_identical() {
    for policy in POLICIES {
        for seed in SEEDS {
            let opts = quick_with_seed(seed);
            let mut straight = single_sim(&opts, policy);
            let mut total = 0u64;
            while straight.step() {
                total += 1;
            }
            assert!(total >= 2, "{policy:?}/{seed}: run too short to checkpoint");

            let mut first = single_sim(&opts, policy);
            for _ in 0..total / 2 {
                assert!(first.step(), "{policy:?}/{seed}: checkpoint past the end");
            }
            let snap = first.save();
            drop(first);
            let mut resumed = SingleVmSim::restore(&snap)
                .unwrap_or_else(|e| panic!("{policy:?}/{seed}: restore failed: {e}"));
            while resumed.step() {}

            assert_eq!(
                straight.report(),
                resumed.report(),
                "{policy:?}/{seed}: resumed report diverged"
            );
            assert_eq!(
                straight.report().to_json(),
                resumed.report().to_json(),
                "{policy:?}/{seed}: resumed JSON export diverged"
            );
            assert_eq!(
                straight.save(),
                resumed.save(),
                "{policy:?}/{seed}: final snapshot bytes diverged"
            );
        }
    }
}

#[test]
fn fleet_resume_is_byte_identical_and_jobs_invariant() {
    let opts = quick_with_seed(42);
    let mut straight = fleet_sim(&opts, Policy::HeteroCoordinated);
    let mut total = 0u64;
    while straight.step_fleet() {
        total += 1;
    }
    assert!(total >= 2);
    let straight_final = straight.save();
    let (straight_reports, _) = straight.into_results();

    for jobs in [1usize, 4] {
        let mut jopts = opts;
        jopts.jobs = jobs;
        let mut first = fleet_sim(&jopts, Policy::HeteroCoordinated);
        for _ in 0..total / 2 {
            assert!(first.step_fleet(), "jobs={jobs}: checkpoint past the end");
        }
        let snap = first.save();
        let mut resumed = MultiVmSim::restore(&snap)
            .unwrap_or_else(|e| panic!("jobs={jobs}: restore failed: {e}"));
        while resumed.step_fleet() {}
        assert_eq!(
            resumed.save(),
            straight_final,
            "jobs={jobs}: final fleet snapshot diverged"
        );
        let (reports, _) = resumed.into_results();
        assert_eq!(reports, straight_reports, "jobs={jobs}: reports diverged");
    }
}

#[test]
fn cluster_resume_matrix_is_byte_identical_across_jobs() {
    let opts = quick_with_seed(42);
    // Uninterrupted reference via the same step-driven path `run()` wraps.
    let straight = cluster_sim(&opts);
    let (reference, _) = {
        let mut c = straight;
        while c.step_round() {}
        c.finish()
    };
    let reference_json = reference.to_json();
    assert!(
        !reference.migrations.is_empty(),
        "scenario must exercise live migration for the trace comparison"
    );

    for jobs in [1usize, 4] {
        let mut jopts = opts;
        jopts.jobs = jobs;
        let mut first = cluster_sim(&jopts);
        // Checkpoint mid-run: a handful of rounds in, with the run alive.
        for _ in 0..3 {
            assert!(first.step_round(), "jobs={jobs}: checkpoint past the end");
        }
        let snap = first.save();
        drop(first);
        // Restore with the *other* jobs count: thread count is a
        // restore-time parameter, never part of the snapshot.
        let other = if jobs == 1 { 4 } else { 1 };
        let mut resumed = Cluster::restore(&snap, other)
            .unwrap_or_else(|e| panic!("jobs={jobs}: restore failed: {e}"));
        while resumed.step_round() {}
        let (outcome, _) = resumed.finish();
        assert_eq!(
            outcome.to_json(),
            reference_json,
            "jobs={jobs}->{other}: resumed cluster outcome diverged"
        );
        assert_eq!(
            outcome.migrations, reference.migrations,
            "jobs={jobs}->{other}: migration trace diverged"
        );
    }
}

/// A three-tier single-VM scenario: same shape as `single_sim`, plus a
/// 2 GiB Medium tier running the Table-1 trio device profile.
fn three_tier_sim(opts: &ExpOptions, policy: Policy) -> SingleVmSim<AppWorkload> {
    let cfg = SimConfig::paper_default()
        .with_capacity_ratio(1, 4)
        .with_medium_bytes(2 * GB)
        .with_tier_profile(Some(TierProfile::Table1Trio))
        .with_seed(opts.seed)
        .with_audit(opts.audit)
        .with_sched(opts.sched);
    // Same run-length scaling `opts.tune` applies for `--quick`.
    let mut spec = apps::redis();
    spec.total_instructions /= 8;
    let workload = AppWorkload::new(spec, cfg.page_size, cfg.scale);
    SingleVmSim::new(cfg, policy, workload)
}

/// Tier-topology legs: the `--tier-profile optane-dc --tracking
/// access-bit` scenario (A/D harvest state — shift registers, scan
/// cursor, pending harvest buffer — must all survive the snapshot) and a
/// three-tier machine with a live Medium tier. Both must resume from a
/// mid-run checkpoint byte-identically, same as every other leg.
#[test]
fn tier_profile_legs_resume_byte_identically() {
    let optane = |opts: &ExpOptions| {
        let mut o = *opts;
        o.tier_profile = Some(TierProfile::OptaneDc);
        o.tracking = Some(Tracking::AccessBit);
        single_sim(&o, Policy::HeteroCoordinated)
    };
    let three_tier = |opts: &ExpOptions| three_tier_sim(opts, Policy::HeteroCoordinated);
    type Leg<'a> = (&'a str, &'a dyn Fn(&ExpOptions) -> SingleVmSim<AppWorkload>);
    let legs: [Leg; 2] = [
        ("optane-dc/access-bit", &optane),
        ("three-tier", &three_tier),
    ];
    for (name, build) in legs {
        for seed in SEEDS {
            let opts = quick_with_seed(seed);
            let mut straight = build(&opts);
            let mut total = 0u64;
            while straight.step() {
                total += 1;
            }
            assert!(total >= 2, "{name}/{seed}: run too short to checkpoint");

            let mut first = build(&opts);
            for _ in 0..total / 2 {
                assert!(first.step(), "{name}/{seed}: checkpoint past the end");
            }
            let snap = first.save();
            drop(first);
            let mut resumed = SingleVmSim::restore(&snap)
                .unwrap_or_else(|e| panic!("{name}/{seed}: restore failed: {e}"));
            while resumed.step() {}

            assert_eq!(
                straight.report(),
                resumed.report(),
                "{name}/{seed}: resumed report diverged"
            );
            assert_eq!(
                straight.save(),
                resumed.save(),
                "{name}/{seed}: final snapshot bytes diverged"
            );
        }
    }
}

/// A plan that keeps latency storms mostly on and pulls the plug often
/// enough that recovery machinery runs well within a quick run.
fn stormy_plan(seed: u64) -> FaultPlan {
    FaultPlan {
        latency_storm: 0.40,
        storm_max_factor: 6.0,
        storm_max_epochs: 8,
        host_power_loss: 0.05,
        ..FaultPlan::quiescent(seed)
    }
}

/// Runs a fault-armed single-VM scenario straight through, then resumes
/// it from a snapshot taken after each of `cuts(total steps)` steps. The
/// resumed report, fault trace and final snapshot bytes must equal the
/// straight run's. Returns the straight run's fault trace and report
/// JSON, and the snapshot taken at the first cut.
fn resume_under_faults(
    name: &str,
    build: &dyn Fn() -> SingleVmSim<AppWorkload>,
    cuts: fn(u64) -> [u64; 2],
) -> (String, String, Vec<u8>) {
    let trace = |sim: &SingleVmSim<AppWorkload>| {
        sim.fault_injector()
            .expect("injector stays armed")
            .trace()
            .to_text()
    };
    let mut straight = build();
    let mut total = 0u64;
    while straight.step() {
        total += 1;
    }
    let straight_trace = trace(&straight);
    let straight_final = straight.save();
    let straight_report = straight.report();

    let mut first_snap = Vec::new();
    for cut in cuts(total) {
        assert!(
            (1..total).contains(&cut),
            "{name}: cut {cut} is not inside the {total}-step run"
        );
        let mut first = build();
        for _ in 0..cut {
            first.step();
        }
        let snap = first.save();
        drop(first);
        let mut resumed = SingleVmSim::restore(&snap)
            .unwrap_or_else(|e| panic!("{name}/cut={cut}: restore failed: {e}"));
        while resumed.step() {}
        assert_eq!(
            resumed.report(),
            straight_report,
            "{name}/cut={cut}: report diverged"
        );
        assert_eq!(
            trace(&resumed),
            straight_trace,
            "{name}/cut={cut}: fault trace diverged after resume"
        );
        assert_eq!(
            resumed.save(),
            straight_final,
            "{name}/cut={cut}: final snapshot bytes diverged"
        );
        if first_snap.is_empty() {
            first_snap = snap;
        }
    }
    (straight_trace, straight_report.to_json(), first_snap)
}

#[test]
fn checkpoint_under_armed_faults_resumes_identically() {
    let opts = quick_with_seed(42);
    let build = || {
        let mut sim = single_sim(&opts, Policy::HeteroCoordinated);
        sim.set_fault_injector(FaultInjector::new(stormy_plan(7)));
        sim
    };
    // Checkpoint at two different depths — with storms armed at 40% per
    // step and storms lasting up to 8 epochs, at least one of these lands
    // inside an active storm window.
    let (trace, _, _) = resume_under_faults("chaos", &build, |total| {
        [total / 3, 2 * total / 3]
    });
    assert!(
        trace.contains("latency-storm"),
        "plan must actually fire storms:\n{trace}"
    );
    assert!(
        trace.contains("host-power-loss"),
        "plan must actually pull the plug:\n{trace}"
    );
}

/// 64-bit FNV-1a digest of `bytes`.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Per flush policy: FNV-1a digests of the persistence leg's snapshot at
/// its first cut and of its straight run's report JSON. They pin each
/// policy's write-behind semantics and the domain's snapshot encoding.
const PERSIST_DIGESTS: [(FlushPolicy, u64, u64); 3] = [
    (
        FlushPolicy::Eager,
        0x5d6b_fe3e_d505_2acf,
        0x4adc_7b10_8346_29e7,
    ),
    (
        FlushPolicy::EpochBatched,
        0x1bfd_6bc9_ba0c_35b3,
        0x0342_c406_7ba2_1d7c,
    ),
    (
        FlushPolicy::OnEvict,
        0x068c_64bc_4ed5_47bf,
        0xa0ca_b440_70bd_f44f,
    ),
];

#[test]
fn persistence_leg_resumes_identically_under_power_loss() {
    for (policy, snap_digest, report_digest) in PERSIST_DIGESTS {
        let opts = quick_with_seed(42).with_persist(policy);
        let build = || {
            let mut sim = single_sim(&opts, Policy::HeteroCoordinated);
            sim.set_fault_injector(FaultInjector::new(FaultPlan::power_loss(7, 0.05)));
            sim
        };
        // The first cut lands while the first NVM fills are still aging
        // (dirty and flushed frames side by side); the resumed runs then
        // cross later power losses.
        let name = policy.to_string();
        let (trace, report, snap) =
            resume_under_faults(&name, &build, |total| [total / 8, total / 2]);
        assert!(
            trace.contains("host-power-loss"),
            "{policy}: plan must pull the plug:\n{trace}"
        );
        let at_cut = SingleVmSim::restore(&snap).expect("the cut's snapshot restores");
        let dom = at_cut.persist_domain().expect("--persist arms the domain");
        assert!(
            dom.dirty_frames() > 0 || policy == FlushPolicy::Eager,
            "{policy}: no dirty frames at the cut"
        );
        assert!(dom.flushed_frames() > 0, "{policy}: no flushed frames at the cut");
        assert_eq!(fnv1a(&snap), snap_digest, "{policy}: snapshot digest moved");
        assert_eq!(fnv1a(report.as_bytes()), report_digest, "{policy}: report digest moved");
    }
}

/// Run-length divisor for the A/D-tracking digest legs: the `--quick`
/// scale, so the six runs stay cheap in debug builds.
const AD_DIVISOR: u64 = 8;

/// The `--tier-profile optane-dc --tracking access-bit` leg for one app:
/// HeteroOS-coordinated placement ranked from page-table A/D harvests.
fn access_bit_sim(spec: WorkloadSpec, seed: u64) -> SingleVmSim<AppWorkload> {
    let cfg = SimConfig::paper_default()
        .with_capacity_ratio(1, 4)
        .with_seed(seed)
        .with_tier_profile(Some(TierProfile::OptaneDc))
        .with_tracking(Some(Tracking::AccessBit));
    let workload = AppWorkload::new(spec, cfg.page_size, cfg.scale);
    SingleVmSim::new(cfg, Policy::HeteroCoordinated, workload)
}

/// Per app and seed: FNV-1a digests of the A/D-tracking leg's report JSON
/// and of its snapshot at half run. nginx and leveldb keep their heaps in
/// many one-page anon VMAs, graphchi in a few large ones. Only the
/// snapshot pins the PTE accessed/dirty bits themselves.
type AdDigest = (fn() -> WorkloadSpec, u64, u64, u64);
const AD_DIGESTS: [AdDigest; 6] = [
    (apps::nginx, 1, 0xf825_06b4_c623_2806, 0x8916_d1f5_ca0b_1632),
    (
        apps::nginx,
        42,
        0x0ec6_369a_b6b9_07b9,
        0xc97a_52ee_fdf3_a009,
    ),
    (
        apps::leveldb,
        1,
        0x0ef8_e5d9_0cca_889a,
        0x93a3_cb0b_d352_7878,
    ),
    (
        apps::leveldb,
        42,
        0x29d5_78d3_b5aa_104a,
        0xfe43_7dc4_3f4c_26a2,
    ),
    (
        apps::graphchi,
        1,
        0x374a_9290_bd93_dd14,
        0x2cba_ea38_548a_0aba,
    ),
    (
        apps::graphchi,
        42,
        0xbf05_dcd6_bf8a_8bba,
        0x406d_5c88_ae73_296a,
    ),
];

#[test]
fn access_bit_tracking_matches_recorded_digests() {
    for (app, seed, report_digest, snap_digest) in AD_DIGESTS {
        let mut spec = app();
        spec.total_instructions /= AD_DIVISOR;
        let name = format!("{}/{seed}", spec.name);
        let half = spec.epochs() / 2;
        let mut sim = access_bit_sim(spec, seed);
        let mut steps = 0u64;
        let mut snap = None;
        while sim.step() {
            steps += 1;
            if steps == half {
                snap = Some(sim.save());
            }
        }
        let snap = snap.unwrap_or_else(|| panic!("{name}: run ended before half way"));
        let report = sim.report().to_json();
        assert_eq!(
            fnv1a(report.as_bytes()),
            report_digest,
            "{name}: report digest moved"
        );
        assert_eq!(fnv1a(&snap), snap_digest, "{name}: snapshot digest moved");
    }
}

#[test]
fn flipped_version_byte_is_rejected_cleanly() {
    let opts = quick_with_seed(42);
    let mut sim = single_sim(&opts, Policy::HeteroCoordinated);
    assert!(sim.step());
    let mut bytes = sim.save();
    // Header layout: 4 magic bytes, then the little-endian u32 version.
    bytes[4] ^= 0xFF;
    let err = must_fail(SingleVmSim::restore(&bytes), "flipped version");
    let msg = err.to_string();
    assert!(msg.contains("version"), "undescriptive error: {msg}");
}

#[test]
fn wrong_layer_snapshot_is_rejected_cleanly() {
    let opts = quick_with_seed(42);
    let mut fleet = fleet_sim(&opts, Policy::HeteroCoordinated);
    assert!(fleet.step_fleet());
    let fleet_bytes = fleet.save();

    let err = must_fail(Cluster::restore(&fleet_bytes, 1), "fleet bytes as cluster");
    assert!(err.to_string().contains("layer"), "{err}");
    let err = must_fail(SingleVmSim::restore(&fleet_bytes), "fleet bytes as single VM");
    assert!(err.to_string().contains("layer"), "{err}");
}

#[test]
fn truncated_and_garbage_snapshots_are_rejected_cleanly() {
    let opts = quick_with_seed(42);
    let mut sim = single_sim(&opts, Policy::HeteroCoordinated);
    assert!(sim.step());
    let bytes = sim.save();

    // Every proper prefix must fail loud — never panic, never succeed.
    for cut in [0, 3, 4, 8, 9, bytes.len() / 2, bytes.len() - 1] {
        let err = must_fail(SingleVmSim::restore(&bytes[..cut]), "truncated snapshot");
        let msg = err.to_string();
        assert!(
            msg.contains("truncated") || msg.contains("magic"),
            "cut={cut}: undescriptive error: {msg}"
        );
    }

    // Garbage with the wrong magic is identified as such.
    let err = must_fail(SingleVmSim::restore(b"notasnap-at-all"), "garbage");
    assert!(err.to_string().contains("magic"), "{err}");

    // Trailing junk after a valid payload is also an error.
    let mut padded = bytes.clone();
    padded.extend_from_slice(&[0u8; 7]);
    let err = must_fail(SingleVmSim::restore(&padded), "trailing bytes");
    assert!(err.to_string().contains("trailing"), "{err}");
}
