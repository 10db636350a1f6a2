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
//! * the scan pipeline: five policy × tracking-source legs under eight
//!   config and fault variants, pinned to committed digests of the report,
//!   event log, telemetry and a half-run snapshot,
//! * bulk demand dispatch: six placement disciplines × six seeds and the
//!   engine chaos soak at nine seeds, pinned to committed digests of the
//!   report and the event log or fault trace,
//! * the two retired `SimConfig` snapshot slots, which keep their bytes
//!   and still decode,
//! * the failure modes: flipped version byte, wrong layer, truncation —
//!   each a descriptive `Err`, never a panic.

use hetero_core::experiments::checkpoint::{cluster_sim, fleet_sim, single_sim};
use hetero_core::experiments::ExpOptions;
use hetero_core::multivm::MultiVmSim;
use hetero_core::{AuditLevel, Cluster, Policy, SimConfig, SingleVmSim, Tracking};
use hetero_faults::{FaultInjector, FaultPlan};
use hetero_mem::{FlushPolicy, TierProfile};
use hetero_sim::snap::{Snap, SnapReader, SnapWriter, SnapshotError};
use hetero_sim::Runner;
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

/// `d` as a digest-table literal, for re-recording a moved row.
fn hex(d: u64) -> String {
    format!(
        "0x{:04x}_{:04x}_{:04x}_{:04x}",
        d >> 48,
        (d >> 32) & 0xffff,
        (d >> 16) & 0xffff,
        d & 0xffff
    )
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

/// Run-length divisor for the scan-pipeline digest legs.
const SCAN_DIVISOR: u64 = 16;

/// A scan-pipeline leg: a policy, and the tracking source that replaces
/// the policy's own when pinned. `FullVm` runs the forced promoter with
/// cold victims; `Guided` and `AccessBit` run the checked one.
type ScanLeg = (&'static str, Policy, Option<Tracking>);
const SCAN_LEGS: [ScanLeg; 5] = [
    ("vmm-exclusive", Policy::VmmExclusive, None),
    ("coordinated", Policy::HeteroCoordinated, None),
    (
        "coordinated/access-bit",
        Policy::HeteroCoordinated,
        Some(Tracking::AccessBit),
    ),
    (
        "vmm-exclusive/access-bit",
        Policy::VmmExclusive,
        Some(Tracking::AccessBit),
    ),
    (
        "vmm-exclusive/guided",
        Policy::VmmExclusive,
        Some(Tracking::Guided),
    ),
];

/// The config variants every scan leg runs under. `heavy-faults` keeps
/// the default config and arms an injector instead (see `scan_sim`).
const SCAN_VARIANTS: [&str; 8] = [
    "default",
    "unguided",
    "fixed-interval",
    "nvm-write-aware",
    "optane-write-aware",
    "bare-metal",
    "three-tier",
    "heavy-faults",
];

/// One scan-pipeline leg under one variant, with tracing and telemetry
/// on, and its workload's epoch count. The A/D legs run nginx (many
/// one-page anon VMAs, so the sweep window wraps), the others graphchi.
fn scan_sim(leg: &ScanLeg, variant: &str) -> (SingleVmSim<AppWorkload>, u64) {
    let (_, policy, tracking) = *leg;
    let base = SimConfig {
        // Large enough that no leg's trace wraps.
        trace_events: 1 << 14,
        ..SimConfig::paper_default()
            .with_capacity_ratio(1, 4)
            .with_seed(42)
            .with_telemetry(true)
            .with_tracking(tracking)
    };
    let cfg = match variant {
        "default" | "heavy-faults" => base,
        "unguided" => SimConfig {
            guided_tracking: false,
            ..base
        },
        "fixed-interval" => SimConfig {
            adaptive_interval: false,
            ..base
        },
        "nvm-write-aware" => SimConfig {
            nvm_slow: true,
            write_aware: true,
            ..base
        },
        "optane-write-aware" => SimConfig {
            write_aware: true,
            ..base.with_tier_profile(Some(TierProfile::OptaneDc))
        },
        "bare-metal" => SimConfig {
            bare_metal: true,
            ..base
        },
        "three-tier" => base.with_medium_bytes(2 * GB),
        other => panic!("unknown scan variant {other}"),
    };
    let mut spec = if tracking == Some(Tracking::AccessBit) {
        apps::nginx()
    } else {
        apps::graphchi()
    };
    spec.total_instructions /= SCAN_DIVISOR;
    let epochs = spec.epochs();
    let workload = AppWorkload::new(spec, cfg.page_size, cfg.scale);
    let mut sim = SingleVmSim::new(cfg, policy, workload);
    if variant == "heavy-faults" {
        // The engine never draws `FaultPlan::heavy`'s own `guest_crash`
        // (only `FaultInjector::crash_guest` callers do), so a
        // persist-crash rate makes `recover` reset the scan state mid-run.
        sim.set_fault_injector(FaultInjector::new(FaultPlan {
            guest_crash_persist: 0.05,
            ..FaultPlan::heavy(7)
        }));
    }
    (sim, epochs)
}

/// Per scan leg and variant: FNV-1a digests of the report JSON, the event
/// log, the telemetry snapshot and the snapshot at half run. They pin each
/// tracking source's cadence, candidates, rank, promoter and accounting
/// on branches perfbench's goldens never reach.
type ScanDigest = (&'static str, &'static str, [u64; 4]);
#[rustfmt::skip]
const SCAN_DIGESTS: [ScanDigest; 40] = [
    ("vmm-exclusive", "default", [0x98c9_1d60_bcf6_7ae0, 0x22b5_cb6f_cf21_5d22, 0x8ff0_6981_bf85_df77, 0x16b2_0e3a_cce3_7402]),
    ("vmm-exclusive", "unguided", [0x98c9_1d60_bcf6_7ae0, 0x22b5_cb6f_cf21_5d22, 0x8ff0_6981_bf85_df77, 0x58ce_d831_3c56_48fd]),
    ("vmm-exclusive", "fixed-interval", [0x98c9_1d60_bcf6_7ae0, 0x22b5_cb6f_cf21_5d22, 0x8ff0_6981_bf85_df77, 0x7b20_4fb9_edba_63a3]),
    ("vmm-exclusive", "nvm-write-aware", [0x5605_611e_8979_ff9a, 0xac48_5cd3_af09_db54, 0xafe1_698c_9d23_0f2c, 0x0a7a_2f59_91fc_d33d]),
    ("vmm-exclusive", "optane-write-aware", [0xbff8_91ae_7711_7e21, 0x55c0_e311_66d2_a867, 0x2f1b_c24b_755d_82f1, 0xa871_2d11_30fd_48b0]),
    ("vmm-exclusive", "bare-metal", [0x386f_598a_24eb_1144, 0xf21e_e1b6_b41e_6490, 0xddfe_c2dc_628b_1f74, 0x3e6d_a794_79cb_e6e6]),
    ("vmm-exclusive", "three-tier", [0x8f01_19e2_79df_e172, 0xa0c0_e787_a07e_9021, 0xefef_154b_f472_47b8, 0xc562_07f6_1c29_e18f]),
    ("vmm-exclusive", "heavy-faults", [0x48f8_f28f_7d5b_b497, 0x56d7_5805_193b_a024, 0xd63b_f143_ccbb_4ad7, 0xa36e_13a3_4cbd_289c]),
    ("coordinated", "default", [0xefc2_02f6_0bef_89c2, 0x3d60_fae1_7ac0_76a1, 0xf918_7a5c_d7af_e8c4, 0x6432_680c_1a13_a6dd]),
    ("coordinated", "unguided", [0x92d8_7029_dd98_297e, 0xa957_bb4a_ed43_545d, 0x64d8_4989_92e6_6c8e, 0x4e30_97d2_95bf_bed3]),
    ("coordinated", "fixed-interval", [0x36ef_8933_3a88_ecc0, 0x3a05_797a_1351_c0b2, 0x35d1_517d_975c_042c, 0x732d_8ae3_1c05_fd39]),
    ("coordinated", "nvm-write-aware", [0xc54a_3a01_427e_e47a, 0x1fca_1ba2_2e85_920a, 0x6e5f_5b31_ffc1_7cfc, 0xbc64_6321_1977_129d]),
    ("coordinated", "optane-write-aware", [0x6203_9453_6ef3_4653, 0x0954_f121_6f0c_5788, 0x0cd2_8e5f_9cf8_a453, 0x712a_944f_cddd_040c]),
    ("coordinated", "bare-metal", [0xde54_4c81_b0aa_5c00, 0x9d72_156f_8785_8e89, 0x7b99_bd5e_7303_cc19, 0x3351_bf78_ac4f_6876]),
    ("coordinated", "three-tier", [0xe0e6_6cd3_df27_18ee, 0x70ff_bbe2_d3f7_16f3, 0xf8d7_b136_de1e_6ba8, 0x37ac_d45c_eb03_9101]),
    ("coordinated", "heavy-faults", [0x0369_8955_42ce_1e09, 0x9e93_2cbb_f51e_7215, 0x452d_56de_c04a_ac7c, 0xe102_606c_4a3a_f032]),
    ("coordinated/access-bit", "default", [0xfd3c_2ad7_a1f1_0ffb, 0x6be3_e455_b3a5_aad4, 0x3eec_fdd1_3597_33eb, 0x6cb3_2170_b5bd_50ea]),
    ("coordinated/access-bit", "unguided", [0xfd3c_2ad7_a1f1_0ffb, 0x6be3_e455_b3a5_aad4, 0x3eec_fdd1_3597_33eb, 0x16e3_9d8a_7166_4f67]),
    ("coordinated/access-bit", "fixed-interval", [0x1ba1_cc76_efc8_5d40, 0x1ac8_7dfc_54fc_d452, 0x65ad_785b_d4fd_4c32, 0xab6a_361f_a85b_a069]),
    ("coordinated/access-bit", "nvm-write-aware", [0xfd3c_2ad7_a1f1_0ffb, 0x6be3_e455_b3a5_aad4, 0x3eec_fdd1_3597_33eb, 0xf420_45c2_cca0_715b]),
    ("coordinated/access-bit", "optane-write-aware", [0xfd3c_2ad7_a1f1_0ffb, 0x6be3_e455_b3a5_aad4, 0x3eec_fdd1_3597_33eb, 0xe372_62ce_dce5_1a20]),
    ("coordinated/access-bit", "bare-metal", [0xccf3_3d35_43ce_2029, 0x1e2c_7dec_a90c_5f2f, 0x2661_da14_51df_62bb, 0x4878_b66f_24e1_9db3]),
    ("coordinated/access-bit", "three-tier", [0xfd3c_2ad7_a1f1_0ffb, 0x6be3_e455_b3a5_aad4, 0x3eec_fdd1_3597_33eb, 0x603f_e48f_d3bc_e257]),
    ("coordinated/access-bit", "heavy-faults", [0xe45e_cca4_d45c_ea4b, 0x0fb8_7b1d_018f_e49c, 0xabac_71f5_9207_8944, 0x8f27_5591_b985_bc54]),
    ("vmm-exclusive/access-bit", "default", [0x950b_c4e1_f49c_5da6, 0x8eb9_391f_95a6_7437, 0x8f9f_496b_7686_7c80, 0x6dc1_06d9_a32f_40c9]),
    ("vmm-exclusive/access-bit", "unguided", [0x950b_c4e1_f49c_5da6, 0x8eb9_391f_95a6_7437, 0x8f9f_496b_7686_7c80, 0xa40d_3692_020a_67b0]),
    ("vmm-exclusive/access-bit", "fixed-interval", [0xc97e_5e04_56b6_b323, 0xc606_0a4f_c623_7621, 0x74ca_395d_6075_3638, 0x2abf_2ba8_82e6_d018]),
    ("vmm-exclusive/access-bit", "nvm-write-aware", [0x95e6_ddc3_9405_7517, 0x4822_67b1_044e_a7c6, 0x61b1_0162_bf95_be49, 0x9064_e145_4686_6a9c]),
    ("vmm-exclusive/access-bit", "optane-write-aware", [0x5359_0892_fd12_1fc4, 0xaf68_6cc5_2570_d4ed, 0xcbc2_e3cd_b9e1_72f9, 0x5a90_978e_6e0b_9dfb]),
    ("vmm-exclusive/access-bit", "bare-metal", [0x05ab_ff2d_72cd_98fc, 0x3099_fe14_e121_8e22, 0x2e2e_46b4_5b83_5920, 0xd134_cc11_0a4b_8af5]),
    ("vmm-exclusive/access-bit", "three-tier", [0x950b_c4e1_f49c_5da6, 0x8eb9_391f_95a6_7437, 0x8f9f_496b_7686_7c80, 0xdab2_dd65_ff18_aa50]),
    ("vmm-exclusive/access-bit", "heavy-faults", [0xd97f_9738_cc8f_5c3d, 0x49a7_f132_17c9_a877, 0x2eea_d2a1_c1bf_b8d1, 0x2b56_45e3_6957_d501]),
    ("vmm-exclusive/guided", "default", [0xfaa0_03f2_d3a4_8c8b, 0xde5c_38de_7fe4_2fc3, 0x0b54_8c9d_0c3f_6b09, 0xcb9f_4778_901e_d8f5]),
    ("vmm-exclusive/guided", "unguided", [0xca7a_5927_1313_a17b, 0x8a0a_9aa7_9472_42d6, 0xfe89_3998_06a3_213c, 0xa4ca_65a5_afde_20cf]),
    ("vmm-exclusive/guided", "fixed-interval", [0xfaa0_03f2_d3a4_8c8b, 0xde5c_38de_7fe4_2fc3, 0x0b54_8c9d_0c3f_6b09, 0xf878_4d4f_b8a6_5768]),
    ("vmm-exclusive/guided", "nvm-write-aware", [0xf31d_c628_54fb_fdb7, 0xaaeb_643e_74a2_51c2, 0x453c_103b_81ff_4c37, 0x477c_b1e5_88e2_dca9]),
    ("vmm-exclusive/guided", "optane-write-aware", [0xc3f6_61b9_16cd_3603, 0x2f47_e90d_5638_0687, 0x2ba2_776f_07a3_4c05, 0x5828_15d3_7f20_2b25]),
    ("vmm-exclusive/guided", "bare-metal", [0x45f0_d712_0c30_b046, 0x3372_2806_b933_51af, 0x5a92_09d4_95d4_3892, 0x8ca9_8152_ac3a_48ed]),
    ("vmm-exclusive/guided", "three-tier", [0xfaa0_03f2_d3a4_8c8b, 0xde5c_38de_7fe4_2fc3, 0x0b54_8c9d_0c3f_6b09, 0xba7c_ec5f_0b44_6e64]),
    ("vmm-exclusive/guided", "heavy-faults", [0xb991_d6e2_e658_b108, 0x8fb6_9a5d_e51c_8932, 0x0aec_ac3e_77a2_e220, 0xbdc6_f6f3_cf2b_ef70]),
];

#[test]
fn scan_pipeline_matches_recorded_digests() {
    let mut moved = Vec::new();
    let mut unreached = Vec::new();
    for leg in &SCAN_LEGS {
        let (leg_name, policy, tracking) = *leg;
        for variant in SCAN_VARIANTS {
            let name = format!("{leg_name}/{variant}");
            let (mut sim, epochs) = scan_sim(leg, variant);
            let mut steps = 0u64;
            let mut snap = None;
            while sim.step() {
                steps += 1;
                if steps == epochs / 2 {
                    snap = Some(sim.save());
                }
            }
            let snap = snap.unwrap_or_else(|| panic!("{name}: run ended before half way"));
            // Reach checks, reported after the digests so a moved row is
            // always printed for re-recording.
            if variant == "heavy-faults" {
                if sim.recoveries() == 0 {
                    unreached.push(format!("{name}: no crash reset the scan state"));
                }
                let faults = sim.fault_injector().expect("armed").trace().to_text();
                let checked = tracking.unwrap_or(policy.tracking()) != Tracking::FullVm;
                if checked && !faults.contains("guest/migrate") {
                    unreached.push(format!("{name}: no transient failure reached the promoter"));
                }
            }
            let log = sim.events().expect("tracing is on");
            if log.dropped() > 0 {
                unreached.push(format!("{name}: the event log wrapped"));
            }
            let text: String = log.iter().map(|e| format!("{e}\n")).collect();
            let telemetry = sim.telemetry().expect("telemetry is on").snapshot_json();
            let got = [
                fnv1a(sim.report().to_json().as_bytes()),
                fnv1a(text.as_bytes()),
                fnv1a(telemetry.as_bytes()),
                fnv1a(&snap),
            ];
            let want = SCAN_DIGESTS
                .iter()
                .find(|row| row.0 == leg_name && row.1 == variant)
                .map(|row| row.2);
            if want != Some(got) {
                moved.push(format!(
                    "    (\"{leg_name}\", \"{variant}\", [{}, {}, {}, {}]),",
                    hex(got[0]),
                    hex(got[1]),
                    hex(got[2]),
                    hex(got[3])
                ));
            }
        }
    }
    assert!(moved.is_empty(), "scan digests moved:\n{}", moved.join("\n"));
    assert!(unreached.is_empty(), "{}", unreached.join("\n"));
}

/// Builds one dispatch cell from its leg, policy and seed. `"dispatch"`
/// runs graphchi at 1/25 length with tracing on, under six placement
/// disciplines: static chains (slow-mem-only), RNG-driven chains (random,
/// NUMA-preferred) and demand-prioritised chains (the three OD policies).
/// `"soak"` is the chaos soak's engine leg: graphchi at 1/20 length with
/// `FaultPlan::for_seed` armed and the epoch audit on. `"watermark"` runs
/// nginx, at 1/25 length with tracing on, on a machine with 1/32 of the
/// paper's SlowMem and FastMem at 1/16 of that: its I/O runs cross the
/// FastMem watermark while another page type is prioritised (the run
/// bound in the engine's `next_pref_run`), and its page-ins meet full
/// tiers, so a reclaim storm hands the rest of a run back for
/// re-placement (`bulk_io_page_ins`). No other cell reaches either.
fn dispatch_sim(leg: &str, policy: Policy, seed: u64) -> SingleVmSim<AppWorkload> {
    let mut cfg = SimConfig::paper_default()
        .with_capacity_ratio(1, 4)
        .with_seed(seed);
    let mut spec = apps::graphchi();
    match leg {
        "dispatch" => {
            cfg.trace_events = 100_000;
            spec.total_instructions /= 25;
        }
        "watermark" => {
            cfg.slow_bytes /= 32;
            cfg = cfg.with_capacity_ratio(1, 16);
            cfg.trace_events = 100_000;
            spec = apps::nginx();
            spec.total_instructions /= 25;
        }
        "soak" => {
            cfg = cfg.with_audit(AuditLevel::Epoch);
            spec.total_instructions /= 20;
        }
        other => panic!("unknown dispatch leg {other}"),
    }
    let workload = AppWorkload::new(spec, cfg.page_size, cfg.scale);
    let mut sim = SingleVmSim::new(cfg, policy, workload);
    if leg == "soak" {
        sim.set_fault_injector(FaultInjector::new(FaultPlan::for_seed(seed)));
    }
    sim
}

/// Per dispatch cell: FNV-1a digests of the `RunReport`'s `Debug` string
/// and of the event log (`"dispatch"`) or the fault trace (`"soak"`). They
/// pin the engine's run-grouped bulk demand dispatch to the per-object
/// placement sequence: every chain decision, RNG draw, reclaim storm and
/// injected fault lands on the same object. Recorded while a per-object
/// scalar dispatch still existed and produced the same bytes.
type DispatchDigest = (&'static str, Policy, u64, [u64; 2]);
#[rustfmt::skip]
const DISPATCH_DIGESTS: [DispatchDigest; 46] = [
    ("dispatch", Policy::SlowMemOnly, 7, [0xeaa0_dee9_9321_8957, 0xcbf2_9ce4_8422_2325]),
    ("dispatch", Policy::SlowMemOnly, 11, [0xeaa0_dee9_9321_8957, 0xcbf2_9ce4_8422_2325]),
    ("dispatch", Policy::SlowMemOnly, 42, [0xeaa0_dee9_9321_8957, 0xcbf2_9ce4_8422_2325]),
    ("dispatch", Policy::SlowMemOnly, 100, [0xeaa0_dee9_9321_8957, 0xcbf2_9ce4_8422_2325]),
    ("dispatch", Policy::SlowMemOnly, 555, [0xeaa0_dee9_9321_8957, 0xcbf2_9ce4_8422_2325]),
    ("dispatch", Policy::SlowMemOnly, 9001, [0xeaa0_dee9_9321_8957, 0xcbf2_9ce4_8422_2325]),
    ("dispatch", Policy::Random, 7, [0x851f_f4ce_f020_943b, 0xcbf2_9ce4_8422_2325]),
    ("dispatch", Policy::Random, 11, [0x2f8c_7315_da08_2138, 0xcbf2_9ce4_8422_2325]),
    ("dispatch", Policy::Random, 42, [0x1dce_a2ed_0532_748f, 0xcbf2_9ce4_8422_2325]),
    ("dispatch", Policy::Random, 100, [0x64c1_2764_e5b8_708d, 0xcbf2_9ce4_8422_2325]),
    ("dispatch", Policy::Random, 555, [0x2e5d_1078_cd61_b375, 0xcbf2_9ce4_8422_2325]),
    ("dispatch", Policy::Random, 9001, [0x395c_795a_7a73_f757, 0xcbf2_9ce4_8422_2325]),
    ("dispatch", Policy::NumaPreferred, 7, [0xa7db_23a5_dc47_2eb5, 0xcbf2_9ce4_8422_2325]),
    ("dispatch", Policy::NumaPreferred, 11, [0x191c_9f85_4253_c7b3, 0xcbf2_9ce4_8422_2325]),
    ("dispatch", Policy::NumaPreferred, 42, [0x8a09_6c03_e3ec_0716, 0xcbf2_9ce4_8422_2325]),
    ("dispatch", Policy::NumaPreferred, 100, [0x2b67_a101_7236_1bf9, 0xcbf2_9ce4_8422_2325]),
    ("dispatch", Policy::NumaPreferred, 555, [0x0272_9786_e5ce_e2c5, 0xcbf2_9ce4_8422_2325]),
    ("dispatch", Policy::NumaPreferred, 9001, [0xd05c_d85b_d374_e500, 0xcbf2_9ce4_8422_2325]),
    ("dispatch", Policy::HeapIoSlabOd, 7, [0xbfbb_8440_71cb_5c36, 0xcbf2_9ce4_8422_2325]),
    ("dispatch", Policy::HeapIoSlabOd, 11, [0xbe84_1c68_ed5d_91bd, 0xcbf2_9ce4_8422_2325]),
    ("dispatch", Policy::HeapIoSlabOd, 42, [0xea6a_1527_b685_9103, 0xcbf2_9ce4_8422_2325]),
    ("dispatch", Policy::HeapIoSlabOd, 100, [0x0191_e202_e11f_7414, 0xcbf2_9ce4_8422_2325]),
    ("dispatch", Policy::HeapIoSlabOd, 555, [0x7a0e_4a33_a747_0929, 0xcbf2_9ce4_8422_2325]),
    ("dispatch", Policy::HeapIoSlabOd, 9001, [0x23e7_2e81_5a98_8806, 0xcbf2_9ce4_8422_2325]),
    ("dispatch", Policy::HeteroLru, 7, [0x3ea7_6bdd_955f_d2ec, 0x7b20_2b95_2df6_9348]),
    ("dispatch", Policy::HeteroLru, 11, [0x58ba_f557_4306_cea5, 0xa17d_93f6_3a93_1a15]),
    ("dispatch", Policy::HeteroLru, 42, [0x17ac_7fe7_9f56_14ab, 0x415d_294e_756b_c320]),
    ("dispatch", Policy::HeteroLru, 100, [0xe745_48a7_0ac4_7a14, 0x7b8f_8bfe_21f3_03bc]),
    ("dispatch", Policy::HeteroLru, 555, [0x89b5_6531_ad8c_f895, 0x06cd_98ea_571b_cefc]),
    ("dispatch", Policy::HeteroLru, 9001, [0x5857_5faf_9689_2787, 0x499f_5180_6d8a_b238]),
    ("dispatch", Policy::HeteroCoordinated, 7, [0x49cb_bb42_ac01_24b1, 0x3a5e_197a_f89c_59de]),
    ("dispatch", Policy::HeteroCoordinated, 11, [0xc8a1_2e74_c31f_8dc9, 0x9475_8dbf_e7ef_2d59]),
    ("dispatch", Policy::HeteroCoordinated, 42, [0xe36b_16e5_1e2e_b1e6, 0xede8_9a71_849d_0843]),
    ("dispatch", Policy::HeteroCoordinated, 100, [0x66f2_d49c_725a_650f, 0x90a9_6a06_7a8d_ab73]),
    ("dispatch", Policy::HeteroCoordinated, 555, [0x10df_ea81_a376_1636, 0x084e_8c74_8c48_757d]),
    ("dispatch", Policy::HeteroCoordinated, 9001, [0xbb88_7ecf_6139_5985, 0xdb58_42bd_e3b3_88e6]),
    ("soak", Policy::HeteroCoordinated, 100, [0xb7a3_1a0f_870b_40b5, 0x53ff_4559_1eb5_0386]),
    ("soak", Policy::HeteroCoordinated, 101, [0x58b4_11fa_df85_6ea7, 0x4636_71a3_eabb_d360]),
    ("soak", Policy::HeteroCoordinated, 102, [0xa5ba_b734_a483_15f6, 0xcbf2_9ce4_8422_2325]),
    ("soak", Policy::HeteroCoordinated, 103, [0x82d2_ded1_87c7_2082, 0xbe21_2e5a_27b3_5bc1]),
    ("soak", Policy::HeteroCoordinated, 104, [0xd525_d874_2042_f475, 0x1879_95b2_0b90_8525]),
    ("soak", Policy::HeteroCoordinated, 105, [0xc700_dce7_4720_b4d8, 0xcbf2_9ce4_8422_2325]),
    ("soak", Policy::HeteroCoordinated, 106, [0xede2_1a71_0e5c_1993, 0x813c_a8a9_73b5_c31c]),
    ("soak", Policy::HeteroCoordinated, 107, [0x0de7_b3cb_4d21_485e, 0x2583_9786_4a4f_c5ed]),
    ("soak", Policy::HeteroCoordinated, 108, [0xc6a2_83d5_bba6_eaba, 0xcbf2_9ce4_8422_2325]),
    ("watermark", Policy::HeapIoSlabOd, 7, [0xb69e_8373_4038_56ea, 0xcbf2_9ce4_8422_2325]),
];

#[test]
fn bulk_dispatch_matches_recorded_digests() {
    let results = Runner::new(0).run(DISPATCH_DIGESTS.to_vec(), |(leg, policy, seed, _)| {
        let mut sim = dispatch_sim(leg, policy, seed);
        while sim.step() {}
        let log = match sim.fault_injector() {
            Some(injector) => injector.trace().to_text(),
            None => {
                let events = sim.events().expect("tracing is on");
                assert_eq!(
                    events.dropped(),
                    0,
                    "{leg}/{policy:?}/{seed}: event log wrapped"
                );
                events.iter().map(|e| format!("{e}\n")).collect()
            }
        };
        assert!(
            sim.violations().is_empty(),
            "{leg}/{policy:?}/{seed}: invariant violations: {:?}",
            sim.violations()
        );
        (format!("{:?}", sim.report()), log)
    });
    let mut moved = Vec::new();
    for ((leg, policy, seed, want), (report, log)) in DISPATCH_DIGESTS.iter().zip(&results) {
        let got = [fnv1a(report.as_bytes()), fnv1a(log.as_bytes())];
        if got != *want {
            moved.push(format!(
                "    (\"{leg}\", Policy::{policy:?}, {seed}, [{}, {}]),",
                hex(got[0]),
                hex(got[1])
            ));
        }
    }
    assert!(
        moved.is_empty(),
        "dispatch digests moved:\n{}",
        moved.join("\n")
    );
    let logged = |leg| {
        DISPATCH_DIGESTS
            .iter()
            .zip(&results)
            .any(|(row, (_, log))| row.0 == leg && !log.is_empty())
    };
    assert!(logged("dispatch"), "no dispatch cell traced a single event");
    assert!(logged("soak"), "no soak cell injected a single fault");
}

/// FNV-1a of `SimConfig::paper_default()`'s encoding, which opens every
/// snapshot. Recorded while `SimConfig` still had the two retired flags
/// whose one-byte slots the encoding keeps.
const CONFIG_DIGEST: u64 = 0xc966_f971_0221_e1c7;

#[test]
fn retired_config_slots_keep_their_bytes_and_meaning() {
    let encode = |cfg: &SimConfig| {
        let mut w = SnapWriter::new();
        cfg.snap(&mut w);
        w.into_bytes()
    };
    let decode = |bytes: &[u8]| -> Result<SimConfig, SnapshotError> {
        let mut r = SnapReader::new(bytes);
        let cfg = SimConfig::unsnap(&mut r)?;
        r.finish()?;
        Ok(cfg)
    };
    let bytes = encode(&SimConfig::paper_default());
    assert_eq!(fnv1a(&bytes), CONFIG_DIGEST, "config encoding moved");
    // The retired slots follow `app_hints`: find it by flipping it.
    let hinted = encode(&SimConfig {
        app_hints: true,
        ..SimConfig::paper_default()
    });
    let app_hints = bytes
        .iter()
        .zip(&hinted)
        .position(|(a, b)| a != b)
        .expect("app_hints has a byte of its own");
    let (bulk, legacy_audit) = (app_hints + 1, app_hints + 2);
    assert_eq!(bytes[bulk..=legacy_audit], [1, 0]);

    // A snapshot saved from a scalar-dispatch run decodes to the same config.
    let mut scalar = bytes.clone();
    scalar[bulk] = 0;
    assert_eq!(
        encode(&decode(&scalar).expect("bulk slot 0 decodes")),
        bytes
    );

    // The legacy audit flag restores as the epoch audit when no level is set,
    // and yields to an explicit level.
    let mut legacy = bytes.clone();
    legacy[legacy_audit] = 1;
    let cfg = decode(&legacy).expect("audit slot 1 decodes");
    assert_eq!(cfg.audit, AuditLevel::Epoch);
    assert_eq!(
        encode(&SimConfig {
            audit: AuditLevel::Off,
            ..cfg
        }),
        bytes
    );
    let mut legacy = encode(&SimConfig::paper_default().with_audit(AuditLevel::Paranoid));
    legacy[legacy_audit] = 1;
    let cfg = decode(&legacy).expect("audit slot 1 decodes");
    assert_eq!(cfg.audit, AuditLevel::Paranoid);

    // Either slot still decodes as a bool.
    for slot in [bulk, legacy_audit] {
        let mut bad = bytes.clone();
        bad[slot] = 2;
        let err = decode(&bad).expect_err("a bool slot of 2 is corrupt");
        assert_eq!(
            err,
            SnapshotError::corrupt("invalid bool byte 2"),
            "slot {slot}"
        );
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

/// FNV-1a of the `Display` strings `SingleVmSim::restore` returns for every
/// 1999th proper prefix of a half-run snapshot (150 epochs, with the
/// persistence domain armed) and for its last 64, recorded with the
/// per-field decoders that the one-pass array codecs replaced. Every codec
/// of the engine, kernel, tracker and persistence domain must run out of
/// bytes at the same read.
const PREFIX_ERROR_DIGEST: u64 = 0x0788_f1a3_20ab_c6b6;

#[test]
fn truncated_snapshot_errors_match_the_pinned_digest() {
    let opts = quick_with_seed(42).with_persist(FlushPolicy::EpochBatched);
    let mut sim = single_sim(&opts, Policy::HeteroCoordinated);
    for _ in 0..75 {
        assert!(sim.step());
    }
    let bytes = sim.save();
    let cuts = (0..bytes.len())
        .step_by(1999)
        .chain(bytes.len() - 64..bytes.len());
    let mut seen = String::new();
    for cut in cuts {
        let err = must_fail(SingleVmSim::restore(&bytes[..cut]), "truncated snapshot");
        seen.push_str(&err.to_string());
        seen.push('\n');
    }
    let digest = fnv1a(seen.as_bytes());
    assert_eq!(
        digest,
        PREFIX_ERROR_DIGEST,
        "restore errors on {} bytes moved: {digest:#018x}",
        bytes.len()
    );
}
