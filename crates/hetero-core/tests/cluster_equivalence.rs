//! Cluster determinism matrix.
//!
//! The cluster's contract is the same one the single-host engines pin:
//! `jobs` is a pure performance lever. Sharding hosts across worker
//! threads must never change a single exported byte — not the cluster
//! report, not a per-VM summary, not the migration trace. This matrix
//! pins that across policies and seeds with the epoch-level invariant
//! sanitizer armed (so runs that "agree" by corrupting shared state the
//! same way twice still get caught), exercises the trace-driven arrival
//! mode with a guaranteed live migration, and soaks the whole fleet with
//! seeded guest crashes to prove the chaos is thread-count-invariant too.

use hetero_core::cluster::{ArrivalProcess, Cluster, ClusterSpec, MigrationPolicy};
use hetero_core::multivm::{MultiVmSim, VmSetup};
use hetero_core::{AuditLevel, Policy, SimConfig};
use hetero_mem::FlushPolicy;
use hetero_sim::{CostCategory, Nanos, Runner};
use hetero_vmm::SharePolicy;
use hetero_workloads::{apps, WorkloadSpec};

const GB: u64 = 1 << 30;
const MB: u64 = 1 << 20;

/// Guest-LRU, coordinated and VMM-only management exercise disjoint
/// engine paths inside every host.
const POLICIES: [Policy; 3] = [
    Policy::HeteroCoordinated,
    Policy::HeteroLru,
    Policy::VmmExclusive,
];

const SEEDS: [u64; 3] = [7, 42, 1009];

fn quick(mut spec: WorkloadSpec) -> WorkloadSpec {
    spec.total_instructions /= 160;
    spec
}

fn cfg(seed: u64) -> SimConfig {
    SimConfig::paper_default()
        .with_fast_bytes(4 * GB)
        .with_slow_bytes(8 * GB)
        .with_seed(seed)
        .with_audit(AuditLevel::Epoch)
}

/// A small Poisson fleet: three hosts, two templates, eighteen arrivals.
fn poisson_spec() -> ClusterSpec {
    ClusterSpec {
        hosts: 3,
        templates: vec![
            VmSetup::new(quick(apps::graphchi()), 512 * MB, GB, GB, 2 * GB),
            VmSetup::new(quick(apps::nginx()), 128 * MB, 256 * MB, 512 * MB, GB),
        ],
        arrivals: ArrivalProcess::Poisson {
            mean_interarrival: Nanos::from_millis(20),
            count: 18,
        },
        quantum: Nanos::from_millis(50),
        migration: MigrationPolicy {
            imbalance_threshold: 0.10,
            ..MigrationPolicy::default()
        },
        fault_rate: 0.0,
    }
}

/// A trace that forces a live migration: a short-lived blocker reserves
/// one host entirely, both long-running VMs land on the other, and the
/// balancer must move one across once the blocker departs.
fn migration_trace_spec() -> ClusterSpec {
    ClusterSpec {
        hosts: 2,
        templates: vec![
            VmSetup::new(quick(apps::graphchi()), GB, 3 * GB, 2 * GB, 6 * GB),
            VmSetup::new(
                {
                    let mut s = quick(apps::nginx());
                    s.total_instructions /= 8;
                    s
                },
                4 * GB,
                8 * GB,
                4 * GB,
                8 * GB,
            ),
        ],
        arrivals: ArrivalProcess::Trace(vec![(Nanos::ZERO, 1), (Nanos::ZERO, 0), (Nanos::ZERO, 0)]),
        quantum: Nanos::from_millis(100),
        migration: MigrationPolicy {
            imbalance_threshold: 0.10,
            ..MigrationPolicy::default()
        },
        fault_rate: 0.0,
    }
}

fn run_json(policy: Policy, seed: u64, spec: ClusterSpec, jobs: usize) -> String {
    // `run` panics on any sanitizer violation with an explicit audit level
    // set, so a clean return is also a clean cluster-boundary audit.
    Cluster::new(cfg(seed), SharePolicy::paper_drf(), policy, spec, jobs)
        .run()
        .to_json()
}

#[test]
fn poisson_matrix_is_byte_identical_across_jobs() {
    for policy in POLICIES {
        for seed in SEEDS {
            let seq = run_json(policy, seed, poisson_spec(), 1);
            let par = run_json(policy, seed, poisson_spec(), 4);
            assert_eq!(seq, par, "policy {policy:?} seed {seed} diverged");
        }
    }
}

#[test]
fn seeds_actually_change_the_run() {
    let a = run_json(Policy::HeteroCoordinated, SEEDS[0], poisson_spec(), 1);
    let b = run_json(Policy::HeteroCoordinated, SEEDS[1], poisson_spec(), 1);
    assert_ne!(a, b, "different seeds must produce different fleets");
}

#[test]
fn trace_mode_migrates_and_is_byte_identical_across_jobs() {
    for seed in SEEDS {
        let outcome = Cluster::new(
            cfg(seed),
            SharePolicy::paper_drf(),
            Policy::HeteroCoordinated,
            migration_trace_spec(),
            1,
        )
        .run();
        assert!(
            outcome.report.migrations >= 1,
            "seed {seed}: engineered imbalance must live-migrate"
        );
        let m = &outcome.migrations[0];
        assert!(m.pages_copied > 0 && !m.cost.is_zero() && !m.downtime.is_zero());
        let par = Cluster::new(
            cfg(seed),
            SharePolicy::paper_drf(),
            Policy::HeteroCoordinated,
            migration_trace_spec(),
            4,
        )
        .run();
        assert_eq!(outcome.to_json(), par.to_json(), "seed {seed} diverged");
    }
}

/// Chaos soak: every guest armed with seeded power-loss crashes over the
/// write-behind NVM tier. The crashes must fire (a fault-free run exports
/// different bytes) and the whole chaotic fleet must still be
/// thread-count-invariant and audit-clean.
#[test]
fn chaos_fleet_with_faults_armed_is_byte_identical_across_jobs() {
    let chaotic = |fault_rate: f64, jobs: usize, seed: u64| {
        let mut spec = poisson_spec();
        spec.fault_rate = fault_rate;
        Cluster::new(
            cfg(seed).with_persist(FlushPolicy::EpochBatched),
            SharePolicy::paper_drf(),
            Policy::HeteroLru,
            spec,
            jobs,
        )
        .run()
        .to_json()
    };
    for seed in SEEDS {
        let seq = chaotic(0.05, 1, seed);
        let par = chaotic(0.05, 4, seed);
        assert_eq!(seq, par, "seed {seed}: chaos diverged across jobs");
        let calm = chaotic(0.0, 1, seed);
        assert_ne!(
            seq, calm,
            "seed {seed}: faults never fired — soak is vacuous"
        );
    }
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

/// The round (cluster legs) or fleet step (the max-min leg) after which a
/// leg saves its mid-run snapshot.
const BALLOON_SAVE_AT: u64 = 12;

/// A two-VM max-min fleet on a host that cannot hold both VMs' maxima:
/// metis grows into graphchi's SlowMem until graphchi's balloon runs out
/// of free and reclaimable pages and swaps heap pages out
/// (`SingleVmSim::yield_pages`' swap loop).
fn max_min_swap_fleet(seed: u64) -> MultiVmSim {
    let setups = vec![
        VmSetup::new(quick(apps::graphchi()), GB, 5 * GB / 2, 2 * GB, 6 * GB),
        VmSetup::new(quick(apps::metis()), 3 * GB, 5 * GB / 2, 4 * GB, 8 * GB),
    ];
    MultiVmSim::new(
        cfg(seed),
        SharePolicy::MaxMin,
        Policy::HeteroCoordinated,
        setups,
    )
}

/// Runs one balloon leg to the end: its outcome JSON (the cluster
/// outcome, or the fleet's reports in setup order) and the snapshot it
/// saved after [`BALLOON_SAVE_AT`] rounds or steps. `leg` is `"poisson"`
/// (the matrix fleet above), `"max-min-swap"` ([`max_min_swap_fleet`]) or
/// `"crash-reboot"` (the chaos fleet, whose power losses reboot guests
/// and re-inflate their balloons through `FleetCore::reconcile_reboot`).
fn balloon_leg(leg: &str, policy: Policy, seed: u64) -> (String, Vec<u8>) {
    if leg == "max-min-swap" {
        let mut fleet = max_min_swap_fleet(seed);
        let mut snap = Vec::new();
        let mut steps = 0;
        while fleet.step_fleet() {
            steps += 1;
            if steps == BALLOON_SAVE_AT {
                snap = fleet.save();
            }
        }
        let (reports, violations) = fleet.into_results();
        assert_eq!(violations, Vec::new(), "{leg} seed {seed}");
        let swapped = reports.iter().any(|r| {
            r.breakdown
                .iter()
                .any(|&(c, t)| c == CostCategory::IoWait && !t.is_zero())
        });
        assert!(swapped, "{leg} seed {seed}: no guest ever swapped");
        let json: String = reports.iter().map(|r| r.to_json()).collect();
        return (json, snap);
    }
    let (host, spec) = match leg {
        "poisson" => (cfg(seed), poisson_spec()),
        "crash-reboot" => {
            let mut spec = poisson_spec();
            spec.fault_rate = 0.05;
            (cfg(seed).with_persist(FlushPolicy::EpochBatched), spec)
        }
        _ => panic!("unknown balloon leg {leg}"),
    };
    let mut cluster = Cluster::new(host, SharePolicy::paper_drf(), policy, spec, 1);
    let mut snap = Vec::new();
    let mut rounds = 0;
    while cluster.step_round() {
        rounds += 1;
        if rounds == BALLOON_SAVE_AT {
            snap = cluster.save();
        }
    }
    let (outcome, violations) = cluster.finish();
    assert_eq!(violations, Vec::new(), "{leg} {policy:?} seed {seed}");
    (outcome.to_json(), snap)
}

/// Per balloon leg: FNV-1a digests of its outcome JSON and of its mid-run
/// snapshot. Every guest balloon inflation and deflation of these fleets
/// runs through the per-CPU lists and the buddy allocator, so the rows pin
/// the allocator state they leave behind: which frames each balloon holds
/// and in what order, the per-CPU lists, the buddy bitmaps and scan hints,
/// and the refill counters.
const BALLOON_DIGESTS: [(&str, Policy, u64, u64, u64); 11] = [
    (
        "poisson",
        Policy::HeteroCoordinated,
        7,
        0x96fd_f45d_f316_f20b,
        0x2468_8083_3081_6014,
    ),
    (
        "poisson",
        Policy::HeteroCoordinated,
        42,
        0x2bf1_66ed_92ee_1e55,
        0x07be_cf59_6b02_e68d,
    ),
    (
        "poisson",
        Policy::HeteroCoordinated,
        1009,
        0x3292_b9c5_2d16_e917,
        0xb22f_e54d_edf6_798e,
    ),
    (
        "poisson",
        Policy::HeteroLru,
        7,
        0xb9aa_109d_bbf6_3456,
        0x2ecb_1616_6c06_2a63,
    ),
    (
        "poisson",
        Policy::HeteroLru,
        42,
        0x2f01_6640_2c60_f819,
        0x41f0_fbc7_3b5b_c75f,
    ),
    (
        "poisson",
        Policy::HeteroLru,
        1009,
        0x09f1_d147_4bd3_2214,
        0x3e81_d895_43c4_a82c,
    ),
    (
        "poisson",
        Policy::VmmExclusive,
        7,
        0xab5c_9fef_e191_28ca,
        0x1d52_421e_97c4_f7d5,
    ),
    (
        "poisson",
        Policy::VmmExclusive,
        42,
        0x3749_d626_397e_8108,
        0xc977_97f1_165a_9fd9,
    ),
    (
        "poisson",
        Policy::VmmExclusive,
        1009,
        0x88c5_21df_3b33_9432,
        0x8b09_6775_d179_5ea4,
    ),
    (
        "max-min-swap",
        Policy::HeteroCoordinated,
        7,
        0xb85d_8804_bc29_a2fe,
        0x41b5_e90a_d9b8_237e,
    ),
    (
        "crash-reboot",
        Policy::HeteroLru,
        42,
        0x35fc_aa15_3c9b_ee64,
        0x80e4_b400_7396_ab75,
    ),
];

#[test]
fn balloon_digests_hold() {
    let results = Runner::new(0).run(BALLOON_DIGESTS.to_vec(), |(leg, policy, seed, _, _)| {
        balloon_leg(leg, policy, seed)
    });
    let mut moved = Vec::new();
    for ((leg, policy, seed, outcome, snap), (json, bytes)) in BALLOON_DIGESTS.iter().zip(&results)
    {
        assert!(
            !bytes.is_empty(),
            "{leg} {policy:?} seed {seed}: ended before the save"
        );
        let got = (fnv1a(json.as_bytes()), fnv1a(bytes));
        if got != (*outcome, *snap) {
            moved.push(format!(
                "    (\"{leg}\", Policy::{policy:?}, {seed}, {}, {}),",
                hex(got.0),
                hex(got.1)
            ));
        }
    }
    assert!(
        moved.is_empty(),
        "balloon digests moved:\n{}",
        moved.join("\n")
    );
}
