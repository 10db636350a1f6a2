//! Wall-clock benchmark baseline (`cargo bench -p bench`).
//!
//! Runs offline with zero extra dependencies: plain `std::time::Instant`
//! timing around the stack's hot paths — buddy churn, full-VM hotness
//! scans, LRU transitions, end-to-end `repro` epochs, and the
//! object-traffic microbench through both the per-object and the bulk
//! slab calls.
//!
//! Output: per-op nanoseconds on stdout, and (in full mode) a
//! machine-readable `BENCH_substrate.json` at the repo root with
//! `{bench_name: {ns_per_op, ops}}` entries.
//!
//! Flags (after `--`):
//! * `--smoke` — reduced iteration counts for CI smoke runs;
//! * `--check` — compare the measured gate benches (object traffic,
//!   `repro_epochs`, `idle_fleet`, `cluster_step`, snapshot save/restore)
//!   against the committed `BENCH_substrate.json` and exit non-zero on a
//!   regression above 2x, or when the file or a gated entry is missing.
//!   A gated bench that reads above 2x is timed up to [`RETIMES`] more
//!   times and gated on its fastest reading, so one noisy sample cannot
//!   fail the gate. Does **not** rewrite the committed baseline.

use std::time::Instant;

use hetero_core::experiments::{checkpoint, cluster, placement, ExpOptions};
use hetero_core::multivm::{MultiVmSim, VmSetup};
use hetero_core::{Policy, SimConfig, SingleVmSim};
use hetero_guest::buddy::BuddyAllocator;
use hetero_guest::kernel::{GuestConfig, GuestKernel};
use hetero_guest::page::Gfn;
use hetero_guest::SlabClass;
use hetero_mem::MemKind;
use hetero_vmm::hotness::ScanOutcome;
use hetero_vmm::{HotnessTracker, SharePolicy};
use hetero_workloads::{apps, AppWorkload};

/// Committed baseline path: `<repo root>/BENCH_substrate.json`.
const BASELINE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_substrate.json");

/// Regression gate for `--check`.
const MAX_REGRESSION: f64 = 2.0;

/// Extra timings `--check` takes of a gated bench that reads above
/// [`MAX_REGRESSION`] before it fails the gate on the fastest one.
const RETIMES: usize = 2;

/// The benches `--check` gates, each against its committed entry.
const GATED: [&str; 7] = [
    "object_traffic_bulk",
    "object_traffic_scalar",
    "repro_epochs",
    "idle_fleet",
    "cluster_step",
    "snapshot_save",
    "snapshot_restore",
];

/// Every bench of a run, in output order. `scale` divides the iteration
/// counts (`--smoke` runs at 1/20).
const BENCHES: [&str; 11] = [
    "buddy_churn",
    "full_vm_scan",
    "lru_transitions",
    "repro_epochs",
    "object_traffic_scalar",
    "object_traffic_bulk",
    "idle_fleet",
    "idle_fleet_busy",
    "cluster_step",
    "snapshot_save",
    "snapshot_restore",
];

/// Runs the bench called `name` once.
fn run_named(name: &str, scale: u64) -> BenchResult {
    match name {
        "buddy_churn" => bench_buddy_churn(2_000 / scale),
        "full_vm_scan" => bench_full_vm_scan(60 / scale),
        "lru_transitions" => bench_lru_transitions(100 / scale),
        "repro_epochs" => bench_repro_epochs((10 / scale).max(1)),
        "object_traffic_scalar" => bench_object_traffic_scalar(20_000 / scale),
        "object_traffic_bulk" => bench_object_traffic_bulk(20_000 / scale),
        "idle_fleet" => bench_idle_fleet("idle_fleet", 6, 58),
        "idle_fleet_busy" => bench_idle_fleet("idle_fleet_busy", 6, 0),
        "cluster_step" => bench_cluster_step(),
        "snapshot_save" => bench_snapshot_save((200 / scale).max(1)),
        "snapshot_restore" => bench_snapshot_restore((200 / scale).max(1)),
        other => panic!("no bench called {other}"),
    }
}

struct BenchResult {
    name: &'static str,
    ns_per_op: f64,
    ops: u64,
}

/// Times `iters` calls of `f` (after a short warmup); `f` returns the
/// number of primitive operations it performed.
fn run_bench(name: &'static str, iters: u64, mut f: impl FnMut() -> u64) -> BenchResult {
    for _ in 0..(iters / 10).max(1) {
        std::hint::black_box(f());
    }
    let start = Instant::now();
    let mut ops = 0u64;
    for _ in 0..iters {
        ops += std::hint::black_box(f());
    }
    let elapsed = start.elapsed().as_nanos() as f64;
    let ns_per_op = elapsed / ops.max(1) as f64;
    println!("{name:<24} {ns_per_op:>10.1} ns/op  ({ops} ops)");
    BenchResult {
        name,
        ns_per_op,
        ops,
    }
}

fn bench_buddy_churn(iters: u64) -> BenchResult {
    let mut buddy = BuddyAllocator::new(0, 1 << 16);
    let mut pages: Vec<Gfn> = Vec::with_capacity(256);
    run_bench("buddy_churn", iters, move || {
        pages.clear();
        buddy.alloc_pages_bulk(256, &mut pages);
        buddy.free_pages_bulk(&mut pages);
        512
    })
}

fn bench_full_vm_scan(iters: u64) -> BenchResult {
    let mut kernel = GuestKernel::new(GuestConfig {
        frames: vec![(MemKind::Fast, 4096), (MemKind::Slow, 16384)],
        cpus: 4,
        page_size: 4096,
    });
    kernel
        .mmap_heap(
            12_000,
            std::iter::repeat(180),
            &[MemKind::Slow, MemKind::Fast],
        )
        .expect("capacity");
    let total = kernel.memmap().total_frames();
    let mut tracker = HotnessTracker::new(2);
    let mut outcome = ScanOutcome::default();
    let mut flip = false;
    run_bench("full_vm_scan", iters, move || {
        flip = !flip;
        let touched = flip;
        let mut oracle = move |_: &hetero_guest::page::Page| touched;
        tracker.scan_full_into(&kernel, &mut oracle, total, &mut outcome);
        outcome.scanned
    })
}

fn bench_lru_transitions(iters: u64) -> BenchResult {
    let mut kernel = GuestKernel::new(GuestConfig {
        frames: vec![(MemKind::Fast, 8192)],
        cpus: 2,
        page_size: 4096,
    });
    let (vma, _) = kernel
        .mmap_heap(4096, std::iter::repeat(200), &[MemKind::Fast])
        .expect("capacity");
    let gfns: Vec<Gfn> = (vma.start..vma.end())
        .map(|v| kernel.page_table().translate(v).expect("mapped"))
        .collect();
    run_bench("lru_transitions", iters, move || {
        for &g in &gfns {
            kernel.deactivate_page(g);
        }
        for &g in &gfns {
            kernel.activate_page(g);
        }
        gfns.len() as u64 * 2
    })
}

fn bench_repro_epochs(iters: u64) -> BenchResult {
    run_bench("repro_epochs", iters, move || {
        let cfg = SimConfig::paper_default()
            .with_capacity_ratio(1, 4)
            .with_seed(42);
        let mut spec = apps::graphchi();
        spec.total_instructions /= 50;
        let wl = AppWorkload::new(spec, cfg.page_size, cfg.scale);
        let mut sim = SingleVmSim::new(cfg, Policy::HeteroCoordinated, wl);
        let mut epochs = 0u64;
        while sim.step() {
            epochs += 1;
        }
        epochs
    })
}

/// Object-traffic kernel: a standing partial slab page absorbs alternating
/// alloc-12 / free-12 object bursts, so the traffic is pure carve/release
/// with no page-level churn — the engine's hottest per-object pattern.
fn object_traffic_kernel() -> GuestKernel {
    let mut kernel = GuestKernel::new(GuestConfig {
        frames: vec![(MemKind::Fast, 8192)],
        cpus: 1,
        page_size: 4096,
    });
    for _ in 0..4 {
        kernel
            .slab_alloc(SlabClass::FsMeta, 224, &[MemKind::Fast])
            .expect("capacity");
    }
    kernel
}

fn bench_object_traffic_scalar(iters: u64) -> BenchResult {
    let mut kernel = object_traffic_kernel();
    run_bench("object_traffic_scalar", iters, move || {
        for _ in 0..12 {
            kernel
                .slab_alloc(SlabClass::FsMeta, 224, &[MemKind::Fast])
                .expect("capacity");
        }
        for _ in 0..12 {
            assert!(kernel.slab_free_any(SlabClass::FsMeta));
        }
        24
    })
}

fn bench_object_traffic_bulk(iters: u64) -> BenchResult {
    let mut kernel = object_traffic_kernel();
    run_bench("object_traffic_bulk", iters, move || {
        assert_eq!(
            kernel.slab_alloc_bulk(SlabClass::FsMeta, 12, 224, &[MemKind::Fast]),
            12
        );
        assert_eq!(kernel.slab_free_bulk(SlabClass::FsMeta, 12), 12);
        24
    })
}

/// A datacenter-shaped fleet: `active` guests run a real workload slice
/// while `idle` guests finish theirs within the first few epochs and go
/// quiescent. The event scheduler's runnable set drops finished guests, so
/// fleet cost should track the busy guests, not the booted count — the
/// `idle_fleet` / `idle_fleet_busy` pair is the committed evidence that
/// cost is sub-linear in idle-VM count. Construction and boot-ballooning
/// run untimed; `run()` is timed end-to-end. Ops = VM-epochs stepped.
fn bench_idle_fleet(name: &'static str, active: usize, idle: usize) -> BenchResult {
    const GB: u64 = 1 << 30;
    let mut setups = Vec::with_capacity(active + idle);
    for i in 0..active + idle {
        let mut spec = apps::graphchi();
        if i < active {
            spec.total_instructions /= 20;
        } else {
            // A short-lived batch job: tiny instruction budget and a
            // matching tiny footprint, so it finishes (and goes quiescent)
            // within its first few epochs.
            spec.total_instructions /= 50_000;
            spec.footprint.heap /= 100;
            spec.footprint.page_cache /= 100;
            spec.footprint.buffer_cache /= 100;
            spec.footprint.slab /= 100;
            spec.footprint.net_buf /= 100;
            spec.hot_wss_bytes /= 100;
        }
        setups.push(VmSetup::new(spec, GB / 16, GB / 8, GB / 8, GB / 4));
    }
    let cfg = SimConfig::paper_default()
        .with_fast_bytes(8 * GB)
        .with_slow_bytes(24 * GB)
        .with_seed(42);
    let sim = MultiVmSim::new(
        cfg,
        SharePolicy::paper_drf(),
        Policy::HeteroCoordinated,
        setups,
    );
    let start = Instant::now();
    let reports = sim.run();
    let elapsed = start.elapsed().as_nanos() as f64;
    let ops: u64 = reports.iter().map(|r| r.epochs).sum::<u64>().max(1);
    let ns_per_op = elapsed / ops as f64;
    println!("{name:<24} {ns_per_op:>10.1} ns/op  ({ops} ops)");
    BenchResult {
        name,
        ns_per_op,
        ops,
    }
}

/// One quick-mode cluster consolidation run (120 VM arrivals over 4
/// hosts with the balancer and live migration armed), timed end-to-end
/// on one worker thread. Ops = guest epochs stepped cluster-wide, so the
/// committed gate tracks per-epoch stepping cost through the round loop
/// — admission, sharded stepping, retirement, balancing — rather than
/// raw fleet size.
fn bench_cluster_step() -> BenchResult {
    let opts = ExpOptions::quick().with_jobs(1);
    let start = Instant::now();
    let outcome = cluster::fleet_outcome(&opts);
    let elapsed = start.elapsed().as_nanos() as f64;
    let ops = outcome.report.epochs.max(1);
    let ns_per_op = elapsed / ops as f64;
    println!(
        "{:<24} {ns_per_op:>10.1} ns/op  ({ops} ops)",
        "cluster_step"
    );
    BenchResult {
        name: "cluster_step",
        ns_per_op,
        ops,
    }
}

/// Steps the canonical `ckpt-single` scenario a few dozen epochs in, so
/// the snapshot benches measure a *mid-run* engine with live ledgers,
/// queues and RNG streams — the state a `--checkpoint-every` run pays to
/// serialize — not a freshly booted one.
fn midrun_single_sim() -> SingleVmSim<AppWorkload> {
    let opts = ExpOptions::quick();
    let mut sim = checkpoint::single_sim(&opts, Policy::HeteroCoordinated);
    for _ in 0..64 {
        if !sim.step() {
            break;
        }
    }
    sim
}

/// Full versioned serialization of a mid-run engine. Ops = snapshot
/// bytes, so the committed entry tracks per-byte encode cost.
fn bench_snapshot_save(iters: u64) -> BenchResult {
    let sim = midrun_single_sim();
    run_bench("snapshot_save", iters, move || {
        std::hint::black_box(sim.save()).len() as u64
    })
}

/// Parse + rebuild of the same snapshot. Ops = snapshot bytes.
fn bench_snapshot_restore(iters: u64) -> BenchResult {
    let bytes = midrun_single_sim().save();
    run_bench("snapshot_restore", iters, move || {
        let restored = SingleVmSim::restore(&bytes).expect("valid snapshot");
        std::hint::black_box(restored.now());
        bytes.len() as u64
    })
}

/// One full quick-mode Fig 9 sweep on `jobs` worker threads, timed
/// end-to-end (a single iteration — the sweep is seconds, not nanos). The
/// `jobs = 1` / `jobs = 0` (available parallelism) pair is the committed
/// evidence that the deterministic runner actually buys wall-clock.
fn bench_fig9_jobs(name: &'static str, jobs: usize) -> BenchResult {
    let opts = ExpOptions::quick().with_jobs(jobs);
    let start = Instant::now();
    let set = placement::fig9(&opts);
    std::hint::black_box(set.to_json().len());
    let ns_per_op = start.elapsed().as_nanos() as f64;
    println!("{name:<24} {ns_per_op:>10.1} ns/op  (1 ops)");
    BenchResult {
        name,
        ns_per_op,
        ops: 1,
    }
}

fn write_json(results: &[BenchResult]) {
    let mut out = String::from("{\n");
    for (i, r) in results.iter().enumerate() {
        let comma = if i + 1 < results.len() { "," } else { "" };
        out.push_str(&format!(
            "  \"{}\": {{ \"ns_per_op\": {:.1}, \"ops\": {} }}{comma}\n",
            r.name, r.ns_per_op, r.ops
        ));
    }
    out.push_str("}\n");
    std::fs::write(BASELINE, out).expect("write BENCH_substrate.json");
    println!("wrote {BASELINE}");
}

/// Minimal extraction of `"<name>": {{ "ns_per_op": <float>` from the
/// committed baseline (hand-rolled: the repo adds no JSON dependency).
fn baseline_ns_per_op(json: &str, name: &str) -> Option<f64> {
    let entry = json.split(&format!("\"{name}\"")).nth(1)?;
    let after = entry.split("\"ns_per_op\":").nth(1)?;
    let value: String = after
        .trim_start()
        .chars()
        .take_while(|c| c.is_ascii_digit() || *c == '.' || *c == '-')
        .collect();
    value.parse().ok()
}

/// Gates each [`GATED`] bench's reading in `results` against its committed
/// entry; a reading above the bound is re-timed with `retime` up to
/// [`RETIMES`] times, and the fastest reading decides.
fn check_regression(results: &[BenchResult], retime: impl Fn(&str) -> BenchResult) -> bool {
    let Ok(json) = std::fs::read_to_string(BASELINE) else {
        eprintln!("--check: cannot read the committed {BASELINE}");
        return false;
    };
    let mut ok = true;
    for name in GATED {
        let Some(committed) = baseline_ns_per_op(&json, name) else {
            eprintln!("--check: baseline has no entry for {name}");
            ok = false;
            continue;
        };
        let mut measured = results
            .iter()
            .find(|r| r.name == name)
            .expect("bench always runs")
            .ns_per_op;
        let committed = committed.max(f64::MIN_POSITIVE);
        for _ in 0..RETIMES {
            if measured / committed <= MAX_REGRESSION {
                break;
            }
            println!(
                "check {name}: {:.2}x of committed baseline, timing again",
                measured / committed
            );
            measured = measured.min(retime(name).ns_per_op);
        }
        let ratio = measured / committed;
        if ratio > MAX_REGRESSION {
            eprintln!(
                "REGRESSION: {name} measured {measured:.1} ns/op vs committed \
                 {committed:.1} ns/op ({ratio:.2}x > {MAX_REGRESSION}x)"
            );
            ok = false;
        } else {
            println!("check {name}: {ratio:.2}x of committed baseline — ok");
        }
    }
    ok
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let check = args.iter().any(|a| a == "--check");
    let scale = if smoke { 20 } else { 1 };

    let mut results: Vec<BenchResult> = BENCHES.iter().map(|name| run_named(name, scale)).collect();
    // The end-to-end Fig 9 sweep takes seconds per iteration; only the
    // full (baseline-writing) mode pays for it. `--check` never gates on
    // the fig9 entries, so smoke runs lose nothing.
    if !smoke {
        results.push(bench_fig9_jobs("fig9_jobs1", 1));
        results.push(bench_fig9_jobs("fig9_jobsN", 0));
    }

    let ns_of = |name: &str| {
        results
            .iter()
            .find(|r| r.name == name)
            .expect("bench always runs")
            .ns_per_op
    };
    println!(
        "object_traffic speedup: {:.2}x (scalar/bulk)",
        ns_of("object_traffic_scalar") / ns_of("object_traffic_bulk")
    );
    // Wall-clock growth from +58 idle guests; linear scheduling would cost
    // ~(64/6)x, the runnable set should keep this near 1x.
    let wall = |name: &str| {
        results
            .iter()
            .find(|r| r.name == name)
            .map(|r| r.ns_per_op * r.ops as f64)
            .expect("bench always runs")
    };
    println!(
        "idle_fleet cost:        {:.2}x of busy-only wall clock (+58 idle VMs; linear ~10.7x)",
        wall("idle_fleet") / wall("idle_fleet_busy")
    );
    if !smoke {
        println!(
            "fig9 runner speedup:    {:.2}x (jobs=1 / jobs=available)",
            ns_of("fig9_jobs1") / ns_of("fig9_jobsN")
        );
    }

    if check {
        if !check_regression(&results, |name| run_named(name, scale)) {
            std::process::exit(1);
        }
    } else {
        write_json(&results);
    }
}
