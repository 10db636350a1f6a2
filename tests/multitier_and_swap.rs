//! Integration tests for the §4.3 extensions working together: three-tier
//! machines, typed demotion, the swap subsystem and kswapd, end to end
//! through the engine.

use heteroos::core::engine::{run_app, SingleVmSim};
use heteroos::core::{Policy, SimConfig};
use heteroos::guest::kswapd::Kswapd;
use heteroos::mem::MemKind;
use heteroos::workloads::{apps, AppWorkload, WorkloadSpec};

const GB: u64 = 1 << 30;

fn quick(mut spec: WorkloadSpec) -> WorkloadSpec {
    spec.total_instructions /= 16;
    spec
}

#[test]
fn three_tier_engine_places_pages_on_all_tiers() {
    let cfg = SimConfig::paper_default()
        .with_fast_bytes(GB / 2)
        .with_medium_bytes(GB)
        .with_seed(3);
    let wl = AppWorkload::new(quick(apps::graphchi()), cfg.page_size, cfg.scale);
    let mut sim = SingleVmSim::new(cfg, Policy::HeteroLru, wl);
    while sim.step() {}
    let mm = sim.kernel().memmap();
    for kind in [MemKind::Fast, MemKind::Medium, MemKind::Slow] {
        assert!(
            mm.resident_on(kind) > 0,
            "{kind} should hold resident pages in steady state"
        );
    }
    // The fastest-first chain fills FastMem essentially completely.
    assert!(sim.kernel().free_fraction(MemKind::Fast) < 0.2);
}

#[test]
fn three_tier_beats_two_tier_at_equal_fastmem() {
    let spec = quick(apps::x_stream());
    let two = SimConfig::paper_default()
        .with_fast_bytes(GB / 2)
        .with_seed(4);
    let slow = run_app(&two, Policy::SlowMemOnly, spec.clone());
    let r2 = run_app(&two, Policy::HeteroLru, spec.clone());
    let three = two.clone().with_medium_bytes(GB);
    let r3 = run_app(&three, Policy::HeteroLru, spec);
    assert!(
        r3.gain_percent_vs(&slow) > r2.gain_percent_vs(&slow),
        "medium tier must add value: {:.1}% vs {:.1}%",
        r3.gain_percent_vs(&slow),
        r2.gain_percent_vs(&slow)
    );
}

#[test]
fn nvm_slow_makes_stores_expensive_and_write_awareness_recovers_some() {
    let spec = quick(apps::metis());
    let symmetric = SimConfig::paper_default()
        .with_capacity_ratio(1, 4)
        .with_seed(5);
    let nvm = SimConfig {
        nvm_slow: true,
        ..symmetric.clone()
    };
    let sym_run = run_app(&symmetric, Policy::SlowMemOnly, spec.clone());
    let nvm_run = run_app(&nvm, Policy::SlowMemOnly, spec.clone());
    assert!(
        nvm_run.runtime > sym_run.runtime,
        "store asymmetry must slow a store-heavy app"
    );
    // Write-aware coordinated reduces NVM writes vs plain coordinated.
    let plain = run_app(&nvm, Policy::HeteroCoordinated, spec.clone());
    let aware_cfg = SimConfig {
        write_aware: true,
        ..nvm
    };
    let aware = run_app(&aware_cfg, Policy::HeteroCoordinated, spec);
    assert!(aware.slow_writes <= plain.slow_writes * 1.02);
}

#[test]
fn balloon_swap_roundtrip_through_the_engine() {
    let cfg = SimConfig::paper_default()
        .with_capacity_ratio(1, 4)
        .with_seed(6);
    let wl = AppWorkload::new(quick(apps::redis()), cfg.page_size, cfg.scale);
    let mut sim = SingleVmSim::new(cfg, Policy::HeteroLru, wl);
    // Run past the ramp so the footprint is resident.
    for _ in 0..200 {
        if !sim.step() {
            break;
        }
    }
    let free_slow = sim.kernel().free_frames(MemKind::Slow);
    // Yield more than is free: the engine must swap heap pages out.
    let want = free_slow + 512;
    let got = sim.yield_pages(MemKind::Slow, want);
    assert!(got > free_slow, "swap must extend the yield beyond free");
    assert!(sim.swapped_pages() > 0);
    let swapped = sim.swapped_pages();
    // Deflating brings swapped pages back in.
    let back = sim.accept_pages(MemKind::Slow, got);
    assert_eq!(back, got);
    assert!(
        sim.swapped_pages() < swapped,
        "deflation must fault pages back ({} -> {})",
        swapped,
        sim.swapped_pages()
    );
}

#[test]
fn kswapd_composes_with_engine_kernels() {
    // kswapd can be pointed at an engine's kernel mid-run; here we verify
    // the watermark view is consistent with the kernel's accounting.
    let cfg = SimConfig::paper_default()
        .with_capacity_ratio(1, 8)
        .with_seed(7);
    let wl = AppWorkload::new(quick(apps::leveldb()), cfg.page_size, cfg.scale);
    let mut sim = SingleVmSim::new(cfg, Policy::HeapIoSlabOd, wl);
    for _ in 0..150 {
        if !sim.step() {
            break;
        }
    }
    let kswapd = Kswapd::for_kernel(sim.kernel());
    let marks = kswapd.marks(MemKind::Fast).expect("fast configured");
    assert!(marks.is_valid());
    let needs = kswapd.needs_balancing(sim.kernel(), MemKind::Fast);
    let free = sim.kernel().free_frames(MemKind::Fast);
    assert_eq!(needs, free < marks.low);
}
