//! Chaos soak: seeded fault plans perturb the whole stack while the
//! invariant auditor cross-checks frame accounting after every step.
//!
//! Three harnesses, each run over many seeds:
//!
//! * **engine soak** — `SingleVmSim` with an armed `FaultInjector` and
//!   the epoch audit on: injected FastMem outages degrade placement,
//!   latency storms dilate pricing, migrations fail transiently — and the
//!   guest kernel's books must still balance after every epoch,
//! * **kernel soak** — a bare `GuestKernel` churned through mmap/munmap,
//!   page-cache I/O, ballooning, injected-fault migration and a stallable
//!   kswapd, audited each step,
//! * **VMM soak** — two guests over injector-mediated rings (drops, delays,
//!   backpressure, crash-restarts), with `audit_vmm` checking ledger vs.
//!   backing vs. machine conservation throughout.
//!
//! Every harness also asserts *determinism*: re-running the same seed must
//! reproduce a byte-identical fault trace.

use heteroos::core::{AuditLevel, Policy, SimConfig, SingleVmSim};
use heteroos::faults::{audit_kernel, audit_vmm, FaultInjector, FaultPlan};
use heteroos::guest::kernel::{GuestConfig, GuestKernel};
use heteroos::guest::kswapd::Kswapd;
use heteroos::guest::page::PageType;
use heteroos::guest::pagecache::FileId;
use heteroos::mem::FlushPolicy;
use heteroos::mem::{MachineMemory, MemKind, ThrottleConfig};
use heteroos::sim::{Runner, SimRng};
use heteroos::vmm::channel::{BackMsg, FrontMsg};
use heteroos::vmm::drf::GuestId;
use heteroos::vmm::vmm::{GuestSpec, Vmm, VmmError};
use heteroos::vmm::SharePolicy;
use heteroos::workloads::{apps, AppWorkload};

const SEEDS: std::ops::Range<u64> = 100..109;

/// Runs `f` for every soak seed on the deterministic parallel runner and
/// returns `(seed, result)` pairs in seed order. Each harness is a pure
/// function of its seed, so the seeds are independent units of work.
fn per_seed<T: Send>(f: impl Fn(u64) -> T + Sync) -> Vec<(u64, T)> {
    let seeds: Vec<u64> = SEEDS.collect();
    let results = Runner::new(0).run(seeds.clone(), f);
    seeds.into_iter().zip(results).collect()
}

// ------------------------------------------------------------ engine soak

fn engine_soak_once(seed: u64) -> String {
    let cfg = SimConfig::paper_default()
        .with_capacity_ratio(1, 4)
        .with_seed(seed)
        .with_audit(AuditLevel::Epoch);
    let mut spec = apps::graphchi();
    spec.total_instructions /= 20;
    let wl = AppWorkload::new(spec, cfg.page_size, cfg.scale);
    let mut sim = SingleVmSim::new(cfg, Policy::HeteroCoordinated, wl);
    sim.set_fault_injector(FaultInjector::new(FaultPlan::for_seed(seed)));
    while sim.step() {}
    assert!(
        sim.violations().is_empty(),
        "seed {seed}: invariant violations under faults: {:?}",
        sim.violations()
    );
    sim.fault_injector()
        .expect("injector stays armed")
        .trace()
        .to_text()
}

#[test]
fn engine_survives_fault_plans_with_clean_invariants() {
    let mut any_faults = false;
    for (seed, (trace, again)) in per_seed(|seed| (engine_soak_once(seed), engine_soak_once(seed)))
    {
        any_faults |= !trace.is_empty();
        assert_eq!(
            trace, again,
            "seed {seed}: fault trace must be byte-identical across reruns"
        );
    }
    assert!(
        any_faults,
        "soak is vacuous: no plan injected a single fault"
    );
}

// ----------------------------------------------- layered sanitizer soak

fn sanitized_soak(seed: u64, policy: Policy, audit: AuditLevel) -> (String, String) {
    let cfg = SimConfig::paper_default()
        .with_capacity_ratio(1, 4)
        .with_seed(seed)
        .with_audit(audit);
    let mut spec = apps::graphchi();
    spec.total_instructions /= 20;
    let wl = AppWorkload::new(spec, cfg.page_size, cfg.scale);
    let mut sim = SingleVmSim::new(cfg, policy, wl);
    sim.set_fault_injector(FaultInjector::new(FaultPlan::for_seed(seed)));
    while sim.step() {}
    assert!(
        sim.violations().is_empty(),
        "seed {seed} {policy:?}: sanitizer violations under faults: {:?}",
        sim.violations()
    );
    let trace = sim
        .fault_injector()
        .expect("injector stays armed")
        .trace()
        .to_text();
    (trace, sim.report().to_json())
}

#[test]
fn epoch_sanitizer_stays_clean_and_invisible_under_fault_soak() {
    // The layered sanitizer (PR 5) across every seed and every
    // migration-charging path (guest LRU, VMM full scan, coordinated
    // tracked scan), with faults armed. Two properties per cell: the
    // differential oracle finds nothing even while transient failures
    // pepper the run, and turning the audit on changes neither the fault
    // trace nor a single exported report byte.
    let policies = [
        Policy::HeteroLru,
        Policy::VmmExclusive,
        Policy::HeteroCoordinated,
    ];
    let matrix: Vec<(u64, Policy)> = SEEDS
        .flat_map(|seed| policies.into_iter().map(move |p| (seed, p)))
        .collect();
    let results = Runner::new(0).run(matrix.clone(), |(seed, policy)| {
        (
            sanitized_soak(seed, policy, AuditLevel::Off),
            sanitized_soak(seed, policy, AuditLevel::Epoch),
        )
    });
    for ((seed, policy), (off, epoch)) in matrix.into_iter().zip(results) {
        assert_eq!(
            off, epoch,
            "seed {seed} {policy:?}: epoch audit changed the fault trace or report bytes"
        );
    }
}

// ---------------------------------------------------- crash→recover soak

/// One crashy persistent run: the NVM flush policy armed at `persist`,
/// seeded host-power-loss and guest-crash faults enabled, the run driven
/// to completion through however many crash→recover cycles fire. Returns
/// the full observable surface — fault trace, exported report JSON and the
/// recovery count — so callers can assert byte-identity across reruns and
/// audit levels.
fn crash_soak(
    seed: u64,
    policy: Policy,
    persist: FlushPolicy,
    audit: AuditLevel,
) -> (String, String, u64) {
    let cfg = SimConfig::paper_default()
        .with_capacity_ratio(1, 4)
        .with_seed(seed)
        .with_persist(persist)
        .with_audit(audit);
    let mut spec = apps::graphchi();
    spec.total_instructions /= 20;
    let wl = AppWorkload::new(spec, cfg.page_size, cfg.scale);
    let mut sim = SingleVmSim::new(cfg, policy, wl);
    let mut plan = FaultPlan::power_loss(seed, 0.03);
    plan.guest_crash_persist = 0.02;
    sim.set_fault_injector(FaultInjector::new(plan));
    while sim.step() {}
    assert!(
        sim.violations().is_empty(),
        "seed {seed} {persist} {policy:?}: recovery oracle violations: {:?}",
        sim.violations()
    );
    let trace = sim
        .fault_injector()
        .expect("injector stays armed")
        .trace()
        .to_text();
    (trace, sim.report().to_json(), sim.recoveries())
}

#[test]
fn crash_recover_cycles_stay_deterministic_across_flush_policies() {
    // The tentpole soak: every flush policy, every seed, crashes armed,
    // the ShadowModel-audited recovery path exercised end to end. Rerunning
    // a cell must reproduce the fault trace and report byte for byte.
    let policies = [
        FlushPolicy::Eager,
        FlushPolicy::EpochBatched,
        FlushPolicy::OnEvict,
    ];
    let matrix: Vec<(u64, FlushPolicy)> = SEEDS
        .flat_map(|seed| policies.into_iter().map(move |p| (seed, p)))
        .collect();
    let results = Runner::new(0).run(matrix.clone(), |(seed, persist)| {
        (
            crash_soak(seed, Policy::HeteroLru, persist, AuditLevel::Epoch),
            crash_soak(seed, Policy::HeteroLru, persist, AuditLevel::Epoch),
        )
    });
    let mut recoveries = 0u64;
    for ((seed, persist), (a, b)) in matrix.into_iter().zip(results) {
        assert_eq!(
            a, b,
            "seed {seed} {persist}: crashy run must be byte-identical across reruns"
        );
        recoveries += a.2;
    }
    assert!(
        recoveries > 0,
        "soak is vacuous: no crash→recover cycle fired"
    );
}

#[test]
fn paranoid_audit_is_invisible_under_crash_restarts() {
    // Crash-restart cycles under the strictest oracle: `Paranoid` finds
    // nothing across every seed, and stepping the audit Off → Epoch →
    // Paranoid changes neither the fault trace nor one report byte — the
    // recovery path draws no randomness and the sanitizer never leaks into
    // simulated state, even while the stack is being killed mid-run.
    let seeds: Vec<u64> = SEEDS.collect();
    let results = Runner::new(0).run(seeds.clone(), |seed| {
        let run = |audit| {
            crash_soak(
                seed,
                Policy::HeteroCoordinated,
                FlushPolicy::EpochBatched,
                audit,
            )
        };
        (
            run(AuditLevel::Off),
            run(AuditLevel::Epoch),
            run(AuditLevel::Paranoid),
        )
    });
    let mut any_crash = false;
    for (seed, (off, epoch, paranoid)) in seeds.into_iter().zip(results) {
        any_crash |= off.2 > 0;
        assert_eq!(
            off, epoch,
            "seed {seed}: the epoch audit perturbed a crashy run"
        );
        assert_eq!(
            epoch, paranoid,
            "seed {seed}: the paranoid audit perturbed a crashy run"
        );
    }
    assert!(
        any_crash,
        "soak is vacuous: no crash fired under the audit matrix"
    );
}

// ------------------------------------------------------------ kernel soak

fn kernel_soak_once(seed: u64) -> String {
    let mut inj = FaultInjector::new(FaultPlan::heavy(seed));
    let mut rng = SimRng::seed_from(seed ^ 0x5eed);
    let mut kernel = GuestKernel::new(GuestConfig {
        frames: vec![(MemKind::Fast, 64), (MemKind::Slow, 256)],
        cpus: 2,
        page_size: 4096,
    });
    let mut kswapd = Kswapd::for_kernel(&kernel);
    let mut chunks: Vec<(u64, u64)> = Vec::new();
    let mut file_off = 0u64;
    let base = ThrottleConfig::slow_mem_default();
    for step in 0..300u64 {
        inj.begin_step();
        // Storms re-fit the throttle model; the result must stay sane.
        let t = inj.storm_throttle(&base);
        assert!(t.latency_factor >= 1.0 && t.bandwidth_factor >= 1.0);
        // Heap churn.
        let pages = rng.next_range(1, 6);
        if let Ok((vma, _)) = kernel.mmap_heap(
            pages,
            std::iter::repeat(rng.next_range(10, 250) as u8),
            &[MemKind::Fast, MemKind::Slow],
        ) {
            chunks.push((vma.start, vma.pages));
        }
        if chunks.len() > 20 {
            let (start, n) = chunks.remove(rng.next_range(0, chunks.len() as u64) as usize);
            kernel.munmap(start, n);
        }
        // Page-cache traffic.
        if let Ok((g, _)) = kernel.page_in(FileId(1), file_off, 120, &[MemKind::Slow]) {
            kernel.io_complete(g);
            file_off += 1;
        }
        // Migration under injected transient failures: errors must leave
        // the books balanced, successes must move the page.
        for gfn in kernel.lru_candidates(MemKind::Slow, 2, |p| p.page_type == PageType::HeapAnon) {
            let _ = inj.migrate_page(&mut kernel, gfn, MemKind::Fast);
        }
        // Background reclaim, possibly stalled.
        inj.kswapd_balance(&mut kswapd, &mut kernel, MemKind::Fast);
        // Balloon churn.
        if rng.chance(0.2) {
            kernel.balloon_inflate(MemKind::Slow, rng.next_range(1, 8));
        }
        if rng.chance(0.2) {
            kernel.balloon_deflate(MemKind::Slow, rng.next_range(1, 8));
        }
        let violations = audit_kernel(&kernel);
        assert!(
            violations.is_empty(),
            "seed {seed} step {step}: {violations:?}"
        );
    }
    inj.trace().to_text()
}

#[test]
fn kernel_books_balance_under_heavy_faults() {
    for (seed, (trace, again)) in per_seed(|seed| (kernel_soak_once(seed), kernel_soak_once(seed)))
    {
        assert!(
            !trace.is_empty(),
            "seed {seed}: the heavy plan should inject faults"
        );
        assert_eq!(
            trace, again,
            "seed {seed}: fault trace must be byte-identical across reruns"
        );
    }
}

// --------------------------------------------------------------- VMM soak

fn guest_spec() -> GuestSpec {
    let mut spec = GuestSpec::default();
    spec.min[MemKind::Fast] = 8;
    spec.max[MemKind::Fast] = 96;
    spec.min[MemKind::Slow] = 32;
    spec.max[MemKind::Slow] = 400;
    spec
}

fn vmm_soak_once(seed: u64) -> String {
    let mut inj = FaultInjector::new(FaultPlan::for_seed(seed.wrapping_mul(31).wrapping_add(2)));
    let mut rng = SimRng::seed_from(seed ^ 0x5a5a_5a5a);
    let machine = MachineMemory::builder()
        .fast_mem(256 * 4096, ThrottleConfig::fast_mem())
        .slow_mem(1024 * 4096, ThrottleConfig::slow_mem_default())
        .build();
    let mut vmm = Vmm::new(machine, SharePolicy::paper_drf());
    vmm.register_guest(GuestId(0), guest_spec()).unwrap();
    vmm.register_guest(GuestId(1), guest_spec()).unwrap();
    let mut restarts = 0u32;
    for step in 0..400u64 {
        inj.begin_step();
        // Whole-guest crash: the VMM reclaims everything and the guest
        // comes back with a fresh reservation (id reuse).
        if inj.crash_guest() {
            let victim = GuestId((step % 2) as u32);
            vmm.unregister_guest(victim).unwrap();
            vmm.register_guest(victim, guest_spec()).unwrap();
            restarts += 1;
        }
        for id in [GuestId(0), GuestId(1)] {
            // The guest asks for memory through the faulty channel. A
            // rejected post is simply retried next step — requests are
            // idempotent demands, so nothing is lost.
            let msg = FrontMsg::OnDemand {
                kind: MemKind::Fast,
                pages: rng.next_range(1, 8),
                fallback: Some(MemKind::Slow),
            };
            let ring = vmm.ring_mut(id).unwrap();
            let _ = inj.post_front(ring, msg);
            inj.flush_delayed(ring);
            match vmm.process_guest_requests(id) {
                Ok(_) => {}
                // A delayed/duplicated balloon ack can name pages the
                // guest no longer holds; the VMM refuses it.
                Err(VmmError::InvalidReclaim(..)) => {}
                Err(e) => panic!("seed {seed} step {step}: unexpected {e}"),
            }
            // Guest side: drain responses; answer balloon requests with
            // an ack for what the ledger can actually give back.
            let granted = vmm.granted(id).unwrap();
            let spec = guest_spec();
            let mut acks = Vec::new();
            let ring = vmm.ring_mut(id).unwrap();
            while let Some(resp) = ring.poll_back() {
                if let BackMsg::BalloonRequest { kind, pages } = resp {
                    let give = pages.min(granted[kind].saturating_sub(spec.min[kind]));
                    if give > 0 {
                        acks.push(FrontMsg::BalloonAck { kind, pages: give });
                    }
                }
            }
            for ack in acks {
                let ring = vmm.ring_mut(id).unwrap();
                let _ = inj.post_front(ring, ack);
            }
            // Occasionally hand memory back voluntarily.
            if rng.chance(0.15) {
                let kind = if rng.chance(0.5) {
                    MemKind::Fast
                } else {
                    MemKind::Slow
                };
                let held = vmm.granted(id).unwrap()[kind];
                let floor = guest_spec().min[kind];
                let give = rng.next_range(0, 4).min(held.saturating_sub(floor));
                if give > 0 {
                    vmm.release_memory(id, kind, give).unwrap();
                }
            }
        }
        let violations = audit_vmm(&vmm, &[]);
        assert!(
            violations.is_empty(),
            "seed {seed} step {step}: {violations:?}"
        );
    }
    format!("restarts={restarts}\n{}", inj.trace().to_text())
}

#[test]
fn vmm_ledgers_survive_ring_faults_and_crash_restarts() {
    let mut any_restart = false;
    for (seed, (trace, again)) in per_seed(|seed| (vmm_soak_once(seed), vmm_soak_once(seed))) {
        any_restart |= !trace.starts_with("restarts=0");
        assert_eq!(
            trace, again,
            "seed {seed}: fault trace must be byte-identical across reruns"
        );
    }
    assert!(
        any_restart,
        "soak is vacuous: no seed exercised a crash-restart"
    );
}
