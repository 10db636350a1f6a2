//! Failure-injection integration tests: exhaustion, overflow and
//! contention paths across crates behave gracefully (typed errors or
//! documented degradation — never silent corruption).

use heteroos::guest::kernel::{AllocFailed, GuestConfig, GuestKernel, MigrateError};
use heteroos::guest::page::PageType;
use heteroos::guest::pagecache::FileId;
use heteroos::mem::kind::KindMap;
use heteroos::mem::{MachineMemory, MemKind, ThrottleConfig};
use heteroos::vmm::channel::{FrontMsg, RingFull, SharedRing};
use heteroos::vmm::drf::GuestId;
use heteroos::vmm::vmm::{GuestSpec, Vmm, VmmError};
use heteroos::vmm::SharePolicy;

fn tiny_kernel() -> GuestKernel {
    GuestKernel::new(GuestConfig {
        frames: vec![(MemKind::Fast, 16), (MemKind::Slow, 32)],
        cpus: 1,
        page_size: 4096,
    })
}

#[test]
fn total_exhaustion_yields_typed_errors_and_recovers() {
    let mut k = tiny_kernel();
    let mut held = Vec::new();
    loop {
        match k.alloc_page(PageType::HeapAnon, 1, &[MemKind::Fast, MemKind::Slow]) {
            Ok((g, _)) => held.push(g),
            Err(AllocFailed { page_type }) => {
                assert_eq!(page_type, PageType::HeapAnon);
                break;
            }
        }
    }
    assert_eq!(held.len(), 48, "every frame should have been handed out");
    // Freeing one page makes exactly one allocation succeed again.
    k.free_page(held.pop().expect("held pages"));
    assert!(k
        .alloc_page(PageType::HeapAnon, 1, &[MemKind::Fast, MemKind::Slow])
        .is_ok());
    assert!(k
        .alloc_page(PageType::HeapAnon, 1, &[MemKind::Fast, MemKind::Slow])
        .is_err());
}

#[test]
fn migration_with_no_room_fails_cleanly_and_leaves_page_intact() {
    let mut k = tiny_kernel();
    // Fill SlowMem completely.
    while k
        .alloc_page(PageType::HeapAnon, 1, &[MemKind::Slow])
        .is_ok()
    {}
    let (fast_page, _) = k
        .alloc_page(PageType::HeapAnon, 42, &[MemKind::Fast])
        .unwrap();
    assert_eq!(
        k.migrate_page(fast_page, MemKind::Slow),
        Err(MigrateError::TargetFull)
    );
    // The source page survived with its state.
    let p = k.memmap().page(fast_page);
    assert!(p.is_present());
    assert_eq!(p.heat, 42);
    assert_eq!(p.kind, MemKind::Fast);
}

#[test]
fn ring_overflow_is_reported_not_dropped_silently() {
    let mut ring = SharedRing::new(2);
    ring.post_front(FrontMsg::MigrationDone(1)).unwrap();
    ring.post_front(FrontMsg::MigrationDone(2)).unwrap();
    assert_eq!(ring.post_front(FrontMsg::MigrationDone(3)), Err(RingFull));
    // Nothing was lost: both originals drain in order.
    assert_eq!(ring.poll_front(), Some(FrontMsg::MigrationDone(1)));
    assert_eq!(ring.poll_front(), Some(FrontMsg::MigrationDone(2)));
    assert_eq!(ring.poll_front(), None);
}

#[test]
fn balloon_cannot_over_inflate_or_over_deflate() {
    let mut k = tiny_kernel();
    let total = k.total_frames(MemKind::Fast);
    // Inflation caps at free memory.
    assert_eq!(k.balloon_inflate(MemKind::Fast, total * 10), total);
    assert_eq!(k.free_frames(MemKind::Fast), 0);
    // Deflation caps at what is ballooned.
    assert_eq!(k.balloon_deflate(MemKind::Fast, total * 10), total);
    assert_eq!(k.free_frames(MemKind::Fast), total);
    // A second deflation finds nothing.
    assert_eq!(k.balloon_deflate(MemKind::Fast, 1), 0);
}

#[test]
fn vmm_rejects_impossible_registrations_without_leaking_frames() {
    let machine = MachineMemory::builder()
        .fast_mem(16 * 4096, ThrottleConfig::fast_mem())
        .slow_mem(16 * 4096, ThrottleConfig::slow_mem_default())
        .build();
    let mut vmm = Vmm::new(machine, SharePolicy::paper_drf());
    let mut greedy = GuestSpec::default();
    greedy.min[MemKind::Fast] = 8;
    greedy.min[MemKind::Slow] = 99; // impossible
    assert_eq!(
        vmm.register_guest(GuestId(0), greedy),
        Err(VmmError::InsufficientMachineMemory(MemKind::Slow))
    );
    // The partially taken FastMem was rolled back: a full-size guest still
    // fits.
    let mut ok = GuestSpec::default();
    ok.min[MemKind::Fast] = 16;
    ok.min[MemKind::Slow] = 16;
    assert!(vmm.register_guest(GuestId(1), ok).is_ok());
}

#[test]
fn drf_denies_rather_than_overcommits_when_floors_block() {
    let machine = MachineMemory::builder()
        .fast_mem(32 * 4096, ThrottleConfig::fast_mem())
        .slow_mem(32 * 4096, ThrottleConfig::slow_mem_default())
        .build();
    let mut vmm = Vmm::new(machine, SharePolicy::paper_drf());
    let mut spec = GuestSpec::default();
    spec.min[MemKind::Fast] = 16;
    spec.max[MemKind::Fast] = 32;
    vmm.register_guest(GuestId(0), spec).unwrap();
    vmm.register_guest(GuestId(1), spec).unwrap();
    // All FastMem is reserved minimum: a growth request must not produce a
    // reclaim plan against anyone's floor.
    let grant = vmm
        .request_memory(GuestId(0), MemKind::Fast, 8, None)
        .unwrap();
    assert_eq!(grant.granted[MemKind::Fast], 0);
    assert!(grant.reclaim_plan.is_empty(), "floors are untouchable");
}

#[test]
fn dropping_a_file_twice_is_idempotent() {
    let mut k = tiny_kernel();
    for off in 0..4 {
        k.page_in(FileId(7), off, 50, &[MemKind::Slow]).unwrap();
    }
    assert_eq!(k.drop_cache_pages(FileId(7), 0..4), 4);
    assert_eq!(k.drop_cache_pages(FileId(7), 0..4), 0);
    assert_eq!(k.memmap().resident_pages(PageType::PageCache), 0);
}

#[test]
fn shrink_caches_on_empty_tier_is_a_noop() {
    let mut k = tiny_kernel();
    assert_eq!(k.shrink_caches(MemKind::Fast, 10), 0);
    assert_eq!(k.shrink_caches(MemKind::Medium, 10), 0);
}

#[test]
fn fairshare_ledger_stays_consistent_across_denials() {
    let mut total: KindMap<u64> = KindMap::default();
    total[MemKind::Fast] = 10;
    total[MemKind::Slow] = 10;
    let mut fs = heteroos::vmm::FairShare::new(SharePolicy::paper_drf(), total);
    fs.register(GuestId(0), KindMap::default());
    let mut demand: KindMap<u64> = KindMap::default();
    demand[MemKind::Fast] = 7;
    assert_eq!(fs.request(GuestId(0), demand), heteroos::vmm::Grant::Granted);
    // A request beyond capacity with no donors is denied and changes
    // nothing.
    let mut big: KindMap<u64> = KindMap::default();
    big[MemKind::Fast] = 7;
    assert_eq!(fs.request(GuestId(0), big), heteroos::vmm::Grant::Denied);
    assert_eq!(fs.allocated(GuestId(0))[MemKind::Fast], 7);
    assert_eq!(fs.free(MemKind::Fast), 3);
}
