//! Integration of the VMM facade with real guest kernels: registration,
//! on-demand grants, reclaim plans executed through ballooning, and
//! coordinated hotness scans over the split-driver channel.

use heteroos::guest::kernel::{GuestConfig, GuestKernel};
use heteroos::guest::page::PageType;
use heteroos::mem::{MachineMemory, MemKind, ThrottleConfig};
use heteroos::vmm::channel::FrontMsg;
use heteroos::vmm::drf::GuestId;
use heteroos::vmm::vmm::{GuestSpec, Vmm};
use heteroos::vmm::SharePolicy;

fn machine(fast_pages: u64, slow_pages: u64) -> MachineMemory {
    MachineMemory::builder()
        .fast_mem(fast_pages * 4096, ThrottleConfig::fast_mem())
        .slow_mem(slow_pages * 4096, ThrottleConfig::slow_mem_default())
        .build()
}

fn guest(fast: u64, slow: u64) -> GuestKernel {
    GuestKernel::new(GuestConfig {
        frames: vec![(MemKind::Fast, fast), (MemKind::Slow, slow)],
        cpus: 2,
        page_size: 4096,
    })
}

#[test]
fn two_guests_share_the_machine_through_grants_and_balloons() {
    let mut vmm = Vmm::new(machine(1000, 4000), SharePolicy::paper_drf());
    let mut spec = GuestSpec::default();
    spec.min[MemKind::Fast] = 100;
    spec.max[MemKind::Fast] = 900;
    spec.min[MemKind::Slow] = 500;
    spec.max[MemKind::Slow] = 2000;
    vmm.register_guest(GuestId(0), spec).unwrap();
    vmm.register_guest(GuestId(1), spec).unwrap();

    let mut g0 = guest(900, 2000);
    let mut g1 = guest(900, 2000);
    // Boot state: everything above the minimum is ballooned out.
    assert_eq!(g0.balloon_inflate(MemKind::Fast, 800), 800);
    assert_eq!(g1.balloon_inflate(MemKind::Fast, 800), 800);

    // Guest 0 grows to 800 fast pages.
    let grant = vmm
        .request_memory(GuestId(0), MemKind::Fast, 700, None)
        .unwrap();
    assert_eq!(grant.granted[MemKind::Fast], 700);
    assert_eq!(g0.balloon_deflate(MemKind::Fast, 700), 700);

    // Guest 1 wants 300: only 100 remain free, so the VMM plans a reclaim
    // from guest 0 (the larger dominant share).
    let grant = vmm
        .request_memory(GuestId(1), MemKind::Fast, 300, None)
        .unwrap();
    assert_eq!(grant.granted[MemKind::Fast], 100);
    assert_eq!(g1.balloon_deflate(MemKind::Fast, 100), 100);
    let (donor, kind, pages) = grant.reclaim_plan[0];
    assert_eq!(donor, GuestId(0));
    // Execute the plan through the donor's balloon.
    let yielded = g0.balloon_inflate(kind, pages);
    assert_eq!(yielded, pages);
    vmm.confirm_reclaim(donor, kind, pages).unwrap();
    let grant = vmm
        .request_memory(GuestId(1), MemKind::Fast, pages, None)
        .unwrap();
    assert_eq!(grant.granted[MemKind::Fast], pages);
    assert_eq!(g1.balloon_deflate(MemKind::Fast, pages), pages);

    // Ledger and machine agree.
    assert_eq!(vmm.machine().free_frames(MemKind::Fast), 0);
    assert_eq!(
        vmm.granted(GuestId(0)).unwrap()[MemKind::Fast]
            + vmm.granted(GuestId(1)).unwrap()[MemKind::Fast],
        1000
    );
}

#[test]
fn coordinated_scan_over_the_channel_finds_guest_hot_pages() {
    let mut vmm = Vmm::new(machine(512, 2048), SharePolicy::paper_drf());
    vmm.register_guest(GuestId(0), GuestSpec::default())
        .unwrap();

    let mut kernel = guest(512, 2048);
    let (vma, _) = kernel
        .mmap_heap(64, std::iter::repeat(200), &[MemKind::Slow])
        .unwrap();
    // Some I/O pages that the exception list must hide from tracking.
    for off in 0..8 {
        kernel
            .page_in(
                heteroos::guest::pagecache::FileId(1),
                off,
                224,
                &[MemKind::Slow],
            )
            .unwrap();
    }

    // Guest posts its tracking and exception lists over the ring.
    let ring = vmm.ring_mut(GuestId(0)).unwrap();
    ring.post_front(FrontMsg::TrackingList(vec![(vma.start, vma.end())]))
        .unwrap();
    ring.post_front(FrontMsg::ExceptionList(vec![
        PageType::PageCache,
        PageType::BufferCache,
    ]))
    .unwrap();
    vmm.process_guest_requests(GuestId(0)).unwrap();

    // Two scans (threshold 2 by default) over an always-touched oracle.
    let mut always = |_: &heteroos::guest::page::Page| true;
    vmm.scan_guest(GuestId(0), &kernel, &mut always, 1 << 20, true)
        .unwrap();
    let out = vmm
        .scan_guest(GuestId(0), &kernel, &mut always, 1 << 20, true)
        .unwrap();
    assert_eq!(out.hot_candidates.len(), 64, "only the tracked heap VMA");

    // The guest migrates the candidates itself (§4.1), with validity checks.
    let mut migrated = 0;
    for gfn in out.hot_candidates {
        if kernel.migrate_page(gfn, MemKind::Fast).is_ok() {
            migrated += 1;
        }
    }
    assert_eq!(migrated, 64);
    assert_eq!(
        kernel
            .memmap()
            .residency(PageType::HeapAnon, MemKind::Fast)
            .pages,
        64
    );
}

#[test]
fn guest_demotion_and_vmm_promotion_compose() {
    // A full little tiering loop without the engine: fill fast with cold
    // pages, let the guest demote, then promote hot slow pages.
    let mut kernel = guest(64, 512);
    // Cold pages fill FastMem.
    let (cold_vma, _) = kernel
        .mmap_heap(48, std::iter::repeat(4), &[MemKind::Fast])
        .unwrap();
    // Hot pages land on SlowMem.
    let (hot_vma, _) = kernel
        .mmap_heap(32, std::iter::repeat(250), &[MemKind::Slow])
        .unwrap();
    // Age the cold pages out of the active list, then demote.
    let aged = kernel.age_lru(MemKind::Fast, 128, 50);
    assert_eq!(aged, 48);
    let moved = kernel.demote_inactive(MemKind::Fast, 48);
    assert_eq!(moved, 48);
    // Promote the hot pages into the freed space.
    let mut promoted = 0;
    for vpn in hot_vma.start..hot_vma.end() {
        let gfn = kernel.page_table().translate(vpn).unwrap();
        if kernel.migrate_page(gfn, MemKind::Fast).is_ok() {
            promoted += 1;
        }
    }
    assert_eq!(promoted, 32);
    // The cold region still works (remapped to SlowMem).
    for vpn in cold_vma.start..cold_vma.end() {
        let gfn = kernel.page_table().translate(vpn).unwrap();
        assert_eq!(kernel.memmap().kind_of(gfn), MemKind::Slow);
    }
    assert_eq!(kernel.migrations, 80);
}
