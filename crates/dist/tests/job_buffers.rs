//! A worker keeps what a fleet job needs for the life of its mesh — the
//! engine, its run buffers and signature log, the frame buffers, the
//! reply and N-GEP's input — so a job allocates no large buffer on the
//! workers. This binary counts every allocation of 16 KiB or more, in
//! every thread, over a run of N-GEP jobs on a four-worker fleet.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use mo_dist::LocalFleet;

/// An allocation, or a growth, to at least this many bytes is counted.
const LARGE: usize = 16 << 10;

static LARGE_ALLOCS: AtomicU64 = AtomicU64::new(0);

/// The system allocator, counting large allocations.
struct Counting;

// SAFETY: every method hands its caller's arguments to `System`
// unchanged, so each call keeps the guarantees its caller gave; the
// count is one relaxed atomic add, which allocates nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if layout.size() >= LARGE {
            LARGE_ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if layout.size() >= LARGE {
            LARGE_ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if new_size >= LARGE {
            LARGE_ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Allocations of 16 KiB or more a job over forty `job(seed)` calls
/// after five warm-up ones, which must return differing checksums.
fn large_allocs_per_job(mut job: impl FnMut(u64) -> u64) -> f64 {
    const WARM_UP: u64 = 5;
    const JOBS: u64 = 40;
    let mut checksums = Vec::new();
    for seed in 0..WARM_UP + JOBS {
        if seed == WARM_UP {
            LARGE_ALLOCS.store(0, Ordering::Relaxed);
        }
        checksums.push(job(seed));
    }
    let large = LARGE_ALLOCS.load(Ordering::Relaxed);
    checksums.dedup();
    assert!(checksums.len() > 1, "the seeds make different inputs");
    large as f64 / JOBS as f64
}

/// After warm-up, a job makes at most two allocations of 16 KiB or
/// more across router and workers. The ones the router must make are
/// an `N-GEP 128/32` job's 128 KiB output, and a `sort 1024` job's
/// signature: its row bytes and its segments, each reserved once on
/// the first shard. An engine built afresh per job, or run buffers
/// shrunk after each superstep, make about two hundred; a signature
/// grown shard by shard makes four.
#[test]
fn a_fleet_job_allocates_no_large_buffer_on_the_workers() {
    let fleet = LocalFleet::spawn_with(4, |cfg| {
        cfg.hierarchy = Some(mo_serve::HwHierarchy::flat(2, 1 << 14, 1 << 22));
    })
    .expect("spawn local fleet");
    let router = fleet.router();
    let ngep =
        large_allocs_per_job(|seed| router.run_ngep(128, 32, seed).expect("fleet run").checksum);
    let sort =
        large_allocs_per_job(|seed| router.run_sort(1024, seed).expect("fleet run").checksum);
    fleet.shutdown().expect("clean shutdown");
    assert!(
        ngep <= 2.0,
        "N-GEP 128/32: {ngep} allocations of 16 KiB or more a job"
    );
    assert!(
        sort <= 2.0,
        "sort 1024: {sort} allocations of 16 KiB or more a job"
    );
}
