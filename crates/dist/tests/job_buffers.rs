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

/// After five warm-up jobs, forty `N-GEP 128/32` jobs make at most two
/// allocations of 16 KiB or more a job across router and workers. The
/// one the router must make is the job's 128 KiB output; an engine
/// built afresh per job, or run buffers shrunk after each superstep,
/// make about two hundred.
#[test]
fn a_fleet_job_allocates_no_large_buffer_on_the_workers() {
    const WARM_UP: u64 = 5;
    const JOBS: u64 = 40;
    let fleet = LocalFleet::spawn_with(4, |cfg| {
        cfg.hierarchy = Some(mo_serve::HwHierarchy::flat(2, 1 << 14, 1 << 22));
    })
    .expect("spawn local fleet");
    let mut checksums = Vec::new();
    for seed in 0..WARM_UP + JOBS {
        if seed == WARM_UP {
            LARGE_ALLOCS.store(0, Ordering::Relaxed);
        }
        let got = fleet.router().run_ngep(128, 32, seed).expect("fleet run");
        checksums.push(got.checksum);
    }
    let large = LARGE_ALLOCS.load(Ordering::Relaxed);
    fleet.shutdown().expect("clean shutdown");
    let per_job = large as f64 / JOBS as f64;
    assert!(
        per_job <= 2.0,
        "{large} allocations of 16 KiB or more in {JOBS} jobs ({per_job} a job)"
    );
    checksums.dedup();
    assert!(checksums.len() > 1, "the seeds make different inputs");
}
