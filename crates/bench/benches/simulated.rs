//! Benches of the *infrastructure* itself: record and replay throughput
//! of the simulator stack (useful when extending the scheduler —
//! regressions here make every experiment slower).

use std::hint::black_box;

use hm_model::{CacheSystem, MachineSpec};
use mo_algorithms::bitinterleave::beta_inv;
use mo_bench::{bench, default_machine, rand_u64};
use mo_core::sched::{simulate, Policy};
use mo_core::Recorder;

/// One million accesses per stream on the Fig. 1 machine, issued one
/// `access` call at a time. The simulator keeps the last four `B_1` blocks
/// of the current core in a recency window and probes its LRU lists only
/// for an access that misses the window. The sequential scan hits the
/// window's front seven times in eight; a stride of `B_4` misses the
/// window and every level on every access (the miss path: evict, unindex,
/// reindex); uniform-random words over 4 × `C_4` mix misses with hits on
/// blocks that are neither in the window nor the MRU (the promote path);
/// two cores writing alternate words of the same blocks empty the window
/// at every access and take the ping-pong path. The last three are the
/// shapes the MO kernels record, two to four interleaved streams that all
/// stay in the window: `A[k]` read and `B[k]` written, the three reads and
/// one write of a matrix-product step, and MO-MT's first pass, `A[β⁻¹(k)]`
/// read and `I[k]` written.
fn bench_cache_system() {
    println!("cache_system_access");
    const N: u64 = 1_000_000;
    let spec = MachineSpec::example_h5();
    let top = spec.level(spec.cache_levels());
    let (b4, c4) = (top.block as u64, top.capacity as u64);
    let random = rand_u64(7, N as usize, 4 * c4);
    bench("sequential_1M", || {
        let mut sys = CacheSystem::new(&spec);
        for w in 0..N {
            sys.read(black_box(0), w);
        }
        sys.metrics().cache_complexity(1)
    });
    bench("strided_b4_1M", || {
        let mut sys = CacheSystem::new(&spec);
        for k in 0..N {
            sys.read(black_box(0), k * b4);
        }
        sys.metrics().cache_complexity(4)
    });
    bench("uniform_random_1M", || {
        let mut sys = CacheSystem::new(&spec);
        for &w in &random {
            sys.read(black_box(0), w);
        }
        sys.metrics().cache_complexity(4)
    });
    bench("two_core_interleaved_writes_1M", || {
        let mut sys = CacheSystem::new(&spec);
        for w in 0..N {
            sys.write(black_box(w as usize % 2), w);
        }
        sys.pingpongs()
    });
    // Streams start 2^24 words apart: no two share a block at any level.
    let stream = |s: u64, k: u64| (s << 24) + k;
    bench("two_array_copy_1M", || {
        let mut sys = CacheSystem::new(&spec);
        for k in 0..N / 2 {
            sys.read(black_box(0), stream(0, k));
            sys.write(0, stream(1, k));
        }
        sys.metrics().cache_complexity(1)
    });
    bench("four_stream_cycle_1M", || {
        let mut sys = CacheSystem::new(&spec);
        for k in 0..N / 4 {
            for s in 0..3 {
                sys.read(black_box(0), stream(s, k));
            }
            sys.write(0, stream(3, k));
        }
        sys.metrics().cache_complexity(1)
    });
    bench("morton_gather_1M", || {
        let mut sys = CacheSystem::new(&spec);
        for k in 0..N / 2 {
            let (i, j) = beta_inv(k);
            sys.read(black_box(0), stream(0, ((i as u64) << 10) + j as u64));
            sys.write(0, stream(1, k));
        }
        sys.metrics().cache_complexity(1)
    });
}

fn bench_record_replay() {
    println!("record_replay");
    let spec = default_machine();
    for n in [1usize << 12, 1 << 14] {
        let data = rand_u64(1, n, 1 << 30);
        bench(&format!("record_sort/{n}"), || {
            mo_algorithms::sort::sort_program(black_box(&data))
        });
        let sp = mo_algorithms::sort::sort_program(&data);
        bench(&format!("replay_sort_mo/{n}"), || {
            simulate(black_box(&sp.program), &spec, Policy::Mo)
        });
    }
}

fn bench_scheduler_overhead() {
    println!("scheduler");
    let spec = default_machine();
    // A fork-heavy, compute-light program stresses anchoring decisions.
    let prog = Recorder::record(1 << 20, |rec| {
        fn tree(rec: &mut Recorder, a: mo_core::Arr, lo: usize, hi: usize) {
            if hi - lo <= 8 {
                for k in lo..hi {
                    rec.write(a, k, 1);
                }
                return;
            }
            let mid = (lo + hi) / 2;
            rec.fork2(
                mo_core::ForkHint::Sb,
                hi - lo,
                move |r| tree(r, a, lo, mid),
                hi - lo,
                move |r| tree(r, a, mid, hi),
            );
        }
        let a = rec.alloc(1 << 14);
        tree(rec, a, 0, 1 << 14);
    });
    bench("replay_forky_16k", || {
        simulate(black_box(&prog), &spec, Policy::Mo)
    });
}

fn main() {
    bench_cache_system();
    bench_record_replay();
    bench_scheduler_overhead();
}
