//! Benches of the *infrastructure* itself: record and replay throughput
//! of the simulator stack (useful when extending the scheduler —
//! regressions here make every experiment slower).

use std::hint::black_box;

use hm_model::{CacheSystem, MachineSpec};
use mo_bench::{bench, default_machine, rand_u64};
use mo_core::sched::{simulate, Policy};
use mo_core::Recorder;

/// One million accesses per stream on the Fig. 1 machine. The sequential
/// scan is the fast path (seven of eight accesses fall under the
/// same-block rule); a stride of `B_4` misses at every level on every
/// access (the miss path: evict, unindex, reindex); uniform-random words
/// over 4 × `C_4` mix misses with hits on blocks that are not the MRU
/// (the promote path); and two cores writing alternate words of the same
/// blocks defeat the same-block rule and take the ping-pong path.
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
