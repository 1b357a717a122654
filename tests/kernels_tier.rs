//! Tier-1 pin of the served kernels: every job class of the two serving
//! workloads of `BENCHMARK.json` (read from the benchmark's own scenario
//! files) runs through `algs::real` — the windowed radix leaf and the SPMS
//! merge levels, the tiled transpose, the FFT recursion, the matmul and
//! SpM-DV bands — on the width-1 reference pool the benchmark takes its
//! expectations from and on its H2-shaped two-core pool. The checksums
//! must agree between the two pools and between a batch and singleton
//! runs; the sort checksum is also derived here from `sort_unstable`.

use oblivious::algs::real::registry::{run_batch_in, run_kernel, Kernel};
use oblivious::mo::rt::{HwHierarchy, HwLevel, SbPool};

const MIXED: &str = include_str!("../benchmark/scenarios/serve_mixed.scn");
const BURST: &str = include_str!("../benchmark/scenarios/serve_burst_small.scn");

/// `kernel  size  weight` lines; `#` starts a comment.
fn classes(scenario: &str) -> Vec<(Kernel, usize)> {
    scenario
        .lines()
        .map(|line| line.split('#').next().unwrap().trim())
        .filter(|line| !line.is_empty())
        .map(|line| {
            let mut fields = line.split_whitespace();
            let kernel = Kernel::parse(fields.next().unwrap()).expect("kernel name");
            (kernel, fields.next().unwrap().parse().expect("size"))
        })
        .collect()
}

/// The benchmark's fixed hierarchy: private 6144-word L1 and 262144-word
/// L2, a 4 Mi-word L3 shared by two cores.
fn h2() -> SbPool {
    let level = |capacity, fanout| HwLevel { capacity, fanout };
    SbPool::new(HwHierarchy::new(vec![
        level(6144, 1),
        level(262_144, 1),
        level(4 << 20, 2),
    ]))
}

/// What `run_kernel(_, Kernel::Sort, n, seed)` must return: the registry's
/// SplitMix64 key stream, sorted by the standard library, folded the way
/// the registry folds its output.
fn sorted_keys_checksum(n: usize, seed: u64) -> u64 {
    let mut state = seed ^ (Kernel::Sort.index() as u64).wrapping_mul(0xa076_1d64_78bd_642f);
    let mut keys: Vec<u64> = (0..n)
        .map(|_| {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        })
        .collect();
    keys.sort_unstable();
    keys.iter()
        .fold(0u64, |acc, v| acc.wrapping_mul(31).wrapping_add(*v))
}

#[test]
fn served_classes_agree_across_pools_batches_and_std_sort() {
    let reference = SbPool::new(HwHierarchy::flat(1, 6144, 4 << 20));
    let pool = h2();
    let mut all = classes(MIXED);
    all.extend(classes(BURST));
    assert_eq!(all.len(), 16, "14 mixed classes + 2 burst classes");
    for (class, (kernel, n)) in all.into_iter().enumerate() {
        let seeds = [class as u64, 1000 + class as u64];
        let want = seeds.map(|seed| run_kernel(&reference, kernel, n, seed));
        let what = format!("{} {n}", kernel.name());
        assert_eq!(run_kernel(&pool, kernel, n, seeds[0]), want[0], "{what}");
        let batched = pool.enter(|ctx| run_batch_in(ctx, kernel, n, &seeds));
        assert_eq!(batched, want, "{what}: batch of two");
        if kernel == Kernel::Sort {
            assert_eq!(want[0], sorted_keys_checksum(n, seeds[0]), "{what}");
        }
    }
}
