//! Tier-1 pin of the served kernels: every job class of the two serving
//! workloads of `BENCHMARK.json` (read from the benchmark's own scenario
//! files) runs through `algs::real` — the windowed radix leaf and the SPMS
//! merge levels, the tiled transpose, the FFT recursion, the matmul and
//! SpM-DV bands — on the width-1 reference pool the benchmark takes its
//! expectations from and on its H2-shaped two-core pool. The checksums
//! must agree between the two pools and between a batch and singleton
//! runs; the sort checksum is also derived here from `sort_unstable`.
//!
//! A second, table-driven test pins every registry row: the seeded input
//! stream of the served run and of the recording (golden checksum and
//! trace hash), the footprint as a size currency, and the tag's wire
//! forms.

use oblivious::algs::certify::record_kernel;
use oblivious::algs::real::registry::{
    footprint_words, parse_scenario_line, run_batch_in, run_kernel, Kernel,
};
use oblivious::algs::real::{fft, C64};
use oblivious::mo::rt::{HwHierarchy, HwLevel, SbPool};

const MIXED: &str = include_str!("../benchmark/scenarios/serve_mixed.scn");
const BURST: &str = include_str!("../benchmark/scenarios/serve_burst_small.scn");

fn classes(scenario: &str) -> Vec<(Kernel, usize)> {
    scenario
        .lines()
        .filter_map(|line| parse_scenario_line(line).expect("scenario line"))
        .map(|(kernel, n, _weight)| (kernel, n))
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

/// One FFT on every pool and with none: a pool decides where the halves
/// of the recursion run, never what they compute. (A width-1 pool once
/// got a different, iterative transform: 1 920 of 2 048 and 65 408 of
/// 65 536 outputs differed in their bits.)
#[test]
fn fft_is_bit_identical_on_every_pool_and_serially() {
    let width1 = SbPool::new(HwHierarchy::flat(1, 1 << 12, 1 << 22));
    let four = SbPool::new(HwHierarchy::flat(4, 1 << 12, 1 << 22));
    for n in [2048usize, 65_536] {
        let input: Vec<C64> = (0..n)
            .map(|t| ((t as f64 * 0.31).sin(), (t as f64 * 0.17).cos()))
            .collect();
        let bits = |x: &[C64]| -> Vec<(u64, u64)> {
            x.iter().map(|c| (c.0.to_bits(), c.1.to_bits())).collect()
        };
        let mut serial = input.clone();
        fft(None, &mut serial, &mut Vec::new());
        for pool in [&width1, &four, &h2()] {
            let mut x = input.clone();
            pool.enter(|ctx| fft(Some(ctx), &mut x, &mut Vec::new()));
            assert!(bits(&x) == bits(&serial), "n={n} on {pool:?}");
        }
    }
}

/// `(name, served n, checksum, recorded n, work, trace hash)` per
/// registry row, captured at commit 18f1f49 — before the kernels became
/// descriptor rows — with the parent's own `run_kernel` and
/// `record_kernel`: the served run at the largest `n` whose footprint
/// fits 2¹⁶ words under seed 42, the recording at the certified size
/// under seed 1, its trace folded with FNV-1a. A moved input stream, a
/// reordered draw or a changed recorder shows here, where every
/// pool-vs-pool comparison on the same generator would still pass.
const GOLDEN: [(&str, usize, u64, usize, u64, u64); 6] = [
    (
        "transpose",
        181,
        0x179f8b9d77f59c5f,
        32,
        4096,
        0x458cfe7392119625,
    ),
    (
        "fft",
        16384,
        // Re-captured at PR 20 (was 0xbbf375561e862677): the served FFT
        // takes its twiddles from tables instead of the `w = w·wl`
        // recurrence, so its rounding moved. What vouches for the new
        // bits is `real::fft_tests` (direct sums up to 2¹⁷); the row's
        // recording and the five other rows are as captured.
        0x40fc6af554d69aff,
        1024,
        233472,
        0xe0e49d38a0833325,
    ),
    (
        "matmul",
        147,
        0xb897cbfeb58be5d5,
        32,
        163840,
        0x0f62bbe5f1c37b25,
    ),
    (
        "sort",
        32504,
        0x8dae6c0962d1bd51,
        2048,
        297092,
        0x2498c2c920b6d5e6,
    ),
    (
        "spmdv",
        3449,
        0x31cd396ad4880a66,
        256,
        6848,
        0x4ee0317df77fa5cd,
    ),
    (
        "scan",
        32768,
        0xe35823eb65edf021,
        2048,
        14331,
        0x1671201d907fb91c,
    ),
];

#[test]
fn every_registry_row_is_pinned() {
    let width1 = SbPool::new(HwHierarchy::flat(1, 1 << 12, 1 << 22));
    let four = SbPool::new(HwHierarchy::flat(4, 1 << 12, 1 << 22));
    assert_eq!(GOLDEN.len(), Kernel::ALL.len());
    for (index, (name, n, checksum, recorded_n, work, trace_hash)) in GOLDEN.into_iter().enumerate()
    {
        // The tag's wire forms round-trip.
        let k = Kernel::parse(name).expect(name);
        assert_eq!(
            (k.name(), k.index(), k.to_string()),
            (name, index, name.to_string())
        );
        assert_eq!(Kernel::parse(&name.to_uppercase()), Some(k));
        assert_eq!(Kernel::from_index(index), Some(k));

        // The footprint is a size currency: strictly monotone over
        // doublings, and `size_within` is its exact inverse.
        let mut prev = 0;
        for size in [16usize, 64, 256, 1024] {
            let f = footprint_words(k, size);
            assert!(f > prev, "{k} footprint not monotone at n={size}");
            prev = f;
        }
        for words in [0usize, 3, 100, 6144, 1 << 16, 1 << 20] {
            let fit = k.size_within(words);
            assert!(fit == 0 || footprint_words(k, fit) <= words, "{k} {words}");
            assert!(footprint_words(k, fit + 1) > words, "{k} {words}");
        }
        assert_eq!(k.size_within(1 << 16), n, "{k}");

        // The served run: golden, and equal across pool widths and in a batch.
        assert_eq!(run_kernel(&width1, k, n, 42), checksum, "{k} n={n}");
        assert_eq!(
            run_kernel(&four, k, n, 42),
            checksum,
            "{k} n={n} on 4 cores"
        );
        let batched = four.enter(|ctx| run_batch_in(ctx, k, n, &[41, 42, 43]));
        assert_eq!(batched[1], checksum, "{k} n={n} batched");
        assert_ne!(batched[0], batched[2], "{k} seeds collide");

        // The recording: golden work and trace.
        assert_eq!(k.recorded_n(), recorded_n, "{k}");
        let program = record_kernel(k, recorded_n, 1);
        let hash = program
            .trace()
            .iter()
            .fold(0xcbf2_9ce4_8422_2325u64, |h, e| {
                (h ^ e.0).wrapping_mul(0x0000_0100_0000_01b3)
            });
        assert_eq!((program.work(), hash), (work, trace_hash), "{k} recording");
    }
    assert_eq!(Kernel::parse("no-such-kernel"), None);
    assert_eq!(Kernel::from_index(Kernel::ALL.len()), None);
}
