//! Tier-1 pin of the simulated machine: the exact statistics of the six
//! registry kernels at the `sim_replay` sizes on the Fig. 1 machine. The
//! `Policy::Mo` numbers are the ones `benchmark/expect/sim_replay.json`
//! holds for the benchmark's correctness gate, read from that file, so a
//! drift of the model (recorder, scheduler or cache simulator) fails
//! `cargo test` at the root and not only `mo-benchmark`.

use oblivious::algs::certify::record_kernel;
use oblivious::algs::real::registry::Kernel;
use oblivious::hm::MachineSpec;
use oblivious::mo::certify::json::{self, Json};
use oblivious::mo::sched::{simulate, Policy, RunReport};

const EXPECT: &str = include_str!("../benchmark/expect/sim_replay.json");

fn complexities(rep: &RunReport) -> Vec<u64> {
    (1..=4).map(|level| rep.cache_complexity(level)).collect()
}

#[test]
fn registry_kernels_simulate_to_the_pinned_statistics() {
    let doc = json::parse(EXPECT).unwrap();
    let classes = doc.get("classes").and_then(Json::as_arr).unwrap();
    assert_eq!(classes.len(), 9, "six kernels, sort under four seeds");
    let spec = MachineSpec::example_h5();
    for class in classes {
        let field = |name: &str| class.get(name).and_then(Json::as_u64);
        let kernel = Kernel::parse(class.get("kernel").and_then(Json::as_str).unwrap()).unwrap();
        let n = field("n").unwrap() as usize;
        // `"seed": null` marks a value-oblivious kernel: any seed will do.
        let prog = record_kernel(kernel, n, field("seed").unwrap_or(11));
        let rep = simulate(&prog, &spec, Policy::Mo);
        let want_q: Vec<u64> = (class.get("q").and_then(Json::as_arr).unwrap().iter())
            .map(|q| q.as_u64().unwrap())
            .collect();
        let what = format!("{} {n} seed {:?}", kernel.name(), field("seed"));
        assert_eq!(Some(prog.trace().len() as u64), field("entries"), "{what}");
        assert_eq!(Some(prog.tasks().len() as u64), field("tasks"), "{what}");
        assert_eq!(Some(rep.makespan), field("makespan"), "{what}");
        assert_eq!(complexities(&rep), want_q, "{what}");
        assert_eq!(rep.work, prog.trace().len() as u64, "{what}");
    }
}

/// The other two policies, on the kernel whose replay interleaves cores
/// the most (sort 2048, seed 0): makespan, `cache_complexity(1..=4)`,
/// ping-pongs and unit count as the simulator produced them before its
/// hot path was rebuilt.
#[test]
fn flat_and_serial_policies_simulate_to_the_pinned_statistics() {
    let prog = record_kernel(Kernel::Sort, 2048, 0);
    let spec = MachineSpec::example_h5();
    let pins = [
        (Policy::Mo, 97249, [2261, 1242, 957, 556], 2464, 3036),
        (Policy::Flat, 103918, [10680, 1951, 955, 556], 11487, 4970),
        (Policy::Serial, 295753, [25662, 2245, 957, 556], 0, 2716),
    ];
    for (policy, makespan, q, pingpongs, units) in pins {
        let rep = simulate(&prog, &spec, policy);
        assert_eq!(rep.makespan, makespan, "{policy:?}");
        assert_eq!(complexities(&rep), q, "{policy:?}");
        assert_eq!(rep.pingpongs, pingpongs, "{policy:?}");
        assert_eq!(rep.units, units, "{policy:?}");
    }
}

/// FNV-1a over every cache's `(hits, misses, writebacks)` in level-major
/// order, then ping-pongs, makespan and unit count.
fn digest(rep: &RunReport) -> u64 {
    let levels = 1..=rep.metrics.cache_levels();
    let caches = levels.flat_map(|level| rep.metrics.level_caches(level));
    let words = caches
        .flat_map(|c| [c.hits, c.misses, c.writebacks])
        .chain([rep.pingpongs, rep.makespan, rep.units as u64]);
    words
        .flat_map(u64::to_le_bytes)
        .fold(0xcbf2_9ce4_8422_2325, |h, byte| {
            (h ^ byte as u64).wrapping_mul(0x0100_0000_01b3)
        })
}

/// Hits, write-backs, ping-pongs and the caches that do not carry a
/// level's maximum, which the pins above never see: one digest per
/// `sim_replay` class and policy, captured with the simulator as it stood
/// before PR 18 gave it a recency window.
#[test]
fn every_counter_of_every_cache_is_pinned_under_all_three_policies() {
    let spec = MachineSpec::example_h5();
    #[rustfmt::skip]
    let pins: [(Kernel, usize, u64, [u64; 3]); 8] = [
        (Kernel::SpmDv, 4096, 1, [0x011ab2421b370392, 0xbdc4cb6b48b7ef2a, 0x025bb6bf7296ac7f]),
        (Kernel::Matmul, 32, 1, [0xab68c1ae5ec35877, 0xe6e61840e200e682, 0x1e0f14de2f96614f]),
        (Kernel::Fft, 1024, 1, [0x51221bd9f19e5e8a, 0x1594cc8aa00fe882, 0x6371f4d0daa41105]),
        (Kernel::Scan, 32768, 1, [0x0c86326e70825737, 0xfa5361a6964abfbe, 0xa0461dece0cd641a]),
        (Kernel::Transpose, 256, 1, [0x040d7690856becc1, 0x040d7690856becc1, 0x2c0dee2ebcb47f80]),
        (Kernel::Sort, 2048, 0, [0x2d70527451b1bc13, 0x0406c8dfcafec2f4, 0x81a09b4a8b88722a]),
        (Kernel::Sort, 2048, 1, [0x66ecfd6e3da407a7, 0x31d1cb7580db249b, 0x17a3f2fdb655f6c6]),
        (Kernel::Sort, 2048, 2, [0x9e09dbbef011e1e1, 0xfa3e0abc4a8ef0d5, 0x3aa7cfb2b1863ea7]),
    ];
    for (kernel, n, seed, want) in pins {
        let prog = record_kernel(kernel, n, seed);
        let got = [Policy::Mo, Policy::Flat, Policy::Serial]
            .map(|policy| digest(&simulate(&prog, &spec, policy)));
        assert!(
            got == want,
            "{} {n} seed {seed}: got {got:#018x?}, pinned {want:#018x?}",
            kernel.name()
        );
    }
}

/// A fork-heavy, compute-light program: a binary `ForkHint::Sb` tree over
/// 16 Ki words whose 8-word leaves each write their words once, so the
/// replay is mostly scheduling (anchoring and unit boundaries) and the
/// accesses of every unit are few. One digest per policy, captured
/// before the LRU index was rebuilt to be walked once per miss.
#[test]
fn a_fork_heavy_tree_is_pinned_under_all_three_policies() {
    use oblivious::mo::{Arr, ForkHint, Recorder};
    fn tree(rec: &mut Recorder, a: Arr, lo: usize, hi: usize) {
        if hi - lo <= 8 {
            for k in lo..hi {
                rec.write(a, k, 1);
            }
            return;
        }
        let mid = (lo + hi) / 2;
        rec.fork2(
            ForkHint::Sb,
            hi - lo,
            move |r| tree(r, a, lo, mid),
            hi - lo,
            move |r| tree(r, a, mid, hi),
        );
    }
    let prog = Recorder::record(1 << 20, |rec| {
        let a = rec.alloc(1 << 14);
        tree(rec, a, 0, 1 << 14);
    });
    let spec = MachineSpec::example_h5();
    let got = [Policy::Mo, Policy::Flat, Policy::Serial]
        .map(|policy| digest(&simulate(&prog, &spec, policy)));
    // `Mo` and `Flat` replay this program to the same counters.
    let want = [0x21b5b665637e84bb, 0x21b5b665637e84bb, 0x5985155ae8fb74e8];
    assert!(got == want, "got {got:#018x?}, pinned {want:#018x?}");
}
