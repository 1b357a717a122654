//! Property-style tests on the core data structures and the paper's
//! invariants, driven by a deterministic PRNG (the container carries no
//! external crates, so the cases are enumerated rather than shrunk).

use oblivious::algs;
use oblivious::hm::{LruCache, MachineSpec, Probe};
use oblivious::mo::sched::{simulate, Policy};
use oblivious::mo::Recorder;

/// Deterministic splitmix64 stream.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed.wrapping_add(0x9e3779b97f4a7c15))
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn vec(&mut self, len: usize, modulus: u64) -> Vec<u64> {
        (0..len).map(|_| self.below(modulus)).collect()
    }
}

/// β is a bijection with β⁻¹ its inverse, for arbitrary coordinates.
#[test]
fn bit_interleave_roundtrip() {
    use algs::bitinterleave::{beta, beta_inv};
    let mut rng = Rng::new(1);
    for _ in 0..2000 {
        let (i, j) = (rng.below(1 << 16) as u32, rng.below(1 << 16) as u32);
        assert_eq!(beta_inv(beta(i, j)), (i, j));
    }
}

/// Morton order preserves quadrant containment: halving both coordinates
/// quarters the index range.
#[test]
fn bit_interleave_quadrant_locality() {
    use algs::bitinterleave::beta;
    let mut rng = Rng::new(2);
    for _ in 0..2000 {
        let (i, j) = (rng.below(1 << 12) as u32, rng.below(1 << 12) as u32);
        let z = beta(i, j);
        let zq = beta(i / 2, j / 2);
        assert_eq!(z / 4, zq);
    }
}

/// The LRU cache agrees with a naive reference on arbitrary traces.
#[test]
fn lru_matches_reference() {
    let mut rng = Rng::new(3);
    for case in 0..60 {
        let cap = 1 + (case % 31);
        let len = rng.below(500) as usize;
        let mut lru = LruCache::new(cap);
        let mut reference: Vec<u64> = Vec::new(); // MRU first
        for _ in 0..len {
            let block = rng.below(64);
            let write = rng.below(2) == 1;
            let hit = matches!(lru.access(block, write), Probe::Hit);
            let ref_hit = reference
                .iter()
                .position(|&b| b == block)
                .map(|p| {
                    reference.remove(p);
                })
                .is_some();
            reference.insert(0, block);
            reference.truncate(cap);
            assert_eq!(hit, ref_hit, "cap={cap}");
        }
    }
}

/// MO sort sorts any input (and is a permutation of it).
#[test]
fn mo_sort_sorts_anything() {
    let mut rng = Rng::new(4);
    for case in 0..40 {
        let n = if case < 4 {
            case
        } else {
            rng.below(300) as usize
        };
        let data = rng.vec(n, 1 << 32);
        let sp = algs::sort::sort_program(&data);
        let got = sp.program.slice(sp.data).to_vec();
        let mut want = data;
        want.sort_unstable();
        assert_eq!(got, want);
    }
}

/// Scan: exclusive prefix sums for arbitrary contents and lengths.
#[test]
fn scan_is_exclusive_prefix() {
    let mut rng = Rng::new(5);
    for case in 0..40 {
        let len = 1 + if case < 8 {
            case
        } else {
            rng.below(199) as usize
        };
        let data = rng.vec(len, u64::MAX);
        let n = len.next_power_of_two();
        let mut padded = data.clone();
        padded.resize(n, 0);
        let mut h = None;
        let prog = Recorder::record(2 * n, |rec| {
            let a = rec.alloc_init(&padded);
            algs::scan::mo_prefix_sum(rec, a, n);
            h = Some(a);
        });
        let got = prog.slice(h.unwrap());
        let mut acc = 0u64;
        for k in 0..data.len() {
            assert_eq!(got[k], acc);
            acc = acc.wrapping_add(data[k]);
        }
    }
}

/// List ranking matches the chase on arbitrary permutation lists.
#[test]
fn list_ranking_is_correct() {
    let mut rng = Rng::new(6);
    for case in 0..30 {
        let n = 1 + if case < 6 {
            case
        } else {
            rng.below(399) as usize
        };
        let succ = algs::listrank::random_list(n, rng.next());
        let lp = algs::listrank::listrank_program(&succ);
        assert_eq!(lp.ranks(), algs::listrank::reference_ranks(&succ));
    }
}

/// Connected components match union-find on arbitrary edge lists.
#[test]
fn cc_matches_union_find() {
    let mut rng = Rng::new(7);
    for _ in 0..30 {
        let n = 2 + rng.below(78) as usize;
        let m = rng.below(150) as usize;
        let edges: Vec<(usize, usize)> = (0..m)
            .map(|_| (rng.below(n as u64) as usize, rng.below(n as u64) as usize))
            .filter(|&(u, v)| u != v)
            .collect();
        let cp = algs::graph::cc::cc_program(n, &edges);
        assert_eq!(
            cp.normalized_labels(),
            algs::graph::cc::reference_components(n, &edges)
        );
    }
}

/// The transpose is an involution: MO-MT twice is the identity.
#[test]
fn transpose_is_involution() {
    let mut rng = Rng::new(8);
    for _ in 0..10 {
        let n = 16usize;
        let data = rng.vec(n * n, u64::MAX >> 33);
        let t1 = algs::transpose::transpose_program(&data, n);
        let once = t1.program.slice(t1.output).to_vec();
        let t2 = algs::transpose::transpose_program(&once, n);
        assert_eq!(t2.program.slice(t2.output), data.as_slice());
    }
}

/// Scheduler invariant: for any machine shape, makespan is between
/// work/p and work, and serial replay equals the work exactly.
#[test]
fn makespan_bounds_hold() {
    let mut rng = Rng::new(9);
    for _ in 0..8 {
        let p = 1usize << rng.below(4);
        let c1 = 1usize << (7 + rng.below(4));
        let spec = MachineSpec::three_level(p, c1, 8, c1 * p * 16, 32).unwrap();
        let n = 1usize << (8 + rng.below(4));
        let data: Vec<u64> = (0..n as u64).rev().collect();
        let sp = algs::sort::sort_program(&data);
        let r = simulate(&sp.program, &spec, Policy::Mo);
        assert!(r.makespan >= r.work / p as u64);
        assert!(r.makespan <= r.work);
        let s = simulate(&sp.program, &spec, Policy::Serial);
        assert_eq!(s.makespan, s.work);
    }
}

/// Cache-system sanity for arbitrary access sequences: hits + misses
/// equal accesses, and the miss count never exceeds the access count.
#[test]
fn cache_counters_are_consistent() {
    use oblivious::hm::CacheSystem;
    let mut rng = Rng::new(10);
    for _ in 0..25 {
        let len = 1 + rng.below(399) as usize;
        let addrs = rng.vec(len, 4096);
        let spec = MachineSpec::three_level(2, 256, 8, 1 << 13, 16).unwrap();
        let mut sys = CacheSystem::new(&spec);
        for (k, &a) in addrs.iter().enumerate() {
            sys.access(
                k % 2,
                a,
                if k % 3 == 0 {
                    oblivious::hm::AccessKind::Write
                } else {
                    oblivious::hm::AccessKind::Read
                },
            );
        }
        for level in 1..=2 {
            for idx in 0..spec.caches_at(level) {
                let c = sys.metrics().cache(level, idx);
                assert_eq!(c.accesses(), c.hits + c.misses);
                assert!(c.writebacks <= c.misses + 1);
            }
        }
        let total: u64 = (0..spec.caches_at(1))
            .map(|i| sys.metrics().cache(1, i).accesses())
            .sum();
        assert_eq!(total, addrs.len() as u64);
    }
}

/// Pool-vs-serial equivalence for the runtime SPMS sort: for arbitrary
/// inputs, pool widths, and tuning parameters, the structured parallel
/// path produces exactly `sort_unstable`'s output. Every width runs the
/// same distribute-then-sort-buckets recursion through the one entry,
/// and shrunk parameters force nested distribution steps on small inputs
/// so every bucket shape (empty, all-equal, above the leaf, ragged) is
/// exercised.
#[test]
fn sort_matches_serial_for_any_pool() {
    use oblivious::algs::real::{sort, spms_with_params, SpmsParams};
    use oblivious::mo::rt::{HwHierarchy, SbPool};

    let mut rng = Rng::new(12);
    for &cores in &[1usize, 2, 4] {
        let pool = SbPool::new(HwHierarchy::flat(cores, 1 << 10, 1 << 20));

        // The entry, with one scratch buffer grown across the cases.
        let mut scratch = Vec::new();
        for case in 0..10 {
            let n = if case < 3 {
                case
            } else {
                rng.below(3000) as usize
            };
            let mut data = rng.vec(n, 1 << 20);
            let mut want = data.clone();
            want.sort_unstable();
            pool.enter(|ctx| sort(ctx, &mut data, &mut scratch));
            assert_eq!(data, want, "sort cores={cores} n={n}");
        }

        // Structured path pinned open: tiny cutoffs force nested
        // distribution steps and ragged buckets at test-sized inputs.
        for &(cutoff, leaf) in &[(4usize, 16usize), (8, 32), (1, 8)] {
            let params = SpmsParams {
                serial_cutoff: cutoff,
                leaf,
            };
            for case in 0..8 {
                let n = 1 + if case < 4 {
                    leaf * 4 + case
                } else {
                    rng.below(2000) as usize
                };
                let mut data = rng.vec(n, 64); // heavy duplicates
                let mut scratch = vec![0u64; n];
                let mut want = data.clone();
                want.sort_unstable();
                pool.enter(|ctx| spms_with_params(ctx, &mut data, &mut scratch, &params));
                assert_eq!(data, want, "spms cores={cores} n={n} leaf={leaf}");
            }
        }
    }
}

/// NO machine invariant: communication complexity is monotone
/// non-increasing in B and the output is sorted.
#[test]
fn no_comm_monotone_in_block_size() {
    use oblivious::no::algs::sort::no_sort;
    let mut rng = Rng::new(11);
    for _ in 0..8 {
        let n = 1usize << (4 + rng.below(4));
        let data = rng.vec(n, 1 << 24);
        let (m, out) = no_sort(&data);
        let mut want = data;
        want.sort_unstable();
        assert_eq!(out, want);
        let mut last = u64::MAX;
        for b in [1usize, 2, 4, 8, 16] {
            let c = m.communication_complexity(4, b);
            assert!(c <= last);
            last = c;
        }
    }
}
