//! Property test for the real pool's CGC contract.
//!
//! `mo_core::verify` checks the CGC discipline for *recorded* programs
//! in simulation; nothing checked it for the real [`SbPool::pfor`].
//! This test sweeps a grid of (cores, range, grain) shapes — plus an
//! LCG-driven random cloud — and asserts, for the actual chunks the
//! pool hands out, the contract `pfor` documents:
//!
//! 1. every chunk is a contiguous sub-range of the request;
//! 2. chunks are pairwise disjoint and their union covers the range
//!    exactly (every index seen exactly once);
//! 3. every chunk is at least `grain` long, except possibly the last
//!    (by start order) when the tail falls short;
//! 4. the number of chunks never exceeds the number of cores.

use std::ops::Range;
use std::sync::Mutex;

use mo_core::rt::{Ctx, HwHierarchy, SbPool};

fn chunks_of(pool: &SbPool, range: Range<usize>, grain: usize) -> Vec<Range<usize>> {
    let seen = Mutex::new(Vec::new());
    pool.enter(|ctx| {
        ctx.pfor(range, grain, |r| {
            seen.lock().unwrap().push(r);
        });
    });
    let mut chunks = seen.into_inner().unwrap();
    chunks.sort_by_key(|r| r.start);
    chunks
}

fn check(cores: usize, range: Range<usize>, grain: usize) {
    let pool = SbPool::new(HwHierarchy::flat(cores, 1 << 10, 1 << 22));
    let chunks = chunks_of(&pool, range.clone(), grain);
    let label = format!("cores={cores} range={range:?} grain={grain}");
    if range.is_empty() {
        assert!(chunks.is_empty(), "{label}: empty range must emit nothing");
        return;
    }
    // Chunk count bounded by the core count.
    assert!(
        chunks.len() <= cores,
        "{label}: {} chunks > {cores} cores",
        chunks.len()
    );
    // Contiguous, disjoint, exact cover: sorted chunks tile the range.
    let mut cursor = range.start;
    for r in &chunks {
        assert_eq!(r.start, cursor, "{label}: gap or overlap at {cursor}");
        assert!(r.end > r.start, "{label}: empty chunk {r:?}");
        assert!(r.end <= range.end, "{label}: chunk {r:?} overruns");
        cursor = r.end;
    }
    assert_eq!(cursor, range.end, "{label}: union does not cover range");
    // Minimum grain for all but the last chunk.
    let grain = grain.max(1);
    for r in &chunks[..chunks.len() - 1] {
        assert!(
            r.len() >= grain,
            "{label}: non-final chunk {r:?} shorter than grain"
        );
    }
    // When the pool had to chunk at all, even the tail only undershoots
    // if a full-grain tail was impossible at this chunk count.
    if chunks.len() == 1 {
        return;
    }
    let total: usize = range.len();
    assert!(
        total >= grain * (chunks.len() - 1),
        "{label}: {} chunks cannot each reach grain {grain} over {total}",
        chunks.len()
    );
}

#[test]
fn cgc_contract_holds_on_a_grid() {
    for cores in [1usize, 2, 3, 4, 7, 8] {
        for n in [0usize, 1, 2, 5, 63, 64, 65, 1000, 4096, 10_007] {
            for grain in [0usize, 1, 7, 64, 1024, 100_000] {
                check(cores, 0..n, grain);
            }
        }
    }
}

#[test]
fn cgc_contract_holds_on_offset_ranges() {
    for (start, len) in [(3usize, 10usize), (17, 1000), (999, 4097)] {
        for grain in [1usize, 32, 500] {
            check(4, start..start + len, grain);
        }
    }
}

/// Work-stealing stress: many OS threads hammer `SbPool::enter` on one
/// shared pool with mixed `join`/`pfor` workloads. Checks, after the
/// storm:
///
/// * every result is correct (the sums and every `pfor` hit count);
/// * the core permits recover exactly to their initial value;
/// * no fork counter is lost — every `join` above the L1 cutoff lands
///   in exactly one of `parallel_forks`/`denied_forks` (none here can
///   be `serial_forks`), so the three counters must sum to the exact
///   analytic join count of the workload.
#[test]
fn stress_concurrent_enters_with_mixed_workloads() {
    use std::sync::atomic::{AtomicU64, Ordering};

    const THREADS: usize = 8;
    const ROUNDS: usize = 3;
    const N: usize = 20_000;
    const LEAF: usize = 512;

    // Each element's space bound is 8 words, so with LEAF * 8 > 1024
    // every join taken by `sum` is above the 1024-word L1 cutoff.
    fn sum(ctx: &Ctx<'_>, data: &[u64]) -> u64 {
        if data.len() <= LEAF {
            return data.iter().sum();
        }
        let (l, r) = data.split_at(data.len() / 2);
        let (a, b) = ctx.join(l.len() * 8, |c| sum(c, l), r.len() * 8, |c| sum(c, r));
        a.wrapping_add(b)
    }

    /// Joins `sum` takes over a slice of length `len`.
    fn joins(len: usize) -> u64 {
        if len <= LEAF {
            return 0;
        }
        let half = len / 2;
        1 + joins(half) + joins(len - half)
    }

    let pool = SbPool::new(HwHierarchy::flat(4, 1 << 10, 1 << 22));
    let initial = pool.available_permits();
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let pool = &pool;
            s.spawn(move || {
                let data: Vec<u64> = (0..N as u64)
                    .map(|v| v.wrapping_mul(t as u64 + 1))
                    .collect();
                let want: u64 = data.iter().fold(0, |acc, &v| acc.wrapping_add(v));
                let hits: Vec<AtomicU64> = (0..N).map(|_| AtomicU64::new(0)).collect();
                for _ in 0..ROUNDS {
                    let got = pool.enter(|ctx| sum(ctx, &data));
                    assert_eq!(got, want, "thread {t}: join sum corrupted");
                    pool.enter(|ctx| {
                        ctx.pfor(0..N, 64, |r| {
                            for i in r {
                                hits[i].fetch_add(1, Ordering::Relaxed);
                            }
                        });
                    });
                }
                assert!(
                    hits.iter()
                        .all(|h| h.load(Ordering::Relaxed) == ROUNDS as u64),
                    "thread {t}: pfor hit counts wrong"
                );
            });
        }
    });
    assert_eq!(pool.available_permits(), initial, "permits did not recover");
    let st = pool.stats();
    let expected = THREADS as u64 * ROUNDS as u64 * joins(N);
    assert_eq!(
        st.parallel_forks + st.serial_forks + st.denied_forks,
        expected,
        "fork counters lost under concurrency: {st:?}"
    );
    assert_eq!(st.serial_forks, 0, "no join here is below the L1 cutoff");
}

#[test]
fn cgc_contract_holds_on_random_cloud() {
    let mut x = 0x9e3779b97f4a7c15u64;
    let mut next = move |m: usize| -> usize {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((x >> 33) as usize) % m
    };
    for _ in 0..200 {
        let cores = 1 + next(8);
        let start = next(1000);
        let len = next(20_000);
        let grain = next(4000);
        check(cores, start..start + len, grain);
    }
}
