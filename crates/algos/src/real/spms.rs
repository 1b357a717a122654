//! SPMS parallel sort — the real-machine Sample-Partition-Merge Sort of
//! Cole–Ramachandran (*Resource Oblivious Sorting on Multicores*,
//! PAPERS.md), on the space-bound pool.
//!
//! Structure (one level of the SPMS recurrence):
//!
//! 1. **Sort runs.** The input splits into `q` contiguous runs
//!    (`q = ⌈n / leaf⌉`, capped at [`SPMS_MAX_WAYS`]); each run is
//!    SPMS-sorted in parallel, bottoming out in a windowed LSD radix
//!    leaf ([`SPMS_LEAF`] keys, chosen ≥ L1 so a leaf amortizes the steal
//!    it rode in on) whose pass count follows the run length, not the
//!    key width.
//! 2. **Sample.** `q` regular samples per sorted run; the sorted sample
//!    array yields `q − 1` pivots. Regular sampling off *sorted* runs
//!    bounds every bucket at `≈ 2n/q` — the balance the SPMS analysis
//!    needs for its recurrence to telescope.
//! 3. **Partition.** Each run is split at the pivots by binary search —
//!    the per-run split points are computed in parallel and define, per
//!    bucket, one already-sorted segment of every run.
//! 4. **Merge.** Each bucket is a `q`-way merge of its segments, done by
//!    a cached-key loser tree straight into the bucket's final slice of
//!    the output buffer; buckets merge in parallel under exact space
//!    bounds (2·bucket words each).
//!
//! Every level is told which of its two buffers the sorted result must
//! land in (`into_b`), and sorts its runs into the *other* one, so the
//! bucket merge is the level's only full pass over the data — there is
//! no copy-back sweep at any level, and the radix leaf pays at most one
//! cache-resident copy to honor the parity it was asked for.
//!
//! This interleaves the sample-sort partition with multiway merging
//! (no per-bucket comparison re-sort: every bucket reuses the order the
//! runs already established), matching the paper's
//! `T(n) = T(√n·…) + O(n/q · merge)`-style recurrence with a constant
//! number of passes over the data per level. The `n`-word scratch is
//! caller-owned and threaded through every level — no level allocates
//! buffers proportional to its input.
//!
//! All space declarations are exact: run sorting, partitioning and
//! bucket merging each declare ≤ 2·(words they touch), so the whole
//! sort stays inside the `2n + o(n)` footprint the registry charges
//! (checked by a debug assertion here and audited by `mo-certify`).

use mo_core::rt::{Ctx, Jobs};

use super::registry;

/// Inputs at or below this length are sorted in place by `sort_unstable`
/// — below it the leaf's fixed costs (two 2 KiB tables zeroed and
/// prefix-summed per pass) dominate. Measured on full-width keys
/// (`bench_rt --sweep`, one pinned CPU, leaf vs `sort_unstable`): 0.94–
/// 0.97× at 256 keys, 1.10–1.14× at 384, 1.2–1.3× at 512, 1.4–1.5× at
/// 1 024 and 2 048.
pub const SPMS_SERIAL_CUTOFF: usize = 256;

/// Serial leaf size of the SPMS recursion: runs at or below this length
/// are sorted by the radix leaf. Tunable; the default (128 Ki keys,
/// 1 MiB) is far above every L1 this project targets (6144 words on the
/// reference host), so one leaf amortizes many steals, and its ping-pong
/// working set (2 MiB) still fits the reference L2. The leaf's pass count
/// stays at three up to 2²⁵ keys, so *serially* a bigger leaf is never
/// worse (width-1 pool, full-width keys, structured path vs
/// `sort_unstable` at 256 Ki / 1 Mi keys: 64 Ki leaf 1.08× / 0.99×,
/// 128 Ki 1.04× / 0.97×, 256 Ki 1.17× / 0.98×, 1 Mi 1.16× / 1.23×) —
/// but the leaf is also the grain of parallelism, and 128 Ki is the
/// largest size that still gives a 256 Ki-key sort two parallel runs and
/// keeps the merge fan-in at the million-key scale moderate (q = 8 at
/// n = 1 Mi, three compare-selects per emitted key).
pub const SPMS_LEAF: usize = 1 << 17;

/// Maximum merge fan-in `q` of one partition level (and the loser-tree
/// capacity). 16 keeps the tree at 4 comparisons per emitted key.
pub const SPMS_MAX_WAYS: usize = 16;

/// Radix digit width of the serial leaf. The scatter's store stream
/// keeps one live cache line per bucket, so 512 buckets pin ~32 KiB of
/// destination lines — inside every L1 this project targets. With the
/// window deciding the pass count (two passes up to 2¹⁶ keys, three up
/// to 2²⁵), 8-, 9- and 10-bit digits measure within noise of each other
/// across 1 Ki – 128 Ki keys; 11 bits (2048 cursors, 128 KiB of live
/// lines) loses 10–15 %.
const RADIX_DIGIT_BITS: u32 = 9;
const RADIX_BUCKETS: usize = 1 << RADIX_DIGIT_BITS;
const RADIX_MASK: u64 = (RADIX_BUCKETS - 1) as u64;
/// Disjoint digits that fit a 64-bit key: the most scatter passes any
/// key can take through the leaf, fix-up recursion included.
const RADIX_MAX_DIGITS: usize = u64::BITS.div_ceil(RADIX_DIGIT_BITS) as usize;
/// The window covers `⌈log₂ n⌉ +` this many varying bits, rounded up to
/// whole digits, so at most `n / 2^slack` keys are expected to tie on it.
/// 2 is the measured optimum: fixing up a quarter of the keys in pairs
/// is still cheaper than a third pass (549 vs 601–642 µs at 64 Ki keys),
/// while slack 1 (half the keys tying at 128 Ki) costs a pass's worth.
const RADIX_WINDOW_SLACK: u32 = 2;
/// Runs of window-tied keys up to this length are insertion-sorted;
/// longer ones re-enter the leaf. 16 and 32 measure alike; at 64 the
/// quadratic term shows (+25 % on 128 Ki keys tying in runs of ≈ 43).
const RADIX_SHORT_RUN: usize = 32;

/// Aux words (u64) live during one radix leaf: two u32 histogram /
/// cursor tables (the current digit's, turned into scatter cursors in
/// place, and the next digit's, filled during the scatter) plus the
/// shift table. The fix-up sweep re-enters the leaf only after a level's
/// tables are dead, so one level's worth is live at a time.
pub(crate) const RADIX_AUX_WORDS: usize = 2 * RADIX_BUCKETS / 2 + 16;

// The radix leaf's actual stack arrays must fit the aux budget the
// footprint charges for them.
const _: () = assert!((2 * RADIX_BUCKETS).div_ceil(2) + RADIX_MAX_DIGITS <= RADIX_AUX_WORDS);

/// Tuning knobs of the SPMS recursion (AMTHA-style: the algorithm is
/// oblivious to them — any setting sorts — they only move constants).
#[derive(Debug, Clone, Copy)]
pub struct SpmsParams {
    /// ≤ this length: in-place `sort_unstable`.
    pub serial_cutoff: usize,
    /// ≤ this length: LSD radix leaf (needs `n` words of scratch).
    pub leaf: usize,
    /// Merge fan-in cap per level, `2 ..= SPMS_MAX_WAYS`.
    pub max_ways: usize,
}

impl Default for SpmsParams {
    fn default() -> Self {
        SpmsParams {
            serial_cutoff: SPMS_SERIAL_CUTOFF,
            leaf: SPMS_LEAF,
            max_ways: SPMS_MAX_WAYS,
        }
    }
}

/// Merge fan-in at size `n`: one run per leaf until the cap.
fn spms_ways(n: usize, p: &SpmsParams) -> usize {
    n.div_ceil(p.leaf).clamp(2, p.max_ways)
}

/// Aux-word budget of one partition level at fan-in `q`: samples (q²),
/// pivots (q), per-run split points (q·(q+2)), run/bucket bounds and
/// merge-task bookkeeping — with slack, 3q² + 16q.
fn spms_level_aux_words(q: usize) -> usize {
    3 * q * q + 16 * q
}

/// Peak live auxiliary words of an SPMS sort of `n` keys, counting
/// every concurrently-live recursion level (all `q` runs of a level may
/// be mid-leaf at once, each holding its radix histograms).
fn spms_aux_words(n: usize, p: &SpmsParams) -> usize {
    if n <= p.serial_cutoff {
        0
    } else if n <= p.leaf {
        RADIX_AUX_WORDS
    } else {
        let q = spms_ways(n, p);
        let run_len = n.div_ceil(q);
        spms_level_aux_words(q) + q * spms_aux_words(run_len, p)
    }
}

/// Peak live words of one size-`n` SPMS sort under default parameters:
/// the keys, the caller-owned merge scratch, and the per-level
/// sampling / split / histogram auxiliaries. This is what the registry
/// footprint for [`registry::Kernel::Sort`] charges, so declared SB
/// space ≥ the sort's real working set by construction — the debug
/// assertions in [`sort`] keep the two from drifting.
pub fn spms_working_set_words(n: usize) -> usize {
    n.saturating_mul(2)
        .saturating_add(spms_aux_words(n, &SpmsParams::default()))
}

/// SPMS sort of `data` under the shipped parameters. `scratch` is
/// caller-owned, so repeated sorts can reuse one allocation: a buffer
/// shorter than `n` is replaced by a zeroed one of `n` keys (never for
/// `n ≤ SPMS_SERIAL_CUTOFF`); its contents on return are unspecified.
/// The plan does not depend on the pool: a width-1 pool runs the same
/// recursion, with every fork on the calling thread.
pub fn sort(ctx: &Ctx<'_>, data: &mut [u64], scratch: &mut Vec<u64>) {
    let n = data.len();
    // The SB footprint this kernel declares to admission control must
    // cover the working set the real path is about to use.
    debug_assert!(
        registry::footprint_words(registry::Kernel::Sort, n) >= spms_working_set_words(n),
        "sort footprint understates the SPMS working set at n={n}"
    );
    if n > SPMS_SERIAL_CUTOFF && scratch.len() < n {
        *scratch = vec![0; n];
    }
    spms_with_params(ctx, data, scratch, &SpmsParams::default());
}

/// [`sort`] with explicit tuning parameters (tests exercise deep
/// recursions and every fan-in without million-key inputs).
pub fn spms_with_params(ctx: &Ctx<'_>, data: &mut [u64], scratch: &mut [u64], p: &SpmsParams) {
    let n = data.len();
    if n <= p.serial_cutoff {
        data.sort_unstable();
        return;
    }
    assert!(scratch.len() >= n, "spms scratch shorter than input");
    assert!(
        (2..=SPMS_MAX_WAYS).contains(&p.max_ways),
        "max_ways out of range"
    );
    spms_rec(ctx, data, &mut scratch[..n], false, p);
}

/// One level of the SPMS recurrence. `a` holds the input;
/// `a.len() == b.len()`; the sorted result lands in `b` when `into_b`,
/// else in `a`. Each level sorts its runs into the buffer the result is
/// *not* headed to, then bucket-merges straight into the target — so no
/// level ever pays a copy-back pass.
fn spms_rec(ctx: &Ctx<'_>, a: &mut [u64], b: &mut [u64], into_b: bool, p: &SpmsParams) {
    let n = a.len();
    debug_assert_eq!(b.len(), n);
    if n <= p.serial_cutoff {
        a.sort_unstable();
        if into_b {
            b.copy_from_slice(a);
        }
        return;
    }
    if n <= p.leaf {
        radix_sort_leaf(a, b, into_b);
        return;
    }

    let q = spms_ways(n, p);
    let run_len = n.div_ceil(q);

    // (1) Sort the q runs in parallel, recursing through this very
    // function; each fork declares exactly the words it owns. The runs
    // land in the buffer opposite the requested target.
    sort_runs(ctx, a, b, run_len, !into_b, p);
    let (src, dst): (&[u64], &mut [u64]) = if into_b { (a, b) } else { (b, a) };

    let run_bounds: Vec<(usize, usize)> = (0..n.div_ceil(run_len))
        .map(|r| (r * run_len, ((r + 1) * run_len).min(n)))
        .collect();

    // (2) Regular samples off the sorted runs: q per run, away from the
    // run edges, so every bucket is bounded near 2n/q.
    let mut samples: Vec<u64> = Vec::with_capacity(q * run_bounds.len());
    for &(lo, hi) in &run_bounds {
        let run = &src[lo..hi];
        for i in 0..q {
            samples.push(run[((i + 1) * run.len() / (q + 1)).min(run.len() - 1)]);
        }
    }
    samples.sort_unstable();
    let mut pivots: Vec<u64> = (1..q)
        .map(|t| samples[(t * samples.len() / q).min(samples.len() - 1)])
        .collect();
    pivots.dedup();
    let nb = pivots.len() + 1;

    // (3) Split every run at the pivots, in parallel; segment
    // `[pts[b], pts[b+1])` of run r is r's contribution to bucket b.
    let splits: Vec<Vec<usize>> = {
        let pv: &[u64] = &pivots;
        let jobs: Jobs<'_, Vec<usize>> = run_bounds
            .iter()
            .map(|&(lo, hi)| {
                Box::new(move |_: &Ctx<'_>| {
                    let run = &src[lo..hi];
                    let mut pts = Vec::with_capacity(pv.len() + 2);
                    pts.push(0usize);
                    for &pivot in pv {
                        pts.push(run.partition_point(|&v| v <= pivot));
                    }
                    pts.push(run.len());
                    pts
                }) as _
            })
            .collect();
        ctx.join_all(run_len, jobs)
    };

    // The level's small-array live set must stay inside the analytic
    // aux budget the footprint charges for it.
    debug_assert!(
        {
            let small = samples.len()
                + pivots.len()
                + splits.iter().map(Vec::len).sum::<usize>()
                + 2 * run_bounds.len()
                + nb * (run_bounds.len() + 2);
            small <= spms_level_aux_words(q)
        },
        "SPMS level aux exceeds its declared budget at n={n} q={q}"
    );

    // (4) Merge each bucket's segments into its slice of the target
    // buffer; the buckets tile dst[..n] exactly, in order. The source
    // side of dst is dead (its sorted content moved during step 1), so
    // this merge is the level's only full pass.
    {
        let mut tasks: Vec<BucketTask<'_>> = Vec::with_capacity(nb);
        let mut rest: &mut [u64] = dst;
        for b in 0..nb {
            let segs: Vec<&[u64]> = run_bounds
                .iter()
                .zip(&splits)
                .map(|(&(lo, _), pts)| &src[lo + pts[b]..lo + pts[b + 1]])
                .collect();
            let blen: usize = segs.iter().map(|s| s.len()).sum();
            let (out, tail) = rest.split_at_mut(blen);
            rest = tail;
            tasks.push(BucketTask { segs, out });
        }
        debug_assert!(rest.is_empty(), "buckets must tile the target exactly");
        merge_buckets(ctx, tasks);
    }
}

/// Recursive binary fork over whole runs: each side declares 2× the
/// words it owns (its keys plus the matching scratch).
fn sort_runs(
    ctx: &Ctx<'_>,
    a: &mut [u64],
    b: &mut [u64],
    run_len: usize,
    into_b: bool,
    p: &SpmsParams,
) {
    let n = a.len();
    if n <= run_len {
        spms_rec(ctx, a, b, into_b, p);
        return;
    }
    let runs = n.div_ceil(run_len);
    let mid = (runs / 2) * run_len;
    let (al, ar) = a.split_at_mut(mid);
    let (bl, br) = b.split_at_mut(mid);
    ctx.join(
        2 * mid,
        |c| sort_runs(c, al, bl, run_len, into_b, p),
        2 * (n - mid),
        |c| sort_runs(c, ar, br, run_len, into_b, p),
    );
}

#[cfg(test)]
thread_local! {
    /// Work the leaf did on this thread: (keys moved by scatter passes,
    /// longest run handed to `insertion_sort`).
    static LEAF_WORK: std::cell::Cell<(usize, usize)> = const { std::cell::Cell::new((0, 0)) };
}

/// Serial leaf: *windowed* LSD radix sort, [`RADIX_DIGIT_BITS`] bits per
/// pass, ping-ponging between `data` and `scratch`. One OR/AND reduction
/// marks the bits where the keys differ; the scatter passes cover only a
/// window of the highest varying bits — ⌈(⌈log₂ n⌉ + slack) / digit⌉
/// digits, each starting at the highest varying bit not yet covered, so
/// constant stretches cost nothing and the pass count follows `n`, not
/// the key width. Each scatter histograms the *next* digit while it moves
/// keys. The result is steered into `scratch` when `into_scratch`, else
/// into `data` (one cache-resident copy when the pass parity disagrees),
/// and [`finish_tied_runs`] then orders the keys that tie on the whole
/// window.
fn radix_sort_leaf(data: &mut [u64], scratch: &mut [u64], into_scratch: bool) {
    let n = data.len();
    debug_assert!(scratch.len() >= n);
    let scratch = &mut scratch[..n];
    debug_assert!(n <= u32::MAX as usize, "radix leaf counters are u32");

    let (all_or, all_and) = data
        .iter()
        .fold((0u64, u64::MAX), |(o, a), &v| (o | v, a & v));
    let mut rest = all_or ^ all_and;
    if n < 2 || rest == 0 {
        // All keys are identical — already sorted wherever they sit.
        if into_scratch {
            scratch.copy_from_slice(data);
        }
        return;
    }
    // The window, top digit first; `lo` is its lowest bit.
    let want = ((n - 1).ilog2() + 1 + RADIX_WINDOW_SLACK).div_ceil(RADIX_DIGIT_BITS);
    let mut shifts = [0u32; RADIX_MAX_DIGITS];
    let mut nd = 0usize;
    while rest != 0 && nd < want as usize {
        let sh = (u64::BITS - rest.leading_zeros()).saturating_sub(RADIX_DIGIT_BITS);
        shifts[nd] = sh;
        nd += 1;
        rest &= (1u64 << sh) - 1;
    }
    let shifts = &shifts[..nd];
    let lo = shifts[nd - 1];

    let mut h = [0u32; RADIX_BUCKETS];
    for &v in data.iter() {
        h[((v >> lo) & RADIX_MASK) as usize] += 1;
    }
    // LSD scatter passes, lowest window digit first; each pass counts
    // the next pass's digit on the fly.
    let mut src_is_data = true;
    for i in (0..nd).rev() {
        // In-place exclusive prefix sum turns counts into cursors.
        let mut sum = 0u32;
        for c in h.iter_mut() {
            let cc = *c;
            *c = sum;
            sum += cc;
        }
        let sh = shifts[i];
        let mut hnext = [0u32; RADIX_BUCKETS];
        match (src_is_data, i > 0) {
            (true, true) => scatter_hist(data, scratch, &mut h, sh, shifts[i - 1], &mut hnext),
            (false, true) => scatter_hist(scratch, data, &mut h, sh, shifts[i - 1], &mut hnext),
            (true, false) => scatter(data, scratch, &mut h, sh),
            (false, false) => scatter(scratch, data, &mut h, sh),
        }
        h = hnext;
        src_is_data = !src_is_data;
    }

    // Pass parity decided where the result sits; honor the request.
    let in_data = src_is_data;
    if in_data && into_scratch {
        scratch.copy_from_slice(data);
    } else if !in_data && !into_scratch {
        data.copy_from_slice(scratch);
    }
    #[cfg(test)]
    LEAF_WORK.with(|w| w.set((w.get().0 + nd * n, w.get().1)));
    if into_scratch {
        finish_tied_runs(scratch, data, lo);
    } else {
        finish_tied_runs(data, scratch, lo);
    }
}

/// The leaf's fix-up sweep: `keys` is sorted on every bit at or above
/// `lo` (bits the window skipped are constant), so what is left is to
/// order each run of keys that agree on all of them. Short runs are
/// insertion-sorted; a long run goes through [`radix_sort_leaf`] again on
/// its own slices of the two buffers, where the reduction sees only the
/// bits below `lo` vary — one window lower. Every digit of every level is
/// a disjoint bit range, so a key is scattered at most
/// [`RADIX_MAX_DIGITS`] times however the input clusters.
fn finish_tied_runs(keys: &mut [u64], spare: &mut [u64], lo: u32) {
    if lo == 0 {
        return;
    }
    let n = keys.len();
    let mut i = 0usize;
    while i + 1 < n {
        let head = keys[i] >> lo;
        let mut j = i + 1;
        while j < n && keys[j] >> lo == head {
            j += 1;
        }
        if j - i > RADIX_SHORT_RUN {
            radix_sort_leaf(&mut keys[i..j], &mut spare[i..j], false);
        } else if j - i > 1 {
            insertion_sort(&mut keys[i..j]);
        }
        i = j;
    }
}

fn insertion_sort(keys: &mut [u64]) {
    #[cfg(test)]
    LEAF_WORK.with(|w| w.set((w.get().0, w.get().1.max(keys.len()))));
    for i in 1..keys.len() {
        let v = keys[i];
        let mut j = i;
        while j > 0 && keys[j - 1] > v {
            keys[j] = keys[j - 1];
            j -= 1;
        }
        keys[j] = v;
    }
}

/// One stable counting-sort pass on the digit at `shift`.
#[inline]
fn scatter(src: &[u64], dst: &mut [u64], offs: &mut [u32; RADIX_BUCKETS], shift: u32) {
    for &v in src {
        let b = ((v >> shift) & RADIX_MASK) as usize;
        dst[offs[b] as usize] = v;
        offs[b] += 1;
    }
}

/// [`scatter`] that also histograms the digit at `next_shift` into
/// `hnext` as it moves each key, so the following pass needs no
/// separate counting sweep.
#[inline]
fn scatter_hist(
    src: &[u64],
    dst: &mut [u64],
    offs: &mut [u32; RADIX_BUCKETS],
    shift: u32,
    next_shift: u32,
    hnext: &mut [u32; RADIX_BUCKETS],
) {
    for &v in src {
        let b = ((v >> shift) & RADIX_MASK) as usize;
        dst[offs[b] as usize] = v;
        offs[b] += 1;
        hnext[((v >> next_shift) & RADIX_MASK) as usize] += 1;
    }
}

/// One bucket's merge work: its per-run sorted segments and the slice
/// of the target buffer it owns.
struct BucketTask<'a> {
    segs: Vec<&'a [u64]>,
    out: &'a mut [u64],
}

/// Parallel merge of the buckets: binary fork over the task list with
/// exact per-side space (2× the output words on that side). The fork
/// bottoms out at *pairs* of buckets merged in one interleaved loop —
/// two independent loser trees per iteration give the core twice the
/// instruction-level parallelism of one serial replay chain.
fn merge_buckets(ctx: &Ctx<'_>, mut tasks: Vec<BucketTask<'_>>) {
    match tasks.len() {
        0 => return,
        1 => {
            let t = tasks.pop().expect("one task");
            merge_segments(&t.segs, t.out);
            return;
        }
        2 => {
            let tb = tasks.pop().expect("two tasks");
            let ta = tasks.pop().expect("two tasks");
            merge_segment_pair(ta, tb);
            return;
        }
        _ => {}
    }
    let mid = tasks.len() / 2;
    let right = tasks.split_off(mid);
    let left = tasks;
    let wl = 2 * left.iter().map(|t| t.out.len()).sum::<usize>();
    let wr = 2 * right.iter().map(|t| t.out.len()).sum::<usize>();
    ctx.join(
        wl.max(1),
        move |c| merge_buckets(c, left),
        wr.max(1),
        move |c| merge_buckets(c, right),
    );
}

/// The non-empty segments of a bucket, compacted into a fixed array.
fn live_segments<'a>(segs: &[&'a [u64]]) -> ([&'a [u64]; SPMS_MAX_WAYS], usize) {
    let mut live = [&[] as &[u64]; SPMS_MAX_WAYS];
    let mut k = 0usize;
    for s in segs {
        if !s.is_empty() {
            live[k] = s;
            k += 1;
        }
    }
    (live, k)
}

/// k-way merge of sorted segments into `out` (whose length must equal
/// the segments' total). Specializes the easy shapes; ≥3 live segments
/// go through the loser tree.
fn merge_segments(segs: &[&[u64]], out: &mut [u64]) {
    debug_assert_eq!(segs.iter().map(|s| s.len()).sum::<usize>(), out.len());
    let (live, k) = live_segments(segs);
    match k {
        0 => {}
        1 => out.copy_from_slice(live[0]),
        2 => merge2(live[0], live[1], out),
        _ => {
            let mut tree = TreeState::new(&live, k);
            for slot in out.iter_mut() {
                *slot = tree.emit();
            }
        }
    }
}

/// Merge two buckets in one interleaved loop: each iteration advances
/// both loser trees, whose replay chains are independent, so the core
/// overlaps them instead of waiting out one chain's latency at a time.
/// Buckets that don't need a tree fall back to the serial specials.
fn merge_segment_pair(ta: BucketTask<'_>, tb: BucketTask<'_>) {
    let (la, ka) = live_segments(&ta.segs);
    let (lb, kb) = live_segments(&tb.segs);
    if ka < 3 || kb < 3 {
        merge_segments(&ta.segs, ta.out);
        merge_segments(&tb.segs, tb.out);
        return;
    }
    let mut tra = TreeState::new(&la, ka);
    let mut trb = TreeState::new(&lb, kb);
    let (outa, outb) = (ta.out, tb.out);
    let common = outa.len().min(outb.len());
    let (heada, taila) = outa.split_at_mut(common);
    let (headb, tailb) = outb.split_at_mut(common);
    for (sa, sb) in heada.iter_mut().zip(headb.iter_mut()) {
        *sa = tra.emit();
        *sb = trb.emit();
    }
    for slot in taila.iter_mut() {
        *slot = tra.emit();
    }
    for slot in tailb.iter_mut() {
        *slot = trb.emit();
    }
}

/// Branchless two-way merge: the hot loop advances by conditional
/// increments only, so the compare compiles to cmov instead of an
/// unpredictable branch.
fn merge2(a: &[u64], b: &[u64], out: &mut [u64]) {
    let (mut i, mut j, mut o) = (0usize, 0usize, 0usize);
    while i < a.len() && j < b.len() {
        let av = a[i];
        let bv = b[j];
        let take_a = av <= bv;
        out[o] = if take_a { av } else { bv };
        i += take_a as usize;
        j += usize::from(!take_a);
        o += 1;
    }
    if i < a.len() {
        out[o..].copy_from_slice(&a[i..]);
    } else {
        out[o..].copy_from_slice(&b[j..]);
    }
}

/// The head key of segment `j` at positions `pos`; exhausted (or
/// padding) segments read as `u64::MAX`, which only ties with — never
/// beats — a real `u64::MAX` key. See the correctness note on
/// [`merge_tree`] for why that tie is harmless.
#[inline]
fn head_key(segs: &[&[u64]; SPMS_MAX_WAYS], pos: &[usize; SPMS_MAX_WAYS], j: usize) -> u64 {
    segs[j].get(pos[j]).copied().unwrap_or(u64::MAX)
}

/// Loser-tree k-way merge state with cached keys: every node stores
/// both its loser *and* that loser's head key, so the per-element
/// replay path is ⌈log₂ k⌉ compare-and-selects (≤ 4 at the
/// [`SPMS_MAX_WAYS`] cap) over stack state plus exactly one segment
/// read to refill the winner. The replay writes its node state back
/// unconditionally and picks both sides by select, so the hot loop
/// carries no unpredictable branch.
///
/// Exhausted lanes carry the key `u64::MAX` rather than an out-of-band
/// sentinel. If such a lane ever wins the tournament while output slots
/// remain, the tournament minimum is `u64::MAX` — so every remaining
/// real key equals `u64::MAX` too, and emitting the lane's cached key
/// still writes the right value; only per-lane positions drift, and
/// those die with the merge.
struct TreeState<'a> {
    segs: &'a [&'a [u64]; SPMS_MAX_WAYS],
    pos: [usize; SPMS_MAX_WAYS],
    /// Loser index / cached loser key of the match played at each node.
    tree: [usize; SPMS_MAX_WAYS],
    tkey: [u64; SPMS_MAX_WAYS],
    winner: usize,
    wkey: u64,
    /// Tree width: `live_count.next_power_of_two()`.
    k: usize,
}

impl<'a> TreeState<'a> {
    fn new(segs: &'a [&'a [u64]; SPMS_MAX_WAYS], kk: usize) -> Self {
        debug_assert!((3..=SPMS_MAX_WAYS).contains(&kk));
        let k = kk.next_power_of_two();
        let pos = [0usize; SPMS_MAX_WAYS];
        let mut tree = [0usize; SPMS_MAX_WAYS];
        let mut tkey = [u64::MAX; SPMS_MAX_WAYS];
        // Build bottom-up via a winner tree.
        let mut win = [0usize; 2 * SPMS_MAX_WAYS];
        for (j, w) in win[k..2 * k].iter_mut().enumerate() {
            *w = j;
        }
        for node in (1..k).rev() {
            let (x, y) = (win[2 * node], win[2 * node + 1]);
            let (kx, ky) = (head_key(segs, &pos, x), head_key(segs, &pos, y));
            let (w, l, lk) = if kx <= ky { (x, y, ky) } else { (y, x, kx) };
            win[node] = w;
            tree[node] = l;
            tkey[node] = lk;
        }
        let winner = win[1];
        let wkey = head_key(segs, &pos, winner);
        TreeState {
            segs,
            pos,
            tree,
            tkey,
            winner,
            wkey,
            k,
        }
    }

    /// Pop the minimum, refill its lane, replay its path.
    #[inline(always)]
    fn emit(&mut self) -> u64 {
        let out = self.wkey;
        let mut winner = self.winner;
        self.pos[winner] += 1;
        let mut wkey = head_key(self.segs, &self.pos, winner);
        let mut node = (self.k + winner) >> 1;
        while node != 0 {
            let ti = self.tree[node];
            let tk = self.tkey[node];
            let beats = tk < wkey;
            self.tree[node] = if beats { winner } else { ti };
            self.tkey[node] = if beats { wkey } else { tk };
            winner = if beats { ti } else { winner };
            wkey = if beats { tk } else { wkey };
            node >>= 1;
        }
        self.winner = winner;
        self.wkey = wkey;
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mo_core::rt::{HwHierarchy, SbPool};

    fn pool() -> SbPool {
        SbPool::new(HwHierarchy::flat(4, 1 << 12, 1 << 22))
    }

    fn splitmix(x: &mut u64) -> u64 {
        *x = x.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = *x;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    fn check_sorts(data: &[u64], label: &str) {
        let mut want = data.to_vec();
        want.sort_unstable();
        // Default params through the entry.
        let p = pool();
        let mut got = data.to_vec();
        p.enter(|ctx| sort(ctx, &mut got, &mut Vec::new()));
        assert_eq!(got, want, "{label}: default params");
        // Tiny leaves force multi-level recursion + every merge fan-in.
        for (cutoff, leaf, ways) in [(64, 512, 4), (256, 1024, 16), (16, 96, 3)] {
            let mut got = data.to_vec();
            let mut scratch = vec![0u64; got.len()];
            let params = SpmsParams {
                serial_cutoff: cutoff,
                leaf,
                max_ways: ways,
            };
            p.enter(|ctx| spms_with_params(ctx, &mut got, &mut scratch, &params));
            assert_eq!(got, want, "{label}: cutoff={cutoff} leaf={leaf} q={ways}");
        }
    }

    #[test]
    fn adversarial_patterns_through_parallel_path() {
        let n = 50_000usize;
        let all_equal = vec![7u64; n];
        check_sorts(&all_equal, "all-equal");
        let sawtooth: Vec<u64> = (0..n).map(|i| (i % 17) as u64).collect();
        check_sorts(&sawtooth, "sawtooth");
        let reverse: Vec<u64> = (0..n).rev().map(|i| i as u64).collect();
        check_sorts(&reverse, "reverse-sorted");
        let few_distinct: Vec<u64> = {
            let mut x = 5u64;
            (0..n).map(|_| splitmix(&mut x) % 5).collect()
        };
        check_sorts(&few_distinct, "few-distinct");
        let maxed: Vec<u64> = (0..n)
            .map(|i| if i % 3 == 0 { u64::MAX } else { i as u64 })
            .collect();
        check_sorts(&maxed, "u64::MAX keys");
    }

    #[test]
    fn partition_path_at_default_params() {
        // Large enough to clear SPMS_LEAF so sample/partition/merge run
        // with the shipped constants (q = 4 here).
        let n = 230_000usize;
        let mut x = 11u64;
        let data: Vec<u64> = (0..n).map(|_| splitmix(&mut x)).collect();
        check_sorts(&data[..], "random 230k");
    }

    #[test]
    fn packed_key_value_records_survive() {
        // 32-bit keys packed over 32-bit payload ids: sorting the u64s
        // orders by key, and every payload must come through intact.
        let n = 60_000usize;
        let mut x = 3u64;
        let data: Vec<u64> = (0..n)
            .map(|i| ((splitmix(&mut x) % 1000) << 32) | i as u64)
            .collect();
        let mut want = data.clone();
        want.sort_unstable();
        let p = pool();
        let mut got = data.clone();
        let mut scratch = vec![0u64; n];
        let params = SpmsParams {
            serial_cutoff: 128,
            leaf: 2048,
            max_ways: 8,
        };
        p.enter(|ctx| spms_with_params(ctx, &mut got, &mut scratch, &params));
        assert_eq!(got, want);
        // Keys are grouped and non-decreasing; payloads per key intact.
        let mut payloads: Vec<u64> = got.iter().map(|v| v & 0xffff_ffff).collect();
        payloads.sort_unstable();
        assert!(payloads.iter().enumerate().all(|(i, &p)| p == i as u64));
    }

    #[test]
    fn pool_vs_serial_equivalence_property() {
        // Random sizes, shapes and pools: the pool result must always
        // equal the serial std sort.
        let p1 = SbPool::new(HwHierarchy::flat(1, 1 << 12, 1 << 22));
        let p4 = pool();
        let mut x = 42u64;
        for trial in 0..12 {
            let n = 1 + (splitmix(&mut x) % 40_000) as usize;
            let modulus = [u64::MAX, 2, 100, 1 << 40][trial % 4];
            let data: Vec<u64> = (0..n).map(|_| splitmix(&mut x) % modulus).collect();
            let mut want = data.clone();
            want.sort_unstable();
            for p in [&p1, &p4] {
                let mut got = data.clone();
                p.enter(|ctx| sort(ctx, &mut got, &mut Vec::new()));
                assert_eq!(got, want, "trial {trial} n={n} modulus={modulus}");
            }
        }
    }

    #[test]
    fn tiny_and_boundary_sizes() {
        let p = pool();
        for n in [0usize, 1, 2, 3, SPMS_SERIAL_CUTOFF, SPMS_SERIAL_CUTOFF + 1] {
            let mut x = n as u64 + 1;
            let data: Vec<u64> = (0..n).map(|_| splitmix(&mut x)).collect();
            let mut want = data.clone();
            want.sort_unstable();
            let mut got = data;
            p.enter(|ctx| sort(ctx, &mut got, &mut Vec::new()));
            assert_eq!(got, want, "n={n}");
        }
    }

    /// The input shapes that break a top-bits radix: ties on the window
    /// (clusters, few distinct high words, packed records), windows with
    /// one useful bit (`u64::MAX` sentinels), presorted and low-entropy
    /// keys — next to the two shapes the service and `bench_rt` draw.
    fn leaf_families(n: usize, x: &mut u64) -> Vec<(&'static str, Vec<u64>)> {
        let highs: Vec<u64> = (0..1000).map(|_| splitmix(x) >> 32 << 32).collect();
        let mut gen = |f: &mut dyn FnMut(usize, u64) -> u64| -> Vec<u64> {
            (0..n).map(|i| f(i, splitmix(x))).collect()
        };
        vec![
            ("uniform 64-bit", gen(&mut |_, r| r)),
            ("44-bit", gen(&mut |_, r| r >> 20)),
            ("below 2^20", gen(&mut |_, r| r & 0xf_ffff)),
            ("constant", gen(&mut |_, _| 7)),
            (
                "two clusters",
                gen(&mut |i, r| ((i as u64 & 1) << 63) | (r & 0xffff_ffff)),
            ),
            (
                "1000 high words",
                gen(&mut |_, r| highs[(r >> 40) as usize % 1000] | (r & 0xffff_ffff)),
            ),
            ("sorted", gen(&mut |i, _| i as u64)),
            ("reverse", gen(&mut |i, _| (n - i) as u64)),
            ("organ-pipe", gen(&mut |i, _| i.min(n - i) as u64)),
            ("sawtooth 17", gen(&mut |i, _| (i % 17) as u64)),
            (
                "every third MAX",
                gen(&mut |i, _| if i % 3 == 0 { u64::MAX } else { i as u64 }),
            ),
            (
                "packed records",
                gen(&mut |i, r| ((r % 1000) << 32) | i as u64),
            ),
            // The work bound's worst case: every digit of every level
            // resolves a single bit, 256 distinct keys.
            (
                "one bit per digit",
                gen(&mut |_, r| (0..8).fold(0, |k, d| k | ((r >> d & 1) << (9 * d)))),
            ),
        ]
    }

    /// Differential check of the leaf against `sort_unstable` at both
    /// parities, with the work bound: over all recursion levels a key is
    /// scattered at most [`RADIX_MAX_DIGITS`] times (what a full-width
    /// LSD radix pays on every 64-bit input), and no run longer than
    /// [`RADIX_SHORT_RUN`] is ever comparison-sorted.
    fn check_leaf(n: usize) {
        let mut x = n as u64;
        for (family, data) in leaf_families(n, &mut x) {
            let mut want = data.clone();
            want.sort_unstable();
            for into_scratch in [false, true] {
                let what = format!("{family}, n={n}, into_scratch={into_scratch}");
                let mut keys = data.clone();
                let mut scratch = vec![0u64; n];
                LEAF_WORK.with(|w| w.set((0, 0)));
                radix_sort_leaf(&mut keys, &mut scratch, into_scratch);
                let got = if into_scratch { &scratch } else { &keys };
                assert_eq!(got, &want, "{what}");
                let (moved, longest) = LEAF_WORK.with(|w| w.get());
                assert!(moved <= RADIX_MAX_DIGITS * n, "{what}: {moved} scatters");
                assert!(
                    longest <= RADIX_SHORT_RUN,
                    "{what}: insertion-sorted {longest}"
                );
                if family == "packed records" {
                    let mut payloads: Vec<u64> = got.iter().map(|v| v & 0xffff_ffff).collect();
                    payloads.sort_unstable();
                    assert!(payloads.iter().enumerate().all(|(i, &p)| p == i as u64));
                }
            }
        }
    }

    #[test]
    fn radix_leaf_matches_std_on_adversarial_families() {
        for n in [2usize, 3, 17, 2049, 5000] {
            check_leaf(n);
        }
    }

    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "leaf-scale families run in the release test job"
    )]
    fn radix_leaf_matches_std_at_leaf_scale() {
        check_leaf(SPMS_LEAF);
    }

    #[test]
    fn window_follows_n_not_the_key_width() {
        // Uniform keys: the scatter pass count is ⌈(⌈log₂ n⌉ + slack) / 9⌉
        // whether the keys are 64 or 44 bits wide.
        for (n, passes) in [(4096usize, 2usize), (20_000, 2), (70_000, 3)] {
            for narrow in [0u32, 20] {
                let mut x = 1u64;
                let mut keys: Vec<u64> = (0..n).map(|_| splitmix(&mut x) >> narrow).collect();
                let mut scratch = vec![0u64; n];
                LEAF_WORK.with(|w| w.set((0, 0)));
                // Even pass counts land in `data`, odd ones in `scratch`.
                radix_sort_leaf(&mut keys, &mut scratch, passes % 2 == 1);
                let moved = LEAF_WORK.with(|w| w.get().0);
                assert!(
                    (passes * n..passes * n + n / 8).contains(&moved),
                    "n={n} >> {narrow}: {moved} scatters"
                );
            }
        }
    }

    #[test]
    fn declared_footprint_covers_spms_working_set() {
        use registry::{footprint_words, record_kernel, Kernel};
        // The SB footprint admission control charges covers the real
        // path's peak working set at every size…
        for n in [
            1usize,
            100,
            SPMS_SERIAL_CUTOFF,
            SPMS_SERIAL_CUTOFF + 1,
            SPMS_LEAF,
            SPMS_LEAF + 1,
            1 << 20,
            (SPMS_LEAF * SPMS_MAX_WAYS) + 1,
            1 << 22,
        ] {
            let declared = footprint_words(Kernel::Sort, n);
            assert!(
                declared >= spms_working_set_words(n),
                "footprint {declared} < working set at n={n}"
            );
            assert!(declared >= 2 * n, "footprint must cover keys + scratch");
        }
        // …while the *recorded* MO sort program legitimately holds more
        // live (its per-level sample/count/distribution arrays): that
        // gap is the documented footprint exception the certify gate
        // audits — it must still be visible, or the exception is stale.
        let n = Kernel::Sort.recorded_n();
        let prog = record_kernel(Kernel::Sort, n, 1);
        let recorded = mo_core::certify::max_working_set(&prog);
        assert!(
            footprint_words(Kernel::Sort, n) < recorded,
            "recorded MO sort no longer exceeds the served footprint: \
             remove the exception in certify/exceptions.json"
        );
    }
}
