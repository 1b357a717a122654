//! Real-machine (wall-clock) counterparts of the MO algorithms, running
//! on the space-bound pool of [`mo_core::rt`].
//!
//! These are plain-Rust parallel implementations, served by the kernel
//! [`registry`] and timed by `bench_rt` against the naive/cache-aware
//! baselines. They keep the same algorithmic structure as the recorded
//! versions — space-bound driven fork–join recursion and CGC-style
//! contiguous chunking — but operate directly on slices. Safe-Rust
//! parallelism dictates the data decomposition: parallel splits always
//! follow row bands or contiguous ranges (`split_at_mut`), while
//! cache-oblivious recursion *within* a band is serial index arithmetic.
//!
//! Every kernel has one public entry, and it runs inside a pool context:
//! a caller holding a pool writes `pool.enter(|ctx| real::sort(ctx, …))`,
//! and a server batch runs many under one `enter`. The entry is what the
//! kernel's registry row calls, so it is the served code. No entry
//! re-enters the pool or keeps anything between calls; [`fft`] alone
//! also runs with no pool (`None`: both halves on the calling thread).

use crate::dispatch;
use mo_core::rt::{Ctx, Jobs};
use no_framework::dispatch::Arm;
use std::sync::OnceLock;

pub mod registry;
pub mod spms;

pub use spms::{
    sort, spms_with_params, spms_working_set_words, SpmsParams, SPMS_LEAF, SPMS_SERIAL_CUTOFF,
};

/// Out-of-place matrix transposition (`n × n`, row-major): CGC-style
/// row-band parallelism with a serial 8 × 8-tiled kernel per band.
pub fn transpose(ctx: &Ctx<'_>, a: &[f64], out: &mut [f64], n: usize) {
    assert_eq!(a.len(), n * n);
    assert_eq!(out.len(), n * n);
    if n > 0 {
        // out[j][i] = a[i][j]: parallelize over bands of out rows (j ranges).
        band_transpose(ctx, a, out, n, 0);
    }
}

/// Tile side of [`band_transpose`]'s base case: one 64-byte line of `f64`.
const TILE: usize = 8;

fn band_transpose(ctx: &Ctx<'_>, a: &[f64], out: &mut [f64], n: usize, j0: usize) {
    let rows = out.len() / n;
    let space = 2 * out.len();
    if rows > 32 {
        let mid = rows / 2;
        let (top, bot) = out.split_at_mut(mid * n);
        ctx.join(
            space / 2,
            |c| band_transpose(c, a, top, n, j0),
            space / 2,
            |c| band_transpose(c, a, bot, n, j0 + mid),
        );
        return;
    }
    // Serial base case: TILE × TILE tiles moved through a local buffer,
    // so every source line and every destination line is touched once,
    // as a whole line. (A direct column scatter would advance each store
    // by `n` words; at n = 256/512 the band's live destination lines sit
    // 2–4 KiB apart and alias into one or two L1 sets.) The last tile of
    // a row or column is ragged when `n` or `rows` is no multiple of 8.
    for d0 in (0..rows).step_by(TILE) {
        let tw = TILE.min(rows - d0);
        for i0 in (0..n).step_by(TILE) {
            let th = TILE.min(n - i0);
            let (src, dst) = (&a[i0 * n + j0 + d0..], &mut out[d0 * n + i0..]);
            if th == TILE && tw == TILE {
                // Constant extents: the copies unroll into whole-line moves.
                transpose_tile(src, dst, n, TILE, TILE);
            } else {
                transpose_tile(src, dst, n, th, tw);
            }
        }
    }
}

/// `dst[c][r] = src[r][c]` for `r < th`, `c < tw` (both ≤ [`TILE`]; row
/// stride `n` on both sides), through a local buffer.
#[inline(always)]
fn transpose_tile(src: &[f64], dst: &mut [f64], n: usize, th: usize, tw: usize) {
    let mut tile = [0.0f64; TILE * TILE];
    for r in 0..th {
        tile[r * TILE..r * TILE + tw].copy_from_slice(&src[r * n..r * n + tw]);
    }
    for c in 0..tw {
        for (r, v) in dst[c * n..c * n + th].iter_mut().enumerate() {
            *v = tile[r * TILE + c];
        }
    }
}

/// `C += A·B` (row-major `n × n`): parallel row-band split with a
/// serial cache-oblivious `(j, k)` recursion inside each band.
pub fn matmul(ctx: &Ctx<'_>, c: &mut [f64], a: &[f64], b: &[f64], n: usize) {
    assert_eq!(c.len(), n * n);
    assert_eq!(a.len(), n * n);
    assert_eq!(b.len(), n * n);
    if n > 0 {
        mm_rows(ctx, c, a, b, n);
    }
}

fn mm_rows(ctx: &Ctx<'_>, c: &mut [f64], a: &[f64], b: &[f64], n: usize) {
    let rows = c.len() / n;
    if rows > 32 {
        let mid = rows / 2;
        let (ct, cb) = c.split_at_mut(mid * n);
        let (at, ab) = a.split_at(mid * n);
        let space = 4 * rows * n;
        ctx.join(
            space / 2,
            |cx| mm_rows(cx, ct, at, b, n),
            space / 2,
            |cx| mm_rows(cx, cb, ab, b, n),
        );
        return;
    }
    mm_serial(c, a, b, n, rows, 0, n, 0, n);
}

/// Serial recursive kernel over the `(j, k)` plane (cache-oblivious
/// splitting of the larger dimension) down to blocks of at most 64 × 64,
/// each run by [`dispatch::mm_block`]: register tiles of `C` that
/// accumulate their whole `k` range in ascending order, so results stay
/// bit-identical to the naive i-k-j loop and independent of the
/// recursion shape above.
#[allow(clippy::too_many_arguments)] // plane coordinates, not config
fn mm_serial(
    c: &mut [f64],
    a: &[f64],
    b: &[f64],
    n: usize,
    rows: usize,
    j0: usize,
    jw: usize,
    k0: usize,
    kw: usize,
) {
    const BLK: usize = 64;
    if jw <= BLK && kw <= BLK {
        dispatch::mm_block(Arm::widest(), c, a, b, n, (rows, j0, jw, k0, kw));
        return;
    }
    if jw >= kw {
        let h = jw / 2;
        mm_serial(c, a, b, n, rows, j0, h, k0, kw);
        mm_serial(c, a, b, n, rows, j0 + h, jw - h, k0, kw);
    } else {
        let h = kw / 2;
        mm_serial(c, a, b, n, rows, j0, jw, k0, h);
        mm_serial(c, a, b, n, rows, j0, jw, k0 + h, kw - h);
    }
}

/// Floyd–Warshall: for each `k`, row `k` is snapshotted and all rows
/// update in parallel CGC bands (the classic row-parallel FW). The `n`
/// band sweeps run one after the other in the caller's context.
pub fn floyd_warshall(ctx: &Ctx<'_>, x: &mut [f64], n: usize) {
    assert_eq!(x.len(), n * n);
    let mut rowk = vec![0.0f64; n];
    for k in 0..n {
        rowk.copy_from_slice(&x[k * n..(k + 1) * n]);
        fw_bands(ctx, x, &rowk, n, k);
    }
}

fn fw_bands(ctx: &Ctx<'_>, x: &mut [f64], rowk: &[f64], n: usize, k: usize) {
    let rows = x.len() / n;
    if rows > 64 {
        let mid = rows / 2;
        let (top, bot) = x.split_at_mut(mid * n);
        let space = 2 * rows * n;
        ctx.join(
            space / 2,
            |c| fw_bands(c, top, rowk, n, k),
            space / 2,
            |c| fw_bands(c, bot, rowk, n, k),
        );
        return;
    }
    dispatch::fw_rows(Arm::widest(), x, rowk, k);
}

/// One band's rows of a Floyd–Warshall step `k`: `x[i,j] ←
/// min(x[i,j], x[i,k] + rowk[j])`, rows whose `x[i,k]` is not finite
/// skipped. Always inlined, so that each arm of [`dispatch::fw_rows`]
/// compiles it for its instruction set; the select is exact on every
/// input.
#[inline(always)]
pub(crate) fn fw_rows(x: &mut [f64], rowk: &[f64], k: usize) {
    for row in x.chunks_exact_mut(rowk.len()) {
        let dik = row[k];
        if dik.is_finite() {
            for (dv, &dkj) in row.iter_mut().zip(rowk) {
                let via = dik + dkj;
                if via < *dv {
                    *dv = via;
                }
            }
        }
    }
}

/// Exclusive prefix sum (wrapping u64) by block-scan: per-block totals,
/// a tiny serial combine, then per-block scans seeded by the block
/// offsets. The 16-way split is fixed — like every kernel here it reads
/// no machine parameter, and the pool decides from the declared
/// `2·block` words how many of the blocks run in parallel.
pub fn prefix_sum(ctx: &Ctx<'_>, a: &mut [u64]) {
    let block = a.len().div_ceil(16).max(1024);
    if a.len() <= block {
        serial_exclusive(a, 0);
        return;
    }
    let jobs: Jobs<'_, u64> = a
        .chunks(block)
        .map(|chunk| {
            Box::new(move |_: &Ctx<'_>| chunk.iter().fold(0u64, |s, &v| s.wrapping_add(v))) as _
        })
        .collect();
    let mut bases = ctx.join_all(2 * block, jobs);
    serial_exclusive(&mut bases, 0);
    let jobs: Jobs<'_, ()> = a
        .chunks_mut(block)
        .zip(bases)
        .map(|(chunk, base)| Box::new(move |_: &Ctx<'_>| serial_exclusive(chunk, base)) as _)
        .collect();
    ctx.join_all(2 * block, jobs);
}

/// SpM-DV (`y = A·x`) over a CSR matrix: SB fork–join over row bands,
/// with the space bound computed exactly from the row offsets — the
/// real-machine counterpart of [`crate::spmdv::mo_spmdv`]'s
/// `2m + 1 + 3·nnz` accounting (2 words per stored nonzero: column
/// index + value, plus at most one `x` word per nonzero, plus the `y`
/// segment and offset slice).
pub fn spmdv(
    ctx: &Ctx<'_>,
    row_ptr: &[usize],
    cols: &[usize],
    vals: &[f64],
    x: &[f64],
    y: &mut [f64],
) {
    let m = y.len();
    assert_eq!(row_ptr.len(), m + 1);
    assert_eq!(cols.len(), vals.len());
    assert_eq!(row_ptr[m], cols.len());
    if m == 0 {
        return;
    }
    spmdv_rows(ctx, row_ptr, cols, vals, x, y, 0);
}

fn spmdv_rows(
    ctx: &Ctx<'_>,
    row_ptr: &[usize],
    cols: &[usize],
    vals: &[f64],
    x: &[f64],
    y: &mut [f64],
    r0: usize,
) {
    let rows = y.len();
    if rows > 64 {
        let mid = rows / 2;
        let (yt, yb) = y.split_at_mut(mid);
        let nnz_t = row_ptr[r0 + mid] - row_ptr[r0];
        let nnz_b = row_ptr[r0 + rows] - row_ptr[r0 + mid];
        ctx.join(
            2 * mid + 1 + 3 * nnz_t,
            |c| spmdv_rows(c, row_ptr, cols, vals, x, yt, r0),
            2 * (rows - mid) + 1 + 3 * nnz_b,
            |c| spmdv_rows(c, row_ptr, cols, vals, x, yb, r0 + mid),
        );
        return;
    }
    for (i, yi) in y.iter_mut().enumerate() {
        let r = r0 + i;
        let mut acc = 0.0;
        for k in row_ptr[r]..row_ptr[r + 1] {
            acc += vals[k] * x[cols[k]];
        }
        *yi = acc;
    }
}

/// Exclusive wrapping prefix sum of `a`, continuing from `base`.
fn serial_exclusive(a: &mut [u64], base: u64) {
    let mut acc = base;
    for v in a.iter_mut() {
        let nv = acc.wrapping_add(*v);
        *v = acc;
        acc = nv;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gep::matmul_reference;
    use mo_core::rt::{HwHierarchy, SbPool};
    use no_framework::gep::{fw_update, gep_reference, UpdateSet};

    fn pool() -> SbPool {
        SbPool::new(HwHierarchy::flat(4, 1 << 12, 1 << 22))
    }

    fn rand_vec(n: usize, seed: u64) -> Vec<f64> {
        let mut x = seed | 1;
        (0..n)
            .map(|_| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((x >> 40) as f64) / 65536.0
            })
            .collect()
    }

    #[test]
    fn transpose_matches_naive() {
        let p = pool();
        // Whole tiles, ragged tiles on either edge, and sizes that fork.
        for n in [1usize, 7, 37, 96, 100, 256] {
            let a = rand_vec(n * n, 1);
            let mut out = vec![0.0; n * n];
            p.enter(|ctx| transpose(ctx, &a, &mut out, n));
            for i in 0..n {
                for j in 0..n {
                    assert_eq!(out[j * n + i], a[i * n + j], "n={n} ({i}, {j})");
                }
            }
        }
        // A band that starts inside the matrix: out rows 5..18 of n = 37.
        let (n, j0, rows) = (37usize, 5usize, 13usize);
        let a = rand_vec(n * n, 2);
        let mut band = vec![0.0; rows * n];
        p.enter(|ctx| band_transpose(ctx, &a, &mut band, n, j0));
        for dj in 0..rows {
            for i in 0..n {
                assert_eq!(band[dj * n + i], a[i * n + j0 + dj], "band ({dj}, {i})");
            }
        }
    }

    /// The served matmul runs GEP's register-tiled leaf on 64 × 64
    /// blocks at the host's widest arm: at sizes no tile, block or band
    /// divides, on a width-1 and a width-2 pool, it gives the naive i-k-j
    /// loop's bits.
    #[test]
    fn matmul_matches_the_reference_bit_for_bit_at_ragged_sizes() {
        let pools = [1, 2].map(|width| SbPool::new(HwHierarchy::flat(width, 1 << 12, 1 << 22)));
        for n in [1usize, 2, 3, 5, 17, 33, 65, 96, 97, 160, 256] {
            let a = rand_vec(n * n, 2);
            let b = rand_vec(n * n, 3);
            let want: Vec<u64> = matmul_reference(&a, &b, n)
                .iter()
                .map(|v| v.to_bits())
                .collect();
            for (width, p) in pools.iter().enumerate() {
                let mut c = vec![0.0; n * n];
                p.enter(|ctx| matmul(ctx, &mut c, &a, &b, n));
                let got: Vec<u64> = c.iter().map(|v| v.to_bits()).collect();
                assert!(got == want, "n = {n}, width {}", width + 1);
            }
        }
    }

    #[test]
    fn floyd_warshall_matches_reference() {
        let n = 48;
        let d = no_framework::gep::fw_instance(n, 7);
        let mut want = d.clone();
        gep_reference(&mut want, n, fw_update, UpdateSet::All);
        let p = pool();
        let mut got = d.clone();
        p.enter(|ctx| floyd_warshall(ctx, &mut got, n));
        assert_eq!(got, want);
    }

    #[test]
    fn prefix_sum_matches_serial() {
        for n in [0usize, 1, 100, 5000, 50_000] {
            let src: Vec<u64> = (0..n as u64).map(|x| x % 97 + 1).collect();
            let mut par = src.clone();
            let p = pool();
            p.enter(|ctx| prefix_sum(ctx, &mut par));
            let mut ser = src.clone();
            serial_exclusive(&mut ser, 0);
            assert_eq!(par, ser, "n = {n}");
        }
    }

    #[test]
    fn sort_matches_std() {
        for n in [0usize, 10, 2048, 2049, 30_000] {
            let mut x = 99u64;
            let mut data: Vec<u64> = (0..n)
                .map(|_| {
                    x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                    x >> 30
                })
                .collect();
            let mut want = data.clone();
            want.sort_unstable();
            let p = pool();
            p.enter(|ctx| sort(ctx, &mut data, &mut Vec::new()));
            assert_eq!(data, want, "n = {n}");
        }
    }

    #[test]
    fn spmdv_matches_dense_reference() {
        for m in [1usize, 17, 200, 1000] {
            // Deterministic sparse matrix: ~5 nonzeros per row.
            let mut x = 11u64 + m as u64;
            let mut row_ptr = vec![0usize];
            let mut cols = Vec::new();
            let mut vals = Vec::new();
            for _ in 0..m {
                let deg = 1 + (x % 5) as usize;
                for _ in 0..deg {
                    x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                    cols.push(((x >> 33) as usize) % m);
                    vals.push(((x >> 20) % 100) as f64 * 0.25);
                }
                row_ptr.push(cols.len());
            }
            let vin: Vec<f64> = (0..m).map(|i| (i as f64 * 0.1).sin()).collect();
            let mut want = vec![0.0f64; m];
            for r in 0..m {
                for k in row_ptr[r]..row_ptr[r + 1] {
                    want[r] += vals[k] * vin[cols[k]];
                }
            }
            let p = pool();
            let mut got = vec![0.0f64; m];
            p.enter(|ctx| spmdv(ctx, &row_ptr, &cols, &vals, &vin, &mut got));
            for r in 0..m {
                assert!((got[r] - want[r]).abs() < 1e-9, "m={m} r={r}");
            }
        }
    }

    #[test]
    fn sort_handles_duplicates() {
        let mut data: Vec<u64> = (0..10_000).map(|i| (i % 5) as u64).collect();
        let mut want = data.clone();
        want.sort_unstable();
        let p = pool();
        p.enter(|ctx| sort(ctx, &mut data, &mut Vec::new()));
        assert_eq!(data, want);
    }

    /// An empty input is a no-op at every entry (the transpose and
    /// matmul band recursions divide by the side `n`).
    #[test]
    fn every_entry_is_a_no_op_at_size_zero() {
        let p = pool();
        p.enter(|ctx| {
            transpose(ctx, &[], &mut [], 0);
            matmul(ctx, &mut [], &[], &[], 0);
            floyd_warshall(ctx, &mut [], 0);
            prefix_sum(ctx, &mut []);
            spmdv(ctx, &[0], &[], &[], &[], &mut []);
            sort(ctx, &mut [], &mut Vec::new());
            fft(Some(ctx), &mut [], &mut Vec::new());
        });
        fft(None, &mut [], &mut Vec::new());
    }
}

/// A complex sample for the real FFT kernels.
pub type C64 = (f64, f64);

#[inline(always)]
fn cmul(a: C64, b: C64) -> C64 {
    (a.0 * b.0 - a.1 * b.1, a.0 * b.1 + a.1 * b.0)
}

/// `ω_n^k = e^(−2πi·k/n)`, `k < n`, from one `sin_cos`: what every table
/// entry below is built from, and the per-block factor of the combine.
/// Whole quarter turns are taken out in integers, so the angle that is
/// rounded lies below π/2 and the root is good to 2.5e-16 at every `k`
/// (`cos`/`sin` of `−2πk/n` directly: 4.7e-16 towards the half turn).
fn root_of_unity(n: usize, k: usize) -> C64 {
    let (quarters, rest) = (4 * k / n, 4 * k % n);
    let (s, c) = (std::f64::consts::FRAC_PI_2 * rest as f64 / n as f64).sin_cos();
    match quarters {
        0 => (c, -s),
        1 => (-s, -c),
        2 => (-c, s),
        _ => (s, c),
    }
}

/// Recursion cutoff of the FFT: a transform at or below this size is one
/// [`fft_leaf`] — 32 KiB of samples and pass tables, L1-resident, no
/// deinterleave copy; above it [`fft_rec`] splits.
pub(crate) const FFT_LEAF: usize = 1024;

/// The leaf's twiddles: for each pass length `len` = 2, 4, … `FFT_LEAF`
/// the `len / 2` roots `ω_len^k`, laid back to back (pass `len` starts
/// at `len / 2 − 1`). `FFT_LEAF − 1` entries = 16 KiB, built once per
/// process and shared read-only by every job, like code. Each pass zips
/// its slice with the two half-blocks, so a butterfly is 10 flops that
/// wait on no other butterfly; the recurrence `w ← w·ω_len` this
/// replaces put a complex multiply's latency between consecutive
/// butterflies and read 21.0 µs at n = 1024 where the table reads
/// 10.1 µs. Measured beside it: pairs of passes fused in place
/// (radix-2²) 9.4 µs — not worth a second loop; a split re/im layout
/// 12.5 µs with its conversions.
static FFT_PASSES: OnceLock<Vec<C64>> = OnceLock::new();

/// Twiddles of one combine step are `ω_n^(B·b + j) = ω_n^(B·b) · ω_n^j`
/// for blocks of `B = FFT_BLOCK` butterflies: the first factor is one
/// `sin_cos` per block, the second a table per level.
pub(crate) const FFT_BLOCK: usize = 64;

/// `FFT_LO[log₂ n][j] = ω_n^j`, `j < FFT_BLOCK`: 1 KiB per level of the
/// recursion, built when a transform first reaches that level (levels
/// up to `log₂ FFT_LEAF` never are). Rebuilding it per node instead — 64
/// `sin_cos` — costs 3 % of a transform at 4 096 … 65 536.
static FFT_LO: [OnceLock<[C64; FFT_BLOCK]>; usize::BITS as usize] =
    [const { OnceLock::new() }; usize::BITS as usize];

/// Recursive FFT (`Y[i] = Σ_j X[j]·ω_n^{ij}`, `ω_n = e^(−2πi/n)`, in
/// place, `n` a power of two): even/odd split into a scratch buffer, the
/// two halves recurse in parallel under SB space bounds, butterflies
/// combine. `ctx` is where the halves' forks go; with `None` they run one
/// after the other on the calling thread. The pool decides where the
/// halves run and nothing else: the result is the same bits on every
/// pool and with `None`.
///
/// `scratch` is caller-owned, so repeated transforms can reuse one
/// allocation. A buffer shorter than `n` is replaced by a zeroed one of
/// `n` samples (never for `n ≤ FFT_LEAF`); its contents on return are
/// unspecified.
pub fn fft(ctx: Option<&Ctx<'_>>, x: &mut [C64], scratch: &mut Vec<C64>) {
    let n = x.len();
    if n <= 1 {
        return;
    }
    assert!(n.is_power_of_two());
    if n > FFT_LEAF && scratch.len() < n {
        *scratch = vec![(0.0, 0.0); n];
    }
    fft_rec(ctx, x, scratch);
}

/// `scratch` holds at least `x.len()` samples unless `x` is a leaf.
fn fft_rec(ctx: Option<&Ctx<'_>>, x: &mut [C64], scratch: &mut [C64]) {
    let n = x.len();
    if n <= FFT_LEAF {
        return dispatch::fft_leaf(Arm::widest(), x);
    }
    let half = n / 2;
    let (se, so) = scratch[..n].split_at_mut(half);
    // Deinterleave into scratch: evens first, odds second.
    for ((pair, e), o) in x.chunks_exact(2).zip(&mut *se).zip(&mut *so) {
        (*e, *o) = (pair[0], pair[1]);
    }
    let (xl, xh) = x.split_at_mut(half);
    // Recurse with roles swapped (scratch holds the data, x is free).
    match ctx {
        Some(ctx) => {
            ctx.join(
                4 * half,
                |c| fft_rec(Some(c), se, xl),
                4 * half,
                |c| fft_rec(Some(c), so, xh),
            );
        }
        None => {
            fft_rec(None, se, xl);
            fft_rec(None, so, xh);
        }
    }
    dispatch::fft_combine(Arm::widest(), &scratch[..n], x);
}

/// The butterflies that combine the transforms of the even and the odd
/// samples, `halves = evens ‖ odds`, into the transform `x` of them all
/// (`n = x.len()`, a power of two with `n / 2 ≥ FFT_BLOCK`), a block of
/// [`FFT_BLOCK`] butterflies at a time: no twiddle is computed from
/// another butterfly's. Always inlined, so that each arm of
/// [`dispatch::fft_combine`] compiles it for its instruction set.
#[inline(always)]
pub(crate) fn fft_combine(halves: &[C64], x: &mut [C64]) {
    let n = x.len();
    let (se, so) = halves.split_at(n / 2);
    let (xl, xh) = x.split_at_mut(n / 2);
    let lo = FFT_LO[n.trailing_zeros() as usize]
        .get_or_init(|| std::array::from_fn(|j| root_of_unity(n, j)));
    let blocks = se
        .chunks_exact(FFT_BLOCK)
        .zip(so.chunks_exact(FFT_BLOCK))
        .zip(xl.chunks_exact_mut(FFT_BLOCK))
        .zip(xh.chunks_exact_mut(FFT_BLOCK));
    for (b, (((es, os), ls), hs)) in blocks.enumerate() {
        let hi = root_of_unity(n, FFT_BLOCK * b);
        for ((((e, o), l), h), &w) in es.iter().zip(os).zip(ls).zip(hs).zip(lo) {
            let o = cmul(cmul(hi, w), *o);
            *l = (e.0 + o.0, e.1 + o.1);
            *h = (e.0 - o.0, e.1 - o.1);
        }
    }
}

/// Bit-reversal permutation of `n ≥ 2` samples, `n` a power of two.
#[inline(always)]
fn bit_reverse(x: &mut [C64]) {
    let n = x.len();
    let bits = n.trailing_zeros();
    for i in 0..n {
        let j = (i.reverse_bits() >> (usize::BITS - bits)) & (n - 1);
        if i < j {
            x.swap(i, j);
        }
    }
}

/// Iterative radix-2 transform of `2 ≤ n ≤ FFT_LEAF` samples in place:
/// bit reversal, then `log₂ n` butterfly passes over [`FFT_PASSES`].
/// Always inlined, so that each arm of [`dispatch::fft_leaf`] compiles
/// it for its instruction set.
#[inline(always)]
pub(crate) fn fft_leaf(x: &mut [C64]) {
    let n = x.len();
    bit_reverse(x);
    let passes = FFT_PASSES.get_or_init(|| {
        let lens = (1..=FFT_LEAF.trailing_zeros()).map(|log| 1usize << log);
        lens.flat_map(|len| (0..len / 2).map(move |k| root_of_unity(len, k)))
            .collect()
    });
    let mut half = 1;
    while half < n {
        let twiddles = &passes[half - 1..2 * half - 1];
        for block in x.chunks_exact_mut(2 * half) {
            let (lo, hi) = block.split_at_mut(half);
            for ((e, o), &w) in lo.iter_mut().zip(hi).zip(twiddles) {
                let (a, b) = (*e, cmul(w, *o));
                *e = (a.0 + b.0, a.1 + b.1);
                *o = (a.0 - b.0, a.1 - b.1);
            }
        }
        half *= 2;
    }
}

#[cfg(test)]
mod fft_tests {
    use super::registry::{Gen, Kernel};
    use super::*;
    use mo_core::rt::{HwHierarchy, SbPool};

    fn pool(cores: usize) -> SbPool {
        SbPool::new(HwHierarchy::flat(cores, 1 << 10, 1 << 22))
    }

    /// The entry inside one `enter` of `pool`, with a fresh scratch.
    fn fft_on(pool: &SbPool, x: &mut [C64]) {
        pool.enter(|ctx| fft(Some(ctx), x, &mut Vec::new()));
    }

    /// The input of served job `(fft, n, seed)`, as the registry row draws it.
    fn served_input(n: usize, seed: u64) -> Vec<C64> {
        Gen::for_job(Kernel::Fft, seed).complex(n)
    }

    /// `ω_n^m = e^(−2πi·m/n)` for the references below: the angle is
    /// folded into the first octant in integers before anything is
    /// rounded, so the root is good to an ulp or two at every `m`.
    fn omega(n: usize, m: usize) -> C64 {
        let eighths = 8 * (m % n);
        let (octant, rest) = (eighths / n, eighths % n);
        let from_axis = if octant % 2 == 0 { rest } else { n - rest };
        let (s, c) = (std::f64::consts::FRAC_PI_4 * from_axis as f64 / n as f64).sin_cos();
        let (cos, sin) = match octant {
            0 => (c, s),
            1 => (s, c),
            2 => (-s, c),
            3 => (-c, s),
            4 => (-c, -s),
            5 => (-s, -c),
            6 => (s, -c),
            _ => (c, -s),
        };
        (cos, -sin)
    }

    fn roots(n: usize) -> Vec<C64> {
        (0..n).map(|m| omega(n, m)).collect()
    }

    #[test]
    fn reference_roots_are_the_textbook_ones() {
        for n in [1usize, 2, 4, 8, 16, 8192] {
            for (m, got) in roots(n).into_iter().enumerate() {
                let ang = -2.0 * std::f64::consts::PI * m as f64 / n as f64;
                let err = (got.0 - ang.cos()).hypot(got.1 - ang.sin());
                assert!(err <= 1e-15, "n={n} m={m}: {err:e}");
            }
        }
        assert_eq!(omega(4, 1), (0.0, -1.0));
        assert_eq!(omega(2, 3), (-1.0, 0.0));
    }

    /// Output `k` of the DFT as the direct sum `Σ_j x_j·ω_n^((k·j) mod n)`,
    /// Kahan-summed.
    fn dft_at(x: &[C64], roots: &[C64], k: usize) -> C64 {
        let (mut sum, mut lost) = ((0.0, 0.0), (0.0, 0.0));
        for (j, &v) in x.iter().enumerate() {
            let t = cmul(v, roots[(k * j) % x.len()]);
            let y = (t.0 - lost.0, t.1 - lost.1);
            let s = (sum.0 + y.0, sum.1 + y.1);
            lost = ((s.0 - sum.0) - y.0, (s.1 - sum.1) - y.1);
            sum = s;
        }
        sum
    }

    fn max_abs(x: &[C64]) -> f64 {
        x.iter().map(|c| c.0.hypot(c.1)).fold(0.0, f64::max)
    }

    /// Worst `|X_k − Σ_j x_j·ω_n^(kj)| / max|X|` over every `k` up to
    /// `n = 64` and 64 seeded ones above — of the entry with no pool,
    /// which the entry on a 1-core and on a 4-core pool must equal bit
    /// for bit.
    fn worst_error(n: usize) -> f64 {
        let input = served_input(n, n as u64);
        let mut x = input.clone();
        fft(None, &mut x, &mut Vec::new());
        let bits = |x: &[C64]| -> Vec<(u64, u64)> {
            x.iter().map(|c| (c.0.to_bits(), c.1.to_bits())).collect()
        };
        let serial = bits(&x);
        for cores in [1, 4] {
            let mut on_pool = input.clone();
            fft_on(&pool(cores), &mut on_pool);
            assert!(bits(&on_pool) == serial, "n = {n} on {cores} cores");
        }
        let roots = roots(n);
        let mut pick = Gen::for_job(Kernel::Fft, !(n as u64));
        let mut worst = 0.0f64;
        for i in 0..n.min(64) {
            let k = match i {
                _ if n <= 64 => i,
                0..=3 => [0, 1, n / 2, n - 1][i],
                _ => pick.next() as usize % n,
            };
            let want = dft_at(&input, &roots, k);
            worst = worst.max((x[k].0 - want.0).hypot(x[k].1 - want.1));
        }
        worst / max_abs(&x)
    }

    /// Bound on [`worst_error`]. The `w ← w·ω_len` recurrence this
    /// transform replaced read up to 6.1e-15 (serially, at 2¹⁷) and was
    /// held to 1e-14; the table transform reads at most 2.3e-16.
    const REFERENCE_TOLERANCE: f64 = 1e-15;

    fn assert_matches_direct_sum(sizes: std::ops::RangeInclusive<u32>) {
        for log in sizes {
            let worst = worst_error(1 << log);
            assert!(worst <= REFERENCE_TOLERANCE, "n = 2^{log}: {worst:e}");
        }
    }

    #[test]
    fn every_pool_matches_the_direct_sum_on_both_sides_of_the_leaf() {
        assert_matches_direct_sum(0..=15);
    }

    #[test]
    #[cfg_attr(debug_assertions, ignore = "64 direct sums over 2^17 terms")]
    fn every_pool_matches_the_direct_sum_at_the_l2_anchored_sizes() {
        assert_matches_direct_sum(16..=17);
    }

    #[test]
    fn impulse_parseval_and_double_transform_hold_around_the_leaf() {
        let pl = pool(4);
        for n in [FFT_LEAF, 2 * FFT_LEAF, 8 * FFT_LEAF] {
            // A unit impulse at `p` transforms to the twiddle column
            // `ω_n^(p·k)`. Position 1 is odd at the top level only, so
            // its column is the combine's (the last pass's) twiddles as
            // they are; `n − 1` is odd at every level and multiplies
            // `log₂ n` of them up. (The recurrence read 3.0e-14.)
            for (p, tolerance) in [(1, 1e-15), (n / 2 + 3, 1e-15), (n - 1, 2e-15)] {
                let mut x = vec![(0.0, 0.0); n];
                x[p] = (1.0, 0.0);
                fft_on(&pl, &mut x);
                for (k, got) in x.iter().enumerate() {
                    let want = omega(n, p * k);
                    let err = (got.0 - want.0).hypot(got.1 - want.1);
                    assert!(err <= tolerance, "n={n} p={p} k={k}: {err:e}");
                }
            }
            let input = served_input(n, 7);
            let energy = |x: &[C64]| x.iter().map(|c| c.0 * c.0 + c.1 * c.1).sum::<f64>();
            let mut x = input.clone();
            fft_on(&pl, &mut x);
            // Parseval: Σ|X_k|² = n·Σ|x_j|².
            let (time, freq) = (n as f64 * energy(&input), energy(&x));
            assert!(((freq - time) / time).abs() <= 1e-12, "n={n}: Parseval");
            // Forward, conjugate, forward: conj(n·x).
            for c in &mut x {
                c.1 = -c.1;
            }
            fft_on(&pl, &mut x);
            let scale = n as f64 * max_abs(&input);
            for (j, (got, x)) in x.iter().zip(&input).enumerate() {
                let err = (got.0 - n as f64 * x.0).hypot(-got.1 - n as f64 * x.1);
                assert!(err <= 1e-12 * scale, "n={n} j={j}: {err:e}");
            }
        }
    }

    /// The transform as it was served until PR 20: every twiddle of a
    /// pass the previous one times `ω_len` — the differential partner.
    fn recurrence_fft(x: &mut [C64]) {
        let n = x.len();
        bit_reverse(x);
        let mut len = 2;
        while len <= n {
            let ang = -2.0 * std::f64::consts::PI / len as f64;
            let wl = (ang.cos(), ang.sin());
            for base in (0..n).step_by(len) {
                let mut w = (1.0, 0.0);
                for k in 0..len / 2 {
                    let e = x[base + k];
                    let o = cmul(w, x[base + k + len / 2]);
                    x[base + k] = (e.0 + o.0, e.1 + o.1);
                    x[base + k + len / 2] = (e.0 - o.0, e.1 - o.1);
                    w = cmul(w, wl);
                }
            }
            len *= 2;
        }
    }

    #[test]
    fn agrees_with_the_recurrence_transform_it_replaced() {
        let pl = pool(4);
        for n in (1..=13).map(|log| 1usize << log) {
            let mut old = served_input(n, 3);
            let mut new = old.clone();
            recurrence_fft(&mut old);
            fft_on(&pl, &mut new);
            let dist: f64 = old
                .iter()
                .zip(&new)
                .map(|(a, b)| (a.0 - b.0).powi(2) + (a.1 - b.1).powi(2))
                .sum();
            let norm: f64 = old.iter().map(|c| c.0 * c.0 + c.1 * c.1).sum();
            let rel = (dist / norm).sqrt();
            assert!(rel <= 1e-13, "n={n}: relative L2 distance {rel:e}");
        }
    }

    #[test]
    fn parallel_matches_recorded_mo_fft() {
        let n = 512;
        let input: Vec<C64> = (0..n).map(|t| ((t as f64).sin(), 0.0)).collect();
        let mo = crate::fft::fft_program(&input).output();
        let mut real = input.clone();
        fft_on(&pool(4), &mut real);
        for k in 0..n {
            assert!((mo[k].0 - real[k].0).abs() < 1e-6, "k={k}");
            assert!((mo[k].1 - real[k].1).abs() < 1e-6, "k={k}");
        }
    }
}
