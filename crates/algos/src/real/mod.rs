//! Real-machine (wall-clock) counterparts of the MO algorithms, running
//! on the space-bound pool of [`mo_core::rt`].
//!
//! These are plain-Rust parallel implementations used by the Criterion
//! benches to compare against the naive/cache-aware baselines. They keep
//! the same algorithmic structure as the recorded versions — space-bound
//! driven fork–join recursion and CGC-style contiguous chunking — but
//! operate directly on slices. Safe-Rust parallelism dictates the data
//! decomposition: parallel splits always follow row bands or contiguous
//! ranges (`split_at_mut`), while cache-oblivious recursion *within* a
//! band is serial index arithmetic.

use mo_core::rt::{Ctx, Jobs, SbPool};

pub mod registry;
pub mod spms;

pub use spms::{
    par_sort, par_sort_with_scratch, spms_sort_in_ctx, spms_working_set_words, SpmsParams,
    SPMS_LEAF, SPMS_MAX_WAYS, SPMS_SERIAL_CUTOFF,
};

/// Parallel out-of-place matrix transposition (`n × n`, row-major):
/// CGC-style row-band parallelism with a serial 8 × 8-tiled kernel per
/// band.
pub fn par_transpose(pool: &SbPool, a: &[f64], out: &mut [f64], n: usize) {
    assert_eq!(a.len(), n * n);
    assert_eq!(out.len(), n * n);
    // out[j][i] = a[i][j]: parallelize over bands of out rows (j ranges).
    pool.run(|ctx| {
        band_transpose(ctx, a, out, n, 0);
    });
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

/// Parallel `C += A·B` (row-major `n × n`): parallel row-band split with
/// a serial cache-oblivious `(j, k)` recursion inside each band.
pub fn par_matmul(pool: &SbPool, c: &mut [f64], a: &[f64], b: &[f64], n: usize) {
    assert_eq!(c.len(), n * n);
    assert_eq!(a.len(), n * n);
    assert_eq!(b.len(), n * n);
    pool.run(|ctx| mm_rows(ctx, c, a, b, n));
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
/// splitting of the larger dimension) with a register-blocked base case.
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
        mm_kernel(c, a, b, n, rows, j0, jw, k0, kw);
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

/// Register-blocked `C[0..rows][j0..j0+jw] += A[0..rows][k0..k0+kw] ·
/// B[k0..k0+kw][j0..j0+jw]`: 2-row × 4-column tiles whose accumulators
/// live in registers across the entire `k` sweep, so each `c` element
/// is loaded and stored once per block instead of once per `k`, and
/// each `a[i][k]` load feeds four multiplies (eight per row pair).
///
/// Every element still accumulates its `k` terms in ascending order —
/// the same floating-point association as the naive i-k-j loop — so
/// results stay bit-identical to the reference and independent of the
/// recursion/blocking shape above.
#[allow(clippy::too_many_arguments)] // plane coordinates, not config
fn mm_kernel(
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
    let mut i = 0;
    while i + 2 <= rows {
        let arow0 = &a[i * n + k0..i * n + k0 + kw];
        let arow1 = &a[(i + 1) * n + k0..(i + 1) * n + k0 + kw];
        let (chead, ctail) = c.split_at_mut((i + 1) * n);
        let crow0 = &mut chead[i * n + j0..i * n + j0 + jw];
        let crow1 = &mut ctail[j0..j0 + jw];
        let mut j = 0;
        while j + 4 <= jw {
            let mut acc0 = [crow0[j], crow0[j + 1], crow0[j + 2], crow0[j + 3]];
            let mut acc1 = [crow1[j], crow1[j + 1], crow1[j + 2], crow1[j + 3]];
            for (dk, (&a0k, &a1k)) in arow0.iter().zip(arow1).enumerate() {
                let bq = &b[(k0 + dk) * n + j0 + j..(k0 + dk) * n + j0 + j + 4];
                for t in 0..4 {
                    acc0[t] += a0k * bq[t];
                    acc1[t] += a1k * bq[t];
                }
            }
            crow0[j..j + 4].copy_from_slice(&acc0);
            crow1[j..j + 4].copy_from_slice(&acc1);
            j += 4;
        }
        while j < jw {
            let mut s0 = crow0[j];
            let mut s1 = crow1[j];
            for (dk, (&a0k, &a1k)) in arow0.iter().zip(arow1).enumerate() {
                let bkj = b[(k0 + dk) * n + j0 + j];
                s0 += a0k * bkj;
                s1 += a1k * bkj;
            }
            crow0[j] = s0;
            crow1[j] = s1;
            j += 1;
        }
        i += 2;
    }
    if i < rows {
        let arow = &a[i * n + k0..i * n + k0 + kw];
        let crow = &mut c[i * n + j0..i * n + j0 + jw];
        let mut j = 0;
        while j + 4 <= jw {
            let mut acc = [crow[j], crow[j + 1], crow[j + 2], crow[j + 3]];
            for (dk, &aik) in arow.iter().enumerate() {
                let bq = &b[(k0 + dk) * n + j0 + j..(k0 + dk) * n + j0 + j + 4];
                for t in 0..4 {
                    acc[t] += aik * bq[t];
                }
            }
            crow[j..j + 4].copy_from_slice(&acc);
            j += 4;
        }
        while j < jw {
            let mut s = crow[j];
            for (dk, &aik) in arow.iter().enumerate() {
                s += aik * b[(k0 + dk) * n + j0 + j];
            }
            crow[j] = s;
            j += 1;
        }
    }
}

/// Parallel Floyd–Warshall: for each `k`, row `k` is snapshotted and all
/// rows update in parallel CGC bands (the classic row-parallel FW).
pub fn par_floyd_warshall(pool: &SbPool, x: &mut [f64], n: usize) {
    assert_eq!(x.len(), n * n);
    let mut rowk = vec![0.0f64; n];
    for k in 0..n {
        rowk.copy_from_slice(&x[k * n..(k + 1) * n]);
        let rk = &rowk;
        pool.run(|ctx| {
            fw_bands(ctx, x, rk, n, k);
        });
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
    for row in x.chunks_exact_mut(n) {
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

/// Parallel exclusive prefix sum (wrapping u64): [`scan_in_ctx`] under
/// one pool entry.
pub fn par_prefix_sum(pool: &SbPool, a: &mut [u64]) {
    pool.run(|ctx| scan_in_ctx(ctx, a));
}

/// `Ctx`-native exclusive prefix sum (block-scan): per-block totals, a
/// tiny serial combine, then per-block scans seeded by the block
/// offsets. The 16-way split is fixed — like every kernel here it reads
/// no machine parameter, and the pool decides from the declared
/// `2·block` words how many of the blocks run in parallel. Never
/// re-enters the pool, so a server batch can run many under one `enter`.
fn scan_in_ctx(ctx: &Ctx<'_>, a: &mut [u64]) {
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

/// Parallel SpM-DV (`y = A·x`) over a CSR matrix: SB fork–join over row
/// bands, with the space bound computed exactly from the row offsets —
/// the real-machine counterpart of [`crate::spmdv::mo_spmdv`]'s
/// `2m + 1 + 3·nnz` accounting (2 words per stored nonzero: column
/// index + value, plus at most one `x` word per nonzero, plus the `y`
/// segment and offset slice).
pub fn par_spmdv(
    pool: &SbPool,
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
    pool.run(|ctx| spmdv_rows(ctx, row_ptr, cols, vals, x, y, 0));
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
    use mo_core::rt::HwHierarchy;

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
            par_transpose(&p, &a, &mut out, n);
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
        p.run(|ctx| band_transpose(ctx, &a, &mut band, n, j0));
        for dj in 0..rows {
            for i in 0..n {
                assert_eq!(band[dj * n + i], a[i * n + j0 + dj], "band ({dj}, {i})");
            }
        }
    }

    #[test]
    fn matmul_matches_naive() {
        let n = 64;
        let a = rand_vec(n * n, 2);
        let b = rand_vec(n * n, 3);
        let mut c = vec![0.0; n * n];
        let p = pool();
        par_matmul(&p, &mut c, &a, &b, n);
        let want = crate::gep::matmul_reference(&a, &b, n);
        for t in 0..n * n {
            assert!((c[t] - want[t]).abs() < 1e-9, "at {t}");
        }
    }

    #[test]
    fn floyd_warshall_matches_reference() {
        let n = 48;
        let mut d = vec![f64::INFINITY; n * n];
        let mut x = 7u64;
        for i in 0..n {
            d[i * n + i] = 0.0;
            for _ in 0..3 {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                let j = ((x >> 33) as usize) % n;
                let w = 1.0 + ((x >> 20) % 9) as f64;
                if i != j && w < d[i * n + j] {
                    d[i * n + j] = w;
                }
            }
        }
        let want = crate::gep::floyd_warshall_reference(&d, n);
        let p = pool();
        let mut got = d.clone();
        par_floyd_warshall(&p, &mut got, n);
        assert_eq!(got, want);
    }

    #[test]
    fn prefix_sum_matches_serial() {
        for n in [0usize, 1, 100, 5000, 50_000] {
            let src: Vec<u64> = (0..n as u64).map(|x| x % 97 + 1).collect();
            let mut par = src.clone();
            let p = pool();
            par_prefix_sum(&p, &mut par);
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
            par_sort(&p, &mut data);
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
            par_spmdv(&p, &row_ptr, &cols, &vals, &vin, &mut got);
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
        par_sort(&p, &mut data);
        assert_eq!(data, want);
    }
}

/// A complex sample for the real FFT kernels.
pub type C64 = (f64, f64);

#[inline]
fn cmul(a: C64, b: C64) -> C64 {
    (a.0 * b.0 - a.1 * b.1, a.0 * b.1 + a.1 * b.0)
}

/// Recursion cutoff for the parallel FFT: transforms at or below this
/// size run through the iterative [`serial_fft`], which fits in L1 and
/// needs no deinterleave copies or per-level twiddle work.
pub(crate) const FFT_LEAF: usize = 1024;

/// Parallel recursive FFT (`Y[i] = Σ_j X[j]·ω_n^{-ij}`, in place, `n` a
/// power of two): even/odd split into a scratch buffer, the two halves
/// recurse in parallel under SB space bounds, butterflies combine.
pub fn par_fft(pool: &SbPool, x: &mut [C64]) {
    let mut scratch = Vec::new();
    par_fft_with_scratch(pool, x, &mut scratch);
}

/// [`par_fft`] with a caller-owned scratch buffer, so repeated
/// transforms of the same size (a server loop, a bench harness) reuse
/// one allocation instead of paying a fresh `n`-element vector per
/// call. The buffer is grown as needed and its contents on return are
/// unspecified.
///
/// As with `par_sort`, plan choice is resource-aware even though the
/// algorithm is oblivious: a width-1 pool gets the iterative
/// [`serial_fft`] directly — the recursion's deinterleave copies and
/// per-level twiddles only pay for themselves once the halves actually
/// run in parallel.
pub fn par_fft_with_scratch(pool: &SbPool, x: &mut [C64], scratch: &mut Vec<C64>) {
    let n = x.len();
    assert!(n.is_power_of_two() || n == 0);
    if n <= 1 {
        return;
    }
    if n <= FFT_LEAF || pool.hierarchy().cores() == 1 {
        serial_fft(x);
        return;
    }
    if scratch.len() < n {
        scratch.resize(n, (0.0, 0.0));
    }
    pool.run(|ctx| fft_rec(ctx, x, &mut scratch[..n]));
}

fn fft_rec(ctx: &Ctx<'_>, x: &mut [C64], scratch: &mut [C64]) {
    let n = x.len();
    if n <= FFT_LEAF {
        serial_fft(x);
        return;
    }
    let half = n / 2;
    // Deinterleave into scratch: evens first, odds second.
    for k in 0..half {
        scratch[k] = x[2 * k];
        scratch[half + k] = x[2 * k + 1];
    }
    {
        let (se, so) = scratch.split_at_mut(half);
        let (xe, xo) = x.split_at_mut(half);
        // Recurse with roles swapped (scratch holds the data, x is free).
        ctx.join(
            4 * half,
            |c| fft_rec(c, se, xe),
            4 * half,
            |c| fft_rec(c, so, xo),
        );
    }
    // Combine back into x. Twiddles advance by recurrence (one complex
    // multiply per step instead of a cos/sin pair), re-seeded from trig
    // every `RESYNC` steps to stop rounding drift from accumulating —
    // well inside the verification tolerance of the tests.
    const RESYNC: usize = 64;
    let ang = -2.0 * std::f64::consts::PI / n as f64;
    let step = (ang.cos(), ang.sin());
    let mut w = (1.0, 0.0);
    for k in 0..half {
        if k % RESYNC == 0 {
            let a = ang * k as f64;
            w = (a.cos(), a.sin());
        }
        let e = scratch[k];
        let o = cmul(w, scratch[half + k]);
        x[k] = (e.0 + o.0, e.1 + o.1);
        x[k + half] = (e.0 - o.0, e.1 - o.1);
        w = cmul(w, step);
    }
}

/// Serial iterative radix-2 FFT (bit-reversal + butterfly passes): the
/// wall-clock baseline.
pub fn serial_fft(x: &mut [C64]) {
    let n = x.len();
    if n <= 1 {
        return;
    }
    assert!(n.is_power_of_two());
    // Bit-reversal permutation.
    let bits = n.trailing_zeros();
    for i in 0..n {
        let j = (i.reverse_bits() >> (usize::BITS - bits)) & (n - 1);
        if i < j {
            x.swap(i, j);
        }
    }
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

#[cfg(test)]
mod fft_tests {
    use super::*;
    use mo_core::rt::HwHierarchy;

    fn pool() -> SbPool {
        SbPool::new(HwHierarchy::flat(4, 1 << 10, 1 << 22))
    }

    fn reference_dft(input: &[C64]) -> Vec<C64> {
        let n = input.len();
        (0..n)
            .map(|i| {
                let mut acc = (0.0, 0.0);
                for (j, &v) in input.iter().enumerate() {
                    let ang = -2.0 * std::f64::consts::PI * (i * j) as f64 / n as f64;
                    let t = cmul(v, (ang.cos(), ang.sin()));
                    acc = (acc.0 + t.0, acc.1 + t.1);
                }
                acc
            })
            .collect()
    }

    #[test]
    fn serial_and_parallel_match_reference() {
        for n in [1usize, 2, 8, 64, 256, 1024] {
            let input: Vec<C64> = (0..n)
                .map(|t| ((t as f64 * 0.31).sin(), (t as f64 * 0.17).cos()))
                .collect();
            let want = reference_dft(&input);
            let mut s = input.clone();
            serial_fft(&mut s);
            let mut p = input.clone();
            let pl = pool();
            par_fft(&pl, &mut p);
            for k in 0..n {
                assert!(
                    (s[k].0 - want[k].0).abs() < 1e-6 * n as f64,
                    "serial n={n} k={k}"
                );
                assert!(
                    (p[k].0 - want[k].0).abs() < 1e-6 * n as f64,
                    "par n={n} k={k}"
                );
                assert!(
                    (p[k].1 - want[k].1).abs() < 1e-6 * n as f64,
                    "par im n={n} k={k}"
                );
            }
        }
    }

    #[test]
    fn parallel_matches_recorded_mo_fft() {
        let n = 512;
        let input: Vec<C64> = (0..n).map(|t| ((t as f64).sin(), 0.0)).collect();
        let mo = crate::fft::fft_program(&input).output();
        let mut real = input.clone();
        let pl = pool();
        par_fft(&pl, &mut real);
        for k in 0..n {
            assert!((mo[k].0 - real[k].0).abs() < 1e-6, "k={k}");
            assert!((mo[k].1 - real[k].1).abs() < 1e-6, "k={k}");
        }
    }
}
