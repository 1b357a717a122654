//! The crate's one `unsafe` home: the real kernels' hot leaves at the
//! host's vector width, chosen at run time — Floyd–Warshall's band rows,
//! the FFT's leaf transform and its combine, and the fill of a served
//! job's input stream. The matmul's base case, [`mm_block`], is GEP's
//! register-tiled leaf, whose arms `no_framework::dispatch` compiles.
//!
//! The build targets baseline x86-64, so the autovectoriser may use SSE2
//! only. Each copy below is a `#[target_feature]` wrapper that calls an
//! `#[inline(always)]` leaf of [`real`] by name, so the same source is
//! compiled once per instruction set. A leaf has a copy at a width only
//! where that copy won at least 4 of 5 alternating `bench_rt` runs
//! against what the arm runs without it (the fill, which `bench_rt` does
//! not time, in process and in 10 of 10 `serve_mixed` pairs); an arm
//! with no copy of its own runs the baseline (EXPERIMENTS, "Host vector
//! width"). [`Arm::widest`]
//! picks the widest arm the CPU has (`std` caches the detection), and
//! every other host and target runs the baseline arm. No leaf fuses
//! `a * b + c`, so every arm computes the same IEEE value in every lane:
//! Floyd–Warshall's rows (an add and a compare) give the same bits on
//! every input, the FFT on every finite input; the fill is integer
//! arithmetic and one exact conversion.
//!
//! The arms are no-framework's [`Arm`], the one arm N-GEP's base case is
//! compiled for too: one CPU check decides every dispatched leaf of
//! both crates.

use crate::real::registry::{self, Draw};
use crate::real::{self, C64, FFT_BLOCK, FFT_LEAF};
use no_framework::dispatch::{self as no, Arm};
use no_framework::gep::mm_update;

/// One Floyd–Warshall step `k` over the rows of `x` (each `rowk.len()`
/// wide), compiled for `arm`: `x[i,j] ← min(x[i,j], x[i,k] + rowk[j])`
/// wherever the sum is smaller, rows whose `x[i,k]` is not finite
/// skipped. Every arm gives the same bits.
///
/// # Panics
/// If this CPU cannot run `arm`, `rowk` is empty, or `k ≥ rowk.len()`
/// while `x` has a row.
pub fn fw_rows(arm: Arm, x: &mut [f64], rowk: &[f64], k: usize) {
    assert!(arm.available(), "this CPU cannot run the {arm:?} arm");
    match arm {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `arm.available()` has just detected AVX-512F and
        // AVX-512VL on this CPU, the only features the copy enables.
        Arm::Avx512 => unsafe { x86::fw_rows_avx512(x, rowk, k) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `arm.available()` has just detected AVX2 on this CPU,
        // the only feature the copy enables.
        Arm::Avx2 => unsafe { x86::fw_rows_avx2(x, rowk, k) },
        _ => real::fw_rows(x, rowk, k),
    }
}

/// `C[..rows][j0..j0+jw] += A[..rows][k0..k0+kw] · B[k0..k0+kw][j0..j0+jw]`
/// on row-major `n × n` matrices, compiled for `arm`: GEP's
/// register-tiled leaf ([`no_framework::dispatch::gep_tiles`]) with
/// `mm_update`, on the three matrices' rows in place. Every element
/// adds its `kw` products in ascending `k`, unfused, so every arm gives
/// the naive i-k-j loop's bits.
///
/// # Panics
/// If this CPU cannot run `arm`, or the block is not inside the
/// matrices.
pub fn mm_block(
    arm: Arm,
    c: &mut [f64],
    a: &[f64],
    b: &[f64],
    n: usize,
    (rows, j0, jw, k0, kw): (usize, usize, usize, usize, usize),
) {
    // `mm_update` ignores `w`: any `kw` words at step 1 serve.
    let uvw = [(&a[k0..], n), (&b[k0 * n + j0..], n), (&a[k0..], 1)];
    no::gep_tiles(arm, (&mut c[j0..], n), uvw, (rows, jw, kw), mm_update);
}

/// The FFT of `x` in place, compiled for `arm`, for `2 ≤ n ≤ FFT_LEAF`
/// samples (`n` a power of two): bit reversal, then `log₂ n` butterfly
/// passes. Every arm gives the same bits on finite samples. There is no
/// AVX2 copy: it won just 4 of 5 alternating `bench_rt` runs, by 2–4 %
/// on a quiet host, too little for a second copy, so the AVX2 arm runs
/// the baseline.
///
/// # Panics
/// If this CPU cannot run `arm`, or `n` is out of range.
pub fn fft_leaf(arm: Arm, x: &mut [C64]) {
    assert!(arm.available(), "this CPU cannot run the {arm:?} arm");
    let n = x.len();
    assert!(n.is_power_of_two() && (2..=FFT_LEAF).contains(&n));
    match arm {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `arm.available()` has just detected AVX-512F and
        // AVX-512VL on this CPU, the only features the copy enables.
        Arm::Avx512 => unsafe { x86::fft_leaf_avx512(x) },
        _ => real::fft_leaf(x),
    }
}

/// One combine step of the FFT, compiled for `arm`: the transforms of
/// the even and the odd samples, `halves = evens ‖ odds`, into the
/// transform `x` of all `n = x.len()` samples (`n` a power of two,
/// `n / 2 ≥ FFT_BLOCK`). Every arm gives the same bits on finite
/// samples. There is no AVX2 copy: it did not beat the baseline, so the
/// AVX2 arm runs the baseline.
///
/// # Panics
/// If this CPU cannot run `arm`, or the lengths are out of range.
pub fn fft_combine(arm: Arm, halves: &[C64], x: &mut [C64]) {
    assert!(arm.available(), "this CPU cannot run the {arm:?} arm");
    let n = x.len();
    assert!(n.is_power_of_two() && n / 2 >= FFT_BLOCK && halves.len() == n);
    match arm {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `arm.available()` has just detected AVX-512F and
        // AVX-512VL on this CPU, the only features the copy enables.
        Arm::Avx512 => unsafe { x86::fft_combine_avx512(halves, x) },
        _ => real::fft_combine(halves, x),
    }
}

/// Fill `out` with the next values of the SplitMix64 stream at
/// `state`, compiled for `arm`; returns the state after them,
/// `state + len·WORDS·γ`. The AVX-512 arm computes eight words at a time
/// in counter form (`registry::fill_lanes`: 64-bit multiplies in
/// `vpmullq`, `z >> 11` to `f64` in `vcvtuqq2pd`, both exact); every
/// other arm runs the stream one word after another: at SSE2 width the
/// counter form is no faster, and an AVX2 copy has yet to be judged on a
/// host whose widest arm is AVX2 (EXPERIMENTS, "Served inputs and
/// checksums at vector width"). Every arm gives the same values and the
/// same state.
///
/// # Panics
/// If this CPU cannot run `arm`.
pub fn fill<T: Draw>(arm: Arm, state: u64, out: &mut [T]) -> u64 {
    assert!(arm.available(), "this CPU cannot run the {arm:?} arm");
    match arm {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `arm.available()` has just detected AVX-512F,
        // AVX-512DQ and AVX-512VL on this CPU, the only features the
        // copy enables.
        Arm::Avx512 => unsafe { x86::fill_avx512(state, out) },
        _ => registry::fill_stream(state, out),
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use crate::real::registry::{self, Draw};
    use crate::real::{self, C64};

    #[target_feature(enable = "avx512f,avx512dq,avx512vl")]
    pub(super) fn fill_avx512<T: Draw>(state: u64, out: &mut [T]) -> u64 {
        registry::fill_lanes(state, out)
    }

    #[target_feature(enable = "avx512f,avx512vl")]
    pub(super) fn fw_rows_avx512(x: &mut [f64], rowk: &[f64], k: usize) {
        real::fw_rows(x, rowk, k)
    }

    #[target_feature(enable = "avx2")]
    pub(super) fn fw_rows_avx2(x: &mut [f64], rowk: &[f64], k: usize) {
        real::fw_rows(x, rowk, k)
    }

    #[target_feature(enable = "avx512f,avx512vl")]
    pub(super) fn fft_leaf_avx512(x: &mut [C64]) {
        real::fft_leaf(x)
    }

    #[target_feature(enable = "avx512f,avx512vl")]
    pub(super) fn fft_combine_avx512(halves: &[C64], x: &mut [C64]) {
        real::fft_combine(halves, x)
    }
}
