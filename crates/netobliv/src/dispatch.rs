//! The host's vector arm, and no-framework's one `unsafe` home: GEP's
//! base case at the host's vector width, chosen at run time — N-GEP's
//! `κ × κ` leaf, and the register-tiled leaf the served matmul calls.
//!
//! The build targets baseline x86-64, so the autovectoriser may use SSE2
//! only. Each arm below is a `#[target_feature]` wrapper that calls an
//! `#[inline(always)]` leaf by name — [`gep::gep_tiles`] at the arm's
//! own register tile ([`Arm::tile`]), or N-GEP's row loop for the
//! blocks the tile does not take (`leaf_rows` in `ngep.rs`, which on
//! the AVX-512 arm cuts an aliased row at `k` lane by lane, not in two
//! loops) — so the same source is compiled once per instruction set.
//! Each tile is its own wrapper: inlined into the row loop's, the same
//! source lost its registers. [`leaf_update`] runs a block in one of
//! three shapes (DESIGN §2 S8): one [`gep_tiles`] when every operand is
//! disjoint from `x`; `gep::gep_split_rows` or
//! `gep::gep_split_cols` — two sweeps of [`gep_tiles`] around the
//! block's pivots, with a few rows between them in safe code — when `v`
//! or `u` is `x`; the row loop otherwise. [`Arm::widest`] picks the
//! widest arm the CPU has (`std` caches the detection), and every other
//! host and target runs the baseline arm. No arm fuses `a * b + c`, so
//! every arm computes the same IEEE value in every lane; the one place
//! they may differ is which of two NaN operands `f64::min` returns.
//!
//! [`Arm`] is the workspace's one arm: `mo_algorithms::dispatch`
//! compiles its real kernels' leaves for the same arms, so one CPU
//! check decides every dispatched leaf of both crates.

use std::cell::RefCell;

use crate::algs::ngep::{self, Tiled};
use crate::gep::{self, Block, UpdateSet, Word};

/// One compiled copy of a dispatched leaf, by the widest vector
/// instruction set it may use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arm {
    /// AVX-512F with the 128/256-bit VL forms and the DQ
    /// instructions (64-bit multiplies, `u64 → f64` conversions).
    Avx512,
    /// AVX2.
    Avx2,
    /// The build's own target (SSE2 on baseline x86-64).
    Baseline,
}

impl Arm {
    /// Every arm, widest first.
    pub const ALL: [Arm; 3] = [Arm::Avx512, Arm::Avx2, Arm::Baseline];

    /// Whether this CPU can run the arm.
    #[inline]
    pub fn available(self) -> bool {
        match self {
            #[cfg(target_arch = "x86_64")]
            Arm::Avx512 => {
                std::is_x86_feature_detected!("avx512f")
                    && std::is_x86_feature_detected!("avx512dq")
                    && std::is_x86_feature_detected!("avx512vl")
            }
            #[cfg(target_arch = "x86_64")]
            Arm::Avx2 => std::is_x86_feature_detected!("avx2"),
            #[cfg(not(target_arch = "x86_64"))]
            Arm::Avx512 | Arm::Avx2 => false,
            Arm::Baseline => true,
        }
    }

    /// The register tile, rows × columns of `x`, that this arm's GEP
    /// leaf ([`gep::gep_tiles`]) keeps across its `k` sweep: of the
    /// shapes timed in process, the fastest for both min-plus and
    /// multiply-add at κ = 32 (EXPERIMENTS, "Register-tiled GEP leaf").
    pub const fn tile(self) -> (usize, usize) {
        match self {
            Arm::Avx512 => (2, 16),
            Arm::Avx2 => (2, 16),
            Arm::Baseline => (2, 8),
        }
    }

    /// The widest arm this CPU can run.
    #[inline]
    pub fn widest() -> Arm {
        Arm::ALL
            .into_iter()
            .find(|arm| arm.available())
            .unwrap_or(Arm::Baseline)
    }
}

/// N-GEP's `κ × κ` base case on one PE's memory, compiled for `arm`,
/// returning the number of updates applied. A block whose every triplet
/// is in `Σ_f` runs on the arm's register tile ([`Arm::tile`]): one
/// [`gep_tiles`] when `u`, `v` and `w` are all disjoint from `x` (`𝒟`),
/// `gep::gep_split_rows` when only `v` is `x` (ℬ),
/// `gep::gep_split_cols` when only `u` is `x` (𝒞), both with their
/// scratch in a buffer the thread keeps. Any other block (`𝒜`, or one
/// partly in `Σ_f`) runs row by row, cut where an aliased operand
/// changes (`ngep.rs`, `leaf_rows`). Every arm gives the same bits and
/// the same count.
///
/// # Panics
/// If this CPU cannot run `arm`.
#[allow(clippy::too_many_arguments)]
pub fn leaf_update<F: Fn(f64, f64, f64, f64) -> f64>(
    arm: Arm,
    mem: &mut [u64],
    kappa: usize,
    offsets: [usize; 3],
    origin: (usize, usize, usize),
    f: F,
    sigma: UpdateSet,
) -> u64 {
    assert!(arm.available(), "this CPU cannot run the {arm:?} arm");
    if let Some(tiled) = ngep::tiled_operands(mem, kappa, offsets, origin, sigma) {
        match tiled {
            Tiled::Disjoint(x, uvw) => gep_tiles(arm, (x, kappa), uvw, (kappa, kappa, kappa), f),
            Tiled::PivotRows(x, uw) => SPLIT_SCRATCH.with_borrow_mut(|q| {
                let q = scratch(q, kappa);
                gep::gep_split_rows(arm, (x, kappa), uw, (kappa, kappa), q, f)
            }),
            Tiled::PivotCols(x, vw) => SPLIT_SCRATCH.with_borrow_mut(|q| {
                gep::gep_split_cols(arm, (x, kappa), vw, kappa, scratch(q, kappa), f)
            }),
        }
        return (kappa * kappa * kappa) as u64;
    }
    match arm {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `arm.available()` has just detected AVX-512F,
        // AVX-512DQ and AVX-512VL on this CPU; the arm enables F and VL.
        Arm::Avx512 => unsafe { x86::leaf_rows_avx512(mem, kappa, offsets, origin, f, sigma) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `arm.available()` has just detected AVX2 on this CPU,
        // the only feature the arm enables.
        Arm::Avx2 => unsafe { x86::leaf_rows_avx2(mem, kappa, offsets, origin, f, sigma) },
        _ => ngep::leaf_rows::<F, false>(mem, kappa, offsets, origin, f, sigma),
    }
}

thread_local! {
    /// The pivot split's scratch, kept for the thread's life.
    static SPLIT_SCRATCH: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// The pivot split's scratch for a `κ × κ` block: `2κ²` words of `buf`
/// (𝒞's saved rows and `vᵀ`; ℬ uses the first half), which grows only
/// for a `κ` larger than any before on this thread.
fn scratch(buf: &mut Vec<u64>, kappa: usize) -> &mut [u64] {
    let len = 2 * kappa * kappa;
    if buf.len() < len {
        buf.resize(len, 0);
    }
    &mut buf[..len]
}

/// [`gep::gep_tiles`] compiled for `arm`, at the arm's [`Arm::tile`]:
/// `x[i,j] ← f(x[i,j], u[i,k], v[k,j], w[k,k])`
/// over a `rows × cols × depth` block whose operands are disjoint from
/// `x`, every `x[i,j]` taking its terms in ascending `k`. Every arm gives
/// the same bits.
///
/// # Panics
/// If this CPU cannot run `arm`, or as [`gep::gep_tiles`] does.
pub fn gep_tiles<E: Word, F: Fn(f64, f64, f64, f64) -> f64>(
    arm: Arm,
    x: (&mut [E], usize),
    uvw: [Block<'_, E>; 3],
    shape: (usize, usize, usize),
    f: F,
) {
    assert!(arm.available(), "this CPU cannot run the {arm:?} arm");
    match arm {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `arm.available()` has just detected AVX-512F,
        // AVX-512DQ and AVX-512VL on this CPU; the arm enables F and VL.
        Arm::Avx512 => unsafe { x86::gep_tiles_avx512(x, uvw, shape, f) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `arm.available()` has just detected AVX2 on this CPU,
        // the only feature the arm enables.
        Arm::Avx2 => unsafe { x86::gep_tiles_avx2(x, uvw, shape, f) },
        _ => {
            const T: (usize, usize) = Arm::Baseline.tile();
            gep::gep_tiles::<E, F, { T.0 }, { T.1 }>(x, uvw, shape, f)
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{gep, ngep, Arm, Block, UpdateSet, Word};

    const AVX512: (usize, usize) = Arm::Avx512.tile();
    const AVX2: (usize, usize) = Arm::Avx2.tile();

    #[target_feature(enable = "avx512f,avx512vl")]
    pub(super) fn leaf_rows_avx512<F: Fn(f64, f64, f64, f64) -> f64>(
        mem: &mut [u64],
        kappa: usize,
        offsets: [usize; 3],
        origin: (usize, usize, usize),
        f: F,
        sigma: UpdateSet,
    ) -> u64 {
        ngep::leaf_rows::<F, true>(mem, kappa, offsets, origin, f, sigma)
    }

    #[target_feature(enable = "avx2")]
    pub(super) fn leaf_rows_avx2<F: Fn(f64, f64, f64, f64) -> f64>(
        mem: &mut [u64],
        kappa: usize,
        offsets: [usize; 3],
        origin: (usize, usize, usize),
        f: F,
        sigma: UpdateSet,
    ) -> u64 {
        ngep::leaf_rows::<F, false>(mem, kappa, offsets, origin, f, sigma)
    }

    #[target_feature(enable = "avx512f,avx512vl")]
    pub(super) fn gep_tiles_avx512<E: Word, F: Fn(f64, f64, f64, f64) -> f64>(
        x: (&mut [E], usize),
        uvw: [Block<'_, E>; 3],
        shape: (usize, usize, usize),
        f: F,
    ) {
        gep::gep_tiles::<E, F, { AVX512.0 }, { AVX512.1 }>(x, uvw, shape, f)
    }

    #[target_feature(enable = "avx2")]
    pub(super) fn gep_tiles_avx2<E: Word, F: Fn(f64, f64, f64, f64) -> f64>(
        x: (&mut [E], usize),
        uvw: [Block<'_, E>; 3],
        shape: (usize, usize, usize),
        f: F,
    ) {
        gep::gep_tiles::<E, F, { AVX2.0 }, { AVX2.1 }>(x, uvw, shape, f)
    }
}
