//! The host's vector arm, and no-framework's one `unsafe` home: N-GEP's
//! base case at the host's vector width, chosen at run time.
//!
//! The build targets baseline x86-64, so the autovectoriser may use SSE2
//! only. Each arm below is a `#[target_feature]` wrapper that calls the
//! `#[inline(always)]` leaf [`ngep::leaf_update`] by name, so the same
//! source is compiled once per instruction set (the AVX-512 arm calls
//! [`ngep::leaf_update_lanes`], which differs only in how it cuts a row
//! at `k`); [`Arm::widest`] picks the
//! widest arm the CPU has (`std` caches the detection), and every other
//! host and target runs the baseline arm. No arm fuses `a * b + c`, so
//! every arm computes the same IEEE value in every lane; the one place
//! they may differ is which of two NaN operands `f64::min` returns.
//!
//! [`Arm`] is the workspace's one arm: `mo_algorithms::dispatch`
//! compiles its real kernels' leaves for the same arms, so one CPU
//! check decides every dispatched leaf of both crates.

use crate::algs::ngep;
use crate::gep::UpdateSet;

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

    /// The widest arm this CPU can run.
    #[inline]
    pub fn widest() -> Arm {
        Arm::ALL
            .into_iter()
            .find(|arm| arm.available())
            .unwrap_or(Arm::Baseline)
    }
}

/// [`ngep::leaf_update`] compiled for `arm`: the `κ × κ` GEP base case
/// on one PE's memory, returning the number of updates applied. Every
/// arm gives the same bits and the same count.
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
    match arm {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `arm.available()` has just detected AVX-512F,
        // AVX-512DQ and AVX-512VL on this CPU; the arm enables F and VL.
        Arm::Avx512 => unsafe { x86::leaf_update_avx512(mem, kappa, offsets, origin, f, sigma) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `arm.available()` has just detected AVX2 on this CPU,
        // the only feature the arm enables.
        Arm::Avx2 => unsafe { x86::leaf_update_avx2(mem, kappa, offsets, origin, f, sigma) },
        _ => ngep::leaf_update(mem, kappa, offsets, origin, f, sigma),
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{ngep, UpdateSet};

    #[target_feature(enable = "avx512f,avx512vl")]
    pub(super) fn leaf_update_avx512<F: Fn(f64, f64, f64, f64) -> f64>(
        mem: &mut [u64],
        kappa: usize,
        offsets: [usize; 3],
        origin: (usize, usize, usize),
        f: F,
        sigma: UpdateSet,
    ) -> u64 {
        ngep::leaf_update_lanes(mem, kappa, offsets, origin, f, sigma)
    }

    #[target_feature(enable = "avx2")]
    pub(super) fn leaf_update_avx2<F: Fn(f64, f64, f64, f64) -> f64>(
        mem: &mut [u64],
        kappa: usize,
        offsets: [usize; 3],
        origin: (usize, usize, usize),
        f: F,
        sigma: UpdateSet,
    ) -> u64 {
        ngep::leaf_update(mem, kappa, offsets, origin, f, sigma)
    }
}
