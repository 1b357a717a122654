//! MO-FFT: multicore-oblivious in-place FFT (Fig. 3, Theorem 2).
//!
//! The recursive √n-decomposition of the cache-oblivious FFT, adapted to
//! the HM model: matrix reshaping and twiddle scaling are `[CGC]` loops,
//! transposition is MO-MT, and the two batches of recursive sub-FFTs are
//! forked with `[CGC⇒SB]`.
//!
//! Convention (matching the paper): `Y[i] = Σ_j X[j]·ω_n^{-ij}` with
//! `ω_n = e^{2π√-1/n}`, indices 0-based. Complex numbers occupy two
//! consecutive words (re, im), each an `f64` bit pattern.

use std::f64::consts::PI;

use mo_core::{spawn, Arr, ForkHint, Recorder, Spawn};

use crate::transpose::mo_mt;

/// Below this size the DFT is computed by the direct formula
/// ("if n is a small constant", Fig. 3 line 1).
const BASE: usize = 8;

/// Space bound of a size-`n` call, in words: the input `X` (2n complex
/// words) plus every allocation of the call and its recursive
/// sub-FFTs (`fft_allocs`). The paper states `S(n) = 3n` complex
/// elements assuming temporaries are reclaimed level by level; our
/// recorded traces keep them live for the whole run, so the honest
/// bound charges each level's `n1 × n1` working matrix and Morton
/// intermediate down the recursion (an `O(n log log n)` total).
pub fn fft_space(n: usize) -> usize {
    2 * n + fft_allocs(n)
}

/// Words allocated by a size-`n` MO-FFT call and all its descendants:
/// the base case's DFT temporary, or the working matrix `A` and its
/// transpose intermediate (`4·n1²`) plus the two batches of sub-FFT
/// allocations.
fn fft_allocs(n: usize) -> usize {
    if n <= BASE {
        return 2 * n;
    }
    let k = n.trailing_zeros() as usize;
    let n1 = 1usize << k.div_ceil(2);
    let n2 = 1usize << (k / 2);
    4 * n1 * n1 + n2 * fft_allocs(n1) + n1 * fft_allocs(n2)
}

#[inline]
fn read_c(rec: &mut Recorder, a: Arr, idx: usize) -> (f64, f64) {
    (rec.read_f64(a, 2 * idx), rec.read_f64(a, 2 * idx + 1))
}

#[inline]
fn write_c(rec: &mut Recorder, a: Arr, idx: usize, v: (f64, f64)) {
    rec.write_f64(a, 2 * idx, v.0);
    rec.write_f64(a, 2 * idx + 1, v.1);
}

#[inline]
fn cmul(a: (f64, f64), b: (f64, f64)) -> (f64, f64) {
    (a.0 * b.0 - a.1 * b.1, a.0 * b.1 + a.1 * b.0)
}

/// `ω_n^{-t} = e^{-2πi·t/n}` (twiddle values are computed, not loaded, so
/// they cost no memory traffic — the paper's hardware-`β` convention).
#[inline]
fn omega(n: usize, t: usize) -> (f64, f64) {
    let ang = -2.0 * PI * (t as f64) / (n as f64);
    (ang.cos(), ang.sin())
}

/// In-place MO-FFT of `x` (`n` complex numbers, `x.len() ≥ 2n`, `n` a
/// power of two).
pub fn mo_fft(rec: &mut Recorder, x: Arr, n: usize) {
    assert!(n.is_power_of_two(), "FFT length must be a power of two");
    assert!(x.len() >= 2 * n);
    if n <= BASE {
        // Direct O(n²) DFT through a temporary (reads must precede the
        // in-place writes).
        let tmp = rec.alloc(2 * n);
        for j in 0..n {
            let v = read_c(rec, x, j);
            write_c(rec, tmp, j, v);
        }
        for i in 0..n {
            let mut acc = (0.0, 0.0);
            for j in 0..n {
                let v = read_c(rec, tmp, j);
                let w = omega(n, (i * j) % n);
                let t = cmul(v, w);
                acc = (acc.0 + t.0, acc.1 + t.1);
            }
            write_c(rec, x, i, acc);
        }
        return;
    }

    let k = n.trailing_zeros() as usize;
    let n1 = 1usize << k.div_ceil(2);
    let n2 = 1usize << (k / 2);
    debug_assert_eq!(n1 * n2, n);

    // A is an n1 × n1 complex matrix in row-major order (only the first
    // n = n1·n2 entries are meaningful at any step).
    let a = rec.alloc(2 * n1 * n1);
    let inter = rec.alloc(2 * n1 * n1);

    // 3: [CGC] reshape X into the first n2 columns of the first n1 rows.
    rec.cgc_for(n, |rec, t| {
        let i = t / n2; // j1
        let j = t % n2; // j2
        let v = read_c(rec, x, i * n2 + j);
        write_c(rec, a, i * n1 + j, v);
    });
    // 4: [CGC] MO-MT(A, n1).
    mo_mt(rec, a, a, inter, n1, 2);
    // 5: [CGC⇒SB] pfor rows j2 < n2: recursive FFT of length n1.
    let children: Vec<Spawn<'_>> = (0..n2)
        .map(|i| {
            let row = a.sub(2 * i * n1, 2 * n1);
            spawn(fft_space(n1), move |rec: &mut Recorder| {
                mo_fft(rec, row, n1);
            })
        })
        .collect();
    rec.fork(ForkHint::CgcSb, children);
    // 6: [CGC] twiddle the first n entries: A[j2, k1] *= ω_n^{-j2·k1}.
    rec.cgc_for(n, |rec, t| {
        let j2 = t / n1;
        let k1 = t % n1;
        let v = read_c(rec, a, t);
        let w = omega(n, (j2 * k1) % n);
        write_c(rec, a, t, cmul(v, w));
    });
    // 7: [CGC] MO-MT(A, n1).
    mo_mt(rec, a, a, inter, n1, 2);
    // 8: [CGC⇒SB] pfor rows k1 < n1: recursive FFT of length n2.
    let children: Vec<Spawn<'_>> = (0..n1)
        .map(|i| {
            let row = a.sub(2 * i * n1, 2 * n2);
            spawn(fft_space(n2), move |rec: &mut Recorder| {
                mo_fft(rec, row, n2);
            })
        })
        .collect();
    rec.fork(ForkHint::CgcSb, children);
    // 9: [CGC] MO-MT(A, n1).
    mo_mt(rec, a, a, inter, n1, 2);
    // 10: [CGC] copy the first n entries back into X.
    rec.cgc_for(n, |rec, t| {
        let v = read_c(rec, a, t);
        write_c(rec, x, t, v);
    });
}

/// In-place inverse MO-FFT: `mo_ifft(mo_fft(x)) == x` (up to rounding).
/// Realized obliviously as conjugate → forward transform → conjugate and
/// scale, with the conjugations/scaling as `[CGC]` passes.
pub fn mo_ifft(rec: &mut Recorder, x: Arr, n: usize) {
    rec.cgc_for(n, |rec, i| {
        let v = rec.read_f64(x, 2 * i + 1);
        rec.write_f64(x, 2 * i + 1, -v);
    });
    mo_fft(rec, x, n);
    let scale = 1.0 / n as f64;
    rec.cgc_for(n, |rec, i| {
        let re = rec.read_f64(x, 2 * i);
        let im = rec.read_f64(x, 2 * i + 1);
        rec.write_f64(x, 2 * i, re * scale);
        rec.write_f64(x, 2 * i + 1, -im * scale);
    });
}

/// A recorded standalone FFT program.
pub struct FftProgram {
    /// The recorded program.
    pub program: mo_core::Program,
    /// In/out vector (interleaved re/im).
    pub data: Arr,
    /// Transform length.
    pub n: usize,
}

/// Record MO-FFT of `input` (`n` complex numbers as (re, im) pairs).
pub fn fft_program(input: &[(f64, f64)]) -> FftProgram {
    let n = input.len();
    let flat: Vec<f64> = input.iter().flat_map(|&(r, i)| [r, i]).collect();
    let mut h = None;
    let program = Recorder::record(fft_space(n), |rec| {
        let x = rec.alloc_init_f64(&flat);
        mo_fft(rec, x, n);
        h = Some(x);
    });
    FftProgram {
        program,
        data: h.unwrap(),
        n,
    }
}

impl FftProgram {
    /// The transform result.
    pub fn output(&self) -> Vec<(f64, f64)> {
        (0..self.n)
            .map(|i| {
                (
                    self.program.get_f64(self.data, 2 * i),
                    self.program.get_f64(self.data, 2 * i + 1),
                )
            })
            .collect()
    }
}

/// Reference O(n²) DFT with the same convention, for verification.
pub fn reference_dft(input: &[(f64, f64)]) -> Vec<(f64, f64)> {
    let n = input.len();
    (0..n)
        .map(|i| {
            let mut acc = (0.0, 0.0);
            for (j, &v) in input.iter().enumerate() {
                let t = cmul(v, omega(n, (i * j) % n));
                acc = (acc.0 + t.0, acc.1 + t.1);
            }
            acc
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hm_model::MachineSpec;
    use mo_core::sched::{simulate, Policy};

    fn signal(n: usize) -> Vec<(f64, f64)> {
        (0..n)
            .map(|i| {
                let t = i as f64;
                (
                    (t * 0.37).sin() + 0.25 * (t * 1.7).cos(),
                    (t * 0.11).cos() - 0.5,
                )
            })
            .collect()
    }

    fn close(a: &[(f64, f64)], b: &[(f64, f64)], tol: f64) {
        assert_eq!(a.len(), b.len());
        for (k, (x, y)) in a.iter().zip(b).enumerate() {
            assert!(
                (x.0 - y.0).abs() < tol && (x.1 - y.1).abs() < tol,
                "mismatch at {k}: {x:?} vs {y:?}"
            );
        }
    }

    #[test]
    fn matches_reference_dft_across_sizes() {
        for n in [1usize, 2, 4, 8, 16, 32, 64, 128, 256] {
            let s = signal(n);
            let fp = fft_program(&s);
            close(&fp.output(), &reference_dft(&s), 1e-6 * (n.max(4) as f64));
        }
    }

    #[test]
    fn impulse_transforms_to_constant() {
        let n = 64;
        let mut s = vec![(0.0, 0.0); n];
        s[0] = (1.0, 0.0);
        let fp = fft_program(&s);
        for v in fp.output() {
            assert!((v.0 - 1.0).abs() < 1e-9 && v.1.abs() < 1e-9);
        }
    }

    #[test]
    fn constant_transforms_to_impulse() {
        let n = 64;
        let s = vec![(1.0, 0.0); n];
        let fp = fft_program(&s);
        let out = fp.output();
        assert!((out[0].0 - n as f64).abs() < 1e-9);
        for v in &out[1..] {
            assert!(v.0.abs() < 1e-7 && v.1.abs() < 1e-7);
        }
    }

    /// A pure tone lands all its energy in a single bin.
    #[test]
    fn tone_lands_in_one_bin() {
        let n = 128usize;
        let f = 5usize;
        let s: Vec<(f64, f64)> = (0..n)
            .map(|t| {
                let ang = 2.0 * PI * (f * t) as f64 / n as f64;
                (ang.cos(), ang.sin())
            })
            .collect();
        let fp = fft_program(&s);
        let out = fp.output();
        let mag = |v: (f64, f64)| (v.0 * v.0 + v.1 * v.1).sqrt();
        let peak = out
            .iter()
            .enumerate()
            .max_by(|a, b| mag(*a.1).total_cmp(&mag(*b.1)))
            .unwrap();
        // X[t] = ω^{+ft} cancels the kernel exactly at bin f.
        assert_eq!(peak.0, f);
        assert!((mag(*peak.1) - n as f64).abs() < 1e-6);
    }

    #[test]
    #[allow(clippy::needless_range_loop)]
    fn inverse_round_trips() {
        let n = 256usize;
        let s = signal(n);
        let flat: Vec<f64> = s.iter().flat_map(|&(r, i)| [r, i]).collect();
        let mut h = None;
        let prog = Recorder::record(fft_space(n), |rec| {
            let x = rec.alloc_init_f64(&flat);
            mo_fft(rec, x, n);
            mo_ifft(rec, x, n);
            h = Some(x);
        });
        let x = h.unwrap();
        for i in 0..n {
            assert!((prog.get_f64(x, 2 * i) - s[i].0).abs() < 1e-8, "re at {i}");
            assert!(
                (prog.get_f64(x, 2 * i + 1) - s[i].1).abs() < 1e-8,
                "im at {i}"
            );
        }
    }

    /// Theorem 2 shape: near-linear speed-up for n >> p·B₁, and shared-
    /// cache misses within a small constant of a few scans once the
    /// problem fits in L2.
    #[test]
    fn theorem2_shape_holds() {
        let n = 1 << 12;
        let s = signal(n);
        let fp = fft_program(&s);
        let p = 8u64;
        let spec = MachineSpec::three_level(p as usize, 1 << 10, 8, 1 << 18, 32).unwrap();
        let r = simulate(&fp.program, &spec, Policy::Mo);
        assert!(r.speedup() > p as f64 * 0.5, "speedup {}", r.speedup());
        let scan2 = (r.work as f64) / 32.0;
        assert!(
            (r.cache_complexity(2) as f64) < scan2 * 2.0,
            "L2 misses {} vs scan {scan2}",
            r.cache_complexity(2)
        );
    }
}
