//! Tier-1 coverage of the runtime-dispatched leaves: every vector arm
//! this CPU can run — AVX-512, AVX2 — of N-GEP's base case
//! (`no::dispatch::leaf_update`), GEP's register-tiled leaf at each
//! arm's tile shape (`no::dispatch::gep_tiles`, which the former and the
//! served matmul run), Floyd–Warshall's band rows
//! (`algs::dispatch::fw_rows`), the FFT's leaf and combine
//! (`algs::dispatch::{fft_leaf, fft_combine}`) and the served inputs'
//! fill (`algs::dispatch::fill`) must return the same op count (or
//! stream state) and the same output bits as the baseline arm on the
//! same seeded inputs. An arm the CPU lacks is printed as skipped and is
//! not counted among the arms that ran.
//!
//! The FFT's samples are finite, ±0 among them. The other leaves' inputs
//! include ±0, ±∞ and NaN operands. Every lane is compared
//! bit for bit except one kind: a lane whose value comes from an
//! operation that met *two* NaN operands (`f64::min` of two NaNs, or an
//! add or multiply of two), where which NaN comes back is not fixed
//! between instruction sets. There the test asserts only that every arm
//! returns a NaN. A plain triple loop over [`Lane`]s finds those lanes.
//!
//! The arms are vectorised only in optimised builds, so CI also runs
//! this file with `--release`.

use std::ops::{Add, Mul, Sub};

use oblivious::algs::dispatch as kernels;
use oblivious::algs::real::registry::Draw;
use oblivious::algs::real::C64;
use oblivious::no::dispatch::{self as ngep, Arm};
use oblivious::no::gep::{fw_update, mm_update, UpdateSet};

/// The vector arms (every arm but the last, the baseline) this CPU
/// runs, after printing the ones it skips.
fn runnable(leaf: &str) -> Vec<Arm> {
    let vector = &Arm::ALL[..2];
    for &arm in vector.iter().filter(|&&arm| !arm.available()) {
        println!("{leaf}: {arm:?} arm skipped, this CPU lacks it");
    }
    vector
        .iter()
        .copied()
        .filter(|&arm| arm.available())
        .collect()
}

/// An `f64` and whether its bits may differ between arms: it is a NaN
/// that came from an operation with two NaN operands, or from a loose
/// NaN operand.
#[derive(Debug, Clone, Copy)]
struct Lane {
    v: f64,
    loose: bool,
}

impl Lane {
    fn of(v: f64) -> Lane {
        Lane { v, loose: false }
    }
    fn op(a: Lane, b: Lane, v: f64) -> Lane {
        let both_nan = a.v.is_nan() && b.v.is_nan();
        Lane {
            v,
            loose: v.is_nan() && (a.loose || b.loose || both_nan),
        }
    }
    fn min(self, b: Lane) -> Lane {
        Lane::op(self, b, self.v.min(b.v))
    }
}

impl Add for Lane {
    type Output = Lane;
    fn add(self, b: Lane) -> Lane {
        Lane::op(self, b, self.v + b.v)
    }
}
impl Sub for Lane {
    type Output = Lane;
    fn sub(self, b: Lane) -> Lane {
        Lane::op(self, b, self.v - b.v)
    }
}
impl Mul for Lane {
    type Output = Lane;
    fn mul(self, b: Lane) -> Lane {
        Lane::op(self, b, self.v * b.v)
    }
}

/// Order-sensitive in all four operands.
fn mix(x: f64, u: f64, v: f64, w: f64) -> f64 {
    x * 0.75 + u * v * 0.125 - w * 0.0625
}
fn mix_lane(x: Lane, u: Lane, v: Lane, w: Lane) -> Lane {
    x * Lane::of(0.75) + u * v * Lane::of(0.125) - w * Lane::of(0.0625)
}
fn fw_lane(x: Lane, u: Lane, v: Lane, _w: Lane) -> Lane {
    x.min(u + v)
}
fn mm_lane(x: Lane, u: Lane, v: Lane, _w: Lane) -> Lane {
    x + u * v
}

/// The specials every input draws from: ±0, ±∞ and quiet NaNs of both
/// signs, one with a payload.
const SPECIALS: [u64; 7] = [
    0x0000_0000_0000_0000,
    0x8000_0000_0000_0000,
    0x7ff0_0000_0000_0000,
    0xfff0_0000_0000_0000,
    0x7ff8_0000_0000_0000,
    0xfff8_0000_0000_0000,
    0x7ff8_0000_0000_0abc,
];

/// `len` seeded words: values in `[0.5, 1.5)`, and with `specials` one
/// word in 32 drawn from [`SPECIALS`].
fn words(state: &mut u64, len: usize, specials: bool) -> Vec<u64> {
    (0..len)
        .map(|_| {
            *state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let r = *state >> 11;
            if specials && r.is_multiple_of(32) {
                SPECIALS[(r >> 5) as usize % SPECIALS.len()]
            } else {
                (0.5 + r as f64 / (1u64 << 53) as f64).to_bits()
            }
        })
        .collect()
}

/// The `κ × κ` base case as the k-major triple loop, one triplet at a
/// time over [`Lane`]s. Returns the updates applied.
fn leaf_reference(
    mem: &mut [Lane],
    kappa: usize,
    [uo, vo, wo]: [usize; 3],
    (row0, col0, k0): (usize, usize, usize),
    f: impl Fn(Lane, Lane, Lane, Lane) -> Lane,
    sigma: UpdateSet,
) -> u64 {
    let mut ops = 0;
    for k in 0..kappa {
        for i in 0..kappa {
            for j in 0..kappa {
                if sigma.contains(row0 + i, col0 + j, k0 + k) {
                    mem[i * kappa + j] = f(
                        mem[i * kappa + j],
                        mem[uo + i * kappa + k],
                        mem[vo + k * kappa + j],
                        mem[wo + k * kappa + k],
                    );
                    ops += 1;
                }
            }
        }
    }
    ops
}

/// Tallies of the arms' comparisons with the baseline arm.
#[derive(Default)]
struct Seen {
    /// Lanes compared bit for bit whose value is a NaN.
    exact_nans: u64,
    /// Lanes where only NaN-ness was asserted.
    loose: u64,
    /// Of those, the lanes whose two NaNs differ in their bits.
    loose_apart: u64,
}

/// `got` against `want` lane by lane: the same bits, or, on a loose
/// lane, a NaN.
fn same_bits(got: &[u64], want: &[u64], lanes: &[Lane], seen: &mut Seen, case: &str) {
    for (at, ((&g, &w), lane)) in got.iter().zip(want).zip(lanes).enumerate() {
        if lane.loose {
            let nans = f64::from_bits(g).is_nan() && f64::from_bits(w).is_nan();
            assert!(
                nans,
                "{case}: word {at} is {g:#x} and {w:#x}, two NaNs met there"
            );
            seen.loose += 1;
            seen.loose_apart += u64::from(g != w);
        } else {
            assert_eq!(g, w, "{case}: word {at}");
            seen.exact_nans += u64::from(f64::from_bits(g).is_nan());
        }
    }
}

/// Every runnable arm of the N-GEP leaf with update `f` (and its
/// [`Lane`] twin `g`) on every alias pattern, both update sets and the
/// origins of the crate's own differential test, with plain and with
/// special inputs.
fn ngep_arms_agree<F, G>(name: &str, f: F, g: G, arms: &[Arm], seen: &mut Seen)
where
    F: Fn(f64, f64, f64, f64) -> f64 + Copy,
    G: Fn(Lane, Lane, Lane, Lane) -> Lane + Copy,
{
    let mut state = 29u64;
    for kappa in [1usize, 2, 4, 8, 16, 32] {
        let bsz = kappa * kappa;
        let origins = [
            (4 * kappa, 4 * kappa, 0),
            (kappa, kappa, kappa - 1),
            (kappa, kappa, kappa),
            (kappa, kappa, kappa + kappa / 2),
            (kappa + kappa / 2, kappa, kappa),
            (kappa, kappa + kappa / 2, kappa),
            (kappa, kappa, 2 * kappa - 1),
            (kappa, kappa, 2 * kappa),
            (0, 0, 4 * kappa),
        ];
        for aliases in 0..8usize {
            let offsets: [usize; 3] = std::array::from_fn(|slot| {
                if aliases >> slot & 1 == 1 {
                    0
                } else {
                    (slot + 1) * bsz
                }
            });
            for sigma in [UpdateSet::All, UpdateSet::KBelowMin] {
                for origin in origins {
                    for specials in [false, true] {
                        let input = words(&mut state, 4 * bsz, specials);
                        let case = format!(
                            "{name} κ={kappa} offsets={offsets:?} {sigma:?} {origin:?} \
                             specials={specials}"
                        );
                        let mut lanes: Vec<Lane> =
                            input.iter().map(|&w| Lane::of(f64::from_bits(w))).collect();
                        let want_ops = leaf_reference(&mut lanes, kappa, offsets, origin, g, sigma);
                        let want: Vec<u64> = lanes.iter().map(|l| l.v.to_bits()).collect();
                        let mut base = input.clone();
                        let base_ops = ngep::leaf_update(
                            Arm::Baseline,
                            &mut base,
                            kappa,
                            offsets,
                            origin,
                            f,
                            sigma,
                        );
                        assert_eq!(base_ops, want_ops, "ops, baseline: {case}");
                        let vs_reference = &mut Seen::default();
                        same_bits(
                            &base,
                            &want,
                            &lanes,
                            vs_reference,
                            &format!("baseline, {case}"),
                        );
                        for &arm in arms {
                            let mut got = input.clone();
                            let ops =
                                ngep::leaf_update(arm, &mut got, kappa, offsets, origin, f, sigma);
                            assert_eq!(ops, base_ops, "ops, {arm:?}: {case}");
                            same_bits(&got, &base, &lanes, seen, &format!("{arm:?}, {case}"));
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn every_arm_of_the_ngep_leaf_gives_the_baseline_bits() {
    let arms = runnable("ngep leaf");
    let mut seen = Seen::default();
    ngep_arms_agree("mix", mix, mix_lane, &arms, &mut seen);
    ngep_arms_agree("fw_update", fw_update, fw_lane, &arms, &mut seen);
    println!(
        "ngep leaf: {arms:?} run against the baseline; {} NaN lanes compared bit for bit, {} lanes where two \
         NaNs met ({} of them with other bits)",
        seen.exact_nans, seen.loose, seen.loose_apart
    );
    // The specials reach both kinds of NaN lane.
    assert!(seen.exact_nans > 0 && seen.loose > 0);
}

/// Every runnable arm of GEP's register-tiled leaf with update `f` (and
/// its [`Lane`] twin `g`), at its own tile shape, against the baseline
/// arm: through N-GEP's leaf on disjoint, fully admitted `κ × κ` blocks
/// at every `κ` from 1 to 64 under both update sets, and through
/// `gep_tiles` itself on strided `f64` blocks whose rows, columns and
/// depth no tile side divides, each with plain and with special inputs.
fn tiled_arms_agree<F, G>(name: &str, f: F, g: G, arms: &[Arm], seen: &mut Seen)
where
    F: Fn(f64, f64, f64, f64) -> f64 + Copy,
    G: Fn(Lane, Lane, Lane, Lane) -> Lane + Copy,
{
    let mut state = 41u64;
    for kappa in 1..=64usize {
        let bsz = kappa * kappa;
        let offsets = [bsz, 2 * bsz, 3 * bsz];
        // Every triplet admitted: `KBelowMin` with the block far past
        // its cut.
        for (sigma, origin) in [
            (UpdateSet::All, (0, 0, 0)),
            (UpdateSet::KBelowMin, (4 * kappa, 4 * kappa, 0)),
        ] {
            for specials in [false, true] {
                let input = words(&mut state, 4 * bsz, specials);
                let case = format!("{name} κ={kappa} {sigma:?} specials={specials}");
                let mut lanes: Vec<Lane> =
                    input.iter().map(|&w| Lane::of(f64::from_bits(w))).collect();
                leaf_reference(&mut lanes, kappa, offsets, origin, g, sigma);
                let mut base = input.clone();
                let ops =
                    ngep::leaf_update(Arm::Baseline, &mut base, kappa, offsets, origin, f, sigma);
                assert_eq!(ops, (bsz * kappa) as u64, "ops, baseline: {case}");
                let want: Vec<u64> = lanes.iter().map(|l| l.v.to_bits()).collect();
                let vs_reference = &mut Seen::default();
                same_bits(
                    &base,
                    &want,
                    &lanes,
                    vs_reference,
                    &format!("baseline, {case}"),
                );
                for &arm in arms {
                    let mut got = input.clone();
                    let ops = ngep::leaf_update(arm, &mut got, kappa, offsets, origin, f, sigma);
                    assert_eq!(ops, (bsz * kappa) as u64, "ops, {arm:?}: {case}");
                    same_bits(&got, &base, &lanes, seen, &format!("{arm:?}, {case}"));
                }
            }
        }
    }
    // `(rows, cols, depth)` and the row strides of `x`, `u` and `v`.
    for (rows, cols, depth) in [(1, 1, 1), (3, 5, 7), (7, 33, 17), (17, 31, 64), (33, 40, 9)] {
        let strides = [cols + 3, depth + 1, cols + 5];
        let lens = [rows * strides[0], rows * strides[1], depth * strides[2]];
        for specials in [false, true] {
            let case = format!("{name} {rows} × {cols} × {depth} specials={specials}");
            let [x, u, v] = lens.map(|len| words(&mut state, len, specials));
            let w = words(&mut state, depth, specials);
            let mut lanes: Vec<Lane> = x.iter().map(|&w| Lane::of(f64::from_bits(w))).collect();
            let lane = |words: &[u64], at: usize| Lane::of(f64::from_bits(words[at]));
            for k in 0..depth {
                for i in 0..rows {
                    for j in 0..cols {
                        let at = i * strides[0] + j;
                        let (ui, vk) = (lane(&u, i * strides[1] + k), lane(&v, k * strides[2] + j));
                        lanes[at] = g(lanes[at], ui, vk, lane(&w, k));
                    }
                }
            }
            let run = |arm: Arm| {
                let [mut x, u, v, w] = [&x, &u, &v, &w].map(|words| {
                    words
                        .iter()
                        .map(|&b| f64::from_bits(b))
                        .collect::<Vec<f64>>()
                });
                let uvw = [(&u[..], strides[1]), (&v[..], strides[2]), (&w[..], 1)];
                ngep::gep_tiles(arm, (&mut x, strides[0]), uvw, (rows, cols, depth), f);
                x.iter().map(|v| v.to_bits()).collect::<Vec<u64>>()
            };
            let base = run(Arm::Baseline);
            let want: Vec<u64> = lanes.iter().map(|l| l.v.to_bits()).collect();
            let vs_reference = &mut Seen::default();
            same_bits(
                &base,
                &want,
                &lanes,
                vs_reference,
                &format!("baseline, {case}"),
            );
            for &arm in arms {
                same_bits(&run(arm), &base, &lanes, seen, &format!("{arm:?}, {case}"));
            }
        }
    }
}

#[test]
fn every_arm_of_the_tiled_gep_leaf_gives_the_baseline_bits() {
    let arms = runnable("tiled gep leaf");
    let mut seen = Seen::default();
    tiled_arms_agree("mix", mix, mix_lane, &arms, &mut seen);
    tiled_arms_agree("fw_update", fw_update, fw_lane, &arms, &mut seen);
    tiled_arms_agree("mm_update", mm_update, mm_lane, &arms, &mut seen);
    let shapes: Vec<_> = Arm::ALL.iter().map(|arm| (arm, arm.tile())).collect();
    println!(
        "tiled gep leaf: {arms:?} run against the baseline, tiles {shapes:?}; {} NaN lanes compared \
         bit for bit, {} lanes where two NaNs met ({} of them with other bits)",
        seen.exact_nans, seen.loose, seen.loose_apart
    );
    assert!(seen.exact_nans > 0 && seen.loose > 0);
}

#[test]
fn every_arm_of_the_floyd_warshall_rows_gives_the_baseline_bits() {
    let arms = runnable("fw rows");
    let mut state = 31u64;
    let mut lanes = 0;
    for n in [1usize, 2, 3, 7, 8, 9, 16, 33, 64, 100] {
        for rows in [1usize, 2, 5, 64] {
            for specials in [false, true] {
                let mut input: Vec<f64> = words(&mut state, rows * n, specials)
                    .into_iter()
                    .map(f64::from_bits)
                    .collect();
                // Unreachable pairs, as Floyd–Warshall's inputs have them.
                for (at, d) in input.iter_mut().enumerate() {
                    if at % 5 == 3 {
                        *d = f64::INFINITY;
                    }
                }
                let rowk: Vec<f64> = words(&mut state, n, specials)
                    .into_iter()
                    .map(f64::from_bits)
                    .collect();
                for k in [0, n / 2, n - 1] {
                    let case = format!("n={n} rows={rows} k={k} specials={specials}");
                    let mut base = input.clone();
                    kernels::fw_rows(Arm::Baseline, &mut base, &rowk, k);
                    let want: Vec<u64> = base.iter().map(|d| d.to_bits()).collect();
                    for &arm in &arms {
                        let mut got = input.clone();
                        kernels::fw_rows(arm, &mut got, &rowk, k);
                        let got: Vec<u64> = got.iter().map(|d| d.to_bits()).collect();
                        assert_eq!(got, want, "{arm:?}: {case}");
                        lanes += got.len();
                    }
                }
            }
        }
    }
    println!("fw rows: {arms:?} run against the baseline; {lanes} lanes compared bit for bit");
}

/// `len` seeded finite samples: signed, with exponents over ±2⁴⁰, one
/// component in 16 a signed zero.
fn samples(state: &mut u64, len: usize) -> Vec<C64> {
    let mut one = || {
        *state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let r = *state >> 11;
        let sign = if r & 1 == 0 { 1.0 } else { -1.0 };
        if r.is_multiple_of(16) {
            return sign * 0.0;
        }
        let scale = 2f64.powi((r >> 1) as i32 % 41 * 2 - 40);
        sign * scale * (0.5 + (r >> 7) as f64 / (1u64 << 46) as f64)
    };
    (0..len).map(|_| (one(), one())).collect()
}

fn sample_bits(x: &[C64]) -> Vec<(u64, u64)> {
    x.iter().map(|c| (c.0.to_bits(), c.1.to_bits())).collect()
}

#[test]
fn every_arm_of_the_fft_leaf_and_combine_gives_the_baseline_bits() {
    let arms = runnable("fft");
    let mut state = 37u64;
    let mut lanes = 0;
    for log in 1..=10 {
        let input = samples(&mut state, 1 << log);
        let mut base = input.clone();
        kernels::fft_leaf(Arm::Baseline, &mut base);
        for &arm in &arms {
            let mut got = input.clone();
            kernels::fft_leaf(arm, &mut got);
            assert_eq!(
                sample_bits(&got),
                sample_bits(&base),
                "leaf {arm:?}: n=2^{log}"
            );
            lanes += got.len();
        }
    }
    for log in 7..=14 {
        let halves = samples(&mut state, 1 << log);
        let mut base = vec![(0.0, 0.0); 1 << log];
        kernels::fft_combine(Arm::Baseline, &halves, &mut base);
        for &arm in &arms {
            let mut got = vec![(0.0, 0.0); 1 << log];
            kernels::fft_combine(arm, &halves, &mut got);
            assert_eq!(
                sample_bits(&got),
                sample_bits(&base),
                "combine {arm:?}: n=2^{log}"
            );
            lanes += got.len();
        }
    }
    println!("fft: {arms:?} run against the baseline; {lanes} samples compared bit for bit");
}

/// Every arm's fill of `len` values of type `T` from `seed` against the
/// baseline stream: the same bits, by `bits`, and the same state after.
fn fill_agrees<T: Draw>(arms: &[Arm], seed: u64, len: usize, bits: fn(&T) -> (u64, u64)) -> usize {
    let mut base = vec![T::default(); len];
    let state = kernels::fill(Arm::Baseline, seed, &mut base);
    let want: Vec<_> = base.iter().map(bits).collect();
    for &arm in arms {
        let mut got = vec![T::default(); len];
        let case = format!(
            "{arm:?}: {} × {len} from {seed:#x}",
            std::any::type_name::<T>()
        );
        assert_eq!(kernels::fill(arm, seed, &mut got), state, "state, {case}");
        assert_eq!(got.iter().map(bits).collect::<Vec<_>>(), want, "{case}");
    }
    len * arms.len()
}

#[test]
fn every_arm_of_the_input_fill_gives_the_baseline_stream() {
    let arms = runnable("fill");
    const GAMMA: u64 = 0x9e37_79b9_7f4a_7c15;
    let lens = [0, 1, 7, 8, 9, 15, 16, 17, 1023, 2048];
    let mut values = 0;
    for seed in [0, 1, 0x1234_5678_9abc_def0, u64::MAX - GAMMA, u64::MAX] {
        for len in lens {
            values += fill_agrees::<u64>(&arms, seed, len, |&w| (w, 0));
            values += fill_agrees::<f64>(&arms, seed, len, |&v| (v.to_bits(), 0));
            values += fill_agrees::<C64>(&arms, seed, len, |c| (c.0.to_bits(), c.1.to_bits()));
        }
    }
    println!("fill: {arms:?} run against the baseline; {values} values compared bit for bit");
}
