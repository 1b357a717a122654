//! NO FFT on M(n) (adapted from \[4\], Table II row 5:
//! Θ(n/(pB)·log_{n/p} n) communication).
//!
//! The √n-recursive decomposition executed *level-synchronously*: at any
//! point every PE group has the same size `g`, so all groups share
//! supersteps — transposition permutations are one global superstep each
//! and the recursion is driven host-side on the uniform group size.
//! Convention matches MO-FFT: `Y[i] = Σ_j X[j]·ω_n^{-ij}`.

use std::f64::consts::PI;

use crate::NoMachine;

const BASE: usize = 4;

#[inline]
fn omega(n: usize, t: usize) -> (f64, f64) {
    let ang = -2.0 * PI * (t as f64) / (n as f64);
    (ang.cos(), ang.sin())
}

#[inline]
fn cmul(a: (f64, f64), b: (f64, f64)) -> (f64, f64) {
    (a.0 * b.0 - a.1 * b.1, a.0 * b.1 + a.1 * b.0)
}

/// Apply one permutation superstep within every group of size `g`:
/// local index `t` moves to local index `perm(t)`.
fn permute(m: &mut NoMachine, g: usize, perm: impl Fn(usize) -> usize) {
    m.step(|pe, ctx| {
        let lo = pe - pe % g;
        let t = pe % g;
        let (re, im) = (ctx.mem[0], ctx.mem[1]);
        ctx.send_words(lo + perm(t), &[re, im]);
        ctx.work(1);
    });
    m.step(|_pe, ctx| {
        ctx.mem[0] = ctx.inbox[0];
        ctx.mem[1] = ctx.inbox[1];
    });
}

/// Recursive driver: FFT every group of `g` consecutive PEs, all groups
/// in lock-step.
fn fft_groups(m: &mut NoMachine, g: usize) {
    if g <= BASE {
        // Gather to the group leader, direct DFT, scatter.
        m.step(|pe, ctx| {
            let lo = pe - pe % g;
            let (re, im) = (ctx.mem[0], ctx.mem[1]);
            ctx.send_words(lo, &[re, im]);
        });
        m.step(|pe, ctx| {
            if pe % g != 0 {
                return;
            }
            // Leader: inbox sorted by source = local order.
            let vals: Vec<(f64, f64)> = (0..g)
                .map(|t| {
                    (
                        f64::from_bits(ctx.inbox[2 * t]),
                        f64::from_bits(ctx.inbox[2 * t + 1]),
                    )
                })
                .collect();
            for i in 0..g {
                let mut acc = (0.0, 0.0);
                for (j, &v) in vals.iter().enumerate() {
                    let t = cmul(v, omega(g, (i * j) % g));
                    acc = (acc.0 + t.0, acc.1 + t.1);
                }
                ctx.send_words(pe + i, &[acc.0.to_bits(), acc.1.to_bits()]);
            }
            ctx.work((g * g) as u64);
        });
        m.step(|_pe, ctx| {
            ctx.mem[0] = ctx.inbox[0];
            ctx.mem[1] = ctx.inbox[1];
        });
        return;
    }
    let k = g.trailing_zeros() as usize;
    let g1 = 1usize << k.div_ceil(2);
    let g2 = g / g1;
    // Regroup by j2: index j1·g2 + j2 → j2·g1 + j1.
    permute(m, g, |t| (t % g2) * g1 + t / g2);
    // Sub-FFTs of length g1 (contiguous runs, fixed j2).
    fft_groups(m, g1);
    // Twiddle: local position j2·g1 + k1 scaled by ω_g^{-j2·k1}.
    m.step(|pe, ctx| {
        let t = pe % g;
        let (j2, k1) = (t / g1, t % g1);
        let v = (f64::from_bits(ctx.mem[0]), f64::from_bits(ctx.mem[1]));
        let w = cmul(v, omega(g, (j2 * k1) % g));
        ctx.mem[0] = w.0.to_bits();
        ctx.mem[1] = w.1.to_bits();
        ctx.work(1);
    });
    // Regroup by k1: j2·g1 + k1 → k1·g2 + j2.
    permute(m, g, |t| (t % g1) * g2 + t / g1);
    // Sub-FFTs of length g2.
    fft_groups(m, g2);
    // Final order: k1·g2 + k2 → k2·g1 + k1.
    permute(m, g, |t| (t % g2) * g1 + t / g2);
}

/// Run the NO FFT of `input` (length a power of two, one complex element
/// per PE). Returns the machine and the transform.
pub fn no_fft(input: &[(f64, f64)]) -> (NoMachine, Vec<(f64, f64)>) {
    let n = input.len();
    assert!(n.is_power_of_two());
    let mut m = NoMachine::new(n);
    for (pe, &(re, im)) in input.iter().enumerate() {
        m.mem_mut(pe).extend([re.to_bits(), im.to_bits()]);
    }
    fft_groups(&mut m, n);
    let out = (0..n)
        .map(|pe| (f64::from_bits(m.mem(pe)[0]), f64::from_bits(m.mem(pe)[1])))
        .collect();
    (m, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reference_dft(input: &[(f64, f64)]) -> Vec<(f64, f64)> {
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

    #[test]
    fn matches_reference_dft() {
        for n in [2usize, 4, 8, 16, 64, 256] {
            let input: Vec<(f64, f64)> = (0..n)
                .map(|t| ((t as f64 * 0.3).sin(), (t as f64 * 0.7).cos() * 0.5))
                .collect();
            let (_, got) = no_fft(&input);
            let want = reference_dft(&input);
            for k in 0..n {
                assert!(
                    (got[k].0 - want[k].0).abs() < 1e-6 && (got[k].1 - want[k].1).abs() < 1e-6,
                    "n={n} k={k}: {:?} vs {:?}",
                    got[k],
                    want[k]
                );
            }
        }
    }

    /// Table II row 5 shape: communication ≈ (n/(pB))·log_{n/p} n.
    #[test]
    fn communication_scales_with_the_bound() {
        let n = 1024usize;
        let input: Vec<(f64, f64)> = (0..n).map(|t| (t as f64, 0.0)).collect();
        let (m, _) = no_fft(&input);
        for (p, b) in [(16usize, 2usize), (64, 2), (16, 8)] {
            let comm = m.communication_complexity(p, b) as f64;
            let np = (n / p) as f64;
            let predicted =
                (2.0 * n as f64 / (p as f64 * b as f64)) * ((n as f64).ln() / np.ln()).max(1.0);
            assert!(
                comm <= 8.0 * predicted && comm >= 0.2 * predicted,
                "p={p} B={b}: comm {comm} vs Θ({predicted})"
            );
        }
    }
}
