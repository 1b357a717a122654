//! NO sorting based on Leighton's column sort (§IV: "for sorting, a
//! slower NO algorithm is presented in \[4\] based on column sort";
//! Table II row 6: Θ(n/(pB)) communication).
//!
//! One key per PE. A group of `g` consecutive PEs is viewed column-major
//! as an `r × s` matrix with `2(s-1)² ≤ r`; the classic eight steps
//! become: recursive column sorts interleaved with two transposition
//! permutations, followed by overlapping even/odd/even block sorts of
//! size `2r` that play the role of the shift step (after step 5 every
//! element is within half a column of its final position, so the
//! overlapping passes finish the job without the ±∞ padding columns).
//!
//! All groups at a recursion level share supersteps (level-synchronous),
//! so M(p,B) costs are measured with full concurrency.

use crate::{Comm, NoMachine, Scope};

/// Gather-sort-scatter base size.
const BASE: usize = 32;

/// One permutation superstep applied within every group in `starts`
/// (all of size `g`): local index `t` moves to `perm(t)`.
fn permute<C: Comm>(m: &mut C, starts: &[usize], g: usize, perm: impl Fn(usize) -> usize) {
    let groups = Scope::Groups { starts, size: g };
    m.step_in(groups, |pe, ctx| {
        let Some(group) = ctx.group() else {
            return;
        };
        let v = ctx.mem[0];
        ctx.send(group.start + perm(pe - group.start), v);
        ctx.work(1);
    });
    // `perm` is a bijection of each group, so exactly the grouped PEs
    // hear back, one word each.
    m.step_in(Scope::None, receive_key);
}

/// A receive-only superstep body: adopt the key delivered to this PE.
fn receive_key(_pe: usize, ctx: &mut crate::Pe<'_>) {
    if let Some(&v) = ctx.inbox.first() {
        ctx.mem[0] = v;
    }
}

/// Largest power-of-two `s ≥ 2` with `2(s-1)² ≤ g/s` (column-sort
/// requirement), or `None` if even `s = 2` fails.
fn pick_s(g: usize) -> Option<usize> {
    let mut best = None;
    let mut s = 2usize;
    while s < g {
        if g.is_multiple_of(s) && 2 * (s - 1) * (s - 1) <= g / s {
            best = Some(s);
        }
        s *= 2;
    }
    best
}

/// Sort every group `[lo, lo + g)` for `lo ∈ starts`, ascending.
fn sort_groups<C: Comm>(m: &mut C, starts: &[usize], g: usize) {
    if starts.is_empty() || g <= 1 {
        return;
    }
    if g <= BASE || pick_s(g).is_none() {
        // Gather to the group leader, sort, scatter.
        let groups = Scope::Groups { starts, size: g };
        m.step_in(groups, |_, ctx| {
            if let Some(group) = ctx.group() {
                let v = ctx.mem[0];
                ctx.send(group.start, v);
            }
        });
        let mut vals: Vec<u64> = Vec::new();
        m.step_in(groups, |pe, ctx| {
            // Only leaders were written to (each at least by itself).
            if ctx.inbox.is_empty() {
                return;
            }
            vals.clear();
            vals.extend_from_slice(ctx.inbox);
            vals.sort_unstable();
            ctx.work((vals.len() * vals.len().max(2).ilog2() as usize) as u64);
            for (t, &v) in vals.iter().enumerate() {
                ctx.send(pe + t, v);
            }
        });
        m.step_in(Scope::None, receive_key);
        return;
    }
    let s = pick_s(g).unwrap();
    let r = g / s;
    let col_starts: Vec<usize> = starts
        .iter()
        .flat_map(|&lo| (0..s).map(move |c| lo + c * r))
        .collect();
    // 1: sort columns.
    sort_groups(m, &col_starts, r);
    // 2: transpose-reshape (Leighton): pick the matrix up in
    // column-major order and lay it down in row-major order — the
    // element with column-major rank t lands at row-major rank t, i.e.
    // at column-major position (t mod s)·r + t div s.
    permute(m, starts, g, |t| (t % s) * r + t / s);
    // 3: sort columns.
    sort_groups(m, &col_starts, r);
    // 4: untranspose (the exact inverse of step 2).
    permute(m, starts, g, |t| (t % r) * s + t / r);
    // 5: sort columns.
    sort_groups(m, &col_starts, r);
    // 6-8: after step 5 every element sits within half a column of its
    // final position, so the ±∞ shift can be replaced by overlapping
    // block sorts: half-offset r-blocks fix the column-boundary windows
    // and re-sorting the columns restores alignment; one more round
    // absorbs the corner cases of the displacement bound.
    let offset: Vec<usize> = starts
        .iter()
        .flat_map(|&lo| (0..s - 1).map(move |k| lo + r / 2 + k * r))
        .collect();
    for _ in 0..2 {
        sort_groups(m, &offset, r);
        sort_groups(m, &col_starts, r);
    }
}

/// Run the column sort on an arbitrary [`Comm`] backend with
/// `data.len()` PEs (one key per PE, a power of two). Loads owned PEs
/// and executes every superstep; afterwards each owned PE's memory
/// word 0 holds its key of the ascending result.
pub fn sort_program<C: Comm>(m: &mut C, data: &[u64]) {
    let n = data.len().max(1);
    assert!(n.is_power_of_two(), "pad to a power of two");
    assert_eq!(m.n_pes(), n, "backend must expose one PE per key");
    for (pe, &v) in data.iter().enumerate() {
        if let Some(mem) = m.pe_mem_mut(pe) {
            mem.clear();
            mem.push(v);
        }
    }
    sort_groups(m, &[0], n);
}

/// Sort `data` on M(n) (one key per PE, `n` a power of two). Returns the
/// machine and the sorted keys.
pub fn no_sort(data: &[u64]) -> (NoMachine, Vec<u64>) {
    let mut m = NoMachine::new(data.len().max(1));
    sort_program(&mut m, data);
    let out = (0..data.len()).map(|pe| m.mem(pe)[0]).collect();
    (m, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lcg(seed: u64, n: usize, modulus: u64) -> Vec<u64> {
        let mut x = seed | 1;
        (0..n)
            .map(|_| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (x >> 33) % modulus
            })
            .collect()
    }

    fn check(data: &[u64]) {
        let (_, got) = no_sort(data);
        let mut want = data.to_vec();
        want.sort_unstable();
        assert_eq!(got, want);
    }

    #[test]
    fn sorts_random_inputs() {
        for n in [1usize, 2, 32, 64, 128, 256, 1024, 4096] {
            check(&lcg(7 + n as u64, n, u64::MAX >> 33));
        }
    }

    #[test]
    fn sorts_adversarial_patterns() {
        let n = 1024;
        check(&(0..n as u64).collect::<Vec<_>>());
        check(&(0..n as u64).rev().collect::<Vec<_>>());
        check(&vec![5u64; n]);
        check(&lcg(3, n, 4));
        let mut organ: Vec<u64> = (0..n as u64 / 2).collect();
        organ.extend((0..n as u64 / 2).rev());
        check(&organ);
        // Interleaved halves (worst case for column locality).
        let inter: Vec<u64> = (0..n as u64).map(|i| (i % 2) * 1000 + i / 2).collect();
        check(&inter);
    }

    /// Table II row 6 shape: every pass moves Θ(n/(pB)) blocks per
    /// processor; column sort performs a polylog number of passes (7 per
    /// recursion level — the paper itself notes the NO sort is "slower").
    /// The per-pass bound shows as clean 1/B scaling and a bounded
    /// pass-count multiplier.
    #[test]
    fn communication_matches_theta_bound() {
        let n = 4096usize;
        let (m, _) = no_sort(&lcg(1, n, 1 << 20));
        let per_pass = |p: usize, b: usize| n as f64 / (p * b) as f64;
        // Pass multiplier: 2 permutes per level over 3 levels of
        // recursion plus cleanup => bounded by a small power.
        let c = m.communication_complexity(16, 4) as f64;
        let mult = c / per_pass(16, 4);
        assert!(
            (2.0..300.0).contains(&mult),
            "pass multiplier {mult} out of the polylog envelope"
        );
        // Doubling B halves the per-processor block count (up to ceils).
        let c2 = m.communication_complexity(16, 8) as f64;
        assert!(
            c2 < 0.7 * c && c2 > 0.3 * c,
            "B-scaling broken: {c2} vs {c}"
        );
        // More processors never increases any processor's block count.
        let c64 = m.communication_complexity(64, 4) as f64;
        assert!(c64 <= 4.0 * c, "p=64 comm {c64} vs p=16 comm {c}");
    }
}
