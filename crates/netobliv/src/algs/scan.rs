//! NO prefix sums: a Blelloch tree over the PEs
//! (Table II row 1: Θ(log p) communication, Θ(n/p) computation).

use crate::NoMachine;

/// Run an exclusive prefix sum over `values` on M(N) with `N =
/// values.len()` (a power of two), one value per PE. Returns the machine
/// (for cost evaluation) and the result.
pub fn no_prefix_sum(values: &[u64]) -> (NoMachine, Vec<u64>) {
    let n = values.len();
    assert!(n.is_power_of_two(), "pad to a power of two");
    let mut m = NoMachine::new(n);
    for (pe, &v) in values.iter().enumerate() {
        // mem[0] = working value; mem[1 + d] = left-child subtotal
        // captured during up-sweep level d.
        m.mem_mut(pe).push(v);
    }
    let levels = n.trailing_zeros() as usize;

    // Up-sweep: level d senders are left children (index ≡ 2^d − 1 mod
    // 2^{d+1}); the message is applied at the start of the next step.
    for d in 0..levels {
        let stride = 1usize << (d + 1);
        m.step(|pe, ctx| {
            // Apply level d-1 receipt.
            if let Some(&w) = ctx.inbox.first() {
                ctx.mem.push(w); // record child subtotal
                ctx.mem[0] = ctx.mem[0].wrapping_add(w);
                ctx.work(1);
            }
            if pe % stride == stride / 2 - 1 {
                let v = ctx.mem[0];
                ctx.send(pe + stride / 2, v);
            }
        });
    }
    // Root applies the final receipt and clears itself for the
    // down-sweep.
    m.step(|pe, ctx| {
        if let Some(&w) = ctx.inbox.first() {
            ctx.mem.push(w);
            ctx.mem[0] = ctx.mem[0].wrapping_add(w);
            ctx.work(1);
        }
        if pe == ctx.n_pes() - 1 {
            ctx.mem[0] = 0;
        }
    });
    // Down-sweep: level d from coarse to fine; parent sends its prefix
    // to the left child and absorbs the stored subtotal.
    for d in (0..levels).rev() {
        let stride = 1usize << (d + 1);
        m.step(|pe, ctx| {
            if let Some(&w) = ctx.inbox.first() {
                ctx.mem[0] = w;
            }
            if pe % stride == stride - 1 {
                let subtotal = ctx.mem.pop().expect("up-sweep stored a subtotal");
                let mine = ctx.mem[0];
                ctx.send(pe - stride / 2, mine);
                ctx.mem[0] = mine.wrapping_add(subtotal);
                ctx.work(1);
            }
        });
    }
    // Deliver the last level.
    m.step(|_pe, ctx| {
        if let Some(&w) = ctx.inbox.first() {
            ctx.mem[0] = w;
        }
    });

    let out = (0..n).map(|pe| m.mem(pe)[0]).collect();
    (m, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_serial_exclusive_scan() {
        for n in [1usize, 2, 8, 64, 256] {
            let vals: Vec<u64> = (0..n as u64).map(|x| x * 7 + 1).collect();
            let (_, got) = no_prefix_sum(&vals);
            let mut acc = 0u64;
            for k in 0..n {
                assert_eq!(got[k], acc, "n={n} k={k}");
                acc += vals[k];
            }
        }
    }

    /// Table II row 1: communication Θ(log p) on M(p, 1), independent of n.
    #[test]
    fn communication_is_logarithmic_in_p() {
        let n = 1 << 10;
        let vals = vec![1u64; n];
        let (m, _) = no_prefix_sum(&vals);
        for p in [2usize, 4, 16, 64] {
            let comm = m.communication_complexity(p, 1);
            let logp = p.trailing_zeros() as u64;
            // Tree exchanges: ~2 crossing messages per level near the
            // processor boundaries, up+down sweeps.
            assert!(
                comm <= 8 * (logp + 1) + 8,
                "p={p}: comm {comm} not O(log p)"
            );
            assert!(comm >= logp, "p={p}: comm {comm} too low");
        }
        // Computation Θ(n/p): dominated by... the scan charges O(1) per
        // tree node; just check it shrinks with p.
        assert!(m.computation_complexity(64) <= m.computation_complexity(2));
    }
}
