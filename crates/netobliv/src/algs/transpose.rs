//! NO matrix transposition on M(n²) (adapted from \[4\], Table II row 2:
//! Θ(n²/(Bp)) communication).

use crate::NoMachine;

/// Transpose an `n × n` matrix distributed one element per PE (row-major
/// PE numbering): a single all-to-all permutation superstep plus the
/// delivery step.
pub fn no_transpose(a: &[u64], n: usize) -> (NoMachine, Vec<u64>) {
    assert_eq!(a.len(), n * n);
    let mut m = NoMachine::new((n * n).max(1));
    for (pe, &v) in a.iter().enumerate() {
        m.mem_mut(pe).push(v);
    }
    m.step(|pe, ctx| {
        let (i, j) = (pe / n, pe % n);
        let v = ctx.mem[0];
        ctx.send(j * n + i, v);
        ctx.work(1);
    });
    m.step(|_pe, ctx| {
        let v = ctx.inbox[0];
        ctx.mem[0] = v;
    });
    let out = (0..n * n).map(|pe| m.mem(pe)[0]).collect();
    (m, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transposes() {
        let n = 8;
        let a: Vec<u64> = (0..(n * n) as u64).collect();
        let (_, t) = no_transpose(&a, n);
        for i in 0..n {
            for j in 0..n {
                assert_eq!(t[j * n + i], a[i * n + j]);
            }
        }
    }

    /// Table II row 2: Θ(n²/(Bp)) for B up to n²/p².
    #[test]
    fn communication_matches_theta_bound() {
        let n = 32usize; // N = 1024 PEs
        let a = vec![1u64; n * n];
        let (m, _) = no_transpose(&a, n);
        for (p, b) in [(4usize, 4usize), (16, 4), (16, 1), (64, 2)] {
            let comm = m.communication_complexity(p, b) as f64;
            let predicted = (n * n) as f64 / (b * p) as f64;
            assert!(
                comm >= 0.4 * predicted && comm <= 4.0 * predicted,
                "p={p} B={b}: comm {comm} vs Θ({predicted})"
            );
        }
    }
}
