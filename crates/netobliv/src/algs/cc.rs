//! NO connected components (§VI-B, Theorem 10).
//!
//! Vertices occupy PEs `[0, n)` and edges PEs `[n, n + m)`. Each round
//! (at most `O(log n)` of them):
//!
//! 1. every edge queries its endpoints' current labels (request/reply
//!    supersteps);
//! 2. an edge whose endpoints disagree proposes the smaller label to the
//!    *root vertex* of the larger label (min-hooking);
//! 3. roots adopt the best proposal, then `O(log n)` pointer-jumping
//!    exchanges collapse the trees to stars.
//!
//! The paper's algorithm obtains a better superstep/communication profile
//! by contracting the adjacency lists with NO sorting; we keep the
//! simpler label-propagation choreography (the communication volume per
//! round is the same Θ((n+m)/p) shape) and document the substitution in
//! DESIGN.md.

use crate::NoMachine;

/// Vertex memory: `[0]` = label, `[1]` = best proposal.
/// Edge memory: `[0]` = u, `[1]` = v, `[2]` = label(u), `[3]` = label(v).
///
/// Labels converge to the minimum vertex id of each component.
pub fn no_cc(n: usize, edges: &[(usize, usize)]) -> (NoMachine, Vec<u64>) {
    assert!(n >= 1);
    let m_edges = edges.len();
    let mut m = NoMachine::new(n + m_edges.max(1));
    for pe in 0..n {
        m.mem_mut(pe).extend([pe as u64, u64::MAX]);
    }
    for (k, &(u, v)) in edges.iter().enumerate() {
        assert!(u < n && v < n);
        m.mem_mut(n + k).extend([u as u64, v as u64, 0, 0]);
    }
    let max_rounds = (usize::BITS - n.leading_zeros()) as usize + 1;
    for _round in 0..max_rounds {
        // 1a: edges ask both endpoints.
        m.step(|pe, ctx| {
            if pe < n || pe >= n + m_edges {
                return;
            }
            let (u, v) = (ctx.mem[0], ctx.mem[1]);
            ctx.send(u as usize, pe as u64);
            ctx.send(v as usize, pe as u64);
        });
        // 1b: vertices reply with their label.
        m.step(|pe, ctx| {
            if pe >= n {
                return;
            }
            let label = ctx.mem[0];
            for &e in ctx.inbox {
                ctx.send(e as usize, label);
            }
        });
        // 2: edges propose min(label) to the root of max(label).
        m.step(|pe, ctx| {
            if pe < n || pe >= n + m_edges {
                return;
            }
            let (u, v) = (ctx.mem[0] as usize, ctx.mem[1] as usize);
            // A self-loop (u == v) hears twice from one vertex; either
            // reply serves both ends.
            let label = |src| ctx.from(src).last().copied().unwrap_or(0);
            let (lu, lv) = (label(u), label(v));
            ctx.mem[2] = lu;
            ctx.mem[3] = lv;
            if lu != lv {
                let (lo, hi) = (lu.min(lv), lu.max(lv));
                ctx.send(hi as usize, lo);
                ctx.work(1);
            }
        });
        // 3a: hooked roots adopt the minimum proposal.
        m.step(|pe, ctx| {
            if pe >= n {
                return;
            }
            let best = ctx.inbox.iter().min().copied();
            if let Some(b) = best {
                if ctx.mem[0] == pe as u64 && b < ctx.mem[0] {
                    ctx.mem[0] = b;
                    ctx.work(1);
                }
            }
        });
        // 3b: pointer jumping to stars: label(v) ← label(label(v)).
        let jump_rounds = (usize::BITS - n.leading_zeros()) as usize;
        for _ in 0..jump_rounds {
            m.step(|pe, ctx| {
                if pe >= n {
                    return;
                }
                let l = ctx.mem[0];
                ctx.send(l as usize, pe as u64);
            });
            m.step(|pe, ctx| {
                if pe >= n {
                    return;
                }
                let label = ctx.mem[0];
                for &v in ctx.inbox {
                    ctx.send(v as usize, label);
                }
            });
            m.step(|pe, ctx| {
                if pe >= n {
                    return;
                }
                // Exactly one reply: from label(pe).
                if let Some(&w) = ctx.inbox.first() {
                    ctx.mem[0] = w;
                }
            });
        }
        // Host-side convergence check (the scheduler's O(log n) bound
        // guarantees termination; this just cuts idle rounds).
        let stable = edges.iter().all(|&(u, v)| m.mem(u)[0] == m.mem(v)[0]);
        if stable {
            break;
        }
    }
    let labels = (0..n).map(|v| m.mem(v)[0]).collect();
    (m, labels)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reference(n: usize, edges: &[(usize, usize)]) -> Vec<u64> {
        let mut parent: Vec<usize> = (0..n).collect();
        fn find(p: &mut Vec<usize>, v: usize) -> usize {
            if p[v] != v {
                let r = find(p, p[v]);
                p[v] = r;
            }
            p[v]
        }
        for &(u, v) in edges {
            let (ru, rv) = (find(&mut parent, u), find(&mut parent, v));
            if ru != rv {
                let (lo, hi) = (ru.min(rv), ru.max(rv));
                parent[hi] = lo;
            }
        }
        (0..n).map(|v| find(&mut parent, v) as u64).collect()
    }

    fn check(n: usize, edges: &[(usize, usize)]) {
        let (_, got) = no_cc(n, edges);
        assert_eq!(got, reference(n, edges));
    }

    #[test]
    fn basic_graphs() {
        check(5, &[]);
        check(5, &[(0, 1), (2, 3)]);
        check(6, &[(0, 1), (1, 2), (3, 4), (4, 5)]);
        check(4, &[(0, 0), (1, 2)]); // self loop
    }

    #[test]
    fn cycles_and_paths() {
        let n = 60;
        let cycle: Vec<_> = (0..n).map(|v| (v, (v + 1) % n)).collect();
        check(n, &cycle);
        let path: Vec<_> = (0..n - 1).map(|v| (v, v + 1)).collect();
        check(n, &path);
        // Worst case for hooking: a path ordered high-to-low.
        let rev_path: Vec<_> = (1..n).map(|v| (v, v - 1)).collect();
        check(n, &rev_path);
    }

    #[test]
    fn random_graphs() {
        let mut x = 5u64;
        let mut rnd = move |k: usize| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((x >> 33) as usize) % k
        };
        for (n, m) in [(50, 30), (100, 80), (200, 400)] {
            let edges: Vec<_> = (0..m).map(|_| (rnd(n), rnd(n))).collect();
            check(n, &edges);
        }
    }

    /// Communication shape: pointer jumping concentrates traffic on the
    /// component roots, so (unlike the paper's sort-based contraction,
    /// which Theorem 10 relies on) the per-processor max does NOT drop
    /// with p on a single-component graph — but block aggregation of the
    /// hotspot traffic does help, and the volume is Θ(rounds · (n + m)).
    #[test]
    fn communication_aggregates_with_blocks() {
        let n = 256;
        let edges: Vec<_> = (0..n).map(|v| (v, (v * 7 + 1) % n)).collect();
        let (m, _) = no_cc(n, &edges);
        let c1 = m.communication_complexity(16, 1);
        let c8 = m.communication_complexity(16, 8);
        assert!(
            c8 < c1 / 2,
            "blocking should compress the root hotspot: {c8} vs {c1}"
        );
        // Volume sanity: O(supersteps · n) words in total.
        assert!(m.total_words() <= (m.supersteps() as u64) * 4 * n as u64);
    }
}
