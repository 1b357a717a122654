//! NO Euler tour and tree computations (§VI-B: "it is easy to derive NO
//! algorithms with the same complexities as NO-LR for Euler tour and many
//! tree problems").
//!
//! Same construction as the MO version: every tree edge contributes a
//! down and an up arc (one arc per PE); the tour successor is computed in
//! one superstep from the twin/ring representation; the resulting list is
//! ranked twice with the in-machine NO-LR (unit weights for positions,
//! offset ±1 weights for depth sums); a handful of supersteps extract
//! rooting, depth, subtree size and preorder per vertex.

use crate::NoMachine;

use super::listrank::{lr_level, SENT, SLOTS, S_DIST, S_PRED, S_RANK, S_SUCC};

/// Per-PE slots after the list-ranking frames: pristine arc inputs and
/// saved intermediates. `EOFF` is the first Euler slot.
const E_TWIN: usize = 0;
const E_RING: usize = 1;
const E_SUCC: usize = 2; // pristine tour successor
const E_PRED: usize = 3;
const E_RANK1: usize = 4; // unit-weight ranks (saved between runs)
const E_POS: usize = 5;
const E_CHILD: usize = 6; // child vertex of this arc's edge
const E_SLOTS: usize = 7;
// Per-vertex outputs (stored at PE = vertex id).
const V_PARENT: usize = 0;
const V_DEPTH: usize = 1;
const V_SIZE: usize = 2;
const V_PRE: usize = 3;
const V_SLOTS: usize = 4;

/// Results of the NO Euler-tour pipeline.
pub struct NoEuler {
    /// The machine (for cost evaluation).
    pub machine: NoMachine,
    /// Parent per vertex (root self-parented).
    pub parent: Vec<u64>,
    /// Depth per vertex.
    pub depth: Vec<u64>,
    /// Subtree size per vertex.
    pub size: Vec<u64>,
    /// Preorder number per vertex (root 0).
    pub preorder: Vec<u64>,
}

/// Run the NO Euler tour on the rooted tree given by `parent`
/// (`parent[root] == root`). One arc per PE.
pub fn no_euler(parent: &[usize], root: usize) -> NoEuler {
    let n = parent.len();
    assert!(n >= 2, "need at least one edge");
    assert_eq!(parent[root], root);
    // Host-side arc construction (the input representation), identical to
    // the MO version: edge of child v gets arcs 2e (down) / 2e+1 (up).
    let mut child_edge = vec![usize::MAX; n];
    let mut e = 0usize;
    #[allow(clippy::needless_range_loop)]
    for v in 0..n {
        if v != root {
            child_edge[v] = e;
            e += 1;
        }
    }
    let num_arcs = 2 * e;
    let mut out = vec![Vec::new(); n];
    for v in 0..n {
        if v != root {
            out[v].push(2 * child_edge[v] + 1);
            out[parent[v]].push(2 * child_edge[v]);
        }
    }
    for ring in &mut out {
        ring.sort_unstable();
    }
    let mut twin = vec![0u64; num_arcs];
    let mut ring_next = vec![0u64; num_arcs];
    for v in 0..n {
        if v != root {
            twin[2 * child_edge[v]] = (2 * child_edge[v] + 1) as u64;
            twin[2 * child_edge[v] + 1] = (2 * child_edge[v]) as u64;
        }
    }
    for ring in &out {
        for (i, &a) in ring.iter().enumerate() {
            ring_next[a] = ring[(i + 1) % ring.len()] as u64;
        }
    }
    let a0 = out[root][0] as u64;

    // Machine: one PE per arc (padded to a power of two for the scans).
    let n_pes = num_arcs.next_power_of_two().max(n.next_power_of_two());
    let mut m = NoMachine::new(n_pes);
    // Depth bound for the LR frames.
    let mut depths = 2usize;
    let mut sz = num_arcs;
    while sz > super::listrank::BASE {
        sz -= (sz - 2) / 3;
        depths += 1;
    }
    let eoff = SLOTS * (depths + 2);
    let frame = eoff + E_SLOTS + V_SLOTS;
    for pe in 0..n_pes {
        let mem = m.mem_mut(pe);
        mem.resize(frame, 0);
        if pe < num_arcs {
            mem[eoff + E_TWIN] = twin[pe];
            mem[eoff + E_RING] = ring_next[pe];
            mem[eoff + E_CHILD] = (pe / 2) as u64; // edge index; child below
        }
    }

    // Superstep: tour successor succ(a) = ring_next[twin(a)], cut at a0.
    // Each arc asks its twin for the twin's ring_next.
    m.step(|pe, ctx| {
        if pe >= num_arcs {
            return;
        }
        let t = ctx.mem[eoff + E_TWIN];
        let r = ctx.mem[eoff + E_RING];
        ctx.send(t as usize, r); // deliver my ring_next to my twin
    });
    m.step(|pe, ctx| {
        if pe >= num_arcs {
            return;
        }
        let s = ctx.inbox[0];
        ctx.mem[eoff + E_SUCC] = if s == a0 { SENT } else { s };
        // Announce myself to my successor so it learns its predecessor.
        if ctx.mem[eoff + E_SUCC] != SENT {
            let s = ctx.mem[eoff + E_SUCC] as usize;
            ctx.send(s, pe as u64);
        }
        ctx.mem[eoff + E_PRED] = SENT;
    });
    m.step(|pe, ctx| {
        if pe >= num_arcs {
            return;
        }
        if let Some(&w) = ctx.inbox.first() {
            ctx.mem[eoff + E_PRED] = w;
        }
    });

    // Run 1: unit weights → positions.
    m.step(|pe, ctx| {
        if pe >= num_arcs {
            return;
        }
        ctx.mem[S_SUCC] = ctx.mem[eoff + E_SUCC];
        ctx.mem[S_PRED] = ctx.mem[eoff + E_PRED];
        ctx.mem[S_DIST] = 1;
    });
    lr_level(&mut m, num_arcs, 0);
    m.step(|pe, ctx| {
        if pe >= num_arcs {
            return;
        }
        let r1 = ctx.mem[S_RANK];
        ctx.mem[eoff + E_RANK1] = r1;
        ctx.mem[eoff + E_POS] = (num_arcs as u64 - 1) - r1;
        // Reload pristine list state for run 2 with offset ±1 weights.
        ctx.mem[S_SUCC] = ctx.mem[eoff + E_SUCC];
        ctx.mem[S_PRED] = ctx.mem[eoff + E_PRED];
        ctx.mem[S_DIST] = if pe % 2 == 0 { 2 } else { 0 };
    });
    lr_level(&mut m, num_arcs, 0);

    // Down arcs exchange positions with their up twins, then deliver the
    // per-vertex outputs to PE = child vertex.
    let edge_child: Vec<u64> = {
        let mut ec = vec![0u64; e];
        for v in 0..n {
            if v != root {
                ec[child_edge[v]] = v as u64;
            }
        }
        ec
    };
    m.step(|pe, ctx| {
        if pe >= num_arcs || pe % 2 == 0 {
            return;
        }
        // Up arc: send my position to my (down) twin.
        let p = ctx.mem[eoff + E_POS];
        ctx.send(pe - 1, p);
    });
    m.step(|pe, ctx| {
        if pe >= num_arcs || pe % 2 != 0 {
            return;
        }
        let pu = ctx.inbox[0];
        let pd = ctx.mem[eoff + E_POS];
        debug_assert!(pd < pu, "down arc precedes up arc");
        let r1 = ctx.mem[eoff + E_RANK1];
        let r2 = ctx.mem[S_RANK];
        let sw = r2.wrapping_sub(r1);
        let depth = 2u64.wrapping_sub(sw);
        let size = (pu - pd).div_ceil(2);
        let pre = (pd + 1 + depth) >> 1; // even by construction
        let v = edge_child[pe / 2];
        ctx.send_words(v as usize, &[depth, size, pre]);
        ctx.work(1);
    });
    let parent_in: Vec<u64> = parent.iter().map(|&p| p as u64).collect();
    m.step(|pe, ctx| {
        if pe >= n {
            return;
        }
        let base = eoff + E_SLOTS;
        if pe == root {
            ctx.mem[base + V_PARENT] = root as u64;
            ctx.mem[base + V_DEPTH] = 0;
            ctx.mem[base + V_SIZE] = n as u64;
            ctx.mem[base + V_PRE] = 0;
        } else {
            ctx.mem[base + V_PARENT] = parent_in[pe];
            ctx.mem[base + V_DEPTH] = ctx.inbox[0];
            ctx.mem[base + V_SIZE] = ctx.inbox[1];
            ctx.mem[base + V_PRE] = ctx.inbox[2];
        }
    });

    let base = eoff + E_SLOTS;
    let grab = |slot: usize, m: &NoMachine| -> Vec<u64> {
        (0..n).map(|v| m.mem(v)[base + slot]).collect()
    };
    let parent_out = grab(V_PARENT, &m);
    let depth = grab(V_DEPTH, &m);
    let size = grab(V_SIZE, &m);
    let preorder = grab(V_PRE, &m);
    NoEuler {
        machine: m,
        parent: parent_out,
        depth,
        size,
        preorder,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[allow(clippy::needless_range_loop)]
    fn reference_depths(parent: &[usize], root: usize) -> Vec<u64> {
        let n = parent.len();
        let mut kids = vec![Vec::new(); n];
        for v in 0..n {
            if v != root {
                kids[parent[v]].push(v);
            }
        }
        let mut depth = vec![0u64; n];
        let mut stack = vec![root];
        while let Some(u) = stack.pop() {
            for &c in &kids[u] {
                depth[c] = depth[u] + 1;
                stack.push(c);
            }
        }
        depth
    }

    fn reference_sizes(parent: &[usize], root: usize) -> Vec<u64> {
        let n = parent.len();
        let depth = reference_depths(parent, root);
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by_key(|&v| std::cmp::Reverse(depth[v]));
        let mut size = vec![1u64; n];
        for v in order {
            if v != root {
                size[parent[v]] += size[v];
            }
        }
        size
    }

    #[allow(clippy::needless_range_loop)]
    fn random_tree(n: usize, seed: u64) -> Vec<usize> {
        let mut x = seed | 1;
        let mut parent = vec![0usize; n];
        for v in 1..n {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            parent[v] = ((x >> 33) as usize) % v;
        }
        parent
    }

    #[test]
    fn path_and_star() {
        // Path 0-1-2-...-9.
        let parent: Vec<usize> = (0..10usize).map(|v| v.saturating_sub(1)).collect();
        let r = no_euler(&parent, 0);
        assert_eq!(r.depth, (0..10u64).collect::<Vec<_>>());
        assert_eq!(r.size, (1..=10u64).rev().collect::<Vec<_>>());
        assert_eq!(r.preorder, (0..10u64).collect::<Vec<_>>());
        // Star.
        let parent = vec![0usize; 12];
        let r = no_euler(&parent, 0);
        assert_eq!(r.size[0], 12);
        assert!(r.depth[1..].iter().all(|&d| d == 1));
    }

    #[test]
    fn random_trees_match_reference() {
        for n in [2usize, 5, 17, 100, 300] {
            let parent = random_tree(n, 7 + n as u64);
            let r = no_euler(&parent, 0);
            assert_eq!(r.depth, reference_depths(&parent, 0), "depths n={n}");
            assert_eq!(r.size, reference_sizes(&parent, 0), "sizes n={n}");
            assert_eq!(
                r.parent,
                parent.iter().map(|&p| p as u64).collect::<Vec<_>>()
            );
            // Preorder: parent strictly before child.
            for (v, &pv) in parent.iter().enumerate().skip(1) {
                assert!(r.preorder[pv] < r.preorder[v]);
            }
        }
    }

    /// §VI-B: same communication shape as NO-LR (two rankings dominate).
    #[test]
    fn communication_tracks_listrank() {
        let n = 512;
        let parent = random_tree(n, 3);
        let r = no_euler(&parent, 0);
        let comm = r.machine.communication_complexity(16, 1) as f64;
        // Leading term ~ 2 rankings of 2(n-1) arcs: Θ(n/p) with the LR
        // constant (~12 steps/level × Σn_j = 3n × two runs).
        let per = comm / (2.0 * 2.0 * (n as f64 - 1.0) / 16.0);
        assert!(per > 2.0 && per < 100.0, "constant {per} out of range");
    }
}
