//! NO-LR: network-oblivious list ranking (§VI-B, Theorem 9).
//!
//! One list node per PE. Each contraction level finds an independent set
//! with NO-IS — a `log log n` deterministic-coin-flipping coloring, then
//! one superstep per color class — splices it out, and **redistributes
//! the survivors evenly across the prefix of the PEs** (the paper's key
//! deviation from MO-IS: even distribution keeps the recursive sorts and
//! scans fully parallel). Compaction offsets come from an in-machine
//! Blelloch scan over the PEs.
//!
//! Per-PE memory is organized in per-recursion-depth slot frames, since a
//! PE that receives a contracted node plays a role at two depths at once.

use crate::NoMachine;

pub(crate) const SENT: u64 = u64::MAX;
/// Slots per recursion depth.
pub(crate) const SLOTS: usize = 10;
pub(crate) const S_SUCC: usize = 0;
pub(crate) const S_PRED: usize = 1;
pub(crate) const S_DIST: usize = 2;
pub(crate) const S_RANK: usize = 3;
const S_COLOR: usize = 4;
const S_NEWCOLOR: usize = 5;
const S_INS: usize = 6;
const S_EXCL: usize = 7;
const S_NEWID: usize = 8;
const S_OLD: usize = 9;

/// Serial base-case size.
pub(crate) const BASE: usize = 8;

fn slot(depth: usize, s: usize) -> usize {
    SLOTS * depth + s
}

/// In-machine Blelloch exclusive scan over PEs `[0, m_pad)` of the value
/// in `slot_idx` (overwritten with the exclusive prefix). Returns the
/// grand total (host-read).
fn scan_slot(m: &mut NoMachine, m_pad: usize, slot_idx: usize) -> u64 {
    debug_assert!(m_pad.is_power_of_two());
    let levels = m_pad.trailing_zeros() as usize;
    for d in 0..levels {
        let stride = 1usize << (d + 1);
        m.step(|pe, ctx| {
            if pe >= m_pad {
                return;
            }
            if let Some(&w) = ctx.inbox.first() {
                ctx.mem.push(w);
                ctx.mem[slot_idx] = ctx.mem[slot_idx].wrapping_add(w);
                ctx.work(1);
            }
            if pe % stride == stride / 2 - 1 {
                let v = ctx.mem[slot_idx];
                ctx.send(pe + stride / 2, v);
            }
        });
    }
    m.step(|pe, ctx| {
        if pe >= m_pad {
            return;
        }
        if let Some(&w) = ctx.inbox.first() {
            ctx.mem.push(w);
            ctx.mem[slot_idx] = ctx.mem[slot_idx].wrapping_add(w);
        }
        if pe == m_pad - 1 {
            ctx.mem.push(ctx.mem[slot_idx]); // stash the total
            ctx.mem[slot_idx] = 0;
        }
    });
    let total = *m.mem(m_pad - 1).last().unwrap();
    m.mem_mut(m_pad - 1).pop();
    for d in (0..levels).rev() {
        let stride = 1usize << (d + 1);
        m.step(|pe, ctx| {
            if pe >= m_pad {
                return;
            }
            if let Some(&w) = ctx.inbox.first() {
                ctx.mem[slot_idx] = w;
            }
            if pe % stride == stride - 1 {
                let subtotal = ctx.mem.pop().expect("scan stack");
                let mine = ctx.mem[slot_idx];
                ctx.send(pe - stride / 2, mine);
                ctx.mem[slot_idx] = mine.wrapping_add(subtotal);
                ctx.work(1);
            }
        });
    }
    m.step(|pe, ctx| {
        if pe >= m_pad {
            return;
        }
        if let Some(&w) = ctx.inbox.first() {
            ctx.mem[slot_idx] = w;
        }
    });
    total
}

/// NO-IS at `depth` over active PEs `[0, n)`: sets `S_INS`.
fn no_is(m: &mut NoMachine, n: usize, depth: usize) {
    let b = |s| slot(depth, s);
    // Trivial id-coloring; head/tail pre-excluded; clear inS.
    m.step(|pe, ctx| {
        if pe >= n {
            return;
        }
        ctx.mem[b(S_COLOR)] = pe as u64;
        let excl = (ctx.mem[b(S_PRED)] == SENT || ctx.mem[b(S_SUCC)] == SENT) as u64;
        ctx.mem[b(S_EXCL)] = excl;
        ctx.mem[b(S_INS)] = 0;
        ctx.work(1);
    });
    // Two deterministic coin-flipping rounds.
    for _ in 0..2 {
        // (a) tell my pred my color (so everyone learns succ's color).
        m.step(|pe, ctx| {
            if pe >= n {
                return;
            }
            let p = ctx.mem[b(S_PRED)];
            if p != SENT {
                let c = ctx.mem[b(S_COLOR)];
                ctx.send(p as usize, c);
            }
        });
        // (b) compute the new color; tell my succ (for the tail fix).
        m.step(|pe, ctx| {
            if pe >= n {
                return;
            }
            let cv = ctx.mem[b(S_COLOR)];
            let nc = if let Some(&cs) = ctx.inbox.first() {
                debug_assert_ne!(cv, cs);
                let l = (cv ^ cs).trailing_zeros() as u64;
                2 * l + ((cv >> l) & 1)
            } else {
                0 // tail placeholder, fixed next step
            };
            ctx.mem[b(S_NEWCOLOR)] = nc;
            ctx.work(1);
            let s = ctx.mem[b(S_SUCC)];
            if s != SENT {
                ctx.send(s as usize, nc);
            }
        });
        // (c) tail recolors against its predecessor; commit.
        m.step(|pe, ctx| {
            if pe >= n {
                return;
            }
            if ctx.mem[b(S_SUCC)] == SENT {
                let pc = ctx.inbox.first().copied().unwrap_or(1);
                ctx.mem[b(S_NEWCOLOR)] = if pc == 0 { 1 } else { 0 };
            }
            ctx.mem[b(S_COLOR)] = ctx.mem[b(S_NEWCOLOR)];
        });
    }
    // Host reads the color bound (the scheduler knows it is O(log log n)).
    let max_color = (0..n).map(|pe| m.mem(pe)[b(S_COLOR)]).max().unwrap_or(0);
    // One admission superstep per color; exclusions are applied at the
    // start of the next color's step.
    for c in 0..=max_color + 1 {
        m.step(|pe, ctx| {
            if pe >= n {
                return;
            }
            if !ctx.inbox.is_empty() {
                ctx.mem[b(S_EXCL)] = 1;
            }
            if c <= max_color && ctx.mem[b(S_COLOR)] == c && ctx.mem[b(S_EXCL)] == 0 {
                ctx.mem[b(S_INS)] = 1;
                ctx.work(1);
                let p = ctx.mem[b(S_PRED)];
                let s = ctx.mem[b(S_SUCC)];
                ctx.send(p as usize, 1);
                ctx.send(s as usize, 1);
            }
        });
    }
}

/// Rank the active list at `depth` over PEs `[0, n)`; `S_SUCC`, `S_PRED`,
/// `S_DIST` must be loaded. Writes `S_RANK`.
pub(crate) fn lr_level(m: &mut NoMachine, n: usize, depth: usize) {
    let b = |s| slot(depth, s);
    if n <= BASE {
        // Gather (succ, dist) to PE 0, chase serially, scatter ranks.
        m.step(|pe, ctx| {
            if pe >= n {
                return;
            }
            let (s, d) = (ctx.mem[b(S_SUCC)], ctx.mem[b(S_DIST)]);
            ctx.send_words(0, &[pe as u64, s, d]);
        });
        m.step(|pe, ctx| {
            if pe != 0 {
                return;
            }
            let mut succ = vec![SENT; n];
            let mut dist = vec![0u64; n];
            let mut chunks = ctx.inbox.chunks_exact(3);
            for ch in &mut chunks {
                let (id, s, d) = (ch[0] as usize, ch[1], ch[2]);
                succ[id] = s;
                dist[id] = d;
            }
            // Find the head (no one points at it).
            let mut has_pred = vec![false; n];
            for &s in &succ {
                if s != SENT {
                    has_pred[s as usize] = true;
                }
            }
            let head = (0..n).find(|&v| !has_pred[v]).expect("list head");
            let mut total = 0u64;
            let mut v = head;
            while succ[v] != SENT {
                total += dist[v];
                v = succ[v] as usize;
            }
            let mut remaining = total;
            let mut v = head;
            loop {
                ctx.send(v, remaining);
                ctx.work(1);
                if succ[v] == SENT {
                    break;
                }
                remaining -= dist[v];
                v = succ[v] as usize;
            }
        });
        m.step(|pe, ctx| {
            if pe >= n {
                return;
            }
            ctx.mem[b(S_RANK)] = ctx.inbox[0];
        });
        return;
    }

    no_is(m, n, depth);

    // Splice: S-nodes hand (succ, dist) to pred and (pred) to succ.
    m.step(|pe, ctx| {
        if pe >= n || ctx.mem[b(S_INS)] != 1 {
            return;
        }
        let (p, s) = (ctx.mem[b(S_PRED)], ctx.mem[b(S_SUCC)]);
        let d = ctx.mem[b(S_DIST)];
        ctx.send_words(p as usize, &[0, s, d]); // tag 0: new succ + extra dist
        ctx.send_words(s as usize, &[1, p]); // tag 1: new pred
        ctx.work(1);
    });
    m.step(|pe, ctx| {
        if pe >= n || ctx.mem[b(S_INS)] == 1 {
            return;
        }
        let mut i = 0;
        while i < ctx.inbox.len() {
            match ctx.inbox[i] {
                0 => {
                    ctx.mem[b(S_SUCC)] = ctx.inbox[i + 1];
                    ctx.mem[b(S_DIST)] = ctx.mem[b(S_DIST)].wrapping_add(ctx.inbox[i + 2]);
                    i += 3;
                }
                _ => {
                    ctx.mem[b(S_PRED)] = ctx.inbox[i + 1];
                    i += 2;
                }
            }
        }
    });
    // Compaction ids for survivors.
    let m_pad = n.next_power_of_two();
    m.step(|pe, ctx| {
        if pe >= m_pad {
            return;
        }
        ctx.mem[b(S_NEWID)] = if pe < n { 1 - ctx.mem[b(S_INS)] } else { 0 };
    });
    let n1 = scan_slot(m, m_pad, b(S_NEWID)) as usize;
    debug_assert!(n1 > 0 && n1 < n);
    // Survivors tell their predecessor their new id.
    m.step(|pe, ctx| {
        if pe >= n || ctx.mem[b(S_INS)] == 1 {
            return;
        }
        let p = ctx.mem[b(S_PRED)];
        if p != SENT {
            let id = ctx.mem[b(S_NEWID)];
            ctx.send(p as usize, id);
        }
    });
    // Redistribute: survivor sends (succ_newid, dist, oldid) to its slot.
    let nb = |s| slot(depth + 1, s);
    m.step(|pe, ctx| {
        if pe >= n || ctx.mem[b(S_INS)] == 1 {
            return;
        }
        let succ_new = ctx.inbox.first().copied().unwrap_or(SENT);
        let dst = ctx.mem[b(S_NEWID)] as usize;
        let d = ctx.mem[b(S_DIST)];
        ctx.send_words(dst, &[succ_new, d, pe as u64]);
        ctx.work(1);
    });
    m.step(|pe, ctx| {
        if pe >= n1 {
            return;
        }
        ctx.mem[nb(S_SUCC)] = ctx.inbox[0];
        ctx.mem[nb(S_DIST)] = ctx.inbox[1];
        ctx.mem[nb(S_OLD)] = ctx.inbox[2];
        ctx.mem[nb(S_PRED)] = SENT;
        let s = ctx.mem[nb(S_SUCC)];
        if s != SENT {
            ctx.send(s as usize, pe as u64);
        }
    });
    m.step(|pe, ctx| {
        if pe >= n1 {
            return;
        }
        if let Some(&w) = ctx.inbox.first() {
            ctx.mem[nb(S_PRED)] = w;
        }
    });

    lr_level(m, n1, depth + 1);

    // Ranks travel back to the old ids...
    m.step(|pe, ctx| {
        if pe >= n1 {
            return;
        }
        let old = ctx.mem[nb(S_OLD)] as usize;
        let r = ctx.mem[nb(S_RANK)];
        ctx.send(old, r);
    });
    // ...and the survivors store them.
    m.step(|pe, ctx| {
        if pe >= n || ctx.mem[b(S_INS)] == 1 {
            return;
        }
        ctx.mem[b(S_RANK)] = ctx.inbox[0];
    });
    // Extension: S-nodes ask their successor for its rank.
    m.step(|pe, ctx| {
        if pe >= n || ctx.mem[b(S_INS)] != 1 {
            return;
        }
        let s = ctx.mem[b(S_SUCC)];
        ctx.send(s as usize, pe as u64);
    });
    m.step(|pe, ctx| {
        if pe >= n || ctx.mem[b(S_INS)] == 1 {
            return;
        }
        let r = ctx.mem[b(S_RANK)];
        for &asker in ctx.inbox {
            ctx.send(asker as usize, r);
        }
    });
    m.step(|pe, ctx| {
        if pe >= n || ctx.mem[b(S_INS)] != 1 {
            return;
        }
        let r = ctx.inbox[0];
        ctx.mem[b(S_RANK)] = r.wrapping_add(ctx.mem[b(S_DIST)]);
        ctx.work(1);
    });
}

/// Run NO-LR on the list `succ` (sentinel `u64::MAX` or `succ.len()`
/// marks the tail). Returns the machine and the ranks (distance to the
/// end of the list).
pub fn no_listrank(succ: &[u64]) -> (NoMachine, Vec<u64>) {
    let n = succ.len();
    assert!(n >= 1);
    let n_pes = n.next_power_of_two();
    let mut m = NoMachine::new(n_pes);
    // Depth bound: each level removes ≥ (n-2)/3 nodes.
    let mut depths = 2usize;
    let mut sz = n;
    while sz > BASE {
        sz -= (sz - 2) / 3;
        depths += 1;
    }
    let frame = SLOTS * (depths + 2);
    let sent_in = n as u64;
    let mut pred = vec![SENT; n];
    for (v, &s) in succ.iter().enumerate() {
        if s != SENT && s != sent_in {
            pred[s as usize] = v as u64;
        }
    }
    for pe in 0..n_pes {
        let mem = m.mem_mut(pe);
        mem.resize(frame, 0);
        if pe < n {
            let s = succ[pe];
            mem[S_SUCC] = if s == sent_in { SENT } else { s };
            mem[S_PRED] = pred[pe];
            mem[S_DIST] = 1;
        }
    }
    lr_level(&mut m, n, 0);
    let ranks = (0..n).map(|pe| m.mem(pe)[S_RANK]).collect();
    (m, ranks)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reference_ranks(succ: &[u64]) -> Vec<u64> {
        let n = succ.len();
        let mut pred = vec![SENT; n];
        for (v, &s) in succ.iter().enumerate() {
            if s != SENT {
                pred[s as usize] = v as u64;
            }
        }
        let head = (0..n).find(|&v| pred[v] == SENT).unwrap();
        let mut order = vec![head];
        while succ[*order.last().unwrap()] != SENT {
            order.push(succ[*order.last().unwrap()] as usize);
        }
        let mut rank = vec![0u64; n];
        for (pos, &v) in order.iter().enumerate() {
            rank[v] = (n - 1 - pos) as u64;
        }
        rank
    }

    fn random_list(n: usize, seed: u64) -> Vec<u64> {
        let mut order: Vec<usize> = (0..n).collect();
        let mut x = seed | 1;
        for i in (1..n).rev() {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let j = ((x >> 33) as usize) % (i + 1);
            order.swap(i, j);
        }
        let mut succ = vec![SENT; n];
        for w in order.windows(2) {
            succ[w[0]] = w[1] as u64;
        }
        succ
    }

    #[test]
    fn ranks_identity_and_random_lists() {
        for n in [1usize, 2, 5, 8, 9, 50, 300, 1000] {
            let succ = random_list(n, 13 + n as u64);
            let (_, got) = no_listrank(&succ);
            assert_eq!(got, reference_ranks(&succ), "n = {n}");
        }
    }

    /// Theorem 9 shape: communication is Θ(n/p) at B = 1 — the measured
    /// constant (~12 send-bearing supersteps per contraction level, times
    /// the geometric Σ n_j = 3n) stays stable as n doubles — and blocking
    /// reduces it.
    #[test]
    fn communication_shape() {
        let p = 16;
        let comm = |n: usize| {
            let succ = random_list(n, 3);
            let (m, _) = no_listrank(&succ);
            (
                m.communication_complexity(p, 1) as f64,
                m.communication_complexity(p, 8) as f64,
            )
        };
        let (a1, a8) = comm(1024);
        let (b1, _) = comm(2048);
        let ratio = b1 / a1;
        assert!(
            (1.5..=2.5).contains(&ratio),
            "comm not linear in n: x{ratio}"
        );
        // Blocking helps substantially (redistribution is contiguous).
        assert!(a8 < 0.7 * a1, "B=8 {a8} vs B=1 {a1}");
    }
}
