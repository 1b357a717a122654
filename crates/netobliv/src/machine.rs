//! The M(N) superstep machine with deferred M(p,B) / D-BSP accounting.

use std::ops::Range;

use crate::comm::Scope;
use crate::engine::{Engine, Inbox, Msg, Post};
use crate::partition::{num_levels, pair_level};

/// One processing element's view during a superstep.
pub struct Pe<'a> {
    /// This PE's unbounded local memory.
    pub mem: &'a mut Vec<u64>,
    /// Words delivered from the previous superstep, ordered by source
    /// PE and, within a source, in send order.
    pub inbox: &'a [u64],
    /// The `(src, len)` runs of [`inbox`](Self::inbox): one per source
    /// that sent, sources ascending.
    pub inbox_runs: &'a [(u32, u32)],
    post: &'a mut Post,
    ops: &'a mut u64,
    pe: usize,
    /// The PEs this one may send to, empty when none.
    group: Range<usize>,
    n: usize,
}

impl<'a> Pe<'a> {
    /// The view the [`Engine`] hands a PE's closure: its memory, last
    /// superstep's inbox, where its sends are written, its `group` of
    /// the step's scope (`pe..pe` for none), and `ops`, which
    /// accumulates the computation charged through [`Pe::work`].
    pub(crate) fn new(
        mem: &'a mut Vec<u64>,
        inbox: &'a Inbox,
        post: &'a mut Post,
        ops: &'a mut u64,
        pe: usize,
        group: Range<usize>,
        n: usize,
    ) -> Pe<'a> {
        Pe {
            mem,
            inbox: &inbox.words,
            inbox_runs: &inbox.runs,
            post,
            ops,
            pe,
            group,
            n,
        }
    }
}

impl Pe<'_> {
    /// This PE's index.
    pub fn id(&self) -> usize {
        self.pe
    }

    /// Total number of PEs.
    pub fn n_pes(&self) -> usize {
        self.n
    }

    /// The group of this superstep's [`Scope`] that this PE may send
    /// within: [`Scope::group_of`]`(pe, n)`, found without a search.
    pub fn group(&self) -> Option<Range<usize>> {
        (!self.group.is_empty()).then(|| self.group.clone())
    }

    /// Send one word to `dst` (delivered at the start of the next
    /// superstep).
    #[inline]
    pub fn send(&mut self, dst: usize, word: u64) {
        debug_assert!(dst < self.n, "send to PE {dst} out of range");
        self.post.send(self.pe, &self.group, dst, &[word]);
    }

    /// Send several words to `dst` (arrive contiguously, in order).
    #[inline]
    pub fn send_words(&mut self, dst: usize, words: &[u64]) {
        debug_assert!(dst < self.n, "send to PE {dst} out of range");
        self.post.send(self.pe, &self.group, dst, words);
    }

    /// Send the words `range` of this PE's own memory to `dst`: the
    /// same as `send_words(dst, &mem[range])`, without staging a copy.
    #[inline]
    pub fn send_mem(&mut self, dst: usize, range: Range<usize>) {
        debug_assert!(dst < self.n, "send to PE {dst} out of range");
        self.post.send(self.pe, &self.group, dst, &self.mem[range]);
    }

    /// Charge local computation.
    pub fn work(&mut self, ops: u64) {
        *self.ops += ops;
    }

    /// All inbox words from a given source, in send order.
    pub fn from(&self, src: usize) -> &[u64] {
        let mut at = 0;
        for &(s, len) in self.inbox_runs {
            let end = at + len as usize;
            if s as usize == src {
                return &self.inbox[at..end];
            }
            at = end;
        }
        &[]
    }
}

/// A malformed cost-model query: the machine parameters handed to
/// [`NoMachine::try_communication_complexity`] or
/// [`NoMachine::try_dbsp_time`] do not describe a valid M(p,B)/D-BSP
/// instance.
///
/// The unchecked variants ([`NoMachine::communication_complexity`],
/// [`NoMachine::dbsp_time`]) panic on these conditions; benches and
/// services evaluating user- or config-supplied parameters should use
/// the `try_` forms and surface the error instead of dying mid-run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CostModelError {
    /// `p == 0`: there is no zero-processor machine.
    ZeroProcessors,
    /// `B == 0`: blocks must hold at least one word.
    ZeroBlockSize {
        /// Index of the offending entry in the `b` vector (0 for the
        /// scalar M(p,B) query).
        level: usize,
    },
    /// D-BSP requires `p` to be a power of two (clusters halve).
    NotPowerOfTwo {
        /// The offending processor count.
        p: usize,
    },
    /// `g`/`b` must each carry one entry per cluster level, `log₂ p`.
    LengthMismatch {
        /// Required length, `log₂ p`.
        expected: usize,
        /// Supplied `g.len()`.
        g_len: usize,
        /// Supplied `b.len()`.
        b_len: usize,
    },
}

impl std::fmt::Display for CostModelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            CostModelError::ZeroProcessors => write!(f, "p must be >= 1"),
            CostModelError::ZeroBlockSize { level } => {
                write!(f, "block size B must be >= 1 (level {level})")
            }
            CostModelError::NotPowerOfTwo { p } => {
                write!(f, "D-BSP processor count must be a power of two, got {p}")
            }
            CostModelError::LengthMismatch {
                expected,
                g_len,
                b_len,
            } => write!(
                f,
                "D-BSP parameter vectors must have log2(p) = {expected} entries, \
                 got g.len() = {g_len}, b.len() = {b_len}"
            ),
        }
    }
}

impl std::error::Error for CostModelError {}

/// The M(N) machine: executes supersteps and logs costs.
///
/// Execution is sequential and deterministic: the one-worker case of
/// the shared [`Engine`] — within a superstep PEs run in index order,
/// and messages are delivered sorted by source.
pub struct NoMachine {
    engine: Engine,
}

impl NoMachine {
    /// A machine with `n` PEs, all memories empty.
    pub fn new(n: usize) -> Self {
        assert!(n >= 1);
        Self {
            engine: Engine::new(n, 1, 0),
        }
    }

    /// Number of PEs `N`.
    pub fn n_pes(&self) -> usize {
        self.engine.n_pes()
    }

    /// Read access to a PE's memory (host-side input/output marshalling).
    pub fn mem(&self, pe: usize) -> &[u64] {
        self.engine.mem(pe).expect("PE index out of range")
    }

    /// Mutable access to a PE's memory (input loading only — does not
    /// count as communication).
    pub fn mem_mut(&mut self, pe: usize) -> &mut Vec<u64> {
        self.engine.mem_mut(pe).expect("PE index out of range")
    }

    /// Execute one superstep: `f(pe, ctx)` runs for every PE; messages
    /// sent become visible in the next superstep.
    pub fn step<F: FnMut(usize, &mut Pe<'_>)>(&mut self, mut f: F) {
        self.step_impl(Scope::All, &mut f);
    }

    /// A send outside the declared scope is a bug in the driver, on the
    /// simulator a panic naming the offending pair.
    fn step_impl(&mut self, scope: Scope<'_>, f: &mut dyn FnMut(usize, &mut Pe<'_>)) {
        if let Err(violation) = self.engine.compute(scope, f) {
            panic!("{violation}");
        }
        self.engine.deliver();
    }

    /// Number of supersteps executed.
    pub fn supersteps(&self) -> usize {
        self.engine.supersteps()
    }

    /// The communication pattern as data: per superstep, the sorted
    /// `(src_pe, dst_pe, words)` triples of cross-PE traffic.
    ///
    /// A *network-oblivious* algorithm's signature depends only on the
    /// input size, never on the input values — comparing signatures
    /// across same-size inputs is the machine-level obliviousness check
    /// (the D-BSP optimality theorems of §VI quantify over the pattern,
    /// not the data).
    pub fn traffic_signature(&self) -> Vec<Vec<Msg>> {
        self.engine.traffic_signature()
    }

    /// Total words sent across all supersteps (PE-level, excluding
    /// same-PE messages).
    pub fn total_words(&self) -> u64 {
        (0..self.supersteps())
            .flat_map(|s| self.engine.step_traffic(s))
            .map(|t| t.2)
            .sum()
    }

    fn proc_of(&self, pe: u32, p: usize) -> usize {
        // p contiguous groups of ⌈N/p⌉ PEs: M(p, B) allows p ∤ N, which
        // a fleet's `Partition` refuses.
        let per = self.n_pes().div_ceil(p);
        pe as usize / per
    }

    /// The h-relation of superstep `s` on `p` processors with blocks of
    /// `block` words: max over processors of max(blocks sent, blocks
    /// received), the words of each (src, dst) processor pair packed
    /// into `⌈words/block⌉` blocks.
    fn h_relation(&self, s: usize, p: usize, block: usize) -> u64 {
        let mut pairs: Vec<(usize, usize, u64)> = self
            .engine
            .step_traffic(s)
            .map(|(s, d, w)| (self.proc_of(s, p), self.proc_of(d, p), w))
            .filter(|&(sp, dp, _)| sp != dp)
            .collect();
        pairs.sort_unstable();
        let mut sent = vec![0u64; p];
        let mut recv = vec![0u64; p];
        for pair in pairs.chunk_by(|a, b| (a.0, a.1) == (b.0, b.1)) {
            let words: u64 = pair.iter().map(|t| t.2).sum();
            let blocks = words.div_ceil(block as u64);
            sent[pair[0].0] += blocks;
            recv[pair[0].1] += blocks;
        }
        sent.iter()
            .zip(&recv)
            .map(|(s, r)| *s.max(r))
            .max()
            .unwrap_or(0)
    }

    /// Communication complexity on M(p, B): Σ_steps max_proc
    /// max(blocks sent, blocks received), with per-destination block
    /// packing (`⌈words/B⌉` per (src,dst) processor pair).
    ///
    /// Panics on `p == 0` or `b == 0`; see
    /// [`try_communication_complexity`](Self::try_communication_complexity)
    /// for the checked form.
    pub fn communication_complexity(&self, p: usize, b: usize) -> u64 {
        self.try_communication_complexity(p, b)
            .expect("invalid M(p,B) parameters")
    }

    /// Checked [`communication_complexity`](Self::communication_complexity):
    /// returns a typed [`CostModelError`] instead of panicking on
    /// degenerate machine parameters.
    pub fn try_communication_complexity(&self, p: usize, b: usize) -> Result<u64, CostModelError> {
        if p == 0 {
            return Err(CostModelError::ZeroProcessors);
        }
        if b == 0 {
            return Err(CostModelError::ZeroBlockSize { level: 0 });
        }
        let steps = 0..self.supersteps();
        Ok(steps.map(|s| self.h_relation(s, p, b)).sum())
    }

    /// Computation complexity on M(p, ·): Σ_steps max_proc Σ ops of its
    /// PEs.
    pub fn computation_complexity(&self, p: usize) -> u64 {
        let mut total = 0u64;
        for s in 0..self.supersteps() {
            let mut per = vec![0u64; p];
            for &(pe, ops) in self.engine.step_ops(s) {
                per[self.proc_of(pe, p)] += ops;
            }
            total += per.iter().max().copied().unwrap_or(0);
        }
        total
    }

    /// Communication time on D-BSP(P, g, B): for each superstep, find the
    /// finest cluster level `i` containing all traffic (clusters of size
    /// `P/2^i`), and charge `h_s(B_i) · g_i`.
    ///
    /// `g.len() == b.len() == log₂ P`; index 0 is the whole machine.
    ///
    /// Panics on non-power-of-two `p` or mis-sized `g`/`b`; see
    /// [`try_dbsp_time`](Self::try_dbsp_time) for the checked form.
    pub fn dbsp_time(&self, p: usize, g: &[f64], b: &[usize]) -> f64 {
        self.try_dbsp_time(p, g, b)
            .expect("invalid D-BSP parameters")
    }

    /// Checked [`dbsp_time`](Self::dbsp_time): returns a typed
    /// [`CostModelError`] instead of panicking when `p` is not a power
    /// of two, `g`/`b` do not carry `log₂ p` entries, or a block size
    /// is zero.
    pub fn try_dbsp_time(&self, p: usize, g: &[f64], b: &[usize]) -> Result<f64, CostModelError> {
        if p == 0 {
            return Err(CostModelError::ZeroProcessors);
        }
        if !p.is_power_of_two() {
            return Err(CostModelError::NotPowerOfTwo { p });
        }
        let logp = num_levels(p);
        if g.len() != logp || b.len() != logp {
            return Err(CostModelError::LengthMismatch {
                expected: logp,
                g_len: g.len(),
                b_len: b.len(),
            });
        }
        if let Some(level) = b.iter().position(|&bs| bs == 0) {
            return Err(CostModelError::ZeroBlockSize { level });
        }
        if logp == 0 {
            return Ok(0.0);
        }
        let mut time = 0.0;
        for step in 0..self.supersteps() {
            // Finest level whose clusters contain all (src,dst) pairs.
            let mut level = logp - 1; // smallest clusters (size 2)
            let mut any = false;
            for (s, d, _) in self.engine.step_traffic(step) {
                let (sp, dp) = (self.proc_of(s, p), self.proc_of(d, p));
                if sp == dp {
                    continue;
                }
                any = true;
                level = level.min(pair_level(sp, dp, p));
            }
            if !any {
                continue;
            }
            let h = self.h_relation(step, p, b[level]);
            time += h as f64 * g[level];
        }
        Ok(time)
    }
}

impl crate::Comm for NoMachine {
    fn n_pes(&self) -> usize {
        self.engine.n_pes()
    }

    fn owns(&self, pe: usize) -> bool {
        pe < self.engine.n_pes()
    }

    fn pe_mem_mut(&mut self, pe: usize) -> Option<&mut Vec<u64>> {
        self.engine.mem_mut(pe)
    }

    fn pe_mem(&self, pe: usize) -> Option<&[u64]> {
        self.engine.mem(pe)
    }

    fn step_dyn(&mut self, scope: Scope<'_>, f: &mut dyn FnMut(usize, &mut Pe<'_>)) {
        self.step_impl(scope, f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_are_delivered_next_step() {
        let mut m = NoMachine::new(4);
        m.step(|pe, ctx| {
            ctx.send((pe + 1) % 4, pe as u64 * 10);
        });
        m.step(|pe, ctx| {
            assert_eq!(ctx.inbox, [((pe + 3) % 4) as u64 * 10]);
        });
        assert_eq!(m.supersteps(), 2);
    }

    #[test]
    fn same_processor_messages_are_free() {
        let mut m = NoMachine::new(8);
        // Ring of single-word messages.
        m.step(|pe, ctx| ctx.send((pe + 1) % 8, 1));
        // On p=8 every message crosses processors: h = 1.
        assert_eq!(m.communication_complexity(8, 1), 1);
        // On p=2, only PEs 3→4 and 7→0 cross: each processor sends or
        // receives 1 block.
        assert_eq!(m.communication_complexity(2, 1), 1);
        // On p=1 everything is local.
        assert_eq!(m.communication_complexity(1, 1), 0);
    }

    #[test]
    fn block_packing_rounds_up_per_pair() {
        let mut m = NoMachine::new(4);
        // PE0 sends 5 words to PE2 and 3 words to PE3.
        m.step(|pe, ctx| {
            if pe == 0 {
                ctx.send_words(2, &[1, 2, 3, 4, 5]);
                ctx.send_words(3, &[6, 7, 8]);
            }
        });
        // p = 4, B = 4: ceil(5/4) + ceil(3/4) = 3 blocks sent by proc 0.
        assert_eq!(m.communication_complexity(4, 4), 3);
        // B = 8: 1 + 1 = 2.
        assert_eq!(m.communication_complexity(4, 8), 2);
        // p = 2: PEs {2,3} on proc 1: pairs (0,2),(0,3) both cross but
        // aggregate per processor pair: (p0,p1): 8 words => ceil(8/4)=2.
        assert_eq!(m.communication_complexity(2, 4), 2);
    }

    #[test]
    fn receive_side_counts_too() {
        let mut m = NoMachine::new(4);
        // All PEs send 1 word to PE0: proc0 receives 3 blocks (p=4,B=1).
        m.step(|pe, ctx| {
            if pe != 0 {
                ctx.send(0, 7);
            }
        });
        assert_eq!(m.communication_complexity(4, 1), 3);
    }

    #[test]
    fn computation_takes_max_over_processors() {
        let mut m = NoMachine::new(4);
        m.step(|pe, ctx| ctx.work(pe as u64 + 1));
        assert_eq!(m.computation_complexity(4), 4);
        assert_eq!(m.computation_complexity(2), 3 + 4);
        assert_eq!(m.computation_complexity(1), 10);
    }

    #[test]
    fn dbsp_uses_cluster_locality() {
        let mut m = NoMachine::new(8);
        // Neighbour exchange within pairs: finest clusters (size 2).
        m.step(|pe, ctx| ctx.send(pe ^ 1, 1));
        // Far exchange: whole machine.
        m.step(|pe, ctx| ctx.send(pe ^ 4, 1));
        let g = [8.0, 4.0, 1.0]; // g_0 (global) .. g_2 (pairs)
        let b = [1usize, 1, 1];
        // Step 1: level 2 (pairs), h = 1 → cost 1; step 2: level 0, h=1 →
        // cost 8.
        let t = m.dbsp_time(8, &g, &b);
        assert!((t - 9.0).abs() < 1e-9, "got {t}");
    }

    #[test]
    fn inbox_is_sorted_by_source() {
        let mut m = NoMachine::new(4);
        m.step(|pe, ctx| {
            if pe > 0 {
                ctx.send(0, pe as u64);
            }
        });
        m.step(|pe, ctx| {
            if pe == 0 {
                assert_eq!(ctx.inbox, [1, 2, 3]);
                assert_eq!(ctx.inbox_runs, [(1, 1), (2, 1), (3, 1)]);
            }
        });
    }
}
