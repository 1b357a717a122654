//! The superstep engine every [`Comm`](crate::Comm) backend runs.
//!
//! One worker of a `W`-worker machine owns a contiguous run of `N/W`
//! PEs ([`NoMachine`](crate::NoMachine) is the `W = 1` case). A
//! superstep is the same pipeline on every backend:
//!
//! 1. **compute** — the driver closure runs for every owned PE in
//!    increasing index order;
//! 2. **partition** — each PE's outbox is walked by runs of equal
//!    destination: a run is checked against the declared [`Scope`] once
//!    and appended whole to its destination worker's buffer (scanning
//!    sources in increasing order keeps every buffer sorted by source);
//! 3. **signature log** — every cross-PE run is one `(src, dst, len)`
//!    row, so a block of words costs one entry, not one per word; the
//!    step's rows are then sorted (linear when drivers send in ascending
//!    destination order, as they mostly do) and rows of one pair merged,
//!    without any map;
//! 4. **deliver** — the per-worker buffers, taken in worker order, are
//!    appended to the owned inboxes. Worker ranges ascend with the
//!    worker index, so every inbox ends up ordered by source PE and,
//!    within a source, in send order — no sort.
//!
//! A socket backend adds only the exchange between 3 and 4: it ships
//! [`Engine::peer_buf`]`(w)` to worker `w` and refills it with what `w`
//! sent back. All buffers are reused across supersteps.

use std::ops::Range;

use crate::comm::Scope;
use crate::machine::Pe;

/// One message or one signature row: `(src_pe, dst_pe, word_or_count)`.
pub type Msg = (u32, u32, u64);

/// Capacity (in messages) a reused buffer keeps between supersteps.
/// Reuse pays in the many-small-supersteps regime, where allocation
/// rivals the work; a bulk superstep's buffers are released instead, so
/// `W` workers do not each pin their largest step for the whole run.
const KEEP_MSGS: usize = 512;

/// A PE sent a message outside the scope its driver declared.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScopeViolation {
    /// Superstep index the send happened in.
    pub superstep: usize,
    /// Sending PE.
    pub src: usize,
    /// Addressed PE.
    pub dst: usize,
}

impl std::fmt::Display for ScopeViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "superstep {}: PE {} sent to PE {} outside its declared scope",
            self.superstep, self.src, self.dst
        )
    }
}

impl std::error::Error for ScopeViolation {}

/// Per-superstep log: pair-aggregated traffic and per-PE op counts
/// (sparse), both for owned source PEs only.
#[derive(Debug, Clone)]
pub(crate) struct StepLog {
    /// Sorted `(src_pe, dst_pe, words)` rows of cross-PE messages.
    pub(crate) traffic: Vec<Msg>,
    /// `(pe, ops)` for PEs that charged work.
    pub(crate) ops: Vec<(u32, u64)>,
}

/// The superstep pipeline over one worker's PEs.
#[derive(Debug)]
pub struct Engine {
    n: usize,
    share: usize,
    me: usize,
    mem: Vec<Vec<u64>>,
    inbox: Vec<Vec<(u32, u64)>>,
    /// The running PE's outbox (partitioned as soon as its closure
    /// returns, so one suffices).
    outbox: Vec<(u32, u64)>,
    /// Scratch: the rows of the step being logged (copied out at their
    /// exact size — a log grown by pushing would carry up to 2× slack
    /// for the whole run).
    rows: Vec<Msg>,
    /// One message buffer per worker; empty between supersteps.
    bufs: Vec<Vec<Msg>>,
    pub(crate) log: Vec<StepLog>,
}

impl Engine {
    /// The engine of worker `me` of `workers`, on a machine of `n_pes`
    /// PEs split into contiguous equal shares.
    pub fn new(n_pes: usize, workers: usize, me: usize) -> Self {
        assert!(workers >= 1 && me < workers);
        assert!(
            n_pes >= workers && n_pes.is_multiple_of(workers),
            "{workers} workers must divide {n_pes} PEs"
        );
        let share = n_pes / workers;
        Self {
            n: n_pes,
            share,
            me,
            mem: vec![Vec::new(); share],
            inbox: vec![Vec::new(); share],
            outbox: Vec::new(),
            rows: Vec::new(),
            bufs: vec![Vec::new(); workers],
            log: Vec::new(),
        }
    }

    /// Machine-wide PE count `N`.
    pub fn n_pes(&self) -> usize {
        self.n
    }

    /// The PEs this engine owns.
    pub fn owned(&self) -> Range<usize> {
        self.me * self.share..(self.me + 1) * self.share
    }

    /// An owned PE's memory.
    pub fn mem(&self, pe: usize) -> Option<&[u64]> {
        let i = pe.checked_sub(self.owned().start)?;
        self.mem.get(i).map(Vec::as_slice)
    }

    /// An owned PE's memory, mutably.
    pub fn mem_mut(&mut self, pe: usize) -> Option<&mut Vec<u64>> {
        let i = pe.checked_sub(self.owned().start)?;
        self.mem.get_mut(i)
    }

    /// Consume the engine, returning the owned PE memories.
    pub fn into_mems(self) -> Vec<Vec<u64>> {
        self.mem
    }

    /// Supersteps computed so far.
    pub fn supersteps(&self) -> usize {
        self.log.len()
    }

    /// Per superstep, the sorted `(src_pe, dst_pe, words)` rows of
    /// cross-PE traffic sent by owned PEs.
    pub fn traffic_signature(&self) -> Vec<Vec<Msg>> {
        self.log.iter().map(|s| s.traffic.clone()).collect()
    }

    /// Total operations charged by owned PEs.
    pub fn total_ops(&self) -> u64 {
        self.log.iter().flat_map(|s| &s.ops).map(|o| o.1).sum()
    }

    /// The workers whose PE range shares a group of `scope` with this
    /// engine's, this one included (empty when no group touches it).
    /// The range is contiguous: only the first and last group touching
    /// the owned range can reach past it. Both ends of a worker pair
    /// compute the same answer, so the pair agrees on whether to talk.
    pub fn peer_span(&self, scope: Scope<'_>) -> Range<usize> {
        let own = self.owned();
        match scope {
            Scope::All => 0..self.bufs.len(),
            Scope::None => self.me..self.me,
            Scope::Groups { starts, size } => {
                let first = starts.partition_point(|&s| s + size <= own.start);
                let end = starts.partition_point(|&s| s < own.end);
                if first >= end {
                    return self.me..self.me;
                }
                let last_pe = (starts[end - 1] + size - 1).min(self.n - 1);
                starts[first] / self.share..last_pe / self.share + 1
            }
        }
    }

    /// Phases 1–3: run `f` on every owned PE, check each send against
    /// `scope`, log the step, and fill the per-worker buffers.
    ///
    /// After an `Err` the engine holds a half-built step and must not
    /// be stepped again.
    pub fn compute(
        &mut self,
        scope: Scope<'_>,
        f: &mut dyn FnMut(usize, &mut Pe<'_>),
    ) -> Result<(), ScopeViolation> {
        if let Scope::Groups { starts, size } = scope {
            debug_assert!(
                size >= 1 && starts.windows(2).all(|w| w[0] + size <= w[1]),
                "scope groups must be ascending and disjoint"
            );
        }
        let lo = self.owned().start;
        let mut ops_log = Vec::new();
        self.rows.clear();
        for i in 0..self.share {
            let pe = lo + i;
            let mut ops = 0u64;
            f(
                pe,
                &mut Pe::new(
                    &mut self.mem[i],
                    &self.inbox[i],
                    &mut self.outbox,
                    &mut ops,
                    pe,
                    self.n,
                ),
            );
            if ops > 0 {
                ops_log.push((pe as u32, ops));
            }
            if self.outbox.is_empty() {
                continue;
            }
            let group = scope.group_of(pe, self.n).unwrap_or(pe..pe);
            for run in self.outbox.chunk_by(|a, b| a.0 == b.0) {
                let dst = run[0].0;
                if !group.contains(&(dst as usize)) {
                    return Err(ScopeViolation {
                        superstep: self.log.len(),
                        src: pe,
                        dst: dst as usize,
                    });
                }
                if dst as usize != pe {
                    self.rows.push((pe as u32, dst, run.len() as u64));
                }
                self.bufs[dst as usize / self.share]
                    .extend(run.iter().map(|&(_, word)| (pe as u32, dst, word)));
            }
            self.outbox.clear();
        }
        // One row per run so far, sources ascending. Drivers mostly send
        // in ascending destination order too, and the sort is linear on
        // sorted input; what it leaves adjacent is merged per pair.
        self.rows.sort_unstable_by_key(|r| (r.0, r.1));
        self.rows.dedup_by(|next, row| {
            let same_pair = (next.0, next.1) == (row.0, row.1);
            if same_pair {
                row.2 += next.2;
            }
            same_pair
        });
        self.outbox.shrink_to(KEEP_MSGS);
        self.log.push(StepLog {
            traffic: self.rows.clone(),
            ops: ops_log,
        });
        Ok(())
    }

    /// The buffer of messages addressed to worker `w` (after
    /// [`compute`](Self::compute)); an exchanging backend replaces its
    /// contents with the messages `w` sent here, sorted by source.
    pub fn peer_buf(&mut self, w: usize) -> &mut Vec<Msg> {
        &mut self.bufs[w]
    }

    /// Phase 4: move every buffered message into its inbox, visible to
    /// the next superstep. Every destination must be an owned PE.
    pub fn deliver(&mut self) {
        for ib in &mut self.inbox {
            ib.clear();
        }
        let lo = self.owned().start;
        for buf in &mut self.bufs {
            for (src, dst, word) in buf.drain(..) {
                self.inbox[dst as usize - lo].push((src, word));
            }
            buf.shrink_to(KEEP_MSGS);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peer_span_covers_exactly_the_workers_sharing_a_group() {
        // 64 PEs over 4 workers: ranges 0..16, 16..32, 32..48, 48..64.
        let span = |me: usize, scope: Scope<'_>| Engine::new(64, 4, me).peer_span(scope);
        assert_eq!(span(1, Scope::All), 0..4);
        assert!(span(1, Scope::None).is_empty());
        // Worker-aligned groups never leave a worker.
        let aligned = Scope::Groups {
            starts: &[0, 16, 32, 48],
            size: 16,
        };
        assert_eq!(span(2, aligned), 2..3);
        // Half-offset groups straddle every worker boundary.
        let offset = Scope::Groups {
            starts: &[8, 24, 40],
            size: 16,
        };
        assert_eq!(span(0, offset), 0..2);
        assert_eq!(span(1, offset), 0..3);
        assert_eq!(span(2, offset), 1..4);
        assert_eq!(span(3, offset), 2..4);
        // A group wider than a worker reaches every worker it covers.
        let wide = Scope::Groups {
            starts: &[0],
            size: 48,
        };
        assert_eq!(span(1, wide), 0..3);
        assert!(span(3, wide).is_empty());
        // Symmetry: w is in me's span iff me is in w's.
        for scope in [aligned, offset, wide] {
            for a in 0..4 {
                for b in 0..4 {
                    if a != b {
                        assert_eq!(span(a, scope).contains(&b), span(b, scope).contains(&a));
                    }
                }
            }
        }
    }

    #[test]
    fn signature_rows_are_sorted_and_run_length_counted() {
        let mut e = Engine::new(4, 1, 0);
        e.compute(Scope::All, &mut |pe, ctx| {
            if pe == 1 {
                for dst in [3, 0, 3, 1, 0, 3] {
                    ctx.send(dst, 9);
                }
            }
        })
        .unwrap();
        e.deliver();
        // The same-PE message is delivered but not logged.
        assert_eq!(e.traffic_signature(), vec![vec![(1, 0, 2), (1, 3, 3)]]);
    }

    /// Interleaved runs to two destinations and to the sender itself,
    /// from two sources, mixing `send` and `send_words`: one row per
    /// `(src, dst)` pair, every inbox in source-then-send order.
    #[test]
    fn destination_runs_are_merged_per_pair_and_delivered_in_send_order() {
        const A: usize = 3;
        const B: usize = 0;
        let mut e = Engine::new(4, 1, 0);
        e.compute(Scope::All, &mut |pe, ctx| {
            if pe == 1 || pe == 2 {
                let tag = pe as u64 * 100;
                ctx.send_words(A, &[tag, tag + 1]);
                ctx.send_words(B, &[]);
                ctx.send(B, tag + 2);
                ctx.send(A, tag + 3);
                ctx.send(pe, tag + 4);
                ctx.send(B, tag + 5);
            }
        })
        .unwrap();
        e.deliver();
        assert_eq!(
            e.traffic_signature(),
            vec![vec![(1, 0, 2), (1, 3, 3), (2, 0, 2), (2, 3, 3)]]
        );
        assert_eq!(
            e.inbox[A],
            [(1, 100), (1, 101), (1, 103), (2, 200), (2, 201), (2, 203)]
        );
        assert_eq!(e.inbox[B], [(1, 102), (1, 105), (2, 202), (2, 205)]);
        assert_eq!(e.inbox[1], [(1, 104)]);
        assert_eq!(e.inbox[2], [(2, 204)]);
    }

    #[test]
    fn empty_send_words_sends_nothing() {
        let mut e = Engine::new(4, 1, 0);
        // Out of scope for PE 0, were it a message.
        e.compute(Scope::None, &mut |_, ctx| ctx.send_words(3, &[]))
            .unwrap();
        e.deliver();
        assert_eq!(e.traffic_signature(), vec![vec![]]);
        assert!(e.inbox.iter().all(Vec::is_empty));
    }

    /// The scope is checked once per destination run; a violation in a
    /// later run of an outbox is still caught and names its pair.
    #[test]
    fn scope_violation_in_a_later_run_names_the_pair_and_superstep() {
        let pairs = Scope::Groups {
            starts: &[0, 2],
            size: 2,
        };
        let mut e = Engine::new(4, 1, 0);
        e.compute(pairs, &mut |pe, ctx| ctx.send(pe ^ 1, 7))
            .unwrap();
        e.deliver();
        let err = e
            .compute(pairs, &mut |pe, ctx| {
                if pe == 2 {
                    ctx.send_words(3, &[1, 2]);
                    ctx.send_words(1, &[3, 4]);
                }
            })
            .unwrap_err();
        assert_eq!(
            err,
            ScopeViolation {
                superstep: 1,
                src: 2,
                dst: 1
            }
        );
    }
}
