//! The superstep engine every [`Comm`](crate::Comm) backend runs.
//!
//! One worker of a `W`-worker machine owns a contiguous run of `N/W`
//! PEs ([`NoMachine`](crate::NoMachine) is the `W = 1` case). A
//! superstep is the same pipeline on every backend:
//!
//! 1. **compute** — the driver closure runs for every owned PE in
//!    increasing index order;
//! 2. **partition** — each PE's outbox is checked against the declared
//!    [`Scope`] and split into one buffer per destination worker
//!    (scanning sources in increasing order keeps every buffer sorted
//!    by source);
//! 3. **signature log** — the PE's `(src, dst) → words` rows come from
//!    sorting its destinations and run-length counting them, so the
//!    step's rows are sorted without any map;
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
    /// Scratch: the running PE's cross-PE destinations, and the rows
    /// of the step being logged (copied out at their exact size — a
    /// log grown by pushing would carry up to 2× slack for the whole
    /// run).
    dsts: Vec<u32>,
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
            dsts: Vec::new(),
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
            self.dsts.clear();
            for (dst, word) in self.outbox.drain(..) {
                if !group.contains(&(dst as usize)) {
                    return Err(ScopeViolation {
                        superstep: self.log.len(),
                        src: pe,
                        dst: dst as usize,
                    });
                }
                if dst as usize != pe {
                    self.dsts.push(dst);
                }
                self.bufs[dst as usize / self.share].push((pe as u32, dst, word));
            }
            self.dsts.sort_unstable();
            for run in self.dsts.chunk_by(|a, b| a == b) {
                self.rows.push((pe as u32, run[0], run.len() as u64));
            }
        }
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
}
