//! The superstep engine every [`Comm`](crate::Comm) backend runs.
//!
//! One worker of a `W`-worker machine owns a contiguous run of `N/W`
//! PEs ([`NoMachine`](crate::NoMachine) is the `W = 1` case). Messages
//! travel as *runs* from outbox to inbox: the words one source sent one
//! destination back to back, under one header, never one tag per word.
//! A superstep is the same pipeline on every backend:
//!
//! 1. **compute** — the driver closure runs for every owned PE in
//!    increasing index order; its sends land in a [`Mailbox`] of
//!    `(dst, len)` runs (consecutive sends to one destination extend
//!    one run);
//! 2. **partition** — each run is checked against the declared
//!    [`Scope`] once and copied as one slice into its destination
//!    worker's [`Runs`] buffer (scanning sources in increasing order
//!    keeps every buffer sorted by source);
//! 3. **signature log** — every cross-PE run is one `(src, dst, len)`
//!    row, so a block of words costs one entry, not one per word; a run
//!    of the pair just seen merges into its row. Rows are coded as
//!    varints ([`codec`](crate::codec)) into the log as the step goes,
//!    as a fleet worker ships them. Drivers mostly send in ascending
//!    destination order; only a step whose rows did not come out sorted
//!    is read back, sorted and merged per pair, without any map;
//! 4. **deliver** — the per-worker buffers, taken in worker order, are
//!    copied run by run into the owned inboxes. Worker ranges ascend
//!    with the worker index, so every inbox ends up ordered by source PE
//!    and, within a source, in send order — no sort — with one
//!    `(src, len)` run per source beside its words.
//!
//! A socket backend adds only the exchange between 3 and 4: it ships
//! [`Engine::peer_buf`]`(w)` to worker `w` and refills it with what `w`
//! sent back. Every buffer keeps its capacity for the engine's life,
//! across supersteps and, through [`Engine::reset`], across jobs.

use std::ops::Range;

use crate::codec;
use crate::comm::Scope;
use crate::machine::Pe;

/// One signature row `(src_pe, dst_pe, words)`, or one run header
/// `(src_pe, dst_pe, len)` of a [`Runs`] buffer.
pub type Msg = (u32, u32, u64);

/// Append `words` to a word buffer. A one-word run — every message of
/// the sort's supersteps — is a `push`: the `memcpy` call of a slice
/// copy costs more than the word.
fn append(buf: &mut Vec<u64>, words: &[u64]) {
    if let [w] = words {
        buf.push(*w);
    } else {
        buf.extend_from_slice(words);
    }
}

/// Messages in flight between workers: one `(src, dst, len)` header per
/// run and every run's words back to back, in header order.
///
/// This is the unit a socket backend frames: the engine fills one per
/// destination worker, and the exchange refills it with what that
/// worker sent here. Delivery keeps inboxes in source order only if
/// the headers are sorted by source, every `len ≥ 1` and the lengths
/// sum to `words.len()`; a backend that decodes a buffer from outside
/// must check all three.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Runs {
    /// `(src_pe, dst_pe, len)` per run.
    pub heads: Vec<Msg>,
    /// The runs' words, in header order.
    pub words: Vec<u64>,
}

impl Runs {
    /// Append `words` (non-empty) as a run `src → dst`, extending the
    /// last run when it is the same pair.
    #[inline]
    pub fn push(&mut self, src: u32, dst: u32, words: &[u64]) {
        debug_assert!(!words.is_empty(), "a run carries at least one word");
        match self.heads.last_mut() {
            Some(head) if (head.0, head.1) == (src, dst) => head.2 += words.len() as u64,
            _ => self.heads.push((src, dst, words.len() as u64)),
        }
        append(&mut self.words, words);
    }

    /// Drop every run.
    pub fn clear(&mut self) {
        self.heads.clear();
        self.words.clear();
    }
}

/// One PE's outbox or inbox: `(pe, len)` runs, keyed by the destination
/// in an outbox and by the source in an inbox, and their words back to
/// back. Appending to the key of the last run extends it.
#[derive(Debug, Clone, Default)]
pub(crate) struct Mailbox {
    pub(crate) runs: Vec<(u32, u32)>,
    pub(crate) words: Vec<u64>,
}

impl Mailbox {
    fn open(&mut self, pe: u32, len: usize) {
        match self.runs.last_mut() {
            Some(run) if run.0 == pe => run.1 += len as u32,
            _ => self.runs.push((pe, len as u32)),
        }
    }

    /// Append one word keyed by `pe`.
    pub(crate) fn push(&mut self, pe: u32, word: u64) {
        self.open(pe, 1);
        self.words.push(word);
    }

    /// Append `words` keyed by `pe`; nothing at all when it is empty.
    #[inline]
    pub(crate) fn extend(&mut self, pe: u32, words: &[u64]) {
        if words.is_empty() {
            return;
        }
        self.open(pe, words.len());
        append(&mut self.words, words);
    }

    fn clear(&mut self) {
        self.runs.clear();
        self.words.clear();
    }
}

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

/// The superstep pipeline over one worker's PEs. The default engine
/// owns no PEs: [`reset`](Engine::reset) gives it a shape.
#[derive(Debug, Default)]
pub struct Engine {
    n: usize,
    share: usize,
    me: usize,
    mem: Vec<Vec<u64>>,
    inbox: Vec<Mailbox>,
    /// The running PE's outbox (partitioned as soon as its closure
    /// returns, so one suffices).
    outbox: Mailbox,
    /// Scratch: the rows of a step that did not come out ascending,
    /// read back from the log to be sorted and merged per pair.
    rows: Vec<Msg>,
    /// One run buffer per worker; empty between supersteps.
    bufs: Vec<Runs>,
    /// The signature log: per superstep its row count, then its rows
    /// coded from the first owned PE ([`codec`]).
    log: Vec<u8>,
    /// `(pe, ops)` for owned PEs that charged work, step after step.
    ops: Vec<(u32, u64)>,
    /// Per superstep, where its bytes in `log` and its pairs in `ops` end.
    ends: Vec<(usize, usize)>,
}

impl Engine {
    /// The engine of worker `me` of `workers`, on a machine of `n_pes`
    /// PEs split into contiguous equal shares.
    pub fn new(n_pes: usize, workers: usize, me: usize) -> Self {
        let mut engine = Self::default();
        engine.reset(n_pes, workers, me);
        engine
    }

    /// Make this [`new`](Self::new)`(n_pes, workers, me)` in its own
    /// allocations: every memory, mailbox, run buffer and the log
    /// emptied, whatever a failed step left half-built included.
    pub fn reset(&mut self, n_pes: usize, workers: usize, me: usize) {
        assert!(workers >= 1 && me < workers);
        assert!(
            n_pes >= workers && n_pes.is_multiple_of(workers),
            "{workers} workers must divide {n_pes} PEs"
        );
        let share = n_pes / workers;
        (self.n, self.share, self.me) = (n_pes, share, me);
        self.mem.resize_with(share, Vec::new);
        self.mem.iter_mut().for_each(Vec::clear);
        self.inbox.resize_with(share, Mailbox::default);
        self.inbox.iter_mut().for_each(Mailbox::clear);
        self.bufs.resize_with(workers, Runs::default);
        self.bufs.iter_mut().for_each(Runs::clear);
        self.outbox.clear();
        self.rows.clear();
        self.log.clear();
        self.ops.clear();
        self.ends.clear();
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

    /// Every owned PE's memory, in PE order.
    pub fn mems(&self) -> &[Vec<u64>] {
        &self.mem
    }

    /// Where superstep `s`'s bytes in `log` and pairs in `ops` start.
    fn start(&self, s: usize) -> (usize, usize) {
        s.checked_sub(1).map_or((0, 0), |prev| self.ends[prev])
    }

    /// Supersteps computed so far.
    pub fn supersteps(&self) -> usize {
        self.ends.len()
    }

    /// Every logged superstep's row count and rows, coded from
    /// [`owned`](Self::owned)`().start` ([`codec`]).
    pub fn traffic_bytes(&self) -> &[u8] {
        &self.log[..self.start(self.supersteps()).0]
    }

    /// Superstep `s`'s sorted `(src_pe, dst_pe, words)` rows of cross-PE
    /// traffic sent by owned PEs.
    pub fn step_traffic(&self, s: usize) -> impl Iterator<Item = Msg> + '_ {
        let at = self.start(s).0;
        codec::rows_at(&self.log[at..], self.owned().start as u32)
    }

    /// Superstep `s`'s `(pe, ops)` pairs of owned PEs that charged work.
    pub fn step_ops(&self, s: usize) -> &[(u32, u64)] {
        &self.ops[self.start(s).1..self.ends[s].1]
    }

    /// Per superstep, the sorted `(src_pe, dst_pe, words)` rows of
    /// cross-PE traffic sent by owned PEs.
    pub fn traffic_signature(&self) -> Vec<Vec<Msg>> {
        (0..self.supersteps())
            .map(|s| self.step_traffic(s).collect())
            .collect()
    }

    /// Total operations charged by owned PEs.
    pub fn total_ops(&self) -> u64 {
        let end = self.start(self.supersteps()).1;
        self.ops[..end].iter().map(|o| o.1).sum()
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
    /// be stepped again before a [`reset`](Self::reset).
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
        let start = self.log.len();
        // The row the pair just seen adds to; it is coded once another
        // pair follows it, from the `src` of the row coded before it.
        let mut last: Option<Msg> = None;
        let (mut prev, mut count, mut ascending) = (lo as u32, 0, true);
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
                self.ops.push((pe as u32, ops));
            }
            if self.outbox.runs.is_empty() {
                continue;
            }
            let group = scope.group_of(pe, self.n).unwrap_or(pe..pe);
            let mut at = 0;
            for &(dst, len) in &self.outbox.runs {
                if !group.contains(&(dst as usize)) {
                    return Err(ScopeViolation {
                        superstep: self.supersteps(),
                        src: pe,
                        dst: dst as usize,
                    });
                }
                if dst as usize != pe {
                    let pair = (pe as u32, dst);
                    match &mut last {
                        Some(row) if (row.0, row.1) == pair => row.2 += len as u64,
                        _ => {
                            if let Some(row) = last.replace((pair.0, pair.1, len as u64)) {
                                ascending &= (row.0, row.1) < pair;
                                codec::put_row(&mut self.log, prev, row);
                                (prev, count) = (row.0, count + 1);
                            }
                        }
                    }
                }
                let words = &self.outbox.words[at..at + len as usize];
                at += len as usize;
                self.bufs[dst as usize / self.share].push(pe as u32, dst, words);
            }
            self.outbox.clear();
        }
        if let Some(row) = last {
            codec::put_row(&mut self.log, prev, row);
            count += 1;
        }
        // The step's row count goes in front of its rows.
        let end = self.log.len();
        codec::put_varint(&mut self.log, count);
        let head = self.log.len() - end;
        self.log[start..].rotate_right(head);
        if !ascending {
            // Sources ascend, so only a destination that went back
            // within one source leaves rows to sort and pairs to merge.
            self.rows.clear();
            self.rows
                .extend(codec::rows_at(&self.log[start..], lo as u32));
            self.rows.sort_unstable_by_key(|r| (r.0, r.1));
            self.rows.dedup_by(|next, row| {
                let same_pair = (next.0, next.1) == (row.0, row.1);
                if same_pair {
                    row.2 += next.2;
                }
                same_pair
            });
            self.log.truncate(start);
            codec::put_rows(&mut self.log, lo as u32, &self.rows);
        }
        self.ends.push((self.log.len(), self.ops.len()));
        Ok(())
    }

    /// The runs addressed to worker `w` (after
    /// [`compute`](Self::compute)); an exchanging backend replaces its
    /// contents with the runs `w` sent here, sorted by source.
    pub fn peer_buf(&mut self, w: usize) -> &mut Runs {
        &mut self.bufs[w]
    }

    /// Phase 4: copy every buffered run into its inbox, visible to the
    /// next superstep. Every destination must be an owned PE.
    pub fn deliver(&mut self) {
        for ib in &mut self.inbox {
            ib.clear();
        }
        let lo = self.owned().start;
        for buf in &mut self.bufs {
            let mut at = 0;
            for &(src, dst, len) in &buf.heads {
                let words = &buf.words[at..at + len as usize];
                at += len as usize;
                self.inbox[dst as usize - lo].extend(src, words);
            }
            buf.clear();
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
    /// from two sources, mixing `send`, `send_words` and `send_mem`: one
    /// row per `(src, dst)` pair, every inbox in source-then-send order
    /// with one run per source.
    #[test]
    fn destination_runs_are_merged_per_pair_and_delivered_in_send_order() {
        const A: usize = 3;
        const B: usize = 0;
        let mut e = Engine::new(4, 1, 0);
        e.compute(Scope::All, &mut |pe, ctx| {
            if pe == 1 || pe == 2 {
                let tag = pe as u64 * 100;
                ctx.mem.extend([tag + 3, tag + 4]);
                ctx.send_words(A, &[tag, tag + 1]);
                ctx.send_words(B, &[]);
                ctx.send(B, tag + 2);
                ctx.send_mem(A, 0..1);
                ctx.send_mem(pe, 1..2);
                ctx.send_mem(B, 2..2);
                ctx.send(B, tag + 5);
            }
        })
        .unwrap();
        e.deliver();
        assert_eq!(
            e.traffic_signature(),
            vec![vec![(1, 0, 2), (1, 3, 3), (2, 0, 2), (2, 3, 3)]]
        );
        assert_eq!(e.inbox[A].words, [100, 101, 103, 200, 201, 203]);
        assert_eq!(e.inbox[A].runs, [(1, 3), (2, 3)]);
        assert_eq!(e.inbox[B].words, [102, 105, 202, 205]);
        assert_eq!(e.inbox[B].runs, [(1, 2), (2, 2)]);
        assert_eq!(e.inbox[1].words, [104]);
        assert_eq!(e.inbox[2].words, [204]);
        e.compute(Scope::None, &mut |pe, ctx| {
            if pe == A {
                assert_eq!(ctx.from(2), [200, 201, 203]);
                assert!(ctx.from(0).is_empty() && ctx.from(3).is_empty());
            }
        })
        .unwrap();
    }

    /// A run built in an earlier run's allocations — a longer one, with
    /// more PEs and supersteps than it needs, or one that ended in a
    /// scope violation mid-step, leaving runs in the outbox and a run
    /// buffer and rows half logged — ends exactly as a fresh run does,
    /// in the same allocations.
    #[test]
    fn a_reused_run_equals_a_fresh_one_in_the_old_allocations() {
        let run = |e: &mut Engine, steps: u64| {
            let n = e.n_pes();
            for step in 0..steps {
                e.compute(Scope::All, &mut |pe, ctx| {
                    // What arrived shows in memory, stale words included.
                    ctx.mem.extend_from_slice(ctx.inbox);
                    ctx.mem.push(pe as u64 + step);
                    ctx.work(pe as u64 + 1);
                    ctx.send((pe + 1) % n, step);
                    ctx.send_words(n - 1 - pe, &[step; 3]);
                })
                .unwrap();
                e.deliver();
            }
        };
        let state = |e: &Engine| {
            let rows = e.traffic_signature();
            let ops: Vec<_> = (0..e.supersteps())
                .map(|s| e.step_ops(s).to_vec())
                .collect();
            (e.mem.clone(), rows, e.traffic_bytes().to_vec(), ops)
        };
        let mut fresh = Engine::new(4, 1, 0);
        run(&mut fresh, 2);
        let want = state(&fresh);

        let mut old = Engine::new(8, 1, 0);
        run(&mut old, 5);
        let (mem0, log) = (old.mem[0].as_ptr(), old.log.as_ptr());
        old.reset(4, 1, 0);
        run(&mut old, 2);
        assert_eq!(state(&old), want);
        assert_eq!((old.mem[0].as_ptr(), old.log.as_ptr()), (mem0, log));

        let pairs = Scope::Groups {
            starts: &[0, 4],
            size: 4,
        };
        let mut failed = Engine::new(8, 1, 0);
        run(&mut failed, 3);
        let err = failed
            .compute(pairs, &mut |pe, ctx| {
                ctx.work(1);
                ctx.send_words(pe ^ 1, &[9, 9]);
                if pe == 5 {
                    ctx.send(6, 1);
                    ctx.send(0, 1);
                }
            })
            .unwrap_err();
        assert_eq!((err.superstep, err.src, err.dst), (3, 5, 0));
        failed.reset(4, 1, 0);
        run(&mut failed, 2);
        assert_eq!(state(&failed), want);
    }

    #[test]
    fn empty_send_words_sends_nothing() {
        let mut e = Engine::new(4, 1, 0);
        // Out of scope for PE 0, were it a message.
        e.compute(Scope::None, &mut |_, ctx| {
            ctx.send_words(3, &[]);
            ctx.send_mem(3, 0..0);
        })
        .unwrap();
        e.deliver();
        assert_eq!(e.traffic_signature(), vec![vec![]]);
        assert!(e.inbox.iter().all(|ib| ib.words.is_empty()));
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

    /// SplitMix64, the property test's seeded source.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e3779b97f4a7c15);
            let mut x = self.0;
            x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
            x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
            x ^ (x >> 31)
        }
        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }
    }

    /// One send of the generated programs.
    #[derive(Debug, Clone)]
    enum Send {
        Word(usize, u64),
        Words(usize, Vec<u64>),
        Mem(usize, Range<usize>),
    }

    const MEM: usize = 6;

    /// Random disjoint ascending groups over `n` PEs (sometimes the
    /// whole machine or nothing).
    fn arbitrary_scope(rng: &mut Rng, n: usize) -> (Vec<usize>, usize) {
        let size = 1 + rng.below(n);
        let mut starts = Vec::new();
        let mut pe = rng.below(3);
        while pe < n {
            if rng.below(4) > 0 {
                starts.push(pe);
                pe += size + rng.below(2);
            } else {
                pe += 1 + rng.below(size);
            }
        }
        (starts, size)
    }

    /// Each PE's sends for one superstep: mostly inside its group, now
    /// and then (one superstep in ~30) anywhere.
    fn arbitrary_sends(rng: &mut Rng, n: usize, scope: Scope<'_>) -> Vec<Vec<Send>> {
        let wild = rng.below(30) == 0;
        (0..n)
            .map(|pe| {
                let group = match scope.group_of(pe, n) {
                    Some(group) => group,
                    None if wild => pe..pe + 1,
                    None => return Vec::new(),
                };
                (0..rng.below(6))
                    .map(|_| {
                        let dst = if wild {
                            rng.below(n)
                        } else {
                            group.start + rng.below(group.len())
                        };
                        match rng.below(4) {
                            0 | 1 => Send::Word(dst, rng.next()),
                            2 => Send::Words(dst, (0..rng.below(4)).map(|_| rng.next()).collect()),
                            _ => {
                                let a = rng.below(MEM + 1);
                                Send::Mem(dst, a..a + rng.below(MEM + 1 - a))
                            }
                        }
                    })
                    .collect()
            })
            .collect()
    }

    /// The naive per-word model of one superstep on a `w`-worker
    /// machine: every word tagged, every send checked, inboxes sorted
    /// by source (stable). Returns per PE `(inbox words, inbox runs)`,
    /// per worker its sorted signature rows or its first violation.
    #[allow(clippy::type_complexity)]
    fn reference_step(
        n: usize,
        w: usize,
        superstep: usize,
        scope: Scope<'_>,
        mems: &[Vec<u64>],
        sends: &[Vec<Send>],
    ) -> (
        Vec<(Vec<u64>, Vec<(u32, u32)>)>,
        Vec<Result<Vec<Msg>, ScopeViolation>>,
    ) {
        let share = n / w;
        let mut tagged: Vec<(usize, usize, u64)> = Vec::new();
        let mut per_worker = Vec::new();
        for worker in 0..w {
            let mut rows: Vec<Msg> = Vec::new();
            let mut violation = None;
            'pes: for pe in worker * share..(worker + 1) * share {
                let group = scope.group_of(pe, n).unwrap_or(pe..pe);
                for send in &sends[pe] {
                    let (dst, words): (usize, Vec<u64>) = match send {
                        Send::Word(d, x) => (*d, vec![*x]),
                        Send::Words(d, xs) => (*d, xs.clone()),
                        Send::Mem(d, r) => (*d, mems[pe][r.clone()].to_vec()),
                    };
                    for x in words {
                        if !group.contains(&dst) {
                            violation = Some(ScopeViolation {
                                superstep,
                                src: pe,
                                dst,
                            });
                            break 'pes;
                        }
                        tagged.push((pe, dst, x));
                        if dst != pe {
                            match rows
                                .iter_mut()
                                .find(|r| (r.0, r.1) == (pe as u32, dst as u32))
                            {
                                Some(row) => row.2 += 1,
                                None => rows.push((pe as u32, dst as u32, 1)),
                            }
                        }
                    }
                }
            }
            rows.sort_unstable();
            per_worker.push(violation.map_or(Ok(rows), Err));
        }
        tagged.sort_by_key(|t| t.0);
        let inboxes = (0..n)
            .map(|dst| {
                let mine: Vec<_> = tagged.iter().filter(|t| t.1 == dst).collect();
                let words = mine.iter().map(|t| t.2).collect();
                let runs = mine
                    .chunk_by(|a, b| a.0 == b.0)
                    .map(|run| (run[0].0 as u32, run.len() as u32))
                    .collect();
                (words, runs)
            })
            .collect();
        (inboxes, per_worker)
    }

    /// Satellite: the run-granular engine against the per-word model,
    /// over random interleavings of `send`, `send_words` (empty too) and
    /// `send_mem`, random `Scope::Groups`, on 1, 2 and 4 workers whose
    /// exchange swaps the paired `peer_buf`s: identical inbox words,
    /// inbox runs, signature rows and scope violations.
    #[test]
    fn runs_match_the_per_word_model() {
        const N: usize = 8;
        let mut rng = Rng(0x5eed_0026);
        let mut violations = 0;
        for w in [1, 2, 4] {
            for case in 0..150 {
                let mems: Vec<Vec<u64>> = (0..N)
                    .map(|_| (0..MEM).map(|_| rng.next()).collect())
                    .collect();
                let mut engines: Vec<Engine> = (0..w).map(|me| Engine::new(N, w, me)).collect();
                for e in &mut engines {
                    for pe in e.owned() {
                        *e.mem_mut(pe).unwrap() = mems[pe].clone();
                    }
                }
                let mut want_sig: Vec<Vec<Vec<Msg>>> = vec![Vec::new(); w];
                for superstep in 0..4 {
                    let (starts, size) = arbitrary_scope(&mut rng, N);
                    let scope = match rng.below(6) {
                        0 => Scope::All,
                        1 => Scope::None,
                        _ => Scope::Groups {
                            starts: &starts,
                            size,
                        },
                    };
                    let sends = arbitrary_sends(&mut rng, N, scope);
                    let (want_inbox, want_step) =
                        reference_step(N, w, superstep, scope, &mems, &sends);
                    let got_step: Vec<_> = engines
                        .iter_mut()
                        .map(|e| {
                            e.compute(scope, &mut |pe, ctx| {
                                for send in &sends[pe] {
                                    match send {
                                        Send::Word(d, x) => ctx.send(*d, *x),
                                        Send::Words(d, xs) => ctx.send_words(*d, xs),
                                        Send::Mem(d, r) => ctx.send_mem(*d, r.clone()),
                                    }
                                }
                            })
                        })
                        .collect();
                    let ctx = format!("w {w} case {case} superstep {superstep} {scope:?}");
                    for (worker, (got, want)) in got_step.iter().zip(&want_step).enumerate() {
                        match (got, want) {
                            (Ok(()), Ok(rows)) => want_sig[worker].push(rows.clone()),
                            (Err(g), Err(v)) => assert_eq!(g, v, "{ctx}"),
                            _ => panic!("{ctx}: worker {worker} got {got:?}, want {want:?}"),
                        }
                    }
                    if want_step.iter().any(Result::is_err) {
                        violations += 1;
                        break;
                    }
                    for a in 0..w {
                        for b in a + 1..w {
                            let (lo, hi) = engines.split_at_mut(b);
                            std::mem::swap(lo[a].peer_buf(b), hi[0].peer_buf(a));
                        }
                    }
                    for e in &mut engines {
                        e.deliver();
                        for pe in e.owned() {
                            let ib = &e.inbox[pe - e.owned().start];
                            assert_eq!(ib.words, want_inbox[pe].0, "{ctx}: PE {pe} words");
                            assert_eq!(ib.runs, want_inbox[pe].1, "{ctx}: PE {pe} runs");
                        }
                    }
                }
                for (e, want) in engines.iter().zip(&want_sig) {
                    assert_eq!(&e.traffic_signature(), want, "w {w} case {case}");
                }
            }
        }
        assert!(
            violations > 10,
            "only {violations} violating supersteps generated"
        );
    }
}
