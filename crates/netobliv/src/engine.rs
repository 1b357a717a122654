//! The superstep engine every [`Comm`](crate::Comm) backend runs.
//!
//! One worker of a `W`-worker machine owns a contiguous run of `N/W`
//! PEs, its share of a [`Partition`](crate::Partition)
//! ([`NoMachine`](crate::NoMachine) is the `W = 1` case). Messages
//! travel as *runs*: the words one source sent one destination back to
//! back, under one header, never one tag per word. A superstep is the
//! same pipeline on every backend:
//!
//! 1. **compute and send** — the driver closure runs for every owned
//!    PE in increasing index order, handed its group of the declared
//!    [`Scope`] by one cursor walk over the groups ([`Pe::group`]).
//!    Each send is checked against that group and written where it is
//!    made, once: as a run into its destination worker's [`Runs`]
//!    buffer (a send to the same pair as the last one extends its run;
//!    sources ascend, so every buffer is sorted by source), and, unless
//!    it stays on its PE, into the signature log as one `(src, dst,
//!    len)` row — a block of words costs one entry, not one per word,
//!    and a send of the pair just seen merges into its row. Rows are
//!    coded as varints ([`codec`](crate::codec)) as a fleet worker
//!    ships them. Drivers mostly send in ascending destination order;
//!    only a step whose rows did not come out sorted is read back,
//!    sorted and merged per pair, without any map. A send outside its
//!    group is never written: the step ends in a [`ScopeViolation`]
//!    once its PE's closure returns;
//! 2. **exchange** — a socket backend ships [`Engine::peer_buf`]`(w)`
//!    to worker `w` and refills it with what `w` sent back (nothing to
//!    do with one worker);
//! 3. **deliver** — the per-worker buffers, taken in worker order, are
//!    copied run by run into the owned inboxes. Worker ranges ascend
//!    with the worker index, so every inbox ends up ordered by source PE
//!    and, within a source, in send order — no sort — with one
//!    `(src, len)` run per source beside its words.
//!
//! Every buffer keeps its capacity for the engine's life, across
//! supersteps and, through [`Engine::reset`], across jobs.

use std::ops::Range;

use crate::codec;
use crate::comm::Scope;
use crate::machine::Pe;
use crate::partition::Partition;

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

/// One PE's inbox: `(src, len)` runs, sources ascending, and their
/// words back to back.
#[derive(Debug, Clone, Default)]
pub(crate) struct Inbox {
    pub(crate) runs: Vec<(u32, u32)>,
    pub(crate) words: Vec<u64>,
}

impl Inbox {
    /// Append `words` (non-empty) from `src`, extending the last run
    /// when it is from `src`.
    #[inline]
    fn extend(&mut self, src: u32, words: &[u64]) {
        match self.runs.last_mut() {
            Some(run) if run.0 == src => run.1 += words.len() as u32,
            _ => self.runs.push((src, words.len() as u32)),
        }
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

/// Each PE's group of a [`Scope`], for PEs asked about in ascending
/// order — as [`Engine::compute`] runs them — by walking the groups
/// with a cursor instead of searching them once per PE.
struct GroupCursor<'s> {
    scope: Scope<'s>,
    n: usize,
    /// The first group that does not end at or before the PE asked
    /// about last.
    next: usize,
}

impl<'s> GroupCursor<'s> {
    /// A cursor for PEs from `lo` on, on an `n`-PE machine.
    fn new(scope: Scope<'s>, n: usize, lo: usize) -> Self {
        let next = match scope {
            Scope::Groups { starts, size } => starts.partition_point(|&s| s + size <= lo),
            _ => 0,
        };
        Self { scope, n, next }
    }

    /// [`Scope::group_of`]`(pe, n)`, `pe..pe` (empty) for `None`.
    #[inline]
    fn group(&mut self, pe: usize) -> Range<usize> {
        match self.scope {
            Scope::All => 0..self.n,
            Scope::None => pe..pe,
            Scope::Groups { starts, size } => {
                while starts.get(self.next).is_some_and(|&s| s + size <= pe) {
                    self.next += 1;
                }
                match starts.get(self.next) {
                    Some(&s) if s <= pe => s..(s + size).min(self.n),
                    _ => pe..pe,
                }
            }
        }
    }
}

/// Where a superstep's sends are written as they are made: the run
/// buffers and the signature log, with the row still open.
#[derive(Debug, Default)]
pub(crate) struct Post {
    /// The owned PEs.
    own: Range<usize>,
    /// This worker's index, and the PEs each worker owns.
    me: usize,
    share: usize,
    /// One run buffer per worker; empty between supersteps.
    bufs: Vec<Runs>,
    /// The signature log: per superstep its row count, then its rows
    /// coded from the first owned PE ([`codec`]).
    log: Vec<u8>,
    /// The row the pair just seen adds to; it is coded once another
    /// pair follows it, from `prev`, the `src` of the row coded before
    /// it. `count` rows of the step are coded, `ascending` while each
    /// followed the one before it in `(src, dst)` order.
    last: Option<Msg>,
    prev: u32,
    count: u64,
    ascending: bool,
    /// The step's first send outside its PE's group, `(src, dst)`.
    violation: Option<(usize, usize)>,
}

impl Post {
    /// Write the send of `words` from `src` to `dst`, if `dst` is in
    /// `group` (`src`'s group of the step's scope); nothing at all when
    /// `words` is empty. A send outside `group` is never written: the
    /// first is kept for [`Engine::compute`] to report.
    #[inline]
    pub(crate) fn send(&mut self, src: usize, group: &Range<usize>, dst: usize, words: &[u64]) {
        if words.is_empty() {
            return;
        }
        if !group.contains(&dst) {
            self.violation.get_or_insert((src, dst));
            return;
        }
        let (src32, dst32) = (src as u32, dst as u32);
        if dst != src {
            self.add_row(src32, dst32, words.len() as u64);
        }
        // Most words stay on their worker: no division for those.
        let w = if self.own.contains(&dst) {
            self.me
        } else {
            dst / self.share
        };
        self.bufs[w].push(src32, dst32, words);
    }

    /// Add `len` words `src → dst` to the step's signature rows.
    #[inline]
    fn add_row(&mut self, src: u32, dst: u32, len: u64) {
        match &mut self.last {
            Some(row) if (row.0, row.1) == (src, dst) => row.2 += len,
            _ => {
                if let Some(row) = self.last.replace((src, dst, len)) {
                    self.ascending &= (row.0, row.1) < (src, dst);
                    codec::put_row(&mut self.log, self.prev, row);
                    (self.prev, self.count) = (row.0, self.count + 1);
                }
            }
        }
    }

    /// Start a step: no row open or coded, no violation.
    fn open(&mut self) {
        (self.last, self.prev) = (None, self.own.start as u32);
        (self.count, self.ascending, self.violation) = (0, true, None);
    }

    /// Code the open row; the step's row count and whether its rows
    /// came out ascending.
    fn close(&mut self) -> (u64, bool) {
        if let Some(row) = self.last.take() {
            codec::put_row(&mut self.log, self.prev, row);
            self.count += 1;
        }
        (self.count, self.ascending)
    }
}

/// The superstep pipeline over one worker's PEs. The default engine
/// owns no PEs: [`reset`](Engine::reset) gives it a shape.
#[derive(Debug, Default)]
pub struct Engine {
    n: usize,
    mem: Vec<Vec<u64>>,
    inbox: Vec<Inbox>,
    /// The run buffers and the signature log every send is written to.
    post: Post,
    /// Scratch: the rows of a step that did not come out ascending,
    /// read back from the log to be sorted and merged per pair.
    rows: Vec<Msg>,
    /// `(pe, ops)` for owned PEs that charged work, step after step.
    ops: Vec<(u32, u64)>,
    /// Per superstep, where its bytes in the log and its pairs in `ops`
    /// end.
    ends: Vec<(usize, usize)>,
}

impl Engine {
    /// The engine of worker `me` of `workers`, on a machine of `n_pes`
    /// PEs split into contiguous equal shares ([`Partition::new`]).
    pub fn new(n_pes: usize, workers: usize, me: usize) -> Self {
        let mut engine = Self::default();
        engine.reset(n_pes, workers, me);
        engine
    }

    /// Make this [`new`](Self::new)`(n_pes, workers, me)` in its own
    /// allocations: every memory, inbox, run buffer and the log
    /// emptied, whatever a failed step left half-built included.
    pub fn reset(&mut self, n_pes: usize, workers: usize, me: usize) {
        let part = Partition::new(n_pes, workers);
        assert!(me < workers, "worker {me} of {workers}");
        let share = part.share();
        self.n = n_pes;
        self.mem.resize_with(share, Vec::new);
        self.mem.iter_mut().for_each(Vec::clear);
        self.inbox.resize_with(share, Inbox::default);
        self.inbox.iter_mut().for_each(Inbox::clear);
        let post = &mut self.post;
        (post.own, post.me, post.share) = (part.range(me), me, share);
        post.bufs.resize_with(workers, Runs::default);
        post.bufs.iter_mut().for_each(Runs::clear);
        post.log.clear();
        self.rows.clear();
        self.ops.clear();
        self.ends.clear();
    }

    /// Machine-wide PE count `N`.
    pub fn n_pes(&self) -> usize {
        self.n
    }

    /// The partition this engine owns one share of.
    pub fn partition(&self) -> Partition {
        Partition {
            n_pes: self.n,
            workers: self.post.bufs.len(),
        }
    }

    /// This engine's worker index in its [`partition`](Self::partition).
    pub fn me(&self) -> usize {
        self.post.me
    }

    /// The PEs this engine owns.
    pub fn owned(&self) -> Range<usize> {
        self.post.own.clone()
    }

    /// An owned PE's memory.
    pub fn mem(&self, pe: usize) -> Option<&[u64]> {
        let i = pe.checked_sub(self.post.own.start)?;
        self.mem.get(i).map(Vec::as_slice)
    }

    /// An owned PE's memory, mutably.
    pub fn mem_mut(&mut self, pe: usize) -> Option<&mut Vec<u64>> {
        let i = pe.checked_sub(self.post.own.start)?;
        self.mem.get_mut(i)
    }

    /// Every owned PE's memory, in PE order.
    pub fn mems(&self) -> &[Vec<u64>] {
        &self.mem
    }

    /// Where superstep `s`'s bytes in the log and pairs in `ops` start.
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
        &self.post.log[..self.start(self.supersteps()).0]
    }

    /// Superstep `s`'s sorted `(src_pe, dst_pe, words)` rows of cross-PE
    /// traffic sent by owned PEs.
    pub fn step_traffic(&self, s: usize) -> impl Iterator<Item = Msg> + '_ {
        let at = self.start(s).0;
        codec::rows_at(&self.post.log[at..], self.post.own.start as u32)
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
        let Post {
            ref own, me, share, ..
        } = self.post;
        match scope {
            Scope::All => 0..self.post.bufs.len(),
            Scope::None => me..me,
            Scope::Groups { starts, size } => {
                let first = starts.partition_point(|&s| s + size <= own.start);
                let end = starts.partition_point(|&s| s < own.end);
                if first >= end {
                    return me..me;
                }
                let last_pe = (starts[end - 1] + size - 1).min(self.n - 1);
                starts[first] / share..last_pe / share + 1
            }
        }
    }

    /// Phase 1: run `f` on every owned PE, checking each send against
    /// `scope` and writing it into the per-worker buffers and the
    /// signature log as it is made.
    ///
    /// A send outside its PE's group is never written, and the first
    /// one is returned once its PE's closure returns; the engine then
    /// holds a half-built step and must not be stepped again before a
    /// [`reset`](Self::reset).
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
        let lo = self.post.own.start;
        let start = self.post.log.len();
        let mut groups = GroupCursor::new(scope, self.n, lo);
        self.post.open();
        for (i, (mem, inbox)) in self.mem.iter_mut().zip(&self.inbox).enumerate() {
            let pe = lo + i;
            let mut ops = 0u64;
            let group = groups.group(pe);
            f(
                pe,
                &mut Pe::new(mem, inbox, &mut self.post, &mut ops, pe, group, self.n),
            );
            if ops > 0 {
                self.ops.push((pe as u32, ops));
            }
            if let Some((src, dst)) = self.post.violation {
                return Err(ScopeViolation {
                    superstep: self.ends.len(),
                    src,
                    dst,
                });
            }
        }
        let (count, ascending) = self.post.close();
        // The step's row count goes in front of its rows.
        let log = &mut self.post.log;
        let end = log.len();
        codec::put_varint(log, count);
        let head = log.len() - end;
        log[start..].rotate_right(head);
        if !ascending {
            // Sources ascend, so only a destination that went back
            // within one source leaves rows to sort and pairs to merge.
            self.rows.clear();
            self.rows.extend(codec::rows_at(&log[start..], lo as u32));
            self.rows.sort_unstable_by_key(|r| (r.0, r.1));
            self.rows.dedup_by(|next, row| {
                let same_pair = (next.0, next.1) == (row.0, row.1);
                if same_pair {
                    row.2 += next.2;
                }
                same_pair
            });
            log.truncate(start);
            codec::put_rows(log, lo as u32, &self.rows);
        }
        self.ends.push((log.len(), self.ops.len()));
        Ok(())
    }

    /// The runs addressed to worker `w` (after
    /// [`compute`](Self::compute)); an exchanging backend replaces its
    /// contents with the runs `w` sent here, sorted by source.
    pub fn peer_buf(&mut self, w: usize) -> &mut Runs {
        &mut self.post.bufs[w]
    }

    /// Phase 3: copy every buffered run into its inbox, visible to the
    /// next superstep. Every destination must be an owned PE.
    pub fn deliver(&mut self) {
        for ib in &mut self.inbox {
            ib.clear();
        }
        let lo = self.post.own.start;
        for buf in &mut self.post.bufs {
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
    /// scope violation mid-step, leaving runs in a run buffer, a row
    /// open and rows half logged — ends exactly as a fresh run does,
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
        let (mem0, log) = (old.mem[0].as_ptr(), old.post.log.as_ptr());
        old.reset(4, 1, 0);
        run(&mut old, 2);
        assert_eq!(state(&old), want);
        assert_eq!((old.mem[0].as_ptr(), old.post.log.as_ptr()), (mem0, log));

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

    /// Every send is checked against the scope; a violation after an
    /// in-scope send of the same PE is still caught and names its pair.
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

    /// A send outside its group is never written. A PE that sends in
    /// scope, out of scope twice, then in scope again ends the step
    /// naming its first out-of-scope pair once its closure returns; no
    /// later PE runs, and neither violating run reaches a run buffer or
    /// a signature row.
    #[test]
    fn an_out_of_scope_send_is_never_written() {
        // 8 PEs on 4 workers, groups 0..4 and 4..8: worker 0 owns PEs
        // 0 and 1, PEs 2 and 3 (worker 1) share their group.
        let halves = Scope::Groups {
            starts: &[0, 4],
            size: 4,
        };
        let mut e = Engine::new(8, 4, 0);
        e.compute(halves, &mut |pe, ctx| ctx.send(pe ^ 1, 7))
            .unwrap();
        e.deliver();
        let start = e.post.log.len();
        let mut ran = Vec::new();
        let err = e
            .compute(halves, &mut |pe, ctx| {
                ran.push(pe);
                ctx.send(2, 10);
                ctx.send(1, 11);
                ctx.send(5, 12);
                ctx.send_words(6, &[13, 13]);
                ctx.send(3, 14);
            })
            .unwrap_err();
        assert_eq!(
            err,
            ScopeViolation {
                superstep: 1,
                src: 0,
                dst: 5
            }
        );
        assert_eq!(ran, [0]);
        assert_eq!(e.peer_buf(0).heads, [(0, 1, 1)]);
        assert_eq!(e.peer_buf(0).words, [11]);
        assert_eq!(e.peer_buf(1).heads, [(0, 2, 1), (0, 3, 1)]);
        assert_eq!(e.peer_buf(1).words, [10, 14]);
        assert_eq!(*e.peer_buf(2), Runs::default());
        assert_eq!(*e.peer_buf(3), Runs::default());
        // The step's rows coded so far; the row still open, `0 → 3`,
        // is never coded.
        let (log, mut pos, mut prev, mut rows) = (&e.post.log, start, 0, Vec::new());
        while pos < log.len() {
            let row = codec::known_row_at(log, &mut pos, prev);
            prev = row.0;
            rows.push(row);
        }
        assert_eq!(rows, [(0, 2, 1), (0, 1, 1)]);
    }

    /// Every owned PE's [`Pe::group`] is [`Scope::group_of`], over
    /// seeded random scopes on 1, 2, 4 and 8 workers, with groups that
    /// straddle worker boundaries, begin before the owned range, are
    /// clipped at `n` or leave PEs between them, and `All` and `None`.
    #[test]
    fn pe_group_is_group_of_for_every_owned_pe() {
        const N: usize = 32;
        let mut rng = Rng(0x5eed_0043);
        // Straddling, begun before the owned range, clipped, between.
        let mut seen = [0usize; 4];
        for w in [1, 2, 4, 8] {
            let share = N / w;
            for case in 0..200 {
                let (starts, size) = arbitrary_scope(&mut rng, N);
                let scope = match rng.below(8) {
                    0 => Scope::All,
                    1 => Scope::None,
                    _ => Scope::Groups {
                        starts: &starts,
                        size,
                    },
                };
                for me in 0..w {
                    let mut e = Engine::new(N, w, me);
                    let own = e.owned();
                    let mut ran = Vec::new();
                    e.compute(scope, &mut |pe, ctx| {
                        let want = scope.group_of(pe, N);
                        assert_eq!(ctx.group(), want, "w {w} case {case} PE {pe} {scope:?}");
                        ran.push(pe);
                    })
                    .unwrap();
                    assert!(ran.iter().copied().eq(own.clone()), "w {w} case {case}");
                    if let Scope::Groups { .. } = scope {
                        let groups = own.clone().map(|pe| scope.group_of(pe, N));
                        seen[1] += groups.clone().flatten().any(|g| g.start < own.start) as usize;
                        seen[3] += groups.clone().any(|g| g.is_none()) as usize;
                        for g in groups.flatten() {
                            seen[0] += (g.start / share != (g.end - 1) / share) as usize;
                            seen[2] += (g.end < g.start + size) as usize;
                        }
                    }
                }
            }
        }
        assert!(seen.iter().all(|&k| k > 10), "cases seen: {seen:?}");
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
