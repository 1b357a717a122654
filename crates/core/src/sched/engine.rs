//! Virtual-time list-scheduling engine with cache replay.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::ops::Range;

use hm_model::{CacheId, CacheSystem, CoreId, MachineSpec, Metrics, Topology};

use crate::record::{ForkHint, Program, Segment, TaskId};

/// Scheduling policy for [`simulate`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Policy {
    /// The paper's multicore-oblivious scheduler (CGC / SB / CGC⇒SB).
    Mo,
    /// Hint-ignoring greedy work-sharing over all cores (§II strawman).
    Flat,
    /// Single-core execution (sequential cache-oblivious behaviour).
    Serial,
}

/// Where a task is anchored.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Anchor {
    /// A concrete cache; all of the task's work stays under its shadow.
    Cache(CacheId),
    /// The shared memory at level `h`: shadow is the whole machine.
    Memory,
}

/// Result of one simulated run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Virtual makespan: the model's number of *parallel steps*.
    pub makespan: u64,
    /// Total memory operations executed (the program's work `T_1`).
    pub work: u64,
    /// Per-cache counters from the replay.
    pub metrics: Metrics,
    /// Inter-core write interleavings at `B_1` granularity.
    pub pingpongs: u64,
    /// Busy time per core.
    pub core_busy: Vec<u64>,
    /// Number of tasks in the DAG.
    pub tasks: usize,
    /// Number of scheduled execution units.
    pub units: usize,
}

impl RunReport {
    /// Observed speed-up `T_1 / T_p`.
    pub fn speedup(&self) -> f64 {
        if self.makespan == 0 {
            1.0
        } else {
            self.work as f64 / self.makespan as f64
        }
    }

    /// The model's cache complexity at `level`: max misses over the
    /// level's cache instances.
    pub fn cache_complexity(&self, level: usize) -> u64 {
        self.metrics.cache_complexity(level)
    }
}

#[derive(Debug)]
struct TaskState {
    anchor: Anchor,
    /// Next segment to start.
    seg: usize,
    /// Outstanding units (for Compute / CgcLoop) or children (for Fork)
    /// blocking the current segment's completion.
    outstanding: usize,
    /// Space charged against the anchor cache (0 when exempt).
    charged: usize,
    /// Deferred CGC⇒SB expansion state (§III-C): when a fork cannot yet
    /// be spread over lower-level caches (too few subtasks for the
    /// shadow), children inherit the anchor and carry their position
    /// within the accumulated expansion, so that once the recursion has
    /// generated enough subtasks they land on *contiguous* caches.
    cgcsb_pos: usize,
    cgcsb_width: usize,
}

/// Where [`Engine::cgcsb_plan`] puts the children of one CGC⇒SB fork.
#[derive(Debug)]
enum CgcSbPlan {
    /// The common bound fits no cache: every child runs from memory.
    Memory,
    /// Cannot descend yet: children inherit the anchor and extend the
    /// expansion positions, `eff` wide, from `first_pos`.
    Inherit {
        parent: Anchor,
        first_pos: usize,
        eff: usize,
    },
    /// Child at expansion position `pos` of `eff` goes to the
    /// `pos·q/eff`-th of the `q` level-`level` caches `caches`.
    Spread {
        level: usize,
        caches: Range<usize>,
        first_pos: usize,
        eff: usize,
    },
}

impl CgcSbPlan {
    /// `(anchor, expansion position, expansion width)` of child `c`.
    fn child(&self, c: usize) -> (Anchor, usize, usize) {
        match self {
            CgcSbPlan::Memory => (Anchor::Memory, 0, 1),
            CgcSbPlan::Inherit {
                parent,
                first_pos,
                eff,
            } => (*parent, first_pos + c, *eff),
            CgcSbPlan::Spread {
                level,
                caches,
                first_pos,
                eff,
            } => {
                let j = caches.start + (first_pos + c) * caches.len() / eff;
                (Anchor::Cache(CacheId::new(*level, j)), 0, 1)
            }
        }
    }
}

/// Pending scheduler work (explicit stack; see `Engine::drain`).
#[derive(Debug, Clone, Copy)]
enum Action {
    Start,
    Advance,
    Complete,
}

/// A scheduled execution unit: a contiguous trace range on one core.
#[derive(Debug, Clone, Copy)]
struct Unit {
    core: CoreId,
    start: u64,
    trace_lo: usize,
    trace_hi: usize,
}

struct Engine<'p> {
    prog: &'p Program,
    spec: MachineSpec,
    topo: Topology,
    policy: Policy,
    tstate: Vec<TaskState>,
    core_free: Vec<u64>,
    core_busy: Vec<u64>,
    /// `used[level-1][index]`: space currently charged to the cache.
    used: Vec<Vec<usize>>,
    /// `load[level-1][index]`: tasks assigned and not yet completed.
    load: Vec<Vec<usize>>,
    /// FIFO admission queues per cache.
    waiting: Vec<Vec<VecDeque<TaskId>>>,
    /// Completion events: `Reverse((time, seq, task))`.
    events: BinaryHeap<Reverse<(u64, u64, TaskId)>>,
    seq: u64,
    units: Vec<Unit>,
    makespan: u64,
}

impl<'p> Engine<'p> {
    fn new(prog: &'p Program, spec: &MachineSpec, policy: Policy) -> Self {
        let topo = Topology::new(spec);
        let levels = spec.cache_levels();
        let tstate = prog
            .tasks()
            .iter()
            .map(|_| TaskState {
                anchor: Anchor::Memory,
                seg: 0,
                outstanding: 0,
                charged: 0,
                cgcsb_pos: 0,
                cgcsb_width: 1,
            })
            .collect();
        Engine {
            prog,
            spec: spec.clone(),
            policy,
            tstate,
            core_free: vec![0; topo.cores()],
            core_busy: vec![0; topo.cores()],
            used: (1..=levels).map(|i| vec![0; topo.caches_at(i)]).collect(),
            load: (1..=levels).map(|i| vec![0; topo.caches_at(i)]).collect(),
            waiting: (1..=levels)
                .map(|i| vec![VecDeque::new(); topo.caches_at(i)])
                .collect(),
            events: BinaryHeap::new(),
            seq: 0,
            units: Vec::new(),
            makespan: 0,
            topo,
        }
    }

    /// The contiguous core range a task may run on.
    fn shadow(&self, anchor: Anchor) -> (CoreId, CoreId) {
        match self.policy {
            Policy::Serial => (0, 1),
            Policy::Flat => (0, self.topo.cores()),
            Policy::Mo => match anchor {
                Anchor::Memory => (0, self.topo.cores()),
                Anchor::Cache(c) => {
                    let s = self.topo.shadow(c);
                    (s.lo, s.hi)
                }
            },
        }
    }

    /// Earliest-free core in `[lo, hi)`, ties to the lowest index.
    fn pick_core(&self, lo: CoreId, hi: CoreId) -> CoreId {
        let mut best = lo;
        for c in lo + 1..hi {
            if self.core_free[c] < self.core_free[best] {
                best = c;
            }
        }
        best
    }

    fn schedule_unit(&mut self, task: TaskId, core: CoreId, ready: u64, lo: usize, hi: usize) {
        let start = ready.max(self.core_free[core]);
        let len = (hi - lo) as u64;
        let end = start + len;
        self.core_free[core] = end;
        self.core_busy[core] += len;
        self.makespan = self.makespan.max(end);
        self.units.push(Unit {
            core,
            start,
            trace_lo: lo,
            trace_hi: hi,
        });
        self.seq += 1;
        self.events.push(Reverse((end, self.seq, task)));
    }

    /// SB anchoring: smallest level fitting `space` under the parent's
    /// shadow, least-loaded cache there. Levels are capped strictly below
    /// a cache-anchored parent; a child that fits nowhere below inherits
    /// the parent's anchor (the paper's "enqueued in Q(λ)" case).
    fn sb_anchor(&self, parent: Anchor, space: usize) -> Anchor {
        let top = self.spec.cache_levels();
        let max_level = match parent {
            Anchor::Memory => top,
            Anchor::Cache(c) => c.level.saturating_sub(1),
        };
        let fit = self.spec.smallest_level_fitting(space);
        match fit {
            Some(level) if level <= max_level => {
                Anchor::Cache(self.least_loaded_under(parent, level))
            }
            _ => match parent {
                // Does not fit any cache at all: run from memory.
                Anchor::Memory => Anchor::Memory,
                Anchor::Cache(c) => Anchor::Cache(c),
            },
        }
    }

    /// Indices of the level-`level` caches under `parent`'s shadow.
    fn indices_under(&self, parent: Anchor, level: usize) -> Range<usize> {
        match parent {
            Anchor::Memory => 0..self.topo.caches_at(level),
            Anchor::Cache(c) => self.topo.indices_under(c, level),
        }
    }

    /// The least-loaded such cache, ties to the lowest index.
    fn least_loaded_under(&self, parent: Anchor, level: usize) -> CacheId {
        let load = &self.load[level - 1];
        let best = self
            .indices_under(parent, level)
            .min_by_key(|&j| load[j])
            .expect("a shadow covers at least one cache per level");
        CacheId::new(level, best)
    }

    /// CGC⇒SB anchoring (§III-C) for a block of `m` children with common
    /// space bound `sigma`, spawned by `parent_task`.
    ///
    /// The *effective* subtask count is the fork width times the parent's
    /// accumulated expansion width: a recursion that forks two at a time
    /// keeps its children at the parent's anchor (carrying their position
    /// in the expansion) until enough subtasks exist, then distributes
    /// them evenly — in contiguous chunks, by expansion position — over
    /// the level-`t` caches under the shadow, `t = max(i, j)`.
    fn cgcsb_plan(&self, parent_task: TaskId, sigma: usize, m: usize) -> CgcSbPlan {
        let parent = self.tstate[parent_task].anchor;
        let first_pos = self.tstate[parent_task].cgcsb_pos * m;
        let eff = self.tstate[parent_task].cgcsb_width.saturating_mul(m);
        let top = self.spec.cache_levels();
        let parent_level = match parent {
            Anchor::Memory => top + 1,
            Anchor::Cache(c) => c.level,
        };
        let Some(i) = self.spec.smallest_level_fitting(sigma) else {
            return CgcSbPlan::Memory;
        };
        // Smallest level j with at most `eff` caches under the shadow.
        let caches_under = |level: usize| -> usize {
            match parent {
                Anchor::Memory => self.topo.caches_at(level),
                Anchor::Cache(c) => {
                    if level >= c.level {
                        1
                    } else {
                        self.topo.count_caches_under(c, level)
                    }
                }
            }
        };
        let mut j = top;
        for level in 1..=top {
            if caches_under(level) <= eff {
                j = level;
                break;
            }
        }
        let t = i.max(j);
        if t >= parent_level {
            CgcSbPlan::Inherit {
                parent,
                first_pos,
                eff,
            }
        } else {
            CgcSbPlan::Spread {
                level: t,
                caches: self.indices_under(parent, t),
                first_pos,
                eff,
            }
        }
    }

    fn assign_anchor(&mut self, task: TaskId, anchor: Anchor) {
        self.tstate[task].anchor = anchor;
        if let Anchor::Cache(c) = anchor {
            self.load[c.level - 1][c.index] += 1;
        }
    }

    /// Process the work stack until empty (iterative equivalent of the
    /// natural mutual recursion between start/advance/complete — the
    /// recursion depth would otherwise be the task-chain depth, which
    /// recorded programs are allowed to make arbitrarily deep).
    fn drain(&mut self, mut work: Vec<(Action, TaskId, u64)>) {
        while let Some((action, task, t)) = work.pop() {
            match action {
                Action::Start => self.start_task(task, t, &mut work),
                Action::Advance => self.advance(task, t, &mut work),
                Action::Complete => self.complete_task(task, t, &mut work),
            }
        }
    }

    /// Try to admit `task` at its anchor; on success the task advances at
    /// time `t`, otherwise it joins the cache's FIFO queue.
    fn start_task(&mut self, task: TaskId, t: u64, work: &mut Vec<(Action, TaskId, u64)>) {
        let anchor = self.tstate[task].anchor;
        match (self.policy, anchor) {
            (Policy::Mo, Anchor::Cache(c)) => {
                let parent_anchor = self.prog.tasks()[task]
                    .parent
                    .map(|p| self.tstate[p].anchor);
                if parent_anchor == Some(Anchor::Cache(c)) {
                    // Same anchor as parent: footprint is a subset of the
                    // parent's charge; no extra admission needed.
                    work.push((Action::Advance, task, t));
                    return;
                }
                let cap = self.spec.level(c.level).capacity;
                let charge = self.prog.tasks()[task].space.min(cap);
                let used = self.used[c.level - 1][c.index];
                if used == 0 || used + charge <= cap {
                    self.used[c.level - 1][c.index] += charge;
                    self.tstate[task].charged = charge;
                    work.push((Action::Advance, task, t));
                } else {
                    self.waiting[c.level - 1][c.index].push_back(task);
                }
            }
            _ => work.push((Action::Advance, task, t)),
        }
    }

    /// Run the task from its current segment at time `t` until it blocks
    /// on outstanding units/children or completes.
    fn advance(&mut self, task: TaskId, t: u64, work: &mut Vec<(Action, TaskId, u64)>) {
        let prog = self.prog;
        loop {
            let seg_idx = self.tstate[task].seg;
            let node = &prog.tasks()[task];
            if seg_idx >= node.segments.len() {
                work.push((Action::Complete, task, t));
                return;
            }
            self.tstate[task].seg += 1;
            match &node.segments[seg_idx] {
                Segment::Compute { start, end } => {
                    let (lo, hi) = self.shadow(self.tstate[task].anchor);
                    let core = self.pick_core(lo, hi);
                    self.tstate[task].outstanding = 1;
                    let (s, e) = (*start, *end);
                    self.schedule_unit(task, core, t, s, e);
                    return;
                }
                Segment::CgcLoop { start, iter_ends } => {
                    let iters = iter_ends.len();
                    if iters == 0 {
                        continue;
                    }
                    let (lo, hi) = self.shadow(self.tstate[task].anchor);
                    let p = hi - lo;
                    let b1 = self.spec.level(1).block;
                    let nseg = (iters / b1).clamp(1, p);
                    let per = iters.div_ceil(nseg);
                    // ⌈·⌉ rounding can leave trailing chunks empty; they
                    // get no unit.
                    let chunks = iters.div_ceil(per);
                    self.tstate[task].outstanding = chunks;
                    for k in 0..chunks {
                        let (i0, i1) = (k * per, ((k + 1) * per).min(iters));
                        let lo_t = if i0 == 0 { *start } else { iter_ends[i0 - 1] };
                        // The j-th segment goes to the j-th core from the
                        // left of the shadow (§III-A).
                        self.schedule_unit(task, lo + (k % p), t, lo_t, iter_ends[i1 - 1]);
                    }
                    return;
                }
                Segment::Fork { hint, children } => {
                    let parent_anchor = self.tstate[task].anchor;
                    self.tstate[task].outstanding = children.len();
                    match (self.policy, *hint) {
                        (Policy::Mo, ForkHint::Sb) => {
                            for &ch in children {
                                let a = self.sb_anchor(parent_anchor, prog.tasks()[ch].space);
                                self.assign_anchor(ch, a);
                            }
                        }
                        (Policy::Mo, ForkHint::CgcSb) => {
                            let sigma = children
                                .iter()
                                .map(|&ch| prog.tasks()[ch].space)
                                .max()
                                .unwrap_or(0);
                            let plan = self.cgcsb_plan(task, sigma, children.len());
                            for (c, &ch) in children.iter().enumerate() {
                                let (a, pos, width) = plan.child(c);
                                self.assign_anchor(ch, a);
                                self.tstate[ch].cgcsb_pos = pos;
                                self.tstate[ch].cgcsb_width = width;
                            }
                        }
                        _ => {
                            for &ch in children {
                                self.assign_anchor(ch, Anchor::Memory);
                            }
                        }
                    }
                    // Reverse push: child 0 is processed first and its
                    // whole subtree before its siblings (depth-first, the
                    // same order the natural recursion would give).
                    for &ch in children.iter().rev() {
                        work.push((Action::Start, ch, t));
                    }
                    return;
                }
            }
        }
    }

    fn complete_task(&mut self, task: TaskId, t: u64, work: &mut Vec<(Action, TaskId, u64)>) {
        let anchor = self.tstate[task].anchor;
        if let Anchor::Cache(c) = anchor {
            self.load[c.level - 1][c.index] -= 1;
            let charge = self.tstate[task].charged;
            if charge > 0 {
                self.tstate[task].charged = 0;
                self.used[c.level - 1][c.index] -= charge;
                // Admit waiting tasks in FIFO order while space allows.
                while let Some(&next) = self.waiting[c.level - 1][c.index].front() {
                    let cap = self.spec.level(c.level).capacity;
                    let ch = self.prog.tasks()[next].space.min(cap);
                    let used = self.used[c.level - 1][c.index];
                    if used == 0 || used + ch <= cap {
                        self.waiting[c.level - 1][c.index].pop_front();
                        self.used[c.level - 1][c.index] += ch;
                        self.tstate[next].charged = ch;
                        work.push((Action::Advance, next, t));
                    } else {
                        break;
                    }
                }
            }
        }
        if let Some(parent) = self.prog.tasks()[task].parent {
            self.tstate[parent].outstanding -= 1;
            if self.tstate[parent].outstanding == 0 {
                work.push((Action::Advance, parent, t));
            }
        }
    }

    fn run(mut self) -> RunReport {
        let root = self.prog.root();
        // Root anchoring: same SB rule with the memory as the "parent".
        if self.policy == Policy::Mo {
            let a = self.sb_anchor(Anchor::Memory, self.prog.tasks()[root].space);
            self.assign_anchor(root, a);
        }
        self.drain(vec![(Action::Start, root, 0)]);
        while let Some(Reverse((t, _seq, task))) = self.events.pop() {
            self.tstate[task].outstanding -= 1;
            if self.tstate[task].outstanding == 0 {
                self.drain(vec![(Action::Advance, task, t)]);
            }
        }
        // Every task must have completed.
        debug_assert!(self.tstate.iter().all(|s| s.outstanding == 0));
        for (l, level) in self.waiting.iter().enumerate() {
            for (j, q) in level.iter().enumerate() {
                assert!(
                    q.is_empty(),
                    "scheduler deadlock: tasks still waiting at L{} cache {}",
                    l + 1,
                    j
                );
            }
        }

        // ---- cache replay in global virtual-time order ----
        // Units were pushed in start order per core, so a stable sort by
        // (start, core) is the merge of the per-core streams, ties to the
        // lowest core. Each unit is replayed whole: its accesses occupy
        // consecutive timestamps and no other unit on its core overlaps;
        // units on other cores interleave at unit granularity, which is
        // the resolution the analysis needs (units are single tasks'
        // private working sets).
        let mut sys = CacheSystem::new(&self.spec);
        self.units.sort_by_key(|u| (u.start, u.core));
        let trace = self.prog.trace();
        for u in &self.units {
            let entries = &trace[u.trace_lo..u.trace_hi];
            sys.access_run(u.core, entries.iter().map(|e| (e.addr(), e.is_write())));
        }

        RunReport {
            makespan: self.makespan,
            work: self.prog.work(),
            metrics: sys.metrics().clone(),
            pingpongs: sys.pingpongs(),
            core_busy: self.core_busy,
            tasks: self.prog.tasks().len(),
            units: self.units.len(),
        }
    }
}

/// Simulate `prog` on `spec` under `policy`.
///
/// Returns the virtual makespan (parallel steps), per-cache metrics from
/// replaying every access through the HM cache hierarchy, and per-core
/// utilization.
///
/// In debug builds every program is first checked by
/// [`crate::verify::verify`]: the scheduler theorems assume race-free
/// programs with honest hints, so simulating a program that fails
/// verification produces numbers with no meaning. The check asserts only
/// on error-severity findings (races and hint violations), not on
/// structural warnings.
pub fn simulate(prog: &Program, spec: &MachineSpec, policy: Policy) -> RunReport {
    #[cfg(debug_assertions)]
    {
        let report = crate::verify::verify(prog);
        debug_assert!(
            report.is_clean(),
            "mo-verify rejected the program:\n{report}"
        );
    }
    Engine::new(prog, spec, policy).run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{spawn, ForkHint, Recorder};

    fn machine() -> MachineSpec {
        MachineSpec::three_level(4, 1 << 10, 8, 1 << 16, 32).unwrap()
    }

    /// A CGC scan over n words on p cores takes ~n/p steps.
    #[test]
    fn cgc_scan_parallelizes() {
        let n = 4096;
        let prog = Recorder::record(3 * n, |rec| {
            let a = rec.alloc(n);
            rec.cgc_for(n, |rec, k| {
                rec.write(a, k, k as u64);
            });
        });
        let spec = machine();
        let r = simulate(&prog, &spec, Policy::Mo);
        assert_eq!(r.work, n as u64);
        // 4 cores: makespan = n / 4.
        assert_eq!(r.makespan, (n / 4) as u64);
        let s = simulate(&prog, &spec, Policy::Serial);
        assert_eq!(s.makespan, n as u64);
    }

    /// CGC respects the >= B_1 segment rule: a short loop uses fewer cores.
    #[test]
    fn cgc_short_loop_limits_cores() {
        let n = 16; // B1 = 8 => at most 2 segments
                    // Root space exceeds every cache so its shadow is the whole machine.
        let prog = Recorder::record(1 << 20, |rec| {
            let a = rec.alloc(n);
            rec.cgc_for(n, |rec, k| {
                rec.write(a, k, 1);
            });
        });
        let r = simulate(&prog, &machine(), Policy::Mo);
        assert_eq!(r.units, 2);
        assert_eq!(r.makespan, 8);
    }

    /// Two SB children with disjoint data run on different cores in
    /// parallel and keep their private L1 miss counts disjoint.
    #[test]
    fn sb_children_run_in_parallel_under_distinct_anchors() {
        let n = 512;
        let prog = Recorder::record(2 * n + 64, |rec| {
            let a = rec.alloc(n);
            let b = rec.alloc(n);
            rec.fork2(
                ForkHint::Sb,
                n,
                move |rec| {
                    for k in 0..n {
                        rec.write(a, k, 1);
                    }
                },
                n,
                move |rec| {
                    for k in 0..n {
                        rec.write(b, k, 2);
                    }
                },
            );
        });
        let r = simulate(&prog, &machine(), Policy::Mo);
        // Parallel: both children overlap fully.
        assert_eq!(r.makespan, n as u64);
        // Each child fits L1 (512 <= 1024) so it anchors at a distinct L1.
        let busy_cores = r.core_busy.iter().filter(|&&b| b > 0).count();
        assert_eq!(busy_cores, 2);
    }

    /// Serial policy keeps everything on core 0.
    #[test]
    fn serial_uses_one_core() {
        let prog = Recorder::record(64, |rec| {
            let a = rec.alloc(32);
            rec.fork2(
                ForkHint::Sb,
                32,
                move |rec| {
                    for k in 0..16 {
                        rec.write(a, k, 1);
                    }
                },
                32,
                move |rec| {
                    for k in 16..32 {
                        rec.write(a, k, 1);
                    }
                },
            );
        });
        let r = simulate(&prog, &machine(), Policy::Serial);
        assert_eq!(r.core_busy[0], 32);
        assert!(r.core_busy[1..].iter().all(|&b| b == 0));
        assert_eq!(r.makespan, 32);
    }

    /// SB admission control serializes tasks that together overflow a
    /// cache but parallelizes tasks that fit.
    #[test]
    fn sb_admission_respects_capacity() {
        // Machine with tiny L1s (64 words) so two 48-word tasks cannot
        // share one... they anchor at *different* L1s and run in parallel;
        // but 8 tasks of 48 words across 4 L1s run two-deep.
        let spec = MachineSpec::three_level(4, 64, 8, 4096, 8).unwrap();
        let per = 48usize;
        let prog = Recorder::record(8 * per + 64, |rec| {
            let arrs: Vec<_> = (0..8).map(|_| rec.alloc(per)).collect();
            let children = arrs
                .iter()
                .map(|&a| {
                    spawn(per, move |rec: &mut Recorder| {
                        for k in 0..per {
                            rec.write(a, k, 1);
                        }
                    })
                })
                .collect();
            rec.fork(ForkHint::Sb, children);
        });
        let r = simulate(&prog, &spec, Policy::Mo);
        // 8 tasks x 48 steps over 4 cores: perfect packing = 96 steps.
        assert_eq!(r.makespan, 2 * per as u64);
    }

    /// CGC⇒SB distributes equal children over the right cache level.
    #[test]
    fn cgcsb_distributes_evenly() {
        // h=3, 4 cores; children of space 600 fit only L1 (1024): level
        // i=1; j: level with <= m caches under memory shadow.
        let n = 256usize;
        let prog = Recorder::record(4 * n + 64, |rec| {
            let arrs: Vec<_> = (0..4).map(|_| rec.alloc(n)).collect();
            let children = arrs
                .iter()
                .map(|&a| {
                    spawn(600, move |rec: &mut Recorder| {
                        for k in 0..n {
                            rec.write(a, k, 1);
                        }
                    })
                })
                .collect();
            rec.fork(ForkHint::CgcSb, children);
        });
        let r = simulate(&prog, &machine(), Policy::Mo);
        // 4 children on 4 cores in parallel.
        assert_eq!(r.makespan, n as u64);
        assert_eq!(r.core_busy.iter().filter(|&&b| b > 0).count(), 4);
    }

    /// Flat policy also parallelizes but ignores anchors (both behaviours
    /// matter for the §II comparison).
    #[test]
    fn flat_policy_spreads_work() {
        let n = 1024usize;
        let prog = Recorder::record(n + 64, |rec| {
            let a = rec.alloc(n);
            rec.cgc_for(n, |rec, k| {
                rec.write(a, k, 1);
            });
        });
        let r = simulate(&prog, &machine(), Policy::Flat);
        assert_eq!(r.makespan, (n / 4) as u64);
    }

    /// The report's speed-up is work/makespan.
    #[test]
    fn speedup_is_consistent() {
        let n = 4096usize;
        let prog = Recorder::record(n + 64, |rec| {
            let a = rec.alloc(n);
            rec.cgc_for(n, |rec, k| {
                rec.write(a, k, 1);
            });
        });
        let r = simulate(&prog, &machine(), Policy::Mo);
        assert!((r.speedup() - 4.0).abs() < 1e-9);
    }

    /// Nested SB recursion down to L1 anchors terminates and uses all
    /// cores (a miniature I-GEP-shaped stress).
    #[test]
    fn nested_sb_recursion_completes() {
        fn rec_body(rec: &mut Recorder, a: crate::Arr, lo: usize, hi: usize) {
            let len = hi - lo;
            if len <= 64 {
                for k in lo..hi {
                    rec.write(a, k, 1);
                }
                return;
            }
            let mid = lo + len / 2;
            rec.fork2(
                ForkHint::Sb,
                len / 2,
                move |r| rec_body(r, a, lo, mid),
                len / 2,
                move |r| rec_body(r, a, mid, hi),
            );
        }
        let n = 4096usize;
        let prog = Recorder::record(n, |rec| {
            let a = rec.alloc(n);
            rec_body(rec, a, 0, n);
        });
        let r = simulate(&prog, &machine(), Policy::Mo);
        assert_eq!(r.work, n as u64);
        assert_eq!(r.core_busy.iter().sum::<u64>(), n as u64);
        // All four cores contribute.
        assert!(r.core_busy.iter().all(|&b| b > 0));
        assert!(r.makespan < n as u64);
    }

    /// Replay counts compulsory misses exactly for a serial scan.
    #[test]
    fn replay_matches_direct_cache_simulation() {
        let n = 2048usize;
        let prog = Recorder::record(n + 64, |rec| {
            let a = rec.alloc(n);
            for k in 0..n {
                rec.write(a, k, 1);
            }
        });
        let spec = machine();
        let r = simulate(&prog, &spec, Policy::Serial);
        assert_eq!(r.metrics.cache(1, 0).misses, (n / 8) as u64);
        assert_eq!(r.metrics.cache(2, 0).misses, (n / 32) as u64);
    }
}
