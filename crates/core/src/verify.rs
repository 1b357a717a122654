//! Static verification of recorded programs: a determinacy-race detector
//! and a scheduler-hint lint pass.
//!
//! The paper's scheduler theorems (IPDPS 2010, §III) hold only for
//! *race-free* fork–join programs whose hints are honest:
//!
//! * children declared under an SB or CGC⇒SB fork must not claim more
//!   space than their parent (anchoring happens *under the parent's
//!   shadow*, so a child bound exceeding the parent's breaks the shadow
//!   nesting the proofs rely on);
//! * a task's actual memory footprint (distinct words touched by it and
//!   its descendants) must fit its declared space bound `s(τ)` — the
//!   space admission protocol charges `s(τ)` against the anchor cache, so
//!   an understated bound silently overflows the cache in the model;
//! * CGC⇒SB sibling batches must carry *equal* space bounds (§III-C
//!   distributes "a large number of subtasks with the same space bound");
//! * CGC loop iterations must be independent (no write conflicts) and
//!   laid out left-to-right so contiguous iteration segments touch
//!   contiguous data (§III-A).
//!
//! [`verify`] checks all of this *statically* over a recorded
//! [`Program`] — no machine spec and no re-execution needed. The
//! determinacy-race detector computes series-parallel relations over the
//! fork–join DAG with an English/Hebrew interval labeling (two DFS
//! numberings; two strands are logically parallel iff the numberings
//! disagree on their order) and sweeps every trace entry through shadow
//! memory in recorded order, which is exactly the English (left-to-right
//! depth-first) serial execution order.
//!
//! A [`debug_assert!`]-gated hook in [`crate::sched::simulate`] runs the
//! verifier on every simulated program in debug builds, so a racy or
//! hint-dishonest algorithm fails loudly long before its (meaningless)
//! cache-complexity table is admired.

use std::fmt;

use crate::record::{ForkHint, Program, Segment, TaskId};

/// The flavour of a determinacy race.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RaceKind {
    /// Two logically parallel writes to the same word.
    WriteWrite,
    /// A write logically parallel with a read of the same word (either
    /// order in the recorded trace).
    ReadWrite,
}

/// A determinacy race between two logically parallel accesses.
///
/// `first` is the task of the access that appears earlier in the recorded
/// (serial, depth-first) order; `second` the later one. For a race between
/// iterations of one CGC loop both tasks coincide and `first_strand` /
/// `second_strand` distinguish the iterations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Race {
    /// Conflict flavour.
    pub kind: RaceKind,
    /// The conflicting word address.
    pub addr: u64,
    /// Task of the earlier access.
    pub first: TaskId,
    /// Task of the later access.
    pub second: TaskId,
    /// Strand index (see [`VerifyReport::strands`]) of the earlier access.
    pub first_strand: usize,
    /// Strand index of the later access.
    pub second_strand: usize,
}

impl fmt::Display for Race {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let kind = match self.kind {
            RaceKind::WriteWrite => "write-write",
            RaceKind::ReadWrite => "read-write",
        };
        write!(
            f,
            "{kind} race on word {:#x}: task {} (strand {}) ∥ task {} (strand {})",
            self.addr, self.first, self.first_strand, self.second, self.second_strand
        )
    }
}

/// A violated scheduler-hint invariant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HintViolation {
    /// A forked child declares a larger space bound than its parent, so it
    /// cannot be anchored under the parent's shadow.
    SpaceNotMonotone {
        /// The parent task.
        parent: TaskId,
        /// The offending child.
        child: TaskId,
        /// Parent's declared bound (words).
        parent_space: usize,
        /// Child's declared bound (words).
        child_space: usize,
    },
    /// A task (with its descendants) touches more distinct words than its
    /// declared space bound, defeating space admission.
    FootprintExceedsBound {
        /// The offending task.
        task: TaskId,
        /// Declared `s(τ)` in words.
        declared: usize,
        /// Measured distinct words touched by the task's subtree.
        measured: usize,
    },
    /// Children of one CGC⇒SB fork declare unequal space bounds; §III-C
    /// requires a batch of equal-size subtasks.
    CgcSbUnequalSpace {
        /// The forking task.
        parent: TaskId,
        /// Smallest declared child bound.
        min_space: usize,
        /// Largest declared child bound.
        max_space: usize,
    },
    /// Two iterations of one CGC loop write the same word (also a
    /// determinacy race, reported here with loop coordinates).
    CgcWriteOverlap {
        /// Task owning the loop.
        task: TaskId,
        /// Segment index of the loop within the task.
        seg: usize,
        /// The doubly-written word.
        addr: u64,
        /// Earlier iteration index.
        iter_a: usize,
        /// Later iteration index.
        iter_b: usize,
    },
    /// CGC iteration write regions are not laid out left-to-right: the
    /// per-iteration minimum (or maximum) written address decreases at
    /// `iter`, so contiguous iteration segments touch non-contiguous data
    /// and the §III-A block-boundary argument no longer applies.
    CgcNonMonotoneLayout {
        /// Task owning the loop.
        task: TaskId,
        /// Segment index of the loop within the task.
        seg: usize,
        /// First iteration whose write region steps backwards.
        iter: usize,
    },
    /// A CGC iteration records no memory access at all; empty iterations
    /// distort the ≥ `B_1`-iterations-per-segment length structure the
    /// scheduler relies on when chopping the loop.
    CgcEmptyIteration {
        /// Task owning the loop.
        task: TaskId,
        /// Segment index of the loop within the task.
        seg: usize,
        /// First empty iteration index.
        iter: usize,
    },
}

impl HintViolation {
    /// Whether this finding invalidates the scheduler theorems (an error)
    /// or merely weakens the constant-factor argument (a warning).
    pub fn is_error(&self) -> bool {
        !matches!(
            self,
            HintViolation::CgcNonMonotoneLayout { .. } | HintViolation::CgcEmptyIteration { .. }
        )
    }
}

impl fmt::Display for HintViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            HintViolation::SpaceNotMonotone {
                parent,
                child,
                parent_space,
                child_space,
            } => write!(
                f,
                "space bound not monotone: child task {child} declares {child_space} words \
                 but parent task {parent} declares only {parent_space}"
            ),
            HintViolation::FootprintExceedsBound {
                task,
                declared,
                measured,
            } => write!(
                f,
                "footprint exceeds bound: task {task} declares s(τ) = {declared} words \
                 but touches {measured} distinct words"
            ),
            HintViolation::CgcSbUnequalSpace {
                parent,
                min_space,
                max_space,
            } => write!(
                f,
                "CGC⇒SB batch of task {parent} has unequal child bounds ({min_space}..{max_space})"
            ),
            HintViolation::CgcWriteOverlap {
                task,
                seg,
                addr,
                iter_a,
                iter_b,
            } => write!(
                f,
                "CGC write overlap in task {task} segment {seg}: iterations {iter_a} and \
                 {iter_b} both write word {addr:#x}"
            ),
            HintViolation::CgcNonMonotoneLayout { task, seg, iter } => write!(
                f,
                "CGC layout not left-to-right in task {task} segment {seg}: write region \
                 steps backwards at iteration {iter}"
            ),
            HintViolation::CgcEmptyIteration { task, seg, iter } => write!(
                f,
                "CGC loop in task {task} segment {seg} has an empty iteration (first: {iter})"
            ),
        }
    }
}

/// Hard caps on stored diagnostics; totals keep counting past them.
const MAX_RACES: usize = 64;
const MAX_VIOLATIONS: usize = 64;

/// The result of [`verify`]: machine-readable diagnostics plus summary
/// statistics for the per-algorithm verification table.
#[derive(Debug, Clone)]
pub struct VerifyReport {
    /// Tasks in the DAG.
    pub tasks: usize,
    /// Serial strands (compute segments + CGC iterations with ≥ 1 access).
    pub strands: usize,
    /// Total recorded memory operations swept.
    pub work: u64,
    /// Total conflicting accesses observed (each racing access counts
    /// once; may exceed `races.len()`, which is deduplicated and capped).
    pub conflicts: u64,
    /// Distinct races, deduplicated by `(kind, first task, second task)`
    /// and capped at an internal limit.
    pub races: Vec<Race>,
    /// Hint invariants broken in a way that invalidates the scheduler
    /// theorems (capped at an internal limit; see `violation_count`).
    pub violations: Vec<HintViolation>,
    /// Total error-severity violations found (uncapped count).
    pub violation_count: u64,
    /// Structural warnings: hint usage that weakens, but does not void,
    /// the paper's constant-factor arguments.
    pub warnings: Vec<HintViolation>,
    /// Per-task measured footprint: distinct words touched by the task
    /// and its descendants.
    pub footprints: Vec<usize>,
    /// Measured footprint of the root (the whole program).
    pub max_footprint: usize,
    /// Tightest margin `s(τ) − footprint(τ)` over all tasks; negative
    /// exactly when some `FootprintExceedsBound` was reported.
    pub min_slack: i64,
    /// Loosest margin `s(τ) − footprint(τ)` over all tasks.
    pub max_slack: i64,
}

impl VerifyReport {
    /// No races and no error-severity hint violations.
    pub fn is_clean(&self) -> bool {
        self.conflicts == 0 && self.violation_count == 0
    }

    /// No findings at all, warnings included.
    pub fn is_pristine(&self) -> bool {
        self.is_clean() && self.warnings.is_empty()
    }
}

impl fmt::Display for VerifyReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "verify: {} tasks, {} strands, {} ops; {} conflicting accesses, \
             {} hint violations, {} warnings; footprint {} (slack {}..{})",
            self.tasks,
            self.strands,
            self.work,
            self.conflicts,
            self.violation_count,
            self.warnings.len(),
            self.max_footprint,
            self.min_slack,
            self.max_slack,
        )?;
        for r in &self.races {
            writeln!(f, "  race: {r}")?;
        }
        for v in &self.violations {
            writeln!(f, "  violation: {v}")?;
        }
        for w in &self.warnings {
            writeln!(f, "  warning: {w}")?;
        }
        Ok(())
    }
}

/// A maximal serial piece of the program: one compute segment or one CGC
/// iteration. Strands tile the trace, so sorting by `lo` recovers the
/// recorded (English) order.
#[derive(Debug, Clone, Copy)]
struct Strand {
    task: TaskId,
    lo: usize,
    hi: usize,
}

/// Per-segment strand bookkeeping for the Hebrew traversal.
enum SegStrands {
    Compute(usize),
    /// One strand id per iteration (including empty iterations, which get
    /// `usize::MAX`).
    Cgc(Vec<usize>),
    Fork(Vec<TaskId>),
}

const NO_STRAND: usize = usize::MAX;

/// Collects strands in recording order and the per-segment structure
/// needed to re-traverse them right-to-left.
fn collect_strands(prog: &Program) -> (Vec<Strand>, Vec<Vec<SegStrands>>) {
    let mut strands = Vec::new();
    let mut segs: Vec<Vec<SegStrands>> = Vec::with_capacity(prog.tasks().len());
    for (tid, task) in prog.tasks().iter().enumerate() {
        let mut infos = Vec::with_capacity(task.segments.len());
        for seg in &task.segments {
            match seg {
                Segment::Compute { start, end } => {
                    strands.push(Strand {
                        task: tid,
                        lo: *start,
                        hi: *end,
                    });
                    infos.push(SegStrands::Compute(strands.len() - 1));
                }
                Segment::CgcLoop { start, iter_ends } => {
                    let mut ids = Vec::with_capacity(iter_ends.len());
                    let mut lo = *start;
                    for &hi in iter_ends {
                        if hi > lo {
                            strands.push(Strand { task: tid, lo, hi });
                            ids.push(strands.len() - 1);
                        } else {
                            ids.push(NO_STRAND);
                        }
                        lo = hi;
                    }
                    infos.push(SegStrands::Cgc(ids));
                }
                Segment::Fork { children, .. } => {
                    infos.push(SegStrands::Fork(children.clone()));
                }
            }
        }
        segs.push(infos);
    }
    // Recording is depth-first left-to-right, so trace position is the
    // English (serial execution) order. Strands were pushed per task, not
    // per trace position — sort and remap the per-segment ids.
    let mut order: Vec<usize> = (0..strands.len()).collect();
    order.sort_unstable_by_key(|&i| strands[i].lo);
    let mut rank = vec![0usize; strands.len()];
    for (new, &old) in order.iter().enumerate() {
        rank[old] = new;
    }
    let sorted: Vec<Strand> = order.iter().map(|&i| strands[i]).collect();
    for infos in &mut segs {
        for info in infos {
            match info {
                SegStrands::Compute(s) => *s = rank[*s],
                SegStrands::Cgc(ids) => {
                    for id in ids {
                        if *id != NO_STRAND {
                            *id = rank[*id];
                        }
                    }
                }
                SegStrands::Fork(_) => {}
            }
        }
    }
    (sorted, segs)
}

/// Hebrew numbering: a second depth-first sweep that visits *parallel*
/// compositions (fork children, CGC iterations) right-to-left while
/// keeping series order. Two strands are logically parallel iff English
/// and Hebrew disagree on their order (Bender et al., SP-order).
fn hebrew_labels(prog: &Program, strands: &[Strand], segs: &[Vec<SegStrands>]) -> Vec<usize> {
    debug_assert!(strands.windows(2).all(|w| w[0].lo <= w[1].lo));
    let mut hebrew = vec![0usize; strands.len()];
    let mut next = 0usize;
    enum Item<'a> {
        Task(TaskId),
        Seg(&'a SegStrands),
    }
    let mut stack = vec![Item::Task(prog.root())];
    while let Some(item) = stack.pop() {
        match item {
            Item::Task(t) => {
                // Segments are a series composition: preserve their order
                // by pushing in reverse.
                for seg in segs[t].iter().rev() {
                    stack.push(Item::Seg(seg));
                }
            }
            Item::Seg(SegStrands::Compute(s)) => {
                hebrew[*s] = next;
                next += 1;
            }
            Item::Seg(SegStrands::Cgc(ids)) => {
                // Iterations are parallel: number them right-to-left.
                for &s in ids.iter().rev() {
                    if s != NO_STRAND {
                        hebrew[s] = next;
                        next += 1;
                    }
                }
            }
            Item::Seg(SegStrands::Fork(children)) => {
                // Children are parallel: pushing left-to-right makes them
                // pop (and number) right-to-left.
                for &c in children.iter() {
                    stack.push(Item::Task(c));
                }
            }
        }
    }
    debug_assert_eq!(next, strands.len());
    hebrew
}

/// `NO_STRAND` in a [`Shadow`] word.
const NO_SHADOW: u32 = u32::MAX;

/// Last writer and the most-parallel reader of one shadow word, as strand
/// ids.
#[derive(Clone, Copy)]
struct Shadow {
    /// Strand of the last write, `NO_SHADOW` if never written.
    writer: u32,
    /// Among readers since the last write, the strand with the maximum
    /// Hebrew label — if any past reader is parallel to a new writer,
    /// this one is.
    reader: u32,
}

#[derive(Default)]
struct RaceSweep {
    conflicts: u64,
    /// At most `MAX_RACES`, one per kind and pair of tasks.
    races: Vec<Race>,
}

impl RaceSweep {
    fn report(
        &mut self,
        kind: RaceKind,
        addr: u64,
        strands: &[Strand],
        earlier: usize,
        later: usize,
    ) {
        self.conflicts += 1;
        let (first, second) = (strands[earlier].task, strands[later].task);
        let seen = |r: &Race| (r.kind, r.first, r.second) == (kind, first, second);
        if self.races.len() < MAX_RACES && !self.races.iter().any(seen) {
            self.races.push(Race {
                kind,
                addr,
                first,
                second,
                first_strand: earlier,
                second_strand: later,
            });
        }
    }

    /// Sweep every access in English order. `hebrew[w] > hebrew[s]` for an
    /// English-earlier strand `w` means `w ∥ s`. Recorded addresses are
    /// dense in `0..mem.len()`, so the shadow words sit in a flat table.
    fn run(&mut self, prog: &Program, strands: &[Strand], hebrew: &[usize]) {
        assert!(strands.len() < NO_SHADOW as usize, "strand ids are 32-bit");
        let trace = prog.trace();
        let untouched = Shadow {
            writer: NO_SHADOW,
            reader: NO_SHADOW,
        };
        let mut shadow = vec![untouched; prog.mem.len()];
        for (sid, s) in strands.iter().enumerate() {
            let h = hebrew[sid];
            // Whether the strand `other` of a shadow word races with `sid`.
            let parallel = |other: u32| {
                other != NO_SHADOW && other as usize != sid && hebrew[other as usize] > h
            };
            for e in &trace[s.lo..s.hi] {
                let addr = e.addr();
                let cell = &mut shadow[addr as usize];
                let (w, r) = (cell.writer, cell.reader);
                if e.is_write() {
                    *cell = Shadow {
                        writer: sid as u32,
                        reader: NO_SHADOW,
                    };
                    if parallel(w) {
                        self.report(RaceKind::WriteWrite, addr, strands, w as usize, sid);
                    }
                    if parallel(r) {
                        self.report(RaceKind::ReadWrite, addr, strands, r as usize, sid);
                    }
                } else {
                    if r == NO_SHADOW || hebrew[r as usize] < h {
                        cell.reader = sid as u32;
                    }
                    if parallel(w) {
                        self.report(RaceKind::ReadWrite, addr, strands, w as usize, sid);
                    }
                }
            }
        }
    }
}

/// Measured per-task footprints: distinct words touched by each task's
/// subtree, as its accesses minus its repeats.
///
/// Strands come in recorded (depth-first) order, in which every subtree is
/// one contiguous run. So an access repeats a word *within subtree `a`*
/// exactly when the word's previous access lies in that subtree too, that
/// is when `a` is the lowest common ancestor of the two accessing tasks or
/// one of its ancestors. Each access is credited to its task and each
/// repeat debited from that common ancestor (found by climbing from the
/// larger id: children carry larger ids than parents); one reverse pass
/// then sums the subtrees. Recorded addresses are dense in `0..mem.len()`,
/// so the last task to touch each word sits in a flat table.
fn footprints(prog: &Program, strands: &[Strand]) -> Vec<usize> {
    const UNTOUCHED: u32 = u32::MAX;
    let trace = prog.trace();
    let parent = |t: usize| prog.tasks()[t].parent.expect("non-root task has a parent");
    let mut last_task = vec![UNTOUCHED; prog.mem.len()];
    let mut distinct = vec![0i64; prog.tasks().len()];
    for s in strands {
        for e in &trace[s.lo..s.hi] {
            let prev = std::mem::replace(&mut last_task[e.addr() as usize], s.task as u32);
            if prev == s.task as u32 {
                continue;
            }
            distinct[s.task] += 1;
            if prev != UNTOUCHED {
                let (mut a, mut b) = (s.task, prev as usize);
                while a != b {
                    if a > b {
                        a = parent(a);
                    } else {
                        b = parent(b);
                    }
                }
                distinct[a] -= 1;
            }
        }
    }
    for t in (1..distinct.len()).rev() {
        distinct[parent(t)] += distinct[t];
    }
    distinct.into_iter().map(|d| d as usize).collect()
}

/// The hint lint pass: space-bound monotonicity, CGC⇒SB equal bounds,
/// CGC write disjointness and left-to-right layout.
fn lint_hints(
    prog: &Program,
    fp: &[usize],
    violations: &mut Vec<HintViolation>,
    violation_count: &mut u64,
    warnings: &mut Vec<HintViolation>,
) {
    let push = |v: HintViolation,
                violations: &mut Vec<HintViolation>,
                violation_count: &mut u64,
                warnings: &mut Vec<HintViolation>| {
        if v.is_error() {
            *violation_count += 1;
            if violations.len() < MAX_VIOLATIONS {
                violations.push(v);
            }
        } else if warnings.len() < MAX_VIOLATIONS {
            warnings.push(v);
        }
    };
    let trace = prog.trace();
    // For the CGC write-overlap lint: per word, the last loop that wrote it
    // (loops numbered from 1 as they are met, so the table is never
    // cleared) and the iteration of that loop that did.
    let mut loop_writers = vec![(0u32, 0usize); prog.mem.len()];
    let mut loops = 0u32;
    for (tid, task) in prog.tasks().iter().enumerate() {
        // Footprint honesty.
        if fp[tid] > task.space {
            push(
                HintViolation::FootprintExceedsBound {
                    task: tid,
                    declared: task.space,
                    measured: fp[tid],
                },
                violations,
                violation_count,
                warnings,
            );
        }
        for (seg_idx, seg) in task.segments.iter().enumerate() {
            match seg {
                Segment::Fork { hint, children } => {
                    // Shadow nesting: children anchored under the parent.
                    for &ch in children {
                        let cs = prog.tasks()[ch].space;
                        if cs > task.space {
                            push(
                                HintViolation::SpaceNotMonotone {
                                    parent: tid,
                                    child: ch,
                                    parent_space: task.space,
                                    child_space: cs,
                                },
                                violations,
                                violation_count,
                                warnings,
                            );
                        }
                    }
                    if *hint == ForkHint::CgcSb && children.len() > 1 {
                        let lo = children
                            .iter()
                            .map(|&c| prog.tasks()[c].space)
                            .min()
                            .unwrap();
                        let hi = children
                            .iter()
                            .map(|&c| prog.tasks()[c].space)
                            .max()
                            .unwrap();
                        if lo != hi {
                            push(
                                HintViolation::CgcSbUnequalSpace {
                                    parent: tid,
                                    min_space: lo,
                                    max_space: hi,
                                },
                                violations,
                                violation_count,
                                warnings,
                            );
                        }
                    }
                }
                Segment::CgcLoop { start, iter_ends } => {
                    loops = loops.checked_add(1).expect("CGC loop ids are 32-bit");
                    let mut last_min = 0u64;
                    let mut last_max = 0u64;
                    let mut have_prev = false;
                    let mut reported_layout = false;
                    let mut reported_empty = false;
                    let mut lo = *start;
                    for (k, &hi) in iter_ends.iter().enumerate() {
                        if hi == lo && !reported_empty {
                            reported_empty = true;
                            push(
                                HintViolation::CgcEmptyIteration {
                                    task: tid,
                                    seg: seg_idx,
                                    iter: k,
                                },
                                violations,
                                violation_count,
                                warnings,
                            );
                        }
                        let mut wmin = u64::MAX;
                        let mut wmax = 0u64;
                        for e in &trace[lo..hi] {
                            if !e.is_write() {
                                continue;
                            }
                            let addr = e.addr();
                            wmin = wmin.min(addr);
                            wmax = wmax.max(addr);
                            let (prev_loop, prev) =
                                std::mem::replace(&mut loop_writers[addr as usize], (loops, k));
                            if prev_loop == loops && prev != k {
                                push(
                                    HintViolation::CgcWriteOverlap {
                                        task: tid,
                                        seg: seg_idx,
                                        addr,
                                        iter_a: prev,
                                        iter_b: k,
                                    },
                                    violations,
                                    violation_count,
                                    warnings,
                                );
                            }
                        }
                        if wmin != u64::MAX {
                            if have_prev && !reported_layout && (wmin < last_min || wmax < last_max)
                            {
                                reported_layout = true;
                                push(
                                    HintViolation::CgcNonMonotoneLayout {
                                        task: tid,
                                        seg: seg_idx,
                                        iter: k,
                                    },
                                    violations,
                                    violation_count,
                                    warnings,
                                );
                            }
                            last_min = wmin;
                            last_max = wmax;
                            have_prev = true;
                        }
                        lo = hi;
                    }
                }
                Segment::Compute { .. } => {}
            }
        }
    }
}

/// Per-task subtree footprints: distinct words touched by each task and
/// its descendants. This quantity is schedule-invariant over all
/// SP-consistent executions (a task's subtree accesses the same word
/// set under any interleaving), which is what lets the certifier's
/// footprint audit ([`crate::certify`]) speak about *all* schedules from
/// one recording.
pub fn task_footprints(prog: &Program) -> Vec<usize> {
    let (strands, _) = collect_strands(prog);
    footprints(prog, &strands)
}

/// Measured space bounds for every task of a recorded program: the
/// task's subtree footprint (at least 1 word), with CGC⇒SB sibling
/// batches equalized to the batch maximum so the §III-C equal-bounds
/// requirement holds by construction.
///
/// This is the oracle behind [`crate::Recorder::record_measured`]:
/// algorithms whose per-task space is data-dependent (sorting, list
/// contraction, graph contraction) record a scouting pass, measure, and
/// re-record with these bounds. The result is always monotone (a
/// child's footprint is a subset of its parent's) and always covers the
/// measured footprint.
pub fn measured_bounds(prog: &Program) -> Vec<usize> {
    let (strands, _) = collect_strands(prog);
    let fp = footprints(prog, &strands);
    let mut bounds: Vec<usize> = fp.iter().map(|&f| f.max(1)).collect();
    for task in prog.tasks() {
        for seg in &task.segments {
            if let Segment::Fork {
                hint: ForkHint::CgcSb,
                children,
            } = seg
            {
                let hi = children.iter().map(|&c| bounds[c]).max().unwrap_or(1);
                for &c in children {
                    bounds[c] = hi;
                }
            }
        }
    }
    bounds
}

/// Statically verify a recorded program: determinacy races over the
/// series-parallel fork–join DAG and honesty of the SB / CGC⇒SB / CGC
/// scheduler hints. Runs in `O(T log T)` for a trace of `T` entries and
/// needs no machine spec.
pub fn verify(prog: &Program) -> VerifyReport {
    let (strands, segs) = collect_strands(prog);
    let hebrew = hebrew_labels(prog, &strands, &segs);
    let mut sweep = RaceSweep::default();
    sweep.run(prog, &strands, &hebrew);
    let fp = footprints(prog, &strands);
    let mut violations = Vec::new();
    let mut warnings = Vec::new();
    let mut violation_count = 0u64;
    lint_hints(
        prog,
        &fp,
        &mut violations,
        &mut violation_count,
        &mut warnings,
    );
    let mut min_slack = i64::MAX;
    let mut max_slack = i64::MIN;
    for (t, &m) in fp.iter().enumerate() {
        let slack = prog.tasks()[t].space as i64 - m as i64;
        min_slack = min_slack.min(slack);
        max_slack = max_slack.max(slack);
    }
    if fp.is_empty() {
        min_slack = 0;
        max_slack = 0;
    }
    VerifyReport {
        tasks: prog.tasks().len(),
        strands: strands.len(),
        work: prog.work(),
        conflicts: sweep.conflicts,
        races: sweep.races,
        violations,
        violation_count,
        warnings,
        max_footprint: fp.first().copied().unwrap_or(0),
        footprints: fp,
        min_slack,
        max_slack,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{spawn, Recorder};

    #[test]
    fn straight_line_is_clean() {
        let prog = Recorder::record(70, |rec| {
            let a = rec.alloc(4);
            rec.write(a, 0, 1);
            let v = rec.read(a, 0);
            rec.write(a, 1, v);
        });
        let r = verify(&prog);
        assert!(r.is_pristine(), "{r}");
        assert_eq!(r.strands, 1);
        assert_eq!(r.max_footprint, 2);
    }

    #[test]
    fn disjoint_sb_children_are_clean() {
        let prog = Recorder::record(200, |rec| {
            let a = rec.alloc(2);
            rec.fork2(
                ForkHint::Sb,
                100,
                |rec| rec.write(a, 0, 1),
                100,
                |rec| rec.write(a, 1, 2),
            );
            let _ = rec.read(a, 0);
        });
        let r = verify(&prog);
        assert!(r.is_pristine(), "{r}");
    }

    #[test]
    fn sibling_write_write_race_is_found() {
        let prog = Recorder::record(200, |rec| {
            let a = rec.alloc(2);
            rec.fork2(
                ForkHint::Sb,
                100,
                |rec| rec.write(a, 0, 1),
                100,
                |rec| rec.write(a, 0, 2),
            );
        });
        let r = verify(&prog);
        assert!(!r.is_clean());
        assert_eq!(r.races.len(), 1);
        assert_eq!(r.races[0].kind, RaceKind::WriteWrite);
        assert_eq!((r.races[0].first, r.races[0].second), (1, 2));
    }

    #[test]
    fn sibling_read_write_race_is_found_both_orders() {
        // Earlier sibling reads, later one writes.
        let prog = Recorder::record(200, |rec| {
            let a = rec.alloc(2);
            rec.fork2(
                ForkHint::Sb,
                100,
                |rec| {
                    let _ = rec.read(a, 0);
                },
                100,
                |rec| rec.write(a, 0, 2),
            );
        });
        let r = verify(&prog);
        assert_eq!(r.races[0].kind, RaceKind::ReadWrite);
        // Earlier sibling writes, later one reads.
        let prog = Recorder::record(200, |rec| {
            let a = rec.alloc(2);
            rec.fork2(
                ForkHint::Sb,
                100,
                |rec| rec.write(a, 0, 2),
                100,
                |rec| {
                    let _ = rec.read(a, 0);
                },
            );
        });
        let r = verify(&prog);
        assert_eq!(r.races[0].kind, RaceKind::ReadWrite);
    }

    #[test]
    fn parent_child_sequencing_is_not_a_race() {
        // Parent writes before the fork and reads after the join; children
        // read and write the same words in between. All serial.
        let prog = Recorder::record(300, |rec| {
            let a = rec.alloc(2);
            rec.write(a, 0, 7);
            rec.fork2(
                ForkHint::Sb,
                100,
                |rec| {
                    let v = rec.read(a, 0);
                    rec.write(a, 1, v);
                },
                100,
                |_| {},
            );
            let _ = rec.read(a, 1);
            rec.write(a, 0, 9);
        });
        let r = verify(&prog);
        assert!(r.is_clean(), "{r}");
    }

    #[test]
    fn nested_cousins_race_across_fork_levels() {
        // Grandchild of child 1 races with child 2.
        let prog = Recorder::record(400, |rec| {
            let a = rec.alloc(2);
            rec.fork2(
                ForkHint::Sb,
                200,
                |rec| {
                    rec.fork2(ForkHint::Sb, 100, |rec| rec.write(a, 0, 1), 100, |_| {});
                },
                200,
                |rec| rec.write(a, 0, 2),
            );
        });
        let r = verify(&prog);
        assert_eq!(r.races.len(), 1);
        assert_eq!(r.races[0].kind, RaceKind::WriteWrite);
    }

    #[test]
    fn cgc_iterations_racing_is_found() {
        let prog = Recorder::record(100, |rec| {
            let a = rec.alloc(8);
            rec.cgc_for(8, |rec, k| {
                rec.write(a, k / 2, k as u64); // pairs collide
            });
        });
        let r = verify(&prog);
        assert!(!r.is_clean());
        assert!(r.races.iter().any(|x| x.kind == RaceKind::WriteWrite));
        // The lint reports the same overlap with loop coordinates.
        assert!(r
            .violations
            .iter()
            .any(|v| matches!(v, HintViolation::CgcWriteOverlap { .. })));
    }

    #[test]
    fn cgc_disjoint_iterations_are_clean() {
        let prog = Recorder::record(100, |rec| {
            let a = rec.alloc(8);
            let b = rec.alloc(8);
            rec.cgc_for(8, |rec, k| {
                let v = rec.read(a, k);
                rec.write(b, k, v + 1);
            });
        });
        let r = verify(&prog);
        assert!(r.is_pristine(), "{r}");
        assert_eq!(r.strands, 8);
    }

    #[test]
    fn cgc_parallel_reads_of_shared_word_are_fine() {
        let prog = Recorder::record(100, |rec| {
            let a = rec.alloc(8);
            let b = rec.alloc(8);
            rec.write(a, 0, 5);
            rec.cgc_for(8, |rec, k| {
                let v = rec.read(a, 0); // shared read
                rec.write(b, k, v);
            });
        });
        let r = verify(&prog);
        assert!(r.is_clean(), "{r}");
    }

    #[test]
    fn understated_space_bound_is_flagged() {
        let prog = Recorder::record(70, |rec| {
            let a = rec.alloc(64);
            rec.fork(
                ForkHint::Sb,
                vec![spawn(2, move |rec: &mut Recorder| {
                    for k in 0..10 {
                        rec.write(a, k, 1); // 10 words, declared 2
                    }
                })],
            );
        });
        let r = verify(&prog);
        assert!(r.violations.iter().any(|v| matches!(
            v,
            HintViolation::FootprintExceedsBound {
                task: 1,
                declared: 2,
                measured: 10
            }
        )));
        assert!(r.min_slack < 0);
        // Error severity: lands in `violations`, so the report is
        // neither clean nor pristine.
        assert!(r.violations.iter().all(HintViolation::is_error));
        assert!(!r.is_clean());
        assert!(!r.is_pristine());
    }

    #[test]
    fn non_monotone_child_bound_is_flagged() {
        let prog = Recorder::record(10, |rec| {
            let a = rec.alloc(2);
            rec.fork(
                ForkHint::Sb,
                vec![spawn(50, move |rec: &mut Recorder| rec.write(a, 0, 1))],
            );
        });
        let r = verify(&prog);
        assert!(r.violations.iter().any(|v| matches!(
            v,
            HintViolation::SpaceNotMonotone {
                parent: 0,
                child: 1,
                ..
            }
        )));
        assert!(!r.is_clean());
        assert!(!r.is_pristine());
    }

    #[test]
    fn cgcsb_unequal_bounds_are_flagged() {
        let prog = Recorder::record(100, |rec| {
            let a = rec.alloc(2);
            rec.fork2(
                ForkHint::CgcSb,
                10,
                |rec| rec.write(a, 0, 1),
                20,
                |rec| rec.write(a, 1, 1),
            );
        });
        let r = verify(&prog);
        assert!(r
            .violations
            .iter()
            .any(|v| matches!(v, HintViolation::CgcSbUnequalSpace { parent: 0, .. })));
        assert!(!r.is_clean());
        assert!(!r.is_pristine());
    }

    #[test]
    fn backwards_cgc_layout_is_a_warning_not_an_error() {
        let prog = Recorder::record(100, |rec| {
            let a = rec.alloc(8);
            rec.cgc_for(8, |rec, k| {
                rec.write(a, 7 - k, 1); // right-to-left
            });
        });
        let r = verify(&prog);
        // Warning severity: clean (no theorem is voided) but not
        // pristine (the constant-factor argument is weakened).
        assert!(r.is_clean(), "{r}");
        assert!(!r.is_pristine());
        assert!(r
            .warnings
            .iter()
            .any(|v| matches!(v, HintViolation::CgcNonMonotoneLayout { .. })));
        assert!(r.warnings.iter().all(|v| !v.is_error()));
    }

    #[test]
    fn cgc_empty_iteration_is_a_warning_not_an_error() {
        let prog = Recorder::record(100, |rec| {
            let a = rec.alloc(8);
            rec.cgc_for(8, |rec, k| {
                if k != 3 {
                    rec.write(a, k, 1); // iteration 3 records nothing
                }
            });
        });
        let r = verify(&prog);
        assert!(r.is_clean(), "{r}");
        assert!(!r.is_pristine());
        assert!(r.warnings.iter().any(|v| matches!(
            v,
            HintViolation::CgcEmptyIteration {
                task: 0,
                seg: 0,
                iter: 3
            }
        )));
        assert!(r.warnings.iter().all(|v| !v.is_error()));
    }

    /// The documented severity split, variant by variant: the four
    /// theorem-voiding findings are errors, the two constant-factor
    /// findings are warnings — exactly the routing `verify` uses when
    /// filling `violations` vs `warnings`.
    #[test]
    fn violation_severities_split_errors_from_warnings() {
        let errors = [
            HintViolation::SpaceNotMonotone {
                parent: 0,
                child: 1,
                parent_space: 1,
                child_space: 2,
            },
            HintViolation::FootprintExceedsBound {
                task: 1,
                declared: 1,
                measured: 2,
            },
            HintViolation::CgcSbUnequalSpace {
                parent: 0,
                min_space: 1,
                max_space: 2,
            },
            HintViolation::CgcWriteOverlap {
                task: 0,
                seg: 0,
                addr: 0,
                iter_a: 0,
                iter_b: 1,
            },
        ];
        let warnings = [
            HintViolation::CgcNonMonotoneLayout {
                task: 0,
                seg: 0,
                iter: 1,
            },
            HintViolation::CgcEmptyIteration {
                task: 0,
                seg: 0,
                iter: 0,
            },
        ];
        for v in &errors {
            assert!(v.is_error(), "{v} must be error severity");
        }
        for v in &warnings {
            assert!(!v.is_error(), "{v} must be warning severity");
        }
    }

    #[test]
    fn footprint_counts_subtree_distinct_words() {
        let prog = Recorder::record(100, |rec| {
            let a = rec.alloc(4);
            rec.write(a, 0, 1);
            rec.fork2(
                ForkHint::Sb,
                50,
                |rec| rec.write(a, 1, 1),
                50,
                |rec| {
                    rec.write(a, 2, 1);
                    rec.write(a, 2, 2); // same word twice
                },
            );
        });
        let r = verify(&prog);
        assert_eq!(r.footprints[1], 1);
        assert_eq!(r.footprints[2], 1);
        assert_eq!(r.footprints[0], 3);
        assert_eq!(r.max_footprint, 3);
    }

    #[test]
    fn race_count_dedupes_but_keeps_totals() {
        let prog = Recorder::record(200, |rec| {
            let a = rec.alloc(8);
            rec.fork2(
                ForkHint::Sb,
                100,
                |rec| {
                    for k in 0..8 {
                        rec.write(a, k, 1);
                    }
                },
                100,
                |rec| {
                    for k in 0..8 {
                        rec.write(a, k, 2);
                    }
                },
            );
        });
        let r = verify(&prog);
        assert_eq!(r.conflicts, 8);
        assert_eq!(r.races.len(), 1); // dedup by (kind, task pair)
    }

    #[test]
    fn empty_program_verifies() {
        let prog = Recorder::record(0, |_| {});
        let r = verify(&prog);
        assert!(r.is_pristine());
        assert_eq!(r.strands, 0);
        assert_eq!(r.max_footprint, 0);
    }

    /// The set-merging footprint oracle the flat-table one replaced.
    fn footprints_by_set_merging(prog: &Program, strands: &[Strand]) -> Vec<usize> {
        use std::collections::HashSet;
        let n = prog.tasks().len();
        let mut sets: Vec<HashSet<u64>> = vec![HashSet::new(); n];
        for s in strands {
            sets[s.task].extend(prog.trace()[s.lo..s.hi].iter().map(|e| e.addr()));
        }
        let mut out = vec![0usize; n];
        for t in (0..n).rev() {
            out[t] = sets[t].len();
            if let Some(p) = prog.tasks()[t].parent {
                let child = std::mem::take(&mut sets[t]);
                sets[p].extend(child);
            }
        }
        out
    }

    /// Random fork trees (binary and wide, SB and CGC⇒SB, with CGC loops
    /// and compute before, between and after the forks) whose tasks read
    /// and write overlapping windows of shared arrays: footprints must
    /// equal the set-merging oracle's on every task.
    #[test]
    fn footprints_match_set_merging_on_random_trees() {
        fn next(rng: &mut u64) -> usize {
            *rng = rng
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (*rng >> 33) as usize
        }
        fn touch(rec: &mut Recorder, arrs: &[crate::Arr], rng: &mut u64) {
            let a = arrs[next(rng) % arrs.len()];
            let (lo, len) = (next(rng) % a.len(), 1 + next(rng) % 24);
            for k in lo..(lo + len).min(a.len()) {
                if next(rng).is_multiple_of(3) {
                    rec.write(a, k, 1);
                } else {
                    rec.read(a, k);
                }
            }
        }
        fn body(rec: &mut Recorder, arrs: &[crate::Arr], depth: usize, seed: u64) {
            let mut rng = seed;
            for round in 0..1 + next(&mut rng) % 3 {
                touch(rec, arrs, &mut rng);
                if next(&mut rng).is_multiple_of(4) {
                    let a = arrs[0];
                    rec.cgc_for(1 + next(&mut rng) % 12, |rec, k| {
                        rec.read(a, k % a.len());
                    });
                }
                if depth == 0 {
                    continue;
                }
                let hint = [ForkHint::Sb, ForkHint::CgcSb][next(&mut rng) % 2];
                let children = (0..1 + next(&mut rng) % 4)
                    .map(|c| {
                        let seed = rng ^ (c as u64) << 17 ^ round as u64;
                        spawn(1, move |rec: &mut Recorder| {
                            body(rec, arrs, depth - 1, seed)
                        })
                    })
                    .collect();
                rec.fork(hint, children);
            }
            touch(rec, arrs, &mut rng);
        }
        for seed in 0..24u64 {
            let prog = Recorder::record(1, |rec| {
                let arrs: Vec<_> = (0..3).map(|k| rec.alloc(40 + 100 * k)).collect();
                body(
                    rec,
                    &arrs,
                    1 + seed as usize % 5,
                    seed.wrapping_mul(0x9e3779b97f4a7c15) | 1,
                );
            });
            let (strands, _) = collect_strands(&prog);
            assert_eq!(
                footprints(&prog, &strands),
                footprints_by_set_merging(&prog, &strands),
                "seed {seed}, {} tasks",
                prog.tasks().len()
            );
        }
    }
}
