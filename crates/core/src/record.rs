//! The record phase: execute a multicore-oblivious algorithm once on real
//! data, producing a [`Program`] — a fork–join task DAG annotated with
//! scheduler hints and per-task memory-access traces.
//!
//! This is the machine-*independent* half of the runtime. Nothing in this
//! module knows cache sizes, block lengths or core counts; an algorithm
//! recorded here can be replayed (crate::sched) on any [`hm_model::MachineSpec`].

use crate::arr::{Arr, Mat};
use crate::trace::TraceEntry;

/// Index of a task in a [`Program`].
pub type TaskId = usize;

/// Fork hints an algorithm can attach to a parallel block (paper §III).
///
/// `CGC` itself is not a fork hint: it schedules parallel **for** loops and
/// is exposed as [`Recorder::cgc_for`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ForkHint {
    /// Space-bound scheduling (§III-B): each child is anchored at the
    /// least-loaded cache of the smallest level that fits its space bound,
    /// under the shadow of the parent's anchor.
    Sb,
    /// CGC on SB (§III-C): the children (equal space bounds) are
    /// distributed evenly across the caches of level `max(i, j)` under the
    /// parent's shadow, where `i` is the smallest level fitting the bound
    /// and `j` the smallest level with at most `m` caches in the shadow.
    CgcSb,
}

/// One step of a task body.
#[derive(Debug, Clone)]
pub enum Segment {
    /// Straight-line computation: a contiguous range of trace entries,
    /// executed on a single core.
    Compute {
        /// First trace index.
        start: usize,
        /// One past the last trace index.
        end: usize,
    },
    /// A CGC parallel for loop: `iter_ends[k]` is the trace index one past
    /// the end of iteration `k` (iteration 0 starts at `start`). The
    /// scheduler chops iterations into contiguous per-core segments.
    CgcLoop {
        /// First trace index of iteration 0.
        start: usize,
        /// Per-iteration end offsets (absolute trace indices).
        iter_ends: Vec<usize>,
    },
    /// A fork–join block: all children run in parallel under `hint`; the
    /// task continues only after every child completes.
    Fork {
        /// Scheduling hint for the children.
        hint: ForkHint,
        /// The spawned tasks.
        children: Vec<TaskId>,
    },
}

/// A recorded task: its space bound (in words, as declared by the
/// algorithm's `Space Bound:` annotation) and its body.
#[derive(Debug, Clone)]
pub struct TaskNode {
    /// Declared space bound `s(τ)` in words.
    pub space: usize,
    /// Body steps, in order.
    pub segments: Vec<Segment>,
    /// Spawning task, `None` for the root.
    pub parent: Option<TaskId>,
}

/// A fully recorded program: the task DAG, the global trace buffer, and the
/// final memory image (which holds the algorithm's output).
#[derive(Debug, Clone)]
pub struct Program {
    pub(crate) mem: Vec<u64>,
    pub(crate) trace: Vec<TraceEntry>,
    pub(crate) tasks: Vec<TaskNode>,
    /// Every region handed out by the recorder's bump allocator, in
    /// allocation order (offsets strictly increase). The certifier keys
    /// on this table to name addresses relative to their allocation,
    /// i.e. modulo base-pointer relocation.
    pub(crate) allocs: Vec<Arr>,
}

impl Program {
    /// The root task id (always 0).
    pub fn root(&self) -> TaskId {
        0
    }

    /// All tasks.
    pub fn tasks(&self) -> &[TaskNode] {
        &self.tasks
    }

    /// The trace buffer.
    pub fn trace(&self) -> &[TraceEntry] {
        &self.trace
    }

    /// The allocation table: every region the recorder's bump allocator
    /// handed out, in allocation order (offsets strictly increase).
    /// [`crate::certify`] uses it to rewrite raw trace addresses as
    /// `(allocation, offset)` pairs, making traces comparable modulo
    /// base-pointer relocation.
    pub fn allocs(&self) -> &[Arr] {
        &self.allocs
    }

    /// Total number of recorded memory operations (the program's *work*).
    pub fn work(&self) -> u64 {
        self.trace.len() as u64
    }

    /// Read a word of the final memory image.
    pub fn get(&self, arr: Arr, i: usize) -> u64 {
        assert!(i < arr.len);
        self.mem[(arr.off + i as u64) as usize]
    }

    /// Read an `f64` stored with [`Recorder::write_f64`].
    pub fn get_f64(&self, arr: Arr, i: usize) -> f64 {
        f64::from_bits(self.get(arr, i))
    }

    /// The final contents of a region.
    pub fn slice(&self, arr: Arr) -> &[u64] {
        &self.mem[arr.off as usize..arr.off as usize + arr.len]
    }

    /// Final contents of a matrix element.
    pub fn get_mat(&self, m: &Mat, i: usize, j: usize) -> u64 {
        self.mem[m.addr(i, j) as usize]
    }

    /// Final contents of a matrix element as `f64`.
    pub fn get_mat_f64(&self, m: &Mat, i: usize, j: usize) -> f64 {
        f64::from_bits(self.get_mat(m, i, j))
    }
}

/// Aggregate shape statistics of a recorded program (see
/// [`Program::stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProgramStats {
    /// Total tasks in the DAG.
    pub tasks: usize,
    /// Fork blocks with the SB hint.
    pub sb_forks: usize,
    /// Fork blocks with the CGC⇒SB hint.
    pub cgcsb_forks: usize,
    /// CGC parallel-for segments.
    pub cgc_loops: usize,
    /// Straight-line compute segments.
    pub compute_segments: usize,
    /// Maximum fork-nesting depth.
    pub max_depth: usize,
    /// Total recorded memory operations.
    pub work: u64,
}

impl Program {
    /// Shape statistics: how the algorithm used the hint vocabulary.
    pub fn stats(&self) -> ProgramStats {
        let mut st = ProgramStats {
            tasks: self.tasks.len(),
            sb_forks: 0,
            cgcsb_forks: 0,
            cgc_loops: 0,
            compute_segments: 0,
            max_depth: 0,
            work: self.work(),
        };
        let mut depth = vec![0usize; self.tasks.len()];
        for (id, t) in self.tasks.iter().enumerate() {
            if let Some(p) = t.parent {
                depth[id] = depth[p] + 1;
            }
            st.max_depth = st.max_depth.max(depth[id]);
            for seg in &t.segments {
                match seg {
                    Segment::Compute { .. } => st.compute_segments += 1,
                    Segment::CgcLoop { .. } => st.cgc_loops += 1,
                    Segment::Fork {
                        hint: ForkHint::Sb, ..
                    } => st.sb_forks += 1,
                    Segment::Fork {
                        hint: ForkHint::CgcSb,
                        ..
                    } => st.cgcsb_forks += 1,
                }
            }
        }
        st
    }
}

/// A child to be spawned by [`Recorder::fork`].
pub struct Spawn<'a> {
    space: usize,
    body: Box<dyn FnOnce(&mut Recorder) + 'a>,
}

/// Build a [`Spawn`] from a space bound and a body.
pub fn spawn<'a>(space: usize, body: impl FnOnce(&mut Recorder) + 'a) -> Spawn<'a> {
    Spawn {
        space,
        body: Box::new(body),
    }
}

/// Sanity cap on the task DAG size; recording beyond this aborts rather
/// than exhausting memory (it indicates a missing base-case grain).
const MAX_TASKS: usize = 1 << 24;

/// The recording context handed to algorithm bodies.
///
/// Provides simulated-memory allocation and access, the CGC loop
/// primitive, and fork–join spawning with SB / CGC⇒SB hints. Every
/// [`read`](Recorder::read) / [`write`](Recorder::write) appends a trace
/// entry *and* actually performs the access against a real backing store,
/// so data-dependent control flow (sorting, list contraction, …) records
/// faithfully.
pub struct Recorder {
    mem: Vec<u64>,
    trace: Vec<TraceEntry>,
    tasks: Vec<TaskNode>,
    allocs: Vec<Arr>,
    /// Stack of open tasks (innermost last).
    stack: Vec<TaskId>,
    /// Trace index at which the innermost open compute segment began.
    pending_start: usize,
    /// Recording inside a CGC iteration (forks are disallowed there).
    in_cgc: bool,
    /// Allocation alignment in words.
    align: usize,
}

/// Stack size for the recording thread. Recording recurses natively with
/// the algorithm (one native frame per fork level), so deep sequential
/// spawn chains need far more stack than the 2 MiB a test thread gets;
/// the reservation is virtual memory and costs nothing until touched.
const RECORD_STACK: usize = 256 << 20;

impl Recorder {
    /// Record a program: `root_space` is the root task's space bound and
    /// `body` the algorithm.
    pub fn record(root_space: usize, body: impl FnOnce(&mut Recorder) + Send) -> Program {
        Self::record_aligned(root_space, 64, body)
    }

    /// As [`record`](Recorder::record) but with explicit allocation
    /// alignment (in words). The default of 64 keeps distinct arrays on
    /// distinct blocks for every block size the stock machines use.
    pub fn record_aligned(
        root_space: usize,
        align: usize,
        body: impl FnOnce(&mut Recorder) + Send,
    ) -> Program {
        assert!(align.is_power_of_two(), "alignment must be a power of two");
        // Recording runs on its own big-stack thread (see [`RECORD_STACK`]);
        // panics from the body are re-raised on the caller's thread.
        std::thread::scope(|s| {
            let handle = std::thread::Builder::new()
                .name("mo-record".into())
                .stack_size(RECORD_STACK)
                .spawn_scoped(s, move || {
                    let mut rec = Recorder {
                        mem: Vec::new(),
                        trace: Vec::new(),
                        tasks: vec![TaskNode {
                            space: root_space,
                            segments: Vec::new(),
                            parent: None,
                        }],
                        allocs: Vec::new(),
                        stack: vec![0],
                        pending_start: 0,
                        in_cgc: false,
                        align,
                    };
                    body(&mut rec);
                    rec.close_pending();
                    debug_assert_eq!(rec.stack.len(), 1);
                    Program {
                        mem: rec.mem,
                        trace: rec.trace,
                        tasks: rec.tasks,
                        allocs: rec.allocs,
                    }
                })
                .expect("failed to spawn recording thread");
            match handle.join() {
                Ok(prog) => prog,
                Err(payload) => std::panic::resume_unwind(payload),
            }
        })
    }

    /// Record a program with *measured* space bounds.
    ///
    /// Algorithms with data-dependent task trees (sorting, list and graph
    /// contraction) cannot state exact per-task space analytically: the
    /// size of a recursive subproblem depends on the data (sample
    /// dedup, bucket occupancy, independent-set size, …). This helper
    /// records `body` with the provisional bounds declared at each
    /// [`fork`](Recorder::fork), measures every task's true subtree
    /// footprint with [`crate::verify::measured_bounds`] (equalized across
    /// CGC⇒SB batches) and replaces the provisional bounds by the measured
    /// ones. One recording is enough: a body never sees a space bound, so
    /// recording it again under the measured bounds would reproduce the
    /// same trace and the same task tree.
    /// The resulting program always passes the [`crate::verify`] space
    /// lints; the race detector is unaffected (races do not depend on
    /// declared bounds).
    pub fn record_measured(root_space: usize, body: impl FnMut(&mut Recorder) + Send) -> Program {
        let mut prog = Self::record(root_space, body);
        let bounds = crate::verify::measured_bounds(&prog);
        for (task, space) in prog.tasks.iter_mut().zip(bounds) {
            task.space = space;
        }
        prog
    }

    /// Allocate `len` words of zeroed simulated memory.
    pub fn alloc(&mut self, len: usize) -> Arr {
        let off = self.mem.len().div_ceil(self.align) * self.align;
        self.mem.resize(off + len, 0);
        let a = Arr {
            off: off as u64,
            len,
        };
        self.allocs.push(a);
        a
    }

    /// Allocate and initialize from `data` **without tracing**: the data
    /// starts out in shared memory, caches cold, exactly like a problem
    /// input.
    pub fn alloc_init(&mut self, data: &[u64]) -> Arr {
        let a = self.alloc(data.len());
        self.mem[a.off as usize..a.off as usize + data.len()].copy_from_slice(data);
        a
    }

    /// Allocate and initialize from `f64` data (bit-cast), untraced.
    pub fn alloc_init_f64(&mut self, data: &[f64]) -> Arr {
        let a = self.alloc(data.len());
        for (k, &v) in data.iter().enumerate() {
            self.mem[a.off as usize + k] = v.to_bits();
        }
        a
    }

    /// Traced load of `arr[i]`.
    #[inline]
    pub fn read(&mut self, arr: Arr, i: usize) -> u64 {
        assert!(i < arr.len, "read out of bounds: {i} >= {}", arr.len);
        let addr = arr.off + i as u64;
        self.trace.push(TraceEntry::new(addr, false));
        self.mem[addr as usize]
    }

    /// Traced store of `arr[i] = v`.
    #[inline]
    pub fn write(&mut self, arr: Arr, i: usize, v: u64) {
        assert!(i < arr.len, "write out of bounds: {i} >= {}", arr.len);
        let addr = arr.off + i as u64;
        self.trace.push(TraceEntry::new(addr, true));
        self.mem[addr as usize] = v;
    }

    /// Traced `f64` load.
    #[inline]
    pub fn read_f64(&mut self, arr: Arr, i: usize) -> f64 {
        f64::from_bits(self.read(arr, i))
    }

    /// Traced `f64` store.
    #[inline]
    pub fn write_f64(&mut self, arr: Arr, i: usize, v: f64) {
        self.write(arr, i, v.to_bits());
    }

    /// Traced matrix load.
    #[inline]
    pub fn read_mat(&mut self, m: &Mat, i: usize, j: usize) -> u64 {
        let addr = m.addr(i, j);
        self.trace.push(TraceEntry::new(addr, false));
        self.mem[addr as usize]
    }

    /// Traced matrix store.
    #[inline]
    pub fn write_mat(&mut self, m: &Mat, i: usize, j: usize, v: u64) {
        let addr = m.addr(i, j);
        self.trace.push(TraceEntry::new(addr, true));
        self.mem[addr as usize] = v;
    }

    /// Traced matrix `f64` load.
    #[inline]
    pub fn read_mat_f64(&mut self, m: &Mat, i: usize, j: usize) -> f64 {
        f64::from_bits(self.read_mat(m, i, j))
    }

    /// Traced matrix `f64` store.
    #[inline]
    pub fn write_mat_f64(&mut self, m: &Mat, i: usize, j: usize, v: f64) {
        self.write_mat(m, i, j, v.to_bits());
    }

    /// Untraced peek, for assertions and data-structure bookkeeping that a
    /// real implementation would keep in registers.
    pub fn peek(&self, arr: Arr, i: usize) -> u64 {
        assert!(i < arr.len);
        self.mem[(arr.off + i as u64) as usize]
    }

    /// A `[CGC]`-scheduled parallel for loop over `iters` iterations.
    ///
    /// The body must not fork; it may freely read and write. The scheduler
    /// later splits the iterations into contiguous per-core segments of
    /// near-equal length, each covering at least `B_1` iterations.
    pub fn cgc_for(&mut self, iters: usize, mut body: impl FnMut(&mut Recorder, usize)) {
        assert!(!self.in_cgc, "CGC loops do not nest");
        self.close_pending();
        let start = self.trace.len();
        let mut iter_ends = Vec::with_capacity(iters);
        self.in_cgc = true;
        for k in 0..iters {
            body(self, k);
            iter_ends.push(self.trace.len());
        }
        self.in_cgc = false;
        let seg = Segment::CgcLoop { start, iter_ends };
        let tid = *self.stack.last().unwrap();
        self.tasks[tid].segments.push(seg);
        self.pending_start = self.trace.len();
    }

    /// Fork the given children in parallel under `hint` and join.
    pub fn fork(&mut self, hint: ForkHint, children: Vec<Spawn<'_>>) {
        assert!(!self.in_cgc, "cannot fork inside a CGC loop body");
        if children.is_empty() {
            return;
        }
        self.close_pending();
        let mut ids = Vec::with_capacity(children.len());
        for child in children {
            assert!(
                self.tasks.len() < MAX_TASKS,
                "task DAG too large; add a base-case grain"
            );
            let id = self.tasks.len();
            self.tasks.push(TaskNode {
                space: child.space,
                segments: Vec::new(),
                parent: Some(*self.stack.last().unwrap()),
            });
            self.stack.push(id);
            self.pending_start = self.trace.len();
            (child.body)(self);
            self.close_pending();
            self.stack.pop();
            ids.push(id);
        }
        let tid = *self.stack.last().unwrap();
        self.tasks[tid].segments.push(Segment::Fork {
            hint,
            children: ids,
        });
        self.pending_start = self.trace.len();
    }

    /// Binary fork convenience (the common case in the paper's recursive
    /// algorithms): run `f1` and `f2` in parallel under `hint`.
    pub fn fork2(
        &mut self,
        hint: ForkHint,
        space1: usize,
        f1: impl FnOnce(&mut Recorder),
        space2: usize,
        f2: impl FnOnce(&mut Recorder),
    ) {
        self.fork(hint, vec![spawn(space1, f1), spawn(space2, f2)]);
    }

    fn close_pending(&mut self) {
        let end = self.trace.len();
        if end > self.pending_start {
            let tid = *self.stack.last().unwrap();
            self.tasks[tid].segments.push(Segment::Compute {
                start: self.pending_start,
                end,
            });
        }
        self.pending_start = end;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn straight_line_records_one_compute_segment() {
        let mut handle = None;
        let prog = Recorder::record(16, |rec| {
            let a = rec.alloc(4);
            rec.write(a, 0, 7);
            let v = rec.read(a, 0);
            rec.write(a, 1, v + 1);
            handle = Some(a);
        });
        assert_eq!(prog.tasks().len(), 1);
        assert_eq!(prog.tasks()[0].segments.len(), 1);
        assert!(matches!(
            prog.tasks()[0].segments[0],
            Segment::Compute { start: 0, end: 3 }
        ));
        let a = handle.unwrap();
        assert_eq!(prog.get(a, 0), 7);
        assert_eq!(prog.get(a, 1), 8);
        assert_eq!(prog.work(), 3);
    }

    #[test]
    fn cgc_loop_records_iteration_bounds() {
        let prog = Recorder::record(16, |rec| {
            let a = rec.alloc(8);
            rec.cgc_for(8, |rec, k| {
                rec.write(a, k, k as u64 * 2);
            });
        });
        match &prog.tasks()[0].segments[0] {
            Segment::CgcLoop { start, iter_ends } => {
                assert_eq!(*start, 0);
                assert_eq!(iter_ends.len(), 8);
                assert_eq!(*iter_ends.last().unwrap(), 8);
            }
            s => panic!("expected CgcLoop, got {s:?}"),
        }
    }

    #[test]
    fn fork_creates_children_with_space_bounds() {
        let prog = Recorder::record(100, |rec| {
            let a = rec.alloc(2);
            rec.fork2(
                ForkHint::Sb,
                50,
                |rec| rec.write(a, 0, 1),
                50,
                |rec| rec.write(a, 1, 2),
            );
            rec.write(a, 0, 3);
        });
        assert_eq!(prog.tasks().len(), 3);
        let root = &prog.tasks()[0];
        assert_eq!(root.segments.len(), 2); // Fork then trailing Compute
        match &root.segments[0] {
            Segment::Fork { hint, children } => {
                assert_eq!(*hint, ForkHint::Sb);
                assert_eq!(children, &vec![1, 2]);
            }
            s => panic!("expected Fork, got {s:?}"),
        }
        assert_eq!(prog.tasks()[1].space, 50);
        assert_eq!(prog.tasks()[1].parent, Some(0));
    }

    #[test]
    fn nested_forks_build_a_tree() {
        let prog = Recorder::record(64, |rec| {
            let a = rec.alloc(4);
            rec.fork2(
                ForkHint::CgcSb,
                32,
                |rec| {
                    rec.fork2(
                        ForkHint::Sb,
                        16,
                        |rec| rec.write(a, 0, 1),
                        16,
                        |rec| rec.write(a, 1, 1),
                    );
                },
                32,
                |rec| rec.write(a, 2, 1),
            );
        });
        assert_eq!(prog.tasks().len(), 5);
        assert_eq!(prog.tasks()[2].parent, Some(1));
        assert_eq!(prog.tasks()[3].parent, Some(1));
        assert_eq!(prog.tasks()[4].parent, Some(0));
    }

    #[test]
    fn recording_executes_for_real() {
        // Data-dependent control flow must see true values.
        let mut out = 0;
        let _ = Recorder::record(16, |rec| {
            let a = rec.alloc_init(&[5, 9]);
            let x = rec.read(a, 0);
            let y = rec.read(a, 1);
            out = y.abs_diff(x);
        });
        assert_eq!(out, 4);
    }

    #[test]
    fn allocations_are_aligned_and_disjoint() {
        let _ = Recorder::record_aligned(16, 8, |rec| {
            let a = rec.alloc(3);
            let b = rec.alloc(3);
            assert_eq!(a.base() % 8, 0);
            assert_eq!(b.base() % 8, 0);
            assert!(b.base() >= a.base() + 3);
        });
    }

    #[test]
    #[should_panic(expected = "cannot fork inside a CGC loop")]
    fn fork_inside_cgc_panics() {
        let _ = Recorder::record(16, |rec| {
            let a = rec.alloc(2);
            rec.cgc_for(2, |rec, _| {
                rec.fork2(
                    ForkHint::Sb,
                    1,
                    |r| r.write(a, 0, 1),
                    1,
                    |r| r.write(a, 1, 1),
                );
            });
        });
    }

    #[test]
    fn stats_summarize_the_shape() {
        let prog = Recorder::record(256, |rec| {
            let a = rec.alloc(16);
            rec.cgc_for(16, |rec, k| rec.write(a, k, 1));
            rec.fork2(
                ForkHint::Sb,
                8,
                |r| {
                    let b = r.alloc(1);
                    r.write(b, 0, 1);
                },
                8,
                |r| {
                    let b = r.alloc(1);
                    r.write(b, 0, 2);
                },
            );
            rec.fork(
                ForkHint::CgcSb,
                vec![spawn(8, |r: &mut Recorder| {
                    let b = r.alloc(1);
                    r.write(b, 0, 3);
                })],
            );
        });
        let st = prog.stats();
        assert_eq!(st.tasks, 4);
        assert_eq!(st.sb_forks, 1);
        assert_eq!(st.cgcsb_forks, 1);
        assert_eq!(st.cgc_loops, 1);
        assert_eq!(st.compute_segments, 3);
        assert_eq!(st.max_depth, 1);
        assert_eq!(st.work, 19);
    }

    #[test]
    fn f64_roundtrip() {
        let mut handle = None;
        let prog = Recorder::record(16, |rec| {
            let a = rec.alloc(1);
            rec.write_f64(a, 0, -1.25);
            handle = Some(a);
        });
        assert_eq!(prog.get_f64(handle.unwrap(), 0), -1.25);
    }
}
