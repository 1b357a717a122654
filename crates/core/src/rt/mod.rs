//! Real-thread realization of space-bound scheduling.
//!
//! The simulator in [`crate::sched`] measures the *model* quantities
//! (parallel steps, per-level cache misses). This module shows the same
//! hint API running on an actual machine: a fork–join pool whose
//! parallelization decisions are driven by task **space bounds** against a
//! configured cache hierarchy, exactly in the spirit of the paper's SB
//! scheduler:
//!
//! * a fork whose children's space bounds fit inside one private (L1-level)
//!   cache runs **serially** — on the model those children would be
//!   anchored at the same L1 and execute on one core anyway, so spawning
//!   would only pay overhead and wreck locality;
//! * larger forks run in parallel while core *permits* are available, so
//!   the number of live workers never exceeds the number of cores, and
//!   oversubscription (the real-machine analogue of violating a cache's
//!   space admission) is avoided;
//! * `pfor` provides the CGC discipline: contiguous chunks of at least a
//!   caller-supplied grain, one per available core.
//!
//! Execution is a **persistent work-stealing pool** (see [`exec`]): one
//! lazily-started resident worker per core, each with a Chase–Lev-style
//! owner-LIFO/thief-FIFO deque, parking on a condvar when idle. A
//! parallel fork pushes its second branch as a stealable task, runs the
//! first inline, and — help-first — executes other ready tasks while
//! waiting on a stolen branch instead of blocking. No OS thread is ever
//! created on the `join`/`pfor` hot paths; workers are spawned once per
//! pool lifetime (on the first stealable fork, or eagerly via
//! [`SbPool::warm`]) and joined when the pool drops. Below the L1
//! space cutoff no task is ever queued, so the model-level guarantee is
//! unchanged: small forks stay serial and in cache.

use std::ops::Range;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicIsize, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Record one trace event into `$sink` — an `Option` of a
/// [`mo_obs::TraceSink`] reference such as
/// [`SbPool::sink`](crate::rt::SbPool::sink) — when a sink is attached.
///
/// Tracing is a run-time switch: with no sink attached a call site
/// costs the `Option` test (for the pool, one `OnceLock` load) and the
/// payload expressions are not evaluated. The runtime's scheduler
/// decisions and `mo-serve`'s request spans both emit through this one
/// macro.
#[macro_export]
macro_rules! obs_event {
    ($sink:expr, $worker:expr, $kind:ident, $a:expr, $b:expr, $c:expr) => {
        if let Some(sink) = $sink {
            sink.emit(
                $worker,
                $crate::mo_obs::EventKind::$kind,
                $a as u64,
                $b as u64,
                $c as u64,
            );
        }
    };
}

mod exec;
pub mod sysfs;

/// One level of the real machine's hierarchy (capacity in *words*, i.e.
/// `u64`-sized units, to match the simulator's convention).
#[derive(Debug, Clone, Copy)]
pub struct HwLevel {
    /// Cache capacity in words.
    pub capacity: usize,
    /// Number of child units sharing one cache at this level.
    pub fanout: usize,
}

/// A description of the real machine for the [`SbPool`].
#[derive(Debug, Clone)]
pub struct HwHierarchy {
    levels: Vec<HwLevel>,
}

impl HwHierarchy {
    /// Build from explicit levels (L1 first, fanout of L1 must be 1).
    pub fn new(levels: Vec<HwLevel>) -> Self {
        assert!(!levels.is_empty(), "need at least one level");
        assert_eq!(levels[0].fanout, 1, "L1 caches are private");
        Self { levels }
    }

    /// A flat machine: `cores` cores with private caches of `l1_words`
    /// under a shared cache of `shared_words`.
    pub fn flat(cores: usize, l1_words: usize, shared_words: usize) -> Self {
        Self::new(vec![
            HwLevel {
                capacity: l1_words,
                fanout: 1,
            },
            HwLevel {
                capacity: shared_words,
                fanout: cores.max(1),
            },
        ])
    }

    /// Best-effort detection of the running machine.
    ///
    /// On Linux the full multi-level hierarchy (every data/unified cache
    /// level with its real capacity and sharing fanout) is probed from
    /// `/sys/devices/system/cpu/cpu*/cache/index*` — see [`sysfs::probe`].
    /// When sysfs is absent or unreadable (non-Linux, sandboxes), falls
    /// back to `available_parallelism` cores with a 32 KiB L1 under an
    /// 8 MiB shared last-level cache (the common desktop shape).
    pub fn detect() -> Self {
        if let Some(h) = sysfs::probe(std::path::Path::new("/sys/devices/system/cpu")) {
            return h;
        }
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        Self::flat(cores, 32 * 1024 / 8, 8 * 1024 * 1024 / 8)
    }

    /// Total number of cores.
    pub fn cores(&self) -> usize {
        self.levels.iter().map(|l| l.fanout).product()
    }

    /// Private (L1) capacity in words: the serialization cutoff.
    pub fn l1_capacity(&self) -> usize {
        self.levels[0].capacity
    }

    /// The levels, L1 first.
    pub fn levels(&self) -> &[HwLevel] {
        &self.levels
    }

    /// Per-instance capacity of level `level` in words, or `None` when
    /// the level does not exist (the non-panicking capacity query).
    pub fn level_capacity(&self, level: usize) -> Option<usize> {
        self.levels.get(level).map(|l| l.capacity)
    }

    /// Number of physical cache instances at `level`: the product of the
    /// fanouts *above* it (one LLC, `cores()` L1s on a flat machine).
    pub fn instances_at(&self, level: usize) -> Option<usize> {
        if level >= self.levels.len() {
            return None;
        }
        Some(self.levels[level + 1..].iter().map(|l| l.fanout).product())
    }

    /// Machine-wide capacity of `level` in words: per-instance capacity
    /// times the number of instances.
    pub fn aggregate_capacity(&self, level: usize) -> Option<usize> {
        Some(self.level_capacity(level)? * self.instances_at(level)?)
    }

    /// The smallest level whose *per-instance* capacity holds `words` —
    /// where the SB scheduler would anchor a task of that footprint.
    /// `None` when the footprint exceeds even the outermost cache.
    pub fn anchor_level(&self, words: usize) -> Option<usize> {
        self.levels.iter().position(|l| l.capacity >= words)
    }
}

/// Runtime counters of a pool since it was created.
///
/// Every field only grows, so the activity of an interval is the
/// difference of two reads: `pool.stats().since(&before)`.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct RtStats {
    /// Forks executed in parallel (the second branch became stealable).
    pub parallel_forks: u64,
    /// Forks serialized by the space-bound cutoff.
    pub serial_forks: u64,
    /// Forks serialized because no core permit was available.
    pub denied_forks: u64,
    /// Tasks executed from another worker's deque.
    pub steals: u64,
    /// Full work-finding scans that found nothing anywhere.
    pub failed_steals: u64,
    /// Times a thread went to sleep on the idle condvar.
    pub parks: u64,
    /// Tasks popped from the external-submission injector queue.
    pub injector_pops: u64,
}

impl RtStats {
    /// Total forks taken (serial + parallel + denied).
    pub fn total_forks(&self) -> u64 {
        self.parallel_forks + self.serial_forks + self.denied_forks
    }

    /// The activity between `prev` and `self`, field by field. Reads of
    /// one pool never decrease; the subtraction saturates at zero so a
    /// mismatched pair (two pools, or the arguments swapped) cannot
    /// underflow.
    pub fn since(&self, prev: &Self) -> Self {
        Self {
            parallel_forks: self.parallel_forks.saturating_sub(prev.parallel_forks),
            serial_forks: self.serial_forks.saturating_sub(prev.serial_forks),
            denied_forks: self.denied_forks.saturating_sub(prev.denied_forks),
            steals: self.steals.saturating_sub(prev.steals),
            failed_steals: self.failed_steals.saturating_sub(prev.failed_steals),
            parks: self.parks.saturating_sub(prev.parks),
            injector_pops: self.injector_pops.saturating_sub(prev.injector_pops),
        }
    }
}

/// Lock-free counters backing [`RtStats`]: independent relaxed atomics,
/// cheap to bump from any thread and never reset. A snapshot loads each
/// cell once; increments racing it are visible or not per cell, and no
/// cell ever reads lower than in an earlier snapshot.
#[derive(Debug, Default)]
struct StatCells {
    parallel_forks: AtomicU64,
    serial_forks: AtomicU64,
    denied_forks: AtomicU64,
    steals: AtomicU64,
    failed_steals: AtomicU64,
    parks: AtomicU64,
    injector_pops: AtomicU64,
}

impl StatCells {
    fn snapshot(&self) -> RtStats {
        RtStats {
            parallel_forks: self.parallel_forks.load(Ordering::Relaxed),
            serial_forks: self.serial_forks.load(Ordering::Relaxed),
            denied_forks: self.denied_forks.load(Ordering::Relaxed),
            steals: self.steals.load(Ordering::Relaxed),
            failed_steals: self.failed_steals.load(Ordering::Relaxed),
            parks: self.parks.load(Ordering::Relaxed),
            injector_pops: self.injector_pops.load(Ordering::Relaxed),
        }
    }
}

/// State shared between the user-facing pool handle and its resident
/// workers.
struct Inner {
    hier: HwHierarchy,
    /// Remaining core permits (may briefly go negative under races; only
    /// `try_acquire`'s check is gated).
    permits: AtomicIsize,
    stats: StatCells,
    /// Tasks executed per resident worker, plus one trailing slot for
    /// external (non-resident) threads that help-execute while waiting.
    tasks: Box<[AtomicU64]>,
    reg: exec::Registry,
    /// The attached trace sink, set at most once per pool lifetime.
    sink: OnceLock<Arc<mo_obs::TraceSink>>,
    /// The attached cache witness, set at most once per pool lifetime.
    /// Scoped around every queued task (and the root of each `enter`)
    /// so measured cache traffic attributes to the task that incurred
    /// it; deltas are recorded against `sink` as `CacheWitness` events.
    witness: OnceLock<Arc<dyn mo_obs::witness::TaskWitness>>,
}

impl Inner {
    fn try_acquire(&self) -> bool {
        self.permits
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |p| {
                (p > 0).then(|| p - 1)
            })
            .is_ok()
    }

    fn release(&self) {
        self.permits.fetch_add(1, Ordering::AcqRel);
    }

    /// Run a forked branch that holds a core permit, and return the
    /// permit when it ends, by return or by unwind.
    fn with_permit<R>(&self, f: impl FnOnce() -> R) -> R {
        struct Permit<'a>(&'a Inner);
        impl Drop for Permit<'_> {
            fn drop(&mut self) {
                self.0.release();
            }
        }
        let _permit = Permit(self);
        f()
    }

    /// Count one executed queued task against `worker` (the trailing
    /// slot aggregates all external threads).
    fn note_task(&self, worker: Option<usize>) {
        let idx = worker.unwrap_or(self.tasks.len() - 1);
        self.tasks[idx].fetch_add(1, Ordering::Relaxed);
    }
}

/// The pool's resolved execution shape, reported by [`SbPool::info`]
/// and [`SbPool::warm`] so downstream layers (`mo-serve`, `obs_report`)
/// do not re-derive worker counts and topology themselves.
#[derive(Debug, Clone)]
pub struct PoolInfo {
    /// Total cores of the hierarchy (the parallelism the SB scheduler
    /// admits against).
    pub cores: usize,
    /// Resident worker threads the pool runs once started: `cores` on
    /// multi-core hierarchies, `0` on single-core ones (which never
    /// queue work, so no workers are ever spawned).
    pub resident_workers: usize,
    /// Whether the resident workers are currently running.
    pub started: bool,
    /// Private (L1) capacity in words: the fork-serialization cutoff.
    pub l1_words: usize,
    /// The cache levels, L1 first (capacity in words, sharing fanout).
    pub levels: Vec<HwLevel>,
}

/// A space-bound fork–join pool over the real machine.
pub struct SbPool {
    inner: Arc<Inner>,
    /// Join handles of the resident workers. Only the user-created
    /// handle owns them (and terminates the pool on drop); the views
    /// the workers themselves hold keep this empty.
    handles: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl std::fmt::Debug for SbPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SbPool")
            .field("hier", &self.inner.hier)
            .field("permits", &self.inner.permits)
            .finish_non_exhaustive()
    }
}

impl SbPool {
    /// Create a pool for `hier`. No threads are spawned yet: the
    /// resident workers start on the first stealable fork (or on
    /// [`warm`](Self::warm)).
    pub fn new(hier: HwHierarchy) -> Self {
        let cores = hier.cores() as isize;
        Self {
            inner: Arc::new(Inner {
                permits: AtomicIsize::new(cores - 1),
                stats: StatCells::default(),
                tasks: (0..cores.max(1) as usize + 1)
                    .map(|_| AtomicU64::new(0))
                    .collect(),
                reg: exec::Registry::new(cores.max(1) as usize),
                hier,
                sink: OnceLock::new(),
                witness: OnceLock::new(),
            }),
            handles: Mutex::new(Vec::new()),
        }
    }

    /// Pool over the detected machine.
    pub fn detected() -> Self {
        Self::new(HwHierarchy::detect())
    }

    /// A worker's handle onto an existing pool (no worker ownership).
    fn view(inner: Arc<Inner>) -> Self {
        Self {
            inner,
            handles: Mutex::new(Vec::new()),
        }
    }

    /// The hierarchy the pool was built for.
    pub fn hierarchy(&self) -> &HwHierarchy {
        &self.inner.hier
    }

    /// The runtime counters since the pool was created. They only
    /// grow: measure an interval as `stats().since(&before)`.
    pub fn stats(&self) -> RtStats {
        self.inner.stats.snapshot()
    }

    /// Queued tasks executed per resident worker since the pool was
    /// created; the trailing slot aggregates every external thread that
    /// help-executed inside `enter`.
    pub fn per_worker_tasks(&self) -> Vec<u64> {
        self.inner
            .tasks
            .iter()
            .map(|t| t.load(Ordering::Relaxed))
            .collect()
    }

    /// Run a root task. The context it receives exposes `join` and
    /// `pfor`. Any number of threads may be inside `enter` on one pool
    /// at once; their forks all count into [`stats`](Self::stats).
    ///
    /// The closure runs on the calling thread; only stealable forks it
    /// takes move to the resident workers. A call from a resident
    /// worker of this same pool keeps that worker's deque identity.
    pub fn enter<R: Send>(&self, f: impl FnOnce(&Ctx<'_>) -> R + Send) -> R {
        let ctx = Ctx {
            pool: self,
            worker: exec::current_worker(&self.inner),
        };
        // Witness root scope (job id 0): traffic the calling thread
        // incurs inline — outside any queued task — still attributes.
        let _wscope = self.inner.witness.get().map(|w| {
            mo_obs::witness::scope(
                w.as_ref(),
                self.inner.sink.get().map(|s| s.as_ref()),
                ctx.worker,
                0,
            )
        });
        f(&ctx)
    }

    /// Core permits currently available: how many additional parallel
    /// forks the pool would grant right now. Never negative; purely
    /// advisory under concurrency.
    pub fn available_permits(&self) -> usize {
        self.inner.permits.load(Ordering::Relaxed).max(0) as usize
    }

    /// Pre-spawn the resident workers so the first request served by a
    /// long-lived pool does not pay thread creation. Idempotent; a
    /// no-op on single-core hierarchies (which never queue work).
    /// Returns the pool's resolved shape so callers (a server sizing
    /// its own worker count, `obs_report` labelling its output) need
    /// not re-derive worker counts or topology.
    pub fn warm(&self) -> PoolInfo {
        self.ensure_started();
        self.info()
    }

    /// The pool's resolved execution shape. See [`PoolInfo`].
    pub fn info(&self) -> PoolInfo {
        let cores = self.inner.hier.cores();
        PoolInfo {
            cores,
            resident_workers: if cores > 1 { cores } else { 0 },
            started: self.inner.reg.started.load(Ordering::Acquire),
            l1_words: self.inner.hier.l1_capacity(),
            levels: self.inner.hier.levels().to_vec(),
        }
    }

    /// Attach a trace sink; every scheduler decision taken from now on
    /// is recorded into it. At most one sink per pool lifetime: returns
    /// `false` (and leaves the existing sink) if one is already
    /// attached. The sink should have [`mo_obs::TraceSink::workers`]
    /// rings ≥ the pool's core count, or events from the extra workers
    /// are routed to its external ring.
    pub fn attach_sink(&self, sink: Arc<mo_obs::TraceSink>) -> bool {
        self.inner.sink.set(sink).is_ok()
    }

    /// The attached trace sink, if any.
    pub fn sink(&self) -> Option<&Arc<mo_obs::TraceSink>> {
        self.inner.sink.get()
    }

    /// Attach a cache witness; from now on every queued task (and the
    /// root scope of each [`enter`](Self::enter)) is bracketed with
    /// witness enter/exit so measured cache traffic attributes to the
    /// task that incurred it. Deltas reach the attached sink as
    /// `CacheWitness` events, so for a useful trace attach the sink
    /// first. At most one witness per pool lifetime: returns `false`
    /// (and keeps the existing witness) on a second attach.
    pub fn attach_witness(&self, witness: Arc<dyn mo_obs::witness::TaskWitness>) -> bool {
        self.inner.witness.set(witness).is_ok()
    }

    /// The attached cache witness, if any.
    pub fn witness(&self) -> Option<&Arc<dyn mo_obs::witness::TaskWitness>> {
        self.inner.witness.get()
    }

    /// Resident worker threads currently running: `0` until the first
    /// stealable fork (or [`warm`](Self::warm)), then one per core for
    /// the pool's lifetime. Only meaningful on the creating handle.
    pub fn resident_workers(&self) -> usize {
        self.handles.lock().unwrap().len()
    }

    /// Spawn the resident workers if they are not running yet.
    fn ensure_started(&self) {
        let cores = self.inner.hier.cores();
        if cores <= 1 || self.inner.reg.started.load(Ordering::Acquire) {
            return;
        }
        let mut handles = self.handles.lock().unwrap();
        if self.inner.reg.started.load(Ordering::Acquire) {
            return;
        }
        for idx in 0..cores {
            let inner = Arc::clone(&self.inner);
            handles.push(
                std::thread::Builder::new()
                    .name(format!("sbpool-{idx}"))
                    // Deep recursions plus help-first stealing stack
                    // unrelated frames; reserve generously (virtual).
                    .stack_size(16 << 20)
                    .spawn(move || exec::worker_loop(inner, idx))
                    .expect("spawn SbPool worker"),
            );
        }
        self.inner.reg.started.store(true, Ordering::Release);
    }

    #[cfg(test)]
    fn try_acquire(&self) -> bool {
        self.inner.try_acquire()
    }

    #[cfg(test)]
    fn release(&self) {
        self.inner.release();
    }
}

impl Drop for SbPool {
    fn drop(&mut self) {
        let handles = std::mem::take(&mut *self.handles.lock().unwrap());
        if handles.is_empty() {
            return; // worker view, or workers never started
        }
        self.inner.reg.request_stop();
        for h in handles {
            let _ = h.join();
        }
    }
}

/// SB anchor level of `words` against `hier`, encoded for event
/// payloads (`u64::MAX` = fits no level).
fn anchor_of(hier: &HwHierarchy, words: usize) -> u64 {
    hier.anchor_level(words).map_or(u64::MAX, |l| l as u64)
}

/// A batch of boxed jobs for [`Ctx::join_all`].
pub type Jobs<'a, R> = Vec<Box<dyn FnOnce(&Ctx<'_>) -> R + Send + 'a>>;

/// Execution context handed to tasks running on an [`SbPool`].
#[derive(Debug, Clone, Copy)]
pub struct Ctx<'p> {
    pool: &'p SbPool,
    /// Deque identity: `Some(i)` on resident worker `i`, `None` on an
    /// external thread (whose forks go through the injector).
    worker: Option<usize>,
}

impl<'p> Ctx<'p> {
    /// Context of resident worker `idx` (used by the worker loop).
    fn for_worker(pool: &'p SbPool, idx: usize) -> Self {
        Self {
            pool,
            worker: Some(idx),
        }
    }

    /// The pool.
    pub fn pool(&self) -> &'p SbPool {
        self.pool
    }

    fn inner(&self) -> &'p Inner {
        &self.pool.inner
    }

    fn worker_index(&self) -> Option<usize> {
        self.worker
    }

    /// SB fork–join: run `fa` and `fb`, in parallel when their space
    /// bounds (in words) justify it and a core permit is available.
    pub fn join<RA, RB>(
        &self,
        space_a: usize,
        fa: impl FnOnce(&Ctx<'_>) -> RA + Send,
        space_b: usize,
        fb: impl FnOnce(&Ctx<'_>) -> RB + Send,
    ) -> (RA, RB)
    where
        RA: Send,
        RB: Send,
    {
        let inner = self.inner();
        let cutoff = inner.hier.l1_capacity();
        let space = space_a.max(space_b);
        if space <= cutoff {
            // Both children would anchor at one private cache: serialize.
            inner.stats.serial_forks.fetch_add(1, Ordering::Relaxed);
            obs_event!(
                inner.sink.get(),
                self.worker,
                ForkSerial,
                space,
                anchor_of(&inner.hier, space),
                cutoff
            );
            return (fa(self), fb(self));
        }
        if inner.try_acquire() {
            inner.stats.parallel_forks.fetch_add(1, Ordering::Relaxed);
            obs_event!(
                inner.sink.get(),
                self.worker,
                ForkParallel,
                space,
                anchor_of(&inner.hier, space),
                0
            );
            return self.fork_join(fa, fb);
        }
        // Denied: run the first half inline, then re-check — a permit
        // that freed while `fa` ran still lets `fb` become a stealable
        // fork, so a transient shortage does not serialize the rest of
        // the subtree.
        let ra = fa(self);
        if inner.try_acquire() {
            inner.stats.parallel_forks.fetch_add(1, Ordering::Relaxed);
            obs_event!(
                inner.sink.get(),
                self.worker,
                ForkParallel,
                space,
                anchor_of(&inner.hier, space),
                0
            );
            return (ra, self.fork_stealable(fb));
        }
        inner.stats.denied_forks.fetch_add(1, Ordering::Relaxed);
        obs_event!(
            inner.sink.get(),
            self.worker,
            ForkDenied,
            space,
            anchor_of(&inner.hier, space),
            0
        );
        (ra, fb(self))
    }

    /// The parallel fork: queue `fb` as a stealable task, run `fa`
    /// inline, then either pop `fb` back (nobody stole it — run it
    /// here, keeping the subtree's cache affinity) or help-first wait:
    /// execute other ready tasks until the thief's latch is set.
    ///
    /// The caller has already acquired the core permit; it is released
    /// when `fb` completes, whichever thread ran it.
    #[allow(unsafe_code)] // stack-job pinning, see `exec` module docs
    fn fork_join<RA, RB>(
        &self,
        fa: impl FnOnce(&Ctx<'_>) -> RA + Send,
        fb: impl FnOnce(&Ctx<'_>) -> RB + Send,
    ) -> (RA, RB)
    where
        RA: Send,
        RB: Send,
    {
        let inner = self.inner();
        let job = exec::StackJob::new(move |c: &Ctx<'_>| inner.with_permit(|| fb(c)));
        self.pool.ensure_started();
        // SAFETY: `job` stays pinned in this frame until it has run or
        // been reclaimed below, on both the return and unwind paths.
        let jref = unsafe { job.as_job_ref() };
        inner.reg.push(self.worker, jref);
        let ra = match panic::catch_unwind(AssertUnwindSafe(|| fa(self))) {
            Ok(r) => r,
            Err(payload) => {
                // The queued job still points into this frame: reclaim
                // it un-run (returning its permit) or wait the thief out.
                if inner.reg.take_back(self.worker, jref.id()) {
                    inner.release();
                } else {
                    exec::wait_until(self, job.latch());
                }
                panic::resume_unwind(payload);
            }
        };
        let rb = if inner.reg.take_back(self.worker, jref.id()) {
            (job.take_f())(self) // releases the permit internally
        } else {
            exec::wait_until(self, job.latch());
            job.into_result()
        };
        (ra, rb)
    }

    /// Queue `fb` as a stealable task and help-first wait for it: the
    /// denied-retry path, where another worker may pick `fb` up while
    /// this thread drains other ready tasks (including, if nobody
    /// steals it, `fb` itself).
    #[allow(unsafe_code)] // stack-job pinning, see `exec` module docs
    fn fork_stealable<RB>(&self, fb: impl FnOnce(&Ctx<'_>) -> RB + Send) -> RB
    where
        RB: Send,
    {
        let inner = self.inner();
        let job = exec::StackJob::new(move |c: &Ctx<'_>| inner.with_permit(|| fb(c)));
        self.pool.ensure_started();
        // SAFETY: `wait_until` does not return before the job has run.
        inner.reg.push(self.worker, unsafe { job.as_job_ref() });
        exec::wait_until(self, job.latch());
        job.into_result()
    }

    /// N-way SB fork–join over homogeneous closures. An empty batch is a
    /// no-op returning an empty `Vec`.
    pub fn join_all<R: Send>(&self, space_each: usize, fs: Jobs<'_, R>) -> Vec<R> {
        match fs.len() {
            0 | 1 => {
                let mut fs = fs;
                fs.pop().map(|f| vec![f(self)]).unwrap_or_default()
            }
            _ => {
                let mut fs = fs;
                let rest = fs.split_off(fs.len() / 2);
                let first = fs;
                let total = space_each * (first.len() + rest.len());
                let (mut a, b) = self.join(
                    total / 2,
                    move |ctx| ctx.join_all(space_each, first),
                    total / 2,
                    move |ctx| ctx.join_all(space_each, rest),
                );
                a.extend(b);
                a
            }
        }
    }

    /// CGC parallel for: `body` is invoked on contiguous chunks of
    /// `range`, each at least `grain` long, at most one per core. The
    /// trailing chunks are queued as stealable tasks (never fresh
    /// threads); the first runs inline, and the caller helps drain the
    /// pool until every chunk has finished.
    #[allow(unsafe_code)] // stack-job pinning, see `exec` module docs
    pub fn pfor(&self, range: Range<usize>, grain: usize, body: impl Fn(Range<usize>) + Sync) {
        let n = range.len();
        if n == 0 {
            return;
        }
        let grain = grain.max(1);
        let cores = self.inner().hier.cores();
        let nseg = (n / grain).clamp(1, cores);
        let sink = self.inner().sink.get();
        if nseg == 1 {
            obs_event!(sink, self.worker, CgcSegment, range.start, range.end, grain);
            body(range);
            return;
        }
        let per = n.div_ceil(nseg);
        let body = &body;
        let jobs: Vec<_> = (1..nseg)
            .filter_map(|k| {
                let lo = range.start + k * per;
                let hi = (range.start + (k + 1) * per).min(range.end);
                (lo < hi).then(|| {
                    obs_event!(sink, self.worker, CgcSegment, lo, hi, grain);
                    exec::StackJob::new(move |_: &Ctx<'_>| body(lo..hi))
                })
            })
            .collect();
        self.pool.ensure_started();
        for job in &jobs {
            // SAFETY: every job is waited for below — also on the
            // first chunk's unwind path — before this frame ends.
            self.inner()
                .reg
                .push(self.worker, unsafe { job.as_job_ref() });
        }
        let head = range.start..range.start + per;
        obs_event!(sink, self.worker, CgcSegment, head.start, head.end, grain);
        let first = panic::catch_unwind(AssertUnwindSafe(|| body(head)));
        for job in &jobs {
            exec::wait_until(self, job.latch());
        }
        if let Err(payload) = first {
            panic::resume_unwind(payload);
        }
        for job in jobs {
            job.into_result();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn pool() -> SbPool {
        SbPool::new(HwHierarchy::flat(4, 1024, 1 << 20))
    }

    #[test]
    fn join_returns_both_results() {
        let p = pool();
        let (a, b) = p.enter(|ctx| ctx.join(1 << 16, |_| 21u32, 1 << 16, |_| 2u32));
        assert_eq!(a * b, 42);
    }

    #[test]
    fn small_forks_serialize() {
        let p = pool();
        p.enter(|ctx| {
            ctx.join(10, |_| (), 10, |_| ());
        });
        let st = p.stats();
        assert_eq!(st.serial_forks, 1);
        assert_eq!(st.parallel_forks, 0);
    }

    #[test]
    fn large_forks_parallelize() {
        let p = pool();
        p.enter(|ctx| {
            ctx.join(1 << 16, |_| (), 1 << 16, |_| ());
        });
        assert_eq!(p.stats().parallel_forks, 1);
    }

    #[test]
    fn recursive_sum_is_correct() {
        fn sum(ctx: &Ctx<'_>, data: &[u64]) -> u64 {
            if data.len() <= 128 {
                return data.iter().sum();
            }
            let (l, r) = data.split_at(data.len() / 2);
            let (a, b) = ctx.join(l.len() * 8, |c| sum(c, l), r.len() * 8, |c| sum(c, r));
            a + b
        }
        let data: Vec<u64> = (0..100_000u64).collect();
        let p = pool();
        let total = p.enter(|ctx| sum(ctx, &data));
        assert_eq!(total, 100_000 * 99_999 / 2);
    }

    #[test]
    fn pfor_covers_range_exactly_once() {
        let n = 10_000;
        let hits: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
        let p = pool();
        p.enter(|ctx| {
            ctx.pfor(0..n, 64, |r| {
                for i in r {
                    hits[i].fetch_add(1, Ordering::Relaxed);
                }
            });
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn pfor_small_range_runs_inline() {
        let p = pool();
        let counter = AtomicU64::new(0);
        p.enter(|ctx| {
            ctx.pfor(0..10, 64, |r| {
                counter.fetch_add(r.len() as u64, Ordering::Relaxed);
            });
        });
        assert_eq!(counter.load(Ordering::Relaxed), 10);
    }

    #[test]
    fn permits_bound_concurrency() {
        // Fork breadth 16 on a 4-core pool must not deadlock and must
        // deny some forks.
        fn spin(ctx: &Ctx<'_>, depth: usize) {
            if depth == 0 {
                std::thread::sleep(std::time::Duration::from_millis(1));
                return;
            }
            ctx.join(
                1 << 20,
                |c| spin(c, depth - 1),
                1 << 20,
                |c| spin(c, depth - 1),
            );
        }
        let p = pool();
        p.enter(|ctx| spin(ctx, 4));
        let st = p.stats();
        assert!(st.parallel_forks >= 1);
        assert!(st.parallel_forks <= 3 + st.denied_forks + 16);
        // Permits restored.
        assert!(p.try_acquire());
        p.release();
    }

    #[test]
    fn join_all_empty_returns_empty() {
        // Regression: an empty batch used to reach a `pop().unwrap()`
        // style path; it must be a clean no-op.
        let p = pool();
        let out: Vec<u32> = p.enter(|ctx| ctx.join_all(1 << 14, Vec::new()));
        assert!(out.is_empty());
        let one: Vec<u32> = p.enter(|ctx| {
            let fs: Jobs<'_, u32> = vec![Box::new(|_: &Ctx<'_>| 7)];
            ctx.join_all(1 << 14, fs)
        });
        assert_eq!(one, vec![7]);
    }

    #[test]
    fn capacity_queries_are_total() {
        let h = HwHierarchy::flat(4, 1024, 1 << 20);
        assert_eq!(h.level_capacity(0), Some(1024));
        assert_eq!(h.level_capacity(1), Some(1 << 20));
        assert_eq!(h.level_capacity(2), None);
        assert_eq!(h.instances_at(0), Some(4));
        assert_eq!(h.instances_at(1), Some(1));
        assert_eq!(h.instances_at(9), None);
        assert_eq!(h.aggregate_capacity(0), Some(4 * 1024));
        assert_eq!(h.aggregate_capacity(1), Some(1 << 20));
        assert_eq!(h.anchor_level(100), Some(0));
        assert_eq!(h.anchor_level(1024), Some(0));
        assert_eq!(h.anchor_level(1025), Some(1));
        assert_eq!(h.anchor_level(usize::MAX), None);
    }

    #[test]
    fn enter_accumulates_stats_and_permits_recover() {
        let p = pool();
        assert_eq!(p.available_permits(), 3);
        let big = |ctx: &Ctx<'_>| {
            ctx.join(1 << 16, |_| (), 1 << 16, |_| ());
        };
        p.enter(big);
        p.enter(big);
        // The second entry added to the first's count.
        assert_eq!(p.stats().parallel_forks, 2);
        assert_eq!(p.available_permits(), 3);

        // Monotone: while two threads interleave entries, no read of
        // any counter is below the read before it.
        let cells = |s: RtStats| {
            [
                s.parallel_forks,
                s.serial_forks,
                s.denied_forks,
                s.steals,
                s.failed_steals,
                s.parks,
                s.injector_pops,
            ]
        };
        std::thread::scope(|s| {
            let callers: Vec<_> = (0..2)
                .map(|_| {
                    s.spawn(|| {
                        for _ in 0..200 {
                            p.enter(|ctx| {
                                ctx.join(10, |_| (), 10, |_| ());
                                big(ctx);
                            });
                        }
                    })
                })
                .collect();
            let mut last = cells(p.stats());
            while !callers.iter().all(|h| h.is_finished()) {
                let now = cells(p.stats());
                assert!(
                    now.iter().zip(&last).all(|(n, l)| n >= l),
                    "a counter went down: {last:?} -> {now:?}"
                );
                last = now;
            }
        });
        assert_eq!(p.stats().serial_forks, 400);
        assert_eq!(p.available_permits(), 3);

        // The delta around one program is exactly its forks: three
        // below the L1 cutoff, one above it with every permit free.
        let before = p.stats();
        p.enter(|ctx| {
            for _ in 0..3 {
                ctx.join(10, |_| (), 10, |_| ());
            }
            big(ctx);
        });
        let d = p.stats().since(&before);
        assert_eq!(
            (d.serial_forks, d.parallel_forks, d.denied_forks),
            (3, 1, 0)
        );
        assert_eq!(d.total_forks(), 4);
        // Swapped arguments saturate instead of underflowing.
        assert_eq!(before.since(&p.stats()), RtStats::default());
    }

    /// A forked branch that unwinds still returns its core permit, on
    /// the parallel fork and on the denied-retry fork alike; otherwise
    /// every caught panic would narrow the pool for good.
    #[test]
    fn a_panicking_branch_returns_its_core_permit() {
        let p = pool();
        let caught = |f: &(dyn Fn(&Ctx<'_>) + Sync)| {
            let entered = panic::catch_unwind(AssertUnwindSafe(|| p.enter(|ctx| f(ctx))));
            assert!(entered.is_err(), "the branch's panic reaches the caller");
        };
        for _ in 0..3 {
            caught(&|ctx| {
                ctx.join(1 << 16, |_| (), 1 << 16, |_| panic!("injected"));
            });
            assert_eq!(p.available_permits(), 3);
        }
        // Every permit is taken when `join` first asks, and one frees
        // while the first branch runs: the second becomes a stealable
        // fork, the retry path.
        while p.try_acquire() {}
        caught(&|ctx| {
            ctx.join(
                1 << 16,
                |c| c.pool().release(),
                1 << 16,
                |_| panic!("injected"),
            );
        });
        p.release();
        p.release();
        assert_eq!(p.available_permits(), 3);
        let s = p.stats();
        assert_eq!((s.parallel_forks, s.denied_forks), (4, 0));
    }

    #[test]
    fn attached_witness_brackets_every_task() {
        use std::sync::atomic::{AtomicBool, AtomicI64};

        #[derive(Default)]
        struct Mock {
            open: AtomicI64,
            scopes: AtomicU64,
        }
        impl mo_obs::witness::TaskWitness for Mock {
            fn task_enter(&self) {
                self.open.fetch_add(1, Ordering::SeqCst);
                self.scopes.fetch_add(1, Ordering::SeqCst);
            }
            fn task_exit(&self, sink: Option<&mo_obs::TraceSink>, worker: Option<usize>, job: u64) {
                if let Some(s) = sink {
                    s.emit(worker, mo_obs::EventKind::CacheWitness, 0, 1, job);
                }
                // Stands in for the counter reads of a real witness (a
                // system call for the perf witness): an exit takes time.
                for _ in 0..200 {
                    std::hint::spin_loop();
                }
                self.open.fetch_sub(1, Ordering::SeqCst);
            }
        }

        let p = pool();
        let sink = Arc::new(mo_obs::TraceSink::new(p.hierarchy().cores()));
        let mock = Arc::new(Mock::default());
        assert!(p.attach_sink(Arc::clone(&sink)));
        assert!(p.attach_witness(Arc::clone(&mock) as _));
        assert!(!p.attach_witness(Arc::clone(&mock) as _)); // once per pool

        // A stolen task closes its scope before it sets its join latch,
        // so every scope is closed, and its event is in the sink, the
        // moment `enter` returns.
        let mut witnessed = 0u64;
        let mut roots = 0u64;
        for i in 0..10_000 {
            p.enter(|ctx| {
                for _ in 0..2 {
                    // The first branch lingers until a thief has started
                    // the second (or a bounded spin ends), so it returns
                    // while a stolen second branch is finishing.
                    let started = AtomicBool::new(false);
                    ctx.join(
                        1 << 16,
                        |_| {
                            for _ in 0..1000 {
                                if started.load(Ordering::SeqCst) {
                                    break;
                                }
                                std::hint::spin_loop();
                            }
                        },
                        1 << 16,
                        |_| started.store(true, Ordering::SeqCst),
                    );
                }
            });
            let open = mock.open.load(Ordering::SeqCst);
            assert_eq!(open, 0, "enter {i} returned with {open} scopes open");
            for e in sink.drain() {
                if e.kind == mo_obs::EventKind::CacheWitness {
                    witnessed += 1;
                    roots += u64::from(e.c == 0);
                }
            }
        }
        assert!(witnessed > roots, "no branch was ever stolen");
        assert_eq!(sink.dropped(), 0);
        assert_eq!(witnessed, mock.scopes.load(Ordering::SeqCst));
        assert_eq!(roots, 10_000, "every enter's root scope recorded job 0");
    }

    #[test]
    fn warm_reports_pool_info() {
        let p = pool();
        let info = p.warm();
        assert_eq!(info.cores, 4);
        assert_eq!(info.resident_workers, 4);
        assert!(info.started);
        assert_eq!(info.l1_words, 1024);
        assert_eq!(info.levels.len(), 2);
        assert_eq!(info.levels[1].fanout, 4);
        // Single-core pools never spawn workers and say so.
        let uni = SbPool::new(HwHierarchy::flat(1, 1024, 1 << 20));
        let info = uni.warm();
        assert_eq!(info.cores, 1);
        assert_eq!(info.resident_workers, 0);
        assert!(!info.started);
    }

    #[test]
    fn scheduler_activity_reaches_extended_stats() {
        // Enough coarse forks on a warmed 4-core pool must surface in
        // the new counters: every executed queued task lands in some
        // per-worker slot, and steals + injector pops account for every
        // task that moved between threads.
        fn spin(ctx: &Ctx<'_>, depth: usize) {
            if depth == 0 {
                std::hint::black_box(0u64);
                return;
            }
            ctx.join(
                1 << 20,
                |c| spin(c, depth - 1),
                1 << 20,
                |c| spin(c, depth - 1),
            );
        }
        let p = pool();
        p.warm();
        p.enter(|ctx| spin(ctx, 8));
        let st = p.stats();
        assert!(st.parallel_forks >= 1);
        let moved = st.steals + st.injector_pops;
        let executed: u64 = p.per_worker_tasks().iter().sum();
        // A queued task is executed exactly once; take_back'd jobs run
        // inline and are counted in neither.
        assert!(
            executed >= moved,
            "executed {executed} < moved {moved} (steals {} + injector {})",
            st.steals,
            st.injector_pops
        );
        assert_eq!(p.per_worker_tasks().len(), 5); // 4 workers + external
    }

    #[test]
    fn attached_sink_records_fork_decisions() {
        let p = pool();
        let sink = Arc::new(mo_obs::TraceSink::with_capacity(
            p.hierarchy().cores(),
            1 << 12,
        ));
        assert!(p.attach_sink(Arc::clone(&sink)));
        assert!(!p.attach_sink(Arc::clone(&sink))); // once per pool
        p.enter(|ctx| {
            ctx.join(10, |_| (), 10, |_| ());
            ctx.join(1 << 16, |_| (), 1 << 16, |_| ());
            ctx.pfor(0..4096, 64, |_r| {});
        });
        let events = sink.drain();
        let st = p.stats();
        let count = |k: mo_obs::EventKind| events.iter().filter(|e| e.kind == k).count() as u64;
        assert_eq!(count(mo_obs::EventKind::ForkSerial), st.serial_forks);
        assert_eq!(count(mo_obs::EventKind::ForkParallel), st.parallel_forks);
        assert_eq!(count(mo_obs::EventKind::ForkDenied), st.denied_forks);
        assert!(count(mo_obs::EventKind::CgcSegment) >= 1);
        // The serial fork carried its space bound and the L1 cutoff.
        let serial = events
            .iter()
            .find(|e| e.kind == mo_obs::EventKind::ForkSerial)
            .unwrap();
        assert_eq!(serial.a, 10);
        assert_eq!(serial.b, 0); // anchors at L1
        assert_eq!(serial.c, 1024);
        assert_eq!(sink.dropped(), 0);
    }

    #[test]
    fn join_all_preserves_order() {
        let p = pool();
        let out = p.enter(|ctx| {
            let fs: Jobs<'_, usize> = (0..9usize)
                .map(|i| Box::new(move |_: &Ctx<'_>| i * i) as _)
                .collect();
            ctx.join_all(1 << 14, fs)
        });
        assert_eq!(out, (0..9).map(|i| i * i).collect::<Vec<_>>());
    }
}
