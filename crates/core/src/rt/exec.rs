//! Work-stealing executor internals behind [`super::SbPool`].
//!
//! The public `SbPool`/`Ctx` API used to realize every parallel fork as
//! a fresh scoped OS thread. This module replaces that with a resident
//! worker pool in the standard Cilk/rayon execution model the paper's
//! HM scheduler idealizes:
//!
//! * **One lazily-started worker per core**, each owning a Chase–Lev
//!   style deque: the owner pushes and pops at the *bottom* (LIFO, so a
//!   worker dives depth-first into the subtree it already has in
//!   cache), thieves steal from the *top* (FIFO, so they take the
//!   oldest — largest — pending subtree, the shadow-of-an-anchor a
//!   stolen task represents). Each deque is guarded by a short-held
//!   lock rather than the lock-free top/bottom indices of the original
//!   Chase–Lev structure; tasks only become stealable above the L1
//!   space cutoff, so they are coarse and the guard is never contended
//!   at task granularity.
//! * **Help-first joins**: a forking task pushes its second branch,
//!   runs the first inline, and — if the branch was stolen — executes
//!   *other* ready tasks while it waits instead of blocking the OS
//!   thread.
//! * **An injector queue** for threads that are not pool workers (a
//!   server thread or a test thread inside [`SbPool::enter`]): their
//!   forks are pushed there and stolen by the residents, while the
//!   submitting thread help-waits like any worker.
//! * **Event-counted sleeping**: idle workers park on a condvar guarded
//!   by a monotone event counter. Every push and every task completion
//!   bumps the counter and broadcasts, and a would-be sleeper re-checks
//!   the counter under the lock before waiting, so a wakeup can never
//!   be lost between "scanned all queues empty" and "went to sleep".
//!
//! # Safety
//!
//! Forked closures borrow the forking task's stack frame, so a queued
//! task is a type-erased raw pointer ([`JobRef`]) into live stack
//! memory. The protocol that keeps this sound is the classic fork–join
//! pinning argument:
//!
//! * a [`StackJob`] is created in the frame of `Ctx::join`/`Ctx::pfor`
//!   and that frame does **not** return (or unwind) until either the
//!   job's latch has been observed set (some thread finished running
//!   it) or the job was reclaimed un-run via [`Registry::take_back`],
//!   which removes the only escaped pointer;
//! * the closure and result cells are never accessed concurrently: the
//!   executing thread consumes the closure and writes the result
//!   *before* setting the latch (release), and the owner reads the
//!   result only *after* observing the latch (acquire).

#![allow(unsafe_code)] // the safety protocol is documented above

use std::cell::{Cell, UnsafeCell};
use std::collections::VecDeque;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};

use super::{Ctx, Inner, SbPool};

/// Where a scan found a runnable job: the scanner's own deque, the
/// external injector, or stolen from worker `.0`'s deque.
pub(super) enum Origin {
    Own,
    Injector,
    Stolen(usize),
}

/// A type-erased pointer to a stack-allocated [`StackJob`], paired with
/// the monomorphized function that runs it.
#[derive(Clone, Copy)]
pub(super) struct JobRef {
    data: *const (),
    exec: unsafe fn(*const (), &Ctx<'_>, &mut dyn FnMut()),
}

// SAFETY: the pointee is pinned for the job's whole queue lifetime and
// all access to its cells is ordered through the latch (module docs).
unsafe impl Send for JobRef {}

impl JobRef {
    /// Identity of the underlying job, for [`Registry::take_back`].
    pub(super) fn id(&self) -> *const () {
        self.data
    }

    /// Run the job on the calling thread, then `epilogue`, then set the
    /// job's latch: whatever the epilogue accounts is complete by the
    /// time the owner's join returns.
    ///
    /// # Safety
    /// The caller must have obtained this reference from a queue (so it
    /// is the unique owner of the right to execute it) and the backing
    /// [`StackJob`] must still be pinned.
    pub(super) unsafe fn execute(self, ctx: &Ctx<'_>, epilogue: &mut dyn FnMut()) {
        // SAFETY: forwarding the caller's contract — `data` points to
        // the pinned `StackJob` that `exec` was monomorphized for.
        unsafe { (self.exec)(self.data, ctx, epilogue) }
    }
}

/// A set-once completion flag, probed by the owner while it helps.
pub(super) struct Latch {
    done: AtomicBool,
}

impl Latch {
    fn new() -> Self {
        Self {
            done: AtomicBool::new(false),
        }
    }

    fn set(&self) {
        self.done.store(true, Ordering::Release);
    }

    pub(super) fn probe(&self) -> bool {
        self.done.load(Ordering::Acquire)
    }
}

/// A fork's second branch, allocated in the forking frame: the closure,
/// a slot for its result (or panic payload), and the completion latch.
pub(super) struct StackJob<F, R> {
    f: UnsafeCell<Option<F>>,
    result: UnsafeCell<Option<std::thread::Result<R>>>,
    latch: Latch,
}

impl<F, R> StackJob<F, R>
where
    F: FnOnce(&Ctx<'_>) -> R + Send,
    R: Send,
{
    pub(super) fn new(f: F) -> Self {
        Self {
            f: UnsafeCell::new(Some(f)),
            result: UnsafeCell::new(None),
            latch: Latch::new(),
        }
    }

    /// Erase to a queueable reference.
    ///
    /// # Safety
    /// The caller must keep `self` pinned until the latch is set or the
    /// reference has been reclaimed via [`Registry::take_back`].
    pub(super) unsafe fn as_job_ref(&self) -> JobRef {
        JobRef {
            data: self as *const Self as *const (),
            exec: Self::execute_erased,
        }
    }

    unsafe fn execute_erased(data: *const (), ctx: &Ctx<'_>, epilogue: &mut dyn FnMut()) {
        // SAFETY: `data` came from `as_job_ref` on a still-pinned
        // `StackJob<F, R>` (caller contract via `JobRef::execute`).
        let this = unsafe { &*(data as *const Self) };
        // SAFETY: the executing thread holds the unique right to run
        // this job (it was popped from a queue), so nothing else
        // touches the closure or result cells until the latch — set
        // below, with release ordering — publishes them to the owner.
        let f = unsafe { (*this.f.get()).take() }.expect("stack job executed twice");
        let res = panic::catch_unwind(AssertUnwindSafe(|| f(ctx)));
        // SAFETY: same exclusive-execution argument as the read above.
        unsafe { *this.result.get() = Some(res) };
        // The latch is set even if the epilogue unwinds, so the owner
        // never waits on a job that has finished; the unwind then
        // carries on from here.
        let tail = panic::catch_unwind(AssertUnwindSafe(epilogue));
        this.latch.set();
        if let Err(payload) = tail {
            panic::resume_unwind(payload);
        }
    }

    pub(super) fn latch(&self) -> &Latch {
        &self.latch
    }

    /// Reclaim the closure of a job that was popped back un-run; only
    /// legal after [`Registry::take_back`] returned `true` for it.
    pub(super) fn take_f(&self) -> F {
        // SAFETY: `take_back` returning true removed the only escaped
        // reference before anyone executed it, so the owner is again
        // the sole accessor of the closure cell.
        unsafe { (*self.f.get()).take().expect("reclaimed a stolen job") }
    }

    /// The result, once the latch has been observed set; a panic from
    /// the job resumes here, on the owner.
    pub(super) fn into_result(self) -> R {
        match self
            .result
            .into_inner()
            .expect("latched job without result")
        {
            Ok(r) => r,
            Err(payload) => panic::resume_unwind(payload),
        }
    }
}

/// The shared queues and sleep machinery of one pool.
pub(super) struct Registry {
    /// One owner-LIFO / thief-FIFO deque per resident worker.
    deques: Vec<Mutex<VecDeque<JobRef>>>,
    /// Submission queue for non-worker threads.
    injector: Mutex<VecDeque<JobRef>>,
    /// Monotone event counter: bumped (under the lock) on every push,
    /// every completion and on termination.
    events: Mutex<u64>,
    wake: Condvar,
    /// Whether the resident workers have been spawned.
    pub(super) started: AtomicBool,
    stop: AtomicBool,
}

impl Registry {
    pub(super) fn new(workers: usize) -> Self {
        Self {
            deques: (0..workers).map(|_| Mutex::new(VecDeque::new())).collect(),
            injector: Mutex::new(VecDeque::new()),
            events: Mutex::new(0),
            wake: Condvar::new(),
            started: AtomicBool::new(false),
            stop: AtomicBool::new(false),
        }
    }

    fn events(&self) -> u64 {
        *self.events.lock().unwrap()
    }

    /// Record an event (push, completion, termination) and wake every
    /// sleeper.
    fn signal(&self) {
        let mut g = self.events.lock().unwrap();
        *g += 1;
        self.wake.notify_all();
    }

    /// Ask the resident workers to exit once idle.
    pub(super) fn request_stop(&self) {
        self.stop.store(true, Ordering::Release);
        self.signal();
    }

    /// Queue `job`: bottom of the caller's own deque for a worker, the
    /// injector for an external thread.
    pub(super) fn push(&self, me: Option<usize>, job: JobRef) {
        match me {
            Some(i) => self.deques[i].lock().unwrap().push_back(job),
            None => self.injector.lock().unwrap().push_back(job),
        }
        self.signal();
    }

    /// Try to reclaim the job `id` from wherever [`push`](Self::push)
    /// put it. `true` means it was still queued (nobody stole it) and
    /// has been removed, so the caller owns it again.
    pub(super) fn take_back(&self, me: Option<usize>, id: *const ()) -> bool {
        match me {
            Some(i) => {
                let mut q = self.deques[i].lock().unwrap();
                if q.back().is_some_and(|j| j.id() == id) {
                    q.pop_back();
                    true
                } else {
                    false
                }
            }
            None => {
                let mut q = self.injector.lock().unwrap();
                if let Some(pos) = q.iter().rposition(|j| j.id() == id) {
                    q.remove(pos);
                    true
                } else {
                    false
                }
            }
        }
    }

    /// One scan for work: own deque bottom first (depth-first), then
    /// the injector, then the other deques' tops, round-robin. Reports
    /// where the job came from so the caller can account steals and
    /// injector throughput.
    fn find_work(&self, me: Option<usize>) -> Option<(JobRef, Origin)> {
        if let Some(i) = me {
            if let Some(j) = self.deques[i].lock().unwrap().pop_back() {
                return Some((j, Origin::Own));
            }
        }
        if let Some(j) = self.injector.lock().unwrap().pop_front() {
            return Some((j, Origin::Injector));
        }
        let n = self.deques.len();
        let start = me.map_or(0, |i| i + 1);
        for k in 0..n {
            let v = (start + k) % n;
            if Some(v) == me {
                continue;
            }
            if let Some(j) = self.deques[v].lock().unwrap().pop_front() {
                return Some((j, Origin::Stolen(v)));
            }
        }
        None
    }
}

/// Account and run one job a scan produced: bump the steal / injector
/// counters, trace the task's enter/exit (job ids are the stack-job
/// addresses — unique while pinned, which covers the task's run), and
/// signal the completion event.
fn execute_found(ctx: &Ctx<'_>, job: JobRef, origin: Origin) {
    let inner = ctx.inner();
    let me = ctx.worker_index();
    let sink = inner.sink.get();
    let (ocode, victim) = match origin {
        Origin::Own => (0u64, 0usize),
        Origin::Injector => {
            inner.stats.injector_pops.fetch_add(1, Ordering::Relaxed);
            obs_event!(sink, me, InjectorPop, job.id() as usize, 0, 0);
            (1, 0)
        }
        Origin::Stolen(v) => {
            inner.stats.steals.fetch_add(1, Ordering::Relaxed);
            obs_event!(sink, me, StealSuccess, v, job.id() as usize, 0);
            (2, v)
        }
    };
    obs_event!(sink, me, TaskEnter, job.id() as usize, ocode, victim);
    let mut wscope = inner
        .witness
        .get()
        .map(|w| mo_obs::witness::scope(w.as_ref(), sink.map(|s| s.as_ref()), me, job.id() as u64));
    // The task's exit accounting runs before its latch is set, so a
    // trace drained when the owner's join returns holds all of it.
    // The witness scope closes before TaskExit so the delta lands
    // inside the task's slice.
    let mut exit = || {
        drop(wscope.take());
        obs_event!(sink, me, TaskExit, job.id() as usize, 0, 0);
    };
    // SAFETY: popped from a queue, so this thread owns the right to run
    // the job and its frame is still pinned (module docs).
    unsafe { job.execute(ctx, &mut exit) };
    inner.note_task(me);
    inner.reg.signal();
}

/// Account one completely empty scan (a failed steal attempt).
fn note_empty_scan(ctx: &Ctx<'_>) {
    let inner = ctx.inner();
    inner.stats.failed_steals.fetch_add(1, Ordering::Relaxed);
    obs_event!(inner.sink.get(), ctx.worker_index(), StealAttempt, 0, 0, 0);
}

thread_local! {
    /// `(pool identity, worker index)` of the resident worker running
    /// on this thread, if any.
    static WORKER: Cell<Option<(usize, usize)>> = const { Cell::new(None) };
}

fn token(inner: &Inner) -> usize {
    inner as *const Inner as usize
}

/// The worker index of the current thread *within `inner`'s pool*, or
/// `None` for external threads (and for workers of other pools).
pub(super) fn current_worker(inner: &Inner) -> Option<usize> {
    WORKER
        .with(Cell::get)
        .and_then(|(t, i)| (t == token(inner)).then_some(i))
}

/// Body of a resident worker thread.
pub(super) fn worker_loop(inner: Arc<Inner>, idx: usize) {
    WORKER.with(|w| w.set(Some((token(&inner), idx))));
    let view = SbPool::view(Arc::clone(&inner));
    let ctx = Ctx::for_worker(&view, idx);
    let reg = &inner.reg;
    loop {
        let seen = reg.events();
        if let Some((job, origin)) = reg.find_work(Some(idx)) {
            execute_found(&ctx, job, origin);
            continue;
        }
        note_empty_scan(&ctx);
        if reg.stop.load(Ordering::Acquire) {
            return;
        }
        let g = reg.events.lock().unwrap();
        if *g != seen {
            continue; // something happened since the scan began
        }
        if reg.stop.load(Ordering::Acquire) {
            return;
        }
        inner.stats.parks.fetch_add(1, Ordering::Relaxed);
        obs_event!(inner.sink.get(), Some(idx), Park, 0, 0, 0);
        drop(reg.wake.wait(g).unwrap());
        obs_event!(inner.sink.get(), Some(idx), Unpark, 0, 0, 0);
    }
}

/// Help-first wait: run other ready tasks until `latch` is set, parking
/// only when the whole pool is quiescent. The latch-setter always bumps
/// the event counter after setting, so the counter re-check under the
/// lock makes the final probe race-free.
pub(super) fn wait_until(ctx: &Ctx<'_>, latch: &Latch) {
    let inner = ctx.inner();
    let reg = &inner.reg;
    loop {
        if latch.probe() {
            return;
        }
        let seen = reg.events();
        if let Some((job, origin)) = reg.find_work(ctx.worker_index()) {
            execute_found(ctx, job, origin);
            continue;
        }
        note_empty_scan(ctx);
        if latch.probe() {
            return;
        }
        let g = reg.events.lock().unwrap();
        if *g != seen {
            continue;
        }
        inner.stats.parks.fetch_add(1, Ordering::Relaxed);
        obs_event!(inner.sink.get(), ctx.worker_index(), Park, 0, 0, 0);
        drop(reg.wake.wait(g).unwrap());
        obs_event!(inner.sink.get(), ctx.worker_index(), Unpark, 0, 0, 0);
    }
}
