//! The space-bound kernel server.
//!
//! Submission → bounded queue → SB admission → (batched) execution:
//!
//! * **Admission control is the paper's space admission, lifted to whole
//!   jobs.** Every job declares its analytic footprint (via the kernel
//!   registry); it may *start* only when some cache level of the serving
//!   hierarchy both fits it per-instance and has that much machine-wide
//!   capacity left over the jobs already running — the level the job is
//!   "anchored" against, exactly like the SB scheduler anchors tasks at
//!   the smallest cache that fits `s(τ)`.
//! * **Backpressure instead of collapse.** The queue is bounded: a full
//!   queue rejects at submission ([`Rejected::QueueFull`]), a job that
//!   waits past its deadline is shed ([`Rejected::DeadlineExpired`]),
//!   and a job no cache level could ever hold is refused outright
//!   ([`Rejected::TooLarge`]). Memory stays bounded by
//!   `queue_cap · spec + Σ admitted footprints` by construction.
//! * **CGC⇒SB batching.** Queued jobs with the same `(kernel, n)` — and
//!   hence equal footprints — whose per-job footprint is small are
//!   coalesced into one batch that anchors where its *total* footprint
//!   fits, then expands evenly over the cores through one `join_all`
//!   whose per-child space bound is the per-job footprint: the serving
//!   analogue of a CGC⇒SB fork anchoring high and expanding its
//!   equal-sized children below.
//! * **Graceful drain.** [`Server::shutdown`] stops intake; workers
//!   finish the queue (still shedding whatever expires) and exit;
//!   [`Server::drain`] joins them and returns the final metrics
//!   snapshot. Every ticket resolves exactly once.
//! * **Request-path spans.** Every submission gets a fleet-unique
//!   request id (`(shard << 48) | seq`, or the [`JobSpec::trace_id`]
//!   the dist router already stamped). Once a sink is attached
//!   ([`Server::attach_sink`], at any time), each request emits monotonic
//!   phase-boundary events — `serve_arrive → serve_admit →
//!   serve_enqueue → serve_dequeue → serve_batch_form → serve_execute
//!   → serve_respond`, or a typed `serve_shed` — into the same
//!   timeline as the SB pool's scheduler and witness events. A span
//!   opens at arrival and closes exactly once; `mo_obs::span`
//!   reassembles the ring into per-kernel per-phase latency
//!   histograms. With no sink attached an emission site costs one
//!   `OnceLock` load.
//! * **A panicking kernel fails its batch only.** The unwind is caught
//!   around the pool entry: that batch's tickets resolve as
//!   [`Rejected::KernelPanicked`] (counted as `failed`, their spans
//!   closed as `kernel_panic`), its footprint is returned, and the
//!   service thread, the pool's core permits and every other batch
//!   carry on.
//! * **SLO burn rates.** A latency objective (100 ms at 0.99) and an
//!   availability objective (0.999) are evaluated as multi-window
//!   error-budget burn rates ([`mo_obs::slo`]), exported as
//!   `moserve_slo_*` families on `/metrics`; on the not-burning →
//!   burning edge a flight recorder drains the span rings into a
//!   validated Perfetto artifact at [`ServeConfig::slo_dump`].
//!
//! All of the above, and every counter it produces, is one clock-free
//! state machine, `state::Core`; this module is its thread shell: one
//! lock, one condvar, and the service threads, which sleep until
//! notified or until the earliest queued deadline. No thread exists
//! for the SLOs.

use std::panic::{self, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread;
use std::time::{Duration, Instant};

use mo_core::obs_event;
use mo_core::rt::{HwHierarchy, PoolInfo, SbPool};

use crate::job::{JobSpec, Rejected, Ticket};
use crate::metrics::MetricsSnapshot;
use crate::state::{Batch, Core, Ran, Step};

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads; `0` uses the hierarchy's core count.
    pub workers: usize,
    /// Bounded queue capacity; submissions beyond it are shed.
    pub queue_cap: usize,
    /// Default queue deadline for jobs that do not carry their own.
    pub default_deadline: Duration,
    /// Maximum jobs per CGC⇒SB batch (`1` disables batching).
    pub batch_max: usize,
    /// Only jobs whose footprint is at most this many words are
    /// batched; `None` uses the L1 capacity (the paper's "small task"
    /// regime where CGC⇒SB expansion pays off).
    pub batch_words_max: Option<usize>,
    /// Secure serving mode (`--secure`): with `Some(set)`, refuse every
    /// kernel that does not hold an `oblivious` certificate in `set`
    /// (the `mo_certify` artifact, loaded via
    /// [`mo_core::CertificateSet::from_json_str`]) with the typed
    /// [`Rejected::NotCertified`] reason; an empty set refuses
    /// everything. `None` (the default) serves every kernel.
    pub certificates: Option<mo_core::CertificateSet>,
    /// Shard id folded into server-minted request ids
    /// (`(shard << 48) | seq`) so spans stay unique across a fleet;
    /// the dist tier sets it to the worker's shard index.
    pub shard: u16,
    /// Where the SLO flight recorder writes its Perfetto dump on a
    /// burn edge (when a trace sink is attached); `None` counts burn
    /// edges without writing.
    pub slo_dump: Option<PathBuf>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            workers: 0,
            queue_cap: 256,
            default_deadline: Duration::from_secs(5),
            batch_max: 16,
            batch_words_max: None,
            certificates: None,
            shard: 0,
            slo_dump: None,
        }
    }
}

pub(crate) struct Shared {
    pool: SbPool,
    cfg: ServeConfig,
    /// The pool's resolved shape, reported by [`SbPool::warm`] at
    /// startup.
    pool_info: PoolInfo,
    core: Mutex<Core>,
    cv: Condvar,
    /// The hardware cache witness, when `perf_event_open` is available.
    /// Batch execution wraps a per-thread span around the pool entry,
    /// so the measured counts cover the serving thread's share of the
    /// work (the root task plus whatever it help-executed) — a lower
    /// bound on the batch's true traffic, attributed per kernel.
    witness: Option<mo_obs::witness::PerfWitness>,
    /// Sequence counter behind server-minted request ids.
    next_req: AtomicU64,
}

impl Shared {
    /// The serving state. No kernel code runs under this lock (a batch
    /// executes after it is dropped, and a kernel's panic is caught
    /// there), so only a bug in `Core` could poison it; the guard is
    /// then recovered rather than turning that one fault into a panic
    /// on every later call.
    fn core(&self) -> MutexGuard<'_, Core> {
        self.core.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Point-in-time copy of every metric (shared by [`Server::metrics`]
    /// and the `/metrics` exposition thread).
    pub(crate) fn snapshot(&self) -> MetricsSnapshot {
        let (now, pool) = (Instant::now(), &self.pool);
        let (mut snap, burned) = self.core().snapshot(now, pool.stats(), pool.sink());
        if burned {
            self.flight_record();
        }
        snap.witness_available = self.witness.is_some();
        snap
    }

    /// Mint a fleet-unique request id for a job that arrived without
    /// one: shard in the top 16 bits, a monotone sequence below.
    fn next_request_id(&self) -> u64 {
        ((self.cfg.shard as u64) << 48) | (self.next_req.fetch_add(1, Ordering::Relaxed) + 1)
    }

    /// Dump-on-burn flight recorder: drain the trace sink (request
    /// spans plus the scheduler events around them) into a validated
    /// Perfetto JSON artifact. Draining consumes the rings, so the dump
    /// captures the window since the last drain — exactly the flight
    /// these spans flew.
    fn flight_record(&self) {
        let Some(path) = self.cfg.slo_dump.as_ref() else {
            return;
        };
        let Some(sink) = self.pool.sink() else {
            return;
        };
        let events = sink.drain();
        let json = mo_obs::chrome::to_chrome_json(&events);
        if mo_obs::chrome::validate(&json).is_ok() {
            let _ = std::fs::write(path, json);
        }
    }
}

/// A running space-bound kernel service. See the module docs.
pub struct Server {
    shared: Arc<Shared>,
    workers: Vec<thread::JoinHandle<()>>,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("workers", &self.workers.len())
            .field("cfg", &self.shared.cfg)
            .finish()
    }
}

impl Server {
    /// Start a server over an explicit hierarchy. It spawns exactly
    /// the service workers, on top of the pool's resident threads.
    pub fn start(hier: HwHierarchy, cfg: ServeConfig) -> Self {
        let core = Core::new(hier.clone(), &cfg, Instant::now());
        let pool = SbPool::new(hier);
        // Spawn the pool's resident stealing workers up front: every
        // batch runs on this long-lived pool via `enter`, so first-job
        // latency should not pay thread creation. `warm` reports the
        // resolved shape, which sizes the service workers and is kept
        // for snapshots.
        let pool_info = pool.warm();
        let workers = if cfg.workers == 0 {
            pool_info.cores.max(1)
        } else {
            cfg.workers
        };
        let shared = Arc::new(Shared {
            pool,
            cfg,
            pool_info,
            core: Mutex::new(core),
            cv: Condvar::new(),
            witness: mo_obs::witness::PerfWitness::try_new().ok(),
            next_req: AtomicU64::new(0),
        });
        let workers = (0..workers)
            .map(|_| {
                let sh = Arc::clone(&shared);
                thread::spawn(move || worker_loop(&sh))
            })
            .collect();
        Self { shared, workers }
    }

    /// Start over the detected machine with default config.
    pub fn detected() -> Self {
        Self::start(HwHierarchy::detect(), ServeConfig::default())
    }

    /// The hierarchy the server admits against.
    pub fn hierarchy(&self) -> &HwHierarchy {
        self.shared.pool.hierarchy()
    }

    /// Submit a job. `Ok` hands back a [`Ticket`] resolving to the
    /// job's [`Outcome`]; `Err` is immediate, typed load-shedding.
    pub fn submit(&self, spec: JobSpec) -> Result<Ticket, Rejected> {
        let sh = &self.shared;
        // Span opens here; every return below closes it exactly once
        // (respond in `execute`, or one typed shed). Serve events come
        // from service threads, not pool residents (worker `None`), so
        // they land in the sink's external ring.
        let req = spec.trace_id.unwrap_or_else(|| sh.next_request_id());
        let sink = sh.pool.sink();
        obs_event!(sink, None, ServeArrive, req, spec.kernel.index(), spec.n);
        let ticket = sh.core().submit(Instant::now(), spec, req, sink)?;
        sh.cv.notify_one();
        Ok(ticket)
    }

    /// Stop accepting work; queued jobs still run (or expire).
    pub fn shutdown(&self) {
        self.shared.core().shutdown();
        self.shared.cv.notify_all();
    }

    /// Shut down, wait for the queue to empty and every worker to exit,
    /// and return the final metrics snapshot.
    pub fn drain(mut self) -> MetricsSnapshot {
        self.shutdown();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
        self.metrics()
    }

    /// Point-in-time snapshot of every service metric.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.shared.snapshot()
    }

    /// The underlying pool's resolved shape, as reported by
    /// [`SbPool::warm`] at startup.
    pub fn pool_info(&self) -> &PoolInfo {
        &self.shared.pool_info
    }

    /// Attach a trace sink to the underlying pool (see
    /// [`mo_core::rt::SbPool::attach_sink`]); once attached, the
    /// per-worker ring overflow-drop counts surface in snapshots and as
    /// `moserve_ring_dropped_total{worker}` in the `/metrics`
    /// exposition. Returns `false` if a sink is already attached.
    pub fn attach_sink(&self, sink: std::sync::Arc<mo_obs::TraceSink>) -> bool {
        self.shared.pool.attach_sink(sink)
    }

    /// Serve a Prometheus text exposition of [`metrics`](Self::metrics)
    /// over HTTP on `addr` (e.g. `"127.0.0.1:0"` for an ephemeral
    /// port). See [`crate::MetricsExposition`].
    pub fn serve_metrics(
        &self,
        addr: impl std::net::ToSocketAddrs,
    ) -> std::io::Result<crate::MetricsExposition> {
        let shared = Arc::clone(&self.shared);
        crate::MetricsExposition::bind(addr, "mo-serve-metrics", move || {
            Ok(shared.snapshot().to_prometheus_text())
        })
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

fn worker_loop(sh: &Shared) {
    let mut core = sh.core();
    loop {
        let now = Instant::now();
        match core.next(now, sh.pool.sink()) {
            Step::Run(batch) => {
                drop(core);
                let (started, finished, ran) = execute(sh, &batch);
                let replies = sh
                    .core()
                    .complete(batch, started, finished, ran, sh.pool.sink());
                for (tx, outcome) in replies {
                    let _ = tx.send(outcome);
                }
                // Wake anyone waiting on the released capacity.
                sh.cv.notify_all();
                core = sh.core();
            }
            Step::Dump => {
                drop(core);
                sh.flight_record();
                core = sh.core();
            }
            Step::Wait(Some(deadline)) => {
                let timeout = deadline.saturating_duration_since(now);
                let waited = sh.cv.wait_timeout(core, timeout);
                core = waited.unwrap_or_else(PoisonError::into_inner).0;
            }
            Step::Wait(None) => {
                core = sh.cv.wait(core).unwrap_or_else(PoisonError::into_inner);
            }
            Step::Exit => return,
        }
    }
}

/// Run an admitted batch on the pool, outside the lock; returns when
/// it started and finished and how it ended. A panic anywhere in the
/// kernel's fork tree reaches `enter` and is caught here, so it fails
/// this batch and nothing else.
fn execute(sh: &Shared, batch: &Batch) -> (Instant, Instant, Ran) {
    let Batch { jobs, anchor, .. } = batch;
    let (kernel, n) = (jobs[0].spec.kernel, jobs[0].spec.n);
    let seeds: Vec<u64> = jobs.iter().map(|q| q.spec.seed).collect();
    let sink = sh.pool.sink();
    if sink.is_some() {
        for q in jobs {
            obs_event!(sink, None, ServeExecute, q.req, jobs.len(), *anchor);
        }
    }
    let started = Instant::now();
    let span = sh.witness.as_ref().and_then(|w| w.span());
    let run = || sh.pool.enter(|ctx| run_batch(ctx, kernel, n, &seeds));
    let ran = match panic::catch_unwind(AssertUnwindSafe(run)) {
        Ok(sums) => Ran::Done {
            sums,
            witness: sh.witness.as_ref().zip(span).map(|(w, s)| w.span_delta(&s)),
        },
        Err(_) => Ran::Panicked,
    };
    (started, Instant::now(), ran)
}

// The batch body. A test build swaps in one whose kernel can be made
// to panic, `tests::run_batch`.
#[cfg(not(test))]
use mo_algorithms::real::registry::run_batch_in as run_batch;
#[cfg(test)]
use tests::run_batch;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Kernel, Outcome};
    use mo_algorithms::real::registry::{footprint_words, run_in};
    use mo_core::rt::{Ctx, Jobs};

    /// The seed whose job panics in a test build's kernel.
    const PANIC_SEED: u64 = 0xdead_beef;

    /// [`run_batch_in`](mo_algorithms::real::registry::run_batch_in)
    /// with one fault added: a job seeded [`PANIC_SEED`] panics inside
    /// its own branch of the batch's fork tree.
    pub(super) fn run_batch(ctx: &Ctx<'_>, kernel: Kernel, n: usize, seeds: &[u64]) -> Vec<u64> {
        let jobs: Jobs<'_, u64> = seeds
            .iter()
            .map(|&seed| {
                Box::new(move |c: &Ctx<'_>| {
                    assert_ne!(seed, PANIC_SEED, "injected kernel panic");
                    run_in(c, kernel, n, seed)
                }) as _
            })
            .collect();
        ctx.join_all(footprint_words(kernel, n), jobs)
    }

    /// A kernel that panics on job 3 of a batch of four fails that
    /// batch only: the batch queued beside it completes, the next one
    /// runs with every core permit back, and the counters conserve.
    #[test]
    fn a_panicking_kernel_fails_its_batch_only() {
        let server = Server::start(
            HwHierarchy::flat(4, 2048, 1 << 16),
            ServeConfig {
                workers: 1,
                batch_max: 4,
                batch_words_max: Some(4096),
                ..ServeConfig::default()
            },
        );
        let sh = &server.shared;
        // Queue both batches under one hold of the lock, so the one
        // service thread forms the four sorts into one batch. The
        // panicking job sits in the batch's second half, the branch
        // `join_all` forks with a core permit.
        let queued: Vec<(u64, Ticket)> = {
            let mut core = sh.core();
            let mut queue = |kernel, n, seed| {
                let spec = JobSpec::new(kernel, n, seed);
                let ticket = core.submit(Instant::now(), spec, sh.next_request_id(), None);
                (seed, ticket.expect("queued"))
            };
            let mut jobs: Vec<_> = [1, 2, PANIC_SEED, 3]
                .map(|seed| queue(Kernel::Sort, 1000, seed))
                .into();
            jobs.push(queue(Kernel::Scan, 64, 4));
            jobs
        };
        sh.cv.notify_all();
        for (seed, ticket) in queued {
            match ticket.wait() {
                Outcome::Rejected(Rejected::KernelPanicked) if seed != 4 => {}
                Outcome::Done(d) if seed == 4 => assert_eq!(d.batch_size, 1),
                other => panic!("job seeded {seed}: {other:?}"),
            }
        }
        let next = server.submit(JobSpec::new(Kernel::Sort, 1000, 5));
        assert!(next.expect("admitted").wait().is_done());
        assert_eq!(sh.pool.available_permits(), 3, "a permit leaked");

        let snap = server.metrics();
        let sort = &snap.kernels[Kernel::Sort.index()];
        assert_eq!((sort.submitted, sort.completed, sort.failed), (5, 1, 4));
        for row in &snap.kernels {
            let resolved = row.completed + row.shed_deadline + row.failed;
            assert_eq!(row.submitted, resolved + row.in_flight(), "{}", row.kernel);
        }
        assert!(snap.levels.iter().all(|l| l.inflight_words == 0));
        let text = snap.to_prometheus_text();
        assert!(text.contains("moserve_jobs_failed_total{kernel=\"sort\"} 4"));
        assert_eq!(server.drain().in_flight_total(), 0);
    }
}
