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
//! * **SLO burn rates.** An optional [`SloConfig`] evaluates a latency
//!   and an availability objective as multi-window error-budget burn
//!   rates ([`mo_obs::slo`]), exported as `moserve_slo_*` families on
//!   `/metrics`; on the not-burning → burning edge a flight recorder
//!   drains the span rings into a validated Perfetto artifact.

use std::collections::VecDeque;
use std::sync::atomic::Ordering;
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use mo_algorithms::real::registry::{
    analytic_transfers, footprint_words, run_batch_in, BLOCK_WORDS,
};
use mo_core::obs_event;
use mo_core::rt::{HwHierarchy, PoolInfo, SbPool};
use mo_obs::slo::{BurnTracker, BurnWindow, SloSpec};
use mo_obs::span::{
    SHED_DEADLINE, SHED_NOT_CERTIFIED, SHED_QUEUE_FULL, SHED_SHUTTING_DOWN, SHED_TOO_LARGE,
};

use crate::job::{Done, JobSpec, Outcome, Rejected, Ticket};
use crate::metrics::{Metrics, MetricsSnapshot, SloObjectiveSnapshot, SloWindowSnapshot};

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
    /// Secure serving mode (`--secure`): refuse every kernel that does
    /// not hold an `oblivious` certificate in [`Self::certificates`]
    /// with the typed [`Rejected::NotCertified`] reason. Off by
    /// default.
    pub secure: bool,
    /// Value-obliviousness certificates (the `mo_certify` artifact,
    /// loaded via [`mo_core::CertificateSet::from_json_str`]) consulted
    /// by secure mode. `None` with `secure` refuses everything.
    pub certificates: Option<mo_core::CertificateSet>,
    /// Shard id folded into server-minted request ids
    /// (`(shard << 48) | seq`) so spans stay unique across a fleet;
    /// the dist tier sets it to the worker's shard index.
    pub shard: u16,
    /// Latency/availability service-level objectives; `None` disables
    /// the burn-rate engine (no `moserve_slo_*` families, no dumps).
    pub slo: Option<SloConfig>,
}

/// Service-level objectives evaluated by the server's burn-rate engine.
///
/// Two objectives share the multi-window machinery of [`mo_obs::slo`]:
/// **latency** (a request is good when it completes within
/// [`Self::latency`]; sheds count bad) and **availability** (good =
/// completed; queue-full and deadline sheds count bad, while
/// `too_large` / `not_certified` rejections are client errors and count
/// toward neither). On the not-burning → burning edge the server
/// drains the trace sink (when one is attached) into a validated
/// Perfetto JSON flight-recorder artifact at [`Self::dump_path`].
#[derive(Debug, Clone)]
pub struct SloConfig {
    /// Latency threshold: completions at or under this are good.
    pub latency: Duration,
    /// Required good fraction for the latency objective.
    pub latency_target: f64,
    /// Required good fraction for the availability objective.
    pub availability_target: f64,
    /// Burn window pairs; empty uses [`SloSpec::default_windows`].
    pub windows: Vec<BurnWindow>,
    /// Where the flight recorder writes its Perfetto dump; `None`
    /// counts burn edges without writing.
    pub dump_path: Option<std::path::PathBuf>,
}

impl Default for SloConfig {
    fn default() -> Self {
        Self {
            latency: Duration::from_millis(100),
            latency_target: 0.99,
            availability_target: 0.999,
            windows: Vec::new(),
            dump_path: None,
        }
    }
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            workers: 0,
            queue_cap: 256,
            default_deadline: Duration::from_secs(5),
            batch_max: 16,
            batch_words_max: None,
            secure: false,
            certificates: None,
            shard: 0,
            slo: None,
        }
    }
}

struct Queued {
    spec: JobSpec,
    footprint: usize,
    enqueued: Instant,
    deadline: Instant,
    tx: mpsc::Sender<Outcome>,
    /// Request id for this job's span.
    req: u64,
}

struct QueueState {
    queue: VecDeque<Queued>,
    /// Footprint words currently admitted, per cache level.
    inflight: Vec<usize>,
    draining: bool,
}

pub(crate) struct Shared {
    pool: SbPool,
    cfg: ServeConfig,
    batch_words_max: usize,
    /// Machine-wide capacity per cache level, cached at startup so
    /// snapshots and admission paths stop re-deriving it.
    level_caps: Vec<usize>,
    /// The pool's resolved shape, reported by [`SbPool::warm`] at
    /// startup.
    pool_info: PoolInfo,
    state: Mutex<QueueState>,
    cv: Condvar,
    metrics: Metrics,
    /// The hardware cache witness, when `perf_event_open` is available.
    /// Batch execution wraps a per-thread span around the pool entry,
    /// so the measured counts cover the serving thread's share of the
    /// work (the root task plus whatever it help-executed) — a lower
    /// bound on the batch's true traffic, attributed per kernel.
    witness: Option<mo_obs::witness::PerfWitness>,
    /// Sequence counter behind server-minted request ids.
    next_req: std::sync::atomic::AtomicU64,
    /// Burn-rate trackers, present when an SLO config was given.
    slo: Option<Mutex<SloRuntime>>,
    started: Instant,
}

/// Mutable state of the SLO burn-rate engine.
struct SloRuntime {
    cfg: SloConfig,
    latency: BurnTracker,
    availability: BurnTracker,
    /// Whether any objective was burning at the last evaluation; the
    /// false → true edge fires the flight recorder.
    burning: bool,
    /// Burn edges observed (dumps attempted).
    dumps: u64,
}

impl SloRuntime {
    fn new(cfg: SloConfig) -> Self {
        let windows = if cfg.windows.is_empty() {
            SloSpec::default_windows()
        } else {
            cfg.windows.clone()
        };
        let spec = |name: &str, target: f64| SloSpec {
            name: name.to_string(),
            target,
            windows: windows.clone(),
        };
        Self {
            latency: BurnTracker::new(spec("latency", cfg.latency_target)),
            availability: BurnTracker::new(spec("availability", cfg.availability_target)),
            cfg,
            burning: false,
            dumps: 0,
        }
    }
}

impl Shared {
    /// Point-in-time copy of every metric (shared by [`Server::metrics`]
    /// and the `/metrics` exposition thread).
    pub(crate) fn snapshot(&self) -> MetricsSnapshot {
        let ring_dropped = self
            .pool
            .sink()
            .map(|s| s.dropped_per_worker())
            .unwrap_or_default();
        // Evaluate SLOs before taking the state lock (the evaluator
        // only touches its own mutex and the metric atomics).
        let (slo, slo_dumps) = self.slo_eval();
        let st = self.state.lock().unwrap();
        MetricsSnapshot::collect(
            &self.metrics,
            &self.level_caps,
            &st.inflight,
            st.queue.len(),
            self.pool.stats(),
            ring_dropped,
            slo,
            slo_dumps,
            self.started.elapsed(),
        )
    }

    /// Mint a fleet-unique request id for a job that arrived without
    /// one: shard in the top 16 bits, a monotone sequence below.
    fn next_request_id(&self) -> u64 {
        ((self.cfg.shard as u64) << 48) | (self.next_req.fetch_add(1, Ordering::Relaxed) + 1)
    }

    /// Feed the burn trackers the current good/total counters, fire the
    /// flight recorder on a fresh burn edge, and return the evaluated
    /// objective states. `(empty, 0)` without an SLO config.
    fn slo_eval(&self) -> (Vec<SloObjectiveSnapshot>, u64) {
        let Some(slot) = self.slo.as_ref() else {
            return (Vec::new(), 0);
        };
        let now_ns = self.started.elapsed().as_nanos() as u64;
        // Good-for-latency = completions whose whole log₂ bucket sits
        // at or under the threshold; sheds (overload-typed ones) count
        // bad for both objectives, client errors for neither.
        let mut rt = slot.lock().unwrap();
        let threshold_us = rt.cfg.latency.as_micros().max(1) as u64;
        let (mut lat_good, mut completed, mut shed) = (0u64, 0u64, 0u64);
        for cells in &self.metrics.kernels {
            lat_good += cells.latency.snapshot().count_at_most(threshold_us);
            completed += cells.completed.load(Ordering::SeqCst);
            shed += cells.shed_queue_full.load(Ordering::Relaxed)
                + cells.shed_deadline.load(Ordering::SeqCst);
        }
        let total = completed + shed;
        rt.latency.observe(now_ns, lat_good.min(total), total);
        rt.availability.observe(now_ns, completed, total);
        let states = [rt.latency.state(now_ns), rt.availability.state(now_ns)];
        let burning = states.iter().any(|s| s.burning);
        if burning && !rt.burning {
            rt.dumps += 1;
            self.flight_record(&rt.cfg);
        }
        rt.burning = burning;
        let snaps = states
            .iter()
            .map(|s| SloObjectiveSnapshot {
                objective: s.name.clone(),
                target: if s.name == "latency" {
                    rt.latency.spec().target
                } else {
                    rt.availability.spec().target
                },
                burning: s.burning,
                windows: s
                    .windows
                    .iter()
                    .map(|w| SloWindowSnapshot {
                        short_secs: w.window.short_ns as f64 / 1e9,
                        long_secs: w.window.long_ns as f64 / 1e9,
                        factor: w.window.factor,
                        burn_short: w.burn_short,
                        burn_long: w.burn_long,
                        burning: w.burning(),
                    })
                    .collect(),
            })
            .collect();
        (snaps, rt.dumps)
    }

    /// Dump-on-burn flight recorder: drain the trace sink (request
    /// spans plus the scheduler events around them) into a validated
    /// Perfetto JSON artifact. Draining consumes the rings, so the dump
    /// captures the window since the last drain — exactly the flight
    /// these spans flew.
    fn flight_record(&self, cfg: &SloConfig) {
        let Some(path) = cfg.dump_path.as_ref() else {
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

    /// Smallest level that fits `footprint` per-instance *and* still has
    /// room for it machine-wide: the admission query.
    fn admissible_anchor(&self, st: &QueueState, footprint: usize) -> Option<usize> {
        let hier = self.pool.hierarchy();
        (0..hier.levels().len()).find(|&l| {
            hier.level_capacity(l).is_some_and(|cap| cap >= footprint)
                && st.inflight[l] + footprint <= hier.aggregate_capacity(l).unwrap_or(0)
        })
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
    /// Start a server over an explicit hierarchy.
    pub fn start(hier: HwHierarchy, cfg: ServeConfig) -> Self {
        let nlevels = hier.levels().len();
        let level_caps: Vec<usize> = (0..nlevels)
            .map(|l| hier.aggregate_capacity(l).unwrap_or(0))
            .collect();
        let batch_words_max = cfg.batch_words_max.unwrap_or_else(|| hier.l1_capacity());
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
        let slo = cfg.slo.clone().map(|c| Mutex::new(SloRuntime::new(c)));
        let has_slo = slo.is_some();
        let shared = Arc::new(Shared {
            pool,
            cfg,
            batch_words_max,
            level_caps,
            pool_info,
            state: Mutex::new(QueueState {
                queue: VecDeque::new(),
                inflight: vec![0; nlevels],
                draining: false,
            }),
            cv: Condvar::new(),
            metrics: Metrics::new(nlevels),
            witness: mo_obs::witness::PerfWitness::try_new().ok(),
            next_req: std::sync::atomic::AtomicU64::new(0),
            slo,
            started: Instant::now(),
        });
        shared.metrics.witness_available.store(
            shared.witness.is_some() as u64,
            std::sync::atomic::Ordering::Relaxed,
        );
        let mut handles: Vec<thread::JoinHandle<()>> = (0..workers)
            .map(|_| {
                let sh = Arc::clone(&shared);
                thread::spawn(move || worker_loop(&sh))
            })
            .collect();
        if has_slo {
            // Online SLO evaluation: burn edges (and their dumps) must
            // fire even when nobody scrapes `/metrics`.
            let sh = Arc::clone(&shared);
            handles.push(thread::spawn(move || loop {
                if sh.state.lock().unwrap().draining {
                    return;
                }
                let _ = sh.slo_eval();
                thread::sleep(SLO_TICK);
            }));
        }
        Self {
            shared,
            workers: handles,
        }
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
        let footprint = footprint_words(spec.kernel, spec.n);
        let cells = sh.metrics.kernel(spec.kernel);
        // Span opens here; every return below closes it exactly once
        // (respond in `execute`, or one typed shed). Serve events come
        // from service threads, not pool residents (worker `None`), so
        // they land in the sink's external ring.
        let req = spec.trace_id.unwrap_or_else(|| sh.next_request_id());
        let sink = sh.pool.sink();
        obs_event!(sink, None, ServeArrive, req, spec.kernel.index(), spec.n);
        // The secure gate is checked first: certification is a static
        // property of the kernel, independent of load or size.
        if sh.cfg.secure {
            let cert = sh
                .cfg
                .certificates
                .as_ref()
                .and_then(|set| set.get(spec.kernel.name()));
            let gap = match cert {
                None => Some(crate::job::CertifyGap::NoCertificate),
                Some(c) if c.classification != mo_core::Classification::Oblivious => {
                    Some(crate::job::CertifyGap::DataDependent)
                }
                Some(_) => None,
            };
            if let Some(gap) = gap {
                cells.shed_not_certified.fetch_add(1, Ordering::Relaxed);
                obs_event!(sink, None, ServeShed, req, SHED_NOT_CERTIFIED, 0);
                return Err(Rejected::NotCertified { gap });
            }
        }
        let hier = sh.pool.hierarchy();
        let Some(static_anchor) = hier.anchor_level(footprint) else {
            cells.shed_too_large.fetch_add(1, Ordering::Relaxed);
            obs_event!(sink, None, ServeShed, req, SHED_TOO_LARGE, 0);
            let largest = hier.levels().iter().map(|l| l.capacity).max().unwrap_or(0);
            return Err(Rejected::TooLarge { footprint, largest });
        };
        let mut st = sh.state.lock().unwrap();
        if st.draining {
            obs_event!(sink, None, ServeShed, req, SHED_SHUTTING_DOWN, 0);
            return Err(Rejected::ShuttingDown);
        }
        if st.queue.len() >= sh.cfg.queue_cap {
            cells.shed_queue_full.fetch_add(1, Ordering::Relaxed);
            obs_event!(sink, None, ServeShed, req, SHED_QUEUE_FULL, 0);
            return Err(Rejected::QueueFull {
                depth: st.queue.len(),
            });
        }
        obs_event!(sink, None, ServeAdmit, req, footprint, static_anchor);
        let (tx, rx) = mpsc::channel();
        let now = Instant::now();
        let budget = spec.deadline.unwrap_or(sh.cfg.default_deadline);
        let deadline = now + budget;
        st.queue.push_back(Queued {
            spec,
            footprint,
            enqueued: now,
            deadline,
            tx,
            req,
        });
        let depth = st.queue.len();
        obs_event!(sink, None, ServeEnqueue, req, depth, budget.as_nanos());
        // SeqCst: part of the submitted >= completed + shed_deadline
        // conservation protocol (see `MetricsSnapshot::collect`).
        cells.submitted.fetch_add(1, Ordering::SeqCst);
        sh.metrics.note_queue_depth(depth);
        drop(st);
        sh.cv.notify_one();
        Ok(Ticket { rx })
    }

    /// Stop accepting work; queued jobs still run (or expire).
    pub fn shutdown(&self) {
        self.shared.state.lock().unwrap().draining = true;
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

/// How long an idle worker sleeps between queue scans; bounds how stale
/// a deadline check can get when no submissions or completions arrive.
const IDLE_TICK: Duration = Duration::from_millis(5);

/// Cadence of the background SLO evaluator; bounds both burn-detection
/// latency and how long `drain` waits for the evaluator to exit.
const SLO_TICK: Duration = Duration::from_millis(20);

fn worker_loop(sh: &Shared) {
    let mut st = sh.state.lock().unwrap();
    loop {
        shed_expired(sh, &mut st);
        if let Some((idx, anchor)) = first_admissible(sh, &st) {
            let batch = gather_batch(sh, &mut st, idx, anchor);
            let total: usize = batch.jobs.iter().map(|q| q.footprint).sum();
            let sink = sh.pool.sink();
            if sink.is_some() {
                for q in &batch.jobs {
                    let waited = q.enqueued.elapsed().as_nanos();
                    obs_event!(sink, None, ServeDequeue, q.req, waited, batch.anchor);
                    obs_event!(sink, None, ServeBatchForm, q.req, batch.jobs.len(), total);
                }
            }
            st.inflight[batch.anchor] += total;
            sh.metrics
                .note_peak_inflight(batch.anchor, st.inflight[batch.anchor]);
            let lvl = &sh.metrics.levels[batch.anchor];
            lvl.admitted_jobs
                .fetch_add(batch.jobs.len() as u64, Ordering::Relaxed);
            lvl.admitted_words
                .fetch_add(total as u64, Ordering::Relaxed);
            drop(st);
            execute(sh, batch);
            st = sh.state.lock().unwrap();
            // Admitted footprint was released inside `execute`; wake
            // anyone waiting on that capacity.
            sh.cv.notify_all();
            continue;
        }
        if st.draining && st.queue.is_empty() {
            return;
        }
        let (guard, _) = sh.cv.wait_timeout(st, IDLE_TICK).unwrap();
        st = guard;
    }
}

fn shed_expired(sh: &Shared, st: &mut QueueState) {
    let now = Instant::now();
    let sink = sh.pool.sink();
    let mut i = 0;
    while i < st.queue.len() {
        if st.queue[i].deadline <= now {
            let q = st.queue.remove(i).expect("index in bounds");
            let waited = now.saturating_duration_since(q.enqueued);
            sh.metrics
                .kernel(q.spec.kernel)
                .shed_deadline
                .fetch_add(1, Ordering::SeqCst); // conservation protocol
            let waited_ns = waited.as_nanos();
            obs_event!(sink, None, ServeShed, q.req, SHED_DEADLINE, waited_ns);
            let _ =
                q.tx.send(Outcome::Rejected(Rejected::DeadlineExpired { waited }));
        } else {
            i += 1;
        }
    }
}

/// First queued job (FIFO scan, so small jobs overtake a blocked large
/// head rather than convoying behind it) that admission would accept
/// right now, with its anchor level.
fn first_admissible(sh: &Shared, st: &QueueState) -> Option<(usize, usize)> {
    st.queue
        .iter()
        .enumerate()
        .find_map(|(i, q)| sh.admissible_anchor(st, q.footprint).map(|a| (i, a)))
}

struct Batch {
    jobs: Vec<Queued>,
    anchor: usize,
}

/// Pull the job at `idx` plus, when it is small and batching is on, up
/// to `batch_max - 1` queued jobs with the same `(kernel, n)` — equal
/// footprints — as long as the growing total still finds an admissible
/// anchor.
fn gather_batch(sh: &Shared, st: &mut QueueState, idx: usize, anchor: usize) -> Batch {
    let head = st.queue.remove(idx).expect("index in bounds");
    let (kernel, n, fp) = (head.spec.kernel, head.spec.n, head.footprint);
    let mut batch = Batch {
        jobs: vec![head],
        anchor,
    };
    if sh.cfg.batch_max <= 1 || fp > sh.batch_words_max {
        return batch;
    }
    let mut k = 0;
    while batch.jobs.len() < sh.cfg.batch_max && k < st.queue.len() {
        if st.queue[k].spec.kernel == kernel && st.queue[k].spec.n == n {
            let total = fp * (batch.jobs.len() + 1);
            match sh.admissible_anchor(st, total) {
                Some(a) => {
                    batch.anchor = a;
                    batch
                        .jobs
                        .push(st.queue.remove(k).expect("index in bounds"));
                    continue;
                }
                None => break,
            }
        }
        k += 1;
    }
    batch
}

fn execute(sh: &Shared, batch: Batch) {
    let Batch { jobs, anchor } = batch;
    let kernel = jobs[0].spec.kernel;
    let n = jobs[0].spec.n;
    let seeds: Vec<u64> = jobs.iter().map(|q| q.spec.seed).collect();
    let sink = sh.pool.sink();
    if sink.is_some() {
        for q in &jobs {
            obs_event!(sink, None, ServeExecute, q.req, jobs.len(), anchor);
        }
    }
    let t0 = Instant::now();
    let span = sh.witness.as_ref().and_then(|w| w.span());
    let sums = sh.pool.enter(|ctx| run_batch_in(ctx, kernel, n, &seeds));
    if let (Some(w), Some(span)) = (sh.witness.as_ref(), span.as_ref()) {
        sh.metrics.add_witness(kernel, w.span_delta(span));
        // Pair the measured transfers with the analytic expectation for
        // the same batch, per compared level, behind the
        // `moserve_witness_divergence` gauges.
        let hier = sh.pool.hierarchy();
        let llc = hier.levels().len().saturating_sub(1);
        let words = footprint_words(kernel, n);
        let expected = [hier.l1_capacity(), hier.level_capacity(llc).unwrap_or(0)].map(|cap| {
            (analytic_transfers(kernel, n, words, cap, BLOCK_WORDS, 1) * jobs.len() as f64) as u64
        });
        sh.metrics.add_expected_transfers(kernel, expected);
    }
    let service = t0.elapsed();
    let batch_size = jobs.len();
    let cells = sh.metrics.kernel(kernel);
    if batch_size > 1 {
        cells.batches.fetch_add(1, Ordering::Relaxed);
        cells
            .batched_jobs
            .fetch_add(batch_size as u64, Ordering::Relaxed);
    }
    let total: usize = jobs.iter().map(|q| q.footprint).sum();
    let service_ns = service.as_nanos();
    for (q, checksum) in jobs.into_iter().zip(sums) {
        let queued = t0.saturating_duration_since(q.enqueued);
        cells.completed.fetch_add(1, Ordering::SeqCst); // conservation protocol
        cells.latency.record((queued + service).as_micros() as u64);
        // Respond closes the span; emitted before the ticket resolves
        // so a drain racing the waiter still sees a closed span.
        obs_event!(sink, None, ServeRespond, q.req, service_ns, batch_size);
        let _ = q.tx.send(Outcome::Done(Done {
            checksum,
            queued,
            service,
            anchor_level: anchor,
            batch_size,
        }));
    }
    // Release the admitted footprint.
    let mut st = sh.state.lock().unwrap();
    st.inflight[anchor] -= total;
}
