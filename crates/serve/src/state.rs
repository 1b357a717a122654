//! The serving state machine behind [`crate::Server`]: the bounded
//! queue, SB admission, CGC⇒SB batching, deadline shedding and SLO
//! burn-rate evaluation, as one value that reads no clock and starts no
//! thread. Every method that depends on time takes `now`: the service
//! threads pass `Instant::now()`, tests pass `t0 + Δ`.

use std::collections::VecDeque;
use std::sync::atomic::Ordering;
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use mo_algorithms::real::registry::footprint_words;
use mo_core::obs_event;
use mo_core::rt::{HwHierarchy, RtStats};
use mo_core::Classification;
use mo_obs::slo::{BurnTracker, SloSpec, SloState};
use mo_obs::span::{
    SHED_DEADLINE, SHED_NOT_CERTIFIED, SHED_QUEUE_FULL, SHED_SHUTTING_DOWN, SHED_TOO_LARGE,
};
use mo_obs::TraceSink;

use crate::job::{CertifyGap, JobSpec, Outcome, Rejected, Ticket};
use crate::metrics::{Metrics, MetricsSnapshot};
use crate::ServeConfig;

/// Latency objective: a request is good when it completes within this.
const SLO_LATENCY: Duration = Duration::from_millis(100);
/// Required good fraction of the latency objective.
const SLO_LATENCY_TARGET: f64 = 0.99;
/// Required good fraction of the availability objective.
const SLO_AVAILABILITY_TARGET: f64 = 0.999;
/// Least time between two burn-rate evaluations. It bounds each
/// tracker's history to one sample per tick however often the server
/// is scraped, and adds no wake-up of its own.
const SLO_TICK: Duration = Duration::from_millis(20);

type Sink<'a> = Option<&'a Arc<TraceSink>>;

pub(crate) struct Queued {
    pub(crate) spec: JobSpec,
    pub(crate) footprint: usize,
    pub(crate) enqueued: Instant,
    deadline: Instant,
    pub(crate) tx: mpsc::Sender<Outcome>,
    /// Request id for this job's span.
    pub(crate) req: u64,
}

/// Jobs admitted together against one cache level.
pub(crate) struct Batch {
    pub(crate) jobs: Vec<Queued>,
    pub(crate) anchor: usize,
    /// The admitted footprint, which [`Core::release`] returns.
    pub(crate) words: usize,
}

/// What a service thread does next.
pub(crate) enum Step {
    /// Execute this admitted batch, then [`Core::release`] its words.
    Run(Batch),
    /// An objective started burning: write the flight-recorder dump
    /// (outside the lock), then ask again.
    Dump,
    /// Nothing admissible: sleep until a notification or, when
    /// something is queued, its earliest deadline.
    Wait(Option<Instant>),
    /// Draining and the queue is empty.
    Exit,
}

/// The server's mutable state. See the module docs.
pub(crate) struct Core {
    hier: HwHierarchy,
    cfg: ServeConfig,
    queue: VecDeque<Queued>,
    /// Footprint words currently admitted, per cache level.
    inflight: Vec<usize>,
    draining: bool,
    /// Time zero of the burn trackers and of `uptime`.
    started: Instant,
    /// The latency and availability burn trackers, in that order.
    trackers: [BurnTracker; 2],
    /// The trackers' states at the last evaluation.
    slo: Vec<SloState>,
    /// Not-burning → burning edges seen (dumps attempted).
    slo_dumps: u64,
    /// Earliest `now` at which the trackers are fed again.
    slo_due: Instant,
}

impl Core {
    pub(crate) fn new(hier: HwHierarchy, cfg: &ServeConfig, now: Instant) -> Self {
        let nlevels = hier.levels().len();
        let objective = |name: &str, target| {
            BurnTracker::new(SloSpec {
                name: name.to_string(),
                target,
                windows: SloSpec::default_windows(),
            })
        };
        Self {
            cfg: cfg.clone(),
            hier,
            queue: VecDeque::new(),
            inflight: vec![0; nlevels],
            draining: false,
            started: now,
            trackers: [
                objective("latency", SLO_LATENCY_TARGET),
                objective("availability", SLO_AVAILABILITY_TARGET),
            ],
            slo: Vec::new(),
            slo_dumps: 0,
            slo_due: now,
        }
    }

    /// Queue a job, or refuse it with a typed reason: secure mode lacks
    /// its certificate, no cache level could ever hold it, the server
    /// is draining, or the queue is full.
    pub(crate) fn submit(
        &mut self,
        now: Instant,
        spec: JobSpec,
        req: u64,
        m: &Metrics,
        sink: Sink<'_>,
    ) -> Result<Ticket, Rejected> {
        let cells = m.kernel(spec.kernel);
        // The secure gate is checked first: certification is a static
        // property of the kernel, independent of load or size.
        if self.cfg.secure {
            let cert = self
                .cfg
                .certificates
                .as_ref()
                .and_then(|set| set.get(spec.kernel.name()));
            let gap = match cert {
                None => Some(CertifyGap::NoCertificate),
                Some(c) if c.classification != Classification::Oblivious => {
                    Some(CertifyGap::DataDependent)
                }
                Some(_) => None,
            };
            if let Some(gap) = gap {
                cells.shed_not_certified.fetch_add(1, Ordering::Relaxed);
                obs_event!(sink, None, ServeShed, req, SHED_NOT_CERTIFIED, 0);
                return Err(Rejected::NotCertified { gap });
            }
        }
        let footprint = footprint_words(spec.kernel, spec.n);
        let Some(static_anchor) = self.hier.anchor_level(footprint) else {
            cells.shed_too_large.fetch_add(1, Ordering::Relaxed);
            obs_event!(sink, None, ServeShed, req, SHED_TOO_LARGE, 0);
            let levels = self.hier.levels().iter();
            let largest = levels.map(|l| l.capacity).max().unwrap_or(0);
            return Err(Rejected::TooLarge { footprint, largest });
        };
        if self.draining {
            obs_event!(sink, None, ServeShed, req, SHED_SHUTTING_DOWN, 0);
            return Err(Rejected::ShuttingDown);
        }
        if self.queue.len() >= self.cfg.queue_cap {
            cells.shed_queue_full.fetch_add(1, Ordering::Relaxed);
            obs_event!(sink, None, ServeShed, req, SHED_QUEUE_FULL, 0);
            return Err(Rejected::QueueFull {
                depth: self.queue.len(),
            });
        }
        obs_event!(sink, None, ServeAdmit, req, footprint, static_anchor);
        let (tx, rx) = mpsc::channel();
        let budget = spec.deadline.unwrap_or(self.cfg.default_deadline);
        self.queue.push_back(Queued {
            spec,
            footprint,
            enqueued: now,
            deadline: now + budget,
            tx,
            req,
        });
        let depth = self.queue.len();
        obs_event!(sink, None, ServeEnqueue, req, depth, budget.as_nanos());
        // SeqCst: part of the submitted >= completed + shed_deadline
        // conservation protocol (see `MetricsSnapshot::collect`).
        cells.submitted.fetch_add(1, Ordering::SeqCst);
        m.note_queue_depth(depth);
        Ok(Ticket { rx })
    }

    /// Shed what has expired by `now`, evaluate the SLOs when due, and
    /// admit the next batch if any fits.
    pub(crate) fn next(&mut self, now: Instant, m: &Metrics, sink: Sink<'_>) -> Step {
        self.shed_expired(now, m, sink);
        if self.evaluate(now, m) {
            return Step::Dump;
        }
        if let Some((idx, anchor)) = self.first_admissible() {
            let batch = self.gather_batch(idx, anchor);
            let total = batch.words;
            if sink.is_some() {
                for q in &batch.jobs {
                    let waited = now.saturating_duration_since(q.enqueued).as_nanos();
                    obs_event!(sink, None, ServeDequeue, q.req, waited, batch.anchor);
                    obs_event!(sink, None, ServeBatchForm, q.req, batch.jobs.len(), total);
                }
            }
            self.inflight[batch.anchor] += total;
            m.note_peak_inflight(batch.anchor, self.inflight[batch.anchor]);
            let lvl = &m.levels[batch.anchor];
            lvl.admitted_jobs
                .fetch_add(batch.jobs.len() as u64, Ordering::Relaxed);
            lvl.admitted_words
                .fetch_add(total as u64, Ordering::Relaxed);
            return Step::Run(batch);
        }
        if self.draining && self.queue.is_empty() {
            return Step::Exit;
        }
        Step::Wait(self.queue.iter().map(|q| q.deadline).min())
    }

    /// Return a finished batch's admitted footprint to its level.
    pub(crate) fn release(&mut self, anchor: usize, words: usize) {
        self.inflight[anchor] -= words;
    }

    /// Stop accepting work; queued jobs still run (or expire).
    pub(crate) fn shutdown(&mut self) {
        self.draining = true;
    }

    /// Every metric as of `now`, after an SLO evaluation if one is due;
    /// `true` beside it on a fresh burn edge, whose dump the caller
    /// writes once the lock is released.
    pub(crate) fn snapshot(
        &mut self,
        now: Instant,
        m: &Metrics,
        rt: RtStats,
        sink: Sink<'_>,
    ) -> (MetricsSnapshot, bool) {
        let burned = self.evaluate(now, m);
        let snap = MetricsSnapshot::collect(
            m,
            &(0..self.inflight.len())
                .map(|l| self.hier.aggregate_capacity(l).unwrap_or(0))
                .collect::<Vec<_>>(),
            &self.inflight,
            self.queue.len(),
            rt,
            sink.map(|s| s.dropped_per_worker()).unwrap_or_default(),
            self.slo.clone(),
            self.slo_dumps,
            now.saturating_duration_since(self.started),
        );
        (snap, burned)
    }

    /// Feed the burn trackers the current good/total counters, at most
    /// once per [`SLO_TICK`]. `true` on a not-burning → burning edge.
    fn evaluate(&mut self, now: Instant, m: &Metrics) -> bool {
        if now < self.slo_due {
            return false;
        }
        self.slo_due = now + SLO_TICK;
        let now_ns = now.saturating_duration_since(self.started).as_nanos() as u64;
        // Good-for-latency = completions whose whole log₂ bucket sits
        // at or under the threshold; sheds (overload-typed ones) count
        // bad for both objectives, client errors for neither.
        let threshold_us = SLO_LATENCY.as_micros() as u64;
        let (mut lat_good, mut completed, mut shed) = (0u64, 0u64, 0u64);
        for cells in &m.kernels {
            lat_good += cells.latency.snapshot().count_at_most(threshold_us);
            completed += cells.completed.load(Ordering::SeqCst);
            shed += cells.shed_queue_full.load(Ordering::Relaxed)
                + cells.shed_deadline.load(Ordering::SeqCst);
        }
        let total = completed + shed;
        let [latency, availability] = &mut self.trackers;
        latency.observe(now_ns, lat_good.min(total), total);
        availability.observe(now_ns, completed, total);
        let was_burning = self.slo.iter().any(|s| s.burning);
        self.slo = self.trackers.iter().map(|t| t.state(now_ns)).collect();
        let edge = !was_burning && self.slo.iter().any(|s| s.burning);
        self.slo_dumps += u64::from(edge);
        edge
    }

    fn shed_expired(&mut self, now: Instant, m: &Metrics, sink: Sink<'_>) {
        let mut i = 0;
        while i < self.queue.len() {
            if self.queue[i].deadline <= now {
                let q = self.queue.remove(i).expect("index in bounds");
                let waited = now.saturating_duration_since(q.enqueued);
                m.kernel(q.spec.kernel)
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

    /// Smallest level that fits `footprint` per-instance *and* still has
    /// room for it machine-wide: the admission query.
    fn admissible_anchor(&self, footprint: usize) -> Option<usize> {
        let hier = &self.hier;
        (0..hier.levels().len()).find(|&l| {
            hier.level_capacity(l).is_some_and(|cap| cap >= footprint)
                && self.inflight[l] + footprint <= hier.aggregate_capacity(l).unwrap_or(0)
        })
    }

    /// First queued job (FIFO scan, so small jobs overtake a blocked large
    /// head rather than convoying behind it) that admission would accept
    /// right now, with its anchor level.
    fn first_admissible(&self) -> Option<(usize, usize)> {
        self.queue
            .iter()
            .enumerate()
            .find_map(|(i, q)| self.admissible_anchor(q.footprint).map(|a| (i, a)))
    }

    /// Pull the job at `idx` plus, when it is small and batching is on, up
    /// to `batch_max - 1` queued jobs with the same `(kernel, n)` — equal
    /// footprints — as long as the growing total still finds an admissible
    /// anchor.
    fn gather_batch(&mut self, idx: usize, anchor: usize) -> Batch {
        let head = self.queue.remove(idx).expect("index in bounds");
        let (kernel, n, fp) = (head.spec.kernel, head.spec.n, head.footprint);
        let mut batch = Batch {
            jobs: vec![head],
            anchor,
            words: fp,
        };
        let words_max = self.cfg.batch_words_max.unwrap_or(self.hier.l1_capacity());
        if self.cfg.batch_max <= 1 || fp > words_max {
            return batch;
        }
        let mut k = 0;
        while batch.jobs.len() < self.cfg.batch_max && k < self.queue.len() {
            if self.queue[k].spec.kernel == kernel && self.queue[k].spec.n == n {
                let total = fp * (batch.jobs.len() + 1);
                match self.admissible_anchor(total) {
                    Some(a) => {
                        batch.anchor = a;
                        batch.words = total;
                        batch
                            .jobs
                            .push(self.queue.remove(k).expect("index in bounds"));
                        continue;
                    }
                    None => break,
                }
            }
            k += 1;
        }
        batch
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Kernel;
    use std::sync::mpsc::TryRecvError;

    const MS: Duration = Duration::from_millis(1);
    const SEC: Duration = Duration::from_secs(1);

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

    /// 4 cores with 2 KiW private caches under one 64 KiW shared cache.
    fn flat() -> HwHierarchy {
        HwHierarchy::flat(4, 2048, 1 << 16)
    }

    fn core_at(t0: Instant, cfg: ServeConfig) -> (Core, Metrics) {
        let hier = flat();
        let m = Metrics::new(hier.levels().len());
        (Core::new(hier, &cfg, t0), m)
    }

    fn job(kernel: Kernel, n: usize, seed: u64, deadline: Option<Duration>) -> JobSpec {
        JobSpec {
            deadline,
            ..JobSpec::new(kernel, n, seed)
        }
    }

    /// The fake executor: answer every job of `batch` with `Done`,
    /// count it completed, and hand the footprint back.
    fn complete(core: &mut Core, m: &Metrics, batch: Batch) {
        let (anchor, words, batch_size) = (batch.anchor, batch.words, batch.jobs.len());
        for q in batch.jobs {
            m.kernel(q.spec.kernel)
                .completed
                .fetch_add(1, Ordering::SeqCst);
            let done = crate::job::Done {
                checksum: q.spec.seed,
                queued: Duration::ZERO,
                service: Duration::ZERO,
                anchor_level: anchor,
                batch_size,
            };
            let _ = q.tx.send(Outcome::Done(done));
        }
        core.release(anchor, words);
    }

    /// An accepted job as the schedule sees it.
    struct Tracked {
        ticket: Ticket,
        deadline: Instant,
        outcome: Option<Outcome>,
    }

    /// The invariants that hold after every step of any schedule.
    fn check(core: &Core, m: &Metrics, running: &[Batch], tracked: &mut [Tracked], now: Instant) {
        for k in Kernel::ALL {
            let c = m.kernel(k);
            let queued = core.queue.iter().filter(|q| q.spec.kernel == k).count();
            let jobs = running.iter().flat_map(|b| &b.jobs);
            let in_flight = queued + jobs.filter(|q| q.spec.kernel == k).count();
            assert_eq!(
                c.submitted.load(Ordering::SeqCst),
                c.completed.load(Ordering::SeqCst)
                    + c.shed_deadline.load(Ordering::SeqCst)
                    + in_flight as u64,
                "{k}: submitted = completed + shed_deadline + in_flight"
            );
        }
        for (l, &words) in core.inflight.iter().enumerate() {
            assert!(words <= core.hier.aggregate_capacity(l).unwrap_or(0));
            let held = running.iter().filter(|b| b.anchor == l).map(|b| b.words);
            assert_eq!(words, held.sum::<usize>(), "L{l} admitted words");
        }
        assert!(core.queue.len() <= core.cfg.queue_cap);
        for t in tracked.iter_mut().filter(|t| t.outcome.is_none()) {
            match t.ticket.rx.try_recv() {
                Ok(outcome) => {
                    if let Outcome::Rejected(Rejected::DeadlineExpired { .. }) = outcome {
                        assert!(now >= t.deadline, "shed before its deadline");
                    }
                    t.outcome = Some(outcome);
                }
                Err(TryRecvError::Empty) => {}
                Err(TryRecvError::Disconnected) => panic!("a ticket lost its sender unresolved"),
            }
        }
    }

    /// `next(now)` and what must hold right after it.
    fn step(core: &mut Core, m: &Metrics, now: Instant) -> Step {
        let step = core.next(now, m, None);
        assert!(
            core.queue.iter().all(|q| q.deadline > now),
            "expired job left queued"
        );
        match &step {
            Step::Exit => assert!(core.draining && core.queue.is_empty()),
            Step::Wait(until) => {
                assert_eq!(*until, core.queue.iter().map(|q| q.deadline).min());
            }
            Step::Run(_) | Step::Dump => {}
        }
        step
    }

    /// One seeded schedule of submit / advance / next / complete /
    /// shutdown steps, run to a drained end. Returns how often each
    /// path ran: completed, deadline-shed, batched, queue-full,
    /// too-large, shutting-down.
    fn schedule(seed: u64) -> [u64; 6] {
        let mut rng = Rng(seed);
        let t0 = Instant::now();
        let cfg = ServeConfig {
            queue_cap: 1 + rng.below(12),
            default_deadline: 40 * MS,
            batch_max: 1 + rng.below(6),
            batch_words_max: Some(4096),
            ..ServeConfig::default()
        };
        let (mut core, m) = core_at(t0, cfg);
        let (mut now, mut running, mut tracked) = (t0, Vec::new(), Vec::new());
        let mut paths = [0u64; 6];
        let steps = 40 + rng.below(160);
        let shutdown_at = rng.below(2 * steps);
        for i in 0..steps {
            if i == shutdown_at {
                core.shutdown();
            }
            match rng.below(10) {
                0..=3 => {
                    let kernel = Kernel::ALL[rng.below(Kernel::ALL.len())];
                    // Per-instance L1, L2, and more than any level holds.
                    let words = [512, 2048, 8192, 1 << 14, 1 << 16, 1 << 18][rng.below(6)];
                    let n = kernel.size_within(words).max(1);
                    let deadline = match rng.below(3) {
                        0 => None,
                        1 => Some(Duration::ZERO),
                        _ => Some(rng.below(30) as u32 * MS),
                    };
                    let spec = job(kernel, n, rng.next(), deadline);
                    let budget = deadline.unwrap_or(40 * MS);
                    match core.submit(now, spec, i as u64, &m, None) {
                        Ok(ticket) => tracked.push(Tracked {
                            ticket,
                            deadline: now + budget,
                            outcome: None,
                        }),
                        Err(Rejected::TooLarge { footprint, largest }) => {
                            assert!(footprint > largest);
                            paths[4] += 1;
                        }
                        Err(Rejected::QueueFull { depth }) => {
                            assert_eq!(depth, core.cfg.queue_cap);
                            paths[3] += 1;
                        }
                        Err(Rejected::ShuttingDown) => {
                            assert!(core.draining);
                            paths[5] += 1;
                        }
                        Err(other) => panic!("unexpected rejection {other:?}"),
                    }
                }
                4 | 5 => now += rng.below(40) as u32 * MS,
                6..=8 => {
                    if let Step::Run(batch) = step(&mut core, &m, now) {
                        running.push(batch);
                    }
                }
                _ => {
                    if !running.is_empty() {
                        let batch = running.swap_remove(rng.below(running.len()));
                        complete(&mut core, &m, batch);
                    }
                }
            }
            check(&core, &m, &running, &mut tracked, now);
        }
        // Drain: shut down, finish what runs, and follow each wait to
        // its deadline until the core says exit.
        core.shutdown();
        for b in std::mem::take(&mut running) {
            complete(&mut core, &m, b);
        }
        let mut passes = 0;
        loop {
            passes += 1;
            assert!(passes < 10_000, "drain does not terminate");
            match step(&mut core, &m, now) {
                Step::Run(batch) => complete(&mut core, &m, batch),
                Step::Dump => {}
                Step::Wait(Some(t)) => now = t,
                Step::Wait(None) => panic!("a draining core waits forever"),
                Step::Exit => break,
            }
            check(&core, &m, &running, &mut tracked, now);
        }
        check(&core, &m, &running, &mut tracked, now);
        for (i, t) in tracked.iter().enumerate() {
            match t.outcome {
                Some(Outcome::Done(d)) => {
                    paths[0] += 1;
                    paths[2] += u64::from(d.batch_size > 1);
                }
                Some(Outcome::Rejected(_)) => paths[1] += 1,
                None => panic!("seed {seed}: ticket {i} never resolved"),
            }
            assert!(t.ticket.rx.try_recv().is_err(), "ticket {i} resolved twice");
        }
        assert!(core.inflight.iter().all(|&w| w == 0));
        paths
    }

    #[test]
    fn every_ticket_resolves_exactly_once_under_seeded_schedules() {
        let mut paths = [0u64; 6];
        for seed in 0..1_000 {
            for (total, n) in paths.iter_mut().zip(schedule(seed)) {
                *total += n;
            }
        }
        // Every path of the state machine ran somewhere in the sweep.
        assert!(paths.iter().all(|&n| n > 0), "{paths:?}");
    }

    #[test]
    fn queued_same_kernel_jobs_batch_at_exactly_batch_max() {
        let t0 = Instant::now();
        let cfg = ServeConfig {
            batch_max: 8,
            batch_words_max: Some(4096),
            ..ServeConfig::default()
        };
        let (mut core, m) = core_at(t0, cfg);
        // Small sorts (n = 1000 fits batch_words_max) pile up before
        // any pass of the service loop.
        assert!(footprint_words(Kernel::Sort, 1000) <= 4096);
        let tickets: Vec<_> = (0..32)
            .map(|i| core.submit(t0, job(Kernel::Sort, 1000, i, None), i, &m, None))
            .collect::<Result<_, _>>()
            .unwrap();
        for _ in 0..4 {
            let Step::Run(batch) = core.next(t0, &m, None) else {
                panic!("32 queued sorts must form four batches");
            };
            assert_eq!(batch.jobs.len(), 8);
            complete(&mut core, &m, batch);
        }
        assert!(matches!(core.next(t0, &m, None), Step::Wait(None)));
        let admitted: u64 = m
            .levels
            .iter()
            .map(|l| l.admitted_jobs.load(Ordering::Relaxed))
            .sum();
        assert_eq!(admitted, 32);
        for t in tickets {
            let Outcome::Done(d) = t.wait() else {
                panic!("sort shed")
            };
            assert_eq!(d.batch_size, 8);
        }
    }

    /// The burn edge fires at the first evaluation that sees all-bad
    /// traffic, once, and the page clears at the step the longest short
    /// window (30 s, factor 2) stops reaching back before it.
    #[test]
    fn burn_edge_and_depage_follow_the_default_windows() {
        let t0 = Instant::now();
        let (mut core, m) = core_at(t0, ServeConfig::default());
        assert!(matches!(core.next(t0, &m, None), Step::Wait(None)));
        assert_eq!(core.slo.len(), 2);
        assert!(core.slo.iter().all(|s| !s.burning));
        let tickets: Vec<_> = (0..10)
            .map(|i| {
                core.submit(
                    t0,
                    job(Kernel::Sort, 1000, i, Some(Duration::ZERO)),
                    i,
                    &m,
                    None,
                )
            })
            .collect::<Result<_, _>>()
            .unwrap();
        let edge = t0 + SEC;
        assert!(matches!(core.next(edge, &m, None), Step::Dump));
        assert_eq!(core.slo_dumps, 1);
        assert!(core.slo.iter().all(|s| s.burning));
        for t in tickets {
            let outcome = t.wait();
            assert!(matches!(
                outcome,
                Outcome::Rejected(Rejected::DeadlineExpired { .. })
            ));
        }
        for s in 2..=40u32 {
            let now = t0 + s * SEC;
            assert!(matches!(core.next(now, &m, None), Step::Wait(None)));
            // A window whose start is at or after the edge sample has
            // that sample as its baseline: no requests, burn 0.
            let pair1_short = core.slo[0].windows[1].burn_short;
            let before = now < edge + 30 * SEC;
            let all_bad = 1.0 / (1.0 - SLO_LATENCY_TARGET);
            assert_eq!(pair1_short, if before { all_bad } else { 0.0 }, "t = {s} s");
            assert_eq!(core.slo.iter().any(|o| o.burning), before, "t = {s} s");
        }
        assert_eq!(core.slo_dumps, 1, "one edge, one dump");
    }

    #[test]
    fn snapshots_feed_the_burn_trackers_at_most_once_per_tick() {
        let t0 = Instant::now();
        let (mut core, m) = core_at(t0, ServeConfig::default());
        let snap = |core: &mut Core, now| core.snapshot(now, &m, RtStats::default(), None);
        let now = t0 + 7 * SEC;
        for _ in 0..10_000 {
            snap(&mut core, now);
        }
        assert!(core.trackers.iter().all(|t| t.history_len() <= 2));
        // A 1 kHz scraper for one second: one sample per 20 ms tick.
        for ms in 1..=1_000u32 {
            snap(&mut core, now + ms * MS);
        }
        let ticks = 1_000 / SLO_TICK.as_millis() as usize;
        assert!(core.trackers.iter().all(|t| t.history_len() <= ticks + 2));
        assert_eq!(snap(&mut core, now + SEC).0.slo.len(), 2);
    }
}
