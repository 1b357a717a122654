//! The serving state machine behind [`crate::Server`]: the bounded
//! queue, SB admission, CGC⇒SB batching, deadline shedding, SLO
//! burn-rate evaluation and every counter those decisions produce, as
//! one value that reads no clock and starts no thread. Every method
//! that depends on time takes `now`: the service threads pass
//! `Instant::now()`, tests pass `t0 + Δ`.
//!
//! An accepted job is resolved by exactly one call, which also counts
//! it: [`Core::next`] sheds it past its deadline, or
//! [`Core::complete`] answers it done or failed with its batch. So
//! `submitted = completed + shed_deadline + failed + in flight` holds
//! after every call, and every snapshot copies it whole.

use std::collections::VecDeque;
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use mo_algorithms::real::registry::{analytic_transfers, footprint_words, BLOCK_WORDS};
use mo_core::obs_event;
use mo_core::rt::{HwHierarchy, RtStats};
use mo_core::Classification;
use mo_obs::slo::{BurnTracker, SloSpec, SloState};
use mo_obs::span::{
    SHED_DEADLINE, SHED_KERNEL_PANIC, SHED_NOT_CERTIFIED, SHED_QUEUE_FULL, SHED_SHUTTING_DOWN,
    SHED_TOO_LARGE,
};
use mo_obs::witness::NCOUNTERS;
use mo_obs::TraceSink;

use crate::job::{CertifyGap, Done, JobSpec, Kernel, Outcome, Rejected, Ticket};
use crate::metrics::{KernelSnapshot, LevelSnapshot, MetricsSnapshot};
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
    footprint: usize,
    enqueued: Instant,
    deadline: Instant,
    tx: mpsc::Sender<Outcome>,
    /// Request id for this job's span.
    pub(crate) req: u64,
}

/// Jobs admitted together against one cache level.
pub(crate) struct Batch {
    pub(crate) jobs: Vec<Queued>,
    pub(crate) anchor: usize,
    /// The admitted footprint, which [`Core::complete`] returns.
    words: usize,
}

/// How a batch ended on its service thread.
pub(crate) enum Ran {
    /// The kernel returned.
    Done {
        /// One checksum per job, in batch order.
        sums: Vec<u64>,
        /// Hardware witness deltas over the batch, when a witness is
        /// open.
        witness: Option<[u64; NCOUNTERS]>,
    },
    /// The kernel panicked.
    Panicked,
}

/// A ticket's sender and its outcome, sent once the lock is released.
pub(crate) type Reply = (mpsc::Sender<Outcome>, Outcome);

/// What a service thread does next.
pub(crate) enum Step {
    /// Execute this admitted batch, then hand it to [`Core::complete`].
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
    draining: bool,
    /// The live per-kernel rows, indexed by [`Kernel::index`].
    kernels: Vec<KernelSnapshot>,
    /// The live per-level rows; a row's `inflight_words` is the
    /// footprint admitted against that level right now.
    levels: Vec<LevelSnapshot>,
    /// High-water mark of the queue depth.
    queue_peak: usize,
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
        let objective = |name: &str, target| {
            BurnTracker::new(SloSpec {
                name: name.to_string(),
                target,
                windows: SloSpec::default_windows(),
            })
        };
        Self {
            cfg: cfg.clone(),
            queue: VecDeque::new(),
            draining: false,
            kernels: Kernel::ALL.map(KernelSnapshot::new).to_vec(),
            levels: (0..hier.levels().len())
                .map(|l| LevelSnapshot::new(l, hier.aggregate_capacity(l).unwrap_or(0)))
                .collect(),
            queue_peak: 0,
            hier,
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
        sink: Sink<'_>,
    ) -> Result<Ticket, Rejected> {
        let row = spec.kernel.index();
        // The secure gate is checked first: certification is a static
        // property of the kernel, independent of load or size.
        if let Some(set) = &self.cfg.certificates {
            let gap = match set.get(spec.kernel.name()) {
                None => Some(CertifyGap::NoCertificate),
                Some(c) if c.classification != Classification::Oblivious => {
                    Some(CertifyGap::DataDependent)
                }
                Some(_) => None,
            };
            if let Some(gap) = gap {
                self.kernels[row].shed_not_certified += 1;
                obs_event!(sink, None, ServeShed, req, SHED_NOT_CERTIFIED, 0);
                return Err(Rejected::NotCertified { gap });
            }
        }
        let footprint = footprint_words(spec.kernel, spec.n);
        let Some(static_anchor) = self.hier.anchor_level(footprint) else {
            self.kernels[row].shed_too_large += 1;
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
            self.kernels[row].shed_queue_full += 1;
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
        self.kernels[row].submitted += 1;
        self.queue_peak = self.queue_peak.max(depth);
        Ok(Ticket { rx })
    }

    /// Shed what has expired by `now`, evaluate the SLOs when due, and
    /// admit the next batch if any fits.
    pub(crate) fn next(&mut self, now: Instant, sink: Sink<'_>) -> Step {
        self.shed_expired(now, sink);
        if self.evaluate(now) {
            return Step::Dump;
        }
        if let Some((idx, anchor)) = self.first_admissible() {
            let batch = self.gather_batch(idx, anchor);
            let (jobs, words) = (batch.jobs.len(), batch.words);
            if sink.is_some() {
                for q in &batch.jobs {
                    let waited = now.saturating_duration_since(q.enqueued).as_nanos();
                    obs_event!(sink, None, ServeDequeue, q.req, waited, batch.anchor);
                    obs_event!(sink, None, ServeBatchForm, q.req, jobs, words);
                }
            }
            let level = &mut self.levels[batch.anchor];
            level.inflight_words += words;
            level.peak_inflight_words = level.peak_inflight_words.max(level.inflight_words);
            level.admitted_jobs += jobs as u64;
            level.admitted_words += words as u64;
            return Step::Run(batch);
        }
        if self.draining && self.queue.is_empty() {
            return Step::Exit;
        }
        Step::Wait(self.queue.iter().map(|q| q.deadline).min())
    }

    /// Resolve a batch [`next`](Self::next) handed out, which ran from
    /// `started` to `finished`: count its jobs completed (with their
    /// latency, the batch and the witness deltas) or failed, close
    /// their spans, and return its footprint to its level. The outcomes
    /// come back to be sent once the lock is released, so a ticket
    /// resolves only after its job is counted, and no wake-up happens
    /// under the lock.
    pub(crate) fn complete(
        &mut self,
        batch: Batch,
        started: Instant,
        finished: Instant,
        ran: Ran,
        sink: Sink<'_>,
    ) -> Vec<Reply> {
        let Batch {
            jobs,
            anchor,
            words,
        } = batch;
        self.levels[anchor].inflight_words -= words;
        let (kernel, n, size) = (jobs[0].spec.kernel, jobs[0].spec.n, jobs.len());
        let service = finished.saturating_duration_since(started);
        let service_ns = service.as_nanos();
        let Ran::Done { sums, witness } = ran else {
            self.kernels[kernel.index()].failed += size as u64;
            let failed = jobs.into_iter().map(|q| {
                obs_event!(sink, None, ServeShed, q.req, SHED_KERNEL_PANIC, service_ns);
                (q.tx, Outcome::Rejected(Rejected::KernelPanicked))
            });
            return failed.collect();
        };
        debug_assert_eq!(sums.len(), size, "one checksum per job");
        let row = &mut self.kernels[kernel.index()];
        if let Some(deltas) = witness {
            // Pair the measured transfers with the analytic expectation
            // for the same batch, per compared level, behind the
            // `moserve_witness_divergence` gauges.
            let hier = &self.hier;
            let llc = hier.levels().len() - 1;
            let caps = [hier.l1_capacity(), hier.level_capacity(llc).unwrap_or(0)];
            for (total, d) in row.witness.iter_mut().zip(deltas) {
                *total += d;
            }
            for (total, cap) in row.expected_transfers.iter_mut().zip(caps) {
                let each = analytic_transfers(kernel, n, jobs[0].footprint, cap, BLOCK_WORDS, 1);
                *total += (each * size as f64) as u64;
            }
        }
        if size > 1 {
            row.batches += 1;
            row.batched_jobs += size as u64;
        }
        let done = jobs.into_iter().zip(sums).map(|(q, checksum)| {
            let queued = started.saturating_duration_since(q.enqueued);
            row.completed += 1;
            row.latency.push((queued + service).as_micros() as u64);
            // Respond closes the span; emitted before the ticket
            // resolves so a drain racing the waiter still sees a
            // closed span.
            obs_event!(sink, None, ServeRespond, q.req, service_ns, size);
            let done = Done {
                checksum,
                queued,
                service,
                anchor_level: anchor,
                batch_size: size,
            };
            (q.tx, Outcome::Done(done))
        });
        done.collect()
    }

    /// Stop accepting work; queued jobs still run (or expire).
    pub(crate) fn shutdown(&mut self) {
        self.draining = true;
    }

    /// Every metric as of `now`, after an SLO evaluation if one is due;
    /// `true` beside it on a fresh burn edge, whose dump the caller
    /// writes once the lock is released. `witness_available` is left
    /// `false` for the caller, which owns the witness, to set.
    pub(crate) fn snapshot(
        &mut self,
        now: Instant,
        rt: RtStats,
        sink: Sink<'_>,
    ) -> (MetricsSnapshot, bool) {
        let burned = self.evaluate(now);
        let snap = MetricsSnapshot {
            kernels: self
                .kernels
                .iter()
                .cloned()
                .map(KernelSnapshot::with_quantiles)
                .collect(),
            levels: self.levels.clone(),
            queue_depth: self.queue.len(),
            queue_peak: self.queue_peak,
            rt,
            witness_available: false,
            ring_dropped: sink.map(|s| s.dropped_per_worker()).unwrap_or_default(),
            slo: self.slo.clone(),
            slo_dumps: self.slo_dumps,
            uptime: now.saturating_duration_since(self.started),
        };
        (snap, burned)
    }

    /// Feed the burn trackers the current good/total counters, at most
    /// once per [`SLO_TICK`]. `true` on a not-burning → burning edge.
    fn evaluate(&mut self, now: Instant) -> bool {
        if now < self.slo_due {
            return false;
        }
        self.slo_due = now + SLO_TICK;
        let now_ns = now.saturating_duration_since(self.started).as_nanos() as u64;
        // Good-for-latency = completions whose whole log₂ bucket sits
        // at or under the threshold; overload sheds and kernel failures
        // count bad for both objectives, client errors for neither.
        let threshold_us = SLO_LATENCY.as_micros() as u64;
        let (mut lat_good, mut completed, mut bad) = (0u64, 0u64, 0u64);
        for row in &self.kernels {
            lat_good += row.latency.count_at_most(threshold_us);
            completed += row.completed;
            bad += row.shed_queue_full + row.shed_deadline + row.failed;
        }
        let total = completed + bad;
        let [latency, availability] = &mut self.trackers;
        latency.observe(now_ns, lat_good.min(total), total);
        availability.observe(now_ns, completed, total);
        let was_burning = self.slo.iter().any(|s| s.burning);
        self.slo = self.trackers.iter().map(|t| t.state(now_ns)).collect();
        let edge = !was_burning && self.slo.iter().any(|s| s.burning);
        self.slo_dumps += u64::from(edge);
        edge
    }

    fn shed_expired(&mut self, now: Instant, sink: Sink<'_>) {
        let mut i = 0;
        while i < self.queue.len() {
            if self.queue[i].deadline <= now {
                let q = self.queue.remove(i).expect("index in bounds");
                let waited = now.saturating_duration_since(q.enqueued);
                self.kernels[q.spec.kernel.index()].shed_deadline += 1;
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
        self.levels.iter().position(|l| {
            self.hier
                .level_capacity(l.level)
                .is_some_and(|cap| cap >= footprint)
                && l.inflight_words + footprint <= l.capacity_words
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

    fn core_at(t0: Instant, cfg: ServeConfig) -> Core {
        Core::new(flat(), &cfg, t0)
    }

    fn job(kernel: Kernel, n: usize, seed: u64, deadline: Option<Duration>) -> JobSpec {
        JobSpec {
            deadline,
            ..JobSpec::new(kernel, n, seed)
        }
    }

    /// The fake executor: `batch` runs in no time at `now`, its kernel
    /// answering each job's seed as its checksum or panicking, and the
    /// core's outcomes are sent as the server shell sends them.
    fn finish(core: &mut Core, batch: Batch, now: Instant, panicked: bool) {
        let ran = if panicked {
            Ran::Panicked
        } else {
            let sums = batch.jobs.iter().map(|q| q.spec.seed).collect();
            Ran::Done {
                sums,
                witness: None,
            }
        };
        for (tx, outcome) in core.complete(batch, now, now, ran, None) {
            let _ = tx.send(outcome);
        }
    }

    /// An accepted job as the schedule sees it.
    struct Tracked {
        ticket: Ticket,
        deadline: Instant,
        outcome: Option<Outcome>,
    }

    /// The invariants that hold after every step of any schedule.
    fn check(core: &Core, running: &[Batch], tracked: &mut [Tracked], now: Instant) {
        for row in &core.kernels {
            let k = row.kernel;
            let queued = core.queue.iter().filter(|q| q.spec.kernel == k).count();
            let jobs = running.iter().flat_map(|b| &b.jobs);
            let in_flight = (queued + jobs.filter(|q| q.spec.kernel == k).count()) as u64;
            assert_eq!(
                row.submitted,
                row.completed + row.shed_deadline + row.failed + in_flight,
                "{k}: submitted = completed + shed_deadline + failed + in_flight"
            );
            assert_eq!(row.in_flight(), in_flight, "{k}");
            assert_eq!(row.latency.count, row.completed, "{k}");
        }
        for (l, level) in core.levels.iter().enumerate() {
            assert!(level.inflight_words <= level.capacity_words);
            assert!(level.inflight_words <= level.peak_inflight_words);
            let held = running.iter().filter(|b| b.anchor == l).map(|b| b.words);
            assert_eq!(
                level.inflight_words,
                held.sum::<usize>(),
                "L{l} admitted words"
            );
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
    fn step(core: &mut Core, now: Instant) -> Step {
        let step = core.next(now, None);
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
    /// kernel failure / shutdown steps, run to a drained end. Returns
    /// how often each path ran: completed, deadline-shed, batched,
    /// queue-full, too-large, shutting-down, failed.
    fn schedule(seed: u64) -> [u64; 7] {
        let mut rng = Rng(seed);
        let t0 = Instant::now();
        let cfg = ServeConfig {
            queue_cap: 1 + rng.below(12),
            default_deadline: 40 * MS,
            batch_max: 1 + rng.below(6),
            batch_words_max: Some(4096),
            ..ServeConfig::default()
        };
        let mut core = core_at(t0, cfg);
        let (mut now, mut running, mut tracked) = (t0, Vec::new(), Vec::new());
        let mut paths = [0u64; 7];
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
                    match core.submit(now, spec, i as u64, None) {
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
                    if let Step::Run(batch) = step(&mut core, now) {
                        running.push(batch);
                    }
                }
                // Complete a running batch; one in four has a kernel
                // that panics.
                _ => {
                    if !running.is_empty() {
                        let batch = running.swap_remove(rng.below(running.len()));
                        finish(&mut core, batch, now, rng.below(4) == 0);
                    }
                }
            }
            check(&core, &running, &mut tracked, now);
        }
        // Drain: shut down, finish what runs, and follow each wait to
        // its deadline until the core says exit.
        core.shutdown();
        for b in std::mem::take(&mut running) {
            finish(&mut core, b, now, false);
        }
        let mut passes = 0;
        loop {
            passes += 1;
            assert!(passes < 10_000, "drain does not terminate");
            match step(&mut core, now) {
                Step::Run(batch) => finish(&mut core, batch, now, false),
                Step::Dump => {}
                Step::Wait(Some(t)) => now = t,
                Step::Wait(None) => panic!("a draining core waits forever"),
                Step::Exit => break,
            }
            check(&core, &running, &mut tracked, now);
        }
        check(&core, &running, &mut tracked, now);
        for (i, t) in tracked.iter().enumerate() {
            match t.outcome {
                Some(Outcome::Done(d)) => {
                    paths[0] += 1;
                    paths[2] += u64::from(d.batch_size > 1);
                }
                Some(Outcome::Rejected(Rejected::KernelPanicked)) => paths[6] += 1,
                Some(Outcome::Rejected(_)) => paths[1] += 1,
                None => panic!("seed {seed}: ticket {i} never resolved"),
            }
            assert!(t.ticket.rx.try_recv().is_err(), "ticket {i} resolved twice");
        }
        // Each outcome the tickets saw is the one the counters hold.
        let total = |f: fn(&KernelSnapshot) -> u64| core.kernels.iter().map(f).sum::<u64>();
        assert_eq!(total(|k| k.completed), paths[0]);
        assert_eq!(total(|k| k.shed_deadline), paths[1]);
        assert_eq!(total(|k| k.failed), paths[6]);
        assert!(core.levels.iter().all(|l| l.inflight_words == 0));
        paths
    }

    #[test]
    fn every_ticket_resolves_exactly_once_under_seeded_schedules() {
        let mut paths = [0u64; 7];
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
        let mut core = core_at(t0, cfg);
        // Small sorts (n = 1000 fits batch_words_max) pile up before
        // any pass of the service loop.
        assert!(footprint_words(Kernel::Sort, 1000) <= 4096);
        let tickets: Vec<_> = (0..32)
            .map(|i| core.submit(t0, job(Kernel::Sort, 1000, i, None), i, None))
            .collect::<Result<_, _>>()
            .unwrap();
        for _ in 0..4 {
            let Step::Run(batch) = core.next(t0, None) else {
                panic!("32 queued sorts must form four batches");
            };
            assert_eq!(batch.jobs.len(), 8);
            finish(&mut core, batch, t0, false);
        }
        assert!(matches!(core.next(t0, None), Step::Wait(None)));
        let admitted: u64 = core.levels.iter().map(|l| l.admitted_jobs).sum();
        assert_eq!(admitted, 32);
        let sort = &core.kernels[Kernel::Sort.index()];
        assert_eq!((sort.batches, sort.batched_jobs), (4, 32));
        for t in tickets {
            let Outcome::Done(d) = t.wait() else {
                panic!("sort shed")
            };
            assert_eq!(d.batch_size, 8);
        }
    }

    /// A batch whose kernel panicked fails exactly its own tickets,
    /// closes their spans as `kernel_panic`, gives its footprint back
    /// and counts against availability; the batch beside it completes.
    #[test]
    fn a_panicked_batch_fails_exactly_its_own_tickets() {
        let t0 = Instant::now();
        let cfg = ServeConfig {
            batch_max: 4,
            batch_words_max: Some(4096),
            ..ServeConfig::default()
        };
        let mut core = core_at(t0, cfg);
        let sink = Arc::new(TraceSink::new(4));
        let submit = |core: &mut Core, kernel, n, req| {
            let spec = job(kernel, n, req, None);
            core.submit(t0, spec, req, Some(&sink)).expect("queued")
        };
        let sorts: Vec<_> = (0..4)
            .map(|req| submit(&mut core, Kernel::Sort, 1000, req))
            .collect();
        let scan = submit(&mut core, Kernel::Scan, 64, 9);
        let (Step::Run(doomed), Step::Run(fine)) = (core.next(t0, None), core.next(t0, None))
        else {
            panic!("two batches are admissible");
        };
        assert_eq!((doomed.jobs.len(), fine.jobs.len()), (4, 1));
        let sums = vec![7];
        let ran = Ran::Done {
            sums,
            witness: None,
        };
        let mut replies = core.complete(doomed, t0, t0 + MS, Ran::Panicked, Some(&sink));
        replies.extend(core.complete(fine, t0, t0 + MS, ran, Some(&sink)));
        for (tx, outcome) in replies {
            tx.send(outcome).expect("ticket held");
        }

        for t in sorts {
            let outcome = t.wait();
            assert!(matches!(
                outcome,
                Outcome::Rejected(Rejected::KernelPanicked)
            ));
        }
        assert!(matches!(scan.wait(), Outcome::Done(d) if d.checksum == 7));
        let (snap, burned) = core.snapshot(t0 + SEC, RtStats::default(), None);
        let sort = &snap.kernels[Kernel::Sort.index()];
        assert_eq!((sort.submitted, sort.completed, sort.failed), (4, 0, 4));
        assert_eq!(
            (sort.in_flight(), sort.latency.count, sort.batches),
            (0, 0, 0)
        );
        assert_eq!(snap.kernels[Kernel::Scan.index()].completed, 1);
        assert!(snap.levels.iter().all(|l| l.inflight_words == 0));
        // Four bad requests of five: availability burns.
        assert!(burned && snap.slo[1].burning, "{:?}", snap.slo[1]);

        let set = mo_obs::span::assemble(&sink.drain());
        for s in &set.spans {
            assert_eq!(s.closes, 1, "request {}", s.req);
            let panicked = s.shed.map(|(reason, _)| reason) == Some(SHED_KERNEL_PANIC);
            assert_eq!(panicked, s.req < 4, "request {}", s.req);
        }
        assert_eq!(set.spans.len(), 5);
    }

    /// The burn edge fires at the first evaluation that sees all-bad
    /// traffic, once, and the page clears at the step the longest short
    /// window (30 s, factor 2) stops reaching back before it.
    #[test]
    fn burn_edge_and_depage_follow_the_default_windows() {
        let t0 = Instant::now();
        let mut core = core_at(t0, ServeConfig::default());
        assert!(matches!(core.next(t0, None), Step::Wait(None)));
        assert_eq!(core.slo.len(), 2);
        assert!(core.slo.iter().all(|s| !s.burning));
        let tickets: Vec<_> = (0..10)
            .map(|i| {
                core.submit(
                    t0,
                    job(Kernel::Sort, 1000, i, Some(Duration::ZERO)),
                    i,
                    None,
                )
            })
            .collect::<Result<_, _>>()
            .unwrap();
        let edge = t0 + SEC;
        assert!(matches!(core.next(edge, None), Step::Dump));
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
            assert!(matches!(core.next(now, None), Step::Wait(None)));
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
        let mut core = core_at(t0, ServeConfig::default());
        let snap = |core: &mut Core, now| core.snapshot(now, RtStats::default(), None);
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
