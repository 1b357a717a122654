//! `serve_mixed` and `serve_burst_small`: the kernel service as its
//! users see it, driven through `Server::{start, submit, metrics,
//! drain}` and `Ticket::wait` by two closed-loop callers.
//!
//! * `serve_mixed`: each caller submits one job and waits for it.
//!   Queue depth stays ≤ 1 per caller, so batches have one job:
//!   admission, dispatch, `SbPool::enter` and the wake-up are what the
//!   median sees, and the tail is the SPMS sort of 262144 keys.
//! * `serve_burst_small`: each caller submits 32 same-class L1-sized
//!   jobs, then waits for all of them: deep queue, CGC⇒SB batches of
//!   16, queue wait dominating latency.

use std::sync::Barrier;
use std::time::{Duration, Instant};

use mo_algorithms::real::registry::{footprint_words, run_kernel};
use mo_core::rt::{HwHierarchy, SbPool};
use mo_serve::{JobSpec, Outcome, ServeConfig, Server};

use crate::gen::{kernel_seeds, op_list, parse_classes, Class, Op, SplitMix64, KSEEDS};
use crate::host::h2;
use crate::report::Metrics;
use crate::run::{median_rate, traced_rounds, RoundOut, System, Tally, Traced, Workload};
use crate::spans::{self, Span, Tracer};
use crate::stats::{median, percentile_sorted};

const MIXED: &str = include_str!("../scenarios/serve_mixed.scn");
const BURST: &str = include_str!("../scenarios/serve_burst_small.scn");

const CALLERS: usize = 2;
/// Scenario units (86 jobs) per caller per `serve_mixed` round:
/// 860 jobs a round, ≈ 0.5 s at seed speed.
const MIXED_UNITS: usize = 5;
const BURST_LEN: usize = 32;
/// Classes with a footprint above this many words (1 MiB) count as big
/// for the first pass's overlap step.
const BIG_WORDS: usize = 131_072;
/// Bursts per caller per `serve_burst_small` round (an even number, so
/// both classes get the same count): 14336 jobs a round.
const BURSTS: usize = 224;

pub struct ServeLoad {
    name: &'static str,
    /// Jobs a caller has in flight before it waits: 1 or [`BURST_LEN`].
    burst: usize,
    classes: Vec<Class>,
    /// One op list per caller; every round replays them.
    callers: Vec<Vec<Op>>,
    seeds: Vec<[u64; KSEEDS]>,
    /// Expected checksum of `(class, kseed)`, from `run_kernel` on a
    /// fresh width-1 pool.
    expect: Vec<[u64; KSEEDS]>,
}

/// Every job class either serve workload submits (the `algos.real.us.*`
/// metrics have one entry per class).
pub fn all_classes() -> Vec<Class> {
    let mut all = parse_classes(MIXED);
    all.extend(parse_classes(BURST));
    all
}

impl ServeLoad {
    fn new(
        name: &'static str,
        burst: usize,
        classes: Vec<Class>,
        callers: Vec<Vec<Op>>,
        seed: u64,
    ) -> Self {
        let seeds = kernel_seeds(classes.len(), &mut SplitMix64::stream(seed, "serve.values"));
        // A width-1 pool takes the serial plan of every kernel, so the
        // reference does not share the structured code paths it checks.
        let reference = SbPool::new(HwHierarchy::flat(1, 6144, 4 << 20));
        let expect = classes
            .iter()
            .zip(&seeds)
            .map(|(c, s)| s.map(|seed| run_kernel(&reference, c.kernel, c.n, seed)))
            .collect();
        Self {
            name,
            burst,
            classes,
            callers,
            seeds,
            expect,
        }
    }

    pub fn mixed(seed: u64) -> Self {
        let classes = parse_classes(MIXED);
        let callers = (0..CALLERS)
            .map(|c| {
                let mut rng = SplitMix64::stream(seed, &format!("serve_mixed.order.{c}"));
                op_list(&classes, MIXED_UNITS, &mut rng)
            })
            .collect();
        Self::new("serve_mixed", 1, classes, callers, seed)
    }

    pub fn burst_small(seed: u64) -> Self {
        let classes = parse_classes(BURST);
        let callers = (0..CALLERS)
            .map(|c| {
                let mut rng = SplitMix64::stream(seed, &format!("serve_burst.order.{c}"));
                let first = rng.below(classes.len());
                (0..BURSTS * BURST_LEN)
                    .map(|i| Op {
                        class: ((first + i / BURST_LEN) % classes.len()) as u16,
                        kseed: rng.below(KSEEDS) as u8,
                    })
                    .collect()
            })
            .collect();
        Self::new("serve_burst_small", BURST_LEN, classes, callers, seed)
    }

    fn spec(&self, op: Op) -> JobSpec {
        let c = &self.classes[op.class as usize];
        JobSpec::new(
            c.kernel,
            c.n,
            self.seeds[op.class as usize][op.kseed as usize],
        )
    }

    /// Wait for one submitted job and check it. Returns the marks
    /// `[submit, submitted, dequeued, served, answered, checked]` that
    /// bound the spans `serve.submit`, `serve.queued`, `exec.service`,
    /// `serve.respond`, `bench.check`.
    fn finish(
        &self,
        op: Op,
        t0: Instant,
        t1: Instant,
        ticket: Result<mo_serve::Ticket, mo_serve::Rejected>,
        tally: &mut Tally,
    ) -> [Instant; 6] {
        let label = || self.classes[op.class as usize].label();
        let outcome = ticket.map(|t| t.wait());
        let t2 = Instant::now();
        let (queued, service, verdict) = match outcome {
            Ok(Outcome::Done(d)) => {
                let want = self.expect[op.class as usize][op.kseed as usize];
                let verdict = if d.checksum == want {
                    Ok(())
                } else {
                    Err(format!(
                        "{}: checksum {:#x}, expected {want:#x}",
                        label(),
                        d.checksum
                    ))
                };
                (d.queued, d.service, verdict)
            }
            Ok(Outcome::Rejected(r)) => (
                Duration::ZERO,
                Duration::ZERO,
                Err(format!("{}: shed after admission: {r:?}", label())),
            ),
            Err(r) => (
                Duration::ZERO,
                Duration::ZERO,
                Err(format!("{}: shed at submit: {r:?}", label())),
            ),
        };
        tally.check(verdict);
        // `queued` starts at the enqueue inside `submit`, a little
        // before `t1`; laying it after `t1` shortens `serve.respond`
        // by that overlap, never below zero.
        let dequeued = (t1 + queued).min(t2);
        let served = (dequeued + service).min(t2);
        [t0, t1, dequeued, served, t2, Instant::now()]
    }

    /// One caller's share of a round.
    fn caller(&self, server: &Server, caller: usize, spans_on: bool, epoch: Instant) -> RoundOut {
        const NAMES: [&str; 5] = [
            spans::SUBMIT,
            spans::QUEUED,
            spans::SERVICE,
            spans::RESPOND,
            spans::CHECK,
        ];
        let ops = &self.callers[caller];
        let mut out = RoundOut::default();
        let mut tr = Tracer::new(spans_on, epoch);
        let mut pending = Vec::with_capacity(self.burst);
        for (b, chunk) in ops.chunks(self.burst).enumerate() {
            for &op in chunk {
                let t0 = Instant::now();
                let ticket = server.submit(self.spec(op));
                pending.push((op, t0, Instant::now(), ticket));
            }
            for (slot, (op, t0, t1, ticket)) in pending.drain(..).enumerate() {
                let marks = self.finish(op, t0, t1, ticket, &mut out.tally);
                out.lat_ns.push((marks[5] - marks[0]).as_nanos() as u64);
                tr.op(
                    (caller * ops.len() + b * self.burst + slot) as u32,
                    op.class,
                    (caller * self.burst + slot) as u16,
                    &NAMES,
                    &marks,
                );
            }
        }
        out.spans = tr.spans;
        out
    }
}

struct ServeSystem<'a> {
    w: &'a ServeLoad,
    server: Server,
    epoch: Instant,
}

impl<'a> ServeSystem<'a> {
    fn start(w: &'a ServeLoad) -> Self {
        Self {
            w,
            // The default configuration: 2 service workers (the pool's
            // width), queue capacity 256 (two bursts of 32 never fill
            // it, so nothing is shed), batches of up to 16 jobs at or
            // below the L1 size.
            server: Server::start(h2(), ServeConfig::default()),
            epoch: Instant::now(),
        }
    }
}

impl System for ServeSystem<'_> {
    /// Each class once, in the workload's own shape (a single job
    /// submitted and awaited, or a whole burst of the class); then
    /// every pair of big classes at once, so that the peak footprint —
    /// two big jobs in flight — is reached by design in every run and
    /// not by a coincidence of the callers' orders.
    fn first_pass(&mut self) -> Tally {
        let w = self.w;
        let mut tally = Tally::default();
        let mut pending = Vec::with_capacity(w.burst);
        let mut run_together = |ops: &[Op], tally: &mut Tally| {
            for &op in ops {
                let t0 = Instant::now();
                let ticket = self.server.submit(w.spec(op));
                pending.push((op, t0, Instant::now(), ticket));
            }
            for (op, t0, t1, ticket) in pending.drain(..) {
                w.finish(op, t0, t1, ticket, tally);
            }
        };
        for class in 0..w.classes.len() as u16 {
            let burst: Vec<Op> = (0..w.burst)
                .map(|i| Op {
                    class,
                    kseed: (i % KSEEDS) as u8,
                })
                .collect();
            run_together(&burst, &mut tally);
        }
        let big: Vec<u16> = (0..w.classes.len() as u16)
            .filter(|&c| {
                let c = &w.classes[c as usize];
                footprint_words(c.kernel, c.n) > BIG_WORDS
            })
            .collect();
        for (i, &a) in big.iter().enumerate() {
            for &b in &big[i..] {
                let pair = [a, b].map(|class| Op { class, kseed: 0 });
                run_together(&pair, &mut tally);
            }
        }
        tally
    }

    fn round(&mut self, spans_on: bool) -> RoundOut {
        let (w, server, epoch) = (self.w, &self.server, self.epoch);
        let gate = Barrier::new(CALLERS);
        let start = Instant::now();
        let parts: Vec<RoundOut> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..CALLERS)
                .map(|c| {
                    let gate = &gate;
                    s.spawn(move || {
                        gate.wait();
                        w.caller(server, c, spans_on, epoch)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("a caller thread panicked"))
                .collect()
        });
        let mut out = RoundOut {
            wall: start.elapsed(),
            ..RoundOut::default()
        };
        for part in parts {
            out.lat_ns.extend(part.lat_ns);
            out.tally.add(part.tally);
            spans::merge(&mut out.spans, part.spans);
        }
        out
    }

    fn teardown(self: Box<Self>) -> Result<(), String> {
        let last = self.server.drain();
        if last.in_flight_total() == 0 {
            Ok(())
        } else {
            Err(format!(
                "{} jobs unresolved after drain",
                last.in_flight_total()
            ))
        }
    }
}

impl Workload for ServeLoad {
    fn name(&self) -> &'static str {
        self.name
    }

    fn tail_q(&self) -> f64 {
        0.99
    }

    fn build(&self) -> Result<Box<dyn System + '_>, String> {
        Ok(Box::new(ServeSystem::start(self)))
    }

    fn corrupt_expectation(&mut self) {
        self.expect[0][0] ^= 1;
    }
}

fn median_us(sorted_ns: &[u64]) -> f64 {
    percentile_sorted(sorted_ns, 0.5) as f64 / 1e3
}

/// `serve.*`, the per-op `core.rt.*` counters and `algos.real.share`,
/// from spans-on rounds of `w` and the server's own counters.
/// `bare_us(label)` is the class's bare kernel time (the
/// `algos.real.us.*` probe).
pub fn layer_metrics(
    w: &ServeLoad,
    pairs: usize,
    bare_us: &dyn Fn(&str) -> f64,
    m: &mut Metrics,
) -> Result<Traced, String> {
    let mut sys = ServeSystem::start(w);
    let before = sys.server.metrics();
    let traced = traced_rounds(&mut sys, pairs);
    let snap_us: Vec<f64> = (0..9)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(sys.server.metrics());
            t.elapsed().as_nanos() as f64 / 1e3
        })
        .collect();
    let delta = sys.server.metrics().delta_since(&before);
    Box::new(sys).teardown()?;

    let all: Vec<Span> = traced.spans();
    let d = |name| spans::durations(&all, name);
    m.put("serve.submit_us", median_us(&d(spans::SUBMIT)), "us");
    let queued = d(spans::QUEUED);
    m.put("serve.queued_p50_us", median_us(&queued), "us");
    m.put(
        "serve.queued_tail_us",
        percentile_sorted(&queued, w.tail_q()) as f64 / 1e3,
        "us",
    );
    m.put("serve.service_p50_us", median_us(&d(spans::SERVICE)), "us");
    m.put("serve.respond_us", median_us(&d(spans::RESPOND)), "us");
    let bare: Vec<f64> = w.classes.iter().map(|c| bare_us(&c.label())).collect();
    let over: Vec<f64> = all
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|s| s.dur_ns() as f64 / 1e3 - bare[s.class as usize])
        .collect();
    m.put("serve.overhead_us", median(&over), "us");

    let sum = |f: &dyn Fn(&mo_serve::KernelSnapshot) -> u64| -> f64 {
        delta.kernels.iter().map(f).sum::<u64>() as f64
    };
    let completed = sum(&|k| k.completed);
    let (batches, batched) = (sum(&|k| k.batches), sum(&|k| k.batched_jobs));
    // Dispatches = multi-job batches + jobs that ran alone.
    m.put(
        "serve.batch_mean",
        completed / (completed - batched + batches),
        "count",
    );
    m.put("serve.batched_ratio", batched / completed, "ratio");
    let admitted: f64 = delta.levels.iter().map(|l| l.admitted_jobs as f64).sum();
    for (i, l) in delta.levels.iter().enumerate() {
        m.put(
            format!("serve.anchor_share.l{}", i + 1),
            l.admitted_jobs as f64 / admitted,
            "ratio",
        );
    }
    m.put("serve.queue_peak", delta.queue_peak as f64, "count");
    let shed = delta.shed_total() as f64;
    m.put("serve.shed_ratio", shed / (completed + shed), "ratio");
    m.put("serve.metrics_snapshot_us", median(&snap_us), "us");

    let rt = delta.rt;
    let per_op = |v: u64| v as f64 / completed;
    m.put(
        "core.rt.parallel_forks_per_op",
        per_op(rt.parallel_forks),
        "count",
    );
    m.put(
        "core.rt.serial_forks_per_op",
        per_op(rt.serial_forks),
        "count",
    );
    m.put(
        "core.rt.denied_forks_per_op",
        per_op(rt.denied_forks),
        "count",
    );
    m.put("core.rt.steals_per_op", per_op(rt.steals), "count");
    m.put(
        "core.rt.failed_steals_per_op",
        per_op(rt.failed_steals),
        "count",
    );
    m.put("core.rt.parks_per_op", per_op(rt.parks), "count");
    m.put(
        "core.rt.injector_pops_per_op",
        per_op(rt.injector_pops),
        "count",
    );
    m.put(
        "core.rt.steal_success_ratio",
        rt.steals as f64 / (rt.steals + rt.failed_steals) as f64,
        "ratio",
    );

    // Pinned to one CPU the process never idles, so the CPU time of an
    // operation is the reciprocal of the rate.
    let ops_per_round: usize = w.callers.iter().map(Vec::len).sum();
    let bare_per_op_us = w
        .callers
        .iter()
        .flatten()
        .map(|op| bare[op.class as usize])
        .sum::<f64>()
        / ops_per_round as f64;
    m.put(
        "algos.real.share",
        bare_per_op_us * median_rate(&traced.on) / 1e6,
        "ratio",
    );
    Ok(traced)
}
