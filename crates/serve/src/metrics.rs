//! The service metrics as plain data: the per-kernel and per-level
//! rows, the snapshot that carries them, its interval deltas and its
//! Prometheus rendering.
//!
//! The live rows are these same types, owned by the serving state
//! machine (`state::Core`) and counted under its lock; latency is one
//! [`mo_obs::hist`] log₂ histogram per kernel, in microseconds. A
//! [`MetricsSnapshot`] is a copy suitable for printing, asserting in
//! tests, or shipping to an external collector.

use std::time::Duration;

use mo_core::rt::RtStats;
use mo_obs::hist::Log2Hist;
use mo_obs::prom::{Family, PromText};
use mo_obs::slo::SloState;
use mo_obs::witness::{CTR_INSTRUCTIONS, CTR_L1D_MISS, CTR_LLC_MISS, NCOUNTERS};

use crate::job::Kernel;

/// Quantile `q` of a microsecond histogram, in milliseconds: the upper
/// bound of the bucket where the cumulative count crosses `q`. `None`
/// without samples.
fn latency_ms(h: &Log2Hist, q: f64) -> Option<f64> {
    (h.count > 0).then(|| h.quantile(q) as f64 / 1000.0)
}

/// Per-kernel counters at snapshot time.
#[derive(Debug, Clone)]
pub struct KernelSnapshot {
    /// Which kernel this row describes.
    pub kernel: Kernel,
    /// Jobs accepted into the queue.
    pub submitted: u64,
    /// Jobs served to completion.
    pub completed: u64,
    /// Jobs failed because the kernel panicked in their batch
    /// ([`crate::Rejected::KernelPanicked`]).
    pub failed: u64,
    /// Jobs shed at submission because the queue was full.
    pub shed_queue_full: u64,
    /// Jobs shed in the queue past their deadline.
    pub shed_deadline: u64,
    /// Jobs rejected because no cache level could ever hold them.
    pub shed_too_large: u64,
    /// Jobs refused by the secure-mode certificate gate (the kernel
    /// holds no `oblivious` value-obliviousness certificate).
    pub shed_not_certified: u64,
    /// Batches executed (each ≥ 2 jobs).
    pub batches: u64,
    /// Jobs that ran inside a multi-job batch.
    pub batched_jobs: u64,
    /// Median total latency (queue + service) in milliseconds.
    pub p50_ms: Option<f64>,
    /// 99th-percentile total latency in milliseconds.
    pub p99_ms: Option<f64>,
    /// Total (queue + service) latency as a log₂ histogram in
    /// microseconds (bucket `i` holds latencies in `(2^(i-1), 2^i]` µs;
    /// the last bucket is open-ended). Counts are *not* cumulative
    /// here; the Prometheus renderer accumulates them.
    pub latency: Log2Hist,
    /// Cache-witness counter totals for this kernel's batches, indexed
    /// by witness counter id ([`mo_obs::witness::CTR_L1D_MISS`] etc.);
    /// all zero when the hardware witness is unavailable.
    pub witness: [u64; NCOUNTERS],
    /// Analytic expected transfers `[L1, LLC]` (cache lines) for the
    /// witnessed batches — `registry::analytic_transfers` summed over
    /// every batch that also carried a witness span.
    pub expected_transfers: [u64; 2],
}

impl KernelSnapshot {
    /// The row of `kernel` before any job.
    pub(crate) fn new(kernel: Kernel) -> Self {
        Self {
            kernel,
            submitted: 0,
            completed: 0,
            failed: 0,
            shed_queue_full: 0,
            shed_deadline: 0,
            shed_too_large: 0,
            shed_not_certified: 0,
            batches: 0,
            batched_jobs: 0,
            p50_ms: None,
            p99_ms: None,
            latency: Log2Hist::default(),
            witness: [0; NCOUNTERS],
            expected_transfers: [0; 2],
        }
    }

    /// This row with `p50_ms` and `p99_ms` read off its histogram.
    pub(crate) fn with_quantiles(self) -> Self {
        Self {
            p50_ms: latency_ms(&self.latency, 0.50),
            p99_ms: latency_ms(&self.latency, 0.99),
            ..self
        }
    }

    /// Measured-over-analytic transfer ratio `[L1, LLC]` — the value
    /// behind the `moserve_witness_divergence` gauges. `None` at an
    /// index without both a measurement and an expectation.
    pub fn witness_divergence(&self) -> [Option<f64>; 2] {
        let measured = [
            self.witness[CTR_L1D_MISS as usize],
            self.witness[CTR_LLC_MISS as usize],
        ];
        std::array::from_fn(|i| {
            (self.expected_transfers[i] > 0 && measured[i] > 0)
                .then(|| measured[i] as f64 / self.expected_transfers[i] as f64)
        })
    }
    /// All sheds for this kernel.
    pub fn shed_total(&self) -> u64 {
        self.shed_queue_full + self.shed_deadline + self.shed_too_large + self.shed_not_certified
    }

    /// Jobs accepted but not yet resolved at snapshot time.
    ///
    /// Only `completed`, `shed_deadline` and `failed` resolve
    /// *accepted* jobs (the other rejections never count as
    /// submitted), so `submitted - completed - shed_deadline - failed`
    /// is the number still queued or running. A server snapshot copies
    /// every counter under the one lock that also moves them, so the
    /// equation is exact there; over a [`MetricsSnapshot::delta_since`]
    /// interval, which may resolve jobs submitted before it, it
    /// saturates at zero.
    pub fn in_flight(&self) -> u64 {
        self.submitted
            .saturating_sub(self.completed + self.shed_deadline + self.failed)
    }
}

/// Per-cache-level admission counters at snapshot time.
#[derive(Debug, Clone)]
pub struct LevelSnapshot {
    /// Level index (0 = L1).
    pub level: usize,
    /// Machine-wide capacity of the level in words.
    pub capacity_words: usize,
    /// Footprint words currently admitted against this level.
    pub inflight_words: usize,
    /// High-water mark of `inflight_words`.
    pub peak_inflight_words: usize,
    /// Jobs (or batches) admitted against this level so far.
    pub admitted_jobs: u64,
    /// Cumulative footprint words admitted against this level.
    pub admitted_words: u64,
}

impl LevelSnapshot {
    /// The row of cache level `level`, `capacity_words` machine-wide,
    /// before any admission.
    pub(crate) fn new(level: usize, capacity_words: usize) -> Self {
        Self {
            level,
            capacity_words,
            inflight_words: 0,
            peak_inflight_words: 0,
            admitted_jobs: 0,
            admitted_words: 0,
        }
    }
}

/// A point-in-time copy of every service metric.
#[derive(Debug, Clone)]
pub struct MetricsSnapshot {
    /// One row per kernel.
    pub kernels: Vec<KernelSnapshot>,
    /// One row per cache level of the serving hierarchy.
    pub levels: Vec<LevelSnapshot>,
    /// Jobs waiting in the queue right now.
    pub queue_depth: usize,
    /// High-water mark of the queue depth.
    pub queue_peak: usize,
    /// Cumulative fork statistics of the underlying [`mo_core::rt::SbPool`]
    /// since the server started.
    pub rt: RtStats,
    /// Whether the hardware cache witness (`perf_event_open`) opened at
    /// startup; when `false` every per-kernel witness count is zero.
    pub witness_available: bool,
    /// Trace-ring overflow drops per pool worker (trailing entry =
    /// external ring); empty until a trace sink is attached
    /// ([`crate::Server::attach_sink`]).
    pub ring_dropped: Vec<u64>,
    /// The SLO objectives (latency, then availability) as of the
    /// server's last burn-rate evaluation.
    pub slo: Vec<SloState>,
    /// Flight-recorder dumps written on not-burning → burning edges.
    pub slo_dumps: u64,
    /// Time since the server started.
    pub uptime: Duration,
}

impl MetricsSnapshot {
    /// Total jobs served across kernels.
    pub fn completed_total(&self) -> u64 {
        self.kernels.iter().map(|k| k.completed).sum()
    }

    /// Total jobs shed across kernels and causes.
    pub fn shed_total(&self) -> u64 {
        self.kernels.iter().map(|k| k.shed_total()).sum()
    }

    /// Total jobs accepted but not yet resolved at snapshot time (see
    /// [`KernelSnapshot::in_flight`] for why this cannot underflow).
    pub fn in_flight_total(&self) -> u64 {
        self.kernels.iter().map(|k| k.in_flight()).sum()
    }

    /// The activity between `prev` and `self`: every monotone counter
    /// (submissions, completions, sheds, batches, latency buckets, rt
    /// forks/steals/parks) becomes its increment over the interval,
    /// while point-in-time gauges (queue depth, in-flight words) keep
    /// their current values. Quantiles are recomputed over the interval
    /// buckets, so `p50_ms` is the interval's median, not the lifetime
    /// one. Both snapshots must come from the same server; counters
    /// never decrease, but `saturating_sub` keeps a mismatched pair
    /// from panicking.
    pub fn delta_since(&self, prev: &Self) -> Self {
        let kernels = self
            .kernels
            .iter()
            .zip(&prev.kernels)
            .map(|(now, old)| {
                KernelSnapshot {
                    kernel: now.kernel,
                    submitted: now.submitted.saturating_sub(old.submitted),
                    completed: now.completed.saturating_sub(old.completed),
                    failed: now.failed.saturating_sub(old.failed),
                    shed_queue_full: now.shed_queue_full.saturating_sub(old.shed_queue_full),
                    shed_deadline: now.shed_deadline.saturating_sub(old.shed_deadline),
                    shed_too_large: now.shed_too_large.saturating_sub(old.shed_too_large),
                    shed_not_certified: now
                        .shed_not_certified
                        .saturating_sub(old.shed_not_certified),
                    batches: now.batches.saturating_sub(old.batches),
                    batched_jobs: now.batched_jobs.saturating_sub(old.batched_jobs),
                    p50_ms: None,
                    p99_ms: None,
                    latency: now.latency.delta_since(&old.latency),
                    witness: std::array::from_fn(|i| now.witness[i].saturating_sub(old.witness[i])),
                    expected_transfers: std::array::from_fn(|i| {
                        now.expected_transfers[i].saturating_sub(old.expected_transfers[i])
                    }),
                }
                .with_quantiles()
            })
            .collect();
        let levels = self
            .levels
            .iter()
            .zip(&prev.levels)
            .map(|(now, old)| LevelSnapshot {
                admitted_jobs: now.admitted_jobs.saturating_sub(old.admitted_jobs),
                admitted_words: now.admitted_words.saturating_sub(old.admitted_words),
                ..now.clone()
            })
            .collect();
        Self {
            kernels,
            levels,
            queue_depth: self.queue_depth,
            queue_peak: self.queue_peak,
            rt: self.rt.since(&prev.rt),
            witness_available: self.witness_available,
            // A sink attached between the two snapshots has no `prev`
            // entries: its drops count from zero.
            ring_dropped: self
                .ring_dropped
                .iter()
                .enumerate()
                .map(|(i, n)| n.saturating_sub(prev.ring_dropped.get(i).copied().unwrap_or(0)))
                .collect(),
            // Burn rates are already windowed, so they stay point-in-time.
            slo: self.slo.clone(),
            slo_dumps: self.slo_dumps.saturating_sub(prev.slo_dumps),
            uptime: self.uptime.saturating_sub(prev.uptime),
        }
    }

    /// Render as a Prometheus text exposition (format 0.0.4): per-kernel
    /// job counters, the in-flight gauge, cumulative latency histograms
    /// in seconds, per-level admission gauges, and the runtime's
    /// scheduler counters. This is what `/metrics` serves.
    pub fn to_prometheus_text(&self) -> String {
        let mut w = PromText::new();
        let per_kernel = |mut f: Family<'_>, get: fn(&KernelSnapshot) -> u64| {
            for k in &self.kernels {
                f.u64(&[("kernel", k.kernel.name())], get(k));
            }
        };
        per_kernel(
            w.counter(
                "moserve_jobs_submitted_total",
                "Jobs accepted into the queue.",
            ),
            |k| k.submitted,
        );
        per_kernel(
            w.counter("moserve_jobs_completed_total", "Jobs served to completion."),
            |k| k.completed,
        );
        per_kernel(
            w.counter(
                "moserve_jobs_failed_total",
                "Jobs failed by a kernel panic in their batch.",
            ),
            |k| k.failed,
        );
        let mut f = w.counter(
            "moserve_jobs_shed_total",
            "Jobs shed, by kernel and reason.",
        );
        for k in &self.kernels {
            for (reason, v) in [
                ("queue_full", k.shed_queue_full),
                ("deadline", k.shed_deadline),
                ("too_large", k.shed_too_large),
                ("not_certified", k.shed_not_certified),
            ] {
                f.u64(&[("kernel", k.kernel.name()), ("reason", reason)], v);
            }
        }
        per_kernel(
            w.counter(
                "moserve_batches_total",
                "CGC=>SB batches executed (each >= 2 jobs).",
            ),
            |k| k.batches,
        );
        per_kernel(
            w.gauge("moserve_jobs_in_flight", "Accepted jobs not yet resolved."),
            KernelSnapshot::in_flight,
        );
        let mut f = w.histogram(
            "moserve_latency_seconds",
            "Total (queue + service) latency.",
        );
        for k in &self.kernels {
            f.hist(&[("kernel", k.kernel.name())], &k.latency, 1e6);
        }
        w.gauge("moserve_queue_depth", "Jobs waiting in the queue.")
            .u64(&[], self.queue_depth as u64);
        w.gauge("moserve_queue_peak", "High-water mark of the queue depth.")
            .u64(&[], self.queue_peak as u64);
        let mut f = w.gauge(
            "moserve_level_inflight_words",
            "Footprint words admitted against each cache level.",
        );
        for l in &self.levels {
            f.u64(&[("level", &l.level.to_string())], l.inflight_words as u64);
        }
        let mut f = w.counter(
            "moserve_level_admitted_jobs_total",
            "Jobs or batches admitted against each cache level.",
        );
        for l in &self.levels {
            f.u64(&[("level", &l.level.to_string())], l.admitted_jobs);
        }
        w.counter(
            "moserve_rt_forks_total",
            "SB scheduler fork decisions, by kind.",
        )
        .u64(&[("kind", "parallel")], self.rt.parallel_forks)
        .u64(&[("kind", "serial")], self.rt.serial_forks)
        .u64(&[("kind", "denied")], self.rt.denied_forks);
        w.counter(
            "moserve_rt_steals_total",
            "Tasks executed from another worker's deque.",
        )
        .u64(&[], self.rt.steals);
        w.counter(
            "moserve_rt_failed_steals_total",
            "Work-finding scans that found nothing.",
        )
        .u64(&[], self.rt.failed_steals);
        w.counter(
            "moserve_rt_parks_total",
            "Times a runtime thread slept on the idle condvar.",
        )
        .u64(&[], self.rt.parks);
        w.counter(
            "moserve_rt_injector_pops_total",
            "Tasks popped from the external-submission injector.",
        )
        .u64(&[], self.rt.injector_pops);
        w.gauge(
            "moserve_cache_witness_available",
            "Whether the hardware cache witness (perf_event_open) is active.",
        )
        .u64(&[], self.witness_available as u64);
        let last_level = self.levels.len().max(1).to_string();
        let mut f = w.counter(
            "moserve_cache_transfers_total",
            "Measured cache transfers attributed to each kernel's batches \
             (serving-thread traffic; see the cache-witness docs).",
        );
        for k in &self.kernels {
            for (level, ctr) in [("1", CTR_L1D_MISS), (last_level.as_str(), CTR_LLC_MISS)] {
                let labels = [
                    ("kernel", k.kernel.name()),
                    ("level", level),
                    ("backend", "perf"),
                ];
                f.u64(&labels, k.witness[ctr as usize]);
            }
        }
        let mut f = w.counter(
            "moserve_cache_instructions_total",
            "Instructions retired by each kernel's batches (serving thread).",
        );
        for k in &self.kernels {
            let labels = [("kernel", k.kernel.name()), ("backend", "perf")];
            f.u64(&labels, k.witness[CTR_INSTRUCTIONS as usize]);
        }
        let mut f = w.gauge(
            "moserve_witness_divergence",
            "Measured-over-analytic cache transfer ratio per kernel and \
             level (witnessed batches only; absent without both sides).",
        );
        for k in &self.kernels {
            let div = k.witness_divergence();
            for (level, d) in [("1", div[0]), (last_level.as_str(), div[1])] {
                if let Some(d) = d {
                    f.f64(&[("kernel", k.kernel.name()), ("level", level)], d);
                }
            }
        }
        let mut f = w.gauge(
            "moserve_slo_target",
            "Required good fraction per SLO objective.",
        );
        for o in &self.slo {
            f.f64(&[("objective", &o.name)], o.target);
        }
        let mut f = w.gauge(
            "moserve_slo_burn_rate",
            "Error-budget burn rate per objective, window pair, and horizon.",
        );
        for o in &self.slo {
            for (i, wd) in o.windows.iter().enumerate() {
                let pair = i.to_string();
                for (horizon, rate) in [("short", wd.burn_short), ("long", wd.burn_long)] {
                    let labels = [
                        ("objective", &*o.name),
                        ("pair", &*pair),
                        ("horizon", horizon),
                    ];
                    f.f64(&labels, rate);
                }
            }
        }
        let mut f = w.gauge(
            "moserve_slo_burning",
            "1 while an objective's multi-window burn condition fires.",
        );
        for o in &self.slo {
            f.u64(&[("objective", &o.name)], o.burning as u64);
        }
        w.counter(
            "moserve_slo_dumps_total",
            "Flight-recorder trace dumps written on burn edges.",
        )
        .u64(&[], self.slo_dumps);
        if let Some((external, workers)) = self.ring_dropped.split_last() {
            let mut f = w.counter(
                "moserve_ring_dropped_total",
                "Trace events dropped at each worker's full ring.",
            );
            for (i, &v) in workers.iter().enumerate() {
                f.u64(&[("worker", &i.to_string())], v);
            }
            f.u64(&[("worker", "external")], *external);
        }
        w.gauge("moserve_uptime_seconds", "Time since the server started.")
            .f64(&[], self.uptime.as_secs_f64());
        w.finish()
    }
}

impl std::fmt::Display for MetricsSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "uptime {:.2?}  queue depth {} (peak {})  rt forks: {} par / {} serial / {} denied",
            self.uptime,
            self.queue_depth,
            self.queue_peak,
            self.rt.parallel_forks,
            self.rt.serial_forks,
            self.rt.denied_forks
        )?;
        writeln!(
            f,
            "rt activity: {} steals ({} empty scans), {} injector pops, {} parks",
            self.rt.steals, self.rt.failed_steals, self.rt.injector_pops, self.rt.parks
        )?;
        writeln!(
            f,
            "{:<10} {:>9} {:>9} {:>6} {:>6} {:>8} {:>7} {:>8} {:>7} {:>9} {:>9}",
            "kernel",
            "submitted",
            "completed",
            "failed",
            "shed",
            "deadline",
            "toobig",
            "uncert",
            "batches",
            "p50 ms",
            "p99 ms"
        )?;
        for k in &self.kernels {
            if k.submitted == 0 && k.shed_total() == 0 {
                continue;
            }
            let fmt_q = |q: Option<f64>| match q {
                Some(v) => format!("{v:.2}"),
                None => "-".to_string(),
            };
            writeln!(
                f,
                "{:<10} {:>9} {:>9} {:>6} {:>6} {:>8} {:>7} {:>8} {:>7} {:>9} {:>9}",
                k.kernel.name(),
                k.submitted,
                k.completed,
                k.failed,
                k.shed_queue_full,
                k.shed_deadline,
                k.shed_too_large,
                k.shed_not_certified,
                k.batches,
                fmt_q(k.p50_ms),
                fmt_q(k.p99_ms),
            )?;
        }
        writeln!(
            f,
            "{:<6} {:>14} {:>12} {:>12} {:>10} {:>14}",
            "level", "capacity(w)", "inflight(w)", "peak(w)", "admitted", "admitted(w)"
        )?;
        for l in &self.levels {
            writeln!(
                f,
                "L{:<5} {:>14} {:>12} {:>12} {:>10} {:>14}",
                l.level + 1,
                l.capacity_words,
                l.inflight_words,
                l.peak_inflight_words,
                l.admitted_jobs,
                l.admitted_words,
            )?;
        }
        for o in &self.slo {
            let peak = o
                .windows
                .iter()
                .map(|w| w.burn_short.max(w.burn_long))
                .fold(0.0f64, f64::max);
            writeln!(
                f,
                "slo {:<13} target {:.4}  peak burn {:.2}  {}",
                o.name,
                o.target,
                peak,
                if o.burning { "BURNING" } else { "ok" },
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mo_obs::slo::{BurnWindow, WindowState};

    /// One evaluated objective over `(short secs, burn short, burn
    /// long)` window pairs, each with a 12× long window and factor 10.
    fn slo_state<const N: usize>(
        name: &str,
        target: f64,
        burning: bool,
        windows: [(u64, f64, f64); N],
    ) -> SloState {
        let windows = windows.map(|(short, burn_short, burn_long)| WindowState {
            window: BurnWindow {
                short_ns: short * 1_000_000_000,
                long_ns: short * 12_000_000_000,
                factor: 10.0,
            },
            burn_short,
            burn_long,
        });
        SloState {
            name: name.into(),
            target,
            windows: windows.to_vec(),
            burning,
        }
    }

    /// A snapshot of a server that has done nothing, over `nlevels`
    /// cache levels of capacity 0.
    fn idle(nlevels: usize) -> MetricsSnapshot {
        MetricsSnapshot {
            kernels: Kernel::ALL.map(KernelSnapshot::new).to_vec(),
            levels: (0..nlevels).map(|l| LevelSnapshot::new(l, 0)).collect(),
            queue_depth: 0,
            queue_peak: 0,
            rt: RtStats::default(),
            witness_available: false,
            ring_dropped: Vec::new(),
            slo: Vec::new(),
            slo_dumps: 0,
            uptime: Duration::ZERO,
        }
    }

    /// Every counter the parent rendered non-zero, two SLO objectives
    /// with two windows each, witness on, three ring-drop entries — the
    /// state whose parent-commit rendering is
    /// `tests/fixtures/exposition_parent.prom`.
    fn pinned_snapshot() -> MetricsSnapshot {
        let mut s = idle(3);
        s.witness_available = true;
        s.queue_depth = 5;
        s.queue_peak = 17;
        for (i, row) in s.kernels.iter_mut().enumerate() {
            let i = i as u64 + 1;
            row.submitted = 100 * i;
            row.completed = 90 * i;
            row.shed_queue_full = 2 * i;
            row.shed_deadline = 3 * i;
            row.shed_too_large = i;
            row.shed_not_certified = 4 * i;
            row.batches = 7 * i;
            row.batched_jobs = 20 * i;
            for us in [0, 3, 1000, 1024, 5000 * i] {
                row.latency.push(us);
            }
            row.witness = [40 * i, 4 * i, 9000 * i];
            row.expected_transfers = [21 * i, 10 * i];
        }
        let sort = &mut s.kernels[Kernel::Sort.index()].latency;
        sort.push(1);
        sort.push(1 << 50);
        for (i, l) in s.levels.iter_mut().enumerate() {
            l.capacity_words = [6144, 262_144, 4_194_304][i];
            l.inflight_words = [10, 20, 30][i];
            l.admitted_jobs = 11 * (i as u64 + 1);
            l.admitted_words = 4096 * (i as u64 + 1);
            l.peak_inflight_words = 512 << i;
        }
        s.rt = RtStats {
            parallel_forks: 50,
            serial_forks: 400,
            denied_forks: 6,
            steals: 7,
            failed_steals: 31,
            parks: 3,
            injector_pops: 12,
        };
        s.slo = vec![
            slo_state("latency", 0.99, true, [(5, 25.0, 12.5), (30, 2.0, 0.25)]),
            slo_state(
                "availability",
                0.999,
                false,
                [(5, 0.5, 0.125), (30, 1.5, 0.75)],
            ),
        ];
        s.ring_dropped = vec![4, 1, 9];
        s.slo_dumps = 3;
        s.uptime = Duration::from_millis(12_500);
        s
    }

    /// The equivalence pin: the family-writer rendering carries the
    /// parent commit's `(name, labels, value)` samples in the parent's
    /// family order. Three differences are permitted and listed here:
    /// the `moserve_jobs_failed_total` family the parent did not have,
    /// the `le` lines the single 64-bucket constant adds above the old
    /// 48-bucket ladder, and the samples the inclusive bucket edge
    /// moves one `le` down (an observation of exactly 2^k µs).
    #[test]
    fn exposition_matches_the_parent_commit_on_the_pinned_state() {
        use mo_obs::prom::{check_histograms, parse, Sample};
        let parent_text = include_str!("../tests/fixtures/exposition_parent.prom");
        let text = pinned_snapshot().to_prometheus_text();
        // Permitted difference 1: the failed-jobs family, one zero per
        // kernel in the pinned state.
        const FAILED: &str = "moserve_jobs_failed_total";
        let failed_lines = text.lines().filter(|l| l.contains(FAILED));
        assert_eq!(failed_lines.count(), 2 + Kernel::ALL.len());
        let comments = |t: &str| -> Vec<String> {
            let lines = t
                .lines()
                .filter(|l| l.starts_with('#') && !l.contains(FAILED));
            lines.map(str::to_string).collect()
        };
        assert_eq!(comments(&text), comments(parent_text), "family order");

        let is_latency_le = |s: &Sample, le: &str| {
            s.name == "moserve_latency_seconds_bucket" && s.label("le") == Some(le)
        };
        // Permitted difference 2: finite bounds 2^47..2^62 µs, which
        // the parent folded into +Inf.
        let added: Vec<String> = (47..63)
            .map(|i| format!("{}", (1u64 << i) as f64 / 1e6))
            .collect();
        let mut parent = parse(parent_text).expect("fixture parses");
        // Permitted difference 3: every kernel recorded one 1 024 µs
        // latency, now counted under le="0.001024" and not first under
        // le="0.002048"; sort also recorded 1 µs, now under
        // le="0.000001" and not first under le="0.000002".
        for s in &mut parent {
            if is_latency_le(s, "0.001024")
                || (is_latency_le(s, "0.000001") && s.label("kernel") == Some("sort"))
            {
                s.value += 1.0;
            }
        }
        let samples = parse(&text).expect("valid exposition");
        assert_eq!(check_histograms(&samples), Ok(Kernel::ALL.len()));
        let kept: Vec<Sample> = samples
            .into_iter()
            .filter(|s| s.name != FAILED && !added.iter().any(|le| is_latency_le(s, le)))
            .collect();
        assert_eq!(kept.len(), parent.len());
        for (got, want) in kept.iter().zip(&parent) {
            assert_eq!(got, want);
        }
        // The 2^50 µs latency the parent could only count under +Inf
        // now has a finite bound of its own.
        let le = format!("{}", (1u64 << 50) as f64 / 1e6);
        assert!(text.contains(&format!(
            "moserve_latency_seconds_bucket{{kernel=\"sort\",le=\"{le}\"}} 7"
        )));
    }

    #[test]
    fn delta_since_saturates_on_a_mismatched_pair() {
        // Snapshots of one server never decrease, but a pair taken from
        // two servers (or passed in the wrong order) can carry *smaller*
        // counters in "now" than in "prev". Every delta must saturate
        // to zero, never panic.
        let mut prev = idle(2);
        let row = &mut prev.kernels[Kernel::Sort.index()];
        row.submitted = 10;
        row.completed = 8;
        row.latency.push(100);
        row.witness = [5, 2, 1000];
        prev.rt = RtStats {
            parallel_forks: 50,
            steals: 7,
            parks: 3,
            ..Default::default()
        };
        prev.ring_dropped = vec![4, 0, 0];
        prev.uptime = Duration::from_secs(10);
        let mut now = prev.clone();
        now.rt = RtStats {
            parallel_forks: 3,
            ..Default::default()
        };
        now.ring_dropped = vec![1, 0, 0];
        now.uptime = Duration::from_secs(11);
        let d = now.delta_since(&prev);
        assert_eq!(d.rt.parallel_forks, 0); // 3 - 50 saturates
        assert_eq!(d.rt.steals, 0);
        assert_eq!(d.rt.parks, 0);
        assert_eq!(d.ring_dropped, vec![0, 0, 0]); // 1 - 4 saturates

        // Counters that did not move delta to zero.
        let row = &d.kernels[Kernel::Sort.index()];
        assert_eq!(row.submitted, 0);
        assert_eq!(row.witness, [0, 0, 0]);
        assert_eq!(row.p50_ms, None); // no interval samples

        // The fully swapped order must not panic either, in any field.
        let swapped = prev.delta_since(&now);
        assert_eq!(swapped.rt.parallel_forks, 47);
        assert_eq!(swapped.uptime, Duration::ZERO); // 10s - 11s saturates

        // An interval that resolves jobs submitted before it has none
        // in flight, rather than an underflow.
        now.kernels[Kernel::Sort.index()].completed = 10;
        let d = now.delta_since(&prev);
        assert_eq!(d.kernels[Kernel::Sort.index()].completed, 2);
        assert_eq!(d.in_flight_total(), 0);
    }

    #[test]
    fn witness_counts_flow_to_snapshot_and_prometheus() {
        let mut s = idle(3);
        s.witness_available = true;
        let row = &mut s.kernels[Kernel::Matmul.index()];
        row.witness = [42, 5, 10000];
        row.expected_transfers = [21, 10];
        s.ring_dropped = vec![0, 3, 0, 0];
        let text = s.to_prometheus_text();
        assert!(text.contains(
            "moserve_cache_transfers_total{kernel=\"matmul\",level=\"1\",backend=\"perf\"} 42"
        ));
        assert!(text.contains(
            "moserve_cache_transfers_total{kernel=\"matmul\",level=\"3\",backend=\"perf\"} 5"
        ));
        assert!(text.contains(
            "moserve_cache_instructions_total{kernel=\"matmul\",backend=\"perf\"} 10000"
        ));
        assert!(text.contains("moserve_cache_witness_available 1"));
        // 42 measured / 21 expected at L1, 5 / 10 at the LLC.
        let row = &s.kernels[Kernel::Matmul.index()];
        assert_eq!(row.witness_divergence(), [Some(2.0), Some(0.5)]);
        assert!(text.contains("moserve_witness_divergence{kernel=\"matmul\",level=\"1\"} 2"));
        assert!(text.contains("moserve_witness_divergence{kernel=\"matmul\",level=\"3\"} 0.5"));
        // Kernels with no witnessed batches render no divergence sample.
        assert!(!text.contains("moserve_witness_divergence{kernel=\"sort\""));
        assert!(text.contains("moserve_ring_dropped_total{worker=\"1\"} 3"));
        assert!(text.contains("moserve_ring_dropped_total{worker=\"external\"} 0"));
        let samples = mo_obs::prom::parse(&text).expect("valid exposition");
        mo_obs::prom::check_histograms(&samples).expect("consistent histograms");
        // Without a sink the drop family disappears entirely.
        s.ring_dropped.clear();
        assert!(!s
            .to_prometheus_text()
            .contains("moserve_ring_dropped_total"));
    }

    #[test]
    fn slo_state_renders_typed_and_as_prometheus() {
        let mut s = idle(1);
        s.slo = vec![slo_state("latency", 0.99, true, [(5, 25.0, 12.5)])];
        s.slo_dumps = 3;
        let text = s.to_prometheus_text();
        assert!(text.contains("moserve_slo_target{objective=\"latency\"} 0.99"));
        assert!(text.contains(
            "moserve_slo_burn_rate{objective=\"latency\",pair=\"0\",horizon=\"short\"} 25"
        ));
        assert!(text.contains(
            "moserve_slo_burn_rate{objective=\"latency\",pair=\"0\",horizon=\"long\"} 12.5"
        ));
        assert!(text.contains("moserve_slo_burning{objective=\"latency\"} 1"));
        assert!(text.contains("moserve_slo_dumps_total 3"));
        let samples = mo_obs::prom::parse(&text).expect("valid exposition");
        mo_obs::prom::check_histograms(&samples).expect("consistent");
        assert!(s.to_string().contains("BURNING"));
        // The delta keeps windowed rates point-in-time but deltas dumps.
        let d = s.delta_since(&s);
        assert_eq!(d.slo_dumps, 0);
        assert_eq!(d.slo.len(), 1);
    }
}
