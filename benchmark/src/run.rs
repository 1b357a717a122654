//! The measurement protocol shared by every workload: set-up cycles,
//! one warm-up round, timed rounds that replay one identical op list,
//! and the estimators that turn rounds into the five end-to-end
//! metrics. See README.md, "Noise protocol".

use std::time::{Duration, Instant};

use crate::host::{Calibrator, SiblingProbe};
use crate::spans::Span;
use crate::stats::{median, percentile_sorted, quartiles, samples_beyond, Quartiles};

/// Checked operations and how many of them failed. A shed, an I/O
/// error and a wrong result are all failures.
#[derive(Debug, Clone, Copy, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    /// Count one operation; `Err` carries why it failed.
    pub fn check(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = outcome {
            self.failed += 1;
            // The first few reasons are enough to debug with.
            if self.failed <= 5 {
                eprintln!("mo-benchmark: FAILED op: {why}");
            }
        }
    }
}

/// What one round produced.
#[derive(Debug, Default)]
pub struct RoundOut {
    /// Caller-side latency of every operation, submit → checked result.
    pub lat_ns: Vec<u64>,
    pub tally: Tally,
    /// Empty unless the round ran with spans on.
    pub spans: Vec<Span>,
    pub wall: Duration,
}

impl RoundOut {
    pub fn rate(&self) -> f64 {
        self.lat_ns.len() as f64 / self.wall.as_secs_f64()
    }
}

/// A workload's whole system, built from nothing by
/// [`Workload::build`].
pub trait System {
    /// Each distinct op class once, fully checked; pays lazy thread
    /// spawn, scratch allocation and page faults.
    fn first_pass(&mut self) -> Tally;
    /// Replay the round's op list (the same list every round).
    fn round(&mut self, spans_on: bool) -> RoundOut;
    /// Tear everything down and wait for it; an unclean exit is an
    /// error.
    fn teardown(self: Box<Self>) -> Result<(), String>;
}

/// A seeded workload: inputs and expected outputs are fixed at
/// construction, before any timing.
pub trait Workload {
    fn name(&self) -> &'static str;
    /// The percentile `op_tail_ms` reports (declared in BENCHMARK.json).
    fn tail_q(&self) -> f64;
    fn build(&self) -> Result<Box<dyn System + '_>, String>;
    /// Falsify one expected output, for `--self-test`.
    fn corrupt_expectation(&mut self);
}

/// How long and how often to measure.
#[derive(Debug, Clone, Copy)]
pub struct Protocol {
    pub seconds: f64,
    pub setup_cycles: usize,
    pub min_rounds: usize,
}

/// The timed rounds are split over this many separately built systems,
/// with a group of set-up cycles before, between and after them: the
/// host's slow phases last seconds, so set-up cycles bunched into one
/// second of the run would all be slow, or all quiet, together.
const SEGMENTS: usize = 2;
/// The fastest rounds of a run, from which its metrics are read.
const QUIET_ROUNDS: usize = 5;
/// Longest wait for an idle sibling hyperthread before a set-up cycle.
const SETUP_WAIT: Duration = Duration::from_millis(100);

/// Everything an untraced run measures. Every time is in calibrated
/// seconds (see [`Calibrator`]); `wall_*` are the same estimators over
/// raw wall-clock times, printed beside the metrics.
#[derive(Debug)]
pub struct EndToEnd {
    pub throughput_ops_s: f64,
    pub op_p50_ms: f64,
    pub op_tail_ms: f64,
    pub setup_s: f64,
    pub tally: Tally,
    // Printed beside the metrics, not metrics themselves.
    pub wall_throughput_ops_s: f64,
    pub wall_setup_s: f64,
    pub setup_first_s: f64,
    /// Calibrated rates of all rounds.
    pub rates: Quartiles,
    /// Host factor of the calibration readings (1 = the nominal host).
    pub host_factor: Quartiles,
    pub rounds: usize,
    pub ops_per_round: usize,
    pub quiet_samples: usize,
    pub tail_samples_beyond: usize,
    /// Time spent waiting for the sibling hyperthread to go idle.
    pub waited_s: f64,
}

/// Keep the round if it is among the [`QUIET_ROUNDS`] fastest so far.
/// Only their latencies are ever held, so the harness's memory does not
/// grow with the length of the run. Nanoseconds fit `u32` up to 4.29 s,
/// a hundred times the slowest operation.
fn keep_fastest(best: &mut Vec<(f64, Vec<u32>)>, r: &RoundOut) {
    if best.len() == QUIET_ROUNDS {
        let (slowest, _) = best
            .iter()
            .enumerate()
            .min_by(|a, b| a.1 .0.total_cmp(&b.1 .0))
            .expect("QUIET_ROUNDS > 0");
        if r.rate() <= best[slowest].0 {
            return;
        }
        best.swap_remove(slowest);
    }
    let lat = r.lat_ns.iter().map(|&ns| ns.min(u32::MAX as u64) as u32);
    best.push((r.rate(), lat.collect()));
}

/// The untraced run behind the end-to-end metrics.
pub fn end_to_end(w: &dyn Workload, p: Protocol) -> Result<EndToEnd, String> {
    let mut tally = Tally::default();
    let mut probe = SiblingProbe::new();
    let mut cal = Calibrator::default();
    let mut waited = Duration::ZERO;
    // Wall seconds of every set-up cycle, wall rate of every round.
    let mut setups: Vec<f64> = Vec::with_capacity(p.setup_cycles);
    let mut rates: Vec<f64> = Vec::new();
    let mut best: Vec<(f64, Vec<u32>)> = Vec::with_capacity(QUIET_ROUNDS);
    for group in 0..=SEGMENTS {
        // One set-up cycle: build from nothing, one checked first pass;
        // then tear down. The tear-down is checked but not timed: a
        // fleet's waits for the workers' 20 ms accept polls, so its
        // duration is the phase of a timer, and timing it would
        // quantise the whole cycle to 20 ms steps (`dist.shutdown_ms`
        // reports it).
        let cycles =
            p.setup_cycles / (SEGMENTS + 1) + usize::from(group < p.setup_cycles % (SEGMENTS + 1));
        for _ in 0..cycles {
            waited += probe.wait_quiet(SETUP_WAIT);
            cal.sample();
            let t = Instant::now();
            let mut sys = w.build()?;
            tally.add(sys.first_pass());
            setups.push(t.elapsed().as_secs_f64());
            sys.teardown()?;
        }
        if group == SEGMENTS {
            break;
        }

        let mut sys = w.build()?;
        // The warm-up round, untimed.
        tally.add(sys.round(false).tally);
        let budget = Duration::from_secs_f64(p.seconds / SEGMENTS as f64);
        let min_rounds = p.min_rounds.div_ceil(SEGMENTS);
        let started = Instant::now();
        let mut done = 0;
        loop {
            // A round starts while the sibling hyperthread is idle.
            // Waiting comes out of the segment's time, so a run lasts
            // as long on a busy host as on a quiet one; once the time
            // is up, rounds still owed are run whatever the sibling
            // does.
            let left = budget.saturating_sub(started.elapsed());
            let wait = probe.wait_quiet(left);
            waited += wait;
            if wait >= left && done >= min_rounds {
                break;
            }
            let r = sys.round(false);
            cal.sample();
            tally.add(r.tally);
            rates.push(r.rate());
            keep_fastest(&mut best, &r);
            done += 1;
        }
        sys.teardown()?;
    }

    // What the host does to a run is one-sided (it only ever slows it
    // down) and comes in phases of seconds, so every estimator reads
    // the quiet side: the rate is the median of the fastest rounds,
    // latencies are pooled over those same rounds, and set-up time is
    // the lower quartile of the cycles. All are divided by the run's
    // one host factor.
    let f = cal.factor();
    let quiet_rate = median(&best.iter().map(|b| b.0).collect::<Vec<_>>());
    let mut lat: Vec<u32> = best.iter().flat_map(|b| b.1.iter().copied()).collect();
    lat.sort_unstable();
    let percentile_ms = |q: f64| percentile_sorted(&lat, q) as f64 / 1e6 / f;
    let setup = quartiles(&setups).q1;
    Ok(EndToEnd {
        throughput_ops_s: quiet_rate * f,
        op_p50_ms: percentile_ms(0.5),
        op_tail_ms: percentile_ms(w.tail_q()),
        setup_s: setup / f,
        tally,
        wall_throughput_ops_s: quiet_rate,
        wall_setup_s: setup,
        setup_first_s: setups[0],
        rates: quartiles(&rates.iter().map(|r| r * f).collect::<Vec<_>>()),
        host_factor: cal.factors(),
        rounds: rates.len(),
        ops_per_round: best[0].1.len(),
        quiet_samples: lat.len(),
        tail_samples_beyond: samples_beyond(lat.len(), w.tail_q()),
        waited_s: waited.as_secs_f64(),
    })
}

/// Rounds of a traced run, alternating spans-on and spans-off so that
/// drift hits both halves alike.
#[derive(Debug, Default)]
pub struct Traced {
    pub on: Vec<RoundOut>,
    pub off: Vec<RoundOut>,
    /// CPU seconds the process consumed over all these rounds.
    pub cpu_s: f64,
    pub tally: Tally,
}

impl Traced {
    /// All spans of the spans-on rounds.
    pub fn spans(&self) -> Vec<Span> {
        let mut all = Vec::new();
        for r in &self.on {
            crate::spans::merge(&mut all, r.spans.clone());
        }
        all
    }

    pub fn ops(&self) -> usize {
        self.on
            .iter()
            .chain(&self.off)
            .map(|r| r.lat_ns.len())
            .sum()
    }
}

/// Median rate of `rounds`.
pub fn median_rate(rounds: &[RoundOut]) -> f64 {
    median(&rounds.iter().map(RoundOut::rate).collect::<Vec<_>>())
}

/// One warm-up round, then `pairs` × (spans-on round, spans-off round).
pub fn traced_rounds(sys: &mut dyn System, pairs: usize) -> Traced {
    let mut t = Traced::default();
    t.tally.add(sys.round(false).tally);
    let cpu0 = crate::host::cpu_seconds().unwrap_or(0.0);
    for _ in 0..pairs {
        t.on.push(sys.round(true));
        t.off.push(sys.round(false));
    }
    t.cpu_s = crate::host::cpu_seconds().unwrap_or(0.0) - cpu0;
    for r in t.on.iter().chain(&t.off) {
        t.tally.add(r.tally);
    }
    t
}
