//! `dist_sort` and `dist_ngep`: fleet-wide network-oblivious kernels
//! on a 4-worker `LocalFleet` over loopback TCP, driven through
//! `Router::{run_sort, run_ngep}` and checked bit-for-bit against the
//! same program on the in-process `NoMachine`.
//!
//! * `dist_sort` is barrier-bound: 179 supersteps × 3 XOR rounds of
//!   ~15 words.
//! * `dist_ngep` is bandwidth- and compute-bound: 72 supersteps of
//!   ~800 words and ~29 k PE operations.

use std::time::Instant;

use mo_dist::{DistAlg, DistOutcome, LocalFleet, Router};
use mo_serve::{JobSpec, Outcome, Server};
use no_framework::algs::{ngep, sort};
use no_framework::NoMachine;

use crate::gen::{scenario_lines, SplitMix64, KSEEDS};
use crate::host::h2;
use crate::report::Metrics;
use crate::run::{traced_rounds, RoundOut, System, Tally, Traced, Workload};
use crate::spans::{self, Tracer};
use crate::stats::median;

const SORT: &str = include_str!("../scenarios/dist_sort.scn");
const NGEP: &str = include_str!("../scenarios/dist_ngep.scn");

pub const WORKERS: usize = 4;
/// Operations per round: ≈ 0.5 s at seed speed for either kernel.
const SORT_OPS: usize = 10;
const NGEP_OPS: usize = 24;

/// What the same program produced on `NoMachine`.
pub struct Reference {
    output: Vec<u64>,
    checksum: u64,
    signature: Vec<Vec<(u32, u32, u64)>>,
    pub supersteps: usize,
    /// PE-level words sent, all supersteps.
    pub words: u64,
    /// PE operations charged, all PEs.
    pub pe_ops: u64,
    /// Wall time of the in-process run.
    pub seconds: f64,
}

pub struct DistLoad {
    name: &'static str,
    alg: DistAlg,
    n: usize,
    kappa: usize,
    tail_q: f64,
    /// Data seed index of every operation of a round.
    ops: Vec<u8>,
    seeds: [u64; KSEEDS],
    expect: Vec<Reference>,
}

/// The reference run: the identical driver on the in-process machine.
pub fn reference(alg: DistAlg, n: usize, kappa: usize, seed: u64) -> Reference {
    let t = Instant::now();
    let (m, output) = match alg {
        DistAlg::Sort => {
            let input = mo_dist::data::sort_input(n, seed);
            let mut m = NoMachine::new(n);
            sort::sort_program(&mut m, &input);
            let out = (0..n).map(|pe| m.mem(pe)[0]).collect();
            (m, out)
        }
        DistAlg::Ngep => {
            let input = mo_dist::data::ngep_input(n, seed);
            let nb = n / kappa;
            let mut m = NoMachine::new(nb * nb);
            ngep::ngep_program_on(
                &mut m,
                &input,
                n,
                kappa,
                mo_dist::data::fw_update,
                ngep::UpdateSet::All,
                ngep::DOrder::DStar,
            );
            // Row-major bit patterns out of the Morton-ordered blocks,
            // as the router assembles the fleet's.
            let mut out = vec![0u64; n * n];
            for bi in 0..nb {
                for bj in 0..nb {
                    let block = m.mem(ngep::morton(bi, bj));
                    for i in 0..kappa {
                        let row = (bi * kappa + i) * n + bj * kappa;
                        out[row..row + kappa].copy_from_slice(&block[i * kappa..(i + 1) * kappa]);
                    }
                }
            }
            (m, out)
        }
    };
    let seconds = t.elapsed().as_secs_f64();
    Reference {
        checksum: mo_dist::data::checksum_words(output.iter().copied()),
        output,
        signature: m.traffic_signature(),
        supersteps: m.supersteps(),
        words: m.total_words(),
        pe_ops: m.computation_complexity(1),
        seconds,
    }
}

/// `(algorithm, n, kappa)` of a one-line dist scenario. The files are
/// compiled in, so a malformed one is a bug and panics.
fn parse_scenario(text: &str) -> (DistAlg, usize, usize) {
    let lines = scenario_lines(text);
    let (alg, n, kappa) = match lines.first().map(|t| &t[..]) {
        Some(["sort", n, _]) => (DistAlg::Sort, n.parse().ok(), Some(0)),
        Some(["ngep", n, k]) => (DistAlg::Ngep, n.parse().ok(), k.parse().ok()),
        _ => panic!("malformed dist scenario: {lines:?}"),
    };
    let (n, kappa) = n.zip(kappa).expect("dist scenario sizes are numbers");
    (alg, n, kappa)
}

impl DistLoad {
    fn new(name: &'static str, scenario: &str, ops: usize, tail_q: f64, seed: u64) -> Self {
        let (alg, n, kappa) = parse_scenario(scenario);
        let mut rng = SplitMix64::stream(seed, name);
        let seeds: [u64; KSEEDS] = std::array::from_fn(|_| rng.next_u64());
        let mut order: Vec<u8> = (0..ops).map(|i| (i % KSEEDS) as u8).collect();
        rng.shuffle(&mut order);
        Self {
            name,
            alg,
            n,
            kappa,
            tail_q,
            ops: order,
            expect: seeds.iter().map(|&s| reference(alg, n, kappa, s)).collect(),
            seeds,
        }
    }

    // p90 for both: the metrics are read from the five fastest rounds,
    // which leaves 5 sort and 12 N-GEP samples beyond the 90th
    // percentile; the N-GEP p95 moved 8 % from run to run.
    pub fn sort(seed: u64) -> Self {
        Self::new("dist_sort", SORT, SORT_OPS, 0.90, seed)
    }

    pub fn ngep(seed: u64) -> Self {
        Self::new("dist_ngep", NGEP, NGEP_OPS, 0.90, seed)
    }

    pub fn reference(&self) -> &Reference {
        &self.expect[0]
    }

    fn run(&self, router: &Router, kseed: usize) -> std::io::Result<DistOutcome> {
        match self.alg {
            DistAlg::Sort => router.run_sort(self.n, self.seeds[kseed]),
            DistAlg::Ngep => router.run_ngep(self.n, self.kappa, self.seeds[kseed]),
        }
    }

    /// Compare a fleet run with the reference: checksum, superstep
    /// count and send = receive conservation always; the whole output
    /// and the traffic signature too when `full`.
    fn check(
        &self,
        got: std::io::Result<DistOutcome>,
        kseed: usize,
        full: bool,
    ) -> Result<(), String> {
        let want = &self.expect[kseed];
        let got = got.map_err(|e| format!("{}: I/O error: {e}", self.name))?;
        let fail = |what: &str| Err(format!("{}: {what} differs from NoMachine", self.name));
        if got.checksum != want.checksum {
            return fail("output checksum");
        }
        if got.supersteps != want.supersteps {
            return fail("superstep count");
        }
        if got.socket_words_per_level != got.recv_words_per_level {
            return fail("words sent vs received per level (conservation)");
        }
        if full && got.output != want.output {
            return fail("output");
        }
        if full && got.signature != want.signature {
            return fail("traffic signature");
        }
        Ok(())
    }
}

fn spawn_fleet(trace: bool) -> Result<LocalFleet, String> {
    LocalFleet::spawn_with(WORKERS, |cfg| {
        cfg.hierarchy = Some(h2());
        cfg.trace = trace;
    })
    .map_err(|e| format!("fleet bootstrap: {e}"))
}

struct DistSystem<'a> {
    w: &'a DistLoad,
    fleet: LocalFleet,
    epoch: Instant,
    /// Per-level socket words of the last operation (an exact count).
    last_words: Vec<u64>,
}

impl<'a> DistSystem<'a> {
    fn start(w: &'a DistLoad, trace: bool) -> Result<Self, String> {
        Ok(Self {
            w,
            fleet: spawn_fleet(trace)?,
            epoch: Instant::now(),
            last_words: Vec::new(),
        })
    }
}

impl System for DistSystem<'_> {
    fn first_pass(&mut self) -> Tally {
        let mut tally = Tally::default();
        let got = self.w.run(self.fleet.router(), 0);
        tally.check(self.w.check(got, 0, true));
        tally
    }

    fn round(&mut self, spans_on: bool) -> RoundOut {
        let mut out = RoundOut::default();
        let mut tr = Tracer::new(spans_on, self.epoch);
        let start = Instant::now();
        for (i, &kseed) in self.w.ops.iter().enumerate() {
            let t0 = Instant::now();
            let got = self.w.run(self.fleet.router(), kseed as usize);
            let t1 = Instant::now();
            if let Ok(o) = &got {
                self.last_words.clone_from(&o.socket_words_per_level);
            }
            out.tally.check(self.w.check(got, kseed as usize, false));
            let t2 = Instant::now();
            out.lat_ns.push((t2 - t0).as_nanos() as u64);
            tr.op(
                i as u32,
                0,
                0,
                &[spans::DIST_RUN, spans::CHECK],
                &[t0, t1, t2],
            );
        }
        out.wall = start.elapsed();
        out.spans = tr.spans;
        out
    }

    fn teardown(self: Box<Self>) -> Result<(), String> {
        self.fleet
            .shutdown()
            .map_err(|e| format!("fleet shutdown: {e}"))
    }
}

impl Workload for DistLoad {
    fn name(&self) -> &'static str {
        self.name
    }

    fn tail_q(&self) -> f64 {
        self.tail_q
    }

    fn build(&self) -> Result<Box<dyn System + '_>, String> {
        Ok(Box::new(DistSystem::start(self, false)?))
    }

    fn corrupt_expectation(&mut self) {
        // The first pass runs data seed 0; falsify its whole reference.
        self.expect[0].output[0] ^= 1;
        self.expect[0].checksum ^= 1;
    }
}

/// `netobliv.*`: both programs on the in-process machine.
pub fn netobliv_metrics(m: &mut Metrics) -> (f64, f64) {
    let mut probe = |tag: &str, scenario: &str| {
        let (alg, n, kappa) = parse_scenario(scenario);
        let runs: Vec<Reference> = (0..5).map(|i| reference(alg, n, kappa, i)).collect();
        let secs = median(&runs.iter().map(|r| r.seconds).collect::<Vec<_>>());
        let r = &runs[0];
        m.put(
            format!("netobliv.{tag}.us_per_superstep"),
            secs * 1e6 / r.supersteps as f64,
            "us",
        );
        m.put(
            format!("netobliv.{tag}.supersteps"),
            r.supersteps as f64,
            "count",
        );
        m.put(format!("netobliv.{tag}.words"), r.words as f64, "count");
        (secs, r.pe_ops)
    };
    let (sort_s, _) = probe("sort", SORT);
    let (ngep_s, pe_ops) = probe("ngep", NGEP);
    m.put("netobliv.ngep.pe_ops", pe_ops as f64, "count");
    (sort_s, ngep_s)
}

/// Median wall time of `f`, in the unit `scale` converts seconds to.
fn timed_median(reps: usize, scale: f64, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * scale
        })
        .collect();
    median(&samples)
}

/// The frame codec through an in-memory buffer: one ~800-word data
/// frame (the N-GEP superstep size) and one small control message.
fn frame_metrics(m: &mut Metrics) {
    use mo_dist::frame::{recv_ctl, recv_data, send_ctl, send_data};
    const WORDS: usize = 800;
    let msgs: Vec<mo_dist::Msg> = (0..WORDS as u32).map(|i| (i, i ^ 1, i as u64)).collect();
    let mut buf = Vec::with_capacity(WORDS * 16 + 64);
    let ns = timed_median(2001, 1e9, || {
        buf.clear();
        send_data(&mut buf, 7, 1, &msgs).expect("encode into memory");
        let back = recv_data(&mut &buf[..]).expect("decode from memory");
        assert_eq!(back.2.len(), WORDS);
    });
    m.put("dist.frame.data_ns_per_word", ns / WORDS as f64, "ns");
    let ctl = mo_dist::Ctl::RunDist {
        alg: DistAlg::Sort,
        n: 1024,
        kappa: 0,
        seed: 1,
        job: 1,
    };
    let ns = timed_median(20001, 1e9, || {
        buf.clear();
        send_ctl(&mut buf, &ctl).expect("encode into memory");
        std::hint::black_box(recv_ctl(&mut &buf[..]).expect("decode from memory"));
    });
    m.put("dist.frame.ctl_ns", ns, "ns");
}

/// `dist.*` from spans-on rounds of `w`, a traced fleet, and
/// entry-point differencing for the router hop. `nomachine_s` is the
/// wall time of the same operation on `NoMachine`.
pub fn layer_metrics(
    w: &DistLoad,
    pairs: usize,
    nomachine_s: f64,
    m: &mut Metrics,
) -> Result<Traced, String> {
    let boot = Instant::now();
    let mut sys = DistSystem::start(w, false)?;
    m.put(
        "dist.bootstrap_ms",
        boot.elapsed().as_secs_f64() * 1e3,
        "ms",
    );
    let traced = traced_rounds(&mut sys, pairs);
    let run_ns = spans::durations(&traced.spans(), spans::DIST_RUN);
    let op_s = run_ns[run_ns.len() / 2] as f64 / 1e9;
    let want = w.reference();
    let words: u64 = sys.last_words.iter().sum();
    m.put(
        "dist.us_per_superstep",
        op_s * 1e6 / want.supersteps as f64,
        "us",
    );
    m.put("dist.words_per_s", words as f64 / op_s, "1/s");
    m.put("dist.socket_overhead_ratio", op_s / nomachine_s, "ratio");
    m.put("dist.supersteps_per_op", want.supersteps as f64, "count");
    for level in 0..2 {
        m.put(
            format!("dist.words_per_op.level{level}"),
            sys.last_words.get(level).copied().unwrap_or(0) as f64,
            "count",
        );
    }

    let router = sys.fleet.router();
    m.put(
        "dist.fleet_metrics_ms",
        timed_median(5, 1e3, || {
            std::hint::black_box(router.fleet_metrics().expect("fleet metrics"));
        }),
        "ms",
    );
    // Router hop = a routed job's round trip minus the same job on a
    // local server.
    let mut tally = traced.tally;
    let mut seed = 0;
    let rtt_us = timed_median(301, 1e6, || {
        seed += 1;
        let routed = router.submit("scan", 64, seed);
        tally.check(match routed {
            Ok((_, Ok(_))) => Ok(()),
            other => Err(format!("routed scan 64: {other:?}")),
        });
    });
    let local = Server::start(h2(), Default::default());
    let local_us = timed_median(301, 1e6, || {
        seed += 1;
        let done = local
            .submit(JobSpec::new(mo_serve::Kernel::Scan, 64, seed))
            .map(|t| t.wait());
        tally.check(match done {
            Ok(Outcome::Done(_)) => Ok(()),
            other => Err(format!("local scan 64: {other:?}")),
        });
    });
    local.drain();
    m.put("dist.router.submit_rtt_us", rtt_us, "us");
    m.put("dist.router.hop_us", rtt_us - local_us, "us");

    let down = Instant::now();
    Box::new(sys).teardown()?;
    m.put("dist.shutdown_ms", down.elapsed().as_secs_f64() * 1e3, "ms");

    // The same operations on a fleet that traces itself: the existing
    // collect_trace + fleet::summarize give the barrier-wait share.
    let mut traced_sys = DistSystem::start(w, true)?;
    traced_sys.round(false); // warm-up
    traced_sys
        .fleet
        .router()
        .collect_trace()
        .map_err(|e| format!("collect_trace: {e}"))?;
    let (mut wall_ns, mut wait_ns, mut lat) = (0u64, 0u64, Vec::new());
    for _ in 0..pairs.max(1) {
        let r = traced_sys.round(false);
        tally.add(r.tally);
        wall_ns += r.wall.as_nanos() as u64;
        lat.extend(r.lat_ns.iter().map(|&ns| ns as f64 / 1e9));
        // Collected every round: the rings are sized for seconds, not
        // minutes, of supersteps.
        let streams = traced_sys
            .fleet
            .router()
            .collect_trace()
            .map_err(|e| format!("collect_trace: {e}"))?;
        let summary = mo_obs::fleet::summarize(&streams);
        wait_ns += summary.barrier_wait_ns.values().sum::<u64>();
    }
    Box::new(traced_sys).teardown()?;
    m.put(
        "dist.barrier_wait_share",
        wait_ns as f64 / (wall_ns as f64 * WORKERS as f64),
        "ratio",
    );
    m.put("dist.trace_overhead_ratio", median(&lat) / op_s, "ratio");
    frame_metrics(m);
    Ok(Traced { tally, ..traced })
}
