//! The router: fleet bootstrap, consistent-hash job routing, fleet-wide
//! kernel orchestration, and the merged Prometheus fleet view.
//!
//! The router owns one control stream per shard. Single-shard jobs are
//! consistent-hashed ([`HashRing`]) to a shard whose embedded
//! `mo-serve` server makes the admission decision; fleet jobs broadcast
//! to every shard, which then run the D-BSP supersteps among themselves
//! over the data mesh while the router reads the per-shard results,
//! one after another into one kept buffer, and assembles output,
//! traffic signature, and per-level socket traffic as it decodes them:
//! each shard's signature rows are checked in one pass and kept as the
//! varint bytes they arrived as ([`Signature`]).

use std::io;
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use mo_obs::fleet::WorkerStream;
use no_framework::{level_counters, Partition};

use crate::alg::DistAlg;
use crate::data;
use crate::frame::{
    decode_done_head, in_context, invalid, recv_ctl, recv_reply, send_ctl, unexpected, Ctl, Dec,
    Reply,
};
use crate::signature::Signature;
use crate::topology::{job_key, HashRing};
use crate::worker::MESH_IO_TIMEOUT;

/// A running fleet `/metrics` endpoint ([`Router::serve_fleet_metrics`]):
/// the one exposition server in `mo-obs`, rendering
/// [`Router::fleet_metrics`] per scrape. Dropping the handle stops it.
pub use mo_obs::expose::Exposition as FleetExposition;

/// One connected shard.
struct Shard {
    ctrl: TcpStream,
    data_addr: String,
}

/// One worker's clock calibration, estimated NTP-style over the
/// control channel: `offset_ns` is the worker's sink clock minus the
/// router's reference clock at the minimum-RTT probe (the sample whose
/// symmetric-delay assumption is tightest — its error is bounded by
/// `rtt_ns / 2`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClockCal {
    /// Worker clock minus router reference clock, nanoseconds.
    pub offset_ns: i64,
    /// Round-trip time of the winning probe, nanoseconds.
    pub rtt_ns: u64,
}

/// The error every [`Router`] call returns once a control channel has
/// fallen out of step: a call could not send its request to every shard
/// it meant to reach, or could not read a whole reply from one of them,
/// so a later call could read a reply meant for an earlier one. Such a
/// fleet is not used again; build a new one. It travels as the payload
/// of an [`io::Error`] of kind `Other` (`err.get_ref()` downcasts to it).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetPoisoned {
    /// The error that put the channels out of step.
    pub cause: String,
}

impl std::fmt::Display for FleetPoisoned {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "fleet control channels out of step since: {}",
            self.cause
        )
    }
}

impl std::error::Error for FleetPoisoned {}

/// Pseudo-shard id in the top 16 bits of router-minted request trace
/// ids. Worker-local servers use their real shard index (`< 0xFFFF`),
/// so the namespaces never collide.
const ROUTER_SHARD: u64 = 0xFFFF;

struct Inner {
    shards: Vec<Shard>,
    ring: HashRing,
    jobs_routed: Vec<u64>,
    dist_jobs: u64,
    /// Sequence behind router-minted request trace ids. Routed jobs get
    /// `(ROUTER_SHARD << 48) | seq`, a namespace no worker-local server
    /// can mint, so one request keeps one span across the fleet.
    next_req: u64,
    /// The router's reference clock (all corrected fleet timestamps are
    /// nanoseconds since this instant). Monotonic — never wall clock.
    epoch: Instant,
    /// Per-worker calibration from [`Router::calibrate_clocks`]; empty
    /// until calibrated (trace merges then assume zero offset).
    calibration: Vec<ClockCal>,
    /// Lateness aggregates of the last collected fleet trace, exported
    /// as barrier-wait histogram families in the merged fleet view.
    last_trace: Option<mo_obs::fleet::FleetSummary>,
    /// Kept across fleet jobs: the buffer every shard's result frame is
    /// read into, one shard after another, and the PE memories of the
    /// job being assembled (`keep` words a PE, in PE order).
    reply: Vec<u8>,
    mem_words: Vec<u64>,
    /// Set when a control exchange failed part way ([`FleetPoisoned`]).
    poisoned: Option<String>,
}

impl Inner {
    /// `Err(`[`FleetPoisoned`]`)` once a control channel fell out of step.
    fn in_step(&self) -> io::Result<()> {
        match &self.poisoned {
            Some(cause) => Err(io::Error::other(FleetPoisoned {
                cause: cause.clone(),
            })),
            None => Ok(()),
        }
    }
}

/// `e`, after marking the fleet poisoned with it: it broke a control
/// exchange part way.
fn poison(poisoned: &mut Option<String>, e: io::Error) -> io::Error {
    poisoned.get_or_insert_with(|| e.to_string());
    e
}

/// Send `msg` on `ctrl` and read its reply, under the same rule as a
/// fleet job: a request that cannot be sent or a reply that cannot be
/// read whole poisons the fleet; a whole reply that is no control
/// message is `InvalidData`, and the channel stays in step.
fn exchange(ctrl: &mut TcpStream, poisoned: &mut Option<String>, msg: &Ctl) -> io::Result<Ctl> {
    let mut buf = Vec::new();
    let reply = send_ctl(ctrl, msg).and_then(|()| recv_reply(ctrl, &mut buf));
    match reply.map_err(|e| poison(poisoned, e))? {
        Reply::Other(msg) => Ok(msg),
        Reply::Malformed(e) => Err(e),
        Reply::Done(_) => Err(invalid("expected a control message, got a result frame")),
    }
}

/// The assembled result of one fleet-wide kernel run.
#[derive(Debug, Clone)]
pub struct DistOutcome {
    /// FNV-1a checksum of the assembled output words.
    pub checksum: u64,
    /// Supersteps executed (identical on every shard by construction).
    pub supersteps: usize,
    /// The machine-wide per-superstep traffic signature: every shard's
    /// sorted src-side rows, checked and kept in worker order as the
    /// shards sent them — equal row for row to
    /// [`no_framework::NoMachine::traffic_signature`] on a clean run.
    pub signature: Signature,
    /// Assembled output words in problem order (sort keys, or the
    /// row-major `f64` bit patterns of the N-GEP matrix).
    pub output: Vec<u64>,
    /// Payload words actually framed between workers, by D-BSP cluster
    /// level, summed over senders.
    pub socket_words_per_level: Vec<u64>,
    /// Payload words actually delivered, by D-BSP cluster level, summed
    /// over receivers. [`Router::run`] enforces per-level equality with
    /// `socket_words_per_level` (the fleet conservation invariant).
    pub recv_words_per_level: Vec<u64>,
    /// Total PE operations charged across the fleet.
    pub ops: u64,
    /// Frame exchanges each worker performed (index order): one per
    /// in-scope peer per superstep, an exact function of
    /// `(kernel, n, W)`.
    pub exchange_rounds: Vec<u64>,
    /// The router-assigned fleet-unique job id this run carried (the
    /// `job` stamp on every dist trace event it produced).
    pub job: u64,
}

/// The fleet front-end. All methods take `&self`; control-channel I/O
/// is serialized through an internal lock (scrapes and jobs interleave
/// but never interleave *within* one exchange).
pub struct Router {
    inner: Arc<Mutex<Inner>>,
    workers: usize,
}

impl Router {
    /// Accept `workers` shard registrations on `listener`, then
    /// broadcast the peer table that lets the shards build their data
    /// mesh. Returns once the fleet is fully connected. A peer that
    /// connects and then falls silent for [`MESH_IO_TIMEOUT`] before
    /// its [`Ctl::Hello`] is complete fails the bootstrap as
    /// `TimedOut`, naming its address.
    pub fn accept_fleet(listener: &TcpListener, workers: usize) -> io::Result<Router> {
        Self::accept_fleet_within(listener, workers, MESH_IO_TIMEOUT)
    }

    /// [`accept_fleet`](Self::accept_fleet) with `bound` on each
    /// shard's `Hello`.
    pub(crate) fn accept_fleet_within(
        listener: &TcpListener,
        workers: usize,
        bound: Duration,
    ) -> io::Result<Router> {
        assert!(workers >= 1 && workers.is_power_of_two());
        let mut slots: Vec<Option<Shard>> = (0..workers).map(|_| None).collect();
        for _ in 0..workers {
            let (mut ctrl, peer) = listener.accept()?;
            ctrl.set_nodelay(true)?;
            // Bounded while the peer has yet to say who it is; a shard's
            // control stream then waits on jobs with no timeout.
            ctrl.set_read_timeout(Some(bound))?;
            let hello = recv_ctl(&mut ctrl)
                .map_err(|e| in_context(e, format_args!("fleet bootstrap: peer {peer}")))?;
            ctrl.set_read_timeout(None)?;
            match hello {
                Ctl::Hello { index, data_addr } => {
                    let i = index as usize;
                    if i >= workers || slots[i].is_some() {
                        return Err(invalid(format!("bad or duplicate worker index {i}")));
                    }
                    slots[i] = Some(Shard { ctrl, data_addr });
                }
                other => return Err(unexpected("Hello", &other)),
            }
        }
        let mut shards: Vec<Shard> = slots
            .into_iter()
            .map(|s| s.expect("all slots filled"))
            .collect();
        let addrs: Vec<String> = shards.iter().map(|s| s.data_addr.clone()).collect();
        for shard in &mut shards {
            send_ctl(
                &mut shard.ctrl,
                &Ctl::PeerTable {
                    addrs: addrs.clone(),
                },
            )?;
        }
        Ok(Router {
            inner: Arc::new(Mutex::new(Inner {
                ring: HashRing::new(0..workers as u32, 64),
                jobs_routed: vec![0; workers],
                dist_jobs: 0,
                next_req: 0,
                epoch: Instant::now(),
                calibration: Vec::new(),
                last_trace: None,
                reply: Vec::new(),
                mem_words: Vec::new(),
                poisoned: None,
                shards,
            })),
            workers,
        })
    }

    /// Fleet size.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Route one single-shard kernel job by consistent hash; the shard's
    /// own SB admission accepts or sheds it. Returns the shard index and
    /// the job's outcome (`Err` carries the shard's typed-shed name).
    pub fn submit(
        &self,
        kernel: &str,
        n: u64,
        seed: u64,
    ) -> io::Result<(usize, Result<u64, String>)> {
        let mut guard = self.inner.lock().unwrap();
        let inner = &mut *guard;
        inner.in_step()?;
        let shard = inner.ring.route(job_key(kernel, n, seed)) as usize;
        inner.jobs_routed[shard] += 1;
        inner.next_req += 1;
        let req = (ROUTER_SHARD << 48) | inner.next_req;
        let run = Ctl::RunKernel {
            kernel: kernel.to_string(),
            n,
            seed,
            req,
        };
        match exchange(&mut inner.shards[shard].ctrl, &mut inner.poisoned, &run)? {
            Ctl::KernelDone { result } => Ok((shard, result)),
            other => Err(unexpected("KernelDone", &other)),
        }
    }

    /// Run fleet program `alg` at size `n` (N-GEP block side `kappa`,
    /// ignored by sort) on input `seed` across every shard: each worker
    /// runs [`DistAlg::run`] over its PE range of
    /// [`DistAlg::shape`]`(n, kappa).0` PEs, and the router assembles
    /// the outcome. A failed run on any shard is one `io::Error` naming
    /// each failed worker; a result that breaks the protocol (a foreign
    /// PE range, a diverging superstep count, rows the signature cannot
    /// take as they are, a reply that is no result) is `InvalidData`
    /// naming its worker. Either way the router has read one whole reply
    /// from every shard. A request it could not send, or a reply it
    /// could not read whole, poisons the fleet instead ([`FleetPoisoned`]).
    pub fn run(&self, alg: DistAlg, n: usize, kappa: usize, seed: u64) -> io::Result<DistOutcome> {
        let mut guard = self.inner.lock().unwrap();
        let inner = &mut *guard;
        inner.in_step()?;
        inner.dist_jobs += 1;
        let job = inner.dist_jobs;
        let msg = Ctl::RunDist {
            alg,
            n: n as u64,
            kappa: kappa as u32,
            seed,
            job,
        };
        // A shard the request reached would run the job with peers it
        // never reached and answer only after a mesh timeout, if at all:
        // a failed send poisons the fleet instead of waiting on them.
        let sent = inner
            .shards
            .iter_mut()
            .try_for_each(|s| send_ctl(&mut s.ctrl, &msg));
        sent.map_err(|e| poison(&mut inner.poisoned, e))?;
        // Every shard answers exactly once, done or failed; read them
        // all so the control channels stay in step after a failed run
        // or a refused result.
        let mut job_out = Assembly::new(alg, n, kappa, self.workers, &mut inner.mem_words);
        let mut failures = Vec::new();
        let mut refused = None;
        for (w, shard) in inner.shards.iter_mut().enumerate() {
            let reply = recv_reply(&mut shard.ctrl, &mut inner.reply);
            let reply = reply.map_err(|e| poison(&mut inner.poisoned, e))?;
            let named = |e| in_context(e, format_args!("worker {w}"));
            match reply {
                Reply::Done(mut d) if refused.is_none() => refused = job_out.add(w, &mut d).err(),
                Reply::Done(_) => {}
                Reply::Other(Ctl::DistFailed { reason }) => {
                    failures.push(format!("worker {w}: {reason}"));
                }
                Reply::Other(other) => {
                    refused.get_or_insert(named(unexpected("a result frame", &other)));
                }
                Reply::Malformed(e) => {
                    refused.get_or_insert(named(e));
                }
            }
        }
        if !failures.is_empty() {
            return Err(io::Error::other(format!(
                "distributed run failed: {}",
                failures.join("; ")
            )));
        }
        match refused {
            Some(e) => Err(e),
            None => job_out.finish(job),
        }
    }

    /// Estimate every worker's sink-clock offset against the router's
    /// reference clock, NTP-style: `probes` round trips per worker over
    /// the control channel, keeping the minimum-RTT sample (offset =
    /// worker time minus the probe's send/receive midpoint). All clocks
    /// are monotonic `Instant`s — calibration neither reads wall time
    /// nor perturbs the data mesh. The result is also retained for
    /// [`collect_trace`](Self::collect_trace).
    pub fn calibrate_clocks(&self, probes: u32) -> io::Result<Vec<ClockCal>> {
        let mut guard = self.inner.lock().unwrap();
        let inner = &mut *guard;
        inner.in_step()?;
        let epoch = inner.epoch;
        let mut cals = Vec::with_capacity(inner.shards.len());
        for shard in &mut inner.shards {
            let mut best = ClockCal {
                offset_ns: 0,
                rtt_ns: u64::MAX,
            };
            for seq in 0..probes.max(1) {
                let t0 = epoch.elapsed().as_nanos() as u64;
                let probe = Ctl::ClockProbe { seq };
                let t_ns = match exchange(&mut shard.ctrl, &mut inner.poisoned, &probe)? {
                    Ctl::ClockReply { seq: got, t_ns } if got == seq => t_ns,
                    other => return Err(unexpected(&format!("ClockReply({seq})"), &other)),
                };
                let t3 = epoch.elapsed().as_nanos() as u64;
                let rtt = t3.saturating_sub(t0);
                if rtt < best.rtt_ns {
                    best = ClockCal {
                        offset_ns: t_ns as i64 - ((t0 + t3) / 2) as i64,
                        rtt_ns: rtt,
                    };
                }
            }
            cals.push(best);
        }
        inner.calibration = cals.clone();
        Ok(cals)
    }

    /// Drain every worker's dist trace sink and ship the streams home,
    /// tagged with the calibration from the last
    /// [`calibrate_clocks`](Self::calibrate_clocks) (zero offsets when
    /// never calibrated). Prints a warning to stderr for any stream
    /// that reports ring drops — a merged timeline with silent holes is
    /// worse than a noisy one.
    pub fn collect_trace(&self) -> io::Result<Vec<WorkerStream>> {
        let mut guard = self.inner.lock().unwrap();
        let inner = &mut *guard;
        inner.in_step()?;
        let cals = inner.calibration.clone();
        let mut streams = Vec::with_capacity(inner.shards.len());
        for (w, shard) in inner.shards.iter_mut().enumerate() {
            let reply = exchange(&mut shard.ctrl, &mut inner.poisoned, &Ctl::CollectTrace)?;
            let (dropped, events) = match reply {
                Ctl::TraceData { dropped, events } => (dropped, events),
                other => return Err(unexpected("TraceData", &other)),
            };
            if dropped > 0 {
                eprintln!(
                    "mo-dist: warning: worker {w} trace stream reports {dropped} dropped \
                     event(s); the merged timeline has holes"
                );
            }
            let cal = cals.get(w).copied().unwrap_or(ClockCal {
                offset_ns: 0,
                rtt_ns: 0,
            });
            streams.push(WorkerStream {
                worker: w as u32,
                offset_ns: cal.offset_ns,
                rtt_ns: cal.rtt_ns,
                dropped,
                events,
            });
        }
        inner.last_trace = Some(mo_obs::fleet::summarize(&streams));
        Ok(streams)
    }

    /// [`run`](Self::run) of [`DistAlg::Ngep`].
    pub fn run_ngep(&self, n: usize, kappa: usize, seed: u64) -> io::Result<DistOutcome> {
        self.run(DistAlg::Ngep, n, kappa, seed)
    }

    /// [`run`](Self::run) of [`DistAlg::Sort`].
    pub fn run_sort(&self, n: usize, seed: u64) -> io::Result<DistOutcome> {
        self.run(DistAlg::Sort, n, 0, seed)
    }

    /// The merged fleet Prometheus view: every shard's exposition with a
    /// `shard` label prepended to each sample, plus the router's own
    /// routing counters.
    pub fn fleet_metrics(&self) -> io::Result<String> {
        let mut guard = self.inner.lock().unwrap();
        let inner = &mut *guard;
        inner.in_step()?;
        let mut texts = Vec::with_capacity(inner.shards.len());
        for shard in &mut inner.shards {
            match exchange(&mut shard.ctrl, &mut inner.poisoned, &Ctl::MetricsReq)? {
                Ctl::MetricsText { text } => texts.push(text),
                other => return Err(unexpected("MetricsText", &other)),
            }
        }
        let mut p = mo_obs::prom::PromText::new();
        p.gauge("modist_fleet_workers", "Number of connected shards.")
            .u64(&[], inner.shards.len() as u64);
        let mut f = p.counter(
            "modist_jobs_routed_total",
            "Single-shard jobs routed by consistent hash, per shard.",
        );
        for (i, &jobs) in inner.jobs_routed.iter().enumerate() {
            f.u64(&[("shard", &i.to_string())], jobs);
        }
        p.counter(
            "modist_fleet_dist_jobs_total",
            "Fleet-wide distributed kernel runs.",
        )
        .u64(&[], inner.dist_jobs);
        if let Some(tr) = &inner.last_trace {
            let mut f = p.histogram(
                "modist_barrier_wait_seconds",
                "Per-round barrier wait (lateness) per worker, from the last collected fleet trace.",
            );
            for (w, hist) in &tr.barrier_hist {
                f.hist(&[("worker", &w.to_string())], hist, 1e9);
            }
        }
        for (i, text) in texts.iter().enumerate() {
            let shard = i.to_string();
            let samples = mo_obs::prom::parse(text).map_err(invalid)?;
            for s in &samples {
                let mut labels: Vec<(&str, &str)> = vec![("shard", &shard)];
                labels.extend(s.labels.iter().map(|(k, v)| (k.as_str(), v.as_str())));
                p.sample(&s.name, &labels, s.value);
            }
        }
        Ok(p.finish())
    }

    /// Serve [`fleet_metrics`](Self::fleet_metrics) over HTTP on `addr`
    /// (`GET /metrics`, text format 0.0.4). Each scrape pulls fresh
    /// per-shard expositions over the control channels.
    pub fn serve_fleet_metrics(&self, addr: impl ToSocketAddrs) -> io::Result<FleetExposition> {
        let router = Router {
            inner: Arc::clone(&self.inner),
            workers: self.workers,
        };
        FleetExposition::bind(addr, "mo-dist-fleet-metrics", move || {
            router.fleet_metrics()
        })
    }

    /// Stop every worker (best effort) and drop the control channels.
    pub fn shutdown(self) {
        let mut inner = self.inner.lock().unwrap();
        for shard in &mut inner.shards {
            let _ = send_ctl(&mut shard.ctrl, &Ctl::Shutdown);
        }
    }
}

/// One fleet job's outcome, built from the shards' results in worker
/// order as each arrives.
struct Assembly<'a> {
    alg: DistAlg,
    n: usize,
    kappa: usize,
    part: Partition,
    /// Output words per PE.
    keep: usize,
    /// Every PE's `keep` words, in PE order (kept by the router).
    mem_words: &'a mut Vec<u64>,
    /// The PE memory lengths of the shard being decoded.
    mem_lens: Vec<usize>,
    /// Worker 0's count, which every later shard must match.
    supersteps: Option<u32>,
    signature: Signature,
    socket_words_per_level: Vec<u64>,
    recv_words_per_level: Vec<u64>,
    ops: u64,
    exchange_rounds: Vec<u64>,
}

impl<'a> Assembly<'a> {
    fn new(
        alg: DistAlg,
        n: usize,
        kappa: usize,
        workers: usize,
        mem_words: &'a mut Vec<u64>,
    ) -> Self {
        let (n_pes, keep) = alg.shape(n, kappa);
        mem_words.clear();
        let levels = level_counters(workers);
        Self {
            alg,
            n,
            kappa,
            part: Partition::new(n_pes, workers),
            keep,
            mem_words,
            mem_lens: Vec::new(),
            supersteps: None,
            signature: Signature::default(),
            socket_words_per_level: vec![0; levels],
            recv_words_per_level: vec![0; levels],
            ops: 0,
            exchange_rounds: Vec::with_capacity(workers),
        }
    }

    /// Decode worker `w`'s result frame from `d` (behind its tag) onto
    /// the outcome. Shards arrive in worker order and own ascending PE
    /// ranges, and each shard's engine sorted its rows, so appending a
    /// shard's rows to each superstep keeps the machine-wide rows
    /// sorted — checked, not re-sorted
    /// ([`Signature::push_shard`]): a superstep whose rows are not
    /// strictly ascending by `(src, dst)`, whose `src` leaves the
    /// shard's range or whose `dst` is not a PE is `InvalidData` naming
    /// the worker and the superstep.
    fn add(&mut self, w: usize, d: &mut Dec<'_>) -> io::Result<()> {
        self.mem_lens.clear();
        let done = decode_done_head(d, self.mem_words, &mut self.mem_lens)?;
        let range = self.part.range(w);
        let (lo, hi) = (done.lo, done.hi);
        if (lo as usize, hi as usize) != (range.start, range.end)
            || self.mem_lens.len() != range.len()
        {
            return Err(invalid(format!("worker {w} returned a foreign PE range")));
        }
        if self.mem_lens.iter().any(|&len| len != self.keep) {
            return Err(invalid(format!(
                "worker {w} returned PE memories that are not {} words",
                self.keep
            )));
        }
        let supersteps = *self.supersteps.get_or_insert(done.supersteps);
        if done.supersteps != supersteps {
            return Err(invalid(format!(
                "superstep counts diverged: worker {w} ran {}, worker 0 ran {supersteps}",
                done.supersteps
            )));
        }
        let levels = self.socket_words_per_level.len();
        if done.socket_words_per_level.len() != levels || done.recv_words_per_level.len() != levels
        {
            return Err(invalid(format!(
                "worker {w} counted words on other than {levels} levels"
            )));
        }
        let n_pes = self.part.n_pes as u32;
        self.signature
            .push_shard(d, w, lo..hi, n_pes, supersteps as usize, self.part.workers)?;
        d.end()?;
        for (sum, &words) in self
            .socket_words_per_level
            .iter_mut()
            .zip(&done.socket_words_per_level)
        {
            *sum += words;
        }
        for (sum, &words) in self
            .recv_words_per_level
            .iter_mut()
            .zip(&done.recv_words_per_level)
        {
            *sum += words;
        }
        self.ops += done.ops;
        self.exchange_rounds.push(done.exchange_rounds);
        Ok(())
    }

    /// The machine-wide outcome, once every shard has been added.
    fn finish(self, job: u64) -> io::Result<DistOutcome> {
        // Conservation: every word framed to a level must have been
        // delivered from that level somewhere in the fleet (frames carry
        // their level stamp and receivers validate it, so a mismatch means
        // a lost or double-counted frame).
        if self.socket_words_per_level != self.recv_words_per_level {
            return Err(invalid(format!(
                "send/recv word conservation violated: sent {:?}, delivered {:?}",
                self.socket_words_per_level, self.recv_words_per_level
            )));
        }
        let (words, keep) = (&self.mem_words[..], self.keep);
        let output = self
            .alg
            .gather(self.n, self.kappa, |pe| &words[pe * keep..(pe + 1) * keep]);
        Ok(DistOutcome {
            checksum: data::checksum_words(output.iter().copied()),
            supersteps: self.supersteps.unwrap_or(0) as usize,
            signature: self.signature,
            output,
            socket_words_per_level: self.socket_words_per_level,
            recv_words_per_level: self.recv_words_per_level,
            ops: self.ops,
            exchange_rounds: self.exchange_rounds,
            job,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{Enc, Msg};
    use no_framework::codec::put_rows;
    use std::sync::mpsc;
    use std::thread;

    /// Worker `w`'s result for the NO sort of 16 keys on two workers,
    /// with `rows` as its signature rows, as it comes off the wire
    /// behind its tag.
    fn sort16_done(w: usize, rows: &[Vec<Msg>]) -> Vec<u8> {
        let lo = 8 * w as u32;
        let mut traffic = Vec::new();
        for step in rows {
            put_rows(&mut traffic, lo, step);
        }
        let done = crate::DistDone {
            supersteps: rows.len() as u32,
            lo,
            hi: lo + 8,
            socket_words_per_level: vec![0],
            recv_words_per_level: vec![0],
            ops: 0,
            exchange_rounds: 0,
        };
        let mems: Vec<Vec<u64>> = (lo..lo + 8).map(|pe| vec![pe as u64]).collect();
        let mut frame = Vec::new();
        Enc::new()
            .dist_done(&done, &mems, 1, &traffic)
            .send(&mut frame)
            .expect("into memory");
        frame.split_off(5)
    }

    /// Shards' rows are checked and appended, never sorted: honest
    /// shards assemble to the simulator's signature; rows out of order,
    /// from a PE the shard does not own, or to a PE that does not exist
    /// are `InvalidData` naming the worker and the superstep; and seeded
    /// damage to an honest result is an error or a result, never a
    /// panic.
    #[test]
    fn assembly_checks_each_shards_rows_instead_of_sorting() {
        let (sim, _) = DistAlg::Sort.reference(16, 0, 3);
        let signature = sim.traffic_signature();
        let honest: Vec<Vec<Vec<Msg>>> = (0..2u32)
            .map(|w| {
                let mine = |r: &&Msg| r.0 / 8 == w;
                signature
                    .iter()
                    .map(|rows| rows.iter().filter(mine).copied().collect())
                    .collect()
            })
            .collect();
        let assemble = |second: &[Vec<Msg>]| {
            let mut words = Vec::new();
            let mut job = Assembly::new(DistAlg::Sort, 16, 0, 2, &mut words);
            job.add(0, &mut Dec::new(&sort16_done(0, &honest[0])))?;
            job.add(1, &mut Dec::new(&sort16_done(1, second)))?;
            job.finish(1).map(|o| o.signature)
        };
        assert_eq!(assemble(&honest[1]).expect("honest shards"), signature);

        let step = honest[1]
            .iter()
            .position(|r| r.len() >= 2)
            .expect("a busy step");
        let forge = |f: fn(&mut Vec<Msg>)| {
            let mut rows = honest[1].clone();
            f(&mut rows[step]);
            rows
        };
        for (what, rows) in [
            ("descending", forge(|r| r.swap(0, 1))),
            ("a repeated pair", forge(|r| r[1] = r[0])),
            ("a foreign src", forge(|r| r.insert(0, (3, 9, 1)))),
            ("a dst past the PEs", forge(|r| r.push((15, 16, 1)))),
        ] {
            let err = assemble(&rows).expect_err(what);
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{what}: {err}");
            let named = format!("worker 1 superstep {step}:");
            assert!(err.to_string().starts_with(&named), "{what}: {err}");
        }

        let good = sort16_done(0, &honest[0]);
        let mut x = 0x5eedu64;
        for _ in 0..500 {
            let mut bad = good.clone();
            for _ in 0..3 {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let at = (x >> 33) as usize % bad.len();
                bad[at] ^= 1 << ((x >> 20) % 8);
            }
            let mut words = Vec::new();
            let mut job = Assembly::new(DistAlg::Sort, 16, 0, 2, &mut words);
            let _ = job.add(0, &mut Dec::new(&bad));
        }
    }

    /// A peer that connects to the router and says nothing fails the
    /// bootstrap within the bound, as `TimedOut` naming the peer.
    #[test]
    fn a_silent_peer_times_out_the_fleet_bootstrap() {
        let bound = Duration::from_millis(200);
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let silent = TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
        let (done, result) = mpsc::channel();
        let bootstrap = thread::spawn(move || {
            let _ = done.send(Router::accept_fleet_within(&listener, 1, bound).map(|_| ()));
        });
        let err = result
            .recv_timeout(10 * bound)
            .expect("the bootstrap returns")
            .expect_err("a silent peer is not a shard");
        bootstrap.join().expect("bootstrap thread");
        assert_eq!(err.kind(), io::ErrorKind::TimedOut, "{err}");
        let me = silent.local_addr().expect("addr").to_string();
        assert!(err.to_string().contains(&me), "{err} must name {me}");
    }
}
