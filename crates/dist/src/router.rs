//! The router: fleet bootstrap, consistent-hash job routing, fleet-wide
//! kernel orchestration, and the merged Prometheus fleet view.
//!
//! The router owns one control stream per shard. Single-shard jobs are
//! consistent-hashed ([`HashRing`]) to a shard whose embedded
//! `mo-serve` server makes the admission decision; fleet jobs broadcast
//! to every shard, which then run the D-BSP supersteps among themselves
//! over the data mesh while the router waits for the per-shard results
//! and assembles output, traffic signature, and per-level socket
//! traffic.

use std::io;
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use mo_obs::fleet::WorkerStream;

use crate::alg::DistAlg;
use crate::data;
use crate::frame::{in_context, invalid, recv_ctl, send_ctl, unexpected, Ctl, DistDone, Msg};
use crate::topology::{job_key, num_levels, HashRing, Partition};
use crate::worker::MESH_IO_TIMEOUT;

/// A running fleet `/metrics` endpoint ([`Router::serve_fleet_metrics`]):
/// the one exposition server in `mo-obs`, rendering
/// [`Router::fleet_metrics`] per scrape. Dropping the handle stops it.
pub use mo_obs::expose::Exposition as FleetExposition;

/// One connected shard.
struct Shard {
    ctrl: TcpStream,
    data_addr: String,
    metrics_addr: String,
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
}

/// The assembled result of one fleet-wide kernel run.
#[derive(Debug, Clone)]
pub struct DistOutcome {
    /// FNV-1a checksum of the assembled output words.
    pub checksum: u64,
    /// Supersteps executed (identical on every shard by construction).
    pub supersteps: usize,
    /// The machine-wide per-superstep traffic signature, merged from
    /// every shard's src-side rows and sorted — directly comparable to
    /// [`no_framework::NoMachine::traffic_signature`].
    pub signature: Vec<Vec<Msg>>,
    /// Assembled output words in problem order (sort keys, or the
    /// row-major `f64` bit patterns of the N-GEP matrix).
    pub output: Vec<u64>,
    /// Payload words actually framed between workers, by D-BSP cluster
    /// level, summed over senders.
    pub socket_words_per_level: Vec<u64>,
    /// Payload words actually delivered, by D-BSP cluster level, summed
    /// over receivers. [`assemble`] enforces per-level equality with
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
                Ctl::Hello {
                    index,
                    data_addr,
                    metrics_addr,
                } => {
                    let i = index as usize;
                    if i >= workers || slots[i].is_some() {
                        return Err(invalid(format!("bad or duplicate worker index {i}")));
                    }
                    slots[i] = Some(Shard {
                        ctrl,
                        data_addr,
                        metrics_addr,
                    });
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
                shards,
            })),
            workers,
        })
    }

    /// Fleet size.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Each shard's Prometheus endpoint address (index order).
    pub fn metrics_addrs(&self) -> Vec<String> {
        let inner = self.inner.lock().unwrap();
        inner
            .shards
            .iter()
            .map(|s| s.metrics_addr.clone())
            .collect()
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
        let mut inner = self.inner.lock().unwrap();
        let shard = inner.ring.route(job_key(kernel, n, seed)) as usize;
        inner.jobs_routed[shard] += 1;
        inner.next_req += 1;
        let req = (ROUTER_SHARD << 48) | inner.next_req;
        let ctrl = &mut inner.shards[shard].ctrl;
        send_ctl(
            ctrl,
            &Ctl::RunKernel {
                kernel: kernel.to_string(),
                n,
                seed,
                req,
            },
        )?;
        match recv_ctl(ctrl)? {
            Ctl::KernelDone { result } => Ok((shard, result)),
            other => Err(unexpected("KernelDone", &other)),
        }
    }

    /// Run fleet program `alg` at size `n` (N-GEP block side `kappa`,
    /// ignored by sort) on input `seed` across every shard: each worker
    /// runs [`DistAlg::run`] over its PE range of
    /// [`DistAlg::shape`]`(n, kappa).0` PEs, and the router assembles
    /// the outcome. A failed run on any shard is one `io::Error` naming
    /// each failed worker.
    pub fn run(&self, alg: DistAlg, n: usize, kappa: usize, seed: u64) -> io::Result<DistOutcome> {
        let mut inner = self.inner.lock().unwrap();
        inner.dist_jobs += 1;
        let job = inner.dist_jobs;
        let msg = Ctl::RunDist {
            alg,
            n: n as u64,
            kappa: kappa as u32,
            seed,
            job,
        };
        for shard in &mut inner.shards {
            send_ctl(&mut shard.ctrl, &msg)?;
        }
        // Every shard answers exactly once, done or failed; read them
        // all so the control channels stay in step after a failed run.
        let mut dones: Vec<DistDone> = Vec::with_capacity(self.workers);
        let mut failures = Vec::new();
        for (w, shard) in inner.shards.iter_mut().enumerate() {
            match recv_ctl(&mut shard.ctrl)? {
                Ctl::DistDone(d) => dones.push(d),
                Ctl::DistFailed { reason } => failures.push(format!("worker {w}: {reason}")),
                other => return Err(unexpected("DistDone", &other)),
            }
        }
        drop(inner);
        if !failures.is_empty() {
            return Err(io::Error::other(format!(
                "distributed run failed: {}",
                failures.join("; ")
            )));
        }
        assemble(alg, n, kappa, self.workers, dones, job)
    }

    /// Estimate every worker's sink-clock offset against the router's
    /// reference clock, NTP-style: `probes` round trips per worker over
    /// the control channel, keeping the minimum-RTT sample (offset =
    /// worker time minus the probe's send/receive midpoint). All clocks
    /// are monotonic `Instant`s — calibration neither reads wall time
    /// nor perturbs the data mesh. The result is also retained for
    /// [`collect_trace`](Self::collect_trace).
    pub fn calibrate_clocks(&self, probes: u32) -> io::Result<Vec<ClockCal>> {
        let mut inner = self.inner.lock().unwrap();
        let epoch = inner.epoch;
        let mut cals = Vec::with_capacity(inner.shards.len());
        for shard in &mut inner.shards {
            let mut best = ClockCal {
                offset_ns: 0,
                rtt_ns: u64::MAX,
            };
            for seq in 0..probes.max(1) {
                let t0 = epoch.elapsed().as_nanos() as u64;
                send_ctl(&mut shard.ctrl, &Ctl::ClockProbe { seq })?;
                let t_ns = match recv_ctl(&mut shard.ctrl)? {
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
        let mut inner = self.inner.lock().unwrap();
        let cals = inner.calibration.clone();
        let mut streams = Vec::with_capacity(inner.shards.len());
        for (w, shard) in inner.shards.iter_mut().enumerate() {
            send_ctl(&mut shard.ctrl, &Ctl::CollectTrace)?;
            let (dropped, events) = match recv_ctl(&mut shard.ctrl)? {
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
        let mut inner = self.inner.lock().unwrap();
        let mut texts = Vec::with_capacity(inner.shards.len());
        for shard in &mut inner.shards {
            send_ctl(&mut shard.ctrl, &Ctl::MetricsReq)?;
            match recv_ctl(&mut shard.ctrl)? {
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

/// Merge per-shard results into the machine-wide outcome.
fn assemble(
    alg: DistAlg,
    n: usize,
    kappa: usize,
    workers: usize,
    dones: Vec<DistDone>,
    job: u64,
) -> io::Result<DistOutcome> {
    let supersteps = dones[0].supersteps;
    if dones.iter().any(|d| d.supersteps != supersteps) {
        return Err(invalid(format!(
            "superstep counts diverged: {:?}",
            dones.iter().map(|d| d.supersteps).collect::<Vec<_>>()
        )));
    }
    let (n_pes, keep) = alg.shape(n, kappa);
    let part = Partition::new(n_pes, workers);
    // Per-PE output words, assembled from owned ranges.
    let mut pe_mem: Vec<&[u64]> = vec![&[]; n_pes];
    for (w, d) in dones.iter().enumerate() {
        let range = part.range(w);
        if (d.lo as usize, d.hi as usize) != (range.start, range.end) || d.mems.len() != range.len()
        {
            return Err(invalid(format!("worker {w} returned a foreign PE range")));
        }
        if d.mems.iter().any(|m| m.len() != keep) {
            return Err(invalid(format!(
                "worker {w} returned PE memories that are not {keep} words"
            )));
        }
        for (i, mem) in d.mems.iter().enumerate() {
            pe_mem[range.start + i] = mem;
        }
    }
    let output = alg.gather(n, kappa, |pe| pe_mem[pe]);
    // Merge traffic rows: shards hold disjoint src ranges, so the
    // machine-wide sorted row list is the sorted concatenation.
    let mut signature: Vec<Vec<Msg>> = vec![Vec::new(); supersteps as usize];
    for d in &dones {
        for (s, rows) in d.traffic.iter().enumerate() {
            signature[s].extend_from_slice(rows);
        }
    }
    for rows in &mut signature {
        rows.sort_unstable();
    }
    let mut socket_words_per_level = vec![0u64; num_levels(workers).max(1)];
    let mut recv_words_per_level = vec![0u64; num_levels(workers).max(1)];
    for d in &dones {
        for (l, &w) in d.socket_words_per_level.iter().enumerate() {
            socket_words_per_level[l] += w;
        }
        for (l, &w) in d.recv_words_per_level.iter().enumerate() {
            recv_words_per_level[l] += w;
        }
    }
    // Conservation: every word framed to a level must have been
    // delivered from that level somewhere in the fleet (frames carry
    // their level stamp and receivers validate it, so a mismatch means
    // a lost or double-counted frame).
    if socket_words_per_level != recv_words_per_level {
        return Err(invalid(format!(
            "send/recv word conservation violated: sent {socket_words_per_level:?}, \
             delivered {recv_words_per_level:?}"
        )));
    }
    Ok(DistOutcome {
        checksum: data::checksum_words(output.iter().copied()),
        supersteps: supersteps as usize,
        signature,
        output,
        socket_words_per_level,
        recv_words_per_level,
        ops: dones.iter().map(|d| d.ops).sum(),
        exchange_rounds: dones.iter().map(|d| d.exchange_rounds).collect(),
        job,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use std::thread;

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
