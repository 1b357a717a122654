//! The worker (shard) process.
//!
//! Each worker runs a full `mo-serve` server — SB admission against its
//! own detected (or injected) hierarchy, CGC⇒SB batching, typed
//! shedding, Prometheus text for the router's merged fleet view — plus
//! the D-BSP engine for fleet-wide kernels. Lifecycle:
//!
//! 1. connect the control channel to the router, bind the data-mesh
//!    listener on an ephemeral port;
//! 2. send [`Ctl::Hello`] (index + data address), wait for the
//!    router's [`Ctl::PeerTable`];
//! 3. establish the mesh: connect to every lower-indexed peer, accept
//!    from every higher-indexed one (one duplex TCP stream per pair,
//!    `TCP_NODELAY`);
//! 4. serve control messages until [`Ctl::Shutdown`].
//!
//! Single-shard jobs reuse `mo_serve::Server::submit` verbatim — the
//! shard's admission decisions, queueing, and shedding are exactly the
//! single-process service's. Fleet jobs build a [`SocketComm`] over the
//! long-lived mesh, in the engine and frame buffers the worker keeps
//! with it ([`MeshBuffers`]), run the *same* `no-framework` driver
//! the simulator runs ([`DistAlg::run`]), and answer with the result
//! frame [`SocketComm::finish`] encodes.

use std::io::{self, BufReader};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::Duration;

use mo_obs::{EventKind, TraceSink};
use mo_serve::{HwHierarchy, JobSpec, Kernel, Outcome, Rejected, ServeConfig, Server};
use no_framework::{level_counters, Partition};

use crate::alg::DistAlg;
use crate::comm::{Link, MeshBuffers, SocketComm};
use crate::frame::{invalid, read_frame, recv_ctl, send_ctl, unexpected, Ctl, Dec, DistDone, Enc};

/// The fault bound on the data mesh: no single read or write on a peer
/// stream blocks longer than this. A worker waits on a partner only
/// while that partner computes its own PEs or waits in turn, so a live
/// fleet never comes near it; a dead peer is noticed at once (its
/// streams close) and a wedged one after at most this long, and either
/// way the job ends in a [`Ctl::DistFailed`] instead of a hung fleet.
pub const MESH_IO_TIMEOUT: Duration = Duration::from_secs(30);

/// Worker process configuration.
#[derive(Debug, Clone)]
pub struct WorkerConfig {
    /// This worker's index in `0..workers`.
    pub index: usize,
    /// Fleet size `W` (a power of two).
    pub workers: usize,
    /// The router's control address.
    pub coord: String,
    /// Serving hierarchy; `None` detects the host.
    pub hierarchy: Option<HwHierarchy>,
    /// Serving configuration for the embedded `mo-serve` server.
    pub serve: ServeConfig,
    /// Enable dist tracing: allocate a trace sink, stamp every fleet
    /// job's supersteps/exchanges/barrier waits into it, and answer
    /// clock-calibration probes and [`Ctl::CollectTrace`] from the
    /// router. Off (the default) the sink is never allocated and the
    /// superstep path carries zero tracing cost.
    pub trace: bool,
}

impl WorkerConfig {
    /// Defaults for worker `index` of `workers` reporting to `coord`.
    pub fn new(index: usize, workers: usize, coord: impl Into<String>) -> Self {
        Self {
            index,
            workers,
            coord: coord.into(),
            hierarchy: None,
            serve: ServeConfig::default(),
            trace: false,
        }
    }
}

/// Dist-side counters appended to the shard's Prometheus text.
struct DistStats {
    worker: usize,
    jobs: u64,
    supersteps: u64,
    exchange_rounds: u64,
    socket_words_per_level: Vec<u64>,
    recv_words_per_level: Vec<u64>,
    /// Events dropped at the dist trace ring (0 when untraced).
    trace_dropped: u64,
}

impl DistStats {
    fn to_prometheus_text(&self) -> String {
        let mut p = mo_obs::prom::PromText::new();
        let index = self.worker.to_string();
        let worker = ("worker", index.as_str());
        p.counter(
            "modist_dist_jobs_total",
            "Fleet-wide distributed kernel runs this shard took part in.",
        )
        .u64(&[worker], self.jobs);
        p.counter(
            "modist_supersteps_total",
            "D-BSP supersteps executed by this shard.",
        )
        .u64(&[worker], self.supersteps);
        p.counter(
            "modist_exchange_rounds_total",
            "Frame exchanges with in-scope peers (one per peer per superstep).",
        )
        .u64(&[worker], self.exchange_rounds);
        let mut per_level = |name, help, words: &[u64]| {
            let mut f = p.counter(name, help);
            for (level, &words) in words.iter().enumerate() {
                f.u64(&[worker, ("level", &level.to_string())], words);
            }
        };
        per_level(
            "modist_socket_words_total",
            "Payload words framed to peers, by D-BSP cluster level.",
            &self.socket_words_per_level,
        );
        per_level(
            "modist_recv_words_total",
            "Payload words delivered from peers, by D-BSP cluster level.",
            &self.recv_words_per_level,
        );
        p.counter(
            "modist_trace_ring_dropped_total",
            "Dist trace events dropped at this shard's full ring.",
        )
        .u64(&[worker], self.trace_dropped);
        p.finish()
    }
}

/// Establish the full data mesh: one duplex stream per worker pair.
/// Worker `i` dials every `j < i` once (announcing its index in a hello
/// frame) and accepts from every `j > i`. Every stream gets
/// `io_timeout` as its read and write timeout before the first byte
/// moves, so neither the handshake nor any later frame can block
/// longer than that.
///
/// One dial is enough: a worker binds `listener` before it sends its
/// [`Ctl::Hello`], and the router sends the [`Ctl::PeerTable`] only
/// after every worker's `Hello`, so every address in `addrs` is already
/// listening and the kernel's listen backlog completes the dial whether
/// or not its owner has reached `accept`. A refused dial is a dead peer,
/// returned at once as its `io::Error`.
pub fn establish_mesh(
    index: usize,
    addrs: &[String],
    listener: &TcpListener,
    io_timeout: Duration,
) -> io::Result<Vec<Option<Link>>> {
    let workers = addrs.len();
    let prepare = |s: &TcpStream| -> io::Result<()> {
        s.set_nodelay(true)?;
        s.set_read_timeout(Some(io_timeout))?;
        s.set_write_timeout(Some(io_timeout))
    };
    let mut peers: Vec<Option<Link>> = (0..workers).map(|_| None).collect();
    for (j, addr) in addrs.iter().enumerate().take(index) {
        let mut s = TcpStream::connect(addr)?;
        prepare(&s)?;
        Enc::new().u32(index as u32).send(&mut s)?;
        peers[j] = Some(BufReader::new(s));
    }
    for _ in index + 1..workers {
        let (s, _) = listener.accept()?;
        prepare(&s)?;
        let mut s = BufReader::new(s);
        let mut hello = Vec::new();
        read_frame(&mut s, &mut hello)?;
        let who = Dec::new(&hello).u32()? as usize;
        if who <= index || who >= workers || peers[who].is_some() {
            return Err(invalid(format!("unexpected mesh hello from worker {who}")));
        }
        peers[who] = Some(s);
    }
    Ok(peers)
}

/// What a worker keeps from one fleet job to the next, for the life of
/// its mesh, so that it does not free and fault in its largest buffers
/// on every job: the frame its result is encoded into, the buffer
/// N-GEP's input is regenerated into, and the engine and frame buffers
/// every run is built in. Its other replies are rare, and a large one
/// (a trace) is not pinned.
#[derive(Default)]
struct JobBuffers {
    reply: Enc,
    input: Vec<f64>,
    mesh: MeshBuffers,
}

fn reject_name(r: &Rejected) -> String {
    match r {
        Rejected::QueueFull { .. } => "QueueFull".into(),
        Rejected::DeadlineExpired { .. } => "DeadlineExpired".into(),
        Rejected::TooLarge { .. } => "TooLarge".into(),
        Rejected::ShuttingDown => "ShuttingDown".into(),
        Rejected::NotCertified { .. } => "NotCertified".into(),
        Rejected::KernelPanicked => "KernelPanicked".into(),
    }
}

#[allow(clippy::too_many_arguments)]
fn run_dist_job(
    alg: DistAlg,
    n: usize,
    kappa: usize,
    seed: u64,
    job: u64,
    index: usize,
    peers: &mut [Option<Link>],
    sink: Option<&Arc<TraceSink>>,
    bufs: &mut JobBuffers,
) -> io::Result<DistDone> {
    if (0..peers.len()).any(|j| j != index && peers[j].is_none()) {
        return Err(io::Error::new(
            io::ErrorKind::NotConnected,
            "data mesh is down after an earlier failed run",
        ));
    }
    let (n_pes, keep) = alg.shape(n, kappa);
    let part = Partition::new(n_pes, peers.len());
    if let Some(sink) = sink {
        sink.emit(
            None,
            EventKind::DistJobBegin,
            job,
            alg.code() as u64,
            n as u64,
        );
    }
    let mut comm = SocketComm::new(part, index, peers, &mut bufs.mesh);
    if let Some(sink) = sink {
        comm = comm.with_trace(Arc::clone(sink), job);
    }
    alg.run_with(&mut comm, n, kappa, seed, &mut bufs.input);
    let supersteps = comm.supersteps();
    if let Some(sink) = sink {
        sink.emit(None, EventKind::DistJobEnd, job, supersteps as u64, 0);
    }
    comm.finish(keep, &mut bufs.reply)
}

/// Run one worker to completion (returns after [`Ctl::Shutdown`] or
/// when the router hangs up).
pub fn run_worker(cfg: WorkerConfig) -> io::Result<()> {
    assert!(cfg.index < cfg.workers && cfg.workers.is_power_of_two());
    let mut ctrl = TcpStream::connect(&cfg.coord)?;
    ctrl.set_nodelay(true)?;
    let data_listener = TcpListener::bind("127.0.0.1:0")?;
    let hier = cfg.hierarchy.unwrap_or_else(HwHierarchy::detect);
    // The local server mints request ids in this shard's namespace, so
    // spans stay unique when fleet traces merge.
    let mut serve_cfg = cfg.serve.clone();
    serve_cfg.shard = cfg.index as u16;
    let server = Server::start(hier, serve_cfg);
    send_ctl(
        &mut ctrl,
        &Ctl::Hello {
            index: cfg.index as u32,
            data_addr: data_listener.local_addr()?.to_string(),
        },
    )?;
    let addrs = match recv_ctl(&mut ctrl)? {
        Ctl::PeerTable { addrs } => addrs,
        other => return Err(unexpected("PeerTable", &other)),
    };
    if addrs.len() != cfg.workers {
        return Err(invalid(format!(
            "peer table names {} workers, expected {}",
            addrs.len(),
            cfg.workers
        )));
    }
    let mut peers = establish_mesh(cfg.index, &addrs, &data_listener, MESH_IO_TIMEOUT)?;
    let mut bufs = JobBuffers::default();
    // The dist trace sink: everything on this worker lands in the
    // external ring (the control loop is the only dist-event producer),
    // and its monotonic epoch clock is what clock probes read — no wall
    // clock anywhere, so tracing cannot perturb kernel determinism.
    let sink: Option<Arc<TraceSink>> = cfg.trace.then(|| Arc::new(TraceSink::new(0)));
    let mut stats = DistStats {
        worker: cfg.index,
        jobs: 0,
        supersteps: 0,
        exchange_rounds: 0,
        socket_words_per_level: vec![0; level_counters(cfg.workers)],
        recv_words_per_level: vec![0; level_counters(cfg.workers)],
        trace_dropped: 0,
    };
    loop {
        let msg = match recv_ctl(&mut ctrl) {
            Ok(m) => m,
            // Router gone: drain and exit quietly.
            Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => break,
            Err(e) => return Err(e),
        };
        match msg {
            Ctl::RunKernel {
                kernel,
                n,
                seed,
                req,
            } => {
                let result = match Kernel::parse(&kernel) {
                    None => Err(format!("UnknownKernel:{kernel}")),
                    Some(k) => {
                        let mut spec = JobSpec::new(k, n as usize, seed);
                        // The routed request carries one trace across
                        // the fleet: keep the router's id for its span.
                        spec.trace_id = (req != 0).then_some(req);
                        match server.submit(spec) {
                            Err(r) => Err(reject_name(&r)),
                            Ok(ticket) => match ticket.wait() {
                                Outcome::Done(d) => Ok(d.checksum),
                                Outcome::Rejected(r) => Err(reject_name(&r)),
                            },
                        }
                    }
                };
                send_ctl(&mut ctrl, &Ctl::KernelDone { result })?;
            }
            Ctl::RunDist {
                alg,
                n,
                kappa,
                seed,
                job,
            } => {
                bufs.reply.clear();
                let done = run_dist_job(
                    alg,
                    n as usize,
                    kappa as usize,
                    seed,
                    job,
                    cfg.index,
                    &mut peers,
                    sink.as_ref(),
                    &mut bufs,
                );
                stats.jobs += 1;
                if let Some(sink) = &sink {
                    stats.trace_dropped = sink.dropped();
                }
                match done {
                    Ok(done) => {
                        stats.supersteps += done.supersteps as u64;
                        stats.exchange_rounds += done.exchange_rounds;
                        for (l, &w) in done.socket_words_per_level.iter().enumerate() {
                            stats.socket_words_per_level[l] += w;
                        }
                        for (l, &w) in done.recv_words_per_level.iter().enumerate() {
                            stats.recv_words_per_level[l] += w;
                        }
                    }
                    Err(e) => {
                        // Mid-frame streams cannot be resynchronised.
                        // Closing them also turns every partner's
                        // pending read into an immediate EOF, so the
                        // whole fleet reports within one timeout.
                        peers.iter_mut().for_each(|p| *p = None);
                        bufs.reply.ctl(&Ctl::DistFailed {
                            reason: format!("{:?}: {e}", e.kind()),
                        });
                    }
                }
                bufs.reply.send(&mut ctrl)?;
            }
            Ctl::ClockProbe { seq } => {
                // Reply with the sink clock — the clock every shipped
                // event is stamped with. Untraced workers answer 0 (the
                // router never probes them).
                let t_ns = sink.as_ref().map_or(0, |s| s.now_ns());
                send_ctl(&mut ctrl, &Ctl::ClockReply { seq, t_ns })?;
            }
            Ctl::CollectTrace => {
                let (dropped, events) = match &sink {
                    None => (0, Vec::new()),
                    Some(s) => (s.dropped(), s.drain()),
                };
                stats.trace_dropped = dropped;
                send_ctl(&mut ctrl, &Ctl::TraceData { dropped, events })?;
            }
            Ctl::MetricsReq => {
                let text = format!(
                    "{}{}",
                    server.metrics().to_prometheus_text(),
                    stats.to_prometheus_text()
                );
                send_ctl(&mut ctrl, &Ctl::MetricsText { text })?;
            }
            Ctl::Shutdown => break,
            other => return Err(invalid(format!("unexpected control message {other:?}"))),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The equivalence pin for the shard's dist families: the
    /// family-writer rendering is the parent commit's text, line for
    /// line.
    #[test]
    fn dist_stats_exposition_matches_the_parent_commit() {
        let stats = DistStats {
            worker: 2,
            jobs: 3,
            supersteps: 251,
            exchange_rounds: 78,
            socket_words_per_level: vec![1000, 20],
            recv_words_per_level: vec![1001, 21],
            trace_dropped: 5,
        };
        let text = stats.to_prometheus_text();
        assert_eq!(
            text,
            include_str!("../tests/fixtures/dist_stats_parent.prom")
        );
        mo_obs::prom::parse(&text).expect("valid exposition");
    }
}
