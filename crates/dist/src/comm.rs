//! `SocketComm`: the socket-backed [`Comm`] backend.
//!
//! One instance lives in each worker process and owns a contiguous PE
//! range. Compute, partition, signature log and delivery are the shared
//! `no-framework` [`Engine`] — the code `NoMachine` runs — so the two
//! backends cannot drift; this module adds only the **exchange** between
//! partition and delivery.
//!
//! A D-BSP *i*-superstep synchronises its *i*-cluster, not the machine.
//! The driver declares each superstep's [`Scope`] (a function of the
//! input size alone, so every worker computes the same one) and a worker
//! exchanges exactly one frame with each worker whose PE range shares a
//! declared group with its own ([`Engine::peer_span`]): silent pairs
//! neither send nor wait, and a cluster-local superstep costs no syscall.
//!
//! * Skipping is sound because the engine rejects any send that leaves
//!   its group before a byte moves, so an unscoped pair has nothing to
//!   say; and because frames carry their superstep and are validated on
//!   receipt, a pair that last talked many supersteps ago still matches
//!   frame for frame — per pair, both ends see the same in-scope
//!   superstep sequence.
//! * Within a superstep the in-scope peers are visited in increasing
//!   XOR-round order (`me ⊕ r`, `r = 1..W`), the lower index of a pair
//!   sending first. Every worker therefore performs its exchanges in
//!   increasing `(superstep, round)` order, and an exchange `(s, r)`
//!   pairs the same two workers from both ends. Take the waiting worker
//!   with the smallest pending key: its partner has not passed that key
//!   (the exchange is pending), cannot be waiting at a smaller one
//!   (minimality), so it is computing or at the same exchange — it
//!   arrives. No cycle of waits can form, with no buffering assumption.
//! * Workers may drift many supersteps apart; each blocks only on the
//!   partners its own scope names.
//!
//! A transport error, a corrupt frame or a scope violation poisons the
//! run: later supersteps are skipped and [`SocketComm::finish`] returns
//! the first error for the worker loop to report on the control channel.
//!
//! The machine has one form, in the [`MeshBuffers`] a worker keeps for
//! the life of its mesh; [`SocketComm::finish`] encodes the result
//! straight from the engine as the frame the router reads, so a caller
//! reads PE memories through [`Comm::pe_mem`] before it finishes.

use std::io::{self, BufReader};
use std::net::TcpStream;
use std::sync::Arc;

use mo_obs::{pack_step_level, EventKind, TraceSink};
use no_framework::{level_counters, pair_level, Comm, Engine, Partition, Pe, Scope};

use crate::frame::{decode_runs, in_context, invalid, read_frame, DistDone, Enc};

/// One duplex mesh stream: reads go through a buffer that lives as long
/// as the mesh (a frame's prefix and payload arrive in one `read`),
/// writes go straight to the socket.
pub type Link = BufReader<TcpStream>;

/// What a worker keeps for the life of its mesh: the engine and the
/// outgoing and incoming frame buffers.
#[derive(Debug, Default)]
pub struct MeshBuffers {
    engine: Engine,
    wire: Enc,
    rbuf: Vec<u8>,
}

/// The socket-backed superstep machine of one worker process, in the
/// buffers it keeps across jobs.
pub struct SocketComm<'a> {
    /// One stream per peer worker (`None` at this worker's index).
    peers: &'a mut [Option<Link>],
    bufs: &'a mut MeshBuffers,
    /// Frame exchanges performed (one per in-scope peer per superstep).
    exchange_rounds: u64,
    /// Payload words framed to each cluster level (sender-side).
    socket_words_per_level: Vec<u64>,
    /// Payload words delivered from each cluster level (receiver-side).
    /// Fleet-wide the per-level sums must equal the sender-side ones —
    /// every frame's level stamp is validated on receipt.
    recv_words_per_level: Vec<u64>,
    /// When tracing: the dist sink plus the fleet job id stamped into
    /// every event. `None` costs nothing on the superstep path.
    trace: Option<(Arc<TraceSink>, u64)>,
    /// The first error of the run; once set, supersteps are skipped.
    failed: Option<io::Error>,
}

impl<'a> SocketComm<'a> {
    /// A fresh machine for one kernel run of worker `me` of `part`, in
    /// `bufs` ([`Engine::reset`]): a worker passing the same buffers to
    /// every job runs each in the last's. `peers[j]` must hold the
    /// established stream to worker `j` for every `j != me`; streams
    /// are borrowed so the mesh outlives the job.
    pub fn new(
        part: Partition,
        me: usize,
        peers: &'a mut [Option<Link>],
        bufs: &'a mut MeshBuffers,
    ) -> Self {
        assert_eq!(peers.len(), part.workers);
        assert!(me < part.workers && peers[me].is_none());
        bufs.engine.reset(part.n_pes, part.workers, me);
        let levels = level_counters(part.workers);
        Self {
            peers,
            bufs,
            exchange_rounds: 0,
            socket_words_per_level: vec![0; levels],
            recv_words_per_level: vec![0; levels],
            trace: None,
            failed: None,
        }
    }

    /// Enable tracing: every superstep, exchange round, and barrier
    /// wait of this run is emitted into `sink` stamped with the
    /// fleet-unique `job` id. Tracing reads the sink clock but never
    /// touches the data path, so kernel outputs and traffic signatures
    /// are bit-identical to an untraced run.
    pub fn with_trace(mut self, sink: Arc<TraceSink>, job: u64) -> Self {
        self.trace = Some((sink, job));
        self
    }

    /// Supersteps executed so far.
    pub fn supersteps(&self) -> u32 {
        self.bufs.engine.supersteps() as u32
    }

    /// Consume the machine: the run's first error, or this worker's
    /// result, encoded onto `reply` straight from the engine with every
    /// PE memory trimmed to `keep` words (the kernel's per-PE output
    /// size) and the row bytes copied once. Returns the result's head.
    pub fn finish(self, keep: usize, reply: &mut Enc) -> io::Result<DistDone> {
        if let Some(e) = self.failed {
            return Err(e);
        }
        let engine = &self.bufs.engine;
        let owned = engine.owned();
        let head = DistDone {
            supersteps: engine.supersteps() as u32,
            lo: owned.start as u32,
            hi: owned.end as u32,
            socket_words_per_level: self.socket_words_per_level,
            recv_words_per_level: self.recv_words_per_level,
            ops: engine.total_ops(),
            exchange_rounds: self.exchange_rounds,
        };
        reply.dist_done(&head, engine.mems(), keep, engine.traffic_bytes());
        Ok(head)
    }

    fn emit(&self, kind: EventKind, a: u64, b: u64, c: u64) {
        if let Some((sink, _)) = &self.trace {
            sink.emit(None, kind, a, b, c);
        }
    }

    /// Frame `peer_buf(peer)` to `peer` in one write.
    fn send_frame(&mut self, peer: usize, superstep: u32, level: u8) -> io::Result<()> {
        let MeshBuffers { engine, wire, .. } = &mut *self.bufs;
        let out = engine.peer_buf(peer);
        let words = out.words.len() as u64;
        wire.clear();
        wire.runs(superstep, level, out);
        let stream = self.peers[peer].as_mut().expect("mesh stream missing");
        wire.send(stream.get_mut())?;
        self.socket_words_per_level[level as usize] += words;
        self.emit(
            EventKind::ExchangeSend,
            peer as u64,
            pack_step_level(superstep, level),
            words,
        );
        Ok(())
    }

    /// Block for `peer`'s frame (the raw payload lands in `rbuf`). The
    /// blocking read *is* the pair's synchronisation, so its duration is
    /// the lateness charged to this pair.
    fn recv_frame(&mut self, peer: usize, superstep: u32, level: u8) -> io::Result<()> {
        let wait_from = self.trace.as_ref().map(|(sink, _)| sink.now_ns());
        let stream = self.peers[peer].as_mut().expect("mesh stream missing");
        read_frame(stream, &mut self.bufs.rbuf)?;
        if let (Some((sink, _)), Some(from)) = (&self.trace, wait_from) {
            let stamp = pack_step_level(superstep, level);
            let waited = sink.now_ns().saturating_sub(from);
            sink.emit(None, EventKind::BarrierWait, peer as u64, stamp, waited);
        }
        Ok(())
    }

    /// Exchange one frame with `peer` and leave what it sent in
    /// `peer_buf(peer)`, validated.
    fn exchange_with(&mut self, peer: usize, superstep: u32) -> io::Result<()> {
        let (part, me) = (self.bufs.engine.partition(), self.bufs.engine.me());
        let level = pair_level(me, peer, part.workers) as u8;
        // The lower index of a pair talks first, the higher listens
        // first, so neither end ever blocks in a send the other is not
        // reading.
        if me < peer {
            self.send_frame(peer, superstep, level)?;
            self.recv_frame(peer, superstep, level)?;
        } else {
            self.recv_frame(peer, superstep, level)?;
            self.send_frame(peer, superstep, level)?;
        }
        // The decoder replaces what was sent with what arrived, and
        // holds the frame to its own shape: exact length, sources
        // ascending, no empty run, lengths summing to the word count.
        let MeshBuffers { engine, rbuf, .. } = &mut *self.bufs;
        let incoming = engine.peer_buf(peer);
        let (step, got_level) = decode_runs(rbuf, incoming)?;
        if (step, got_level) != (superstep, level) {
            return Err(invalid(format!(
                "frame stamped superstep {step} level {got_level}, \
                 expected superstep {superstep} level {level}"
            )));
        }
        // A frame may only carry the peer's PEs to ours; anything else
        // would index out of the inboxes or break the delivery order.
        let (theirs, ours) = (part.range(peer), part.range(me));
        if let Some(&(src, dst, _)) = incoming
            .heads
            .iter()
            .find(|h| !theirs.contains(&(h.0 as usize)) || !ours.contains(&(h.1 as usize)))
        {
            return Err(invalid(format!("frame carries foreign run {src} → {dst}")));
        }
        let words = incoming.words.len() as u64;
        self.recv_words_per_level[level as usize] += words;
        self.exchange_rounds += 1;
        self.emit(
            EventKind::ExchangeRecv,
            peer as u64,
            pack_step_level(superstep, level),
            words,
        );
        Ok(())
    }

    /// One superstep; the fallible core [`Comm::step_dyn`] wraps.
    ///
    /// An error is unrecoverable for the job — a lost frame cannot be
    /// resent without replaying the superstep, and a scope violation is
    /// a driver bug — and is `InvalidData` for a bad frame or an
    /// out-of-scope send, `TimedOut` for a wedged peer, and the
    /// transport's own kind otherwise. The machine must not be stepped
    /// again after an `Err`.
    pub fn try_step(
        &mut self,
        scope: Scope<'_>,
        f: &mut dyn FnMut(usize, &mut Pe<'_>),
    ) -> io::Result<()> {
        let superstep = self.supersteps();
        let job = self.trace.as_ref().map_or(0, |t| t.1);
        self.emit(EventKind::SuperstepBegin, job, superstep as u64, 0);
        let engine = &mut self.bufs.engine;
        let me = engine.me();
        engine
            .compute(scope, f)
            .map_err(|v| invalid(format!("worker {me}: {v}")))?;
        let span = engine.peer_span(scope);
        for round in 1..self.peers.len() {
            let peer = me ^ round;
            if !span.contains(&peer) {
                continue;
            }
            self.exchange_with(peer, superstep).map_err(|e| {
                in_context(
                    e,
                    format_args!("worker {me} superstep {superstep}: peer {peer}"),
                )
            })?;
        }
        self.bufs.engine.deliver();
        self.emit(EventKind::SuperstepEnd, job, superstep as u64, 0);
        Ok(())
    }
}

impl Comm for SocketComm<'_> {
    fn n_pes(&self) -> usize {
        self.bufs.engine.n_pes()
    }

    fn owns(&self, pe: usize) -> bool {
        self.bufs.engine.owned().contains(&pe)
    }

    fn pe_mem_mut(&mut self, pe: usize) -> Option<&mut Vec<u64>> {
        self.bufs.engine.mem_mut(pe)
    }

    fn pe_mem(&self, pe: usize) -> Option<&[u64]> {
        self.bufs.engine.mem(pe)
    }

    fn step_dyn(&mut self, scope: Scope<'_>, f: &mut dyn FnMut(usize, &mut Pe<'_>)) {
        // NO drivers are infallible by signature. The first error is
        // kept for `finish`; the rest of the driver's supersteps are
        // skipped (their closures would read inboxes that never
        // arrived).
        if self.failed.is_none() {
            self.failed = self.try_step(scope, f).err();
        }
    }
}
