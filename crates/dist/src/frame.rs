//! Length-prefixed wire framing for the D-BSP socket tier.
//!
//! Two message families share the same outer frame — a little-endian
//! `u32` byte length followed by that many payload bytes:
//!
//! * **Data frames** (worker ↔ worker, one per peer per superstep):
//!   `[u32 superstep][u8 level][u32 runs][u32 words]`, then `runs` run
//!   heads `[u32 src_pe][u32 dst_pe][u32 len]`, then the `words` words
//!   (`u64` each) of every run back to back, in head order — the
//!   engine's [`Runs`] buffer as it is, so a routed word costs 8 bytes
//!   and a block one 12-byte head. Heads are sorted by source and no
//!   run is empty. The `level` byte is the D-BSP cluster level of the
//!   worker pair ([`no_framework::pair_level`]): the recursive-subnetwork
//!   structure is stamped on every frame and validated by the
//!   receiver. An empty frame (`runs == 0`) carries only the
//!   synchronisation: the pair shares a group of the superstep's scope
//!   but has no words for each other. [`send_data`] / [`recv_data`]
//!   speak the same format in tagged `(src, dst, word)` form.
//! * **Control messages** (router ↔ worker): a one-byte tag followed by
//!   tag-specific fields, see [`Ctl`].
//! * **Result frames** (worker → router, one per shard per fleet job):
//!   what [`Enc::dist_done`] writes — the worker encodes it straight
//!   from its engine — and the router reads, the only two ends it has.
//!   It answers a [`Ctl::RunDist`] on the control stream under a tag of
//!   its own and is by far the largest frame: `[u32 supersteps][u32
//!   lo][u32 hi][u64 ops][u64 exchange_rounds]`, the sent and then the
//!   delivered words per level (each a `u32` count and its `u64`s), a
//!   `u32` PE count and per PE a `u32` word count and its `u64` words,
//!   then `supersteps` supersteps of signature rows in
//!   [`no_framework::codec`]'s varint form, from `lo`: the worker's
//!   engine log as it is, about 3 bytes a row of the NO sort instead of
//!   16. The router decodes the head ([`DistDone`]) and checks the rows
//!   in one pass, keeping their bytes as they came
//!   ([`Signature`](crate::Signature)): a varint longer than 10 bytes,
//!   a `src`/`dst` that leaves `u32`, or rows out of order or outside
//!   the shard's PEs are `InvalidData`. A result frame read where a
//!   control message is expected is `InvalidData` too.
//!
//! Everything is hand-rolled over `std::io` — no serialization
//! dependency enters the tree. A frame leaves in one `write_all` of a
//! buffer that already holds the length prefix; every count read off
//! the wire is checked against the bytes that actually arrived before
//! anything is allocated for it, so a truncated or corrupt frame is a
//! typed `io::Error`, never a panic or a runaway allocation.

use std::io::{self, Read, Write};

use mo_obs::{Event, EventKind, WORKER_EXTERNAL};

use crate::alg::DistAlg;

/// Hard cap on a single frame's payload, a defense against a corrupt
/// or hostile length prefix (256 MiB).
pub const MAX_FRAME: usize = 256 << 20;

/// Incremental encoder for one frame; the buffer starts with the
/// four bytes the length prefix is patched into.
#[derive(Debug)]
pub struct Enc {
    buf: Vec<u8>,
}

impl Default for Enc {
    fn default() -> Self {
        Self::new()
    }
}

impl Enc {
    /// An empty payload.
    pub fn new() -> Self {
        Self { buf: vec![0; 4] }
    }

    /// Back to an empty payload, keeping the allocation for the next
    /// frame.
    pub fn clear(&mut self) {
        self.buf.truncate(4);
    }

    /// Append one byte.
    pub fn u8(&mut self, v: u8) -> &mut Self {
        self.buf.push(v);
        self
    }

    /// Append a little-endian `u32`.
    pub fn u32(&mut self, v: u32) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Append a little-endian `u64`.
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Append a `u32`-length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) -> &mut Self {
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
        self
    }

    /// Append a `u32` word count, then the words as one little-endian
    /// slice.
    fn words(&mut self, words: &[u64]) -> &mut Self {
        self.u32(words.len() as u32).put_words(words);
        self
    }

    fn put_words(&mut self, words: &[u64]) {
        let at = self.buf.len();
        self.buf.resize(at + words.len() * 8, 0);
        for (bytes, w) in self.buf[at..].chunks_exact_mut(8).zip(words) {
            bytes.copy_from_slice(&w.to_le_bytes());
        }
    }

    /// Append one control message.
    pub fn ctl(&mut self, msg: &Ctl) -> &mut Self {
        encode_ctl(self, msg);
        self
    }

    /// Append a result frame: the head `d`, `mems` each cut to `keep`
    /// words, and the row bytes `traffic`
    /// ([`Engine::traffic_bytes`](no_framework::Engine::traffic_bytes)).
    pub fn dist_done(
        &mut self,
        d: &DistDone,
        mems: &[Vec<u64>],
        keep: usize,
        traffic: &[u8],
    ) -> &mut Self {
        self.u8(T_DIST_DONE)
            .u32(d.supersteps)
            .u32(d.lo)
            .u32(d.hi)
            .u64(d.ops)
            .u64(d.exchange_rounds)
            .words(&d.socket_words_per_level)
            .words(&d.recv_words_per_level)
            .u32(mems.len() as u32);
        for mem in mems {
            self.words(&mem[..keep.min(mem.len())]);
        }
        self.buf.extend_from_slice(traffic);
        self
    }

    /// Append one data-frame body: stamp, counts, run heads, words.
    pub fn runs(&mut self, superstep: u32, level: u8, runs: &Runs) -> &mut Self {
        let (heads, words) = (&runs.heads, &runs.words);
        self.u32(superstep)
            .u8(level)
            .u32(heads.len() as u32)
            .u32(words.len() as u32);
        let at = self.buf.len();
        self.buf.resize(at + heads.len() * HEAD_BYTES, 0);
        for (bytes, &(src, dst, len)) in self.buf[at..].chunks_exact_mut(HEAD_BYTES).zip(heads) {
            bytes[..4].copy_from_slice(&src.to_le_bytes());
            bytes[4..8].copy_from_slice(&dst.to_le_bytes());
            bytes[8..].copy_from_slice(&(len as u32).to_le_bytes());
        }
        self.put_words(words);
        self
    }

    /// Append one data-frame body from tagged messages: consecutive
    /// messages of one `(src, dst)` pair travel as one run.
    pub fn data(&mut self, superstep: u32, level: u8, msgs: &[Msg]) -> &mut Self {
        let mut runs = Runs {
            heads: Vec::with_capacity(msgs.len()),
            words: Vec::with_capacity(msgs.len()),
        };
        for &(src, dst, word) in msgs {
            runs.push(src, dst, &[word]);
        }
        self.runs(superstep, level, &runs)
    }

    /// Write the frame — length prefix plus payload — to `w` in one
    /// `write_all`.
    pub fn send(&mut self, w: &mut impl Write) -> io::Result<()> {
        let len = (self.buf.len() - 4) as u32;
        self.buf[..4].copy_from_slice(&len.to_le_bytes());
        w.write_all(&self.buf)?;
        w.flush()
    }
}

/// Cursor over one received frame payload ([`read_frame`]).
#[derive(Debug)]
pub struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

fn eof(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::UnexpectedEof, format!("truncated {what}"))
}

/// A protocol violation: bytes, a control message or a peer's result
/// that the protocol does not allow where they arrived.
pub(crate) fn invalid(msg: impl Into<Box<dyn std::error::Error + Send + Sync>>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// `e` with `context` in front of its text. A socket read that outlives
/// its timeout surfaces as `WouldBlock` on Unix; it is named `TimedOut`.
pub(crate) fn in_context(e: io::Error, context: std::fmt::Arguments<'_>) -> io::Error {
    let kind = match e.kind() {
        io::ErrorKind::WouldBlock => io::ErrorKind::TimedOut,
        kind => kind,
    };
    io::Error::new(kind, format!("{context}: {e}"))
}

/// The error for a control message other than the one the protocol
/// allows next.
pub(crate) fn unexpected(what: &str, got: &Ctl) -> io::Error {
    invalid(format!("expected {what}, got {got:?}"))
}

/// Read one length-prefixed frame's payload from `r` into `buf`
/// (replacing its contents; the allocation is reused).
pub fn read_frame(r: &mut impl Read, buf: &mut Vec<u8>) -> io::Result<()> {
    let mut len = [0u8; 4];
    r.read_exact(&mut len)?;
    let len = u32::from_le_bytes(len) as usize;
    if len > MAX_FRAME {
        return Err(invalid(format!(
            "frame length {len} exceeds cap {MAX_FRAME}"
        )));
    }
    buf.clear();
    // `take` + `read_to_end` grows the buffer only as bytes arrive, so a
    // lying length prefix cannot make us allocate what never comes.
    let got = r.by_ref().take(len as u64).read_to_end(buf)?;
    if got < len {
        return Err(eof("frame payload"));
    }
    Ok(())
}

impl<'a> Dec<'a> {
    /// A cursor over `payload`, one frame's payload already read.
    pub fn new(payload: &'a [u8]) -> Self {
        Self {
            buf: payload,
            pos: 0,
        }
    }

    /// Bytes not yet consumed.
    fn left(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Consume the next `len` bytes.
    fn take(&mut self, len: usize, what: &str) -> io::Result<&'a [u8]> {
        if len > self.left() {
            return Err(eof(what));
        }
        let at = self.pos;
        self.pos += len;
        Ok(&self.buf[at..self.pos])
    }

    /// Consume a `u32` element count, checked against the bytes left:
    /// `count` elements of at least `min_bytes` each must still fit.
    pub fn count(&mut self, min_bytes: usize) -> io::Result<usize> {
        let count = self.u32()? as usize;
        if count.saturating_mul(min_bytes) > self.left() {
            return Err(eof("element list"));
        }
        Ok(count)
    }

    /// Consume one byte.
    pub fn u8(&mut self) -> io::Result<u8> {
        Ok(self.take(1, "u8")?[0])
    }

    /// Consume a little-endian `u32`.
    pub fn u32(&mut self) -> io::Result<u32> {
        let b = self.take(4, "u32")?;
        Ok(u32::from_le_bytes(b.try_into().expect("4 bytes")))
    }

    /// Consume a little-endian `u64`.
    pub fn u64(&mut self) -> io::Result<u64> {
        let b = self.take(8, "u64")?;
        Ok(u64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    /// Consume a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> io::Result<String> {
        let len = self.u32()? as usize;
        let b = self.take(len, "string")?;
        Ok(std::str::from_utf8(b).map_err(invalid)?.to_string())
    }

    /// Consume a `u32` word count and the words ([`Enc::words`]),
    /// appending them to `out`.
    fn words_into(&mut self, out: &mut Vec<u64>) -> io::Result<()> {
        let len = self.count(8)?;
        let bytes = self.take(len * 8, "words")?;
        out.extend(
            bytes
                .chunks_exact(8)
                .map(|w| u64::from_le_bytes(w.try_into().expect("8 bytes"))),
        );
        Ok(())
    }

    /// The bytes not yet consumed; [`skip`](Self::skip) what is read.
    pub(crate) fn rest(&self) -> &'a [u8] {
        &self.buf[self.pos..]
    }

    /// Consume the next `len` bytes of [`rest`](Self::rest).
    pub(crate) fn skip(&mut self, len: usize) {
        assert!(
            len <= self.left(),
            "skipping {len} of {} bytes",
            self.left()
        );
        self.pos += len;
    }

    /// The payload is used up: trailing bytes are `InvalidData`.
    pub(crate) fn end(&self) -> io::Result<()> {
        match self.left() {
            0 => Ok(()),
            left => Err(invalid(format!("{left} bytes after the message"))),
        }
    }
}

pub use no_framework::{Msg, Runs};

/// Wire bytes of a data frame's fixed header:
/// `[u32 superstep][u8 level][u32 runs][u32 words]`.
const DATA_HEADER_BYTES: usize = 13;

/// Wire bytes of one run head: `[u32 src][u32 dst][u32 len]`.
const HEAD_BYTES: usize = 12;

/// Send one superstep data frame (possibly empty) of tagged messages.
pub fn send_data(w: &mut impl Write, superstep: u32, level: u8, msgs: &[Msg]) -> io::Result<()> {
    Enc::new().data(superstep, level, msgs).send(w)
}

/// Decode one data-frame payload into `runs` (replacing its contents);
/// returns the `(superstep, level)` stamp.
///
/// The payload must be exactly the header, the heads and the words it
/// announces; the heads' sources must not decrease (the receiver's
/// inboxes are ordered by source), every run must carry a word, and
/// the lengths must sum to the word count. A short payload is
/// `UnexpectedEof`, every other violation `InvalidData`. Which PEs a
/// head may name is the receiver's to check.
pub fn decode_runs(payload: &[u8], runs: &mut Runs) -> io::Result<(u32, u8)> {
    let (head, body) = payload
        .split_at_checked(DATA_HEADER_BYTES)
        .ok_or_else(|| eof("data frame header"))?;
    let word = |b: &[u8]| u32::from_le_bytes(b.try_into().expect("4-byte field"));
    let (superstep, level) = (word(&head[..4]), head[4]);
    let (nruns, nwords) = (word(&head[5..9]) as usize, word(&head[9..]) as usize);
    let want = nruns as u64 * HEAD_BYTES as u64 + nwords as u64 * 8;
    if body.len() as u64 != want {
        return Err(io::Error::new(
            if (body.len() as u64) < want {
                io::ErrorKind::UnexpectedEof
            } else {
                io::ErrorKind::InvalidData
            },
            format!(
                "data frame announces {nruns} runs of {nwords} words, carries {} bytes",
                body.len()
            ),
        ));
    }
    let (heads, words) = body.split_at(nruns * HEAD_BYTES);
    runs.clear();
    runs.heads.extend(
        heads
            .chunks_exact(HEAD_BYTES)
            .map(|h| (word(&h[..4]), word(&h[4..8]), word(&h[8..]) as u64)),
    );
    let (mut total, mut last_src) = (0u64, 0);
    for &(src, dst, len) in &runs.heads {
        if src < last_src {
            return Err(invalid(format!(
                "data frame run {src} → {dst} follows a run from PE {last_src}"
            )));
        }
        if len == 0 {
            return Err(invalid(format!("data frame run {src} → {dst} is empty")));
        }
        last_src = src;
        total += len;
    }
    if total != nwords as u64 {
        return Err(invalid(format!(
            "data frame runs hold {total} words, header announces {nwords}"
        )));
    }
    runs.words.extend(
        words
            .chunks_exact(8)
            .map(|w| u64::from_le_bytes(w.try_into().expect("8-byte field"))),
    );
    Ok((superstep, level))
}

/// Decode one data-frame payload, appending its messages to `msgs` in
/// tagged form; returns the `(superstep, level)` stamp.
pub fn decode_data(payload: &[u8], msgs: &mut Vec<Msg>) -> io::Result<(u32, u8)> {
    let mut runs = Runs::default();
    let stamp = decode_runs(payload, &mut runs)?;
    msgs.reserve(runs.words.len());
    let mut rest = &runs.words[..];
    for &(src, dst, len) in &runs.heads {
        let (run, tail) = rest.split_at(len as usize);
        rest = tail;
        msgs.extend(run.iter().map(|&w| (src, dst, w)));
    }
    Ok(stamp)
}

/// Receive one superstep data frame: `(superstep, level, messages)`.
pub fn recv_data(r: &mut impl Read) -> io::Result<(u32, u8, Vec<Msg>)> {
    let mut payload = Vec::new();
    read_frame(r, &mut payload)?;
    let mut msgs = Vec::new();
    let (superstep, level) = decode_data(&payload, &mut msgs)?;
    Ok((superstep, level, msgs))
}

/// The head of one worker's result frame ([`Enc::dist_done`]): every
/// field but the PE memories and the signature rows that follow it.
#[derive(Debug, Clone, PartialEq)]
pub struct DistDone {
    /// Supersteps executed (must agree across the fleet).
    pub supersteps: u32,
    /// First owned PE.
    pub lo: u32,
    /// One past the last owned PE.
    pub hi: u32,
    /// Payload words actually framed to each D-BSP cluster level
    /// (sender side).
    pub socket_words_per_level: Vec<u64>,
    /// Payload words actually *delivered* from each D-BSP cluster
    /// level (receiver side). Fleet-wide, the per-level sums of this
    /// and `socket_words_per_level` must agree — the conservation
    /// invariant the equivalence tests assert.
    pub recv_words_per_level: Vec<u64>,
    /// Local operations charged through `Pe::work`.
    pub ops: u64,
    /// Frame exchanges this worker performed: one per in-scope peer per
    /// superstep. An exact, repeatable function of `(kernel, n, W)`.
    pub exchange_rounds: u64,
}

/// Control messages on the router ↔ worker connection.
#[derive(Debug, Clone, PartialEq)]
pub enum Ctl {
    /// Worker introduces itself after connecting.
    Hello {
        /// Worker index in `0..workers`.
        index: u32,
        /// Address of the worker's data-mesh listener.
        data_addr: String,
    },
    /// Router broadcasts every worker's data address (index order).
    PeerTable {
        /// `addrs[i]` is worker `i`'s data listener.
        addrs: Vec<String>,
    },
    /// Route one single-shard kernel job to this worker's local server.
    RunKernel {
        /// Registry kernel name (`sort`, `fft`, …).
        kernel: String,
        /// Problem size.
        n: u64,
        /// Deterministic input seed.
        seed: u64,
        /// Router-minted request trace id carried into the worker's
        /// serve span, so one routed request keeps one span across the
        /// fleet. `0` means untraced (the worker mints its own).
        req: u64,
    },
    /// Reply to [`Ctl::RunKernel`]: checksum or a typed-shed string.
    KernelDone {
        /// `Ok(checksum)` or `Err(rejection)` mirroring
        /// `mo_serve::Rejected`.
        result: Result<u64, String>,
    },
    /// Run a fleet-wide distributed kernel (broadcast to all workers).
    /// A worker answers with its result frame ([`Enc::dist_done`]) or
    /// a [`Ctl::DistFailed`].
    RunDist {
        /// Which kernel.
        alg: DistAlg,
        /// Problem size (`n × n` matrix for N-GEP, key count for sort).
        n: u64,
        /// N-GEP block side `κ` (ignored by sort).
        kappa: u32,
        /// Deterministic input seed.
        seed: u64,
        /// Fleet-unique job id (router-assigned), threaded through the
        /// worker into every dist trace event the job emits.
        job: u64,
    },
    /// Reply to [`Ctl::RunDist`] when this worker's run failed: a mesh
    /// transport error (dead or wedged peer, corrupt frame) or a driver
    /// that sent outside its declared scope. The worker has dropped its
    /// mesh streams, so its partners fail promptly too.
    DistFailed {
        /// The rendered `io::Error`.
        reason: String,
    },
    /// Ask the worker for its merged Prometheus text.
    MetricsReq,
    /// Reply to [`Ctl::MetricsReq`].
    MetricsText {
        /// The exposition document.
        text: String,
    },
    /// Clock-calibration probe: the router stamps its send time locally
    /// and expects a [`Ctl::ClockReply`] echoing `seq`.
    ClockProbe {
        /// Probe sequence number (guards against reordered replies).
        seq: u32,
    },
    /// Worker's answer to [`Ctl::ClockProbe`]: its trace-sink clock
    /// reading at receipt, on the same clock every event it ships is
    /// stamped with.
    ClockReply {
        /// Echo of the probe's sequence number.
        seq: u32,
        /// Worker sink time in nanoseconds since its epoch.
        t_ns: u64,
    },
    /// Drain the worker's dist trace sink and ship the events home.
    CollectTrace,
    /// Reply to [`Ctl::CollectTrace`]: the drained stream (empty when
    /// the worker runs untraced).
    TraceData {
        /// Events dropped at the worker's full trace ring.
        dropped: u64,
        /// Drained events in ring (time) order. Each travels as
        /// `[u64 ts][u8 kind][u64 a][u64 b][u64 c]`: the emitting worker
        /// is implied by the shard that shipped it, so every decoded
        /// event carries [`mo_obs::WORKER_EXTERNAL`], the id of the
        /// worker sink's own (external) ring.
        events: Vec<Event>,
    },
    /// Stop the worker process.
    Shutdown,
}

const T_HELLO: u8 = 1;
const T_PEERS: u8 = 2;
const T_RUN_KERNEL: u8 = 3;
const T_KERNEL_DONE: u8 = 4;
const T_RUN_DIST: u8 = 5;
const T_DIST_DONE: u8 = 6;
const T_METRICS_REQ: u8 = 7;
const T_METRICS_TEXT: u8 = 8;
const T_SHUTDOWN: u8 = 9;
const T_CLOCK_PROBE: u8 = 10;
const T_CLOCK_REPLY: u8 = 11;
const T_COLLECT_TRACE: u8 = 12;
const T_TRACE_DATA: u8 = 13;
const T_DIST_FAILED: u8 = 14;

/// Send one control message.
pub fn send_ctl(w: &mut impl Write, msg: &Ctl) -> io::Result<()> {
    Enc::new().ctl(msg).send(w)
}

fn encode_ctl(e: &mut Enc, msg: &Ctl) {
    match msg {
        Ctl::Hello { index, data_addr } => {
            e.u8(T_HELLO).u32(*index).str(data_addr);
        }
        Ctl::PeerTable { addrs } => {
            e.u8(T_PEERS).u32(addrs.len() as u32);
            for a in addrs {
                e.str(a);
            }
        }
        Ctl::RunKernel {
            kernel,
            n,
            seed,
            req,
        } => {
            e.u8(T_RUN_KERNEL).str(kernel).u64(*n).u64(*seed).u64(*req);
        }
        Ctl::KernelDone { result } => {
            e.u8(T_KERNEL_DONE);
            match result {
                Ok(sum) => e.u8(1).u64(*sum),
                Err(reason) => e.u8(0).str(reason),
            };
        }
        Ctl::RunDist {
            alg,
            n,
            kappa,
            seed,
            job,
        } => {
            e.u8(T_RUN_DIST)
                .u8(alg.code())
                .u64(*n)
                .u32(*kappa)
                .u64(*seed)
                .u64(*job);
        }
        Ctl::DistFailed { reason } => {
            e.u8(T_DIST_FAILED).str(reason);
        }
        Ctl::MetricsReq => {
            e.u8(T_METRICS_REQ);
        }
        Ctl::MetricsText { text } => {
            e.u8(T_METRICS_TEXT).str(text);
        }
        Ctl::ClockProbe { seq } => {
            e.u8(T_CLOCK_PROBE).u32(*seq);
        }
        Ctl::ClockReply { seq, t_ns } => {
            e.u8(T_CLOCK_REPLY).u32(*seq).u64(*t_ns);
        }
        Ctl::CollectTrace => {
            e.u8(T_COLLECT_TRACE);
        }
        Ctl::TraceData { dropped, events } => {
            e.u8(T_TRACE_DATA).u64(*dropped).u32(events.len() as u32);
            for ev in events {
                e.u64(ev.ts_ns)
                    .u8(ev.kind as u8)
                    .u64(ev.a)
                    .u64(ev.b)
                    .u64(ev.c);
            }
        }
        Ctl::Shutdown => {
            e.u8(T_SHUTDOWN);
        }
    }
}

/// Receive one control message.
pub fn recv_ctl(r: &mut impl Read) -> io::Result<Ctl> {
    let mut buf = Vec::new();
    read_frame(r, &mut buf)?;
    let mut d = Dec::new(&buf);
    let msg = decode_ctl(d.u8()?, &mut d)?;
    d.end()?;
    Ok(msg)
}

/// A control reply read into a buffer the caller keeps.
#[derive(Debug)]
pub(crate) enum Reply<'a> {
    /// A result frame ([`Enc::dist_done`]), left undecoded behind its
    /// tag: read it with [`decode_done_head`], then its rows.
    Done(Dec<'a>),
    /// Any other message, decoded.
    Other(Ctl),
    /// A whole frame that is no message (an `InvalidData` error): the
    /// channel is still in step.
    Malformed(io::Error),
}

/// Receive one control message or result frame into `buf` (its
/// allocation reused), as the router reads fleet results: a result is
/// handed over undecoded, so its rows can be checked and kept as they
/// are. `Err` is a frame that could not be read whole, after which the
/// channel is out of step; a whole frame that does not decode is
/// [`Reply::Malformed`].
pub(crate) fn recv_reply<'a>(r: &mut impl Read, buf: &'a mut Vec<u8>) -> io::Result<Reply<'a>> {
    read_frame(r, buf)?;
    let mut d = Dec::new(buf);
    let reply = match d.u8() {
        Ok(T_DIST_DONE) => return Ok(Reply::Done(d)),
        Ok(tag) => decode_ctl(tag, &mut d).and_then(|msg| d.end().map(|()| msg)),
        Err(e) => Err(e),
    };
    Ok(reply.map_or_else(|e| Reply::Malformed(invalid(e.to_string())), Reply::Other))
}

/// Decode the body of a result frame (after its tag) up to its
/// signature rows, into buffers the caller may keep across jobs: each PE
/// memory's words are appended to `mem_words` and its length to
/// `mem_lens`. Returns the head. What follows is `supersteps`
/// supersteps of rows from `lo` ([`no_framework::codec`]).
pub(crate) fn decode_done_head(
    d: &mut Dec<'_>,
    mem_words: &mut Vec<u64>,
    mem_lens: &mut Vec<usize>,
) -> io::Result<DistDone> {
    let mut done = DistDone {
        supersteps: d.u32()?,
        lo: d.u32()?,
        hi: d.u32()?,
        ops: d.u64()?,
        exchange_rounds: d.u64()?,
        socket_words_per_level: Vec::new(),
        recv_words_per_level: Vec::new(),
    };
    d.words_into(&mut done.socket_words_per_level)?;
    d.words_into(&mut done.recv_words_per_level)?;
    let pes = d.count(4)?;
    mem_lens.reserve(pes);
    for _ in 0..pes {
        let at = mem_words.len();
        d.words_into(mem_words)?;
        mem_lens.push(mem_words.len() - at);
    }
    Ok(done)
}

/// Decode the fields of the control message tagged `tag`.
fn decode_ctl(tag: u8, d: &mut Dec<'_>) -> io::Result<Ctl> {
    match tag {
        T_HELLO => Ok(Ctl::Hello {
            index: d.u32()?,
            data_addr: d.str()?,
        }),
        T_PEERS => {
            let count = d.count(4)?;
            let mut addrs = Vec::with_capacity(count);
            for _ in 0..count {
                addrs.push(d.str()?);
            }
            Ok(Ctl::PeerTable { addrs })
        }
        T_RUN_KERNEL => Ok(Ctl::RunKernel {
            kernel: d.str()?,
            n: d.u64()?,
            seed: d.u64()?,
            req: d.u64()?,
        }),
        T_KERNEL_DONE => {
            let ok = d.u8()? == 1;
            let result = if ok { Ok(d.u64()?) } else { Err(d.str()?) };
            Ok(Ctl::KernelDone { result })
        }
        T_RUN_DIST => Ok(Ctl::RunDist {
            alg: DistAlg::from_code(d.u8()?)?,
            n: d.u64()?,
            kappa: d.u32()?,
            seed: d.u64()?,
            job: d.u64()?,
        }),
        T_DIST_DONE => Err(invalid(
            "a result frame where a control message is expected",
        )),
        T_DIST_FAILED => Ok(Ctl::DistFailed { reason: d.str()? }),
        T_METRICS_REQ => Ok(Ctl::MetricsReq),
        T_METRICS_TEXT => Ok(Ctl::MetricsText { text: d.str()? }),
        T_CLOCK_PROBE => Ok(Ctl::ClockProbe { seq: d.u32()? }),
        T_CLOCK_REPLY => Ok(Ctl::ClockReply {
            seq: d.u32()?,
            t_ns: d.u64()?,
        }),
        T_COLLECT_TRACE => Ok(Ctl::CollectTrace),
        T_TRACE_DATA => {
            let dropped = d.u64()?;
            let count = d.count(33)?;
            let mut events = Vec::with_capacity(count);
            for _ in 0..count {
                let ts_ns = d.u64()?;
                let kind = d.u8()?;
                let kind = EventKind::from_u8(kind)
                    .ok_or_else(|| invalid(format!("unknown trace event kind {kind}")))?;
                events.push(Event {
                    ts_ns,
                    kind,
                    worker: WORKER_EXTERNAL,
                    a: d.u64()?,
                    b: d.u64()?,
                    c: d.u64()?,
                });
            }
            Ok(Ctl::TraceData { dropped, events })
        }
        T_SHUTDOWN => Ok(Ctl::Shutdown),
        other => Err(invalid(format!("unknown control tag {other}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::signature::Signature;
    use no_framework::codec::{put_rows, zigzag};

    /// `steps` of rows as a worker's engine logs them from `lo`.
    fn coded(lo: u32, steps: &[Vec<Msg>]) -> Vec<u8> {
        let mut bytes = Vec::new();
        for rows in steps {
            put_rows(&mut bytes, lo, rows);
        }
        bytes
    }

    /// A worker's result frame, as [`Enc::dist_done`] writes it, of the
    /// head `done`, the PE memories `mems` and the row bytes `traffic`.
    fn result_frame(done: &DistDone, mems: &[Vec<u64>], traffic: &[u8]) -> Vec<u8> {
        let mut frame = Vec::new();
        Enc::new()
            .dist_done(done, mems, usize::MAX, traffic)
            .send(&mut frame)
            .unwrap();
        frame
    }

    /// A result frame's head, PE memories and signature rows.
    type Fields = (DistDone, Vec<Vec<u64>>, Vec<Vec<Msg>>);

    /// A result as the router reads one off `r` ([`recv_reply`],
    /// [`decode_done_head`], [`Signature::push_shard`]) for a machine
    /// of `n_pes` PEs: its head, its PE memories and its rows, checked
    /// against the PEs `lo..hi` the head names.
    fn read_result(r: &mut &[u8], n_pes: u32) -> io::Result<Fields> {
        let mut buf = Vec::new();
        let mut d = match recv_reply(r, &mut buf)? {
            Reply::Done(d) => d,
            Reply::Other(other) => return Err(unexpected("a result frame", &other)),
            Reply::Malformed(e) => return Err(e),
        };
        let (mut words, mut lens) = (Vec::new(), Vec::new());
        let done = decode_done_head(&mut d, &mut words, &mut lens)?;
        let mut signature = Signature::default();
        let steps = done.supersteps as usize;
        signature.push_shard(&mut d, 0, done.lo..done.hi, n_pes, steps, 1)?;
        d.end()?;
        let mut rest = &words[..];
        let mems = lens
            .iter()
            .map(|&len| {
                let (mem, tail) = rest.split_at(len);
                rest = tail;
                mem.to_vec()
            })
            .collect();
        Ok((done, mems, signature.to_vecs()))
    }

    /// Whether the router keeps `steps` of rows from the shard owning
    /// PEs `lo..hi` of `n_pes`: each superstep's rows strictly ascending
    /// by `(src, dst)`, every `src` in `lo..hi`, every `dst` a PE.
    fn keepable(steps: &[Vec<Msg>], lo: u32, hi: u32, n_pes: u32) -> bool {
        steps.iter().all(|rows| {
            rows.iter().all(|r| (lo..hi).contains(&r.0) && r.1 < n_pes)
                && rows.windows(2).all(|w| (w[0].0, w[0].1) < (w[1].0, w[1].1))
        })
    }

    fn roundtrip(msg: Ctl) {
        let mut buf = Vec::new();
        send_ctl(&mut buf, &msg).unwrap();
        let got = recv_ctl(&mut buf.as_slice()).unwrap();
        assert_eq!(got, msg);
    }

    #[test]
    fn control_messages_roundtrip() {
        roundtrip(Ctl::Hello {
            index: 3,
            data_addr: "127.0.0.1:4567".into(),
        });
        roundtrip(Ctl::PeerTable {
            addrs: vec!["a:1".into(), "b:2".into()],
        });
        roundtrip(Ctl::RunKernel {
            kernel: "sort".into(),
            n: 1000,
            seed: 7,
            req: (0xFFFFu64 << 48) | 3,
        });
        roundtrip(Ctl::KernelDone { result: Ok(42) });
        roundtrip(Ctl::KernelDone {
            result: Err("TooLarge".into()),
        });
        roundtrip(Ctl::RunDist {
            alg: DistAlg::Ngep,
            n: 32,
            kappa: 4,
            seed: 1,
            job: 77,
        });
        // A result frame of the shard owning PEs 4..8 of 16 comes back
        // as it went; a row from PE 0, which it does not own, is refused.
        let done = DistDone {
            supersteps: 2,
            lo: 4,
            hi: 8,
            socket_words_per_level: vec![10, 20],
            recv_words_per_level: vec![20, 10],
            ops: 99,
            exchange_rounds: 6,
        };
        let mems = vec![vec![1, 2], vec![], vec![3], vec![4]];
        let rows = vec![vec![(5, 1, 5)], vec![]];
        let frame = result_frame(&done, &mems, &coded(4, &rows));
        assert_eq!(
            read_result(&mut frame.as_slice(), 16).unwrap(),
            (done.clone(), mems.clone(), rows)
        );
        let foreign = result_frame(&done, &mems, &coded(4, &[vec![(0, 1, 5)], vec![]]));
        let err = read_result(&mut foreign.as_slice(), 16).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        roundtrip(Ctl::DistFailed {
            reason: "worker 1 superstep 4: peer 0: timed out".into(),
        });
        roundtrip(Ctl::ClockProbe { seq: 4 });
        roundtrip(Ctl::ClockReply {
            seq: 4,
            t_ns: 123_456_789,
        });
        roundtrip(Ctl::CollectTrace);
        roundtrip(Ctl::TraceData {
            dropped: 0,
            events: vec![],
        });
        let ev = |ts_ns, kind, a, b, c| Event {
            ts_ns,
            kind,
            worker: WORKER_EXTERNAL,
            a,
            b,
            c,
        };
        roundtrip(Ctl::TraceData {
            dropped: 3,
            events: vec![
                ev(100, EventKind::SuperstepBegin, 7, 0, 0),
                ev(200, EventKind::ExchangeSend, 1, 0x301, 64),
            ],
        });
        roundtrip(Ctl::MetricsReq);
        roundtrip(Ctl::MetricsText {
            text: "# HELP x y\n".into(),
        });
        roundtrip(Ctl::Shutdown);
    }

    /// `send_data` / `recv_data` over the run codec: one-word runs,
    /// tagged messages merged into one run per consecutive pair (a head
    /// per run, 8 bytes a word), and an empty frame, which is only a
    /// barrier.
    #[test]
    fn data_frames_roundtrip_and_empty_frames_are_barriers() {
        let ones = [(0, 9, 123), (1, 9, 456), (1, 8, 7)];
        let merged = [
            (2, 5, 1),
            (2, 5, 2),
            (2, 5, 3),
            (2, 6, 4),
            (3, 5, 5),
            (3, 5, 6),
        ];
        let mut buf = Vec::new();
        send_data(&mut buf, 7, 1, &ones).unwrap();
        assert_eq!(buf.len(), 4 + DATA_HEADER_BYTES + 3 * (HEAD_BYTES + 8));
        let at = buf.len();
        send_data(&mut buf, 8, 2, &merged).unwrap();
        assert_eq!(
            buf.len() - at,
            4 + DATA_HEADER_BYTES + 3 * HEAD_BYTES + 6 * 8
        );
        let mut runs = Runs::default();
        assert_eq!(decode_runs(&buf[at + 4..], &mut runs).unwrap(), (8, 2));
        assert_eq!(runs.heads, [(2, 5, 3), (2, 6, 1), (3, 5, 2)]);
        assert_eq!(runs.words, [1, 2, 3, 4, 5, 6]);
        let at = buf.len();
        send_data(&mut buf, 9, 0, &[]).unwrap();
        assert_eq!(buf.len() - at, 4 + DATA_HEADER_BYTES);
        let mut r = buf.as_slice();
        assert_eq!(recv_data(&mut r).unwrap(), (7, 1, ones.to_vec()));
        assert_eq!(recv_data(&mut r).unwrap(), (8, 2, merged.to_vec()));
        assert_eq!(recv_data(&mut r).unwrap(), (9, 0, vec![]));
        assert!(r.is_empty());
    }

    #[test]
    fn oversized_length_prefix_is_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(u32::MAX).to_le_bytes());
        assert!(read_frame(&mut buf.as_slice(), &mut Vec::new()).is_err());
    }

    #[test]
    fn truncated_payload_is_a_typed_eof() {
        let mut buf = Vec::new();
        send_ctl(&mut buf, &Ctl::MetricsReq).unwrap();
        buf.truncate(buf.len() - 1);
        // The length prefix promises more bytes than arrive.
        let mut short = buf.clone();
        short[0] = 2; // claim 2 payload bytes, deliver 0
        short.truncate(4);
        assert!(read_frame(&mut short.as_slice(), &mut Vec::new()).is_err());
    }

    /// SplitMix64, the property tests' seeded source.
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
        fn words(&mut self, max: usize) -> Vec<u64> {
            (0..self.below(max + 1)).map(|_| self.next()).collect()
        }
        fn string(&mut self) -> String {
            (0..self.below(24))
                .map(|_| char::from_u32(0x20 + self.below(0x2000) as u32).unwrap_or('?'))
                .collect()
        }
        fn msgs(&mut self, max: usize) -> Vec<Msg> {
            (0..self.below(max + 1))
                .map(|_| (self.next() as u32, self.next() as u32, self.next()))
                .collect()
        }
        /// Tagged messages as a worker sends them: sources ascending,
        /// often several words to one destination in a row.
        fn sent(&mut self, max: usize) -> Vec<Msg> {
            let mut src = self.next() as u32 >> 4;
            (0..self.below(max + 1))
                .map(|_| {
                    src += (self.below(4) == 0) as u32;
                    (src, self.below(3) as u32, self.next())
                })
                .collect()
        }
        /// A PE index, often one at an end of `u32`.
        fn pe(&mut self) -> u32 {
            const EDGES: [u32; 5] = [0, 1, u32::MAX / 2, u32::MAX - 1, u32::MAX];
            match self.below(3) {
                0 => EDGES[self.below(EDGES.len())],
                _ => self.next() as u32,
            }
        }
        /// Signature rows as no engine logs them: in no order, at the
        /// ends of `u32`, with word counts up to `u64::MAX`.
        fn wild_rows(&mut self, max: usize) -> Vec<Msg> {
            (0..self.below(max + 1))
                .map(|_| {
                    let words = match self.below(4) {
                        0 => 0,
                        1 => u64::MAX,
                        2 => self.below(4) as u64,
                        _ => self.next(),
                    };
                    (self.pe(), self.pe(), words)
                })
                .collect()
        }
        /// A shard's PEs `lo..hi` of a machine of `n_pes`, often at the
        /// ends of `u32`.
        fn shard(&mut self) -> (u32, u32, u32) {
            let lo = self.pe();
            let hi = lo.saturating_add(self.below(9) as u32);
            let n_pes = match self.below(2) {
                0 => u32::MAX,
                _ => hi.saturating_add(self.below(9) as u32),
            };
            (lo, hi, n_pes)
        }
        /// `steps` supersteps of rows as an engine logs them for the
        /// shard owning PEs `lo..hi` of `n_pes`: strictly ascending by
        /// `(src, dst)`, word counts anywhere in `u64`.
        fn honest_rows(&mut self, (lo, hi, n_pes): (u32, u32, u32), steps: usize) -> Vec<Vec<Msg>> {
            (0..steps)
                .map(|_| {
                    if lo == hi || n_pes == 0 {
                        return Vec::new();
                    }
                    let mut rows: Vec<Msg> = (0..self.below(9))
                        .map(|_| {
                            let src = lo + (self.next() % u64::from(hi - lo)) as u32;
                            let dst = (self.next() % u64::from(n_pes)) as u32;
                            (src, dst, self.next() >> self.below(64))
                        })
                        .collect();
                    rows.sort_unstable_by_key(|r| (r.0, r.1));
                    rows.dedup_by_key(|r| (r.0, r.1));
                    rows
                })
                .collect()
        }
        fn event(&mut self) -> Event {
            Event {
                ts_ns: self.next(),
                kind: EventKind::ALL[self.below(EventKind::ALL.len())],
                worker: WORKER_EXTERNAL,
                a: self.next(),
                b: self.next(),
                c: self.next(),
            }
        }
    }

    const VARIANTS: usize = 13;

    /// Which generator index produces this variant. The match has no
    /// wildcard, so a new `Ctl` variant fails to compile until the
    /// property tests below generate it.
    fn variant_index(msg: &Ctl) -> usize {
        match msg {
            Ctl::Hello { .. } => 0,
            Ctl::PeerTable { .. } => 1,
            Ctl::RunKernel { .. } => 2,
            Ctl::KernelDone { .. } => 3,
            Ctl::RunDist { .. } => 4,
            Ctl::DistFailed { .. } => 5,
            Ctl::MetricsReq => 6,
            Ctl::MetricsText { .. } => 7,
            Ctl::ClockProbe { .. } => 8,
            Ctl::ClockReply { .. } => 9,
            Ctl::CollectTrace => 10,
            Ctl::TraceData { .. } => 11,
            Ctl::Shutdown => 12,
        }
    }

    fn arbitrary_ctl(rng: &mut Rng, variant: usize) -> Ctl {
        match variant {
            0 => Ctl::Hello {
                index: rng.next() as u32,
                data_addr: rng.string(),
            },
            1 => Ctl::PeerTable {
                addrs: (0..rng.below(9)).map(|_| rng.string()).collect(),
            },
            2 => Ctl::RunKernel {
                kernel: rng.string(),
                n: rng.next(),
                seed: rng.next(),
                req: rng.next(),
            },
            3 => Ctl::KernelDone {
                result: if rng.below(2) == 0 {
                    Ok(rng.next())
                } else {
                    Err(rng.string())
                },
            },
            4 => Ctl::RunDist {
                alg: DistAlg::ALL[rng.below(DistAlg::ALL.len())],
                n: rng.next(),
                kappa: rng.next() as u32,
                seed: rng.next(),
                job: rng.next(),
            },
            5 => Ctl::DistFailed {
                reason: rng.string(),
            },
            6 => Ctl::MetricsReq,
            7 => Ctl::MetricsText { text: rng.string() },
            8 => Ctl::ClockProbe {
                seq: rng.next() as u32,
            },
            9 => Ctl::ClockReply {
                seq: rng.next() as u32,
                t_ns: rng.next(),
            },
            10 => Ctl::CollectTrace,
            11 => Ctl::TraceData {
                dropped: rng.next(),
                events: (0..rng.below(5)).map(|_| rng.event()).collect(),
            },
            _ => Ctl::Shutdown,
        }
    }

    /// Every strict prefix of `frame` must decode to a typed error, and
    /// `frame` with seeded byte damage to *some* `io::Result` — never a
    /// panic, never an allocation sized by a corrupt count.
    fn assert_damage_is_typed<T: std::fmt::Debug>(
        rng: &mut Rng,
        frame: &[u8],
        decode: impl Fn(&mut &[u8]) -> io::Result<T>,
    ) {
        for cut in 0..frame.len() {
            let got = decode(&mut &frame[..cut]);
            assert!(
                got.is_err(),
                "prefix {cut}/{} decoded: {got:?}",
                frame.len()
            );
        }
        for _ in 0..32 {
            let mut bad = frame.to_vec();
            for _ in 0..1 + rng.below(3) {
                let at = rng.below(bad.len());
                bad[at] ^= 1 << rng.below(8);
            }
            let _ = decode(&mut bad.as_slice());
        }
    }

    /// Satellite: seeded round-trip + truncation/corruption property
    /// test over every `Ctl` variant.
    #[test]
    fn every_ctl_variant_roundtrips_and_survives_damage() {
        let mut rng = Rng(0xc71);
        for round in 0..40 {
            for variant in 0..VARIANTS {
                let msg = arbitrary_ctl(&mut rng, variant);
                assert_eq!(variant_index(&msg), variant, "generator covers the enum");
                let mut frame = Vec::new();
                send_ctl(&mut frame, &msg).unwrap();
                let back = recv_ctl(&mut frame.as_slice()).unwrap();
                assert_eq!(back, msg, "round {round} variant {variant}");
                assert_damage_is_typed(&mut rng, &frame, |r| recv_ctl(r));
                // An event kind no `EventKind` has is a typed error, never
                // an event dropped on the floor. The kind byte of event `i`
                // follows the length prefix, tag, `dropped`, count and the
                // event's own timestamp.
                let traced = match &msg {
                    Ctl::TraceData { events, .. } => events.len(),
                    _ => 0,
                };
                if traced > 0 {
                    let kinds = EventKind::ALL.len();
                    frame[25 + 33 * rng.below(traced)] = (kinds + rng.below(256 - kinds)) as u8;
                    let err = recv_ctl(&mut frame.as_slice()).unwrap_err();
                    assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
                }
            }
            // The answer to a `RunDist` is a result frame, not a `Ctl`:
            // honest rows round-trip, rows in no order are refused.
            let shard = rng.shard();
            let steps = rng.below(5);
            let honest = rng.honest_rows(shard, steps);
            assert!(check_result(&mut rng, shard, &honest), "round {round}");
            let wild: Vec<Vec<Msg>> = (0..steps).map(|_| rng.msgs(4)).collect();
            check_result(&mut rng, shard, &wild);
        }
    }

    /// Re-frame `payload` behind a fresh length prefix.
    fn framed(payload: &[u8]) -> Vec<u8> {
        let mut frame = (payload.len() as u32).to_le_bytes().to_vec();
        frame.extend_from_slice(payload);
        frame
    }

    /// Satellite: the same for run frames through `send_data` /
    /// `recv_data`, including back-to-back frames on one stream; and a
    /// head whose length no longer sums with the others to the word
    /// count, or bytes after the words, is `InvalidData`.
    #[test]
    fn data_frames_roundtrip_and_survive_damage() {
        let mut rng = Rng(0xda7a);
        for _ in 0..60 {
            let (step, level) = (rng.next() as u32, rng.next() as u8);
            let msgs = rng.sent(40);
            let mut frame = Vec::new();
            send_data(&mut frame, step, level, &msgs).unwrap();
            let solo = frame.len();
            send_data(&mut frame, step.wrapping_add(1), level, &[]).unwrap();
            let mut r = frame.as_slice();
            assert_eq!(recv_data(&mut r).unwrap(), (step, level, msgs));
            assert_eq!(
                recv_data(&mut r).unwrap(),
                (step.wrapping_add(1), level, vec![])
            );
            assert!(r.is_empty());
            assert_damage_is_typed(&mut rng, &frame[..solo], |r| recv_data(r));

            let payload = &frame[4..solo];
            let nruns = u32::from_le_bytes(payload[5..9].try_into().unwrap()) as usize;
            if nruns > 0 {
                let mut bad = payload.to_vec();
                let len_at = DATA_HEADER_BYTES + HEAD_BYTES * rng.below(nruns) + 8;
                let len = u32::from_le_bytes(bad[len_at..len_at + 4].try_into().unwrap());
                let wrong = len.wrapping_add(1 + rng.below(5) as u32);
                bad[len_at..len_at + 4].copy_from_slice(&wrong.to_le_bytes());
                let err = recv_data(&mut framed(&bad).as_slice()).unwrap_err();
                assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
            }
            let mut long = payload.to_vec();
            long.extend((0..1 + rng.below(8)).map(|_| rng.next() as u8));
            let err = recv_data(&mut framed(&long).as_slice()).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        }
    }

    /// Frames of the right size whose runs break the format are
    /// `InvalidData`: sources that decrease (the receiver's inboxes
    /// would leave source order), an empty run (the encoder never emits
    /// one), lengths that do not sum to the word count.
    #[test]
    fn malformed_runs_are_invalid_data() {
        let frame = |heads: &[(u32, u32, u32)], words: u32| {
            let mut e = Enc::new();
            e.u32(3).u8(1).u32(heads.len() as u32).u32(words);
            for &(src, dst, len) in heads {
                e.u32(src).u32(dst).u32(len);
            }
            for w in 0..words {
                e.u64(w as u64);
            }
            let mut out = Vec::new();
            e.send(&mut out).unwrap();
            out
        };
        let ok = frame(&[(1, 2, 2), (1, 3, 1), (4, 2, 1)], 4);
        let (_, _, msgs) = recv_data(&mut ok.as_slice()).unwrap();
        assert_eq!(msgs, [(1, 2, 0), (1, 2, 1), (1, 3, 2), (4, 2, 3)]);
        for (what, bad) in [
            ("descending sources", frame(&[(4, 2, 2), (1, 2, 2)], 4)),
            ("an empty run", frame(&[(1, 2, 0), (4, 2, 4)], 4)),
            ("lengths over the count", frame(&[(1, 2, 3), (4, 2, 2)], 4)),
            ("lengths under the count", frame(&[(1, 2, 1), (4, 2, 2)], 4)),
        ] {
            let err = recv_data(&mut bad.as_slice()).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{what}: {err}");
        }
    }

    /// A result frame of `rows` from the shard owning PEs `lo..hi` of
    /// `n_pes`, its other fields random, read back as the router reads
    /// it. Rows the router keeps ([`keepable`]) round-trip with the rest
    /// of the frame, every strict prefix — cut off by the stream or
    /// re-framed behind a length that matches it — is an error, a byte
    /// after the frame is `InvalidData`, seeded damage never panics, and
    /// a control-message read of the frame is `InvalidData`. Any other
    /// rows are `InvalidData`. Returns whether the rows were kept.
    fn check_result(rng: &mut Rng, (lo, hi, n_pes): (u32, u32, u32), rows: &[Vec<Msg>]) -> bool {
        let done = DistDone {
            supersteps: rows.len() as u32,
            lo,
            hi,
            socket_words_per_level: rng.words(3),
            recv_words_per_level: rng.words(3),
            ops: rng.next(),
            exchange_rounds: rng.next(),
        };
        let mems: Vec<Vec<u64>> = (0..rng.below(5)).map(|_| rng.words(6)).collect();
        let frame = result_frame(&done, &mems, &coded(lo, rows));
        let read = |r: &mut &[u8]| read_result(r, n_pes);
        if !keepable(rows, lo, hi, n_pes) {
            let err = read(&mut frame.as_slice()).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
            return false;
        }
        assert_eq!(
            read(&mut frame.as_slice()).unwrap(),
            (done, mems, rows.to_vec())
        );
        assert_damage_is_typed(rng, &frame, read);
        let payload = &frame[4..];
        for cut in 0..payload.len() {
            let got = read(&mut framed(&payload[..cut]).as_slice());
            assert!(got.is_err(), "payload prefix {cut} decoded: {got:?}");
        }
        let mut long = payload.to_vec();
        long.push(rng.next() as u8);
        let err = read(&mut framed(&long).as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        let err = recv_ctl(&mut frame.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        true
    }

    /// Result frames through the router's reader: honest rows, empty
    /// supersteps, no PEs or empty PE memories and `lo` anywhere in
    /// `u32` round-trip and survive damage; rows in no order, at the
    /// ends of `u32` and with word counts up to `u64::MAX` are
    /// `InvalidData` unless they happen to be rows the router keeps.
    #[test]
    fn dist_done_frames_roundtrip_and_survive_damage() {
        let mut rng = Rng(0xd15d);
        let mut refused = 0;
        for round in 0..300 {
            let shard = rng.shard();
            let steps = rng.below(6);
            let honest = rng.honest_rows(shard, steps);
            assert!(check_result(&mut rng, shard, &honest), "round {round}");
            let wild: Vec<Vec<Msg>> = (0..steps).map(|_| rng.wild_rows(8)).collect();
            refused += !check_result(&mut rng, shard, &wild) as usize;
        }
        assert!(refused > 100, "only {refused} of 300 wild results refused");
    }

    /// One superstep of hand-made row bytes behind a result head of the
    /// shard owning PE `lo` alone, with no PEs in the frame: an overlong
    /// varint, a varint past `u64`, and a row whose `src` or `dst`
    /// leaves `u32` are `InvalidData`.
    #[test]
    fn bad_varints_and_rows_outside_u32_are_invalid_data() {
        let step = |lo: u32, rows: &[u8]| {
            let done = DistDone {
                supersteps: 1,
                lo,
                hi: lo.saturating_add(1),
                socket_words_per_level: vec![],
                recv_words_per_level: vec![],
                ops: 0,
                exchange_rounds: 0,
            };
            read_result(&mut result_frame(&done, &[], rows).as_slice(), u32::MAX)
        };
        let zz = |v: i64| zigzag(v) as u8;
        assert_eq!(step(5, &[1, zz(0), zz(1), 7]).unwrap().2, [vec![(5, 6, 7)]]);
        let mut overlong = vec![0x80; 10];
        overlong.push(0);
        let mut past_u64 = vec![1, zz(0), zz(0)];
        past_u64.extend([0xff; 9]);
        past_u64.push(2);
        let mut huge_delta = vec![1];
        huge_delta.extend([0xfe, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01]);
        huge_delta.extend([0, 0]);
        for (what, lo, rows) in [
            ("an 11-byte varint", 0, overlong),
            ("a varint past u64", 0, past_u64),
            ("src below 0", 0, vec![1, zz(-1), zz(0), 1]),
            ("src past u32", u32::MAX, vec![1, zz(1), zz(0), 1]),
            ("dst below 0", 0, vec![1, zz(0), zz(-1), 1]),
            ("dst past u32", u32::MAX, vec![1, zz(0), zz(1), 1]),
            ("a delta past i64", u32::MAX, huge_delta),
        ] {
            let err = step(lo, &rows).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{what}: {err}");
        }
    }
}
