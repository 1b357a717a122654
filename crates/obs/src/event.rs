//! The fixed-size binary event schema.
//!
//! Every event is five 64-bit words: a nanosecond timestamp (relative
//! to the sink's epoch), a kind + worker id word, and three payload
//! words whose meaning depends on the kind (see [`EventKind`]). The
//! fixed shape is what lets the rings store events in place with plain
//! atomic stores — no allocation, no serialization on the hot path.

/// Worker id recorded for events emitted by threads that are not
/// resident pool workers (server threads, test threads inside `enter`).
pub const WORKER_EXTERNAL: u32 = u32::MAX;

/// What happened. The payload convention per kind (`a`/`b`/`c` are the
/// event's three payload words):
///
/// | kind | `a` | `b` | `c` |
/// |---|---|---|---|
/// | [`TaskEnter`](Self::TaskEnter) | job id | origin (0 own, 1 injector, 2 stolen) | victim worker when stolen |
/// | [`TaskExit`](Self::TaskExit) | job id | — | — |
/// | [`ForkSerial`](Self::ForkSerial) | space bound (words) | SB anchor level | L1 cutoff (words) |
/// | [`ForkParallel`](Self::ForkParallel) | space bound (words) | SB anchor level | — |
/// | [`ForkDenied`](Self::ForkDenied) | space bound (words) | SB anchor level | — |
/// | [`StealAttempt`](Self::StealAttempt) | — | — | — |
/// | [`StealSuccess`](Self::StealSuccess) | victim worker | job id | — |
/// | [`InjectorPop`](Self::InjectorPop) | job id | — | — |
/// | [`Park`](Self::Park) / [`Unpark`](Self::Unpark) | — | — | — |
/// | [`CgcSegment`](Self::CgcSegment) | segment `lo` | segment `hi` | grain |
/// | [`CacheWitness`](Self::CacheWitness) | counter id (see [`crate::witness`]) | measured delta | job id (`0` = root scope) |
/// | [`SuperstepBegin`](Self::SuperstepBegin) / [`SuperstepEnd`](Self::SuperstepEnd) | fleet job id | superstep index | — |
/// | [`ExchangeSend`](Self::ExchangeSend) / [`ExchangeRecv`](Self::ExchangeRecv) | peer worker | [`pack_step_level`] | payload words |
/// | [`BarrierWait`](Self::BarrierWait) | peer worker | [`pack_step_level`] | wait ns |
/// | [`DistJobBegin`](Self::DistJobBegin) | fleet job id | kernel code | problem size `n` |
/// | [`DistJobEnd`](Self::DistJobEnd) | fleet job id | supersteps executed | — |
/// | [`ServeArrive`](Self::ServeArrive) | request id | kernel code | problem size `n` |
/// | [`ServeAdmit`](Self::ServeAdmit) | request id | footprint (words) | anchor level |
/// | [`ServeEnqueue`](Self::ServeEnqueue) | request id | queue depth after push | deadline budget ns |
/// | [`ServeDequeue`](Self::ServeDequeue) | request id | queue wait ns | — |
/// | [`ServeBatchForm`](Self::ServeBatchForm) | request id | batch size | batch footprint (words) |
/// | [`ServeExecute`](Self::ServeExecute) | request id | batch size | anchor level |
/// | [`ServeRespond`](Self::ServeRespond) | request id | service ns | batch size |
/// | [`ServeShed`](Self::ServeShed) | request id | shed reason code | waited ns |
///
/// The three fork kinds *are* the SB anchor decisions: the kind records
/// the decision taken, `a` the declared space bound and `b` the level
/// the space bound anchors at (`u64::MAX` when it exceeds every cache).
///
/// The seven dist kinds are the D-BSP cost model made observable: a
/// superstep begin/end pair brackets one BSP superstep on one worker
/// process; each exchange send/recv is one XOR-round frame to/from
/// `peer`, stamped with the superstep and the pair's cluster level so a
/// fleet merge can draw the send→recv flow across process tracks; a
/// barrier-wait records how long the worker blocked on `peer`'s frame
/// (load imbalance — the lateness the paper's per-level `H(n,p,B)`
/// charge abstracts away).
///
/// The eight serve kinds trace one request through the mo-serve
/// admission path — `arrive → admit/shed → enqueue → dequeue →
/// batch-form → execute → respond` — keyed by a fleet-unique request
/// id in `a` (shard tag in the high bits, per-shard counter in the
/// low, the same scheme as the router's dist job ids). A span opens at
/// `ServeArrive` and closes at exactly one of `ServeRespond` or
/// `ServeShed`; everything in between is a phase boundary whose
/// timestamp deltas the [`crate::span`] assembler turns into per-phase
/// latency attribution.
#[repr(u8)]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EventKind {
    /// A queued task started executing on some thread.
    TaskEnter = 0,
    /// That task finished.
    TaskExit = 1,
    /// A fork was serialized by the space-bound cutoff.
    ForkSerial = 2,
    /// A fork ran in parallel (its second branch became stealable).
    ForkParallel = 3,
    /// A fork above the cutoff was serialized for lack of a core permit.
    ForkDenied = 4,
    /// A full work-finding scan (own deque, injector, every other
    /// deque) came up empty.
    StealAttempt = 5,
    /// A task was stolen from another worker's deque.
    StealSuccess = 6,
    /// A task was popped from the external-submission injector queue.
    InjectorPop = 7,
    /// A worker went to sleep on the idle condvar.
    Park = 8,
    /// A parked worker woke up.
    Unpark = 9,
    /// `pfor` issued one contiguous CGC segment.
    CgcSegment = 10,
    /// A cache-witness backend attributed measured cache traffic to the
    /// task that just finished: `a` is the hardware counter id
    /// ([`crate::witness::CTR_L1D_MISS`] / [`crate::witness::CTR_LLC_MISS`] /
    /// [`crate::witness::CTR_INSTRUCTIONS`]), `b` the counter delta over
    /// the task's execution (exclusive of nested tasks it help-executed),
    /// `c` the job id (`0` for the root scope of an `enter`).
    CacheWitness = 11,
    /// A D-BSP superstep started on this worker process (`a` = fleet
    /// job id, `b` = superstep index).
    SuperstepBegin = 12,
    /// That superstep's compute + exchange + deliver finished.
    SuperstepEnd = 13,
    /// One XOR-round data frame was sent to `a` = peer worker;
    /// `b` = [`pack_step_level`], `c` = payload words framed.
    ExchangeSend = 14,
    /// One XOR-round data frame arrived from `a` = peer worker;
    /// `b` = [`pack_step_level`], `c` = payload words delivered.
    ExchangeRecv = 15,
    /// The worker blocked `c` nanoseconds waiting for `a` = peer's
    /// frame (`b` = [`pack_step_level`]) — per-round barrier lateness.
    BarrierWait = 16,
    /// A fleet-wide distributed kernel started on this worker
    /// (`a` = fleet job id, `b` = kernel code, `c` = problem size).
    DistJobBegin = 17,
    /// That kernel finished (`a` = fleet job id, `b` = supersteps).
    DistJobEnd = 18,
    /// A request reached `Server::submit` (`a` = request id,
    /// `b` = kernel code, `c` = problem size). Opens the span.
    ServeArrive = 19,
    /// The request passed admission control (`a` = request id,
    /// `b` = analytic footprint in words, `c` = SB anchor level).
    ServeAdmit = 20,
    /// The request was pushed onto the bounded queue (`a` = request id,
    /// `b` = queue depth after the push, `c` = deadline budget ns).
    ServeEnqueue = 21,
    /// A worker popped the request for batching (`a` = request id,
    /// `b` = nanoseconds spent queued).
    ServeDequeue = 22,
    /// The request was folded into a same-kernel batch (`a` = request
    /// id, `b` = batch size, `c` = batch footprint in words).
    ServeBatchForm = 23,
    /// The batch holding the request entered the SB pool (`a` = request
    /// id, `b` = batch size, `c` = anchor level).
    ServeExecute = 24,
    /// The request's result was sent to the caller (`a` = request id,
    /// `b` = service ns, `c` = batch size). Closes the span.
    ServeRespond = 25,
    /// The request was shed (`a` = request id, `b` = typed reason code
    /// — see `mo-serve`'s shed metrics order, `c` = nanoseconds the
    /// request had waited). Closes the span.
    ServeShed = 26,
}

/// Number of distinct [`EventKind`]s (array-index bound for summaries).
pub const NKINDS: usize = 27;

/// Pack a superstep index and a D-BSP cluster level into the single
/// payload word the exchange/barrier events carry in `b`.
pub fn pack_step_level(superstep: u32, level: u8) -> u64 {
    ((superstep as u64) << 8) | level as u64
}

/// Inverse of [`pack_step_level`]: `(superstep, level)`.
pub fn unpack_step_level(b: u64) -> (u32, u8) {
    ((b >> 8) as u32, (b & 0xff) as u8)
}

impl EventKind {
    /// Every kind, in discriminant order.
    pub const ALL: [EventKind; NKINDS] = [
        EventKind::TaskEnter,
        EventKind::TaskExit,
        EventKind::ForkSerial,
        EventKind::ForkParallel,
        EventKind::ForkDenied,
        EventKind::StealAttempt,
        EventKind::StealSuccess,
        EventKind::InjectorPop,
        EventKind::Park,
        EventKind::Unpark,
        EventKind::CgcSegment,
        EventKind::CacheWitness,
        EventKind::SuperstepBegin,
        EventKind::SuperstepEnd,
        EventKind::ExchangeSend,
        EventKind::ExchangeRecv,
        EventKind::BarrierWait,
        EventKind::DistJobBegin,
        EventKind::DistJobEnd,
        EventKind::ServeArrive,
        EventKind::ServeAdmit,
        EventKind::ServeEnqueue,
        EventKind::ServeDequeue,
        EventKind::ServeBatchForm,
        EventKind::ServeExecute,
        EventKind::ServeRespond,
        EventKind::ServeShed,
    ];

    /// Stable lower-case name (report rows, chrome-trace event names).
    pub fn name(self) -> &'static str {
        match self {
            EventKind::TaskEnter => "task_enter",
            EventKind::TaskExit => "task_exit",
            EventKind::ForkSerial => "fork_serial",
            EventKind::ForkParallel => "fork_parallel",
            EventKind::ForkDenied => "fork_denied",
            EventKind::StealAttempt => "steal_attempt",
            EventKind::StealSuccess => "steal_success",
            EventKind::InjectorPop => "injector_pop",
            EventKind::Park => "park",
            EventKind::Unpark => "unpark",
            EventKind::CgcSegment => "cgc_segment",
            EventKind::CacheWitness => "cache_witness",
            EventKind::SuperstepBegin => "superstep_begin",
            EventKind::SuperstepEnd => "superstep_end",
            EventKind::ExchangeSend => "exchange_send",
            EventKind::ExchangeRecv => "exchange_recv",
            EventKind::BarrierWait => "barrier_wait",
            EventKind::DistJobBegin => "dist_job_begin",
            EventKind::DistJobEnd => "dist_job_end",
            EventKind::ServeArrive => "serve_arrive",
            EventKind::ServeAdmit => "serve_admit",
            EventKind::ServeEnqueue => "serve_enqueue",
            EventKind::ServeDequeue => "serve_dequeue",
            EventKind::ServeBatchForm => "serve_batch_form",
            EventKind::ServeExecute => "serve_execute",
            EventKind::ServeRespond => "serve_respond",
            EventKind::ServeShed => "serve_shed",
        }
    }

    /// Decode a discriminant stored in a ring slot.
    pub fn from_u8(v: u8) -> Option<EventKind> {
        EventKind::ALL.get(v as usize).copied()
    }

    /// `true` for the three fork-decision kinds (the SB anchor events).
    pub fn is_fork(self) -> bool {
        matches!(
            self,
            EventKind::ForkSerial | EventKind::ForkParallel | EventKind::ForkDenied
        )
    }
}

/// One traced runtime event. 40 bytes, `Copy`, fully plain data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Nanoseconds since the owning sink's epoch.
    pub ts_ns: u64,
    /// What happened.
    pub kind: EventKind,
    /// Resident worker that emitted it, or [`WORKER_EXTERNAL`].
    pub worker: u32,
    /// First payload word (see [`EventKind`] for the per-kind meaning).
    pub a: u64,
    /// Second payload word.
    pub b: u64,
    /// Third payload word.
    pub c: u64,
}

impl Event {
    /// Pack kind + worker into the single word a ring slot stores.
    pub(crate) fn kw(&self) -> u64 {
        (self.kind as u64) | ((self.worker as u64) << 8)
    }

    /// Inverse of [`kw`](Self::kw); `None` on a corrupt discriminant
    /// (cannot happen through the sink API).
    pub(crate) fn unpack(ts_ns: u64, kw: u64, a: u64, b: u64, c: u64) -> Option<Event> {
        Some(Event {
            ts_ns,
            kind: EventKind::from_u8((kw & 0xff) as u8)?,
            worker: (kw >> 8) as u32,
            a,
            b,
            c,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_round_trips() {
        for (i, k) in EventKind::ALL.iter().enumerate() {
            assert_eq!(*k as usize, i);
            assert_eq!(EventKind::from_u8(*k as u8), Some(*k));
        }
        assert_eq!(EventKind::from_u8(NKINDS as u8), None);
    }

    #[test]
    fn kw_round_trips() {
        let e = Event {
            ts_ns: 123,
            kind: EventKind::StealSuccess,
            worker: WORKER_EXTERNAL,
            a: 1,
            b: 2,
            c: 3,
        };
        let back = Event::unpack(e.ts_ns, e.kw(), e.a, e.b, e.c).unwrap();
        assert_eq!(back, e);
    }

    #[test]
    fn step_level_round_trips() {
        for (step, level) in [(0u32, 0u8), (1, 3), (u32::MAX, 255)] {
            assert_eq!(
                unpack_step_level(pack_step_level(step, level)),
                (step, level)
            );
        }
    }
}
