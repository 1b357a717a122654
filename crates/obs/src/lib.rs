//! # mo-obs — observability for the space-bound runtime
//!
//! The paper's claim is behavioural: an *oblivious* algorithm plus
//! scheduler hints reproduces the cache/steal behaviour of a tuned
//! program. Verifying that claim needs a measurement surface — this
//! crate is it. It provides:
//!
//! * a **fixed-size binary [`Event`] schema** covering every scheduler
//!   decision the runtime takes (fork serialized / parallelized /
//!   denied with the SB anchor level and space bound, CGC segment
//!   issued with `[lo, hi)` and grain, steal attempt/success, injector
//!   pop, park/unpark, task enter/exit);
//! * a **lock-free per-worker [`Ring`]** of those events with an
//!   overflow-drop counter (tracing never blocks or allocates on the
//!   hot path) and a [`TraceSink`] that owns one ring per worker plus a
//!   mutex-guarded ring for external (non-resident) threads, with a
//!   [`TraceSink::drain`] that merges all streams into one global
//!   timeline;
//! * a **chrome-trace / Perfetto JSON exporter** ([`chrome`]) so a
//!   whole pool run can be inspected per worker in `ui.perfetto.dev` —
//!   the one event writer, which the fleet merger renders through too;
//! * the **one log₂ histogram** ([`hist`]): the bucket rule and the
//!   plain value type behind every latency, wait and length histogram
//!   in the tree;
//! * a **Prometheus text-exposition writer and a tiny parser**
//!   ([`prom`]) — a family handle that spells each metric name once —
//!   and the **one `/metrics` HTTP server** ([`expose`]) that `mo-serve`
//!   and `mo-dist`'s router both bind with a render closure;
//! * **trace summaries** ([`summary`]) — steal rates, anchor-level
//!   distributions, segment-size histograms — consumed by the
//!   `obs_report` bench binary to compare measured scheduler behaviour
//!   against the analytic predictions;
//! * **request spans** ([`span`]) reassembling mo-serve's per-request
//!   phase-boundary events (`arrive → admit → enqueue → dequeue →
//!   batch-form → execute → respond`, or a typed shed) into per-kernel
//!   per-phase latency histograms for tail attribution;
//! * an **SLO burn-rate engine** ([`slo`]) evaluating latency/error
//!   objectives as multi-window error-budget burn rates, behind
//!   mo-serve's `moserve_slo_*` families and its dump-on-burn flight
//!   recorder;
//! * a **fleet trace merger** ([`fleet`]) turning per-process event
//!   streams shipped by the distributed tier into one clock-aligned
//!   Perfetto timeline (one process track per worker, send→recv flow
//!   arrows per XOR round) plus straggler/lateness aggregates;
//! * a **cache witness** ([`witness`]) attaching *measured* per-level
//!   cache traffic to traced runs: a Linux `perf_event_open` backend
//!   scoped around task enter/exit, and a portable simulator-replay
//!   backend, both reporting through one trait so `obs_report` can
//!   compare measured transfers against the paper's analytic `Q_i`
//!   bounds on any host.
//!
//! The crate is dependency-free, and the only `unsafe` is the raw
//! `perf_event_open` syscall shim confined to [`witness::perf`] (which
//! degrades to a graceful "unavailable" everywhere the kernel refuses
//! it). `mo-core` depends on it in every build: tracing starts when a
//! [`TraceSink`] is attached to a pool, and until then each emission
//! site costs one `OnceLock` load and evaluates none of its payload.

#![deny(unsafe_code)]
// The syscall shim must wrap every unsafe operation in an explicit,
// `// SAFETY:`-commented block even inside `unsafe fn`.
#![deny(unsafe_op_in_unsafe_fn)]
#![warn(missing_docs)]

pub mod chrome;
mod event;
pub mod expose;
pub mod fleet;
pub mod hist;
pub mod prom;
mod ring;
mod sink;
pub mod slo;
pub mod span;
pub mod summary;
pub mod witness;

pub use event::{pack_step_level, unpack_step_level, Event, EventKind, WORKER_EXTERNAL};
pub use ring::Ring;
pub use sink::TraceSink;
