//! # mo-core — the multicore-oblivious runtime
//!
//! This crate implements the paper's central contribution: a run-time
//! scheduler for the HM model driven by a small set of algorithm-supplied
//! *hints* (IPDPS 2010, §III):
//!
//! * **CGC** (coarse-grained contiguous) — parallel **for** loops are cut
//!   into contiguous per-core segments of at least `B_1` iterations, laid
//!   out left-to-right over the cores under the current anchor's shadow.
//! * **SB** (space-bound) — every forked task declares a space bound; the
//!   scheduler anchors it at the least-loaded cache of the smallest level
//!   that fits, under the parent's shadow, with FIFO space admission.
//! * **CGC⇒SB** — a large batch of equal-size subtasks is spread evenly
//!   across the caches of the right level, combining both disciplines.
//!
//! The runtime is split into the machine-independent **record** phase
//! ([`Recorder`] → [`Program`]): the algorithm executes once against a real
//! backing store, emitting a fork–join DAG with per-task access traces and
//! hints — and the machine-aware **replay** phase ([`sched::simulate`]):
//! the scheduler interprets the hints against a concrete
//! [`hm_model::MachineSpec`], assigns tasks to caches and cores in virtual
//! time, and replays every access through the multi-level cache simulator.
//!
//! A real-thread, hierarchy-aware work-stealing scheduler implementing the
//! same SB discipline on actual hardware lives in [`rt`].
//!
//! ```
//! use mo_core::{Recorder, sched::{simulate, Policy}};
//! use hm_model::MachineSpec;
//!
//! // A CGC-scheduled parallel initialization.
//! let n = 4096;
//! let prog = Recorder::record(n + 64, |rec| {
//!     let a = rec.alloc(n);
//!     rec.cgc_for(n, |rec, k| rec.write(a, k, k as u64));
//! });
//! let spec = MachineSpec::three_level(4, 1 << 10, 8, 1 << 16, 32).unwrap();
//! let report = simulate(&prog, &spec, Policy::Mo);
//! assert_eq!(report.makespan, (n / 4) as u64); // perfect 4-way speed-up
//! ```

// `deny`, not `forbid`: the work-stealing executor in `rt::exec` needs
// lifetime erasure for its stack-pinned fork jobs (the rayon model) and
// carries the safety argument in its module docs. Everything else must
// stay safe; only that module may opt in.
#![deny(unsafe_code)]
// The one module that does opt in must still wrap every unsafe
// operation in an explicit, `// SAFETY:`-commented block.
#![deny(unsafe_op_in_unsafe_fn)]
#![warn(missing_docs)]

mod arr;
pub mod certify;
mod record;
pub mod rt;
pub mod sched;
mod trace;
pub mod verify;

pub use arr::{Arr, Mat};
pub use certify::{Certificate, CertificateSet, Classification};
pub use record::{
    spawn, ForkHint, Program, ProgramStats, Recorder, Segment, Spawn, TaskId, TaskNode,
};
pub use trace::TraceEntry;
pub use verify::{verify, HintViolation, Race, RaceKind, VerifyReport};

// The path `obs_event!` names event kinds through, so a crate that
// emits with it (mo-serve) needs no path of its own.
#[doc(hidden)]
pub use mo_obs;
