//! # no-framework — network-oblivious algorithms (§IV, §V-B, §VI-B)
//!
//! The network-oblivious framework of Bilardi, Pietracaprina, Pucci and
//! Silvestri, as reviewed in §IV of the paper:
//!
//! * an algorithm is specified for **M(N)** — `N` processing elements
//!   with unbounded local memory, communicating by point-to-point
//!   messages in synchronous supersteps;
//! * it is *evaluated* on **M(p, B)** for any `p ≤ N` and block size
//!   `B ≥ 1`: each processor simulates `N/p` consecutive PEs, and the
//!   **communication complexity** is the sum over supersteps of the
//!   maximum number of `B`-word blocks sent or received by any processor
//!   (messages between PEs on the same processor are free);
//! * the **computation complexity** is the analogous sum of maximum
//!   per-processor operation counts;
//! * on **D-BSP(P, g, B)** each superstep is charged `h_s · g_i`, where
//!   `i` is the finest cluster level containing all of the superstep's
//!   traffic and `h_s` is measured with block size `B_i`.
//!
//! [`NoMachine`] executes an M(N) program once and logs its traffic; all
//! three cost models are then evaluated *after the fact* for any machine
//! parameters — which is exactly the point of network-obliviousness.
//!
//! The [`algs`] module holds the paper's NO algorithms: prefix sums,
//! matrix transposition, FFT, N-GEP (with both I-GEP's `𝒟` and the
//! communication-avoiding `𝒟*` of Table I), column-sort-based sorting,
//! list ranking, and connected components.
//!
//! The crate depends on nothing, so `mo-algorithms` depends on it for
//! what both tiers share: [`gep`] states the Gaussian Elimination
//! Paradigm's update sets, update functions, reference loop and
//! Floyd–Warshall instance once, for I-GEP and N-GEP alike, and
//! [`dispatch::Arm`] is the one vector arm every dispatched leaf of
//! either crate is compiled for.

// `unsafe` is denied everywhere but `dispatch`, whose only `unsafe` is
// the call of a `#[target_feature]` arm after its features are detected.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod algs;
pub mod codec;
mod comm;
#[allow(unsafe_code)]
pub mod dispatch;
mod engine;
pub mod gep;
mod machine;
mod partition;

pub use comm::{Comm, Scope};
pub use engine::{Engine, Msg, Runs, ScopeViolation};
pub use machine::{CostModelError, NoMachine, Pe};
pub use partition::{level_counters, num_levels, pair_level, Partition};
