//! # hm-model — the HM multicore machine model
//!
//! This crate implements the *hierarchical multi-level multicore* (HM) model
//! of Chowdhury, Silvestri, Blakeley and Ramachandran (IPDPS 2010), §II.
//!
//! An HM machine with `h` levels consists of `p` cores under a tree of
//! caches: level-`i` (for `1 ≤ i ≤ h-1`) has `q_i` caches, each of size
//! `C_i` words with block size `B_i` words, shared by `p_i` level-`(i-1)`
//! caches (with the convention `p_1 = 1`: private L1s). Level `h` is an
//! arbitrarily large shared memory.
//!
//! The crate provides:
//!
//! * [`MachineSpec`] — a validated description of the hierarchy
//!   (sizes, block lengths, fanouts) with the paper's constraints checked
//!   (`C_i ≥ c_i · p_i · C_{i-1}`, tall caches, power-of-two blocks).
//! * [`Topology`] — the derived tree: cache instances per level, the
//!   *shadow* of each cache (the contiguous range of cores below it,
//!   cf. Fig. 1), and core→cache paths.
//! * [`LruCache`] — a fully-associative LRU cache over block ids, the
//!   ideal-cache convention used throughout the cache-oblivious literature
//!   the paper builds on.
//! * [`CacheSystem`] — the full simulator: every memory access by a core is
//!   probed at **each** level independently (each level-`i` cache models an
//!   LRU cache of size `C_i` observing the access stream of the cores in
//!   its shadow, which is exactly how the paper's per-level bounds are
//!   stated), and per-cache hit/miss/write-back counters are maintained.
//! * [`Metrics`] — per-level summaries, in particular the model's *cache
//!   complexity*: the maximum number of block transfers into/out of any
//!   single level-`i` cache.
//!
//! The scheduler and the virtual-time execution engine live in `mo-core`;
//! this crate is purely the machine.
//!
//! ```
//! use hm_model::{MachineSpec, CacheSystem};
//!
//! // A 3-level machine: 4 cores with 1 KiW private L1s (block 8 words)
//! // under one 64 KiW shared L2 (block 32 words).
//! let spec = MachineSpec::three_level(4, 1 << 10, 8, 1 << 16, 32).unwrap();
//! let mut sys = CacheSystem::new(&spec);
//! for w in 0..1024u64 {
//!     sys.read(0, w);
//! }
//! // A pure scan misses once per block at L1.
//! assert_eq!(sys.metrics().cache(1, 0).misses, 1024 / 8);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod catalog;
mod hostmap;
mod lru;
mod metrics;
#[cfg(test)]
mod reference;
mod spec;
mod system;
mod topology;

pub use hostmap::{spec_from_host, HOST_BLOCK_WORDS};
pub use lru::{LruCache, Probe};
pub use metrics::{CacheCounters, LevelSummary, Metrics};
pub use spec::{LevelSpec, MachineSpec, SpecError};
pub use system::{AccessKind, CacheSystem};
pub use topology::{CacheId, Shadow, Topology};

/// Machine word index in the simulated flat address space.
pub type Addr = u64;

/// Identifier of a core, `0 ≤ core < p`.
pub type CoreId = usize;

/// A cache level, `1 ≤ level ≤ h-1`. Level 0 denotes the cores themselves
/// and level `h` the shared memory; neither has cache instances.
pub type Level = usize;
