//! # mo-algorithms — the paper's multicore-oblivious algorithm suite
//!
//! Every algorithm of IPDPS 2010 §III, §V and §VI, written against the
//! machine-independent [`mo_core::Recorder`] API with the scheduler hints
//! the paper prescribes:
//!
//! | Paper artifact | Module | Hints |
//! |---|---|---|
//! | Fig. 2, MO-MT matrix transposition | [`transpose`] | CGC |
//! | prefix sums / scans | [`scan`] | CGC |
//! | BP computations (pack, gather/scatter, segmented scan) | [`bp`] | CGC |
//! | Fig. 3, MO-FFT | [`fft`] | CGC + CGC⇒SB |
//! | SPMS-structured sorting (Thm 3) | [`sort`] | CGC + CGC⇒SB |
//! | Fig. 4, MO-SpM-DV | [`spmdv`] (+ [`separator`]) | CGC⇒SB |
//! | Fig. 5 + appendix, GEP / I-GEP | [`gep`] | SB |
//! | Fig. 6, MO-IS / MO-LR list ranking | [`listrank`] | CGC + CGC⇒SB |
//! | §VI tree & connectivity algorithms | [`graph`] | CGC + CGC⇒SB |
//!
//! Each module exposes two things: the *recorded* algorithm (returning a
//! [`mo_core::Program`] ready for [`mo_core::sched::simulate`]) and plain
//! helpers for building inputs / checking outputs. Real-machine (wall
//! clock) counterparts running on [`mo_core::rt::SbPool`] live in
//! [`real`].

// `unsafe` is denied everywhere but `dispatch`, whose only `unsafe` is
// the call of a `#[target_feature]` arm after its features are detected.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod bitinterleave;
pub mod bp;
pub mod certify;
#[allow(unsafe_code)]
pub mod dispatch;
pub mod fft;
pub mod gep;
pub mod graph;
pub mod listrank;
pub mod real;
pub mod scan;
pub mod separator;
pub mod sort;
pub mod spmdv;
pub mod transpose;
