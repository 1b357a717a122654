//! # mo-bench — the experiment harness
//!
//! One row of [`experiments::EXPERIMENTS`] per table/figure of the paper
//! (see DESIGN.md §4 and EXPERIMENTS.md for the index), all behind the
//! one `tables` binary:
//!
//! ```text
//! cargo run --release -p mo-bench --bin tables               # list the rows
//! cargo run --release -p mo-bench --bin tables -- all        # every row, EXPERIMENTS.md order
//! cargo run --release -p mo-bench --bin tables -- fft summary # those two
//! ```
//!
//! Each prints measured quantities next to the paper's Θ(·) prediction
//! and the measured/predicted ratio; ratio *stability across scale* is
//! the reproduction criterion (absolute constants are implementation-
//! specific). Every row's output is deterministic and pinned byte for
//! byte by `tests/tables.rs` against `tests/fixtures/tables/`.
//! Wall-clock timings of the real kernels are the `bench_rt` binary's,
//! kept as rows of `BENCH_rt.json` through [`traj`], the one reader and
//! writer of the repository's `BENCH_*.json` trajectory files; the
//! simulator's own speed is the repository benchmark's `hm.*` probes,
//! and its access streams' counts are pinned by `hm-model`'s unit tests.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod traj;

use hm_model::MachineSpec;
use mo_core::sched::{simulate, Policy, RunReport};
use mo_core::Program;

/// The default machine sweep used by the experiments: a 3-level
/// machine (8 cores, 1 KiW L1 / B₁ = 8, 256 KiW shared L2 / B₂ = 32) and
/// the 5-level Fig. 1 machine.
pub fn machines() -> Vec<(String, MachineSpec)> {
    vec![
        ("3-level p=8".to_string(), default_machine()),
        ("Fig.1 h=5 p=8".to_string(), MachineSpec::example_h5()),
    ]
}

/// The 3-level machine alone: the default for the heavier experiments.
pub fn default_machine() -> MachineSpec {
    MachineSpec::three_level(8, 1 << 10, 8, 1 << 18, 32).unwrap()
}

/// Run a recorded program under the MO policy.
pub fn run_mo(prog: &Program, spec: &MachineSpec) -> RunReport {
    simulate(prog, spec, Policy::Mo)
}

/// Run under the hint-ignoring greedy policy (§II comparator).
pub fn run_flat(prog: &Program, spec: &MachineSpec) -> RunReport {
    simulate(prog, spec, Policy::Flat)
}

/// Run serially (sequential cache-oblivious behaviour).
pub fn run_serial(prog: &Program, spec: &MachineSpec) -> RunReport {
    simulate(prog, spec, Policy::Serial)
}

/// Print a header for one experiment.
pub fn header(id: &str, what: &str) {
    println!("==================================================================");
    println!("{id}: {what}");
    println!("==================================================================");
}

/// One measured-vs-predicted row.
pub fn row(label: &str, measured: f64, predicted: f64) {
    row_with(label, measured, predicted, 0);
}

/// The `speed-up vs p` row of a run on `p` cores: a [`row`] with two
/// decimals, because both sides are of order one (whole numbers print a
/// measured 3.84 as 4 beside a ratio of 0.48).
pub fn speedup_row(r: &RunReport, p: f64) {
    row_with("speed-up vs p", r.speedup(), p, 2);
}

fn row_with(label: &str, measured: f64, predicted: f64, decimals: usize) {
    let ratio = if predicted > 0.0 {
        measured / predicted
    } else {
        f64::NAN
    };
    println!(
        "  {label:<44} measured {measured:>12.decimals$}  Θ-pred {predicted:>12.decimals$}  ratio {ratio:>7.2}"
    );
}

/// A plain annotated value.
pub fn val(label: &str, v: f64) {
    println!("  {label:<44} {v:>12.2}");
}

/// Deterministic pseudo-random u64s.
pub fn rand_u64(seed: u64, n: usize, modulus: u64) -> Vec<u64> {
    let mut x = seed | 1;
    (0..n)
        .map(|_| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (x >> 33) % modulus
        })
        .collect()
}

/// Deterministic pseudo-random f64s in ~[0.25, 16).
pub fn rand_f64(seed: u64, n: usize) -> Vec<f64> {
    let mut x = seed | 1;
    (0..n)
        .map(|_| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((x >> 40) as f64) / 1024.0 + 0.25
        })
        .collect()
}

/// Name of the registry kernel whose [`Kernel::index`] a serve span
/// event carries (`kernel<code>` for a code no row has) — the mapping
/// behind the phase tables of `serve_load --phases` and
/// `obs_report --serve`.
///
/// [`Kernel::index`]: mo_algorithms::real::registry::Kernel::index
pub fn kernel_name_of(code: u64) -> String {
    mo_algorithms::real::registry::Kernel::from_index(code as usize)
        .map_or_else(|| format!("kernel{code}"), |k| k.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_codes_map_to_registry_names() {
        use mo_algorithms::real::registry::Kernel;
        for k in Kernel::ALL {
            assert_eq!(kernel_name_of(k.index() as u64), k.name());
        }
        assert_eq!(kernel_name_of(99), "kernel99");
    }

    #[test]
    fn machines_are_valid() {
        for (name, spec) in machines() {
            assert!(spec.cores() >= 1, "{name}");
            assert!(spec.all_tall(), "{name}");
        }
    }

    #[test]
    fn rand_helpers_are_deterministic() {
        assert_eq!(rand_u64(1, 5, 100), rand_u64(1, 5, 100));
        assert_eq!(rand_f64(2, 5), rand_f64(2, 5));
    }
}
