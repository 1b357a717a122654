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
//! Wall-clock timings of the real kernels are the `bench_rt` binary's;
//! `benches/simulated.rs` times the simulator's access streams.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;

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

/// A dependency-free micro-benchmark timer for `benches/simulated.rs`
/// (no criterion dependency): adaptive iteration count, median of
/// several timed batches, `ns/iter` output.
pub fn bench<R>(label: &str, mut f: impl FnMut() -> R) {
    use std::hint::black_box;
    use std::time::Instant;
    // Warm up and size the batch to ~25 ms.
    let t0 = Instant::now();
    black_box(f());
    let once = t0.elapsed().as_nanos().max(1);
    let iters = ((25_000_000 / once) as usize).clamp(1, 1 << 20);
    let mut samples = Vec::with_capacity(5);
    for _ in 0..5 {
        let t = Instant::now();
        for _ in 0..iters {
            black_box(f());
        }
        samples.push(t.elapsed().as_nanos() / iters as u128);
    }
    samples.sort_unstable();
    let med = samples[samples.len() / 2];
    println!("  {label:<44} {med:>12} ns/iter   ({iters} iters x 5)");
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

/// A random Floyd–Warshall instance with integer weights (exact in f64).
pub fn fw_instance(n: usize, seed: u64) -> Vec<f64> {
    let mut d = vec![f64::INFINITY; n * n];
    let mut x = seed | 1;
    for i in 0..n {
        d[i * n + i] = 0.0;
        for _ in 0..3 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let j = ((x >> 33) as usize) % n;
            let w = 1.0 + ((x >> 20) % 9) as f64;
            if i != j {
                d[i * n + j] = d[i * n + j].min(w);
            }
        }
    }
    d
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
