//! The real-machine side: run the parallel kernels on the space-bound
//! pool, check them against references, and show each kernel's fork
//! statistics — how many forks the SB cutoff serialized versus ran in
//! parallel (the rt realization of the paper's SB discipline). The
//! pool's counters only grow, so a kernel's share is the difference of
//! a read before and after it (`RtStats::since`).
//!
//! ```sh
//! cargo run --release --example real_kernels
//! ```

use std::time::Instant;

use oblivious::algs::real::{fft, matmul, prefix_sum, sort, transpose};
use oblivious::mo::rt::{HwHierarchy, SbPool};

pub fn main() {
    let pool = SbPool::detected();
    println!(
        "detected machine: {} cores, L1 cutoff {} words\n",
        pool.hierarchy().cores(),
        pool.hierarchy().l1_capacity()
    );

    // Transpose.
    let n = 512;
    let a: Vec<f64> = (0..n * n).map(|t| t as f64).collect();
    let mut out = vec![0.0; n * n];
    let before = pool.stats();
    let t0 = Instant::now();
    pool.enter(|ctx| transpose(ctx, &a, &mut out, n));
    println!(
        "transpose {n}x{n}: {:?}  (stats {:?})",
        t0.elapsed(),
        pool.stats().since(&before)
    );
    assert!(out[1] == a[n]);

    // Matmul.
    let n = 192;
    let a: Vec<f64> = (0..n * n).map(|t| ((t % 7) as f64) * 0.5).collect();
    let b: Vec<f64> = (0..n * n).map(|t| ((t % 5) as f64) * 0.25).collect();
    let mut c = vec![0.0; n * n];
    let before = pool.stats();
    let t0 = Instant::now();
    pool.enter(|ctx| matmul(ctx, &mut c, &a, &b, n));
    println!(
        "matmul {n}x{n}:    {:?}  (stats {:?})",
        t0.elapsed(),
        pool.stats().since(&before)
    );

    // FFT with no pool vs on the pool: the same transform.
    let n = 1 << 16;
    let sig: Vec<(f64, f64)> = (0..n).map(|t| ((t as f64 * 0.01).sin(), 0.0)).collect();
    let mut d1 = sig.clone();
    let t0 = Instant::now();
    fft(None, &mut d1, &mut Vec::new());
    let ts = t0.elapsed();
    let mut d2 = sig.clone();
    let before = pool.stats();
    let t0 = Instant::now();
    pool.enter(|ctx| fft(Some(ctx), &mut d2, &mut Vec::new()));
    let tp = t0.elapsed();
    for k in (0..n).step_by(997) {
        assert!((d1[k].0 - d2[k].0).abs() < 1e-6);
    }
    println!(
        "fft n={n}:        serial {ts:?} vs pool {tp:?}  (stats {:?})",
        pool.stats().since(&before)
    );

    // Sort and prefix sum.
    let n = 1 << 18;
    let mut data: Vec<u64> = (0..n as u64).rev().collect();
    let t0 = Instant::now();
    pool.enter(|ctx| sort(ctx, &mut data, &mut Vec::new()));
    println!("sort n={n}:      {:?}", t0.elapsed());
    assert!(data.windows(2).all(|w| w[0] <= w[1]));
    let mut ps: Vec<u64> = vec![1; n];
    let t0 = Instant::now();
    pool.enter(|ctx| prefix_sum(ctx, &mut ps));
    println!("prefix n={n}:    {:?}", t0.elapsed());
    assert_eq!(ps[n - 1], (n - 1) as u64);

    // The same kernels on an explicitly configured hierarchy: nothing in
    // the kernel code changes, only the pool's cutoffs.
    let tiny = SbPool::new(HwHierarchy::flat(2, 256, 1 << 16));
    let mut data: Vec<u64> = (0..10_000u64).rev().collect();
    tiny.enter(|ctx| sort(ctx, &mut data, &mut Vec::new()));
    assert!(data.windows(2).all(|w| w[0] <= w[1]));
    println!("\nsame kernels, 2-core/256-word hierarchy: still correct (obliviousness).");
}
