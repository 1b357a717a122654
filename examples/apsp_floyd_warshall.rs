//! All-pairs shortest paths on a synthetic road network, three ways:
//!
//! 1. the reference GEP triple loop (Fig. 5),
//! 2. multicore-oblivious I-GEP under the SB scheduler (simulated, with
//!    cache-miss accounting at every level),
//! 3. the real-machine parallel kernel on the SB pool (wall clock).
//!
//! ```sh
//! cargo run --release --example apsp_floyd_warshall
//! ```

use std::time::Instant;

use oblivious::algs::gep::igep_program;
use oblivious::algs::real::floyd_warshall;
use oblivious::hm::MachineSpec;
use oblivious::mo::rt::SbPool;
use oblivious::mo::sched::{simulate, Policy};
use oblivious::no::gep::{fw_update, gep_reference, UpdateSet};

/// A ring of `n` towns with sparse random highways.
fn road_network(n: usize, seed: u64) -> Vec<f64> {
    let mut d = vec![f64::INFINITY; n * n];
    let mut x = seed | 1;
    for i in 0..n {
        d[i * n + i] = 0.0;
        // local roads
        d[i * n + (i + 1) % n] = 1.0;
        d[((i + 1) % n) * n + i] = 1.0;
        // a few highways
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
        let j = ((x >> 33) as usize) % n;
        if j != i {
            let w = 2.0 + ((x >> 20) % 5) as f64;
            d[i * n + j] = d[i * n + j].min(w);
            d[j * n + i] = d[j * n + i].min(w);
        }
    }
    d
}

pub fn main() {
    let n = 128;
    let d = road_network(n, 42);

    // Reference.
    let mut want = d.clone();
    gep_reference(&mut want, n, fw_update, UpdateSet::All);

    // Multicore-oblivious I-GEP, simulated.
    let t0 = Instant::now();
    let gp = igep_program(&d, n, fw_update, UpdateSet::All);
    println!(
        "recorded I-GEP: {} ops, {} tasks ({:?})",
        gp.program.work(),
        gp.program.tasks().len(),
        t0.elapsed()
    );
    assert_eq!(gp.output(), want, "I-GEP must equal the GEP reference");
    for spec in [
        MachineSpec::three_level(8, 1 << 10, 8, 1 << 18, 32).unwrap(),
        MachineSpec::example_h5(),
    ] {
        let r = simulate(&gp.program, &spec, Policy::Mo);
        println!(
            "  h={} machine: steps {:>9}, speed-up {:.2}, per-level misses {:?}",
            spec.h(),
            r.makespan,
            r.speedup(),
            (1..=spec.cache_levels())
                .map(|l| r.cache_complexity(l))
                .collect::<Vec<_>>(),
        );
    }

    // Real machine.
    let pool = SbPool::detected();
    let mut real = d.clone();
    let t0 = Instant::now();
    pool.enter(|ctx| floyd_warshall(ctx, &mut real, n));
    println!(
        "real SB-pool Floyd–Warshall: {:?} ({} cores)",
        t0.elapsed(),
        pool.hierarchy().cores()
    );
    assert_eq!(real, want);

    // A couple of interpretable answers.
    let dist = |a: usize, b: usize| want[a * n + b];
    println!("shortest town 0 -> town {}: {}", n / 2, dist(0, n / 2));
    let ecc0 = (0..n).map(|j| dist(0, j)).fold(0.0f64, f64::max);
    println!("eccentricity of town 0: {ecc0}");
}
