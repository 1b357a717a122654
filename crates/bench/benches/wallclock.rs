//! Wall-clock benches: the real-machine implementations
//! (`mo_algorithms::real` on the SB pool) against the naive baselines.
//!
//! On a laptop-class box absolute numbers are machine-specific; the
//! reproduction criterion is the *shape*: the oblivious kernels must not
//! lose to the naive ones as sizes cross cache boundaries, and should
//! win increasingly as they do.

use std::hint::black_box;

use mo_algorithms::real::{
    par_fft, par_floyd_warshall, par_matmul, par_prefix_sum, par_sort, par_transpose, serial_fft,
};
use mo_baselines::matmul::naive_matmul;
use mo_baselines::transpose::naive_transpose;
use mo_bench::bench;
use mo_core::rt::{HwHierarchy, SbPool};

fn pool() -> SbPool {
    SbPool::new(HwHierarchy::detect())
}

fn rand_f64(seed: u64, n: usize) -> Vec<f64> {
    let mut x = seed | 1;
    (0..n)
        .map(|_| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((x >> 40) as f64) / 65536.0
        })
        .collect()
}

fn bench_transpose() {
    println!("transpose");
    for n in [256usize, 512, 1024] {
        let a = rand_f64(1, n * n);
        let mut out = vec![0.0; n * n];
        bench(&format!("naive/{n}"), || {
            naive_transpose(black_box(&a), black_box(&mut out), n)
        });
        let p = pool();
        bench(&format!("mo_real/{n}"), || {
            par_transpose(&p, black_box(&a), black_box(&mut out), n)
        });
    }
}

fn bench_matmul() {
    println!("matmul");
    for n in [128usize, 256] {
        let a = rand_f64(2, n * n);
        let bm = rand_f64(3, n * n);
        let mut cm = vec![0.0; n * n];
        bench(&format!("naive_ijk/{n}"), || {
            cm.iter_mut().for_each(|v| *v = 0.0);
            naive_matmul(black_box(&mut cm), black_box(&a), black_box(&bm), n)
        });
        let p = pool();
        bench(&format!("mo_real/{n}"), || {
            cm.iter_mut().for_each(|v| *v = 0.0);
            par_matmul(&p, black_box(&mut cm), black_box(&a), black_box(&bm), n)
        });
    }
}

fn bench_floyd_warshall() {
    println!("floyd_warshall");
    for n in [128usize, 256] {
        let d0 = rand_f64(4, n * n);
        let p = pool();
        bench(&format!("mo_real/{n}"), || {
            let mut d = d0.clone();
            par_floyd_warshall(&p, black_box(&mut d), n);
            d
        });
        bench(&format!("serial_triple_loop/{n}"), || {
            let mut x = d0.clone();
            for k in 0..n {
                for i in 0..n {
                    let dik = x[i * n + k];
                    for j in 0..n {
                        let via = dik + x[k * n + j];
                        if via < x[i * n + j] {
                            x[i * n + j] = via;
                        }
                    }
                }
            }
            x
        });
    }
}

fn bench_sort() {
    println!("sort");
    for n in [1usize << 14, 1 << 17] {
        let mut x = 5u64;
        let data: Vec<u64> = (0..n)
            .map(|_| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                x >> 20
            })
            .collect();
        bench(&format!("std_unstable/{n}"), || {
            let mut d = data.clone();
            d.sort_unstable();
            d
        });
        let p = pool();
        bench(&format!("mo_sample_sort/{n}"), || {
            let mut d = data.clone();
            par_sort(&p, &mut d);
            d
        });
    }
}

fn bench_prefix_sum() {
    println!("prefix_sum");
    for n in [1usize << 16, 1 << 20] {
        let data: Vec<u64> = (0..n as u64).collect();
        bench(&format!("serial/{n}"), || {
            let mut d = data.clone();
            let mut acc = 0u64;
            for v in d.iter_mut() {
                let nv = acc.wrapping_add(*v);
                *v = acc;
                acc = nv;
            }
            d
        });
        let p = pool();
        bench(&format!("mo_block_scan/{n}"), || {
            let mut d = data.clone();
            par_prefix_sum(&p, &mut d);
            d
        });
    }
}

fn bench_fft() {
    println!("fft");
    // 1 024 is the leaf alone (the burst class of `serve_burst_small`),
    // 65 536 the L2-anchored served class; `serial_fft` is the same
    // transform as `par_fft` with no pool.
    for n in [1usize << 10, 1 << 14, 1 << 16, 1 << 17] {
        let input: Vec<(f64, f64)> = (0..n)
            .map(|t| ((t as f64 * 0.3).sin(), (t as f64 * 0.7).cos()))
            .collect();
        bench(&format!("serial/{n}"), || {
            let mut d = input.clone();
            serial_fft(black_box(&mut d));
            d
        });
        let p = pool();
        bench(&format!("mo_real_recursive/{n}"), || {
            let mut d = input.clone();
            par_fft(&p, black_box(&mut d));
            d
        });
    }
}

fn main() {
    bench_transpose();
    bench_matmul();
    bench_floyd_warshall();
    bench_sort();
    bench_prefix_sum();
    bench_fft();
}
