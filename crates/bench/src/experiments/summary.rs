//! TabII — Table II: the consolidated summary. For each row of the
//! paper's results table, measure the quantity at two sizes and report
//! the measured/Θ ratio at both — stability of the ratio across scale is
//! the reproduction criterion.

use super::{gep_misses, no, no_list, sort_misses};
use crate::{default_machine, header, rand_f64, rand_u64, run_mo};
use mo_algorithms as algs;
use mo_core::{Program, Recorder};
use no_framework::algs::ngep::{ngep_matmul, DOrder};
use no_framework::NoMachine;

/// One row of Table II.
struct SummaryRow {
    problem: &'static str,
    /// The two problem sizes `n` the ratios are taken at.
    sizes: [usize; 2],
    /// Records the MO program and runs the NO algorithm on one input of
    /// size `n`.
    run: fn(usize) -> (Program, NoMachine),
    /// Θ(parallel time) of `(n, p)`.
    time: fn(f64, f64) -> f64,
    /// Θ(misses at one cache level) of `(n, q_i, B_i, C_i)`.
    cache: fn(f64, f64, f64, f64) -> f64,
    /// Θ(communication on M(p, B)) of `(n, p, B)`.
    comm: fn(f64, f64, f64) -> f64,
}

/// Θ((n/p)·log n): the time bound the FFT, sorting and list-ranking rows
/// are measured against.
fn n_log_n(n: f64, p: f64) -> f64 {
    n * n.log2() / p
}

static ROWS: [SummaryRow; 6] = [
    SummaryRow {
        problem: "prefix sum",
        sizes: [1 << 12, 1 << 14],
        run: |n| {
            let data = vec![1u64; n];
            let prog = Recorder::record(2 * n, |rec| {
                let a = rec.alloc_init(&data);
                algs::scan::mo_reduce_sum(rec, a, n);
            });
            (prog, no::scan::no_prefix_sum(&data).0)
        },
        time: |n, p| n / p,
        cache: |n, q, b, _| n / (q * b),
        comm: |_, p, _| p.log2(),
    },
    SummaryRow {
        problem: "matrix transposition",
        sizes: [64, 128],
        run: |n| {
            let data = rand_u64(n as u64, n * n, 1 << 30);
            let mt = algs::transpose::transpose_program(&data, n);
            (mt.program, no::transpose::no_transpose(&data, n).0)
        },
        time: |n, p| n * n / p,
        cache: |n, q, b, _| n * n / (q * b),
        comm: |n, p, b| n * n / (p * b),
    },
    // GEP shares these bounds.
    SummaryRow {
        problem: "matmul / GEP",
        sizes: [32, 64],
        run: |n| {
            let a = rand_f64(1, n * n);
            let b = rand_f64(2, n * n);
            let mp = algs::gep::matmul_program(&a, &b, n);
            (mp.program, ngep_matmul(&a, &b, n, 4, DOrder::DStar).0)
        },
        time: |n, p| n * n * n / p,
        cache: |n, q, b, c| gep_misses(n * n * n, q, b, c),
        comm: |n, p, b| n * n / (p.sqrt() * b),
    },
    SummaryRow {
        problem: "FFT",
        sizes: [1 << 10, 1 << 12],
        run: |n| {
            let sig: Vec<(f64, f64)> = (0..n).map(|i| ((i as f64).sin(), 0.0)).collect();
            (
                algs::fft::fft_program(&sig).program,
                no::fft::no_fft(&sig).0,
            )
        },
        time: n_log_n,
        cache: sort_misses,
        comm: |n, p, b| (n / (p * b)) * (n.ln() / (n / p).ln()),
    },
    SummaryRow {
        problem: "sorting",
        sizes: [1 << 10, 1 << 12],
        run: |n| {
            let data = rand_u64(9 + n as u64, n, 1 << 30);
            (
                algs::sort::sort_program(&data).program,
                no::sort::no_sort(&data).0,
            )
        },
        time: n_log_n,
        cache: sort_misses,
        comm: |n, p, b| n / (p * b),
    },
    SummaryRow {
        problem: "list ranking",
        sizes: [1 << 10, 1 << 12],
        run: |n| {
            let lp = algs::listrank::listrank_program(&algs::listrank::random_list(n, 21));
            (lp.program, no::listrank::no_listrank(&no_list(n, 21)).0)
        },
        time: n_log_n,
        cache: sort_misses,
        comm: |n, p, b| n / (p * b),
    },
];

/// Print Table II: per row, the measured/Θ ratio of parallel time, L2
/// misses and NO communication at the row's two sizes.
pub(super) fn run() {
    header(
        "TabII",
        "summary of results (Table II): ratio stability across scale",
    );
    let spec = default_machine();
    let p = spec.cores() as f64;
    let (q2, l2) = (spec.caches_at(2) as f64, spec.level(2));
    let (np, nb) = (16usize, 4usize); // NO evaluation point
    println!("machine: {spec}");
    println!("NO evaluation point: M(p = {np}, B = {nb})\n");
    println!(
        "{:<22} {:>18} {:>18} {:>18}",
        "problem", "time ratio (2 n's)", "MO cache ratio", "NO comm ratio"
    );
    for row in &ROWS {
        let ratios = row.sizes.map(|n| {
            let (prog, m) = (row.run)(n);
            let r = run_mo(&prog, &spec);
            let nf = n as f64;
            [
                r.makespan as f64 / (row.time)(nf, p),
                r.cache_complexity(2) as f64
                    / (row.cache)(nf, q2, l2.block as f64, l2.capacity as f64),
                m.communication_complexity(np, nb) as f64 / (row.comm)(nf, np as f64, nb as f64),
            ]
        });
        print!("{:<22}", row.problem);
        for quantity in 0..3 {
            for at_size in &ratios {
                print!(" {:>8.2}", at_size[quantity]);
            }
        }
        println!();
    }
    println!("\neach pair of columns = the measured/Θ ratio at the two problem sizes;");
    println!("a reproduced row is one whose pair is (close to) constant.");
}
