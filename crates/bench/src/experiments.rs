//! The paper's evaluation, one [`Experiment`] per figure, table and
//! theorem, in EXPERIMENTS.md order. The `tables` binary runs rows of
//! [`EXPERIMENTS`] by name; `tests/tables.rs` pins every row's stdout to
//! `tests/fixtures/tables/<name>.txt`, so a change that moves any count
//! has to move the fixture in the same diff.
//!
//! The shapes the experiments share are stated once here: the per-level
//! miss rows ([`level_rows`]), the `(p, B)` communication rows
//! ([`comm_rows`]), the geometric D-BSP profile ([`geometric_profile`])
//! and the bounds more than one table restates ([`sort_misses`],
//! [`gep_misses`]).

use crate::{
    default_machine, header, machines, rand_f64, rand_u64, row, run_flat, run_mo, run_serial,
    speedup_row, val,
};
use hm_model::{CacheId, MachineSpec, Topology};
use mo_algorithms as algs;
use mo_algorithms::gep::{igep_program, matmul_program};
use mo_algorithms::listrank::{listrank_program, random_list, reference_ranks};
use mo_baselines as base;
use mo_core::sched::RunReport;
use mo_core::{verify, Program, Recorder, VerifyReport};
use no_framework::algs::ngep::{ngep_matmul, ngep_program, DOrder};
use no_framework::gep::{fw_instance, fw_update, ge_update, UpdateSet};
use no_framework::{algs as no, NoMachine};

mod summary;

/// One experiment of the paper's evaluation.
pub struct Experiment {
    /// Sub-command of the `tables` binary and stem of the fixture file.
    pub name: &'static str,
    /// EXPERIMENTS.md id of the section that discusses the output.
    pub id: &'static str,
    /// EXPERIMENTS.md heading of that section.
    pub heading: &'static str,
    /// Prints the experiment to stdout. Only `verify` can fail short of
    /// a panic: it exits the process with status 1 on a finding.
    pub run: fn(),
}

const fn exp(name: &'static str, id: &'static str, heading: &'static str, run: fn()) -> Experiment {
    Experiment {
        name,
        id,
        heading,
        run,
    }
}

/// Every experiment, in EXPERIMENTS.md order (`tables all` runs them in
/// this order; `verify`, which may exit, is last).
pub static EXPERIMENTS: [Experiment; 17] = [
    exp("model", "F1", "Fig. 1 (the HM model)", model),
    exp(
        "transpose",
        "F2/T1",
        "MO-MT matrix transposition",
        transpose,
    ),
    exp("fft", "F3/T2", "MO-FFT", fft),
    exp("sort", "T3", "sorting (SPMS structure)", sort),
    exp("spmdv", "F4/T4", "MO-SpM-DV", spmdv),
    exp("gep", "F5/T5", "I-GEP under SB", gep),
    exp("dstar", "Table I", "`𝒟` vs `𝒟*`", dstar),
    exp("ngep", "T6", "N-GEP on M(p,B) / D-BSP", ngep),
    exp("listrank", "F6/T7", "MO-IS / MO-LR", listrank),
    exp("cc", "T8", "MO-CC", cc),
    exp("nolr", "T9", "NO-LR", nolr),
    exp("nocc", "T10", "NO-CC", nocc),
    exp(
        "slice_vs_mo",
        "§II claim",
        "MO hints vs hint-ignoring greedy",
        slice_vs_mo,
    ),
    exp("summary", "Table II", "consolidated", summary::run),
    exp("ablations", "Ablations", "A1–A4", ablations),
    exp("scaling", "Scaling", "CSV data series", scaling),
    exp("verify", "Verification", "`mo_core::verify`", verify_all),
];

/// The experiment called `name`.
pub fn find(name: &str) -> Option<&'static Experiment> {
    EXPERIMENTS.iter().find(|e| e.name == name)
}

/// Θ((n/(q·B))·log_C n): the per-level miss bound that MO-FFT (Thm 2),
/// SPMS sorting (Thm 3) and MO-LR (Thm 7) share; the logarithm counts at
/// least one pass.
fn sort_misses(n: f64, q: f64, b: f64, c: f64) -> f64 {
    (n / (q * b)) * (n.log2() / c.log2()).max(1.0)
}

/// Θ(n³/(q·B·√C)): I-GEP's per-level miss bound (Thm 5).
fn gep_misses(n3: f64, q: f64, b: f64, c: f64) -> f64 {
    n3 / (q * b * c.sqrt())
}

/// One [`row`] per cache level of `spec`: the level-`i` misses of `r`
/// against `theta(q_i, B_i, C_i)`.
fn level_rows(spec: &MachineSpec, r: &RunReport, vs: &str, theta: impl Fn(f64, f64, f64) -> f64) {
    for level in 1..=spec.cache_levels() {
        let (q, l) = (spec.caches_at(level) as f64, spec.level(level));
        row(
            &format!("L{level} misses vs {vs}"),
            r.cache_complexity(level) as f64,
            theta(q, l.block as f64, l.capacity as f64),
        );
    }
}

/// One [`row`] per evaluation point `(p, B)`: the communication
/// complexity of `m` on M(p, B) against `theta(p, B)`.
fn comm_rows(m: &NoMachine, points: &[(usize, usize)], vs: &str, theta: impl Fn(f64, f64) -> f64) {
    for &(p, b) in points {
        row(
            &format!("comm p={p} B={b} vs {vs}"),
            m.communication_complexity(p, b) as f64,
            theta(p as f64, b as f64),
        );
    }
}

/// A geometric D-BSP `(g, B)` profile on `p` processors: `g_i` halves
/// from the root cluster towards the leaves, and level `i` moves blocks
/// of `block(i)` words.
fn geometric_profile(p: usize, block: impl Fn(usize) -> usize) -> (Vec<f64>, Vec<usize>) {
    let logp = p.trailing_zeros() as usize;
    (
        (0..logp).map(|i| 2f64.powi((logp - i) as i32)).collect(),
        (0..logp).map(block).collect(),
    )
}

/// [`random_list`] with the tail marked the way the NO list ranking
/// expects it (`u64::MAX`, where the MO one uses `n`).
fn no_list(n: usize, seed: u64) -> Vec<u64> {
    let mut succ = random_list(n, seed);
    for v in succ.iter_mut() {
        if *v == n as u64 {
            *v = u64::MAX;
        }
    }
    succ
}

/// F1 — Fig. 1: the HM model instantiated for h = 5, with shadows.
fn model() {
    header("F1", "the HM model (Fig. 1, h = 5)");
    let spec = MachineSpec::example_h5();
    println!("{spec}\n");
    let topo = Topology::new(&spec);
    println!("shadows (cf. the shaded region of Fig. 1):");
    for level in (1..=spec.cache_levels()).rev() {
        print!("  L{level}: ");
        for j in 0..topo.caches_at(level) {
            let s = topo.shadow(CacheId::new(level, j));
            print!("[cores {}..{}] ", s.lo, s.hi - 1);
        }
        println!();
    }
    println!("\ncapacity constraint C_i >= p_i * C_(i-1):");
    for i in 2..=spec.cache_levels() {
        let (ci, ci1, pi) = (
            spec.level(i).capacity,
            spec.level(i - 1).capacity,
            spec.level(i).fanout,
        );
        println!("  C_{i} = {ci} >= p_{i} * C_{} = {}", i - 1, pi * ci1);
    }
    println!(
        "\nmax cores bound p <= K * C_(h-1)/C_1 = {}  (actual p = {})",
        spec.level(spec.cache_levels()).capacity / spec.level(1).capacity,
        spec.cores()
    );
}

/// F2/T1 — Fig. 2 & Theorem 1: MO-MT matrix transposition.
///
/// Checks, per machine and size:
/// * parallel steps vs Θ(n²/p + B₁),
/// * per-level misses vs Θ(n²/(q_i·B_i) + B_i),
/// * the naive baseline's thrashing and the recursive baseline's depth.
fn transpose() {
    header("F2/T1", "MO-MT matrix transposition (Fig. 2, Thm 1)");
    for (name, spec) in machines() {
        println!("\n--- machine: {name} ---");
        let p = spec.cores() as f64;
        let b1 = spec.level(1).block as f64;
        for n in [64usize, 128, 256] {
            let data = rand_u64(7 + n as u64, n * n, u64::MAX >> 20);
            let mt = algs::transpose::transpose_program(&data, n);
            let r = run_mo(&mt.program, &spec);
            println!("n = {n}:");
            let n2 = (n * n) as f64;
            row(
                "parallel steps vs n^2/p + B1",
                r.makespan as f64,
                4.0 * n2 / p + b1,
            );
            level_rows(&spec, &r, "n^2/(q_i B_i) + B_i", |q, b, _| n2 / (q * b) + b);
            // Baselines at the largest size only (serial cache behaviour).
            if n == 256 {
                let (nav, _) = base::transpose::naive_transpose_program(&data, n);
                let (rec, _) = base::transpose::recursive_transpose_program(&data, n);
                let rn = run_serial(&nav, &spec);
                let rr = run_mo(&rec, &spec);
                val(
                    "naive baseline L1 misses (thrashes ~n^2)",
                    rn.cache_complexity(1) as f64,
                );
                val(
                    "recursive CO baseline L1 misses",
                    rr.cache_complexity(1) as f64,
                );
                val(
                    "recursive CO baseline steps (Θ(log n) depth)",
                    rr.makespan as f64,
                );
                val("MO-MT steps (O(B1) depth)", r.makespan as f64);
            }
        }
    }
    println!("\nshape check: ratios should be stable across n (constant factors ok).");
}

/// F3/T2 — Fig. 3 & Theorem 2: MO-FFT.
///
/// Steps vs Θ((n/p + B₁)·log n) and per-level misses vs
/// Θ((n/(q_i·B_i))·log_{C_i} n) across sizes, plus the NO FFT's
/// communication complexity (Table II row 5).
fn fft() {
    fn signal(n: usize) -> Vec<(f64, f64)> {
        (0..n)
            .map(|t| ((t as f64 * 0.37).sin(), (t as f64 * 0.11).cos() * 0.5))
            .collect()
    }
    header("F3/T2", "MO-FFT (Fig. 3, Thm 2) and NO FFT");
    for (name, spec) in machines() {
        println!("\n--- machine: {name} ---");
        let p = spec.cores() as f64;
        let b1 = spec.level(1).block as f64;
        for n in [1usize << 10, 1 << 12, 1 << 14] {
            let fp = algs::fft::fft_program(&signal(n));
            let r = run_mo(&fp.program, &spec);
            println!("n = {n}:");
            let nf = n as f64;
            // Complex elements are 2 words and every element is touched
            // ~10x per level of the √n recursion; the Θ captures shape.
            row(
                "parallel steps vs (n/p + B1) log n",
                r.makespan as f64,
                (nf / p + b1) * nf.log2(),
            );
            level_rows(&spec, &r, "(n/(q_i B_i)) log_C n", |q, b, c| {
                sort_misses(nf, q, b, c)
            });
            speedup_row(&r, p);
        }
    }
    println!("\n--- NO FFT communication on M(p,B) (Table II row 5) ---");
    let n = 1 << 10;
    let nf = n as f64;
    let (m, _) = no::fft::no_fft(&signal(n));
    comm_rows(
        &m,
        &[(16, 2), (16, 8), (64, 2)],
        "(n/pB) log_(n/p) n",
        |p, b| (2.0 * nf / (p * b)) * (nf.ln() / (nf / p).ln()).max(1.0),
    );
}

/// T3 — Theorem 3: SPMS-structured sorting, plus the NO column sort
/// (Table II row 6).
fn sort() {
    header("T3", "multicore-oblivious sorting (SPMS structure, Thm 3)");
    for (name, spec) in machines() {
        println!("\n--- machine: {name} ---");
        let p = spec.cores() as f64;
        let b1 = spec.level(1).block as f64;
        for n in [1usize << 10, 1 << 12, 1 << 14] {
            let data = rand_u64(n as u64, n, u64::MAX >> 20);
            let sp = algs::sort::sort_program(&data);
            let r = run_mo(&sp.program, &spec);
            println!("n = {n}:");
            let nf = n as f64;
            let logn = nf.log2();
            let loglog = logn.log2().max(1.0);
            row(
                "parallel steps vs (n/(p loglog) + B1) log n loglog n",
                r.makespan as f64,
                (nf / (p * loglog) + b1) * logn * loglog,
            );
            level_rows(&spec, &r, "(n/(q_i B_i)) log_C n", |q, b, c| {
                sort_misses(nf, q, b, c)
            });
            speedup_row(&r, p);
        }
    }
    println!("\n--- NO column sort communication on M(p,B) (Table II row 6) ---");
    let n = 1 << 12;
    let (m, out) = no::sort::no_sort(&rand_u64(3, n, u64::MAX >> 20));
    assert!(out.windows(2).all(|w| w[0] <= w[1]));
    comm_rows(
        &m,
        &[(16, 4), (16, 16), (64, 4)],
        "n/(pB) per pass",
        |p, b| n as f64 / (p * b),
    );
    println!(
        "  (column sort runs a polylog number of passes; the paper notes the NO sort is slower)"
    );
}

/// F4/T4 — Fig. 4 & Theorem 4: MO-SpM-DV on separator-reordered meshes,
/// vs the natural-order baseline.
fn spmdv() {
    header(
        "F4/T4",
        "MO-SpM-DV with n^(1/2)-edge-separator meshes (Fig. 4, Thm 4)",
    );
    for (name, spec) in machines() {
        println!("\n--- machine: {name} ---");
        let p = spec.cores() as f64;
        let b1 = spec.level(1).block as f64;
        for side in [32usize, 48, 64] {
            let m = algs::separator::mesh_matrix(side);
            let n = m.n;
            let x: Vec<f64> = (0..n).map(|i| ((i * 37) % 101) as f64 * 0.25).collect();
            let sp = algs::spmdv::spmdv_program(&m, &x);
            let r = run_mo(&sp.program, &spec);
            println!("mesh {side}x{side} (n = {n}, nnz = {}):", m.nnz());
            let nf = n as f64;
            row(
                "parallel steps vs n/p + B1 + log(n/B1)",
                r.makespan as f64,
                nf / p + b1 + (nf / b1).log2(),
            );
            level_rows(&spec, &r, "(n/q_i)(1/B_i + 1/sqrt(C_i))", |q, b, c| {
                (nf / q) * (1.0 / b + 1.0 / c.sqrt())
            });
            if side == 64 {
                let rows = base::spmdv::natural_mesh(side);
                let (bp, _) = base::spmdv::flat_spmdv_program(&rows, &x);
                let rb = run_mo(&bp, &spec);
                val(
                    "natural-order baseline L1 misses",
                    rb.cache_complexity(1) as f64,
                );
                val(
                    "separator-ordered MO L1 misses",
                    r.cache_complexity(1) as f64,
                );
                println!("  (the separator ordering keeps the x-window local; Thm 4 needs it)");
            }
        }
    }
}

/// F5/T5 — Fig. 5 & Theorem 5: I-GEP under the SB scheduler
/// (matrix multiplication, Floyd–Warshall, Gaussian elimination), vs the
/// naive and resource-aware tiled baselines.
fn gep() {
    header("F5/T5", "I-GEP under SB (Fig. 5 + appendix, Thm 5)");
    for (name, spec) in machines() {
        println!("\n--- machine: {name} ---");
        let p = spec.cores() as f64;
        for n in [32usize, 64, 128] {
            let a = rand_f64(1 + n as u64, n * n);
            let b = rand_f64(2 + n as u64, n * n);
            let mp = matmul_program(&a, &b, n);
            let r = run_mo(&mp.program, &spec);
            println!("matrix multiplication, n = {n}:");
            let n3 = (n * n * n) as f64;
            // 5 traced ops per update.
            row("parallel steps vs n^3/p", r.makespan as f64, 5.0 * n3 / p);
            level_rows(&spec, &r, "n^3/(q_i B_i sqrt(C_i))", |q, b, c| {
                gep_misses(n3, q, b, c)
            });
            speedup_row(&r, p);
        }
        // Other GEP instances at one size.
        let n = 64;
        let d = fw_instance(n, 5);
        let fw = igep_program(&d, n, fw_update, UpdateSet::All);
        let rfw = run_mo(&fw.program, &spec);
        println!("Floyd–Warshall APSP, n = {n}:");
        let l1 = spec.level(1);
        row(
            "L1 misses vs n^3/(q_1 B_1 sqrt(C_1))",
            rfw.cache_complexity(1) as f64,
            gep_misses(
                (n * n * n) as f64,
                spec.caches_at(1) as f64,
                l1.block as f64,
                l1.capacity as f64,
            ),
        );
        let mut ge_in = rand_f64(9, n * n);
        for i in 0..n {
            ge_in[i * n + i] += 2.0 * n as f64;
        }
        let ge = igep_program(&ge_in, n, ge_update, UpdateSet::KBelowMin);
        let rge = run_mo(&ge.program, &spec);
        println!("Gaussian elimination (no pivoting), n = {n}:");
        val("work (≈ n^3/3 updates x 5 ops)", rge.work as f64);
        val("speed-up", rge.speedup());
    }

    // Baseline contrast at one machine/size.
    let spec = default_machine();
    let n = 64;
    let a = rand_f64(11, n * n);
    let b = rand_f64(12, n * n);
    println!("\n--- baselines (n = {n}, serial misses at L1) ---");
    let (nv, _) = base::matmul::naive_matmul_program(&a, &b, n);
    let (tl, _) = base::matmul::tiled_matmul_program(&a, &b, n, 16);
    let (tl2, _) = base::matmul::tiled_matmul_program(&a, &b, n, 4);
    let mp = matmul_program(&a, &b, n);
    for (what, prog) in [
        ("naive ijk triple loop", &nv),
        ("resource-aware tiled (tile=16, tuned to C1)", &tl),
        ("resource-aware tiled (tile=4, mistuned)", &tl2),
        ("I-GEP (oblivious: no tuning parameter)", &mp.program),
    ] {
        val(what, run_serial(prog, &spec).cache_complexity(1) as f64);
    }
    println!("  (the oblivious recursion matches the tuned tile without knowing C1)");
}

/// TabI — Table I: I-GEP's 𝒟 vs N-GEP's 𝒟*.
///
/// Verifies (a) identical results on commutative GEP computations,
/// (b) equal communication volume but a strictly lower per-processor
/// h-relation for 𝒟* (no U/V quadrant is consumed twice per round).
fn dstar() {
    header(
        "TabI",
        "recursive call orders: I-GEP 𝒟 vs N-GEP 𝒟* (Table I)",
    );
    let n = 32;
    let kappa = 4;
    let a = rand_f64(1, n * n);
    let b = rand_f64(2, n * n);
    let (m_d, out_d) = ngep_matmul(&a, &b, n, kappa, DOrder::IGep);
    let (m_ds, out_ds) = ngep_matmul(&a, &b, n, kappa, DOrder::DStar);
    val(
        "matmul results identical (commutative)",
        (out_d == out_ds) as u64 as f64,
    );
    val("total words moved, D", m_d.total_words() as f64);
    val("total words moved, D*", m_ds.total_words() as f64);
    println!("\nper-processor communication complexity (the h-relation that M(p,B) charges):");
    for (p, bsz) in [(16usize, 4usize), (64, 4), (64, 16)] {
        let hd = m_d.communication_complexity(p, bsz) as f64;
        let hds = m_ds.communication_complexity(p, bsz) as f64;
        println!(
            "  p={p:<3} B={bsz:<3}  D: {hd:>8.0}   D*: {hds:>8.0}   D* saves {:.1}%",
            100.0 * (1.0 - hds / hd)
        );
    }

    println!("\nnon-commutative check: D and D* may differ when f is not commutative");
    // f(x,u,v,w) = x*2 + u - v is NOT commutative in the §V-B sense.
    fn nc(x: f64, u: f64, v: f64, _w: f64) -> f64 {
        2.0 * x + u - v
    }
    let d0 = rand_f64(3, n * n);
    let (_, r1) = ngep_program(&d0, n, kappa, nc, UpdateSet::All, DOrder::IGep);
    let (_, r2) = ngep_program(&d0, n, kappa, nc, UpdateSet::All, DOrder::DStar);
    let diff = r1.iter().zip(&r2).filter(|(a, b)| a != b).count();
    val("entries that differ under reordering", diff as f64);

    println!("\ncommutative instance (Floyd–Warshall): orders agree");
    let d = fw_instance(n, 7);
    let (_, f1) = ngep_program(&d, n, kappa, fw_update, UpdateSet::All, DOrder::IGep);
    let (_, f2) = ngep_program(&d, n, kappa, fw_update, UpdateSet::All, DOrder::DStar);
    val("FW results identical", (f1 == f2) as u64 as f64);
}

/// T6 — Theorem 6: N-GEP on M(p,B) and D-BSP.
///
/// Communication vs Θ(n²/(√p·B) + n·log²n), computation vs Θ(n³/p), and
/// D-BSP communication time under a geometric (g, B) profile.
fn ngep() {
    header("T6", "N-GEP costs on M(p,B) and D-BSP (Thm 6)");
    for n in [16usize, 32, 64] {
        let kappa = 4;
        let d = fw_instance(n, 3);
        let (m, _) = ngep_program(&d, n, kappa, fw_update, UpdateSet::All, DOrder::DStar);
        println!(
            "\nn = {n} (kappa = {kappa}, N = {} PEs):",
            (n / kappa) * (n / kappa)
        );
        val("supersteps", m.supersteps() as f64);
        for (p, b) in [(4usize, 4usize), (16, 4), (16, 16)] {
            if p > (n / kappa) * (n / kappa) {
                continue;
            }
            comm_rows(&m, &[(p, b)], "n^2/(sqrt(p) B)", |p, b| {
                (n * n) as f64 / (p.sqrt() * b)
            });
            row(
                &format!("comp p={p} vs n^3/p"),
                m.computation_complexity(p) as f64,
                (n * n * n) as f64 / p as f64,
            );
        }
        // D-BSP with geometric bandwidth/block profiles: g_i halves and
        // B_i shrinks toward the leaves (as in the theorem's premise).
        let (g, bs) = geometric_profile(16, |i| 8usize >> i.min(3));
        let t = m.dbsp_time(16, &g, &bs);
        val(&format!("D-BSP(16, g={g:?}, B={bs:?}) time"), t);
    }
    println!("\nshape check: comm ratios stable across n; comp ratio ≈ updates/PE constant.");
}

/// F6/T7 — Fig. 6 & Theorem 7: MO-IS / MO-LR list ranking, vs the serial
/// pointer-chase baseline.
fn listrank() {
    header("F6/T7", "MO-IS and MO-LR list ranking (Fig. 6, Thm 7)");
    for (name, spec) in machines() {
        println!("\n--- machine: {name} ---");
        let p = spec.cores() as f64;
        for n in [1usize << 10, 1 << 11, 1 << 12] {
            let succ = random_list(n, 17 + n as u64);
            let lp = listrank_program(&succ);
            assert_eq!(lp.ranks(), reference_ranks(&succ));
            let r = run_mo(&lp.program, &spec);
            println!("n = {n}:");
            let nf = n as f64;
            // Work is Θ(n log n) across the contraction levels.
            row(
                "parallel steps vs (n/p) log n",
                r.makespan as f64,
                nf * nf.log2() / p,
            );
            level_rows(&spec, &r, "(n/(q_i B_i)) log_C n", |q, b, c| {
                sort_misses(nf, q, b, c)
            });
            speedup_row(&r, p);
        }
        // Baseline: the pointer chase has no parallelism and random
        // misses.
        let n = 1 << 12;
        let succ = random_list(n, 5);
        let (bp, _) = base::listrank::serial_chase_program(&succ);
        let rb = run_serial(&bp, &spec);
        val("serial chase steps (no parallelism)", rb.makespan as f64);
        val(
            "serial chase L1 misses (~1 per hop)",
            rb.cache_complexity(1) as f64,
        );
    }
}

/// T8 — Theorem 8: MO connected components via contraction.
fn cc() {
    /// `m` uniform endpoint pairs over `0..n`, self-loops dropped.
    fn random_graph(n: usize, m: usize, seed: u64) -> Vec<(usize, usize)> {
        rand_u64(seed, 2 * m, n as u64)
            .chunks(2)
            .map(|e| (e[0] as usize, e[1] as usize))
            .filter(|&(u, v)| u != v)
            .collect()
    }
    header("T8", "MO connected components (Thm 8)");
    for (name, spec) in machines() {
        println!("\n--- machine: {name} ---");
        let p = spec.cores() as f64;
        let b1 = spec.level(1).block as f64;
        for (n, m_edges) in [(512usize, 768usize), (1024, 1536), (2048, 3072)] {
            let edges = random_graph(n, m_edges, 3 + n as u64);
            let cp = algs::graph::cc::cc_program(n, &edges);
            assert_eq!(
                cp.normalized_labels(),
                algs::graph::cc::reference_components(n, &edges)
            );
            let r = run_mo(&cp.program, &spec);
            let big_n = (n + edges.len()) as f64;
            println!("n = {n}, m = {} (N = n + m = {big_n}):", edges.len());
            row(
                "parallel steps vs (N/p) log N log(N/B1)",
                r.makespan as f64,
                big_n * big_n.log2() * (big_n / b1).log2() / p,
            );
            level_rows(&spec, &r, "(N/(q_i B_i)) log_C N log(N/B1)", |q, b, c| {
                sort_misses(big_n, q, b, c) * (big_n / b1).log2()
            });
            speedup_row(&r, p);
        }
    }
}

/// T9 — Theorem 9: NO-LR communication/computation on M(p,B).
fn nolr() {
    header("T9", "NO-LR on M(p,B) (Thm 9)");
    for n in [1usize << 10, 1 << 11, 1 << 12] {
        let (m, _) = no::listrank::no_listrank(&no_list(n, 1 + n as u64));
        println!("\nn = {n} ({} supersteps):", m.supersteps());
        // Thm 9 leading term: n/(pB) (the contraction volume).
        comm_rows(&m, &[(16, 1), (16, 8), (64, 1)], "n/(pB)", |p, b| {
            n as f64 / (p * b)
        });
        let comp = m.computation_complexity(16) as f64;
        row(
            "comp p=16 vs (n/p) log n",
            comp,
            (n as f64 / 16.0) * (n as f64).log2(),
        );
        // D-BSP time under a geometric profile.
        let (g, bs) = geometric_profile(16, |_| 4);
        val("D-BSP(16) communication time", m.dbsp_time(16, &g, &bs));
    }
    println!("\nshape check: comm/(n/pB) stays bounded as n doubles (Θ stability).");
}

/// T10 — Theorem 10: NO connected components on M(p,B).
fn nocc() {
    header("T10", "NO connected components on M(p,B) (Thm 10)");
    for n in [256usize, 512, 1024] {
        // A sparse graph: a few long cycles plus chords.
        let mut edges = Vec::new();
        for v in 0..n {
            edges.push((v, (v + 1) % n));
            if v % 3 == 0 {
                edges.push((v, (v * 7 + 5) % n));
            }
        }
        let (m, labels) = no::cc::no_cc(n, &edges);
        assert!(labels.iter().all(|&l| l == 0), "one cycle => one component");
        let nn = (n + edges.len()) as f64;
        println!(
            "\nn = {n}, m = {} ({} supersteps):",
            edges.len(),
            m.supersteps()
        );
        comm_rows(&m, &[(16, 1), (16, 8), (64, 8)], "(N/pB) log N", |p, b| {
            nn * nn.log2() / (p * b)
        });
        let comp = m.computation_complexity(16) as f64;
        row("comp p=16 vs (N/p) log N", comp, nn * nn.log2() / 16.0);
        val("total words", m.total_words() as f64);
    }
    println!("\nnote: the label-propagation substitute concentrates traffic at component");
    println!("roots (see DESIGN.md); the paper's sort-based contraction removes that hotspot.");
}

/// §II claim — hint-driven scheduling vs hint-ignoring greedy
/// scheduling: shared-cache misses.
///
/// §II argues that schedulers which just give each core a proportionate
/// slice of each shared cache are "a factor of p'_i worse than the best
/// possible for each cache level i". We replay the *same recorded
/// programs* under `Policy::Mo` (hints honored) and `Policy::Flat`
/// (hints ignored, earliest-core greedy) and compare misses at the
/// shared levels.
fn slice_vs_mo() {
    header(
        "§II",
        "MO hints vs hint-ignoring greedy: shared-cache misses",
    );
    let spec = MachineSpec::example_h5();
    println!("machine: {spec}\n");

    let n = 1 << 12;
    let signal: Vec<(f64, f64)> = (0..n)
        .map(|t| ((t as f64 * 0.3).sin(), (t as f64 * 0.7).cos()))
        .collect();
    let fft = algs::fft::fft_program(&signal);
    let sort = algs::sort::sort_program(&rand_u64(5, n, u64::MAX >> 20));
    let nm = 64;
    let mm = matmul_program(&rand_f64(1, nm * nm), &rand_f64(2, nm * nm), nm);

    for (what, prog) in [
        ("MO-FFT (n=4096)", &fft.program),
        ("sort (n=4096)", &sort.program),
        ("I-GEP matmul (n=64)", &mm.program),
    ] {
        let mo = run_mo(prog, &spec);
        let flat = run_flat(prog, &spec);
        println!("{what}:");
        for level in 1..=spec.cache_levels() {
            let (a, b) = (mo.cache_complexity(level), flat.cache_complexity(level));
            println!(
                "  L{level} misses: MO {a:>9}  greedy {b:>9}  greedy/MO = {:.2}",
                b as f64 / a.max(1) as f64
            );
        }
        val("MO makespan", mo.makespan as f64);
        val("greedy makespan", flat.makespan as f64);
        val("MO ping-pongs", mo.pingpongs as f64);
        val("greedy ping-pongs", flat.pingpongs as f64);
        println!();
    }
    println!("expectation: greedy roughly matches MO at L1 but pays extra misses at the");
    println!("shared levels and far more ping-ponging, as §II predicts.");
}

/// Ablations of the design choices DESIGN.md calls out:
///
/// A1. Theorem 5's cache-size proviso: I-GEP speed-up as the
///     `C_i / (p_i·C_{i-1})` slack shrinks (the `c_i = 2log²(C_i/C_{i-1})`
///     condition in the theorem statement).
/// A2. The CGC `≥ B₁` segment rule: ping-ponging and misses as the block
///     size grows (the "technical point" of §III).
/// A3. Footnote 3/4: deterministic-coin-flipping rounds in MO-IS — color
///     count, independent-set size, and total work vs `k`.
/// A4. SB admission: least-loaded anchoring vs what happens under the
///     hint-ignoring policy (makespan and top-level misses).
fn ablations() {
    header("A1", "Thm 5 proviso: I-GEP vs shrinking shared-cache slack");
    let n = 64;
    let a = rand_f64(1, n * n);
    let b = rand_f64(2, n * n);
    let mp = matmul_program(&a, &b, n);
    for slack in [1usize, 4, 16, 64] {
        // C2 = slack * p * C1; smaller slack starves concurrent anchors.
        let c1 = 1 << 10;
        let p = 8;
        let spec = MachineSpec::three_level(p, c1, 8, slack * p * c1, 32).unwrap();
        let r = run_mo(&mp.program, &spec);
        println!(
            "  C2/(p*C1) = {slack:>3}: speed-up {:>5.2}, L2 misses {:>8}",
            r.speedup(),
            r.cache_complexity(2)
        );
    }

    header("A2", "CGC >= B1 segment rule: ping-ponging vs block size");
    let n = 128;
    let data = rand_u64(3, n * n, 1 << 30);
    let mt = algs::transpose::transpose_program(&data, n);
    for b1 in [1usize, 4, 8, 16] {
        let spec = MachineSpec::three_level(8, 1 << 10, b1, 1 << 18, 32.max(b1)).unwrap();
        let r = run_mo(&mt.program, &spec);
        println!(
            "  B1 = {b1:>2}: units {:>5}, ping-pongs {:>6}, L1 misses {:>7}",
            r.units,
            r.pingpongs,
            r.cache_complexity(1)
        );
    }
    println!("  (larger B1 => coarser segments => fewer write interleavings)");

    header("A3", "footnote 3/4: DCF coloring rounds k in MO-IS / MO-LR");
    let n = 1 << 12;
    let succ = random_list(n, 9);
    let want = reference_ranks(&succ);
    for k in [1usize, 2, 3, 4] {
        let lp = algs::listrank::listrank_program_with_rounds(&succ, k);
        assert_eq!(lp.ranks(), want, "k = {k}");
        let spec = default_machine();
        let r = run_mo(&lp.program, &spec);
        println!(
            "  k = {k}: total work {:>9}, steps {:>9}, speed-up {:>5.2}",
            r.work,
            r.makespan,
            r.speedup()
        );
    }
    println!("  (k = 2 is the paper's choice; more rounds shrink colors, add passes)");

    header("A4", "anchoring vs none: makespan and shared misses");
    let data = rand_u64(4, 1 << 12, 1 << 30);
    let sp = algs::sort::sort_program(&data);
    let spec = MachineSpec::example_h5();
    let mo = run_mo(&sp.program, &spec);
    let flat = run_flat(&sp.program, &spec);
    val("MO   makespan", mo.makespan as f64);
    val("flat makespan", flat.makespan as f64);
    for level in 1..=spec.cache_levels() {
        println!(
            "  L{level} misses: MO {:>8}  flat {:>8}",
            mo.cache_complexity(level),
            flat.cache_complexity(level)
        );
    }
}

/// CSV scaling series for plotting: for each problem, the measured
/// parallel steps and per-level misses across a size sweep on the stock
/// machines, plus NO communication across (p, B). This regenerates the
/// *data series* behind every Table II row; pipe to a file and plot.
///
/// ```sh
/// cargo run --release -p mo-bench --bin tables -- scaling > scaling.csv
/// ```
fn scaling() {
    fn emit(problem: &str, machine: &str, n: usize, prog: &Program, spec: &MachineSpec) {
        let r = run_mo(prog, spec);
        let mut misses = String::new();
        for level in 1..=4 {
            if level <= spec.cache_levels() {
                misses.push_str(&format!(",{}", r.cache_complexity(level)));
            } else {
                misses.push(',');
            }
        }
        println!(
            "{problem},{machine},{n},{},{},{:.3}{misses}",
            r.work,
            r.makespan,
            r.speedup()
        );
    }
    fn no_sweep(problem: &str, n: usize, m: &NoMachine) {
        for p in [4usize, 16, 64] {
            for b in [1usize, 4, 16] {
                println!(
                    "{problem},{n},{p},{b},{},{},{}",
                    m.communication_complexity(p, b),
                    m.computation_complexity(p),
                    m.supersteps()
                );
            }
        }
    }
    println!("problem,machine,n,work,steps,speedup,l1_miss,l2_miss,l3_miss,l4_miss");
    for (mname, spec) in machines() {
        for n in [256usize, 1024, 4096] {
            let sp = algs::sort::sort_program(&rand_u64(n as u64, n, 1 << 30));
            emit("sort", &mname, n, &sp.program, &spec);
            let lp = listrank_program(&random_list(n, n as u64));
            emit("listrank", &mname, n, &lp.program, &spec);
            let sig: Vec<(f64, f64)> = (0..n).map(|t| ((t as f64).sin(), 0.0)).collect();
            let fp = algs::fft::fft_program(&sig);
            emit("fft", &mname, n, &fp.program, &spec);
        }
        for n in [32usize, 64, 128] {
            let mt = algs::transpose::transpose_program(&rand_u64(7, n * n, 1 << 30), n);
            emit("transpose", &mname, n, &mt.program, &spec);
            let mm = matmul_program(&rand_f64(1, n * n), &rand_f64(2, n * n), n);
            emit("matmul", &mname, n, &mm.program, &spec);
        }
    }
    // NO communication sweep (CSV section 2).
    println!();
    println!("problem,n,p,B,comm_blocks,comp_ops,supersteps");
    for n in [256usize, 1024] {
        let (m, _) = no::sort::no_sort(&rand_u64(3, n, 1 << 30));
        no_sweep("no_sort", n, &m);
        let sig: Vec<(f64, f64)> = (0..n).map(|t| (t as f64, 0.0)).collect();
        let (mf, _) = no::fft::no_fft(&sig);
        no_sweep("no_fft", n, &mf);
    }
}

/// Per-algorithm verification table: run `mo_core::verify` over every
/// shipped MO algorithm and print tasks, strands, swept operations,
/// conflicting accesses, hint findings, and footprint slack.
///
/// Every row of a healthy build reads `0` conflicts and `0` violations:
/// the acceptance gate for the scheduler theorems (§IV–§V) applies to
/// the hint semantics, and this table is the evidence the shipped
/// algorithms satisfy them. Warnings flag structure that weakens only
/// constant factors (e.g. empty CGC iterations on non-leaf tree nodes).
fn verify_all() {
    fn report_row(name: &str, prog: &Program) -> VerifyReport {
        let r = verify(prog);
        println!(
            "  {name:<14} {:>6} tasks {:>8} strands {:>10} ops | {:>4} conflicts {:>4} violations \
             {:>4} warnings | footprint {:>9} slack {:>6}..{}",
            r.tasks,
            r.strands,
            r.work,
            r.conflicts,
            r.violation_count,
            r.warnings.len(),
            r.max_footprint,
            r.min_slack,
            r.max_slack,
        );
        for race in &r.races {
            println!("      !! {race}");
        }
        for v in &r.violations {
            println!("      !! {v}");
        }
        r
    }
    header(
        "V",
        "mo-verify: race & hint verification of every MO algorithm",
    );
    let mut dirty = 0u32;

    let n = 64;
    let mt = algs::transpose::transpose_program(&rand_u64(1, n * n, 1 << 30), n);
    dirty += !report_row("transpose", &mt.program).is_clean() as u32;

    let input: Vec<(f64, f64)> = rand_f64(2, 1 << 12).iter().map(|&x| (x, 0.0)).collect();
    let fp = algs::fft::fft_program(&input);
    dirty += !report_row("fft", &fp.program).is_clean() as u32;

    let sp = algs::sort::sort_program(&rand_u64(3, 1 << 12, u64::MAX >> 33));
    dirty += !report_row("sort", &sp.program).is_clean() as u32;

    let mesh = algs::separator::mesh_matrix(32);
    let x = rand_f64(4, mesh.n);
    let sv = algs::spmdv::spmdv_program(&mesh, &x);
    dirty += !report_row("spmdv", &sv.program).is_clean() as u32;

    let gn = 64;
    let gp = igep_program(&fw_instance(gn, 5), gn, fw_update, UpdateSet::All);
    dirty += !report_row("igep-fw", &gp.program).is_clean() as u32;

    let a = rand_f64(6, gn * gn);
    let b = rand_f64(7, gn * gn);
    let mm = matmul_program(&a, &b, gn);
    dirty += !report_row("igep-matmul", &mm.program).is_clean() as u32;

    let sn = 1 << 12;
    let data = rand_u64(8, sn, 1 << 20);
    let scan_prog = Recorder::record(2 * sn, |rec| {
        let arr = rec.alloc_init(&data);
        let _ = algs::scan::mo_prefix_sum_total(rec, arr, sn);
    });
    dirty += !report_row("prefix-sum", &scan_prog).is_clean() as u32;

    let lp = listrank_program(&random_list(2000, 9));
    dirty += !report_row("listrank", &lp.program).is_clean() as u32;

    let cn = 400usize;
    let edges: Vec<(usize, usize)> = (0..cn)
        .map(|v| (v, (v * 13 + 7) % cn))
        .filter(|&(u, v)| u != v)
        .collect();
    let cp = algs::graph::cc::cc_program(cn, &edges);
    dirty += !report_row("cc", &cp.program).is_clean() as u32;

    let tree = algs::graph::Tree::random(1000, 11);
    let ep = algs::graph::euler::euler_program(&tree);
    dirty += !report_row("euler-tour", &ep.program).is_clean() as u32;

    println!();
    if dirty == 0 {
        println!("  all algorithms verify clean");
    } else {
        println!("  {dirty} algorithm(s) FAILED verification");
        std::process::exit(1);
    }
}
