//! Cross-crate integration tests: whole pipelines exercised through the
//! `oblivious` facade, spanning recorder → scheduler → cache simulator,
//! and the MO/NO pairings the paper draws (§V-B, §VI-B).

use oblivious::algs;
use oblivious::hm::MachineSpec;
use oblivious::mo::sched::{simulate, Policy};
use oblivious::no;

fn machine() -> MachineSpec {
    MachineSpec::three_level(8, 1 << 10, 8, 1 << 18, 32).unwrap()
}

/// The same GEP instance through all four implementations: reference
/// triple loop, MO I-GEP, NO N-GEP with 𝒟, NO N-GEP with 𝒟*.
#[test]
fn gep_agrees_across_all_four_implementations() {
    use algs::gep::igep_program;
    use no::algs::ngep::{ngep_program, DOrder};
    use no::gep::{fw_update, gep_reference, UpdateSet};
    let n = 32;
    let mut d = vec![f64::INFINITY; n * n];
    let mut x = 7u64;
    for i in 0..n {
        d[i * n + i] = 0.0;
        for _ in 0..3 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let j = ((x >> 33) as usize) % n;
            if j != i {
                d[i * n + j] = d[i * n + j].min(1.0 + ((x >> 20) % 7) as f64);
            }
        }
    }
    let mut want = d.clone();
    gep_reference(&mut want, n, fw_update, UpdateSet::All);
    let mo = igep_program(&d, n, fw_update, UpdateSet::All);
    assert_eq!(mo.output(), want);
    for order in [DOrder::IGep, DOrder::DStar] {
        let (_, got) = ngep_program(&d, n, 4, fw_update, UpdateSet::All, order);
        assert_eq!(got, want, "{order:?}");
    }
}

/// MO and NO sorting agree with std on the same input.
#[test]
fn sorting_agrees_mo_no_std() {
    let n = 1 << 10;
    let mut x = 3u64;
    let data: Vec<u64> = (0..n)
        .map(|_| {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            x >> 35
        })
        .collect();
    let mut want = data.clone();
    want.sort_unstable();
    let sp = algs::sort::sort_program(&data);
    assert_eq!(sp.program.slice(sp.data), want.as_slice());
    let (_, no_out) = no::algs::sort::no_sort(&data);
    assert_eq!(no_out, want);
}

/// MO and NO list ranking agree on the same list.
#[test]
fn list_ranking_agrees_mo_no() {
    let n = 700;
    let succ = algs::listrank::random_list(n, 5);
    let mo = algs::listrank::listrank_program(&succ);
    let (_, no_ranks) = no::algs::listrank::no_listrank(&succ);
    assert_eq!(mo.ranks(), no_ranks);
}

/// The full FFT pipeline round-trips a convolution: FFT → pointwise
/// multiply → inverse (via conjugation) ≈ direct convolution.
#[test]
fn fft_convolution_roundtrip() {
    use algs::fft::fft_program;
    let n = 256usize;
    let a: Vec<(f64, f64)> = (0..n)
        .map(|i| (if i < 16 { 1.0 } else { 0.0 }, 0.0))
        .collect();
    let b: Vec<(f64, f64)> = (0..n)
        .map(|i| (if i < 8 { 0.5 } else { 0.0 }, 0.0))
        .collect();
    let fa = fft_program(&a).output();
    let fb = fft_program(&b).output();
    // Pointwise product, then inverse FFT = conj ∘ FFT ∘ conj / n.
    let prod: Vec<(f64, f64)> = fa
        .iter()
        .zip(&fb)
        .map(|(x, y)| (x.0 * y.0 - x.1 * y.1, x.0 * y.1 + x.1 * y.0))
        .map(|(re, im)| (re, -im))
        .collect();
    let inv = fft_program(&prod).output();
    let conv: Vec<f64> = inv.iter().map(|v| v.0 / n as f64).collect();
    // Direct circular convolution.
    for k in (0..n).step_by(17) {
        let mut direct = 0.0;
        for t in 0..n {
            direct += a[t].0 * b[(n + k - t) % n].0;
        }
        assert!(
            (conv[k] - direct).abs() < 1e-6,
            "k = {k}: {} vs {direct}",
            conv[k]
        );
    }
}

/// The simulator's three policies rank as the theory predicts on a
/// bandwidth-bound workload: serial ≥ flat ≥ mo in makespan.
#[test]
fn policy_ordering_on_sort() {
    let data: Vec<u64> = (0..2048u64).rev().collect();
    let sp = algs::sort::sort_program(&data);
    let spec = machine();
    let mo = simulate(&sp.program, &spec, Policy::Mo);
    let flat = simulate(&sp.program, &spec, Policy::Flat);
    let serial = simulate(&sp.program, &spec, Policy::Serial);
    assert!(mo.makespan <= serial.makespan);
    assert!(flat.makespan <= serial.makespan);
    assert_eq!(mo.work, serial.work);
    // And the MO schedule never does worse than greedy on shared-cache
    // misses for this sort (the §II claim).
    let top = spec.cache_levels();
    assert!(mo.cache_complexity(top) <= flat.cache_complexity(top) + 64);
}

/// Work conservation: every policy replays exactly the recorded ops and
/// per-core busy time sums to the total work.
#[test]
fn work_is_conserved_across_policies() {
    let n = 1 << 12;
    let data: Vec<(f64, f64)> = (0..n).map(|i| ((i as f64).cos(), 0.0)).collect();
    let fp = algs::fft::fft_program(&data);
    let spec = machine();
    for policy in [Policy::Mo, Policy::Flat, Policy::Serial] {
        let r = simulate(&fp.program, &spec, policy);
        assert_eq!(r.core_busy.iter().sum::<u64>(), r.work, "{policy:?}");
        assert!(r.makespan >= r.work / spec.cores() as u64, "{policy:?}");
    }
}

/// Theorem 4 states the matrix "can be reordered so that" SpM-DV is
/// cache-efficient: the separator reorder must beat a *bad* (random)
/// ordering of the same mesh decisively at the private cache level.
#[test]
fn separator_reordering_pays_off() {
    use mo_baselines::spmdv::flat_spmdv_program;
    let side = 48;
    let m = algs::separator::mesh_matrix(side);
    let x: Vec<f64> = (0..m.n).map(|i| i as f64 * 0.25).collect();
    let sp = algs::spmdv::spmdv_program(&m, &x);
    let spec = MachineSpec::three_level(8, 1 << 9, 8, 1 << 18, 32).unwrap();
    let r_sep = simulate(&sp.program, &spec, Policy::Mo);
    // Randomly relabel the same graph (a "bad" input ordering).
    let n = m.n;
    let mut perm: Vec<usize> = (0..n).collect();
    let mut seed = 1234u64;
    for i in (1..n).rev() {
        seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        perm.swap(i, ((seed >> 33) as usize) % (i + 1));
    }
    let mut rows = vec![Vec::new(); n];
    for (i, row) in m.rows.iter().enumerate() {
        let mut r: Vec<(usize, f64)> = row.iter().map(|&(j, v)| (perm[j], v)).collect();
        r.sort_unstable_by_key(|e| e.0);
        rows[perm[i]] = r;
    }
    let (bp, _) = flat_spmdv_program(&rows, &x);
    let r_bad = simulate(&bp, &spec, Policy::Mo);
    assert!(
        2 * r_sep.cache_complexity(1) < r_bad.cache_complexity(1),
        "sep {} vs random-order {}",
        r_sep.cache_complexity(1),
        r_bad.cache_complexity(1)
    );
}

/// Euler tour quantities cross-check against list-ranking the tour by an
/// independent construction (tree of depth ~log n).
#[test]
fn euler_tour_full_pipeline() {
    use algs::graph::{euler::euler_program, Tree};
    let t = Tree::random(800, 31);
    let ep = euler_program(&t);
    assert_eq!(
        ep.depths().iter().map(|&d| d as usize).collect::<Vec<_>>(),
        t.reference_depths()
    );
    assert_eq!(
        ep.sizes().iter().map(|&s| s as usize).collect::<Vec<_>>(),
        t.reference_subtree_sizes()
    );
    // Preorder consistency: parent's preorder < child's.
    let pre = ep.preorders();
    for v in 0..t.len() {
        if v != t.root {
            assert!(pre[t.parent[v]] < pre[v]);
        }
    }
}

/// The real-thread SB pool and the recorded/simulated pipeline give the
/// same numerical answers (matmul).
#[test]
fn simulated_and_real_matmul_agree() {
    use algs::gep::matmul_program;
    use algs::real::matmul;
    use oblivious::mo::rt::{HwHierarchy, SbPool};
    let n = 32;
    let a: Vec<f64> = (0..n * n).map(|t| ((t * 7) % 13) as f64).collect();
    let b: Vec<f64> = (0..n * n).map(|t| ((t * 5) % 11) as f64).collect();
    let sim = matmul_program(&a, &b, n).output();
    let pool = SbPool::new(HwHierarchy::flat(2, 1 << 12, 1 << 20));
    let mut real = vec![0.0; n * n];
    pool.enter(|ctx| matmul(ctx, &mut real, &a, &b, n));
    for t in 0..n * n {
        assert!((sim[t] - real[t]).abs() < 1e-9, "t = {t}");
    }
}
