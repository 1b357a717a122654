//! `mo_core::verify` over every shipped algorithm: each recorded program
//! must be free of determinacy races and scheduler-hint violations
//! (warnings are allowed only where the structure inherently produces
//! them, e.g. empty CGC iterations on non-leaf tree nodes).
//!
//! This is the paper-facing acceptance gate: the theorems of §IV–§V only
//! hold for programs the hint semantics accept.

use mo_algorithms as algs;
use mo_core::{verify, Recorder, VerifyReport};

fn lcg(seed: u64, n: usize, modulus: u64) -> Vec<u64> {
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

fn assert_clean(rep: &VerifyReport, what: &str) {
    assert!(rep.is_clean(), "{what} must verify clean:\n{rep}");
    assert!(
        rep.min_slack >= 0,
        "{what}: negative slack {}",
        rep.min_slack
    );
}

#[test]
fn transpose_verifies_clean() {
    for n in [1usize, 2, 8, 32, 64] {
        let data = lcg(3, n * n, 1 << 20);
        let mt = algs::transpose::transpose_program(&data, n);
        assert_clean(&verify(&mt.program), "transpose");
    }
}

#[test]
fn fft_verifies_clean() {
    for n in [4usize, 64, 1024] {
        let input: Vec<(f64, f64)> = (0..n).map(|i| ((i as f64).sin(), 0.0)).collect();
        let fp = algs::fft::fft_program(&input);
        assert_clean(&verify(&fp.program), "fft");
    }
}

#[test]
fn sort_verifies_clean() {
    for n in [0usize, 33, 600, 2048] {
        let sp = algs::sort::sort_program(&lcg(7 + n as u64, n, u64::MAX >> 33));
        assert_clean(&verify(&sp.program), "sort");
    }
    // Heavy duplicates stress the pivot-dedup path.
    let sp = algs::sort::sort_program(&lcg(5, 800, 3));
    assert_clean(&verify(&sp.program), "sort (duplicates)");
}

#[test]
fn spmdv_verifies_clean() {
    for side in [2usize, 8, 24] {
        let m = algs::separator::mesh_matrix(side);
        let x: Vec<f64> = (0..m.n).map(|i| i as f64 * 0.5 - 1.0).collect();
        let sp = algs::spmdv::spmdv_program(&m, &x);
        let rep = verify(&sp.program);
        assert_clean(&rep, "spmdv");
        // The analytic 2m+1+3·nnz bounds are exact at every fork — no
        // warnings either.
        assert!(rep.is_pristine(), "spmdv:\n{rep}");
    }
}

#[test]
fn igep_and_matmul_verify_clean() {
    use algs::gep::{igep_program, matmul_program};
    use no_framework::gep::{fw_update, UpdateSet};
    let n = 32;
    let mut d = vec![f64::INFINITY; n * n];
    for i in 0..n {
        d[i * n + i] = 0.0;
        d[i * n + (i + 1) % n] = 1.0 + (i % 5) as f64;
    }
    let gp = igep_program(&d, n, fw_update, UpdateSet::All);
    assert_clean(&verify(&gp.program), "igep");

    let a: Vec<f64> = (0..n * n).map(|t| ((t * 7) % 13) as f64).collect();
    let b: Vec<f64> = (0..n * n).map(|t| ((t * 5) % 11) as f64).collect();
    let mp = matmul_program(&a, &b, n);
    assert_clean(&verify(&mp.program), "matmul");
}

#[test]
fn scans_verify_clean() {
    use algs::scan::{mo_prefix_sum_inclusive, mo_prefix_sum_total, mo_reduce_sum};
    let n = 256usize;
    let data = lcg(11, n, 1 << 16);
    let prog = Recorder::record(2 * n, |rec| {
        let a = rec.alloc_init(&data);
        mo_reduce_sum(rec, a, n);
    });
    assert_clean(&verify(&prog), "reduce");

    let prog = Recorder::record(2 * n, |rec| {
        let a = rec.alloc_init(&data);
        let _ = mo_prefix_sum_total(rec, a, n);
    });
    assert_clean(&verify(&prog), "exclusive scan");

    let m = 100usize; // non-power-of-two path
    let prog = Recorder::record(6 * m, |rec| {
        let a = rec.alloc_init(&data[..m]);
        let out = rec.alloc(m);
        mo_prefix_sum_inclusive(rec, a, out, m);
    });
    assert_clean(&verify(&prog), "inclusive scan");
}

#[test]
fn bp_primitives_verify_clean() {
    use algs::bp::{mo_gather, mo_map, mo_pack, mo_scatter, mo_segmented_scan};
    let n = 128usize;
    let data = lcg(13, n, 1 << 16);
    // A permutation for gather/scatter (duplicate targets would race).
    let mut perm: Vec<u64> = (0..n as u64).collect();
    let mut seed = 99u64;
    for i in (1..n).rev() {
        seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        perm.swap(i, ((seed >> 33) as usize) % (i + 1));
    }
    let flags: Vec<u64> = data.iter().map(|&v| (v % 3 == 0) as u64).collect();
    let prog = Recorder::record(16 * n, |rec| {
        let a = rec.alloc_init(&data);
        let idx = rec.alloc_init(&perm);
        let hd = rec.alloc_init(&flags);
        let out1 = rec.alloc(n);
        let out2 = rec.alloc(n);
        let out3 = rec.alloc(n);
        let out4 = rec.alloc(n);
        let out5 = rec.alloc(n);
        mo_map(rec, a, out1, n, |_, v| v + 1);
        mo_gather(rec, a, idx, out2, n);
        mo_scatter(rec, a, idx, out3, n);
        let _ = mo_pack(rec, a, hd, out4, n);
        mo_segmented_scan(rec, a, hd, out5, n);
    });
    assert_clean(&verify(&prog), "bp primitives");
}

#[test]
fn listrank_verifies_clean() {
    for n in [1usize, 65, 700] {
        let succ = algs::listrank::random_list(n, 21 + n as u64);
        let lp = algs::listrank::listrank_program(&succ);
        assert_clean(&verify(&lp.program), "listrank");
    }
}

#[test]
fn connected_components_verifies_clean() {
    let n = 300usize;
    // A few disjoint cycles plus chords.
    let mut edges = Vec::new();
    for c in 0..3 {
        let base = c * 100;
        for v in 0..100 {
            edges.push((base + v, base + (v + 1) % 100));
        }
        edges.push((base + 5, base + 50));
    }
    let cp = algs::graph::cc::cc_program(n, &edges);
    assert_clean(&verify(&cp.program), "cc");
}

#[test]
fn euler_tour_verifies_clean() {
    use algs::graph::Tree;
    for t in [Tree::random(400, 17), Tree::path(64), Tree::star(64)] {
        let ep = algs::graph::euler::euler_program(&t);
        assert_clean(&verify(&ep.program), "euler");
    }
}

/// `record_measured` records once and patches the measured bounds in.
/// That equals the two-pass construction it replaced (scout, measure,
/// record again under the measured bounds) because a second recording of
/// the same body reproduces the scout's trace and task tree exactly; shown
/// on the data-dependent recorders, sort with heavy duplicates included.
#[test]
fn record_measured_equals_the_two_pass_construction() {
    use mo_core::verify::measured_bounds;
    use mo_core::Program;

    fn check(what: &str, root_space: usize, body: impl Fn(&mut Recorder) + Send + Sync) {
        let shape = |p: &Program| -> Vec<String> {
            let task = |t: &mo_core::TaskNode| format!("{:?} {:?}", t.parent, t.segments);
            p.tasks().iter().map(task).collect()
        };
        let scout = Recorder::record(root_space, &body);
        let second = Recorder::record(root_space, &body);
        assert!(scout.trace() == second.trace(), "{what}: trace moved");
        assert_eq!(shape(&scout), shape(&second), "{what}: task tree moved");
        let measured = Recorder::record_measured(root_space, &body);
        assert!(measured.trace() == second.trace(), "{what}: trace");
        assert_eq!(shape(&measured), shape(&second), "{what}: task tree");
        let spaces: Vec<usize> = measured.tasks().iter().map(|t| t.space).collect();
        assert_eq!(spaces, measured_bounds(&scout), "{what}: space bounds");
        assert_clean(&verify(&measured), what);
    }

    let keys = lcg(9, 3000, 7); // seven distinct keys
    check("sort", 4 * keys.len(), |rec| {
        let a = rec.alloc_init(&keys);
        algs::sort::mo_sort(rec, a, keys.len());
    });

    let succ = algs::listrank::random_list(700, 5);
    let pred = algs::listrank::invert_succ(&succ);
    check("listrank", 8 * succ.len(), |rec| {
        let (s, p) = (rec.alloc_init(&succ), rec.alloc_init(&pred));
        let rank = rec.alloc(succ.len());
        algs::listrank::mo_listrank(rec, s, p, rank, succ.len());
    });

    let (n, m) = (200usize, 500usize);
    let (eu, ev) = (lcg(1, m, n as u64), lcg(2, m, n as u64));
    check("cc", 8 * (n + m), |rec| {
        let (eu, ev) = (rec.alloc_init(&eu), rec.alloc_init(&ev));
        let (comp, forest) = (rec.alloc(n), rec.alloc(m));
        algs::graph::cc::mo_cc(rec, eu, ev, m, n, comp, forest);
    });
}
