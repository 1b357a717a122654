//! Communication-pattern verification for the NO algorithms.
//!
//! A network-oblivious algorithm is specified on M(N) with no reference
//! to `p` or `B`; its communication pattern is therefore a pure function
//! of the *input instance*, and for the value-oblivious algorithms
//! (sorting networks, FFT, transposition, scans, N-GEP) a function of
//! the input **size** alone. These tests pin both properties down via
//! [`NoMachine::traffic_signature`]:
//!
//! * value-oblivious algorithms produce bit-identical signatures on
//!   different same-size inputs;
//! * structure-driven algorithms (list ranking, CC, Euler tour — the
//!   input *is* the structure) are deterministic: the same instance
//!   replays to the same signature;
//! * cost metrics for any (p, B) are evaluated from the one recorded
//!   log, never by re-running — the machine-obliviousness the D-BSP
//!   theorems of §VI rely on.

use no_framework::{algs, NoMachine};

fn keys(seed: u64, n: usize) -> Vec<u64> {
    let mut x = seed | 1;
    (0..n)
        .map(|_| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            x >> 33
        })
        .collect()
}

fn assert_same_signature(a: &NoMachine, b: &NoMachine, what: &str) {
    assert_eq!(
        a.traffic_signature(),
        b.traffic_signature(),
        "{what}: communication pattern must not depend on input values"
    );
}

#[test]
fn transpose_pattern_is_value_oblivious() {
    let n = 16;
    let (m1, _) = algs::transpose::no_transpose(&keys(1, n * n), n);
    let (m2, _) = algs::transpose::no_transpose(&keys(2, n * n), n);
    assert_same_signature(&m1, &m2, "no_transpose");
}

#[test]
fn fft_pattern_is_value_oblivious() {
    let n = 64;
    let a: Vec<(f64, f64)> = (0..n).map(|i| ((i as f64).sin(), 0.1)).collect();
    let b: Vec<(f64, f64)> = (0..n).map(|i| ((i as f64).cos(), -2.0)).collect();
    let (m1, _) = algs::fft::no_fft(&a);
    let (m2, _) = algs::fft::no_fft(&b);
    assert_same_signature(&m1, &m2, "no_fft");
}

#[test]
fn prefix_sum_pattern_is_value_oblivious() {
    let n = 128;
    let (m1, _) = algs::scan::no_prefix_sum(&keys(3, n));
    let (m2, _) = algs::scan::no_prefix_sum(&keys(4, n));
    assert_same_signature(&m1, &m2, "no_prefix_sum");
}

#[test]
fn column_sort_pattern_is_value_oblivious() {
    // Column sort is a sorting network at the group level: the gather /
    // permute / scatter choreography never looks at key values.
    let n = 256;
    let (m1, _) = algs::sort::no_sort(&keys(5, n));
    let (m2, _) = algs::sort::no_sort(&keys(6, n));
    assert_same_signature(&m1, &m2, "no_sort");
    // Degenerate inputs too (all equal, pre-sorted).
    let (m3, _) = algs::sort::no_sort(&vec![7u64; n]);
    let (m4, _) = algs::sort::no_sort(&(0..n as u64).collect::<Vec<_>>());
    assert_same_signature(&m1, &m3, "no_sort (constant input)");
    assert_same_signature(&m1, &m4, "no_sort (sorted input)");
}

#[test]
fn ngep_pattern_is_value_oblivious() {
    use algs::ngep::{ngep_program, DOrder};
    use no_framework::gep::{fw_update, UpdateSet};
    let n = 16;
    let d1: Vec<f64> = (0..n * n).map(|t| ((t * 13) % 17) as f64).collect();
    let d2: Vec<f64> = (0..n * n).map(|t| ((t * 7) % 29) as f64 - 5.0).collect();
    for order in [DOrder::IGep, DOrder::DStar] {
        let (m1, _) = ngep_program(&d1, n, 4, fw_update, UpdateSet::All, order);
        let (m2, _) = ngep_program(&d2, n, 4, fw_update, UpdateSet::All, order);
        assert_same_signature(&m1, &m2, "ngep");
    }
}

#[test]
fn structure_driven_algorithms_are_deterministic() {
    // The instance is the structure, so the pattern legitimately varies
    // per instance — but replaying the same instance must reproduce the
    // signature exactly (no hidden nondeterminism in the choreography).
    let succ = {
        let n = 200usize;
        let mut perm: Vec<usize> = (1..n).collect();
        let r = keys(8, n);
        for i in (1..perm.len()).rev() {
            perm.swap(i, (r[i] as usize) % (i + 1));
        }
        // Build a single cycle-free list 0 → perm[0] → …
        let mut succ = vec![0u64; n];
        let mut cur = 0usize;
        for &nxt in &perm {
            succ[cur] = nxt as u64;
            cur = nxt;
        }
        succ[cur] = u64::MAX;
        succ
    };
    let (m1, r1) = algs::listrank::no_listrank(&succ);
    let (m2, r2) = algs::listrank::no_listrank(&succ);
    assert_eq!(r1, r2);
    assert_same_signature(&m1, &m2, "no_listrank (replay)");

    let n = 60;
    let edges: Vec<(usize, usize)> = (0..n - 1).map(|v| (v, (v * 7 + 1) % n)).collect();
    let (m1, l1) = algs::cc::no_cc(n, &edges);
    let (m2, l2) = algs::cc::no_cc(n, &edges);
    assert_eq!(l1, l2);
    assert_same_signature(&m1, &m2, "no_cc (replay)");

    let parent: Vec<usize> = (0..64)
        .map(|v| if v == 0 { 0 } else { (v - 1) / 2 })
        .collect();
    let e1 = algs::euler::no_euler(&parent, 0);
    let e2 = algs::euler::no_euler(&parent, 0);
    assert_eq!(e1.depth, e2.depth);
    assert_same_signature(&e1.machine, &e2.machine, "no_euler (replay)");
}

#[test]
fn costs_for_any_machine_come_from_one_log() {
    // Machine obliviousness: one run, many (p, B) evaluations — and the
    // evaluations are consistent (coarser blocks never cost more steps,
    // fewer processors never increase per-processor concurrency benefit).
    let n = 256;
    let (m, _) = algs::sort::no_sort(&keys(9, n));
    let base = m.communication_complexity(16, 1);
    assert!(base > 0);
    for p in [1usize, 4, 16, 64] {
        let c1 = m.communication_complexity(p, 1);
        let c8 = m.communication_complexity(p, 8);
        assert!(
            c8 <= c1,
            "blocking must not increase cost (p={p}): {c8} > {c1}"
        );
    }
    // D-BSP time from the same log.
    let g = [4.0, 2.0, 1.0, 0.5];
    let b = [8usize, 8, 4, 1];
    assert!(m.dbsp_time(16, &g, &b) > 0.0);
}
