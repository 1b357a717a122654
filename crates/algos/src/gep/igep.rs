//! I-GEP: the recursive multicore-oblivious GEP implementation
//! (paper appendix, scheduled under SB — Theorem 5).
//!
//! Four mutually recursive functions `𝒜`, `ℬ`, `𝒞`, `𝒟` differing in how
//! much the views `X ≡ x[I,J]`, `U ≡ x[I,K]`, `V ≡ x[K,J]`, `W ≡ x[K,K]`
//! overlap. Every recursive call — serial steps included — is forked as an
//! SB task with the appendix's space bounds (`m²`, `2m²`, `2m²`, `4m²`),
//! so the scheduler re-anchors each sub-computation at the smallest cache
//! level that fits it; that is precisely what yields the
//! `Θ(n³/(q_i·B_i·√C_i))` per-level miss bound.
//!
//! `𝒟`'s round-2 call list follows Table I's I-GEP column (the appendix
//! misprints `U_{21}` for `U_{22}` in the third call).

// The recursive functions take the paper's exact operand lists
// (X, U, V, W, origins, size, f, Σ): more readable than bundling.
#![allow(clippy::too_many_arguments)]

use mo_core::{spawn, ForkHint, Mat, Recorder};
use no_framework::gep::{GepF, UpdateSet};

/// Recursion grain: boxes of side ≤ `GRAIN` run the direct triple loop
/// ("if X is 1×1" in the paper, coarsened to keep the task DAG finite).
pub const GRAIN: usize = 8;

type Org = (usize, usize, usize);

/// Direct k-major triple loop over the box — the recursion base.
fn base(
    rec: &mut Recorder,
    x: Mat,
    u: Mat,
    v: Mat,
    w: Mat,
    o: Org,
    m: usize,
    f: GepF,
    s: UpdateSet,
) {
    let (i0, j0, k0) = o;
    for k in 0..m {
        for i in 0..m {
            for j in 0..m {
                if s.contains(i0 + i, j0 + j, k0 + k) {
                    let xv = rec.read_mat_f64(&x, i, j);
                    let uv = rec.read_mat_f64(&u, i, k);
                    let vv = rec.read_mat_f64(&v, k, j);
                    let wv = rec.read_mat_f64(&w, k, k);
                    rec.write_mat_f64(&x, i, j, f(xv, uv, vv, wv));
                }
            }
        }
    }
}

/// Entry point: the initial call `𝒜(x, x, x, x)` over the whole matrix.
pub fn igep_a(rec: &mut Recorder, x: Mat, n: usize, f: GepF, s: UpdateSet) {
    assert!(n.is_power_of_two());
    assert_eq!(x.rows, n);
    assert_eq!(x.cols, n);
    a_rec(rec, x, x, x, x, (0, 0, 0), n, f, s);
}

/// Public 𝒟 entry (used for matrix multiplication on disjoint matrices).
pub fn igep_d(
    rec: &mut Recorder,
    x: Mat,
    u: Mat,
    v: Mat,
    w: Mat,
    o: Org,
    m: usize,
    f: GepF,
    s: UpdateSet,
) {
    d_rec(rec, x, u, v, w, o, m, f, s);
}

fn a_rec(
    rec: &mut Recorder,
    x: Mat,
    u: Mat,
    v: Mat,
    w: Mat,
    o: Org,
    m: usize,
    f: GepF,
    s: UpdateSet,
) {
    let (i0, j0, k0) = o;
    if !s.intersects(i0, j0, k0, m) {
        return;
    }
    if m <= GRAIN {
        base(rec, x, u, v, w, o, m, f, s);
        return;
    }
    let h = m / 2;
    let (x11, x12, x21, x22) = x.quadrants();
    let (u11, u12, u21, u22) = u.quadrants();
    let (v11, v12, v21, v22) = v.quadrants();
    let (w11, _w12, _w21, w22) = w.quadrants();
    // 3: A(X11, U11, V11, W11)
    rec.fork(
        ForkHint::Sb,
        vec![spawn(h * h, move |r: &mut Recorder| {
            a_rec(r, x11, u11, v11, w11, (i0, j0, k0), h, f, s)
        })],
    );
    // 4: parallel B(X12, U11, V12, W11), C(X21, U21, V11, W11)
    rec.fork2(
        ForkHint::Sb,
        2 * h * h,
        move |r| b_rec(r, x12, u11, v12, w11, (i0, j0 + h, k0), h, f, s),
        2 * h * h,
        move |r| c_rec(r, x21, u21, v11, w11, (i0 + h, j0, k0), h, f, s),
    );
    // 5: D(X22, U21, V12, W11)
    rec.fork(
        ForkHint::Sb,
        vec![spawn(4 * h * h, move |r: &mut Recorder| {
            d_rec(r, x22, u21, v12, w11, (i0 + h, j0 + h, k0), h, f, s)
        })],
    );
    // 6: A(X22, U22, V22, W22)
    rec.fork(
        ForkHint::Sb,
        vec![spawn(h * h, move |r: &mut Recorder| {
            a_rec(r, x22, u22, v22, w22, (i0 + h, j0 + h, k0 + h), h, f, s)
        })],
    );
    // 7: parallel B(X21, U22, V21, W22), C(X12, U12, V22, W22)
    rec.fork2(
        ForkHint::Sb,
        2 * h * h,
        move |r| b_rec(r, x21, u22, v21, w22, (i0 + h, j0, k0 + h), h, f, s),
        2 * h * h,
        move |r| c_rec(r, x12, u12, v22, w22, (i0, j0 + h, k0 + h), h, f, s),
    );
    // 8: D(X11, U12, V21, W22)
    rec.fork(
        ForkHint::Sb,
        vec![spawn(4 * h * h, move |r: &mut Recorder| {
            d_rec(r, x11, u12, v21, w22, (i0, j0, k0 + h), h, f, s)
        })],
    );
}

fn b_rec(
    rec: &mut Recorder,
    x: Mat,
    u: Mat,
    v: Mat,
    w: Mat,
    o: Org,
    m: usize,
    f: GepF,
    s: UpdateSet,
) {
    let (i0, j0, k0) = o;
    if !s.intersects(i0, j0, k0, m) {
        return;
    }
    if m <= GRAIN {
        base(rec, x, u, v, w, o, m, f, s);
        return;
    }
    let h = m / 2;
    let (x11, x12, x21, x22) = x.quadrants();
    let (u11, u12, u21, u22) = u.quadrants();
    let (v11, v12, v21, v22) = v.quadrants();
    let (w11, _w12, _w21, w22) = w.quadrants();
    rec.fork2(
        ForkHint::Sb,
        2 * h * h,
        move |r| b_rec(r, x11, u11, v11, w11, (i0, j0, k0), h, f, s),
        2 * h * h,
        move |r| b_rec(r, x12, u11, v12, w11, (i0, j0 + h, k0), h, f, s),
    );
    rec.fork2(
        ForkHint::Sb,
        4 * h * h,
        move |r| d_rec(r, x21, u21, v11, w11, (i0 + h, j0, k0), h, f, s),
        4 * h * h,
        move |r| d_rec(r, x22, u21, v12, w11, (i0 + h, j0 + h, k0), h, f, s),
    );
    rec.fork2(
        ForkHint::Sb,
        2 * h * h,
        move |r| b_rec(r, x21, u22, v21, w22, (i0 + h, j0, k0 + h), h, f, s),
        2 * h * h,
        move |r| b_rec(r, x22, u22, v22, w22, (i0 + h, j0 + h, k0 + h), h, f, s),
    );
    rec.fork2(
        ForkHint::Sb,
        4 * h * h,
        move |r| d_rec(r, x11, u12, v21, w22, (i0, j0, k0 + h), h, f, s),
        4 * h * h,
        move |r| d_rec(r, x12, u12, v22, w22, (i0, j0 + h, k0 + h), h, f, s),
    );
}

fn c_rec(
    rec: &mut Recorder,
    x: Mat,
    u: Mat,
    v: Mat,
    w: Mat,
    o: Org,
    m: usize,
    f: GepF,
    s: UpdateSet,
) {
    let (i0, j0, k0) = o;
    if !s.intersects(i0, j0, k0, m) {
        return;
    }
    if m <= GRAIN {
        base(rec, x, u, v, w, o, m, f, s);
        return;
    }
    let h = m / 2;
    let (x11, x12, x21, x22) = x.quadrants();
    let (u11, u12, u21, u22) = u.quadrants();
    let (v11, v12, v21, v22) = v.quadrants();
    let (w11, _w12, _w21, w22) = w.quadrants();
    rec.fork2(
        ForkHint::Sb,
        2 * h * h,
        move |r| c_rec(r, x11, u11, v11, w11, (i0, j0, k0), h, f, s),
        2 * h * h,
        move |r| c_rec(r, x21, u21, v11, w11, (i0 + h, j0, k0), h, f, s),
    );
    rec.fork2(
        ForkHint::Sb,
        4 * h * h,
        move |r| d_rec(r, x12, u11, v12, w11, (i0, j0 + h, k0), h, f, s),
        4 * h * h,
        move |r| d_rec(r, x22, u21, v12, w11, (i0 + h, j0 + h, k0), h, f, s),
    );
    rec.fork2(
        ForkHint::Sb,
        2 * h * h,
        move |r| c_rec(r, x12, u12, v22, w22, (i0, j0 + h, k0 + h), h, f, s),
        2 * h * h,
        move |r| c_rec(r, x22, u22, v22, w22, (i0 + h, j0 + h, k0 + h), h, f, s),
    );
    rec.fork2(
        ForkHint::Sb,
        4 * h * h,
        move |r| d_rec(r, x11, u12, v21, w22, (i0, j0, k0 + h), h, f, s),
        4 * h * h,
        move |r| d_rec(r, x21, u22, v21, w22, (i0 + h, j0, k0 + h), h, f, s),
    );
}

fn d_rec(
    rec: &mut Recorder,
    x: Mat,
    u: Mat,
    v: Mat,
    w: Mat,
    o: Org,
    m: usize,
    f: GepF,
    s: UpdateSet,
) {
    let (i0, j0, k0) = o;
    if !s.intersects(i0, j0, k0, m) {
        return;
    }
    if m <= GRAIN {
        base(rec, x, u, v, w, o, m, f, s);
        return;
    }
    let h = m / 2;
    let (x11, x12, x21, x22) = x.quadrants();
    let (u11, u12, u21, u22) = u.quadrants();
    let (v11, v12, v21, v22) = v.quadrants();
    let (w11, _w12, _w21, w22) = w.quadrants();
    let sp = 4 * h * h;
    rec.fork(
        ForkHint::Sb,
        vec![
            spawn(sp, move |r: &mut Recorder| {
                d_rec(r, x11, u11, v11, w11, (i0, j0, k0), h, f, s)
            }),
            spawn(sp, move |r: &mut Recorder| {
                d_rec(r, x12, u11, v12, w11, (i0, j0 + h, k0), h, f, s)
            }),
            spawn(sp, move |r: &mut Recorder| {
                d_rec(r, x21, u21, v11, w11, (i0 + h, j0, k0), h, f, s)
            }),
            spawn(sp, move |r: &mut Recorder| {
                d_rec(r, x22, u21, v12, w11, (i0 + h, j0 + h, k0), h, f, s)
            }),
        ],
    );
    rec.fork(
        ForkHint::Sb,
        vec![
            spawn(sp, move |r: &mut Recorder| {
                d_rec(r, x11, u12, v21, w22, (i0, j0, k0 + h), h, f, s)
            }),
            spawn(sp, move |r: &mut Recorder| {
                d_rec(r, x12, u12, v22, w22, (i0, j0 + h, k0 + h), h, f, s)
            }),
            spawn(sp, move |r: &mut Recorder| {
                d_rec(r, x21, u22, v21, w22, (i0 + h, j0, k0 + h), h, f, s)
            }),
            spawn(sp, move |r: &mut Recorder| {
                d_rec(r, x22, u22, v22, w22, (i0 + h, j0 + h, k0 + h), h, f, s)
            }),
        ],
    );
}

#[cfg(test)]
mod tests {
    use super::super::*;
    use hm_model::MachineSpec;
    use mo_core::sched::{simulate, Policy};
    use no_framework::gep::{fw_instance, fw_update, ge_update, gep_reference};

    fn random_matrix(n: usize, seed: u64) -> Vec<f64> {
        let mut x = seed | 1;
        (0..n * n)
            .map(|_| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((x >> 40) as f64) / 1024.0 + 0.5
            })
            .collect()
    }

    #[test]
    fn igep_floyd_warshall_matches_reference_exactly() {
        // Integer edge weights make min/plus exact in f64.
        for n in [8usize, 16, 32] {
            let d = fw_instance(n, 12345);
            let gp = igep_program(&d, n, fw_update, UpdateSet::All);
            assert_eq!(gp.output(), floyd_warshall_reference(&d, n), "n = {n}");
        }
    }

    #[test]
    fn igep_gaussian_elimination_matches_reference_gep() {
        let n = 16;
        // Diagonally dominant => numerically tame, no pivoting needed.
        let mut a = random_matrix(n, 7);
        for i in 0..n {
            a[i * n + i] += n as f64 * 2.0;
        }
        let gp = igep_program(&a, n, ge_update, UpdateSet::KBelowMin);
        let mut reference = a.clone();
        gep_reference(&mut reference, n, ge_update, UpdateSet::KBelowMin);
        let got = gp.output();
        for t in 0..n * n {
            assert!(
                (got[t] - reference[t]).abs() < 1e-9 * (1.0 + reference[t].abs()),
                "mismatch at {t}: {} vs {}",
                got[t],
                reference[t]
            );
        }
    }

    #[test]
    fn igep_matmul_matches_reference() {
        for n in [8usize, 16, 32] {
            let a = random_matrix(n, 1);
            let b = random_matrix(n, 2);
            let mp = matmul_program(&a, &b, n);
            let c = mp.output();
            let r = matmul_reference(&a, &b, n);
            for t in 0..n * n {
                assert!(
                    (c[t] - r[t]).abs() < 1e-9 * (1.0 + r[t].abs()),
                    "n={n} t={t}"
                );
            }
        }
    }

    /// Theorem 5 shape: misses at a level-i cache ≈ n³/(q_i·B_i·√C_i)
    /// within a constant, and the speed-up is near-linear.
    #[test]
    fn theorem5_shape_holds() {
        let n = 64usize;
        let a = random_matrix(n, 3);
        let b = random_matrix(n, 4);
        let mp = matmul_program(&a, &b, n);
        let p = 4u64;
        let (c1, b1) = (1 << 10, 8u64);
        let spec = MachineSpec::three_level(p as usize, c1, b1 as usize, 1 << 16, 32).unwrap();
        let r = simulate(&mp.program, &spec, Policy::Mo);
        assert!(r.speedup() > p as f64 * 0.4, "speedup {}", r.speedup());
        let n3 = (n * n * n) as f64;
        let predicted = n3 / (p as f64 * b1 as f64 * (c1 as f64).sqrt());
        let measured = r.cache_complexity(1) as f64;
        // Within a generous constant (grain effects, W row reloads).
        assert!(
            measured < 40.0 * predicted,
            "L1 misses {measured} vs predicted Θ({predicted})"
        );
    }
}
