//! The Gaussian Elimination Paradigm (Fig. 5, §V).
//!
//! GEP is the triply-nested loop of Fig. 5: for every update triplet
//! `⟨i,j,k⟩ ∈ Σ_f` (in `k`-major order), apply
//! `x[i,j] ← f(x[i,j], x[i,k], x[k,j], x[k,k])`.
//!
//! The instances (all commutative in the §V-B sense), whose update
//! functions live with the rest of GEP's vocabulary in
//! [`no_framework::gep`], shared with N-GEP:
//!
//! * **Matrix multiplication** — `f(x,u,v,_) = x + u·v`, disjoint `X`,
//!   `U`, `V` (a pure call to I-GEP's `𝒟`).
//! * **Floyd–Warshall APSP** — `f(x,u,v,_) = min(x, u+v)`, `Σ_f` = all
//!   triplets, initial call `𝒜(x,x,x,x)`.
//! * **Gaussian elimination / LU without pivoting** —
//!   `f(x,u,v,w) = x − (u/w)·v`, `Σ_f = {⟨i,j,k⟩ : k < min(i,j)}`.
//!
//! [`igep`] holds the recursive multicore-oblivious implementation
//! (functions `𝒜`, `ℬ`, `𝒞`, `𝒟` of the appendix) scheduled under SB.

pub mod igep;

use mo_core::{Mat, Program, Recorder};
use no_framework::gep::{gep_reference, mm_update};

/// The types in this module's signatures, from [`no_framework::gep`],
/// where GEP's vocabulary is defined once for I-GEP and N-GEP.
pub use no_framework::gep::{GepF, UpdateSet};

/// A recorded I-GEP run.
pub struct GepProgram {
    /// The recorded program.
    pub program: Program,
    /// The matrix view (read results with [`Program::get_mat_f64`]).
    pub x: Mat,
    /// Problem size.
    pub n: usize,
}

impl GepProgram {
    /// The final matrix, row-major.
    pub fn output(&self) -> Vec<f64> {
        (0..self.n * self.n)
            .map(|t| self.program.get_mat_f64(&self.x, t / self.n, t % self.n))
            .collect()
    }
}

/// Record the full I-GEP computation `𝒜(x,x,x,x)` on `data` (row-major
/// `n × n`, `n` a power of two).
pub fn igep_program(data: &[f64], n: usize, f: GepF, sigma: UpdateSet) -> GepProgram {
    assert_eq!(data.len(), n * n);
    assert!(n.is_power_of_two());
    let mut h = None;
    let program = Recorder::record(n * n, |rec| {
        let a = rec.alloc_init_f64(data);
        let x = Mat::new(a, n, n);
        igep::igep_a(rec, x, n, f, sigma);
        h = Some(x);
    });
    GepProgram {
        program,
        x: h.unwrap(),
        n,
    }
}

/// Record `C += A·B` as a pure 𝒟 computation on disjoint matrices.
/// Returns the program and the `C` view.
pub fn matmul_program(a: &[f64], b: &[f64], n: usize) -> GepProgram {
    assert!(n.is_power_of_two());
    assert_eq!(a.len(), n * n);
    assert_eq!(b.len(), n * n);
    let mut h = None;
    let program = Recorder::record(4 * n * n, |rec| {
        let c = rec.alloc(n * n);
        let ma = rec.alloc_init_f64(a);
        let mb = rec.alloc_init_f64(b);
        let (xc, xa, xb) = (Mat::new(c, n, n), Mat::new(ma, n, n), Mat::new(mb, n, n));
        // W is irrelevant for mm_update; pass A.
        igep::igep_d(rec, xc, xa, xb, xa, (0, 0, 0), n, mm_update, UpdateSet::All);
        h = Some(xc);
    });
    GepProgram {
        program,
        x: h.unwrap(),
        n,
    }
}

/// Reference matrix multiplication.
pub fn matmul_reference(a: &[f64], b: &[f64], n: usize) -> Vec<f64> {
    let mut c = vec![0.0; n * n];
    for i in 0..n {
        for k in 0..n {
            let aik = a[i * n + k];
            for j in 0..n {
                c[i * n + j] += aik * b[k * n + j];
            }
        }
    }
    c
}

/// Empirically check the I-GEP correctness conditions for an instance
/// `(f, Σ_f)`: run I-GEP and the Fig. 5 reference on `trials` random
/// matrices and report whether they agree within `tol` (relative).
///
/// §V: "I-GEP produces the correct output under certain conditions which
/// are met by all notable instances"; C-GEP extends it to *every*
/// instance. This verifier is the practical tool for deciding whether a
/// new instance needs the C-GEP treatment (see `table_dstar` for a
/// non-commutative instance where reordering genuinely changes results).
pub fn igep_matches_reference(
    f: GepF,
    sigma: UpdateSet,
    n: usize,
    trials: usize,
    tol: f64,
) -> bool {
    let mut seed = 0x9E37_79B9u64;
    for _ in 0..trials {
        seed = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let mut s = seed;
        let data: Vec<f64> = (0..n * n)
            .map(|_| {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
                ((s >> 40) as f64) / 4096.0 + 1.0
            })
            .collect();
        let gp = igep_program(&data, n, f, sigma);
        let mut want = data.clone();
        gep_reference(&mut want, n, f, sigma);
        let got = gp.output();
        for t in 0..n * n {
            if (got[t] - want[t]).abs() > tol * (1.0 + want[t].abs()) {
                return false;
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use no_framework::gep::fw_update;

    #[test]
    fn igep_correctness_verifier_accepts_notable_instances() {
        assert!(igep_matches_reference(
            mm_update,
            UpdateSet::All,
            16,
            3,
            1e-9
        ));
        assert!(igep_matches_reference(
            fw_update,
            UpdateSet::All,
            16,
            3,
            1e-9
        ));
        // An affine instance restricted to k < min(i, j) also satisfies
        // the conditions (its operands are finalized before use).
        fn affine(x: f64, u: f64, v: f64, _w: f64) -> f64 {
            x + 0.25 * u + 0.25 * v
        }
        assert!(igep_matches_reference(
            affine,
            UpdateSet::KBelowMin,
            16,
            3,
            1e-9
        ));
    }

    #[test]
    fn igep_correctness_verifier_rejects_order_sensitive_instance() {
        // The same affine f over Σ = all triplets reads u = x[i,k] and
        // v = x[k,j] values that GEP's k-major order and I-GEP's quadrant
        // order update at different times: a genuine violation of the
        // I-GEP correctness conditions — the kind of instance §V says
        // C-GEP exists to repair.
        fn affine(x: f64, u: f64, v: f64, _w: f64) -> f64 {
            x + 0.25 * u + 0.25 * v
        }
        assert!(
            !igep_matches_reference(affine, UpdateSet::All, 16, 3, 1e-9),
            "expected the unrestricted affine instance to diverge"
        );
    }
}
