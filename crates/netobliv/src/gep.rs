//! The Gaussian Elimination Paradigm's vocabulary (Fig. 5, §V), stated
//! once for both of its implementations: I-GEP on multicores
//! (`mo_algorithms::gep`) and N-GEP on networks ([`crate::algs::ngep`]).
//!
//! GEP is the triply-nested loop of Fig. 5: for every update triplet
//! `⟨i,j,k⟩ ∈ Σ_f` (in `k`-major order), apply
//! `x[i,j] ← f(x[i,j], x[i,k], x[k,j], x[k,k])`. This module holds the
//! update functions `f` of the three notable instances, the update sets
//! `Σ_f` with the box tests both recursions prune by, the reference
//! loop every implementation is checked against, and the Floyd–Warshall
//! instance the tables, the fleet and the tests draw.

use std::ops::Range;

/// The update function `f : S⁴ → S` (plain function pointer so it is
/// `Copy` and freely shareable across recorded tasks).
pub type GepF = fn(f64, f64, f64, f64) -> f64;

/// The update set `Σ_f`, with box-intersection pruning for the
/// recursions' "if `T ∩ Σ_f = ∅` return" early exit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UpdateSet {
    /// Every triplet `[0,n)³` (Floyd–Warshall, matrix multiplication).
    All,
    /// `{⟨i,j,k⟩ : k < i ∧ k < j}` (Gaussian elimination / LU).
    KBelowMin,
}

impl UpdateSet {
    /// Membership test.
    #[inline]
    pub fn contains(self, i: usize, j: usize, k: usize) -> bool {
        match self {
            UpdateSet::All => true,
            UpdateSet::KBelowMin => k < i && k < j,
        }
    }

    /// Whether the box `[i0,i0+m) × [j0,j0+m) × [k0,k0+m)` (`m ≥ 1`)
    /// intersects the set.
    #[inline]
    pub fn intersects(self, i0: usize, j0: usize, k0: usize, m: usize) -> bool {
        match self {
            UpdateSet::All => true,
            UpdateSet::KBelowMin => k0 < i0 + m - 1 && k0 < j0 + m - 1,
        }
    }

    /// The columns `j` of a `κ`-wide block starting at global column
    /// `col0` that row `i`, step `k` (both global) updates: `Σ_f` is an
    /// interval in `j` for both sets. N-GEP's leaf runs each row over it.
    #[inline]
    pub fn cols(self, i: usize, k: usize, col0: usize, kappa: usize) -> Range<usize> {
        match self {
            UpdateSet::All => 0..kappa,
            UpdateSet::KBelowMin if k < i => (k + 1).saturating_sub(col0).min(kappa)..kappa,
            UpdateSet::KBelowMin => 0..0,
        }
    }

    /// Whether every triplet of the `κ × κ × κ` leaf (`κ ≥ 1`) whose
    /// first element is at global `(row0, col0, k0)` is in `Σ_f`: then
    /// no row needs [`cols`](Self::cols).
    #[inline]
    pub fn admits_block(self, row0: usize, col0: usize, k0: usize, kappa: usize) -> bool {
        match self {
            UpdateSet::All => true,
            UpdateSet::KBelowMin => k0 + kappa - 1 < row0.min(col0),
        }
    }
}

/// `f` for matrix multiplication: `x + u·v` (ignores `w`).
#[inline]
pub fn mm_update(x: f64, u: f64, v: f64, _w: f64) -> f64 {
    x + u * v
}

/// `f` for Floyd–Warshall: `min(x, u + v)`.
#[inline]
pub fn fw_update(x: f64, u: f64, v: f64, _w: f64) -> f64 {
    x.min(u + v)
}

/// `f` for Gaussian elimination without pivoting: `x − (u/w)·v`.
#[inline]
pub fn ge_update(x: f64, u: f64, v: f64, w: f64) -> f64 {
    x - (u / w) * v
}

/// A matrix word the GEP leaf [`gep_tiles`] updates: an `f64`, or its
/// bits (N-GEP's PE memories are `u64` words). Both moves are free.
pub trait Word: Copy {
    /// The word's value.
    fn get(self) -> f64;
    /// The word holding `v`.
    fn put(v: f64) -> Self;
}

impl Word for f64 {
    #[inline(always)]
    fn get(self) -> f64 {
        self
    }
    #[inline(always)]
    fn put(v: f64) -> f64 {
        v
    }
}

impl Word for u64 {
    #[inline(always)]
    fn get(self) -> f64 {
        f64::from_bits(self)
    }
    #[inline(always)]
    fn put(v: f64) -> u64 {
        v.to_bits()
    }
}

/// An operand of [`gep_tiles`]: its words, and the distance between the
/// starts of two consecutive rows (for `w`, of two diagonal entries).
pub type Block<'a, E> = (&'a [E], usize);

/// The GEP base case on operands disjoint from `x` whose every triplet
/// is in `Σ_f`: `x[i,j] ← f(x[i,j], u[i,k], v[k,j], w[k,k])` for
/// `(i, j, k) < (rows, cols, depth)`. `x`, `u` and `v` are row-major
/// with their row strides; `w[k,k]` is `w.0[k · w.1]` (a `κ × κ` block's
/// diagonal has step `κ + 1`; an `f` that ignores `w` may pass any
/// `depth` words at step 1).
///
/// `x` is cut into `R × C` tiles. A tile stays in registers for the
/// whole `k` sweep, and each step loads `v`'s `C`-wide strip once for
/// all `R` rows. Columns past the last whole tile take 8-wide, then
/// 4-wide tiles (those narrower than `C`), then single columns; rows
/// past the last whole band run one at a time. No operand is written, so
/// each `x[i,j]` still takes its `depth` terms in ascending `k` with the
/// values the k-major loop gives it: every tile shape gives that loop's
/// bits, for any `f`. Always inlined, so that each arm of
/// [`dispatch::gep_tiles`](crate::dispatch::gep_tiles) compiles it, at
/// its own tile shape, for its instruction set.
///
/// # Panics
/// If a row stride is below its row's length, or an operand is too
/// short for its rows.
#[inline(always)]
pub fn gep_tiles<E, F, const R: usize, const C: usize>(
    (x, xs): (&mut [E], usize),
    [(u, us), (v, vs), w]: [Block<'_, E>; 3],
    (rows, cols, depth): (usize, usize, usize),
    f: F,
) where
    E: Word,
    F: Fn(f64, f64, f64, f64) -> f64,
{
    if rows == 0 || cols == 0 || depth == 0 {
        return;
    }
    assert!(cols <= xs && cols <= vs && depth <= us, "rows overlap");
    let mut i = 0;
    while i + R <= rows {
        tile_band::<E, F, R, C>(
            (&mut x[i * xs..], xs),
            (&u[i * us..], us),
            (v, vs),
            w,
            cols,
            depth,
            &f,
        );
        i += R;
    }
    for i in i..rows {
        tile_band::<E, F, 1, C>(
            (&mut x[i * xs..], xs),
            (&u[i * us..], us),
            (v, vs),
            w,
            cols,
            depth,
            &f,
        );
    }
}

/// `R` rows of [`gep_tiles`]: `C`-wide tiles, then the narrower edge.
#[inline(always)]
fn tile_band<E: Word, F: Fn(f64, f64, f64, f64) -> f64, const R: usize, const C: usize>(
    (x, xs): (&mut [E], usize),
    u: Block<'_, E>,
    (v, vs): Block<'_, E>,
    w: Block<'_, E>,
    cols: usize,
    depth: usize,
    f: &F,
) {
    let mut j = 0;
    while j + C <= cols {
        tile::<E, F, R, C>((&mut x[j..], xs), u, (&v[j..], vs), w, depth, f);
        j += C;
    }
    while C > 8 && j + 8 <= cols {
        tile::<E, F, R, 8>((&mut x[j..], xs), u, (&v[j..], vs), w, depth, f);
        j += 8;
    }
    while C > 4 && j + 4 <= cols {
        tile::<E, F, R, 4>((&mut x[j..], xs), u, (&v[j..], vs), w, depth, f);
        j += 4;
    }
    for j in j..cols {
        tile::<E, F, R, 1>((&mut x[j..], xs), u, (&v[j..], vs), w, depth, f);
    }
}

/// One `R × C` tile of [`gep_tiles`] at the first word of `x`, `u`
/// and `v`: loaded into registers, swept over every `k`, stored.
#[inline(always)]
fn tile<E: Word, F: Fn(f64, f64, f64, f64) -> f64, const R: usize, const C: usize>(
    (x, xs): (&mut [E], usize),
    (u, us): Block<'_, E>,
    (v, vs): Block<'_, E>,
    (w, ws): Block<'_, E>,
    depth: usize,
    f: &F,
) {
    let mut acc = [[0.0; C]; R];
    for r in 0..R {
        for c in 0..C {
            acc[r][c] = x[r * xs + c].get();
        }
    }
    let u: [&[E]; R] = std::array::from_fn(|r| &u[r * us..][..depth]);
    let (v, w) = (&v[..(depth - 1) * vs + C], &w[..(depth - 1) * ws + 1]);
    for k in 0..depth {
        let vk: &[E; C] = v[k * vs..][..C].try_into().unwrap();
        let wk = w[k * ws].get();
        for r in 0..R {
            let uk = u[r][k].get();
            for c in 0..C {
                acc[r][c] = f(acc[r][c], uk, vk[c].get(), wk);
            }
        }
    }
    for r in 0..R {
        for c in 0..C {
            x[r * xs + c] = E::put(acc[r][c]);
        }
    }
}

/// The reference GEP engine of Fig. 5: the ground truth every oblivious
/// implementation is checked against.
pub fn gep_reference(x: &mut [f64], n: usize, f: GepF, sigma: UpdateSet) {
    assert_eq!(x.len(), n * n);
    for k in 0..n {
        for i in 0..n {
            for j in 0..n {
                if sigma.contains(i, j, k) {
                    x[i * n + j] = f(x[i * n + j], x[i * n + k], x[k * n + j], x[k * n + k]);
                }
            }
        }
    }
}

/// A random Floyd–Warshall instance, the min-plus GEP input: an `n × n`
/// distance matrix with a zero diagonal, up to three arcs out of each
/// vertex with integer weights 1–9 (exact in `f64`), and `∞` elsewhere.
pub fn fw_instance(n: usize, seed: u64) -> Vec<f64> {
    let mut d = Vec::new();
    fw_instance_into(n, seed, &mut d);
    d
}

/// [`fw_instance`] written into `d` (its contents replaced, its
/// allocation reused).
pub fn fw_instance_into(n: usize, seed: u64, d: &mut Vec<f64>) {
    d.clear();
    d.resize(n * n, f64::INFINITY);
    let mut x = seed | 1;
    for i in 0..n {
        d[i * n + i] = 0.0;
        for _ in 0..3 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let j = ((x >> 33) as usize) % n;
            let w = 1.0 + ((x >> 20) % 9) as f64;
            if i != j {
                d[i * n + j] = d[i * n + j].min(w);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The four box tests of [`UpdateSet`] against its membership test,
    /// on seeded boxes of widths 1–16 whose `KBelowMin` cut falls far
    /// below, inside, at either edge of and past the box: `cols` is
    /// exactly the admitted columns of each row and step,
    /// `admits_block` holds exactly when every triplet is admitted, and
    /// `intersects` exactly when some triplet is.
    #[test]
    fn update_set_box_tests_agree_with_membership() {
        let mut state = 0x5eed_u64;
        let mut draw = |below: usize| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as usize % below
        };
        // (boxes fully admitted, partly admitted, not admitted) for
        // `KBelowMin`.
        let mut seen = [0u32; 3];
        for kappa in [1usize, 2, 3, 4, 5, 8, 16] {
            for _ in 0..200 {
                let (row0, col0) = (draw(4 * kappa), draw(4 * kappa));
                // `k0` from far below the cut `min(row0, col0)` to a box
                // past it, with the edges `cut − κ`, `cut − κ + 1`,
                // `cut − 1` and `cut` among the draws.
                let cut = row0.min(col0);
                let k0 = (cut + 2 + draw(2 * kappa + 4)).saturating_sub(kappa + 4);
                for sigma in [UpdateSet::All, UpdateSet::KBelowMin] {
                    let case = format!("{sigma:?} κ={kappa} origin ({row0}, {col0}, {k0})");
                    let mut all = true;
                    let mut any = false;
                    for i in row0..row0 + kappa {
                        for k in k0..k0 + kappa {
                            let want: Vec<usize> = (0..kappa)
                                .filter(|&j| sigma.contains(i, col0 + j, k))
                                .collect();
                            let got: Vec<usize> = sigma.cols(i, k, col0, kappa).collect();
                            assert_eq!(got, want, "cols(i={i}, k={k}): {case}");
                            all &= want.len() == kappa;
                            any |= !want.is_empty();
                        }
                    }
                    assert_eq!(sigma.admits_block(row0, col0, k0, kappa), all, "{case}");
                    assert_eq!(sigma.intersects(row0, col0, k0, kappa), any, "{case}");
                    if sigma == UpdateSet::KBelowMin {
                        seen[usize::from(!all) + usize::from(!any)] += 1;
                    }
                }
            }
        }
        assert!(seen.iter().all(|&n| n > 0), "{seen:?}");
    }

    #[test]
    fn fw_instances_are_deterministic_and_seed_sensitive() {
        assert_eq!(fw_instance(16, 3), fw_instance(16, 3));
        assert_ne!(fw_instance(16, 3), fw_instance(16, 4));
        let mut d = vec![7.0; 5];
        fw_instance_into(16, 3, &mut d);
        assert_eq!(d, fw_instance(16, 3));
    }

    #[test]
    fn reference_ge_produces_upper_triangular_u() {
        // GEP with KBelowMin leaves U in the upper triangle: check against
        // textbook elimination.
        let n = 4;
        #[rustfmt::skip]
        let a = vec![
            4.0, 3.0, 2.0, 1.0,
            2.0, 4.0, 1.0, 2.0,
            1.0, 2.0, 4.0, 1.0,
            1.0, 1.0, 2.0, 4.0,
        ];
        let mut g = a.clone();
        gep_reference(&mut g, n, ge_update, UpdateSet::KBelowMin);
        // Textbook GE.
        let mut t = a.clone();
        for k in 0..n {
            for i in k + 1..n {
                let m = t[i * n + k] / t[k * n + k];
                for j in k + 1..n {
                    t[i * n + j] -= m * t[k * n + j];
                }
            }
        }
        for i in 0..n {
            for j in i..n {
                assert!(
                    (g[i * n + j] - t[i * n + j]).abs() < 1e-9,
                    "U mismatch at ({i},{j}): {} vs {}",
                    g[i * n + j],
                    t[i * n + j]
                );
            }
        }
    }
}
