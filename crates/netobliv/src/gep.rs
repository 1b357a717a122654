//! The Gaussian Elimination Paradigm's vocabulary (Fig. 5, §V), stated
//! once for both of its implementations: I-GEP on multicores
//! (`mo_algorithms::gep`) and N-GEP on networks ([`crate::algs::ngep`]).
//!
//! GEP is the triply-nested loop of Fig. 5: for every update triplet
//! `⟨i,j,k⟩ ∈ Σ_f` (in `k`-major order), apply
//! `x[i,j] ← f(x[i,j], x[i,k], x[k,j], x[k,k])`. This module holds the
//! update functions `f` of the three notable instances, the update sets
//! `Σ_f` with the box tests both recursions prune by, Table I (the
//! recursion's four functions and the sub-calls each makes, which both
//! recursions walk), the reference loop every implementation is checked
//! against, and the Floyd–Warshall instance the tables, the fleet and the
//! tests draw.

use std::ops::Range;

use crate::dispatch::Arm;

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

/// The four functions of GEP's recursion (the appendix's `𝒜`, `ℬ`, `𝒞`,
/// `𝒟`), named by which of a call's operands `U ≡ x[I,K]`, `V ≡ x[K,J]`
/// and `W ≡ x[K,K]` are its own `X ≡ x[I,J]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fun {
    /// `X ≡ U ≡ V ≡ W`.
    A,
    /// `X ≡ V` and `U ≡ W`.
    B,
    /// `X ≡ U` and `V ≡ W`.
    C,
    /// `X`, `U` and `V` disjoint.
    D,
}

impl Fun {
    /// The appendix's space bound of a call on `m × m` operands, the
    /// words of its distinct operands: `m²`, `2m²`, `2m²` and `4m²`.
    pub fn space(self, m: usize) -> usize {
        let operands = match self {
            Fun::A => 1,
            Fun::B | Fun::C => 2,
            Fun::D => 4,
        };
        operands * m * m
    }
}

/// Which order `𝒟` runs its eight sub-calls in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DOrder {
    /// I-GEP's order (Table I left column).
    IGep,
    /// N-GEP's `𝒟*` (Table I right column).
    DStar,
}

/// One sub-call of Table I, `(fun, x_q, u_q, v_q, w_q)`: its function
/// and the quadrant of each of the caller's operands it takes (0 = 11,
/// 1 = 12, 2 = 21, 3 = 22).
pub type Spec = (Fun, usize, usize, usize, usize);

/// Table I: the stages of a call of `fun`, in order, each a list of
/// sub-calls that run in parallel. A sub-call's `k` range is the
/// caller's lower half when `u_q` is in `U`'s left column, the upper
/// half otherwise. Only `𝒟` depends on `order`.
///
/// The appendix misprints `U21` for `U22` in the third call of `𝒟`'s
/// second round; Table I's I-GEP column has `U22`, as here.
pub fn stages(fun: Fun, order: DOrder) -> &'static [&'static [Spec]] {
    use Fun::*;
    match fun {
        A => &[
            &[(A, 0, 0, 0, 0)],
            &[(B, 1, 0, 1, 0), (C, 2, 2, 0, 0)],
            &[(D, 3, 2, 1, 0)],
            &[(A, 3, 3, 3, 3)],
            &[(B, 2, 3, 2, 3), (C, 1, 1, 3, 3)],
            &[(D, 0, 1, 2, 3)],
        ],
        B => &[
            &[(B, 0, 0, 0, 0), (B, 1, 0, 1, 0)],
            &[(D, 2, 2, 0, 0), (D, 3, 2, 1, 0)],
            &[(B, 2, 3, 2, 3), (B, 3, 3, 3, 3)],
            &[(D, 0, 1, 2, 3), (D, 1, 1, 3, 3)],
        ],
        C => &[
            &[(C, 0, 0, 0, 0), (C, 2, 2, 0, 0)],
            &[(D, 1, 0, 1, 0), (D, 3, 2, 1, 0)],
            &[(C, 1, 1, 3, 3), (C, 3, 3, 3, 3)],
            &[(D, 0, 1, 2, 3), (D, 2, 3, 2, 3)],
        ],
        D => match order {
            DOrder::IGep => &[
                &[
                    (D, 0, 0, 0, 0),
                    (D, 1, 0, 1, 0),
                    (D, 2, 2, 0, 0),
                    (D, 3, 2, 1, 0),
                ],
                &[
                    (D, 0, 1, 2, 3),
                    (D, 1, 1, 3, 3),
                    (D, 2, 3, 2, 3),
                    (D, 3, 3, 3, 3),
                ],
            ],
            DOrder::DStar => &[
                &[
                    (D, 0, 0, 0, 0),
                    (D, 1, 1, 3, 3),
                    (D, 2, 3, 2, 3),
                    (D, 3, 2, 1, 0),
                ],
                &[
                    (D, 0, 1, 2, 3),
                    (D, 1, 0, 1, 0),
                    (D, 2, 2, 0, 0),
                    (D, 3, 3, 3, 3),
                ],
            ],
        },
    }
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

/// A compiled form of [`gep_tiles`], which [`gep_split_rows`] and
/// [`gep_split_cols`] run their sweeps through: an [`Arm`] runs
/// [`dispatch::gep_tiles`](crate::dispatch::gep_tiles) at its own tile.
pub(crate) trait Sweep: Copy {
    /// The tile's rows: the height of the split's bands.
    fn band(self) -> usize;
    /// [`gep_tiles`] over `shape`, as that function takes its operands.
    fn tiles<E: Word, F: Fn(f64, f64, f64, f64) -> f64>(
        self,
        x: (&mut [E], usize),
        uvw: [Block<'_, E>; 3],
        shape: (usize, usize, usize),
        f: F,
    );
}

impl Sweep for Arm {
    fn band(self) -> usize {
        self.tile().0
    }
    fn tiles<E: Word, F: Fn(f64, f64, f64, f64) -> f64>(
        self,
        x: (&mut [E], usize),
        uvw: [Block<'_, E>; 3],
        shape: (usize, usize, usize),
        f: F,
    ) {
        crate::dispatch::gep_tiles(self, x, uvw, shape, f)
    }
}

/// ℬ's GEP base case, `v` being `x` itself: for every `k < n`, then
/// every `i < n` and `j < cols`,
/// `x[i,j] ← f(x[i,j], u[i,k], x[k,j], w[k,k])`, with `u` and `w`
/// disjoint from `x` and every triplet in `Σ_f`. Operands are laid out
/// as for [`gep_tiles`]; `q` is scratch of at least `n · cols` words.
///
/// In that k-major loop, step `k` reads row `k` of `x` as it stands
/// after step `k − 1` for the rows above it, and after step `k` for
/// the rows below it (row `k` itself reads each element just before
/// writing it). Both values are kept, and `x` is swept in bands of
/// `sweep`'s tile rows `R`:
///
/// 1. band by band from the top, one sweep applies steps `k < r0` to
///    rows `r0..r0 + R`, reading rows `0..r0` of `x`, which by then have
///    taken exactly the steps up to their own; then the band's own steps
///    run row by row over its rows `i ≥ k`, each row `k` first saved to
///    `q` as it stands after step `k − 1`;
/// 2. each band takes its remaining in-band steps (`k > i`) from `q`,
///    then one sweep applies steps `k ≥ r0 + R` reading `q`.
///
/// Each `x[i,j]` so takes its `n` terms in ascending `k`, with the
/// operands the k-major loop gives it: the result is that loop's bits,
/// for any `f`.
///
/// # Panics
/// If `q` is shorter than `n · cols`, or as [`gep_tiles`] does.
pub(crate) fn gep_split_rows<E, F>(
    sweep: impl Sweep,
    (x, xs): (&mut [E], usize),
    [(u, us), (w, ws)]: [Block<'_, E>; 2],
    (n, cols): (usize, usize),
    q: &mut [E],
    f: F,
) where
    E: Word,
    F: Fn(f64, f64, f64, f64) -> f64,
{
    let q = &mut q[..n * cols];
    let band = sweep.band();
    let bands = (0..n).step_by(band);
    let band_end = |r0: usize| (r0 + band).min(n);
    for r0 in bands.clone() {
        let end = band_end(r0);
        let (done, rows) = x.split_at_mut(r0 * xs);
        let uvw = [(&u[r0 * us..], us), (&*done, xs), (w, ws)];
        sweep.tiles((rows, xs), uvw, (end - r0, cols, r0), &f);
        for k in r0..end {
            let (uk, wk) = (u[k * us + k].get(), w[k * ws].get());
            let (pivot, saved) = (&mut x[k * xs..][..cols], &mut q[k * cols..][..cols]);
            saved.copy_from_slice(pivot);
            row_step(pivot, uk, saved, wk, &f);
            for i in k + 1..end {
                let (above, row) = x.split_at_mut(i * xs);
                let v = &above[k * xs..][..cols];
                row_step(&mut row[..cols], u[i * us + k].get(), v, wk, &f);
            }
        }
    }
    for r0 in bands {
        let end = band_end(r0);
        for i in r0..end {
            for k in i + 1..end {
                let v = &q[k * cols..][..cols];
                row_step(
                    &mut x[i * xs..][..cols],
                    u[i * us + k].get(),
                    v,
                    w[k * ws].get(),
                    &f,
                );
            }
        }
        if end < n {
            let uvw = [
                (&u[r0 * us + end..], us),
                (&q[end * cols..], cols),
                (&w[end * ws..], ws),
            ];
            sweep.tiles((&mut x[r0 * xs..], xs), uvw, (end - r0, cols, n - end), &f);
        }
    }
}

/// `x[j] ← f(x[j], u, v[j], w)` along one row.
#[inline(always)]
fn row_step<E: Word, F: Fn(f64, f64, f64, f64) -> f64>(
    x: &mut [E],
    u: f64,
    v: &[E],
    w: f64,
    f: &F,
) {
    for (x, v) in x.iter_mut().zip(v) {
        *x = E::put(f(x.get(), u, v.get(), w));
    }
}

/// 𝒞's GEP base case on an `n × n` block, `u` being `x` itself: for
/// every `k < n`, then every `i, j < n`,
/// `x[i,j] ← f(x[i,j], x[i,k], v[k,j], w[k,k])`, with `v` and `w`
/// disjoint from `x` and every triplet in `Σ_f`. `scratch` holds at
/// least `2n²` words.
///
/// On `y = xᵀ` this is ℬ's loop with `f`'s `u` and `v` swapped and
/// `vᵀ` as `u`: `y[j,i] ← f(y[j,i], y[k,i], vᵀ[j,k], w[k,k])`, where
/// step `k` reads row `k` of `y` before its step `k` for `j < k` and
/// after it for `j > k`, as the k-major loop reads column `k` of `x`. So
/// `x` is transposed in place, `vᵀ` copied into `scratch`, the block run
/// through [`gep_split_rows`] and transposed back: the same bits, for
/// any `f`.
///
/// # Panics
/// If `scratch` is shorter than `2n²`, or as [`gep_split_rows`] does.
pub(crate) fn gep_split_cols<E, F>(
    sweep: impl Sweep,
    (x, xs): (&mut [E], usize),
    [(v, vs), w]: [Block<'_, E>; 2],
    n: usize,
    scratch: &mut [E],
    f: F,
) where
    E: Word,
    F: Fn(f64, f64, f64, f64) -> f64,
{
    let (q, vt) = scratch[..2 * n * n].split_at_mut(n * n);
    for (j, row) in vt.chunks_exact_mut(n).enumerate() {
        for (k, e) in row.iter_mut().enumerate() {
            *e = v[k * vs + j];
        }
    }
    transpose(x, xs, n);
    let swapped = |x, a, b, w| f(x, b, a, w);
    gep_split_rows(sweep, (x, xs), [(vt, n), w], (n, n), q, swapped);
    transpose(x, xs, n);
}

/// The `n × n` block of `x` (row stride `xs`) transposed in place.
fn transpose<E: Copy>(x: &mut [E], xs: usize, n: usize) {
    for i in 1..n {
        let (above, row) = x.split_at_mut(i * xs);
        for (j, e) in row[..i].iter_mut().enumerate() {
            std::mem::swap(e, &mut above[j * xs + i]);
        }
    }
}

/// The reference GEP engine of Fig. 5: the ground truth every oblivious
/// implementation is checked against.
pub fn gep_reference(
    x: &mut [f64],
    n: usize,
    f: impl Fn(f64, f64, f64, f64) -> f64,
    sigma: UpdateSet,
) {
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
pub(crate) mod tests {
    use super::*;

    /// [`gep_tiles`] at an `R × C` tile, at the build's own width: each
    /// arm's tile shape, or a band height no arm has.
    #[derive(Clone, Copy)]
    pub(crate) struct Shape<const R: usize, const C: usize>;

    impl<const R: usize, const C: usize> Sweep for Shape<R, C> {
        fn band(self) -> usize {
            R
        }
        fn tiles<E: Word, F: Fn(f64, f64, f64, f64) -> f64>(
            self,
            x: (&mut [E], usize),
            uvw: [Block<'_, E>; 3],
            shape: (usize, usize, usize),
            f: F,
        ) {
            gep_tiles::<E, F, R, C>(x, uvw, shape, f)
        }
    }

    /// Order-sensitive in all four operands, and not symmetric in `u`
    /// and `v` (as `𝒞`'s swap must preserve).
    fn mix(x: f64, u: f64, v: f64, w: f64) -> f64 {
        x * 0.75 + u * v * 0.125 + u * 0.25 - v * 0.1875 - w * 0.0625
    }

    /// [`gep_split_rows`] and [`gep_split_cols`] at band heights 1, 2, 3
    /// and 5 against the k-major triple loop with `v` (resp. `u`) read
    /// from `x` as it stands, bit for bit, on `n` that no band height
    /// divides, at it and past it, with `cols` below, at and past `n`
    /// and row strides past each row's length.
    #[test]
    fn pivot_split_matches_the_k_major_loop_at_ragged_band_edges() {
        fn check(sweep: impl Sweep, state: &mut u64) -> usize {
            let mut draw = |len: usize| -> Vec<f64> {
                (0..len)
                    .map(|_| {
                        *state = state
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(1442695040888963407);
                        0.5 + (*state >> 11) as f64 / (1u64 << 53) as f64
                    })
                    .collect()
            };
            let mut cases = 0;
            for n in [1usize, 2, 3, 4, 5, 6, 7, 9, 10, 13, 16] {
                let (us, ws) = (n + 1, n + 2);
                let (u, w) = (draw(n * us), draw(n * ws));
                for cols in [1, n.div_ceil(2), n, n + 3] {
                    let xs = cols + 2;
                    let x = draw(n * xs);
                    let mut want = x.clone();
                    for k in 0..n {
                        for i in 0..n {
                            for j in 0..cols {
                                let (xv, vv) = (want[i * xs + j], want[k * xs + j]);
                                want[i * xs + j] = mix(xv, u[i * us + k], vv, w[k * ws]);
                            }
                        }
                    }
                    let mut got = x.clone();
                    let mut q = vec![f64::NAN; n * cols];
                    gep_split_rows(
                        sweep,
                        (&mut got, xs),
                        [(&u, us), (&w, ws)],
                        (n, cols),
                        &mut q,
                        mix,
                    );
                    assert_eq!(got, want, "rows: band {} n={n} cols={cols}", sweep.band());
                    cases += 1;
                    if cols != n {
                        continue;
                    }
                    // 𝒞 on the same block, with `u` as its `v`.
                    let mut want = x.clone();
                    for k in 0..n {
                        for i in 0..n {
                            for j in 0..n {
                                let (xv, uv) = (want[i * xs + j], want[i * xs + k]);
                                want[i * xs + j] = mix(xv, uv, u[k * us + j], w[k * ws]);
                            }
                        }
                    }
                    let mut got = x.clone();
                    let mut scratch = vec![f64::NAN; 2 * n * n];
                    gep_split_cols(
                        sweep,
                        (&mut got, xs),
                        [(&u, us), (&w, ws)],
                        n,
                        &mut scratch,
                        mix,
                    );
                    assert_eq!(got, want, "cols: band {} n={n}", sweep.band());
                    cases += 1;
                }
            }
            cases
        }
        let mut state = 0x5b1d_u64;
        let cases = check(Shape::<1, 4>, &mut state)
            + check(Shape::<2, 16>, &mut state)
            + check(Shape::<3, 8>, &mut state)
            + check(Shape::<5, 1>, &mut state);
        // Per band: every `(n, cols)` through ℬ, and 𝒞 where `cols = n`
        // (three of `n = 1`'s four `cols`).
        assert_eq!(cases, 4 * (11 * 4 + 13));
    }

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

    /// Table I's invariants, for every function and both orders of `𝒟`:
    /// eight sub-calls, one per `X` quadrant and `k` half, whose `U`, `V`
    /// and `W` quadrants follow from those two; no stage writes an `X`
    /// quadrant twice; each sub-call's function is the one its operands'
    /// aliasing of `X` names, given the caller's; and the two orders of
    /// `𝒟` are the same eight calls, `𝒟*` using no `U` or `V` quadrant
    /// twice in a round where I-GEP's `𝒟` uses each one twice.
    #[test]
    fn table_one_is_consistent() {
        // Which of `U`, `V`, `W` a call of each function has as its `X`.
        let aliased = |fun| match fun {
            Fun::A => [true; 3],
            Fun::B => [false, true, false],
            Fun::C => [true, false, false],
            Fun::D => [false; 3],
        };
        let specs = |fun, order| -> Vec<Spec> {
            let mut all: Vec<Spec> = stages(fun, order).concat();
            all.sort_by_key(|&(_, x, u, v, w)| (x, u, v, w));
            all
        };
        for fun in [Fun::A, Fun::B, Fun::C, Fun::D] {
            for order in [DOrder::IGep, DOrder::DStar] {
                let table = stages(fun, order);
                let mut cells = [[0u32; 2]; 4];
                for stage in table {
                    let mut written = [false; 4];
                    for &(sub, xq, uq, vq, wq) in *stage {
                        let case = format!("{fun:?} {order:?}: {:?}", (sub, xq, uq, vq, wq));
                        let (row, col, k) = (xq / 2, xq % 2, uq % 2);
                        cells[xq][k] += 1;
                        assert_eq!((uq, vq, wq), (2 * row + k, 2 * k + col, 3 * k), "{case}");
                        assert!(!std::mem::replace(&mut written[xq], true), "{case}");
                        let parent = aliased(fun);
                        let own = [uq, vq, wq].map(|q| q == xq);
                        let alias = [0, 1, 2].map(|t| parent[t] && own[t]);
                        assert_eq!(alias, aliased(sub), "{case}");
                    }
                }
                assert_eq!(cells, [[1; 2]; 4], "{fun:?} {order:?}");
            }
        }
        assert_eq!(specs(Fun::D, DOrder::IGep), specs(Fun::D, DOrder::DStar));
        for (order, uses) in [(DOrder::IGep, 2), (DOrder::DStar, 1)] {
            for round in stages(Fun::D, order) {
                // Uses of each `U` quadrant, then of each `V` quadrant.
                let mut count = [[0; 4]; 2];
                for &(_, _, uq, vq, _) in *round {
                    count[0][uq] += 1;
                    count[1][vq] += 1;
                }
                assert!(
                    count.as_flattened().iter().all(|&c| c == 0 || c == uses),
                    "{order:?} {round:?}"
                );
            }
        }
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
