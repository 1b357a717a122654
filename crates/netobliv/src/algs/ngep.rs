//! N-GEP: the network-oblivious Gaussian Elimination Paradigm
//! (§V-B, Table I, Theorem 6).
//!
//! The matrix is distributed block-wise: PE `t` owns the `κ × κ` block
//! with Morton (bit-interleaved) index `t`, so every aligned quadrant of
//! every region is a *contiguous* PE subrange and the recursion maps
//! directly onto PE groups. The recursion walks Table I as
//! [`crate::gep::stages`] states it, the table I-GEP's recorder walks
//! too. Functions `𝒜`, `ℬ`, `𝒞` follow I-GEP; the eight sub-calls of
//! `𝒟` can run in either of Table I's orders:
//!
//! * [`DOrder::IGep`] — I-GEP's `𝒟`: quadrants `U11`, `U21` (round 1)
//!   and `U12`, `U22` (round 2) are each consumed by **two** parallel
//!   sub-calls, so their owners send every block twice;
//! * [`DOrder::DStar`] — N-GEP's `𝒟*`: rounds are reordered so no `U` or
//!   `V` quadrant is needed twice per round (only the diagonal `W`
//!   blocks are duplicated, which the paper shows is free of memory
//!   blow-up). For *commutative* GEP computations the two orders give
//!   identical results; Table I's point is the communication difference:
//!   the volume is the same, but 𝒟 doubles the sending load of the
//!   duplicated quadrants' owners, so the max-per-processor measure (and
//!   hence the communication complexity) is strictly worse.
//!
//! Every stage of the recursion is level-synchronous: sibling sub-calls
//! share the same routing superstep, so M(p,B) communication complexity
//! is measured with full concurrency, as the model requires.
//!
//! Operand routing sources the *live* values: an operand aliased to the
//! call's own `X` region reads the in-place blocks; any other operand was
//! finalized before the call started (the I-GEP correctness order) and is
//! routed from the parent's immutable operand frame.

use std::ops::Range;

use crate::gep::{mm_update, stages, Block, Fun};
use crate::{dispatch, Comm, NoMachine, Scope};

/// `Σ_f`, named at this path too: the one definition is [`crate::gep`]'s.
pub use crate::gep::UpdateSet;

/// `𝒟`'s order, named at this path too: the one definition is
/// [`crate::gep`]'s, beside Table I.
pub use crate::gep::DOrder;

/// An aligned square region: `base`/`s` in Morton block space,
/// `(row0, col0, m)` in element space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Region {
    base: usize,
    s: usize,
    row0: usize,
    col0: usize,
    m: usize,
    /// Which matrix the region lives in (0 = the in-place `x`; matmul
    /// gives `A`/`B` their own spaces so quadrants never falsely alias).
    space: u8,
}

impl Region {
    /// Quadrant `q` (0 = 11, 1 = 12, 2 = 21, 3 = 22).
    fn quadrant(&self, q: usize) -> Region {
        let s4 = self.s / 4;
        Region {
            base: self.base + q * s4,
            s: s4,
            row0: self.row0 + (q / 2) * (self.m / 2),
            col0: self.col0 + (q % 2) * (self.m / 2),
            m: self.m / 2,
            space: self.space,
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Call {
    fun: Fun,
    x: Region,
    u: Region,
    v: Region,
    w: Region,
    /// `group == x.base`: the PE subrange executing the call.
    group: usize,
    /// Word offset of this call's operand frame in each group PE's
    /// memory (`usize::MAX` when all operands alias `X`).
    frame: usize,
    /// Alias flags: operand region equals the `X` region.
    alias: [bool; 3],
    /// Parent storage for routing: per operand, `(group, frame_or_x)`
    /// where `frame_or_x == usize::MAX` means the parent's live `X`
    /// blocks.
    src: [(usize, usize); 3],
}

struct Engine<'m, C: Comm, F> {
    m: &'m mut C,
    kappa: usize,
    bsz: usize,
    f: F,
    sigma: UpdateSet,
    order: DOrder,
}

impl<C: Comm, F: Fn(f64, f64, f64, f64) -> f64 + Copy> Engine<'_, C, F> {
    /// Execute all `calls` (same family, same size) in lock-step.
    fn run_level(&mut self, calls: Vec<Call>) {
        let calls: Vec<Call> = calls
            .into_iter()
            .filter(|c| self.sigma.intersects(c.x.row0, c.x.col0, c.u.col0, c.x.m))
            .collect();
        if calls.is_empty() {
            return;
        }
        let s = calls[0].x.s;
        if s == 1 {
            self.leaf_step(&calls);
            return;
        }
        let nstages = stages(calls[0].fun, self.order).len();
        debug_assert!(calls
            .iter()
            .all(|c| stages(c.fun, self.order).len() == nstages));
        // Operands are routed from the parent's blocks and frames to its
        // quadrants, so a stage's traffic stays inside the parent groups.
        let mut groups: Vec<usize> = calls.iter().map(|c| c.group).collect();
        groups.sort_unstable();
        let parents = Scope::Groups {
            starts: &groups,
            size: s,
        };
        for stage in 0..nstages {
            let mut subcalls = Vec::new();
            for call in &calls {
                for &(fun, xq, uq, vq, wq) in stages(call.fun, self.order)[stage] {
                    subcalls.push(self.make_subcall(call, fun, [xq, uq, vq, wq]));
                }
            }
            self.route(parents, &subcalls);
            self.run_level(subcalls);
        }
    }

    fn make_subcall(&self, parent: &Call, fun: Fun, q: [usize; 4]) -> Call {
        let x = parent.x.quadrant(q[0]);
        let u = parent.u.quadrant(q[1]);
        let v = parent.v.quadrant(q[2]);
        let w = parent.w.quadrant(q[3]);
        let s4 = parent.x.s / 4;
        let alias = [u == x, v == x, w == x];
        // Parent-side source of each operand quadrant: a slice of the
        // parent's X blocks (if that operand aliased X) or of the
        // parent's frame slot.
        let src = [
            (
                parent.group + q[1] * s4,
                if parent.alias[0] {
                    usize::MAX
                } else {
                    parent.frame
                },
            ),
            (
                parent.group + q[2] * s4,
                if parent.alias[1] {
                    usize::MAX
                } else {
                    parent.frame + self.bsz
                },
            ),
            (
                parent.group + q[3] * s4,
                if parent.alias[2] {
                    usize::MAX
                } else {
                    parent.frame + 2 * self.bsz
                },
            ),
        ];
        let frame = if parent.frame == usize::MAX {
            self.bsz // first frame
        } else {
            parent.frame + 3 * self.bsz
        };
        let frame = if alias.iter().all(|&a| a) {
            usize::MAX
        } else {
            frame
        };
        Call {
            fun,
            x,
            u,
            v,
            w,
            group: x.base,
            frame,
            alias,
            src,
        }
    }

    /// One routing superstep (+ delivery) bringing every sub-call's
    /// non-alias operands into its group's frames. `parents` is the
    /// scope the transfers stay inside.
    fn route(&mut self, parents: Scope<'_>, subcalls: &[Call]) {
        let bsz = self.bsz;
        // The owned halves of the routing tables, keyed by PE and sorted
        // so one PE's entries form a run: `src_pe → (dst_pe, dst_off,
        // src_off)` and the receiver's view `dst_pe → (src_pe, dst_off)`.
        // Whether the superstep happens at all is decided machine-wide.
        let mut sends: Vec<(usize, (usize, usize, usize))> = Vec::new();
        let mut recvs: Vec<(usize, (usize, usize))> = Vec::new();
        let mut any = false;
        for call in subcalls {
            for (slot, &alias) in call.alias.iter().enumerate() {
                if alias {
                    continue;
                }
                any = true;
                let (src_group, src_off) = call.src[slot];
                let soff = if src_off == usize::MAX { 0 } else { src_off };
                let dst_off = call.frame + slot * bsz;
                for t in 0..call.x.s {
                    let (src_pe, dst_pe) = (src_group + t, call.group + t);
                    if self.m.owns(src_pe) {
                        sends.push((src_pe, (dst_pe, dst_off, soff)));
                    }
                    if self.m.owns(dst_pe) {
                        recvs.push((dst_pe, (src_pe, dst_off)));
                    }
                }
            }
        }
        if !any {
            return;
        }
        sends.sort_unstable();
        recvs.sort_unstable();
        self.m.step_in(parents, |pe, ctx| {
            for &(_, (dst, _, soff)) in run_of(&sends, pe) {
                ctx.send_mem(dst, soff..soff + bsz);
            }
        });
        self.m.step_in(Scope::None, |pe, ctx| {
            let mut inbox = ctx.inbox;
            for &(_, (_src, doff)) in run_of(&recvs, pe) {
                let (block, rest) = inbox.split_at(bsz);
                ctx.mem[doff..doff + bsz].copy_from_slice(block);
                inbox = rest;
            }
            debug_assert!(inbox.is_empty());
        });
    }

    /// Base case: every call is a single block on a single PE; one local
    /// superstep runs [`dispatch::leaf_update`] on each, at the host's
    /// widest arm.
    fn leaf_step(&mut self, calls: &[Call]) {
        let arm = dispatch::Arm::widest();
        let kappa = self.kappa;
        let bsz = self.bsz;
        let f = self.f;
        let sigma = self.sigma;
        let mut jobs: Vec<Call> = calls
            .iter()
            .filter(|c| self.m.owns(c.group))
            .copied()
            .collect();
        jobs.sort_unstable_by_key(|c| c.group);
        self.m.step_in(Scope::None, |pe, ctx| {
            let Ok(at) = jobs.binary_search_by_key(&pe, |c| c.group) else {
                return;
            };
            let call = &jobs[at];
            // An operand aliased to `X` is the block at offset 0.
            let offsets: [usize; 3] = std::array::from_fn(|slot| {
                if call.alias[slot] {
                    0
                } else {
                    call.frame + slot * bsz
                }
            });
            let origin = (call.x.row0, call.x.col0, call.u.col0);
            let ops = dispatch::leaf_update(arm, ctx.mem, kappa, offsets, origin, f, sigma);
            ctx.work(ops);
        });
    }
}

#[cfg(test)]
thread_local! {
    /// Blocks [`tiled_operands`] has handed to one
    /// [`gep_tiles`](crate::gep::gep_tiles) on this thread.
    static TILED_LEAVES: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
    /// Blocks [`tiled_operands`] has handed to the pivot split on this
    /// thread.
    static SPLIT_LEAVES: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// A `κ × κ` base case on the register tile, its operands as the leaf
/// that runs it takes them (DESIGN §2 S8).
pub(crate) enum Tiled<'a> {
    /// `u`, `v`, `w` all disjoint from `x`: one
    /// [`gep_tiles`](crate::gep::gep_tiles).
    Disjoint(&'a mut [u64], [Block<'a, u64>; 3]),
    /// `v` is `x` (ℬ): [`gep_split_rows`](crate::gep::gep_split_rows),
    /// given `[u, w]`.
    PivotRows(&'a mut [u64], [Block<'a, u64>; 2]),
    /// `u` is `x` (𝒞): [`gep_split_cols`](crate::gep::gep_split_cols),
    /// given `[v, w]`.
    PivotCols(&'a mut [u64], [Block<'a, u64>; 2]),
}

/// The operands of the `κ × κ` base case on one PE's memory as the
/// register tile takes them, when it applies: when every triplet of the
/// block is in `Σ_f`, `w` is disjoint from `x`, and of `u` and `v` at
/// most one is `x`. Otherwise `None`, and the block runs [`leaf_rows`].
///
/// `x` is the block at `mem[..κ²]`; `offsets` are the word offsets of the
/// `u`, `v`, `w` blocks, `0` for an operand aliased to `x` and a
/// disjoint frame slot at or past `κ²` otherwise. `origin` is the global
/// `(row, column, k)` of the block's first element, which is all `Σ_f`
/// needs.
pub(crate) fn tiled_operands(
    mem: &mut [u64],
    kappa: usize,
    offsets: [usize; 3],
    (row0, col0, k0): (usize, usize, usize),
    sigma: UpdateSet,
) -> Option<Tiled<'_>> {
    let [uo, vo, wo] = offsets;
    if wo == 0 || (uo == 0 && vo == 0) || !sigma.admits_block(row0, col0, k0, kappa) {
        return None;
    }
    let bsz = kappa * kappa;
    let (x, rest) = mem.split_at_mut(bsz);
    let block = |off: usize, stride| (&rest[off - bsz..][..bsz], stride);
    #[cfg(test)]
    let leaves = if uo == 0 || vo == 0 {
        &SPLIT_LEAVES
    } else {
        &TILED_LEAVES
    };
    #[cfg(test)]
    leaves.with(|c| c.set(c.get() + 1));
    Some(if vo == 0 {
        Tiled::PivotRows(x, [block(uo, kappa), block(wo, kappa + 1)])
    } else if uo == 0 {
        Tiled::PivotCols(x, [block(vo, kappa), block(wo, kappa + 1)])
    } else {
        Tiled::Disjoint(
            x,
            [block(uo, kappa), block(vo, kappa), block(wo, kappa + 1)],
        )
    })
}

/// The `κ × κ` GEP base case on one PE's memory, laid out as for
/// [`tiled_operands`], for a block that leaf does not take: the k-major
/// `(k, i, j)` triple loop `x[i,j] ← f(x[i,j], u[i,k], v[k,j], w[k,k])`
/// over `Σ_f`, with everything loop-invariant hoisted out of the `j`
/// loop. Returns the number of updates applied.
///
/// Hoisting is exact for every alias pattern because within one
/// `(k, i)` row the loop can change only two of the values it reads, and
/// both only at `j = k`: `u[i,k]` when `u` aliases `x`, and `w[k,k]`
/// when `w` aliases `x` and `i = k`. So when either does, the row's
/// admitted `j`-range is cut at `k + 1` and `u`, `w` are re-read once per
/// segment: `j ≤ k` sees the values from before the write at `j = k`,
/// `j > k` the ones after it. `v[k,j]` is either a row of another block,
/// another row of `x` (both disjoint from the row being written), or —
/// `v` aliased and `i = k` — the element being updated itself, read
/// before it is written.
///
/// With `LANES`, a row cut at `k` is cut lane by lane instead: the value
/// `x[i,k]` takes at `j = k` is computed first, then one loop over the
/// row has each lane take `u`, `w` from before or after that write by
/// its column. With AVX-512's mask registers, full vectors and a masked
/// blend per vector beat two ragged loops; with AVX2 or SSE2 the two
/// loops are as fast or faster, so only the AVX-512 arm of
/// [`dispatch::leaf_update`] sets it. Always inlined, with the functions
/// it calls, so that each arm compiles the whole loop for its
/// instruction set.
#[inline(always)]
pub(crate) fn leaf_rows<F: Fn(f64, f64, f64, f64) -> f64, const LANES: bool>(
    mem: &mut [u64],
    kappa: usize,
    offsets: [usize; 3],
    origin: (usize, usize, usize),
    f: F,
    sigma: UpdateSet,
) -> u64 {
    let [uo, vo, wo] = offsets;
    let (row0, col0, k0) = origin;
    let cut_at_k = uo == 0 || wo == 0;
    let mut ops = 0u64;
    for k in 0..kappa {
        for i in 0..kappa {
            let cols = sigma.cols(row0 + i, k0 + k, col0, kappa);
            ops += cols.len() as u64;
            let (xi, vk) = (i * kappa, vo + k * kappa);
            if LANES && cut_at_k && cols.contains(&k) {
                let u = f64::from_bits(mem[uo + i * kappa + k]);
                let w = f64::from_bits(mem[wo + k * kappa + k]);
                let xk = f64::from_bits(mem[xi + k]);
                let xk = f(xk, u, f64::from_bits(mem[vk + k]), w);
                let u_after = if uo == 0 { xk } else { u };
                let w_after = if wo == 0 && i == k { xk } else { w };
                // Columns compared as `u32`: faster than as `usize`.
                let k = k as u32;
                let uw = |j: u32| if j <= k { (u, w) } else { (u_after, w_after) };
                leaf_row(mem, kappa, (xi, vk), cols, &f, uw);
                continue;
            }
            let cut = if cut_at_k {
                (k + 1).clamp(cols.start, cols.end)
            } else {
                cols.end
            };
            for seg in [cols.start..cut, cut..cols.end] {
                if seg.is_empty() {
                    continue;
                }
                let u = f64::from_bits(mem[uo + i * kappa + k]);
                let w = f64::from_bits(mem[wo + k * kappa + k]);
                leaf_row(mem, kappa, (xi, vk), seg, &f, |_| (u, w));
            }
        }
    }
    ops
}

/// `x[i,j] ← f(x[i,j], u, v[k,j], w)` for the columns `j` in `cols` of
/// the row of `x` at `xi`, with `v`'s row at `vk` and `(u, w) = uw(j)`.
#[inline(always)]
fn leaf_row<F: Fn(f64, f64, f64, f64) -> f64>(
    mem: &mut [u64],
    kappa: usize,
    (xi, vk): (usize, usize),
    cols: Range<usize>,
    f: &F,
    uw: impl Fn(u32) -> (f64, f64),
) {
    let j0 = cols.start as u32;
    if xi == vk {
        for (j, x) in (j0..).zip(&mut mem[xi + cols.start..xi + cols.end]) {
            let ((u, w), xv) = (uw(j), f64::from_bits(*x));
            *x = f(xv, u, xv, w).to_bits();
        }
        return;
    }
    // Rows `x[i, ·]` and `v[k, ·]` are disjoint: split between them.
    let (lo, hi) = mem.split_at_mut(xi.max(vk));
    let (x, v) = if xi < vk {
        (&mut lo[xi..xi + kappa], &hi[..kappa])
    } else {
        (&mut hi[..kappa], &lo[vk..vk + kappa])
    };
    for (j, (x, &v)) in (j0..).zip(x[cols.clone()].iter_mut().zip(&v[cols])) {
        let (u, w) = uw(j);
        *x = f(f64::from_bits(*x), u, f64::from_bits(v), w).to_bits();
    }
}

/// The run of `table` (sorted by its PE key) that belongs to `pe`.
fn run_of<T>(table: &[(usize, T)], pe: usize) -> &[(usize, T)] {
    let from = table.partition_point(|e| e.0 < pe);
    let len = table[from..].partition_point(|e| e.0 == pe);
    &table[from..from + len]
}

/// Morton (bit-interleaved) index of block `(bi, bj)` — the PE owning
/// that `κ × κ` block.
pub fn morton(bi: usize, bj: usize) -> usize {
    let mut z = 0usize;
    for bit in 0..usize::BITS as usize / 2 {
        z |= ((bi >> bit) & 1) << (2 * bit + 1);
        z |= ((bj >> bit) & 1) << (2 * bit);
    }
    z
}

fn load_blocks<C: Comm>(m: &mut C, data: &[f64], n: usize, kappa: usize, off: usize) {
    let nb = n / kappa;
    for bi in 0..nb {
        for bj in 0..nb {
            let pe = morton(bi, bj);
            let Some(mem) = m.pe_mem_mut(pe) else {
                continue;
            };
            if mem.len() < off + kappa * kappa {
                mem.resize(off + kappa * kappa, 0);
            }
            for i in 0..kappa {
                for j in 0..kappa {
                    mem[off + i * kappa + j] =
                        data[(bi * kappa + i) * n + bj * kappa + j].to_bits();
                }
            }
        }
    }
}

/// The inverse of the block distribution: the row-major `n × n` words
/// whose `κ × κ` block `(bi, bj)` is the first `κ²` words of
/// `pe_mem(`[`morton`]`(bi, bj))`. The one output gather of every
/// backend — `NoMachine` here, a socket fleet's assembled PE memories in
/// `mo-dist`.
pub fn gather_blocks<'a>(n: usize, kappa: usize, pe_mem: impl Fn(usize) -> &'a [u64]) -> Vec<u64> {
    let nb = n / kappa;
    let mut out = vec![0u64; n * n];
    for bi in 0..nb {
        for bj in 0..nb {
            let block = pe_mem(morton(bi, bj));
            for i in 0..kappa {
                let row = (bi * kappa + i) * n + bj * kappa;
                out[row..row + kappa].copy_from_slice(&block[i * kappa..(i + 1) * kappa]);
            }
        }
    }
    out
}

fn store_blocks(m: &NoMachine, n: usize, kappa: usize) -> Vec<f64> {
    gather_blocks(n, kappa, |pe| m.mem(pe))
        .into_iter()
        .map(f64::from_bits)
        .collect()
}

fn frame_words(npes: usize, bsz: usize) -> usize {
    // Depth of the quadrant recursion plus the optional root frame.
    let depth = (usize::BITS - npes.leading_zeros()) as usize / 2 + 2;
    bsz * (1 + 3 * depth)
}

/// Run the full N-GEP computation `𝒜(x, x, x, x)` on an arbitrary
/// [`Comm`] backend with `(n/κ)²` PEs, the matrix distributed in
/// `κ × κ` Morton-ordered blocks. Loads the input into owned PEs and
/// executes every superstep; output collection is the caller's, through
/// [`gather_blocks`] (each owned PE's first `κ²` memory words are its
/// finished block, in row-major order, at the PE index
/// [`morton`]`(bi, bj)`).
pub fn ngep_program_on<C: Comm, F: Fn(f64, f64, f64, f64) -> f64 + Copy>(
    m: &mut C,
    data: &[f64],
    n: usize,
    kappa: usize,
    f: F,
    sigma: UpdateSet,
    order: DOrder,
) {
    assert!(n.is_power_of_two() && kappa.is_power_of_two() && kappa <= n);
    assert_eq!(data.len(), n * n);
    let nb = n / kappa;
    let npes = nb * nb;
    let bsz = kappa * kappa;
    assert_eq!(m.n_pes(), npes, "backend must expose (n/kappa)^2 PEs");
    load_blocks(m, data, n, kappa, 0);
    for pe in 0..npes {
        let need = frame_words(npes, bsz);
        if let Some(mem) = m.pe_mem_mut(pe) {
            mem.resize(need, 0);
        }
    }
    let region = Region {
        base: 0,
        s: npes,
        row0: 0,
        col0: 0,
        m: n,
        space: 0,
    };
    let root = Call {
        fun: Fun::A,
        x: region,
        u: region,
        v: region,
        w: region,
        group: 0,
        frame: usize::MAX,
        alias: [true, true, true],
        src: [(0, usize::MAX); 3],
    };
    let mut eng = Engine {
        m,
        kappa,
        bsz,
        f,
        sigma,
        order,
    };
    eng.run_level(vec![root]);
}

/// Run the full N-GEP computation `𝒜(x, x, x, x)` on M((n/κ)²), the
/// matrix distributed in `κ × κ` Morton-ordered blocks. Returns the
/// machine (for cost evaluation) and the transformed matrix.
pub fn ngep_program<F: Fn(f64, f64, f64, f64) -> f64 + Copy>(
    data: &[f64],
    n: usize,
    kappa: usize,
    f: F,
    sigma: UpdateSet,
    order: DOrder,
) -> (NoMachine, Vec<f64>) {
    let nb = n / kappa;
    let mut m = NoMachine::new(nb * nb);
    ngep_program_on(&mut m, data, n, kappa, f, sigma, order);
    let out = store_blocks(&m, n, kappa);
    (m, out)
}

/// Run `C += A·B` as a pure `𝒟` computation on disjoint distributed
/// matrices (the root operand frame is pre-loaded with `A`, `B`, `A`).
pub fn ngep_matmul(
    a: &[f64],
    b: &[f64],
    n: usize,
    kappa: usize,
    order: DOrder,
) -> (NoMachine, Vec<f64>) {
    assert!(n.is_power_of_two() && kappa.is_power_of_two() && kappa <= n);
    let nb = n / kappa;
    let npes = nb * nb;
    let bsz = kappa * kappa;
    let mut m = NoMachine::new(npes);
    let zeros = vec![0.0f64; n * n];
    load_blocks(&mut m, &zeros, n, kappa, 0); // C = 0
    load_blocks(&mut m, a, n, kappa, bsz); // root frame slot U
    load_blocks(&mut m, b, n, kappa, 2 * bsz); // slot V
    load_blocks(&mut m, a, n, kappa, 3 * bsz); // slot W (unused by f)
    for pe in 0..npes {
        let need = frame_words(npes, bsz) + 3 * bsz;
        m.mem_mut(pe).resize(need, 0);
    }
    let mk = |space: u8| Region {
        base: 0,
        s: npes,
        row0: 0,
        col0: 0,
        m: n,
        space,
    };
    let root = Call {
        fun: Fun::D,
        x: mk(0),
        u: mk(1),
        v: mk(2),
        w: mk(3),
        group: 0,
        frame: bsz,
        alias: [false, false, false],
        src: [(0, usize::MAX); 3],
    };
    let mut eng = Engine {
        m: &mut m,
        kappa,
        bsz,
        f: mm_update,
        sigma: UpdateSet::All,
        order,
    };
    eng.run_level(vec![root]);
    let out = store_blocks(&m, n, kappa);
    (m, out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gep::tests::Shape;
    use crate::gep::{
        fw_instance, fw_update, ge_update, gep_reference, gep_split_cols, gep_split_rows,
        gep_tiles, GepF,
    };

    /// The base case as it was before [`dispatch::leaf_update`]: every operand
    /// re-read from memory for every `(k, i, j)`.
    fn leaf_reference(
        mem: &mut [u64],
        kappa: usize,
        [uo, vo, wo]: [usize; 3],
        (row0, col0, k0): (usize, usize, usize),
        f: GepF,
        sigma: UpdateSet,
    ) -> u64 {
        let mut ops = 0u64;
        for k in 0..kappa {
            for i in 0..kappa {
                for j in 0..kappa {
                    if sigma.contains(row0 + i, col0 + j, k0 + k) {
                        let xv = f64::from_bits(mem[i * kappa + j]);
                        let uv = f64::from_bits(mem[uo + i * kappa + k]);
                        let vv = f64::from_bits(mem[vo + k * kappa + j]);
                        let wv = f64::from_bits(mem[wo + k * kappa + k]);
                        mem[i * kappa + j] = f(xv, uv, vv, wv).to_bits();
                        ops += 1;
                    }
                }
            }
        }
        ops
    }

    /// What [`dispatch::leaf_update`] runs, at the build's own width:
    /// [`tiled_operands`] split into an `R × C` [`gep_tiles`] or the
    /// pivot split around it, else [`leaf_rows`] with or without `LANES`.
    fn leaf<const LANES: bool, const R: usize, const C: usize>(
        mem: &mut [u64],
        kappa: usize,
        offsets: [usize; 3],
        origin: (usize, usize, usize),
        f: GepF,
        sigma: UpdateSet,
    ) -> u64 {
        let mut q = vec![0; 2 * kappa * kappa];
        match tiled_operands(mem, kappa, offsets, origin, sigma) {
            Some(Tiled::Disjoint(x, uvw)) => {
                gep_tiles::<u64, GepF, R, C>((x, kappa), uvw, (kappa, kappa, kappa), f)
            }
            Some(Tiled::PivotRows(x, uw)) => {
                gep_split_rows(Shape::<R, C>, (x, kappa), uw, (kappa, kappa), &mut q, f)
            }
            Some(Tiled::PivotCols(x, vw)) => {
                gep_split_cols(Shape::<R, C>, (x, kappa), vw, kappa, &mut q, f)
            }
            None => return leaf_rows::<GepF, LANES>(mem, kappa, offsets, origin, f, sigma),
        }
        (kappa * kappa * kappa) as u64
    }

    type Leaf = fn(&mut [u64], usize, [usize; 3], (usize, usize, usize), GepF, UpdateSet) -> u64;
    const BASELINE: (usize, usize) = dispatch::Arm::Baseline.tile();
    const AVX2: (usize, usize) = dispatch::Arm::Avx2.tile();
    const AVX512: (usize, usize) = dispatch::Arm::Avx512.tile();
    /// Each arm's form of the leaf.
    const LEAVES: [(&str, Leaf); 3] = [
        ("baseline", leaf::<false, { BASELINE.0 }, { BASELINE.1 }>),
        ("avx2", leaf::<false, { AVX2.0 }, { AVX2.1 }>),
        ("avx512", leaf::<true, { AVX512.0 }, { AVX512.1 }>),
    ];

    /// Every arm's form of [`dispatch::leaf_update`] against the plain
    /// triple loop, bit for bit, at the build's own width, on every alias
    /// pattern, both update sets and origins that put the `KBelowMin`
    /// cut inside, at the edges of and outside the block, with an
    /// order-sensitive `f` and with Floyd–Warshall's: each form is
    /// checked on every host, whatever vector width the host has.
    /// [`gep_tiles`] must run for exactly the blocks whose operands are
    /// all disjoint from `x` and whose every triplet is in `Σ_f`, at `κ`
    /// below, at and above each tile's sides and at `κ` no side divides;
    /// the pivot split for exactly the blocks whose every triplet is in
    /// `Σ_f`, with one of `u`, `v` aliased to `x` and `w` disjoint.
    #[test]
    fn leaf_update_matches_the_triple_loop_on_every_alias_pattern() {
        // Order-sensitive in all four operands.
        fn mix(x: f64, u: f64, v: f64, w: f64) -> f64 {
            x * 0.75 + u * v * 0.125 - w * 0.0625
        }
        const KAPPAS: [usize; 9] = [1, 2, 3, 4, 5, 8, 16, 19, 32];
        let mut state = 17u64;
        let mut cases = 0;
        let mut tiled_cases = 0;
        let mut split_cases = 0;
        for (shape, leaf) in LEAVES {
            for kappa in KAPPAS {
                let bsz = kappa * kappa;
                // `k0` relative to the block's rows and columns: far below
                // (everything admitted), overlapping with the cut at the
                // first column, inside, at the last column, and past the
                // block (nothing admitted).
                let origins = [
                    (4 * kappa, 4 * kappa, 0),
                    (kappa, kappa, kappa - 1),
                    (kappa, kappa, kappa),
                    (kappa, kappa, kappa + kappa / 2),
                    (kappa + kappa / 2, kappa, kappa),
                    (kappa, kappa + kappa / 2, kappa),
                    (kappa, kappa, 2 * kappa - 1),
                    (kappa, kappa, 2 * kappa),
                    (0, 0, 4 * kappa),
                ];
                for aliases in 0..8usize {
                    let offsets: [usize; 3] = std::array::from_fn(|slot| {
                        if aliases >> slot & 1 == 1 {
                            0
                        } else {
                            (slot + 1) * bsz
                        }
                    });
                    for (name, f) in [("mix", mix as GepF), ("fw", fw_update)] {
                        for sigma in [UpdateSet::All, UpdateSet::KBelowMin] {
                            for origin in origins {
                                let mut want: Vec<u64> = (0..4 * bsz)
                                    .map(|_| {
                                        state = state
                                            .wrapping_mul(6364136223846793005)
                                            .wrapping_add(1442695040888963407);
                                        (0.5 + (state >> 11) as f64 / (1u64 << 53) as f64).to_bits()
                                    })
                                    .collect();
                                let mut got = want.clone();
                                let want_ops =
                                    leaf_reference(&mut want, kappa, offsets, origin, f, sigma);
                                TILED_LEAVES.with(|c| c.set(0));
                                SPLIT_LEAVES.with(|c| c.set(0));
                                let got_ops = leaf(&mut got, kappa, offsets, origin, f, sigma);
                                let case = format!(
                                    "{shape}, {name} κ={kappa} offsets={offsets:?} {sigma:?} \
                                     {origin:?}"
                                );
                                assert_eq!(got_ops, want_ops, "ops: {case}");
                                assert_eq!(got, want, "memory: {case}");
                                // The reference applies every triplet exactly
                                // when all of them are in `Σ_f`.
                                let exact =
                                    aliases == 0 && want_ops == (kappa * kappa * kappa) as u64;
                                let tiled = TILED_LEAVES.with(|c| c.get());
                                assert_eq!(tiled, u64::from(exact), "tiled: {case}");
                                tiled_cases += tiled;
                                // The pivot split takes exactly the fully
                                // admitted blocks with `u` or `v` aliased
                                // and `w` disjoint.
                                let one_aliased = aliases == 0b001 || aliases == 0b010;
                                let full = want_ops == (kappa * kappa * kappa) as u64;
                                let split = SPLIT_LEAVES.with(|c| c.get());
                                assert_eq!(split, u64::from(one_aliased && full), "split: {case}");
                                split_cases += split;
                                cases += 1;
                            }
                        }
                    }
                }
            }
        }
        assert_eq!(cases, 3 * 9 * 8 * 2 * 2 * 9);
        // Per form, update and κ: `All` at every origin and `KBelowMin`
        // far below the block; at κ = 1 also `KBelowMin` at
        // `(κ, κ, κ − 1)`.
        assert_eq!(tiled_cases, 3 * 2 * (9 * 10 + 1));
        // The same, for each of the two aliased patterns.
        assert_eq!(split_cases, 2 * 3 * 2 * (9 * 10 + 1));
    }

    #[test]
    fn floyd_warshall_matches_reference_for_both_orders() {
        for n in [8usize, 16] {
            for kappa in [2usize, 4] {
                let d = fw_instance(n, 5);
                let mut want = d.clone();
                gep_reference(&mut want, n, fw_update, UpdateSet::All);
                for order in [DOrder::IGep, DOrder::DStar] {
                    let (_, got) = ngep_program(&d, n, kappa, fw_update, UpdateSet::All, order);
                    assert_eq!(got, want, "n={n} kappa={kappa} {order:?}");
                }
            }
        }
    }

    #[test]
    fn gaussian_elimination_matches_reference() {
        let n = 16;
        let mut x = 3u64;
        let mut a: Vec<f64> = (0..n * n)
            .map(|_| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                ((x >> 40) as f64) / 2048.0 + 0.25
            })
            .collect();
        for i in 0..n {
            a[i * n + i] += 2.0 * n as f64;
        }
        let mut want = a.clone();
        gep_reference(&mut want, n, ge_update, UpdateSet::KBelowMin);
        let (_, got) = ngep_program(&a, n, 4, ge_update, UpdateSet::KBelowMin, DOrder::DStar);
        for t in 0..n * n {
            assert!(
                (got[t] - want[t]).abs() < 1e-9 * (1.0 + want[t].abs()),
                "t={t}: {} vs {}",
                got[t],
                want[t]
            );
        }
    }

    #[test]
    fn matmul_matches_reference() {
        let n = 16;
        let mut x = 11u64;
        let mut rnd = || {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((x >> 40) as f64) / 65536.0
        };
        let a: Vec<f64> = (0..n * n).map(|_| rnd()).collect();
        let b: Vec<f64> = (0..n * n).map(|_| rnd()).collect();
        let mut want = vec![0.0; n * n];
        for i in 0..n {
            for k in 0..n {
                for j in 0..n {
                    want[i * n + j] += a[i * n + k] * b[k * n + j];
                }
            }
        }
        for order in [DOrder::IGep, DOrder::DStar] {
            let (_, got) = ngep_matmul(&a, &b, n, 4, order);
            for t in 0..n * n {
                assert!((got[t] - want[t]).abs() < 1e-9, "{order:?} t={t}");
            }
        }
    }

    /// Table I's point: with 𝒟, the owners of `U11`/`U21` (round 1) serve
    /// two consumers each, doubling their per-superstep load; 𝒟* spreads
    /// every `U`/`V` quadrant to exactly one consumer per round. Total
    /// words moved are equal — the *communication complexity* (a max per
    /// processor) is what drops.
    #[test]
    fn dstar_communicates_less_than_d() {
        let n = 32;
        let a: Vec<f64> = (0..n * n).map(|t| (t % 13) as f64).collect();
        let b: Vec<f64> = (0..n * n).map(|t| (t % 7) as f64).collect();
        let (m_d, out_d) = ngep_matmul(&a, &b, n, 4, DOrder::IGep);
        let (m_ds, out_ds) = ngep_matmul(&a, &b, n, 4, DOrder::DStar);
        // Identical results: the computation is commutative.
        assert_eq!(out_d, out_ds);
        // Same volume, lower max load under D*.
        assert_eq!(m_d.total_words(), m_ds.total_words());
        let p = 64; // one processor per PE
        let h_d = m_d.communication_complexity(p, 4);
        let h_ds = m_ds.communication_complexity(p, 4);
        // U/V duplication is gone; the W-diagonal duplication remains in
        // both orders (the paper keeps it too), so the gain is a strict
        // but moderate constant factor.
        assert!(
            h_ds < h_d,
            "D* should lower the h-relation: {h_ds} vs {h_d}"
        );
    }

    /// Theorem 6 shape: communication ≈ n²/(√p·B) on M(p,B).
    #[test]
    fn theorem6_communication_shape() {
        let n = 32;
        let d = fw_instance(n, 9);
        let (m, _) = ngep_program(&d, n, 4, fw_update, UpdateSet::All, DOrder::DStar);
        for (p, b) in [(4usize, 4usize), (16, 4), (16, 16)] {
            let comm = m.communication_complexity(p, b) as f64;
            let predicted = (n * n) as f64 / ((p as f64).sqrt() * b as f64);
            assert!(
                comm >= 0.2 * predicted && comm <= 20.0 * predicted,
                "p={p} B={b}: comm {comm} vs Θ({predicted})"
            );
        }
    }
}
