//! Kernel registry for the serving layer: every real-machine kernel the
//! service can run, keyed by a [`Kernel`] tag and **defined once** as a
//! row of the descriptor table `KERNELS` — the shape of one figure of
//! the paper: the algorithm (a seeded real run and a recorded MO
//! program), its `Space Bound:` annotation (the analytic footprint
//! `s(τ)` in words that a size-`n` job declares to the scheduler and the
//! admission controller) and the work term of its theorem's
//! `Q(n; C, B)`. Everything else in the workspace — `mo-serve`,
//! `mo_certify`, `obs_report`, `bench_rt`, `serve_load`, the benchmark
//! and the tier tests — reads the table through [`Kernel`]'s methods and
//! the free functions below; adding a kernel is one enum variant and one
//! row.
//!
//! The footprint is the currency of the whole system: the recorded MO
//! algorithms declare it per fork (and `mo_core::verify` audits it);
//! the real pool serializes forks below the L1 cutoff with it; and
//! `mo-serve` admits or queues whole *jobs* with it. The functions here
//! count exactly the words a job's working set touches (inputs, outputs
//! and scratch), mirroring the per-algorithm accounting documented on
//! each kernel (e.g. [`crate::spmdv::spmdv_space`]). Job sizes are
//! stated in the same currency: [`Kernel::size_within`].
//!
//! Jobs execute against deterministic seed-generated inputs and return
//! a checksum, so callers (the server's batch path, the load generator,
//! tests) can verify that batching and concurrency never change
//! results. [`run_in`] takes a [`Ctx`], not a pool: a server worker
//! enters the shared pool once and runs a whole batch under it, keeping
//! the pool's fork statistics cumulative.

use crate::dispatch;
use mo_core::rt::{Ctx, Jobs, SbPool};
use mo_core::{Program, Recorder};
use no_framework::dispatch::Arm;

/// Average nonzeros per row of the generated SpM-DV instances.
const SPMDV_DEG: usize = 8;

/// The kernels the serving layer knows how to run. The tag is wire
/// format (scenario files, metric labels, event codes, certificates);
/// what a kernel *is* lives in its `KERNELS` row.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Kernel {
    /// Out-of-place `n × n` matrix transposition.
    Transpose,
    /// Complex FFT of length `n` (rounded up to a power of two).
    Fft,
    /// `n × n` matrix multiplication (I-GEP's matmul instance).
    Matmul,
    /// Sort of `n` 64-bit keys.
    Sort,
    /// Sparse matrix × dense vector, `n` rows of ~8 nonzeros (`SPMDV_DEG`).
    SpmDv,
    /// Exclusive prefix sum of `n` 64-bit words.
    Scan,
}

/// One kernel, defined once. The fields are the parts of the paper's
/// figure for an algorithm: the algorithm itself twice over (`run`, the
/// served real-machine kernel on seeded inputs; `record`, its MO program
/// on the recorder), its `Space Bound:` annotation (`footprint`) and its
/// theorem (`q_scale · (q_work / q_i + words / B + B + 1)`, see
/// [`analytic_transfers`]); the rest is registry metadata the certifier
/// audits against the recording.
struct KernelDef {
    /// Stable lower-case name (scenario files, metrics labels).
    name: &'static str,
    /// See [`Kernel::grain_words`].
    grain_words: usize,
    /// See [`Kernel::is_data_dependent`].
    data_dependent: bool,
    /// See [`footprint_words`].
    footprint: fn(usize) -> usize,
    /// Deliberately generous constant of the transfer bound.
    q_scale: f64,
    /// Work term of the sequential cache complexity `Q(n; C, B)` as a
    /// function of `(n, C, B)`, without the compulsory `words / B`.
    q_work: fn(f64, f64, f64) -> f64,
    /// The served kernel on inputs drawn from the generator, inside an
    /// existing pool context; returns the output checksum.
    run: fn(&Ctx<'_>, usize, &mut Gen) -> u64,
    /// The recorded MO program on values drawn from the generator.
    record: fn(usize, &mut Gen) -> Program,
    /// See [`Kernel::effective_n`].
    effective_n: fn(usize) -> usize,
    /// See [`Kernel::recorded_n`].
    recorded_n: usize,
}

/// The descriptor table, indexed by `Kernel as usize`.
static KERNELS: [KernelDef; Kernel::ALL.len()] = [
    KernelDef {
        name: "transpose",
        // 8×8 tiles, two matrices, plus alignment padding slop.
        grain_words: 512,
        data_dependent: false,
        // a (n²) + out (n²).
        footprint: |n| n.saturating_mul(n).saturating_mul(2),
        // Q(n²; C, B) = O(n²/B): scan-bound (n is the matrix side).
        q_scale: 8.0,
        q_work: |n, _, b| n * n / b,
        run: |ctx, n, g| {
            let a = g.f64s(n * n);
            let mut out = vec![0.0f64; n * n];
            super::transpose(ctx, &a, &mut out, n);
            checksum(&out, f64::to_bits)
        },
        record: |n, g| crate::transpose::transpose_program(&g.words(n * n), n).program,
        effective_n: |n| n,
        recorded_n: 32,
    },
    KernelDef {
        name: "fft",
        // One `FFT_LEAF` transform: its samples and its pass tables.
        grain_words: 4096,
        data_dependent: false,
        // 2 words per complex sample, length rounded up: above
        // `FFT_LEAF` x + scratch (4n); at or below it x (2n) and the
        // pass tables the transform reads (2n − 2). The tables
        // themselves (2 046 words of passes, 128 per level above the
        // leaf) are process-wide and read-only, shared by the jobs of
        // a batch like code, and not charged per job above the leaf.
        footprint: |n| pow2_words(n, 4),
        // Q = O((n/B)·log_C n) with at least one pass.
        q_scale: 16.0,
        q_work: |n, c, b| {
            let m = (n as usize).next_power_of_two() as f64;
            (m / b) * passes(m, c)
        },
        run: |ctx, n, g| {
            let mut x = g.complex(n.next_power_of_two());
            super::fft(Some(ctx), &mut x, &mut Vec::new());
            checksum(&x, |c| c.0.to_bits() ^ c.1.to_bits())
        },
        record: |n, g| crate::fft::fft_program(&g.complex(n.next_power_of_two())).program,
        effective_n: |n| n,
        recorded_n: 1 << 10,
    },
    KernelDef {
        name: "matmul",
        // 8×8×8 GEP base case touches three 64-word tiles.
        grain_words: 512,
        data_dependent: false,
        // a + b + c.
        footprint: |n| n.saturating_mul(n).saturating_mul(3),
        // Q = O(n³/(B·√C)) beside the compulsory tile reads.
        q_scale: 16.0,
        q_work: |n, c, b| n * n * n / (b * c.sqrt()),
        run: |ctx, n, g| {
            let (a, b) = (g.f64s(n * n), g.f64s(n * n));
            let mut c = vec![0.0f64; n * n];
            super::matmul(ctx, &mut c, &a, &b, n);
            checksum(&c, f64::to_bits)
        },
        record: |n, g| {
            let (a, b) = (g.f64s(n * n), g.f64s(n * n));
            crate::gep::matmul_program(&a, &b, n).program
        },
        effective_n: |n| n,
        recorded_n: 32,
    },
    KernelDef {
        name: "sort",
        // SPMS leaves sort the buckets of a top-digit distribution.
        grain_words: 8192,
        // The sample sort's buckets follow the key values: it records
        // with measured space bounds (`Recorder::record_measured`).
        data_dependent: true,
        // keys + ping-pong scratch + one block's distribution tables or
        // one leaf's radix histograms per slot (2n + 528 words a slot).
        footprint: super::spms::spms_working_set_words,
        // Same recurrence shape as FFT; sample sort's constant is larger.
        q_scale: 48.0,
        q_work: |n, c, b| (n / b) * passes(n, c),
        run: |ctx, n, g| {
            let mut data = g.words(n);
            super::sort(ctx, &mut data, &mut Vec::new());
            checksum(&data, |w| w)
        },
        record: |n, g| crate::sort::sort_program(&g.words(n)).program,
        effective_n: |n| n,
        recorded_n: 1 << 11,
    },
    KernelDef {
        name: "spmdv",
        // Separator-tree leaves own small row blocks.
        grain_words: 4096,
        data_dependent: false,
        // row_ptr (n+1) + cols (deg·n) + vals (deg·n) + x (n) + y (n).
        footprint: |n| n.saturating_mul(3 + 2 * SPMDV_DEG).saturating_add(1),
        // Q = O(nnz/B + n/√C) for n^(1/2)-edge-separator matrices; the
        // generator averages SPMDV_DEG nonzeros per row (the recorded
        // mesh has at most 5).
        q_scale: 16.0,
        q_work: |n, c, b| SPMDV_DEG as f64 * n / b + n / c.sqrt(),
        run: run_spmdv,
        record: record_spmdv,
        // The recorded mesh rounds `n` to a square.
        effective_n: |n| mesh_side(n) * mesh_side(n),
        recorded_n: 256, // 16×16 mesh
    },
    KernelDef {
        name: "scan",
        // Scan never forks (pure CGC); no leaf grain to bound.
        grain_words: usize::MAX,
        data_dependent: false,
        // In-place tree scan over the power-of-two padded array, plus
        // the per-block totals of the real-machine kernel.
        footprint: |n| pow2_words(n, 2),
        // Scan-bound like transpose: two tree sweeps over the array.
        q_scale: 8.0,
        q_work: |n, _, b| (n as usize).next_power_of_two() as f64 / b,
        run: |ctx, n, g| {
            let mut data = g.words(n);
            super::prefix_sum(ctx, &mut data);
            checksum(&data, |w| w)
        },
        record: |n, g| {
            let data = g.words(n.next_power_of_two());
            Recorder::record(2 * data.len(), |rec| {
                let a = rec.alloc_init(&data);
                crate::scan::mo_prefix_sum(rec, a, data.len());
            })
        },
        effective_n: |n| n,
        recorded_n: 1 << 11,
    },
];

impl Kernel {
    /// Every registered kernel, in `KERNELS` order.
    pub const ALL: [Kernel; 6] = [
        Kernel::Transpose,
        Kernel::Fft,
        Kernel::Matmul,
        Kernel::Sort,
        Kernel::SpmDv,
        Kernel::Scan,
    ];

    fn def(self) -> &'static KernelDef {
        &KERNELS[self as usize]
    }

    /// Stable lower-case name (scenario files, metrics labels).
    pub fn name(self) -> &'static str {
        self.def().name
    }

    /// Parse a [`name`](Self::name), case-insensitively.
    pub fn parse(s: &str) -> Option<Kernel> {
        Kernel::ALL
            .into_iter()
            .find(|k| k.name().eq_ignore_ascii_case(s.trim()))
    }

    /// Index of this kernel inside [`Kernel::ALL`] (the event and
    /// metrics code of the kernel).
    pub fn index(self) -> usize {
        self as usize
    }

    /// The kernel whose [`index`](Self::index) is `index`.
    pub fn from_index(index: usize) -> Option<Kernel> {
        Kernel::ALL.get(index).copied()
    }

    /// Whether the kernel's recorded MO program is *declared*
    /// data-dependent: its task tree or address trace varies with the
    /// input values, so it records with measured space bounds
    /// ([`mo_core::Recorder::record_measured`]) and can never hold an
    /// `oblivious` certificate. The certifier's lint pass checks this
    /// marker against the classification its recordings certify to.
    pub fn is_data_dependent(self) -> bool {
        self.def().data_dependent
    }

    /// Declared serial-grain hint in words: an upper bound on the
    /// working set of any *leaf* task (a forked task that forks no
    /// further) in the kernel's recorded program. The recursive
    /// algorithms bottom out at a constant-size base case, so leaves
    /// must stay below this; the certifier's lint pass flags recorded
    /// leaves that exceed it (a missing or mis-sized base-case grain).
    pub fn grain_words(self) -> usize {
        self.def().grain_words
    }

    /// The size `mo_certify` records the kernel at, pinned by
    /// `certify/certificates.json`: large enough that the recorded DAG
    /// exercises every hint the kernel uses (forks past the base case,
    /// several CGC levels), small enough that recording K runs of every
    /// kernel stays in CI-smoke territory.
    pub fn recorded_n(self) -> usize {
        self.def().recorded_n
    }

    /// The problem size the analytic footprint is parameterized on for
    /// a recording made by [`record_kernel`] at size `n` — `n` itself
    /// for every kernel except SpM-DV, whose mesh rounds `n` to a square.
    pub fn effective_n(self, n: usize) -> usize {
        (self.def().effective_n)(n)
    }

    /// The largest job size whose declared footprint fits in `words`
    /// (0 when not even `n = 1` fits): sizes stated in the system's own
    /// currency, the space bound. Bisection on the monotone footprint.
    pub fn size_within(self, words: usize) -> usize {
        let fits = |n| footprint_words(self, n) <= words;
        let mut hi = 1;
        while fits(hi) {
            hi *= 2;
        }
        let mut lo = hi / 2;
        while hi - lo > 1 {
            let mid = lo + (hi - lo) / 2;
            if fits(mid) {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        lo
    }
}

impl std::fmt::Display for Kernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Parse one `kernel  size  weight` line of a scenario file; `#` starts
/// a comment, and a blank or comment-only line is `Ok(None)`.
pub fn parse_scenario_line(line: &str) -> Result<Option<(Kernel, usize, u32)>, &'static str> {
    let mut fields = line.split('#').next().unwrap_or("").split_whitespace();
    let Some(name) = fields.next() else {
        return Ok(None);
    };
    let kernel = Kernel::parse(name).ok_or("unknown kernel")?;
    let n = fields
        .next()
        .and_then(|s| s.parse().ok())
        .ok_or("bad size")?;
    let weight = fields
        .next()
        .and_then(|s| s.parse().ok())
        .ok_or("bad weight")?;
    if fields.next().is_some() {
        return Err("trailing fields");
    }
    Ok(Some((kernel, n, weight)))
}

/// Analytic footprint in words of a size-`n` job: every word of input,
/// output and scratch the kernel touches. This is the space bound the
/// job declares to admission control, so it saturates at `usize::MAX`
/// rather than wrap: a size from outside that overflows the formula is
/// too large for every level, never small.
pub fn footprint_words(kernel: Kernel, n: usize) -> usize {
    (kernel.def().footprint)(n)
}

/// Cache-line size in words (64-byte lines of `u64` words) assumed by
/// [`analytic_transfers`] when the caller has no measured block size.
pub const BLOCK_WORDS: usize = 8;

/// Analytic per-cache transfer bound of one size-`n` job at a level of
/// `caches` caches of `capacity_words` words with `block_words`-word
/// lines: the paper's sequential cache complexity `Q(n; C, B)`
/// (Theorems 1–4 shapes) distributed over the `q_i = caches` caches of
/// the level (the theorems bound the per-cache maximum by the
/// sequential complexity divided by `q_i`, up to constants), plus the
/// compulsory `words / B` every cache pays at least once, where `words`
/// is the working set of the run being bounded — [`footprint_words`]
/// for a served job, the recording's declared root space for a replayed
/// MO program (the recorded MO-FFT keeps 30 words per sample live, not
/// the served kernel's 4).
///
/// The constants are calibrated against the LRU replay so measured
/// ratios sit below 1 with headroom, and are deliberately generous:
/// `mo-serve` multiplies this by the batch size behind its
/// `moserve_witness_divergence` gauges and `obs_report` gates measured
/// transfers against it — the point is the shape and catching
/// order-of-magnitude divergence, not tight constants.
pub fn analytic_transfers(
    kernel: Kernel,
    n: usize,
    words: usize,
    capacity_words: usize,
    block_words: usize,
    caches: usize,
) -> f64 {
    let def = kernel.def();
    let b = block_words.max(1) as f64;
    let work = (def.q_work)(n.max(2) as f64, capacity_words.max(2) as f64, b);
    def.q_scale * (work / caches.max(1) as f64 + words as f64 / b + b + 1.0)
}

/// `max(1, log_C n)`: the passes a divide-and-conquer over `n` words
/// makes through a cache of `c` words.
fn passes(n: f64, c: f64) -> f64 {
    (n.log2() / c.log2()).max(1.0)
}

/// `per` words for each slot of `n` rounded up to a power of two,
/// saturating.
fn pow2_words(n: usize, per: usize) -> usize {
    n.checked_next_power_of_two()
        .map_or(usize::MAX, |p| p.saturating_mul(per))
}

/// Side of the square mesh the recorded SpM-DV is built on at size `n`.
fn mesh_side(n: usize) -> usize {
    (n as f64).sqrt().round().max(2.0) as usize
}

/// SplitMix64's increment: its state only ever adds it, so output `i`
/// of a stream from state `s` is `mix(s + (i + 1)·γ)`.
const GAMMA: u64 = 0x9e37_79b9_7f4a_7c15;

/// SplitMix64's output function of a state.
#[inline(always)]
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The unit `f64` in `[0, 1)` of a stream word: its top 53 bits, an
/// integer every instruction set converts exactly, over 2⁵³.
#[inline(always)]
fn unit(z: u64) -> f64 {
    (z >> 11) as f64 / (1u64 << 53) as f64
}

/// A value a job's input stream is drawn as: a word, a unit `f64`, or a
/// complex sample of two unit `f64`s (real part first).
pub trait Draw: Copy + Default {
    /// The stream words one value takes: 1 or 2.
    const WORDS: usize;
    /// The value of the stream words `z` (`WORDS` of them, in order).
    fn draw(z: &[u64]) -> Self;
}

impl Draw for u64 {
    const WORDS: usize = 1;
    #[inline(always)]
    fn draw(z: &[u64]) -> u64 {
        z[0]
    }
}

impl Draw for f64 {
    const WORDS: usize = 1;
    #[inline(always)]
    fn draw(z: &[u64]) -> f64 {
        unit(z[0])
    }
}

impl Draw for super::C64 {
    const WORDS: usize = 2;
    #[inline(always)]
    fn draw(z: &[u64]) -> super::C64 {
        (unit(z[0]), unit(z[1]))
    }
}

/// Fill `out` from the stream at `state`, one [`Gen::next`] after
/// another; returns the state after the last word. Always inlined, so
/// that [`dispatch::fill`](crate::dispatch::fill)'s baseline arm is this
/// loop.
#[inline(always)]
pub(crate) fn fill_stream<T: Draw>(state: u64, out: &mut [T]) -> u64 {
    let mut g = Gen(state);
    let mut z = [0u64; 2];
    for o in out {
        z[..T::WORDS].fill_with(|| g.next());
        *o = T::draw(&z[..T::WORDS]);
    }
    g.0
}

/// [`fill_stream`] in counter form: eight words at a time, word `i` of a
/// chunk from state `s` being `mix(s + (i + 1)·γ)`, with no chain from
/// one word to the next; the tail runs the stream. The same values and
/// the same returned state, `state + len·WORDS·γ`. Always inlined, so
/// that each vector arm of [`dispatch::fill`](crate::dispatch::fill)
/// compiles it for its instruction set.
#[inline(always)]
pub(crate) fn fill_lanes<T: Draw>(state: u64, out: &mut [T]) -> u64 {
    const LANES: usize = 8;
    let steps: [u64; LANES] = std::array::from_fn(|i| GAMMA.wrapping_mul(i as u64 + 1));
    let mut chunks = out.chunks_exact_mut(LANES / T::WORDS);
    let mut s = state;
    for chunk in &mut chunks {
        let z: [u64; LANES] = std::array::from_fn(|i| mix(s.wrapping_add(steps[i])));
        for (o, z) in chunk.iter_mut().zip(z.chunks_exact(T::WORDS)) {
            *o = T::draw(z);
        }
        s = s.wrapping_add(steps[LANES - 1]);
    }
    fill_stream(s, chunks.into_remainder())
}

/// A job's input stream: SplitMix64, so inputs are cheap and
/// deterministic.
pub(super) struct Gen(u64);

impl Gen {
    /// The input stream of job `(kernel, seed)`, shared by the served
    /// run and the recording.
    pub(super) fn for_job(kernel: Kernel, seed: u64) -> Gen {
        Gen(seed ^ (kernel.index() as u64).wrapping_mul(0xa076_1d64_78bd_642f))
    }

    pub(super) fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(GAMMA);
        mix(self.0)
    }

    fn f64_unit(&mut self) -> f64 {
        unit(self.next())
    }

    /// The next `len` values of the stream, filled at the widest arm of
    /// [`dispatch::fill`](crate::dispatch::fill).
    fn fill<T: Draw>(&mut self, len: usize) -> Vec<T> {
        let mut out = vec![T::default(); len];
        self.0 = dispatch::fill(Arm::widest(), self.0, &mut out);
        out
    }

    fn words(&mut self, len: usize) -> Vec<u64> {
        self.fill(len)
    }

    fn f64s(&mut self, len: usize) -> Vec<f64> {
        self.fill(len)
    }

    pub(super) fn complex(&mut self, len: usize) -> Vec<super::C64> {
        self.fill(len)
    }
}

/// The output checksum of a job: the words `word(x)` of `xs` folded as
/// `acc·31 + w`, wrapping — `Σ wᵢ·31^(n−1−i) mod 2⁶⁴`. Eight lanes fold
/// every eighth word each at step 31⁸ and join by powers of 31, exact in
/// wrapping arithmetic, so the eight chains give the one fold's value;
/// the tail folds on from the join. The crate's only fold by 31: CI
/// fails on the literal form of one anywhere under its src.
fn checksum<T: Copy>(xs: &[T], word: impl Fn(T) -> u64) -> u64 {
    const LANES: usize = 8;
    const BASE: u64 = 31;
    let step = BASE.wrapping_pow(LANES as u32);
    let mut lanes = [0u64; LANES];
    let mut chunks = xs.chunks_exact(LANES);
    for chunk in &mut chunks {
        for (lane, &x) in lanes.iter_mut().zip(chunk) {
            *lane = lane.wrapping_mul(step).wrapping_add(word(x));
        }
    }
    let fold = |acc: u64, w: u64| acc.wrapping_mul(BASE).wrapping_add(w);
    let joined = lanes.into_iter().fold(0, fold);
    chunks
        .remainder()
        .iter()
        .fold(joined, |acc, &x| fold(acc, word(x)))
}

/// Served SpM-DV: a seeded CSR instance of `n` rows with 1 to
/// `2·SPMDV_DEG − 1` nonzeros each.
fn run_spmdv(ctx: &Ctx<'_>, n: usize, g: &mut Gen) -> u64 {
    let mut row_ptr = Vec::with_capacity(n + 1);
    row_ptr.push(0usize);
    let mut cols = Vec::new();
    let mut vals = Vec::new();
    for _ in 0..n {
        let deg = 1 + (g.next() as usize) % (2 * SPMDV_DEG - 1);
        for _ in 0..deg {
            cols.push((g.next() as usize) % n);
            vals.push(g.f64_unit());
        }
        row_ptr.push(cols.len());
    }
    let x = g.f64s(n);
    let mut y = vec![0.0f64; n];
    super::spmdv(ctx, &row_ptr, &cols, &vals, &x, &mut y);
    checksum(&y, f64::to_bits)
}

/// Recorded SpM-DV: a fixed mesh sparsity pattern with seeded nonzero
/// and vector values.
fn record_spmdv(n: usize, g: &mut Gen) -> Program {
    let mut m = crate::separator::mesh_matrix(mesh_side(n));
    for row in &mut m.rows {
        for (_, v) in row.iter_mut() {
            *v = g.f64_unit();
        }
    }
    let x = g.f64s(m.n);
    crate::spmdv::spmdv_program(&m, &x).program
}

/// Run one job of `kernel` at size `n` with seed-generated inputs inside
/// an existing pool context; returns the output checksum. Deterministic
/// in `(kernel, n, seed)` regardless of batching or thread schedule.
pub fn run_in(ctx: &Ctx<'_>, kernel: Kernel, n: usize, seed: u64) -> u64 {
    (kernel.def().run)(ctx, n.max(1), &mut Gen::for_job(kernel, seed))
}

/// Convenience single-job entry: enters `pool` and runs the job.
pub fn run_kernel(pool: &SbPool, kernel: Kernel, n: usize, seed: u64) -> u64 {
    pool.enter(|ctx| run_in(ctx, kernel, n, seed))
}

/// Run a CGC⇒SB-style batch of same-kernel, same-size (hence
/// equal-footprint) jobs: one `join_all` whose per-job space bound is
/// the analytic footprint, so the pool spreads the batch evenly over
/// the cores exactly like an expanded CGC⇒SB fork. Returns one checksum
/// per seed, in order.
pub fn run_batch_in(ctx: &Ctx<'_>, kernel: Kernel, n: usize, seeds: &[u64]) -> Vec<u64> {
    let space_each = footprint_words(kernel, n);
    let jobs: Jobs<'_, u64> = seeds
        .iter()
        .map(|&seed| Box::new(move |c: &Ctx<'_>| run_in(c, kernel, n, seed)) as _)
        .collect();
    ctx.join_all(space_each, jobs)
}

/// Record `kernel`'s MO program at size `n` with values drawn from
/// `seed` — the same stream [`run_in`] feeds the served kernel.
///
/// The *structure* of the input (array lengths, the SpM-DV sparsity
/// pattern) is fixed by `n`; only the **values** vary with the seed.
/// That is exactly the experiment value-obliviousness is about: a
/// certified kernel's DAG and canonical trace must not move when only
/// values move.
pub fn record_kernel(kernel: Kernel, n: usize, seed: u64) -> Program {
    (kernel.def().record)(n, &mut Gen::for_job(kernel, seed))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mo_core::rt::HwHierarchy;
    use std::num::Wrapping;

    fn pool() -> SbPool {
        SbPool::new(HwHierarchy::flat(4, 1 << 12, 1 << 22))
    }

    #[test]
    fn scenario_lines_parse_or_say_why() {
        assert_eq!(parse_scenario_line("  # comment only"), Ok(None));
        assert_eq!(parse_scenario_line(""), Ok(None));
        assert_eq!(
            parse_scenario_line("SpMDV 2048 3  # L2"),
            Ok(Some((Kernel::SpmDv, 2048, 3)))
        );
        assert_eq!(parse_scenario_line("quicksort 1 1"), Err("unknown kernel"));
        assert_eq!(parse_scenario_line("sort many 1"), Err("bad size"));
        assert_eq!(parse_scenario_line("sort 1024"), Err("bad weight"));
        assert_eq!(parse_scenario_line("sort 1024 1 1"), Err("trailing fields"));
    }

    /// A size from outside (a `submit`, a wire `RunKernel`) can overflow
    /// a footprint formula: the declared space must then be huge, never
    /// wrap to a size some cache level would admit.
    #[test]
    fn footprints_saturate_instead_of_wrapping() {
        for k in Kernel::ALL {
            for n in [1usize << 32, 1 << 33, usize::MAX] {
                let words = footprint_words(k, n);
                assert!(words >= n, "{k} at n = {n}: {words} words");
                assert!(words >= footprint_words(k, n / 2), "{k} at n = {n}");
            }
            assert_eq!(footprint_words(k, usize::MAX), usize::MAX, "{k}");
        }
    }

    /// The inputs and the checksum in their fast forms against their
    /// sequential ones, on whatever arm this host fills with: two fills
    /// back to back are one fill (matmul's second matrix and SpM-DV's
    /// tail start where a fill left the state), and every fill is the
    /// stream `next()` draws; the lane checksum is the one-chain fold.
    #[test]
    fn fills_chain_as_the_stream_and_lanes_fold_as_one_chain() {
        for seed in [0, 7, u64::MAX - GAMMA, u64::MAX] {
            for (a, b) in [(0, 5), (3, 8), (9, 17), (1023, 1025)] {
                let mut stream = Gen(seed);
                let words: Vec<u64> = (0..a + b).map(|_| stream.next()).collect();
                let mut g = Gen(seed);
                let (head, tail) = (g.words(a), g.words(b));
                assert_eq!([head, tail].concat(), words, "words {a} + {b} from {seed}");
                assert_eq!(g.0, stream.0, "state after words {a} + {b}");

                let mut g = Gen(seed);
                let units = [g.f64s(a), g.f64s(b)].concat();
                let want: Vec<f64> = words.iter().map(|&z| unit(z)).collect();
                assert_eq!(units, want, "f64s {a} + {b} from {seed}");
                assert_eq!(g.0, stream.0);

                let (mut g, mut stream) = (Gen(seed), Gen(seed));
                let samples = [g.complex(a), g.complex(b)].concat();
                let want: Vec<crate::real::C64> = (0..a + b)
                    .map(|_| (stream.f64_unit(), stream.f64_unit()))
                    .collect();
                assert_eq!(samples, want, "complex {a} + {b} from {seed}");
                assert_eq!(g.0, stream.0);
            }
        }
        let fold = |xs: &[u64]| {
            let fold = xs
                .iter()
                .fold(Wrapping(0u64), |acc, &w| acc * Wrapping(31) + Wrapping(w));
            fold.0
        };
        let words = Gen(3).words(2051);
        for n in (0..=40).chain([2051]) {
            assert_eq!(checksum(&words[..n], |w| w), fold(&words[..n]), "{n} words");
        }
    }

    #[test]
    fn a_batch_of_sorts_checksums_as_its_singleton_runs() {
        // A whole batch of sort jobs through the server path: each job's
        // checksum must equal its singleton run's.
        let p = pool();
        let seeds: Vec<u64> = (0..16).collect();
        let batched = p.enter(|ctx| run_batch_in(ctx, Kernel::Sort, 5000, &seeds));
        for (&seed, &got) in seeds.iter().zip(&batched) {
            assert_eq!(got, run_kernel(&p, Kernel::Sort, 5000, seed), "seed {seed}");
        }
    }
}
