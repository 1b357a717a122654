//! The assembled machine: one LRU cache per instance, fed by core accesses.
//!
//! Everything an access needs is resolved when the machine is built: block
//! sizes are powers of two, so a level's block id is a shift; caches and
//! counters are stored flat in one level-major numbering; each core's path
//! of caches is a slice of positions in it; and the ping-pong writer table
//! is the same [`BlockMap`] the caches index their blocks with.
//!
//! **The recency window.** The machine remembers the last [`WINDOW`]
//! distinct `B_1` blocks the current core touched, most recent first. An
//! access that finds its block there is a hit at every level of the core's
//! path and is only counted and moved to the window's front; the LRU lists
//! are not probed and so *lag* the window's order. Four facts make that
//! exact (DESIGN §5 "Ideal caches"):
//!
//! 1. Block sizes are aligned, non-decreasing powers of two, so two
//!    addresses in one `B_1` block share their block at every level.
//! 2. The window is emptied whenever the core changes, so every access
//!    since one of its blocks entered came from this core: those blocks
//!    are the most recently used blocks of every cache on the path.
//! 3. The window never holds more blocks than the smallest cache, so the
//!    victim of a probe — the least recently used block of a full cache —
//!    is never one of them, provided the lists are in order by then.
//! 4. The order of an LRU list depends only on when each block was last
//!    touched, and nothing reads it between two probes. Touching the
//!    lagging blocks oldest first along the path therefore restores the
//!    exact order.
//!
//! This *settling* happens where the order starts to matter: before an
//! access that misses the window (its probes may evict), before another
//! core's first access (along the previous core's path), and at the first
//! *write* to a window block, which also dirties the block at every level
//! and updates its last writer at once. A run's hits reach the counters
//! before [`CacheSystem::access_run`] returns, so counters are exact
//! between calls while list order may stay pending across them; `flush`
//! empties the caches and the window with them, `reset_metrics` keeps both.

use crate::lru::BlockMap;
use crate::{Addr, CoreId, LruCache, MachineSpec, Metrics, Probe, Topology};

/// Read or write, for trace replay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// A load.
    Read,
    /// A store.
    Write,
}

/// Blocks the recency window holds at most (fewer on a machine whose
/// smallest cache holds fewer). Sized on one `sim_replay` round of
/// `mo-benchmark`, 3.58 M accesses of which 0.36 M miss an L1
/// (EXPERIMENTS "Simulator recency window"): a window of 1 — the previous
/// access only, the rule before the window — probes the LRU lists for
/// 1.83 M of them, 2 for 1.07 M, 4 for 0.63 M (it holds the four streams
/// of a matrix-product step), 8 for 0.55 M and 16 for 0.54 M. The last
/// two save fewer probes than their longer scans and shifts cost:
/// replayed on one core, five of the six recorded traces run 1–27 %
/// slower at 8 than at 4 (spmdv 6 % faster) and all six slower at 16, by
/// up to 70 %; the benchmark reads 170 ops/s at 2, 181 at 4, 174 at 8 and
/// 156 at 16 (4 runs each, 4 the fastest in every round).
const WINDOW: usize = 4;

/// The recency window (module docs). Position 0 is the most recently
/// touched block; positions from `len` on hold stale values. The methods
/// are inlined into [`CacheSystem::access_run`]'s loop: each is a few
/// moves or compares over arrays of constant length, less than a call.
#[derive(Debug, Clone, Copy)]
struct Window {
    /// The core whose accesses filled the window.
    core: CoreId,
    /// The `B_1` blocks.
    blocks: [u64; WINDOW],
    /// Whether `core` has written the block since it entered the window:
    /// the block is then dirty along the path and `core` its last writer.
    written: [bool; WINDOW],
    /// The block's position when the LRU lists were last brought into the
    /// window's order.
    settled_at: [u8; WINDOW],
    len: usize,
    /// `WINDOW`, clipped to the block count of the smallest cache.
    cap: usize,
}

/// Move `a[at]` to the front and `a[..at]` up by one.
#[inline(always)]
fn to_front<T: Copy>(a: &mut [T; WINDOW], at: usize) {
    let hit = a[at];
    for i in (1..WINDOW).rev() {
        if i <= at {
            a[i] = a[i - 1];
        }
    }
    a[0] = hit;
}

impl Window {
    fn new(cap: usize) -> Self {
        Self {
            core: 0,
            blocks: [0; WINDOW],
            written: [false; WINDOW],
            settled_at: [0; WINDOW],
            len: 0,
            cap: cap.min(WINDOW),
        }
    }

    /// The position of `block`, if the window holds it.
    #[inline(always)]
    fn find(&self, block: u64) -> Option<usize> {
        // A match from `len` on is a stale value.
        let at = self.blocks.iter().position(|&b| b == block)?;
        (at < self.len).then_some(at)
    }

    /// Note an access to the block at `at`.
    #[inline(always)]
    fn touch(&mut self, at: usize) {
        if at > 0 {
            to_front(&mut self.blocks, at);
            to_front(&mut self.written, at);
            to_front(&mut self.settled_at, at);
        }
    }

    /// Enter `block`, just probed and so at the head of every list on the
    /// path; the oldest block leaves a full window.
    #[inline(always)]
    fn push(&mut self, block: u64) {
        self.blocks.copy_within(..WINDOW - 1, 1);
        self.written.copy_within(..WINDOW - 1, 1);
        (self.blocks[0], self.written[0]) = (block, false);
        self.settled_at = std::array::from_fn(|i| i as u8);
        self.len = (self.len + 1).min(self.cap);
    }

    /// Bring the LRU lists along `path` into the window's order, and with
    /// `dirty_front` mark the front block dirty in them. The oldest blocks
    /// that still stand in the order they were settled in stand so in the
    /// lists too; the blocks before them are touched, oldest first.
    #[inline(always)]
    fn settle(
        &mut self,
        caches: &mut [LruCache],
        path: &[usize],
        shifts: &[u32],
        dirty_front: bool,
    ) {
        let mut lagging = 0;
        for i in 1..WINDOW {
            if i < self.len && self.settled_at[i - 1] > self.settled_at[i] {
                lagging = i;
            }
        }
        let touched = lagging.max(dirty_front as usize);
        if touched == 0 {
            return;
        }
        for (&c, &shift) in path.iter().zip(shifts) {
            for (i, block) in self.blocks[..touched].iter().enumerate().rev() {
                let probe = caches[c].access(block >> shift, dirty_front && i == 0);
                debug_assert_eq!(probe, Probe::Hit, "window blocks are resident");
            }
        }
        self.settled_at = std::array::from_fn(|i| i as u8);
    }
}

/// The HM cache hierarchy simulator.
///
/// Each cache level is modeled *independently*, exactly as in the paper's
/// analysis: the level-`i` cache above a core is a fully-associative LRU
/// cache of `C_i / B_i` blocks observing every access issued by the cores in
/// its shadow. An access therefore probes one cache per level and the
/// per-level hit/miss outcomes are independent (no inclusion or exclusion
/// policy couples them).
///
/// In addition to the per-cache counters the system tracks *ping-ponging*
/// (paper §III, "technical point"): a write to a `B_1`-sized block whose
/// previous writer was a different core. Schedulers are expected to respect
/// block boundaries to keep this counter near zero; exposing it lets the
/// benches verify that CGC's `≥ B_1` segment rule actually pays off.
#[derive(Debug)]
pub struct CacheSystem {
    spec: MachineSpec,
    topo: Topology,
    /// `log2(B_1)`.
    b1_shift: u32,
    /// `log2(B_i / B_1)` for each level, L1 first: a `B_1` block id shifted
    /// by it is the level's block id.
    shifts: Vec<u32>,
    /// Every cache, level-major: the numbering of [`Metrics`].
    caches: Vec<LruCache>,
    /// `paths[core * levels + i - 1]` is the position in `caches` of the
    /// level-`i` cache above `core`.
    paths: Vec<usize>,
    metrics: Metrics,
    /// Last writer of every `B_1` block written since the last flush, for
    /// the ping-pong counter.
    writers: BlockMap,
    pingpongs: u64,
    window: Window,
}

impl CacheSystem {
    /// Build a cold machine for `spec`.
    pub fn new(spec: &MachineSpec) -> Self {
        let topo = Topology::new(spec);
        let metrics = Metrics::new(spec);
        let levels = 1..=spec.cache_levels();
        let mut paths = Vec::with_capacity(topo.cores() * spec.cache_levels());
        for core in 0..topo.cores() {
            for i in levels.clone() {
                paths.push(metrics.level_start(i) + topo.cache_of(core, i).index);
            }
        }
        let b1_shift = spec.level(1).block.trailing_zeros();
        let smallest = spec.levels().iter().map(|l| l.blocks()).min();
        Self {
            b1_shift,
            shifts: (spec.levels().iter())
                .map(|l| l.block.trailing_zeros() - b1_shift)
                .collect(),
            caches: levels
                .flat_map(|i| {
                    (0..topo.caches_at(i)).map(move |_| LruCache::new(spec.level(i).blocks()))
                })
                .collect(),
            paths,
            spec: spec.clone(),
            topo,
            metrics,
            writers: BlockMap::new(),
            pingpongs: 0,
            window: Window::new(smallest.expect("a machine has a cache level")),
        }
    }

    /// The machine description.
    pub fn spec(&self) -> &MachineSpec {
        &self.spec
    }

    /// The derived topology.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Accumulated counters.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Count of inter-core write interleavings at `B_1` granularity.
    pub fn pingpongs(&self) -> u64 {
        self.pingpongs
    }

    /// Issue an access from `core` to word address `addr`.
    pub fn access(&mut self, core: CoreId, addr: Addr, kind: AccessKind) {
        self.access_run(core, std::iter::once((addr, kind == AccessKind::Write)));
    }

    /// Issue a run of accesses from `core`, in order: each item is a word
    /// address and whether the access writes it. Equivalent to one
    /// [`access`](Self::access) per item.
    pub fn access_run(&mut self, core: CoreId, accesses: impl IntoIterator<Item = (Addr, bool)>) {
        debug_assert!(core < self.topo.cores(), "core {core} out of range");
        let levels = self.shifts.len();
        let path_of = |core: CoreId| &self.paths[core * levels..(core + 1) * levels];
        let (caches, shifts) = (&mut self.caches[..], &self.shifts[..]);
        let win = &mut self.window;
        if win.core != core {
            win.settle(caches, path_of(win.core), shifts, false);
            (win.core, win.len) = (core, 0);
        }
        let path = path_of(core);
        let counters = self.metrics.counters_mut();
        // Accesses that hit the window: one hit at every level each.
        let mut run_hits = 0;
        for (addr, write) in accesses {
            let b1 = addr >> self.b1_shift;
            if let Some(at) = win.find(b1) {
                run_hits += 1;
                win.touch(at);
                if !write || win.written[0] {
                    continue;
                }
                win.settle(caches, path, shifts, true);
            } else {
                win.settle(caches, path, shifts, false);
                for (&c, &shift) in path.iter().zip(shifts) {
                    match caches[c].access(b1 >> shift, write) {
                        Probe::Hit => counters[c].hits += 1,
                        Probe::Miss { writeback } => {
                            counters[c].misses += 1;
                            counters[c].writebacks += writeback as u64;
                        }
                    }
                }
                win.push(b1);
                if !write {
                    continue;
                }
            }
            // The first write of `core` to `b1` since it entered the window.
            win.written[0] = true;
            match self.writers.get_mut(b1) {
                Some(writer) => {
                    self.pingpongs += (*writer != core as u32) as u64;
                    *writer = core as u32;
                }
                None => self.writers.insert(b1, core as u32),
            }
        }
        if run_hits > 0 {
            for &c in path {
                counters[c].hits += run_hits;
            }
        }
    }

    /// Convenience: a read access.
    pub fn read(&mut self, core: CoreId, addr: Addr) {
        self.access(core, addr, AccessKind::Read);
    }

    /// Convenience: a write access.
    pub fn write(&mut self, core: CoreId, addr: Addr) {
        self.access(core, addr, AccessKind::Write);
    }

    /// Flush every cache, charging dirty write-backs, and reset the
    /// ping-pong writer map. Counters are preserved.
    pub fn flush(&mut self) {
        for (cache, ctr) in self.caches.iter_mut().zip(self.metrics.counters_mut()) {
            ctr.writebacks += cache.flush();
        }
        self.writers.clear();
        self.window.len = 0;
    }

    /// Zero all counters (cache contents are kept — useful to exclude a
    /// warm-up phase from measurement).
    pub fn reset_metrics(&mut self) {
        self.metrics.reset();
        self.pingpongs = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn machine() -> MachineSpec {
        // 4 cores, private 1 KiW L1 (B=8), one shared 64 KiW L2 (B=32).
        MachineSpec::three_level(4, 1 << 10, 8, 1 << 16, 32).unwrap()
    }

    #[test]
    fn scan_misses_once_per_block_per_level() {
        let mut sys = CacheSystem::new(&machine());
        let n = 4096u64;
        for w in 0..n {
            sys.read(0, w);
        }
        assert_eq!(sys.metrics().cache(1, 0).misses, n / 8);
        assert_eq!(sys.metrics().cache(2, 0).misses, n / 32);
        // Other cores' L1s untouched.
        assert_eq!(sys.metrics().cache(1, 1).accesses(), 0);
    }

    #[test]
    fn working_set_within_cache_incurs_only_cold_misses() {
        let mut sys = CacheSystem::new(&machine());
        let n = 512u64; // fits in the 1024-word L1
        for _round in 0..10 {
            for w in 0..n {
                sys.read(0, w);
            }
        }
        assert_eq!(sys.metrics().cache(1, 0).misses, n / 8);
        assert_eq!(sys.metrics().cache(1, 0).hits, 10 * n - n / 8);
    }

    #[test]
    fn shared_l2_sees_all_cores_private_l1_does_not() {
        let mut sys = CacheSystem::new(&machine());
        // Core 0 warms a region; core 1 then reads it.
        for w in 0..256u64 {
            sys.read(0, w);
        }
        for w in 0..256u64 {
            sys.read(1, w);
        }
        // Core 1 misses in its own L1...
        assert_eq!(sys.metrics().cache(1, 1).misses, 256 / 8);
        // ...but hits in the shared L2 that core 0 already warmed.
        assert_eq!(sys.metrics().cache(2, 0).misses, 256 / 32);
        assert_eq!(sys.metrics().cache(2, 0).hits, 2 * 256 - 256 / 32);
    }

    #[test]
    fn thrashing_beyond_capacity_misses_every_block_again() {
        let mut sys = CacheSystem::new(&machine());
        let c1 = 1u64 << 10;
        let n = 2 * c1; // twice the L1
        for _ in 0..3 {
            for w in 0..n {
                sys.read(0, w);
            }
        }
        // Cyclic scan over 2x capacity under LRU hits never.
        assert_eq!(sys.metrics().cache(1, 0).misses, 3 * n / 8);
    }

    #[test]
    fn pingpong_counts_interleaved_writers() {
        let mut sys = CacheSystem::new(&machine());
        sys.write(0, 0);
        sys.write(1, 1); // same B1 block, different core
        sys.write(0, 2); // and back
        sys.write(0, 3); // same writer: no ping-pong
        sys.write(1, 64); // different block entirely: no ping-pong
        assert_eq!(sys.pingpongs(), 2);
    }

    #[test]
    fn flush_charges_writebacks() {
        let mut sys = CacheSystem::new(&machine());
        for w in 0..64u64 {
            sys.write(0, w);
        }
        let before = sys.metrics().cache(1, 0).writebacks;
        sys.flush();
        let after = sys.metrics().cache(1, 0).writebacks;
        assert_eq!(after - before, 64 / 8);
        // After the flush everything misses again.
        sys.read(0, 0);
        assert_eq!(sys.metrics().cache(1, 0).misses, 64 / 8 + 1);
    }

    #[test]
    fn distinct_l1s_have_distinct_state() {
        let mut sys = CacheSystem::new(&machine());
        sys.read(0, 0);
        sys.read(3, 0);
        assert_eq!(sys.metrics().cache(1, 0).misses, 1);
        assert_eq!(sys.metrics().cache(1, 3).misses, 1);
        // L2 is shared: second access hits.
        assert_eq!(sys.metrics().cache(2, 0).misses, 1);
        assert_eq!(sys.metrics().cache(2, 0).hits, 1);
    }

    #[test]
    fn reset_metrics_keeps_cache_contents() {
        let mut sys = CacheSystem::new(&machine());
        for w in 0..128u64 {
            sys.read(0, w);
        }
        sys.reset_metrics();
        for w in 0..128u64 {
            sys.read(0, w);
        }
        // Still warm: zero misses after reset.
        assert_eq!(sys.metrics().cache(1, 0).misses, 0);
        assert_eq!(sys.metrics().cache(1, 0).hits, 128);
    }

    #[test]
    fn five_level_machine_counts_each_level() {
        let spec = MachineSpec::example_h5();
        let mut sys = CacheSystem::new(&spec);
        let n = 1u64 << 15;
        for w in 0..n {
            sys.read(0, w);
        }
        for level in 1..=4 {
            let b = spec.level(level).block as u64;
            let id = sys.topology().cache_of(0, level);
            assert_eq!(
                sys.metrics().cache(level, id.index).misses,
                n / b,
                "level {level}"
            );
        }
    }

    /// Every counter of every cache and the ping-pong count equal a naive
    /// per-level machine's, for interleaved cores issuing single accesses
    /// and runs, across `reset_metrics` and `flush`.
    #[test]
    fn differential_against_naive_reference() {
        use crate::reference::{stream, RefSystem};
        use crate::LevelSpec;
        let asymmetric = MachineSpec::new(vec![
            LevelSpec::new(512, 8, 1),
            LevelSpec::new(8192, 8, 3),
            LevelSpec::new(1 << 16, 16, 2),
        ])
        .unwrap();
        let mut machines = crate::catalog::all();
        machines.push(("asymmetric_3x2", asymmetric));
        let steps = if cfg!(miri) { 400 } else { 6_000u64 };
        for (name, spec) in machines {
            let (mut sys, mut reference) = (CacheSystem::new(&spec), RefSystem::new(&spec));
            let same_counters = |sys: &CacheSystem, reference: &RefSystem, at: u64| {
                for level in 1..=spec.cache_levels() {
                    assert_eq!(
                        sys.metrics().level_caches(level),
                        &reference.counters[level - 1][..],
                        "{name} L{level} after step {at}"
                    );
                }
                assert_eq!(sys.pingpongs(), reference.pingpongs, "{name} step {at}");
            };
            // Words: a few L1s' worth, so L1s thrash and blocks are shared
            // between cores; strided streams step by the largest block.
            let words = 4 * spec.level(1).capacity as u64;
            let top_block = spec.level(spec.cache_levels()).block as u64;
            let mut rng = 0x2545f4914f6cdd1d;
            let mut next = 0u64;
            for step in 0..steps {
                let core = (stream(3, spec.cores() as u64, step, &mut rng)) as usize;
                let kind = (rng >> 40) as usize % 5;
                let len = if rng >> 63 == 0 {
                    1
                } else {
                    1 + (rng >> 50) % 40
                };
                let run: Vec<(Addr, bool)> = (0..len)
                    .map(|_| {
                        next += 1;
                        let addr = match kind {
                            0 => stream(0, words, next, &mut rng),
                            1 => stream(0, words, next, &mut rng) * top_block,
                            4 => next / 3 % words,
                            k => stream(k, words, next, &mut rng),
                        };
                        (addr, rng >> 59 < 9)
                    })
                    .collect();
                for &(addr, write) in &run {
                    reference.access(core, addr, write);
                }
                match run[..] {
                    [(addr, true)] => sys.write(core, addr),
                    [(addr, false)] => sys.read(core, addr),
                    _ => sys.access_run(core, run),
                }
                if step % 500 == 0 {
                    same_counters(&sys, &reference, step);
                }
                if step == steps / 3 {
                    sys.reset_metrics();
                    reference.reset_metrics();
                } else if step == 2 * steps / 3 {
                    sys.flush();
                    reference.flush();
                    same_counters(&sys, &reference, step);
                }
            }
            sys.flush();
            reference.flush();
            same_counters(&sys, &reference, steps);
        }
    }

    /// The machine and the naive reference, driven together; every counter
    /// and the ping-pong count compared after every call.
    struct Both {
        spec: MachineSpec,
        sys: CacheSystem,
        reference: crate::reference::RefSystem,
    }

    impl Both {
        fn new(spec: &MachineSpec) -> Self {
            Self {
                spec: spec.clone(),
                sys: CacheSystem::new(spec),
                reference: crate::reference::RefSystem::new(spec),
            }
        }

        fn check(&self, what: &str) {
            for level in 1..=self.spec.cache_levels() {
                assert_eq!(
                    self.sys.metrics().level_caches(level),
                    &self.reference.counters[level - 1][..],
                    "L{level} after {what}"
                );
            }
            assert_eq!(self.sys.pingpongs(), self.reference.pingpongs, "{what}");
        }

        /// One `access_run` call.
        fn run(&mut self, core: CoreId, run: &[(Addr, bool)]) {
            for &(addr, write) in run {
                self.reference.access(core, addr, write);
            }
            self.sys.access_run(core, run.iter().copied());
            self.check("a run");
        }

        /// One `access` call per item.
        fn each(&mut self, core: CoreId, run: &[(Addr, bool)]) {
            for &(addr, write) in run {
                self.run(core, &[(addr, write)]);
            }
        }

        fn flush(&mut self) {
            self.sys.flush();
            self.reference.flush();
            self.check("a flush");
        }

        /// Make the order of every LRU list observable: single accesses
        /// from every core over a few L1s' worth of words thrash the
        /// caches, so a block out of place is evicted at the wrong time.
        fn churn(&mut self, mut rng: u64) {
            let words = 3 * self.spec.level(1).capacity as u64;
            for i in 0..300 {
                let core = crate::reference::stream(3, self.spec.cores() as u64, i, &mut rng);
                let addr = crate::reference::stream(3, words, i, &mut rng);
                self.each(core as usize, &[(addr, rng >> 61 == 0)]);
            }
        }
    }

    /// Four cores in pairs under two L2s and one L3, the L1s holding
    /// `l1_blocks` blocks of 4 words.
    fn tiny(l1_blocks: usize) -> MachineSpec {
        use crate::LevelSpec;
        let c1 = 4 * l1_blocks;
        MachineSpec::new(vec![
            LevelSpec::new(c1, 4, 1),
            LevelSpec::new(4 * c1, 8, 2),
            LevelSpec::new(16 * c1, 16, 2),
        ])
        .unwrap()
    }

    /// Word `i` of each of `k` sequential streams in turn, the streams far
    /// apart and out of phase with the blocks; with `write_last` the last
    /// stream is written (the read-`A`, write-`B` shape of the MO loops).
    fn interleaved(k: u64, len: u64, write_last: bool) -> Vec<(Addr, bool)> {
        (0..len)
            .flat_map(|i| (0..k).map(move |s| (s * 1031 + i, write_last && s == k - 1)))
            .collect()
    }

    #[test]
    fn interleaved_streams_below_at_and_above_the_window() {
        for spec in [tiny(8), MachineSpec::example_h5()] {
            for k in 1..=6 {
                for write_last in [false, true] {
                    let mut both = Both::new(&spec);
                    let stream = interleaved(k, 150, write_last);
                    // As runs that cut the streams anywhere, then again by
                    // single accesses from the core next door.
                    for run in stream.chunks(7) {
                        both.run(1, run);
                    }
                    both.each(0, &stream);
                    both.churn(k);
                    both.flush();
                }
            }
        }
    }

    /// Four blocks read round-robin: every access finds its block in the
    /// window's last position, and the lists are left a full rotation
    /// behind, or one, two or three accesses short of it.
    #[test]
    fn a_cycle_over_the_window_hits_its_last_position() {
        assert_eq!(CacheSystem::new(&tiny(8)).window.cap, 4);
        for extra in 0..4 {
            for written in [false, true] {
                let mut both = Both::new(&tiny(8));
                // Blocks 0 and 1 share an L2 block, 0..4 an L3 block.
                let cycle = (0..40 + extra).map(|i| (4 * (i % 4) + i % 3, written && i == 17));
                both.run(2, &cycle.collect::<Vec<_>>());
                // Fresh blocks now evict the four in the order of the cycle.
                both.run(2, &interleaved(1, 64, false)[16..]);
                both.churn(extra);
                both.flush();
            }
        }
    }

    #[test]
    fn first_write_to_a_block_that_entered_the_window_by_a_read() {
        let mut both = Both::new(&tiny(4));
        // Block 0 enters clean, falls behind block 5, then is written.
        both.run(0, &[(1, false), (20, false), (2, true), (3, true)]);
        // The other core of the pair writes it: one ping-pong.
        both.run(1, &[(0, true)]);
        assert_eq!(both.sys.pingpongs(), 1);
        // Pushed out of core 0's L1, it is written back.
        both.run(0, &interleaved(1, 20, false)[4..]);
        assert_eq!(both.sys.metrics().cache(1, 0).writebacks, 1);
        both.churn(7);
        both.flush();
    }

    /// Window hits by single `access` calls leave the lists behind the
    /// window between calls; whatever comes next must find them settled.
    #[test]
    fn a_lag_carried_across_calls_is_settled_before_anything_can_observe_it() {
        // Five blocks through core 0's 8-block L1, then the oldest three
        // of the window again: the lists lag by three.
        let lagging = |both: &mut Both| {
            both.each(0, &interleaved(1, 20, false));
            both.each(0, &[(6, false), (9, true), (13, false)]);
        };
        // Core 1 shares core 0's L2 and reads the same `B_2` blocks, then
        // fills the L2: its victims follow core 0's true order.
        let mut both = Both::new(&tiny(8));
        lagging(&mut both);
        both.each(1, &[(7, false), (15, false)]);
        both.each(1, &interleaved(1, 8 * 32, false)[24..]);
        both.churn(1);
        both.flush();
        // A flush drops the window with the caches.
        let mut both = Both::new(&tiny(8));
        lagging(&mut both);
        both.flush();
        both.each(0, &[(13, false), (9, false)]);
        assert_eq!(both.sys.metrics().cache(1, 0).misses, 5 + 2);
        both.churn(2);
        // Resetting the counters keeps the window and what it owes.
        let mut both = Both::new(&tiny(8));
        lagging(&mut both);
        both.sys.reset_metrics();
        both.reference.reset_metrics();
        both.each(0, &[(9, true), (6, false)]);
        assert_eq!(both.sys.metrics().cache(1, 0).hits, 2);
        both.each(0, &interleaved(1, 4 * 9, false)[20..]);
        both.churn(3);
        both.flush();
    }

    /// The window never outgrows the smallest cache, which need not be the
    /// L1; where that cache holds one block only the previous access counts.
    #[test]
    fn window_is_clipped_to_the_smallest_cache() {
        use crate::LevelSpec;
        let narrow_l2 =
            MachineSpec::new(vec![LevelSpec::new(32, 4, 1), LevelSpec::new(64, 32, 2)]).unwrap();
        let machines = [(tiny(1), 1), (tiny(2), 2), (tiny(3), 3), (narrow_l2, 2)];
        for (spec, cap) in machines {
            assert_eq!(CacheSystem::new(&spec).window.cap, cap);
            for k in 1..=5 {
                let mut both = Both::new(&spec);
                both.run(0, &interleaved(k, 40, true));
                both.each(1, &interleaved(k, 40, false));
                both.churn(k);
                both.flush();
            }
        }
    }

    /// A stride of `B_4` on the Fig. 1 machine, one million reads from
    /// core 0: every access misses the recency window and every level
    /// (the miss path: evict, unindex, reindex), and no other cache is
    /// touched. Counts pinned from the simulator as of the commit that
    /// retired the stream's wall-clock bench.
    #[test]
    #[cfg_attr(miri, ignore = "pins the counts of a million accesses")]
    fn stride_of_the_top_block_misses_every_level() {
        let spec = MachineSpec::example_h5();
        let b4 = spec.level(spec.cache_levels()).block as u64;
        let mut sys = CacheSystem::new(&spec);
        for k in 0..1_000_000u64 {
            sys.read(0, k * b4);
        }
        let all_miss = crate::CacheCounters {
            hits: 0,
            misses: 1_000_000,
            writebacks: 0,
        };
        for level in 1..=spec.cache_levels() {
            let caches = sys.metrics().level_caches(level);
            assert_eq!(caches[0], all_miss, "L{level}");
            assert_eq!(caches[0].transfers(), 1_000_000, "L{level}");
            assert!(caches[1..].iter().all(|c| c.accesses() == 0), "L{level}");
        }
    }

    /// Two cores writing alternate words of the same blocks, one million
    /// writes on the Fig. 1 machine: seven of every eight writes follow
    /// the other core's write to the same `B_1` block (the ping-pong
    /// path). Pinned with the stride stream above.
    #[test]
    #[cfg_attr(miri, ignore = "pins the counts of a million accesses")]
    fn two_core_interleaved_writes_ping_pong() {
        let spec = MachineSpec::example_h5();
        let mut sys = CacheSystem::new(&spec);
        for w in 0..1_000_000u64 {
            sys.write(w as usize % 2, w);
        }
        assert_eq!(sys.pingpongs(), 875_000);
        let per_level: Vec<(u64, u64)> = (1..=spec.cache_levels())
            .map(|i| {
                let l = sys.metrics().level(i);
                (l.max_misses, l.max_transfers)
            })
            .collect();
        assert_eq!(
            per_level,
            [
                (125_000, 249_872),
                (62_500, 124_488),
                (31_250, 60_452),
                (15_625, 23_058)
            ]
        );
    }

    /// The multi-stream shapes the MO kernels record, on the Fig. 1
    /// machine from core 0, streams 2^24 words apart (no two share a
    /// block at any level): `A[k]` read and `B[k]` written (500 000
    /// pairs), three reads and one write of a matrix-product step
    /// (250 000 steps), and MO-MT's first pass, `A[β⁻¹(k)]` read from a
    /// 1024-wide row-major array and `I[k]` written (500 000 pairs). Each
    /// row is the per-level max (misses, transfers). Pinned with the
    /// stride stream above.
    #[test]
    #[cfg_attr(miri, ignore = "pins the counts of a million accesses")]
    fn interleaved_streams_of_the_recorded_kernels() {
        let spec = MachineSpec::example_h5();
        let stream = |s: u64, k: u64| (s << 24) + k;
        // Every other bit of a Morton index, from bit 0 up.
        let compact = |z: u64| (0..32).fold(0u64, |c, b| c | ((z >> (2 * b)) & 1) << b);
        let run = |f: &dyn Fn(&mut CacheSystem)| {
            let mut sys = CacheSystem::new(&spec);
            f(&mut sys);
            (1..=spec.cache_levels())
                .map(|i| {
                    let l = sys.metrics().level(i);
                    (l.max_misses, l.max_transfers)
                })
                .collect::<Vec<_>>()
        };
        let copy = run(&|sys| {
            for k in 0..500_000 {
                sys.read(0, stream(0, k));
                sys.write(0, stream(1, k));
            }
        });
        let cycle = run(&|sys| {
            for k in 0..250_000 {
                for s in 0..3 {
                    sys.read(0, stream(s, k));
                }
                sys.write(0, stream(3, k));
            }
        });
        let gather = run(&|sys| {
            for k in 0..500_000 {
                let (i, j) = (compact(k >> 1), compact(k));
                sys.read(0, stream(0, (i << 10) + j));
                sys.write(0, stream(1, k));
            }
        });
        assert_eq!(
            copy,
            [
                (125_000, 187_436),
                (62_500, 93_494),
                (31_250, 45_851),
                (15_626, 19_343)
            ]
        );
        assert_eq!(
            cycle,
            [
                (125_000, 156_218),
                (62_500, 77_997),
                (31_252, 38_553),
                (15_628, 17_487)
            ]
        );
        assert_eq!(
            gather,
            [
                (125_000, 187_436),
                (62_502, 93_499),
                (31_257, 45_863),
                (15_637, 19_370)
            ]
        );
    }
}
