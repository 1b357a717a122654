//! The assembled machine: one LRU cache per instance, fed by core accesses.
//!
//! Everything an access needs is resolved when the machine is built: block
//! sizes are powers of two, so a level's block id is a shift; caches and
//! counters are stored flat in one level-major numbering; each core's path
//! of caches is a slice of positions in it; and the ping-pong writer table
//! is the same [`BlockMap`] the caches index their blocks with.
//!
//! **The same-block rule.** An access by the core that issued the previous
//! access, to the same `B_1` block, is an MRU hit at every level of that
//! core's path: block sizes are aligned, non-decreasing powers of two, so
//! the two addresses share their block at every level, the previous access
//! left that block most recently used along the path, and nothing came
//! between. It is charged one hit per level without probing. Only the
//! first *write* of such a run does more: it dirties the block at every
//! level and updates its last writer. A run's hits reach the counters
//! before [`CacheSystem::access_run`] returns, so counters are exact
//! between calls; `flush` empties the caches and so forgets the previous
//! access (DESIGN §5 "Ideal caches").

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
    /// `log2(B_i)` for each level, L1 first.
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
    /// Core and `B_1` block of the previous access.
    last: Option<(CoreId, u64)>,
    /// Whether that core has written the block since `last` was set: the
    /// block is then dirty along the path and the core is its last writer.
    last_written: bool,
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
        Self {
            shifts: (spec.levels().iter())
                .map(|l| l.block.trailing_zeros())
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
            last: None,
            last_written: false,
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
        let path = &self.paths[core * levels..(core + 1) * levels];
        let counters = self.metrics.counters_mut();
        // Accesses under the same-block rule: one hit at every level each.
        let mut run_hits = 0;
        for (addr, write) in accesses {
            let b1 = addr >> self.shifts[0];
            if self.last == Some((core, b1)) {
                run_hits += 1;
                if !write || self.last_written {
                    continue;
                }
                for (&c, &shift) in path.iter().zip(&self.shifts) {
                    self.caches[c].access(addr >> shift, true);
                }
            } else {
                for (&c, &shift) in path.iter().zip(&self.shifts) {
                    match self.caches[c].access(addr >> shift, write) {
                        Probe::Hit => counters[c].hits += 1,
                        Probe::Miss { writeback } => {
                            counters[c].misses += 1;
                            counters[c].writebacks += writeback as u64;
                        }
                    }
                }
                self.last = Some((core, b1));
                self.last_written = false;
                if !write {
                    continue;
                }
            }
            // The first write of `core` to `b1` since it got there.
            self.last_written = true;
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
        self.last = None;
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
        let steps = 6_000u64;
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
}
