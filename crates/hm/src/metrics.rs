//! Per-cache counters and per-level summaries.

use crate::{Level, MachineSpec};

/// Counters for a single cache instance.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheCounters {
    /// Accesses that found the block resident.
    pub hits: u64,
    /// Accesses that had to bring the block in (transfers *into* the cache).
    pub misses: u64,
    /// Dirty evictions (transfers *out of* the cache).
    pub writebacks: u64,
}

impl CacheCounters {
    /// Total accesses observed.
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }

    /// Block transfers into and out of the cache — the quantity the HM
    /// model's *cache complexity* bounds.
    pub fn transfers(&self) -> u64 {
        self.misses + self.writebacks
    }

    /// Miss rate in `[0, 1]`; 0 for an untouched cache.
    pub fn miss_rate(&self) -> f64 {
        let a = self.accesses();
        if a == 0 {
            0.0
        } else {
            self.misses as f64 / a as f64
        }
    }

    /// Accumulate another counter set into this one.
    pub fn merge(&mut self, other: &CacheCounters) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.writebacks += other.writebacks;
    }
}

/// Summary of one cache level.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LevelSummary {
    /// Maximum misses over the `q_i` caches of the level — the paper's
    /// cache complexity `Q_i`.
    pub max_misses: u64,
    /// Maximum transfers (misses + write-backs) over the level's caches.
    pub max_transfers: u64,
    /// Total misses over the level.
    pub total_misses: u64,
    /// Total accesses over the level.
    pub total_accesses: u64,
}

/// Metrics for a whole [`crate::CacheSystem`] run.
#[derive(Debug, Clone)]
pub struct Metrics {
    /// Every counter set, level-major: cache `j` of level `i` sits at
    /// `starts[i-1] + j`, the numbering [`crate::CacheSystem`] uses for its
    /// caches too.
    counters: Vec<CacheCounters>,
    /// `starts[i-1]` is the position of level `i`'s first cache; the last
    /// entry is the total cache count.
    starts: Vec<usize>,
}

impl Metrics {
    /// Fresh zeroed metrics for `spec`.
    pub fn new(spec: &MachineSpec) -> Self {
        let mut starts = vec![0];
        for i in 1..=spec.cache_levels() {
            starts.push(starts[i - 1] + spec.caches_at(i));
        }
        Self {
            counters: vec![CacheCounters::default(); starts[spec.cache_levels()]],
            starts,
        }
    }

    /// Counters of cache `index` at `level`.
    pub fn cache(&self, level: Level, index: usize) -> &CacheCounters {
        &self.level_caches(level)[index]
    }

    #[cfg(test)]
    pub(crate) fn cache_mut(&mut self, level: Level, index: usize) -> &mut CacheCounters {
        &mut self.counters[self.starts[level - 1] + index]
    }

    /// Position of level `level`'s first cache in the level-major numbering.
    pub(crate) fn level_start(&self, level: Level) -> usize {
        self.starts[level - 1]
    }

    /// Every counter set in the level-major numbering.
    pub(crate) fn counters_mut(&mut self) -> &mut [CacheCounters] {
        &mut self.counters
    }

    /// Number of cache levels covered.
    pub fn cache_levels(&self) -> usize {
        self.starts.len() - 1
    }

    /// All counters at `level`.
    pub fn level_caches(&self, level: Level) -> &[CacheCounters] {
        &self.counters[self.starts[level - 1]..self.starts[level]]
    }

    /// Per-level summary.
    pub fn level(&self, level: Level) -> LevelSummary {
        let caches = self.level_caches(level);
        LevelSummary {
            max_misses: caches.iter().map(|c| c.misses).max().unwrap_or(0),
            max_transfers: caches.iter().map(|c| c.transfers()).max().unwrap_or(0),
            total_misses: caches.iter().map(|c| c.misses).sum(),
            total_accesses: caches.iter().map(|c| c.accesses()).sum(),
        }
    }

    /// The model's cache complexity at `level`: the maximum number of
    /// misses over any single level-`level` cache.
    pub fn cache_complexity(&self, level: Level) -> u64 {
        self.level(level).max_misses
    }

    /// Reset all counters to zero (e.g. after a warm-up phase).
    pub fn reset(&mut self) {
        self.counters.fill(CacheCounters::default());
    }

    /// Merge another run's metrics into this one (same machine shape).
    pub fn merge(&mut self, other: &Metrics) {
        assert_eq!(self.starts, other.starts);
        for (m, t) in self.counters.iter_mut().zip(&other.counters) {
            m.merge(t);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MachineSpec;

    #[test]
    fn summary_takes_max_over_instances() {
        let spec = MachineSpec::three_level(4, 1024, 8, 1 << 16, 32).unwrap();
        let mut m = Metrics::new(&spec);
        m.cache_mut(1, 0).misses = 10;
        m.cache_mut(1, 2).misses = 25;
        m.cache_mut(1, 2).writebacks = 5;
        let s = m.level(1);
        assert_eq!(s.max_misses, 25);
        assert_eq!(s.max_transfers, 30);
        assert_eq!(s.total_misses, 35);
        assert_eq!(m.cache_complexity(1), 25);
        assert_eq!(m.cache_complexity(2), 0);
    }

    #[test]
    fn miss_rate_handles_zero() {
        let c = CacheCounters::default();
        assert_eq!(c.miss_rate(), 0.0);
        let c = CacheCounters {
            hits: 3,
            misses: 1,
            writebacks: 0,
        };
        assert!((c.miss_rate() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn merge_accumulates() {
        let spec = MachineSpec::three_level(2, 1024, 8, 1 << 13, 8).unwrap();
        let mut a = Metrics::new(&spec);
        let mut b = Metrics::new(&spec);
        a.cache_mut(2, 0).hits = 7;
        b.cache_mut(2, 0).hits = 5;
        b.cache_mut(2, 0).misses = 2;
        a.merge(&b);
        assert_eq!(a.cache(2, 0).hits, 12);
        assert_eq!(a.cache(2, 0).misses, 2);
        a.reset();
        assert_eq!(a.cache(2, 0).accesses(), 0);
    }
}
