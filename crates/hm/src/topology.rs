//! The derived cache tree: instances, shadows, and core→cache paths.

use crate::{CoreId, Level, MachineSpec};

/// Identifies one cache instance: `(level, index)` with
/// `0 ≤ index < q_level`. Caches at each level are numbered left to right,
/// so index `j` at level `i` covers cores `[j·p'_i, (j+1)·p'_i)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CacheId {
    /// Cache level, 1-based.
    pub level: Level,
    /// Index within the level, left to right.
    pub index: usize,
}

impl CacheId {
    /// Convenience constructor.
    pub const fn new(level: Level, index: usize) -> Self {
        Self { level, index }
    }
}

/// The *shadow* of a cache (paper §III, Fig. 1): the contiguous range of
/// cores that share it, `[lo, hi)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shadow {
    /// First core in the shadow.
    pub lo: CoreId,
    /// One past the last core in the shadow.
    pub hi: CoreId,
}

impl Shadow {
    /// Number of cores in the shadow (`p'_i` for a level-`i` cache).
    pub const fn len(&self) -> usize {
        self.hi - self.lo
    }

    /// Whether the shadow is empty (never true for a valid topology).
    pub const fn is_empty(&self) -> bool {
        self.hi <= self.lo
    }

    /// Whether `core` lies under this shadow.
    pub const fn contains(&self, core: CoreId) -> bool {
        core >= self.lo && core < self.hi
    }

    /// Whether `other` is fully contained in this shadow.
    pub const fn covers(&self, other: &Shadow) -> bool {
        self.lo <= other.lo && other.hi <= self.hi
    }
}

/// Precomputed topology queries for a [`MachineSpec`].
///
/// All sharing in the HM model is regular and contiguous, so every query is
/// O(1) arithmetic; this struct just caches the per-level constants.
#[derive(Debug, Clone)]
pub struct Topology {
    cores: usize,
    /// `cores_under[i-1] = p'_i` for cache level `i`.
    cores_under: Vec<usize>,
    /// `caches_at[i-1] = q_i` for cache level `i`.
    caches_at: Vec<usize>,
}

impl Topology {
    /// Derive the topology of `spec`.
    pub fn new(spec: &MachineSpec) -> Self {
        let levels = spec.cache_levels();
        Self {
            cores: spec.cores(),
            cores_under: (1..=levels).map(|i| spec.cores_under(i)).collect(),
            caches_at: (1..=levels).map(|i| spec.caches_at(i)).collect(),
        }
    }

    /// Total number of cores `p`.
    pub fn cores(&self) -> usize {
        self.cores
    }

    /// Number of cache levels `h - 1`.
    pub fn cache_levels(&self) -> usize {
        self.cores_under.len()
    }

    /// Number of caches `q_i` at level `i`.
    pub fn caches_at(&self, level: Level) -> usize {
        self.caches_at[level - 1]
    }

    /// Number of cores `p'_i` under one level-`i` cache.
    pub fn cores_under(&self, level: Level) -> usize {
        self.cores_under[level - 1]
    }

    /// The level-`level` cache above `core`.
    pub fn cache_of(&self, core: CoreId, level: Level) -> CacheId {
        debug_assert!(core < self.cores);
        CacheId::new(level, core / self.cores_under[level - 1])
    }

    /// The path of caches above `core`, from L1 up to the top cache level.
    pub fn path(&self, core: CoreId) -> impl Iterator<Item = CacheId> + '_ {
        (1..=self.cache_levels()).map(move |l| self.cache_of(core, l))
    }

    /// The shadow of a cache: the contiguous core range sharing it.
    pub fn shadow(&self, cache: CacheId) -> Shadow {
        let span = self.cores_under[cache.level - 1];
        Shadow {
            lo: cache.index * span,
            hi: (cache.index + 1) * span,
        }
    }

    /// The parent of `cache` at the next level up, or `None` at the top.
    pub fn parent(&self, cache: CacheId) -> Option<CacheId> {
        if cache.level >= self.cache_levels() {
            return None;
        }
        let child_span = self.cores_under[cache.level - 1];
        let parent_span = self.cores_under[cache.level];
        Some(CacheId::new(
            cache.level + 1,
            cache.index * child_span / parent_span,
        ))
    }

    /// The children of `cache` one level down (cache ids), or an empty range
    /// for level-1 caches (whose children are cores).
    pub fn children(&self, cache: CacheId) -> Vec<CacheId> {
        if cache.level <= 1 {
            return Vec::new();
        }
        let shadow = self.shadow(cache);
        let child_span = self.cores_under[cache.level - 2];
        (shadow.lo / child_span..shadow.hi / child_span)
            .map(|j| CacheId::new(cache.level - 1, j))
            .collect()
    }

    /// The caches at `level` lying under the shadow of `anchor`
    /// (`level ≤ anchor.level`). Used by the SB and CGC⇒SB schedulers.
    pub fn caches_under(&self, anchor: CacheId, level: Level) -> Vec<CacheId> {
        self.indices_under(anchor, level)
            .map(|j| CacheId::new(level, j))
            .collect()
    }

    /// The indices of the caches [`caches_under`](Self::caches_under)
    /// lists: they are contiguous, so no list is needed to walk them.
    pub fn indices_under(&self, anchor: CacheId, level: Level) -> std::ops::Range<usize> {
        debug_assert!(level >= 1 && level <= anchor.level);
        let shadow = self.shadow(anchor);
        let span = self.cores_under[level - 1];
        shadow.lo / span..shadow.hi / span
    }

    /// Number of level-`level` caches under the shadow of `anchor`, without
    /// materializing them.
    pub fn count_caches_under(&self, anchor: CacheId, level: Level) -> usize {
        self.cores_under(anchor.level) / self.cores_under(level)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn h5() -> Topology {
        Topology::new(&MachineSpec::example_h5())
    }

    #[test]
    #[allow(clippy::needless_range_loop)]
    fn shadows_partition_cores() {
        let t = h5();
        for level in 1..=t.cache_levels() {
            let mut covered = vec![false; t.cores()];
            for j in 0..t.caches_at(level) {
                let s = t.shadow(CacheId::new(level, j));
                assert_eq!(s.len(), t.cores_under(level));
                for c in s.lo..s.hi {
                    assert!(!covered[c], "core {c} covered twice at level {level}");
                    covered[c] = true;
                }
            }
            assert!(covered.iter().all(|&b| b));
        }
    }

    #[test]
    fn cache_of_is_consistent_with_shadow() {
        let t = h5();
        for core in 0..t.cores() {
            for level in 1..=t.cache_levels() {
                let c = t.cache_of(core, level);
                assert!(t.shadow(c).contains(core));
            }
        }
    }

    #[test]
    fn parent_shadow_covers_child_shadow() {
        let t = h5();
        for level in 1..t.cache_levels() {
            for j in 0..t.caches_at(level) {
                let c = CacheId::new(level, j);
                let p = t.parent(c).unwrap();
                assert!(t.shadow(p).covers(&t.shadow(c)));
            }
        }
        assert_eq!(t.parent(CacheId::new(t.cache_levels(), 0)), None);
    }

    #[test]
    fn children_invert_parent() {
        let t = h5();
        for level in 2..=t.cache_levels() {
            for j in 0..t.caches_at(level) {
                let c = CacheId::new(level, j);
                let kids = t.children(c);
                assert_eq!(kids.len(), 2, "fig-1 machine is binary above L1");
                for k in kids {
                    assert_eq!(t.parent(k), Some(c));
                }
            }
        }
    }

    #[test]
    fn caches_under_matches_figure_one_shading() {
        // In Fig. 1, an L3 cache's shadow covers 2 L2 caches and (here) 2
        // cores; check the generic query against the example machine.
        let t = h5();
        let l3 = CacheId::new(3, 1);
        assert_eq!(
            t.caches_under(l3, 2),
            vec![CacheId::new(2, 2), CacheId::new(2, 3)]
        );
        assert_eq!(t.caches_under(l3, 1).len(), 4);
        assert_eq!(t.count_caches_under(l3, 1), 4);
        assert_eq!(t.count_caches_under(l3, 3), 1);
    }

    #[test]
    fn path_is_monotone_in_level() {
        let t = h5();
        let path: Vec<_> = t.path(5).collect();
        assert_eq!(path.len(), 4);
        for (idx, c) in path.iter().enumerate() {
            assert_eq!(c.level, idx + 1);
            assert!(t.shadow(*c).contains(5));
        }
    }
}
