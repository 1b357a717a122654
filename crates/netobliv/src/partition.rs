//! The D-BSP(P, g, B) machine shape, stated once: `P` processors (a
//! power of two), each simulating a contiguous run of `N/P` PEs, in
//! `log₂ P` nested cluster levels that each halve the processor set.
//! The [`Engine`](crate::Engine) splits a fleet's PEs by a
//! [`Partition`], and [`pair_level`] is both the level a worker pair's
//! frames are stamped and counted with and the one
//! [`NoMachine::dbsp_time`](crate::NoMachine::dbsp_time) charges, so
//! the two accountings agree by construction.

use std::ops::Range;

/// The static PE → worker partition of one distributed kernel run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Partition {
    /// Total PEs `N`.
    pub n_pes: usize,
    /// Worker (shard) count `W`, a power of two dividing `N`.
    pub workers: usize,
}

impl Partition {
    /// A partition of `n_pes` PEs over `workers` processes.
    ///
    /// `workers` must be a power of two (the D-BSP halving structure)
    /// that divides `n_pes` (contiguous equal shares).
    pub fn new(n_pes: usize, workers: usize) -> Self {
        assert!(workers >= 1 && workers.is_power_of_two(), "W must be 2^k");
        assert!(
            n_pes >= workers && n_pes.is_multiple_of(workers),
            "W = {workers} must divide N = {n_pes}"
        );
        Self { n_pes, workers }
    }

    /// PEs per worker.
    pub fn share(&self) -> usize {
        self.n_pes / self.workers
    }

    /// The worker owning `pe`.
    pub fn owner(&self, pe: usize) -> usize {
        debug_assert!(pe < self.n_pes);
        pe / self.share()
    }

    /// The contiguous PE range worker `w` owns.
    pub fn range(&self, w: usize) -> Range<usize> {
        debug_assert!(w < self.workers);
        w * self.share()..(w + 1) * self.share()
    }
}

/// Number of cluster levels of a machine of `p` processors: `log₂ p`.
/// Level `0` is the whole machine; level `log₂ p − 1` is processor
/// pairs.
pub fn num_levels(p: usize) -> usize {
    debug_assert!(p.is_power_of_two());
    p.trailing_zeros() as usize
}

/// The per-level word counters a fleet of `workers` keeps: one per
/// cluster level, and one for a lone worker, which has no level.
pub fn level_counters(workers: usize) -> usize {
    num_levels(workers).max(1)
}

/// The finest D-BSP cluster level containing both processors `a` and
/// `b` (`a != b`) of `p`: clusters of size `p / 2^level`, so the level
/// is the number of high bits `a` and `b` share.
pub fn pair_level(a: usize, b: usize, p: usize) -> usize {
    debug_assert!(a != b && a < p && b < p);
    let top = usize::BITS as usize - (a ^ b).leading_zeros() as usize;
    num_levels(p) - top
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_owns_contiguous_equal_shares() {
        let p = Partition::new(64, 4);
        assert_eq!(p.share(), 16);
        assert_eq!(p.range(0), 0..16);
        assert_eq!(p.range(3), 48..64);
        for pe in 0..64 {
            let w = p.owner(pe);
            assert!(p.range(w).contains(&pe));
        }
    }

    #[test]
    fn pair_levels_halve_like_dbsp_clusters() {
        // W = 8: level 2 = pairs, level 1 = quads, level 0 = whole fleet.
        assert_eq!(num_levels(8), 3);
        assert_eq!(pair_level(0, 1, 8), 2);
        assert_eq!(pair_level(2, 3, 8), 2);
        assert_eq!(pair_level(0, 2, 8), 1);
        assert_eq!(pair_level(1, 3, 8), 1);
        assert_eq!(pair_level(0, 4, 8), 0);
        assert_eq!(pair_level(3, 7, 8), 0);
        // W = 2: a single level.
        assert_eq!(num_levels(2), 1);
        assert_eq!(pair_level(0, 1, 2), 0);
        // A lone worker counts its (zero) words on one level.
        assert_eq!(level_counters(1), 1);
        assert_eq!(level_counters(8), 3);
    }
}
