//! The one log₂ histogram: bucket rule and plain value type, owned by
//! whoever records into it (mo-serve's latency rows live under the
//! server's one lock).
//!
//! Every duration or length the tree buckets — mo-serve's per-kernel
//! latency (µs), the request-span phases (ns), the fleet's barrier
//! waits (ns), CGC segment lengths (words) — goes through
//! [`bucket_of`], so every layer agrees on where an observation lands
//! and the Prometheus renderer ([`crate::prom::Family::hist`]) can
//! label bucket `i` with an *inclusive* `le = 2^i`.
//!
//! The histogram is unit-agnostic: the caller picks the unit and keeps
//! it (`sum` is in that unit, quantiles come back in it).

/// Buckets per histogram. Bucket `i < NBUCKETS - 1` counts observations
/// in `(2^(i-1), 2^i]` (bucket 0 counts 0 and 1); the last bucket is
/// open-ended and takes everything above `2^(NBUCKETS - 2)`.
pub const NBUCKETS: usize = 64;

/// The bucket an observation of `v` lands in: the smallest `i` with
/// `v ≤ 2^i`, clamped to the open-ended last bucket.
pub fn bucket_of(v: u64) -> usize {
    (64 - v.saturating_sub(1).leading_zeros() as usize).min(NBUCKETS - 1)
}

/// Inclusive upper bound of bucket `i`; `None` for the open-ended last
/// bucket.
pub fn bucket_upper(i: usize) -> Option<u64> {
    (i < NBUCKETS - 1).then(|| 1u64 << i)
}

/// A log₂ histogram as plain data: non-cumulative bucket counts plus
/// the count and sum a Prometheus `_count` / `_sum` pair needs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Log2Hist {
    /// Per-bucket counts (see [`NBUCKETS`] for the bucket bounds).
    pub buckets: [u64; NBUCKETS],
    /// Observations recorded.
    pub count: u64,
    /// Sum of all recorded observations, in the caller's unit.
    pub sum: u64,
}

impl Default for Log2Hist {
    fn default() -> Self {
        Self {
            buckets: [0; NBUCKETS],
            count: 0,
            sum: 0,
        }
    }
}

impl Log2Hist {
    /// Record one observation.
    pub fn push(&mut self, v: u64) {
        self.buckets[bucket_of(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
    }

    /// Upper bound of the bucket holding quantile `q` (0 when empty,
    /// `u64::MAX` in the open-ended bucket). Coarse by construction
    /// (factor-of-two buckets) but monotone and allocation-free.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_upper(i).unwrap_or(u64::MAX);
            }
        }
        u64::MAX
    }

    /// Observations known to be `≤ bound`: the counts of every bucket
    /// whose whole range sits at or under it.
    pub fn count_at_most(&self, bound: u64) -> u64 {
        let whole = (0..NBUCKETS).take_while(|&i| bucket_upper(i).is_some_and(|u| u <= bound));
        whole.map(|i| self.buckets[i]).sum()
    }

    /// Mean observation (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The observations recorded between `prev` and `self`, two
    /// snapshots of one recorder. Saturating, so a mismatched pair
    /// yields zeros instead of a panic.
    pub fn delta_since(&self, prev: &Self) -> Self {
        Self {
            buckets: std::array::from_fn(|i| self.buckets[i].saturating_sub(prev.buckets[i])),
            count: self.count.saturating_sub(prev.count),
            sum: self.sum.saturating_sub(prev.sum),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prom::{check_histograms, parse, PromText};

    #[test]
    fn bucket_bounds_are_inclusive_above_and_exclusive_below() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 0);
        assert_eq!(bucket_of(2), 1);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 2);
        assert_eq!(bucket_of(5), 3);
        assert_eq!(bucket_of(1 << 62), 62);
        assert_eq!(bucket_of((1 << 62) + 1), NBUCKETS - 1);
        assert_eq!(bucket_of(u64::MAX), NBUCKETS - 1);
        assert_eq!(bucket_upper(10), Some(1024));
        assert_eq!(bucket_upper(NBUCKETS - 1), None);
    }

    /// The bucket-edge satellite: an observation of `v` must be counted
    /// under the first `le ≥ v` of the rendered ladder, all the way
    /// through record → render → parse → check.
    #[test]
    fn observations_land_under_the_first_le_that_covers_them() {
        for k in [0u32, 1, 10, 46, 47, 62, 63] {
            let p = 1u64 << k;
            for v in [p - 1, p, p.saturating_add(1)] {
                let mut h = Log2Hist::default();
                h.push(v);
                let mut w = PromText::new();
                // One native unit per "second": every `le` is an exact
                // power of two on the wire.
                w.histogram("edge", "Edge probe.").hist(&[], &h, 1.0);
                let samples = parse(&w.finish()).expect("valid exposition");
                assert_eq!(check_histograms(&samples), Ok(1));
                let first_counted = samples
                    .iter()
                    .filter(|s| s.name == "edge_bucket" && s.value == 1.0)
                    .map(|s| s.label("le").expect("bucket carries le").to_string())
                    .next()
                    .expect("+Inf counts everything");
                let want = (0..NBUCKETS - 1)
                    .map(|i| 1u64 << i)
                    .find(|&le| le >= v)
                    .map_or("+Inf".to_string(), |le| format!("{}", le as f64));
                assert_eq!(first_counted, want, "v = {v} (k = {k})");
            }
        }
    }

    #[test]
    fn quantiles_hit_bucket_upper_bounds() {
        let mut h = Log2Hist::default();
        for _ in 0..99 {
            h.push(1_000); // bucket 10 (≤ 1024)
        }
        h.push(1_000_000); // bucket 20 (≤ 2^20)
        assert_eq!(h.quantile(0.50), 1 << 10);
        assert_eq!(h.quantile(0.99), 1 << 10);
        assert_eq!(h.quantile(1.0), 1 << 20);
        assert_eq!(h.mean(), (99.0 * 1_000.0 + 1_000_000.0) / 100.0);
        assert_eq!(Log2Hist::default().quantile(0.5), 0);
        assert_eq!(Log2Hist::default().mean(), 0.0);
        // Only buckets wholly under the bound count: 1 000 sits in
        // (512, 1024], which 1 023 does not cover.
        assert_eq!(h.count_at_most(1_023), 0);
        assert_eq!(h.count_at_most(1_024), 99);
        assert_eq!(h.count_at_most(u64::MAX), 100);
    }

    #[test]
    fn deltas_count_the_interval_and_saturate() {
        let mut h = Log2Hist::default();
        for v in [0, 1, 2, 3, 1024, 1025, u64::MAX / 4] {
            h.push(v);
        }
        let before = h.clone();
        h.push(7);
        let d = h.delta_since(&before);
        assert_eq!((d.count, d.sum, d.buckets[3]), (1, 7, 1));
        // A mismatched pair saturates to an empty histogram.
        assert_eq!(before.delta_since(&h), Log2Hist::default());
    }
}
