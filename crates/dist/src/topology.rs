//! The router's consistent-hash ring. A fleet job's D-BSP shape is
//! `no_framework`'s [`Partition`](no_framework::Partition), beside the
//! engine that splits the PEs by it.

/// SplitMix64: the ring's point hash (and the job-key mixer).
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e3779b97f4a7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
    x ^ (x >> 31)
}

/// The routing key of a single-shard job (FNV over the kernel name,
/// mixed with size and seed).
pub fn job_key(kernel: &str, n: u64, seed: u64) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for &b in kernel.as_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    mix(h ^ mix(n) ^ mix(seed.rotate_left(17)))
}

/// A consistent-hash ring mapping job keys to shards.
///
/// Each shard contributes `vnodes` pseudo-random points on the `u64`
/// ring; a key routes to the first point clockwise. Adding or removing
/// one shard therefore remaps only the arcs its own points cover —
/// about `1/W` of the keyspace — leaving every other assignment
/// untouched.
#[derive(Debug, Clone)]
pub struct HashRing {
    /// Sorted `(point, shard)` pairs.
    points: Vec<(u64, u32)>,
    vnodes: usize,
}

impl HashRing {
    /// A ring over `shards`, each with `vnodes` virtual points.
    pub fn new(shards: impl IntoIterator<Item = u32>, vnodes: usize) -> Self {
        assert!(vnodes >= 1);
        let mut ring = Self {
            points: Vec::new(),
            vnodes,
        };
        for s in shards {
            ring.add(s);
        }
        ring
    }

    fn shard_points(shard: u32, vnodes: usize) -> impl Iterator<Item = (u64, u32)> {
        (0..vnodes as u64)
            .map(move |v| (mix(mix(shard as u64 + 1) ^ mix(v.wrapping_add(41))), shard))
    }

    /// Insert `shard`'s points.
    pub fn add(&mut self, shard: u32) {
        self.points.extend(Self::shard_points(shard, self.vnodes));
        self.points.sort_unstable();
    }

    /// Remove `shard`'s points.
    pub fn remove(&mut self, shard: u32) {
        self.points.retain(|&(_, s)| s != shard);
    }

    /// Number of distinct shards on the ring.
    pub fn shards(&self) -> usize {
        let mut seen: Vec<u32> = self.points.iter().map(|&(_, s)| s).collect();
        seen.sort_unstable();
        seen.dedup();
        seen.len()
    }

    /// The shard owning `key` (first point clockwise, wrapping).
    ///
    /// Panics if the ring is empty.
    pub fn route(&self, key: u64) -> u32 {
        assert!(!self.points.is_empty(), "empty hash ring");
        let idx = self.points.partition_point(|&(p, _)| p < key);
        self.points[idx % self.points.len()].1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Satellite: key distribution across shards is balanced within 2x
    /// of the ideal share.
    #[test]
    fn ring_distributes_keys_within_2x_of_ideal() {
        for shards in [4usize, 8] {
            let ring = HashRing::new(0..shards as u32, 128);
            let keys = 40_000usize;
            let mut counts = vec![0usize; shards];
            for k in 0..keys {
                counts[ring.route(mix(k as u64)) as usize] += 1;
            }
            let ideal = keys as f64 / shards as f64;
            for (s, &c) in counts.iter().enumerate() {
                assert!(
                    (c as f64) < 2.0 * ideal && (c as f64) > ideal / 2.0,
                    "shard {s}/{shards} holds {c} of {keys} keys (ideal {ideal})"
                );
            }
        }
    }

    /// Satellite: adding a shard remaps only ~1/(W+1) of the keyspace;
    /// removing one remaps exactly the keys it held.
    #[test]
    fn ring_remaps_about_one_nth_on_membership_change() {
        let shards = 8u32;
        let mut ring = HashRing::new(0..shards, 128);
        let keys: Vec<u64> = (0..40_000u64).map(mix).collect();
        let before: Vec<u32> = keys.iter().map(|&k| ring.route(k)).collect();

        // Add shard 8: moved fraction ≈ 1/9, and every moved key lands
        // on the new shard (no shuffling among survivors).
        ring.add(shards);
        let after: Vec<u32> = keys.iter().map(|&k| ring.route(k)).collect();
        let moved: Vec<(u32, u32)> = before
            .iter()
            .zip(&after)
            .filter(|(b, a)| b != a)
            .map(|(&b, &a)| (b, a))
            .collect();
        let frac = moved.len() as f64 / keys.len() as f64;
        let ideal = 1.0 / (shards as f64 + 1.0);
        assert!(
            frac < 2.0 * ideal && frac > ideal / 2.0,
            "add remapped {frac:.4} of keyspace (ideal {ideal:.4})"
        );
        assert!(moved.iter().all(|&(_, a)| a == shards), "survivor shuffled");

        // Remove it again: assignments return exactly to `before`, and
        // only the removed shard's keys moved.
        ring.remove(shards);
        let restored: Vec<u32> = keys.iter().map(|&k| ring.route(k)).collect();
        assert_eq!(restored, before);
    }

    #[test]
    fn job_keys_spread_kernels_apart() {
        let a = job_key("sort", 1000, 1);
        let b = job_key("fft", 1000, 1);
        let c = job_key("sort", 1000, 2);
        assert_ne!(a, b);
        assert_ne!(a, c);
        // Same spec, same key: routing is deterministic.
        assert_eq!(a, job_key("sort", 1000, 1));
    }
}
