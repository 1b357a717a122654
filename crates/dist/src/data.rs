//! Deterministic job inputs and checksums.
//!
//! Every worker regenerates the full input from `(n, seed)` and loads
//! only its owned PEs; the router regenerates it too for simulator
//! comparison. Nothing input-sized ever crosses the control channel.

/// LCG keys for the distributed sort (one per PE).
pub fn sort_input(n: usize, seed: u64) -> Vec<u64> {
    let mut x = seed | 1;
    (0..n)
        .map(|_| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            x >> 33
        })
        .collect()
}

/// A Floyd–Warshall distance matrix for the distributed N-GEP (the
/// min-plus GEP instance: sparse random arcs over an `n × n` matrix,
/// zero diagonal, `∞` elsewhere).
pub fn ngep_input(n: usize, seed: u64) -> Vec<f64> {
    let mut d = Vec::new();
    ngep_input_into(n, seed, &mut d);
    d
}

/// [`ngep_input`] written into `d` (its contents replaced, its
/// allocation reused).
pub fn ngep_input_into(n: usize, seed: u64, d: &mut Vec<f64>) {
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

/// The Floyd–Warshall GEP update: `x ← min(x, u + v)`.
pub fn fw_update(x: f64, u: f64, v: f64, _w: f64) -> f64 {
    x.min(u + v)
}

/// FNV-1a over a word stream: the fleet's output checksum (computed
/// identically over simulator output and assembled socket output, so
/// equality means bit-identical results).
pub fn checksum_words(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_are_deterministic_and_seed_sensitive() {
        assert_eq!(sort_input(64, 7), sort_input(64, 7));
        assert_ne!(sort_input(64, 7), sort_input(64, 8));
        assert_eq!(ngep_input(16, 3), ngep_input(16, 3));
        assert_ne!(ngep_input(16, 3), ngep_input(16, 4));
    }

    #[test]
    fn checksum_sees_every_bit() {
        let base = checksum_words([1u64, 2, 3]);
        assert_ne!(base, checksum_words([1u64, 2, 2]));
        assert_ne!(base, checksum_words([1u64, 2]));
        assert_eq!(base, checksum_words(vec![1u64, 2, 3]));
    }
}
