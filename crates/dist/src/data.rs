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

/// The N-GEP job's input, a Floyd–Warshall distance matrix, and its
/// update, named here too; [`no_framework::gep`] defines both.
pub use no_framework::gep::{fw_instance as ngep_input, fw_update};

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
    fn sort_inputs_are_deterministic_and_seed_sensitive() {
        assert_eq!(sort_input(64, 7), sort_input(64, 7));
        assert_ne!(sort_input(64, 7), sort_input(64, 8));
    }

    #[test]
    fn checksum_sees_every_bit() {
        let base = checksum_words([1u64, 2, 3]);
        assert_ne!(base, checksum_words([1u64, 2, 2]));
        assert_ne!(base, checksum_words([1u64, 2]));
        assert_eq!(base, checksum_words(vec![1u64, 2, 3]));
    }
}
