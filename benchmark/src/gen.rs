//! The seeded input generator: the benchmark's own SplitMix64, the
//! scenario-file reader, and the op-list builder. The program under
//! test only ever sees what is generated here.

use mo_algorithms::real::registry::Kernel;

/// SplitMix64 (Steele, Lea, Flood 2014): every benchmark input — job
/// order, kernel seeds, sort and N-GEP data seeds — is drawn from one
/// of these, itself seeded by `--seed`.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    /// A generator for one named purpose, so adding a draw in one
    /// place never shifts the values another place sees.
    pub fn stream(seed: u64, purpose: &str) -> Self {
        let mut h = seed ^ 0x6d6f_2d62_656e_6368; // "mo-bench"
        for b in purpose.bytes() {
            h = (h ^ b as u64).wrapping_mul(0x100_0000_01b3);
        }
        let mut g = Self(h);
        g.next_u64();
        g
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..bound` (`bound ≥ 1`); the modulo bias is below
    /// 2⁻⁴⁰ for every bound used here.
    pub fn below(&mut self, bound: usize) -> usize {
        (self.next_u64() % bound as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// One job class of a scenario file: `kernel  size  weight`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Class {
    pub kernel: Kernel,
    pub n: usize,
    /// Occurrences per scenario unit.
    pub weight: usize,
}

impl Class {
    /// `sort-2048`: the suffix of the per-class metric names.
    pub fn label(&self) -> String {
        format!("{}-{}", self.kernel.name(), self.n)
    }
}

/// Non-comment lines of a scenario file, split into tokens.
pub fn scenario_lines(text: &str) -> Vec<Vec<&str>> {
    text.lines()
        .map(|l| l.split('#').next().unwrap_or("").trim())
        .filter(|l| !l.is_empty())
        .map(|l| l.split_whitespace().collect())
        .collect()
}

/// Parse a `kernel size weight` scenario. The files are compiled into
/// the binary, so a malformed one is a bug in the benchmark and panics
/// with the offending line.
pub fn parse_classes(text: &str) -> Vec<Class> {
    scenario_lines(text)
        .into_iter()
        .map(|t| {
            let class = match t[..] {
                [k, n, w] => Kernel::parse(k).zip(n.parse().ok()).zip(w.parse().ok()),
                _ => None,
            };
            let ((kernel, n), weight) =
                class.unwrap_or_else(|| panic!("malformed scenario line: {t:?}"));
            Class { kernel, n, weight }
        })
        .collect()
}

/// One operation of a round: which class, and which of the class's
/// kernel seeds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Op {
    pub class: u16,
    pub kseed: u8,
}

/// Kernel seeds per class. A small pool keeps the expected outputs
/// computable before timing starts (`classes × KSEEDS` reference runs).
pub const KSEEDS: usize = 4;

/// `units` copies of the scenario's class multiset (each class
/// `weight` times per unit), kernel seeds cycling through the pool,
/// in an order drawn from `rng`. The multiset is the same for every
/// seed — only order and values change — so costs are comparable
/// across seeds and exact counters repeat.
pub fn op_list(classes: &[Class], units: usize, rng: &mut SplitMix64) -> Vec<Op> {
    let mut ops = Vec::new();
    for (ci, c) in classes.iter().enumerate() {
        for i in 0..c.weight * units {
            ops.push(Op {
                class: ci as u16,
                kseed: (i % KSEEDS) as u8,
            });
        }
    }
    rng.shuffle(&mut ops);
    ops
}

/// `KSEEDS` kernel seeds for each class, drawn from `rng`.
pub fn kernel_seeds(classes: usize, rng: &mut SplitMix64) -> Vec<[u64; KSEEDS]> {
    (0..classes)
        .map(|_| std::array::from_fn(|_| rng.next_u64()))
        .collect()
}
