//! The recorded I-GEP task DAG itself, pinned: every task's space bound,
//! parent and segments, and every trace word, for Floyd–Warshall,
//! Gaussian elimination (whose pruned calls still record an empty task)
//! and matrix multiplication. The paper-table goldens pin what the
//! simulator makes of these DAGs; this pins the DAGs.

use mo_algorithms::gep::{igep_program, matmul_program, UpdateSet};
use mo_core::{ForkHint, Program, Segment};
use no_framework::gep::{fw_instance, fw_update, ge_update};

/// FNV-1a over the little-endian bytes of `words`.
fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    words
        .into_iter()
        .flat_map(u64::to_le_bytes)
        .fold(0xcbf2_9ce4_8422_2325, |h, byte| {
            (h ^ byte as u64).wrapping_mul(0x0100_0000_01b3)
        })
}

/// `(tasks, trace entries, digest)`: the digest runs over each task's
/// space, parent (`u64::MAX` for the root) and tagged segments, in task
/// order, then over every trace word.
fn dag(p: &Program) -> (usize, usize, u64) {
    let mut words = Vec::new();
    for t in p.tasks() {
        words.push(t.space as u64);
        words.push(t.parent.map_or(u64::MAX, |id| id as u64));
        for seg in &t.segments {
            match seg {
                Segment::Compute { start, end } => words.extend([0, *start as u64, *end as u64]),
                Segment::CgcLoop { start, iter_ends } => {
                    words.extend([1, *start as u64, iter_ends.len() as u64]);
                    words.extend(iter_ends.iter().map(|&e| e as u64));
                }
                Segment::Fork { hint, children } => {
                    let hint = match hint {
                        ForkHint::Sb => 0,
                        ForkHint::CgcSb => 1,
                    };
                    words.extend([2, hint, children.len() as u64]);
                    words.extend(children.iter().map(|&c| c as u64));
                }
            }
        }
        words.push(u64::MAX - 1);
    }
    words.extend(p.trace().iter().map(|e| e.0));
    (p.tasks().len(), p.trace().len(), fnv(words))
}

/// A seeded `n × n` matrix with entries in `[0.5, 1.5)` and `2n` added
/// on the diagonal: diagonally dominant, so elimination needs no pivot.
fn dominant(n: usize, seed: u64) -> Vec<f64> {
    let mut x = seed | 1;
    let mut a: Vec<f64> = (0..n * n)
        .map(|_| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((x >> 11) as f64) / (1u64 << 53) as f64 + 0.5
        })
        .collect();
    for i in 0..n {
        a[i * n + i] += 2.0 * n as f64;
    }
    a
}

#[test]
fn the_recorded_igep_dags_are_pinned() {
    let fw = igep_program(&fw_instance(64, 12345), 64, fw_update, UpdateSet::All);
    let ge = igep_program(&dominant(32, 7), 32, ge_update, UpdateSet::KBelowMin);
    let mm = matmul_program(&dominant(64, 1), &dominant(64, 2), 64);
    let got = [dag(&fw.program), dag(&ge.program), dag(&mm.program)];
    #[rustfmt::skip]
    let want = [
        (585, 1_310_720, 0x85d0_015b_f93f_a83a),
        (49, 52_080, 0x37e4_b1ec_27cb_0625),
        (585, 1_310_720, 0xa979_b4f0_d898_73c2),
    ];
    assert_eq!(
        got, want,
        "(tasks, entries, digest) of FW 64, GE 32, matmul 64"
    );
}
