//! Matrix-multiplication baselines: the unblocked triple loop and the
//! resource-aware tiled GEP (the paper's non-oblivious comparator).

use mo_core::{spawn, Arr, ForkHint, Program, Recorder, Spawn};

/// Naive `ijk` multiplication, recorded. For `n > C`, the column walk
/// over `B` misses on almost every access: `Θ(n³)` level-1 misses versus
/// I-GEP's `Θ(n³/(B√C))`.
pub fn naive_matmul_program(a: &[f64], b: &[f64], n: usize) -> (Program, Arr) {
    assert_eq!(a.len(), n * n);
    assert_eq!(b.len(), n * n);
    let mut h = None;
    let program = Recorder::record(4 * n * n, |rec| {
        let ma = rec.alloc_init_f64(a);
        let mb = rec.alloc_init_f64(b);
        let mc = rec.alloc(n * n);
        rec.cgc_for(n, |rec, i| {
            for j in 0..n {
                let mut acc = 0.0;
                for k in 0..n {
                    let av = rec.read_f64(ma, i * n + k);
                    let bv = rec.read_f64(mb, k * n + j);
                    acc += av * bv;
                }
                rec.write_f64(mc, i * n + j, acc);
            }
        });
        h = Some(mc);
    });
    (program, h.unwrap())
}

/// Resource-aware tiled multiplication: `tile` is chosen from the machine
/// (e.g. `√(C₁/4)`), which is exactly what a multicore-oblivious
/// algorithm is not allowed to do. Cache-optimal when tuned — the
/// interesting experiment is how it degrades on a *different* machine
/// than it was tuned for, while I-GEP does not.
pub fn tiled_matmul_program(a: &[f64], b: &[f64], n: usize, tile: usize) -> (Program, Arr) {
    assert_eq!(a.len(), n * n);
    assert_eq!(b.len(), n * n);
    assert!(tile >= 1 && n.is_multiple_of(tile));
    let nt = n / tile;
    let mut h = None;
    let program = Recorder::record(4 * n * n, |rec| {
        let ma = rec.alloc_init_f64(a);
        let mb = rec.alloc_init_f64(b);
        let mc = rec.alloc(n * n);
        // One parallel task per C-tile; each walks its k-tiles serially.
        // The *resident* working set per k-step is ~4·tile² (how `tile`
        // is tuned), but s(τ) declares the task's full footprint: its C
        // tile plus the row band of A and column band of B it sweeps.
        let children: Vec<Spawn<'_>> = (0..nt * nt)
            .map(|t| {
                let (ti, tj) = (t / nt, t % nt);
                spawn(tile * tile + 2 * tile * n, move |rec: &mut Recorder| {
                    for tk in 0..nt {
                        for i in ti * tile..(ti + 1) * tile {
                            for k in tk * tile..(tk + 1) * tile {
                                let av = rec.read_f64(ma, i * n + k);
                                for j in tj * tile..(tj + 1) * tile {
                                    let bv = rec.read_f64(mb, k * n + j);
                                    let cv = rec.read_f64(mc, i * n + j);
                                    rec.write_f64(mc, i * n + j, cv + av * bv);
                                }
                            }
                        }
                    }
                })
            })
            .collect();
        rec.fork(ForkHint::CgcSb, children);
        h = Some(mc);
    });
    (program, h.unwrap())
}

/// Real (wall-clock) naive multiplication: `bench_rt`'s serial side of
/// the `matmul` row.
pub fn naive_matmul(c: &mut [f64], a: &[f64], b: &[f64], n: usize) {
    for i in 0..n {
        for j in 0..n {
            let mut acc = 0.0;
            for k in 0..n {
                acc += a[i * n + k] * b[k * n + j];
            }
            c[i * n + j] += acc;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hm_model::MachineSpec;
    use mo_core::sched::{simulate, Policy};

    fn rand_mat(n: usize, seed: u64) -> Vec<f64> {
        let mut x = seed | 1;
        (0..n * n)
            .map(|_| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                ((x >> 40) as f64) / 65536.0
            })
            .collect()
    }

    fn reference(a: &[f64], b: &[f64], n: usize) -> Vec<f64> {
        let mut c = vec![0.0; n * n];
        for i in 0..n {
            for k in 0..n {
                for j in 0..n {
                    c[i * n + j] += a[i * n + k] * b[k * n + j];
                }
            }
        }
        c
    }

    #[test]
    #[allow(clippy::needless_range_loop)]
    fn baselines_multiply_correctly() {
        let n = 16;
        let (a, b) = (rand_mat(n, 1), rand_mat(n, 2));
        let want = reference(&a, &b, n);
        let (p1, c1) = naive_matmul_program(&a, &b, n);
        let (p2, c2) = tiled_matmul_program(&a, &b, n, 4);
        for t in 0..n * n {
            assert!((p1.get_f64(c1, t) - want[t]).abs() < 1e-9);
            assert!((p2.get_f64(c2, t) - want[t]).abs() < 1e-9);
        }
    }

    /// Tiling beats the naive loop on cache misses by ~the tile factor.
    #[test]
    fn tiled_beats_naive_on_misses() {
        let n = 64;
        let (a, b) = (rand_mat(n, 3), rand_mat(n, 4));
        let spec = MachineSpec::three_level(1, 1 << 10, 8, 1 << 16, 32).unwrap();
        let (pn, _) = naive_matmul_program(&a, &b, n);
        let (pt, _) = tiled_matmul_program(&a, &b, n, 16); // 4·16² = 1024 = C1
        let rn = simulate(&pn, &spec, Policy::Serial);
        let rt = simulate(&pt, &spec, Policy::Serial);
        assert!(
            rt.cache_complexity(1) * 3 < rn.cache_complexity(1),
            "tiled {} vs naive {}",
            rt.cache_complexity(1),
            rn.cache_complexity(1)
        );
    }
}
