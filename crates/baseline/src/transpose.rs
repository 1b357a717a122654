//! Transposition baselines: the naive column walk and the parallelized
//! recursive cache-oblivious transpose (\[1\], discussed under Fig. 2).

use mo_core::{Arr, ForkHint, Program, Recorder};

/// Naive transpose: `out[j][i] = a[i][j]` scanned in input order, so the
/// writes stride by `n` and miss on every block once `n > C/B`.
pub fn naive_transpose_program(data: &[u64], n: usize) -> (Program, Arr) {
    assert_eq!(data.len(), n * n);
    let mut h = None;
    let program = Recorder::record(2 * n * n, |rec| {
        let a = rec.alloc_init(data);
        let out = rec.alloc(n * n);
        rec.cgc_for(n * n, |rec, k| {
            let (i, j) = (k / n, k % n);
            let v = rec.read(a, i * n + j);
            rec.write(out, j * n + i, v);
        });
        h = Some(out);
    });
    (program, h.unwrap())
}

/// Parallel recursive cache-oblivious transpose: quadrant recursion with
/// SB forks. Matches MO-MT's cache bound but has `Θ(log n)` critical
/// pathlength (the comparison the paper makes below Fig. 2).
pub fn recursive_transpose_program(data: &[u64], n: usize) -> (Program, Arr) {
    assert!(n.is_power_of_two());
    assert_eq!(data.len(), n * n);
    #[allow(clippy::too_many_arguments)]
    fn rec_t(
        rec: &mut Recorder,
        a: Arr,
        out: Arr,
        n: usize,
        i0: usize,
        j0: usize,
        ilen: usize,
        jlen: usize,
    ) {
        if ilen * jlen <= 64 {
            for i in i0..i0 + ilen {
                for j in j0..j0 + jlen {
                    let v = rec.read(a, i * n + j);
                    rec.write(out, j * n + i, v);
                }
            }
            return;
        }
        // Split the larger dimension; the two halves are independent.
        if ilen >= jlen {
            let h = ilen / 2;
            rec.fork2(
                ForkHint::Sb,
                2 * h * jlen,
                move |r| rec_t(r, a, out, n, i0, j0, h, jlen),
                2 * (ilen - h) * jlen,
                move |r| rec_t(r, a, out, n, i0 + h, j0, ilen - h, jlen),
            );
        } else {
            let h = jlen / 2;
            rec.fork2(
                ForkHint::Sb,
                2 * ilen * h,
                move |r| rec_t(r, a, out, n, i0, j0, ilen, h),
                2 * ilen * (jlen - h),
                move |r| rec_t(r, a, out, n, i0, j0 + h, ilen, jlen - h),
            );
        }
    }
    let mut hh = None;
    let program = Recorder::record(2 * n * n, |rec| {
        let a = rec.alloc_init(data);
        let out = rec.alloc(n * n);
        rec_t(rec, a, out, n, 0, 0, n, n);
        hh = Some(out);
    });
    (program, hh.unwrap())
}

/// Real (wall-clock) naive transpose: `bench_rt`'s serial side of the
/// `transpose` row.
pub fn naive_transpose(a: &[f64], out: &mut [f64], n: usize) {
    for i in 0..n {
        for j in 0..n {
            out[j * n + i] = a[i * n + j];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hm_model::MachineSpec;
    use mo_core::sched::{simulate, Policy};

    fn data(n: usize) -> Vec<u64> {
        (0..(n * n) as u64).collect()
    }

    fn check(prog: &Program, out: Arr, d: &[u64], n: usize) {
        let got = prog.slice(out);
        for i in 0..n {
            for j in 0..n {
                assert_eq!(got[j * n + i], d[i * n + j]);
            }
        }
    }

    #[test]
    fn both_baselines_transpose_correctly() {
        let n = 32;
        let d = data(n);
        let (p1, o1) = naive_transpose_program(&d, n);
        check(&p1, o1, &d, n);
        let (p2, o2) = recursive_transpose_program(&d, n);
        check(&p2, o2, &d, n);
    }

    /// The naive transpose misses ~once per element at L1 once rows
    /// exceed the cache, i.e. ~B× worse than MO-MT.
    #[test]
    fn naive_transpose_thrashes() {
        let n = 128; // n*n = 16384 >> C1 = 1024
        let d = data(n);
        let (prog, _) = naive_transpose_program(&d, n);
        let spec = MachineSpec::three_level(1, 1 << 10, 8, 1 << 17, 32).unwrap();
        let r = simulate(&prog, &spec, Policy::Serial);
        // Writes stride n: every write misses. Reads scan: n²/B.
        let floor = (n * n) as u64;
        assert!(
            r.cache_complexity(1) >= floor,
            "expected thrashing: {} < {floor}",
            r.cache_complexity(1)
        );
    }

    /// The recursive transpose is cache-efficient but pays Θ(log n)
    /// parallel depth versus MO-MT's O(B₁).
    #[test]
    fn recursive_transpose_is_cache_efficient() {
        let n = 128;
        let d = data(n);
        let (prog, _) = recursive_transpose_program(&d, n);
        let spec = MachineSpec::three_level(4, 1 << 10, 8, 1 << 17, 32).unwrap();
        let r = simulate(&prog, &spec, Policy::Mo);
        let scan = 2 * (n * n) as u64 / 8;
        assert!(
            r.cache_complexity(1) < 2 * scan / 4 + 200,
            "misses {} vs ~scan/p {}",
            r.cache_complexity(1),
            scan / 4
        );
    }
}
