//! Runtime perf trajectory: every real kernel against its serial
//! baseline, appended as one row to `BENCH_rt.json` at the repo root.
//!
//! A full run appends one row through [`mo_bench::traj::append`] —
//! median-of-k nanoseconds per kernel, serial vs pool, stamped with the
//! harness, the commit it measured and the host (CPU model, cores and
//! every cache level) — so successive PRs grow the runtime's wall-clock
//! trajectory in version control. `--out FILE` names another file to
//! append to. A file that is not a row list is refused and left as it
//! was.
//!
//! `--smoke` runs tiny sizes, writes nothing, and asserts that every
//! kernel's checksum (via the registry's deterministic seed-generated
//! jobs) is identical on a 1-core pool and on the detected pool: a
//! cheap CI guard that the work-stealing runtime never changes results.

use std::hint::black_box;
use std::time::Instant;

use mo_algorithms::real::registry::{run_kernel, Kernel};
use mo_algorithms::real::{
    fft, floyd_warshall, matmul, sort, spmdv, spms_with_params, transpose, SpmsParams, C64,
    SPMS_LEAF, SPMS_SERIAL_CUTOFF,
};
use mo_baselines::matmul::naive_matmul;
use mo_baselines::transpose::naive_transpose;
use mo_core::certify::json::Json;
use mo_core::rt::{HwHierarchy, SbPool};
use no_framework::gep::{fw_update, gep_reference, UpdateSet};

/// Interleaved paired measurement: `f(false)` is the serial side,
/// `f(true)` the pool side. The two are sampled alternately —
/// serial, pool, serial, pool, … — so a slow phase on a shared host
/// taxes both sides of every pair about equally, and the speedup is
/// the *median of per-pair ratios*, which shrugs off drift that a
/// ratio of two block medians (all serial reps first, all pool reps
/// a hundred milliseconds later) soaks up whole. Returns
/// `(serial_median_ns, pool_median_ns, speedup)`.
fn paired_ns(reps: usize, mut f: impl FnMut(bool)) -> (u64, u64, f64) {
    f(false);
    f(true);
    let mut ser = Vec::with_capacity(reps);
    let mut pool = Vec::with_capacity(reps);
    let mut ratios = Vec::with_capacity(reps);
    let mut time_one = |par: bool| {
        let t = Instant::now();
        f(par);
        t.elapsed().as_nanos() as u64
    };
    for i in 0..reps {
        // Alternate which side leads the pair: the trailing position
        // carries a small systematic cost (timer tick alignment, warmed
        // predictors from the leader), and alternation cancels it.
        let (s, p) = if i % 2 == 0 {
            let s = time_one(false);
            let p = time_one(true);
            (s, p)
        } else {
            let p = time_one(true);
            let s = time_one(false);
            (s, p)
        };
        ser.push(s);
        pool.push(p);
        ratios.push(s as f64 / p.max(1) as f64);
    }
    ser.sort_unstable();
    pool.sort_unstable();
    ratios.sort_by(f64::total_cmp);
    (ser[reps / 2], pool[reps / 2], ratios[reps / 2])
}

fn rand_f64(seed: u64, n: usize) -> Vec<f64> {
    let mut x = seed | 1;
    (0..n)
        .map(|_| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((x >> 40) as f64) / 65536.0
        })
        .collect()
}

/// Full-width 64-bit keys (SplitMix64) — the shape `Kernel::Sort` jobs
/// sort in the service, so the `sort` row measures the served path.
fn rand_u64(seed: u64, n: usize) -> Vec<u64> {
    let mut x = seed;
    (0..n)
        .map(|_| {
            x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        })
        .collect()
}

/// Deterministic CSR instance: `m` rows, ~`deg` nonzeros each.
fn csr(m: usize, deg: usize, seed: u64) -> (Vec<usize>, Vec<usize>, Vec<f64>) {
    let mut x = seed | 1;
    let mut row_ptr = vec![0usize];
    let mut cols = Vec::new();
    let mut vals = Vec::new();
    for _ in 0..m {
        for _ in 0..deg {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            cols.push(((x >> 33) as usize) % m);
            vals.push(((x >> 20) % 1000) as f64 * 0.125);
        }
        row_ptr.push(cols.len());
    }
    (row_ptr, cols, vals)
}

struct Row {
    kernel: &'static str,
    n: usize,
    serial_ns: u64,
    pool_ns: u64,
    speedup: f64,
}

/// The six timed rows keep their own inputs and serial comparators
/// rather than iterating the registry table: they time the served
/// entries (`real::*` under one `pool.enter`) against a serial baseline
/// on data built *outside* the timed region, which the registry's
/// seeded `run` (generate, execute, checksum in one call) does not
/// separate.
fn run_suite(pool: &SbPool, reps: usize, smoke: bool) -> Vec<Row> {
    let mut rows = Vec::new();

    // Transpose.
    let n = if smoke { 128 } else { 1024 };
    let a = rand_f64(1, n * n);
    let mut out = vec![0.0; n * n];
    let (serial_ns, pool_ns, speedup) = paired_ns(reps, |par| {
        if par {
            pool.enter(|ctx| transpose(ctx, &a, &mut out, n));
        } else {
            naive_transpose(&a, &mut out, n);
        }
    });
    rows.push(Row {
        kernel: "transpose",
        n,
        serial_ns,
        pool_ns,
        speedup,
    });

    // Matmul.
    let n = if smoke { 64 } else { 256 };
    let a = rand_f64(2, n * n);
    let b = rand_f64(3, n * n);
    let mut c = vec![0.0; n * n];
    let (serial_ns, pool_ns, speedup) = paired_ns(reps, |par| {
        c.iter_mut().for_each(|v| *v = 0.0);
        if par {
            pool.enter(|ctx| matmul(ctx, &mut c, &a, &b, n));
        } else {
            naive_matmul(&mut c, &a, &b, n);
        }
    });
    rows.push(Row {
        kernel: "matmul",
        n,
        serial_ns,
        pool_ns,
        speedup,
    });

    // FFT.
    let n = if smoke { 1 << 10 } else { 1 << 18 };
    let input: Vec<C64> = (0..n)
        .map(|t| ((t as f64 * 0.3).sin(), (t as f64 * 0.7).cos()))
        .collect();
    let mut buf = input.clone();
    let mut scratch = Vec::new();
    let (serial_ns, pool_ns, speedup) = paired_ns(reps, |par| {
        buf.copy_from_slice(&input);
        if par {
            pool.enter(|ctx| fft(Some(ctx), &mut buf, &mut scratch));
        } else {
            fft(None, &mut buf, &mut scratch);
        }
    });
    rows.push(Row {
        kernel: "fft",
        n,
        serial_ns,
        pool_ns,
        speedup,
    });

    // Sort.
    let n = if smoke { 1 << 12 } else { 1 << 20 };
    let data = rand_u64(5, n);
    let mut buf = data.clone();
    let mut scratch = Vec::new();
    let (serial_ns, pool_ns, speedup) = paired_ns(reps, |par| {
        buf.copy_from_slice(&data);
        if par {
            pool.enter(|ctx| sort(ctx, &mut buf, &mut scratch));
        } else {
            buf.sort_unstable();
        }
    });
    rows.push(Row {
        kernel: "sort",
        n,
        serial_ns,
        pool_ns,
        speedup,
    });

    // SpM-DV. The smoke size is not smaller: a 2 000-row product takes
    // 15–28 µs, as much as waking the second pool worker, and read
    // 0.53–0.71× in 3 of 6 runs on a 2-vCPU host; at 50 000 rows
    // (≈ 0.45 ms) the same host reads 0.86–1.44× in 10 of 10.
    let m = if smoke { 50_000 } else { 200_000 };
    let (row_ptr, cols, vals) = csr(m, 8, 7);
    let x: Vec<f64> = (0..m).map(|i| (i as f64 * 0.1).sin()).collect();
    let mut y = vec![0.0f64; m];
    let (serial_ns, pool_ns, speedup) = paired_ns(reps, |par| {
        if par {
            pool.enter(|ctx| spmdv(ctx, &row_ptr, &cols, &vals, &x, &mut y));
        } else {
            for (r, yr) in y.iter_mut().enumerate() {
                let mut acc = 0.0;
                for k in row_ptr[r]..row_ptr[r + 1] {
                    acc += vals[k] * x[cols[k]];
                }
                *yr = acc;
            }
        }
    });
    rows.push(Row {
        kernel: "spmdv",
        n: m,
        serial_ns,
        pool_ns,
        speedup,
    });

    // Floyd–Warshall.
    let n = if smoke { 64 } else { 256 };
    let d0 = rand_f64(9, n * n);
    let (serial_ns, pool_ns, speedup) = paired_ns(reps, |par| {
        if par {
            let mut d = d0.clone();
            pool.enter(|ctx| floyd_warshall(ctx, &mut d, n));
            black_box(d);
        } else {
            let mut d = d0.clone();
            gep_reference(&mut d, n, fw_update, UpdateSet::All);
            black_box(d);
        }
    });
    rows.push(Row {
        kernel: "floyd_warshall",
        n,
        serial_ns,
        pool_ns,
        speedup,
    });

    rows
}

/// The smoke correctness gate: registry checksums on a 1-core pool must
/// equal the detected pool's, for every kernel at an L1-sized and an
/// L2-sized working set.
fn smoke_checksums(pool: &SbPool) {
    let serial = SbPool::new(HwHierarchy::flat(1, 1 << 12, 1 << 22));
    for k in Kernel::ALL {
        for words in [1usize << 12, 1 << 15] {
            let n = k.size_within(words);
            let want = run_kernel(&serial, k, n, 42);
            let got = run_kernel(pool, k, n, 42);
            assert_eq!(
                got, want,
                "{k} n={n}: pool checksum {got:#x} != serial {want:#x}"
            );
        }
    }
    println!("smoke checksums: all kernels match the 1-core registry runs");
}

/// A kernel below this speedup is a regression — the run exits nonzero
/// (the hard CI gate) and the kernel lands in the row's
/// `"regressions"` array. The floor sits below exact parity because
/// interleaved medians on a shared runner jitter by ~10–15%; a
/// *structural* regression — the class this gate exists for, like the
/// pre-SPMS sort at 0.46x — sits far below it. Kernels in the
/// `[floor, 1.0)` band are printed as below parity but do not fail.
const REGRESSION_FLOOR: f64 = 0.8;

/// `--sweep`: sort-only size sweep for leaf tuning, on full-width keys.
/// Always drives the structured SPMS path, with the serial cutoff set to
/// zero so the radix leaf is what runs below [`SPMS_SERIAL_CUTOFF`] too —
/// the point is to see where the leaf starts to win and how the
/// structure's constants move as `n` crosses the leaf and the
/// distribution's bucket-count steps. One extra line repeats a leaf
/// size on 44-bit keys: the windowed leaf's pass count follows `n`, so
/// it should cost what the 64-bit line of that size costs.
fn sweep_sort(pool: &SbPool, reps: usize) {
    println!(
        "sort sweep (structured SPMS path; shipped cutoff = {SPMS_SERIAL_CUTOFF} keys, \
         leaf = {SPMS_LEAF} keys; median of >= {reps} pairs):"
    );
    let params = SpmsParams {
        serial_cutoff: 0,
        ..SpmsParams::default()
    };
    let sizes = [
        256usize,
        384,
        512,
        1 << 10,
        1 << 11,
        1 << 12,
        1 << 14,
        1 << 16,
        1 << 17,
        1 << 18,
        1 << 20,
        1 << 22,
    ];
    let nmax = *sizes.last().expect("sizes");
    let data = rand_u64(5, nmax);
    let narrow: Vec<u64> = data[..1 << 16].iter().map(|v| v >> 20).collect();
    let mut buf = data.clone();
    let mut scratch = vec![0u64; nmax];
    let runs = sizes
        .iter()
        .map(|&n| ("sort", &data[..n]))
        .chain([("sort 44-bit", &narrow[..])]);
    for (label, keys) in runs {
        let n = keys.len();
        // Small sizes finish inside the timer's resolution: more pairs.
        let reps = reps.max((1 << 18) / n).min(401);
        let (serial_ns, pool_ns, speedup) = paired_ns(reps, |par| {
            buf[..n].copy_from_slice(keys);
            if par {
                let (b, s) = (&mut buf[..n], &mut scratch[..n]);
                pool.enter(|ctx| spms_with_params(ctx, b, s, &params));
            } else {
                buf[..n].sort_unstable();
            }
        });
        println!(
            "{label:>16} n={n:<8} serial {serial_ns:>12} ns   spms {pool_ns:>12} ns   speedup {speedup:.3}x"
        );
    }
}

/// The commit the run measured, as `git describe --always --dirty`
/// names it, or `"unknown"` outside a git checkout.
fn commit() -> String {
    std::process::Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    if args.iter().any(|a| a == "--sweep") {
        let pool = SbPool::new(HwHierarchy::detect());
        sweep_sort(&pool, 5);
        return;
    }
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1).cloned())
        .unwrap_or_else(|| "BENCH_rt.json".to_string());
    let reps = if smoke { 3 } else { 7 };

    let pool = SbPool::new(HwHierarchy::detect());
    let cores = pool.hierarchy().cores();
    // The detected width, capped at the CPUs this process may use:
    // `taskset -c 0 bench_rt` runs (and says it runs) a width-1 pool.
    println!("cores: {cores}");
    if smoke {
        smoke_checksums(&pool);
    }
    let rows = run_suite(&pool, reps, smoke);

    let mut kernels = Vec::new();
    let mut regressions = Vec::new();
    for r in &rows {
        let marker = if r.speedup < REGRESSION_FLOOR {
            "  REGRESSION"
        } else if r.speedup < 1.0 {
            "  (below parity)"
        } else {
            ""
        };
        println!(
            "{:>16} n={:<8} serial {:>12} ns   pool {:>12} ns   speedup {:.3}x{marker}",
            r.kernel, r.n, r.serial_ns, r.pool_ns, r.speedup
        );
        if r.speedup < REGRESSION_FLOOR {
            regressions.push(r.kernel);
        }
        kernels.push(Json::obj([
            ("kernel", Json::Str(r.kernel.into())),
            ("n", Json::Num(r.n as f64)),
            ("serial_ns", Json::Num(r.serial_ns as f64)),
            ("pool_ns", Json::Num(r.pool_ns as f64)),
            ("speedup", Json::Num((r.speedup * 1e3).round() / 1e3)),
        ]));
    }
    if smoke {
        println!("smoke run: nothing written");
    } else {
        let regs = regressions.iter().map(|k| Json::Str(k.to_string()));
        let row = Json::obj([
            ("harness", Json::Str("bench_rt".into())),
            ("commit", Json::Str(commit())),
            ("host", mo_bench::traj::host(pool.hierarchy())),
            ("cores", Json::Num(cores as f64)),
            ("median_of", Json::Num(reps as f64)),
            ("kernels", Json::Arr(kernels)),
            ("regressions", Json::Arr(regs.collect())),
        ]);
        let path = std::path::Path::new(&out_path);
        if let Err(e) = mo_bench::traj::append(path, row) {
            eprintln!("cannot append to {out_path}: {e}");
            std::process::exit(2);
        }
        println!("appended a row to {out_path}");
    }
    if !regressions.is_empty() {
        // The hard gate: a kernel below the floor fails the run (and
        // with it the CI bench step) — no advisory-marker path.
        eprintln!(
            "{} kernel(s) below the {REGRESSION_FLOOR} regression floor: {}",
            regressions.len(),
            regressions.join(", ")
        );
        std::process::exit(1);
    }
}
