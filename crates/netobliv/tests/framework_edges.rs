//! Edge cases for the M(N)/M(p,B)/D-BSP framework and NO algorithms.

use no_framework::algs;
use no_framework::NoMachine;

#[test]
fn processor_mapping_handles_non_dividing_p() {
    // N = 10 PEs on p = 3 processors: groups of ceil(10/3) = 4.
    let mut m = NoMachine::new(10);
    // PE 0 → PE 9: crosses processors 0 → 2.
    m.step(|pe, ctx| {
        if pe == 0 {
            ctx.send(9, 1);
        }
    });
    assert_eq!(m.communication_complexity(3, 1), 1);
    // PE 0 → PE 3: same processor (both in [0,4)): free.
    let mut m2 = NoMachine::new(10);
    m2.step(|pe, ctx| {
        if pe == 0 {
            ctx.send(3, 1);
        }
    });
    assert_eq!(m2.communication_complexity(3, 1), 0);
}

#[test]
fn communication_is_monotone_in_block_size_generally() {
    let mut m = NoMachine::new(32);
    let mut x = 5u64;
    for _ in 0..4 {
        m.step(|pe, ctx| {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(pe as u64);
            let dst = ((x >> 33) as usize) % 32;
            if dst != pe {
                ctx.send_words(dst, &[1, 2, 3]);
            }
        });
    }
    for p in [2usize, 4, 8] {
        let mut last = u64::MAX;
        for b in [1usize, 2, 4, 8] {
            let c = m.communication_complexity(p, b);
            assert!(c <= last, "p={p} B={b}");
            last = c;
        }
    }
}

#[test]
fn dbsp_degenerates_to_zero_for_single_processor() {
    let mut m = NoMachine::new(8);
    m.step(|pe, ctx| ctx.send((pe + 1) % 8, 1));
    assert_eq!(m.dbsp_time(1, &[], &[]), 0.0);
}

#[test]
fn dbsp_charges_more_for_global_than_local_traffic() {
    // Identical word volumes; only locality differs.
    let mut local = NoMachine::new(16);
    local.step(|pe, ctx| ctx.send(pe ^ 1, 1));
    let mut global = NoMachine::new(16);
    global.step(|pe, ctx| ctx.send(pe ^ 8, 1));
    let g = [8.0, 4.0, 2.0, 1.0];
    let b = [1usize, 1, 1, 1];
    let tl = local.dbsp_time(16, &g, &b);
    let tg = global.dbsp_time(16, &g, &b);
    assert!(tg > tl, "global {tg} must cost more than neighbour {tl}");
}

#[test]
fn work_charges_aggregate_per_processor() {
    let mut m = NoMachine::new(8);
    m.step(|_pe, ctx| ctx.work(3));
    // p=2: 4 PEs each → 12 ops per processor.
    assert_eq!(m.computation_complexity(2), 12);
    assert_eq!(m.computation_complexity(8), 3);
}

// ---------- NO algorithm edges ----------

#[test]
fn no_transpose_one_by_one() {
    let (_, t) = algs::transpose::no_transpose(&[9], 1);
    assert_eq!(t, vec![9]);
}

#[test]
fn no_prefix_sum_single_pe() {
    let (_, out) = algs::scan::no_prefix_sum(&[5]);
    assert_eq!(out, vec![0]);
}

#[test]
fn no_sort_empty_and_tiny() {
    let (_, out) = algs::sort::no_sort(&[]);
    assert!(out.is_empty());
    let (_, out) = algs::sort::no_sort(&[3, 1]);
    assert_eq!(out, vec![1, 3]);
}

#[test]
fn no_fft_of_two() {
    let (_, y) = algs::fft::no_fft(&[(1.0, 0.0), (2.0, 0.0)]);
    assert!((y[0].0 - 3.0).abs() < 1e-12);
    assert!((y[1].0 - (-1.0)).abs() < 1e-12);
}

#[test]
fn no_listrank_one_node() {
    let (_, r) = algs::listrank::no_listrank(&[u64::MAX]);
    assert_eq!(r, vec![0]);
}

#[test]
fn no_cc_isolated_vertices_only() {
    let (_, labels) = algs::cc::no_cc(6, &[]);
    assert_eq!(labels, (0..6u64).collect::<Vec<_>>());
}

#[test]
fn ngep_kappa_equals_n_runs_on_one_pe() {
    use algs::ngep::{ngep_program, DOrder};
    use no_framework::gep::{fw_update, UpdateSet};
    let n = 8;
    let mut d = vec![f64::INFINITY; n * n];
    for i in 0..n {
        d[i * n + i] = 0.0;
        d[i * n + (i + 1) % n] = 1.0;
    }
    let (m, out) = ngep_program(&d, n, n, fw_update, UpdateSet::All, DOrder::DStar);
    // Single PE: zero communication; ring distances correct.
    assert_eq!(m.total_words(), 0);
    assert_eq!(out[4], 4.0);
    assert_eq!(out[4 * n], 4.0);
}

#[test]
fn no_euler_matches_mo_euler() {
    use mo_algorithms::graph::{euler::euler_program, Tree};
    let t = Tree::random(200, 77);
    let mo = euler_program(&t);
    let no = algs::euler::no_euler(&t.parent, t.root);
    assert_eq!(mo.depths(), no.depth);
    assert_eq!(mo.sizes(), no.size);
    assert_eq!(mo.preorders(), no.preorder);
}

#[test]
fn supersteps_and_volume_are_deterministic() {
    let run = || {
        let data: Vec<u64> = (0..256u64).rev().collect();
        let (m, _) = algs::sort::no_sort(&data);
        (
            m.supersteps(),
            m.total_words(),
            m.communication_complexity(8, 4),
        )
    };
    assert_eq!(run(), run());
}

#[test]
fn ngep_sigma_pruning_cuts_work_and_supersteps() {
    use algs::ngep::{ngep_program, DOrder};
    use no_framework::gep::{ge_update, UpdateSet};
    let n = 32;
    let mut a: Vec<f64> = (0..n * n).map(|t| ((t % 5) + 1) as f64).collect();
    for i in 0..n {
        a[i * n + i] += 100.0;
    }
    let (m_all, _) = ngep_program(&a, n, 4, ge_update, UpdateSet::All, DOrder::DStar);
    let (m_tri, _) = ngep_program(&a, n, 4, ge_update, UpdateSet::KBelowMin, DOrder::DStar);
    assert!(
        m_tri.computation_complexity(1) * 2 < m_all.computation_complexity(1),
        "Σ pruning must cut the serial work: {} vs {}",
        m_tri.computation_complexity(1),
        m_all.computation_complexity(1)
    );
    assert!(m_tri.supersteps() < m_all.supersteps());
    assert!(m_tri.total_words() < m_all.total_words());
}

#[test]
fn no_fft_energy_preserved() {
    let n = 256usize;
    let input: Vec<(f64, f64)> = (0..n).map(|t| ((t as f64 * 0.31).sin(), 0.0)).collect();
    let (_, y) = algs::fft::no_fft(&input);
    let et: f64 = input.iter().map(|v| v.0 * v.0 + v.1 * v.1).sum();
    let ef: f64 = y.iter().map(|v| v.0 * v.0 + v.1 * v.1).sum();
    assert!((ef / n as f64 - et).abs() < 1e-6 * et);
}

/// Satellite: the cost evaluators return typed errors on degenerate
/// parameters instead of panicking — callers holding wire-supplied
/// `p`/`g`/`b` can shed bad requests without a `catch_unwind`.
#[test]
fn cost_model_errors_are_typed() {
    use no_framework::CostModelError;
    let mut m = NoMachine::new(8);
    m.step(|pe, ctx| {
        if pe == 0 {
            ctx.send(7, 1);
        }
    });

    // M(p, B): zero processors / zero block size.
    assert_eq!(
        m.try_communication_complexity(0, 4),
        Err(CostModelError::ZeroProcessors)
    );
    assert_eq!(
        m.try_communication_complexity(4, 0),
        Err(CostModelError::ZeroBlockSize { level: 0 })
    );
    assert_eq!(m.try_communication_complexity(4, 1), Ok(1));

    // D-BSP: non-power-of-two p, then g/b arity mismatches.
    assert_eq!(
        m.try_dbsp_time(3, &[1.0], &[1]),
        Err(CostModelError::NotPowerOfTwo { p: 3 })
    );
    assert_eq!(
        m.try_dbsp_time(0, &[], &[]),
        Err(CostModelError::ZeroProcessors)
    );
    // log2(4) = 2 levels: both vectors must carry exactly 2 entries.
    assert_eq!(
        m.try_dbsp_time(4, &[1.0], &[2, 2]),
        Err(CostModelError::LengthMismatch {
            expected: 2,
            g_len: 1,
            b_len: 2
        })
    );
    assert_eq!(
        m.try_dbsp_time(4, &[1.0, 1.0], &[2, 2, 2]),
        Err(CostModelError::LengthMismatch {
            expected: 2,
            g_len: 2,
            b_len: 3
        })
    );
    assert_eq!(
        m.try_dbsp_time(4, &[1.0, 1.0], &[2, 0]),
        Err(CostModelError::ZeroBlockSize { level: 1 })
    );
    let t = m.try_dbsp_time(4, &[2.0, 1.0], &[1, 1]).expect("valid");
    assert!(t > 0.0);
    // The checked and panicking forms agree on valid input.
    assert_eq!(t, m.dbsp_time(4, &[2.0, 1.0], &[1, 1]));

    // Errors render as actionable messages.
    let msg = CostModelError::LengthMismatch {
        expected: 3,
        g_len: 1,
        b_len: 2,
    }
    .to_string();
    assert!(msg.contains('3') && msg.contains("g"), "unhelpful: {msg}");
}
