//! Scheduler-engine invariants exercised through the public API.

use hm_model::{CacheId, MachineSpec, Topology};
use mo_core::sched::{simulate, Policy};
use mo_core::{spawn, ForkHint, Recorder};

fn machine() -> MachineSpec {
    MachineSpec::three_level(8, 1 << 10, 8, 1 << 17, 32).unwrap()
}

#[test]
fn empty_program_runs() {
    let prog = Recorder::record(1, |_rec| {});
    let r = simulate(&prog, &machine(), Policy::Mo);
    assert_eq!(r.work, 0);
    assert_eq!(r.makespan, 0);
    assert_eq!(r.units, 0);
}

#[test]
fn single_access_program() {
    let prog = Recorder::record(64, |rec| {
        let a = rec.alloc(1);
        rec.write(a, 0, 42);
    });
    for policy in [Policy::Mo, Policy::Flat, Policy::Serial] {
        let r = simulate(&prog, &machine(), policy);
        assert_eq!(r.work, 1, "{policy:?}");
        assert_eq!(r.makespan, 1, "{policy:?}");
        assert_eq!(r.cache_complexity(1), 1, "{policy:?}");
    }
}

#[test]
fn replay_is_deterministic() {
    let n = 2048usize;
    let prog = Recorder::record(1 << 20, |rec| {
        let a = rec.alloc(n);
        rec.cgc_for(n, |rec, k| rec.write(a, k, k as u64));
        let (lo, hi) = a.split_at(n / 2);
        rec.fork2(
            ForkHint::CgcSb,
            2 * n,
            move |rec| {
                for k in 0..lo.len() {
                    let _ = rec.read(lo, k);
                }
            },
            2 * n,
            move |rec| {
                for k in 0..hi.len() {
                    let _ = rec.read(hi, k);
                }
            },
        );
    });
    let spec = machine();
    let a = simulate(&prog, &spec, Policy::Mo);
    let b = simulate(&prog, &spec, Policy::Mo);
    assert_eq!(a.makespan, b.makespan);
    assert_eq!(a.core_busy, b.core_busy);
    for level in 1..=spec.cache_levels() {
        assert_eq!(a.metrics.level(level), b.metrics.level(level), "L{level}");
    }
    assert_eq!(a.pingpongs, b.pingpongs);
}

#[test]
fn cgc_assigns_segments_left_to_right() {
    // A CGC loop over exactly p*B1 iterations: every core gets exactly B1
    // iterations and all cores are busy the same amount.
    let spec = machine();
    let p = spec.cores();
    let b1 = spec.level(1).block;
    let t = p * b1;
    let prog = Recorder::record(1 << 20, |rec| {
        let a = rec.alloc(t);
        rec.cgc_for(t, |rec, k| rec.write(a, k, 1));
    });
    let r = simulate(&prog, &spec, Policy::Mo);
    assert_eq!(r.units, p);
    assert!(
        r.core_busy.iter().all(|&b| b == b1 as u64),
        "{:?}",
        r.core_busy
    );
}

#[test]
fn sb_serializes_when_cache_cannot_hold_both() {
    // One L2-sized cache; two tasks each of ~full L2 must serialize.
    let spec = MachineSpec::three_level(4, 256, 8, 4096, 8).unwrap();
    let per = 3000usize; // > C2/2, <= C2
    let prog = Recorder::record(1 << 20, |rec| {
        let a = rec.alloc(per);
        let b = rec.alloc(per);
        rec.fork2(
            ForkHint::Sb,
            per,
            move |rec| {
                for k in 0..per {
                    rec.write(a, k, 1);
                }
            },
            per,
            move |rec| {
                for k in 0..per {
                    rec.write(b, k, 1);
                }
            },
        );
    });
    let r = simulate(&prog, &spec, Policy::Mo);
    // Admission forces one-after-the-other: makespan = 2 * per.
    assert_eq!(r.makespan, 2 * per as u64);
}

#[test]
fn deep_sequential_chain_of_forks_completes() {
    // A 2000-deep chain of single-child forks must not overflow anything.
    fn chain(rec: &mut Recorder, a: mo_core::Arr, depth: usize) {
        if depth == 0 {
            rec.write(a, 0, 7);
            return;
        }
        rec.fork(
            ForkHint::Sb,
            vec![spawn(64, move |r: &mut Recorder| chain(r, a, depth - 1))],
        );
    }
    let prog = Recorder::record(1 << 16, |rec| {
        let a = rec.alloc(1);
        chain(rec, a, 2000);
    });
    let r = simulate(&prog, &machine(), Policy::Mo);
    assert_eq!(r.work, 1);
    assert_eq!(r.tasks, 2001);
}

#[test]
fn wide_fork_uses_every_cache_at_the_right_level() {
    // 8 children sized for L1 on an 8-core machine: each L1 cache gets
    // exactly one, in order (CGC⇒SB contiguous distribution).
    let spec = machine();
    let per = 512usize;
    let prog = Recorder::record(1 << 20, |rec| {
        let arrs: Vec<_> = (0..8).map(|_| rec.alloc(per)).collect();
        let children = arrs
            .iter()
            .map(|&a| {
                spawn(per, move |rec: &mut Recorder| {
                    for k in 0..per {
                        rec.write(a, k, 1);
                    }
                })
            })
            .collect();
        rec.fork(ForkHint::CgcSb, children);
    });
    let r = simulate(&prog, &spec, Policy::Mo);
    assert_eq!(r.makespan, per as u64, "all 8 children fully parallel");
    assert!(r.core_busy.iter().all(|&b| b == per as u64));
    // Each L1 saw exactly the one task's traffic.
    let t = Topology::new(&spec);
    for j in 0..t.caches_at(1) {
        assert_eq!(r.metrics.cache(1, j).accesses(), per as u64, "cache {j}");
    }
    let _ = CacheId::new(1, 0);
}

#[test]
fn flat_policy_beats_or_matches_serial_always() {
    let n = 1 << 12;
    let prog = Recorder::record(1 << 22, |rec| {
        let a = rec.alloc(n);
        rec.cgc_for(n, |rec, k| rec.write(a, k, 1));
        rec.cgc_for(n, |rec, k| {
            let v = rec.read(a, k);
            rec.write(a, k, v + 1);
        });
    });
    let spec = machine();
    let mo = simulate(&prog, &spec, Policy::Mo);
    let flat = simulate(&prog, &spec, Policy::Flat);
    let serial = simulate(&prog, &spec, Policy::Serial);
    assert!(flat.makespan <= serial.makespan);
    assert!(mo.makespan <= serial.makespan);
    assert_eq!(serial.core_busy[0], serial.work);
}

#[test]
fn mat_views_share_memory_through_recorder() {
    use mo_core::Mat;
    let prog = Recorder::record(1 << 10, |rec| {
        let a = rec.alloc(64);
        let m = Mat::new(a, 8, 8);
        let (x11, _x12, _x21, x22) = m.quadrants();
        rec.write_mat(&x11, 0, 0, 5);
        rec.write_mat(&x22, 3, 3, 9);
        // Aliased reads through the parent view.
        assert_eq!(rec.peek(a, 0), 5);
        assert_eq!(rec.peek(a, 63), 9);
    });
    assert_eq!(prog.work(), 2);
}

#[test]
fn rt_pool_detects_some_machine() {
    let pool = mo_core::rt::SbPool::detected();
    assert!(pool.hierarchy().cores() >= 1);
    assert!(pool.hierarchy().l1_capacity() > 0);
    let sum = pool.enter(|ctx| {
        let (a, b) = ctx.join(1 << 20, |_| 20u64, 1 << 20, |_| 22u64);
        a + b
    });
    assert_eq!(sum, 42);
}

#[test]
fn cgc_under_l1_anchor_uses_one_core() {
    // A task anchored at an L1 (space fits C1) runs its CGC loop on a
    // single core: the loop's shadow is the anchor's shadow.
    let spec = machine();
    let n = 256usize; // fits C1 = 1024
    let prog = Recorder::record(n, |rec| {
        let a = rec.alloc(n);
        rec.cgc_for(n, |rec, k| rec.write(a, k, 1));
    });
    let r = simulate(&prog, &spec, Policy::Mo);
    assert_eq!(r.units, 1, "single segment on the anchor's only core");
    assert_eq!(r.makespan, n as u64);
}

#[test]
fn cgcsb_deferred_expansion_keeps_contiguity() {
    // Binary CGC⇒SB recursion over 8 leaf tasks on an 8-core flat
    // machine: after deferred expansion, leaf i must run on core i
    // (contiguous positions → contiguous caches).
    let spec = machine();
    let per = 600usize; // fits C1 only
    fn split(rec: &mut Recorder, arrs: &[mo_core::Arr], lo: usize, hi: usize, per: usize) {
        if hi - lo == 1 {
            let a = arrs[lo];
            for k in 0..per {
                rec.write(a, k, lo as u64);
            }
            return;
        }
        let mid = (lo + hi) / 2;
        let (l, r1) = (arrs.to_vec(), arrs.to_vec());
        rec.fork2(
            ForkHint::CgcSb,
            per * (mid - lo),
            move |rec| split(rec, &l, lo, mid, per),
            per * (hi - mid),
            move |rec| split(rec, &r1, mid, hi, per),
        );
    }
    let prog = Recorder::record(1 << 20, |rec| {
        let arrs: Vec<_> = (0..8).map(|_| rec.alloc(per)).collect();
        split(rec, &arrs, 0, 8, per);
    });
    let r = simulate(&prog, &spec, Policy::Mo);
    // Perfect parallelism: every core busy exactly `per` steps.
    assert_eq!(
        r.makespan, per as u64,
        "deferred expansion must spread leaves"
    );
    assert!(
        r.core_busy.iter().all(|&b| b == per as u64),
        "{:?}",
        r.core_busy
    );
}

#[test]
fn oversized_root_anchors_at_memory_and_uses_all_cores() {
    let spec = machine();
    let n = 1 << 12;
    // Root space exceeds every cache.
    let prog = Recorder::record(1 << 24, |rec| {
        let a = rec.alloc(n);
        rec.cgc_for(n, |rec, k| rec.write(a, k, 1));
    });
    let r = simulate(&prog, &spec, Policy::Mo);
    assert_eq!(r.makespan, (n / spec.cores()) as u64);
    assert!(r.core_busy.iter().all(|&b| b > 0));
}

#[test]
fn program_stats_reflect_algorithm_shape() {
    // The FFT-shaped recursion should show CGC loops plus CGC⇒SB forks
    // and no SB forks; a GEP-shaped one the reverse.
    let n = 64usize;
    let prog = Recorder::record(1 << 16, |rec| {
        let a = rec.alloc(2 * n);
        rec.cgc_for(n, |rec, k| rec.write(a, k, 1));
        let (lo, hi) = a.split_at(n);
        rec.fork2(
            ForkHint::CgcSb,
            n,
            move |rec| {
                for k in 0..lo.len() {
                    rec.write(lo, k, 2);
                }
            },
            n,
            move |rec| {
                for k in 0..hi.len() {
                    rec.write(hi, k, 2);
                }
            },
        );
    });
    let st = prog.stats();
    assert_eq!(st.cgc_loops, 1);
    assert_eq!(st.cgcsb_forks, 1);
    assert_eq!(st.sb_forks, 0);
    assert_eq!(st.max_depth, 1);
}

#[test]
fn units_and_busy_time_are_consistent() {
    let n = 4096usize;
    let prog = Recorder::record(1 << 22, |rec| {
        let a = rec.alloc(n);
        let b = rec.alloc(n);
        rec.cgc_for(n, |rec, k| rec.write(a, k, 1));
        rec.cgc_for(n, |rec, k| {
            let v = rec.read(a, k);
            rec.write(b, k, v);
        });
    });
    for policy in [Policy::Mo, Policy::Flat, Policy::Serial] {
        let r = simulate(&prog, &machine(), policy);
        let busy: u64 = r.core_busy.iter().sum();
        assert_eq!(busy, r.work, "{policy:?}");
        assert!(r.units >= 1);
    }
}
