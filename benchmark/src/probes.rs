//! Stand-alone probes of layers no workload isolates: the fork–join
//! runtime's primitive costs, the bare kernels, and the tracing
//! primitives of `mo-obs`. All time public calls from outside.

use std::time::Instant;

use mo_algorithms::real::registry::run_kernel;
use mo_core::rt::SbPool;
use mo_obs::{Event, EventKind, Ring, TraceSink};

use crate::gen::Class;
use crate::host::{h2, set_mask, Pinning};
use crate::report::Metrics;
use crate::stats::median;

/// Nanoseconds per call of `f`, the median of `batches` batches of
/// `calls` calls.
fn ns_per_call(batches: usize, calls: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..batches)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..calls {
                f();
            }
            t.elapsed().as_nanos() as f64 / calls as f64
        })
        .collect();
    median(&samples)
}

/// Median microseconds of one bare `run_kernel(pool, class)`; the
/// repetitions are sized to ~20 ms per class.
fn bare_us(pool: &SbPool, c: &Class) -> f64 {
    let once = |seed| {
        let t = Instant::now();
        std::hint::black_box(run_kernel(pool, c.kernel, c.n, seed));
        t.elapsed().as_secs_f64() * 1e6
    };
    let first = once(0);
    let reps = ((20_000.0 / first) as u64).clamp(4, 200);
    median(&(1..=reps).map(once).collect::<Vec<_>>())
}

/// `algos.real.us.<class>` for every class the serve workloads submit:
/// the bare kernel on an `H2` pool, no server around it.
pub fn algos_real(classes: &[Class], m: &mut Metrics) {
    let pool = SbPool::new(h2());
    pool.warm();
    for c in classes {
        m.put(
            format!("algos.real.us.{}", c.label()),
            bare_us(&pool, c),
            "us",
        );
    }
}

/// The large tier, run bare: what `core.rt.speedup_2cpu` compares.
fn large_tier_seconds(classes: &[Class]) -> f64 {
    let pool = SbPool::new(h2());
    pool.warm();
    classes
        .iter()
        .filter(|c| {
            h2().anchor_level(mo_algorithms::real::registry::footprint_words(
                c.kernel, c.n,
            )) == Some(2)
        })
        .map(|c| bare_us(&pool, c) / 1e6)
        .sum()
}

/// `core.rt.*` primitive costs on an `H2` pool, and the informational
/// two-CPU speed-up.
pub fn core_rt(classes: &[Class], pin: &Pinning, m: &mut Metrics) {
    let pool = SbPool::new(h2());
    pool.warm();
    let l1 = pool.hierarchy().l1_capacity();
    let noop = |_: &mo_core::rt::Ctx<'_>| {};
    // Loops run inside one `enter`, so only `enter_ns` pays for it.
    m.put(
        "core.rt.fork_serial_ns",
        pool.enter(|ctx| {
            ns_per_call(9, 20_000, || {
                ctx.join(l1, noop, l1, noop);
            })
        }),
        "ns",
    );
    m.put(
        "core.rt.fork_parallel_ns",
        pool.enter(|ctx| {
            ns_per_call(9, 2_000, || {
                ctx.join(l1 + 1, noop, l1 + 1, noop);
            })
        }),
        "ns",
    );
    const ITERS: usize = 1 << 16;
    let pfor_ns = pool.enter(|ctx| {
        ns_per_call(9, 500, || {
            ctx.pfor(0..ITERS, 1024, |r| {
                std::hint::black_box(r.len());
            })
        })
    });
    m.put("core.rt.pfor_ns_per_iter", pfor_ns / ITERS as f64, "ns");
    // From this thread, which is outside the pool.
    m.put(
        "core.rt.enter_ns",
        ns_per_call(9, 100_000, || {
            pool.enter(|ctx| {
                std::hint::black_box(ctx);
            })
        }),
        "ns",
    );
    drop(pool);

    // Unpinned ÷ pinned rate of the L3-anchored classes. A thread
    // that widens its own mask passes it to the pool it then builds;
    // the rest of the process stays pinned.
    let pinned_s = large_tier_seconds(classes);
    let unpinned_s = match (&pin.original, pin.pinned && pin.allowed >= 2) {
        (Some(mask), true) => std::thread::scope(|s| {
            s.spawn(|| set_mask(mask).then(|| large_tier_seconds(classes)))
                .join()
                .expect("speed-up probe thread panicked")
        }),
        _ => None,
    };
    m.put(
        "core.rt.speedup_2cpu",
        unpinned_s.map_or(1.0, |u| pinned_s / u),
        "ratio",
    );
}

/// `obs.*`: the tracing primitives, which no untraced end-to-end
/// metric includes (tracing is compiled out of the measured program).
pub fn obs(m: &mut Metrics) {
    const N: usize = 1 << 15;
    const REPS: usize = 5;
    let ev = Event {
        ts_ns: 1,
        kind: EventKind::TaskEnter,
        worker: 0,
        a: 1,
        b: 2,
        c: 3,
    };
    let push: Vec<f64> = (0..REPS)
        .map(|_| {
            let ring = Ring::new(N);
            ns_per_call(1, N, || {
                std::hint::black_box(ring.push(ev));
            })
        })
        .collect();
    m.put("obs.ring_push_ns", median(&push), "ns");

    // One serve request = seven phase events; emit whole requests so
    // the drained stream reassembles into closed spans.
    const PHASES: [EventKind; 7] = [
        EventKind::ServeArrive,
        EventKind::ServeAdmit,
        EventKind::ServeEnqueue,
        EventKind::ServeDequeue,
        EventKind::ServeBatchForm,
        EventKind::ServeExecute,
        EventKind::ServeRespond,
    ];
    let requests = N / PHASES.len();
    let events = (requests * PHASES.len()) as f64;
    let (mut emit, mut drain, mut assemble) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..REPS {
        let sink = TraceSink::with_capacity(1, N);
        let t = Instant::now();
        for req in 0..requests as u64 {
            for kind in PHASES {
                sink.emit(Some(0), kind, req + 1, 0, 1);
            }
        }
        emit.push(t.elapsed().as_nanos() as f64 / events);
        let t = Instant::now();
        let drained = sink.drain();
        drain.push(t.elapsed().as_nanos() as f64 / events);
        let t = Instant::now();
        let set = mo_obs::span::assemble(&drained);
        assemble.push(t.elapsed().as_nanos() as f64 / events);
        assert!(
            set.conserved() && set.spans.len() == requests,
            "obs probe: {} of {requests} spans reassembled",
            set.spans.len()
        );
    }
    m.put("obs.sink_emit_ns", median(&emit), "ns");
    m.put("obs.sink_drain_ns_per_event", median(&drain), "ns");
    m.put("obs.span_assemble_ns_per_event", median(&assemble), "ns");
}
