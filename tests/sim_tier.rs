//! Tier-1 pin of the simulated machine: the exact statistics of the six
//! registry kernels at the `sim_replay` sizes on the Fig. 1 machine. The
//! `Policy::Mo` numbers are the ones `benchmark/expect/sim_replay.json`
//! holds for the benchmark's correctness gate, read from that file, so a
//! drift of the model (recorder, scheduler or cache simulator) fails
//! `cargo test` at the root and not only `mo-benchmark`.

use oblivious::algs::certify::record_kernel;
use oblivious::algs::real::registry::Kernel;
use oblivious::hm::MachineSpec;
use oblivious::mo::certify::json::{self, Json};
use oblivious::mo::sched::{simulate, Policy, RunReport};

const EXPECT: &str = include_str!("../benchmark/expect/sim_replay.json");

fn complexities(rep: &RunReport) -> Vec<u64> {
    (1..=4).map(|level| rep.cache_complexity(level)).collect()
}

#[test]
fn registry_kernels_simulate_to_the_pinned_statistics() {
    let doc = json::parse(EXPECT).unwrap();
    let classes = doc.get("classes").and_then(Json::as_arr).unwrap();
    assert_eq!(classes.len(), 9, "six kernels, sort under four seeds");
    let spec = MachineSpec::example_h5();
    for class in classes {
        let field = |name: &str| class.get(name).and_then(Json::as_u64);
        let kernel = Kernel::parse(class.get("kernel").and_then(Json::as_str).unwrap()).unwrap();
        let n = field("n").unwrap() as usize;
        // `"seed": null` marks a value-oblivious kernel: any seed will do.
        let prog = record_kernel(kernel, n, field("seed").unwrap_or(11));
        let rep = simulate(&prog, &spec, Policy::Mo);
        let want_q: Vec<u64> = (class.get("q").and_then(Json::as_arr).unwrap().iter())
            .map(|q| q.as_u64().unwrap())
            .collect();
        let what = format!("{} {n} seed {:?}", kernel.name(), field("seed"));
        assert_eq!(Some(prog.trace().len() as u64), field("entries"), "{what}");
        assert_eq!(Some(prog.tasks().len() as u64), field("tasks"), "{what}");
        assert_eq!(Some(rep.makespan), field("makespan"), "{what}");
        assert_eq!(complexities(&rep), want_q, "{what}");
        assert_eq!(rep.work, prog.trace().len() as u64, "{what}");
    }
}

/// The other two policies, on the kernel whose replay interleaves cores
/// the most (sort 2048, seed 0): makespan, `cache_complexity(1..=4)`,
/// ping-pongs and unit count as the simulator produced them before its
/// hot path was rebuilt.
#[test]
fn flat_and_serial_policies_simulate_to_the_pinned_statistics() {
    let prog = record_kernel(Kernel::Sort, 2048, 0);
    let spec = MachineSpec::example_h5();
    let pins = [
        (Policy::Mo, 97249, [2261, 1242, 957, 556], 2464, 3036),
        (Policy::Flat, 103918, [10680, 1951, 955, 556], 11487, 4970),
        (Policy::Serial, 295753, [25662, 2245, 957, 556], 0, 2716),
    ];
    for (policy, makespan, q, pingpongs, units) in pins {
        let rep = simulate(&prog, &spec, policy);
        assert_eq!(rep.makespan, makespan, "{policy:?}");
        assert_eq!(complexities(&rep), q, "{policy:?}");
        assert_eq!(rep.pingpongs, pingpongs, "{policy:?}");
        assert_eq!(rep.units, units, "{policy:?}");
    }
}
