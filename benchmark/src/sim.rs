//! `sim_replay`: record a registry kernel as an MO program, replay it
//! on the modelled Fig. 1 machine, check every simulated statistic
//! against `expect/sim_replay.json`. Only `hm`, `core.record`,
//! `core.sched` and the `algos` recorders work; `rt`, `serve` and
//! `dist` do nothing, so this is the bypass workload for every
//! real-machine change.

use std::time::Instant;

use hm_model::{AccessKind, CacheSystem, MachineSpec};
use mo_algorithms::certify::record_kernel;
use mo_core::certify::json::{self, Json};
use mo_core::sched::{simulate, Policy, RunReport};
use mo_core::Program;

use crate::gen::{kernel_seeds, op_list, parse_classes, Class, Op, SplitMix64, KSEEDS};
use crate::report::Metrics;
use crate::run::{traced_rounds, RoundOut, System, Tally, Traced, Workload};
use crate::spans::{self, Tracer};

const SCENARIO: &str = include_str!("../scenarios/sim_replay.scn");
const EXPECT: &str = include_str!("../expect/sim_replay.json");

/// Scenario units per round: 16 operations, ≈ 0.5 s at seed speed.
const UNITS: usize = 1;

/// The exact simulated statistics of one recorded-and-replayed kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SimStats {
    /// Trace entries (the program's work `T_1`).
    pub entries: u64,
    pub tasks: u64,
    /// Virtual makespan in parallel steps.
    pub makespan: u64,
    /// `cache_complexity(1..=4)`: max block transfers of any one cache
    /// per level.
    pub q: [u64; 4],
}

impl SimStats {
    fn of(prog: &Program, rep: &RunReport) -> Self {
        Self {
            entries: prog.trace().len() as u64,
            tasks: prog.tasks().len() as u64,
            makespan: rep.makespan,
            q: std::array::from_fn(|i| rep.cache_complexity(i + 1)),
        }
    }

    fn add(&mut self, o: &SimStats) {
        self.entries += o.entries;
        self.tasks += o.tasks;
        self.makespan += o.makespan;
        for (a, b) in self.q.iter_mut().zip(o.q) {
            *a += b;
        }
    }
}

pub struct SimReplay {
    classes: Vec<Class>,
    ops: Vec<Op>,
    /// Kernel seed of `(class, kseed)`. Value-oblivious kernels draw
    /// theirs from `--seed` (their statistics must not depend on it);
    /// the data-dependent one (sort) uses the catalogue seeds
    /// `0..KSEEDS`, the only ones an exact expectation can exist for.
    seeds: Vec<[u64; KSEEDS]>,
    expect: Vec<[SimStats; KSEEDS]>,
    spec: MachineSpec,
}

fn catalogue_seed(class: &Class, kseed: usize) -> Option<u64> {
    class.kernel.is_data_dependent().then_some(kseed as u64)
}

fn stats_from_json(j: &Json) -> Option<SimStats> {
    let q = j.get("q")?.as_arr()?;
    Some(SimStats {
        entries: j.get("entries")?.as_u64()?,
        tasks: j.get("tasks")?.as_u64()?,
        makespan: j.get("makespan")?.as_u64()?,
        q: [
            q.first()?.as_u64()?,
            q.get(1)?.as_u64()?,
            q.get(2)?.as_u64()?,
            q.get(3)?.as_u64()?,
        ],
    })
}

/// Expected statistics per `(class, kseed)` from the committed file.
/// An entry with `"seed": null` holds for every seed.
fn load_expectations(classes: &[Class]) -> Result<Vec<[SimStats; KSEEDS]>, String> {
    let doc = json::parse(EXPECT)?;
    let entries = doc
        .get("classes")
        .and_then(Json::as_arr)
        .ok_or("expect/sim_replay.json: no `classes` array")?;
    classes
        .iter()
        .map(|c| {
            let mut per_seed = [SimStats::default(); KSEEDS];
            for (k, slot) in per_seed.iter_mut().enumerate() {
                let want_seed = catalogue_seed(c, k);
                let entry = entries.iter().find(|e| {
                    e.get("kernel").and_then(Json::as_str) == Some(c.kernel.name())
                        && e.get("n").and_then(Json::as_u64) == Some(c.n as u64)
                        && e.get("seed").and_then(Json::as_u64) == want_seed
                });
                *slot = entry.and_then(stats_from_json).ok_or_else(|| {
                    format!(
                        "expect/sim_replay.json has no entry for {} seed {want_seed:?}; \
                         regenerate it with `gen-expect`",
                        c.label()
                    )
                })?;
            }
            Ok(per_seed)
        })
        .collect()
}

impl SimReplay {
    pub fn new(seed: u64) -> Result<Self, String> {
        let classes = parse_classes(SCENARIO);
        let ops = op_list(&classes, UNITS, &mut SplitMix64::stream(seed, "sim.order"));
        let mut seeds = kernel_seeds(classes.len(), &mut SplitMix64::stream(seed, "sim.values"));
        for (c, s) in classes.iter().zip(&mut seeds) {
            for (k, v) in s.iter_mut().enumerate() {
                if let Some(fixed) = catalogue_seed(c, k) {
                    *v = fixed;
                }
            }
        }
        Ok(Self {
            expect: load_expectations(&classes)?,
            classes,
            ops,
            seeds,
            spec: MachineSpec::example_h5(),
        })
    }

    /// One operation; returns the marks `[start, recorded, simulated,
    /// checked]`, the observed statistics and the recorded program.
    fn op(&self, op: Op, tally: &mut Tally) -> ([Instant; 4], SimStats, Program) {
        let c = &self.classes[op.class as usize];
        let seed = self.seeds[op.class as usize][op.kseed as usize];
        let t0 = Instant::now();
        let prog = record_kernel(c.kernel, c.n, seed);
        let t1 = Instant::now();
        let rep = simulate(&prog, &self.spec, Policy::Mo);
        let t2 = Instant::now();
        let got = SimStats::of(&prog, &rep);
        let want = self.expect[op.class as usize][op.kseed as usize];
        tally.check(if got == want && rep.work == got.entries {
            Ok(())
        } else {
            Err(format!(
                "{} seed {seed}: simulated {got:?}, expected {want:?}",
                c.label()
            ))
        });
        ([t0, t1, t2, Instant::now()], got, prog)
    }

    /// The text of `expect/sim_replay.json` for the current scenario
    /// and simulator (`gen-expect`).
    pub fn generate_expectations() -> String {
        let classes = parse_classes(SCENARIO);
        let spec = MachineSpec::example_h5();
        let mut rows = Vec::new();
        for c in &classes {
            let seeds: Vec<Option<u64>> = if c.kernel.is_data_dependent() {
                (0..KSEEDS as u64).map(Some).collect()
            } else {
                vec![None]
            };
            for seed in seeds {
                let prog = record_kernel(c.kernel, c.n, seed.unwrap_or(1));
                let s = SimStats::of(&prog, &simulate(&prog, &spec, Policy::Mo));
                rows.push(format!(
                    "    {{\"kernel\": \"{}\", \"n\": {}, \"seed\": {}, \"entries\": {}, \"tasks\": {}, \"makespan\": {}, \"q\": [{}, {}, {}, {}]}}",
                    c.kernel.name(),
                    c.n,
                    seed.map_or("null".to_string(), |s| s.to_string()),
                    s.entries,
                    s.tasks,
                    s.makespan,
                    s.q[0],
                    s.q[1],
                    s.q[2],
                    s.q[3]
                ));
            }
        }
        format!(
            "{{\n  \"machine\": \"hm_model::MachineSpec::example_h5\",\n  \"policy\": \"mo\",\n  \"note\": \"exact simulated statistics; seed null = any seed (value-oblivious kernel). Regenerate with gen-expect only when a change is meant to alter the model.\",\n  \"classes\": [\n{}\n  ]\n}}\n",
            rows.join(",\n")
        )
    }
}

struct SimSystem<'a> {
    w: &'a SimReplay,
    epoch: Instant,
    /// Statistics summed over every operation run so far.
    totals: SimStats,
}

impl System for SimSystem<'_> {
    fn first_pass(&mut self) -> Tally {
        let mut tally = Tally::default();
        for class in 0..self.w.classes.len() {
            self.w.op(
                Op {
                    class: class as u16,
                    kseed: 0,
                },
                &mut tally,
            );
        }
        tally
    }

    fn round(&mut self, spans_on: bool) -> RoundOut {
        let mut out = RoundOut::default();
        let mut tr = Tracer::new(spans_on, self.epoch);
        let start = Instant::now();
        for (i, &op) in self.w.ops.iter().enumerate() {
            let (marks, got, _) = self.w.op(op, &mut out.tally);
            out.lat_ns.push((marks[3] - marks[0]).as_nanos() as u64);
            self.totals.add(&got);
            tr.op(
                i as u32,
                op.class,
                0,
                &[spans::RECORD, spans::SCHED, spans::CHECK],
                &marks,
            );
        }
        out.wall = start.elapsed();
        out.spans = tr.spans;
        out
    }

    fn teardown(self: Box<Self>) -> Result<(), String> {
        Ok(())
    }
}

impl Workload for SimReplay {
    fn name(&self) -> &'static str {
        "sim_replay"
    }

    fn tail_q(&self) -> f64 {
        0.90
    }

    fn build(&self) -> Result<Box<dyn System + '_>, String> {
        Ok(Box::new(SimSystem {
            w: self,
            epoch: Instant::now(),
            totals: SimStats::default(),
        }))
    }

    fn corrupt_expectation(&mut self) {
        self.expect[0][0].makespan += 1;
    }
}

/// `hm.*`: the cache simulator alone.
fn hm_probe(w: &SimReplay, m: &mut Metrics) {
    const WORDS: u64 = 1 << 20;
    let time_reads = |addrs: &mut dyn Iterator<Item = u64>| {
        let mut sys = CacheSystem::new(&w.spec);
        let t = Instant::now();
        for a in addrs {
            sys.read(0, a);
        }
        std::hint::black_box(sys.metrics());
        t.elapsed().as_nanos() as f64 / WORDS as f64
    };
    m.put("hm.access_ns_seq", time_reads(&mut (0..WORDS)), "ns");
    let mut g = SplitMix64::new(7);
    let rand: Vec<u64> = (0..WORDS).map(|_| g.next_u64() % WORDS).collect();
    m.put("hm.access_ns_rand", time_reads(&mut rand.into_iter()), "ns");

    // Replay share: the recorded traces pushed through the cache
    // hierarchy alone, against the whole `simulate` call.
    let (mut replay_ns, mut simulate_ns) = (0u128, 0u128);
    let mut tally = Tally::default();
    for class in 0..w.classes.len() {
        let op = Op {
            class: class as u16,
            kseed: 0,
        };
        let (marks, _, prog) = w.op(op, &mut tally);
        simulate_ns += (marks[2] - marks[1]).as_nanos();
        let mut sys = CacheSystem::new(&w.spec);
        let t = Instant::now();
        for e in prog.trace() {
            let kind = if e.is_write() {
                AccessKind::Write
            } else {
                AccessKind::Read
            };
            sys.access(0, e.addr(), kind);
        }
        std::hint::black_box(sys.metrics());
        replay_ns += t.elapsed().as_nanos();
    }
    m.put(
        "hm.replay_share",
        replay_ns as f64 / simulate_ns as f64,
        "ratio",
    );
}

/// `hm.*`, `core.record.*`, `core.sched.*` from spans-on rounds of the
/// workload; returns the rounds for the `bench.*` metrics.
pub fn layer_metrics(w: &SimReplay, pairs: usize, m: &mut Metrics) -> Result<Traced, String> {
    hm_probe(w, m);
    let mut sys = SimSystem {
        w,
        epoch: Instant::now(),
        totals: SimStats::default(),
    };
    let traced = traced_rounds(&mut sys, pairs);
    let all = traced.spans();
    let sum = |name| spans::durations(&all, name).iter().sum::<u64>() as f64;
    let (record_ns, sched_ns, op_ns) = (sum(spans::RECORD), sum(spans::SCHED), sum(spans::OP));
    // Exact counts, as observed: every round (warm-up, on, off) ran the
    // same op list, so the totals divide evenly.
    let rounds_run = (1 + 2 * pairs) as f64;
    let ops = w.ops.len() as f64 * rounds_run;
    let per_round = sys.totals;
    let entries_traced = per_round.entries as f64 / rounds_run * traced.on.len() as f64;
    m.put("core.record.ns_per_entry", record_ns / entries_traced, "ns");
    m.put("core.record.share", record_ns / op_ns, "ratio");
    m.put(
        "core.record.entries_per_op",
        per_round.entries as f64 / ops,
        "count",
    );
    m.put(
        "core.record.tasks_per_op",
        per_round.tasks as f64 / ops,
        "count",
    );
    m.put("core.sched.ns_per_entry", sched_ns / entries_traced, "ns");
    m.put("core.sched.share", sched_ns / op_ns, "ratio");
    m.put(
        "core.sched.makespan_steps",
        per_round.makespan as f64 / ops,
        "count",
    );
    m.put(
        "core.sched.q1_transfers",
        per_round.q[0] as f64 / ops,
        "count",
    );
    m.put(
        "core.sched.q2_transfers",
        per_round.q[1] as f64 / ops,
        "count",
    );
    Ok(traced)
}
