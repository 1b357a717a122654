//! `mo-benchmark`: the repository's benchmark. See README.md.
//!
//! The driver's contract (`BENCHMARK.json`):
//! `--workload W --seed N --seconds S --trace 0|1` prints, as the last
//! line of standard output, one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`.

mod dist;
mod gen;
mod host;
mod probes;
mod report;
mod run;
mod serve;
mod sim;
mod spans;
mod spec;
mod stats;
mod tools;

use std::collections::BTreeSet;
use std::process::ExitCode;

use report::Metrics;
use run::{Protocol, Tally, Traced, Workload};

const USAGE: &str = "\
usage: mo-benchmark --workload W --seed N --seconds S --trace 0|1 [--trace-out FILE]
                    [--setup-cycles K] [--min-rounds R] [--no-pin]
       mo-benchmark all [--runs R] [--seed N] [--seconds S] [--no-pin] [--out FILE]
       mo-benchmark repeat N [--runs R] [--seconds S] [--no-pin] [--out PREFIX]
       mo-benchmark compare A.json B.json
       mo-benchmark --smoke | --self-test | spec | gen-expect
workloads: sim_replay serve_mixed serve_burst_small dist_sort dist_ngep";

/// Options of a single workload run.
#[derive(Debug, Clone)]
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub trace: bool,
    pub trace_out: Option<String>,
    /// `false` under `--no-pin`: measure what pinning buys, or what a
    /// host that refuses affinity calls would report.
    pub pin: bool,
    pub protocol: Protocol,
}

/// The seeded workload called `name`.
fn workload(name: &str, seed: u64) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "sim_replay" => Box::new(sim::SimReplay::new(seed)?),
        "serve_mixed" => Box::new(serve::ServeLoad::mixed(seed)),
        "serve_burst_small" => Box::new(serve::ServeLoad::burst_small(seed)),
        "dist_sort" => Box::new(dist::DistLoad::sort(seed)),
        "dist_ngep" => Box::new(dist::DistLoad::ngep(seed)),
        other => return Err(format!("unknown workload `{other}`\n{USAGE}")),
    })
}

/// The untraced run: the five end-to-end metrics.
fn run_untraced(w: &dyn Workload, p: Protocol, m: &mut Metrics) -> Result<Tally, String> {
    let e = run::end_to_end(w, p)?;
    m.put("throughput_ops_s", e.throughput_ops_s, "1/s");
    m.put("op_p50_ms", e.op_p50_ms, "ms");
    m.put("op_tail_ms", e.op_tail_ms, "ms");
    m.put("setup_s", e.setup_s, "s");
    let rss = host::peak_rss_mib().ok_or("cannot read VmHWM from /proc/self/status")?;
    m.put("peak_rss_mib", rss, "MiB");
    println!(
        "# {}: {} rounds x {} ops; round rate q1 {:.2} median {:.2} q3 {:.2} ops/s, spread (q3-q1)/median {:.4}",
        w.name(),
        e.rounds,
        e.ops_per_round,
        e.rates.q1,
        e.rates.median,
        e.rates.q3,
        e.rates.spread()
    );
    println!(
        "# host factor of the run's {} calibration readings (reading / {} s): q1 {:.4} median {:.4} q3 {:.4}; the run is calibrated with the median",
        e.rounds + p.setup_cycles,
        host::Calibrator::NOMINAL_S,
        e.host_factor.q1,
        e.host_factor.median,
        e.host_factor.q3
    );
    println!(
        "# waited {:.3} s in all for an idle sibling hyperthread before rounds and set-up cycles",
        e.waited_s
    );
    // The same estimators over raw wall-clock time, for people and for
    // the `all` tool (which keeps them beside the metrics).
    println!(
        "# wall {{\"wall.throughput_ops_s\": {}, \"wall.setup_s\": {}, \"host_factor\": {}}}",
        e.wall_throughput_ops_s, e.wall_setup_s, e.host_factor.median
    );
    println!(
        "# metrics from the fastest rounds: {} latency samples; op_tail_ms is p{:.0} with {} samples beyond it; setup_first_s {:.4}",
        e.quiet_samples,
        w.tail_q() * 100.0,
        e.tail_samples_beyond,
        e.setup_first_s
    );
    Ok(e.tally)
}

/// Rounds of spans-on/spans-off pairs: four for the workload asked
/// for, one for the two families that only contribute layer metrics.
fn pairs(selected: bool) -> usize {
    if selected {
        4
    } else {
        1
    }
}

/// The traced run: every per-layer metric. Each family's metrics come
/// from the workload asked for when it belongs to that family, from
/// the family's default workload otherwise.
fn run_traced(
    args: &RunArgs,
    pin: &host::Pinning,
    m: &mut Metrics,
) -> Result<(Tally, bool), String> {
    let (seed, sel) = (args.seed, args.workload.as_str());
    let serve_classes = serve::all_classes();
    probes::algos_real(&serve_classes, m);
    probes::core_rt(&serve_classes, pin, m);
    probes::obs(m);
    let (nomachine_sort_s, nomachine_ngep_s) = dist::netobliv_metrics(m);

    let mut tally = Tally::default();
    let mut chosen: Option<Traced> = None;
    let mut keep = |t: Traced, selected: bool| {
        tally.add(t.tally);
        if selected {
            chosen = Some(t);
        }
    };

    let selected = sel == "sim_replay";
    let w = sim::SimReplay::new(seed)?;
    keep(sim::layer_metrics(&w, pairs(selected), m)?, selected);

    let selected = sel.starts_with("serve_");
    let w = if sel == "serve_burst_small" {
        serve::ServeLoad::burst_small(seed)
    } else {
        serve::ServeLoad::mixed(seed)
    };
    let bare: Vec<(String, f64)> = serve_classes
        .iter()
        .map(|c| {
            (
                c.label(),
                m.get(&format!("algos.real.us.{}", c.label()))
                    .unwrap_or(0.0),
            )
        })
        .collect();
    let bare_us = |label: &str| {
        bare.iter()
            .find(|(l, _)| l == label)
            .map_or(0.0, |(_, us)| *us)
    };
    keep(
        serve::layer_metrics(&w, pairs(selected), &bare_us, m)?,
        selected,
    );

    let selected = sel.starts_with("dist_");
    let (w, nomachine_s) = if sel == "dist_ngep" {
        (dist::DistLoad::ngep(seed), nomachine_ngep_s)
    } else {
        (dist::DistLoad::sort(seed), nomachine_sort_s)
    };
    keep(
        dist::layer_metrics(&w, pairs(selected), nomachine_s, m)?,
        selected,
    );

    // `bench.*`: the harness's own view of the workload asked for.
    let t = chosen.expect("one family holds the selected workload");
    m.put(
        "bench.trace_overhead_ratio",
        run::median_rate(&t.off) / run::median_rate(&t.on),
        "ratio",
    );
    let off_rates: Vec<f64> = t.off.iter().map(|r| r.rate()).collect();
    m.put(
        "bench.round_spread",
        stats::quartiles(&off_rates).spread(),
        "ratio",
    );
    m.put("bench.cpu_ms_per_op", t.cpu_s * 1e3 / t.ops() as f64, "ms");
    let all = t.spans();
    let (by_layer, roots) = spans::self_times(&all);
    let mut covered = 0.0;
    for layer in spans::LAYERS {
        let share = by_layer[layer] as f64 / roots as f64;
        covered += share;
        m.put(
            format!("bench.selftime.{}_share", layer.replace('.', "_")),
            share,
            "ratio",
        );
    }
    println!("# self-time shares sum to {covered:.4} of the operation time");
    let shares_ok = (covered - 1.0).abs() <= 0.10;
    if !shares_ok {
        eprintln!("mo-benchmark: self times cover {covered:.3} of the operation time (limit: within 10 %)");
    }

    let out = args
        .trace_out
        .clone()
        .unwrap_or_else(|| format!("benchmark/target/trace/{}.json", args.workload));
    let first_round = &t.on[0].spans;
    let json = spans::to_chrome_json(first_round);
    mo_obs::chrome::validate(&json).map_err(|e| format!("span file is not chrome-valid: {e}"))?;
    if let Some(dir) = std::path::Path::new(&out).parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(&out, json).map_err(|e| format!("{out}: {e}"))?;
    println!(
        "# {} of {} spans of the first traced round written to {out} (chrome JSON, validated)",
        first_round.len().min(spans::CHROME_SPAN_CAP),
        first_round.len()
    );
    Ok((tally, shares_ok))
}

/// One workload run, as the driver starts it.
fn run_one(args: &RunArgs) -> Result<bool, String> {
    if !spec::WORKLOADS.iter().any(|(w, _)| *w == args.workload) {
        return Err(format!("unknown workload `{}`\n{USAGE}", args.workload));
    }
    // Before any other thread exists, so every thread inherits the pin.
    let pin = if args.pin {
        host::pin_to_one_cpu()
    } else {
        host::unpinned()
    };
    println!("# host {}", host::stamp_json(&pin));
    let mut m = Metrics::default();
    let (tally, mut correct) = if args.trace {
        let (tally, shares_ok) = run_traced(args, &pin, &mut m)?;
        let want: BTreeSet<String> = spec::per_layer(&serve::all_classes())
            .into_iter()
            .map(|(n, _, _)| n)
            .collect();
        let got: BTreeSet<String> = m.names().into_iter().map(str::to_string).collect();
        if want != got {
            return Err(format!(
                "per-layer metrics differ from spec: missing {:?}, extra {:?}",
                want.difference(&got).collect::<Vec<_>>(),
                got.difference(&want).collect::<Vec<_>>()
            ));
        }
        (tally, shares_ok)
    } else {
        let w = workload(&args.workload, args.seed)?;
        (run_untraced(w.as_ref(), args.protocol, &mut m)?, true)
    };
    correct &= tally.failed == 0;
    print!("{}", m.table());
    println!("{}", m.result_line(correct, tally));
    Ok(correct)
}

/// `--self-test`: falsify one expected output per workload and demand
/// that the first pass reports it.
fn self_test() -> Result<bool, String> {
    host::pin_to_one_cpu();
    let mut all_caught = true;
    for (name, _) in spec::WORKLOADS {
        let mut w = workload(name, 1)?;
        let mut clean = w.build()?;
        let honest = clean.first_pass();
        clean.teardown()?;
        w.corrupt_expectation();
        let mut sys = w.build()?;
        let corrupted = sys.first_pass();
        sys.teardown()?;
        let caught = honest.failed == 0 && corrupted.failed > 0;
        println!(
            "self-test {name}: honest expectations {} of {} failed, corrupted expectation {} of {} failed: {}",
            honest.failed,
            honest.attempted,
            corrupted.failed,
            corrupted.attempted,
            if caught { "caught" } else { "NOT CAUGHT" }
        );
        all_caught &= caught;
    }
    Ok(all_caught)
}

/// Minimal `--flag value` reader over the arguments after the mode.
pub struct Flags(Vec<String>);

impl Flags {
    pub fn take(&mut self, flag: &str) -> Result<Option<String>, String> {
        let Some(i) = self.0.iter().position(|a| a == flag) else {
            return Ok(None);
        };
        if i + 1 >= self.0.len() {
            return Err(format!("{flag} needs a value"));
        }
        self.0.remove(i);
        Ok(Some(self.0.remove(i)))
    }

    /// Whether the value-less `flag` was given.
    pub fn flag(&mut self, flag: &str) -> bool {
        let before = self.0.len();
        self.0.retain(|a| a != flag);
        self.0.len() != before
    }

    pub fn parse<T: std::str::FromStr>(&mut self, flag: &str) -> Result<Option<T>, String> {
        self.take(flag)?
            .map(|v| v.parse().map_err(|_| format!("{flag}: cannot read `{v}`")))
            .transpose()
    }

    pub fn positional(&mut self) -> Option<String> {
        (!self.0.is_empty()).then(|| self.0.remove(0))
    }

    pub fn finish(self) -> Result<(), String> {
        if self.0.is_empty() {
            Ok(())
        } else {
            Err(format!("unexpected arguments {:?}\n{USAGE}", self.0))
        }
    }
}

fn dispatch(mut argv: Vec<String>) -> Result<bool, String> {
    let mode = match argv.first().map(String::as_str) {
        Some(m) if !m.starts_with("--") || m == "--smoke" || m == "--self-test" => argv.remove(0),
        Some(_) => "run".to_string(),
        None => return Err(USAGE.to_string()),
    };
    let mut f = Flags(argv);
    match mode.as_str() {
        "run" => {
            let args = RunArgs {
                workload: f.take("--workload")?.ok_or("--workload is required")?,
                seed: f.parse("--seed")?.unwrap_or(1),
                trace: match f.take("--trace")?.as_deref() {
                    None | Some("0") => false,
                    Some("1") => true,
                    Some(v) => return Err(format!("--trace takes 0 or 1, not `{v}`")),
                },
                trace_out: f.take("--trace-out")?,
                pin: !f.flag("--no-pin"),
                protocol: Protocol {
                    seconds: f.parse("--seconds")?.unwrap_or(spec::RUN_SECONDS as f64),
                    setup_cycles: f
                        .parse("--setup-cycles")?
                        .unwrap_or(spec::SETUP_CYCLES)
                        .max(1),
                    min_rounds: f.parse("--min-rounds")?.unwrap_or(spec::MIN_ROUNDS).max(2),
                },
            };
            f.finish()?;
            run_one(&args)
        }
        "--self-test" => {
            f.finish()?;
            self_test()
        }
        "spec" => {
            f.finish()?;
            print!("{}", spec::benchmark_json(&serve::all_classes()));
            Ok(true)
        }
        "gen-expect" => {
            f.finish()?;
            print!("{}", sim::SimReplay::generate_expectations());
            Ok(true)
        }
        "--smoke" => tools::smoke(f),
        "all" => tools::all(f),
        "repeat" => tools::repeat(f),
        "compare" => tools::compare(f),
        other => Err(format!("unknown mode `{other}`\n{USAGE}")),
    }
}

fn main() -> ExitCode {
    match dispatch(std::env::args().skip(1).collect()) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("mo-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
