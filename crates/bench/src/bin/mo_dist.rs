//! Launch a real multi-process D-BSP fleet and check it against the
//! simulator.
//!
//! ```text
//! cargo run --release -p mo-bench --bin mo_dist -- [flags]
//!
//!   --smoke        bounded CI run (small sizes, 4 workers)
//!   --workers W    fleet size, a power of two          [default 4]
//!   --sort-n N     distributed sort size (N PEs)       [default 1024]
//!   --ngep-n N     N-GEP matrix side                   [default 32]
//!   --kappa K      N-GEP block side                    [default 4]
//!   --out FILE     write the merged fleet /metrics artifact here
//!   --trace        fleet tracing: calibrate worker clocks, collect
//!                  and merge every worker's trace, write a Perfetto
//!                  artifact, print the observed-vs-analytic per-level
//!                  table and the straggler report, and gate trace
//!                  overhead against an untraced fleet (<5% + floor)
//!   --trace-out F  fleet trace artifact path (implies --trace)
//!                  [default mo_dist_fleet_trace.json]
//!
//!   worker --index I --workers W --coord ADDR [--trace 0|1]
//!                  internal: run one shard process (the parent
//!                  re-execs itself with this subcommand)
//! ```
//!
//! The parent binds the router, re-execs itself `W` times as `worker`
//! processes, and drives every fleet program (`DistAlg::ALL`) across
//! the fleet. For each it re-runs the identical driver on the
//! in-process `NoMachine` (`DistAlg::reference`) and asserts, through
//! `DistOutcome::mismatches`:
//!
//! - bit-identical outputs (and FNV checksum over the assembled words);
//! - identical superstep counts and per-superstep traffic signatures;
//! - fleet-wide send == recv words per D-BSP cluster level, both equal
//!   to the words the signature implies for a `W`-processor machine;
//!
//! then reports measured words-per-superstep against the analytic
//! M(p, B) communication complexity H(n, p, B), scrapes the merged
//! fleet `/metrics` view over HTTP, and exits non-zero on any
//! divergence — so the smoke run doubles as the end-to-end assertion
//! in CI.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::process::{Child, Command};

use mo_dist::{DistAlg, DistOutcome, Partition, Router, Signature, WorkerConfig};
use no_framework::NoMachine;

struct Args {
    smoke: bool,
    workers: usize,
    sort_n: usize,
    ngep_n: usize,
    kappa: usize,
    out: Option<String>,
    trace: bool,
    trace_out: String,
}

impl Args {
    /// `(n, κ)` of one fleet program, from its command-line flags.
    fn size(&self, alg: DistAlg) -> (usize, usize) {
        if alg == DistAlg::Sort {
            (self.sort_n, 0)
        } else {
            (self.ngep_n, self.kappa)
        }
    }
}

fn usage(err: &str) -> ! {
    eprintln!("mo_dist: {err}");
    eprintln!(
        "usage: mo_dist [--smoke] [--workers W] [--sort-n N] [--ngep-n N] [--kappa K] \
         [--out FILE] [--trace] [--trace-out FILE]"
    );
    std::process::exit(2);
}

fn parse_args(argv: &[String]) -> Args {
    let mut args = Args {
        smoke: false,
        workers: 4,
        sort_n: 1024,
        ngep_n: 32,
        kappa: 4,
        out: None,
        trace: false,
        trace_out: "mo_dist_fleet_trace.json".to_string(),
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut val = |name: &str| {
            it.next()
                .unwrap_or_else(|| usage(&format!("{name} needs a value")))
                .clone()
        };
        match flag.as_str() {
            "--smoke" => {
                args.smoke = true;
                args.sort_n = 256;
                args.ngep_n = 16;
            }
            "--workers" => {
                args.workers = val("--workers")
                    .parse()
                    .unwrap_or_else(|_| usage("bad --workers"))
            }
            "--sort-n" => {
                args.sort_n = val("--sort-n")
                    .parse()
                    .unwrap_or_else(|_| usage("bad --sort-n"))
            }
            "--ngep-n" => {
                args.ngep_n = val("--ngep-n")
                    .parse()
                    .unwrap_or_else(|_| usage("bad --ngep-n"))
            }
            "--kappa" => {
                args.kappa = val("--kappa")
                    .parse()
                    .unwrap_or_else(|_| usage("bad --kappa"))
            }
            "--out" => args.out = Some(val("--out")),
            "--trace" => args.trace = true,
            "--trace-out" => {
                args.trace = true;
                args.trace_out = val("--trace-out");
            }
            other => usage(&format!("unknown flag {other}")),
        }
    }
    if !args.workers.is_power_of_two() {
        usage("--workers must be a power of two");
    }
    args
}

/// The `worker` subcommand: one shard process.
fn run_worker_proc(argv: &[String]) -> ! {
    let (mut index, mut workers, mut coord, mut trace) = (None, None, None, false);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let v = it
            .next()
            .unwrap_or_else(|| usage("worker flag needs a value"));
        match flag.as_str() {
            "--index" => index = v.parse().ok(),
            "--workers" => workers = v.parse().ok(),
            "--coord" => coord = Some(v.clone()),
            "--trace" => trace = v == "1",
            other => usage(&format!("unknown worker flag {other}")),
        }
    }
    let (Some(index), Some(workers), Some(coord)) = (index, workers, coord) else {
        usage("worker needs --index, --workers, --coord");
    };
    let mut cfg = WorkerConfig::new(index, workers, coord);
    cfg.trace = trace;
    match mo_dist::run_worker(cfg) {
        Ok(()) => std::process::exit(0),
        Err(e) => {
            eprintln!("worker {index}: {e}");
            std::process::exit(1);
        }
    }
}

fn spawn_fleet(workers: usize, trace: bool) -> (Router, Vec<Child>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind router");
    let coord = listener.local_addr().expect("router addr").to_string();
    let exe = std::env::current_exe().expect("current_exe");
    let children: Vec<Child> = (0..workers)
        .map(|i| {
            Command::new(&exe)
                .args([
                    "worker",
                    "--index",
                    &i.to_string(),
                    "--workers",
                    &workers.to_string(),
                    "--coord",
                    &coord,
                    "--trace",
                    if trace { "1" } else { "0" },
                ])
                .spawn()
                .expect("spawn worker process")
        })
        .collect();
    let router = Router::accept_fleet(&listener, workers).expect("fleet bootstrap");
    (router, children)
}

/// Median wall time of `reps` fleet sorts — the traced-vs-untraced
/// overhead probe (median, not mean: loopback TCP runs jitter).
fn median_sort_ns(router: &Router, n: usize, reps: usize) -> u64 {
    let mut t: Vec<u64> = (0..reps.max(1))
        .map(|i| {
            let start = std::time::Instant::now();
            router.run_sort(n, 0x7ace + i as u64).expect("timed sort");
            start.elapsed().as_nanos() as u64
        })
        .collect();
    t.sort_unstable();
    t[t.len() / 2]
}

/// Plain HTTP GET (loopback, one shot).
fn http_get(addr: &str, path: &str) -> std::io::Result<String> {
    let mut s = TcpStream::connect(addr)?;
    write!(
        s,
        "GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n"
    )?;
    let mut buf = String::new();
    s.read_to_string(&mut buf)?;
    let body = buf
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    if !buf.starts_with("HTTP/1.1 200") {
        return Err(std::io::Error::other(format!(
            "GET {path}: {}",
            buf.lines().next().unwrap_or("no response")
        )));
    }
    Ok(body)
}

/// Per-superstep cross-worker word totals (machine-wide), for the
/// words-per-superstep report.
fn words_per_superstep(sig: &Signature, n_pes: usize, workers: usize) -> Vec<u64> {
    let part = Partition::new(n_pes, workers);
    sig.steps()
        .map(|rows| {
            rows.filter(|&(s, d, _)| part.owner(s as usize) != part.owner(d as usize))
                .map(|(_, _, w)| w)
                .sum()
        })
        .collect()
}

struct Verdict {
    label: String,
    ok: bool,
    report: String,
}

fn check_kernel(
    label: &str,
    sim: &NoMachine,
    sim_out: &[u64],
    got: &DistOutcome,
    workers: usize,
) -> Verdict {
    let problems = got.mismatches(sim, sim_out);
    // The analytic bound: H(n, p, B) on M(W, B), words-measure (B = 1)
    // and one blocked size, vs the measured per-superstep maxima.
    let h_words = sim
        .try_communication_complexity(workers, 1)
        .expect("valid M(p,1)");
    let h_blocked = sim
        .try_communication_complexity(workers, 32)
        .expect("valid M(p,32)");
    let wps = words_per_superstep(&got.signature, sim.n_pes(), workers);
    let busiest = wps.iter().copied().max().unwrap_or(0);
    let total_socket: u64 = got.socket_words_per_level.iter().sum();
    // Scoped supersteps: frame exchanges actually performed per worker
    // against the W-1 per superstep a fleet-wide barrier would cost.
    let rounds_per_step: Vec<String> = got
        .exchange_rounds
        .iter()
        .map(|&r| format!("{:.2}", r as f64 / got.supersteps.max(1) as f64))
        .collect();
    let report = format!(
        "{label}: {} supersteps, {} socket words by level {:?}\n\
         {label}: words/superstep total={} max={} mean={:.1}\n\
         {label}: exchange rounds/worker {:?}, rounds/superstep [{}] (fleet-wide: {})\n\
         {label}: analytic H(n,p=W,B=1)={h_words} blocks, H(n,p=W,B=32)={h_blocked} blocks",
        got.supersteps,
        total_socket,
        got.socket_words_per_level,
        wps.iter().sum::<u64>(),
        busiest,
        wps.iter().sum::<u64>() as f64 / wps.len().max(1) as f64,
        got.exchange_rounds,
        rounds_per_step.join(", "),
        workers - 1,
    );
    Verdict {
        label: label.to_string(),
        ok: problems.is_empty(),
        report: if problems.is_empty() {
            report
        } else {
            format!("{report}\n{label}: FAILED: {}", problems.join("; "))
        },
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("worker") {
        run_worker_proc(&argv[1..]);
    }
    let args = parse_args(&argv);
    let seed = 0x5eed;

    println!(
        "mo_dist: spawning {} worker processes (sort n={}, ngep n={} kappa={})",
        args.workers, args.sort_n, args.ngep_n, args.kappa
    );
    let (router, mut children) = spawn_fleet(args.workers, args.trace);
    let metrics = router
        .serve_fleet_metrics("127.0.0.1:0")
        .expect("fleet metrics endpoint");
    if args.trace {
        let cals = router.calibrate_clocks(8).expect("clock calibration");
        for (w, c) in cals.iter().enumerate() {
            println!(
                "clock: worker {w} offset {} ns (min rtt {} ns)",
                c.offset_ns, c.rtt_ns
            );
        }
    }

    let mut verdicts = Vec::new();
    let mut outcomes = Vec::new();
    for alg in DistAlg::ALL {
        let (n, kappa) = args.size(alg);
        let (sim, want) = alg.reference(n, kappa, seed);
        let got = router
            .run(alg, n, kappa, seed)
            .unwrap_or_else(|e| panic!("fleet {}: {e}", alg.name()));
        verdicts.push(check_kernel(alg.name(), &sim, &want, &got, args.workers));
        outcomes.push((alg.name(), got, sim.n_pes()));
    }

    for v in &verdicts {
        println!("{}", v.report);
    }

    // --trace: the fleet observability pass — live per-level tables,
    // the overhead gate, and the merged Perfetto artifact.
    let mut trace_ok = true;
    if args.trace {
        for (label, got, n_pes) in &outcomes {
            let rows = mo_dist::level_table(got, *n_pes, args.workers);
            println!(
                "{label}: observed vs analytic per cluster level:\n{}",
                mo_dist::format_level_table(&rows)
            );
        }

        // Overhead gate, in the obs_report mold: tracing must cost the
        // fleet < 5% wall time plus a fixed floor for loopback jitter.
        let reps = if args.smoke { 5 } else { 3 };
        let traced_ns = median_sort_ns(&router, args.sort_n, reps);
        let (plain_router, mut plain_children) = spawn_fleet(args.workers, false);
        let plain_ns = median_sort_ns(&plain_router, args.sort_n, reps);
        plain_router.shutdown();
        for child in &mut plain_children {
            let _ = child.wait();
        }
        let limit_ns = plain_ns + plain_ns / 20 + 25_000_000;
        println!(
            "trace overhead: traced {:.3} ms vs plain {:.3} ms (limit {:.3} ms)",
            traced_ns as f64 / 1e6,
            plain_ns as f64 / 1e6,
            limit_ns as f64 / 1e6
        );
        if traced_ns > limit_ns {
            eprintln!("trace overhead gate FAILED: tracing perturbs the fleet");
            trace_ok = false;
        }

        // Collect, merge, validate, and persist the fleet timeline.
        let streams = router.collect_trace().expect("collect fleet trace");
        let json = mo_obs::fleet::to_chrome_json(&streams);
        if let Err(e) = mo_obs::chrome::validate(&json) {
            eprintln!("fleet trace artifact does not validate: {e}");
            trace_ok = false;
        }
        std::fs::write(&args.trace_out, &json).expect("write fleet trace artifact");
        println!(
            "fleet trace: {} events from {} workers written to {}",
            streams.iter().map(|s| s.events.len()).sum::<usize>(),
            streams.len(),
            args.trace_out
        );
        print!(
            "{}",
            mo_dist::straggler_report(&mo_obs::fleet::summarize(&streams))
        );
    }

    // The merged fleet view over HTTP, with per-shard sanity checks.
    let fleet_text = http_get(&metrics.addr().to_string(), "/metrics").expect("scrape fleet view");
    let mut metrics_ok = true;
    for shard in 0..args.workers {
        let needle = format!("shard=\"{shard}\"");
        if !fleet_text.contains(&needle) {
            eprintln!("fleet view: no samples labeled {needle}");
            metrics_ok = false;
        }
    }
    let mut families = vec![
        "modist_fleet_workers",
        "modist_exchange_rounds_total",
        "modist_socket_words_total",
        "modist_recv_words_total",
        "moserve_jobs_submitted_total",
    ];
    if args.trace {
        // The trace collection ran, so the merged view must carry the
        // barrier-wait histograms and per-shard ring-drop counters.
        families.push("modist_barrier_wait_seconds_bucket");
        families.push("modist_trace_ring_dropped_total");
    }
    for family in families {
        if !fleet_text.contains(family) {
            eprintln!("fleet view: missing family {family}");
            metrics_ok = false;
        }
    }
    println!(
        "fleet view: {} lines from {} shards at http://{}/metrics{}",
        fleet_text.lines().count(),
        args.workers,
        metrics.addr(),
        if metrics_ok { "" } else { " (INCOMPLETE)" }
    );

    if let Some(path) = &args.out {
        std::fs::write(path, &fleet_text).expect("write fleet metrics artifact");
        println!("fleet view written to {path}");
    }

    drop(metrics);
    router.shutdown();
    let mut clean = true;
    for (i, child) in children.iter_mut().enumerate() {
        let status = child.wait().expect("wait worker");
        if !status.success() {
            eprintln!("worker {i} exited with {status}");
            clean = false;
        }
    }

    let all_ok = verdicts.iter().all(|v| v.ok) && metrics_ok && clean && trace_ok;
    for v in &verdicts {
        println!(
            "{}: {}",
            v.label,
            if v.ok {
                "sim == sockets (bit-identical)"
            } else {
                "DIVERGED"
            }
        );
    }
    if !all_ok {
        std::process::exit(1);
    }
    println!(
        "mo_dist: {} worker processes, all checks passed{}",
        args.workers,
        if args.smoke { " (smoke)" } else { "" }
    );
}
