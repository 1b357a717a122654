//! Load generator for the `mo-serve` kernel service.
//!
//! ```text
//! cargo run --release -p mo-bench --bin serve_load -- [flags]
//!
//!   --smoke               bounded CI run: boot, serve a mixed batch
//!                         closed-loop, assert a clean drain, exit
//!   --mode open|closed    open loop: fixed arrival rate regardless of
//!                         completions (measures shedding under a set
//!                         offered load); closed loop: each client
//!                         submits, waits, repeats (measures capacity)
//!   --rate R              open-loop arrivals per second   [default 200]
//!   --clients C           closed-loop client threads      [default 4]
//!   --duration SECS       run length in seconds           [default 5]
//!   --queue-cap N         server queue bound              [default 256]
//!   --deadline-ms MS      per-job queue deadline          [default 500]
//!   --scenario FILE       workload file: `kernel size weight` lines
//!                         (default: built-in mixed workload; see
//!                         crates/bench/scenarios/mixed.scn)
//!   --secure              refuse kernels without an `oblivious`
//!                         value-obliviousness certificate (typed
//!                         NotCertified shedding; sort is refused)
//!   --certs FILE          certificate artifact for --secure
//!                         [default certify/certificates.json]
//!   --phases              attach a trace sink and print the per-kernel
//!                         per-phase p50/p95/p99 attribution table
//!   --trace-out FILE      with --phases: write the request-span
//!                         timeline as validated chrome-trace JSON
//!   --report FILE         with --phases: write the closed-loop report
//!                         (tally, throughput, span accounting, phase
//!                         quantiles) as JSON
//!   --overhead-check      run traced-vs-untraced closed-loop controls
//!                         and exit non-zero if span emission costs
//!                         more than 5% throughput
//! ```
//!
//! Both modes print the server's final [`MetricsSnapshot`] plus a
//! client-side outcome tally, and exit non-zero if the drain left
//! anything queued or admitted — so the smoke run doubles as an
//! end-to-end assertion in CI. With `--phases` the run additionally
//! asserts span conservation: every span the rings did not drop must
//! close exactly once.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use mo_algorithms::real::registry::parse_scenario_line;
use mo_serve::{HwHierarchy, JobSpec, Kernel, Outcome, Rejected, ServeConfig, Server, Ticket};

/// One weighted line of the workload mix.
#[derive(Debug, Clone, Copy)]
struct Mix {
    kernel: Kernel,
    n: usize,
    weight: u32,
}

/// The default workload, compiled in.
const BUILTIN_MIX: &str = include_str!("../../scenarios/mixed.scn");

/// Parse a scenario (`kernel  size  weight` lines); `origin` names it in
/// error messages.
fn parse_scenario(origin: &str, text: &str) -> Result<Vec<Mix>, String> {
    let mut mix = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        match parse_scenario_line(line) {
            Ok(Some((kernel, n, weight))) => mix.push(Mix { kernel, n, weight }),
            Ok(None) => {}
            Err(what) => return Err(format!("{origin}:{}: {what}: {line:?}", lineno + 1)),
        }
    }
    if mix.is_empty() {
        return Err(format!("{origin}: no workload lines"));
    }
    Ok(mix)
}

/// Deterministic weighted draw.
struct Draw {
    mix: Vec<Mix>,
    total: u32,
    state: u64,
}

impl Draw {
    fn new(mix: Vec<Mix>, seed: u64) -> Self {
        let total = mix.iter().map(|m| m.weight).sum::<u32>().max(1);
        Self {
            mix,
            total,
            state: seed | 1,
        }
    }

    fn next(&mut self) -> (Kernel, usize, u64) {
        self.state = self
            .state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let mut pick = ((self.state >> 33) as u32) % self.total;
        for m in &self.mix {
            if pick < m.weight {
                return (m.kernel, m.n, self.state);
            }
            pick -= m.weight;
        }
        let m = self.mix[0];
        (m.kernel, m.n, self.state)
    }
}

#[derive(Debug, Default)]
struct Tally {
    done: AtomicU64,
    shed_submit: AtomicU64,
    shed_deadline: AtomicU64,
}

impl Tally {
    fn count(&self, outcome: &Outcome) {
        match outcome {
            Outcome::Done(_) => self.done.fetch_add(1, Ordering::Relaxed),
            Outcome::Rejected(Rejected::DeadlineExpired { .. }) => {
                self.shed_deadline.fetch_add(1, Ordering::Relaxed)
            }
            Outcome::Rejected(_) => self.shed_submit.fetch_add(1, Ordering::Relaxed),
        };
    }
}

struct Args {
    smoke: bool,
    open_loop: bool,
    rate: f64,
    clients: usize,
    duration: Duration,
    queue_cap: usize,
    deadline: Duration,
    scenario: Option<String>,
    secure: bool,
    certs: String,
    phases: bool,
    trace_out: Option<String>,
    report: Option<String>,
    overhead_check: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        smoke: false,
        open_loop: false,
        rate: 200.0,
        clients: 4,
        duration: Duration::from_secs(5),
        queue_cap: 256,
        deadline: Duration::from_millis(500),
        scenario: None,
        secure: false,
        certs: "certify/certificates.json".to_string(),
        phases: false,
        trace_out: None,
        report: None,
        overhead_check: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--smoke" => args.smoke = true,
            "--mode" => {
                args.open_loop = match val("--mode")?.as_str() {
                    "open" => true,
                    "closed" => false,
                    m => return Err(format!("unknown mode {m:?}")),
                }
            }
            "--rate" => args.rate = val("--rate")?.parse().map_err(|e| format!("--rate: {e}"))?,
            "--clients" => {
                args.clients = val("--clients")?
                    .parse()
                    .map_err(|e| format!("--clients: {e}"))?
            }
            "--duration" => {
                args.duration = Duration::from_secs_f64(
                    val("--duration")?
                        .parse()
                        .map_err(|e| format!("--duration: {e}"))?,
                )
            }
            "--queue-cap" => {
                args.queue_cap = val("--queue-cap")?
                    .parse()
                    .map_err(|e| format!("--queue-cap: {e}"))?
            }
            "--deadline-ms" => {
                args.deadline = Duration::from_millis(
                    val("--deadline-ms")?
                        .parse()
                        .map_err(|e| format!("--deadline-ms: {e}"))?,
                )
            }
            "--scenario" => args.scenario = Some(val("--scenario")?),
            "--secure" => args.secure = true,
            "--certs" => args.certs = val("--certs")?,
            "--phases" => args.phases = true,
            "--trace-out" => args.trace_out = Some(val("--trace-out")?),
            "--report" => args.report = Some(val("--report")?),
            "--overhead-check" => args.overhead_check = true,
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(args)
}

/// Closed loop: each client thread submits one job, waits for its
/// outcome, and repeats until the deadline — offered load tracks
/// service capacity, so this measures throughput and latency.
fn closed_loop(server: &Server, draw: &mut Draw, tally: &Tally, clients: usize, until: Instant) {
    std::thread::scope(|s| {
        for c in 0..clients {
            let mut draw = Draw::new(draw.mix.clone(), draw.state ^ ((c as u64 + 1) << 32));
            s.spawn(move || {
                while Instant::now() < until {
                    let (kernel, n, seed) = draw.next();
                    match server.submit(JobSpec::new(kernel, n, seed)) {
                        Ok(ticket) => tally.count(&ticket.wait()),
                        Err(r) => tally.count(&Outcome::Rejected(r)),
                    }
                }
            });
        }
    });
}

/// Open loop: arrivals at a fixed rate no matter how the server is
/// doing — the saturating regime where admission control and shedding
/// must carry the overload. Tickets resolve on collector threads.
fn open_loop(server: &Server, draw: &mut Draw, tally: &Tally, rate: f64, until: Instant) {
    let interval = Duration::from_secs_f64(1.0 / rate.max(0.001));
    let (tx, rx) = mpsc::channel::<Ticket>();
    std::thread::scope(|s| {
        let collector = s.spawn(move || {
            while let Ok(ticket) = rx.recv() {
                tally.count(&ticket.wait());
            }
        });
        let mut next_at = Instant::now();
        while Instant::now() < until {
            let (kernel, n, seed) = draw.next();
            match server.submit(JobSpec::new(kernel, n, seed)) {
                Ok(ticket) => {
                    let _ = tx.send(ticket);
                }
                Err(r) => tally.count(&Outcome::Rejected(r)),
            }
            next_at += interval;
            if let Some(sleep) = next_at.checked_duration_since(Instant::now()) {
                std::thread::sleep(sleep);
            }
        }
        drop(tx);
        let _ = collector.join();
    });
}

fn phase_json(h: &mo_obs::hist::Log2Hist) -> String {
    format!(
        "{{\"count\":{},\"p50_ns\":{},\"p95_ns\":{},\"p99_ns\":{}}}",
        h.count,
        h.quantile(0.50),
        h.quantile(0.95),
        h.quantile(0.99)
    )
}

/// `--phases` epilogue: reassemble the drained request spans, print the
/// per-kernel phase-attribution table, enforce span conservation, and
/// write the optional chrome-trace / JSON report artifacts. Returns
/// `false` when a drop-free run failed to conserve its spans.
fn phase_report(args: &Args, sink: &mo_obs::TraceSink, tally: &Tally, duration: Duration) -> bool {
    use mo_bench::kernel_name_of;
    use mo_obs::span::{self, Phase};
    let events = sink.drain();
    let dropped: u64 = sink.dropped_per_worker().iter().sum();
    let set = span::assemble(&events);
    let stats = span::phase_stats(&set);
    println!("== request-path phase attribution ==");
    print!("{}", span::format_phase_table(&stats, kernel_name_of));
    println!(
        "spans: {} opened, {} closed, {} orphan closes, {} ring events dropped ({})",
        set.opened,
        set.closed,
        set.orphan_closes,
        dropped,
        if set.conserved() {
            "conserved"
        } else {
            "NOT conserved"
        },
    );
    if let Some(path) = &args.trace_out {
        let json = mo_obs::chrome::to_chrome_json(&events);
        mo_obs::chrome::validate(&json).expect("emitted chrome trace must validate");
        std::fs::write(path, &json).expect("write chrome trace");
        println!("wrote {path}: {} events", events.len());
    }
    if let Some(path) = &args.report {
        let done = tally.done.load(Ordering::Relaxed);
        let kernels: Vec<String> = stats
            .iter()
            .map(|(code, k)| {
                let phases: Vec<String> = Phase::ALL
                    .iter()
                    .map(|p| format!("\"{}\":{}", p.name(), phase_json(&k.phases[*p as usize])))
                    .collect();
                format!(
                    "{{\"kernel\":\"{}\",\"complete_spans\":{},\"shed\":{},\"dominant_p99\":\"{}\",\"phases\":{{{}}},\"total\":{}}}",
                    kernel_name_of(*code),
                    k.count,
                    k.shed,
                    k.dominant_phase(0.99).0.name(),
                    phases.join(","),
                    phase_json(&k.total),
                )
            })
            .collect();
        let json = format!(
            "{{\"mode\":\"{}\",\"duration_secs\":{},\"served\":{},\"refused_at_submit\":{},\"shed_by_deadline\":{},\"jobs_per_sec\":{:.1},\"spans\":{{\"opened\":{},\"closed\":{},\"orphan_closes\":{},\"ring_dropped\":{},\"conserved\":{}}},\"kernels\":[{}]}}",
            if args.open_loop { "open" } else { "closed" },
            duration.as_secs_f64(),
            done,
            tally.shed_submit.load(Ordering::Relaxed),
            tally.shed_deadline.load(Ordering::Relaxed),
            done as f64 / duration.as_secs_f64(),
            set.opened,
            set.closed,
            set.orphan_closes,
            dropped,
            set.conserved(),
            kernels.join(","),
        );
        std::fs::write(path, &json).expect("write phase report");
        println!("wrote {path}");
    }
    // Dropped ring events legitimately orphan spans; only a drop-free
    // run is required to conserve.
    dropped > 0 || set.conserved()
}

/// `--overhead-check`: the acceptance gate that span emission is cheap.
/// Runs short closed-loop controls — untraced vs traced, same config
/// and mix — and fails if the traced server serves more than 5% fewer
/// jobs, minus a small fixed allowance absorbing scheduler noise at
/// sub-second run lengths.
fn overhead_check(mix: &[Mix]) -> bool {
    let dur = Duration::from_millis(600);
    let run_once = |traced: bool, seed: u64| -> u64 {
        let hier = HwHierarchy::detect();
        let cores = hier.cores();
        let server = Server::start(hier, ServeConfig::default());
        let sink = traced.then(|| {
            let sink = std::sync::Arc::new(mo_obs::TraceSink::new(cores));
            assert!(server.attach_sink(std::sync::Arc::clone(&sink)));
            sink
        });
        let mut draw = Draw::new(mix.to_vec(), seed);
        let tally = Tally::default();
        closed_loop(&server, &mut draw, &tally, 2, Instant::now() + dur);
        let snapshot = server.drain();
        assert_eq!(snapshot.queue_depth, 0, "overhead control must drain clean");
        if let Some(sink) = sink {
            assert!(
                !sink.drain().is_empty(),
                "traced control emitted no span events"
            );
        }
        tally.done.load(Ordering::Relaxed)
    };
    let (mut plain, mut traced) = (0u64, 0u64);
    for round in 0..3 {
        plain = plain.max(run_once(false, 0x0dd5 ^ round));
        traced = traced.max(run_once(true, 0xace5 ^ round));
    }
    let floor = plain.saturating_sub(plain / 20 + 50);
    println!(
        "overhead: best-of-3 {dur:?} closed loops — untraced {plain} jobs, traced {traced} jobs (floor {floor})"
    );
    traced >= floor
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("serve_load: {e}");
            std::process::exit(2);
        }
    };
    let mix = match &args.scenario {
        Some(path) => std::fs::read_to_string(path)
            .map_err(|e| format!("{path}: {e}"))
            .and_then(|text| parse_scenario(path, &text)),
        None => parse_scenario("built-in mixed.scn", BUILTIN_MIX),
    };
    let mix = match mix {
        Ok(m) => m,
        Err(e) => {
            eprintln!("serve_load: {e}");
            std::process::exit(2);
        }
    };
    let (duration, clients, rate) = if args.smoke {
        (Duration::from_millis(1500), 2, 100.0)
    } else {
        (args.duration, args.clients, args.rate)
    };
    let hier = HwHierarchy::detect();
    println!(
        "machine: {} cores, {} cache levels (L1 {} words); mode: {}; {} mix lines; {:?} run",
        hier.cores(),
        hier.levels().len(),
        hier.l1_capacity(),
        if args.open_loop { "open" } else { "closed" },
        mix.len(),
        duration,
    );
    let certificates = if args.secure {
        match std::fs::read_to_string(&args.certs)
            .map_err(|e| e.to_string())
            .and_then(|t| mo_core::CertificateSet::from_json_str(&t))
        {
            Ok(set) => {
                println!(
                    "secure mode: {} certificates loaded from {}; uncertified kernels are refused",
                    set.certs.len(),
                    args.certs
                );
                Some(set)
            }
            Err(e) => {
                eprintln!(
                    "serve_load: --secure with no usable certificates ({}: {e}); \
                     run `cargo run --release -p mo-bench --bin mo_certify` first",
                    args.certs
                );
                std::process::exit(2);
            }
        }
    } else {
        None
    };
    let cores = hier.cores();
    let server = Server::start(
        hier,
        ServeConfig {
            queue_cap: args.queue_cap,
            default_deadline: args.deadline,
            certificates,
            ..ServeConfig::default()
        },
    );
    let sink = args.phases.then(|| {
        // Serve events and the pool's helper-thread scheduler events
        // share the external ring, so a load run needs more headroom
        // than the default capacity to keep span conservation checkable.
        let sink = std::sync::Arc::new(mo_obs::TraceSink::with_capacity(cores, 1 << 18));
        assert!(server.attach_sink(std::sync::Arc::clone(&sink)));
        sink
    });
    let mut draw = Draw::new(mix, 0xfeed_face);
    let tally = Tally::default();
    let until = Instant::now() + duration;
    if args.open_loop {
        open_loop(&server, &mut draw, &tally, rate, until);
    } else {
        closed_loop(&server, &mut draw, &tally, clients, until);
    }
    let snapshot = server.drain();
    println!("\n{snapshot}");
    let done = tally.done.load(Ordering::Relaxed);
    let shed_submit = tally.shed_submit.load(Ordering::Relaxed);
    let shed_deadline = tally.shed_deadline.load(Ordering::Relaxed);
    println!(
        "client tally: {done} served, {shed_submit} refused at submit, {shed_deadline} shed by deadline ({:.1} jobs/s served)",
        done as f64 / duration.as_secs_f64()
    );
    let spans_ok = match &sink {
        Some(sink) => phase_report(&args, sink, &tally, duration),
        None => true,
    };
    // The run doubles as an assertion: the drain must be clean and the
    // server must have made progress. In smoke mode this gates CI.
    let clean = snapshot.queue_depth == 0
        && snapshot.levels.iter().all(|l| l.inflight_words == 0)
        && snapshot.completed_total() == done
        && done > 0;
    if !clean {
        eprintln!("serve_load: drain was not clean");
        std::process::exit(1);
    }
    if !spans_ok {
        eprintln!("serve_load: span conservation failed on a drop-free run");
        std::process::exit(1);
    }
    println!("drain clean");
    if args.overhead_check {
        if !overhead_check(&draw.mix) {
            eprintln!("serve_load: span overhead above the 5% gate");
            std::process::exit(1);
        }
        println!("overhead gate: traced within 5% of untraced");
    }
}
