//! Scheduler-decision and cache-witness report: run the real kernels
//! under runtime tracing and print what the SB/CGC scheduler *did* next
//! to what the paper's analysis *predicts*, flagging divergences.
//!
//! For every kernel the report shows:
//!
//! * the analytic footprint (registry space function) and the cache
//!   level the SB scheduler should anchor the root task at, against the
//!   observed per-fork anchor-level distribution and the largest space
//!   bound any fork actually declared;
//! * steal counts and the steal rate (stolen tasks per executed queued
//!   task) — the work-stealing cost the HM analysis bounds via the
//!   O(depth) steal argument;
//! * the permit-denied rate: how often an above-cutoff fork could not
//!   get a core permit, i.e. how far execution diverged from the pure
//!   SB schedule that parallelizes every such fork;
//! * the CGC segment-length histogram (log₂ buckets) with the
//!   below-grain count (at most the tail chunk of each `pfor`).
//!
//! **Cache witness** (`== cache witness ==` section): measured
//! per-level block transfers for every registry kernel, from up to two
//! backends, against the analytic `Q_i` bounds of the paper:
//!
//! * the **sim backend** records each kernel as an access trace and
//!   replays it through the `hm` LRU simulator on a [`spec_from_host`]
//!   map of the detected hierarchy — portable, deterministic, and the
//!   backend the CI gate runs on;
//! * the **perf backend** reads hardware L1D/LLC miss counters scoped
//!   around every task the pool executes (attached via
//!   `SbPool::attach_witness`); when `perf_event_open` is unavailable
//!   (containers, `perf_event_paranoid`), the report says so and
//!   continues on the sim backend alone.
//!
//! `--gate <factor>` turns the comparison into an acceptance check:
//! exit nonzero if any kernel's *sim-measured* transfers exceed the
//! analytic bound times `factor` at any level.
//!
//! The merged event timeline of the whole suite — including the
//! witness counter tracks — is written as chrome-trace JSON (`--out`,
//! default `obs_trace.json`), loadable in Perfetto /
//! `chrome://tracing`; `--validate <file>` re-runs the structural
//! validator on a previously exported file and exits.
//!
//! `--smoke` shrinks sizes for CI and additionally asserts that the
//! tracing machinery itself is cheap: matmul with a sink attached must
//! stay within 5% (plus a fixed noise floor) of the same pool with no
//! sink attached.
//!
//! **Serve mode** (`--serve`): instead of tracing the pool directly,
//! boot an in-process `mo-serve` server with a trace sink attached,
//! burst-submit every registry kernel so the bounded queue and the
//! CGC⇒SB batcher engage, and print the request-path **phase
//! attribution table** — per-kernel p50/p95/p99 for the
//! admission/queue/batch/execute phases with the dominant phase named
//! at each quantile (`mo_obs::span`). For each kernel the report
//! compares queue p99 against what the analytic batch cost explains —
//! the burst drains in `per/batch` waves, so queueing beyond
//! `waves × execute p99` is divergence the batching model cannot
//! account for — and `--gate <factor>` turns that comparison into an
//! acceptance check. The span timeline is written to `--out` as
//! validated chrome-trace JSON.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use hm_model::{spec_from_host, MachineSpec};
use mo_algorithms::certify::record_kernel;
use mo_algorithms::real::registry::{
    analytic_transfers, footprint_words, run_kernel, Kernel, BLOCK_WORDS,
};
use mo_bench::kernel_name_of;
use mo_core::rt::{HwHierarchy, SbPool};
use mo_core::sched::{simulate, Policy};
use mo_obs::witness::{LevelTransfers, PerfWitness, WitnessBackend, WitnessMeasurement};
use mo_obs::{chrome, summary, EventKind, TraceSink};

/// Median-of-`reps` wall-clock nanoseconds of `f` (one warmup call).
fn median_ns<R>(reps: usize, mut f: impl FnMut() -> R) -> u64 {
    black_box(f());
    let mut samples: Vec<u64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            black_box(f());
            t.elapsed().as_nanos() as u64
        })
        .collect();
    samples.sort_unstable();
    samples[samples.len() / 2]
}

fn level_name(level: u64) -> String {
    if level == u64::MAX {
        "none".to_string()
    } else {
        format!("L{}", level + 1)
    }
}

/// One kernel's traced run: execute, drain, summarize, and print the
/// observed-vs-predicted report. Returns the drained events (for the
/// merged chrome trace and the perf-witness rollup) and the number of
/// divergences flagged.
fn report_kernel(
    pool: &SbPool,
    sink: &TraceSink,
    k: Kernel,
    n: usize,
) -> (Vec<mo_obs::Event>, usize) {
    let hier = pool.hierarchy();
    let checksum = run_kernel(pool, k, n, 42);
    let events = sink.drain();
    let s = summary::summarize(&events);

    let footprint = footprint_words(k, n);
    let predicted = hier.anchor_level(footprint).map_or(u64::MAX, |l| l as u64);
    let observed_top = s
        .anchor_levels
        .keys()
        .copied()
        .filter(|&l| l != u64::MAX)
        .max();

    println!("== {k} n={n} (checksum {checksum:#018x}) ==");
    println!(
        "  analytic: footprint {footprint} words -> root anchors at {}",
        level_name(predicted)
    );
    let dist: Vec<String> = s
        .anchor_levels
        .iter()
        .map(|(l, c)| format!("{}:{c}", level_name(*l)))
        .collect();
    println!(
        "  observed: max fork space {} words, fork anchors {{{}}}",
        s.max_fork_space,
        dist.join(", ")
    );
    println!(
        "  forks: {} parallel / {} serial / {} denied (denied rate {:.1}%)",
        s.count(EventKind::ForkParallel),
        s.count(EventKind::ForkSerial),
        s.count(EventKind::ForkDenied),
        s.denied_rate() * 100.0
    );
    println!(
        "  tasks: {} executed from queues, {} steals (steal rate {:.2}), {} injector pops, {} parks",
        s.count(EventKind::TaskEnter),
        s.count(EventKind::StealSuccess),
        s.steal_rate(),
        s.count(EventKind::InjectorPop),
        s.count(EventKind::Park),
    );
    let nsegs = s.count(EventKind::CgcSegment);
    if nsegs > 0 {
        let hist: Vec<String> = s
            .seg_log2
            .buckets
            .iter()
            .enumerate()
            .filter(|(_, c)| **c > 0)
            .map(|(i, c)| format!("<=2^{i}:{c}"))
            .collect();
        println!(
            "  cgc segments: {nsegs}, len {}..={}, below-grain {} [{}]",
            s.seg_min,
            s.seg_max,
            s.seg_below_grain,
            hist.join(" ")
        );
    }

    // Divergences between the observed schedule and the analysis.
    let mut flags = Vec::new();
    if s.max_fork_space > footprint as u64 {
        flags.push(format!(
            "fork declared {} words of space, above the analytic footprint {footprint}",
            s.max_fork_space
        ));
    }
    if let Some(top) = observed_top {
        if top > predicted {
            flags.push(format!(
                "forks anchored at {} but the whole kernel should fit at {}",
                level_name(top),
                level_name(predicted)
            ));
        }
    }
    if s.denied_rate() > 0.10 {
        flags.push(format!(
            "{:.1}% of above-cutoff forks were permit-denied: execution diverged from the pure SB schedule",
            s.denied_rate() * 100.0
        ));
    }
    if nsegs > 0 && s.seg_below_grain > nsegs.div_ceil(4) {
        flags.push(format!(
            "{} of {nsegs} CGC segments are below their grain (expected: at most the tail chunk per pfor)",
            s.seg_below_grain
        ));
    }
    if flags.is_empty() {
        println!("  divergences: none");
    } else {
        for f in &flags {
            println!("  divergence: {f}");
        }
    }
    println!();
    (events, flags.len())
}

/// `--smoke` overhead gate: tracing must cost < 5% on matmul.
fn assert_overhead_small(hier: &HwHierarchy) {
    let reps = 5;
    let n = 96;
    let plain_pool = SbPool::new(hier.clone());
    let plain = median_ns(reps, || run_kernel(&plain_pool, Kernel::Matmul, n, 7));
    let traced_pool = SbPool::new(hier.clone());
    traced_pool.attach_sink(Arc::new(TraceSink::new(hier.cores())));
    let traced = median_ns(reps, || run_kernel(&traced_pool, Kernel::Matmul, n, 7));
    // A fixed floor absorbs scheduler noise at these microsecond scales;
    // the 5% ratio is what the acceptance gate is about.
    let limit = plain + plain / 20 + 1_000_000;
    println!("overhead: matmul n={n} untraced {plain} ns, traced {traced} ns (limit {limit} ns)");
    assert!(
        traced <= limit,
        "tracing overhead too high: {traced} ns vs {plain} ns untraced"
    );
}

// ---------------------------------------------------------------------------
// Cache witness: measured per-level Q_i vs the analytic bounds.
// ---------------------------------------------------------------------------

/// Which witness backends the report should run.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Backend {
    Sim,
    Perf,
    Both,
}

impl Backend {
    fn wants_sim(self) -> bool {
        self != Backend::Perf
    }
    fn wants_perf(self) -> bool {
        self != Backend::Sim
    }
}

/// Problem size for the *simulated* witness run: the LRU replay
/// interprets every memory operation, so these stay small — the size
/// `mo_certify` records at, four times it for the full report.
fn sim_size(k: Kernel, smoke: bool) -> usize {
    k.recorded_n() * if smoke { 1 } else { 4 }
}

/// Number of level-`level` cache instances on `spec` (the paper's
/// `q_i`): cores divided by how many cores share one such cache.
fn caches_at(spec: &MachineSpec, level: usize) -> usize {
    let sharing: usize = (1..=level).map(|i| spec.level(i).fanout).product();
    (spec.cores() / sharing.max(1)).max(1)
}

/// One (kernel, level) comparison row of the witness table.
struct WitnessRow {
    kernel: Kernel,
    level: usize,
    measured: u64,
    analytic: f64,
}

impl WitnessRow {
    fn ratio(&self) -> f64 {
        self.measured as f64 / self.analytic.max(1.0)
    }
}

/// Map the detected hardware hierarchy onto an HM [`MachineSpec`] for
/// the replay backend.
fn host_spec(hier: &HwHierarchy) -> Result<MachineSpec, String> {
    let levels: Vec<(usize, usize)> = hier
        .levels()
        .iter()
        .map(|l| (l.capacity, l.fanout))
        .collect();
    spec_from_host(&levels).map_err(|e| format!("host hierarchy rejected: {e:?}"))
}

fn describe_spec(spec: &MachineSpec) -> String {
    (1..=spec.cache_levels())
        .map(|i| {
            let l = spec.level(i);
            format!(
                "L{i} {} w (B={}, q={})",
                l.capacity,
                l.block,
                caches_at(spec, i)
            )
        })
        .collect::<Vec<_>>()
        .join(" | ")
}

/// Run the sim-backend witness for one kernel: record, replay through
/// the LRU simulator on the host map, and print measured-vs-analytic
/// per level. Returns the comparison rows for the gate.
fn sim_witness_kernel(k: Kernel, size: usize, spec: &MachineSpec) -> Vec<WitnessRow> {
    // Seed 1 is `mo_certify`'s base run, so the smoke replay is the very
    // program `certify/certificates.json` describes.
    let program = record_kernel(k, size, 1);
    let report = simulate(&program, spec, Policy::Mo);
    let m = WitnessMeasurement {
        backend: WitnessBackend::Sim,
        levels: (1..=report.metrics.cache_levels())
            .map(|i| LevelTransfers {
                level: i,
                transfers: report.metrics.level(i).max_transfers,
            })
            .collect(),
        instructions: None,
        detail: format!(
            "{} mem-ops replayed, makespan {} steps",
            report.work, report.makespan
        ),
    };
    // The replayed program's working set is its declared root space.
    let words = program.tasks()[program.root()].space;
    print_witness_kernel(k, k.effective_n(size), words, &m, spec)
}

/// Print one kernel's witness measurement against the analytic bounds
/// `Q_i(n; C_i, B_i)` of a size-`n` run whose working set is `words`;
/// returns the rows (empty for levels the backend did not measure).
fn print_witness_kernel(
    k: Kernel,
    n: usize,
    words: usize,
    m: &WitnessMeasurement,
    spec: &MachineSpec,
) -> Vec<WitnessRow> {
    println!("{k} n={n} [{}]: {}", m.backend.name(), m.detail);
    let mut rows = Vec::new();
    for lt in &m.levels {
        if lt.level > spec.cache_levels() {
            continue;
        }
        let l = spec.level(lt.level);
        let caches = caches_at(spec, lt.level);
        let row = WitnessRow {
            kernel: k,
            level: lt.level,
            measured: lt.transfers,
            analytic: analytic_transfers(k, n, words, l.capacity, l.block, caches),
        };
        println!(
            "  Q_{}: measured {:>10} transfers, analytic {:>12.0}, ratio {:.3}",
            lt.level,
            row.measured,
            row.analytic,
            row.ratio()
        );
        rows.push(row);
    }
    if let Some(instr) = m.instructions {
        println!("  instructions: {instr}");
    }
    rows
}

/// Certificate summary section: load the `mo_certify` artifact (if one
/// has been generated) and print one row per kernel — classification,
/// declared vs recorded footprint, soundness flags — so the obs report
/// carries the verification posture next to the performance posture.
fn print_certificate_summary(path: &str) {
    println!("== certificates ({path}) ==");
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(_) => {
            println!("no certificate artifact found; run `cargo run --release -p mo-bench --bin mo_certify` to generate one\n");
            return;
        }
    };
    let set = match mo_core::CertificateSet::from_json_str(&text) {
        Ok(s) => s,
        Err(e) => {
            println!("artifact unreadable: {e}\n");
            return;
        }
    };
    println!(
        "{:<10} {:>5} {:>4} {:<15} {:>9} {:>9} {:>6} {:>6}",
        "kernel", "n", "runs", "classification", "declared", "recorded", "fpOK", "schedOK"
    );
    for c in &set.certs {
        println!(
            "{:<10} {:>5} {:>4} {:<15} {:>9} {:>9} {:>6} {:>6}",
            c.kernel,
            c.n,
            c.runs,
            c.classification.name(),
            c.declared_words,
            c.recorded_words,
            if c.footprint_sound { "yes" } else { "NO" },
            if c.schedule_clean { "yes" } else { "NO" },
        );
    }
    println!();
}

// ---------------------------------------------------------------------------
// Serve mode: request-path phase attribution for every registry kernel.
// ---------------------------------------------------------------------------

/// `--serve` mode: burst-submit every registry kernel through an
/// in-process server, reassemble the request spans, print the phase
/// attribution table, and gate queueing latency against what the
/// analytic batch cost explains. Never returns.
fn serve_phase_report(smoke: bool, gate: Option<f64>, out_path: &str) -> ! {
    use mo_obs::span::{self, Phase};
    use mo_serve::{JobSpec, ServeConfig, Server};

    let hier = HwHierarchy::detect();
    let cores = hier.cores();
    let l1 = hier.l1_capacity();
    let llc = hier
        .level_capacity(hier.levels().len().saturating_sub(1))
        .unwrap_or(l1);
    let batch_max = 8;
    let per: usize = if smoke { 12 } else { 48 };
    // Job working sets, in the scheduler's own currency: the smoke run
    // submits the largest "small tasks" (footprint = L1, so the CGC⇒SB
    // batcher engages for every kernel), the full run jobs that anchor
    // above L1, big enough that execution is visible in the spans and
    // small enough that a burst drains well under the queue deadline.
    let job_words = if smoke { l1 } else { 8 * l1 };
    let server = Server::start(
        hier,
        ServeConfig {
            queue_cap: per.max(64),
            default_deadline: std::time::Duration::from_secs(30),
            batch_max,
            ..ServeConfig::default()
        },
    );
    let sink = Arc::new(TraceSink::new(cores));
    assert!(server.attach_sink(Arc::clone(&sink)));
    println!(
        "== serve phase attribution: burst of {per} jobs per kernel, batch_max {batch_max} ==\n"
    );
    for k in Kernel::ALL {
        let n = k.size_within(job_words);
        let tickets: Vec<_> = (0..per)
            .map(|i| {
                server
                    .submit(JobSpec::new(k, n, 0x5eed ^ i as u64))
                    .unwrap_or_else(|r| panic!("{k} n={n} refused at submit: {r:?}"))
            })
            .collect();
        for t in tickets {
            let _ = t.wait();
        }
    }
    let snapshot = server.drain();
    let events = sink.drain();
    let set = span::assemble(&events);
    let stats = span::phase_stats(&set);
    print!("{}", span::format_phase_table(&stats, kernel_name_of));
    let dropped: u64 = sink.dropped_per_worker().iter().sum();
    println!(
        "spans: {} opened, {} closed, {} orphan closes, {} ring events dropped",
        set.opened, set.closed, set.orphan_closes, dropped
    );
    if dropped == 0 && !set.conserved() {
        eprintln!("serve report: span conservation failed on a drop-free run");
        std::process::exit(1);
    }

    println!("\n== queueing vs analytic batch cost ==");
    let mut breaches = Vec::new();
    for k in Kernel::ALL {
        let code = k.index() as u64;
        let Some(kp) = stats.get(&code).filter(|kp| kp.count > 0) else {
            breaches.push(format!(
                "{k}: no complete spans — phase attribution impossible"
            ));
            continue;
        };
        let (dom, dom_ns) = kp.dominant_phase(0.99);
        let q99 = kp.phases[Phase::Queue as usize].quantile(0.99);
        let x99 = kp.phases[Phase::Execute as usize].quantile(0.99);
        let sizes: Vec<u64> = set
            .spans
            .iter()
            .filter(|s| s.kernel == code && s.shed.is_none() && s.complete())
            .map(|s| s.batch_size.max(1))
            .collect();
        let avg_batch = sizes.iter().sum::<u64>() as f64 / sizes.len().max(1) as f64;
        // A burst of `per` same-kernel jobs drains in `per / batch`
        // waves, so the last arrival queues for at most that many batch
        // services — queueing beyond it is latency the analytic batch
        // cost cannot explain. The 1 ms floor absorbs wakeup jitter.
        let waves = (per as f64 / avg_batch.max(1.0)).ceil();
        let explained = waves * x99 as f64 + 1_000_000.0;
        let n = k.size_within(job_words);
        let batch_q =
            |cap| analytic_transfers(k, n, footprint_words(k, n), cap, BLOCK_WORDS, 1) * avg_batch;
        let (q_l1, q_llc) = (batch_q(l1), batch_q(llc));
        println!(
            "{k}: p99 dominant {} ({dom_ns} ns); queue p99 {q99} ns vs {waves:.0} waves of ~{avg_batch:.1}-job \
             batches x execute p99 {x99} ns; analytic batch cost L1 {q_l1:.0} / LLC {q_llc:.0} transfers",
            dom.name()
        );
        if let Some(factor) = gate {
            if q99 as f64 > factor * explained {
                breaches.push(format!(
                    "{k}: queue p99 {q99} ns > {factor} x batch-explained {explained:.0} ns — \
                     queueing diverges from the analytic batch cost"
                ));
            }
        }
    }
    // Hardware-witness divergence (measured/analytic transfers per
    // batch) rides along when `perf_event_open` is available; the same
    // ratios back the `moserve_witness_divergence` gauges.
    let divs: Vec<String> = snapshot
        .kernels
        .iter()
        .filter_map(|row| {
            let [d1, dl] = row.witness_divergence();
            (d1.is_some() || dl.is_some()).then(|| {
                let fmt = |d: Option<f64>| {
                    d.map(|d| format!("{d:.2}"))
                        .unwrap_or_else(|| "-".to_string())
                };
                format!("{} L1 {} LLC {}", row.kernel, fmt(d1), fmt(dl))
            })
        })
        .collect();
    if divs.is_empty() {
        println!("witness divergence: hardware witness unavailable (perf_event_open)");
    } else {
        println!(
            "witness divergence (measured/analytic): {}",
            divs.join("; ")
        );
    }

    let json = chrome::to_chrome_json(&events);
    chrome::validate(&json).expect("emitted chrome trace must validate");
    std::fs::write(out_path, &json).expect("write chrome trace");
    println!("wrote {out_path}: {} events", events.len());

    if !breaches.is_empty() {
        for b in &breaches {
            eprintln!("serve gate BREACH: {b}");
        }
        std::process::exit(1);
    }
    if let Some(factor) = gate {
        println!(
            "serve gate: queue p99 within {factor} x batch-explained latency for every kernel"
        );
    }
    std::process::exit(0);
}

/// Standalone `--validate <file>` mode: structural chrome-trace check.
fn validate_file(path: &str) -> ! {
    let json = match std::fs::read_to_string(path) {
        Ok(j) => j,
        Err(e) => {
            eprintln!("validate: cannot read {path}: {e}");
            std::process::exit(1);
        }
    };
    match chrome::validate(&json) {
        Ok(()) => {
            println!("validate: {path} is a well-formed chrome trace");
            std::process::exit(0);
        }
        Err(e) => {
            eprintln!("validate: {path} FAILED: {e}");
            std::process::exit(1);
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let flag_value = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1).cloned())
    };
    if let Some(path) = flag_value("--validate") {
        validate_file(&path);
    }
    let out_path = flag_value("--out").unwrap_or_else(|| "obs_trace.json".to_string());
    let gate: Option<f64> = flag_value("--gate").map(|v| {
        v.parse()
            .unwrap_or_else(|_| panic!("--gate takes a positive factor, got {v:?}"))
    });
    let backend = match flag_value("--backend").as_deref() {
        None | Some("both") => Backend::Both,
        Some("sim") => Backend::Sim,
        Some("perf") => Backend::Perf,
        Some(other) => panic!("--backend takes sim|perf|both, got {other:?}"),
    };
    if args.iter().any(|a| a == "--serve") {
        serve_phase_report(smoke, gate, &out_path);
    }

    // Tracing a 1-core machine shows no steals and no parallel forks;
    // substitute a flat 4-core shape so the report exercises the
    // scheduler even on small CI boxes.
    let mut hier = HwHierarchy::detect();
    if hier.cores() < 2 {
        hier = HwHierarchy::flat(4, hier.l1_capacity(), 1 << 22);
        println!("single-core machine detected; tracing a flat 4-core hierarchy instead\n");
    }

    let pool = SbPool::new(hier.clone());
    let info = pool.warm();
    let sink = Arc::new(TraceSink::new(info.cores));
    assert!(pool.attach_sink(Arc::clone(&sink)));
    let perf_attached = if backend.wants_perf() {
        match PerfWitness::try_new() {
            Ok(w) => {
                assert!(pool.attach_witness(Arc::new(w)));
                true
            }
            Err(e) => {
                println!("perf witness unavailable ({e}); continuing without hardware counters");
                false
            }
        }
    } else {
        false
    };
    println!(
        "pool: {} cores, {} resident workers, L1 {} words, {} cache levels\n",
        info.cores,
        info.resident_workers,
        info.l1_words,
        info.levels.len()
    );

    print_certificate_summary(
        &flag_value("--certs").unwrap_or_else(|| "certify/certificates.json".to_string()),
    );

    let last_level = hier.levels().len();
    let spec = host_spec(&hier);
    let mut all_events = Vec::new();
    let mut divergences = 0;
    // Real runs are sized in the system's own currency: the largest
    // job whose declared footprint fits this many words.
    let run_words = if smoke { 1 << 14 } else { 1 << 19 };
    for k in Kernel::ALL {
        let n = k.size_within(run_words);
        let (events, flags) = report_kernel(&pool, &sink, k, n);
        if perf_attached {
            // Per-task hardware deltas are already in the drain; roll
            // them up to a kernel-level measurement.
            match (WitnessMeasurement::from_trace(&events, last_level), &spec) {
                (Ok(m), Ok(spec)) => {
                    print_witness_kernel(k, n, footprint_words(k, n), &m, spec);
                    println!();
                }
                (Ok(m), Err(_)) => {
                    println!("{k} n={n} [perf]: {}", m.detail);
                }
                (Err(e), _) => println!("{k} n={n} [perf]: no measurement ({e})"),
            }
        }
        all_events.extend(events);
        divergences += flags;
    }

    let mut gate_breaches = Vec::new();
    if backend.wants_sim() {
        println!("== cache witness: measured per-level transfers vs analytic Q_i ==");
        match &spec {
            Ok(spec) => {
                println!("host map: {}\n", describe_spec(spec));
                for k in Kernel::ALL {
                    let rows = sim_witness_kernel(k, sim_size(k, smoke), spec);
                    for r in rows {
                        if let Some(factor) = gate {
                            if r.ratio() > factor {
                                gate_breaches.push(format!(
                                    "{} Q_{}: measured {} > analytic {:.0} x factor {}",
                                    r.kernel, r.level, r.measured, r.analytic, factor
                                ));
                            }
                        }
                    }
                }
                println!();
            }
            Err(e) => println!("sim backend skipped: {e}\n"),
        }
    }

    // One merged timeline: every kernel ran against the same sink, so
    // the timestamps are already a single coherent clock.
    all_events.sort_by_key(|e| e.ts_ns);
    let json = chrome::to_chrome_json(&all_events);
    chrome::validate(&json).expect("emitted chrome trace must validate");
    std::fs::write(&out_path, &json).expect("write chrome trace");
    println!(
        "wrote {out_path}: {} events ({} dropped at the rings), load it in Perfetto or chrome://tracing",
        all_events.len(),
        sink.dropped()
    );
    let drops = sink.dropped_per_worker();
    let per: Vec<String> = drops
        .iter()
        .enumerate()
        .map(|(i, d)| {
            if i + 1 == drops.len() {
                format!("external:{d}")
            } else {
                format!("w{i}:{d}")
            }
        })
        .collect();
    println!("ring drops per worker: {}", per.join(" "));
    println!("divergences flagged across the suite: {divergences}");

    if let Some(factor) = gate {
        if gate_breaches.is_empty() {
            println!("gate: all sim-measured transfers within analytic bounds x {factor}");
        } else {
            for b in &gate_breaches {
                eprintln!("gate BREACH: {b}");
            }
            std::process::exit(1);
        }
    }

    if smoke {
        assert_overhead_small(&hier);
        println!("obs_report smoke: OK");
    }
}
