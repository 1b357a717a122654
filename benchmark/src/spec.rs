//! The benchmark's contract: workloads, end-to-end metrics with their
//! bounds, and the per-layer metric names. `BENCHMARK.json` at the
//! repository root is the output of the `spec` subcommand, so it and
//! the code cannot disagree; a traced run fails if it prints a
//! different set of per-layer names.

use crate::gen::Class;
use crate::spans::LAYERS;

/// What one run measures for, unless `--seconds` says otherwise.
pub const RUN_SECONDS: u64 = 20;
/// Set-up cycles per run, in three groups; `setup_s` is their lower
/// quartile.
pub const SETUP_CYCLES: usize = 18;
/// Fewest timed rounds, whatever `--seconds` says.
pub const MIN_ROUNDS: usize = 8;

/// `(name, why)`.
pub const WORKLOADS: [(&str, &str); 5] = [
    (
        "sim_replay",
        "record + simulate the six registry kernels on the modelled Fig. 1 machine: only hm, core.record, core.sched and the algos recorders work; the bypass workload for real-machine changes; tail is p90",
    ),
    (
        "serve_mixed",
        "2 callers submit-then-wait a 14-class mix anchoring at L1, L2, L3 of the fixed hierarchy: admission + dispatch + pool entry set the median, the SPMS sort of 262144 keys the p99; batching bypassed",
    ),
    (
        "serve_burst_small",
        "2 callers submit bursts of 32 same-class L1-sized jobs: deep queue and CGC=>SB batches of 16, so queue, lock and batching changes show here and not in serve_mixed; tail is p99",
    ),
    (
        "dist_sort",
        "NO sort of 1024 keys on a 4-worker fleet: 179 supersteps x 3 rounds of ~15 words, the barrier-bound D-BSP regime the cluster-local-sync roadmap item targets; tail is p90",
    ),
    (
        "dist_ngep",
        "N-GEP 128/32 on the same fleet: 72 supersteps of ~800 words and ~29k PE ops, frame bandwidth + PE compute bound, so a barrier-only change should move it far less; tail is p90",
    ),
];

/// `(name, unit, better, bound)`: the five end-to-end metrics every
/// workload reports. `bound` is the share of the parent's median a
/// metric may worsen by before it counts as a regression.
pub const END_TO_END: [(&str, &str, &str, f64); 5] = [
    ("throughput_ops_s", "1/s", "higher", 0.20),
    ("op_p50_ms", "ms", "lower", 0.25),
    ("op_tail_ms", "ms", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mib", "MiB", "lower", 0.15),
];

/// `(name, unit, better)` of every per-layer metric a traced run
/// prints, in print order.
pub fn per_layer(serve_classes: &[Class]) -> Vec<(String, &'static str, &'static str)> {
    let mut v: Vec<(String, &'static str, &'static str)> = Vec::new();
    let mut add = |names: &[&str], unit, better| {
        v.extend(names.iter().map(|n| (n.to_string(), unit, better)));
    };
    add(&["hm.access_ns_seq", "hm.access_ns_rand"], "ns", "lower");
    add(&["hm.replay_share"], "ratio", "lower");
    add(&["core.record.ns_per_entry"], "ns", "lower");
    add(&["core.record.share"], "ratio", "lower");
    add(
        &["core.record.entries_per_op", "core.record.tasks_per_op"],
        "count",
        "lower",
    );
    add(&["core.sched.ns_per_entry"], "ns", "lower");
    add(&["core.sched.share"], "ratio", "lower");
    add(
        &[
            "core.sched.makespan_steps",
            "core.sched.q1_transfers",
            "core.sched.q2_transfers",
        ],
        "count",
        "lower",
    );
    add(
        &[
            "core.rt.fork_serial_ns",
            "core.rt.fork_parallel_ns",
            "core.rt.pfor_ns_per_iter",
            "core.rt.enter_ns",
        ],
        "ns",
        "lower",
    );
    add(
        &[
            "core.rt.serial_forks_per_op",
            "core.rt.denied_forks_per_op",
            "core.rt.failed_steals_per_op",
            "core.rt.parks_per_op",
            "core.rt.injector_pops_per_op",
        ],
        "count",
        "lower",
    );
    add(
        &["core.rt.parallel_forks_per_op", "core.rt.steals_per_op"],
        "count",
        "higher",
    );
    add(
        &["core.rt.steal_success_ratio", "core.rt.speedup_2cpu"],
        "ratio",
        "higher",
    );
    let bare: Vec<String> = serve_classes
        .iter()
        .map(|c| format!("algos.real.us.{}", c.label()))
        .collect();
    add(
        &bare.iter().map(String::as_str).collect::<Vec<_>>(),
        "us",
        "lower",
    );
    add(&["algos.real.share"], "ratio", "higher");
    add(
        &[
            "serve.submit_us",
            "serve.queued_p50_us",
            "serve.queued_tail_us",
            "serve.service_p50_us",
            "serve.respond_us",
            "serve.overhead_us",
            "serve.metrics_snapshot_us",
        ],
        "us",
        "lower",
    );
    add(&["serve.batch_mean"], "count", "higher");
    add(&["serve.batched_ratio"], "ratio", "higher");
    add(
        &[
            "serve.anchor_share.l1",
            "serve.anchor_share.l2",
            "serve.anchor_share.l3",
            "serve.shed_ratio",
        ],
        "ratio",
        "lower",
    );
    add(&["serve.queue_peak"], "count", "lower");
    add(
        &[
            "netobliv.sort.us_per_superstep",
            "netobliv.ngep.us_per_superstep",
        ],
        "us",
        "lower",
    );
    add(
        &[
            "netobliv.sort.supersteps",
            "netobliv.ngep.supersteps",
            "netobliv.sort.words",
            "netobliv.ngep.words",
            "netobliv.ngep.pe_ops",
        ],
        "count",
        "lower",
    );
    add(
        &[
            "dist.us_per_superstep",
            "dist.router.submit_rtt_us",
            "dist.router.hop_us",
        ],
        "us",
        "lower",
    );
    add(&["dist.words_per_s"], "1/s", "higher");
    add(
        &[
            "dist.socket_overhead_ratio",
            "dist.barrier_wait_share",
            "dist.trace_overhead_ratio",
        ],
        "ratio",
        "lower",
    );
    add(
        &[
            "dist.supersteps_per_op",
            "dist.words_per_op.level0",
            "dist.words_per_op.level1",
        ],
        "count",
        "lower",
    );
    add(
        &[
            "dist.bootstrap_ms",
            "dist.shutdown_ms",
            "dist.fleet_metrics_ms",
        ],
        "ms",
        "lower",
    );
    add(
        &["dist.frame.data_ns_per_word", "dist.frame.ctl_ns"],
        "ns",
        "lower",
    );
    add(
        &[
            "obs.ring_push_ns",
            "obs.sink_emit_ns",
            "obs.sink_drain_ns_per_event",
            "obs.span_assemble_ns_per_event",
        ],
        "ns",
        "lower",
    );
    add(
        &["bench.trace_overhead_ratio", "bench.round_spread"],
        "ratio",
        "lower",
    );
    add(&["bench.cpu_ms_per_op"], "ms", "lower");
    for layer in LAYERS {
        v.push((
            format!("bench.selftime.{}_share", layer.replace('.', "_")),
            "ratio",
            "lower",
        ));
    }
    v
}

/// The text of `BENCHMARK.json`.
pub fn benchmark_json(serve_classes: &[Class]) -> String {
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|(n, why)| format!("    {{\"name\": \"{n}\", \"why\": \"{why}\"}}"))
        .collect();
    let e2e: Vec<String> = END_TO_END
        .iter()
        .map(|(n, u, b, bound)| {
            format!("    {{\"name\": \"{n}\", \"unit\": \"{u}\", \"better\": \"{b}\", \"bound\": {bound}}}")
        })
        .collect();
    let layers: Vec<String> = per_layer(serve_classes)
        .iter()
        .map(|(n, u, b)| {
            format!("    {{\"name\": \"{n}\", \"unit\": \"{u}\", \"better\": \"{b}\"}}")
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--offline\", \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        e2e.join(",\n"),
        layers.join(",\n")
    )
}
