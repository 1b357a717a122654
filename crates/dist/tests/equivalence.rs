//! Sim-vs-socket equivalence (the tentpole's acceptance bar): the same
//! `no-framework` kernel sources, run once on the in-process
//! `NoMachine` and once across a real TCP fleet, must produce
//! bit-identical outputs and *identical* per-superstep traffic
//! signatures — the machine-level statement that the socket tier
//! changed the transport and nothing else.

use mo_dist::{DistAlg, DistOutcome, LocalFleet};
use mo_serve::HwHierarchy;

const WORKERS: usize = 4;

fn fleet() -> LocalFleet {
    LocalFleet::spawn_with(WORKERS, |cfg| {
        cfg.hierarchy = Some(HwHierarchy::flat(2, 1 << 14, 1 << 22));
    })
    .expect("spawn local fleet")
}

/// Run `alg` on the fleet and on `NoMachine` and require every check of
/// `DistOutcome::mismatches` to hold: output words, checksum, superstep
/// count, the per-superstep signature, fleet-wide send == recv per
/// cluster level (mirrors serve's submitted ≥ completed + shed
/// accounting), and wire words equal to the signature-implied ones.
/// Returns the fleet's outcome and the simulator's output.
fn assert_fleet_matches_simulator(
    fleet: &LocalFleet,
    alg: DistAlg,
    n: usize,
    kappa: usize,
    seed: u64,
) -> (DistOutcome, Vec<u64>) {
    let (sim, want) = alg.reference(n, kappa, seed);
    let got = fleet.router().run(alg, n, kappa, seed).expect("fleet run");
    let problems = got.mismatches(&sim, &want);
    assert!(
        problems.is_empty(),
        "{} n={n} kappa={kappa} on {} workers: {problems:?}",
        alg.name(),
        fleet.router().workers()
    );
    (got, want)
}

/// Satellite: NO sort over sockets is bit-identical to the simulator —
/// same outputs, same per-superstep signature — at three input sizes.
#[test]
fn sort_socket_matches_simulator_at_three_sizes() {
    let fleet = fleet();
    for (n, seed) in [(16usize, 11u64), (64, 12), (256, 13)] {
        let (_, out) = assert_fleet_matches_simulator(&fleet, DistAlg::Sort, n, 0, seed);
        // The kernel really sorts (independent ground truth).
        let mut expect = mo_dist::data::sort_input(n, seed);
        expect.sort_unstable();
        assert_eq!(out, expect, "simulator output is not sorted (n={n})");
    }
    fleet.shutdown().expect("clean shutdown");
}

/// Satellite: N-GEP (Floyd–Warshall instance, `𝒟*` order) over sockets
/// is bit-identical to the simulator at three problem shapes.
#[test]
fn ngep_socket_matches_simulator_at_three_sizes() {
    let fleet = fleet();
    for (n, kappa, seed) in [(8usize, 2usize, 21u64), (16, 4, 22), (16, 2, 23)] {
        assert_fleet_matches_simulator(&fleet, DistAlg::Ngep, n, kappa, seed);
    }
    fleet.shutdown().expect("clean shutdown");
}

/// The signature is *network-oblivious* end to end: same size, two
/// different seeds, identical traffic over the real sockets.
#[test]
fn socket_signature_depends_only_on_input_size() {
    let fleet = fleet();
    let a = fleet.router().run_sort(64, 1).expect("sort seed 1");
    let b = fleet.router().run_sort(64, 2).expect("sort seed 2");
    assert_ne!(a.output, b.output, "different seeds, different data");
    assert_eq!(a.signature, b.signature, "signature must ignore values");
    assert_eq!(
        a.socket_words_per_level, b.socket_words_per_level,
        "socket traffic per cluster level must ignore values"
    );
    assert_eq!(
        a.recv_words_per_level, a.socket_words_per_level,
        "delivered words must conserve framed words per level"
    );
    fleet.shutdown().expect("clean shutdown");
}

/// Single-shard jobs route deterministically over the consistent-hash
/// ring and come back with the shard's own serve-tier verdict.
#[test]
fn kernel_jobs_route_and_complete() {
    let fleet = fleet();
    let mut shards_hit = std::collections::BTreeSet::new();
    for (kernel, n, seed) in [
        ("sort", 1usize << 10, 5u64),
        ("fft", 1 << 10, 6),
        ("scan", 1 << 12, 7),
        ("transpose", 1 << 10, 8),
        ("matmul", 1 << 8, 9),
        ("spmdv", 1 << 10, 10),
    ] {
        let (shard, result) = fleet
            .router()
            .submit(kernel, n as u64, seed)
            .expect("control channel");
        let checksum = result.unwrap_or_else(|e| panic!("{kernel} shed: {e}"));
        shards_hit.insert(shard);
        // Same spec re-routes to the same shard and recomputes the same
        // checksum: routing and kernels are both deterministic.
        let (shard2, result2) = fleet
            .router()
            .submit(kernel, n as u64, seed)
            .expect("control channel");
        assert_eq!(shard, shard2, "{kernel}: routing must be deterministic");
        assert_eq!(result2, Ok(checksum), "{kernel}: checksum must repeat");
    }
    assert!(
        shards_hit.len() > 1,
        "six distinct jobs all hashed to one shard: {shards_hit:?}"
    );
    let (_, unknown) = fleet.router().submit("no-such-kernel", 8, 1).unwrap();
    assert_eq!(unknown, Err("UnknownKernel:no-such-kernel".into()));
    fleet.shutdown().expect("clean shutdown");
}

/// The merged fleet view carries every shard's serve metrics re-labeled
/// with `shard`, the dist-tier counters, and the router's own counters.
#[test]
fn fleet_metrics_merge_all_shards() {
    let fleet = fleet();
    fleet.router().run_sort(64, 3).expect("fleet sort");
    let (_, r) = fleet.router().submit("sort", 512, 4).expect("submit");
    r.expect("kernel accepted");
    let text = fleet.router().fleet_metrics().expect("fleet metrics");
    let samples = mo_obs::prom::parse(&text).expect("fleet view parses");
    for shard in 0..WORKERS {
        let shard = shard.to_string();
        assert!(
            samples
                .iter()
                .any(|s| s.name == "modist_dist_jobs_total" && s.label("shard") == Some(&shard)),
            "missing dist counters for shard {shard}"
        );
        assert!(
            samples
                .iter()
                .any(|s| s.name.starts_with("moserve_") && s.label("shard") == Some(&shard)),
            "missing serve metrics for shard {shard}"
        );
    }
    let routed: f64 = samples
        .iter()
        .filter(|s| s.name == "modist_jobs_routed_total")
        .map(|s| s.value)
        .sum();
    assert_eq!(routed, 1.0, "router counts the routed job");
    assert!(
        samples
            .iter()
            .any(|s| s.name == "modist_fleet_workers" && s.value == WORKERS as f64),
        "fleet gauge missing"
    );
    fleet.shutdown().expect("clean shutdown");
}

/// Satellite: sim ≡ sockets on a `W = 8` fleet, where three cluster
/// levels exist and scoped exchange lets workers drift many supersteps
/// apart (most of the sort's supersteps touch no socket on most
/// workers). Output, signature, superstep count and per-level
/// send == recv must still be bit-identical to the simulator.
#[test]
fn w8_fleet_matches_simulator_bit_for_bit() {
    let fleet = LocalFleet::spawn_with(8, |cfg| {
        cfg.hierarchy = Some(HwHierarchy::flat(2, 1 << 14, 1 << 22));
    })
    .expect("spawn 8-worker fleet");
    for (n, seed) in [(1024usize, 31u64), (4096, 32)] {
        let (got, _) = assert_fleet_matches_simulator(&fleet, DistAlg::Sort, n, 0, seed);
        assert_eq!(got.socket_words_per_level.len(), 3, "W=8 has three levels");
        let fleet_wide = (got.supersteps * 7) as u64;
        assert!(
            got.exchange_rounds.iter().all(|&r| r < fleet_wide / 3),
            "n={n}: {:?} rounds per worker, fleet-wide exchange would be {fleet_wide}",
            got.exchange_rounds
        );
    }
    assert_fleet_matches_simulator(&fleet, DistAlg::Ngep, 128, 32, 33);
    fleet.shutdown().expect("clean shutdown");
}

/// Satellite: the exact, repeatable counter of the saving. Exchange
/// rounds per worker are a function of `(kernel, n, W)` alone; with
/// fleet-wide exchange they were `supersteps × (W − 1)` — 537 for
/// sort 1024 and 216 for N-GEP 128/32 on four workers.
#[test]
fn exchange_rounds_are_pinned_and_exported() {
    let fleet = fleet();
    let sort = fleet.router().run_sort(1024, 7).expect("fleet sort");
    assert_eq!(sort.supersteps, 179);
    // The two inner workers have a neighbour on both sides.
    assert_eq!(sort.exchange_rounds, [18, 30, 30, 18]);
    let again = fleet.router().run_sort(1024, 8).expect("fleet sort");
    assert_eq!(
        again.exchange_rounds, sort.exchange_rounds,
        "value-oblivious"
    );
    let ngep = fleet.router().run_ngep(128, 32, 7).expect("fleet ngep");
    assert_eq!(ngep.supersteps, 72);
    // Only the six root-level operand routes leave a worker.
    assert_eq!(ngep.exchange_rounds, [12, 12, 12, 12]);

    let text = fleet.router().fleet_metrics().expect("fleet metrics");
    let samples = mo_obs::prom::parse(&text).expect("fleet view parses");
    for w in 0..WORKERS {
        let label = w.to_string();
        let total = samples
            .iter()
            .find(|s| s.name == "modist_exchange_rounds_total" && s.label("worker") == Some(&label))
            .unwrap_or_else(|| panic!("no exchange-round counter for worker {w}"));
        let want = 2 * sort.exchange_rounds[w] + ngep.exchange_rounds[w];
        assert_eq!(total.value, want as f64, "worker {w}");
    }
    fleet.shutdown().expect("clean shutdown");
}
