//! Tier-1 coverage of the distributed tier through the `oblivious`
//! facade: one `LocalFleet` sort and one N-GEP, each checked bit for
//! bit against the same driver on `NoMachine`, so a plain
//! `cargo test -q` at the root runs the scoped superstep engine, the
//! frame codec and the worker/router loops — not only CI's
//! `-p mo-dist`.

use oblivious::dist::{data, DistOutcome, LocalFleet};
use oblivious::no::algs::{ngep, sort};
use oblivious::no::NoMachine;
use oblivious::serve::HwHierarchy;

const WORKERS: usize = 4;

fn assert_same(label: &str, got: &DistOutcome, sim: &NoMachine, want: &[u64]) {
    assert_eq!(got.output, want, "{label}: output");
    assert_eq!(got.supersteps, sim.supersteps(), "{label}: supersteps");
    assert_eq!(got.signature, sim.traffic_signature(), "{label}: signature");
    assert_eq!(
        got.socket_words_per_level, got.recv_words_per_level,
        "{label}: send == recv per level"
    );
    let fleet_wide = (got.supersteps * (WORKERS - 1)) as u64;
    assert!(
        got.exchange_rounds.iter().all(|&r| r < fleet_wide),
        "{label}: {:?} exchange rounds, fleet-wide would be {fleet_wide}",
        got.exchange_rounds
    );
}

/// N-GEP on `NoMachine`: the machine, and the row-major bit patterns of
/// the result assembled from the Morton-ordered blocks the way the
/// router assembles the fleet's.
fn ngep_on_sim<F: Fn(f64, f64, f64, f64) -> f64 + Copy>(
    input: &[f64],
    n: usize,
    kappa: usize,
    f: F,
    sigma: ngep::UpdateSet,
    order: ngep::DOrder,
) -> (NoMachine, Vec<u64>) {
    let nb = n / kappa;
    let mut sim = NoMachine::new(nb * nb);
    ngep::ngep_program_on(&mut sim, input, n, kappa, f, sigma, order);
    let mut out = vec![0u64; n * n];
    for bi in 0..nb {
        for bj in 0..nb {
            let block = sim.mem(ngep::morton(bi, bj));
            for i in 0..kappa {
                let row = (bi * kappa + i) * n + bj * kappa;
                out[row..row + kappa].copy_from_slice(&block[i * kappa..(i + 1) * kappa]);
            }
        }
    }
    (sim, out)
}

#[test]
fn local_fleet_sort_and_ngep_match_nomachine() {
    let fleet = LocalFleet::spawn_with(WORKERS, |cfg| {
        cfg.hierarchy = Some(HwHierarchy::flat(2, 1 << 14, 1 << 22));
    })
    .expect("spawn local fleet");

    let (n, seed) = (256usize, 41u64);
    let input = data::sort_input(n, seed);
    let mut sim = NoMachine::new(n);
    sort::sort_program(&mut sim, &input);
    let want: Vec<u64> = (0..n).map(|pe| sim.mem(pe)[0]).collect();
    let mut sorted = input.clone();
    sorted.sort_unstable();
    assert_eq!(want, sorted, "the simulator really sorts");
    let got = fleet.router().run_sort(n, seed).expect("fleet sort");
    assert_same("sort 256", &got, &sim, &want);

    let (n, kappa, seed) = (32usize, 4usize, 42u64);
    let (sim, want) = ngep_on_sim(
        &data::ngep_input(n, seed),
        n,
        kappa,
        data::fw_update,
        ngep::UpdateSet::All,
        ngep::DOrder::DStar,
    );
    let got = fleet.router().run_ngep(n, kappa, seed).expect("fleet ngep");
    assert_same("ngep 32/4", &got, &sim, &want);

    fleet.shutdown().expect("clean shutdown");
}

/// `n` values in `[0, 1)` from a seeded LCG.
fn unit_stream(n: usize, seed: u64) -> Vec<f64> {
    let mut x = seed | 1;
    (0..n)
        .map(|_| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (x >> 11) as f64 / (1u64 << 53) as f64
        })
        .collect()
}

/// The fleet's reference is the same `ngep_program_on` on `NoMachine`,
/// so sim ≡ sockets cannot see a bug in the `κ × κ` base case. These
/// output checksums and cost counters were captured at the commit
/// before the base case became `leaf_update` (PR 17), with that
/// commit's interpreter, in debug and release builds alike; they must
/// hold bit for bit. They cover every alias pattern of 𝒜/ℬ/𝒞/𝒟, the
/// `KBelowMin` cut, and an update that is neither commutative nor
/// symmetric in its operands under both `𝒟` orders.
#[test]
fn ngep_outputs_and_costs_equal_the_values_pinned_before_the_kernel_leaf() {
    use ngep::{DOrder, UpdateSet};
    fn ge(x: f64, u: f64, v: f64, w: f64) -> f64 {
        x - (u / w) * v
    }
    // `tables dstar`'s non-commutative update.
    fn nc(x: f64, u: f64, v: f64, _w: f64) -> f64 {
        2.0 * x + u - v
    }
    let check = |label: &str, (sim, out): (NoMachine, Vec<u64>), pinned: (u64, u64, u64)| {
        let got = (
            data::checksum_words(out),
            sim.computation_complexity(1),
            sim.total_words(),
        );
        assert_eq!(got, pinned, "{label}: (checksum, PE ops, words)");
    };

    // The benchmark's `dist_ngep` shape. `ngep_input` seeds its stream
    // with `seed | 1`, so seeds 2 and 3 are one input.
    for (seed, checksum) in [
        (1, 0x50378f877f0e4f46),
        (2, 0x2ad64f5c82be730e),
        (3, 0x2ad64f5c82be730e),
        (4, 0x1beb788dff53f74f),
    ] {
        let input = data::ngep_input(128, seed);
        check(
            &format!("fw 128/32 seed {seed}"),
            ngep_on_sim(
                &input,
                128,
                32,
                data::fw_update,
                UpdateSet::All,
                DOrder::DStar,
            ),
            (checksum, 2_097_152, 172_032),
        );
    }

    let n = 32;
    let mut a = unit_stream(n * n, 4);
    for i in 0..n {
        a[i * n + i] += 2.0 * n as f64;
    }
    check(
        "ge 32/4",
        ngep_on_sim(&a, n, 4, ge, UpdateSet::KBelowMin, DOrder::DStar),
        (0x6d1f7f6bdece4c72, 10_416, 14_784),
    );

    let d = unit_stream(n * n, 5);
    check(
        "nc 32/8 IGep",
        ngep_on_sim(&d, n, 8, nc, UpdateSet::All, DOrder::IGep),
        (0x5ded0cd74046c41d, 32_768, 10_752),
    );
    check(
        "nc 32/8 DStar",
        ngep_on_sim(&d, n, 8, nc, UpdateSet::All, DOrder::DStar),
        (0x041a3f5715cca672, 32_768, 10_752),
    );
}
