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
    let nb = n / kappa;
    let mut sim = NoMachine::new(nb * nb);
    ngep::ngep_program_on(
        &mut sim,
        &data::ngep_input(n, seed),
        n,
        kappa,
        data::fw_update,
        ngep::UpdateSet::All,
        ngep::DOrder::DStar,
    );
    let mut want = vec![0u64; n * n];
    for bi in 0..nb {
        for bj in 0..nb {
            let block = sim.mem(ngep::morton(bi, bj));
            for i in 0..kappa {
                let row = (bi * kappa + i) * n + bj * kappa;
                want[row..row + kappa].copy_from_slice(&block[i * kappa..(i + 1) * kappa]);
            }
        }
    }
    let got = fleet.router().run_ngep(n, kappa, seed).expect("fleet ngep");
    assert_same("ngep 32/4", &got, &sim, &want);

    fleet.shutdown().expect("clean shutdown");
}
