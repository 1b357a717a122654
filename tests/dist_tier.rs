//! Tier-1 coverage of the distributed tier through the `oblivious`
//! facade: one `LocalFleet` sort and one N-GEP, each checked bit for
//! bit against the same driver on `NoMachine`, so a plain
//! `cargo test -q` at the root runs the scoped superstep engine, the
//! frame codec and the worker/router loops — not only CI's
//! `-p mo-dist`.

use std::io::{self, Write};
use std::net::{TcpListener, TcpStream};
use std::thread;

use oblivious::dist::frame::{recv_ctl, send_ctl, Enc};
use oblivious::dist::{data, Ctl, DistAlg, DistDone, LocalFleet, Msg, Partition, Router};
use oblivious::no::algs::ngep;
use oblivious::no::codec::put_rows;
use oblivious::no::NoMachine;
use oblivious::serve::HwHierarchy;

const WORKERS: usize = 4;

/// `alg` on the fleet agrees with `alg` on `NoMachine` on every check of
/// `DistOutcome::mismatches` (output, checksum, supersteps, signature,
/// send == recv per level) and exchanges with fewer peers than a
/// fleet-wide barrier would.
fn assert_same(fleet: &LocalFleet, alg: DistAlg, n: usize, kappa: usize, seed: u64) -> Vec<u64> {
    let label = format!("{} {n}/{kappa}", alg.name());
    let (sim, want) = alg.reference(n, kappa, seed);
    let got = fleet.router().run(alg, n, kappa, seed).expect("fleet run");
    assert_eq!(got.mismatches(&sim, &want), Vec::<String>::new(), "{label}");
    let fleet_wide = (got.supersteps * (WORKERS - 1)) as u64;
    assert!(
        got.exchange_rounds.iter().all(|&r| r < fleet_wide),
        "{label}: {:?} exchange rounds, fleet-wide would be {fleet_wide}",
        got.exchange_rounds
    );
    want
}

#[test]
fn local_fleet_sort_and_ngep_match_nomachine() {
    let fleet = LocalFleet::spawn_with(WORKERS, |cfg| {
        cfg.hierarchy = Some(HwHierarchy::flat(2, 1 << 14, 1 << 22));
    })
    .expect("spawn local fleet");

    let want = assert_same(&fleet, DistAlg::Sort, 256, 0, 41);
    let mut sorted = data::sort_input(256, 41);
    sorted.sort_unstable();
    assert_eq!(want, sorted, "the simulator really sorts");
    assert_same(&fleet, DistAlg::Ngep, 32, 4, 42);
    // Each worker runs every job in one engine, reset to the job's
    // shape: a sort after an N-GEP run starts from four PE memories, not
    // sixty-four.
    assert_same(&fleet, DistAlg::Sort, 256, 0, 43);

    fleet.shutdown().expect("clean shutdown");
}

/// Every worker runs all its jobs in one engine, reset per job. A
/// smaller shape after a larger one and a switch of kernel are where a
/// reset that left an inbox, a run buffer, an open row or the tail of the
/// signature log behind would show: each job's output and signature
/// must still equal the simulator's.
#[test]
fn a_kept_engine_resets_between_shapes_and_kernels() {
    let fleet = LocalFleet::spawn_with(WORKERS, |cfg| {
        cfg.hierarchy = Some(HwHierarchy::flat(2, 1 << 14, 1 << 22));
    })
    .expect("spawn local fleet");
    for (seed, (alg, n, kappa)) in [
        (DistAlg::Sort, 1024, 0),
        (DistAlg::Ngep, 128, 32),
        (DistAlg::Sort, 16, 0),
        (DistAlg::Ngep, 8, 2),
        (DistAlg::Sort, 1024, 0),
    ]
    .into_iter()
    .enumerate()
    {
        let (sim, want) = alg.reference(n, kappa, seed as u64);
        let got = fleet
            .router()
            .run(alg, n, kappa, seed as u64)
            .expect("fleet run");
        let label = format!("job {seed}: {} {n}/{kappa}", alg.name());
        assert_eq!(got.mismatches(&sim, &want), Vec::<String>::new(), "{label}");
    }
    fleet.shutdown().expect("clean shutdown");
}

/// Run `job` on a router whose shard `w` answers every `RunDist` with
/// the bytes `frames[w]`, as a worker writes its result frame.
fn answered_by<T>(frames: &[Vec<u8>], job: impl FnOnce(&Router) -> T) -> T {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind router");
    let coord = listener.local_addr().expect("router address");
    thread::scope(|s| {
        let shards: Vec<_> = frames
            .iter()
            .enumerate()
            .map(|(w, frame)| {
                s.spawn(move || -> io::Result<()> {
                    let mut ctrl = TcpStream::connect(coord)?;
                    let hello = Ctl::Hello {
                        index: w as u32,
                        data_addr: String::new(),
                    };
                    send_ctl(&mut ctrl, &hello)?;
                    loop {
                        match recv_ctl(&mut ctrl)? {
                            Ctl::PeerTable { .. } => {}
                            Ctl::RunDist { .. } => ctrl.write_all(frame)?,
                            Ctl::Shutdown => return Ok(()),
                            other => return Err(io::Error::other(format!("{other:?}"))),
                        }
                    }
                })
            })
            .collect();
        let router = Router::accept_fleet(&listener, frames.len()).expect("fleet bootstrap");
        let got = job(&router);
        router.shutdown();
        for shard in shards {
            shard.join().expect("shard thread").expect("shard");
        }
        got
    })
}

/// The result frames of one `dist_sort` job (`no_sort 1024` on four
/// workers), built from the simulator's signature split at the shard
/// boundaries: an exact count of the bytes a job's results put on the
/// control channels. The NO sort's traffic is oblivious of its keys and
/// every PE keeps one 8-byte word, so the count is the same for every
/// seed. Rows of 16 bytes each made it 1 658 676, and a second
/// superstep count in front of the rows 325 926; a return to either
/// fails here. A router that reads the frames assembles the
/// simulator's job from them.
#[test]
fn a_sort_jobs_result_frames_are_compact() {
    const PINNED: usize = 325_910;
    for seed in [7, 8] {
        let (sim, want) = DistAlg::Sort.reference(1024, 0, seed);
        let signature = sim.traffic_signature();
        let part = Partition::new(1024, WORKERS);
        let frames: Vec<Vec<u8>> = (0..WORKERS)
            .map(|w| {
                let pes = part.range(w);
                let mut traffic = Vec::new();
                for rows in &signature {
                    let from = rows.partition_point(|r| (r.0 as usize) < pes.start);
                    let to = rows.partition_point(|r| (r.0 as usize) < pes.end);
                    put_rows(&mut traffic, pes.start as u32, &rows[from..to]);
                }
                let done = DistDone {
                    supersteps: signature.len() as u32,
                    lo: pes.start as u32,
                    hi: pes.end as u32,
                    socket_words_per_level: vec![0; 2],
                    recv_words_per_level: vec![0; 2],
                    ops: 0,
                    exchange_rounds: 0,
                };
                let mems: Vec<Vec<u64>> = pes.map(|pe| sim.mem(pe).to_vec()).collect();
                let mut frame = Vec::new();
                Enc::new()
                    .dist_done(&done, &mems, 1, &traffic)
                    .send(&mut frame)
                    .expect("encode");
                frame
            })
            .collect();
        let bytes: usize = frames.iter().map(Vec::len).sum();
        assert_eq!(bytes, PINNED, "seed {seed}");
        assert!(bytes < 400_000, "{bytes} bytes");
        let got = answered_by(&frames, |router| router.run(DistAlg::Sort, 1024, 0, seed))
            .expect("the router takes the frames");
        assert_eq!(got.output, want, "seed {seed}");
        assert_eq!(got.supersteps, sim.supersteps(), "seed {seed}");
        assert_eq!(got.signature, signature, "seed {seed}");
    }
}

/// A `dist_sort` job's signature (`no_sort 1024` on four workers) stays
/// in the varint bytes its result frames carried: 102 700 rows, which as
/// 16-byte `(src, dst, words)` rows would hold 1 643 200 bytes. The
/// rows are oblivious of the keys, so the count holds for every seed.
#[test]
fn a_sort_jobs_signature_stays_compact() {
    let fleet = LocalFleet::spawn_with(WORKERS, |cfg| {
        cfg.hierarchy = Some(HwHierarchy::flat(2, 1 << 14, 1 << 22));
    })
    .expect("spawn local fleet");
    let (sim, want) = DistAlg::Sort.reference(1024, 0, 7);
    let got = fleet
        .router()
        .run(DistAlg::Sort, 1024, 0, 7)
        .expect("fleet run");
    assert_eq!(got.mismatches(&sim, &want), Vec::<String>::new());
    let rows: usize = got.signature.steps().map(|rows| rows.len()).sum();
    assert_eq!(rows * std::mem::size_of::<Msg>(), 1_643_200);
    let held = got.signature.heap_bytes();
    assert!(held < 400_000, "{held} bytes");
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
    use ngep::DOrder;
    use oblivious::no::gep::{ge_update, UpdateSet};
    // `tables dstar`'s non-commutative update.
    fn nc(x: f64, u: f64, v: f64, _w: f64) -> f64 {
        2.0 * x + u - v
    }
    fn check(
        label: &str,
        sim: &NoMachine,
        out: impl IntoIterator<Item = u64>,
        pinned: (u64, u64, u64),
    ) {
        let got = (
            data::checksum_words(out),
            sim.computation_complexity(1),
            sim.total_words(),
        );
        assert_eq!(got, pinned, "{label}: (checksum, PE ops, words)");
    }

    // The benchmark's `dist_ngep` shape. `fw_instance` seeds its stream
    // with `seed | 1`, so seeds 2 and 3 are one input.
    for (seed, checksum) in [
        (1, 0x50378f877f0e4f46),
        (2, 0x2ad64f5c82be730e),
        (3, 0x2ad64f5c82be730e),
        (4, 0x1beb788dff53f74f),
    ] {
        let (sim, out) = DistAlg::Ngep.reference(128, 32, seed);
        check(
            &format!("fw 128/32 seed {seed}"),
            &sim,
            out,
            (checksum, 2_097_152, 172_032),
        );
    }

    let n = 32;
    let mut a = unit_stream(n * n, 4);
    for i in 0..n {
        a[i * n + i] += 2.0 * n as f64;
    }
    let (sim, out) = ngep::ngep_program(&a, n, 4, ge_update, UpdateSet::KBelowMin, DOrder::DStar);
    check(
        "ge 32/4",
        &sim,
        out.iter().map(|x| x.to_bits()),
        (0x6d1f7f6bdece4c72, 10_416, 14_784),
    );

    let d = unit_stream(n * n, 5);
    for (order, checksum) in [
        (DOrder::IGep, 0x5ded0cd74046c41d),
        (DOrder::DStar, 0x041a3f5715cca672),
    ] {
        let (sim, out) = ngep::ngep_program(&d, n, 8, nc, UpdateSet::All, order);
        check(
            &format!("nc 32/8 {order:?}"),
            &sim,
            out.iter().map(|x| x.to_bits()),
            (checksum, 32_768, 10_752),
        );
    }

    // The fleet's 128/32 shape under the other two updates, captured
    // before `𝒟` leaves with disjoint operands grouped their `k` steps.
    // At 128/32 `KBelowMin` has fully admitted `𝒟` leaves; at 32/4 it
    // has none.
    let n = 128;
    let mut a = unit_stream(n * n, 4);
    for i in 0..n {
        a[i * n + i] += 2.0 * n as f64;
    }
    for (order, checksum) in [
        (DOrder::IGep, 0xaa60d851d61fe417),
        (DOrder::DStar, 0xbd51d03bfbc71c28),
    ] {
        let (sim, out) = ngep::ngep_program(&a, n, 32, ge_update, UpdateSet::KBelowMin, order);
        check(
            &format!("ge 128/32 {order:?}"),
            &sim,
            out.iter().map(|x| x.to_bits()),
            (checksum, 690_880, 129_024),
        );
    }

    // `nc` grows about 2^1250-fold over 128 steps, so the input is
    // scaled by 2^-900 (exact) to keep every output finite.
    let d: Vec<f64> = unit_stream(n * n, 5)
        .into_iter()
        .map(|x| x * 2f64.powi(-900))
        .collect();
    for (order, checksum) in [
        (DOrder::IGep, 0x735ccc7756e20637),
        (DOrder::DStar, 0x0bc3d16d41605c37),
    ] {
        let (sim, out) = ngep::ngep_program(&d, n, 32, nc, UpdateSet::All, order);
        assert!(out.iter().all(|x| x.is_finite()), "nc 128/32 {order:?}");
        check(
            &format!("nc 128/32 {order:?}"),
            &sim,
            out.iter().map(|x| x.to_bits()),
            (checksum, 2_097_152, 172_032),
        );
    }
}
