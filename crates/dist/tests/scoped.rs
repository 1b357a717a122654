//! Scoped supersteps on a real loopback mesh, below the worker loop:
//! `SocketComm`s over `establish_mesh`, one thread per worker, driven
//! by hand-written drivers the fleet binary would never run — a driver
//! that lies about its scope, and a peer that joins the mesh and then
//! never answers. Both must end in a typed `io::Error` within a bound,
//! never a hang, a silent drop, or a panic.

use std::io;
use std::net::TcpListener;
use std::sync::mpsc;
use std::thread;
use std::time::{Duration, Instant};

use mo_dist::frame::Enc;
use mo_dist::{establish_mesh, Link, MeshBuffers, Partition, SocketComm};
use no_framework::{Comm, Scope};

/// Listeners and addresses for a `workers`-wide mesh.
fn listeners(workers: usize) -> (Vec<TcpListener>, Vec<String>) {
    let ls: Vec<TcpListener> = (0..workers)
        .map(|_| TcpListener::bind("127.0.0.1:0").expect("bind"))
        .collect();
    let addrs = ls
        .iter()
        .map(|l| l.local_addr().expect("addr").to_string())
        .collect();
    (ls, addrs)
}

/// Run `body(worker, mesh)` on one thread per worker over a full mesh
/// and return the results in worker order. A worker's streams close
/// when its `body` returns, as the worker loop closes them on failure.
fn on_mesh<T: Send>(
    workers: usize,
    body: impl Fn(usize, &mut [Option<Link>]) -> T + Sync,
) -> Vec<T> {
    let (ls, addrs) = listeners(workers);
    thread::scope(|s| {
        let handles: Vec<_> = ls
            .iter()
            .enumerate()
            .map(|(w, l)| {
                let (addrs, body) = (&addrs, &body);
                s.spawn(move || {
                    let mut mesh =
                        establish_mesh(w, addrs, l, Duration::from_secs(20)).expect("mesh");
                    body(w, &mut mesh)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker thread"))
            .collect()
    })
}

/// Satellite (a): a driver that sends outside its declared scope gets
/// `InvalidData` on the sending worker — before any frame moves — and
/// its partner, left waiting for a frame that will never come, gets a
/// typed error too as soon as the failed worker's streams close.
#[test]
fn out_of_scope_send_is_a_typed_error_on_the_sender() {
    // 8 PEs over 2 workers (0..4, 4..8). The declared group 2..6 makes
    // the two workers partners; PE 0 sits outside it and sends anyway.
    let starts = [2usize];
    let scope = Scope::Groups {
        starts: &starts,
        size: 4,
    };
    let results = on_mesh(2, |w, mesh| {
        let mut bufs = MeshBuffers::default();
        let mut comm = SocketComm::new(Partition::new(8, 2), w, mesh, &mut bufs);
        let mut later_steps_ran = false;
        comm.step_in(scope, |pe, ctx| {
            if pe == 0 {
                ctx.send(1, 7);
            }
        });
        // The run is poisoned: the driver's remaining supersteps must
        // not execute (their inboxes never arrived).
        comm.step(|_, _| later_steps_ran = true);
        assert!(
            !later_steps_ran,
            "worker {w} kept computing after the error"
        );
        comm.finish(1, &mut Enc::new())
    });
    let sender = results[0].as_ref().expect_err("worker 0 must fail");
    assert_eq!(sender.kind(), io::ErrorKind::InvalidData, "{sender}");
    let text = sender.to_string();
    assert!(
        text.contains("PE 0 sent to PE 1 outside its declared scope"),
        "{text}"
    );
    let partner = results[1].as_ref().expect_err("worker 1 must not hang");
    assert_eq!(partner.kind(), io::ErrorKind::UnexpectedEof, "{partner}");
}

/// The same driver honouring its scope runs clean, and only the pair
/// the scope names exchanges frames.
#[test]
fn in_scope_sends_exchange_only_with_scope_partners() {
    // 16 PEs over 4 workers; the one group 6..10 straddles workers 1|2.
    let starts = [6usize];
    let scope = Scope::Groups {
        starts: &starts,
        size: 4,
    };
    let results = on_mesh(4, |w, mesh| {
        let mut bufs = MeshBuffers::default();
        let mut comm = SocketComm::new(Partition::new(16, 4), w, mesh, &mut bufs);
        for pe in 0..16 {
            if let Some(mem) = comm.pe_mem_mut(pe) {
                mem.push(pe as u64);
            }
        }
        // Reverse the group, then a purely local superstep, then a
        // silent one: only the first needs any frame at all.
        comm.step_in(scope, |pe, ctx| {
            if (6..10).contains(&pe) {
                let v = ctx.mem[0];
                ctx.send(15 - pe, v);
            }
        });
        comm.step_in(Scope::None, |_, ctx| {
            if let Some(&v) = ctx.inbox.first() {
                ctx.mem[0] = v;
            }
        });
        let out: Vec<u64> = (0..16)
            .filter_map(|pe| comm.pe_mem(pe).map(|m| m[0]))
            .collect();
        (comm.finish(1, &mut Enc::new()).expect("clean run"), out)
    });
    let rounds: Vec<u64> = results.iter().map(|(d, _)| d.exchange_rounds).collect();
    assert_eq!(rounds, [0, 1, 1, 0], "only workers 1 and 2 share the group");
    let out: Vec<u64> = results.iter().flat_map(|(_, out)| out).copied().collect();
    let mut want: Vec<u64> = (0..16).collect();
    want[6..10].reverse();
    assert_eq!(out, want);
}

/// An impostor peer sends a well-formed frame — right stamp, every run
/// from its PEs to ours — whose sources descend. Delivered, it would
/// leave PE 4's inbox out of source order without any error; the
/// receiver must refuse it as `InvalidData` instead.
#[test]
fn frame_with_descending_sources_is_refused() {
    use mo_dist::frame::{recv_data, send_data};
    // 8 PEs over 2 workers (0..4, 4..8); worker 0 is the impostor.
    let results = on_mesh(2, |w, mesh| {
        let level = mo_dist::pair_level(0, 1, 2) as u8;
        if w == 0 {
            let link = mesh[1].as_mut().expect("stream to worker 1");
            send_data(link.get_mut(), 0, level, &[(3, 4, 30), (1, 4, 10)]).expect("send");
            recv_data(link).expect("worker 1's frame");
            return None;
        }
        let mut bufs = MeshBuffers::default();
        let mut comm = SocketComm::new(Partition::new(8, 2), w, mesh, &mut bufs);
        let got = comm.try_step(Scope::All, &mut |_, _| {});
        Some(got.map(|()| {
            let mut inbox = Vec::new();
            comm.step_in(Scope::None, |pe, ctx| {
                if pe == 4 {
                    inbox = ctx.inbox.to_vec();
                }
            });
            format!("{inbox:?}")
        }))
    });
    let got = results[1].as_ref().expect("worker 1 ran");
    let err = got
        .as_ref()
        .expect_err("a frame out of source order must not be delivered");
    assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
    let text = err.to_string();
    assert!(
        text.contains("worker 1 superstep 0: peer 0") && text.contains("run 1 → 4 follows"),
        "{text}"
    );
}

/// Satellite: the fault bound. A peer that accepts the mesh and then
/// never answers surfaces as `TimedOut` within the stream timeout
/// handed to `establish_mesh`, not as a fleet blocked forever.
#[test]
fn wedged_peer_times_out_within_the_bound() {
    let bound = Duration::from_millis(300);
    let (ls, addrs) = listeners(2);
    let err = thread::scope(|s| {
        // Worker 0 is the impostor: it completes the mesh handshake
        // and then holds the stream open in silence until the
        // assertion below has been made (or has failed: a panic here
        // drops `release` and so frees it too).
        let (release, released) = mpsc::channel::<()>();
        let (addrs, ls) = (&addrs, &ls);
        let wedged = s.spawn(move || {
            let mesh = establish_mesh(0, addrs, &ls[0], Duration::from_secs(20)).expect("mesh");
            let _ = released.recv();
            drop(mesh);
        });
        let mut mesh = establish_mesh(1, addrs, &ls[1], bound).expect("mesh");
        let mut bufs = MeshBuffers::default();
        let mut comm = SocketComm::new(Partition::new(4, 2), 1, &mut mesh, &mut bufs);
        let started = Instant::now();
        // Worker 1 is the higher index of the pair: it listens first.
        let err = comm
            .try_step(Scope::All, &mut |_, _| {})
            .expect_err("a silent peer must not look like a barrier");
        let waited = started.elapsed();
        assert!(
            waited >= bound && waited < 3 * bound,
            "gave up after {waited:?}, bound {bound:?}"
        );
        release.send(()).expect("impostor waiting");
        wedged.join().expect("impostor thread");
        err
    });
    assert_eq!(err.kind(), io::ErrorKind::TimedOut, "{err}");
    let text = err.to_string();
    assert!(
        text.contains("worker 1 superstep 0: peer 0"),
        "error must name the pair: {text}"
    );
}

/// A mesh peer whose listener is gone refuses the one dial at once:
/// a typed `ConnectionRefused`, not a retry on a timer.
#[test]
fn a_dead_peer_refuses_the_mesh_dial_at_once() {
    let (mut ls, addrs) = listeners(2);
    drop(ls.remove(0));
    let started = Instant::now();
    let err = establish_mesh(1, &addrs, &ls[0], Duration::from_secs(20))
        .expect_err("worker 0's listener is closed");
    let waited = started.elapsed();
    assert_eq!(err.kind(), io::ErrorKind::ConnectionRefused, "{err}");
    assert!(
        waited < Duration::from_millis(100),
        "refused after {waited:?}"
    );
}

/// The same failure seen from the control channel: a fleet whose
/// worker 0 is an impostor that joins the mesh and drops it when the
/// job starts. The real worker 1 must report `DistFailed` (not panic,
/// not hang), the router must turn the replies into one `io::Error`
/// naming both, stay in step for the next request, and shut down
/// cleanly.
#[test]
fn dead_peer_reaches_the_router_as_a_typed_error() {
    use mo_dist::frame::{recv_ctl, send_ctl};
    use mo_dist::{run_worker, Ctl, Router, WorkerConfig};
    use std::net::TcpStream;

    let router_listener = TcpListener::bind("127.0.0.1:0").expect("bind router");
    let coord = router_listener.local_addr().expect("addr").to_string();
    thread::scope(|s| {
        let impostor = s.spawn(|| -> io::Result<()> {
            let mut ctrl = TcpStream::connect(&coord)?;
            let data = TcpListener::bind("127.0.0.1:0")?;
            send_ctl(
                &mut ctrl,
                &Ctl::Hello {
                    index: 0,
                    data_addr: data.local_addr()?.to_string(),
                },
            )?;
            let Ctl::PeerTable { addrs } = recv_ctl(&mut ctrl)? else {
                return Err(io::Error::other("expected PeerTable"));
            };
            let mut mesh = Some(establish_mesh(0, &addrs, &data, Duration::from_secs(20))?);
            loop {
                match recv_ctl(&mut ctrl)? {
                    Ctl::RunDist { .. } => {
                        mesh.take(); // the peer dies: its streams close
                        send_ctl(
                            &mut ctrl,
                            &Ctl::DistFailed {
                                reason: "impostor".into(),
                            },
                        )?;
                    }
                    Ctl::Shutdown => return Ok(()),
                    other => return Err(io::Error::other(format!("unexpected {other:?}"))),
                }
            }
        });
        let real = s.spawn(|| {
            let mut cfg = WorkerConfig::new(1, 2, coord.clone());
            cfg.hierarchy = Some(mo_serve::HwHierarchy::flat(2, 1 << 14, 1 << 22));
            run_worker(cfg)
        });
        let router = Router::accept_fleet(&router_listener, 2).expect("fleet bootstrap");

        let started = Instant::now();
        let err = router
            .run_sort(64, 1)
            .expect_err("a dead peer fails the run");
        assert!(started.elapsed() < Duration::from_secs(10), "{err}");
        let text = err.to_string();
        assert!(text.contains("worker 0: impostor"), "{text}");
        assert!(text.contains("worker 1: UnexpectedEof"), "{text}");
        // Supersteps 0–2 sort the two 32-key columns inside their
        // workers; the first frame is due at the transpose, superstep 3.
        assert!(text.contains("superstep 3: peer 0"), "{text}");

        // The control channels are still in step, and the broken mesh
        // is reported, not reused.
        let again = router.run_sort(64, 2).expect_err("mesh stays down");
        assert!(
            again.to_string().contains("worker 1: NotConnected"),
            "{again}"
        );

        router.shutdown();
        real.join()
            .expect("worker thread")
            .expect("clean worker exit");
        impostor.join().expect("impostor thread").expect("impostor");
    });
}

/// A shard's result is checked before its rows join the signature: an
/// impostor worker 0 runs its half of the sort honestly with the real
/// worker 1, then answers with a result frame, written as a worker
/// writes one, that also claims a row from PE 40, which worker 1 owns.
/// The router must refuse the run as `InvalidData` naming worker 0 and
/// the superstep, not sort the row into the signature; and, having read
/// both replies, stay in step for an honest run after it.
#[test]
fn forged_result_rows_are_refused_by_the_router() {
    use mo_dist::frame::{recv_ctl, send_ctl};
    use mo_dist::{run_worker, Ctl, DistAlg, Router, WorkerConfig};
    use std::net::TcpStream;

    let (sim, want) = DistAlg::Sort.reference(64, 0, 1);
    // Worker 0's honest rows, with one from PE 40 added to its first
    // superstep that has any, coded as its engine logs them.
    let mut forged_rows: Vec<Vec<_>> = sim
        .traffic_signature()
        .iter()
        .map(|rows| rows.iter().copied().filter(|r| r.0 < 32).collect())
        .collect();
    let forged_step = forged_rows
        .iter()
        .position(|rows| !rows.is_empty())
        .expect("worker 0 sends");
    forged_rows[forged_step].push((40, 41, 1));
    let mut forged = Vec::new();
    for rows in &forged_rows {
        no_framework::codec::put_rows(&mut forged, 0, rows);
    }
    let router_listener = TcpListener::bind("127.0.0.1:0").expect("bind router");
    let coord = router_listener.local_addr().expect("addr").to_string();
    thread::scope(|s| {
        let impostor = s.spawn(|| -> io::Result<()> {
            let mut ctrl = TcpStream::connect(&coord)?;
            let data = TcpListener::bind("127.0.0.1:0")?;
            send_ctl(
                &mut ctrl,
                &Ctl::Hello {
                    index: 0,
                    data_addr: data.local_addr()?.to_string(),
                },
            )?;
            let Ctl::PeerTable { addrs } = recv_ctl(&mut ctrl)? else {
                return Err(io::Error::other("expected PeerTable"));
            };
            let mut mesh = establish_mesh(0, &addrs, &data, Duration::from_secs(20))?;
            let (mut bufs, mut reply) = (MeshBuffers::default(), Enc::new());
            let mut forge = true;
            loop {
                match recv_ctl(&mut ctrl)? {
                    Ctl::RunDist { alg, n, seed, .. } => {
                        let n = n as usize;
                        let mut comm =
                            SocketComm::new(Partition::new(n, 2), 0, &mut mesh, &mut bufs);
                        alg.run(&mut comm, n, 0, seed);
                        let mems: Vec<Vec<u64>> = (0..n / 2)
                            .map(|pe| comm.pe_mem(pe).expect("owned").to_vec())
                            .collect();
                        reply.clear();
                        let done = comm.finish(1, &mut reply)?;
                        if forge {
                            reply.clear();
                            reply.dist_done(&done, &mems, 1, &forged);
                            forge = false;
                        }
                        reply.send(&mut ctrl)?;
                    }
                    Ctl::Shutdown => return Ok(()),
                    other => return Err(io::Error::other(format!("unexpected {other:?}"))),
                }
            }
        });
        let real = s.spawn(|| {
            let mut cfg = WorkerConfig::new(1, 2, coord.clone());
            cfg.hierarchy = Some(mo_serve::HwHierarchy::flat(2, 1 << 14, 1 << 22));
            run_worker(cfg)
        });
        let router = Router::accept_fleet(&router_listener, 2).expect("fleet bootstrap");

        let err = match router.run_sort(64, 1) {
            Ok(got) => panic!(
                "a forged row was accepted; mismatches: {:?}",
                got.mismatches(&sim, &want)
            ),
            Err(e) => e,
        };
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        let text = err.to_string();
        assert!(
            text.contains(&format!("worker 0 superstep {forged_step}:"))
                && text.contains("40 → 41"),
            "{text}"
        );

        let again = router.run_sort(64, 1).expect("an honest run after it");
        assert_eq!(again.mismatches(&sim, &want), Vec::<String>::new());

        router.shutdown();
        real.join()
            .expect("worker thread")
            .expect("clean worker exit");
        impostor.join().expect("impostor thread").expect("impostor");
    });
}
