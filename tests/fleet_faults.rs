//! Tier-1 coverage of the router's one rule for a fleet job that goes
//! wrong: the job reads one whole reply from every shard it reached, or
//! it marks the fleet poisoned and every later call fails with
//! `FleetPoisoned`. Either way no later call reads a reply meant for an
//! earlier one. Every other control exchange keeps the same rule. The
//! shards here are fake: each answers `RunDist` with given bytes and
//! `MetricsReq` with an empty exposition.

use std::io::{self, Write};
use std::net::{TcpListener, TcpStream};
use std::thread;

use oblivious::dist::frame::{recv_ctl, send_ctl};
use oblivious::dist::{Ctl, DistAlg, FleetPoisoned, Router};

/// What a fake shard does with a `RunDist`, or with its first
/// `MetricsReq`.
enum Answer {
    /// Write these bytes and keep serving.
    Bytes(Vec<u8>),
    /// Write these bytes and hang up.
    BytesThenClose(Vec<u8>),
    /// Write these bytes for the first `MetricsReq` instead of an
    /// exposition, and keep serving.
    FirstMetrics(Vec<u8>),
}

/// Run `job` on a router over one fake shard per entry of `answers`.
fn fleet_of(answers: Vec<Answer>, job: impl FnOnce(&Router)) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind router");
    let coord = listener.local_addr().expect("router address");
    let workers = answers.len();
    thread::scope(|s| {
        let shards: Vec<_> = answers
            .into_iter()
            .enumerate()
            .map(|(w, answer)| {
                s.spawn(move || -> io::Result<()> {
                    let mut ctrl = TcpStream::connect(coord)?;
                    let hello = Ctl::Hello {
                        index: w as u32,
                        data_addr: String::new(),
                    };
                    send_ctl(&mut ctrl, &hello)?;
                    let mut first_metrics = match &answer {
                        Answer::FirstMetrics(bytes) => Some(bytes.clone()),
                        _ => None,
                    };
                    loop {
                        let msg = match recv_ctl(&mut ctrl) {
                            Ok(msg) => msg,
                            // The router dropped its end.
                            Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(()),
                            Err(e) => return Err(e),
                        };
                        match (msg, &answer) {
                            (Ctl::PeerTable { .. }, _) => {}
                            (Ctl::RunDist { .. }, Answer::Bytes(bytes)) => ctrl.write_all(bytes)?,
                            (Ctl::RunDist { .. }, Answer::BytesThenClose(bytes)) => {
                                return ctrl.write_all(bytes);
                            }
                            (Ctl::MetricsReq, _) => match first_metrics.take() {
                                Some(bytes) => ctrl.write_all(&bytes)?,
                                None => {
                                    let text = String::new();
                                    send_ctl(&mut ctrl, &Ctl::MetricsText { text })?;
                                }
                            },
                            (Ctl::Shutdown, _) => return Ok(()),
                            (other, _) => return Err(io::Error::other(format!("{other:?}"))),
                        }
                    }
                })
            })
            .collect();
        let router = Router::accept_fleet(&listener, workers).expect("fleet bootstrap");
        job(&router);
        router.shutdown();
        for shard in shards {
            shard.join().expect("shard thread").expect("shard");
        }
    })
}

/// `msg` as a shard writes it on its control stream.
fn framed(msg: &Ctl) -> Vec<u8> {
    let mut bytes = Vec::new();
    send_ctl(&mut bytes, msg).expect("into memory");
    bytes
}

fn poisoned(e: &io::Error) -> bool {
    e.get_ref()
        .is_some_and(|inner| inner.downcast_ref::<FleetPoisoned>().is_some())
}

/// Shard 0 answers with a whole frame under an unknown tag, shard 1 with
/// `DistFailed`. The job fails naming worker 1, and it has read both
/// replies: the next `fleet_metrics()` reads the shards' expositions,
/// not the failed job's stale `DistFailed`.
#[test]
fn a_failed_job_reads_every_shards_reply() {
    let unknown_tag = vec![1, 0, 0, 0, 0xee];
    let failed = framed(&Ctl::DistFailed {
        reason: "peer gone".to_string(),
    });
    fleet_of(
        vec![Answer::Bytes(unknown_tag), Answer::Bytes(failed)],
        |router| {
            let err = router
                .run(DistAlg::Sort, 16, 0, 1)
                .expect_err("a failed job");
            assert!(!poisoned(&err), "{err}");
            assert!(err.to_string().contains("worker 1: peer gone"), "{err}");
            for _ in 0..2 {
                let text = router.fleet_metrics().expect("the channels are in step");
                assert!(text.contains("modist_fleet_workers 2"), "{text}");
            }
        },
    );
}

/// Shard 0 hangs up half way through its reply. The job fails with the
/// read's own error, and every later call with `FleetPoisoned` naming
/// it, without touching the channels.
#[test]
fn a_reply_cut_short_poisons_the_fleet() {
    let cut = vec![100, 0, 0, 0, 6, 1, 2];
    let failed = framed(&Ctl::DistFailed {
        reason: "peer gone".to_string(),
    });
    fleet_of(
        vec![Answer::BytesThenClose(cut), Answer::Bytes(failed)],
        |router| {
            let first = router
                .run(DistAlg::Sort, 16, 0, 1)
                .expect_err("a cut reply");
            assert!(!poisoned(&first), "{first}");
            assert_eq!(first.kind(), io::ErrorKind::UnexpectedEof, "{first}");
            let later = [
                router.fleet_metrics().map(drop),
                router.run(DistAlg::Sort, 16, 0, 2).map(drop),
                router.submit("sort", 64, 1).map(drop),
                router.calibrate_clocks(1).map(drop),
                router.collect_trace().map(drop),
            ];
            for got in later {
                let err = got.expect_err("a poisoned fleet");
                assert!(poisoned(&err), "{err}");
                let cause = err.to_string();
                assert!(
                    cause.ends_with(&first.to_string()),
                    "{cause} must name {first}"
                );
            }
        },
    );
}

/// Shard 0 answers the first `MetricsReq` with a whole frame under an
/// unknown tag. That call fails with `InvalidData`, as the same frame
/// fails a fleet job, but the channel is still in step: the fleet is not
/// poisoned and the next call reads both shards' expositions.
#[test]
fn a_garbled_metrics_reply_fails_only_its_call() {
    let unknown_tag = vec![1, 0, 0, 0, 0xee];
    fleet_of(
        vec![Answer::FirstMetrics(unknown_tag), Answer::Bytes(Vec::new())],
        |router| {
            let err = router.fleet_metrics().expect_err("a garbled reply");
            assert!(!poisoned(&err), "{err}");
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
            for _ in 0..2 {
                let text = router.fleet_metrics().expect("the channels are in step");
                assert!(text.contains("modist_fleet_workers 2"), "{text}");
            }
        },
    );
}
