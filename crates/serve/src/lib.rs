//! # mo-serve — a space-bound-aware kernel service
//!
//! The paper's contract is that algorithms declare only a space bound
//! `s(τ)` and a machine-aware scheduler does the placement. This crate
//! lifts that contract one layer up, from tasks inside one computation
//! to **jobs inside a service**: clients submit kernel requests
//! (transpose, FFT, matmul, sort, SpM-DV over the real kernels of
//! `mo_algorithms::real`), each carrying a footprint derived from its
//! declared size by the registry's analytic space functions, and the
//! server decides *when* a job may run at all:
//!
//! * **SB admission control** — a job starts only when some cache level
//!   of the serving [`HwHierarchy`] fits its footprint per-instance and
//!   has that much aggregate capacity left over the jobs in flight;
//! * **backpressure** — a bounded queue with per-job deadlines and
//!   typed [`Rejected`] load-shedding instead of unbounded growth;
//! * **CGC⇒SB batching** — small queued jobs of the same kernel and
//!   size form equal-footprint batches that anchor where their total
//!   fits and spread evenly over the cores through one `join_all`;
//! * **observability** — per-kernel and per-level counters plus latency
//!   quantiles behind a cheap [`MetricsSnapshot`] API, with interval
//!   deltas ([`MetricsSnapshot::delta_since`]) and a Prometheus text
//!   `/metrics` endpoint ([`Server::serve_metrics`]);
//! * **graceful drain** — shutdown stops intake, finishes (or sheds)
//!   the queue, and resolves every outstanding [`Ticket`];
//! * **request-path spans** — once a trace sink is attached
//!   ([`Server::attach_sink`], at any time) every submission carries a
//!   fleet-unique request id through `arrive → admit → enqueue →
//!   dequeue → batch-form → execute → respond` (or a typed shed) phase
//!   events in the pool's trace sink, reassembled by
//!   `mo_obs::span` into per-kernel per-phase tail-latency
//!   attributions;
//! * **SLO burn rates** — fixed latency (100 ms at 0.99) and
//!   availability (0.999) objectives, always evaluated as multi-window
//!   error-budget burn rates (`moserve_slo_*` on `/metrics`), with a
//!   validated Perfetto flight-recorder dump on the burn edge when
//!   [`ServeConfig::slo_dump`] names a path.
//!
//! ```
//! use mo_serve::{JobSpec, Kernel, Server};
//!
//! let server = Server::detected();
//! let ticket = server.submit(JobSpec::new(Kernel::Sort, 10_000, 42)).unwrap();
//! assert!(ticket.wait().is_done());
//! let snapshot = server.drain();
//! assert_eq!(snapshot.completed_total(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod job;
mod metrics;
mod server;
mod state;

pub use job::{CertifyGap, Done, JobSpec, Kernel, Outcome, Rejected, Ticket};
pub use metrics::{KernelSnapshot, LevelSnapshot, MetricsSnapshot};
pub use server::{ServeConfig, Server};

pub use mo_core::rt::HwHierarchy;
/// The running `/metrics` endpoint [`Server::serve_metrics`] returns:
/// the one exposition server in `mo-obs`, rendering this server's
/// snapshot per scrape. Dropping the handle stops it.
pub use mo_obs::expose::Exposition as MetricsExposition;

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn small_server(queue_cap: usize, batch_max: usize) -> Server {
        Server::start(
            HwHierarchy::flat(4, 2048, 1 << 16),
            ServeConfig {
                workers: 2,
                queue_cap,
                default_deadline: Duration::from_secs(10),
                batch_max,
                batch_words_max: Some(4096),
                ..ServeConfig::default()
            },
        )
    }

    #[test]
    fn serves_one_job_per_kernel() {
        let server = small_server(64, 1);
        let tickets: Vec<_> = Kernel::ALL
            .iter()
            .map(|&k| {
                // The largest job that fits a quarter of the 64 KiW L2.
                let n = k.size_within(1 << 14);
                (k, server.submit(JobSpec::new(k, n, 7)).unwrap())
            })
            .collect();
        for (k, t) in tickets {
            match t.wait() {
                Outcome::Done(d) => assert_eq!(d.batch_size, 1, "{k}"),
                Outcome::Rejected(r) => panic!("{k} rejected: {r:?}"),
            }
        }
        let snap = server.drain();
        assert_eq!(snap.completed_total(), Kernel::ALL.len() as u64);
        assert_eq!(snap.shed_total(), 0);
        assert_eq!(snap.queue_depth, 0);
        assert!(snap.levels.iter().all(|l| l.inflight_words == 0));
    }

    #[test]
    fn results_are_deterministic_and_batch_independent() {
        // The same spec must hash identically whether it ran solo on a
        // fresh server or batched among strangers.
        let solo = {
            let server = small_server(64, 1);
            match server
                .submit(JobSpec::new(Kernel::Sort, 1000, 5))
                .unwrap()
                .wait()
            {
                Outcome::Done(d) => d.checksum,
                r => panic!("rejected: {r:?}"),
            }
        };
        let server = small_server(256, 8);
        let tickets: Vec<_> = (0..40)
            .map(|i| {
                server
                    .submit(JobSpec::new(Kernel::Sort, 1000, i % 10))
                    .unwrap()
            })
            .collect();
        let mut batched_seed5 = Vec::new();
        // A batch of `s` jobs answers `s` tickets with `batch_size = s`.
        let (mut batched, mut batch_share) = (0u64, 0.0f64);
        for (i, t) in tickets.into_iter().enumerate() {
            if let Outcome::Done(d) = t.wait() {
                if i % 10 == 5 {
                    batched_seed5.push(d.checksum);
                }
                if d.batch_size > 1 {
                    batched += 1;
                    batch_share += 1.0 / d.batch_size as f64;
                }
            } else {
                panic!("job {i} rejected");
            }
        }
        assert!(!batched_seed5.is_empty());
        assert!(batched_seed5.iter().all(|&c| c == solo));
        let sort = &server.drain().kernels[Kernel::Sort.index()];
        assert_eq!(sort.batched_jobs, batched);
        assert_eq!(sort.batches, batch_share.round() as u64);
    }

    #[test]
    fn counters_conserve_jobs_under_concurrent_load() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;
        // Several submitter threads race the worker pool while a
        // snapshot loop continuously checks conservation: every
        // accepted job is exactly one of completed, deadline-shed,
        // failed, or still in flight — never double-counted, never
        // lost — in *every* snapshot, not only at quiescence.
        let server = small_server(512, 4);
        // With a sink attached, the same run must also conserve *spans*:
        // every submission opens one and closes it exactly once.
        let sink = {
            let sink = Arc::new(mo_obs::TraceSink::new(4));
            assert!(server.attach_sink(Arc::clone(&sink)));
            sink
        };
        let server = Arc::new(server);
        let stop = Arc::new(AtomicBool::new(false));
        let submitters: Vec<_> = (0..3)
            .map(|t| {
                let server = Arc::clone(&server);
                std::thread::spawn(move || {
                    let mut accepted = 0u64;
                    let mut tickets = Vec::new();
                    for i in 0..200u64 {
                        let spec = JobSpec {
                            kernel: Kernel::Sort,
                            n: 1000,
                            seed: t * 1000 + i,
                            // A sprinkle of instant deadlines exercises
                            // the shed_deadline leg of the invariant.
                            deadline: (i % 7 == 0).then_some(Duration::ZERO),
                            trace_id: None,
                        };
                        if let Ok(ticket) = server.submit(spec) {
                            accepted += 1;
                            tickets.push(ticket);
                        }
                    }
                    for t in tickets {
                        t.wait();
                    }
                    accepted
                })
            })
            .collect();
        let checker = {
            let server = Arc::clone(&server);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut checks = 0u64;
                while !stop.load(Ordering::Acquire) {
                    let snap = server.metrics();
                    for k in &snap.kernels {
                        assert_eq!(
                            k.submitted,
                            k.completed + k.shed_deadline + k.failed + k.in_flight(),
                            "{}",
                            k.kernel.name()
                        );
                    }
                    // Every job in flight is queued or in one of the two
                    // service threads' batches of at most 4, as of the
                    // same instant as the counters.
                    let sort = &snap.kernels[Kernel::Sort.index()];
                    let running = sort
                        .in_flight()
                        .checked_sub(snap.queue_depth as u64)
                        .expect("every queued job is counted in flight");
                    assert!(running <= 2 * 4, "{running} jobs running");
                    checks += 1;
                }
                checks
            })
        };
        let accepted: u64 = submitters.into_iter().map(|h| h.join().unwrap()).sum();
        stop.store(true, Ordering::Release);
        assert!(checker.join().unwrap() > 0);
        // Every ticket resolved, so nothing is in flight: accepted jobs
        // now split exactly into completed + deadline-shed (no kernel
        // failed).
        let snap = server.metrics();
        let sort = &snap.kernels[Kernel::Sort.index()];
        assert_eq!(sort.submitted, accepted);
        assert_eq!(sort.failed, 0);
        assert_eq!(sort.completed + sort.shed_deadline, accepted);
        assert_eq!(snap.in_flight_total(), 0);
        assert!(sort.completed > 0, "no job ever completed");
        assert!(
            snap.ring_dropped.iter().all(|&d| d == 0),
            "rings dropped events; conservation check is void"
        );
        let set = mo_obs::span::assemble(&sink.drain());
        // 600 submissions attempted: every one opened a span
        // (queue-full rejects open and immediately close).
        assert_eq!(set.opened, 600);
        assert!(
            set.conserved(),
            "opened {} closed {}",
            set.opened,
            set.closed
        );
    }

    #[test]
    fn metrics_endpoint_serves_parseable_prometheus_text() {
        use std::io::{Read, Write};
        // Scrape /metrics over real TCP while jobs are running, parse
        // the body with the mo-obs Prometheus parser, and validate the
        // latency histograms are cumulative with +Inf == _count.
        let server = small_server(256, 4);
        let endpoint = server.serve_metrics("127.0.0.1:0").unwrap();
        let tickets: Vec<_> = (0..60)
            .map(|i| server.submit(JobSpec::new(Kernel::Sort, 1000, i)).unwrap())
            .collect();
        let scrape = |path: &str| {
            let mut conn = std::net::TcpStream::connect(endpoint.addr()).unwrap();
            write!(conn, "GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
            let mut response = String::new();
            conn.read_to_string(&mut response).unwrap();
            response
        };
        // One scrape mid-load, one at quiescence.
        let early = scrape("/metrics");
        assert!(early.starts_with("HTTP/1.1 200 OK"), "{early}");
        for t in tickets {
            assert!(t.wait().is_done());
        }
        let full = scrape("/metrics");
        assert!(full.contains("text/plain; version=0.0.4"));
        assert!(scrape("/nope").starts_with("HTTP/1.1 404"));
        for response in [early, full] {
            let body = response.split("\r\n\r\n").nth(1).unwrap();
            let samples = mo_obs::prom::parse(body).unwrap();
            assert!(mo_obs::prom::check_histograms(&samples).unwrap() >= 1);
            assert!(samples
                .iter()
                .any(|s| s.name == "moserve_jobs_submitted_total"
                    && s.label("kernel") == Some("sort")));
        }
        // The quiescent scrape must show all 60 sorts completed.
        let body = scrape("/metrics");
        let samples = mo_obs::prom::parse(body.split("\r\n\r\n").nth(1).unwrap()).unwrap();
        let completed = samples
            .iter()
            .find(|s| s.name == "moserve_jobs_completed_total" && s.label("kernel") == Some("sort"))
            .unwrap();
        assert_eq!(completed.value, 60.0);
        let count = samples
            .iter()
            .find(|s| {
                s.name == "moserve_latency_seconds_count" && s.label("kernel") == Some("sort")
            })
            .unwrap();
        assert_eq!(count.value, 60.0);
        drop(endpoint); // stops the accept thread
        drop(server);
    }

    #[test]
    fn snapshot_deltas_isolate_interval_activity() {
        let server = small_server(64, 1);
        for i in 0..5 {
            assert!(server
                .submit(JobSpec::new(Kernel::Sort, 1000, i))
                .unwrap()
                .wait()
                .is_done());
        }
        let mid = server.metrics();
        for i in 0..3 {
            assert!(server
                .submit(JobSpec::new(Kernel::Fft, 4096, i))
                .unwrap()
                .wait()
                .is_done());
        }
        let delta = server.metrics().delta_since(&mid);
        assert_eq!(delta.kernels[Kernel::Sort.index()].completed, 0);
        assert_eq!(delta.kernels[Kernel::Fft.index()].completed, 3);
        assert_eq!(delta.kernels[Kernel::Fft.index()].latency.count, 3);
        assert_eq!(delta.completed_total(), 3);
        // Full-lifetime counters are untouched by taking a delta.
        assert_eq!(server.metrics().completed_total(), 8);
    }

    #[test]
    fn delta_keeps_the_ring_drops_of_a_sink_attached_in_the_interval() {
        // A scraper that starts before the sink: the earlier snapshot
        // has no ring entries, the later one W + 1, and the delta must
        // keep all of them rather than stop at the shorter side.
        let server = small_server(8, 1);
        let before = server.metrics();
        assert!(before.ring_dropped.is_empty());
        let workers = server.hierarchy().cores();
        let sink = std::sync::Arc::new(mo_obs::TraceSink::new(workers));
        assert!(server.attach_sink(sink));
        let delta = server.metrics().delta_since(&before);
        assert_eq!(delta.ring_dropped, vec![0; workers + 1]);
        assert!(delta
            .to_prometheus_text()
            .contains("moserve_ring_dropped_total{worker=\"external\"} 0"));
    }

    #[test]
    fn pool_info_reports_serving_shape() {
        let server = small_server(8, 1);
        let info = server.pool_info();
        assert_eq!(info.cores, 4);
        assert_eq!(info.resident_workers, 4);
        assert!(info.started);
        assert_eq!(info.l1_words, 2048);
    }

    #[test]
    fn too_large_jobs_are_refused_with_type() {
        let server = small_server(8, 1);
        // Matmul n=512 → 786432 words > L2 (65536): no level fits.
        match server.submit(JobSpec::new(Kernel::Matmul, 512, 0)) {
            Err(Rejected::TooLarge { footprint, largest }) => {
                assert!(footprint > largest);
            }
            other => panic!("expected TooLarge, got {other:?}"),
        }
        // Sizes whose footprint formula overflows are too large too:
        // they must not wrap to a footprint some level admits.
        for k in Kernel::ALL {
            for n in [1usize << 32, 1 << 33, usize::MAX] {
                match server.submit(JobSpec::new(k, n, 0)) {
                    Err(Rejected::TooLarge { footprint, largest }) => {
                        assert!(footprint > largest && footprint >= n, "{k} at {n}");
                    }
                    other => panic!("{k} at n = {n}: expected TooLarge, got {other:?}"),
                }
            }
        }
        let snap = server.drain();
        assert_eq!(snap.kernels[Kernel::Matmul.index()].shed_too_large, 4);
        assert_eq!(snap.kernels[Kernel::Scan.index()].shed_too_large, 3);
    }

    #[test]
    fn secure_mode_gates_on_oblivious_certificates() {
        use mo_core::certify::{Certificate, Classification, Witness};
        use mo_core::CertificateSet;
        // A hand-built certificate set: sort is data-dependent (as the
        // real certifier finds), scan is oblivious, fft has no entry.
        let cert = |kernel: &str, class: Classification| Certificate {
            kernel: kernel.to_string(),
            n: 256,
            runs: 3,
            classification: class,
            witness: (class == Classification::DataDependent).then_some(Witness {
                seed_a: 0,
                seed_b: 1,
                divergence: mo_core::certify::Divergence {
                    kind: mo_core::certify::DivergenceKind::TraceEntry,
                    pos: 0,
                    a: None,
                    b: None,
                },
            }),
            declared_words: 512,
            recorded_words: 512,
            footprint_sound: true,
            schedule_clean: true,
        };
        let set = CertificateSet {
            certs: vec![
                cert("scan", Classification::Oblivious),
                cert("sort", Classification::DataDependent),
            ],
        };
        let server = Server::start(
            HwHierarchy::flat(4, 2048, 1 << 16),
            ServeConfig {
                workers: 1,
                queue_cap: 16,
                default_deadline: Duration::from_secs(10),
                batch_max: 1,
                batch_words_max: Some(4096),
                certificates: Some(set),
                ..ServeConfig::default()
            },
        );
        // Certified oblivious: served normally.
        assert!(server
            .submit(JobSpec::new(Kernel::Scan, 1000, 1))
            .unwrap()
            .wait()
            .is_done());
        // Certified data-dependent: typed refusal.
        match server.submit(JobSpec::new(Kernel::Sort, 1000, 1)) {
            Err(Rejected::NotCertified {
                gap: CertifyGap::DataDependent,
            }) => {}
            other => panic!("expected NotCertified/DataDependent, got {other:?}"),
        }
        // No certificate at all: typed refusal.
        match server.submit(JobSpec::new(Kernel::Fft, 1024, 1)) {
            Err(Rejected::NotCertified {
                gap: CertifyGap::NoCertificate,
            }) => {}
            other => panic!("expected NotCertified/NoCertificate, got {other:?}"),
        }
        let snap = server.drain();
        assert_eq!(snap.kernels[Kernel::Sort.index()].shed_not_certified, 1);
        assert_eq!(snap.kernels[Kernel::Fft.index()].shed_not_certified, 1);
        assert_eq!(snap.kernels[Kernel::Scan.index()].completed, 1);
        assert_eq!(snap.shed_total(), 2);
    }

    #[test]
    fn secure_mode_with_an_empty_certificate_set_refuses_everything() {
        let server = Server::start(
            HwHierarchy::flat(4, 2048, 1 << 16),
            ServeConfig {
                workers: 1,
                queue_cap: 16,
                default_deadline: Duration::from_secs(10),
                batch_max: 1,
                batch_words_max: Some(4096),
                certificates: Some(mo_core::CertificateSet::default()),
                ..ServeConfig::default()
            },
        );
        for k in Kernel::ALL {
            match server.submit(JobSpec::new(k, 64, 0)) {
                Err(Rejected::NotCertified {
                    gap: CertifyGap::NoCertificate,
                }) => {}
                other => panic!("{k}: expected NotCertified, got {other:?}"),
            }
        }
    }

    #[test]
    fn draining_server_refuses_new_work() {
        let server = small_server(8, 1);
        server.shutdown();
        match server.submit(JobSpec::new(Kernel::Sort, 100, 0)) {
            Err(Rejected::ShuttingDown) => {}
            other => panic!("expected ShuttingDown, got {other:?}"),
        }
    }

    /// Every typed shed path must close its request span exactly once,
    /// with the matching reason code.
    #[test]
    fn every_shed_path_closes_its_span_exactly_once() {
        use mo_obs::span;
        use std::sync::Arc;
        // Secure server without certificates: the not_certified path.
        let secure = Server::start(
            HwHierarchy::flat(4, 2048, 1 << 16),
            ServeConfig {
                workers: 1,
                certificates: Some(mo_core::CertificateSet::default()),
                ..ServeConfig::default()
            },
        );
        let secure_sink = Arc::new(mo_obs::TraceSink::new(4));
        assert!(secure.attach_sink(Arc::clone(&secure_sink)));
        assert!(matches!(
            secure.submit(JobSpec::new(Kernel::Sort, 1000, 0)),
            Err(Rejected::NotCertified { .. })
        ));
        drop(secure);
        let set = span::assemble(&secure_sink.drain());
        assert!(set.conserved());
        assert_eq!(
            set.spans[0].shed.map(|(r, _)| r),
            Some(span::SHED_NOT_CERTIFIED)
        );

        // One single-worker server walks the other four paths.
        let server = Server::start(
            HwHierarchy::flat(4, 2048, 1 << 16),
            ServeConfig {
                workers: 1,
                queue_cap: 1,
                default_deadline: Duration::from_secs(10),
                batch_max: 1,
                ..ServeConfig::default()
            },
        );
        let sink = Arc::new(mo_obs::TraceSink::new(4));
        assert!(server.attach_sink(Arc::clone(&sink)));
        // too_large: no level fits matmul n=512.
        assert!(matches!(
            server.submit(JobSpec::new(Kernel::Matmul, 512, 0)),
            Err(Rejected::TooLarge { .. })
        ));
        // One job that completes, so one span closes via respond. It
        // holds the one worker until `hold` is dropped, so once it has
        // left the queue the 1-slot queue fills and stays full.
        let hold = crate::server::tests::HOLD
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let blocker = server
            .submit(JobSpec::new(
                Kernel::Matmul,
                96,
                crate::server::tests::HOLD_SEED,
            ))
            .unwrap();
        while server.metrics().queue_depth > 0 {
            std::thread::yield_now();
        }
        // Zero-deadline jobs always shed (the worker runs shed_expired
        // before admission, and their deadline is already past). With
        // the worker held, the first is queued and the second finds the
        // queue full.
        let zero_deadline = |seed| JobSpec {
            kernel: Kernel::Sort,
            n: 1000,
            seed,
            deadline: Some(Duration::ZERO),
            trace_id: None,
        };
        let doomed = server.submit(zero_deadline(1)).unwrap();
        assert!(matches!(
            server.submit(zero_deadline(2)),
            Err(Rejected::QueueFull { depth: 1 })
        ));
        drop(hold);
        assert!(blocker.wait().is_done());
        assert!(matches!(
            doomed.wait(),
            Outcome::Rejected(Rejected::DeadlineExpired { .. })
        ));
        // shutting_down: refused after shutdown.
        server.shutdown();
        assert!(matches!(
            server.submit(JobSpec::new(Kernel::Sort, 1000, 2)),
            Err(Rejected::ShuttingDown)
        ));
        drop(server);
        let set = span::assemble(&sink.drain());
        // too_large, the blocker, the doomed job, queue_full and
        // shutting_down.
        assert_eq!(set.opened, 5);
        assert!(set.conserved());
        let count = |reason: u64| {
            set.spans
                .iter()
                .filter(|s| s.shed.map(|(r, _)| r) == Some(reason))
                .count() as u64
        };
        assert_eq!(count(span::SHED_TOO_LARGE), 1);
        assert_eq!(count(span::SHED_DEADLINE), 1);
        assert_eq!(count(span::SHED_QUEUE_FULL), 1);
        assert_eq!(count(span::SHED_SHUTTING_DOWN), 1);
        // The completed span is fully attributable to phases.
        let done: Vec<_> = set.spans.iter().filter(|s| s.shed.is_none()).collect();
        assert_eq!(done.len(), 1);
        assert!(done[0].complete());
        assert_eq!(done[0].kernel, Kernel::Matmul.index() as u64);
        assert!(done[0].phase_ns(span::Phase::Execute).unwrap() > 0);
    }

    #[test]
    fn slo_families_stay_quiet_on_healthy_traffic() {
        let server = Server::start(
            HwHierarchy::flat(4, 2048, 1 << 16),
            ServeConfig {
                workers: 2,
                ..ServeConfig::default()
            },
        );
        for i in 0..10 {
            assert!(server
                .submit(JobSpec::new(Kernel::Sort, 1000, i))
                .unwrap()
                .wait()
                .is_done());
        }
        let snap = server.metrics();
        assert_eq!(snap.slo.len(), 2);
        assert!(snap.slo.iter().all(|o| !o.burning));
        assert_eq!(snap.slo_dumps, 0);
        let text = snap.to_prometheus_text();
        assert!(text.contains("moserve_slo_target{objective=\"latency\"} 0.99"));
        assert!(text.contains("moserve_slo_burning{objective=\"availability\"} 0"));
        let samples = mo_obs::prom::parse(&text).expect("valid exposition");
        mo_obs::prom::check_histograms(&samples).expect("consistent");
    }

    /// An SLO burn must fire the flight recorder, and the artifact must
    /// be valid Perfetto JSON containing the request spans.
    #[test]
    fn slo_burn_writes_validated_perfetto_dump() {
        use std::sync::Arc;
        use std::time::Instant;
        let dump =
            std::env::temp_dir().join(format!("moserve_slo_dump_{}.json", std::process::id()));
        let _ = std::fs::remove_file(&dump);
        let server = Server::start(
            HwHierarchy::flat(4, 2048, 1 << 16),
            ServeConfig {
                workers: 1,
                slo_dump: Some(dump.clone()),
                ..ServeConfig::default()
            },
        );
        let sink = Arc::new(mo_obs::TraceSink::new(4));
        assert!(server.attach_sink(Arc::clone(&sink)));
        // All-shed traffic (instant deadlines) until an evaluation sees
        // it. Evaluations ride on service passes and snapshots, at most
        // one per SLO tick, so this loop spins on snapshots: no sleep.
        let give_up = Instant::now() + Duration::from_secs(30);
        let mut seed = 0;
        let snap = loop {
            let t = server
                .submit(JobSpec {
                    deadline: Some(Duration::ZERO),
                    ..JobSpec::new(Kernel::Sort, 1000, seed)
                })
                .unwrap();
            assert!(matches!(
                t.wait(),
                Outcome::Rejected(Rejected::DeadlineExpired { .. })
            ));
            seed += 1;
            let snap = server.metrics();
            if snap.slo_dumps >= 1 || Instant::now() > give_up {
                break snap;
            }
        };
        assert_eq!(snap.slo_dumps, 1, "SLO burn never fired");
        assert!(
            snap.slo.iter().all(|o| o.burning),
            "dump without burn state"
        );
        // The edge may have fired on the service thread: joining it
        // waits for that dump too.
        drop(server);
        let json = std::fs::read_to_string(&dump).expect("flight-recorder artifact written");
        mo_obs::chrome::validate(&json).expect("dump is valid Perfetto JSON");
        assert!(
            json.contains("serve_shed"),
            "dump carries the request spans"
        );
        let _ = std::fs::remove_file(&dump);
    }

    #[test]
    fn zero_deadline_jobs_are_shed_not_hung() {
        let server = small_server(64, 1);
        // Saturate both workers with real work, then submit zero-deadline
        // jobs that must expire in the queue.
        let busy: Vec<_> = (0..4)
            .map(|i| server.submit(JobSpec::new(Kernel::Matmul, 96, i)).unwrap())
            .collect();
        let doomed = server
            .submit(JobSpec {
                kernel: Kernel::Sort,
                n: 4096,
                seed: 0,
                deadline: Some(Duration::ZERO),
                trace_id: None,
            })
            .unwrap();
        match doomed.wait() {
            Outcome::Rejected(Rejected::DeadlineExpired { .. }) => {}
            Outcome::Done(_) => panic!("zero-deadline job must not run"),
            other => panic!("unexpected outcome {other:?}"),
        }
        for t in busy {
            assert!(t.wait().is_done());
        }
        let snap = server.drain();
        assert_eq!(snap.kernels[Kernel::Sort.index()].shed_deadline, 1);
    }
}
