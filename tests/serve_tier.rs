//! Tier-1 pin of the serving path and of the measurement surface under
//! it: one job per registry kernel through `Server`, then a real TCP
//! scrape of `serve_metrics` — so `cargo test` at the root exercises
//! `mo-serve`, the one log₂ histogram, the Prometheus family writer and
//! the one exposition server in `mo-obs`, and not only `--workspace`.
//! Tracing is a run-time switch of that same build: attaching a sink to
//! a running server turns request spans on without moving a result.

use std::io::{Read, Write};
use std::sync::Arc;
use std::time::Duration;

use oblivious::algs::real::registry::run_kernel;
use oblivious::mo::rt::SbPool;
use oblivious::obs::prom::{check_histograms, parse, Sample};
use oblivious::obs::{span, TraceSink};
use oblivious::serve::{HwHierarchy, JobSpec, Kernel, Outcome, ServeConfig, Server};

fn scrape(addr: std::net::SocketAddr) -> Vec<Sample> {
    let mut conn = std::net::TcpStream::connect(addr).expect("connect to /metrics");
    write!(conn, "GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n").expect("send scrape");
    let mut response = String::new();
    conn.read_to_string(&mut response).expect("read scrape");
    let (head, body) = response.split_once("\r\n\r\n").expect("HTTP head");
    assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
    assert!(head.contains("text/plain; version=0.0.4"), "{head}");
    parse(body).expect("the exposition parses")
}

#[test]
fn every_kernel_is_served_and_the_scrape_accounts_for_it() {
    let server = Server::start(
        HwHierarchy::flat(4, 2048, 1 << 16),
        ServeConfig {
            workers: 2,
            default_deadline: Duration::from_secs(30),
            ..ServeConfig::default()
        },
    );
    let endpoint = server.serve_metrics("127.0.0.1:0").expect("bind /metrics");
    let tickets: Vec<_> = Kernel::ALL
        .iter()
        // The largest job that fits a quarter of the 64 KiW L2.
        .map(|&k| (k, JobSpec::new(k, k.size_within(1 << 14), 7)))
        .map(|(k, spec)| (k, server.submit(spec).expect("admitted")))
        .collect();
    for (k, ticket) in tickets {
        assert!(ticket.wait().is_done(), "{k} was not served");
    }

    let samples = scrape(endpoint.addr());
    assert_eq!(check_histograms(&samples), Ok(Kernel::ALL.len()));
    // The one sample of `family` carrying every label in `labels`.
    let value = |family: &str, labels: &[(&str, &str)]| -> f64 {
        let wanted =
            |s: &&Sample| s.name == family && labels.iter().all(|(key, v)| s.label(key) == Some(v));
        let found: Vec<f64> = samples.iter().filter(wanted).map(|s| s.value).collect();
        assert_eq!(found.len(), 1, "{family}{labels:?}");
        found[0]
    };
    let snap = server.metrics();
    for row in &snap.kernels {
        let k = [("kernel", row.kernel.name())];
        assert_eq!(row.completed, 1, "{k:?}");
        assert_eq!(row.latency.count, row.completed, "{k:?}");
        assert_eq!(value("moserve_jobs_completed_total", &k), 1.0);
        assert_eq!(value("moserve_latency_seconds_count", &k), 1.0);
        // Conservation, on the snapshot and on the wire: every accepted
        // job is completed, shed past its deadline, failed with its
        // batch's kernel, or still in flight.
        assert_eq!(
            row.submitted,
            row.completed + row.shed_deadline + row.failed + row.in_flight(),
            "{k:?}"
        );
        assert_eq!(
            value("moserve_jobs_submitted_total", &k),
            value("moserve_jobs_completed_total", &k)
                + value("moserve_jobs_shed_total", &[k[0], ("reason", "deadline")])
                + value("moserve_jobs_failed_total", &k)
                + value("moserve_jobs_in_flight", &k),
            "{k:?}"
        );
        assert_eq!(value("moserve_jobs_failed_total", &k), 0.0);
    }
    assert_eq!(snap.shed_total(), 0);
    drop(endpoint);
    assert_eq!(server.drain().completed_total(), Kernel::ALL.len() as u64);
}

#[test]
fn attaching_a_sink_turns_tracing_on_without_moving_a_result() {
    let hier = HwHierarchy::flat(4, 2048, 1 << 16);
    let server = Server::start(
        hier.clone(),
        ServeConfig {
            workers: 2,
            default_deadline: Duration::from_secs(30),
            ..ServeConfig::default()
        },
    );
    // One job per registry kernel; the reference is the same job on a
    // width-1 pool, which never forks in parallel.
    let serial = SbPool::new(HwHierarchy::flat(1, 2048, 1 << 16));
    let serve_all = |seed: u64| {
        for k in Kernel::ALL {
            let n = k.size_within(1 << 14);
            let ticket = server.submit(JobSpec::new(k, n, seed)).expect("admitted");
            let Outcome::Done(d) = ticket.wait() else {
                panic!("{k} seed {seed} was not served");
            };
            let want = run_kernel(&serial, k, n, seed);
            assert_eq!(d.checksum, want, "{k} seed {seed}");
        }
    };
    let jobs = Kernel::ALL.len() as u64;
    serve_all(1);
    let sink = Arc::new(TraceSink::new(hier.cores()));
    assert!(server.attach_sink(Arc::clone(&sink)));
    serve_all(2);
    drop(server);

    assert_eq!(sink.dropped(), 0, "ring drops void the span count");
    let set = span::assemble(&sink.drain());
    // Exactly the post-attach requests, ids jobs + 1 ..= 2 jobs of
    // shard 0, each opened, completed and closed once.
    assert!(set.conserved(), "{set:?}");
    assert_eq!((set.opened, set.closed), (jobs, jobs));
    let ids: Vec<u64> = set.spans.iter().map(|s| s.req).collect();
    assert_eq!(ids, (jobs + 1..=2 * jobs).collect::<Vec<_>>());
    assert!(set.spans.iter().all(|s| s.complete() && s.closes == 1));
}
