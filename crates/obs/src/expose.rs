//! The one `/metrics` exposition endpoint: a minimal HTTP server over
//! `std::net` that calls a caller-supplied renderer per scrape.
//!
//! `mo-serve` binds it with a closure rendering the server's snapshot;
//! `mo-dist`'s router binds it with a closure pulling the merged fleet
//! view. Scrapes are rare (seconds apart) and the response is one
//! contiguous string, so one accept thread handling connections
//! serially is deliberate: no connection pool, no request pipelining,
//! no external dependency. The thread blocks in `accept` and never
//! wakes on a timer: dropping the handle raises a stop flag and then
//! connects to the listener itself, and the loop leaves on the accept
//! that connection completes.

use std::io::{self, Read, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// Bound on each socket read and write, and on reading one request
/// head as a whole: one slow or silent scraper must not wedge the loop.
const IO_TIMEOUT: Duration = Duration::from_secs(2);

/// Bytes of a request head that are kept; the rest is read and dropped
/// (only the request line is ever looked at).
const HEAD_CAP: usize = 16 * 1024;

/// A running metrics endpoint. Serves `GET /metrics` (and `GET /`) as
/// `text/plain; version=0.0.4`; any other path is a 404, any other
/// method a 405, and a renderer error a 500 carrying the error text.
/// Dropping the handle stops the endpoint and joins its thread (or,
/// if the wake-up connection cannot be made, detaches it, so a drop
/// waits at most for the scrape in progress).
#[derive(Debug)]
pub struct Exposition {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<thread::JoinHandle<()>>,
}

impl Exposition {
    /// Bind `addr` and serve `render()` per scrape from a thread named
    /// `thread_name`.
    pub fn bind(
        addr: impl ToSocketAddrs,
        thread_name: &str,
        render: impl Fn() -> io::Result<String> + Send + 'static,
    ) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let handle = thread::Builder::new()
            .name(thread_name.into())
            .spawn(move || accept_loop(&listener, &render, &flag))?;
        Ok(Self {
            addr,
            stop,
            handle: Some(handle),
        })
    }

    /// The bound address (useful with port `0`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }
}

impl Drop for Exposition {
    fn drop(&mut self) {
        // Pairs with the Acquire load in `accept_loop`: the accept this
        // connection completes sees the flag.
        self.stop.store(true, Ordering::Release);
        let mut wake = self.addr;
        if wake.ip().is_unspecified() {
            wake.set_ip(match wake.ip() {
                IpAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                IpAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        let woken = TcpStream::connect_timeout(&wake, IO_TIMEOUT).is_ok();
        if let Some(h) = self.handle.take().filter(|_| woken) {
            let _ = h.join();
        }
    }
}

fn accept_loop(listener: &TcpListener, render: &dyn Fn() -> io::Result<String>, stop: &AtomicBool) {
    loop {
        let accepted = listener.accept();
        if stop.load(Ordering::Acquire) {
            return;
        }
        if let Ok((stream, _)) = accepted {
            let _ = stream.set_read_timeout(Some(IO_TIMEOUT));
            let _ = stream.set_write_timeout(Some(IO_TIMEOUT));
            let _ = serve_one(stream, render);
        }
    }
}

fn serve_one(mut stream: TcpStream, render: &dyn Fn() -> io::Result<String>) -> io::Result<()> {
    // Read to the end of the request head (or EOF, or the deadline),
    // keeping its first `HEAD_CAP` bytes. An oversized head is still
    // read to its end, so the client is not reset with bytes unread,
    // and answered from what was kept. Bodies are ignored — a scrape
    // is a bare GET.
    const END: &[u8] = b"\r\n\r\n";
    let deadline = Instant::now() + IO_TIMEOUT;
    let mut head = Vec::with_capacity(512);
    let mut chunk = [0u8; 512];
    let mut matched = 0;
    while matched < END.len() && Instant::now() < deadline {
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            break;
        }
        for &b in &chunk[..n] {
            matched = match b {
                _ if b == END[matched] => matched + 1,
                b'\r' => 1,
                _ => 0,
            };
            if matched == END.len() {
                break;
            }
        }
        let keep = n.min(HEAD_CAP - head.len());
        head.extend_from_slice(&chunk[..keep]);
    }
    let head = String::from_utf8_lossy(&head);
    let mut parts = head.lines().next().unwrap_or("").split_whitespace();
    let (method, path) = (parts.next().unwrap_or(""), parts.next().unwrap_or(""));
    const PROM: &str = "text/plain; version=0.0.4; charset=utf-8";
    let (status, ctype, body) = if method != "GET" {
        ("405 Method Not Allowed", "text/plain", String::new())
    } else if path != "/metrics" && path != "/" {
        ("404 Not Found", "text/plain", String::new())
    } else {
        match render() {
            Ok(text) => ("200 OK", PROM, text),
            Err(e) => ("500 Internal Server Error", "text/plain", e.to_string()),
        }
    };
    write!(
        stream,
        "HTTP/1.1 {status}\r\nContent-Type: {ctype}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn endpoint(render: impl Fn() -> io::Result<String> + Send + 'static) -> Exposition {
        Exposition::bind("127.0.0.1:0", "test-metrics", render).expect("bind loopback")
    }

    /// Send `request` verbatim, return the whole response.
    fn exchange(addr: SocketAddr, request: &[u8]) -> String {
        let mut conn = TcpStream::connect(addr).expect("connect");
        conn.set_read_timeout(Some(Duration::from_secs(10)))
            .expect("set timeout");
        conn.write_all(request).expect("send request");
        let mut response = String::new();
        conn.read_to_string(&mut response).expect("read response");
        response
    }

    fn get(addr: SocketAddr, path: &str) -> String {
        exchange(
            addr,
            format!("GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").as_bytes(),
        )
    }

    #[test]
    fn serves_the_renderer_on_both_paths_and_types_every_refusal() {
        let ex = endpoint(|| Ok("up 1\n".to_string()));
        for path in ["/metrics", "/"] {
            let r = get(ex.addr(), path);
            assert!(r.starts_with("HTTP/1.1 200 OK\r\n"), "{r}");
            assert!(r.contains("Content-Type: text/plain; version=0.0.4"), "{r}");
            assert!(r.contains("Content-Length: 5\r\n"), "{r}");
            assert!(r.ends_with("\r\n\r\nup 1\n"), "{r}");
        }
        assert!(get(ex.addr(), "/nope").starts_with("HTTP/1.1 404 Not Found\r\n"));
        let post = exchange(ex.addr(), b"POST /metrics HTTP/1.1\r\nHost: x\r\n\r\n");
        assert!(
            post.starts_with("HTTP/1.1 405 Method Not Allowed\r\n"),
            "{post}"
        );
    }

    #[test]
    fn a_render_error_is_a_500_carrying_the_error() {
        let ex = endpoint(|| Err(io::Error::other("shard 3 went away")));
        let r = get(ex.addr(), "/metrics");
        assert!(
            r.starts_with("HTTP/1.1 500 Internal Server Error\r\n"),
            "{r}"
        );
        assert!(r.ends_with("\r\n\r\nshard 3 went away"), "{r}");
        // The renderer is not consulted for a refused request.
        assert!(get(ex.addr(), "/nope").starts_with("HTTP/1.1 404"));
    }

    #[test]
    fn an_oversized_request_head_is_still_answered() {
        let ex = endpoint(|| Ok("up 1\n".to_string()));
        let mut request = b"GET /metrics HTTP/1.1\r\nX-Pad: ".to_vec();
        request.resize(20 * 1024, b'a');
        request.extend_from_slice(b"\r\n\r\n");
        let r = exchange(ex.addr(), &request);
        assert!(r.starts_with("HTTP/1.1 200 OK\r\n"), "{r}");
        assert!(r.ends_with("up 1\n"), "{r}");
    }

    #[test]
    fn a_silent_client_delays_the_next_scrape_by_at_most_the_timeout() {
        let ex = endpoint(|| Ok("up 1\n".to_string()));
        // Connected first, so the accept loop takes it first — and it
        // never sends a byte.
        let silent = TcpStream::connect(ex.addr()).expect("connect");
        let t = Instant::now();
        let r = get(ex.addr(), "/metrics");
        let waited = t.elapsed();
        assert!(r.starts_with("HTTP/1.1 200 OK\r\n"), "{r}");
        assert!(
            waited < IO_TIMEOUT + Duration::from_secs(1),
            "scrape waited {waited:?} behind a silent client"
        );
        drop(silent);
    }

    /// The `voluntary_ctxt_switches` count of this process's thread
    /// named `name`, once that thread is asleep.
    #[cfg(target_os = "linux")]
    fn switches_when_asleep(name: &str) -> u64 {
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            assert!(Instant::now() < deadline, "no sleeping thread named {name}");
            for task in std::fs::read_dir("/proc/self/task").expect("task dir") {
                let dir = task.expect("task entry").path();
                let comm = std::fs::read_to_string(dir.join("comm")).unwrap_or_default();
                let status = std::fs::read_to_string(dir.join("status")).unwrap_or_default();
                let field = |key: &str| {
                    status
                        .lines()
                        .find_map(|l| l.strip_prefix(key))
                        .map(str::trim)
                        .unwrap_or_default()
                        .to_string()
                };
                if comm.trim_end() == name && field("State:").starts_with('S') {
                    return field("voluntary_ctxt_switches:").parse().expect("count");
                }
            }
            thread::yield_now();
        }
    }

    /// An idle endpoint sleeps in `accept` until a connection arrives:
    /// no timer wakes it. Linux-only, as it reads `/proc`.
    #[cfg(target_os = "linux")]
    #[test]
    fn an_idle_endpoint_makes_no_voluntary_switches() {
        let name = "idle-expose";
        let ex = Exposition::bind("127.0.0.1:0", name, || Ok(String::new())).expect("bind");
        // One scrape settles the thread past its start-up.
        assert!(get(ex.addr(), "/").starts_with("HTTP/1.1 200"));
        let before = switches_when_asleep(name);
        // An observation window, not a wait for an event.
        let end = Instant::now() + Duration::from_millis(500);
        while let Some(left) = end.checked_duration_since(Instant::now()) {
            thread::park_timeout(left);
        }
        let after = switches_when_asleep(name);
        assert_eq!(after - before, 0, "the idle accept thread woke up");
    }

    #[test]
    fn dropping_the_handle_joins_promptly() {
        // On the unspecified address the wake-up dials loopback.
        for bind in ["127.0.0.1:0", "0.0.0.0:0"] {
            let ex = Exposition::bind(bind, "test-metrics", || Ok(String::new())).expect("bind");
            let mut addr = ex.addr();
            addr.set_ip(Ipv4Addr::LOCALHOST.into());
            assert!(get(addr, "/").starts_with("HTTP/1.1 200"));
            let t = Instant::now();
            drop(ex);
            assert!(t.elapsed() < Duration::from_secs(1), "{:?}", t.elapsed());
            // The thread is gone and the listener with it.
            assert!(TcpStream::connect(addr).is_err());
        }
    }
}
