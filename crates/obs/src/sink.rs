//! The per-pool trace sink: one ring per resident worker plus an
//! external ring, a shared epoch, and the merged drain.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::event::{Event, EventKind, WORKER_EXTERNAL};
use crate::ring::Ring;

/// Default per-ring capacity in events (~2.5 MiB per worker).
const DEFAULT_CAPACITY: usize = 1 << 16;

/// A pool-lifetime event sink.
///
/// Resident worker `i` writes ring `i` lock-free (SPSC: the worker is
/// the only producer, [`drain`](TraceSink::drain) the only consumer).
/// Events from threads that are not resident workers — a server thread
/// or a test thread inside `SbPool::enter` — go to one
/// shared ring whose *producer side* is serialized by a mutex (such
/// threads fork rarely compared to the workers' task churn; their
/// events are off the steal/park hot paths).
///
/// Timestamps are nanoseconds since the sink's construction, so one
/// sink gives one coherent timeline across all rings.
pub struct TraceSink {
    epoch: Instant,
    rings: Vec<Ring>,
    external: Ring,
    ext_push: Mutex<()>,
    drain_lock: Mutex<()>,
    emitted: AtomicU64,
}

impl std::fmt::Debug for TraceSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceSink")
            .field("workers", &self.rings.len())
            .field("emitted", &self.emitted.load(Ordering::Relaxed))
            .field("dropped", &self.dropped())
            .finish()
    }
}

impl TraceSink {
    /// A sink for a pool of `workers` resident workers with the default
    /// per-ring capacity.
    pub fn new(workers: usize) -> Self {
        Self::with_capacity(workers, DEFAULT_CAPACITY)
    }

    /// A sink whose rings hold `capacity` events each (rounded up to a
    /// power of two).
    pub fn with_capacity(workers: usize, capacity: usize) -> Self {
        Self {
            epoch: Instant::now(),
            rings: (0..workers).map(|_| Ring::new(capacity)).collect(),
            external: Ring::new(capacity),
            ext_push: Mutex::new(()),
            drain_lock: Mutex::new(()),
            emitted: AtomicU64::new(0),
        }
    }

    /// Number of per-worker rings.
    pub fn workers(&self) -> usize {
        self.rings.len()
    }

    /// Nanoseconds since the sink's epoch.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Record one event from `worker` (`None`, or an index at or past
    /// [`workers`](Self::workers), routes to the external ring).
    pub fn emit(&self, worker: Option<usize>, kind: EventKind, a: u64, b: u64, c: u64) {
        let ts_ns = self.now_ns();
        self.emitted.fetch_add(1, Ordering::Relaxed);
        match worker {
            Some(i) if i < self.rings.len() => {
                self.rings[i].push(Event {
                    ts_ns,
                    kind,
                    worker: i as u32,
                    a,
                    b,
                    c,
                });
            }
            _ => {
                let _g = self.ext_push.lock().unwrap();
                self.external.push(Event {
                    ts_ns,
                    kind,
                    worker: WORKER_EXTERNAL,
                    a,
                    b,
                    c,
                });
            }
        }
    }

    /// Total events offered to the sink (including later-dropped ones).
    pub fn emitted(&self) -> u64 {
        self.emitted.load(Ordering::Relaxed)
    }

    /// Events dropped across all rings because a ring was full.
    pub fn dropped(&self) -> u64 {
        self.rings.iter().map(Ring::dropped).sum::<u64>() + self.external.dropped()
    }

    /// Events dropped per ring: one entry per worker in index order,
    /// plus a trailing entry for the external ring — the breakdown
    /// behind [`dropped`](Self::dropped), so silent event loss can be
    /// pinned to the worker whose ring overflowed.
    pub fn dropped_per_worker(&self) -> Vec<u64> {
        let mut out: Vec<u64> = self.rings.iter().map(Ring::dropped).collect();
        out.push(self.external.dropped());
        out
    }

    /// Empty every ring and merge the streams into one globally
    /// time-ordered timeline. Safe to call while producers are still
    /// emitting (their new events land in the next drain); for a
    /// complete trace, drain at quiescence (after `enter` returns).
    pub fn drain(&self) -> Vec<Event> {
        let _g = self.drain_lock.lock().unwrap();
        let mut out = Vec::new();
        for r in &self.rings {
            while let Some(e) = r.pop() {
                out.push(e);
            }
        }
        while let Some(e) = self.external.pop() {
            out.push(e);
        }
        // Each ring is time-ordered already; a stable sort by timestamp
        // merges them without reordering same-tick events within a ring.
        out.sort_by_key(|e| e.ts_ns);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drain_merges_workers_in_time_order() {
        let s = TraceSink::new(2);
        s.emit(Some(0), EventKind::Park, 0, 0, 0);
        s.emit(Some(1), EventKind::Unpark, 0, 0, 0);
        s.emit(None, EventKind::ForkSerial, 10, 0, 100);
        s.emit(Some(7), EventKind::Park, 0, 0, 0); // out-of-range → external
        let evs = s.drain();
        assert_eq!(evs.len(), 4);
        assert!(evs.windows(2).all(|w| w[0].ts_ns <= w[1].ts_ns));
        assert_eq!(
            evs.iter().filter(|e| e.worker == WORKER_EXTERNAL).count(),
            2
        );
        assert_eq!(s.emitted(), 4);
        assert_eq!(s.dropped(), 0);
        assert!(s.drain().is_empty());
    }

    #[test]
    fn dropped_per_worker_pins_overflow() {
        let s = TraceSink::with_capacity(2, 2);
        for _ in 0..10 {
            s.emit(Some(0), EventKind::Park, 0, 0, 0);
        }
        s.emit(Some(1), EventKind::Unpark, 0, 0, 0);
        let per = s.dropped_per_worker();
        assert_eq!(per.len(), 3); // 2 workers + external
        assert!(per[0] >= 1, "overflow not pinned to worker 0: {per:?}");
        assert_eq!(per[1], 0);
        assert_eq!(per[2], 0);
        assert_eq!(per.iter().sum::<u64>(), s.dropped());
    }
}
