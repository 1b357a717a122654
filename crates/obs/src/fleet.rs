//! Fleet trace merge: clock-aligned, multi-process Perfetto export for
//! the distributed D-BSP tier.
//!
//! Each worker process owns a [`TraceSink`](crate::TraceSink) whose
//! timestamps are relative to its *own* epoch. The router estimates a
//! per-worker clock offset with an NTP-style probe exchange at
//! bootstrap (offset = worker clock minus the router's reference
//! clock, picked from the minimum-RTT sample) and ships each worker's
//! drained event stream home. This module turns those per-worker
//! streams into one analyzable timeline:
//!
//! * [`align`] applies the offset correction and merges the streams
//!   into one globally ordered `(worker, event)` sequence;
//! * [`to_chrome_json`] renders the merged timeline as a chrome-trace
//!   document with **one process track per worker** (`pid` = worker
//!   index), superstep and dist-job `B`/`E` slices, barrier waits as
//!   `X` slices, and **flow arrows** from every `exchange_send` to its
//!   matching `exchange_recv` — the flow id is derived from the
//!   `(job, superstep, src, dst)` stamp both sides carry, so the
//!   arrows are exact, not heuristic;
//! * [`summarize`] aggregates per-round lateness (slowest pair per
//!   superstep), per-worker barrier-wait histograms, and per-level
//!   send/recv word totals for the fleet Prometheus view and the
//!   `mo_dist --trace` report.
//!
//! The emitted document passes [`chrome::validate`](crate::chrome::validate)
//! by construction: events are written by the single-process exporter's
//! own writer, so orphan ends and open begins balance in one place.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::chrome;
use crate::event::{unpack_step_level, Event, EventKind};
use crate::hist::Log2Hist;

/// One worker's shipped trace: its drained events plus the clock
/// calibration the router measured for it.
#[derive(Debug, Clone)]
pub struct WorkerStream {
    /// Worker (shard) index — becomes the process track id.
    pub worker: u32,
    /// Estimated worker-clock minus reference-clock offset in
    /// nanoseconds (subtracted from every timestamp to align).
    pub offset_ns: i64,
    /// Round-trip time of the winning calibration probe (the offset's
    /// uncertainty is at most half of this).
    pub rtt_ns: u64,
    /// Events this worker's sink dropped at full rings.
    pub dropped: u64,
    /// The drained events, in ring (time) order on the worker's clock.
    pub events: Vec<Event>,
}

impl WorkerStream {
    /// `ts` corrected onto the reference clock (saturating at zero).
    fn correct(&self, ts_ns: u64) -> u64 {
        (ts_ns as i64 - self.offset_ns).max(0) as u64
    }
}

/// Merge every stream onto the reference clock: `(worker, event)` pairs
/// with corrected timestamps, globally time-ordered (stable within a
/// worker, so per-track order is preserved).
pub fn align(streams: &[WorkerStream]) -> Vec<(u32, Event)> {
    let mut out: Vec<(u32, Event)> =
        Vec::with_capacity(streams.iter().map(|s| s.events.len()).sum());
    for s in streams {
        for e in &s.events {
            let mut e = *e;
            e.ts_ns = s.correct(e.ts_ns);
            out.push((s.worker, e));
        }
    }
    out.sort_by_key(|(_, e)| e.ts_ns);
    out
}

/// The flow id binding one `exchange_send` to its `exchange_recv`:
/// both sides derive it from the `(job, superstep, src, dst)` stamp
/// (mixed so ids spread even for small indices).
fn flow_id(job: u64, superstep: u32, src: u32, dst: u32) -> u64 {
    let mut x = job
        .wrapping_mul(0x9e3779b97f4a7c15)
        .wrapping_add(((superstep as u64) << 24) | ((src as u64) << 12) | dst as u64);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    x ^ (x >> 31)
}

/// Render the merged fleet timeline as a chrome-trace JSON document
/// with one process track per worker and send→recv flow arrows:
/// [`align`], process-name metadata, then the single-process exporter's
/// event writer at `pid = worker` (so slices balance the same way),
/// with the flow arrows hung behind every exchange instant.
pub fn to_chrome_json(streams: &[WorkerStream]) -> String {
    let merged = align(streams);
    // Process-name metadata: one track per worker, sorted by index.
    let mut workers: Vec<u32> = streams.iter().map(|s| s.worker).collect();
    workers.sort_unstable();
    let tracks: Vec<String> = workers
        .iter()
        .map(|w| format!("{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{w},\"args\":{{\"name\":\"worker {w}\"}}}}"))
        .collect();
    // Per-worker current job id (DistJobBegin..DistJobEnd bracket) so
    // exchange flows are disambiguated across jobs.
    let mut cur_job: BTreeMap<u32, u64> = BTreeMap::new();
    let tracked = merged.iter().map(|(w, e)| ((*w, 0), e));
    chrome::render(&tracks, tracked, |out, track, e| {
        let w = track.0;
        let (src, dst, ph) = match e.kind {
            EventKind::DistJobBegin => {
                cur_job.insert(w, e.a);
                return;
            }
            EventKind::ExchangeSend => (w, e.a as u32, 's'),
            EventKind::ExchangeRecv => (e.a as u32, w, 'f'),
            _ => return,
        };
        let (step, _) = unpack_step_level(e.b);
        let id = flow_id(cur_job.get(&w).copied().unwrap_or(0), step, src, dst);
        // The flow event binds to the enclosing superstep slice.
        chrome::begin_event(out, "exchange", ph, track, e.ts_ns);
        let _ = write!(out, ",\"cat\":\"dbsp\",\"id\":\"{id:#x}\"");
        out.push_str(if ph == 'f' { ",\"bp\":\"e\"}" } else { "}" });
    })
}

/// Per-round lateness aggregates and word totals over a merged fleet
/// trace — the data behind the straggler report and the fleet
/// Prometheus barrier-wait families.
#[derive(Debug, Clone, Default)]
pub struct FleetSummary {
    /// Total barrier-wait nanoseconds per worker index.
    pub barrier_wait_ns: BTreeMap<u32, u64>,
    /// Per-worker log₂ histogram of individual round waits, ns (its
    /// `sum` is the worker's `barrier_wait_ns`).
    pub barrier_hist: BTreeMap<u32, Log2Hist>,
    /// Slowest pair per `(job, superstep)`: `(wait_ns, waiter, peer)` —
    /// the round's straggler attribution.
    pub slowest_pair: BTreeMap<(u64, u32), (u64, u32, u32)>,
    /// Words framed per `(worker, level)` (sender side).
    pub send_words: BTreeMap<(u32, u8), u64>,
    /// Words delivered per `(worker, level)` (receiver side).
    pub recv_words: BTreeMap<(u32, u8), u64>,
    /// Ring-dropped events per worker (from the shipped streams).
    pub dropped: BTreeMap<u32, u64>,
    /// Supersteps begun per worker.
    pub supersteps: BTreeMap<u32, u64>,
    /// Completed frame exchanges per worker. Scoped supersteps exchange
    /// only with the workers sharing a group, so this is well below
    /// `supersteps × (W − 1)` and a superstep may have none at all.
    pub exchange_rounds: BTreeMap<u32, u64>,
}

/// Aggregate the shipped streams (no clock correction needed — only
/// durations and counts are read).
pub fn summarize(streams: &[WorkerStream]) -> FleetSummary {
    let mut s = FleetSummary::default();
    for st in streams {
        let w = st.worker;
        s.dropped.insert(w, st.dropped);
        s.barrier_wait_ns.entry(w).or_insert(0);
        s.barrier_hist.entry(w).or_default();
        s.supersteps.entry(w).or_insert(0);
        s.exchange_rounds.entry(w).or_insert(0);
        let mut job = 0u64;
        for e in &st.events {
            match e.kind {
                EventKind::DistJobBegin => job = e.a,
                EventKind::SuperstepBegin => *s.supersteps.entry(w).or_insert(0) += 1,
                EventKind::BarrierWait => {
                    let (step, _) = unpack_step_level(e.b);
                    *s.barrier_wait_ns.entry(w).or_insert(0) += e.c;
                    s.barrier_hist.entry(w).or_default().push(e.c);
                    let slot = s
                        .slowest_pair
                        .entry((job, step))
                        .or_insert((0, w, e.a as u32));
                    if e.c >= slot.0 {
                        *slot = (e.c, w, e.a as u32);
                    }
                }
                EventKind::ExchangeSend => {
                    let (_, level) = unpack_step_level(e.b);
                    *s.send_words.entry((w, level)).or_insert(0) += e.c;
                }
                EventKind::ExchangeRecv => {
                    let (_, level) = unpack_step_level(e.b);
                    *s.recv_words.entry((w, level)).or_insert(0) += e.c;
                    *s.exchange_rounds.entry(w).or_insert(0) += 1;
                }
                _ => {}
            }
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::pack_step_level;

    fn ev(ts: u64, kind: EventKind, a: u64, b: u64, c: u64) -> Event {
        Event {
            ts_ns: ts,
            kind,
            worker: crate::event::WORKER_EXTERNAL,
            a,
            b,
            c,
        }
    }

    /// A two-worker job: one superstep, one exchange each way.
    fn two_worker_streams() -> Vec<WorkerStream> {
        let sl = pack_step_level(0, 0);
        let w0 = vec![
            ev(100, EventKind::DistJobBegin, 7, 0, 64),
            ev(110, EventKind::SuperstepBegin, 7, 0, 0),
            ev(120, EventKind::ExchangeSend, 1, sl, 5),
            ev(150, EventKind::BarrierWait, 1, sl, 25),
            ev(150, EventKind::ExchangeRecv, 1, sl, 3),
            ev(160, EventKind::SuperstepEnd, 7, 0, 0),
            ev(170, EventKind::DistJobEnd, 7, 1, 0),
        ];
        // Worker 1's clock runs 1 000 ns ahead of the reference.
        let w1 = vec![
            ev(1100, EventKind::DistJobBegin, 7, 0, 64),
            ev(1110, EventKind::SuperstepBegin, 7, 0, 0),
            ev(1115, EventKind::BarrierWait, 0, sl, 10),
            ev(1115, EventKind::ExchangeRecv, 0, sl, 5),
            ev(1125, EventKind::ExchangeSend, 0, sl, 3),
            ev(1160, EventKind::SuperstepEnd, 7, 0, 0),
            ev(1170, EventKind::DistJobEnd, 7, 1, 0),
        ];
        vec![
            WorkerStream {
                worker: 0,
                offset_ns: 0,
                rtt_ns: 10,
                dropped: 0,
                events: w0,
            },
            WorkerStream {
                worker: 1,
                offset_ns: 1000,
                rtt_ns: 12,
                dropped: 0,
                events: w1,
            },
        ]
    }

    #[test]
    fn align_corrects_offsets_and_keeps_per_track_order() {
        let streams = two_worker_streams();
        let merged = align(&streams);
        assert_eq!(merged.len(), 14);
        // Globally ordered.
        assert!(merged.windows(2).all(|p| p[0].1.ts_ns <= p[1].1.ts_ns));
        // Worker 1's events moved back onto the reference clock.
        let w1_first = merged.iter().find(|(w, _)| *w == 1).unwrap();
        assert_eq!(w1_first.1.ts_ns, 100);
        // Per-track order preserved.
        for w in [0u32, 1] {
            let track: Vec<u64> = merged
                .iter()
                .filter(|(x, _)| *x == w)
                .map(|(_, e)| e.ts_ns)
                .collect();
            assert!(
                track.windows(2).all(|p| p[0] <= p[1]),
                "track {w} reordered"
            );
        }
    }

    #[test]
    fn fleet_chrome_export_validates_with_matched_flows() {
        let streams = two_worker_streams();
        let json = to_chrome_json(&streams);
        crate::chrome::validate(&json).expect("fleet trace must validate");
        // One process track per worker.
        for w in 0..2 {
            assert!(json.contains(&format!(
                "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{w}"
            )));
        }
        // Every flow start has exactly one matching finish (same id).
        let ids = |ph: char| -> Vec<&str> {
            json.split(&format!("\"ph\":\"{ph}\",\"pid\":"))
                .skip(1)
                .filter_map(|s| s.split("\"id\":\"").nth(1))
                .filter_map(|s| s.split('"').next())
                .collect()
        };
        let (mut starts, mut ends) = (ids('s'), ids('f'));
        starts.sort_unstable();
        ends.sort_unstable();
        assert_eq!(starts.len(), 2);
        assert_eq!(starts, ends, "send flows must match recv flows");
        // Distinct directions get distinct flow ids.
        assert_ne!(starts[0], starts[1]);
    }

    #[test]
    fn fleet_summary_attributes_stragglers() {
        let streams = two_worker_streams();
        let s = summarize(&streams);
        assert_eq!(s.barrier_wait_ns[&0], 25);
        assert_eq!(s.barrier_wait_ns[&1], 10);
        // Worker 0 waiting on worker 1 was the round's slowest pair.
        assert_eq!(s.slowest_pair[&(7, 0)], (25, 0, 1));
        assert_eq!(s.send_words[&(0, 0)], 5);
        assert_eq!(s.recv_words[&(1, 0)], 5);
        assert_eq!(s.send_words[&(1, 0)], 3);
        assert_eq!(s.recv_words[&(0, 0)], 3);
        // Fleet-wide conservation: send totals equal recv totals.
        let sent: u64 = s.send_words.values().sum();
        let recv: u64 = s.recv_words.values().sum();
        assert_eq!(sent, recv);
    }

    /// A cluster-local superstep has a begin/end pair and nothing in
    /// between: no exchange, no wait. Export and summary must take it
    /// as an ordinary superstep, not as a hole in the trace.
    #[test]
    fn supersteps_without_exchange_rounds_are_tolerated() {
        let mut streams = two_worker_streams();
        for (st, base) in streams.iter_mut().zip([200u64, 1200]) {
            let end = st.events.pop().expect("job end");
            st.events.extend([
                ev(base, EventKind::SuperstepBegin, 7, 1, 0),
                ev(base + 5, EventKind::SuperstepEnd, 7, 1, 0),
                ev(base + 10, end.kind, end.a, 2, end.c),
            ]);
        }
        let json = to_chrome_json(&streams);
        crate::chrome::validate(&json).expect("silent supersteps still validate");
        assert_eq!(json.matches("\"superstep\":1}").count(), 2);
        let s = summarize(&streams);
        assert_eq!(s.supersteps[&0], 2);
        assert_eq!(s.exchange_rounds[&0], 1);
        assert_eq!(s.exchange_rounds[&1], 1);
        // Only the superstep that exchanged has a straggler entry.
        assert_eq!(s.slowest_pair.len(), 1);
        assert!(s.slowest_pair.contains_key(&(7, 0)));
    }

    #[test]
    fn orphan_ends_and_open_begins_balance() {
        let streams = vec![WorkerStream {
            worker: 3,
            offset_ns: -50,
            rtt_ns: 1,
            dropped: 2,
            events: vec![
                ev(10, EventKind::SuperstepEnd, 1, 0, 0), // orphan
                ev(20, EventKind::DistJobBegin, 1, 0, 8),
                ev(30, EventKind::SuperstepBegin, 1, 0, 0), // left open
            ],
        }];
        let json = to_chrome_json(&streams);
        crate::chrome::validate(&json).expect("balanced despite raced drain");
    }
}
