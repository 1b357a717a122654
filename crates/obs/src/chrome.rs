//! Chrome-trace (Perfetto / `chrome://tracing`) JSON export.
//!
//! Produces the JSON-object flavour of the trace-event format: a
//! `{"traceEvents": [...]}` document that both `chrome://tracing` and
//! `ui.perfetto.dev` open directly. Mapping:
//!
//! * task enter/exit pairs and park/unpark pairs become `"B"`/`"E"`
//!   duration slices on the emitting worker's track (`tid` = worker
//!   index; external threads share one `"ext"` track);
//! * every scheduler decision (fork serial/parallel/denied, CGC
//!   segment, steal success/attempt, injector pop) becomes a `"i"`
//!   instant event carrying its payload in `args`, so clicking a mark
//!   in Perfetto shows the space bound, anchor level, or `[lo, hi)`;
//! * cache-witness deltas become `"C"` counter events named after
//!   their hardware counter (`l1d_miss`, `llc_miss`, `instructions`),
//!   so measured cache traffic renders as counter tracks aligned with
//!   the task slices that incurred it.
//!
//! Timestamps are microseconds (the format's unit) with nanosecond
//! fraction preserved.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::event::{unpack_step_level, Event, EventKind, WORKER_EXTERNAL};

/// Track id used for external (non-resident) threads. Chosen high so
/// worker tracks sort first.
const EXT_TID: u64 = 9999;

fn tid(worker: u32) -> u64 {
    if worker == WORKER_EXTERNAL {
        EXT_TID
    } else {
        worker as u64
    }
}

/// The document envelope every exporter opens with and [`validate`]
/// insists on.
const ENVELOPE_HEAD: &str = "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";

/// The track an event renders on: chrome's `(pid, tid)` pair. The
/// single-process exporter uses `pid = 1` and one thread track per pool
/// worker; the fleet merger uses one process track per fleet worker.
pub(crate) type Track = (u32, u64);

/// Start one event object on `track` — the separator and everything
/// up to and including its `ts`; the caller appends the kind-specific
/// tail and the closing brace.
pub(crate) fn begin_event(out: &mut String, name: &str, ph: char, track: Track, ts_ns: u64) {
    let (pid, tid) = track;
    separate(out);
    let _ = write!(
        out,
        "{{\"name\":\"{name}\",\"ph\":\"{ph}\",\"pid\":{pid},\"tid\":{tid},\"ts\":{}.{:03}",
        ts_ns / 1000,
        ts_ns % 1000
    );
}

/// The comma between two event objects (the envelope's `[` is the only
/// place an object starts without one).
fn separate(out: &mut String) {
    if !out.ends_with('[') {
        out.push(',');
    }
}

/// The slice-track name a begin/end event pair renders under, and
/// whether the kind opens (`true`) or closes (`false`) it; `None` for
/// every kind that is not half of a `"B"`/`"E"` pair.
fn slice_of(kind: EventKind) -> Option<(&'static str, bool)> {
    Some(match kind {
        EventKind::TaskEnter => ("task", true),
        EventKind::TaskExit => ("task", false),
        EventKind::Park => ("parked", true),
        EventKind::Unpark => ("parked", false),
        EventKind::SuperstepBegin => ("superstep", true),
        EventKind::SuperstepEnd => ("superstep", false),
        EventKind::DistJobBegin => ("dist_job", true),
        EventKind::DistJobEnd => ("dist_job", false),
        _ => return None,
    })
}

/// The one event writer: render a time-ordered `(track, event)` stream
/// as a chrome-trace document that opens with the `metadata` objects,
/// calling `after` behind every event it wrote (the fleet merger hangs
/// its send→recv flow arrows there).
///
/// The stream may be structurally unbalanced: a drain races task
/// completion (a join returns the moment the latch is set, before the
/// worker records its `TaskExit`), parked workers have an open `Park`,
/// and a full ring can drop a begin while keeping its end. The writer
/// therefore balances slices the way Perfetto renders incomplete
/// traces: an end with no open begin on its track is skipped, and every
/// still-open begin is closed at the last timestamp in the stream — so
/// the emitted document always passes [`validate`].
pub(crate) fn render<'a>(
    metadata: &[String],
    events: impl ExactSizeIterator<Item = (Track, &'a Event)>,
    mut after: impl FnMut(&mut String, Track, &Event),
) -> String {
    let mut out = String::with_capacity(events.len() * 128 + 256);
    out.push_str(ENVELOPE_HEAD);
    for object in metadata {
        separate(&mut out);
        out.push_str(object);
    }
    let mut open: BTreeMap<(Track, &'static str), u64> = BTreeMap::new();
    let mut last_ts = 0u64;
    for (track, e) in events {
        last_ts = last_ts.max(e.ts_ns);
        let slice = slice_of(e.kind);
        if let Some((name, begins)) = slice {
            let depth = open.entry((track, name)).or_insert(0);
            if begins {
                *depth += 1;
            } else if *depth == 0 {
                continue; // orphan end: its begin was dropped at the ring
            } else {
                *depth -= 1;
            }
        }
        // A barrier wait is a complete ("X") event: a slice of the wait
        // duration that needs no B/E balancing. The event is stamped
        // when the wait *ends*, so the slice starts `dur` earlier.
        let (name, ph, ts_ns) = match (slice, e.kind) {
            (Some((name, begins)), _) => (name, if begins { 'B' } else { 'E' }, e.ts_ns),
            (None, EventKind::BarrierWait) => (e.kind.name(), 'X', e.ts_ns.saturating_sub(e.c)),
            (None, EventKind::CacheWitness) => (crate::witness::counter_name(e.a), 'C', e.ts_ns),
            (None, EventKind::StealSuccess) => ("steal", 'i', e.ts_ns),
            (None, kind) => (kind.name(), 'i', e.ts_ns),
        };
        begin_event(&mut out, name, ph, track, ts_ns);
        let _ = match e.kind {
            EventKind::TaskEnter => {
                let origin = match e.b {
                    1 => "injector",
                    2 => "steal",
                    _ => "own",
                };
                write!(
                    out,
                    ",\"args\":{{\"job\":{},\"origin\":\"{origin}\",\"victim\":{}}}}}",
                    e.a, e.c
                )
            }
            EventKind::SuperstepBegin => {
                write!(out, ",\"args\":{{\"job\":{},\"superstep\":{}}}}}", e.a, e.b)
            }
            EventKind::DistJobBegin => {
                write!(out, ",\"args\":{{\"job\":{},\"n\":{}}}}}", e.a, e.c)
            }
            EventKind::TaskExit
            | EventKind::Park
            | EventKind::Unpark
            | EventKind::SuperstepEnd
            | EventKind::DistJobEnd => write!(out, "}}"),
            EventKind::ForkSerial | EventKind::ForkParallel | EventKind::ForkDenied => write!(
                out,
                ",\"s\":\"t\",\"args\":{{\"space_words\":{},\"anchor_level\":{}}}}}",
                e.a,
                level_str(e.b)
            ),
            EventKind::CgcSegment => write!(
                out,
                ",\"s\":\"t\",\"args\":{{\"lo\":{},\"hi\":{},\"grain\":{}}}}}",
                e.a, e.b, e.c
            ),
            EventKind::StealSuccess => write!(
                out,
                ",\"s\":\"t\",\"args\":{{\"victim\":{},\"job\":{}}}}}",
                e.a, e.b
            ),
            EventKind::StealAttempt | EventKind::InjectorPop => write!(out, ",\"s\":\"t\"}}"),
            EventKind::CacheWitness => write!(out, ",\"args\":{{\"value\":{}}}}}", e.b),
            EventKind::ExchangeSend | EventKind::ExchangeRecv => {
                let (step, level) = unpack_step_level(e.b);
                write!(
                    out,
                    ",\"s\":\"t\",\"args\":{{\"peer\":{},\"superstep\":{step},\"level\":{level},\"words\":{}}}}}",
                    e.a, e.c
                )
            }
            EventKind::BarrierWait => {
                let (step, level) = unpack_step_level(e.b);
                write!(
                    out,
                    ",\"dur\":{}.{:03},\"args\":{{\"peer\":{},\"superstep\":{step},\"level\":{level}}}}}",
                    e.c / 1000,
                    e.c % 1000,
                    e.a
                )
            }
            // Serve phase boundaries are instants, not B/E slices: a
            // request hops threads (submitter -> worker), so a per-track
            // slice pairing cannot hold. The span module reconstructs
            // durations from the request id in `a`.
            EventKind::ServeArrive
            | EventKind::ServeAdmit
            | EventKind::ServeEnqueue
            | EventKind::ServeDequeue
            | EventKind::ServeBatchForm
            | EventKind::ServeExecute
            | EventKind::ServeRespond
            | EventKind::ServeShed => write!(
                out,
                ",\"s\":\"t\",\"args\":{{\"req\":{},\"b\":{},\"c\":{}}}}}",
                e.a, e.b, e.c
            ),
        };
        after(&mut out, track, e);
    }
    // Close the slices the drain caught mid-flight.
    for (&(track, name), &depth) in &open {
        for _ in 0..depth {
            begin_event(&mut out, name, 'E', track, last_ts);
            out.push('}');
        }
    }
    out.push_str("]}");
    out
}

/// Render a drained, time-ordered event stream as a chrome-trace JSON
/// document: process 1, one thread track per pool worker (see
/// [`render`] for how unbalanced streams are handled).
pub fn to_chrome_json(events: &[Event]) -> String {
    let tracked = events.iter().map(|e| ((1, tid(e.worker)), e));
    render(&[], tracked, |_, _, _| {})
}

/// `u64::MAX` encodes "no level fits"; render it as a JSON null.
fn level_str(level: u64) -> String {
    if level == u64::MAX {
        "null".to_string()
    } else {
        level.to_string()
    }
}

/// Structural sanity check used by tests and `obs_report --smoke`:
/// the document has the expected envelope, every `B` has a matching
/// `E` of the same name on the same track — the `(pid, tid)` pair, so
/// an open slice on one fleet worker's process track cannot be closed
/// by an orphan end on another's — and braces/brackets balance outside
/// strings.
pub fn validate(json: &str) -> Result<(), String> {
    if !json.starts_with(ENVELOPE_HEAD) || !json.ends_with("]}") {
        return Err("missing traceEvents envelope".into());
    }
    let mut depth_brace = 0i64;
    let mut depth_bracket = 0i64;
    let mut in_str = false;
    for ch in json.chars() {
        if in_str {
            // No escapes are ever emitted inside strings.
            if ch == '"' {
                in_str = false;
            }
            continue;
        }
        match ch {
            '"' => in_str = true,
            '{' => depth_brace += 1,
            '}' => depth_brace -= 1,
            '[' => depth_bracket += 1,
            ']' => depth_bracket -= 1,
            _ => {}
        }
        if depth_brace < 0 || depth_bracket < 0 {
            return Err("unbalanced nesting".into());
        }
    }
    if depth_brace != 0 || depth_bracket != 0 || in_str {
        return Err("unterminated document".into());
    }
    // Per-track, per-name B/E balance.
    let mut opens: BTreeMap<(&str, &str, &str), i64> = BTreeMap::new();
    for obj in json.split("{\"name\":").skip(1) {
        let name = obj.split('"').nth(1).unwrap_or("");
        let ph = obj
            .split("\"ph\":\"")
            .nth(1)
            .and_then(|s| s.chars().next())
            .unwrap_or('?');
        let field = |key: &str| {
            obj.split(key).nth(1).map_or("", |s| {
                let digits = s.bytes().take_while(u8::is_ascii_digit).count();
                &s[..digits]
            })
        };
        let slot = opens
            .entry((field("\"pid\":"), field("\"tid\":"), name))
            .or_insert(0);
        match ph {
            'B' => *slot += 1,
            'E' => {
                *slot -= 1;
                if *slot < 0 {
                    return Err("E without matching B on a track".into());
                }
            }
            _ => {}
        }
    }
    if opens.values().any(|&v| v != 0) {
        return Err("unclosed B slice on a track".into());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(ts: u64, kind: EventKind, worker: u32, a: u64, b: u64, c: u64) -> Event {
        Event {
            ts_ns: ts,
            kind,
            worker,
            a,
            b,
            c,
        }
    }

    #[test]
    fn export_validates_and_carries_payloads() {
        let evs = vec![
            ev(1000, EventKind::TaskEnter, 0, 7, 2, 1),
            ev(1500, EventKind::ForkParallel, 0, 4096, 1, 0),
            ev(1600, EventKind::CgcSegment, 0, 0, 512, 64),
            ev(1700, EventKind::StealSuccess, 1, 0, 7, 0),
            ev(
                1800,
                EventKind::CacheWitness,
                0,
                crate::witness::CTR_L1D_MISS,
                512,
                7,
            ),
            ev(2000, EventKind::TaskExit, 0, 7, 0, 0),
            ev(2100, EventKind::Park, 1, 0, 0, 0),
            ev(2200, EventKind::Unpark, 1, 0, 0, 0),
            ev(
                2300,
                EventKind::ForkDenied,
                WORKER_EXTERNAL,
                9000,
                u64::MAX,
                0,
            ),
        ];
        let json = to_chrome_json(&evs);
        validate(&json).unwrap();
        assert!(json.contains("\"space_words\":4096"));
        assert!(json.contains("\"anchor_level\":null"));
        assert!(json.contains("\"grain\":64"));
        assert!(json.contains("\"ts\":1.500"));
        assert!(json.contains("{\"name\":\"l1d_miss\",\"ph\":\"C\""));
        assert!(json.contains("\"args\":{\"value\":512}"));
    }

    #[test]
    fn exporter_balances_raced_drains() {
        // A drain races task completion: an end whose begin was dropped
        // at a full ring, a begin whose end has not been recorded yet,
        // and a worker still parked when the drain happened.
        let evs = vec![
            ev(10, EventKind::TaskExit, 2, 0, 0, 0),
            ev(20, EventKind::TaskEnter, 0, 1, 0, 0),
            ev(30, EventKind::Park, 1, 0, 0, 0),
        ];
        let json = to_chrome_json(&evs);
        validate(&json).unwrap();
        // The orphan end is skipped entirely; the two open slices are
        // closed at the last timestamp in the stream.
        assert!(!json.contains("\"tid\":2"));
        assert_eq!(json.matches("\"ph\":\"E\"").count(), 2);
        assert_eq!(json.matches("\"ts\":0.030").count(), 3);
    }

    #[test]
    fn dist_kinds_render_and_validate() {
        let sl = crate::event::pack_step_level(3, 1);
        let evs = vec![
            ev(100, EventKind::DistJobBegin, 0, 42, 1, 4096),
            ev(200, EventKind::SuperstepBegin, 0, 42, 3, 0),
            ev(300, EventKind::ExchangeSend, 0, 2, sl, 128),
            ev(900, EventKind::BarrierWait, 0, 2, sl, 500),
            ev(900, EventKind::ExchangeRecv, 0, 2, sl, 96),
            ev(1000, EventKind::SuperstepEnd, 0, 42, 3, 0),
            ev(1100, EventKind::DistJobEnd, 0, 42, 4, 0),
        ];
        let json = to_chrome_json(&evs);
        validate(&json).unwrap();
        assert!(json.contains("{\"name\":\"dist_job\",\"ph\":\"B\""));
        assert!(json.contains("\"args\":{\"job\":42,\"n\":4096}"));
        assert!(json.contains("{\"name\":\"superstep\",\"ph\":\"B\""));
        assert!(json.contains("\"args\":{\"job\":42,\"superstep\":3}"));
        // Exchange instants carry the unpacked superstep + level stamp.
        assert!(json.contains("\"args\":{\"peer\":2,\"superstep\":3,\"level\":1,\"words\":128}"));
        assert!(json.contains("\"args\":{\"peer\":2,\"superstep\":3,\"level\":1,\"words\":96}"));
        // The barrier wait is an "X" slice back-dated by its duration:
        // stamped at 900 ns with 500 ns of wait => starts at 400 ns.
        assert!(json.contains(
            "{\"name\":\"barrier_wait\",\"ph\":\"X\",\"pid\":1,\"tid\":0,\"ts\":0.400,\"dur\":0.500"
        ));
    }

    #[test]
    fn validator_rejects_unbalanced_slices() {
        let bad = "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\
                   {\"name\":\"task\",\"ph\":\"B\",\"pid\":1,\"tid\":0,\"ts\":0.000}]}";
        assert_eq!(
            validate(bad).unwrap_err(),
            "unclosed B slice on a track".to_string()
        );
        assert!(validate("{\"traceEvents\":[]}").is_err());
    }

    /// A fleet document has one process track per worker, every one at
    /// `tid` 0: an open superstep on worker 1 and an orphan end on
    /// worker 2 are two faults, not a balanced pair.
    #[test]
    fn validator_keys_the_balance_by_process_track() {
        let doc = |pid_end: u32| {
            format!(
                "{ENVELOPE_HEAD}\
                 {{\"name\":\"superstep\",\"ph\":\"B\",\"pid\":1,\"tid\":0,\"ts\":0.000}},\
                 {{\"name\":\"superstep\",\"ph\":\"E\",\"pid\":{pid_end},\"tid\":0,\"ts\":0.010}}]}}"
            )
        };
        validate(&doc(1)).unwrap();
        assert_eq!(
            validate(&doc(2)).unwrap_err(),
            "E without matching B on a track"
        );
    }

    /// An unbalanced random stream: kinds from every `EventKind`, on a
    /// few tracks, in time order.
    fn random_stream(rng: &mut crate::prom::tests::Rng, workers: &[u32]) -> Vec<Event> {
        let mut ts = 0;
        (0..rng.below(40))
            .map(|_| {
                ts += rng.below(500);
                let kind = EventKind::ALL[rng.below(EventKind::ALL.len() as u64) as usize];
                let worker = workers[rng.below(workers.len() as u64) as usize];
                let (a, b, c) = (rng.below(8), rng.below(1 << 12), rng.below(300));
                ev(ts, kind, worker, a, b, c)
            })
            .collect()
    }

    /// The two renderers never write a document the validator refuses,
    /// and the validator refuses every strict prefix of one and every
    /// copy with one `E` object removed.
    #[test]
    fn random_streams_render_valid_documents_and_damage_is_refused() {
        let mut rng = crate::prom::tests::Rng(0xc4_0e);
        for case in 0..300 {
            let json = if case % 2 == 0 {
                to_chrome_json(&random_stream(&mut rng, &[0, 1, 2, WORKER_EXTERNAL]))
            } else {
                let streams: Vec<_> = (0..1 + rng.below(3) as u32)
                    .map(|w| crate::fleet::WorkerStream {
                        worker: w,
                        offset_ns: rng.below(2_000) as i64 - 1_000,
                        rtt_ns: 0,
                        dropped: 0,
                        events: random_stream(&mut rng, &[WORKER_EXTERNAL]),
                    })
                    .collect();
                crate::fleet::to_chrome_json(&streams)
            };
            validate(&json).unwrap_or_else(|e| panic!("case {case}: {e}\n{json}"));
            for cut in 0..json.len() {
                assert!(validate(&json[..cut]).is_err(), "case {case}: prefix {cut}");
            }
            for (at, _) in json.match_indices("\"ph\":\"E\"") {
                let start = json[..at]
                    .rfind(",{\"name\":")
                    .expect("an E is never first");
                let end = at + json[at..].find('}').expect("object closes") + 1;
                let cut = format!("{}{}", &json[..start], &json[end..]);
                assert!(
                    validate(&cut).is_err(),
                    "case {case}: removing {} validates",
                    &json[start + 1..end]
                );
            }
        }
    }
}
