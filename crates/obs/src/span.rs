//! Request-span assembly: turn drained serve events back into
//! per-request phase timelines.
//!
//! mo-serve emits one event per phase boundary of every request —
//! `arrive → admit/shed → enqueue → dequeue → batch-form → execute →
//! respond` — keyed by a fleet-unique request id (see the serve kinds
//! on [`EventKind`]). The boundaries deliberately cross threads (the
//! submitter stamps arrive/admit/enqueue, a serve worker stamps the
//! rest), so spans cannot be chrome `B`/`E` slices; instead this module
//! reassembles the flat event stream into [`RequestSpan`]s and
//! aggregates them into per-kernel, per-phase log₂ latency histograms
//! — the data behind `obs_report --serve` and `serve_load --phases`.
//!
//! Phase attribution maps each boundary delta onto the serving-path
//! cost terms (DESIGN §5d):
//!
//! * **admission** (`arrive → enqueue`): SB admission control — the
//!   footprint/anchor check plus the secure-mode certificate gate;
//! * **queue** (`enqueue → dequeue`): bounded-queue waiting time, the
//!   backpressure term;
//! * **batch** (`dequeue → execute`): CGC⇒SB batch formation — how
//!   long the request waited for same-kernel peers;
//! * **execute** (`execute → respond`): SB pool service time, the term
//!   the paper's analytic batch cost bounds.

use std::collections::BTreeMap;

use crate::event::{Event, EventKind};
use crate::hist::Log2Hist;

/// Typed shed reason carried in `c`/`b` of [`EventKind::ServeShed`].
/// The codes mirror mo-serve's `Rejected` variants; they live here so
/// the span assembler and the server agree without a dependency cycle.
pub const SHED_QUEUE_FULL: u64 = 0;
/// Deadline expired while queued.
pub const SHED_DEADLINE: u64 = 1;
/// Footprint exceeds the serving cache budget.
pub const SHED_TOO_LARGE: u64 = 2;
/// Secure mode refused an uncertified kernel.
pub const SHED_NOT_CERTIFIED: u64 = 3;
/// Server was draining.
pub const SHED_SHUTTING_DOWN: u64 = 4;
/// The kernel panicked while running the request's batch.
pub const SHED_KERNEL_PANIC: u64 = 5;

/// Stable name for a shed reason code.
pub fn shed_reason_name(code: u64) -> &'static str {
    match code {
        SHED_QUEUE_FULL => "queue_full",
        SHED_DEADLINE => "deadline",
        SHED_TOO_LARGE => "too_large",
        SHED_NOT_CERTIFIED => "not_certified",
        SHED_SHUTTING_DOWN => "shutting_down",
        SHED_KERNEL_PANIC => "kernel_panic",
        _ => "unknown",
    }
}

/// The four phases a completed request decomposes into.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Phase {
    /// `arrive → enqueue`: admission control (footprint + certificate).
    Admission = 0,
    /// `enqueue → dequeue`: time on the bounded queue.
    Queue = 1,
    /// `dequeue → execute`: same-kernel batch formation.
    Batch = 2,
    /// `execute → respond`: SB pool service time.
    Execute = 3,
}

/// Number of [`Phase`]s.
pub const NPHASES: usize = 4;

impl Phase {
    /// Every phase, in request order.
    pub const ALL: [Phase; NPHASES] =
        [Phase::Admission, Phase::Queue, Phase::Batch, Phase::Execute];

    /// Stable lower-case name (table rows, Prometheus label values).
    pub fn name(self) -> &'static str {
        match self {
            Phase::Admission => "admission",
            Phase::Queue => "queue",
            Phase::Batch => "batch",
            Phase::Execute => "execute",
        }
    }
}

/// One request's reassembled span: the boundary timestamps its serve
/// events carried, or `None` where the boundary was never recorded
/// (shed early, or the event was dropped at a full ring).
#[derive(Debug, Clone, Copy, Default)]
pub struct RequestSpan {
    /// Fleet-unique request id.
    pub req: u64,
    /// Kernel code from the arrive event.
    pub kernel: u64,
    /// Problem size from the arrive event.
    pub n: u64,
    /// `ServeArrive` timestamp.
    pub arrive_ns: Option<u64>,
    /// `ServeAdmit` timestamp.
    pub admit_ns: Option<u64>,
    /// `ServeEnqueue` timestamp.
    pub enqueue_ns: Option<u64>,
    /// `ServeDequeue` timestamp.
    pub dequeue_ns: Option<u64>,
    /// `ServeBatchForm` timestamp.
    pub batch_ns: Option<u64>,
    /// `ServeExecute` timestamp.
    pub execute_ns: Option<u64>,
    /// `ServeRespond` timestamp.
    pub respond_ns: Option<u64>,
    /// Shed reason code and timestamp, if the request was shed.
    pub shed: Option<(u64, u64)>,
    /// Batch size from the respond event.
    pub batch_size: u64,
    /// How many closing events (`ServeRespond` or `ServeShed`) hit this
    /// request id. The lifecycle invariant is exactly 1.
    pub closes: u32,
}

impl RequestSpan {
    /// `true` when every phase boundary of the completed path is
    /// present (the span can be fully attributed).
    pub fn complete(&self) -> bool {
        self.arrive_ns.is_some()
            && self.enqueue_ns.is_some()
            && self.dequeue_ns.is_some()
            && self.execute_ns.is_some()
            && self.respond_ns.is_some()
    }

    /// Duration of one phase, when both its boundaries were recorded.
    pub fn phase_ns(&self, phase: Phase) -> Option<u64> {
        let (start, end) = match phase {
            Phase::Admission => (self.arrive_ns, self.enqueue_ns),
            Phase::Queue => (self.enqueue_ns, self.dequeue_ns),
            Phase::Batch => (self.dequeue_ns, self.execute_ns),
            Phase::Execute => (self.execute_ns, self.respond_ns),
        };
        Some(end?.saturating_sub(start?))
    }

    /// End-to-end latency (`arrive → respond`).
    pub fn total_ns(&self) -> Option<u64> {
        Some(self.respond_ns?.saturating_sub(self.arrive_ns?))
    }
}

/// Everything [`assemble`] recovered from one event stream.
#[derive(Debug, Clone, Default)]
pub struct SpanSet {
    /// One span per request id seen, in first-seen order.
    pub spans: Vec<RequestSpan>,
    /// Spans opened (`ServeArrive` events).
    pub opened: u64,
    /// Spans closed (`ServeRespond` + `ServeShed` events).
    pub closed: u64,
    /// Closing events whose request id never had an arrive (their
    /// begin was dropped at a full ring).
    pub orphan_closes: u64,
}

impl SpanSet {
    /// Span conservation: every opened span closed exactly once and no
    /// close arrived without its open. Holds whenever the rings did not
    /// drop and the server has drained.
    pub fn conserved(&self) -> bool {
        self.opened == self.closed
            && self.orphan_closes == 0
            && self.spans.iter().all(|s| s.closes == 1)
    }
}

/// Reassemble the serve spans out of a drained event stream (events of
/// other kinds are ignored, so the full merged timeline can be passed
/// as-is).
pub fn assemble(events: &[Event]) -> SpanSet {
    let mut index: BTreeMap<u64, usize> = BTreeMap::new();
    let mut set = SpanSet::default();
    for e in events {
        let serve = matches!(
            e.kind,
            EventKind::ServeArrive
                | EventKind::ServeAdmit
                | EventKind::ServeEnqueue
                | EventKind::ServeDequeue
                | EventKind::ServeBatchForm
                | EventKind::ServeExecute
                | EventKind::ServeRespond
                | EventKind::ServeShed
        );
        if !serve {
            continue;
        }
        let closing = matches!(e.kind, EventKind::ServeRespond | EventKind::ServeShed);
        if closing && !index.contains_key(&e.a) {
            set.orphan_closes += 1;
            continue;
        }
        let idx = *index.entry(e.a).or_insert_with(|| {
            set.spans.push(RequestSpan {
                req: e.a,
                ..RequestSpan::default()
            });
            set.spans.len() - 1
        });
        let s = &mut set.spans[idx];
        match e.kind {
            EventKind::ServeArrive => {
                set.opened += 1;
                s.kernel = e.b;
                s.n = e.c;
                s.arrive_ns = Some(e.ts_ns);
            }
            EventKind::ServeAdmit => s.admit_ns = Some(e.ts_ns),
            EventKind::ServeEnqueue => s.enqueue_ns = Some(e.ts_ns),
            EventKind::ServeDequeue => s.dequeue_ns = Some(e.ts_ns),
            EventKind::ServeBatchForm => s.batch_ns = Some(e.ts_ns),
            EventKind::ServeExecute => s.execute_ns = Some(e.ts_ns),
            EventKind::ServeRespond => {
                set.closed += 1;
                s.closes += 1;
                s.batch_size = e.c;
                s.respond_ns = Some(e.ts_ns);
            }
            EventKind::ServeShed => {
                set.closed += 1;
                s.closes += 1;
                s.shed = Some((e.b, e.ts_ns));
            }
            _ => unreachable!("filtered above"),
        }
    }
    set
}

/// Per-kernel phase decomposition: one histogram per phase plus the
/// end-to-end total, over the *complete* spans of one kernel.
#[derive(Debug, Clone, Default)]
pub struct KernelPhases {
    /// Complete spans aggregated.
    pub count: u64,
    /// Shed spans seen for this kernel (not in the histograms).
    pub shed: u64,
    /// One nanosecond histogram per [`Phase`].
    pub phases: [Log2Hist; NPHASES],
    /// End-to-end (`arrive → respond`) nanosecond histogram.
    pub total: Log2Hist,
}

impl KernelPhases {
    /// The phase with the largest latency at quantile `q`, with that
    /// latency — "where did the tail go".
    pub fn dominant_phase(&self, q: f64) -> (Phase, u64) {
        Phase::ALL
            .iter()
            .map(|&p| (p, self.phases[p as usize].quantile(q)))
            .max_by_key(|&(_, ns)| ns)
            .unwrap_or((Phase::Admission, 0))
    }
}

/// Group the complete spans of a [`SpanSet`] by kernel code and build
/// the per-phase histograms.
pub fn phase_stats(set: &SpanSet) -> BTreeMap<u64, KernelPhases> {
    let mut out: BTreeMap<u64, KernelPhases> = BTreeMap::new();
    for s in &set.spans {
        let k = out.entry(s.kernel).or_default();
        if s.shed.is_some() {
            k.shed += 1;
            continue;
        }
        if !s.complete() {
            continue;
        }
        k.count += 1;
        for p in Phase::ALL {
            if let Some(ns) = s.phase_ns(p) {
                k.phases[p as usize].push(ns);
            }
        }
        if let Some(ns) = s.total_ns() {
            k.total.push(ns);
        }
    }
    out
}

fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.1}us", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

/// Render the phase-attribution table shared by `obs_report --serve`
/// and `serve_load --phases`: one block per kernel, one row per phase
/// with p50/p95/p99, and the dominant phase named at each quantile.
/// `name_of` maps the kernel code from the arrive event to a name.
pub fn format_phase_table(
    stats: &BTreeMap<u64, KernelPhases>,
    name_of: impl Fn(u64) -> String,
) -> String {
    let mut out = String::new();
    for (code, k) in stats {
        out.push_str(&format!(
            "{} ({} complete spans, {} shed)\n",
            name_of(*code),
            k.count,
            k.shed
        ));
        out.push_str(&format!(
            "  {:<10} {:>10} {:>10} {:>10}\n",
            "phase", "p50", "p95", "p99"
        ));
        for p in Phase::ALL {
            let h = &k.phases[p as usize];
            out.push_str(&format!(
                "  {:<10} {:>10} {:>10} {:>10}\n",
                p.name(),
                fmt_ns(h.quantile(0.50)),
                fmt_ns(h.quantile(0.95)),
                fmt_ns(h.quantile(0.99)),
            ));
        }
        out.push_str(&format!(
            "  {:<10} {:>10} {:>10} {:>10}\n",
            "total",
            fmt_ns(k.total.quantile(0.50)),
            fmt_ns(k.total.quantile(0.95)),
            fmt_ns(k.total.quantile(0.99)),
        ));
        for q in [0.50, 0.95, 0.99] {
            let (p, ns) = k.dominant_phase(q);
            out.push_str(&format!(
                "  dominant @p{:02}: {} ({})\n",
                (q * 100.0) as u32,
                p.name(),
                fmt_ns(ns)
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(ts: u64, kind: EventKind, a: u64, b: u64, c: u64) -> Event {
        Event {
            ts_ns: ts,
            kind,
            worker: 0,
            a,
            b,
            c,
        }
    }

    fn full_span(req: u64, base: u64) -> Vec<Event> {
        vec![
            ev(base, EventKind::ServeArrive, req, 2, 64),
            ev(base + 10, EventKind::ServeAdmit, req, 4096, 0),
            ev(base + 100, EventKind::ServeEnqueue, req, 1, 1_000_000),
            ev(base + 1_100, EventKind::ServeDequeue, req, 1_000, 0),
            ev(base + 1_200, EventKind::ServeBatchForm, req, 4, 16_384),
            ev(base + 1_300, EventKind::ServeExecute, req, 4, 1),
            ev(base + 9_300, EventKind::ServeRespond, req, 8_000, 4),
        ]
    }

    #[test]
    fn spans_reassemble_and_attribute_phases() {
        let mut evs = full_span(1, 0);
        evs.extend(full_span(2, 50));
        let set = assemble(&evs);
        assert_eq!(set.opened, 2);
        assert_eq!(set.closed, 2);
        assert!(set.conserved());
        let s = &set.spans[0];
        assert!(s.complete());
        assert_eq!(s.phase_ns(Phase::Admission), Some(100));
        assert_eq!(s.phase_ns(Phase::Queue), Some(1_000));
        assert_eq!(s.phase_ns(Phase::Batch), Some(200));
        assert_eq!(s.phase_ns(Phase::Execute), Some(8_000));
        assert_eq!(s.total_ns(), Some(9_300));
        assert_eq!(s.batch_size, 4);

        let stats = phase_stats(&set);
        let k = &stats[&2];
        assert_eq!(k.count, 2);
        let (dom, ns) = k.dominant_phase(0.99);
        assert_eq!(dom, Phase::Execute);
        assert!(ns >= 8_000);
        let table = format_phase_table(&stats, |c| format!("kernel{c}"));
        assert!(table.contains("kernel2 (2 complete spans, 0 shed)"));
        assert!(table.contains("dominant @p99: execute"));
    }

    #[test]
    fn shed_spans_close_without_phase_attribution() {
        let evs = vec![
            ev(0, EventKind::ServeArrive, 9, 1, 32),
            ev(50, EventKind::ServeShed, 9, SHED_QUEUE_FULL, 50),
        ];
        let set = assemble(&evs);
        assert_eq!(set.opened, 1);
        assert_eq!(set.closed, 1);
        assert!(set.conserved());
        assert_eq!(set.spans[0].shed, Some((SHED_QUEUE_FULL, 50)));
        let stats = phase_stats(&set);
        assert_eq!(stats[&1].shed, 1);
        assert_eq!(stats[&1].count, 0);
    }

    #[test]
    fn orphan_close_and_double_close_break_conservation() {
        let orphan = vec![ev(10, EventKind::ServeRespond, 3, 0, 1)];
        let set = assemble(&orphan);
        assert_eq!(set.orphan_closes, 1);
        assert!(!set.conserved());

        let double = vec![
            ev(0, EventKind::ServeArrive, 4, 1, 8),
            ev(10, EventKind::ServeRespond, 4, 10, 1),
            ev(20, EventKind::ServeShed, 4, SHED_DEADLINE, 20),
        ];
        let set = assemble(&double);
        assert_eq!(set.opened, 1);
        assert_eq!(set.closed, 2);
        assert!(!set.conserved());
    }

    #[test]
    fn shed_reason_names_are_stable() {
        assert_eq!(shed_reason_name(SHED_QUEUE_FULL), "queue_full");
        assert_eq!(shed_reason_name(SHED_DEADLINE), "deadline");
        assert_eq!(shed_reason_name(SHED_TOO_LARGE), "too_large");
        assert_eq!(shed_reason_name(SHED_NOT_CERTIFIED), "not_certified");
        assert_eq!(shed_reason_name(SHED_SHUTTING_DOWN), "shutting_down");
        assert_eq!(shed_reason_name(SHED_KERNEL_PANIC), "kernel_panic");
        assert_eq!(shed_reason_name(99), "unknown");
    }
}
