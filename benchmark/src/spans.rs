//! Harness-side spans: recorded from the benchmark's own files around
//! the calls into each layer, kept in memory, written as chrome JSON
//! when the run ends. A layer's self time is its spans' duration minus
//! the part their child spans cover.

use std::collections::BTreeMap;
use std::time::Instant;

/// The layer a span's time is attributed to.
pub const LAYERS: [&str; 6] = [
    "bench",
    "core.record",
    "core.sched",
    "serve",
    "exec",
    "dist",
];

/// Span names, `(name, layer)`. `exec` is kernel execution on the
/// server's pool (`algos.real` + `core.rt`), which cannot be split
/// from outside; the `algos.real.*` probes split it.
pub const OP: &str = "bench.op";
pub const CHECK: &str = "bench.check";
pub const RECORD: &str = "core.record";
pub const SCHED: &str = "core.sched";
pub const SUBMIT: &str = "serve.submit";
pub const QUEUED: &str = "serve.queued";
pub const SERVICE: &str = "exec.service";
pub const RESPOND: &str = "serve.respond";
pub const DIST_RUN: &str = "dist.run";

fn layer_of(name: &str) -> &'static str {
    LAYERS
        .iter()
        .copied()
        .find(|l| name.starts_with(l))
        .expect("every span name starts with its layer")
}

/// One recorded interval. `parent` indexes the same span list.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    /// Index of the operation in its round; spans of one operation
    /// share it.
    pub op: u32,
    /// Job class of the operation (index into the workload's classes).
    pub class: u16,
    /// Display lane: concurrent operations get lanes of their own.
    pub lane: u16,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Span recorder of one caller thread. Off, every call is one branch.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool, epoch: Instant) -> Self {
        Self {
            on,
            epoch,
            spans: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Record one operation: the root span `[marks.first, marks.last]`
    /// and one child per consecutive pair of marks, `names[i]` covering
    /// `[marks[i], marks[i+1]]`.
    pub fn op(
        &mut self,
        op: u32,
        class: u16,
        lane: u16,
        names: &[&'static str],
        marks: &[Instant],
    ) {
        if !self.on {
            return;
        }
        debug_assert_eq!(names.len() + 1, marks.len());
        let root = self.spans.len() as u32;
        let at: Vec<u64> = marks.iter().map(|&t| self.ns(t)).collect();
        let mut push = |name, start_ns, end_ns, parent| {
            self.spans.push(Span {
                name,
                start_ns,
                end_ns,
                parent,
                op,
                class,
                lane,
            })
        };
        push(OP, at[0], at[at.len() - 1], None);
        for (i, &name) in names.iter().enumerate() {
            push(name, at[i], at[i + 1], Some(root));
        }
    }
}

/// Append `more` (a list with list-local parent indices) to `all`.
pub fn merge(all: &mut Vec<Span>, more: Vec<Span>) {
    let base = all.len() as u32;
    all.extend(more.into_iter().map(|mut s| {
        s.parent = s.parent.map(|p| p + base);
        s
    }));
}

/// Self time per layer and the summed duration of the root spans.
pub fn self_times(spans: &[Span]) -> (BTreeMap<&'static str, u64>, u64) {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p as usize] += s.dur_ns();
        }
    }
    let mut by_layer: BTreeMap<&'static str, u64> = LAYERS.iter().map(|&l| (l, 0)).collect();
    let mut roots = 0;
    for (s, &covered) in spans.iter().zip(&child_ns) {
        *by_layer.entry(layer_of(s.name)).or_insert(0) += s.dur_ns().saturating_sub(covered);
        if s.parent.is_none() {
            roots += s.dur_ns();
        }
    }
    (by_layer, roots)
}

/// Durations (ns) of every span called `name`, ascending.
pub fn durations(spans: &[Span], name: &str) -> Vec<u64> {
    let mut v: Vec<u64> = spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::dur_ns)
        .collect();
    v.sort_unstable();
    v
}

/// At most this many spans go into the chrome file; the metrics use
/// all of them.
pub const CHROME_SPAN_CAP: usize = 60_000;

/// Chrome-trace JSON (complete `X` events, one `tid` per lane) in the
/// envelope `mo_obs::chrome::validate` accepts.
pub fn to_chrome_json(spans: &[Span]) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
    for (i, s) in spans.iter().take(CHROME_SPAN_CAP).enumerate() {
        if i > 0 {
            out.push(',');
        }
        let parent = s.parent.map_or(-1, i64::from);
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":{},\"args\":{{\"op\":{},\"class\":{},\"span\":{},\"parent\":{}}}}}",
            s.name,
            layer_of(s.name),
            s.start_ns as f64 / 1e3,
            s.dur_ns() as f64 / 1e3,
            s.lane,
            s.op,
            s.class,
            i,
            parent
        ));
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_is_span_minus_children_and_sums_to_the_roots() {
        let epoch = Instant::now();
        let mut tr = Tracer::new(true, epoch);
        let at = |us: u64| epoch + Duration::from_micros(us);
        tr.op(
            0,
            0,
            0,
            &[RECORD, SCHED, CHECK],
            &[at(0), at(10), at(90), at(100)],
        );
        let (by_layer, roots) = self_times(&tr.spans);
        assert_eq!(roots, 100_000);
        assert_eq!(by_layer["core.record"], 10_000);
        assert_eq!(by_layer["core.sched"], 80_000);
        assert_eq!(by_layer["bench"], 10_000); // the check; the root is fully covered
        assert_eq!(by_layer.values().sum::<u64>(), roots);
        assert!(mo_obs::chrome::validate(&to_chrome_json(&tr.spans)).is_ok());
    }

    #[test]
    fn an_off_tracer_records_nothing() {
        let epoch = Instant::now();
        let mut tr = Tracer::new(false, epoch);
        tr.op(0, 0, 0, &[DIST_RUN], &[epoch, epoch]);
        assert!(tr.spans.is_empty());
    }
}
