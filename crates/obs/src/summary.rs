//! Trace summaries: the scheduler-decision aggregates `obs_report`
//! prints next to the analytic predictions.

use std::collections::BTreeMap;

use crate::event::{Event, EventKind, NKINDS};
use crate::hist::Log2Hist;

/// Aggregates over one drained event stream.
#[derive(Debug, Clone, Default)]
pub struct TraceSummary {
    /// Event count per [`EventKind`] discriminant.
    pub counts: [u64; NKINDS],
    /// SB anchor decisions: `anchor level → forks` (all three decision
    /// kinds; `u64::MAX` means the space bound fit no cache level).
    pub anchor_levels: BTreeMap<u64, u64>,
    /// Largest space bound seen on any fork, in words.
    pub max_fork_space: u64,
    /// CGC segment lengths (`hi - lo`, in iterations) as a log₂
    /// histogram.
    pub seg_log2: Log2Hist,
    /// Smallest / largest CGC segment seen (0/0 without segments).
    pub seg_min: u64,
    /// Largest CGC segment seen.
    pub seg_max: u64,
    /// Segments strictly shorter than their pfor's grain (at most one
    /// tail chunk per `pfor` call is expected here).
    pub seg_below_grain: u64,
    /// Cache-witness counter totals, indexed by witness counter id
    /// ([`crate::witness::CTR_L1D_MISS`] etc.): the sum of the measured
    /// per-task deltas over the stream.
    pub witness: [u64; crate::witness::NCOUNTERS],
}

impl TraceSummary {
    /// Count of one kind.
    pub fn count(&self, kind: EventKind) -> u64 {
        self.counts[kind as usize]
    }

    /// Total forks (serial + parallel + denied).
    pub fn forks(&self) -> u64 {
        self.count(EventKind::ForkSerial)
            + self.count(EventKind::ForkParallel)
            + self.count(EventKind::ForkDenied)
    }

    /// Steals per executed task (0 when nothing ran from a queue).
    pub fn steal_rate(&self) -> f64 {
        let tasks = self.count(EventKind::TaskEnter);
        if tasks == 0 {
            return 0.0;
        }
        self.count(EventKind::StealSuccess) as f64 / tasks as f64
    }

    /// Fraction of above-cutoff forks that were denied a permit — the
    /// divergence from the pure SB prediction, which would have run
    /// every such fork in parallel at its anchor.
    pub fn denied_rate(&self) -> f64 {
        let above = self.count(EventKind::ForkParallel) + self.count(EventKind::ForkDenied);
        if above == 0 {
            return 0.0;
        }
        self.count(EventKind::ForkDenied) as f64 / above as f64
    }
}

/// Summarize a drained event stream.
pub fn summarize(events: &[Event]) -> TraceSummary {
    let mut s = TraceSummary::default();
    for e in events {
        s.counts[e.kind as usize] += 1;
        if e.kind.is_fork() {
            *s.anchor_levels.entry(e.b).or_insert(0) += 1;
            s.max_fork_space = s.max_fork_space.max(e.a);
        }
        if e.kind == EventKind::CgcSegment {
            let len = e.b.saturating_sub(e.a);
            s.seg_log2.push(len);
            if s.count(EventKind::CgcSegment) == 1 {
                s.seg_min = len;
                s.seg_max = len;
            } else {
                s.seg_min = s.seg_min.min(len);
                s.seg_max = s.seg_max.max(len);
            }
            if len < e.c {
                s.seg_below_grain += 1;
            }
        }
        if e.kind == EventKind::CacheWitness {
            if let Some(slot) = s.witness.get_mut(e.a as usize) {
                *slot += e.b;
            }
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(kind: EventKind, a: u64, b: u64, c: u64) -> Event {
        Event {
            ts_ns: 0,
            kind,
            worker: 0,
            a,
            b,
            c,
        }
    }

    #[test]
    fn summary_aggregates_decisions() {
        let evs = vec![
            ev(EventKind::ForkSerial, 100, 0, 1024),
            ev(EventKind::ForkParallel, 5000, 1, 0),
            ev(EventKind::ForkParallel, 6000, 1, 0),
            ev(EventKind::ForkDenied, 7000, 1, 0),
            ev(EventKind::CgcSegment, 0, 512, 64),
            ev(EventKind::CgcSegment, 512, 544, 64), // 32 < grain
            ev(EventKind::TaskEnter, 1, 2, 0),
            ev(EventKind::StealSuccess, 0, 1, 0),
            ev(EventKind::CacheWitness, crate::witness::CTR_L1D_MISS, 40, 1),
            ev(EventKind::CacheWitness, crate::witness::CTR_L1D_MISS, 2, 1),
            ev(EventKind::CacheWitness, crate::witness::CTR_LLC_MISS, 7, 1),
            ev(EventKind::TaskExit, 1, 0, 0),
        ];
        let s = summarize(&evs);
        assert_eq!(s.forks(), 4);
        assert_eq!(s.anchor_levels.get(&0), Some(&1));
        assert_eq!(s.anchor_levels.get(&1), Some(&3));
        assert_eq!(s.max_fork_space, 7000);
        assert_eq!(s.seg_min, 32);
        assert_eq!(s.seg_max, 512);
        assert_eq!(s.seg_below_grain, 1);
        assert_eq!(s.steal_rate(), 1.0);
        assert!((s.denied_rate() - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(s.witness[crate::witness::CTR_L1D_MISS as usize], 42);
        assert_eq!(s.witness[crate::witness::CTR_LLC_MISS as usize], 7);
        assert_eq!(s.witness[crate::witness::CTR_INSTRUCTIONS as usize], 0);
    }
}
