//! Cache witness: measured per-level cache traffic attached to traced
//! runs.
//!
//! The paper's headline metric is *cache complexity* — block transfers
//! into each level-`i` cache — but the live runtime (unlike the
//! simulator) does not see its own memory traffic. This module closes
//! that loop with two backends that produce one measurement type:
//!
//! * a **Linux `perf_event_open` backend** ([`PerfWitness`]) that reads
//!   hardware L1D-miss / LLC-miss / instruction counters per thread,
//!   scoped around task enter/exit so counts attribute to the task
//!   (and hence the SB anchor level) that incurred them; the deltas
//!   land in the trace as [`EventKind::CacheWitness`] events, and
//!   [`WitnessMeasurement::from_trace`] rolls a kernel's drained trace
//!   up into levels;
//! * a **portable simulator backend** (`obs_report`'s sim rows) that
//!   replays the recorded access trace through the `hm` LRU cache
//!   simulator against the detected host topology, so CI containers
//!   without perf access still produce per-level transfer counts.
//!
//! Both produce a [`WitnessMeasurement`]: per-level transfer counts
//! tagged with the backend that measured them, which `obs_report`
//! compares against the analytic `Q_i` bounds and `mo-serve` exports
//! as `cache_transfers_total{level,backend}`. [`TaskWitness`] is the
//! *scoping* surface the runtime drives around every task (implemented
//! by [`PerfWitness`]).

pub mod perf;

pub use perf::{PerfSpan, PerfWitness};

use crate::event::{Event, EventKind};
use crate::sink::TraceSink;

/// Witness counter id: L1D read misses (event payload `a`).
pub const CTR_L1D_MISS: u64 = 0;
/// Witness counter id: last-level-cache misses.
pub const CTR_LLC_MISS: u64 = 1;
/// Witness counter id: retired instructions.
pub const CTR_INSTRUCTIONS: u64 = 2;
/// Number of witness counters (array-index bound).
pub const NCOUNTERS: usize = 3;

/// Stable lower-case name of a witness counter id (metric labels,
/// chrome-trace counter tracks).
pub fn counter_name(id: u64) -> &'static str {
    match id {
        CTR_L1D_MISS => "l1d_miss",
        CTR_LLC_MISS => "llc_miss",
        CTR_INSTRUCTIONS => "instructions",
        _ => "unknown",
    }
}

/// Which backend produced a measurement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WitnessBackend {
    /// Hardware counters via `perf_event_open`.
    Perf,
    /// LRU replay of the recorded trace through the `hm` simulator.
    Sim,
}

impl WitnessBackend {
    /// Stable lower-case name (the `backend` metric label).
    pub fn name(self) -> &'static str {
        match self {
            WitnessBackend::Perf => "perf",
            WitnessBackend::Sim => "sim",
        }
    }
}

/// The per-task scoping surface the runtime drives.
///
/// The pool calls [`task_enter`](Self::task_enter) when a thread starts
/// executing a task and [`task_exit`](Self::task_exit) when it
/// finishes; the implementation attributes whatever traffic the thread
/// incurred in between to that task, *exclusive* of nested tasks the
/// thread help-executed inside the scope (those get their own pair).
/// Deltas are recorded as [`EventKind::CacheWitness`] events against
/// the sink passed to `task_exit`.
pub trait TaskWitness: Send + Sync {
    /// A thread began executing a task (or entered the pool's root
    /// scope).
    fn task_enter(&self);
    /// That task finished: attribute the traffic since the matching
    /// [`task_enter`](Self::task_enter), minus nested scopes, to `job`
    /// (`0` for the root scope of an `enter`).
    fn task_exit(&self, sink: Option<&TraceSink>, worker: Option<usize>, job: u64);
}

/// RAII scope around one task: [`TaskWitness::task_enter`] now,
/// [`TaskWitness::task_exit`] on drop (also on unwind, keeping the
/// per-thread scope stack balanced).
pub struct TaskScope<'a> {
    witness: &'a dyn TaskWitness,
    sink: Option<&'a TraceSink>,
    worker: Option<usize>,
    job: u64,
}

impl Drop for TaskScope<'_> {
    fn drop(&mut self) {
        self.witness.task_exit(self.sink, self.worker, self.job);
    }
}

/// Open a witness scope for one task. See [`TaskScope`].
pub fn scope<'a>(
    witness: &'a dyn TaskWitness,
    sink: Option<&'a TraceSink>,
    worker: Option<usize>,
    job: u64,
) -> TaskScope<'a> {
    witness.task_enter();
    TaskScope {
        witness,
        sink,
        worker,
        job,
    }
}

/// Measured block transfers into the caches of one hierarchy level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LevelTransfers {
    /// Hierarchy level, 1-based (level 1 = L1), matching the paper's
    /// `Q_i` indexing and `hm::Metrics::level`.
    pub level: usize,
    /// Block transfers into the busiest cache instance at this level
    /// (the simulator's max-over-instances — the `Q_i` definition), or
    /// the hardware miss count for the perf backend.
    pub transfers: u64,
}

/// One kernel-level cache measurement.
#[derive(Debug, Clone)]
pub struct WitnessMeasurement {
    /// The backend that produced it.
    pub backend: WitnessBackend,
    /// Per-level transfer counts (not necessarily every level: the
    /// perf backend sees only L1 and the last level).
    pub levels: Vec<LevelTransfers>,
    /// Retired instructions over the run, when the backend counts them.
    pub instructions: Option<u64>,
    /// Human-readable provenance (topology used, tasks aggregated).
    pub detail: String,
}

impl WitnessMeasurement {
    /// Transfers measured for `level` (1-based), if the backend
    /// produced that level.
    pub fn transfers_at(&self, level: usize) -> Option<u64> {
        self.levels
            .iter()
            .find(|l| l.level == level)
            .map(|l| l.transfers)
    }

    /// The perf backend's kernel-level measurement: the aggregate of a
    /// drained trace's [`EventKind::CacheWitness`] deltas. L1D misses
    /// map to level 1 and LLC misses to `last_level`, the 1-based number
    /// of the outermost cache level (the hardware sees nothing in
    /// between). A trace without witness events is an error, not a
    /// zero measurement.
    pub fn from_trace(events: &[Event], last_level: usize) -> Result<Self, String> {
        let t = totals(events);
        if t.events == 0 {
            return Err("trace carried no cache-witness events".into());
        }
        let mut levels = vec![LevelTransfers {
            level: 1,
            transfers: t.counts[CTR_L1D_MISS as usize],
        }];
        if last_level > 1 {
            levels.push(LevelTransfers {
                level: last_level,
                transfers: t.counts[CTR_LLC_MISS as usize],
            });
        }
        Ok(Self {
            backend: WitnessBackend::Perf,
            levels,
            instructions: Some(t.counts[CTR_INSTRUCTIONS as usize]),
            detail: format!("{} witness deltas aggregated from the trace", t.events),
        })
    }
}

/// Aggregate of the [`EventKind::CacheWitness`] events in a stream.
#[derive(Debug, Clone, Copy, Default)]
pub struct WitnessTotals {
    /// Summed deltas per witness counter id.
    pub counts: [u64; NCOUNTERS],
    /// Number of witness events seen.
    pub events: u64,
}

/// Sum the witness deltas of a drained event stream.
pub fn totals(events: &[Event]) -> WitnessTotals {
    let mut t = WitnessTotals::default();
    for e in events {
        if e.kind == EventKind::CacheWitness {
            t.events += 1;
            if let Some(slot) = t.counts.get_mut(e.a as usize) {
                *slot += e.b;
            }
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn counter_names_are_stable() {
        assert_eq!(counter_name(CTR_L1D_MISS), "l1d_miss");
        assert_eq!(counter_name(CTR_LLC_MISS), "llc_miss");
        assert_eq!(counter_name(CTR_INSTRUCTIONS), "instructions");
        assert_eq!(counter_name(99), "unknown");
        assert_eq!(WitnessBackend::Perf.name(), "perf");
        assert_eq!(WitnessBackend::Sim.name(), "sim");
    }

    #[derive(Default)]
    struct MockWitness {
        enters: AtomicU64,
        exits: AtomicU64,
        last_job: AtomicU64,
    }

    impl TaskWitness for MockWitness {
        fn task_enter(&self) {
            self.enters.fetch_add(1, Ordering::Relaxed);
        }
        fn task_exit(&self, _sink: Option<&TraceSink>, _worker: Option<usize>, job: u64) {
            self.exits.fetch_add(1, Ordering::Relaxed);
            self.last_job.store(job, Ordering::Relaxed);
        }
    }

    #[test]
    fn scope_balances_enter_exit_on_unwind() {
        let w = MockWitness::default();
        {
            let _s = scope(&w, None, Some(0), 7);
            assert_eq!(w.enters.load(Ordering::Relaxed), 1);
            assert_eq!(w.exits.load(Ordering::Relaxed), 0);
        }
        assert_eq!(w.exits.load(Ordering::Relaxed), 1);
        assert_eq!(w.last_job.load(Ordering::Relaxed), 7);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _s = scope(&w, None, None, 9);
            panic!("boom");
        }));
        assert!(r.is_err());
        assert_eq!(w.enters.load(Ordering::Relaxed), 2);
        assert_eq!(w.exits.load(Ordering::Relaxed), 2);
        assert_eq!(w.last_job.load(Ordering::Relaxed), 9);
    }

    fn wev(a: u64, b: u64) -> Event {
        Event {
            ts_ns: 0,
            kind: EventKind::CacheWitness,
            worker: 0,
            a,
            b,
            c: 1,
        }
    }

    #[test]
    fn totals_sums_witness_deltas() {
        let evs = vec![
            wev(CTR_L1D_MISS, 10),
            wev(CTR_L1D_MISS, 5),
            wev(CTR_LLC_MISS, 3),
            wev(CTR_INSTRUCTIONS, 1000),
            Event {
                ts_ns: 0,
                kind: EventKind::TaskEnter,
                worker: 0,
                a: 1,
                b: 0,
                c: 0,
            },
        ];
        let t = totals(&evs);
        assert_eq!(t.events, 4);
        assert_eq!(t.counts, [15, 3, 1000]);
    }

    #[test]
    fn from_trace_maps_counters_to_levels() {
        let evs = vec![
            wev(CTR_L1D_MISS, 40),
            wev(CTR_LLC_MISS, 4),
            wev(CTR_INSTRUCTIONS, 9000),
        ];
        let m = WitnessMeasurement::from_trace(&evs, 3).unwrap();
        assert_eq!(m.backend, WitnessBackend::Perf);
        assert_eq!(m.transfers_at(1), Some(40));
        assert_eq!(m.transfers_at(2), None);
        assert_eq!(m.transfers_at(3), Some(4));
        assert_eq!(m.instructions, Some(9000));
        let l1_only = WitnessMeasurement::from_trace(&evs, 1).unwrap();
        assert_eq!(l1_only.levels.len(), 1);
        assert!(WitnessMeasurement::from_trace(&[], 3).is_err());
    }
}
