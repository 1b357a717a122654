//! Fleet trace analysis: measured-vs-analytic per-level communication
//! and straggler/lateness attribution.
//!
//! The D-BSP cost model charges each superstep an `h_i`-relation per
//! cluster level `i` — the largest number of words any single cluster
//! member sends or receives across the level-`i` boundary. This module
//! computes that analytic charge from the run's merged traffic
//! signature (which both the simulator and the socket fleet produce
//! bit-identically) and sets it against the words the sockets actually
//! framed and delivered per level, flagging any divergence. It also
//! renders the per-round straggler report from a collected fleet
//! trace: which pair was slowest each round, and how long each worker
//! spent blocked on barriers.

use mo_obs::fleet::FleetSummary;
use no_framework::{level_counters, pair_level, Partition};

use crate::router::DistOutcome;

/// One row of the measured-vs-analytic per-level table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LevelRow {
    /// D-BSP cluster level (0 = outermost split).
    pub level: usize,
    /// Words framed to this level by senders (measured on the wire).
    pub send_words: u64,
    /// Words delivered from this level to receivers (measured).
    pub recv_words: u64,
    /// Total cross-boundary words this level owes per the traffic
    /// signature — every measured word must be one of these.
    pub signature_words: u64,
    /// The analytic D-BSP charge: `Σ_supersteps h_i` where `h_i` is the
    /// worst single worker's max(sent, received) words across the
    /// level-`i` boundary that superstep (`B = 1` words measure).
    pub h_relation: u64,
    /// `true` when the measured wire traffic disagrees with the
    /// signature — a lost, duplicated, or misrouted frame.
    pub divergent: bool,
}

/// Build the per-level measured-vs-analytic table for one fleet run.
///
/// `n_pes` is the run's PE count, [`DistAlg::shape`](crate::DistAlg::shape)`.0`
/// (`DistOutcome` does not carry it).
pub fn level_table(outcome: &DistOutcome, n_pes: usize, workers: usize) -> Vec<LevelRow> {
    let levels = level_counters(workers);
    let part = Partition::new(n_pes, workers);
    let mut signature_words = vec![0u64; levels];
    let mut h_relation = vec![0u64; levels];
    for rows in outcome.signature.steps() {
        // Per-superstep, per-level, per-worker send/recv words.
        let mut sent = vec![vec![0u64; workers]; levels];
        let mut recv = vec![vec![0u64; workers]; levels];
        for (src, dst, words) in rows {
            let (ws, wd) = (part.owner(src as usize), part.owner(dst as usize));
            if ws == wd {
                continue;
            }
            let level = pair_level(ws, wd, workers);
            signature_words[level] += words;
            sent[level][ws] += words;
            recv[level][wd] += words;
        }
        for (level, h) in h_relation.iter_mut().enumerate() {
            let worst = (0..workers)
                .map(|w| sent[level][w].max(recv[level][w]))
                .max()
                .unwrap_or(0);
            *h += worst;
        }
    }
    (0..levels)
        .map(|level| {
            let send_words = outcome
                .socket_words_per_level
                .get(level)
                .copied()
                .unwrap_or(0);
            let recv_words = outcome
                .recv_words_per_level
                .get(level)
                .copied()
                .unwrap_or(0);
            LevelRow {
                level,
                send_words,
                recv_words,
                signature_words: signature_words[level],
                h_relation: h_relation[level],
                divergent: send_words != signature_words[level]
                    || recv_words != signature_words[level],
            }
        })
        .collect()
}

/// Render [`level_table`] rows as the live report table.
pub fn format_level_table(rows: &[LevelRow]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<6} {:>12} {:>12} {:>12} {:>12}  {}\n",
        "level", "sent(w)", "recv(w)", "signature", "h-relation", "flag"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:<6} {:>12} {:>12} {:>12} {:>12}  {}\n",
            r.level,
            r.send_words,
            r.recv_words,
            r.signature_words,
            r.h_relation,
            if r.divergent { "DIVERGENT" } else { "ok" }
        ));
    }
    out
}

/// Render the per-round straggler report from a collected fleet trace:
/// the slowest (waiter, peer) pair per `(job, superstep)` that exchanged
/// at all (a cluster-local superstep has no pair and no row), then each
/// worker's total blocked time and exchanges per superstep.
pub fn straggler_report(summary: &FleetSummary) -> String {
    let mut out = String::new();
    out.push_str("slowest pair per round (waiter blocked on peer):\n");
    out.push_str(&format!(
        "{:<8} {:<10} {:>8} {:>6} {:>14}\n",
        "job", "superstep", "waiter", "peer", "wait"
    ));
    for (&(job, step), &(wait_ns, waiter, peer)) in &summary.slowest_pair {
        out.push_str(&format!(
            "{:<8} {:<10} {:>8} {:>6} {:>11.3} µs\n",
            job,
            step,
            waiter,
            peer,
            wait_ns as f64 / 1000.0
        ));
    }
    out.push_str("total barrier wait per worker:\n");
    for (w, &ns) in &summary.barrier_wait_ns {
        let steps = summary.supersteps.get(w).copied().unwrap_or(0);
        let rounds = summary.exchange_rounds.get(w).copied().unwrap_or(0);
        out.push_str(&format!(
            "  worker {w}: {:.3} ms over {rounds} exchanges in {steps} supersteps \
             ({:.2} rounds/superstep; dropped events: {})\n",
            ns as f64 / 1e6,
            rounds as f64 / steps.max(1) as f64,
            summary.dropped.get(w).copied().unwrap_or(0)
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(
        signature: Vec<Vec<(u32, u32, u64)>>,
        send: Vec<u64>,
        recv: Vec<u64>,
    ) -> DistOutcome {
        DistOutcome {
            checksum: 0,
            supersteps: signature.len(),
            signature: crate::Signature::from_rows(&signature),
            output: Vec::new(),
            socket_words_per_level: send,
            recv_words_per_level: recv,
            ops: 0,
            exchange_rounds: Vec::new(),
            job: 1,
        }
    }

    #[test]
    fn level_table_matches_signature_and_charges_h() {
        // 8 PEs over 4 workers => 2 PEs each; levels: pair (0,1) is the
        // innermost split (level 1), pair (0,2) the outer (level 0).
        // Superstep: PE0 -> PE2 (worker 0 -> 1, level 1, 3 words) and
        // PE0 -> PE4 (worker 0 -> 2, level 0, 5 words).
        let sig = vec![vec![(0, 2, 3), (0, 4, 5)]];
        let o = outcome(sig, vec![5, 3], vec![5, 3]);
        let rows = level_table(&o, 8, 4);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].signature_words, 5);
        assert_eq!(rows[0].h_relation, 5);
        assert!(!rows[0].divergent);
        assert_eq!(rows[1].signature_words, 3);
        assert_eq!(rows[1].h_relation, 3);
        assert!(!rows[1].divergent);
        let table = format_level_table(&rows);
        assert!(table.contains("ok"));
        assert!(!table.contains("DIVERGENT"));
    }

    #[test]
    fn h_relation_is_max_not_sum() {
        // Two senders at the same level in one superstep: worker 0
        // sends 4 to worker 2, worker 1 sends 7 to worker 3. The
        // h-relation charges the worst member (7), the signature both.
        let sig = vec![vec![(0, 4, 4), (2, 6, 7)]];
        let o = outcome(sig, vec![11, 0], vec![11, 0]);
        let rows = level_table(&o, 8, 4);
        assert_eq!(rows[0].signature_words, 11);
        assert_eq!(rows[0].h_relation, 7);
        assert!(!rows[0].divergent);
    }

    #[test]
    fn wire_divergence_is_flagged() {
        let sig = vec![vec![(0, 4, 5)]];
        // The wire claims 6 words framed at level 0 but the signature
        // owes 5 => divergent.
        let o = outcome(sig, vec![6, 0], vec![5, 0]);
        let rows = level_table(&o, 8, 4);
        assert!(rows[0].divergent);
        assert!(format_level_table(&rows).contains("DIVERGENT"));
    }

    #[test]
    fn straggler_report_names_the_slowest_pair() {
        use mo_obs::fleet::{summarize, WorkerStream};
        use mo_obs::{pack_step_level, Event, EventKind, WORKER_EXTERNAL};
        let ev = |ts, kind, a, b, c| Event {
            ts_ns: ts,
            kind,
            worker: WORKER_EXTERNAL,
            a,
            b,
            c,
        };
        let sl = pack_step_level(0, 0);
        let streams = vec![WorkerStream {
            worker: 1,
            offset_ns: 0,
            rtt_ns: 0,
            dropped: 2,
            events: vec![
                ev(10, EventKind::DistJobBegin, 9, 0, 4),
                ev(50, EventKind::BarrierWait, 0, sl, 40),
            ],
        }];
        let report = straggler_report(&summarize(&streams));
        assert!(report.contains("9"));
        assert!(
            report.contains("0.040 µs") || report.contains("0.04"),
            "{report}"
        );
        assert!(report.contains("dropped events: 2"));
    }
}
