//! SLO burn-rate engine: multi-window error-budget burn evaluation.
//!
//! An objective says "fraction `target` of requests must be *good*"
//! (good = completed within the latency threshold, or simply not
//! shed/errored — the engine only sees good/total counts, so both
//! latency and availability objectives use the same machinery). The
//! error budget is `1 - target`; the **burn rate** over a window is
//! the bad fraction observed in that window divided by the budget —
//! burn 1.0 spends the budget exactly at the objective boundary, burn
//! 14.4 exhausts a 30-day budget in 50 hours.
//!
//! Following the multi-window discipline (short window to confirm the
//! burn is *current*, long window to confirm it is *material*), an
//! objective is **burning** when some [`BurnWindow`]'s short *and*
//! long burn rates both exceed its factor. mo-serve evaluates its
//! trackers online, exports the rates as `moserve_slo_*` Prometheus
//! families, and fires the flight-recorder dump on the not-burning →
//! burning edge.
//!
//! The engine is deliberately clock-free: callers pass `now_ns` and
//! cumulative good/total counters, which makes burn evaluation exactly
//! reproducible in tests.

use std::collections::VecDeque;

/// One (short, long) window pair with its burn-rate threshold.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BurnWindow {
    /// Short window: confirms the burn is still happening now.
    pub short_ns: u64,
    /// Long window: confirms enough budget went up in smoke to matter.
    pub long_ns: u64,
    /// Both windows' burn rates must exceed this to page.
    pub factor: f64,
}

/// One service-level objective over a good/total counter pair.
#[derive(Debug, Clone)]
pub struct SloSpec {
    /// Objective name (Prometheus label value; e.g. `latency` or
    /// `availability`).
    pub name: String,
    /// Required good fraction, e.g. `0.99`. Budget is `1 - target`.
    pub target: f64,
    /// Window pairs; burning when *any* pair fires.
    pub windows: Vec<BurnWindow>,
}

impl SloSpec {
    /// Fast-burn / slow-burn window pair scaled for serving tests and
    /// bench runs (seconds, not SRE hours): a `(5s, 60s)` pair at
    /// factor 10 and a `(30s, 300s)` pair at factor 2.
    pub fn default_windows() -> Vec<BurnWindow> {
        vec![
            BurnWindow {
                short_ns: 5_000_000_000,
                long_ns: 60_000_000_000,
                factor: 10.0,
            },
            BurnWindow {
                short_ns: 30_000_000_000,
                long_ns: 300_000_000_000,
                factor: 2.0,
            },
        ]
    }

    /// The error budget `1 - target`, floored away from zero so a
    /// `target: 1.0` objective stays evaluable (any bad request then
    /// burns at the cap).
    pub fn budget(&self) -> f64 {
        (1.0 - self.target).max(1e-9)
    }
}

/// A cumulative `(good, total)` observation at a point in time.
#[derive(Debug, Clone, Copy)]
struct Sample {
    ts_ns: u64,
    good: u64,
    total: u64,
}

/// Evaluated state of one window pair.
#[derive(Debug, Clone, Copy)]
pub struct WindowState {
    /// The window pair evaluated.
    pub window: BurnWindow,
    /// Burn rate over the short window.
    pub burn_short: f64,
    /// Burn rate over the long window.
    pub burn_long: f64,
}

impl WindowState {
    /// `true` when both rates exceed the pair's factor.
    pub fn burning(&self) -> bool {
        self.burn_short > self.window.factor && self.burn_long > self.window.factor
    }
}

/// Evaluated state of one objective.
#[derive(Debug, Clone)]
pub struct SloState {
    /// Objective name.
    pub name: String,
    /// The objective's required good fraction ([`SloSpec::target`]).
    pub target: f64,
    /// Per-window-pair rates.
    pub windows: Vec<WindowState>,
    /// `true` when any window pair is burning.
    pub burning: bool,
}

/// Online burn-rate tracker for one [`SloSpec`].
///
/// Feed it monotonically non-decreasing cumulative counters via
/// [`observe`](Self::observe); read back [`state`](Self::state). Burn
/// rates cap at `1/budget` (every request bad), so the values stay
/// finite for Prometheus.
#[derive(Debug, Clone)]
pub struct BurnTracker {
    spec: SloSpec,
    samples: VecDeque<Sample>,
    retain_ns: u64,
}

impl BurnTracker {
    /// New tracker; retention covers the longest configured window.
    pub fn new(spec: SloSpec) -> Self {
        let longest = spec
            .windows
            .iter()
            .map(|w| w.long_ns.max(w.short_ns))
            .max()
            .unwrap_or(0);
        Self {
            spec,
            samples: VecDeque::new(),
            retain_ns: longest.saturating_mul(2).max(1),
        }
    }

    /// Samples currently held: at most one per `observe` call within
    /// the retention (twice the longest window), plus one baseline.
    pub fn history_len(&self) -> usize {
        self.samples.len()
    }

    /// Record the cumulative counters as of `now_ns`. Out-of-order or
    /// counter-regressing samples (server reset) clear the history
    /// rather than producing negative deltas.
    pub fn observe(&mut self, now_ns: u64, good: u64, total: u64) {
        if let Some(last) = self.samples.back() {
            if now_ns < last.ts_ns || good < last.good || total < last.total {
                self.samples.clear();
            }
        }
        self.samples.push_back(Sample {
            ts_ns: now_ns,
            good,
            total,
        });
        let horizon = now_ns.saturating_sub(self.retain_ns);
        // Keep one sample at-or-before the horizon as the baseline.
        while self.samples.len() > 1 && self.samples[1].ts_ns <= horizon {
            self.samples.pop_front();
        }
    }

    /// Burn rate over the trailing `window_ns` ending at `now_ns`:
    /// `bad_fraction / budget`, 0.0 when the window saw no requests.
    pub fn burn_over(&self, now_ns: u64, window_ns: u64) -> f64 {
        let Some(latest) = self.samples.back() else {
            return 0.0;
        };
        let start = now_ns.saturating_sub(window_ns);
        // Baseline: the last sample at-or-before the window start; if
        // the history does not reach back that far, the earliest one.
        // `observe` keeps the samples sorted by timestamp.
        let at_or_before = self.samples.partition_point(|s| s.ts_ns <= start);
        let base = &self.samples[at_or_before.saturating_sub(1)];
        let total = latest.total.saturating_sub(base.total);
        if total == 0 {
            return 0.0;
        }
        let good = latest.good.saturating_sub(base.good);
        let bad_fraction = (total - good.min(total)) as f64 / total as f64;
        bad_fraction / self.spec.budget()
    }

    /// Evaluate every window pair as of `now_ns`.
    pub fn state(&self, now_ns: u64) -> SloState {
        let windows: Vec<WindowState> = self
            .spec
            .windows
            .iter()
            .map(|&window| WindowState {
                window,
                burn_short: self.burn_over(now_ns, window.short_ns),
                burn_long: self.burn_over(now_ns, window.long_ns),
            })
            .collect();
        let burning = windows.iter().any(|w| w.burning());
        SloState {
            name: self.spec.name.clone(),
            target: self.spec.target,
            windows,
            burning,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const S: u64 = 1_000_000_000;

    fn spec() -> SloSpec {
        SloSpec {
            name: "latency".into(),
            target: 0.99,
            windows: vec![BurnWindow {
                short_ns: 5 * S,
                long_ns: 60 * S,
                factor: 10.0,
            }],
        }
    }

    #[test]
    fn healthy_traffic_never_burns() {
        let mut t = BurnTracker::new(spec());
        // 1000 req/s, all good.
        for sec in 0..120u64 {
            t.observe(sec * S, sec * 1000, sec * 1000);
        }
        let st = t.state(119 * S);
        assert!(!st.burning);
        assert_eq!(st.windows[0].burn_short, 0.0);
    }

    #[test]
    fn sustained_failures_burn_and_recovery_clears() {
        let mut t = BurnTracker::new(spec());
        let (mut good, mut total) = (0u64, 0u64);
        // 60 s of healthy traffic.
        for sec in 0..60u64 {
            good += 1000;
            total += 1000;
            t.observe(sec * S, good, total);
        }
        assert!(!t.state(59 * S).burning);
        // Then everything fails: bad fraction 1.0 => burn 100 > 10
        // within both windows once the short window is saturated.
        for sec in 60..75u64 {
            total += 1000;
            t.observe(sec * S, good, total);
        }
        let st = t.state(74 * S);
        assert!(st.burning, "burn_short={}", st.windows[0].burn_short);
        assert!(st.windows[0].burn_short > 10.0);
        assert!(st.windows[0].burn_long > 10.0);
        // Recovery: the short window clears first (multi-window
        // de-pages promptly), the long window still carries the burn.
        for sec in 75..90u64 {
            good += 1000;
            total += 1000;
            t.observe(sec * S, good, total);
        }
        let st = t.state(89 * S);
        assert!(!st.burning);
        assert_eq!(st.windows[0].burn_short, 0.0);
        assert!(st.windows[0].burn_long > 10.0);
    }

    #[test]
    fn brief_blip_does_not_page() {
        let mut t = BurnTracker::new(spec());
        let (mut good, mut total) = (0u64, 0u64);
        for sec in 0..60u64 {
            // One bad second at t=30: 1000 bad out of 60_000 total is
            // ~1.7% bad => long burn ~1.7, below the factor.
            let ok = if sec == 30 { 0 } else { 1000 };
            good += ok;
            total += 1000;
            t.observe(sec * S, good, total);
        }
        assert!(!t.state(59 * S).burning);
    }

    #[test]
    fn counter_reset_clears_history() {
        let mut t = BurnTracker::new(spec());
        t.observe(10 * S, 500, 1000);
        t.observe(20 * S, 100, 200); // regressed: server restarted
        assert_eq!(t.burn_over(20 * S, 60 * S), 0.0);
    }

    #[test]
    fn baseline_is_the_last_sample_at_or_before_the_window_start() {
        let mut t = BurnTracker::new(spec());
        // Repeated timestamps (two observations in one instant) and a
        // history that starts after some window starts.
        for (ts, good, total) in [
            (3, 0, 10),
            (3, 5, 20),
            (7, 5, 40),
            (9, 35, 70),
            (12, 35, 80),
        ] {
            t.observe(ts * S, good, total);
        }
        let naive = |now: u64, window: u64| {
            let start = now.saturating_sub(window);
            let s = &t.samples;
            let base = s.iter().rev().find(|x| x.ts_ns <= start).unwrap_or(&s[0]);
            let latest = s.back().unwrap();
            let total = latest.total - base.total;
            let bad = total - (latest.good - base.good);
            if total == 0 {
                0.0
            } else {
                bad as f64 / total as f64 / t.spec.budget()
            }
        };
        for now in 0..16 {
            for window in 0..16 {
                assert_eq!(t.burn_over(now * S, window * S), naive(now * S, window * S));
            }
        }
        assert_eq!(t.state(12 * S).target, 0.99);
    }

    #[test]
    fn perfect_target_still_evaluates() {
        let s = SloSpec {
            name: "avail".into(),
            target: 1.0,
            windows: SloSpec::default_windows(),
        };
        assert!(s.budget() > 0.0);
        let mut t = BurnTracker::new(s);
        t.observe(0, 0, 0);
        t.observe(10 * S, 999, 1000);
        let st = t.state(10 * S);
        assert!(st.burning);
    }
}
