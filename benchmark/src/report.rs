//! The result a run prints: named metrics with units, and the final
//! one-line JSON object the driver reads.

use crate::run::Tally;

/// Named measurements in insertion order.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    /// Record `name`. A value that is not finite (a ratio over a zero
    /// count) is recorded as 0 so the output stays valid JSON.
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.0.push((name.into(), value, unit));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.0 == name).map(|m| m.1)
    }

    pub fn names(&self) -> Vec<&str> {
        self.0.iter().map(|m| m.0.as_str()).collect()
    }

    /// `name  value unit`, one per line, for people.
    pub fn table(&self) -> String {
        self.0
            .iter()
            .map(|(n, v, u)| format!("# {n:<40} {v:>16.4} {u}\n"))
            .collect()
    }

    /// The driver's result line: exactly `correct`, `attempted`,
    /// `failed`, `metrics`. `{}` on an `f64` prints the shortest text
    /// that reads back to the same value, so no digit is lost.
    pub fn result_line(&self, correct: bool, tally: Tally) -> String {
        let metrics: Vec<String> = self
            .0
            .iter()
            .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}"))
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            correct,
            tally.attempted.max(1),
            tally.failed,
            metrics.join(", ")
        )
    }
}
