//! What one benchmark run found: metrics with units, output checks, the
//! attempted/failed tally and free-form notes for the human report.

use crate::stats::Tally;

/// One named measurement.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Value as measured, unrounded.
    pub value: f64,
    /// Unit label.
    pub unit: &'static str,
}

/// Accumulates one run's results.
#[derive(Debug, Default)]
pub struct Report {
    /// Metrics in the order they were measured.
    pub metrics: Vec<Metric>,
    /// Output checks: what was checked and whether it held.
    pub checks: Vec<(String, bool)>,
    /// Operations attempted and failed.
    pub tally: Tally,
    /// Context lines for the human report (sample counts, expectations).
    pub notes: Vec<String>,
}

impl Report {
    /// Records a metric.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    /// Records an output check.
    pub fn check(&mut self, what: impl Into<String>, ok: bool) {
        self.checks.push((what.into(), ok));
    }

    /// Records a note for the human report.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Whether something ran, every check held and no operation failed.
    pub fn correct(&self) -> bool {
        self.tally.attempted > 0 && self.checks.iter().all(|(_, ok)| *ok) && self.tally.failed == 0
    }

    /// The result line: `{"correct", "attempted", "failed", "metrics"}`.
    pub fn result_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "{:?}: {{\"value\": {}, \"unit\": {:?}}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.tally.attempted,
            self.tally.failed,
            metrics.join(", ")
        )
    }
}

/// A JSON number for `v`; non-finite values (which JSON cannot hold) are
/// written as `null`.
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}
