//! Collecting metrics and failures, and printing them.

use crate::stats::Samples;
use std::fmt::Write as _;

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Sample count behind a timing; `None` for counts and ratios.
    pub n: Option<usize>,
}

/// What one workload run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
    /// Operations attempted and failed (wrong verdict, invalid
    /// evidence, session error, rejected or dropped event).
    pub attempted: u64,
    pub failed: u64,
    /// Lines printed for the human reader, ahead of the metrics.
    pub notes: Vec<String>,
    /// (result-line name, measured name): a workload's own name for a
    /// metric every workload reports, e.g. `check_ms_p50` for
    /// `latency_ms_p50`.
    aliases: Vec<(&'static str, &'static str)>,
}

impl Report {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
            n: None,
        });
    }

    pub fn put_n(&mut self, name: impl Into<String>, value: f64, unit: &'static str, n: usize) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
            n: Some(n),
        });
    }

    /// Reports the `q`-th percentile of `samples` as `name`, or a note
    /// saying why it is refused (fewer than ten samples beyond it).
    pub fn put_percentile(
        &mut self,
        name: &str,
        samples: &mut Samples,
        q: f64,
        unit: &'static str,
    ) {
        let n = samples.len();
        match samples.percentile(q) {
            Some(v) => self.put_n(name, v, unit, n),
            None => self.notes.push(format!(
                "{name}: not reported, n={n} leaves <10 samples beyond p{q}"
            )),
        }
    }

    /// Records one checked operation; `Err` counts as a failure and is
    /// printed with its id.
    pub fn check(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = outcome {
            self.fail(why);
        }
    }

    /// Records a failure without a matching attempt (the attempt was
    /// already counted).
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        // Keep stderr readable when something fails systematically.
        if self.failed <= 20 {
            eprintln!("e2ebench: FAILED {why}");
        }
    }

    pub fn alias(&mut self, name: &'static str, measured: &'static str) {
        self.aliases.push((name, measured));
    }

    fn find(&self, name: &str) -> Option<&Metric> {
        let measured = self
            .aliases
            .iter()
            .find(|(a, _)| *a == name)
            .map_or(name, |&(_, m)| m);
        self.metrics.iter().find(|m| m.name == measured)
    }

    /// The human-readable table.
    pub fn render(&self, workload: &str) -> String {
        let mut out = String::new();
        for note in &self.notes {
            let _ = writeln!(out, "# {workload}: {note}");
        }
        for m in &self.metrics {
            let n = m.n.map(|n| format!("  n={n}")).unwrap_or_default();
            let alias = self
                .aliases
                .iter()
                .find(|(_, measured)| *measured == m.name)
                .map(|(a, _)| format!("  (reported as {a})"))
                .unwrap_or_default();
            let _ = writeln!(
                out,
                "{workload:<15} {:<40} {:>16.6} {}{n}{alias}",
                m.name, m.value, m.unit
            );
        }
        let ratio = self.failed as f64 / self.attempted.max(1) as f64;
        let _ = writeln!(
            out,
            "{workload:<15} {:<40} {:>16.6} ratio  ({} of {})",
            "failed_ratio", ratio, self.failed, self.attempted
        );
        out
    }

    /// The result line: `correct`, `attempted`, `failed`, and the named
    /// metrics. A name this run did not measure is an error.
    pub fn result_json(&self, names: &[String]) -> Result<String, String> {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0 && self.attempted > 0,
            self.attempted.max(1),
            self.failed
        );
        for (i, name) in names.iter().enumerate() {
            let m = self
                .find(name)
                .ok_or_else(|| format!("metric '{name}' was not measured"))?;
            if !m.value.is_finite() {
                return Err(format!("metric '{name}' is {}", m.value));
            }
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.value, m.unit
            );
        }
        out.push_str("}}");
        Ok(out)
    }
}
