//! Named metrics with units, output checks, and the result line.
//!
//! Every metric is printed as one human-readable line (`name = value unit`,
//! plus a note such as a percentile's sample count) and again in the JSON
//! object that is always the last line of standard output:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {name: {value, unit}}}`.

use std::fmt::Write as _;

struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
    note: String,
}

/// The result of one workload run.
pub struct Report {
    workload: String,
    info: Vec<String>,
    metrics: Vec<Metric>,
    failed_checks: Vec<String>,
    /// Operations attempted (instances mapped, reads sent, …).
    pub attempted: u64,
    /// Attempted operations that failed.
    pub failed: u64,
}

impl Report {
    pub fn new(workload: &str) -> Self {
        Self {
            workload: workload.to_owned(),
            info: Vec::new(),
            metrics: Vec::new(),
            failed_checks: Vec::new(),
            attempted: 0,
            failed: 0,
        }
    }

    /// A context line printed before the metrics.
    pub fn info(&mut self, line: impl Into<String>) {
        self.info.push(line.into());
    }

    /// Records a metric. A non-finite value is an internal error and fails
    /// the `metric-finite` check rather than reaching the JSON line.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str, note: impl Into<String>) {
        if !value.is_finite() {
            self.check(false, "metric-finite", format!("{name} = {value}"));
            return;
        }
        self.metrics.push(Metric {
            name: name.to_owned(),
            value,
            unit,
            note: note.into(),
        });
    }

    /// Records the outcome of an output check; a failure names the workload
    /// and the check on standard error and makes the run exit non-zero.
    pub fn check(&mut self, ok: bool, check: &str, detail: impl Into<String>) {
        if !ok {
            let line = format!(
                "{}: check `{check}` failed: {}",
                self.workload,
                detail.into()
            );
            eprintln!("perfbench: {line}");
            self.failed_checks.push(line);
        }
    }

    pub fn correct(&self) -> bool {
        self.failed_checks.is_empty()
    }

    /// Prints the context lines, one line per metric, and the JSON result
    /// as the last line.
    pub fn print(&self) {
        for line in &self.info {
            println!("{line}");
        }
        for m in &self.metrics {
            let note = if m.note.is_empty() {
                String::new()
            } else {
                format!("  ({})", m.note)
            };
            println!("  {:<28} = {} {}{note}", m.name, m.value, m.unit);
        }
        for line in &self.failed_checks {
            println!("  FAILED {line}");
        }
        println!("{}", self.json());
    }

    fn json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            // f64's Display prints every digit needed to round-trip and never
            // uses exponent notation, so it is valid JSON as is.
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

/// Median of a sample (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile of `values` (`q` in 0..=1).
pub fn percentile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return f64::NAN;
    }
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Peak resident set size of this process so far, in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}
