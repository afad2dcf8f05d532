//! The result of one run: named metrics with units, printed one per line
//! for people and as one JSON object on the last line for tools.

use crate::stats::Tally;

#[derive(Debug, Default)]
pub struct Report {
    /// The metrics of the JSON line.
    metrics: Vec<(String, f64, &'static str)>,
    /// Lines for people only: context, and the workload's metrics under
    /// their workload-specific names.
    notes: Vec<String>,
    pub tally: Tally,
    /// Set when a determinism self-check failed.
    pub nondeterministic: bool,
}

impl Report {
    /// Records a metric. A value that is not finite (a ratio over nothing)
    /// is recorded as `0`.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.metrics.push((name.to_string(), value, unit));
    }

    /// A line of context printed before the metrics.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// A metric shown to people under its workload-specific name.
    pub fn alias(&mut self, name: &str, value: f64, unit: &str, how: &str) {
        self.note(format!("{name:<28} {value:>14.6} {unit:<5} {how}"));
    }

    /// Notes the individual set-up times behind `setup_s`.
    pub fn setups(&mut self, seconds: &[f64]) {
        let ms: Vec<String> = seconds.iter().map(|s| format!("{:.1}", s * 1e3)).collect();
        self.note(format!("set-ups (ms): {}", ms.join(" ")));
    }

    #[cfg(test)]
    pub fn names(&self) -> Vec<String> {
        self.metrics.iter().map(|(n, _, _)| n.clone()).collect()
    }

    pub fn correct(&self) -> bool {
        self.tally.wrong == 0 && !self.nondeterministic
    }

    /// Prints the human-readable lines, then the JSON line.
    pub fn print(&self) {
        for line in &self.notes {
            println!("# {line}");
        }
        for (name, value, unit) in &self.metrics {
            println!("{name:<36} {value:>16} {unit}");
        }
        let mut json = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.tally.attempted.max(1),
            self.tally.failed()
        );
        let mut first = true;
        for (name, value, unit) in &self.metrics {
            if !first {
                json.push_str(", ");
            }
            first = false;
            json.push_str(&format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
        json.push_str("}}");
        println!("{json}");
    }
}

/// Peak resident set size of this process in megabytes (10^6 bytes).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb * 1024.0 / 1e6)
}
