//! Immutable snapshots of the registry and their exporters (always
//! compiled, with or without the `obs` feature, so downstream code can
//! hold and serialize snapshots unconditionally).

use crate::HIST_BUCKETS;

/// Aggregated timings of one span path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanSnapshot {
    /// Nesting path, names joined with `/` (`cli.query/core.engine.top_k`).
    pub path: String,
    /// Number of completed spans on this path.
    pub count: u64,
    /// Total wall time in nanoseconds.
    pub total_ns: u64,
}

impl SpanSnapshot {
    /// Last path segment (the span's own name).
    pub fn name(&self) -> &str {
        self.path.rsplit('/').next().unwrap_or(&self.path)
    }

    /// Nesting depth (0 for root spans).
    pub fn depth(&self) -> usize {
        self.path.matches('/').count()
    }

    /// Mean nanoseconds per span, `0` when `count == 0`.
    pub fn mean_ns(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.total_ns / self.count
        }
    }
}

/// Value of one counter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterSnapshot {
    /// Counter name (`crate.component.op` convention).
    pub name: String,
    /// Current value.
    pub value: u64,
    /// `true` when the value was written with gauge semantics
    /// (`hetesim_obs::set`) rather than accumulated; decides the
    /// Prometheus metric type.
    pub gauge: bool,
}

/// Frozen contents of one log₂ histogram.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Histogram name.
    pub name: String,
    /// Number of recorded values.
    pub count: u64,
    /// Sum of recorded values (128-bit: `u64::MAX` recordings must not
    /// wrap).
    pub sum: u128,
    /// Per-bucket counts; see [`crate::bucket_of`] for the layout.
    pub buckets: Vec<u64>,
}

impl HistogramSnapshot {
    /// An empty histogram with the given name.
    pub fn empty(name: impl Into<String>) -> HistogramSnapshot {
        HistogramSnapshot {
            name: name.into(),
            count: 0,
            sum: 0,
            buckets: vec![0; HIST_BUCKETS],
        }
    }

    /// Records one value (snapshot-side convenience for tests and for
    /// building histograms outside the global registry).
    pub fn record(&mut self, value: u64) {
        self.buckets[crate::bucket_of(value)] += 1;
        self.count += 1;
        self.sum += value as u128;
    }

    /// Bucket-wise sum of two histograms of the same shape.
    pub fn merge(&self, other: &HistogramSnapshot) -> HistogramSnapshot {
        assert_eq!(
            self.buckets.len(),
            other.buckets.len(),
            "merging histograms of different bucket counts"
        );
        HistogramSnapshot {
            name: self.name.clone(),
            count: self.count + other.count,
            sum: self.sum + other.sum,
            buckets: self
                .buckets
                .iter()
                .zip(&other.buckets)
                .map(|(a, b)| a + b)
                .collect(),
        }
    }

    /// Upper bound (exclusive) of values in bucket `i`; `None` for the top
    /// bucket, which is unbounded.
    pub fn bucket_upper(i: usize) -> Option<u64> {
        match i {
            0 => Some(1),
            _ if i >= 64 => None,
            _ => Some(1u64 << i),
        }
    }

    /// The smallest bucket upper bound such that at least half the recorded
    /// values fall at or below it — a cheap p50 estimate for reports.
    pub fn approx_median_upper(&self) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen * 2 >= self.count {
                return Self::bucket_upper(i).or(Some(u64::MAX));
            }
        }
        Some(u64::MAX)
    }
}

/// Everything the registry knew at one point in time.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Span timings sorted by path.
    pub spans: Vec<SpanSnapshot>,
    /// Counters sorted by name.
    pub counters: Vec<CounterSnapshot>,
    /// Histograms sorted by name.
    pub histograms: Vec<HistogramSnapshot>,
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

impl MetricsSnapshot {
    /// `true` when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty() && self.counters.is_empty() && self.histograms.is_empty()
    }

    /// Value of the named counter, if recorded.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|c| c.name == name)
            .map(|c| c.value)
    }

    /// The named histogram, if recorded.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.iter().find(|h| h.name == name)
    }

    /// Total time of the named span path, if recorded.
    pub fn span_total_ns(&self, path: &str) -> Option<u64> {
        self.spans
            .iter()
            .find(|s| s.path == path)
            .map(|s| s.total_ns)
    }

    /// Entry-wise sum of two snapshots: spans merge by path, counters add
    /// by name, histograms merge bucket-wise by name. Entries present in
    /// only one side are carried over.
    pub fn merge(&self, other: &MetricsSnapshot) -> MetricsSnapshot {
        fn merge_by<T: Clone, K: Ord + Clone>(
            a: &[T],
            b: &[T],
            key: impl Fn(&T) -> K,
            combine: impl Fn(&T, &T) -> T,
        ) -> Vec<T> {
            let mut out: Vec<T> = Vec::with_capacity(a.len() + b.len());
            let (mut i, mut j) = (0, 0);
            while i < a.len() && j < b.len() {
                match key(&a[i]).cmp(&key(&b[j])) {
                    std::cmp::Ordering::Less => {
                        out.push(a[i].clone());
                        i += 1;
                    }
                    std::cmp::Ordering::Greater => {
                        out.push(b[j].clone());
                        j += 1;
                    }
                    std::cmp::Ordering::Equal => {
                        out.push(combine(&a[i], &b[j]));
                        i += 1;
                        j += 1;
                    }
                }
            }
            out.extend(a[i..].iter().cloned());
            out.extend(b[j..].iter().cloned());
            out
        }
        MetricsSnapshot {
            spans: merge_by(
                &self.spans,
                &other.spans,
                |s| s.path.clone(),
                |x, y| SpanSnapshot {
                    path: x.path.clone(),
                    count: x.count + y.count,
                    total_ns: x.total_ns + y.total_ns,
                },
            ),
            counters: merge_by(
                &self.counters,
                &other.counters,
                |c| c.name.clone(),
                |x, y| CounterSnapshot {
                    name: x.name.clone(),
                    // Gauges are point-in-time readings: merging takes the
                    // larger one instead of a meaningless sum.
                    value: if x.gauge || y.gauge {
                        x.value.max(y.value)
                    } else {
                        x.value + y.value
                    },
                    gauge: x.gauge || y.gauge,
                },
            ),
            histograms: merge_by(
                &self.histograms,
                &other.histograms,
                |h| h.name.clone(),
                |x, y| x.merge(y),
            ),
        }
    }

    /// Point-in-time difference: what happened between `earlier` and
    /// `self` (two snapshots of the same registry, `earlier` taken
    /// first). Spans, plain counters, and histograms subtract entry-wise;
    /// gauges keep the current reading. Entries that did not change are
    /// dropped, so profiling a window over a long-lived server only shows
    /// that window's activity.
    ///
    /// Counter resets are detected, not smeared: a monotonic counter (or
    /// histogram count) that reads *lower* than it did in `earlier` can
    /// only mean the registry was reset (or the counter wrapped) between
    /// the two snapshots, so the delta is the new reading itself — the
    /// activity since the reset — rather than a saturated-to-zero nothing
    /// that silently swallows the window.
    pub fn diff(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        let spans = self
            .spans
            .iter()
            .filter_map(|s| {
                let prev = earlier.spans.iter().find(|p| p.path == s.path);
                let (count, total_ns) = match prev {
                    Some(p) => (
                        s.count.saturating_sub(p.count),
                        s.total_ns.saturating_sub(p.total_ns),
                    ),
                    None => (s.count, s.total_ns),
                };
                if count == 0 && total_ns == 0 {
                    return None;
                }
                Some(SpanSnapshot {
                    path: s.path.clone(),
                    count,
                    total_ns,
                })
            })
            .collect();
        let counters = self
            .counters
            .iter()
            .filter_map(|c| {
                if c.gauge {
                    return Some(c.clone());
                }
                let prev = earlier.counter(&c.name).unwrap_or(0);
                // Reset-safe: new < old means the registry was cleared (or
                // the counter wrapped); everything now visible happened
                // after the reset.
                let value = if c.value < prev {
                    c.value
                } else {
                    c.value - prev
                };
                if value == 0 {
                    return None;
                }
                Some(CounterSnapshot {
                    name: c.name.clone(),
                    value,
                    gauge: false,
                })
            })
            .collect();
        let histograms = self
            .histograms
            .iter()
            .filter_map(|h| {
                let mut out = h.clone();
                if let Some(prev) = earlier.histogram(&h.name) {
                    if h.count < prev.count {
                        // Reset between the snapshots: the whole current
                        // histogram is the window's activity.
                    } else {
                        out.count = h.count - prev.count;
                        out.sum = h.sum.saturating_sub(prev.sum);
                        for (b, p) in out.buckets.iter_mut().zip(prev.buckets.iter()) {
                            *b = b.saturating_sub(*p);
                        }
                    }
                }
                if out.count == 0 {
                    return None;
                }
                Some(out)
            })
            .collect();
        MetricsSnapshot {
            spans,
            counters,
            histograms,
        }
    }

    /// Serializes to a stable JSON document:
    ///
    /// ```json
    /// {
    ///   "spans": [{"path": "...", "count": 1, "total_ns": 5, "mean_ns": 5}],
    ///   "counters": {"core.cache.halves.hits": 2},
    ///   "histograms": {"sparse.csr.matmul.flops":
    ///       {"count": 1, "sum": 64, "buckets": [[7, 1]]}}
    /// }
    /// ```
    ///
    /// Histogram buckets are `[bucket_index, count]` pairs for non-empty
    /// buckets only. Keys are sorted, so byte-wise diffs are meaningful.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"spans\": [");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"path\": \"{}\", \"count\": {}, \"total_ns\": {}, \"mean_ns\": {}}}",
                json_escape(&s.path),
                s.count,
                s.total_ns,
                s.mean_ns()
            ));
        }
        if !self.spans.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("],\n  \"counters\": {");
        for (i, c) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\n    \"{}\": {}", json_escape(&c.name), c.value));
        }
        if !self.counters.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("},\n  \"histograms\": {");
        for (i, h) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let buckets: Vec<String> = h
                .buckets
                .iter()
                .enumerate()
                .filter(|(_, &c)| c > 0)
                .map(|(idx, &c)| format!("[{idx}, {c}]"))
                .collect();
            out.push_str(&format!(
                "\n    \"{}\": {{\"count\": {}, \"sum\": {}, \"buckets\": [{}]}}",
                json_escape(&h.name),
                h.count,
                h.sum,
                buckets.join(", ")
            ));
        }
        if !self.histograms.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("}\n}\n");
        out
    }

    /// Serializes to Prometheus text exposition format 0.0.4.
    ///
    /// * counters become `<name>_total` `counter` families (dots and other
    ///   invalid characters mapped to `_`);
    /// * values written via `hetesim_obs::set` become `gauge` families
    ///   under their sanitized name;
    /// * spans become two labelled families,
    ///   `hetesim_span_duration_nanoseconds_total{path="…"}` and
    ///   `hetesim_span_count_total{path="…"}`;
    /// * log₂ histograms become cumulative `histogram` families with exact
    ///   integer bucket bounds (`le="0"`, `le="1"`, `le="3"`, …, `le="+Inf"`)
    ///   plus `_sum` and `_count`;
    /// * every family gets a `# HELP` line — hand-written for the
    ///   utilization/profiling series, generic for the rest.
    ///
    /// Serve this as `text/plain; version=0.0.4`.
    pub fn to_prometheus(&self) -> String {
        /// Help text for the dotted registry name behind a family.
        fn help_for(dotted: &str) -> String {
            let known = match dotted {
                "sparse.parallel.worker_busy_us" => {
                    "Microseconds each SpGEMM pool worker spent processing claimed chunks."
                }
                "sparse.parallel.worker_idle_us" => {
                    "Microseconds each SpGEMM pool worker spent waiting to claim a chunk."
                }
                "sparse.parallel.imbalance" => {
                    "Max/mean busy time across SpGEMM numeric-pass workers, \
                     in thousandths (1000 = perfectly balanced)."
                }
                "serve.server.worker_busy_us" => {
                    "Microseconds a serve worker spent handling one request."
                }
                "serve.server.worker_idle_us" => {
                    "Microseconds a serve worker waited between requests."
                }
                "serve.server.latency_us" => {
                    "End-to-end request latency in microseconds, accept to response written."
                }
                "obs.ts.ticks" => "Completed history sampler ticks.",
                "obs.ts.resident_bytes" => {
                    "Approximate bytes retained by the metrics history ring."
                }
                "obs.ts.samples_merged" => {
                    "Fine history samples merged into coarser tiers so far."
                }
                "obs.ts.samples_evicted" => {
                    "History samples dropped to stay within capacity or byte budget."
                }
                "obs.ts.sample_us" => {
                    "Microseconds one history sampler tick spent snapshotting and folding."
                }
                "obs.slo.availability_burn_fast_permille" => {
                    "Availability error-budget burn rate over the fast (5 m) window, in thousandths."
                }
                "obs.slo.availability_burn_slow_permille" => {
                    "Availability error-budget burn rate over the slow (1 h) window, in thousandths."
                }
                "obs.slo.latency_burn_fast_permille" => {
                    "Latency error-budget burn rate over the fast (5 m) window, in thousandths."
                }
                "obs.slo.latency_burn_slow_permille" => {
                    "Latency error-budget burn rate over the slow (1 h) window, in thousandths."
                }
                "obs.slo.alert_state" => {
                    "Worst SLO alert state: 0 = ok, 1 = warning, 2 = page."
                }
                _ => return format!("Value of the {dotted} observability metric."),
            };
            known.to_string()
        }
        fn prom_name(name: &str) -> String {
            let mut out = String::with_capacity(name.len() + 1);
            for c in name.chars() {
                if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
                    out.push(c);
                } else {
                    out.push('_');
                }
            }
            match out.chars().next() {
                Some(c) if !c.is_ascii_digit() => {}
                _ => out.insert(0, '_'),
            }
            out
        }
        fn prom_label(value: &str) -> String {
            let mut out = String::with_capacity(value.len());
            for c in value.chars() {
                match c {
                    '\\' => out.push_str("\\\\"),
                    '"' => out.push_str("\\\""),
                    '\n' => out.push_str("\\n"),
                    c => out.push(c),
                }
            }
            out
        }
        let mut out = String::new();
        for c in &self.counters {
            let base = prom_name(&c.name);
            let help = help_for(&c.name);
            if c.gauge {
                out.push_str(&format!(
                    "# HELP {base} {help}\n# TYPE {base} gauge\n{base} {}\n",
                    c.value
                ));
            } else {
                let name = if base.ends_with("_total") {
                    base
                } else {
                    format!("{base}_total")
                };
                out.push_str(&format!(
                    "# HELP {name} {help}\n# TYPE {name} counter\n{name} {}\n",
                    c.value
                ));
            }
        }
        if !self.spans.is_empty() {
            out.push_str(
                "# HELP hetesim_span_duration_nanoseconds_total \
                 Cumulative wall time per aggregated span stack path.\n",
            );
            out.push_str("# TYPE hetesim_span_duration_nanoseconds_total counter\n");
            for s in &self.spans {
                out.push_str(&format!(
                    "hetesim_span_duration_nanoseconds_total{{path=\"{}\"}} {}\n",
                    prom_label(&s.path),
                    s.total_ns
                ));
            }
            out.push_str(
                "# HELP hetesim_span_count_total \
                 Completed executions per aggregated span stack path.\n",
            );
            out.push_str("# TYPE hetesim_span_count_total counter\n");
            for s in &self.spans {
                out.push_str(&format!(
                    "hetesim_span_count_total{{path=\"{}\"}} {}\n",
                    prom_label(&s.path),
                    s.count
                ));
            }
        }
        for h in &self.histograms {
            let name = prom_name(&h.name);
            out.push_str(&format!("# HELP {name} {}\n", help_for(&h.name)));
            out.push_str(&format!("# TYPE {name} histogram\n"));
            // Cumulative buckets up to the highest non-empty one; the log₂
            // layout gives exact inclusive integer bounds (bucket i < 64
            // holds values ≤ 2^i − 1). The rest collapses into +Inf.
            let last = h
                .buckets
                .iter()
                .rposition(|&c| c > 0)
                .map_or(0, |i| i.min(63));
            let mut cumulative = 0u64;
            for i in 0..=last {
                cumulative += h.buckets.get(i).copied().unwrap_or(0);
                let le = if i == 0 { 0 } else { (1u64 << i) - 1 };
                out.push_str(&format!("{name}_bucket{{le=\"{le}\"}} {cumulative}\n"));
            }
            out.push_str(&format!("{name}_bucket{{le=\"+Inf\"}} {}\n", h.count));
            out.push_str(&format!("{name}_sum {}\n", h.sum));
            out.push_str(&format!("{name}_count {}\n", h.count));
        }
        out
    }

    /// Renders an indented, human-readable report: the span tree (children
    /// indented under their parents, with percentage of parent time), then
    /// counters, then histograms.
    pub fn render_tree(&self) -> String {
        fn fmt_ns(ns: u64) -> String {
            if ns >= 1_000_000_000 {
                format!("{:.2}s", ns as f64 / 1e9)
            } else if ns >= 1_000_000 {
                format!("{:.2}ms", ns as f64 / 1e6)
            } else if ns >= 1_000 {
                format!("{:.2}µs", ns as f64 / 1e3)
            } else {
                format!("{ns}ns")
            }
        }
        let mut out = String::new();
        if self.is_empty() {
            out.push_str("(no metrics recorded — was measurement enabled?)\n");
            return out;
        }
        if !self.spans.is_empty() {
            out.push_str("spans:\n");
            for s in &self.spans {
                let parent_total = s
                    .path
                    .rfind('/')
                    .and_then(|cut| self.span_total_ns(&s.path[..cut]));
                let pct = match parent_total {
                    Some(p) if p > 0 => {
                        format!("  ({:.0}% of parent)", 100.0 * s.total_ns as f64 / p as f64)
                    }
                    _ => String::new(),
                };
                out.push_str(&format!(
                    "  {:indent$}{:<32} count {:>6}  total {:>10}  mean {:>10}{}\n",
                    "",
                    s.name(),
                    s.count,
                    fmt_ns(s.total_ns),
                    fmt_ns(s.mean_ns()),
                    pct,
                    indent = s.depth() * 2,
                ));
            }
        }
        if !self.counters.is_empty() {
            out.push_str("counters:\n");
            for c in &self.counters {
                out.push_str(&format!("  {:<44} {}\n", c.name, c.value));
            }
        }
        if !self.histograms.is_empty() {
            out.push_str("histograms:\n");
            for h in &self.histograms {
                let p50 = match h.approx_median_upper() {
                    Some(u) => format!("p50≲{u}"),
                    None => "empty".to_string(),
                };
                out.push_str(&format!(
                    "  {:<44} count {:>8}  sum {:>14}  {}\n",
                    h.name, h.count, h.sum, p50
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> MetricsSnapshot {
        let mut h = HistogramSnapshot::empty("h.one");
        h.record(0);
        h.record(7);
        MetricsSnapshot {
            spans: vec![
                SpanSnapshot {
                    path: "a.root".into(),
                    count: 2,
                    total_ns: 100,
                },
                SpanSnapshot {
                    path: "a.root/b.child".into(),
                    count: 4,
                    total_ns: 60,
                },
            ],
            counters: vec![CounterSnapshot {
                name: "c.hits".into(),
                value: 3,
                gauge: false,
            }],
            histograms: vec![h],
        }
    }

    #[test]
    fn json_is_stable_and_contains_everything() {
        let snap = sample();
        let a = snap.to_json();
        let b = snap.to_json();
        assert_eq!(a, b);
        for needle in [
            "\"a.root\"",
            "\"a.root/b.child\"",
            "\"c.hits\": 3",
            "\"h.one\"",
            "\"count\": 2",
            "[0, 1]",
            "[3, 1]",
        ] {
            assert!(a.contains(needle), "missing {needle} in:\n{a}");
        }
        // Balanced braces / brackets as a cheap well-formedness check.
        assert_eq!(a.matches('{').count(), a.matches('}').count());
        assert_eq!(a.matches('[').count(), a.matches(']').count());
    }

    #[test]
    fn empty_snapshot_json_shape() {
        let j = MetricsSnapshot::default().to_json();
        assert!(j.contains("\"spans\": []"), "{j}");
        assert!(j.contains("\"counters\": {}"), "{j}");
        assert!(MetricsSnapshot::default().is_empty());
    }

    #[test]
    fn tree_indents_children_and_reports_percent() {
        let text = sample().render_tree();
        assert!(text.contains("a.root"), "{text}");
        assert!(text.contains("    b.child"), "child indented: {text}");
        assert!(text.contains("60% of parent"), "{text}");
        assert!(text.contains("c.hits"), "{text}");
    }

    #[test]
    fn merge_adds_matching_and_carries_disjoint() {
        let a = sample();
        let mut other_hist = HistogramSnapshot::empty("h.two");
        other_hist.record(5);
        let b = MetricsSnapshot {
            spans: vec![SpanSnapshot {
                path: "a.root".into(),
                count: 1,
                total_ns: 50,
            }],
            counters: vec![
                CounterSnapshot {
                    name: "c.hits".into(),
                    value: 2,
                    gauge: false,
                },
                CounterSnapshot {
                    name: "c.other".into(),
                    value: 9,
                    gauge: false,
                },
            ],
            histograms: vec![other_hist],
        };
        let m = a.merge(&b);
        assert_eq!(m.counter("c.hits"), Some(5));
        assert_eq!(m.counter("c.other"), Some(9));
        assert_eq!(m.span_total_ns("a.root"), Some(150));
        assert_eq!(m.span_total_ns("a.root/b.child"), Some(60));
        assert_eq!(m.histogram("h.one").unwrap().count, 2);
        assert_eq!(m.histogram("h.two").unwrap().count, 1);
    }

    #[test]
    fn histogram_edge_values() {
        let mut h = HistogramSnapshot::empty("edge");
        h.record(0);
        h.record(1);
        h.record(u64::MAX);
        assert_eq!(h.count, 3);
        assert_eq!(h.buckets[0], 1);
        assert_eq!(h.buckets[1], 1);
        assert_eq!(h.buckets[64], 1);
        assert_eq!(h.sum, u64::MAX as u128 + 1);
    }

    #[test]
    fn merge_of_disjoint_recordings() {
        let mut a = HistogramSnapshot::empty("d");
        let mut b = HistogramSnapshot::empty("d");
        a.record(0);
        a.record(1);
        b.record(u64::MAX);
        b.record(1 << 40);
        let m = a.merge(&b);
        assert_eq!(m.count, 4);
        assert_eq!(m.buckets.iter().sum::<u64>(), 4);
        assert_eq!(m.sum, a.sum + b.sum);
        // Merge with an empty histogram is the identity.
        let e = HistogramSnapshot::empty("d");
        assert_eq!(m.merge(&e), m);
    }

    #[test]
    fn prometheus_exposition_is_wellformed() {
        let mut snap = sample();
        snap.counters.push(CounterSnapshot {
            name: "c.depth".into(),
            value: 5,
            gauge: true,
        });
        let text = snap.to_prometheus();
        // Counters get _total, gauges keep their name.
        assert!(text.contains("# TYPE c_hits_total counter\n"), "{text}");
        assert!(text.contains("c_hits_total 3\n"), "{text}");
        assert!(text.contains("# TYPE c_depth gauge\n"), "{text}");
        assert!(text.contains("c_depth 5\n"), "{text}");
        // Spans as labelled families.
        assert!(
            text.contains("hetesim_span_duration_nanoseconds_total{path=\"a.root/b.child\"} 60"),
            "{text}"
        );
        assert!(
            text.contains("hetesim_span_count_total{path=\"a.root\"} 2"),
            "{text}"
        );
        // Histogram h.one recorded 0 and 7: buckets le=0 →1, le=1 →1,
        // le=3 →1, le=7 →2, +Inf = count.
        assert!(text.contains("# TYPE h_one histogram\n"), "{text}");
        assert!(text.contains("h_one_bucket{le=\"0\"} 1\n"), "{text}");
        assert!(text.contains("h_one_bucket{le=\"7\"} 2\n"), "{text}");
        assert!(text.contains("h_one_bucket{le=\"+Inf\"} 2\n"), "{text}");
        assert!(text.contains("h_one_sum 7\n"), "{text}");
        assert!(text.contains("h_one_count 2\n"), "{text}");
        // Every non-comment line is `name{labels} value` with a numeric
        // value, and bucket series are cumulative.
        for line in text.lines() {
            if line.starts_with('#') {
                continue;
            }
            let value = line.rsplit(' ').next().unwrap();
            assert!(value.parse::<f64>().is_ok(), "non-numeric value: {line}");
        }
    }

    #[test]
    fn every_prometheus_family_has_a_help_line() {
        let mut snap = sample();
        snap.counters.push(CounterSnapshot {
            name: "sparse.parallel.imbalance".into(),
            value: 1042,
            gauge: true,
        });
        let text = snap.to_prometheus();
        for line in text.lines() {
            if let Some(rest) = line.strip_prefix("# TYPE ") {
                let family = rest.split(' ').next().unwrap();
                assert!(
                    text.contains(&format!("# HELP {family} ")),
                    "family {family} lacks # HELP:\n{text}"
                );
            }
        }
        // The utilization series get hand-written help, not the fallback.
        assert!(
            text.contains("# HELP sparse_parallel_imbalance Max/mean"),
            "{text}"
        );
    }

    #[test]
    fn diff_subtracts_window_and_keeps_gauges() {
        let earlier = sample();
        let mut now = sample();
        now.spans[1].count += 3;
        now.spans[1].total_ns += 40;
        now.counters[0].value += 5;
        now.counters.push(CounterSnapshot {
            name: "g.depth".into(),
            value: 7,
            gauge: true,
        });
        now.histograms[0].record(100);
        let d = now.diff(&earlier);
        // Unchanged entries are dropped; changed ones show the delta.
        assert_eq!(d.span_total_ns("a.root"), None);
        assert_eq!(d.span_total_ns("a.root/b.child"), Some(40));
        assert_eq!(
            d.spans
                .iter()
                .find(|s| s.path == "a.root/b.child")
                .unwrap()
                .count,
            3
        );
        assert_eq!(d.counter("c.hits"), Some(5));
        // Gauges are point-in-time: kept at the current reading.
        assert_eq!(d.counter("g.depth"), Some(7));
        let h = d.histogram("h.one").unwrap();
        assert_eq!(h.count, 1);
        assert_eq!(h.sum, 100);
        // Diffing a gauge-free snapshot against itself is empty (gauges
        // are point-in-time readings and always survive).
        assert!(earlier.diff(&earlier).is_empty());
    }

    #[test]
    fn diff_detects_counter_reset() {
        // The registry was reset (or a counter wrapped) between the two
        // snapshots: the new reading is *lower* than the old one. The
        // delta must be the new reading — activity since the reset — not
        // a saturated zero that hides the window.
        let earlier = sample(); // c.hits = 3, h.one: {0, 7}, count 2
        let mut now = MetricsSnapshot::default();
        now.counters.push(CounterSnapshot {
            name: "c.hits".into(),
            value: 2,
            gauge: false,
        });
        let mut h = HistogramSnapshot::empty("h.one");
        h.record(9);
        now.histograms.push(h);
        let d = now.diff(&earlier);
        assert_eq!(d.counter("c.hits"), Some(2));
        let h = d.histogram("h.one").unwrap();
        assert_eq!(h.count, 1);
        assert_eq!(h.sum, 9);
        assert_eq!(h.buckets.iter().sum::<u64>(), 1);
        // A genuine no-op window still diffs to empty.
        assert!(earlier.diff(&earlier).is_empty());
    }

    #[test]
    fn gauge_merge_takes_max_not_sum() {
        let gauge = |v| CounterSnapshot {
            name: "g.depth".into(),
            value: v,
            gauge: true,
        };
        let a = MetricsSnapshot {
            counters: vec![gauge(3)],
            ..Default::default()
        };
        let b = MetricsSnapshot {
            counters: vec![gauge(9)],
            ..Default::default()
        };
        let m = a.merge(&b);
        assert_eq!(m.counter("g.depth"), Some(9));
        assert!(m.counters[0].gauge);
    }

    #[test]
    fn approx_median_tracks_mass() {
        let mut h = HistogramSnapshot::empty("m");
        for _ in 0..10 {
            h.record(2);
        }
        h.record(1 << 30);
        assert_eq!(h.approx_median_upper(), Some(4));
        assert_eq!(HistogramSnapshot::empty("m").approx_median_upper(), None);
    }
}
