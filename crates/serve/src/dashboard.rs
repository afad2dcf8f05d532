//! `GET /dashboard`: a single self-contained HTML+SVG live view over the
//! retained metric history — hand-rolled markup in the same discipline as
//! `hetesim_obs`'s flamegraph renderer (no scripts, no external assets,
//! every tag balanced, all text escaped). The page refreshes itself with
//! a `<meta>` refresh, so it works in anything that renders HTML.

use hetesim_obs::{AlertState, History, ObjectiveReport, SloSpec, FAST_WINDOW_MS, PAGE_BURN};

/// Sparkline canvas size (viewBox units; the page scales them).
const SPARK_W: f64 = 260.0;
const SPARK_H: f64 = 56.0;

fn escape_xml(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            c => out.push(c),
        }
    }
    out
}

/// One named line of a sparkline panel.
struct Line {
    label: &'static str,
    color: &'static str,
    points: Vec<(u64, f64)>,
}

/// A `<svg>` sparkline over one or more series sharing axes. The y axis
/// starts at zero (honest scale); x spans the covered time range.
fn sparkline(lines: &[Line]) -> String {
    let mut svg = format!(
        "<svg viewBox=\"0 0 {SPARK_W} {SPARK_H}\" width=\"{SPARK_W}\" height=\"{SPARK_H}\" \
         xmlns=\"http://www.w3.org/2000/svg\" role=\"img\">"
    );
    let (mut x_min, mut x_max, mut y_max) = (u64::MAX, 0u64, 0.0f64);
    for line in lines {
        for &(x, y) in &line.points {
            x_min = x_min.min(x);
            x_max = x_max.max(x);
            y_max = y_max.max(y);
        }
    }
    if x_max <= x_min || lines.iter().all(|l| l.points.len() < 2) {
        svg.push_str(&format!(
            "<text x=\"4\" y=\"{}\" class=\"empty\">collecting…</text>",
            SPARK_H / 2.0
        ));
        svg.push_str("</svg>");
        return svg;
    }
    let y_max = y_max.max(1e-9);
    let span = (x_max - x_min) as f64;
    for line in lines {
        if line.points.len() < 2 {
            continue;
        }
        let mut pts = String::new();
        for &(x, y) in &line.points {
            let px = (x - x_min) as f64 / span * (SPARK_W - 4.0) + 2.0;
            let py = SPARK_H - 3.0 - (y / y_max).min(1.0) * (SPARK_H - 8.0);
            pts.push_str(&format!("{px:.1},{py:.1} "));
        }
        svg.push_str(&format!(
            "<polyline fill=\"none\" stroke=\"{}\" stroke-width=\"1.5\" points=\"{}\"/>",
            line.color,
            pts.trim_end()
        ));
    }
    svg.push_str(&format!(
        "<text x=\"2\" y=\"9\" class=\"axis\">{}</text>",
        escape_xml(&format_value(y_max))
    ));
    if lines.len() > 1 {
        let mut x = SPARK_W - 2.0;
        for line in lines.iter().rev() {
            x -= 8.0 + 6.0 * line.label.len() as f64;
            svg.push_str(&format!(
                "<text x=\"{x:.1}\" y=\"9\" class=\"axis\" fill=\"{}\">{}</text>",
                line.color,
                escape_xml(line.label)
            ));
        }
    }
    svg.push_str("</svg>");
    svg
}

/// Compact human number for axis/current-value labels.
fn format_value(v: f64) -> String {
    if v >= 1_000_000.0 {
        format!("{:.1}M", v / 1_000_000.0)
    } else if v >= 1_000.0 {
        format!("{:.1}k", v / 1_000.0)
    } else if v >= 10.0 {
        format!("{v:.0}")
    } else {
        format!("{v:.2}")
    }
}

/// Per-sample rate (events/s) for a plain counter.
fn rate_series(history: &History, name: &str, window_ms: u64) -> Vec<(u64, f64)> {
    history
        .samples_in(window_ms)
        .filter_map(|s| {
            let c = s
                .delta
                .counters
                .iter()
                .find(|c| c.name == name && !c.gauge)?;
            Some((s.end_ms, c.value as f64 * 1000.0 / s.span_ms.max(1) as f64))
        })
        .collect()
}

/// Per-sample `a / (a + b)` from two counters, as a percentage. Samples
/// where both are zero are skipped (no evidence either way).
fn ratio_series(history: &History, a: &str, b: &str, window_ms: u64) -> Vec<(u64, f64)> {
    history
        .samples_in(window_ms)
        .filter_map(|s| {
            let get = |name: &str| {
                s.delta
                    .counters
                    .iter()
                    .find(|c| c.name == name && !c.gauge)
                    .map_or(0, |c| c.value)
            };
            let (av, bv) = (get(a), get(b));
            if av + bv == 0 {
                return None;
            }
            Some((s.end_ms, av as f64 * 100.0 / (av + bv) as f64))
        })
        .collect()
}

/// Per-sample busy/(busy+idle) worker utilization percentage from the
/// two per-worker time histograms' sums.
fn utilization_series(history: &History, window_ms: u64) -> Vec<(u64, f64)> {
    history
        .samples_in(window_ms)
        .filter_map(|s| {
            let sum = |name: &str| {
                s.delta
                    .histograms
                    .iter()
                    .find(|h| h.name == name)
                    .map_or(0.0, |h| h.sum as f64)
            };
            let busy = sum("serve.server.worker_busy_us");
            let idle = sum("serve.server.worker_idle_us");
            if busy + idle <= 0.0 {
                return None;
            }
            Some((s.end_ms, busy * 100.0 / (busy + idle)))
        })
        .collect()
}

/// Latency quantile series in milliseconds.
fn latency_series_ms(history: &History, q: f64, window_ms: u64) -> Vec<(u64, f64)> {
    history
        .series_quantile("serve.server.latency_us", q, window_ms)
        .iter()
        .map(|p| (p.end_ms, p.value / 1_000.0))
        .collect()
}

fn panel(title: &str, current: &str, svg: &str) -> String {
    format!(
        "<div class=\"panel\"><div class=\"head\"><span class=\"title\">{}</span>\
         <span class=\"now\">{}</span></div>{svg}</div>",
        escape_xml(title),
        escape_xml(current),
    )
}

fn state_color(state: AlertState) -> &'static str {
    match state {
        AlertState::Ok => "#2e7d32",
        AlertState::Warning => "#e65100",
        AlertState::Page => "#b71c1c",
    }
}

/// A two-bar burn gauge (fast + slow window) for one objective. The bar
/// is log-free and clamped: full width = the page threshold.
fn burn_gauge(name: &str, o: &ObjectiveReport) -> String {
    let bar = |label: &str, burn: f64, y: f64| {
        let width = (burn / PAGE_BURN).clamp(0.0, 1.0) * (SPARK_W - 60.0);
        format!(
            "<text x=\"2\" y=\"{ty:.1}\" class=\"axis\">{label}</text>\
             <rect x=\"34\" y=\"{y:.1}\" width=\"{width:.1}\" height=\"10\" fill=\"{color}\"/>\
             <text x=\"{tx:.1}\" y=\"{ty:.1}\" class=\"axis\">{burn:.1}x</text>",
            ty = y + 9.0,
            color = state_color(o.state),
            tx = 38.0 + width,
        )
    };
    let svg = format!(
        "<svg viewBox=\"0 0 {SPARK_W} {SPARK_H}\" width=\"{SPARK_W}\" height=\"{SPARK_H}\" \
         xmlns=\"http://www.w3.org/2000/svg\" role=\"img\">{}{}\
         <line x1=\"{pw:.1}\" y1=\"2\" x2=\"{pw:.1}\" y2=\"{}\" stroke=\"#b71c1c\" \
         stroke-dasharray=\"2,2\"/></svg>",
        bar("5m", o.fast_burn, 6.0),
        bar("1h", o.slow_burn, 28.0),
        SPARK_H - 2.0,
        pw = 34.0 + (SPARK_W - 60.0),
    );
    panel(
        &format!("{name} burn (target {:.3})", o.target),
        o.state.as_str(),
        &svg,
    )
}

/// Renders the whole dashboard page from the current history.
pub(crate) fn render(history: &History, slo: &SloSpec) -> String {
    let w = FAST_WINDOW_MS;
    let report = slo.evaluate(history);
    let mut page = String::from(
        "<!DOCTYPE html>\n<html lang=\"en\"><head><meta charset=\"utf-8\">\
         <meta http-equiv=\"refresh\" content=\"2\">\
         <title>hetesim dashboard</title><style>\
         body{font:13px system-ui,sans-serif;background:#fafafa;color:#222;margin:16px}\
         h1{font-size:16px;margin:0 0 2px}\
         .sub{color:#777;margin-bottom:12px}\
         .grid{display:flex;flex-wrap:wrap;gap:12px}\
         .panel{background:#fff;border:1px solid #ddd;border-radius:4px;padding:8px}\
         .head{display:flex;justify-content:space-between;margin-bottom:4px}\
         .title{font-weight:600}.now{color:#555}\
         .axis{font:9px monospace;fill:#999}.empty{font:11px sans-serif;fill:#999}\
         .banner{display:inline-block;padding:2px 10px;border-radius:10px;color:#fff;\
         font-weight:600}\
         </style></head><body>\n",
    );
    page.push_str(&format!(
        "<h1>hetesim serve — live <span class=\"banner\" style=\"background:{}\">{}</span></h1>\n",
        state_color(report.worst),
        escape_xml(report.worst.as_str()),
    ));
    page.push_str(&format!(
        "<div class=\"sub\">trailing 5 m · tick {} ms · history {} / {} bytes \
         ({} samples, {} merged, {} evicted)</div>\n<div class=\"grid\">\n",
        history.config().tick_ms,
        history.resident_bytes(),
        history.config().budget_bytes,
        history.sample_count(),
        history.samples_merged(),
        history.samples_evicted(),
    ));

    let rps = rate_series(history, "serve.server.requests", w);
    let now_rps = rps.last().map_or(0.0, |&(_, v)| v);
    page.push_str(&panel(
        "requests / s",
        &format_value(now_rps),
        &sparkline(&[Line {
            label: "rps",
            color: "#1565c0",
            points: rps,
        }]),
    ));

    let p50 = latency_series_ms(history, 0.50, w);
    let p95 = latency_series_ms(history, 0.95, w);
    let p99 = latency_series_ms(history, 0.99, w);
    let now_p99 = p99.last().map_or(0.0, |&(_, v)| v);
    page.push_str(&panel(
        "latency ms (p50 / p95 / p99)",
        &format!("p99 {}", format_value(now_p99)),
        &sparkline(&[
            Line {
                label: "p50",
                color: "#90caf9",
                points: p50,
            },
            Line {
                label: "p95",
                color: "#1e88e5",
                points: p95,
            },
            Line {
                label: "p99",
                color: "#0d47a1",
                points: p99,
            },
        ]),
    ));

    let shed = rate_series(history, "serve.server.shed", w);
    let now_shed = shed.last().map_or(0.0, |&(_, v)| v);
    page.push_str(&panel(
        "shed / s",
        &format_value(now_shed),
        &sparkline(&[Line {
            label: "shed",
            color: "#c62828",
            points: shed,
        }]),
    ));

    let hit = ratio_series(
        history,
        "core.cache.halves.hits",
        "core.cache.halves.misses",
        w,
    );
    let now_hit = hit.last().map_or(0.0, |&(_, v)| v);
    page.push_str(&panel(
        "cache hit %",
        &format!("{now_hit:.0}%"),
        &sparkline(&[Line {
            label: "hit%",
            color: "#6a1b9a",
            points: hit,
        }]),
    ));

    let util = utilization_series(history, w);
    let now_util = util.last().map_or(0.0, |&(_, v)| v);
    page.push_str(&panel(
        "worker utilization %",
        &format!("{now_util:.0}%"),
        &sparkline(&[Line {
            label: "util%",
            color: "#00695c",
            points: util,
        }]),
    ));

    page.push_str(&burn_gauge("availability", &report.availability));
    page.push_str(&burn_gauge("latency", &report.latency));

    page.push_str("</div>\n</body></html>\n");
    page
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetesim_obs::{CounterSnapshot, HistogramSnapshot, HistoryConfig, MetricsSnapshot, Sample};

    fn busy_history() -> History {
        let mut h = History::new(HistoryConfig::default());
        for i in 0..30u64 {
            let mut lat = HistogramSnapshot::empty("serve.server.latency_us");
            let mut busy = HistogramSnapshot::empty("serve.server.worker_busy_us");
            let mut idle = HistogramSnapshot::empty("serve.server.worker_idle_us");
            for _ in 0..20 {
                lat.record(800 + i * 10);
            }
            busy.record(700);
            idle.record(300);
            h.push_delta(Sample {
                end_ms: (i + 1) * 1000,
                span_ms: 1000,
                delta: MetricsSnapshot {
                    counters: vec![
                        CounterSnapshot {
                            name: "serve.server.requests".to_string(),
                            value: 20,
                            gauge: false,
                        },
                        CounterSnapshot {
                            name: "core.cache.halves.hits".to_string(),
                            value: 15,
                            gauge: false,
                        },
                        CounterSnapshot {
                            name: "core.cache.halves.misses".to_string(),
                            value: 5,
                            gauge: false,
                        },
                    ],
                    histograms: vec![lat, busy, idle],
                    ..Default::default()
                },
            });
        }
        h
    }

    #[test]
    fn page_is_balanced_and_has_every_panel() {
        let html = render(&busy_history(), &SloSpec::default());
        assert!(html.starts_with("<!DOCTYPE html>"), "{}", &html[..60]);
        assert!(html.trim_end().ends_with("</html>"));
        assert_eq!(html.matches("<svg").count(), html.matches("</svg>").count());
        assert_eq!(html.matches("<div").count(), html.matches("</div>").count());
        for needle in [
            "requests / s",
            "latency ms (p50 / p95 / p99)",
            "shed / s",
            "cache hit %",
            "worker utilization %",
            "availability burn",
            "latency burn",
            "<polyline",
            "http-equiv=\"refresh\"",
        ] {
            assert!(html.contains(needle), "{needle} missing");
        }
        // No scripts, no external fetches: self-contained by construction.
        assert!(!html.contains("<script"));
        assert!(!html.contains("<link"));
        assert!(!html.contains("src="));
        // The only URL anywhere is the SVG namespace declaration.
        assert_eq!(
            html.matches("http://").count(),
            html.matches("http://www.w3.org/2000/svg").count()
        );
        assert_eq!(html.matches("https://").count(), 0);
    }

    #[test]
    fn empty_history_renders_placeholders() {
        let html = render(&History::new(HistoryConfig::default()), &SloSpec::default());
        assert!(html.contains("collecting…"));
        assert_eq!(html.matches("<svg").count(), html.matches("</svg>").count());
    }
}
