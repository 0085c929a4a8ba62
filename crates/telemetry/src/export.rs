//! Exporters for [`MetricsSnapshot`](crate::MetricsSnapshot) and
//! [`TimeSeries`](crate::TimeSeries).
//!
//! All three formats are hand-rolled so this crate stays dependency-free
//! and can sit underneath every other crate in the workspace:
//!
//! - [`snapshot_to_json`] — machine-readable, one object per metric,
//!   through the string and float rules [`json_escape`] and [`json_f64`];
//! - [`timeseries_to_csv`] — `time_ns` plus one column per series;
//! - [`snapshot_summary`] — aligned human-readable text for `--telemetry`.

use crate::{MetricValue, MetricsSnapshot, TimeSeries};
use std::fmt::Write as _;

/// Appends `s` as a quoted JSON string. A quote, a backslash, a newline,
/// a carriage return and a tab take their short escapes, every other
/// control character `\u00XX`; everything else is written as is. The
/// workspace's one escaping rule: `experiments::json` writes its strings
/// through here too.
pub fn json_escape(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Appends `v` as a JSON number that always reads as a float: Rust's
/// shortest round-trip form, with `.0` added to an integral value.
/// JSON has no NaN or infinity, so a non-finite `v` is written `null`.
pub fn json_f64(v: f64, out: &mut String) {
    if v.is_finite() {
        let s = format!("{v}");
        out.push_str(&s);
        if !s.contains(['.', 'e', 'E']) {
            out.push_str(".0");
        }
    } else {
        out.push_str("null");
    }
}

/// Serializes a snapshot as a JSON object keyed by metric name.
///
/// Counters become `{"type":"counter","value":N}`, gauges
/// `{"type":"gauge","value":N}`, histograms carry count/sum/min/max/mean
/// and the occupied `[upper_bound, count]` bucket pairs.
pub fn snapshot_to_json(snapshot: &MetricsSnapshot) -> String {
    let mut out = String::from("{\n");
    for (i, (name, value)) in snapshot.metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        out.push_str("  ");
        json_escape(name, &mut out);
        out.push_str(": ");
        match value {
            MetricValue::Counter(v) => {
                let _ = write!(out, "{{\"type\": \"counter\", \"value\": {v}}}");
            }
            MetricValue::Gauge(v) => {
                let _ = write!(out, "{{\"type\": \"gauge\", \"value\": {v}}}");
            }
            MetricValue::Histogram(h) => {
                let _ = write!(
                    out,
                    "{{\"type\": \"histogram\", \"count\": {}, \"sum\": {}, \"min\": {}, \"max\": {}, \"mean\": ",
                    h.count, h.sum, h.min, h.max
                );
                json_f64(h.mean(), &mut out);
                out.push_str(", \"buckets\": [");
                for (j, (bound, n)) in h.buckets.iter().enumerate() {
                    if j > 0 {
                        out.push_str(", ");
                    }
                    let _ = write!(out, "[{bound}, {n}]");
                }
                out.push_str("]}");
            }
        }
    }
    out.push_str("\n}\n");
    out
}

/// Serializes a time series as CSV: `time_ns` first, then the sorted union
/// of column names; rows missing a column leave the cell empty.
pub fn timeseries_to_csv(series: &TimeSeries) -> String {
    let columns = series.columns();
    let mut out = String::from("time_ns");
    for c in &columns {
        out.push(',');
        // Metric names are dot/underscore identifiers; quote defensively
        // if one ever contains a comma or quote.
        if c.contains([',', '"', '\n']) {
            out.push('"');
            out.push_str(&c.replace('"', "\"\""));
            out.push('"');
        } else {
            out.push_str(c);
        }
    }
    out.push('\n');
    for row in &series.rows {
        let _ = write!(out, "{}", row.time_ns);
        for c in &columns {
            out.push(',');
            if let Some((_, v)) = row.values.iter().find(|(n, _)| n == c) {
                let _ = write!(out, "{v}");
            }
        }
        out.push('\n');
    }
    out
}

/// Renders a snapshot as aligned human-readable lines for terminal output.
pub fn snapshot_summary(snapshot: &MetricsSnapshot) -> String {
    let width = snapshot
        .metrics
        .iter()
        .map(|(n, _)| n.len())
        .max()
        .unwrap_or(0);
    let mut out = String::new();
    for (name, value) in &snapshot.metrics {
        match value {
            MetricValue::Counter(v) => {
                let _ = writeln!(out, "{name:<width$}  {v}");
            }
            MetricValue::Gauge(v) => {
                let _ = writeln!(out, "{name:<width$}  {v}");
            }
            MetricValue::Histogram(h) => {
                let _ = writeln!(
                    out,
                    "{name:<width$}  count={} mean={:.1} min={} max={}",
                    h.count,
                    h.mean(),
                    h.min,
                    h.max
                );
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MetricsRegistry;

    fn sample_registry() -> MetricsRegistry {
        let r = MetricsRegistry::new();
        r.counter("kernel.context_switches").add(12);
        r.gauge("kernel.runq_depth").set(-3);
        let h = r.histogram("kernel.pick_ns");
        h.record(0);
        h.record(5);
        h.record(900);
        r
    }

    #[test]
    fn json_contains_every_metric() {
        let json = snapshot_to_json(&sample_registry().snapshot());
        assert!(json.contains("\"kernel.context_switches\": {\"type\": \"counter\", \"value\": 12}"));
        assert!(json.contains("\"kernel.runq_depth\": {\"type\": \"gauge\", \"value\": -3}"));
        assert!(json.contains("\"type\": \"histogram\", \"count\": 3"));
        assert!(json.contains("[1023, 1]"));
    }

    #[test]
    fn csv_has_header_and_rows() {
        let mut ts = crate::TimeSeries::default();
        ts.push(100, vec![("util.rank0".into(), 0.5)]);
        ts.push(200, vec![("util.rank0".into(), 0.75), ("util.rank1".into(), 1.0)]);
        let csv = timeseries_to_csv(&ts);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "time_ns,util.rank0,util.rank1");
        assert_eq!(lines[1], "100,0.5,");
        assert_eq!(lines[2], "200,0.75,1");
    }

    #[test]
    fn summary_lists_all_names() {
        let text = snapshot_summary(&sample_registry().snapshot());
        assert!(text.contains("kernel.context_switches"));
        assert!(text.contains("kernel.pick_ns"));
        assert!(text.contains("count=3"));
    }
}
