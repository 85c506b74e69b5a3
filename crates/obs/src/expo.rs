//! Prometheus text exposition (version 0.0.4) of a registry snapshot,
//! hand-written because the build environment is offline. Covers the
//! format details a scraper depends on: `# HELP` / `# TYPE` lines, help
//! and label-value escaping, and cumulative histogram buckets ending in
//! `+Inf` plus `_sum` / `_count` series.

use crate::metrics::{MetricValue, RegistrySnapshot};

/// Escape a `# HELP` text: backslash and newline.
fn escape_help(s: &str) -> String {
    s.replace('\\', "\\\\").replace('\n', "\\n")
}

/// Escape a label value: backslash, double quote, newline.
pub fn escape_label_value(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"").replace('\n', "\\n")
}

fn render_labels(labels: &[(String, String)], extra: Option<(&str, &str)>) -> String {
    let mut parts: Vec<String> =
        labels.iter().map(|(k, v)| format!("{k}=\"{}\"", escape_label_value(v))).collect();
    if let Some((k, v)) = extra {
        parts.push(format!("{k}=\"{}\"", escape_label_value(v)));
    }
    if parts.is_empty() {
        String::new()
    } else {
        format!("{{{}}}", parts.join(","))
    }
}

/// Render a snapshot in Prometheus text format. Series that share a name
/// (label variants) are grouped under a single `# HELP` / `# TYPE` pair.
pub fn render_prometheus(snapshot: &RegistrySnapshot) -> String {
    let mut out = String::new();
    let mut seen_header: Vec<&str> = Vec::new();
    for m in &snapshot.metrics {
        if !seen_header.contains(&m.name.as_str()) {
            seen_header.push(&m.name);
            let kind = match m.value {
                MetricValue::Counter(_) => "counter",
                MetricValue::Gauge(_) => "gauge",
                MetricValue::Histogram(_) => "histogram",
            };
            out.push_str(&format!("# HELP {} {}\n", m.name, escape_help(&m.help)));
            out.push_str(&format!("# TYPE {} {}\n", m.name, kind));
        }
        match &m.value {
            MetricValue::Counter(v) | MetricValue::Gauge(v) => {
                out.push_str(&format!("{}{} {}\n", m.name, render_labels(&m.labels, None), v));
            }
            MetricValue::Histogram(h) => {
                let mut cumulative = 0u64;
                for (i, bound) in h.bounds.iter().enumerate() {
                    cumulative += h.counts[i];
                    out.push_str(&format!(
                        "{}_bucket{} {}\n",
                        m.name,
                        render_labels(&m.labels, Some(("le", &bound.to_string()))),
                        cumulative
                    ));
                }
                out.push_str(&format!(
                    "{}_bucket{} {}\n",
                    m.name,
                    render_labels(&m.labels, Some(("le", "+Inf"))),
                    h.count
                ));
                out.push_str(&format!(
                    "{}_sum{} {}\n",
                    m.name,
                    render_labels(&m.labels, None),
                    h.sum
                ));
                out.push_str(&format!(
                    "{}_count{} {}\n",
                    m.name,
                    render_labels(&m.labels, None),
                    h.count
                ));
            }
        }
    }
    out
}

/// Render a snapshot as a JSON array of metric objects — the body of the
/// `metrics` verb's JSON form. Scalars become `{"name","labels","value"}`;
/// histograms carry `{"bounds","counts","sum","count"}`.
pub fn render_json(snapshot: &RegistrySnapshot) -> String {
    let mut out = String::from("[");
    for (i, m) in snapshot.metrics.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"name\":");
        crate::push_json_string(&mut out, &m.name);
        if !m.labels.is_empty() {
            out.push_str(",\"labels\":{");
            for (j, (k, v)) in m.labels.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                crate::push_json_string(&mut out, k);
                out.push(':');
                crate::push_json_string(&mut out, v);
            }
            out.push('}');
        }
        match &m.value {
            MetricValue::Counter(v) => {
                out.push_str(&format!(",\"type\":\"counter\",\"value\":{v}"))
            }
            MetricValue::Gauge(v) => out.push_str(&format!(",\"type\":\"gauge\",\"value\":{v}")),
            MetricValue::Histogram(h) => {
                let bounds: Vec<String> = h.bounds.iter().map(|b| b.to_string()).collect();
                let counts: Vec<String> = h.counts.iter().map(|c| c.to_string()).collect();
                out.push_str(&format!(
                    ",\"type\":\"histogram\",\"bounds\":[{}],\"counts\":[{}],\"sum\":{},\"count\":{}",
                    bounds.join(","),
                    counts.join(","),
                    h.sum,
                    h.count
                ));
            }
        }
        out.push('}');
    }
    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Registry;

    #[test]
    fn json_rendering_covers_scalars_and_histograms() {
        let r = Registry::new();
        r.counter("psgl_c", "c").add(3);
        r.histogram("psgl_h", "h", &[10]).observe(4);
        let json = render_json(&r.snapshot());
        assert!(json.contains("{\"name\":\"psgl_c\",\"type\":\"counter\",\"value\":3}"), "{json}");
        assert!(
            json.contains(
                "{\"name\":\"psgl_h\",\"type\":\"histogram\",\"bounds\":[10],\"counts\":[1,0],\"sum\":4,\"count\":1}"
            ),
            "{json}"
        );
    }

    #[test]
    fn counters_and_gauges_get_type_lines_and_values() {
        let r = Registry::new();
        r.counter("psgl_requests_total", "Requests seen.").add(7);
        r.gauge("psgl_queue_depth", "Queued jobs.").set(2);
        let text = render_prometheus(&r.snapshot());
        assert!(text.contains("# HELP psgl_requests_total Requests seen.\n"));
        assert!(text.contains("# TYPE psgl_requests_total counter\n"));
        assert!(
            text.contains("\npsgl_requests_total 7\n")
                || text.starts_with("psgl_requests_total 7\n")
                || text.contains("psgl_requests_total 7\n")
        );
        assert!(text.contains("# TYPE psgl_queue_depth gauge\n"));
        assert!(text.contains("psgl_queue_depth 2\n"));
    }

    #[test]
    fn histogram_renders_cumulative_buckets_with_inf_sum_and_count() {
        let r = Registry::new();
        let h = r.histogram("psgl_latency_ms", "Query latency.", &[10, 100]);
        for v in [5, 50, 500] {
            h.observe(v);
        }
        let text = render_prometheus(&r.snapshot());
        assert!(text.contains("# TYPE psgl_latency_ms histogram\n"));
        assert!(text.contains("psgl_latency_ms_bucket{le=\"10\"} 1\n"));
        assert!(text.contains("psgl_latency_ms_bucket{le=\"100\"} 2\n"));
        assert!(text.contains("psgl_latency_ms_bucket{le=\"+Inf\"} 3\n"));
        assert!(text.contains("psgl_latency_ms_sum 555\n"));
        assert!(text.contains("psgl_latency_ms_count 3\n"));
    }

    #[test]
    fn label_values_and_help_are_escaped() {
        let r = Registry::new();
        r.counter_with_labels(
            "psgl_tenant_queries",
            "Per-tenant\nqueries with back\\slash.",
            &[("tenant", "a\"b\\c\nd")],
        )
        .inc();
        let text = render_prometheus(&r.snapshot());
        assert!(
            text.contains("# HELP psgl_tenant_queries Per-tenant\\nqueries with back\\\\slash.\n"),
            "{text}"
        );
        assert!(text.contains("psgl_tenant_queries{tenant=\"a\\\"b\\\\c\\nd\"} 1\n"), "{text}");
    }

    #[test]
    fn label_variants_share_one_header() {
        let r = Registry::new();
        r.counter_with_labels("psgl_t", "t", &[("tenant", "a")]).inc();
        r.counter_with_labels("psgl_t", "t", &[("tenant", "b")]).inc();
        let text = render_prometheus(&r.snapshot());
        assert_eq!(text.matches("# TYPE psgl_t counter").count(), 1, "{text}");
        assert!(text.contains("psgl_t{tenant=\"a\"} 1\n"));
        assert!(text.contains("psgl_t{tenant=\"b\"} 1\n"));
    }

    /// Round-trip: parse the rendered text back and recover every scalar
    /// sample (a scrape-side sanity check that the format is regular).
    #[test]
    fn rendered_text_round_trips_scalar_samples() {
        let r = Registry::new();
        r.counter("psgl_a", "a").add(11);
        r.gauge("psgl_b", "b").set(22);
        let text = render_prometheus(&r.snapshot());
        let mut parsed: Vec<(String, u64)> = Vec::new();
        for line in text.lines() {
            if line.starts_with('#') || line.is_empty() {
                continue;
            }
            let (name, value) = line.rsplit_once(' ').unwrap();
            parsed.push((name.to_string(), value.parse().unwrap()));
        }
        assert!(parsed.contains(&("psgl_a".into(), 11)));
        assert!(parsed.contains(&("psgl_b".into(), 22)));
    }
}
