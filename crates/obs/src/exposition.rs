//! Metric exposition: renders a [`MetricSnapshot`] list as a JSON
//! document or Prometheus-style text, for the `metrics` admin op of
//! network services.
//!
//! **JSON** (`snapshot_json`): `{"metrics": [...]}` with one object per
//! metric — `{"name", "kind", ...}` where `kind` is `counter`, `gauge`,
//! `histogram` or `windowed_histogram`. Histogram entries carry
//! `count`/`sum`/`mean`/quantiles and cumulative `le` buckets as
//! `[bound, count]` pairs; windowed entries additionally carry a
//! `window` object with the rolling count and p50/p90/p95/p99.
//!
//! **Prometheus text** (`prometheus_text`): names are sanitized
//! (`.` → `_`), `name{key=value}` labels fold into `{key="value"}`.
//! Counters and gauges render as single samples; cumulative histograms
//! as `_bucket{le=...}`/`_sum`/`_count` series; windowed histograms as
//! summaries (`{quantile="0.5"}`… over the window, `_sum`/`_count`
//! cumulative) — the conventional shape for server-side quantiles.

use crate::json::JsonValue;
use crate::metrics::MetricSnapshot;

/// Splits a registry name into its base and folded `{key=value}`
/// labels: `"serve.latency_seconds{model=iv}"` →
/// `("serve.latency_seconds", [("model", "iv")])`.
#[must_use]
pub fn split_labels(name: &str) -> (&str, Vec<(&str, &str)>) {
    let Some(open) = name.find('{') else {
        return (name, Vec::new());
    };
    let Some(inner) = name[open..]
        .strip_prefix('{')
        .and_then(|s| s.strip_suffix('}'))
    else {
        return (name, Vec::new());
    };
    let labels = inner
        .split(',')
        .filter_map(|pair| pair.split_once('='))
        .map(|(k, v)| (k.trim(), v.trim()))
        .collect();
    (&name[..open], labels)
}

/// Sanitizes a base metric name for Prometheus: dots become
/// underscores, any other non-`[a-zA-Z0-9_]` byte is dropped to `_`.
#[must_use]
pub fn prometheus_name(base: &str) -> String {
    base.chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect()
}

fn opt_num(v: Option<f64>) -> JsonValue {
    v.map_or(JsonValue::Null, JsonValue::Num)
}

fn buckets_json(buckets: &[(f64, u64)]) -> JsonValue {
    JsonValue::Arr(
        buckets
            .iter()
            .map(|&(bound, count)| {
                JsonValue::Arr(vec![JsonValue::Num(bound), JsonValue::Num(count as f64)])
            })
            .collect(),
    )
}

/// Renders a snapshot list as the JSON document described in the
/// module docs. Metric order is preserved (registry snapshots are
/// already name-sorted).
#[must_use]
pub fn snapshot_json(snaps: &[MetricSnapshot]) -> JsonValue {
    let metrics = snaps
        .iter()
        .map(|snap| match snap {
            MetricSnapshot::Counter { name, value } => JsonValue::Obj(vec![
                ("name".to_string(), JsonValue::Str(name.clone())),
                ("kind".to_string(), JsonValue::Str("counter".to_string())),
                ("value".to_string(), JsonValue::Num(*value as f64)),
            ]),
            MetricSnapshot::Gauge { name, value } => JsonValue::Obj(vec![
                ("name".to_string(), JsonValue::Str(name.clone())),
                ("kind".to_string(), JsonValue::Str("gauge".to_string())),
                ("value".to_string(), JsonValue::Num(*value)),
            ]),
            MetricSnapshot::Histogram {
                name,
                count,
                sum,
                mean,
                p50,
                p90,
                p99,
                buckets,
            } => JsonValue::Obj(vec![
                ("name".to_string(), JsonValue::Str(name.clone())),
                ("kind".to_string(), JsonValue::Str("histogram".to_string())),
                ("count".to_string(), JsonValue::Num(*count as f64)),
                ("sum".to_string(), JsonValue::Num(*sum)),
                ("mean".to_string(), opt_num(*mean)),
                ("p50".to_string(), opt_num(*p50)),
                ("p90".to_string(), opt_num(*p90)),
                ("p99".to_string(), opt_num(*p99)),
                ("buckets".to_string(), buckets_json(buckets)),
            ]),
            MetricSnapshot::Windowed {
                name,
                count,
                sum,
                mean,
                window_count,
                p50,
                p90,
                p95,
                p99,
                buckets,
            } => JsonValue::Obj(vec![
                ("name".to_string(), JsonValue::Str(name.clone())),
                (
                    "kind".to_string(),
                    JsonValue::Str("windowed_histogram".to_string()),
                ),
                ("count".to_string(), JsonValue::Num(*count as f64)),
                ("sum".to_string(), JsonValue::Num(*sum)),
                ("mean".to_string(), opt_num(*mean)),
                (
                    "window".to_string(),
                    JsonValue::Obj(vec![
                        ("count".to_string(), JsonValue::Num(*window_count as f64)),
                        ("p50".to_string(), opt_num(*p50)),
                        ("p90".to_string(), opt_num(*p90)),
                        ("p95".to_string(), opt_num(*p95)),
                        ("p99".to_string(), opt_num(*p99)),
                    ]),
                ),
                ("buckets".to_string(), buckets_json(buckets)),
            ]),
        })
        .collect();
    JsonValue::Obj(vec![("metrics".to_string(), JsonValue::Arr(metrics))])
}

/// Formats an f64 sample the way Prometheus expects (shortest exact
/// decimal; infinities as `+Inf`/`-Inf`).
fn sample(v: f64) -> String {
    if v == f64::INFINITY {
        "+Inf".to_string()
    } else if v == f64::NEG_INFINITY {
        "-Inf".to_string()
    } else {
        format!("{v}")
    }
}

fn label_block(labels: &[(&str, &str)], extra: Option<(&str, &str)>) -> String {
    let mut pairs: Vec<String> = labels.iter().map(|(k, v)| format!("{k}=\"{v}\"")).collect();
    if let Some((k, v)) = extra {
        pairs.push(format!("{k}=\"{v}\""));
    }
    if pairs.is_empty() {
        String::new()
    } else {
        format!("{{{}}}", pairs.join(","))
    }
}

/// Renders a snapshot list as Prometheus-style text exposition (see
/// module docs for the mapping per metric kind).
#[must_use]
pub fn prometheus_text(snaps: &[MetricSnapshot]) -> String {
    let mut out = String::new();
    for snap in snaps {
        let (base, labels) = split_labels(snap.name());
        let pname = prometheus_name(base);
        match snap {
            MetricSnapshot::Counter { value, .. } => {
                out.push_str(&format!("# TYPE {pname} counter\n"));
                out.push_str(&format!("{pname}{} {value}\n", label_block(&labels, None)));
            }
            MetricSnapshot::Gauge { value, .. } => {
                out.push_str(&format!("# TYPE {pname} gauge\n"));
                out.push_str(&format!(
                    "{pname}{} {}\n",
                    label_block(&labels, None),
                    sample(*value)
                ));
            }
            MetricSnapshot::Histogram {
                count,
                sum,
                buckets,
                ..
            } => {
                out.push_str(&format!("# TYPE {pname} histogram\n"));
                for (bound, cum) in buckets {
                    out.push_str(&format!(
                        "{pname}_bucket{} {cum}\n",
                        label_block(&labels, Some(("le", &sample(*bound))))
                    ));
                }
                out.push_str(&format!(
                    "{pname}_bucket{} {count}\n",
                    label_block(&labels, Some(("le", "+Inf")))
                ));
                out.push_str(&format!(
                    "{pname}_sum{} {}\n",
                    label_block(&labels, None),
                    sample(*sum)
                ));
                out.push_str(&format!(
                    "{pname}_count{} {count}\n",
                    label_block(&labels, None)
                ));
            }
            MetricSnapshot::Windowed {
                count,
                sum,
                p50,
                p90,
                p95,
                p99,
                ..
            } => {
                out.push_str(&format!("# TYPE {pname} summary\n"));
                for (q, v) in [("0.5", p50), ("0.9", p90), ("0.95", p95), ("0.99", p99)] {
                    if let Some(v) = v {
                        out.push_str(&format!(
                            "{pname}{} {}\n",
                            label_block(&labels, Some(("quantile", q))),
                            sample(*v)
                        ));
                    }
                }
                out.push_str(&format!(
                    "{pname}_sum{} {}\n",
                    label_block(&labels, None),
                    sample(*sum)
                ));
                out.push_str(&format!(
                    "{pname}_count{} {count}\n",
                    label_block(&labels, None)
                ));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{seconds_buckets, MetricsRegistry, WindowConfig};

    fn demo_registry() -> MetricsRegistry {
        let reg = MetricsRegistry::new();
        reg.counter("serve.requests").add(7);
        reg.gauge("serve.queue_depth").set(3.0);
        let h = reg.histogram("serve.batch_size", &[1.0, 2.0, 4.0]);
        h.observe(1.0);
        h.observe(3.0);
        let w = reg.windowed_histogram(
            "serve.latency_seconds",
            &seconds_buckets(),
            WindowConfig::default(),
        );
        w.observe_at(2e-3, 0);
        w.observe_at(4e-3, 0);
        reg
    }

    #[test]
    fn split_labels_handles_bare_and_labeled_names() {
        assert_eq!(split_labels("a.b"), ("a.b", vec![]));
        assert_eq!(
            split_labels("flow.stage_seconds{stage=device}"),
            ("flow.stage_seconds", vec![("stage", "device")])
        );
        // Malformed (unterminated) label blocks fall back to the raw name.
        assert_eq!(split_labels("a.b{oops"), ("a.b{oops", vec![]));
    }

    #[test]
    fn json_snapshot_has_all_kinds() {
        let reg = demo_registry();
        let doc = snapshot_json(&reg.snapshot());
        let text = doc.render();
        let parsed = JsonValue::parse(&text).expect("exposition JSON must reparse");
        let JsonValue::Arr(metrics) = parsed.get("metrics").expect("metrics key").clone() else {
            panic!("metrics must be an array");
        };
        assert_eq!(metrics.len(), 4);
        let kinds: Vec<&str> = metrics
            .iter()
            .filter_map(|m| m.get("kind").and_then(|k| k.as_str()))
            .collect();
        assert_eq!(
            kinds,
            vec!["histogram", "windowed_histogram", "gauge", "counter"],
            "snapshot order is name-sorted"
        );
        let windowed = &metrics[1];
        assert_eq!(
            windowed.get("name").and_then(|n| n.as_str()),
            Some("serve.latency_seconds")
        );
        let window = windowed.get("window").expect("window block");
        assert_eq!(window.get("count").and_then(JsonValue::as_u64), Some(2));
        assert!(window.get("p99").and_then(JsonValue::as_f64).is_some());

        // An observation the window has aged out of still counts in the
        // entry's `le` buckets, which are cumulative like its `count`.
        let reg = MetricsRegistry::new();
        let short = WindowConfig {
            epoch_len: std::time::Duration::from_millis(1),
            epochs: 2,
        };
        reg.windowed_histogram("a.latency_seconds", &[1.0], short)
            .observe(0.5);
        std::thread::sleep(std::time::Duration::from_millis(5));
        let aged = snapshot_json(&reg.snapshot()).render();
        assert!(
            aged.contains(r#""window":{"count":0,"#) && aged.contains(r#""buckets":[[1,1]]"#),
            "{aged}"
        );
    }

    #[test]
    fn prometheus_text_renders_series() {
        let reg = demo_registry();
        let text = prometheus_text(&reg.snapshot());
        assert!(text.contains("# TYPE serve_requests counter\nserve_requests 7\n"));
        assert!(text.contains("# TYPE serve_queue_depth gauge\nserve_queue_depth 3\n"));
        assert!(text.contains("# TYPE serve_batch_size histogram\n"));
        assert!(text.contains("serve_batch_size_bucket{le=\"1\"} 1\n"));
        assert!(text.contains("serve_batch_size_bucket{le=\"+Inf\"} 2\n"));
        assert!(text.contains("serve_batch_size_count 2\n"));
        assert!(text.contains("# TYPE serve_latency_seconds summary\n"));
        assert!(text.contains("serve_latency_seconds{quantile=\"0.99\"}"));
        assert!(text.contains("serve_latency_seconds_count 2\n"));
    }

    #[test]
    fn prometheus_text_folds_labels() {
        let reg = MetricsRegistry::new();
        reg.counter("flow.stage_evals{stage=device}").add(2);
        let text = prometheus_text(&reg.snapshot());
        assert!(
            text.contains("flow_stage_evals{stage=\"device\"} 2\n"),
            "got: {text}"
        );
    }

    #[test]
    fn empty_windowed_summary_omits_quantiles() {
        let reg = MetricsRegistry::new();
        reg.windowed_histogram("a.latency_seconds", &[1.0], WindowConfig::default());
        let text = prometheus_text(&reg.snapshot());
        assert!(!text.contains("quantile"), "empty window has no quantiles");
        assert!(text.contains("a_latency_seconds_count 0\n"));
    }
}
