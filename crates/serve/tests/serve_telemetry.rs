//! Serving telemetry guarantees:
//!
//! * `stats` and `metrics` replies round-trip through the wire format
//!   exactly, including the slow-request log;
//! * the service records per-phase timings into a worst-K slow log;
//! * the `metrics` op exposes the full registry (JSON snapshot plus
//!   Prometheus text) over TCP, and counters in `stats` move with
//!   traffic.

use std::time::Duration;

use stco_cells::library::CellKind;
use stco_obs::json::JsonValue;
use stco_serve::demo::{demo_graph, demo_key, train_demo_model};
use stco_serve::protocol::{Reply, Request, ServerStats};
use stco_serve::service::{BatchConfig, ModelService, PredictInput, SlowRequest};
use stco_serve::{Client, TcpServer};
use stco_store::Registry;
use stco_surrogate::cell_model::{CellModel, METRICS};

fn demo_slow() -> SlowRequest {
    SlowRequest {
        trace_id: 42,
        batch_size: 3,
        queue_seconds: 0.001,
        assembly_seconds: 0.0002,
        forward_seconds: 0.0125,
        reply_seconds: 0.00005,
        total_seconds: 0.014,
    }
}

#[test]
fn stats_reply_roundtrips_with_slow_requests() {
    let reply = Reply::Stats(ServerStats {
        queue_depth: 7,
        shards: 2,
        shard_queue_depths: vec![4, 3],
        shed: 5,
        loaded: vec!["cell-model:demo".to_string()],
        requests: 120,
        replies: 118,
        errors: 1,
        deadline_exceeded: 1,
        slow_requests: vec![demo_slow()],
    });
    let doc = reply.to_json();
    let parsed = Reply::from_json(&doc).expect("parse stats reply");
    assert_eq!(parsed, reply, "stats reply must round-trip exactly");
}

#[test]
fn metrics_request_and_reply_roundtrip() {
    let request = Request::Metrics;
    let parsed = Request::from_json(&request.to_json()).expect("parse metrics request");
    assert!(
        matches!(parsed, Request::Metrics),
        "metrics request must round-trip"
    );

    let reply = Reply::Metrics {
        snapshot: JsonValue::Obj(vec![(
            "metrics".to_string(),
            JsonValue::Arr(vec![JsonValue::Obj(vec![
                ("name".to_string(), JsonValue::Str("serve.requests".into())),
                ("kind".to_string(), JsonValue::Str("counter".into())),
                ("value".to_string(), JsonValue::Num(3.0)),
            ])]),
        )]),
        text: "serve_requests 3\n".to_string(),
    };
    let parsed = Reply::from_json(&reply.to_json()).expect("parse metrics reply");
    assert_eq!(parsed, reply, "metrics reply must round-trip exactly");
}

#[test]
fn service_records_worst_k_slow_requests() {
    let model = train_demo_model().expect("train demo model");
    let service = ModelService::start(
        None,
        BatchConfig {
            max_batch: 4,
            max_linger: Duration::from_millis(2),
            slow_log_k: 4,
            ..BatchConfig::default()
        },
    );
    let id = "cell-model:slowlog".to_string();
    service.install(
        &id,
        CellModel::from_artifact(&model.to_artifact()).expect("rehydrate"),
    );

    let metrics: Vec<usize> = (0..METRICS.len()).collect();
    for _ in 0..10 {
        service
            .submit(
                &id,
                PredictInput::Cell {
                    graph: demo_graph(CellKind::Inv),
                    metrics: metrics.clone(),
                },
                None,
            )
            .expect("predict");
    }
    let slow = service.slow_requests();
    assert!(!slow.is_empty(), "slow log must record completed requests");
    assert!(
        slow.len() <= 4,
        "slow log capped at k={}, got {}",
        4,
        slow.len()
    );
    for pair in slow.windows(2) {
        assert!(
            pair[0].total_seconds >= pair[1].total_seconds,
            "slow log must be sorted worst-first"
        );
    }
    for entry in &slow {
        assert!(
            entry.total_seconds > 0.0,
            "total must be positive: {entry:?}"
        );
        assert!(entry.batch_size >= 1, "batch size must be at least 1");
        assert!(entry.queue_seconds >= 0.0);
        assert!(entry.forward_seconds >= 0.0);
        assert!(
            entry.total_seconds + 1e-9
                >= entry.queue_seconds + entry.forward_seconds + entry.reply_seconds,
            "total covers queue+forward+reply: {entry:?}"
        );
    }
    service.shutdown();
}

#[test]
fn metrics_op_exposes_registry_over_tcp() {
    let model = train_demo_model().expect("train demo model");
    let dir = std::env::temp_dir().join(format!("stco-serve-telemetry-{}", std::process::id()));
    let registry = Registry::open(&dir).expect("open registry");
    let key = demo_key();
    registry.put(key, &model.to_artifact()).expect("export");

    let service = ModelService::start(Some(registry), BatchConfig::default());
    let server = TcpServer::start("127.0.0.1:0", service).expect("bind");
    let addr = server.addr().to_string();

    let mut client = Client::connect(&addr).expect("connect");
    let id = client.load(CellModel::ARTIFACT_KIND, key).expect("load");
    let metrics: Vec<usize> = (0..METRICS.len()).collect();
    for _ in 0..6 {
        client
            .predict(
                &id,
                &PredictInput::Cell {
                    graph: demo_graph(CellKind::Inv),
                    metrics: metrics.clone(),
                },
                Some(5_000),
            )
            .expect("predict");
    }

    let stats = client.stats().expect("stats");
    assert!(stats.requests >= 6, "request counter must move: {stats:?}");
    assert!(stats.replies >= 6, "reply counter must move: {stats:?}");
    assert!(
        !stats.slow_requests.is_empty(),
        "slow log must be exposed via stats"
    );

    let (snapshot, text) = client.metrics().expect("metrics");
    let JsonValue::Arr(entries) = snapshot.get("metrics").expect("metrics array") else {
        panic!("snapshot.metrics must be an array");
    };
    let names: Vec<&str> = entries
        .iter()
        .filter_map(|e| e.get("name").and_then(JsonValue::as_str))
        .collect();
    for required in [
        "serve.latency_seconds",
        "serve.batch_size",
        "serve.queue_wait_seconds",
        "serve.requests",
        "serve.replies",
    ] {
        assert!(
            names.contains(&required),
            "snapshot must include {required}, got {names:?}"
        );
    }
    let mut sorted = names.clone();
    sorted.sort_unstable();
    assert_eq!(names, sorted, "snapshot must be name-sorted");

    let latency = entries
        .iter()
        .find(|e| e.get("name").and_then(JsonValue::as_str) == Some("serve.latency_seconds"))
        .expect("latency entry");
    assert_eq!(
        latency.get("kind").and_then(JsonValue::as_str),
        Some("windowed_histogram"),
        "latency must be a windowed histogram"
    );
    assert!(
        latency
            .get("count")
            .and_then(JsonValue::as_u64)
            .unwrap_or(0)
            >= 6,
        "latency histogram must have observations"
    );

    assert!(
        text.contains("# TYPE serve_requests counter"),
        "Prometheus text must declare serve_requests: {text}"
    );
    assert!(
        text.contains("serve_latency_seconds_count"),
        "Prometheus text must carry latency series: {text}"
    );

    client.shutdown().expect("shutdown");
    server.wait();
    let _ = std::fs::remove_dir_all(&dir);
}
