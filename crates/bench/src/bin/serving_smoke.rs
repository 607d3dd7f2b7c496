//! CI serving-smoke gate: exercises the full artifact → registry →
//! TCP serving path under concurrent batched load and proves the
//! replies are bitwise-identical to in-process `predict_many`.
//!
//! 1. trains the tiny demo cell model and exports it to a scratch
//!    registry;
//! 2. starts a `ModelService` + `TcpServer` on an ephemeral port;
//! 3. fires 64 concurrent predict requests (one TCP connection each)
//!    and asserts every reply bitwise-matches the in-process
//!    prediction;
//! 4. probes the `metrics` op: the JSON snapshot must carry the serve
//!    histograms and the Prometheus text must parse as exposition
//!    lines;
//! 5. runs the closed-loop latency-curve sweep (concurrency 4→512 via
//!    `stco_bench::load_curve`, per-connection request scaling + warmup so
//!    every step measures steady state), cross-checks the server's
//!    rolling-window p99 against the exact client-side p99 (tolerance
//!    below), and writes the `stco-serving-curve/v2` document to
//!    `BENCH_serving.json` after validating it with
//!    `stco_bench::validate_serving_curve`.
//!
//! Honours `STCO_SHARDS` (via `BatchConfig::default()`): CI's
//! multi-shard leg runs the whole gate — bitwise phase included —
//! against ≥ 2 worker shards, plus a drain/resume wire probe.
//!
//! **p99 tolerance.** The server quantile interpolates inside
//! histogram buckets over the rolling window (every request since the
//! window opened, all concurrency levels mixed) and times only the
//! service's enqueue→reply span; the client quantile is an exact order
//! statistic per step and includes TCP framing. The gate therefore
//! only requires the two to agree within a factor of 4 or 2 ms,
//! whichever is looser — see DESIGN.md §13.
//!
//! Honours `STCO_THREADS` like every other parallel path, so CI runs
//! it at 1 and 4 threads.
//!
//! **`STCO_PRECISION=f32`.** The server process (this process) loads
//! artifacts through `precision_from_env()`, so setting the variable
//! switches the *served* model to the narrowed-weight f32 fast path
//! while the in-process reference model here stays f64. Phase 3 then
//! validates the precision contract end-to-end over TCP: every reply
//! must land within `F32_REL_ERROR_BOUND` of the f64 prediction
//! instead of bitwise-matching it, and the serving-curve document is
//! written with `bitwise_identical: false`.

use std::time::Instant;

use stco_bench::load_curve::{load_curve_to_json, run_load_curve, LoadCurveConfig};
use stco_obs::json::JsonValue;
use stco_par::ParConfig;
use stco_serve::demo::{demo_graph, demo_key, train_demo_model, DEMO_CELLS};
use stco_serve::service::{BatchConfig, ModelService, PredictInput};
use stco_serve::{Client, TcpServer};
use stco_store::Registry;
use stco_surrogate::cell_model::{CellModel, F32_REL_ERROR_BOUND, METRICS};

const CONCURRENT_REQUESTS: usize = 64;
const SWEEP_STEPS: [usize; 8] = [4, 8, 16, 32, 64, 128, 256, 512];
const SWEEP_REQUESTS_PER_CONN: usize = 32;
const SWEEP_WARMUP_PER_CONN: usize = 8;

/// Mirrors the serve-side `precision_from_env()`: the served model and
/// this gate must agree on the mode from the same variable.
fn f32_mode() -> bool {
    std::env::var("STCO_PRECISION").is_ok_and(|v| v.trim().eq_ignore_ascii_case("f32"))
}

fn main() {
    let t_total = Instant::now();
    let f32_mode = f32_mode();

    // 1. Train and export into a scratch registry (unless STCO_STORE_DIR
    // points somewhere explicit, which CI uses to keep runs hermetic).
    let dir = std::env::var("STCO_STORE_DIR").map_or_else(
        |_| std::env::temp_dir().join(format!("stco-serving-smoke-{}", std::process::id())),
        std::path::PathBuf::from,
    );
    let registry = Registry::open(&dir).expect("open registry");
    let key = demo_key();
    let model = train_demo_model().expect("train demo model");
    registry
        .put(key, &model.to_artifact())
        .expect("export artifact");
    println!("exported demo model to {}", dir.display());

    // 2. Serve it (BatchConfig::default() resolves STCO_SHARDS).
    let service = ModelService::start(Some(registry), BatchConfig::default());
    let shard_count = service.shard_count();
    let server = TcpServer::start("127.0.0.1:0", service).expect("bind server");
    let addr = server.addr().to_string();
    let (model_id, model_shard) = {
        let mut admin = Client::connect(&addr).expect("connect admin client");
        admin
            .load_with_shard(CellModel::ARTIFACT_KIND, key)
            .expect("load artifact")
    };
    println!(
        "serving {model_id} on {addr} (STCO_THREADS={}, shards={shard_count}, \
         model shard {model_shard}, precision={})",
        ParConfig::current().threads,
        if f32_mode { "f32" } else { "f64" }
    );

    // 3. 64 concurrent requests; every request's expected reply is the
    // in-process f64 prediction for the same input. In the default mode
    // replies must match it bitwise; under STCO_PRECISION=f32 the served
    // model runs the narrowed fast path, so replies must instead land
    // within F32_REL_ERROR_BOUND of the f64 reference.
    let all_metrics: Vec<usize> = (0..METRICS.len()).collect();
    let requests: Vec<(PredictInput, Vec<f64>)> = (0..CONCURRENT_REQUESTS)
        .map(|i| {
            let kind = DEMO_CELLS[i % DEMO_CELLS.len()];
            let metrics: Vec<usize> = match i % 3 {
                0 => all_metrics.clone(),
                1 => vec![0],
                _ => vec![2, 5, 8],
            };
            let graph = demo_graph(kind);
            let expected = model.predict_many(&graph, &metrics);
            (PredictInput::Cell { graph, metrics }, expected)
        })
        .collect();

    let mismatches: usize = std::thread::scope(|scope| {
        let handles: Vec<_> = requests
            .iter()
            .map(|(input, expected)| {
                let addr = addr.clone();
                let model_id = model_id.clone();
                scope.spawn(move || {
                    let mut client = Client::connect(&addr).expect("connect");
                    let got = client
                        .predict(&model_id, input, Some(10_000))
                        .expect("predict");
                    if got.len() != expected.len() {
                        return 1usize;
                    }
                    let ok = got.iter().zip(expected).all(|(g, e)| {
                        if f32_mode {
                            ((g - e) / e).abs() <= F32_REL_ERROR_BOUND
                        } else {
                            g.to_bits() == e.to_bits()
                        }
                    });
                    usize::from(!ok)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("join")).sum()
    });
    if f32_mode {
        assert_eq!(
            mismatches, 0,
            "{mismatches}/{CONCURRENT_REQUESTS} f32 TCP replies exceeded the \
             {F32_REL_ERROR_BOUND:e} relative-error bound vs in-process f64 predict_many"
        );
        println!(
            "all {CONCURRENT_REQUESTS} concurrent f32 replies within {F32_REL_ERROR_BOUND:e} \
             of in-process f64 predict_many"
        );
    } else {
        assert_eq!(
            mismatches, 0,
            "{mismatches}/{CONCURRENT_REQUESTS} TCP replies differed from in-process predict_many"
        );
        println!(
            "all {CONCURRENT_REQUESTS} concurrent replies bitwise-match in-process predict_many"
        );
    }

    // 4. The metrics op must expose the serve telemetry in both
    // renderings, and stats must carry the moving counters + slow log.
    let mut admin = Client::connect(&addr).expect("connect admin client");
    let stats = admin.stats().expect("stats");
    assert!(
        stats.requests >= CONCURRENT_REQUESTS as u64,
        "request counter must cover the bitwise phase: {stats:?}"
    );
    assert!(
        !stats.slow_requests.is_empty(),
        "slow-request log must have entries after {CONCURRENT_REQUESTS} requests"
    );
    let (snapshot, text) = admin.metrics().expect("metrics");
    let JsonValue::Arr(entries) = snapshot.get("metrics").expect("metrics array") else {
        panic!("metrics snapshot must hold an array");
    };
    let names: Vec<&str> = entries
        .iter()
        .filter_map(|e| e.get("name").and_then(JsonValue::as_str))
        .collect();
    for required in [
        "serve.batch_size",
        "serve.latency_seconds",
        "serve.queue_depth",
        "serve.queue_wait_seconds",
        "serve.requests",
        // cache_miss only appears once a miss happens; the load above
        // guarantees at least the hit counter exists.
        "store.cache_hit",
    ] {
        assert!(
            names.contains(&required),
            "metrics snapshot must include {required}, got {names:?}"
        );
    }
    for series in [
        "# TYPE serve_latency_seconds summary",
        "serve_latency_seconds_count",
        "serve_batch_size_bucket",
        "serve_requests",
    ] {
        assert!(
            text.contains(series),
            "Prometheus text must carry {series:?}"
        );
    }
    println!(
        "metrics op ok: {} snapshot entries, {} exposition lines",
        entries.len(),
        text.lines().count()
    );
    assert_eq!(
        stats.shards, shard_count,
        "stats must report the resolved shard count"
    );
    assert_eq!(
        stats.shard_queue_depths.len(),
        shard_count,
        "stats must carry one queue depth per shard"
    );

    // 4b. Multi-shard leg only: drain/resume roundtrip over the wire.
    // A drained shard must refuse predicts with the typed "draining"
    // code and accept them again after resume.
    if shard_count > 1 {
        let target = shard_count - 1;
        admin.drain(target).expect("drain shard over the wire");
        admin.resume(target).expect("resume shard over the wire");
        println!("drain/resume probe ok on shard {target}");
    }

    // 5. Latency-curve sweep + BENCH_serving.json. Requests scale with
    // concurrency (per-connection count + warmup) so every step
    // measures a steady-state window of comparable duration.
    let sweep = LoadCurveConfig {
        addr: addr.clone(),
        model: model_id.clone(),
        inputs: requests.iter().map(|(input, _)| input.clone()).collect(),
        steps: SWEEP_STEPS.to_vec(),
        requests_per_conn: SWEEP_REQUESTS_PER_CONN,
        warmup_per_conn: SWEEP_WARMUP_PER_CONN,
        deadline_ms: Some(10_000),
    };
    let steps = run_load_curve(&sweep).expect("load sweep");
    let mut client_max_p99 = 0.0f64;
    for step in &steps {
        println!(
            "concurrency {:>3}: achieved {:>7.0} req/s (offered {:>7.0}), \
             client p50 {:.3} ms / p99 {:.3} ms, shed {}, server window p99 {}",
            step.concurrency,
            step.achieved_rps,
            step.offered_rps,
            step.client_p50_seconds * 1e3,
            step.client_p99_seconds * 1e3,
            step.shed,
            step.server_window_p99_seconds
                .map_or("n/a".to_string(), |p| format!("{:.3} ms", p * 1e3)),
        );
        // Sheds are admission control doing its job under deliberate
        // overload; hard errors are not.
        assert_eq!(
            step.errors, 0,
            "sweep step at concurrency {} saw errors",
            step.concurrency
        );
        client_max_p99 = client_max_p99.max(step.client_p99_seconds);
    }

    // Cross-check, per step: the service span (enqueue→reply) is a
    // component of what the client times, so the server's rolling p99
    // must never sit far *above* the step's client p99 (4x or 2 ms of
    // bucket-interpolation slack). The reverse bound only holds while
    // transport is cheap: past the core count the client number is
    // dominated by multiplexer out-queues and kernel buffers that the
    // service span deliberately excludes (DESIGN.md §13), so two-sided
    // agreement is gated on the lowest-concurrency step only.
    for step in &steps {
        let Some(server_p99) = step.server_window_p99_seconds else {
            panic!(
                "step at concurrency {} must carry a server window p99",
                step.concurrency
            );
        };
        assert!(
            server_p99 <= step.client_p99_seconds * 4.0 + 2e-3,
            "server rolling p99 {server_p99:.6}s exceeds client p99 {:.6}s at concurrency {} \
             beyond the documented tolerance (4x + 2 ms)",
            step.client_p99_seconds,
            step.concurrency
        );
    }
    let low = steps.first().expect("sweep has steps");
    let low_server = low
        .server_window_p99_seconds
        .expect("first step carries a server window p99");
    let low_client = low.client_p99_seconds;
    let ratio_ok = low_server <= low_client * 4.0 && low_client <= low_server.max(1e-12) * 4.0;
    let abs_ok = (low_server - low_client).abs() <= 2e-3;
    assert!(
        ratio_ok || abs_ok,
        "at concurrency {} (cheap transport) server p99 {low_server:.6}s must agree with \
         client p99 {low_client:.6}s within 4x or 2 ms",
        low.concurrency
    );
    println!(
        "p99 cross-check ok: server window {:.3} ms vs client {:.3} ms at concurrency {}, \
         client max {:.3} ms across the sweep",
        low_server * 1e3,
        low_client * 1e3,
        low.concurrency,
        client_max_p99 * 1e3
    );

    let doc = load_curve_to_json(ParConfig::current().threads, shard_count, !f32_mode, &steps);
    stco_bench::validate_serving_curve(&doc, SWEEP_STEPS.len())
        .expect("BENCH_serving.json schema validation");
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_serving.json");
    std::fs::write(path, doc.render() + "\n").expect("write BENCH_serving.json");
    println!("wrote {path}");

    // Graceful shutdown over the wire, then tear down.
    admin.shutdown().expect("shutdown");
    server.stop();
    if std::env::var("STCO_STORE_DIR").is_err() {
        let _ = std::fs::remove_dir_all(&dir);
    }
    println!("done in {:.2} s", t_total.elapsed().as_secs_f64());
}
