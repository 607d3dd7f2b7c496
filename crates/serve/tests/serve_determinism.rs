//! The serving stack's core guarantees:
//!
//! * batched replies are bitwise-identical to serial in-process
//!   `predict`/`predict_many` calls, at every thread count;
//! * backpressure, deadlines and shutdown behave as typed errors, not
//!   hangs or panics;
//! * the TCP protocol round-trips inputs/replies exactly and answers
//!   malformed frames with typed error replies.

use std::sync::Arc;
use std::time::Duration;

use stco_cells::library::CellKind;
use stco_serve::demo::{demo_graph, demo_key, train_demo_model, DEMO_CELLS};
use stco_serve::protocol::{read_frame, write_frame, Reply, Request};
use stco_serve::service::{BatchConfig, ModelService, PredictInput};
use stco_serve::{Client, ServeError, TcpServer};
use stco_store::{ArtifactKey, Registry};
use stco_surrogate::cell_model::{CellModel, METRICS};
use stco_surrogate::encoding::{EDGE_DIM, NODE_DIM};
use stco_surrogate::poisson_emulator::{PoissonConfig, PoissonEmulator};

fn demo_service(batch: BatchConfig) -> (Arc<ModelService>, CellModel, String) {
    let model = train_demo_model().expect("train demo model");
    let service = ModelService::start(None, batch);
    let id = "cell-model:demo".to_string();
    service.install(
        &id,
        CellModel::from_artifact(&model.to_artifact()).expect("rehydrate"),
    );
    (service, model, id)
}

fn demo_inputs() -> Vec<(CellKind, Vec<usize>)> {
    let all: Vec<usize> = (0..METRICS.len()).collect();
    let mut out = Vec::new();
    for kind in DEMO_CELLS {
        out.push((kind, all.clone()));
        out.push((kind, vec![0]));
        out.push((kind, vec![2, 5, 8]));
    }
    out
}

fn assert_batched_matches_serial(threads: usize) {
    stco_par::set_global_threads(threads);
    let (service, model, id) = demo_service(BatchConfig {
        max_batch: 4,
        max_linger: Duration::from_millis(5),
        ..BatchConfig::default()
    });

    let inputs = demo_inputs();
    let expected: Vec<Vec<u64>> = inputs
        .iter()
        .map(|(kind, metrics)| {
            model
                .predict_many(&demo_graph(*kind), metrics)
                .iter()
                .map(|v| v.to_bits())
                .collect()
        })
        .collect();

    // Fire all requests concurrently so they coalesce into batches.
    let got: Vec<Vec<u64>> = std::thread::scope(|scope| {
        let handles: Vec<_> = inputs
            .iter()
            .map(|(kind, metrics)| {
                let service = Arc::clone(&service);
                let id = id.clone();
                let input = PredictInput::Cell {
                    graph: demo_graph(*kind),
                    metrics: metrics.clone(),
                };
                scope.spawn(move || {
                    service
                        .submit(&id, input, None)
                        .expect("predict")
                        .iter()
                        .map(|v| v.to_bits())
                        .collect::<Vec<u64>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("join"))
            .collect()
    });

    assert_eq!(
        got, expected,
        "batched replies must be bitwise-identical to serial predict_many at {threads} threads"
    );
    service.shutdown();
    stco_par::set_global_threads(0);
}

#[test]
fn batched_replies_match_serial_single_thread() {
    assert_batched_matches_serial(1);
}

#[test]
fn batched_replies_match_serial_four_threads() {
    assert_batched_matches_serial(4);
}

/// The bitwise gate must survive sharding: the same model installed
/// under many ids spread over 3 shards, hammered concurrently, still
/// answers bit-for-bit what serial `predict_many` computes — shard
/// workers share nothing that could reorder reductions.
fn assert_sharded_matches_serial(threads: usize) {
    stco_par::set_global_threads(threads);
    let (service, model, _id) = demo_service(BatchConfig {
        shards: 3,
        max_batch: 4,
        max_linger: Duration::from_millis(5),
        ..BatchConfig::default()
    });

    // Aliases of the same model, enough that several shards own one.
    let aliases: Vec<String> = (0..8).map(|i| format!("cell-model:alias{i}")).collect();
    for alias in &aliases {
        service.install(
            alias,
            CellModel::from_artifact(&model.to_artifact()).expect("rehydrate"),
        );
    }
    let homes: std::collections::BTreeSet<usize> =
        aliases.iter().map(|a| service.shard_for(a)).collect();
    assert!(
        homes.len() >= 2,
        "8 aliases over 3 shards must span at least 2 shards: {homes:?}"
    );

    let inputs = demo_inputs();
    let expected: Vec<Vec<u64>> = inputs
        .iter()
        .map(|(kind, metrics)| {
            model
                .predict_many(&demo_graph(*kind), metrics)
                .iter()
                .map(|v| v.to_bits())
                .collect()
        })
        .collect();

    // Each request targets a different alias, so batches form on
    // several shards at once.
    let got: Vec<Vec<u64>> = std::thread::scope(|scope| {
        let handles: Vec<_> = inputs
            .iter()
            .enumerate()
            .map(|(i, (kind, metrics))| {
                let service = Arc::clone(&service);
                let id = aliases[i % aliases.len()].clone();
                let input = PredictInput::Cell {
                    graph: demo_graph(*kind),
                    metrics: metrics.clone(),
                };
                scope.spawn(move || {
                    service
                        .submit(&id, input, None)
                        .expect("predict")
                        .iter()
                        .map(|v| v.to_bits())
                        .collect::<Vec<u64>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("join"))
            .collect()
    });

    assert_eq!(
        got, expected,
        "sharded replies must be bitwise-identical to serial predict_many at {threads} threads"
    );
    service.shutdown();
    stco_par::set_global_threads(0);
}

#[test]
fn sharded_replies_match_serial_single_thread() {
    assert_sharded_matches_serial(1);
}

#[test]
fn sharded_replies_match_serial_four_threads() {
    assert_sharded_matches_serial(4);
}

#[test]
fn unknown_model_and_bad_input_are_typed() {
    let (service, _model, id) = demo_service(BatchConfig::default());
    let err = service
        .submit(
            "cell-model:nope",
            PredictInput::Cell {
                graph: demo_graph(CellKind::Inv),
                metrics: vec![0],
            },
            None,
        )
        .expect_err("unknown model");
    assert!(matches!(err, ServeError::UnknownModel { .. }), "{err}");

    let err = service
        .submit(
            &id,
            PredictInput::Cell {
                graph: demo_graph(CellKind::Inv),
                metrics: vec![METRICS.len()],
            },
            None,
        )
        .expect_err("metric out of range");
    assert!(matches!(err, ServeError::BadInput { .. }), "{err}");

    let err = service
        .submit(
            &id,
            PredictInput::Cell {
                graph: demo_graph(CellKind::Inv),
                metrics: vec![],
            },
            None,
        )
        .expect_err("no metrics");
    assert!(matches!(err, ServeError::BadInput { .. }), "{err}");
    service.shutdown();
}

/// One drained batch that mixes valid and invalid requests for one
/// model: each invalid request is answered `BadInput`, and each valid
/// one bitwise-equals serial `predict_many`, whatever its neighbours.
#[test]
fn mixed_batch_answers_bad_input_and_exact_values() {
    let mut invalid_edge = demo_graph(CellKind::Nand2);
    let nodes = invalid_edge.num_nodes();
    invalid_edge.edges.push((0, nodes));
    let mut short_features = demo_graph(CellKind::Inv);
    short_features.features.pop();
    let requests: Vec<(PredictInput, bool)> = vec![
        (cell_input(CellKind::Inv, vec![0, 1]), true),
        (cell_input(CellKind::Nand2, vec![METRICS.len()]), false),
        (
            cell_input(CellKind::Nor2, (0..METRICS.len()).collect()),
            true,
        ),
        (cell_input(CellKind::Inv, vec![]), false),
        (cell_input(CellKind::Nand2, vec![2, 5, 8]), true),
        (
            PredictInput::Cell {
                graph: invalid_edge,
                metrics: vec![0],
            },
            false,
        ),
        (cell_input(CellKind::Nor2, vec![4]), true),
        (
            PredictInput::Cell {
                graph: short_features,
                metrics: vec![0],
            },
            false,
        ),
    ];
    let n = requests.len();
    // The batch drains when it is full, so every request shares it; the
    // linger only bounds the wait if one were somehow lost.
    let (service, model, id) = demo_service(BatchConfig {
        max_batch: n,
        max_linger: Duration::from_secs(5),
        slow_log_k: n,
        ..BatchConfig::default()
    });
    let expected: Vec<Option<Vec<u64>>> = requests
        .iter()
        .map(|(input, valid)| match input {
            PredictInput::Cell { graph, metrics } if *valid => Some(
                model
                    .predict_many(graph, metrics)
                    .iter()
                    .map(|v| v.to_bits())
                    .collect(),
            ),
            _ => None,
        })
        .collect();

    let (tx, rx) = std::sync::mpsc::channel();
    for (i, (input, _)) in requests.into_iter().enumerate() {
        let tx = tx.clone();
        service.submit_async(
            &id,
            input,
            None,
            Box::new(move |result| drop(tx.send((i, result)))),
        );
    }
    let mut got: Vec<Option<Result<Vec<f64>, ServeError>>> = (0..n).map(|_| None).collect();
    for _ in 0..n {
        let (i, result) = rx
            .recv_timeout(Duration::from_secs(30))
            .expect("every request is answered");
        got[i] = Some(result);
    }
    for (i, (result, want)) in got.into_iter().zip(&expected).enumerate() {
        match (result.expect("answered"), want) {
            (Ok(values), Some(want)) => {
                let bits: Vec<u64> = values.iter().map(|v| v.to_bits()).collect();
                assert_eq!(&bits, want, "request {i} must match serial predict_many");
            }
            (Err(ServeError::BadInput { .. }), None) => {}
            (other, _) => panic!("request {i}: unexpected outcome {other:?}"),
        }
    }
    let slow = service.slow_requests();
    assert_eq!(slow.len(), n, "every request is logged");
    assert!(
        slow.iter().all(|r| r.batch_size == n),
        "all {n} requests must drain as one batch: {slow:?}"
    );
    service.shutdown();
}

fn cell_input(kind: CellKind, metrics: Vec<usize>) -> PredictInput {
    PredictInput::Cell {
        graph: demo_graph(kind),
        metrics,
    }
}

/// The service serves the GCN cell model alone: loading a Poisson
/// emulator's artifact is a typed `store` error, and nothing is cached.
#[test]
fn loading_a_device_model_is_a_store_error() {
    let dir = std::env::temp_dir().join(format!("stco-serve-device-{}", std::process::id()));
    let registry = Registry::open(&dir).expect("open registry");
    let poisson = PoissonEmulator::new(PoissonConfig {
        depth: 1,
        heads: 1,
        head_dim: 2,
        ..PoissonConfig::default()
    });
    let key = ArtifactKey::from_parts(PoissonEmulator::ARTIFACT_KIND, &["serve-rejects"]);
    registry.put(key, &poisson.to_artifact()).expect("export");

    let service = ModelService::start(Some(registry), BatchConfig::default());
    let err = service
        .load(PoissonEmulator::ARTIFACT_KIND, key)
        .expect_err("a device model is not served");
    assert_eq!(err.code(), "store", "{err}");
    assert!(service.loaded().is_empty(), "{:?}", service.loaded());
    service.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A predict frame for a device task is not part of the protocol: it
/// answers `malformed-frame`, and the connection stays usable.
#[test]
fn device_task_predict_frames_are_malformed() {
    use stco_obs::json::JsonValue;

    let (service, _model, id) = demo_service(BatchConfig::default());
    let server = TcpServer::start("127.0.0.1:0", service).expect("bind");
    let mut stream = std::net::TcpStream::connect(server.addr()).expect("connect");

    // A well-formed two-node device graph, in the layout a device task
    // would carry: only the task makes it malformed.
    let matrix = |rows: usize, cols: usize| {
        let data = vec!["0.5"; rows * cols].join(",");
        format!(r#"{{"rows":{rows},"cols":{cols},"data":[{data}]}}"#)
    };
    let nodes = matrix(2, NODE_DIM);
    let edges = matrix(2, EDGE_DIM);
    let frame = JsonValue::parse(&format!(
        r#"{{"op":"predict","model":"{id}","input":{{"task":"poisson","graph":{{"node_features":{nodes},"edges":[[0,1],[1,0]],"edge_features":{edges}}}}}}}"#
    ))
    .expect("parse");
    write_frame(&mut stream, &frame).expect("write");
    let reply = read_frame(&mut stream).expect("read").expect("reply");
    match Reply::from_json(&reply).expect("decode") {
        Reply::Error { code, .. } => assert_eq!(code, "malformed-frame"),
        other => panic!("expected error reply, got {other:?}"),
    }
    write_frame(&mut stream, &Request::Ping.to_json()).expect("write");
    let reply = read_frame(&mut stream).expect("read").expect("reply");
    assert_eq!(Reply::from_json(&reply).expect("decode"), Reply::Pong);
    server.stop();
}

#[test]
fn deadline_expires_in_queue() {
    let (service, _model, id) = demo_service(BatchConfig {
        // Long linger so a lone request sits in the queue past its
        // deadline before the first batch forms.
        max_batch: 64,
        max_linger: Duration::from_millis(250),
        ..BatchConfig::default()
    });
    let err = service
        .submit(
            &id,
            PredictInput::Cell {
                graph: demo_graph(CellKind::Inv),
                metrics: vec![0],
            },
            Some(Duration::from_millis(0)),
        )
        .expect_err("deadline must expire");
    assert!(matches!(err, ServeError::DeadlineExceeded), "{err}");
    service.shutdown();
}

#[test]
fn shutdown_drains_queued_requests_then_rejects() {
    let (service, model, id) = demo_service(BatchConfig {
        max_batch: 4,
        max_linger: Duration::from_millis(50),
        ..BatchConfig::default()
    });
    let expected: Vec<u64> = model
        .predict_many(&demo_graph(CellKind::Inv), &[0, 1])
        .iter()
        .map(|v| v.to_bits())
        .collect();

    let results: Vec<Vec<u64>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..3)
            .map(|_| {
                let service = Arc::clone(&service);
                let id = id.clone();
                scope.spawn(move || {
                    service
                        .submit(
                            &id,
                            PredictInput::Cell {
                                graph: demo_graph(CellKind::Inv),
                                metrics: vec![0, 1],
                            },
                            None,
                        )
                        .expect("queued request must be answered on shutdown")
                        .iter()
                        .map(|v| v.to_bits())
                        .collect::<Vec<u64>>()
                })
            })
            .collect();
        // Shut down only once every submitter has either enqueued or
        // already been answered (a linger expiry may drain early —
        // also fine); shutting down sooner could bounce a late
        // enqueue with `ShuttingDown`.
        let mut tries = 0;
        while service.queue_depth() < 3 && !handles.iter().all(|h| h.is_finished()) && tries < 500 {
            std::thread::sleep(Duration::from_millis(1));
            tries += 1;
        }
        service.shutdown();
        handles
            .into_iter()
            .map(|h| h.join().expect("join"))
            .collect()
    });
    for r in results {
        assert_eq!(r, expected);
    }

    let err = service
        .submit(
            &id,
            PredictInput::Cell {
                graph: demo_graph(CellKind::Inv),
                metrics: vec![0],
            },
            None,
        )
        .expect_err("post-shutdown submit");
    assert!(matches!(err, ServeError::ShuttingDown), "{err}");
}

#[test]
fn backpressure_rejects_when_queue_is_full() {
    let (service, _model, id) = demo_service(BatchConfig {
        max_batch: 64,
        max_linger: Duration::from_secs(1),
        max_pending: 2,
        ..BatchConfig::default()
    });
    // Fill the queue from threads that will block on their replies.
    std::thread::scope(|scope| {
        for _ in 0..2 {
            let service = Arc::clone(&service);
            let id = id.clone();
            scope.spawn(move || {
                let _ = service.submit(
                    &id,
                    PredictInput::Cell {
                        graph: demo_graph(CellKind::Inv),
                        metrics: vec![0],
                    },
                    None,
                );
            });
        }
        // Wait until both are enqueued.
        let mut tries = 0;
        while service.queue_depth() < 2 && tries < 200 {
            std::thread::sleep(Duration::from_millis(1));
            tries += 1;
        }
        assert_eq!(service.queue_depth(), 2, "queue must fill");
        let err = service
            .submit(
                &id,
                PredictInput::Cell {
                    graph: demo_graph(CellKind::Inv),
                    metrics: vec![0],
                },
                None,
            )
            .expect_err("third submit must bounce");
        assert!(matches!(err, ServeError::QueueFull { depth: 2 }), "{err}");
        service.shutdown();
    });
}

#[test]
fn tcp_roundtrip_matches_in_process_predictions() {
    let model = train_demo_model().expect("train demo model");
    let dir = std::env::temp_dir().join(format!("stco-serve-test-{}", std::process::id()));
    let registry = Registry::open(&dir).expect("open registry");
    let key = demo_key();
    registry.put(key, &model.to_artifact()).expect("export");

    let service = ModelService::start(Some(registry), BatchConfig::default());
    let server = TcpServer::start("127.0.0.1:0", service).expect("bind");
    let addr = server.addr().to_string();

    let mut client = Client::connect(&addr).expect("connect");
    client.ping().expect("ping");
    let id = client.load(CellModel::ARTIFACT_KIND, key).expect("load");
    assert_eq!(id, ModelService::model_id(CellModel::ARTIFACT_KIND, key));
    let stats = client.stats().expect("stats");
    assert_eq!(stats.loaded, vec![id.clone()]);

    let metrics: Vec<usize> = (0..METRICS.len()).collect();
    for kind in DEMO_CELLS {
        let graph = demo_graph(kind);
        let expected: Vec<u64> = model
            .predict_many(&graph, &metrics)
            .iter()
            .map(|v| v.to_bits())
            .collect();
        let got: Vec<u64> = client
            .predict(
                &id,
                &PredictInput::Cell {
                    graph,
                    metrics: metrics.clone(),
                },
                Some(5_000),
            )
            .expect("predict")
            .iter()
            .map(|v| v.to_bits())
            .collect();
        assert_eq!(
            got, expected,
            "TCP replies must be bitwise-exact for {kind:?}"
        );
    }

    // Unknown model over the wire is a typed remote error.
    let err = client
        .predict(
            "cell-model:ffffffffffffffff",
            &PredictInput::Cell {
                graph: demo_graph(CellKind::Inv),
                metrics: vec![0],
            },
            None,
        )
        .expect_err("unknown model");
    match err {
        ServeError::Remote { code, .. } => assert_eq!(code, "unknown-model"),
        other => panic!("expected remote error, got {other}"),
    }

    client.shutdown().expect("shutdown");
    server.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn malformed_frames_get_typed_error_replies() {
    use std::io::{Read, Write};

    let (service, _model, _id) = demo_service(BatchConfig::default());
    let server = TcpServer::start("127.0.0.1:0", service).expect("bind");
    let addr = server.addr();

    // Valid frame, bogus JSON shape: connection survives, typed reply.
    {
        let mut stream = std::net::TcpStream::connect(addr).expect("connect");
        write_frame(
            &mut stream,
            &stco_obs::json::JsonValue::Obj(vec![(
                "op".to_string(),
                stco_obs::json::JsonValue::Str("warp".to_string()),
            )]),
        )
        .expect("write");
        let reply = read_frame(&mut stream).expect("read").expect("reply");
        match Reply::from_json(&reply).expect("decode") {
            Reply::Error { code, .. } => assert_eq!(code, "malformed-frame"),
            other => panic!("expected error reply, got {other:?}"),
        }
        // Same connection still answers a valid request.
        write_frame(&mut stream, &Request::Ping.to_json()).expect("write");
        let reply = read_frame(&mut stream).expect("read").expect("reply");
        assert_eq!(Reply::from_json(&reply).expect("decode"), Reply::Pong);
    }

    // Frame body that is not JSON at all: typed reply, then close.
    {
        let mut stream = std::net::TcpStream::connect(addr).expect("connect");
        let body = b"this is not json";
        stream
            .write_all(&(body.len() as u32).to_be_bytes())
            .expect("prefix");
        stream.write_all(body).expect("body");
        stream.flush().expect("flush");
        let reply = read_frame(&mut stream).expect("read").expect("reply");
        match Reply::from_json(&reply).expect("decode") {
            Reply::Error { code, .. } => assert_eq!(code, "malformed-frame"),
            other => panic!("expected error reply, got {other:?}"),
        }
    }

    // Oversized length prefix: typed reply, no giant allocation.
    {
        let mut stream = std::net::TcpStream::connect(addr).expect("connect");
        stream.write_all(&u32::MAX.to_be_bytes()).expect("prefix");
        stream.flush().expect("flush");
        let reply = read_frame(&mut stream).expect("read").expect("reply");
        match Reply::from_json(&reply).expect("decode") {
            Reply::Error { code, .. } => assert_eq!(code, "malformed-frame"),
            other => panic!("expected error reply, got {other:?}"),
        }
        // Server closes this connection (stream is unframed now).
        let mut buf = [0u8; 1];
        let n = stream.read(&mut buf).unwrap_or(0);
        assert_eq!(n, 0, "connection must close after an unframed error");
    }

    server.stop();
}

#[test]
fn wire_json_roundtrips_inputs_exactly() {
    let graph = demo_graph(CellKind::Nand2);
    let metrics = vec![0, 4, 8];
    let request = Request::Predict {
        model: "m".to_string(),
        input: PredictInput::Cell {
            graph: graph.clone(),
            metrics: metrics.clone(),
        },
        deadline_ms: Some(123),
    };
    let rendered = request.to_json().render();
    let parsed = stco_obs::json::JsonValue::parse(&rendered).expect("parse");
    let back = Request::from_json(&parsed).expect("decode");
    let Request::Predict {
        input: PredictInput::Cell {
            graph: g2,
            metrics: m2,
        },
        ..
    } = back
    else {
        panic!("decoded to a different op");
    };
    assert_eq!(metrics, m2);
    assert_eq!(graph.kinds, g2.kinds);
    assert_eq!(graph.labels, g2.labels);
    assert_eq!(graph.edges, g2.edges);
    let a: Vec<u64> = graph.features.iter().map(|v| v.to_bits()).collect();
    let b: Vec<u64> = g2.features.iter().map(|v| v.to_bits()).collect();
    assert_eq!(a, b, "features must survive the wire bitwise");
}
