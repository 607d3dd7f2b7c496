//! Partial-frame torture tests for the wire protocol.
//!
//! The nonblocking multiplexer receives whatever byte runs the kernel
//! hands it, so [`FrameDecoder`] must tolerate input split at *any*
//! boundary — mid-prefix, mid-body, several frames in one read. These
//! tests drive it with:
//!
//! * a one-byte-at-a-time feed of a mixed request stream (the worst
//!   possible fragmentation), checked against the blocking
//!   [`read_frame`] oracle;
//! * randomized chunk splits over randomized float payloads (proptest);
//! * recoverable bad bodies (non-UTF-8, empty, non-JSON) vs the fatal
//!   oversized length prefix;
//! * a live TCP server fed one byte per write, and a pipelined burst of
//!   predicts whose replies must come back in submission order,
//!   bitwise-equal to in-process `predict_many`;
//! * the opaque `ext` op against an in-test echo [`Extension`]: bodies
//!   round-trip bitwise, routing and handler errors stay typed, and a
//!   body-less frame is a recoverable `malformed-frame`.

use std::io::Write;
use std::sync::Arc;

use proptest::prelude::*;
use stco_cells::library::CellKind;
use stco_obs::json::JsonValue;
use stco_serve::demo::{demo_graph, train_demo_model};
use stco_serve::protocol::{encode_frame, read_frame, write_frame, FrameDecoder, Reply, Request};
use stco_serve::service::{BatchConfig, LoadedModel, ModelService, PredictInput};
use stco_serve::{Client, Extension, ServeError, TcpServer};
use stco_surrogate::cell_model::{CellModel, METRICS};

/// A mixed request stream covering every op shape (predict carries
/// floats that only survive shortest-roundtrip rendering).
fn mixed_docs() -> Vec<JsonValue> {
    let metrics: Vec<usize> = (0..METRICS.len()).collect();
    vec![
        Request::Ping.to_json(),
        Request::Stats.to_json(),
        Request::Drain { shard: 3 }.to_json(),
        Request::Resume { shard: 3 }.to_json(),
        Request::Predict {
            model: "cell-model:demo".to_string(),
            input: PredictInput::Cell {
                graph: demo_graph(CellKind::Nand2),
                metrics,
            },
            deadline_ms: Some(250),
        }
        .to_json(),
        Request::Metrics.to_json(),
        Request::Extension {
            name: "echo".to_string(),
            body: float_body(),
        }
        .to_json(),
    ]
}

/// An extension body carrying floats that only survive exact
/// shortest-roundtrip rendering.
fn float_body() -> JsonValue {
    let values = [0.1, -1.0 / 3.0, 6.022_140_76e23, 1e-300, f64::MAX];
    JsonValue::Obj(vec![(
        "values".to_string(),
        JsonValue::Arr(values.iter().map(|v| JsonValue::Num(*v)).collect()),
    )])
}

/// Feeds `wire` into a fresh decoder in the given chunk sizes and
/// returns the decoded items.
fn feed_chunked(wire: &[u8], chunks: impl Iterator<Item = usize>) -> Vec<JsonValue> {
    let mut decoder = FrameDecoder::new();
    let mut out = Vec::new();
    let mut offset = 0usize;
    for chunk in chunks {
        if offset >= wire.len() {
            break;
        }
        let end = (offset + chunk.max(1)).min(wire.len());
        decoder
            .push(&wire[offset..end], &mut out)
            .expect("well-formed stream never fails push");
        offset = end;
    }
    if offset < wire.len() {
        decoder
            .push(&wire[offset..], &mut out)
            .expect("well-formed stream never fails push");
    }
    assert!(
        !decoder.mid_frame(),
        "decoder must end at a frame boundary after a whole stream"
    );
    out.into_iter()
        .map(|item| item.expect("every frame in the stream is well-formed"))
        .collect()
}

#[test]
fn one_byte_feed_matches_blocking_oracle() {
    let docs = mixed_docs();
    let mut wire = Vec::new();
    for doc in &docs {
        wire.extend_from_slice(&encode_frame(doc).expect("encode"));
    }

    // Oracle: the blocking reader over the same bytes.
    let mut cursor = std::io::Cursor::new(wire.clone());
    let mut oracle = Vec::new();
    while let Some(doc) = read_frame(&mut cursor).expect("oracle read") {
        oracle.push(doc);
    }
    assert_eq!(oracle.len(), docs.len());

    // Worst fragmentation: one byte per push.
    let decoded = feed_chunked(&wire, std::iter::repeat(1));
    assert_eq!(
        decoded, oracle,
        "byte-at-a-time decode must match the blocking reader"
    );
    assert_eq!(decoded, docs, "and the original documents");
}

#[test]
fn bad_bodies_are_recoverable_but_oversize_prefix_is_fatal() {
    let ping = encode_frame(&Request::Ping.to_json()).expect("encode");

    // Aligned frame with a non-UTF-8 body, then a good ping: the bad
    // frame surfaces as an Err *item* and the stream keeps going.
    let mut wire = vec![0, 0, 0, 2, 0xFF, 0xFE];
    wire.extend_from_slice(&ping);
    let mut decoder = FrameDecoder::new();
    let mut out = Vec::new();
    decoder
        .push(&wire, &mut out)
        .expect("bad bodies must not fail the push");
    assert_eq!(out.len(), 2);
    assert!(out[0].is_err(), "non-UTF-8 body is an Err item");
    assert!(out[1].is_ok(), "stream recovers at the next frame");

    // Same for an empty body and a non-JSON body.
    for bad in [&b""[..], &b"not json"[..]] {
        let mut wire = (u32::try_from(bad.len()).expect("small"))
            .to_be_bytes()
            .to_vec();
        wire.extend_from_slice(bad);
        wire.extend_from_slice(&ping);
        let mut decoder = FrameDecoder::new();
        let mut out = Vec::new();
        decoder.push(&wire, &mut out).expect("recoverable");
        assert!(out[0].is_err() && out[1].is_ok(), "{bad:?}");
    }

    // An oversized prefix desynchronizes the stream: fatal, even when
    // it arrives one byte at a time.
    let mut decoder = FrameDecoder::new();
    let mut out = Vec::new();
    let prefix = u32::MAX.to_be_bytes();
    let mut fatal = false;
    for b in prefix {
        if decoder.push(&[b], &mut out).is_err() {
            fatal = true;
            break;
        }
    }
    assert!(fatal, "oversized length prefix must fail the push");
    assert!(out.is_empty());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random float payloads through random chunk splits: the decoder
    /// must reproduce every document bit-for-bit regardless of where
    /// the reads land.
    #[test]
    fn random_splits_preserve_float_payloads(
        payloads in prop::collection::vec(prop::collection::vec(-1e12..1e12f64, 1..9), 1..6),
        chunks in prop::collection::vec(1usize..23, 1..256),
    ) {
        let docs: Vec<JsonValue> = payloads
            .iter()
            .map(|values| Reply::Values(values.clone()).to_json())
            .collect();
        let mut wire = Vec::new();
        for doc in &docs {
            wire.extend_from_slice(&encode_frame(doc).expect("encode"));
        }
        let decoded = feed_chunked(&wire, chunks.into_iter());
        prop_assert_eq!(decoded.len(), docs.len());
        for (got, want) in decoded.iter().zip(&payloads) {
            let Ok(Reply::Values(values)) = Reply::from_json(got) else {
                return Err(TestCaseError::fail("decoded frame is not a values reply"));
            };
            prop_assert_eq!(values.len(), want.len());
            for (g, w) in values.iter().zip(want) {
                prop_assert_eq!(g.to_bits(), w.to_bits(), "floats must survive bitwise");
            }
        }
    }
}

/// Starts an in-process server with the demo model installed.
fn demo_server() -> (std::sync::Arc<TcpServer>, String, CellModel) {
    let model = train_demo_model().expect("train demo model");
    let rehydrated = CellModel::from_artifact(&model.to_artifact()).expect("rehydrate");
    let service = ModelService::start(None, BatchConfig::default());
    let id = "cell-model:torture".to_string();
    service.install(&id, LoadedModel::Cell(rehydrated));
    let server = TcpServer::start("127.0.0.1:0", service).expect("bind");
    (server, id, model)
}

#[test]
fn tcp_server_tolerates_one_byte_writes() {
    let (server, _id, _model) = demo_server();
    let mut stream = std::net::TcpStream::connect(server.addr()).expect("connect");
    stream.set_nodelay(true).expect("nodelay");

    let frame = encode_frame(&Request::Ping.to_json()).expect("encode");
    for &byte in &frame {
        stream.write_all(&[byte]).expect("write one byte");
        stream.flush().expect("flush");
    }
    let reply = read_frame(&mut stream)
        .expect("read reply")
        .expect("reply frame");
    assert!(
        matches!(Reply::from_json(&reply), Ok(Reply::Pong)),
        "one-byte-fed ping must still pong: {reply:?}"
    );
    server.stop();
}

#[test]
fn pipelined_predicts_reply_in_submission_order() {
    let (server, id, model) = demo_server();
    let kinds = [
        CellKind::Inv,
        CellKind::Nand2,
        CellKind::Nor2,
        CellKind::Inv,
        CellKind::Nand2,
    ];
    // Distinct metric sets so out-of-order replies cannot pass by luck.
    let requests: Vec<(Vec<usize>, CellKind)> = kinds
        .iter()
        .enumerate()
        .map(|(i, &kind)| {
            let metrics: Vec<usize> = (0..METRICS.len()).filter(|m| m % (i + 1) == 0).collect();
            (metrics, kind)
        })
        .collect();

    let mut stream = std::net::TcpStream::connect(server.addr()).expect("connect");
    stream.set_nodelay(true).expect("nodelay");

    // Burst every request down the pipe before reading a single reply.
    let mut burst = Vec::new();
    for (metrics, kind) in &requests {
        let doc = Request::Predict {
            model: id.clone(),
            input: PredictInput::Cell {
                graph: demo_graph(*kind),
                metrics: metrics.clone(),
            },
            deadline_ms: Some(10_000),
        }
        .to_json();
        burst.extend_from_slice(&encode_frame(&doc).expect("encode"));
    }
    stream.write_all(&burst).expect("write burst");
    stream.flush().expect("flush");

    for (i, (metrics, kind)) in requests.iter().enumerate() {
        let reply = read_frame(&mut stream)
            .expect("read reply")
            .expect("reply frame");
        let Ok(Reply::Values(values)) = Reply::from_json(&reply) else {
            panic!("reply {i} is not values: {reply:?}");
        };
        let expected = model.predict_many(&demo_graph(*kind), metrics);
        assert_eq!(values.len(), expected.len(), "reply {i} length");
        for (g, e) in values.iter().zip(&expected) {
            assert_eq!(
                g.to_bits(),
                e.to_bits(),
                "pipelined reply {i} must be bitwise-identical and in order"
            );
        }
    }

    // The connection is still healthy after the burst.
    let ping = encode_frame(&Request::Ping.to_json()).expect("encode");
    stream.write_all(&ping).expect("ping");
    let reply = read_frame(&mut stream).expect("read").expect("pong frame");
    assert!(matches!(Reply::from_json(&reply), Ok(Reply::Pong)));

    // Half a frame then a hangup must not wedge the server: a fresh
    // connection still works afterwards.
    drop(stream);
    let mut partial = std::net::TcpStream::connect(server.addr()).expect("connect");
    partial.write_all(&ping[..3]).expect("partial prefix");
    drop(partial);
    let mut fresh = std::net::TcpStream::connect(server.addr()).expect("connect");
    fresh.write_all(&ping).expect("ping");
    fresh.flush().expect("flush");
    let reply = read_frame(&mut fresh).expect("read").expect("pong frame");
    assert!(matches!(Reply::from_json(&reply), Ok(Reply::Pong)));

    server.stop();
}

/// Echoes its body; a body with a `fail` field answers a typed error.
struct Echo;

impl Extension for Echo {
    fn call(&self, body: &JsonValue) -> stco_serve::Result<JsonValue> {
        match body.get("fail") {
            Some(_) => Err(ServeError::QueueFull { depth: 7 }),
            None => Ok(body.clone()),
        }
    }
}

#[test]
fn ext_op_routes_opaque_bodies_to_attached_extensions() {
    let service = ModelService::start(None, BatchConfig::default());
    let server = TcpServer::start("127.0.0.1:0", Arc::clone(&service)).expect("bind");
    server.attach("echo", Arc::new(Echo));
    let mut client = Client::connect(&server.addr().to_string()).expect("connect");

    // No zeros or NaNs in the body, so float equality is bit equality.
    let echoed = client.extension("echo", float_body()).expect("echo");
    assert_eq!(echoed, float_body(), "floats must survive bitwise");

    let failing = JsonValue::Obj(vec![("fail".to_string(), JsonValue::Bool(true))]);
    for (name, body, want) in [
        ("nope", float_body(), "bad-input"),
        ("echo", failing, "queue-full"),
    ] {
        match client.extension(name, body) {
            Err(ServeError::Remote { code, .. }) => assert_eq!(code, want, "{name}"),
            other => panic!("{name}: expected a remote {want} error, got {other:?}"),
        }
    }

    // A body-less `ext` frame is malformed but leaves the stream framed.
    let mut stream = std::net::TcpStream::connect(server.addr()).expect("connect");
    let bodyless = JsonValue::Obj(vec![
        ("op".to_string(), JsonValue::Str("ext".to_string())),
        ("name".to_string(), JsonValue::Str("echo".to_string())),
    ]);
    write_frame(&mut stream, &bodyless).expect("write");
    let reply = read_frame(&mut stream).expect("read").expect("reply");
    match Reply::from_json(&reply).expect("decode") {
        Reply::Error { code, .. } => assert_eq!(code, "malformed-frame"),
        other => panic!("expected error reply, got {other:?}"),
    }
    write_frame(&mut stream, &Request::Ping.to_json()).expect("write");
    let reply = read_frame(&mut stream).expect("read").expect("reply");
    assert_eq!(Reply::from_json(&reply).expect("decode"), Reply::Pong);

    server.stop();
    service.shutdown();
}
