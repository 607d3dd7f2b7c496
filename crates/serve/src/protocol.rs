//! The wire protocol: length-prefixed JSON frames.
//!
//! Every frame is `u32` (big-endian) byte length followed by one UTF-8
//! JSON document rendered/parsed by [`stco_obs::json`]. Floats travel
//! as shortest-roundtrip decimal, which Rust renders and re-parses to
//! the same bits (`-0.0` renders as `0`, the one accepted exception —
//! see `stco_obs::json`).
//!
//! Requests:
//!
//! ```text
//! {"op":"ping"}
//! {"op":"load","kind":"cell-model","key":"00ab…"}        // key: 16-hex
//! {"op":"stats"}
//! {"op":"metrics"}
//! {"op":"drain","shard":0}
//! {"op":"resume","shard":0}
//! {"op":"shutdown"}
//! {"op":"predict","model":"cell-model:00ab…","deadline_ms":250,
//!  "input":{"task":"cell","metrics":[0,3],"graph":{…}}}
//! {"op":"ext","name":"sweep","body":{…}}
//! ```
//!
//! Replies mirror them: `{"ok":"pong"}`,
//! `{"ok":"loaded","model":id,"shard":0}`, `{"ok":"stats",…}`,
//! `{"ok":"metrics",…}`, `{"ok":"drained","shard":0}`,
//! `{"ok":"resumed","shard":0}`, `{"ok":"shutting-down"}`,
//! `{"ok":"values","values":[…]}`, `{"ok":"ext","body":{…}}`
//! or `{"err":{"code":"queue-full","message":"…"}}`.
//!
//! The `ext` op carries an opaque JSON body to the
//! [`crate::Extension`] attached to the server under `name` and returns
//! the handler's reply body verbatim; serve itself never looks inside
//! either body. An unknown name answers `bad-input`.
//!
//! `stats` carries the full [`ServerStats`] admin view: queue depth
//! (total and per shard), loaded models, request/reply/error/deadline/
//! shed counters and the slow-request exemplar log with per-phase
//! breakdowns. `metrics` carries the entire metrics registry twice
//! over: a structured JSON snapshot
//! (`stco_obs::exposition::snapshot_json`) under `"snapshot"` and a
//! Prometheus-style text rendering under `"text"`.
//!
//! Two frame readers share the format: the blocking [`read_frame`] for
//! simple clients, and the incremental [`FrameDecoder`] state machine
//! the nonblocking multiplexer drives — it accepts input split at *any*
//! byte boundary (mid-prefix, mid-body) and yields whole documents as
//! they complete.

use std::io::{Read, Write};

use stco_cells::encode::{CellGraph, CellNodeKind};
use stco_nn::gnn::GraphData;
use stco_numerics::Matrix;
use stco_obs::json::JsonValue;
use stco_store::ArtifactKey;

use crate::service::{PredictInput, SlowRequest};
use crate::{Result, ServeError};

/// Upper bound on a single frame (64 MiB) — a corrupt length prefix
/// must not trigger a giant allocation.
pub const MAX_FRAME: usize = 64 * 1024 * 1024;

fn proto(context: impl Into<String>) -> ServeError {
    ServeError::Protocol {
        context: context.into(),
    }
}

/// Encodes one frame — length prefix plus rendered body — into a byte
/// vector (the unit the multiplexer's out-buffers queue).
///
/// # Errors
///
/// [`ServeError::Protocol`] on oversized documents.
pub fn encode_frame(doc: &JsonValue) -> Result<Vec<u8>> {
    let body = doc.render();
    let len = u32::try_from(body.len())
        .ok()
        .filter(|l| *l as usize <= MAX_FRAME);
    let len =
        len.ok_or_else(|| proto(format!("frame of {} bytes exceeds MAX_FRAME", body.len())))?;
    let mut frame = Vec::with_capacity(4 + body.len());
    frame.extend_from_slice(&len.to_be_bytes());
    frame.extend_from_slice(body.as_bytes());
    Ok(frame)
}

/// Writes one frame.
///
/// # Errors
///
/// [`ServeError::Protocol`] on oversized documents, [`ServeError::Io`]
/// on socket failures.
pub fn write_frame<W: Write>(w: &mut W, doc: &JsonValue) -> Result<()> {
    let frame = encode_frame(doc)?;
    w.write_all(&frame)?;
    w.flush()?;
    Ok(())
}

/// Incremental frame decoder: the per-connection state machine the
/// nonblocking multiplexer drives. Feed it whatever bytes the socket
/// yields — split anywhere, including mid-prefix — and it emits decoded
/// documents as frames complete.
///
/// Malformed frame *bodies* (non-UTF-8, non-JSON, empty) are recoverable
/// because the stream stays framed: they surface as `Err` items in the
/// output so the caller can answer with a typed error and keep the
/// connection. An oversized length prefix is **fatal** — the stream can
/// no longer be trusted to be framed — and fails the whole `push`.
#[derive(Debug, Default)]
pub struct FrameDecoder {
    prefix: [u8; 4],
    prefix_filled: usize,
    body: Vec<u8>,
    /// Body length of the frame in flight (`None` while reading the
    /// prefix).
    body_target: Option<usize>,
}

impl FrameDecoder {
    /// A decoder at a frame boundary.
    #[must_use]
    pub fn new() -> FrameDecoder {
        FrameDecoder::default()
    }

    /// True when some bytes of an unfinished frame have been consumed.
    #[must_use]
    pub fn mid_frame(&self) -> bool {
        self.prefix_filled > 0 || self.body_target.is_some()
    }

    /// Consumes `bytes`, appending one entry to `out` per completed
    /// frame: `Ok(doc)` for a well-formed document, `Err` for a
    /// recoverable bad body (see type docs).
    ///
    /// # Errors
    ///
    /// [`ServeError::Protocol`] when a length prefix exceeds
    /// [`MAX_FRAME`] — the stream is desynchronized and the connection
    /// must close after an error reply.
    pub fn push(&mut self, mut bytes: &[u8], out: &mut Vec<Result<JsonValue>>) -> Result<()> {
        while !bytes.is_empty() {
            match self.body_target {
                None => {
                    let take = (4 - self.prefix_filled).min(bytes.len());
                    self.prefix[self.prefix_filled..self.prefix_filled + take]
                        .copy_from_slice(&bytes[..take]);
                    self.prefix_filled += take;
                    bytes = &bytes[take..];
                    if self.prefix_filled == 4 {
                        let len = u32::from_be_bytes(self.prefix) as usize;
                        if len > MAX_FRAME {
                            return Err(proto(format!("frame length {len} exceeds MAX_FRAME")));
                        }
                        // Cap the up-front reservation: a hostile prefix
                        // under MAX_FRAME must not allocate 64 MiB before
                        // any body byte arrives.
                        self.body = Vec::with_capacity(len.min(64 * 1024));
                        self.body_target = Some(len);
                        self.prefix_filled = 0;
                    }
                }
                Some(target) => {
                    let take = (target - self.body.len()).min(bytes.len());
                    self.body.extend_from_slice(&bytes[..take]);
                    bytes = &bytes[take..];
                    if self.body.len() == target {
                        let body = std::mem::take(&mut self.body);
                        self.body_target = None;
                        out.push(decode_body(body));
                    }
                }
            }
        }
        Ok(())
    }
}

/// Decodes one complete frame body (empty bodies are malformed — every
/// request/reply is a JSON object).
fn decode_body(body: Vec<u8>) -> Result<JsonValue> {
    if body.is_empty() {
        return Err(proto("empty frame body"));
    }
    let text = String::from_utf8(body).map_err(|_| proto("frame body is not UTF-8"))?;
    JsonValue::parse(&text).map_err(|e| proto(format!("frame is not JSON: {e}")))
}

fn is_timeout(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock
            | std::io::ErrorKind::TimedOut
            | std::io::ErrorKind::Interrupted
    )
}

/// Fills `buf` fully, retrying read timeouts — once a frame has
/// started, a timeout must not drop the bytes already consumed.
fn read_full<R: Read>(r: &mut R, buf: &mut [u8], context: &str) -> Result<()> {
    let mut filled = 0usize;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => return Err(proto(format!("connection closed mid {context}"))),
            Ok(n) => filled += n,
            Err(e) if is_timeout(&e) => {}
            Err(e) => return Err(ServeError::Io(e)),
        }
    }
    Ok(())
}

/// Reads one frame; `Ok(None)` on a clean EOF at a frame boundary.
///
/// A read timeout *before any byte of a frame* surfaces as
/// [`ServeError::Io`] (`WouldBlock`/`TimedOut`) so idle loops can poll
/// a stop flag; timeouts mid-frame are retried internally.
///
/// # Errors
///
/// [`ServeError::Protocol`] on oversized/truncated/non-JSON frames,
/// [`ServeError::Io`] on socket failures.
pub fn read_frame<R: Read>(r: &mut R) -> Result<Option<JsonValue>> {
    let mut prefix = [0u8; 4];
    // First byte: EOF and timeouts surface to the caller.
    let first = loop {
        match r.read(&mut prefix[..1]) {
            Ok(0) => return Ok(None),
            Ok(_) => break prefix[0],
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(ServeError::Io(e)),
        }
    };
    prefix[0] = first;
    read_full(r, &mut prefix[1..], "length prefix")?;
    let len = u32::from_be_bytes(prefix) as usize;
    if len > MAX_FRAME {
        return Err(proto(format!("frame length {len} exceeds MAX_FRAME")));
    }
    let mut body = vec![0u8; len];
    read_full(r, &mut body, "frame body")?;
    decode_body(body).map(Some)
}

/// A decoded client request.
#[derive(Debug, Clone)]
pub enum Request {
    /// Liveness check.
    Ping,
    /// Load an artifact from the registry into the warm cache.
    Load {
        /// Artifact kind.
        kind: String,
        /// Artifact key.
        key: ArtifactKey,
    },
    /// Queue/model statistics.
    Stats,
    /// Full metrics registry snapshot (JSON + Prometheus text).
    Metrics,
    /// Drain one shard for a hot restart (new work typed-rejected,
    /// in-flight work completes; the reply waits for quiescence).
    Drain {
        /// Shard index.
        shard: usize,
    },
    /// Reopen a drained shard.
    Resume {
        /// Shard index.
        shard: usize,
    },
    /// Graceful server shutdown.
    Shutdown,
    /// One prediction.
    Predict {
        /// Model id (`kind:hex`).
        model: String,
        /// The payload.
        input: PredictInput,
        /// Optional per-request deadline, milliseconds.
        deadline_ms: Option<u64>,
    },
    /// A call to the [`crate::Extension`] attached under `name`.
    Extension {
        /// The extension's attach name.
        name: String,
        /// Opaque request body, passed through untouched.
        body: JsonValue,
    },
}

fn num(v: usize) -> JsonValue {
    JsonValue::Num(v as f64)
}

fn obj(pairs: Vec<(&str, JsonValue)>) -> JsonValue {
    JsonValue::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

fn shard_field(doc: &JsonValue) -> Result<usize> {
    doc.get("shard")
        .and_then(JsonValue::as_u64)
        .map(|s| s as usize)
        .ok_or_else(|| proto("missing/non-integer field \"shard\""))
}

fn str_field(doc: &JsonValue, key: &str) -> Result<String> {
    doc.get(key)
        .and_then(JsonValue::as_str)
        .map(str::to_string)
        .ok_or_else(|| proto(format!("missing/non-string field {key:?}")))
}

fn body_field(doc: &JsonValue) -> Result<JsonValue> {
    doc.get("body")
        .cloned()
        .ok_or_else(|| proto("missing field \"body\""))
}

fn arr_field<'a>(doc: &'a JsonValue, key: &str) -> Result<&'a [JsonValue]> {
    match doc.get(key) {
        Some(JsonValue::Arr(items)) => Ok(items),
        Some(_) => Err(proto(format!("field {key:?} is not an array"))),
        None => Err(proto(format!("missing array field {key:?}"))),
    }
}

fn f64_vec(doc: &JsonValue, key: &str) -> Result<Vec<f64>> {
    arr_field(doc, key)?
        .iter()
        .map(|v| {
            v.as_f64()
                .ok_or_else(|| proto(format!("non-number in {key:?}")))
        })
        .collect()
}

fn usize_vec(doc: &JsonValue, key: &str) -> Result<Vec<usize>> {
    arr_field(doc, key)?
        .iter()
        .map(|v| {
            v.as_u64()
                .map(|u| u as usize)
                .ok_or_else(|| proto(format!("non-index in {key:?}")))
        })
        .collect()
}

fn edges_to_json(edges: &[(usize, usize)]) -> JsonValue {
    JsonValue::Arr(
        edges
            .iter()
            .map(|(s, d)| JsonValue::Arr(vec![num(*s), num(*d)]))
            .collect(),
    )
}

fn edges_from_json(doc: &JsonValue, key: &str) -> Result<Vec<(usize, usize)>> {
    arr_field(doc, key)?
        .iter()
        .map(|pair| {
            let JsonValue::Arr(sd) = pair else {
                return Err(proto("edge is not a 2-array"));
            };
            match sd.as_slice() {
                [s, d] => {
                    let s = s
                        .as_u64()
                        .ok_or_else(|| proto("edge src is not an index"))?;
                    let d = d
                        .as_u64()
                        .ok_or_else(|| proto("edge dst is not an index"))?;
                    Ok((s as usize, d as usize))
                }
                _ => Err(proto("edge is not a 2-array")),
            }
        })
        .collect()
}

fn matrix_to_json(m: &Matrix) -> JsonValue {
    obj(vec![
        ("rows", num(m.rows())),
        ("cols", num(m.cols())),
        (
            "data",
            JsonValue::Arr(m.as_slice().iter().map(|v| JsonValue::Num(*v)).collect()),
        ),
    ])
}

fn matrix_from_json(doc: &JsonValue, key: &str) -> Result<Matrix> {
    let m = doc
        .get(key)
        .ok_or_else(|| proto(format!("missing matrix field {key:?}")))?;
    let rows = m
        .get("rows")
        .and_then(JsonValue::as_u64)
        .ok_or_else(|| proto("matrix missing rows"))? as usize;
    let cols = m
        .get("cols")
        .and_then(JsonValue::as_u64)
        .ok_or_else(|| proto("matrix missing cols"))? as usize;
    let data = f64_vec(m, "data")?;
    if rows.checked_mul(cols) != Some(data.len()) {
        return Err(proto(format!(
            "matrix {key:?} claims {rows}×{cols} but carries {} values",
            data.len()
        )));
    }
    Ok(Matrix::from_vec(rows, cols, data))
}

const KIND_TAGS: [(CellNodeKind, u64); 6] = [
    (CellNodeKind::Input, 0),
    (CellNodeKind::Output, 1),
    (CellNodeKind::NFet, 2),
    (CellNodeKind::PFet, 3),
    (CellNodeKind::Vdd, 4),
    (CellNodeKind::Vss, 5),
];

fn kind_to_tag(kind: CellNodeKind) -> u64 {
    KIND_TAGS
        .iter()
        .find(|(k, _)| *k == kind)
        .map_or(0, |(_, t)| *t)
}

fn kind_from_tag(tag: u64) -> Result<CellNodeKind> {
    KIND_TAGS
        .iter()
        .find(|(_, t)| *t == tag)
        .map(|(k, _)| *k)
        .ok_or_else(|| proto(format!("unknown cell node kind tag {tag}")))
}

fn cell_graph_to_json(graph: &CellGraph) -> JsonValue {
    obj(vec![
        (
            "features",
            JsonValue::Arr(graph.features.iter().map(|v| JsonValue::Num(*v)).collect()),
        ),
        (
            "kinds",
            JsonValue::Arr(
                graph
                    .kinds
                    .iter()
                    .map(|k| JsonValue::Num(kind_to_tag(*k) as f64))
                    .collect(),
            ),
        ),
        (
            "labels",
            JsonValue::Arr(
                graph
                    .labels
                    .iter()
                    .map(|l| JsonValue::Str(l.clone()))
                    .collect(),
            ),
        ),
        ("edges", edges_to_json(&graph.edges)),
    ])
}

fn cell_graph_from_json(doc: &JsonValue) -> Result<CellGraph> {
    let features = f64_vec(doc, "features")?;
    let kinds = usize_vec(doc, "kinds")?
        .into_iter()
        .map(|t| kind_from_tag(t as u64))
        .collect::<Result<Vec<CellNodeKind>>>()?;
    let labels = arr_field(doc, "labels")?
        .iter()
        .map(|l| {
            l.as_str()
                .map(str::to_string)
                .ok_or_else(|| proto("non-string label"))
        })
        .collect::<Result<Vec<String>>>()?;
    let edges = edges_from_json(doc, "edges")?;
    Ok(CellGraph {
        features,
        kinds,
        labels,
        edges,
    })
}

fn device_graph_to_json(graph: &GraphData) -> JsonValue {
    obj(vec![
        ("node_features", matrix_to_json(&graph.node_features)),
        ("edges", edges_to_json(&graph.edges)),
        ("edge_features", matrix_to_json(&graph.edge_features)),
    ])
}

fn device_graph_from_json(doc: &JsonValue) -> Result<GraphData> {
    Ok(GraphData {
        node_features: matrix_from_json(doc, "node_features")?,
        edges: edges_from_json(doc, "edges")?,
        edge_features: matrix_from_json(doc, "edge_features")?,
    })
}

/// Encodes a predict input as its wire JSON.
#[must_use]
pub fn input_to_json(input: &PredictInput) -> JsonValue {
    match input {
        PredictInput::Cell { graph, metrics } => obj(vec![
            ("task", JsonValue::Str("cell".to_string())),
            (
                "metrics",
                JsonValue::Arr(metrics.iter().map(|m| num(*m)).collect()),
            ),
            ("graph", cell_graph_to_json(graph)),
        ]),
        PredictInput::Poisson { graph } => obj(vec![
            ("task", JsonValue::Str("poisson".to_string())),
            ("graph", device_graph_to_json(graph)),
        ]),
        PredictInput::Iv { graph } => obj(vec![
            ("task", JsonValue::Str("iv".to_string())),
            ("graph", device_graph_to_json(graph)),
        ]),
    }
}

/// Decodes a predict input from its wire JSON.
///
/// # Errors
///
/// [`ServeError::Protocol`] on unknown tasks or malformed payloads.
pub fn input_from_json(doc: &JsonValue) -> Result<PredictInput> {
    let task = str_field(doc, "task")?;
    let graph = doc
        .get("graph")
        .ok_or_else(|| proto("missing field \"graph\""))?;
    match task.as_str() {
        "cell" => Ok(PredictInput::Cell {
            graph: cell_graph_from_json(graph)?,
            metrics: usize_vec(doc, "metrics")?,
        }),
        "poisson" => Ok(PredictInput::Poisson {
            graph: device_graph_from_json(graph)?,
        }),
        "iv" => Ok(PredictInput::Iv {
            graph: device_graph_from_json(graph)?,
        }),
        other => Err(proto(format!("unknown task {other:?}"))),
    }
}

impl Request {
    /// Encodes the request as its wire JSON.
    #[must_use]
    pub fn to_json(&self) -> JsonValue {
        match self {
            Request::Ping => obj(vec![("op", JsonValue::Str("ping".to_string()))]),
            Request::Load { kind, key } => obj(vec![
                ("op", JsonValue::Str("load".to_string())),
                ("kind", JsonValue::Str(kind.clone())),
                ("key", JsonValue::Str(key.to_hex())),
            ]),
            Request::Stats => obj(vec![("op", JsonValue::Str("stats".to_string()))]),
            Request::Metrics => obj(vec![("op", JsonValue::Str("metrics".to_string()))]),
            Request::Drain { shard } => obj(vec![
                ("op", JsonValue::Str("drain".to_string())),
                ("shard", num(*shard)),
            ]),
            Request::Resume { shard } => obj(vec![
                ("op", JsonValue::Str("resume".to_string())),
                ("shard", num(*shard)),
            ]),
            Request::Shutdown => obj(vec![("op", JsonValue::Str("shutdown".to_string()))]),
            Request::Predict {
                model,
                input,
                deadline_ms,
            } => {
                let mut pairs = vec![
                    ("op", JsonValue::Str("predict".to_string())),
                    ("model", JsonValue::Str(model.clone())),
                    ("input", input_to_json(input)),
                ];
                if let Some(ms) = deadline_ms {
                    pairs.push(("deadline_ms", JsonValue::Num(*ms as f64)));
                }
                obj(pairs)
            }
            Request::Extension { name, body } => obj(vec![
                ("op", JsonValue::Str("ext".to_string())),
                ("name", JsonValue::Str(name.clone())),
                ("body", body.clone()),
            ]),
        }
    }

    /// Decodes a request from its wire JSON.
    ///
    /// # Errors
    ///
    /// [`ServeError::Protocol`] on unknown ops or malformed fields.
    pub fn from_json(doc: &JsonValue) -> Result<Request> {
        let op = str_field(doc, "op")?;
        match op.as_str() {
            "ping" => Ok(Request::Ping),
            "stats" => Ok(Request::Stats),
            "metrics" => Ok(Request::Metrics),
            "drain" => Ok(Request::Drain {
                shard: shard_field(doc)?,
            }),
            "resume" => Ok(Request::Resume {
                shard: shard_field(doc)?,
            }),
            "shutdown" => Ok(Request::Shutdown),
            "load" => {
                let kind = str_field(doc, "kind")?;
                let hex = str_field(doc, "key")?;
                let key = u64::from_str_radix(&hex, 16)
                    .map_err(|_| proto(format!("key {hex:?} is not a hex u64")))?;
                Ok(Request::Load {
                    kind,
                    key: ArtifactKey::from_value(key),
                })
            }
            "predict" => {
                let model = str_field(doc, "model")?;
                let input = input_from_json(
                    doc.get("input")
                        .ok_or_else(|| proto("missing field \"input\""))?,
                )?;
                let deadline_ms = match doc.get("deadline_ms") {
                    None | Some(JsonValue::Null) => None,
                    Some(v) => Some(
                        v.as_u64()
                            .ok_or_else(|| proto("deadline_ms is not an integer"))?,
                    ),
                };
                Ok(Request::Predict {
                    model,
                    input,
                    deadline_ms,
                })
            }
            "ext" => Ok(Request::Extension {
                name: str_field(doc, "name")?,
                body: body_field(doc)?,
            }),
            other => Err(proto(format!("unknown op {other:?}"))),
        }
    }
}

fn slow_to_json(r: &SlowRequest) -> JsonValue {
    obj(vec![
        ("trace_id", JsonValue::Num(r.trace_id as f64)),
        ("batch_size", num(r.batch_size)),
        ("queue_seconds", JsonValue::Num(r.queue_seconds)),
        ("assembly_seconds", JsonValue::Num(r.assembly_seconds)),
        ("forward_seconds", JsonValue::Num(r.forward_seconds)),
        ("reply_seconds", JsonValue::Num(r.reply_seconds)),
        ("total_seconds", JsonValue::Num(r.total_seconds)),
    ])
}

fn slow_from_json(doc: &JsonValue) -> Result<SlowRequest> {
    let field = |key: &str| -> Result<f64> {
        doc.get(key)
            .and_then(JsonValue::as_f64)
            .ok_or_else(|| proto(format!("slow request missing {key}")))
    };
    Ok(SlowRequest {
        trace_id: doc
            .get("trace_id")
            .and_then(JsonValue::as_u64)
            .ok_or_else(|| proto("slow request missing trace_id"))?,
        batch_size: doc
            .get("batch_size")
            .and_then(JsonValue::as_u64)
            .ok_or_else(|| proto("slow request missing batch_size"))? as usize,
        queue_seconds: field("queue_seconds")?,
        assembly_seconds: field("assembly_seconds")?,
        forward_seconds: field("forward_seconds")?,
        reply_seconds: field("reply_seconds")?,
        total_seconds: field("total_seconds")?,
    })
}

/// The admin view the `stats` op returns: queue/model state, the
/// service's traffic counters and the slow-request exemplar log.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ServerStats {
    /// Requests currently queued (total across shards).
    pub queue_depth: usize,
    /// Worker shard count.
    pub shards: usize,
    /// Pending-queue depth of each shard, indexed by shard.
    pub shard_queue_depths: Vec<usize>,
    /// Requests rejected `overloaded` by the shedding watermarks.
    pub shed: u64,
    /// Loaded model ids, sorted.
    pub loaded: Vec<String>,
    /// Requests submitted (accepted or not).
    pub requests: u64,
    /// Successful replies.
    pub replies: u64,
    /// Errored submissions (rejections and failed executions).
    pub errors: u64,
    /// Requests answered `deadline-exceeded` without executing.
    pub deadline_exceeded: u64,
    /// Worst-latency exemplars, most severe first, with per-phase
    /// breakdowns.
    pub slow_requests: Vec<SlowRequest>,
}

/// A decoded server reply.
#[derive(Debug, Clone, PartialEq)]
pub enum Reply {
    /// Ping acknowledged.
    Pong,
    /// Artifact loaded into the warm cache.
    Loaded {
        /// Model id it is now served under.
        model: String,
        /// The shard that owns it (consistent-hash home).
        shard: usize,
    },
    /// Queue/model statistics and the slow-request log.
    Stats(ServerStats),
    /// Shard drained to quiescence.
    Drained {
        /// Shard index.
        shard: usize,
    },
    /// Shard reopened for traffic.
    Resumed {
        /// Shard index.
        shard: usize,
    },
    /// Full metrics registry exposition.
    Metrics {
        /// Structured snapshot (`stco_obs::exposition::snapshot_json`).
        snapshot: JsonValue,
        /// Prometheus-style text rendering.
        text: String,
    },
    /// Shutdown acknowledged; the server drains and exits.
    ShuttingDown,
    /// Prediction values.
    Values(Vec<f64>),
    /// An extension's reply body, passed through untouched.
    Extension(JsonValue),
    /// Typed error.
    Error {
        /// Stable code (see [`ServeError::code`]).
        code: String,
        /// Human-readable message.
        message: String,
    },
}

impl Reply {
    /// Encodes the reply as its wire JSON.
    #[must_use]
    pub fn to_json(&self) -> JsonValue {
        match self {
            Reply::Pong => obj(vec![("ok", JsonValue::Str("pong".to_string()))]),
            Reply::Loaded { model, shard } => obj(vec![
                ("ok", JsonValue::Str("loaded".to_string())),
                ("model", JsonValue::Str(model.clone())),
                ("shard", num(*shard)),
            ]),
            Reply::Drained { shard } => obj(vec![
                ("ok", JsonValue::Str("drained".to_string())),
                ("shard", num(*shard)),
            ]),
            Reply::Resumed { shard } => obj(vec![
                ("ok", JsonValue::Str("resumed".to_string())),
                ("shard", num(*shard)),
            ]),
            Reply::Stats(stats) => obj(vec![
                ("ok", JsonValue::Str("stats".to_string())),
                ("queue_depth", num(stats.queue_depth)),
                ("shards", num(stats.shards)),
                (
                    "shard_queue_depths",
                    JsonValue::Arr(stats.shard_queue_depths.iter().map(|d| num(*d)).collect()),
                ),
                ("shed", JsonValue::Num(stats.shed as f64)),
                (
                    "loaded",
                    JsonValue::Arr(
                        stats
                            .loaded
                            .iter()
                            .map(|m| JsonValue::Str(m.clone()))
                            .collect(),
                    ),
                ),
                ("requests", JsonValue::Num(stats.requests as f64)),
                ("replies", JsonValue::Num(stats.replies as f64)),
                ("errors", JsonValue::Num(stats.errors as f64)),
                (
                    "deadline_exceeded",
                    JsonValue::Num(stats.deadline_exceeded as f64),
                ),
                (
                    "slow_requests",
                    JsonValue::Arr(stats.slow_requests.iter().map(slow_to_json).collect()),
                ),
            ]),
            Reply::Metrics { snapshot, text } => obj(vec![
                ("ok", JsonValue::Str("metrics".to_string())),
                ("snapshot", snapshot.clone()),
                ("text", JsonValue::Str(text.clone())),
            ]),
            Reply::ShuttingDown => obj(vec![("ok", JsonValue::Str("shutting-down".to_string()))]),
            Reply::Values(values) => obj(vec![
                ("ok", JsonValue::Str("values".to_string())),
                (
                    "values",
                    JsonValue::Arr(values.iter().map(|v| JsonValue::Num(*v)).collect()),
                ),
            ]),
            Reply::Extension(body) => obj(vec![
                ("ok", JsonValue::Str("ext".to_string())),
                ("body", body.clone()),
            ]),
            Reply::Error { code, message } => obj(vec![(
                "err",
                obj(vec![
                    ("code", JsonValue::Str(code.clone())),
                    ("message", JsonValue::Str(message.clone())),
                ]),
            )]),
        }
    }

    /// Decodes a reply from its wire JSON.
    ///
    /// # Errors
    ///
    /// [`ServeError::Protocol`] on malformed replies.
    pub fn from_json(doc: &JsonValue) -> Result<Reply> {
        if let Some(err) = doc.get("err") {
            return Ok(Reply::Error {
                code: str_field(err, "code")?,
                message: str_field(err, "message")?,
            });
        }
        let ok = str_field(doc, "ok")?;
        match ok.as_str() {
            "pong" => Ok(Reply::Pong),
            "loaded" => Ok(Reply::Loaded {
                model: str_field(doc, "model")?,
                shard: shard_field(doc).unwrap_or(0),
            }),
            "drained" => Ok(Reply::Drained {
                shard: shard_field(doc)?,
            }),
            "resumed" => Ok(Reply::Resumed {
                shard: shard_field(doc)?,
            }),
            "stats" => {
                let counter = |key: &str| -> Result<u64> {
                    doc.get(key)
                        .and_then(JsonValue::as_u64)
                        .ok_or_else(|| proto(format!("stats missing {key}")))
                };
                Ok(Reply::Stats(ServerStats {
                    queue_depth: counter("queue_depth")? as usize,
                    shards: counter("shards")? as usize,
                    shard_queue_depths: usize_vec(doc, "shard_queue_depths")?,
                    shed: counter("shed")?,
                    loaded: arr_field(doc, "loaded")?
                        .iter()
                        .map(|m| {
                            m.as_str()
                                .map(str::to_string)
                                .ok_or_else(|| proto("non-string model id"))
                        })
                        .collect::<Result<Vec<String>>>()?,
                    requests: counter("requests")?,
                    replies: counter("replies")?,
                    errors: counter("errors")?,
                    deadline_exceeded: counter("deadline_exceeded")?,
                    slow_requests: arr_field(doc, "slow_requests")?
                        .iter()
                        .map(slow_from_json)
                        .collect::<Result<Vec<SlowRequest>>>()?,
                }))
            }
            "metrics" => Ok(Reply::Metrics {
                snapshot: doc
                    .get("snapshot")
                    .cloned()
                    .ok_or_else(|| proto("metrics missing snapshot"))?,
                text: str_field(doc, "text")?,
            }),
            "shutting-down" => Ok(Reply::ShuttingDown),
            "values" => Ok(Reply::Values(f64_vec(doc, "values")?)),
            "ext" => Ok(Reply::Extension(body_field(doc)?)),
            other => Err(proto(format!("unknown reply tag {other:?}"))),
        }
    }

    /// The error reply for a serve-side failure.
    #[must_use]
    pub fn from_error(e: &ServeError) -> Reply {
        Reply::Error {
            code: e.code().to_string(),
            message: e.to_string(),
        }
    }
}
