//! `stco-serve`: the serving half of the fast-stco training/inference
//! stack.
//!
//! The paper frames the GNN surrogates as amortized, query-many assets;
//! this crate serves the one queried per cell, corner and arc, the GCN
//! cell model (the device surrogates run inside the STCO loop):
//!
//! * [`service`] — an in-process [`ModelService`] **sharded N ways**:
//!   each shard owns a warm `Arc` model cache and a bounded
//!   micro-batching queue drained by its own worker. Requests route to
//!   shards by consistent hashing over the model id (the stco-store
//!   content address), so same-model traffic lands on the same shard
//!   and keeps `predict_batch` grouping dense. Batching is
//!   work-conserving: a free worker drains whatever is queued (up to
//!   [`BatchConfig::max_batch`]) at once, and requests that arrive
//!   during a forward coalesce into the next batch. A positive
//!   [`BatchConfig::max_linger`] is opt-in and holds a partial batch
//!   that long for fuller batches. Each batch is one forward pass
//!   executed on the [`stco_par`] pool: a model's valid requests run as
//!   one packed `predict_batch`, and each reply is bitwise-identical to
//!   a serial `predict_many` call on the request alone. Admission
//!   control stacks three layers: per-request deadlines, shedding
//!   watermarks (typed `overloaded` rejects before the hard bound) and
//!   bounded-queue backpressure (`queue-full`). Per-shard graceful
//!   drain (`draining` rejects, in-flight work completes) supports hot
//!   restarts.
//! * [`protocol`] — length-prefixed JSON frames over any
//!   `Read`/`Write`, reusing [`stco_obs::json`]. f64 payloads travel as
//!   shortest-roundtrip decimal, which Rust formats/parses exactly.
//!   [`protocol::FrameDecoder`] is the incremental flavour: it accepts
//!   bytes at any split boundary, for nonblocking sockets.
//! * [`mux`] / [`client`] — [`TcpServer`], a std-only readiness-loop
//!   TCP front end (nonblocking sockets, a small fixed pool of I/O event
//!   threads, per-connection frame state machines), and its matching
//!   blocking client. Crates layered on serve attach named
//!   [`Extension`]s that answer the opaque `ext` op.
//!
//! Every stage records obs spans and metrics: a `serve.queue_depth`
//! gauge, `serve.batch_size` and `serve.queue_wait_seconds` histograms,
//! a rolling-window `serve.latency_seconds` histogram, and request/
//! reply/error counters. Each request carries a trace id from submit to
//! reply; per-phase timings (queue wait, batch assembly, forward, reply
//! write) feed a worst-K slow-request log, and the `metrics`/`stats`
//! wire ops expose the whole registry (JSON + Prometheus text) and the
//! slow log remotely.

pub mod client;
pub mod demo;
pub mod mux;
pub mod protocol;
pub mod service;

pub use client::Client;
pub use mux::{Extension, TcpServer};
pub use service::{BatchConfig, ModelService, PredictInput, SlowRequest};

use std::fmt;

/// Errors from the serving stack.
#[derive(Debug)]
pub enum ServeError {
    /// Artifact-store failure while loading a model.
    Store(stco_store::StoreError),
    /// The request named a model that is not loaded.
    UnknownModel {
        /// The model id requested.
        id: String,
    },
    /// The request payload failed validation against the model.
    BadInput {
        /// What was wrong.
        context: String,
    },
    /// The pending queue is full (backpressure) — retry later.
    QueueFull {
        /// Queue depth at rejection time.
        depth: usize,
    },
    /// The shard crossed its shedding watermark — back off before the
    /// hard queue bound is hit (admission control, DESIGN.md §16).
    Overloaded {
        /// Shard queue depth at rejection time.
        depth: usize,
    },
    /// The shard is draining for a hot restart and rejects new work;
    /// in-flight requests still complete.
    Draining {
        /// The draining shard's index.
        shard: usize,
    },
    /// The request's deadline expired before execution.
    DeadlineExceeded,
    /// The service is shutting down and no longer accepts requests.
    ShuttingDown,
    /// A malformed frame or JSON document on the wire.
    Protocol {
        /// What was wrong.
        context: String,
    },
    /// Socket / I/O failure.
    Io(std::io::Error),
    /// The server replied with an error the client cannot refine.
    Remote {
        /// Wire error code.
        code: String,
        /// Server-rendered message.
        message: String,
    },
}

impl ServeError {
    /// The stable wire code of this error (the `code` field of error
    /// replies).
    #[must_use]
    pub fn code(&self) -> &'static str {
        match self {
            ServeError::Store(_) => "store",
            ServeError::UnknownModel { .. } => "unknown-model",
            ServeError::BadInput { .. } => "bad-input",
            ServeError::QueueFull { .. } => "queue-full",
            ServeError::Overloaded { .. } => "overloaded",
            ServeError::Draining { .. } => "draining",
            ServeError::DeadlineExceeded => "deadline-exceeded",
            ServeError::ShuttingDown => "shutting-down",
            ServeError::Protocol { .. } => "malformed-frame",
            ServeError::Io(_) => "io",
            ServeError::Remote { .. } => "remote",
        }
    }
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Store(e) => write!(f, "artifact store: {e}"),
            ServeError::UnknownModel { id } => write!(f, "model {id:?} is not loaded"),
            ServeError::BadInput { context } => write!(f, "bad predict input: {context}"),
            ServeError::QueueFull { depth } => {
                write!(f, "request queue full ({depth} pending), retry later")
            }
            ServeError::Overloaded { depth } => {
                write!(f, "shard shedding load ({depth} pending), back off")
            }
            ServeError::Draining { shard } => {
                write!(f, "shard {shard} is draining, retry another replica")
            }
            ServeError::DeadlineExceeded => write!(f, "request deadline expired in queue"),
            ServeError::ShuttingDown => write!(f, "service is shutting down"),
            ServeError::Protocol { context } => write!(f, "protocol error: {context}"),
            ServeError::Io(e) => write!(f, "serve I/O: {e}"),
            ServeError::Remote { code, message } => {
                write!(f, "server error [{code}]: {message}")
            }
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Store(e) => Some(e),
            ServeError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<stco_store::StoreError> for ServeError {
    fn from(e: stco_store::StoreError) -> Self {
        ServeError::Store(e)
    }
}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        ServeError::Io(e)
    }
}

/// Result alias for serving routines.
pub type Result<T> = std::result::Result<T, ServeError>;
