//! The in-process model service: N worker shards, each with a warm
//! artifact cache and a dynamic micro-batching queue.
//!
//! # Sharding
//!
//! The service runs [`BatchConfig::shards`] independent shards.
//! Requests route to a shard by **consistent hashing** over the model
//! id (the stco-store content address, `kind:hexkey`): an FNV-1a-64
//! ring with 64 virtual nodes per shard, so same-model requests always
//! land on the same shard and keep `predict_batch` grouping dense,
//! while distinct models spread across shards. Each shard owns its own
//! warm `Arc` model cache, bounded queue, condvar and worker thread —
//! no cross-shard locks on the hot path.
//!
//! # Batching policy
//!
//! Requests enqueue into their shard's bounded queue. The shard worker
//! drains a batch when either (a) [`BatchConfig::max_batch`] requests
//! are waiting, or (b) the *oldest* waiting request has lingered
//! [`BatchConfig::max_linger`] — so a lone request pays at most the
//! linger, and a burst fills batches immediately. The batch executes as
//! one [`stco_par::par_map`] over the items; each item runs exactly the
//! forward graph a serial `predict` call runs, so batched replies are
//! bitwise-identical to serial ones at every thread count.
//!
//! # Admission control, backpressure and deadlines
//!
//! Three layers, outermost first:
//!
//! * **Load shedding** — when a shard's queue depth crosses
//!   [`BatchConfig::shed_high`] the shard enters *shedding* and rejects
//!   submits with [`ServeError::Overloaded`] (counted in
//!   `serve.shed_total`) until depth falls back to
//!   [`BatchConfig::shed_low`] (hysteresis, so admission does not
//!   flap at the watermark).
//! * **Hard backpressure** — at [`BatchConfig::max_pending`] queued
//!   requests further submits fail fast with [`ServeError::QueueFull`].
//! * **Deadlines** — every request carries one; a request still queued
//!   past its deadline is answered [`ServeError::DeadlineExceeded`]
//!   without executing.
//!
//! # Drain and shutdown
//!
//! [`ModelService::drain_shard`] flips one shard into *draining*: new
//! submits to it get [`ServeError::Draining`] while queued and
//! in-flight requests complete; the call returns once the shard is
//! quiescent (queue empty, worker idle). [`ModelService::resume_shard`]
//! reopens it — together they support hot restarts.
//! [`ModelService::shutdown`] stops new submits everywhere, lets every
//! shard worker drain its queue (executing the requests — an accepted
//! request is always answered), then joins the workers.
//!
//! # Telemetry
//!
//! Every request gets a **trace id** at submit. The worker measures the
//! four phases of its life — queue wait, batch assembly, the stco-par
//! forward pass, reply write — and:
//!
//! * observes `serve.queue_wait_seconds`, `serve.batch_size` and the
//!   **sliding-window** `serve.latency_seconds` (rolling p50/p95/p99);
//! * keeps `serve.queue_depth` (total across shards) and
//!   `serve.shard_queue_depth` (hottest shard) gauges current, plus the
//!   `serve.shed_total` shed counter;
//! * emits a `serve.request` event with the full phase breakdown for a
//!   deterministic 1-in-[`BatchConfig::trace_sample_n`] sample of trace
//!   ids;
//! * keeps the worst [`BatchConfig::slow_log_k`] requests by total
//!   latency as [`SlowRequest`] exemplars, readable via
//!   [`ModelService::slow_requests`] and the TCP `stats` op.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::time::{Duration, Instant};

use stco_cells::encode::{CellGraph, FEATURE_DIM};
use stco_nn::gnn::GraphData;
use stco_store::{Artifact, ArtifactKey, Registry};
use stco_surrogate::cell_model::{BatchedCellGraph, CellModel, InferencePrecision, METRICS};
use stco_surrogate::encoding::{EDGE_DIM, NODE_DIM};
use stco_surrogate::iv_predictor::IvPredictor;
use stco_surrogate::poisson_emulator::PoissonEmulator;

use crate::{Result, ServeError};

/// Micro-batching queue parameters (per shard).
#[derive(Debug, Clone, Copy)]
pub struct BatchConfig {
    /// Largest batch one worker pass executes.
    pub max_batch: usize,
    /// Longest the oldest request may wait before a partial batch runs.
    pub max_linger: Duration,
    /// Per-shard queue bound; submits beyond it fail with `QueueFull`.
    pub max_pending: usize,
    /// Deadline applied to requests that do not carry their own.
    pub default_deadline: Duration,
    /// Deterministic trace sampling: requests whose trace id is a
    /// multiple of this emit a `serve.request` event with the full
    /// phase breakdown (`0` disables sampling entirely).
    pub trace_sample_n: u64,
    /// How many worst-latency exemplars the slow-request log keeps.
    pub slow_log_k: usize,
    /// Worker shards. `0` reads `STCO_SHARDS` (default 1).
    pub shards: usize,
    /// Shedding high watermark: a shard whose queue depth reaches this
    /// starts rejecting submits with `Overloaded`. `0` disables
    /// shedding.
    pub shed_high: usize,
    /// Shedding low watermark: a shedding shard readmits once its
    /// depth falls to this (hysteresis; clamped to `shed_high`).
    pub shed_low: usize,
}

impl Default for BatchConfig {
    fn default() -> Self {
        BatchConfig {
            max_batch: 32,
            max_linger: Duration::from_millis(1),
            max_pending: 1024,
            default_deadline: Duration::from_secs(5),
            trace_sample_n: 64,
            slow_log_k: 8,
            shards: 0,
            shed_high: 768,
            shed_low: 512,
        }
    }
}

/// One slow-request exemplar: the full phase breakdown of a request's
/// life in the service. `queue + assembly + forward + reply ≈ total`
/// (the phases the worker controls; `total` is enqueue → reply sent).
#[derive(Debug, Clone, PartialEq)]
pub struct SlowRequest {
    /// Trace id assigned at submit.
    pub trace_id: u64,
    /// Size of the batch this request executed in.
    pub batch_size: usize,
    /// Time from enqueue to batch drain (queue wait + linger).
    pub queue_seconds: f64,
    /// Time spent assembling the drained batch for execution.
    pub assembly_seconds: f64,
    /// Duration of the batch's stco-par forward pass.
    pub forward_seconds: f64,
    /// Time writing this request's reply to its channel.
    pub reply_seconds: f64,
    /// Total latency: enqueue → reply written.
    pub total_seconds: f64,
}

/// Worst-K log of [`SlowRequest`] exemplars. The hot path is one
/// relaxed atomic load when the candidate is faster than the current
/// K-th worst; only genuinely slow requests take the mutex.
struct SlowLog {
    k: usize,
    /// f64 bits of the admission threshold (the K-th worst total, or
    /// `-inf` while the log is not yet full).
    threshold_bits: AtomicU64,
    entries: Mutex<Vec<SlowRequest>>,
}

impl SlowLog {
    fn new(k: usize) -> Self {
        SlowLog {
            k,
            threshold_bits: AtomicU64::new(f64::NEG_INFINITY.to_bits()),
            entries: Mutex::new(Vec::new()),
        }
    }

    fn record(&self, r: SlowRequest) {
        if self.k == 0
            || r.total_seconds <= f64::from_bits(self.threshold_bits.load(Ordering::Relaxed))
        {
            return;
        }
        let mut entries = self.entries.lock().unwrap_or_else(|e| e.into_inner());
        entries.push(r);
        entries.sort_by(|a, b| b.total_seconds.total_cmp(&a.total_seconds));
        entries.truncate(self.k);
        if entries.len() == self.k {
            if let Some(last) = entries.last() {
                self.threshold_bits
                    .store(last.total_seconds.to_bits(), Ordering::Relaxed);
            }
        }
    }

    fn worst(&self) -> Vec<SlowRequest> {
        self.entries
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }
}

/// Reads the `STCO_PRECISION` environment variable: `f32` opts a
/// freshly loaded cell model into the bounded-error fast-inference path
/// (DESIGN.md §15); anything else — including unset — keeps the
/// bitwise-deterministic `f64` default.
fn precision_from_env() -> InferencePrecision {
    match std::env::var("STCO_PRECISION") {
        Ok(v) if v.eq_ignore_ascii_case("f32") => InferencePrecision::F32,
        _ => InferencePrecision::F64,
    }
}

/// Reads `STCO_SHARDS` (default 1, capped at 64 — far above any sane
/// shard count for one process).
fn shards_from_env() -> usize {
    std::env::var("STCO_SHARDS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or(1)
        .min(64)
}

/// A model rehydrated from an artifact, ready to answer predictions.
#[derive(Debug)]
pub enum LoadedModel {
    /// GCN cell-characterization model.
    Cell(CellModel),
    /// RelGAT Poisson emulator.
    Poisson(PoissonEmulator),
    /// RelGAT IV predictor.
    Iv(IvPredictor),
}

impl LoadedModel {
    /// Rehydrates whichever model kind the artifact holds.
    ///
    /// # Errors
    ///
    /// [`stco_store::StoreError::WrongKind`] for artifact kinds that
    /// are not servable models, plus any rehydration failure.
    pub fn from_artifact(
        artifact: &Artifact,
    ) -> std::result::Result<LoadedModel, stco_store::StoreError> {
        match artifact.kind.as_str() {
            CellModel::ARTIFACT_KIND => {
                let mut model = CellModel::from_artifact(artifact)?;
                model.set_precision(precision_from_env());
                Ok(LoadedModel::Cell(model))
            }
            PoissonEmulator::ARTIFACT_KIND => Ok(LoadedModel::Poisson(
                PoissonEmulator::from_artifact(artifact)?,
            )),
            IvPredictor::ARTIFACT_KIND => {
                Ok(LoadedModel::Iv(IvPredictor::from_artifact(artifact)?))
            }
            other => Err(stco_store::StoreError::WrongKind {
                expected: "a servable model kind".to_string(),
                found: other.to_string(),
            }),
        }
    }

    /// The artifact kind this model was loaded from.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            LoadedModel::Cell(_) => CellModel::ARTIFACT_KIND,
            LoadedModel::Poisson(_) => PoissonEmulator::ARTIFACT_KIND,
            LoadedModel::Iv(_) => IvPredictor::ARTIFACT_KIND,
        }
    }

    /// Runs one prediction — the exact forward pass a direct
    /// `predict`/`predict_many` call runs, so the result is bitwise
    /// identical to in-process inference.
    ///
    /// # Errors
    ///
    /// [`ServeError::BadInput`] when the payload does not fit the
    /// model (wrong task, inconsistent shapes, out-of-range indices).
    pub fn predict(&self, input: &PredictInput) -> Result<Vec<f64>> {
        input.validate()?;
        match (self, input) {
            (LoadedModel::Cell(model), PredictInput::Cell { graph, metrics }) => {
                Ok(model.predict_many(graph, metrics))
            }
            (LoadedModel::Poisson(model), PredictInput::Poisson { graph }) => {
                Ok(model.predict_graph(graph))
            }
            (LoadedModel::Iv(model), PredictInput::Iv { graph }) => {
                Ok(vec![model.predict_log_current_graph(graph)])
            }
            _ => Err(ServeError::BadInput {
                context: format!(
                    "input task {:?} does not match model kind {:?}",
                    input.task(),
                    self.kind()
                ),
            }),
        }
    }
}

/// One predict request payload.
#[derive(Debug, Clone)]
pub enum PredictInput {
    /// Cell-metric prediction over a Table III cell graph.
    Cell {
        /// The encoded cell graph.
        graph: CellGraph,
        /// Metric indices to read (into `METRICS`).
        metrics: Vec<usize>,
    },
    /// Per-node potential map over an encoded device graph.
    Poisson {
        /// The encoded device graph (Poisson task features).
        graph: GraphData,
    },
    /// `log₁₀|I_D|` over an encoded device graph.
    Iv {
        /// The encoded device graph (IV task features).
        graph: GraphData,
    },
}

impl PredictInput {
    /// Short task tag (the wire `task` field).
    #[must_use]
    pub fn task(&self) -> &'static str {
        match self {
            PredictInput::Cell { .. } => "cell",
            PredictInput::Poisson { .. } => "poisson",
            PredictInput::Iv { .. } => "iv",
        }
    }

    /// Validates internal consistency (shapes, index ranges).
    ///
    /// # Errors
    ///
    /// [`ServeError::BadInput`] with a description of the violation.
    pub fn validate(&self) -> Result<()> {
        let bad = |context: String| Err(ServeError::BadInput { context });
        match self {
            PredictInput::Cell { graph, metrics } => {
                let n = graph.num_nodes();
                if graph.features.len() != n * FEATURE_DIM {
                    return bad(format!(
                        "cell graph has {} feature values for {n} nodes (want {})",
                        graph.features.len(),
                        n * FEATURE_DIM
                    ));
                }
                if graph.labels.len() != n {
                    return bad(format!("{} labels for {n} nodes", graph.labels.len()));
                }
                if n == 0 {
                    return bad("empty cell graph".to_string());
                }
                if let Some((s, d)) = graph.edges.iter().find(|(s, d)| *s >= n || *d >= n) {
                    return bad(format!("edge ({s},{d}) out of range for {n} nodes"));
                }
                if metrics.is_empty() {
                    return bad("no metrics requested".to_string());
                }
                if let Some(m) = metrics.iter().find(|m| **m >= METRICS.len()) {
                    return bad(format!("metric index {m} out of range"));
                }
                Ok(())
            }
            PredictInput::Poisson { graph } | PredictInput::Iv { graph } => {
                let n = graph.num_nodes();
                if n == 0 {
                    return bad("empty device graph".to_string());
                }
                if graph.node_features.cols() != NODE_DIM {
                    return bad(format!(
                        "device graph has node dim {} (want {NODE_DIM})",
                        graph.node_features.cols()
                    ));
                }
                if graph.edge_features.rows() != graph.edges.len()
                    || graph.edge_features.cols() != EDGE_DIM
                {
                    return bad(format!(
                        "edge features are {}×{} for {} edges (want {}×{EDGE_DIM})",
                        graph.edge_features.rows(),
                        graph.edge_features.cols(),
                        graph.edges.len(),
                        graph.edges.len()
                    ));
                }
                if let Some((s, d)) = graph.edges.iter().find(|(s, d)| *s >= n || *d >= n) {
                    return bad(format!("edge ({s},{d}) out of range for {n} nodes"));
                }
                Ok(())
            }
        }
    }
}

/// Where a request's reply goes: a channel for blocking submitters, a
/// callback for the nonblocking TCP multiplexer (invoked on the shard
/// worker thread — or inline on admission rejection).
pub enum ReplyTo {
    /// Blocking submitter parked on an mpsc receiver.
    Channel(mpsc::Sender<Result<Vec<f64>>>),
    /// Completion callback (the mux's out-buffer writer).
    Callback(Box<dyn FnOnce(Result<Vec<f64>>) + Send>),
}

impl ReplyTo {
    fn deliver(self, result: Result<Vec<f64>>) {
        match self {
            // A disconnected receiver means the submitter gave up; drop.
            ReplyTo::Channel(tx) => drop(tx.send(result)),
            ReplyTo::Callback(f) => f(result),
        }
    }
}

struct Pending {
    trace_id: u64,
    model: Arc<LoadedModel>,
    input: PredictInput,
    enqueued: Instant,
    deadline: Instant,
    reply: ReplyTo,
}

struct ShardQueue {
    queue: VecDeque<Pending>,
    shutting_down: bool,
    draining: bool,
    shedding: bool,
    /// The worker is executing a drained batch (drain quiescence needs
    /// both an empty queue and an idle worker).
    busy: bool,
}

struct Shard {
    state: Mutex<ShardQueue>,
    cond: Condvar,
    /// Lock-free mirror of `state.queue.len()` for stats/gauges.
    depth: AtomicUsize,
}

/// Ring placement hash: [`stco_store::fnv1a64`] finished with an
/// avalanche step.
fn ring_hash(bytes: &[u8]) -> u64 {
    let mut h = stco_store::fnv1a64(bytes);
    // FNV alone leaves the high bits under-mixed for strings that differ
    // only near the tail (one multiply cannot lift a small delta into
    // the top bits), which collapses the ring: finish with a murmur3-
    // style avalanche so nearby ids land far apart.
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^ (h >> 33)
}

/// Consistent-hash ring over the shard set: 64 virtual nodes per shard
/// sorted by hash; a model id routes to the first ring point at or
/// after its own hash (wrapping). Same id → same shard, always; adding
/// a shard moves only ~1/N of the id space.
struct HashRing {
    points: Vec<(u64, usize)>,
}

const VNODES_PER_SHARD: usize = 64;

impl HashRing {
    fn new(shards: usize) -> HashRing {
        let mut points = Vec::with_capacity(shards * VNODES_PER_SHARD);
        for shard in 0..shards {
            for vnode in 0..VNODES_PER_SHARD {
                points.push((
                    ring_hash(format!("shard-{shard}/vnode-{vnode}").as_bytes()),
                    shard,
                ));
            }
        }
        points.sort_unstable();
        HashRing { points }
    }

    fn route(&self, id: &str) -> usize {
        if self.points.len() <= VNODES_PER_SHARD {
            return 0;
        }
        let h = ring_hash(id.as_bytes());
        let i = self.points.partition_point(|(p, _)| *p < h);
        self.points[i % self.points.len()].1
    }
}

struct Shared {
    batch: BatchConfig,
    next_trace: AtomicU64,
    slow: SlowLog,
    ring: HashRing,
    shards: Vec<Shard>,
}

fn lock_state(shard: &Shard) -> std::sync::MutexGuard<'_, ShardQueue> {
    // A panicking worker poisons the mutex; the queue data itself stays
    // consistent, so recover the guard rather than propagate.
    shard.state.lock().unwrap_or_else(|e| e.into_inner())
}

/// Refreshes the depth gauges from the per-shard mirrors:
/// `serve.queue_depth` is the total across shards,
/// `serve.shard_queue_depth` the hottest single shard.
fn update_depth_gauges(shared: &Shared) {
    let metrics = stco_obs::Recorder::global().metrics();
    let mut total = 0usize;
    let mut hottest = 0usize;
    for shard in &shared.shards {
        let d = shard.depth.load(Ordering::Relaxed);
        total += d;
        hottest = hottest.max(d);
    }
    metrics.gauge("serve.queue_depth").set(total as f64);
    metrics.gauge("serve.shard_queue_depth").set(hottest as f64);
}

/// The warm-cache, sharded micro-batching model service.
pub struct ModelService {
    registry: Option<Registry>,
    /// One warm model cache per shard — a model lives only in its home
    /// shard (the one its id routes to), so shard workers never share
    /// cache locks.
    models: Vec<RwLock<HashMap<String, Arc<LoadedModel>>>>,
    shared: Arc<Shared>,
    workers: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl ModelService {
    /// Starts a service (and its shard workers) over a registry.
    #[must_use]
    pub fn start(registry: Option<Registry>, batch: BatchConfig) -> Arc<ModelService> {
        let mut batch = batch;
        if batch.shards == 0 {
            batch.shards = shards_from_env();
        }
        batch.shed_low = batch.shed_low.min(batch.shed_high);
        let shards: Vec<Shard> = (0..batch.shards)
            .map(|_| Shard {
                state: Mutex::new(ShardQueue {
                    queue: VecDeque::new(),
                    shutting_down: false,
                    draining: false,
                    shedding: false,
                    busy: false,
                }),
                cond: Condvar::new(),
                depth: AtomicUsize::new(0),
            })
            .collect();
        let shared = Arc::new(Shared {
            batch,
            next_trace: AtomicU64::new(1),
            slow: SlowLog::new(batch.slow_log_k),
            ring: HashRing::new(batch.shards),
            shards,
        });
        // Register the shed counter up front so every metrics snapshot
        // carries it, sheds or not.
        let _ = stco_obs::Recorder::global()
            .metrics()
            .counter("serve.shed_total");
        let workers = (0..batch.shards)
            .filter_map(|idx| {
                let worker_shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("stco-serve-shard{idx}"))
                    .spawn(move || worker_loop(&worker_shared, idx))
                    .ok()
            })
            .collect();
        Arc::new(ModelService {
            registry,
            models: (0..batch.shards)
                .map(|_| RwLock::new(HashMap::new()))
                .collect(),
            shared,
            workers: Mutex::new(workers),
        })
    }

    /// The canonical id a model is cached under: `<kind>:<key hex>`.
    #[must_use]
    pub fn model_id(kind: &str, key: ArtifactKey) -> String {
        format!("{kind}:{}", key.to_hex())
    }

    /// Number of worker shards.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.shared.shards.len()
    }

    /// The shard a model id routes to (consistent hash over the
    /// content address).
    #[must_use]
    pub fn shard_for(&self, model_id: &str) -> usize {
        self.shared.ring.route(model_id)
    }

    /// Loads an artifact from the registry into its home shard's warm
    /// cache and returns its model id. A hit on an already-loaded id
    /// is free.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownModel`] when the registry has no such
    /// artifact, [`ServeError::Store`] on read/decode failures.
    pub fn load(&self, kind: &str, key: ArtifactKey) -> Result<String> {
        let _span = stco_obs::span!("serve.load");
        let id = Self::model_id(kind, key);
        let shard = self.shard_for(&id);
        {
            let models = self.models[shard].read().unwrap_or_else(|e| e.into_inner());
            if models.contains_key(&id) {
                return Ok(id);
            }
        }
        let registry = self
            .registry
            .as_ref()
            .ok_or_else(|| ServeError::UnknownModel { id: id.clone() })?;
        let artifact = registry
            .load(kind, key)?
            .ok_or_else(|| ServeError::UnknownModel { id: id.clone() })?;
        let model = LoadedModel::from_artifact(&artifact)?;
        self.install(&id, model);
        stco_obs::event!("serve.model_loaded", model = id.as_str(), shard = shard);
        Ok(id)
    }

    /// Installs an in-memory model under an id (no registry round-trip
    /// — used by tests and single-process pipelines). The model lands
    /// in the shard its id routes to.
    pub fn install(&self, id: &str, model: LoadedModel) {
        let shard = self.shard_for(id);
        let mut models = self.models[shard]
            .write()
            .unwrap_or_else(|e| e.into_inner());
        models.insert(id.to_string(), Arc::new(model));
        drop(models);
        let mut total = 0usize;
        for m in &self.models {
            total += m.read().unwrap_or_else(|e| e.into_inner()).len();
        }
        stco_obs::Recorder::global()
            .metrics()
            .gauge("serve.models_loaded")
            .set(total as f64);
    }

    /// Ids of every loaded model across all shards, sorted.
    #[must_use]
    pub fn loaded(&self) -> Vec<String> {
        let mut ids: Vec<String> = self
            .models
            .iter()
            .flat_map(|m| {
                m.read()
                    .unwrap_or_else(|e| e.into_inner())
                    .keys()
                    .cloned()
                    .collect::<Vec<String>>()
            })
            .collect();
        ids.sort();
        ids
    }

    /// Total pending-queue depth across all shards.
    #[must_use]
    pub fn queue_depth(&self) -> usize {
        self.shared
            .shards
            .iter()
            .map(|s| s.depth.load(Ordering::Relaxed))
            .sum()
    }

    /// Per-shard pending-queue depths, indexed by shard.
    #[must_use]
    pub fn shard_queue_depths(&self) -> Vec<usize> {
        self.shared
            .shards
            .iter()
            .map(|s| s.depth.load(Ordering::Relaxed))
            .collect()
    }

    /// The worst-latency request exemplars seen so far (most severe
    /// first, at most [`BatchConfig::slow_log_k`] entries), each with
    /// its full phase breakdown.
    #[must_use]
    pub fn slow_requests(&self) -> Vec<SlowRequest> {
        self.shared.slow.worst()
    }

    /// Submits one predict request and blocks until its reply.
    ///
    /// The request joins its shard's micro-batching queue; `deadline`
    /// bounds its total queue time (defaulting to
    /// [`BatchConfig::default_deadline`]).
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownModel`], [`ServeError::QueueFull`],
    /// [`ServeError::Overloaded`], [`ServeError::Draining`],
    /// [`ServeError::DeadlineExceeded`], [`ServeError::ShuttingDown`],
    /// or [`ServeError::BadInput`] from execution.
    pub fn submit(
        &self,
        model_id: &str,
        input: PredictInput,
        deadline: Option<Duration>,
    ) -> Result<Vec<f64>> {
        let _span = stco_obs::span!("serve.submit");
        let (tx, rx) = mpsc::channel();
        self.enqueue(model_id, input, deadline, ReplyTo::Channel(tx));
        rx.recv().unwrap_or(Err(ServeError::ShuttingDown))
    }

    /// Submits one predict request without blocking: `complete` runs
    /// with the outcome — on the shard worker thread for executed
    /// requests, or inline (before this call returns) for admission
    /// rejections. The TCP multiplexer's I/O threads use this so a
    /// slow forward pass never parks an event loop.
    pub fn submit_async(
        &self,
        model_id: &str,
        input: PredictInput,
        deadline: Option<Duration>,
        complete: Box<dyn FnOnce(Result<Vec<f64>>) + Send>,
    ) {
        let _span = stco_obs::span!("serve.submit_async");
        self.enqueue(model_id, input, deadline, ReplyTo::Callback(complete));
    }

    /// Shared admission path: route, validate the model id, apply the
    /// admission-control stack, enqueue. Rejections are delivered
    /// through `reply` (and counted) rather than returned.
    fn enqueue(
        &self,
        model_id: &str,
        input: PredictInput,
        deadline: Option<Duration>,
        reply: ReplyTo,
    ) {
        let trace_id = self.shared.next_trace.fetch_add(1, Ordering::Relaxed);
        let metrics = stco_obs::Recorder::global().metrics();
        metrics.counter("serve.requests").inc();
        let shard_idx = self.shard_for(model_id);
        let model = {
            let models = self.models[shard_idx]
                .read()
                .unwrap_or_else(|e| e.into_inner());
            models.get(model_id).cloned()
        };
        let Some(model) = model else {
            reply.deliver(Err(ServeError::UnknownModel {
                id: model_id.to_string(),
            }));
            return;
        };
        let now = Instant::now();
        let deadline = now + deadline.unwrap_or(self.shared.batch.default_deadline);
        let shard = &self.shared.shards[shard_idx];
        let rejection = {
            let mut state = lock_state(shard);
            let verdict = admission_verdict(&mut state, &self.shared.batch, shard_idx);
            match verdict {
                Some(err) => Some((err, reply)),
                None => {
                    state.queue.push_back(Pending {
                        trace_id,
                        model,
                        input,
                        enqueued: now,
                        deadline,
                        reply,
                    });
                    shard.depth.store(state.queue.len(), Ordering::Relaxed);
                    None
                }
            }
        };
        match rejection {
            Some((err, reply)) => {
                metrics.counter("serve.errors").inc();
                if matches!(err, ServeError::Overloaded { .. }) {
                    metrics.counter("serve.shed_total").inc();
                }
                reply.deliver(Err(err));
            }
            None => {
                update_depth_gauges(&self.shared);
                shard.cond.notify_all();
            }
        }
    }

    /// Drains one shard for a hot restart: new submits to it get
    /// [`ServeError::Draining`] immediately, queued and in-flight
    /// requests complete, and the call returns once the shard is
    /// quiescent (queue empty, worker idle). Requests already drained
    /// into a running batch answer on their own channels.
    ///
    /// # Errors
    ///
    /// [`ServeError::BadInput`] for an out-of-range shard index.
    pub fn drain_shard(&self, shard: usize) -> Result<()> {
        let _span = stco_obs::span!("serve.drain_shard", shard = shard);
        let Some(s) = self.shared.shards.get(shard) else {
            return Err(ServeError::BadInput {
                context: format!("shard {shard} out of range (have {})", self.shard_count()),
            });
        };
        let mut state = lock_state(s);
        state.draining = true;
        s.cond.notify_all();
        while !state.queue.is_empty() || state.busy {
            state = s.cond.wait(state).unwrap_or_else(|e| e.into_inner());
        }
        stco_obs::event!("serve.shard_drained", shard = shard);
        Ok(())
    }

    /// Reopens a drained shard (clears the draining and shedding
    /// flags).
    ///
    /// # Errors
    ///
    /// [`ServeError::BadInput`] for an out-of-range shard index.
    pub fn resume_shard(&self, shard: usize) -> Result<()> {
        let _span = stco_obs::span!("serve.resume_shard", shard = shard);
        let Some(s) = self.shared.shards.get(shard) else {
            return Err(ServeError::BadInput {
                context: format!("shard {shard} out of range (have {})", self.shard_count()),
            });
        };
        let mut state = lock_state(s);
        state.draining = false;
        state.shedding = false;
        drop(state);
        s.cond.notify_all();
        stco_obs::event!("serve.shard_resumed", shard = shard);
        Ok(())
    }

    /// Stops accepting requests, drains every shard queue (every
    /// accepted request is answered) and joins the workers.
    /// Idempotent.
    pub fn shutdown(&self) {
        for shard in &self.shared.shards {
            let mut state = lock_state(shard);
            state.shutting_down = true;
            drop(state);
            shard.cond.notify_all();
        }
        let handles: Vec<_> = {
            let mut workers = self.workers.lock().unwrap_or_else(|e| e.into_inner());
            workers.drain(..).collect()
        };
        for handle in handles {
            let _ = handle.join();
        }
    }
}

/// The admission-control stack for one submit, outermost check first:
/// shutdown, drain, hard queue bound, shedding hysteresis. `None`
/// admits; `Some(err)` rejects.
fn admission_verdict(
    state: &mut ShardQueue,
    batch: &BatchConfig,
    shard_idx: usize,
) -> Option<ServeError> {
    if state.shutting_down {
        return Some(ServeError::ShuttingDown);
    }
    if state.draining {
        return Some(ServeError::Draining { shard: shard_idx });
    }
    let depth = state.queue.len();
    if depth >= batch.max_pending {
        return Some(ServeError::QueueFull { depth });
    }
    if batch.shed_high > 0 {
        if !state.shedding && depth >= batch.shed_high {
            state.shedding = true;
        } else if state.shedding && depth <= batch.shed_low {
            state.shedding = false;
        }
        if state.shedding {
            return Some(ServeError::Overloaded { depth });
        }
    }
    None
}

impl Drop for ModelService {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// One shard's worker: waits for requests, forms batches under the
/// size/linger policy, executes them on the stco-par pool.
fn worker_loop(shared: &Shared, shard_idx: usize) {
    let metrics = stco_obs::Recorder::global().metrics();
    let size_bounds: Vec<f64> = (1..=shared.batch.max_batch).map(|n| n as f64).collect();
    let batch_size_hist = metrics.histogram("serve.batch_size", &size_bounds);
    let queue_wait_hist = metrics.histogram(
        "serve.queue_wait_seconds",
        &stco_obs::metrics::seconds_buckets(),
    );
    let latency = metrics.windowed_histogram(
        "serve.latency_seconds",
        &stco_obs::metrics::seconds_buckets(),
        stco_obs::WindowConfig::default(),
    );
    let deadline_counter = metrics.counter("serve.deadline_exceeded");
    let replies_counter = metrics.counter("serve.replies");
    let errors_counter = metrics.counter("serve.errors");
    let shard = &shared.shards[shard_idx];
    loop {
        // Phase 1: wait until a batch is due (full, lingered, or draining).
        let batch: Vec<Pending> = {
            let mut state = lock_state(shard);
            loop {
                if state.queue.is_empty() {
                    if state.shutting_down {
                        return;
                    }
                    state = shard.cond.wait(state).unwrap_or_else(|e| e.into_inner());
                    continue;
                }
                let full = state.queue.len() >= shared.batch.max_batch;
                let oldest = state
                    .queue
                    .front()
                    .map_or_else(Instant::now, |p| p.enqueued);
                let due = oldest + shared.batch.max_linger;
                let now = Instant::now();
                if full || state.shutting_down || state.draining || now >= due {
                    let take = state.queue.len().min(shared.batch.max_batch);
                    let drained: Vec<Pending> = state.queue.drain(..take).collect();
                    state.busy = true;
                    shard.depth.store(state.queue.len(), Ordering::Relaxed);
                    break drained;
                }
                let (next, _timeout) = shard
                    .cond
                    .wait_timeout(state, due - now)
                    .unwrap_or_else(|e| e.into_inner());
                state = next;
            }
        };
        update_depth_gauges(shared);

        let batch_size = batch.len();
        let _span = stco_obs::span!("serve.batch", shard = shard_idx, size = batch_size);
        batch_size_hist.observe(batch_size as f64);

        // Phase 2 (assembly): separate expired requests, lay the rest
        // out for one parallel pass. Reply sinks are kept aside (the
        // callback boxes are not Sync); the (model, input) pairs are.
        let drained = Instant::now();
        let mut work: Vec<(Arc<LoadedModel>, PredictInput)> = Vec::with_capacity(batch_size);
        let mut repliers: Vec<(ReplyTo, Instant, bool, u64)> = Vec::with_capacity(batch_size);
        for p in batch {
            let expired = drained > p.deadline;
            if !expired {
                work.push((p.model, p.input));
            }
            queue_wait_hist.observe(drained.duration_since(p.enqueued).as_secs_f64());
            repliers.push((p.reply, p.enqueued, expired, p.trace_id));
        }
        let assembled = Instant::now();
        let assembly_seconds = assembled.duration_since(drained).as_secs_f64();

        // Phase 3 (forward): the batched stco-par pass.
        let results = forward_batch(&work);
        let forward_seconds = assembled.elapsed().as_secs_f64();

        // Phase 4 (reply write): answer every request, then fold the
        // phase breakdown into the windowed latency histogram, the
        // sampled trace events and the slow-request log.
        let mut results = results.into_iter();
        for (reply, enqueued, expired, trace_id) in repliers {
            let outcome = if expired {
                deadline_counter.inc();
                Err(ServeError::DeadlineExceeded)
            } else {
                results.next().unwrap_or(Err(ServeError::ShuttingDown))
            };
            if outcome.is_err() {
                errors_counter.inc();
            } else {
                replies_counter.inc();
            }
            let reply_start = Instant::now();
            reply.deliver(outcome);
            let replied = Instant::now();
            let breakdown = SlowRequest {
                trace_id,
                batch_size,
                queue_seconds: drained.duration_since(enqueued).as_secs_f64(),
                assembly_seconds,
                forward_seconds,
                reply_seconds: replied.duration_since(reply_start).as_secs_f64(),
                total_seconds: replied.duration_since(enqueued).as_secs_f64(),
            };
            latency.observe(breakdown.total_seconds);
            if shared.batch.trace_sample_n > 0 && trace_id % shared.batch.trace_sample_n == 0 {
                stco_obs::event!(
                    "serve.request",
                    trace = trace_id,
                    shard = shard_idx,
                    batch = batch_size,
                    queue_s = breakdown.queue_seconds,
                    assembly_s = breakdown.assembly_seconds,
                    forward_s = breakdown.forward_seconds,
                    reply_s = breakdown.reply_seconds,
                    total_s = breakdown.total_seconds
                );
            }
            shared.slow.record(breakdown);
        }

        // Batch fully answered: clear busy and wake drain waiters.
        {
            let mut state = lock_state(shard);
            state.busy = false;
        }
        shard.cond.notify_all();
    }
}

/// One forward-pass unit of a drained batch: either a single request or
/// a group of cell-graph requests sharing a model.
enum ForwardTask {
    Single(usize),
    CellGroup(Vec<usize>),
}

/// Executes one drained batch. Cell-graph requests that share a model
/// are packed into one block-diagonal [`BatchedCellGraph`] and answered
/// by a single [`CellModel::predict_batch`] trunk evaluation — a few
/// large blocked GEMMs instead of one small GEMM chain per request.
/// Everything else (other model kinds, lone cell requests) runs its own
/// per-item forward. The output is indexed like `work`, and every value
/// is bitwise-identical to the per-item [`LoadedModel::predict`] result
/// under the default `f64` precision (DESIGN.md §15).
fn forward_batch(work: &[(Arc<LoadedModel>, PredictInput)]) -> Vec<Result<Vec<f64>>> {
    // Group cell items by model identity (Arc pointer): requests for
    // the same installed model share weights and can be packed.
    let mut cell_groups: HashMap<usize, Vec<usize>> = HashMap::new();
    for (i, (model, input)) in work.iter().enumerate() {
        if matches!(
            (model.as_ref(), input),
            (LoadedModel::Cell(_), PredictInput::Cell { .. })
        ) && input.validate().is_ok()
        {
            cell_groups
                .entry(Arc::as_ptr(model) as usize)
                .or_default()
                .push(i);
        }
    }
    // Order groups by first member so the task list is deterministic
    // regardless of allocator-dependent Arc pointer values.
    let mut groups: Vec<Vec<usize>> = cell_groups
        .into_values()
        .filter(|idxs| idxs.len() > 1)
        .collect();
    groups.sort_unstable_by_key(|idxs| idxs[0]);
    let mut tasks: Vec<ForwardTask> = Vec::new();
    let mut in_group = vec![false; work.len()];
    for idxs in groups {
        for &i in &idxs {
            in_group[i] = true;
        }
        tasks.push(ForwardTask::CellGroup(idxs));
    }
    for (i, grouped) in in_group.iter().enumerate() {
        if !grouped {
            tasks.push(ForwardTask::Single(i));
        }
    }
    let produced = stco_par::par_map(stco_par::ParConfig::current(), &tasks, |task| match task {
        ForwardTask::Single(i) => {
            let (model, input) = &work[*i];
            vec![(*i, model.predict(input))]
        }
        ForwardTask::CellGroup(idxs) => {
            let LoadedModel::Cell(cell) = work[idxs[0]].0.as_ref() else {
                return idxs
                    .iter()
                    .map(|&i| (i, work[i].0.predict(&work[i].1)))
                    .collect();
            };
            let mut graphs: Vec<&CellGraph> = Vec::with_capacity(idxs.len());
            let mut metric_lists: Vec<&[usize]> = Vec::with_capacity(idxs.len());
            for &i in idxs {
                let PredictInput::Cell { graph, metrics } = &work[i].1 else {
                    return idxs
                        .iter()
                        .map(|&i| (i, work[i].0.predict(&work[i].1)))
                        .collect();
                };
                graphs.push(graph);
                metric_lists.push(metrics.as_slice());
            }
            let packed = BatchedCellGraph::pack(&graphs);
            let outs = cell.predict_batch(&packed, &metric_lists);
            idxs.iter().copied().zip(outs.into_iter().map(Ok)).collect()
        }
    });
    // Every index is covered by exactly one task; the placeholder only
    // survives if a task were somehow dropped.
    let mut results: Vec<Result<Vec<f64>>> =
        work.iter().map(|_| Err(ServeError::ShuttingDown)).collect();
    for pairs in produced {
        for (i, r) in pairs {
            results[i] = r;
        }
    }
    results
}
