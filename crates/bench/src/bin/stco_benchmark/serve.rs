//! The `serve-open-loop` workload: an in-process `TcpServer` (1 shard,
//! default batching and multiplexer settings) serving a default-config
//! `CellModel` trained on `demo_samples()`, driven over one pipelined
//! TCP connection from this process. A writer thread sends, the main
//! thread reads the replies, which arrive in request order.
//!
//! Phases, as shares of the measured window: warmup (10%, discarded),
//! *low* = open loop at 2000 req/s (35%), *high* = open loop at
//! 3000 req/s (25%), *peak* = closed loop with 256 requests in flight
//! (30%, its first fifth discarded). Open-loop requests follow a seeded
//! Poisson schedule and are timed from their due time. The end-to-end
//! latencies are the low phase's: at 4000 req/s the server's periodic
//! stalls left a backlog whose p90 swung between runs by a factor of
//! five (2.9–14 ms), while at 2000 req/s it repeats. The high rate was
//! 4000 req/s until a run in a slow stretch of the host served only
//! 3700 req/s there and shed 1600 requests, which fails the run.

use std::io::{BufReader, Write};
use std::net::TcpStream;
use std::sync::{mpsc, Arc};
use std::time::Instant;

use stco_cells::encode::CellGraph;
use stco_cells::library::CellType;
use stco_compact::tech::TechnologyCard;
use stco_numerics::rng::Xorshift;
use stco_obs::metrics::{seconds_buckets, HistogramReading};
use stco_obs::WindowConfig;
use stco_serve::demo::{demo_samples, demo_train_config};
use stco_serve::protocol::{encode_frame, read_frame, Reply, Request};
use stco_serve::{BatchConfig, Client, ModelService, PredictInput, TcpServer};
use stco_store::{ArtifactKey, Registry};
use stco_surrogate::cell_model::{BatchedCellGraph, CellModel, CellModelConfig, METRICS};
use stco_tcad::materials::Technology;

use crate::fast_loop::draw_corner;
use crate::replay::cell_graph;
use crate::stats::{median, pace, poisson_schedule, quantile, shuffled, sorted, Ledger, WallClock};
use crate::{stage, BoxResult, Ctx, Outcome, Stages, OP_QUANTILE};

const LOW_RATE: f64 = 2000.0;
const HIGH_RATE: f64 = 3000.0;
const PEAK_IN_FLIGHT: usize = 256;
/// Share of the closed-loop phase discarded while the pipeline fills.
const PEAK_RAMP: f64 = 0.2;
/// Corners every library cell is encoded at.
const CORNERS: usize = 4;
/// Payloads in the replayed batched forward (the shard's `max_batch`).
const BATCH: usize = 32;

#[derive(Clone, Copy)]
enum Load {
    Open(f64),
    Closed(usize),
}

/// Phase name, share of the measured window, and offered load.
const PHASES: [(&str, f64, Load); 4] = [
    ("warmup", 0.1, Load::Open(LOW_RATE)),
    ("low", 0.35, Load::Open(LOW_RATE)),
    ("high", 0.25, Load::Open(HIGH_RATE)),
    ("peak", 0.3, Load::Closed(PEAK_IN_FLIGHT)),
];

const PHASE_SPANS: [&str; 4] = ["serve.warmup", "serve.low", "serve.high", "serve.peak"];

/// The running server and the in-process model it serves.
struct Server {
    server: Arc<TcpServer>,
    service: Arc<ModelService>,
    model_id: String,
    model: CellModel,
}

impl Drop for Server {
    fn drop(&mut self) {
        self.server.stop();
        self.service.shutdown();
    }
}

/// Trains the model, exports it to a fresh registry at `dir`, starts the
/// server and loads the model over the wire.
fn setup(dir: &std::path::Path) -> BoxResult<(Server, Stages)> {
    let mut stages = Vec::new();
    let config = CellModelConfig::default();
    let schedule = demo_train_config();
    let mut model = CellModel::new(config);
    stage(&mut stages, "setup.train_cell_s", || {
        model.train(&demo_samples(), &[], &schedule)
    })?;
    let key = ArtifactKey::from_parts(
        CellModel::ARTIFACT_KIND,
        &[
            "stco-benchmark serve",
            &format!("{config:?}"),
            &format!("{schedule:?}"),
        ],
    );
    let registry = stage(
        &mut stages,
        "setup.store_put_s",
        || -> BoxResult<Registry> {
            let registry = Registry::open(dir)?;
            registry.put(key, &model.to_artifact())?;
            Ok(registry)
        },
    )?;
    let (service, server) = stage(&mut stages, "setup.server_start_s", || -> BoxResult<_> {
        let batch = BatchConfig {
            shards: 1,
            ..BatchConfig::default()
        };
        let service = ModelService::start(Some(registry), batch);
        let server = TcpServer::start("127.0.0.1:0", Arc::clone(&service))?;
        Ok((service, server))
    })?;
    let addr = server.addr().to_string();
    // Owned before the load, so a failed load still stops the server.
    let mut server = Server {
        server,
        service,
        model_id: String::new(),
        model,
    };
    server.model_id = stage(&mut stages, "setup.model_load_s", || {
        Client::connect(&addr)?.load(CellModel::ARTIFACT_KIND, key)
    })?;
    Ok((server, stages))
}

struct Payload {
    frame: Vec<u8>,
    graph: CellGraph,
    metrics: Vec<usize>,
    expected: Vec<f64>,
}

/// Every library cell at seeded corners, each with the metric sets
/// {all, one, three}, pre-encoded as predict frames.
fn payloads(rng: &mut Xorshift, s: &Server) -> BoxResult<Vec<Payload>> {
    let base = TechnologyCard::reference(Technology::Ltps);
    let corners: Vec<_> = (0..CORNERS).map(|_| draw_corner(rng)).collect();
    let sets = [
        (0..METRICS.len()).collect::<Vec<_>>(),
        vec![0],
        vec![2, 5, 8],
    ];
    let mut out = Vec::new();
    for cell in CellType::library() {
        for corner in &corners {
            let graph = cell_graph(&cell, &base.at_corner(*corner), 10.0e-15 * corner.cox_scale);
            for metrics in &sets {
                let request = Request::Predict {
                    model: s.model_id.clone(),
                    input: PredictInput::Cell {
                        graph: graph.clone(),
                        metrics: metrics.clone(),
                    },
                    deadline_ms: None,
                };
                out.push(Payload {
                    frame: encode_frame(&request.to_json())?,
                    expected: s.model.predict_many(&graph, metrics),
                    graph: graph.clone(),
                    metrics: metrics.clone(),
                });
            }
        }
    }
    Ok(out)
}

/// A send the reader is waiting on: payload, due and send time.
struct Sent {
    payload: usize,
    due: f64,
    sent: f64,
}

#[derive(Default)]
struct PhaseResult {
    ledger: Ledger,
    lags: Vec<f64>,
    /// `(due, sent, done)` of every request, seconds since the phase began.
    requests: Vec<(f64, f64, f64)>,
    mismatches: u64,
}

impl PhaseResult {
    /// Settles the reply to one request: values are checked bitwise
    /// against the payload's in-process prediction; any other reply
    /// (`Overloaded`, an error) is a failed request.
    fn settle(&mut self, reply: Reply, expected: &[f64], due: f64, done: f64) {
        match reply {
            Reply::Values(values) => {
                if values
                    .iter()
                    .map(|v| v.to_bits())
                    .ne(expected.iter().map(|v| v.to_bits()))
                {
                    self.mismatches += 1;
                }
                self.ledger.ok(due, done);
            }
            _ => self.ledger.fail(),
        }
    }
}

/// The server's cumulative counters, read from the process-wide metrics
/// registry the in-process server records into.
struct Counters {
    latency: HistogramReading,
    queue_wait: HistogramReading,
    batch: HistogramReading,
    shed: u64,
    errors: u64,
}

fn counters() -> Counters {
    let m = stco_obs::Recorder::global().metrics();
    let sizes: Vec<f64> = (1..=BatchConfig::default().max_batch)
        .map(|n| n as f64)
        .collect();
    Counters {
        latency: m
            .windowed_histogram(
                "serve.latency_seconds",
                &seconds_buckets(),
                WindowConfig::default(),
            )
            .cumulative_reading(),
        queue_wait: m
            .histogram("serve.queue_wait_seconds", &seconds_buckets())
            .read(),
        batch: m.histogram("serve.batch_size", &sizes).read(),
        shed: m.counter("serve.shed_total").get(),
        errors: m.counter("serve.errors").get(),
    }
}

/// Quantile of the observations a cumulative histogram gained between
/// two readings (bucket interpolation, as the server's own quantiles).
fn delta_quantile(after: &HistogramReading, before: &HistogramReading, q: f64) -> f64 {
    let bounds = seconds_buckets();
    let counts: Vec<u64> = after
        .counts
        .iter()
        .zip(&before.counts)
        .map(|(a, b)| a - b)
        .collect();
    let top = counts.iter().rposition(|&c| c > 0).unwrap_or(0);
    let delta = HistogramReading {
        count: counts.iter().sum(),
        sum: after.sum - before.sum,
        min: 0.0,
        max: bounds.get(top).copied().unwrap_or(after.max),
        counts,
    };
    delta.quantile(&bounds, q).unwrap_or(f64::NAN)
}

/// The request stream of one pass: pre-encoded payloads, the order they
/// are sent in, and each phase's due times.
struct Stream<'a> {
    payloads: &'a [Payload],
    order: &'a [usize],
    schedules: &'a [Vec<f64>],
}

/// Runs one phase over the connection, starting at `origin`: the writer
/// thread sends, this thread reads and checks every reply.
fn run_phase(
    stream: &TcpStream,
    reader: &mut BufReader<TcpStream>,
    requests: &Stream,
    cursor: &mut usize,
    phase: usize,
    duration: f64,
    origin: Instant,
) -> BoxResult<PhaseResult> {
    let (payloads, order) = (requests.payloads, requests.order);
    let schedule = &requests.schedules[phase];
    let load = PHASES[phase].2;
    let first = *cursor;
    let capacity = match load {
        Load::Open(_) => schedule.len() + 1,
        Load::Closed(in_flight) => in_flight - 1,
    };
    // Bounded at `in_flight - 1` for the closed loop: with the one reply
    // the reader is waiting on, that caps requests in flight.
    let (tx, rx) = mpsc::sync_channel::<Sent>(capacity);
    let mut out = PhaseResult::default();
    let (lags, sends) = std::thread::scope(|scope| -> BoxResult<(Vec<f64>, usize)> {
        let writer = scope.spawn(move || -> std::io::Result<(Vec<f64>, usize)> {
            let clock = WallClock(origin);
            let mut w = stream;
            let mut send = |i: usize, due: f64| -> std::io::Result<()> {
                let payload = order[(first + i) % order.len()];
                let sent = origin.elapsed().as_secs_f64();
                tx.send(Sent { payload, due, sent })
                    .map_err(|_| std::io::Error::other("reader stopped"))?;
                w.write_all(&payloads[payload].frame)
            };
            match load {
                Load::Open(_) => pace(schedule, &clock, send).map(|lags| {
                    let n = lags.len();
                    (lags, n)
                }),
                Load::Closed(_) => {
                    let mut n = 0;
                    while origin.elapsed().as_secs_f64() < duration {
                        send(n, origin.elapsed().as_secs_f64())?;
                        n += 1;
                    }
                    Ok((Vec::new(), n))
                }
            }
        });
        for sent in rx {
            let doc = read_frame(reader)?.ok_or("server closed the connection")?;
            let done = origin.elapsed().as_secs_f64();
            let expected = &payloads[sent.payload].expected;
            out.settle(Reply::from_json(&doc)?, expected, sent.due, done);
            out.requests.push((sent.due, sent.sent, done));
        }
        Ok(writer.join().map_err(|_| "writer thread panicked")??)
    })?;
    *cursor += sends;
    out.lags = lags;
    Ok(out)
}

/// One pass over every phase; returns each phase's result and the
/// server counters around it.
fn run_phases(
    stream: &TcpStream,
    reader: &mut BufReader<TcpStream>,
    requests: &Stream,
    seconds: f64,
) -> BoxResult<Vec<(PhaseResult, Counters, Counters, Instant)>> {
    let mut cursor = 0;
    let mut out = Vec::new();
    for (phase, (_, share, _)) in PHASES.iter().enumerate() {
        let before = counters();
        let began = Instant::now();
        let result = run_phase(
            stream,
            reader,
            requests,
            &mut cursor,
            phase,
            seconds * share,
            began,
        )?;
        out.push((result, before, counters(), began));
    }
    Ok(out)
}

/// Client latency sample of a phase: the closed loop keeps only replies
/// after its ramp and inside its window.
fn measured(phase: usize, r: &PhaseResult, seconds: f64) -> (Ledger, f64) {
    let (_, share, load) = PHASES[phase];
    match load {
        Load::Open(_) => (r.ledger.clone(), seconds * share),
        Load::Closed(_) => {
            let (from, to) = (seconds * share * PEAK_RAMP, seconds * share);
            let mut ledger = Ledger::default();
            for (&(due, _, done), &latency) in r.requests.iter().zip(r.ledger.latencies()) {
                if done >= from && done <= to {
                    if latency.is_finite() {
                        ledger.ok(due, done);
                    } else {
                        ledger.fail();
                    }
                }
            }
            (ledger, to - from)
        }
    }
}

pub fn run(ctx: &mut Ctx) -> BoxResult<Outcome> {
    let mut out = Outcome::default();
    let (server, totals, stages) = ctx.repeat_setup(3, 1.0, setup)?;
    out.setup(&totals, &stages);

    let mut rng = Xorshift::new(ctx.seed);
    let payloads = payloads(&mut rng, &server)?;
    let order = shuffled(&mut rng, payloads.len());
    let schedules: Vec<Vec<f64>> = PHASES
        .iter()
        .map(|(_, share, load)| match load {
            Load::Open(rate) => poisson_schedule(&mut rng, *rate, ctx.seconds * share),
            Load::Closed(_) => Vec::new(),
        })
        .collect();
    println!(
        "serving {} ({} payloads) on {}",
        server.model_id,
        payloads.len(),
        server.server.addr()
    );

    let requests = Stream {
        payloads: &payloads,
        order: &order,
        schedules: &schedules,
    };
    let stream = TcpStream::connect(server.server.addr())?;
    stream.set_nodelay(true)?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let untraced = run_phases(&stream, &mut reader, &requests, ctx.seconds)?;
    let sent: usize = untraced.iter().map(|p| p.0.requests.len()).sum();
    out.per_layer.push(ctx.rss_growth(sent as u64));
    let mut mismatches = 0;
    let mut ledgers = Vec::new();
    for (i, (r, before, after, _)) in untraced.iter().enumerate() {
        let (ledger, window) = measured(i, r, ctx.seconds);
        report_phase(i, &ledger, window, r, before, after);
        mismatches += r.mismatches;
        ledgers.push((ledger, window));
    }
    let (low, _) = &ledgers[1];
    let (peak, peak_window) = &ledgers[3];
    // Every request sent counts, warmup and the closed loop's ramp too.
    out.count(
        untraced.iter().map(|p| p.0.ledger.attempted()).sum(),
        untraced.iter().map(|p| p.0.ledger.failed()).sum(),
    );
    let (first, last) = (&untraced[0].1, &untraced[untraced.len() - 1].2);
    let (shed, errors) = (last.shed - first.shed, last.errors - first.errors);
    out.check(
        format!("the server shed {shed} requests and counted {errors} errors; both must be 0"),
        shed == 0 && errors == 0,
    );
    out.ops(
        low.quantile(OP_QUANTILE),
        low,
        (peak.attempted() - peak.failed()) as f64 / peak_window,
    );

    if ctx.traced {
        let traced = run_phases(&stream, &mut reader, &requests, ctx.seconds)?;
        out.check(
            "no request of the traced pass failed",
            traced.iter().all(|p| p.0.ledger.failed() == 0),
        );
        let mut shed = 0;
        let mut errors = 0;
        for (i, (r, before, after, began)) in traced.iter().enumerate() {
            mismatches += r.mismatches;
            let (ledger, _) = measured(i, r, ctx.seconds);
            let (name, span) = (PHASES[i].0, PHASE_SPANS[i]);
            let offset = ctx.trace.at(*began);
            let end = r.requests.iter().map(|q| q.2).fold(0.0, f64::max);
            let phase = ctx.trace.record(span, None, offset, offset + end);
            for &(due, sent, done) in &r.requests {
                let id = ctx
                    .trace
                    .record("request", Some(phase), offset + due, offset + done);
                ctx.trace
                    .record("send_lag", Some(id), offset + due, offset + sent);
                ctx.trace
                    .record("in_flight", Some(id), offset + sent, offset + done);
            }
            if name == "warmup" {
                continue;
            }
            shed += after.shed - before.shed;
            errors += after.errors - before.errors;
            let client_p50 = ledger.quantile(0.5);
            let client_op = ledger.quantile(OP_QUANTILE);
            let service_p50 = delta_quantile(&after.latency, &before.latency, 0.5);
            let batches = (after.batch.count - before.batch.count).max(1) as f64;
            let ms = 1e3;
            let values = [
                ("service_p50_ms", service_p50 * ms),
                (
                    "queue_wait_p50_ms",
                    delta_quantile(&after.queue_wait, &before.queue_wait, 0.5) * ms,
                ),
                ("transport_p50_ms", (client_p50 - service_p50) * ms),
                (
                    "batch_size_mean",
                    (after.batch.sum - before.batch.sum) / batches,
                ),
                ("client_p99_ms", ledger.quantile(0.99) * ms),
                ("gen_lag_p99_ms", quantile(&sorted(&r.lags), 0.99) * ms),
            ];
            for (suffix, value) in values {
                // Transport and generator lag are open-loop layers only.
                if let Some(layer) = crate::layer(&format!("serve.{name}.{suffix}")) {
                    out.per_layer.push((layer, value));
                }
            }
            if name == "low" {
                out.per_layer.push((
                    "trace.overhead_ms",
                    (client_op - low.quantile(OP_QUANTILE)) * ms,
                ));
            }
        }
        out.per_layer.extend([
            ("serve.shed_total", shed as f64),
            ("serve.errors", errors as f64),
        ]);
        batch_layer(ctx, &mut out, &server, &payloads, &order);
    }
    out.check(
        "every reply bitwise-equals in-process predict_many on its payload",
        mismatches == 0,
    );
    Ok(out)
}

fn report_phase(
    i: usize,
    ledger: &Ledger,
    window: f64,
    r: &PhaseResult,
    before: &Counters,
    after: &Counters,
) {
    let (name, _, load) = PHASES[i];
    let (offered, lag) = match load {
        Load::Open(rate) => (
            format!("open loop {rate} req/s"),
            format!("{:.3} ms", quantile(&sorted(&r.lags), 0.99) * 1e3),
        ),
        Load::Closed(n) => (format!("closed loop {n} in flight"), "-".to_string()),
    };
    println!(
        "phase {name:<6} {offered:<26} n={:<6} achieved {:>8.0} req/s  p25 {:.3} ms  p50 {:.3} ms  \
         p90 {:.3} ms  p99 {:.3} ms  lag p99 {lag}  server p50 {:.3} ms  failed {}",
        ledger.attempted(),
        (ledger.attempted() - ledger.failed()) as f64 / window,
        ledger.quantile(0.25) * 1e3,
        ledger.quantile(0.5) * 1e3,
        ledger.quantile(0.9) * 1e3,
        ledger.quantile(0.99) * 1e3,
        delta_quantile(&after.latency, &before.latency, 0.5) * 1e3,
        ledger.failed()
    );
}

/// `surrogate.batch_forward_us_per_item`: one batched forward over the
/// first [`BATCH`] payloads of the request order, checked bitwise
/// against the per-payload predictions.
fn batch_layer(
    ctx: &mut Ctx,
    out: &mut Outcome,
    s: &Server,
    payloads: &[Payload],
    order: &[usize],
) {
    let picked: Vec<&Payload> = order.iter().take(BATCH).map(|&i| &payloads[i]).collect();
    let graphs: Vec<&CellGraph> = picked.iter().map(|p| &p.graph).collect();
    let lists: Vec<&[usize]> = picked.iter().map(|p| p.metrics.as_slice()).collect();
    let batch = BatchedCellGraph::pack(&graphs);
    let mut seconds = Vec::new();
    let mut same = true;
    for _ in 0..5 {
        let (rows, t) = ctx.trace.timed("surrogate.batch_forward", None, || {
            s.model.predict_batch(&batch, &lists)
        });
        same &= rows.iter().zip(&picked).all(|(row, p)| {
            row.iter()
                .map(|v| v.to_bits())
                .eq(p.expected.iter().map(|v| v.to_bits()))
        });
        seconds.push(t);
    }
    out.check(
        "a batched forward bitwise-equals per-payload predict_many",
        same,
    );
    out.per_layer.push((
        "surrogate.batch_forward_us_per_item",
        median(&seconds) * 1e6 / picked.len() as f64,
    ));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_failed_reply_fails_the_run() {
        let mut phase = PhaseResult::default();
        phase.settle(Reply::Values(vec![1.5, 2.5]), &[1.5, 2.5], 0.0, 0.001);
        let overloaded = Reply::Error {
            code: "overloaded".to_string(),
            message: "shedding load".to_string(),
        };
        phase.settle(overloaded, &[1.5, 2.5], 0.001, 0.002);
        assert_eq!(phase.mismatches, 0);
        assert_eq!(phase.ledger.failed(), 1);
        assert_eq!(phase.ledger.quantile(1.0), f64::INFINITY);

        let mut out = Outcome::default();
        out.count(phase.ledger.attempted(), phase.ledger.failed());
        assert_eq!((out.attempted, out.failed), (2, 1));
        assert!(out.checks.iter().any(|(_, ok)| !ok), "{:?}", out.checks);
    }
}
