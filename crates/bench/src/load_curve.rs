//! Closed-loop load generation against a running serve endpoint.
//!
//! [`run_load_curve`] drives a concurrency sweep: for each step it spawns
//! `concurrency` closed-loop workers (each with its own TCP
//! connection, firing the next request as soon as the previous reply
//! lands) and measures client-side latency per request.
//!
//! # Steady-state measurement
//!
//! Work scales **with** concurrency: every worker runs
//! [`LoadCurveConfig::warmup_per_conn`] unmeasured requests, synchronizes
//! on a barrier, then runs [`LoadCurveConfig::requests_per_conn`] measured
//! requests; the step's wall clock is barrier-to-barrier. The warmup
//! puts connections, shard queues and batch formation in steady state
//! before the clock starts, and the per-connection request count keeps
//! the measured window's duration roughly constant as concurrency
//! grows — a fixed *total* budget would shrink the window until
//! startup/teardown noise dominated, making offered throughput appear
//! to fall at high concurrency.
//!
//! Each step reports:
//!
//! * **achieved throughput** — completed requests over the step's wall
//!   clock;
//! * **offered throughput** — the closed-loop ideal `concurrency /
//!   mean latency` (Little's law); the gap between offered and
//!   achieved shows queueing/coordination overhead;
//! * **client-side p50/p99** — exact order statistics over the step's
//!   per-request latencies (not bucketed);
//! * **sheds** — requests the server refused with the typed
//!   `overloaded` / `queue-full` admission replies. Shedding is the
//!   server protecting its latency, so sheds are tallied separately
//!   from errors;
//! * **server-side rolling p99** — the `serve.latency_seconds`
//!   windowed histogram, fetched over the wire via the `metrics` op
//!   right after the step. Client and server views are measured
//!   independently, so the harness can cross-check them.
//!
//! The client quantiles are exact; the server quantile interpolates
//! inside histogram buckets and only covers the service's
//! enqueue→reply span (no TCP framing), so the two agree only within
//! a tolerance — see `DESIGN.md` §13 for the documented bound.

use std::sync::Barrier;
use std::time::Instant;

use stco_obs::json::JsonValue;

use stco_serve::{Client, PredictInput, Result, ServeError};

/// One concurrency sweep against a serve endpoint.
#[derive(Debug, Clone)]
pub struct LoadCurveConfig {
    /// Server address, e.g. `"127.0.0.1:7878"`.
    pub addr: String,
    /// Loaded model id to predict against.
    pub model: String,
    /// Request payloads, cycled round-robin across the sweep.
    pub inputs: Vec<PredictInput>,
    /// Concurrency levels, one step per entry (typically increasing).
    pub steps: Vec<usize>,
    /// Measured requests **per worker connection** — total per-step
    /// work is `concurrency × requests_per_conn`, so the measured
    /// window stays roughly constant as concurrency grows.
    pub requests_per_conn: usize,
    /// Unmeasured warm-up requests per worker before the clock starts.
    pub warmup_per_conn: usize,
    /// Per-request deadline forwarded to the server.
    pub deadline_ms: Option<u64>,
}

/// Measurements from one concurrency step of a sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadStep {
    /// Closed-loop workers driving this step.
    pub concurrency: usize,
    /// Requests that completed successfully.
    pub ok: usize,
    /// Requests that failed (typed server errors or transport),
    /// excluding sheds.
    pub errors: usize,
    /// Requests the server shed with the typed `overloaded` /
    /// `queue-full` admission replies.
    pub shed: usize,
    /// Step wall-clock in seconds (barrier-to-barrier, warmup
    /// excluded).
    pub wall_seconds: f64,
    /// `concurrency / mean latency` — the closed-loop offered rate.
    pub offered_rps: f64,
    /// `ok / wall_seconds` — what the server actually absorbed.
    pub achieved_rps: f64,
    /// Exact client-side median latency (seconds).
    pub client_p50_seconds: f64,
    /// Exact client-side 99th-percentile latency (seconds).
    pub client_p99_seconds: f64,
    /// Client-side mean latency (seconds).
    pub client_mean_seconds: f64,
    /// Server-side rolling-window p99 from `serve.latency_seconds`,
    /// fetched via the `metrics` op after the step (None if the
    /// window was empty or the metric absent).
    pub server_window_p99_seconds: Option<f64>,
}

/// Exact linear-interpolated quantile of an ascending-sorted sample.
/// Returns `None` on an empty sample.
#[must_use]
pub fn exact_quantile(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let q = q.clamp(0.0, 1.0);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * frac)
}

/// Pulls the rolling-window p99 of `serve.latency_seconds` out of a
/// `metrics`-op JSON snapshot. `None` when the metric is missing or
/// its window is empty.
#[must_use]
pub fn window_p99_from_snapshot(snapshot: &JsonValue) -> Option<f64> {
    let JsonValue::Arr(entries) = snapshot.get("metrics")? else {
        return None;
    };
    let latency = entries
        .iter()
        .find(|e| e.get("name").and_then(JsonValue::as_str) == Some("serve.latency_seconds"))?;
    latency
        .get("window")?
        .get("p99")
        .and_then(JsonValue::as_f64)
}

/// Whether a predict failure is the server *shedding* (typed admission
/// rejects) rather than erroring.
fn is_shed(e: &ServeError) -> bool {
    matches!(e, ServeError::Remote { code, .. } if code == "overloaded" || code == "queue-full")
}

/// Runs the full concurrency sweep, one [`LoadStep`] per entry in
/// [`LoadCurveConfig::steps`].
///
/// # Errors
///
/// [`ServeError::Io`] if a worker cannot connect (or dies mid-step),
/// or [`ServeError::Protocol`] on a malformed reply from the admin
/// `metrics` probe. Per-request predict failures do *not* abort the
/// sweep — they land in [`LoadStep::errors`] (or [`LoadStep::shed`]
/// for typed admission rejects).
pub fn run_load_curve(config: &LoadCurveConfig) -> Result<Vec<LoadStep>> {
    let _span = stco_obs::span!(
        "bench.load_curve",
        steps = config.steps.len(),
        requests_per_conn = config.requests_per_conn,
        warmup_per_conn = config.warmup_per_conn
    );
    if config.inputs.is_empty() {
        return Err(ServeError::BadInput {
            context: "load sweep needs at least one input payload".to_string(),
        });
    }
    let mut admin = Client::connect(&config.addr)?;
    let mut out = Vec::with_capacity(config.steps.len());
    for &concurrency in &config.steps {
        let step = run_step(config, concurrency.max(1), &mut admin)?;
        stco_obs::event!(
            "bench.load_step",
            concurrency = step.concurrency,
            ok = step.ok,
            errors = step.errors,
            shed = step.shed,
            achieved_rps = step.achieved_rps,
            client_p99_s = step.client_p99_seconds
        );
        out.push(step);
    }
    Ok(out)
}

/// Per-worker step outcome; `dead` marks a connect failure or panic so
/// the step surfaces a sweep error instead of undercounting.
struct WorkerOutcome {
    latencies: Vec<f64>,
    errors: usize,
    shed: usize,
    dead: bool,
}

fn run_step(config: &LoadCurveConfig, concurrency: usize, admin: &mut Client) -> Result<LoadStep> {
    // Two synchronization points, everyone (workers + coordinator)
    // hits both: end of warmup (clock starts) and end of measured work
    // (clock stops). Workers that fail to connect still hit the
    // barriers so nobody deadlocks.
    let barrier = Barrier::new(concurrency + 1);
    // stco-check: allow(no-raw-thread, one blocking client connection per simulated user; load generation is I/O-bound, not pool work)
    let (wall, outcomes): (f64, Vec<WorkerOutcome>) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..concurrency)
            .map(|_| {
                let barrier = &barrier;
                scope.spawn(move || {
                    let mut outcome = WorkerOutcome {
                        latencies: Vec::with_capacity(config.requests_per_conn),
                        errors: 0,
                        shed: 0,
                        dead: false,
                    };
                    let mut client = match Client::connect(&config.addr) {
                        Ok(client) => Some(client),
                        Err(_) => {
                            outcome.dead = true;
                            None
                        }
                    };
                    if let Some(client) = client.as_mut() {
                        for i in 0..config.warmup_per_conn {
                            let input = &config.inputs[i % config.inputs.len()];
                            // Warmup outcomes are discarded — only
                            // steady-state requests are measured.
                            let _ = client.predict(&config.model, input, config.deadline_ms);
                        }
                    }
                    barrier.wait();
                    if let Some(client) = client.as_mut() {
                        for i in 0..config.requests_per_conn {
                            let input = &config.inputs[i % config.inputs.len()];
                            let sent = Instant::now();
                            match client.predict(&config.model, input, config.deadline_ms) {
                                Ok(_) => outcome.latencies.push(sent.elapsed().as_secs_f64()),
                                Err(e) if is_shed(&e) => outcome.shed += 1,
                                Err(_) => outcome.errors += 1,
                            }
                        }
                    }
                    barrier.wait();
                    outcome
                })
            })
            .collect();
        barrier.wait();
        let t0 = Instant::now();
        barrier.wait();
        let wall = t0.elapsed().as_secs_f64().max(1e-9);
        let outcomes = handles
            .into_iter()
            .map(|h| {
                h.join().unwrap_or(WorkerOutcome {
                    latencies: Vec::new(),
                    errors: 0,
                    shed: 0,
                    dead: true,
                })
            })
            .collect();
        (wall, outcomes)
    });

    if outcomes.iter().any(|o| o.dead) {
        return Err(ServeError::Io(std::io::Error::new(
            std::io::ErrorKind::ConnectionRefused,
            "load worker could not connect or died mid-step",
        )));
    }
    let mut latencies: Vec<f64> = Vec::with_capacity(concurrency * config.requests_per_conn);
    let mut errors = 0usize;
    let mut shed = 0usize;
    for mut outcome in outcomes {
        latencies.append(&mut outcome.latencies);
        errors += outcome.errors;
        shed += outcome.shed;
    }
    latencies.sort_by(f64::total_cmp);
    let ok = latencies.len();
    let mean = if ok == 0 {
        0.0
    } else {
        latencies.iter().sum::<f64>() / ok as f64
    };
    let (snapshot, _text) = admin.metrics()?;
    Ok(LoadStep {
        concurrency,
        ok,
        errors,
        shed,
        wall_seconds: wall,
        offered_rps: if mean > 0.0 {
            concurrency as f64 / mean
        } else {
            0.0
        },
        achieved_rps: ok as f64 / wall,
        client_p50_seconds: exact_quantile(&latencies, 0.50).unwrap_or(0.0),
        client_p99_seconds: exact_quantile(&latencies, 0.99).unwrap_or(0.0),
        client_mean_seconds: mean,
        server_window_p99_seconds: window_p99_from_snapshot(&snapshot),
    })
}

/// Renders a sweep as the `BENCH_serving.json` document
/// (`stco-serving-curve/v2` schema): top-level run facts — thread
/// count, worker shard count, whether the f64 bitwise gate applies —
/// plus one object per step, including its shed count.
#[must_use]
pub fn load_curve_to_json(
    threads: usize,
    shards: usize,
    bitwise_identical: bool,
    steps: &[LoadStep],
) -> JsonValue {
    let steps_json: Vec<JsonValue> = steps
        .iter()
        .map(|s| {
            let mut fields = vec![
                (
                    "concurrency".to_string(),
                    JsonValue::Num(s.concurrency as f64),
                ),
                ("ok".to_string(), JsonValue::Num(s.ok as f64)),
                ("errors".to_string(), JsonValue::Num(s.errors as f64)),
                ("shed".to_string(), JsonValue::Num(s.shed as f64)),
                ("wall_seconds".to_string(), JsonValue::Num(s.wall_seconds)),
                ("offered_rps".to_string(), JsonValue::Num(s.offered_rps)),
                ("achieved_rps".to_string(), JsonValue::Num(s.achieved_rps)),
                (
                    "client_p50_seconds".to_string(),
                    JsonValue::Num(s.client_p50_seconds),
                ),
                (
                    "client_p99_seconds".to_string(),
                    JsonValue::Num(s.client_p99_seconds),
                ),
                (
                    "client_mean_seconds".to_string(),
                    JsonValue::Num(s.client_mean_seconds),
                ),
            ];
            fields.push((
                "server_window_p99_seconds".to_string(),
                s.server_window_p99_seconds
                    .map_or(JsonValue::Null, JsonValue::Num),
            ));
            JsonValue::Obj(fields)
        })
        .collect();
    JsonValue::Obj(vec![
        (
            "schema".to_string(),
            JsonValue::Str("stco-serving-curve/v2".to_string()),
        ),
        ("threads".to_string(), JsonValue::Num(threads as f64)),
        ("shards".to_string(), JsonValue::Num(shards as f64)),
        (
            "bitwise_identical".to_string(),
            JsonValue::Bool(bitwise_identical),
        ),
        ("steps".to_string(), JsonValue::Arr(steps_json)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_quantile_empty_is_none() {
        assert_eq!(exact_quantile(&[], 0.5), None);
    }

    #[test]
    fn exact_quantile_single_sample() {
        assert_eq!(exact_quantile(&[0.25], 0.0), Some(0.25));
        assert_eq!(exact_quantile(&[0.25], 0.99), Some(0.25));
    }

    #[test]
    fn exact_quantile_interpolates() {
        let sorted = [0.0, 1.0, 2.0, 3.0];
        assert_eq!(exact_quantile(&sorted, 0.0), Some(0.0));
        assert_eq!(exact_quantile(&sorted, 1.0), Some(3.0));
        assert_eq!(exact_quantile(&sorted, 0.5), Some(1.5));
        let p99 = exact_quantile(&sorted, 0.99).unwrap_or(f64::NAN);
        assert!((p99 - 2.97).abs() < 1e-12, "p99 was {p99}");
    }

    #[test]
    fn exact_quantile_clamps_q() {
        let sorted = [1.0, 2.0];
        assert_eq!(exact_quantile(&sorted, -1.0), Some(1.0));
        assert_eq!(exact_quantile(&sorted, 2.0), Some(2.0));
    }

    #[test]
    fn window_p99_extraction() {
        let snapshot = JsonValue::Obj(vec![(
            "metrics".to_string(),
            JsonValue::Arr(vec![JsonValue::Obj(vec![
                (
                    "name".to_string(),
                    JsonValue::Str("serve.latency_seconds".to_string()),
                ),
                (
                    "window".to_string(),
                    JsonValue::Obj(vec![("p99".to_string(), JsonValue::Num(0.042))]),
                ),
            ])]),
        )]);
        assert_eq!(window_p99_from_snapshot(&snapshot), Some(0.042));
        assert_eq!(window_p99_from_snapshot(&JsonValue::Obj(vec![])), None);
    }

    #[test]
    fn shed_classification_covers_both_admission_codes() {
        let overloaded = ServeError::Remote {
            code: "overloaded".to_string(),
            message: String::new(),
        };
        let queue_full = ServeError::Remote {
            code: "queue-full".to_string(),
            message: String::new(),
        };
        let other = ServeError::Remote {
            code: "bad-input".to_string(),
            message: String::new(),
        };
        assert!(is_shed(&overloaded));
        assert!(is_shed(&queue_full));
        assert!(!is_shed(&other));
        assert!(!is_shed(&ServeError::DeadlineExceeded));
    }

    #[test]
    fn load_curve_json_has_schema_and_steps() {
        let steps = vec![LoadStep {
            concurrency: 8,
            ok: 64,
            errors: 0,
            shed: 3,
            wall_seconds: 0.5,
            offered_rps: 130.0,
            achieved_rps: 128.0,
            client_p50_seconds: 0.01,
            client_p99_seconds: 0.05,
            client_mean_seconds: 0.015,
            server_window_p99_seconds: Some(0.048),
        }];
        let doc = load_curve_to_json(4, 2, true, &steps);
        assert_eq!(
            doc.get("schema").and_then(JsonValue::as_str),
            Some("stco-serving-curve/v2")
        );
        assert_eq!(doc.get("threads").and_then(JsonValue::as_u64), Some(4));
        assert_eq!(doc.get("shards").and_then(JsonValue::as_u64), Some(2));
        let rendered_len = match doc.get("steps") {
            Some(JsonValue::Arr(rendered)) => {
                assert_eq!(
                    rendered
                        .first()
                        .and_then(|s| s.get("concurrency"))
                        .and_then(JsonValue::as_u64),
                    Some(8)
                );
                assert_eq!(
                    rendered
                        .first()
                        .and_then(|s| s.get("shed"))
                        .and_then(JsonValue::as_u64),
                    Some(3)
                );
                rendered.len()
            }
            _ => 0,
        };
        assert_eq!(rendered_len, 1);
        // The document must survive a render/parse cycle.
        let reparsed = JsonValue::parse(&doc.render()).ok();
        assert_eq!(
            reparsed
                .as_ref()
                .and_then(|d| d.get("steps"))
                .and_then(|s| match s {
                    JsonValue::Arr(a) => a.first(),
                    _ => None,
                })
                .and_then(|s| s.get("client_p99_seconds"))
                .and_then(JsonValue::as_f64),
            Some(0.05)
        );
    }
}
