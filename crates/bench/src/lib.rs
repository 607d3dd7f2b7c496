//! Shared helpers for the table/figure regenerator binaries and the
//! Criterion benches.
//!
//! Every binary honours a `STCO_SCALE` environment variable:
//! `STCO_SCALE=paper` runs closer to paper scale (slow), anything else
//! (or unset) runs the scaled-down defaults documented in EXPERIMENTS.md.
//!
//! [`load_curve`] is the closed-loop load generator the serving benches
//! drive against a running `stco-serve` endpoint.

pub mod load_curve;

use std::path::PathBuf;

use stco_cells::charac::CharConfig;
use stco_obs::{JsonlSink, Profile, Recorder, RingBufferHandle, RingBufferSink};

/// Whether the expensive "paper-scale" mode was requested.
pub fn paper_scale() -> bool {
    std::env::var("STCO_SCALE")
        .map(|v| v == "paper")
        .unwrap_or(false)
}

/// Whether `--trace` was passed on the command line.
pub fn trace_flag() -> bool {
    std::env::args().any(|a| a == "--trace")
}

/// Whether `--no-cache` was passed on the command line (forces a full
/// retrain even when the artifact registry holds a matching model).
pub fn no_cache_flag() -> bool {
    std::env::args().any(|a| a == "--no-cache")
}

/// The artifact registry the bench binaries cache trained models in:
/// `$STCO_STORE_DIR` (default `.stco-store`), or `None` with
/// `--no-cache`. A registry that cannot be opened degrades to `None`
/// with a warning rather than failing the bench.
pub fn artifact_registry() -> Option<stco_store::Registry> {
    if no_cache_flag() {
        // stco-check: allow(no-print, user-facing bench harness status)
        println!("artifact cache disabled (--no-cache)");
        return None;
    }
    match stco_store::Registry::open_default() {
        Ok(reg) => {
            // stco-check: allow(no-print, user-facing bench harness status)
            println!("artifact cache: {}", reg.dir().display());
            Some(reg)
        }
        Err(e) => {
            // stco-check: allow(no-print, user-facing bench harness warning)
            eprintln!("warning: artifact cache unavailable ({e}); retraining");
            None
        }
    }
}

/// Reads the global cache hit/miss counters (registered by
/// `stco_store::Registry`), for before/after deltas around a cached
/// stage.
pub fn cache_counters() -> (u64, u64) {
    let metrics = stco_obs::Recorder::global().metrics();
    (
        metrics.counter("store.cache_hit").get(),
        metrics.counter("store.cache_miss").get(),
    )
}

/// Prints the hit/miss delta since `before` (from [`cache_counters`]).
pub fn report_cache_delta(label: &str, before: (u64, u64)) {
    let (hit, miss) = cache_counters();
    // stco-check: allow(no-print, user-facing bench harness status)
    println!(
        "{label}: artifact cache {} hit(s), {} miss(es)",
        hit - before.0,
        miss - before.1
    );
}

/// A live tracing session for a bench binary: a JSONL sink streaming to
/// `results/trace_<bin>.jsonl` plus an in-memory ring buffer the binary
/// can fold into [`Profile`]s.
pub struct TraceSession {
    handle: RingBufferHandle,
    path: PathBuf,
}

impl TraceSession {
    /// Starts tracing if `--trace` is on the command line; returns
    /// `None` (recording stays disabled, near-zero overhead) otherwise.
    pub fn start(bin: &str) -> Option<TraceSession> {
        if !trace_flag() {
            return None;
        }
        let path = PathBuf::from(format!("results/trace_{bin}.jsonl"));
        let recorder = Recorder::global();
        recorder.clear_sinks();
        let jsonl = JsonlSink::create(&path).expect("trace file under results/");
        // Large enough that a full bench run never evicts (records are
        // dominated by per-Newton-iteration and per-epoch events).
        let (ring, handle) = RingBufferSink::with_capacity(1 << 21);
        recorder.add_sink(Box::new(jsonl));
        recorder.add_sink(Box::new(ring));
        Some(TraceSession { handle, path })
    }

    /// Number of records captured so far — use as a mark, then fold
    /// `records_since(mark)` to profile one section of the run.
    pub fn mark(&self) -> usize {
        self.handle.len()
    }

    /// Folds the records captured since `mark` into a profile.
    pub fn profile_since(&self, mark: usize) -> Profile {
        let records = self.handle.records();
        Profile::from_records(&records[mark.min(records.len())..])
    }

    /// Ends the session: uninstalls the sinks (flushing the JSONL file)
    /// and returns the full-run profile plus the trace path.
    pub fn finish(self) -> (Profile, PathBuf) {
        let recorder = Recorder::global();
        recorder.clear_sinks();
        let dropped = self.handle.dropped();
        if dropped > 0 {
            // stco-check: allow(no-print, user-facing warning from the bench harness itself)
            eprintln!("warning: trace ring buffer evicted {dropped} records");
        }
        let profile = Profile::from_records(&self.handle.records());
        (profile, self.path)
    }
}

/// The characterization grid used by the benches (2×2; paper grids are
/// denser but the NLDM structure is identical).
pub fn bench_char_config() -> CharConfig {
    CharConfig {
        slews: vec![2.0e-9, 8.0e-9],
        loads: vec![5.0e-15, 20.0e-15],
        samples: 200,
        max_leakage_states: 2,
    }
}

/// Prints a horizontal rule with a title.
pub fn banner(title: &str) {
    // stco-check: allow(no-print, bench table output is this helper's purpose)
    println!("\n=== {title} ===");
}

/// Formats seconds in engineering style.
pub fn fmt_seconds(s: f64) -> String {
    if s >= 1.0 {
        format!("{s:.2} s")
    } else if s >= 1e-3 {
        format!("{:.2} ms", s * 1e3)
    } else {
        format!("{:.2} us", s * 1e6)
    }
}

/// Validates a `BENCH_serving.json` document against the
/// `stco-serving-curve/v2` schema emitted by
/// [`load_curve::load_curve_to_json`]: required top-level fields
/// (including the worker shard count), at least `min_steps` sweep
/// steps with strictly increasing concurrency, and internally
/// consistent per-step latencies (`p50 <= p99`, non-negative rates
/// and shed counts). CI calls this against the file the serving smoke
/// wrote; the smoke itself calls it before writing.
///
/// # Errors
///
/// A human-readable description of the first schema violation.
pub fn validate_serving_curve(
    doc: &stco_obs::json::JsonValue,
    min_steps: usize,
) -> Result<(), String> {
    use stco_obs::json::JsonValue;

    let schema = doc
        .get("schema")
        .and_then(JsonValue::as_str)
        .ok_or("missing schema field")?;
    if schema != "stco-serving-curve/v2" {
        return Err(format!("unexpected schema {schema:?}"));
    }
    let threads = doc
        .get("threads")
        .and_then(JsonValue::as_u64)
        .ok_or("missing threads field")?;
    if threads == 0 {
        return Err("threads must be at least 1".to_string());
    }
    let shards = doc
        .get("shards")
        .and_then(JsonValue::as_u64)
        .ok_or("missing shards field")?;
    if shards == 0 {
        return Err("shards must be at least 1".to_string());
    }
    match doc.get("bitwise_identical") {
        Some(JsonValue::Bool(_)) => {}
        _ => return Err("missing bitwise_identical boolean".to_string()),
    }
    let Some(JsonValue::Arr(steps)) = doc.get("steps") else {
        return Err("missing steps array".to_string());
    };
    if steps.len() < min_steps {
        return Err(format!(
            "sweep has {} steps, need at least {min_steps}",
            steps.len()
        ));
    }
    let mut prev_concurrency = 0u64;
    for (i, step) in steps.iter().enumerate() {
        let num = |key: &str| -> Result<f64, String> {
            step.get(key)
                .and_then(JsonValue::as_f64)
                .ok_or(format!("step {i}: missing numeric {key}"))
        };
        let concurrency = step
            .get("concurrency")
            .and_then(JsonValue::as_u64)
            .ok_or(format!("step {i}: missing concurrency"))?;
        if concurrency <= prev_concurrency {
            return Err(format!(
                "step {i}: concurrency {concurrency} must increase (previous {prev_concurrency})"
            ));
        }
        prev_concurrency = concurrency;
        let wall = num("wall_seconds")?;
        if wall <= 0.0 {
            return Err(format!("step {i}: wall_seconds must be positive"));
        }
        for key in [
            "ok",
            "errors",
            "shed",
            "offered_rps",
            "achieved_rps",
            "client_mean_seconds",
        ] {
            if num(key)? < 0.0 {
                return Err(format!("step {i}: {key} must be non-negative"));
            }
        }
        let p50 = num("client_p50_seconds")?;
        let p99 = num("client_p99_seconds")?;
        if p50 < 0.0 || p99 < p50 {
            return Err(format!(
                "step {i}: client quantiles inconsistent (p50 {p50}, p99 {p99})"
            ));
        }
        match step.get("server_window_p99_seconds") {
            Some(JsonValue::Null | JsonValue::Num(_)) => {}
            _ => {
                return Err(format!(
                    "step {i}: server_window_p99_seconds must be a number or null"
                ))
            }
        }
    }
    Ok(())
}

/// Schema check of a `BENCH_sweep.json` document (`stco-sweep/v1`) —
/// CI's sweep-smoke gate calls this against the file the smoke wrote;
/// the smoke itself calls it before writing.
///
/// The hard gates: a resumed sweep recomputed **zero** scenarios and
/// reproduced the front **bitwise** (locally and over the wire), and
/// the GP-lite BayesOpt explorer reached the reference front in fewer
/// unique evaluations than ε-greedy.
///
/// # Errors
///
/// A human-readable description of the first schema violation.
pub fn validate_sweep_bench(doc: &stco_obs::json::JsonValue) -> Result<(), String> {
    use stco_obs::json::JsonValue;

    let schema = doc
        .get("schema")
        .and_then(JsonValue::as_str)
        .ok_or("missing schema field")?;
    if schema != "stco-sweep/v1" {
        return Err(format!("unexpected schema {schema:?}"));
    }
    let threads = doc
        .get("threads")
        .and_then(JsonValue::as_u64)
        .ok_or("missing threads field")?;
    if threads == 0 {
        return Err("threads must be at least 1".to_string());
    }
    let scenarios = doc
        .get("scenarios")
        .and_then(JsonValue::as_u64)
        .ok_or("missing scenarios field")?;
    if scenarios == 0 {
        return Err("scenarios must be positive".to_string());
    }
    let rate = doc
        .get("scenarios_per_sec")
        .and_then(JsonValue::as_f64)
        .ok_or("missing scenarios_per_sec field")?;
    // NaN must be rejected too, hence the finite check first.
    if !rate.is_finite() || rate <= 0.0 {
        return Err(format!("scenarios_per_sec must be positive (got {rate})"));
    }

    let bitwise = |section: &JsonValue, name: &str| -> Result<(), String> {
        match section.get("front_bitwise_identical") {
            Some(JsonValue::Bool(true)) => Ok(()),
            Some(JsonValue::Bool(false)) => {
                Err(format!("{name}: front_bitwise_identical is false"))
            }
            _ => Err(format!("{name}: missing front_bitwise_identical boolean")),
        }
    };

    let resume = doc.get("resume").ok_or("missing resume section")?;
    let recomputed = resume
        .get("recomputed")
        .and_then(JsonValue::as_u64)
        .ok_or("resume: missing recomputed field")?;
    if recomputed != 0 {
        return Err(format!(
            "resume: recomputed must be 0, got {recomputed} (the journal failed its job)"
        ));
    }
    let resumed = resume
        .get("resumed")
        .and_then(JsonValue::as_u64)
        .ok_or("resume: missing resumed field")?;
    if resumed == 0 {
        return Err(
            "resume: resumed must be positive (nothing was journaled before the kill)".to_string(),
        );
    }
    bitwise(resume, "resume")?;

    let remote = doc.get("remote").ok_or("missing remote section")?;
    let workers = remote
        .get("workers")
        .and_then(JsonValue::as_u64)
        .ok_or("remote: missing workers field")?;
    if workers < 2 {
        return Err(format!("remote: need at least 2 workers, got {workers}"));
    }
    bitwise(remote, "remote")?;

    let ablation = doc.get("ablation").ok_or("missing ablation section")?;
    let Some(JsonValue::Arr(cells)) = ablation.get("cells") else {
        return Err("ablation: missing cells array".to_string());
    };
    if cells.is_empty() {
        return Err("ablation: needs at least one cell".to_string());
    }
    let eps = ablation
        .get("epsilon_greedy_samples")
        .and_then(JsonValue::as_u64)
        .ok_or("ablation: missing epsilon_greedy_samples")?;
    let bayes = ablation
        .get("bayesopt_samples")
        .and_then(JsonValue::as_u64)
        .ok_or("ablation: missing bayesopt_samples")?;
    if bayes >= eps {
        return Err(format!(
            "ablation: BayesOpt must reach the front in fewer samples than ε-greedy \
             (bayesopt {bayes} >= epsilon-greedy {eps})"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seconds_formatting() {
        assert_eq!(fmt_seconds(2.5), "2.50 s");
        assert_eq!(fmt_seconds(0.0025), "2.50 ms");
        assert_eq!(fmt_seconds(2.5e-6), "2.50 us");
    }

    #[test]
    fn bench_grid_is_square() {
        let c = bench_char_config();
        assert_eq!(c.slews.len(), 2);
        assert_eq!(c.loads.len(), 2);
    }

    fn demo_curve(step_count: usize) -> stco_obs::json::JsonValue {
        let steps: Vec<load_curve::LoadStep> = (0..step_count)
            .map(|i| load_curve::LoadStep {
                concurrency: 4 << i,
                ok: 64,
                errors: 0,
                shed: 0,
                wall_seconds: 0.25,
                offered_rps: 300.0,
                achieved_rps: 256.0,
                client_p50_seconds: 0.010,
                client_p99_seconds: 0.045,
                client_mean_seconds: 0.014,
                server_window_p99_seconds: Some(0.040),
            })
            .collect();
        load_curve::load_curve_to_json(4, 2, true, &steps)
    }

    #[test]
    fn serving_curve_schema_accepts_valid_sweep() {
        let doc = demo_curve(5);
        assert_eq!(validate_serving_curve(&doc, 5), Ok(()));
        // And survives a render/parse roundtrip, as CI reads the file.
        let reparsed = stco_obs::json::JsonValue::parse(&doc.render()).expect("reparse");
        assert_eq!(validate_serving_curve(&reparsed, 5), Ok(()));
    }

    #[test]
    fn serving_curve_schema_rejects_short_and_malformed_sweeps() {
        let err = validate_serving_curve(&demo_curve(3), 5).expect_err("too short");
        assert!(err.contains("at least 5"), "{err}");

        let err = validate_serving_curve(&stco_obs::json::JsonValue::Obj(vec![]), 1)
            .expect_err("missing schema");
        assert!(err.contains("schema"), "{err}");

        // p99 below p50 must be rejected.
        let mut steps = vec![load_curve::LoadStep {
            concurrency: 4,
            ok: 1,
            errors: 0,
            shed: 0,
            wall_seconds: 0.1,
            offered_rps: 1.0,
            achieved_rps: 1.0,
            client_p50_seconds: 0.5,
            client_p99_seconds: 0.1,
            client_mean_seconds: 0.5,
            server_window_p99_seconds: None,
        }];
        let doc = load_curve::load_curve_to_json(1, 1, true, &steps);
        let err = validate_serving_curve(&doc, 1).expect_err("inconsistent quantiles");
        assert!(err.contains("quantiles"), "{err}");

        // Non-increasing concurrency must be rejected.
        steps[0].client_p99_seconds = 1.0;
        steps.push(steps[0].clone());
        let doc = load_curve::load_curve_to_json(1, 1, true, &steps);
        let err = validate_serving_curve(&doc, 1).expect_err("flat concurrency");
        assert!(err.contains("concurrency"), "{err}");
    }

    fn demo_sweep_doc() -> stco_obs::json::JsonValue {
        use stco_obs::json::JsonValue;
        let obj = |pairs: Vec<(&str, JsonValue)>| {
            JsonValue::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
        };
        let cell = obj(vec![
            ("technology", JsonValue::Str("cnt".to_string())),
            ("benchmark", JsonValue::Str("s298".to_string())),
            ("epsilon_samples", JsonValue::Num(40.0)),
            ("bayes_samples", JsonValue::Num(12.0)),
        ]);
        obj(vec![
            ("schema", JsonValue::Str("stco-sweep/v1".to_string())),
            ("threads", JsonValue::Num(4.0)),
            ("scenarios", JsonValue::Num(16.0)),
            ("scenarios_per_sec", JsonValue::Num(2.5)),
            (
                "resume",
                obj(vec![
                    ("executed_before_kill", JsonValue::Num(7.0)),
                    ("resumed", JsonValue::Num(7.0)),
                    ("executed_after", JsonValue::Num(9.0)),
                    ("recomputed", JsonValue::Num(0.0)),
                    ("front_bitwise_identical", JsonValue::Bool(true)),
                ]),
            ),
            (
                "remote",
                obj(vec![
                    ("workers", JsonValue::Num(2.0)),
                    ("completed", JsonValue::Num(54.0)),
                    ("front_bitwise_identical", JsonValue::Bool(true)),
                ]),
            ),
            (
                "ablation",
                obj(vec![
                    ("levels", JsonValue::Num(5.0)),
                    ("cells", JsonValue::Arr(vec![cell])),
                    ("epsilon_greedy_samples", JsonValue::Num(40.0)),
                    ("bayesopt_samples", JsonValue::Num(12.0)),
                ]),
            ),
        ])
    }

    /// Replaces `path` in the demo doc; returns false when the path is
    /// absent so callers can assert it (a renamed field then breaks the
    /// test instead of silently validating the unmodified doc).
    fn set_field(
        doc: &mut stco_obs::json::JsonValue,
        path: &[&str],
        v: stco_obs::json::JsonValue,
    ) -> bool {
        let stco_obs::json::JsonValue::Obj(pairs) = doc else {
            return false;
        };
        let Some((key, rest)) = path.split_first() else {
            return false;
        };
        let Some(slot) = pairs.iter_mut().find(|(k, _)| k == key).map(|(_, s)| s) else {
            return false;
        };
        if rest.is_empty() {
            *slot = v;
            true
        } else {
            set_field(slot, rest, v)
        }
    }

    #[test]
    fn sweep_bench_schema_accepts_valid_doc() -> stco_obs::Result<()> {
        let doc = demo_sweep_doc();
        assert_eq!(validate_sweep_bench(&doc), Ok(()));
        // And survives a render/parse roundtrip, as CI reads the file.
        let reparsed = stco_obs::json::JsonValue::parse(&doc.render())?;
        assert_eq!(validate_sweep_bench(&reparsed), Ok(()));
        Ok(())
    }

    #[test]
    fn sweep_bench_schema_rejects_broken_gates() {
        use stco_obs::json::JsonValue;

        let err = validate_sweep_bench(&JsonValue::Obj(vec![])).expect_err("missing schema");
        assert!(err.contains("schema"), "{err}");

        // A resumed run that recomputed anything fails the journal gate.
        let mut doc = demo_sweep_doc();
        assert!(set_field(
            &mut doc,
            &["resume", "recomputed"],
            JsonValue::Num(3.0)
        ));
        let err = validate_sweep_bench(&doc).expect_err("recompute");
        assert!(err.contains("recomputed"), "{err}");

        // A non-bitwise remote front fails.
        let mut doc = demo_sweep_doc();
        assert!(set_field(
            &mut doc,
            &["remote", "front_bitwise_identical"],
            JsonValue::Bool(false),
        ));
        let err = validate_sweep_bench(&doc).expect_err("remote drift");
        assert!(err.contains("remote"), "{err}");

        // BayesOpt must beat ε-greedy on samples-to-front.
        let mut doc = demo_sweep_doc();
        assert!(set_field(
            &mut doc,
            &["ablation", "bayesopt_samples"],
            JsonValue::Num(40.0),
        ));
        let err = validate_sweep_bench(&doc).expect_err("ablation tie");
        assert!(err.contains("fewer samples"), "{err}");

        // An empty ablation is no evidence at all.
        let mut doc = demo_sweep_doc();
        assert!(set_field(
            &mut doc,
            &["ablation", "cells"],
            JsonValue::Arr(vec![])
        ));
        let err = validate_sweep_bench(&doc).expect_err("empty cells");
        assert!(err.contains("cell"), "{err}");
    }
}
