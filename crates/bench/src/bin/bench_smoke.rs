//! CI bench-smoke gate: validates `BENCH_table1.json` after a fresh
//! `table1_runtime` run.
//!
//! Checks, in order:
//!
//! 1. the file parses and matches the expected schema (benchmarks with
//!    per-stage traditional/fast seconds, scaling rows with a
//!    determinism flag, kernel rows with a bitwise-identity flag);
//! 2. every fast-loop speedup is at least [`MIN_SPEEDUP`] — the paper's
//!    headline claim, below our measured 30×–58×;
//! 3. every scaling and kernel row reports `identical_outputs: true`
//!    (the determinism contract is part of the benchmark, not an aside);
//! 4. scaling rows may be `"status": "skipped"` on hosts below
//!    [`SCALING_CORE_GATE`] cores — but a machine at or above the gate
//!    must carry measured rows (a stale file is an error there), and
//!    the characterization stage must scale (> 1× at 4 threads);
//! 5. on gated machines every kernel row (blocked GEMM, batched
//!    forward) must be at least [`KERNEL_MIN_SPEEDUP`] over its naive
//!    baseline.
//!
//! Exits nonzero with a one-line reason on the first failure.

use stco_obs::json::JsonValue;

/// Minimum accepted end-to-end fast-loop speedup per benchmark.
///
/// Calibrated against the workspace-reuse overhaul: the hot-kernel work
/// sped the *traditional* loop ~2.8× (its characterization stage was
/// allocation-bound), which compresses the measured ratio from the old
/// 52×–75× to ~25×–35× even though the fast loop also got faster in
/// absolute terms. 20× keeps a hard floor under the claim — a genuine
/// fast-loop regression (e.g. reintroducing per-call tape allocation)
/// lands near 10×. Prefix-resumed sequential characterization then
/// roughly halved the traditional loop again, to 21×–24× on s1488 and
/// 33×–40× on s298 (median of five iterations per flow), leaving the
/// floor little headroom on s1488. Off-tape device inference on a mesh
/// prepared once per iteration then sped the fast loop, to 30×–42× on
/// s1488 and 41×–58× on s298.
const MIN_SPEEDUP: f64 = 20.0;

/// Parallel-scaling assertions only apply at or above this core count;
/// below it the measurement is noise (CI runners vary).
const SCALING_CORE_GATE: u64 = 4;

/// Minimum accepted kernel-row speedup (blocked GEMM over naive,
/// batched forward over looped `predict_many`) on gated machines.
const KERNEL_MIN_SPEEDUP: f64 = 2.0;

fn get_f64(obj: &JsonValue, key: &str, ctx: &str) -> Result<f64, String> {
    let v = obj
        .get(key)
        .and_then(JsonValue::as_f64)
        .ok_or_else(|| format!("{ctx}: missing numeric field `{key}`"))?;
    if !v.is_finite() {
        return Err(format!("{ctx}: field `{key}` is not finite ({v})"));
    }
    Ok(v)
}

/// Validates one per-stage seconds object and returns its total.
fn check_stage_seconds(obj: &JsonValue, ctx: &str) -> Result<f64, String> {
    let mut sum = 0.0;
    for key in ["device", "compact", "cells", "system"] {
        let v = get_f64(obj, key, ctx)?;
        if v < 0.0 {
            return Err(format!("{ctx}: stage `{key}` is negative ({v})"));
        }
        sum += v;
    }
    let total = get_f64(obj, "total", ctx)?;
    let rel = (total - sum).abs() / total.abs().max(1e-9);
    if rel > 0.01 {
        return Err(format!(
            "{ctx}: total {total:.6} disagrees with stage sum {sum:.6} ({:.2}% off)",
            rel * 100.0
        ));
    }
    Ok(total)
}

fn run(text: &str) -> Result<String, String> {
    let root = JsonValue::parse(text).map_err(|e| format!("parse error: {e}"))?;
    let threads = root
        .get("threads")
        .and_then(JsonValue::as_u64)
        .ok_or("missing `threads`")?;
    let cores = root
        .get("available_parallelism")
        .and_then(JsonValue::as_u64)
        .ok_or("missing `available_parallelism`")?;

    let benches = match root.get("benchmarks") {
        Some(JsonValue::Arr(rows)) if !rows.is_empty() => rows,
        _ => return Err("`benchmarks` missing or empty".to_string()),
    };
    let mut worst: Option<(String, f64)> = None;
    for row in benches {
        let name = row
            .get("name")
            .and_then(JsonValue::as_str)
            .ok_or("benchmark row missing `name`")?
            .to_string();
        let trad = row
            .get("traditional")
            .ok_or_else(|| format!("{name}: missing `traditional`"))?;
        let fast = row
            .get("fast")
            .ok_or_else(|| format!("{name}: missing `fast`"))?;
        let trad_total = check_stage_seconds(trad, &format!("{name}/traditional"))?;
        let fast_total = check_stage_seconds(fast, &format!("{name}/fast"))?;
        let speedup = get_f64(row, "speedup", &name)?;
        let recomputed = trad_total / fast_total.max(1e-12);
        let rel = (speedup - recomputed).abs() / recomputed.max(1e-9);
        if rel > 0.01 {
            return Err(format!(
                "{name}: recorded speedup {speedup:.3} disagrees with totals ({recomputed:.3})"
            ));
        }
        if speedup < MIN_SPEEDUP {
            return Err(format!(
                "{name}: fast-loop speedup {speedup:.1}x below the {MIN_SPEEDUP:.0}x gate"
            ));
        }
        if worst.as_ref().is_none_or(|(_, s)| speedup < *s) {
            worst = Some((name, speedup));
        }
    }

    let scaling = match root.get("scaling") {
        Some(JsonValue::Arr(rows)) if !rows.is_empty() => rows,
        _ => return Err("`scaling` missing or empty".to_string()),
    };
    let mut charac_speedup = None;
    let mut measured_rows = 0usize;
    for row in scaling {
        let stage = row
            .get("stage")
            .and_then(JsonValue::as_str)
            .ok_or("scaling row missing `stage`")?
            .to_string();
        match row.get("identical_outputs") {
            Some(JsonValue::Bool(true)) => {}
            other => {
                return Err(format!(
                    "{stage}: identical_outputs must be true, got {other:?} \
                     (stco-par determinism contract)"
                ))
            }
        }
        // Rows without a `status` field predate it and are measured.
        let status = match row.get("status") {
            None => "measured",
            Some(JsonValue::Str(s)) => s.as_str(),
            other => return Err(format!("{stage}: non-string `status` ({other:?})")),
        };
        match status {
            "measured" => {
                measured_rows += 1;
                for key in ["serial_seconds", "parallel_seconds"] {
                    let v = get_f64(row, key, &stage)?;
                    if v <= 0.0 {
                        return Err(format!("{stage}: `{key}` must be positive ({v})"));
                    }
                }
                let speedup = get_f64(row, "speedup", &stage)?;
                if stage == "characterization" {
                    charac_speedup = Some(speedup);
                }
            }
            "skipped" => {
                row.get("reason")
                    .and_then(JsonValue::as_str)
                    .ok_or_else(|| format!("{stage}: skipped scaling row missing `reason`"))?;
            }
            other => return Err(format!("{stage}: unknown scaling status `{other}`")),
        }
    }
    let scaling_line = if cores >= SCALING_CORE_GATE {
        if measured_rows == 0 {
            return Err(format!(
                "every scaling row is skipped on a {cores}-core machine — \
                 stale BENCH_table1.json from a core-starved host?"
            ));
        }
        let charac = charac_speedup.ok_or("no measured `characterization` scaling row")?;
        if charac <= 1.0 {
            return Err(format!(
                "characterization parallel scaling {charac:.3}x <= 1x on a \
                 {cores}-core machine (thread-local workspace regression?)"
            ));
        }
        format!("characterization scales {charac:.2}x at {threads} threads")
    } else if let Some(charac) = charac_speedup {
        format!(
            "characterization scaling {charac:.2}x recorded \
             (gate skipped: {cores} core(s))"
        )
    } else {
        format!("scaling timings skipped ({cores} core(s), outputs verified identical)")
    };

    let kernels = match root.get("kernels") {
        Some(JsonValue::Arr(rows)) if !rows.is_empty() => rows,
        _ => return Err("`kernels` missing or empty".to_string()),
    };
    let mut kernel_worst: Option<(String, f64)> = None;
    for row in kernels {
        let name = row
            .get("name")
            .and_then(JsonValue::as_str)
            .ok_or("kernel row missing `name`")?
            .to_string();
        let baseline = get_f64(row, "baseline_seconds", &name)?;
        let optimized = get_f64(row, "optimized_seconds", &name)?;
        if baseline <= 0.0 || optimized <= 0.0 {
            return Err(format!("{name}: kernel seconds must be positive"));
        }
        let speedup = get_f64(row, "speedup", &name)?;
        let recomputed = baseline / optimized.max(1e-12);
        let rel = (speedup - recomputed).abs() / recomputed.max(1e-9);
        if rel > 0.01 {
            return Err(format!(
                "{name}: recorded kernel speedup {speedup:.3} disagrees with seconds ({recomputed:.3})"
            ));
        }
        match row.get("identical_outputs") {
            Some(JsonValue::Bool(true)) => {}
            other => {
                return Err(format!(
                    "{name}: identical_outputs must be true, got {other:?} \
                     (blocked/batched kernels are bitwise-pinned to their baselines)"
                ))
            }
        }
        if cores >= SCALING_CORE_GATE && speedup < KERNEL_MIN_SPEEDUP {
            return Err(format!(
                "{name}: kernel speedup {speedup:.2}x below the \
                 {KERNEL_MIN_SPEEDUP:.0}x gate on a {cores}-core machine"
            ));
        }
        if kernel_worst.as_ref().is_none_or(|(_, s)| speedup < *s) {
            kernel_worst = Some((name, speedup));
        }
    }
    let (kernel_name, kernel_speedup) = kernel_worst.ok_or("no kernel rows")?;

    let (worst_name, worst_speedup) = worst.ok_or("no benchmark rows")?;
    Ok(format!(
        "bench-smoke OK: {} benchmark(s), slowest fast-loop speedup {worst_speedup:.1}x \
         ({worst_name}) >= {MIN_SPEEDUP:.0}x; {scaling_line}; slowest kernel \
         {kernel_speedup:.2}x ({kernel_name}); all outputs bit-identical",
        benches.len()
    ))
}

fn main() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_table1.json");
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("bench-smoke FAIL: cannot read {path}: {e}");
            std::process::exit(1);
        }
    };
    match run(&text) {
        Ok(summary) => println!("{summary}"),
        Err(reason) => {
            eprintln!("bench-smoke FAIL: {reason}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_full(
        speedup: f64,
        charac_speedup: f64,
        identical: bool,
        cores: u64,
        scaling_skipped: bool,
        kernel_speedup: f64,
        kernel_identical: bool,
    ) -> String {
        let fast_total = 0.02;
        let trad_total = fast_total * speedup;
        let trad_cells = trad_total - 0.003;
        let scaling = if scaling_skipped {
            format!(
                r#"    {{"stage": "dataset_generation", "status": "skipped", "reason": "thread-scaling timings need >= 4 cores, host has {cores}", "identical_outputs": true}},
    {{"stage": "characterization", "status": "skipped", "reason": "thread-scaling timings need >= 4 cores, host has {cores}", "identical_outputs": {identical}}}"#
            )
        } else {
            format!(
                r#"    {{"stage": "dataset_generation", "status": "measured", "serial_seconds": 0.08, "parallel_seconds": 0.04, "speedup": 2.0, "identical_outputs": true}},
    {{"stage": "characterization", "status": "measured", "serial_seconds": 2.0, "parallel_seconds": {}, "speedup": {charac_speedup}, "identical_outputs": {identical}}}"#,
                2.0 / charac_speedup
            )
        };
        format!(
            r#"{{
  "threads": 4,
  "available_parallelism": {cores},
  "benchmarks": [
    {{"name": "s298",
      "traditional": {{"device": 0.001, "compact": 0.001, "cells": {trad_cells}, "system": 0.001, "total": {trad_total}}},
      "fast": {{"device": 0.005, "compact": 0.005, "cells": 0.005, "system": 0.005, "total": {fast_total}}},
      "speedup": {speedup}}}
  ],
  "scaling": [
{scaling}
  ],
  "kernels": [
    {{"name": "blocked_gemm_2048x32x32", "baseline_seconds": {}, "optimized_seconds": 0.0001, "speedup": {kernel_speedup}, "identical_outputs": {kernel_identical}}},
    {{"name": "batched_forward_32", "baseline_seconds": 0.009, "optimized_seconds": 0.003, "speedup": 3.0, "identical_outputs": true}}
  ]
}}"#,
            0.0001 * kernel_speedup
        )
    }

    fn sample(speedup: f64, charac_speedup: f64, identical: bool, cores: u64) -> String {
        sample_full(speedup, charac_speedup, identical, cores, false, 3.4, true)
    }

    #[test]
    fn healthy_report_passes() -> Result<(), String> {
        let summary = run(&sample(55.0, 2.5, true, 8))?;
        assert!(summary.contains("55.0x"));
        assert!(summary.contains("2.50x"));
        Ok(())
    }

    #[test]
    fn slow_fast_loop_fails() {
        let err = run(&sample(19.0, 2.5, true, 8)).unwrap_err();
        assert!(err.contains("below the 20x gate"), "{err}");
    }

    #[test]
    fn charac_scaling_regression_fails_on_big_machines_only() -> Result<(), String> {
        let err = run(&sample(55.0, 0.95, true, 8)).unwrap_err();
        assert!(err.contains("characterization parallel scaling"), "{err}");
        // The same report is accepted on a small CI runner.
        let summary = run(&sample(55.0, 0.95, true, 1))?;
        assert!(summary.contains("gate skipped"));
        Ok(())
    }

    #[test]
    fn broken_determinism_flag_fails() {
        let err = run(&sample(55.0, 2.5, false, 8)).unwrap_err();
        assert!(err.contains("identical_outputs"), "{err}");
    }

    #[test]
    fn schema_violations_fail() {
        assert!(run("not json").is_err());
        assert!(run("{}").is_err());
        let missing_scaling = r#"{"threads": 4, "available_parallelism": 1,
            "benchmarks": [{"name": "x",
              "traditional": {"device": 1.0, "compact": 1.0, "cells": 1.0, "system": 1.0, "total": 4.0},
              "fast": {"device": 0.025, "compact": 0.025, "cells": 0.025, "system": 0.025, "total": 0.1},
              "speedup": 40.0}]}"#;
        assert!(run(missing_scaling).unwrap_err().contains("scaling"));
    }

    #[test]
    fn skipped_scaling_rows_accepted_on_small_hosts_only() -> Result<(), String> {
        // A 1-core host records skipped scaling rows: structurally valid.
        let summary = run(&sample_full(55.0, 2.5, true, 1, true, 3.4, true))?;
        assert!(summary.contains("scaling timings skipped"), "{summary}");
        // The same skipped rows on a gated machine mean the file is stale.
        let err = run(&sample_full(55.0, 2.5, true, 8, true, 3.4, true)).unwrap_err();
        assert!(err.contains("stale"), "{err}");
        Ok(())
    }

    #[test]
    fn skipped_scaling_row_requires_reason() {
        let report = sample_full(55.0, 2.5, true, 1, true, 3.4, true).replace(
            ", \"reason\": \"thread-scaling timings need >= 4 cores, host has 1\"",
            "",
        );
        let err = run(&report).unwrap_err();
        assert!(err.contains("missing `reason`"), "{err}");
    }

    #[test]
    fn slow_kernel_fails_on_gated_machines_only() -> Result<(), String> {
        let err = run(&sample_full(55.0, 2.5, true, 8, false, 1.4, true)).unwrap_err();
        assert!(err.contains("below the 2x gate"), "{err}");
        // Recorded but not gated on a small host.
        let summary = run(&sample_full(55.0, 2.5, true, 1, true, 1.4, true))?;
        assert!(summary.contains("1.40x"), "{summary}");
        Ok(())
    }

    #[test]
    fn kernel_identity_flag_must_hold() {
        let err = run(&sample_full(55.0, 2.5, true, 8, false, 3.4, false)).unwrap_err();
        assert!(err.contains("bitwise-pinned"), "{err}");
    }

    #[test]
    fn missing_kernels_section_fails() {
        let report = sample(55.0, 2.5, true, 8);
        let stripped = report
            .split("  \"kernels\": [")
            .next()
            .map(|head| format!("{}  \"kernels\": []\n}}", head))
            .unwrap_or_default();
        let err = run(&stripped).unwrap_err();
        assert!(err.contains("kernels"), "{err}");
    }
}
