//! `stco_benchmark`: the repository benchmark. One process runs one
//! workload of the fast-stco stack through public APIs only, prints a
//! host header, every metric by name with its unit and sample count, and
//! the result of each output check, and ends with one JSON line:
//!
//! ```text
//! stco_benchmark --workload <name> --seed <u64> [--seconds <n>] [--trace 0|1]
//!                [--spans <path>] [--repeat <n>]
//! ```
//!
//! `--trace 0` (the default) reports the end-to-end metrics. `--trace 1`
//! repeats the workload with the same seed under bench-side spans and
//! reports the per-layer metrics; the spans go to `--spans` (default
//! `.stco-benchmark/spans-<workload>-<seed>.jsonl`). `--repeat <n>` runs
//! the workload in `n` child processes with seeds `seed..seed+n` and
//! prints each end-to-end metric's median and quartile spread.
//!
//! README.md beside this file documents the workloads and the metrics.

mod fast_loop;
mod replay;
mod serve;
mod stats;
mod sweep;
mod trace;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use stco_obs::json::JsonValue;
use stco_system::bench_gen::Benchmark;

use crate::trace::Trace;

/// Error type of the benchmark: any library error, reported and turned
/// into a non-zero exit without a result line.
pub type BoxResult<T> = Result<T, Box<dyn std::error::Error>>;

/// The quantile of per-operation latency that `op_ms` reports on the
/// fast loops and the serve workload.
pub const OP_QUANTILE: f64 = 0.25;

/// Named stage seconds, in execution order.
pub type Stages = Vec<(&'static str, f64)>;

/// Runs `f` and appends its seconds to `stages` as `name`.
pub fn stage<T>(stages: &mut Stages, name: &'static str, f: impl FnOnce() -> T) -> T {
    let t0 = Instant::now();
    let out = f();
    stages.push((name, t0.elapsed().as_secs_f64()));
    out
}

/// stco-par threads every run is pinned to.
const THREADS: usize = 2;

/// The end-to-end metrics every workload reports, with their units.
///
/// `op_ms` is the time of the workload's unit of work. On the fast loops
/// it is the first quartile ([`OP_QUANTILE`]) of an STCO iteration's
/// wall time, on the serve workload the first quartile of a predict
/// request's latency at the low open-loop rate: the host slows for
/// seconds at a time, which moves a run's median and tail, while the
/// first quartile moves only when most of the run is slowed. On the
/// sweep it is a scenario's turnaround on its worker, the median of the
/// run's passes, averaged over the scenarios (see `sweep`). The median,
/// p90 and throughput are per-layer `load.*` metrics, reported but not
/// gated.
///
/// Memory is the peak once set-up is done: the measured window's
/// resident set grows with the operations it completes, which would tie
/// a memory bound to throughput.
pub const END_TO_END: [(&str, &str); 3] =
    [("setup_s", "s"), ("op_ms", "ms"), ("setup_rss_mb", "MB")];

/// The per-layer metrics of the traced run. A layer the workload does
/// not run reads 0.
pub const PER_LAYER: [(&str, &str); 60] = [
    ("load.op_p50_ms", "ms"),
    ("load.op_p90_ms", "ms"),
    ("load.throughput_per_s", "1/s"),
    ("core.device_ms", "ms"),
    ("core.compact_ms", "ms"),
    ("core.cells_ms", "ms"),
    ("core.system_ms", "ms"),
    ("core.unattributed_ms", "ms"),
    ("core.coverage", "ratio"),
    ("surrogate.device_solve_us", "us"),
    ("surrogate.device_solves_per_iter", "count"),
    ("surrogate.poisson_forward_us", "us"),
    ("surrogate.iv_forward_us", "us"),
    ("surrogate.iv_forwards_per_iter", "count"),
    ("surrogate.cell_forward_us", "us"),
    ("surrogate.cell_forwards_per_iter", "count"),
    ("surrogate.batch_forward_us_per_item", "us"),
    ("compact.extract_ms", "ms"),
    ("system.map_ms", "ms"),
    ("system.place_ms", "ms"),
    ("system.verify_ms", "ms"),
    ("system.sta_ms", "ms"),
    ("system.power_ms", "ms"),
    ("system.coverage", "ratio"),
    ("setup.flow_build_s", "s"),
    ("setup.dataset_s", "s"),
    ("setup.characterize_s", "s"),
    ("setup.train_poisson_s", "s"),
    ("setup.train_iv_s", "s"),
    ("setup.train_cell_s", "s"),
    ("setup.store_put_s", "s"),
    ("setup.server_start_s", "s"),
    ("setup.model_load_s", "s"),
    ("setup.journal_open_s", "s"),
    ("setup.coverage", "ratio"),
    ("serve.low.service_p50_ms", "ms"),
    ("serve.low.queue_wait_p50_ms", "ms"),
    ("serve.low.transport_p50_ms", "ms"),
    ("serve.low.batch_size_mean", "count"),
    ("serve.low.client_p99_ms", "ms"),
    ("serve.low.gen_lag_p99_ms", "ms"),
    ("serve.high.service_p50_ms", "ms"),
    ("serve.high.queue_wait_p50_ms", "ms"),
    ("serve.high.transport_p50_ms", "ms"),
    ("serve.high.batch_size_mean", "count"),
    ("serve.high.client_p99_ms", "ms"),
    ("serve.high.gen_lag_p99_ms", "ms"),
    ("serve.peak.service_p50_ms", "ms"),
    ("serve.peak.queue_wait_p50_ms", "ms"),
    ("serve.peak.batch_size_mean", "count"),
    ("serve.peak.client_p99_ms", "ms"),
    ("serve.shed_total", "count"),
    ("serve.errors", "count"),
    ("sweep.pool_busy_share", "ratio"),
    ("sweep.resume_ms", "ms"),
    ("sweep.records_written", "count"),
    ("store.journal_put_ms", "ms"),
    ("store.journal_load_ms", "ms"),
    ("trace.overhead_ms", "ms"),
    ("mem.rss_growth_kb_per_op", "kB"),
];

/// The declared per-layer metric called `name`, if there is one.
pub fn layer(name: &str) -> Option<&'static str> {
    PER_LAYER.iter().map(|&(n, _)| n).find(|n| *n == name)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    FastLoopS298,
    FastLoopDarkriscv,
    ServeOpenLoop,
    SweepTraditional,
}

impl Workload {
    const ALL: [Workload; 4] = [
        Workload::FastLoopS298,
        Workload::FastLoopDarkriscv,
        Workload::ServeOpenLoop,
        Workload::SweepTraditional,
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::FastLoopS298 => "fast-loop-s298",
            Workload::FastLoopDarkriscv => "fast-loop-darkriscv",
            Workload::ServeOpenLoop => "serve-open-loop",
            Workload::SweepTraditional => "sweep-traditional",
        }
    }
}

/// What one run of a workload is asked to do.
pub struct Ctx {
    /// Input seed.
    pub seed: u64,
    /// Seconds the measured part of the workload runs.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub traced: bool,
    /// Spans of the traced run.
    pub trace: Trace,
    /// Per-run scratch directory (registries and journals).
    pub scratch: PathBuf,
    /// Peak resident set size once set-up is done, MB.
    pub setup_rss_mb: f64,
    /// Resident set size once set-up is done, kB.
    pub setup_rss_kb: f64,
}

impl Ctx {
    /// A fresh directory under the run's scratch directory.
    pub fn scratch_dir(&self, name: &str) -> PathBuf {
        let dir = self.scratch.join(name);
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// `mem.rss_growth_kb_per_op`: resident memory gained since set-up,
    /// per operation of the measured window that just ended.
    pub fn rss_growth(&self, ops: u64) -> (&'static str, f64) {
        rss_growth(memory_kb("VmRSS:") - self.setup_rss_kb, ops)
    }

    /// Runs `setup` once and times it; the traced run records it as
    /// spans. Every repetition gets the same fresh directory, emptied
    /// outside the timing: in one directory holding thousands of others,
    /// creating one took 0.3–0.5 ms instead of 0.02 ms. Returns the
    /// value, its seconds and its stage seconds.
    pub fn setup_once<T>(
        &mut self,
        setup: impl FnOnce(&Path) -> BoxResult<(T, Stages)>,
    ) -> BoxResult<(T, f64, Stages)> {
        let dir = self.scratch_dir("setup");
        let start = self.trace.now();
        let t0 = Instant::now();
        let (value, stages) = setup(&dir)?;
        let seconds = t0.elapsed().as_secs_f64();
        if self.traced {
            let root = self.trace.record("setup", None, start, self.trace.now());
            self.trace.record_stages(root, start, &stages);
        }
        Ok((value, seconds, stages))
    }

    /// Records the memory figures of a finished set-up, before any
    /// operation of the measured window.
    pub fn note_setup_memory(&mut self) {
        self.setup_rss_mb = memory_kb("VmHWM:") / 1024.0;
        self.setup_rss_kb = memory_kb("VmRSS:");
    }

    /// Runs `setup` repeatedly and keeps the last result: at least
    /// `min_reps` times and until `min_seconds` have been spent (at most
    /// 10 000 times), once in the traced run. Fast set-ups repeat
    /// thousands of times, so their median does not hang on a few slow
    /// ones. Returns the value, each repetition's seconds, and the last
    /// repetition's stage seconds.
    pub fn repeat_setup<T>(
        &mut self,
        min_reps: usize,
        min_seconds: f64,
        mut setup: impl FnMut(&Path) -> BoxResult<(T, Stages)>,
    ) -> BoxResult<(T, Vec<f64>, Stages)> {
        let (min_reps, min_seconds) = if self.traced {
            (1, 0.0)
        } else {
            (min_reps, min_seconds)
        };
        let mut totals = Vec::new();
        let mut last = None;
        while totals.len() < min_reps
            || (totals.iter().sum::<f64>() < min_seconds && totals.len() < 10_000)
        {
            // The previous repetition is torn down outside the timing.
            drop(last.take());
            let (value, seconds, stages) = self.setup_once(&mut setup)?;
            totals.push(seconds);
            last = Some((value, stages));
        }
        let (value, stages) = last.expect("setup ran at least once");
        self.note_setup_memory();
        Ok((value, totals, stages))
    }
}

/// Metrics and checks of one run.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted in the measured window.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Output checks: what was checked and whether it held.
    pub checks: Vec<(String, bool)>,
    /// End-to-end metrics: name, value, sample count.
    pub end_to_end: Vec<(&'static str, f64, usize)>,
    /// Per-layer metrics of the traced run.
    pub per_layer: Vec<(&'static str, f64)>,
}

impl Outcome {
    /// Records an output check.
    pub fn check(&mut self, what: impl Into<String>, ok: bool) {
        self.checks.push((what.into(), ok));
    }

    /// Records how many operations the measured window attempted and how
    /// many failed, and checks that none did.
    pub fn count(&mut self, attempted: u64, failed: u64) {
        self.attempted = attempted;
        self.failed = failed;
        self.check(
            format!("no operation failed ({failed} of {attempted})"),
            failed == 0,
        );
    }

    /// Records the measured window: the gated operation time, and the
    /// latency median and p90 and the throughput as `load.*`.
    pub fn ops(&mut self, op_seconds: f64, ledger: &stats::Ledger, throughput: f64) {
        let n = ledger.latencies().len();
        self.end_to_end.push(("op_ms", op_seconds * 1e3, n));
        self.per_layer.extend([
            ("load.op_p50_ms", ledger.quantile(0.5) * 1e3),
            ("load.op_p90_ms", ledger.quantile(0.9) * 1e3),
            ("load.throughput_per_s", throughput),
        ]);
    }

    /// Records the setup metrics: `setup_s` as the median repetition,
    /// and in the traced run each stage plus `setup.coverage`.
    pub fn setup(&mut self, totals: &[f64], stages: &[(&'static str, f64)]) {
        self.end_to_end
            .push(("setup_s", stats::median(totals), totals.len()));
        let last = totals.last().copied().unwrap_or(f64::NAN);
        let staged: f64 = stages.iter().map(|s| s.1).sum();
        for &(name, seconds) in stages {
            self.per_layer.push((name, seconds));
        }
        self.per_layer.push(("setup.coverage", staged / last));
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    spans: Option<PathBuf>,
    repeat: usize,
}

const USAGE: &str = "usage: stco_benchmark --workload <fast-loop-s298|fast-loop-darkriscv|\
serve-open-loop|sweep-traditional> --seed <u64> [--seconds <n>] [--trace 0|1] \
[--spans <path>] [--repeat <n>]";

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut spans, mut repeat) =
        (None, None, 20.0, false, None, 0);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == v)
                        .ok_or(format!("unknown workload {v:?}"))?,
                );
            }
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--spans" => spans = Some(PathBuf::from(value()?)),
            "--repeat" => repeat = value()?.parse().map_err(|e| format!("--repeat: {e}"))?,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
        spans,
        repeat,
    })
}

/// Removes the run's scratch directory when the run ends, however it ends.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// A memory field of this process's `/proc/self/status` (`VmHWM:`,
/// `VmRSS:`), kB.
fn memory_kb(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|text| {
            text.lines()
                .find_map(|l| l.strip_prefix(field))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .unwrap_or(f64::NAN)
}

/// `mem.rss_growth_kb_per_op`: `grown_kb` of resident memory over `ops`
/// operations.
pub fn rss_growth(grown_kb: f64, ops: u64) -> (&'static str, f64) {
    ("mem.rss_growth_kb_per_op", grown_kb / ops.max(1) as f64)
}

/// JSON cannot carry non-finite numbers: an infinite latency (a failed
/// operation) is reported as the largest finite double, and NaN (a
/// metric with no sample) fails the run.
fn json_num(name: &str, v: f64) -> BoxResult<JsonValue> {
    if v.is_nan() {
        return Err(format!("metric {name} has no value").into());
    }
    Ok(JsonValue::Num(v.clamp(-f64::MAX, f64::MAX)))
}

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|(n, _)| *n == name)
        .map_or("", |(_, u)| u)
}

fn run(args: &Args) -> BoxResult<ExitCode> {
    stco_par::set_global_threads(THREADS);
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    println!(
        "host: nproc={cores} cpu=\"{}\" threads={} workload={} seed={} seconds={} trace={}",
        cpu_model(),
        stco_par::ParConfig::current().threads,
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let scratch =
        Scratch(PathBuf::from(".stco-benchmark").join(format!("run-{}", std::process::id())));
    std::fs::create_dir_all(&scratch.0)?;
    let mut ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        traced: args.trace,
        trace: Trace::new(Instant::now()),
        scratch: scratch.0.clone(),
        setup_rss_mb: f64::NAN,
        setup_rss_kb: f64::NAN,
    };
    let mut outcome = match args.workload {
        Workload::FastLoopS298 => fast_loop::run(&mut ctx, Benchmark::S298)?,
        Workload::FastLoopDarkriscv => fast_loop::run(&mut ctx, Benchmark::Darkriscv)?,
        Workload::ServeOpenLoop => serve::run(&mut ctx)?,
        Workload::SweepTraditional => sweep::run(&mut ctx)?,
    };
    outcome
        .end_to_end
        .push(("setup_rss_mb", ctx.setup_rss_mb, 1));
    println!(
        "\nattempted {} failed {} failed_share {}",
        outcome.attempted,
        outcome.failed,
        stats::failed_share(outcome.failed, outcome.attempted)
    );
    for (name, value, samples) in &outcome.end_to_end {
        println!("metric {name} = {value:.6} {} (n={samples})", unit_of(name));
    }
    for (what, ok) in &outcome.checks {
        println!("check {}: {what}", if *ok { "pass" } else { "FAIL" });
    }
    let reported: Vec<(&str, f64)> = if args.trace {
        let path = args.spans.clone().unwrap_or_else(|| {
            PathBuf::from(".stco-benchmark").join(format!(
                "spans-{}-{}.jsonl",
                args.workload.name(),
                args.seed
            ))
        });
        ctx.trace.write_jsonl(&path)?;
        println!("\n{}", ctx.trace.tree());
        println!("spans: {} written to {}", ctx.trace.len(), path.display());
        PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let value = outcome
                    .per_layer
                    .iter()
                    .find(|m| m.0 == name)
                    .map_or(0.0, |m| m.1);
                println!("layer {name} = {value:.6} {unit}");
                (name, value)
            })
            .collect()
    } else {
        for (name, value) in &outcome.per_layer {
            println!("layer {name} = {value:.6} {}", unit_of(name));
        }
        END_TO_END
            .iter()
            .map(|&(name, _)| {
                let value = outcome
                    .end_to_end
                    .iter()
                    .find(|m| m.0 == name)
                    .map_or(f64::NAN, |m| m.1);
                (name, value)
            })
            .collect()
    };
    if let Some((name, _)) = outcome
        .per_layer
        .iter()
        .find(|(n, _)| !PER_LAYER.iter().any(|(p, _)| p == n))
    {
        return Err(format!("workload reported undeclared layer metric {name}").into());
    }
    let correct = outcome.checks.iter().all(|(_, ok)| *ok);
    let metrics = reported
        .iter()
        .map(|&(name, value)| {
            Ok((
                name.to_string(),
                JsonValue::Obj(vec![
                    ("value".to_string(), json_num(name, value)?),
                    (
                        "unit".to_string(),
                        JsonValue::Str(unit_of(name).to_string()),
                    ),
                ]),
            ))
        })
        .collect::<BoxResult<_>>()?;
    let line = JsonValue::Obj(vec![
        ("correct".to_string(), JsonValue::Bool(correct)),
        (
            "attempted".to_string(),
            JsonValue::Num(outcome.attempted as f64),
        ),
        ("failed".to_string(), JsonValue::Num(outcome.failed as f64)),
        ("metrics".to_string(), JsonValue::Obj(metrics)),
    ]);
    println!("{}", line.render());
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

/// `--repeat n`: the workload in `n` child processes, one seed each, then
/// each end-to-end metric's median and `IQR ÷ median` (the spread a
/// metric's bound is judged against).
fn calibrate(args: &Args) -> BoxResult<ExitCode> {
    let exe = std::env::current_exe()?;
    let mut values: Vec<Vec<f64>> = vec![Vec::new(); END_TO_END.len()];
    for i in 0..args.repeat as u64 {
        let t0 = Instant::now();
        let output = std::process::Command::new(&exe)
            .args(["--workload", args.workload.name()])
            .args(["--seed", &(args.seed + i).to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", "0"])
            .stderr(std::process::Stdio::inherit())
            .output()?;
        let stdout = String::from_utf8_lossy(&output.stdout);
        let last = stdout.lines().last().unwrap_or_default();
        let doc = JsonValue::parse(last).map_err(|e| format!("seed {}: {e}", args.seed + i))?;
        if !output.status.success() || doc.get("correct") != Some(&JsonValue::Bool(true)) {
            return Err(format!("seed {}: run failed ({})", args.seed + i, output.status).into());
        }
        let mut line = format!(
            "run {} seed {} ({:.1} s):",
            i + 1,
            args.seed + i,
            t0.elapsed().as_secs_f64()
        );
        for ((name, _), column) in END_TO_END.iter().zip(&mut values) {
            let v = doc
                .get("metrics")
                .and_then(|m| m.get(name))
                .and_then(|m| m.get("value"))
                .and_then(JsonValue::as_f64)
                .ok_or(format!("seed {}: metric {name} missing", args.seed + i))?;
            line.push_str(&format!(" {name}={v:.6}"));
            column.push(v);
        }
        println!("{line}");
    }
    println!(
        "\n{:<18} {:>12} {:>12} {:>12} {:>10}",
        "metric", "median", "q1", "q3", "iqr/median"
    );
    for ((name, unit), column) in END_TO_END.iter().zip(&values) {
        let [q1, _, q3] = stats::quartiles(column);
        let median = stats::median(column);
        println!(
            "{:<18} {:>12.6} {:>12.6} {:>12.6} {:>10.4}  {unit}",
            name,
            median,
            q1,
            q3,
            (q3 - q1) / median
        );
    }
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("stco_benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = if args.repeat > 0 {
        calibrate(&args)
    } else {
        run(&args)
    };
    result.unwrap_or_else(|e| {
        eprintln!("stco_benchmark: {e}");
        ExitCode::from(2)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_tables_match_benchmark_json() {
        let text = include_str!("../../../../../BENCHMARK.json");
        let doc = JsonValue::parse(text).expect("BENCHMARK.json parses");
        let listed = |key: &str| -> Vec<(String, String)> {
            let Some(JsonValue::Arr(items)) = doc.get(key) else {
                panic!("{key} must be an array");
            };
            items
                .iter()
                .map(|m| {
                    let field =
                        |f: &str| m.get(f).and_then(JsonValue::as_str).expect(f).to_string();
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let own = |table: &[(&str, &str)]| -> Vec<(String, String)> {
            table
                .iter()
                .map(|(n, u)| ((*n).to_string(), (*u).to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), own(&END_TO_END));
        assert_eq!(listed("per_layer"), own(&PER_LAYER));
        let Some(JsonValue::Arr(workloads)) = doc.get("workloads") else {
            panic!("workloads must be an array");
        };
        let names: Vec<&str> = workloads
            .iter()
            .filter_map(|w| w.get("name").and_then(JsonValue::as_str))
            .collect();
        assert_eq!(names, Workload::ALL.map(Workload::name));
    }

    #[test]
    fn arguments_parse_and_reject() {
        let parse = |s: &str| parse_args(s.split_whitespace().map(str::to_string));
        let args = parse("--workload serve-open-loop --seed 3 --seconds 12 --trace 1")
            .expect("valid arguments");
        assert_eq!(args.workload, Workload::ServeOpenLoop);
        assert_eq!((args.seed, args.seconds, args.trace), (3, 12.0, true));
        assert!(parse("--workload nope --seed 1").is_err());
        assert!(parse("--workload serve-open-loop").is_err());
        assert!(parse("--workload serve-open-loop --seed 1 --trace 2").is_err());
    }
}
