//! Table I regenerator: per-benchmark runtime of the traditional versus
//! fast STCO iteration.
//!
//! Prints three views:
//!
//! 1. **measured** — both flows timed end to end on our substrates for a
//!    subset of benchmarks (all ten with `STCO_SCALE=paper`), each the
//!    median of five iterations at one corner;
//! 2. **calibrated/paper** — the paper's technology-stage constants with
//!    the paper's reported system-evaluation seconds (sanity check: must
//!    reproduce the published 1.9×–14.1× column);
//! 3. **calibrated/measured** — paper constants composed with *our*
//!    measured system-evaluation seconds (scaled so the largest matches),
//!    showing the crossover emerges from design size alone.
//!
//! Then writes `BENCH_table1.json` and fails unless each [`GATED`]
//! benchmark's fast loop is at least [`MIN_SPEEDUP`] times faster.

use std::time::Instant;

use stco_bench::{banner, encoded_graphs, fmt_seconds, paper_scale, TraceSession};
use stco_cells::charac::CharConfig;
use stco_cells::encode::CellGraph;
use stco_compact::tech::Corner;
use stco_core::flow::StageSeconds;
use stco_core::flow::{FlowConfig, IterationResult, StcoFlow, TechnologyStage, TrainedSurrogates};
use stco_core::speedup::{calibrated_from_measured, calibrated_rows, paper_table1, MeasuredRow};
use stco_nn::train::TrainConfig;
use stco_numerics::Matrix;
use stco_par::{set_global_threads, ParConfig};
use stco_surrogate::cell_model::{BatchedCellGraph, CellModel, CellModelConfig};
use stco_surrogate::iv_predictor::{IvConfig, IvPredictor};
use stco_surrogate::pipeline::build_cell_dataset;
use stco_surrogate::poisson_emulator::{PoissonConfig, PoissonEmulator};
use stco_system::bench_gen::Benchmark;
use stco_system::ppa::{evaluate_system, EvalConfig};
use stco_tcad::dataset::generate_dataset;
use stco_tcad::materials::Technology;

/// The benchmarks measured at default scale, and the rows the
/// fast-loop floor gates at any scale.
const GATED: [Benchmark; 2] = [Benchmark::S298, Benchmark::S1488];

/// Minimum fast-loop speedup of each [`GATED`] benchmark: below the
/// measured 30–58×, while a real fast-loop regression lands near 10×.
const MIN_SPEEDUP: f64 = 20.0;

/// Thread-scaling and kernel-speedup timings are recorded and asserted
/// only on hosts with at least this many cores; below it they are noise.
const SCALING_CORE_GATE: usize = 4;

/// Measured thread-scaling of one parallel hot path.
struct ScalingRow {
    stage: &'static str,
    serial_seconds: f64,
    parallel_seconds: f64,
}

impl ScalingRow {
    fn speedup(&self) -> f64 {
        self.serial_seconds / self.parallel_seconds.max(1e-12)
    }
}

/// Times `work` at 1 thread and at `threads`, asserting via `fingerprint`
/// that both runs produce identical outputs (the determinism contract of
/// stco-par makes this an equality, not a tolerance).
fn time_scaling<T>(
    stage: &'static str,
    threads: usize,
    work: impl Fn() -> T,
    fingerprint: impl Fn(&T) -> Vec<u64>,
) -> ScalingRow {
    set_global_threads(1);
    let t0 = Instant::now();
    let serial = work();
    let serial_seconds = t0.elapsed().as_secs_f64();
    set_global_threads(threads);
    let t0 = Instant::now();
    let parallel = work();
    let parallel_seconds = t0.elapsed().as_secs_f64();
    set_global_threads(0);
    assert_eq!(
        fingerprint(&serial),
        fingerprint(&parallel),
        "{stage}: outputs differ between 1 and {threads} threads"
    );
    ScalingRow {
        stage,
        serial_seconds,
        parallel_seconds,
    }
}

/// One measured single-thread kernel optimization: a baseline
/// implementation against its drop-in replacement, with a bitwise
/// output-identity verdict (DESIGN.md §15).
struct KernelRow {
    name: &'static str,
    baseline_seconds: f64,
    optimized_seconds: f64,
    identical_outputs: bool,
}

impl KernelRow {
    fn speedup(&self) -> f64 {
        self.baseline_seconds / self.optimized_seconds.max(1e-12)
    }
}

/// Times `baseline` and `optimized` over `reps` calls each after one
/// warmup, comparing their outputs bitwise via `fingerprint`.
fn time_kernel<T>(
    name: &'static str,
    reps: usize,
    baseline: impl Fn() -> T,
    optimized: impl Fn() -> T,
    fingerprint: impl Fn(&T) -> Vec<u64>,
) -> KernelRow {
    let identical = fingerprint(&baseline()) == fingerprint(&optimized());
    let t0 = Instant::now();
    for _ in 0..reps {
        std::hint::black_box(baseline());
    }
    let baseline_seconds = t0.elapsed().as_secs_f64() / reps as f64;
    let t0 = Instant::now();
    for _ in 0..reps {
        std::hint::black_box(optimized());
    }
    let optimized_seconds = t0.elapsed().as_secs_f64() / reps as f64;
    KernelRow {
        name,
        baseline_seconds,
        optimized_seconds,
        identical_outputs: identical,
    }
}

/// Measures the two tentpole kernel optimizations at their serving
/// shapes: the three blocked GEMM variants (aggregate) at the batched
/// GAT trunk shape `2048×32×32`, and the packed batched forward against
/// looped `predict_many` at batch 32.
fn measure_kernels() -> Vec<KernelRow> {
    let mut rng = stco_numerics::rng::Xorshift::new(4242);
    let (m, k, n) = (2048usize, 32usize, 32usize);
    let fill = |rows: usize, cols: usize, rng: &mut stco_numerics::rng::Xorshift| {
        Matrix::from_vec(
            rows,
            cols,
            (0..rows * cols)
                .map(|_| rng.uniform_in(-1.0, 1.0))
                .collect(),
        )
    };
    let a = fill(m, k, &mut rng);
    let b = fill(k, n, &mut rng);
    let g = fill(m, n, &mut rng);
    let at = fill(k, m, &mut rng); // k×m storage for the TN variant
    let gemm_row = time_kernel(
        "blocked_gemm_2048x32x32",
        40,
        || {
            let mut nn = Matrix::zeros(m, n);
            a.gemm_into_naive(&b, &mut nn);
            let mut nt = Matrix::zeros(m, k);
            g.gemm_nt_into_naive(&b, &mut nt);
            let mut tn = Matrix::zeros(m, n);
            at.gemm_tn_into_naive(&b, &mut tn);
            (nn, nt, tn)
        },
        || {
            let mut nn = Matrix::zeros(m, n);
            a.gemm_into_blocked(&b, &mut nn);
            let mut nt = Matrix::zeros(m, k);
            g.gemm_nt_into_blocked(&b, &mut nt);
            let mut tn = Matrix::zeros(m, n);
            at.gemm_tn_into_blocked(&b, &mut tn);
            (nn, nt, tn)
        },
        |(nn, nt, tn)| {
            nn.as_slice()
                .iter()
                .chain(nt.as_slice())
                .chain(tn.as_slice())
                .map(|v| v.to_bits())
                .collect()
        },
    );

    const BATCH: usize = 32;
    let graphs = encoded_graphs(BATCH);
    let refs: Vec<&CellGraph> = graphs.iter().collect();
    let metrics: Vec<usize> = (0..stco_surrogate::cell_model::METRICS.len()).collect();
    let lists: Vec<&[usize]> = (0..BATCH).map(|_| metrics.as_slice()).collect();
    let model = CellModel::new(CellModelConfig::default());
    let forward_row = time_kernel(
        "batched_forward_32",
        20,
        || {
            refs.iter()
                .map(|graph| model.predict_many(graph, &metrics))
                .collect::<Vec<Vec<f64>>>()
        },
        || {
            let batch = BatchedCellGraph::pack(&refs);
            model.predict_batch(&batch, &lists)
        },
        |rows| rows.iter().flatten().map(|v| v.to_bits()).collect(),
    );
    vec![gemm_row, forward_row]
}

fn json_stage(s: &StageSeconds) -> String {
    format!(
        "{{\"device\": {:.6}, \"compact\": {:.6}, \"cells\": {:.6}, \"system\": {:.6}, \"total\": {:.6}}}",
        s.device,
        s.compact,
        s.cells,
        s.system,
        s.total()
    )
}

/// Writes the machine-readable companion of the printed table to
/// `BENCH_table1.json` at the repository root.
///
/// Scaling rows carry a `"status"` field: `"measured"` when the host
/// has at least [`SCALING_CORE_GATE`] cores, `"skipped"` otherwise —
/// the outputs are still verified identical, but no timing claim is
/// recorded for a core-starved host.
fn write_bench_json(
    rows: &[(String, StageSeconds, StageSeconds, f64)],
    scaling: &[ScalingRow],
    kernels: &[KernelRow],
) {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_table1.json");
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut out = String::from("{\n");
    out.push_str(&format!(
        "  \"threads\": {},\n  \"available_parallelism\": {},\n",
        ParConfig::current().threads,
        cores
    ));
    out.push_str("  \"benchmarks\": [\n");
    let bench_rows: Vec<String> = rows
        .iter()
        .map(|(name, trad, fast, speedup)| {
            format!(
                "    {{\"name\": \"{name}\", \"traditional\": {}, \"fast\": {}, \"speedup\": {speedup:.3}}}",
                json_stage(trad),
                json_stage(fast)
            )
        })
        .collect();
    out.push_str(&bench_rows.join(",\n"));
    out.push_str("\n  ],\n  \"scaling\": [\n");
    let scaling_rows: Vec<String> = scaling
        .iter()
        .map(|r| {
            if cores >= SCALING_CORE_GATE {
                format!(
                    "    {{\"stage\": \"{}\", \"status\": \"measured\", \"serial_seconds\": {:.6}, \"parallel_seconds\": {:.6}, \"speedup\": {:.3}, \"identical_outputs\": true}}",
                    r.stage,
                    r.serial_seconds,
                    r.parallel_seconds,
                    r.speedup()
                )
            } else {
                format!(
                    "    {{\"stage\": \"{}\", \"status\": \"skipped\", \"reason\": \"thread-scaling timings need >= {SCALING_CORE_GATE} cores, host has {cores}\", \"identical_outputs\": true}}",
                    r.stage
                )
            }
        })
        .collect();
    out.push_str(&scaling_rows.join(",\n"));
    out.push_str("\n  ],\n  \"kernels\": [\n");
    let kernel_rows: Vec<String> = kernels
        .iter()
        .map(|r| {
            format!(
                "    {{\"name\": \"{}\", \"baseline_seconds\": {:.6}, \"optimized_seconds\": {:.6}, \"speedup\": {:.3}, \"identical_outputs\": {}}}",
                r.name,
                r.baseline_seconds,
                r.optimized_seconds,
                r.speedup(),
                r.identical_outputs
            )
        })
        .collect();
    out.push_str(&kernel_rows.join(",\n"));
    out.push_str("\n  ]\n}\n");
    std::fs::write(path, out).expect("write BENCH_table1.json");
    println!("\nwrote {path}");
}

/// Trains (or cache-loads) the surrogate bundle the fast flow uses.
///
/// Every cache key is a pure function of the configs below, so a second
/// run with identical configs loads all three artifacts and performs
/// zero training steps; `--no-cache` (registry = `None`) forces the
/// full retrain. The device dataset and the SPICE cell characterization
/// are only generated when at least one model actually needs training.
fn train_bundle(
    flow: &StcoFlow,
    char_config: &CharConfig,
    registry: Option<&stco_store::Registry>,
) -> TrainedSurrogates {
    const DATASET_SPEC: &str = "table1 dataset seed=505 n=12 tech=Ltps split=10";
    let schedule = TrainConfig {
        epochs: 15,
        batch_size: 2,
        patience: None,
        ..TrainConfig::default()
    };
    let poisson_config = PoissonConfig {
        depth: 2,
        heads: 1,
        head_dim: 8,
        ..PoissonConfig::default()
    };
    let iv_config = IvConfig {
        depth: 2,
        head_dim: 8,
        mlp_hidden: 12,
        ..IvConfig::default()
    };
    let poisson_key = stco_store::ArtifactKey::from_parts(
        PoissonEmulator::ARTIFACT_KIND,
        &[
            DATASET_SPEC,
            &format!("{poisson_config:?}"),
            &format!("{schedule:?}"),
        ],
    );
    let iv_key = stco_store::ArtifactKey::from_parts(
        IvPredictor::ARTIFACT_KIND,
        &[
            DATASET_SPEC,
            &format!("{iv_config:?}"),
            &format!("{schedule:?}"),
        ],
    );
    let cell_config = CellModelConfig::default();
    let cell_schedule = TrainConfig {
        epochs: 25,
        batch_size: 16,
        patience: None,
        ..TrainConfig::default()
    };
    let corners = [Corner::nominal(2.5), Corner::nominal(3.5)];
    let cell_names: Vec<&str> = flow.cells().iter().map(|c| c.name).collect();
    let cell_key = stco_store::ArtifactKey::from_parts(
        CellModel::ARTIFACT_KIND,
        &[
            "table1 base=Ltps-reference",
            &format!("{cell_config:?}"),
            &format!("{cell_schedule:?}"),
            &format!("{char_config:?}"),
            &format!("{corners:?}"),
            &cell_names.join(","),
        ],
    );

    let load = |kind: &str, key: stco_store::ArtifactKey| {
        registry.and_then(|reg| reg.load(kind, key).expect("artifact cache read"))
    };
    let mut poisson = load(PoissonEmulator::ARTIFACT_KIND, poisson_key)
        .map(|a| PoissonEmulator::from_artifact(&a).expect("rehydrate poisson"));
    let mut iv = load(IvPredictor::ARTIFACT_KIND, iv_key)
        .map(|a| IvPredictor::from_artifact(&a).expect("rehydrate iv"));
    let mut cells = load(CellModel::ARTIFACT_KIND, cell_key)
        .map(|a| CellModel::from_artifact(&a).expect("rehydrate cell model"));

    if poisson.is_none() || iv.is_none() {
        let data = generate_dataset(505, 12, &[Technology::Ltps]).expect("devices");
        let (train, val) = data.split_at(10);
        if poisson.is_none() {
            let mut model = PoissonEmulator::new(poisson_config);
            model.train(train, val, &schedule).expect("poisson");
            if let Some(reg) = registry {
                reg.put(poisson_key, &model.to_artifact())
                    .expect("cache poisson");
            }
            poisson = Some(model);
        }
        if iv.is_none() {
            let mut model = IvPredictor::new(iv_config);
            model.train(train, val, &schedule).expect("iv");
            if let Some(reg) = registry {
                reg.put(iv_key, &model.to_artifact()).expect("cache iv");
            }
            iv = Some(model);
        }
    }
    if cells.is_none() {
        let base = stco_compact::tech::TechnologyCard::reference(Technology::Ltps);
        let samples =
            build_cell_dataset(&base, &corners, flow.cells(), char_config).expect("cell ds");
        let mut model = CellModel::new(cell_config);
        model
            .train(&samples, &[], &cell_schedule)
            .expect("cell model");
        if let Some(reg) = registry {
            reg.put(cell_key, &model.to_artifact())
                .expect("cache cell model");
        }
        cells = Some(model);
    }
    TrainedSurrogates {
        poisson: poisson.expect("poisson trained or loaded"),
        iv: iv.expect("iv trained or loaded"),
        cells: cells.expect("cell model trained or loaded"),
    }
}

/// Fails naming the first [`GATED`] benchmark whose measured fast-loop
/// speedup is below [`MIN_SPEEDUP`]; other benchmarks are not gated.
fn check_speedup_floor(speedups: &[(Benchmark, f64)]) -> Result<(), String> {
    for &(bench, speedup) in speedups {
        if GATED.contains(&bench) && speedup < MIN_SPEEDUP {
            let name = bench.name();
            return Err(format!(
                "{name}: fast-loop speedup {speedup:.1}x below the {MIN_SPEEDUP:.0}x floor"
            ));
        }
    }
    Ok(())
}

/// Checks that the per-stage seconds folded from the recorded trace
/// agree with the seconds printed in the table (same clock reading, so
/// the tolerance is far looser than the actual agreement).
fn verify_trace_agreement(trace: &TraceSession, mark: usize, label: &str, printed: &StageSeconds) {
    let profile = trace.profile_since(mark);
    for (stage, seconds) in [
        ("device", printed.device),
        ("compact", printed.compact),
        ("cells", printed.cells),
        ("system", printed.system),
    ] {
        let folded = profile.total_of(&format!("flow.stage{{stage={stage}}}"));
        let rel = (folded - seconds).abs() / seconds.abs().max(1e-9);
        assert!(
            rel < 0.01,
            "{label}/{stage}: folded {folded:.6} s vs printed {seconds:.6} s ({:.3}% off)",
            rel * 100.0
        );
    }
}

/// Runs `stage` five times at `corner` and returns the run with the
/// median total: one cold call is noisy at the fast loop's ~10 ms (single
/// samples ranged 8–19 ms), and the speedup divides by it. A traced run
/// checks every call's trace against its printed seconds.
fn median_iteration(
    flow: &StcoFlow,
    corner: Corner,
    stage: TechnologyStage,
    surrogates: Option<&TrainedSurrogates>,
    trace: Option<&TraceSession>,
    label: &str,
) -> IterationResult {
    let mut runs: Vec<IterationResult> = (0..5)
        .map(|_| {
            let mark = trace.map(|t| t.mark());
            let run = flow
                .run_iteration(corner, stage, surrogates)
                .expect("iteration runs");
            if let (Some(t), Some(mark)) = (trace, mark) {
                verify_trace_agreement(t, mark, label, &run.seconds);
            }
            run
        })
        .collect();
    runs.sort_by(|a, b| a.seconds.total().total_cmp(&b.seconds.total()));
    runs.swap_remove(runs.len() / 2)
}

fn main() {
    let trace = TraceSession::start("table1_runtime");
    let registry = stco_bench::artifact_registry();
    let measured_set: Vec<Benchmark> = if paper_scale() {
        Benchmark::ALL.to_vec()
    } else {
        GATED.to_vec()
    };

    banner("Table I view 1: measured on our substrates");
    println!(
        "{:<12} {:>10} {:>10} {:>10} {:>10} {:>9} {:>9}",
        "benchmark", "sys-eval", "trad tech", "fast tech", "trad tot", "speedup", "tech x"
    );
    let mut measured_sys: Vec<(Benchmark, f64)> = Vec::new();
    let mut speedups: Vec<(Benchmark, f64)> = Vec::new();
    let mut json_rows: Vec<(String, StageSeconds, StageSeconds, f64)> = Vec::new();
    for &bench in &measured_set {
        let config = FlowConfig::fast(Technology::Ltps, bench);
        let char_config = config.char_config.clone();
        let flow = StcoFlow::new(config).expect("flow");
        let cache_before = stco_bench::cache_counters();
        let surrogates = train_bundle(&flow, &char_config, registry.as_ref());
        stco_bench::report_cache_delta(&format!("{}/surrogates", bench.name()), cache_before);
        let corner = Corner::nominal(3.0);
        let trad = median_iteration(
            &flow,
            corner,
            TechnologyStage::Traditional,
            None,
            trace.as_ref(),
            &format!("{}/traditional", bench.name()),
        );
        let fast = median_iteration(
            &flow,
            corner,
            TechnologyStage::Fast,
            Some(&surrogates),
            trace.as_ref(),
            &format!("{}/fast", bench.name()),
        );
        let row = MeasuredRow {
            benchmark: bench.name().to_string(),
            traditional: trad.seconds,
            fast: fast.seconds,
        };
        println!(
            "{:<12} {:>10} {:>10} {:>10} {:>10} {:>8.1}x {:>8.1}x",
            row.benchmark,
            fmt_seconds(row.traditional.system),
            fmt_seconds(row.traditional.technology()),
            fmt_seconds(row.fast.technology()),
            fmt_seconds(row.traditional.total()),
            row.speedup(),
            row.technology_speedup(),
        );
        measured_sys.push((bench, row.traditional.system));
        speedups.push((bench, row.speedup()));
        json_rows.push((
            bench.name().to_string(),
            trad.seconds,
            fast.seconds,
            row.speedup(),
        ));
    }

    banner("Table I view 2: calibrated with the paper's system-eval seconds");
    println!(
        "{:<12} {:>10} {:>12} {:>10} {:>9} {:>9}",
        "benchmark", "sys-eval", "traditional", "ours", "speedup", "paper"
    );
    let sys: Vec<(Benchmark, f64)> = paper_table1().iter().map(|(b, s, _)| (*b, *s)).collect();
    for (row, (_, _, paper)) in calibrated_rows(&sys).iter().zip(paper_table1()) {
        println!(
            "{:<12} {:>9.0}s {:>11.0}s {:>9.0}s {:>8.1}x {:>8.1}x",
            row.benchmark, row.system_eval, row.traditional, row.ours, row.speedup, paper
        );
    }

    banner("Table I view 3: calibrated with OUR measured system-eval seconds");
    // One shared library (the union of all benchmarks' cells) is
    // characterized once; only the system evaluations are timed.
    let card = stco_compact::tech::TechnologyCard::reference(Technology::Ltps);
    let mut kinds = Vec::new();
    for bench in Benchmark::ALL {
        let mapped = stco_system::mapper::map_netlist(&bench.generate()).expect("maps");
        kinds.extend(stco_system::ppa::used_cells(&mapped));
    }
    kinds.sort_unstable();
    kinds.dedup();
    let cells: Vec<stco_cells::library::CellType> = kinds
        .into_iter()
        .map(stco_cells::library::CellType::by_kind)
        .collect();
    let lib = stco_cells::liberty::Library::characterize_subset(
        &card,
        &stco_bench::bench_char_config(),
        &cells,
    )
    .expect("library");
    // The median of a few calls: the largest design evaluates in tens of
    // milliseconds, where one cold call's noise can reorder designs.
    let mut all_measured = Vec::new();
    for bench in Benchmark::ALL {
        let logic = bench.generate();
        let mut seconds: Vec<f64> = (0..5)
            .map(|_| {
                let t0 = std::time::Instant::now();
                let _ = evaluate_system(&logic, &lib, &EvalConfig::fast()).expect("evaluates");
                t0.elapsed().as_secs_f64()
            })
            .collect();
        seconds.sort_by(f64::total_cmp);
        all_measured.push((bench, seconds[seconds.len() / 2]));
    }
    println!(
        "{:<12} {:>12} {:>12} {:>10} {:>9}",
        "benchmark", "sys (ours)", "traditional", "ours", "speedup"
    );
    for row in calibrated_from_measured(&all_measured) {
        println!(
            "{:<12} {:>11.0}s {:>11.0}s {:>9.0}s {:>8.1}x",
            row.benchmark, row.system_eval, row.traditional, row.ours, row.speedup
        );
    }
    println!("\n(see EXPERIMENTS.md for the paper-vs-measured discussion)");

    banner("stco-par thread scaling (1 vs 4 threads, identical outputs)");
    let scaling_threads = 4usize;
    let scaling = vec![
        time_scaling(
            "dataset_generation",
            scaling_threads,
            || generate_dataset(606, 10, &[Technology::Ltps]).expect("scaling dataset"),
            |ds| {
                ds.iter()
                    .flat_map(|s| {
                        std::iter::once(s.current.to_bits())
                            .chain(s.solution.psi.iter().map(|p| p.to_bits()))
                    })
                    .collect()
            },
        ),
        time_scaling(
            "characterization",
            scaling_threads,
            || {
                stco_cells::liberty::Library::characterize_subset(
                    &card,
                    &stco_bench::bench_char_config(),
                    &cells,
                )
                .expect("scaling characterization")
            },
            |lib| {
                // Debug formatting prints f64 with shortest-roundtrip
                // precision, so hashing the bytes is a bit-exact fingerprint.
                let text = format!("{lib:?}");
                text.into_bytes().into_iter().map(u64::from).collect()
            },
        ),
    ];
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "{:<22} {:>10} {:>10} {:>9}",
        "stage", "1 thread", "4 threads", "speedup"
    );
    for row in &scaling {
        println!(
            "{:<22} {:>9.3}s {:>9.3}s {:>8.2}x",
            row.stage,
            row.serial_seconds,
            row.parallel_seconds,
            row.speedup()
        );
    }
    if cores >= SCALING_CORE_GATE {
        for row in &scaling {
            assert!(
                row.speedup() >= 2.0,
                "{}: expected >= 2x speedup at 4 threads on a {cores}-core machine, got {:.2}x",
                row.stage,
                row.speedup()
            );
        }
        println!("speedup >= 2x at 4 threads verified on {cores} cores.");
    } else {
        println!(
            "(speedup assertion skipped: {cores} core(s) available; \
             scaling rows recorded as \"skipped\"; outputs verified identical)"
        );
    }

    banner("kernel optimizations (single thread, bitwise-identical outputs)");
    let kernels = measure_kernels();
    println!(
        "{:<26} {:>12} {:>12} {:>9} {:>10}",
        "kernel", "baseline", "optimized", "speedup", "identical"
    );
    for row in &kernels {
        println!(
            "{:<26} {:>11.6}s {:>11.6}s {:>8.2}x {:>10}",
            row.name,
            row.baseline_seconds,
            row.optimized_seconds,
            row.speedup(),
            row.identical_outputs
        );
        assert!(
            row.identical_outputs,
            "{}: optimized kernel must be bitwise-identical to its baseline",
            row.name
        );
    }
    if cores >= SCALING_CORE_GATE {
        for row in &kernels {
            assert!(
                row.speedup() >= 2.0,
                "{}: expected >= 2x over the baseline on a {cores}-core machine, got {:.2}x",
                row.name,
                row.speedup()
            );
        }
        println!("kernel speedup >= 2x verified on {cores} cores.");
    } else {
        println!("(kernel speedup assertion skipped: {cores} core(s); timings recorded anyway)");
    }

    write_bench_json(&json_rows, &scaling, &kernels);

    if let Some(t) = trace {
        let (profile, path) = t.finish();
        banner("Profile (folded from the recorded trace)");
        let md = profile.to_markdown();
        print!("{md}");
        assert!(
            md.contains("tcad.newton_iter"),
            "profile must break down Newton iterations inside the TCAD stage"
        );
        assert!(
            md.contains("nn.epoch"),
            "profile must break down epochs inside surrogate training"
        );
        println!("\nper-stage agreement with the printed rows verified (<1%).");
        println!("trace: {}", path.display());
        banner("Metrics");
        print!("{}", stco_obs::Recorder::global().metrics().markdown());
    }

    // Last, so a failing run still prints every view and leaves the file.
    check_speedup_floor(&speedups).unwrap_or_else(|reason| panic!("{reason}"));
    println!("\nfast-loop speedup >= {MIN_SPEEDUP:.0}x verified on every gated benchmark.");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn floor_gates_only_the_gated_benchmarks() {
        let failing = [(Benchmark::S298, 41.8), (Benchmark::S1488, 19.9)];
        let err = "s1488: fast-loop speedup 19.9x below the 20x floor";
        assert_eq!(check_speedup_floor(&failing), Err(err.to_string()));
        let passing = [
            (Benchmark::S298, 20.0),
            (Benchmark::S1488, 20.0),
            (Benchmark::Darkriscv, 10.5),
        ];
        assert_eq!(check_speedup_floor(&passing), Ok(()));
    }
}
