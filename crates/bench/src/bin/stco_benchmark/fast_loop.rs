//! The `fast-loop-*` workloads. Set-up cold-trains the Table I surrogate
//! bundle (Poisson emulator, IV predictor, cell model, with the configs
//! of `table1_runtime`) into a fresh registry. After each set-up, one
//! closed-loop caller runs `StcoFlow::run_iteration(Fast)` at seeded
//! corners drawn uniformly from the default `CornerGrid` (LTPS) for its
//! share of the measured window. On s298 the GNN forwards dominate an
//! iteration; on Darkriscv system evaluation does.

use std::time::Instant;

use stco_compact::extract::{extract_parameters, TransferCurve};
use stco_compact::tech::{Corner, CornerGrid, TechnologyCard};
use stco_core::flow::{
    fast_device_solution, predicted_library, FlowConfig, IterationResult, StcoFlow,
    TechnologyStage, TrainedSurrogates,
};
use stco_nn::train::TrainConfig;
use stco_numerics::rng::Xorshift;
use stco_store::{ArtifactKey, Registry};
use stco_surrogate::cell_model::{metric_index, CellModel, CellModelConfig};
use stco_surrogate::iv_predictor::{IvConfig, IvPredictor};
use stco_surrogate::pipeline::build_cell_dataset;
use stco_surrogate::poisson_emulator::{PoissonConfig, PoissonEmulator};
use stco_system::bench_gen::Benchmark;
use stco_tcad::dataset::generate_dataset;
use stco_tcad::device::Bias;
use stco_tcad::materials::{Polarity, Technology};

use crate::replay::{self, ppa_bytes};
use crate::stats::{median, Ledger};
use crate::{stage, BoxResult, Ctx, Outcome, Stages, OP_QUANTILE};

const TECHNOLOGY: Technology = Technology::Ltps;

/// Set-up repetitions; `setup_s` is their median. Each is followed by an
/// equal share of the measured window.
const SETUP_REPS: usize = 3;

/// Iterations the traced run replays layer by layer.
const REPLAYS: usize = 12;

struct Setup {
    flow: StcoFlow,
    config: FlowConfig,
    surrogates: TrainedSurrogates,
}

/// Builds the flow and cold-trains its surrogate bundle into a fresh
/// registry at `dir`.
fn setup(benchmark: Benchmark, dir: &std::path::Path) -> BoxResult<(Setup, Stages)> {
    let mut stages = Vec::new();
    let config = FlowConfig::fast(TECHNOLOGY, benchmark);
    let flow = stage(&mut stages, "setup.flow_build_s", || {
        StcoFlow::new(config.clone())
    })?;
    let data = stage(&mut stages, "setup.dataset_s", || {
        generate_dataset(505, 12, &[TECHNOLOGY])
    })?;
    let (train, val) = data.split_at(10);
    let schedule = TrainConfig {
        epochs: 15,
        batch_size: 2,
        patience: None,
        ..TrainConfig::default()
    };
    let mut poisson = PoissonEmulator::new(PoissonConfig {
        depth: 2,
        heads: 1,
        head_dim: 8,
        ..PoissonConfig::default()
    });
    stage(&mut stages, "setup.train_poisson_s", || {
        poisson.train(train, val, &schedule)
    })?;
    let mut iv = IvPredictor::new(IvConfig {
        depth: 2,
        head_dim: 8,
        mlp_hidden: 12,
        ..IvConfig::default()
    });
    stage(&mut stages, "setup.train_iv_s", || {
        iv.train(train, val, &schedule)
    })?;
    let corners = [Corner::nominal(2.5), Corner::nominal(3.5)];
    let samples = stage(&mut stages, "setup.characterize_s", || {
        build_cell_dataset(
            &TechnologyCard::reference(TECHNOLOGY),
            &corners,
            flow.cells(),
            &config.char_config,
        )
    })?;
    let mut cells = CellModel::new(CellModelConfig::default());
    let cell_schedule = TrainConfig {
        epochs: 25,
        batch_size: 16,
        patience: None,
        ..TrainConfig::default()
    };
    stage(&mut stages, "setup.train_cell_s", || {
        cells.train(&samples, &[], &cell_schedule)
    })?;
    stage(&mut stages, "setup.store_put_s", || -> BoxResult<()> {
        let registry = Registry::open(dir)?;
        for artifact in [poisson.to_artifact(), iv.to_artifact(), cells.to_artifact()] {
            let key = ArtifactKey::from_parts(&artifact.kind, &[benchmark.name(), "table1"]);
            registry.put(key, &artifact)?;
        }
        Ok(())
    })?;
    let setup = Setup {
        flow,
        config,
        surrogates: TrainedSurrogates { poisson, iv, cells },
    };
    Ok((setup, stages))
}

/// A corner drawn uniformly from the default corner grid's ranges.
pub fn draw_corner(rng: &mut Xorshift) -> Corner {
    let grid = CornerGrid::default();
    Corner {
        vdd: rng.uniform_in(grid.vdd.0, grid.vdd.1),
        vth_shift: rng.uniform_in(grid.vth_shift.0, grid.vth_shift.1),
        cox_scale: rng.uniform_in(grid.cox_scale.0, grid.cox_scale.1),
    }
}

struct Iteration {
    corner: Corner,
    seconds: f64,
    result: Option<IterationResult>,
}

fn iterate(s: &Setup, corner: Corner) -> Iteration {
    let t0 = Instant::now();
    let result = s
        .flow
        .run_iteration(corner, TechnologyStage::Fast, Some(&s.surrogates));
    let seconds = t0.elapsed().as_secs_f64();
    if let Err(e) = &result {
        eprintln!("iteration at {corner:?} failed: {e}");
    }
    Iteration {
        corner,
        seconds,
        result: result.ok(),
    }
}

fn ledger(iterations: &[Iteration]) -> Ledger {
    let mut ledger = Ledger::default();
    for it in iterations {
        match it.result {
            Some(_) => ledger.ok(0.0, it.seconds),
            None => ledger.fail(),
        }
    }
    ledger
}

/// Wall seconds and result of every iteration that succeeded.
fn completed(iterations: &[Iteration]) -> Vec<(f64, &IterationResult)> {
    iterations
        .iter()
        .filter_map(|it| it.result.as_ref().map(|r| (it.seconds, r)))
        .collect()
}

/// FNV-1a over the PPA bits of every iteration, in iteration order.
fn fingerprint(iterations: &[Iteration]) -> u64 {
    let mut bytes = Vec::new();
    for it in iterations {
        match &it.result {
            Some(r) => bytes.extend(ppa_bytes(&r.ppa)),
            None => bytes.extend_from_slice(b"failed"),
        }
    }
    stco_store::fnv1a64(&bytes)
}

pub fn run(ctx: &mut Ctx, benchmark: Benchmark) -> BoxResult<Outcome> {
    let mut out = Outcome::default();
    // Set-up and the measured window alternate: each set-up repetition is
    // followed by an equal share of the window, one closed-loop caller on
    // what it set up. The host slows for seconds to tens of seconds at a
    // time; spread over the whole run, the window's first quartile moves
    // only when a slow stretch covers most of the run.
    let reps = if ctx.traced { 1 } else { SETUP_REPS };
    let mut rng = Xorshift::new(ctx.seed);
    let (mut totals, mut iterations) = (Vec::new(), Vec::new());
    let (mut wall, mut grown_kb) = (0.0, 0.0);
    let mut current = None;
    for rep in 0..reps {
        // The previous set-up is torn down outside the timing.
        drop(current.take());
        let (s, seconds, stages) = ctx.setup_once(|dir| setup(benchmark, dir))?;
        totals.push(seconds);
        if rep == 0 {
            ctx.note_setup_memory();
        }
        let rss = crate::memory_kb("VmRSS:");
        let start = Instant::now();
        while start.elapsed().as_secs_f64() < ctx.seconds / reps as f64 {
            iterations.push(iterate(&s, draw_corner(&mut rng)));
        }
        wall += start.elapsed().as_secs_f64();
        grown_kb += crate::memory_kb("VmRSS:") - rss;
        current = Some((s, stages));
    }
    let (s, stages) = current.expect("set-up ran at least once");
    out.setup(&totals, &stages);
    println!(
        "setup: {} cells, {} rep(s), median {:.3} s",
        s.flow.cells().len(),
        totals.len(),
        median(&totals)
    );
    out.per_layer
        .push(crate::rss_growth(grown_kb, iterations.len() as u64));
    let measured = ledger(&iterations);
    let ok_count = measured.attempted() - measured.failed();
    out.count(measured.attempted(), measured.failed());
    out.ops(
        measured.quantile(OP_QUANTILE),
        &measured,
        ok_count as f64 / wall,
    );
    let print = fingerprint(&iterations);
    println!(
        "loop: {} iterations in {wall:.2} s, PPA fingerprint {print:016x}",
        iterations.len()
    );
    out.check(
        "every iteration's PPA is finite and positive",
        iterations.iter().all(|it| {
            it.result
                .as_ref()
                .is_some_and(|r| replay::ppa_is_sane(&r.ppa))
        }),
    );

    if !ctx.traced {
        // Iterations re-run at their corners must reproduce their PPA. The
        // first ran on the first set-up, so this also checks that set-up
        // repeats bitwise.
        let n = iterations.len();
        let mut picks = vec![0, n / 2, n.saturating_sub(1)];
        picks.dedup();
        let same = picks.iter().filter(|&&i| i < n).all(|&i| {
            let again = iterate(&s, iterations[i].corner);
            fingerprint(std::slice::from_ref(&iterations[i])) == fingerprint(&[again])
        });
        out.check("re-run iterations reproduce their PPA bitwise", same);
        return Ok(out);
    }

    // The traced run repeats the same corners under spans.
    let root = ctx.trace.begin("fast_loop", None);
    let mut traced = Vec::with_capacity(iterations.len());
    for it in &iterations {
        let begin = ctx.trace.now();
        let again = iterate(&s, it.corner);
        let id = ctx
            .trace
            .record("iteration", Some(root), begin, begin + again.seconds);
        if let Some(r) = &again.result {
            ctx.trace.record_stages(id, begin, &stage_seconds(r));
        }
        traced.push(again);
    }
    ctx.trace.end(root);
    let traced_print = fingerprint(&traced);
    out.check(
        format!("traced PPA fingerprint {traced_print:016x} equals the untraced one"),
        traced_print == print,
    );
    core_layers(&mut out, &completed(&traced));
    out.per_layer.push((
        "trace.overhead_ms",
        (ledger(&traced).quantile(OP_QUANTILE) - measured.quantile(OP_QUANTILE)) * 1e3,
    ));
    replay_layers(ctx, &mut out, &s, &traced)?;
    Ok(out)
}

/// The stages `run_iteration` reports, as span names and seconds.
pub fn stage_seconds(r: &IterationResult) -> [(&'static str, f64); 4] {
    [
        ("device", r.seconds.device),
        ("compact", r.seconds.compact),
        ("cells", r.seconds.cells),
        ("system", r.seconds.system),
    ]
}

/// `core.*`: per-stage medians from the iterations' own stage timers,
/// the unattributed remainder, and `coverage = Σstages / Σwall`.
pub fn core_layers(out: &mut Outcome, iterations: &[(f64, &IterationResult)]) {
    let col = |f: fn(&IterationResult) -> f64| -> f64 {
        median(&iterations.iter().map(|(_, r)| f(r)).collect::<Vec<_>>()) * 1e3
    };
    out.per_layer.extend([
        ("core.device_ms", col(|r| r.seconds.device)),
        ("core.compact_ms", col(|r| r.seconds.compact)),
        ("core.cells_ms", col(|r| r.seconds.cells)),
        ("core.system_ms", col(|r| r.seconds.system)),
    ]);
    let gaps: Vec<f64> = iterations
        .iter()
        .map(|(wall, r)| wall - r.seconds.total())
        .collect();
    let staged: f64 = iterations.iter().map(|(_, r)| r.seconds.total()).sum();
    let wall: f64 = iterations.iter().map(|(w, _)| w).sum();
    out.per_layer.extend([
        ("core.unattributed_ms", median(&gaps) * 1e3),
        ("core.coverage", staged / wall),
    ]);
}

/// Replays evenly spaced traced iterations through the public calls
/// each stage makes, checks every replay bitwise against its iteration,
/// and reports the surrogate, compact and system layers.
fn replay_layers(
    ctx: &mut Ctx,
    out: &mut Outcome,
    s: &Setup,
    traced: &[Iteration],
) -> BoxResult<()> {
    let done = completed(traced);
    let model = &s.surrogates;
    let base = TechnologyCard::reference(TECHNOLOGY);
    let m_timing = [
        metric_index("delay").expect("known metric"),
        metric_index("output_slew").expect("known metric"),
    ];
    let (mut solve, mut poisson, mut iv, mut extract, mut cell) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut system = Vec::new();
    let (mut extractions_match, mut ppa_match) = (true, true);
    let mut gates_per_iter = 0;
    let picks = REPLAYS.min(done.len());
    let root = ctx.trace.begin("replay", None);
    for k in 0..picks {
        let it = &traced[k * traced.len() / picks];
        let Some(r) = &it.result else { continue };
        let corner = it.corner;
        let one = ctx.trace.begin("iteration", Some(root));

        let device = ctx.trace.begin("device", Some(one));
        let spec = s.flow.device_at(corner);
        let (gates, vd) = s.flow.gate_sweep(corner);
        gates_per_iter = gates.len();
        let mut points = Vec::with_capacity(gates.len());
        for &gate in &gates {
            let bias = Bias { gate, drain: vd };
            let (sample, t) = ctx.trace.timed("surrogate.device_solve", Some(device), || {
                fast_device_solution(&spec, bias, &model.poisson)
            });
            let sample = sample?;
            solve.push(t);
            let (current, t) = ctx.trace.timed("surrogate.iv_forward", Some(device), || {
                model.iv.predict_current(&sample)
            });
            iv.push(t);
            points.push((gate, spec.channel.polarity.sign() * current));
            // One more forward on the solved sample, outside the stage
            // sequence: the per-call cost of the emulator itself.
            let t0 = Instant::now();
            std::hint::black_box(model.poisson.predict(&sample));
            poisson.push(t0.elapsed().as_secs_f64());
        }
        ctx.trace.end(device);

        let template = match spec.channel.polarity {
            Polarity::NType => base.nfet.clone(),
            Polarity::PType => base.pfet.clone(),
        };
        let curve = TransferCurve {
            vgs: points.iter().map(|p| p.0).collect(),
            vds: vd,
            id: points.iter().map(|p| p.1).collect(),
        };
        let (fit, t) = ctx.trace.timed("compact.extract", Some(one), || {
            extract_parameters(&template, &[curve])
        });
        let fit = fit?;
        extract.push(t);
        let extracted = (fit.model.mu0, fit.model.vth, fit.model.gamma);
        extractions_match &= [extracted.0, extracted.1, extracted.2].map(f64::to_bits)
            == [r.extracted.0, r.extracted.1, r.extracted.2].map(f64::to_bits);

        let card = replay::card_from_extraction(TECHNOLOGY, corner, extracted);
        let (library, _) = ctx.trace.timed("cells", Some(one), || {
            predicted_library(s.flow.cells(), &card, &model.cells, &s.config.char_config)
        });
        for c in s.flow.cells() {
            let graph = replay::cell_graph(c, &card, 10.0e-15);
            let t0 = Instant::now();
            std::hint::black_box(model.cells.predict_many(&graph, &m_timing));
            cell.push(t0.elapsed().as_secs_f64());
        }

        let span = ctx.trace.begin("system", Some(one));
        let (reports, layers) = replay::replay_system(
            &mut ctx.trace,
            span,
            s.flow.logic(),
            &library,
            &s.config.eval,
        )?;
        ctx.trace.end(span);
        ppa_match &= reports.iter().all(|p| ppa_bytes(p) == ppa_bytes(&r.ppa));
        system.push(layers);
        ctx.trace.end(one);
    }
    ctx.trace.end(root);
    out.check(
        "replayed device + compact stages reproduce each iteration's extraction bitwise",
        extractions_match,
    );
    out.check(
        "replayed system evaluation reproduces each iteration's PPA bitwise",
        ppa_match,
    );

    let us = |v: &[f64]| median(v) * 1e6;
    let cfg = &s.config.char_config;
    let cell_calls = s.flow.cells().len() * (cfg.slews.len().max(2) * cfg.loads.len().max(2) + 1);
    out.per_layer.extend([
        ("surrogate.device_solve_us", us(&solve)),
        ("surrogate.device_solves_per_iter", gates_per_iter as f64),
        ("surrogate.poisson_forward_us", us(&poisson)),
        ("surrogate.iv_forward_us", us(&iv)),
        ("surrogate.iv_forwards_per_iter", gates_per_iter as f64),
        ("surrogate.cell_forward_us", us(&cell)),
        ("surrogate.cell_forwards_per_iter", cell_calls as f64),
        ("compact.extract_ms", median(&extract) * 1e3),
    ]);
    system_layers(out, &system);
    Ok(())
}

/// `system.*`: per-layer medians of the replays, and their sum over the
/// median of the whole `evaluate_system` calls they replay.
pub fn system_layers(out: &mut Outcome, replays: &[replay::SystemLayers]) {
    let ms = |f: fn(&replay::SystemLayers) -> f64| {
        median(&replays.iter().map(f).collect::<Vec<_>>()) * 1e3
    };
    let layers = [
        ("system.map_ms", ms(|l| l.map)),
        ("system.place_ms", ms(|l| l.place)),
        ("system.verify_ms", ms(|l| l.verify)),
        ("system.sta_ms", ms(|l| l.sta)),
        ("system.power_ms", ms(|l| l.power)),
    ];
    out.per_layer.extend(layers);
    out.per_layer.push((
        "system.coverage",
        layers.iter().map(|l| l.1).sum::<f64>() / ms(|l| l.whole),
    ));
}
