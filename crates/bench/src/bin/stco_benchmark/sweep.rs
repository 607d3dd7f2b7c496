//! The `sweep-traditional` workload: `SweepEngine` with
//! `FlowEval(Traditional)` (TCAD Newton + SPICE characterization per
//! scenario) over CNT × s298 × a 2-level grid over `sweep_smoke`'s corner
//! box, one fresh journal per pass, passes repeated for the measured
//! window after an untimed warm-up pass, then a resume pass over the last
//! journal. It is the only workload that shards independent scenarios
//! across the stco-par pool and writes to the store. Its gated time is a
//! scenario's turnaround on its worker, which covers both: for each
//! scenario the median of the run's passes, averaged over all the
//! scenarios. The host's speed drifts by 10–35% from one pass to the
//! next, so the more passes a run holds, the steadier each scenario's
//! median: one technology makes a pass ~3 s and a 20 s run 6–7 passes,
//! where CNT + LTPS made a pass ~5 s.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Mutex;
use std::thread::ThreadId;
use std::time::Instant;

use stco_cells::liberty::Library;
use stco_compact::tech::CornerGrid;
use stco_core::flow::{FlowConfig, IterationResult, StcoFlow, TechnologyStage};
use stco_store::Registry;
use stco_sweep::{
    front_fingerprint, pareto_front, result_from_ppa, FlowEval, Scenario, ScenarioEval,
    ScenarioResult, SweepEngine, SweepJournal, SweepOutcome, SweepSpec,
};
use stco_system::bench_gen::Benchmark;
use stco_tcad::materials::Technology;

use crate::fast_loop::{core_layers, stage_seconds, system_layers};
use crate::replay::{self, ppa_bytes};
use crate::stats::{median, Ledger};
use crate::{stage, BoxResult, Ctx, Outcome};

const TECHNOLOGIES: [Technology; 1] = [Technology::Cnt];
const BENCHMARK: Benchmark = Benchmark::S298;
const LEVELS: usize = 2;
/// `sweep_smoke`'s corner box. The default grid's extreme corners fail
/// characterization (`NAND4: output Y did not switch`). The box is the
/// same in every run because a scenario's cost is an irregular function
/// of its corner: moving `cox_scale` from 1.05 to 1.04 took one LTPS
/// scenario from 326 to 863 ms, so a seeded box would make the gated
/// time follow the seed.
const GRID: CornerGrid = CornerGrid {
    vdd: (2.8, 3.4),
    vth_shift: (-0.05, 0.05),
    cox_scale: (0.95, 1.1),
};
const EVAL_TAG: &str = "traditional-fast-config";
/// Seconds the set-up repeats for (~0.3 ms each, so ~10 000 times).
const SETUP_SECONDS: f64 = 3.0;
/// Scenarios of the traced run replayed layer by layer.
const REPLAYS: usize = 2;

/// The sweep of one run. The seed names it: its eval tag, hence every
/// scenario id and journal key. It changes nothing else, because what
/// runs beside what on the two workers changes a scenario's turnaround:
/// with CNT and LTPS in seeded order, the runs that put LTPS first read
/// 3–10% slower.
fn spec(seed: u64) -> SweepSpec {
    SweepSpec {
        technologies: TECHNOLOGIES.to_vec(),
        benchmarks: vec![BENCHMARK],
        grid: GRID,
        levels: LEVELS,
        eval_tag: format!("{EVAL_TAG}-{seed}"),
    }
}

/// One evaluation of a pass: its worker, when the worker entered it, its
/// seconds, and the scenario's index.
type Entry<K> = (K, f64, f64, usize);

/// Every scenario's turnaround on its worker in one pass, from the
/// entries in completion order (which keeps each worker's own order).
/// A turnaround runs to the worker's next entry, so it covers the
/// evaluation, the journal write after it and the pool handing out the
/// next scenario. A worker's last scenario has no next entry; its
/// turnaround is its evaluation plus the median of what the pass's other
/// turnarounds spent outside their evaluations. Every scenario counts in
/// every pass: which ones end a worker's pass depends on timing, and when
/// they were left out, a run's statistic moved with which scenarios it
/// happened to hold.
fn turnarounds<K: PartialEq>(entries: &[Entry<K>]) -> Vec<(usize, f64)> {
    let next: Vec<Option<f64>> = entries
        .iter()
        .enumerate()
        .map(|(i, (worker, ..))| {
            entries[i + 1..]
                .iter()
                .find(|(w, ..)| w == worker)
                .map(|e| e.1)
        })
        .collect();
    let outside: Vec<f64> = entries
        .iter()
        .zip(&next)
        .filter_map(|((_, entered, seconds, _), next)| next.map(|n| n - entered - seconds))
        .collect();
    let outside = if outside.is_empty() {
        0.0
    } else {
        median(&outside)
    };
    entries
        .iter()
        .zip(&next)
        .map(|((_, entered, seconds, scenario), next)| {
            (*scenario, next.map_or(seconds + outside, |n| n - entered))
        })
        .collect()
}

/// Each scenario's turnarounds over the passes so far.
#[derive(Default)]
struct PerScenario(BTreeMap<usize, Vec<f64>>);

impl PerScenario {
    fn add(&mut self, turnarounds: &[(usize, f64)]) {
        for &(scenario, seconds) in turnarounds {
            self.0.entry(scenario).or_default().push(seconds);
        }
    }

    /// Each scenario's median turnaround, averaged over the scenarios,
    /// seconds. The fastest of a few passes hangs on the one pass that
    /// caught the host at its quickest; the median needs half of them
    /// (README.md, "Why the sweep's statistic differs").
    fn mean_of_medians(&self) -> f64 {
        self.0.values().map(|t| median(t)).sum::<f64>() / self.0.len() as f64
    }
}

/// Notes which scenario each worker enters, when, and for how long, in
/// order per worker.
struct Timed<'a> {
    inner: &'a FlowEval,
    origin: Instant,
    entries: Mutex<Vec<Entry<ThreadId>>>,
}

impl ScenarioEval for Timed<'_> {
    fn evaluate(&self, scenario: &Scenario) -> stco_sweep::Result<ScenarioResult> {
        let entered = self.origin.elapsed().as_secs_f64();
        let result = self.inner.evaluate(scenario)?;
        let seconds = self.origin.elapsed().as_secs_f64() - entered;
        self.entries
            .lock()
            .expect("no evaluation panics while holding the lock")
            .push((
                std::thread::current().id(),
                entered,
                seconds,
                scenario.index,
            ));
        Ok(result)
    }
}

/// One scenario as the traced evaluator saw it.
struct Run {
    scenario: Scenario,
    worker: ThreadId,
    start: f64,
    end: f64,
    result: IterationResult,
}

/// The traced evaluator: what `FlowEval` does, through
/// `StcoFlow::run_iteration` directly, keeping each iteration's stage
/// seconds and extraction for the per-layer breakdown.
struct Traced {
    flows: Vec<(Technology, StcoFlow)>,
    origin: Instant,
    runs: Mutex<Vec<Run>>,
}

fn flow_for(flows: &[(Technology, StcoFlow)], technology: Technology) -> &StcoFlow {
    flows
        .iter()
        .find(|(t, _)| *t == technology)
        .map(|(_, flow)| flow)
        .expect("one flow per swept technology")
}

impl ScenarioEval for Traced {
    fn evaluate(&self, scenario: &Scenario) -> stco_sweep::Result<ScenarioResult> {
        let flow = flow_for(&self.flows, scenario.technology);
        let start = self.origin.elapsed().as_secs_f64();
        let result = flow.run_iteration(scenario.corner, TechnologyStage::Traditional, None)?;
        let end = self.origin.elapsed().as_secs_f64();
        let objectives = result_from_ppa(&result.ppa);
        self.runs
            .lock()
            .expect("no evaluation panics while holding the lock")
            .push(Run {
                scenario: scenario.clone(),
                worker: std::thread::current().id(),
                start,
                end,
                result,
            });
        Ok(objectives)
    }
}

/// Opens an engine over a fresh journal at `dir` and runs the sweep.
fn pass(eval: &dyn ScenarioEval, spec: &SweepSpec, dir: &Path) -> BoxResult<(SweepOutcome, f64)> {
    let t0 = Instant::now();
    let outcome = SweepEngine::new(spec, Registry::open(dir)?)?.run_sweep(eval, None)?;
    Ok((outcome, t0.elapsed().as_secs_f64()))
}

fn front(outcome: &SweepOutcome) -> u64 {
    front_fingerprint(&pareto_front(&outcome.records))
}

pub fn run(ctx: &mut Ctx) -> BoxResult<Outcome> {
    let mut out = Outcome::default();
    let spec = spec(ctx.seed);
    let (eval, totals, stages) = ctx.repeat_setup(3, SETUP_SECONDS, |dir| {
        let mut stages = Vec::new();
        let eval = stage(&mut stages, "setup.flow_build_s", || {
            FlowEval::new(&spec, TechnologyStage::Traditional, None)
        })?;
        stage(&mut stages, "setup.journal_open_s", || -> BoxResult<_> {
            Ok(SweepEngine::new(&spec, Registry::open(dir)?)?)
        })?;
        Ok((eval, stages))
    })?;
    out.setup(&totals, &stages);

    // One pass before the window, untimed: a run's first pass read 5–12%
    // slower than its later ones. The window's memory growth counts from
    // after it.
    let warmup_dir = ctx.scratch_dir("warmup");
    let (warmup, _) = pass(&eval, &spec, &warmup_dir)?;
    let warmup_front = front(&warmup);
    let _ = std::fs::remove_dir_all(warmup_dir);
    ctx.setup_rss_kb = crate::memory_kb("VmRSS:");

    // Measured window: whole passes, each into a fresh journal, until the
    // window is spent.
    let timed = Timed {
        inner: &eval,
        origin: Instant::now(),
        entries: Mutex::new(Vec::new()),
    };
    let mut fronts = Vec::new();
    let (mut evaluated, mut executed, mut pass_wall) = (0usize, 0usize, 0.0);
    let mut ledger = Ledger::default();
    let mut per_scenario = PerScenario::default();
    let mut last_dir = None;
    let mut finite = true;
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < ctx.seconds {
        let dir = ctx.scratch_dir(&format!("pass-{}", fronts.len()));
        let result = pass(&timed, &spec, &dir);
        let entries = std::mem::take(&mut *timed.entries.lock().expect("the pass is done"));
        evaluated += entries.len();
        let pass_turnarounds = turnarounds(&entries);
        for &(_, t) in &pass_turnarounds {
            ledger.ok(0.0, t);
        }
        per_scenario.add(&pass_turnarounds);
        match result {
            Ok((outcome, wall)) => {
                println!(
                    "pass {}: {} scenarios in {wall:.3} s",
                    fronts.len(),
                    outcome.executed
                );
                executed += outcome.executed;
                pass_wall += wall;
                finite &= outcome
                    .records
                    .iter()
                    .all(|(_, r)| r.to_values().iter().all(|v| v.is_finite()) && r.delay > 0.0);
                fronts.push(front(&outcome));
            }
            Err(e) => {
                // The engine stops a pass at its first failing scenario;
                // every scenario it did not evaluate counts as failed.
                eprintln!("pass {} failed: {e}", fronts.len());
                for _ in entries.len()..spec.scenario_count() {
                    ledger.fail();
                }
                fronts.push(0);
            }
        }
        if let Some(previous) = last_dir.replace(dir) {
            let _ = std::fs::remove_dir_all(previous);
        }
    }
    out.per_layer.push(ctx.rss_growth(executed as u64));
    out.check("every pass evaluates finite objectives", finite);
    out.check(
        "every pass over the same sweep yields the same Pareto front",
        fronts.iter().all(|f| *f == warmup_front),
    );
    out.count(evaluated as u64 + ledger.failed(), ledger.failed());
    out.ops(
        per_scenario.mean_of_medians(),
        &ledger,
        executed as f64 / pass_wall,
    );
    println!(
        "sweep: {} passes, {executed} scenarios in {pass_wall:.2} s",
        fronts.len()
    );
    let last_dir = last_dir.expect("one pass ran");
    let (resumed, _) = pass(&eval, &spec, &last_dir)?;
    out.check(
        "a resume pass over the last journal recomputes 0 scenarios and restores its front bitwise",
        resumed.executed == 0
            && resumed.resumed == spec.scenario_count()
            && Some(&front(&resumed)) == fronts.last(),
    );
    if !ctx.traced {
        return Ok(out);
    }

    // The traced run repeats the same passes through the traced evaluator.
    let traced = Traced {
        flows: spec
            .technologies
            .iter()
            .map(|&t| Ok((t, StcoFlow::new(FlowConfig::fast(t, BENCHMARK))?)))
            .collect::<BoxResult<_>>()?,
        origin: ctx.trace.origin(),
        runs: Mutex::new(Vec::new()),
    };
    let records = stco_obs::Recorder::global()
        .metrics()
        .counter("sweep.records_written");
    let records_before = records.get();
    let mut traced_wall = 0.0;
    let mut traced_per_scenario = PerScenario::default();
    let mut fronts_match = true;
    let mut last_outcome = None;
    for (k, untraced_front) in fronts.iter().enumerate() {
        let dir = ctx.scratch_dir(&format!("traced-{k}"));
        let begin = ctx.trace.now();
        let (outcome, wall) = pass(&traced, &spec, &dir)?;
        traced_wall += wall;
        fronts_match &= front(&outcome) == *untraced_front;
        let id = ctx.trace.record("sweep_pass", None, begin, begin + wall);
        let runs = traced.runs.lock().expect("the pass is done");
        let mut entries = Vec::new();
        for run in runs.iter().filter(|r| r.start >= begin) {
            let span = ctx.trace.record("scenario", Some(id), run.start, run.end);
            ctx.trace
                .record_stages(span, run.start, &stage_seconds(&run.result));
            entries.push((
                run.worker,
                run.start,
                run.end - run.start,
                run.scenario.index,
            ));
        }
        drop(runs);
        // Completion order keeps each worker's entry order.
        traced_per_scenario.add(&turnarounds(&entries));
        last_outcome = Some((outcome, dir));
    }
    let records_written = records.get() - records_before;
    out.check(
        "the traced evaluator's fronts equal FlowEval's, pass by pass",
        fronts_match,
    );
    let (last_outcome, last_dir) = last_outcome.expect("one pass ran");
    let (resumed, resume_ms) = ctx
        .trace
        .timed("resume_pass", None, || pass(&traced, &spec, &last_dir));
    out.check(
        "the traced resume pass recomputes 0 scenarios",
        resumed?.0.executed == 0,
    );

    let runs = traced.runs.into_inner().expect("the passes are done");
    let done: Vec<(f64, &IterationResult)> =
        runs.iter().map(|r| (r.end - r.start, &r.result)).collect();
    core_layers(&mut out, &done);
    let threads = stco_par::ParConfig::current().threads as f64;
    let busy: f64 = done.iter().map(|d| d.0).sum();
    out.per_layer.extend([
        ("sweep.pool_busy_share", busy / (traced_wall * threads)),
        ("sweep.resume_ms", resume_ms * 1e3),
        ("sweep.records_written", records_written as f64),
        (
            "trace.overhead_ms",
            (traced_per_scenario.mean_of_medians() - per_scenario.mean_of_medians()) * 1e3,
        ),
    ]);
    journal_layers(ctx, &mut out, &last_outcome.records)?;
    replay_layers(ctx, &mut out, &traced.flows, &runs)?;
    Ok(out)
}

/// `store.*`: replays the journal writes and reads of the last pass into
/// a scratch journal, one record at a time.
fn journal_layers(
    ctx: &mut Ctx,
    out: &mut Outcome,
    records: &[(Scenario, ScenarioResult)],
) -> BoxResult<()> {
    let journal = SweepJournal::open(Registry::open(&ctx.scratch_dir("journal-replay"))?);
    let root = ctx.trace.begin("journal_replay", None);
    let mut put = Vec::with_capacity(records.len());
    for (scenario, result) in records {
        let (res, t) = ctx.trace.timed("store.journal_put", Some(root), || {
            journal.record_scenario(scenario, result)
        });
        res?;
        put.push(t);
    }
    let mut load = Vec::with_capacity(records.len());
    let mut same = true;
    for (scenario, result) in records {
        let (res, t) = ctx.trace.timed("store.journal_load", Some(root), || {
            journal.load_scenario(scenario)
        });
        same &= res?.is_some_and(|r| {
            r.to_values().map(f64::to_bits) == result.to_values().map(f64::to_bits)
        });
        load.push(t);
    }
    ctx.trace.end(root);
    out.check("replayed journal records load back bitwise", same);
    out.per_layer.extend([
        ("store.journal_put_ms", median(&put) * 1e3),
        ("store.journal_load_ms", median(&load) * 1e3),
    ]);
    Ok(())
}

/// Replays the later stages of a few traced scenarios: SPICE
/// characterization of the extracted card, then system evaluation layer
/// by layer, checked bitwise against the scenario's PPA.
fn replay_layers(
    ctx: &mut Ctx,
    out: &mut Outcome,
    flows: &[(Technology, StcoFlow)],
    runs: &[Run],
) -> BoxResult<()> {
    let root = ctx.trace.begin("replay", None);
    let mut system = Vec::new();
    let mut same = true;
    for k in 0..REPLAYS.min(runs.len()) {
        let run = &runs[k * runs.len() / REPLAYS.min(runs.len())];
        let technology = run.scenario.technology;
        let flow = flow_for(flows, technology);
        let config = FlowConfig::fast(technology, BENCHMARK);
        let one = ctx.trace.begin("scenario", Some(root));
        let card =
            replay::card_from_extraction(technology, run.scenario.corner, run.result.extracted);
        let (library, _) = ctx.trace.timed("cells", Some(one), || {
            Library::characterize_subset(&card, &config.char_config, flow.cells())
        });
        let span = ctx.trace.begin("system", Some(one));
        let (reports, layers) =
            replay::replay_system(&mut ctx.trace, span, flow.logic(), &library?, &config.eval)?;
        ctx.trace.end(span);
        same &= reports
            .iter()
            .all(|p| ppa_bytes(p) == ppa_bytes(&run.result.ppa));
        system.push(layers);
        ctx.trace.end(one);
    }
    ctx.trace.end(root);
    out.check(
        "replayed characterization + system evaluation reproduce each scenario's PPA bitwise",
        same,
    );
    system_layers(out, &system);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::{turnarounds, PerScenario};

    #[test]
    fn a_turnaround_runs_to_the_same_workers_next_entry() {
        // Worker 1 enters scenarios 0, 3 and 4 at 0, 4 and 9 s, worker 2
        // scenarios 1 and 2 at 1 and 3 s; each entry also holds its
        // evaluation's seconds. Listed in completion order, which keeps
        // each worker's own order. The turnarounds that reach a next
        // entry spent 0.5, 0.5 and 1 s outside their evaluations, so each
        // worker's last scenario gets its evaluation plus 0.5 s.
        let entries = [
            (2, 1.0, 1.5, 1),
            (1, 0.0, 3.5, 0),
            (2, 3.0, 2.5, 2),
            (1, 4.0, 4.0, 3),
            (1, 9.0, 2.0, 4),
        ];
        assert_eq!(
            turnarounds(&entries),
            [(1, 2.0), (0, 4.0), (2, 3.0), (3, 5.0), (4, 2.5)]
        );
        assert!(turnarounds::<u8>(&[]).is_empty());
        // A pass of one scenario per worker has nothing to go by: the
        // evaluations alone.
        assert_eq!(
            turnarounds(&[(1, 0.0, 2.0, 0), (2, 0.0, 3.0, 1)]),
            [(0, 2.0), (1, 3.0)]
        );
    }

    #[test]
    fn each_scenario_counts_with_its_median_pass() {
        let mut per_scenario = PerScenario::default();
        per_scenario.add(&[(0, 4.0), (1, 2.0)]);
        per_scenario.add(&[(0, 3.0), (1, 5.0), (3, 1.0)]);
        per_scenario.add(&[(0, 9.0), (1, 3.0)]);
        assert_eq!(per_scenario.mean_of_medians(), (4.0 + 3.0 + 1.0) / 3.0);
    }
}
