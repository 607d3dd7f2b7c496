//! CI sweep-smoke gate: exercises the whole `stco-sweep` subsystem on a
//! small grid, asserting each gate where its value is computed.
//!
//! 1. **Real-flow kill/resume leg** — a 2-technology × 1-benchmark ×
//!    2³-corner grid evaluated with [`FlowEval`] (traditional fast
//!    config). A reference run covers the grid uninterrupted; a second
//!    run is killed after 7 scenarios (the engine is dropped), reopened
//!    over the same journal, and finished. The gate: zero recompute and
//!    a bitwise-identical Pareto front.
//! 2. **Remote leg** — the synthetic demo spec served through a
//!    [`SweepQueue`] attached to a live `TcpServer`, drained by two
//!    concurrent workers over the `sweep` extension. The gate: the
//!    server-journaled front bitwise-matches a local engine run.
//! 3. **Ablation leg** — GP-lite BayesOpt vs the ε-greedy Q-learning
//!    agent over every (technology, benchmark) cell of a 5³ synthetic
//!    grid. The gate: BayesOpt reaches the exhaustive grid optimum in
//!    fewer total unique evaluations.
//!
//! Honours `STCO_THREADS` like every other parallel path, so CI runs
//! it at 1 and 4 threads; the fronts must not depend on the choice.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use stco_compact::tech::CornerGrid;
use stco_core::flow::TechnologyStage;
use stco_core::rl::AgentConfig;
use stco_par::ParConfig;
use stco_serve::{BatchConfig, Client, ModelService, TcpServer};
use stco_store::Registry;
use stco_sweep::{
    explorer_ablation, front_fingerprint, pareto_front, run_remote_worker, sweep_status,
    BayesOptConfig, FlowEval, SweepEngine, SweepQueue, SweepSpec, SyntheticEval,
};
use stco_system::bench_gen::Benchmark;
use stco_tcad::materials::Technology;

/// Scenarios the kill/resume leg completes before the simulated kill.
const KILL_AFTER: usize = 7;
/// Concurrent workers draining the remote leg.
const REMOTE_WORKERS: usize = 2;
/// Grid depth of the ablation leg (5³ = 125 corners per cell).
const ABLATION_LEVELS: usize = 5;

/// The real-flow spec: small enough for CI, real enough to exercise the
/// full TCAD → SPICE → cells → system path per scenario. The grid stays
/// away from the default ranges' extremes, whose corners can fail cell
/// characterization — that failure mode has its own tests.
fn flow_spec() -> SweepSpec {
    SweepSpec {
        technologies: vec![Technology::Cnt, Technology::Ltps],
        benchmarks: vec![Benchmark::S298],
        grid: CornerGrid {
            vdd: (2.8, 3.4),
            vth_shift: (-0.05, 0.05),
            cox_scale: (0.95, 1.1),
        },
        levels: 2,
        eval_tag: "traditional-fast-config".to_string(),
    }
}

/// The remote leg's spec: synthetic evaluation, 54 scenarios.
fn remote_spec() -> SweepSpec {
    let mut spec = SweepSpec::demo();
    spec.technologies.truncate(2);
    spec.benchmarks.truncate(1);
    spec.levels = 3;
    spec
}

fn scratch_registry(base: &std::path::Path, leg: &str) -> Registry {
    let dir = base.join(leg);
    let _ = std::fs::remove_dir_all(&dir);
    Registry::open(&dir).expect("open scratch registry")
}

fn main() {
    let t_total = Instant::now();
    let threads = ParConfig::current().threads;
    let base = std::env::var("STCO_STORE_DIR").map_or_else(
        |_| std::env::temp_dir().join(format!("stco-sweep-smoke-{}", std::process::id())),
        PathBuf::from,
    );
    println!(
        "sweep smoke (STCO_THREADS={threads}, scratch {})",
        base.display()
    );

    // 1. Real-flow kill/resume leg.
    let spec = flow_spec();
    let total = spec.scenario_count();
    let eval = FlowEval::new(&spec, TechnologyStage::Traditional, None).expect("build flows");

    let reference = SweepEngine::new(&spec, scratch_registry(&base, "flow-ref"))
        .expect("reference engine")
        .run_sweep(&eval, None)
        .expect("reference sweep");
    assert!(reference.is_complete());
    assert_eq!(reference.executed, total);
    let reference_front = front_fingerprint(&pareto_front(&reference.records));
    let scenarios_per_sec = reference.executed as f64 / reference.seconds.max(1e-9);
    println!(
        "flow leg: {total} scenarios in {:.2} s ({scenarios_per_sec:.2}/s), \
         front {reference_front:016x}",
        reference.seconds
    );

    let killed_dir = base.join("flow-killed");
    let _ = std::fs::remove_dir_all(&killed_dir);
    let before_kill = {
        let engine = SweepEngine::new(&spec, Registry::open(&killed_dir).expect("registry"))
            .expect("killed engine");
        let partial = engine
            .run_sweep(&eval, Some(KILL_AFTER))
            .expect("partial sweep");
        assert_eq!(partial.executed, KILL_AFTER);
        assert!(!partial.is_complete());
        partial.executed
    }; // engine dropped here — the "kill"
    let resumed_run = SweepEngine::new(&spec, Registry::open(&killed_dir).expect("registry"))
        .expect("resumed engine")
        .run_sweep(&eval, None)
        .expect("resumed sweep");
    assert!(resumed_run.is_complete());
    assert_eq!(
        resumed_run.resumed, KILL_AFTER,
        "journal must restore every pre-kill scenario"
    );
    let recomputed = resumed_run.executed - (total - before_kill);
    assert_eq!(
        recomputed, 0,
        "resume must not re-evaluate journaled scenarios"
    );
    let resumed_front = front_fingerprint(&pareto_front(&resumed_run.records));
    assert_eq!(
        resumed_front, reference_front,
        "resumed front must bitwise-match the uninterrupted run"
    );
    println!(
        "kill/resume: {before_kill} before kill, {} resumed + {} executed after, \
         0 recomputed, front bitwise-identical",
        resumed_run.resumed, resumed_run.executed
    );

    // 2. Remote leg: two workers over the `sweep` extension.
    let rspec = remote_spec();
    let local = SweepEngine::new(&rspec, scratch_registry(&base, "remote-local"))
        .expect("local engine")
        .run_sweep(&SyntheticEval, None)
        .expect("local sweep");
    let local_front = front_fingerprint(&pareto_front(&local.records));

    let service = ModelService::start(None, BatchConfig::default());
    let (queue, _) =
        SweepQueue::open(&rspec, scratch_registry(&base, "remote-server")).expect("open queue");
    let server = TcpServer::start("127.0.0.1:0", Arc::clone(&service)).expect("bind server");
    server.attach("sweep", queue.clone());
    let addr = server.addr().to_string();
    let handles: Vec<_> = (0..REMOTE_WORKERS)
        .map(|w| {
            let addr = addr.clone();
            let spec = rspec.clone();
            std::thread::spawn(move || {
                run_remote_worker(&addr, &spec, &SyntheticEval, &format!("smoke-w{w}"), 4)
            })
        })
        .collect();
    let completed: usize = handles
        .into_iter()
        .map(|h| h.join().expect("worker thread").expect("remote worker"))
        .sum();
    assert_eq!(completed, rspec.scenario_count());
    let status =
        sweep_status(&mut Client::connect(&addr).expect("status client")).expect("wire status");
    assert_eq!(status.completed, rspec.scenario_count());
    server.stop();
    service.shutdown();
    let remote_front = front_fingerprint(&pareto_front(&queue.records().expect("records")));
    assert_eq!(
        remote_front, local_front,
        "remote front must bitwise-match the local engine"
    );
    println!(
        "remote leg: {REMOTE_WORKERS} workers completed {completed} scenarios, \
         front bitwise-identical to local"
    );

    // 3. Ablation leg: samples-to-front, BayesOpt vs ε-greedy.
    let ablation = explorer_ablation(
        ABLATION_LEVELS,
        &Technology::ALL,
        &[Benchmark::S298, Benchmark::S386],
        &AgentConfig::default(),
        &BayesOptConfig::default(),
    )
    .expect("ablation");
    assert!(
        ablation.bayes_total < ablation.epsilon_total,
        "BayesOpt must reach the front in fewer samples ({} vs {})",
        ablation.bayes_total,
        ablation.epsilon_total
    );
    println!(
        "ablation: ε-greedy {} vs BayesOpt {} unique evaluations over {} cells",
        ablation.epsilon_total,
        ablation.bayes_total,
        ablation.cells.len()
    );

    if std::env::var("STCO_STORE_DIR").is_err() {
        let _ = std::fs::remove_dir_all(&base);
    }
    println!("done in {:.2} s", t_total.elapsed().as_secs_f64());
}
