//! Kill-and-resume determinism: a sweep killed mid-grid and resumed
//! from its journal must produce a bitwise-identical Pareto front with
//! zero recompute — at every thread count.
//!
//! `set_global_threads` is process-global, so both thread counts run
//! sequentially inside ONE test function (separate #[test] fns would
//! race on the override).

use stco_store::Registry;
use stco_sweep::{front_fingerprint, pareto_front, Result, SweepEngine, SweepSpec, SyntheticEval};

/// A fresh registry and its directory, for the test to remove.
fn temp_registry(tag: &str) -> (Registry, std::path::PathBuf) {
    let dir = std::env::temp_dir().join(format!("stco-sweep-resume-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    (Registry::open(&dir).expect("temp registry"), dir)
}

fn spec() -> SweepSpec {
    let mut spec = SweepSpec::demo();
    spec.benchmarks.truncate(1);
    spec.levels = 3; // 3 technologies × 1 benchmark × 27 corners = 81
    spec
}

#[test]
fn killed_sweep_resumes_bitwise_identical_at_one_and_four_threads() -> Result<()> {
    let spec = spec();
    let eval = SyntheticEval;
    let total = spec.scenario_count();
    let kill_after = 30;
    let mut fingerprints = Vec::new();

    for threads in [1usize, 4] {
        stco_par::set_global_threads(threads);

        // Reference: one uninterrupted run.
        let (registry, reference_dir) = temp_registry(&format!("ref{threads}"));
        let reference = SweepEngine::new(&spec, registry)?.run_sweep(&eval, None)?;
        let _ = std::fs::remove_dir_all(&reference_dir);
        assert!(reference.is_complete());
        assert_eq!(reference.executed, total);
        assert_eq!(reference.resumed, 0);
        let reference_front = front_fingerprint(&pareto_front(&reference.records));

        // Killed run: stop after `kill_after` scenarios, drop the
        // engine (the kill), reopen over the same journal, finish.
        let dir = std::env::temp_dir().join(format!(
            "stco-sweep-resume-killed{threads}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let engine = SweepEngine::new(&spec, Registry::open(&dir).expect("registry"))?;
            let partial = engine.run_sweep(&eval, Some(kill_after))?;
            assert_eq!(partial.executed, kill_after);
            assert_eq!(partial.resumed, 0);
            assert_eq!(partial.remaining, total - kill_after);
            assert!(!partial.is_complete());
        } // engine dropped here — the "kill"

        let engine = SweepEngine::new(&spec, Registry::open(&dir).expect("registry"))?;
        let resumed = engine.run_sweep(&eval, None)?;
        // Zero recompute: every pre-kill scenario came from the journal.
        assert_eq!(resumed.resumed, kill_after);
        assert_eq!(resumed.executed, total - kill_after);
        assert!(resumed.is_complete());

        drop(engine);
        let _ = std::fs::remove_dir_all(&dir);

        let resumed_front = front_fingerprint(&pareto_front(&resumed.records));
        assert_eq!(
            resumed_front, reference_front,
            "resumed front differs from uninterrupted front at {threads} threads"
        );
        fingerprints.push(reference_front);
    }
    stco_par::set_global_threads(0);

    // Cross-thread-count identity: 1-thread and 4-thread fronts match
    // bitwise.
    assert_eq!(fingerprints[0], fingerprints[1]);
    Ok(())
}

#[test]
fn limit_zero_executes_nothing_and_loses_nothing() -> Result<()> {
    let spec = spec();
    let (registry, dir) = temp_registry("limit0");
    let engine = SweepEngine::new(&spec, registry)?;
    let outcome = engine.run_sweep(&SyntheticEval, Some(0))?;
    assert_eq!(outcome.executed, 0);
    assert_eq!(outcome.remaining, spec.scenario_count());
    assert!(outcome.records.is_empty());
    drop(engine);
    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}
