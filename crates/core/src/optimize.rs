//! The end-to-end optimization driver: the RL agent exploring real STCO
//! iterations, optionally pre-screened by the system-evaluation surrogate
//! (the paper's anticipated "AI-driven system evaluation" extension).
//!
//! Two drivers are provided:
//!
//! * [`explore_with_flow`] — every corner the agent visits runs a real
//!   (fast or traditional) STCO iteration; evaluations are memoized by
//!   the agent, so the number of expensive runs equals the number of
//!   distinct corners visited.
//! * [`explore_with_prescreen_cached`] — a [`SystemSurrogate`] is
//!   bootstrapped from a few real evaluations (or loaded from a
//!   registry), the agent then explores on surrogate costs, and only the
//!   shortlist of best surrogate corners is re-evaluated for real —
//!   cutting full evaluations further.

use stco_compact::tech::Corner;

use crate::flow::{IterationResult, StcoFlow, TechnologyStage, TrainedSurrogates};
use crate::rl::{q_learning_explore, AgentConfig, ExplorationResult};
use crate::space::DesignSpace;
use crate::sys_surrogate::{EvalRecord, SystemSurrogate};
use crate::Result;

/// Outcome of a flow-backed exploration.
#[derive(Debug)]
pub struct OptimizeOutcome {
    /// The agent's exploration result (costs are PPA log-costs).
    pub exploration: ExplorationResult,
    /// The full iteration result at the best corner.
    pub best_iteration: IterationResult,
    /// Real STCO iterations executed.
    pub real_evaluations: usize,
    /// Prescreen-surrogate artifact-cache hits (0 or 1 per run; always
    /// 0 for [`explore_with_flow`] and uncached prescreen runs).
    pub cache_hits: usize,
    /// Cache probes that missed and forced a bootstrap+train (always 0
    /// when no registry was supplied — no probe happened at all).
    pub cache_misses: usize,
}

/// Runs the RL agent over real STCO iterations.
///
/// # Errors
///
/// Propagates flow failures (the first failing corner aborts the run).
pub fn explore_with_flow(
    flow: &StcoFlow,
    space: &DesignSpace,
    agent: &AgentConfig,
    stage: TechnologyStage,
    surrogates: Option<&TrainedSurrogates>,
) -> Result<OptimizeOutcome> {
    let mut failure: Option<crate::StcoError> = None;
    let mut count = 0usize;
    let exploration = q_learning_explore(space, agent, |corner| {
        if failure.is_some() {
            return f64::INFINITY;
        }
        match flow.run_iteration(corner, stage, surrogates) {
            Ok(result) => {
                count += 1;
                result.ppa.cost()
            }
            Err(e) => {
                failure = Some(e);
                f64::INFINITY
            }
        }
    });
    if let Some(e) = failure {
        return Err(e);
    }
    let best_iteration = flow.run_iteration(exploration.best_corner, stage, surrogates)?;
    Ok(OptimizeOutcome {
        exploration,
        best_iteration,
        real_evaluations: count,
        cache_hits: 0,
        cache_misses: 0,
    })
}

/// Configuration of the surrogate-prescreened driver.
#[derive(Debug, Clone, Copy)]
pub struct PrescreenConfig {
    /// Real evaluations used to bootstrap the PPA surrogate.
    pub bootstrap_evaluations: usize,
    /// Surrogate-ranked corners re-evaluated for real at the end.
    pub shortlist: usize,
    /// Seed for the bootstrap corner sample.
    pub seed: u64,
}

impl Default for PrescreenConfig {
    fn default() -> Self {
        PrescreenConfig {
            bootstrap_evaluations: 8,
            shortlist: 3,
            seed: 31,
        }
    }
}

/// The artifact cache key of the PPA surrogate a prescreen run trains:
/// prescreen config + design space + stage + the logic design's
/// identity. The key does NOT capture the identity of the device/cell
/// surrogate bundle behind `surrogates` — runs that swap bundles while
/// keeping everything else fixed should use distinct registries (or
/// `--no-cache`).
pub fn prescreen_key(
    flow: &StcoFlow,
    space: &DesignSpace,
    stage: TechnologyStage,
    config: &PrescreenConfig,
) -> stco_store::ArtifactKey {
    let logic = flow.logic();
    stco_store::ArtifactKey::from_parts(
        SystemSurrogate::ARTIFACT_KIND,
        &[
            &format!("{config:?}"),
            &format!("{space:?}"),
            &format!("{stage:?}"),
            &logic.name,
            &format!(
                "gates={} ffs={} pis={} nets={}",
                logic.gate_count(),
                logic.flip_flops.len(),
                logic.primary_inputs.len(),
                logic.num_nets
            ),
        ],
    )
}

/// Runs the agent on surrogate-predicted costs, then re-evaluates the
/// shortlist for real and returns the true best. `registry` optionally
/// caches the bootstrapped PPA surrogate: on a cache hit the bootstrap
/// real evaluations AND the surrogate training are skipped entirely —
/// `real_evaluations` drops to the shortlist size.
///
/// # Errors
///
/// Propagates flow/training/store failures.
#[allow(clippy::too_many_arguments)]
pub fn explore_with_prescreen_cached(
    flow: &StcoFlow,
    space: &DesignSpace,
    agent: &AgentConfig,
    stage: TechnologyStage,
    surrogates: Option<&TrainedSurrogates>,
    config: &PrescreenConfig,
    registry: Option<&stco_store::Registry>,
) -> Result<OptimizeOutcome> {
    let key = prescreen_key(flow, space, stage, config);
    let cached = match registry {
        Some(reg) => reg
            .load(SystemSurrogate::ARTIFACT_KIND, key)?
            .map(|a| SystemSurrogate::from_artifact(&a))
            .transpose()?,
        None => None,
    };
    // The hit/miss split must be taken before `cached` is consumed: a
    // miss only counts as one when a registry was actually probed.
    let cache_hits = usize::from(cached.is_some());
    let cache_misses = usize::from(registry.is_some() && cached.is_none());
    let mut real = 0usize;
    let ppa_model = if let Some(model) = cached {
        model
    } else {
        // Bootstrap: evaluate a deterministic spread of corners for real.
        // Corners are drawn serially (the RNG stream anchors determinism),
        // then evaluated on the stco-par pool in index order.
        let mut rng = stco_numerics::rng::Xorshift::new(config.seed);
        let bootstrap_corners: Vec<Corner> = (0..config.bootstrap_evaluations.max(4))
            .map(|_| {
                let p = crate::space::SpacePoint {
                    vdd: rng.gen_range(space.levels()),
                    vth: rng.gen_range(space.levels()),
                    cox: rng.gen_range(space.levels()),
                };
                space.corner(p)
            })
            .collect();
        let bootstrap_results = stco_par::try_par_map(
            stco_par::ParConfig::current(),
            &bootstrap_corners,
            |corner| flow.run_iteration(*corner, stage, surrogates),
        )?;
        real += bootstrap_results.len();
        let records: Vec<EvalRecord> = bootstrap_corners
            .iter()
            .zip(&bootstrap_results)
            .map(|(corner, result)| EvalRecord::from_report(flow.logic(), *corner, &result.ppa))
            .collect();
        let mut model = SystemSurrogate::new(config.seed ^ 0xABCD);
        model.train(
            &records,
            &stco_nn::train::TrainConfig {
                epochs: 400,
                batch_size: 8,
                patience: None,
                ..stco_nn::train::TrainConfig::default()
            },
        )?;
        if let Some(reg) = registry {
            reg.put(key, &model.to_artifact())?;
        }
        model
    };

    // Explore on the surrogate (free), then shortlist.
    let exploration = q_learning_explore(space, agent, |corner| {
        ppa_model.predict(flow.logic(), corner).cost()
    });
    let mut ranked: Vec<(f64, Corner)> = space
        .all_points()
        .into_iter()
        .map(|p| {
            let corner = space.corner(p);
            (ppa_model.predict(flow.logic(), corner).cost(), corner)
        })
        .collect();
    ranked.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite costs"));

    // Re-evaluate the shortlist for real in parallel; scanning the
    // results in rank order preserves the serial first-minimum choice.
    let shortlist: Vec<Corner> = ranked
        .into_iter()
        .take(config.shortlist.max(1))
        .map(|(_, corner)| corner)
        .collect();
    let shortlist_results =
        stco_par::try_par_map(stco_par::ParConfig::current(), &shortlist, |corner| {
            flow.run_iteration(*corner, stage, surrogates)
        })?;
    real += shortlist_results.len();
    let mut best: Option<(f64, IterationResult)> = None;
    for result in shortlist_results {
        let cost = result.ppa.cost();
        if best.as_ref().is_none_or(|(c, _)| cost < *c) {
            best = Some((cost, result));
        }
    }
    let (best_cost, best_iteration) = best.expect("shortlist is non-empty");
    let mut exploration = exploration;
    exploration.best_cost = best_cost;
    Ok(OptimizeOutcome {
        exploration,
        best_iteration,
        real_evaluations: real,
        cache_hits,
        cache_misses,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::FlowConfig;

    #[test]
    fn prescreen_config_defaults_are_sane() {
        let c = PrescreenConfig::default();
        assert!(c.bootstrap_evaluations >= 4);
        assert!(c.shortlist >= 1);
    }

    #[test]
    fn cache_hit_and_miss_counts_surface_in_the_outcome() -> Result<()> {
        let flow = StcoFlow::new(FlowConfig::fast(
            stco_tcad::materials::Technology::Cnt,
            stco_system::bench_gen::Benchmark::S298,
        ))?;
        // A gentle grid: the default ranges' extreme corners (low V_DD
        // with a high V_th shift) can fail cell characterization, which
        // is not what this test is about.
        let space = DesignSpace::with_grid(
            stco_compact::tech::CornerGrid {
                vdd: (2.8, 3.4),
                vth_shift: (-0.05, 0.05),
                cox_scale: (0.95, 1.1),
            },
            2,
        );
        let agent = AgentConfig {
            episodes: 2,
            steps_per_episode: 3,
            ..AgentConfig::default()
        };
        let config = PrescreenConfig {
            bootstrap_evaluations: 4,
            shortlist: 1,
            seed: 31,
        };
        let stage = TechnologyStage::Traditional;

        // No registry: no probe, so neither a hit nor a miss.
        let uncached =
            explore_with_prescreen_cached(&flow, &space, &agent, stage, None, &config, None)?;
        assert_eq!(uncached.cache_hits, 0);
        assert_eq!(uncached.cache_misses, 0);

        let dir =
            std::env::temp_dir().join(format!("stco-core-prescreen-cache-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let registry = stco_store::Registry::open(&dir)?;

        // Cold registry: the probe misses and forces bootstrap+train.
        let cold = explore_with_prescreen_cached(
            &flow,
            &space,
            &agent,
            stage,
            None,
            &config,
            Some(&registry),
        )?;
        assert_eq!(cold.cache_misses, 1);
        assert_eq!(cold.cache_hits, 0);

        // Warm registry: the probe hits; only the shortlist re-runs.
        let warm = explore_with_prescreen_cached(
            &flow,
            &space,
            &agent,
            stage,
            None,
            &config,
            Some(&registry),
        )?;
        assert_eq!(warm.cache_hits, 1);
        assert_eq!(warm.cache_misses, 0);
        assert_eq!(warm.real_evaluations, config.shortlist);
        drop(registry);
        let _ = std::fs::remove_dir_all(&dir);

        // The flow driver never probes a cache.
        let flow_outcome = explore_with_flow(&flow, &space, &agent, stage, None)?;
        assert_eq!(flow_outcome.cache_hits, 0);
        assert_eq!(flow_outcome.cache_misses, 0);
        Ok(())
    }
}
