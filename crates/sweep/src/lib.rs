//! `stco-sweep`: distributed, resumable design-space exploration.
//!
//! The paper's Table I loop optimizes one technology at a time; the
//! DTCO framing behind it is a standing sweep over the whole
//! (CNT/IGZO/LTPS) × (V_DD, V_th, C_ox) × benchmark space. This crate
//! turns that sweep into a first-class, restartable job:
//!
//! * [`scenario`] — a plain-struct/JSON **scenario DSL**: a
//!   [`scenario::SweepSpec`] grid description expands deterministically
//!   into content-addressed [`scenario::Scenario`]s (FNV keys via
//!   [`stco_store::ArtifactKey`], so the same spec always names the
//!   same work).
//! * [`journal`] — **checkpointed progress** through the artifact
//!   registry: one atomically-written record per completed scenario,
//!   keyed by the scenario hash. A killed sweep resumes with zero
//!   recompute; records round-trip `f64`s bitwise, so a resumed run's
//!   results are indistinguishable from an uninterrupted one.
//! * [`engine`] — the **work-queue scheduler**: shards pending
//!   scenarios across threads on [`stco_par`] (whose determinism
//!   contract makes results identical at every thread count), behind a
//!   pluggable [`engine::ScenarioEval`] (real STCO flow, or the
//!   closed-form synthetic model used by tests and ablations).
//! * [`remote`] — the **distributed half**: a [`remote::SweepQueue`]
//!   attaches to the stco-serve TCP front end as the `sweep`
//!   [`stco_serve::Extension`], and this module owns the lease /
//!   complete / status bodies carried by serve's opaque `ext` op, so
//!   remote workers can lease and complete scenarios over the network;
//!   completions land in the same journal.
//! * [`pareto`] — non-dominated front extraction over
//!   (delay, power, area) with markdown / JSONL reports and a bitwise
//!   front fingerprint for identity checks.
//! * [`bayes`] / [`explore`] — a dependency-free **GP-lite Bayesian
//!   optimizer** over the discrete grid (RBF kernel, expected
//!   improvement, exact LU solves), selectable against the ε-greedy
//!   Q-learning baseline, plus the samples-to-optimum ablation that
//!   compares them.

pub mod bayes;
pub mod engine;
pub mod explore;
pub mod journal;
pub mod pareto;
pub mod remote;
pub mod scenario;

pub use bayes::{bayes_explore, BayesOptConfig};
pub use engine::{
    result_from_ppa, synthetic_result, FlowEval, ScenarioEval, SweepEngine, SweepOutcome,
    SyntheticEval,
};
pub use explore::{explorer_ablation, samples_to_cost, AblationCell, AblationReport};
pub use journal::{ScenarioResult, SweepJournal, RECORD_KIND};
pub use pareto::{dominates, front_fingerprint, front_jsonl, front_markdown, pareto_front};
pub use remote::{
    run_remote_worker, sweep_complete, sweep_lease, sweep_status, LeasedScenario, SweepQueue,
    SweepQueueStatus,
};
pub use scenario::{benchmark_from_name, technology_from_name, Scenario, SweepSpec};

use std::fmt;

/// Errors from the sweep subsystem.
#[derive(Debug)]
pub enum SweepError {
    /// A malformed sweep specification (empty axes, bad levels, an
    /// unknown technology/benchmark name, unparsable JSON).
    BadSpec {
        /// What was wrong.
        context: String,
    },
    /// A journal record that does not match the schema this build
    /// writes (wrong tensor shape, missing metadata).
    MalformedRecord {
        /// What was wrong.
        context: String,
    },
    /// A scenario evaluation failed inside the STCO flow.
    Core(stco_core::StcoError),
    /// The journal's artifact registry failed.
    Store(stco_store::StoreError),
    /// The remote lease/complete transport failed.
    Serve(stco_serve::ServeError),
}

impl fmt::Display for SweepError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SweepError::BadSpec { context } => write!(f, "bad sweep spec: {context}"),
            SweepError::MalformedRecord { context } => {
                write!(f, "malformed sweep record: {context}")
            }
            SweepError::Core(e) => write!(f, "scenario evaluation: {e}"),
            SweepError::Store(e) => write!(f, "sweep journal: {e}"),
            SweepError::Serve(e) => write!(f, "sweep transport: {e}"),
        }
    }
}

impl std::error::Error for SweepError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SweepError::Core(e) => Some(e),
            SweepError::Store(e) => Some(e),
            SweepError::Serve(e) => Some(e),
            _ => None,
        }
    }
}

impl From<stco_core::StcoError> for SweepError {
    fn from(e: stco_core::StcoError) -> Self {
        SweepError::Core(e)
    }
}

impl From<stco_store::StoreError> for SweepError {
    fn from(e: stco_store::StoreError) -> Self {
        SweepError::Store(e)
    }
}

impl From<stco_serve::ServeError> for SweepError {
    fn from(e: stco_serve::ServeError) -> Self {
        SweepError::Serve(e)
    }
}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, SweepError>;

/// Convenience constructor for [`SweepError::BadSpec`].
pub(crate) fn bad_spec(context: impl Into<String>) -> SweepError {
    SweepError::BadSpec {
        context: context.into(),
    }
}

/// Convenience constructor for [`SweepError::MalformedRecord`].
pub(crate) fn malformed(context: impl Into<String>) -> SweepError {
    SweepError::MalformedRecord {
        context: context.into(),
    }
}
