//! `stco-core`: the fast system technology co-optimization framework —
//! the top of the `fast-stco` workspace and the reproduction of the
//! paper's headline system (Fig. 1).
//!
//! An STCO iteration couples four stages:
//!
//! 1. **Device simulation** — TCAD ([`stco_tcad`]) in the traditional
//!    flow; the self-consistent RelGAT surrogate loop
//!    ([`flow::fast_device_solution`]) in the fast flow.
//! 2. **Compact-model extraction** — Levenberg–Marquardt fitting of the
//!    unified TFT model to the (simulated or predicted) I–V curves,
//!    linking the device level to the cell level.
//! 3. **Cell-library characterization** — transistor-level SPICE
//!    ([`stco_cells`]) traditionally; the GCN surrogate
//!    ([`stco_surrogate::cell_model`]) in the fast flow.
//! 4. **System evaluation** — mapping, placement, STA and power from
//!    [`stco_system`] (the stage the paper keeps on commercial tools).
//!
//! A tabular Q-learning agent ([`rl`]) explores the (V_DD, V_th, C_ox)
//! design space over the ten paper benchmarks.
//! [`flow::StcoFlow::run_iteration`] times each stage under its own
//! `flow.stage` span, and [`speedup`] owns Table I: the paper's
//! technology-stage seconds, its rows, and the measured and calibrated
//! views built from them.

pub mod flow;
pub mod optimize;
pub mod rl;
pub mod space;
pub mod speedup;
pub mod sys_surrogate;

/// Errors from the STCO framework.
#[derive(Debug)]
pub enum StcoError {
    /// Underlying technology-stage failure.
    Stage(Box<dyn std::error::Error + Send + Sync + 'static>),
    /// Invalid configuration.
    InvalidConfig {
        /// Human-readable description.
        context: String,
    },
}

impl std::fmt::Display for StcoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StcoError::Stage(e) => write!(f, "stage failure: {e}"),
            StcoError::InvalidConfig { context } => write!(f, "invalid config: {context}"),
        }
    }
}

impl std::error::Error for StcoError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StcoError::Stage(e) => Some(e.as_ref()),
            _ => None,
        }
    }
}

macro_rules! from_stage_error {
    ($($ty:ty),*) => {
        $(impl From<$ty> for StcoError {
            fn from(e: $ty) -> Self {
                StcoError::Stage(Box::new(e))
            }
        })*
    };
}

from_stage_error!(
    stco_tcad::TcadError,
    stco_compact::CompactError,
    stco_cells::CellsError,
    stco_system::SystemError,
    stco_surrogate::SurrogateError,
    stco_numerics::NumericsError,
    stco_store::StoreError
);

/// Result alias for framework routines.
pub type Result<T> = std::result::Result<T, StcoError>;
