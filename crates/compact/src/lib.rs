//! The unified compact model for emerging thin-film transistors
//! (Section II-B of the paper) and its parameter-extraction machinery.
//!
//! The model captures mobility variation from charge drift in the
//! presence of tail-distributed traps (TDTs) and variable-range hopping
//! (VRH) with the power law of Eq. (1):
//!
//! ```text
//! μ = μ₀ (V_G − V_th)^γ   (N-type)      μ = μ₀ (V_th − V_G)^γ   (P-type)
//! ```
//!
//! Integrating the charge-drift current with this mobility gives a
//! single-piece intrinsic current model valid across linear and
//! saturation regions, continuous at the boundary, with an exponential
//! subthreshold tail below `V_th`. The same model stamps the transistors
//! of the SPICE engine in `stco-spice`, links the TCAD surrogate to cell
//! characterization (the "unified compact model" box of Fig. 1), and is
//! validated against (synthetic) measured I–V curves for CNT, LTPS and
//! IGZO in the Fig. 3 reproduction.
//!
//! # Example
//!
//! ```
//! use stco_compact::model::{CompactModel, DeviceType};
//!
//! let m = CompactModel::ntype_reference();
//! let lin = m.drain_current(2.0, 0.1);   // V_GS = 2 V, V_DS = 0.1 V
//! let sat = m.drain_current(2.0, 3.0);
//! assert!(sat > lin);
//! assert_eq!(m.device_type(), DeviceType::NType);
//! ```

pub mod extract;
pub mod measure;
pub mod model;
pub mod tech;

/// Errors from compact-model fitting and evaluation.
#[derive(Debug, Clone, PartialEq)]
pub enum CompactError {
    /// A model parameter was outside its physical domain.
    InvalidParameter {
        /// Which parameter and why.
        context: String,
    },
    /// Extraction failed to improve on the initial guess.
    ExtractionFailed {
        /// Final cost of the attempted fit.
        cost: f64,
    },
    /// An underlying numerical routine failed.
    Numerics(stco_numerics::NumericsError),
}

impl std::fmt::Display for CompactError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompactError::InvalidParameter { context } => {
                write!(f, "invalid parameter: {context}")
            }
            CompactError::ExtractionFailed { cost } => {
                write!(f, "extraction failed (cost {cost:.3e})")
            }
            CompactError::Numerics(e) => write!(f, "numerics failure: {e}"),
        }
    }
}

impl std::error::Error for CompactError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CompactError::Numerics(e) => Some(e),
            _ => None,
        }
    }
}

impl From<stco_numerics::NumericsError> for CompactError {
    fn from(e: stco_numerics::NumericsError) -> Self {
        CompactError::Numerics(e)
    }
}

/// Result alias for compact-model routines.
pub type Result<T> = std::result::Result<T, CompactError>;
