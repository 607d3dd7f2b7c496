//! A modified-nodal-analysis (MNA) circuit simulator over the unified
//! TFT compact model — the "transistor-level SPICE simulation" substrate
//! that generates the paper's cell-characterization datasets.
//!
//! Feature set (scoped to what standard-cell characterization needs):
//!
//! * Elements: resistors, capacitors, independent voltage sources (DC,
//!   pulse, PWL waveforms) and TFTs stamped from
//!   [`stco_compact::model::CompactModel`] (with gate-capacitance loading).
//! * [`analysis`] — Newton DC operating point with g-min and clamped
//!   updates plus source-stepping fallback, and fixed-step backward-Euler
//!   transient with automatic step halving on Newton failure, which can
//!   resume from the prefix it shares with an earlier run.
//! * [`wave`] — waveform measurements: threshold crossings, transition
//!   slew, and supply-charge/energy integrals (the quantities behind
//!   delay, output slew, and flip/non-flip power).
//!
//! # Example: resistive divider
//!
//! ```
//! use stco_spice::netlist::{Circuit, Waveform};
//!
//! let mut ckt = Circuit::new();
//! let vin = ckt.node("vin");
//! let mid = ckt.node("mid");
//! ckt.add_vsource("V1", vin, Circuit::GROUND, Waveform::Dc(2.0));
//! ckt.add_resistor("R1", vin, mid, 1000.0);
//! ckt.add_resistor("R2", mid, Circuit::GROUND, 1000.0);
//! let dc = ckt.dc_operating_point()?;
//! assert!((dc.voltage(mid) - 1.0).abs() < 1e-9);
//! # Ok::<(), stco_spice::SpiceError>(())
//! ```

pub mod analysis;
pub mod netlist;
pub mod wave;

/// Errors from circuit construction and simulation.
#[derive(Debug, Clone, PartialEq)]
pub enum SpiceError {
    /// The netlist referenced an unknown node or element.
    BadNetlist {
        /// Human-readable description.
        context: String,
    },
    /// Newton failed to converge (even after source stepping / step
    /// halving).
    NoConvergence {
        /// Analysis that failed ("dc" or "tran").
        analysis: &'static str,
        /// Final residual or update norm.
        residual: f64,
    },
    /// An underlying numerical routine failed.
    Numerics(stco_numerics::NumericsError),
}

impl std::fmt::Display for SpiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpiceError::BadNetlist { context } => write!(f, "bad netlist: {context}"),
            SpiceError::NoConvergence { analysis, residual } => {
                write!(f, "{analysis} analysis failed to converge ({residual:.3e})")
            }
            SpiceError::Numerics(e) => write!(f, "numerics failure: {e}"),
        }
    }
}

impl std::error::Error for SpiceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SpiceError::Numerics(e) => Some(e),
            _ => None,
        }
    }
}

impl From<stco_numerics::NumericsError> for SpiceError {
    fn from(e: stco_numerics::NumericsError) -> Self {
        SpiceError::Numerics(e)
    }
}

/// Result alias for SPICE routines.
pub type Result<T> = std::result::Result<T, SpiceError>;
