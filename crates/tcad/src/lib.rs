//! A 2-D finite-volume TCAD device simulator for planar thin-film
//! transistors — the "commercial TCAD" substrate of the `fast-stco`
//! reproduction.
//!
//! The paper's GNN surrogates are trained on 2-D TCAD solutions of planar
//! CNT devices (50 000 training devices; a calibrated 576-device study put
//! the commercial simulator at 142.07 s per device). This crate supplies
//! the equivalent ground-truth generator, built from scratch:
//!
//! * [`mesh`] — rectilinear finite-volume meshes over a bottom-gate TFT
//!   cross-section (gate / gate dielectric / semiconductor / contacts).
//! * [`materials`] — property tables for CNT, IGZO, LTPS and dielectrics,
//!   including tail-distributed-trap (TDT) and variable-range-hopping
//!   (VRH) transport parameters.
//! * [`physics`] — carrier statistics with exponential band-tail traps,
//!   Shockley–Read–Hall recombination and the field-enhanced mobility law.
//! * [`poisson`] — a damped-Newton nonlinear Poisson solver over the mesh
//!   (sparse Jacobian, Jacobi-preconditioned BiCGSTAB).
//! * [`transport`] — quasi-2-D charge-drift terminal currents (the IV
//!   predictor's regression target).
//! * [`device`] — parameterized device specs and the randomized sampler
//!   that generates surrogate training populations.
//! * [`dataset`] — labelled device samples (potential map, charge map,
//!   terminal current) consumed by `stco-surrogate`.
//!
//! # Example
//!
//! ```
//! use stco_tcad::device::{Bias, DeviceSpec};
//! use stco_tcad::materials::Technology;
//! use stco_tcad::poisson::solve_poisson;
//! use stco_tcad::transport::drain_current;
//!
//! let spec = DeviceSpec::reference(Technology::Cnt);
//! let device = spec.build()?;
//! let bias = Bias { gate: -2.0, drain: -1.0 };
//! let sol = solve_poisson(&device, bias)?;
//! let id = drain_current(&device, &sol, bias);
//! assert!(id.abs() > 0.0);
//! # Ok::<(), stco_tcad::TcadError>(())
//! ```

pub mod dataset;
pub mod device;
pub mod materials;
pub mod mesh;
pub mod physics;
pub mod poisson;
pub mod transport;

/// Errors reported by the device simulator.
#[derive(Debug, Clone, PartialEq)]
pub enum TcadError {
    /// Device geometry was inconsistent (e.g. zero-thickness layer).
    InvalidGeometry {
        /// Human-readable description.
        context: String,
    },
    /// The nonlinear Poisson iteration failed to converge.
    PoissonDiverged {
        /// Residual at the final Newton iterate.
        residual: f64,
    },
    /// A solver state or output went NaN/Inf.
    NonFinite {
        /// Mesh node at which the poison was first observed.
        node: usize,
        /// Gate bias of the offending solve (V).
        gate: f64,
        /// Drain bias of the offending solve (V).
        drain: f64,
        /// What was checked, e.g. `poisson.psi`.
        context: String,
    },
    /// An underlying numerical routine failed.
    Numerics(stco_numerics::NumericsError),
}

impl std::fmt::Display for TcadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TcadError::InvalidGeometry { context } => write!(f, "invalid geometry: {context}"),
            TcadError::PoissonDiverged { residual } => {
                write!(f, "poisson solve diverged (residual {residual:.3e})")
            }
            TcadError::NonFinite {
                node,
                gate,
                drain,
                context,
            } => write!(
                f,
                "non-finite {context} at node {node} (Vg={gate:.3} V, Vd={drain:.3} V)"
            ),
            TcadError::Numerics(e) => write!(f, "numerics failure: {e}"),
        }
    }
}

impl std::error::Error for TcadError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TcadError::Numerics(e) => Some(e),
            _ => None,
        }
    }
}

impl From<stco_numerics::NumericsError> for TcadError {
    fn from(e: stco_numerics::NumericsError) -> Self {
        TcadError::Numerics(e)
    }
}

/// Result alias for TCAD routines.
pub type Result<T> = std::result::Result<T, TcadError>;

/// Thermal voltage kT/q at 300 K, in volts.
pub const THERMAL_VOLTAGE: f64 = 0.025852;

/// Elementary charge in coulombs.
pub const ELEMENTARY_CHARGE: f64 = 1.602_176_634e-19;

/// Vacuum permittivity in F/m.
pub const VACUUM_PERMITTIVITY: f64 = 8.854_187_812_8e-12;
