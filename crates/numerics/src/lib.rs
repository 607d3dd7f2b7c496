//! Dense/sparse linear algebra, nonlinear solvers, interpolation and
//! statistics for the `fast-stco` workspace.
//!
//! This crate is the numerical substrate shared by every other crate in the
//! workspace: the TCAD device simulator assembles sparse Poisson systems and
//! solves them with [`solve::bicgstab`], the SPICE engine factors dense MNA
//! matrices with [`dense::Matrix::lu_solve`], the compact-model extractor
//! runs [`nonlinear::levenberg_marquardt`], the cell characterizer
//! interpolates NLDM tables with [`interp::Bilinear`], and the GNN surrogate
//! pipelines report [`stats`] metrics (MSE, MAPE, R²).
//!
//! # Example
//!
//! ```
//! use stco_numerics::dense::Matrix;
//!
//! let a = Matrix::from_rows(&[&[4.0, 1.0], &[1.0, 3.0]]);
//! let x = a.lu_solve(&[1.0, 2.0]).expect("nonsingular");
//! assert!((4.0 * x[0] + x[1] - 1.0).abs() < 1e-12);
//! ```

pub mod dense;
pub mod gemm;
pub mod guard;
pub mod interp;
pub mod nonlinear;
pub mod rng;
pub mod solve;
pub mod sparse;
pub mod stats;

pub use dense::Matrix;
pub use sparse::CsrMatrix;

/// Workspace-wide error type for numerical routines.
#[derive(Debug, Clone, PartialEq)]
pub enum NumericsError {
    /// A matrix was singular (or numerically so) during factorization.
    SingularMatrix {
        /// Pivot index at which factorization broke down.
        pivot: usize,
    },
    /// An iterative method failed to reach the requested tolerance.
    NoConvergence {
        /// Number of iterations performed before giving up.
        iterations: usize,
        /// Residual norm at the final iterate.
        residual: f64,
    },
    /// Two operands had incompatible shapes.
    ShapeMismatch {
        /// Human-readable description of the mismatch.
        context: String,
    },
    /// An argument was outside its documented domain.
    InvalidArgument {
        /// Human-readable description of the violation.
        context: String,
    },
    /// A value that must be finite was NaN or ±Inf.
    NonFinite {
        /// What was checked and what it held, e.g. `psi[12] = NaN`.
        context: String,
    },
}

impl std::fmt::Display for NumericsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NumericsError::SingularMatrix { pivot } => {
                write!(f, "singular matrix at pivot {pivot}")
            }
            NumericsError::NoConvergence {
                iterations,
                residual,
            } => write!(
                f,
                "no convergence after {iterations} iterations (residual {residual:.3e})"
            ),
            NumericsError::ShapeMismatch { context } => write!(f, "shape mismatch: {context}"),
            NumericsError::InvalidArgument { context } => write!(f, "invalid argument: {context}"),
            NumericsError::NonFinite { context } => write!(f, "non-finite value: {context}"),
        }
    }
}

impl std::error::Error for NumericsError {}

/// Convenient result alias used across the crate.
pub type Result<T> = std::result::Result<T, NumericsError>;
