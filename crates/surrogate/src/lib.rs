//! The paper's GNN surrogates: the unified device encoding (Fig. 2), the
//! RelGAT **Poisson emulator** (node regression of electrostatic
//! potential), the RelGAT **IV predictor** (graph regression of terminal
//! current) and the GCN **cell-library characterization model**
//! (per-metric regression over Table III cell graphs).
//!
//! * [`encoding`] — FEM-mesh device graphs with material-level and
//!   device-level embeddings plus spatial edge features.
//! * [`poisson_emulator`] — deep RelGAT with LayerNorm (the paper: 12
//!   layers × 2 heads ≈ 1 M parameters; depth/width configurable).
//! * [`iv_predictor`] — shallow RelGAT (3 layers, 1 head) + 4-layer MLP
//!   readout (≈ 0.15 M parameters at paper scale).
//! * [`cell_model`] — 3-layer GCN + per-metric 2-layer MLP heads over the
//!   Table III encoding.
//! * [`pipeline`] — dataset assembly, training loops and the metric
//!   reports behind Tables II and IV.
//! * [`artifact`] — the weights-plus-norms artifact layout every model
//!   stores itself in.

pub mod artifact;
pub mod cell_model;
pub mod encoding;
pub mod iv_predictor;
pub mod pipeline;
pub mod poisson_emulator;

/// Errors from surrogate training and evaluation.
#[derive(Debug, Clone, PartialEq)]
pub enum SurrogateError {
    /// The dataset was empty or inconsistent.
    BadDataset {
        /// Human-readable description.
        context: String,
    },
    /// An underlying TCAD failure during dataset generation.
    Tcad(stco_tcad::TcadError),
    /// An underlying cell-library failure during dataset generation.
    Cells(stco_cells::CellsError),
    /// An underlying numerical failure.
    Numerics(stco_numerics::NumericsError),
    /// An artifact-store failure during cached training (stringified —
    /// `StoreError` holds I/O errors and cannot be `Clone`).
    Store {
        /// Rendered store error.
        context: String,
    },
}

impl std::fmt::Display for SurrogateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SurrogateError::BadDataset { context } => write!(f, "bad dataset: {context}"),
            SurrogateError::Tcad(e) => write!(f, "tcad failure: {e}"),
            SurrogateError::Cells(e) => write!(f, "cell failure: {e}"),
            SurrogateError::Numerics(e) => write!(f, "numerics failure: {e}"),
            SurrogateError::Store { context } => write!(f, "artifact store failure: {context}"),
        }
    }
}

impl std::error::Error for SurrogateError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SurrogateError::Tcad(e) => Some(e),
            SurrogateError::Cells(e) => Some(e),
            SurrogateError::Numerics(e) => Some(e),
            _ => None,
        }
    }
}

impl From<stco_tcad::TcadError> for SurrogateError {
    fn from(e: stco_tcad::TcadError) -> Self {
        SurrogateError::Tcad(e)
    }
}

impl From<stco_cells::CellsError> for SurrogateError {
    fn from(e: stco_cells::CellsError) -> Self {
        SurrogateError::Cells(e)
    }
}

impl From<stco_numerics::NumericsError> for SurrogateError {
    fn from(e: stco_numerics::NumericsError) -> Self {
        SurrogateError::Numerics(e)
    }
}

impl From<stco_store::StoreError> for SurrogateError {
    fn from(e: stco_store::StoreError) -> Self {
        SurrogateError::Store {
            context: e.to_string(),
        }
    }
}

/// Result alias for surrogate routines.
pub type Result<T> = std::result::Result<T, SurrogateError>;
