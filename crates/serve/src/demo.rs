//! A tiny, deterministic "demo" cell model used by the quickstart bins
//! and the CI serving-smoke job: small enough to train in well under a
//! second, real enough to exercise the full export → registry → serve
//! path.

use stco_cells::encode::{encode_cell, CellGraph, EncodingContext};
use stco_cells::library::{CellKind, CellType};
use stco_compact::tech::TechnologyCard;
use stco_nn::train::TrainConfig;
use stco_store::ArtifactKey;
use stco_surrogate::cell_model::{CellModel, CellModelConfig, CellSample, METRICS};
use stco_surrogate::SurrogateError;
use stco_tcad::materials::Technology;

/// Cells covered by the demo model.
pub const DEMO_CELLS: [CellKind; 3] = [CellKind::Inv, CellKind::Nand2, CellKind::Nor2];

/// The demo model configuration.
#[must_use]
pub fn demo_config() -> CellModelConfig {
    CellModelConfig {
        hidden: 8,
        head_hidden: 8,
        ..CellModelConfig::default()
    }
}

/// The demo training configuration.
#[must_use]
pub fn demo_train_config() -> TrainConfig {
    TrainConfig {
        epochs: 4,
        batch_size: 4,
        patience: None,
        ..TrainConfig::default()
    }
}

/// The encoded graph of one demo cell (LTPS reference card, fixed
/// slew/load context) — the same graph on every run, so serving inputs
/// built by separate processes match bitwise.
#[must_use]
pub fn demo_graph(kind: CellKind) -> CellGraph {
    let base = TechnologyCard::reference(Technology::Ltps);
    let cell = CellType::by_kind(kind);
    let built = cell.build(&base, 1.0);
    encode_cell(&built, &EncodingContext::all_rising(&cell, 2.0e-9, 1.0e-14))
}

/// The demo training set: every demo cell × the first three metrics,
/// with synthetic-but-structured target values.
#[must_use]
pub fn demo_samples() -> Vec<CellSample> {
    let mut out = Vec::new();
    for (ci, kind) in DEMO_CELLS.iter().enumerate() {
        let graph = demo_graph(*kind);
        for metric in 0..3usize.min(METRICS.len()) {
            out.push(CellSample {
                graph: graph.clone(),
                metric,
                value: 1.0e-10 * (1.0 + ci as f64) * (1.0 + metric as f64),
            });
        }
    }
    out
}

/// The registry key the demo artifact is stored under — a pure
/// function of the demo configs, so every process resolves the same
/// key.
#[must_use]
pub fn demo_key() -> ArtifactKey {
    ArtifactKey::from_parts(
        CellModel::ARTIFACT_KIND,
        &[
            "serve-demo-v1",
            &format!("{:?}", demo_config()),
            &format!("{:?}", demo_train_config()),
        ],
    )
}

/// Trains the demo model from scratch (deterministic: same weights
/// every run).
///
/// # Errors
///
/// Propagates training failures.
pub fn train_demo_model() -> std::result::Result<CellModel, SurrogateError> {
    let mut model = CellModel::new(demo_config());
    model.train(&demo_samples(), &[], &demo_train_config())?;
    Ok(model)
}
