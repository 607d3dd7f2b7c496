//! Save→load→predict round-trips for all three surrogates: a model
//! rehydrated from its artifact must predict bitwise-identically to
//! the model that was saved, through the full binary encode/decode.

use stco_cells::encode::{encode_cell, EncodingContext};
use stco_cells::library::{CellKind, CellType};
use stco_compact::tech::TechnologyCard;
use stco_nn::train::TrainConfig;
use stco_store::{Artifact, StoreError};
use stco_surrogate::cell_model::{CellModel, CellModelConfig, CellSample};
use stco_surrogate::iv_predictor::{IvConfig, IvPredictor};
use stco_surrogate::poisson_emulator::{PoissonConfig, PoissonEmulator};
use stco_tcad::dataset::generate_dataset;
use stco_tcad::materials::Technology;

fn tiny_train_config() -> TrainConfig {
    TrainConfig {
        epochs: 2,
        batch_size: 2,
        patience: None,
        ..TrainConfig::default()
    }
}

#[test]
fn poisson_roundtrip_is_bitwise() {
    let data = generate_dataset(91, 4, &[Technology::Igzo]).expect("dataset");
    let (train, val) = data.split_at(3);
    let mut model = PoissonEmulator::new(PoissonConfig {
        depth: 2,
        heads: 1,
        head_dim: 6,
        ..PoissonConfig::default()
    });
    model
        .train(train, val, &tiny_train_config())
        .expect("train");

    let bytes = model.to_artifact().to_bytes();
    let back = PoissonEmulator::from_artifact(&Artifact::from_bytes(&bytes).expect("decode"))
        .expect("rehydrate");
    for s in &data {
        let a: Vec<u64> = model.predict(s).iter().map(|v| v.to_bits()).collect();
        let b: Vec<u64> = back.predict(s).iter().map(|v| v.to_bits()).collect();
        assert_eq!(a, b, "poisson prediction must survive save/load bitwise");
    }
}

#[test]
fn iv_roundtrip_is_bitwise() {
    let data = generate_dataset(92, 4, &[Technology::Ltps]).expect("dataset");
    let (train, val) = data.split_at(3);
    let mut model = IvPredictor::new(IvConfig {
        depth: 1,
        head_dim: 6,
        mlp_hidden: 8,
        ..IvConfig::default()
    });
    model
        .train(train, val, &tiny_train_config())
        .expect("train");

    let bytes = model.to_artifact().to_bytes();
    let back = IvPredictor::from_artifact(&Artifact::from_bytes(&bytes).expect("decode"))
        .expect("rehydrate");
    for s in &data {
        assert_eq!(
            model.predict_log_current(s).to_bits(),
            back.predict_log_current(s).to_bits(),
            "iv prediction must survive save/load bitwise"
        );
    }
}

fn cell_samples() -> Vec<CellSample> {
    let base = TechnologyCard::reference(Technology::Ltps);
    let mut out = Vec::new();
    for kind in [CellKind::Inv, CellKind::Nand2] {
        let cell = CellType::by_kind(kind);
        let built = cell.build(&base, 1.0);
        out.push(CellSample {
            graph: encode_cell(&built, &EncodingContext::all_rising(&cell, 2.0e-9, 1.0e-14)),
            metric: 0,
            value: 1.0e-10,
        });
    }
    out
}

#[test]
fn cell_model_roundtrip_is_bitwise_and_kind_checked() {
    let samples = cell_samples();
    let mut model = CellModel::new(CellModelConfig {
        hidden: 8,
        head_hidden: 8,
        ..CellModelConfig::default()
    });
    model
        .train(&samples, &[], &tiny_train_config())
        .expect("train");

    let artifact = model.to_artifact();
    let bytes = artifact.to_bytes();
    let back = CellModel::from_artifact(&Artifact::from_bytes(&bytes).expect("decode"))
        .expect("rehydrate");
    let metrics: Vec<usize> = (0..9).collect();
    for s in &samples {
        let a: Vec<u64> = model
            .predict_many(&s.graph, &metrics)
            .iter()
            .map(|v| v.to_bits())
            .collect();
        let b: Vec<u64> = back
            .predict_many(&s.graph, &metrics)
            .iter()
            .map(|v| v.to_bits())
            .collect();
        assert_eq!(a, b, "cell predictions must survive save/load bitwise");
    }

    // Rehydrating into the wrong model type is a typed error.
    assert!(matches!(
        PoissonEmulator::from_artifact(&artifact),
        Err(StoreError::WrongKind { .. })
    ));
    assert!(matches!(
        IvPredictor::from_artifact(&artifact),
        Err(StoreError::WrongKind { .. })
    ));
}
