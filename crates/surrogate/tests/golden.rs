//! Golden fingerprints of the surrogates' inference paths: the unified
//! device encoding for every task, and seeded untrained Poisson
//! emulators and IV predictors, on the CNT, LTPS and IGZO reference
//! devices at two biases each; and seeded untrained cell models on
//! encoded INV, NAND2 and DFF graphs at two corners. A change to any
//! encoded feature or any predicted value, down to one bit, fails here.
//!
//! The trainer goldens pin each model's training on those same devices
//! and graphs: the trained weights, the loss history and the restored
//! epoch, for a full run and for one that early stopping cuts short.
//!
//! Two more pin the data the surrogates learn from: the TCAD solutions
//! of those devices, whole, and the Table IV training set that
//! `build_cell_dataset` encodes from characterized INV, NAND2 and DFF.

use stco_cells::charac::CharConfig;
use stco_cells::encode::{encode_cell, CellGraph, EncodingContext};
use stco_cells::library::{CellKind, CellType};
use stco_compact::tech::{Corner, TechnologyCard};
use stco_nn::train::{TrainConfig, TrainHistory};
use stco_surrogate::cell_model::{
    BatchedCellGraph, CellModel, CellModelConfig, CellSample, METRICS,
};
use stco_surrogate::encoding::{encode_device, DeviceGraph, TaskFeatures};
use stco_surrogate::iv_predictor::{IvConfig, IvPredictor};
use stco_surrogate::pipeline::build_cell_dataset;
use stco_surrogate::poisson_emulator::{PoissonConfig, PoissonEmulator};
use stco_tcad::dataset::DeviceSample;
use stco_tcad::device::{Bias, DeviceSpec};
use stco_tcad::materials::Technology;

/// `(technology, bias index, fingerprint)` of `encode_device` for the
/// Poisson, IV and feature-free tasks, in that order per device.
const GOLDEN_ENCODING: [(&str, usize, [u64; 3]); 6] = [
    (
        "CNT",
        0,
        [0x874b8a979de032d5, 0xc0ca946f1a7558fd, 0xe680b370d9ae2953],
    ),
    (
        "CNT",
        1,
        [0x0277faa52a3eb18a, 0x6123312fe36c95d0, 0x8d9b2cd1cd207e0b],
    ),
    (
        "LTPS",
        0,
        [0x606c2d3fc3038cac, 0xb78139ba16221f57, 0x5fc52e2d92525ec0],
    ),
    (
        "LTPS",
        1,
        [0x77809795561b9a43, 0x6cbfb1382413428b, 0x7076ae14a089c318],
    ),
    (
        "IGZO",
        0,
        [0xf5919d49cb867792, 0x1ca4072f1d1f8de8, 0xfc9f7a4dff20d033],
    ),
    (
        "IGZO",
        1,
        [0x014fb7de683faa05, 0x0e5aae8c653a28ab, 0x8f15be70d2c830f3],
    ),
];

/// `(technology, bias index, fingerprint)` of the two Poisson emulators'
/// `predict` and `predict_prepared` outputs.
const GOLDEN_POISSON: [(&str, usize, u64); 6] = [
    ("CNT", 0, 0x5a4a36a03208100d),
    ("CNT", 1, 0xa0d0e257bc199b7d),
    ("LTPS", 0, 0x08a5a34bbb338825),
    ("LTPS", 1, 0xc2e0b9885b3f0751),
    ("IGZO", 0, 0xaa37adf4d1809a8d),
    ("IGZO", 1, 0x44d16064fb7941d9),
];

/// `(technology, bias index, fingerprint)` of the two IV predictors'
/// `predict_log_current` and `predict_log_current_prepared` outputs.
const GOLDEN_IV: [(&str, usize, u64); 6] = [
    ("CNT", 0, 0xd99ad2d6df1766ed),
    ("CNT", 1, 0xccfd2c63ea35524d),
    ("LTPS", 0, 0x203e8337251d723d),
    ("LTPS", 1, 0x76464f89d31ce05d),
    ("IGZO", 0, 0xbbffb0721466960d),
    ("IGZO", 1, 0x77d19a062fcf8c75),
];

/// Fingerprint of the four models' `evaluate` metrics (MSE and R² bits)
/// over all six devices.
const GOLDEN_EVALUATE: u64 = 0xa295704c86e6c64f;

/// `(cell, corner index, fingerprint)` of the two cell models'
/// `predict_many` outputs over all nine metrics.
const GOLDEN_CELL_MANY: [(&str, usize, u64); 6] = [
    ("INV", 0, 0x56bff24280b4393d),
    ("INV", 1, 0xc0279afecb866d16),
    ("NAND2", 0, 0xa392188066a2e01e),
    ("NAND2", 1, 0x705d52b58fefe794),
    ("DFF", 0, 0x000336f6e1e82486),
    ("DFF", 1, 0x65f0d9cd409d7b86),
];

/// Fingerprint of the two cell models' `predict_batch` outputs over all
/// six graphs packed into one batch, all nine metrics each.
const GOLDEN_CELL_BATCH: u64 = 0xca4554b016cba744;

/// `(run, best epoch, weights fingerprint, history fingerprint)` of a
/// trained model: every `to_artifact` tensor, then the train- and
/// val-loss trajectories. `full` runs every epoch; `stopped` is cut
/// short by its patience and restores an earlier epoch.
type TrainedRow = (&'static str, usize, u64, u64);

const GOLDEN_TRAINED_POISSON: [TrainedRow; 2] = [
    ("full", 1, 0x49314736267e74e2, 0x325ec0f565f0ec61),
    ("stopped", 3, 0x548360a19d6e2abe, 0xab32ad5fdcfb2953),
];

const GOLDEN_TRAINED_IV: [TrainedRow; 2] = [
    ("full", 3, 0x5af50f9fa0cb5cb5, 0xd1c2d4aaae9243fb),
    ("stopped", 4, 0x0a1b6502279dcf72, 0x510c6e672823d995),
];

const GOLDEN_TRAINED_CELL: [TrainedRow; 2] = [
    ("full", 5, 0xd6053ddd8d9d2edd, 0x2039138756b44695),
    ("stopped", 4, 0x18958841a92f49d9, 0x2384cb216710e15e),
];

/// `(technology, bias index, fingerprint)` of `solve_poisson`'s whole
/// `PotentialSolution` on each reference device: ψ, carrier density,
/// space charge, SRH and the Newton iteration count.
const GOLDEN_POTENTIAL: [(&str, usize, u64); 6] = [
    ("CNT", 0, 0x858586688b401bc4),
    ("CNT", 1, 0x79bd2b4ddfd3c4a6),
    ("LTPS", 0, 0x59e446389699e105),
    ("LTPS", 1, 0xc26ea106bab8421f),
    ("IGZO", 0, 0xd27861145d79cf18),
    ("IGZO", 1, 0x915931cfe14a42ac),
];

/// `(samples, fingerprint)` of `build_cell_dataset` for INV, NAND2 and
/// DFF on the LTPS reference card at the nominal 3 V corner under
/// `CharConfig::fast()`: every sample's metric, value bits, feature bits
/// and edges, in dataset order.
const GOLDEN_CELL_DATASET: (usize, u64) = (32, 0xb4d51b6e7366f832);

const TECHNOLOGIES: [(Technology, &str); 3] = [
    (Technology::Cnt, "CNT"),
    (Technology::Ltps, "LTPS"),
    (Technology::Igzo, "IGZO"),
];

/// FNV-1a 64 over `bytes`.
fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn value_bytes(values: &[f64]) -> impl Iterator<Item = u8> + '_ {
    values.iter().flat_map(|v| v.to_bits().to_le_bytes())
}

/// The reference device of each technology, solved by TCAD at a weak
/// and a strong bias point (signed by the channel polarity).
fn devices() -> Vec<(&'static str, usize, DeviceSample)> {
    let mut out = Vec::new();
    for (tech, name) in TECHNOLOGIES {
        let spec = DeviceSpec::reference(tech);
        let sign = spec.channel.polarity.sign();
        for (k, (gate, drain)) in [(1.2, 0.1), (3.0, 3.0)].into_iter().enumerate() {
            let bias = Bias {
                gate: sign * gate,
                drain: sign * drain,
            };
            let sample = DeviceSample::simulate(spec.clone(), bias).expect("reference solves");
            out.push((name, k, sample));
        }
    }
    out
}

/// A single-head stack of the Table I bundle's shape and a two-head
/// stack, so both the one-head and the concatenating merge are pinned.
fn poisson_models() -> [PoissonEmulator; 2] {
    [
        PoissonEmulator::new(PoissonConfig {
            depth: 2,
            heads: 1,
            head_dim: 8,
            ..PoissonConfig::default()
        }),
        PoissonEmulator::new(PoissonConfig {
            depth: 2,
            heads: 2,
            head_dim: 4,
            seed: 9,
            ..PoissonConfig::default()
        }),
    ]
}

fn iv_models() -> [IvPredictor; 2] {
    [
        IvPredictor::new(IvConfig {
            depth: 2,
            head_dim: 8,
            mlp_hidden: 12,
            ..IvConfig::default()
        }),
        IvPredictor::new(IvConfig {
            heads: 2,
            head_dim: 5,
            seed: 11,
            ..IvConfig::default()
        }),
    ]
}

/// The default cell model and one of another depth and width.
fn cell_models() -> [CellModel; 2] {
    [
        CellModel::new(CellModelConfig::default()),
        CellModel::new(CellModelConfig {
            depth: 2,
            hidden: 16,
            head_hidden: 8,
            seed: 5,
            ..CellModelConfig::default()
        }),
    ]
}

/// INV, NAND2 and DFF on the LTPS reference card, encoded at a nominal
/// and a shifted corner with a rising transition on every input.
fn cell_graphs() -> Vec<(&'static str, usize, CellGraph)> {
    let base = TechnologyCard::reference(Technology::Ltps);
    let corners = [
        Corner::nominal(3.0),
        Corner {
            vdd: 2.0,
            vth_shift: 0.1,
            cox_scale: 1.2,
        },
    ];
    let mut out = Vec::new();
    for (kind, name) in [
        (CellKind::Inv, "INV"),
        (CellKind::Nand2, "NAND2"),
        (CellKind::Dff, "DFF"),
    ] {
        let cell = CellType::by_kind(kind);
        for (k, corner) in corners.iter().enumerate() {
            let built = cell.build(&base.at_corner(*corner), 1.0);
            let ctx = EncodingContext::all_rising(&cell, 2.0e-9, 10.0e-15);
            out.push((name, k, encode_cell(&built, &ctx)));
        }
    }
    out
}

fn edge_bytes(edges: &[(usize, usize)]) -> impl Iterator<Item = u8> + '_ {
    edges.iter().flat_map(|&(s, d)| {
        (s as u64)
            .to_le_bytes()
            .into_iter()
            .chain((d as u64).to_le_bytes())
    })
}

fn table(rows: &[(&str, usize, u64)]) -> String {
    rows.iter()
        .map(|(name, k, f)| format!("    ({name:?}, {k}, {f:#018x}),\n"))
        .collect()
}

#[test]
fn device_encodings_match_golden_fingerprints() {
    let got: Vec<(&str, usize, [u64; 3])> = devices()
        .iter()
        .map(|(name, k, sample)| {
            let prints =
                [TaskFeatures::Poisson, TaskFeatures::Iv, TaskFeatures::None].map(|task| {
                    let g = encode_device(sample, task);
                    fnv1a(
                        value_bytes(g.node_features.as_slice())
                            .chain(edge_bytes(&g.edges))
                            .chain(value_bytes(g.edge_features.as_slice())),
                    )
                });
            (*name, *k, prints)
        })
        .collect();
    let now: String = got
        .iter()
        .map(|(name, k, [p, i, n])| {
            format!("    ({name:?}, {k}, [{p:#018x}, {i:#018x}, {n:#018x}]),\n")
        })
        .collect();
    assert_eq!(got, GOLDEN_ENCODING, "fingerprints now:\n{now}");
}

#[test]
fn tcad_solutions_match_golden_fingerprints() {
    let got: Vec<(&str, usize, u64)> = devices()
        .iter()
        .map(|(name, k, sample)| {
            let s = &sample.solution;
            let bytes = value_bytes(&s.psi)
                .chain(value_bytes(&s.carrier_density))
                .chain(value_bytes(&s.space_charge))
                .chain(value_bytes(&s.srh))
                .chain((s.newton_iterations as u64).to_le_bytes());
            (*name, *k, fnv1a(bytes))
        })
        .collect();
    assert_eq!(got, GOLDEN_POTENTIAL, "fingerprints now:\n{}", table(&got));
}

#[test]
fn cell_dataset_matches_golden_fingerprint() {
    let card = TechnologyCard::reference(Technology::Ltps);
    let cells: Vec<CellType> = [CellKind::Inv, CellKind::Nand2, CellKind::Dff]
        .into_iter()
        .map(CellType::by_kind)
        .collect();
    let samples = build_cell_dataset(&card, &[Corner::nominal(3.0)], &cells, &CharConfig::fast())
        .expect("characterizes");
    let bytes = samples.iter().flat_map(|s| {
        (s.metric as u64)
            .to_le_bytes()
            .into_iter()
            .chain(s.value.to_bits().to_le_bytes())
            .chain(value_bytes(&s.graph.features))
            .chain(edge_bytes(&s.graph.edges))
    });
    let got = (samples.len(), fnv1a(bytes));
    assert_eq!(
        got, GOLDEN_CELL_DATASET,
        "fingerprint now: ({}, {:#018x})",
        got.0, got.1
    );
}

#[test]
fn poisson_predictions_match_golden_fingerprints() {
    let models = poisson_models();
    let got: Vec<(&str, usize, u64)> = devices()
        .iter()
        .map(|(name, k, sample)| {
            let mesh = DeviceGraph::new(&sample.device);
            let nodes = mesh.node_features(sample, TaskFeatures::Poisson);
            let mut values = Vec::new();
            for model in &models {
                values.extend(model.predict(sample));
                let edges = model.project_edges(&mesh);
                values.extend(model.predict_prepared(&mesh, &edges, &nodes));
            }
            (*name, *k, fnv1a(value_bytes(&values)))
        })
        .collect();
    assert_eq!(got, GOLDEN_POISSON, "fingerprints now:\n{}", table(&got));
}

#[test]
fn iv_predictions_match_golden_fingerprints() {
    let models = iv_models();
    let got: Vec<(&str, usize, u64)> = devices()
        .iter()
        .map(|(name, k, sample)| {
            let mesh = DeviceGraph::new(&sample.device);
            let nodes = mesh.node_features(sample, TaskFeatures::Iv);
            let values: Vec<f64> = models
                .iter()
                .flat_map(|m| {
                    let edges = m.project_edges(&mesh);
                    [
                        m.predict_log_current(sample),
                        m.predict_log_current_prepared(&mesh, &edges, &nodes),
                    ]
                })
                .collect();
            (*name, *k, fnv1a(value_bytes(&values)))
        })
        .collect();
    assert_eq!(got, GOLDEN_IV, "fingerprints now:\n{}", table(&got));
}

#[test]
fn evaluation_metrics_match_golden_fingerprint() {
    let samples: Vec<DeviceSample> = devices().into_iter().map(|(_, _, s)| s).collect();
    let mut metrics = Vec::new();
    for model in &poisson_models() {
        metrics.push(model.evaluate(&samples).expect("evaluates"));
    }
    for model in &iv_models() {
        metrics.push(model.evaluate(&samples).expect("evaluates"));
    }
    let values: Vec<f64> = metrics.iter().flat_map(|m| [m.mse, m.r_squared]).collect();
    let got = fnv1a(value_bytes(&values));
    assert_eq!(got, GOLDEN_EVALUATE, "fingerprint now: {got:#018x}");
}

#[test]
fn cell_model_predictions_match_golden_fingerprints() {
    let models = cell_models();
    let all: Vec<usize> = (0..METRICS.len()).collect();
    let got: Vec<(&str, usize, u64)> = cell_graphs()
        .iter()
        .map(|(name, k, graph)| {
            let values: Vec<f64> = models
                .iter()
                .flat_map(|m| m.predict_many(graph, &all))
                .collect();
            (*name, *k, fnv1a(value_bytes(&values)))
        })
        .collect();
    assert_eq!(got, GOLDEN_CELL_MANY, "fingerprints now:\n{}", table(&got));
}

#[test]
fn batched_cell_predictions_match_golden_fingerprint() {
    let graphs = cell_graphs();
    let refs: Vec<&CellGraph> = graphs.iter().map(|(_, _, g)| g).collect();
    let batch = BatchedCellGraph::pack(&refs);
    let all: Vec<usize> = (0..METRICS.len()).collect();
    let metrics: Vec<&[usize]> = refs.iter().map(|_| all.as_slice()).collect();
    let values: Vec<f64> = cell_models()
        .iter()
        .flat_map(|m| m.predict_batch(&batch, &metrics))
        .flatten()
        .collect();
    let got = fnv1a(value_bytes(&values));
    assert_eq!(got, GOLDEN_CELL_BATCH, "fingerprint now: {got:#018x}");
}

/// The full run's schedule and the early-stopped run's, whose patience
/// of one epoch ends it at the first epoch that does not improve the
/// validation loss (each test's learning rate makes that come early).
fn train_configs(full_epochs: usize) -> [(&'static str, TrainConfig); 2] {
    [
        (
            "full",
            TrainConfig {
                epochs: full_epochs,
                batch_size: 2,
                patience: None,
                ..TrainConfig::default()
            },
        ),
        (
            "stopped",
            TrainConfig {
                epochs: 12,
                batch_size: 2,
                patience: Some(1),
                seed: 3,
            },
        ),
    ]
}

fn trained_row(
    run: &'static str,
    artifact: &stco_store::Artifact,
    history: &TrainHistory,
) -> TrainedRow {
    let weights = artifact
        .tensors
        .iter()
        .flat_map(|t| value_bytes(t.as_slice()));
    let losses = value_bytes(&history.train_loss).chain(value_bytes(&history.val_loss));
    (run, history.best_epoch, fnv1a(weights), fnv1a(losses))
}

/// Checks that the `stopped` run really stopped early and restored an
/// earlier epoch, so its row pins the checkpoint restore.
fn assert_restored(run: &str, config: &TrainConfig, history: &TrainHistory) {
    if run == "stopped" {
        assert!(
            history.val_loss.len() < config.epochs
                && history.best_epoch + 1 < history.val_loss.len(),
            "the stopped run must stop early and restore an earlier epoch: {history:?}"
        );
    }
}

fn trained_table(rows: &[TrainedRow]) -> String {
    rows.iter()
        .map(|(run, best, w, h)| format!("    ({run:?}, {best}, {w:#018x}, {h:#018x}),\n"))
        .collect()
}

/// Four reference devices to train on (CNT and LTPS) and two to
/// validate on (IGZO).
fn device_split() -> (Vec<DeviceSample>, Vec<DeviceSample>) {
    let mut samples: Vec<DeviceSample> = devices().into_iter().map(|(_, _, s)| s).collect();
    let val = samples.split_off(4);
    (samples, val)
}

#[test]
fn trained_poisson_emulators_match_golden_fingerprints() {
    let (train, val) = device_split();
    let got: Vec<TrainedRow> = train_configs(4)
        .into_iter()
        .map(|(run, config)| {
            let mut model = PoissonEmulator::new(PoissonConfig {
                depth: 2,
                heads: 2,
                head_dim: 4,
                learning_rate: 2.0e-2,
                seed: 9,
            });
            let history = model.train(&train, &val, &config).expect("trains");
            assert_restored(run, &config, &history);
            trained_row(run, &model.to_artifact(), &history)
        })
        .collect();
    assert_eq!(
        got,
        GOLDEN_TRAINED_POISSON,
        "fingerprints now:\n{}",
        trained_table(&got)
    );
}

#[test]
fn trained_iv_predictors_match_golden_fingerprints() {
    let (train, val) = device_split();
    let got: Vec<TrainedRow> = train_configs(4)
        .into_iter()
        .map(|(run, config)| {
            let mut model = IvPredictor::new(IvConfig {
                depth: 2,
                head_dim: 8,
                mlp_hidden: 12,
                learning_rate: 5.0e-3,
                ..IvConfig::default()
            });
            let history = model.train(&train, &val, &config).expect("trains");
            assert_restored(run, &config, &history);
            trained_row(run, &model.to_artifact(), &history)
        })
        .collect();
    assert_eq!(
        got,
        GOLDEN_TRAINED_IV,
        "fingerprints now:\n{}",
        trained_table(&got)
    );
}

/// Delay, capacitance and leakage samples of every cell graph, with
/// values that grow with the graph's size and differ per corner: the
/// nominal corner's graphs train, the shifted corner's validate.
fn cell_split() -> (Vec<CellSample>, Vec<CellSample>) {
    let (mut train, mut val) = (Vec::new(), Vec::new());
    for (_, k, graph) in cell_graphs() {
        let size = graph.num_nodes() as f64;
        for (metric, unit) in [(0, 1.0e-10), (2, 1.0e-15), (5, 1.0e-9)] {
            let sample = CellSample {
                graph: graph.clone(),
                metric,
                value: unit * size * (1.0 + 0.7 * k as f64),
            };
            if k == 0 {
                train.push(sample);
            } else {
                val.push(sample);
            }
        }
    }
    (train, val)
}

#[test]
fn trained_cell_models_match_golden_fingerprints() {
    let (train, val) = cell_split();
    let got: Vec<TrainedRow> = train_configs(6)
        .into_iter()
        .map(|(run, config)| {
            let mut model = CellModel::new(CellModelConfig {
                depth: 2,
                hidden: 16,
                head_hidden: 8,
                learning_rate: 5.0e-2,
                seed: 5,
            });
            let history = model.train(&train, &val, &config).expect("trains");
            assert_restored(run, &config, &history);
            trained_row(run, &model.to_artifact(), &history)
        })
        .collect();
    assert_eq!(
        got,
        GOLDEN_TRAINED_CELL,
        "fingerprints now:\n{}",
        trained_table(&got)
    );
}
