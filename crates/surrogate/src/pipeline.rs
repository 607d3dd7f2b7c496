//! End-to-end surrogate pipelines: dataset assembly and the harnesses
//! that regenerate Table II (surrogate TCAD accuracy) and Table IV
//! (cell-library prediction MAPE).

use stco_cells::charac::{characterize, ArcSample, CharConfig};
use stco_cells::encode::{encode_cell, EncodingContext};
use stco_cells::library::CellType;
use stco_compact::tech::{Corner, TechnologyCard};
use stco_nn::train::TrainConfig;
use stco_tcad::dataset::{generate_dataset, split_indices, DeviceSample};
use stco_tcad::materials::Technology;

use stco_store::{ArtifactKey, Registry};

use crate::cell_model::{metric_index, CellModel, CellModelConfig, CellSample};
use crate::iv_predictor::{IvConfig, IvPredictor};
use crate::poisson_emulator::{PoissonConfig, PoissonEmulator, RegressionMetrics};
use crate::Result;

/// Configuration of a Table II run.
#[derive(Debug, Clone)]
pub struct Table2Config {
    /// Devices in the train/val/test population (paper: 50 000).
    pub dataset_size: usize,
    /// Additional unseen devices (paper: 32 000).
    pub unseen_size: usize,
    /// Technologies to sample.
    pub technologies: Vec<Technology>,
    /// Poisson-emulator architecture.
    pub poisson: PoissonConfig,
    /// IV-predictor architecture.
    pub iv: IvConfig,
    /// Shared training schedule.
    pub train: TrainConfig,
    /// Dataset seed.
    pub seed: u64,
}

impl Default for Table2Config {
    fn default() -> Self {
        Table2Config {
            dataset_size: 120,
            unseen_size: 40,
            technologies: vec![Technology::Cnt],
            poisson: PoissonConfig::default(),
            iv: IvConfig::default(),
            train: TrainConfig {
                epochs: 40,
                batch_size: 4,
                patience: Some(12),
                ..TrainConfig::default()
            },
            seed: 2024,
        }
    }
}

/// The Table II report: accuracy of both surrogates on the three splits.
#[derive(Debug, Clone)]
pub struct Table2Report {
    /// Poisson emulator on (validation, test, unseen).
    pub poisson: [RegressionMetrics; 3],
    /// IV predictor on (validation, test, unseen).
    pub iv: [RegressionMetrics; 3],
    /// Sizes of (train, val, test, unseen).
    pub sizes: [usize; 4],
    /// Parameter counts (poisson, iv).
    pub parameter_counts: (usize, usize),
}

/// The artifact cache key of a model trained by a Table II run: the
/// whole run config determines the dataset, the split and the training
/// schedule, so hashing its `Debug` rendering (a pure function of the
/// fields) keys the trained weights exactly.
pub fn table2_key(kind: &str, config: &Table2Config) -> ArtifactKey {
    ArtifactKey::from_parts(kind, &[&format!("table2 {config:?}")])
}

/// Runs the full Table II experiment: generate devices, train both
/// surrogates, evaluate on validation/test/unseen.
///
/// With a `registry` that holds both models for this config, training
/// is skipped entirely (zero training steps) and the saved weights are
/// rehydrated; on a miss, models train as usual and are stored for the
/// next run. Dataset generation and evaluation always run — only
/// training is amortized.
///
/// # Errors
///
/// Propagates dataset, training and artifact-store failures (a corrupt
/// cached artifact is an error, not a silent retrain).
pub fn run_table2(config: &Table2Config, registry: Option<&Registry>) -> Result<Table2Report> {
    let data = generate_dataset(config.seed, config.dataset_size, &config.technologies)?;
    let unseen = generate_dataset(
        config.seed ^ 0x5EED_u64,
        config.unseen_size,
        &config.technologies,
    )?;
    let split = split_indices(data.len(), 0.7, 0.15, config.seed);
    let pick =
        |idx: &[usize]| -> Vec<DeviceSample> { idx.iter().map(|&i| data[i].clone()).collect() };
    let train = pick(&split.train);
    let val = pick(&split.val);
    let test = pick(&split.test);

    let poisson_key = table2_key(PoissonEmulator::ARTIFACT_KIND, config);
    let cached_poisson = match registry {
        Some(reg) => reg
            .load(PoissonEmulator::ARTIFACT_KIND, poisson_key)?
            .map(|a| PoissonEmulator::from_artifact(&a))
            .transpose()?,
        None => None,
    };
    let poisson = match cached_poisson {
        Some(model) => model,
        None => {
            let mut model = PoissonEmulator::new(config.poisson);
            model.train(&train, &val, &config.train)?;
            if let Some(reg) = registry {
                reg.put(poisson_key, &model.to_artifact())?;
            }
            model
        }
    };
    let p_val = poisson.evaluate(&val)?;
    let p_test = poisson.evaluate(&test)?;
    let p_unseen = poisson.evaluate(&unseen)?;

    let iv_key = table2_key(IvPredictor::ARTIFACT_KIND, config);
    let cached_iv = match registry {
        Some(reg) => reg
            .load(IvPredictor::ARTIFACT_KIND, iv_key)?
            .map(|a| IvPredictor::from_artifact(&a))
            .transpose()?,
        None => None,
    };
    let iv = match cached_iv {
        Some(model) => model,
        None => {
            let mut model = IvPredictor::new(config.iv);
            model.train(&train, &val, &config.train)?;
            if let Some(reg) = registry {
                reg.put(iv_key, &model.to_artifact())?;
            }
            model
        }
    };
    let i_val = iv.evaluate(&val)?;
    let i_test = iv.evaluate(&test)?;
    let i_unseen = iv.evaluate(&unseen)?;

    Ok(Table2Report {
        poisson: [p_val, p_test, p_unseen],
        iv: [i_val, i_test, i_unseen],
        sizes: [train.len(), val.len(), test.len(), unseen.len()],
        parameter_counts: (poisson.parameter_count(), iv.parameter_count()),
    })
}

/// Characterizes `cells` at every corner of `corners` and encodes every
/// measured metric row as a [`CellSample`].
///
/// Each (corner, cell) pair is characterized on the [`stco_par`] pool
/// (`STCO_THREADS`); results concatenate in pair order, so the dataset
/// matches the serial nested loop exactly at every thread count.
///
/// # Errors
///
/// Propagates characterization failures (lowest pair index first).
pub fn build_cell_dataset(
    base: &TechnologyCard,
    corners: &[Corner],
    cells: &[CellType],
    char_config: &CharConfig,
) -> Result<Vec<CellSample>> {
    let mut pairs = Vec::with_capacity(corners.len() * cells.len());
    for corner in corners {
        for cell in cells {
            pairs.push((*corner, cell));
        }
    }
    let per_pair = stco_par::try_par_map(
        stco_par::ParConfig::current(),
        &pairs,
        |&(corner, cell)| -> Result<Vec<CellSample>> {
            let card = base.at_corner(corner);
            let mut out = Vec::new();
            let built = cell.build(&card, 1.0);
            let ch = characterize(cell, &card, char_config)?;
            let push_arcs = |metric: &str, arcs: &[ArcSample], out: &mut Vec<CellSample>| {
                let m = metric_index(metric).expect("known metric");
                for arc in arcs {
                    let graph = encode_cell(&built, &EncodingContext::for_arc(cell, arc));
                    out.push(CellSample {
                        graph,
                        metric: m,
                        value: arc.value,
                    });
                }
            };
            push_arcs("delay", &ch.delay, &mut out);
            push_arcs("output_slew", &ch.output_slew, &mut out);
            push_arcs("flip_power", &ch.flip_power, &mut out);
            push_arcs("nonflip_power", &ch.nonflip_power, &mut out);
            // Scalar metrics: the nominal context, mid slew and load with
            // the first input rising and the others held at 1.
            let nominal = ArcSample {
                pin: cell.inputs[0].to_string(),
                input_rising: true,
                slew: char_config.slews[char_config.slews.len() / 2],
                load: char_config.loads[char_config.loads.len() / 2],
                value: 0.0,
            };
            let graph = encode_cell(&built, &EncodingContext::for_arc(cell, &nominal));
            let push_scalar = |metric: &str, value: f64, out: &mut Vec<CellSample>| {
                let m = metric_index(metric).expect("known metric");
                out.push(CellSample {
                    graph: graph.clone(),
                    metric: m,
                    value,
                });
            };
            push_scalar("capacitance", ch.capacitance, &mut out);
            push_scalar("leakage_power", ch.leakage_power, &mut out);
            if let Some(v) = ch.min_setup {
                push_scalar("min_setup", v, &mut out);
            }
            if let Some(v) = ch.min_hold {
                push_scalar("min_hold", v, &mut out);
            }
            if let Some(v) = ch.min_pulse_width {
                push_scalar("min_pulse_width", v, &mut out);
            }
            Ok(out)
        },
    )?;
    Ok(per_pair.into_iter().flatten().collect())
}

/// Configuration of a Table IV run for one technology.
#[derive(Debug, Clone)]
pub struct Table4Config {
    /// Technology under study (paper reports LTPS and CNT columns).
    pub technology: Technology,
    /// Training corner levels per axis (paper: 5 → 125 corners).
    pub train_levels: usize,
    /// Testing corner levels per axis (paper: 8 → 512 corners).
    pub test_levels: usize,
    /// Cells to include (paper: all 35).
    pub cells: Vec<CellType>,
    /// Characterization grid.
    pub char_config: CharConfig,
    /// Surrogate architecture.
    pub model: CellModelConfig,
    /// Training schedule.
    pub train: TrainConfig,
}

impl Table4Config {
    /// A scaled-down default: 2³ training corners, 3³ testing corners,
    /// a 6-cell subset and the fast characterization grid.
    pub fn scaled_default(technology: Technology) -> Self {
        use stco_cells::library::CellKind;
        Table4Config {
            technology,
            train_levels: 2,
            test_levels: 3,
            cells: [
                CellKind::Inv,
                CellKind::Nand2,
                CellKind::Nor2,
                CellKind::And2,
                CellKind::Xor2,
                CellKind::Dff,
            ]
            .into_iter()
            .map(CellType::by_kind)
            .collect(),
            char_config: CharConfig::fast(),
            model: CellModelConfig {
                hidden: 48,
                head_hidden: 48,
                ..CellModelConfig::default()
            },
            train: TrainConfig {
                epochs: 120,
                batch_size: 32,
                patience: Some(25),
                ..TrainConfig::default()
            },
        }
    }
}

/// The Table IV report for one technology.
#[derive(Debug, Clone)]
pub struct Table4Report {
    /// Technology evaluated.
    pub technology: Technology,
    /// `(metric, MAPE %, data points)` rows over the testing corners.
    pub rows: Vec<(String, f64, usize)>,
    /// Training/testing sample counts.
    pub sizes: (usize, usize),
}

/// The artifact cache key of the cell model trained by a Table IV run.
pub fn table4_key(config: &Table4Config) -> ArtifactKey {
    ArtifactKey::from_parts(CellModel::ARTIFACT_KIND, &[&format!("table4 {config:?}")])
}

/// Runs the Table IV experiment for one technology.
///
/// With a `registry`, a second run with an identical config rehydrates
/// the trained cell model (zero training steps) instead of retraining.
/// Characterization and evaluation still run — only training is
/// amortized.
///
/// # Errors
///
/// Propagates characterization, training and artifact-store failures.
pub fn run_table4(config: &Table4Config, registry: Option<&Registry>) -> Result<Table4Report> {
    let base = TechnologyCard::reference(config.technology);
    let grid = stco_compact::tech::CornerGrid::default();
    let train_corners = grid.corners(config.train_levels);
    let test_corners = grid.corners(config.test_levels);
    let train = build_cell_dataset(&base, &train_corners, &config.cells, &config.char_config)?;
    let test = build_cell_dataset(&base, &test_corners, &config.cells, &config.char_config)?;
    let key = table4_key(config);
    let cached = match registry {
        Some(reg) => reg
            .load(CellModel::ARTIFACT_KIND, key)?
            .map(|a| CellModel::from_artifact(&a))
            .transpose()?,
        None => None,
    };
    let model = match cached {
        Some(model) => model,
        None => {
            let mut model = CellModel::new(config.model);
            model.train(&train, &test, &config.train)?;
            if let Some(reg) = registry {
                reg.put(key, &model.to_artifact())?;
            }
            model
        }
    };
    let rows = model.evaluate_mape(&test)?;
    Ok(Table4Report {
        technology: config.technology,
        rows,
        sizes: (train.len(), test.len()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use stco_cells::library::CellKind;

    #[test]
    fn table2_runs_at_tiny_scale() {
        let config = Table2Config {
            dataset_size: 8,
            unseen_size: 3,
            train: TrainConfig {
                epochs: 4,
                batch_size: 2,
                patience: None,
                ..TrainConfig::default()
            },
            poisson: PoissonConfig {
                depth: 1,
                heads: 1,
                head_dim: 6,
                ..PoissonConfig::default()
            },
            iv: IvConfig {
                depth: 1,
                head_dim: 6,
                mlp_hidden: 8,
                ..IvConfig::default()
            },
            ..Table2Config::default()
        };
        let report = run_table2(&config, None).unwrap();
        assert_eq!(report.sizes[0] + report.sizes[1] + report.sizes[2], 8);
        assert_eq!(report.sizes[3], 3);
        for m in report.poisson.iter().chain(report.iv.iter()) {
            assert!(m.mse.is_finite());
            assert!(m.count > 0);
        }
        assert!(report.parameter_counts.0 > 0);
    }

    #[test]
    fn cell_dataset_covers_all_metric_kinds() {
        let base = TechnologyCard::reference(Technology::Ltps);
        let corners = [Corner::nominal(3.0)];
        let cells = [
            CellType::by_kind(CellKind::Nand2),
            CellType::by_kind(CellKind::Dff),
        ];
        let ds = build_cell_dataset(&base, &corners, &cells, &CharConfig::fast()).unwrap();
        let metrics: std::collections::BTreeSet<usize> = ds.iter().map(|s| s.metric).collect();
        // NAND2 provides delay/slew/cap/flip/nonflip/leakage; DFF adds
        // setup, hold and pulse width → all nine.
        assert_eq!(metrics.len(), 9, "metrics present: {metrics:?}");
        assert!(ds.iter().all(|s| s.value >= 0.0));
    }
}
