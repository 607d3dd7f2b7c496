//! The GCN cell-library characterization model (paper §II-C): a 3-layer
//! graph convolutional network over Table III cell graphs, with an
//! additional 2-layer MLP per metric.
//!
//! Targets are trained in `log₁₀` space (delay, slew, capacitance and the
//! power metrics each span decades across cells and corners) and
//! standardized per metric; [`CellModel::evaluate_mape`] reports the
//! Table IV metric (MAPE in original units).

use std::collections::BTreeMap;
use std::sync::Arc;

use stco_cells::encode::{CellGraph, FEATURE_DIM};
use stco_nn::ad::{kernels, Graph, NodeId};
use stco_nn::gnn::{GcnLayer, GraphBatch, GraphData};
use stco_nn::layers::{Activation, Mlp};
use stco_nn::train::{fit_parallel, TrainConfig};
use stco_nn::Params;
use stco_numerics::{CsrMatrix, Matrix};

use crate::{Result, SurrogateError};

/// The nine metrics of Table IV, in report order.
pub const METRICS: [&str; 9] = [
    "delay",
    "output_slew",
    "capacitance",
    "flip_power",
    "nonflip_power",
    "leakage_power",
    "min_pulse_width",
    "min_setup",
    "min_hold",
];

/// Index of a metric name.
pub fn metric_index(name: &str) -> Option<usize> {
    METRICS.iter().position(|m| *m == name)
}

/// One training/evaluation record: an encoded cell graph and one metric
/// value measured under that graph's (slew, load, states, corner).
#[derive(Debug, Clone)]
pub struct CellSample {
    /// The Table III graph.
    pub graph: CellGraph,
    /// Metric index (into [`METRICS`]).
    pub metric: usize,
    /// Measured value in original units (s, F, J, W).
    pub value: f64,
}

/// Architecture hyperparameters.
#[derive(Debug, Clone, Copy)]
pub struct CellModelConfig {
    /// GCN depth (paper: 3).
    pub depth: usize,
    /// GCN hidden width.
    pub hidden: usize,
    /// Per-metric MLP hidden width (2 linear layers, as the paper).
    pub head_hidden: usize,
    /// Learning rate.
    pub learning_rate: f64,
    /// Weight seed.
    pub seed: u64,
}

impl Default for CellModelConfig {
    fn default() -> Self {
        CellModelConfig {
            depth: 3,
            hidden: 32,
            head_hidden: 32,
            learning_rate: 3.0e-3,
            seed: 17,
        }
    }
}

/// The trained (or trainable) cell-characterization surrogate.
#[derive(Debug, Clone)]
pub struct CellModel {
    params: Params,
    layers: Vec<GcnLayer>,
    heads: Vec<Mlp>,
    config: CellModelConfig,
    // Per-metric (mean, std) of log-targets.
    norms: Vec<(f64, f64)>,
}

/// A batch of encoded cell graphs packed into one disjoint union:
/// block-diagonal normalized adjacency, stacked node features and
/// per-node graph ids for segment-pooled readout.
///
/// This is the one prepared form of a cell graph: every forward of a
/// [`CellModel`] runs its GCN trunk over one. A training or validation
/// sample and a [`CellModel::predict_many`] call are batches of one;
/// [`CellModel::predict_batch`] runs the trunk over the whole union in
/// a few large GEMMs instead of one small GEMM chain per graph. Because
/// the union adjacency is block-diagonal and every trunk operation is
/// row-independent (or segment-contiguous), the batched forward is
/// bitwise-identical to looping [`CellModel::predict_many`] over the
/// graphs.
#[derive(Debug, Clone)]
pub struct BatchedCellGraph {
    adj: Arc<CsrMatrix>,
    features: Matrix,
    seg: Arc<Vec<usize>>,
    num_graphs: usize,
}

impl BatchedCellGraph {
    /// Packs encoded graphs into a block-diagonal batch.
    ///
    /// # Panics
    ///
    /// Panics if `graphs` is empty.
    pub fn pack(graphs: &[&CellGraph]) -> Self {
        assert!(!graphs.is_empty(), "cannot pack zero cell graphs");
        let gds: Vec<GraphData> = graphs
            .iter()
            .map(|graph| GraphData {
                node_features: Matrix::from_vec(
                    graph.num_nodes(),
                    FEATURE_DIM,
                    graph.features.clone(),
                ),
                edges: graph.edges.clone(),
                edge_features: Matrix::zeros(graph.edges.len(), 0),
            })
            .collect();
        let refs: Vec<&GraphData> = gds.iter().collect();
        let mut batch = GraphBatch::from_graphs(&refs);
        // The union's normalized adjacency is exactly the block-diagonal
        // stack of the per-graph ones: disjoint components keep their
        // degrees, so every row holds the same values in the same
        // (ascending-column) order, merely shifted.
        let adj = Arc::new(batch.merged.normalized_adjacency());
        let features = std::mem::take(&mut batch.merged.node_features);
        BatchedCellGraph {
            adj,
            features,
            seg: batch.node_graph_ids,
            num_graphs: batch.num_graphs,
        }
    }

    /// Number of graphs in the batch.
    pub fn num_graphs(&self) -> usize {
        self.num_graphs
    }
}

impl CellModel {
    /// Artifact kind tag for [`CellModel::to_artifact`].
    pub const ARTIFACT_KIND: &'static str = "cell-model";

    /// Builds an untrained model.
    pub fn new(config: CellModelConfig) -> Self {
        let mut params = Params::new(config.seed);
        let mut layers = Vec::with_capacity(config.depth);
        for d in 0..config.depth {
            let in_dim = if d == 0 { FEATURE_DIM } else { config.hidden };
            layers.push(GcnLayer::new(
                &mut params,
                in_dim,
                config.hidden,
                Activation::Relu,
            ));
        }
        let heads = METRICS
            .iter()
            .map(|_| {
                Mlp::new(
                    &mut params,
                    &[config.hidden, config.head_hidden, 1],
                    Activation::Relu,
                )
            })
            .collect();
        CellModel {
            params,
            layers,
            heads,
            config,
            norms: vec![(0.0, 1.0); METRICS.len()],
        }
    }

    /// Total scalar parameter count.
    pub fn parameter_count(&self) -> usize {
        self.params.scalar_count()
    }

    /// Trains on `train`, validating on `val` each epoch to pick the
    /// checkpoint it keeps and to stop early; with an empty `val` the
    /// run keeps its last epoch.
    ///
    /// # Errors
    ///
    /// Returns [`SurrogateError::BadDataset`] on an empty training set or
    /// out-of-range metric indices.
    pub fn train(
        &mut self,
        train: &[CellSample],
        val: &[CellSample],
        train_config: &TrainConfig,
    ) -> Result<stco_nn::train::TrainHistory> {
        if train.is_empty() {
            return Err(SurrogateError::BadDataset {
                context: "empty training set".into(),
            });
        }
        if train.iter().chain(val).any(|s| s.metric >= METRICS.len()) {
            return Err(SurrogateError::BadDataset {
                context: "metric index out of range".into(),
            });
        }
        // Per-metric log-target standardization.
        let mut by_metric: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
        for s in train {
            by_metric.entry(s.metric).or_default().push(log_value(s));
        }
        for (m, values) in &by_metric {
            let (mean, std) = stco_numerics::stats::mean_std(values)?;
            self.norms[*m] = (mean, std.max(1e-6));
        }

        let pack_each = |samples: &[CellSample]| -> Vec<BatchedCellGraph> {
            samples
                .iter()
                .map(|s| BatchedCellGraph::pack(&[&s.graph]))
                .collect()
        };
        let (graphs, val_graphs) = (pack_each(train), pack_each(val));
        // The forwards below borrow the model, so train a copy of its
        // weights and install it at the end.
        let mut params = self.params.clone();
        let history = fit_parallel(
            &mut params,
            train_config,
            self.config.learning_rate,
            train.len(),
            |g, params, i| {
                let sample = &train[i];
                let pooled = self.trunk(g, params, &graphs[i]);
                let pred = self.heads[sample.metric].forward(g, params, pooled);
                let t = g.input(Matrix::from_vec(1, 1, vec![self.standardize(sample)]));
                g.mse_loss(pred, t)
            },
            val.len(),
            |params, i| {
                let sample = &val[i];
                let pred = Graph::with_scratch(|g| {
                    let pooled = self.trunk(g, params, &val_graphs[i]);
                    let pred = self.heads[sample.metric].forward(g, params, pooled);
                    g.value(pred).get(0, 0)
                });
                kernels::mse(&[pred], &[self.standardize(sample)])
            },
        );
        self.params = params;
        Ok(history)
    }

    /// The GCN trunk every forward runs, under `params`: the layers over
    /// the packed union, then one mean-pooled embedding row per graph.
    fn trunk(&self, g: &mut Graph, params: &Params, batch: &BatchedCellGraph) -> NodeId {
        let mut h = g.input(batch.features.clone());
        for layer in &self.layers {
            h = layer.forward(g, params, &batch.adj, h);
        }
        g.segment_mean(h, Arc::clone(&batch.seg), batch.num_graphs)
    }

    /// The standardized `log₁₀` target of `sample` under its metric's
    /// norm: the regression target of training and validation.
    fn standardize(&self, sample: &CellSample) -> f64 {
        let (mean, std) = self.norms[sample.metric];
        (log_value(sample) - mean) / std
    }

    /// Predicts a metric value (original units) for an encoded graph.
    pub fn predict(&self, graph: &CellGraph, metric: usize) -> f64 {
        self.predict_many(graph, &[metric])[0]
    }

    /// Predicts several metrics for one encoded graph in a single
    /// forward pass: [`CellModel::predict_batch`] on a batch of one, so
    /// the GCN trunk and mean-pool run once and each requested head
    /// reads the shared pooled embedding. Values are bitwise-identical
    /// to per-metric [`CellModel::predict`] calls (the trunk recomputes
    /// to the same bits), at one trunk evaluation instead of
    /// `metrics.len()`.
    pub fn predict_many(&self, graph: &CellGraph, metrics: &[usize]) -> Vec<f64> {
        self.predict_batch(&BatchedCellGraph::pack(&[graph]), &[metrics])
            .swap_remove(0)
    }

    /// Predicts metrics for every graph in a packed batch with one trunk
    /// evaluation over the block-diagonal union: the three GCN layers and
    /// the segment-mean pool run as a few large (blocked) GEMMs, and each
    /// head requested anywhere in the batch runs once over the pooled
    /// `[num_graphs × hidden]` embedding.
    ///
    /// `metrics[i]` lists the metric indices wanted for graph `i`; the
    /// return value is shaped the same way. The results are
    /// bitwise-identical to calling [`CellModel::predict_many`] per
    /// graph — every trunk operation is row-independent over the union,
    /// and the pooled segments are the contiguous per-graph node ranges
    /// in serial order.
    ///
    /// # Panics
    ///
    /// Panics if `metrics.len() != batch.num_graphs()` or a metric index
    /// is out of range.
    pub fn predict_batch(&self, batch: &BatchedCellGraph, metrics: &[&[usize]]) -> Vec<Vec<f64>> {
        assert_eq!(
            metrics.len(),
            batch.num_graphs,
            "one metric list per graph in the batch"
        );
        let mut needed: Vec<usize> = metrics.iter().flat_map(|m| m.iter().copied()).collect();
        needed.sort_unstable();
        needed.dedup();
        Graph::with_scratch(|g| {
            let pooled = self.trunk(g, &self.params, batch);
            let mut columns: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
            for &metric in &needed {
                let pred = self.heads[metric].forward(g, &self.params, pooled);
                let v = g.value(pred);
                columns.insert(metric, (0..batch.num_graphs).map(|i| v.get(i, 0)).collect());
            }
            metrics
                .iter()
                .enumerate()
                .map(|(gi, ms)| {
                    ms.iter()
                        .map(|&m| {
                            let (mean, std) = self.norms[m];
                            10.0_f64.powf(columns[&m][gi] * std + mean)
                        })
                        .collect()
                })
                .collect()
        })
    }

    /// Serializes the trained model into an artifact of kind
    /// `"cell-model"`: weights in canonical order, the per-metric
    /// `(mean, std)` norm table as a final `METRICS.len()×2` tensor,
    /// and the architecture config in the meta header.
    pub fn to_artifact(&self) -> stco_store::Artifact {
        use crate::artifact::{num, pack_model};
        use stco_obs::json::JsonValue;
        let norm_data = self.norms.iter().flat_map(|&(mean, std)| [mean, std]);
        pack_model(
            Self::ARTIFACT_KIND,
            &[
                ("depth", num(self.config.depth)),
                ("hidden", num(self.config.hidden)),
                ("head_hidden", num(self.config.head_hidden)),
                ("learning_rate", JsonValue::Num(self.config.learning_rate)),
                ("seed", JsonValue::Str(self.config.seed.to_string())),
            ],
            &self.params,
            Matrix::from_vec(self.norms.len(), 2, norm_data.collect()),
        )
    }

    /// Rehydrates a model from an artifact; predicts bitwise-identically
    /// to the saved model.
    ///
    /// # Errors
    ///
    /// Typed [`stco_store::StoreError`]s on kind mismatch, missing meta
    /// fields, or tensors that do not fit the architecture.
    pub fn from_artifact(
        artifact: &stco_store::Artifact,
    ) -> std::result::Result<Self, stco_store::StoreError> {
        let (weights, norms) = crate::artifact::unpack_model(artifact, Self::ARTIFACT_KIND)?;
        let config = CellModelConfig {
            depth: crate::artifact::meta_usize(artifact, "depth")?,
            hidden: crate::artifact::meta_usize(artifact, "hidden")?,
            head_hidden: crate::artifact::meta_usize(artifact, "head_hidden")?,
            learning_rate: artifact.meta_f64("learning_rate")?,
            seed: artifact.meta_u64_str("seed")?,
        };
        let mut model = CellModel::new(config);
        crate::artifact::import_weights(&mut model.params, weights)?;
        if norms.rows() != METRICS.len() || norms.cols() != 2 {
            return Err(stco_store::StoreError::Header {
                context: format!(
                    "cell norm tensor is {}×{}, want {}×2",
                    norms.rows(),
                    norms.cols(),
                    METRICS.len()
                ),
            });
        }
        let ns = norms.as_slice();
        for (m, pair) in model.norms.iter_mut().enumerate() {
            *pair = (ns[2 * m], ns[2 * m + 1]);
        }
        Ok(model)
    }

    /// Per-metric MAPE (%) over a dataset — the Table IV report.
    ///
    /// Returns `(metric_name, mape_percent, count)` for every metric with
    /// at least one sample.
    ///
    /// # Errors
    ///
    /// Returns [`SurrogateError::BadDataset`] on an empty set.
    pub fn evaluate_mape(&self, samples: &[CellSample]) -> Result<Vec<(String, f64, usize)>> {
        if samples.is_empty() {
            return Err(SurrogateError::BadDataset {
                context: "empty evaluation set".into(),
            });
        }
        let mut acc: BTreeMap<usize, (f64, usize)> = BTreeMap::new();
        for s in samples {
            // Skip degenerate near-zero targets (clamped measurements):
            // percentage error is meaningless there — the same guard the
            // paper applies when it notes extremely low dynamic power
            // dominates the percentage error.
            if s.value < 1.0e-20 {
                continue;
            }
            let pred = self.predict(&s.graph, s.metric);
            let target = s.value;
            let ape = ((pred - target) / target).abs();
            let e = acc.entry(s.metric).or_insert((0.0, 0));
            e.0 += ape;
            e.1 += 1;
        }
        Ok(acc
            .into_iter()
            .map(|(m, (total, count))| {
                (
                    METRICS[m].to_string(),
                    100.0 * total / count.max(1) as f64,
                    count,
                )
            })
            .collect())
    }
}

/// The `log₁₀` of a sample's value, clamped away from zero.
fn log_value(sample: &CellSample) -> f64 {
    sample.value.max(1e-21).log10()
}

#[cfg(test)]
mod tests {
    use super::*;
    use stco_cells::encode::{encode_cell, EncodingContext};
    use stco_cells::library::{CellKind, CellType};
    use stco_compact::tech::{Corner, TechnologyCard};
    use stco_tcad::materials::Technology;

    /// A synthetic dataset: the "delay" of a cell is taken to be a smooth
    /// function of V_DD and load, measured noiselessly. The GCN must
    /// learn it from the encodings alone.
    fn synthetic_samples(kinds: &[CellKind], corners: &[Corner]) -> Vec<CellSample> {
        let base = TechnologyCard::reference(Technology::Ltps);
        let mut out = Vec::new();
        for &kind in kinds {
            let cell = CellType::by_kind(kind);
            for corner in corners {
                let card = base.at_corner(*corner);
                let built = cell.build(&card, 1.0);
                let load = 10.0e-15 * corner.cox_scale;
                let graph = encode_cell(&built, &EncodingContext::all_rising(&cell, 2.0e-9, load));
                // Smooth pseudo-delay: ∝ load / V_DD², scaled per cell.
                let scale = 1.0 + cell.transistor_count() as f64 / 10.0;
                let value = scale * load / (corner.vdd * corner.vdd) * 1.0e12;
                out.push(CellSample {
                    graph,
                    metric: 0,
                    value,
                });
            }
        }
        out
    }

    #[test]
    fn gcn_learns_synthetic_delay_law() {
        let grid = stco_compact::tech::CornerGrid::default();
        let train_corners = grid.corners(3);
        let test_corners = grid.corners(2);
        let kinds = [CellKind::Inv, CellKind::Nand2, CellKind::Nor2];
        let train = synthetic_samples(&kinds, &train_corners);
        let test = synthetic_samples(&kinds, &test_corners);
        let mut model = CellModel::new(CellModelConfig {
            hidden: 16,
            head_hidden: 16,
            learning_rate: 5.0e-3,
            ..CellModelConfig::default()
        });
        model
            .train(
                &train,
                &test,
                &TrainConfig {
                    epochs: 60,
                    batch_size: 8,
                    patience: Some(20),
                    ..TrainConfig::default()
                },
            )
            .unwrap();
        let mape = model.evaluate_mape(&test).unwrap();
        let (name, err, count) = &mape[0];
        assert_eq!(name, "delay");
        assert_eq!(*count, kinds.len() * test_corners.len());
        assert!(*err < 20.0, "MAPE {err:.1}% too high");
    }

    #[test]
    fn training_without_validation_keeps_the_last_epoch() -> Result<()> {
        let grid = stco_compact::tech::CornerGrid::default();
        let train = synthetic_samples(&[CellKind::Inv, CellKind::Nand2], &grid.corners(2));
        let run = |epochs| -> Result<(Vec<u64>, usize)> {
            let mut model = CellModel::new(CellModelConfig::default());
            let config = TrainConfig {
                epochs,
                batch_size: 4,
                ..TrainConfig::default()
            };
            let history = model.train(&train, &[], &config)?;
            let bits = model
                .to_artifact()
                .tensors
                .iter()
                .flat_map(|t| t.as_slice().iter().map(|v| v.to_bits()))
                .collect();
            Ok((bits, history.best_epoch))
        };
        let (one_epoch, _) = run(1)?;
        let (three_epochs, best_epoch) = run(3)?;
        assert_eq!(best_epoch, 2, "the last epoch's weights are returned");
        assert!(one_epoch != three_epochs, "epochs after the first are kept");
        Ok(())
    }

    #[test]
    fn metric_names_round_trip() {
        for (i, m) in METRICS.iter().enumerate() {
            assert_eq!(metric_index(m), Some(i));
        }
        assert_eq!(metric_index("nope"), None);
    }

    #[test]
    fn empty_training_is_rejected() {
        let mut model = CellModel::new(CellModelConfig::default());
        assert!(model.train(&[], &[], &TrainConfig::default()).is_err());
        assert!(model.evaluate_mape(&[]).is_err());
    }

    #[test]
    fn batched_forward_is_bitwise_identical_to_serial() {
        let grid = stco_compact::tech::CornerGrid::default();
        let corners = grid.corners(3);
        let kinds = [CellKind::Inv, CellKind::Nand2, CellKind::Nor2];
        let samples = synthetic_samples(&kinds, &corners);
        let model = CellModel::new(CellModelConfig::default());
        let graphs: Vec<&CellGraph> = samples.iter().map(|s| &s.graph).collect();
        // Heterogeneous metric lists exercise the union-of-heads path.
        let lists: Vec<Vec<usize>> = (0..graphs.len())
            .map(|i| match i % 3 {
                0 => vec![0, 4, 8],
                1 => vec![2],
                _ => vec![7, 1],
            })
            .collect();
        let metric_refs: Vec<&[usize]> = lists.iter().map(Vec::as_slice).collect();
        let batch = BatchedCellGraph::pack(&graphs);
        assert_eq!(batch.num_graphs(), graphs.len());
        let batched = model.predict_batch(&batch, &metric_refs);
        for (gi, (graph, ms)) in graphs.iter().zip(&lists).enumerate() {
            let serial = model.predict_many(graph, ms);
            for (j, (b, s)) in batched[gi].iter().zip(&serial).enumerate() {
                assert_eq!(
                    b.to_bits(),
                    s.to_bits(),
                    "graph {gi} metric {} differs: batched {b:e} vs serial {s:e}",
                    ms[j]
                );
            }
        }
    }
}
