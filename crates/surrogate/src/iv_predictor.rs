//! The IV predictor: graph regression of the terminal drain current.
//!
//! Architecture (paper §II-A): a shallower RelGAT — 3 layers, one
//! attention head — followed by a 4-layer MLP over the mean-pooled graph
//! embedding (≈0.15 M parameters at paper scale). The node features
//! include both the self-consistent charge density and the potential,
//! and the regression target is `log₁₀|I_D|` (currents span many
//! decades).

use std::sync::Arc;

use stco_nn::ad::{kernels, Graph};
use stco_nn::gnn::{EdgeProjections, GraphData, RelGatStack};
use stco_nn::layers::{Activation, Mlp};
use stco_nn::optim::Adam;
use stco_nn::train::{fit, parallel_batch_step, TrainConfig};
use stco_nn::Params;
use stco_numerics::{stats, Matrix};
use stco_par::ParConfig;
use stco_tcad::dataset::DeviceSample;

use crate::encoding::{encode_device, index_lists, DeviceGraph, TaskFeatures, EDGE_DIM, NODE_DIM};
use crate::poisson_emulator::RegressionMetrics;
use crate::{Result, SurrogateError};

/// Architecture hyperparameters.
#[derive(Debug, Clone, Copy)]
pub struct IvConfig {
    /// RelGAT depth (paper: 3).
    pub depth: usize,
    /// Attention heads (paper: 1).
    pub heads: usize,
    /// Per-head width.
    pub head_dim: usize,
    /// MLP hidden width (4 linear layers total, as the paper).
    pub mlp_hidden: usize,
    /// Learning rate.
    pub learning_rate: f64,
    /// Weight seed.
    pub seed: u64,
}

impl Default for IvConfig {
    fn default() -> Self {
        IvConfig {
            depth: 3,
            heads: 1,
            head_dim: 12,
            mlp_hidden: 24,
            learning_rate: 3.0e-3,
            seed: 7,
        }
    }
}

impl IvConfig {
    /// The paper-scale configuration (≈0.15 M parameters).
    pub fn paper_scale() -> Self {
        IvConfig {
            depth: 3,
            heads: 1,
            head_dim: 144,
            mlp_hidden: 192,
            learning_rate: 1.0e-3,
            seed: 7,
        }
    }
}

/// A trained (or trainable) IV predictor.
#[derive(Debug, Clone)]
pub struct IvPredictor {
    params: Params,
    stack: RelGatStack,
    head: Mlp,
    config: IvConfig,
    target_mean: f64,
    target_std: f64,
}

/// The index lists one forward pass needs beside the graph: edge
/// endpoints and the all-zero pooling segment.
struct IvIndex {
    src: Arc<Vec<usize>>,
    dst: Arc<Vec<usize>>,
    seg: Arc<Vec<usize>>,
}

impl IvIndex {
    fn of(graph: &GraphData) -> Self {
        let (src, dst) = index_lists(graph);
        IvIndex {
            src,
            dst,
            seg: Arc::new(vec![0usize; graph.num_nodes()]),
        }
    }
}

struct EncodedIv {
    graph: GraphData,
    index: IvIndex,
    target: f64,
}

fn encode(sample: &DeviceSample) -> EncodedIv {
    let graph = encode_device(sample, TaskFeatures::Iv);
    EncodedIv {
        index: IvIndex::of(&graph),
        graph,
        target: sample.log_current(),
    }
}

impl IvPredictor {
    /// Artifact kind tag for [`IvPredictor::to_artifact`].
    pub const ARTIFACT_KIND: &'static str = "iv-predictor";

    /// Builds an untrained predictor.
    pub fn new(config: IvConfig) -> Self {
        let mut params = Params::new(config.seed);
        let stack = RelGatStack::new(
            &mut params,
            NODE_DIM,
            EDGE_DIM,
            config.head_dim,
            config.heads,
            config.depth,
        );
        let hidden = stack.hidden_dim();
        // 4-layer MLP head, as the paper specifies.
        let head = Mlp::new(
            &mut params,
            &[
                hidden,
                config.mlp_hidden,
                config.mlp_hidden,
                config.mlp_hidden / 2,
                1,
            ],
            Activation::Elu,
        );
        IvPredictor {
            params,
            stack,
            head,
            config,
            target_mean: 0.0,
            target_std: 1.0,
        }
    }

    /// Total scalar parameter count (paper quotes ≈0.15 M at full scale).
    pub fn parameter_count(&self) -> usize {
        self.params.scalar_count()
    }

    /// The configuration in use.
    pub fn config(&self) -> &IvConfig {
        &self.config
    }

    /// Trains on the samples, validating each epoch.
    ///
    /// # Errors
    ///
    /// Returns [`SurrogateError::BadDataset`] on an empty training set.
    pub fn train(
        &mut self,
        train: &[DeviceSample],
        val: &[DeviceSample],
        train_config: &TrainConfig,
    ) -> Result<stco_nn::train::TrainHistory> {
        if train.is_empty() {
            return Err(SurrogateError::BadDataset {
                context: "empty training set".into(),
            });
        }
        let targets: Vec<f64> = train.iter().map(|s| s.log_current()).collect();
        let (mean, std) = stats::mean_std(&targets)?;
        self.target_mean = mean;
        self.target_std = std.max(1e-9);

        let encoded: Vec<EncodedIv> = train.iter().map(encode).collect();
        let val_encoded: Vec<EncodedIv> = val.iter().map(encode).collect();
        let mut adam = Adam::with_learning_rate(self.config.learning_rate);
        let stack = self.stack.clone();
        let head = self.head.clone();
        let (t_mean, t_std) = (self.target_mean, self.target_std);

        let history = fit(
            &mut self.params,
            train_config,
            encoded.len(),
            |batch, params| {
                // Batch-accumulated SGD with deterministic parallel
                // gradient reduction; one optimizer step per batch.
                let loss =
                    parallel_batch_step(ParConfig::current(), params, batch, |g, params, idx| {
                        let item = &encoded[idx];
                        let pred = forward_one(&stack, &head, params, &item.graph, &item.index, g);
                        let t = g.input(stco_numerics::Matrix::from_vec(
                            1,
                            1,
                            vec![(item.target - t_mean) / t_std],
                        ));
                        g.mse_loss(pred, t)
                    });
                params.clip_grad_norm(5.0);
                adam.step(params);
                loss
            },
            Some(|params: &Params| {
                if val_encoded.is_empty() {
                    return 0.0;
                }
                let mut total = 0.0;
                for item in &val_encoded {
                    let p = Graph::with_scratch(|g| {
                        let pred = forward_one(&stack, &head, params, &item.graph, &item.index, g);
                        g.value(pred).get(0, 0)
                    });
                    let t = (item.target - t_mean) / t_std;
                    total += (p - t) * (p - t);
                }
                total / val_encoded.len() as f64
            }),
        );
        Ok(history)
    }

    /// Predicts `log₁₀|I_D|` for one sample.
    pub fn predict_log_current(&self, sample: &DeviceSample) -> f64 {
        self.predict_log_current_graph(&encode_device(sample, TaskFeatures::Iv))
    }

    /// Predicts `log₁₀|I_D|` from an already-encoded device graph (the
    /// serving path). Bitwise-identical to
    /// [`IvPredictor::predict_log_current`] on the sample the graph was
    /// encoded from.
    pub fn predict_log_current_graph(&self, graph: &GraphData) -> f64 {
        let (src, dst) = index_lists(graph);
        let edges = self.stack.project_edges(&self.params, &graph.edge_features);
        self.infer(&graph.node_features, &src, &dst, &edges)
    }

    /// This model's edge projections on one device mesh: the part of a
    /// forward the mesh fixes, computed once and reused by every
    /// [`IvPredictor::predict_log_current_prepared`] on that mesh.
    pub fn project_edges(&self, mesh: &DeviceGraph) -> EdgeProjections {
        self.stack.project_edges(&self.params, mesh.edge_features())
    }

    /// Predicts `log₁₀|I_D|` of one solve on a prepared mesh: `edges`
    /// from [`IvPredictor::project_edges`] on `mesh`, and `nodes` the
    /// solve's IV-task node features ([`DeviceGraph::node_features`] or
    /// [`DeviceGraph::refresh`]). Bitwise-identical to
    /// [`IvPredictor::predict_log_current`] on that solve.
    pub fn predict_log_current_prepared(
        &self,
        mesh: &DeviceGraph,
        edges: &EdgeProjections,
        nodes: &Matrix,
    ) -> f64 {
        self.infer(nodes, mesh.src(), mesh.dst(), edges)
    }

    /// The off-tape forward every prediction runs: the stack, mean
    /// pooling over all nodes (the tape's `segment_mean` kernel with
    /// one segment), then the MLP head.
    fn infer(&self, nodes: &Matrix, src: &[usize], dst: &[usize], edges: &EdgeProjections) -> f64 {
        let h = self.stack.infer(&self.params, nodes, src, dst, edges);
        let mut pooled = Matrix::zeros(1, h.cols());
        kernels::segment_mean(&h, &vec![0; h.rows()], &mut pooled);
        let pred = self.head.infer(&self.params, pooled);
        pred.get(0, 0) * self.target_std + self.target_mean
    }

    /// Serializes the trained model into an artifact of kind
    /// `"iv-predictor"` (weights + normalization + architecture).
    pub fn to_artifact(&self) -> stco_store::Artifact {
        use stco_obs::json::JsonValue;
        crate::artifact::pack_model(
            Self::ARTIFACT_KIND,
            vec![
                ("depth".to_string(), crate::artifact::num(self.config.depth)),
                ("heads".to_string(), crate::artifact::num(self.config.heads)),
                (
                    "head_dim".to_string(),
                    crate::artifact::num(self.config.head_dim),
                ),
                (
                    "mlp_hidden".to_string(),
                    crate::artifact::num(self.config.mlp_hidden),
                ),
                (
                    "learning_rate".to_string(),
                    JsonValue::Num(self.config.learning_rate),
                ),
                (
                    "seed".to_string(),
                    JsonValue::Str(self.config.seed.to_string()),
                ),
            ],
            &self.params,
            stco_numerics::Matrix::from_vec(1, 2, vec![self.target_mean, self.target_std]),
        )
    }

    /// Rehydrates a predictor from an artifact; bitwise-faithful to the
    /// saved model.
    ///
    /// # Errors
    ///
    /// Typed [`stco_store::StoreError`]s on kind mismatch, missing meta
    /// fields, or tensors that do not fit the architecture.
    pub fn from_artifact(
        artifact: &stco_store::Artifact,
    ) -> std::result::Result<Self, stco_store::StoreError> {
        let (weights, norms) = crate::artifact::unpack_model(artifact, Self::ARTIFACT_KIND)?;
        let config = IvConfig {
            depth: crate::artifact::meta_usize(artifact, "depth")?,
            heads: crate::artifact::meta_usize(artifact, "heads")?,
            head_dim: crate::artifact::meta_usize(artifact, "head_dim")?,
            mlp_hidden: crate::artifact::meta_usize(artifact, "mlp_hidden")?,
            learning_rate: artifact.meta_f64("learning_rate")?,
            seed: artifact.meta_u64_str("seed")?,
        };
        let mut model = IvPredictor::new(config);
        crate::artifact::import_weights(&mut model.params, weights)?;
        let ns = norms.as_slice();
        if ns.len() != 2 {
            return Err(stco_store::StoreError::Header {
                context: format!("iv norm tensor has {} values, want 2", ns.len()),
            });
        }
        model.target_mean = ns[0];
        model.target_std = ns[1];
        Ok(model)
    }

    /// Predicted drain-current magnitude, A.
    pub fn predict_current(&self, sample: &DeviceSample) -> f64 {
        current_from_log(self.predict_log_current(sample))
    }

    /// Table II metrics on normalized log-current targets.
    ///
    /// # Errors
    ///
    /// Returns [`SurrogateError::BadDataset`] on an empty set.
    pub fn evaluate(&self, samples: &[DeviceSample]) -> Result<RegressionMetrics> {
        if samples.is_empty() {
            return Err(SurrogateError::BadDataset {
                context: "empty evaluation set".into(),
            });
        }
        let mut preds = Vec::new();
        let mut targets = Vec::new();
        for s in samples {
            preds.push((self.predict_log_current(s) - self.target_mean) / self.target_std);
            targets.push((s.log_current() - self.target_mean) / self.target_std);
        }
        Ok(RegressionMetrics {
            mse: stats::mse(&preds, &targets)?,
            // R² is undefined for (near-)constant target sets (tiny
            // smoke-test splits); report NaN rather than fail.
            r_squared: stats::r_squared(&preds, &targets).unwrap_or(f64::NAN),
            count: targets.len(),
        })
    }
}

/// The drain-current magnitude, A, of a predicted `log₁₀|I_D|`.
pub fn current_from_log(log_current: f64) -> f64 {
    10.0_f64.powf(log_current)
}

/// One forward pass over a borrowed graph: its two feature matrices are
/// the only data copied (onto the tape).
fn forward_one(
    stack: &RelGatStack,
    head: &Mlp,
    params: &Params,
    graph: &GraphData,
    index: &IvIndex,
    g: &mut Graph,
) -> stco_nn::ad::NodeId {
    let x = g.input(graph.node_features.clone());
    let e = g.input(graph.edge_features.clone());
    let h = stack.forward(g, params, x, e, &index.src, &index.dst, graph.num_nodes());
    let pooled = g.segment_mean(h, Arc::clone(&index.seg), 1);
    head.forward(g, params, pooled)
}

#[cfg(test)]
mod tests {
    use super::*;
    use stco_tcad::dataset::generate_dataset;
    use stco_tcad::materials::Technology;

    #[test]
    fn predictor_learns_current_scale() {
        let data = generate_dataset(31, 10, &[Technology::Igzo]).unwrap();
        let (train, val) = data.split_at(8);
        let mut model = IvPredictor::new(IvConfig {
            depth: 2,
            head_dim: 8,
            mlp_hidden: 16,
            learning_rate: 5.0e-3,
            ..IvConfig::default()
        });
        let before = model.evaluate(val).unwrap();
        model
            .train(
                train,
                val,
                &TrainConfig {
                    epochs: 40,
                    batch_size: 2,
                    patience: None,
                    ..TrainConfig::default()
                },
            )
            .unwrap();
        let after = model.evaluate(val).unwrap();
        assert!(
            after.mse < before.mse,
            "training must reduce val MSE: {} → {}",
            before.mse,
            after.mse
        );
    }

    #[test]
    fn paper_scale_parameter_count_is_about_150k() {
        let model = IvPredictor::new(IvConfig::paper_scale());
        let count = model.parameter_count();
        assert!(
            (90_000..260_000).contains(&count),
            "paper-scale params: {count}"
        );
    }

    #[test]
    fn predicted_current_is_positive() {
        let data = generate_dataset(32, 1, &[Technology::Cnt]).unwrap();
        let model = IvPredictor::new(IvConfig::default());
        assert!(model.predict_current(&data[0]) > 0.0);
    }

    #[test]
    fn empty_sets_are_rejected() {
        let mut model = IvPredictor::new(IvConfig::default());
        assert!(model.train(&[], &[], &TrainConfig::default()).is_err());
        assert!(model.evaluate(&[]).is_err());
    }
}
