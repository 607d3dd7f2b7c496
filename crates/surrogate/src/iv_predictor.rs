//! The IV predictor: graph regression of the terminal drain current.
//!
//! Architecture (paper §II-A): a shallower RelGAT — 3 layers, one
//! attention head — followed by a 4-layer MLP over the mean-pooled graph
//! embedding (≈0.15 M parameters at paper scale). The node features
//! include both the self-consistent charge density and the potential,
//! and the regression target is `log₁₀|I_D|` (currents span many
//! decades).

use std::sync::Arc;

use stco_nn::ad::kernels;
use stco_nn::gnn::{EdgeProjections, RelGatStack};
use stco_nn::layers::{Activation, Mlp};
use stco_nn::train::{fit_parallel, TrainConfig};
use stco_nn::Params;
use stco_numerics::{stats, Matrix};
use stco_tcad::dataset::DeviceSample;

use crate::encoding::{DeviceGraph, TaskFeatures, EDGE_DIM, NODE_DIM};
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

    /// Trains on `train`, validating on `val` each epoch to pick the
    /// checkpoint it keeps and to stop early; with an empty `val` the
    /// run keeps its last epoch.
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

        let meshes: Vec<DeviceGraph> = train.iter().map(|s| DeviceGraph::new(&s.device)).collect();
        let val_meshes: Vec<DeviceGraph> =
            val.iter().map(|s| DeviceGraph::new(&s.device)).collect();
        // The forwards below borrow the model, so train a copy of its
        // weights and install it at the end.
        let mut params = self.params.clone();
        let history = fit_parallel(
            &mut params,
            train_config,
            self.config.learning_rate,
            train.len(),
            |g, params, i| {
                let mesh = &meshes[i];
                let x = g.input(mesh.node_features(&train[i], TaskFeatures::Iv));
                let e = g.input(mesh.edge_features().clone());
                let n = mesh.num_nodes();
                let h = self
                    .stack
                    .forward(g, params, x, e, mesh.src(), mesh.dst(), n);
                let pooled = g.segment_mean(h, Arc::new(vec![0; n]), 1);
                let pred = self.head.forward(g, params, pooled);
                let t = g.input(Matrix::from_vec(1, 1, vec![self.standardize(&train[i])]));
                g.mse_loss(pred, t)
            },
            val.len(),
            |params, i| {
                let mesh = &val_meshes[i];
                let edges = self.stack.project_edges(params, mesh.edge_features());
                let nodes = mesh.node_features(&val[i], TaskFeatures::Iv);
                let pred = self.standardized(params, &nodes, mesh.src(), mesh.dst(), &edges);
                kernels::mse(&[pred], &[self.standardize(&val[i])])
            },
        );
        self.params = params;
        Ok(history)
    }

    /// The standardized `log₁₀|I_D|` of `sample`: the regression target
    /// of training and validation.
    fn standardize(&self, sample: &DeviceSample) -> f64 {
        (sample.log_current() - self.target_mean) / self.target_std
    }

    /// Predicts `log₁₀|I_D|` for one sample: prepares the sample's mesh
    /// and runs [`IvPredictor::predict_log_current_prepared`] on it, so a
    /// loop over one device's solves prepares the mesh once and gets the
    /// same bits.
    pub fn predict_log_current(&self, sample: &DeviceSample) -> f64 {
        let mesh = DeviceGraph::new(&sample.device);
        let edges = self.project_edges(&mesh);
        let nodes = mesh.node_features(sample, TaskFeatures::Iv);
        self.predict_log_current_prepared(&mesh, &edges, &nodes)
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
    /// [`DeviceGraph::refresh`]).
    pub fn predict_log_current_prepared(
        &self,
        mesh: &DeviceGraph,
        edges: &EdgeProjections,
        nodes: &Matrix,
    ) -> f64 {
        let z = self.standardized(&self.params, nodes, mesh.src(), mesh.dst(), edges);
        z * self.target_std + self.target_mean
    }

    /// The off-tape forward every prediction and every validation runs,
    /// under `params`: the stack, mean pooling over all nodes (the tape's
    /// `segment_mean` kernel with one segment), then the MLP head, giving
    /// the standardized `log₁₀|I_D|`.
    fn standardized(
        &self,
        params: &Params,
        nodes: &Matrix,
        src: &[usize],
        dst: &[usize],
        edges: &EdgeProjections,
    ) -> f64 {
        let h = self.stack.infer(params, nodes, src, dst, edges);
        let mut pooled = Matrix::zeros(1, h.cols());
        kernels::segment_mean(&h, &vec![0; h.rows()], &mut pooled);
        self.head.infer(params, pooled).get(0, 0)
    }

    /// Serializes the trained model into an artifact of kind
    /// `"iv-predictor"` (weights + normalization + architecture).
    pub fn to_artifact(&self) -> stco_store::Artifact {
        use crate::artifact::{num, pack_model};
        use stco_obs::json::JsonValue;
        pack_model(
            Self::ARTIFACT_KIND,
            &[
                ("depth", num(self.config.depth)),
                ("heads", num(self.config.heads)),
                ("head_dim", num(self.config.head_dim)),
                ("mlp_hidden", num(self.config.mlp_hidden)),
                ("learning_rate", JsonValue::Num(self.config.learning_rate)),
                ("seed", JsonValue::Str(self.config.seed.to_string())),
            ],
            &self.params,
            Matrix::from_vec(1, 2, vec![self.target_mean, self.target_std]),
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
        (model.target_mean, model.target_std) = crate::artifact::norm_pair(norms, "iv")?;
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
