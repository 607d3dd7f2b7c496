//! The Poisson emulator: node regression of the electrostatic potential
//! over the unified device encoding.
//!
//! Architecture (paper §II-A): a deep RelGAT — graph attention with edge
//! features — with LayerNorm after every layer and an MLP head. The paper
//! uses 12 layers × 2 heads (≈1 M parameters); depth, head count and
//! width are configurable so scaled-down reproductions state their
//! configuration explicitly.

use stco_nn::ad::kernels;
use stco_nn::gnn::{EdgeProjections, RelGatStack};
use stco_nn::layers::{Activation, Mlp};
use stco_nn::train::{fit_parallel, TrainConfig};
use stco_nn::Params;
use stco_numerics::{stats, Matrix};
use stco_tcad::dataset::DeviceSample;

use crate::encoding::{potential_targets, DeviceGraph, TaskFeatures, EDGE_DIM, NODE_DIM};
use crate::{Result, SurrogateError};

/// Architecture hyperparameters.
#[derive(Debug, Clone, Copy)]
pub struct PoissonConfig {
    /// Number of RelGAT layers (paper: 12).
    pub depth: usize,
    /// Attention heads per layer (paper: 2).
    pub heads: usize,
    /// Per-head feature width.
    pub head_dim: usize,
    /// Learning rate.
    pub learning_rate: f64,
    /// Weight seed.
    pub seed: u64,
}

impl Default for PoissonConfig {
    fn default() -> Self {
        PoissonConfig {
            depth: 4,
            heads: 2,
            head_dim: 8,
            learning_rate: 3.0e-3,
            seed: 42,
        }
    }
}

impl PoissonConfig {
    /// The paper-scale configuration (12 layers, 2 heads, ≈1 M params).
    pub fn paper_scale() -> Self {
        PoissonConfig {
            depth: 12,
            heads: 2,
            head_dim: 128,
            learning_rate: 1.0e-3,
            seed: 42,
        }
    }
}

/// A trained (or trainable) Poisson emulator.
#[derive(Debug, Clone)]
pub struct PoissonEmulator {
    params: Params,
    stack: RelGatStack,
    head: Mlp,
    config: PoissonConfig,
    target_mean: f64,
    target_std: f64,
}

impl PoissonEmulator {
    /// Artifact kind tag for [`PoissonEmulator::to_artifact`].
    pub const ARTIFACT_KIND: &'static str = "poisson-emulator";

    /// Builds an untrained emulator.
    pub fn new(config: PoissonConfig) -> Self {
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
        let head = Mlp::new(&mut params, &[hidden, hidden, 1], Activation::Elu);
        PoissonEmulator {
            params,
            stack,
            head,
            config,
            target_mean: 0.0,
            target_std: 1.0,
        }
    }

    /// Total scalar parameter count (the paper quotes ≈1 M at full scale).
    pub fn parameter_count(&self) -> usize {
        self.params.scalar_count()
    }

    /// The configuration in use.
    pub fn config(&self) -> &PoissonConfig {
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
        // Standardize targets over the training set.
        let all_psi: Vec<f64> = train
            .iter()
            .flat_map(|s| s.solution.psi.iter().copied())
            .collect();
        let (mean, std) = stats::mean_std(&all_psi)?;
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
                let x = g.input(mesh.node_features(&train[i], TaskFeatures::Poisson));
                let e = g.input(mesh.edge_features().clone());
                let t = g.input(self.standardized_targets(&train[i]));
                let h =
                    self.stack
                        .forward(g, params, x, e, mesh.src(), mesh.dst(), mesh.num_nodes());
                let pred = self.head.forward(g, params, h);
                g.mse_loss(pred, t)
            },
            val.len(),
            |params, i| {
                let mesh = &val_meshes[i];
                let edges = self.stack.project_edges(params, mesh.edge_features());
                let nodes = mesh.node_features(&val[i], TaskFeatures::Poisson);
                let pred = self.standardized(params, &nodes, mesh.src(), mesh.dst(), &edges);
                let t = self.standardized_targets(&val[i]);
                kernels::mse(pred.as_slice(), t.as_slice())
            },
        );
        self.params = params;
        Ok(history)
    }

    /// The potential map of `sample` in standardized units: the
    /// regression target of training and validation.
    fn standardized_targets(&self, sample: &DeviceSample) -> Matrix {
        let mut t = potential_targets(sample);
        for v in t.as_mut_slice() {
            *v = (*v - self.target_mean) / self.target_std;
        }
        t
    }

    /// Predicts the potential map of one sample (volts): prepares the
    /// sample's mesh and runs [`PoissonEmulator::predict_prepared`] on
    /// it, so a loop over one device's solves prepares the mesh once
    /// and gets the same bits.
    pub fn predict(&self, sample: &DeviceSample) -> Vec<f64> {
        let mesh = DeviceGraph::new(&sample.device);
        let edges = self.project_edges(&mesh);
        let nodes = mesh.node_features(sample, TaskFeatures::Poisson);
        self.predict_prepared(&mesh, &edges, &nodes)
    }

    /// This model's edge projections on one device mesh: the part of a
    /// forward the mesh fixes, computed once and reused by every
    /// [`PoissonEmulator::predict_prepared`] on that mesh.
    pub fn project_edges(&self, mesh: &DeviceGraph) -> EdgeProjections {
        self.stack.project_edges(&self.params, mesh.edge_features())
    }

    /// Predicts the potential map of one solve on a prepared mesh, in
    /// volts: `edges` from [`PoissonEmulator::project_edges`] on `mesh`,
    /// and `nodes` the solve's Poisson-task node features
    /// ([`DeviceGraph::node_features`] or [`DeviceGraph::refresh`]).
    pub fn predict_prepared(
        &self,
        mesh: &DeviceGraph,
        edges: &EdgeProjections,
        nodes: &Matrix,
    ) -> Vec<f64> {
        let pred = self.standardized(&self.params, nodes, mesh.src(), mesh.dst(), edges);
        pred.as_slice()
            .iter()
            .map(|v| v * self.target_std + self.target_mean)
            .collect()
    }

    /// The off-tape forward every prediction and every validation runs:
    /// one standardized potential per node, under `params`.
    fn standardized(
        &self,
        params: &Params,
        nodes: &Matrix,
        src: &[usize],
        dst: &[usize],
        edges: &EdgeProjections,
    ) -> Matrix {
        let h = self.stack.infer(params, nodes, src, dst, edges);
        self.head.infer(params, h)
    }

    /// Serializes the trained model (weights + target normalization +
    /// architecture config) into a [`stco_store::Artifact`] of kind
    /// `"poisson-emulator"`.
    pub fn to_artifact(&self) -> stco_store::Artifact {
        use crate::artifact::{num, pack_model};
        use stco_obs::json::JsonValue;
        pack_model(
            Self::ARTIFACT_KIND,
            &[
                ("depth", num(self.config.depth)),
                ("heads", num(self.config.heads)),
                ("head_dim", num(self.config.head_dim)),
                ("learning_rate", JsonValue::Num(self.config.learning_rate)),
                ("seed", JsonValue::Str(self.config.seed.to_string())),
            ],
            &self.params,
            Matrix::from_vec(1, 2, vec![self.target_mean, self.target_std]),
        )
    }

    /// Rehydrates a model from an artifact: rebuilds the architecture
    /// from the meta header, imports the weight tensors in canonical
    /// order and restores the target normalization. The result predicts
    /// bitwise-identically to the model that produced the artifact.
    ///
    /// # Errors
    ///
    /// Typed [`stco_store::StoreError`]s: `WrongKind` for a different
    /// model kind, `Header` for missing meta fields or tensors that do
    /// not fit the declared architecture.
    pub fn from_artifact(
        artifact: &stco_store::Artifact,
    ) -> std::result::Result<Self, stco_store::StoreError> {
        let (weights, norms) = crate::artifact::unpack_model(artifact, Self::ARTIFACT_KIND)?;
        let config = PoissonConfig {
            depth: crate::artifact::meta_usize(artifact, "depth")?,
            heads: crate::artifact::meta_usize(artifact, "heads")?,
            head_dim: crate::artifact::meta_usize(artifact, "head_dim")?,
            learning_rate: artifact.meta_f64("learning_rate")?,
            seed: artifact.meta_u64_str("seed")?,
        };
        let mut model = PoissonEmulator::new(config);
        crate::artifact::import_weights(&mut model.params, weights)?;
        (model.target_mean, model.target_std) = crate::artifact::norm_pair(norms, "poisson")?;
        Ok(model)
    }

    /// Evaluates normalized-target MSE and R² (the Table II metrics) over
    /// a dataset.
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
            let p = self.predict(s);
            preds.extend(p.iter().map(|v| (v - self.target_mean) / self.target_std));
            targets.extend(
                s.solution
                    .psi
                    .iter()
                    .map(|v| (v - self.target_mean) / self.target_std),
            );
        }
        Ok(RegressionMetrics {
            mse: stats::mse(&preds, &targets)?,
            // R² is undefined for (near-)constant target sets, which tiny
            // smoke-test splits can produce; report NaN rather than fail.
            r_squared: stats::r_squared(&preds, &targets).unwrap_or(f64::NAN),
            count: targets.len(),
        })
    }
}

/// MSE/R² pair over a dataset (normalized-target units, as Table II).
#[derive(Debug, Clone, Copy)]
pub struct RegressionMetrics {
    /// Mean squared error on standardized targets.
    pub mse: f64,
    /// Coefficient of determination.
    pub r_squared: f64,
    /// Number of scalar predictions evaluated.
    pub count: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use stco_tcad::dataset::generate_dataset;
    use stco_tcad::materials::Technology;

    #[test]
    fn emulator_learns_potential_maps() {
        let data = generate_dataset(21, 8, &[Technology::Igzo]).unwrap();
        let (train, val) = data.split_at(6);
        let mut model = PoissonEmulator::new(PoissonConfig {
            depth: 2,
            heads: 1,
            head_dim: 8,
            learning_rate: 5.0e-3,
            seed: 3,
        });
        let before = model.evaluate(val).unwrap();
        let history = model
            .train(
                train,
                val,
                &TrainConfig {
                    epochs: 30,
                    batch_size: 2,
                    patience: None,
                    ..TrainConfig::default()
                },
            )
            .unwrap();
        let after = model.evaluate(val).unwrap();
        assert!(
            after.mse < 0.5 * before.mse,
            "training must cut val MSE: {} → {} (history {:?})",
            before.mse,
            after.mse,
            history.train_loss.last()
        );
        assert!(after.r_squared > 0.5, "R² {}", after.r_squared);
    }

    #[test]
    fn paper_scale_parameter_count_is_about_a_million() {
        let model = PoissonEmulator::new(PoissonConfig::paper_scale());
        let count = model.parameter_count();
        assert!(
            (600_000..1_600_000).contains(&count),
            "paper-scale params: {count}"
        );
    }

    #[test]
    fn predict_returns_one_value_per_node() {
        let data = generate_dataset(22, 1, &[Technology::Ltps]).unwrap();
        let model = PoissonEmulator::new(PoissonConfig::default());
        let p = model.predict(&data[0]);
        assert_eq!(p.len(), data[0].device.mesh().num_nodes());
        assert!(p.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn empty_sets_are_rejected() {
        let mut model = PoissonEmulator::new(PoissonConfig::default());
        assert!(model.train(&[], &[], &TrainConfig::default()).is_err());
        assert!(model.evaluate(&[]).is_err());
    }
}
