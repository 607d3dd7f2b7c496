//! A system-evaluation surrogate — the paper's anticipated extension
//! ("with numerous AI-driven methods available to hasten system
//! evaluation, we anticipate even greater acceleration").
//!
//! A small MLP maps design statistics plus the technology corner to the
//! three PPA figures (log delay, log power, log area). Trained on a
//! handful of real [`evaluate_system`](stco_system::ppa::evaluate_system)
//! runs, it lets the RL agent sweep large corner grids in microseconds
//! and reserve real evaluations for the shortlist.

use stco_compact::tech::Corner;
use stco_nn::ad::Graph;
use stco_nn::layers::{Activation, Mlp};
use stco_nn::optim::Adam;
use stco_nn::train::{fit, TrainConfig};
use stco_nn::Params;
use stco_numerics::Matrix;
use stco_surrogate::artifact::{import_weights, pack_model, unpack_model};
use stco_system::netlist::LogicNetlist;
use stco_system::ppa::PpaReport;

use crate::{Result, StcoError};

/// Input feature width: design stats (4) + corner (3).
pub const FEATURE_DIM: usize = 7;

/// One training record: design stats + corner → measured PPA.
#[derive(Debug, Clone)]
pub struct EvalRecord {
    /// Feature vector (see [`features`]).
    pub features: [f64; FEATURE_DIM],
    /// Targets: `log10(min period)`, `log10(power)`, `log10(area)`.
    pub targets: [f64; 3],
}

impl EvalRecord {
    /// Builds a record from a real evaluation.
    pub fn from_report(logic: &LogicNetlist, corner: Corner, report: &PpaReport) -> Self {
        EvalRecord {
            features: features(logic, corner),
            targets: [
                report.timing.min_clock_period.max(1e-15).log10(),
                report.power.total().max(1e-18).log10(),
                report.area.max(1e-18).log10(),
            ],
        }
    }
}

/// The surrogate's input features for a design/corner pair.
pub fn features(logic: &LogicNetlist, corner: Corner) -> [f64; FEATURE_DIM] {
    [
        (logic.gate_count().max(1) as f64).log10(),
        (logic.flip_flops.len().max(1) as f64).log10(),
        (logic.primary_inputs.len().max(1) as f64).log10(),
        ((logic.num_nets.max(1)) as f64).log10(),
        corner.vdd,
        corner.vth_shift,
        corner.cox_scale,
    ]
}

/// A trained (or trainable) PPA predictor.
#[derive(Debug, Clone)]
pub struct SystemSurrogate {
    params: Params,
    mlp: Mlp,
    norms: [(f64, f64); 3],
}

/// Predicted PPA figures (original units).
#[derive(Debug, Clone, Copy)]
pub struct PredictedPpa {
    /// Minimum clock period, s.
    pub min_clock_period: f64,
    /// Total power, W.
    pub power: f64,
    /// Area, m².
    pub area: f64,
}

impl PredictedPpa {
    /// The same log-geometric cost the RL agent minimizes on real reports.
    pub fn cost(&self) -> f64 {
        (self.min_clock_period.max(1e-15).ln()
            + self.power.max(1e-18).ln()
            + self.area.max(1e-18).ln())
            / 3.0
    }
}

impl Default for SystemSurrogate {
    fn default() -> Self {
        Self::new(5)
    }
}

impl SystemSurrogate {
    /// Artifact kind tag for [`SystemSurrogate::to_artifact`].
    pub const ARTIFACT_KIND: &'static str = "system-surrogate";

    /// Builds an untrained surrogate.
    pub fn new(seed: u64) -> Self {
        let mut params = Params::new(seed);
        let mlp = Mlp::new(&mut params, &[FEATURE_DIM, 32, 32, 3], Activation::Tanh);
        SystemSurrogate {
            params,
            mlp,
            norms: [(0.0, 1.0); 3],
        }
    }

    /// Trains on measured evaluation records.
    ///
    /// # Errors
    ///
    /// Returns [`StcoError::InvalidConfig`] on fewer than four records
    /// (the model has three outputs; tiny sets would memorize noise).
    pub fn train(
        &mut self,
        records: &[EvalRecord],
        config: &TrainConfig,
    ) -> Result<stco_nn::train::TrainHistory> {
        if records.len() < 4 {
            return Err(StcoError::InvalidConfig {
                context: format!("need ≥ 4 evaluation records, got {}", records.len()),
            });
        }
        // Standardize each target channel.
        for ch in 0..3 {
            let vals: Vec<f64> = records.iter().map(|r| r.targets[ch]).collect();
            let (mean, std) = stco_numerics::stats::mean_std(&vals)?;
            self.norms[ch] = (mean, std.max(1e-6));
        }
        let norms = self.norms;
        let mlp = self.mlp.clone();
        let mut adam = Adam::with_learning_rate(5.0e-3);
        let history = fit(
            &mut self.params,
            config,
            records.len(),
            |batch, params| {
                let rows = batch.len();
                let mut x = Vec::with_capacity(rows * FEATURE_DIM);
                let mut t = Vec::with_capacity(rows * 3);
                for &i in batch {
                    x.extend_from_slice(&records[i].features);
                    for (ch, &(m, s)) in norms.iter().enumerate().take(3) {
                        t.push((records[i].targets[ch] - m) / s);
                    }
                }
                let mut g = Graph::new();
                let xi = g.input(Matrix::from_vec(rows, FEATURE_DIM, x));
                let ti = g.input(Matrix::from_vec(rows, 3, t));
                let pred = mlp.forward(&mut g, params, xi);
                let loss = g.mse_loss(pred, ti);
                let l = g.value(loss).get(0, 0);
                params.zero_grads();
                g.backward(loss, params);
                adam.step(params);
                l
            },
            None::<fn(&Params) -> f64>,
        );
        Ok(history)
    }

    /// Serializes the trained surrogate into an artifact of kind
    /// `"system-surrogate"`: MLP weights in canonical order plus the
    /// per-channel `(mean, std)` table as a final `3×2` tensor. The
    /// architecture is fixed (`[7, 32, 32, 3]` tanh), so no config
    /// travels in the header.
    pub fn to_artifact(&self) -> stco_store::Artifact {
        let norm_data = self.norms.iter().flat_map(|&(mean, std)| [mean, std]);
        pack_model(
            Self::ARTIFACT_KIND,
            &[],
            &self.params,
            Matrix::from_vec(3, 2, norm_data.collect()),
        )
    }

    /// Rehydrates a surrogate from an artifact; predicts
    /// bitwise-identically to the saved model.
    ///
    /// # Errors
    ///
    /// Typed [`stco_store::StoreError`]s on kind mismatch or tensors
    /// that do not fit the fixed architecture.
    pub fn from_artifact(
        artifact: &stco_store::Artifact,
    ) -> std::result::Result<Self, stco_store::StoreError> {
        let (weights, norms) = unpack_model(artifact, Self::ARTIFACT_KIND)?;
        let mut model = SystemSurrogate::new(0);
        import_weights(&mut model.params, weights)?;
        if norms.rows() != 3 || norms.cols() != 2 {
            return Err(stco_store::StoreError::Header {
                context: format!(
                    "system-surrogate norm tensor is {}×{}, want 3×2",
                    norms.rows(),
                    norms.cols()
                ),
            });
        }
        let ns = norms.as_slice();
        for (ch, pair) in model.norms.iter_mut().enumerate() {
            *pair = (ns[2 * ch], ns[2 * ch + 1]);
        }
        Ok(model)
    }

    /// Predicts PPA for a design/corner pair.
    pub fn predict(&self, logic: &LogicNetlist, corner: Corner) -> PredictedPpa {
        let x = Matrix::from_vec(1, FEATURE_DIM, features(logic, corner).to_vec());
        let row = self.mlp.infer(&self.params, x);
        let un = |ch: usize| {
            let (m, s) = self.norms[ch];
            10.0_f64.powf(row.get(0, ch) * s + m)
        };
        PredictedPpa {
            min_clock_period: un(0),
            power: un(1),
            area: un(2),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stco_numerics::rng::Xorshift;
    use stco_system::bench_gen::Benchmark;

    /// Synthetic-but-structured targets: delay ∝ gates/vdd², power ∝
    /// gates·vdd², area ∝ gates·cox — the surrogate must learn the shape.
    fn synthetic_records(seed: u64, n: usize) -> Vec<EvalRecord> {
        let mut rng = Xorshift::new(seed);
        let logic = Benchmark::S298.generate();
        (0..n)
            .map(|_| {
                let corner = Corner {
                    vdd: rng.uniform_in(2.0, 4.0),
                    vth_shift: rng.uniform_in(-0.2, 0.2),
                    cox_scale: rng.uniform_in(0.8, 1.25),
                };
                let gates = logic.gate_count() as f64;
                let delay = 1e-9 * gates / (corner.vdd * corner.vdd);
                let power = 1e-9
                    * gates
                    * corner.vdd
                    * corner.vdd
                    * (1.0 + (-corner.vth_shift * 8.0).exp());
                let area = 1e-10 * gates * corner.cox_scale;
                EvalRecord {
                    features: features(&logic, corner),
                    targets: [delay.log10(), power.log10(), area.log10()],
                }
            })
            .collect()
    }

    #[test]
    fn learns_synthetic_ppa_shape() {
        let train = synthetic_records(1, 80);
        let test = synthetic_records(2, 20);
        let mut model = SystemSurrogate::new(9);
        model
            .train(
                &train,
                &TrainConfig {
                    epochs: 300,
                    batch_size: 16,
                    patience: None,
                    ..TrainConfig::default()
                },
            )
            .expect("trains");
        let logic = Benchmark::S298.generate();
        let mut max_rel = 0.0_f64;
        for r in &test {
            let corner = Corner {
                vdd: r.features[4],
                vth_shift: r.features[5],
                cox_scale: r.features[6],
            };
            let pred = model.predict(&logic, corner);
            let target_delay = 10.0_f64.powf(r.targets[0]);
            max_rel = max_rel.max((pred.min_clock_period / target_delay - 1.0).abs());
        }
        assert!(max_rel < 0.3, "worst delay error {max_rel:.3}");
    }

    #[test]
    fn prediction_orders_corners_correctly() {
        let train = synthetic_records(3, 100);
        let mut model = SystemSurrogate::new(11);
        model
            .train(
                &train,
                &TrainConfig {
                    epochs: 300,
                    batch_size: 16,
                    patience: None,
                    ..TrainConfig::default()
                },
            )
            .expect("trains");
        let logic = Benchmark::S298.generate();
        let slow = model.predict(&logic, Corner::nominal(2.2));
        let fast = model.predict(&logic, Corner::nominal(3.8));
        assert!(fast.min_clock_period < slow.min_clock_period);
        assert!(fast.power > slow.power);
    }

    #[test]
    fn tiny_training_sets_are_rejected() {
        let mut model = SystemSurrogate::new(1);
        let records = synthetic_records(1, 3);
        assert!(model.train(&records, &TrainConfig::default()).is_err());
    }
}
