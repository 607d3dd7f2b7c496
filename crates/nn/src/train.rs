//! Training loops: [`fit`], the generic epoch loop with mini-batch
//! shuffling, early stopping on a validation metric and best-checkpoint
//! tracking; and [`fit_parallel`], the one training step and validation
//! loop every graph surrogate runs on top of it.

use stco_numerics::rng::Xorshift;
use stco_par::ParConfig;

use crate::ad::{Graph, NodeId};
use crate::optim::Adam;
use crate::Params;

/// Global gradient-norm bound of every [`fit_parallel`] step.
pub const GRAD_CLIP_NORM: f64 = 5.0;

/// Configuration of a training run.
#[derive(Debug, Clone)]
pub struct TrainConfig {
    /// Number of passes over the training set.
    pub epochs: usize,
    /// Mini-batch size (in items; graph pipelines batch whole graphs).
    pub batch_size: usize,
    /// Shuffle seed.
    pub seed: u64,
    /// Stop if validation loss has not improved for this many epochs
    /// (`None` disables early stopping).
    pub patience: Option<usize>,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            epochs: 50,
            batch_size: 8,
            seed: 1,
            patience: Some(10),
        }
    }
}

/// Loss trace of a completed run.
#[derive(Debug, Clone, Default)]
pub struct TrainHistory {
    /// Mean training loss per epoch.
    pub train_loss: Vec<f64>,
    /// Validation loss per epoch (empty if no validation callback).
    pub val_loss: Vec<f64>,
    /// Epoch whose parameters the run returned: the best validation
    /// epoch, or the last epoch of a run without validation.
    pub best_epoch: usize,
}

impl TrainHistory {
    /// Final training loss, or `NaN` before any epoch completed.
    pub fn final_train_loss(&self) -> f64 {
        self.train_loss.last().copied().unwrap_or(f64::NAN)
    }

    /// Best validation loss observed, or `NaN` without validation.
    pub fn best_val_loss(&self) -> f64 {
        self.val_loss.iter().copied().fold(f64::NAN, |best, v| {
            if v < best || best.is_nan() {
                v
            } else {
                best
            }
        })
    }
}

/// Runs one data-parallel gradient-accumulation step over a mini-batch.
///
/// `per_sample(graph, params, idx)` builds the forward pass for dataset
/// item `idx` on a fresh tape and returns the scalar loss node. Samples
/// are distributed over [`stco_par`]'s fixed chunk layout; each chunk
/// backpropagates into its own cloned gradient buffer and the buffers
/// are merged in chunk order, so the accumulated gradient (and the
/// returned mean loss) are bitwise identical at every thread count.
///
/// On return `params` holds the *mean* gradient over the batch; the
/// caller applies clipping and a single optimizer step per batch, as
/// [`fit_parallel`] does.
pub(crate) fn parallel_batch_step<F>(
    config: ParConfig,
    params: &mut Params,
    batch: &[usize],
    per_sample: F,
) -> f64
where
    F: Fn(&mut Graph, &Params, usize) -> NodeId + Sync,
{
    if batch.is_empty() {
        params.zero_grads();
        return 0.0;
    }
    let base: &Params = params;
    let (grads, loss_sum, _tape) = stco_par::par_map_reduce(
        config,
        batch,
        |_, &idx| idx,
        || {
            let mut p = base.clone();
            p.zero_grads();
            // One tape per chunk worker: `Graph::reset` between samples
            // recycles every buffer, so steady-state forward/backward
            // passes allocate nothing and chunks never contend on a
            // shared arena (the 1-thread and N-thread schedules replay
            // the identical per-sample lease sequence).
            (p, 0.0f64, Graph::new())
        },
        |acc, idx| {
            let g = &mut acc.2;
            g.reset();
            let loss = per_sample(g, base, idx);
            acc.1 += g.value(loss).get(0, 0);
            g.backward(loss, &mut acc.0);
        },
        |acc, other| {
            acc.0.add_grads_from(&other.0);
            acc.1 += other.1;
        },
    );
    let inv = 1.0 / batch.len() as f64;
    params.zero_grads();
    params.add_grads_from(&grads);
    params.scale_grads(inv);
    loss_sum * inv
}

/// Runs a generic epoch/mini-batch loop.
///
/// * `num_items` — dataset size; indices `0..num_items` are shuffled each
///   epoch and handed to `train_step` in `batch_size` chunks.
/// * `train_step(batch_indices, params)` — performs forward + backward +
///   optimizer step and returns the batch loss.
/// * `validate(params)` — returns a validation loss; the parameters of the
///   best epoch are restored at the end (checkpointing via `Params` clone).
///
/// Returns the loss history. If `validate` is `None`, the final parameters
/// are whatever the last epoch produced, and `best_epoch` is that epoch.
pub fn fit<FS, FV>(
    params: &mut Params,
    config: &TrainConfig,
    num_items: usize,
    mut train_step: FS,
    mut validate: Option<FV>,
) -> TrainHistory
where
    FS: FnMut(&[usize], &mut Params) -> f64,
    FV: FnMut(&Params) -> f64,
{
    let _span = stco_obs::span!("nn.fit", epochs = config.epochs, num_items = num_items,);
    let loss_hist = stco_obs::Recorder::global()
        .metrics()
        .histogram("nn.epoch_loss", &stco_obs::metrics::loss_buckets());
    let mut rng = Xorshift::new(config.seed);
    let mut history = TrainHistory::default();
    let mut indices: Vec<usize> = (0..num_items).collect();
    let mut best_val = f64::INFINITY;
    let mut best_params: Option<Params> = None;
    let mut stall = 0usize;

    for epoch in 0..config.epochs {
        rng.shuffle(&mut indices);
        let mut epoch_loss = 0.0;
        let mut batches = 0usize;
        for chunk in indices.chunks(config.batch_size.max(1)) {
            epoch_loss += train_step(chunk, params);
            batches += 1;
        }
        let mean_loss = epoch_loss / batches.max(1) as f64;
        // A diverged epoch (NaN/Inf loss) should stop training in debug
        // builds, not silently pollute the history and the loss histogram.
        stco_numerics::debug_assert_finite!("nn.epoch_loss", mean_loss);
        history.train_loss.push(mean_loss);
        loss_hist.observe(mean_loss);

        if let Some(v) = validate.as_mut() {
            let val = v(params);
            history.val_loss.push(val);
            stco_obs::event!(
                "nn.epoch",
                epoch = epoch,
                train_loss = mean_loss,
                val_loss = val
            );
            if val < best_val {
                best_val = val;
                best_params = Some(params.clone());
                history.best_epoch = epoch;
                stall = 0;
            } else {
                stall += 1;
                if let Some(p) = config.patience {
                    if stall >= p {
                        break;
                    }
                }
            }
        } else {
            history.best_epoch = epoch;
            stco_obs::event!("nn.epoch", epoch = epoch, train_loss = mean_loss);
        }
    }
    if let Some(best) = best_params {
        *params = best;
    }
    history
}

/// Trains `params` with [`fit`], one step per mini-batch: a
/// `parallel_batch_step` of `per_sample` at [`ParConfig::current`],
/// the mean gradient clipped to [`GRAD_CLIP_NORM`], then one Adam step at
/// `learning_rate`.
///
/// `val_loss(params, i)` is the loss of validation item `i`. Each epoch
/// validates on the mean over `0..num_val`, which picks the checkpoint
/// the run restores and drives early stopping. With `num_val == 0` the
/// run does not validate and keeps its last epoch.
pub fn fit_parallel<FS, FV>(
    params: &mut Params,
    config: &TrainConfig,
    learning_rate: f64,
    num_items: usize,
    per_sample: FS,
    num_val: usize,
    val_loss: FV,
) -> TrainHistory
where
    FS: Fn(&mut Graph, &Params, usize) -> NodeId + Sync,
    FV: Fn(&Params, usize) -> f64,
{
    let _span = stco_obs::span!("nn.fit_parallel", num_items = num_items, num_val = num_val,);
    let mut adam = Adam::with_learning_rate(learning_rate);
    let step = |batch: &[usize], params: &mut Params| {
        let loss = parallel_batch_step(ParConfig::current(), params, batch, &per_sample);
        params.clip_grad_norm(GRAD_CLIP_NORM);
        adam.step(params);
        loss
    };
    let validate = (num_val > 0).then_some(|params: &Params| {
        let mut total = 0.0;
        for i in 0..num_val {
            total += val_loss(params, i);
        }
        total / num_val as f64
    });
    fit(params, config, num_items, step, validate)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ad::Graph;
    use crate::layers::Linear;
    use crate::optim::Adam;
    use stco_numerics::Matrix;

    #[test]
    fn fit_reduces_loss_and_tracks_history() {
        let mut params = Params::new(3);
        let lin = Linear::new(&mut params, 1, 1);
        let mut adam = Adam::with_learning_rate(0.05);
        let xs: Vec<f64> = (0..32).map(|i| i as f64 / 8.0).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 3.0 * x - 1.0).collect();
        let config = TrainConfig {
            epochs: 60,
            batch_size: 8,
            ..TrainConfig::default()
        };
        let history = fit(
            &mut params,
            &config,
            xs.len(),
            |batch, params| {
                let bx: Vec<f64> = batch.iter().map(|&i| xs[i]).collect();
                let by: Vec<f64> = batch.iter().map(|&i| ys[i]).collect();
                let mut g = Graph::new();
                let xi = g.input(Matrix::from_vec(bx.len(), 1, bx));
                let ti = g.input(Matrix::from_vec(by.len(), 1, by));
                let pred = lin.forward(&mut g, params, xi);
                let loss = g.mse_loss(pred, ti);
                let l = g.value(loss).get(0, 0);
                params.zero_grads();
                g.backward(loss, params);
                adam.step(params);
                l
            },
            None::<fn(&Params) -> f64>,
        );
        assert_eq!(history.val_loss.len(), 0);
        assert_eq!(history.best_epoch, 59, "the last epoch is kept");
        assert!(history.final_train_loss() < 0.05 * history.train_loss[0]);
    }

    #[test]
    fn early_stopping_restores_best_checkpoint() {
        let mut params = Params::new(4);
        let w = params.zeros(1, 1);
        // Fake "training" that moves w by +1 each epoch; validation is best
        // when w == 3 and grows afterwards — early stopping must restore 3.
        let config = TrainConfig {
            epochs: 20,
            batch_size: 1,
            patience: Some(3),
            ..TrainConfig::default()
        };
        let history = fit(
            &mut params,
            &config,
            1,
            |_, params| {
                let v = params.value(w).get(0, 0);
                params.value_mut(w).set(0, 0, v + 1.0);
                0.0
            },
            Some(|p: &Params| (p.value(w).get(0, 0) - 3.0).abs()),
        );
        assert!((params.value(w).get(0, 0) - 3.0).abs() < 1e-12);
        assert!(history.val_loss.len() < 20, "early stopping engaged");
        assert!(history.best_val_loss() < 1e-12);
    }

    #[test]
    fn parallel_batch_step_is_bitwise_thread_count_invariant() {
        let xs: Vec<f64> = (0..13).map(|i| i as f64 / 4.0).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 2.0 * x + 0.5).collect();
        let mut reference: Option<(Vec<u64>, u64)> = None;
        for t in [1usize, 2, 5] {
            let mut params = Params::new(9);
            let lin = Linear::new(&mut params, 1, 1);
            let batch: Vec<usize> = (0..xs.len()).collect();
            let loss = parallel_batch_step(
                ParConfig::with_threads(t),
                &mut params,
                &batch,
                |g, p, idx| {
                    let xi = g.input(Matrix::from_vec(1, 1, vec![xs[idx]]));
                    let ti = g.input(Matrix::from_vec(1, 1, vec![ys[idx]]));
                    let pred = lin.forward(g, p, xi);
                    g.mse_loss(pred, ti)
                },
            );
            let snapshot: Vec<u64> = (0..params.len())
                .flat_map(|i| {
                    params
                        .grad(crate::ParamId(i))
                        .as_slice()
                        .iter()
                        .map(|v| v.to_bits())
                        .collect::<Vec<u64>>()
                })
                .collect();
            match &reference {
                None => reference = Some((snapshot, loss.to_bits())),
                Some((ref_grads, ref_loss)) => {
                    assert_eq!(&snapshot, ref_grads, "gradient bits differ at t={t}");
                    assert_eq!(loss.to_bits(), *ref_loss, "loss bits differ at t={t}");
                }
            }
        }
    }

    #[test]
    fn parallel_batch_step_empty_batch_is_a_no_op() {
        let mut params = Params::new(2);
        let _lin = Linear::new(&mut params, 1, 1);
        let loss = parallel_batch_step(ParConfig::serial(), &mut params, &[], |g, _p, _idx| {
            g.input(Matrix::zeros(1, 1))
        });
        assert_eq!(loss, 0.0);
    }

    #[test]
    fn empty_validation_history_is_nan() {
        let h = TrainHistory::default();
        assert!(h.final_train_loss().is_nan());
        assert!(h.best_val_loss().is_nan());
    }
}
