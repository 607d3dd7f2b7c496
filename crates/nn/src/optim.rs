//! The optimizer every surrogate pipeline uses: [`Adam`].

use crate::{param_ids, Params};
use stco_numerics::Matrix;

/// Adam with bias correction (Kingma & Ba), operating directly on the
/// gradient accumulators of [`Params`].
///
/// # Example
///
/// ```
/// use stco_nn::optim::Adam;
/// use stco_nn::Params;
///
/// let mut params = Params::new(3);
/// let w = params.glorot(2, 2);
/// let mut adam = Adam::with_learning_rate(1e-3);
/// params.zero_grads();
/// // ... run a forward/backward pass ...
/// adam.step(&mut params);
/// # let _ = w;
/// ```
#[derive(Debug, Clone)]
pub struct Adam {
    /// Learning rate.
    pub learning_rate: f64,
    /// First-moment decay.
    pub beta1: f64,
    /// Second-moment decay.
    pub beta2: f64,
    /// Denominator epsilon.
    pub eps: f64,
    /// L2 weight decay (0 to disable).
    pub weight_decay: f64,
    step_count: u64,
    m: Vec<Matrix>,
    v: Vec<Matrix>,
}

impl Adam {
    /// Adam with the given learning rate and standard (0.9, 0.999) betas.
    pub fn with_learning_rate(learning_rate: f64) -> Self {
        Adam {
            learning_rate,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            weight_decay: 0.0,
            step_count: 0,
            m: Vec::new(),
            v: Vec::new(),
        }
    }

    /// Number of steps taken so far.
    pub fn steps(&self) -> u64 {
        self.step_count
    }

    /// Applies one update using the gradients currently accumulated in
    /// `params`, then leaves the gradients untouched (call
    /// [`Params::zero_grads`] before the next backward pass).
    pub fn step(&mut self, params: &mut Params) {
        self.ensure_state(params);
        self.step_count += 1;
        // Saturating conversion: beyond i32::MAX steps the bias-correction
        // power underflows to 0 anyway, so clamping is exact in the limit.
        let t = i32::try_from(self.step_count).unwrap_or(i32::MAX);
        let bc1 = 1.0 - self.beta1.powi(t);
        let bc2 = 1.0 - self.beta2.powi(t);
        for id in param_ids(params).collect::<Vec<_>>() {
            let idx = id.0;
            let grad = params.grad(id).clone();
            stco_numerics::debug_assert_all_finite!("adam.grad", grad.as_slice());
            let m = &mut self.m[idx];
            let v = &mut self.v[idx];
            for ((mv, vv), g) in m
                .as_mut_slice()
                .iter_mut()
                .zip(v.as_mut_slice())
                .zip(grad.as_slice())
            {
                *mv = self.beta1 * *mv + (1.0 - self.beta1) * g;
                *vv = self.beta2 * *vv + (1.0 - self.beta2) * g * g;
            }
            let lr = self.learning_rate;
            let (eps, wd) = (self.eps, self.weight_decay);
            let m_s: Vec<f64> = m.as_slice().to_vec();
            let v_s: Vec<f64> = v.as_slice().to_vec();
            let value = params.value_mut(id);
            for ((w, mv), vv) in value.as_mut_slice().iter_mut().zip(&m_s).zip(&v_s) {
                let mhat = mv / bc1;
                let vhat = vv / bc2;
                *w -= lr * (mhat / (vhat.sqrt() + eps) + wd * *w);
            }
        }
    }

    fn ensure_state(&mut self, params: &Params) {
        while self.m.len() < params.len() {
            let id_idx = self.m.len();
            let shape = {
                let id = param_ids(params).nth(id_idx).expect("index in range");
                let m = params.value(id);
                (m.rows(), m.cols())
            };
            self.m.push(Matrix::zeros(shape.0, shape.1));
            self.v.push(Matrix::zeros(shape.0, shape.1));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ad::Graph;
    use stco_numerics::Matrix;

    /// Minimize (w - 3)² with the given optimizer step.
    fn run_quadratic(step: &mut dyn FnMut(&mut Params), params: &mut Params, w: crate::ParamId) {
        for _ in 0..500 {
            let mut g = Graph::new();
            let wi = g.param(params, w);
            let t = g.input(Matrix::from_vec(1, 1, vec![3.0]));
            let loss = g.mse_loss(wi, t);
            params.zero_grads();
            g.backward(loss, params);
            step(params);
        }
    }

    #[test]
    fn adam_minimizes_quadratic() {
        let mut params = Params::new(1);
        let w = params.zeros(1, 1);
        let mut adam = Adam::with_learning_rate(0.1);
        run_quadratic(&mut |p| adam.step(p), &mut params, w);
        assert!((params.value(w).get(0, 0) - 3.0).abs() < 1e-3);
        assert_eq!(adam.steps(), 500);
    }

    #[test]
    fn weight_decay_shrinks_solution() {
        let mut params = Params::new(4);
        let w = params.zeros(1, 1);
        let mut adam = Adam::with_learning_rate(0.1);
        adam.weight_decay = 1.0;
        run_quadratic(&mut |p| adam.step(p), &mut params, w);
        // With strong decay the optimum sits strictly below 3.
        let v = params.value(w).get(0, 0);
        assert!(v > 0.5 && v < 2.9, "value {v}");
    }

    #[test]
    fn adam_handles_params_added_midway() {
        let mut params = Params::new(5);
        let w1 = params.zeros(1, 1);
        let mut adam = Adam::with_learning_rate(0.1);
        run_quadratic(&mut |p| adam.step(p), &mut params, w1);
        // Allocate a second parameter after the optimizer has state.
        let w2 = params.zeros(1, 1);
        run_quadratic(&mut |p| adam.step(p), &mut params, w2);
        assert!((params.value(w2).get(0, 0) - 3.0).abs() < 1e-3);
    }
}
