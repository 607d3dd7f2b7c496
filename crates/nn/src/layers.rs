//! Dense layers: [`Linear`], [`Mlp`] and [`LayerNorm`], composed by the
//! GNN models in [`crate::gnn`].

use stco_numerics::Matrix;

use crate::ad::{kernels, Graph, NodeId};
use crate::{ParamId, Params};

/// Negative-side slope of [`Activation::LeakyRelu`].
const LEAKY_RELU_SLOPE: f64 = 0.2;

/// Alpha of [`Activation::Elu`].
const ELU_ALPHA: f64 = 1.0;

/// Nonlinearity selector shared by the layer types.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Activation {
    /// Rectified linear unit.
    #[default]
    Relu,
    /// Leaky ReLU with slope 0.2 (the GAT convention).
    LeakyRelu,
    /// Exponential linear unit.
    Elu,
    /// Hyperbolic tangent.
    Tanh,
    /// Logistic sigmoid.
    Sigmoid,
    /// Identity (no activation).
    Identity,
}

impl Activation {
    /// Applies the activation on the tape.
    pub fn apply(self, g: &mut Graph, x: NodeId) -> NodeId {
        match self {
            Activation::Relu => g.relu(x),
            Activation::LeakyRelu => g.leaky_relu(x, LEAKY_RELU_SLOPE),
            Activation::Elu => g.elu(x, ELU_ALPHA),
            Activation::Tanh => g.tanh_act(x),
            Activation::Sigmoid => g.sigmoid(x),
            Activation::Identity => x,
        }
    }

    /// Applies the activation in place, off the tape, with the scalar
    /// kernels of [`Activation::apply`].
    pub(crate) fn apply_in_place(self, values: &mut [f64]) {
        fn each(values: &mut [f64], f: impl Fn(f64) -> f64) {
            for v in values {
                *v = f(*v);
            }
        }
        match self {
            Activation::Relu => each(values, kernels::relu),
            Activation::LeakyRelu => each(values, |x| kernels::leaky_relu(x, LEAKY_RELU_SLOPE)),
            Activation::Elu => each(values, |x| kernels::elu(x, ELU_ALPHA)),
            Activation::Tanh => each(values, f64::tanh),
            Activation::Sigmoid => each(values, kernels::sigmoid),
            Activation::Identity => {}
        }
    }
}

/// A fully-connected layer `y = x·W + b`.
///
/// # Example
///
/// ```
/// use stco_nn::ad::Graph;
/// use stco_nn::layers::Linear;
/// use stco_nn::Params;
/// use stco_numerics::Matrix;
///
/// let mut params = Params::new(1);
/// let lin = Linear::new(&mut params, 4, 2);
/// let mut g = Graph::new();
/// let x = g.input(Matrix::zeros(3, 4));
/// let y = lin.forward(&mut g, &params, x);
/// assert_eq!(g.value(y).cols(), 2);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Linear {
    weight: ParamId,
    bias: ParamId,
    in_dim: usize,
    out_dim: usize,
}

impl Linear {
    /// Allocates Glorot-initialized weights and zero bias.
    pub fn new(params: &mut Params, in_dim: usize, out_dim: usize) -> Self {
        Linear {
            weight: params.glorot(in_dim, out_dim),
            bias: params.zeros(1, out_dim),
            in_dim,
            out_dim,
        }
    }

    /// Input width.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Output width.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// Weight parameter handle.
    pub fn weight(&self) -> ParamId {
        self.weight
    }

    /// Bias parameter handle.
    pub fn bias(&self) -> ParamId {
        self.bias
    }

    /// Records `x·W + b` on the tape.
    pub fn forward(&self, g: &mut Graph, params: &Params, x: NodeId) -> NodeId {
        let w = g.param(params, self.weight);
        let b = g.param(params, self.bias);
        let h = g.matmul(x, w);
        g.add_row_broadcast(h, b)
    }

    /// Computes `x·W + b` off the tape, in the order of
    /// [`Linear::forward`]: the product accumulates into a zeroed output,
    /// then the bias row is added.
    pub(crate) fn infer(&self, params: &Params, x: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(x.rows(), self.out_dim);
        x.gemm_into(params.value(self.weight), &mut out);
        kernels::add_row(&mut out, params.value(self.bias).row(0));
        out
    }
}

/// Per-row layer normalization with learnable gain and shift.
///
/// The paper applies layer normalization when training both RelGAT models
/// ("enhancing model convergence and stability").
#[derive(Debug, Clone, Copy)]
pub struct LayerNorm {
    gamma: ParamId,
    beta: ParamId,
}

impl LayerNorm {
    /// Allocates unit gain and zero shift over `dim` features.
    pub fn new(params: &mut Params, dim: usize) -> Self {
        LayerNorm {
            gamma: params.full(1, dim, 1.0),
            beta: params.zeros(1, dim),
        }
    }

    /// Records the normalization on the tape.
    pub fn forward(&self, g: &mut Graph, params: &Params, x: NodeId) -> NodeId {
        let gamma = g.param(params, self.gamma);
        let beta = g.param(params, self.beta);
        g.layer_norm(x, gamma, beta)
    }

    /// Normalizes `x` off the tape, bitwise equal to
    /// [`LayerNorm::forward`].
    pub(crate) fn infer(&self, params: &Params, x: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(x.rows(), x.cols());
        let (gamma, beta) = (params.value(self.gamma), params.value(self.beta));
        kernels::layer_norm(
            x,
            gamma.row(0),
            beta.row(0),
            kernels::LAYER_NORM_EPS,
            &mut out,
        );
        out
    }
}

/// A multilayer perceptron with a shared hidden activation and linear
/// output (the prediction heads of all three surrogate models).
#[derive(Debug, Clone)]
pub struct Mlp {
    layers: Vec<Linear>,
    activation: Activation,
}

impl Mlp {
    /// Builds an MLP from a width schedule, e.g. `&[64, 32, 1]` is two
    /// hidden transitions ending in a 1-wide linear output.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two widths are given.
    pub fn new(params: &mut Params, widths: &[usize], activation: Activation) -> Self {
        assert!(widths.len() >= 2, "an MLP needs at least in/out widths");
        let layers = widths
            .windows(2)
            .map(|w| Linear::new(params, w[0], w[1]))
            .collect();
        Mlp { layers, activation }
    }

    /// Number of linear layers.
    pub fn depth(&self) -> usize {
        self.layers.len()
    }

    /// Records the full forward pass; the final layer is linear.
    pub fn forward(&self, g: &mut Graph, params: &Params, mut x: NodeId) -> NodeId {
        for (i, layer) in self.layers.iter().enumerate() {
            x = layer.forward(g, params, x);
            if i + 1 < self.layers.len() {
                x = self.activation.apply(g, x);
            }
        }
        x
    }

    /// Runs the MLP off the tape, bitwise equal to [`Mlp::forward`].
    pub fn infer(&self, params: &Params, mut x: Matrix) -> Matrix {
        for (i, layer) in self.layers.iter().enumerate() {
            x = layer.infer(params, &x);
            if i + 1 < self.layers.len() {
                self.activation.apply_in_place(x.as_mut_slice());
            }
        }
        x
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optim::Adam;
    use stco_numerics::rng::Xorshift;
    use stco_numerics::Matrix;

    #[test]
    fn linear_shapes() {
        let mut params = Params::new(1);
        let lin = Linear::new(&mut params, 5, 3);
        assert_eq!(lin.in_dim(), 5);
        assert_eq!(lin.out_dim(), 3);
        let mut g = Graph::new();
        let x = g.input(Matrix::zeros(7, 5));
        let y = lin.forward(&mut g, &params, x);
        assert_eq!((g.value(y).rows(), g.value(y).cols()), (7, 3));
    }

    #[test]
    fn mlp_depth_and_shapes() {
        let mut params = Params::new(2);
        let mlp = Mlp::new(&mut params, &[4, 8, 8, 1], Activation::Relu);
        assert_eq!(mlp.depth(), 3);
        let mut g = Graph::new();
        let x = g.input(Matrix::zeros(2, 4));
        let y = mlp.forward(&mut g, &params, x);
        assert_eq!((g.value(y).rows(), g.value(y).cols()), (2, 1));
    }

    #[test]
    fn layer_norm_normalizes_rows() {
        let mut params = Params::new(3);
        let ln = LayerNorm::new(&mut params, 4);
        let mut g = Graph::new();
        let x = g.input(Matrix::from_vec(1, 4, vec![10.0, 20.0, 30.0, 40.0]));
        let y = ln.forward(&mut g, &params, x);
        let row: Vec<f64> = g.value(y).row(0).to_vec();
        let mean: f64 = row.iter().sum::<f64>() / 4.0;
        let var: f64 = row.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / 4.0;
        assert!(mean.abs() < 1e-10);
        assert!((var - 1.0).abs() < 1e-3);
    }

    #[test]
    fn mlp_learns_xor() {
        // XOR is the classic non-linearly-separable sanity check: if the
        // tape, layers and Adam are wired correctly, this converges fast.
        let mut params = Params::new(42);
        let mlp = Mlp::new(&mut params, &[2, 8, 1], Activation::Tanh);
        let mut adam = Adam::with_learning_rate(0.05);
        let x = Matrix::from_vec(4, 2, vec![0.0, 0.0, 0.0, 1.0, 1.0, 0.0, 1.0, 1.0]);
        let t = Matrix::from_vec(4, 1, vec![0.0, 1.0, 1.0, 0.0]);
        let mut last = f64::INFINITY;
        for _ in 0..400 {
            let mut g = Graph::new();
            let xi = g.input(x.clone());
            let ti = g.input(t.clone());
            let pred = mlp.forward(&mut g, &params, xi);
            let loss = g.mse_loss(pred, ti);
            last = g.value(loss).get(0, 0);
            params.zero_grads();
            g.backward(loss, &mut params);
            adam.step(&mut params);
        }
        assert!(last < 1e-2, "XOR loss did not converge: {last}");
    }

    #[test]
    fn activations_apply_expected_functions() {
        let mut g = Graph::new();
        let x = g.input(Matrix::from_vec(1, 2, vec![-1.0, 2.0]));
        let r = Activation::Relu.apply(&mut g, x);
        assert_eq!(g.value(r).as_slice(), &[0.0, 2.0]);
        let l = Activation::LeakyRelu.apply(&mut g, x);
        assert!((g.value(l).get(0, 0) + 0.2).abs() < 1e-12);
        let id = Activation::Identity.apply(&mut g, x);
        assert_eq!(id, x);
    }

    #[test]
    fn params_scalar_count_tracks_allocations() {
        let mut params = Params::new(5);
        let _ = Mlp::new(&mut params, &[10, 20, 5], Activation::Relu);
        // 10·20 + 20 + 20·5 + 5 = 325
        assert_eq!(params.scalar_count(), 325);
        let mut rng = Xorshift::new(1);
        let _ = rng.uniform();
    }
}
