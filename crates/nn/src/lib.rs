//! From-scratch reverse-mode automatic differentiation and graph neural
//! network layers for the `fast-stco` surrogates.
//!
//! The paper's models are small — a ~1M-parameter RelGAT Poisson emulator,
//! a ~0.15M-parameter RelGAT IV predictor and a 3-layer GCN cell model — so
//! a dense-`f64` CPU engine is entirely adequate and keeps the workspace
//! free of native ML dependencies.
//!
//! The design follows the classic tape pattern:
//!
//! * [`Params`] owns every trainable matrix (and its gradient buffer).
//! * Each forward pass builds a fresh [`ad::Graph`]; layers append typed
//!   operations ([`ad::Op`]) and return node ids.
//! * [`ad::Graph::backward`] walks the tape in reverse, accumulating
//!   gradients into `Params`.
//! * [`optim::Adam`] consumes the accumulated gradients.
//! * Device-model predictions skip the tape: [`gnn::RelGatStack::infer`]
//!   and [`layers::Mlp::infer`] replay the tape forward bit for bit,
//!   sharing its formulas through [`ad::kernels`].
//!
//! Graph-structured operations (gather/scatter over edge lists,
//! segment-softmax attention, sparse-adjacency aggregation) are first-class
//! ops with hand-written adjoints, verified against finite differences in
//! this crate's test suite.
//!
//! # Example
//!
//! ```
//! use stco_nn::ad::Graph;
//! use stco_nn::layers::Linear;
//! use stco_nn::optim::Adam;
//! use stco_nn::Params;
//! use stco_numerics::Matrix;
//!
//! // Fit y = 2x with one linear neuron.
//! let mut params = Params::new(7);
//! let lin = Linear::new(&mut params, 1, 1);
//! let mut adam = Adam::with_learning_rate(0.1);
//! for _ in 0..500 {
//!     let mut g = Graph::new();
//!     let x = g.input(Matrix::from_vec(4, 1, vec![0.0, 1.0, 2.0, 3.0]));
//!     let y = g.input(Matrix::from_vec(4, 1, vec![0.0, 2.0, 4.0, 6.0]));
//!     let pred = lin.forward(&mut g, &params, x);
//!     let loss = g.mse_loss(pred, y);
//!     params.zero_grads();
//!     g.backward(loss, &mut params);
//!     adam.step(&mut params);
//! }
//! let mut g = Graph::new();
//! let x = g.input(Matrix::from_vec(1, 1, vec![5.0]));
//! let pred = lin.forward(&mut g, &params, x);
//! assert!((g.value(pred).get(0, 0) - 10.0).abs() < 0.2);
//! ```

pub mod ad;
pub mod gnn;
pub mod layers;
pub mod optim;
pub mod train;

use stco_numerics::rng::Xorshift;
use stco_numerics::Matrix;

/// Identifier of a trainable parameter tensor inside [`Params`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ParamId(pub(crate) usize);

/// Why importing serialized tensors into a [`Params`] store failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParamsImportError {
    /// The tensor count does not match the model's parameter count.
    CountMismatch {
        /// Tensors the model expects.
        expected: usize,
        /// Tensors provided.
        got: usize,
    },
    /// A tensor at `index` (canonical order) has the wrong shape.
    ShapeMismatch {
        /// Canonical tensor index ([`ParamId`] order).
        index: usize,
        /// `(rows, cols)` the model expects.
        expected: (usize, usize),
        /// `(rows, cols)` provided.
        got: (usize, usize),
    },
}

impl std::fmt::Display for ParamsImportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParamsImportError::CountMismatch { expected, got } => {
                write!(f, "tensor count mismatch: expected {expected}, got {got}")
            }
            ParamsImportError::ShapeMismatch {
                index,
                expected,
                got,
            } => write!(
                f,
                "tensor {index} shape mismatch: expected {}x{}, got {}x{}",
                expected.0, expected.1, got.0, got.1
            ),
        }
    }
}

impl std::error::Error for ParamsImportError {}

/// Owns every trainable matrix of a model plus its gradient accumulator.
///
/// Layers allocate their weights here at construction time and keep only
/// [`ParamId`] handles, so a whole model is a plain data structure that can
/// be cheaply cloned (e.g. to snapshot the best validation checkpoint).
#[derive(Debug, Clone)]
pub struct Params {
    values: Vec<Matrix>,
    grads: Vec<Matrix>,
    rng: Xorshift,
}

impl Params {
    /// Creates an empty parameter store with a seed for weight init.
    pub fn new(seed: u64) -> Self {
        Params {
            values: Vec::new(),
            grads: Vec::new(),
            rng: Xorshift::new(seed),
        }
    }

    /// Allocates a matrix initialized with Glorot/Xavier uniform scaling,
    /// appropriate for the linear and attention weights used here.
    pub fn glorot(&mut self, rows: usize, cols: usize) -> ParamId {
        let limit = (6.0 / (rows + cols) as f64).sqrt();
        let data: Vec<f64> = (0..rows * cols)
            .map(|_| self.rng.uniform_in(-limit, limit))
            .collect();
        self.push(Matrix::from_vec(rows, cols, data))
    }

    /// Allocates a zero-initialized matrix (biases, LayerNorm shifts).
    pub fn zeros(&mut self, rows: usize, cols: usize) -> ParamId {
        self.push(Matrix::zeros(rows, cols))
    }

    /// Allocates a constant-filled matrix (LayerNorm gains start at 1).
    pub fn full(&mut self, rows: usize, cols: usize, value: f64) -> ParamId {
        self.push(Matrix::full(rows, cols, value))
    }

    fn push(&mut self, m: Matrix) -> ParamId {
        let id = ParamId(self.values.len());
        self.grads.push(Matrix::zeros(m.rows(), m.cols()));
        self.values.push(m);
        id
    }

    /// Value of a parameter.
    pub fn value(&self, id: ParamId) -> &Matrix {
        &self.values[id.0]
    }

    /// Mutable value of a parameter (used by optimizers and tests).
    pub fn value_mut(&mut self, id: ParamId) -> &mut Matrix {
        &mut self.values[id.0]
    }

    /// Accumulated gradient of a parameter.
    pub fn grad(&self, id: ParamId) -> &Matrix {
        &self.grads[id.0]
    }

    /// Number of parameter tensors.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether no parameters have been allocated.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Total scalar parameter count (the paper quotes ~1M / ~0.15M here).
    pub fn scalar_count(&self) -> usize {
        self.values.iter().map(|m| m.rows() * m.cols()).sum()
    }

    /// Zeroes every gradient accumulator; call between optimizer steps.
    pub fn zero_grads(&mut self) {
        for g in &mut self.grads {
            for v in g.as_mut_slice() {
                *v = 0.0;
            }
        }
    }

    /// Adds every gradient accumulator of `other` into this store's —
    /// the deterministic merge step of data-parallel training, where
    /// each worker backpropagates into its own cloned buffer and the
    /// buffers are combined in a fixed order.
    ///
    /// # Panics
    ///
    /// Panics if the two stores hold different parameter shapes.
    pub fn add_grads_from(&mut self, other: &Params) {
        assert_eq!(
            self.grads.len(),
            other.grads.len(),
            "gradient merge across mismatched parameter stores"
        );
        for (g, og) in self.grads.iter_mut().zip(&other.grads) {
            for (gv, nv) in g.as_mut_slice().iter_mut().zip(og.as_slice()) {
                *gv += nv;
            }
        }
    }

    /// Scales every gradient accumulator by `s` (sum → mean conversion
    /// after a batch-accumulated backward pass).
    pub fn scale_grads(&mut self, s: f64) {
        for g in &mut self.grads {
            for v in g.as_mut_slice() {
                *v *= s;
            }
        }
    }

    fn accumulate_grad(&mut self, id: ParamId, grad: &Matrix) {
        let g = &mut self.grads[id.0];
        for (gv, nv) in g.as_mut_slice().iter_mut().zip(grad.as_slice()) {
            *gv += nv;
        }
    }

    /// Iterates every parameter tensor in **canonical order**.
    ///
    /// # Canonical weight ordering (serialization contract)
    ///
    /// The canonical order of a model's tensors is **allocation order**:
    /// ascending [`ParamId`], i.e. the order in which the model's layers
    /// called [`Params::glorot`]/[`Params::zeros`]/[`Params::full`] at
    /// construction time. Model construction is always single-threaded
    /// and layer constructors allocate in a fixed sequence, so this
    /// order is a pure function of the model configuration — it does not
    /// depend on `STCO_THREADS`, on iteration over any hash-ordered
    /// container, or on anything learned during training. Serialized
    /// artifacts that write tensors in this order are therefore
    /// byte-deterministic across runs and thread counts, and
    /// [`Params::import_tensors`] can restore them into a freshly
    /// constructed model of the same configuration.
    pub fn tensors(&self) -> impl Iterator<Item = (ParamId, &Matrix)> {
        self.values.iter().enumerate().map(|(i, m)| (ParamId(i), m))
    }

    /// Clones every parameter tensor in canonical order (see
    /// [`Params::tensors`]) — the export half of artifact serialization.
    pub fn export_tensors(&self) -> Vec<Matrix> {
        self.values.clone()
    }

    /// Overwrites every parameter tensor from `tensors`, which must be
    /// in canonical order (see [`Params::tensors`]) and shape-compatible
    /// with this store. Gradient accumulators are zeroed.
    ///
    /// # Errors
    ///
    /// Returns [`ParamsImportError`] on a count or shape mismatch; the
    /// store is left unmodified in that case.
    pub fn import_tensors(
        &mut self,
        tensors: &[Matrix],
    ) -> std::result::Result<(), ParamsImportError> {
        if tensors.len() != self.values.len() {
            return Err(ParamsImportError::CountMismatch {
                expected: self.values.len(),
                got: tensors.len(),
            });
        }
        for (i, (have, new)) in self.values.iter().zip(tensors).enumerate() {
            if have.rows() != new.rows() || have.cols() != new.cols() {
                return Err(ParamsImportError::ShapeMismatch {
                    index: i,
                    expected: (have.rows(), have.cols()),
                    got: (new.rows(), new.cols()),
                });
            }
        }
        for (slot, new) in self.values.iter_mut().zip(tensors) {
            slot.as_mut_slice().copy_from_slice(new.as_slice());
        }
        self.zero_grads();
        Ok(())
    }

    /// Global gradient-norm clipping; returns the pre-clip norm.
    pub fn clip_grad_norm(&mut self, max_norm: f64) -> f64 {
        let total: f64 = self
            .grads
            .iter()
            .map(|g| g.as_slice().iter().map(|v| v * v).sum::<f64>())
            .sum::<f64>()
            .sqrt();
        if total > max_norm && total > 0.0 {
            let scale = max_norm / total;
            for g in &mut self.grads {
                for v in g.as_mut_slice() {
                    *v *= scale;
                }
            }
        }
        total
    }
}

pub(crate) fn params_accumulate(params: &mut Params, id: ParamId, grad: &Matrix) {
    params.accumulate_grad(id, grad);
}

/// Internal index accessor for optimizers within the crate.
pub(crate) fn param_ids(params: &Params) -> impl Iterator<Item = ParamId> {
    (0..params.len()).map(ParamId)
}

#[cfg(test)]
mod canonical_order_tests {
    use super::*;
    use crate::layers::{Activation, Mlp};

    fn build(seed: u64) -> Params {
        let mut params = Params::new(seed);
        let _mlp = Mlp::new(&mut params, &[3, 5, 2], Activation::Relu);
        params
    }

    /// Two identically-configured models export bitwise-identical tensor
    /// streams, in the same canonical order — the property artifact
    /// determinism rests on.
    #[test]
    fn canonical_order_is_reproducible() {
        let a = build(11);
        let b = build(11);
        let ta = a.export_tensors();
        let tb = b.export_tensors();
        assert_eq!(ta.len(), tb.len());
        assert!(!ta.is_empty());
        for (x, y) in ta.iter().zip(&tb) {
            assert_eq!(x.rows(), y.rows());
            assert_eq!(x.cols(), y.cols());
            let bits_x: Vec<u64> = x.as_slice().iter().map(|v| v.to_bits()).collect();
            let bits_y: Vec<u64> = y.as_slice().iter().map(|v| v.to_bits()).collect();
            assert_eq!(bits_x, bits_y);
        }
        // tensors() yields ascending ParamId — allocation order.
        let ids: Vec<usize> = a.tensors().map(|(id, _)| id.0).collect();
        let sorted: Vec<usize> = (0..a.len()).collect();
        assert_eq!(ids, sorted);
    }

    #[test]
    fn import_round_trips_values() -> std::result::Result<(), ParamsImportError> {
        let src = build(7);
        let mut dst = build(99);
        dst.import_tensors(&src.export_tensors())?;
        for ((_, a), (_, b)) in src.tensors().zip(dst.tensors()) {
            let bits_a: Vec<u64> = a.as_slice().iter().map(|v| v.to_bits()).collect();
            let bits_b: Vec<u64> = b.as_slice().iter().map(|v| v.to_bits()).collect();
            assert_eq!(bits_a, bits_b);
        }
        Ok(())
    }

    #[test]
    fn import_rejects_count_and_shape_mismatches() {
        let src = build(7);
        let mut dst = build(7);
        let mut short = src.export_tensors();
        short.pop();
        assert!(matches!(
            dst.import_tensors(&short),
            Err(ParamsImportError::CountMismatch { .. })
        ));
        let mut wrong = src.export_tensors();
        wrong[0] = Matrix::zeros(1, 1);
        assert!(matches!(
            dst.import_tensors(&wrong),
            Err(ParamsImportError::ShapeMismatch { index: 0, .. })
        ));
    }
}
