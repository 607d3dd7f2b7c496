//! The reverse-mode automatic differentiation tape.
//!
//! A [`Graph`] is rebuilt for every forward pass (define-by-run). Each
//! operation appends a node holding its computed value and a typed [`Op`]
//! record; [`Graph::backward`] then walks the tape in reverse, applying the
//! hand-written adjoint of each op and accumulating parameter gradients
//! into [`Params`].
//!
//! Besides the usual dense ops, the tape has first-class graph ops:
//! [`Graph::gather_rows`]/[`Graph::scatter_add_rows`] for edge-list message
//! passing, [`Graph::segment_softmax`] for GAT attention normalized per
//! destination node, [`Graph::segment_mean`] for batched graph readout and
//! [`Graph::spmm`] for GCN-style normalized-adjacency aggregation. Every
//! adjoint is verified against central finite differences in the tests.

use std::cell::RefCell;
use std::sync::Arc;

use stco_numerics::{CsrMatrix, Matrix};

use crate::{params_accumulate, ParamId, Params};

/// Identifier of a node on the tape.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NodeId(usize);

/// A differentiable operation recorded on the tape.
#[derive(Debug, Clone)]
pub enum Op {
    /// Constant input (no gradient tracked beyond the tape).
    Input,
    /// Trainable parameter; gradients flow into [`Params`].
    Param(ParamId),
    /// Dense matrix product.
    MatMul(NodeId, NodeId),
    /// Elementwise sum of equal shapes.
    Add(NodeId, NodeId),
    /// `a [n×d] + b [1×d]` broadcast over rows (bias add).
    AddRowBroadcast(NodeId, NodeId),
    /// `a [n×d] * b [n×1]` broadcast over columns (attention weighting).
    MulColBroadcast(NodeId, NodeId),
    /// Rectified linear unit.
    Relu(NodeId),
    /// Leaky ReLU with the given negative slope.
    LeakyRelu(NodeId, f64),
    /// Exponential linear unit with the given alpha.
    Elu(NodeId, f64),
    /// Hyperbolic tangent.
    Tanh(NodeId),
    /// Logistic sigmoid.
    Sigmoid(NodeId),
    /// Per-row layer normalization with learnable gain/shift.
    LayerNorm {
        /// Input activations `[n×d]`.
        x: NodeId,
        /// Gain `[1×d]`.
        gamma: NodeId,
        /// Shift `[1×d]`.
        beta: NodeId,
        /// Variance epsilon.
        eps: f64,
    },
    /// Column-wise concatenation.
    ConcatCols(Vec<NodeId>),
    /// Row gather: `y[i] = x[idx[i]]`.
    GatherRows {
        /// Source rows.
        x: NodeId,
        /// Row indices, one per output row.
        idx: Arc<Vec<usize>>,
    },
    /// Row scatter-add: `y[idx[i]] += x[i]` over `out_rows` rows.
    ScatterAddRows {
        /// Source rows.
        x: NodeId,
        /// Destination row per source row.
        idx: Arc<Vec<usize>>,
        /// Number of output rows.
        out_rows: usize,
    },
    /// Softmax over entries sharing a segment id (`x` is `[m×1]`).
    SegmentSoftmax {
        /// Scores `[m×1]`.
        x: NodeId,
        /// Segment id per row.
        seg: Arc<Vec<usize>>,
        /// Number of segments.
        n_seg: usize,
    },
    /// Mean of rows sharing a segment id (batched graph readout).
    SegmentMean {
        /// Input rows `[m×d]`.
        x: NodeId,
        /// Segment id per row.
        seg: Arc<Vec<usize>>,
        /// Number of segments.
        n_seg: usize,
    },
    /// Sparse-dense product `A · x` with a constant sparse matrix (GCN).
    SpMm {
        /// The (row-normalized adjacency) sparse operand.
        a: Arc<CsrMatrix>,
        /// Its transpose, cached for the adjoint.
        a_t: Arc<CsrMatrix>,
        /// Dense operand.
        x: NodeId,
    },
    /// Mean-squared-error loss between equal-shaped nodes → `[1×1]`.
    MseLoss(NodeId, NodeId),
}

struct Node {
    value: Matrix,
    op: Op,
}

/// Shape-keyed free list of recycled matrix buffers.
///
/// Forward values and backward gradient buffers are leased from here and
/// returned once they are no longer reachable, so a tape that is
/// [`Graph::reset`] between iterations reaches a steady state with zero
/// heap allocation per forward/backward pass. The free list is a
/// `BTreeMap` and leases pop in LIFO order, so buffer reuse is fully
/// deterministic — recycling never changes any computed bit.
#[derive(Default)]
struct BufferPool {
    free: std::collections::BTreeMap<(usize, usize), Vec<Matrix>>,
}

impl BufferPool {
    /// Leases a zeroed `rows × cols` buffer, reusing a recycled matrix of
    /// the same shape when one is available.
    fn lease_zeroed(&mut self, rows: usize, cols: usize) -> Matrix {
        match self.free.get_mut(&(rows, cols)).and_then(Vec::pop) {
            Some(mut m) => {
                m.reset_zeroed(rows, cols);
                m
            }
            None => Matrix::zeros(rows, cols),
        }
    }

    /// Leases a buffer holding a copy of `src`.
    fn lease_copy(&mut self, src: &Matrix) -> Matrix {
        let mut m = self.lease_zeroed(src.rows(), src.cols());
        m.as_mut_slice().copy_from_slice(src.as_slice());
        m
    }

    /// Parks a buffer on the shape-keyed free list.
    fn recycle(&mut self, m: Matrix) {
        self.free.entry((m.rows(), m.cols())).or_default().push(m);
    }

    fn len(&self) -> usize {
        self.free.values().map(Vec::len).sum()
    }
}

/// A define-by-run autodiff tape.
///
/// See the crate-level example for end-to-end training usage.
#[derive(Default)]
pub struct Graph {
    nodes: Vec<Node>,
    pool: BufferPool,
}

impl std::fmt::Debug for Graph {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Graph")
            .field("nodes", &self.nodes.len())
            .field("free_buffers", &self.pool.len())
            .finish()
    }
}

thread_local! {
    /// Per-thread recycled tape backing [`Graph::with_scratch`].
    static SCRATCH_TAPE: RefCell<Graph> = RefCell::new(Graph::new());
}

impl Graph {
    /// Creates an empty tape.
    pub fn new() -> Self {
        Graph::default()
    }

    /// Clears the tape for the next forward pass, recycling every leased
    /// node value into the internal buffer pool. Reusing one `Graph`
    /// across iterations (instead of constructing a fresh one) lets
    /// forward and backward run allocation-free once the pool has warmed
    /// up.
    ///
    /// The pool keeps only buffers of the shapes the finished pass
    /// produced:
    ///
    /// * [`Graph::input`] values are caller-owned, not leased, and are
    ///   dropped. A pass leases only as many buffers as its ops give
    ///   back, so parking inputs too would add one buffer per input on
    ///   every pass.
    /// * Free buffers of any other shape are dropped. One-shot inference
    ///   shapes follow the input (a serving batch's node count), and a
    ///   pool that kept every shape ever seen would grow without bound.
    ///   Passes that repeat their shapes keep reusing the same buffers.
    pub fn reset(&mut self) {
        let nodes = &self.nodes;
        self.pool.free.retain(|&(rows, cols), _| {
            nodes.iter().any(|n| {
                !matches!(n.op, Op::Input) && n.value.rows() == rows && n.value.cols() == cols
            })
        });
        while let Some(node) = self.nodes.pop() {
            if !matches!(node.op, Op::Input) {
                self.pool.recycle(node.value);
            }
        }
    }

    /// Number of recycled buffers currently parked in the tape's free
    /// list (diagnostic; see [`Graph::reset`]).
    pub fn free_buffers(&self) -> usize {
        self.pool.len()
    }

    /// Runs `f` on a thread-local recycled tape.
    ///
    /// This is the inference entrypoint: one-shot forward passes
    /// (`predict`-style calls that would otherwise construct and drop a
    /// fresh `Graph` each time) lease their value buffers from a
    /// per-thread pool that persists across calls. The tape is
    /// [`Graph::reset`] before `f` runs, so node indices start from zero
    /// while warmed buffers are reused; results are bitwise-identical to
    /// a fresh graph (leases are zeroed, and the free list is an
    /// order-deterministic `BTreeMap` keyed by shape). Thread-locality
    /// keeps the stco-par determinism contract intact: each worker warms
    /// its own pool and no state crosses threads. Falls back to a fresh
    /// tape under re-entrancy rather than panicking.
    pub fn with_scratch<R>(f: impl FnOnce(&mut Graph) -> R) -> R {
        SCRATCH_TAPE.with(|cell| match cell.try_borrow_mut() {
            Ok(mut g) => {
                g.reset();
                f(&mut g)
            }
            Err(_) => f(&mut Graph::new()),
        })
    }

    /// Number of nodes recorded so far.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the tape is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The computed value of a node.
    pub fn value(&self, id: NodeId) -> &Matrix {
        &self.nodes[id.0].value
    }

    fn push(&mut self, value: Matrix, op: Op) -> NodeId {
        self.nodes.push(Node { value, op });
        NodeId(self.nodes.len() - 1)
    }

    /// Records a constant input tensor.
    pub fn input(&mut self, value: Matrix) -> NodeId {
        self.push(value, Op::Input)
    }

    /// Records a trainable parameter by copying its current value onto the
    /// tape; gradients flow back into [`Params`] on [`Graph::backward`].
    pub fn param(&mut self, params: &Params, id: ParamId) -> NodeId {
        let v = self.pool.lease_copy(params.value(id));
        self.push(v, Op::Param(id))
    }

    /// Dense matrix product.
    ///
    /// # Panics
    ///
    /// Panics if inner dimensions disagree.
    pub fn matmul(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let (rows, cols) = (self.nodes[a.0].value.rows(), self.nodes[b.0].value.cols());
        let mut out = self.pool.lease_zeroed(rows, cols);
        self.nodes[a.0]
            .value
            .gemm_into(&self.nodes[b.0].value, &mut out);
        self.push(out, Op::MatMul(a, b))
    }

    /// Elementwise sum.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn add(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let v = self.map_binary(a, b, |x, y| x + y);
        self.push(v, Op::Add(a, b))
    }

    /// Adds a `[1×d]` row vector to every row of a `[n×d]` matrix.
    ///
    /// # Panics
    ///
    /// Panics if `b` is not `1×d` with matching `d`.
    pub fn add_row_broadcast(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let (av, bv) = (&self.nodes[a.0].value, &self.nodes[b.0].value);
        assert_eq!(bv.rows(), 1, "broadcast operand must be a row vector");
        assert_eq!(av.cols(), bv.cols(), "broadcast width mismatch");
        let mut out = self.pool.lease_copy(av);
        kernels::add_row(&mut out, bv.row(0));
        self.push(out, Op::AddRowBroadcast(a, b))
    }

    /// Multiplies each row `i` of `a [n×d]` by scalar `b[i, 0]`.
    ///
    /// # Panics
    ///
    /// Panics if `b` is not `n×1`.
    pub fn mul_col_broadcast(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let (av, bv) = (&self.nodes[a.0].value, &self.nodes[b.0].value);
        assert_eq!(bv.cols(), 1, "column-broadcast operand must be n×1");
        assert_eq!(av.rows(), bv.rows(), "column-broadcast height mismatch");
        let mut out = self.pool.lease_copy(av);
        for i in 0..out.rows() {
            let s = bv.get(i, 0);
            for v in out.row_mut(i) {
                *v *= s;
            }
        }
        self.push(out, Op::MulColBroadcast(a, b))
    }

    /// Rectified linear unit.
    pub fn relu(&mut self, a: NodeId) -> NodeId {
        let v = self.map_unary(a, kernels::relu);
        self.push(v, Op::Relu(a))
    }

    /// Leaky ReLU (`slope` on the negative side; GAT attention uses 0.2).
    pub fn leaky_relu(&mut self, a: NodeId, slope: f64) -> NodeId {
        let v = self.map_unary(a, |x| kernels::leaky_relu(x, slope));
        self.push(v, Op::LeakyRelu(a, slope))
    }

    /// Exponential linear unit.
    pub fn elu(&mut self, a: NodeId, alpha: f64) -> NodeId {
        let v = self.map_unary(a, |x| kernels::elu(x, alpha));
        self.push(v, Op::Elu(a, alpha))
    }

    /// Hyperbolic tangent.
    pub fn tanh_act(&mut self, a: NodeId) -> NodeId {
        let v = self.map_unary(a, f64::tanh);
        self.push(v, Op::Tanh(a))
    }

    /// Logistic sigmoid.
    pub fn sigmoid(&mut self, a: NodeId) -> NodeId {
        let v = self.map_unary(a, kernels::sigmoid);
        self.push(v, Op::Sigmoid(a))
    }

    fn map_unary(&mut self, a: NodeId, f: impl Fn(f64) -> f64) -> Matrix {
        let av = &self.nodes[a.0].value;
        let mut out = self.pool.lease_zeroed(av.rows(), av.cols());
        for (o, &x) in out.as_mut_slice().iter_mut().zip(av.as_slice()) {
            *o = f(x);
        }
        out
    }

    fn map_binary(&mut self, a: NodeId, b: NodeId, f: impl Fn(f64, f64) -> f64) -> Matrix {
        let (av, bv) = (&self.nodes[a.0].value, &self.nodes[b.0].value);
        assert_eq!((av.rows(), av.cols()), (bv.rows(), bv.cols()));
        let mut out = self.pool.lease_zeroed(av.rows(), av.cols());
        for ((o, &x), &y) in out
            .as_mut_slice()
            .iter_mut()
            .zip(av.as_slice())
            .zip(bv.as_slice())
        {
            *o = f(x, y);
        }
        out
    }

    /// Per-row layer normalization with learnable `gamma`/`beta` (`[1×d]`).
    ///
    /// # Panics
    ///
    /// Panics if gamma/beta are not `1×d` row vectors matching `x`.
    pub fn layer_norm(&mut self, x: NodeId, gamma: NodeId, beta: NodeId) -> NodeId {
        let eps = kernels::LAYER_NORM_EPS;
        let xv = &self.nodes[x.0].value;
        let gv = &self.nodes[gamma.0].value;
        let bv = &self.nodes[beta.0].value;
        let d = xv.cols();
        assert_eq!((gv.rows(), gv.cols()), (1, d), "gamma must be 1×d");
        assert_eq!((bv.rows(), bv.cols()), (1, d), "beta must be 1×d");
        let mut out = self.pool.lease_zeroed(xv.rows(), d);
        kernels::layer_norm(xv, gv.row(0), bv.row(0), eps, &mut out);
        self.push(
            out,
            Op::LayerNorm {
                x,
                gamma,
                beta,
                eps,
            },
        )
    }

    /// Concatenates nodes along the column axis.
    ///
    /// # Panics
    ///
    /// Panics if row counts differ or `parts` is empty.
    pub fn concat_cols(&mut self, parts: &[NodeId]) -> NodeId {
        assert!(!parts.is_empty(), "concat of zero parts");
        let rows = self.nodes[parts[0].0].value.rows();
        let total: usize = parts.iter().map(|&p| self.nodes[p.0].value.cols()).sum();
        let mut out = self.pool.lease_zeroed(rows, total);
        let mut col0 = 0;
        for &p in parts {
            let pv = &self.nodes[p.0].value;
            assert_eq!(pv.rows(), rows, "concat row mismatch");
            let w = pv.cols();
            for i in 0..rows {
                out.row_mut(i)[col0..col0 + w].copy_from_slice(pv.row(i));
            }
            col0 += w;
        }
        self.push(out, Op::ConcatCols(parts.to_vec()))
    }

    /// Gathers rows: output row `i` is `x[idx[i]]`.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of range.
    pub fn gather_rows(&mut self, x: NodeId, idx: Arc<Vec<usize>>) -> NodeId {
        let xv = &self.nodes[x.0].value;
        let mut out = self.pool.lease_zeroed(idx.len(), xv.cols());
        for (i, &r) in idx.iter().enumerate() {
            assert!(r < xv.rows(), "gather index {r} out of {}", xv.rows());
            out.row_mut(i).copy_from_slice(xv.row(r));
        }
        self.push(out, Op::GatherRows { x, idx })
    }

    /// Scatter-add rows of `x` into `out_rows` destination rows.
    ///
    /// # Panics
    ///
    /// Panics if `idx.len() != x.rows()` or an index is out of range.
    pub fn scatter_add_rows(&mut self, x: NodeId, idx: Arc<Vec<usize>>, out_rows: usize) -> NodeId {
        let xv = &self.nodes[x.0].value;
        assert_eq!(idx.len(), xv.rows(), "one destination per source row");
        let mut out = self.pool.lease_zeroed(out_rows, xv.cols());
        for (i, &r) in idx.iter().enumerate() {
            assert!(r < out_rows, "scatter index {r} out of {out_rows}");
            for (o, s) in out.row_mut(r).iter_mut().zip(xv.row(i)) {
                *o += s;
            }
        }
        self.push(out, Op::ScatterAddRows { x, idx, out_rows })
    }

    /// Numerically-stable softmax over entries sharing a segment id.
    ///
    /// `x` must be `[m×1]`; entry `i` belongs to segment `seg[i]`. Within
    /// each segment the outputs sum to 1 (GAT attention per destination).
    ///
    /// # Panics
    ///
    /// Panics if `x` is not a column vector or a segment id is out of range.
    pub fn segment_softmax(&mut self, x: NodeId, seg: Arc<Vec<usize>>, n_seg: usize) -> NodeId {
        let xv = &self.nodes[x.0].value;
        assert_eq!(xv.cols(), 1, "segment softmax expects a column vector");
        assert_eq!(seg.len(), xv.rows(), "one segment id per row");
        let mut out = self.pool.lease_zeroed(seg.len(), 1);
        kernels::segment_softmax(xv, &seg, n_seg, &mut out);
        self.push(out, Op::SegmentSoftmax { x, seg, n_seg })
    }

    /// Mean of rows sharing a segment id → `[n_seg × d]`. Empty segments
    /// yield zero rows.
    ///
    /// # Panics
    ///
    /// Panics if `seg.len() != x.rows()` or an id is out of range.
    // stco-hot
    pub fn segment_mean(&mut self, x: NodeId, seg: Arc<Vec<usize>>, n_seg: usize) -> NodeId {
        let xv = &self.nodes[x.0].value;
        let mut out = self.pool.lease_zeroed(n_seg, xv.cols());
        kernels::segment_mean(xv, &seg, &mut out);
        self.push(out, Op::SegmentMean { x, seg, n_seg })
    }

    /// Sparse-dense product `a · x` where `a` is a constant sparse matrix
    /// (e.g. a symmetrically normalized adjacency for GCN).
    ///
    /// # Panics
    ///
    /// Panics if `a.cols() != x.rows()`.
    // stco-hot
    pub fn spmm(&mut self, a: Arc<CsrMatrix>, x: NodeId) -> NodeId {
        let xv = &self.nodes[x.0].value;
        assert_eq!(a.cols(), xv.rows(), "spmm shape mismatch");
        let mut out = self.pool.lease_zeroed(a.rows(), xv.cols());
        for i in 0..a.rows() {
            for (j, w) in a.row_entries(i) {
                for (o, v) in out.row_mut(i).iter_mut().zip(xv.row(j)) {
                    *o += w * v;
                }
            }
        }
        let a_t = Arc::new(a.transpose());
        self.push(out, Op::SpMm { a, a_t, x })
    }

    /// Mean-squared-error loss over all elements → scalar node `[1×1]`.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn mse_loss(&mut self, pred: NodeId, target: NodeId) -> NodeId {
        let (pv, tv) = (self.value(pred), self.value(target));
        assert_eq!((pv.rows(), pv.cols()), (tv.rows(), tv.cols()));
        let loss = kernels::mse(pv.as_slice(), tv.as_slice());
        let mut out = self.pool.lease_zeroed(1, 1);
        out.set(0, 0, loss);
        self.push(out, Op::MseLoss(pred, target))
    }

    /// Reverse pass from `loss` (which must be `1×1`), accumulating
    /// parameter gradients into `params`. The tape itself is left intact so
    /// node values can still be read afterwards.
    ///
    /// Gradient buffers are leased from the tape's buffer pool and
    /// recycled as soon as they are consumed, so repeated passes over a
    /// [`Graph::reset`] tape are allocation-free in steady state.
    ///
    /// # Panics
    ///
    /// Panics if `loss` is not a scalar node.
    // stco-hot
    pub fn backward(&mut self, loss: NodeId, params: &mut Params) {
        let (nodes, pool) = (&self.nodes, &mut self.pool);
        let lv = &nodes[loss.0].value;
        assert_eq!((lv.rows(), lv.cols()), (1, 1), "loss must be scalar");
        let mut grads: Vec<Option<Matrix>> = Vec::new();
        grads.resize_with(nodes.len(), || None);
        let mut seed = pool.lease_zeroed(1, 1);
        seed.set(0, 0, 1.0);
        grads[loss.0] = Some(seed);

        for i in (0..nodes.len()).rev() {
            let Some(g) = grads[i].take() else { continue };
            // Borrow the op off the tape — cloning it per node would copy
            // every `ConcatCols` index vector and bump every `Arc` on the
            // backward hot path.
            match &nodes[i].op {
                Op::Input => pool.recycle(g),
                Op::Param(pid) => {
                    params_accumulate(params, *pid, &g);
                    pool.recycle(g);
                }
                Op::MatMul(a, b) => {
                    let (av, bv) = (&nodes[a.0].value, &nodes[b.0].value);
                    // da = g · bᵀ and db = aᵀ · g, without materializing
                    // either transpose.
                    let mut da = pool.lease_zeroed(g.rows(), bv.rows());
                    g.gemm_nt_into(bv, &mut da);
                    let mut db = pool.lease_zeroed(av.cols(), g.cols());
                    av.gemm_tn_into(&g, &mut db);
                    accumulate(pool, &mut grads, a.0, da);
                    accumulate(pool, &mut grads, b.0, db);
                    pool.recycle(g);
                }
                Op::Add(a, b) => {
                    let ga = pool.lease_copy(&g);
                    accumulate(pool, &mut grads, a.0, ga);
                    accumulate(pool, &mut grads, b.0, g);
                }
                Op::AddRowBroadcast(a, b) => {
                    let mut db = pool.lease_zeroed(1, g.cols());
                    for r in 0..g.rows() {
                        for c in 0..g.cols() {
                            db.add_at(0, c, g.get(r, c));
                        }
                    }
                    accumulate(pool, &mut grads, a.0, g);
                    accumulate(pool, &mut grads, b.0, db);
                }
                Op::MulColBroadcast(a, b) => {
                    let (av, bv) = (&nodes[a.0].value, &nodes[b.0].value);
                    let mut da = pool.lease_copy(&g);
                    for r in 0..da.rows() {
                        let s = bv.get(r, 0);
                        for v in da.row_mut(r) {
                            *v *= s;
                        }
                    }
                    let mut db = pool.lease_zeroed(bv.rows(), 1);
                    for r in 0..g.rows() {
                        let mut s = 0.0;
                        for c in 0..g.cols() {
                            s += g.get(r, c) * av.get(r, c);
                        }
                        db.set(r, 0, s);
                    }
                    accumulate(pool, &mut grads, a.0, da);
                    accumulate(pool, &mut grads, b.0, db);
                    pool.recycle(g);
                }
                Op::Relu(a) => {
                    let av = &nodes[a.0].value;
                    let da = map_grad(pool, &g, av, |x| if x > 0.0 { 1.0 } else { 0.0 });
                    accumulate(pool, &mut grads, a.0, da);
                    pool.recycle(g);
                }
                Op::LeakyRelu(a, slope) => {
                    let av = &nodes[a.0].value;
                    let da = map_grad(pool, &g, av, |x| if x > 0.0 { 1.0 } else { *slope });
                    accumulate(pool, &mut grads, a.0, da);
                    pool.recycle(g);
                }
                Op::Elu(a, alpha) => {
                    let av = &nodes[a.0].value;
                    let da = map_grad(
                        pool,
                        &g,
                        av,
                        |x| if x > 0.0 { 1.0 } else { alpha * x.exp() },
                    );
                    accumulate(pool, &mut grads, a.0, da);
                    pool.recycle(g);
                }
                Op::Tanh(a) => {
                    let yv = &nodes[i].value;
                    let da = map_grad(pool, &g, yv, |y| 1.0 - y * y);
                    accumulate(pool, &mut grads, a.0, da);
                    pool.recycle(g);
                }
                Op::Sigmoid(a) => {
                    let yv = &nodes[i].value;
                    let da = map_grad(pool, &g, yv, |y| y * (1.0 - y));
                    accumulate(pool, &mut grads, a.0, da);
                    pool.recycle(g);
                }
                Op::LayerNorm {
                    x,
                    gamma,
                    beta,
                    eps,
                } => {
                    let xv = &nodes[x.0].value;
                    let gv = &nodes[gamma.0].value;
                    let d = xv.cols();
                    let mut dx = pool.lease_zeroed(xv.rows(), d);
                    let mut dgamma = pool.lease_zeroed(1, d);
                    let mut dbeta = pool.lease_zeroed(1, d);
                    let mut xhat = vec![0.0; d];
                    let mut dxhat = vec![0.0; d];
                    for r in 0..xv.rows() {
                        let row = xv.row(r);
                        let mean = row.iter().sum::<f64>() / d as f64;
                        let var =
                            row.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / d as f64;
                        let inv = 1.0 / (var + eps).sqrt();
                        for (h, v) in xhat.iter_mut().zip(row) {
                            *h = (v - mean) * inv;
                        }
                        let grow = g.row(r);
                        let mut sum_dxhat = 0.0;
                        let mut sum_dxhat_xhat = 0.0;
                        for j in 0..d {
                            dgamma.add_at(0, j, grow[j] * xhat[j]);
                            dbeta.add_at(0, j, grow[j]);
                            dxhat[j] = grow[j] * gv.get(0, j);
                            sum_dxhat += dxhat[j];
                            sum_dxhat_xhat += dxhat[j] * xhat[j];
                        }
                        for j in 0..d {
                            let v = inv
                                * (dxhat[j]
                                    - sum_dxhat / d as f64
                                    - xhat[j] * sum_dxhat_xhat / d as f64);
                            dx.set(r, j, v);
                        }
                    }
                    accumulate(pool, &mut grads, x.0, dx);
                    accumulate(pool, &mut grads, gamma.0, dgamma);
                    accumulate(pool, &mut grads, beta.0, dbeta);
                    pool.recycle(g);
                }
                Op::ConcatCols(parts) => {
                    let mut col0 = 0;
                    for &p in parts {
                        let pv = &nodes[p.0].value;
                        let (rows, w) = (pv.rows(), pv.cols());
                        let mut dp = pool.lease_zeroed(rows, w);
                        for r in 0..rows {
                            dp.row_mut(r).copy_from_slice(&g.row(r)[col0..col0 + w]);
                        }
                        col0 += w;
                        accumulate(pool, &mut grads, p.0, dp);
                    }
                    pool.recycle(g);
                }
                Op::GatherRows { x, idx } => {
                    let xv = &nodes[x.0].value;
                    let mut dx = pool.lease_zeroed(xv.rows(), xv.cols());
                    for (r, &src) in idx.iter().enumerate() {
                        for (o, v) in dx.row_mut(src).iter_mut().zip(g.row(r)) {
                            *o += v;
                        }
                    }
                    accumulate(pool, &mut grads, x.0, dx);
                    pool.recycle(g);
                }
                Op::ScatterAddRows { x, idx, .. } => {
                    let xv = &nodes[x.0].value;
                    let mut dx = pool.lease_zeroed(xv.rows(), xv.cols());
                    for (r, &dst) in idx.iter().enumerate() {
                        dx.row_mut(r).copy_from_slice(g.row(dst));
                    }
                    accumulate(pool, &mut grads, x.0, dx);
                    pool.recycle(g);
                }
                Op::SegmentSoftmax { x, seg, n_seg } => {
                    let yv = &nodes[i].value;
                    // d x_i = y_i (g_i − Σ_{j ∈ seg(i)} y_j g_j)
                    let mut seg_dot = vec![0.0; *n_seg];
                    for (r, &s) in seg.iter().enumerate() {
                        seg_dot[s] += yv.get(r, 0) * g.get(r, 0);
                    }
                    let mut dx = pool.lease_zeroed(yv.rows(), 1);
                    for (r, &s) in seg.iter().enumerate() {
                        dx.set(r, 0, yv.get(r, 0) * (g.get(r, 0) - seg_dot[s]));
                    }
                    accumulate(pool, &mut grads, x.0, dx);
                    pool.recycle(g);
                }
                Op::SegmentMean { x, seg, n_seg } => {
                    let xv = &nodes[x.0].value;
                    let mut counts = vec![0usize; *n_seg];
                    for &s in seg.iter() {
                        counts[s] += 1;
                    }
                    let mut dx = pool.lease_zeroed(xv.rows(), xv.cols());
                    for (r, &s) in seg.iter().enumerate() {
                        let c = counts[s] as f64;
                        for (o, v) in dx.row_mut(r).iter_mut().zip(g.row(s)) {
                            *o = v / c;
                        }
                    }
                    accumulate(pool, &mut grads, x.0, dx);
                    pool.recycle(g);
                }
                Op::SpMm { a_t, x, .. } => {
                    // dX = Aᵀ · G
                    let mut dx = pool.lease_zeroed(a_t.rows(), g.cols());
                    for r in 0..a_t.rows() {
                        for (j, w) in a_t.row_entries(r) {
                            for (o, v) in dx.row_mut(r).iter_mut().zip(g.row(j)) {
                                *o += w * v;
                            }
                        }
                    }
                    accumulate(pool, &mut grads, x.0, dx);
                    pool.recycle(g);
                }
                Op::MseLoss(pred, target) => {
                    let (pv, tv) = (&nodes[pred.0].value, &nodes[target.0].value);
                    let n = (pv.rows() * pv.cols()) as f64;
                    let scale = 2.0 * g.get(0, 0) / n;
                    let mut dp = pool.lease_zeroed(pv.rows(), pv.cols());
                    for ((o, p), t) in dp
                        .as_mut_slice()
                        .iter_mut()
                        .zip(pv.as_slice())
                        .zip(tv.as_slice())
                    {
                        *o = scale * (p - t);
                    }
                    let mut dt = pool.lease_copy(&dp);
                    dt.scale(-1.0);
                    accumulate(pool, &mut grads, pred.0, dp);
                    accumulate(pool, &mut grads, target.0, dt);
                    pool.recycle(g);
                }
            }
        }
        // Any gradient the reverse walk never consumed (e.g. a node with
        // no path to the loss) still goes back to the pool.
        for m in grads.into_iter().flatten() {
            pool.recycle(m);
        }
    }
}

/// Forward kernels of the tape's ops, shared with the off-tape inference
/// path ([`crate::gnn::RelGatStack::infer`], [`crate::layers::Mlp::infer`]),
/// so both run one copy of each formula and agree bit for bit.
pub mod kernels {
    use stco_numerics::Matrix;

    /// Variance epsilon of [`crate::ad::Graph::layer_norm`].
    pub(crate) const LAYER_NORM_EPS: f64 = 1e-5;

    /// Rectified linear unit.
    pub(crate) fn relu(x: f64) -> f64 {
        x.max(0.0)
    }

    /// Leaky ReLU with `slope` on the negative side.
    pub(crate) fn leaky_relu(x: f64, slope: f64) -> f64 {
        if x > 0.0 {
            x
        } else {
            slope * x
        }
    }

    /// Exponential linear unit.
    pub(crate) fn elu(x: f64, alpha: f64) -> f64 {
        if x > 0.0 {
            x
        } else {
            alpha * (x.exp() - 1.0)
        }
    }

    /// Logistic sigmoid.
    pub(crate) fn sigmoid(x: f64) -> f64 {
        1.0 / (1.0 + (-x).exp())
    }

    /// Adds `row` to every row of `out` (the bias add).
    pub(crate) fn add_row(out: &mut Matrix, row: &[f64]) {
        for i in 0..out.rows() {
            for (o, b) in out.row_mut(i).iter_mut().zip(row) {
                *o += b;
            }
        }
    }

    /// Normalizes each row of `x` into the zeroed `out`, then applies the
    /// gain `gamma` and shift `beta`.
    pub(crate) fn layer_norm(x: &Matrix, gamma: &[f64], beta: &[f64], eps: f64, out: &mut Matrix) {
        let d = x.cols();
        for i in 0..x.rows() {
            let row = x.row(i);
            let mean = row.iter().sum::<f64>() / d as f64;
            let var = row.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / d as f64;
            let inv = 1.0 / (var + eps).sqrt();
            for (j, (&xj, o)) in row.iter().zip(out.row_mut(i)).enumerate() {
                let xhat = (xj - mean) * inv;
                *o = xhat * gamma[j] + beta[j];
            }
        }
    }

    /// Softmax of the `[m×1]` scores `x` over rows sharing a segment id,
    /// into `out`: exponentials and segment sums accumulate in row order.
    ///
    /// # Panics
    ///
    /// Panics if a segment id is out of range.
    pub(crate) fn segment_softmax(x: &Matrix, seg: &[usize], n_seg: usize, out: &mut Matrix) {
        let mut seg_max = vec![f64::NEG_INFINITY; n_seg];
        for (r, &s) in seg.iter().enumerate() {
            assert!(s < n_seg, "segment id {s} out of {n_seg}");
            seg_max[s] = seg_max[s].max(x.get(r, 0));
        }
        let mut seg_sum = vec![0.0; n_seg];
        let mut exps = vec![0.0; seg.len()];
        for (r, &s) in seg.iter().enumerate() {
            let e = (x.get(r, 0) - seg_max[s]).exp();
            exps[r] = e;
            seg_sum[s] += e;
        }
        for (r, &s) in seg.iter().enumerate() {
            out.set(r, 0, exps[r] / seg_sum[s].max(1e-300));
        }
    }

    /// Mean squared error of `pred` against `target`: the squared
    /// differences summed in order, then divided by their count.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn mse(pred: &[f64], target: &[f64]) -> f64 {
        assert_eq!(pred.len(), target.len(), "one target per prediction");
        let sum: f64 = pred
            .iter()
            .zip(target)
            .map(|(p, t)| (p - t) * (p - t))
            .sum();
        sum / pred.len() as f64
    }

    /// Mean of the rows of `x` sharing a segment id, into the zeroed
    /// `out` (one row per segment): rows accumulate in order, then each
    /// sum is divided by its count. Empty segments stay zero.
    ///
    /// # Panics
    ///
    /// Panics if `seg.len() != x.rows()` or an id is out of range.
    pub fn segment_mean(x: &Matrix, seg: &[usize], out: &mut Matrix) {
        assert_eq!(seg.len(), x.rows(), "one segment id per row");
        let n_seg = out.rows();
        let mut counts = vec![0usize; n_seg];
        for (i, &s) in seg.iter().enumerate() {
            assert!(s < n_seg, "segment id {s} out of {n_seg}");
            counts[s] += 1;
            for (o, v) in out.row_mut(s).iter_mut().zip(x.row(i)) {
                *o += v;
            }
        }
        for (s, &c) in counts.iter().enumerate() {
            if c > 0 {
                for v in out.row_mut(s) {
                    *v /= c as f64;
                }
            }
        }
    }
}

/// Adds `g` into the gradient slot for node `idx`, recycling `g` when the
/// slot already holds a buffer.
fn accumulate(pool: &mut BufferPool, grads: &mut [Option<Matrix>], idx: usize, g: Matrix) {
    match &mut grads[idx] {
        Some(existing) => {
            for (e, n) in existing.as_mut_slice().iter_mut().zip(g.as_slice()) {
                *e += n;
            }
            pool.recycle(g);
        }
        slot => *slot = Some(g),
    }
}

fn map_grad(pool: &mut BufferPool, g: &Matrix, basis: &Matrix, f: impl Fn(f64) -> f64) -> Matrix {
    let mut out = pool.lease_zeroed(g.rows(), g.cols());
    for ((o, &gv), &bv) in out
        .as_mut_slice()
        .iter_mut()
        .zip(g.as_slice())
        .zip(basis.as_slice())
    {
        *o = gv * f(bv);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use stco_numerics::rng::Xorshift;

    /// Central finite-difference check of d loss / d param against the
    /// tape's analytic gradient for an arbitrary scalar-valued builder.
    fn grad_check<F>(params: &mut Params, ids: &[ParamId], build: F)
    where
        F: Fn(&mut Graph, &Params) -> NodeId,
    {
        let mut g = Graph::new();
        let loss = build(&mut g, params);
        params.zero_grads();
        g.backward(loss, params);
        let analytic: Vec<Matrix> = ids.iter().map(|&id| params.grad(id).clone()).collect();

        let h = 1e-6;
        for (k, &id) in ids.iter().enumerate() {
            let (rows, cols) = {
                let m = params.value(id);
                (m.rows(), m.cols())
            };
            for r in 0..rows {
                for c in 0..cols {
                    let orig = params.value(id).get(r, c);
                    params.value_mut(id).set(r, c, orig + h);
                    let mut gp = Graph::new();
                    let lp = build(&mut gp, params);
                    let fp = gp.value(lp).get(0, 0);
                    params.value_mut(id).set(r, c, orig - h);
                    let mut gm = Graph::new();
                    let lm = build(&mut gm, params);
                    let fm = gm.value(lm).get(0, 0);
                    params.value_mut(id).set(r, c, orig);
                    let numeric = (fp - fm) / (2.0 * h);
                    let a = analytic[k].get(r, c);
                    let denom = a.abs().max(numeric.abs()).max(1e-6);
                    assert!(
                        (a - numeric).abs() / denom < 1e-4,
                        "param {k} ({r},{c}): analytic {a} vs numeric {numeric}"
                    );
                }
            }
        }
    }

    fn random_matrix(rng: &mut Xorshift, rows: usize, cols: usize) -> Matrix {
        let data = (0..rows * cols)
            .map(|_| rng.uniform_in(-1.0, 1.0))
            .collect();
        Matrix::from_vec(rows, cols, data)
    }

    #[test]
    fn grad_matmul_add_relu() {
        let mut rng = Xorshift::new(1);
        let mut params = Params::new(2);
        let w = params.glorot(3, 2);
        let b = params.zeros(1, 2);
        let x = random_matrix(&mut rng, 4, 3);
        let t = random_matrix(&mut rng, 4, 2);
        grad_check(&mut params, &[w, b], |g, p| {
            let xi = g.input(x.clone());
            let ti = g.input(t.clone());
            let wi = g.param(p, w);
            let bi = g.param(p, b);
            let h = g.matmul(xi, wi);
            let h = g.add_row_broadcast(h, bi);
            let h = g.relu(h);
            g.mse_loss(h, ti)
        });
    }

    #[test]
    fn grad_activations() {
        let mut rng = Xorshift::new(3);
        let mut params = Params::new(4);
        let w = params.glorot(2, 2);
        let x = random_matrix(&mut rng, 3, 2);
        let t = random_matrix(&mut rng, 3, 2);
        for act in 0..4 {
            grad_check(&mut params, &[w], |g, p| {
                let xi = g.input(x.clone());
                let ti = g.input(t.clone());
                let wi = g.param(p, w);
                let h = g.matmul(xi, wi);
                let h = match act {
                    0 => g.leaky_relu(h, 0.2),
                    1 => g.elu(h, 1.0),
                    2 => g.tanh_act(h),
                    _ => g.sigmoid(h),
                };
                g.mse_loss(h, ti)
            });
        }
    }

    #[test]
    fn grad_layer_norm() {
        let mut rng = Xorshift::new(5);
        let mut params = Params::new(6);
        let w = params.glorot(3, 4);
        let gamma = params.full(1, 4, 1.0);
        let beta = params.zeros(1, 4);
        let x = random_matrix(&mut rng, 5, 3);
        let t = random_matrix(&mut rng, 5, 4);
        grad_check(&mut params, &[w, gamma, beta], |g, p| {
            let xi = g.input(x.clone());
            let ti = g.input(t.clone());
            let wi = g.param(p, w);
            let gi = g.param(p, gamma);
            let bi = g.param(p, beta);
            let h = g.matmul(xi, wi);
            let h = g.layer_norm(h, gi, bi);
            g.mse_loss(h, ti)
        });
    }

    #[test]
    fn grad_gather_scatter() {
        let mut rng = Xorshift::new(7);
        let mut params = Params::new(8);
        let w = params.glorot(3, 3);
        let x = random_matrix(&mut rng, 4, 3);
        let t = random_matrix(&mut rng, 4, 3);
        let idx = Arc::new(vec![0usize, 2, 2, 3, 1]);
        grad_check(&mut params, &[w], |g, p| {
            let xi = g.input(x.clone());
            let ti = g.input(t.clone());
            let wi = g.param(p, w);
            let h = g.matmul(xi, wi);
            let gat = g.gather_rows(h, Arc::clone(&idx));
            let back = g.scatter_add_rows(gat, Arc::clone(&idx), 4);
            g.mse_loss(back, ti)
        });
    }

    #[test]
    fn grad_segment_softmax_attention() {
        let mut rng = Xorshift::new(9);
        let mut params = Params::new(10);
        let w = params.glorot(2, 1);
        let x = random_matrix(&mut rng, 6, 2);
        let msg = random_matrix(&mut rng, 6, 3);
        let t = random_matrix(&mut rng, 3, 3);
        let seg = Arc::new(vec![0usize, 0, 1, 1, 2, 2]);
        grad_check(&mut params, &[w], |g, p| {
            let xi = g.input(x.clone());
            let mi = g.input(msg.clone());
            let ti = g.input(t.clone());
            let wi = g.param(p, w);
            let scores = g.matmul(xi, wi);
            let alpha = g.segment_softmax(scores, Arc::clone(&seg), 3);
            let weighted = g.mul_col_broadcast(mi, alpha);
            let agg = g.scatter_add_rows(weighted, Arc::clone(&seg), 3);
            g.mse_loss(agg, ti)
        });
    }

    #[test]
    fn grad_segment_mean_readout() {
        let mut rng = Xorshift::new(11);
        let mut params = Params::new(12);
        let w = params.glorot(2, 3);
        let x = random_matrix(&mut rng, 5, 2);
        let t = random_matrix(&mut rng, 2, 3);
        let seg = Arc::new(vec![0usize, 0, 0, 1, 1]);
        grad_check(&mut params, &[w], |g, p| {
            let xi = g.input(x.clone());
            let ti = g.input(t.clone());
            let wi = g.param(p, w);
            let h = g.matmul(xi, wi);
            let pooled = g.segment_mean(h, Arc::clone(&seg), 2);
            g.mse_loss(pooled, ti)
        });
    }

    #[test]
    fn grad_spmm() {
        let mut rng = Xorshift::new(13);
        let mut params = Params::new(14);
        let w = params.glorot(2, 2);
        let x = random_matrix(&mut rng, 4, 2);
        let t = random_matrix(&mut rng, 4, 2);
        let adj = Arc::new(CsrMatrix::from_triplets(
            4,
            4,
            &[
                (0, 0, 0.5),
                (0, 1, 0.5),
                (1, 0, 0.3),
                (1, 1, 0.7),
                (2, 2, 1.0),
                (3, 2, 0.4),
                (3, 3, 0.6),
            ],
        ));
        grad_check(&mut params, &[w], |g, p| {
            let xi = g.input(x.clone());
            let ti = g.input(t.clone());
            let wi = g.param(p, w);
            let h = g.matmul(xi, wi);
            let agg = g.spmm(Arc::clone(&adj), h);
            g.mse_loss(agg, ti)
        });
    }

    #[test]
    fn grad_concat_mul_scale_sub() {
        let mut rng = Xorshift::new(15);
        let mut params = Params::new(16);
        let w1 = params.glorot(2, 2);
        let w2 = params.glorot(2, 2);
        let x = random_matrix(&mut rng, 3, 2);
        let t = random_matrix(&mut rng, 3, 4);
        grad_check(&mut params, &[w1, w2], |g, p| {
            let xi = g.input(x.clone());
            let ti = g.input(t.clone());
            let a = g.param(p, w1);
            let b = g.param(p, w2);
            let ha = g.matmul(xi, a);
            let hb = g.matmul(xi, b);
            let cat = g.concat_cols(&[ha, hb]);
            g.mse_loss(cat, ti)
        });
    }

    #[test]
    fn segment_softmax_sums_to_one() {
        let mut g = Graph::new();
        let x = g.input(Matrix::from_vec(5, 1, vec![1.0, -2.0, 0.5, 3.0, 3.0]));
        let seg = Arc::new(vec![0usize, 0, 0, 1, 1]);
        let sm = g.segment_softmax(x, seg, 2);
        let v = g.value(sm);
        let s0 = v.get(0, 0) + v.get(1, 0) + v.get(2, 0);
        let s1 = v.get(3, 0) + v.get(4, 0);
        assert!((s0 - 1.0).abs() < 1e-12);
        assert!((s1 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn segment_softmax_is_stable_for_large_scores() {
        let mut g = Graph::new();
        let x = g.input(Matrix::from_vec(2, 1, vec![1000.0, 999.0]));
        let sm = g.segment_softmax(x, Arc::new(vec![0, 0]), 1);
        let v = g.value(sm);
        assert!(v.get(0, 0).is_finite());
        assert!((v.get(0, 0) + v.get(1, 0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn reset_tape_reuse_is_bitwise_identical_to_fresh_graph() {
        let mut rng = Xorshift::new(19);
        let mut params = Params::new(21);
        let w1 = params.glorot(3, 4);
        let w2 = params.glorot(4, 2);
        let x = random_matrix(&mut rng, 5, 3);
        let t = random_matrix(&mut rng, 5, 2);
        let build = |g: &mut Graph, p: &Params| {
            let xi = g.input(x.clone());
            let ti = g.input(t.clone());
            let a = g.param(p, w1);
            let b = g.param(p, w2);
            let h = g.matmul(xi, a);
            let h = g.relu(h);
            let h = g.matmul(h, b);
            g.mse_loss(h, ti)
        };

        let mut fresh = Graph::new();
        let loss = build(&mut fresh, &params);
        params.zero_grads();
        fresh.backward(loss, &mut params);
        let ref_loss = fresh.value(loss).get(0, 0).to_bits();
        let ref_g1: Vec<u64> = params
            .grad(w1)
            .as_slice()
            .iter()
            .map(|v| v.to_bits())
            .collect();
        let ref_g2: Vec<u64> = params
            .grad(w2)
            .as_slice()
            .iter()
            .map(|v| v.to_bits())
            .collect();

        // Warm a tape, reset it, and run the same pass on recycled buffers.
        let mut reused = Graph::new();
        let warm = build(&mut reused, &params);
        params.zero_grads();
        reused.backward(warm, &mut params);
        reused.reset();
        assert!(reused.is_empty(), "reset clears the tape");
        assert!(reused.free_buffers() > 0, "reset parks buffers for reuse");

        let loss2 = build(&mut reused, &params);
        params.zero_grads();
        reused.backward(loss2, &mut params);
        assert_eq!(reused.value(loss2).get(0, 0).to_bits(), ref_loss);
        let g1: Vec<u64> = params
            .grad(w1)
            .as_slice()
            .iter()
            .map(|v| v.to_bits())
            .collect();
        let g2: Vec<u64> = params
            .grad(w2)
            .as_slice()
            .iter()
            .map(|v| v.to_bits())
            .collect();
        assert_eq!(g1, ref_g1, "recycled buffers must not change gradient bits");
        assert_eq!(g2, ref_g2, "recycled buffers must not change gradient bits");
    }

    #[test]
    fn reset_keeps_the_free_list_bounded_across_fresh_inputs() {
        // The inference pattern of `Graph::with_scratch`: every pass
        // hands the tape newly built inputs, whose row count changes
        // from pass to pass as a serving batch's does. Neither the
        // inputs nor the buffers of earlier shapes may pile up, so the
        // free list holds one pass's buffers after every reset.
        let mut rng = Xorshift::new(23);
        let mut params = Params::new(24);
        let w1 = params.glorot(3, 4);
        let w2 = params.glorot(4, 1);
        let mut g = Graph::new();
        let forward = |g: &mut Graph, rng: &mut Xorshift, rows: usize| {
            let x = g.input(random_matrix(rng, rows, 3));
            let a = g.param(&params, w1);
            let b = g.param(&params, w2);
            let h = g.matmul(x, a);
            let h = g.relu(h);
            g.matmul(h, b)
        };
        forward(&mut g, &mut rng, 5);
        g.reset();
        let settled = g.free_buffers();
        assert_eq!(settled, 5, "two param copies and three op outputs");
        for pass in 0..100 {
            forward(&mut g, &mut rng, 5 + pass % 7);
            g.reset();
            assert_eq!(g.free_buffers(), settled, "pass {pass}");
        }
    }

    #[test]
    fn gradient_accumulates_across_shared_use() {
        // A param used twice must receive the sum of both paths' grads.
        let mut params = Params::new(20);
        let w = params.glorot(1, 1);
        params.value_mut(w).set(0, 0, 3.0);
        let mut g = Graph::new();
        let x = g.input(Matrix::from_vec(1, 1, vec![1.0]));
        let t = g.input(Matrix::from_vec(1, 1, vec![0.0]));
        let wi = g.param(&params, w);
        let h1 = g.matmul(x, wi);
        let h2 = g.matmul(h1, wi); // w² — w used twice
        let loss = g.mse_loss(h2, t);
        params.zero_grads();
        g.backward(loss, &mut params);
        // loss = w⁴, d/dw = 4w³ = 108.
        assert!((params.grad(w).get(0, 0) - 108.0).abs() < 1e-9);
    }
}
