//! Graph neural network building blocks: graph containers, batching,
//! [`GcnLayer`] (Kipf & Welling) and [`RelGatLayer`] — graph attention with
//! edge features, the "RelGAT" architecture of the paper's TCAD surrogates.
//!
//! A [`RelGatStack`] runs two ways. [`RelGatStack::forward`] records on
//! the autodiff tape, for training. [`RelGatStack::infer`] runs off the
//! tape, for every prediction, and reproduces the tape forward bit for
//! bit; its mesh-constant half, [`RelGatStack::project_edges`], is
//! computed once per edge set and reused by every forward on it.

use std::sync::Arc;

use stco_numerics::{CsrMatrix, Matrix};

use crate::ad::{kernels, Graph, NodeId};
use crate::layers::{Activation, LayerNorm, Linear};
use crate::Params;

/// Negative-side slope of the attention logits' leaky ReLU.
const ATTENTION_SLOPE: f64 = 0.2;

/// A featurized graph: node features, directed edges and edge features.
///
/// Message passing sends information from `edges[k].0` (source) to
/// `edges[k].1` (destination). Self-loops should be included explicitly
/// (the encoders in `stco-surrogate` add them with zero edge features).
#[derive(Debug, Clone, Default)]
pub struct GraphData {
    /// `[num_nodes × node_dim]` node feature matrix (row-major).
    pub node_features: Matrix,
    /// Directed `(src, dst)` pairs.
    pub edges: Vec<(usize, usize)>,
    /// `[num_edges × edge_dim]` edge feature matrix.
    pub edge_features: Matrix,
}

impl GraphData {
    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.node_features.rows()
    }

    /// Number of directed edges.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Appends self-loops `(i, i)` for every node, with zero edge features.
    pub fn add_self_loops(&mut self) {
        let n = self.num_nodes();
        let de = self.edge_features.cols();
        // Move the backing buffer out instead of copying it: self-loop
        // insertion runs once per encoded device/cell graph, which makes
        // this a hot path during dataset generation.
        let mut data = std::mem::take(&mut self.edge_features).into_vec();
        for i in 0..n {
            self.edges.push((i, i));
            data.extend(std::iter::repeat_n(0.0, de));
        }
        self.edge_features = Matrix::from_vec(self.edges.len(), de, data);
    }

    /// Validates edge indices against the node count.
    ///
    /// # Panics
    ///
    /// Panics if an edge endpoint is out of range or the edge-feature row
    /// count disagrees with the edge list.
    pub fn assert_consistent(&self) {
        let n = self.num_nodes();
        for &(s, d) in &self.edges {
            assert!(s < n && d < n, "edge ({s},{d}) out of {n} nodes");
        }
        assert_eq!(
            self.edge_features.rows(),
            self.edges.len(),
            "one edge-feature row per edge"
        );
    }

    /// Symmetrically-normalized adjacency with self-loops,
    /// `D^{-1/2}(A+I)D^{-1/2}`, the GCN propagation operator.
    pub fn normalized_adjacency(&self) -> CsrMatrix {
        let n = self.num_nodes();
        let mut triplets: Vec<(usize, usize, f64)> = Vec::with_capacity(self.edges.len() + n);
        let mut has_self = vec![false; n];
        for &(s, d) in &self.edges {
            if s == d {
                has_self[s] = true;
            }
            triplets.push((d, s, 1.0));
        }
        for (i, &h) in has_self.iter().enumerate() {
            if !h {
                triplets.push((i, i, 1.0));
            }
        }
        // Degree of the (A+I) matrix per row.
        let mut deg = vec![0.0_f64; n];
        for &(r, _, _) in &triplets {
            deg[r] += 1.0;
        }
        let normalized: Vec<(usize, usize, f64)> = triplets
            .into_iter()
            .map(|(r, c, v)| (r, c, v / (deg[r].sqrt() * deg[c].sqrt())))
            .collect();
        CsrMatrix::from_triplets(n, n, &normalized)
    }
}

/// A batch of graphs merged into one disjoint union, with per-node graph
/// ids for segment-pooled readout.
#[derive(Debug, Clone)]
pub struct GraphBatch {
    /// The merged graph.
    pub merged: GraphData,
    /// Graph id of every node in the union.
    pub node_graph_ids: Arc<Vec<usize>>,
    /// Number of graphs in the batch.
    pub num_graphs: usize,
}

impl GraphBatch {
    /// Merges graphs into a disjoint union (node indices offset per graph).
    ///
    /// # Panics
    ///
    /// Panics if `graphs` is empty or feature widths disagree.
    pub fn from_graphs(graphs: &[&GraphData]) -> Self {
        assert!(!graphs.is_empty(), "cannot batch zero graphs");
        let nd = graphs[0].node_features.cols();
        let ed = graphs[0].edge_features.cols();
        let mut node_data = Vec::new();
        let mut edge_data = Vec::new();
        let mut edges = Vec::new();
        let mut ids = Vec::new();
        let mut offset = 0;
        for (gi, g) in graphs.iter().enumerate() {
            assert_eq!(g.node_features.cols(), nd, "node feature width mismatch");
            assert_eq!(g.edge_features.cols(), ed, "edge feature width mismatch");
            node_data.extend_from_slice(g.node_features.as_slice());
            edge_data.extend_from_slice(g.edge_features.as_slice());
            for &(s, d) in &g.edges {
                edges.push((s + offset, d + offset));
            }
            ids.extend(std::iter::repeat_n(gi, g.num_nodes()));
            offset += g.num_nodes();
        }
        GraphBatch {
            merged: GraphData {
                node_features: Matrix::from_vec(offset, nd, node_data),
                edges,
                edge_features: Matrix::from_vec(
                    graphs.iter().map(|g| g.num_edges()).sum(),
                    ed,
                    edge_data,
                ),
            },
            node_graph_ids: Arc::new(ids),
            num_graphs: graphs.len(),
        }
    }
}

/// One graph-convolution layer: `H' = σ(Â·H·W + b)` with
/// `Â = D^{-1/2}(A+I)D^{-1/2}`.
///
/// The paper's cell-library model stacks three of these followed by
/// per-metric MLP heads.
#[derive(Debug, Clone)]
pub struct GcnLayer {
    linear: Linear,
    activation: Activation,
}

impl GcnLayer {
    /// Allocates a GCN layer mapping `in_dim → out_dim`.
    pub fn new(params: &mut Params, in_dim: usize, out_dim: usize, activation: Activation) -> Self {
        GcnLayer {
            linear: Linear::new(params, in_dim, out_dim),
            activation,
        }
    }

    /// Records one propagation step. `adj` must be the normalized
    /// adjacency from [`GraphData::normalized_adjacency`].
    pub fn forward(
        &self,
        g: &mut Graph,
        params: &Params,
        adj: &Arc<CsrMatrix>,
        x: NodeId,
    ) -> NodeId {
        let h = self.linear.forward(g, params, x);
        let agg = g.spmm(Arc::clone(adj), h);
        self.activation.apply(g, agg)
    }
}

/// Graph attention with edge features ("RelGAT" in the paper).
///
/// Each head `k` computes, for edge `(j → i)` with edge feature `e_{ij}`:
///
/// ```text
/// s_{ij} = LeakyReLU( aᵀ [ W h_i ‖ W h_j ‖ W_e e_{ij} ] )
/// α_{ij} = softmax over j of s_{ij}        (per destination i)
/// h'_i   = σ( Σ_j α_{ij} (W h_j + W_e e_{ij}) )
/// ```
///
/// Multi-head outputs are concatenated. The edge projection `W_e` injects
/// the FEM spatial-relationship embedding into both the attention logits
/// and the messages, which is what distinguishes RelGAT from vanilla GAT.
#[derive(Debug, Clone)]
pub struct RelGatLayer {
    heads: Vec<GatHead>,
    activation: Activation,
    out_dim: usize,
}

#[derive(Debug, Clone)]
struct GatHead {
    w: Linear,
    we: Linear,
    attn: Linear, // [3·dh → 1]
}

impl RelGatLayer {
    /// Allocates a RelGAT layer with `num_heads` heads of width
    /// `head_dim`; the output width is `num_heads · head_dim`.
    ///
    /// # Panics
    ///
    /// Panics if `num_heads == 0`.
    pub fn new(
        params: &mut Params,
        node_dim: usize,
        edge_dim: usize,
        head_dim: usize,
        num_heads: usize,
        activation: Activation,
    ) -> Self {
        assert!(num_heads > 0, "at least one attention head");
        let heads = (0..num_heads)
            .map(|_| GatHead {
                w: Linear::new(params, node_dim, head_dim),
                we: Linear::new(params, edge_dim, head_dim),
                attn: Linear::new(params, 3 * head_dim, 1),
            })
            .collect();
        RelGatLayer {
            heads,
            activation,
            out_dim: num_heads * head_dim,
        }
    }

    /// Output feature width (`num_heads · head_dim`).
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// Records one attention step over the given edge structure.
    ///
    /// `src`/`dst` are the per-edge endpoint index lists and `num_nodes`
    /// the node count (shared across layers, so callers build them once).
    #[allow(clippy::too_many_arguments)]
    pub fn forward(
        &self,
        g: &mut Graph,
        params: &Params,
        x: NodeId,
        edge_feats: NodeId,
        src: &Arc<Vec<usize>>,
        dst: &Arc<Vec<usize>>,
        num_nodes: usize,
    ) -> NodeId {
        let mut outs = Vec::with_capacity(self.heads.len());
        for head in &self.heads {
            let h = head.w.forward(g, params, x); // [N × dh]
            let he = head.we.forward(g, params, edge_feats); // [M × dh]
            let hs = g.gather_rows(h, Arc::clone(src)); // [M × dh]
            let hd = g.gather_rows(h, Arc::clone(dst)); // [M × dh]
            let cat = g.concat_cols(&[hd, hs, he]); // [M × 3dh]
            let scores = head.attn.forward(g, params, cat); // [M × 1]
            let scores = g.leaky_relu(scores, ATTENTION_SLOPE);
            let alpha = g.segment_softmax(scores, Arc::clone(dst), num_nodes);
            let msg = g.add(hs, he); // neighbor + edge message
            let weighted = g.mul_col_broadcast(msg, alpha);
            let agg = g.scatter_add_rows(weighted, Arc::clone(dst), num_nodes);
            outs.push(agg);
        }
        let merged = if outs.len() == 1 {
            outs[0]
        } else {
            g.concat_cols(&outs)
        };
        self.activation.apply(g, merged)
    }

    /// Runs the layer off the tape, bitwise equal to
    /// [`RelGatLayer::forward`]. `edges` holds each head's projected edge
    /// features (see [`RelGatStack::project_edges`]).
    ///
    /// Per head, the arithmetic follows the tape op for op:
    /// * the score of edge `(j → i)` accumulates from 0.0 over
    ///   `[W h_i ‖ W h_j ‖ W_e e_ij]` against the attention weights, as
    ///   the row-dot GEMM kernel does; the `W h_i` prefix is the same for
    ///   every edge into `i`, so it is accumulated once per node and each
    ///   edge continues the chain from it;
    /// * then the bias, then the leaky ReLU;
    /// * softmax per destination through the tape's own kernel;
    /// * `(W h_j + W_e e_ij) · α_ij` added into row `i` in ascending edge
    ///   order, straight into the head's columns of the merged output.
    fn infer(
        &self,
        params: &Params,
        x: &Matrix,
        src: &[usize],
        dst: &[usize],
        edges: &[Matrix],
    ) -> Matrix {
        let num_nodes = x.rows();
        let mut merged = Matrix::zeros(num_nodes, self.out_dim);
        let mut scores = Matrix::zeros(src.len(), 1);
        let mut alpha = Matrix::zeros(src.len(), 1);
        for (k, (head, he)) in self.heads.iter().zip(edges).enumerate() {
            let h = head.w.infer(params, x);
            let dh = h.cols();
            let attn = params.value(head.attn.weight()).as_slice();
            let bias = params.value(head.attn.bias()).get(0, 0);
            let (a_dst, rest) = attn.split_at(dh);
            let (a_src, a_edge) = rest.split_at(dh);
            let prefix: Vec<f64> = (0..num_nodes)
                .map(|i| dot_from(0.0, h.row(i), a_dst))
                .collect();
            for (e, (&s, &d)) in src.iter().zip(dst).enumerate() {
                let acc = dot_from(prefix[d], h.row(s), a_src);
                let acc = dot_from(acc, he.row(e), a_edge);
                scores.set(e, 0, kernels::leaky_relu(acc + bias, ATTENTION_SLOPE));
            }
            kernels::segment_softmax(&scores, dst, num_nodes, &mut alpha);
            for (e, (&s, &d)) in src.iter().zip(dst).enumerate() {
                let a = alpha.get(e, 0);
                let out = &mut merged.row_mut(d)[k * dh..(k + 1) * dh];
                for ((o, hs), pe) in out.iter_mut().zip(h.row(s)).zip(he.row(e)) {
                    *o += (hs + pe) * a;
                }
            }
        }
        self.activation.apply_in_place(merged.as_mut_slice());
        merged
    }
}

/// `init + Σ x[k]·w[k]`, accumulated in ascending `k` with one rounded
/// multiply-then-add per step: the row-dot GEMM kernel's chain.
fn dot_from(init: f64, x: &[f64], w: &[f64]) -> f64 {
    let mut acc = init;
    for (a, b) in x.iter().zip(w) {
        acc += a * b;
    }
    acc
}

/// The mesh-constant half of a [`RelGatStack`] forward: every layer's
/// and head's edge projection `e·W_e + b_e` over one edge set. Edge
/// features do not change between forwards on the same graph, so
/// [`RelGatStack::project_edges`] computes these once and
/// [`RelGatStack::infer`] reuses them.
#[derive(Debug, Clone)]
pub struct EdgeProjections {
    /// `[layer][head]`, each `[num_edges × head_dim]`.
    layers: Vec<Vec<Matrix>>,
}

/// A full RelGAT stack with per-layer [`LayerNorm`], mirroring the paper's
/// "12-layer GAT with 2 attention heads + LayerNorm" description.
#[derive(Debug, Clone)]
pub struct RelGatStack {
    layers: Vec<RelGatLayer>,
    norms: Vec<LayerNorm>,
    input_proj: Linear,
}

impl RelGatStack {
    /// Builds `depth` RelGAT layers of hidden width
    /// `num_heads · head_dim`, preceded by a linear input projection.
    pub fn new(
        params: &mut Params,
        node_dim: usize,
        edge_dim: usize,
        head_dim: usize,
        num_heads: usize,
        depth: usize,
    ) -> Self {
        let hidden = head_dim * num_heads;
        let input_proj = Linear::new(params, node_dim, hidden);
        let mut layers = Vec::with_capacity(depth);
        let mut norms = Vec::with_capacity(depth);
        for _ in 0..depth {
            layers.push(RelGatLayer::new(
                params,
                hidden,
                edge_dim,
                head_dim,
                num_heads,
                Activation::Elu,
            ));
            norms.push(LayerNorm::new(params, hidden));
        }
        RelGatStack {
            layers,
            norms,
            input_proj,
        }
    }

    /// Number of attention layers.
    pub fn depth(&self) -> usize {
        self.layers.len()
    }

    /// Hidden width of the stack.
    pub fn hidden_dim(&self) -> usize {
        self.input_proj.out_dim()
    }

    /// Records the full stack with residual connections and LayerNorm:
    /// `h ← LN(h + GAT(h))`.
    #[allow(clippy::too_many_arguments)]
    pub fn forward(
        &self,
        g: &mut Graph,
        params: &Params,
        node_feats: NodeId,
        edge_feats: NodeId,
        src: &Arc<Vec<usize>>,
        dst: &Arc<Vec<usize>>,
        num_nodes: usize,
    ) -> NodeId {
        let mut h = self.input_proj.forward(g, params, node_feats);
        for (layer, norm) in self.layers.iter().zip(&self.norms) {
            let out = layer.forward(g, params, h, edge_feats, src, dst, num_nodes);
            let res = g.add(h, out);
            h = norm.forward(g, params, res);
        }
        h
    }

    /// Projects one edge set's features through every layer's and head's
    /// `W_e`, for [`RelGatStack::infer`].
    pub fn project_edges(&self, params: &Params, edge_feats: &Matrix) -> EdgeProjections {
        EdgeProjections {
            layers: self
                .layers
                .iter()
                .map(|layer| {
                    layer
                        .heads
                        .iter()
                        .map(|head| head.we.infer(params, edge_feats))
                        .collect()
                })
                .collect(),
        }
    }

    /// Runs the stack off the tape: the inference path, bitwise equal to
    /// [`RelGatStack::forward`] on the same inputs. `edges` must come
    /// from [`RelGatStack::project_edges`] on this stack and the edge set
    /// `src`/`dst` index.
    ///
    /// # Panics
    ///
    /// Panics if `edges` was projected for another stack shape or edge
    /// count.
    pub fn infer(
        &self,
        params: &Params,
        node_feats: &Matrix,
        src: &[usize],
        dst: &[usize],
        edges: &EdgeProjections,
    ) -> Matrix {
        assert_eq!(
            edges.layers.len(),
            self.layers.len(),
            "one projection per layer"
        );
        let mut h = self.input_proj.infer(params, node_feats);
        for ((layer, norm), projected) in self.layers.iter().zip(&self.norms).zip(&edges.layers) {
            assert!(
                projected.len() == layer.heads.len()
                    && projected.iter().all(|p| p.rows() == src.len()),
                "edge projections do not match the layer or the edge set"
            );
            let out = layer.infer(params, &h, src, dst, projected);
            // The residual `h + GAT(h)`, in place.
            for (x, o) in h.as_mut_slice().iter_mut().zip(out.as_slice()) {
                *x += o;
            }
            h = norm.infer(params, &h);
        }
        h
    }
}

/// Splits an edge list into the `(src, dst)` index vectors the attention
/// layers consume.
pub fn edge_index_lists(edges: &[(usize, usize)]) -> (Arc<Vec<usize>>, Arc<Vec<usize>>) {
    let src = edges.iter().map(|&(s, _)| s).collect();
    let dst = edges.iter().map(|&(_, d)| d).collect();
    (Arc::new(src), Arc::new(dst))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optim::Adam;
    use stco_numerics::rng::Xorshift;

    fn ring_graph(n: usize, node_dim: usize, edge_dim: usize, seed: u64) -> GraphData {
        let mut rng = Xorshift::new(seed);
        let node_data = (0..n * node_dim)
            .map(|_| rng.uniform_in(-1.0, 1.0))
            .collect();
        let mut edges = Vec::new();
        for i in 0..n {
            edges.push((i, (i + 1) % n));
            edges.push(((i + 1) % n, i));
        }
        let edge_data = (0..edges.len() * edge_dim)
            .map(|_| rng.uniform_in(-1.0, 1.0))
            .collect();
        let mut g = GraphData {
            node_features: Matrix::from_vec(n, node_dim, node_data),
            edges: edges.clone(),
            edge_features: Matrix::from_vec(edges.len(), edge_dim, edge_data),
        };
        g.add_self_loops();
        g.assert_consistent();
        g
    }

    #[test]
    fn normalized_adjacency_rows_behave() {
        let gd = ring_graph(5, 2, 1, 1);
        let adj = gd.normalized_adjacency();
        // Â of a ring (deg 3 with self loops): each row sums to ~1.
        for i in 0..5 {
            let s: f64 = adj.row_entries(i).map(|(_, v)| v).sum();
            assert!((s - 1.0).abs() < 1e-9, "row {i} sums to {s}");
        }
    }

    #[test]
    fn gcn_layer_shapes() {
        let gd = ring_graph(6, 3, 1, 2);
        let adj = Arc::new(gd.normalized_adjacency());
        let mut params = Params::new(1);
        let layer = GcnLayer::new(&mut params, 3, 5, Activation::Relu);
        let mut g = Graph::new();
        let x = g.input(gd.node_features.clone());
        let y = layer.forward(&mut g, &params, &adj, x);
        assert_eq!((g.value(y).rows(), g.value(y).cols()), (6, 5));
    }

    #[test]
    fn relgat_layer_shapes_multi_head() {
        let gd = ring_graph(7, 4, 2, 3);
        let (src, dst) = edge_index_lists(&gd.edges);
        let mut params = Params::new(2);
        let layer = RelGatLayer::new(&mut params, 4, 2, 3, 2, Activation::Elu);
        assert_eq!(layer.out_dim(), 6);
        let mut g = Graph::new();
        let x = g.input(gd.node_features.clone());
        let e = g.input(gd.edge_features.clone());
        let y = layer.forward(&mut g, &params, x, e, &src, &dst, 7);
        assert_eq!((g.value(y).rows(), g.value(y).cols()), (7, 6));
    }

    #[test]
    fn message_passing_is_permutation_equivariant() {
        // Relabeling nodes then running the layer must equal running the
        // layer then relabeling the output.
        let gd = ring_graph(5, 3, 2, 4);
        let perm = [2usize, 0, 4, 1, 3]; // new index of old node i
        let mut permuted = gd.clone();
        // Permute node features.
        let mut nf = Matrix::zeros(5, 3);
        for (i, &pi) in perm.iter().enumerate() {
            let src_row: Vec<f64> = gd.node_features.row(i).to_vec();
            nf.row_mut(pi).copy_from_slice(&src_row);
        }
        permuted.node_features = nf;
        permuted.edges = gd.edges.iter().map(|&(s, d)| (perm[s], perm[d])).collect();

        let mut params = Params::new(5);
        let layer = RelGatLayer::new(&mut params, 3, 2, 4, 1, Activation::Identity);

        let run = |gd: &GraphData| -> Matrix {
            let (src, dst) = edge_index_lists(&gd.edges);
            let mut g = Graph::new();
            let x = g.input(gd.node_features.clone());
            let e = g.input(gd.edge_features.clone());
            let y = layer.forward(&mut g, &params, x, e, &src, &dst, 5);
            g.value(y).clone()
        };
        let out_a = run(&gd);
        let out_b = run(&permuted);
        for (i, &pi) in perm.iter().enumerate() {
            for j in 0..4 {
                assert!(
                    (out_a.get(i, j) - out_b.get(pi, j)).abs() < 1e-10,
                    "equivariance violated at node {i} feature {j}"
                );
            }
        }
    }

    #[test]
    fn relgat_stack_learns_node_regression() {
        // Target: each node's potential = mean of its ring neighbors'
        // first feature — learnable by one hop of attention.
        let gd = ring_graph(8, 3, 2, 6);
        let (src, dst) = edge_index_lists(&gd.edges);
        let mut target = Matrix::zeros(8, 1);
        for i in 0..8 {
            let prev = gd.node_features.get((i + 7) % 8, 0);
            let next = gd.node_features.get((i + 1) % 8, 0);
            target.set(i, 0, 0.5 * (prev + next));
        }
        let mut params = Params::new(7);
        let stack = RelGatStack::new(&mut params, 3, 2, 8, 1, 2);
        let head = Linear::new(&mut params, 8, 1);
        let mut adam = Adam::with_learning_rate(0.01);
        let mut last = f64::INFINITY;
        for _ in 0..300 {
            let mut g = Graph::new();
            let x = g.input(gd.node_features.clone());
            let e = g.input(gd.edge_features.clone());
            let t = g.input(target.clone());
            let h = stack.forward(&mut g, &params, x, e, &src, &dst, 8);
            let pred = head.forward(&mut g, &params, h);
            let loss = g.mse_loss(pred, t);
            last = g.value(loss).get(0, 0);
            params.zero_grads();
            g.backward(loss, &mut params);
            adam.step(&mut params);
        }
        assert!(last < 0.02, "RelGAT failed to fit neighbor mean: {last}");
    }

    #[test]
    fn batch_merges_disjointly() {
        let a = ring_graph(3, 2, 1, 8);
        let b = ring_graph(4, 2, 1, 9);
        let batch = GraphBatch::from_graphs(&[&a, &b]);
        assert_eq!(batch.merged.num_nodes(), 7);
        assert_eq!(batch.merged.num_edges(), a.num_edges() + b.num_edges());
        assert_eq!(batch.num_graphs, 2);
        // Edges from graph b must point at nodes ≥ 3.
        for &(s, d) in &batch.merged.edges[a.num_edges()..] {
            assert!(s >= 3 && d >= 3);
        }
        assert_eq!(batch.node_graph_ids.as_ref(), &vec![0, 0, 0, 1, 1, 1, 1]);
        batch.merged.assert_consistent();
    }

    #[test]
    fn self_loops_added_once_with_zero_features() {
        let mut gd = ring_graph(4, 2, 3, 10);
        let before = gd.num_edges();
        // ring_graph already added self loops; add_self_loops again appends 4 more.
        gd.add_self_loops();
        assert_eq!(gd.num_edges(), before + 4);
        let last: Vec<f64> = gd.edge_features.row(gd.num_edges() - 1).to_vec();
        assert!(last.iter().all(|&v| v == 0.0));
    }
}
