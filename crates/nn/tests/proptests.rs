//! Property-based tests of the autodiff engine and GNN layers:
//! finite-difference gradient agreement on random shapes, segment
//! softmax invariants, message-passing equivariance under random
//! permutations, and bitwise agreement of off-tape RelGAT inference
//! with the tape forward.

use std::sync::Arc;

use proptest::prelude::*;
use stco_nn::ad::Graph;
use stco_nn::gnn::{edge_index_lists, GraphData, RelGatLayer, RelGatStack};
use stco_nn::layers::{Activation, Mlp};
use stco_nn::{ParamId, Params};
use stco_numerics::rng::Xorshift;
use stco_numerics::Matrix;

/// Every activation, so the MLP head exercises each off-tape kernel.
const ACTIVATIONS: [Activation; 6] = [
    Activation::Relu,
    Activation::LeakyRelu,
    Activation::Elu,
    Activation::Tanh,
    Activation::Sigmoid,
    Activation::Identity,
];

/// Shape of one random RelGAT case.
#[derive(Debug, Clone, Copy)]
struct StackShape {
    depth: usize,
    heads: usize,
    head_dim: usize,
    node_dim: usize,
    edge_dim: usize,
    nodes: usize,
    edges: usize,
    self_loops: bool,
    activation: usize,
}

fn stack_shape() -> impl Strategy<Value = StackShape> {
    (
        (1usize..4, 1usize..3, 1usize..9, 1usize..7, 1usize..7),
        (
            1usize..10,
            // One graph in four has no edges at all.
            prop_oneof![Just(0usize), 1usize..30, 1usize..30, 1usize..30],
            any::<bool>(),
            0..ACTIVATIONS.len(),
        ),
    )
        .prop_map(
            |(
                (depth, heads, head_dim, node_dim, edge_dim),
                (nodes, edges, self_loops, activation),
            )| {
                StackShape {
                    depth,
                    heads,
                    head_dim,
                    node_dim,
                    edge_dim,
                    nodes,
                    edges,
                    self_loops,
                    activation,
                }
            },
        )
}

/// A random graph of the given shape. Without self-loops the last node
/// never receives an edge, so some node always aggregates nothing.
fn random_graph(shape: &StackShape, rng: &mut Xorshift) -> GraphData {
    let n = shape.nodes;
    let pick = |rng: &mut Xorshift, below: usize| (rng.next_u64() % below as u64) as usize;
    let receivers = if shape.self_loops || n == 1 { n } else { n - 1 };
    let mut edges: Vec<(usize, usize)> = (0..shape.edges)
        .map(|_| (pick(rng, n), pick(rng, receivers)))
        .collect();
    if !shape.self_loops {
        edges.retain(|&(s, d)| s != d);
    }
    let uniform = |rng: &mut Xorshift, len: usize| -> Vec<f64> {
        (0..len).map(|_| rng.uniform_in(-2.0, 2.0)).collect()
    };
    let mut g = GraphData {
        node_features: Matrix::from_vec(n, shape.node_dim, uniform(rng, n * shape.node_dim)),
        edge_features: Matrix::from_vec(
            edges.len(),
            shape.edge_dim,
            uniform(rng, edges.len() * shape.edge_dim),
        ),
        edges,
    };
    if shape.self_loops {
        g.add_self_loops();
    }
    g
}

fn matrix(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
    prop::collection::vec(-1.5..1.5f64, rows * cols)
        .prop_map(move |data| Matrix::from_vec(rows, cols, data))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn param_gradient_matches_finite_difference(x in matrix(3, 2), t in matrix(3, 2), w0 in matrix(2, 2)) {
        let mut params = Params::new(1);
        let w = params.glorot(2, 2);
        *params.value_mut(w) = w0;
        let build = |g: &mut Graph, p: &Params| {
            let xi = g.input(x.clone());
            let ti = g.input(t.clone());
            let wi = g.param(p, w);
            let h = g.matmul(xi, wi);
            let h = g.tanh_act(h);
            g.mse_loss(h, ti)
        };
        let mut g = Graph::new();
        let loss = build(&mut g, &params);
        params.zero_grads();
        g.backward(loss, &mut params);
        let analytic = params.grad(w).clone();
        let h = 1e-6;
        for r in 0..2 {
            for c in 0..2 {
                let orig = params.value(w).get(r, c);
                params.value_mut(w).set(r, c, orig + h);
                let mut gp = Graph::new();
                let lp = build(&mut gp, &params);
                let fp = gp.value(lp).get(0, 0);
                params.value_mut(w).set(r, c, orig - h);
                let mut gm = Graph::new();
                let lm = build(&mut gm, &params);
                let fm = gm.value(lm).get(0, 0);
                params.value_mut(w).set(r, c, orig);
                let numeric = (fp - fm) / (2.0 * h);
                let a = analytic.get(r, c);
                let denom = a.abs().max(numeric.abs()).max(1e-5);
                prop_assert!((a - numeric).abs() / denom < 1e-3, "({r},{c}): {a} vs {numeric}");
            }
        }
    }

    #[test]
    fn segment_softmax_partitions_unity(scores in prop::collection::vec(-8.0..8.0f64, 10),
                                        seg_raw in prop::collection::vec(0usize..4, 10)) {
        let n_seg = 4;
        let mut g = Graph::new();
        let x = g.input(Matrix::from_vec(10, 1, scores));
        let seg = Arc::new(seg_raw.clone());
        let sm = g.segment_softmax(x, Arc::clone(&seg), n_seg);
        let v = g.value(sm);
        let mut sums = vec![0.0; n_seg];
        for (i, &s) in seg_raw.iter().enumerate() {
            let val = v.get(i, 0);
            prop_assert!((0.0..=1.0 + 1e-12).contains(&val));
            sums[s] += val;
        }
        for (s, total) in sums.iter().enumerate() {
            let count = seg_raw.iter().filter(|&&x| x == s).count();
            if count > 0 {
                prop_assert!((total - 1.0).abs() < 1e-9, "segment {s} sums to {total}");
            }
        }
    }

    #[test]
    fn relgat_is_equivariant_under_random_permutation(seed in 0u64..1000) {
        // Build a fixed small graph, permute it with a seed-derived
        // permutation, and require output rows to permute identically.
        let n = 6;
        let mut rng = stco_numerics::rng::Xorshift::new(seed);
        let node_data: Vec<f64> = (0..n * 3).map(|_| rng.uniform_in(-1.0, 1.0)).collect();
        let mut edges = Vec::new();
        for i in 0..n {
            edges.push((i, (i + 1) % n));
            edges.push((i, i));
        }
        let edge_data: Vec<f64> = (0..edges.len() * 2).map(|_| rng.uniform_in(-1.0, 1.0)).collect();
        let gd = GraphData {
            node_features: Matrix::from_vec(n, 3, node_data),
            edges: edges.clone(),
            edge_features: Matrix::from_vec(edges.len(), 2, edge_data),
        };
        let mut perm: Vec<usize> = (0..n).collect();
        rng.shuffle(&mut perm);

        let mut permuted = gd.clone();
        let mut nf = Matrix::zeros(n, 3);
        for (i, &pi) in perm.iter().enumerate().take(n) {
            let row: Vec<f64> = gd.node_features.row(i).to_vec();
            nf.row_mut(pi).copy_from_slice(&row);
        }
        permuted.node_features = nf;
        permuted.edges = gd.edges.iter().map(|&(s, d)| (perm[s], perm[d])).collect();

        let mut params = Params::new(7);
        let layer = RelGatLayer::new(&mut params, 3, 2, 4, 1, Activation::Identity);
        let run = |gd: &GraphData| -> Matrix {
            let (src, dst) = edge_index_lists(&gd.edges);
            let mut g = Graph::new();
            let x = g.input(gd.node_features.clone());
            let e = g.input(gd.edge_features.clone());
            let y = layer.forward(&mut g, &params, x, e, &src, &dst, n);
            g.value(y).clone()
        };
        let a = run(&gd);
        let b = run(&permuted);
        for (i, &pi) in perm.iter().enumerate().take(n) {
            for j in 0..4 {
                prop_assert!((a.get(i, j) - b.get(pi, j)).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn layer_norm_output_is_normalized(x in matrix(4, 6)) {
        let mut params = Params::new(3);
        let ln = stco_nn::layers::LayerNorm::new(&mut params, 6);
        let mut g = Graph::new();
        let xi = g.input(x);
        let y = ln.forward(&mut g, &params, xi);
        let v = g.value(y);
        for r in 0..4 {
            let row = v.row(r);
            let mean: f64 = row.iter().sum::<f64>() / 6.0;
            let var: f64 = row.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / 6.0;
            prop_assert!(mean.abs() < 1e-8, "row {r} mean {mean}");
            prop_assert!(var < 1.2, "row {r} var {var}");
        }
    }

    #[test]
    fn mse_loss_is_nonnegative_and_zero_iff_equal(x in matrix(3, 3)) {
        let mut g = Graph::new();
        let a = g.input(x.clone());
        let b = g.input(x.clone());
        let same = g.mse_loss(a, b);
        prop_assert!(g.value(same).get(0, 0).abs() < 1e-15);
        let mut shifted = x.clone();
        shifted.add_at(0, 0, 1.0);
        let c = g.input(shifted);
        let diff = g.mse_loss(a, c);
        prop_assert!(g.value(diff).get(0, 0) > 0.0);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn relgat_inference_is_bitwise_equal_to_the_tape_forward(
        shape in stack_shape(),
        seed in 0u64..u64::MAX,
    ) {
        let mut rng = Xorshift::new(seed);
        let gd = random_graph(&shape, &mut rng);
        let mut params = Params::new(seed);
        let stack = RelGatStack::new(
            &mut params,
            shape.node_dim,
            shape.edge_dim,
            shape.head_dim,
            shape.heads,
            shape.depth,
        );
        let hidden = stack.hidden_dim();
        let head = Mlp::new(&mut params, &[hidden, hidden, 2], ACTIVATIONS[shape.activation]);
        // Random biases, gains and shifts too: the constructor zeroes
        // biases, which would hide their place in the arithmetic.
        let ids: Vec<ParamId> = params.tensors().map(|(id, _)| id).collect();
        for id in ids {
            for v in params.value_mut(id).as_mut_slice() {
                *v = rng.uniform_in(-1.0, 1.0);
            }
        }

        let (src, dst) = edge_index_lists(&gd.edges);
        let mut g = Graph::new();
        let x = g.input(gd.node_features.clone());
        let e = g.input(gd.edge_features.clone());
        let h_tape = stack.forward(&mut g, &params, x, e, &src, &dst, gd.num_nodes());
        let y_tape = head.forward(&mut g, &params, h_tape);

        let edges = stack.project_edges(&params, &gd.edge_features);
        let h = stack.infer(&params, &gd.node_features, &src, &dst, &edges);
        let y = head.infer(&params, h.clone());

        let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!((h.rows(), h.cols()), (gd.num_nodes(), hidden));
        prop_assert_eq!(bits(&h), bits(g.value(h_tape)), "stack output differs");
        prop_assert_eq!(bits(&y), bits(g.value(y_tape)), "MLP head output differs");
    }
}
