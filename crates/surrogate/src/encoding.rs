//! The unified device encoding of Fig. 2: finite-element-mesh device
//! graphs with material-level and device-level node embeddings, spatial
//! edge features and optional task-specific self-consistent features.
//!
//! Per node:
//!
//! * **material-level** — a one-hot over material classes and the
//!   physical parameter vector (SRH lifetimes, trap densities, mobility
//!   law, tunneling prefactor…) of
//!   [`ChannelParams::parameter_vector`](stco_tcad::materials::ChannelParams::parameter_vector);
//! * **device-level** — a one-hot over functional regions plus an
//!   attribute vector: normalized position, applied bias and the local
//!   quasi-Fermi level (doping and polarity live in the material vector);
//! * **task-specific self-consistent quantities** — log charge density
//!   (for both tasks) and the electrostatic potential (IV predictor
//!   only), exactly as the paper describes for its two models.
//!
//! Per edge (inspired by finite-element geometry): the normalized
//! displacement `(Δx, Δy)` and the log coupling factor of the mesh face.

use std::sync::Arc;

use stco_nn::gnn::{edge_index_lists, GraphData};
use stco_numerics::Matrix;
use stco_tcad::dataset::DeviceSample;
use stco_tcad::device::Device;
use stco_tcad::materials::Material;
use stco_tcad::mesh::Region;

/// Which self-consistent features to inject (task dependent).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskFeatures {
    /// Poisson emulator: charge density only (the potential is the
    /// regression target).
    Poisson,
    /// IV predictor: charge density and potential.
    Iv,
    /// No self-consistent features (ablation).
    None,
}

/// Node-feature width of the encoding.
pub const NODE_DIM: usize = Material::NUM_CLASSES // material one-hot (7)
    + 12 // material parameter vector
    + Region::NUM_CLASSES // region one-hot (6)
    + 5 // position (2) + gate/drain bias (2) + local quasi-Fermi (1)
    + 2; // self-consistent slots: log charge, potential

/// Edge-feature width (Δx, Δy, log coupling).
pub const EDGE_DIM: usize = 3;

/// Column of the first per-solve node feature. The five per-solve
/// columns are gate bias, drain bias, the local quasi-Fermi level and
/// the two self-consistent slots (log charge, potential); everything
/// before them is fixed by the mesh.
const SOLVE_COLUMN: usize = NODE_DIM - 5;

/// Encodes a labelled device sample as a GNN graph.
///
/// Every mesh node becomes a graph node; orthogonal mesh neighbors are
/// connected in both directions and self-loops are appended (with zero
/// edge features) as the attention layers expect.
pub fn encode_device(sample: &DeviceSample, task: TaskFeatures) -> GraphData {
    let mesh = DeviceGraph::new(&sample.device);
    GraphData {
        node_features: mesh.node_features(sample, task),
        ..mesh.graph
    }
}

/// The part of a device's encoding that its mesh fixes, built once per
/// mesh: the edges with their `(src, dst)` index lists, the edge
/// features and the static node columns (material, region, position).
/// Only the five per-solve columns change between the solves of one
/// device; [`DeviceGraph::refresh`] fills just those.
#[derive(Debug, Clone)]
pub struct DeviceGraph {
    /// The encoding with every per-solve column zero.
    graph: GraphData,
    src: Arc<Vec<usize>>,
    dst: Arc<Vec<usize>>,
}

impl DeviceGraph {
    /// Encodes everything `device`'s mesh fixes.
    pub fn new(device: &Device) -> Self {
        let mesh = device.mesh();
        let n = mesh.num_nodes();
        let mat_params = device.channel().parameter_vector();

        let xs = mesh.xs();
        let ys = mesh.ys();
        let x_span = xs[xs.len() - 1] - xs[0];
        let y_span = ys[ys.len() - 1] - ys[0];

        let mut static_nodes = Matrix::zeros(n, NODE_DIM);
        for i in 0..n {
            let mat = mesh.material(i);
            let (x, y) = mesh.position(i);
            let row = static_nodes.row_mut(i);
            // Material one-hot.
            row[mat.class_index()] = 1.0;
            // Material parameter vector (only meaningful in the channel,
            // but constant per device; zero elsewhere keeps materials
            // separable).
            if mat.is_semiconductor() {
                row[Material::NUM_CLASSES..Material::NUM_CLASSES + mat_params.len()]
                    .copy_from_slice(&mat_params);
            }
            // Region one-hot.
            row[Material::NUM_CLASSES + 12 + mesh.region(i).class_index()] = 1.0;
            // Normalized position.
            let base = Material::NUM_CLASSES + 12 + Region::NUM_CLASSES;
            row[base] = x / x_span;
            row[base + 1] = y / y_span;
        }

        // Edges: orthogonal mesh neighbors, both directions.
        let mut edges = Vec::new();
        let mut edge_feats = Vec::new();
        for i in 0..n {
            let (xi, yi) = mesh.position(i);
            for j in mesh.neighbors(i) {
                let (xj, yj) = mesh.position(j);
                edges.push((i, j));
                let coupling = mesh.coupling_factor(i, j);
                edge_feats.extend([
                    (xj - xi) / x_span,
                    (yj - yi) / y_span,
                    (coupling.max(1e-3)).ln() / 10.0,
                ]);
            }
        }
        let mut graph = GraphData {
            node_features: static_nodes,
            edges,
            edge_features: Matrix::from_vec(edge_feats.len() / EDGE_DIM, EDGE_DIM, edge_feats),
        };
        graph.add_self_loops();
        let (src, dst) = edge_index_lists(&graph.edges);
        DeviceGraph { graph, src, dst }
    }

    /// Number of mesh nodes.
    pub(crate) fn num_nodes(&self) -> usize {
        self.graph.num_nodes()
    }

    /// Source node of every edge.
    pub(crate) fn src(&self) -> &Arc<Vec<usize>> {
        &self.src
    }

    /// Destination node of every edge.
    pub(crate) fn dst(&self) -> &Arc<Vec<usize>> {
        &self.dst
    }

    /// `[num_edges × EDGE_DIM]` edge features.
    pub(crate) fn edge_features(&self) -> &Matrix {
        &self.graph.edge_features
    }

    /// The node features of one solve: the static columns, with the
    /// per-solve columns filled from `sample` by
    /// [`DeviceGraph::refresh`].
    pub fn node_features(&self, sample: &DeviceSample, task: TaskFeatures) -> Matrix {
        let mut nodes = self.graph.node_features.clone();
        self.refresh(sample, task, &mut nodes);
        nodes
    }

    /// Overwrites the five per-solve columns of `nodes` from `sample`
    /// (its bias and self-consistent solution) for `task`, leaving the
    /// static columns as they are. `sample` must be a solve of the
    /// device this graph was built from.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is not `[num_nodes × NODE_DIM]`.
    pub fn refresh(&self, sample: &DeviceSample, task: TaskFeatures, nodes: &mut Matrix) {
        assert_eq!(
            (nodes.rows(), nodes.cols()),
            (self.num_nodes(), NODE_DIM),
            "node features of this mesh"
        );
        let device = &sample.device;
        let mesh = device.mesh();
        let solution = &sample.solution;
        for i in 0..self.num_nodes() {
            let (x, _) = mesh.position(i);
            let log_charge = match task {
                TaskFeatures::Poisson | TaskFeatures::Iv => {
                    let dens = solution.carrier_density[i];
                    if dens > 0.0 {
                        (dens.log10() - 18.0) / 10.0
                    } else {
                        -3.0
                    }
                }
                TaskFeatures::None => 0.0,
            };
            let psi = if task == TaskFeatures::Iv {
                solution.psi[i]
            } else {
                0.0
            };
            nodes.row_mut(i)[SOLVE_COLUMN..].copy_from_slice(&[
                sample.bias.gate,
                sample.bias.drain,
                device.quasi_fermi(x, sample.bias),
                log_charge,
                psi,
            ]);
        }
    }
}

/// Node-regression targets for the Poisson emulator: the potential map.
pub fn potential_targets(sample: &DeviceSample) -> Matrix {
    Matrix::from_vec(sample.solution.psi.len(), 1, sample.solution.psi.clone())
}

#[cfg(test)]
mod tests {
    use super::*;
    use stco_tcad::dataset::generate_dataset;
    use stco_tcad::materials::Technology;

    fn sample() -> DeviceSample {
        generate_dataset(11, 1, &[Technology::Igzo]).expect("dataset")[0].clone()
    }

    #[test]
    fn encoding_shapes_are_consistent() {
        let s = sample();
        let g = encode_device(&s, TaskFeatures::Poisson);
        g.assert_consistent();
        assert_eq!(g.node_features.cols(), NODE_DIM);
        assert_eq!(g.edge_features.cols(), EDGE_DIM);
        assert_eq!(g.num_nodes(), s.device.mesh().num_nodes());
        // Interior mesh edges (≤ 4 per node) + self loops.
        assert!(g.num_edges() > g.num_nodes());
    }

    #[test]
    fn material_one_hot_is_exclusive() {
        let s = sample();
        let g = encode_device(&s, TaskFeatures::Poisson);
        for i in 0..g.num_nodes() {
            let row = g.node_features.row(i);
            let ones: f64 = row[..Material::NUM_CLASSES].iter().sum();
            assert_eq!(ones, 1.0, "node {i} material one-hot");
            let region_base = Material::NUM_CLASSES + 12;
            let region_ones: f64 = row[region_base..region_base + Region::NUM_CLASSES]
                .iter()
                .sum();
            assert_eq!(region_ones, 1.0, "node {i} region one-hot");
        }
    }

    #[test]
    fn task_features_differ_between_tasks() {
        let s = sample();
        let gp = encode_device(&s, TaskFeatures::Poisson);
        let gi = encode_device(&s, TaskFeatures::Iv);
        let gn = encode_device(&s, TaskFeatures::None);
        // IV carries the potential in the last slot; Poisson zeroes it.
        let sc_psi = NODE_DIM - 1;
        let channel_node = (0..gp.num_nodes())
            .find(|&i| s.device.mesh().material(i).is_semiconductor())
            .expect("semiconductor node exists");
        assert_eq!(gp.node_features.get(channel_node, sc_psi), 0.0);
        assert_eq!(
            gi.node_features.get(channel_node, sc_psi),
            s.solution.psi[channel_node]
        );
        let sc_q = NODE_DIM - 2;
        assert_eq!(gn.node_features.get(channel_node, sc_q), 0.0);
        assert_ne!(gp.node_features.get(channel_node, sc_q), 0.0);
    }

    #[test]
    fn potential_targets_match_solution() {
        let s = sample();
        let t = potential_targets(&s);
        assert_eq!(t.rows(), s.solution.psi.len());
        assert_eq!(t.get(3, 0), s.solution.psi[3]);
    }

    #[test]
    fn bias_attributes_are_uniform_across_nodes() {
        let s = sample();
        let g = encode_device(&s, TaskFeatures::Poisson);
        let base = Material::NUM_CLASSES + 12 + Region::NUM_CLASSES;
        for i in 0..g.num_nodes() {
            assert_eq!(g.node_features.get(i, base + 2), s.bias.gate);
            assert_eq!(g.node_features.get(i, base + 3), s.bias.drain);
        }
    }
}
