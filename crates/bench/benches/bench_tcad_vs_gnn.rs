//! Criterion bench behind the paper's ">100× TCAD speedup" claim
//! (§II: 142.07 s commercial TCAD vs 1.38 s GNN): full nonlinear Poisson
//! device solves versus one RelGAT surrogate inference on the same
//! device.
//!
//! Three more entries split one emulator forward, on the LTPS reference
//! device with the Table I bundle's shapes (2 layers × 1 head × 8): the
//! off-tape forward on a prepared mesh (what each fast-flow solve pays),
//! the edge projection the mesh preparation computes once per model,
//! and the autodiff-tape forward on a pre-encoded graph (the training
//! path, which inference used to run).

use criterion::{criterion_group, criterion_main, Criterion};
use stco_nn::ad::Graph;
use stco_nn::gnn::{edge_index_lists, RelGatStack};
use stco_nn::layers::{Activation, Mlp};
use stco_nn::train::TrainConfig;
use stco_nn::Params;
use stco_surrogate::encoding::{encode_device, DeviceGraph, TaskFeatures, EDGE_DIM, NODE_DIM};
use stco_surrogate::poisson_emulator::{PoissonConfig, PoissonEmulator};
use stco_tcad::dataset::{generate_dataset, DeviceSample};
use stco_tcad::device::{Bias, DeviceSpec};
use stco_tcad::materials::Technology;
use stco_tcad::poisson::solve_poisson;

fn bench_tcad_vs_gnn(c: &mut Criterion) {
    let data = generate_dataset(42, 6, &[Technology::Cnt]).expect("devices");
    let sample = data[0].clone();
    let bias = Bias {
        gate: sample.bias.gate,
        drain: sample.bias.drain,
    };

    // A small trained emulator (training cost excluded — it is the
    // paper's offline environment setup).
    let mut emulator = PoissonEmulator::new(PoissonConfig {
        depth: 2,
        heads: 1,
        head_dim: 8,
        ..PoissonConfig::default()
    });
    let (train, val) = data.split_at(5);
    emulator
        .train(
            train,
            val,
            &TrainConfig {
                epochs: 5,
                batch_size: 2,
                patience: None,
                ..TrainConfig::default()
            },
        )
        .expect("trains");

    let mut group = c.benchmark_group("tcad_vs_gnn");
    group.sample_size(10);
    group.bench_function("fem_poisson_solve", |b| {
        b.iter(|| solve_poisson(&sample.device, bias).expect("solves"))
    });
    group.bench_function("relgat_inference", |b| b.iter(|| emulator.predict(&sample)));

    let ltps = DeviceSample::simulate(
        DeviceSpec::reference(Technology::Ltps),
        Bias {
            gate: 3.0,
            drain: 3.0,
        },
    )
    .expect("reference device solves");
    let mesh = DeviceGraph::new(&ltps.device);
    let edges = emulator.project_edges(&mesh);
    let nodes = mesh.node_features(&ltps, TaskFeatures::Poisson);
    group.bench_function("relgat_prepared_mesh_forward", |b| {
        b.iter(|| emulator.predict_prepared(&mesh, &edges, &nodes))
    });
    group.bench_function("relgat_edge_projection", |b| {
        b.iter(|| emulator.project_edges(&mesh))
    });

    // The emulator's architecture rebuilt outside it, so the tape forward
    // it no longer runs for inference can still be timed.
    let mut params = Params::new(42);
    let stack = RelGatStack::new(&mut params, NODE_DIM, EDGE_DIM, 8, 1, 2);
    let head = Mlp::new(&mut params, &[8, 8, 1], Activation::Elu);
    let graph = encode_device(&ltps, TaskFeatures::Poisson);
    let (src, dst) = edge_index_lists(&graph.edges);
    group.bench_function("relgat_tape_forward_pre_encoded", |b| {
        b.iter(|| {
            Graph::with_scratch(|g| {
                let x = g.input(graph.node_features.clone());
                let e = g.input(graph.edge_features.clone());
                let h = stack.forward(g, &params, x, e, &src, &dst, graph.num_nodes());
                let pred = head.forward(g, &params, h);
                g.value(pred).get(0, 0)
            })
        })
    });
    group.finish();
}

criterion_group!(benches, bench_tcad_vs_gnn);
criterion_main!(benches);
