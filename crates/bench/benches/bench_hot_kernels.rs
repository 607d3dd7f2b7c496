//! Criterion micro-benches for the kernels on the characterization and
//! training hot paths: in-place GEMM variants against their
//! allocate-and-transpose equivalents, factor-once LU against
//! refactor-per-solve, and a single cell-characterization transient of
//! the kind the Liberty bisection searches replay thousands of times.

use criterion::{criterion_group, criterion_main, Criterion};
use stco_bench::encoded_graphs;
use stco_cells::encode::CellGraph;
use stco_compact::tech::TechnologyCard;
use stco_numerics::dense::{LuFactors, Matrix};
use stco_numerics::rng::Xorshift;
use stco_spice::analysis::TranConfig;
use stco_spice::netlist::{Circuit, Waveform};
use stco_surrogate::cell_model::{BatchedCellGraph, CellModel, CellModelConfig};
use stco_tcad::materials::Technology;

fn random_matrix(rng: &mut Xorshift, rows: usize, cols: usize) -> Matrix {
    let data = (0..rows * cols)
        .map(|_| rng.uniform_in(-1.0, 1.0))
        .collect();
    Matrix::from_vec(rows, cols, data)
}

/// One RelGAT layer of the 12-layer surrogate works on roughly these
/// shapes: a `[nodes × hidden]` activation against a `[hidden × hidden]`
/// head weight, with an equal-shaped upstream gradient in backward.
const GAT_NODES: usize = 64;
const GAT_HIDDEN: usize = 32;

fn bench_gemm(c: &mut Criterion) {
    let mut rng = Xorshift::new(42);
    let x = random_matrix(&mut rng, GAT_NODES, GAT_HIDDEN);
    let w = random_matrix(&mut rng, GAT_HIDDEN, GAT_HIDDEN);
    let g = random_matrix(&mut rng, GAT_NODES, GAT_HIDDEN);

    let mut group = c.benchmark_group("gemm_gat_layer");
    group.bench_function("matmul_alloc", |b| b.iter(|| x.matmul(&w)));
    group.bench_function("gemm_into_reused", |b| {
        let mut out = Matrix::zeros(GAT_NODES, GAT_HIDDEN);
        b.iter(|| {
            out.reset_zeroed(GAT_NODES, GAT_HIDDEN);
            x.gemm_into(&w, &mut out);
        })
    });
    // MatMul backward, da = g · wᵀ.
    group.bench_function("nt_transpose_then_matmul", |b| {
        b.iter(|| g.matmul(&w.transpose()))
    });
    group.bench_function("gemm_nt_into_reused", |b| {
        let mut out = Matrix::zeros(GAT_NODES, GAT_HIDDEN);
        b.iter(|| {
            out.reset_zeroed(GAT_NODES, GAT_HIDDEN);
            g.gemm_nt_into(&w, &mut out);
        })
    });
    // MatMul backward, dw = xᵀ · g.
    group.bench_function("tn_transpose_then_matmul", |b| {
        b.iter(|| x.transpose().matmul(&g))
    });
    group.bench_function("gemm_tn_into_reused", |b| {
        let mut out = Matrix::zeros(GAT_HIDDEN, GAT_HIDDEN);
        b.iter(|| {
            out.reset_zeroed(GAT_HIDDEN, GAT_HIDDEN);
            x.gemm_tn_into(&g, &mut out);
        })
    });
    group.finish();
}

/// Blocked versus naive GEMM at the shapes the batched forward runs: a
/// 32-graph union of 64-node graphs is a `[2048 × 32]` activation
/// against `[32 × 32]` weights (DESIGN.md §15).
const BATCHED_NODES: usize = 2048;

fn bench_blocked_gemm(c: &mut Criterion) {
    let mut rng = Xorshift::new(11);
    for (label, m) in [("gat", GAT_NODES), ("batched_gat", BATCHED_NODES)] {
        let x = random_matrix(&mut rng, m, GAT_HIDDEN);
        let w = random_matrix(&mut rng, GAT_HIDDEN, GAT_HIDDEN);
        let g = random_matrix(&mut rng, m, GAT_HIDDEN);
        let mut group = c.benchmark_group(&format!("gemm_blocked_{label}"));
        group.bench_function("nn_naive", |b| {
            let mut out = Matrix::zeros(m, GAT_HIDDEN);
            b.iter(|| {
                out.reset_zeroed(m, GAT_HIDDEN);
                x.gemm_into_naive(&w, &mut out);
            })
        });
        group.bench_function("nn_blocked", |b| {
            let mut out = Matrix::zeros(m, GAT_HIDDEN);
            b.iter(|| {
                out.reset_zeroed(m, GAT_HIDDEN);
                x.gemm_into_blocked(&w, &mut out);
            })
        });
        group.bench_function("nt_naive", |b| {
            let mut out = Matrix::zeros(m, GAT_HIDDEN);
            b.iter(|| {
                out.reset_zeroed(m, GAT_HIDDEN);
                g.gemm_nt_into_naive(&w, &mut out);
            })
        });
        group.bench_function("nt_blocked", |b| {
            let mut out = Matrix::zeros(m, GAT_HIDDEN);
            b.iter(|| {
                out.reset_zeroed(m, GAT_HIDDEN);
                g.gemm_nt_into_blocked(&w, &mut out);
            })
        });
        group.bench_function("tn_naive", |b| {
            let mut out = Matrix::zeros(GAT_HIDDEN, GAT_HIDDEN);
            b.iter(|| {
                out.reset_zeroed(GAT_HIDDEN, GAT_HIDDEN);
                x.gemm_tn_into_naive(&g, &mut out);
            })
        });
        group.bench_function("tn_blocked", |b| {
            let mut out = Matrix::zeros(GAT_HIDDEN, GAT_HIDDEN);
            b.iter(|| {
                out.reset_zeroed(GAT_HIDDEN, GAT_HIDDEN);
                x.gemm_tn_into_blocked(&g, &mut out);
            })
        });
        group.finish();
    }
}

/// A RelGAT attention score on the device mesh of the Table I
/// surrogates (head width 8): the `[edges × 3·head_dim]` concatenation
/// against the `[3·head_dim × 1]` attention vector, once per layer of
/// every Poisson/IV forward. `gemm_into` sends `n = 1` to its row-dot
/// kernel (DESIGN.md §15).
const MESH_EDGES: usize = 1171;
const ATTN_WIDTH: usize = 24;

fn bench_attention_score(c: &mut Criterion) {
    let mut rng = Xorshift::new(5);
    let cat = random_matrix(&mut rng, MESH_EDGES, ATTN_WIDTH);
    let attn = random_matrix(&mut rng, ATTN_WIDTH, 1);
    let mut group = c.benchmark_group("gemm_attention_score_1171x24x1");
    group.bench_function("naive", |b| {
        let mut out = Matrix::zeros(MESH_EDGES, 1);
        b.iter(|| {
            out.reset_zeroed(MESH_EDGES, 1);
            cat.gemm_into_naive(&attn, &mut out);
        })
    });
    group.bench_function("gemm_into", |b| {
        let mut out = Matrix::zeros(MESH_EDGES, 1);
        b.iter(|| {
            out.reset_zeroed(MESH_EDGES, 1);
            cat.gemm_into(&attn, &mut out);
        })
    });
    group.finish();
}

fn bench_batched_forward(c: &mut Criterion) {
    const BATCH: usize = 32;
    let graphs = encoded_graphs(BATCH);
    let refs: Vec<&CellGraph> = graphs.iter().collect();
    let metrics: Vec<usize> = vec![0, 1, 2];
    let lists: Vec<&[usize]> = (0..BATCH).map(|_| metrics.as_slice()).collect();
    let model = CellModel::new(CellModelConfig::default());

    let mut group = c.benchmark_group("batched_forward");
    group.bench_function("looped_predict_many_32", |b| {
        b.iter(|| {
            refs.iter()
                .map(|g| model.predict_many(g, &metrics))
                .collect::<Vec<_>>()
        })
    });
    group.bench_function("predict_batch_32", |b| {
        b.iter(|| {
            let batch = BatchedCellGraph::pack(&refs);
            model.predict_batch(&batch, &lists)
        })
    });
    group.bench_function("predict_batch_32_prepacked", |b| {
        let batch = BatchedCellGraph::pack(&refs);
        b.iter(|| model.predict_batch(&batch, &lists))
    });
    group.finish();
}

/// A seeded system shaped like a cell's MNA matrix in the SPICE Newton
/// loop: `nodes` rows with a conductance to ground (the capacitor
/// companions), `tfts` linearized-TFT stamps coupling a random (drain,
/// gate, source) triple, and `sources` voltage-source branches, each tying
/// one of the first nodes to a row and column of +1 with a zero diagonal,
/// so factoring it takes row swaps.
fn mna_like_matrix(rng: &mut Xorshift, nodes: usize, sources: usize, tfts: usize) -> Matrix {
    let n = nodes + sources;
    let mut a = Matrix::zeros(n, n);
    for i in 0..nodes {
        a.add_at(i, i, rng.uniform_in(0.5, 1.0));
    }
    for _ in 0..tfts {
        let pick = |rng: &mut Xorshift| (rng.uniform() * nodes as f64) as usize % nodes;
        let (d, g, s) = (pick(rng), pick(rng), pick(rng));
        let (gds, gm) = (rng.uniform_in(0.01, 1.0), rng.uniform_in(0.01, 1.0));
        a.add_at(d, d, gds);
        a.add_at(d, s, -gds - gm);
        a.add_at(d, g, gm);
        a.add_at(s, s, gds + gm);
        a.add_at(s, d, -gds);
        a.add_at(s, g, -gm);
    }
    for k in 0..sources {
        a.add_at(k, nodes + k, 1.0);
        a.add_at(nodes + k, k, 1.0);
    }
    a
}

fn bench_lu(c: &mut Criterion) {
    // The dense case: the compact fit's normal equations and the sweep
    // GP's kernel matrix have no zeros, so the factorization runs the
    // contiguous update at every step.
    const N: usize = 24;
    let mut rng = Xorshift::new(7);
    let mut a = random_matrix(&mut rng, N, N);
    for i in 0..N {
        let off: f64 = a.row(i).iter().map(|v| v.abs()).sum();
        a.set(i, i, off + 1.0);
    }
    let b_vec: Vec<f64> = (0..N).map(|_| rng.uniform_in(-1.0, 1.0)).collect();
    // The SPICE case: the DFF's per-iteration system has 25 unknowns and
    // 136 nonzeros, and skipping exactly-zero work leaves 971 of the dense
    // elimination's 4,900 multiply-adds. This one (21 nodes, 4 sources, 34
    // stamps, seed 4) also has 136 nonzeros and leaves 1,103.
    let mna = mna_like_matrix(&mut Xorshift::new(4), 21, 4, 34);

    let mut group = c.benchmark_group("lu");
    group.bench_function("dense_24_factor_alloc", |b| {
        b.iter(|| a.lu_factor().expect("nonsingular"))
    });
    group.bench_function("dense_24_factor_into_reused", |b| {
        let mut factors = LuFactors::default();
        b.iter(|| a.lu_factor_into(&mut factors).expect("nonsingular"))
    });
    group.bench_function("mna_25_factor_into_reused", |b| {
        let mut factors = LuFactors::default();
        b.iter(|| mna.lu_factor_into(&mut factors).expect("nonsingular"))
    });
    let factors = a.lu_factor().expect("nonsingular");
    group.bench_function("dense_24_solve_alloc", |b| {
        b.iter(|| factors.solve(&b_vec).expect("solves"))
    });
    group.bench_function("dense_24_solve_into_reused", |b| {
        let mut x = Vec::new();
        b.iter(|| factors.solve_into(&b_vec, &mut x).expect("solves"))
    });
    group.finish();
}

fn bench_charac_transient(c: &mut Criterion) {
    // A single inverter switching transient — the unit of work the
    // characterization bisection searches repeat per probe.
    let card = TechnologyCard::reference(Technology::Ltps);
    let mut ckt = Circuit::new();
    let gnd = ckt.node("0");
    let vdd = ckt.node("vdd");
    let inp = ckt.node("a");
    let out = ckt.node("y");
    ckt.add_vsource("vvdd", vdd, gnd, Waveform::Dc(card.vdd));
    ckt.add_vsource(
        "vin",
        inp,
        gnd,
        Waveform::Pulse {
            v0: 0.0,
            v1: card.vdd,
            delay: 1.0e-9,
            rise: 2.0e-9,
            fall: 2.0e-9,
            width: 20.0e-9,
            period: 0.0,
        },
    );
    ckt.add_tft("mp", out, inp, vdd, card.pfet_sized(2.0));
    ckt.add_tft("mn", out, inp, gnd, card.nfet_sized(1.0));
    ckt.add_capacitor("cload", out, gnd, 10.0e-15);
    let config = TranConfig {
        t_stop: 40.0e-9,
        dt: 0.2e-9,
    };

    let mut group = c.benchmark_group("charac");
    group.sample_size(20);
    group.bench_function("inverter_transient", |b| {
        b.iter(|| ckt.transient(&config).expect("converges"))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_gemm,
    bench_blocked_gemm,
    bench_attention_score,
    bench_batched_forward,
    bench_lu,
    bench_charac_transient
);
criterion_main!(benches);
