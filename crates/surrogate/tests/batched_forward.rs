//! Batched-graph forward contract (DESIGN.md §15): packing cell graphs
//! into one block-diagonal union and running [`CellModel::predict_batch`]
//! must reproduce serial [`CellModel::predict_many`] bit for bit on a
//! *trained* model, at every thread count.
//!
//! This file holds a single test because it toggles the process-global
//! thread override; adding further tests here would race on it.

use stco_cells::encode::{encode_cell, CellGraph, EncodingContext};
use stco_cells::library::{CellKind, CellType};
use stco_compact::tech::{Corner, CornerGrid, TechnologyCard};
use stco_nn::train::TrainConfig;
use stco_numerics::rng::Xorshift;
use stco_par::set_global_threads;
use stco_surrogate::cell_model::{
    BatchedCellGraph, CellModel, CellModelConfig, CellSample, METRICS,
};
use stco_tcad::materials::Technology;

/// Synthetic but smooth targets: pseudo-delay ∝ load / V_DD² per cell.
fn samples(kinds: &[CellKind], corners: &[Corner]) -> Vec<CellSample> {
    let base = TechnologyCard::reference(Technology::Ltps);
    let mut out = Vec::new();
    for &kind in kinds {
        let cell = CellType::by_kind(kind);
        for corner in corners {
            let card = base.at_corner(*corner);
            let built = cell.build(&card, 1.0);
            let load = 10.0e-15 * corner.cox_scale;
            let graph = encode_cell(&built, &EncodingContext::all_rising(&cell, 2.0e-9, load));
            let scale = 1.0 + cell.transistor_count() as f64 / 10.0;
            let value = scale * load / (corner.vdd * corner.vdd) * 1.0e12;
            out.push(CellSample {
                graph,
                metric: 0,
                value,
            });
        }
    }
    out
}

#[test]
fn batched_forward_matches_serial_bitwise_on_trained_model_across_threads() {
    let corners = CornerGrid::default().corners(3);
    let kinds = [CellKind::Inv, CellKind::Nand2, CellKind::Nor2];
    let data = samples(&kinds, &corners);
    let mut model = CellModel::new(CellModelConfig {
        hidden: 16,
        head_hidden: 16,
        ..CellModelConfig::default()
    });
    model
        .train(
            &data,
            &[],
            &TrainConfig {
                epochs: 6,
                batch_size: 8,
                patience: None,
                ..TrainConfig::default()
            },
        )
        .expect("training succeeds");

    let pool: Vec<&CellGraph> = data.iter().map(|s| &s.graph).collect();
    let all_metrics: Vec<usize> = (0..METRICS.len()).collect();

    // Randomized batch compositions (sizes, membership, metric subsets),
    // deterministic across runs.
    let mut rng = Xorshift::new(99);
    let mut compositions = Vec::new();
    for _ in 0..6 {
        let size = 2 + (rng.uniform() * 6.0) as usize;
        let members: Vec<usize> = (0..size)
            .map(|_| (rng.uniform() * pool.len() as f64) as usize % pool.len())
            .collect();
        let lists: Vec<Vec<usize>> = members
            .iter()
            .map(|_| {
                let take = 1 + (rng.uniform() * (METRICS.len() - 1) as f64) as usize;
                all_metrics[..take].to_vec()
            })
            .collect();
        compositions.push((members, lists));
    }

    let mut per_thread_bits: Vec<Vec<u64>> = Vec::new();
    for threads in [1usize, 4] {
        set_global_threads(threads);
        let mut bits = Vec::new();
        for (members, lists) in &compositions {
            let graphs: Vec<&CellGraph> = members.iter().map(|&i| pool[i]).collect();
            let refs: Vec<&[usize]> = lists.iter().map(Vec::as_slice).collect();
            let batch = BatchedCellGraph::pack(&graphs);
            let batched = model.predict_batch(&batch, &refs);
            for (gi, (graph, ms)) in graphs.iter().zip(lists).enumerate() {
                let serial = model.predict_many(graph, ms);
                for (b, s) in batched[gi].iter().zip(&serial) {
                    assert_eq!(
                        b.to_bits(),
                        s.to_bits(),
                        "batched {b:e} != serial {s:e} (graph {gi}, {threads} threads)"
                    );
                    bits.push(b.to_bits());
                }
            }
        }
        per_thread_bits.push(bits);
    }
    set_global_threads(0);
    assert_eq!(
        per_thread_bits[0], per_thread_bits[1],
        "batched predictions diverge between 1 and 4 threads"
    );
}
