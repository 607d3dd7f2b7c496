//! Criterion bench behind the "~1900 s → 8.88 s characterization" claim:
//! transistor-level SPICE characterization of a cell versus GCN surrogate
//! prediction of the same metrics.

use criterion::{criterion_group, criterion_main, Criterion};
use stco_bench::bench_char_config;
use stco_cells::charac::characterize;
use stco_cells::encode::{encode_cell, EncodingContext};
use stco_cells::library::{CellKind, CellType};
use stco_compact::tech::{Corner, TechnologyCard};
use stco_nn::train::TrainConfig;
use stco_surrogate::cell_model::{metric_index, CellModel, CellModelConfig};
use stco_surrogate::pipeline::build_cell_dataset;
use stco_tcad::materials::Technology;

fn bench_cellchar(c: &mut Criterion) {
    let card = TechnologyCard::reference(Technology::Ltps);
    let config = bench_char_config();
    let cell = CellType::by_kind(CellKind::Nand2);

    // Train a small GCN on two corners (offline setup, not benched).
    let cells = [CellType::by_kind(CellKind::Inv), cell.clone()];
    let samples = build_cell_dataset(
        &card,
        &[Corner::nominal(2.5), Corner::nominal(3.5)],
        &cells,
        &config,
    )
    .expect("dataset");
    let mut model = CellModel::new(CellModelConfig::default());
    model
        .train(
            &samples,
            &[],
            &TrainConfig {
                epochs: 10,
                batch_size: 16,
                patience: None,
                ..TrainConfig::default()
            },
        )
        .expect("trains");

    let built = cell.build(&card, 1.0);
    let graph = encode_cell(
        &built,
        &EncodingContext::all_rising(&cell, 2.0e-9, 10.0e-15),
    );
    let m_delay = metric_index("delay").expect("known");

    let mut group = c.benchmark_group("cellchar_vs_gnn");
    group.sample_size(10);
    group.bench_function("spice_characterize_nand2", |b| {
        b.iter(|| characterize(&cell, &card, &config).expect("characterizes"))
    });
    // A flip-flop: clock-to-Q plus the setup, hold and pulse-width
    // bisections, whose capture transients resume from shared prefixes.
    let dff = CellType::by_kind(CellKind::Dff);
    group.bench_function("spice_characterize_dff", |b| {
        b.iter(|| characterize(&dff, &card, &config).expect("characterizes"))
    });
    group.bench_function("gcn_predict_delay", |b| {
        b.iter(|| model.predict(&graph, m_delay))
    });
    group.finish();
}

criterion_group!(benches, bench_cellchar);
criterion_main!(benches);
