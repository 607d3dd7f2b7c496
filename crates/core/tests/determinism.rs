//! Thread-count independence of one STCO iteration: the stco-par fan-out
//! of the gate sweep and of the surrogate cell predictions must
//! reproduce the serial loops bit for bit.
//!
//! This file holds a single test because it toggles the process-global
//! thread override; adding further tests here would race on it.

use stco_compact::tech::{Corner, TechnologyCard};
use stco_core::flow::{
    predicted_library, FlowConfig, IterationResult, StcoFlow, TechnologyStage, TrainedSurrogates,
};
use stco_nn::train::TrainConfig;
use stco_par::set_global_threads;
use stco_surrogate::cell_model::{CellModel, CellModelConfig};
use stco_surrogate::iv_predictor::{IvConfig, IvPredictor};
use stco_surrogate::poisson_emulator::{PoissonConfig, PoissonEmulator};
use stco_system::bench_gen::Benchmark;
use stco_tcad::dataset::generate_dataset;
use stco_tcad::materials::Technology;

/// Corners inside the sweep's box (vdd 2.8–3.4 V, vth ±0.05 V, cox
/// 0.95–1.1), where every stage of both flows succeeds.
const CORNERS: [Corner; 3] = [
    Corner {
        vdd: 2.8,
        vth_shift: -0.05,
        cox_scale: 0.95,
    },
    Corner {
        vdd: 3.1,
        vth_shift: 0.02,
        cox_scale: 1.03,
    },
    Corner {
        vdd: 3.4,
        vth_shift: 0.05,
        cox_scale: 1.1,
    },
];

/// A small surrogate bundle. The device models are trained just enough
/// for the extracted transfer curve to fit; the cell model stays
/// untrained, which still yields a valid library. Determinism does not
/// depend on the weights, only on the order of the arithmetic.
fn surrogates() -> TrainedSurrogates {
    let data = generate_dataset(77, 10, &[Technology::Ltps]).expect("devices generate");
    let (train, val) = data.split_at(8);
    let schedule = TrainConfig {
        epochs: 12,
        batch_size: 2,
        patience: None,
        ..TrainConfig::default()
    };
    let mut poisson = PoissonEmulator::new(PoissonConfig {
        depth: 2,
        heads: 1,
        head_dim: 8,
        ..PoissonConfig::default()
    });
    poisson
        .train(train, val, &schedule)
        .expect("poisson trains");
    let mut iv = IvPredictor::new(IvConfig {
        depth: 2,
        head_dim: 8,
        mlp_hidden: 12,
        ..IvConfig::default()
    });
    iv.train(train, val, &schedule).expect("iv trains");
    TrainedSurrogates {
        poisson,
        iv,
        cells: CellModel::new(CellModelConfig::default()),
    }
}

/// Everything an iteration computes except its wall-clock seconds.
/// Debug formatting prints every f64 with shortest-roundtrip precision,
/// so string equality is bit equality.
fn outputs(r: &IterationResult) -> String {
    format!("{:?} {:?} {:?}", r.ppa, r.extracted, r.stage)
}

/// Runs every probe of the test at one thread count.
fn run_at(threads: usize, flow: &StcoFlow, s: &TrainedSurrogates) -> Vec<String> {
    set_global_threads(threads);
    let mut out = Vec::new();
    let config = FlowConfig::fast(Technology::Ltps, Benchmark::S298).char_config;
    for corner in CORNERS {
        for (stage, surrogates) in [
            (TechnologyStage::Fast, Some(s)),
            (TechnologyStage::Traditional, None),
        ] {
            let r = flow
                .run_iteration(corner, stage, surrogates)
                .unwrap_or_else(|e| panic!("{stage:?} iteration at {corner:?}: {e}"));
            out.push(outputs(&r));
        }
        let card = TechnologyCard::reference(Technology::Ltps).at_corner(corner);
        let library = predicted_library(flow.cells(), &card, &s.cells, &config);
        out.push(format!("{library:?}"));
    }
    out
}

#[test]
fn iterations_and_predicted_libraries_are_identical_across_thread_counts() {
    let flow =
        StcoFlow::new(FlowConfig::fast(Technology::Ltps, Benchmark::S298)).expect("flow builds");
    let s = surrogates();
    let serial = run_at(1, &flow, &s);
    let parallel = run_at(4, &flow, &s);
    set_global_threads(0);
    assert_eq!(serial.len(), parallel.len());
    for (k, (a, b)) in serial.iter().zip(&parallel).enumerate() {
        assert_eq!(a, b, "probe {k} differs between 1 and 4 threads");
    }
}
