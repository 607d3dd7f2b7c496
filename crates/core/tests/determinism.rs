//! Thread-count independence of one STCO iteration: the stco-par fan-out
//! of the gate sweep and of the surrogate cell predictions must
//! reproduce the serial loops bit for bit. Golden fingerprints of the
//! surrogate device solve and of the fast iteration's PPA and extraction
//! pin those bits across code changes too.
//!
//! This file holds a single test because it toggles the process-global
//! thread override; adding further tests here would race on it.

use stco_compact::tech::{Corner, TechnologyCard};
use stco_core::flow::{
    fast_device_solution, predicted_library, FlowConfig, IterationResult, StcoFlow,
    TechnologyStage, TrainedSurrogates,
};
use stco_nn::train::TrainConfig;
use stco_par::set_global_threads;
use stco_surrogate::cell_model::{CellModel, CellModelConfig};
use stco_surrogate::iv_predictor::{IvConfig, IvPredictor};
use stco_surrogate::poisson_emulator::{PoissonConfig, PoissonEmulator};
use stco_system::bench_gen::Benchmark;
use stco_tcad::dataset::generate_dataset;
use stco_tcad::device::Bias;
use stco_tcad::materials::Technology;

/// Per corner: FNV-1a over every gate point's `fast_device_solution`
/// (ψ, carrier density, space charge and SRH bits) and IV-predicted
/// current.
const GOLDEN_DEVICE: [u64; 3] = [0xc8a897ac7c8bc668, 0x2831c44a64b7b091, 0x30a1d0e53db43fd2];

/// Per corner: FNV-1a over the fast iteration's PPA and extraction, as
/// the shortest-roundtrip text of [`outputs`].
const GOLDEN_FAST: [u64; 3] = [0xc954bdc3fd1ebb64, 0x4e34f81d9064637e, 0x54db9cdf3dd352fe];

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

/// FNV-1a 64 over `bytes`.
fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Everything an iteration computes except its wall-clock seconds.
/// Debug formatting prints every f64 with shortest-roundtrip precision,
/// so string equality is bit equality.
fn outputs(r: &IterationResult) -> String {
    format!("{:?} {:?} {:?}", r.ppa, r.extracted, r.stage)
}

/// Fingerprint of the surrogate device stage at one corner, solved one
/// gate point at a time through the public calls.
fn device_fingerprint(flow: &StcoFlow, corner: Corner, s: &TrainedSurrogates) -> u64 {
    let spec = flow.device_at(corner);
    let (gates, drain) = flow.gate_sweep(corner);
    let mut values = Vec::new();
    for gate in gates {
        let sample = fast_device_solution(&spec, Bias { gate, drain }, &s.poisson)
            .unwrap_or_else(|e| panic!("device solve at {corner:?}, gate {gate}: {e}"));
        let solution = &sample.solution;
        for field in [
            &solution.psi,
            &solution.carrier_density,
            &solution.space_charge,
            &solution.srh,
        ] {
            values.extend_from_slice(field);
        }
        values.push(s.iv.predict_current(&sample));
    }
    fnv1a(values.iter().flat_map(|v| v.to_bits().to_le_bytes()))
}

/// Every probe of one corner.
#[derive(Debug, PartialEq)]
struct CornerProbes {
    device: u64,
    fast: String,
    traditional: String,
    library: String,
}

/// Runs every probe of the test at one thread count.
fn run_at(threads: usize, flow: &StcoFlow, s: &TrainedSurrogates) -> Vec<CornerProbes> {
    set_global_threads(threads);
    let config = FlowConfig::fast(Technology::Ltps, Benchmark::S298).char_config;
    let run = |corner: Corner, stage: TechnologyStage, surrogates| {
        let r = flow
            .run_iteration(corner, stage, surrogates)
            .unwrap_or_else(|e| panic!("{stage:?} iteration at {corner:?}: {e}"));
        outputs(&r)
    };
    CORNERS
        .into_iter()
        .map(|corner| {
            let card = TechnologyCard::reference(Technology::Ltps).at_corner(corner);
            let library = predicted_library(flow.cells(), &card, &s.cells, &config);
            CornerProbes {
                device: device_fingerprint(flow, corner, s),
                fast: run(corner, TechnologyStage::Fast, Some(s)),
                traditional: run(corner, TechnologyStage::Traditional, None),
                library: format!("{library:?}"),
            }
        })
        .collect()
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
        assert_eq!(a, b, "corner {k} differs between 1 and 4 threads");
    }
    let device: Vec<u64> = serial.iter().map(|p| p.device).collect();
    let fast: Vec<u64> = serial.iter().map(|p| fnv1a(p.fast.bytes())).collect();
    assert_eq!(
        (device.as_slice(), fast.as_slice()),
        (GOLDEN_DEVICE.as_slice(), GOLDEN_FAST.as_slice()),
        "fingerprints now: device {device:#018x?}, fast {fast:#018x?}"
    );
}
