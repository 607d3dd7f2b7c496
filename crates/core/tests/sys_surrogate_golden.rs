//! Golden fingerprints of a trained [`SystemSurrogate`]: the bits of its
//! predictions and of its saved artifact. Training and inference are
//! separate code paths, so a change to either shows here as a changed
//! fingerprint, and the two are checked apart.

use stco_compact::tech::Corner;
use stco_core::sys_surrogate::{features, EvalRecord, SystemSurrogate};
use stco_nn::train::TrainConfig;
use stco_system::bench_gen::Benchmark;

/// Per benchmark of [`BENCHMARKS`]: FNV-1a over the bits of every
/// [`predict_corners`] prediction (period, power, area).
const GOLDEN_PREDICT: [u64; 2] = [0x396b7b7a90fc4c00, 0x15d5bee73bae2b72];

/// FNV-1a over the `to_artifact` tensors: each tensor's shape, then the
/// bits of its values.
const GOLDEN_ARTIFACT: u64 = 0xfee5dff08d0baa3c;

const BENCHMARKS: [Benchmark; 2] = [Benchmark::S298, Benchmark::S1488];

/// The eight corners of a box around the training grid, V_DD varying
/// fastest.
fn predict_corners() -> Vec<Corner> {
    let mut corners = Vec::new();
    for cox_scale in [0.9, 1.15] {
        for vth_shift in [-0.08, 0.08] {
            for vdd in [2.4, 3.6] {
                corners.push(Corner {
                    vdd,
                    vth_shift,
                    cox_scale,
                });
            }
        }
    }
    corners
}

/// FNV-1a 64 over `bytes`.
fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn bits_of(values: &[f64]) -> impl Iterator<Item = u8> + '_ {
    values.iter().flat_map(|v| v.to_bits().to_le_bytes())
}

/// Records on a fixed corner grid of both benchmarks, with structured
/// targets: period ∝ gates/vdd², power ∝ gates·vdd² plus a
/// threshold-driven leakage term, area ∝ gates·cox.
fn records() -> Vec<EvalRecord> {
    let mut out = Vec::new();
    for bench in BENCHMARKS {
        let logic = bench.generate();
        let gates = logic.gate_count() as f64;
        for vdd in [2.0, 2.6, 3.2, 3.8] {
            for vth_shift in [-0.1, 0.0, 0.1] {
                for cox_scale in [0.85, 1.0, 1.2] {
                    let corner = Corner {
                        vdd,
                        vth_shift,
                        cox_scale,
                    };
                    let period = 1e-9 * gates / (vdd * vdd);
                    let power = 1e-9 * gates * vdd * vdd * (1.0 + (-vth_shift * 8.0).exp());
                    let area = 1e-10 * gates * cox_scale;
                    out.push(EvalRecord {
                        features: features(&logic, corner),
                        targets: [period.log10(), power.log10(), area.log10()],
                    });
                }
            }
        }
    }
    out
}

fn trained() -> SystemSurrogate {
    let mut model = SystemSurrogate::new(21);
    model
        .train(
            &records(),
            &TrainConfig {
                epochs: 40,
                batch_size: 8,
                seed: 3,
                patience: None,
            },
        )
        .expect("surrogate trains");
    model
}

fn predict_fingerprints(model: &SystemSurrogate) -> Vec<u64> {
    BENCHMARKS
        .iter()
        .map(|bench| {
            let logic = bench.generate();
            let values: Vec<f64> = predict_corners()
                .into_iter()
                .flat_map(|corner| {
                    let p = model.predict(&logic, corner);
                    [p.min_clock_period, p.power, p.area]
                })
                .collect();
            fnv1a(bits_of(&values))
        })
        .collect()
}

#[test]
fn trained_system_surrogate_matches_golden_fingerprints() {
    let model = trained();
    let artifact = model.to_artifact();
    let tensors = fnv1a(artifact.tensors.iter().flat_map(|t| {
        let shape = [t.rows() as u64, t.cols() as u64];
        shape
            .into_iter()
            .flat_map(u64::to_le_bytes)
            .chain(bits_of(t.as_slice()))
            .collect::<Vec<u8>>()
    }));
    let predict = predict_fingerprints(&model);
    let reloaded = SystemSurrogate::from_artifact(&artifact).expect("artifact loads");
    assert_eq!(
        predict_fingerprints(&reloaded),
        predict,
        "a reloaded surrogate predicts other bits"
    );
    assert_eq!(
        tensors, GOLDEN_ARTIFACT,
        "artifact fingerprint now {tensors:#018x}"
    );
    assert_eq!(
        predict.as_slice(),
        GOLDEN_PREDICT.as_slice(),
        "predict fingerprints now {predict:#018x?}"
    );
}
