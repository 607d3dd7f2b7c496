//! Table II regenerator: MSE and R² of the surrogate-TCAD models
//! (Poisson emulator + IV predictor) on validation / testing / unseen
//! device sets.
//!
//! Default: 150-device CNT population, 4-layer emulator. With
//! `STCO_SCALE=paper`: 1200 devices and the 12-layer architecture (still
//! far below the paper's 50 000 — see EXPERIMENTS.md).

use stco_bench::{artifact_registry, banner, cache_counters, paper_scale, report_cache_delta};
use stco_nn::train::TrainConfig;
use stco_surrogate::iv_predictor::IvConfig;
use stco_surrogate::pipeline::{run_table2, Table2Config};
use stco_surrogate::poisson_emulator::PoissonConfig;
use stco_tcad::materials::Technology;

fn main() {
    let config = if paper_scale() {
        Table2Config {
            dataset_size: 1200,
            unseen_size: 400,
            technologies: vec![Technology::Cnt],
            poisson: PoissonConfig {
                depth: 12,
                heads: 2,
                head_dim: 16,
                ..PoissonConfig::default()
            },
            iv: IvConfig::default(),
            train: TrainConfig {
                epochs: 60,
                batch_size: 8,
                patience: Some(15),
                ..TrainConfig::default()
            },
            seed: 2024,
        }
    } else {
        Table2Config {
            dataset_size: 150,
            unseen_size: 50,
            ..Table2Config::default()
        }
    };

    banner("Table II: MSE of the surrogate TCAD models");
    println!(
        "dataset: {} devices (+{} unseen), technologies {:?}",
        config.dataset_size, config.unseen_size, config.technologies
    );
    let registry = artifact_registry();
    let cache_before = cache_counters();
    let t0 = std::time::Instant::now();
    let report = run_table2(&config, registry.as_ref()).expect("table 2 pipeline");
    println!(
        "pipeline wall clock: {:.1} s (generation + training + eval)",
        t0.elapsed().as_secs_f64()
    );
    report_cache_delta("table2", cache_before);
    println!();

    println!(
        "{:<18} {:>12} {:>12} {:>12} {:>10}",
        "", "Validation", "Testing", "Unseen", "R2(unseen)"
    );
    println!(
        "{:<18} {:>12.3e} {:>12.3e} {:>12.3e} {:>10.4}",
        "Poisson Emulator",
        report.poisson[0].mse,
        report.poisson[1].mse,
        report.poisson[2].mse,
        report.poisson[2].r_squared
    );
    println!(
        "{:<18} {:>12.3e} {:>12.3e} {:>12.3e} {:>10.4}",
        "IV Predictor",
        report.iv[0].mse,
        report.iv[1].mse,
        report.iv[2].mse,
        report.iv[2].r_squared
    );
    println!(
        "\nsplits: train {} / val {} / test {} / unseen {} devices",
        report.sizes[0], report.sizes[1], report.sizes[2], report.sizes[3]
    );
    println!(
        "parameters: poisson {:.2} M (paper ~1 M), iv {:.3} M (paper ~0.15 M)",
        report.parameter_counts.0 as f64 / 1e6,
        report.parameter_counts.1 as f64 / 1e6
    );
    println!("\npaper Table II: Poisson 6.17e-5 / 7.02e-5 / 7.15e-5, IV 1.67e-3 / 1.60e-3 / 1.78e-3, R2 = 0.9999");
}
