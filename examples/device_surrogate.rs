//! Device-surrogate walkthrough: generate a TCAD device population,
//! train the RelGAT Poisson emulator and IV predictor, and print a
//! Table-II-style accuracy report (MSE on standardized targets and R²).
//!
//! The paper trains on 50 000 devices; this example defaults to a small
//! population so it completes in about a minute — pass a number to scale
//! up, e.g. `cargo run --release --example device_surrogate -- 400`.

use stco_surrogate::pipeline::{run_table2, Table2Config};
use stco_tcad::materials::Technology;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let size: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(60);
    println!("fast-stco device surrogate (CNT population of {size} devices)\n");

    let config = Table2Config {
        dataset_size: size,
        unseen_size: size / 3,
        technologies: vec![Technology::Cnt],
        ..Table2Config::default()
    };
    let report = run_table2(&config, None)?;

    println!(
        "splits: train {} / val {} / test {} / unseen {}",
        report.sizes[0], report.sizes[1], report.sizes[2], report.sizes[3]
    );
    println!(
        "parameters: poisson emulator {}k, iv predictor {}k\n",
        report.parameter_counts.0 / 1000,
        report.parameter_counts.1 / 1000
    );

    println!(
        "{:<18} {:>12} {:>12} {:>12} {:>8}",
        "model", "val MSE", "test MSE", "unseen MSE", "R2"
    );
    let row = |name: &str, m: &[stco_surrogate::poisson_emulator::RegressionMetrics; 3]| {
        println!(
            "{:<18} {:>12.3e} {:>12.3e} {:>12.3e} {:>8.4}",
            name, m[0].mse, m[1].mse, m[2].mse, m[2].r_squared
        );
    };
    row("poisson emulator", &report.poisson);
    row("iv predictor", &report.iv);

    println!("\npaper (Table II) reference: Poisson 6.2e-5 / 7.0e-5 / 7.2e-5, IV 1.7e-3 / 1.6e-3 / 1.8e-3, R2 = 0.9999");
    println!("(paper scale: 50k devices, 12-layer GAT; see EXPERIMENTS.md for the scale-down)");
    Ok(())
}
