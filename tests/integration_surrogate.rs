//! Surrogate-pipeline integration: the Table II and Table IV harnesses
//! at smoke-test scale, exercising TCAD dataset generation, both RelGAT
//! models, SPICE characterization and the GCN end to end.

use stco_nn::train::TrainConfig;
use stco_surrogate::cell_model::METRICS;
use stco_surrogate::iv_predictor::IvConfig;
use stco_surrogate::pipeline::{run_table2, run_table4, Table2Config, Table4Config};
use stco_surrogate::poisson_emulator::PoissonConfig;
use stco_tcad::materials::Technology;

#[test]
fn table2_pipeline_learns_at_small_scale() {
    let config = Table2Config {
        dataset_size: 30,
        unseen_size: 10,
        technologies: vec![Technology::Cnt],
        poisson: PoissonConfig {
            depth: 2,
            heads: 1,
            head_dim: 8,
            ..PoissonConfig::default()
        },
        iv: IvConfig {
            depth: 2,
            head_dim: 8,
            mlp_hidden: 12,
            ..IvConfig::default()
        },
        train: TrainConfig {
            epochs: 20,
            batch_size: 4,
            patience: Some(8),
            ..TrainConfig::default()
        },
        seed: 404,
    };
    let report = run_table2(&config, None).expect("table 2 pipeline runs");
    // Shape of Table II: finite errors everywhere, high R² on the unseen
    // set for the Poisson emulator (the easier task).
    for m in report.poisson.iter().chain(report.iv.iter()) {
        assert!(m.mse.is_finite() && m.mse >= 0.0);
    }
    assert!(
        report.poisson[2].r_squared > 0.5,
        "poisson unseen R² {:.3}",
        report.poisson[2].r_squared
    );
    assert_eq!(report.sizes[3], 10);
}

#[test]
fn table4_pipeline_reports_mape_rows() {
    // Smoke-scale variant of the bench default: fewer epochs and a
    // smaller model keep the integration suite fast.
    let mut config = Table4Config::scaled_default(Technology::Ltps);
    config.model = stco_surrogate::cell_model::CellModelConfig {
        hidden: 24,
        head_hidden: 24,
        ..stco_surrogate::cell_model::CellModelConfig::default()
    };
    config.train = TrainConfig {
        epochs: 30,
        batch_size: 32,
        patience: Some(10),
        ..TrainConfig::default()
    };
    let report = run_table4(&config, None).expect("table 4 pipeline runs");
    assert_eq!(report.technology, Technology::Ltps);
    assert!(!report.rows.is_empty());
    for (metric, mape, count) in &report.rows {
        assert!(
            METRICS.contains(&metric.as_str()),
            "unknown metric {metric}"
        );
        assert!(mape.is_finite() && *mape >= 0.0, "{metric} MAPE {mape}");
        assert!(*count > 0);
    }
    // Timing metrics should be predicted substantially better than a
    // trivial constant guess; allow a loose ceiling at smoke scale.
    let delay = report
        .rows
        .iter()
        .find(|(m, _, _)| m == "delay")
        .expect("delay row exists");
    assert!(delay.1 < 60.0, "delay MAPE {:.1}% too high", delay.1);
    assert!(report.sizes.0 > 0 && report.sizes.1 > 0);
}
