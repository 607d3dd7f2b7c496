//! The pipeline entry points with a registry: a second run with an
//! identical config must resolve every model from the artifact registry (cache
//! hits, zero training) and produce bitwise-identical reports.

use stco_cells::charac::CharConfig;
use stco_cells::library::{CellKind, CellType};
use stco_nn::train::TrainConfig;
use stco_store::Registry;
use stco_surrogate::cell_model::{CellModel, CellModelConfig};
use stco_surrogate::iv_predictor::IvConfig;
use stco_surrogate::pipeline::{run_table2, run_table4, table4_key, Table2Config, Table4Config};
use stco_surrogate::poisson_emulator::PoissonConfig;
use stco_tcad::materials::Technology;

/// The hit/miss counters are process-global, so the two tests serialize
/// on this lock to keep their before/after deltas exact.
static COUNTER_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn scratch_registry(tag: &str) -> (Registry, std::path::PathBuf) {
    let dir =
        std::env::temp_dir().join(format!("stco-pipeline-cache-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    (Registry::open(&dir).expect("open registry"), dir)
}

fn cache_counts() -> (u64, u64) {
    let m = stco_obs::Recorder::global().metrics();
    (
        m.counter("store.cache_hit").get(),
        m.counter("store.cache_miss").get(),
    )
}

#[test]
fn table2_second_run_hits_cache_and_reports_identically() {
    let config = Table2Config {
        dataset_size: 8,
        unseen_size: 3,
        train: TrainConfig {
            epochs: 2,
            batch_size: 2,
            patience: None,
            ..TrainConfig::default()
        },
        poisson: PoissonConfig {
            depth: 1,
            heads: 1,
            head_dim: 6,
            ..PoissonConfig::default()
        },
        iv: IvConfig {
            depth: 1,
            head_dim: 6,
            mlp_hidden: 8,
            ..IvConfig::default()
        },
        ..Table2Config::default()
    };
    let (registry, dir) = scratch_registry("t2");
    let _serial = COUNTER_LOCK.lock().expect("counter lock");

    let before = cache_counts();
    let first = run_table2(&config, Some(&registry)).expect("first run");
    let mid = cache_counts();
    assert_eq!(
        mid.1 - before.1,
        2,
        "first run must miss twice (poisson + iv)"
    );

    let second = run_table2(&config, Some(&registry)).expect("second run");
    let after = cache_counts();
    assert_eq!(
        after.0 - mid.0,
        2,
        "second run must hit twice (poisson + iv)"
    );
    assert_eq!(after.1, mid.1, "second run must not miss");

    for (a, b) in first.poisson.iter().zip(&second.poisson) {
        assert_eq!(
            a.mse.to_bits(),
            b.mse.to_bits(),
            "poisson MSE must be bitwise-stable"
        );
        assert_eq!(a.r_squared.to_bits(), b.r_squared.to_bits());
    }
    for (a, b) in first.iv.iter().zip(&second.iv) {
        assert_eq!(
            a.mse.to_bits(),
            b.mse.to_bits(),
            "iv MSE must be bitwise-stable"
        );
        assert_eq!(a.r_squared.to_bits(), b.r_squared.to_bits());
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn table4_second_run_hits_cache_and_reports_identically() {
    let config = Table4Config {
        technology: Technology::Ltps,
        train_levels: 2,
        test_levels: 2,
        cells: vec![CellType::by_kind(CellKind::Inv)],
        char_config: CharConfig::fast(),
        model: CellModelConfig {
            hidden: 8,
            head_hidden: 8,
            ..CellModelConfig::default()
        },
        train: TrainConfig {
            epochs: 2,
            batch_size: 4,
            patience: None,
            ..TrainConfig::default()
        },
    };
    let (registry, dir) = scratch_registry("t4");
    let _serial = COUNTER_LOCK.lock().expect("counter lock");
    assert!(!registry.contains(CellModel::ARTIFACT_KIND, table4_key(&config)));

    let first = run_table4(&config, Some(&registry)).expect("first run");
    assert!(
        registry.contains(CellModel::ARTIFACT_KIND, table4_key(&config)),
        "first run must export the trained model"
    );
    let mid = cache_counts();
    let second = run_table4(&config, Some(&registry)).expect("second run");
    let after = cache_counts();
    assert_eq!(after.0 - mid.0, 1, "second run must load from cache");

    assert_eq!(first.rows.len(), second.rows.len());
    for (a, b) in first.rows.iter().zip(&second.rows) {
        assert_eq!(a.0, b.0);
        assert_eq!(
            a.1.to_bits(),
            b.1.to_bits(),
            "MAPE must be bitwise-stable for {}",
            a.0
        );
        assert_eq!(a.2, b.2);
    }
    let _ = std::fs::remove_dir_all(&dir);
}
