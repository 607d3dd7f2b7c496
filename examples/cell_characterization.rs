//! Cell-characterization walkthrough: run the nine-metric transistor-
//! level characterization engine on a handful of library cells and print
//! the measured values, then show the Table III graph encoding of one
//! cell.
//!
//! Run with: `cargo run --release --example cell_characterization`

use stco_cells::charac::{characterize, CharConfig};
use stco_cells::encode::{encode_cell, EncodingContext, FEATURE_NAMES};
use stco_cells::library::{CellKind, CellType};
use stco_compact::tech::TechnologyCard;
use stco_tcad::materials::Technology;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let card = TechnologyCard::reference(Technology::Ltps);
    let config = CharConfig::fast();
    println!("fast-stco cell characterization (LTPS, fast 1x1 grid)\n");

    let kinds = [
        CellKind::Inv,
        CellKind::Nand2,
        CellKind::Nor3,
        CellKind::Xor2,
        CellKind::FullAdder,
        CellKind::Dff,
    ];
    println!(
        "{:<8} {:>10} {:>10} {:>10} {:>11} {:>11} {:>10}",
        "cell", "delay(ns)", "slew(ns)", "cap(fF)", "flip(fJ)", "leak(pW)", "setup(ns)"
    );
    for kind in kinds {
        let cell = CellType::by_kind(kind);
        let ch = characterize(&cell, &card, &config)?;
        let avg = |rows: &[stco_cells::charac::ArcSample]| -> f64 {
            if rows.is_empty() {
                return f64::NAN;
            }
            rows.iter().map(|s| s.value).sum::<f64>() / rows.len() as f64
        };
        println!(
            "{:<8} {:>10.3} {:>10.3} {:>10.3} {:>11.3} {:>11.3} {:>10}",
            ch.cell,
            avg(&ch.delay) * 1e9,
            avg(&ch.output_slew) * 1e9,
            ch.capacitance * 1e15,
            avg(&ch.flip_power) * 1e15,
            ch.leakage_power * 1e12,
            ch.min_setup
                .map(|v| format!("{:.3}", v * 1e9))
                .unwrap_or_else(|| "-".to_string()),
        );
    }

    // Table III encoding of an inverter.
    println!("\nTable III encoding of INV (slew 2 ns, load 10 fF, A: 0 -> 1):");
    let inv = CellType::by_kind(CellKind::Inv);
    let built = inv.build(&card, 1.0);
    let graph = encode_cell(&built, &EncodingContext::all_rising(&inv, 2.0e-9, 10.0e-15));
    print!("{:<14}", "node \\ slot");
    for name in FEATURE_NAMES {
        print!(" {:>10.10}", name);
    }
    println!();
    for i in 0..graph.num_nodes() {
        print!("{:<14.14}", graph.labels[i]);
        for v in graph.feature_row(i) {
            print!(" {:>10.3}", v);
        }
        println!();
    }
    println!("\nedges (directed): {}", graph.edges.len());
    Ok(())
}
