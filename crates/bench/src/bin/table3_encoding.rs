//! Table III regenerator: prints the node-feature vector definition and
//! the concrete feature matrix for representative cells, verifying the
//! encoding against the paper's specification row by row.

use stco_bench::banner;
use stco_cells::encode::{encode_cell, CellNodeKind, EncodingContext, FEATURE_NAMES};
use stco_cells::library::{CellKind, CellType};
use stco_compact::tech::TechnologyCard;
use stco_tcad::materials::Technology;

fn main() {
    banner("Table III: node feature vector definition");
    println!("{:<6} {:<24} populated for", "bit", "slot");
    let populated = [
        "VDD, VSS",
        "OUT, N-FET, P-FET",
        "IN, N-FET, P-FET, VSS",
        "N-FET (-1), P-FET (+1)",
        "VDD (value)",
        "FETs (width, um)",
        "FETs (Cox, mF/m^2)",
        "FETs (Vth, V)",
        "IN (input slew, ns)",
        "OUT (output load, fF)",
        "IN (current state)",
        "IN (next state)",
    ];
    for (i, (name, pop)) in FEATURE_NAMES.iter().zip(populated).enumerate() {
        println!("{:<6} {:<24} {}", i, name, pop);
    }

    let card = TechnologyCard::reference(Technology::Ltps);
    for kind in [CellKind::Inv, CellKind::Nand2] {
        let cell = CellType::by_kind(kind);
        let built = cell.build(&card, 1.0);
        let graph = encode_cell(
            &built,
            &EncodingContext::all_rising(&cell, 2.0e-9, 10.0e-15),
        );
        banner(&format!("{} feature matrix", cell.name));
        print!("{:<16}", "node");
        for i in 0..FEATURE_NAMES.len() {
            print!(" {:>7}", format!("b{i}"));
        }
        println!("  kind");
        for i in 0..graph.num_nodes() {
            print!("{:<16.16}", graph.labels[i]);
            for v in graph.feature_row(i) {
                print!(" {:>7.2}", v);
            }
            let kind = match graph.kinds[i] {
                CellNodeKind::Input => "IN",
                CellNodeKind::Output => "OUT",
                CellNodeKind::NFet => "N-FET",
                CellNodeKind::PFet => "P-FET",
                CellNodeKind::Vdd => "VDD",
                CellNodeKind::Vss => "VSS",
            };
            println!("  {kind}");
        }
        println!(
            "nodes: {}, directed edges: {}",
            graph.num_nodes(),
            graph.edges.len()
        );
    }
}
