//! Table III: the node-feature encoding of transistor-level cell graphs
//! consumed by the GCN characterization surrogate.
//!
//! Nodes are input pins (IN), signal nets (OUT — both real output pins
//! and internal stage nets), transistors (N-FET / P-FET) and the two
//! supplies (VDD / VSS). Each node carries the 12-slot feature vector of
//! the paper's Table III; slots irrelevant to a node type are zero.
//! Edges follow netlist connectivity: every FET connects to its gate
//! signal and to its drain/source nets.
//!
//! The per-pin context a graph is encoded at is decided here, once for
//! each use: [`EncodingContext::for_arc`] is the context a characterized
//! arc trains at, and [`EncodingContext::all_rising`] the one the
//! surrogate-predicted library and the demos query at. The two differ
//! for multi-input cells, where the held inputs sit at 1 in training but
//! rise with the rest when queried.

use std::collections::BTreeMap;

use crate::charac::ArcSample;
use crate::library::{BuiltCell, CellType};

/// Node type in the cell graph (column of Table III).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellNodeKind {
    /// Cell input pin.
    Input,
    /// Signal net (output pin or internal net).
    Output,
    /// N-type transistor.
    NFet,
    /// P-type transistor.
    PFet,
    /// Supply rail.
    Vdd,
    /// Ground rail.
    Vss,
}

/// Width of the Table III feature vector.
pub const FEATURE_DIM: usize = 12;

/// Names of the 12 feature slots, in order (rows of Table III).
pub const FEATURE_NAMES: [&str; FEATURE_DIM] = [
    "supply_flag",
    "driver_flag",
    "sink_flag",
    "fet_polarity",
    "vdd_value",
    "width",
    "gate_unit_capacitance",
    "vth",
    "input_slew",
    "output_load",
    "current_state",
    "next_state",
];

/// Per-pin dynamic context of an encoding: the task-specific inputs of
/// Table III (states, slew, load).
#[derive(Debug, Clone, Default)]
pub struct EncodingContext {
    /// Current logic state per input pin (pin name → 0/1).
    pub current_state: BTreeMap<String, f64>,
    /// Next logic state per input pin.
    pub next_state: BTreeMap<String, f64>,
    /// Input slew per input pin, s.
    pub input_slew: BTreeMap<String, f64>,
    /// Capacitive load per output pin, F.
    pub output_load: BTreeMap<String, f64>,
}

impl EncodingContext {
    /// The training context of one characterized arc: the switching pin
    /// moves 0→1 (rising input) or 1→0, every other input is held at its
    /// sensitizing level (approximated as 1), every input carries the
    /// arc's slew and every output its load.
    pub fn for_arc(cell: &CellType, arc: &ArcSample) -> Self {
        let mut ctx = EncodingContext::default();
        for pin in &cell.inputs {
            let (cur, next) = match (*pin == arc.pin, arc.input_rising) {
                (true, true) => (0.0, 1.0),
                (true, false) => (1.0, 0.0),
                (false, _) => (1.0, 1.0),
            };
            ctx.set_input(pin, cur, next, arc.slew);
        }
        ctx.set_outputs(cell, arc.load);
        ctx
    }

    /// The query context: every input rises 0→1 at `slew` and every
    /// output drives `load`.
    pub fn all_rising(cell: &CellType, slew: f64, load: f64) -> Self {
        let mut ctx = EncodingContext::default();
        for pin in &cell.inputs {
            ctx.set_input(pin, 0.0, 1.0, slew);
        }
        ctx.set_outputs(cell, load);
        ctx
    }

    fn set_input(&mut self, pin: &str, current: f64, next: f64, slew: f64) {
        self.current_state.insert(pin.to_string(), current);
        self.next_state.insert(pin.to_string(), next);
        self.input_slew.insert(pin.to_string(), slew);
    }

    fn set_outputs(&mut self, cell: &CellType, load: f64) {
        for pin in &cell.outputs {
            self.output_load.insert((*pin).to_string(), load);
        }
    }
}

/// An encoded cell graph: flat features plus an undirected edge list.
#[derive(Debug, Clone)]
pub struct CellGraph {
    /// Row-major `[num_nodes × FEATURE_DIM]` features.
    pub features: Vec<f64>,
    /// Node kinds, parallel to feature rows.
    pub kinds: Vec<CellNodeKind>,
    /// Node labels (pin/net/transistor names), parallel to rows.
    pub labels: Vec<String>,
    /// Directed edge list (both directions included).
    pub edges: Vec<(usize, usize)>,
}

impl CellGraph {
    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.kinds.len()
    }

    /// Feature row of node `i`.
    pub fn feature_row(&self, i: usize) -> &[f64] {
        &self.features[i * FEATURE_DIM..(i + 1) * FEATURE_DIM]
    }
}

/// Encodes a built cell under the given dynamic context.
///
/// Scaling: widths in µm, C_ox in mF/m², slews in ns, loads in fF —
/// keeping every slot O(1) for the GCN.
pub fn encode_cell(built: &BuiltCell, ctx: &EncodingContext) -> CellGraph {
    let cell = &built.cell;
    let mut labels: Vec<String> = Vec::new();
    let mut kinds: Vec<CellNodeKind> = Vec::new();
    let mut index: BTreeMap<String, usize> = BTreeMap::new();
    let push_node = |label: String,
                     kind: CellNodeKind,
                     labels: &mut Vec<String>,
                     kinds: &mut Vec<CellNodeKind>,
                     index: &mut BTreeMap<String, usize>|
     -> usize {
        if let Some(&i) = index.get(&label) {
            return i;
        }
        let i = labels.len();
        index.insert(label.clone(), i);
        labels.push(label);
        kinds.push(kind);
        i
    };

    // Supplies first, then pins, then nets and FETs as encountered.
    push_node(
        "VDD".into(),
        CellNodeKind::Vdd,
        &mut labels,
        &mut kinds,
        &mut index,
    );
    push_node(
        "VSS".into(),
        CellNodeKind::Vss,
        &mut labels,
        &mut kinds,
        &mut index,
    );
    for pin in &cell.inputs {
        push_node(
            (*pin).to_string(),
            CellNodeKind::Input,
            &mut labels,
            &mut kinds,
            &mut index,
        );
    }

    let mut edges = Vec::new();
    let add_edge = |a: usize, b: usize, edges: &mut Vec<(usize, usize)>| {
        edges.push((a, b));
        edges.push((b, a));
    };

    for (ti, t) in built.transistors.iter().enumerate() {
        let kind = if t.is_pfet {
            CellNodeKind::PFet
        } else {
            CellNodeKind::NFet
        };
        let fet = push_node(
            format!("T{ti}:{}", t.name),
            kind,
            &mut labels,
            &mut kinds,
            &mut index,
        );
        for net in [&t.gate, &t.drain, &t.source] {
            let net_kind = match net.as_str() {
                "VDD" => CellNodeKind::Vdd,
                "VSS" => CellNodeKind::Vss,
                n if cell.inputs.contains(&n) => CellNodeKind::Input,
                _ => CellNodeKind::Output,
            };
            let ni = push_node(net.clone(), net_kind, &mut labels, &mut kinds, &mut index);
            add_edge(fet, ni, &mut edges);
        }
    }

    // Feature assembly per Table III.
    let mut features = vec![0.0; labels.len() * FEATURE_DIM];
    for i in 0..labels.len() {
        let row = &mut features[i * FEATURE_DIM..(i + 1) * FEATURE_DIM];
        let label = &labels[i];
        match kinds[i] {
            CellNodeKind::Vdd => {
                row[0] = 1.0;
                row[4] = built.card.vdd;
            }
            CellNodeKind::Vss => {
                row[0] = 1.0;
                row[2] = 1.0;
            }
            CellNodeKind::Input => {
                row[2] = 1.0;
                row[8] = ctx.input_slew.get(label).copied().unwrap_or(0.0) * 1e9;
                row[10] = ctx.current_state.get(label).copied().unwrap_or(0.0);
                row[11] = ctx.next_state.get(label).copied().unwrap_or(0.0);
            }
            CellNodeKind::Output => {
                row[1] = 1.0;
                row[9] = ctx.output_load.get(label).copied().unwrap_or(0.0) * 1e15;
            }
            CellNodeKind::NFet | CellNodeKind::PFet => {
                let ti: usize = label[1..label.find(':').expect("T<i>: prefix")]
                    .parse()
                    .expect("transistor index");
                let t = &built.transistors[ti];
                row[1] = 1.0;
                row[2] = 1.0;
                row[3] = if t.is_pfet { 1.0 } else { -1.0 };
                row[5] = t.width * 1e6;
                row[6] = t.cox * 1e3;
                row[7] = t.vth;
            }
        }
    }

    CellGraph {
        features,
        kinds,
        labels,
        edges,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::library::{CellKind, CellType};
    use stco_compact::tech::TechnologyCard;
    use stco_tcad::materials::Technology;

    fn inv_graph() -> (BuiltCell, CellGraph) {
        let card = TechnologyCard::reference(Technology::Ltps);
        let cell = CellType::by_kind(CellKind::Inv);
        let built = cell.build(&card, 1.0);
        let g = encode_cell(
            &built,
            &EncodingContext::all_rising(&cell, 2.0e-9, 10.0e-15),
        );
        (built, g)
    }

    #[test]
    fn inverter_graph_structure() {
        let (_, g) = inv_graph();
        // VDD, VSS, A, 2 FETs, Y = 6 nodes.
        assert_eq!(g.num_nodes(), 6);
        // Each FET touches 3 nets → 6 undirected = 12 directed edges.
        assert_eq!(g.edges.len(), 12);
    }

    #[test]
    fn table3_vdd_vss_columns() {
        let (built, g) = inv_graph();
        let vdd_row = g.feature_row(0);
        assert_eq!(vdd_row[0], 1.0);
        assert_eq!(vdd_row[1], 0.0);
        assert_eq!(vdd_row[2], 0.0);
        assert_eq!(vdd_row[4], built.card.vdd);
        let vss_row = g.feature_row(1);
        assert_eq!(vss_row[0], 1.0);
        assert_eq!(vss_row[2], 1.0);
        assert_eq!(vss_row[4], 0.0);
    }

    #[test]
    fn table3_input_column_carries_task_features() {
        let (_, g) = inv_graph();
        let a = g
            .labels
            .iter()
            .position(|l| l == "A")
            .expect("input node exists");
        let row = g.feature_row(a);
        assert_eq!(row[2], 1.0, "bit2 = 1 for IN");
        assert_eq!(row[1], 0.0);
        assert!((row[8] - 2.0).abs() < 1e-12, "slew in ns");
        assert_eq!(row[10], 0.0, "current state");
        assert_eq!(row[11], 1.0, "next state");
    }

    #[test]
    fn table3_fet_columns() {
        let (built, g) = inv_graph();
        let nfet = g
            .kinds
            .iter()
            .position(|&k| k == CellNodeKind::NFet)
            .unwrap();
        let row = g.feature_row(nfet);
        assert_eq!(row[3], -1.0, "bit3 = −1 for N-FET");
        assert!(row[5] > 0.0, "width populated");
        assert!(row[6] > 0.0, "Cox populated");
        assert!((row[7] - built.card.nfet.vth).abs() < 1e-12);
        let pfet = g
            .kinds
            .iter()
            .position(|&k| k == CellNodeKind::PFet)
            .unwrap();
        assert_eq!(g.feature_row(pfet)[3], 1.0, "bit3 = +1 for P-FET");
    }

    #[test]
    fn output_node_carries_load() {
        let (_, g) = inv_graph();
        let y = g.labels.iter().position(|l| l == "Y").unwrap();
        let row = g.feature_row(y);
        assert_eq!(row[1], 1.0, "bit1 = 1 for OUT");
        assert!((row[9] - 10.0).abs() < 1e-12, "load in fF");
    }

    #[test]
    fn larger_cells_include_internal_nets_as_outputs() {
        let card = TechnologyCard::reference(Technology::Igzo);
        let built = CellType::by_kind(CellKind::And2).build(&card, 1.0);
        let g = encode_cell(&built, &EncodingContext::default());
        // AND2 = NAND2 stage + INV stage: internal net n1 appears.
        assert!(g.labels.iter().any(|l| l == "n1"));
        let n1 = g.labels.iter().position(|l| l == "n1").unwrap();
        assert_eq!(g.kinds[n1], CellNodeKind::Output);
    }

    #[test]
    fn feature_names_match_dim() {
        assert_eq!(FEATURE_NAMES.len(), FEATURE_DIM);
    }
}
