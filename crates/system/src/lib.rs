//! The system-evaluation substrate: everything the paper delegates to
//! "commercial tools for logic synthesis, placement & routing, and
//! DRC & LVS checks", rebuilt from scratch so the STCO loop can measure
//! real, design-size-dependent system-evaluation runtimes.
//!
//! * [`netlist`] — technology-independent logic netlists plus a cycle
//!   simulator for switching-activity estimation.
//! * [`bench_gen`] — the paper's ten benchmarks: six ISCAS89-statistics-
//!   matched sequential circuits (s298…s1488), structural 16/32-bit MAC
//!   cores and two RISC-V-datapath-like cores.
//! * [`mapper`] — technology mapping onto the 35-cell `stco-cells`
//!   library (arity decomposition + 1:1 covering).
//! * [`sta`] — topological static timing analysis with NLDM table lookup
//!   and slew propagation.
//! * [`place`] — annealing placement on a row grid, HPWL wire loads, and
//!   DRC/LVS-style consistency checks.
//! * [`power`] — leakage plus activity-based dynamic power.
//! * [`ppa`] — the combined PPA report the RL agent optimizes.
//!
//! Stage timing and Table I's arithmetic are not here: `stco-core`'s
//! flow times each stage, and its `speedup` module composes the rows.

pub mod bench_gen;
pub mod mapper;
pub mod netlist;
pub mod place;
pub mod power;
pub mod ppa;
pub mod sta;

/// Errors from system evaluation.
#[derive(Debug, Clone, PartialEq)]
pub enum SystemError {
    /// The netlist is malformed (dangling nets, combinational loops…).
    BadNetlist {
        /// Human-readable description.
        context: String,
    },
    /// A required cell is missing from the characterized library.
    MissingCell {
        /// Cell name.
        cell: String,
    },
    /// An underlying cell-library failure.
    Cells(stco_cells::CellsError),
}

impl std::fmt::Display for SystemError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SystemError::BadNetlist { context } => write!(f, "bad netlist: {context}"),
            SystemError::MissingCell { cell } => write!(f, "cell {cell} not in library"),
            SystemError::Cells(e) => write!(f, "cell library failure: {e}"),
        }
    }
}

impl std::error::Error for SystemError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SystemError::Cells(e) => Some(e),
            _ => None,
        }
    }
}

impl From<stco_cells::CellsError> for SystemError {
    fn from(e: stco_cells::CellsError) -> Self {
        SystemError::Cells(e)
    }
}

/// Result alias for system-evaluation routines.
pub type Result<T> = std::result::Result<T, SystemError>;
