//! NLDM-style liberty views: characterization results condensed into the
//! lookup tables the system-level STA consumes.
//!
//! A [`LibCell`] carries worst-arc delay and output-slew tables over the
//! (input slew × output load) grid, pin capacitance, leakage, switching
//! energy and (for sequential cells) setup/hold/pulse-width constraints —
//! the same views a commercial `.lib` would provide.

use stco_compact::tech::TechnologyCard;
use stco_numerics::interp::Bilinear;

use crate::charac::{characterize, ArcSample, CellCharacterization, CharConfig};
use crate::library::{CellKind, CellType};
use crate::{CellsError, Result};

/// An NLDM delay/slew table pair over the characterization grid.
#[derive(Debug, Clone)]
pub struct TimingTable {
    delay: Bilinear,
    output_slew: Bilinear,
}

impl TimingTable {
    /// Builds a table pair directly from NLDM grids (used by surrogate-
    /// predicted libraries, which synthesize tables from GNN outputs).
    pub fn from_tables(delay: Bilinear, output_slew: Bilinear) -> Self {
        TimingTable { delay, output_slew }
    }

    /// Worst-case delay at the given input slew and output load.
    pub fn delay(&self, input_slew: f64, load: f64) -> f64 {
        self.delay.eval(input_slew, load).max(0.0)
    }

    /// Worst-case output slew at the given input slew and output load.
    pub fn output_slew(&self, input_slew: f64, load: f64) -> f64 {
        self.output_slew.eval(input_slew, load).max(1e-15)
    }
}

/// One characterized library cell.
#[derive(Debug, Clone)]
pub struct LibCell {
    /// Which cell.
    pub kind: CellKind,
    /// Library name.
    pub name: String,
    /// Layout area, m².
    pub area: f64,
    /// Maximum input-pin capacitance, F.
    pub input_capacitance: f64,
    /// Average leakage power, W.
    pub leakage_power: f64,
    /// Mean switching (flip) energy per output transition, J.
    pub switch_energy: f64,
    /// Worst-arc timing tables.
    pub timing: TimingTable,
    /// Minimum setup time (sequential), s.
    pub min_setup: Option<f64>,
    /// Minimum hold time (sequential), s.
    pub min_hold: Option<f64>,
    /// Minimum clock pulse width (sequential), s.
    pub min_pulse_width: Option<f64>,
}

/// A characterized library at one technology corner.
#[derive(Debug, Clone)]
pub struct Library {
    /// The card the library was characterized against.
    pub card: TechnologyCard,
    /// Characterized cells, in library order.
    pub cells: Vec<LibCell>,
}

impl Library {
    /// Characterizes a subset of cells (tests and scaled-down runs).
    ///
    /// Per-cell characterizations run on the [`stco_par`] pool
    /// (`STCO_THREADS`); cell order is preserved and the lowest-index
    /// failure is the one reported, so the result is identical to the
    /// serial loop at every thread count.
    ///
    /// # Errors
    ///
    /// Propagates the first characterization failure.
    pub fn characterize_subset(
        card: &TechnologyCard,
        config: &CharConfig,
        cells: &[CellType],
    ) -> Result<Library> {
        let _span = stco_obs::span!("cells.library_characterize_subset", num_cells = cells.len());
        let out = stco_par::try_par_map(stco_par::ParConfig::current(), cells, |cell| {
            let ch = characterize(cell, card, config)?;
            build_lib_cell(cell, card, config, &ch)
        })?;
        Ok(Library {
            card: card.clone(),
            cells: out,
        })
    }

    /// Looks up a cell by kind.
    pub fn cell(&self, kind: CellKind) -> Option<&LibCell> {
        self.cells.iter().find(|c| c.kind == kind)
    }
}

fn build_lib_cell(
    cell: &CellType,
    card: &TechnologyCard,
    config: &CharConfig,
    ch: &CellCharacterization,
) -> Result<LibCell> {
    let built = cell.build(card, 1.0);
    let delay = worst_arc_table(&ch.delay, &config.slews, &config.loads)?;
    let slew = worst_arc_table(&ch.output_slew, &config.slews, &config.loads)?;
    let switch_energy = if ch.flip_power.is_empty() {
        0.0
    } else {
        ch.flip_power.iter().map(|s| s.value).sum::<f64>() / ch.flip_power.len() as f64
    };
    Ok(LibCell {
        kind: cell.kind,
        name: cell.name.to_string(),
        area: built.area(),
        input_capacitance: ch.capacitance,
        leakage_power: ch.leakage_power,
        switch_energy,
        timing: TimingTable {
            delay,
            output_slew: slew,
        },
        min_setup: ch.min_setup,
        min_hold: ch.min_hold,
        min_pulse_width: ch.min_pulse_width,
    })
}

/// Builds a worst-over-arcs Bilinear table on the characterization grid,
/// each axis expanded by [`expand_axis`].
fn worst_arc_table(samples: &[ArcSample], slews: &[f64], loads: &[f64]) -> Result<Bilinear> {
    let (slews, loads) = (expand_axis(slews), expand_axis(loads));
    let mut values = Vec::with_capacity(slews.len() * loads.len());
    for &s in &slews {
        for &l in &loads {
            values.push(worst_at(samples, s, l)?);
        }
    }
    Bilinear::new(slews, loads, values).map_err(CellsError::from)
}

/// The axis an NLDM table tabulates for one characterization axis: two
/// or more points stay as they are, and a single point `v` becomes
/// `[v, 2v]`, so bilinear interpolation has a cell to span. Measured and
/// predicted libraries both tabulate on the axes this returns.
///
/// # Panics
///
/// Panics if `axis` is empty.
pub fn expand_axis(axis: &[f64]) -> Vec<f64> {
    if axis.len() >= 2 {
        axis.to_vec()
    } else {
        let v = axis[0];
        vec![v, v * 2.0]
    }
}

fn worst_at(samples: &[ArcSample], slew: f64, load: f64) -> Result<f64> {
    let rel = |a: f64, b: f64| (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1e-30);
    let worst = samples
        .iter()
        .filter(|s| {
            (rel(s.slew, slew) && rel(s.load, load))
                // Degenerate-axis replication point: reuse the base sample.
                || (rel(s.slew, slew / 2.0) && rel(s.load, load))
                || (rel(s.slew, slew) && rel(s.load, load / 2.0))
                || (rel(s.slew, slew / 2.0) && rel(s.load, load / 2.0))
        })
        .map(|s| s.value)
        .fold(f64::NAN, f64::max);
    if worst.is_nan() {
        Err(CellsError::Characterization {
            context: format!("no arc sample at slew {slew:.3e}, load {load:.3e}"),
        })
    } else {
        Ok(worst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stco_tcad::materials::Technology;

    #[test]
    fn small_library_characterizes() {
        let card = TechnologyCard::reference(Technology::Ltps);
        let cells = [
            CellType::by_kind(CellKind::Inv),
            CellType::by_kind(CellKind::Nand2),
        ];
        // A 2×2 grid so the NLDM tables have real slope in both axes.
        let config = crate::charac::CharConfig {
            slews: vec![2.0e-9, 8.0e-9],
            loads: vec![5.0e-15, 20.0e-15],
            samples: 250,
            max_leakage_states: 4,
        };
        let lib = Library::characterize_subset(&card, &config, &cells).unwrap();
        assert_eq!(lib.cells.len(), 2);
        let inv = lib.cell(CellKind::Inv).unwrap();
        assert!(inv.area > 0.0);
        assert!(inv.input_capacitance > 0.0);
        let d = inv.timing.delay(2.0e-9, 10.0e-15);
        assert!(d > 0.0 && d < 1.0, "delay {d:.3e}");
        // Extrapolated query still behaves.
        let d_big = inv.timing.delay(2.0e-9, 80.0e-15);
        assert!(d_big > d, "delay grows with load");
    }

    #[test]
    fn missing_cell_lookup_is_none() {
        let card = TechnologyCard::reference(Technology::Ltps);
        let cells = [CellType::by_kind(CellKind::Inv)];
        let lib = Library::characterize_subset(&card, &CharConfig::fast(), &cells).unwrap();
        assert!(lib.cell(CellKind::Nand4).is_none());
    }
}
