//! The end-to-end system evaluation: synthesis (mapping) → placement →
//! STA → power → the PPA report the STCO agent optimizes.

use stco_cells::liberty::Library;

use crate::mapper::{map_netlist, MappedNetlist};
use crate::netlist::LogicNetlist;
use crate::place::{check_drc, check_lvs, place, PlaceConfig};
use crate::power::{analyze_power, PowerReport};
use crate::sta::{analyze_timing, TimingReport, WireModel};
use crate::Result;

/// Combined power/performance/area result of one system evaluation.
#[derive(Debug, Clone)]
pub struct PpaReport {
    /// Design name.
    pub name: String,
    /// Mapped instance count.
    pub gate_count: usize,
    /// Timing results.
    pub timing: TimingReport,
    /// Power results (evaluated at the max operating frequency).
    pub power: PowerReport,
    /// Total cell area, m².
    pub area: f64,
    /// Total wirelength, m.
    pub wirelength: f64,
}

impl PpaReport {
    /// The scalar cost the RL agent minimizes: delay · power · area,
    /// geometric-mean style (log-sum), so no term dominates by units.
    pub fn cost(&self) -> f64 {
        let d = self.timing.min_clock_period.max(1e-12);
        let p = self.power.total().max(1e-15);
        let a = self.area.max(1e-15);
        (d.ln() + p.ln() + a.ln()) / 3.0
    }
}

/// Options for a full system evaluation.
#[derive(Debug, Clone, Default)]
pub struct EvalConfig {
    /// Placement settings (default if `None`-like default).
    pub place: PlaceConfig,
    /// Activity-simulation cycles.
    pub activity_cycles: usize,
    /// Activity seed.
    pub activity_seed: u64,
}

impl EvalConfig {
    /// A fast configuration for tests: fewer anneal moves and cycles.
    pub fn fast() -> Self {
        EvalConfig {
            place: PlaceConfig {
                moves_per_instance: 5,
                ..PlaceConfig::default()
            },
            activity_cycles: 100,
            activity_seed: 7,
        }
    }
}

/// Runs the full flow on a logic netlist with a characterized library.
///
/// Stages mirror the paper's "commercial tools" pipeline: technology
/// mapping (synthesis), annealing placement with DRC/LVS checks (P&R),
/// STA with placed wire loads, and activity-based power analysis.
///
/// # Errors
///
/// Propagates failures from any stage.
pub fn evaluate_system(
    logic: &LogicNetlist,
    library: &Library,
    config: &EvalConfig,
) -> Result<PpaReport> {
    let _span = stco_obs::span!("system.evaluate", benchmark = logic.name.as_str());
    let mapped = {
        let _s = stco_obs::span!("system.map");
        map_netlist(logic)?
    };
    let placement = {
        let _s = stco_obs::span!("system.place");
        place(&mapped, &config.place)?
    };
    {
        let _s = stco_obs::span!("system.verify");
        check_drc(&placement)?;
        check_lvs(&mapped, &placement, library)?;
    }
    let wires = WireModel::PerNet(placement.net_caps.clone());
    let timing = {
        let _s = stco_obs::span!("system.sta");
        analyze_timing(&mapped, library, &wires)?
    };
    let cycles = config.activity_cycles.max(10);
    let power = {
        let _s = stco_obs::span!("system.power");
        let activity = logic.simulate_activity(cycles, config.activity_seed)?;
        analyze_power(&mapped, library, &wires, &activity, timing.max_frequency)?
    };
    let area = total_area(&mapped, library)?;
    Ok(PpaReport {
        name: logic.name.clone(),
        gate_count: mapped.instances.len(),
        timing,
        power,
        area,
        wirelength: placement.total_hpwl,
    })
}

/// Total standard-cell area of a mapped netlist.
///
/// # Errors
///
/// Returns [`crate::SystemError::MissingCell`] for uncharacterized cells.
pub fn total_area(netlist: &MappedNetlist, library: &Library) -> Result<f64> {
    let mut area = 0.0;
    for inst in &netlist.instances {
        let cell = library
            .cell(inst.kind)
            .ok_or_else(|| crate::SystemError::MissingCell {
                cell: format!("{:?}", inst.kind),
            })?;
        area += cell.area;
    }
    Ok(area)
}

/// The library cells a netlist needs (deduplicated); lets callers
/// characterize only what a benchmark uses.
pub fn used_cells(netlist: &MappedNetlist) -> Vec<stco_cells::library::CellKind> {
    let mut kinds: Vec<_> = netlist.instances.iter().map(|i| i.kind).collect();
    kinds.sort_unstable();
    kinds.dedup();
    kinds
}

/// Maps a logic netlist and returns the [`stco_cells::library::CellType`]s
/// it uses — the subset a flow must characterize.
///
/// # Errors
///
/// Propagates mapping failures.
pub fn map_netlist_cells(logic: &LogicNetlist) -> Result<Vec<stco_cells::library::CellType>> {
    let mapped = map_netlist(logic)?;
    Ok(used_cells(&mapped)
        .into_iter()
        .map(stco_cells::library::CellType::by_kind)
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bench_gen::Benchmark;
    use stco_cells::charac::CharConfig;
    use stco_cells::library::CellType;
    use stco_compact::tech::TechnologyCard;
    use stco_tcad::materials::Technology;

    /// Characterize exactly the cells s298 uses (fast but complete).
    fn library_for(bench: Benchmark) -> (LogicNetlist, Library) {
        let logic = bench.generate();
        let mapped = map_netlist(&logic).unwrap();
        let kinds = used_cells(&mapped);
        let cells: Vec<CellType> = kinds.into_iter().map(CellType::by_kind).collect();
        let card = TechnologyCard::reference(Technology::Ltps);
        let config = CharConfig {
            slews: vec![2.0e-9, 8.0e-9],
            loads: vec![5.0e-15, 20.0e-15],
            samples: 200,
            max_leakage_states: 2,
        };
        let lib = Library::characterize_subset(&card, &config, &cells).unwrap();
        (logic, lib)
    }

    #[test]
    fn s298_evaluates_end_to_end() {
        let (logic, lib) = library_for(Benchmark::S298);
        let report = evaluate_system(&logic, &lib, &EvalConfig::fast()).unwrap();
        assert!(report.timing.critical_path_delay > 0.0);
        assert!(report.timing.max_frequency > 0.0);
        assert!(report.power.total() > 0.0);
        assert!(report.area > 0.0);
        assert!(report.wirelength > 0.0);
        assert!(report.gate_count >= 119, "mapped count ≥ logic gates");
        assert!(report.cost().is_finite());
    }

    #[test]
    fn evaluation_is_deterministic() {
        let (logic, lib) = library_for(Benchmark::S298);
        let a = evaluate_system(&logic, &lib, &EvalConfig::fast()).unwrap();
        let b = evaluate_system(&logic, &lib, &EvalConfig::fast()).unwrap();
        assert_eq!(a.timing.critical_path_delay, b.timing.critical_path_delay);
        assert_eq!(a.power.total(), b.power.total());
        assert_eq!(a.area, b.area);
    }
}
