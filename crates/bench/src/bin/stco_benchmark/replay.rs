//! Replays of one STCO iteration's later stages through their public
//! calls, outside the timed iteration, to split a stage into layers. A
//! replay is checked against the iteration it replays bit for bit, so
//! its layer times describe the same work. Also the PPA fingerprint and
//! the cell encoding the workloads share.

use stco_cells::encode::{encode_cell, CellGraph, EncodingContext};
use stco_cells::liberty::Library;
use stco_cells::library::CellType;
use stco_compact::tech::{Corner, TechnologyCard};
use stco_system::mapper::map_netlist;
use stco_system::netlist::LogicNetlist;
use stco_system::place::{check_drc, check_lvs, place};
use stco_system::power::analyze_power;
use stco_system::ppa::{evaluate_system, total_area, EvalConfig, PpaReport};
use stco_system::sta::{analyze_timing, WireModel};
use stco_tcad::device::DeviceSpec;
use stco_tcad::materials::{Polarity, Technology};

use crate::trace::Trace;
use crate::BoxResult;

/// The at-corner card an iteration characterizes against, built from its
/// extracted `(μ0, V_th, γ)` the way `StcoFlow` does: the native-polarity
/// device takes them exactly, the complementary one scales its mobility.
pub fn card_from_extraction(
    technology: Technology,
    corner: Corner,
    (mu0, vth, gamma): (f64, f64, f64),
) -> TechnologyCard {
    let base = TechnologyCard::reference(technology);
    let mut card = base.at_corner(corner);
    match DeviceSpec::reference(technology).channel.polarity {
        Polarity::NType => {
            card.nfet.mu0 = mu0;
            card.nfet.vth = vth;
            card.nfet.gamma = gamma;
            card.pfet.mu0 *= mu0 / base.nfet.mu0;
        }
        Polarity::PType => {
            card.pfet.mu0 = mu0;
            card.pfet.vth = vth;
            card.pfet.gamma = gamma;
            card.nfet.mu0 *= mu0 / base.pfet.mu0;
        }
    }
    card
}

/// Seconds of one system-evaluation replay: the whole `evaluate_system`
/// call, then each of its layers on the same inputs.
#[derive(Debug, Clone, Copy)]
pub struct SystemLayers {
    pub whole: f64,
    pub map: f64,
    pub place: f64,
    pub verify: f64,
    pub sta: f64,
    pub power: f64,
}

/// Times `evaluate_system`, then replays it layer by layer under
/// `parent`: mapping, placement, DRC/LVS, STA with placed wire loads,
/// activity simulation plus power. Returns both reports.
pub fn replay_system(
    trace: &mut Trace,
    parent: usize,
    logic: &LogicNetlist,
    library: &Library,
    config: &EvalConfig,
) -> BoxResult<([PpaReport; 2], SystemLayers)> {
    let (whole_ppa, whole) = trace.timed("evaluate_system", Some(parent), || {
        evaluate_system(logic, library, config)
    });
    let layers = trace.begin("system_layers", Some(parent));
    let (mapped, map) = trace.timed("system.map", Some(layers), || map_netlist(logic));
    let mapped = mapped?;
    let (placement, place_s) = trace.timed("system.place", Some(layers), || {
        place(&mapped, &config.place)
    });
    let placement = placement?;
    let (checked, verify) = trace.timed("system.verify", Some(layers), || -> BoxResult<()> {
        check_drc(&placement)?;
        check_lvs(&mapped, &placement, library)?;
        Ok(())
    });
    checked?;
    let wires = WireModel::PerNet(placement.net_caps.clone());
    let (timing, sta) = trace.timed("system.sta", Some(layers), || {
        analyze_timing(&mapped, library, &wires)
    });
    let timing = timing?;
    let (power, power_s) = trace.timed("system.power", Some(layers), || -> BoxResult<_> {
        let activity =
            logic.simulate_activity(config.activity_cycles.max(10), config.activity_seed)?;
        Ok(analyze_power(
            &mapped,
            library,
            &wires,
            &activity,
            timing.max_frequency,
        )?)
    });
    let layered = PpaReport {
        name: logic.name.clone(),
        gate_count: mapped.instances.len(),
        area: total_area(&mapped, library)?,
        wirelength: placement.total_hpwl,
        power: power?,
        timing,
    };
    trace.end(layers);
    let seconds = SystemLayers {
        whole,
        map,
        place: place_s,
        verify,
        sta,
        power: power_s,
    };
    Ok(([whole_ppa?, layered], seconds))
}

/// Every value of a PPA report as bytes (floats by their bits), for
/// bitwise comparison and fingerprints.
pub fn ppa_bytes(ppa: &PpaReport) -> Vec<u8> {
    let mut out = Vec::with_capacity(64 + 8 * ppa.timing.arrival.len());
    out.extend_from_slice(ppa.name.as_bytes());
    out.extend_from_slice(&(ppa.gate_count as u64).to_le_bytes());
    let t = &ppa.timing;
    out.extend_from_slice(&(t.critical_path.0 as u64).to_le_bytes());
    out.extend_from_slice(&(t.critical_path.1 as u64).to_le_bytes());
    let p = &ppa.power;
    let scalars = [
        t.critical_path_delay,
        t.min_clock_period,
        t.max_frequency,
        p.leakage,
        p.dynamic,
        p.frequency,
        ppa.area,
        ppa.wirelength,
    ];
    for v in scalars.iter().chain(&t.arrival) {
        out.extend_from_slice(&v.to_bits().to_le_bytes());
    }
    out
}

/// The Table III graph of `cell` on `card` with every input rising
/// (slew 2 ns) and `load` on every output.
pub fn cell_graph(cell: &CellType, card: &TechnologyCard, load: f64) -> CellGraph {
    let built = cell.build(card, 1.0);
    let mut ctx = EncodingContext::default();
    for pin in &cell.inputs {
        ctx.input_slew.insert((*pin).to_string(), 2.0e-9);
        ctx.current_state.insert((*pin).to_string(), 0.0);
        ctx.next_state.insert((*pin).to_string(), 1.0);
    }
    for pin in &cell.outputs {
        ctx.output_load.insert((*pin).to_string(), load);
    }
    encode_cell(&built, &ctx)
}

/// True when a report's headline values are finite and positive.
pub fn ppa_is_sane(ppa: &PpaReport) -> bool {
    [ppa.timing.min_clock_period, ppa.power.total(), ppa.area]
        .iter()
        .all(|v| v.is_finite() && *v > 0.0)
}
