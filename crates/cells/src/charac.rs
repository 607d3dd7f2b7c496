//! The nine-metric cell characterization engine.
//!
//! For every cell and corner this module measures, by transistor-level
//! simulation, the nine quantities of the paper's Table IV:
//!
//! 1. **delay** — input-50 % to output-50 % arc delay over a slew × load
//!    grid;
//! 2. **output slew** — 20–80 % output transition time on the same grid;
//! 3. **capacitance** — maximum input-pin capacitance;
//! 4. **flip power** — switching energy when input *and* output toggle;
//! 5. **non-flip power** — energy when inputs toggle but the output holds;
//! 6. **leakage power** — average static V_DD·I_DD over input states;
//! 7. **minimum pulse width** — narrowest clock/enable pulse a sequential
//!    cell still captures (sequential only);
//! 8. **minimum setup** — smallest D-before-clock margin that captures;
//! 9. **minimum hold** — smallest D-stable-after-clock margin.
//!
//! Delay/slew/power use single transients with PWL stimuli; setup, hold
//! and pulse width use bisection over pass/fail transients
//! ([`stco_numerics::nonlinear::bisect_threshold`]).

use std::collections::BTreeMap;

use stco_compact::tech::TechnologyCard;
use stco_numerics::nonlinear::bisect_threshold;
use stco_spice::analysis::{TranConfig, TranResult};
use stco_spice::netlist::{Circuit, NodeId, Waveform};
use stco_spice::wave::{crossing_time, supply_energy, transition_time, Edge};

use crate::library::{BuiltCell, CellType, SeqBehavior};
use crate::{CellsError, Result};

/// Characterization grid and solver settings.
#[derive(Debug, Clone)]
pub struct CharConfig {
    /// Input slews (20–80 % ramp time), s.
    pub slews: Vec<f64>,
    /// Output load capacitances, F.
    pub loads: Vec<f64>,
    /// Transient samples per simulation window.
    pub samples: usize,
    /// Maximum input states sampled for leakage (2ⁿ capped here).
    pub max_leakage_states: usize,
}

impl Default for CharConfig {
    fn default() -> Self {
        CharConfig {
            slews: vec![1.0e-9, 4.0e-9, 16.0e-9],
            loads: vec![2.0e-15, 10.0e-15, 40.0e-15],
            samples: 400,
            max_leakage_states: 8,
        }
    }
}

impl CharConfig {
    /// A minimal 1×1 grid for fast tests.
    pub fn fast() -> Self {
        CharConfig {
            slews: vec![2.0e-9],
            loads: vec![10.0e-15],
            samples: 250,
            max_leakage_states: 4,
        }
    }
}

/// One timing/power sample of an arc.
#[derive(Debug, Clone, PartialEq)]
pub struct ArcSample {
    /// The switching input pin.
    pub pin: String,
    /// Whether the *input* transition is rising.
    pub input_rising: bool,
    /// Input slew of the sample, s.
    pub slew: f64,
    /// Output load of the sample, F.
    pub load: f64,
    /// Measured value (s for timing, J for energy).
    pub value: f64,
}

/// The nine metrics of one (cell, corner) pair.
#[derive(Debug, Clone)]
pub struct CellCharacterization {
    /// Cell name.
    pub cell: String,
    /// Arc delays over the grid.
    pub delay: Vec<ArcSample>,
    /// Output slews over the grid.
    pub output_slew: Vec<ArcSample>,
    /// Maximum input capacitance, F.
    pub capacitance: f64,
    /// Flip (output-switching) energies, J.
    pub flip_power: Vec<ArcSample>,
    /// Non-flip (output-holding) energies, J.
    pub nonflip_power: Vec<ArcSample>,
    /// Average leakage power, W.
    pub leakage_power: f64,
    /// Minimum setup time, s (sequential cells only).
    pub min_setup: Option<f64>,
    /// Minimum hold time, s (sequential cells only).
    pub min_hold: Option<f64>,
    /// Minimum clock/enable pulse width, s (sequential cells only).
    pub min_pulse_width: Option<f64>,
}

impl CellCharacterization {
    /// Flattens every metric into `(metric_name, value)` rows — the
    /// dataset records the GCN surrogate trains on.
    pub fn flatten(&self) -> Vec<(&'static str, f64)> {
        let mut rows = Vec::new();
        for s in &self.delay {
            rows.push(("delay", s.value));
        }
        for s in &self.output_slew {
            rows.push(("output_slew", s.value));
        }
        rows.push(("capacitance", self.capacitance));
        for s in &self.flip_power {
            rows.push(("flip_power", s.value));
        }
        for s in &self.nonflip_power {
            rows.push(("nonflip_power", s.value));
        }
        rows.push(("leakage_power", self.leakage_power));
        if let Some(v) = self.min_setup {
            rows.push(("min_setup", v));
        }
        if let Some(v) = self.min_hold {
            rows.push(("min_hold", v));
        }
        if let Some(v) = self.min_pulse_width {
            rows.push(("min_pulse_width", v));
        }
        // These rows become surrogate training labels; one NaN metric
        // here would silently poison the GCN dataset.
        for (name, value) in &rows {
            stco_numerics::debug_assert_finite!(*name, *value);
        }
        rows
    }
}

/// Characterizes one cell at one technology card (already at-corner).
///
/// # Errors
///
/// Returns [`CellsError::Characterization`] for an empty slew or load
/// axis, before any simulation runs; propagates SPICE failures; returns
/// [`CellsError::NoSensitization`] if a combinational cell has an input
/// that cannot toggle its output.
pub fn characterize(
    cell: &CellType,
    card: &TechnologyCard,
    config: &CharConfig,
) -> Result<CellCharacterization> {
    let _span = stco_obs::span!("cells.characterize", cell = cell.name);
    for (name, axis) in [("slew", &config.slews), ("load", &config.loads)] {
        if axis.is_empty() {
            return Err(CellsError::Characterization {
                context: format!("{name} axis is empty"),
            });
        }
    }
    let built = cell.build(card, 1.0);
    let capacitance = built.max_input_capacitance();
    let leakage_power = {
        let _leak = stco_obs::span!("cells.leakage");
        measure_leakage(&built, config)?
    };

    let mut delay = Vec::new();
    let mut output_slew = Vec::new();
    let mut flip_power = Vec::new();
    let mut nonflip_power = Vec::new();
    let mut min_setup = None;
    let mut min_hold = None;
    let mut min_pulse_width = None;

    match cell.seq {
        SeqBehavior::Combinational => {
            let _arcs = stco_obs::span!("cells.comb_arcs");
            for pin_idx in 0..cell.inputs.len() {
                let Some(sens) = find_sensitization(cell, pin_idx) else {
                    return Err(CellsError::NoSensitization {
                        cell: cell.name.to_string(),
                        pin: cell.inputs[pin_idx].to_string(),
                    });
                };
                for &slew in &config.slews {
                    for &load in &config.loads {
                        let m = measure_comb_arc(&built, pin_idx, &sens, slew, load, config)?;
                        delay.extend(m.delay);
                        output_slew.extend(m.output_slew);
                        flip_power.extend(m.flip_energy);
                    }
                }
                // Non-flip arc: a state where toggling this pin leaves the
                // output unchanged (exists for most multi-input gates).
                if let Some(nonsens) = find_non_sensitization(cell, pin_idx) {
                    let slew = config.slews[config.slews.len() / 2];
                    let load = config.loads[config.loads.len() / 2];
                    let e = measure_nonflip_energy(&built, pin_idx, &nonsens, slew, load, config)?;
                    nonflip_power.push(ArcSample {
                        pin: cell.inputs[pin_idx].to_string(),
                        input_rising: true,
                        slew,
                        load,
                        value: e,
                    });
                }
            }
        }
        SeqBehavior::Latch { enable_high }
        | SeqBehavior::FlipFlop {
            negedge: enable_high,
            ..
        } => {
            // `enable_high` doubles as `negedge` in the FF arm purely for
            // binding convenience; the helpers re-read cell.seq.
            let _ = enable_high;
            let mut memo = TranMemo::default();
            {
                let _arcs = stco_obs::span!("cells.seq_arcs");
                for &slew in &config.slews {
                    for &load in &config.loads {
                        let m = measure_clock_to_q(&built, slew, load, config, &mut memo)?;
                        delay.extend(m.delay);
                        output_slew.extend(m.output_slew);
                        flip_power.extend(m.flip_energy);
                    }
                }
            }
            let _constraints = stco_obs::span!("cells.seq_constraints");
            let slew = config.slews[config.slews.len() / 2];
            let load = config.loads[config.loads.len() / 2];
            min_pulse_width = Some(measure_min_pulse_width(
                &built, slew, load, config, &mut memo,
            )?);
            if matches!(cell.seq, SeqBehavior::FlipFlop { .. }) {
                min_setup = Some(measure_min_setup(&built, slew, load, config, &mut memo)?);
                min_hold = Some(measure_min_hold(&built, slew, load, config, &mut memo)?);
            }
        }
    }

    Ok(CellCharacterization {
        cell: cell.name.to_string(),
        delay,
        output_slew,
        capacitance,
        flip_power,
        nonflip_power,
        leakage_power,
        min_setup,
        min_hold,
        min_pulse_width,
    })
}

/// Finds static values for the other inputs so that toggling `pin`
/// toggles the first output whose value changes.
///
/// Returns the assignment (full-length; the toggled pin's slot is the
/// initial value) and the index of the affected output.
fn find_sensitization(cell: &CellType, pin: usize) -> Option<(Vec<bool>, usize)> {
    let n = cell.inputs.len();
    for mask in 0..(1usize << (n - 1)) {
        let mut assign = vec![false; n];
        let mut bit = 0;
        for (i, a) in assign.iter_mut().enumerate() {
            if i != pin {
                *a = (mask >> bit) & 1 == 1;
                bit += 1;
            }
        }
        let mut lo = assign.clone();
        lo[pin] = false;
        let mut hi = assign.clone();
        hi[pin] = true;
        let out_lo = cell.eval_comb(&lo);
        let out_hi = cell.eval_comb(&hi);
        if let Some(oi) = out_lo.iter().zip(&out_hi).position(|(a, b)| a != b) {
            return Some((assign, oi));
        }
    }
    None
}

/// Finds an assignment where toggling `pin` leaves every output unchanged.
fn find_non_sensitization(cell: &CellType, pin: usize) -> Option<(Vec<bool>, usize)> {
    let n = cell.inputs.len();
    for mask in 0..(1usize << (n - 1)) {
        let mut assign = vec![false; n];
        let mut bit = 0;
        for (i, a) in assign.iter_mut().enumerate() {
            if i != pin {
                *a = (mask >> bit) & 1 == 1;
                bit += 1;
            }
        }
        let mut lo = assign.clone();
        lo[pin] = false;
        let mut hi = assign.clone();
        hi[pin] = true;
        if cell.eval_comb(&lo) == cell.eval_comb(&hi) {
            return Some((assign, 0));
        }
    }
    None
}

/// Stimulus circuit: the built cell plus V_DD, input sources and a load.
struct Bench {
    ckt: Circuit,
    out_node: NodeId,
    vdd_branch: usize,
    vdd: f64,
}

fn make_bench(
    built: &BuiltCell,
    stimuli: &BTreeMap<&str, Waveform>,
    output: &str,
    load: f64,
) -> Result<Bench> {
    let mut ckt = built.circuit.clone();
    let vdd = built.card.vdd;
    let vdd_node = built.signal_node["VDD"];
    ckt.add_vsource("VDDS", vdd_node, Circuit::GROUND, Waveform::Dc(vdd));
    for pin in &built.cell.inputs {
        let node = built.signal_node[*pin];
        let wave =
            stimuli
                .get(pin as &str)
                .cloned()
                .ok_or_else(|| CellsError::Characterization {
                    context: format!("pin {pin} has no stimulus"),
                })?;
        ckt.add_vsource(&format!("V_{pin}"), node, Circuit::GROUND, wave);
    }
    let out_node = *built
        .signal_node
        .get(output)
        .ok_or_else(|| CellsError::Characterization {
            context: format!("unknown output {output}"),
        })?;
    if load > 0.0 {
        ckt.add_capacitor("CL", out_node, Circuit::GROUND, load);
    }
    let vdd_branch = ckt.vsource_branch("VDDS")?;
    Ok(Bench {
        ckt,
        out_node,
        vdd_branch,
        vdd,
    })
}

/// Characteristic RC time of the cell's unit drive into `load` — sets the
/// simulation windows so one engine covers all technologies.
fn intrinsic_tau(built: &BuiltCell, load: f64) -> f64 {
    let vdd = built.card.vdd;
    let ion = built.card.nfet.on_current(vdd).max(1e-15);
    let r_on = vdd / ion;
    r_on * (load + built.max_input_capacitance())
}

struct ArcMeasurement {
    delay: Vec<ArcSample>,
    output_slew: Vec<ArcSample>,
    flip_energy: Vec<ArcSample>,
}

/// Measures rise+fall delay/slew/energy of one combinational arc with a
/// single transient containing both input edges.
fn measure_comb_arc(
    built: &BuiltCell,
    pin_idx: usize,
    sens: &(Vec<bool>, usize),
    slew: f64,
    load: f64,
    config: &CharConfig,
) -> Result<ArcMeasurement> {
    let cell = &built.cell;
    let pin = cell.inputs[pin_idx];
    let output = cell.outputs[sens.1];
    let vdd = built.card.vdd;
    let tau = intrinsic_tau(built, load);
    let settle = (12.0 * tau + 6.0 * slew).max(20.0 * slew);
    let t_rise = settle; // input rises here
    let t_fall = 2.0 * settle; // and falls here
    let t_stop = 3.0 * settle;

    let mut stimuli = BTreeMap::new();
    for (i, p) in cell.inputs.iter().enumerate() {
        if i == pin_idx {
            stimuli.insert(
                *p,
                Waveform::Pwl(vec![
                    (0.0, 0.0),
                    (t_rise, 0.0),
                    (t_rise + slew, vdd),
                    (t_fall, vdd),
                    (t_fall + slew, 0.0),
                ]),
            );
        } else {
            stimuli.insert(*p, Waveform::Dc(if sens.0[i] { vdd } else { 0.0 }));
        }
    }
    let bench = make_bench(built, &stimuli, output, load)?;
    let tr = bench.ckt.transient(&TranConfig {
        t_stop,
        dt: t_stop / config.samples as f64,
    })?;
    let out = tr.voltage_trace(bench.out_node);
    let times = tr.times();
    let half = 0.5 * vdd;

    // Output polarity for a rising input.
    let out_rises_with_input = {
        let mut lo = sens.0.clone();
        lo[pin_idx] = false;
        let mut hi = sens.0.clone();
        hi[pin_idx] = true;
        !cell.eval_comb(&lo)[sens.1] && cell.eval_comb(&hi)[sens.1]
    };

    let mut samples = ArcMeasurement {
        delay: Vec::new(),
        output_slew: Vec::new(),
        flip_energy: Vec::new(),
    };
    for (input_rising, t_edge) in [(true, t_rise), (false, t_fall)] {
        let in_cross = t_edge + 0.5 * slew;
        let out_edge = if input_rising == out_rises_with_input {
            Edge::Rising
        } else {
            Edge::Falling
        };
        let out_cross = crossing_time(times, &out, half, out_edge, t_edge).map_err(|_| {
            CellsError::Characterization {
                context: format!(
                    "{}: output {output} did not switch for {pin} edge",
                    cell.name
                ),
            }
        })?;
        let d = out_cross - in_cross;
        samples.delay.push(ArcSample {
            pin: pin.to_string(),
            input_rising,
            slew,
            load,
            value: d.max(1e-15),
        });
        let sl = transition_time(times, &out, 0.0, vdd, 0.2, 0.8, out_edge, t_edge).unwrap_or(slew);
        samples.output_slew.push(ArcSample {
            pin: pin.to_string(),
            input_rising,
            slew,
            load,
            value: sl,
        });
    }
    // Flip energy: the supply delivers charge mainly while the output
    // rises, so per-edge windows are lopsided (a falling edge alone draws
    // almost nothing). Characterize the full rise+fall cycle and report
    // the average energy per output transition on both samples.
    let (e_cycle, leak_e) = windowed_energy(
        times,
        &tr.branch_current_trace(bench.vdd_branch),
        bench.vdd,
        t_rise,
        t_stop,
    );
    let per_edge = ((e_cycle - leak_e) * 0.5).max(1e-21);
    for input_rising in [true, false] {
        samples.flip_energy.push(ArcSample {
            pin: pin.to_string(),
            input_rising,
            slew,
            load,
            value: per_edge,
        });
    }
    Ok(samples)
}

/// Supply energy in `[t0, t1]` plus a leakage estimate extrapolated from
/// the pre-transition quiescent current.
fn windowed_energy(times: &[f64], branch: &[f64], vdd: f64, t0: f64, t1: f64) -> (f64, f64) {
    let mut wt = Vec::new();
    let mut wi = Vec::new();
    for (t, i) in times.iter().zip(branch) {
        if *t >= t0 && *t <= t1 {
            wt.push(*t);
            wi.push(*i);
        }
    }
    if wt.len() < 2 {
        return (0.0, 0.0);
    }
    let e = supply_energy(&wt, &wi, vdd);
    // Quiescent current just before the window.
    let idx = times.iter().position(|&t| t >= t0).unwrap_or(0).max(1) - 1;
    let leak_i = -branch[idx];
    let leak_e = vdd * leak_i * (t1 - t0);
    (e, leak_e)
}

/// Energy drawn when an input toggles but the output holds.
fn measure_nonflip_energy(
    built: &BuiltCell,
    pin_idx: usize,
    nonsens: &(Vec<bool>, usize),
    slew: f64,
    load: f64,
    config: &CharConfig,
) -> Result<f64> {
    let cell = &built.cell;
    let vdd = built.card.vdd;
    let tau = intrinsic_tau(built, load);
    let settle = (12.0 * tau + 6.0 * slew).max(20.0 * slew);
    let t_edge = settle;
    let t_stop = 2.0 * settle;
    let mut stimuli = BTreeMap::new();
    for (i, p) in cell.inputs.iter().enumerate() {
        if i == pin_idx {
            stimuli.insert(
                *p,
                Waveform::Pwl(vec![(0.0, 0.0), (t_edge, 0.0), (t_edge + slew, vdd)]),
            );
        } else {
            stimuli.insert(*p, Waveform::Dc(if nonsens.0[i] { vdd } else { 0.0 }));
        }
    }
    let bench = make_bench(built, &stimuli, cell.outputs[0], load)?;
    let tr = bench.ckt.transient(&TranConfig {
        t_stop,
        dt: t_stop / config.samples as f64,
    })?;
    let (e, leak) = windowed_energy(
        tr.times(),
        &tr.branch_current_trace(bench.vdd_branch),
        bench.vdd,
        t_edge,
        t_stop,
    );
    Ok((e - leak).max(1e-21))
}

/// Average static leakage power over sampled input states.
///
/// The simulator ties every node to ground through `GMIN` for
/// convergence; that artificial network draws orders of magnitude more
/// current than an off TFT, so its power (`Σ GMIN·v²` over the nodes) is
/// subtracted from the supply reading to recover the device leakage.
fn measure_leakage(built: &BuiltCell, config: &CharConfig) -> Result<f64> {
    if built.cell.is_sequential() {
        return measure_leakage_sequential(built, config);
    }
    let cell = &built.cell;
    let vdd = built.card.vdd;
    let n = cell.inputs.len();
    let total_states = 1usize << n.min(10);
    let step = (total_states / config.max_leakage_states.max(1)).max(1);
    let mut total = 0.0;
    let mut count = 0;
    for state in (0..total_states).step_by(step) {
        let mut stimuli = BTreeMap::new();
        for (i, p) in cell.inputs.iter().enumerate() {
            let v = if (state >> i) & 1 == 1 { vdd } else { 0.0 };
            stimuli.insert(*p, Waveform::Dc(v));
        }
        let bench = make_bench(built, &stimuli, cell.outputs[0], 0.0)?;
        let dc = bench.ckt.dc_operating_point()?;
        let supply_power = -vdd * dc.branch_current(bench.vdd_branch);
        let gmin_power: f64 = dc
            .node_voltages()
            .iter()
            .map(|v| stco_spice::analysis::GMIN * v * v)
            .sum();
        total += (supply_power - gmin_power).max(1e-18);
        count += 1;
    }
    Ok(total / count.max(1) as f64)
}

/// Sequential-cell leakage: a DC operating point of a bistable latch can
/// land on its *metastable* equilibrium, where both stacks conduct and
/// the supply draws crowbar current orders above true leakage. Instead,
/// preload the cell with one clock pulse (settling it into a real state)
/// and average the supply power over the quiet tail of the transient.
fn measure_leakage_sequential(built: &BuiltCell, config: &CharConfig) -> Result<f64> {
    let vdd = built.card.vdd;
    let tau = intrinsic_tau(built, 10.0e-15);
    let slew = 2.0e-9;
    let period = (40.0 * tau).max(20.0 * slew);
    let pulse = 0.5 * period;
    // Preload pulse at t = period; then idle for several periods.
    let stimuli = seq_stimuli(built, slew, period, 10.0 * period, 20.0 * period, pulse);
    let t_stop = 6.0 * period;
    let bench = make_bench(built, &map_keys(&stimuli), "Q", 0.0)?;
    let tr = bench.ckt.transient(&TranConfig {
        t_stop,
        dt: t_stop / config.samples as f64,
    })?;
    let times = tr.times();
    let current = tr.branch_current_trace(bench.vdd_branch);
    // Quiet tail: the last 20 % of the window.
    let start = times.len() * 4 / 5;
    let mut total = 0.0;
    let mut count = 0usize;
    for &c in &current[start..times.len()] {
        total += (-c * vdd).max(0.0);
        count += 1;
    }
    // Subtract nothing here: the transient has no g-min DC path bias
    // beyond the same floor as combinational cells; clamp to that floor.
    Ok((total / count.max(1) as f64).max(1e-18))
}

/// Clock pins for sequential stimulus construction.
fn clock_pin(cell: &CellType) -> &'static str {
    match cell.seq {
        SeqBehavior::Latch { .. } => "EN",
        _ => "CK",
    }
}

/// Builds the sequential stimulus set: preload Q to 0 with one clock
/// pulse at D=0, then raise D and fire the measured pulse.
fn seq_stimuli(
    built: &BuiltCell,
    slew: f64,
    period: f64,
    d_edge_at: f64,
    capture_edge_at: f64,
    pulse_width: f64,
) -> BTreeMap<&'static str, Waveform> {
    let cell = &built.cell;
    let vdd = built.card.vdd;
    let negedge = matches!(cell.seq, SeqBehavior::FlipFlop { negedge: true, .. });
    let latch_low = matches!(cell.seq, SeqBehavior::Latch { enable_high: false });
    let (idle, active) = if negedge || latch_low {
        (vdd, 0.0)
    } else {
        (0.0, vdd)
    };
    let mut stimuli: BTreeMap<&'static str, Waveform> = BTreeMap::new();
    // Clock: preload pulse at t≈period, capture pulse at capture_edge_at.
    let ck = vec![
        (0.0, idle),
        (period, idle),
        (period + slew, active),
        (period + slew + pulse_width, active),
        (period + 2.0 * slew + pulse_width, idle),
        (capture_edge_at, idle),
        (capture_edge_at + slew, active),
        (capture_edge_at + slew + pulse_width, active),
        (capture_edge_at + 2.0 * slew + pulse_width, idle),
    ];
    stimuli.insert(clock_pin(cell), Waveform::Pwl(ck));
    // D: low through the preload, rising at d_edge_at.
    stimuli.insert(
        "D",
        Waveform::Pwl(vec![(0.0, 0.0), (d_edge_at, 0.0), (d_edge_at + slew, vdd)]),
    );
    for pin in &cell.inputs {
        match *pin {
            "RN" | "SN" => {
                stimuli.insert(pin, Waveform::Dc(vdd));
            }
            "SI" => {
                stimuli.insert(pin, Waveform::Dc(0.0));
            }
            "SE" => {
                stimuli.insert(pin, Waveform::Dc(0.0));
            }
            _ => {}
        }
    }
    stimuli
}

/// A simulated sequential bench and its trace.
struct CachedTran {
    bench: Bench,
    tr: TranResult,
}

/// Transient memo for the sequential measurements.
///
/// Setup/hold/min-pulse bisections and the clock-to-Q grid rerun capture
/// transients whose stimuli match an earlier run's bit for bit up to some
/// time (a setup probe's D edge, a hold probe's D drop, a pulse probe's
/// first clock fall), and sometimes over the whole window (the setup
/// search's upper bracket replays a clock-to-Q run). The memo keeps every
/// simulated bench circuit with its run. A new bench that agrees with a
/// cached one through `t_stop` ([`Circuit::agrees_until`]) replays it;
/// otherwise the bench resumes from the cached run it agrees with longest
/// ([`Circuit::transient_resuming`]). Either way the trace is bitwise
/// identical to simulating from `t = 0`, whichever run was reused. One
/// memo lives for the duration of a single `characterize` call; distinct
/// cells or corners change the built circuit and get fresh memos.
#[derive(Default)]
struct TranMemo {
    runs: Vec<CachedTran>,
}

/// Runs (or replays) a sequential capture transient on output `Q`.
fn run_seq_transient<'a>(
    built: &BuiltCell,
    stimuli: &BTreeMap<&'static str, Waveform>,
    load: f64,
    t_stop: f64,
    samples: usize,
    memo: &'a mut TranMemo,
) -> Result<&'a CachedTran> {
    let bench = make_bench(built, &map_keys(stimuli), "Q", load)?;
    let config = TranConfig {
        t_stop,
        dt: t_stop / samples as f64,
    };
    let longest = memo
        .runs
        .iter()
        .enumerate()
        .filter(|(_, cached)| *cached.tr.config() == config)
        .map(|(i, cached)| (i, bench.ckt.agrees_until(&cached.bench.ckt)))
        .max_by(|a, b| a.1.total_cmp(&b.1));
    let metrics = stco_obs::Recorder::global().metrics();
    if let Some((i, until)) = longest {
        if until >= t_stop {
            metrics.counter("cells.tran_memo_hits").inc();
            return Ok(&memo.runs[i]);
        }
    }
    metrics.counter("cells.tran_memo_misses").inc();
    let tr = match longest {
        Some((i, _)) => {
            let earlier = &memo.runs[i];
            bench
                .ckt
                .transient_resuming(&config, &earlier.bench.ckt, &earlier.tr)?
        }
        None => bench.ckt.transient(&config)?,
    };
    memo.runs.push(CachedTran { bench, tr });
    Ok(&memo.runs[memo.runs.len() - 1])
}

/// Runs a sequential capture experiment; returns `(captured, trace)` where
/// `captured` means Q ended above 50 % of V_DD.
fn run_capture(
    built: &BuiltCell,
    stimuli: &BTreeMap<&'static str, Waveform>,
    load: f64,
    t_stop: f64,
    samples: usize,
    memo: &mut TranMemo,
) -> Result<(bool, f64)> {
    let cached = run_seq_transient(built, stimuli, load, t_stop, samples, memo)?;
    let q = cached.tr.final_voltage(cached.bench.out_node);
    Ok((q > 0.5 * cached.bench.vdd, q))
}

fn map_keys<'a>(m: &'a BTreeMap<&'static str, Waveform>) -> BTreeMap<&'a str, Waveform> {
    m.iter().map(|(k, v)| (*k, v.clone())).collect()
}

/// Clock-to-Q delay/slew/energy for sequential cells.
fn measure_clock_to_q(
    built: &BuiltCell,
    slew: f64,
    load: f64,
    config: &CharConfig,
    memo: &mut TranMemo,
) -> Result<ArcMeasurement> {
    let vdd = built.card.vdd;
    let tau = intrinsic_tau(built, load);
    let period = (40.0 * tau).max(20.0 * slew);
    let pulse = 0.5 * period;
    let d_edge = 2.0 * period; // D rises well before the capture edge
    let capture = 3.0 * period;
    let t_stop = capture + 2.0 * period;
    let stimuli = seq_stimuli(built, slew, period, d_edge, capture, pulse);
    let cached = run_seq_transient(built, &stimuli, load, t_stop, config.samples, memo)?;
    let tr = &cached.tr;
    let q = tr.voltage_trace(cached.bench.out_node);
    let times = tr.times();
    let ck_cross = capture + 0.5 * slew;
    let q_cross = crossing_time(times, &q, 0.5 * vdd, Edge::Rising, capture).map_err(|_| {
        CellsError::Characterization {
            context: format!("{}: Q did not capture", built.cell.name),
        }
    })?;
    let clock = clock_pin(&built.cell).to_string();
    let delay = vec![ArcSample {
        pin: clock.clone(),
        input_rising: true,
        slew,
        load,
        value: (q_cross - ck_cross).max(1e-15),
    }];
    let sl = transition_time(times, &q, 0.0, vdd, 0.2, 0.8, Edge::Rising, capture).unwrap_or(slew);
    let output_slew = vec![ArcSample {
        pin: clock.clone(),
        input_rising: true,
        slew,
        load,
        value: sl,
    }];
    let (e, leak) = windowed_energy(
        times,
        &tr.branch_current_trace(cached.bench.vdd_branch),
        vdd,
        capture,
        (capture + period).min(t_stop),
    );
    let flip_energy = vec![ArcSample {
        pin: clock,
        input_rising: true,
        slew,
        load,
        value: (e - leak).max(0.0),
    }];
    Ok(ArcMeasurement {
        delay,
        output_slew,
        flip_energy,
    })
}

/// Minimum setup: bisect the smallest D-before-capture-edge margin that
/// still captures.
fn measure_min_setup(
    built: &BuiltCell,
    slew: f64,
    load: f64,
    config: &CharConfig,
    memo: &mut TranMemo,
) -> Result<f64> {
    let tau = intrinsic_tau(built, load);
    let period = (40.0 * tau).max(20.0 * slew);
    let pulse = 0.5 * period;
    let capture = 3.0 * period;
    let t_stop = capture + 2.0 * period;
    let probe = |setup: f64| -> bool {
        let stimuli = seq_stimuli(built, slew, period, capture - setup, capture, pulse);
        run_capture(built, &stimuli, load, t_stop, config.samples, memo)
            .map(|(ok, _)| ok)
            .unwrap_or(false)
    };
    bisect_threshold(0.0, period, period / 256.0, probe).map_err(|_| CellsError::Characterization {
        context: format!("{}: no passing setup found", built.cell.name),
    })
}

/// Minimum hold: D rises before the edge, then *falls* shortly after it;
/// bisect the smallest stable-after-edge margin where the new value is
/// still captured.
fn measure_min_hold(
    built: &BuiltCell,
    slew: f64,
    load: f64,
    config: &CharConfig,
    memo: &mut TranMemo,
) -> Result<f64> {
    let vdd = built.card.vdd;
    let tau = intrinsic_tau(built, load);
    let period = (40.0 * tau).max(20.0 * slew);
    let pulse = 0.5 * period;
    let capture = 3.0 * period;
    let t_stop = capture + 2.0 * period;
    let setup = period; // comfortable setup; hold is what is probed
    let probe = |hold: f64| -> bool {
        let mut stimuli = seq_stimuli(built, slew, period, capture - setup, capture, pulse);
        // Override D: rise well before the edge, drop `hold` after it.
        let drop_at = capture + 0.5 * slew + hold;
        stimuli.insert(
            "D",
            Waveform::Pwl(vec![
                (0.0, 0.0),
                (capture - setup, 0.0),
                (capture - setup + slew, vdd),
                (drop_at, vdd),
                (drop_at + slew, 0.0),
            ]),
        );
        run_capture(built, &stimuli, load, t_stop, config.samples, memo)
            .map(|(ok, _)| ok)
            .unwrap_or(false)
    };
    bisect_threshold(0.0, period, period / 256.0, probe).map_err(|_| CellsError::Characterization {
        context: format!("{}: no passing hold found", built.cell.name),
    })
}

/// Minimum clock/enable pulse width that still captures.
fn measure_min_pulse_width(
    built: &BuiltCell,
    slew: f64,
    load: f64,
    config: &CharConfig,
    memo: &mut TranMemo,
) -> Result<f64> {
    let tau = intrinsic_tau(built, load);
    let period = (40.0 * tau).max(20.0 * slew);
    let capture = 3.0 * period;
    let t_stop = capture + 2.0 * period;
    let probe = |width: f64| -> bool {
        let stimuli = seq_stimuli(built, slew, period, 2.0 * period, capture, width);
        run_capture(built, &stimuli, load, t_stop, config.samples, memo)
            .map(|(ok, _)| ok)
            .unwrap_or(false)
    };
    bisect_threshold(slew * 0.25, period, period / 256.0, probe).map_err(|_| {
        CellsError::Characterization {
            context: format!("{}: no passing pulse width found", built.cell.name),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::library::CellKind;
    use stco_tcad::materials::Technology;

    fn card() -> TechnologyCard {
        TechnologyCard::reference(Technology::Ltps)
    }

    #[test]
    fn sensitization_search_works() {
        let nand2 = CellType::by_kind(CellKind::Nand2);
        let (assign, out) = find_sensitization(&nand2, 0).unwrap();
        // NAND2 pin A sensitized when B=1.
        assert!(assign[1]);
        assert_eq!(out, 0);
        // Non-sensitized when B=0.
        let (nassign, _) = find_non_sensitization(&nand2, 0).unwrap();
        assert!(!nassign[1]);
        // An inverter has no non-sensitizing state.
        let inv = CellType::by_kind(CellKind::Inv);
        assert!(find_non_sensitization(&inv, 0).is_none());
    }

    #[test]
    fn inverter_characterization_has_sane_shapes() {
        let cfg = CharConfig::fast();
        let ch = characterize(&CellType::by_kind(CellKind::Inv), &card(), &cfg).unwrap();
        assert_eq!(ch.delay.len(), 2, "rise + fall arcs");
        assert_eq!(ch.output_slew.len(), 2);
        assert!(ch.delay.iter().all(|s| s.value > 0.0));
        assert!(ch.capacitance > 0.0);
        assert!(ch.leakage_power >= 0.0);
        assert!(ch.flip_power.iter().all(|s| s.value > 0.0));
        assert!(ch.min_setup.is_none());
    }

    #[test]
    fn delay_increases_with_load() {
        let mut cfg = CharConfig::fast();
        cfg.loads = vec![2.0e-15];
        let light = characterize(&CellType::by_kind(CellKind::Inv), &card(), &cfg).unwrap();
        cfg.loads = vec![40.0e-15];
        let heavy = characterize(&CellType::by_kind(CellKind::Inv), &card(), &cfg).unwrap();
        let avg = |ch: &CellCharacterization| {
            ch.delay.iter().map(|s| s.value).sum::<f64>() / ch.delay.len() as f64
        };
        assert!(
            avg(&heavy) > 1.5 * avg(&light),
            "heavy {:.3e} vs light {:.3e}",
            avg(&heavy),
            avg(&light)
        );
    }

    #[test]
    fn nand2_has_nonflip_measurement() {
        let cfg = CharConfig::fast();
        let ch = characterize(&CellType::by_kind(CellKind::Nand2), &card(), &cfg).unwrap();
        assert!(!ch.nonflip_power.is_empty());
        // Non-flip energy is below the average flip energy.
        let flip_avg =
            ch.flip_power.iter().map(|s| s.value).sum::<f64>() / ch.flip_power.len() as f64;
        for s in &ch.nonflip_power {
            assert!(
                s.value < flip_avg,
                "nonflip {:.3e} vs flip {:.3e}",
                s.value,
                flip_avg
            );
        }
    }

    #[test]
    fn dff_characterization_produces_sequential_metrics() {
        let cfg = CharConfig::fast();
        let ch = characterize(&CellType::by_kind(CellKind::Dff), &card(), &cfg).unwrap();
        assert!(!ch.delay.is_empty(), "CK→Q arcs exist");
        let setup = ch.min_setup.expect("setup measured");
        let hold = ch.min_hold.expect("hold measured");
        let pw = ch.min_pulse_width.expect("pulse width measured");
        assert!(setup > 0.0 && setup.is_finite());
        assert!(hold >= 0.0 && hold.is_finite());
        assert!(pw > 0.0 && pw.is_finite());
    }

    #[test]
    fn memo_replay_is_bitwise_identical_to_fresh_transient() -> Result<()> {
        let built = CellType::by_kind(CellKind::Dff).build(&card(), 1.0);
        let slew = 2.0e-9;
        let load = 10.0e-15;
        let tau = intrinsic_tau(&built, load);
        let period = (40.0 * tau).max(20.0 * slew);
        let capture = 3.0 * period;
        let t_stop = capture + 2.0 * period;
        let samples = 120;
        let fresh_q = |stimuli: &BTreeMap<&'static str, Waveform>| -> Result<Vec<u64>> {
            let bench = make_bench(&built, &map_keys(stimuli), "Q", load)?;
            let fresh = bench.ckt.transient(&TranConfig {
                t_stop,
                dt: t_stop / samples as f64,
            })?;
            Ok(fresh
                .voltage_trace(bench.out_node)
                .iter()
                .map(|v| v.to_bits())
                .collect())
        };
        let memo_q = |memo: &mut TranMemo, stimuli| -> Result<(Vec<u64>, Option<f64>)> {
            let cached = run_seq_transient(&built, stimuli, load, t_stop, samples, memo)?;
            Ok((
                cached
                    .tr
                    .voltage_trace(cached.bench.out_node)
                    .iter()
                    .map(|v| v.to_bits())
                    .collect(),
                cached.tr.resumed_at(),
            ))
        };
        let stimuli = seq_stimuli(&built, slew, period, 2.0 * period, capture, 0.5 * period);
        let mut memo = TranMemo::default();
        let (first, resumed) = memo_q(&mut memo, &stimuli)?;
        assert_eq!((memo.runs.len(), resumed), (1, None));
        assert_eq!(first, fresh_q(&stimuli)?);
        // Identical content replays the cached run.
        let (replay, _) = memo_q(&mut memo, &stimuli)?;
        assert_eq!(memo.runs.len(), 1, "identical content must replay");
        assert_eq!(replay, first);
        // A later D edge shares the window up to the earlier D edge: the
        // run resumes there and still equals a fresh transient.
        let later = seq_stimuli(&built, slew, period, 2.5 * period, capture, 0.5 * period);
        let (resumed_q, resumed) = memo_q(&mut memo, &later)?;
        assert_eq!(memo.runs.len(), 2);
        assert!(
            matches!(resumed, Some(at) if at > 0.0 && at <= 2.0 * period),
            "resumed at {resumed:?}"
        );
        assert_eq!(resumed_q, fresh_q(&later)?);
        Ok(())
    }

    #[test]
    fn characterization_rows_identical_with_warm_and_cold_memo() -> Result<()> {
        // The memo is scoped per `characterize` call, so two calls start
        // cold and warm up internally; every row must still be bitwise
        // reproducible.
        let cfg = CharConfig::fast();
        let cell = CellType::by_kind(CellKind::Dff);
        let a = characterize(&cell, &card(), &cfg)?;
        let b = characterize(&cell, &card(), &cfg)?;
        let rows_a = a.flatten();
        let rows_b = b.flatten();
        assert_eq!(rows_a.len(), rows_b.len());
        for ((na, va), (nb, vb)) in rows_a.iter().zip(&rows_b) {
            assert_eq!(na, nb);
            assert_eq!(va.to_bits(), vb.to_bits(), "metric {na} not reproducible");
        }
        Ok(())
    }

    #[test]
    fn flatten_emits_rows_for_each_metric() {
        let cfg = CharConfig::fast();
        let ch = characterize(&CellType::by_kind(CellKind::Inv), &card(), &cfg).unwrap();
        let rows = ch.flatten();
        let metrics: Vec<&str> = rows.iter().map(|(m, _)| *m).collect();
        assert!(metrics.contains(&"delay"));
        assert!(metrics.contains(&"capacitance"));
        assert!(metrics.contains(&"leakage_power"));
        assert!(!metrics.contains(&"min_setup"), "INV is combinational");
    }

    #[test]
    fn empty_characterization_axes_are_rejected() {
        let grids = [(vec![], vec![10.0e-15]), (vec![2.0e-9], vec![])];
        for (slews, loads) in grids {
            let cfg = CharConfig {
                slews,
                loads,
                ..CharConfig::fast()
            };
            // NAND2 reaches the non-flip arc, DFF the sequential constraints.
            for kind in [CellKind::Nand2, CellKind::Dff] {
                let cell = CellType::by_kind(kind);
                assert!(matches!(
                    characterize(&cell, &card(), &cfg),
                    Err(CellsError::Characterization { .. })
                ));
                assert!(matches!(
                    crate::liberty::Library::characterize_subset(
                        &card(),
                        &cfg,
                        std::slice::from_ref(&cell)
                    ),
                    Err(CellsError::Characterization { .. })
                ));
            }
        }
    }
}
