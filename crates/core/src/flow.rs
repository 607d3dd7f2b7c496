//! One STCO iteration, in both flavors:
//!
//! * **Traditional** — TCAD device simulation → compact-model extraction
//!   → SPICE cell characterization → system evaluation;
//! * **Fast** — the same loop with the two technology stages replaced by
//!   the GNN surrogates: a self-consistent RelGAT Poisson/IV loop for the
//!   device, and the GCN cell model for characterization.
//!
//! Both paths meet at the compact model (Fig. 1's "unified compact
//! model" hub) and share the system-evaluation back-end, so PPA numbers
//! are comparable and the only difference is *runtime* — which
//! [`crate::speedup`] accounts per stage.

use stco_cells::charac::CharConfig;
use stco_cells::encode::{encode_cell, EncodingContext};
use stco_cells::liberty::{expand_axis, LibCell, Library, TimingTable};
use stco_cells::library::{CellType, SeqBehavior};
use stco_compact::extract::{extract_parameters, TransferCurve};
use stco_compact::tech::{Corner, TechnologyCard};
use stco_nn::gnn::EdgeProjections;
use stco_numerics::interp::Bilinear;
use stco_obs::SpanGuard;
use stco_par::ParConfig;
use stco_surrogate::cell_model::{metric_index, CellModel};
use stco_surrogate::encoding::{DeviceGraph, TaskFeatures};
use stco_surrogate::iv_predictor::{current_from_log, IvPredictor};
use stco_surrogate::poisson_emulator::PoissonEmulator;
use stco_system::bench_gen::Benchmark;
use stco_system::netlist::LogicNetlist;
use stco_system::ppa::{evaluate_system, map_netlist_cells, EvalConfig, PpaReport};
use stco_tcad::dataset::DeviceSample;
use stco_tcad::device::{Bias, Device, DeviceSpec};
use stco_tcad::materials::{Polarity, Technology};
use stco_tcad::poisson::{solve_poisson, PotentialSolution};
use stco_tcad::transport::drain_current;

use crate::{Result, StcoError};

/// Which implementation handles the two technology stages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TechnologyStage {
    /// Full TCAD + SPICE (the paper's "traditional STCO framework").
    Traditional,
    /// GNN surrogates (the paper's contribution).
    Fast,
}

/// The trained surrogate bundle (the "environment" whose setup the paper
/// prices at 8.12 s per iteration).
#[derive(Debug, Clone)]
pub struct TrainedSurrogates {
    /// The Poisson emulator.
    pub poisson: PoissonEmulator,
    /// The IV predictor.
    pub iv: IvPredictor,
    /// The cell-characterization model.
    pub cells: CellModel,
}

/// Configuration of an STCO flow for one benchmark.
#[derive(Debug, Clone)]
pub struct FlowConfig {
    /// Channel technology.
    pub technology: Technology,
    /// The benchmark under optimization.
    pub benchmark: Benchmark,
    /// Characterization grid (shared by both flows and the surrogate
    /// encodings).
    pub char_config: CharConfig,
    /// System-evaluation settings.
    pub eval: EvalConfig,
    /// Gate-sweep points of the device-simulation stage.
    pub iv_points: usize,
}

impl FlowConfig {
    /// A fast configuration for tests and scaled benches.
    pub fn fast(technology: Technology, benchmark: Benchmark) -> Self {
        FlowConfig {
            technology,
            benchmark,
            char_config: CharConfig {
                slews: vec![2.0e-9, 8.0e-9],
                loads: vec![5.0e-15, 20.0e-15],
                samples: 200,
                max_leakage_states: 2,
            },
            eval: EvalConfig::fast(),
            iv_points: 5,
        }
    }
}

/// Per-stage wall-clock seconds of one iteration.
#[derive(Debug, Clone, Copy, Default)]
pub struct StageSeconds {
    /// Device simulation (TCAD or surrogate).
    pub device: f64,
    /// Compact-model extraction.
    pub compact: f64,
    /// Cell characterization (SPICE or surrogate).
    pub cells: f64,
    /// System evaluation (always the full mapping/P&R/STA/power flow).
    pub system: f64,
}

impl StageSeconds {
    /// Total iteration seconds.
    pub fn total(&self) -> f64 {
        self.device + self.compact + self.cells + self.system
    }

    /// Technology-stage (device + compact + cells) seconds.
    pub fn technology(&self) -> f64 {
        self.device + self.compact + self.cells
    }
}

/// The result of one STCO iteration.
#[derive(Debug, Clone)]
pub struct IterationResult {
    /// PPA of the benchmark at this corner.
    pub ppa: PpaReport,
    /// Per-stage runtimes.
    pub seconds: StageSeconds,
    /// Extracted compact parameters `(μ0, V_th, γ)` of the native device.
    pub extracted: (f64, f64, f64),
    /// Which flow produced this result.
    pub stage: TechnologyStage,
}

/// An STCO flow bound to one benchmark and technology.
#[derive(Debug, Clone)]
pub struct StcoFlow {
    logic: LogicNetlist,
    cells: Vec<CellType>,
    base_card: TechnologyCard,
    device_template: DeviceSpec,
    config: FlowConfig,
}

impl StcoFlow {
    /// Builds the flow: generates the benchmark, determines the cell
    /// subset it uses and prepares the reference device.
    ///
    /// # Errors
    ///
    /// Returns [`StcoError::InvalidConfig`] if the characterization grid
    /// cannot tabulate: a slew or load axis that is empty, or that is not
    /// finite and strictly increasing once a single point is doubled into
    /// two. Propagates netlist/mapping failures.
    pub fn new(config: FlowConfig) -> Result<Self> {
        check_grid(&config.char_config)?;
        let logic = config.benchmark.generate();
        let cells = map_netlist_cells(&logic)?;
        let base_card = TechnologyCard::reference(config.technology);
        let device_template = DeviceSpec::reference(config.technology);
        Ok(StcoFlow {
            logic,
            cells,
            base_card,
            device_template,
            config,
        })
    }

    /// The benchmark netlist.
    pub fn logic(&self) -> &LogicNetlist {
        &self.logic
    }

    /// The library cells this benchmark requires.
    pub fn cells(&self) -> &[CellType] {
        &self.cells
    }

    /// The device spec at a corner: C_ox scaling via oxide thickness and
    /// the threshold shift via the flat band.
    pub fn device_at(&self, corner: Corner) -> DeviceSpec {
        let mut spec = self.device_template.clone();
        spec.oxide_thickness /= corner.cox_scale;
        spec.channel.flat_band += corner.vth_shift * spec.channel.polarity.sign();
        spec
    }

    /// The gate sweep of the device-simulation stage at a corner.
    pub fn gate_sweep(&self, corner: Corner) -> (Vec<f64>, f64) {
        let sign = self.device_template.channel.polarity.sign();
        let n = self.config.iv_points.max(3);
        let gates: Vec<f64> = (0..n)
            .map(|k| sign * corner.vdd * (0.3 + 0.7 * k as f64 / (n - 1) as f64))
            .collect();
        (gates, sign * corner.vdd)
    }

    /// Runs one STCO iteration at a corner.
    ///
    /// `surrogates` must be provided for [`TechnologyStage::Fast`].
    ///
    /// # Errors
    ///
    /// Returns [`StcoError::InvalidConfig`] if the fast flow is requested
    /// without surrogates, or propagates stage failures.
    pub fn run_iteration(
        &self,
        corner: Corner,
        stage: TechnologyStage,
        surrogates: Option<&TrainedSurrogates>,
    ) -> Result<IterationResult> {
        let _span = stco_obs::span!(
            "flow.iteration",
            benchmark = self.logic.name.as_str(),
            flow = match stage {
                TechnologyStage::Traditional => "traditional",
                TechnologyStage::Fast => "fast",
            },
        );
        let mut seconds = StageSeconds::default();
        let spec = self.device_at(corner);
        let device = spec.build()?;
        let (gates, vd) = self.gate_sweep(corner);

        // Stage 1: device simulation. The gate points are independent
        // solves, fanned out over stco-par in input order.
        let span = stco_obs::span!("flow.stage", stage = "device");
        let fast = match stage {
            TechnologyStage::Traditional => None,
            TechnologyStage::Fast => Some(surrogates.ok_or_else(|| StcoError::InvalidConfig {
                context: "fast flow requires trained surrogates".into(),
            })?),
        };
        let fast_device = fast.map(|s| FastDevice::new(&spec, &device, s));
        let iv_points = stco_par::try_par_map(ParConfig::current(), &gates, |&vg| {
            let bias = Bias {
                gate: vg,
                drain: vd,
            };
            let id = match &fast_device {
                None => drain_current(&device, &solve_poisson(&device, bias)?, bias),
                Some(f) => f.drain_current(bias),
            };
            Ok::<_, StcoError>((vg, id))
        })?;
        seconds.device = close_stage(span, "device");

        // Stage 2: compact-model extraction (shared).
        let span = stco_obs::span!("flow.stage", stage = "compact");
        let curve = TransferCurve {
            vgs: iv_points.iter().map(|p| p.0).collect(),
            vds: vd,
            id: iv_points.iter().map(|p| p.1).collect(),
        };
        let template = match self.device_template.channel.polarity {
            Polarity::NType => self.base_card.nfet.clone(),
            Polarity::PType => self.base_card.pfet.clone(),
        };
        let extraction = extract_parameters(&template, &[curve])?;
        let extracted = (
            extraction.model.mu0,
            extraction.model.vth,
            extraction.model.gamma,
        );
        let card = self.card_from_extraction(corner, extracted);
        seconds.compact = close_stage(span, "compact");

        // Stage 3: cell-library characterization.
        let span = stco_obs::span!("flow.stage", stage = "cells");
        let library = match fast {
            None => Library::characterize_subset(&card, &self.config.char_config, &self.cells)?,
            Some(s) => predicted_library(&self.cells, &card, &s.cells, &self.config.char_config),
        };
        seconds.cells = close_stage(span, "cells");

        // Stage 4: system evaluation (always the real flow).
        let span = stco_obs::span!("flow.stage", stage = "system");
        let ppa = evaluate_system(&self.logic, &library, &self.config.eval)?;
        seconds.system = close_stage(span, "system");

        Ok(IterationResult {
            ppa,
            seconds,
            extracted,
            stage,
        })
    }

    /// The technology card an iteration at `corner` hands to the cell
    /// stage: the base card at `corner`, with the extracted compact
    /// parameters `(mu0, vth, gamma)` (an [`IterationResult::extracted`])
    /// taken exactly by the native-polarity device, while the
    /// complementary device's mobility scales by the same ratio to the
    /// base card (hybrid-pair convention).
    pub fn card_from_extraction(
        &self,
        corner: Corner,
        extracted: (f64, f64, f64),
    ) -> TechnologyCard {
        let mut card = self.base_card.at_corner(corner);
        let (mu0, vth, gamma) = extracted;
        match self.device_template.channel.polarity {
            Polarity::NType => {
                let ratio = mu0 / self.base_card.nfet.mu0;
                card.nfet.mu0 = mu0;
                card.nfet.vth = vth;
                card.nfet.gamma = gamma;
                card.pfet.mu0 *= ratio;
            }
            Polarity::PType => {
                let ratio = mu0 / self.base_card.pfet.mu0;
                card.pfet.mu0 = mu0;
                card.pfet.vth = vth;
                card.pfet.gamma = gamma;
                card.nfet.mu0 *= ratio;
            }
        }
        card
    }
}

/// Closes one stage's `flow.stage` span, observes its seconds in the
/// `flow.stage_seconds{stage=…}` histogram and returns them. The seconds
/// are the span's own clock reading, so [`StageSeconds`] and a profile
/// folded from the trace agree exactly.
fn close_stage(span: SpanGuard, stage: &str) -> f64 {
    let seconds = span.close();
    stco_obs::Recorder::global()
        .metrics()
        .histogram(
            &stco_obs::metrics::labeled("flow.stage_seconds", "stage", stage),
            &stco_obs::metrics::seconds_buckets(),
        )
        .observe(seconds);
    seconds
}

/// The fast device stage of one iteration. Everything the device mesh
/// fixes — its graph and both device models' edge projections — is
/// prepared here once, before the gate points fan out, and every gate
/// point's solve and IV prediction reuse it.
struct FastDevice<'a> {
    spec: &'a DeviceSpec,
    device: &'a Device,
    surrogates: &'a TrainedSurrogates,
    mesh: DeviceGraph,
    poisson_edges: EdgeProjections,
    iv_edges: EdgeProjections,
}

impl<'a> FastDevice<'a> {
    /// Prepares `device`, built from `spec`, for the surrogates.
    fn new(spec: &'a DeviceSpec, device: &'a Device, surrogates: &'a TrainedSurrogates) -> Self {
        let mesh = DeviceGraph::new(device);
        FastDevice {
            poisson_edges: surrogates.poisson.project_edges(&mesh),
            iv_edges: surrogates.iv.project_edges(&mesh),
            spec,
            device,
            surrogates,
            mesh,
        }
    }

    /// The signed drain current at one bias: the self-consistent solve
    /// of [`fast_device_solution`], then the IV predictor.
    fn drain_current(&self, bias: Bias) -> f64 {
        let _span = stco_obs::span!(
            "flow.fast_device_point",
            gate = bias.gate,
            drain = bias.drain,
        );
        let s = self.surrogates;
        let sample = solve_prepared(
            self.spec,
            self.device,
            &self.mesh,
            &self.poisson_edges,
            bias,
            &s.poisson,
        );
        let nodes = self.mesh.node_features(&sample, TaskFeatures::Iv);
        let log_current =
            s.iv.predict_log_current_prepared(&self.mesh, &self.iv_edges, &nodes);
        self.spec.channel.polarity.sign() * current_from_log(log_current)
    }
}

/// The self-consistent surrogate device solve: alternate the RelGAT
/// Poisson emulator (charge → potential) with the analytic carrier
/// statistics (potential → charge), as the paper's interconnected
/// TCAD-surrogate models do, then package the result as a
/// [`DeviceSample`] for the IV predictor.
///
/// # Errors
///
/// Propagates geometry failures.
pub fn fast_device_solution(
    spec: &DeviceSpec,
    bias: Bias,
    poisson: &PoissonEmulator,
) -> Result<DeviceSample> {
    let _span = stco_obs::span!(
        "flow.fast_device_solution",
        gate = bias.gate,
        drain = bias.drain,
    );
    let device = spec.build()?;
    let mesh = DeviceGraph::new(&device);
    let edges = poisson.project_edges(&mesh);
    Ok(solve_prepared(spec, &device, &mesh, &edges, bias, poisson))
}

/// [`fast_device_solution`] on a prepared mesh: `mesh` is the graph of
/// `device` (built from `spec`) and `edges` the emulator's projections
/// on it.
fn solve_prepared(
    spec: &DeviceSpec,
    device: &Device,
    mesh: &DeviceGraph,
    edges: &EdgeProjections,
    bias: Bias,
    poisson: &PoissonEmulator,
) -> DeviceSample {
    let n = device.mesh().num_nodes();
    // Initial guess: Dirichlet potentials, zero elsewhere; charge from it.
    let mut psi = vec![0.0; n];
    for (i, p) in psi.iter_mut().enumerate() {
        if let Some(pd) = device.dirichlet_potential(i, bias) {
            *p = pd;
        }
    }
    let mut sample = DeviceSample {
        spec: spec.clone(),
        device: device.clone(),
        bias,
        solution: PotentialSolution::from_potential(device, bias, psi, 0),
        current: 0.0,
    };
    // A few fixed-point sweeps: predict ψ from the charge features, then
    // refresh the charge from the predicted ψ.
    let mut nodes = mesh.node_features(&sample, TaskFeatures::Poisson);
    for _ in 0..3 {
        let mut predicted = poisson.predict_prepared(mesh, edges, &nodes);
        // Keep electrodes pinned exactly.
        for (i, p) in predicted.iter_mut().enumerate() {
            if let Some(pd) = device.dirichlet_potential(i, bias) {
                *p = pd;
            }
        }
        sample.solution = PotentialSolution::from_potential(device, bias, predicted, 0);
        mesh.refresh(&sample, TaskFeatures::Poisson, &mut nodes);
    }
    sample
}

/// Builds a fully surrogate-predicted library: NLDM tables, capacitance,
/// leakage, switching energy and sequential constraints all come from
/// the GCN; only the layout area stays analytic (it is geometric).
///
/// Every graph is encoded at [`EncodingContext::all_rising`]. For a
/// multi-input cell that is not a context [`build_cell_dataset`] trains
/// on: there, the inputs that do not switch are held at 1.
///
/// Cells are predicted independently over stco-par and kept in input
/// order, so the library is bitwise the same at any thread count.
///
/// [`build_cell_dataset`]: stco_surrogate::pipeline::build_cell_dataset
pub fn predicted_library(
    cells: &[CellType],
    card: &TechnologyCard,
    model: &CellModel,
    config: &CharConfig,
) -> Library {
    let _span = stco_obs::span!("flow.predicted_library", cells = cells.len());
    let slews = expand_axis(&config.slews);
    let loads = expand_axis(&config.loads);
    let out = stco_par::par_map(ParConfig::current(), cells, |cell| {
        let built = cell.build(card, 1.0);
        let m_delay = metric_index("delay").expect("known");
        let m_slew = metric_index("output_slew").expect("known");
        let mut delay_values = Vec::new();
        let mut slew_values = Vec::new();
        for &s in &slews {
            for &l in &loads {
                let graph = encode_cell(&built, &EncodingContext::all_rising(cell, s, l));
                // One trunk evaluation for both timing metrics
                // (bitwise-identical to per-metric predicts).
                let both = model.predict_many(&graph, &[m_delay, m_slew]);
                delay_values.push(both[0]);
                slew_values.push(both[1]);
            }
        }
        let delay =
            Bilinear::new(slews.clone(), loads.clone(), delay_values).expect("grid axes are valid");
        let out_slew =
            Bilinear::new(slews.clone(), loads.clone(), slew_values).expect("grid axes are valid");
        let nominal = encode_cell(
            &built,
            &EncodingContext::all_rising(cell, slews[slews.len() / 2], loads[loads.len() / 2]),
        );
        let seq = !matches!(cell.seq, SeqBehavior::Combinational);
        let mut names = vec!["capacitance", "leakage_power", "flip_power"];
        if seq {
            names.extend(["min_setup", "min_hold", "min_pulse_width"]);
        }
        let metrics: Vec<usize> = names
            .iter()
            .map(|n| metric_index(n).expect("known"))
            .collect();
        // All scalar metrics share one trunk evaluation on the nominal
        // graph (bitwise-identical to per-metric predicts).
        let nominal_values = model.predict_many(&nominal, &metrics);
        LibCell {
            kind: cell.kind,
            name: cell.name.to_string(),
            area: built.area(),
            input_capacitance: nominal_values[0],
            leakage_power: nominal_values[1],
            switch_energy: nominal_values[2],
            timing: TimingTable::from_tables(delay, out_slew),
            min_setup: seq.then(|| nominal_values[3]),
            min_hold: seq.then(|| nominal_values[4]),
            min_pulse_width: seq.then(|| nominal_values[5]),
        }
    });
    Library {
        card: card.clone(),
        cells: out,
    }
}

/// Checks that a characterization grid tabulates in both flows: each
/// axis is non-empty and, after a single point is doubled into two by
/// [`expand_axis`], finite and strictly increasing — exactly what the
/// NLDM tables' [`Bilinear::new`] accepts.
fn check_grid(config: &CharConfig) -> Result<()> {
    let invalid = |context: String| StcoError::InvalidConfig { context };
    for (name, axis) in [("slew", &config.slews), ("load", &config.loads)] {
        if axis.is_empty() {
            return Err(invalid(format!("characterization {name} axis is empty")));
        }
    }
    let (slews, loads) = (expand_axis(&config.slews), expand_axis(&config.loads));
    let values = vec![0.0; slews.len() * loads.len()];
    Bilinear::new(slews, loads, values)
        .map_err(|e| invalid(format!("characterization grid: {e}")))?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use stco_surrogate::cell_model::CellModelConfig;

    fn test_flow() -> StcoFlow {
        StcoFlow::new(FlowConfig::fast(Technology::Ltps, Benchmark::S298)).expect("builds")
    }

    #[test]
    fn flow_discovers_benchmark_cells() {
        let flow = test_flow();
        assert!(flow.cells().len() >= 5, "s298 maps to several cell kinds");
        assert_eq!(flow.logic().name, "s298");
    }

    #[test]
    fn unusable_characterization_grids_are_rejected_at_construction() {
        let with_grid = |slews: Vec<f64>, loads: Vec<f64>| {
            let mut config = FlowConfig::fast(Technology::Ltps, Benchmark::S298);
            config.char_config.slews = slews;
            config.char_config.loads = loads;
            StcoFlow::new(config)
        };
        let loads = vec![5.0e-15, 20.0e-15];
        let slews = vec![2.0e-9, 8.0e-9];
        for (slews, loads) in [
            (vec![], loads.clone()),
            (slews.clone(), vec![]),
            (vec![0.0], loads.clone()),
            (vec![-2.0e-9], loads.clone()),
            (slews.clone(), vec![0.0]),
            (vec![f64::NAN], loads.clone()),
            (vec![2.0e-9, f64::INFINITY], loads.clone()),
            (vec![8.0e-9, 2.0e-9], loads.clone()),
            (slews.clone(), vec![5.0e-15, 5.0e-15]),
        ] {
            let got = with_grid(slews.clone(), loads.clone());
            assert!(
                matches!(got, Err(StcoError::InvalidConfig { .. })),
                "slews {slews:?} × loads {loads:?} must be rejected, got {:?}",
                got.map(|_| ())
            );
        }
        // A single positive point doubles into a valid two-point axis.
        for (slews, loads) in [(vec![2.0e-9], loads.clone()), (slews, vec![5.0e-15])] {
            assert!(with_grid(slews, loads).is_ok());
        }
    }

    #[test]
    fn corner_moves_device_geometry_and_threshold() {
        let flow = test_flow();
        let base = flow.device_at(Corner::nominal(3.0));
        let shifted = flow.device_at(Corner {
            vdd: 3.0,
            vth_shift: 0.15,
            cox_scale: 1.2,
        });
        assert!(shifted.oxide_thickness < base.oxide_thickness);
        assert!(shifted.channel.flat_band != base.channel.flat_band);
    }

    #[test]
    fn gate_sweep_spans_the_supply() {
        let flow = test_flow();
        let (gates, vd) = flow.gate_sweep(Corner::nominal(3.0));
        assert!(gates.len() >= 3);
        assert!((vd - 3.0).abs() < 1e-12, "LTPS is n-type: positive drive");
        assert!(gates.iter().all(|&g| g > 0.0 && g <= 3.0 + 1e-12));
        // Monotone sweep.
        for w in gates.windows(2) {
            assert!(w[1] > w[0]);
        }
    }

    #[test]
    fn predicted_library_is_structurally_complete() {
        // Even an untrained GCN yields a structurally valid library:
        // every requested cell present, finite positive values, seq
        // constraints only on sequential cells.
        let flow = test_flow();
        let card = TechnologyCard::reference(Technology::Ltps);
        let model = CellModel::new(CellModelConfig::default());
        let lib = predicted_library(
            flow.cells(),
            &card,
            &model,
            &FlowConfig::fast(Technology::Ltps, Benchmark::S298).char_config,
        );
        assert_eq!(lib.cells.len(), flow.cells().len());
        for (cell, lib_cell) in flow.cells().iter().zip(&lib.cells) {
            assert_eq!(cell.kind, lib_cell.kind);
            assert!(lib_cell.area > 0.0);
            assert!(lib_cell.input_capacitance > 0.0);
            assert!(lib_cell.leakage_power.is_finite());
            let d = lib_cell.timing.delay(2.0e-9, 10.0e-15);
            assert!(d.is_finite() && d >= 0.0);
            let seq = !matches!(cell.seq, SeqBehavior::Combinational);
            assert_eq!(lib_cell.min_setup.is_some(), seq, "{}", cell.name);
        }
    }

    #[test]
    fn fast_device_solution_produces_consistent_sample() {
        use stco_surrogate::poisson_emulator::{PoissonConfig, PoissonEmulator};
        let flow = test_flow();
        let spec = flow.device_at(Corner::nominal(3.0));
        let emulator = PoissonEmulator::new(PoissonConfig {
            depth: 1,
            heads: 1,
            head_dim: 4,
            ..PoissonConfig::default()
        });
        let bias = Bias {
            gate: 2.0,
            drain: 1.0,
        };
        let sample = fast_device_solution(&spec, bias, &emulator).expect("runs");
        let n = sample.device.mesh().num_nodes();
        assert_eq!(sample.solution.psi.len(), n);
        assert_eq!(sample.solution.carrier_density.len(), n);
        // Electrodes stay pinned exactly even through the surrogate loop.
        for i in 0..n {
            if let Some(pd) = sample.device.dirichlet_potential(i, bias) {
                assert!((sample.solution.psi[i] - pd).abs() < 1e-12);
            }
        }
        assert!(sample.solution.carrier_density.iter().all(|&v| v >= 0.0));
    }
}
