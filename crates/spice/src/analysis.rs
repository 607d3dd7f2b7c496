//! DC operating-point and transient analyses.
//!
//! Both analyses run damped Newton over the MNA system: nonlinear TFTs
//! are linearized through their companion model (I_eq, g_m, g_ds) each
//! iteration, node-voltage updates are clamped to ±0.5 V, and a small
//! g-min ties every node to ground. DC falls back to source stepping when
//! cold-start Newton fails; the backward-Euler transient halves its step
//! on Newton failure (up to 10 times) before giving up. A transient can
//! also resume from the prefix it shares with an earlier run
//! ([`Circuit::transient_resuming`]), bit for bit the same as a full run.

use stco_obs::Counter;

use crate::netlist::{Circuit, Element, MnaSystem, NodeId};
use crate::{Result, SpiceError};

/// Conductance from every node to ground, S (convergence aid). Public so
/// measurement code can subtract the (artificial) g-min currents from
/// supply-current readings — without the correction, g-min swamps the
/// femto-ampere leakage of off TFTs.
pub const GMIN: f64 = 1e-12;

/// Maximum Newton iterations per solve.
const MAX_NEWTON: usize = 900;

/// Node-voltage update clamp per Newton iteration, V.
const VOLTAGE_CLAMP: f64 = 0.3;

/// Convergence threshold on the update infinity-norm. 1 µV is far below
/// any measured quantity (3 V swings, ns transitions).
const UPDATE_TOL: f64 = 1e-6;

/// Parasitic capacitance on every node during transient analysis, F.
/// Represents junction/wiring parasitics; also regularizes the Newton
/// iteration on otherwise capacitance-free interior stack nodes.
const NODE_PARASITIC_CAP: f64 = 5.0e-17;

/// A converged DC operating point.
#[derive(Debug, Clone)]
pub struct DcSolution {
    voltages: Vec<f64>,
    branch_currents: Vec<f64>,
}

impl DcSolution {
    /// Voltage of a node (ground reads 0).
    pub fn voltage(&self, node: NodeId) -> f64 {
        if node == Circuit::GROUND {
            0.0
        } else {
            self.voltages[node.0 - 1]
        }
    }

    /// Current through voltage source `branch` (positive out of its +
    /// terminal through the external circuit... i.e. the MNA branch
    /// current, which flows + → − inside the source).
    pub fn branch_current(&self, branch: usize) -> f64 {
        self.branch_currents[branch]
    }

    /// All non-ground node voltages in node-index order (useful for
    /// whole-circuit sums such as the g-min power correction).
    pub fn node_voltages(&self) -> &[f64] {
        &self.voltages
    }
}

/// A transient simulation trace.
#[derive(Debug, Clone)]
pub struct TranResult {
    times: Vec<f64>,
    /// Flat row-major sample storage: one `stride`-long full state (node
    /// voltages then branch currents) per sample time. Flat rather than
    /// `Vec<Vec<f64>>` so the transient loop appends samples without a
    /// per-step allocation.
    states: Vec<f64>,
    stride: usize,
    num_node_unknowns: usize,
    config: TranConfig,
    resumed_at: Option<f64>,
}

impl TranResult {
    /// The configuration the trace was simulated under (it fixes the
    /// sample grid).
    pub fn config(&self) -> &TranConfig {
        &self.config
    }

    /// Time of the last sample copied from an earlier run by
    /// [`Circuit::transient_resuming`]; `None` for a run simulated from
    /// the operating point.
    pub fn resumed_at(&self) -> Option<f64> {
        self.resumed_at
    }

    /// Sample times, s.
    pub fn times(&self) -> &[f64] {
        &self.times
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    /// Voltage trace of a node.
    pub fn voltage_trace(&self, node: NodeId) -> Vec<f64> {
        if node == Circuit::GROUND || self.stride == 0 {
            return vec![0.0; self.times.len()];
        }
        self.states
            .chunks_exact(self.stride)
            .map(|s| s[node.0 - 1])
            .collect()
    }

    /// Branch-current trace of a voltage source.
    pub fn branch_current_trace(&self, branch: usize) -> Vec<f64> {
        if self.stride == 0 {
            return vec![0.0; self.times.len()];
        }
        self.states
            .chunks_exact(self.stride)
            .map(|s| s[self.num_node_unknowns + branch])
            .collect()
    }

    /// Voltage of a node at the final time point.
    pub fn final_voltage(&self, node: NodeId) -> f64 {
        if node == Circuit::GROUND || self.stride == 0 {
            return 0.0;
        }
        self.states
            .chunks_exact(self.stride)
            .last()
            .map_or(0.0, |s| s[node.0 - 1])
    }
}

/// Transient configuration. Its sample grid is a function of these two
/// fields alone; for the positive values a transient accepts, `==` is
/// bit equality.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TranConfig {
    /// Stop time, s.
    pub t_stop: f64,
    /// Nominal time step, s.
    pub dt: f64,
}

/// Everything the stamps need in a dynamic (time-stepping) solve.
struct DynamicCtx<'a> {
    /// Node voltages at the previous accepted time point.
    prev_v: &'a [f64],
    /// Step size, s.
    dt: f64,
    /// Artificial node-to-ground capacitance conductance, S (nonzero only
    /// in pseudo-transient DC).
    artificial_g: f64,
}

/// Reusable per-thread scratch for the Newton loop: the MNA accumulator,
/// the LU factors and their solve buffer, and the previous-iterate copy.
/// All of it is fully overwritten every iteration, so leasing a warm
/// workspace is bitwise-equivalent to allocating a cold one.
#[derive(Debug, Default)]
struct NewtonWorkspace {
    sys: MnaSystem,
    factors: stco_numerics::dense::LuFactors,
    solution: Vec<f64>,
    x_prev: Vec<f64>,
}

thread_local! {
    static NEWTON_WS: std::cell::RefCell<NewtonWorkspace> =
        std::cell::RefCell::new(NewtonWorkspace::default());
}

/// Leases the thread-local solver workspace (each `stco-par` worker gets
/// its own, so parallel characterization never allocates per item). Falls
/// back to a fresh workspace on re-entrant use rather than panicking the
/// `RefCell`.
fn with_newton_workspace<R>(f: impl FnOnce(&mut NewtonWorkspace) -> R) -> R {
    NEWTON_WS.with(|cell| match cell.try_borrow_mut() {
        Ok(mut ws) => f(&mut ws),
        Err(_) => f(&mut NewtonWorkspace::default()),
    })
}

/// The `spice.newton_iters` counter, fetched once per analysis: the
/// registry lookup takes a mutex, too costly once per Newton solve. A
/// `static` handle would detach from the registry after a reset.
fn newton_iters() -> Counter {
    stco_obs::Recorder::global()
        .metrics()
        .counter("spice.newton_iters")
}

impl Circuit {
    /// Solves the DC operating point (capacitors open, waveform DC
    /// values), with source-stepping fallback.
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::NoConvergence`] if Newton fails even with
    /// stepping, or propagates LU failures.
    pub fn dc_operating_point(&self) -> Result<DcSolution> {
        let _span = stco_obs::span!("spice.dc_operating_point");
        let iters = newton_iters();
        with_newton_workspace(|ws| self.dc_operating_point_ws(ws, &iters))
    }

    fn dc_operating_point_ws(
        &self,
        ws: &mut NewtonWorkspace,
        iters: &Counter,
    ) -> Result<DcSolution> {
        let size = self.system_size();
        let mut x = vec![0.0; size];
        let direct = newton_solve(self, &mut x, 0.0, 1.0, None, ws, iters);
        if direct.is_err() {
            // Source stepping: ramp all sources from 10 % to 100 %.
            x = vec![0.0; size];
            let mut stepped = Ok(());
            for k in 1..=10 {
                let scale = k as f64 / 10.0;
                stepped = newton_solve(self, &mut x, 0.0, scale, None, ws, iters);
                if stepped.is_err() {
                    break;
                }
            }
            if stepped.is_err() {
                // Pseudo-transient continuation: march backward-Euler with
                // artificial node capacitors toward steady state, growing
                // the step until the artificial conductance vanishes.
                // Bulletproof for self-limiting device stacks that defeat
                // damped Newton.
                x = vec![0.0; size];
                self.pseudo_transient_dc(&mut x, ws, iters)?;
            }
        }
        let n = self.num_nodes() - 1;
        Ok(DcSolution {
            voltages: x[..n].to_vec(),
            branch_currents: x[n..].to_vec(),
        })
    }

    /// Pseudo-transient DC: BE steps with an artificial capacitance on
    /// every node, step growing geometrically until the solution stops
    /// moving and the artificial conductance is negligible.
    fn pseudo_transient_dc(
        &self,
        x: &mut [f64],
        ws: &mut NewtonWorkspace,
        iters: &Counter,
    ) -> Result<()> {
        let n = self.num_nodes() - 1;
        let c_art = 1.0e-12; // 1 pF on every node
        let mut dt = 1.0e-9;
        let mut last_residual = f64::INFINITY;
        let mut failures = 0usize;
        let mut step = 0usize;
        let mut prev = vec![0.0; n];
        let mut trial = vec![0.0; x.len()];
        while step < 160 {
            step += 1;
            prev.copy_from_slice(&x[..n]);
            let g_art = c_art / dt;
            trial.copy_from_slice(x);
            let ctx = DynamicCtx {
                prev_v: &prev,
                dt,
                artificial_g: g_art,
            };
            match newton_solve(self, &mut trial, 0.0, 1.0, Some(&ctx), ws, iters) {
                Ok(()) => {
                    x.copy_from_slice(&trial);
                    let moved = x[..n]
                        .iter()
                        .zip(&prev)
                        .fold(0.0_f64, |m, (a, b)| m.max((a - b).abs()));
                    last_residual = moved;
                    if moved < 1e-9 && g_art < 1e-9 {
                        return Ok(());
                    }
                    dt *= 2.0;
                }
                Err(e) => {
                    // Too aggressive a pseudo-step: back off and retry from
                    // the previous (accepted) state.
                    failures += 1;
                    dt *= 0.2;
                    if failures > 40 || dt < 1e-15 {
                        return Err(e);
                    }
                }
            }
        }
        if last_residual < 1e-6 {
            return Ok(());
        }
        Err(SpiceError::NoConvergence {
            analysis: "dc",
            residual: last_residual,
        })
    }

    /// Runs a backward-Euler transient from the DC operating point.
    ///
    /// The first sample is the operating point at `t = 0`; subsequent
    /// samples land on the nominal `dt` grid (internal step halving on
    /// Newton failure is invisible to the caller).
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::BadNetlist`] unless `dt` and `t_stop` are
    /// positive, [`SpiceError::NoConvergence`] if a step fails even at
    /// `dt/1024`, or propagates LU failures.
    pub fn transient(&self, config: &TranConfig) -> Result<TranResult> {
        if config.dt <= 0.0 || config.t_stop <= 0.0 {
            return Err(SpiceError::BadNetlist {
                context: "transient needs positive dt and t_stop".into(),
            });
        }
        let _span = stco_obs::span!("spice.transient", t_stop = config.t_stop, dt = config.dt,);
        let iters = newton_iters();
        with_newton_workspace(|ws| {
            let dc = self.dc_operating_point_ws(ws, &iters)?;
            let state: Vec<f64> = dc.voltages.into_iter().chain(dc.branch_currents).collect();
            self.step_transient(config, &[0.0], &state, ws, &iters)
        })
    }

    /// Runs the backward-Euler transient of `self` under `config`,
    /// copying the samples it provably shares with `run`, an earlier
    /// transient of `earlier`.
    ///
    /// Every sample of `run` at or before `self.agrees_until(earlier)` is
    /// copied (at least the `t = 0` operating point), and stepping
    /// continues from the last copied state. The sample grid depends only
    /// on `config`, and each step only on the previous state and on the
    /// source values at its own step-end times, so the result equals
    /// `self.transient(config)` bit for bit; only
    /// [`TranResult::resumed_at`] tells them apart. `run` must be
    /// `earlier`'s transient: its samples are copied as they are. A run on
    /// another grid, or circuits that already differ at `t = 0`, fall
    /// back to a full [`Circuit::transient`].
    ///
    /// # Errors
    ///
    /// Same conditions as [`Circuit::transient`].
    pub fn transient_resuming(
        &self,
        config: &TranConfig,
        earlier: &Circuit,
        run: &TranResult,
    ) -> Result<TranResult> {
        let keep = if run.config == *config && run.stride == self.system_size() {
            let until = self.agrees_until(earlier);
            run.times.partition_point(|&t| t <= until)
        } else {
            0
        };
        if keep == 0 {
            return self.transient(config);
        }
        let resumed_at = run.times[keep - 1];
        let _span = stco_obs::span!(
            "spice.transient",
            t_stop = config.t_stop,
            dt = config.dt,
            resumed_at = resumed_at,
        );
        let iters = newton_iters();
        let mut result = with_newton_workspace(|ws| {
            self.step_transient(
                config,
                &run.times[..keep],
                &run.states[..keep * run.stride],
                ws,
                &iters,
            )
        })?;
        result.resumed_at = Some(resumed_at);
        Ok(result)
    }

    /// The transient stepping loop, continuing from the given leading
    /// samples (flat states, one full state per time). All per-substep
    /// buffers are allocated once up front and recycled, so the inner
    /// stepping loop is allocation-free.
    fn step_transient(
        &self,
        config: &TranConfig,
        prefix_times: &[f64],
        prefix_states: &[f64],
        ws: &mut NewtonWorkspace,
        iters: &Counter,
    ) -> Result<TranResult> {
        let metrics = stco_obs::Recorder::global().metrics();
        let accepts = metrics.counter("spice.timestep_accepts");
        let rejects = metrics.counter("spice.timestep_rejects");
        let n = self.num_nodes() - 1;
        let size = self.system_size();
        let mut state = prefix_states[prefix_states.len() - size..].to_vec();
        let expected = (config.t_stop / config.dt).ceil() as usize + 2;
        let mut times = Vec::with_capacity(expected);
        times.extend_from_slice(prefix_times);
        let mut states = Vec::with_capacity(expected * size);
        states.extend_from_slice(prefix_states);
        let mut local_state = vec![0.0; size];
        let mut trial = vec![0.0; size];
        let mut prev_v = vec![0.0; n];
        let mut t = prefix_times[prefix_times.len() - 1];
        while t < config.t_stop - 1e-18 {
            let target = (t + config.dt).min(config.t_stop);
            let mut sub_dt = target - t;
            let mut t_local = t;
            local_state.copy_from_slice(&state);
            let mut halvings = 0;
            while t_local < target - 1e-18 {
                let step_end = (t_local + sub_dt).min(target);
                let dt = step_end - t_local;
                trial.copy_from_slice(&local_state);
                prev_v.copy_from_slice(&local_state[..n]);
                let ctx = DynamicCtx {
                    prev_v: &prev_v,
                    dt,
                    artificial_g: 0.0,
                };
                match newton_solve(self, &mut trial, step_end, 1.0, Some(&ctx), ws, iters) {
                    Ok(()) => {
                        local_state.copy_from_slice(&trial);
                        stco_numerics::debug_assert_all_finite!("spice.tran.state", &local_state);
                        t_local = step_end;
                        accepts.inc();
                    }
                    Err(e) => {
                        halvings += 1;
                        rejects.inc();
                        stco_obs::event!(
                            "spice.timestep_reject",
                            t = t_local,
                            sub_dt = sub_dt,
                            halvings = halvings,
                        );
                        if halvings > 10 {
                            stco_obs::event!(
                                "spice.tran_step_failed",
                                t = t_local,
                                sub_dt = sub_dt,
                            );
                            return Err(e);
                        }
                        sub_dt *= 0.5;
                    }
                }
            }
            state.copy_from_slice(&local_state);
            t = target;
            times.push(t);
            states.extend_from_slice(&state);
        }
        Ok(TranResult {
            times,
            states,
            stride: size,
            num_node_unknowns: n,
            config: *config,
            resumed_at: None,
        })
    }
}

/// One damped-Newton solve of the MNA system at time `t`, counting its
/// iterations on `iters`.
///
/// `dynamic = Some(ctx)` enables the capacitor companions; `None` leaves
/// capacitors open (DC). A non-finite update fails the solve.
// stco-hot
fn newton_solve(
    ckt: &Circuit,
    x: &mut [f64],
    t: f64,
    source_scale: f64,
    dynamic: Option<&DynamicCtx<'_>>,
    ws: &mut NewtonWorkspace,
    iters: &Counter,
) -> Result<()> {
    let size = ckt.system_size();
    let n = ckt.num_nodes() - 1;
    let analysis = if dynamic.is_some() { "tran" } else { "dc" };
    ws.x_prev.clear();
    ws.x_prev.extend_from_slice(x);
    let x_prev = &mut ws.x_prev;
    for iter in 0..MAX_NEWTON {
        iters.inc();
        ws.sys.reset(size);
        stamp_all(ckt, x, t, source_scale, dynamic, &mut ws.sys);
        // Factor-once-per-iteration into the leased workspace: same bits
        // as `lu_solve`, none of its allocations.
        ws.sys.matrix.lu_factor_into(&mut ws.factors)?;
        ws.factors.solve_into(&ws.sys.rhs, &mut ws.solution)?;
        let solution = &ws.solution;
        // Progressive under-relaxation: full steps while easy progress is
        // made (supply ramp-up), then increasingly strong damping. The
        // companion fixed point is exact, so damping only has to defeat
        // the local divergence of the stiffest stack nodes — each halving
        // of the relaxation factor doubles the tolerable eigenvalue.
        let relax = match iter {
            0..=29 => 1.0,
            30..=99 => 0.6,
            100..=199 => 0.3,
            200..=349 => 0.12,
            350..=599 => 0.05,
            _ => 0.02,
        };
        let mut max_dx = 0.0_f64;
        for (i, (xi, xn)) in x.iter_mut().zip(solution.iter()).enumerate() {
            let mut dx = xn - *xi;
            if !dx.is_finite() {
                // `f64::max` below would drop a NaN and call it converged.
                return Err(SpiceError::NoConvergence {
                    analysis,
                    residual: dx,
                });
            }
            if i < n {
                dx = dx.clamp(-VOLTAGE_CLAMP, VOLTAGE_CLAMP);
            }
            *xi += relax * dx;
            max_dx = max_dx.max(dx.abs());
        }
        if max_dx < UPDATE_TOL {
            return Ok(());
        }
        // Period-2 cycle breaker: averaging consecutive iterates lands a
        // two-cycle exactly on its midpoint (cross-coupled latch nodes).
        if iter % 16 == 15 {
            for (xi, pi) in x.iter_mut().zip(x_prev.iter()) {
                *xi = 0.5 * (*xi + pi);
            }
        }
        x_prev.copy_from_slice(x);
    }
    Err(SpiceError::NoConvergence {
        analysis,
        residual: f64::NAN,
    })
}

// stco-hot
fn stamp_all(
    ckt: &Circuit,
    x: &[f64],
    t: f64,
    source_scale: f64,
    dynamic: Option<&DynamicCtx<'_>>,
    sys: &mut MnaSystem,
) {
    let volt = |node: NodeId| -> f64 {
        if node == Circuit::GROUND {
            0.0
        } else {
            x[node.0 - 1]
        }
    };
    // g-min to ground on every node. In any dynamic mode, each node also
    // carries its parasitic capacitance companion; pseudo-transient DC
    // adds the (much larger) artificial capacitor on top.
    for i in 1..ckt.num_nodes() {
        sys.stamp_conductance(ckt, NodeId(i), Circuit::GROUND, GMIN);
        if let Some(ctx) = dynamic {
            // Parasitic/artificial node capacitance always integrates
            // backward-Euler: it is a regularizer, not a modeled element.
            let g_node = ctx.artificial_g + NODE_PARASITIC_CAP / ctx.dt;
            let v_prev = ctx.prev_v[i - 1];
            sys.stamp_conductance(ckt, NodeId(i), Circuit::GROUND, g_node);
            sys.stamp_current(ckt, NodeId(i), Circuit::GROUND, -g_node * v_prev);
        }
    }
    for e in ckt.elements() {
        match e {
            Element::Resistor {
                nodes: (a, b),
                resistance,
                ..
            } => {
                sys.stamp_conductance(ckt, *a, *b, 1.0 / resistance);
            }
            Element::Capacitor {
                nodes: (a, b),
                capacitance,
                ..
            } => {
                stamp_capacitor(ckt, sys, *a, *b, *capacitance, dynamic);
            }
            Element::VoltageSource {
                nodes: (p, m),
                waveform,
                branch,
                ..
            } => {
                let v = waveform.value_at(t) * source_scale;
                sys.stamp_vsource(ckt, *p, *m, *branch, v);
            }
            Element::Tft {
                dgs: (d, g, s),
                model,
                ..
            } => {
                let vgs = volt(*g) - volt(*s);
                let vds = volt(*d) - volt(*s);
                // One model pass yields the current and its analytic
                // gm/gds. gm is legitimately negative when a stacked
                // device operates with reversed V_DS, and clamping it
                // corrupts the Jacobian (per-node g-min keeps the system
                // nonsingular regardless).
                let lin = model.linearize(vgs, vds);
                let (id0, gm, gds) = (lin.id, lin.gm, lin.gds);
                // Companion: i_d = I_eq + gm·v_gs + gds·v_ds.
                let i_eq = id0 - gm * vgs - gds * vds;
                sys.stamp_conductance(ckt, *d, *s, gds);
                sys.stamp_transconductance(ckt, *d, *s, *g, *s, gm);
                sys.stamp_current(ckt, *d, *s, i_eq);
                // Gate loading: Cgs and Cgd at half the gate capacitance.
                let half_cg = 0.5 * model.gate_capacitance();
                stamp_capacitor(ckt, sys, *g, *s, half_cg, dynamic);
                stamp_capacitor(ckt, sys, *g, *d, half_cg, dynamic);
            }
        }
    }
}

fn stamp_capacitor(
    ckt: &Circuit,
    sys: &mut MnaSystem,
    a: NodeId,
    b: NodeId,
    c: f64,
    dynamic: Option<&DynamicCtx<'_>>,
) {
    let Some(ctx) = dynamic else {
        // DC: capacitor is open; nothing to stamp (g-min ties nodes).
        return;
    };
    let pv = |node: NodeId| -> f64 {
        if node == Circuit::GROUND {
            0.0
        } else {
            ctx.prev_v[node.0 - 1]
        }
    };
    let v_prev = pv(a) - pv(b);
    // Backward Euler: i = g·v − g·v_prev with g = C/dt.
    let g = c / ctx.dt;
    sys.stamp_conductance(ckt, a, b, g);
    sys.stamp_current(ckt, a, b, -g * v_prev);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::Waveform;
    use stco_compact::model::CompactModel;

    #[test]
    fn divider_dc() {
        let mut ckt = Circuit::new();
        let vin = ckt.node("in");
        let mid = ckt.node("mid");
        ckt.add_vsource("V1", vin, Circuit::GROUND, Waveform::Dc(3.0));
        ckt.add_resistor("R1", vin, mid, 2.0e3);
        ckt.add_resistor("R2", mid, Circuit::GROUND, 1.0e3);
        let dc = ckt.dc_operating_point().unwrap();
        assert!((dc.voltage(mid) - 1.0).abs() < 1e-6);
        // Source current = −V/(R1+R2) by MNA convention (flows + → −).
        let i = dc.branch_current(0);
        assert!((i + 1.0e-3).abs() < 1e-8, "source current {i}");
    }

    #[test]
    fn kcl_holds_at_dc() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let b = ckt.node("b");
        ckt.add_vsource("V1", a, Circuit::GROUND, Waveform::Dc(2.0));
        ckt.add_resistor("R1", a, b, 1.0e3);
        ckt.add_resistor("R2", b, Circuit::GROUND, 1.0e3);
        ckt.add_resistor("R3", b, Circuit::GROUND, 2.0e3);
        let dc = ckt.dc_operating_point().unwrap();
        let vb = dc.voltage(b);
        let i_in = (2.0 - vb) / 1.0e3;
        let i_out = vb / 1.0e3 + vb / 2.0e3;
        assert!((i_in - i_out).abs() < 1e-9, "KCL violated at node b");
    }

    #[test]
    fn rc_transient_matches_analytic() {
        let mut ckt = Circuit::new();
        let vin = ckt.node("in");
        let out = ckt.node("out");
        ckt.add_vsource(
            "V1",
            vin,
            Circuit::GROUND,
            Waveform::Pulse {
                v0: 0.0,
                v1: 1.0,
                delay: 0.0,
                rise: 1e-12,
                fall: 1e-12,
                width: 1.0,
                period: 0.0,
            },
        );
        let r = 1.0e3;
        let c = 1.0e-9; // τ = 1 µs
        ckt.add_resistor("R", vin, out, r);
        ckt.add_capacitor("C", out, Circuit::GROUND, c);
        let tau = r * c;
        let tr = ckt
            .transient(&TranConfig {
                t_stop: 5.0 * tau,
                dt: tau / 100.0,
            })
            .unwrap();
        let v = tr.voltage_trace(out);
        let ts = tr.times();
        // Compare at t = τ: expect 1 − e⁻¹ (BE has O(dt) error; 1 % step).
        let idx = ts.iter().position(|&t| t >= tau).unwrap();
        let expected = 1.0 - (-ts[idx] / tau).exp();
        assert!(
            (v[idx] - expected).abs() < 0.02,
            "RC at τ: {} vs {}",
            v[idx],
            expected
        );
        // Final value approaches 1.
        assert!((tr.final_voltage(out) - 1.0).abs() < 0.01);
    }

    #[test]
    fn tft_inverter_dc_transfer() {
        // Resistive-load inverter with the n-type reference TFT.
        let model = CompactModel::ntype_reference();
        let mut low_out = f64::NAN;
        let mut high_out = f64::NAN;
        for (vin_val, out_slot) in [(0.0, &mut high_out), (3.0, &mut low_out)] {
            let mut ckt = Circuit::new();
            let vdd = ckt.node("vdd");
            let vin = ckt.node("in");
            let out = ckt.node("out");
            ckt.add_vsource("VDD", vdd, Circuit::GROUND, Waveform::Dc(3.0));
            ckt.add_vsource("VIN", vin, Circuit::GROUND, Waveform::Dc(vin_val));
            ckt.add_resistor("RL", vdd, out, 1.0e6);
            ckt.add_tft("M1", out, vin, Circuit::GROUND, model.clone());
            let dc = ckt.dc_operating_point().unwrap();
            *out_slot = dc.voltage(out);
        }
        assert!(high_out > 2.9, "off transistor → output ≈ VDD: {high_out}");
        assert!(low_out < 0.5, "on transistor pulls low: {low_out}");
    }

    #[test]
    fn nan_mobility_fails_instead_of_converging_onto_nan() {
        let mut model = CompactModel::ntype_reference();
        model.mu0 = f64::NAN;
        let mut ckt = Circuit::new();
        let vdd = ckt.node("vdd");
        let vin = ckt.node("in");
        let out = ckt.node("out");
        ckt.add_vsource("VDD", vdd, Circuit::GROUND, Waveform::Dc(3.0));
        ckt.add_vsource("VIN", vin, Circuit::GROUND, Waveform::Dc(3.0));
        ckt.add_resistor("RL", vdd, out, 1.0e6);
        ckt.add_tft("M1", out, vin, Circuit::GROUND, model);
        let dc = ckt.dc_operating_point();
        assert!(
            matches!(dc, Err(SpiceError::NoConvergence { .. })),
            "{dc:?}"
        );
        let tran = ckt.transient(&TranConfig {
            t_stop: 1.0e-6,
            dt: 1.0e-8,
        });
        assert!(
            matches!(tran, Err(SpiceError::NoConvergence { .. })),
            "{tran:?}"
        );
    }

    #[test]
    fn transient_rejects_bad_config() {
        let ckt = Circuit::new();
        assert!(ckt
            .transient(&TranConfig {
                t_stop: 0.0,
                dt: 1e-9
            })
            .is_err());
    }

    #[test]
    fn capacitor_holds_charge_with_no_path() {
        // A capacitor from a node fed only by g-min floats near 0 at DC.
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        ckt.add_capacitor("C", a, Circuit::GROUND, 1e-12);
        let dc = ckt.dc_operating_point().unwrap();
        assert!(dc.voltage(a).abs() < 1e-6);
    }
}
