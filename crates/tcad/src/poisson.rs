//! Nonlinear Poisson solver over the device mesh.
//!
//! The discretization is finite-volume: for each non-electrode node,
//!
//! ```text
//! Σ_nb ε_f · (A_f/d) · (ψ_nb − ψ_i)  +  ρ(ψ_i) · V_i  =  0
//! ```
//!
//! with ρ the (strongly nonlinear) space charge of
//! [`crate::physics::space_charge`] in semiconductor nodes and zero in
//! dielectrics. Electrode nodes (gate, source, drain) carry Dirichlet
//! rows. Rows are rescaled by their diagonal so the Newton residual reads
//! in volts; the linearized updates are solved with Jacobi-preconditioned
//! BiCGSTAB. Gate/drain bias is ramped in steps, warm-starting each step
//! from the previous solution — the standard TCAD continuation strategy.

use crate::device::{Bias, Device};
use crate::physics;
use crate::{Result, TcadError};
use stco_numerics::solve::{bicgstab, IterOptions};
use stco_numerics::sparse::CooBuilder;

/// A converged electrostatic solution.
#[derive(Debug, Clone)]
pub struct PotentialSolution {
    /// Electrostatic potential per node, V.
    pub psi: Vec<f64>,
    /// Mobile+trapped carrier density per node (0 outside semiconductor), 1/m³.
    pub carrier_density: Vec<f64>,
    /// Net space charge per node, C/m³.
    pub space_charge: Vec<f64>,
    /// SRH net recombination per node, 1/(m³·s) — a self-consistent
    /// feature of the unified encoding.
    pub srh: Vec<f64>,
    /// Total Newton iterations across all continuation steps.
    pub newton_iterations: usize,
}

impl PotentialSolution {
    /// The solution a potential map implies on `device` at `bias`: the
    /// carrier density, space charge and SRH recombination of
    /// [`crate::physics`] at every non-electrode semiconductor node (zero
    /// elsewhere), with `newton_iterations` recorded as given.
    ///
    /// This is the ψ → charge half of the self-consistent loop, shared by
    /// [`solve_poisson`] and the surrogate device solve that alternates
    /// it with a predicted ψ. It checks nothing: callers that need
    /// finite fields assert them.
    pub fn from_potential(
        device: &Device,
        bias: Bias,
        psi: Vec<f64>,
        newton_iterations: usize,
    ) -> Self {
        let mesh = device.mesh();
        let params = device.channel();
        let n = mesh.num_nodes();
        let mut carrier = vec![0.0; n];
        let mut charge = vec![0.0; n];
        let mut srh = vec![0.0; n];
        for i in 0..n {
            if mesh.material(i).is_semiconductor() && !mesh.region(i).is_dirichlet() {
                let (x, _) = mesh.position(i);
                let phi = device.quasi_fermi(x, bias);
                let nd = physics::carrier_density(params, psi[i], phi);
                carrier[i] = nd;
                charge[i] = physics::space_charge(params, psi[i], phi);
                let ni = params.intrinsic_density.max(1.0);
                let minority = ni * ni / nd.max(ni);
                srh[i] = physics::srh_recombination(params, nd, minority);
            }
        }
        PotentialSolution {
            psi,
            carrier_density: carrier,
            space_charge: charge,
            srh,
            newton_iterations,
        }
    }
}

/// Solves the nonlinear Poisson problem at the given bias.
///
/// # Errors
///
/// Returns [`TcadError::PoissonDiverged`] if the damped-Newton iteration
/// fails at the final continuation step, or propagates numerical errors.
pub fn solve_poisson(device: &Device, bias: Bias) -> Result<PotentialSolution> {
    let _span = stco_obs::span!("tcad.solve_poisson", gate = bias.gate, drain = bias.drain,);
    let mut psi = vec![0.0; device.mesh().num_nodes()];
    let mut total_iters = 0usize;

    // Bias continuation: ramp both terminals together. Each step runs a
    // clamped-update Newton ("Gummel damping"): the linear update is
    // limited to ±8·kT/q per node per iteration, the standard way to tame
    // the exponential Boltzmann terms without line searches.
    let steps = [0.25, 0.5, 0.75, 1.0];
    let clamp = 8.0 * crate::THERMAL_VOLTAGE;
    for (si, &frac) in steps.iter().enumerate() {
        let b = Bias {
            gate: bias.gate * frac,
            drain: bias.drain * frac,
        };
        // Seed Dirichlet nodes exactly; interior keeps the previous step.
        for (i, p) in psi.iter_mut().enumerate() {
            if let Some(pd) = device.dirichlet_potential(i, b) {
                *p = pd;
            }
        }
        let _step_span = stco_obs::span!("tcad.continuation_step", frac = frac);
        let max_iter = 200;
        let mut converged = false;
        let mut last_update = f64::INFINITY;
        for it in 0..max_iter {
            total_iters += 1;
            let (residual, jac) = assemble(device, b, &psi);
            let csr = jac.to_csr();
            let lin = bicgstab(
                &csr,
                &residual,
                &IterOptions {
                    tol: 1e-10,
                    max_iter: 6000,
                },
            )?;
            let mut max_dx = 0.0_f64;
            for (p, dx) in psi.iter_mut().zip(&lin.x) {
                let step = dx.clamp(-clamp, clamp);
                *p -= step;
                max_dx = max_dx.max(step.abs());
            }
            last_update = max_dx;
            // One poisoned node here would propagate through the carrier
            // densities into every downstream I-V point; fail at the
            // iteration that produced it, naming the node and bias.
            if let Some((node, _)) = stco_numerics::guard::first_non_finite(&psi) {
                return Err(TcadError::NonFinite {
                    node,
                    gate: bias.gate,
                    drain: bias.drain,
                    context: "poisson.psi".into(),
                });
            }
            stco_obs::event!("tcad.newton_iter", it = it, max_dx = max_dx);
            if max_dx < 1e-9 {
                converged = true;
                break;
            }
        }
        if !converged && si + 1 == steps.len() {
            return Err(TcadError::PoissonDiverged {
                residual: last_update,
            });
        }
    }

    let solution = PotentialSolution::from_potential(device, bias, psi, total_iters);
    stco_numerics::debug_assert_all_finite!("poisson.carrier_density", &solution.carrier_density);
    stco_numerics::debug_assert_all_finite!("poisson.space_charge", &solution.space_charge);
    stco_obs::Recorder::global()
        .metrics()
        .counter("tcad.newton_iters")
        .add(total_iters as u64);
    Ok(solution)
}

/// Assembles the row-scaled residual and Jacobian at `state`.
fn assemble(device: &Device, bias: Bias, state: &[f64]) -> (Vec<f64>, CooBuilder) {
    let mesh = device.mesh();
    let n = mesh.num_nodes();
    let params = device.channel();
    let mut residual = vec![0.0; n];
    let mut jac = CooBuilder::new(n, n);

    for i in 0..n {
        if let Some(pd) = device.dirichlet_potential(i, bias) {
            residual[i] = state[i] - pd;
            jac.push(i, i, 1.0);
            continue;
        }
        let mut r = 0.0;
        let mut diag = 0.0;
        let mut offs: Vec<(usize, f64)> = Vec::with_capacity(4);
        for nb in mesh.neighbors(i) {
            let c = mesh.face_permittivity(i, nb) * mesh.coupling_factor(i, nb);
            r += c * (state[nb] - state[i]);
            diag -= c;
            offs.push((nb, c));
        }
        let is_channel_node = mesh.material(i).is_semiconductor() && !mesh.region(i).is_dirichlet();
        if is_channel_node {
            let (x, _) = mesh.position(i);
            let phi = device.quasi_fermi(x, bias);
            let vol = mesh.control_area(i);
            r += physics::space_charge(params, state[i], phi) * vol;
            diag += physics::space_charge_dpsi(params, state[i], phi) * vol;
        }
        // Row scaling: divide by |diag| so the residual reads in volts and
        // the Jacobian diagonal is ±1 (ideal for Jacobi preconditioning).
        let scale = 1.0 / diag.abs().max(1e-300);
        residual[i] = r * scale;
        jac.push(i, i, diag * scale);
        for (nb, c) in offs {
            jac.push(i, nb, c * scale);
        }
    }
    (residual, jac)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::DeviceSpec;
    use crate::materials::Technology;

    #[test]
    fn zero_bias_solution_is_near_flat_band_structure() -> Result<()> {
        let d = DeviceSpec::reference(Technology::Igzo).build()?;
        let sol = solve_poisson(&d, Bias::default())?;
        assert!(sol.psi.iter().all(|p| p.is_finite()));
        // Gate node pinned at −V_FB.
        let gate = d.mesh().node_index(0, 0);
        assert!((sol.psi[gate] + d.channel().flat_band).abs() < 1e-9);
        Ok(())
    }

    #[test]
    fn residual_of_converged_solution_is_small() -> Result<()> {
        let d = DeviceSpec::reference(Technology::Igzo).build()?;
        let bias = Bias {
            gate: 2.0,
            drain: 0.5,
        };
        let sol = solve_poisson(&d, bias)?;
        let (res, _) = assemble(&d, bias, &sol.psi);
        let max = res.iter().fold(0.0_f64, |m, v| m.max(v.abs()));
        assert!(max < 1e-6, "converged residual {max}");
        Ok(())
    }

    #[test]
    fn positive_gate_accumulates_ntype_channel() -> Result<()> {
        let d = DeviceSpec::reference(Technology::Igzo).build()?;
        let off = solve_poisson(
            &d,
            Bias {
                gate: -1.0,
                drain: 0.1,
            },
        )?;
        let on = solve_poisson(
            &d,
            Bias {
                gate: 3.0,
                drain: 0.1,
            },
        )?;
        let mesh = d.mesh();
        let row = d.channel_rows()[0];
        let mid = mesh.node_index(mesh.nx() / 2, row);
        assert!(
            on.carrier_density[mid] > 100.0 * off.carrier_density[mid],
            "on {:.3e} vs off {:.3e}",
            on.carrier_density[mid],
            off.carrier_density[mid]
        );
        Ok(())
    }

    #[test]
    fn negative_gate_accumulates_ptype_cnt() -> Result<()> {
        let d = DeviceSpec::reference(Technology::Cnt).build()?;
        let off = solve_poisson(
            &d,
            Bias {
                gate: 1.0,
                drain: -0.1,
            },
        )?;
        let on = solve_poisson(
            &d,
            Bias {
                gate: -3.0,
                drain: -0.1,
            },
        )?;
        let mesh = d.mesh();
        let row = d.channel_rows()[0];
        let mid = mesh.node_index(mesh.nx() / 2, row);
        assert!(on.carrier_density[mid] > 100.0 * off.carrier_density[mid]);
        Ok(())
    }

    #[test]
    fn potential_is_monotone_through_oxide_in_accumulation() -> Result<()> {
        // With a strong positive gate and grounded channel, ψ must drop
        // monotonically from gate through the oxide at mid-channel.
        let d = DeviceSpec::reference(Technology::Igzo).build()?;
        let sol = solve_poisson(
            &d,
            Bias {
                gate: 3.0,
                drain: 0.0,
            },
        )?;
        let mesh = d.mesh();
        let ix = mesh.nx() / 2;
        let first_ch_row = d.channel_rows()[0];
        let mut prev = f64::INFINITY;
        for iy in 0..=first_ch_row {
            let p = sol.psi[mesh.node_index(ix, iy)];
            assert!(p <= prev + 1e-9, "ψ must not increase toward channel");
            prev = p;
        }
        Ok(())
    }

    #[test]
    fn solution_shapes_match_mesh() -> Result<()> {
        let d = DeviceSpec::reference(Technology::Ltps).build()?;
        let sol = solve_poisson(
            &d,
            Bias {
                gate: 1.5,
                drain: 0.5,
            },
        )?;
        let n = d.mesh().num_nodes();
        assert_eq!(sol.psi.len(), n);
        assert_eq!(sol.carrier_density.len(), n);
        assert_eq!(sol.space_charge.len(), n);
        assert_eq!(sol.srh.len(), n);
        assert!(sol.newton_iterations > 0);
        Ok(())
    }
}
